//! Map phase: fingerprint generation and length partitioning (Section
//! III-A).
//!
//! Batches of reads are staged on the device; each read *and its reverse
//! complement* (vertices `2i` / `2i+1`) is fingerprinted — all prefixes in
//! one pass, all suffixes derived from them — and the `(fingerprint,
//! vertex)` tuples of the kept lengths come back length-major, one row per
//! partition, and are appended to the per-length partition files a row at
//! a time. Lengths below `l_min` and the full read length are dropped (the
//! latter would create self-loops) before they are ever stored.
//!
//! A *device batch* is what the paper charges: up to 90% of the device
//! filled with reads and their fingerprint outputs (a
//! [`vgpu::Device::reserve`], which takes no host bytes), one upload,
//! one kernel launch and one download of its kept tuples. The host
//! executes that batch one *tile* of `TILE_READS` reads at a time: each
//! tile is fingerprinted into the same two tile-sized row buffers and
//! written to the partitions before the next, so the host holds one
//! tile's tuples whatever the device's size. Tiles go out in vertex
//! order, so every partition receives the tuples, and the bytes, that the
//! whole batch would give it.

use crate::config::AssemblyConfig;
use crate::Result;
use fingerprint::{charge_fingerprint_kernel, fingerprint_rows_into, truncate_bits, RabinKarp};
use genome::ReadSet;
use gstream::spill::{PartitionSet, SpillDir};
use gstream::{HostMem, KvPair};
use std::collections::BTreeMap;
use std::ops::Range;
use vgpu::Device;

/// Reads of a device batch that the host fingerprints and writes at a
/// time. Their 256 strands are whole scan tiles, and enough bases to
/// share out over the cores; their kept tuples, 32 B per strand, length
/// and side, are 0.6 MB for 100 bp reads.
const TILE_READS: usize = 128;
const _: () = assert!((2 * TILE_READS).is_multiple_of(fingerprint::TILE));

/// Per-length record counts produced by the map phase.
pub type PartitionCounts = BTreeMap<u32, (u64, u64)>;

/// Run the map phase over all reads: returns
/// `(length → (suffix records, prefix records))`.
pub fn run(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    reads: &ReadSet,
) -> Result<PartitionCounts> {
    let disabled = obs::Recorder::disabled();
    map_block(
        device,
        host,
        spill,
        config,
        reads,
        0..reads.len(),
        &disabled,
        0,
    )
}

/// Map the reads of `block` into `spill`'s partitions, the one map step
/// of the pipeline and of every distributed rank. Vertex ids stay global
/// (`2 · read-index + strand`), which is what lets the distributed map
/// assign blocks to arbitrary nodes (Section III-E1). `map.batches` and
/// the per-length `spill.tuples.*` / `spill.bytes` counters land on `span`.
#[allow(clippy::too_many_arguments)]
pub fn map_block(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    reads: &ReadSet,
    block: Range<usize>,
    rec: &obs::Recorder,
    span: u64,
) -> Result<PartitionCounts> {
    let Range { start, end } = block;
    config.validate()?;
    let n = reads.read_len();
    if n != config.l_max as usize {
        return Err(crate::LasagnaError::BadConfig(format!(
            "reads have length {n} but config.l_max is {}",
            config.l_max
        )));
    }
    if start > end || end > reads.len() {
        return Err(crate::LasagnaError::BadConfig(format!(
            "block [{start}, {end}) out of range for {} reads",
            reads.len()
        )));
    }
    let rk = RabinKarp::new(n);
    let mut partitions =
        PartitionSet::create_split(spill, config.l_min, config.l_max, config.range_split)?;

    // Batch sizing. On the host a batch stages forward + reverse codes
    // (2n bytes per read); on the device it holds those codes plus the
    // prefix and suffix fingerprints of both orientations (2·2·n·16 B per
    // read). The paper allocates "a fixed amount of device memory for each
    // phase regardless of the data size, and the device memory assigned is
    // fully utilized" (Section IV-C2) — so the batch grows until it fills
    // 90% of the device, bounded by half the host budget.
    let per_read_device_bytes = 2 * n + 2 * 2 * n * 16;
    let device_cap = (device.capacity() as usize * 9 / 10 / per_read_device_bytes).max(1);
    let host_cap = (host.capacity() as usize / (n * 2) / 2).max(1);
    let batch_reads = config.map_batch_reads.min(host_cap).min(device_cap);
    // Staged codes of one batch, reused by the next: two strands per read.
    let mut batch: Vec<Vec<u8>> = vec![Vec::new(); batch_reads.min(end - start) * 2];
    // Kept tuples of one tile, reused by the next: per side one row of
    // tuples per kept length.
    let kept = config.l_min as usize..config.l_max as usize;
    let tile_strands = 2 * TILE_READS;
    let mut suffix = vec![KvPair::default(); batch.len().min(tile_strands) * kept.len()];
    let mut prefix = suffix.clone();

    let mut batches = 0u64;
    let mut read_idx = start;
    while read_idx < end {
        batches += 1;
        let batch_end = (read_idx + batch_reads).min(end);
        // Host staging buffer for the batch: forward + reverse codes; the
        // device holds the batch plus its fingerprint outputs.
        let _host_guard = host.reserve(((batch_end - read_idx) * n * 2) as u64)?;
        let _device_staging =
            device.reserve(((batch_end - read_idx) * per_read_device_bytes) as u64)?;

        let batch = &mut batch[..(batch_end - read_idx) * 2];
        let (strand_pairs, _) = batch.as_chunks_mut::<2>();
        for (i, [forward, reverse]) in (read_idx..batch_end).zip(strand_pairs) {
            reads.read_codes_into(i, forward); // vertex 2i
            reverse.clear(); // vertex 2i + 1, the reverse complement
            reverse.extend(forward.iter().rev().map(|&c| c ^ 3));
        }

        // The reads travel to the device 2-bit packed; the kept tuples come
        // back as (16 B fingerprint + 4 B vertex) per partition entry.
        device.charge_transfer(
            (batch.len() * n) as u64 / 4,
            (batch.len() * kept.len() * 2 * KvPair::BYTES) as u64,
        );
        charge_fingerprint_kernel(device, config.fingerprint_scheme, batch.len(), n);

        // Strand `b` of the batch is vertex `2 · read_idx + b`.
        let first_vertices = (read_idx * 2..).step_by(tile_strands);
        for (tile, first_vertex) in batch.chunks(tile_strands).zip(first_vertices) {
            let tuples = tile.len() * kept.len();
            fingerprint_rows_into(
                &rk,
                tile,
                first_vertex,
                kept.clone(),
                &mut prefix[..tuples],
                &mut suffix[..tuples],
                |fp, v| KvPair::new(truncate_bits(fp, config.fingerprint_bits), v as u32),
            );
            partitions.write_rows(
                config.l_min,
                tile.len(),
                &suffix[..tuples],
                &prefix[..tuples],
            )?;
        }
        read_idx = batch_end;
    }

    if batches > 0 {
        rec.counter_on(span, "map.batches", batches);
    }
    Ok(partitions.finish_traced(rec, span)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::{GenomeSim, ShotgunSim};
    use gstream::spill::{range_of, Partition, PartitionKind};
    use gstream::IoStats;
    use vgpu::GpuProfile;

    fn setup() -> (stdx::TempDir, Device, HostMem, SpillDir) {
        let dir = stdx::tempdir().unwrap();
        let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
        let device = Device::new(GpuProfile::k40());
        let host = HostMem::new(64 << 20);
        (dir, device, host, spill)
    }

    fn tiny_reads() -> ReadSet {
        let genome = GenomeSim::uniform(400, 5).generate();
        ShotgunSim::error_free(20, 4.0, 6).sample(&genome)
    }

    #[test]
    fn map_creates_partitions_with_one_tuple_per_vertex_per_length() {
        let (_g, device, host, spill) = setup();
        let reads = tiny_reads();
        let config = AssemblyConfig::for_dataset(12, 20);
        let counts = run(&device, &host, &spill, &config, &reads).unwrap();
        assert_eq!(counts.len(), 8); // lengths 12..20
        let vertices = reads.vertex_count() as u64;
        for (len, (s, p)) in &counts {
            assert_eq!(*s, vertices, "suffix count at length {len}");
            assert_eq!(*p, vertices, "prefix count at length {len}");
        }
    }

    #[test]
    fn partition_tuples_hash_the_right_substrings() {
        let (_g, device, host, spill) = setup();
        let mut reads = ReadSet::new(8);
        reads.push(&"ACGTACGT".parse().unwrap()).unwrap();
        reads.push(&"TTACGTAC".parse().unwrap()).unwrap();
        let config = AssemblyConfig::for_dataset(5, 8);
        run(&device, &host, &spill, &config, &reads).unwrap();

        let rk = RabinKarp::new(8);
        // Suffix partition at length 6: vertex 0's tuple must equal the
        // direct fingerprint of the last 6 bases of read 0.
        let sfx: Vec<KvPair> = spill
            .reader(PartitionKind::Suffix, 6)
            .unwrap()
            .read_all()
            .unwrap();
        let read0 = reads.read(0).to_codes();
        let expect = rk.fingerprint(&read0[2..]);
        let v0 = sfx.iter().find(|p| p.val == 0).unwrap();
        assert_eq!(v0.key, expect);

        // Prefix partition at length 6: vertex 3 (reverse of read 1).
        let pfx: Vec<KvPair> = spill
            .reader(PartitionKind::Prefix, 6)
            .unwrap()
            .read_all()
            .unwrap();
        let rc1 = reads.read(1).reverse_complement().to_codes();
        let expect = rk.fingerprint(&rc1[..6]);
        let v3 = pfx.iter().find(|p| p.val == 3).unwrap();
        assert_eq!(v3.key, expect);
    }

    #[test]
    fn overlapping_reads_share_fingerprints_across_partitions() {
        let (_g, device, host, spill) = setup();
        let mut reads = ReadSet::new(8);
        // read1's 5-suffix "CGTAC" == read2's 5-prefix.
        reads.push(&"TAACGTAC".parse().unwrap()).unwrap();
        reads.push(&"CGTACTTA".parse().unwrap()).unwrap();
        let config = AssemblyConfig::for_dataset(5, 8);
        run(&device, &host, &spill, &config, &reads).unwrap();
        let sfx = spill
            .reader(PartitionKind::Suffix, 5)
            .unwrap()
            .read_all()
            .unwrap();
        let pfx = spill
            .reader(PartitionKind::Prefix, 5)
            .unwrap()
            .read_all()
            .unwrap();
        let s0 = sfx.iter().find(|p| p.val == 0).unwrap();
        let p2 = pfx.iter().find(|p| p.val == 2).unwrap();
        assert_eq!(s0.key, p2.key, "matching overlap must share a fingerprint");
    }

    #[test]
    fn wrong_read_length_is_rejected() {
        let (_g, device, host, spill) = setup();
        let reads = tiny_reads(); // length 20
        let config = AssemblyConfig::for_dataset(12, 21);
        assert!(run(&device, &host, &spill, &config, &reads).is_err());
    }

    #[test]
    fn empty_read_set_produces_empty_partitions() {
        let (_g, device, host, spill) = setup();
        let reads = ReadSet::new(20);
        let config = AssemblyConfig::for_dataset(12, 20);
        let counts = run(&device, &host, &spill, &config, &reads).unwrap();
        assert!(counts.values().all(|&(s, p)| s == 0 && p == 0));
    }

    #[test]
    fn truncated_fingerprints_lose_low_bits() {
        let (_g, device, host, spill) = setup();
        let reads = tiny_reads();
        let mut config = AssemblyConfig::for_dataset(12, 20);
        config.fingerprint_bits = 16;
        run(&device, &host, &spill, &config, &reads).unwrap();
        let sfx = spill
            .reader(PartitionKind::Suffix, 12)
            .unwrap()
            .read_all()
            .unwrap();
        assert!(sfx.iter().all(|p| p.key < (1 << 16)));
    }

    /// What a partition must hold, from nothing but the definition: one
    /// tuple per vertex in vertex order, the straight Horner fingerprint of
    /// that strand's `len`-suffix or `len`-prefix, truncated.
    fn reference(
        reads: &ReadSet,
        vertices: std::ops::Range<usize>,
        len: usize,
        bits: u32,
    ) -> [Vec<KvPair>; 2] {
        let rk = RabinKarp::new(reads.read_len());
        let tuple = |v: usize, codes: &[u8]| {
            KvPair::new(truncate_bits(rk.fingerprint(codes), bits), v as u32)
        };
        let strands = vertices.map(|v| (v, reads.vertex_seq(v as u32).to_codes()));
        strands
            .map(|(v, codes)| {
                (
                    tuple(v, &codes[codes.len() - len..]),
                    tuple(v, &codes[..len]),
                )
            })
            .unzip()
            .into()
    }

    /// Batch sizes around and across the host tile: one read, a few, one
    /// short of a tile, a tile, one over, three tiles and a ragged fourth,
    /// and more than the whole set.
    const BATCHINGS: [usize; 7] = [
        1,
        7,
        TILE_READS - 1,
        TILE_READS,
        TILE_READS + 1,
        3 * TILE_READS + 5,
        4096,
    ];

    #[test]
    fn every_partition_equals_the_per_vertex_reference_for_any_batching() {
        let genome = GenomeSim::uniform(600, 11).generate();
        let reads = ShotgunSim::error_free(24, 20.0, 12).sample(&genome);
        // Enough reads that a batch spans four tiles, and enough tuples per
        // tile that it is fingerprinted and written in parallel parts.
        assert!(reads.len() > 3 * TILE_READS + 5, "{} reads", reads.len());
        const { assert!(2 * TILE_READS * 9 * 2 > vgpu::exec::ELEMENT_GRAIN) };
        for range_split in [1, 3] {
            for fingerprint_bits in [128, 40] {
                for map_batch_reads in BATCHINGS {
                    let (_g, device, host, spill) = setup();
                    let mut config = AssemblyConfig::for_dataset(15, 24);
                    config.range_split = range_split;
                    config.fingerprint_bits = fingerprint_bits;
                    config.map_batch_reads = map_batch_reads;
                    run(&device, &host, &spill, &config, &reads).unwrap();
                    assert_partitions_match(&spill, &config, &reads, 0..reads.len());
                }
            }
        }
    }

    #[test]
    fn a_block_of_reads_keeps_global_vertex_ids() {
        // Two blocks, each into its own directory as two cluster nodes
        // would map them.
        let genome = GenomeSim::uniform(300, 13).generate();
        let reads = ShotgunSim::error_free(24, 5.0, 14).sample(&genome);
        let cut = reads.len() / 3;
        let mut config = AssemblyConfig::for_dataset(15, 24);
        config.map_batch_reads = 7;
        for block in [0..cut, cut..reads.len()] {
            let (_g, device, host, spill) = setup();
            let disabled = obs::Recorder::disabled();
            let counts = map_block(
                &device,
                &host,
                &spill,
                &config,
                &reads,
                block.clone(),
                &disabled,
                0,
            )
            .unwrap();
            assert!(counts
                .values()
                .all(|&c| c == (2 * block.len() as u64, 2 * block.len() as u64)));
            assert_partitions_match(&spill, &config, &reads, block);
        }
    }

    /// Every partition file of `spill`, ranges concatenated in tuple
    /// order, against [`reference`] for the reads of `block`.
    fn assert_partitions_match(
        spill: &SpillDir,
        config: &AssemblyConfig,
        reads: &ReadSet,
        block: std::ops::Range<usize>,
    ) {
        let ranges = config.range_split;
        for len in config.l_min..config.l_max {
            let expect = reference(
                reads,
                2 * block.start..2 * block.end,
                len as usize,
                config.fingerprint_bits,
            );
            for r in 0..ranges {
                for (part, expect) in Partition::pair(len, r, ranges).into_iter().zip(&expect) {
                    let got = spill.reader_range(part).unwrap().read_all().unwrap();
                    let of_range: Vec<KvPair> = expect
                        .iter()
                        .copied()
                        .filter(|p| range_of(p.key, ranges) == r)
                        .collect();
                    assert_eq!(got, of_range, "{part:?}");
                }
            }
        }
    }

    #[test]
    fn map_charges_device_kernels_and_transfers() {
        // One launch, one upload and one download per device batch however
        // many tiles the host computes it in, and the batch held on the
        // device only while it is mapped.
        let genome = GenomeSim::uniform(600, 11).generate();
        let reads = ShotgunSim::error_free(24, 20.0, 12).sample(&genome);
        let config = AssemblyConfig::for_dataset(15, 24);
        let (n, kept) = (24, 9);
        let strands = 2 * reads.len();
        for map_batch_reads in BATCHINGS {
            let (_g, device, host, spill) = setup();
            let config = AssemblyConfig {
                map_batch_reads,
                ..config
            };
            run(&device, &host, &spill, &config, &reads).unwrap();
            let stats = device.stats();
            let batches = reads.len().div_ceil(map_batch_reads) as u64;
            assert_eq!(
                stats.kernel_launches, batches,
                "batches of {map_batch_reads}"
            );
            assert_eq!(
                (stats.h2d_bytes, stats.d2h_bytes),
                (
                    (strands * n / 4) as u64,
                    (strands * kept * 2 * KvPair::BYTES) as u64
                ),
                "batches of {map_batch_reads}"
            );
            let per_read_device_bytes = 2 * n + 2 * 2 * n * 16;
            let batch = map_batch_reads.min(reads.len());
            assert_eq!(
                (stats.mem_used, stats.mem_peak),
                (0, (batch * per_read_device_bytes) as u64),
                "batches of {map_batch_reads}"
            );
        }
    }
}
