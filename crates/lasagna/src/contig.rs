//! Contig generation (second stage of Section III-D, Fig. 7).
//!
//! Paths are laid out with device scans: an exclusive prefix scan over path
//! lengths gives each path's offset in the flat step array; a scan over
//! overhang lengths gives each step's offset within the contig buffer and
//! each contig's total size. Each `(offset, overhang)` tuple is then routed
//! to the slot of its read-id (the paper's *gather* with the read-id array
//! as stencil), and finally the reads are streamed once, each depositing
//! the first `overhang` bases of its oriented sequence at its offset.

use crate::traverse::Path;
use crate::Result;
use genome::{PackedSeq, ReadSet};
use vgpu::Device;

/// Summary statistics over the produced contigs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContigStats {
    /// Number of contigs (including single-read contigs).
    pub count: u64,
    /// Contigs spelled from ≥ 2 reads.
    pub multi_read: u64,
    /// Total bases across contigs.
    pub total_bases: u64,
    /// Longest contig.
    pub max_len: u64,
    /// N50: length L such that contigs ≥ L cover half the total bases.
    pub n50: u64,
}

stdx::impl_json!(struct ContigStats { count, multi_read, total_bases, max_len, n50 });

impl ContigStats {
    /// Compute statistics from contig lengths.
    pub fn from_lengths(lengths: &[u64], multi_read: u64) -> Self {
        let total: u64 = lengths.iter().sum();
        let mut sorted = lengths.to_vec();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let mut acc = 0u64;
        let mut n50 = 0u64;
        for &l in &sorted {
            acc += l;
            if acc * 2 >= total {
                n50 = l;
                break;
            }
        }
        ContigStats {
            count: lengths.len() as u64,
            multi_read,
            total_bases: total,
            max_len: sorted.first().copied().unwrap_or(0),
            n50,
        }
    }
}

/// Exclusive prefix scan over an arbitrarily long host array, executed as
/// device-chunk scans stitched with a carry — the same streaming treatment
/// every other phase gives data larger than the device. Returns the total.
fn chunked_exclusive_scan(device: &Device, values: &mut [u64]) -> Result<u64> {
    // The device scan allocates a same-sized scratch buffer; halve again
    // for headroom under other resident allocations.
    let chunk = device.elements_that_fit::<u64>(0.5).max(16) / 2;
    let mut carry = 0u64;
    for seg in values.chunks_mut(chunk.max(1)) {
        let mut buf = device.h2d(&*seg)?;
        let seg_total = device.exclusive_scan(&mut buf)?;
        let scanned = device.d2h(&buf);
        for (dst, v) in seg.iter_mut().zip(scanned) {
            *dst = v + carry;
        }
        carry += seg_total;
    }
    Ok(carry)
}

/// Spell contigs from paths.
pub fn generate_contigs(
    device: &Device,
    host: &gstream::HostMem,
    reads: &ReadSet,
    paths: &[Path],
) -> Result<(Vec<PackedSeq>, ContigStats)> {
    // Host working set of this phase: the per-vertex placement table
    // (13 B/vertex) plus the contig output buffers (1 B/base before
    // packing) — the "memory allocated for contigs" of Section III-D.
    let contig_bytes: u64 = paths.iter().map(|p| p.contig_len()).sum();
    let _host_guard = host.reserve(reads.vertex_count() as u64 * 13 + contig_bytes)?;
    // Fig. 7 step 1: offsets of paths in the flat tuple array (exclusive
    // scan over path lengths).
    let mut path_lens: Vec<u64> = paths.iter().map(|p| p.steps.len() as u64).collect();
    let total_steps = chunked_exclusive_scan(device, &mut path_lens)? as usize;

    // Fig. 7 step 2: per-step offsets inside the contig space (exclusive
    // scan over overhangs, restarted per path — equivalently a scan over
    // the flat array with per-path rebasing on the host).
    let mut flat_overhangs: Vec<u64> = Vec::with_capacity(total_steps);
    let mut flat_vertices: Vec<u32> = Vec::with_capacity(total_steps);
    for p in paths {
        for s in &p.steps {
            flat_overhangs.push(s.overhang as u64);
            flat_vertices.push(s.vertex);
        }
    }
    let mut global_offsets = flat_overhangs;
    chunked_exclusive_scan(device, &mut global_offsets)?;

    // Per-vertex placement table, built with a scatter keyed by vertex id
    // ("each overhang-offset tuple is copied to the unique location
    // corresponding to its read-ID"). The table itself lives on the host —
    // like the graph, it is a per-vertex structure that outgrows the
    // device — so the scatter is charged as streamed device work.
    let vertex_count = reads.vertex_count() as usize;
    let mut placement: Vec<Option<(usize, u64, u32)>> = vec![None; vertex_count];
    device.charge_kernel(
        "scatter",
        vgpu::KernelCost::new(
            flat_vertices.len() as u64,
            flat_vertices.len() as u64 * (12 * 2 + 4),
        ),
    );
    let mut step_cursor = 0usize;
    for (pi, p) in paths.iter().enumerate() {
        for s in &p.steps {
            let global = global_offsets[step_cursor];
            placement[s.vertex as usize] = Some((pi, global, s.overhang));
            step_cursor += 1;
        }
    }

    // Rebase global offsets to per-contig offsets and size the buffers.
    let mut contig_base: Vec<u64> = Vec::with_capacity(paths.len());
    {
        let mut cursor = 0u64;
        for p in paths {
            contig_base.push(cursor);
            cursor += p.contig_len();
        }
    }
    let mut contig_codes: Vec<Vec<u8>> = paths
        .iter()
        .map(|p| vec![0u8; p.contig_len() as usize])
        .collect();

    // Final pass: stream the reads, placing each oriented overhang.
    for i in 0..reads.len() {
        for strand in 0..2u32 {
            let v = (i as u32) * 2 + strand;
            if let Some((pi, global, overhang)) = placement[v as usize] {
                let seq = reads.vertex_seq(v);
                let local = (global - contig_base[pi]) as usize;
                let out = &mut contig_codes[pi];
                for (k, b) in seq.iter().take(overhang as usize).enumerate() {
                    out[local + k] = b.code();
                }
            }
        }
    }

    let contigs: Vec<PackedSeq> = contig_codes
        .into_iter()
        .map(|c| PackedSeq::from_codes(&c))
        .collect();
    let lengths: Vec<u64> = contigs.iter().map(|c| c.len() as u64).collect();
    let multi = paths.iter().filter(|p| p.steps.len() > 1).count() as u64;
    Ok((contigs, ContigStats::from_lengths(&lengths, multi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traverse::PathStep;
    use vgpu::GpuProfile;

    fn device() -> Device {
        Device::new(GpuProfile::k40())
    }

    fn host() -> gstream::HostMem {
        gstream::HostMem::new(64 << 20)
    }

    fn reads_of(strs: &[&str]) -> ReadSet {
        ReadSet::from_reads(strs[0].len(), strs.iter().map(|s| s.parse().unwrap())).unwrap()
    }

    #[test]
    fn two_read_overlap_spells_merged_contig() {
        // ACGTAC and TACGGA overlap by 3 (suffix TAC == prefix TAC).
        let reads = reads_of(&["ACGTAC", "TACGGA"]);
        let paths = vec![Path {
            steps: vec![
                PathStep {
                    vertex: 0,
                    overhang: 3,
                },
                PathStep {
                    vertex: 2,
                    overhang: 6,
                },
            ],
        }];
        let (contigs, stats) = generate_contigs(&device(), &host(), &reads, &paths).unwrap();
        assert_eq!(contigs.len(), 1);
        assert_eq!(contigs[0].to_string(), "ACGTACGGA");
        assert_eq!(stats.total_bases, 9);
        assert_eq!(stats.multi_read, 1);
    }

    #[test]
    fn reverse_strand_vertices_contribute_revcomp_sequence() {
        // Vertex 1 = revcomp of read 0.
        let reads = reads_of(&["ACGTAA"]);
        let paths = vec![Path {
            steps: vec![PathStep {
                vertex: 1,
                overhang: 6,
            }],
        }];
        let (contigs, _) = generate_contigs(&device(), &host(), &reads, &paths).unwrap();
        assert_eq!(contigs[0].to_string(), "TTACGT");
    }

    #[test]
    fn multiple_paths_generate_independent_contigs() {
        let reads = reads_of(&["AAAACC", "CCGGGG", "TTTTTT"]);
        let paths = vec![
            Path {
                steps: vec![
                    PathStep {
                        vertex: 0,
                        overhang: 4,
                    },
                    PathStep {
                        vertex: 2,
                        overhang: 6,
                    },
                ],
            },
            Path {
                steps: vec![PathStep {
                    vertex: 4,
                    overhang: 6,
                }],
            },
        ];
        let (contigs, stats) = generate_contigs(&device(), &host(), &reads, &paths).unwrap();
        assert_eq!(contigs.len(), 2);
        assert_eq!(contigs[0].to_string(), "AAAACCGGGG");
        assert_eq!(contigs[1].to_string(), "TTTTTT");
        assert_eq!(stats.count, 2);
        assert_eq!(stats.max_len, 10);
    }

    #[test]
    fn empty_paths_produce_no_contigs() {
        let reads = reads_of(&["ACGTAA"]);
        let (contigs, stats) = generate_contigs(&device(), &host(), &reads, &[]).unwrap();
        assert!(contigs.is_empty());
        assert_eq!(stats, ContigStats::from_lengths(&[], 0));
    }

    #[test]
    fn n50_definition() {
        // Lengths 10, 5, 3, 2 (total 20): cumulative 10 ≥ 10 → N50 = 10.
        let s = ContigStats::from_lengths(&[5, 10, 2, 3], 0);
        assert_eq!(s.n50, 10);
        // Lengths 5,5,5,5 (total 20): cumulative 10 at the second → N50 = 5.
        let s = ContigStats::from_lengths(&[5, 5, 5, 5], 0);
        assert_eq!(s.n50, 5);
        let s = ContigStats::from_lengths(&[], 0);
        assert_eq!(s.n50, 0);
        assert_eq!(s.max_len, 0);
    }

    #[test]
    fn contig_generation_charges_device_scans() {
        let dev = device();
        let reads = reads_of(&["ACGTAA"]);
        let paths = vec![Path {
            steps: vec![PathStep {
                vertex: 0,
                overhang: 6,
            }],
        }];
        generate_contigs(&dev, &host(), &reads, &paths).unwrap();
        let stats = dev.stats();
        assert!(stats.per_kernel.contains_key("inclusive_scan"));
        assert!(stats.per_kernel.contains_key("scatter"));
    }
}
