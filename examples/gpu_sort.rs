//! The hybrid-memory external sort on its own — the machinery behind the
//! paper's Figs. 8 and 9, usable for any larger-than-memory key-value
//! sorting workload (the paper argues this generalizes to MapReduce-style
//! processing).
//!
//! ```text
//! cargo run --release --example gpu_sort
//! ```

use lasagna_repro::gstream::{ExternalSorter, KvPair, RecordReader, RecordWriter};
use lasagna_repro::prelude::*;

fn main() {
    let workdir = std::env::temp_dir().join("lasagna-gpu-sort");
    std::fs::create_dir_all(&workdir).expect("workdir");
    let io = IoStats::new(DiskModel::cluster_scratch());
    let spill = SpillDir::create(&workdir, io.clone()).expect("spill dir");

    // 400k random 128-bit keys on disk — larger than both the "host" and
    // the "device" we give the sorter below.
    let input = spill.scratch_path("input");
    let mut w = RecordWriter::create(&input, io.clone()).expect("writer");
    let mut state = 0xDEADBEEFu64;
    for i in 0..400_000u32 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let hi = state;
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        w.write(KvPair::new(((hi as u128) << 64) | state as u128, i))
            .expect("write");
    }
    w.finish().expect("finish");
    println!(
        "wrote 400,000 random pairs ({} MB)",
        400_000 * KvPair::BYTES / 1_000_000
    );

    // A virtual K40 with 2 MiB of usable memory and an 8 MiB host budget:
    // the data cannot fit either level, so the two-level scheme kicks in.
    let device = Device::with_capacity(GpuProfile::k40(), 2 << 20);
    let host = HostMem::new(8 << 20);
    let config = SortConfig::from_budgets(&host, &device);
    println!(
        "host block m_h = {} pairs, device block m_d = {} pairs",
        config.host_block_pairs, config.device_block_pairs
    );

    let sorter = ExternalSorter::new(device.clone(), host, config).expect("sorter");
    let output = spill.scratch_path("sorted");
    let report = sorter.sort_file(&spill, &input, &output).expect("sort");

    println!(
        "sorted {} pairs: {} initial runs, {} merge passes, {} disk passes",
        report.pairs, report.initial_runs, report.merge_passes, report.disk_passes
    );
    println!(
        "I/O: {} MB read, {} MB written; modeled disk {:.3}s + device {:.3}s",
        report.io.bytes_read / 1_000_000,
        report.io.bytes_written / 1_000_000,
        report.io.total_seconds(),
        report.device_seconds,
    );
    let stats = device.stats();
    println!(
        "device: {} kernel launches, peak memory {} KB of {} KB",
        stats.kernel_launches,
        stats.mem_peak / 1000,
        device.capacity() / 1000
    );

    // Prove it is sorted with one streaming pass.
    let mut reader = RecordReader::open(&output, io).expect("reader");
    let mut prev = 0u128;
    let mut n = 0u64;
    loop {
        let chunk = reader.next_chunk(65_536).expect("read");
        if chunk.is_empty() {
            break;
        }
        for p in chunk {
            assert!(p.key >= prev, "output must be sorted");
            prev = p.key;
            n += 1;
        }
    }
    println!("verified: {n} pairs in nondecreasing key order ✓");
}
