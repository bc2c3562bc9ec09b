//! An assembly's memory grows neither with its kernel-launch count nor
//! with its device.
//!
//! The same reads are assembled twice, each time on a fresh 64 KiB device,
//! with device blocks of `m_d` and of `m_d / 4` pairs: map and reduce are
//! identical, and the sort launches about four times as many kernels the
//! second time. (A fresh device, because a phase emits a delta for every
//! kernel its device has ever launched.) The pipeline's recorder must
//! buffer the same number of events both times, and the live heap must
//! peak under one fixed bound both times. A third assembly at `m_d` runs
//! on an 8 MiB device, where every read fits one map batch: the device
//! holds that batch, the host one tile of it, so the heap may peak only a
//! little above the 64 KiB run. The counting allocator is this binary's
//! global allocator, so this file holds one test: no other test's
//! allocations can land in its counts.

use lasagna_repro::prelude::*;

#[global_allocator]
static ALLOC: stdx::CountingAlloc = stdx::CountingAlloc::new();

/// The most bytes any of the assemblies may hold live at once. Measured
/// on x86-64 Linux: 2.76 MB at both block sizes on the 64 KiB device and
/// 3.24 MB on the 8 MiB one, reads included. A recorder that buffers
/// events per launch takes the two 64 KiB runs to 32 239 and 155 446
/// events and to 6.9 and 41.6 MB; a map that holds its whole device batch
/// on the host, as a zero-filled stand-in for the device buffer and as
/// tuple rows, takes the 8 MiB run to 9.95 MB.
const PEAK_BOUND_BYTES: usize = 4 << 20;

/// How far the 8 MiB device's heap peak may exceed the 64 KiB one's.
const DEVICE_SLACK_BYTES: usize = 1 << 20;

/// What one assembly cost.
#[derive(Debug)]
struct Run {
    launches: u64,
    events: usize,
    peak_bytes: usize,
    contigs: Vec<PackedSeq>,
}

fn assemble(reads: &ReadSet, device_bytes: u64, m_h: usize, m_d: usize) -> Run {
    let device = Device::with_capacity(GpuProfile::k40(), device_bytes);
    let dir = stdx::tempdir().unwrap();
    let mut config = AssemblyConfig::for_dataset(30, 50);
    config.sort = Some(SortConfig {
        host_block_pairs: m_h,
        device_block_pairs: m_d,
        kway: false,
    });
    let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
    let pipeline = Pipeline::new(device.clone(), HostMem::new(64 << 20), spill, config).unwrap();
    ALLOC.reset_peak();
    let out = pipeline.assemble(reads).unwrap();
    let peak_bytes = ALLOC.peak_bytes();
    Run {
        launches: device.stats().kernel_launches,
        events: pipeline.recorder().events().len(),
        peak_bytes,
        contigs: out.contigs,
    }
}

#[test]
fn buffered_events_and_peak_heap_do_not_grow_with_kernel_launches() {
    let genome = GenomeSim::uniform(4000, 61).generate();
    let reads = ShotgunSim::error_free(50, 15.0, 62).sample(&genome);
    // A partition holds two tuples per read: 4 runs of `m_h` pairs each.
    let m_h = reads.len() / 2;
    let m_d = m_h * 3 / 32;

    let wide = assemble(&reads, 64 << 10, m_h, m_d);
    let narrow = assemble(&reads, 64 << 10, m_h, m_d / 4);
    let large = assemble(&reads, 8 << 20, m_h, m_d);
    let summary = format!(
        "m_d {m_d}: {} launches, {} events, {} B peak; m_d {}: {} launches, {} events, {} B peak; \
         8 MiB device: {} launches, {} B peak",
        wide.launches,
        wide.events,
        wide.peak_bytes,
        m_d / 4,
        narrow.launches,
        narrow.events,
        narrow.peak_bytes,
        large.launches,
        large.peak_bytes
    );
    assert_eq!(wide.contigs, narrow.contigs, "{summary}");
    assert_eq!(wide.contigs, large.contigs, "{summary}");
    assert!(narrow.launches >= 3 * wide.launches, "{summary}");
    assert_eq!(wide.events, narrow.events, "{summary}");
    for run in [&wide, &narrow, &large] {
        assert!(run.peak_bytes < PEAK_BOUND_BYTES, "{summary}");
    }
    assert!(
        large.peak_bytes <= wide.peak_bytes + DEVICE_SLACK_BYTES,
        "{summary}"
    );
}
