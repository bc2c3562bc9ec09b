//! Budgets are hard limits, and reports faithfully serialize.

use lasagna_repro::prelude::*;

fn assemble_with_budgets(host_bytes: u64, device_bytes: u64) -> lasagna::AssemblyOutput {
    let genome = GenomeSim::uniform(3_000, 11).generate();
    let reads = ShotgunSim::error_free(70, 10.0, 12).sample(&genome);
    let dir = stdx::tempdir().unwrap();
    let config = AssemblyConfig::for_dataset(45, 70);
    let device = Device::with_capacity(GpuProfile::k20x(), device_bytes);
    let host = HostMem::new(host_bytes);
    let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
    Pipeline::new(device, host, spill, config)
        .unwrap()
        .assemble(&reads)
        .unwrap()
}

#[test]
fn peak_memory_never_exceeds_the_budgets() {
    let host_bytes = 4 << 20;
    let device_bytes = 512 << 10;
    let out = assemble_with_budgets(host_bytes, device_bytes);
    for phase in &out.report.phases {
        assert!(
            phase.host_peak_bytes <= host_bytes,
            "{}: host peak {} over budget {}",
            phase.phase,
            phase.host_peak_bytes,
            host_bytes
        );
        assert!(
            phase.device_peak_bytes <= device_bytes,
            "{}: device peak {} over budget {}",
            phase.phase,
            phase.device_peak_bytes,
            device_bytes
        );
    }
}

#[test]
fn sort_phase_has_the_largest_host_peak() {
    let out = assemble_with_budgets(4 << 20, 512 << 10);
    let sort_peak = out.report.phase("sort").unwrap().host_peak_bytes;
    for phase in &out.report.phases {
        assert!(
            phase.host_peak_bytes <= sort_peak,
            "{} peak {} exceeds sort's {}",
            phase.phase,
            phase.host_peak_bytes,
            sort_peak
        );
    }
}

#[test]
fn report_roundtrips_through_json() {
    let out = assemble_with_budgets(8 << 20, 1 << 20);
    let json = stdx::json::to_string_pretty(&out.report);
    let back: AssemblyReport = stdx::json::from_str(&json).unwrap();
    assert_eq!(back.reads, out.report.reads);
    assert_eq!(back.phases.len(), out.report.phases.len());
    assert_eq!(back.contig_stats, out.report.contig_stats);
    assert_eq!(back.graph_edges, out.report.graph_edges);
    // The per-kernel breakdown survives too.
    let sort = back.phase("sort").unwrap();
    assert!(sort.device.per_kernel.contains_key("radix_sort_pairs"));
}

#[test]
fn modeled_time_is_consistent_with_components() {
    let out = assemble_with_budgets(8 << 20, 1 << 20);
    for phase in &out.report.phases {
        let expect = phase.device.total_seconds() + phase.io.total_seconds();
        assert!(
            (phase.modeled_seconds - expect).abs() < 1e-9,
            "{}: {} vs {}",
            phase.phase,
            phase.modeled_seconds,
            expect
        );
    }
}

#[test]
fn device_stats_attribute_kernels_to_the_right_phases() {
    let out = assemble_with_budgets(8 << 20, 1 << 20);
    let map = out.report.phase("map").unwrap();
    assert!(map
        .device
        .per_kernel
        .contains_key("fingerprint_block_per_read"));
    let sort = out.report.phase("sort").unwrap();
    assert!(sort.device.per_kernel.contains_key("radix_sort_pairs"));
    let reduce = out.report.phase("reduce").unwrap();
    assert!(reduce.device.per_kernel.contains_key("vec_lower_bound"));
    let compress = out.report.phase("compress").unwrap();
    assert!(compress.device.per_kernel.contains_key("inclusive_scan"));
    // And not the other way round.
    assert!(
        !map.device.per_kernel.contains_key("radix_sort_pairs")
            || map.device.per_kernel["radix_sort_pairs"].launches == 0
    );
}

#[test]
fn smaller_device_means_more_transfer_rounds_same_answer() {
    let big = assemble_with_budgets(8 << 20, 4 << 20);
    let small = assemble_with_budgets(8 << 20, 128 << 10);
    assert_eq!(big.report.graph_edges, small.report.graph_edges);
    let big_launches: u64 = big
        .report
        .phases
        .iter()
        .map(|p| p.device.kernel_launches)
        .sum();
    let small_launches: u64 = small
        .report
        .phases
        .iter()
        .map(|p| p.device.kernel_launches)
        .sum();
    assert!(
        small_launches > big_launches,
        "smaller device ⇒ more chunked launches ({small_launches} vs {big_launches})"
    );
}
