//! The trace is the single source of truth: an [`AssemblyReport`] rebuilt
//! from the on-disk JSONL event log must equal the report the pipeline
//! returned — exactly, float for float. (f64 is written in its shortest
//! round-trippable form, so the disk round trip is lossless.)

use lasagna_repro::lasagna::AssemblyReport;
use lasagna_repro::obs;
use lasagna_repro::prelude::*;
use std::collections::BTreeMap;

fn sample(genome_len: usize, read_len: usize, coverage: f64, seed: u64) -> ReadSet {
    let genome = GenomeSim::uniform(genome_len, seed).generate();
    ShotgunSim::error_free(read_len, coverage, seed + 1).sample(&genome)
}

#[test]
fn report_rolled_up_from_jsonl_trace_matches_exactly() {
    let reads = sample(2500, 50, 12.0, 41);
    let dir = stdx::tempdir().unwrap();
    let trace_path = dir.path().join("trace.jsonl");
    let work = dir.path().join("work");
    std::fs::create_dir_all(&work).unwrap();

    let rec = obs::Recorder::new();
    rec.add_sink(Box::new(obs::JsonlSink::create(&trace_path).unwrap()));
    let config = AssemblyConfig::for_dataset(30, 50);
    let pipeline = Pipeline::laptop(config, &work)
        .unwrap()
        .with_recorder(rec.clone());
    let out = pipeline.assemble(&reads).unwrap();
    rec.flush();

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let rollup = obs::Rollup::from_jsonl(&text).unwrap();
    let rebuilt = AssemblyReport::from_trace(&rollup, "assembly");

    assert_eq!(
        rebuilt
            .phases
            .iter()
            .map(|p| p.phase.as_str())
            .collect::<Vec<_>>(),
        vec!["load", "map", "sort", "reduce", "compress"]
    );
    assert_eq!(rebuilt.phases.len(), out.report.phases.len());
    for (disk, live) in rebuilt.phases.iter().zip(out.report.phases.iter()) {
        assert_eq!(
            disk, live,
            "phase {} diverged across the disk round trip",
            live.phase
        );
    }
}

#[test]
fn sort_and_reduce_phases_carry_per_partition_child_spans() {
    let reads = sample(1800, 40, 10.0, 43);
    let dir = stdx::tempdir().unwrap();
    let work = dir.path().join("work");
    std::fs::create_dir_all(&work).unwrap();

    let config = AssemblyConfig::for_dataset(25, 40);
    let pipeline = Pipeline::laptop(config, &work).unwrap();
    let out = pipeline.assemble(&reads).unwrap();

    let rollup = obs::Rollup::from_events(&pipeline.recorder().events());
    let root = rollup.root_named("assembly").unwrap();

    // Sort: one span per sorted partition file, counters matching the
    // phase totals (15 lengths × sfx/pfx = 30 partitions).
    let sort = rollup.child_named(root.id, "sort").unwrap();
    let partitions: Vec<_> = rollup
        .children(sort.id)
        .into_iter()
        .filter(|c| c.name.starts_with("sfx_") || c.name.starts_with("pfx_"))
        .collect();
    assert_eq!(partitions.len(), 30, "one sort span per partition");
    let pairs: u64 = partitions
        .iter()
        .map(|p| rollup.subtree(p.id).counter("sort.pairs"))
        .sum();
    // Every vertex contributes one tuple per kept length on each side.
    assert_eq!(pairs, rollup.subtree(sort.id).counter("sort.pairs"));
    assert!(pairs > 0);

    // Reduce: one span per overlap length, and guard decisions add up.
    let reduce = rollup.child_named(root.id, "reduce").unwrap();
    let lengths: Vec<_> = rollup
        .children(reduce.id)
        .into_iter()
        .filter(|c| c.name.starts_with("len_"))
        .collect();
    assert_eq!(lengths.len(), 15, "one reduce span per length");
    let agg = rollup.subtree(reduce.id);
    assert_eq!(
        agg.counter("reduce.candidates"),
        agg.counter("reduce.accepted") + agg.counter("reduce.rejected")
    );
    assert!(agg.counter("reduce.accepted") > 0);
    assert_eq!(agg.counter("reduce.accepted") * 2, out.report.graph_edges);
}

#[test]
fn resumed_phases_appear_as_zero_cost_spans() {
    let reads = sample(1200, 40, 8.0, 47);
    let dir = stdx::tempdir().unwrap();
    let work = dir.path().join("work");
    std::fs::create_dir_all(&work).unwrap();

    let config = AssemblyConfig::for_dataset(25, 40);
    let first = Pipeline::laptop(config, &work).unwrap();
    first.resume(&reads).unwrap();

    let second = Pipeline::laptop(config, &work).unwrap();
    let out = second.resume(&reads).unwrap();

    let rollup = obs::Rollup::from_events(&second.recorder().events());
    let root = rollup.root_named("assembly").unwrap();
    for name in ["map (resumed)", "sort (resumed)", "reduce (resumed)"] {
        let span = rollup.child_named(root.id, name).unwrap_or_else(|| {
            panic!("missing span {name:?}");
        });
        let agg = rollup.subtree(span.id);
        assert_eq!(agg.counter("device.kernel_launches"), 0, "{name}");
        assert_eq!(agg.metric("io.read_seconds"), 0.0, "{name}");
    }
    let report_phase = out.report.phase("sort (resumed)").unwrap();
    assert_eq!(report_phase.modeled_seconds, 0.0);
}

/// Deterministic pseudo-random latency values spread across magnitudes,
/// the shape a serving run records in microseconds.
fn latencies(n: u64) -> Vec<u64> {
    (0..n).map(|i| (i * 104_729 + 13) % 250_000).collect()
}

/// Roll the same values up from histogram events emitted as `chunks`
/// per-event shards, in the given order.
fn rollup_of_shards(chunks: &[&[u64]]) -> obs::Rollup {
    let rec = obs::Recorder::new();
    {
        let span = rec.span("serve");
        for chunk in chunks {
            let mut h = obs::Histogram::new();
            for &v in *chunk {
                h.record(v);
            }
            rec.histogram_on(span.id(), "latency.total", h);
        }
    }
    obs::Rollup::from_events(&rec.events())
}

#[test]
fn histogram_rollup_is_merge_order_invariant() {
    // The same per-chunk latency shards, fed to the rollup in different
    // orders and groupings (as different worker schedules would emit
    // them), must aggregate to bit-identical histograms.
    let values = latencies(512);
    let (a, rest) = values.split_at(100);
    let (b, c) = rest.split_at(200);

    let forward = rollup_of_shards(&[a, b, c]);
    let reverse = rollup_of_shards(&[c, b, a]);
    let one_shot = rollup_of_shards(&[&values]);
    let per_value: Vec<&[u64]> = values.chunks(1).collect();
    let singles = rollup_of_shards(&per_value);

    let base = forward.totals().hist("latency.total");
    assert_eq!(base.count(), 512);
    for other in [&reverse, &one_shot, &singles] {
        let h = other.totals().hist("latency.total");
        assert_eq!(h, base, "merge order changed the aggregate");
        assert_eq!(
            stdx::json::to_string(&h),
            stdx::json::to_string(&base),
            "serialization must be bit-identical across merge orders"
        );
    }
}

#[test]
fn histogram_events_round_trip_jsonl_bit_identically() {
    // A trace carrying histogram events must reconstruct the exact same
    // aggregates from disk as the live rollup saw in memory.
    let dir = stdx::tempdir().unwrap();
    let trace_path = dir.path().join("trace.jsonl");

    let rec = obs::Recorder::new();
    rec.add_sink(Box::new(obs::JsonlSink::create(&trace_path).unwrap()));
    {
        let span = rec.span("serve");
        for chunk in latencies(300).chunks(64) {
            let mut queue = obs::Histogram::new();
            let mut total = obs::Histogram::new();
            for &v in chunk {
                queue.record(v / 3);
                total.record(v);
            }
            rec.histogram_on(span.id(), "latency.queue", queue);
            rec.histogram_on(span.id(), "latency.total", total);
            rec.counter_on(span.id(), "reads", chunk.len() as u64);
        }
    }
    rec.flush();

    let live = obs::Rollup::from_events(&rec.events()).totals();
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let disk = obs::Rollup::from_jsonl(&text).unwrap().totals();

    assert_eq!(disk.counter("reads"), 300);
    for name in ["latency.queue", "latency.total"] {
        let from_disk = disk.hist(name);
        let from_live = live.hist(name);
        assert_eq!(from_disk.count(), 300, "{name}");
        assert_eq!(from_disk, from_live, "{name} diverged across the disk trip");
        assert_eq!(
            stdx::json::to_string(&from_disk),
            stdx::json::to_string(&from_live),
            "{name}: JSONL round trip must be bit-identical"
        );
        for (lo, hi) in [(0.5, 0.9), (0.9, 0.99), (0.99, 0.999)] {
            assert!(
                from_disk.percentile(lo) <= from_disk.percentile(hi),
                "{name}"
            );
        }
    }
}

/// An extsort-shaped assembly: 50 bp reads, 20 overlap lengths, a 64 KiB
/// device, and block sizes that cut every partition into 4 runs sorted in
/// 3 disk passes, with `m_d` chunks of 14 pairs inside each run.
fn extsort_assembly() -> (Pipeline, stdx::TempDir) {
    let reads = sample(1000, 50, 15.0, 53);
    let dir = stdx::tempdir().unwrap();
    let m_h = reads.len() / 2;
    let mut config = AssemblyConfig::for_dataset(30, 50);
    config.sort = Some(SortConfig {
        host_block_pairs: m_h,
        device_block_pairs: m_h * 3 / 32,
        kway: false,
    });
    let pipeline = Pipeline::new(
        Device::with_capacity(GpuProfile::k40(), 64 << 10),
        HostMem::new(64 << 20),
        SpillDir::create(dir.path(), IoStats::default()).unwrap(),
        config,
    )
    .unwrap();
    pipeline.assemble(&reads).unwrap();
    (pipeline, dir)
}

/// An extsort assembly's counter totals and span names, pinned. Kernels and
/// merges emit no event of their own: launches reach the trace through the
/// phase `device.*` deltas and window advances through one counter per
/// partition span, and these sums hold all of them.
#[test]
fn extsort_trace_totals_and_span_names_are_pinned() {
    let (pipeline, _dir) = extsort_assembly();
    let events = pipeline.recorder().events();
    let totals = obs::Rollup::from_events(&events).totals();
    let pinned = [
        ("merge.window_advances", 15_747),
        ("sort.pairs", 24_000),
        ("sort.initial_runs", 160),
        ("sort.merge_passes", 80),
        ("sort.disk_passes", 120),
        ("sort.spill_bytes", 1_440_000),
        ("device.kernel_launches", 14_304),
        ("device.kernel.merge_pairs.launches", 12_401),
    ];
    for (name, value) in pinned {
        assert_eq!(totals.counter(name), value, "{name}");
    }

    let mut spans = BTreeMap::<&str, usize>::new();
    for event in &events {
        if let obs::Event::SpanStart { name, .. } = event {
            *spans.entry(name).or_default() += 1;
        }
    }
    let tags: Vec<String> = (30..50)
        .flat_map(|len| ["sfx", "pfx", "len"].map(|kind| format!("{kind}_{len:05}")))
        .collect();
    let mut expected: BTreeMap<&str, usize> =
        ["assembly", "load", "map", "sort", "reduce", "compress"]
            .into_iter()
            .map(|name| (name, 1))
            .collect();
    expected.extend(tags.iter().map(|tag| (tag.as_str(), 1)));
    assert_eq!(spans, expected);

    // The device emits nothing: the phase `device.*` deltas pinned above
    // are the only record of its launches.
    assert!(!events.iter().any(|event| matches!(
        event,
        obs::Event::Counter { name, .. } | obs::Event::Metric { name, .. } if name.starts_with("kernel.")
    )));
}
