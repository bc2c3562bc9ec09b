//! Reduce phase: overlap detection and greedy graph building (Section
//! III-C, Algorithm 2).
//!
//! For each overlap length `l` (processed in **descending** order so the
//! greedy rule keeps the longest overlap per vertex), the sorted suffix and
//! prefix partitions are streamed through co-advancing windows. The windows
//! are resized to cover the same key range (`LOWER_BOUND` of the smaller of
//! the two last keys), then the device computes for every suffix
//! fingerprint its lower bound `L`, upper bound `U`, and count `C = U − L`
//! in the prefix window, and the host walks `C` adding candidate edges
//! `(suffix-vertex, prefix-vertex, l)` through the bit-vector guard.
//!
//! One corner the paper's pseudo-code elides ("this check is omitted from
//! the pseudo-code for brevity"): when an entire window holds a single
//! fingerprint, the `LOWER_BOUND` resize makes no progress. We then gather
//! *all* occurrences of that fingerprint from both streams (they number
//! ~coverage, far below any window) and join them directly.

use crate::config::AssemblyConfig;
use crate::graph::StringGraph;
use crate::Result;
use genome::readset::VertexId;
use gstream::spill::{Partition, SpillDir};
use gstream::{FileSource, HostMem, KvPair, PairSource, Pairs, RecordReader};
use vgpu::Device;

/// Device bytes of one fingerprint in an uploaded window.
const DEVICE_KEY_BYTES: usize = std::mem::size_of::<u128>();
/// Device bytes of the three `u32` bounds outputs (`L`, `U`, `C`) per
/// suffix fingerprint.
const DEVICE_BOUNDS_BYTES: usize = 3 * std::mem::size_of::<u32>();

/// Outcome of the reduce phase.
#[derive(Debug, Clone, Default)]
pub struct ReducePhaseReport {
    /// Candidate edges offered to the graph.
    pub candidates: u64,
    /// Edges accepted (complement pairs count once here).
    pub accepted: u64,
    /// Per-length `(candidates, accepted)` in descending length order.
    pub per_length: Vec<(u32, u64, u64)>,
}

/// One stream's window: columns behind a cursor.
type Window<'a> = FileSource<&'a mut RecordReader>;

fn last_key(w: &Window) -> u128 {
    *w.window().keys.last().expect("non-empty window")
}

/// Extend the window until its last key differs from `key` or the stream
/// ends (the all-equal-window escape hatch).
fn gather_all_of(w: &mut Window, key: u128, step: usize) -> Result<()> {
    while w.remaining() > 0 && last_key(w) == key {
        w.fill(w.window().len() + step)?;
    }
    Ok(())
}

/// The paper's M/2: the pairs one stream's window is filled to.
fn half_window(window_pairs: usize) -> usize {
    (window_pairs / 2).max(2)
}

/// Join one sorted suffix/prefix partition pair, invoking `on_candidate`
/// for every fingerprint match `(suffix-vertex, prefix-vertex)` in stream
/// order. Returns the candidate count and the co-advancing window rounds
/// (one per `LOWER_BOUND` cut). The callback form lets the single-node
/// reduce feed the graph directly while the distributed reduce collects
/// candidates to apply under the bit-vector token (Section III-E3); both
/// call it through [`join_pair`], which holds the windows on the host
/// budget and records the join.
pub fn join_partition(
    device: &Device,
    sfx: &mut RecordReader,
    pfx: &mut RecordReader,
    window_pairs: usize,
    mut on_candidate: impl FnMut(VertexId, VertexId),
) -> Result<(u64, u64)> {
    let half = half_window(window_pairs);
    let mut ws = FileSource::new(sfx);
    let mut wp = FileSource::new(pfx);
    let (mut candidates, mut advances) = (0u64, 0u64);

    loop {
        ws.fill(half)?;
        wp.fill(half)?;
        if ws.window().is_empty() || wp.window().is_empty() {
            // No further matches are possible: suffixes without prefixes
            // (or vice versa) produce no edges.
            break;
        }
        advances += 1;

        // f ← MIN_KEY(S_{M/2}, P_{M/2}); cut both windows at LOWER_BOUND(f).
        let f = last_key(&ws).min(last_key(&wp));
        let mut cut_s = ws.window().keys.partition_point(|&key| key < f);
        let mut cut_p = wp.window().keys.partition_point(|&key| key < f);

        // Deferring the trailing run of f to the next round is only valid
        // while more of f may still arrive. Include f now when (a) the
        // stream owning the run is exhausted, or (b) neither cut made
        // progress (both windows are a single fingerprint). Either way the
        // *complete* run of f must enter both windows, so gather it from
        // any stream that still ends in f.
        let include_f = (ws.remaining() == 0 && last_key(&ws) == f)
            || (wp.remaining() == 0 && last_key(&wp) == f)
            || (cut_s == 0 && cut_p == 0);
        if include_f {
            gather_all_of(&mut ws, f, half)?;
            gather_all_of(&mut wp, f, half)?;
            cut_s = ws.window().keys.partition_point(|&key| key <= f);
            cut_p = wp.window().keys.partition_point(|&key| key <= f);
        }

        if cut_s > 0 && cut_p > 0 {
            candidates += join_windows(
                device,
                ws.window().first(cut_s),
                wp.window().first(cut_p),
                &mut on_candidate,
            )?;
        }
        ws.consume(cut_s);
        wp.consume(cut_p);
    }
    Ok((candidates, advances))
}

/// Lines 8-17 of Algorithm 2: vectorized bounds on the device, candidate
/// emission on the host. The bounds are charged as the paper's three
/// launches and executed as one co-scan of the two sorted windows
/// ([`Device::vec_bounds_sorted`]).
///
/// Windows normally fit the device, but the all-equal-fingerprint escape
/// hatch can grow them arbitrarily (a fingerprint shared by thousands of
/// reads at high coverage), so both sides are tiled: the prefix window is
/// split into contiguous segments, each loaded once, and occurrence counts
/// are summed across segments (bounds in a segmented sorted array are
/// additive).
fn join_windows(
    device: &Device,
    s: Pairs<'_>,
    p: Pairs<'_>,
    on_candidate: &mut impl FnMut(VertexId, VertexId),
) -> Result<u64> {
    // 80% of the free device memory, split evenly between the sides; a
    // suffix costs its key and its bounds outputs, a prefix its key alone.
    let free = device.mem_free() as usize;
    let tile = (free * 8 / 10 / 2 / (DEVICE_KEY_BYTES + DEVICE_BOUNDS_BYTES)).max(16);

    let mut candidates = 0u64;
    for (p_keys, p_vals) in p.keys.chunks(tile).zip(p.vals.chunks(tile)) {
        let dp = device.h2d(p_keys)?;
        for (s_keys, s_vals) in s.keys.chunks(tile).zip(s.vals.chunks(tile)) {
            let ds = device.h2d(s_keys)?;
            let (lower, counts) = device.vec_bounds_sorted(&ds, &dp)?;
            let lower = device.d2h_vec(lower);
            let counts = device.d2h_vec(counts);
            for ((&u, &l), &c) in s_vals.iter().zip(&lower).zip(&counts) {
                for &v in &p_vals[l as usize..(l + c) as usize] {
                    candidates += 1;
                    on_candidate(u, v);
                }
            }
        }
    }
    Ok(candidates)
}

/// Host bytes the two windows of `window_pairs` pairs hold between them: a
/// pair is a 16 B key and a 4 B value in their columns, the 20 B it is on
/// disk. The all-equal-fingerprint escape hatch may grow a window past it
/// (by the run's length, ~coverage).
fn window_bytes(window_pairs: usize) -> u64 {
    (window_pairs * KvPair::BYTES) as u64
}

/// Window budget for the reduce join: the paper reads M/2 pairs per side
/// with M sized to working memory, and both windows are loaded into the
/// device for the vectorized bounds (two keys plus the bounds outputs per
/// resident pair, doubled for headroom ⇒ 88 B). Reduce uses far less host
/// memory than sort (Tables IV/V), so a quarter of the host budget caps the
/// host side.
pub fn window_budget(host: &HostMem, device: &Device) -> usize {
    let host_cap = host.capacity() as usize / KvPair::BYTES / 4;
    let device_cap =
        device.capacity() as usize / (2 * (2 * DEVICE_KEY_BYTES + DEVICE_BOUNDS_BYTES));
    host_cap.min(device_cap).max(4)
}

/// Run the reduce phase over all partitions, longest overlaps first.
pub fn run(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    graph: &mut StringGraph,
) -> Result<ReducePhaseReport> {
    run_traced(
        device,
        host,
        spill,
        config,
        graph,
        &obs::Recorder::disabled(),
    )
}

/// Join the sorted suffix/prefix partition `pair` of `spill`, the one
/// per-item join step of the pipeline and of every distributed rank. The
/// two windows are held on `host` for the whole join, and
/// `reduce.candidates` and `reduce.window_advances` land on `span`.
/// Returns the candidate count.
pub fn join_pair(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    rec: &obs::Recorder,
    span: u64,
    [sfx, pfx]: [Partition; 2],
    on_candidate: impl FnMut(VertexId, VertexId),
) -> Result<u64> {
    let window_pairs = window_budget(host, device);
    let _guard = host.reserve(window_bytes(window_pairs))?;
    let (mut sfx, mut pfx) = (spill.reader_range(sfx)?, spill.reader_range(pfx)?);
    let (candidates, advances) =
        join_partition(device, &mut sfx, &mut pfx, window_pairs, on_candidate)?;
    // The join stops as soon as one stream runs dry, which can leave a
    // tail of the other stream unread; drain both so corruption anywhere
    // in a partition fails loudly here rather than flowing silently into
    // the assembly.
    sfx.verify_to_end()?;
    pfx.verify_to_end()?;
    rec.counter_on(span, "reduce.candidates", candidates);
    rec.counter_on(span, "reduce.window_advances", advances);
    Ok(candidates)
}

/// [`run`] with structured events: each overlap length joins under its
/// own span (`len_00045`, …) carrying [`join_pair`]'s counters,
/// `reduce.accepted` and `reduce.rejected` (guard-refused edges).
pub fn run_traced(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    graph: &mut StringGraph,
    rec: &obs::Recorder,
) -> Result<ReducePhaseReport> {
    let mut report = ReducePhaseReport::default();
    for len in (config.l_min..config.l_max).rev() {
        let pair = Partition::pair(len, 0, 1);
        if !pair.iter().all(|&part| spill.path_range(part).exists()) {
            continue;
        }
        let span = rec.span(&format!("len_{len:05}"));
        let mut accepted = 0u64;
        let c = join_pair(device, host, spill, rec, span.id(), pair, |u, v| {
            if graph.try_add_edge(u, v, len).is_ok() {
                accepted += 1;
            }
        })?;
        rec.counter_on(span.id(), "reduce.accepted", accepted);
        rec.counter_on(span.id(), "reduce.rejected", c - accepted);
        drop(span);
        report.candidates += c;
        report.accepted += accepted;
        report.per_length.push((len, c, accepted));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstream::spill::PartitionKind;
    use gstream::IoStats;
    use stdx::check_cases;
    use vgpu::GpuProfile;

    fn setup() -> (stdx::TempDir, Device, HostMem, SpillDir) {
        let dir = stdx::tempdir().unwrap();
        let spill = SpillDir::create(dir.path(), IoStats::default()).unwrap();
        let device = Device::new(GpuProfile::k40());
        let host = HostMem::new(1 << 20);
        (dir, device, host, spill)
    }

    fn write_sorted(spill: &SpillDir, kind: PartitionKind, len: u32, pairs: &[(u128, u32)]) {
        let mut sorted = pairs.to_vec();
        sorted.sort();
        let mut w = spill.writer(kind, len).unwrap();
        for (k, v) in sorted {
            w.write(KvPair::new(k, v)).unwrap();
        }
        w.finish().unwrap();
    }

    #[test]
    fn matching_fingerprints_become_edges() {
        let (_g, device, host, spill) = setup();
        write_sorted(&spill, PartitionKind::Suffix, 5, &[(100, 0), (200, 2)]);
        write_sorted(&spill, PartitionKind::Prefix, 5, &[(100, 4), (300, 6)]);
        let config = AssemblyConfig::for_dataset(5, 6);
        let mut graph = StringGraph::new(8);
        let report = run(&device, &host, &spill, &config, &mut graph).unwrap();
        assert_eq!(report.candidates, 1);
        assert_eq!(report.accepted, 1);
        assert_eq!(graph.out(0).unwrap().to, 4);
        assert_eq!(graph.out(0).unwrap().overlap, 5);
        graph.check_invariants().unwrap();
    }

    #[test]
    fn longer_overlaps_win_over_shorter_ones() {
        let (_g, device, host, spill) = setup();
        // Vertex 0 matches vertex 4 at length 7 and vertex 6 at length 5.
        write_sorted(&spill, PartitionKind::Suffix, 7, &[(1, 0)]);
        write_sorted(&spill, PartitionKind::Prefix, 7, &[(1, 4)]);
        write_sorted(&spill, PartitionKind::Suffix, 5, &[(2, 0)]);
        write_sorted(&spill, PartitionKind::Prefix, 5, &[(2, 6)]);
        let config = AssemblyConfig::for_dataset(5, 8);
        let mut graph = StringGraph::new(8);
        run(&device, &host, &spill, &config, &mut graph).unwrap();
        assert_eq!(graph.out(0).unwrap().to, 4);
        assert_eq!(graph.out(0).unwrap().overlap, 7);
    }

    #[test]
    fn duplicate_fingerprints_fan_out_candidates_but_greedy_keeps_one() {
        let (_g, device, host, spill) = setup();
        write_sorted(&spill, PartitionKind::Suffix, 5, &[(9, 0)]);
        write_sorted(&spill, PartitionKind::Prefix, 5, &[(9, 2), (9, 4), (9, 6)]);
        let config = AssemblyConfig::for_dataset(5, 6);
        let mut graph = StringGraph::new(8);
        let report = run(&device, &host, &spill, &config, &mut graph).unwrap();
        assert_eq!(report.candidates, 3);
        assert_eq!(report.accepted, 1);
        assert!(graph.out(0).is_some());
    }

    #[test]
    fn all_equal_fingerprint_windows_make_progress() {
        let (_g, device, _host, spill) = setup();
        // Far more occurrences of one fingerprint than a window holds.
        let suffixes: Vec<(u128, u32)> = (0..50).map(|i| (7u128, i * 2)).collect();
        let prefixes: Vec<(u128, u32)> = (0..50).map(|i| (7u128, 100 + i * 2)).collect();
        write_sorted(&spill, PartitionKind::Suffix, 5, &suffixes);
        write_sorted(&spill, PartitionKind::Prefix, 5, &prefixes);
        let config = AssemblyConfig::for_dataset(5, 6);
        // Tiny host budget → window of 4 pairs forces the gather path.
        let host = HostMem::new(16 * KvPair::BYTES as u64 * 4);
        let mut graph = StringGraph::new(256);
        let report = run(&device, &host, &spill, &config, &mut graph).unwrap();
        assert_eq!(report.candidates, 2500);
        assert!(report.accepted >= 50, "accepted {}", report.accepted);
    }

    #[test]
    fn filled_windows_hold_the_bytes_reserved_for_them() {
        let (_g, _device, _host, spill) = setup();
        let pairs: Vec<(u128, u32)> = (0..100).map(|i| (u128::from(i), i)).collect();
        write_sorted(&spill, PartitionKind::Suffix, 5, &pairs);
        write_sorted(&spill, PartitionKind::Prefix, 5, &pairs);
        let mut sfx = spill.reader(PartitionKind::Suffix, 5).unwrap();
        let mut pfx = spill.reader(PartitionKind::Prefix, 5).unwrap();
        let (mut ws, mut wp) = (FileSource::new(&mut sfx), FileSource::new(&mut pfx));
        let window_pairs = 40;
        let mut held = 0;
        for w in [&mut ws, &mut wp] {
            w.fill(half_window(window_pairs)).unwrap();
            let Pairs { keys, vals } = w.window();
            held += std::mem::size_of_val(keys) + std::mem::size_of_val(vals);
        }
        assert_eq!(held as u64, window_bytes(window_pairs));
    }

    #[test]
    fn windows_larger_than_the_device_are_tiled_on_both_sides() {
        check_cases(16, |rng| {
            let mut side = |offset: u32| {
                rng.vec(600..1000, |r| {
                    (
                        u128::from(r.below(400)) << 64,
                        r.below(1000) as u32 * 4 + offset,
                    )
                })
            };
            let (s, p) = (side(0), side(2));
            let (_g, _device, _host, spill) = setup();
            write_sorted(&spill, PartitionKind::Suffix, 5, &s);
            write_sorted(&spill, PartitionKind::Prefix, 5, &p);
            let mut sfx = spill.reader(PartitionKind::Suffix, 5).unwrap();
            let mut pfx = spill.reader(PartitionKind::Prefix, 5).unwrap();

            // 28 keys to a tile, 100 pairs to a window.
            let device = Device::with_capacity(GpuProfile::k40(), 2_000);
            let mut got = Vec::new();
            let (candidates, advances) =
                join_partition(&device, &mut sfx, &mut pfx, 200, |u, v| got.push((u, v))).unwrap();
            // One side alone tiles into at most four: more launches than
            // that per round means segments times chunks.
            let launches = device.stats().per_kernel["vec_lower_bound"].launches;
            assert!(
                launches > 4 * advances,
                "{launches} launches, {advances} rounds"
            );

            let mut naive: Vec<(u32, u32)> = s
                .iter()
                .flat_map(|&(ks, u)| {
                    p.iter()
                        .filter(move |(kp, _)| *kp == ks)
                        .map(move |&(_, v)| (u, v))
                })
                .collect();
            assert_eq!(candidates as usize, naive.len());
            naive.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, naive);
        });
    }

    #[test]
    fn empty_partitions_produce_no_edges() {
        let (_g, device, host, spill) = setup();
        write_sorted(&spill, PartitionKind::Suffix, 5, &[]);
        write_sorted(&spill, PartitionKind::Prefix, 5, &[(1, 0)]);
        let config = AssemblyConfig::for_dataset(5, 6);
        let mut graph = StringGraph::new(4);
        let report = run(&device, &host, &spill, &config, &mut graph).unwrap();
        assert_eq!(report.candidates, 0);
        assert_eq!(graph.edge_count(), 0);
    }

    #[test]
    fn join_matches_naive_hash_join() {
        check_cases(256, |rng| {
            let mut side = |offset: u32| {
                // Vertices must be distinct across the two sides to avoid
                // degenerate self-edges clouding the count.
                rng.vec(0..60, |r| {
                    (u128::from(r.below(30)), r.below(100) as u32 * 4 + offset)
                })
            };
            let (s, p) = (side(0), side(2));
            let window_budget = rng.range(4..32) as usize;
            let (_g, device, _host, spill) = setup();
            write_sorted(&spill, PartitionKind::Suffix, 5, &s);
            write_sorted(&spill, PartitionKind::Prefix, 5, &p);

            let mut sfx = spill.reader(PartitionKind::Suffix, 5).unwrap();
            let mut pfx = spill.reader(PartitionKind::Prefix, 5).unwrap();
            let mut graph = StringGraph::new(512);
            let (candidates, _) =
                join_partition(&device, &mut sfx, &mut pfx, window_budget, |u, v| {
                    let _ = graph.try_add_edge(u, v, 5);
                })
                .unwrap();

            let mut naive = 0u64;
            for (ks, _) in &s {
                naive += p.iter().filter(|(kp, _)| kp == ks).count() as u64;
            }
            assert_eq!(candidates, naive);
            graph.check_invariants().unwrap();
        });
    }
}
