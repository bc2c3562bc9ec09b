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
use gstream::spill::{PartitionKind, SpillDir};
use gstream::{HostMem, KvPair, RecordReader};
use vgpu::Device;

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

/// Stream one window's worth of pairs, tracking exhaustion.
struct Window<'a> {
    buf: Vec<KvPair>,
    reader: &'a mut RecordReader,
}

impl<'a> Window<'a> {
    fn new(reader: &'a mut RecordReader) -> Self {
        Window {
            buf: Vec::new(),
            reader,
        }
    }

    fn refill(&mut self, target: usize) -> Result<()> {
        if self.buf.len() < target {
            let more = self.reader.next_chunk(target - self.buf.len())?;
            self.buf.extend(more);
        }
        Ok(())
    }

    fn exhausted(&self) -> bool {
        self.reader.remaining() == 0
    }

    fn last_key(&self) -> u128 {
        self.buf.last().expect("non-empty window").key
    }

    /// Extend the window until its last key differs from `key` or the
    /// stream ends (the all-equal-window escape hatch).
    fn gather_all_of(&mut self, key: u128, step: usize) -> Result<()> {
        while !self.exhausted() && self.last_key() == key {
            let more = self.reader.next_chunk(step.max(1))?;
            if more.is_empty() {
                break;
            }
            self.buf.extend(more);
        }
        Ok(())
    }
}

/// Join one sorted suffix/prefix partition pair, invoking `on_candidate`
/// for every fingerprint match `(suffix-vertex, prefix-vertex)` in stream
/// order. Returns the candidate count. The callback form lets the
/// single-node reduce feed the graph directly while the distributed reduce
/// collects candidates to apply under the bit-vector token (Section
/// III-E3).
pub fn join_partition(
    device: &Device,
    sfx: &mut RecordReader,
    pfx: &mut RecordReader,
    window_pairs: usize,
    on_candidate: impl FnMut(VertexId, VertexId),
) -> Result<u64> {
    let mut advances = 0u64;
    join_partition_counting(device, sfx, pfx, window_pairs, &mut advances, on_candidate)
}

/// [`join_partition`] that also counts co-advancing window rounds into
/// `advances` (one per `LOWER_BOUND` cut), for the reduce phase's
/// `reduce.window_advances` counter.
fn join_partition_counting(
    device: &Device,
    sfx: &mut RecordReader,
    pfx: &mut RecordReader,
    window_pairs: usize,
    advances: &mut u64,
    mut on_candidate: impl FnMut(VertexId, VertexId),
) -> Result<u64> {
    let half = (window_pairs / 2).max(2);
    let mut ws = Window::new(sfx);
    let mut wp = Window::new(pfx);
    let mut candidates = 0u64;

    loop {
        ws.refill(half)?;
        wp.refill(half)?;
        if ws.buf.is_empty() || wp.buf.is_empty() {
            // No further matches are possible: suffixes without prefixes
            // (or vice versa) produce no edges.
            break;
        }
        *advances += 1;

        // f ← MIN_KEY(S_{M/2}, P_{M/2}); cut both windows at LOWER_BOUND(f).
        let f = ws.last_key().min(wp.last_key());
        let mut cut_s = ws.buf.partition_point(|p| p.key < f);
        let mut cut_p = wp.buf.partition_point(|p| p.key < f);

        // Deferring the trailing run of f to the next round is only valid
        // while more of f may still arrive. Include f now when (a) the
        // stream owning the run is exhausted, or (b) neither cut made
        // progress (both windows are a single fingerprint). Either way the
        // *complete* run of f must enter both windows, so gather it from
        // any stream that still ends in f.
        let include_f = (ws.exhausted() && ws.last_key() == f)
            || (wp.exhausted() && wp.last_key() == f)
            || (cut_s == 0 && cut_p == 0);
        if include_f {
            ws.gather_all_of(f, half)?;
            wp.gather_all_of(f, half)?;
            cut_s = ws.buf.partition_point(|p| p.key <= f);
            cut_p = wp.buf.partition_point(|p| p.key <= f);
        }

        if cut_s > 0 && cut_p > 0 {
            candidates += join_windows(
                device,
                &ws.buf[..cut_s],
                &wp.buf[..cut_p],
                &mut on_candidate,
            )?;
        }
        ws.buf.drain(..cut_s);
        wp.buf.drain(..cut_p);
    }
    Ok(candidates)
}

/// Lines 8-17 of Algorithm 2: vectorized bounds on the device, candidate
/// emission on the host.
///
/// Windows normally fit the device, but the all-equal-fingerprint escape
/// hatch can grow them arbitrarily (a fingerprint shared by thousands of
/// reads at high coverage), so both sides are tiled: the prefix window is
/// split into contiguous segments, each loaded once, and occurrence counts
/// are summed across segments (bounds in a segmented sorted array are
/// additive).
fn join_windows(
    device: &Device,
    s: &[KvPair],
    p: &[KvPair],
    on_candidate: &mut impl FnMut(VertexId, VertexId),
) -> Result<u64> {
    // Per resident pair: 16 B suffix key + 16 B prefix key + 3×4 B bounds
    // outputs; budget 80% of the free device memory, split evenly.
    let free = device.capacity().saturating_sub(device.stats().mem_used) as usize;
    let tile = (free * 8 / 10 / 2 / 28).max(16);

    let mut candidates = 0u64;
    for p_seg in p.chunks(tile.max(1)) {
        let p_keys: Vec<u128> = p_seg.iter().map(|kv| kv.key).collect();
        let dp = device.h2d(&p_keys)?;
        for s_chunk in s.chunks(tile.max(1)) {
            let s_keys: Vec<u128> = s_chunk.iter().map(|kv| kv.key).collect();
            let ds = device.h2d(&s_keys)?;
            let lower = device.vec_lower_bound(&ds, &dp)?;
            let upper = device.vec_upper_bound(&ds, &dp)?;
            let diff = device.vec_difference(&upper, &lower)?;
            let lower = device.d2h(&lower);
            let counts = device.d2h(&diff);
            for (i, kv) in s_chunk.iter().enumerate() {
                let c = counts[i];
                if c == 0 {
                    continue;
                }
                let u: VertexId = kv.val;
                for j in lower[i]..lower[i] + c {
                    let v: VertexId = p_seg[j as usize].val;
                    candidates += 1;
                    on_candidate(u, v);
                }
            }
        }
    }
    Ok(candidates)
}

/// Window budget for the reduce join: the paper reads M/2 pairs per side
/// with M sized to working memory, and both windows are loaded into the
/// device for the vectorized bounds (keys 2×16 B plus three u32 outputs
/// per suffix, doubled for headroom ⇒ ~88 B per resident pair). Reduce
/// uses far less host memory than sort (Tables IV/V), so a quarter of the
/// host budget caps the host side.
pub fn window_budget(host: &HostMem, device: &Device) -> usize {
    let host_cap = host.capacity() as usize / KvPair::BYTES / 4;
    let device_cap = device.capacity() as usize / 88;
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

/// [`run`] with structured events: each overlap length joins under its
/// own span (`len_00045`, …) carrying `reduce.candidates`,
/// `reduce.accepted`, `reduce.rejected` (guard-refused edges), and
/// `reduce.window_advances`.
pub fn run_traced(
    device: &Device,
    host: &HostMem,
    spill: &SpillDir,
    config: &AssemblyConfig,
    graph: &mut StringGraph,
    rec: &obs::Recorder,
) -> Result<ReducePhaseReport> {
    let window_pairs = window_budget(host, device);
    let mut report = ReducePhaseReport::default();

    for len in (config.l_min..config.l_max).rev() {
        let s_path = spill.path(PartitionKind::Suffix, len);
        let p_path = spill.path(PartitionKind::Prefix, len);
        if !s_path.exists() || !p_path.exists() {
            continue;
        }
        let span = rec.span(&format!("len_{len:05}"));
        let _guard = host.reserve((window_pairs * KvPair::BYTES) as u64)?;
        let mut sfx = spill.reader(PartitionKind::Suffix, len)?;
        let mut pfx = spill.reader(PartitionKind::Prefix, len)?;
        let mut accepted = 0u64;
        let mut advances = 0u64;
        let c = join_partition_counting(
            device,
            &mut sfx,
            &mut pfx,
            window_pairs,
            &mut advances,
            |u, v| {
                if graph.try_add_edge(u, v, len).is_ok() {
                    accepted += 1;
                }
            },
        )?;
        // The join stops as soon as one stream runs dry, which can leave a
        // tail of the other stream unread; drain both so corruption
        // anywhere in a partition fails loudly here rather than flowing
        // silently into the assembly.
        sfx.verify_to_end()?;
        pfx.verify_to_end()?;
        rec.counter_on(span.id(), "reduce.candidates", c);
        rec.counter_on(span.id(), "reduce.accepted", accepted);
        rec.counter_on(span.id(), "reduce.rejected", c - accepted);
        rec.counter_on(span.id(), "reduce.window_advances", advances);
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
            let candidates = join_partition(&device, &mut sfx, &mut pfx, window_budget, |u, v| {
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
