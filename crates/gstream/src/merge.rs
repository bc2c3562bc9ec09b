//! External-memory merging — the paper's **Algorithm 1**.
//!
//! Two sorted streams are merged while holding at most `M` pairs in working
//! memory: windows of `M/2` pairs slide over each input; when a whole window
//! precedes the other it is emitted directly (lines 5-6); otherwise the
//! window holding the larger last key is *resized* at the upper bound of the
//! smaller last key (lines 8-15) so that the pair of windows covers a closed
//! key range, and the equalized windows are merged on the device (line 16).
//!
//! The same routine implements both levels of the paper's hybrid-memory
//! scheme: at the disk level `M = m_h` (host block-size) and the "device
//! merge" recursively re-enters with `M = m_d`; at the host level the
//! windows are ranges of runs already in RAM.
//!
//! Runs are [`Columns`] throughout, the layout the device kernels take. A
//! window is a range of its source's columns that a cursor slides over: it
//! is copied when it is uploaded and nowhere else, and what the device hands
//! back goes straight to the sink.

use crate::reader::RecordReader;
use crate::record::{Columns, Pairs};
use crate::writer::RecordWriter;
use crate::{Result, StreamError};
use std::borrow::BorrowMut;
use vgpu::Device;

/// A sequential source of sorted pairs (file stream or in-memory run),
/// seen through a window that slides forward.
pub trait PairSource {
    /// Top the window up to `want` pairs, keeping the ones it still holds
    /// in front; it ends up shorter only at the end of the stream.
    fn fill(&mut self, want: usize) -> Result<()>;
    /// The window: the pairs filled and not yet consumed.
    fn window(&self) -> Pairs<'_>;
    /// Drop the first `n` pairs of the window.
    fn consume(&mut self, n: usize);
}

/// A sorted spill file as a source: the window is a buffer the reader
/// decodes into, refilled behind a cursor. `R` is the reader itself, or a
/// `&mut` to one whose owner checks the rest of the file afterwards
/// ([`RecordReader::verify_to_end`]).
pub struct FileSource<R = RecordReader> {
    reader: R,
    buf: Columns,
    /// Pairs of `buf` already consumed.
    start: usize,
}

impl<R: BorrowMut<RecordReader>> FileSource<R> {
    /// Stream `reader` from its current position.
    pub fn new(reader: R) -> Self {
        FileSource {
            reader,
            buf: Columns::default(),
            start: 0,
        }
    }

    /// Records of the file not yet in any window.
    pub fn remaining(&self) -> u64 {
        self.reader.borrow().remaining()
    }
}

impl<R: BorrowMut<RecordReader>> PairSource for FileSource<R> {
    fn fill(&mut self, want: usize) -> Result<()> {
        let held = self.buf.len() - self.start;
        if held >= want {
            return Ok(());
        }
        // Close the gap the cursor left, then decode behind what is held.
        self.buf.keys.copy_within(self.start.., 0);
        self.buf.vals.copy_within(self.start.., 0);
        self.buf.keys.truncate(held);
        self.buf.vals.truncate(held);
        self.start = 0;
        self.reader
            .borrow_mut()
            .next_columns(want - held, &mut self.buf)
    }

    fn window(&self) -> Pairs<'_> {
        self.buf.pairs_from(self.start)
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
    }
}

/// In-memory source over a sorted run: the window is a range of the run.
pub struct SliceSource<'a> {
    data: Pairs<'a>,
    start: usize,
    end: usize,
}

impl<'a> SliceSource<'a> {
    /// Wrap a sorted run.
    pub fn new(data: Pairs<'a>) -> Self {
        SliceSource {
            data,
            start: 0,
            end: 0,
        }
    }
}

impl PairSource for SliceSource<'_> {
    fn fill(&mut self, want: usize) -> Result<()> {
        self.end = self.data.len().min(self.end.max(self.start + want));
        Ok(())
    }

    fn window(&self) -> Pairs<'_> {
        Pairs {
            keys: &self.data.keys[self.start..self.end],
            vals: &self.data.vals[self.start..self.end],
        }
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
    }
}

/// A sink for merged output (file stream or in-memory run).
pub trait PairSink {
    /// Append `pairs` to the output.
    fn emit(&mut self, pairs: Pairs<'_>) -> Result<()>;
}

impl PairSink for RecordWriter {
    fn emit(&mut self, pairs: Pairs<'_>) -> Result<()> {
        self.write_columns(pairs)
    }
}

impl PairSink for Columns {
    fn emit(&mut self, pairs: Pairs<'_>) -> Result<()> {
        self.extend(pairs);
        Ok(())
    }
}

/// What a merge did: the pairs it emitted and its window advances, the
/// rounds that emitted output, those of the merges it re-entered included.
/// [`crate::ExternalSorter`] sums the advances of one sort into its
/// `merge.window_advances` counter; a merge itself emits no event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Merged {
    /// Pairs emitted into the sink.
    pub pairs: u64,
    /// Window advances, nested merges' included.
    pub window_advances: u64,
}

impl Merged {
    /// One window of `pairs` emitted as it is.
    fn window(pairs: usize) -> Merged {
        Merged {
            pairs: pairs as u64,
            window_advances: 1,
        }
    }
}

impl std::ops::AddAssign for Merged {
    fn add_assign(&mut self, other: Merged) {
        self.pairs += other.pairs;
        self.window_advances += other.window_advances;
    }
}

/// Merge two equalized in-memory runs on the device into `out`. Runs whose
/// combined size exceeds `device_pairs` are merged by re-entering the
/// windowed algorithm with `M = device_pairs` — the second level of the
/// paper's hybrid scheme.
pub fn device_merge<K: PairSink>(
    dev: &Device,
    a: Pairs<'_>,
    b: Pairs<'_>,
    device_pairs: usize,
    out: &mut K,
) -> Result<Merged> {
    if a.len() + b.len() > device_pairs {
        return windowed_merge(
            dev,
            &mut SliceSource::new(a),
            &mut SliceSource::new(b),
            out,
            device_pairs,
            device_pairs,
        );
    }
    // The uploads are released before the output is emitted.
    let (keys, vals) = {
        let ak = dev.h2d(a.keys)?;
        let av = dev.h2d(a.vals)?;
        let bk = dev.h2d(b.keys)?;
        let bv = dev.h2d(b.vals)?;
        let (keys, vals) = dev.merge_pairs(&ak, &av, &bk, &bv)?;
        (dev.d2h_vec(keys), dev.d2h_vec(vals))
    };
    out.emit(Pairs {
        keys: &keys,
        vals: &vals,
    })?;
    Ok(Merged {
        pairs: keys.len() as u64,
        window_advances: 0,
    })
}

/// Merge sorted sources `a` and `b` into `out`, holding at most
/// `window_pairs` pairs in working memory and at most `device_pairs` pairs
/// on the device. Returns the pairs emitted and the window advances.
pub fn windowed_merge<SA, SB, K>(
    dev: &Device,
    a: &mut SA,
    b: &mut SB,
    out: &mut K,
    window_pairs: usize,
    device_pairs: usize,
) -> Result<Merged>
where
    SA: PairSource,
    SB: PairSource,
    K: PairSink,
{
    if window_pairs < 2 || device_pairs < 2 {
        return Err(StreamError::BadConfig(format!(
            "merge windows must hold at least 2 pairs (window={window_pairs}, device={device_pairs})"
        )));
    }
    let half = window_pairs / 2;
    let mut merged = Merged::default();

    loop {
        a.fill(half)?;
        b.fill(half)?;
        let (af, bf) = (a.window(), b.window());

        // Line 19: one side exhausted — stream the remainder of the other.
        if af.is_empty() {
            merged += drain(b, out, half)?;
            return Ok(merged);
        }
        if bf.is_empty() {
            merged += drain(a, out, half)?;
            return Ok(merged);
        }

        let a_last = af.keys[af.len() - 1];
        let b_last = bf.keys[bf.len() - 1];

        // Lines 5-6: whole-window ordering, no merge needed.
        if a_last <= bf.keys[0] {
            out.emit(af)?;
            let n = af.len();
            merged += Merged::window(n);
            a.consume(n);
            continue;
        }
        if b_last < af.keys[0] {
            out.emit(bf)?;
            let n = bf.len();
            merged += Merged::window(n);
            b.consume(n);
            continue;
        }

        // Lines 8-15: equalize the windows at min(a_last, b_last), then
        // merge the covered range on the device (line 16). No key in the
        // emitted range can still arrive from either stream, and ties keep
        // `a` before `b`: `a`'s next chunk may open with more copies of
        // `a_last`, so `b`'s copies of it wait for them, whereas `a` has no
        // copy of `b_last` beyond its upper bound (the paper's
        // `UPPER_BOUND`: the index after the last key `<= b_last`).
        let (take_a, take_b) = if a_last <= b_last {
            (af.len(), bf.keys.partition_point(|&key| key < a_last))
        } else {
            (af.keys.partition_point(|&key| key <= b_last), bf.len())
        };
        merged += device_merge(dev, af.first(take_a), bf.first(take_b), device_pairs, out)?;
        merged.window_advances += 1;
        a.consume(take_a);
        b.consume(take_b);
    }
}

/// Emit the rest of `src`, a window at a time, once the other side is done.
fn drain<S: PairSource, K: PairSink>(src: &mut S, out: &mut K, half: usize) -> Result<Merged> {
    let mut merged = Merged::default();
    while !src.window().is_empty() {
        let n = src.window().len();
        out.emit(src.window())?;
        merged += Merged::window(n);
        src.consume(n);
        src.fill(half)?;
    }
    Ok(merged)
}

/// Merge `runs`, each sorted, into `out` by rounds of pairwise device
/// merges; on equal keys an earlier run's pairs come first. Returns the
/// window advances of the device merges that re-entered the windowed
/// algorithm.
fn tournament<K: PairSink>(
    dev: &Device,
    runs: &[Pairs<'_>],
    device_pairs: usize,
    out: &mut K,
) -> Result<u64> {
    match runs {
        [] => Ok(0),
        [only] => out.emit(*only).map(|()| 0),
        [a, b] => Ok(device_merge(dev, *a, *b, device_pairs, out)?.window_advances),
        _ => {
            let mut merged = Vec::with_capacity(runs.len() / 2);
            let mut advances = 0;
            for pair in runs.chunks_exact(2) {
                let mut run = Columns::with_capacity(pair[0].len() + pair[1].len());
                advances +=
                    device_merge(dev, pair[0], pair[1], device_pairs, &mut run)?.window_advances;
                merged.push(run);
            }
            let mut next: Vec<Pairs<'_>> = merged.iter().map(|run| run.pairs_from(0)).collect();
            // An odd run out sits this round out, still last.
            next.extend(runs.chunks_exact(2).remainder());
            Ok(advances + tournament(dev, &next, device_pairs, out)?)
        }
    }
}

/// K-way external merge: one pass over any number of sorted sources.
///
/// The paper's Algorithm 1 is "adapted from the k-way merging scheme" but
/// merges runs *pairwise*, doubling run length each disk pass
/// (`log2(runs)` passes). This generalization holds one window per source
/// and finishes in a single pass: any key strictly below the smallest
/// last-key among non-exhausted windows can no longer arrive from any
/// source, so each round emits the device-merged tournament of the safe
/// window prefixes. Used by the sort ablation; the default sorter stays
/// faithful to the paper's pairwise scheme.
pub fn kway_merge<K>(
    dev: &Device,
    sources: &mut [&mut dyn PairSource],
    out: &mut K,
    window_pairs: usize,
    device_pairs: usize,
) -> Result<Merged>
where
    K: PairSink,
{
    if sources.is_empty() {
        return Ok(Merged::default());
    }
    let per_window = (window_pairs / (sources.len() + 1)).max(2);
    // Whether a source's stream has ended: its window is then all it has.
    let mut exhausted = vec![false; sources.len()];
    let mut merged = Merged::default();

    loop {
        // Refill.
        for (src, exhausted) in sources.iter_mut().zip(exhausted.iter_mut()) {
            if !*exhausted {
                src.fill(per_window)?;
                *exhausted = src.window().len() < per_window;
            }
        }
        if sources.iter().all(|src| src.window().is_empty()) {
            return Ok(merged);
        }

        // Safe frontier: the smallest last-key among windows whose stream
        // may still deliver more (non-exhausted). Exhausted windows are
        // complete and impose no bound.
        let frontier: Option<u128> = sources
            .iter()
            .zip(&exhausted)
            .filter(|(_, &exhausted)| !exhausted)
            .filter_map(|(src, _)| src.window().keys.last().copied())
            .min();

        // Cut each window at the frontier (strictly below, so a later
        // chunk with equal keys cannot be missed); when that yields no
        // progress, gather the frontier key's full run everywhere and
        // include it.
        let mut cuts: Vec<usize> = sources
            .iter()
            .zip(&exhausted)
            .map(|(src, &exhausted)| {
                let keys = src.window().keys;
                match frontier {
                    Some(f) if !exhausted || keys.last().is_some_and(|&last| last >= f) => {
                        keys.partition_point(|&key| key < f)
                    }
                    _ => keys.len(),
                }
            })
            .collect();
        if cuts.iter().all(|&c| c == 0) {
            let f = frontier.expect("stall implies a frontier");
            for (src, exhausted) in sources.iter_mut().zip(exhausted.iter_mut()) {
                while !*exhausted && src.window().keys.last() == Some(&f) {
                    let held = src.window().len();
                    src.fill(held + per_window)?;
                    *exhausted = src.window().len() == held;
                }
            }
            cuts = sources
                .iter()
                .map(|src| src.window().keys.partition_point(|&key| key <= f))
                .collect();
        }

        // Tournament-merge the safe prefixes on the device.
        let runs: Vec<Pairs<'_>> = sources
            .iter()
            .zip(&cuts)
            .filter(|(_, &cut)| cut > 0)
            .map(|(src, &cut)| src.window().first(cut))
            .collect();
        if !runs.is_empty() {
            merged.window_advances += 1 + tournament(dev, &runs, device_pairs, out)?;
            merged.pairs += cuts.iter().sum::<usize>() as u64;
        }
        for (src, &cut) in sources.iter_mut().zip(&cuts) {
            src.consume(cut);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stdx::check_cases;
    use vgpu::GpuProfile;

    fn dev() -> Device {
        Device::new(GpuProfile::k40())
    }

    /// A run over `keys` whose values count up from `first_val`.
    fn run_from(keys: &[u128], first_val: u32) -> Columns {
        Columns {
            keys: keys.to_vec(),
            vals: (first_val..).take(keys.len()).collect(),
        }
    }

    fn kv(keys: &[u128]) -> Columns {
        run_from(keys, 0)
    }

    fn merge_with(a: &Columns, b: &Columns, window: usize, device: usize) -> Columns {
        let d = dev();
        let mut out = Columns::default();
        let n = windowed_merge(
            &d,
            &mut SliceSource::new(a.pairs_from(0)),
            &mut SliceSource::new(b.pairs_from(0)),
            &mut out,
            window,
            device,
        )
        .unwrap();
        assert_eq!(n.pairs as usize, out.len());
        assert_eq!(out.keys.len(), out.vals.len());
        out
    }

    /// The oracle: concatenate the runs in order and sort stably by key, so
    /// on equal keys an earlier run's pairs come first.
    fn stable_sort_of_concat(runs: &[Columns]) -> Columns {
        let mut pairs: Vec<(u128, u32)> = runs
            .iter()
            .flat_map(|run| run.keys.iter().copied().zip(run.vals.iter().copied()))
            .collect();
        pairs.sort_by_key(|pair| pair.0);
        let (keys, vals) = pairs.into_iter().unzip();
        Columns { keys, vals }
    }

    #[test]
    fn merges_disjoint_ranges_without_device_merge() {
        let a = kv(&[1, 2, 3]);
        let b = kv(&[10, 11]);
        let got = merge_with(&a, &b, 8, 8);
        assert_eq!(got.keys, vec![1, 2, 3, 10, 11]);
    }

    #[test]
    fn merges_interleaved_ranges_across_windows() {
        let a = kv(&[1, 4, 7, 10, 13, 16]);
        let b = kv(&[2, 5, 8, 11, 14, 17]);
        let got = merge_with(&a, &b, 4, 4);
        assert_eq!(got.keys, vec![1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17]);
    }

    #[test]
    fn duplicate_keys_spanning_window_boundaries_stay_sorted() {
        let a = kv(&[5, 5, 5, 5, 5, 6]);
        let b = kv(&[5, 5, 5, 7]);
        for window in [2, 4, 6, 16] {
            let got = merge_with(&a, &b, window, 16);
            assert_eq!(
                got.keys,
                vec![5, 5, 5, 5, 5, 5, 5, 5, 6, 7],
                "window={window}"
            );
        }
    }

    #[test]
    fn a_key_repeated_across_window_boundaries_keeps_a_before_b() {
        // Values rise through `a` and then `b`, as they do in two runs cut
        // from consecutive blocks of one stably sorted input: the merge
        // must then come out ordered by (key, val) whatever the window.
        let a = kv(&[1, 5, 5, 5, 5, 5, 6, 9]);
        let b = run_from(&[2, 5, 5, 5, 5, 7, 9, 9], a.len() as u32);
        let expect = stable_sort_of_concat(&[a.clone(), b.clone()]);
        assert!(expect
            .vals
            .windows(2)
            .zip(expect.keys.windows(2))
            .all(|(v, k)| k[0] < k[1] || v[0] < v[1]));
        for window in [2, 4, 6, 8, 10, 32] {
            for device in [2, 4, 32] {
                assert_eq!(
                    merge_with(&a, &b, window, device),
                    expect,
                    "window={window} device={device}"
                );
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let none = Columns::default();
        assert!(merge_with(&none, &none, 4, 4).is_empty());
        let a = kv(&[1, 2]);
        assert_eq!(merge_with(&a, &none, 4, 4), a);
        assert_eq!(merge_with(&none, &a, 4, 4), a);
    }

    #[test]
    fn rejects_degenerate_windows() {
        let d = dev();
        let none = Columns::default();
        let err = windowed_merge(
            &d,
            &mut SliceSource::new(none.pairs_from(0)),
            &mut SliceSource::new(none.pairs_from(0)),
            &mut Columns::default(),
            1,
            4,
        );
        assert!(matches!(err, Err(StreamError::BadConfig(_))));
    }

    #[test]
    fn device_merge_recurses_when_runs_exceed_device() {
        let d = dev();
        let a = kv(&[1, 3, 5, 7, 9, 11, 13, 15]);
        let b = kv(&[2, 4, 6, 8, 10, 12, 14, 16]);
        let mut got = Columns::default();
        let n = device_merge(&d, a.pairs_from(0), b.pairs_from(0), 4, &mut got).unwrap();
        assert_eq!(n.pairs, 16);
        assert_eq!(got.keys, (1..=16).collect::<Vec<u128>>());
        // Several launches, since no single one may hold more than four
        // pairs, each in a window advance of the re-entered merge.
        let launches = d.stats().per_kernel["merge_pairs"].launches;
        assert!(launches >= 4);
        assert!(n.window_advances >= launches);
    }

    #[test]
    fn windows_slide_over_a_file_as_they_do_over_a_run_in_memory() {
        // The same two runs from spill files and from memory: same output,
        // same launches, same bytes over the bus.
        let dir = stdx::tempdir().unwrap();
        let mut rng = stdx::SplitMix64::new(7);
        let mut sorted_run = |n: usize, first_val: u32| {
            let mut keys: Vec<u128> = (0..n).map(|_| u128::from(rng.below(400))).collect();
            keys.sort_unstable();
            run_from(&keys, first_val)
        };
        let (a, b) = (sorted_run(1_000, 0), sorted_run(700, 1_000));
        let io = crate::IoStats::default();
        let file_source = |name: &str, run: &Columns| {
            let path = dir.path().join(name);
            let mut w = RecordWriter::create(&path, io.clone()).unwrap();
            w.write_columns(run.pairs_from(0)).unwrap();
            w.finish_scratch().unwrap();
            FileSource::new(RecordReader::open(&path, io.clone()).unwrap())
        };
        for (window, device) in [(2, 2), (7, 3), (64, 16), (5_000, 64)] {
            let in_memory = dev();
            let mut expect = Columns::default();
            let in_memory_merged = windowed_merge(
                &in_memory,
                &mut SliceSource::new(a.pairs_from(0)),
                &mut SliceSource::new(b.pairs_from(0)),
                &mut expect,
                window,
                device,
            )
            .unwrap();
            assert_eq!(expect, stable_sort_of_concat(&[a.clone(), b.clone()]));

            let from_files = dev();
            let mut got = Columns::default();
            let from_files_merged = windowed_merge(
                &from_files,
                &mut file_source("a.kv", &a),
                &mut file_source("b.kv", &b),
                &mut got,
                window,
                device,
            )
            .unwrap();
            assert_eq!(got, expect, "window={window} device={device}");
            assert_eq!(from_files_merged, in_memory_merged);
            let (files, memory) = (from_files.stats(), in_memory.stats());
            assert_eq!(files.kernel_launches, memory.kernel_launches);
            assert_eq!(files.h2d_bytes, memory.h2d_bytes);
            assert_eq!(files.d2h_bytes, memory.d2h_bytes);
        }
    }

    fn kway_runs(runs: &[Columns], window: usize, device: usize) -> Columns {
        let d = dev();
        let mut sources: Vec<SliceSource> = runs
            .iter()
            .map(|r| SliceSource::new(r.pairs_from(0)))
            .collect();
        let mut dyns: Vec<&mut dyn PairSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn PairSource)
            .collect();
        let mut out = Columns::default();
        let n = kway_merge(&d, &mut dyns, &mut out, window, device).unwrap();
        assert_eq!(n.pairs as usize, out.len());
        out
    }

    fn kway(groups: Vec<Vec<u128>>, window: usize, device: usize) -> Vec<u128> {
        let runs: Vec<Columns> = groups.iter().map(|g| kv(g)).collect();
        kway_runs(&runs, window, device).keys
    }

    #[test]
    fn kway_merges_three_runs() {
        let got = kway(vec![vec![1, 4, 7], vec![2, 5, 8], vec![3, 6, 9]], 12, 12);
        assert_eq!(got, (1..=9).collect::<Vec<u128>>());
    }

    #[test]
    fn kway_handles_empty_and_unbalanced_runs() {
        let got = kway(vec![vec![], vec![5], vec![1, 2, 3, 4, 6, 7]], 8, 8);
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7]);
        assert!(kway(vec![], 8, 8).is_empty());
        assert!(kway(vec![vec![], vec![]], 8, 8).is_empty());
    }

    #[test]
    fn kway_survives_all_equal_keys_across_runs() {
        let got = kway(
            vec![vec![7; 20], vec![7; 15], vec![7; 9]],
            6, // tiny windows force the stall path
            8,
        );
        assert_eq!(got, vec![7u128; 44]);
    }

    #[test]
    fn kway_equals_sorted_concat() {
        check_cases(256, |rng| {
            let mut groups = rng.vec(1..7, |r| r.vec(0..80, |r| u128::from(r.range(0..500))));
            let window = rng.range(4..40) as usize;
            let device = rng.range(4..40) as usize;
            for g in groups.iter_mut() {
                g.sort_unstable();
            }
            let mut expect: Vec<u128> = groups.iter().flatten().copied().collect();
            expect.sort_unstable();
            let got = kway(groups.clone(), window, device);
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn merge_equals_sorted_concat() {
        check_cases(256, |rng| {
            let mut a = rng.vec(0..200, |r| u128::from(r.range(0..1000)));
            let mut b = rng.vec(0..200, |r| u128::from(r.range(0..1000)));
            let window = rng.range(2..32) as usize;
            let device = rng.range(2..32) as usize;
            a.sort_unstable();
            b.sort_unstable();
            let got = merge_with(&kv(&a), &kv(&b), window, device);
            let mut expect = [a, b].concat();
            expect.sort_unstable();
            assert_eq!(got.keys, expect);
        });
    }

    /// Sorted runs over few distinct keys, so that most window cuts land
    /// inside a run of equal keys; values number the pairs in run order.
    fn runs_with_heavy_duplicates(rng: &mut stdx::SplitMix64, count: usize) -> Vec<Columns> {
        let distinct = rng.range(1..40);
        let mut next_val = 0;
        (0..count)
            .map(|_| {
                let mut keys = rng.vec(0..300, |r| u128::from(r.below(distinct)) << 70);
                keys.sort_unstable();
                let run = run_from(&keys, next_val);
                next_val += keys.len() as u32;
                run
            })
            .collect()
    }

    #[test]
    fn windowed_merge_is_the_stable_sort_of_the_concatenation() {
        check_cases(64, |rng| {
            let runs = runs_with_heavy_duplicates(rng, 2);
            let expect = stable_sort_of_concat(&runs);
            for window in [2, 3, 16, 1_000] {
                for device in [2, 5, 64] {
                    assert_eq!(
                        merge_with(&runs[0], &runs[1], window, device),
                        expect,
                        "window={window} device={device}"
                    );
                }
            }
        });
    }

    #[test]
    fn kway_merge_is_the_stable_sort_of_the_concatenation() {
        check_cases(64, |rng| {
            let count = rng.range(1..7) as usize;
            let runs = runs_with_heavy_duplicates(rng, count);
            let expect = stable_sort_of_concat(&runs);
            for window in [2, 3, 16, 1_000] {
                for device in [2, 5, 64] {
                    assert_eq!(
                        kway_runs(&runs, window, device),
                        expect,
                        "window={window} device={device}"
                    );
                }
            }
        });
    }
}
