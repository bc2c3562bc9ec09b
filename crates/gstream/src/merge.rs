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
//! windows are slices already in RAM.

use crate::record::{split_pairs, zip_pairs, KvPair};
use crate::writer::RecordWriter;
use crate::{Result, StreamError};
use vgpu::Device;

/// A sequential source of sorted pairs (file stream or in-memory slice).
pub trait PairSource {
    /// Produce up to `max` further pairs; an empty vec means exhausted.
    fn next_chunk(&mut self, max: usize) -> Result<Vec<KvPair>>;
}

impl PairSource for crate::reader::RecordReader {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<KvPair>> {
        crate::reader::RecordReader::next_chunk(self, max)
    }
}

/// In-memory source over a sorted slice.
pub struct SliceSource<'a> {
    data: &'a [KvPair],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Wrap a sorted slice.
    pub fn new(data: &'a [KvPair]) -> Self {
        SliceSource { data, pos: 0 }
    }
}

impl PairSource for SliceSource<'_> {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<KvPair>> {
        let take = max.min(self.data.len() - self.pos);
        let out = self.data[self.pos..self.pos + take].to_vec();
        self.pos += take;
        Ok(out)
    }
}

/// A sink for merged output (file stream or in-memory vec).
pub trait PairSink {
    /// Append `pairs` to the output.
    fn emit(&mut self, pairs: &[KvPair]) -> Result<()>;
}

impl PairSink for RecordWriter {
    fn emit(&mut self, pairs: &[KvPair]) -> Result<()> {
        self.write_all(pairs)
    }
}

/// Sink that accumulates into a `Vec`.
#[derive(Default)]
pub struct VecSink {
    /// Collected output.
    pub out: Vec<KvPair>,
}

impl PairSink for VecSink {
    fn emit(&mut self, pairs: &[KvPair]) -> Result<()> {
        self.out.extend_from_slice(pairs);
        Ok(())
    }
}

/// Upper bound of `key` in a sorted pair slice: the index after the last
/// element with key `<= key` (the paper's `UPPER_BOUND`).
fn upper_bound(pairs: &[KvPair], key: u128) -> usize {
    pairs.partition_point(|p| p.key <= key)
}

fn refill<S: PairSource>(buf: &mut Vec<KvPair>, src: &mut S, target: usize) -> Result<()> {
    if buf.len() < target {
        let more = src.next_chunk(target - buf.len())?;
        buf.extend(more);
    }
    Ok(())
}

/// Merge two equalized in-memory runs on the device. Runs whose combined
/// size exceeds `device_pairs` are merged by re-entering the windowed
/// algorithm with `M = device_pairs` — the second level of the paper's
/// hybrid scheme.
pub fn device_merge(
    dev: &Device,
    a: &[KvPair],
    b: &[KvPair],
    device_pairs: usize,
) -> Result<Vec<KvPair>> {
    if a.len() + b.len() <= device_pairs {
        let (ak, av) = split_pairs(a);
        let (bk, bv) = split_pairs(b);
        let ak = dev.h2d(&ak)?;
        let av = dev.h2d(&av)?;
        let bk = dev.h2d(&bk)?;
        let bv = dev.h2d(&bv)?;
        let (ok, ov) = dev.merge_pairs(&ak, &av, &bk, &bv)?;
        Ok(zip_pairs(dev.d2h(&ok), dev.d2h(&ov)))
    } else {
        let mut sink = VecSink::default();
        windowed_merge(
            dev,
            &mut SliceSource::new(a),
            &mut SliceSource::new(b),
            &mut sink,
            device_pairs,
            device_pairs,
        )?;
        Ok(sink.out)
    }
}

/// Merge sorted sources `a` and `b` into `out`, holding at most
/// `window_pairs` pairs in working memory and at most `device_pairs` pairs
/// on the device. Returns the number of pairs emitted.
///
/// When the device carries an [`obs::Recorder`] (see
/// [`Device::set_recorder`]), the total number of window advances (rounds
/// that emitted output) is recorded as the `merge.window_advances` counter
/// on the recorder's current span.
pub fn windowed_merge<SA, SB, K>(
    dev: &Device,
    a: &mut SA,
    b: &mut SB,
    out: &mut K,
    window_pairs: usize,
    device_pairs: usize,
) -> Result<u64>
where
    SA: PairSource,
    SB: PairSource,
    K: PairSink,
{
    let mut advances = 0u64;
    let result = windowed_merge_inner(dev, a, b, out, window_pairs, device_pairs, &mut advances);
    if advances > 0 {
        let rec = dev.recorder();
        if rec.is_enabled() {
            rec.counter("merge.window_advances", advances);
        }
    }
    result
}

fn windowed_merge_inner<SA, SB, K>(
    dev: &Device,
    a: &mut SA,
    b: &mut SB,
    out: &mut K,
    window_pairs: usize,
    device_pairs: usize,
    advances: &mut u64,
) -> Result<u64>
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
    let mut af: Vec<KvPair> = Vec::new();
    let mut bf: Vec<KvPair> = Vec::new();
    let mut emitted = 0u64;

    loop {
        refill(&mut af, a, half)?;
        refill(&mut bf, b, half)?;

        // Line 19: one side exhausted — stream the remainder of the other.
        if af.is_empty() {
            while !bf.is_empty() {
                out.emit(&bf)?;
                emitted += bf.len() as u64;
                *advances += 1;
                bf.clear();
                refill(&mut bf, b, half)?;
            }
            return Ok(emitted);
        }
        if bf.is_empty() {
            while !af.is_empty() {
                out.emit(&af)?;
                emitted += af.len() as u64;
                *advances += 1;
                af.clear();
                refill(&mut af, a, half)?;
            }
            return Ok(emitted);
        }

        let a_last = af[af.len() - 1].key;
        let b_last = bf[bf.len() - 1].key;

        // Lines 5-6: whole-window ordering, no merge needed.
        if a_last <= bf[0].key {
            out.emit(&af)?;
            emitted += af.len() as u64;
            *advances += 1;
            af.clear();
            continue;
        }
        if b_last < af[0].key {
            out.emit(&bf)?;
            emitted += bf.len() as u64;
            *advances += 1;
            bf.clear();
            continue;
        }

        // Lines 8-15: equalize the windows at min(a_last, b_last), then
        // merge the covered range on the device (line 16). No key in the
        // emitted range can still arrive from either stream, and ties keep
        // `a` before `b`: `a`'s next chunk may open with more copies of
        // `a_last`, so `b`'s copies of it wait for them, whereas `a` has no
        // copy of `b_last` beyond its upper bound.
        let (take_a, take_b) = if a_last <= b_last {
            (af.len(), bf.partition_point(|p| p.key < a_last))
        } else {
            (upper_bound(&af, b_last), bf.len())
        };
        let merged = device_merge(dev, &af[..take_a], &bf[..take_b], device_pairs)?;
        out.emit(&merged)?;
        emitted += merged.len() as u64;
        *advances += 1;
        af.drain(..take_a);
        bf.drain(..take_b);
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
) -> Result<u64>
where
    K: PairSink,
{
    if sources.is_empty() {
        return Ok(0);
    }
    let per_window = (window_pairs / (sources.len() + 1)).max(2);
    struct Win {
        buf: Vec<KvPair>,
        exhausted: bool,
    }
    let mut wins: Vec<Win> = sources
        .iter()
        .map(|_| Win {
            buf: Vec::new(),
            exhausted: false,
        })
        .collect();
    let mut emitted = 0u64;
    let mut rounds = 0u64;

    loop {
        // Refill.
        for (w, src) in wins.iter_mut().zip(sources.iter_mut()) {
            if !w.exhausted && w.buf.len() < per_window {
                let more = src.next_chunk(per_window - w.buf.len())?;
                if more.is_empty() {
                    w.exhausted = true;
                } else {
                    w.buf.extend(more);
                    if w.buf.len() < per_window {
                        w.exhausted = true;
                    }
                }
            }
        }
        if wins.iter().all(|w| w.buf.is_empty()) {
            if rounds > 0 {
                let rec = dev.recorder();
                if rec.is_enabled() {
                    rec.counter("merge.window_advances", rounds);
                }
            }
            return Ok(emitted);
        }

        // Safe frontier: the smallest last-key among windows whose stream
        // may still deliver more (non-exhausted). Exhausted windows are
        // complete and impose no bound.
        let frontier: Option<u128> = wins
            .iter()
            .filter(|w| !w.exhausted && !w.buf.is_empty())
            .map(|w| w.buf.last().expect("non-empty").key)
            .min();

        // Cut each window at the frontier (strictly below, so a later
        // chunk with equal keys cannot be missed); when that yields no
        // progress, gather the frontier key's full run everywhere and
        // include it.
        let mut cuts: Vec<usize> = wins
            .iter()
            .map(|w| match frontier {
                Some(f) if !w.exhausted || w.buf.last().is_some_and(|l| l.key >= f) => {
                    w.buf.partition_point(|p| p.key < f)
                }
                _ => w.buf.len(),
            })
            .collect();
        if cuts.iter().all(|&c| c == 0) {
            let f = frontier.expect("stall implies a frontier");
            for (w, src) in wins.iter_mut().zip(sources.iter_mut()) {
                while !w.exhausted && w.buf.last().is_some_and(|l| l.key == f) {
                    let more = src.next_chunk(per_window)?;
                    if more.is_empty() {
                        w.exhausted = true;
                    } else {
                        w.buf.extend(more);
                    }
                }
            }
            cuts = wins
                .iter()
                .map(|w| w.buf.partition_point(|p| p.key <= f))
                .collect();
        }

        // Tournament-merge the safe prefixes on the device.
        let mut runs: Vec<Vec<KvPair>> = wins
            .iter_mut()
            .zip(cuts.iter())
            .filter(|(_, &c)| c > 0)
            .map(|(w, &c)| w.buf.drain(..c).collect())
            .collect();
        while runs.len() > 1 {
            let mut next_round = Vec::with_capacity(runs.len() / 2 + 1);
            let mut iter = runs.into_iter();
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => next_round.push(device_merge(dev, &a, &b, device_pairs)?),
                    None => next_round.push(a),
                }
            }
            runs = next_round;
        }
        if let Some(merged) = runs.pop() {
            out.emit(&merged)?;
            emitted += merged.len() as u64;
            rounds += 1;
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

    fn kv(keys: &[u128]) -> Vec<KvPair> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| KvPair::new(k, i as u32))
            .collect()
    }

    fn merge_with(a: &[KvPair], b: &[KvPair], window: usize, device: usize) -> Vec<KvPair> {
        let d = dev();
        let mut sink = VecSink::default();
        let n = windowed_merge(
            &d,
            &mut SliceSource::new(a),
            &mut SliceSource::new(b),
            &mut sink,
            window,
            device,
        )
        .unwrap();
        assert_eq!(n as usize, sink.out.len());
        sink.out
    }

    #[test]
    fn merges_disjoint_ranges_without_device_merge() {
        let a = kv(&[1, 2, 3]);
        let b = kv(&[10, 11]);
        let got = merge_with(&a, &b, 8, 8);
        let keys: Vec<u128> = got.iter().map(|p| p.key).collect();
        assert_eq!(keys, vec![1, 2, 3, 10, 11]);
    }

    #[test]
    fn merges_interleaved_ranges_across_windows() {
        let a = kv(&[1, 4, 7, 10, 13, 16]);
        let b = kv(&[2, 5, 8, 11, 14, 17]);
        let got = merge_with(&a, &b, 4, 4);
        let keys: Vec<u128> = got.iter().map(|p| p.key).collect();
        assert_eq!(keys, vec![1, 2, 4, 5, 7, 8, 10, 11, 13, 14, 16, 17]);
    }

    #[test]
    fn duplicate_keys_spanning_window_boundaries_stay_sorted() {
        let a = kv(&[5, 5, 5, 5, 5, 6]);
        let b = kv(&[5, 5, 5, 7]);
        for window in [2, 4, 6, 16] {
            let got = merge_with(&a, &b, window, 16);
            let keys: Vec<u128> = got.iter().map(|p| p.key).collect();
            assert_eq!(keys, vec![5, 5, 5, 5, 5, 5, 5, 5, 6, 7], "window={window}");
        }
    }

    #[test]
    fn a_key_repeated_across_window_boundaries_keeps_a_before_b() {
        // Values rise through `a` and then `b`, as they do in two runs cut
        // from consecutive blocks of one stably sorted input: the merge
        // must then come out ordered by (key, val) whatever the window.
        let (a_keys, b_keys) = ([1, 5, 5, 5, 5, 5, 6, 9], [2, 5, 5, 5, 5, 7, 9, 9]);
        let a = kv(&a_keys);
        let b: Vec<KvPair> = (b_keys.iter().zip(a.len() as u32..))
            .map(|(&k, v)| KvPair::new(k, v))
            .collect();
        let mut expect = [a.clone(), b.clone()].concat();
        expect.sort();
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
        assert!(merge_with(&[], &[], 4, 4).is_empty());
        let a = kv(&[1, 2]);
        assert_eq!(merge_with(&a, &[], 4, 4), a);
        assert_eq!(merge_with(&[], &a, 4, 4), a);
    }

    #[test]
    fn rejects_degenerate_windows() {
        let d = dev();
        let mut sink = VecSink::default();
        let err = windowed_merge(
            &d,
            &mut SliceSource::new(&[]),
            &mut SliceSource::new(&[]),
            &mut sink,
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
        let got = device_merge(&d, &a, &b, 4).unwrap();
        let keys: Vec<u128> = got.iter().map(|p| p.key).collect();
        assert_eq!(keys, (1..=16).collect::<Vec<u128>>());
    }

    fn kway(groups: Vec<Vec<u128>>, window: usize, device: usize) -> Vec<u128> {
        let d = dev();
        let runs: Vec<Vec<KvPair>> = groups.iter().map(|g| kv(g)).collect();
        let mut sources: Vec<SliceSource> = runs.iter().map(|r| SliceSource::new(r)).collect();
        let mut dyns: Vec<&mut dyn PairSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn PairSource)
            .collect();
        let mut sink = VecSink::default();
        let n = kway_merge(&d, &mut dyns, &mut sink, window, device).unwrap();
        assert_eq!(n as usize, sink.out.len());
        sink.out.iter().map(|p| p.key).collect()
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
            let ap = kv(&a);
            let bp = kv(&b);
            let got = merge_with(&ap, &bp, window, device);
            let got_keys: Vec<u128> = got.iter().map(|p| p.key).collect();
            let mut expect = [a, b].concat();
            expect.sort_unstable();
            assert_eq!(got_keys, expect);
        });
    }
}
