//! Log-bucketed value histograms: HDR-style base-2 buckets with linear
//! sub-buckets, exactly mergeable, deterministically serialized.
//!
//! Values are unsigned integers (the serving tier records latencies in
//! microseconds). Each power-of-two range splits into `2^SUB_BITS`
//! linear sub-buckets, so relative quantization error is bounded by
//! `2^-SUB_BITS` (~3%) at every magnitude while values below
//! `2^SUB_BITS` are exact. All state is integral and bucket counts are
//! kept in a sorted sparse map, so merging histograms is exact,
//! commutative, and associative — two traces merged in any order
//! produce bit-identical aggregates, and the JSON serialization of an
//! aggregate is itself deterministic (sorted keys, integers only).

use std::collections::BTreeMap;

/// Sub-bucket resolution: each power-of-two range has `2^SUB_BITS`
/// linear sub-buckets.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// A mergeable log-bucketed histogram (see the module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Sparse bucket counts keyed by bucket index; absent means zero.
    buckets: BTreeMap<u32, u64>,
    /// Values recorded.
    count: u64,
    /// Sum of raw (unquantized) values, saturating.
    sum: u64,
    /// Smallest raw value recorded (`0` when empty).
    min: u64,
    /// Largest raw value recorded (`0` when empty).
    max: u64,
}

stdx::impl_json!(struct Histogram { buckets, count, sum, min, max });

/// The bucket a raw value lands in. Values below `SUB_COUNT` map to
/// themselves (exact); above, the top `SUB_BITS + 1` significant bits
/// select the bucket.
fn bucket_index(v: u64) -> u32 {
    if v < SUB_COUNT {
        return v as u32;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    ((shift + 1) << SUB_BITS) + ((v >> shift) as u32 & (SUB_COUNT as u32 - 1))
}

/// The largest raw value that maps to `bucket` — the deterministic
/// representative reported by [`Histogram::percentile`].
fn bucket_high(bucket: u32) -> u64 {
    if u64::from(bucket) < SUB_COUNT {
        return u64::from(bucket);
    }
    let shift = (bucket >> SUB_BITS) - 1;
    let sub = u64::from(bucket & (SUB_COUNT as u32 - 1));
    ((sub + SUB_COUNT) << shift) + ((1u64 << shift) - 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one value.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value` (a whole chunk of equal
    /// queue-waits, say) in O(log buckets).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        *self.buckets.entry(bucket_index(value)).or_insert(0) += n;
    }

    /// Fold `other` in. Exact: bucket counts add, so any merge order
    /// yields the identical histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (bucket, n) in &other.buckets {
            *self.buckets.entry(*bucket).or_insert(0) += n;
        }
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of raw values (saturating), for exact means over a merge.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest raw value recorded; `0` when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest raw value recorded; `0` when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of raw values; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the `ceil(q·count)`-th smallest value, clamped to
    /// the exact observed `[min, max]`. Deterministic — depends only on
    /// bucket counts, so it agrees across any merge order, any worker
    /// count, and any serialization round trip. `0` when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (bucket, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return bucket_high(*bucket).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact_and_large_values_bounded() {
        // Below SUB_COUNT every value is its own bucket.
        for v in 0..SUB_COUNT {
            assert_eq!(bucket_index(v), v as u32);
            assert_eq!(bucket_high(v as u32), v);
        }
        // Everywhere: v lands in a bucket whose upper bound is >= v and
        // within a sub-bucket width of v.
        for v in [
            32,
            33,
            63,
            64,
            65,
            100,
            1000,
            12_345,
            1 << 20,
            u64::MAX / 3,
            u64::MAX,
        ] {
            let b = bucket_index(v);
            let high = bucket_high(b);
            assert!(high >= v, "v={v} bucket={b} high={high}");
            // Relative error bound: width/high <= 2^-SUB_BITS.
            let width = 1u64 << ((b >> SUB_BITS).saturating_sub(1));
            assert!(high - v < width, "v={v} high={high} width={width}");
        }
    }

    #[test]
    fn records_track_count_sum_min_max() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), 0);
        h.record(10);
        h.record_n(100, 3);
        h.record(7);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 317);
        assert_eq!(h.min(), 7);
        assert_eq!(h.max(), 100);
        assert_eq!(h.mean(), 63.4);
        h.record_n(1, 0); // no-op
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn percentiles_are_monotone_and_clamped_to_observed_range() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let ps: Vec<u64> = [0.0, 0.5, 0.9, 0.99, 0.999, 1.0]
            .iter()
            .map(|&q| h.percentile(q))
            .collect();
        for w in ps.windows(2) {
            assert!(w[0] <= w[1], "{ps:?}");
        }
        assert!(h.percentile(0.0) >= h.min());
        assert_eq!(h.percentile(1.0), h.max());
        // p50 of 1..=1000 is within one sub-bucket of 500.
        let p50 = h.percentile(0.5);
        assert!((484..=516).contains(&p50), "p50={p50}");
    }

    #[test]
    fn merge_is_exact_and_order_invariant() {
        let mut parts = Vec::new();
        for seed in 0..4u64 {
            let mut h = Histogram::new();
            for i in 0..256u64 {
                // Deterministic pseudo-random spread across magnitudes.
                let v = (seed * 7919 + i * 104_729) % (1 << (8 + seed * 8));
                h.record(v);
            }
            parts.push(h);
        }
        let mut forward = Histogram::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut reverse = Histogram::new();
        for p in parts.iter().rev() {
            reverse.merge(p);
        }
        assert_eq!(forward, reverse);
        // Bit-identical serialization, not just structural equality.
        assert_eq!(
            stdx::json::to_string(&forward),
            stdx::json::to_string(&reverse)
        );
        let total: u64 = parts.iter().map(|p| p.count()).sum();
        assert_eq!(forward.count(), total);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut h = Histogram::new();
        for v in [0, 1, 31, 32, 1000, u64::MAX] {
            h.record(v);
        }
        let s = stdx::json::to_string(&h);
        let back: Histogram = stdx::json::from_str(&s).unwrap();
        assert_eq!(back, h);
        assert_eq!(stdx::json::to_string(&back), s);
    }
}
