//! Pipeline configuration.

use fingerprint::FingerprintScheme;
use gstream::SortConfig;

/// Tunables of one assembly run.
#[derive(Debug, Clone, Copy)]
pub struct AssemblyConfig {
    /// Minimum overlap length l_min; partitions below it are discarded.
    pub l_min: u32,
    /// Read length l_max (all reads must have this length; the l_max
    /// partition is dropped to avoid self-loops).
    pub l_max: u32,
    /// Reads fingerprinted per device batch in the map phase.
    pub map_batch_reads: usize,
    /// Kernel organization for fingerprinting (the paper's block-per-read
    /// vs the thread-per-read strawman).
    pub fingerprint_scheme: FingerprintScheme,
    /// Explicit sort block sizes; `None` derives them from the budgets
    /// (the paper's default of maximizing host memory use).
    pub sort: Option<SortConfig>,
    /// Fingerprint width in bits (128 = the paper's dual 64-bit hashes;
    /// smaller values emulate weaker fingerprints for the false-positive
    /// ablation).
    pub fingerprint_bits: u32,
    /// Number of fingerprint ranges each length partition is split into
    /// (1 = the paper's by-length partitioning; >1 enables the future-work
    /// by-fingerprint partitioning of the distributed reduce).
    pub range_split: u32,
}

impl AssemblyConfig {
    /// The paper's defaults for a dataset with minimum overlap `l_min` and
    /// read length `l_max`.
    pub fn for_dataset(l_min: u32, l_max: u32) -> Self {
        AssemblyConfig {
            l_min,
            l_max,
            map_batch_reads: 4096,
            fingerprint_scheme: FingerprintScheme::BlockPerRead,
            sort: None,
            fingerprint_bits: 128,
            range_split: 1,
        }
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> crate::Result<()> {
        if self.l_min == 0 || self.l_min >= self.l_max {
            return Err(crate::LasagnaError::BadConfig(format!(
                "l_min {} must be in [1, l_max {})",
                self.l_min, self.l_max
            )));
        }
        if self.map_batch_reads == 0 {
            return Err(crate::LasagnaError::BadConfig(
                "map batch must hold at least one read".into(),
            ));
        }
        if self.fingerprint_bits == 0 || self.fingerprint_bits > 128 {
            return Err(crate::LasagnaError::BadConfig(format!(
                "fingerprint width {} outside 1..=128",
                self.fingerprint_bits
            )));
        }
        if self.range_split == 0 {
            return Err(crate::LasagnaError::BadConfig(
                "range_split must be at least 1".into(),
            ));
        }
        Ok(())
    }

    /// Number of overlap-length partitions (`[l_min, l_max)`).
    pub fn partition_count(&self) -> u32 {
        self.l_max - self.l_min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let c = AssemblyConfig::for_dataset(63, 101);
        c.validate().unwrap();
        assert_eq!(c.partition_count(), 38);
        assert_eq!(c.fingerprint_bits, 128);
    }

    #[test]
    fn bad_overlap_ranges_are_rejected() {
        assert!(AssemblyConfig::for_dataset(0, 100).validate().is_err());
        assert!(AssemblyConfig::for_dataset(100, 100).validate().is_err());
        assert!(AssemblyConfig::for_dataset(101, 100).validate().is_err());
    }

    #[test]
    fn zero_batch_and_bad_fp_width_are_rejected() {
        let mut c = AssemblyConfig::for_dataset(63, 101);
        c.map_batch_reads = 0;
        assert!(c.validate().is_err());
        let mut c = AssemblyConfig::for_dataset(63, 101);
        c.fingerprint_bits = 0;
        assert!(c.validate().is_err());
        c.fingerprint_bits = 129;
        assert!(c.validate().is_err());
    }
}
