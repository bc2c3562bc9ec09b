//! Batched fingerprint generation on the virtual device.
//!
//! The map phase loads "batches of reads ... in the GPU" and fingerprints
//! them. The paper contrasts two kernel schemes (Section III-A):
//!
//! * **thread-per-read** — natural but slow on real GPUs: each thread walks
//!   one read sequentially, producing strided (uncoalesced) memory traffic
//!   and "excessive memory throttling";
//! * **block-per-read** — one block per read, threads = read length, prefix
//!   fingerprints by Hillis-Steele scan, suffixes derived in shared memory.
//!
//! Both schemes compute identical fingerprints here; they differ in the
//! *cost* charged to the device. Thread-per-read issues one 1-byte global
//! transaction per base per step with no coalescing — we charge its traffic
//! at the 32-byte transaction granularity real devices use, an 8× penalty
//! per logical byte. Block-per-read performs `log2(l)` coalesced passes via
//! shared memory. The `fingerprint` ablation bench shows the resulting gap.
//!
//! That log-step scan is the cost model's story. What the host executes is
//! [`RabinKarp`]'s work-efficient equivalent, one Horner pass per strand,
//! and `vgpu.wall_over_modeled` states how far the two are apart.

use crate::scan::{RabinKarp, TILE};
use crate::Fingerprint128;
use std::ops::Range;
use vgpu::exec::{par_parts, part_len, ELEMENT_GRAIN};
use vgpu::{Device, KernelCost};

/// Kernel organization for fingerprint generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintScheme {
    /// One thread walks each read (the strawman).
    ThreadPerRead,
    /// One block of `read_len` threads per read (the paper's kernel).
    BlockPerRead,
}

/// Fingerprints of one batch, length-major: one row per length
/// `1..=read_len` and side, one column per read in batch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutput {
    read_len: usize,
    reads: usize,
    /// The prefix rows, then the suffix rows. One allocation: the
    /// allocator hands a freed block of this size straight back to the
    /// next batch, where two halves would each be mapped afresh.
    rows: Vec<Fingerprint128>,
}

impl BatchOutput {
    /// Length of every read of the batch.
    pub fn read_len(&self) -> usize {
        self.read_len
    }

    /// The `len`-length prefix fingerprint of every read.
    pub fn prefix_row(&self, len: usize) -> &[Fingerprint128] {
        self.row(len - 1)
    }

    /// The `len`-length suffix fingerprint of every read.
    pub fn suffix_row(&self, len: usize) -> &[Fingerprint128] {
        self.row(self.read_len + len - 1)
    }

    fn row(&self, row: usize) -> &[Fingerprint128] {
        &self.rows[row * self.reads..][..self.reads]
    }
}

/// Uncoalesced global-memory transaction size on real devices.
const TRANSACTION_BYTES: u64 = 32;

fn scheme_cost(scheme: FingerprintScheme, reads: usize, read_len: usize) -> KernelCost {
    let n = reads as u64;
    let l = read_len.max(1) as u64;
    let steps = (read_len.max(2) as f64).log2().ceil() as u64;
    match scheme {
        FingerprintScheme::ThreadPerRead => KernelCost {
            // Sequential Horner per thread. Every base load and every
            // fingerprint store is strided across threads, so each logical
            // access burns a full 32-byte transaction: one per base read
            // and four per position for the two 16-byte fingerprint halves.
            flops: n * l * 8,
            bytes: n * l * TRANSACTION_BYTES + n * l * 4 * TRANSACTION_BYTES,
        },
        FingerprintScheme::BlockPerRead => KernelCost {
            // One coalesced load of the encoded read, log2(l) scan steps
            // entirely in *shared memory* (no global traffic), and one
            // coalesced 32-byte fingerprint store per position.
            flops: n * l * steps * 4,
            bytes: n * l + n * l * 32,
        },
    }
}

/// Fingerprint a batch of same-length reads on `device`.
///
/// `batch` holds the 2-bit codes of each read. The math is identical for
/// both schemes; only the modeled device time differs.
pub fn batch_fingerprints(
    device: &Device,
    rk: &RabinKarp,
    batch: &[Vec<u8>],
    scheme: FingerprintScheme,
) -> BatchOutput {
    let read_len = batch.first().map_or(0, |r| r.len());
    charge_fingerprint_kernel(device, scheme, batch.len(), read_len);
    let mut out = BatchOutput {
        read_len,
        reads: batch.len(),
        rows: vec![0; 2 * read_len * batch.len()],
    };
    let (prefix, suffix) = out.rows.split_at_mut(read_len * batch.len());
    fingerprint_rows_into(rk, batch, 0, 1..read_len + 1, prefix, suffix, |fp, _| fp);
    out
}

/// Charge `device` one launch of the fingerprint kernel over a batch of
/// `reads` reads of `read_len` bases: the whole kernel, all prefixes and
/// suffixes of every read, whatever the host later computes of it and in
/// however many slices.
pub fn charge_fingerprint_kernel(
    device: &Device,
    scheme: FingerprintScheme,
    reads: usize,
    read_len: usize,
) {
    device.charge_kernel(
        match scheme {
            FingerprintScheme::ThreadPerRead => "fingerprint_thread_per_read",
            FingerprintScheme::BlockPerRead => "fingerprint_block_per_read",
        },
        scheme_cost(scheme, reads, read_len),
    );
}

/// The fused map kernel's host side, with no device: fingerprint a slice
/// of same-length reads and keep the lengths in `lens`, length-major.
/// `prefix` and `suffix` hold `lens.len()` rows of `reads.len()` tuples;
/// row `k`, column `b` receives `make(fingerprint, first_col + b)` for
/// read `b`'s prefix or suffix of length `lens.start + k`. `first_col` is
/// where the slice starts in its batch, so a batch computed slice by
/// slice hands `make` the columns it would have handed it whole.
///
/// The device is charged by [`charge_fingerprint_kernel`], once a batch.
pub fn fingerprint_rows_into<T: Send>(
    rk: &RabinKarp,
    reads: &[Vec<u8>],
    first_col: usize,
    lens: Range<usize>,
    prefix: &mut [T],
    suffix: &mut [T],
    make: impl Fn(Fingerprint128, usize) -> T + Sync,
) {
    let read_len = reads.first().map_or(0, |r| r.len());
    assert!(
        reads.iter().all(|r| r.len() == read_len),
        "reads of one batch share a length"
    );
    assert!(
        lens.is_empty() || (lens.start >= 1 && lens.end <= read_len + 1),
        "lengths {lens:?} outside 1..={read_len}"
    );
    assert!(
        prefix.len() == lens.len() * reads.len() && suffix.len() == prefix.len(),
        "one row of reads.len() tuples per kept length and side"
    );
    if reads.is_empty() || lens.is_empty() {
        return;
    }
    // Each part owns a range of columns (reads) in every row; whole tiles,
    // so that a part boundary splits no tile. The grain counts bases: one
    // costs about what a search or a copy per element does.
    let step = part_len(reads.len() * read_len, ELEMENT_GRAIN)
        .div_ceil(read_len)
        .next_multiple_of(TILE);
    let mut parts: Vec<_> = reads
        .chunks(step)
        .map(|reads| (reads, Vec::new(), Vec::new()))
        .collect();
    for (prefix_row, suffix_row) in prefix
        .chunks_mut(reads.len())
        .zip(suffix.chunks_mut(reads.len()))
    {
        let columns = prefix_row.chunks_mut(step).zip(suffix_row.chunks_mut(step));
        for ((_, prefix_rows, suffix_rows), (p, s)) in parts.iter_mut().zip(columns) {
            prefix_rows.push(p);
            suffix_rows.push(s);
        }
    }
    let first_cols = (first_col..).step_by(step);
    par_parts(
        parts.into_iter().zip(first_cols),
        |((reads, mut prefix_rows, mut suffix_rows), first_col)| {
            rk.scan_tile_rows(
                reads,
                first_col,
                lens.clone(),
                &mut prefix_rows,
                &mut suffix_rows,
                &make,
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgpu::GpuProfile;

    fn batch() -> Vec<Vec<u8>> {
        vec![
            vec![0, 1, 2, 3, 0, 1, 2, 3],
            vec![3, 3, 3, 3, 3, 3, 3, 3],
            vec![0, 0, 0, 0, 1, 1, 1, 1],
        ]
    }

    #[test]
    fn both_schemes_compute_identical_fingerprints() {
        let dev = Device::new(GpuProfile::k40());
        let rk = RabinKarp::new(8);
        let a = batch_fingerprints(&dev, &rk, &batch(), FingerprintScheme::ThreadPerRead);
        let b = batch_fingerprints(&dev, &rk, &batch(), FingerprintScheme::BlockPerRead);
        assert_eq!(a, b);
        assert_eq!(a.read_len(), 8);
        assert_eq!(a.prefix_row(8).len(), 3);
    }

    #[test]
    fn batch_matches_single_read_api() {
        let dev = Device::new(GpuProfile::k40());
        let rk = RabinKarp::new(8);
        let out = batch_fingerprints(&dev, &rk, &batch(), FingerprintScheme::BlockPerRead);
        for (i, codes) in batch().iter().enumerate() {
            for len in 1..=8 {
                assert_eq!(out.prefix_row(len)[i], rk.fingerprint(&codes[..len]));
                assert_eq!(out.suffix_row(len)[i], rk.fingerprint(&codes[8 - len..]));
            }
        }
    }

    #[test]
    fn kept_lengths_land_in_their_rows_across_part_boundaries() {
        // Enough bases that the slice is cut into parallel parts, and a
        // read count that leaves the last tile short.
        let mut rng = stdx::SplitMix64::new(3);
        let reads: Vec<Vec<u8>> = (0..301)
            .map(|_| (0..20).map(|_| (rng.next_u64() >> 62) as u8).collect())
            .collect();
        let rk = RabinKarp::new(20);
        let lens = 12..20;
        let first_col = 1000;
        let mut prefix = vec![(0, 0); lens.len() * reads.len()];
        let mut suffix = prefix.clone();
        fingerprint_rows_into(
            &rk,
            &reads,
            first_col,
            lens.clone(),
            &mut prefix,
            &mut suffix,
            |fp, col| (fp, col),
        );
        for (k, len) in lens.enumerate() {
            for (b, codes) in reads.iter().enumerate() {
                let at = k * reads.len() + b;
                assert_eq!(prefix[at], (rk.fingerprint(&codes[..len]), first_col + b));
                assert_eq!(
                    suffix[at],
                    (rk.fingerprint(&codes[20 - len..]), first_col + b)
                );
            }
        }
    }

    #[test]
    fn the_charge_depends_on_the_batch_alone() {
        let rk = RabinKarp::new(8);
        let whole = Device::new(GpuProfile::k40());
        batch_fingerprints(&whole, &rk, &batch(), FingerprintScheme::BlockPerRead);
        let charged = Device::new(GpuProfile::k40());
        charge_fingerprint_kernel(&charged, FingerprintScheme::BlockPerRead, 3, 8);
        assert_eq!(charged.stats().kernel_launches, 1);
        assert_eq!(charged.stats().per_kernel, whole.stats().per_kernel);
        assert_eq!(charged.stats().kernel_seconds, whole.stats().kernel_seconds);
    }

    #[test]
    #[should_panic(expected = "reads of one batch share a length")]
    fn mixed_read_lengths_are_refused() {
        let dev = Device::new(GpuProfile::k40());
        let reads = vec![vec![0; 8], vec![0; 7]];
        batch_fingerprints(
            &dev,
            &RabinKarp::new(8),
            &reads,
            FingerprintScheme::BlockPerRead,
        );
    }

    #[test]
    fn thread_per_read_charges_more_device_time() {
        let reads: Vec<Vec<u8>> = (0..64).map(|i| vec![(i % 4) as u8; 100]).collect();
        let rk = RabinKarp::new(100);

        let dev_naive = Device::new(GpuProfile::k40());
        batch_fingerprints(&dev_naive, &rk, &reads, FingerprintScheme::ThreadPerRead);
        let dev_block = Device::new(GpuProfile::k40());
        batch_fingerprints(&dev_block, &rk, &reads, FingerprintScheme::BlockPerRead);

        let naive_s = dev_naive.stats().kernel_seconds;
        let block_s = dev_block.stats().kernel_seconds;
        assert!(
            naive_s > block_s,
            "memory-throttled scheme must be slower: {naive_s} vs {block_s}"
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let dev = Device::new(GpuProfile::k40());
        let rk = RabinKarp::new(8);
        let out = batch_fingerprints(&dev, &rk, &[], FingerprintScheme::BlockPerRead);
        assert_eq!(out.read_len(), 0);
        assert_eq!(dev.stats().kernel_launches, 1);
    }
}
