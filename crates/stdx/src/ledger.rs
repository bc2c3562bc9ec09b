//! A capacity-bounded byte ledger with a peak.
//!
//! The paper's model has two memory levels, host blocks of `m_h` bounded
//! by the machine's RAM and device chunks of `m_d` bounded by the GPU's,
//! and Tables IV/V report a peak for each. Both levels keep their books
//! with a [`Ledger`]: a reservation beyond the capacity fails with
//! [`OverBudget`], a [`Reservation`] gives its bytes back when dropped,
//! and the peak of bytes held feeds the per-phase tables. The ledger
//! holds no memory itself; it only counts what its owner says it holds.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A reservation that would take a ledger past its capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverBudget {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes already reserved.
    pub in_use: u64,
    /// Capacity in bytes.
    pub capacity: u64,
}

impl fmt::Display for OverBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exceeded: requested {} B with {} B in use of {} B",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OverBudget {}

/// A shared budget of bytes. Clones share the same accounting.
#[derive(Debug, Clone)]
pub struct Ledger {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    capacity: u64,
    used: AtomicU64,
    peak: AtomicU64,
}

impl Ledger {
    /// A budget of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Ledger {
            inner: Arc::new(Inner {
                capacity,
                used: AtomicU64::new(0),
                peak: AtomicU64::new(0),
            }),
        }
    }

    /// The configured budget.
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    /// Bytes currently reserved.
    pub fn used(&self) -> u64 {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// High-watermark of reserved bytes.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Rebase the peak to the current usage (between pipeline phases).
    pub fn reset_peak(&self) {
        self.inner.peak.store(self.used(), Ordering::Relaxed);
    }

    /// Reserve `bytes`, or fail with what was asked for and what was held;
    /// a failed reservation holds nothing.
    pub fn reserve(&self, bytes: u64) -> Result<Reservation, OverBudget> {
        let mut current = self.inner.used.load(Ordering::Relaxed);
        loop {
            let next = current + bytes;
            if next > self.inner.capacity {
                return Err(OverBudget {
                    requested: bytes,
                    in_use: current,
                    capacity: self.inner.capacity,
                });
            }
            match self.inner.used.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.peak.fetch_max(next, Ordering::Relaxed);
                    return Ok(Reservation {
                        bytes,
                        owner: Arc::clone(&self.inner),
                    });
                }
                Err(actual) => current = actual,
            }
        }
    }
}

/// Bytes held against a [`Ledger`], released when dropped.
#[derive(Debug)]
pub struct Reservation {
    bytes: u64,
    owner: Arc<Inner>,
}

impl Reservation {
    /// Size of this reservation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.owner.used.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_track_usage() {
        let mem = Ledger::new(100);
        let a = mem.reserve(60).unwrap();
        assert_eq!((a.bytes(), mem.used()), (60, 60));
        drop(a);
        assert_eq!(mem.used(), 0);
        assert_eq!(mem.peak(), 60);
    }

    #[test]
    fn over_budget_reservation_fails_with_context() {
        let mem = Ledger::new(100);
        let _a = mem.reserve(80).unwrap();
        let err = mem.reserve(30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.in_use, 80);
        assert_eq!(err.capacity, 100);
        // The failed reservation took nothing.
        assert_eq!((mem.used(), mem.peak()), (80, 80));
    }

    #[test]
    fn a_zero_byte_reservation_fits_a_full_budget() {
        let mem = Ledger::new(100);
        let _full = mem.reserve(100).unwrap();
        assert_eq!(mem.reserve(0).unwrap().bytes(), 0);
        assert!(mem.reserve(1).is_err());
    }

    #[test]
    fn peak_tracks_concurrent_high_water() {
        let mem = Ledger::new(1000);
        let a = mem.reserve(400).unwrap();
        let b = mem.reserve(500).unwrap();
        drop(a);
        drop(b);
        assert_eq!(mem.peak(), 900);
        mem.reset_peak();
        assert_eq!(mem.peak(), 0);
    }

    #[test]
    fn reset_peak_rebases_to_the_bytes_still_held() {
        let mem = Ledger::new(1000);
        let held = mem.reserve(100).unwrap();
        drop(mem.reserve(700).unwrap());
        assert_eq!(mem.peak(), 800);
        mem.reset_peak();
        assert_eq!(mem.peak(), 100);
        drop(held);
        assert_eq!((mem.used(), mem.peak()), (0, 100));
    }

    #[test]
    fn clones_share_budget() {
        let mem = Ledger::new(10);
        let clone = mem.clone();
        let _a = clone.reserve(10).unwrap();
        assert!(mem.reserve(1).is_err());
    }

    #[test]
    fn concurrent_allocations_respect_capacity() {
        let mem = Ledger::new(10_000);
        let failures = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let mem = mem.clone();
                let failures = &failures;
                s.spawn(move || {
                    for _ in 0..50 {
                        match mem.reserve(400) {
                            Ok(held) => {
                                assert!(mem.used() <= 10_000);
                                drop(held);
                            }
                            Err(_) => {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        // All reservations dropped: accounting returns to zero regardless
        // of how the threads interleaved.
        assert_eq!(mem.used(), 0);
        assert!(mem.peak() <= 10_000);
    }
}
