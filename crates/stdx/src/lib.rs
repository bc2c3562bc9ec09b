//! # stdx — what the workspace needs beyond `std`, and nothing else
//!
//! The workspace has no third-party dependencies. The things std lacks
//! and more than one crate or test needs live here, each exactly once:
//!
//! * [`bytes`] — the one bounded byte reader, [`bytes::Cursor`], and its
//!   little-endian writers: every binary format (wire frames, contig
//!   stores, indexes, graph images, staged reads, file trailers) decodes
//!   through it into a [`bytes::Corrupt`] naming source, field and offset;
//! * [`json`] — an ordered [`json::Value`], a depth-capped parser with
//!   typed errors, compact and pretty writers, and [`json::ToJson`] /
//!   [`json::FromJson`] with [`impl_json!`] for plain structs and unit
//!   enums;
//! * [`Ledger`] — a capacity-bounded byte budget with a peak, whose
//!   [`Reservation`]s give their bytes back on drop: the host budget
//!   (`gstream::HostMem`) and the virtual device's memory both keep their
//!   books with it;
//! * [`TempDir`] — a unique directory under `std::env::temp_dir()`,
//!   removed on drop;
//! * [`splitmix64`] / [`SplitMix64`] — the repo's one deterministic PRNG
//!   (index files, PCT seeds, failpoint draws and simulated reads all
//!   come from it), and [`check_cases`], the seeded loop behind the
//!   randomized tests;
//! * [`CountingAlloc`] — the system allocator counting allocations, live
//!   bytes and their peak, for test binaries that pin memory (installed as
//!   the global allocator by no production binary).
//!
//! [`lock`] is the workspace's non-poisoning mutex acquire.

mod alloc;
pub mod bytes;
pub mod json;
mod ledger;
mod rng;
mod tempdir;

pub use alloc::CountingAlloc;
pub use ledger::{Ledger, OverBudget, Reservation};
pub use rng::{check_cases, splitmix64, SplitMix64};
pub use tempdir::{tempdir, TempDir};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a holder panicked. Failpoint
/// tests panic on purpose while holding locks whose data every update
/// leaves valid (counters, registries, queues), so poisoning carries no
/// information here.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
