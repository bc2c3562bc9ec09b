//! # bench — reproduction harness
//!
//! Everything needed to regenerate the paper's tables and figures at a
//! laptop scale:
//!
//! * [`mod@env`] — the two testbeds (QueenBee II: 128 GB + K40; SuperMic:
//!   64 GB + K20X) with budgets divided by the scale factor, preserving
//!   every size *ratio* of the original evaluation;
//! * [`paper`] — the numbers printed in the paper, embedded for
//!   side-by-side comparison columns;
//! * [`experiments`] — one runner per table/figure, each returning a
//!   serializable result that the `repro` binary prints and archives.

pub mod env;
pub mod experiments;
pub mod paper;
pub mod validate;

/// What a runner returns: its rows, or the first error that stopped it.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Default scale factor: the paper's sizes divided by 20,000 put the
/// largest dataset (H.Genome) at ~62 k reads and the 128 GB host budget at
/// ~6.4 MiB, small enough for CI yet still forcing multi-run external
/// sorts, dozens of partitions, and the 64-vs-128 GB pass-count difference
/// the paper highlights.
pub const DEFAULT_SCALE: u64 = 20_000;
