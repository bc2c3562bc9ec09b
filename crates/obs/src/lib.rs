//! # obs — structured observability for the LaSAGNA reproduction
//!
//! A lightweight structured-event layer:
//!
//! * hierarchical **spans** (`assembly > phase > partition > chunk`)
//!   carrying wall-clock time, recorded by a [`Recorder`];
//! * named **counters** (monotonic `u64` increments), **metrics**
//!   (additive `f64` quantities such as modeled seconds), **gauges**
//!   (`u64` high-water marks such as peak bytes) and **histograms**
//!   ([`Histogram`]: log-bucketed distributions that merge exactly),
//!   each attached to a span;
//! * pluggable **sinks** ([`JsonlSink`], [`MemorySink`], [`ProgressSink`],
//!   and the windowed [`LiveRollup`]) that observe every event as it is
//!   emitted;
//! * a [`Rollup`] that rebuilds the span tree from an event stream and
//!   aggregates counters/metrics/gauges/histograms over subtrees, so
//!   reports derived from a trace can never disagree with the trace
//!   itself.
//!
//! ```
//! use obs::{MemorySink, Recorder, Rollup};
//!
//! let rec = Recorder::new();
//! let handle = rec.add_memory_sink();
//! {
//!     let phase = rec.span("sort");
//!     rec.counter("sort.pairs", 128);
//!     rec.metric_on(phase.id(), "io.read_seconds", 0.5);
//! }
//! let rollup = Rollup::from_events(&rec.events());
//! let root = rollup.roots()[0];
//! assert_eq!(rollup.subtree(root.id).counter("sort.pairs"), 128);
//! assert_eq!(handle.events().len(), 4); // start, counter, metric, end
//! ```

mod event;
mod histogram;
mod live;
mod recorder;
mod rollup;
mod sink;

pub use event::Event;
pub use histogram::Histogram;
pub use live::LiveRollup;
pub use recorder::{Recorder, SpanGuard};
pub use rollup::{Rollup, SpanAgg, SpanNode};
pub use sink::{JsonlSink, MemoryHandle, MemorySink, ProgressSink, Sink};

/// Format a byte count with binary units (`1.5 GiB`), exact below 1 KiB.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 6] = ["KiB", "MiB", "GiB", "TiB", "PiB", "EiB"];
    if bytes < 1024 {
        return format!("{bytes} B");
    }
    let mut value = bytes as f64 / 1024.0;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if value >= 100.0 {
        format!("{value:.0} {}", UNITS[unit])
    } else if value >= 10.0 {
        format!("{value:.1} {}", UNITS[unit])
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::human_bytes;

    #[test]
    fn human_bytes_exact_below_one_kib() {
        assert_eq!(human_bytes(0), "0 B");
        assert_eq!(human_bytes(1023), "1023 B");
    }

    #[test]
    fn human_bytes_scales_units() {
        assert_eq!(human_bytes(1024), "1.00 KiB");
        assert_eq!(human_bytes(1536), "1.50 KiB");
        assert_eq!(human_bytes(10 * 1024 * 1024), "10.0 MiB");
        assert_eq!(human_bytes(10_737_418_240), "10.0 GiB");
        assert_eq!(human_bytes(250 * 1024 * 1024 * 1024), "250 GiB");
    }
}
