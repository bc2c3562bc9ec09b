//! Live windowed roll-ups: a [`Sink`] that folds the event stream into
//! aggregates as it happens, so a running server can answer "what is
//! p99 right now?" without stopping to roll up a trace.
//!
//! A [`LiveRollup`] keeps two things:
//!
//! * **totals** — one [`SpanAgg`] accumulating every counter, metric,
//!   gauge, and histogram since the recorder started, keyed by name
//!   (span identity is erased, matching [`crate::Rollup::totals`]);
//! * a **ring of fixed-duration windows**, each its own [`SpanAgg`],
//!   so recent activity (the last N seconds) can be summarized
//!   separately from the whole run — the basis for drain-rate and
//!   "recent p99" style views.
//!
//! Cloning a `LiveRollup` shares the underlying state, so the same
//! instance can be handed to `Recorder::add_sink` *and* queried from a
//! serving thread.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::event::Event;
use crate::rollup::SpanAgg;
use crate::sink::Sink;

/// A live windowed aggregator; see the module docs.
#[derive(Clone)]
pub struct LiveRollup {
    inner: Arc<Mutex<LiveInner>>,
}

struct LiveInner {
    epoch: Instant,
    window: Duration,
    capacity: usize,
    totals: SpanAgg,
    /// `(window_index, aggregate)`, oldest first. Indices are
    /// `elapsed / window`; silent windows are simply absent.
    windows: VecDeque<(u64, SpanAgg)>,
}

impl LiveRollup {
    /// A roll-up with `capacity` windows of `window` each. With e.g.
    /// 1 s windows and capacity 60, [`LiveRollup::recent`] can cover up
    /// to the last minute.
    pub fn new(window: Duration, capacity: usize) -> LiveRollup {
        LiveRollup {
            inner: Arc::new(Mutex::new(LiveInner {
                epoch: Instant::now(),
                window: window.max(Duration::from_millis(1)),
                capacity: capacity.max(1),
                totals: SpanAgg::default(),
                windows: VecDeque::new(),
            })),
        }
    }

    /// Everything observed since creation, folded by name.
    pub fn totals(&self) -> SpanAgg {
        self.lock().totals.clone()
    }

    /// The newest `n` windows (including the one currently filling)
    /// folded into one aggregate. `recent(1)` is "this window so far".
    pub fn recent(&self, n: usize) -> SpanAgg {
        let st = self.lock();
        let mut agg = SpanAgg::default();
        for (_, win) in st.windows.iter().rev().take(n.max(1)) {
            agg.absorb(win);
        }
        agg
    }

    /// Number of (non-silent) windows currently retained.
    pub fn window_count(&self) -> usize {
        self.lock().windows.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LiveInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn observe(&self, event: &Event) {
        let mut st = self.lock();
        let idx = (st.epoch.elapsed().as_nanos() / st.window.as_nanos().max(1)) as u64;
        let fresh = match st.windows.back() {
            Some((i, _)) => *i < idx,
            None => true,
        };
        if fresh {
            st.windows.push_back((idx, SpanAgg::default()));
            while st.windows.len() > st.capacity {
                st.windows.pop_front();
            }
        }
        match event {
            Event::Counter { name, value, .. } => {
                *st.totals.counters.entry(name.clone()).or_insert(0) += value;
                let (_, win) = st.windows.back_mut().unwrap();
                *win.counters.entry(name.clone()).or_insert(0) += value;
            }
            Event::Metric { name, value, .. } => {
                *st.totals.metrics.entry(name.clone()).or_insert(0.0) += value;
                let (_, win) = st.windows.back_mut().unwrap();
                *win.metrics.entry(name.clone()).or_insert(0.0) += value;
            }
            Event::Gauge { name, value, .. } => {
                let slot = st.totals.gauges.entry(name.clone()).or_insert(0);
                *slot = (*slot).max(*value);
                let (_, win) = st.windows.back_mut().unwrap();
                let slot = win.gauges.entry(name.clone()).or_insert(0);
                *slot = (*slot).max(*value);
            }
            Event::Histogram { name, hist, .. } => {
                st.totals.hists.entry(name.clone()).or_default().merge(hist);
                let (_, win) = st.windows.back_mut().unwrap();
                win.hists.entry(name.clone()).or_default().merge(hist);
            }
            // The live view aggregates by name only; span structure
            // stays the post-hoc Rollup's job, and schedule grants are
            // narrative rather than measurement.
            Event::SpanStart { .. } | Event::SpanEnd { .. } | Event::Sched { .. } => {}
        }
    }
}

impl Sink for LiveRollup {
    fn record(&mut self, event: &Event) {
        self.observe(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::recorder::Recorder;

    #[test]
    fn live_totals_match_the_post_hoc_rollup() {
        let rec = Recorder::new();
        let live = LiveRollup::new(Duration::from_secs(1), 8);
        rec.add_sink(Box::new(live.clone()));
        {
            let phase = rec.span("phase");
            rec.counter_on(phase.id(), "n", 3);
            rec.metric_on(phase.id(), "secs", 0.5);
            rec.gauge_on(phase.id(), "peak", 10);
            rec.gauge_on(phase.id(), "peak", 4);
            let mut h = Histogram::new();
            h.record_n(250, 7);
            rec.histogram_on(phase.id(), "lat", h);
        }
        let post = crate::rollup::Rollup::from_events(&rec.events()).totals();
        assert_eq!(live.totals(), post);
        assert_eq!(live.totals().hist("lat").count(), 7);
    }

    #[test]
    fn windows_roll_and_recent_covers_the_tail() {
        // 1 ms windows so the test rolls without long sleeps.
        let live = LiveRollup::new(Duration::from_millis(1), 2);
        let mut sink: Box<dyn Sink> = Box::new(live.clone());
        let tick = |sink: &mut Box<dyn Sink>| {
            sink.record(&Event::Counter {
                span: 0,
                name: "n".into(),
                value: 1,
            });
        };
        tick(&mut sink);
        std::thread::sleep(Duration::from_millis(3));
        tick(&mut sink);
        std::thread::sleep(Duration::from_millis(3));
        tick(&mut sink);
        // Capacity 2: the oldest window fell off the ring, totals keep all.
        assert!(live.window_count() <= 2);
        assert_eq!(live.totals().counter("n"), 3);
        assert_eq!(live.recent(1).counter("n"), 1);
        assert!(live.recent(2).counter("n") <= 2);
    }
}
