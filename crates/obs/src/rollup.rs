use std::collections::BTreeMap;

use crate::event::Event;
use crate::histogram::Histogram;

/// Aggregated counters/metrics/gauges/histograms for one span (or a
/// subtree).
///
/// Counters and metrics are additive; gauges keep the maximum;
/// histograms merge exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanAgg {
    pub counters: BTreeMap<String, u64>,
    pub metrics: BTreeMap<String, f64>,
    pub gauges: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, Histogram>,
}

impl SpanAgg {
    /// Counter value, `0` when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Metric value, `0.0` when absent.
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Gauge value, `0` when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Merged histogram for `name`, empty when absent.
    pub fn hist(&self, name: &str) -> Histogram {
        self.hists.get(name).cloned().unwrap_or_default()
    }

    /// Fold another aggregate in: sum counters/metrics, max gauges,
    /// merge histograms.
    pub fn absorb(&mut self, other: &SpanAgg) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.metrics {
            *self.metrics.entry(name.clone()).or_insert(0.0) += value;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*value);
        }
        for (name, hist) in &other.hists {
            self.hists.entry(name.clone()).or_default().merge(hist);
        }
    }
}

/// One span rebuilt from a trace.
#[derive(Debug, Clone)]
pub struct SpanNode {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    /// Seconds since the recorder start when the span opened.
    pub start_s: f64,
    /// Wall-clock seconds; `0.0` if the trace ended before the span closed.
    pub wall_seconds: f64,
    /// Measurements attached directly to this span (children excluded).
    pub own: SpanAgg,
    /// Child span ids, in open order.
    pub children: Vec<u64>,
}

/// The span tree plus aggregates, rebuilt from an event stream.
///
/// This is the single source of truth for reporting: anything derived
/// from a `Rollup` of the trace agrees with the trace by construction.
#[derive(Debug, Clone, Default)]
pub struct Rollup {
    nodes: BTreeMap<u64, SpanNode>,
    order: Vec<u64>,
    unattached: SpanAgg,
}

impl Rollup {
    /// Rebuild the span tree from events (in emit order).
    ///
    /// Measurements naming an unknown span (including span `0`) land in
    /// [`Rollup::unattached`] instead of being dropped.
    pub fn from_events(events: &[Event]) -> Self {
        let mut rollup = Rollup::default();
        for event in events {
            match event {
                Event::SpanStart {
                    id,
                    parent,
                    name,
                    start_s,
                } => {
                    rollup.nodes.insert(
                        *id,
                        SpanNode {
                            id: *id,
                            parent: *parent,
                            name: name.clone(),
                            start_s: *start_s,
                            wall_seconds: 0.0,
                            own: SpanAgg::default(),
                            children: Vec::new(),
                        },
                    );
                    rollup.order.push(*id);
                    if let Some(parent) = parent {
                        if let Some(node) = rollup.nodes.get_mut(parent) {
                            node.children.push(*id);
                        }
                    }
                }
                Event::SpanEnd { id, wall_seconds } => {
                    if let Some(node) = rollup.nodes.get_mut(id) {
                        node.wall_seconds = *wall_seconds;
                    }
                }
                Event::Counter { span, name, value } => match rollup.nodes.get_mut(span) {
                    Some(node) => {
                        *node.own.counters.entry(name.clone()).or_insert(0) += value;
                    }
                    None => {
                        *rollup.unattached.counters.entry(name.clone()).or_insert(0) += value;
                    }
                },
                Event::Metric { span, name, value } => match rollup.nodes.get_mut(span) {
                    Some(node) => {
                        *node.own.metrics.entry(name.clone()).or_insert(0.0) += value;
                    }
                    None => {
                        *rollup.unattached.metrics.entry(name.clone()).or_insert(0.0) += value;
                    }
                },
                Event::Gauge { span, name, value } => {
                    let agg = match rollup.nodes.get_mut(span) {
                        Some(node) => &mut node.own,
                        None => &mut rollup.unattached,
                    };
                    let slot = agg.gauges.entry(name.clone()).or_insert(0);
                    *slot = (*slot).max(*value);
                }
                Event::Histogram { span, name, hist } => {
                    let agg = match rollup.nodes.get_mut(span) {
                        Some(node) => &mut node.own,
                        None => &mut rollup.unattached,
                    };
                    agg.hists.entry(name.clone()).or_default().merge(hist);
                }
                // Schedule grants are narrative, not measurement.
                Event::Sched { .. } => {}
            }
        }
        rollup
    }

    /// Parse a JSONL trace (one event per line, blank lines ignored).
    pub fn from_jsonl(text: &str) -> Result<Self, stdx::json::Error> {
        let mut events = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            events.push(stdx::json::from_str::<Event>(line)?);
        }
        Ok(Rollup::from_events(&events))
    }

    /// All spans without a recorded parent, in open order.
    pub fn roots(&self) -> Vec<&SpanNode> {
        self.order
            .iter()
            .filter_map(|id| self.nodes.get(id))
            .filter(|node| node.parent.is_none())
            .collect()
    }

    /// The most recently opened root span with this name, if any.
    pub fn root_named(&self, name: &str) -> Option<&SpanNode> {
        self.roots().into_iter().rfind(|n| n.name == name)
    }

    /// Look up a span by id.
    pub fn node(&self, id: u64) -> Option<&SpanNode> {
        self.nodes.get(&id)
    }

    /// A span's direct children, in open order.
    pub fn children(&self, id: u64) -> Vec<&SpanNode> {
        match self.nodes.get(&id) {
            Some(node) => node
                .children
                .iter()
                .filter_map(|child| self.nodes.get(child))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The first direct child with this name, if any.
    pub fn child_named(&self, id: u64, name: &str) -> Option<&SpanNode> {
        self.children(id).into_iter().find(|n| n.name == name)
    }

    /// Aggregate a span's own measurements plus its whole subtree.
    pub fn subtree(&self, id: u64) -> SpanAgg {
        let mut agg = SpanAgg::default();
        let mut stack = vec![id];
        while let Some(current) = stack.pop() {
            if let Some(node) = self.nodes.get(&current) {
                agg.absorb(&node.own);
                stack.extend(node.children.iter().copied());
            }
        }
        agg
    }

    /// Everything in the trace folded into one aggregate: every span's
    /// own measurements plus the unattached bucket. Span identity is
    /// erased, which is exactly what whole-run summaries (live `Stats`
    /// snapshots, percentile tables) want.
    pub fn totals(&self) -> SpanAgg {
        let mut agg = self.unattached.clone();
        for node in self.nodes.values() {
            agg.absorb(&node.own);
        }
        agg
    }

    /// Measurements that named a span the trace never opened (or span 0).
    pub fn unattached(&self) -> &SpanAgg {
        &self.unattached
    }

    /// Total number of spans in the trace.
    pub fn span_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn subtree_sums_counters_and_metrics_and_maxes_gauges() {
        let rec = Recorder::new();
        {
            let phase = rec.span("phase");
            rec.counter_on(phase.id(), "n", 1);
            rec.gauge_on(phase.id(), "peak", 10);
            {
                let part = rec.span("part");
                rec.counter_on(part.id(), "n", 2);
                rec.metric_on(part.id(), "secs", 0.5);
                rec.gauge_on(part.id(), "peak", 25);
            }
            {
                let part = rec.span("part2");
                rec.counter_on(part.id(), "n", 4);
                rec.metric_on(part.id(), "secs", 0.25);
                rec.gauge_on(part.id(), "peak", 7);
            }
        }
        let rollup = Rollup::from_events(&rec.events());
        let root = rollup.root_named("phase").unwrap();
        let agg = rollup.subtree(root.id);
        assert_eq!(agg.counter("n"), 7);
        assert_eq!(agg.metric("secs"), 0.75);
        assert_eq!(agg.gauge("peak"), 25);
        // Own measurements exclude children.
        assert_eq!(root.own.counter("n"), 1);
    }

    #[test]
    fn histograms_merge_across_spans_and_totals_cover_everything() {
        let rec = Recorder::new();
        {
            let phase = rec.span("phase");
            let mut h = Histogram::new();
            h.record_n(100, 10);
            rec.histogram_on(phase.id(), "lat", h);
            {
                let part = rec.span("part");
                let mut h = Histogram::new();
                h.record_n(200, 5);
                rec.histogram_on(part.id(), "lat", h);
            }
        }
        // An orphan histogram lands in the unattached bucket.
        let mut events = rec.events();
        let mut orphan = Histogram::new();
        orphan.record(7);
        events.push(Event::Histogram {
            span: 9999,
            name: "lat".into(),
            hist: orphan,
        });
        let rollup = Rollup::from_events(&events);
        let root = rollup.root_named("phase").unwrap();
        assert_eq!(root.own.hist("lat").count(), 10);
        assert_eq!(rollup.subtree(root.id).hist("lat").count(), 15);
        assert_eq!(rollup.unattached().hist("lat").count(), 1);
        let totals = rollup.totals().hist("lat");
        assert_eq!(totals.count(), 16);
        assert_eq!(totals.min(), 7);
        assert_eq!(totals.max(), 200);
        assert_eq!(rollup.totals().hist("absent"), Histogram::new());
    }

    #[test]
    fn unattached_measurements_are_kept() {
        let events = vec![Event::Counter {
            span: 0,
            name: "orphan".into(),
            value: 9,
        }];
        let rollup = Rollup::from_events(&events);
        assert_eq!(rollup.unattached().counter("orphan"), 9);
    }

    #[test]
    fn root_named_picks_the_latest_run() {
        let rec = Recorder::new();
        {
            let first = rec.span("assembly");
            rec.counter_on(first.id(), "run", 1);
        }
        {
            let second = rec.span("assembly");
            rec.counter_on(second.id(), "run", 2);
        }
        let rollup = Rollup::from_events(&rec.events());
        let root = rollup.root_named("assembly").unwrap();
        assert_eq!(root.own.counter("run"), 2);
    }

    #[test]
    fn jsonl_round_trip_preserves_aggregates() {
        let rec = Recorder::new();
        {
            let phase = rec.span("phase");
            rec.metric_on(phase.id(), "secs", 1.0 / 3.0);
            rec.counter_on(phase.id(), "n", u64::MAX / 2);
        }
        let text: String = rec
            .events()
            .iter()
            .map(|e| stdx::json::to_string(e) + "\n")
            .collect();
        let direct = Rollup::from_events(&rec.events());
        let parsed = Rollup::from_jsonl(&text).unwrap();
        let a = direct.root_named("phase").unwrap();
        let b = parsed.root_named("phase").unwrap();
        // f64 is written in its shortest round-trippable form, so
        // aggregates survive the file round trip bit-for-bit.
        assert_eq!(a.own, b.own);
        assert_eq!(a.wall_seconds, b.wall_seconds);
    }
}
