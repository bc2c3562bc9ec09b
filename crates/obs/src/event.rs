use crate::histogram::Histogram;
use stdx::json::{self, field, FromJson, ToJson, Value};

/// One structured observability event.
///
/// Events serialize to single-line JSON objects tagged by `type`
/// (`span_start`, `span_end`, `counter`, `metric`, `gauge`,
/// `histogram`), one per line in a `.jsonl` trace. Span ids are unique
/// within one recorder; id `0` means "no span" (an unattached
/// measurement).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened. `start_s` is seconds since the recorder was created.
    SpanStart {
        id: u64,
        parent: Option<u64>,
        name: String,
        start_s: f64,
    },
    /// A span closed after `wall_seconds` of wall-clock time.
    SpanEnd { id: u64, wall_seconds: f64 },
    /// A monotonic increment. Counters with the same name **sum**.
    Counter { span: u64, name: String, value: u64 },
    /// An additive floating-point quantity (e.g. modeled seconds). Sums.
    Metric { span: u64, name: String, value: f64 },
    /// A high-water mark (e.g. peak bytes). Gauges with the same name **max**.
    Gauge { span: u64, name: String, value: u64 },
    /// A distribution delta (e.g. latencies from one chunk of work).
    /// Histograms with the same name **merge** exactly, in any order.
    Histogram {
        span: u64,
        name: String,
        hist: Histogram,
    },
    /// One grant in a model-checked schedule (`schedcheck`): at step
    /// `step` the scheduler let `task` run past schedule point `point`.
    /// Interleaved with the server's own events in a failing schedule's
    /// trace, these lines show exactly which ordering broke the
    /// invariant; aggregators ignore them.
    Sched {
        step: u64,
        task: u64,
        task_name: String,
        point: String,
    },
}

/// `{"type": <tag>, <fields in declaration order>}` — the JSONL schema of
/// OBSERVABILITY.md.
impl ToJson for Event {
    fn to_json(&self) -> Value {
        fn tagged<const N: usize>(tag: &str, fields: [(&str, Value); N]) -> Value {
            let mut members = Vec::with_capacity(N + 1);
            members.push(("type".to_owned(), tag.to_json()));
            members.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
            Value::Object(members)
        }
        fn measurement(tag: &str, span: &u64, name: &str, value: Value) -> Value {
            let fields = [
                ("span", span.to_json()),
                ("name", name.to_json()),
                ("value", value),
            ];
            tagged(tag, fields)
        }
        match self {
            Event::SpanStart {
                id,
                parent,
                name,
                start_s,
            } => tagged(
                "span_start",
                [
                    ("id", id.to_json()),
                    ("parent", parent.to_json()),
                    ("name", name.to_json()),
                    ("start_s", start_s.to_json()),
                ],
            ),
            Event::SpanEnd { id, wall_seconds } => tagged(
                "span_end",
                [
                    ("id", id.to_json()),
                    ("wall_seconds", wall_seconds.to_json()),
                ],
            ),
            Event::Counter { span, name, value } => {
                measurement("counter", span, name, value.to_json())
            }
            Event::Metric { span, name, value } => {
                measurement("metric", span, name, value.to_json())
            }
            Event::Gauge { span, name, value } => measurement("gauge", span, name, value.to_json()),
            Event::Histogram { span, name, hist } => tagged(
                "histogram",
                [
                    ("span", span.to_json()),
                    ("name", name.to_json()),
                    ("hist", hist.to_json()),
                ],
            ),
            Event::Sched {
                step,
                task,
                task_name,
                point,
            } => tagged(
                "sched",
                [
                    ("step", step.to_json()),
                    ("task", task.to_json()),
                    ("task_name", task_name.to_json()),
                    ("point", point.to_json()),
                ],
            ),
        }
    }
}

impl FromJson for Event {
    fn from_json(value: &Value) -> json::Result<Self> {
        let f = value.as_object()?;
        let tag: String = field(f, "type")?;
        Ok(match tag.as_str() {
            "span_start" => Event::SpanStart {
                id: field(f, "id")?,
                parent: field(f, "parent")?,
                name: field(f, "name")?,
                start_s: field(f, "start_s")?,
            },
            "span_end" => Event::SpanEnd {
                id: field(f, "id")?,
                wall_seconds: field(f, "wall_seconds")?,
            },
            "counter" => Event::Counter {
                span: field(f, "span")?,
                name: field(f, "name")?,
                value: field(f, "value")?,
            },
            "metric" => Event::Metric {
                span: field(f, "span")?,
                name: field(f, "name")?,
                value: field(f, "value")?,
            },
            "gauge" => Event::Gauge {
                span: field(f, "span")?,
                name: field(f, "name")?,
                value: field(f, "value")?,
            },
            "histogram" => Event::Histogram {
                span: field(f, "span")?,
                name: field(f, "name")?,
                hist: field(f, "hist")?,
            },
            "sched" => Event::Sched {
                step: field(f, "step")?,
                task: field(f, "task")?,
                task_name: field(f, "task_name")?,
                point: field(f, "point")?,
            },
            _ => return Err(json::Error::UnknownVariant(tag)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::SpanStart {
                id: 1,
                parent: None,
                name: "assembly".into(),
                start_s: 0.0,
            },
            Event::Counter {
                span: 1,
                name: "io.bytes_read".into(),
                value: 4096,
            },
            Event::Metric {
                span: 1,
                name: "io.read_seconds".into(),
                value: 0.25,
            },
            Event::Gauge {
                span: 1,
                name: "host.peak_bytes".into(),
                value: 1 << 30,
            },
            Event::Histogram {
                span: 1,
                name: "qserve.latency.total".into(),
                hist: {
                    let mut h = Histogram::new();
                    h.record(120);
                    h.record_n(4000, 3);
                    h
                },
            },
            Event::Sched {
                step: 12,
                task: 3,
                task_name: "qserve-worker-1".into(),
                point: "qserve.worker.exec".into(),
            },
            Event::SpanEnd {
                id: 1,
                wall_seconds: 1.5,
            },
        ];
        for event in &events {
            let line = json::to_string(event);
            let back: Event = json::from_str(&line).unwrap();
            assert_eq!(&back, event);
        }
    }

    #[test]
    fn tag_names_are_snake_case() {
        let line = json::to_string(&Event::SpanEnd {
            id: 7,
            wall_seconds: 0.5,
        });
        assert_eq!(line, r#"{"type":"span_end","id":7,"wall_seconds":0.5}"#);
    }
}
