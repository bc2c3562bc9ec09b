//! Golden-file test pinning the JSONL event schema.
//!
//! `golden_trace.jsonl` is the committed wire format. If this test fails,
//! the schema changed: update OBSERVABILITY.md and regenerate the golden
//! file deliberately — external consumers parse these lines.

use obs::{Event, Rollup};

const GOLDEN: &str = include_str!("golden_trace.jsonl");

fn expected_events() -> Vec<Event> {
    vec![
        Event::SpanStart {
            id: 1,
            parent: None,
            name: "assembly".into(),
            start_s: 0.0,
        },
        Event::SpanStart {
            id: 2,
            parent: Some(1),
            name: "sort".into(),
            start_s: 0.125,
        },
        Event::Counter {
            span: 2,
            name: "sort.pairs".into(),
            value: 128,
        },
        Event::Metric {
            span: 2,
            name: "io.read_seconds".into(),
            value: 0.25,
        },
        Event::Gauge {
            span: 2,
            name: "host.peak_bytes".into(),
            value: 1 << 30,
        },
        Event::SpanEnd {
            id: 2,
            wall_seconds: 0.5,
        },
        Event::SpanEnd {
            id: 1,
            wall_seconds: 1.5,
        },
    ]
}

#[test]
fn golden_trace_deserializes_to_expected_events() {
    let parsed: Vec<Event> = GOLDEN
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| stdx::json::from_str(line).expect("golden line must parse"))
        .collect();
    assert_eq!(parsed, expected_events());
}

#[test]
fn expected_events_serialize_byte_identical_to_golden() {
    let rendered: Vec<String> = expected_events()
        .iter()
        .map(stdx::json::to_string)
        .collect();
    let golden: Vec<&str> = GOLDEN
        .lines()
        .filter(|line| !line.trim().is_empty())
        .collect();
    assert_eq!(rendered, golden);
}

#[test]
fn golden_trace_rolls_up() {
    let rollup = Rollup::from_jsonl(GOLDEN).unwrap();
    let root = rollup.root_named("assembly").unwrap();
    assert_eq!(root.wall_seconds, 1.5);
    let sort = rollup.child_named(root.id, "sort").unwrap();
    assert_eq!(sort.wall_seconds, 0.5);
    let agg = rollup.subtree(root.id);
    assert_eq!(agg.counter("sort.pairs"), 128);
    assert_eq!(agg.metric("io.read_seconds"), 0.25);
    assert_eq!(agg.gauge("host.peak_bytes"), 1 << 30);
}
