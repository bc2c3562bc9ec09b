//! Order statistics, the metric list, and the in-memory span trace.

use std::fmt::Write as _;
use std::time::Instant;

/// Sorts a copy; `q` in `0..=1`, nearest-rank on the sorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median wall seconds of `reps` calls of `f`, after one untimed call.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One `key: value` fact of the environment stamp.
pub fn fact(key: &str, value: impl ToString) -> (String, String) {
    (key.to_owned(), value.to_string())
}

/// Named measurements in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            !self.0.iter().any(|(n, _, _)| n == name),
            "metric {name} reported twice"
        );
        self.0.push((name.to_owned(), value, unit));
    }

    pub fn extend(&mut self, other: Metrics) {
        for (name, value, unit) in other.0 {
            self.put(&name, value, unit);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    /// `{"name": {"value": v, "unit": "u"}, ..}`. Values print with every
    /// digit `f64` holds; a non-finite value prints as 0 so the line stays
    /// JSON (and the run is marked incorrect by the caller).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

/// One timed interval at a layer boundary.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<usize>,
    /// The op (assembly or batch) this span belongs to.
    pub op: u64,
}

/// Spans kept in memory and written out once, when the run ends.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
    }

    /// Runs `f` under a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        out
    }

    /// Opens a span whose children are recorded before it closes; returns
    /// its index for use as their `parent`.
    pub fn open(&mut self, name: &'static str, op: u64) -> usize {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Seconds of every span called `name`, in op order.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 < self.spans.len() { "," } else { "" }
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]\n");
        out
    }
}
