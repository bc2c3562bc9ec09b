use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::Event;

/// Observes every event a [`crate::Recorder`] emits, in order.
///
/// Sinks run under the recorder's lock; keep `record` cheap.
pub trait Sink: Send {
    fn record(&mut self, event: &Event);
    /// Flush any buffering (called by [`crate::Recorder::flush`]).
    fn flush(&mut self) {}
}

/// Streams events as one JSON object per line to a file.
pub struct JsonlSink {
    writer: BufWriter<File>,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, event: &Event) {
        // A full disk surfaces at flush; per-event errors are ignored so
        // tracing can never fail an assembly.
        let _ = writeln!(self.writer, "{}", stdx::json::to_string(event));
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Buffers events in memory; read them back through the [`MemoryHandle`].
pub struct MemorySink {
    buffer: Arc<Mutex<Vec<Event>>>,
}

/// Shared view into a [`MemorySink`]'s buffer.
#[derive(Clone)]
pub struct MemoryHandle {
    buffer: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (MemorySink, MemoryHandle) {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        (
            MemorySink {
                buffer: Arc::clone(&buffer),
            },
            MemoryHandle { buffer },
        )
    }
}

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        self.buffer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event.clone());
    }
}

impl MemoryHandle {
    /// A snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.buffer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// Prints shallow span completions to stderr for humans watching a run.
///
/// Spans deeper than `max_depth` (root = depth 0) are suppressed, so
/// per-chunk and per-kernel spans don't flood the terminal.
pub struct ProgressSink {
    max_depth: usize,
    meta: HashMap<u64, (String, usize)>,
}

impl ProgressSink {
    pub fn new(max_depth: usize) -> Self {
        ProgressSink {
            max_depth,
            meta: HashMap::new(),
        }
    }
}

impl Sink for ProgressSink {
    fn record(&mut self, event: &Event) {
        match event {
            Event::SpanStart {
                id, parent, name, ..
            } => {
                let depth = parent
                    .and_then(|p| self.meta.get(&p).map(|(_, d)| d + 1))
                    .unwrap_or(0);
                self.meta.insert(*id, (name.clone(), depth));
            }
            Event::SpanEnd { id, wall_seconds } => {
                if let Some((name, depth)) = self.meta.remove(id) {
                    if depth <= self.max_depth {
                        eprintln!(
                            "[obs] {:indent$}{name} {wall_seconds:.3}s",
                            "",
                            indent = depth * 2
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn memory_sink_sees_every_event_in_order() {
        let rec = Recorder::new();
        let handle = rec.add_memory_sink();
        {
            let _span = rec.span("phase");
            rec.counter("n", 2);
        }
        let events = handle.events();
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0], Event::SpanStart { .. }));
        assert!(matches!(events[1], Event::Counter { .. }));
        assert!(matches!(events[2], Event::SpanEnd { .. }));
        assert_eq!(events, rec.events());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("trace.jsonl");
        let rec = Recorder::new();
        rec.add_sink(Box::new(JsonlSink::create(&path).unwrap()));
        {
            let _span = rec.span("phase");
            rec.counter("n", 2);
        }
        rec.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let parsed: Vec<Event> = lines
            .iter()
            .map(|l| stdx::json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed, rec.events());
    }
}
