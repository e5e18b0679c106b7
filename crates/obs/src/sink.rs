//! Event sinks: where structured rows go.
//!
//! Producers hold a `&dyn RunSink` and call [`RunSink::emit`]; the
//! three implementations cover the needs of the workspace: [`NullSink`]
//! (observability off — emit is a no-op and producers can skip building
//! rows entirely by checking [`RunSink::enabled`]), [`JsonlSink`]
//! (streaming JSONL file), and [`MemorySink`] (in-memory capture for
//! tests, notably the event-log determinism tests).

use crate::event::Event;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Receiver of structured run events.
///
/// Implementations must be thread-safe; producers may emit from worker
/// threads (though the workspace's Monte-Carlo engine funnels events
/// through the coordinating thread in chunk order to keep logs
/// deterministic).
///
/// ```
/// use resq_obs::{Event, NullSink, RunSink, event_type};
///
/// fn run(sink: &dyn RunSink) {
///     // Cheap guard: skip row construction when nobody listens.
///     if sink.enabled() {
///         sink.emit(Event::new(event_type::RUN_STARTED).u64("seed", 7));
///     }
/// }
///
/// run(&NullSink); // no-op, zero allocation
/// ```
pub trait RunSink: Send + Sync {
    /// Accepts one event row.
    fn emit(&self, event: Event);

    /// `false` when emitted events are discarded; producers use this to
    /// skip building rows on the hot path.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered rows to the underlying store.
    fn flush(&self) {}
}

/// The disabled sink: discards everything, reports itself disabled.
pub struct NullSink;

impl RunSink for NullSink {
    fn emit(&self, _event: Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Streams rows to a file as JSON Lines (one object per line).
///
/// Rows are buffered through a [`BufWriter`] and flushed on
/// [`RunSink::flush`] and on drop. Write errors after creation are
/// counted, not propagated — observability must never abort a run —
/// and surfaced via [`JsonlSink::write_errors`].
///
/// ```no_run
/// use resq_obs::{Event, JsonlSink, RunSink, event_type};
///
/// let sink = JsonlSink::create("run.jsonl")?;
/// sink.emit(Event::new(event_type::RUN_STARTED).u64("seed", 42));
/// sink.flush();
/// # std::io::Result::Ok(())
/// ```
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
    write_errors: std::sync::atomic::AtomicU64,
}

impl JsonlSink {
    /// Creates (truncating) the log file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            writer: Mutex::new(BufWriter::new(file)),
            write_errors: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Number of rows dropped due to I/O errors since creation.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl RunSink for JsonlSink {
    fn emit(&self, event: Event) {
        let line = event.to_json();
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        if writeln!(w, "{line}").is_err() {
            self.write_errors
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        if w.flush().is_err() {
            self.write_errors
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.writer.lock().map(|mut w| w.flush());
    }
}

/// Captures rows in memory; the determinism tests compare two captured
/// logs byte-for-byte across thread counts.
#[derive(Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The captured rows, in emission order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("memory sink poisoned").clone()
    }
}

impl RunSink for MemorySink {
    fn emit(&self, event: Event) {
        self.lines
            .lock()
            .expect("memory sink poisoned")
            .push(event.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::event_type;
    use crate::json;

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.emit(Event::new(event_type::RUN_STARTED));
        sink.flush();
    }

    #[test]
    fn memory_sink_captures_in_order() {
        let sink = MemorySink::new();
        for i in 0..5u64 {
            sink.emit(Event::new(event_type::CHUNK_PROGRESS).u64("chunk", i));
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            let row = json::parse(line).unwrap();
            assert_eq!(row.get("chunk").unwrap().as_u64(), Some(i as u64));
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path =
            std::env::temp_dir().join(format!("resq-obs-sink-test-{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.emit(Event::new(event_type::RUN_STARTED).u64("seed", 1));
            sink.emit(Event::new(event_type::RUN_FINISHED).f64("mean", 0.5));
            assert_eq!(sink.write_errors(), 0);
        } // drop flushes
        let text = std::fs::read_to_string(&path).unwrap();
        let rows: Vec<_> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[1].get("type").unwrap().as_str(),
            Some(event_type::RUN_FINISHED)
        );
        std::fs::remove_file(&path).ok();
    }
}
