//! Pluggable destinations for observability events.

use crate::JsonRecord;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A destination for a stream of events of type `E`.
///
/// Implementations must never block the simulation on their own health:
/// [`record`](Self::record) is infallible, and sinks that can fail (I/O)
/// count failures in [`dropped_events`](Self::dropped_events) instead of
/// propagating them into the hot path.
pub trait EventSink<E>: Send {
    /// Accepts one event.
    fn record(&mut self, event: &E);

    /// Flushes any buffered output.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer, if any.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Events this sink has discarded (ring eviction, failed writes).
    fn dropped_events(&self) -> u64 {
        0
    }
}

/// A bounded in-memory sink keeping the most recent `capacity` events.
///
/// This replaces the old grow-forever trace buffer: when full, the oldest
/// event is evicted and counted in [`dropped_events`](Self::dropped_events),
/// so a saturated multi-hour run holds a window of recent history instead
/// of all of it.
#[derive(Clone, Debug)]
pub struct RingSink<E> {
    buffer: VecDeque<E>,
    capacity: usize,
    dropped: u64,
}

impl<E> RingSink<E> {
    /// A ring holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        RingSink {
            buffer: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates the held events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &E> {
        self.buffer.iter()
    }

    /// Takes the held events (oldest first), leaving the ring empty. The
    /// dropped-event counter is preserved.
    pub fn drain(&mut self) -> Vec<E> {
        self.buffer.drain(..).collect()
    }
}

impl<E: Clone + Send> EventSink<E> for RingSink<E> {
    fn record(&mut self, event: &E) {
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
            self.dropped += 1;
        }
        self.buffer.push_back(event.clone());
    }

    fn dropped_events(&self) -> u64 {
        self.dropped
    }
}

/// Streams events as line-delimited JSON (one [`JsonRecord`] object per
/// line) into any writer.
///
/// Encoding reuses a single line buffer, so steady-state recording does not
/// allocate. Write errors do not panic and do not stop the simulation; the
/// failed lines are counted as dropped.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    line: String,
    written: u64,
    failed: u64,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL file at `path`, buffered.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            line: String::with_capacity(256),
            written: 0,
            failed: 0,
        }
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the flush error.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<E: JsonRecord, W: Write + Send> EventSink<E> for JsonlSink<W> {
    fn record(&mut self, event: &E) {
        self.line.clear();
        event.write_json(&mut self.line);
        self.line.push('\n');
        if self.out.write_all(self.line.as_bytes()).is_ok() {
            self.written += 1;
        } else {
            self.failed += 1;
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    fn dropped_events(&self) -> u64 {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut ring: RingSink<u64> = RingSink::new(3);
        assert!(ring.is_empty());
        for i in 0..10u64 {
            ring.record(&i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped_events(), 7);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![7, 8, 9]);
        assert_eq!(ring.drain(), vec![7, 8, 9]);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped_events(), 7, "drain preserves the counter");
    }

    #[test]
    fn ring_capacity_zero_is_clamped() {
        let ring: RingSink<u64> = RingSink::new(0);
        assert_eq!(ring.capacity(), 1);
    }

    #[test]
    fn jsonl_writes_parseable_lines() {
        let mut sink: JsonlSink<Vec<u8>> = JsonlSink::new(Vec::new());
        for i in 0..5u64 {
            sink.record(&i);
        }
        assert_eq!(sink.lines_written(), 5);
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 5);
        let values: Result<Vec<_>, _> = crate::json::StreamDeserializer::new(&text).collect();
        let values = values.expect("every line is valid JSON");
        assert_eq!(values[4].as_u64(), Some(4));
    }
}
