//! Spans recorded by the benchmark around every call into a layer.
//!
//! The simulator has no span API of its own yet, so the benchmark times
//! each call from outside. Spans stay in memory and are written once, when
//! the traced pass ends; the untraced pass uses the same `span` calls with
//! recording off, so both passes execute the same benchmark code.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use wormsim::observe::JsonObject;

#[derive(Clone, Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    repeat: u32,
}

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the part direct children cover).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

pub struct Tracer {
    workload: String,
    recording: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<Option<usize>>,
    repeat: Cell<u32>,
}

impl Tracer {
    pub fn new(workload: &str, recording: bool) -> Tracer {
        Tracer {
            workload: workload.to_owned(),
            recording,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(None),
            repeat: Cell::new(0),
        }
    }

    /// Tags spans opened from now on with `repeat`.
    pub fn set_repeat(&self, repeat: u32) {
        self.repeat.set(repeat);
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds. Spans opened inside `f` become its children.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let parent = self.current.get();
        let index = self.recording.then(|| {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_owned(),
                start_ns: 0,
                end_ns: 0,
                parent,
                repeat: self.repeat.get(),
            });
            spans.len() - 1
        });
        if index.is_some() {
            self.current.set(index);
        }
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        if let Some(index) = index {
            let span = &mut self.spans.borrow_mut()[index];
            span.start_ns = (start - self.epoch).as_nanos() as u64;
            span.end_ns = (end - self.epoch).as_nanos() as u64;
            self.current.set(parent);
        }
        (value, (end - start).as_secs_f64())
    }

    /// Duration and self time per span name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.total_s += duration as f64 / 1e9;
            entry.self_s += duration.saturating_sub(children) as f64 / 1e9;
        }
        totals
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, span) in self.spans.borrow().iter().enumerate() {
            let mut object = JsonObject::begin(&mut text);
            object
                .field_u64("id", id as u64)
                .field_str("name", &span.name)
                .field_u64("start_ns", span.start_ns)
                .field_u64("end_ns", span.end_ns);
            match span.parent {
                Some(parent) => object.field_u64("parent", parent as u64),
                None => object.field_raw("parent", "null"),
            };
            object
                .field_str("workload", &self.workload)
                .field_u64("repeat", u64::from(span.repeat));
            object.finish();
            text.push('\n');
        }
        wormsim::observe::atomic_write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let tracer = Tracer::new("w", true);
        tracer.span("outer", || {
            tracer.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tracer.span("inner", || ());
        });
        let totals = tracer.totals();
        assert_eq!(totals["outer"].count, 1);
        assert_eq!(totals["inner"].count, 2);
        let outer = totals["outer"];
        assert!(outer.total_s >= totals["inner"].total_s);
        let gap = outer.total_s - totals["inner"].total_s - outer.self_s;
        assert!(gap.abs() < 1e-9, "self = total - children, off by {gap}");
        assert!(totals["inner"].self_s >= 0.005);
    }

    #[test]
    fn an_untraced_pass_times_but_records_nothing() {
        let tracer = Tracer::new("w", false);
        let (value, seconds) = tracer.span("x", || 7);
        assert_eq!(value, 7);
        assert!(seconds >= 0.0);
        assert!(tracer.totals().is_empty());
    }
}
