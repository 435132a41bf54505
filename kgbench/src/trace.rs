//! Spans recorded from outside the program: one around every call the
//! harness makes into a layer and around every layer probe. Kept in memory
//! and written as JSON when the run ends. A disabled tracer records
//! nothing and costs one branch per span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent` is 0 for a root span. Times are
/// nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span id (1-based).
    pub id: u64,
    /// Id of the span that caused this one, or 0.
    pub parent: u64,
    /// Layer call or probe name, e.g. `train.train_with_store`.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id (0 when tracing is off) for its own children.
    pub fn span<T>(&self, name: &str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Record a span timed elsewhere (a probe process's span, rebased onto
    /// this tracer's clock). Returns its id, or 0 when tracing is off.
    pub fn record(&self, name: &str, parent: u64, start_ns: u64, end_ns: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Every recorded span, ordered by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}\n",
                s.id,
                s.parent,
                crate::out::json_string(&s.name),
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("a", 0, |id| {
            assert_eq!(id, 0);
            7
        });
        assert_eq!(v, 7);
        assert_eq!(t.record("b", 0, 1, 2), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", 0, |outer| {
            t.span("inner", outer, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }
}
