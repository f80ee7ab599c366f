//! Zero-dependency structured tracing for the Locus tuning pipeline.
//!
//! A [`Tracer`] is a cheap handle that is either *disabled* (the
//! default — every operation is a no-op on an `Option` that is `None`,
//! so instrumentation can stay compiled in everywhere) or *enabled*,
//! in which case it records [`Event`]s — completed spans with a
//! duration, and zero-duration instant events — against a shared
//! monotonic epoch.
//!
//! The handle is `Clone + Send + Sync`: worker threads receive
//! [`Tracer::scoped`] children that share the epoch but buffer their
//! own events, and the driver merges those buffers back in a
//! deterministic order (evaluation-slot order, not completion order)
//! via [`Tracer::drain`] / [`Tracer::absorb`]. Timestamps naturally
//! vary run to run; the *sequence* of merged events does not.
//!
//! Two exporters are provided: line-oriented JSONL ([`to_jsonl`], the
//! format `locus-report` replays via [`from_jsonl`]) and the Chrome
//! `trace_event` JSON array ([`to_chrome`]) that `chrome://tracing`
//! and Perfetto load directly. The [`json`] module that writes and
//! reads them is also the line codec of the tuning store's record log
//! and of the `locusd` wire protocol.
//!
//! # Example
//!
//! ```
//! use locus_trace::{kv, Tracer};
//!
//! let tracer = Tracer::enabled();
//! {
//!     let mut span = tracer.span("phase", "prepare");
//!     span.arg("regions", 1u64);
//! }
//! tracer.instant("eval", "point", || vec![kv("ms", 1.5)]);
//! let events = tracer.events();
//! assert_eq!(events.len(), 2);
//! let parsed = locus_trace::from_jsonl(&locus_trace::to_jsonl(&events)).unwrap();
//! assert_eq!(parsed, events);
//! ```

#![warn(missing_docs)]

pub mod json;

pub use json::{from_jsonl, to_chrome, to_jsonl, TraceParseError};

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string field (point keys, origins, recipes, reasons).
    Str(String),
    /// An unsigned integer field (counters, digests, indices).
    U64(u64),
    /// A signed integer field.
    I64(i64),
    /// A float field (milliseconds, temperatures). Non-finite values
    /// are exported as quoted strings (`"inf"`, `"-inf"`, `"nan"`)
    /// and therefore parse back as [`Value::Str`].
    F64(f64),
    /// A boolean field.
    Bool(bool),
}

impl Value {
    /// The string payload, when this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer ([`Value::U64`], or a
    /// non-negative [`Value::I64`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a float (floats and both integer variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The boolean payload, when this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

/// Builds one `(key, value)` argument pair; sugar for event argument
/// lists.
pub fn kv(key: &str, value: impl Into<Value>) -> (String, Value) {
    (key.to_string(), value.into())
}

/// Stamps every event with a `(key, value)` argument, inserted at the
/// front of the argument list so it renders first. Existing arguments
/// under the same key are replaced, not duplicated — re-tagging is
/// idempotent. The `locusd` daemon uses this to tag each request's
/// drained events with the request id before appending them to the
/// shared trace log, so `locus-report --request <id>` can replay any
/// single request.
pub fn tag_events(events: Vec<Event>, key: &str, value: impl Into<Value>) -> Vec<Event> {
    let value = value.into();
    events
        .into_iter()
        .map(|mut event| {
            event.args.retain(|(k, _)| k != key);
            event.args.insert(0, (key.to_string(), value.clone()));
            event
        })
        .collect()
}

/// One recorded trace event: a completed span (`dur_us` is `Some`) or
/// an instant marker (`dur_us` is `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Coarse category: `phase`, `eval`, `search`, `machine`, `store`.
    pub cat: String,
    /// Event name within the category.
    pub name: String,
    /// Start time in microseconds since the tracer's epoch.
    pub ts_us: u64,
    /// Span duration in microseconds; `None` for instant events.
    pub dur_us: Option<u64>,
    /// Logical lane (Chrome `tid`): 0 is the driver, per-evaluation
    /// worker lanes are `slot index + 1`.
    pub lane: u64,
    /// Typed key/value arguments.
    pub args: Vec<(String, Value)>,
}

impl Event {
    /// Looks an argument up by key.
    pub fn arg(&self, key: &str) -> Option<&Value> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    lane: u64,
    events: Mutex<Vec<Event>>,
}

impl Inner {
    fn elapsed_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// The tracing handle. See the crate docs.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A disabled tracer: every operation is a no-op. This is the
    /// default, and the reason instrumentation can stay compiled in on
    /// hot paths.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// An enabled tracer whose epoch is *now*.
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                lane: 0,
                events: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether events are being recorded. Callers guard argument
    /// construction for hot-path events behind this.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A child tracer sharing this tracer's epoch but buffering its own
    /// events under `lane`. Disabled tracers return disabled children.
    /// Workers trace into per-slot children; the driver merges them
    /// back deterministically with [`Tracer::drain`] /
    /// [`Tracer::absorb`].
    pub fn scoped(&self, lane: u64) -> Tracer {
        Tracer {
            inner: self.inner.as_ref().map(|inner| {
                Arc::new(Inner {
                    epoch: inner.epoch,
                    lane,
                    events: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    /// Opens a span; the returned guard records a completed-span event
    /// when dropped. Attach arguments with [`Span::arg`].
    pub fn span(&self, cat: &str, name: &str) -> Span {
        match &self.inner {
            None => Span {
                inner: None,
                cat: String::new(),
                name: String::new(),
                start_us: 0,
                args: Vec::new(),
            },
            Some(inner) => Span {
                start_us: inner.elapsed_us(),
                inner: Some(Arc::clone(inner)),
                cat: cat.to_string(),
                name: name.to_string(),
                args: Vec::new(),
            },
        }
    }

    /// Records an instant event. `args` is a closure so argument
    /// construction (string formatting, allocation) is skipped entirely
    /// when the tracer is disabled.
    pub fn instant(&self, cat: &str, name: &str, args: impl FnOnce() -> Vec<(String, Value)>) {
        let Some(inner) = &self.inner else {
            return;
        };
        let event = Event {
            cat: cat.to_string(),
            name: name.to_string(),
            ts_us: inner.elapsed_us(),
            dur_us: None,
            lane: inner.lane,
            args: args(),
        };
        inner.events.lock().expect("trace buffer").push(event);
    }

    /// Takes every buffered event out of this tracer, leaving it empty.
    pub fn drain(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => std::mem::take(&mut *inner.events.lock().expect("trace buffer")),
        }
    }

    /// Appends previously drained events (e.g. a worker child's buffer)
    /// to this tracer's buffer. The caller controls the merge order —
    /// absorbing in evaluation-slot order is what makes merged traces
    /// deterministic.
    pub fn absorb(&self, events: Vec<Event>) {
        if let Some(inner) = &self.inner {
            inner.events.lock().expect("trace buffer").extend(events);
        }
    }

    /// A snapshot of the buffered events.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.events.lock().expect("trace buffer").clone(),
        }
    }

    /// Renders the buffered events as JSONL (see [`to_jsonl`]).
    pub fn to_jsonl(&self) -> String {
        to_jsonl(&self.events())
    }

    /// Renders the buffered events in Chrome `trace_event` format (see
    /// [`to_chrome`]).
    pub fn to_chrome(&self) -> String {
        to_chrome(&self.events())
    }
}

/// RAII span guard returned by [`Tracer::span`]: records a
/// completed-span event (with the measured duration) when dropped.
#[derive(Debug)]
pub struct Span {
    inner: Option<Arc<Inner>>,
    cat: String,
    name: String,
    start_us: u64,
    args: Vec<(String, Value)>,
}

impl Span {
    /// Attaches an argument to the span (no-op when disabled).
    pub fn arg(&mut self, key: &str, value: impl Into<Value>) {
        if self.inner.is_some() {
            self.args.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end_us = inner.elapsed_us();
        let event = Event {
            cat: std::mem::take(&mut self.cat),
            name: std::mem::take(&mut self.name),
            ts_us: self.start_us,
            dur_us: Some(end_us.saturating_sub(self.start_us)),
            lane: inner.lane,
            args: std::mem::take(&mut self.args),
        };
        inner.events.lock().expect("trace buffer").push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        {
            let mut s = t.span("phase", "prepare");
            s.arg("k", 1u64);
        }
        t.instant("eval", "point", || vec![kv("ms", 1.0)]);
        assert!(t.events().is_empty());
        assert!(t.drain().is_empty());
        assert!(!t.scoped(3).is_enabled());
    }

    #[test]
    fn spans_and_instants_are_recorded_in_order() {
        let t = Tracer::enabled();
        {
            let mut s = t.span("phase", "a");
            s.arg("n", 2u64);
        }
        t.instant("eval", "b", || vec![kv("origin", "fresh")]);
        let events = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert!(events[0].dur_us.is_some());
        assert_eq!(events[0].args, vec![kv("n", 2u64)]);
        assert_eq!(events[1].name, "b");
        assert!(events[1].dur_us.is_none());
        assert!(events[1].ts_us >= events[0].ts_us);
    }

    #[test]
    fn scoped_children_share_the_epoch_and_merge_deterministically() {
        let t = Tracer::enabled();
        let a = t.scoped(1);
        let b = t.scoped(2);
        b.instant("machine", "late", Vec::new);
        a.instant("machine", "early", Vec::new);
        // Merge in slot order regardless of recording order.
        t.absorb(a.drain());
        t.absorb(b.drain());
        let events = t.events();
        assert_eq!(events[0].name, "early");
        assert_eq!(events[0].lane, 1);
        assert_eq!(events[1].name, "late");
        assert_eq!(events[1].lane, 2);
    }

    #[test]
    fn drain_empties_the_buffer() {
        let t = Tracer::enabled();
        t.instant("a", "b", Vec::new);
        assert_eq!(t.drain().len(), 1);
        assert!(t.events().is_empty());
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(3u32), Value::U64(3));
        assert_eq!(Value::from(-3i64), Value::I64(-3));
        assert_eq!(Value::from(1.5), Value::F64(1.5));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn tag_events_stamps_front_and_replaces_idempotently() {
        let t = Tracer::enabled();
        t.instant("a", "one", || vec![kv("n", 1usize)]);
        t.instant("a", "two", Vec::new);
        let tagged = tag_events(t.drain(), "req", "r-7");
        assert_eq!(tagged.len(), 2);
        for event in &tagged {
            assert_eq!(event.args[0], ("req".into(), Value::Str("r-7".into())));
        }
        // The original arguments survive behind the tag.
        assert_eq!(tagged[0].arg("n"), Some(&Value::U64(1)));
        // Re-tagging replaces rather than duplicates.
        let retagged = tag_events(tagged, "req", "r-8");
        assert_eq!(retagged[0].arg("req"), Some(&Value::Str("r-8".into())));
        assert_eq!(
            retagged[0].args.iter().filter(|(k, _)| k == "req").count(),
            1
        );
    }
}
