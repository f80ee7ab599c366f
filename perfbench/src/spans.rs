//! The traced run's span log: spans recorded in memory around calls into
//! each layer, written out when the run ends.
//!
//! A span is named `layer.operation`. Its self time is its duration
//! minus the durations of its direct children, so a layer's self time
//! never double-counts the layers it calls into (a legality-oracle
//! build inside `search.propose`, a compile inside `machine.run`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: u64,
}

#[derive(Debug)]
struct Log {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    session: u64,
}

impl Log {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A shared span log. Shared (not owned by one call frame) because the
/// legality oracle a search module calls back into records spans too.
#[derive(Debug, Clone)]
pub struct Spans(Arc<Mutex<Log>>);

/// Closes its span when dropped.
pub struct Guard {
    spans: Spans,
    index: usize,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let mut log = self.spans.lock();
        let end = log.now_ns();
        log.spans[self.index].end_ns = end;
        if log.open.last() == Some(&self.index) {
            log.open.pop();
        }
    }
}

impl Spans {
    pub fn new() -> Spans {
        Spans(Arc::new(Mutex::new(Log {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            session: 0,
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        self.0.lock().expect("span log lock poisoned")
    }

    /// Tags the spans opened from now on with a session (or request) id.
    pub fn set_session(&self, session: u64) {
        self.lock().session = session;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&self, name: &'static str) -> Guard {
        let mut log = self.lock();
        let start = log.now_ns();
        let index = log.spans.len();
        let parent = log.open.last().copied();
        let session = log.session;
        log.spans.push(SpanRec {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            session,
        });
        log.open.push(index);
        Guard {
            spans: self.clone(),
            index,
        }
    }

    /// Records an already finished span, `start` to `start + dur_ns`, as
    /// a child of the innermost open span (a compile the machine layer
    /// timed itself).
    pub fn record(&self, name: &'static str, start: Instant, dur_ns: u64) {
        let mut log = self.lock();
        let start_ns = u64::try_from(start.saturating_duration_since(log.epoch).as_nanos())
            .unwrap_or(u64::MAX);
        let parent = log.open.last().copied();
        let session = log.session;
        log.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns.saturating_add(dur_ns),
            parent,
            session,
        });
    }

    /// Self time in seconds per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let log = self.lock();
        let mut child_ns = vec![0u64; log.spans.len()];
        for span in &log.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in log.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let log = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in log.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"session\": {}}}",
                s.name, s.start_ns, s.end_ns, s.session
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let spans = Spans::new();
        let start = Instant::now();
        {
            let _outer = spans.enter("driver.session");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = spans.enter("machine.run");
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
        let elapsed = start.elapsed().as_secs_f64();
        let own = spans.self_times();
        assert!(own["driver.session"] >= 0.002);
        assert!(own["machine.run"] >= 0.004);
        assert!(own["driver.session"] + own["machine.run"] <= elapsed);
    }
}
