//! Host-time spans recorded around the harness's calls into the simulator.
//!
//! Every timed step of the harness goes through [`Spans::time`], which
//! returns the step's host seconds (CPU time of the calling thread, see
//! [`crate::thread_cpu_secs`]); when recording is on it also keeps a span
//! (name, wall-clock start, end, parent) in memory. [`Spans::write_chrome_trace`]
//! writes them out once, at the end of the run, in the Chrome trace-event
//! format that Perfetto opens.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span, used as the parent of nested spans.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u128,
    end_ns: u128,
}

/// An in-memory span recorder; a disabled one only measures.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that keeps spans when `recording` is set.
    pub fn new(recording: bool) -> Self {
        Spans {
            epoch: Instant::now(),
            recording,
            spans: Vec::new(),
        }
    }

    /// Opens a span that encloses later ones; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.recording {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Spans::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos();
        }
    }

    /// Runs `f`, returning its result and the thread's CPU seconds spent
    /// in it, and records it as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let cpu = crate::thread_cpu_secs();
        let out = f();
        let cpu = crate::thread_cpu_secs() - cpu;
        let end = Instant::now();
        if self.recording {
            self.spans.push(Span {
                name,
                parent,
                start_ns: (start - self.epoch).as_nanos(),
                end_ns: (end - self.epoch).as_nanos(),
            });
        }
        (out, cpu)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans as a Chrome trace-event JSON document: one complete
    /// (`"ph": "X"`) event per span, its id and parent id in `args`.
    pub fn chrome_trace(&self) -> String {
        let mut s = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
            );
        }
        s.push_str("]}\n");
        s
    }

    /// Writes [`Spans::chrome_trace`] to `path`, creating its directory.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.chrome_trace())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_measures_without_keeping_spans() {
        let mut spans = Spans::new(false);
        let (v, secs) = spans.time("work", None, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert!(spans.open("outer", None).is_none());
        assert!(spans.is_empty());
    }

    #[test]
    fn nested_spans_name_their_parent() {
        let mut spans = Spans::new(true);
        let outer = spans.open("run", None);
        let _ = spans.time("window", outer, || ());
        spans.close(outer);
        assert_eq!(spans.len(), 2);
        let json = spans.chrome_trace();
        assert!(json.contains("\"name\":\"run\""));
        assert!(json.contains("\"args\":{\"id\":1,\"parent\":0}"));
        assert!(json.contains("\"args\":{\"id\":0,\"parent\":null}"));
    }
}
