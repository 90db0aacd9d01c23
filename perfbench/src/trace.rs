//! In-memory spans against one time origin.
//!
//! Every span is stamped relative to the same `Instant`, like the single
//! global start event a GPU schedule engine records its streams against, so
//! spans from different layers and threads line up on one axis. Spans are
//! only collected in a traced run and are written out once, at the end.

use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the call served, if any.
    pub job: Option<u64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans when enabled; every call is a cheap no-op otherwise.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (`usize::MAX` when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: Option<u64>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
    }

    /// Durations, seconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{},\"job\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job.map_or("null".to_string(), |j| j.to_string()),
            ));
        }
        out.push_str("]}\n");
        out
    }
}
