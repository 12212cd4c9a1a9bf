//! The benchmark's own spans around every system call it times. Spans stay
//! in memory (nothing is recorded when tracing is off) and are written as
//! Chrome trace-event JSON when the run ends. Each span has a name, start,
//! end and parent; the spans of one job share its job id (0 = not part of
//! a job: set-up, references).

use crate::stats::Json;
use std::time::Instant;

struct Span {
    name: &'static str,
    job: u64,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Opens a span at `start`; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        job: u64,
        parent: SpanId,
        start: Instant,
    ) -> SpanId {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            job,
            parent,
            start,
            end: start,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId, end: Instant) {
        if let Some(i) = id {
            self.spans[i].end = end;
        }
    }

    /// Runs `f`, returning its value and duration in seconds; records a
    /// span around it when tracing is on.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        job: u64,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let v = f();
        let end = Instant::now();
        let id = self.begin(name, job, parent, start);
        self.end(id, end);
        (v, end.duration_since(start).as_secs_f64())
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per span, one
    /// track per job, the parent index in `args`.
    pub fn to_chrome_json(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let mut w = Json::default();
        w.open('{');
        w.key("traceEvents");
        w.open('[');
        for (i, s) in self.spans.iter().enumerate() {
            w.open('{');
            w.key("name");
            w.str(s.name);
            w.key("ph");
            w.str("X");
            w.key("ts");
            w.num(us(s.start));
            w.key("dur");
            w.num(us(s.end) - us(s.start));
            w.key("pid");
            w.num(1.0);
            w.key("tid");
            w.num(s.job as f64);
            w.key("args");
            w.open('{');
            w.key("id");
            w.num(i as f64);
            w.key("job");
            w.num(s.job as f64);
            w.key("parent");
            match s.parent {
                Some(p) => w.num(p as f64),
                None => w.num(f64::NAN),
            }
            w.close('}');
            w.close('}');
        }
        w.close(']');
        w.close('}');
        w.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new(true);
        let job = t.begin("job", 7, None, Instant::now());
        let ((), secs) = t.time("sip.run", 7, job, || {});
        t.end(job, Instant::now());
        assert!(secs >= 0.0);
        assert_eq!(t.len(), 2);
        let json = t.to_chrome_json();
        let doc = sia_runtime::events::parse_json(&json).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert!(Tracer::new(false)
            .begin("x", 0, None, Instant::now())
            .is_none());
    }
}
