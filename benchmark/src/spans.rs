//! A small in-memory span recorder owned by the benchmark.
//!
//! The traced run wraps each call into a layer's public function in a
//! span (name, start, end, parent). Spans stay in memory and are written
//! out as Chrome-trace JSON when the run ends. Spans *inside* the
//! program are a later issue; these time the layers from outside.

use std::time::Instant;

/// One recorded interval. `parent` indexes [`Recorder::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, a child of whichever span is
    /// open, and returns its result with the span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (value, self.spans[id].duration_s())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in seconds: its duration minus the
/// durations of its direct children. Children of one parent never
/// overlap (one thread, closure-scoped), so the part of the parent's
/// interval they cover is the plain sum.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_s).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] -= span.duration_s();
        }
    }
    own
}

/// Chrome-trace ("Trace Event Format") JSON of `spans`, loadable in
/// Perfetto or `chrome://tracing`. Each span carries its index and its
/// parent's as `args`, so the tree survives the export.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 ms
        //   a 10..40 ms
        //     a1 15..25 ms
        //   b 50..90 ms
        let spans = [
            span("root", 0, 100_000_000, None),
            span("a", 10_000_000, 40_000_000, Some(0)),
            span("a1", 15_000_000, 25_000_000, Some(1)),
            span("b", 50_000_000, 90_000_000, Some(0)),
        ];
        let own = self_times(&spans);
        let ms: Vec<i64> = own.iter().map(|s| (s * 1e3).round() as i64).collect();
        // root loses both siblings but not its grandchild (a already
        // contains a1); a loses a1; the leaves keep everything.
        assert_eq!(ms, [30, 20, 10, 40]);
    }

    #[test]
    fn recorder_links_parents_and_orders_times() {
        let mut rec = Recorder::new();
        let ((), outer) = rec.span("outer", |rec| {
            rec.span("first", |_| ());
            rec.span("second", |rec| {
                rec.span("inner", |_| ());
            });
        });
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "first", "second", "inner"]);
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        for s in spans {
            assert!(s.start_ns <= s.end_ns);
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        assert!(outer >= spans[1].duration_s() + spans[2].duration_s());
        assert!(self_times(spans).iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn chrome_export_is_one_event_per_span() {
        let spans = [
            span("root", 0, 2_000, None),
            span("leaf", 500, 1_500, Some(0)),
        ];
        let json = chrome_trace_json(&spans);
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"name\": \"leaf\""));
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"parent\": null"));
    }
}
