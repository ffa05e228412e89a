//! Chrome Trace Event export (Perfetto-loadable).
//!
//! Produces the JSON object form of the [Trace Event Format]: a
//! `traceEvents` array of `B`/`E` span pairs, `i` instants and `M`
//! metadata records. `chrome://tracing` and
//! [ui.perfetto.dev](https://ui.perfetto.dev) both open it directly.
//!
//! The output is deterministic for a given event slice — one event
//! per line, fixed key order, timestamps in microseconds with fixed
//! three-decimal precision — so a golden file can pin the schema
//! byte-for-byte.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::catalog::{cat_of, name_of};
use crate::event::{Event, EventKind};
use std::collections::BTreeSet;

/// The `pid` every record carries (the recorder is process-local).
const PID: u32 = 1;

/// Renders `events` as a Chrome Trace Event JSON document.
///
/// Events should be in timestamp order ([`drain`](crate::drain)
/// returns them that way); the exporter preserves the given order.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut lines = Vec::with_capacity(events.len() + 8);
    lines.push(format!(
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {PID}, \
         \"args\": {{\"name\": \"lifepred\"}}}}"
    ));
    let tids: BTreeSet<u32> = events.iter().map(|e| e.tid).collect();
    for tid in tids {
        lines.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {PID}, \"tid\": {tid}, \
             \"args\": {{\"name\": \"thread-{tid}\"}}}}"
        ));
    }
    for e in events {
        let name = name_of(e.id);
        let cat = cat_of(e.id);
        let ts = micros(e.ts_ns);
        let (tid, arg) = (e.tid, e.arg);
        lines.push(match e.kind {
            EventKind::SpanBegin => format!(
                "{{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"B\", \"pid\": {PID}, \
                 \"tid\": {tid}, \"ts\": {ts}, \"args\": {{\"arg\": {arg}}}}}"
            ),
            EventKind::SpanEnd => format!(
                "{{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"E\", \"pid\": {PID}, \
                 \"tid\": {tid}, \"ts\": {ts}}}"
            ),
            EventKind::Instant => format!(
                "{{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"i\", \"s\": \"t\", \
                 \"pid\": {PID}, \"tid\": {tid}, \"ts\": {ts}, \"args\": {{\"arg\": {arg}}}}}"
            ),
        });
    }
    format!(
        "{{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n{}\n]\n}}\n",
        lines.join(",\n")
    )
}

/// Nanoseconds → microseconds with fixed three-decimal precision
/// (exact: 1 ns = 0.001 µs), so rendering never depends on float
/// formatting.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn ev(kind: EventKind, id: u16, ts_ns: u64, tid: u32, arg: u64) -> Event {
        Event {
            ts_ns,
            arg,
            id,
            kind,
            tid,
        }
    }

    #[test]
    fn exports_every_phase_kind() {
        let events = [
            ev(EventKind::SpanBegin, catalog::SWEEP_JOB, 1_500, 1, 3),
            ev(EventKind::Instant, catalog::SWEEP_CACHE_HIT, 2_000, 2, 1),
            ev(EventKind::SpanEnd, catalog::SWEEP_JOB, 9_000, 1, 0),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"ph\": \"B\""));
        assert!(json.contains("\"ph\": \"E\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"name\": \"sweep.job\""));
        assert!(json.contains("\"ts\": 1.500"));
        assert!(json.contains("\"ts\": 9.000"));
        assert!(json.contains("\"name\": \"thread-2\""));
        // Balanced structure: as many opens as closes.
        assert_eq!(
            json.matches("\"ph\": \"B\"").count(),
            json.matches("\"ph\": \"E\"").count()
        );
    }

    #[test]
    fn output_is_deterministic() {
        let events = [
            ev(EventKind::SpanBegin, catalog::REPLAY_DECODE, 0, 1, 0),
            ev(EventKind::SpanEnd, catalog::REPLAY_DECODE, 10, 1, 0),
        ];
        assert_eq!(chrome_trace_json(&events), chrome_trace_json(&events));
    }

    #[test]
    fn timestamps_do_not_round() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_000), "1.000");
        assert_eq!(micros(1_234_567), "1234.567");
    }

    #[test]
    fn empty_trace_is_still_valid_json_shape() {
        let json = chrome_trace_json(&[]);
        assert!(json.starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("process_name"));
    }
}
