//! Deterministic text summary: top spans by total and self time.
//!
//! Pairs `SpanBegin`/`SpanEnd` events per thread (innermost-first, the
//! way the RAII guards nest), attributes each span's duration to its
//! event id, and subtracts child time to get *self* time — the number
//! that says where the wall clock actually went. Instants get
//! occurrence counts.

use crate::catalog::name_of;
use crate::event::{Event, EventKind};
use std::collections::BTreeMap;

/// Aggregated timing for one span id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SpanStat {
    /// Completed (or force-closed at trace end) spans.
    pub count: u64,
    /// Wall nanoseconds inside the span, children included.
    pub total_ns: u64,
    /// Wall nanoseconds minus time spent in child spans.
    pub self_ns: u64,
}

/// Aggregates span statistics per event id.
///
/// A `SpanEnd` closes the innermost open span with the same id on its
/// thread (intervening unmatched spans are closed at the same
/// timestamp, keeping totals conservative). Spans still open when the
/// events run out are closed at the last timestamp seen.
pub(crate) fn span_stats(events: &[Event]) -> BTreeMap<u16, SpanStat> {
    let mut stats: BTreeMap<u16, SpanStat> = BTreeMap::new();
    // Per-thread stack of (id, begin_ts, child_ns).
    let mut stacks: BTreeMap<u32, Vec<(u16, u64, u64)>> = BTreeMap::new();
    let end_ts = events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
    let close = |stack: &mut Vec<(u16, u64, u64)>, stats: &mut BTreeMap<u16, SpanStat>, ts: u64| {
        if let Some((id, begin, child_ns)) = stack.pop() {
            let dur = ts.saturating_sub(begin);
            let stat = stats.entry(id).or_default();
            stat.count += 1;
            stat.total_ns += dur;
            stat.self_ns += dur.saturating_sub(child_ns);
            if let Some(parent) = stack.last_mut() {
                parent.2 += dur;
            }
        }
    };
    for e in events {
        let stack = stacks.entry(e.tid).or_default();
        match e.kind {
            EventKind::SpanBegin => stack.push((e.id, e.ts_ns, 0)),
            EventKind::SpanEnd => {
                if stack.iter().any(|&(id, _, _)| id == e.id) {
                    // Close unmatched inner spans at this end's
                    // timestamp, then the matching span itself.
                    while stack.last().is_some_and(|&(id, _, _)| id != e.id) {
                        close(stack, &mut stats, e.ts_ns);
                    }
                    close(stack, &mut stats, e.ts_ns);
                }
            }
            EventKind::Instant => {}
        }
    }
    for stack in stacks.values_mut() {
        while !stack.is_empty() {
            close(stack, &mut stats, end_ts);
        }
    }
    stats
}

/// Renders the full deterministic text summary: span table sorted by
/// total time (descending, ties by name), then instant counts.
pub fn render_summary(events: &[Event]) -> String {
    let stats = span_stats(events);
    let mut rows: Vec<(String, SpanStat)> = stats
        .iter()
        .map(|(&id, &s)| (name_of(id).into_owned(), s))
        .collect();
    rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));

    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>8} {:>14} {:>14}\n",
        "span", "count", "total(ms)", "self(ms)"
    ));
    for (name, s) in &rows {
        out.push_str(&format!(
            "{:<24} {:>8} {:>14} {:>14}\n",
            name,
            s.count,
            millis(s.total_ns),
            millis(s.self_ns)
        ));
    }

    let mut marks: BTreeMap<String, u64> = BTreeMap::new();
    for e in events {
        if e.kind == EventKind::Instant {
            *marks.entry(name_of(e.id).into_owned()).or_default() += 1;
        }
    }
    if !marks.is_empty() {
        out.push_str(&format!("\n{:<24} {:>8}\n", "instant", "count"));
        let mut marks: Vec<_> = marks.into_iter().collect();
        marks.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (name, count) in marks {
            out.push_str(&format!("{name:<24} {count:>8}\n"));
        }
    }
    out
}

/// Fixed-precision milliseconds (exact division, no float formatting).
fn millis(ns: u64) -> String {
    format!("{}.{:06}", ns / 1_000_000, ns % 1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn ev(kind: EventKind, id: u16, ts_ns: u64, tid: u32) -> Event {
        Event {
            ts_ns,
            arg: 0,
            id,
            kind,
            tid,
        }
    }

    #[test]
    fn nested_spans_split_total_and_self() {
        let events = [
            ev(EventKind::SpanBegin, catalog::SWEEP_JOB, 0, 1),
            ev(EventKind::SpanBegin, catalog::REPLAY_DECODE, 100, 1),
            ev(EventKind::SpanEnd, catalog::REPLAY_DECODE, 400, 1),
            ev(EventKind::SpanEnd, catalog::SWEEP_JOB, 1_000, 1),
        ];
        let stats = span_stats(&events);
        let job = stats[&catalog::SWEEP_JOB];
        let decode = stats[&catalog::REPLAY_DECODE];
        assert_eq!(job.total_ns, 1_000);
        assert_eq!(job.self_ns, 700);
        assert_eq!(decode.total_ns, 300);
        assert_eq!(decode.self_ns, 300);
    }

    #[test]
    fn threads_do_not_bleed_into_each_other() {
        let events = [
            ev(EventKind::SpanBegin, catalog::SWEEP_JOB, 0, 1),
            ev(EventKind::SpanBegin, catalog::SWEEP_JOB, 0, 2),
            ev(EventKind::SpanEnd, catalog::SWEEP_JOB, 50, 2),
            ev(EventKind::SpanEnd, catalog::SWEEP_JOB, 200, 1),
        ];
        let job = span_stats(&events)[&catalog::SWEEP_JOB];
        assert_eq!(job.count, 2);
        assert_eq!(job.total_ns, 250);
        // Same-id spans on different threads are not parent/child.
        assert_eq!(job.self_ns, 250);
    }

    #[test]
    fn unclosed_spans_close_at_trace_end() {
        let events = [
            ev(EventKind::SpanBegin, catalog::SWEEP_JOB, 10, 1),
            ev(EventKind::Instant, catalog::SWEEP_CACHE_HIT, 500, 1),
        ];
        let stats = span_stats(&events);
        assert_eq!(stats[&catalog::SWEEP_JOB].total_ns, 490);
    }

    #[test]
    fn stray_end_is_ignored() {
        let events = [ev(EventKind::SpanEnd, catalog::SWEEP_JOB, 10, 1)];
        assert!(span_stats(&events).is_empty());
    }

    #[test]
    fn summary_text_is_deterministic_and_sorted() {
        let events = [
            ev(EventKind::SpanBegin, catalog::REPLAY_PLACE, 0, 1),
            ev(EventKind::SpanEnd, catalog::REPLAY_PLACE, 5_000_000, 1),
            ev(EventKind::SpanBegin, catalog::REPLAY_DECODE, 5_000_000, 1),
            ev(EventKind::SpanEnd, catalog::REPLAY_DECODE, 6_000_000, 1),
            ev(EventKind::Instant, catalog::SWEEP_CACHE_MISS, 100, 2),
        ];
        let text = render_summary(&events);
        assert_eq!(text, render_summary(&events));
        let place = text.find("replay.place").expect("place row");
        let decode = text.find("replay.decode").expect("decode row");
        assert!(place < decode, "longest span first:\n{text}");
        assert!(text.contains("sweep.cache_miss"));
        assert!(text.contains("5.000000"));
    }
}
