//! Golden-file tests pinning the flight recorder's export formats
//! byte-for-byte.
//!
//! A synthetic event sequence with fixed timestamps — covering every
//! event kind and at least one catalogue id per instrumented subsystem
//! (galloc, replay, sweep, CLI, tracefile) — renders to Chrome Trace Event
//! JSON and to the text summary and is diffed against
//! `tests/golden/trace.{json,txt}`. Renaming a catalogue entry,
//! changing a category, or perturbing either renderer's key order,
//! timestamp precision, or layout is a schema change and must show up
//! as a golden diff.
//!
//! To bless an intentional change:
//!
//! ```text
//! LIFEPRED_REGEN_GOLDEN=1 cargo test -p lifepred-flight --test golden
//! ```

use lifepred_flight::{catalog, chrome, summary, Event, EventKind};
use std::path::PathBuf;

fn ev(kind: EventKind, id: u16, ts_ns: u64, tid: u32, arg: u64) -> Event {
    Event {
        ts_ns,
        arg,
        id,
        kind,
        tid,
    }
}

/// The pinned scenario: two threads, nested and sibling spans,
/// instants, and sub-microsecond timestamps that exercise
/// the exact three-decimal rendering.
fn canonical_events() -> Vec<Event> {
    vec![
        ev(EventKind::SpanBegin, catalog::CLI_WORKLOAD, 500, 1, 0),
        ev(
            EventKind::SpanBegin,
            catalog::GALLOC_MAG_REFILL,
            1_250,
            1,
            0,
        ),
        ev(
            EventKind::Instant,
            catalog::GALLOC_REMOTE_DRAIN,
            1_900,
            1,
            7,
        ),
        ev(EventKind::SpanEnd, catalog::GALLOC_MAG_REFILL, 2_750, 1, 0),
        ev(EventKind::SpanBegin, catalog::SWEEP_JOB, 3_000, 2, 4),
        ev(EventKind::Instant, catalog::SWEEP_CACHE_HIT, 3_100, 2, 12),
        ev(EventKind::SpanBegin, catalog::REPLAY_DECODE, 3_500, 2, 0),
        ev(EventKind::SpanEnd, catalog::REPLAY_DECODE, 10_000, 2, 0),
        ev(EventKind::SpanEnd, catalog::SWEEP_JOB, 12_345, 2, 0),
        ev(
            EventKind::SpanBegin,
            catalog::TRACEFILE_MAP_VERIFY,
            20_000,
            1,
            0,
        ),
        ev(
            EventKind::SpanEnd,
            catalog::TRACEFILE_MAP_VERIFY,
            33_003,
            1,
            0,
        ),
        ev(EventKind::SpanEnd, catalog::CLI_WORKLOAD, 40_000, 1, 0),
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(file: &str, rendered: &str) {
    let path = golden_path(file);
    if std::env::var_os("LIFEPRED_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless with LIFEPRED_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        rendered, want,
        "{file} drifted from its golden copy — if the format change is \
         intentional, bless it with LIFEPRED_REGEN_GOLDEN=1 and call it \
         out in the changelog"
    );
}

#[test]
fn chrome_trace_rendering_is_pinned() {
    check(
        "trace.json",
        &chrome::chrome_trace_json(&canonical_events()),
    );
}

#[test]
fn summary_rendering_is_pinned() {
    check("trace.txt", &summary::render_summary(&canonical_events()));
}

#[test]
fn golden_trace_is_structurally_sound() {
    let json = chrome::chrome_trace_json(&canonical_events());
    // Spans stay balanced and both threads are named.
    assert_eq!(
        json.matches("\"ph\": \"B\"").count(),
        json.matches("\"ph\": \"E\"").count()
    );
    assert!(json.contains("\"name\": \"thread-1\""));
    assert!(json.contains("\"name\": \"thread-2\""));
    // One record per line inside the traceEvents array: every data
    // line is a complete JSON object.
    for line in json.lines().filter(|l| l.starts_with('{') && l.len() > 2) {
        let trimmed = line.trim_end_matches(',');
        assert!(trimmed.ends_with('}'), "unterminated record: {line}");
    }
}
