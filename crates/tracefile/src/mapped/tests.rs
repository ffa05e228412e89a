//! Tests of the one reader: ground truth on well-formed images, and
//! hostile input (truncations, bit flips, lying lengths and counts,
//! every structural violation, sections that disagree) on two small
//! fixtures — an image from the writer (five-byte padded large-section
//! lengths) and a hand-built one (one-byte lengths).

use super::*;
use crate::crc32::crc32;
use crate::{trace_from_bytes, trace_to_vec};
use lifepred_trace::varint::write_varint;
use lifepred_trace::TraceSession;

/// Nested and recursive chains, interleaved frees, touched and
/// untouched objects, and one immortal.
fn sample_trace(objects: u32) -> Trace {
    let s = TraceSession::new("mapped");
    let mut held = Vec::new();
    {
        let _g = s.enter("site");
        for i in 0..objects {
            let _nested = (i % 5 == 0).then(|| s.enter("helper"));
            let _recursive = (i % 7 == 0).then(|| s.enter("site"));
            let id = s.alloc(i % 900 + 1);
            if i % 3 != 0 {
                s.touch(id, u64::from(i % 3));
            }
            if i % 4 == 0 {
                held.push(id);
            } else {
                s.free(id);
            }
        }
    }
    held.drain(1..).for_each(|id| s.free(id));
    s.finish()
}

fn open(bytes: &[u8]) -> Result<MappedTrace, TraceFileError> {
    MappedTrace::from_map(TraceMap::from_vec(bytes.to_vec()))
}

fn open_unverified(bytes: &[u8]) -> Result<MappedTrace, TraceFileError> {
    MappedTrace::build(TraceMap::from_vec(bytes.to_vec()), false)
}

/// Drains the event chunks: every chunk but the last is filled to the
/// chunk's target, and a drained source stays fused.
fn drain_events(mapped: &MappedTrace, capacity: usize) -> Result<Vec<ChunkEvent>, TraceFileError> {
    let mut src = mapped.events();
    let mut chunk = EventChunk::with_capacity(capacity);
    let mut events = Vec::new();
    let mut last = capacity;
    while src.next_chunk(&mut chunk)? {
        assert_eq!(last, capacity, "only the final chunk may be short");
        last = chunk.len();
        assert!((1..=capacity).contains(&last));
        events.extend(chunk.events());
    }
    assert!(!src.next_chunk(&mut chunk)? && chunk.is_empty(), "fused");
    Ok(events)
}

/// Decodes both large sections to the end.
fn drain(mapped: &MappedTrace) -> Result<(), TraceFileError> {
    mapped.records()?.try_for_each(|r| r.map(drop))?;
    drain_events(mapped, 2).map(drop)
}

/// The error each way of reading a damaged image reports: verified and
/// drained, unverified and drained, loaded.
fn errors(bytes: &[u8]) -> [String; 3] {
    let read = [
        open(bytes).and_then(|m| drain(&m)),
        open_unverified(bytes).and_then(|m| drain(&m)),
        trace_from_bytes(bytes).map(drop),
    ];
    read.map(|r| r.expect_err("a damaged image").to_string())
}

/// What the events section of `trace`'s image must decode to.
fn expected_events(trace: &Trace) -> Vec<ChunkEvent> {
    trace.events().into_iter().collect()
}

fn varints(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in values {
        write_varint(&mut out, v);
    }
    out
}

/// Frames five raw payloads into an image, lengths and CRCs honest.
fn image(payloads: &[Vec<u8>; 5]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&SECTION_COUNT.to_le_bytes());
    for ((id, _), payload) in SECTIONS.into_iter().zip(payloads) {
        out.push(id);
        write_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
    }
    out
}

/// Payloads of a tiny well-formed trace: one function, one chain, an
/// 8-byte object born at clock 0 and freed at clock 12 by the third
/// event, and an immortal 4-byte object born at clock 8.
fn tiny() -> [Vec<u8>; 5] {
    // Name, then the eight stats counters.
    let meta = [&b"\x01t"[..], &varints(&[12, 2, 12, 2, 0, 0, 5, 0])].concat();
    let functions = b"\x01\x01f".to_vec();
    let chains = varints(&[1, 1, 0]);
    // Count, then per record: size, chain, lifetime code (death clock
    // - birth clock - size + 1), refs, first-ref code.
    let records = varints(&[2, 8, 0, 5, 5, 0, 4, 0, 0, 0, 0]);
    // Count, then one key per event: alloc 8, alloc 4, free one back.
    let events = varints(&[3, 8 << 1, 4 << 1, (1 << 1) | 1]);
    [meta, functions, chains, records, events]
}

/// The two fixtures every hostile sweep runs over.
fn fixtures() -> [(&'static str, Vec<u8>); 2] {
    [
        ("writer", trace_to_vec(&sample_trace(12)).expect("encode")),
        ("hand-built", image(&tiny())),
    ]
}

#[test]
fn header_records_and_events_are_the_recorded_traces_own() {
    let empty = TraceSession::new("empty").finish();
    for trace in [sample_trace(20_000), empty] {
        let mapped = open(&trace_to_vec(&trace).expect("encode")).expect("open");
        assert_eq!(mapped.name(), trace.name());
        assert_eq!(mapped.stats(), trace.stats());
        assert_eq!(mapped.registry().len(), trace.registry().len());
        assert_eq!(mapped.chain_table().len(), trace.chains().len());
        let records = mapped.records().expect("records");
        assert_eq!(records.size_hint().0, trace.records().len());
        let records: Vec<_> = records.collect::<Result<_, _>>().expect("decode");
        assert_eq!(records, trace.records());
        // One encoding: the section holds the keys the session recorded.
        let keys = &mapped.map.as_bytes()[mapped.events_body.clone()];
        assert_eq!(keys, trace.event_keys());
        let expected = expected_events(&trace);
        for capacity in [3, lifepred_trace::POOLED_CHUNK_EVENTS] {
            assert_eq!(drain_events(&mapped, capacity).expect("decode"), expected);
        }
        let loaded = mapped.into_trace().expect("load");
        assert_eq!(loaded.records(), trace.records());
        assert_eq!(loaded.event_keys(), trace.event_keys());
        assert_eq!(loaded.end_seq(), trace.end_seq());
    }
}

#[test]
fn header_and_sections_are_exposed() {
    let bytes = trace_to_vec(&sample_trace(500)).expect("encode");
    assert_eq!(bytes[4..6], VERSION.to_le_bytes());
    let mapped = open(&bytes).expect("open");
    assert!(mapped.verified && !mapped.is_mapped());
    assert_eq!(mapped.file_len(), bytes.len());
    let sections = mapped.sections();
    assert_eq!(
        sections.map(|s| s.name),
        ["meta", "functions", "chains", "records", "events"]
    );
    let entries = [
        None,
        Some(mapped.registry().len() as u64),
        Some(mapped.chain_table().len() as u64),
        Some(mapped.record_count()),
        Some(mapped.end_seq()),
    ];
    assert_eq!(sections.map(|s| s.entries), entries);
    // 8 header bytes + 5 x (id + crc) + three one-byte lengths + the
    // two large sections' five-byte padded lengths of framing; payload
    // bytes account for the rest of the file.
    let payload_total: u64 = sections.iter().map(|s| s.payload_bytes).sum();
    assert_eq!(bytes.len() as u64 - payload_total, 8 + 5 * 5 + 3 + 2 * 5);
    assert_eq!(mapped.end_seq(), mapped.stats().total_objects * 2 - 1);
}

/// A forged record count reserves by bytes present, then fails typed.
#[test]
fn a_forged_record_count_cannot_size_a_reservation() {
    let mut parts = tiny();
    // Three immortal empty objects, allocated by the first three of
    // four events: the fourth reaches past the last record.
    let three = varints(&[0; 5].repeat(3));
    parts[3] = [varints(&[u64::MAX]), three.clone()].concat();
    parts[4] = varints(&[4, 0, 0, 0, 0]);
    let bytes = image(&parts);
    let mapped = open(&bytes).expect("the count is under an honest CRC");
    assert_eq!(mapped.record_count(), u64::MAX);
    let mut records = mapped.records().expect("records");
    assert_eq!(records.size_hint(), (3, Some(4)));
    assert!(records.size_hint().0 <= three.len() / MIN_RECORD_BYTES);
    assert!(records.by_ref().take(3).all(|r| r.is_ok()));
    let err = records.next().expect("a fourth item").expect_err("typed");
    let want = "malformed records section: value runs past the section payload";
    assert_eq!(err.to_string(), want);
    assert!(records.next().is_none(), "fused after the error");
    assert_eq!(records.size_hint().0, 0);
    assert_eq!(trace_from_bytes(&bytes).unwrap_err().to_string(), want);
}

/// Reads everything `open_unverified` lets a caller read: typed errors
/// or a completed decode, never a panic or a reservation the bytes
/// cannot back. Returns whether the records stream was handed out.
fn drain_unverified(bytes: &[u8], what: &str) -> bool {
    let Ok(mapped) = open_unverified(bytes) else {
        return false;
    };
    let _ = drain_events(&mapped, 5);
    let Ok(records) = mapped.records() else {
        return false;
    };
    let bound = bytes.len() / MIN_RECORD_BYTES;
    assert!(records.size_hint().0 <= bound, "{what}");
    assert!(records.count() <= bound + 1, "{what}");
    true
}

#[test]
fn every_truncation_is_an_error() {
    for (name, bytes) in fixtures() {
        open(&bytes).expect(name);
        for len in 0..bytes.len() {
            // The framing walk runs out of file before anything else
            // can go wrong, verified or not.
            for err in errors(&bytes[..len]) {
                let want = "truncated trace file while reading ";
                assert!(err.starts_with(want), "{name}: {len} bytes: {err}");
            }
        }
    }
}

#[test]
fn every_single_bit_flip_is_an_error() {
    for (name, bytes) in fixtures() {
        let framed = frame(&bytes).expect(name);
        let records = framed[3].payload.start..framed[3].payload.end + 4;
        assert!(drain_unverified(&bytes, name));
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let what = format!("{name}: bit {bit} of byte {at}");
                let mut damaged = bytes.clone();
                damaged[at] ^= 1 << bit;
                let err = open(&damaged).expect_err(&what).to_string();
                // A payload bit is the CRC's to find, and found at open.
                if let Some(hit) = framed.iter().position(|s| s.payload.contains(&at)) {
                    let want = format!("checksum mismatch in {} section", SECTIONS[hit].1);
                    assert!(err.starts_with(&want), "{what}: {err}");
                }
                assert!(trace_from_bytes(&damaged).is_err(), "{what} loaded");
                // No record out of a section whose CRC does not match.
                let yielded = drain_unverified(&damaged, &what);
                assert!(!(yielded && records.contains(&at)), "{what}");
            }
        }
    }
}

#[test]
fn section_length_lies_are_errors() {
    let bytes = fixtures()[0].1.clone();
    let [_, _, chains, records, events] = frame(&bytes).expect("frame");
    // The writer's five-byte padded length field.
    let len_at = chains.payload.end + 4 + 1;
    let body_at = records.payload.start;
    assert_eq!(len_at + 5, body_at);
    let with_len = |field: &[u8]| [&bytes[..len_at], field, &bytes[body_at..]].concat();
    let padded = |len: usize| {
        let mut field = varints(&[len as u64 | 1 << 28]);
        field[4] = (len >> 28) as u8;
        field
    };
    let len = records.payload.len();
    assert_eq!(with_len(&padded(len)), bytes);
    let fifth_continues = [&padded(len)[..4], &[0x80]].concat();
    let cut = |section: &str| format!("truncated trace file while reading {section}");
    let next_id = "malformed events section: expected section id 5, found ".to_owned();
    let cases = [
        // Swallowing the events section leaves none to frame.
        (padded(events.payload.end - body_at), cut("events")),
        (padded(len - 1), next_id.clone()),
        (padded(len + 1), next_id),
        (fifth_continues, cut("records")),
        (padded(bytes.len()), cut("records")),
        (varints(&[u64::MAX - 2]), cut("records")),
        (
            vec![0x80; 11],
            "malformed records section: invalid section length varint".to_owned(),
        ),
    ];
    for (field, want) in cases {
        for err in errors(&with_len(&field)) {
            assert!(err.starts_with(&want), "{field:02x?}: {err}");
        }
    }
}

/// Every framing check, by the error it reports.
#[test]
fn framing_violations_are_named() {
    let good = image(&tiny());
    let framed = frame(&good).expect("frame");
    let patch = |at: usize, byte: u8| [&good[..at], &[byte], &good[at + 1..]].concat();
    let chains_id_at = framed[2].payload.start - 2;
    let events_len_at = framed[4].payload.start - 1;
    let cases = [
        (
            b"not a trace file".to_vec(),
            "not a .lpt trace file (magic [6e, 6f, 74, 20])",
        ),
        (
            patch(4, 2),
            "unsupported .lpt format version 2 (this reader reads version 4)",
        ),
        (
            patch(6, 4),
            "malformed header section: version 4 carries 5 sections, header says 4",
        ),
        (
            patch(chains_id_at, 9),
            "malformed chains section: expected section id 3, found 9",
        ),
        (
            [&good[..events_len_at], &[0x80; 11]].concat(),
            "malformed events section: invalid section length varint",
        ),
        (
            [&good[..], &[0]].concat(),
            "malformed trailer section: trailing data after the final section",
        ),
        (
            good[..framed[3].payload.start + 2].to_vec(),
            "truncated trace file while reading records",
        ),
    ];
    for (bytes, want) in cases {
        assert_eq!(errors(&bytes), [want; 3]);
    }
}

/// Every structural check, by the section and detail it reports.
#[test]
fn structural_violations_are_named() {
    const M: u64 = u64::MAX;
    let v = varints;
    let poke = |part: usize, at: usize, byte: u8| {
        let mut payload = tiny()[part].clone();
        payload[at] = byte;
        payload
    };
    let one_more = |part: usize| [&tiny()[part][..], &[0]].concat();
    let overlong = [&b"\x01t"[..], &[0x80; 11]].concat();
    // (section, its payload, the detail the damage is reported with)
    let cases: [(usize, Vec<u8>, &str); 22] = [
        (0, poke(0, 1, 0xff), "program name is not UTF-8"),
        (0, poke(0, 0, 0x7f), "value runs past the section payload"),
        (0, one_more(0), "1 unread bytes at end of section"),
        (0, overlong, "invalid varint"),
        (1, poke(1, 2, 0xff), "function 0 name is not UTF-8"),
        (
            1,
            b"\x02\x01f\x01f".to_vec(),
            "duplicate function name \"f\"",
        ),
        (1, v(&[1 << 32]), "function count exceeds u32"),
        (1, poke(1, 0, 2), "value runs past the section payload"),
        (
            2,
            v(&[1, 1, 1]),
            "chain 0 references function id 1, registry has 1",
        ),
        (
            2,
            v(&[2, 1, 0, 1, 0]),
            "chain 1 duplicates an earlier chain",
        ),
        (2, v(&[1 << 32]), "chain count exceeds u32"),
        (2, v(&[1, M]), "value runs past the section payload"),
        (3, v(&[1, 1 << 32, 0, 0, 0, 0]), "record 0 size exceeds u32"),
        (3, poke(3, 2, 1), "record 0 references chain 1, table has 1"),
        (3, v(&[1, 8, 0, M, 0, 0]), "record 0 death clock overflows"),
        // Record 1 is born at clock 8.
        (
            3,
            v(&[2, 8, 0, 0, 0, 0, 4, 0, 0, 0, M, 0]),
            "record 1 first ref clock overflows",
        ),
        (
            3,
            v(&[1, 8, 0, 0, 0, 2, M]),
            "record 0 last ref clock overflows",
        ),
        (3, poke(3, 0, 3), "value runs past the section payload"),
        (3, one_more(3), "1 unread bytes at end of section"),
        (
            4,
            v(&[3, 16, 3, 8]),
            "free references an object never allocated",
        ),
        (4, v(&[3, 1 << 33, 8, 3]), "event size exceeds u32"),
        (4, one_more(4), "1 unread bytes at end of section"),
    ];
    for (part, payload, detail) in cases {
        let mut parts = tiny();
        parts[part] = payload;
        // Found by whichever layer reads the section: the open, the
        // records stream, the event chunks or the loader's walk.
        let want = format!("malformed {} section: {detail}", SECTIONS[part].1);
        assert_eq!(errors(&image(&parts)), [want.as_str(); 3]);
    }
    // A section that declares no entries must hold no bytes either.
    for part in [3, 4] {
        let mut parts = tiny();
        parts[part] = v(&[0, 0]);
        let err = drain(&open(&image(&parts)).expect("open")).unwrap_err();
        let section = SECTIONS[part].1;
        let want = format!("malformed {section} section: 1 unread bytes at end of section");
        assert_eq!(err.to_string(), want);
    }
}

/// The lockstep walk of `verify` and `load_trace`: sections that are
/// each well-formed on their own, but disagree on a fact that two of
/// them store.
#[test]
fn records_events_and_meta_that_disagree_are_rejected() {
    let named = |part: usize, values: &[u64]| match part {
        0 => (0, [&b"\x01t"[..], &varints(values)].concat()),
        _ => (part, varints(values)),
    };
    // tiny(): object 0 (8 bytes) is born at clock 0 and dies at clock
    // 12, freed by event 2; object 1 (4 bytes) is born at clock 8 and
    // never dies.
    let cases = [
        (
            named(4, &[3, 18, 8, 3]),
            "events section: event 0 allocates object 0: 9 bytes, its record says 8",
        ),
        (
            named(3, &[2, 8, 0, 4, 5, 0, 4, 0, 0, 0, 0]),
            "events section: event 2 frees object 0 at clock 12, \
             its record says it dies at clock 11",
        ),
        (
            named(4, &[3, 16, 8, 1]),
            "events section: event 2 frees object 1, but its record promises no death to come",
        ),
        (
            named(4, &[4, 16, 8, 3, 3]),
            "events section: event 3 frees object 0, but its record promises no death to come",
        ),
        (
            named(4, &[4, 16, 8, 3, 8]),
            "events section: event 3 allocates object 2, past the last record",
        ),
        (
            named(4, &[2, 16, 8]),
            "events section: object 0 dies at clock 12, past the last event",
        ),
        (
            named(3, &[3, 8, 0, 5, 5, 0, 4, 0, 0, 0, 0, 4, 0, 0, 0, 0]),
            "records section: record 2 is never allocated",
        ),
        (
            named(0, &[12, 3, 12, 2, 0, 0, 5, 0]),
            "meta section: the events give total objects 2, the header says 3",
        ),
        (
            named(0, &[11, 2, 12, 2, 0, 0, 5, 0]),
            "meta section: the events give total bytes 12, the header says 11",
        ),
    ];
    let consistent = open(&image(&tiny())).expect("open");
    consistent.verify().expect("tiny() is one story");
    for ((part, payload), detail) in cases {
        let mut parts = tiny();
        parts[part] = payload;
        let bytes = image(&parts);
        // The sections have no quarrel with themselves.
        let mapped = open(&bytes).expect("open");
        drain(&mapped).expect("well-formed sections");
        let want = format!("malformed {detail}");
        assert_eq!(mapped.verify().expect_err(detail).to_string(), want);
        assert_eq!(
            trace_from_bytes(&bytes).expect_err(detail).to_string(),
            want
        );
    }
}
