//! Tests of the one reader: ground truth on well-formed images, and
//! hostile input (truncations, bit flips, lying lengths and counts,
//! every structural violation, sections that do not tell one story) on
//! two small fixtures — an image from the writer (five-byte padded
//! large-section lengths) and a hand-built one (one-byte lengths).

use super::*;
use crate::crc32::crc32;
use crate::{trace_from_bytes, trace_to_vec};
use lifepred_trace::varint::write_varint;
use lifepred_trace::{ChunkEvent, TraceSession};

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

/// Decodes the three large sections to the end.
fn drain(mapped: &MappedTrace) -> Result<(), TraceFileError> {
    mapped.chain_ids()?.try_for_each(|c| c.map(drop))?;
    mapped.touches()?.try_for_each(|t| t.map(drop))?;
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

/// Frames six raw payloads into an image, lengths and CRCs honest.
fn image(payloads: &[Vec<u8>; 6]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&SECTION_COUNT.to_le_bytes());
    for (id, payload) in (1..).zip(payloads) {
        out.push(id);
        write_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
    }
    out
}

/// Payloads of a tiny well-formed trace: one function, one chain, an
/// 8-byte object born at clock 0, referenced 5 times between clocks 8
/// and 12 and freed at clock 12 by the third event, and an untouched
/// immortal 4-byte object born at clock 8.
fn tiny() -> [Vec<u8>; 6] {
    // Name, then the eight stats counters.
    let meta = [&b"\x01t"[..], &varints(&[12, 2, 12, 2, 0, 0, 5, 0])].concat();
    let functions = b"\x01\x01f".to_vec();
    let chains = varints(&[1, 1, 0]);
    // Count, then one chain id per object.
    let chain_ids = varints(&[2, 0, 0]);
    // Count, then per object: refs and, when there are any, the bytes
    // from its birth to its first reference and from that to its last.
    let touches = varints(&[2, 5, 8, 4, 0]);
    // Count, then one key per event: alloc 8, alloc 4, free one back.
    let events = varints(&[3, 8 << 1, 4 << 1, (1 << 1) | 1]);
    [meta, functions, chains, chain_ids, touches, events]
}

/// The two fixtures every hostile sweep runs over.
fn fixtures() -> [(&'static str, Vec<u8>); 2] {
    [
        ("writer", trace_to_vec(&sample_trace(12)).expect("encode")),
        ("hand-built", image(&tiny())),
    ]
}

#[test]
fn header_columns_and_events_are_the_recorded_traces_own() {
    let empty = TraceSession::new("empty").finish();
    for trace in [sample_trace(20_000), empty] {
        let mapped = open(&trace_to_vec(&trace).expect("encode")).expect("open");
        assert_eq!(mapped.name(), trace.name());
        assert_eq!(mapped.stats(), trace.stats());
        assert_eq!(mapped.registry().len(), trace.registry().len());
        assert_eq!(mapped.chain_table().len(), trace.chains().len());
        let chain_ids = mapped.chain_ids().expect("chain ids");
        assert_eq!(chain_ids.size_hint().0, trace.records().len());
        let chain_ids: Vec<_> = chain_ids.collect::<Result<_, _>>().expect("decode");
        let touches: Vec<_> = (mapped.touches().expect("touches"))
            .collect::<Result<_, _>>()
            .expect("decode");
        for (i, r) in trace.records().iter().enumerate() {
            assert_eq!(chain_ids[i], r.chain);
            assert_eq!(Some(touches[i]), Touch::of(r));
        }
        // One encoding: the section holds the keys the session recorded.
        let keys = &mapped.map.as_bytes()[mapped.bodies[EVENTS].clone()];
        assert_eq!(keys, trace.event_keys());
        let expected = expected_events(&trace);
        for capacity in [3, lifepred_trace::POOLED_CHUNK_EVENTS] {
            assert_eq!(drain_events(&mapped, capacity).expect("decode"), expected);
        }
        let records: Vec<_> = (mapped.records().expect("records"))
            .collect::<Result<_, _>>()
            .expect("rebuild");
        assert_eq!(records, trace.records());
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
        [
            "meta",
            "functions",
            "chains",
            "chain ids",
            "touches",
            "events"
        ]
    );
    let entries = [
        None,
        Some(mapped.registry().len() as u64),
        Some(mapped.chain_table().len() as u64),
        Some(mapped.record_count()),
        Some(mapped.record_count()),
        Some(mapped.end_seq()),
    ];
    assert_eq!(sections.map(|s| s.entries), entries);
    // 8 header bytes + 6 x (id + crc) + three one-byte lengths + the
    // three large sections' five-byte padded lengths of framing; payload
    // bytes account for the rest of the file.
    let payload_total: u64 = sections.iter().map(|s| s.payload_bytes).sum();
    assert_eq!(bytes.len() as u64 - payload_total, 8 + 6 * 5 + 3 + 3 * 5);
    assert_eq!(mapped.end_seq(), mapped.stats().total_objects * 2 - 1);
}

/// A forged column count reserves by bytes present, then fails typed.
#[test]
fn a_forged_column_count_cannot_size_a_reservation() {
    let mut parts = tiny();
    // Three empty objects, allocated by the first three of four events:
    // the fourth reaches past the chain column's last entry.
    parts[3] = varints(&[u64::MAX, 0, 0, 0]);
    parts[4] = varints(&[4, 0, 0, 0, 0]);
    parts[5] = varints(&[4, 0, 0, 0, 0]);
    let bytes = image(&parts);
    let mapped = open(&bytes).expect("the count is under an honest CRC");
    assert_eq!(mapped.record_count(), u64::MAX);
    let mut chain_ids = mapped.chain_ids().expect("chain ids");
    assert_eq!(chain_ids.size_hint(), (3, Some(4)));
    assert!(chain_ids.by_ref().take(3).all(|c| c.is_ok()));
    let err = chain_ids.next().expect("a fourth item").expect_err("typed");
    let want = "malformed chain ids section: value runs past the section payload";
    assert_eq!(err.to_string(), want);
    assert!(chain_ids.next().is_none(), "fused after the error");
    assert_eq!(chain_ids.size_hint().0, 0);
    assert_eq!(trace_from_bytes(&bytes).unwrap_err().to_string(), want);
}

/// Reads everything `open_unverified` lets a caller read: typed errors
/// or a completed decode, never a panic or a reservation the bytes
/// cannot back. Returns whether both columns were handed out.
fn drain_unverified(bytes: &[u8], what: &str) -> bool {
    let Ok(mapped) = open_unverified(bytes) else {
        return false;
    };
    let _ = drain_events(&mapped, 5);
    let (Ok(chain_ids), Ok(touches)) = (mapped.chain_ids(), mapped.touches()) else {
        return false;
    };
    // Every entry takes a byte.
    let bound = bytes.len();
    assert!(chain_ids.size_hint().0 <= bound, "{what}");
    assert!(touches.size_hint().0 <= bound, "{what}");
    assert!(chain_ids.count() <= bound + 1, "{what}");
    assert!(touches.count() <= bound + 1, "{what}");
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
        let columns = framed[3].payload.start..framed[4].payload.end + 4;
        assert!(drain_unverified(&bytes, name));
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let what = format!("{name}: bit {bit} of byte {at}");
                let mut damaged = bytes.clone();
                damaged[at] ^= 1 << bit;
                let err = open(&damaged).expect_err(&what).to_string();
                // A payload bit is the CRC's to find, and found at open.
                if let Some(hit) = framed.iter().position(|s| s.payload.contains(&at)) {
                    let want = format!("checksum mismatch in {} section", SECTIONS[hit]);
                    assert!(err.starts_with(&want), "{what}: {err}");
                }
                assert!(trace_from_bytes(&damaged).is_err(), "{what} loaded");
                // No entry out of a section whose CRC does not match.
                let yielded = drain_unverified(&damaged, &what);
                assert!(!(yielded && columns.contains(&at)), "{what}");
            }
        }
    }
}

#[test]
fn section_length_lies_are_errors() {
    let bytes = fixtures()[0].1.clone();
    let [_, _, chains, chain_ids, _, events] = frame(&bytes).expect("frame");
    // The writer's five-byte padded length field.
    let len_at = chains.payload.end + 4 + 1;
    let body_at = chain_ids.payload.start;
    assert_eq!(len_at + 5, body_at);
    let with_len = |field: &[u8]| [&bytes[..len_at], field, &bytes[body_at..]].concat();
    let padded = |len: usize| {
        let mut field = varints(&[len as u64 | 1 << 28]);
        field[4] = (len >> 28) as u8;
        field
    };
    let len = chain_ids.payload.len();
    assert_eq!(with_len(&padded(len)), bytes);
    let fifth_continues = [&padded(len)[..4], &[0x80]].concat();
    let cut = |section: &str| format!("truncated trace file while reading {section}");
    let next_id = "malformed touches section: expected section id 5, found ".to_owned();
    let cases = [
        // Swallowing the sections after it leaves none to frame.
        (padded(events.payload.end - body_at), cut("touches")),
        (padded(len - 1), next_id.clone()),
        (padded(len + 1), next_id),
        (fifth_continues, cut("chain ids")),
        (padded(bytes.len()), cut("chain ids")),
        (varints(&[u64::MAX - 2]), cut("chain ids")),
        (
            vec![0x80; 11],
            "malformed chain ids section: invalid section length varint".to_owned(),
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
    let events_len_at = framed[5].payload.start - 1;
    let cases = [
        (
            b"not a trace file".to_vec(),
            "not a .lpt trace file (magic [6e, 6f, 74, 20])",
        ),
        (
            patch(4, 2),
            "unsupported .lpt format version 2 (this reader reads version 5)",
        ),
        (
            patch(6, 4),
            "malformed header section: version 5 carries 6 sections, header says 4",
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
            "truncated trace file while reading chain ids",
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
    let cases: [(usize, Vec<u8>, &str); 20] = [
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
        (3, poke(3, 1, 1), "object 0 references chain 1, table has 1"),
        (3, poke(3, 0, 3), "value runs past the section payload"),
        (3, one_more(3), "1 unread bytes at end of section"),
        (4, poke(4, 0, 3), "value runs past the section payload"),
        (4, one_more(4), "1 unread bytes at end of section"),
        (
            5,
            v(&[3, 16, 3, 8]),
            "free references an object never allocated",
        ),
        (5, v(&[3, 1 << 33, 8, 3]), "event size exceeds u32"),
        (5, one_more(5), "1 unread bytes at end of section"),
    ];
    for (part, payload, detail) in cases {
        let mut parts = tiny();
        parts[part] = payload;
        // Found by whichever layer reads the section: the open, a
        // column, the event chunks or the loader's walk.
        let want = format!("malformed {} section: {detail}", SECTIONS[part]);
        assert_eq!(errors(&image(&parts)), [want.as_str(); 3]);
    }
    // A section that declares no entries must hold no bytes either.
    for part in [3, 4, 5] {
        let mut parts = tiny();
        parts[part] = v(&[0, 0]);
        let err = drain(&open(&image(&parts)).expect("open")).unwrap_err();
        let section = SECTIONS[part];
        let want = format!("malformed {section} section: 1 unread bytes at end of section");
        assert_eq!(err.to_string(), want);
    }
}

/// The payloads of `tiny()` with section `part` replaced by `values`
/// (the meta section keeps its name).
fn tiny_with(part: usize, values: &[u64]) -> [Vec<u8>; 6] {
    let mut parts = tiny();
    parts[part] = match part {
        0 => [&b"\x01t"[..], &varints(values)].concat(),
        _ => varints(values),
    };
    parts
}

/// `parts` open, and then the walk of `verify` and `load_trace` refuses
/// them, each with `malformed {detail}`.
fn refused_by_the_walk(parts: &[Vec<u8>; 6], detail: &str) {
    let bytes = image(parts);
    let mapped = open(&bytes).expect("open");
    let want = format!("malformed {detail}");
    assert_eq!(mapped.verify().expect_err(detail).to_string(), want);
    assert_eq!(
        trace_from_bytes(&bytes).expect_err(detail).to_string(),
        want
    );
}

/// The walk of `verify` and `load_trace`: sections that are each
/// well-formed on their own, but do not tell one story, or tell one
/// the header does not.
#[test]
fn records_events_and_meta_that_disagree_are_rejected() {
    // tiny(): object 0 (8 bytes) is born at clock 0 and dies at clock
    // 12, freed by event 2; object 1 (4 bytes) is born at clock 8 and
    // never dies. Both are live at clock 12, and object 0 has 5 refs.
    let cases = [
        (
            tiny_with(5, &[4, 16, 8, 3, 3]),
            "events section: event 3 frees object 0, which is not live",
        ),
        (
            tiny_with(5, &[4, 16, 8, 3, 8]),
            "chain ids section: event 3 allocates object 2, past the last entry",
        ),
        (
            tiny_with(3, &[3, 0, 0, 0]),
            "chain ids section: more entries than the 2 allocations",
        ),
        (
            tiny_with(4, &[3, 5, 8, 4, 0, 0]),
            "touches section: more entries than the 2 allocations",
        ),
        (
            tiny_with(0, &[12, 3, 12, 2, 0, 0, 5, 0]),
            "meta section: the walk gives total objects 2, the header says 3",
        ),
        (
            tiny_with(0, &[11, 2, 12, 2, 0, 0, 5, 0]),
            "meta section: the walk gives total bytes 12, the header says 11",
        ),
        (
            tiny_with(0, &[12, 2, 120, 2, 0, 0, 5, 0]),
            "meta section: the walk gives max live bytes 12, the header says 120",
        ),
        (
            tiny_with(0, &[12, 2, 12, 20, 0, 0, 5, 0]),
            "meta section: the walk gives max live objects 2, the header says 20",
        ),
        (
            tiny_with(0, &[12, 2, 12, 2, 0, 0, 12_350, 0]),
            "meta section: the walk gives heap refs 5, the header says 12350",
        ),
        // A size swap or a lifetime one off has no second copy to
        // disagree with: it is another trace, whose totals the header
        // does not give.
        (
            tiny_with(5, &[3, 18, 8, 3]),
            "meta section: the walk gives total bytes 13, the header says 12",
        ),
    ];
    let consistent = open(&image(&tiny())).expect("open");
    consistent.verify().expect("tiny() is one story");
    for (parts, detail) in cases {
        // The sections have no quarrel with themselves.
        drain(&open(&image(&parts)).expect("open")).expect("well-formed sections");
        refused_by_the_walk(&parts, detail);
    }
}

/// What a v5 image can still get wrong that no single section's decoder
/// sees: a column an entry short, an entry past the chain table, a
/// touch whose clocks leave the byte clock's range.
#[test]
fn columns_that_do_not_fit_the_events_are_refused_by_the_walk() {
    const M: u64 = u64::MAX;
    let cases = [
        (
            tiny_with(3, &[1, 0]),
            "chain ids section: event 1 allocates object 1, past the last entry",
        ),
        (
            tiny_with(4, &[1, 5, 8, 4]),
            "touches section: event 1 allocates object 1, past the last entry",
        ),
        (
            tiny_with(3, &[2, 0, 1]),
            "chain ids section: object 1 references chain 1, table has 1",
        ),
        (
            tiny_with(4, &[2, 5, M, 4, 0]),
            "touches section: object 0's clocks overflow",
        ),
        (
            tiny_with(4, &[2, 5, 8, M, 0]),
            "touches section: object 0's clocks overflow",
        ),
    ];
    for (parts, detail) in cases {
        refused_by_the_walk(&parts, detail);
    }
}
