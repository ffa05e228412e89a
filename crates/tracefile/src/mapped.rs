//! Zero-copy `.lpt` decoding over a [`TraceMap`].
//!
//! The streaming readers pull payload bytes through `Read`, which
//! costs a copy into a slab plus per-call dispatch. [`MappedTrace`]
//! removes the copies: it scans the section framing once, verifies
//! every section checksum with one bulk slice-by-8 CRC pass, and then
//! hands the decode loops *borrowed* sub-slices of the mapping. The
//! borrow is what makes this safe — every slice carries the
//! `MappedTrace`'s lifetime, so the mapping cannot be unmapped while a
//! decoder can still read it (see `map.rs` for the mapping's own
//! safety argument).
//!
//! Integrity checks match the streaming paths exactly, they just run
//! at different times: framing, trailer and all five CRCs are checked
//! up front in [`MappedTrace::open`], while structural event checks
//! (size bounds, free back-references, count-vs-payload agreement)
//! still run per event in [`MappedEvents`]. Truncation and corruption
//! therefore surface the same typed [`TraceFileError`] variants as
//! [`TraceReader`](crate::TraceReader), only earlier.

use crate::batch;
use crate::crc32::crc32;
use crate::error::TraceFileError;
use crate::format::{
    SECTION_CHAINS, SECTION_EVENTS, SECTION_FUNCTIONS, SECTION_META, SECTION_RECORDS,
};
use crate::map::TraceMap;
use crate::reader::{HeaderParts, RecordsIter, TraceReader};
use lifepred_trace::{
    ChainTable, ChunkSource, EventChunk, FunctionRegistry, RecordSource, TraceStats,
};
use std::ops::Range;
use std::path::Path;

/// Fixed header size: magic + version + section count.
const HEADER_BYTES: usize = 8;

/// Byte layout of one section inside the file.
#[derive(Debug, Clone)]
struct Section {
    name: &'static str,
    /// Payload bytes (the stored CRC is the 4 bytes after this range).
    payload: Range<usize>,
}

/// Framing and counts of one section, as reported by
/// [`MappedTrace::sections`] — enough for `inspect` to describe a
/// multi-gigabyte trace without decoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section name (`"meta"`, `"functions"`, `"chains"`, `"records"`,
    /// `"events"`).
    pub name: &'static str,
    /// Payload length in bytes (excluding framing and CRC).
    pub payload_bytes: u64,
    /// Entry count for the counted sections (functions, chains,
    /// records, events); `None` for meta.
    pub entries: Option<u64>,
}

/// A fully-framed `.lpt` image: header parsed, section ranges known,
/// checksums verified (unless opened with
/// [`MappedTrace::open_unverified`]), bodies borrowed straight from
/// the underlying [`TraceMap`].
#[derive(Debug)]
pub struct MappedTrace {
    map: TraceMap,
    version: u16,
    name: String,
    stats: TraceStats,
    end_clock: u64,
    end_seq: u64,
    registry: FunctionRegistry,
    chains: ChainTable,
    records: Section,
    events: Section,
    record_count: u64,
    event_count: u64,
    /// Offset of the first event, past the events section's count
    /// varint.
    events_body: usize,
    verified: bool,
}

impl MappedTrace {
    /// Opens and fully verifies the `.lpt` file at `path`: framing,
    /// trailer, and all five section CRCs (one bulk pass per section).
    ///
    /// # Errors
    ///
    /// I/O failures, or any of the [`TraceFileError`] variants the
    /// streaming reader reports for a damaged file.
    pub fn open(path: impl AsRef<Path>) -> Result<MappedTrace, TraceFileError> {
        MappedTrace::from_map(TraceMap::open(path)?)
    }

    /// Opens the file checking framing and the three header sections
    /// but *not* the records/events checksums — the fast path for
    /// `inspect`, which wants counts and a peek at the stream without
    /// paging in gigabytes of payload.
    pub fn open_unverified(path: impl AsRef<Path>) -> Result<MappedTrace, TraceFileError> {
        MappedTrace::build(TraceMap::open(path)?, false)
    }

    /// Wraps and fully verifies an already-loaded image.
    pub fn from_map(map: TraceMap) -> Result<MappedTrace, TraceFileError> {
        MappedTrace::build(map, true)
    }

    fn build(map: TraceMap, verify: bool) -> Result<MappedTrace, TraceFileError> {
        // The streaming reader parses and CRC-checks the header and the
        // three small sections (meta, functions, chains); reusing it
        // keeps one source of truth for their encodings.
        let bytes = map.as_bytes();
        let header = TraceReader::new(bytes)?.into_parts();

        // Frame all five sections from the map. The small ones were
        // just parsed, but walking them again costs microseconds and
        // yields their exact byte ranges for `sections()`.
        let mut pos = HEADER_BYTES;
        let mut frame = |expected_id: u8, name: &'static str| -> Result<Section, TraceFileError> {
            let id = *bytes
                .get(pos)
                .ok_or(TraceFileError::Truncated { section: name })?;
            if id != expected_id {
                return Err(TraceFileError::malformed(
                    name,
                    format!("expected section id {expected_id}, found {id}"),
                ));
            }
            pos += 1;
            let len = match batch::take_varint(bytes, &mut pos) {
                Ok(v) => v,
                Err(batch::VarintErr::OutOfBytes) => {
                    return Err(TraceFileError::Truncated { section: name })
                }
                Err(batch::VarintErr::Invalid) => {
                    return Err(TraceFileError::malformed(
                        name,
                        "invalid section length varint",
                    ))
                }
            };
            let start = pos;
            let end = u64::try_from(start)
                .ok()
                .and_then(|s| s.checked_add(len))
                .and_then(|e| usize::try_from(e).ok())
                .filter(|&e| e.checked_add(4).is_some_and(|c| c <= bytes.len()))
                .ok_or(TraceFileError::Truncated { section: name })?;
            pos = end + 4;
            Ok(Section {
                name,
                payload: start..end,
            })
        };
        let _meta = frame(SECTION_META, "meta")?;
        let _functions = frame(SECTION_FUNCTIONS, "functions")?;
        let _chains = frame(SECTION_CHAINS, "chains")?;
        let records = frame(SECTION_RECORDS, "records")?;
        let events = frame(SECTION_EVENTS, "events")?;
        if pos != bytes.len() {
            return Err(TraceFileError::malformed(
                "trailer",
                "trailing data after the final section",
            ));
        }

        if verify {
            let _span = lifepred_flight::span_arg(
                lifepred_flight::catalog::TRACEFILE_MAP_VERIFY,
                (records.payload.len() + events.payload.len()) as u64,
            );
            for section in [&records, &events] {
                let stored_at = section.payload.end;
                let stored = u32::from_le_bytes(
                    bytes[stored_at..stored_at + 4]
                        .try_into()
                        .expect("4 crc bytes framed above"),
                );
                let computed = crc32(&bytes[section.payload.clone()]);
                if stored != computed {
                    return Err(TraceFileError::ChecksumMismatch {
                        section: section.name,
                        stored,
                        computed,
                    });
                }
            }
        }

        // Section entry counts live at the head of each payload.
        let take_count = |section: &Section| -> Result<(u64, usize), TraceFileError> {
            let payload = &bytes[section.payload.clone()];
            let mut at = 0usize;
            match batch::take_varint(payload, &mut at) {
                Ok(v) => Ok((v, section.payload.start + at)),
                Err(batch::VarintErr::OutOfBytes) => Err(TraceFileError::malformed(
                    section.name,
                    "value runs past the section payload",
                )),
                Err(batch::VarintErr::Invalid) => {
                    Err(TraceFileError::malformed(section.name, "invalid varint"))
                }
            }
        };
        let (record_count, _) = take_count(&records)?;
        let (event_count, events_body) = take_count(&events)?;

        let HeaderParts {
            version,
            name,
            stats,
            end_clock,
            end_seq,
            registry,
            chains,
        } = header;
        Ok(MappedTrace {
            map,
            version,
            name,
            stats,
            end_clock,
            end_seq,
            registry,
            chains,
            records,
            events,
            record_count,
            event_count,
            events_body,
            verified: verify,
        })
    }

    /// The file's format version (1 or 2).
    pub fn version(&self) -> u16 {
        self.version
    }

    /// The traced program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Aggregate statistics from the meta section.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Byte clock at end of trace.
    pub fn end_clock(&self) -> u64 {
        self.end_clock
    }

    /// Event sequence count at end of trace.
    pub fn end_seq(&self) -> u64 {
        self.end_seq
    }

    /// The function registry, rebuilt from the functions section.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The chain table, rebuilt from the chains section.
    pub fn chain_table(&self) -> &ChainTable {
        &self.chains
    }

    /// Declared number of allocation records.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Declared number of events.
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.map.len()
    }

    /// Whether the bytes are `mmap`-backed (as opposed to a heap
    /// copy) — see [`TraceMap::is_mapped`].
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Whether the records/events checksums were verified at open.
    pub fn is_verified(&self) -> bool {
        self.verified
    }

    /// Per-section framing and counts, in file order.
    pub fn sections(&self) -> [SectionInfo; 5] {
        // Re-walk the framing for the three small sections' sizes; the
        // walk cannot fail after `build` succeeded.
        let bytes = self.map.as_bytes();
        let mut pos = HEADER_BYTES;
        let mut small = |name: &'static str| -> SectionInfo {
            pos += 1;
            let len = batch::take_varint(bytes, &mut pos).expect("framed at open");
            let start = pos;
            pos += len as usize + 4;
            let payload = &bytes[start..start + len as usize];
            let entries = (name != "meta").then(|| {
                let mut at = 0;
                batch::take_varint(payload, &mut at).expect("counted at open")
            });
            SectionInfo {
                name,
                payload_bytes: len,
                entries,
            }
        };
        let meta = small("meta");
        let functions = small("functions");
        let chains = small("chains");
        [
            meta,
            functions,
            chains,
            SectionInfo {
                name: "records",
                payload_bytes: self.records.payload.len() as u64,
                entries: Some(self.record_count),
            },
            SectionInfo {
                name: "events",
                payload_bytes: self.events.payload.len() as u64,
                entries: Some(self.event_count),
            },
        ]
    }

    /// Streams the records section from the mapping, one
    /// [`AllocationRecord`](lifepred_trace::AllocationRecord) at a
    /// time, with the same decode checks and final CRC verification as
    /// [`TraceReader::into_records`](crate::TraceReader::into_records).
    ///
    /// # Errors
    ///
    /// A malformed record-count varint.
    pub fn records(&self) -> Result<RecordsIter<&[u8]>, TraceFileError> {
        let bytes = self.map.as_bytes();
        let body = &bytes[self.records.payload.start..self.records.payload.end + 4];
        RecordsIter::over_slice(
            body,
            self.records.payload.len() as u64,
            self.chains.len() as u64,
            self.version,
        )
    }

    /// [`records`](Self::records) with the chain table and end clock a
    /// records walk needs beside them: the streamed counterpart of
    /// `RecordSource::from(&trace)`.
    ///
    /// # Errors
    ///
    /// A malformed record-count varint.
    pub fn record_source(&self) -> Result<RecordSource<'_, RecordsIter<&[u8]>>, TraceFileError> {
        Ok(RecordSource {
            name: &self.name,
            chains: &self.chains,
            end_clock: self.end_clock,
            records: self.records()?,
        })
    }

    /// The zero-copy batch event source: decodes straight from the
    /// mapped events payload into the caller's
    /// [`EventChunk`](lifepred_trace::EventChunk)s with the SWAR
    /// varint decoder. The section CRC was already verified at open
    /// (unless [`open_unverified`](Self::open_unverified) was used);
    /// structural checks still run per event.
    pub fn events(&self) -> MappedEvents<'_> {
        MappedEvents {
            buf: &self.map.as_bytes()[self.events_body..self.events.payload.end],
            pos: 0,
            remaining: self.event_count,
            allocs: 0,
            done: false,
        }
    }
}

/// Borrowed [`ChunkSource`] over a [`MappedTrace`]'s events payload.
///
/// After the final chunk, or after any error, the source fuses:
/// further calls return `Ok(false)`.
#[derive(Debug)]
pub struct MappedEvents<'a> {
    /// Events payload, past the count varint.
    buf: &'a [u8],
    pos: usize,
    remaining: u64,
    /// Allocation events decoded so far — the base free back-references
    /// resolve against.
    allocs: u64,
    done: bool,
}

impl ChunkSource for MappedEvents<'_> {
    type Error = TraceFileError;

    fn next_chunk(&mut self, chunk: &mut EventChunk) -> Result<bool, TraceFileError> {
        chunk.clear();
        if self.done {
            return Ok(false);
        }
        // Hoist the cursor and allocation count into locals: each
        // decode_event pushes exactly one event, so the chunk fill is a
        // counted loop with no per-event field round-trips.
        let n = (chunk.target() as u64).min(self.remaining);
        let mut pos = self.pos;
        let mut allocs = self.allocs;
        for _ in 0..n {
            if let Err(e) = batch::decode_event(self.buf, &mut pos, &mut allocs, chunk) {
                self.done = true;
                chunk.clear();
                return Err(e);
            }
        }
        self.pos = pos;
        self.allocs = allocs;
        self.remaining -= n;
        if self.remaining == 0 {
            self.done = true;
            let leftover = self.buf.len() - self.pos;
            if leftover != 0 {
                chunk.clear();
                return Err(TraceFileError::malformed(
                    "events",
                    format!("{leftover} unread bytes at end of section"),
                ));
            }
        }
        Ok(!chunk.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trace_to_vec, TraceEvent, TraceReader};
    use lifepred_trace::{ChunkEvent, TraceSession};

    fn sample_bytes(objects: u32) -> Vec<u8> {
        let s = TraceSession::new("mapped");
        let mut held = Vec::new();
        {
            let _g = s.enter("site");
            for i in 0..objects {
                let id = s.alloc(i % 900 + 1);
                if i % 4 == 0 {
                    held.push(id);
                } else {
                    s.free(id);
                }
            }
        }
        for id in held {
            s.free(id);
        }
        trace_to_vec(&s.finish()).expect("encode")
    }

    fn collect_mapped(bytes: &[u8]) -> Result<Vec<ChunkEvent>, TraceFileError> {
        let mapped = MappedTrace::from_map(TraceMap::from_vec(bytes.to_vec()))?;
        let mut src = mapped.events();
        let mut chunk = EventChunk::new();
        let mut events = Vec::new();
        while src.next_chunk(&mut chunk)? {
            events.extend(chunk.events());
        }
        Ok(events)
    }

    #[test]
    fn mapped_decode_matches_the_event_iterator() {
        let bytes = sample_bytes(20_000);
        let mapped = collect_mapped(&bytes).expect("mapped decode");
        let streamed: Vec<TraceEvent> = TraceReader::new(&bytes[..])
            .expect("open")
            .into_events()
            .expect("events")
            .collect::<Result<_, _>>()
            .expect("stream");
        assert_eq!(mapped.len(), streamed.len());
        for (m, s) in mapped.iter().zip(&streamed) {
            match (*m, *s) {
                (
                    ChunkEvent::Alloc { record, size },
                    TraceEvent::Alloc {
                        record: r,
                        size: sz,
                        ..
                    },
                ) => {
                    assert_eq!(record as u64, r);
                    assert_eq!(size, sz);
                }
                (ChunkEvent::Free { record }, TraceEvent::Free { record: r, .. }) => {
                    assert_eq!(record as u64, r);
                }
                other => panic!("event kind mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn mapped_records_match_streaming_records() {
        let bytes = sample_bytes(2_000);
        let mapped = MappedTrace::from_map(TraceMap::from_vec(bytes.clone())).expect("open");
        let from_map: Vec<_> = mapped
            .records()
            .expect("records")
            .collect::<Result<_, _>>()
            .expect("decode");
        let streamed: Vec<_> = TraceReader::new(&bytes[..])
            .expect("open")
            .into_records()
            .expect("records")
            .collect::<Result<_, _>>()
            .expect("decode");
        assert_eq!(from_map, streamed);
        assert_eq!(mapped.record_count(), streamed.len() as u64);
    }

    #[test]
    fn header_and_sections_are_exposed() {
        let bytes = sample_bytes(500);
        let mapped = MappedTrace::from_map(TraceMap::from_vec(bytes.clone())).expect("open");
        assert_eq!(mapped.name(), "mapped");
        assert_eq!(mapped.version(), 2);
        assert!(mapped.is_verified());
        assert_eq!(mapped.file_len(), bytes.len());
        let sections = mapped.sections();
        assert_eq!(
            sections.map(|s| s.name),
            ["meta", "functions", "chains", "records", "events"]
        );
        assert_eq!(sections[4].entries, Some(mapped.event_count()));
        assert_eq!(sections[3].entries, Some(mapped.record_count()));
        assert_eq!(sections[1].entries, Some(mapped.registry().len() as u64));
        // Framing overhead only: 8 header bytes + 5 x (id + len varint
        // + crc). Payload bytes must account for the rest of the file.
        let payload_total: u64 = sections.iter().map(|s| s.payload_bytes).sum();
        assert!(payload_total < bytes.len() as u64);
        assert_eq!(mapped.event_count(), mapped.stats().total_objects * 2);
    }

    #[test]
    fn flipped_byte_fails_at_open_not_at_decode() {
        let bytes = sample_bytes(1_000);
        let mut corrupt = bytes.clone();
        let idx = corrupt.len() - 12;
        corrupt[idx] ^= 0x40;
        let err = MappedTrace::from_map(TraceMap::from_vec(corrupt.clone()))
            .expect_err("corruption detected at open");
        assert!(
            matches!(err, TraceFileError::ChecksumMismatch { .. }),
            "{err}"
        );
        // Unverified mode defers to the structural checks, which may or
        // may not notice a flipped payload byte — but must never panic.
        let unverified = MappedTrace::build(TraceMap::from_vec(corrupt), false);
        if let Ok(m) = unverified {
            let mut src = m.events();
            let mut chunk = EventChunk::new();
            while matches!(src.next_chunk(&mut chunk), Ok(true)) {}
        }
    }

    #[test]
    fn truncation_is_reported_at_every_length() {
        let bytes = sample_bytes(100);
        for len in 0..bytes.len() {
            assert!(
                MappedTrace::from_map(TraceMap::from_vec(bytes[..len].to_vec())).is_err(),
                "prefix of {len} bytes opened successfully"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample_bytes(10);
        bytes.push(0);
        let err = MappedTrace::from_map(TraceMap::from_vec(bytes)).unwrap_err();
        assert!(matches!(err, TraceFileError::Malformed { .. }), "{err}");
    }

    #[test]
    fn source_fuses_after_the_final_chunk() {
        let bytes = sample_bytes(10);
        let mapped = MappedTrace::from_map(TraceMap::from_vec(bytes)).expect("open");
        let mut src = mapped.events();
        let mut chunk = EventChunk::new();
        assert!(src.next_chunk(&mut chunk).expect("first"));
        assert!(!src.next_chunk(&mut chunk).expect("fused"));
        assert!(!src.next_chunk(&mut chunk).expect("still fused"));
        assert!(chunk.is_empty());
    }

    #[test]
    fn empty_trace_decodes_to_no_chunks() {
        let bytes = trace_to_vec(&TraceSession::new("empty").finish()).expect("encode");
        assert_eq!(collect_mapped(&bytes).expect("decode"), Vec::new());
    }

    #[test]
    fn mapped_file_roundtrip() {
        let bytes = sample_bytes(5_000);
        let dir = std::env::temp_dir().join(format!("lpt-mapped-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("roundtrip.lpt");
        std::fs::write(&path, &bytes).expect("write");
        let mapped = MappedTrace::open(&path).expect("open");
        let mut src = mapped.events();
        let mut chunk = EventChunk::new();
        let mut total = 0usize;
        while src.next_chunk(&mut chunk).expect("decode") {
            total += chunk.len();
        }
        assert_eq!(total as u64, mapped.event_count());
        drop(mapped);
        std::fs::remove_dir_all(&dir).ok();
    }
}
