//! The `.lpt` reader: one slice decoder over a [`TraceMap`].
//!
//! An `.lpt` image is only ever decoded from a checked `&[u8]`.
//! [`MappedTrace::open`] frames the five sections once (ids, lengths,
//! trailer), verifies every section checksum with one bulk CRC pass
//! each, parses the three small sections (meta, functions, chains) and
//! remembers where the two large ones live. The decode
//! loops — [`MappedEvents`] for the event stream, [`MappedRecords`] for
//! the allocation records — then read *borrowed* sub-slices of the
//! mapping ([`MappedEvents`] is the one key decoder, [`EventKeys`], plus
//! page release). The borrow is what makes this safe: every slice
//! carries the `MappedTrace`'s lifetime, so the mapping cannot be
//! unmapped while a decoder can still read it (see `map.rs` for the
//! mapping's own safety argument).
//!
//! Every sequential pass — each CRC pass and both decode loops — hands
//! the mapped pages behind it back to the kernel every
//! [`RELEASE_WINDOW`] bytes, so a trace's resident footprint is a few
//! windows, not the file.
//!
//! Integrity is checked in three layers. Framing, the trailer and the
//! CRCs are checked up front at open; structural checks (id ranges,
//! clock overflow, free back-references, count-vs-payload agreement)
//! run per entry as it is decoded; and [`MappedTrace::verify`] walks
//! records and events in lockstep, so a trace whose sections are each
//! well-formed but disagree on a fact both store (a size, a death
//! clock, a total) is refused too. Every read is bounded by its section's
//! payload, so no input panics, slices out of bounds or sizes an
//! allocation by a count the file merely claims.
//! [`MappedTrace::open_unverified`] skips only the bulk CRC of the two
//! large sections: [`MappedTrace::records`] then checks the records CRC
//! itself before yielding anything, and [`MappedTrace::events`] decodes
//! unchecked bytes under the structural checks alone.

use crate::crc32::Crc32;
use crate::error::TraceFileError;
use crate::format::{
    MAGIC, SECTION_CHAINS, SECTION_COUNT, SECTION_EVENTS, SECTION_FUNCTIONS, SECTION_META,
    SECTION_RECORDS, VERSION,
};
use crate::map::TraceMap;
use lifepred_trace::varint::{take_varint, VarintErr};
use lifepred_trace::{
    AllocationRecord, ChainId, ChainTable, ChunkEvent, ChunkSource, EventChunk, EventKeys, FnId,
    FunctionRegistry, RecordSource, Trace, TraceSource, TraceStats, POOLED_CHUNK_EVENTS,
};
use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;

/// Fixed header size: magic + version + section count.
const HEADER_BYTES: usize = 8;

/// The sections in file order: id byte and the name errors report.
const SECTIONS: [(u8, &str); 5] = [
    (SECTION_META, "meta"),
    (SECTION_FUNCTIONS, "functions"),
    (SECTION_CHAINS, "chains"),
    (SECTION_RECORDS, "records"),
    (SECTION_EVENTS, "events"),
];

/// A record is at least five varints: no payload holds more records
/// than a fifth of its bytes.
const MIN_RECORD_BYTES: usize = 5;

/// How far a sequential pass reads past the last mapped page it
/// released before it releases again (a predicting replay runs two).
const RELEASE_WINDOW: usize = 1 << 20;

/// Where one section's payload lies in the file, and the CRC stored
/// after it.
#[derive(Debug, Clone, Default)]
struct Section {
    payload: Range<usize>,
    stored_crc: u32,
}

impl Section {
    /// Checks the stored CRC, one [`RELEASE_WINDOW`] at a time, releasing
    /// each window once it is summed.
    fn verify(&self, map: &TraceMap, name: &'static str) -> Result<(), TraceFileError> {
        let bytes = map.as_bytes();
        let mut crc = Crc32::new();
        for start in self.payload.clone().step_by(RELEASE_WINDOW) {
            let window = start..(start + RELEASE_WINDOW).min(self.payload.end);
            crc.update(&bytes[window.clone()]);
            map.release(window);
        }
        let computed = crc.finish();
        if computed != self.stored_crc {
            return Err(TraceFileError::ChecksumMismatch {
                section: name,
                stored: self.stored_crc,
                computed,
            });
        }
        Ok(())
    }
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

/// Read position inside one section's payload. Every read is bounded
/// by the payload: a value that would run into the stored CRC or the
/// next section is `Malformed`, never an out-of-bounds slice.
#[derive(Debug)]
struct Cursor<'a> {
    section: &'static str,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(section: &'static str, buf: &'a [u8]) -> Cursor<'a> {
        Cursor {
            section,
            buf,
            pos: 0,
        }
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, TraceFileError> {
        take_varint(self.buf, &mut self.pos).map_err(|e| TraceFileError::malformed(self.section, e))
    }

    fn bytes(&mut self, len: u64) -> Result<&'a [u8], TraceFileError> {
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| self.pos.checked_add(len))
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| TraceFileError::malformed(self.section, VarintErr::OutOfBytes))?;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }

    fn left(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Drops the rest of the payload, fusing whatever reads it.
    fn skip_rest(&mut self) {
        self.pos = self.buf.len();
    }

    /// Errors unless the payload was consumed exactly.
    fn finish(&self) -> Result<(), TraceFileError> {
        match self.left() {
            0 => Ok(()),
            n => Err(TraceFileError::malformed(
                self.section,
                format!("{n} unread bytes at end of section"),
            )),
        }
    }
}

/// Checks the file header, then walks the five section frames (id,
/// length, payload, stored CRC) and the trailer. Returns each
/// section's extent; no payload byte is read.
fn frame(bytes: &[u8]) -> Result<[Section; 5], TraceFileError> {
    let truncated = |section| TraceFileError::Truncated { section };
    let magic = bytes.get(..4).ok_or(truncated("header"))?;
    if magic != MAGIC {
        return Err(TraceFileError::BadMagic([
            magic[0], magic[1], magic[2], magic[3],
        ]));
    }
    let rest = bytes.get(4..HEADER_BYTES).ok_or(truncated("header"))?;
    let version = u16::from_le_bytes([rest[0], rest[1]]);
    if version != VERSION {
        return Err(TraceFileError::UnsupportedVersion(version));
    }
    let declared = u16::from_le_bytes([rest[2], rest[3]]);
    if declared != SECTION_COUNT {
        return Err(TraceFileError::malformed(
            "header",
            format!("version {VERSION} carries {SECTION_COUNT} sections, header says {declared}"),
        ));
    }

    let mut pos = HEADER_BYTES;
    let mut sections: [Section; 5] = Default::default();
    for ((expected_id, name), section) in SECTIONS.into_iter().zip(&mut sections) {
        let id = *bytes.get(pos).ok_or(truncated(name))?;
        if id != expected_id {
            return Err(TraceFileError::malformed(
                name,
                format!("expected section id {expected_id}, found {id}"),
            ));
        }
        pos += 1;
        // A length varint may be non-canonical: the stream writer
        // patches five-byte zero-padded ones.
        let len = take_varint(bytes, &mut pos).map_err(|e| match e {
            VarintErr::OutOfBytes => truncated(name),
            VarintErr::Invalid => TraceFileError::malformed(name, "invalid section length varint"),
        })?;
        // The payload and its four CRC bytes must lie inside the file.
        let rest = &bytes[pos..];
        let len = usize::try_from(len)
            .ok()
            .filter(|len| len.checked_add(4).is_some_and(|end| end <= rest.len()))
            .ok_or(truncated(name))?;
        let stored = &rest[len..len + 4];
        *section = Section {
            payload: pos..pos + len,
            stored_crc: u32::from_le_bytes([stored[0], stored[1], stored[2], stored[3]]),
        };
        pos += len + 4;
    }
    if pos != bytes.len() {
        return Err(TraceFileError::malformed(
            "trailer",
            "trailing data after the final section",
        ));
    }
    Ok(sections)
}

/// A fully-framed `.lpt` image: header sections parsed and verified,
/// the two large sections located and (unless opened with
/// [`MappedTrace::open_unverified`]) CRC-checked, their bodies borrowed
/// straight from the underlying [`TraceMap`].
#[derive(Debug)]
pub struct MappedTrace {
    map: TraceMap,
    name: String,
    stats: TraceStats,
    registry: FunctionRegistry,
    chains: ChainTable,
    sections: [SectionInfo; 5],
    /// The records section's extent, for the CRC check an unverified
    /// trace still owes before its records are read.
    records: Section,
    record_count: u64,
    event_count: u64,
    /// The records and the events, past their sections' count varints.
    records_body: Range<usize>,
    events_body: Range<usize>,
    verified: bool,
}

impl MappedTrace {
    /// Opens and fully verifies the `.lpt` file at `path`: framing,
    /// trailer, all five section CRCs (one bulk pass per section) and
    /// the structure of the three header sections.
    ///
    /// # Errors
    ///
    /// I/O failures, or the [`TraceFileError`] variant naming the
    /// damage.
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

    /// The one parser of the header sections.
    pub(crate) fn build(map: TraceMap, verify: bool) -> Result<MappedTrace, TraceFileError> {
        let bytes = map.as_bytes();
        let framed = frame(bytes)?;
        let [meta, functions, chains, records, events] = &framed;
        // The header sections are always checked; the two large ones
        // unless the caller vouches for them.
        for (i, (section, (_, name))) in framed.iter().zip(SECTIONS).enumerate() {
            if i < 3 || verify {
                section.verify(&map, name)?;
            }
        }

        let mut cur = Cursor::new("meta", &bytes[meta.payload.clone()]);
        let name_len = cur.varint()?;
        let name = std::str::from_utf8(cur.bytes(name_len)?)
            .map_err(|_| TraceFileError::malformed("meta", "program name is not UTF-8"))?
            .to_owned();
        let mut counters = [0u64; 8];
        for slot in &mut counters {
            *slot = cur.varint()?;
        }
        cur.finish()?;
        let stats = TraceStats {
            total_bytes: counters[0],
            total_objects: counters[1],
            max_live_bytes: counters[2],
            max_live_objects: counters[3],
            instructions: counters[4],
            function_calls: counters[5],
            heap_refs: counters[6],
            other_refs: counters[7],
        };

        // A forged count cannot size anything: the loops below consume
        // payload bytes per entry and stop at the first that is missing.
        let mut cur = Cursor::new("functions", &bytes[functions.payload.clone()]);
        let fn_count = cur.varint()?;
        if fn_count > u64::from(u32::MAX) {
            return Err(TraceFileError::malformed(
                "functions",
                "function count exceeds u32",
            ));
        }
        let mut registry = FunctionRegistry::new();
        for i in 0..fn_count {
            let len = cur.varint()?;
            let fname = std::str::from_utf8(cur.bytes(len)?).map_err(|_| {
                TraceFileError::malformed("functions", format!("function {i} name is not UTF-8"))
            })?;
            // Interning dedups, which would silently renumber every
            // later id — reject instead.
            if u64::from(registry.intern(fname).index()) != i {
                return Err(TraceFileError::malformed(
                    "functions",
                    format!("duplicate function name {fname:?}"),
                ));
            }
        }
        cur.finish()?;

        let mut cur = Cursor::new("chains", &bytes[chains.payload.clone()]);
        let chain_count = cur.varint()?;
        if chain_count > u64::from(u32::MAX) {
            return Err(TraceFileError::malformed(
                "chains",
                "chain count exceeds u32",
            ));
        }
        let mut table = ChainTable::new();
        let mut frames: Vec<FnId> = Vec::new();
        for i in 0..chain_count {
            let depth = cur.varint()?;
            frames.clear();
            for _ in 0..depth {
                let f = cur.varint()?;
                if f >= fn_count {
                    return Err(TraceFileError::malformed(
                        "chains",
                        format!("chain {i} references function id {f}, registry has {fn_count}"),
                    ));
                }
                frames.push(FnId::from_index(f as u32));
            }
            if u64::from(table.intern(&frames).index()) != i {
                return Err(TraceFileError::malformed(
                    "chains",
                    format!("chain {i} duplicates an earlier chain"),
                ));
            }
        }
        cur.finish()?;

        // Entry counts live at the head of the two large payloads.
        let mut cur = Cursor::new("records", &bytes[records.payload.clone()]);
        let record_count = cur.varint()?;
        let records_body = records.payload.start + cur.pos..records.payload.end;
        let mut cur = Cursor::new("events", &bytes[events.payload.clone()]);
        let event_count = cur.varint()?;
        let events_body = events.payload.start + cur.pos..events.payload.end;

        let entries = [
            None,
            Some(fn_count),
            Some(chain_count),
            Some(record_count),
            Some(event_count),
        ];
        let sections = std::array::from_fn(|i| SectionInfo {
            name: SECTIONS[i].1,
            payload_bytes: framed[i].payload.len() as u64,
            entries: entries[i],
        });
        let [_, _, _, records, _] = framed;
        Ok(MappedTrace {
            map,
            name,
            stats,
            registry,
            chains: table,
            sections,
            records,
            record_count,
            event_count,
            records_body,
            events_body,
            verified: verify,
        })
    }

    /// The traced program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Aggregate statistics from the meta section.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Byte clock at end of trace: the meta section's total bytes.
    pub fn end_clock(&self) -> u64 {
        self.stats.total_bytes
    }

    /// Events in the trace: the events section's declared count.
    pub fn end_seq(&self) -> u64 {
        self.event_count
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

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.map.len()
    }

    /// Whether the bytes are `mmap`-backed (as opposed to a heap
    /// copy).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Per-section framing and counts, in file order.
    pub fn sections(&self) -> [SectionInfo; 5] {
        self.sections
    }

    /// Streams the records section from the mapping, one
    /// [`AllocationRecord`] at a time, under the per-record structural
    /// checks. The section CRC was verified at open; a trace from
    /// [`open_unverified`](Self::open_unverified) verifies it here, on
    /// every call, so no record is ever yielded from an unchecked
    /// section.
    ///
    /// # Errors
    ///
    /// A records checksum mismatch (unverified traces only).
    pub fn records(&self) -> Result<MappedRecords<'_>, TraceFileError> {
        if !self.verified {
            self.records.verify(&self.map, "records")?;
        }
        Ok(MappedRecords {
            cur: Cursor::new("records", &self.map.as_bytes()[self.records_body.clone()]),
            trail: Trail::new(&self.map, self.records_body.start),
            remaining: self.record_count,
            chain_count: self.chains.len() as u64,
            next_index: 0,
            clock: 0,
        })
    }

    /// The zero-copy batch event source: decodes straight from the
    /// mapped events payload into the caller's [`EventChunk`]s with the
    /// one key decoder, [`EventKeys`]. The section CRC was already
    /// verified at open (unless [`open_unverified`](Self::open_unverified)
    /// was used); structural checks still run per event.
    pub fn events(&self) -> MappedEvents<'_> {
        let keys = &self.map.as_bytes()[self.events_body.clone()];
        MappedEvents {
            keys: EventKeys::new(keys, self.event_count),
            trail: Trail::new(&self.map, self.events_body.start),
        }
    }

    /// Checks that the records and the events tell one story, in one
    /// lockstep walk whose memory is the live objects, not the trace:
    /// each allocation event's size must be its record's; each free
    /// must come at the byte clock its record promised, and only for a
    /// live mortal object; every promised death must come and every
    /// record be allocated; and at the end the object and byte totals
    /// must be the meta section's. The byte clock is the sum of the
    /// sizes allocated before an event. Every structural check of
    /// [`records`](Self::records) and [`events`](Self::events) runs on
    /// the way.
    ///
    /// # Errors
    ///
    /// The first disagreement, as [`TraceFileError::Malformed`], or the
    /// error either section's decoder reports.
    pub fn verify(&self) -> Result<(), TraceFileError> {
        self.walk(drop)
    }

    /// [`verify`](Self::verify)'s walk, handing `each` every record as
    /// its allocation is walked.
    fn walk(&self, mut each: impl FnMut(AllocationRecord)) -> Result<(), TraceFileError> {
        let bad = |detail: String| TraceFileError::malformed("events", detail);
        let (mut records, mut events) = (self.records()?, self.events());
        let mut chunk = EventChunk::with_capacity(POOLED_CHUNK_EVENTS);
        // The death clock each live mortal object's record promises.
        let mut deaths: HashMap<usize, u64> = HashMap::new();
        let (mut n, mut clock, mut allocs) = (0u64, 0u64, 0u64);
        while events.next_chunk(&mut chunk)? {
            for event in chunk.events() {
                match event {
                    ChunkEvent::Alloc { record, size } => {
                        let r = records.next().transpose()?.ok_or_else(|| {
                            bad(format!(
                                "event {n} allocates object {record}, past the last record"
                            ))
                        })?;
                        if r.size != size {
                            return Err(bad(format!(
                                "event {n} allocates object {record}: {size} bytes, \
                                 its record says {}",
                                r.size
                            )));
                        }
                        if let Some(death) = r.death_clock {
                            deaths.insert(record, death);
                        }
                        // The sizes agree so far, so this is the sum the
                        // records decoder checked for overflow.
                        clock += u64::from(size);
                        allocs += 1;
                        each(r);
                    }
                    ChunkEvent::Free { record } => match deaths.remove(&record) {
                        Some(death) if death == clock => {}
                        Some(death) => {
                            return Err(bad(format!(
                                "event {n} frees object {record} at clock {clock}, \
                                 its record says it dies at clock {death}"
                            )))
                        }
                        None => {
                            return Err(bad(format!(
                                "event {n} frees object {record}, \
                                 but its record promises no death to come"
                            )))
                        }
                    },
                }
                n += 1;
            }
        }
        if let Some((dying, at)) = deaths.into_iter().min() {
            return Err(bad(format!(
                "object {dying} dies at clock {at}, past the last event"
            )));
        }
        if records.next().transpose()?.is_some() {
            let detail = format!("record {allocs} is never allocated");
            return Err(TraceFileError::malformed("records", detail));
        }
        let totals = [
            ("total objects", allocs, self.stats.total_objects),
            ("total bytes", clock, self.stats.total_bytes),
        ];
        for (what, walked, said) in totals {
            if walked != said {
                let detail = format!("the events give {what} {walked}, the header says {said}");
                return Err(TraceFileError::malformed("meta", detail));
            }
        }
        Ok(())
    }

    /// Rebuilds the full in-memory [`Trace`], collecting the records as
    /// [`verify`](Self::verify)'s walk reads them; the trace keeps the
    /// verified events section's keys as they are.
    pub(crate) fn into_trace(self) -> Result<Trace, TraceFileError> {
        // The iterator's lower bound is capped by the payload's size, so
        // a lying count cannot force a large reservation.
        let mut records = Vec::with_capacity(self.records()?.size_hint().0);
        self.walk(|record| records.push(record))?;
        let events = self.map.as_bytes()[self.events_body.clone()].to_vec();
        Ok(Trace::from_parts(
            self.name,
            self.registry,
            self.chains,
            records,
            events,
            self.event_count,
            self.stats,
        ))
    }
}

/// The mapped pages a sequential reader has left behind, released one
/// [`RELEASE_WINDOW`] at a time.
#[derive(Debug)]
struct Trail<'a> {
    map: &'a TraceMap,
    /// File offset of the reader's payload.
    base: usize,
    /// Payload offset up to which pages were released.
    released: usize,
}

impl<'a> Trail<'a> {
    fn new(map: &'a TraceMap, base: usize) -> Trail<'a> {
        Trail {
            map,
            base,
            released: 0,
        }
    }

    /// The reader is at payload offset `pos`: release what lies behind
    /// it once that is a whole window.
    #[inline]
    fn behind(&mut self, pos: usize) {
        if pos - self.released >= RELEASE_WINDOW {
            self.release_to(pos);
        }
    }

    /// Releases everything before payload offset `pos`.
    fn release_to(&mut self, pos: usize) {
        self.map.release(self.base + self.released..self.base + pos);
        self.released = pos;
    }
}

/// Borrowed iterator over a [`MappedTrace`]'s records section, from
/// [`MappedTrace::records`]. Yields `Err` at most once (a structural
/// violation, a count the payload does not hold, or bytes left over
/// after the last record) and is fused afterwards.
#[derive(Debug)]
pub struct MappedRecords<'a> {
    /// Records payload, past the count varint.
    cur: Cursor<'a>,
    trail: Trail<'a>,
    /// Records left per the declared count; zeroed to fuse.
    remaining: u64,
    chain_count: u64,
    next_index: u64,
    /// Sizes of the records decoded so far: the next one's birth clock.
    clock: u64,
}

impl MappedRecords<'_> {
    /// The one record decoder: decodes the next record, born at the
    /// sum of the earlier ones' sizes.
    fn decode(&mut self) -> Result<AllocationRecord, TraceFileError> {
        let cur = &mut self.cur;
        let i = self.next_index;
        let bad = |detail: String| TraceFileError::malformed("records", detail);
        let size = cur.varint()?;
        let size = u32::try_from(size).map_err(|_| bad(format!("record {i} size exceeds u32")))?;
        let chain = cur.varint()?;
        if chain >= self.chain_count {
            return Err(bad(format!(
                "record {i} references chain {chain}, table has {}",
                self.chain_count
            )));
        }
        let birth_clock = self.clock;
        let end = (birth_clock.checked_add(u64::from(size)))
            .ok_or_else(|| bad(format!("record {i} overflows the byte clock")))?;
        let death_clock = match cur.varint()? {
            0 => None,
            code => Some(
                end.checked_add(code - 1)
                    .ok_or_else(|| bad(format!("record {i} death clock overflows")))?,
            ),
        };
        let refs = cur.varint()?;
        let first_code = cur.varint()?;
        let (first_ref_clock, last_ref_clock) = if first_code == 0 {
            (None, None)
        } else {
            let first = birth_clock
                .checked_add(first_code - 1)
                .ok_or_else(|| bad(format!("record {i} first ref clock overflows")))?;
            let last = first
                .checked_add(cur.varint()?)
                .ok_or_else(|| bad(format!("record {i} last ref clock overflows")))?;
            (Some(first), Some(last))
        };
        self.clock = end;
        self.next_index += 1;
        Ok(AllocationRecord {
            size,
            chain: ChainId::from_index(chain as u32),
            birth_clock,
            death_clock,
            refs,
            first_ref_clock,
            last_ref_clock,
        })
    }
}

impl Iterator for MappedRecords<'_> {
    type Item = Result<AllocationRecord, TraceFileError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            // Bytes left over after the last record are reported once.
            let leftover = self.cur.finish().err();
            self.cur.skip_rest();
            self.trail.release_to(self.cur.pos);
            return leftover.map(Err);
        }
        self.remaining -= 1;
        let record = self.decode();
        if record.is_err() {
            self.remaining = 0;
            self.cur.skip_rest();
        }
        self.trail.behind(self.cur.pos);
        Some(record)
    }

    /// The lower bound is what a well-formed payload yields —
    /// `min(declared, bytes left / 5)` — so one `with_capacity` suffices
    /// and is sized by bytes present, never by the declared count alone.
    /// (A malformed payload ends earlier, with its one `Err`.)
    fn size_hint(&self) -> (usize, Option<usize>) {
        let by_bytes = (self.cur.left() / MIN_RECORD_BYTES) as u64;
        let n = self.remaining.min(by_bytes) as usize;
        (n, n.checked_add(1))
    }
}

/// Borrowed [`ChunkSource`] over a [`MappedTrace`]'s events payload:
/// [`EventKeys`], releasing the pages it has read and reporting its
/// errors as [`TraceFileError`]s. Fused after its last chunk or an error.
#[derive(Debug)]
pub struct MappedEvents<'a> {
    keys: EventKeys<'a>,
    trail: Trail<'a>,
}

/// A mapped trace read straight off the verified mapping; its records
/// stream fails as [`MappedTrace::records`] does.
impl TraceSource for MappedTrace {
    type Error = TraceFileError;
    type Record<'a> = AllocationRecord;
    type Records<'a> = MappedRecords<'a>;
    type Events<'a> = MappedEvents<'a>;

    fn name(&self) -> &str {
        &self.name
    }

    fn stats(&self) -> &TraceStats {
        &self.stats
    }

    fn events(&self) -> MappedEvents<'_> {
        MappedTrace::events(self)
    }

    fn record_source(&self) -> Result<RecordSource<'_, MappedRecords<'_>>, TraceFileError> {
        Ok(RecordSource {
            name: &self.name,
            chains: &self.chains,
            end_clock: self.end_clock(),
            records: self.records()?,
        })
    }
}

impl ChunkSource for MappedEvents<'_> {
    type Error = TraceFileError;

    fn next_chunk(&mut self, chunk: &mut EventChunk) -> Result<bool, TraceFileError> {
        let more = (self.keys.fill(chunk)).map_err(|e| TraceFileError::malformed("events", e))?;
        if more {
            self.trail.behind(self.keys.pos());
        } else {
            self.trail.release_to(self.keys.pos());
        }
        Ok(more)
    }
}

#[cfg(test)]
mod tests;
