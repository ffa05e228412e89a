//! The `.lpt` reader: one slice decoder over a [`TraceMap`].
//!
//! [`MappedTrace::open`] frames the six sections once (ids, lengths,
//! trailer), verifies every section checksum with one bulk CRC pass
//! each, parses the three small sections and remembers where the three
//! large ones live. The decode loops — [`MappedEvents`] (the one key
//! decoder, [`EventKeys`], plus page release) and the two columns'
//! [`MappedColumn`]s — read *borrowed* sub-slices of the mapping, so the
//! borrow checker keeps the mapping alive while a decoder can read it
//! (see `map.rs` for the mapping's own safety argument). Every
//! sequential pass hands the mapped pages behind it back to the kernel
//! every [`RELEASE_WINDOW`] bytes, so a trace's resident footprint is a
//! few windows, not the file.
//!
//! Integrity is checked in three layers: framing, trailer and CRCs at
//! open; structural checks (id ranges, free back-references,
//! count-vs-payload agreement) per entry as it is decoded; and
//! [`MappedTrace::verify`]'s [`walk`], which refuses sections that are
//! each well-formed but do not tell one story (a double free, a column
//! an entry off the allocations) or a header number the walk does not
//! derive. Every read is bounded by its section's payload, so no input
//! panics, slices out of bounds or sizes an allocation by a count the
//! file merely claims. [`MappedTrace::open_unverified`] skips only the
//! bulk CRC of the three large sections: a column then checks its CRC
//! itself before yielding anything, and [`MappedTrace::events`] decodes
//! unchecked bytes under the structural checks alone.

use crate::crc32::Crc32;
use crate::error::TraceFileError;
use crate::format::{CHAIN_IDS, EVENTS, MAGIC, SECTIONS, SECTION_COUNT, TOUCHES, VERSION};
use crate::map::TraceMap;
use lifepred_trace::varint::{take_varint, VarintErr};
use lifepred_trace::{
    walk, AllocationRecord, ChainId, ChainTable, ChunkSource, EventChunk, EventKeys, FnId,
    FunctionRegistry, Live, Touch, Trace, TraceSource, TraceStats, Visit,
};
use std::ops::Range;
use std::path::Path;

/// Fixed header size: magic + version + section count.
const HEADER_BYTES: usize = 8;

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
    /// Section name (`"meta"`, `"functions"`, `"chains"`, `"chain
    /// ids"`, `"touches"`, `"events"`).
    pub name: &'static str,
    /// Payload length in bytes (excluding framing and CRC).
    pub payload_bytes: u64,
    /// Entry count for the counted sections (all but meta); `None` for
    /// meta.
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

/// Checks the file header, then walks the six section frames (id,
/// length, payload, stored CRC) and the trailer. Returns each
/// section's extent; no payload byte is read.
fn frame(bytes: &[u8]) -> Result<[Section; 6], TraceFileError> {
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
    let mut sections: [Section; 6] = Default::default();
    for ((i, name), section) in SECTIONS.into_iter().enumerate().zip(&mut sections) {
        let expected_id = i as u8 + 1;
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
/// the three large sections located and (unless opened with
/// [`MappedTrace::open_unverified`]) CRC-checked, their bodies borrowed
/// straight from the underlying [`TraceMap`].
#[derive(Debug)]
pub struct MappedTrace {
    map: TraceMap,
    name: String,
    stats: TraceStats,
    registry: FunctionRegistry,
    chains: ChainTable,
    sections: [SectionInfo; 6],
    /// The chain ids, touches and events sections' extents, for the CRC
    /// check an unverified trace still owes before a column is read.
    large: [Section; 3],
    /// Their declared entry counts.
    counts: [u64; 3],
    /// Their entries, past the count varints.
    bodies: [Range<usize>; 3],
    verified: bool,
}

impl MappedTrace {
    /// Opens and fully verifies the `.lpt` file at `path`: framing,
    /// trailer, all six section CRCs (one bulk pass per section) and
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
    /// but *not* the three large sections' checksums — the fast path for
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
        let [meta, functions, chains, ..] = &framed;
        // The header sections are always checked; the two large ones
        // unless the caller vouches for them.
        for (i, (section, name)) in framed.iter().zip(SECTIONS).enumerate() {
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

        // Entry counts live at the head of the three large payloads.
        let payload_bytes = framed.clone().map(|s| s.payload.len() as u64);
        let [_, _, _, large @ ..] = framed;
        let mut counts = [0; 3];
        let mut bodies: [Range<usize>; 3] = Default::default();
        for (i, section) in large.iter().enumerate() {
            let mut cur = Cursor::new(SECTIONS[3 + i], &bytes[section.payload.clone()]);
            counts[i] = cur.varint()?;
            bodies[i] = section.payload.start + cur.pos..section.payload.end;
        }

        let entries = [[None, Some(fn_count), Some(chain_count)], counts.map(Some)].concat();
        let sections = std::array::from_fn(|i| SectionInfo {
            name: SECTIONS[i],
            payload_bytes: payload_bytes[i],
            entries: entries[i],
        });
        Ok(MappedTrace {
            map,
            name,
            stats,
            registry,
            chains: table,
            sections,
            large,
            counts,
            bodies,
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
        self.counts[EVENTS]
    }

    /// The function registry, rebuilt from the functions section.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The chain table, rebuilt from the chains section.
    pub fn chain_table(&self) -> &ChainTable {
        &self.chains
    }

    /// Declared number of allocations: the chain column's entry count.
    pub fn record_count(&self) -> u64 {
        self.counts[CHAIN_IDS]
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
    pub fn sections(&self) -> [SectionInfo; 6] {
        self.sections
    }

    /// Large section `which`'s entries, decoded by `decode`; its CRC is
    /// checked here, on every call, if the trace was opened unverified,
    /// so no entry is ever yielded from an unchecked section.
    fn column<T>(
        &self,
        which: usize,
        decode: Decode<T>,
    ) -> Result<MappedColumn<'_, T>, TraceFileError> {
        let name = SECTIONS[3 + which];
        if !self.verified {
            self.large[which].verify(&self.map, name)?;
        }
        let body = self.bodies[which].clone();
        Ok(MappedColumn {
            trail: Trail::new(&self.map, body.start),
            cur: Cursor::new(name, &self.map.as_bytes()[body]),
            remaining: self.counts[which],
            next_index: 0,
            chain_count: self.chains.len() as u64,
            decode,
        })
    }

    /// The events, decoded straight off the mapping into the caller's
    /// [`EventChunk`]s by the one key decoder, [`EventKeys`], under the
    /// structural checks (and the CRC, unless opened unverified).
    pub fn events(&self) -> MappedEvents<'_> {
        let keys = &self.map.as_bytes()[self.bodies[EVENTS].clone()];
        MappedEvents {
            keys: EventKeys::new(keys, self.counts[EVENTS]),
            trail: Trail::new(&self.map, self.bodies[EVENTS].start),
        }
    }

    /// Checks, in the one [`walk`], that the events and both columns tell
    /// one story (every free of a live object, one column entry per
    /// allocation) and that the header's totals, live maxima and heap
    /// refs are the walk's.
    ///
    /// # Errors
    ///
    /// The first a decoder or the walk refuses.
    pub fn verify(&self) -> Result<(), TraceFileError> {
        self.walk_checked(&mut ())
    }

    /// [`verify`](Self::verify), handing `visit` each birth and death.
    fn walk_checked(&self, visit: &mut impl Visit) -> Result<(), TraceFileError> {
        let (w, h) = (walk(self, visit)?, &self.stats);
        for (what, walked, said) in [
            ("total objects", w.total_objects, h.total_objects),
            ("total bytes", w.total_bytes, h.total_bytes),
            ("max live bytes", w.max_live_bytes, h.max_live_bytes),
            ("max live objects", w.max_live_objects, h.max_live_objects),
            ("heap refs", w.heap_refs, h.heap_refs),
        ] {
            if walked != said {
                let detail = format!("the walk gives {what} {walked}, the header says {said}");
                return Err(TraceFileError::malformed("meta", detail));
            }
        }
        Ok(())
    }

    /// Every allocation's [`AllocationRecord`], rebuilt by
    /// [`verify`](Self::verify)'s walk.
    fn load(&self) -> Result<Vec<AllocationRecord>, TraceFileError> {
        /// Keeps every record, and stamps its death when its free comes.
        struct Loader(Vec<AllocationRecord>);
        impl Visit for Loader {
            fn born(&mut self, _record: usize, r: &AllocationRecord) -> u32 {
                self.0.push(r.clone());
                0
            }
            fn died(&mut self, record: usize, _obj: Live, death: Option<u64>) {
                self.0[record].death_clock = death;
            }
        }
        // The column's lower bound is capped by its payload's size, so a
        // lying count cannot force a large reservation.
        let mut loader = Loader(Vec::with_capacity(self.chain_ids()?.size_hint().0));
        self.walk_checked(&mut loader)?;
        Ok(loader.0)
    }

    /// Rebuilds the full in-memory [`Trace`]: [`load`](Self::load)'s
    /// records, and the events section's keys as they are.
    pub(crate) fn into_trace(self) -> Result<Trace, TraceFileError> {
        let records = self.load()?;
        let events = self.map.as_bytes()[self.bodies[EVENTS].clone()].to_vec();
        Ok(Trace::from_parts(
            self.name,
            self.registry,
            self.chains,
            records,
            events,
            self.counts[EVENTS],
            self.stats,
        ))
    }

    /// [`load`](Self::load)'s records as a stream, for the frozen
    /// benchmark alone (`benchmark/src/layers.rs` lines 263 and 278); CI's
    /// "Replay fence" fails on any other use.
    ///
    /// # Errors
    ///
    /// Whatever [`verify`](Self::verify) refuses, or a large section's
    /// checksum mismatch in an unverified trace.
    #[doc(hidden)]
    pub fn records(
        &self,
    ) -> Result<impl Iterator<Item = Result<AllocationRecord, TraceFileError>>, TraceFileError>
    {
        if !self.verified {
            self.large[EVENTS].verify(&self.map, "events")?;
        }
        Ok(self.load()?.into_iter().map(Ok))
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

/// How a column decodes entry `index`, given the chain table's length.
type Decode<T> = for<'a> fn(&mut Cursor<'a>, u64, u64) -> Result<T, TraceFileError>;

/// A borrowed iterator over one of a [`MappedTrace`]'s columns. Yields
/// `Err` at most once (a structural violation, a count the payload does
/// not hold, or bytes left after the last entry), then is fused.
#[derive(Debug)]
pub struct MappedColumn<'a, T> {
    cur: Cursor<'a>,
    trail: Trail<'a>,
    /// Entries left per the declared count; zeroed to fuse.
    remaining: u64,
    next_index: u64,
    chain_count: u64,
    decode: Decode<T>,
}

/// The chain column: each allocation's chain id, checked against the
/// chain table.
pub type MappedChainIds<'a> = MappedColumn<'a, ChainId>;

/// The touch column: each allocation's [`Touch`].
pub type MappedTouches<'a> = MappedColumn<'a, Touch>;

fn decode_chain_id(
    cur: &mut Cursor<'_>,
    i: u64,
    chain_count: u64,
) -> Result<ChainId, TraceFileError> {
    match cur.varint()? {
        // Below the table's length, which is at most `u32::MAX`.
        chain if chain < chain_count => Ok(ChainId::from_index(chain as u32)),
        chain => Err(TraceFileError::malformed(
            "chain ids",
            format!("object {i} references chain {chain}, table has {chain_count}"),
        )),
    }
}

fn decode_touch(cur: &mut Cursor<'_>, _: u64, _: u64) -> Result<Touch, TraceFileError> {
    let refs = cur.varint()?;
    if refs == 0 {
        return Ok(Touch::default());
    }
    let first = cur.varint()?;
    let span = cur.varint()?;
    Ok(Touch { refs, first, span })
}

impl<T> Iterator for MappedColumn<'_, T> {
    type Item = Result<T, TraceFileError>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            // Bytes left over after the last entry are reported once.
            let leftover = self.cur.finish().err();
            self.cur.skip_rest();
            self.trail.release_to(self.cur.pos);
            return leftover.map(Err);
        }
        self.remaining -= 1;
        let entry = (self.decode)(&mut self.cur, self.next_index, self.chain_count);
        self.next_index += 1;
        if entry.is_err() {
            self.remaining = 0;
            self.cur.skip_rest();
        }
        self.trail.behind(self.cur.pos);
        Some(entry)
    }

    /// The lower bound is what a well-formed payload yields — every
    /// entry takes a byte, so `min(declared, bytes left)` — so one
    /// `with_capacity` suffices and is sized by bytes present, never by
    /// the declared count alone.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining.min(self.cur.left() as u64) as usize;
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

/// A mapped trace read straight off the mapping: the columns and the
/// events borrow it, page release and all.
impl TraceSource for MappedTrace {
    type Error = TraceFileError;
    type Events<'a> = MappedEvents<'a>;
    type ChainIds<'a> = MappedChainIds<'a>;
    type Touches<'a> = MappedTouches<'a>;

    fn name(&self) -> &str {
        &self.name
    }
    fn stats(&self) -> &TraceStats {
        &self.stats
    }
    fn chains(&self) -> &ChainTable {
        &self.chains
    }
    fn events(&self) -> MappedEvents<'_> {
        MappedTrace::events(self)
    }
    fn chain_ids(&self) -> Result<MappedChainIds<'_>, TraceFileError> {
        self.column(CHAIN_IDS, decode_chain_id)
    }
    fn touches(&self) -> Result<MappedTouches<'_>, TraceFileError> {
        self.column(TOUCHES, decode_touch)
    }
    fn malformed(&self, section: &'static str, detail: String) -> TraceFileError {
        TraceFileError::malformed(section, detail)
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
