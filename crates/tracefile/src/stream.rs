//! Writing `.lpt` files: the one encoder.
//!
//! [`StreamTraceWriter`] writes the three small sections eagerly and
//! streams the three large ones, so nothing has to be materialized to
//! be written: `lifepred gen` drives it straight from a simulation, and
//! [`write_trace`] from an in-memory [`Trace`] for
//! [`save_trace`](crate::save_trace) and
//! [`trace_to_vec`](crate::trace_to_vec), copying the trace's event keys
//! as its session recorded them. A section's length comes *before* its
//! payload, so for each large section the writer reserves a five-byte
//! zero-padded varint (non-canonical, which the reader accepts; up to
//! 32 GiB), streams the payload while accumulating its CRC, and seeks
//! back once to patch the real length.
//!
//! Payload encodings (every integer a LEB128 varint). Each fact is
//! stored once; a clock is the byte clock, the sum of the sizes
//! allocated before it.
//!
//! * **meta** — name length + UTF-8 name bytes, then the eight
//!   [`TraceStats`] counters in declaration order (the end clock is
//!   `total_bytes`, the end seq the event count).
//! * **functions** — count, then per function: name length + bytes, in
//!   `FnId` order.
//! * **chains** — count, then per chain: frame count + frame ids
//!   (outermost first), in `ChainId` order.
//! * **chain ids** — count, then each allocation's chain id, in birth
//!   order.
//! * **touches** — count, then per allocation in birth order: its
//!   reference count and, only when that is not 0, the bytes from its
//!   birth to its first reference and from there to its last ([`Touch`]).
//! * **events** — count, then one key per event
//!   ([`lifepred_trace::keys`]): an even key allocates `key >> 1` bytes
//!   for the next object in birth order, an odd key frees the object
//!   allocated `key >> 1` allocations ago. So an object's size, birth
//!   and death, and every seq, are the events' alone.

use crate::crc32::Crc32;
use crate::error::TraceFileError;
use crate::format::{CHAIN_IDS, EVENTS, MAGIC, SECTIONS, SECTION_COUNT, TOUCHES, VERSION};
use lifepred_trace::keys::{encode_alloc, encode_free};
use lifepred_trace::varint::{write_varint, MAX_VARINT_LEN};
use lifepred_trace::{ChainId, ChainTable, FunctionRegistry, Touch, Trace, TraceStats};
use std::io::{Seek, SeekFrom, Write};

/// Payload bytes buffered before one bulk CRC update + write.
const FLUSH_BYTES: usize = 64 * 1024;

/// Largest payload a five-byte padded varint can describe.
const MAX_SECTION_BYTES: u64 = 1 << 35;

/// The meta-section fields of a streamed trace, supplied up front
/// (compute them with a census pass before writing).
#[derive(Debug, Clone)]
pub struct StreamMeta<'a> {
    /// Traced program name.
    pub name: &'a str,
    /// Aggregate statistics (totals and maxima over the whole trace).
    pub stats: TraceStats,
}

/// Book-keeping for the large section currently being streamed.
#[derive(Debug)]
struct OpenSection {
    /// Offset of the five-byte length placeholder.
    len_at: u64,
    crc: Crc32,
    /// Payload bytes written (scratch already flushed).
    written: u64,
    /// Entries promised by the section's count varint.
    declared: u64,
    /// Entries encoded so far.
    seen: u64,
}

/// The `.lpt` writer.
///
/// Call order is enforced: [`begin_chain_ids`](Self::begin_chain_ids) →
/// [`write_chain_id`](Self::write_chain_id)× →
/// [`begin_touches`](Self::begin_touches) → [`write_touch`](Self::write_touch)× →
/// [`begin_events`](Self::begin_events) → [`write_alloc`](Self::write_alloc)/
/// [`write_free`](Self::write_free)× → [`finish`](Self::finish); each
/// `begin` and `finish` closes the section before. Counts are checked
/// against the declared totals, and every chain id against the chain
/// table.
///
/// # Examples
///
/// ```
/// use lifepred_trace::{ChainTable, FunctionRegistry, Touch, TraceStats};
/// use lifepred_tracefile::{trace_from_bytes, StreamMeta, StreamTraceWriter};
///
/// let mut registry = FunctionRegistry::new();
/// let main = registry.intern("main");
/// let mut chains = ChainTable::new();
/// let chain = chains.intern(&[main]);
/// let meta = StreamMeta {
///     name: "streamed",
///     stats: TraceStats { total_bytes: 8, total_objects: 1, max_live_bytes: 8,
///                         max_live_objects: 1, ..TraceStats::default() },
/// };
/// let sink = std::io::Cursor::new(Vec::new());
/// let mut w = StreamTraceWriter::new(sink, &meta, &registry, &chains).unwrap();
/// w.begin_chain_ids(1).unwrap();
/// w.write_chain_id(chain).unwrap();
/// w.begin_touches(1).unwrap();
/// w.write_touch(Touch::default()).unwrap();
/// w.begin_events(2).unwrap();
/// w.write_alloc(8).unwrap();
/// w.write_free(0).unwrap();
/// let bytes = w.finish().unwrap().into_inner();
/// assert_eq!(trace_from_bytes(&bytes).unwrap().records().len(), 1);
/// ```
#[derive(Debug)]
pub struct StreamTraceWriter<W: Write + Seek> {
    sink: W,
    scratch: Vec<u8>,
    open: Option<OpenSection>,
    /// The large section to begin next (by index from the first).
    stage: usize,
    /// Entries in the chain table: every chain id is below it.
    chain_count: u64,
    /// Allocation events written so far: the next birth-order index.
    allocs: u64,
}

impl<W: Write + Seek> StreamTraceWriter<W> {
    /// Writes the header and the three small sections eagerly, leaving
    /// the writer ready for [`begin_chain_ids`](Self::begin_chain_ids).
    ///
    /// # Errors
    ///
    /// I/O failures, or malformed chains (frames outside `registry`).
    pub fn new(
        mut sink: W,
        meta: &StreamMeta<'_>,
        registry: &FunctionRegistry,
        chains: &ChainTable,
    ) -> Result<StreamTraceWriter<W>, TraceFileError> {
        sink.write_all(&MAGIC)?;
        sink.write_all(&VERSION.to_le_bytes())?;
        sink.write_all(&SECTION_COUNT.to_le_bytes())?;
        // Ids 1 to 3: meta, functions, chains.
        write_section(&mut sink, 1, &encode_meta(meta))?;
        write_section(&mut sink, 2, &encode_functions(registry))?;
        let chains_payload = encode_chains(chains, registry.len() as u64)?;
        write_section(&mut sink, 3, &chains_payload)?;
        Ok(StreamTraceWriter {
            sink,
            scratch: Vec::with_capacity(FLUSH_BYTES + 64),
            open: None,
            stage: CHAIN_IDS,
            chain_count: chains.len() as u64,
            allocs: 0,
        })
    }

    /// Opens the chain column, declaring its entry count.
    pub fn begin_chain_ids(&mut self, count: u64) -> Result<(), TraceFileError> {
        self.begin(CHAIN_IDS, count)
    }

    /// Appends the chain id of the next allocation in birth order.
    pub fn write_chain_id(&mut self, chain: ChainId) -> Result<(), TraceFileError> {
        let i = self.entry(CHAIN_IDS)?;
        if u64::from(chain.index()) >= self.chain_count {
            let detail = format!("object {i} references unknown chain {}", chain.index());
            return Err(TraceFileError::malformed("chain ids", detail));
        }
        write_varint(&mut self.scratch, u64::from(chain.index()));
        self.maybe_flush()
    }

    /// Closes the chain column and opens the touch column, declaring its
    /// entry count.
    pub fn begin_touches(&mut self, count: u64) -> Result<(), TraceFileError> {
        self.begin(TOUCHES, count)
    }

    /// Appends the touch entry of the next allocation in birth order.
    pub fn write_touch(&mut self, touch: Touch) -> Result<(), TraceFileError> {
        self.entry(TOUCHES)?;
        write_varint(&mut self.scratch, touch.refs);
        if touch.refs > 0 {
            write_varint(&mut self.scratch, touch.first);
            write_varint(&mut self.scratch, touch.span);
        }
        self.maybe_flush()
    }

    /// Closes the touch column and opens the events section, declaring
    /// its event count.
    pub fn begin_events(&mut self, count: u64) -> Result<(), TraceFileError> {
        self.begin(EVENTS, count)
    }

    /// Appends an allocation of `size` bytes for the next object in
    /// birth order.
    pub fn write_alloc(&mut self, size: u32) -> Result<(), TraceFileError> {
        self.entry(EVENTS)?;
        self.allocs += 1;
        encode_alloc(&mut self.scratch, size);
        self.maybe_flush()
    }

    /// Appends a free of birth-order object `record`.
    pub fn write_free(&mut self, record: u64) -> Result<(), TraceFileError> {
        let event = self.entry(EVENTS)?;
        encode_free(&mut self.scratch, self.allocs, record).ok_or_else(|| {
            TraceFileError::malformed("events", format!("free before alloc at event {event}"))
        })?;
        self.maybe_flush()
    }

    /// Closes the events section, then flushes and returns the sink.
    /// Errors if a large section was never written.
    pub fn finish(mut self) -> Result<W, TraceFileError> {
        if self.stage <= EVENTS {
            return Err(TraceFileError::malformed(
                "trailer",
                "stream writer finished before every large section was written",
            ));
        }
        self.end()?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    fn begin(&mut self, want: usize, count: u64) -> Result<(), TraceFileError> {
        let (id, section) = (want as u8 + 4, SECTIONS[3 + want]);
        if self.stage != want {
            return Err(out_of_order(section));
        }
        if want > CHAIN_IDS {
            self.end()?;
        }
        self.stage += 1;
        self.sink.write_all(&[id])?;
        let len_at = self.sink.stream_position()?;
        // Five-byte zero-padded placeholder, patched in `end`.
        self.sink.write_all(&[0x80, 0x80, 0x80, 0x80, 0x00])?;
        self.open = Some(OpenSection {
            len_at,
            crc: Crc32::new(),
            written: 0,
            declared: count,
            seen: 0,
        });
        write_varint(&mut self.scratch, count);
        Ok(())
    }

    /// Checks ordering and charges one entry against the declaration.
    /// Returns the entry's index in its section.
    fn entry(&mut self, want: usize) -> Result<u64, TraceFileError> {
        let section = SECTIONS[3 + want];
        let open = (self.open.as_mut())
            .filter(|_| self.stage == want + 1)
            .ok_or_else(|| out_of_order(section))?;
        if open.seen == open.declared {
            return Err(TraceFileError::malformed(
                section,
                format!("more entries than the declared {}", open.declared),
            ));
        }
        open.seen += 1;
        Ok(open.seen - 1)
    }

    fn maybe_flush(&mut self) -> Result<(), TraceFileError> {
        if self.scratch.len() >= FLUSH_BYTES {
            self.flush_scratch()?;
        }
        Ok(())
    }

    fn flush_scratch(&mut self) -> Result<(), TraceFileError> {
        let open = self.open.as_mut().expect("flush inside an open section");
        open.crc.update(&self.scratch);
        open.written += self.scratch.len() as u64;
        self.sink.write_all(&self.scratch)?;
        self.scratch.clear();
        Ok(())
    }

    /// Closes the open section, patching its length and CRC.
    fn end(&mut self) -> Result<(), TraceFileError> {
        self.flush_scratch()?;
        let open = self.open.take().expect("a section is open");
        let section = SECTIONS[2 + self.stage];
        if open.seen != open.declared {
            return Err(TraceFileError::malformed(
                section,
                format!("{} entries written, {} declared", open.seen, open.declared),
            ));
        }
        if open.written >= MAX_SECTION_BYTES {
            return Err(TraceFileError::malformed(
                section,
                "section payload exceeds the 32 GiB streaming limit",
            ));
        }
        self.sink.write_all(&open.crc.finish().to_le_bytes())?;
        let after = self.sink.stream_position()?;
        self.sink.seek(SeekFrom::Start(open.len_at))?;
        self.sink.write_all(&padded_len(open.written))?;
        self.sink.seek(SeekFrom::Start(after))?;
        Ok(())
    }
}

/// Writes the complete `.lpt` image of `trace` into `sink`: the header
/// sections, each record's chain id and touch entry, then the trace's
/// event keys as they are.
///
/// # Errors
///
/// I/O failures, or [`TraceFileError::Malformed`] if a record names an
/// unknown chain or its reference clocks disagree with its count.
pub(crate) fn write_trace<W: Write + Seek>(trace: &Trace, sink: W) -> Result<W, TraceFileError> {
    let meta = StreamMeta {
        name: trace.name(),
        stats: *trace.stats(),
    };
    let mut w = StreamTraceWriter::new(sink, &meta, trace.registry(), trace.chains())?;
    let records = trace.records();
    w.begin_chain_ids(records.len() as u64)?;
    for r in records {
        w.write_chain_id(r.chain)?;
    }
    w.begin_touches(records.len() as u64)?;
    for (i, r) in records.iter().enumerate() {
        let detail = || format!("object {i}'s reference count and clocks make no touch entry");
        let touch = Touch::of(r).ok_or_else(|| TraceFileError::malformed("touches", detail()))?;
        w.write_touch(touch)?;
    }
    // The keys are the section's payload as the session recorded it.
    w.begin_events(trace.end_seq())?;
    w.scratch.extend_from_slice(trace.event_keys());
    w.open.as_mut().expect("the events section is open").seen = trace.end_seq();
    w.finish()
}

fn encode_meta(meta: &StreamMeta<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    let name = meta.name.as_bytes();
    write_varint(&mut out, name.len() as u64);
    out.extend_from_slice(name);
    let s = &meta.stats;
    for v in [
        s.total_bytes,
        s.total_objects,
        s.max_live_bytes,
        s.max_live_objects,
        s.instructions,
        s.function_calls,
        s.heap_refs,
        s.other_refs,
    ] {
        write_varint(&mut out, v);
    }
    out
}

fn encode_functions(registry: &FunctionRegistry) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, registry.len() as u64);
    for name in registry.names() {
        write_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    out
}

fn encode_chains(chains: &ChainTable, fn_count: u64) -> Result<Vec<u8>, TraceFileError> {
    let mut out = Vec::new();
    write_varint(&mut out, chains.len() as u64);
    for (id, chain) in chains.iter() {
        write_varint(&mut out, chain.len() as u64);
        for frame in chain.frames() {
            if u64::from(frame.index()) >= fn_count {
                return Err(TraceFileError::malformed(
                    "chains",
                    format!("chain {} references unknown function {frame}", id.index()),
                ));
            }
            write_varint(&mut out, u64::from(frame.index()));
        }
    }
    Ok(out)
}

/// A section length as a five-byte zero-padded varint.
fn padded_len(len: u64) -> [u8; 5] {
    debug_assert!(len < MAX_SECTION_BYTES);
    [
        (len & 0x7f) as u8 | 0x80,
        ((len >> 7) & 0x7f) as u8 | 0x80,
        ((len >> 14) & 0x7f) as u8 | 0x80,
        ((len >> 21) & 0x7f) as u8 | 0x80,
        ((len >> 28) & 0x7f) as u8,
    ]
}

fn out_of_order(section: &'static str) -> TraceFileError {
    TraceFileError::malformed(section, "stream writer calls out of order")
}

/// Writes one fully-buffered section (id + length + payload + CRC).
fn write_section<W: Write>(sink: &mut W, id: u8, payload: &[u8]) -> Result<(), TraceFileError> {
    sink.write_all(&[id])?;
    let mut len = Vec::with_capacity(MAX_VARINT_LEN);
    write_varint(&mut len, payload.len() as u64);
    sink.write_all(&len)?;
    sink.write_all(payload)?;
    sink.write_all(&crate::crc32::crc32(payload).to_le_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trace_to_vec, MappedTrace, TraceMap};
    use lifepred_trace::{AllocationRecord, TraceSession, TraceSource};
    use std::io::Cursor;

    fn sample_trace(objects: u32) -> Trace {
        let s = TraceSession::new("stream-sample");
        let mut held = Vec::new();
        {
            let _g = s.enter("main");
            for i in 0..objects {
                let _h = s.enter("helper");
                let id = s.alloc(i % 300 + 1);
                if i % 5 == 0 {
                    held.push(id);
                } else {
                    s.free(id);
                }
            }
        }
        for id in held {
            s.free(id);
        }
        s.finish()
    }

    #[test]
    fn streamed_output_satisfies_the_mapped_reader() {
        let trace = sample_trace(2_000);
        let bytes = trace_to_vec(&trace).expect("encode");
        let mapped = MappedTrace::from_map(TraceMap::from_vec(bytes)).expect("mapped open");
        assert_eq!(mapped.record_count(), trace.records().len() as u64);
        assert_eq!(mapped.end_seq(), trace.end_seq());
        let chain_ids: Vec<_> = (mapped.chain_ids().expect("chain ids"))
            .collect::<Result<_, _>>()
            .expect("decode");
        let recorded: Vec<_> = trace.records().iter().map(|r| r.chain).collect();
        assert_eq!(chain_ids, recorded);
    }

    fn writer(trace: &Trace) -> StreamTraceWriter<Cursor<Vec<u8>>> {
        let meta = StreamMeta {
            name: "writer",
            stats: *trace.stats(),
        };
        let sink = Cursor::new(Vec::new());
        StreamTraceWriter::new(sink, &meta, trace.registry(), trace.chains()).expect("header")
    }

    #[test]
    fn count_mismatches_are_rejected() {
        let trace = sample_trace(10);
        let chain = trace.records()[0].chain;
        let mut w = writer(&trace);
        w.begin_chain_ids(1).expect("begin");
        w.write_chain_id(chain).expect("first");
        let err = w.write_chain_id(chain).unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed chain ids section: more entries than the declared 1"
        );

        // Under-writing fails as the section closes.
        let mut w = writer(&trace);
        w.begin_chain_ids(5).expect("begin");
        w.write_chain_id(chain).expect("first");
        let err = w.begin_touches(0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "malformed chain ids section: 1 entries written, 5 declared"
        );
    }

    /// What the writer refuses of a record: an unknown chain, and
    /// reference clocks that do not go with its count or its birth.
    #[test]
    fn records_the_columns_cannot_hold_are_refused() {
        let mut w = writer(&sample_trace(3));
        w.begin_chain_ids(1).expect("begin");
        let err = w.write_chain_id(ChainId::from_index(7)).unwrap_err();
        let want = "malformed chain ids section: object 0 references unknown chain 7";
        assert_eq!(err.to_string(), want);

        let trace = sample_trace(3);
        let second = &trace.records()[1];
        let touched = |refs, first, last| AllocationRecord {
            refs,
            first_ref_clock: first,
            last_ref_clock: last,
            ..second.clone()
        };
        let birth = second.birth_clock;
        let cases = [
            touched(1, None, None),
            touched(0, Some(birth), Some(birth)),
            touched(1, Some(birth - 1), Some(birth)),
            touched(1, Some(birth + 2), Some(birth + 1)),
        ];
        for record in cases {
            let mut records = trace.records().to_vec();
            records[1] = record;
            let bad = Trace::from_parts(
                trace.name().to_owned(),
                trace.registry().clone(),
                trace.chains().clone(),
                records,
                trace.event_keys().to_vec(),
                trace.end_seq(),
                *trace.stats(),
            );
            let err = trace_to_vec(&bad).unwrap_err();
            let want = "malformed touches section: \
                        object 1's reference count and clocks make no touch entry";
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn call_order_is_enforced() {
        let trace = sample_trace(3);
        let mut w = writer(&trace);
        assert!(w.write_alloc(8).is_err(), "alloc before the columns");
        assert!(w.begin_events(0).is_err(), "events before the columns");
        assert!(w.begin_touches(0).is_err(), "touches before chain ids");
        assert!(
            w.write_chain_id(ChainId::from_index(0)).is_err(),
            "entry before begin"
        );
        w.begin_chain_ids(0).expect("begin chain ids");
        assert!(w.begin_chain_ids(0).is_err(), "double begin");
        assert!(
            w.write_touch(Touch::default()).is_err(),
            "touch in chain ids"
        );
        w.begin_touches(0).expect("begin touches");
        let err = w.finish().unwrap_err();
        assert!(matches!(err, TraceFileError::Malformed { .. }), "{err}");
    }

    #[test]
    fn padded_lengths_cover_the_documented_range() {
        assert_eq!(padded_len(0), [0x80, 0x80, 0x80, 0x80, 0x00]);
        let max = MAX_SECTION_BYTES - 1;
        let bytes = padded_len(max);
        let mut pos = 0;
        let decoded = lifepred_trace::varint::take_varint(&bytes, &mut pos).ok();
        assert_eq!(decoded, Some(max));
        assert_eq!(pos, 5);
    }
}
