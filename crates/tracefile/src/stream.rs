//! Writing `.lpt` files: the one encoder.
//!
//! [`StreamTraceWriter`] writes the three small sections eagerly and
//! streams the two large ones, so nothing has to be materialized to be
//! written: `lifepred gen` drives it straight from a simulation whose
//! 10⁸-event records and events payloads alone would be gigabytes, and
//! [`write_trace`] drives it from an in-memory [`Trace`] for
//! [`save_trace`](crate::save_trace) and
//! [`trace_to_vec`](crate::trace_to_vec), copying the trace's event keys
//! as its session recorded them. The format puts a section's
//! length *before* its payload, so for each large section the writer
//! reserves a fixed five-byte zero-padded varint (a non-canonical
//! encoding the reader accepts, covering payloads up to 32 GiB), streams
//! the payload while accumulating its CRC, and then seeks back to patch
//! the real length — one seek per large section, everything else a
//! forward write through the caller's buffered sink.
//!
//! Payload encodings (every integer a LEB128 varint unless noted):
//!
//! * **meta** — name length + UTF-8 name bytes, then the eight
//!   [`TraceStats`] counters in declaration order. The end clock is
//!   `total_bytes` and the end seq the event count, so neither is
//!   stored again.
//! * **functions** — count, then per function: name length + bytes, in
//!   `FnId` order.
//! * **chains** — count, then per chain: frame count + frame ids
//!   (outermost first), in `ChainId` order.
//! * **records** — count, then per record in birth order: size, chain
//!   id, a lifetime code (`0` = immortal, else
//!   `death_clock - birth_clock - size + 1`, so no record can die
//!   before its own bytes are allocated), the reference count, and a
//!   first-ref code (`0` = never referenced, else
//!   `first_ref_clock - birth_clock + 1`) followed — only when
//!   referenced — by `last_ref_clock - first_ref_clock`. A record's
//!   birth clock is not stored: it is the sum of the earlier records'
//!   sizes. Where a birth or a death falls among the other events is
//!   the events section's to say, and it says it once.
//! * **events** — count, then one key varint per event
//!   ([`lifepred_trace::keys`]: an even key allocates `key >> 1` bytes
//!   for the next record in birth order, an odd key frees the object
//!   allocated `key >> 1` allocations ago). An event's seq is its index
//!   and the byte clock is the sum of the sizes allocated before it, so
//!   neither is stored: the reader's lockstep walk
//!   ([`MappedTrace::verify`](crate::MappedTrace::verify)) derives the
//!   clock and checks each allocation's size against its record, each
//!   free against the death clock its record promised, and the totals
//!   against the meta section.

use crate::crc32::Crc32;
use crate::error::TraceFileError;
use crate::format::{
    MAGIC, SECTION_CHAINS, SECTION_COUNT, SECTION_EVENTS, SECTION_FUNCTIONS, SECTION_META,
    SECTION_RECORDS, VERSION,
};
use lifepred_trace::keys::{encode_alloc, encode_free};
use lifepred_trace::varint::{write_varint, MAX_VARINT_LEN};
use lifepred_trace::{AllocationRecord, ChainTable, FunctionRegistry, Trace, TraceStats};
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

/// Which part of the file comes next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Records,
    Events,
    Finish,
}

/// The `.lpt` writer.
///
/// Call order is enforced: [`begin_records`](Self::begin_records) →
/// [`write_record`](Self::write_record)× → [`end_records`](Self::end_records) →
/// [`begin_events`](Self::begin_events) → [`write_alloc`](Self::write_alloc)/
/// [`write_free`](Self::write_free)× → [`end_events`](Self::end_events) →
/// [`finish`](Self::finish). Counts are checked against the declared
/// totals and records against the invariants documented on
/// [`Trace::from_parts`] that a record can break alone: a known chain,
/// a birth clock that is the sum of the earlier records' sizes, and no
/// death or reference before the record's birth.
///
/// # Examples
///
/// ```
/// use lifepred_trace::{ChainTable, FunctionRegistry, TraceStats};
/// use lifepred_tracefile::{trace_from_bytes, StreamMeta, StreamTraceWriter};
///
/// let mut registry = FunctionRegistry::new();
/// let main = registry.intern("main");
/// let mut chains = ChainTable::new();
/// chains.intern(&[main]);
/// let meta = StreamMeta {
///     name: "streamed",
///     stats: TraceStats { total_bytes: 8, total_objects: 1, max_live_bytes: 8,
///                         max_live_objects: 1, ..TraceStats::default() },
/// };
/// let sink = std::io::Cursor::new(Vec::new());
/// let mut w = StreamTraceWriter::new(sink, &meta, &registry, &chains).unwrap();
/// w.begin_records(1).unwrap();
/// # let record = lifepred_trace::AllocationRecord {
/// #     size: 8, chain: chains.intern(&[main]), birth_clock: 0,
/// #     death_clock: Some(8), refs: 0, first_ref_clock: None, last_ref_clock: None };
/// w.write_record(&record).unwrap();
/// w.end_records().unwrap();
/// w.begin_events(2).unwrap();
/// w.write_alloc(8).unwrap();
/// w.write_free(0).unwrap();
/// w.end_events().unwrap();
/// let bytes = w.finish().unwrap().into_inner();
/// assert_eq!(trace_from_bytes(&bytes).unwrap().records().len(), 1);
/// ```
#[derive(Debug)]
pub struct StreamTraceWriter<W: Write + Seek> {
    sink: W,
    scratch: Vec<u8>,
    open: Option<OpenSection>,
    stage: Stage,
    /// Entries in the chain table: every record's chain id is below it.
    chain_count: u64,
    /// Sizes of the records written so far: the next one's birth clock.
    clock: u64,
    /// Allocation events written so far: the next birth-order index.
    allocs: u64,
}

impl<W: Write + Seek> StreamTraceWriter<W> {
    /// Writes the header and the three small sections eagerly, leaving
    /// the writer ready for [`begin_records`](Self::begin_records).
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
        write_section(&mut sink, SECTION_META, &encode_meta(meta))?;
        write_section(&mut sink, SECTION_FUNCTIONS, &encode_functions(registry))?;
        let chains_payload = encode_chains(chains, registry.len() as u64)?;
        write_section(&mut sink, SECTION_CHAINS, &chains_payload)?;
        Ok(StreamTraceWriter {
            sink,
            scratch: Vec::with_capacity(FLUSH_BYTES + 64),
            open: None,
            stage: Stage::Records,
            chain_count: chains.len() as u64,
            clock: 0,
            allocs: 0,
        })
    }

    /// Opens the records section, declaring its record count.
    pub fn begin_records(&mut self, count: u64) -> Result<(), TraceFileError> {
        self.begin(Stage::Records, SECTION_RECORDS, count)
    }

    /// Appends the next allocation record (strict birth order).
    pub fn write_record(&mut self, r: &AllocationRecord) -> Result<(), TraceFileError> {
        let i = self.entry("records", Stage::Records)?;
        let bad = |detail: String| TraceFileError::malformed("records", detail);
        if u64::from(r.chain.index()) >= self.chain_count {
            return Err(bad(format!("record {i} references unknown chain")));
        }
        if r.birth_clock != self.clock {
            return Err(bad(format!(
                "record {i} is born at clock {}, after {} bytes of records",
                r.birth_clock, self.clock
            )));
        }
        let end = (self.clock.checked_add(u64::from(r.size)))
            .ok_or_else(|| bad(format!("record {i} overflows the byte clock")))?;
        // The code is never 0 for a mortal record.
        let lifetime = match r.death_clock {
            None => 0,
            Some(death) => (death.checked_sub(end))
                .and_then(|d| d.checked_add(1))
                .ok_or_else(|| bad(format!("record {i} dies before its bytes are allocated")))?,
        };
        // (first-ref code, last-ref delta); the code is never 0.
        let touched = match (r.first_ref_clock, r.last_ref_clock) {
            (None, None) => None,
            (Some(first), Some(last)) => Some((
                first
                    .checked_sub(r.birth_clock)
                    .and_then(|d| d.checked_add(1))
                    .ok_or_else(|| bad(format!("record {i} first ref precedes birth")))?,
                last.checked_sub(first)
                    .ok_or_else(|| bad(format!("record {i} last ref precedes first ref")))?,
            )),
            _ => {
                return Err(bad(format!(
                    "record {i} has mismatched first/last ref clocks"
                )))
            }
        };
        let out = &mut self.scratch;
        write_varint(out, u64::from(r.size));
        write_varint(out, u64::from(r.chain.index()));
        write_varint(out, lifetime);
        write_varint(out, r.refs);
        write_coded_pair(out, touched);
        self.clock = end;
        self.maybe_flush()
    }

    /// Closes the records section, patching its length and CRC.
    pub fn end_records(&mut self) -> Result<(), TraceFileError> {
        self.end("records", Stage::Records, Stage::Events)
    }

    /// Opens the events section, declaring its event count.
    pub fn begin_events(&mut self, count: u64) -> Result<(), TraceFileError> {
        self.begin(Stage::Events, SECTION_EVENTS, count)
    }

    /// Appends an allocation of `size` bytes for the next record in
    /// birth order.
    pub fn write_alloc(&mut self, size: u32) -> Result<(), TraceFileError> {
        self.entry("events", Stage::Events)?;
        self.allocs += 1;
        encode_alloc(&mut self.scratch, size);
        self.maybe_flush()
    }

    /// Appends a free of birth-order record `record`.
    pub fn write_free(&mut self, record: u64) -> Result<(), TraceFileError> {
        let event = self.entry("events", Stage::Events)?;
        encode_free(&mut self.scratch, self.allocs, record).ok_or_else(|| {
            TraceFileError::malformed("events", format!("free before alloc at event {event}"))
        })?;
        self.maybe_flush()
    }

    /// Closes the events section, patching its length and CRC.
    pub fn end_events(&mut self) -> Result<(), TraceFileError> {
        self.end("events", Stage::Events, Stage::Finish)
    }

    /// Flushes and returns the sink. Errors if either large section
    /// was never written.
    pub fn finish(mut self) -> Result<W, TraceFileError> {
        if self.stage != Stage::Finish {
            return Err(TraceFileError::malformed(
                "trailer",
                "stream writer finished before both large sections were written",
            ));
        }
        self.sink.flush()?;
        Ok(self.sink)
    }

    fn begin(&mut self, want: Stage, id: u8, count: u64) -> Result<(), TraceFileError> {
        let section = if id == SECTION_RECORDS {
            "records"
        } else {
            "events"
        };
        if self.stage != want || self.open.is_some() {
            return Err(out_of_order(section));
        }
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
    fn entry(&mut self, section: &'static str, want: Stage) -> Result<u64, TraceFileError> {
        if self.stage != want {
            return Err(out_of_order(section));
        }
        let open = self.open.as_mut().ok_or_else(|| out_of_order(section))?;
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

    fn end(
        &mut self,
        section: &'static str,
        want: Stage,
        next: Stage,
    ) -> Result<(), TraceFileError> {
        if self.stage != want || self.open.is_none() {
            return Err(out_of_order(section));
        }
        self.flush_scratch()?;
        let open = self.open.take().expect("checked above");
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
        self.stage = next;
        Ok(())
    }
}

/// Writes the complete `.lpt` image of `trace` into `sink`: the header
/// sections, every record, then the trace's event keys as they are.
///
/// # Errors
///
/// I/O failures, or [`TraceFileError::Malformed`] if a record breaks
/// an invariant [`StreamTraceWriter`] checks.
pub(crate) fn write_trace<W: Write + Seek>(trace: &Trace, sink: W) -> Result<W, TraceFileError> {
    let meta = StreamMeta {
        name: trace.name(),
        stats: *trace.stats(),
    };
    let mut w = StreamTraceWriter::new(sink, &meta, trace.registry(), trace.chains())?;
    w.begin_records(trace.records().len() as u64)?;
    for r in trace.records() {
        w.write_record(r)?;
    }
    w.end_records()?;
    // The keys are the section's payload as the session recorded it.
    w.begin_events(trace.end_seq())?;
    w.scratch.extend_from_slice(trace.event_keys());
    w.open.as_mut().expect("the events section is open").seen = trace.end_seq();
    w.end_events()?;
    w.finish()
}

/// Writes `0`, or the two varints of a pair whose first is never 0.
fn write_coded_pair(out: &mut Vec<u8>, pair: Option<(u64, u64)>) {
    match pair {
        None => write_varint(out, 0),
        Some((code, delta)) => {
            write_varint(out, code);
            write_varint(out, delta);
        }
    }
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
    use lifepred_trace::TraceSession;
    use std::io::Cursor;

    fn sample_trace(objects: u32) -> lifepred_trace::Trace {
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
        let decoded: Vec<_> = mapped
            .records()
            .expect("records")
            .collect::<Result<_, _>>()
            .expect("decode");
        assert_eq!(decoded, trace.records());
    }

    #[test]
    fn count_mismatches_are_rejected() {
        let trace = sample_trace(10);
        let meta = StreamMeta {
            name: "bad-counts",
            stats: *trace.stats(),
        };
        let mut w = StreamTraceWriter::new(
            Cursor::new(Vec::new()),
            &meta,
            trace.registry(),
            trace.chains(),
        )
        .expect("header");
        w.begin_records(1).expect("begin");
        w.write_record(&trace.records()[0]).expect("first");
        let err = w.write_record(&trace.records()[1]).unwrap_err();
        assert!(matches!(err, TraceFileError::Malformed { .. }), "{err}");

        // Under-writing fails at end_records.
        let mut w = StreamTraceWriter::new(
            Cursor::new(Vec::new()),
            &meta,
            trace.registry(),
            trace.chains(),
        )
        .expect("header");
        w.begin_records(5).expect("begin");
        w.write_record(&trace.records()[0]).expect("first");
        assert!(w.end_records().is_err());
    }

    /// A record's birth clock is not stored, so the writer refuses one
    /// the reader would not derive, and a death it could not encode.
    #[test]
    fn records_off_the_running_clock_are_refused() {
        let trace = sample_trace(3);
        let meta = StreamMeta {
            name: "clock",
            stats: *trace.stats(),
        };
        let (first, second) = (&trace.records()[0], &trace.records()[1]);
        let early = lifepred_trace::AllocationRecord {
            birth_clock: second.birth_clock - 1,
            ..second.clone()
        };
        let stillborn = lifepred_trace::AllocationRecord {
            death_clock: Some(second.birth_clock + u64::from(second.size) - 1),
            ..second.clone()
        };
        let cases = [
            (
                early,
                format!(
                    "malformed records section: record 1 is born at clock {}, \
                     after {} bytes of records",
                    second.birth_clock - 1,
                    first.size
                ),
            ),
            (
                stillborn,
                "malformed records section: record 1 dies before its bytes are allocated"
                    .to_owned(),
            ),
        ];
        for (record, want) in cases {
            let sink = Cursor::new(Vec::new());
            let mut w =
                StreamTraceWriter::new(sink, &meta, trace.registry(), trace.chains()).unwrap();
            w.begin_records(2).expect("begin");
            w.write_record(first).expect("record 0");
            assert_eq!(w.write_record(&record).unwrap_err().to_string(), want);
        }
    }

    #[test]
    fn call_order_is_enforced() {
        let trace = sample_trace(3);
        let meta = StreamMeta {
            name: "order",
            stats: *trace.stats(),
        };
        let mut w = StreamTraceWriter::new(
            Cursor::new(Vec::new()),
            &meta,
            trace.registry(),
            trace.chains(),
        )
        .expect("header");
        assert!(w.write_alloc(8).is_err(), "alloc before records");
        assert!(w.begin_events(0).is_err(), "events before records");
        assert!(w.end_records().is_err(), "end before begin");
        w.begin_records(0).expect("begin records");
        assert!(w.begin_records(0).is_err(), "double begin");
        w.end_records().expect("end records");
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
