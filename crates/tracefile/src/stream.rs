//! Streaming `.lpt` output — write a trace without materializing it.
//!
//! [`TraceWriter`](crate::TraceWriter) buffers each section in memory
//! before framing it, which is fine for recorded workloads but rules
//! out the 10⁸-event synthetic traces `lifepred gen` produces: the
//! records and events payloads alone would be gigabytes.
//! [`StreamTraceWriter`] writes those two sections incrementally
//! instead. The trick is the section length, which the format puts
//! *before* the payload: the writer reserves a fixed five-byte
//! zero-padded varint (a non-canonical encoding the reader accepts,
//! covering payloads up to 32 GiB), streams the payload while
//! accumulating its CRC, and then seeks back to patch the real length —
//! one seek per large section, everything else a forward write through
//! the caller's `BufWriter`.
//!
//! Encoding and validation are shared with the buffering writer (the
//! `RecordEncoder`/`EventEncoder` in `writer.rs`), so a streamed file
//! is bit-compatible with a buffered one except for those two padded
//! length fields.

use crate::crc32::Crc32;
use crate::error::TraceFileError;
use crate::format::{
    MAGIC, SECTION_CHAINS, SECTION_COUNT, SECTION_EVENTS, SECTION_FUNCTIONS, SECTION_META,
    SECTION_RECORDS, VERSION,
};
use crate::varint::write_varint;
use crate::writer::{
    encode_chains_parts, encode_functions_parts, encode_meta_parts, EventEncoder, RecordEncoder,
};
use lifepred_trace::{AllocationRecord, ChainTable, FunctionRegistry, TraceStats};
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
    /// Byte clock at end of trace.
    pub end_clock: u64,
    /// Event sequence count at end of trace.
    pub end_seq: u64,
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

/// Incremental `.lpt` writer for the two large sections.
///
/// Call order is enforced: [`begin_records`](Self::begin_records) →
/// [`write_record`](Self::write_record)× → [`end_records`](Self::end_records) →
/// [`begin_events`](Self::begin_events) → [`write_alloc`](Self::write_alloc)/
/// [`write_free`](Self::write_free)× → [`end_events`](Self::end_events) →
/// [`finish`](Self::finish). Counts are checked against the declared
/// totals, and events carry implicit consecutive sequence numbers
/// starting at 0 — the natural numbering for generated traces.
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
///     end_clock: 8,
///     end_seq: 2,
/// };
/// let sink = std::io::Cursor::new(Vec::new());
/// let mut w = StreamTraceWriter::new(sink, &meta, &registry, &chains).unwrap();
/// w.begin_records(1).unwrap();
/// # let record = lifepred_trace::AllocationRecord {
/// #     object: lifepred_trace::ObjectId::from_index(0), size: 8,
/// #     chain: chains.intern(&[main]), birth_clock: 0, death_clock: Some(8),
/// #     birth_seq: 0, death_seq: Some(1), refs: 0,
/// #     first_ref_clock: None, last_ref_clock: None };
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
    records: RecordEncoder,
    events: EventEncoder,
    /// Sequence number of the next event (consecutive from 0).
    next_seq: u64,
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
        let meta_payload = encode_meta_parts(meta.name, meta.end_clock, meta.end_seq, &meta.stats);
        write_section(&mut sink, SECTION_META, &meta_payload)?;
        write_section(
            &mut sink,
            SECTION_FUNCTIONS,
            &encode_functions_parts(registry),
        )?;
        let chains_payload = encode_chains_parts(chains, registry.len() as u64)?;
        write_section(&mut sink, SECTION_CHAINS, &chains_payload)?;
        Ok(StreamTraceWriter {
            sink,
            scratch: Vec::with_capacity(FLUSH_BYTES + 64),
            open: None,
            stage: Stage::Records,
            records: RecordEncoder::new(chains.len() as u64),
            events: EventEncoder::new(),
            next_seq: 0,
        })
    }

    /// Opens the records section, declaring its record count.
    pub fn begin_records(&mut self, count: u64) -> Result<(), TraceFileError> {
        self.begin(Stage::Records, SECTION_RECORDS, count)
    }

    /// Appends the next allocation record (strict birth order).
    pub fn write_record(&mut self, record: &AllocationRecord) -> Result<(), TraceFileError> {
        self.entry("records", Stage::Records)?;
        // Borrow-splitting: encode into scratch, then flush by parts.
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.records.encode(record, &mut scratch);
        self.scratch = scratch;
        result?;
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
    /// birth order, at the next sequence number.
    pub fn write_alloc(&mut self, size: u32) -> Result<(), TraceFileError> {
        self.entry("events", Stage::Events)?;
        let seq = self.next_seq;
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.events.encode_alloc(seq, size, &mut scratch);
        self.scratch = scratch;
        result?;
        self.next_seq += 1;
        self.maybe_flush()
    }

    /// Appends a free of birth-order record `record` at the next
    /// sequence number.
    pub fn write_free(&mut self, record: u64) -> Result<(), TraceFileError> {
        self.entry("events", Stage::Events)?;
        let seq = self.next_seq;
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.events.encode_free(seq, record, &mut scratch);
        self.scratch = scratch;
        result?;
        self.next_seq += 1;
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
    fn entry(&mut self, section: &'static str, want: Stage) -> Result<(), TraceFileError> {
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
        Ok(())
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
    let _span = lifepred_flight::span_arg(
        lifepred_flight::catalog::TRACEFILE_GEN_SECTION,
        u64::from(id),
    );
    sink.write_all(&[id])?;
    let mut len = Vec::with_capacity(crate::varint::MAX_VARINT_LEN);
    write_varint(&mut len, payload.len() as u64);
    sink.write_all(&len)?;
    sink.write_all(payload)?;
    sink.write_all(&crate::crc32::crc32(payload).to_le_bytes())?;
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{trace_from_bytes, trace_to_vec, MappedTrace, TraceMap};
    use lifepred_trace::{EventKind, TraceSession};
    use std::io::Cursor;

    /// Streams an in-memory trace through the incremental writer.
    pub(crate) fn stream_copy(trace: &lifepred_trace::Trace) -> Vec<u8> {
        let meta = StreamMeta {
            name: trace.name(),
            stats: *trace.stats(),
            end_clock: trace.end_clock(),
            end_seq: trace.end_seq(),
        };
        let mut w = StreamTraceWriter::new(
            Cursor::new(Vec::new()),
            &meta,
            trace.registry(),
            trace.chains(),
        )
        .expect("header");
        w.begin_records(trace.records().len() as u64)
            .expect("begin records");
        for r in trace.records() {
            w.write_record(r).expect("record");
        }
        w.end_records().expect("end records");
        let events = trace.events();
        w.begin_events(events.len() as u64).expect("begin events");
        for e in &events {
            match e.kind {
                EventKind::Alloc => w
                    .write_alloc(trace.records()[e.record].size)
                    .expect("alloc"),
                EventKind::Free => w.write_free(e.record as u64).expect("free"),
            }
        }
        w.end_events().expect("end events");
        w.finish().expect("finish").into_inner()
    }

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
    fn streamed_output_decodes_identically_to_buffered() {
        let trace = sample_trace(5_000);
        let streamed = stream_copy(&trace);
        let buffered = trace_to_vec(&trace).expect("buffered encode");
        // Only the two padded length fields may differ: each costs at
        // most four extra bytes over a canonical encoding.
        let extra = streamed.len() - buffered.len();
        assert!(extra <= 8, "padding overhead is bounded, got {extra}");
        let a = trace_from_bytes(&streamed).expect("decode streamed");
        let b = trace_from_bytes(&buffered).expect("decode buffered");
        assert_eq!(a.records(), b.records());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.name(), b.name());
    }

    #[test]
    fn streamed_output_satisfies_the_mapped_reader() {
        let trace = sample_trace(2_000);
        let bytes = stream_copy(&trace);
        let mapped = MappedTrace::from_map(TraceMap::from_vec(bytes)).expect("mapped open");
        assert_eq!(mapped.record_count(), trace.records().len() as u64);
        assert_eq!(mapped.event_count(), trace.events().len() as u64);
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
            end_clock: trace.end_clock(),
            end_seq: trace.end_seq(),
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

    #[test]
    fn call_order_is_enforced() {
        let trace = sample_trace(3);
        let meta = StreamMeta {
            name: "order",
            stats: *trace.stats(),
            end_clock: trace.end_clock(),
            end_seq: trace.end_seq(),
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
        let decoded = crate::batch::take_varint(&bytes, &mut pos).ok();
        assert_eq!(decoded, Some(max));
        assert_eq!(pos, 5);
    }
}
