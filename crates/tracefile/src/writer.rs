//! Serializing traces into `.lpt` files.
//!
//! Payload encodings (every integer a LEB128 varint unless noted):
//!
//! * **meta** — name length + UTF-8 name bytes, end clock, end seq,
//!   then the eight [`TraceStats`](lifepred_trace::TraceStats) counters
//!   in declaration order.
//! * **functions** — count, then per function: name length + bytes, in
//!   `FnId` order.
//! * **chains** — count, then per chain: frame count + frame ids
//!   (outermost first), in `ChainId` order.
//! * **records** — count, then per record in birth order: size, chain
//!   id, birth-clock delta from the previous record (clocks are
//!   non-decreasing), birth-seq delta (the first record stores its seq
//!   verbatim; later ones store `seq - prev - 1`, as seqs strictly
//!   increase), a death code (`0` = immortal, else
//!   `death_seq - birth_seq`), the death-clock delta
//!   (`death_clock - birth_clock`, present only when dead), the
//!   reference count, and (version 2) a first-ref code (`0` = never
//!   referenced, else `first_ref_clock - birth_clock + 1`) followed —
//!   only when referenced — by `last_ref_clock - first_ref_clock`.
//! * **events** — count, then per event: the seq delta (same scheme as
//!   birth seqs) and a key varint. An even key is an allocation of
//!   `key >> 1` bytes for the next record in birth order; an odd key
//!   frees the object allocated `key >> 1` allocations ago (a
//!   back-reference, so recently-born objects — the common case —
//!   encode in one byte).

use crate::crc32::crc32;
use crate::error::TraceFileError;
use crate::format::{
    MAGIC, SECTION_CHAINS, SECTION_COUNT, SECTION_EVENTS, SECTION_FUNCTIONS, SECTION_META,
    SECTION_RECORDS, VERSION,
};
use crate::varint::write_varint;
use lifepred_trace::{
    AllocationRecord, ChainTable, EventKind, FunctionRegistry, Trace, TraceStats,
};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Writes one [`Trace`] as a `.lpt` image into any byte sink.
///
/// # Examples
///
/// ```
/// use lifepred_trace::TraceSession;
/// use lifepred_tracefile::TraceWriter;
///
/// let s = TraceSession::new("demo");
/// let id = s.alloc(16);
/// s.free(id);
/// let bytes = TraceWriter::new(Vec::new()).write(&s.finish()).unwrap();
/// assert_eq!(&bytes[1..4], b"LPT");
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
}

impl TraceWriter<BufWriter<File>> {
    /// Creates (or truncates) the file at `path` behind a buffered
    /// writer.
    pub(crate) fn create(path: impl AsRef<Path>) -> Result<Self, TraceFileError> {
        Ok(TraceWriter::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wraps an arbitrary sink.
    pub fn new(sink: W) -> Self {
        TraceWriter { sink }
    }

    /// Writes the complete `.lpt` image of `trace`, flushes, and
    /// returns the sink. Consumes the writer: a `.lpt` file holds
    /// exactly one trace.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`TraceFileError::Malformed`] if `trace`
    /// violates the invariants documented on
    /// [`Trace::from_parts`](lifepred_trace::Trace::from_parts).
    pub fn write(mut self, trace: &Trace) -> Result<W, TraceFileError> {
        self.sink.write_all(&MAGIC)?;
        self.sink.write_all(&VERSION.to_le_bytes())?;
        self.sink.write_all(&SECTION_COUNT.to_le_bytes())?;
        self.section(SECTION_META, &encode_meta(trace))?;
        self.section(SECTION_FUNCTIONS, &encode_functions(trace))?;
        self.section(SECTION_CHAINS, &encode_chains(trace)?)?;
        self.section(SECTION_RECORDS, &encode_records(trace)?)?;
        self.section(SECTION_EVENTS, &encode_events(trace)?)?;
        self.sink.flush()?;
        Ok(self.sink)
    }

    fn section(&mut self, id: u8, payload: &[u8]) -> Result<(), io::Error> {
        self.sink.write_all(&[id])?;
        let mut len = Vec::with_capacity(crate::varint::MAX_VARINT_LEN);
        write_varint(&mut len, payload.len() as u64);
        self.sink.write_all(&len)?;
        self.sink.write_all(payload)?;
        self.sink.write_all(&crc32(payload).to_le_bytes())
    }
}

pub(crate) fn encode_meta_parts(
    name: &str,
    end_clock: u64,
    end_seq: u64,
    s: &TraceStats,
) -> Vec<u8> {
    let mut out = Vec::new();
    let name = name.as_bytes();
    write_varint(&mut out, name.len() as u64);
    out.extend_from_slice(name);
    write_varint(&mut out, end_clock);
    write_varint(&mut out, end_seq);
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

fn encode_meta(trace: &Trace) -> Vec<u8> {
    encode_meta_parts(
        trace.name(),
        trace.end_clock(),
        trace.end_seq(),
        trace.stats(),
    )
}

pub(crate) fn encode_functions_parts(registry: &FunctionRegistry) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, registry.len() as u64);
    for name in registry.names() {
        write_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    out
}

fn encode_functions(trace: &Trace) -> Vec<u8> {
    encode_functions_parts(trace.registry())
}

pub(crate) fn encode_chains_parts(
    chains: &ChainTable,
    fn_count: u64,
) -> Result<Vec<u8>, TraceFileError> {
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

fn encode_chains(trace: &Trace) -> Result<Vec<u8>, TraceFileError> {
    encode_chains_parts(trace.chains(), trace.registry().len() as u64)
}

/// Delta-encoding state for one record stream, shared by the buffering
/// writer and the streaming [`StreamTraceWriter`](crate::StreamTraceWriter).
/// Validation (and its error strings) live here so both writers reject
/// exactly the same inputs.
#[derive(Debug)]
pub(crate) struct RecordEncoder {
    chain_count: u64,
    next_index: u64,
    prev_clock: u64,
    prev_seq: Option<u64>,
}

impl RecordEncoder {
    pub(crate) fn new(chain_count: u64) -> RecordEncoder {
        RecordEncoder {
            chain_count,
            next_index: 0,
            prev_clock: 0,
            prev_seq: None,
        }
    }

    /// Appends the delta encoding of `r` — which must be the next
    /// record in birth order — to `out`.
    pub(crate) fn encode(
        &mut self,
        r: &AllocationRecord,
        out: &mut Vec<u8>,
    ) -> Result<(), TraceFileError> {
        let i = self.next_index;
        let bad = |detail: String| TraceFileError::Malformed {
            section: "records",
            detail,
        };
        if r.object.index() != i {
            return Err(bad(format!("record {i} carries object id {}", r.object)));
        }
        if u64::from(r.chain.index()) >= self.chain_count {
            return Err(bad(format!("record {i} references unknown chain")));
        }
        let clock_delta = r
            .birth_clock
            .checked_sub(self.prev_clock)
            .ok_or_else(|| bad(format!("record {i} birth clock decreases")))?;
        let seq_delta = match self.prev_seq {
            None => r.birth_seq,
            Some(p) => p
                .checked_add(1)
                .and_then(|q| r.birth_seq.checked_sub(q))
                .ok_or_else(|| bad(format!("record {i} birth seq does not increase")))?,
        };
        write_varint(out, u64::from(r.size));
        write_varint(out, u64::from(r.chain.index()));
        write_varint(out, clock_delta);
        write_varint(out, seq_delta);
        match (r.death_seq, r.death_clock) {
            (None, None) => write_varint(out, 0),
            (Some(ds), Some(dc)) => {
                let code = ds
                    .checked_sub(r.birth_seq)
                    .filter(|&c| c > 0)
                    .ok_or_else(|| bad(format!("record {i} dies before it is born")))?;
                let dclock = dc
                    .checked_sub(r.birth_clock)
                    .ok_or_else(|| bad(format!("record {i} death clock precedes birth")))?;
                write_varint(out, code);
                write_varint(out, dclock);
            }
            _ => {
                return Err(bad(format!(
                    "record {i} has mismatched death clock and seq"
                )))
            }
        }
        write_varint(out, r.refs);
        match (r.first_ref_clock, r.last_ref_clock) {
            (None, None) => write_varint(out, 0),
            (Some(first), Some(last)) => {
                let first_code = first
                    .checked_sub(r.birth_clock)
                    .and_then(|d| d.checked_add(1))
                    .ok_or_else(|| bad(format!("record {i} first ref precedes birth")))?;
                let last_delta = last
                    .checked_sub(first)
                    .ok_or_else(|| bad(format!("record {i} last ref precedes first ref")))?;
                write_varint(out, first_code);
                write_varint(out, last_delta);
            }
            _ => {
                return Err(bad(format!(
                    "record {i} has mismatched first/last ref clocks"
                )))
            }
        }
        self.prev_clock = r.birth_clock;
        self.prev_seq = Some(r.birth_seq);
        self.next_index += 1;
        Ok(())
    }
}

fn encode_records(trace: &Trace) -> Result<Vec<u8>, TraceFileError> {
    let mut out = Vec::new();
    write_varint(&mut out, trace.records().len() as u64);
    let mut enc = RecordEncoder::new(trace.chains().len() as u64);
    for r in trace.records() {
        enc.encode(r, &mut out)?;
    }
    Ok(out)
}

/// Delta-encoding state for one event stream, shared by both writers.
#[derive(Debug)]
pub(crate) struct EventEncoder {
    prev_seq: Option<u64>,
    allocs: u64,
}

impl EventEncoder {
    pub(crate) fn new() -> EventEncoder {
        EventEncoder {
            prev_seq: None,
            allocs: 0,
        }
    }

    /// Allocation events encoded so far — the next birth-order index.
    pub(crate) fn allocs(&self) -> u64 {
        self.allocs
    }

    fn seq_delta(&mut self, seq: u64) -> Result<u64, TraceFileError> {
        match self.prev_seq {
            None => Ok(seq),
            Some(p) => p
                .checked_add(1)
                .and_then(|q| seq.checked_sub(q))
                .ok_or_else(|| {
                    TraceFileError::malformed(
                        "events",
                        format!("event seq {seq} does not increase"),
                    )
                }),
        }
    }

    /// Appends an allocation of `size` bytes for the next record in
    /// birth order.
    pub(crate) fn encode_alloc(
        &mut self,
        seq: u64,
        size: u32,
        out: &mut Vec<u8>,
    ) -> Result<(), TraceFileError> {
        let delta = self.seq_delta(seq)?;
        write_varint(out, delta);
        write_varint(out, u64::from(size) << 1);
        self.allocs += 1;
        self.prev_seq = Some(seq);
        Ok(())
    }

    /// Appends a free of birth-order record `record`.
    pub(crate) fn encode_free(
        &mut self,
        seq: u64,
        record: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), TraceFileError> {
        let back = self.allocs.checked_sub(1 + record).ok_or_else(|| {
            TraceFileError::malformed("events", format!("free before alloc at seq {seq}"))
        })?;
        let delta = self.seq_delta(seq)?;
        write_varint(out, delta);
        write_varint(out, (back << 1) | 1);
        self.prev_seq = Some(seq);
        Ok(())
    }
}

fn encode_events(trace: &Trace) -> Result<Vec<u8>, TraceFileError> {
    let mut out = Vec::new();
    let events = trace.events();
    write_varint(&mut out, events.len() as u64);
    let mut enc = EventEncoder::new();
    for e in events {
        match e.kind {
            EventKind::Alloc => {
                if e.record as u64 != enc.allocs() {
                    return Err(TraceFileError::malformed(
                        "events",
                        format!("allocation events out of birth order at seq {}", e.seq),
                    ));
                }
                let size = trace.records()[e.record].size;
                enc.encode_alloc(e.seq, size, &mut out)?;
            }
            EventKind::Free => enc.encode_free(e.seq, e.record as u64, &mut out)?,
        }
    }
    Ok(out)
}
