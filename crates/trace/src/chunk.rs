//! Structure-of-arrays event batches — the high-throughput replay path.
//!
//! Replaying a trace event-by-event pays per-record dispatch: an enum
//! construction, a `Result` wrap and an iterator-adaptor call for every
//! allocation and free. [`EventChunk`] amortizes all of that by
//! materializing events in batches of [`CHUNK_EVENTS`] into two flat,
//! reusable vectors (a packed tag word and a parallel size array); a
//! [`ChunkSource`] refills the same chunk over and over, so steady-state
//! replay performs no per-event allocation at all.
//!
//! The batch encoding is deliberately minimal:
//!
//! * `tags[i] = (record << 1) | is_free` — the birth-order record index
//!   shifted up one bit, with the low bit distinguishing frees;
//! * `sizes[i]` — the requested byte size for allocations, `0` for
//!   frees.
//!
//! Producers exist for both ends of the pipeline: [`TraceChunks`]
//! batches an in-memory [`Trace`], and `lifepred-tracefile` decodes
//! `.lpt` sections directly into chunks without ever constructing
//! per-event values.

use crate::record::{AllocationRecord, RecordSource, TraceRecords};
use crate::session::Trace;
use crate::stats::TraceStats;
use std::borrow::Borrow;
use std::convert::Infallible;

/// Events per chunk. 4096 events is ~48 KB of chunk storage — well
/// inside L2 — while keeping refill overhead (one virtual-ish call per
/// chunk) far below one part in a thousand.
pub const CHUNK_EVENTS: usize = 4096;

/// Events per chunk for long-lived, pooled replay loops. 16384 events
/// is ~192 KB of chunk storage — still L2-resident on current parts —
/// and quarters the per-refill overhead (source dispatch,
/// loop restart) relative to [`CHUNK_EVENTS`]. Drivers that keep one
/// chunk alive for a whole replay should size it with this.
pub const POOLED_CHUNK_EVENTS: usize = 16 * 1024;

/// One decoded event, borrowed out of an [`EventChunk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkEvent {
    /// Object `record` is allocated with `size` bytes.
    Alloc {
        /// Birth-order record index.
        record: usize,
        /// Requested size in bytes.
        size: u32,
    },
    /// Object `record` is freed.
    Free {
        /// Birth-order record index.
        record: usize,
    },
}

/// A reusable structure-of-arrays batch of replay events.
///
/// # Examples
///
/// ```
/// use lifepred_trace::{ChunkEvent, EventChunk};
///
/// let mut chunk = EventChunk::new();
/// chunk.push_alloc(0, 64);
/// chunk.push_free(0);
/// let events: Vec<ChunkEvent> = chunk.events().collect();
/// assert_eq!(events[0], ChunkEvent::Alloc { record: 0, size: 64 });
/// assert_eq!(events[1], ChunkEvent::Free { record: 0 });
/// ```
#[derive(Debug, Clone)]
pub struct EventChunk {
    /// `(record << 1) | is_free`, one word per event.
    tags: Vec<u64>,
    /// Requested size per event; `0` for frees.
    sizes: Vec<u32>,
    /// Events a [`ChunkSource`] should aim to batch per refill.
    target: usize,
}

impl Default for EventChunk {
    fn default() -> EventChunk {
        EventChunk::new()
    }
}

impl EventChunk {
    /// An empty chunk with room for [`CHUNK_EVENTS`] events.
    pub fn new() -> EventChunk {
        EventChunk::with_capacity(CHUNK_EVENTS)
    }

    /// An empty chunk with room for `capacity` events.
    ///
    /// The capacity doubles as the chunk's [`target`](Self::target):
    /// sources fill up to it per refill, so a chunk built with
    /// [`POOLED_CHUNK_EVENTS`] batches 4× more per source call.
    pub fn with_capacity(capacity: usize) -> EventChunk {
        let target = capacity.max(1);
        EventChunk {
            tags: Vec::with_capacity(target),
            sizes: Vec::with_capacity(target),
            target,
        }
    }

    /// Events a source should batch per refill — the capacity the
    /// chunk was built with.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Empties the chunk, retaining its buffers.
    pub fn clear(&mut self) {
        self.tags.clear();
        self.sizes.clear();
    }

    /// Number of events currently batched.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the chunk holds no events.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Appends an allocation of `size` bytes for record `record`.
    pub fn push_alloc(&mut self, record: u64, size: u32) {
        self.tags.push(record << 1);
        self.sizes.push(size);
    }

    /// Appends a free of record `record`.
    pub fn push_free(&mut self, record: u64) {
        self.tags.push((record << 1) | 1);
        self.sizes.push(0);
    }

    /// Iterates the batched events in order.
    pub fn events(&self) -> impl Iterator<Item = ChunkEvent> + '_ {
        self.tags
            .iter()
            .zip(&self.sizes)
            .map(|(&tag, &size)| decode(tag, size))
    }
}

/// One packed event as its [`ChunkEvent`].
#[inline]
fn decode(tag: u64, size: u32) -> ChunkEvent {
    let record = (tag >> 1) as usize;
    if tag & 1 == 0 {
        ChunkEvent::Alloc { record, size }
    } else {
        ChunkEvent::Free { record }
    }
}

/// A producer of [`EventChunk`] batches.
///
/// `next_chunk` clears and refills the caller's chunk; returning
/// `Ok(false)` means the stream is exhausted (the chunk is left empty).
/// Sources are not required to fill chunks completely — only the final
/// `false` marks the end.
pub trait ChunkSource {
    /// Why the source can fail (use [`Infallible`] for in-memory
    /// sources).
    type Error;

    /// Refills `chunk` with the next batch of events.
    ///
    /// # Errors
    ///
    /// Decode or I/O failures of the underlying stream.
    fn next_chunk(&mut self, chunk: &mut EventChunk) -> Result<bool, Self::Error>;
}

/// A materialized [`Trace`]'s event stream: the one in-memory form of
/// it.
///
/// It borrows the program-order tags the trace was recorded with. Each
/// [`ChunkSource::next_chunk`] call copies the next window into the
/// caller's chunk, with each allocation's size read from its record;
/// [`TraceChunks::events`] reads the events not yet handed out one at a
/// time.
///
/// # Examples
///
/// ```
/// use lifepred_trace::{ChunkEvent, TraceChunks, TraceSession};
///
/// let session = TraceSession::new("demo");
/// let obj = session.alloc(24);
/// session.free(obj);
/// let events: Vec<ChunkEvent> = TraceChunks::new(&session.finish()).events().collect();
/// assert_eq!(
///     events,
///     [ChunkEvent::Alloc { record: 0, size: 24 }, ChunkEvent::Free { record: 0 }]
/// );
/// ```
#[derive(Debug, Clone)]
pub struct TraceChunks<'a> {
    /// `(record << 1) | is_free` tags in program order.
    tags: &'a [u64],
    /// The records the tags index: where allocation sizes are read.
    records: &'a [AllocationRecord],
    /// Next unconsumed index into `tags`.
    pos: usize,
}

impl<'a> TraceChunks<'a> {
    /// Prepares the batched event stream of `trace`.
    pub fn new(trace: &'a Trace) -> TraceChunks<'a> {
        TraceChunks {
            tags: trace.event_tags(),
            records: trace.records(),
            pos: 0,
        }
    }

    /// The events not yet handed out by [`ChunkSource::next_chunk`], in
    /// order, decoded as [`EventChunk::events`] decodes them.
    pub fn events(&self) -> impl ExactSizeIterator<Item = ChunkEvent> + '_ {
        (self.tags[self.pos..].iter()).map(|&tag| decode(tag, self.size(tag)))
    }

    /// The size an event's chunk entry carries: its record's for an
    /// allocation, `0` for a free.
    #[inline]
    fn size(&self, tag: u64) -> u32 {
        if tag & 1 == 0 {
            self.records[(tag >> 1) as usize].size
        } else {
            0
        }
    }
}

impl ChunkSource for TraceChunks<'_> {
    type Error = Infallible;

    fn next_chunk(&mut self, chunk: &mut EventChunk) -> Result<bool, Infallible> {
        chunk.clear();
        let end = (self.pos + chunk.target()).min(self.tags.len());
        if self.pos == end {
            return Ok(false);
        }
        let window = &self.tags[self.pos..end];
        chunk.tags.extend_from_slice(window);
        chunk.sizes.extend(window.iter().map(|&tag| self.size(tag)));
        self.pos = end;
        Ok(true)
    }
}

/// A whole trace, wherever it lives: what a replay reads of it. The
/// event batches drive the simulated heap; the records, walked once in
/// birth order, give each allocation its site. A [`Trace`] cannot fail;
/// a trace-file reader fails with its decode error.
pub trait TraceSource {
    /// Why reading the trace can fail ([`Infallible`] in memory).
    type Error;
    /// One allocation record as the records walk yields it.
    type Record<'a>: Borrow<AllocationRecord>
    where
        Self: 'a;
    /// The records walk, in birth order.
    type Records<'a>: Iterator<Item = Result<Self::Record<'a>, Self::Error>>
    where
        Self: 'a;
    /// The event batches, in program order.
    type Events<'a>: ChunkSource<Error = Self::Error>
    where
        Self: 'a;

    /// The traced program's name.
    fn name(&self) -> &str;
    /// The header's statistics: totals and maxima of the traced run,
    /// which a full walk of the events must reproduce.
    fn stats(&self) -> &TraceStats;
    /// A fresh pass over the event stream.
    fn events(&self) -> Self::Events<'_>;
    /// A fresh pass over the records; fails if the walk cannot start.
    fn record_source(&self) -> Result<RecordSource<'_, Self::Records<'_>>, Self::Error>;
}

impl TraceSource for Trace {
    type Error = Infallible;
    type Record<'a> = &'a AllocationRecord;
    type Records<'a> = TraceRecords<'a>;
    type Events<'a> = TraceChunks<'a>;

    fn name(&self) -> &str {
        Trace::name(self)
    }

    fn stats(&self) -> &TraceStats {
        Trace::stats(self)
    }

    fn events(&self) -> TraceChunks<'_> {
        TraceChunks::new(self)
    }

    fn record_source(&self) -> Result<RecordSource<'_, TraceRecords<'_>>, Infallible> {
        Ok(self.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TraceSession;

    #[test]
    fn chunk_roundtrips_events() {
        let mut c = EventChunk::new();
        c.push_alloc(7, 640);
        c.push_free(7);
        c.push_alloc(8, 1);
        assert_eq!(c.len(), 3);
        let got: Vec<ChunkEvent> = c.events().collect();
        assert_eq!(
            got,
            vec![
                ChunkEvent::Alloc {
                    record: 7,
                    size: 640
                },
                ChunkEvent::Free { record: 7 },
                ChunkEvent::Alloc { record: 8, size: 1 },
            ]
        );
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn trace_chunks_match_the_event_stream() {
        let s = TraceSession::new("chunks");
        let mut held = Vec::new();
        for i in 0..10_000u32 {
            let id = s.alloc(i % 512 + 1);
            if i % 3 == 0 {
                s.free(id);
            } else {
                held.push(id);
            }
        }
        for id in held {
            s.free(id);
        }
        let t = s.finish();

        let mut src = TraceChunks::new(&t);
        let mut chunk = EventChunk::new();
        let mut got = Vec::new();
        while src.next_chunk(&mut chunk).unwrap() {
            assert!(chunk.len() <= CHUNK_EVENTS);
            got.extend(chunk.events());
        }
        assert!(chunk.is_empty(), "final refill leaves the chunk empty");

        let want: Vec<ChunkEvent> = TraceChunks::new(&t).events().collect();
        assert_eq!(got, want);
        assert_eq!(got.len(), 20_000);
    }

    #[test]
    fn capacity_sets_the_refill_target() {
        assert_eq!(EventChunk::new().target(), CHUNK_EVENTS);
        assert_eq!(EventChunk::default().target(), CHUNK_EVENTS);
        let big = EventChunk::with_capacity(POOLED_CHUNK_EVENTS);
        assert_eq!(big.target(), POOLED_CHUNK_EVENTS);
        // Degenerate capacities still make progress one event at a time.
        assert_eq!(EventChunk::with_capacity(0).target(), 1);

        let s = TraceSession::new("target");
        let mut ids = Vec::new();
        for i in 0..6_000u32 {
            ids.push(s.alloc(i % 64 + 1));
        }
        for id in ids {
            s.free(id);
        }
        let t = s.finish();
        let mut src = TraceChunks::new(&t);
        let mut chunk = EventChunk::with_capacity(512);
        let mut total = 0usize;
        while src.next_chunk(&mut chunk).unwrap() {
            assert!(chunk.len() <= 512);
            total += chunk.len();
        }
        assert_eq!(total, 12_000);
    }

    #[test]
    fn events_interleave_in_program_order() {
        let s = TraceSession::new("t");
        let a = s.alloc(1);
        let b = s.alloc(2);
        s.free(a);
        let c = s.alloc(3);
        s.free(c);
        s.free(b);
        let t = s.finish();
        let ev: Vec<ChunkEvent> = TraceChunks::new(&t).events().collect();
        let frees: Vec<bool> = ev
            .iter()
            .map(|e| matches!(e, ChunkEvent::Free { .. }))
            .collect();
        assert_eq!(frees, vec![false, false, true, false, true, true]);
        assert_eq!(ev[2], ChunkEvent::Free { record: 0 });
        assert_eq!(ev[3], ChunkEvent::Alloc { record: 2, size: 3 });
    }

    #[test]
    fn immortal_objects_emit_no_free() {
        let s = TraceSession::new("t");
        s.alloc(8);
        let b = s.alloc(8);
        s.free(b);
        let t = s.finish();
        let ev: Vec<ChunkEvent> = TraceChunks::new(&t).events().collect();
        assert_eq!(ev.len(), 3);
        let frees = ev.iter().filter(|e| matches!(e, ChunkEvent::Free { .. }));
        assert_eq!(frees.count(), 1);
    }

    #[test]
    fn empty_trace_yields_no_chunks() {
        let t = TraceSession::new("empty").finish();
        let mut src = TraceChunks::new(&t);
        let mut chunk = EventChunk::new();
        assert!(!src.next_chunk(&mut chunk).unwrap());
        assert!(!src.next_chunk(&mut chunk).unwrap());
    }
}
