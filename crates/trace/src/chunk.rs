//! Structure-of-arrays event batches — the high-throughput replay path.
//!
//! Replaying a trace event-by-event pays per-record dispatch: an enum
//! construction, a `Result` wrap and an iterator-adaptor call for every
//! allocation and free. [`EventChunk`] amortizes all of that by
//! materializing events in batches of [`POOLED_CHUNK_EVENTS`] into two
//! flat, reusable vectors (a packed tag word and a parallel size array);
//! a [`ChunkSource`] refills the same chunk over and over, so
//! steady-state replay performs no per-event allocation at all. Every
//! source fills chunks with the one key decoder,
//! [`EventKeys`](crate::EventKeys), from a [`Trace`]'s `.lpt` keys or a
//! mapped file's.
//!
//! The batch encoding is deliberately minimal:
//!
//! * `tags[i] = (record << 1) | is_free` — the birth-order record index
//!   shifted up one bit, with the low bit distinguishing frees;
//! * `sizes[i]` — the requested byte size for allocations, `0` for
//!   frees.

use crate::keys::TraceEvents;
use crate::record::{AllocationRecord, RecordSource, TraceRecords};
use crate::session::Trace;
use crate::stats::TraceStats;
use std::borrow::Borrow;
use std::convert::Infallible;

/// Events per chunk. 16384 events is ~192 KB of chunk storage — still
/// L2-resident on current parts — while keeping refill overhead (source
/// dispatch, loop restart) far below one part in a thousand. Every
/// replay loop keeps one chunk of this size alive for a whole replay.
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
/// chunk.push(ChunkEvent::Alloc { record: 0, size: 64 });
/// chunk.push(ChunkEvent::Free { record: 0 });
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
    /// An empty chunk with room for [`POOLED_CHUNK_EVENTS`] events.
    pub fn new() -> EventChunk {
        EventChunk::with_capacity(POOLED_CHUNK_EVENTS)
    }

    /// An empty chunk with room for `capacity` events.
    ///
    /// The capacity doubles as the chunk's [`target`](Self::target):
    /// sources fill up to it per refill.
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

    /// Appends `event`.
    #[inline]
    pub fn push(&mut self, event: ChunkEvent) {
        let (tag, size) = match event {
            ChunkEvent::Alloc { record, size } => ((record as u64) << 1, size),
            ChunkEvent::Free { record } => (((record as u64) << 1) | 1, 0),
        };
        self.tags.push(tag);
        self.sizes.push(size);
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
    type Events<'a> = TraceEvents<'a>;

    fn name(&self) -> &str {
        Trace::name(self)
    }

    fn stats(&self) -> &TraceStats {
        Trace::stats(self)
    }

    fn events(&self) -> TraceEvents<'_> {
        Trace::events(self)
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
        c.push(ChunkEvent::Alloc {
            record: 7,
            size: 640,
        });
        c.push(ChunkEvent::Free { record: 7 });
        c.push(ChunkEvent::Alloc { record: 8, size: 1 });
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
    fn chunks_match_the_event_stream() {
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

        let mut src = t.events();
        let mut chunk = EventChunk::with_capacity(4096);
        let mut got = Vec::new();
        while src.next_chunk(&mut chunk).unwrap() {
            assert!(chunk.len() <= 4096);
            got.extend(chunk.events());
        }
        assert!(chunk.is_empty(), "final refill leaves the chunk empty");

        let want: Vec<ChunkEvent> = t.events().into_iter().collect();
        assert_eq!(got, want);
        assert_eq!(got.len(), 20_000);
    }

    #[test]
    fn capacity_sets_the_refill_target() {
        assert_eq!(EventChunk::new().target(), POOLED_CHUNK_EVENTS);
        assert_eq!(EventChunk::default().target(), POOLED_CHUNK_EVENTS);
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
        let mut src = t.events();
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
        let ev: Vec<ChunkEvent> = t.events().into_iter().collect();
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
        let ev: Vec<ChunkEvent> = t.events().into_iter().collect();
        assert_eq!(ev.len(), 3);
        let frees = ev.iter().filter(|e| matches!(e, ChunkEvent::Free { .. }));
        assert_eq!(frees.count(), 1);
    }

    #[test]
    fn empty_trace_yields_no_chunks() {
        let t = TraceSession::new("empty").finish();
        let mut src = t.events();
        let mut chunk = EventChunk::new();
        assert!(!src.next_chunk(&mut chunk).unwrap());
        assert!(!src.next_chunk(&mut chunk).unwrap());
    }
}
