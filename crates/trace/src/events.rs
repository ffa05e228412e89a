//! Replay event streams: the interleaved alloc/free sequence of a trace.

use crate::record::ObjectId;
use crate::session::Trace;

/// What happened at one point in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An object was allocated.
    Alloc,
    /// An object was deallocated.
    Free,
}

/// One allocation or deallocation event, in trace order.
///
/// `record` indexes into [`Trace::records`]; the record carries the
/// size and call-chain needed by the heap simulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number of the event.
    pub seq: u64,
    /// Allocation or deallocation.
    pub kind: EventKind,
    /// Index of the associated record in [`Trace::records`].
    pub record: usize,
    /// The object involved.
    pub object: ObjectId,
}

impl Trace {
    /// The interleaved alloc/free event stream, in program order.
    ///
    /// Heap simulators replay this stream to reproduce exactly the
    /// sequence of demands the traced program placed on its allocator.
    pub fn events(&self) -> Vec<Event> {
        let records = self.records();
        let blank = Event {
            seq: 0,
            kind: EventKind::Alloc,
            record: 0,
            object: ObjectId(0),
        };
        let mut events = vec![blank; self.event_count()];
        self.place_events(|at, seq, record, kind| {
            let object = records[record].object;
            events[at] = Event {
                seq,
                kind,
                record,
                object,
            };
        });
        events
    }

    /// Allocations plus frees.
    pub(crate) fn event_count(&self) -> usize {
        let frees = self.records().iter().filter(|r| r.death_seq.is_some());
        self.records().len() + frees.count()
    }

    /// Calls `place(at, seq, record, kind)` once per event, where `at`
    /// is the event's index in program order. [`TraceSession`] and the
    /// `.lpt` reader number events densely from 0, so `at` is the
    /// event's `seq` and the stream is built in O(n); a trace whose seqs
    /// are not `0..n` is sorted by `seq` instead.
    ///
    /// [`TraceSession`]: crate::TraceSession
    pub(crate) fn place_events(&self, mut place: impl FnMut(usize, u64, usize, EventKind)) {
        let n = self.event_count();
        let events = || {
            let records = self.records().iter().enumerate();
            records.flat_map(|(i, r)| {
                let free = r.death_seq.map(|seq| (seq, i, EventKind::Free));
                std::iter::once((r.birth_seq, i, EventKind::Alloc)).chain(free)
            })
        };
        let mut seen = vec![false; n];
        let dense = events().all(|(seq, ..)| {
            let slot = usize::try_from(seq).ok().and_then(|at| seen.get_mut(at));
            slot.is_some_and(|seen| !std::mem::replace(seen, true))
        });
        if dense {
            events().for_each(|(seq, record, kind)| place(seq as usize, seq, record, kind));
        } else {
            let mut sorted: Vec<_> = events().collect();
            sorted.sort_unstable_by_key(|&(seq, ..)| seq);
            for (at, (seq, record, kind)) in sorted.into_iter().enumerate() {
                place(at, seq, record, kind);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TraceSession;

    #[test]
    fn events_interleave_in_program_order() {
        let s = TraceSession::new("t");
        let a = s.alloc(1); // seq 0
        let b = s.alloc(2); // seq 1
        s.free(a); // seq 2
        let c = s.alloc(3); // seq 3
        s.free(c); // seq 4
        s.free(b); // seq 5
        let t = s.finish();
        let ev = t.events();
        let kinds: Vec<EventKind> = ev.iter().map(|e| e.kind).collect();
        use EventKind::*;
        assert_eq!(kinds, vec![Alloc, Alloc, Free, Alloc, Free, Free]);
        assert_eq!(ev[2].object, t.records()[0].object);
        // Sequence numbers are dense and ordered.
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    /// The stream as the seq sort builds it: the oracle for the dense
    /// placement.
    fn sorted_events(t: &Trace) -> Vec<(u64, EventKind, usize)> {
        let mut events: Vec<_> = (t.records().iter().enumerate())
            .flat_map(|(i, r)| {
                let free = r.death_seq.map(|seq| (seq, EventKind::Free, i));
                std::iter::once((r.birth_seq, EventKind::Alloc, i)).chain(free)
            })
            .collect();
        events.sort_unstable_by_key(|e| e.0);
        events
    }

    fn stream(t: &Trace) -> Vec<(u64, EventKind, usize)> {
        t.events()
            .iter()
            .map(|e| (e.seq, e.kind, e.record))
            .collect()
    }

    #[test]
    fn a_trace_with_a_seq_gap_is_sorted_instead() {
        let s = TraceSession::new("t");
        let ids: Vec<_> = (0..40).map(|k| s.alloc(8 + k)).collect();
        for id in ids.into_iter().rev().step_by(3) {
            s.free(id);
        }
        let t = s.finish();
        assert_eq!(stream(&t), sorted_events(&t));
        // Every seq from the 10th on moves up by 1000: no longer `0..n`,
        // and most of them past the end of a dense placement.
        let mut records = t.records().to_vec();
        let shift = |seq: u64| if seq >= 10 { seq + 1000 } else { seq };
        for r in &mut records {
            r.birth_seq = shift(r.birth_seq);
            r.death_seq = r.death_seq.map(shift);
        }
        let gapped = Trace::from_parts(
            "gapped".into(),
            t.registry().clone(),
            t.chains().clone(),
            records,
            *t.stats(),
            t.end_clock(),
            t.end_seq() + 1000,
        );
        assert_eq!(stream(&gapped), sorted_events(&gapped));
        assert_eq!(gapped.events().len(), t.events().len());
    }

    #[test]
    fn immortal_objects_emit_no_free() {
        let s = TraceSession::new("t");
        s.alloc(8);
        let b = s.alloc(8);
        s.free(b);
        let t = s.finish();
        let ev = t.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev.iter().filter(|e| e.kind == EventKind::Free).count(), 1);
    }
}
