//! Program order: where each allocation and free of a trace falls in
//! its interleaved event stream, which [`TraceChunks`] packs.
//!
//! [`TraceChunks`]: crate::TraceChunks

use crate::session::Trace;

impl Trace {
    /// Allocations plus frees.
    pub(crate) fn event_count(&self) -> usize {
        let frees = self.records().iter().filter(|r| r.death_seq.is_some());
        self.records().len() + frees.count()
    }

    /// Calls `place(at, tag)` once per event, where `at` is the event's
    /// index in program order and `tag` its packed
    /// `(record << 1) | is_free` word. [`TraceSession`] and the `.lpt`
    /// reader number events densely from 0, so `at` is the event's seq
    /// and the stream is built in O(n); a trace whose seqs are not
    /// `0..n` is sorted by seq instead.
    ///
    /// [`TraceSession`]: crate::TraceSession
    pub(crate) fn place_events(&self, mut place: impl FnMut(usize, u64)) {
        let n = self.event_count();
        let events = || {
            let records = (0u64..).zip(self.records());
            records.flat_map(|(i, r)| {
                let free = r.death_seq.map(|seq| (seq, (i << 1) | 1));
                std::iter::once((r.birth_seq, i << 1)).chain(free)
            })
        };
        let mut seen = vec![false; n];
        let dense = events().all(|(seq, _)| {
            let slot = usize::try_from(seq).ok().and_then(|at| seen.get_mut(at));
            slot.is_some_and(|seen| !std::mem::replace(seen, true))
        });
        if dense {
            events().for_each(|(seq, tag)| place(seq as usize, tag));
        } else {
            let mut sorted: Vec<_> = events().collect();
            sorted.sort_unstable_by_key(|&(seq, _)| seq);
            for (at, (_, tag)) in sorted.into_iter().enumerate() {
                place(at, tag);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkEvent, TraceChunks};
    use crate::session::TraceSession;

    /// The seq the records give event `e`.
    fn seq_of(t: &Trace, e: ChunkEvent) -> Option<u64> {
        match e {
            ChunkEvent::Alloc { record, .. } => Some(t.records()[record].birth_seq),
            ChunkEvent::Free { record } => t.records()[record].death_seq,
        }
    }

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
        let ev: Vec<ChunkEvent> = TraceChunks::new(&t).events().collect();
        let frees: Vec<bool> = ev
            .iter()
            .map(|e| matches!(e, ChunkEvent::Free { .. }))
            .collect();
        assert_eq!(frees, vec![false, false, true, false, true, true]);
        assert_eq!(ev[2], ChunkEvent::Free { record: 0 });
        // Sequence numbers are dense and ordered.
        for (i, &e) in (0u64..).zip(&ev) {
            assert_eq!(seq_of(&t, e), Some(i));
        }
    }

    /// The stream as the seq sort builds it: the oracle for the dense
    /// placement.
    fn sorted_events(t: &Trace) -> Vec<ChunkEvent> {
        let mut events: Vec<_> = (t.records().iter().enumerate())
            .flat_map(|(record, r)| {
                let free = r.death_seq.map(|seq| (seq, ChunkEvent::Free { record }));
                let size = r.size;
                std::iter::once((r.birth_seq, ChunkEvent::Alloc { record, size })).chain(free)
            })
            .collect();
        events.sort_unstable_by_key(|e| e.0);
        events.into_iter().map(|(_, e)| e).collect()
    }

    fn stream(t: &Trace) -> Vec<ChunkEvent> {
        TraceChunks::new(t).events().collect()
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
        assert_eq!(stream(&gapped).len(), stream(&t).len());
    }

    #[test]
    fn immortal_objects_emit_no_free() {
        let s = TraceSession::new("t");
        s.alloc(8);
        let b = s.alloc(8);
        s.free(b);
        let t = s.finish();
        let ev = stream(&t);
        assert_eq!(ev.len(), 3);
        let frees = ev.iter().filter(|e| matches!(e, ChunkEvent::Free { .. }));
        assert_eq!(frees.count(), 1);
    }
}
