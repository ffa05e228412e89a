//! The in-memory event stream is built by placing each event at its
//! `seq`, without a sort. On every workload it must equal the stream a
//! sort by `seq` gives, both as [`Trace::events`] and as the batches
//! [`TraceChunks`] hands the replay loop.

use lifepred_trace::{
    shared_registry, ChunkEvent, ChunkSource, EventChunk, EventKind, Trace, TraceChunks,
};
use lifepred_workloads::{all_workloads, record};

/// The oracle: every alloc and free of `trace`, sorted by `seq`.
fn sorted_events(trace: &Trace) -> Vec<(u64, EventKind, usize)> {
    let mut events: Vec<_> = (trace.records().iter().enumerate())
        .flat_map(|(i, r)| {
            let free = r.death_seq.map(|seq| (seq, EventKind::Free, i));
            std::iter::once((r.birth_seq, EventKind::Alloc, i)).chain(free)
        })
        .collect();
    events.sort_unstable_by_key(|e| e.0);
    events
}

fn chunk_events(trace: &Trace) -> Vec<ChunkEvent> {
    let (mut source, mut chunk) = (TraceChunks::new(trace), EventChunk::new());
    let mut events = Vec::new();
    while source.next_chunk(&mut chunk).expect("in-memory source") {
        events.extend(chunk.events());
    }
    events
}

#[test]
fn every_workload_streams_its_events_in_seq_order() {
    for w in all_workloads() {
        let trace = record(w.as_ref(), 0, shared_registry());
        let oracle = sorted_events(&trace);
        let events: Vec<_> = (trace.events().iter())
            .map(|e| (e.seq, e.kind, e.record))
            .collect();
        assert_eq!(events, oracle, "{}: Trace::events", w.name());
        assert!(
            (trace.events().iter()).all(|e| e.object == trace.records()[e.record].object),
            "{}: event objects",
            w.name()
        );
        let chunked: Vec<_> = (oracle.iter())
            .map(|&(_, kind, record)| match kind {
                EventKind::Alloc => ChunkEvent::Alloc {
                    record,
                    size: trace.records()[record].size,
                },
                EventKind::Free => ChunkEvent::Free { record },
            })
            .collect();
        assert_eq!(chunk_events(&trace), chunked, "{}: TraceChunks", w.name());
    }
}
