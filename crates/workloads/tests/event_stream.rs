//! The in-memory event stream is built by placing each event at its
//! `seq`, without a sort. On every workload it must equal the stream a
//! sort by `seq` gives, both as [`TraceChunks::events`] reads it and
//! as the batches [`TraceChunks`] hands the replay loop.

use lifepred_trace::{shared_registry, ChunkEvent, ChunkSource, EventChunk, Trace, TraceChunks};
use lifepred_workloads::{all_workloads, record};

/// The oracle: every alloc and free of `trace` with its `seq`, sorted
/// by `seq`.
fn sorted_events(trace: &Trace) -> Vec<(u64, ChunkEvent)> {
    let mut events: Vec<_> = (trace.records().iter().enumerate())
        .flat_map(|(record, r)| {
            let free = r.death_seq.map(|seq| (seq, ChunkEvent::Free { record }));
            let alloc = ChunkEvent::Alloc {
                record,
                size: r.size,
            };
            std::iter::once((r.birth_seq, alloc)).chain(free)
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
        let (seqs, oracle): (Vec<u64>, Vec<ChunkEvent>) = sorted_events(&trace).into_iter().unzip();
        assert!(
            (0u64..).zip(&seqs).all(|(i, &seq)| seq == i),
            "{}: event seqs are their indices",
            w.name()
        );
        let events: Vec<_> = TraceChunks::new(&trace).events().collect();
        assert_eq!(events, oracle, "{}: TraceChunks::events", w.name());
        assert_eq!(chunk_events(&trace), oracle, "{}: TraceChunks", w.name());
    }
}
