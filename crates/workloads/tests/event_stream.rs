//! The in-memory event stream is the order the session recorded. On
//! every workload it must tell the records' story: allocations in
//! birth order at their birth clocks, one free per mortal record at its
//! death clock; both as [`TraceChunks::events`] reads it and as the
//! batches [`TraceChunks`] hands the replay loop.

use lifepred_trace::{shared_registry, ChunkEvent, ChunkSource, EventChunk, Trace, TraceChunks};
use lifepred_workloads::{all_workloads, record};

fn chunk_events(trace: &Trace) -> Vec<ChunkEvent> {
    let (mut source, mut chunk) = (TraceChunks::new(trace), EventChunk::new());
    let mut events = Vec::new();
    while source.next_chunk(&mut chunk).expect("in-memory source") {
        events.extend(chunk.events());
    }
    events
}

#[test]
fn every_workload_streams_its_events_at_their_records_clocks() {
    for w in all_workloads() {
        let trace = record(w.as_ref(), 0, shared_registry());
        let records = trace.records();
        let events: Vec<_> = TraceChunks::new(&trace).events().collect();
        let (mut born, mut clock, mut freed) = (0, 0, vec![false; records.len()]);
        for &event in &events {
            match event {
                ChunkEvent::Alloc { record, size } => {
                    assert_eq!(record, born, "{}: allocs in birth order", w.name());
                    assert_eq!(size, records[record].size, "{}", w.name());
                    assert_eq!(records[record].birth_clock, clock, "{}", w.name());
                    born += 1;
                    clock += u64::from(size);
                }
                ChunkEvent::Free { record } => {
                    assert!(record < born, "{}: free before alloc", w.name());
                    assert!(!freed[record], "{}: double free", w.name());
                    freed[record] = true;
                    assert_eq!(records[record].death_clock, Some(clock), "{}", w.name());
                }
            }
        }
        assert_eq!(born, records.len(), "{}", w.name());
        let mortal = records.iter().map(|r| !r.is_immortal());
        assert!(mortal.eq(freed), "{}: every mortal record dies", w.name());
        assert_eq!(chunk_events(&trace), events, "{}: TraceChunks", w.name());
    }
}
