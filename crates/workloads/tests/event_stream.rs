//! Every workload's event stream must tell its records' story:
//! allocations in birth order at their birth clocks, one free per
//! mortal record at its death clock. The records share no code with
//! the one key decoder, so this check is the decoder's ground truth
//! wherever it reads: a recorded [`Trace`]'s keys, one event at a time
//! and in the batches the replay loop pulls, and the events section of
//! the trace's saved `.lpt` file through [`MappedTrace::events`]. The CI
//! `decode` job runs this suite with and without `LIFEPRED_NO_MMAP=1`,
//! so both flavors of the file's mapping are read.

use lifepred_trace::{
    shared_registry, ChunkEvent, ChunkSource, EventChunk, Trace, POOLED_CHUNK_EVENTS,
};
use lifepred_tracefile::{save_trace, MappedTrace};
use lifepred_workloads::{all_workloads, record};
use std::fmt::Debug;

/// Every event `source` yields, in chunks of `capacity`.
fn drain<S: ChunkSource>(mut source: S, capacity: usize) -> Vec<ChunkEvent>
where
    S::Error: Debug,
{
    let mut chunk = EventChunk::with_capacity(capacity);
    let mut events = Vec::new();
    while source.next_chunk(&mut chunk).expect("the events decode") {
        assert!(chunk.len() <= capacity);
        events.extend(chunk.events());
    }
    events
}

/// Checks that `events`, read from `input`, tell `trace`'s records'
/// story.
fn tells_the_records_story(trace: &Trace, events: &[ChunkEvent], input: &str) {
    let records = trace.records();
    let (mut born, mut clock, mut freed) = (0, 0, vec![false; records.len()]);
    for &event in events {
        match event {
            ChunkEvent::Alloc { record, size } => {
                assert_eq!(record, born, "{input}: allocs in birth order");
                assert_eq!(size, records[record].size, "{input}");
                assert_eq!(records[record].birth_clock, clock, "{input}");
                born += 1;
                clock += u64::from(size);
            }
            ChunkEvent::Free { record } => {
                assert!(record < born, "{input}: free before alloc");
                assert!(!freed[record], "{input}: double free");
                freed[record] = true;
                assert_eq!(records[record].death_clock, Some(clock), "{input}");
            }
        }
    }
    assert_eq!(born, records.len(), "{input}");
    let mortal = records.iter().map(|r| !r.is_immortal());
    assert!(mortal.eq(freed), "{input}: every mortal record dies");
}

#[test]
fn every_workload_streams_its_events_at_their_records_clocks() {
    for w in all_workloads() {
        let trace = record(w.as_ref(), 0, shared_registry());
        let path = std::env::temp_dir().join(format!(
            "lifepred-story-{}-{}.lpt",
            w.name(),
            std::process::id()
        ));
        save_trace(&path, &trace).expect("save");
        let mapped = MappedTrace::open(&path).expect("open");
        let inputs = [
            ("events", trace.events().into_iter().collect()),
            ("chunks", drain(trace.events(), POOLED_CHUNK_EVENTS)),
            ("file, 3-event chunks", drain(mapped.events(), 3)),
            ("file", drain(mapped.events(), POOLED_CHUNK_EVENTS)),
        ];
        for (input, events) in inputs {
            tells_the_records_story(&trace, &events, &format!("{}: {input}", w.name()));
        }
        drop(mapped);
        std::fs::remove_file(&path).ok();
    }
}
