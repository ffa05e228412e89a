//! Ground truth for the `.lpt` reader: what it decodes is what was
//! recorded.
//!
//! For each of the six workload families the recorded [`Trace`] is
//! serialized once and read back through [`MappedTrace`]: the chunked
//! event stream must equal [`Trace::events`] of the recorded trace at
//! every chunk capacity, and [`load_trace`] / [`trace_from_bytes`] must
//! return the recorded records and stats. The CI `decode` job runs this
//! suite twice, with and without `LIFEPRED_NO_MMAP=1`, so both the
//! mapped and heap-fallback flavors of [`TraceMap`] are covered.

use lifepred_trace::{
    ChunkEvent, ChunkSource, EventChunk, EventKind, Trace, CHUNK_EVENTS, POOLED_CHUNK_EVENTS,
};
use lifepred_tracefile::{load_trace, trace_from_bytes, trace_to_vec, MappedTrace, TraceMap};
use lifepred_workloads::{all_workloads, record};
use std::path::PathBuf;

/// The event stream `trace` stands for, as a chunk source yields it.
fn events_of(trace: &Trace) -> Vec<ChunkEvent> {
    let events = trace.events().into_iter().map(|e| match e.kind {
        EventKind::Alloc => ChunkEvent::Alloc {
            record: e.record,
            size: trace.records()[e.record].size,
        },
        EventKind::Free => ChunkEvent::Free { record: e.record },
    });
    events.collect()
}

fn drain(mapped: &MappedTrace, chunk_capacity: usize) -> Vec<ChunkEvent> {
    let mut source = mapped.events();
    let mut chunk = EventChunk::with_capacity(chunk_capacity);
    let mut events = Vec::new();
    while source.next_chunk(&mut chunk).expect("chunk") {
        assert!(chunk.len() <= chunk.target());
        events.extend(chunk.events());
    }
    events
}

/// A per-test temp path: a real file, so `TraceMap::open` exercises
/// the mmap syscall path (or its heap fallback under LIFEPRED_NO_MMAP).
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lifepred-diff-{tag}-{}.lpt", std::process::id()))
}

#[test]
fn every_workload_decodes_to_what_was_recorded() {
    for workload in all_workloads() {
        let name = workload.name();
        let trace = record(workload.as_ref(), 0, lifepred_trace::shared_registry());
        let bytes = trace_to_vec(&trace).expect("encode");
        let expected = events_of(&trace);
        assert_eq!(expected.len() as u64, trace.end_seq(), "{name}");

        let path = temp_path(name);
        std::fs::write(&path, &bytes).expect("write temp trace");
        for (flavor, mapped) in [
            ("file", MappedTrace::open(&path).expect("open")),
            (
                "image",
                MappedTrace::from_map(TraceMap::from_vec(bytes.clone())).expect("open"),
            ),
        ] {
            for capacity in [3, CHUNK_EVENTS, POOLED_CHUNK_EVENTS] {
                assert_eq!(
                    drain(&mapped, capacity),
                    expected,
                    "{name}: {flavor} events at chunk capacity {capacity}"
                );
            }
            let records: Vec<_> = mapped
                .records()
                .expect("records")
                .collect::<Result<_, _>>()
                .expect("decode");
            assert_eq!(records, trace.records(), "{name}: {flavor} records");
        }
        for loaded in [
            load_trace(&path).expect("load"),
            trace_from_bytes(&bytes).expect("decode"),
        ] {
            assert_eq!(loaded.records(), trace.records(), "{name}");
            assert_eq!(loaded.stats(), trace.stats(), "{name}");
            assert_eq!(loaded.name(), trace.name(), "{name}");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The streamed synthetic server file is never a [`Trace`] in memory,
/// so its ground truth is `load_trace`: events rebuilt from the records
/// section, which the loader's scalar walk has checked, event for
/// event, against the independently encoded events section.
#[test]
fn a_streamed_synthetic_trace_file_decodes_to_its_loaded_events() {
    use lifepred_workloads::server::sim::SimConfig;
    use lifepred_workloads::server::synth::generate_lpt;

    let config = SimConfig {
        requests: 4_000,
        connections: 32,
        sessions: 256,
        seed: 0x5e4e,
    };
    let path = temp_path("synth");
    let sink = std::io::BufWriter::new(std::fs::File::create(&path).expect("create"));
    let (summary, sink) = generate_lpt(&config, sink).expect("generate");
    sink.into_inner().expect("flush");

    let loaded = load_trace(&path).expect("load");
    let expected = events_of(&loaded);
    assert_eq!(expected.len() as u64, summary.events);
    let mapped = MappedTrace::open(&path).expect("mapped open");
    assert_eq!(drain(&mapped, POOLED_CHUNK_EVENTS), expected);
    assert_eq!(drain(&mapped, 3), expected);
    drop(mapped);
    std::fs::remove_file(&path).ok();
}
