//! Ground truth for the `.lpt` reader: what it decodes is what was
//! recorded.
//!
//! For each of the six workload families the recorded [`Trace`] is
//! serialized once and read back through [`MappedTrace`]: the chunked
//! event stream must equal the recorded trace's [`TraceChunks`] at
//! every chunk capacity, and [`load_trace`] / [`trace_from_bytes`] must
//! return the recorded records and stats; a streamed synthetic trace
//! large enough that the reader releases mapped pages behind every pass
//! must decode to what a recording of the same simulation holds. The
//! CI `decode` job
//! runs this suite twice, with and without `LIFEPRED_NO_MMAP=1`, so both
//! the mapped and heap-fallback flavors of [`TraceMap`] are covered.

use lifepred_trace::{
    ChunkEvent, ChunkSource, EventChunk, Trace, TraceChunks, TraceSession, CHUNK_EVENTS,
    POOLED_CHUNK_EVENTS,
};
use lifepred_tracefile::{load_trace, trace_from_bytes, trace_to_vec, MappedTrace, TraceMap};
use lifepred_workloads::{all_workloads, record};
use std::path::PathBuf;

/// The event stream `trace` stands for, as a chunk source yields it.
fn events_of(trace: &Trace) -> Vec<ChunkEvent> {
    TraceChunks::new(trace).events().collect()
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

/// The reader releases mapped pages behind each sequential pass every
/// 1 MiB (`RELEASE_WINDOW` in `tracefile/src/mapped.rs`).
const RELEASE_WINDOW: u64 = 1 << 20;

/// Drains `mapped` at `capacity`, comparing event for event against
/// `expected`; returns the event count.
fn drain_equals(
    mapped: &MappedTrace,
    capacity: usize,
    mut expected: impl Iterator<Item = ChunkEvent>,
) -> u64 {
    let mut source = mapped.events();
    let mut chunk = EventChunk::with_capacity(capacity);
    let mut n = 0u64;
    while source.next_chunk(&mut chunk).expect("chunk") {
        for event in chunk.events() {
            assert_eq!(
                Some(event),
                expected.next(),
                "event {n}, capacity {capacity}"
            );
            n += 1;
        }
    }
    assert_eq!(
        expected.next(),
        None,
        "capacity {capacity}: stream ended early"
    );
    n
}

/// The streamed synthetic server file is never a [`Trace`] in memory,
/// so its ground truth is the simulation's other face: the same
/// [`SimConfig`](lifepred_workloads::server::sim::SimConfig) recorded
/// into a [`TraceSession`], which shares no code with the file's
/// writer or reader. Its records and events sections each span at
/// least three release windows, so every pass below reads pages the
/// open's CRC pass released, and the second drain and the records walk
/// re-fault pages the passes before them released.
#[test]
fn a_streamed_synthetic_trace_file_decodes_to_its_recorded_events() {
    use lifepred_workloads::server::sim::SimConfig;
    use lifepred_workloads::server::synth::generate_lpt;

    let config = SimConfig::for_events(4_200_000, 0x5e4e);
    let path = temp_path("synth");
    let sink = std::io::BufWriter::new(std::fs::File::create(&path).expect("create"));
    let (summary, sink) = generate_lpt(&config, sink).expect("generate");
    sink.into_inner().expect("flush");

    let session = TraceSession::new("server:recorded");
    config.record(&session);
    let recorded = session.finish();
    let mapped = MappedTrace::open(&path).expect("mapped open");
    for section in &mapped.sections()[3..] {
        assert!(
            section.payload_bytes > 2 * RELEASE_WINDOW,
            "{} spans fewer than three release windows: {section:?}",
            section.name
        );
    }
    for capacity in [POOLED_CHUNK_EVENTS, 3] {
        let drained = drain_equals(&mapped, capacity, TraceChunks::new(&recorded).events());
        assert_eq!(drained, summary.events);
    }
    // Both faces intern the same call chains, each in its own order:
    // compare a record's chain by its function names.
    let names = |registry: &lifepred_trace::FunctionRegistry, chain: &lifepred_trace::CallChain| {
        let frames = chain.frames().iter();
        frames
            .map(|&f| registry.name(f).expect("interned").to_owned())
            .collect::<Vec<_>>()
    };
    let chain_of: Vec<_> = (mapped.chain_table().iter())
        .map(|(_, chain)| {
            let want = names(mapped.registry(), chain);
            let found = recorded
                .chains()
                .iter()
                .find(|(_, c)| names(recorded.registry(), c) == want);
            found.expect("a recorded chain").0
        })
        .collect();
    let mut walked = 0;
    for (record, expected) in mapped.records().expect("records").zip(recorded.records()) {
        let mut record = record.expect("record");
        record.chain = chain_of[record.chain.index() as usize];
        assert_eq!(&record, expected, "record {walked}");
        walked += 1;
    }
    assert_eq!(walked, recorded.records().len());
    assert_eq!(walked as u64, summary.objects);
    drop(mapped);
    std::fs::remove_file(&path).ok();
}
