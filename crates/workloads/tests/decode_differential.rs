//! What the `.lpt` writer and reader keep of a recording.
//!
//! A recorded [`Trace`]'s events are `.lpt` keys, so its image's events
//! section must be that payload byte for byte, and [`load_trace`] /
//! [`trace_from_bytes`] must keep it, and rebuild the recorded records
//! and stats from it and the two columns; whether the keys tell the
//! records' story is checked by `event_stream.rs`, over the saved files
//! too. A streamed synthetic
//! trace large enough that the reader releases mapped pages behind
//! every pass must decode to what a recording of the same simulation
//! holds. The CI `decode` job runs this suite twice, with and without
//! `LIFEPRED_NO_MMAP=1`, so both the mapped and heap-fallback flavors
//! of [`TraceMap`] are covered.

use lifepred_trace::varint::write_varint;
use lifepred_trace::{
    walk, ChunkEvent, ChunkSource, EventChunk, Live, TraceSession, TraceSource, Visit,
    POOLED_CHUNK_EVENTS,
};
use lifepred_tracefile::{load_trace, trace_from_bytes, trace_to_vec, MappedTrace, TraceMap};
use lifepred_workloads::{all_workloads, record};
use std::path::PathBuf;

/// A per-test temp path: a real file, so `TraceMap::open` exercises
/// the mmap syscall path (or its heap fallback under LIFEPRED_NO_MMAP).
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lifepred-diff-{tag}-{}.lpt", std::process::id()))
}

/// One encoding from recording to file, on all twelve recordings (six
/// programs, two inputs each).
#[test]
fn every_recording_is_saved_and_loaded_in_the_encoding_it_was_recorded_in() {
    for workload in all_workloads() {
        for input in 0..workload.inputs().len() {
            let trace = record(workload.as_ref(), input, lifepred_trace::shared_registry());
            let name = format!("{}:{input}", workload.name());
            let bytes = trace_to_vec(&trace).expect("encode");
            // The events section comes last: its count and keys, then
            // its CRC.
            let mut section = Vec::new();
            write_varint(&mut section, trace.end_seq());
            section.extend_from_slice(trace.event_keys());
            assert!(bytes[..bytes.len() - 4].ends_with(&section), "{name}");

            let path = temp_path(&name.replace(':', "-"));
            std::fs::write(&path, &bytes).expect("write temp trace");
            for (flavor, mapped) in [
                ("file", MappedTrace::open(&path).expect("open")),
                (
                    "image",
                    MappedTrace::from_map(TraceMap::from_vec(bytes.clone())).expect("open"),
                ),
            ] {
                let events = mapped.sections()[5];
                assert_eq!(events.payload_bytes, section.len() as u64, "{name}");
                let chain_ids: Vec<_> = (mapped.chain_ids().expect("chain ids"))
                    .collect::<Result<_, _>>()
                    .expect("decode");
                let recorded: Vec<_> = trace.records().iter().map(|r| r.chain).collect();
                assert_eq!(chain_ids, recorded, "{name}: {flavor} chain ids");
            }
            for loaded in [
                load_trace(&path).expect("load"),
                trace_from_bytes(&bytes).expect("decode"),
            ] {
                assert_eq!(loaded.event_keys(), trace.event_keys(), "{name}");
                assert_eq!(loaded.end_seq(), trace.end_seq(), "{name}");
                assert_eq!(loaded.records(), trace.records(), "{name}");
                assert_eq!(loaded.stats(), trace.stats(), "{name}");
                assert_eq!(loaded.name(), trace.name(), "{name}");
            }
            std::fs::remove_file(&path).ok();
        }
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
/// into a [`TraceSession`], which shares only the key encoding with
/// `gen`'s census pass and its writer. Its two columns and its events
/// section each span at least three release windows, so every pass
/// below reads pages the open's CRC pass released, and the second drain
/// and the walk re-fault pages the passes before them released.
#[test]
fn a_streamed_synthetic_trace_file_decodes_to_its_recorded_events() {
    use lifepred_workloads::server::sim::SimConfig;
    use lifepred_workloads::server::synth::generate_lpt;

    let config = SimConfig::for_events(5_000_000, 0x5e4e);
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
        let drained = drain_equals(&mapped, capacity, recorded.events().into_iter());
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
    // The walk rebuilds each record beside the events, in memory bounded
    // by the live objects: its birth, chain and touch at its allocation,
    // its death at its free.
    struct Compare<'a> {
        recorded: &'a [lifepred_trace::AllocationRecord],
        chain_of: Vec<lifepred_trace::ChainId>,
    }
    impl Visit for Compare<'_> {
        fn born(&mut self, record: usize, r: &lifepred_trace::AllocationRecord) -> u32 {
            let expected = &self.recorded[record];
            let chain = self.chain_of[r.chain.index() as usize];
            let death_clock = expected.death_clock;
            assert_eq!(
                &lifepred_trace::AllocationRecord {
                    chain,
                    death_clock,
                    ..r.clone()
                },
                expected,
                "record {record}"
            );
            0
        }
        fn died(&mut self, record: usize, _obj: Live, death: Option<u64>) {
            assert_eq!(self.recorded[record].death_clock, death, "{record}");
        }
    }
    let recorded_records = recorded.records();
    let derived = walk(
        &mapped,
        &mut Compare {
            recorded: recorded_records,
            chain_of,
        },
    )
    .expect("walk");
    // What the walk derives is the session's; `gen` counts no calls.
    let session_stats = lifepred_trace::TraceStats {
        instructions: 0,
        function_calls: 0,
        ..*recorded.stats()
    };
    assert_eq!(derived, session_stats);
    assert_eq!(derived, *mapped.stats());
    assert_eq!(derived.total_objects, summary.objects);
    drop(mapped);
    std::fs::remove_file(&path).ok();
}
