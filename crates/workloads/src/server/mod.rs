//! SERVER: a high-QPS request/response allocator workload.
//!
//! The paper's five programs are batch jobs; modern allocator stress
//! lives in long-running servers, where the lifetime signal the paper
//! exploits is even sharper: per-request buffers die in microseconds
//! while session state and connection buffers live for thousands of
//! requests. This sixth workload family simulates such a server
//! deterministically — per-connection read buffers that grow by
//! doubling, bimodal request/response bodies, a session cache with TTL
//! churn, slab-shaped burst batches, and batched access-log flushes —
//! over eight fixed allocation sites (see [`sim::Site`]).
//!
//! The same simulation has two faces:
//!
//! * [`Server`] records it into a [`TraceSession`] like every other
//!   workload, so the predictor pipeline and `lifepred run` treat it
//!   as family number six;
//! * [`synth::generate_lpt`] streams it straight into a `.lpt` file
//!   via [`StreamTraceWriter`](lifepred_tracefile::StreamTraceWriter),
//!   which is how `lifepred gen` produces 10⁸-event traces for decode
//!   benchmarking without materializing a trace in memory.

pub mod sim;
pub mod synth;

use crate::Workload;
use lifepred_trace::{ObjectId, TraceSession};
use lifepred_tracefile::TraceFileError;
use sim::{run_sim, AllocSink, SimConfig, Site};

/// The SERVER workload.
#[derive(Debug, Default, Clone)]
pub struct Server;

/// Request counts for the two inputs: training first.
const INPUTS: &[(&str, u64)] = &[("light-qps", 2_000), ("heavy-qps", 10_000)];

impl Workload for Server {
    fn name(&self) -> &'static str {
        "server"
    }

    fn description(&self) -> &'static str {
        "Serves a deterministic stream of requests through a simulated \
         network server: growing per-connection buffers, bimodal \
         request/response bodies, a TTL-churned session cache, slab \
         bursts and batched log flushes."
    }

    fn inputs(&self) -> Vec<String> {
        INPUTS.iter().map(|(name, _)| (*name).to_owned()).collect()
    }

    fn run(&self, input: usize, session: &TraceSession) {
        let requests = INPUTS[input].1;
        let config = SimConfig {
            requests,
            connections: 32,
            sessions: 256,
            seed: 0xbeef + input as u64,
        };
        let mut sink = SessionSink { session };
        run_sim(&config, &mut sink).expect("session sinks never fail");
    }
}

/// Adapts a [`TraceSession`] to the simulation's [`AllocSink`].
///
/// Session object ids are consecutive birth indices, so the sink's
/// tokens are simply the ids' indices — no table needed.
struct SessionSink<'a> {
    session: &'a TraceSession,
}

impl AllocSink for SessionSink<'_> {
    fn alloc(&mut self, site: Site, size: u32) -> Result<u64, TraceFileError> {
        // Re-enter the site's chain so the recorded trace carries the
        // same call chains the synthetic writer interns statically.
        let mut guards: Vec<_> = site
            .frames()
            .iter()
            .map(|name| self.session.enter(name))
            .collect();
        let id = self.session.alloc(size);
        // The shadow stack pops LIFO; a Vec drops front-to-back.
        while let Some(guard) = guards.pop() {
            drop(guard);
        }
        Ok(id.index())
    }

    fn free(&mut self, token: u64) -> Result<(), TraceFileError> {
        self.session.free(ObjectId::from_index(token));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record;
    use lifepred_trace::shared_registry;

    #[test]
    fn recorded_server_traces_have_the_expected_shape() {
        let trace = record(&Server, 0, shared_registry());
        let stats = trace.stats();
        assert!(stats.total_objects > 2_000, "{stats:?}");
        // Exactly one immortal object: the routing table.
        let immortal = trace.records().iter().filter(|r| r.is_immortal()).count();
        assert_eq!(immortal, 1);
        // Bimodal lifetimes: most objects die young (within ~64 KiB of
        // allocation), a solid minority live much longer.
        let end = trace.end_clock();
        let short = trace
            .records()
            .iter()
            .filter(|r| r.lifetime(end) < 64 * 1024)
            .count();
        let long = trace.records().len() - short;
        assert!(
            short * 10 > trace.records().len() * 5,
            "short-lived majority"
        );
        assert!(long * 50 > trace.records().len(), "long tail exists");
    }

    #[test]
    fn session_and_synth_faces_agree_on_event_counts() {
        let config = SimConfig {
            requests: 1_000,
            connections: 32,
            sessions: 256,
            seed: 0xbeef,
        };
        let session = lifepred_trace::TraceSession::new("server:parity");
        let mut sink = SessionSink { session: &session };
        run_sim(&config, &mut sink).expect("session run");
        let recorded = session.finish();

        let (summary, _) =
            synth::generate_lpt(&config, std::io::Cursor::new(Vec::new())).expect("synth run");
        assert_eq!(recorded.records().len() as u64, summary.objects);
        assert_eq!(recorded.end_seq(), summary.events);
        assert_eq!(recorded.stats().total_bytes, summary.total_bytes);
        assert_eq!(recorded.stats().max_live_bytes, summary.max_live_bytes);
    }
}
