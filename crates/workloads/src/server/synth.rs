//! Streaming `.lpt` synthesis from the server simulation.
//!
//! [`generate_lpt`] turns a [`SimConfig`]-shaped run into a trace file
//! of (close to) a requested event count without ever holding the
//! trace in memory. The deterministic simulation runs once per thing to
//! write: a **census** (counts, clock and live maxima for the header),
//! the **chain ids** of its births, and its **events**. The touch column
//! needs no run: the simulation references nothing, so every entry is 0.
//! No pass keeps per-object state beyond the simulation's own live
//! objects; the rest streams through [`StreamTraceWriter`].

use super::sim::{run_sim, AllocSink, SimConfig, Site, SITES};
use lifepred_trace::{ChainId, ChainTable, FunctionRegistry, Touch, TraceStats};
use lifepred_tracefile::{StreamMeta, StreamTraceWriter, TraceFileError};
use std::io::{Seek, Write};

/// What [`generate_lpt`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthSummary {
    /// Alloc + free events in the events section.
    pub events: u64,
    /// Allocations (= objects = entries per column).
    pub objects: u64,
    /// Total bytes allocated over the run (= final clock).
    pub total_bytes: u64,
    /// Objects never freed.
    pub immortal: u64,
    /// Maximum bytes simultaneously live.
    pub max_live_bytes: u64,
}

/// The census pass: sizes the trace and its header. The live object
/// count is `births - frees`; a token is its object's size.
#[derive(Default)]
struct Census {
    births: u64,
    frees: u64,
    clock: u64,
    live_bytes: u64,
    max_live_bytes: u64,
    max_live_objects: u64,
}

impl Census {
    fn events(&self) -> u64 {
        self.births + self.frees
    }
}

impl AllocSink for Census {
    type Token = u32;
    fn alloc(&mut self, _site: Site, size: u32) -> Result<u32, TraceFileError> {
        self.births += 1;
        self.clock += u64::from(size);
        self.live_bytes += u64::from(size);
        self.max_live_bytes = self.max_live_bytes.max(self.live_bytes);
        self.max_live_objects = self.max_live_objects.max(self.births - self.frees);
        Ok(size)
    }

    fn free(&mut self, size: u32) -> Result<(), TraceFileError> {
        self.frees += 1;
        self.live_bytes -= u64::from(size);
        Ok(())
    }
}

/// The chain ids pass: re-runs the sim, writing each birth's chain id.
struct ChainPass<'a, W: Write + Seek> {
    writer: &'a mut StreamTraceWriter<W>,
    chain_of: &'a [ChainId],
}

impl<W: Write + Seek> AllocSink for ChainPass<'_, W> {
    type Token = ();
    fn alloc(&mut self, site: Site, _size: u32) -> Result<(), TraceFileError> {
        self.writer.write_chain_id(self.chain_of[site as usize])
    }

    fn free(&mut self, _token: ()) -> Result<(), TraceFileError> {
        Ok(())
    }
}

/// The events pass: re-runs the sim, writing the event stream.
struct EventPass<'a, W: Write + Seek> {
    writer: &'a mut StreamTraceWriter<W>,
    births: u64,
}

impl<W: Write + Seek> AllocSink for EventPass<'_, W> {
    type Token = u64;
    fn alloc(&mut self, _site: Site, size: u32) -> Result<u64, TraceFileError> {
        self.writer.write_alloc(size)?;
        self.births += 1;
        Ok(self.births - 1)
    }

    fn free(&mut self, token: u64) -> Result<(), TraceFileError> {
        self.writer.write_free(token)
    }
}

/// Interns the server's call chains, returning `(registry, chains,
/// chain id per [`SITES`] index)`.
fn intern_sites() -> (FunctionRegistry, ChainTable, Vec<ChainId>) {
    let mut registry = FunctionRegistry::new();
    let mut chains = ChainTable::new();
    let chain_of = SITES
        .iter()
        .map(|site| {
            let frames: Vec<_> = site
                .frames()
                .iter()
                .map(|name| registry.intern(name))
                .collect();
            chains.intern(&frames)
        })
        .collect();
    (registry, chains, chain_of)
}

/// Streams a synthetic server trace shaped by `config` into `sink`.
///
/// Peak memory is the simulation's live objects, whatever the file's
/// size.
///
/// # Errors
///
/// I/O errors from `sink`.
pub fn generate_lpt<W: Write + Seek>(
    config: &SimConfig,
    sink: W,
) -> Result<(SynthSummary, W), TraceFileError> {
    let mut census = Census::default();
    run_sim(config, &mut census)?;

    let (registry, chains, chain_of) = intern_sites();
    let stats = TraceStats {
        total_bytes: census.clock,
        total_objects: census.births,
        max_live_bytes: census.max_live_bytes,
        max_live_objects: census.max_live_objects,
        ..TraceStats::default()
    };
    let name = format!("server:synth-{}ev-seed{}", census.events(), config.seed);
    let meta = StreamMeta { name: &name, stats };
    let mut writer = StreamTraceWriter::new(sink, &meta, &registry, &chains)?;

    writer.begin_chain_ids(census.births)?;
    let mut chain_ids = ChainPass {
        writer: &mut writer,
        chain_of: &chain_of,
    };
    run_sim(config, &mut chain_ids)?;

    writer.begin_touches(census.births)?;
    for _ in 0..census.births {
        writer.write_touch(Touch::default())?;
    }

    writer.begin_events(census.events())?;
    let mut events = EventPass {
        writer: &mut writer,
        births: 0,
    };
    run_sim(config, &mut events)?;

    let summary = SynthSummary {
        events: census.events(),
        objects: census.births,
        total_bytes: census.clock,
        immortal: census.births - census.frees,
        max_live_bytes: census.max_live_bytes,
    };
    Ok((summary, writer.finish()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_tracefile::{trace_from_bytes, MappedTrace, TraceMap};
    use std::io::Cursor;

    fn small_config() -> SimConfig {
        SimConfig {
            requests: 3_000,
            connections: 16,
            sessions: 128,
            seed: 9,
        }
    }

    #[test]
    fn generated_traces_decode_and_match_the_summary() {
        let (summary, sink) =
            generate_lpt(&small_config(), Cursor::new(Vec::new())).expect("generate");
        let bytes = sink.into_inner();
        let trace = trace_from_bytes(&bytes).expect("decode");
        assert_eq!(trace.records().len() as u64, summary.objects);
        assert_eq!(trace.end_seq(), summary.events);
        assert_eq!(trace.stats().total_bytes, summary.total_bytes);
        assert_eq!(trace.stats().max_live_bytes, summary.max_live_bytes);
        let immortal = trace.records().iter().filter(|r| r.is_immortal()).count() as u64;
        assert_eq!(immortal, summary.immortal);
        // The sim leaks exactly one object: the routing table.
        assert_eq!(immortal, 1);
    }

    #[test]
    fn generated_traces_satisfy_the_mapped_reader() {
        let (summary, sink) =
            generate_lpt(&small_config(), Cursor::new(Vec::new())).expect("generate");
        let mapped =
            MappedTrace::from_map(TraceMap::from_vec(sink.into_inner())).expect("mapped open");
        assert_eq!(mapped.record_count(), summary.objects);
        assert_eq!(mapped.end_seq(), summary.events);
    }

    #[test]
    fn for_events_lands_near_the_target() {
        let config = SimConfig::for_events(100_000, 3);
        let (summary, _) = generate_lpt(&config, Cursor::new(Vec::new())).expect("generate");
        let err = summary.events.abs_diff(100_000) as f64 / 100_000.0;
        assert!(err < 0.2, "{} events for a 100k target", summary.events);
    }

    /// Pins the bytes `gen` writes: a change that alters every
    /// generated file the same way still changes these digests. Not a
    /// CRC-32 of the file: every section ends with its payload's own
    /// CRC-32, which leaves a CRC register at a fixed residue, so a
    /// whole-file CRC-32 misses any same-length change inside a section.
    #[test]
    fn generated_bytes_are_pinned() {
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
        };
        for (seed, want) in [
            (1, 0x16e8_85a2_4d54_0538),
            (2, 0xcfd9_dc00_cae2_06d1),
            (3, 0x7455_15ed_21c5_96bf),
        ] {
            let config = SimConfig::for_events(100_000, seed);
            let (_, sink) = generate_lpt(&config, Cursor::new(Vec::new())).expect("generate");
            assert_eq!(fnv1a(sink.get_ref()), want, "seed {seed}");
        }
    }
}
