//! Streaming `.lpt` synthesis from the server simulation.
//!
//! [`generate_lpt`] turns a [`SimConfig`]-shaped run into a trace file
//! of (close to) a requested event count without ever holding the
//! trace in memory. The `.lpt` records section stores each object's
//! death, which is only known when the simulation frees it — so the
//! deterministic simulation is simply run three times:
//!
//! 1. **census** — count objects/events, track live maxima, and fill
//!    a compact death table (absolute death seq as `u32`, death-clock
//!    delta as `u32` with a hash-map overflow for the long-lived
//!    tail);
//! 2. **records** — re-run, emitting one
//!    [`AllocationRecord`] per birth with its death looked up in the
//!    table;
//! 3. **events** — re-run, emitting the alloc/free event stream.
//!
//! Peak memory is the death table: 8 bytes per object, about a tenth
//! of the file being written. Everything else is streamed through
//! [`StreamTraceWriter`]'s 64 KiB scratch buffer.

use super::sim::{run_sim, AllocSink, SimConfig, Site, SITES};
use lifepred_trace::{AllocationRecord, ChainTable, FunctionRegistry, ObjectId, TraceStats};
use lifepred_tracefile::{StreamMeta, StreamTraceWriter, TraceFileError};
use std::collections::HashMap;
use std::io::{Seek, Write};

/// Death seq sentinel: the object is never freed.
const IMMORTAL: u32 = u32::MAX;

/// What [`generate_lpt`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthSummary {
    /// Alloc + free events in the events section.
    pub events: u64,
    /// Allocation records (= objects = allocs).
    pub objects: u64,
    /// Total bytes allocated over the run (= final clock).
    pub total_bytes: u64,
    /// Objects never freed.
    pub immortal: u64,
    /// Maximum bytes simultaneously live.
    pub max_live_bytes: u64,
}

/// The census pass: sizes the trace and learns every object's death.
struct Census {
    births: u64,
    frees: u64,
    clock: u64,
    /// Death event seq per birth index ([`IMMORTAL`] when leaked).
    death_seq: Vec<u32>,
    /// `death_clock - birth_clock` per birth index, `u32::MAX`
    /// meaning "see `delta_overflow`".
    death_delta: Vec<u32>,
    delta_overflow: HashMap<u64, u64>,
    /// Live objects only: token → (size, birth clock).
    live: HashMap<u64, (u32, u64)>,
    live_bytes: u64,
    max_live_bytes: u64,
    max_live_objects: u64,
}

impl Census {
    fn new() -> Census {
        Census {
            births: 0,
            frees: 0,
            clock: 0,
            death_seq: Vec::new(),
            death_delta: Vec::new(),
            delta_overflow: HashMap::new(),
            live: HashMap::new(),
            live_bytes: 0,
            max_live_bytes: 0,
            max_live_objects: 0,
        }
    }

    fn seq(&self) -> u64 {
        self.births + self.frees
    }
}

impl AllocSink for Census {
    fn alloc(&mut self, _site: Site, size: u32) -> Result<u64, TraceFileError> {
        if self.seq() + 1 >= u64::from(u32::MAX) {
            return Err(TraceFileError::Malformed {
                section: "events",
                detail: "synthetic trace exceeds the u32 death-table seq limit".to_owned(),
            });
        }
        let token = self.births;
        self.births += 1;
        self.death_seq.push(IMMORTAL);
        self.death_delta.push(0);
        self.live.insert(token, (size, self.clock));
        self.clock += u64::from(size);
        self.live_bytes += u64::from(size);
        self.max_live_bytes = self.max_live_bytes.max(self.live_bytes);
        self.max_live_objects = self.max_live_objects.max(self.live.len() as u64);
        Ok(token)
    }

    fn free(&mut self, token: u64) -> Result<(), TraceFileError> {
        let (size, birth_clock) = self.live.remove(&token).expect("sim frees live tokens");
        let seq = self.seq();
        self.frees += 1;
        self.live_bytes -= u64::from(size);
        let index = usize::try_from(token).expect("birth index fits usize");
        self.death_seq[index] = seq as u32;
        let delta = self.clock - birth_clock;
        match u32::try_from(delta) {
            Ok(d) if d != u32::MAX => self.death_delta[index] = d,
            _ => {
                self.death_delta[index] = u32::MAX;
                self.delta_overflow.insert(token, delta);
            }
        }
        Ok(())
    }
}

/// The records pass: re-runs the sim, writing one record per birth.
struct RecordPass<'a, W: Write + Seek> {
    writer: &'a mut StreamTraceWriter<W>,
    census: &'a Census,
    chain_of: &'a [lifepred_trace::ChainId],
    births: u64,
    frees: u64,
    clock: u64,
}

impl<W: Write + Seek> AllocSink for RecordPass<'_, W> {
    fn alloc(&mut self, site: Site, size: u32) -> Result<u64, TraceFileError> {
        let token = self.births;
        let seq = self.births + self.frees;
        let index = usize::try_from(token).expect("birth index fits usize");
        let death_seq = self.census.death_seq[index];
        let (death_seq, death_clock) = if death_seq == IMMORTAL {
            (None, None)
        } else {
            let delta = match self.census.death_delta[index] {
                u32::MAX => self.census.delta_overflow[&token],
                d => u64::from(d),
            };
            (Some(u64::from(death_seq)), Some(self.clock + delta))
        };
        self.writer.write_record(&AllocationRecord {
            object: ObjectId::from_index(token),
            size,
            chain: self.chain_of[site as usize],
            birth_clock: self.clock,
            death_clock,
            birth_seq: seq,
            death_seq,
            refs: 0,
            first_ref_clock: None,
            last_ref_clock: None,
        })?;
        self.births += 1;
        self.clock += u64::from(size);
        Ok(token)
    }

    fn free(&mut self, _token: u64) -> Result<(), TraceFileError> {
        self.frees += 1;
        Ok(())
    }
}

/// The events pass: re-runs the sim, writing the event stream.
struct EventPass<'a, W: Write + Seek> {
    writer: &'a mut StreamTraceWriter<W>,
    births: u64,
}

impl<W: Write + Seek> AllocSink for EventPass<'_, W> {
    fn alloc(&mut self, _site: Site, size: u32) -> Result<u64, TraceFileError> {
        self.writer.write_alloc(size)?;
        let token = self.births;
        self.births += 1;
        Ok(token)
    }

    fn free(&mut self, token: u64) -> Result<(), TraceFileError> {
        self.writer.write_free(token)
    }
}

/// Interns the server's call chains, returning `(registry, chains,
/// chain id per [`SITES`] index)`.
fn intern_sites() -> (FunctionRegistry, ChainTable, Vec<lifepred_trace::ChainId>) {
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
/// Peak memory is ~8 bytes per object regardless of file size.
///
/// # Errors
///
/// I/O errors from `sink`, or a run so long it overflows the `u32`
/// death table (≥ 2³²−1 events).
pub fn generate_lpt<W: Write + Seek>(
    config: &SimConfig,
    sink: W,
) -> Result<(SynthSummary, W), TraceFileError> {
    let mut census = Census::new();
    run_sim(config, &mut census)?;
    debug_assert!(census.live.len() as u64 == census.births - census.frees);

    let (registry, chains, chain_of) = intern_sites();
    let stats = TraceStats {
        total_bytes: census.clock,
        total_objects: census.births,
        max_live_bytes: census.max_live_bytes,
        max_live_objects: census.max_live_objects,
        ..TraceStats::default()
    };
    let name = format!("server:synth-{}ev-seed{}", census.seq(), config.seed);
    let meta = StreamMeta {
        name: &name,
        stats,
        end_clock: census.clock,
        end_seq: census.seq(),
    };
    let mut writer = StreamTraceWriter::new(sink, &meta, &registry, &chains)?;

    writer.begin_records(census.births)?;
    let mut records = RecordPass {
        writer: &mut writer,
        census: &census,
        chain_of: &chain_of,
        births: 0,
        frees: 0,
        clock: 0,
    };
    run_sim(config, &mut records)?;
    writer.end_records()?;

    writer.begin_events(census.seq())?;
    let mut events = EventPass {
        writer: &mut writer,
        births: 0,
    };
    run_sim(config, &mut events)?;
    writer.end_events()?;

    let summary = SynthSummary {
        events: census.seq(),
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
        assert_eq!(mapped.event_count(), summary.events);
    }

    #[test]
    fn for_events_lands_near_the_target() {
        let config = SimConfig::for_events(100_000, 3);
        let (summary, _) = generate_lpt(&config, Cursor::new(Vec::new())).expect("generate");
        let err = summary.events.abs_diff(100_000) as f64 / 100_000.0;
        assert!(err < 0.2, "{} events for a 100k target", summary.events);
    }
}
