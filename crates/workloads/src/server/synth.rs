//! Streaming `.lpt` synthesis from the server simulation.
//!
//! [`generate_lpt`] turns a [`SimConfig`]-shaped run into a trace file
//! of (close to) a requested event count without ever holding the
//! trace in memory. The `.lpt` records section stores each object's
//! lifetime, which is only known when the simulation frees it — so the
//! deterministic simulation is simply run three times:
//!
//! 1. **census** — count objects/events, track live maxima, and fill
//!    a compact lifetime table (the record's lifetime code as `u32`,
//!    with a hash-map overflow for the long-lived tail), its token
//!    carrying each object's birth index, size and birth clock;
//! 2. **records** — re-run, emitting one
//!    [`AllocationRecord`] per birth with its death looked up in the
//!    table;
//! 3. **events** — re-run, emitting the alloc/free event stream.
//!
//! Peak memory is the lifetime table alone: 4 bytes per object, where
//! the file being written takes about 9. Everything else is streamed
//! through [`StreamTraceWriter`]'s 64 KiB scratch buffer.

use super::sim::{run_sim, AllocSink, SimConfig, Site, SITES};
use lifepred_trace::{AllocationRecord, ChainTable, FunctionRegistry, TraceStats};
use lifepred_tracefile::{StreamMeta, StreamTraceWriter, TraceFileError};
use std::collections::HashMap;
use std::io::{Seek, Write};

/// Lifetime code of an object never freed (the `.lpt` record's own).
const IMMORTAL: u32 = 0;

/// Lifetime code meaning "see the overflow map".
const OVERFLOW: u32 = u32::MAX;

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
/// The live object count is `births - frees`.
#[derive(Default)]
struct Census {
    births: u64,
    frees: u64,
    clock: u64,
    /// Lifetime code per birth index: [`IMMORTAL`], `death_clock -
    /// birth_clock - size + 1`, or [`OVERFLOW`] for a code in
    /// `overflow`.
    lifetime: Vec<u32>,
    overflow: HashMap<u32, u64>,
    live_bytes: u64,
    max_live_bytes: u64,
    max_live_objects: u64,
}

impl Census {
    fn events(&self) -> u64 {
        self.births + self.frees
    }
}

/// The census's token: what its free needs to know about the object.
#[derive(Clone, Copy, Default)]
struct Born {
    index: u32,
    size: u32,
    birth_clock: u64,
}

impl AllocSink for Census {
    type Token = Born;
    fn alloc(&mut self, _site: Site, size: u32) -> Result<Born, TraceFileError> {
        let index = u32::try_from(self.births).map_err(|_| TraceFileError::Malformed {
            section: "records",
            detail: "synthetic trace exceeds the u32 lifetime-table birth limit".to_owned(),
        })?;
        let born = Born {
            index,
            size,
            birth_clock: self.clock,
        };
        self.births += 1;
        self.lifetime.push(IMMORTAL);
        self.clock += u64::from(size);
        self.live_bytes += u64::from(size);
        self.max_live_bytes = self.max_live_bytes.max(self.live_bytes);
        self.max_live_objects = self.max_live_objects.max(self.births - self.frees);
        Ok(born)
    }

    fn free(&mut self, born: Born) -> Result<(), TraceFileError> {
        self.frees += 1;
        self.live_bytes -= u64::from(born.size);
        let code = self.clock - born.birth_clock - u64::from(born.size) + 1;
        self.lifetime[born.index as usize] = match u32::try_from(code) {
            Ok(code) if code != OVERFLOW => code,
            _ => {
                self.overflow.insert(born.index, code);
                OVERFLOW
            }
        };
        Ok(())
    }
}

/// The records pass: re-runs the sim, writing one record per birth.
struct RecordPass<'a, W: Write + Seek> {
    writer: &'a mut StreamTraceWriter<W>,
    census: &'a Census,
    chain_of: &'a [lifepred_trace::ChainId],
    births: u32,
    clock: u64,
}

impl<W: Write + Seek> AllocSink for RecordPass<'_, W> {
    type Token = ();
    fn alloc(&mut self, site: Site, size: u32) -> Result<(), TraceFileError> {
        let index = self.births;
        let end = self.clock + u64::from(size);
        let death_clock = match self.census.lifetime[index as usize] {
            IMMORTAL => None,
            OVERFLOW => Some(end + self.census.overflow[&index] - 1),
            code => Some(end + u64::from(code) - 1),
        };
        self.writer.write_record(&AllocationRecord {
            size,
            chain: self.chain_of[site as usize],
            birth_clock: self.clock,
            death_clock,
            refs: 0,
            first_ref_clock: None,
            last_ref_clock: None,
        })?;
        self.births += 1;
        self.clock = end;
        Ok(())
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
/// Peak memory is ~4 bytes per object regardless of file size.
///
/// # Errors
///
/// I/O errors from `sink`, or a run so long it overflows the `u32`
/// birth index of the lifetime table (more than 2³² objects).
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

    writer.begin_records(census.births)?;
    let mut records = RecordPass {
        writer: &mut writer,
        census: &census,
        chain_of: &chain_of,
        births: 0,
        clock: 0,
    };
    run_sim(config, &mut records)?;
    writer.end_records()?;

    writer.begin_events(census.events())?;
    let mut events = EventPass {
        writer: &mut writer,
        births: 0,
    };
    run_sim(config, &mut events)?;
    writer.end_events()?;

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
            (1, 0xb859_d951_a379_3771),
            (2, 0x66d3_fbb7_7974_9560),
            (3, 0xd1dc_92a9_52b6_e9de),
        ] {
            let config = SimConfig::for_events(100_000, seed);
            let (_, sink) = generate_lpt(&config, Cursor::new(Vec::new())).expect("generate");
            assert_eq!(fnv1a(sink.get_ref()), want, "seed {seed}");
        }
    }
}
