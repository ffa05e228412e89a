//! `.lpt` — the on-disk allocation trace format.
//!
//! The paper's methodology is *record once, simulate many times*: a
//! workload runs under the tracer once, and the resulting trace is
//! then profiled, used to train predictors, and replayed through
//! allocator simulations over and over. This crate gives the
//! [`Trace`] a compact binary persistent form
//! so those phases can run in separate processes (see the `lifepred`
//! CLI).
//!
//! # Format
//!
//! An `.lpt` file is a magic + version header followed by five
//! CRC32-protected sections: meta, functions, chains, records and
//! events (see [`format`](crate) internals and `DESIGN.md`). Scalars
//! are LEB128 varints. Program order is stored once, in the events: an
//! event is one key varint (the size of an allocation, or how many
//! allocations back a freed object was born), and a record stores its
//! size, chain, lifetime, references and touch clocks, but no seq and
//! no birth clock (the sum of the earlier records' sizes). The
//! steady-state cost of an allocation is a few bytes. The format is at
//! version 4, and the reader reads version 4 only. The key is the one
//! encoding of an event stream ([`lifepred_trace::keys`]): a saved
//! [`Trace`]'s events section is the payload its session recorded.
//!
//! # Reading
//!
//! There is one reader, [`MappedTrace`], and one thing it decodes: a
//! `&[u8]` image of the whole file (an `mmap`, or a heap copy — see
//! [`TraceMap`]). [`MappedTrace::open`] checks the framing and all five
//! section CRCs once, in bulk, and parses the header sections; after
//! that
//!
//! * [`MappedTrace::events`] decodes the event stream in
//!   structure-of-arrays batches ([`MappedEvents`], a
//!   [`ChunkSource`](lifepred_trace::ChunkSource)) with the one key
//!   decoder — what drives the heap simulators without ever
//!   materializing the trace;
//! * [`MappedTrace::records`] streams allocation records one at a time
//!   ([`MappedRecords`]) — enough to train a predictor;
//! * [`MappedTrace::verify`] walks records and events in lockstep, in
//!   memory bounded by the live objects, and checks that the facts they
//!   both store (sizes, death clocks, totals) agree with each other and
//!   with the meta section (`inspect --verify`);
//! * [`load_trace`] / [`trace_from_bytes`] collect the records as that
//!   same walk reads them and rebuild a full in-memory [`Trace`].
//!
//! Corrupted or truncated input is always reported as a
//! [`TraceFileError`]; no input sequence panics the reader.
//!
//! # Examples
//!
//! ```
//! use lifepred_trace::TraceSession;
//! use lifepred_tracefile::{trace_from_bytes, trace_to_vec};
//!
//! let s = TraceSession::new("roundtrip");
//! let id = s.alloc(64);
//! s.free(id);
//! let trace = s.finish();
//!
//! let bytes = trace_to_vec(&trace).unwrap();
//! let loaded = trace_from_bytes(&bytes).unwrap();
//! assert_eq!(loaded.name(), trace.name());
//! assert_eq!(loaded.records(), trace.records());
//! assert_eq!(loaded.stats(), trace.stats());
//! ```

// `deny` rather than `forbid`: the crate is safe code except for the
// module that owns the mmap lifecycle (`map`) and the one call into
// the carry-less CRC fold after CPU detection (`crc32`), which opt back
// in explicitly, with a SAFETY comment on every unsafe block (clippy
// `undocumented_unsafe_blocks`). CI's "Tracefile unsafe fence" fails
// on any other.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod crc32;
mod error;
mod format;
mod map;
mod mapped;
mod stream;

pub use crc32::Crc32;
pub use error::TraceFileError;
pub use map::TraceMap;
pub use mapped::{MappedEvents, MappedRecords, MappedTrace, SectionInfo};
pub use stream::{StreamMeta, StreamTraceWriter};

use lifepred_trace::Trace;
use std::fs::File;
use std::io::{BufWriter, Cursor};
use std::path::Path;

/// Writes `trace` to a new file at `path` (created or truncated).
///
/// # Errors
///
/// I/O failures, or [`TraceFileError::Malformed`] if a record of
/// `trace` violates an invariant documented on
/// [`Trace::from_parts`](lifepred_trace::Trace::from_parts) that
/// [`StreamTraceWriter`] checks.
pub fn save_trace(path: impl AsRef<Path>, trace: &Trace) -> Result<(), TraceFileError> {
    stream::write_trace(trace, BufWriter::new(File::create(path)?)).map(drop)
}

/// Loads, validates and rebuilds the trace stored at `path`: every
/// check of [`MappedTrace::open`], then [`MappedTrace::verify`]'s walk.
pub fn load_trace(path: impl AsRef<Path>) -> Result<Trace, TraceFileError> {
    MappedTrace::open(path)?.into_trace()
}

/// Encodes `trace` into an in-memory `.lpt` image, with
/// [`save_trace`]'s checks.
pub fn trace_to_vec(trace: &Trace) -> Result<Vec<u8>, TraceFileError> {
    stream::write_trace(trace, Cursor::new(Vec::new())).map(Cursor::into_inner)
}

/// Decodes a trace from an in-memory `.lpt` image (copied once, into
/// the [`TraceMap`] the reader borrows from), with [`load_trace`]'s
/// checks.
pub fn trace_from_bytes(bytes: &[u8]) -> Result<Trace, TraceFileError> {
    MappedTrace::from_map(TraceMap::from_vec(bytes.to_vec()))?.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_trace::{ChunkSource, EventChunk, TraceSession};

    /// A trace exercising every feature: nested chains, recursion,
    /// interleaved frees, immortal objects, refs and work.
    fn sample_trace() -> Trace {
        let s = TraceSession::new("sample");
        let long_lived = {
            let _m = s.enter("main");
            let a = {
                let _f = s.enter("factory");
                s.alloc(100)
            };
            s.touch(a, 7);
            let mut kept = Vec::new();
            {
                let _w = s.enter("worker");
                for i in 0..50u32 {
                    let x = s.alloc(8 + i);
                    if i % 3 == 0 {
                        kept.push(x);
                    } else {
                        s.free(x);
                    }
                }
                {
                    let _r = s.enter("worker"); // recursion
                    kept.push(s.alloc(4096));
                }
            }
            s.work(1000);
            s.free(a);
            kept
        };
        for id in long_lived {
            s.free(id);
        }
        s.alloc(12); // immortal
        s.finish()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = sample_trace();
        let bytes = trace_to_vec(&trace).expect("encode");
        let loaded = trace_from_bytes(&bytes).expect("decode");
        assert_eq!(loaded.name(), trace.name());
        assert_eq!(loaded.stats(), trace.stats());
        assert_eq!(loaded.end_clock(), trace.end_clock());
        assert_eq!(loaded.end_seq(), trace.end_seq());
        assert_eq!(loaded.records(), trace.records());
        assert_eq!(loaded.registry().len(), trace.registry().len());
        for (id, chain) in trace.chains().iter() {
            assert_eq!(loaded.chains().get(id), chain);
        }
        for name in trace.registry().names() {
            assert_eq!(
                loaded.registry().get(name).map(|f| f.index()),
                trace.registry().get(name).map(|f| f.index())
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join(format!("lpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("sample.lpt");
        save_trace(&path, &trace).expect("save");
        let loaded = load_trace(&path).expect("load");
        assert_eq!(loaded.records(), trace.records());
        // Both ways of opening the file itself (an mmap, unless
        // LIFEPRED_NO_MMAP is set).
        for mapped in [
            MappedTrace::open(&path),
            MappedTrace::open_unverified(&path),
        ] {
            let mapped = mapped.expect("open");
            let records: Result<Vec<_>, _> = mapped.records().expect("records").collect();
            assert_eq!(records.expect("decode"), trace.records());
            let (mut source, mut chunk, mut events) = (mapped.events(), EventChunk::new(), 0);
            while source.next_chunk(&mut chunk).expect("chunk") {
                events += chunk.len() as u64;
            }
            assert_eq!(events, trace.end_seq());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_is_reported() {
        let err = trace_from_bytes(b"not a trace file").unwrap_err();
        assert!(matches!(err, TraceFileError::BadMagic(_)), "{err}");
    }

    /// The writer stamps version 4, and the reader reads nothing else:
    /// a v3 header is refused, typed, saying what this reader reads.
    #[test]
    fn a_version3_file_is_unsupported() {
        let trace = TraceSession::new("v").finish();
        let mut bytes = trace_to_vec(&trace).expect("encode");
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 4);
        bytes[4] = 3;
        let err = trace_from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, TraceFileError::UnsupportedVersion(3)),
            "{err}"
        );
        assert_eq!(
            err.to_string(),
            "unsupported .lpt format version 3 (this reader reads version 4)"
        );
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_mismatch() {
        let trace = sample_trace();
        let mut bytes = trace_to_vec(&trace).expect("encode");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        assert!(trace_from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_is_reported_everywhere() {
        let trace = sample_trace();
        let bytes = trace_to_vec(&trace).expect("encode");
        for len in 0..bytes.len() {
            let err = trace_from_bytes(&bytes[..len]);
            assert!(err.is_err(), "prefix of {len} bytes decoded successfully");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let trace = sample_trace();
        let mut bytes = trace_to_vec(&trace).expect("encode");
        bytes.push(0);
        let err = trace_from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, TraceFileError::Malformed { .. }), "{err}");
    }
}
