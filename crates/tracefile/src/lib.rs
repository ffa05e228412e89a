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
//! are LEB128 varints; records and events are delta-encoded against
//! their predecessors, so the steady-state cost of an allocation is a
//! few bytes.
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
//!   [`ChunkSource`](lifepred_trace::ChunkSource)) — what drives the
//!   heap simulators without ever materializing the trace;
//! * [`MappedTrace::records`] streams allocation records one at a time
//!   ([`MappedRecords`]) — enough to train a predictor;
//! * [`load_trace`] / [`trace_from_bytes`] collect the records,
//!   cross-check the event stream against them and rebuild a full
//!   in-memory [`Trace`].
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
// one module that owns the mmap lifecycle (`map`), which opts back in
// explicitly and is covered by the allocator-safety audit
// (audit.toml `raw-ptr-ops` scope) plus per-block SAFETY comments.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod crc32;
mod error;
mod format;
mod map;
mod mapped;
mod stream;
mod varint;
mod writer;

pub use crc32::Crc32;
pub use error::TraceFileError;
pub use map::{TraceMap, NO_MMAP_ENV};
pub use mapped::{MappedEvents, MappedRecords, MappedTrace, SectionInfo};
pub use stream::{StreamMeta, StreamTraceWriter};
pub use writer::TraceWriter;

use lifepred_trace::Trace;
use std::path::Path;

/// Conventional file extension for trace files (no leading dot).
pub const FILE_EXTENSION: &str = "lpt";

/// Writes `trace` to a new file at `path`.
pub fn save_trace(path: impl AsRef<Path>, trace: &Trace) -> Result<(), TraceFileError> {
    TraceWriter::create(path)?.write(trace).map(drop)
}

/// Loads, validates and rebuilds the trace stored at `path`: every
/// check of [`MappedTrace::open`], then the events section must be
/// exactly the stream the records imply.
pub fn load_trace(path: impl AsRef<Path>) -> Result<Trace, TraceFileError> {
    MappedTrace::open(path)?.into_trace()
}

/// Encodes `trace` into an in-memory `.lpt` image.
pub fn trace_to_vec(trace: &Trace) -> Result<Vec<u8>, TraceFileError> {
    TraceWriter::new(Vec::new()).write(trace)
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

    #[test]
    fn unsupported_version_is_reported() {
        let trace = TraceSession::new("v").finish();
        let mut bytes = trace_to_vec(&trace).expect("encode");
        bytes[4] = 0xff;
        let err = trace_from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, TraceFileError::UnsupportedVersion(_)),
            "{err}"
        );
    }

    #[test]
    fn version2_roundtrip_preserves_ref_clocks() {
        let s = TraceSession::new("touched");
        let a = s.alloc(10);
        s.touch(a, 2); // first touch at clock 10
        let b = s.alloc(30); // clock 40
        s.touch(a, 1); // last touch at clock 40
        s.free(a);
        let _ = b; // immortal, never touched
        let trace = s.finish();
        let bytes = trace_to_vec(&trace).expect("encode");
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        let loaded = trace_from_bytes(&bytes).expect("decode");
        assert_eq!(loaded.records()[0].first_ref_clock, Some(10));
        assert_eq!(loaded.records()[0].last_ref_clock, Some(40));
        assert_eq!(loaded.records()[1].first_ref_clock, None);
        assert_eq!(loaded.records(), trace.records());
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
