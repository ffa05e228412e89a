//! Allocation tracing: the substrate the paper obtained from Larus' AE
//! abstract-execution tool.
//!
//! Instrumented workloads run against a [`TraceSession`], which keeps a
//! *calling-context tree* (one node per raw call stack, each caching
//! its interned call-chain from its first allocation) and records, for
//! every heap object, its allocation site (the call-chain at birth plus
//! the object size), its lifetime measured in **bytes allocated**
//! between birth and death (the paper's clock), and the number of heap
//! references made to it.
//!
//! The finished [`Trace`] is the unit of exchange for the rest of the
//! system: the predictor trains on traces, and the heap simulators
//! replay their event streams. An event stream has one encoding from
//! recording to replay, the `.lpt` event key ([`keys`]), and one
//! decoder, [`EventKeys`], that reads keys in memory or mapped into
//! [`ChunkEvent`]s, in [`EventChunk`] batches or one at a time.
//!
//! # Examples
//!
//! ```
//! use lifepred_trace::TraceSession;
//!
//! let session = TraceSession::new("demo");
//! {
//!     let _main = session.enter("main");
//!     let obj = {
//!         let _f = session.enter("make_widget");
//!         session.alloc(24)
//!     };
//!     session.touch(obj, 10);
//!     session.free(obj);
//! }
//! let trace = session.finish();
//! assert_eq!(trace.records().len(), 1);
//! assert_eq!(trace.records()[0].lifetime(trace.end_clock()), 24);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod chunk;
pub mod keys;
mod record;
mod registry;
mod session;
mod stats;
pub mod varint;

pub use chain::{eliminate_cycles, CallChain, ChainId, ChainTable};
pub use chunk::{ChunkEvent, ChunkSource, EventChunk, TraceSource, POOLED_CHUNK_EVENTS};
pub use keys::{EventKeys, KeyError, TraceEvents};
pub use record::{AllocationRecord, ObjectId, RecordSource};
pub use registry::{shared_registry, FnId, FunctionRegistry, SharedRegistry};
pub use session::{CallGuard, Trace, TraceSession, Traced};
pub use stats::TraceStats;
