//! On-disk constants of the `.lpt` container.
//!
//! Layout (all multi-byte header integers little-endian):
//!
//! ```text
//! magic      [0x89, b'L', b'P', b'T']
//! version    u16 (4; the reader refuses every other)
//! sections   u16 (always 5)
//! 5 x section:
//!   id          u8
//!   payload_len varint
//!   payload     payload_len bytes
//!   crc32       u32 over the payload
//! ```
//!
//! Sections appear in id order: meta, functions, chains, records,
//! events. Payload encodings are documented in `stream.rs` next to the
//! code that produces them.

/// File magic: a non-ASCII lead byte (like PNG's) so text tools do not
/// mistake a trace for text, then the format name.
pub(crate) const MAGIC: [u8; 4] = [0x89, b'L', b'P', b'T'];

/// The format version, the only one the writer produces and the reader
/// accepts. Version 4 stores program order once, in the events: a
/// record has no birth or death seq and no birth clock, and the meta
/// section no end clock or end seq. Version 3 stored all four; versions
/// 1 and 2 also stored a per-event sequence delta that was always 0
/// (and version 1 records had no reference clocks).
pub(crate) const VERSION: u16 = 4;

/// Number of sections a file carries.
pub(crate) const SECTION_COUNT: u16 = 5;

/// Program name and aggregate statistics.
pub(crate) const SECTION_META: u8 = 1;

/// The function-name registry, in `FnId` order.
pub(crate) const SECTION_FUNCTIONS: u8 = 2;

/// The call-chain table, in `ChainId` order.
pub(crate) const SECTION_CHAINS: u8 = 3;

/// Per-object allocation records, in birth order.
pub(crate) const SECTION_RECORDS: u8 = 4;

/// The interleaved alloc/free event stream, one key per event.
pub(crate) const SECTION_EVENTS: u8 = 5;
