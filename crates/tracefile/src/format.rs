//! On-disk constants of the `.lpt` container.
//!
//! Layout (all multi-byte header integers little-endian):
//!
//! ```text
//! magic      [0x89, b'L', b'P', b'T']
//! version    u16 (5; the reader refuses every other)
//! sections   u16 (always 6)
//! 6 x section:
//!   id          u8
//!   payload_len varint
//!   payload     payload_len bytes
//!   crc32       u32 over the payload
//! ```
//!
//! Sections appear in id order: meta, functions, chains, chain ids,
//! touches, events. Payload encodings are documented in `stream.rs`
//! next to the code that produces them.

/// File magic: a non-ASCII lead byte (like PNG's) so text tools do not
/// mistake a trace for text, then the format name.
pub(crate) const MAGIC: [u8; 4] = [0x89, b'L', b'P', b'T'];

/// The format version, the only one the writer produces and the reader
/// accepts. Version 5 stores each fact once: an object's size and death
/// in its event keys only, its chain id and touch entry in two columns.
/// Version 4 kept a record per object that repeated its size and death;
/// earlier versions also repeated program order.
pub(crate) const VERSION: u16 = 5;

/// The sections, in file order; a section's id is its index plus one.
/// Meta holds the program name and aggregate statistics, functions the
/// function registry and chains the call-chain table; the three large
/// sections follow.
pub(crate) const SECTIONS: [&str; 6] = [
    "meta",
    "functions",
    "chains",
    "chain ids",
    "touches",
    "events",
];

/// Number of sections a file carries.
pub(crate) const SECTION_COUNT: u16 = SECTIONS.len() as u16;

/// The three large sections, by index from the first of them.
pub(crate) const CHAIN_IDS: usize = 0;
pub(crate) const TOUCHES: usize = 1;
pub(crate) const EVENTS: usize = 2;
