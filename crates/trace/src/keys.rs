//! The `.lpt` event key, the one encoding of an event stream from the
//! recording session through the file to the replay. An event is one
//! varint: an even key allocates `key >> 1` bytes for the next record in
//! birth order; an odd key frees the object allocated `key >> 1`
//! allocations ago (so an object that dies young costs one byte).
//! [`EventKeys`] decodes keys wherever they live: a
//! [`Trace`](crate::Trace)'s payload or a mapped file's events section.

use crate::chunk::{ChunkEvent, ChunkSource, EventChunk};
use crate::varint::{take_varint, write_varint, VarintErr};
use std::convert::Infallible;
use std::fmt;

/// Appends the key of an allocation of `size` bytes.
#[inline]
pub fn encode_alloc(keys: &mut Vec<u8>, size: u32) {
    write_varint(keys, u64::from(size) << 1);
}

/// Appends the key of a free of birth-order record `record`, `allocs`
/// allocations into the stream; `None`, appending nothing, if `record`
/// is not one of them.
#[inline]
pub fn encode_free(keys: &mut Vec<u8>, allocs: u64, record: u64) -> Option<()> {
    let back = allocs.checked_sub(record)?.checked_sub(1)?;
    write_varint(keys, (back << 1) | 1);
    Some(())
}

/// Why a key payload does not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyError {
    /// A key's varint runs past the payload, or is invalid.
    Varint(VarintErr),
    /// An allocation of more than `u32::MAX` bytes.
    SizeOverflow,
    /// A free reaching back past the first allocation.
    FreeBeforeAlloc,
    /// Bytes left over after the declared number of events.
    Unread(usize),
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::Varint(e) => e.fmt(f),
            KeyError::SizeOverflow => f.write_str("event size exceeds u32"),
            KeyError::FreeBeforeAlloc => f.write_str("free references an object never allocated"),
            KeyError::Unread(n) => write!(f, "{n} unread bytes at end of section"),
        }
    }
}

/// Decodes the key at `*pos` of `keys`, `*allocs` allocations into the
/// stream, advancing both.
#[inline(always)]
fn decode_event(keys: &[u8], pos: &mut usize, allocs: &mut u64) -> Result<ChunkEvent, KeyError> {
    let key = take_varint(keys, pos).map_err(KeyError::Varint)?;
    if key & 1 == 0 {
        let size = u32::try_from(key >> 1).map_err(|_| KeyError::SizeOverflow)?;
        let record = *allocs as usize;
        // Every key takes a byte, so the count is below the payload's
        // length and cannot overflow.
        *allocs += 1;
        Ok(ChunkEvent::Alloc { record, size })
    } else {
        let record = (allocs.checked_sub(1))
            .and_then(|last| last.checked_sub(key >> 1))
            .ok_or(KeyError::FreeBeforeAlloc)? as usize;
        Ok(ChunkEvent::Free { record })
    }
}

/// The key decoder: a payload declared to hold `count` keys, read in
/// program order, in [`EventChunk`] batches ([`fill`](Self::fill)) or
/// one event at a time (as an iterator).
///
/// Every decode is bounded by the payload, so no input panics. After
/// the last event, or after any error, the decoder is fused.
#[derive(Debug, Clone)]
pub struct EventKeys<'a> {
    keys: &'a [u8],
    /// Payload bytes decoded; the payload's length once fused.
    pos: usize,
    /// Events left per the declared count; 0 once fused.
    remaining: u64,
    /// Allocations decoded so far: the base free back-references
    /// resolve against.
    allocs: u64,
}

impl<'a> EventKeys<'a> {
    /// Decodes `count` keys from `keys`.
    pub fn new(keys: &'a [u8], count: u64) -> EventKeys<'a> {
        EventKeys {
            keys,
            pos: 0,
            remaining: count,
            allocs: 0,
        }
    }

    /// Payload bytes decoded so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Ends the stream, refusing bytes past the last event once.
    fn end(&mut self) -> Result<(), KeyError> {
        let unread = self.keys.len() - self.pos;
        (self.remaining, self.pos) = (0, self.keys.len());
        match unread {
            0 => Ok(()),
            n => Err(KeyError::Unread(n)),
        }
    }

    /// Clears `chunk` and refills it with the next batch of events, as
    /// [`ChunkSource::next_chunk`] does; `Ok(false)` once the stream has
    /// ended.
    pub fn fill(&mut self, chunk: &mut EventChunk) -> Result<bool, KeyError> {
        chunk.clear();
        let filled = self.decode_into(chunk);
        if filled.is_err() {
            self.end().ok();
            chunk.clear();
        }
        filled
    }

    /// [`fill`](Self::fill)'s decode, leaving an error's cleanup to it.
    fn decode_into(&mut self, chunk: &mut EventChunk) -> Result<bool, KeyError> {
        // Hoist the position and allocation count into locals: each key
        // is one event, so the chunk fill is a counted loop with no
        // per-event field round-trips.
        let n = (chunk.target() as u64).min(self.remaining);
        let (mut pos, mut allocs) = (self.pos, self.allocs);
        for _ in 0..n {
            chunk.push(decode_event(self.keys, &mut pos, &mut allocs)?);
        }
        (self.pos, self.allocs) = (pos, allocs);
        self.remaining -= n;
        if self.remaining == 0 {
            self.end()?;
        }
        Ok(!chunk.is_empty())
    }
}

impl Iterator for EventKeys<'_> {
    type Item = Result<ChunkEvent, KeyError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return self.end().err().map(Err);
        }
        self.remaining -= 1;
        let event = decode_event(self.keys, &mut self.pos, &mut self.allocs);
        if event.is_err() {
            self.end().ok();
        }
        Some(event)
    }
}

/// A [`Trace`](crate::Trace)'s events: a [`ChunkSource`], or one
/// event at a time through `IntoIterator`. A trace's keys decode by
/// [`Trace::from_parts`](crate::Trace::from_parts)' contract, so a
/// trace whose keys do not decode panics here.
#[derive(Debug, Clone)]
pub struct TraceEvents<'a>(pub(crate) EventKeys<'a>);

impl ChunkSource for TraceEvents<'_> {
    type Error = Infallible;

    fn next_chunk(&mut self, chunk: &mut EventChunk) -> Result<bool, Infallible> {
        Ok(self
            .0
            .fill(chunk)
            .unwrap_or_else(|e| panic!("a trace's keys do not decode: {e}")))
    }
}

impl<'a> IntoIterator for TraceEvents<'a> {
    type Item = ChunkEvent;
    type IntoIter = std::iter::Map<EventKeys<'a>, fn(Result<ChunkEvent, KeyError>) -> ChunkEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.0
            .map(|event| event.unwrap_or_else(|e| panic!("a trace's keys do not decode: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(keys: &[u8], count: u64) -> Result<Vec<ChunkEvent>, KeyError> {
        EventKeys::new(keys, count).collect()
    }

    #[test]
    fn keys_round_trip_through_the_decoder() {
        let mut keys = Vec::new();
        encode_alloc(&mut keys, 24);
        encode_alloc(&mut keys, 1 << 20);
        assert_eq!(encode_free(&mut keys, 2, 0), Some(()));
        assert_eq!(encode_free(&mut keys, 2, 1), Some(()));
        assert_eq!(keys, [48, 0x80, 0x80, 0x80, 0x01, 3, 1]);
        assert_eq!(
            decode(&keys, 4),
            Ok(vec![
                ChunkEvent::Alloc {
                    record: 0,
                    size: 24
                },
                ChunkEvent::Alloc {
                    record: 1,
                    size: 1 << 20
                },
                ChunkEvent::Free { record: 0 },
                ChunkEvent::Free { record: 1 },
            ])
        );
        // A free of a record not yet allocated encodes nothing.
        assert_eq!(encode_free(&mut keys, 2, 2), None);
        assert_eq!(keys.len(), 7);
    }

    #[test]
    fn malformed_keys_are_refused() {
        let mut huge = Vec::new();
        write_varint(&mut huge, (u64::from(u32::MAX) + 1) << 1);
        let cases: [(&[u8], u64, KeyError); 5] = [
            (&[0x80], 1, KeyError::Varint(VarintErr::OutOfBytes)),
            (&[0xff; 11], 1, KeyError::Varint(VarintErr::Invalid)),
            (&huge, 1, KeyError::SizeOverflow),
            (&[2, 3], 2, KeyError::FreeBeforeAlloc),
            (&[2, 1, 0], 2, KeyError::Unread(1)),
        ];
        for (keys, count, want) in cases {
            assert_eq!(decode(keys, count), Err(want), "{keys:02x?}");
            let mut source = EventKeys::new(keys, count);
            let mut chunk = EventChunk::with_capacity(3);
            assert_eq!(source.fill(&mut chunk), Err(want), "{keys:02x?}");
            assert!(chunk.is_empty());
            assert_eq!(source.fill(&mut chunk), Ok(false), "fused");
        }
        assert_eq!(
            KeyError::FreeBeforeAlloc.to_string(),
            "free references an object never allocated"
        );
    }
}
