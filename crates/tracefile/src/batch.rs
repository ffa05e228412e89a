//! Branch-reduced varint + event batch decoding over in-memory bytes.
//!
//! Every varint [`MappedTrace`](crate::MappedTrace) reads — framing,
//! header sections, records, events — goes through [`take_varint`].
//! The decoder is SWAR (SIMD-within-a-register): one unaligned 8-byte
//! little-endian load covers every encoding the events section
//! produces in practice, the terminator byte is found with a single
//! `trailing_zeros` on the inverted continuation-bit mask, and the
//! payload bits are compacted with three shift/mask steps instead of a
//! data-dependent byte loop. Encodings of nine or ten bytes — and the
//! last few bytes of a buffer, where an 8-byte load would run off the
//! end — fall back to the scalar loop, which mirrors the test oracle
//! `varint::read_varint`'s validation byte for byte: at most
//! [`MAX_VARINT_LEN`] bytes, the tenth byte may only carry the single
//! remaining bit, and non-canonical zero padding is accepted.
//!
//! [`decode_event`] is the batch decoder of one chunk event, with the
//! structural checks replay depends on (size bounds, allocation-count
//! overflow, free back-references).

use crate::error::TraceFileError;
use crate::varint::MAX_VARINT_LEN;
use lifepred_trace::EventChunk;

/// The continuation bit of every byte lane.
const CONT: u64 = 0x8080_8080_8080_8080;

/// How decoding a varint from a buffer can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarintErr {
    /// The buffer ran out before the terminating byte.
    OutOfBytes,
    /// Over-long or overflowing encoding.
    Invalid,
}

impl VarintErr {
    /// The error for a varint read inside `section`'s payload.
    pub(crate) fn into_error(self, section: &'static str) -> TraceFileError {
        TraceFileError::malformed(
            section,
            match self {
                VarintErr::OutOfBytes => "value runs past the section payload",
                VarintErr::Invalid => "invalid varint",
            },
        )
    }
}

/// Compacts the low `n` varint bytes of a little-endian word into
/// their `7 * n` payload bits.
#[inline(always)]
fn fold(word: u64, n: usize) -> u64 {
    let x = word & 0x7f7f_7f7f_7f7f_7f7f;
    // Pairwise gather: 7-bit lanes -> 14-bit lanes -> 28-bit lanes ->
    // one 56-bit value, each step closing the gap left by a dropped
    // continuation bit.
    let x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
    let x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
    let x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4);
    if n >= 8 {
        x
    } else {
        x & ((1u64 << (7 * n)) - 1)
    }
}

/// Scalar decode, byte for byte the same validation as
/// `varint::read_varint`. Used for buffer tails and 9–10-byte
/// encodings.
#[inline]
fn take_varint_scalar(buf: &[u8], pos: &mut usize) -> Result<u64, VarintErr> {
    let mut value: u64 = 0;
    for i in 0..MAX_VARINT_LEN {
        let byte = *buf.get(*pos + i).ok_or(VarintErr::OutOfBytes)?;
        let payload = u64::from(byte & 0x7f);
        // The tenth byte may only contribute the single remaining bit.
        if i == MAX_VARINT_LEN - 1 && payload > 1 {
            return Err(VarintErr::Invalid);
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            *pos += i + 1;
            return Ok(value);
        }
    }
    Err(VarintErr::Invalid)
}

/// Finishes a 9- or 10-byte encoding whose first eight bytes (already
/// folded into `lo`) all had their continuation bits set.
#[cold]
fn take_varint_long(buf: &[u8], pos: &mut usize, lo: u64) -> Result<u64, VarintErr> {
    let b8 = *buf.get(*pos + 8).ok_or(VarintErr::OutOfBytes)?;
    if b8 & 0x80 == 0 {
        *pos += 9;
        return Ok(lo | (u64::from(b8) << 56));
    }
    let b9 = *buf.get(*pos + 9).ok_or(VarintErr::OutOfBytes)?;
    let payload = u64::from(b9 & 0x7f);
    // The tenth byte may only contribute the single remaining bit, and
    // must terminate.
    if payload > 1 || b9 & 0x80 != 0 {
        return Err(VarintErr::Invalid);
    }
    *pos += 10;
    Ok(lo | (u64::from(b8 & 0x7f) << 56) | (payload << 63))
}

/// Decodes one LEB128 varint from `buf` starting at `*pos`, advancing
/// `*pos` past it. Accepts exactly the encodings
/// `varint::read_varint` accepts (including non-canonical
/// zero padding) and rejects exactly the ones it rejects.
#[inline]
pub(crate) fn take_varint(buf: &[u8], pos: &mut usize) -> Result<u64, VarintErr> {
    let Some(window) = buf.get(*pos..*pos + 8) else {
        return take_varint_scalar(buf, pos);
    };
    let word = u64::from_le_bytes(window.try_into().expect("8-byte window"));
    let stops = !word & CONT;
    if stops != 0 {
        let n = (stops.trailing_zeros() as usize >> 3) + 1;
        *pos += n;
        return Ok(fold(word, n));
    }
    take_varint_long(buf, pos, fold(word, 8))
}

/// Skips one varint, enforcing the same length and final-byte rules as
/// [`take_varint`] without materializing the value. Used for the
/// per-event sequence deltas, which replay never consumes.
#[inline]
pub(crate) fn skip_varint(buf: &[u8], pos: &mut usize) -> Result<(), VarintErr> {
    let Some(window) = buf.get(*pos..*pos + 8) else {
        return take_varint_scalar(buf, pos).map(|_| ());
    };
    let word = u64::from_le_bytes(window.try_into().expect("8-byte window"));
    let stops = !word & CONT;
    if stops != 0 {
        *pos += (stops.trailing_zeros() as usize >> 3) + 1;
        return Ok(());
    }
    take_varint_long(buf, pos, 0).map(|_| ())
}

/// Fused fast path for one event's two varints: a single 8-byte load
/// covers the (overwhelmingly common) single-byte sequence delta plus
/// a key of up to seven bytes. Returns the key and bytes consumed, or
/// `None` when the window is short, the delta is multi-byte, or the
/// key runs past the window — callers then take the general path.
#[inline(always)]
fn fused_key(buf: &[u8], pos: usize) -> Option<(u64, usize)> {
    let window = buf.get(pos..pos + 8)?;
    let word = u64::from_le_bytes(window.try_into().expect("8-byte window"));
    if word & 0x80 != 0 {
        return None;
    }
    // Drop the delta byte; lane 7 becomes zero, so `stops` is never 0
    // and n == 8 means the key was not terminated within the window.
    let kw = word >> 8;
    let stops = !kw & CONT;
    let n = (stops.trailing_zeros() as usize >> 3) + 1;
    if n > 7 {
        return None;
    }
    Some((fold(kw, n), 1 + n))
}

/// Decodes one event (sequence delta + key) from `buf` at `*pos` into
/// `chunk`, maintaining the running allocation count that free
/// back-references resolve against.
#[inline]
pub(crate) fn decode_event(
    buf: &[u8],
    pos: &mut usize,
    allocs: &mut u64,
    chunk: &mut EventChunk,
) -> Result<(), TraceFileError> {
    let bad = |detail: &str| TraceFileError::malformed("events", detail);
    let key = if let Some((key, advance)) = fused_key(buf, *pos) {
        *pos += advance;
        key
    } else {
        // Sequence-number delta: length-validated and checksummed, but
        // replay has no use for the reconstructed value.
        skip_varint(buf, pos).map_err(|e| e.into_error("events"))?;
        take_varint(buf, pos).map_err(|e| e.into_error("events"))?
    };
    if key & 1 == 0 {
        let size = u32::try_from(key >> 1).map_err(|_| bad("event size exceeds u32"))?;
        let record = *allocs;
        *allocs = allocs
            .checked_add(1)
            .ok_or_else(|| bad("allocation count overflows"))?;
        chunk.push_alloc(record, size);
    } else {
        let back = key >> 1;
        let record = allocs
            .checked_sub(1)
            .and_then(|last| last.checked_sub(back))
            .ok_or_else(|| bad("free references an object never allocated"))?;
        chunk.push_free(record);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint::{read_varint, write_varint};

    /// The streaming decoder as an oracle over a slice: returns the
    /// value and consumed length, or `None` for invalid/truncated.
    fn oracle(buf: &[u8]) -> Option<(u64, usize)> {
        let mut consumed = 0usize;
        let result: Result<Option<u64>, ()> = read_varint(|| {
            let b = buf.get(consumed).copied().ok_or(())?;
            consumed += 1;
            Ok(b)
        });
        match result {
            Ok(Some(v)) => Some((v, consumed)),
            Ok(None) | Err(()) => None,
        }
    }

    fn swar(buf: &[u8]) -> Option<(u64, usize)> {
        let mut pos = 0;
        take_varint(buf, &mut pos).ok().map(|v| (v, pos))
    }

    #[test]
    fn matches_oracle_on_canonical_encodings() {
        let values = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            0xfff_ffff,
            1 << 28,
            (1 << 35) - 1,
            1 << 35,
            (1 << 56) - 1,
            1 << 56,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in values {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(swar(&buf), Some((v, buf.len())), "value {v}");
            assert_eq!(swar(&buf), oracle(&buf), "value {v}");
            // Skip must consume the same bytes.
            let mut pos = 0;
            skip_varint(&buf, &mut pos).expect("skip");
            assert_eq!(pos, buf.len(), "value {v}");
        }
    }

    #[test]
    fn accepts_non_canonical_padding_like_the_oracle() {
        // Zero padded out to every legal length, including the fixed
        // five-byte placeholders the streaming writer patches in.
        for len in 1..=MAX_VARINT_LEN {
            let mut buf = vec![0x80u8; len - 1];
            buf.push(0x00);
            assert_eq!(oracle(&buf), Some((0, len)), "len {len}");
            assert_eq!(swar(&buf), Some((0, len)), "len {len}");
        }
        // A padded small value.
        let buf = [0x85, 0x80, 0x80, 0x80, 0x00];
        assert_eq!(swar(&buf), oracle(&buf));
        assert_eq!(swar(&buf), Some((5, 5)));
    }

    #[test]
    fn rejects_what_the_oracle_rejects() {
        // Eleven continuation bytes: over-long.
        assert_eq!(swar(&[0x80u8; 11]), None);
        // Tenth byte carrying more than the one remaining bit.
        let mut buf = vec![0xffu8; 9];
        buf.push(0x02);
        assert_eq!(oracle(&buf), None);
        assert_eq!(swar(&buf), None);
        let mut pos = 0;
        assert!(skip_varint(&buf, &mut pos).is_err());
        // Tenth byte with its continuation bit set.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x81);
        assert_eq!(oracle(&buf), None);
        assert_eq!(swar(&buf), None);
    }

    #[test]
    fn truncation_fails_at_every_byte_offset() {
        for v in [0u64, 300, 1 << 30, 1 << 45, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            for len in 0..buf.len() {
                let prefix = &buf[..len];
                assert_eq!(oracle(prefix), None, "value {v} prefix {len}");
                let mut pos = 0;
                assert!(
                    matches!(take_varint(prefix, &mut pos), Err(VarintErr::OutOfBytes)),
                    "value {v} prefix {len}"
                );
                let mut pos = 0;
                assert!(
                    skip_varint(prefix, &mut pos).is_err(),
                    "value {v} prefix {len}"
                );
            }
        }
    }

    #[test]
    fn decodes_mid_buffer_with_trailing_bytes() {
        // The SWAR window reads past the varint's end; surrounding
        // bytes must not leak into the value or the position.
        let mut buf = vec![0xaa; 3];
        write_varint(&mut buf, 9_999_999);
        let value_end = buf.len();
        buf.extend_from_slice(&[0xff; 16]);
        let mut pos = 3;
        assert_eq!(take_varint(&buf, &mut pos).ok(), Some(9_999_999));
        assert_eq!(pos, value_end);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// The single governing property: on ANY byte slice, the SWAR
        /// decoder and the streaming oracle agree on value, consumed
        /// length, and acceptance.
        fn agrees(buf: &[u8]) {
            assert_eq!(swar(buf), oracle(buf), "bytes {buf:02x?}");
        }

        proptest! {
            #[test]
            fn arbitrary_bytes_agree(buf in proptest::collection::vec(any::<u8>(), 0..24)) {
                agrees(&buf);
            }

            /// Whenever the fused delta+key fast path accepts, it must
            /// produce exactly what the two-step skip+take path does.
            #[test]
            fn fused_key_agrees_with_the_two_step_path(
                buf in proptest::collection::vec(any::<u8>(), 0..24),
            ) {
                if let Some((key, advance)) = fused_key(&buf, 0) {
                    let mut pos = 0;
                    skip_varint(&buf, &mut pos).expect("fused accepted the delta");
                    let slow = take_varint(&buf, &mut pos).expect("fused accepted the key");
                    prop_assert_eq!(key, slow);
                    prop_assert_eq!(advance, pos);
                }
            }

            /// Exercises the accept paths the uniform-random case
            /// rarely hits: a real value, zero-padded to a chosen
            /// width, possibly truncated, surrounded by junk.
            #[test]
            fn padded_and_truncated_values_agree(
                value in any::<u64>(),
                pad_to in 0usize..MAX_VARINT_LEN + 2,
                cut in 0usize..MAX_VARINT_LEN + 2,
                junk in any::<u8>(),
            ) {
                let mut buf = Vec::new();
                write_varint(&mut buf, value);
                // Zero-pad by replacing the final byte with a
                // continuation of itself; may produce an over-long
                // (invalid) encoding — the property must still hold.
                while buf.len() < pad_to {
                    let last = buf.len() - 1;
                    buf[last] |= 0x80;
                    buf.push(0x00);
                }
                buf.truncate(cut.min(buf.len()));
                agrees(&buf);
                buf.push(junk);
                agrees(&buf);
            }
        }
    }
}
