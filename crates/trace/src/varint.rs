//! LEB128 varints, the scalar encoding of `.lpt` and of recorded event
//! keys: seven payload bits per byte, the high bit a continuation.
//!
//! Every varint a reader decodes goes through [`take_varint`], a SWAR
//! decoder: one unaligned 8-byte load covers every encoding the events
//! produce in practice, the terminator is one `trailing_zeros` on the
//! inverted continuation bits, and three shift/mask steps compact the
//! payload. Nine- and ten-byte encodings and buffer tails fall back to a
//! scalar loop that validates byte for byte as the test oracle
//! `read_varint` does: at most [`MAX_VARINT_LEN`] bytes, a tenth byte
//! carrying only the one remaining bit, and zero padding accepted.

use std::fmt;

/// Longest legal encoding of a `u64` (ceil(64 / 7) bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// The continuation bit of every byte lane.
const CONT: u64 = 0x8080_8080_8080_8080;

/// How decoding a varint from a buffer can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintErr {
    /// The buffer ran out before the terminating byte.
    OutOfBytes,
    /// Over-long or overflowing encoding.
    Invalid,
}

impl fmt::Display for VarintErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VarintErr::OutOfBytes => "value runs past the section payload",
            VarintErr::Invalid => "invalid varint",
        })
    }
}

/// Appends the LEB128 encoding of `value` to `out`. `#[inline]`, so the
/// session's and the `.lpt` writer's per-event calls inline it.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
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
/// `read_varint`. Used for buffer tails and 9–10-byte
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
/// `*pos` past it. Accepts exactly the encodings `read_varint` accepts
/// (including non-canonical zero padding) and rejects exactly the ones
/// it rejects.
///
/// `#[inline(always)]`: the event loop runs it once per event, and with
/// a plain `#[inline]` the mapped event decode of a 10⁷-event trace ran
/// ≈ 20 % slower.
#[inline(always)]
pub fn take_varint(buf: &[u8], pos: &mut usize) -> Result<u64, VarintErr> {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes one LEB128 integer via a byte source — the byte-at-a-time
    /// oracle the property tests hold [`take_varint`] to.
    ///
    /// Returns `None` when the encoding is over-long or overflows 64 bits;
    /// byte-source errors propagate as `Err`.
    fn read_varint<E>(mut next_byte: impl FnMut() -> Result<u8, E>) -> Result<Option<u64>, E> {
        let mut value: u64 = 0;
        for i in 0..MAX_VARINT_LEN {
            let byte = next_byte()?;
            let payload = u64::from(byte & 0x7f);
            // The tenth byte may only contribute the single remaining bit.
            if i == MAX_VARINT_LEN - 1 && payload > 1 {
                return Ok(None);
            }
            value |= payload << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(Some(value));
            }
        }
        Ok(None)
    }

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

    fn roundtrip(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        assert!(buf.len() <= MAX_VARINT_LEN);
        let mut it = buf.iter().copied();
        read_varint(|| it.next().ok_or(()))
            .unwrap()
            .expect("valid encoding")
    }

    #[test]
    fn roundtrips_representative_values() {
        for v in [
            0,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn single_byte_for_small_values() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn rejects_overlong_encodings() {
        // Eleven continuation bytes can never be a valid u64.
        let bytes = [0x80u8; 11];
        let mut it = bytes.iter().copied();
        assert_eq!(read_varint(|| it.next().ok_or(())).unwrap(), None);
        // Ten bytes whose last byte has too many payload bits overflow.
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x02);
        let mut it = overflow.iter().copied();
        assert_eq!(read_varint(|| it.next().ok_or(())).unwrap(), None);
    }

    #[test]
    fn propagates_source_errors() {
        let mut it = [0x80u8].iter().copied();
        assert!(read_varint(|| it.next().ok_or("eof")).is_err());
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
