//! LEB128 variable-length integers, the scalar encoding of `.lpt`.
//!
//! Small values dominate trace data (sizes, deltas between adjacent
//! clocks and sequence numbers), so unsigned LEB128 — seven payload
//! bits per byte, high bit as continuation — keeps most fields to a
//! single byte.

/// Longest legal encoding of a `u64` (ceil(64 / 7) bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Appends the LEB128 encoding of `value` to `out`.
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

/// Decodes one LEB128 integer via a byte source — the byte-at-a-time
/// oracle the property tests hold `batch::take_varint` to.
///
/// Returns `None` when the encoding is over-long or overflows 64 bits;
/// byte-source errors propagate as `Err`.
#[cfg(test)]
pub fn read_varint<E>(mut next_byte: impl FnMut() -> Result<u8, E>) -> Result<Option<u64>, E> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
