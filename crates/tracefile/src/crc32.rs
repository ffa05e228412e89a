//! CRC-32 (IEEE 802.3 polynomial), the per-section checksum of `.lpt`.
//!
//! The update loop is slice-by-16: sixteen interleaved lookup tables
//! let one iteration fold sixteen message bytes into the state with
//! sixteen independent loads, so bulk verification of a mapped section
//! is limited by load throughput, not by the bit-serial carry chain.
//! Only the first four lookups depend on the running state; the other
//! twelve are pure data loads the core can issue ahead, which is what
//! lifts this loop over slice-by-8 on wide machines. The
//! byte-at-a-time table is kept for the sub-16-byte tail, and the
//! incremental API takes arbitrary fragments — the stream writer feeds
//! it one flushed buffer at a time.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// Byte-at-a-time lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slice tables: `TABLES[k][b]` advances byte `b` through `k`
/// additional zero bytes, so sixteen lookups combine into one 16-byte
/// step. `TABLES[0]` is the plain byte-at-a-time table.
const TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    tables[0] = TABLE;
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ TABLE[(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Incremental CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut state = self.state;
        let mut chunks = bytes.chunks_exact(16);
        for chunk in &mut chunks {
            // Fold the first four bytes into the running state, then
            // advance all sixteen through their respective zero-padding
            // tables; the XOR of the sixteen lookups is the state after
            // the whole 16-byte block.
            let lo = state ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            state = TABLES[15][(lo & 0xff) as usize]
                ^ TABLES[14][((lo >> 8) & 0xff) as usize]
                ^ TABLES[13][((lo >> 16) & 0xff) as usize]
                ^ TABLES[12][(lo >> 24) as usize]
                ^ TABLES[11][chunk[4] as usize]
                ^ TABLES[10][chunk[5] as usize]
                ^ TABLES[9][chunk[6] as usize]
                ^ TABLES[8][chunk[7] as usize]
                ^ TABLES[7][chunk[8] as usize]
                ^ TABLES[6][chunk[9] as usize]
                ^ TABLES[5][chunk[10] as usize]
                ^ TABLES[4][chunk[11] as usize]
                ^ TABLES[3][chunk[12] as usize]
                ^ TABLES[2][chunk[13] as usize]
                ^ TABLES[1][chunk[14] as usize]
                ^ TABLES[0][chunk[15] as usize];
        }
        for &b in chunks.remainder() {
            state = (state >> 8) ^ TABLE[((state ^ u32::from(b)) & 0xff) as usize];
        }
        self.state = state;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

/// One-shot CRC-32 of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"incremental checksumming";
        let mut c = Crc32::new();
        for chunk in data.chunks(3) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn slice_by_16_matches_byte_at_a_time_at_every_offset() {
        // A reference that only ever uses the scalar table.
        fn scalar(bytes: &[u8]) -> u32 {
            let mut state = 0xffff_ffffu32;
            for &b in bytes {
                state = (state >> 8) ^ TABLE[((state ^ u32::from(b)) & 0xff) as usize];
            }
            state ^ 0xffff_ffff
        }
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for start in 0..16 {
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 500] {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), scalar(slice), "start {start} len {len}");
            }
        }
        // Split points that land mid-block must not change the result.
        let mut c = Crc32::new();
        c.update(&data[..13]);
        c.update(&data[13..]);
        assert_eq!(c.finish(), scalar(&data));
    }

    #[test]
    fn detects_single_byte_flips() {
        let data: Vec<u8> = (0u8..=255).collect();
        let base = crc32(&data);
        for i in 0..data.len() {
            let mut copy = data.clone();
            copy[i] ^= 0x40;
            assert_ne!(crc32(&copy), base, "flip at {i} undetected");
        }
    }
}
