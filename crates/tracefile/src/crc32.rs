//! CRC-32 (IEEE 802.3 polynomial), the per-section checksum of `.lpt`.
//!
//! [`Crc32::update`] picks its loop at run time. On x86_64 CPUs with
//! PCLMULQDQ, an input of at least [`CLMUL_MIN`] bytes goes to
//! [`clmul::fold`], the carry-less multiplication method of Intel's
//! "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ": four
//! 128-bit accumulators each fold 16 bytes per step, then fold into
//! one, and a Barrett reduction brings that to the 32-bit state. It
//! runs at several times the speed of a table loop, which is what
//! makes checking every section at open cheap.
//!
//! The table loop, slice-by-16, stays for two jobs: the fewer than 16
//! bytes the fold leaves over, and all of an input on other targets,
//! on CPUs without PCLMULQDQ, and below the threshold, where setting up
//! the fold would cost more than it saves. Sixteen interleaved lookup
//! tables let one iteration fold sixteen message bytes into the state
//! with sixteen independent loads; only the first four depend on the
//! running state. Both paths compute the same function, so a stored
//! CRC never depends on the machine that wrote or reads it. The
//! incremental API takes arbitrary fragments — the stream writer feeds
//! it one flushed buffer at a time.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xedb8_8320;

/// Inputs shorter than this skip the carry-less fold: it needs four
/// blocks to fill its accumulators, and below two rounds of them its
/// set-up and final reduction outweigh the table loop.
const CLMUL_MIN: usize = 128;

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
        let folded = if bytes.len() >= CLMUL_MIN {
            clmul_fold(self.state, bytes)
        } else {
            None
        };
        let (state, rest) = folded.unwrap_or((self.state, bytes));
        self.state = slice_by_16(state, rest);
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

/// Advances `state` over `bytes` with the table loop.
fn slice_by_16(mut state: u32, bytes: &[u8]) -> u32 {
    let (blocks, tail) = bytes.as_chunks::<16>();
    for block in blocks {
        // Fold the first four bytes into the running state, then
        // advance all sixteen through their respective zero-padding
        // tables; the XOR of the sixteen lookups is the state after
        // the whole 16-byte block.
        let lo = state ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        state = TABLES[15][(lo & 0xff) as usize]
            ^ TABLES[14][((lo >> 8) & 0xff) as usize]
            ^ TABLES[13][((lo >> 16) & 0xff) as usize]
            ^ TABLES[12][(lo >> 24) as usize]
            ^ TABLES[11][block[4] as usize]
            ^ TABLES[10][block[5] as usize]
            ^ TABLES[9][block[6] as usize]
            ^ TABLES[8][block[7] as usize]
            ^ TABLES[7][block[8] as usize]
            ^ TABLES[6][block[9] as usize]
            ^ TABLES[5][block[10] as usize]
            ^ TABLES[4][block[11] as usize]
            ^ TABLES[3][block[12] as usize]
            ^ TABLES[2][block[13] as usize]
            ^ TABLES[1][block[14] as usize]
            ^ TABLES[0][block[15] as usize];
    }
    for &b in tail {
        state = (state >> 8) ^ TABLE[((state ^ u32::from(b)) & 0xff) as usize];
    }
    state
}

/// Runs [`clmul::fold`] when this CPU can: the state after the whole
/// 16-byte blocks of `bytes`, and the bytes left over. `None` on a CPU
/// without PCLMULQDQ.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn clmul_fold(state: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
    if !std::arch::is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    // SAFETY: `fold` is compiled for PCLMULQDQ (on top of the SSE2
    // every x86_64 CPU has), and the CPU was just found to support it.
    Some(unsafe { clmul::fold(state, bytes) })
}

/// No carry-less fold off x86_64: the table loop does all the work.
#[cfg(not(target_arch = "x86_64"))]
fn clmul_fold(_state: u32, _bytes: &[u8]) -> Option<(u32, &[u8])> {
    None
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use super::POLY;
    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_set_epi64x, _mm_srli_si128,
        _mm_xor_si128,
    };

    /// `x^n mod P` in reflected form, shifted one bit left: the fold's
    /// multiplier that moves a 64-bit lane `n + 32` bits down the message.
    /// In a lane, the 32-bit remainder shifted one bit stands for itself
    /// times `x^31`, and a carry-less product of two reflected lanes comes
    /// out one more degree up.
    const fn fold_key(n: u32) -> u64 {
        let mut r = 0x8000_0000u32; // x^0
        let mut i = 0;
        while i < n {
            r = if r & 1 == 1 { (r >> 1) ^ POLY } else { r >> 1 };
            i += 1;
        }
        (r as u64) << 1
    }

    /// `P` with its `x^32` term, reflected over 33 bits.
    const POLY_33: u64 = ((POLY as u64) << 1) | 1;

    /// Barrett's `μ = floor(x^64 / P)`, reflected over 33 bits.
    const BARRETT_MU: u64 = {
        // Long division in the natural bit order, where bit i is x^i.
        let p = (1u128 << 32) | POLY.reverse_bits() as u128;
        let (mut rem, mut quot) = (1u128 << 64, 0u64);
        let mut shift = 32;
        loop {
            if rem & (1 << (shift + 32)) != 0 {
                rem ^= p << shift;
                quot |= 1 << shift;
            }
            if shift == 0 {
                break;
            }
            shift -= 1;
        }
        quot.reverse_bits() >> 31
    };

    /// Multipliers (low lane, high lane) for a fold across four blocks
    /// (512 bits) and across one (128 bits). The low lane comes 64 bits
    /// earlier in the message, so it travels 64 bits further.
    const BY_FOUR: (u64, u64) = (fold_key(4 * 128 + 32), fold_key(4 * 128 - 32));
    const BY_ONE: (u64, u64) = (fold_key(128 + 32), fold_key(128 - 32));
    /// Multiplier of the final reduction's 96-to-64-bit step.
    const BY_HALF: u64 = fold_key(64);

    /// The state after all of `bytes`' whole 16-byte blocks, and the
    /// fewer than 16 bytes left over. An input shorter than four blocks
    /// is handed back whole, with `state` unchanged.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = bytes.as_chunks::<16>();
        let Some((first, rest)) = blocks.split_first_chunk::<4>() else {
            return (state, bytes);
        };
        // The state is XORed into the message's first four bytes, as
        // the table loop folds it into each block's first word.
        let mut acc = first.each_ref().map(|block| load(block));
        acc[0] = _mm_xor_si128(acc[0], _mm_set_epi64x(0, i64::from(state)));
        let (quads, singles) = rest.as_chunks::<4>();
        for quad in quads {
            for (a, block) in acc.iter_mut().zip(quad) {
                *a = _mm_xor_si128(fold_lanes(*a, BY_FOUR), load(block));
            }
        }
        let mut x = acc[0];
        for a in &acc[1..] {
            x = _mm_xor_si128(fold_lanes(x, BY_ONE), *a);
        }
        for block in singles {
            x = _mm_xor_si128(fold_lanes(x, BY_ONE), load(block));
        }
        (reduce(x), tail)
    }

    /// A 16-byte block as one 128-bit lane pair, low lane first.
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// `x`'s low lane times `keys.0` XOR its high lane times `keys.1`:
    /// `x` moved down the message, still congruent modulo `P`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold_lanes(x: __m128i, (lo, hi): (u64, u64)) -> __m128i {
        let keys = _mm_set_epi64x(hi as i64, lo as i64);
        _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(x, keys),
            _mm_clmulepi64_si128::<0x11>(x, keys),
        )
    }

    /// The 32-bit state congruent to the 128-bit remainder `x`.
    #[target_feature(enable = "pclmulqdq")]
    fn reduce(x: __m128i) -> u32 {
        const LOW_32: i64 = 0xffff_ffff;
        let low_32 = |v: __m128i| _mm_set_epi64x(0, _mm_cvtsi128_si64(v) & LOW_32);
        // 128 → 96 bits: the low lane times `fold_key(96)`, onto the
        // high lane.
        let keys = _mm_set_epi64x(0, BY_ONE.1 as i64);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(x, keys),
            _mm_srli_si128::<8>(x),
        );
        // 96 → 64 bits: the low word times `fold_key(64)`, onto the
        // upper three.
        let keys = _mm_set_epi64x(0, BY_HALF as i64);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(low_32(x), keys),
            _mm_srli_si128::<4>(x),
        );
        // Barrett: T1 = (x mod x^32)·μ, T2 = (T1 mod x^32)·P; the state
        // is x XOR T2 divided by x^32, which in reflected order is the
        // upper half of the low lane.
        let keys = _mm_set_epi64x(BARRETT_MU as i64, POLY_33 as i64);
        let t1 = _mm_clmulepi64_si128::<0x10>(low_32(x), keys);
        let t2 = _mm_clmulepi64_si128::<0x00>(low_32(t1), keys);
        (_mm_cvtsi128_si64(_mm_xor_si128(x, t2)) >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time reference every faster path must equal.
    fn oracle(bytes: &[u8]) -> u32 {
        let mut state = 0xffff_ffffu32;
        for &b in bytes {
            state = (state >> 8) ^ TABLE[((state ^ u32::from(b)) & 0xff) as usize];
        }
        state ^ 0xffff_ffff
    }

    fn pseudo_random(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect()
    }

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
    fn every_length_and_offset_matches_byte_at_a_time() {
        // Lengths on both sides of the fold's threshold, through its
        // 64-byte loop, its single-block loop and every tail length;
        // the table loop is checked over the same inputs on its own.
        let data = pseudo_random(1100 + 16);
        for start in 0..16 {
            for len in 0..=1100 {
                let slice = &data[start..start + len];
                let expected = oracle(slice);
                assert_eq!(crc32(slice), expected, "start {start} len {len}");
                assert_eq!(
                    slice_by_16(0xffff_ffff, slice) ^ 0xffff_ffff,
                    expected,
                    "slice-by-16, start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn a_split_at_every_point_matches_oneshot() {
        let data = pseudo_random(400);
        let expected = oracle(&data);
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), expected, "split at {split}");
        }
    }

    proptest! {
        #[test]
        fn random_fragments_match_byte_at_a_time(
            data in proptest::collection::vec(any::<u8>(), 0..3000),
            cuts in proptest::collection::vec(0usize..3000, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                c.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(c.finish(), oracle(&data));
        }
    }

    #[test]
    fn the_carry_less_fold_runs_and_matches_the_table_loop() {
        let data = pseudo_random(4096 + 15);
        let Some((state, tail)) = clmul_fold(0x1234_5678, &data) else {
            eprintln!("skipped: no PCLMULQDQ on this CPU or target, so the fold never runs here");
            return;
        };
        assert_eq!(tail.len(), 15, "the fold consumes every whole block");
        assert_eq!(state, slice_by_16(0x1234_5678, &data[..4096]));
        // Fewer than four blocks come back untouched.
        assert_eq!(clmul_fold(7, &data[..63]), Some((7, &data[..63])));
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
