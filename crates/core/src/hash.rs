//! The hasher of the simulator's integer-keyed maps.
//!
//! Their keys are addresses, record indices and site keys that the
//! simulator derives from a trace: a trace crafted to collide them could
//! slow its own replay but change no output, so SipHash's cost per
//! operation buys nothing. One multiply mixes the key; `finish` rotates
//! the product's high bits down to where the table takes its bucket
//! index, because the low bits of a product see only the key's low bits
//! — all zero for aligned addresses. The constant is rustc-hash 2's; its
//! rotation by 26 leaves 16 B-spaced keys on under half of 2¹⁶ buckets,
//! 24 spreads every spacing the test below tries. No output depends on a
//! map's iteration order.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by an integer the simulator produced.
pub type IntMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IntHasher>>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiplicative hasher for integer keys.
#[derive(Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = self.0.wrapping_add(x).wrapping_mul(K);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    /// 2¹⁶ keys at 16 B (first-fit blocks), 4 KiB (pages), 64 KiB and
    /// 2³² (site keys of one size, template by template) spacing spread
    /// over at least half of the 2¹⁶ values of the hash's low 16 bits.
    /// Without the rotation, the product of a 4 KiB-aligned key has its
    /// low 12 bits zero.
    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        let build = BuildHasherDefault::<IntHasher>::default();
        for spacing in [16u64, 4096, 65536, 1 << 32] {
            let low: HashSet<u64> = (0..1u64 << 16)
                .map(|k| build.hash_one(k * spacing) & 0xffff)
                .collect();
            assert!(
                low.len() >= 1 << 15,
                "spacing {spacing}: {} values",
                low.len()
            );
        }
    }
}
