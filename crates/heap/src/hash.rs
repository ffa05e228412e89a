//! The hasher of the heaps' address maps.
//!
//! Their keys are simulated addresses and record indices that the
//! replay itself produces, so there is no adversary to key a hash
//! against, and SipHash's cost per operation buys nothing. One multiply
//! mixes the key; `finish` rotates the product's well-mixed high bits
//! down to where the table takes its bucket index, because the low bits
//! of a product see only the key's low bits — all zero for page-aligned
//! chunks. The constant is rustc-hash 2's; its rotation by 26 leaves
//! 16 B-spaced keys on under half of 2¹⁶ buckets, 24 spreads every
//! spacing the test below tries. No replay output depends on a map's
//! iteration order.

use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by a simulated address or a record index.
pub(crate) type AddrMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<AddrHasher>>;

const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiplicative hasher for integer keys.
#[derive(Default)]
pub(crate) struct AddrHasher(u64);

impl Hasher for AddrHasher {
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

    /// 2¹⁶ keys at 16 B (first-fit blocks), 4 KiB (BSD pages) and
    /// 64 KiB spacing spread over at least half of the 2¹⁶ values of
    /// the hash's low 16 bits. Without the rotation, the product of a
    /// 4 KiB-aligned key has its low 12 bits zero.
    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        let build = BuildHasherDefault::<AddrHasher>::default();
        for spacing in [16u64, 4096, 65536] {
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
