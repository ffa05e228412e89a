//! Size classes for the small-allocation fast path.
//!
//! Sixteen classes from 8 B to 2 KiB: the powers of two plus the
//! `3·2^k` midpoints, so internal fragmentation stays under 34% while
//! the class count keeps per-thread magazines small. Every class size
//! is a multiple of 8, so any layout with `align <= 8` fits any class;
//! larger (power-of-two) alignments are honoured by rounding the
//! request up to the alignment before picking a class (see
//! [`class_for`]).

/// Number of size classes.
pub(crate) const NUM_CLASSES: usize = 16;

/// Largest size (bytes) served by the size-class path.
pub const SMALL_MAX: usize = 2048;

/// Block size of each class, ascending.
pub(crate) const CLASS_SIZES: [usize; NUM_CLASSES] = [
    8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048,
];

/// `class_of_rounded[(size + 7) / 8]` for `size` in `0..=SMALL_MAX`.
const LOOKUP_LEN: usize = SMALL_MAX / 8 + 1;

#[expect(
    clippy::indexing_slicing,
    reason = "Evaluated at compile time for the LOOKUP static: an out-of-range index fails the \
              build, it cannot panic in a running allocator."
)]
const fn build_lookup() -> [u8; LOOKUP_LEN] {
    let mut table = [0u8; LOOKUP_LEN];
    let mut i = 0;
    while i < LOOKUP_LEN {
        let size = i * 8;
        let mut class = 0;
        while CLASS_SIZES[class] < size {
            class += 1;
        }
        table[i] = class as u8;
        i += 1;
    }
    table
}

static LOOKUP: [u8; LOOKUP_LEN] = build_lookup();

/// The smallest class whose block size is `>= size`, or `None` when
/// `size > SMALL_MAX`. Zero-sized requests map to class 0.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "`size <= SMALL_MAX` is checked above, so `size.div_ceil(8) <= SMALL_MAX / 8 < \
              LOOKUP_LEN`."
)]
pub(crate) fn class_for_size(size: usize) -> Option<usize> {
    if size > SMALL_MAX {
        return None;
    }
    Some(LOOKUP[size.div_ceil(8)] as usize)
}

/// The class serving `(size, align)`, or `None` when the request must
/// go to the system allocator.
///
/// Blocks of class `c` are carved at multiples of `CLASS_SIZES[c]`
/// from a 64 KiB-aligned segment base, so a block is aligned to
/// `align` exactly when `align` divides its class size. For
/// `align <= 8` every class qualifies. For larger (always power-of-
/// two) alignments, rounding the size up to a multiple of `align`
/// first guarantees the chosen class is itself a multiple of `align`:
/// the candidate classes are `2^k` and `3·2^k`, and the smallest class
/// at or above a multiple of `align` is never the lone misaligned
/// `3·2^(k-1)` midpoint (that midpoint only beats a power of two for
/// sizes that are not multiples of `align`).
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "`CLASS_SIZES[class]` in a debug assertion, with `class` a class_for_size result: a \
              LOOKUP entry, below NUM_CLASSES."
)]
pub(crate) fn class_for(size: usize, align: usize) -> Option<usize> {
    if align <= 8 {
        return class_for_size(size);
    }
    if align > SMALL_MAX {
        return None;
    }
    // align is a power of two by `Layout`'s contract.
    let rounded = size.checked_next_multiple_of(align)?;
    let class = class_for_size(rounded.max(align))?;
    debug_assert_eq!(CLASS_SIZES[class] % align, 0);
    Some(class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_every_small_size() {
        for size in 0..=SMALL_MAX {
            let class = class_for_size(size).expect("small size has a class");
            assert!(CLASS_SIZES[class] >= size, "class too small for {size}");
            if class > 0 {
                assert!(
                    CLASS_SIZES[class - 1] < size,
                    "class not minimal for {size}"
                );
            }
        }
        assert_eq!(class_for_size(SMALL_MAX + 1), None);
    }

    #[test]
    fn classes_honour_alignment() {
        let mut align = 1;
        while align <= 4096 {
            for size in [1, 8, 17, 24, 40, 100, 300, 600, 1200, 1600, 2048] {
                match class_for(size, align) {
                    Some(class) => {
                        assert!(align <= SMALL_MAX);
                        assert!(CLASS_SIZES[class] >= size);
                        assert_eq!(
                            CLASS_SIZES[class] % align,
                            0,
                            "class {} misaligned for align {align}",
                            CLASS_SIZES[class]
                        );
                    }
                    None => assert!(
                        align > SMALL_MAX || size.next_multiple_of(align) > SMALL_MAX,
                        "size {size} align {align} should be servable"
                    ),
                }
            }
            align *= 2;
        }
    }

    #[test]
    fn worst_case_internal_fragmentation_is_bounded() {
        for size in 9..=SMALL_MAX {
            let class = class_for_size(size).expect("small");
            let waste = CLASS_SIZES[class] - size;
            // Tiny sizes are bounded absolutely by the 8-byte class
            // granularity; everything else relatively by the ~1.5x
            // class spacing.
            assert!(
                waste < 8 || (waste as f64) / (CLASS_SIZES[class] as f64) < 0.34,
                "size {size} wastes {waste} in class {}",
                CLASS_SIZES[class]
            );
        }
    }
}
