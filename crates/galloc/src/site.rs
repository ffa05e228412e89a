//! Return-address-based allocation-site fingerprinting.
//!
//! A real `malloc` identifies allocation sites by the caller's return
//! address. Rust's global-allocator shim sits between user code and
//! [`crate::LifepredGlobal`], so a single raw return address is taken
//! from the frame that called into the allocator (usually the inlined
//! `__rust_alloc` shim inside user code at `opt-level >= 2`) and mixed
//! with the size class. When the shim is *not* inlined the raw address
//! degenerates towards one value per binary and the fingerprint
//! gracefully degrades to the paper's size-only predictor — see
//! DESIGN.md §12.

/// Captures the caller's return address.
///
/// A naked function is exactly one instruction deep, so the value in
/// the return slot *is* the address of the call site in the caller —
/// the allocator's own frame never obscures it.
#[cfg(all(not(miri), target_arch = "x86_64"))]
#[unsafe(naked)]
extern "C" fn return_address() -> usize {
    // On entry to a naked x86_64 function the return address is the
    // only thing on the stack; copy it into the return register.
    core::arch::naked_asm!("mov rax, [rsp]", "ret")
}

/// Captures the caller's return address.
#[cfg(all(not(miri), target_arch = "aarch64"))]
#[unsafe(naked)]
extern "C" fn return_address() -> usize {
    // AArch64 keeps the return address in the link register.
    core::arch::naked_asm!("mov x0, lr", "ret")
}

/// Fallback for architectures without a capture sequence and for miri
/// (which cannot execute inline assembly): fingerprints degrade to
/// size-only prediction.
#[cfg(not(all(not(miri), any(target_arch = "x86_64", target_arch = "aarch64"))))]
fn return_address() -> usize {
    0
}

/// Fibonacci-hashing constant (2^64 / phi).
const PHI: u64 = 0x9e77_9b97_f4a7_c15f;

/// Fingerprints the current allocation site: the captured return
/// address mixed with the size class.
///
/// The mix is a bijective finalizer (xor-shift multiply), so distinct
/// (return address, class) pairs keep distinct fingerprints.
#[inline(always)]
pub fn fingerprint(class: usize) -> u64 {
    let ra = return_address() as u64;
    let mut x = ra ^ ((class as u64) << 56) ^ PHI;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 29;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_distinguishes_classes() {
        // Same call site, different classes must differ.
        let fps: Vec<u64> = (0..crate::classes::NUM_CLASSES).map(fingerprint).collect();
        for (i, a) in fps.iter().enumerate() {
            for b in &fps[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "return_address is stubbed to 0 under miri")]
    fn return_address_is_nonzero_on_supported_targets() {
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        assert_ne!(return_address(), 0);
    }
}
