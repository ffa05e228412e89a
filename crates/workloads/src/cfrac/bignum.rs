//! Traced arbitrary-precision unsigned integers.
//!
//! Every number owns a traced limb vector, so each arithmetic result
//! is one heap allocation whose size, call-chain and lifetime are
//! recorded — exactly how the original CFRAC's bignum package drove
//! `malloc`. Limbs are base-2³² little-endian, normalized (no leading
//! zero limbs).

use lifepred_trace::{TraceSession, Traced};
use std::cmp::Ordering;

/// A traced unsigned big integer.
#[derive(Debug)]
pub struct Big {
    limbs: Traced<Vec<u32>>,
}

/// The `xmalloc`-style allocation layer: every limb vector passes
/// through here, adding one deliberate chain layer (the paper's
/// length-1 sub-chains are weak for exactly this reason).
fn big_alloc(session: &TraceSession, mut limbs: Vec<u32>) -> Big {
    let _g = session.enter("big_alloc");
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
    let size = (limbs.len() as u32 * 4).max(4);
    let traced = session.traced(limbs, size);
    Traced::touch(&traced, traced.len() as u64 + 1);
    Big { limbs: traced }
}

impl Big {
    /// Builds a number from a `u128`.
    pub fn from_u128(session: &TraceSession, mut v: u128) -> Big {
        let _g = session.enter("big_from_int");
        let mut limbs = Vec::new();
        while v > 0 {
            limbs.push((v & 0xffff_ffff) as u32);
            v >>= 32;
        }
        big_alloc(session, limbs)
    }

    /// Returns the value as `u128` if it fits.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 4 {
            return None;
        }
        let mut v = 0u128;
        for &l in self.limbs.iter().rev() {
            v = (v << 32) | u128::from(l);
        }
        Some(v)
    }

    /// Whether the value is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Deep copy (a fresh traced allocation, like the C original).
    pub(crate) fn clone_in(&self, session: &TraceSession) -> Big {
        let _g = session.enter("big_copy");
        big_alloc(session, self.limbs.to_vec())
    }

    /// Three-way comparison.
    pub(crate) fn cmp_big(&self, other: &Big) -> Ordering {
        let (a, b) = (&*self.limbs, &*other.limbs);
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// `self + other`.
    pub fn add(&self, session: &TraceSession, other: &Big) -> Big {
        let _g = session.enter("big_add");
        let (a, b) = (&*self.limbs, &*other.limbs);
        let mut out = Vec::with_capacity(a.len().max(b.len()) + 1);
        let mut carry = 0u64;
        for i in 0..a.len().max(b.len()) {
            let x = u64::from(a.get(i).copied().unwrap_or(0))
                + u64::from(b.get(i).copied().unwrap_or(0))
                + carry;
            out.push((x & 0xffff_ffff) as u32);
            carry = x >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        big_alloc(session, out)
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self`.
    pub fn sub(&self, session: &TraceSession, other: &Big) -> Big {
        let _g = session.enter("big_sub");
        assert_ne!(
            self.cmp_big(other),
            Ordering::Less,
            "big_sub would underflow"
        );
        let (a, b) = (&*self.limbs, &*other.limbs);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0i64;
        for (i, &ai) in a.iter().enumerate() {
            let mut x = i64::from(ai) - i64::from(b.get(i).copied().unwrap_or(0)) - borrow;
            if x < 0 {
                x += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(x as u32);
        }
        big_alloc(session, out)
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, session: &TraceSession, other: &Big) -> Big {
        let _g = session.enter("big_mul");
        let (a, b) = (&*self.limbs, &*other.limbs);
        if a.is_empty() || b.is_empty() {
            return big_alloc(session, Vec::new());
        }
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &bj) in b.iter().enumerate() {
                let x = u64::from(ai) * u64::from(bj) + u64::from(out[i + j]) + carry;
                out[i + j] = (x & 0xffff_ffff) as u32;
                carry = x >> 32;
            }
            let mut k = i + b.len();
            while carry > 0 {
                let x = u64::from(out[k]) + carry;
                out[k] = (x & 0xffff_ffff) as u32;
                carry = x >> 32;
                k += 1;
            }
        }
        big_alloc(session, out)
    }

    /// `self * m` for a small factor.
    pub(crate) fn mul_u32(&self, session: &TraceSession, m: u32) -> Big {
        let _g = session.enter("big_mul_small");
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u64;
        for &l in self.limbs.iter() {
            let x = u64::from(l) * u64::from(m) + carry;
            out.push((x & 0xffff_ffff) as u32);
            carry = x >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        big_alloc(session, out)
    }

    /// `(self / other, self % other)` — Knuth's Algorithm D, with a
    /// fast path for single-limb divisors.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, session: &TraceSession, other: &Big) -> (Big, Big) {
        let _g = session.enter("big_div");
        assert!(!other.is_zero(), "big_div by zero");
        match self.cmp_big(other) {
            Ordering::Less => {
                return (big_alloc(session, Vec::new()), self.clone_in(session));
            }
            Ordering::Equal => {
                return (big_alloc(session, vec![1]), big_alloc(session, Vec::new()));
            }
            Ordering::Greater => {}
        }
        if other.limbs.len() == 1 {
            let d = u64::from(other.limbs[0]);
            let mut q = vec![0u32; self.limbs.len()];
            let mut rem = 0u64;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 32) | u64::from(self.limbs[i]);
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            return (big_alloc(session, q), big_alloc(session, vec![rem as u32]));
        }
        self.div_rem_knuth(session, other)
    }

    /// Multi-limb division (Knuth TAOCP vol. 2, Algorithm 4.3.1 D).
    fn div_rem_knuth(&self, session: &TraceSession, other: &Big) -> (Big, Big) {
        // Normalize so the divisor's top limb has its high bit set.
        let shift = other.limbs.last().expect("nonzero divisor").leading_zeros();
        let u = shl_limbs(&self.limbs, shift);
        let v = shl_limbs(&other.limbs, shift);
        let n = v.len();
        let m = u.len() - n;
        let mut u = {
            let mut t = u;
            t.push(0);
            t
        };
        let mut q = vec![0u32; m + 1];
        let vtop = u64::from(v[n - 1]);
        let vnext = u64::from(v[n - 2]);
        for j in (0..=m).rev() {
            let top = (u64::from(u[j + n]) << 32) | u64::from(u[j + n - 1]);
            let mut qhat = top / vtop;
            let mut rhat = top % vtop;
            while qhat >= 1 << 32 || qhat * vnext > ((rhat << 32) | u64::from(u[j + n - 2])) {
                qhat -= 1;
                rhat += vtop;
                if rhat >= 1 << 32 {
                    break;
                }
            }
            // Multiply-subtract qhat * v from u[j..j+n+1].
            let mut borrow = 0i64;
            let mut carry = 0u64;
            for i in 0..n {
                let p = qhat * u64::from(v[i]) + carry;
                carry = p >> 32;
                let x = i64::from(u[j + i]) - i64::from((p & 0xffff_ffff) as u32) - borrow;
                if x < 0 {
                    u[j + i] = (x + (1 << 32)) as u32;
                    borrow = 1;
                } else {
                    u[j + i] = x as u32;
                    borrow = 0;
                }
            }
            let x = i64::from(u[j + n]) - i64::from(carry as u32) - borrow;
            if x < 0 {
                // qhat was one too large: add v back.
                u[j + n] = (x + (1 << 32)) as u32;
                qhat -= 1;
                let mut carry2 = 0u64;
                for i in 0..n {
                    let s = u64::from(u[j + i]) + u64::from(v[i]) + carry2;
                    u[j + i] = (s & 0xffff_ffff) as u32;
                    carry2 = s >> 32;
                }
                u[j + n] = u[j + n].wrapping_add(carry2 as u32);
            } else {
                u[j + n] = x as u32;
            }
            q[j] = qhat as u32;
        }
        u.truncate(n);
        let rem = shr_limbs(&u, shift);
        (big_alloc(session, q), big_alloc(session, rem))
    }

    /// `self % other`.
    pub(crate) fn rem(&self, session: &TraceSession, other: &Big) -> Big {
        let _g = session.enter("big_mod");
        let (_, r) = self.div_rem(session, other);
        r
    }

    /// `self % m` for a small modulus (no allocation for the result
    /// value; still allocates the temporary quotient like the C code).
    pub(crate) fn rem_u32(&self, m: u32) -> u32 {
        let mut rem = 0u64;
        for &l in self.limbs.iter().rev() {
            rem = ((rem << 32) | u64::from(l)) % u64::from(m);
        }
        rem as u32
    }

    /// Integer square root (Newton's method).
    pub fn sqrt(&self, session: &TraceSession) -> Big {
        let _g = session.enter("big_sqrt");
        if self.is_zero() {
            return big_alloc(session, Vec::new());
        }
        // Initial guess: 2^(bits/2 + 1).
        let bits = self.limbs.len() * 32;
        let mut x = Big::from_u128(session, 1);
        x = shl_big(session, &x, (bits / 2 + 1) as u32);
        loop {
            // x' = (x + self/x) / 2
            let (d, _) = self.div_rem(session, &x);
            let s = x.add(session, &d);
            let two = Big::from_u128(session, 2);
            let (next, _) = s.div_rem(session, &two);
            if next.cmp_big(&x) != Ordering::Less {
                break;
            }
            x = next;
        }
        x
    }

    /// `gcd(self, other)` (Euclid).
    pub fn gcd(&self, session: &TraceSession, other: &Big) -> Big {
        let _g = session.enter("big_gcd");
        let mut a = self.clone_in(session);
        let mut b = other.clone_in(session);
        while !b.is_zero() {
            let r = a.rem(session, &b);
            a = b;
            b = r;
        }
        a
    }
}

fn shl_limbs(limbs: &[u32], shift: u32) -> Vec<u32> {
    if shift == 0 {
        return limbs.to_vec();
    }
    let mut out = Vec::with_capacity(limbs.len() + 1);
    let mut carry = 0u32;
    for &l in limbs {
        out.push((l << shift) | carry);
        carry = (u64::from(l) >> (32 - shift)) as u32;
    }
    if carry > 0 {
        out.push(carry);
    }
    out
}

fn shr_limbs(limbs: &[u32], shift: u32) -> Vec<u32> {
    if shift == 0 {
        return limbs.to_vec();
    }
    let mut out = vec![0u32; limbs.len()];
    for i in 0..limbs.len() {
        out[i] = limbs[i] >> shift;
        if i + 1 < limbs.len() {
            out[i] |= (u64::from(limbs[i + 1]) << (32 - shift)) as u32;
        }
    }
    out
}

fn shl_big(session: &TraceSession, x: &Big, bits: u32) -> Big {
    let _g = session.enter("big_shl");
    let mut limbs = vec![0u32; (bits / 32) as usize];
    limbs.extend(shl_limbs(&x.limbs, bits % 32));
    // Whole-limb shifts were prepended as zeros; partial shift applied
    // above. Recombine: shl_limbs already handled the sub-limb part.
    big_alloc(session, limbs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_trace::TraceSession;

    fn s() -> TraceSession {
        TraceSession::new("bignum-test")
    }

    #[test]
    fn roundtrip_u128() {
        let s = s();
        for v in [
            0u128,
            1,
            0xffff_ffff,
            1 << 32,
            u128::from(u64::MAX),
            1 << 100,
        ] {
            let b = Big::from_u128(&s, v);
            assert_eq!(b.to_u128(), Some(v));
        }
    }

    #[test]
    fn add_sub_inverse() {
        let s = s();
        let a = Big::from_u128(&s, 0xdead_beef_cafe_babe);
        let b = Big::from_u128(&s, 0x1234_5678_9abc_def0);
        let sum = a.add(&s, &b);
        let back = sum.sub(&s, &b);
        assert_eq!(back.to_u128(), a.to_u128());
    }

    #[test]
    fn mul_matches_u128() {
        let s = s();
        let cases = [
            (3u128, 5u128),
            (1 << 40, 1 << 50),
            (123_456_789, 987_654_321),
        ];
        for (x, y) in cases {
            let a = Big::from_u128(&s, x);
            let b = Big::from_u128(&s, y);
            assert_eq!(a.mul(&s, &b).to_u128(), Some(x * y));
        }
    }

    #[test]
    fn div_rem_matches_u128() {
        let s = s();
        let cases: [(u128, u128); 6] = [
            (100, 7),
            (1 << 90, (1 << 33) + 12345),
            (0xffff_ffff_ffff_ffff, 0xffff_ffff),
            (10u128.pow(30), 10u128.pow(11) + 7),
            (5, 10),
            (42, 42),
        ];
        for (x, y) in cases {
            let a = Big::from_u128(&s, x);
            let b = Big::from_u128(&s, y);
            let (q, r) = a.div_rem(&s, &b);
            assert_eq!(q.to_u128(), Some(x / y), "{x} / {y}");
            assert_eq!(r.to_u128(), Some(x % y), "{x} % {y}");
        }
    }

    #[test]
    fn sqrt_matches() {
        let s = s();
        for v in [0u128, 1, 2, 4, 99, 100, 10u128.pow(20), (1u128 << 80) + 17] {
            let b = Big::from_u128(&s, v);
            let r = b.sqrt(&s).to_u128().expect("fits");
            assert!(r * r <= v, "sqrt({v}) = {r}");
            assert!((r + 1) * (r + 1) > v, "sqrt({v}) = {r}");
        }
    }

    #[test]
    fn gcd_matches() {
        let s = s();
        let a = Big::from_u128(&s, 48);
        let b = Big::from_u128(&s, 180);
        assert_eq!(a.gcd(&s, &b).to_u128(), Some(12));
    }

    #[test]
    fn rem_u32_fast_path() {
        let s = s();
        let a = Big::from_u128(&s, 10u128.pow(25) + 3);
        assert_eq!(u128::from(a.rem_u32(97)), (10u128.pow(25) + 3) % 97);
    }

    #[test]
    fn arithmetic_is_traced() {
        let s = s();
        let before = s.objects();
        let a = Big::from_u128(&s, 1000);
        let b = Big::from_u128(&s, 999);
        let _c = a.mul(&s, &b);
        assert!(s.objects() > before + 2, "each op should allocate");
    }
}
