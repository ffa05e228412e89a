//! CFRAC: continued-fraction integer factoring.
//!
//! A faithful miniature of Brillhart–Morrison CFRAC, the paper's first
//! workload: expand the continued fraction of √n, trial-divide the
//! residues `Q_k` over a factor base, collect smooth relations, find a
//! GF(2) dependency by Gaussian elimination and extract a factor with
//! a gcd. The allocation profile matches the original's: floods of
//! tiny, immediately-dead bignum temporaries plus a few long-lived
//! structures (factor base, relation matrix).

mod bignum;

pub use bignum::Big;

use crate::input;
use crate::Workload;
use lifepred_trace::{TraceSession, Traced};

/// Upper bound on continued-fraction iterations per number.
const MAX_ITERATIONS: usize = 1500;

/// The CFRAC workload.
#[derive(Debug, Default, Clone)]
pub(crate) struct Cfrac;

/// One input: a list of semiprimes to factor.
fn numbers_for(input: usize) -> Vec<u128> {
    match input {
        // Small training semiprimes: whole factorizations finish in a
        // few tens of KB of allocation, so relation records look
        // short-lived to the trainer...
        0 => (0..4).map(|i| input::semiprime(100 + i, 8)).collect(),
        // ...while on the larger test numbers the same sites hold
        // their relations for hundreds of KB — the mispredicted
        // long-lived objects behind the paper's CFRAC arena pollution.
        _ => (0..3).map(|i| input::semiprime(777 + i, 16)).collect(),
    }
}

impl Workload for Cfrac {
    fn name(&self) -> &'static str {
        "cfrac"
    }

    fn description(&self) -> &'static str {
        "Factors large integers with the continued-fraction method \
         (Brillhart–Morrison) over a traced arbitrary-precision \
         integer package; inputs are products of two primes."
    }

    fn inputs(&self) -> Vec<String> {
        vec!["small-semiprimes".to_owned(), "large-semiprimes".to_owned()]
    }

    fn run(&self, input: usize, session: &TraceSession) {
        let _main = session.enter("cfrac_main");
        for n in numbers_for(input) {
            let _ = factor(session, n);
        }
    }
}

/// A smooth relation: `A² ≡ (-1)^sign · ∏ p_i^{e_i} (mod n)`.
struct Relation {
    /// `A_{k-1} mod n`, kept as a traced bignum (long-lived).
    a: Big,
    /// Exponent vector over the factor base (index 0 = sign bit),
    /// traced, long-lived until elimination.
    exponents: Traced<Vec<u32>>,
    /// Parity bitmask of `exponents` used during elimination.
    parity: u64,
}

/// Attempts to factor `n`; returns a nontrivial factor if found.
pub(crate) fn factor(session: &TraceSession, n: u128) -> Option<u128> {
    let _g = session.enter("factor");
    if n.is_multiple_of(2) {
        return Some(2);
    }
    let base = build_factor_base(session, n);
    let relations = collect_relations(session, n, &base);
    solve(session, n, &base, relations)
}

/// Primes `p` with Legendre symbol `(n|p) != -1`, i.e. those that can
/// divide the residues `Q_k`. Long-lived allocation.
fn build_factor_base(session: &TraceSession, n: u128) -> Traced<Vec<u32>> {
    let _g = session.enter("build_factor_base");
    let mut primes = Vec::new();
    let mut candidate = 3u32;
    while primes.len() < 60 && candidate < 10_000 {
        if input::is_prime(u128::from(candidate)) && legendre(n, candidate) != -1 {
            primes.push(candidate);
        }
        candidate += 2;
    }
    session.work(primes.len() as u64 * 20);
    let size = (primes.len() * 4) as u32;
    session.traced(primes, size)
}

fn legendre(n: u128, p: u32) -> i32 {
    let p128 = u128::from(p);
    let nm = n % p128;
    if nm == 0 {
        return 0;
    }
    // Euler's criterion via square-and-multiply.
    let mut acc = 1u128;
    let mut b = nm;
    let mut e = (p128 - 1) / 2;
    while e > 0 {
        if e & 1 == 1 {
            acc = acc * b % p128;
        }
        b = b * b % p128;
        e >>= 1;
    }
    if acc == 1 {
        1
    } else {
        -1
    }
}

/// Expands the continued fraction of √n, keeping smooth residues.
fn collect_relations(session: &TraceSession, n: u128, base: &Traced<Vec<u32>>) -> Vec<Relation> {
    let _g = session.enter("collect_relations");
    let nbig = Big::from_u128(session, n);
    let sqrt_n = nbig.sqrt(session);
    let one = Big::from_u128(session, 1);

    // Continued-fraction state: P, Q, convergent numerators A mod n.
    let mut p = Big::from_u128(session, 0);
    let mut q = one.clone_in(session);
    let mut a_prev = one.clone_in(session);
    let mut a_cur = sqrt_n.rem(session, &nbig);
    let wanted = base.len() + 8;
    let mut relations = Vec::new();

    for k in 0..MAX_ITERATIONS {
        let _step = session.enter("cf_step");
        // a = (sqrt_n + P) / Q ; P' = a*Q - P ; Q' = (n - P'^2) / Q
        let num = sqrt_n.add(session, &p);
        let (a, _) = num.div_rem(session, &q);
        let aq = a.mul(session, &q);
        let p_next = aq.sub(session, &p);
        let p_sq = p_next.mul(session, &p_next);
        let diff = nbig.sub(session, &p_sq);
        let (q_next, _) = diff.div_rem(session, &q);

        // A_{k+1} = (a * A_k + A_{k-1}) mod n
        let prod = a.mul(session, &a_cur);
        let sum = prod.add(session, &a_prev);
        let a_next = sum.rem(session, &nbig);

        // (-1)^(k+1) Q_{k+1} ≡ A_k² (mod n): test Q_{k+1} for
        // smoothness over the factor base.
        if let Some(exponents) = smooth_exponents(session, &q_next, base, k % 2 == 0) {
            let parity = parity_mask(&exponents);
            relations.push(Relation {
                a: a_cur.clone_in(session),
                exponents,
                parity,
            });
            if relations.len() >= wanted {
                break;
            }
        }
        p = p_next;
        q = q_next;
        a_prev = a_cur;
        a_cur = a_next;
        if q.is_zero() {
            break;
        }
        session.work(30);
    }
    relations
}

/// Trial-divides `q` over the base; `Some(exponents)` if fully smooth.
/// Index 0 of the exponent vector is the sign "prime".
fn smooth_exponents(
    session: &TraceSession,
    q: &Big,
    base: &Traced<Vec<u32>>,
    negative: bool,
) -> Option<Traced<Vec<u32>>> {
    let _g = session.enter("trial_divide");
    let mut exps = vec![0u32; base.len() + 1];
    exps[0] = u32::from(negative);
    let mut rest = q.clone_in(session);
    for (i, &prime) in base.iter().enumerate() {
        while !rest.is_zero() && rest.rem_u32(prime) == 0 {
            let pb = Big::from_u128(session, u128::from(prime));
            let (next, _) = rest.div_rem(session, &pb);
            rest = next;
            exps[i + 1] += 1;
        }
    }
    session.touch(Traced::id(base), base.len() as u64);
    if rest.to_u128() == Some(1) {
        let size = (exps.len() * 4) as u32;
        Some(session.traced(exps, size))
    } else {
        None
    }
}

fn parity_mask(exps: &Traced<Vec<u32>>) -> u64 {
    let mut mask = 0u64;
    for (i, &e) in exps.iter().enumerate().take(64) {
        if e % 2 == 1 {
            mask |= 1 << i;
        }
    }
    mask
}

/// Gaussian elimination over GF(2) on the relation parities; each
/// dependency yields a congruence of squares and a gcd attempt.
fn solve(
    session: &TraceSession,
    n: u128,
    base: &Traced<Vec<u32>>,
    relations: Vec<Relation>,
) -> Option<u128> {
    let _g = session.enter("solve");
    if relations.is_empty() {
        return None;
    }
    let nbig = Big::from_u128(session, n);
    // rows[i]: (parity, member bitset over relations)
    let mut rows: Vec<(u64, u128)> = relations
        .iter()
        .enumerate()
        .map(|(i, r)| (r.parity, 1u128 << (i % 128)))
        .collect();
    session.work(rows.len() as u64 * rows.len() as u64 / 4);

    let mut pivots: Vec<(u64, usize)> = Vec::new();
    for i in 0..rows.len() {
        let mut row = rows[i];
        for &(pmask, pidx) in &pivots {
            let pivot_bit = pivots_bit(pmask);
            if row.0 & pivot_bit != 0 {
                row.0 ^= rows[pidx].0;
                row.1 ^= rows[pidx].1;
            }
        }
        if row.0 == 0 {
            // Dependency found: combine the member relations.
            if let Some(f) = try_dependency(session, n, &nbig, base, &relations, row.1) {
                return Some(f);
            }
        } else {
            pivots.push((row.0, i));
        }
        rows[i] = row;
    }
    None
}

/// Lowest set bit of a parity mask (the pivot column).
fn pivots_bit(mask: u64) -> u64 {
    mask & mask.wrapping_neg()
}

/// Builds X = ∏ A_i mod n and Y = ∏ p^{Σe/2} mod n for the dependency
/// members, then tries `gcd(X − Y, n)`.
fn try_dependency(
    session: &TraceSession,
    n: u128,
    nbig: &Big,
    base: &Traced<Vec<u32>>,
    relations: &[Relation],
    members: u128,
) -> Option<u128> {
    let _g = session.enter("try_dependency");
    let mut x = Big::from_u128(session, 1);
    let mut exp_sums = vec![0u64; base.len() + 1];
    for (i, rel) in relations.iter().enumerate() {
        if members & (1u128 << (i % 128)) == 0 {
            continue;
        }
        let prod = x.mul(session, &rel.a);
        x = prod.rem(session, nbig);
        for (j, &e) in rel.exponents.iter().enumerate() {
            exp_sums[j] += u64::from(e);
        }
        Traced::touch(&rel.exponents, rel.exponents.len() as u64);
    }
    if exp_sums.iter().any(|e| e % 2 != 0) {
        return None; // masked-out 64+ columns spoiled the square
    }
    let mut y = Big::from_u128(session, 1);
    for (j, &e) in exp_sums.iter().enumerate().skip(1) {
        for _ in 0..e / 2 {
            let prod = y.mul_u32(session, base[j - 1]);
            y = prod.rem(session, nbig);
        }
    }
    // gcd(|X - Y|, n)
    let diff = if x.cmp_big(&y) == std::cmp::Ordering::Less {
        y.sub(session, &x)
    } else {
        x.sub(session, &y)
    };
    if diff.is_zero() {
        return None;
    }
    let g = diff.gcd(session, nbig);
    let gv = g.to_u128()?;
    if gv > 1 && gv < n {
        Some(gv)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_trace::TraceSession;

    #[test]
    fn factors_a_small_semiprime() {
        let s = TraceSession::new("cfrac-test");
        // 4-digit primes keep the test quick.
        let n = 1009u128 * 2003;
        let f = factor(&s, n);
        if let Some(f) = f {
            assert!(f == 1009 || f == 2003, "got {f}");
        }
        // Whether or not the factorization succeeded, the run must
        // have exercised the allocator heavily.
        let t = s.finish();
        assert!(t.stats().total_objects > 1000);
    }

    #[test]
    fn trace_is_dominated_by_short_lived_temporaries() {
        let s = TraceSession::new("cfrac-life");
        let _ = factor(&s, 1009u128 * 2003);
        let t = s.finish();
        let end = t.end_clock();
        let short = t
            .records()
            .iter()
            .filter(|r| r.lifetime(end) < 32 * 1024)
            .count();
        let frac = short as f64 / t.records().len() as f64;
        assert!(frac > 0.9, "short-lived fraction {frac}");
    }

    #[test]
    fn chains_are_layered() {
        let s = TraceSession::new("cfrac-chains");
        let _ = factor(&s, 101u128 * 103);
        let t = s.finish();
        let max_depth = t
            .records()
            .iter()
            .map(|r| t.chain(r.chain).len())
            .max()
            .unwrap_or(0);
        assert!(max_depth >= 4, "expected deep chains, got {max_depth}");
    }

    #[test]
    fn workload_runs_training_input() {
        let s = TraceSession::new("cfrac-wl");
        Cfrac.run(0, &s);
        let t = s.finish();
        assert!(t.stats().total_objects > 10_000);
    }

    #[test]
    fn legendre_sanity() {
        // 2 is a QR mod 7 (3² = 2), 3 is not.
        assert_eq!(legendre(2, 7), 1);
        assert_eq!(legendre(3, 7), -1);
        assert_eq!(legendre(14, 7), 0);
    }
}
