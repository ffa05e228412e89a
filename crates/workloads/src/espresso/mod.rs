//! ESPRESSO: two-level logic minimization on cube covers.
//!
//! A working miniature of the espresso loop: parse a PLA, complement
//! the ON-set by Shannon cofactoring to get the OFF-set, then iterate
//! EXPAND / IRREDUNDANT / REDUCE until the cover stops improving.
//! Tautology checking and complementation recurse over cofactors,
//! allocating storms of short-lived cubes — the allocation profile the
//! paper measured in espresso 2.3.

mod cube;

use cube::cube_alloc;
pub use cube::{Cube, DC, ONE, ZERO};

use crate::input;
use crate::Workload;
use lifepred_trace::TraceSession;
use rand::Rng;

/// The ESPRESSO workload.
#[derive(Debug, Default, Clone)]
pub(crate) struct Espresso;

impl Workload for Espresso {
    fn name(&self) -> &'static str {
        "espresso"
    }

    fn description(&self) -> &'static str {
        "Minimizes two-level boolean covers with the espresso loop \
         (expand / irredundant / reduce over cube covers, OFF-set by \
         recursive complementation); inputs are generated PLA truth \
         tables."
    }

    fn inputs(&self) -> Vec<String> {
        vec!["pla-8var".to_owned(), "pla-11var".to_owned()]
    }

    fn run(&self, input: usize, session: &TraceSession) {
        let _main = session.enter("espresso_main");
        let plas = match input {
            0 => vec![
                generate_pla(21, 10, 80),
                generate_pla(22, 9, 60),
                generate_pla(23, 11, 90),
            ],
            _ => vec![
                generate_pla(91, 11, 120),
                generate_pla(92, 10, 90),
                generate_pla(93, 11, 140),
                generate_pla(94, 12, 110),
            ],
        };
        for pla in plas {
            let _ = minimize_pla(session, &pla);
        }
    }
}

/// Generates a PLA description with `terms` random product terms.
pub(crate) fn generate_pla(seed: u64, nvars: usize, terms: usize) -> String {
    let mut r = input::rng(seed);
    let mut out = format!(".i {nvars}\n.o 1\n");
    for _ in 0..terms {
        for _ in 0..nvars {
            out.push(match r.gen_range(0..4) {
                0 => '0',
                1 => '1',
                _ => '-',
            });
        }
        out.push_str(" 1\n");
    }
    out.push_str(".e\n");
    out
}

/// Parses a single-output PLA; returns the ON-set cover.
///
/// # Errors
///
/// Returns a message on malformed input.
pub(crate) fn parse_pla(session: &TraceSession, text: &str) -> Result<Vec<Cube>, String> {
    let _g = session.enter("parse_pla");
    let mut nvars = None;
    let mut cover = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix(".i ") {
            nvars = Some(rest.trim().parse::<usize>().map_err(|e| e.to_string())?);
        } else if line.starts_with(".o") || line == ".e" {
            continue;
        } else {
            let mut parts = line.split_whitespace();
            let pattern = parts.next().ok_or("missing pattern")?;
            let output = parts.next().unwrap_or("1");
            if output != "1" {
                continue;
            }
            let n = nvars.ok_or("pattern before .i")?;
            if pattern.len() != n {
                return Err(format!("pattern {pattern} is not {n} wide"));
            }
            let cube = Cube::parse(session, pattern).ok_or_else(|| format!("bad {pattern}"))?;
            cover.push(cube);
        }
    }
    Ok(cover)
}

/// Statistics of one minimization run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MinimizeResult {
    /// Cubes in the input cover.
    pub cubes_in: usize,
    /// Cubes in the minimized cover.
    pub cubes_out: usize,
    /// Literals in the minimized cover.
    pub literals_out: usize,
}

/// Parses and minimizes a PLA, verifying the result covers the input.
///
/// # Errors
///
/// Propagates parse errors.
pub(crate) fn minimize_pla(session: &TraceSession, text: &str) -> Result<MinimizeResult, String> {
    let on_set = parse_pla(session, text)?;
    Ok(minimize(session, on_set))
}

/// The espresso loop over an ON-set cover.
pub(crate) fn minimize(session: &TraceSession, on_set: Vec<Cube>) -> MinimizeResult {
    let _g = session.enter("minimize");
    let cubes_in = on_set.len();
    if on_set.is_empty() {
        return MinimizeResult {
            cubes_in,
            cubes_out: 0,
            literals_out: 0,
        };
    }
    let n = on_set[0].width();
    let off_set = complement(session, &on_set, n);
    session.work(off_set.len() as u64 * 10);

    let mut cover: Vec<Cube> = on_set.iter().map(|c| c.clone_in(session)).collect();
    let mut best = cover_cost(&cover);
    for _pass in 0..3 {
        cover = expand(session, cover, &off_set);
        cover = irredundant(session, cover);
        let cost = cover_cost(&cover);
        if cost >= best && _pass > 0 {
            break;
        }
        best = cost;
        cover = reduce(session, cover);
    }
    cover = expand(session, cover, &off_set);
    cover = irredundant(session, cover);

    debug_assert!(
        on_set.iter().all(|c| covered_by(session, c, &cover)),
        "minimized cover must still cover the ON-set"
    );

    MinimizeResult {
        cubes_in,
        cubes_out: cover.len(),
        literals_out: cover.iter().map(Cube::literals).sum(),
    }
}

fn cover_cost(cover: &[Cube]) -> (usize, usize) {
    (cover.len(), cover.iter().map(Cube::literals).sum())
}

/// Complements a cover by recursive Shannon expansion — espresso's
/// COMPLEMENT, the allocation-heaviest phase.
pub fn complement(session: &TraceSession, cover: &[Cube], n: usize) -> Vec<Cube> {
    let _g = session.enter("complement");
    if cover.is_empty() {
        return vec![Cube::universe(session, n)];
    }
    if cover.iter().any(Cube::is_universe) {
        return Vec::new();
    }
    let var = most_binate_var(cover, n);
    let mut result = Vec::new();
    for phase in [ZERO, ONE] {
        let cof = cofactor(session, cover, var, phase);
        let sub = complement(session, &cof, n);
        for cube in sub {
            // AND the sub-complement with the splitting literal.
            if cube.var(var) == DC {
                result.push(cube.with_var(session, var, phase));
            } else if cube.var(var) == phase {
                result.push(cube);
            }
        }
    }
    session.work(result.len() as u64 * 4);
    result
}

/// The variable appearing in the most cubes in both phases.
fn most_binate_var(cover: &[Cube], n: usize) -> usize {
    let mut best = 0;
    let mut best_score = -1i64;
    for v in 0..n {
        let zeros = cover.iter().filter(|c| c.var(v) == ZERO).count() as i64;
        let ones = cover.iter().filter(|c| c.var(v) == ONE).count() as i64;
        let score = zeros.min(ones) * 1000 + zeros + ones;
        if score > best_score {
            best_score = score;
            best = v;
        }
    }
    best
}

/// Cofactor of a cover with respect to `var = phase`.
pub fn cofactor(session: &TraceSession, cover: &[Cube], var: usize, phase: u8) -> Vec<Cube> {
    let _g = session.enter("cofactor");
    let mut out = Vec::new();
    for cube in cover {
        let v = cube.var(var);
        if v == DC {
            out.push(cube.clone_in(session));
        } else if v == phase {
            out.push(cube.with_var(session, var, DC));
        }
    }
    out
}

/// Cofactor of a cover with respect to a whole cube.
fn cube_cofactor(session: &TraceSession, cover: &[Cube], against: &Cube) -> Vec<Cube> {
    let _g = session.enter("cube_cofactor");
    let mut out = Vec::new();
    for cube in cover {
        if !cube.intersects(against) {
            continue;
        }
        let mut vars = Vec::with_capacity(cube.width());
        for i in 0..cube.width() {
            if against.var(i) != DC {
                vars.push(DC);
            } else {
                vars.push(cube.var(i));
            }
        }
        out.push(cube_alloc(session, vars));
    }
    out
}

/// Recursive tautology check: does the cover contain every minterm?
pub fn tautology(session: &TraceSession, cover: &[Cube], n: usize) -> bool {
    let _g = session.enter("tautology");
    if cover.iter().any(Cube::is_universe) {
        return true;
    }
    if cover.is_empty() {
        return false;
    }
    // A variable-free / all-DC-free quick test: if some variable never
    // appears as DC or in one phase, the cover can't be a tautology.
    let var = most_binate_var(cover, n);
    let zeros = cofactor(session, cover, var, ZERO);
    if !tautology(session, &zeros, n) {
        return false;
    }
    let ones = cofactor(session, cover, var, ONE);
    tautology(session, &ones, n)
}

/// Whether `cube` is covered by `cover` (container check via
/// tautology of the cofactor).
pub(crate) fn covered_by(session: &TraceSession, cube: &Cube, cover: &[Cube]) -> bool {
    let _g = session.enter("covered_by");
    if cover.iter().any(|c| c.covers(cube)) {
        return true;
    }
    let cof = cube_cofactor(session, cover, cube);
    tautology(session, &cof, cube.width())
}

/// EXPAND: raise literals to don't-care while staying off the OFF-set,
/// then drop cubes covered by the newly expanded cube.
pub(crate) fn expand(session: &TraceSession, cover: Vec<Cube>, off_set: &[Cube]) -> Vec<Cube> {
    let _g = session.enter("expand");
    let mut result: Vec<Cube> = Vec::with_capacity(cover.len());
    for cube in &cover {
        let mut current = cube.clone_in(session);
        for v in 0..current.width() {
            if current.var(v) == DC {
                continue;
            }
            let raised = current.with_var(session, v, DC);
            let hits_off = off_set.iter().any(|off| raised.intersects(off));
            if !hits_off {
                current = raised;
            }
        }
        session.work(off_set.len() as u64);
        if !result.iter().any(|r: &Cube| r.covers(&current)) {
            result.retain(|r| !current.covers(r));
            result.push(current);
        }
    }
    result
}

/// IRREDUNDANT: remove cubes covered by the union of the others.
pub(crate) fn irredundant(session: &TraceSession, cover: Vec<Cube>) -> Vec<Cube> {
    let _g = session.enter("irredundant");
    let mut keep: Vec<Cube> = cover;
    let mut i = 0;
    while i < keep.len() {
        let cube = keep[i].clone_in(session);
        let rest: Vec<Cube> = keep
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, c)| c.clone_in(session))
            .collect();
        if covered_by(session, &cube, &rest) {
            keep.remove(i);
        } else {
            i += 1;
        }
    }
    keep
}

/// REDUCE: shrink cubes so a later EXPAND can escape local minima.
///
/// As in espresso, each cube is reduced against the *current* cover
/// (earlier cubes in their already-reduced form), which keeps the
/// cover's function unchanged: a point leaves a cube only while some
/// other cube in the current cover still holds it.
pub(crate) fn reduce(session: &TraceSession, cover: Vec<Cube>) -> Vec<Cube> {
    let _g = session.enter("reduce");
    let mut current: Vec<Cube> = cover;
    for i in 0..current.len() {
        let mut cube = current[i].clone_in(session);
        let rest: Vec<Cube> = current
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, c)| c.clone_in(session))
            .collect();
        for v in 0..cube.width() {
            if cube.var(v) != DC {
                continue;
            }
            // Lower var to 1 if the 0-half is covered by the rest.
            let zero_half = cube.with_var(session, v, ZERO);
            if covered_by(session, &zero_half, &rest) {
                cube = cube.with_var(session, v, ONE);
            }
        }
        current[i] = cube;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_trace::TraceSession;

    fn s() -> TraceSession {
        TraceSession::new("espresso-test")
    }

    fn cover(session: &TraceSession, patterns: &[&str]) -> Vec<Cube> {
        patterns
            .iter()
            .map(|p| Cube::parse(session, p).expect("valid"))
            .collect()
    }

    #[test]
    fn complement_of_empty_is_universe() {
        let s = s();
        let c = complement(&s, &[], 3);
        assert_eq!(c.len(), 1);
        assert!(c[0].is_universe());
    }

    #[test]
    fn complement_of_universe_is_empty() {
        let s = s();
        let f = cover(&s, &["---"]);
        assert!(complement(&s, &f, 3).is_empty());
    }

    #[test]
    fn complement_of_single_literal() {
        let s = s();
        let f = cover(&s, &["1--"]);
        let c = complement(&s, &f, 3);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].pattern(), "0--");
    }

    #[test]
    fn tautology_detection() {
        let s = s();
        let t = cover(&s, &["1--", "0--"]);
        assert!(tautology(&s, &t, 3));
        let not_t = cover(&s, &["1--", "01-"]);
        assert!(!tautology(&s, &not_t, 3));
    }

    #[test]
    fn covered_by_union() {
        let s = s();
        // "11-" is covered by the union of "1-0","1-1" even though
        // neither alone covers it... actually each half covers it; use
        // a real union case: "1--" covered by {"10-","11-"}.
        let target = Cube::parse(&s, "1--").expect("valid");
        let by = cover(&s, &["10-", "11-"]);
        assert!(covered_by(&s, &target, &by));
        let not_by = cover(&s, &["10-"]);
        assert!(!covered_by(&s, &target, &not_by));
    }

    #[test]
    fn minimize_merges_adjacent_minterms() {
        let s = s();
        // f = x·y + x·y' = x
        let on = cover(&s, &["11", "10"]);
        let r = minimize(&s, on);
        assert_eq!(r.cubes_out, 1);
        assert_eq!(r.literals_out, 1);
    }

    #[test]
    fn minimize_preserves_coverage_on_generated_pla() {
        let s = s();
        let pla = generate_pla(5, 6, 20);
        let r = minimize_pla(&s, &pla).expect("parse");
        assert!(r.cubes_out <= r.cubes_in);
        assert!(r.cubes_out >= 1);
    }

    #[test]
    fn parse_rejects_bad_width() {
        let s = s();
        assert!(parse_pla(&s, ".i 3\n.o 1\n01 1\n").is_err());
    }

    #[test]
    fn workload_allocates_heavily() {
        let s = s();
        Espresso.run(0, &s);
        let t = s.finish();
        assert!(
            t.stats().total_objects > 5_000,
            "objects: {}",
            t.stats().total_objects
        );
        // Many distinct chains from the recursive phases.
        assert!(t.chains().len() > 20);
    }
}
