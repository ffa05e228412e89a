//! Traced cubes: the carrier data structure of two-level minimization.

use lifepred_trace::{TraceSession, Traced};

/// A literal position in a cube: 0, 1 or don't-care.
pub const ZERO: u8 = 0;
/// Positive literal.
pub const ONE: u8 = 1;
/// Don't-care.
pub const DC: u8 = 2;

/// A product term over `n` boolean variables, one byte per variable.
///
/// Every cube owns a traced byte vector, mirroring how the original
/// espresso mallocs each cube; cube size varies with the input's
/// variable count, exercising the size component of allocation sites.
#[derive(Debug)]
pub struct Cube {
    vars: Traced<Vec<u8>>,
}

/// The single allocation layer all cubes pass through.
pub(crate) fn cube_alloc(session: &TraceSession, vars: Vec<u8>) -> Cube {
    let _g = session.enter("cube_alloc");
    let size = vars.len().max(1) as u32;
    let traced = session.traced(vars, size);
    Traced::touch(&traced, traced.len() as u64);
    Cube { vars: traced }
}

impl Cube {
    /// The universal cube (all don't-cares) over `n` variables.
    pub(crate) fn universe(session: &TraceSession, n: usize) -> Cube {
        cube_alloc(session, vec![DC; n])
    }

    /// Builds a cube from explicit literals.
    pub fn from_vars(session: &TraceSession, vars: Vec<u8>) -> Cube {
        debug_assert!(vars.iter().all(|&v| v <= DC));
        cube_alloc(session, vars)
    }

    /// Parses a PLA pattern like `01-0-`.
    ///
    /// Returns `None` if a character is not `0`, `1` or `-`.
    pub(crate) fn parse(session: &TraceSession, pattern: &str) -> Option<Cube> {
        let mut vars = Vec::with_capacity(pattern.len());
        for ch in pattern.chars() {
            vars.push(match ch {
                '0' => ZERO,
                '1' => ONE,
                '-' => DC,
                _ => return None,
            });
        }
        Some(cube_alloc(session, vars))
    }

    /// Number of variables.
    pub(crate) fn width(&self) -> usize {
        self.vars.len()
    }

    /// The literal at position `i`.
    pub(crate) fn var(&self, i: usize) -> u8 {
        self.vars[i]
    }

    /// Number of non-don't-care literals.
    pub(crate) fn literals(&self) -> usize {
        self.vars.iter().filter(|&&v| v != DC).count()
    }

    /// Whether the cube is the universal cube.
    pub(crate) fn is_universe(&self) -> bool {
        self.vars.iter().all(|&v| v == DC)
    }

    /// Deep copy (fresh traced allocation).
    pub(crate) fn clone_in(&self, session: &TraceSession) -> Cube {
        let _g = session.enter("cube_copy");
        cube_alloc(session, self.vars.to_vec())
    }

    /// A copy with position `i` set to `value`.
    pub(crate) fn with_var(&self, session: &TraceSession, i: usize, value: u8) -> Cube {
        let mut vars = self.vars.to_vec();
        vars[i] = value;
        cube_alloc(session, vars)
    }

    /// Whether `self` covers `other` (every minterm of `other` is in
    /// `self`).
    pub fn covers(&self, other: &Cube) -> bool {
        self.vars
            .iter()
            .zip(other.vars.iter())
            .all(|(&a, &b)| a == DC || a == b)
    }

    /// Whether two cubes share at least one minterm.
    pub(crate) fn intersects(&self, other: &Cube) -> bool {
        self.vars
            .iter()
            .zip(other.vars.iter())
            .all(|(&a, &b)| a == DC || b == DC || a == b)
    }

    /// Renders the cube as a PLA pattern.
    #[cfg(test)]
    pub(crate) fn pattern(&self) -> String {
        self.vars
            .iter()
            .map(|&v| match v {
                ZERO => '0',
                ONE => '1',
                _ => '-',
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_trace::TraceSession;

    fn s() -> TraceSession {
        TraceSession::new("cube-test")
    }

    #[test]
    fn parse_and_pattern_roundtrip() {
        let s = s();
        let c = Cube::parse(&s, "01-0-").expect("valid");
        assert_eq!(c.pattern(), "01-0-");
        assert_eq!(c.width(), 5);
        assert_eq!(c.literals(), 3);
        assert!(Cube::parse(&s, "01x").is_none());
    }

    #[test]
    fn covering() {
        let s = s();
        let big = Cube::parse(&s, "1--").expect("valid");
        let small = Cube::parse(&s, "10-").expect("valid");
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
        assert!(Cube::universe(&s, 3).covers(&big));
    }

    #[test]
    fn intersection() {
        let s = s();
        let a = Cube::parse(&s, "1--").expect("valid");
        let b = Cube::parse(&s, "-0-").expect("valid");
        let c = Cube::parse(&s, "0--").expect("valid");
        assert!(!a.intersects(&c));
        assert!(a.intersects(&b));
    }

    #[test]
    fn with_var_replaces_one_position() {
        let s = s();
        let a = Cube::parse(&s, "---").expect("valid");
        let b = a.with_var(&s, 1, ONE);
        assert_eq!(b.pattern(), "-1-");
        assert_eq!(a.pattern(), "---", "original untouched");
    }
}
