//! Declarative grid specifications.
//!
//! A [`GridSpec`] names the axes of a design-space sweep — the
//! paper's Tables 4–9 generalized: which traces to replay, which
//! predictor backends to drive, and the threshold / epoch /
//! call-chain-depth / arena-geometry values to cross. The spec is a
//! small JSON document (schema [`SPEC_SCHEMA`]), the input file of
//! `lifepred sweep run/resume/render`.
//!
//! [`GridSpec::cells`] expands the axes into the full cartesian
//! product of [`CellConfig`]s, in a deterministic nested order
//! (trace → backend → policy → threshold → epoch → arena) that the
//! table renderer and the result cache both rely on. Axes that a
//! backend ignores (a first-fit replay has no threshold) are *kept*
//! in the grid — every spec cell gets a rendered slot — but collapse
//! to one canonical execution via [`CellConfig::canonical_string`],
//! so the engine never measures the same configuration twice.

use lifepred_core::SitePolicy;
use lifepred_heap::ArenaConfig;
use lifepred_obs::json::{self, Value};

/// Schema tag of the grid-spec JSON document.
pub(crate) const SPEC_SCHEMA: &str = "lifepred-sweep-v1";

/// Hard ceiling on expanded grid size: a sweep is a batch of
/// simulations, not a fuzzer; past this the spec is almost certainly
/// a typo (e.g. a threshold list pasted twice).
pub(crate) const MAX_CELLS: usize = 65_536;

/// Which allocator/predictor pipeline a cell drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Train on the trace, then replay it against the trained
    /// database (the paper's self-prediction arena runs).
    Offline,
    /// The self-correcting online learner, training while the trace
    /// replays.
    Online,
    /// Plain first-fit replay — the non-predicting baseline.
    FirstFit,
    /// BSD-style segregated-fit replay — the other baseline.
    Bsd,
}

impl Backend {
    /// Canonical lower-case name (also the JSON spelling).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Backend::Offline => "offline",
            Backend::Online => "online",
            Backend::FirstFit => "firstfit",
            Backend::Bsd => "bsd",
        }
    }

    /// Parses a backend name; `first-fit` is accepted as an alias to
    /// match the `lifepred simulate --allocator` spelling.
    pub(crate) fn parse(text: &str) -> Option<Backend> {
        match text {
            "offline" => Some(Backend::Offline),
            "online" => Some(Backend::Online),
            "firstfit" | "first-fit" => Some(Backend::FirstFit),
            "bsd" => Some(Backend::Bsd),
            _ => None,
        }
    }

    /// Whether this backend consults a lifetime predictor (and thus
    /// the threshold / policy / arena axes).
    pub(crate) fn predicts(self) -> bool {
        matches!(self, Backend::Offline | Backend::Online)
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A declarative sweep grid: every axis crossed with every other.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Human-readable sweep name (table titles).
    pub name: String,
    /// `.lpt` trace files to replay — the workload axis.
    pub traces: Vec<String>,
    /// Predictor backends to drive.
    pub backends: Vec<Backend>,
    /// Short-lived thresholds in bytes (predictor backends only).
    pub thresholds: Vec<u64>,
    /// Online epoch lengths in bytes; `0` means the paper's default
    /// of twice the threshold.
    pub epochs: Vec<u64>,
    /// Site policies — the call-chain-depth axis (`complete`,
    /// `len-N`, `cce`, `size-only`).
    pub policies: Vec<SitePolicy>,
    /// Size rounding applied to site keys (bytes).
    pub rounding: u32,
    /// Arena geometries (`COUNTxSIZE`).
    pub arenas: Vec<ArenaConfig>,
}

impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            name: "sweep".to_owned(),
            traces: Vec::new(),
            backends: vec![Backend::Offline],
            thresholds: vec![32 * 1024],
            epochs: vec![0],
            policies: vec![SitePolicy::Complete],
            rounding: 4,
            arenas: vec![ArenaConfig::default()],
        }
    }
}

/// One point of the expanded grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    /// Trace file path, exactly as the spec spelled it.
    pub trace: String,
    /// Backend to drive.
    pub backend: Backend,
    /// Site policy (call-chain depth).
    pub policy: SitePolicy,
    /// Site-key size rounding in bytes.
    pub rounding: u32,
    /// Short-lived threshold in bytes.
    pub threshold: u64,
    /// Raw epoch axis value; `0` selects the 2×-threshold default.
    pub epoch: u64,
    /// Arena geometry.
    pub arena: ArenaConfig,
}

impl CellConfig {
    /// The epoch length this cell actually runs with.
    pub(crate) fn epoch_bytes(&self) -> u64 {
        if self.epoch == 0 {
            self.threshold.saturating_mul(2)
        } else {
            self.epoch
        }
    }

    /// The canonical identity of the *measurement* this cell asks
    /// for: only the fields the backend consults, with ignored axes
    /// dropped. Grid cells with equal canonical strings (e.g. a
    /// first-fit baseline crossed with three thresholds) are the same
    /// run and share one cache entry. The trace's identity is **not**
    /// part of this string — the cache key hashes it separately so a
    /// re-recorded trace invalidates every cell that replays it.
    pub fn canonical_string(&self) -> String {
        match self.backend {
            Backend::FirstFit | Backend::Bsd => format!("b={}", self.backend),
            Backend::Offline => format!(
                "b={}|p={}|r={}|t={}|a={}",
                self.backend, self.policy, self.rounding, self.threshold, self.arena
            ),
            Backend::Online => format!(
                "b={}|p={}|r={}|t={}|e={}|a={}",
                self.backend,
                self.policy,
                self.rounding,
                self.threshold,
                self.epoch_bytes(),
                self.arena
            ),
        }
    }
}

fn spec_err(msg: impl Into<String>) -> String {
    format!("sweep spec: {}", msg.into())
}

/// Pushes `v` unless an equal element is already present — axis
/// duplicates collapse silently so a spec listing `[32768, 32768]`
/// doesn't double-render a column.
fn push_unique<T: PartialEq>(list: &mut Vec<T>, v: T) {
    if !list.contains(&v) {
        list.push(v);
    }
}

fn u64_list(val: &Value, what: &str) -> Result<Vec<u64>, String> {
    let arr = val
        .as_arr()
        .ok_or_else(|| spec_err(format!("`{what}` must be an array of integers")))?;
    let mut out = Vec::new();
    for v in arr {
        let n = v
            .as_u64()
            .ok_or_else(|| spec_err(format!("`{what}` entries must be non-negative integers")))?;
        push_unique(&mut out, n);
    }
    Ok(out)
}

fn str_list<'v>(val: &'v Value, what: &str) -> Result<Vec<&'v str>, String> {
    let arr = val
        .as_arr()
        .ok_or_else(|| spec_err(format!("`{what}` must be an array of strings")))?;
    arr.iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| spec_err(format!("`{what}` entries must be strings")))
        })
        .collect()
}

impl GridSpec {
    /// Parses a `lifepred-sweep-v1` spec document; unknown keys are
    /// rejected so a typoed axis name cannot silently shrink a grid.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, a wrong
    /// schema tag, an empty axis, a zero threshold, or a grid larger
    /// than 65 536 cells.
    pub fn from_json(text: &str) -> Result<GridSpec, String> {
        let doc = json::parse(text).map_err(|e| spec_err(e.to_string()))?;
        let top = doc
            .as_obj()
            .ok_or_else(|| spec_err("top level must be an object"))?;
        let mut spec = GridSpec::default();
        let mut saw_schema = false;
        for (key, val) in top {
            match key.as_str() {
                "schema" => {
                    saw_schema = true;
                    let got = val.as_str().unwrap_or("<non-string>");
                    if got != SPEC_SCHEMA {
                        return Err(spec_err(format!(
                            "unsupported schema `{got}` (want `{SPEC_SCHEMA}`)"
                        )));
                    }
                }
                "name" => {
                    spec.name = val
                        .as_str()
                        .ok_or_else(|| spec_err("`name` must be a string"))?
                        .to_owned();
                }
                "traces" => {
                    spec.traces = str_list(val, "traces")?
                        .into_iter()
                        .map(str::to_owned)
                        .collect();
                }
                "backends" => {
                    spec.backends = Vec::new();
                    for name in str_list(val, "backends")? {
                        let b = Backend::parse(name).ok_or_else(|| {
                            spec_err(format!(
                                "unknown backend `{name}` (expected offline, online, \
                                 firstfit or bsd)"
                            ))
                        })?;
                        push_unique(&mut spec.backends, b);
                    }
                }
                "thresholds" => spec.thresholds = u64_list(val, "thresholds")?,
                "epochs" => spec.epochs = u64_list(val, "epochs")?,
                "policies" => {
                    spec.policies = Vec::new();
                    for name in str_list(val, "policies")? {
                        let p = SitePolicy::parse(name).ok_or_else(|| {
                            spec_err(format!(
                                "unknown policy `{name}` (expected complete, len-N, cce \
                                 or size-only)"
                            ))
                        })?;
                        push_unique(&mut spec.policies, p);
                    }
                }
                "rounding" => {
                    let n = val
                        .as_u64()
                        .filter(|&n| n > 0 && n <= u64::from(u32::MAX))
                        .ok_or_else(|| spec_err("`rounding` must be a positive integer"))?;
                    spec.rounding = n as u32;
                }
                "arenas" => {
                    spec.arenas = Vec::new();
                    for text in str_list(val, "arenas")? {
                        let a = ArenaConfig::parse(text).ok_or_else(|| {
                            spec_err(format!("bad arena geometry `{text}` (want COUNTxSIZE)"))
                        })?;
                        push_unique(&mut spec.arenas, a);
                    }
                }
                other => {
                    return Err(spec_err(format!("unknown key `{other}`")));
                }
            }
        }
        if !saw_schema {
            return Err(spec_err(format!("missing `schema` (want `{SPEC_SCHEMA}`)")));
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the axes describe a runnable, sanely-sized grid.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first empty axis, zero threshold,
    /// or a grid larger than 65 536 cells.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.traces.is_empty() {
            return Err(spec_err("`traces` must name at least one .lpt file"));
        }
        for (axis, len) in [
            ("backends", self.backends.len()),
            ("thresholds", self.thresholds.len()),
            ("epochs", self.epochs.len()),
            ("policies", self.policies.len()),
            ("arenas", self.arenas.len()),
        ] {
            if len == 0 {
                return Err(spec_err(format!("axis `{axis}` is empty")));
            }
        }
        if self.thresholds.contains(&0) {
            return Err(spec_err("thresholds must be positive"));
        }
        let cells = self.cell_count();
        if cells > MAX_CELLS {
            return Err(spec_err(format!(
                "grid expands to {cells} cells (max {MAX_CELLS})"
            )));
        }
        Ok(())
    }

    /// Size of the expanded grid.
    pub fn cell_count(&self) -> usize {
        self.traces
            .len()
            .saturating_mul(self.backends.len())
            .saturating_mul(self.policies.len())
            .saturating_mul(self.thresholds.len())
            .saturating_mul(self.epochs.len())
            .saturating_mul(self.arenas.len())
    }

    /// Expands the axes into every grid cell, in the fixed nested
    /// order trace → backend → policy → threshold → epoch → arena.
    pub(crate) fn cells(&self) -> Vec<CellConfig> {
        let mut out = Vec::with_capacity(self.cell_count());
        for trace in &self.traces {
            for &backend in &self.backends {
                for &policy in &self.policies {
                    for &threshold in &self.thresholds {
                        for &epoch in &self.epochs {
                            for &arena in &self.arenas {
                                out.push(CellConfig {
                                    trace: trace.clone(),
                                    backend,
                                    policy,
                                    rounding: self.rounding,
                                    threshold,
                                    epoch,
                                    arena,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_json() -> String {
        format!(
            r#"{{
              "schema": "{SPEC_SCHEMA}",
              "name": "demo",
              "traces": ["a.lpt", "b.lpt"],
              "backends": ["offline", "firstfit"],
              "thresholds": [16384, 32768],
              "epochs": [0],
              "policies": ["complete", "len-7"],
              "rounding": 4,
              "arenas": ["16x4096"]
            }}"#
        )
    }

    #[test]
    fn parses_and_expands() {
        let spec = GridSpec::from_json(&demo_json()).expect("parses");
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.cell_count(), 2 * 2 * 2 * 2);
        let cells = spec.cells();
        assert_eq!(cells.len(), 16);
        // Nested order: trace is the outermost axis.
        assert!(cells[..8].iter().all(|c| c.trace == "a.lpt"));
        assert_eq!(cells[0].backend, Backend::Offline);
    }

    #[test]
    fn canonical_collapses_ignored_axes() {
        let spec = GridSpec::from_json(&demo_json()).expect("parses");
        let cells = spec.cells();
        let firstfit: Vec<&CellConfig> = cells
            .iter()
            .filter(|c| c.backend == Backend::FirstFit && c.trace == "a.lpt")
            .collect();
        // 2 policies × 2 thresholds worth of first-fit cells…
        assert_eq!(firstfit.len(), 4);
        // …all naming the same canonical measurement.
        let canon = firstfit[0].canonical_string();
        assert!(firstfit.iter().all(|c| c.canonical_string() == canon));
        // Offline cells keep their distinguishing axes.
        let offline: Vec<String> = cells
            .iter()
            .filter(|c| c.backend == Backend::Offline && c.trace == "a.lpt")
            .map(CellConfig::canonical_string)
            .collect();
        let mut dedup = offline.clone();
        dedup.dedup();
        assert_eq!(offline.len(), 4);
        assert_eq!(dedup.len(), 4, "offline cells all distinct: {offline:?}");
    }

    #[test]
    fn epoch_zero_resolves_to_twice_threshold() {
        let cell = CellConfig {
            trace: "t.lpt".into(),
            backend: Backend::Online,
            policy: SitePolicy::Complete,
            rounding: 4,
            threshold: 1000,
            epoch: 0,
            arena: ArenaConfig::default(),
        };
        assert_eq!(cell.epoch_bytes(), 2000);
        let explicit = CellConfig {
            epoch: 2000,
            ..cell.clone()
        };
        // The default and its explicit spelling are the same run.
        assert_eq!(cell.canonical_string(), explicit.canonical_string());
    }

    #[test]
    fn bad_specs_are_rejected() {
        for (doc, needle) in [
            ("{}", "missing `schema`"),
            (r#"{"schema": "nope"}"#, "unsupported schema"),
            (
                &format!(r#"{{"schema": "{SPEC_SCHEMA}", "traces": []}}"#),
                "at least one",
            ),
            (
                &format!(r#"{{"schema": "{SPEC_SCHEMA}", "traces": ["x"], "bogus": 1}}"#),
                "unknown key",
            ),
            (
                &format!(r#"{{"schema": "{SPEC_SCHEMA}", "traces": ["x"], "thresholds": [0]}}"#),
                "positive",
            ),
            (
                &format!(r#"{{"schema": "{SPEC_SCHEMA}", "traces": ["x"], "arenas": ["0x16"]}}"#),
                "bad arena geometry",
            ),
        ] {
            let err = GridSpec::from_json(doc).expect_err(doc);
            assert!(err.contains(needle), "`{doc}` → `{err}`");
        }
    }

    #[test]
    fn duplicate_axis_values_collapse() {
        let doc = format!(
            r#"{{"schema": "{SPEC_SCHEMA}", "traces": ["x"],
                "thresholds": [1024, 1024, 2048]}}"#
        );
        let spec = GridSpec::from_json(&doc).expect("parses");
        assert_eq!(spec.thresholds, vec![1024, 2048]);
    }
}
