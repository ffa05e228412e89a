//! Rendering sweep outcomes: paper-style tables, CSV and JSON
//! exports, and report diffing.
//!
//! Every renderer here is **deterministic in the measurements**: the
//! same grid with the same cached results produces byte-identical
//! output whether the cells were computed this run or pulled from the
//! cache. Run-dependent facts (elapsed time, hit counts) appear only
//! in the JSON report's separate `run` section, never in tables or
//! the per-cell rows — that is what lets `sweep resume` promise a
//! byte-identical table after a crash.

use crate::engine::{CellOutcome, SweepOutcome};
use crate::spec::Backend;
use lifepred_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of the JSON report document.
pub(crate) const REPORT_SCHEMA: &str = "lifepred-sweep-report-v1";

fn fmt_pct(v: f64) -> String {
    format!("{v:.1}")
}

/// The text one table slot renders to.
fn cell_text(outcome: &CellOutcome) -> String {
    match (&outcome.result, &outcome.error) {
        (Some(r), _) => {
            if outcome.cell.backend.predicts() {
                format!(
                    "{}/{}/{}",
                    fmt_pct(r.short_alloc_pct),
                    fmt_pct(r.error_byte_pct),
                    r.max_heap_bytes
                )
            } else {
                format!("-/-/{}", r.max_heap_bytes)
            }
        }
        (None, Some(_)) => "ERR".to_owned(),
        (None, None) => "…".to_owned(),
    }
}

/// The row label of a cell: the traced program when known, else the
/// trace path.
fn row_label(outcome: &CellOutcome) -> String {
    match &outcome.result {
        Some(r) if !r.program.is_empty() => r.program.clone(),
        _ => outcome.cell.trace.clone(),
    }
}

/// One table group: every non-threshold axis pinned.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct GroupKey {
    backend_order: u8,
    policy: String,
    epoch: u64,
    arena: String,
}

impl GroupKey {
    fn of(outcome: &CellOutcome) -> GroupKey {
        let c = &outcome.cell;
        GroupKey {
            backend_order: match c.backend {
                Backend::Offline => 0,
                Backend::Online => 1,
                Backend::FirstFit => 2,
                Backend::Bsd => 3,
            },
            policy: c.policy.to_string(),
            epoch: c.epoch,
            arena: c.arena.to_string(),
        }
    }

    fn backend(&self) -> Backend {
        match self.backend_order {
            0 => Backend::Offline,
            1 => Backend::Online,
            2 => Backend::FirstFit,
            _ => Backend::Bsd,
        }
    }
}

/// Writes a boxed ASCII table: `rows` of equal-length string cells,
/// with `header` on top.
fn write_grid(out: &mut String, header: &[String], rows: &[Vec<String>]) {
    let cols = header.len();
    let mut widths = vec![0usize; cols];
    for row in std::iter::once(header).chain(rows.iter().map(Vec::as_slice)) {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let rule = |out: &mut String| {
        for w in &widths {
            out.push('+');
            for _ in 0..w + 2 {
                out.push('-');
            }
        }
        out.push_str("+\n");
    };
    let line = |out: &mut String, row: &[String]| {
        for (i, cell) in row.iter().enumerate() {
            let pad = widths[i] - cell.chars().count();
            out.push_str("| ");
            out.push_str(cell);
            for _ in 0..pad {
                out.push(' ');
            }
            out.push(' ');
        }
        out.push_str("|\n");
    };
    rule(out);
    line(out, header);
    rule(out);
    for row in rows {
        line(out, row);
    }
    rule(out);
}

/// Renders the paper-style tables: one group per (backend, policy,
/// epoch, arena) combination, traces as rows, thresholds as columns,
/// each slot `short%/err%/max-heap` (baselines `-/-/max-heap`).
pub fn render_table(outcome: &SweepOutcome) -> String {
    let spec = &outcome.spec;
    let mut groups: BTreeMap<GroupKey, BTreeMap<(usize, u64), &CellOutcome>> = BTreeMap::new();
    // Index traces by spec order so rows keep the spec's ordering.
    let trace_order: BTreeMap<&str, usize> = spec
        .traces
        .iter()
        .enumerate()
        .map(|(i, t)| (t.as_str(), i))
        .collect();
    for o in &outcome.outcomes {
        let row = trace_order.get(o.cell.trace.as_str()).copied().unwrap_or(0);
        groups
            .entry(GroupKey::of(o))
            .or_default()
            .insert((row, o.cell.threshold), o);
    }

    let mut out = String::new();
    let _ = writeln!(out, "sweep: {}", spec.name);
    for (group, slots) in &groups {
        let backend = group.backend();
        out.push('\n');
        let mut title = format!("backend={backend}");
        if backend.predicts() {
            let _ = write!(title, " policy={} arena={}", group.policy, group.arena);
            if backend == Backend::Online {
                if group.epoch == 0 {
                    title.push_str(" epoch=2xthreshold");
                } else {
                    let _ = write!(title, " epoch={}", group.epoch);
                }
            }
        }
        let _ = writeln!(out, "{title}");
        // Column set: thresholds actually present in this group.
        let mut thresholds: Vec<u64> = slots.keys().map(|&(_, t)| t).collect();
        thresholds.sort_unstable();
        thresholds.dedup();
        let mut header: Vec<String> = vec!["trace".to_owned()];
        if backend.predicts() {
            header.extend(thresholds.iter().map(|t| format!("threshold={t}")));
        } else {
            header.push("short%/err%/max-heap".to_owned());
        }
        let mut rows_idx: Vec<usize> = slots.keys().map(|&(r, _)| r).collect();
        rows_idx.sort_unstable();
        rows_idx.dedup();
        let mut rows: Vec<Vec<String>> = Vec::new();
        for r in rows_idx {
            let mut row = Vec::with_capacity(header.len());
            let label_source = thresholds
                .iter()
                .find_map(|&t| slots.get(&(r, t)))
                .expect("row exists");
            row.push(row_label(label_source));
            if backend.predicts() {
                for &t in &thresholds {
                    row.push(slots.get(&(r, t)).map_or("…".to_owned(), |o| cell_text(o)));
                }
            } else {
                row.push(cell_text(label_source));
            }
            rows.push(row);
        }
        write_grid(&mut out, &header, &rows);
    }
    out
}

/// Renders every grid cell as one CSV row (header included). Columns
/// are the full config plus the measurements; deterministic across
/// cached and fresh runs.
pub fn render_csv(outcome: &SweepOutcome) -> String {
    let mut out = String::new();
    out.push_str(
        "trace,backend,policy,rounding,threshold,epoch_bytes,arena,\
         total_allocs,total_bytes,arena_allocs,arena_bytes,max_heap_bytes,\
         short_alloc_pct,short_byte_pct,error_byte_pct,epochs,status\n",
    );
    let csv_field = |s: &str| {
        if s.contains([',', '"', '\n']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_owned()
        }
    };
    for o in &outcome.outcomes {
        let c = &o.cell;
        let _ = write!(
            out,
            "{},{},{},{},{},{},{},",
            csv_field(&c.trace),
            c.backend,
            csv_field(&c.policy.to_string()),
            c.rounding,
            c.threshold,
            c.epoch_bytes(),
            c.arena
        );
        match &o.result {
            Some(r) => {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{},ok",
                    r.total_allocs,
                    r.total_bytes,
                    r.arena_allocs,
                    r.arena_bytes,
                    r.max_heap_bytes,
                    fmt_pct(r.short_alloc_pct),
                    fmt_pct(r.short_byte_pct),
                    fmt_pct(r.error_byte_pct),
                    r.epochs
                );
            }
            None => {
                let status = if o.error.is_some() {
                    "error"
                } else {
                    "pending"
                };
                let _ = writeln!(out, ",,,,,,,,,{status}");
            }
        }
    }
    out
}

/// Renders the full structured report (schema
/// `lifepred-sweep-report-v1`): the
/// spec, a `run` section with this run's accounting, and one entry
/// per grid cell. Only the `run` section varies between a cold run
/// and its cached re-run.
pub fn render_json(outcome: &SweepOutcome) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{REPORT_SCHEMA}\",");
    let _ = writeln!(out, "  \"name\": \"{}\",", json::escape(&outcome.spec.name));
    let s = &outcome.stats;
    let _ = writeln!(
        out,
        "  \"run\": {{\"cells\": {}, \"unique\": {}, \"cache_hits\": {}, \
         \"computed\": {}, \"errors\": {}, \"cancelled\": {}, \"elapsed_ms\": {}}},",
        s.cells, s.unique, s.cache_hits, s.computed, s.errors, s.cancelled, s.elapsed_ms
    );
    out.push_str("  \"cells\": [\n");
    for (i, o) in outcome.outcomes.iter().enumerate() {
        let c = &o.cell;
        let _ = write!(
            out,
            "    {{\"trace\": \"{}\", \"backend\": \"{}\", \"policy\": \"{}\", \
             \"rounding\": {}, \"threshold\": {}, \"epoch_bytes\": {}, \"arena\": \"{}\"",
            json::escape(&c.trace),
            c.backend,
            json::escape(&c.policy.to_string()),
            c.rounding,
            c.threshold,
            c.epoch_bytes(),
            c.arena
        );
        match (&o.result, &o.error) {
            (Some(r), _) => {
                let _ = write!(
                    out,
                    ", \"metrics\": {{\"total_allocs\": {}, \"total_bytes\": {}, \
                     \"arena_allocs\": {}, \"arena_bytes\": {}, \"max_heap_bytes\": {}, \
                     \"short_alloc_pct\": {}, \"short_byte_pct\": {}, \
                     \"error_byte_pct\": {}, \"epochs\": {}}}",
                    r.total_allocs,
                    r.total_bytes,
                    r.arena_allocs,
                    r.arena_bytes,
                    r.max_heap_bytes,
                    fmt_pct(r.short_alloc_pct),
                    fmt_pct(r.short_byte_pct),
                    fmt_pct(r.error_byte_pct),
                    r.epochs
                );
            }
            (None, Some(e)) => {
                let _ = write!(out, ", \"error\": \"{}\"", json::escape(e));
            }
            (None, None) => {
                let _ = write!(out, ", \"pending\": true");
            }
        }
        out.push('}');
        if i + 1 < outcome.outcomes.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// The identity of one report cell, for diffing.
fn diff_key(cell: &Value) -> Option<String> {
    let f = |k: &str| {
        cell.get(k).map(|v| match v {
            Value::Str(s) => s.clone(),
            other => format!("{other:?}"),
        })
    };
    Some(format!(
        "{} b={} p={} r={:?} t={:?} e={:?} a={}",
        f("trace")?,
        f("backend")?,
        f("policy")?,
        cell.get("rounding").and_then(Value::as_u64)?,
        cell.get("threshold").and_then(Value::as_u64)?,
        cell.get("epoch_bytes").and_then(Value::as_u64)?,
        f("arena")?,
    ))
}

const DIFF_METRICS: &[&str] = &[
    "total_allocs",
    "total_bytes",
    "arena_allocs",
    "arena_bytes",
    "max_heap_bytes",
    "short_alloc_pct",
    "short_byte_pct",
    "error_byte_pct",
    "epochs",
];

fn metric_text(metrics: Option<&Value>, name: &str) -> String {
    metrics.and_then(|m| m.get(name)).map_or_else(
        || "-".to_owned(),
        |v| match v {
            Value::Int(n) => n.to_string(),
            Value::Float(f) => format!("{f}"),
            Value::Str(s) => s.clone(),
            other => format!("{other:?}"),
        },
    )
}

/// Diffs two JSON reports (as produced by [`render_json`]): lists
/// cells present in only one report and metrics that changed between
/// them. Returns a human-readable summary; "no differences" when the
/// measurements agree everywhere.
///
/// # Errors
///
/// Returns a message when either document is not a
/// `lifepred-sweep-report-v1` report.
pub fn diff_reports(before: &str, after: &str) -> Result<String, String> {
    let load = |text: &str, which: &str| -> Result<BTreeMap<String, Value>, String> {
        let doc = json::parse(text).map_err(|e| format!("{which} report: {e}"))?;
        let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != REPORT_SCHEMA {
            return Err(format!(
                "{which} report: unsupported schema `{schema}` (want `{REPORT_SCHEMA}`)"
            ));
        }
        let cells = doc
            .get("cells")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{which} report: missing `cells`"))?;
        let mut map = BTreeMap::new();
        for cell in cells {
            let key = diff_key(cell)
                .ok_or_else(|| format!("{which} report: cell missing config fields"))?;
            map.insert(key, cell.clone());
        }
        Ok(map)
    };
    let a = load(before, "before")?;
    let b = load(after, "after")?;

    let mut out = String::new();
    let mut changes = 0usize;
    for (key, cell_a) in &a {
        match b.get(key) {
            None => {
                changes += 1;
                let _ = writeln!(out, "- removed: {key}");
            }
            Some(cell_b) => {
                let ma = cell_a.get("metrics");
                let mb = cell_b.get("metrics");
                for metric in DIFF_METRICS {
                    let va = metric_text(ma, metric);
                    let vb = metric_text(mb, metric);
                    if va != vb {
                        changes += 1;
                        let _ = writeln!(out, "~ {key}: {metric} {va} -> {vb}");
                    }
                }
            }
        }
    }
    for key in b.keys() {
        if !a.contains_key(key) {
            changes += 1;
            let _ = writeln!(out, "+ added: {key}");
        }
    }
    if changes == 0 {
        out.push_str("no differences\n");
    } else {
        let _ = writeln!(out, "{changes} difference(s)");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SweepOutcome, SweepStats};
    use crate::spec::{CellConfig, GridSpec};
    use crate::store::{CellKey, CellResult};
    use lifepred_core::SitePolicy;
    use lifepred_heap::ArenaConfig;

    fn outcome_fixture() -> SweepOutcome {
        let spec = GridSpec {
            name: "fixture".into(),
            traces: vec!["a.lpt".into()],
            backends: vec![Backend::Offline, Backend::FirstFit],
            thresholds: vec![16384, 32768],
            ..GridSpec::default()
        };
        let outcomes = spec
            .cells()
            .into_iter()
            .enumerate()
            .map(|(i, cell)| {
                let result = CellResult {
                    program: "prog".into(),
                    total_allocs: 100,
                    total_bytes: 6400,
                    arena_allocs: if cell.backend.predicts() { 90 } else { 0 },
                    arena_bytes: if cell.backend.predicts() { 5000 } else { 0 },
                    max_heap_bytes: 8192 + i as u64,
                    short_alloc_pct: if cell.backend.predicts() { 90.0 } else { 0.0 },
                    short_byte_pct: 78.0,
                    error_byte_pct: 1.25,
                    epochs: 0,
                    elapsed_ms: i as u64, // must never leak into renders
                };
                CellOutcome {
                    key: CellKey(i as u64 + 1),
                    cell,
                    result: Some(result),
                    cached: i % 2 == 0,
                    error: None,
                }
            })
            .collect::<Vec<_>>();
        SweepOutcome {
            spec,
            stats: SweepStats {
                cells: outcomes.len(),
                unique: 3,
                cache_hits: 0,
                computed: 3,
                errors: 0,
                cancelled: false,
                elapsed_ms: 7,
            },
            outcomes,
        }
    }

    #[test]
    fn table_groups_by_backend_and_pins_columns() {
        let table = render_table(&outcome_fixture());
        assert!(table.contains("backend=offline"), "{table}");
        assert!(table.contains("backend=firstfit"), "{table}");
        assert!(table.contains("threshold=16384"), "{table}");
        assert!(table.contains("threshold=32768"), "{table}");
        assert!(table.contains("90.0/1.2/"), "{table}");
        assert!(table.contains("-/-/"), "baselines show no pcts: {table}");
    }

    #[test]
    fn renders_ignore_run_dependent_fields() {
        let a = outcome_fixture();
        let mut b = outcome_fixture();
        // Same measurements, different run accounting / cache paths.
        b.stats.cache_hits = 3;
        b.stats.computed = 0;
        b.stats.elapsed_ms = 999;
        for o in &mut b.outcomes {
            o.cached = !o.cached;
            if let Some(r) = &mut o.result {
                r.elapsed_ms += 1000;
            }
        }
        assert_eq!(render_table(&a), render_table(&b));
        assert_eq!(render_csv(&a), render_csv(&b));
    }

    #[test]
    fn csv_has_one_row_per_cell() {
        let out = outcome_fixture();
        let csv = render_csv(&out);
        assert_eq!(csv.lines().count(), 1 + out.outcomes.len());
        assert!(csv.lines().skip(1).all(|l| l.ends_with(",ok")), "{csv}");
    }

    #[test]
    fn json_report_diffs_clean_against_itself() {
        let report = render_json(&outcome_fixture());
        let diff = diff_reports(&report, &report).expect("diff");
        assert_eq!(diff, "no differences\n");
    }

    #[test]
    fn diff_spots_changed_and_missing_cells() {
        let a = outcome_fixture();
        let mut b = outcome_fixture();
        if let Some(r) = &mut b.outcomes[0].result {
            r.max_heap_bytes += 4096;
        }
        b.outcomes.pop();
        let diff = diff_reports(&render_json(&a), &render_json(&b)).expect("diff");
        assert!(diff.contains("max_heap_bytes"), "{diff}");
        assert!(diff.contains("removed"), "{diff}");
        assert!(!diff.contains("no differences"), "{diff}");
    }

    #[test]
    fn errored_cells_render_as_err() {
        let mut out = outcome_fixture();
        out.outcomes[0].result = None;
        out.outcomes[0].error = Some("boom".into());
        assert!(render_table(&out).contains("ERR"));
        assert!(render_csv(&out).contains(",error"));
        let json = render_json(&out);
        assert!(json.contains("\"error\": \"boom\""));
        // The errored report still parses and diffs.
        diff_reports(&json, &json).expect("diff");
    }

    #[test]
    fn baseline_rows_use_trace_labels_when_result_missing() {
        let mut out = outcome_fixture();
        for o in &mut out.outcomes {
            o.result = None;
        }
        let table = render_table(&out);
        assert!(table.contains("a.lpt"), "{table}");
        assert!(table.contains('…'), "{table}");
    }

    #[test]
    fn fixture_cell_policy_is_rendered() {
        let out = outcome_fixture();
        assert_eq!(out.outcomes[0].cell.policy, SitePolicy::Complete);
        assert_eq!(out.outcomes[0].cell.arena, ArenaConfig::default());
        let cfg: &CellConfig = &out.outcomes[0].cell;
        assert!(render_table(&out).contains(&format!("policy={}", cfg.policy)));
    }
}
