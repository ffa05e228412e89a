//! `lifepred-audit` — allocator-safety static analysis for the
//! lifepred workspace.
//!
//! Two rules, each kept because it changed code in the repo's history
//! (the census is in DESIGN.md §9), run as deny-by-default diagnostics
//! with file:line spans:
//!
//! | id | invariant |
//! |----|-----------|
//! | `layout-math` | size/offset math in arena cores uses checked helpers |
//! | `panic-surface` | no panics reachable from `GlobalAlloc`/`Drop` or under allocator locks |
//!
//! `layout-math` runs per file over the token stream plus a per-file
//! context (`ctx::FileCtx`) — `syn` is not available offline, so the
//! parsing layer is a small lexer. `panic-surface` runs once over the
//! cross-file call graph (`callgraph::Workspace`). Configuration
//! (severities, module scopes, per-site `[[allow]]` entries with
//! mandatory written rationales) comes from `audit.toml`; one-off
//! suppressions can use an `// audit:allow(rule-id)` comment on the
//! flagged line or the line above. Run `cargo run -p lifepred-audit --
//! check` from the repo root.

pub mod app;
mod callgraph;
mod config;
mod ctx;
mod diag;
mod lex;
mod parse;
mod rules;
mod summary;

use config::AuditConfig;
use ctx::{module_id, FileCtx};
use diag::{Diagnostic, Severity};
use lex::TokKind;
use std::fs;
use std::path::{Path, PathBuf};

/// Result of a check run.
#[derive(Debug)]
struct CheckReport {
    /// All diagnostics, sorted by (file, line, col).
    diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    files_scanned: usize,
}

impl CheckReport {
    /// Whether any deny-severity diagnostic was produced.
    fn has_denials(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Deny)
    }
}

/// Collects the default scan set under `root`: every `.rs` file in
/// `crates/*/src` and the facade's `src/`, sorted for deterministic
/// output. Fixture trees (`tests/fixtures`) and vendored shims are
/// outside these directories and thus never scanned by default.
fn default_scan_set(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            collect_rs(&dir.join("src"), &mut files);
        }
    }
    collect_rs(&root.join("src"), &mut files);
    files.sort();
    files
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Loads `audit.toml` from `root` if present, else the default config.
///
/// # Errors
///
/// Returns the parse error message when the file exists but is
/// malformed (including `[[allow]]` entries missing a written reason).
fn load_config(root: &Path) -> Result<AuditConfig, String> {
    let path = root.join("audit.toml");
    match fs::read_to_string(&path) {
        Ok(text) => AuditConfig::parse(&text),
        Err(_) => Ok(AuditConfig::default()),
    }
}

/// Runs every registered rule over `files` (repo-relative to `root`).
/// `strict` escalates stale `[[allow]]` waivers from warnings to
/// denials.
///
/// Per-file rules run first; then the whole file set is handed to
/// [`callgraph::Workspace::build`] and the cross-file rules run once
/// over it. `[[allow]]` filtering is centralized here (matching either
/// the diagnostic's site id or its file's module id) so entries that
/// matched nothing can be reported as stale waivers.
///
/// # Errors
///
/// Returns a message when a file cannot be read.
fn run_check(
    root: &Path,
    files: &[PathBuf],
    cfg: &AuditConfig,
    strict: bool,
) -> Result<CheckReport, String> {
    let mut ctxs = Vec::with_capacity(files.len());
    for file in files {
        let src = fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let rel = file.strip_prefix(root).unwrap_or(file).to_path_buf();
        let module = module_id(&rel);
        ctxs.push(FileCtx::new(rel, src, module));
    }

    let mut diagnostics = Vec::new();
    let rules = rules::all_rules();
    for ctx in &ctxs {
        let mut file_diags = Vec::new();
        for rule in &rules {
            rule.check(ctx, cfg, &mut file_diags);
        }
        apply_inline_allows(ctx, &mut file_diags);
        diagnostics.extend(file_diags);
    }

    let ws = callgraph::Workspace::build(&ctxs);
    let mut ws_diags = Vec::new();
    for rule in rules::all_workspace_rules() {
        rule.check(&ws, cfg, &mut ws_diags);
    }
    for ctx in &ctxs {
        apply_inline_allows(ctx, &mut ws_diags);
    }
    diagnostics.extend(ws_diags);

    // Central [[allow]] filtering: an entry matches a diagnostic by
    // exact site id or by the file's module id. Every matching entry
    // is marked used so dead waivers surface below.
    let module_by_file: std::collections::HashMap<String, &str> = ctxs
        .iter()
        .map(|c| (c.path.display().to_string(), c.module.as_str()))
        .collect();
    let mut used = vec![false; cfg.allows.len()];
    diagnostics.retain(|d| {
        let module = module_by_file.get(&d.file).copied().unwrap_or("");
        let mut suppressed = false;
        for (i, a) in cfg.allows.iter().enumerate() {
            if a.rule == d.rule && (a.site == d.site || a.site == module) {
                used[i] = true;
                suppressed = true;
            }
        }
        !suppressed
    });

    // Stale-waiver detection: an [[allow]] that suppressed nothing is
    // dead weight — a warning normally, a denial under --strict.
    for (a, _) in cfg.allows.iter().zip(&used).filter(|(_, &u)| !u) {
        diagnostics.push(Diagnostic {
            rule: rules::STALE_WAIVER,
            severity: if strict {
                Severity::Deny
            } else {
                Severity::Warn
            },
            file: "audit.toml".to_string(),
            line: a.line,
            col: 1,
            message: format!(
                "[[allow]] for `{}` at `{}` matches no current finding; delete it \
                 (reason was: {})",
                a.rule, a.site, a.reason
            ),
            site: a.site.clone(),
        });
    }

    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok(CheckReport {
        diagnostics,
        files_scanned: files.len(),
    })
}

/// Drops this file's diagnostics suppressed by an
/// `// audit:allow(rule-id)` comment on the same line or the line
/// directly above. Diagnostics for other files are untouched, so the
/// same vector can be passed once per file.
fn apply_inline_allows(ctx: &FileCtx, diags: &mut Vec<Diagnostic>) {
    let mut allows: Vec<(usize, String)> = Vec::new();
    for t in &ctx.toks {
        if let TokKind::Comment { text, .. } = &t.kind {
            let mut rest = text.as_str();
            while let Some(pos) = rest.find("audit:allow(") {
                let after = &rest[pos + "audit:allow(".len()..];
                if let Some(close) = after.find(')') {
                    allows.push((ctx.line_of(t.start), after[..close].trim().to_string()));
                    rest = &after[close + 1..];
                } else {
                    break;
                }
            }
        }
    }
    if allows.is_empty() {
        return;
    }
    let file = ctx.path.display().to_string();
    diags.retain(|d| {
        d.file != file
            || !allows
                .iter()
                .any(|(line, rule)| rule == d.rule && (*line == d.line || *line + 1 == d.line))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_tree(files: &[(&str, &str)]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lifepred-audit-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        for (rel, content) in files {
            let path = dir.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            let mut f = fs::File::create(&path).unwrap();
            f.write_all(content.as_bytes()).unwrap();
        }
        dir
    }

    #[test]
    fn scan_set_covers_crates_and_facade() {
        let root = write_tree(&[
            ("crates/a/src/lib.rs", "pub fn a() {}"),
            ("crates/b/src/nested/mod.rs", "pub fn b() {}"),
            ("src/lib.rs", "pub fn facade() {}"),
            ("crates/a/tests/fixtures/bad.rs", "static mut X: u8 = 0;"),
            ("target/debug/build.rs", "fn ignored() {}"),
        ]);
        let files = default_scan_set(&root);
        let rels: Vec<String> = files
            .iter()
            .map(|f| f.strip_prefix(&root).unwrap().display().to_string())
            .collect();
        assert_eq!(
            rels,
            vec![
                "crates/a/src/lib.rs",
                "crates/b/src/nested/mod.rs",
                "src/lib.rs"
            ]
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn run_check_reports_and_sorts() {
        let root = write_tree(&[(
            "crates/galloc/src/inner.rs",
            "pub fn f(offset: usize, size: usize) -> usize {\n    offset * 2 + size\n}\n",
        )]);
        let files = default_scan_set(&root);
        let report = run_check(&root, &files, &AuditConfig::default(), false).unwrap();
        assert!(report.has_denials());
        let cols: Vec<(usize, usize)> =
            report.diagnostics.iter().map(|d| (d.line, d.col)).collect();
        assert_eq!(cols, [(2, 12), (2, 16)], "{:?}", report.diagnostics);
        assert!(report.diagnostics.iter().all(|d| d.rule == "layout-math"));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn inline_allow_suppresses_one_line() {
        let root = write_tree(&[(
            "crates/galloc/src/inner.rs",
            "// audit:allow(layout-math): fixture exercises inline allows\n\
             pub fn a(size: usize) -> usize { size + 1 }\npub fn b(size: usize) -> usize { size + 1 }\n",
        )]);
        let files = default_scan_set(&root);
        let report = run_check(&root, &files, &AuditConfig::default(), false).unwrap();
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].line, 3);
        let _ = fs::remove_dir_all(&root);
    }
}
