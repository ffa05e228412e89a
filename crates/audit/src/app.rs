//! The audit CLI driver, shared between the standalone
//! `lifepred-audit` binary and the `lifepred audit` subcommand.
//!
//! ```text
//! check [--root DIR] [--config FILE] [--format human|json|sarif] [--strict] [FILES...]
//! rules
//! ```
//!
//! Exit codes: 0 = clean (warnings allowed), 1 = deny diagnostics
//! found, 2 = usage or configuration error. Under `--strict`, stale
//! `[[allow]]` waivers are denials too.

use crate::config::AuditConfig;
use crate::diag::{render_json_report, render_sarif, Severity};
use crate::{default_scan_set, load_config, rules, run_check};
use std::io::Write;
use std::path::PathBuf;

/// Runs the audit CLI with explicit streams; returns the exit code.
pub fn run_app(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..], out, err),
        Some("rules") => {
            for (id, description) in rules::catalogue() {
                let _ = writeln!(out, "{id:<22} {description}");
            }
            0
        }
        Some("--help") | Some("-h") | None => {
            usage(err);
            0
        }
        Some(other) => {
            let _ = writeln!(err, "unknown command {other:?}");
            usage(err);
            2
        }
    }
}

fn usage(err: &mut dyn Write) {
    let _ = writeln!(
        err,
        "lifepred-audit — allocator-safety static analysis\n\
         \n\
         USAGE:\n\
         \x20 check [--root DIR] [--config FILE] [--format human|json|sarif]\n\
         \x20       [--strict] [FILES...]\n\
         \x20 rules\n\
         \n\
         check scans crates/*/src and src/ under --root (default: .)\n\
         against audit.toml in --root (or --config). Explicit FILES\n\
         override the default scan set. --strict turns stale [[allow]]\n\
         waivers into denials. Exit codes: 0 clean, 1 deny diagnostics\n\
         found, 2 usage/config error."
    );
}

fn check(args: &[String], out: &mut dyn Write, err: &mut dyn Write) -> u8 {
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut format = "human".to_string();
    let mut strict = false;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let Some(v) = it.next() else {
                    let _ = writeln!(err, "--root needs a value");
                    return 2;
                };
                root = PathBuf::from(v);
            }
            "--config" => {
                let Some(v) = it.next() else {
                    let _ = writeln!(err, "--config needs a value");
                    return 2;
                };
                config_path = Some(PathBuf::from(v));
            }
            "--format" => {
                let Some(v) = it.next() else {
                    let _ = writeln!(err, "--format needs a value");
                    return 2;
                };
                format = v.clone();
            }
            "--strict" => strict = true,
            flag if flag.starts_with("--") => {
                let _ = writeln!(err, "unknown flag {flag:?}");
                return 2;
            }
            file => files.push(PathBuf::from(file)),
        }
    }
    if !matches!(format.as_str(), "human" | "json" | "sarif") {
        let _ = writeln!(
            err,
            "--format must be human, json, or sarif, got {format:?}"
        );
        return 2;
    }
    let cfg = match config_path {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(text) => match AuditConfig::parse(&text) {
                Ok(cfg) => cfg,
                Err(e) => {
                    let _ = writeln!(err, "config error: {e}");
                    return 2;
                }
            },
            Err(e) => {
                let _ = writeln!(err, "cannot read {}: {e}", path.display());
                return 2;
            }
        },
        None => match load_config(&root) {
            Ok(cfg) => cfg,
            Err(e) => {
                let _ = writeln!(err, "config error: {e}");
                return 2;
            }
        },
    };
    if files.is_empty() {
        files = default_scan_set(&root);
    }
    if files.is_empty() {
        let _ = writeln!(err, "no .rs files found under {}", root.display());
        return 2;
    }
    let report = match run_check(&root, &files, &cfg, strict) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(err, "error: {e}");
            return 2;
        }
    };
    match format.as_str() {
        "json" => {
            let _ = writeln!(out, "{}", render_json_report(&report.diagnostics));
        }
        "sarif" => {
            let meta = rules::catalogue();
            let _ = writeln!(out, "{}", render_sarif(&report.diagnostics, &meta));
        }
        _ => {
            for d in &report.diagnostics {
                let _ = writeln!(out, "{}", d.render_human());
            }
            let denies = report
                .diagnostics
                .iter()
                .filter(|d| d.severity == Severity::Deny)
                .count();
            let warns = report.diagnostics.len() - denies;
            let _ = writeln!(
                out,
                "audit: {} file(s) scanned, {} deny, {} warn",
                report.files_scanned, denies, warns
            );
        }
    }
    if report.has_denials() {
        1
    } else {
        0
    }
}
