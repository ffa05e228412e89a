//! End-to-end tests for the `lifepred-audit` binary: exact diagnostic
//! counts and spans on the seeded fixture trees, a clean run over the
//! real workspace, and the exit-code contract (0 clean / 1 deny /
//! 2 usage or config error).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/audit sits two levels below the workspace root")
        .to_path_buf()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lifepred-audit"))
        .args(args)
        .output()
        .expect("spawn lifepred-audit")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn bad_tree_reports_every_seeded_violation_with_exact_spans() {
    let root = fixture("bad");
    let out = run(&["check", "--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    // (file:line:col, rule) for every seeded violation, in output order.
    let expected = [
        ("crates/fx/src/r4.rs:3:12", "layout-math"),
        ("crates/fx/src/r4.rs:6:12", "layout-math"),
        ("crates/fx/src/r4.rs:9:11", "layout-math"),
    ];
    let diag_lines: Vec<&str> = text.lines().filter(|l| l.contains(": deny[")).collect();
    assert_eq!(diag_lines.len(), expected.len(), "{text}");
    for (line, (span, rule)) in diag_lines.iter().zip(expected) {
        assert!(
            line.starts_with(&format!("{span}: deny[{rule}]:")),
            "expected {span} deny[{rule}], got {line}"
        );
    }
    assert!(text.contains("1 file(s) scanned, 3 deny, 0 warn"), "{text}");
}

#[test]
fn bad_tree_json_format_carries_counts_and_rules() {
    let root = fixture("bad");
    let out = run(&[
        "check",
        "--root",
        root.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(text.contains("\"deny\":3"), "{text}");
    assert!(text.contains("\"warn\":0"), "{text}");
    assert!(text.contains("\"rule\":\"layout-math\""), "{text}");
    assert!(
        text.contains("\"file\":\"crates/fx/src/r4.rs\",\"line\":9,\"col\":11"),
        "{text}"
    );
}

#[test]
fn clean_tree_exits_zero() {
    let root = fixture("clean");
    let out = run(&["check", "--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    assert!(stdout(&out).contains("0 deny, 0 warn"));
}

#[test]
fn crossfile_tree_reports_every_seeded_violation_with_exact_spans() {
    let root = fixture("crossfile");
    let out = run(&["check", "--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    // (file:line:col, rule) for every seeded cross-file violation, in
    // output order: an index and an unwrap in helpers that `dealloc`
    // reaches in another file.
    let expected = [
        ("crates/ga/src/util.rs:7:16", "panic-surface"),
        ("crates/ga/src/util.rs:11:20", "panic-surface"),
    ];
    let diag_lines: Vec<&str> = text.lines().filter(|l| l.contains(": deny[")).collect();
    assert_eq!(diag_lines.len(), expected.len(), "{text}");
    for (line, (span, rule)) in diag_lines.iter().zip(expected) {
        assert!(
            line.starts_with(&format!("{span}: deny[{rule}]:")),
            "expected {span} deny[{rule}], got {line}"
        );
    }
    assert!(text.contains("2 file(s) scanned, 2 deny, 0 warn"), "{text}");
}

#[test]
fn stale_waiver_warns_normally_and_denies_under_strict() {
    let dir = std::env::temp_dir().join(format!("lifepred-audit-stale-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = dir.join("stale.toml");
    // The clean tree's scope and real waiver (used) plus one that
    // matches nothing (stale).
    std::fs::write(
        &cfg,
        "[rule.layout-math]\n\
         modules = [\"fx/lib\"]\n\n\
         [[allow]]\n\
         rule = \"layout-math\"\n\
         site = \"fx/lib::len\"\n\
         reason = \"Bounded by the caller.\"\n\n\
         [[allow]]\n\
         rule = \"layout-math\"\n\
         site = \"fx/nowhere\"\n\
         reason = \"Matches nothing; exercises stale detection.\"\n",
    )
    .unwrap();
    let root = fixture("clean");
    let root = root.to_str().unwrap();
    let cfg = cfg.to_str().unwrap();

    let out = run(&["check", "--root", root, "--config", cfg]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(
        text.contains("warn[stale-waiver]: [[allow]] for `layout-math` at `fx/nowhere`"),
        "{text}"
    );
    assert!(text.contains("0 deny, 1 warn"), "{text}");

    let out = run(&["check", "--root", root, "--config", cfg, "--strict"]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("deny[stale-waiver]"), "{text}");
    assert!(text.contains("1 deny, 0 warn"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sarif_format_carries_rules_results_and_spans() {
    let root = fixture("crossfile");
    let out = run(&[
        "check",
        "--root",
        root.to_str().unwrap(),
        "--format",
        "sarif",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = stdout(&out);
    assert!(
        text.contains("\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\""),
        "{text}"
    );
    for rule in ["layout-math", "panic-surface", "stale-waiver"] {
        assert!(text.contains(&format!("\"id\":\"{rule}\"")), "{text}");
    }
    assert!(text.contains("\"ruleId\":\"panic-surface\""), "{text}");
    assert!(text.contains("\"uri\":\"crates/ga/src/util.rs\""), "{text}");
    assert!(text.contains("\"startLine\":11"), "{text}");
}

/// Run under `--strict`, so a waiver that outlives its finding fails
/// here too.
#[test]
fn real_workspace_is_audit_clean() {
    let root = workspace_root();
    assert!(
        root.join("audit.toml").is_file(),
        "expected audit.toml at workspace root {}",
        root.display()
    );
    let out = run(&["check", "--strict", "--root", root.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must stay audit-clean:\n{}",
        stdout(&out)
    );
}

/// A reasonless waiver, or a config naming a rule the registry does not
/// have (a typo, or a rule since deleted, which would otherwise tune or
/// waive nothing in silence), is a config error.
#[test]
fn bad_configs_are_config_errors() {
    let dir = std::env::temp_dir().join(format!("lifepred-audit-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let root = fixture("clean");
    for (name, text, needle) in [
        (
            "reasonless.toml",
            "[[allow]]\nrule = \"layout-math\"\nsite = \"x/y\"\n",
            "a written `reason` is required",
        ),
        (
            "table.toml",
            "[rule.lock-order]\nseverity = \"warn\"\n",
            "unknown rule [rule.lock-order]",
        ),
        (
            "allow.toml",
            "[[allow]]\nrule = \"relaxed-publish\"\nsite = \"fx/lib\"\nreason = \"r\"\n",
            "unknown rule `relaxed-publish`",
        ),
    ] {
        let cfg = dir.join(name);
        std::fs::write(&cfg, text).unwrap();
        let out = run(&[
            "check",
            "--root",
            root.to_str().unwrap(),
            "--config",
            cfg.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(2), "{name}: {}", stdout(&out));
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(
            err.contains("config error") && err.contains(needle),
            "{err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = run(&["check", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

/// The registry is exactly the rules the history census kept (DESIGN.md
/// §9), plus the runner's own stale-waiver check.
#[test]
fn rules_subcommand_lists_the_registry() {
    let out = run(&["rules"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    let ids: Vec<&str> = text
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(
        ids,
        ["layout-math", "panic-surface", "stale-waiver"],
        "{text}"
    );
}
