//! `audit.toml`: rule severities, per-rule module lists, and reasoned
//! allowlist entries.
//!
//! No TOML crate is available offline, so this module includes a
//! parser for the small TOML subset the config uses: `[table]` and
//! `[[array-of-table]]` headers, and `key = value` pairs where a value
//! is a string, a bool, an integer, or an array of strings. That is
//! deliberately all `audit.toml` is allowed to need.

use crate::diag::Severity;
use std::collections::HashMap;

/// Per-rule configuration.
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// Overridden severity, if any (rules are deny-by-default).
    pub severity: Option<Severity>,
    /// Whether the rule also runs over `#[cfg(test)]`/`#[test]` code
    /// (default false: test code is covered by clippy's
    /// `undocumented_unsafe_blocks` instead).
    pub include_tests: bool,
    /// Module ids the rule treats as allowlisted (R2) or as its scope
    /// (R4); for `panic-surface`, entries without `/` are crate names.
    pub modules: Vec<String>,
    /// Lock names `alloc-reentrancy` treats as critical beyond the
    /// GlobalAlloc-crate default (`pending`, `learner`, ...).
    pub locks: Vec<String>,
    /// Panicking-construct kinds `panic-surface` checks (default:
    /// unwrap, expect, panic-macro, index).
    pub constructs: Vec<String>,
}

/// One `[[allow]]` entry: suppresses diagnostics of `rule` whose site
/// matches `site`. A written `reason` is mandatory — an allowlist
/// entry without a rationale is itself a config error.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub rule: String,
    /// Site id to match: a module id (`flight/recorder`), a per-site id
    /// (`galloc/tls::NEXT_THREAD`, `galloc/feedback::record`), or a
    /// lock pair (`adaptive/learner->galloc/inner`).
    pub site: String,
    pub reason: String,
    /// 1-based line of the `[[allow]]` header in `audit.toml`, so
    /// stale-waiver diagnostics point at the dead entry.
    pub line: usize,
}

/// Parsed `audit.toml`.
#[derive(Debug, Clone, Default)]
pub struct AuditConfig {
    pub rules: HashMap<String, RuleConfig>,
    pub allows: Vec<AllowEntry>,
}

impl AuditConfig {
    /// The configured severity for a rule, or deny.
    pub fn severity(&self, rule: &str) -> Severity {
        self.rules
            .get(rule)
            .and_then(|r| r.severity)
            .unwrap_or(Severity::Deny)
    }

    /// Whether `rule` also covers test code.
    pub fn include_tests(&self, rule: &str) -> bool {
        self.rules
            .get(rule)
            .map(|r| r.include_tests)
            .unwrap_or(false)
    }

    /// The module list configured for a rule (empty if none).
    pub fn modules(&self, rule: &str) -> &[String] {
        self.rules
            .get(rule)
            .map(|r| r.modules.as_slice())
            .unwrap_or(&[])
    }

    /// The critical-lock list configured for a rule (empty if none).
    pub fn locks(&self, rule: &str) -> &[String] {
        self.rules
            .get(rule)
            .map(|r| r.locks.as_slice())
            .unwrap_or(&[])
    }

    /// The construct list configured for a rule (empty if none).
    pub fn constructs(&self, rule: &str) -> &[String] {
        self.rules
            .get(rule)
            .map(|r| r.constructs.as_slice())
            .unwrap_or(&[])
    }

    /// Whether an `[[allow]]` entry suppresses (rule, site).
    pub fn is_allowed(&self, rule: &str, site: &str) -> bool {
        self.allows.iter().any(|a| a.rule == rule && a.site == site)
    }

    /// Parses the config text.
    ///
    /// # Errors
    ///
    /// Returns a message for syntax outside the supported subset, an
    /// unknown severity, or an `[[allow]]` entry missing `rule`,
    /// `site`, or a nonempty `reason`.
    pub fn parse(text: &str) -> Result<AuditConfig, String> {
        let mut cfg = AuditConfig::default();
        // Current section: None (top level), a rule table, or an
        // in-progress allow entry.
        enum Section {
            None,
            Rule(String),
            /// The in-progress entry's keys plus the 1-based line of
            /// its `[[allow]]` header.
            Allow(HashMap<String, Value>, usize),
        }
        let mut section = Section::None;
        let finish_allow = |map: HashMap<String, Value>,
                            line: usize,
                            cfg: &mut AuditConfig|
         -> Result<(), String> {
            let get = |k: &str| -> Option<String> {
                map.get(k).and_then(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
            };
            let rule = get("rule").ok_or("[[allow]] entry missing `rule`")?;
            let site = get("site").ok_or("[[allow]] entry missing `site`")?;
            let reason = get("reason").unwrap_or_default();
            if reason.trim().is_empty() {
                return Err(format!(
                    "[[allow]] for {rule} at {site}: a written `reason` is required"
                ));
            }
            cfg.allows.push(AllowEntry {
                rule,
                site,
                reason,
                line,
            });
            Ok(())
        };
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            let err = |msg: &str| format!("audit.toml:{}: {}", lineno + 1, msg);
            if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                if let Section::Allow(map, l) = std::mem::replace(&mut section, Section::None) {
                    finish_allow(map, l, &mut cfg)?;
                }
                if header.trim() != "allow" {
                    return Err(err(&format!("unknown array table [[{}]]", header.trim())));
                }
                section = Section::Allow(HashMap::new(), lineno + 1);
                continue;
            }
            if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                if let Section::Allow(map, l) = std::mem::replace(&mut section, Section::None) {
                    finish_allow(map, l, &mut cfg)?;
                }
                let header = header.trim();
                let rule = header.strip_prefix("rule.").ok_or_else(|| {
                    err(&format!("unknown table [{header}] (expected [rule.<id>])"))
                })?;
                section = Section::Rule(rule.to_string());
                cfg.rules.entry(rule.to_string()).or_default();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err("expected `key = value`"))?;
            let key = key.trim();
            let value = parse_value(value.trim()).map_err(|e| err(&e))?;
            match &mut section {
                Section::None => {
                    return Err(err(&format!("key `{key}` outside any table")));
                }
                Section::Allow(map, _) => {
                    map.insert(key.to_string(), value);
                }
                Section::Rule(rule) => {
                    let rc = cfg.rules.get_mut(rule).expect("rule entry exists");
                    match (key, value) {
                        ("severity", Value::Str(s)) => {
                            rc.severity = Some(
                                Severity::parse(&s)
                                    .ok_or_else(|| err(&format!("unknown severity {s:?}")))?,
                            );
                        }
                        ("include_tests", Value::Bool(b)) => rc.include_tests = b,
                        ("modules", Value::Array(items)) => rc.modules = items,
                        ("locks", Value::Array(items)) => rc.locks = items,
                        ("constructs", Value::Array(items)) => rc.constructs = items,
                        (k, _) => {
                            return Err(err(&format!("unsupported rule key `{k}`")));
                        }
                    }
                }
            }
        }
        if let Section::Allow(map, l) = section {
            finish_allow(map, l, &mut cfg)?;
        }
        Ok(cfg)
    }
}

#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Bool(bool),
    Array(Vec<String>),
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in line.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(s: &str) -> Result<Value, String> {
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner
            .strip_suffix(']')
            .ok_or("arrays must open and close on one line")?;
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                _ => return Err("arrays may only contain strings".into()),
            }
        }
        return Ok(Value::Array(items));
    }
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner
            .strip_suffix('"')
            .ok_or_else(|| format!("unterminated string: {s}"))?;
        let mut out = String::new();
        let mut escape = false;
        for c in inner.chars() {
            if escape {
                out.push(match c {
                    'n' => '\n',
                    't' => '\t',
                    other => other,
                });
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else {
                out.push(c);
            }
        }
        return Ok(Value::Str(out));
    }
    Err(format!("unsupported value syntax: {s}"))
}

/// Splits on commas outside quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escape = false;
    for c in s.chars() {
        if escape {
            cur.push(c);
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => {
                cur.push(c);
                escape = true;
            }
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    parts.push(cur);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rule_tables_and_allows() {
        let cfg = AuditConfig::parse(
            r#"
# severities
[rule.safety-comment]
severity = "deny"
include_tests = false

[rule.raw-ptr-ops]
modules = ["galloc/inner", "galloc/tls"]

[[allow]]
rule = "relaxed-publish"
site = "galloc/tls::NEXT_THREAD"
reason = "monotonic counter"

[[allow]]
rule = "relaxed-publish"
site = "galloc/inner::clock"
reason = "byte clock"
"#,
        )
        .expect("parse");
        assert_eq!(cfg.severity("safety-comment"), Severity::Deny);
        assert_eq!(cfg.severity("unconfigured"), Severity::Deny);
        assert_eq!(
            cfg.modules("raw-ptr-ops"),
            &["galloc/inner".to_string(), "galloc/tls".to_string()]
        );
        assert_eq!(cfg.allows.len(), 2);
        assert!(cfg.is_allowed("relaxed-publish", "galloc/tls::NEXT_THREAD"));
        assert!(!cfg.is_allowed("relaxed-publish", "galloc/tls::clock"));
    }

    #[test]
    fn allow_without_reason_is_an_error() {
        let e = AuditConfig::parse("[[allow]]\nrule = \"x\"\nsite = \"m\"\nreason = \"  \"\n")
            .unwrap_err();
        assert!(e.contains("reason"), "{e}");
        let e = AuditConfig::parse("[[allow]]\nrule = \"x\"\nsite = \"m\"\n").unwrap_err();
        assert!(e.contains("reason"), "{e}");
    }

    #[test]
    fn rejects_unknown_syntax() {
        assert!(AuditConfig::parse("[weird]\n").is_err());
        assert!(AuditConfig::parse("loose = \"key\"\n").is_err());
        assert!(AuditConfig::parse("[rule.x]\nseverity = \"fatal\"\n").is_err());
        assert!(AuditConfig::parse("[rule.x]\nmystery = true\n").is_err());
    }

    #[test]
    fn comments_and_hash_in_strings() {
        let cfg = AuditConfig::parse("[rule.x] # trailing\nmodules = [\"a#b\"] # comment\n")
            .expect("parse");
        assert_eq!(cfg.modules("x"), &["a#b".to_string()]);
    }

    #[test]
    fn locks_constructs_and_allow_lines() {
        let cfg = AuditConfig::parse(
            "[rule.alloc-reentrancy]\nlocks = [\"pending\", \"learner\"]\n\
             [rule.panic-surface]\nconstructs = [\"unwrap\", \"index\"]\n\
             \n\
             [[allow]]\nrule = \"lock-order\"\nsite = \"a/x->b/y\"\nreason = \"distinct instances\"\n",
        )
        .unwrap();
        assert_eq!(
            cfg.locks("alloc-reentrancy"),
            &["pending".to_string(), "learner".to_string()]
        );
        assert_eq!(
            cfg.constructs("panic-surface"),
            &["unwrap".to_string(), "index".to_string()]
        );
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(cfg.allows[0].line, 6, "line of the [[allow]] header");
    }

    #[test]
    fn downgrade_to_warn() {
        let cfg = AuditConfig::parse("[rule.layout-math]\nseverity = \"warn\"\n").unwrap();
        assert_eq!(cfg.severity("layout-math"), Severity::Warn);
    }
}
