//! Diagnostics: severity, rendering (human and JSON), and exit-code
//! policy.

use std::fmt;

/// Diagnostic severity. Rules are deny-by-default; `audit.toml` can
/// downgrade a rule to `warn` or disable it with `allow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Deny,
    Warn,
    Allow,
}

impl Severity {
    pub fn parse(s: &str) -> Option<Severity> {
        match s {
            "deny" => Some(Severity::Deny),
            "warn" => Some(Severity::Warn),
            "allow" => Some(Severity::Allow),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
            Severity::Allow => "allow",
        })
    }
}

/// One finding, pinned to a file:line:col span.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule id, e.g. `layout-math`.
    pub rule: &'static str,
    pub severity: Severity,
    /// Repo-relative path.
    pub file: String,
    /// 1-based.
    pub line: usize,
    /// 1-based.
    pub col: usize,
    pub message: String,
    /// Allowlist site id (module, or `module::ident`) for rules with
    /// per-site allowlists; used to match `[[allow]]` entries and
    /// reported in JSON so new allow entries can be written from tool
    /// output.
    pub site: String,
}

impl Diagnostic {
    /// Human-readable one-line form:
    /// `file:line:col: deny[rule]: message`.
    pub fn render_human(&self) -> String {
        format!(
            "{}:{}:{}: {}[{}]: {}",
            self.file, self.line, self.col, self.severity, self.rule, self.message
        )
    }

    /// JSON object form (no external serializer available offline, so
    /// this is hand-rolled; all strings are escaped).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":{},\"severity\":{},\"file\":{},\"line\":{},\"col\":{},\"site\":{},\"message\":{}}}",
            json_str(self.rule),
            json_str(&self.severity.to_string()),
            json_str(&self.file),
            self.line,
            self.col,
            json_str(&self.site),
            json_str(&self.message),
        )
    }
}

/// Escapes a string for JSON output.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a full report in JSON: diagnostics plus per-severity counts.
pub fn render_json_report(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(|d| d.render_json()).collect();
    let denies = diags
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .count();
    let warns = diags
        .iter()
        .filter(|d| d.severity == Severity::Warn)
        .count();
    format!(
        "{{\"diagnostics\":[{}],\"counts\":{{\"deny\":{},\"warn\":{}}}}}",
        items.join(","),
        denies,
        warns
    )
}

/// Renders a SARIF 2.1.0 log for GitHub code scanning. `rules` pairs
/// each rule id with its one-line description (the driver's rule
/// metadata); diagnostics referencing unlisted rules (e.g.
/// `stale-waiver`) still render, they just carry no rule index.
pub fn render_sarif(diags: &[Diagnostic], rules: &[(&str, &str)]) -> String {
    let rule_objs: Vec<String> = rules
        .iter()
        .map(|(id, desc)| {
            format!(
                "{{\"id\":{},\"shortDescription\":{{\"text\":{}}}}}",
                json_str(id),
                json_str(desc)
            )
        })
        .collect();
    let results: Vec<String> = diags
        .iter()
        .map(|d| {
            let level = match d.severity {
                Severity::Deny => "error",
                Severity::Warn => "warning",
                Severity::Allow => "note",
            };
            let rule_index = rules.iter().position(|(id, _)| *id == d.rule);
            let index = rule_index
                .map(|i| format!(",\"ruleIndex\":{i}"))
                .unwrap_or_default();
            format!(
                "{{\"ruleId\":{}{index},\"level\":{},\"message\":{{\"text\":{}}},\
                 \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":\
                 {{\"uri\":{}}},\"region\":{{\"startLine\":{},\"startColumn\":{}}}}}}}]}}",
                json_str(d.rule),
                json_str(level),
                json_str(&d.message),
                json_str(&d.file.replace('\\', "/")),
                d.line.max(1),
                d.col.max(1),
            )
        })
        .collect();
    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"lifepred-audit\",\"informationUri\":\
         \"https://github.com/lifepred\",\"rules\":[{}]}}}},\"results\":[{}]}}]}}",
        rule_objs.join(","),
        results.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            rule: "layout-math",
            severity: Severity::Deny,
            file: "crates/galloc/src/inner.rs".into(),
            line: 7,
            col: 9,
            message: "bare `+` on layout/size values".into(),
            site: "galloc/inner::size".into(),
        }
    }

    #[test]
    fn human_format() {
        assert_eq!(
            diag().render_human(),
            "crates/galloc/src/inner.rs:7:9: deny[layout-math]: bare `+` on layout/size values"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn sarif_shape_and_levels() {
        let mut w = diag();
        w.severity = Severity::Warn;
        let s = render_sarif(
            &[diag(), w],
            &[("layout-math", "layout/size arithmetic uses checked helpers")],
        );
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"name\":\"lifepred-audit\""));
        assert!(s.contains("\"ruleId\":\"layout-math\""));
        assert!(s.contains("\"ruleIndex\":0"));
        assert!(s.contains("\"level\":\"error\""));
        assert!(s.contains("\"level\":\"warning\""));
        assert!(s.contains("\"startLine\":7"));
        assert!(s.contains("\"uri\":\"crates/galloc/src/inner.rs\""));
    }

    #[test]
    fn json_report_counts() {
        let mut w = diag();
        w.severity = Severity::Warn;
        let report = render_json_report(&[diag(), w]);
        assert!(report.contains("\"counts\":{\"deny\":1,\"warn\":1}"));
        assert!(report.starts_with("{\"diagnostics\":["));
    }
}
