//! Honest host metadata for recorded bench results.
//!
//! Every recorded `results/BENCH_*.json` should say what machine
//! produced it — an overhead percentage measured on a one-core CI
//! container and one measured on a 32-core workstation are different
//! facts. [`BenchHost::probe`] gathers the three facts that matter for
//! interpreting our numbers (logical cores, kernel release, rustc
//! version) from std and the toolchain alone, degrading to
//! `"unknown"` rather than failing: a bench run must never be blocked
//! by metadata.

use lifepred_obs::json::escape;

/// What we know about the machine a bench ran on.
#[derive(Debug, Clone)]
pub struct BenchHost {
    /// Logical cores visible to this process.
    pub cores: usize,
    /// Kernel release (`uname -r` equivalent), or `"unknown"`.
    pub kernel: String,
    /// `rustc --version` of the toolchain on `PATH`, or `"unknown"`.
    pub rustc: String,
}

impl BenchHost {
    /// Probes the current machine.
    #[must_use]
    pub fn probe() -> BenchHost {
        BenchHost {
            cores: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            kernel: kernel_release(),
            rustc: rustc_version(),
        }
    }

    /// The probe as JSON object fields (no braces), for embedding in a
    /// bench's hand-written results JSON:
    /// `"cores": 8, "kernel": "...", "rustc": "..."`.
    #[must_use]
    pub fn json_fields(&self) -> String {
        format!(
            "\"cores\": {}, \"kernel\": \"{}\", \"rustc\": \"{}\"",
            self.cores,
            escape(&self.kernel),
            escape(&self.rustc)
        )
    }
}

/// Kernel release string. Linux exposes it in procfs; elsewhere we
/// shell out to `uname -r` and fall back to `"unknown"`.
fn kernel_release() -> String {
    if let Ok(s) = std::fs::read_to_string("/proc/sys/kernel/osrelease") {
        return s.trim().to_owned();
    }
    command_first_line("uname", &["-r"]).unwrap_or_else(|| "unknown".to_owned())
}

/// `rustc --version`, honoring the `RUSTC` override cargo sets for
/// wrapped toolchains.
fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    command_first_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_owned())
}

/// Runs `cmd args...` and returns its trimmed first stdout line.
fn command_first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim();
    (!line.is_empty()).then(|| line.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_plausible_facts() {
        let host = BenchHost::probe();
        assert!(host.cores >= 1);
        assert!(!host.kernel.is_empty());
        assert!(!host.rustc.is_empty());
    }

    #[test]
    fn json_fields_are_valid_object_body() {
        let host = BenchHost {
            cores: 4,
            kernel: "6.1.0-test".to_owned(),
            rustc: "rustc 1.80.0 (\"quoted\")".to_owned(),
        };
        let body = host.json_fields();
        assert_eq!(
            body,
            "\"cores\": 4, \"kernel\": \"6.1.0-test\", \
             \"rustc\": \"rustc 1.80.0 (\\\"quoted\\\")\""
        );
    }

    #[test]
    fn escaping_covers_controls() {
        let host = BenchHost {
            cores: 1,
            kernel: "a\tb".to_owned(),
            rustc: "plain".to_owned(),
        };
        assert_eq!(
            host.json_fields(),
            "\"cores\": 1, \"kernel\": \"a\\tb\", \"rustc\": \"plain\""
        );
    }
}
