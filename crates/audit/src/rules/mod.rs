//! The rule registry: a per-file rule is a small visitor over a
//! [`FileCtx`], registered in [`all_rules`]; a cross-file rule runs
//! once over the [`Workspace`], registered in [`all_workspace_rules`].
//! Adding a rule is adding a module and one line here.

use crate::callgraph::Workspace;
use crate::config::AuditConfig;
use crate::ctx::FileCtx;
use crate::diag::{Diagnostic, Severity};

mod layout_math;
mod panic_surface;

use layout_math::LayoutMath;
use panic_surface::PanicSurface;

/// One audit rule.
pub trait Rule {
    /// Stable id used in config, allowlists, and output
    /// (kebab-case, e.g. `layout-math`).
    fn id(&self) -> &'static str;
    /// One-line description for `lifepred-audit rules`.
    fn description(&self) -> &'static str;
    /// Emits diagnostics for one file.
    fn check(&self, ctx: &FileCtx, cfg: &AuditConfig, out: &mut Vec<Diagnostic>);
}

/// All registered per-file rules, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![Box::new(LayoutMath)]
}

/// One cross-file rule: runs once over the whole workspace after the
/// call-graph fixpoints ([`crate::callgraph::Workspace::build`]).
pub trait WorkspaceRule {
    /// Stable id used in config, allowlists, and output.
    fn id(&self) -> &'static str;
    /// One-line description for `lifepred-audit rules`.
    fn description(&self) -> &'static str;
    /// Emits diagnostics for the whole workspace.
    fn check(&self, ws: &Workspace, cfg: &AuditConfig, out: &mut Vec<Diagnostic>);
}

/// All registered workspace rules, in reporting order.
pub fn all_workspace_rules() -> Vec<Box<dyn WorkspaceRule>> {
    vec![Box::new(PanicSurface)]
}

/// The id of the runner's own check: an `[[allow]]` entry that matched
/// no finding.
pub const STALE_WAIVER: &str = "stale-waiver";

/// Every registered rule as `(id, description)`, in reporting order,
/// followed by [`STALE_WAIVER`].
pub fn catalogue() -> Vec<(&'static str, &'static str)> {
    let per_file = all_rules().into_iter().map(|r| (r.id(), r.description()));
    let workspace = all_workspace_rules()
        .into_iter()
        .map(|r| (r.id(), r.description()));
    per_file
        .chain(workspace)
        .chain([(
            STALE_WAIVER,
            "[[allow]] entries in audit.toml must match a finding",
        )])
        .collect()
}

/// Whether `id` names a registered rule (`stale-waiver` is not one: it
/// cannot be configured or waived).
pub fn is_registered(id: &str) -> bool {
    id != STALE_WAIVER && catalogue().iter().any(|&(known, _)| known == id)
}

/// Shared diagnostic constructor: positions the finding at `offset`
/// and fills severity from config.
pub(crate) fn emit(
    rule: &'static str,
    ctx: &FileCtx,
    cfg: &AuditConfig,
    offset: usize,
    site: String,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    let severity = cfg.severity(rule);
    if severity == Severity::Allow {
        return;
    }
    let (line, col) = ctx.line_col(offset);
    out.push(Diagnostic {
        rule,
        severity,
        file: ctx.path.display().to_string(),
        line,
        col,
        message,
        site,
    });
}
