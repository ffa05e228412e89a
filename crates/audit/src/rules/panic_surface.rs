//! `panic-surface`: panicking constructs must not be reachable
//! from the allocator's entry points or run while an allocator lock is
//! held.
//!
//! A panic inside `GlobalAlloc::alloc`/`dealloc` aborts the process
//! (panic-in-panic during unwinding's own allocation), and a panic
//! while a shard or remote-stack lock is held poisons-or-wedges every
//! other thread. This rule walks the in-crate call graph from each
//! `GlobalAlloc` and `Drop` impl fn of the in-scope crates and flags:
//!
//! * direct panicking constructs (`unwrap`/`expect`, `panic!`-family
//!   macros, expression indexing) in every reachable fn — one
//!   diagnostic per (fn, construct kind);
//! * calls into *other* crates whose transitive summary panics
//!   (reported at the call site, since the callee crate may be
//!   general-purpose code that is fine to panic elsewhere);
//! * panic sites lexically inside any effective lock scope of an
//!   in-scope crate, reachable or not.
//!
//! In-scope crates come from `modules = [...]` (entries without `/`
//! are crate names); by default, every crate with a `GlobalAlloc`
//! impl. `debug_assert!` is exempt by
//! construction — it compiles out of release builds and is the
//! sanctioned invariant-check idiom.

use super::{emit, WorkspaceRule};
use crate::callgraph::Workspace;
use crate::config::AuditConfig;
use crate::diag::Diagnostic;
use crate::summary::PanicKind;
use std::collections::BTreeSet;

pub struct PanicSurface;

const ID: &str = "panic-surface";

impl WorkspaceRule for PanicSurface {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/indexing/panics reachable from GlobalAlloc/Drop or under allocator locks"
    }

    fn check(&self, ws: &Workspace, cfg: &AuditConfig, out: &mut Vec<Diagnostic>) {
        let cfg_modules = cfg.modules(ID);
        let in_scope = |krate: &str| -> bool {
            if cfg_modules.is_empty() {
                ws.galloc_crates.contains(krate)
            } else {
                cfg_modules.iter().any(|m| m == krate)
            }
        };

        // Reachability from GlobalAlloc/Drop impl fns, within each
        // in-scope crate (cross-crate calls are reported, not walked).
        let mut reachable = vec![false; ws.fns.len()];
        let mut queue: Vec<usize> = Vec::new();
        for (i, f) in ws.fns.iter().enumerate() {
            if ws.is_prod(i)
                && in_scope(&f.krate)
                && matches!(
                    f.item.impl_trait.as_deref(),
                    Some("GlobalAlloc") | Some("Drop")
                )
            {
                reachable[i] = true;
                queue.push(i);
            }
        }
        while let Some(i) = queue.pop() {
            let krate = ws.fns[i].krate.clone();
            for ci in 0..ws.fns[i].summary.calls.len() {
                for &j in ws.callees(i, ci) {
                    if !reachable[j] && ws.fns[j].krate == krate && ws.is_prod(j) {
                        reachable[j] = true;
                        queue.push(j);
                    }
                }
            }
        }

        // Deduplication: one diagnostic per (fn, kind) for direct
        // sites, one per (fn, callee) for cross-crate calls, and never
        // two diagnostics for the same byte offset.
        let mut seen_offsets: BTreeSet<(usize, usize)> = BTreeSet::new();

        for (i, f) in ws.fns.iter().enumerate() {
            if !ws.is_prod(i) {
                continue;
            }
            let ctx = &ws.ctxs[f.file];
            let site = format!("{}::{}", f.module, f.item.name);

            if reachable[i] {
                let mut kinds_done: BTreeSet<PanicKind> = BTreeSet::new();
                for p in &f.summary.panics {
                    if ctx.in_test(p.offset) || !kinds_done.insert(p.kind) {
                        continue;
                    }
                    if !seen_offsets.insert((f.file, p.offset)) {
                        continue;
                    }
                    emit(
                        ID,
                        ctx,
                        cfg,
                        p.offset,
                        site.clone(),
                        format!(
                            "`{}` in `{}` is reachable from the GlobalAlloc/Drop surface \
                             of crate `{}`: a panic here aborts or wedges the allocator",
                            p.kind.name(),
                            f.item.name,
                            f.krate
                        ),
                        out,
                    );
                }
                let mut callees_done: BTreeSet<&str> = BTreeSet::new();
                for (ci, c) in f.summary.calls.iter().enumerate() {
                    if ctx.in_test(c.offset) {
                        continue;
                    }
                    let foreign_panics = ws
                        .callees(i, ci)
                        .iter()
                        .any(|&j| ws.fns[j].krate != f.krate && !ws.fns[j].panic_kinds.is_empty());
                    if !foreign_panics || !callees_done.insert(c.name.as_str()) {
                        continue;
                    }
                    if !seen_offsets.insert((f.file, c.offset)) {
                        continue;
                    }
                    emit(
                        ID,
                        ctx,
                        cfg,
                        c.offset,
                        site.clone(),
                        format!(
                            "`{}` calls `{}` (another crate) which may panic, and is \
                             reachable from the GlobalAlloc/Drop surface of crate `{}`",
                            f.item.name, c.name, f.krate
                        ),
                        out,
                    );
                }
            }

            // Panics while a lock of an in-scope crate is held.
            if in_scope(&f.krate) {
                for s in &f.eff_scopes {
                    if ctx.in_test(s.offset) {
                        continue;
                    }
                    for p in &f.summary.panics {
                        if p.offset <= s.bytes.0 || p.offset >= s.bytes.1 || ctx.in_test(p.offset) {
                            continue;
                        }
                        if !seen_offsets.insert((f.file, p.offset)) {
                            continue;
                        }
                        emit(
                            ID,
                            ctx,
                            cfg,
                            p.offset,
                            site.clone(),
                            format!(
                                "`{}` in `{}` can panic while `{}` is held: other \
                                 threads wedge on the poisoned lock",
                                p.kind.name(),
                                f.item.name,
                                s.qual
                            ),
                            out,
                        );
                    }
                }
            }
        }
    }
}
