//! R6 `lock-order`: no two locks may be acquired in both orders
//! anywhere in the workspace, and no lock may be re-acquired while it
//! is already held.
//!
//! Every pair of effective lock scopes (own acquisitions, scopes
//! synthesized at guard-returning helper call sites, closure-argument
//! nesting — see [`crate::callgraph`]) contributes `outer → inner`
//! edges, as do calls made under a lock to functions whose lock
//! closure is nonempty. Two locks with edges in both directions are a
//! deadlock-shaped cycle: both acquisition sites are flagged. A
//! self-edge (`std::sync::Mutex` is not reentrant) is flagged
//! directly. The canonical acquisition order itself is documented in
//! DESIGN.md §9; this rule enforces its *consistency*, which is the
//! property that actually prevents deadlock.
//!
//! Locks are named `crate/field` by receiver-chain resolution, so two
//! same-named shard locks (`galloc/inner` taken per shard, one at a
//! time) can false-positive as a self-edge if ever held nested —
//! waive with a rationale explaining why the instances are distinct
//! and ordered.

use super::{emit_ws, WorkspaceRule};
use crate::callgraph::Workspace;
use crate::config::AuditConfig;
use crate::diag::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

pub struct LockOrder;

const ID: &str = "lock-order";

impl WorkspaceRule for LockOrder {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "no lock pair acquired in both orders; no lock re-acquired while held"
    }

    fn check(&self, ws: &Workspace, cfg: &AuditConfig, out: &mut Vec<Diagnostic>) {
        // (outer, inner) → first acquisition site (fn, offset).
        let mut edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
        // Self-edges: (qual, fn, offset), deduped.
        let mut self_edges: BTreeSet<(String, usize, usize)> = BTreeSet::new();

        for (i, f) in ws.fns.iter().enumerate() {
            if !ws.is_prod(i) {
                continue;
            }
            let ctx = &ws.ctxs[f.file];
            let scopes: Vec<_> = f.eff_scopes.iter().filter(|s| !s.whole_body).collect();
            for a in &scopes {
                if ctx.in_test(a.offset) {
                    continue;
                }
                let inside = |off: usize| off > a.bytes.0 && off < a.bytes.1 && off != a.offset;
                // Nested scope acquisitions.
                for b in &scopes {
                    if !inside(b.offset) {
                        continue;
                    }
                    if b.qual == a.qual {
                        self_edges.insert((a.qual.clone(), i, b.offset));
                    } else {
                        edges
                            .entry((a.qual.clone(), b.qual.clone()))
                            .or_insert((i, b.offset));
                    }
                }
                // Calls made under the lock pull in the callee's whole
                // lock closure.
                for (ci, c) in f.summary.calls.iter().enumerate() {
                    if !inside(c.offset) {
                        continue;
                    }
                    let mut quals = BTreeSet::new();
                    for &j in ws.callees(i, ci) {
                        quals.extend(ws.fns[j].locks_closure.iter().cloned());
                    }
                    for q in quals {
                        if q == a.qual {
                            self_edges.insert((a.qual.clone(), i, c.offset));
                        } else {
                            edges.entry((a.qual.clone(), q)).or_insert((i, c.offset));
                        }
                    }
                }
            }
        }

        for (q, i, offset) in &self_edges {
            let f = &ws.fns[*i];
            emit_ws(
                ID,
                ws,
                cfg,
                f.file,
                *offset,
                format!("{}->{}", q, q),
                format!(
                    "lock `{q}` may be re-acquired in `{}` while already held \
                     (Mutex is not reentrant: self-deadlock)",
                    f.item.name
                ),
                out,
            );
        }

        let mut reported: BTreeSet<(String, String)> = BTreeSet::new();
        for ((x, y), &(i, offset)) in &edges {
            let rev = (y.clone(), x.clone());
            let Some(&(ri, roffset)) = edges.get(&rev) else {
                continue;
            };
            // Canonical pair id: lexicographically smaller first, so
            // one [[allow]] covers both directions.
            let pair = if x < y {
                (x.clone(), y.clone())
            } else {
                (y.clone(), x.clone())
            };
            if !reported.insert(pair.clone()) {
                continue;
            }
            let site = format!("{}->{}", pair.0, pair.1);
            let rf = &ws.fns[ri];
            let rctx = &ws.ctxs[rf.file];
            let rline = rctx.line_of(roffset);
            let f = &ws.fns[i];
            emit_ws(
                ID,
                ws,
                cfg,
                f.file,
                offset,
                site.clone(),
                format!(
                    "lock-order conflict: `{y}` acquired under `{x}` in `{}`, but the \
                     reverse order exists in `{}` ({}:{})",
                    f.item.name,
                    rf.item.name,
                    rctx.path.display(),
                    rline
                ),
                out,
            );
            emit_ws(
                ID,
                ws,
                cfg,
                rf.file,
                roffset,
                site,
                format!(
                    "lock-order conflict: `{x}` acquired under `{y}` in `{}`, but the \
                     reverse order exists in `{}` ({}:{})",
                    rf.item.name,
                    f.item.name,
                    ws.ctxs[f.file].path.display(),
                    ws.ctxs[f.file].line_of(offset)
                ),
                out,
            );
        }
    }
}
