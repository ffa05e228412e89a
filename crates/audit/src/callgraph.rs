//! Cross-file call-graph: indexes every fn in the workspace, resolves
//! call sites by name (type-qualified where possible, crate-first
//! otherwise), and propagates per-function summaries to a fixpoint.
//!
//! One fixpoint runs over the graph: the set of `PanicKind`s a call
//! into each function may raise (least fixpoint, union).
//!
//! Each fn also gets its **effective lock scopes**: its own
//! acquisitions, scopes synthesized at guard-returning helper call
//! sites (`fn lock(&Mutex<T>) -> MutexGuard` — the lock is attributed
//! at each call site, so the scope extent is the caller's binding, not
//! the helper body), and closure-argument nesting (a closure passed to
//! a callee that holds locks runs under those locks).

use crate::ctx::FileCtx;
use crate::parse::{index_fns, index_struct_fields, nested_bodies, param_names, FnItem};
use crate::summary::{lock_scope_range, summarize, FnSummary, PanicKind};
use std::collections::{BTreeSet, HashMap};

/// One effective lock scope: a byte range of one file over which a
/// named lock is (conservatively) held.
#[derive(Debug, Clone)]
pub struct EffScope {
    /// Qualified lock name: `crate/lock` (`galloc/pending`).
    pub qual: String,
    /// Byte range of the file over which the lock is held.
    pub bytes: (usize, usize),
    /// Byte offset of the acquisition (diagnostic anchor).
    pub offset: usize,
}

/// One function with its propagated summary.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into [`Workspace::ctxs`].
    pub file: usize,
    /// Module id of the file (`galloc/inner`).
    pub module: String,
    /// Crate part of the module id (`galloc`).
    pub krate: String,
    pub item: FnItem,
    pub summary: FnSummary,
    /// Panic kinds of this fn or anything it may call.
    pub panic_kinds: BTreeSet<PanicKind>,
    /// Effective lock scopes (see module docs).
    pub eff_scopes: Vec<EffScope>,
}

/// The cross-file analysis state: every fn, with name indexes for call
/// resolution.
pub struct Workspace<'a> {
    pub ctxs: &'a [FileCtx],
    pub fns: Vec<FnInfo>,
    /// fn name → fn indices, workspace-wide.
    by_name: HashMap<String, Vec<usize>>,
    /// (crate, fn name) → fn indices.
    by_crate_name: HashMap<(String, String), Vec<usize>>,
    /// (impl type, fn name) → fn indices, for `Type::fn_name(...)`.
    by_type_name: HashMap<(String, String), Vec<usize>>,
    /// struct field name → type idents seen in any field of that name
    /// (wrappers included: `pending: Mutex<Pending>` → Mutex, Pending).
    field_types: HashMap<String, Vec<String>>,
    /// Crates containing an `impl GlobalAlloc` (the deployable
    /// allocator surface).
    pub galloc_crates: BTreeSet<String>,
    /// Per fn, per call site: resolved candidate fn indices.
    resolved: Vec<Vec<Vec<usize>>>,
}

fn crate_of(module: &str) -> String {
    module.split('/').next().unwrap_or(module).to_string()
}

/// Method names that shadow ubiquitous std/core methods: a bare-name
/// method call with one of these never binds a same-named workspace fn
/// (`block.cast::<usize>().write(n)` is `ptr::write`, and
/// `System.realloc(..)` is the std `GlobalAlloc`, not a workspace
/// fn). Field-typed and `self.`/`Type::` resolution still apply.
const STD_METHOD_NAMES: &[&str] = &[
    "write",
    "read",
    "get",
    "set",
    "take",
    "swap",
    "next",
    "clone",
    "drain",
    "clear",
    "flush",
    "len",
    "contains",
    "iter",
    "record",
    "push",
    "pop",
    "insert",
    "remove",
    "send",
    "recv",
    "min",
    "max",
    "abs",
    "find",
    "run",
    "start",
    "finish",
    "call",
    "drop",
    "new",
    "alloc",
    "dealloc",
    "realloc",
    "alloc_zeroed",
    "chain",
    "map",
    "filter",
    "fold",
    "zip",
    "rev",
    "enumerate",
    "any",
    "all",
    "position",
    "count",
    "last",
    "sum",
    "product",
    "skip",
];

impl<'a> Workspace<'a> {
    /// Indexes and summarizes every fn in `ctxs`, then runs the
    /// fixpoint and assembles effective scopes.
    pub fn build(ctxs: &'a [FileCtx]) -> Workspace<'a> {
        let mut fns = Vec::new();
        for (file, ctx) in ctxs.iter().enumerate() {
            let items = index_fns(ctx);
            for item in &items {
                let nested = nested_bodies(item, &items);
                let summary = summarize(ctx, item.body, &nested);
                let panic_kinds = summary.panics.iter().map(|p| p.kind).collect();
                fns.push(FnInfo {
                    file,
                    module: ctx.module.clone(),
                    krate: crate_of(&ctx.module),
                    item: item.clone(),
                    summary,
                    panic_kinds,
                    eff_scopes: Vec::new(),
                });
            }
        }

        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        let mut by_crate_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut by_type_name: HashMap<(String, String), Vec<usize>> = HashMap::new();
        let mut galloc_crates = BTreeSet::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.item.name.clone()).or_default().push(i);
            by_crate_name
                .entry((f.krate.clone(), f.item.name.clone()))
                .or_default()
                .push(i);
            if let Some(ty) = &f.item.impl_type {
                by_type_name
                    .entry((ty.clone(), f.item.name.clone()))
                    .or_default()
                    .push(i);
            }
            if f.item.impl_trait.as_deref() == Some("GlobalAlloc") {
                galloc_crates.insert(f.krate.clone());
            }
        }

        let mut field_types: HashMap<String, Vec<String>> = HashMap::new();
        for ctx in ctxs {
            for (field, tys) in index_struct_fields(ctx) {
                let entry = field_types.entry(field).or_default();
                for t in tys {
                    if !entry.contains(&t) {
                        entry.push(t);
                    }
                }
            }
        }

        let mut ws = Workspace {
            ctxs,
            fns,
            by_name,
            by_crate_name,
            by_type_name,
            field_types,
            galloc_crates,
            resolved: Vec::new(),
        };
        ws.resolve_calls();
        ws.panics_fixpoint();
        ws.assemble_eff_scopes();
        ws
    }

    /// Candidate fn indices for call site `c` of fn `i`.
    ///
    /// Resolution is deliberately conservative — merging same-named
    /// fns poisons the fixpoint (every `allocate_inner` would inherit
    /// every other `allocate_inner`'s panics):
    ///
    /// 1. `Type::name(...)` → fns named `name` in `impl Type` blocks.
    /// 2. `self.name(...)` → fns named `name` in impls of the caller's
    ///    own impl type.
    /// 3. Method calls on a field-named receiver → the field's
    ///    declared type(s): `inner.feedback.on_free(..)` resolves via
    ///    `feedback: FeedbackTable`. Wrapper generics are tried too
    ///    (a call through `Mutex<Pending>`'s guard lands on
    ///    `Pending`); it must land on exactly one impl type.
    /// 4. Method calls otherwise → only a workspace-unique `name`
    ///    resolves, and never one shadowing a ubiquitous std method
    ///    (`ptr.write(..)` must not bind a workspace `write`).
    /// 5. Free calls → a same-crate-unique `name`, else a
    ///    workspace-unique one.
    ///
    /// Everything else gets no candidates (assumed effect-free — the
    /// documented lexical-analysis gap).
    fn resolve_calls(&mut self) {
        let unique = |v: Option<&Vec<usize>>| -> Vec<usize> {
            match v {
                Some(v) if v.len() == 1 => v.clone(),
                _ => Vec::new(),
            }
        };
        let mut resolved = Vec::with_capacity(self.fns.len());
        for f in &self.fns {
            let mut per_fn = Vec::with_capacity(f.summary.calls.len());
            for c in &f.summary.calls {
                let cands: Vec<usize> = if let Some(q) = &c.qual {
                    self.by_type_name
                        .get(&(q.clone(), c.name.clone()))
                        .cloned()
                        .unwrap_or_default()
                } else if c.recv.as_deref() == Some("self") {
                    f.item
                        .impl_type
                        .as_ref()
                        .and_then(|t| self.by_type_name.get(&(t.clone(), c.name.clone())))
                        .cloned()
                        .unwrap_or_default()
                } else if let Some(recv) = &c.recv {
                    if recv == "<expr>" {
                        Vec::new()
                    } else {
                        let by_field: Vec<&Vec<usize>> = self
                            .field_types
                            .get(recv)
                            .map(|tys| {
                                tys.iter()
                                    .filter_map(|t| {
                                        self.by_type_name.get(&(t.clone(), c.name.clone()))
                                    })
                                    .collect()
                            })
                            .unwrap_or_default();
                        if by_field.len() == 1 {
                            by_field[0].clone()
                        } else if by_field.is_empty()
                            && !STD_METHOD_NAMES.contains(&c.name.as_str())
                        {
                            unique(self.by_name.get(&c.name))
                        } else {
                            Vec::new()
                        }
                    }
                } else {
                    let same_crate =
                        unique(self.by_crate_name.get(&(f.krate.clone(), c.name.clone())));
                    if same_crate.is_empty() {
                        unique(self.by_name.get(&c.name))
                    } else {
                        same_crate
                    }
                };
                per_fn.push(cands);
            }
            resolved.push(per_fn);
        }
        self.resolved = resolved;
    }

    /// Least fixpoint: union `panic_kinds` over resolved callees until
    /// stable.
    fn panics_fixpoint(&mut self) {
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..self.fns.len() {
                let mut panics = self.fns[i].panic_kinds.clone();
                for &j in self.resolved[i].iter().flatten() {
                    panics.extend(self.fns[j].panic_kinds.iter().copied());
                }
                if panics.len() != self.fns[i].panic_kinds.len() {
                    self.fns[i].panic_kinds = panics;
                    changed = true;
                }
            }
        }
    }

    /// Builds each fn's effective scope list (see module docs).
    fn assemble_eff_scopes(&mut self) {
        let mut all: Vec<Vec<EffScope>> = Vec::with_capacity(self.fns.len());
        for (i, f) in self.fns.iter().enumerate() {
            let ctx = &self.ctxs[f.file];
            let toks = &ctx.toks;
            let bytes_of = |range: (usize, usize)| -> (usize, usize) {
                let a = range.0.min(toks.len() - 1);
                let b = range.1.min(toks.len() - 1);
                (toks[a].start, toks[b].end)
            };
            let mut scopes = Vec::new();
            for l in &f.summary.locks {
                if f.summary.returns_guard_of.as_deref() == Some(l.name.as_str()) {
                    continue;
                }
                scopes.push(EffScope {
                    qual: format!("{}/{}", f.krate, l.name),
                    bytes: bytes_of(l.toks),
                    offset: l.offset,
                });
            }
            for (ci, c) in f.summary.calls.iter().enumerate() {
                // Guard-returning helper call: the caller now holds the
                // helper's lock for the extent of the binding.
                let returns_guard = self.resolved[i][ci]
                    .iter()
                    .any(|&j| self.fns[j].summary.returns_guard_of.is_some());
                if returns_guard {
                    if let Some(field) = &c.first_arg_field {
                        scopes.push(EffScope {
                            qual: format!("{}/{}", f.krate, field),
                            bytes: bytes_of(lock_scope_range(ctx, c.tok, f.item.body)),
                            offset: c.offset,
                        });
                    }
                }
                // Closure argument to a lock-holding callee: the
                // closure body runs under the locks the callee holds
                // at its closure-invocation sites (`with_learner`
                // holds `learner` — not `table` — when it calls `f`).
                if let Some(range) = c.closure_arg {
                    let mut quals = BTreeSet::new();
                    for &j in &self.resolved[i][ci] {
                        quals.extend(self.locks_at_param_calls(j));
                    }
                    for qual in quals {
                        scopes.push(EffScope {
                            qual,
                            bytes: bytes_of(range),
                            offset: c.offset,
                        });
                    }
                }
            }
            all.push(scopes);
        }
        for (f, s) in self.fns.iter_mut().zip(all) {
            f.eff_scopes = s;
        }
    }

    /// Locks fn `j` holds at its closure-invocation sites: its own
    /// acquisitions (direct or via a guard-returning helper) whose
    /// scope contains a bare call to one of `j`'s parameters. This is
    /// what a closure passed to `j` runs under. Closures forwarded
    /// deeper than one callee are not tracked (documented gap).
    fn locks_at_param_calls(&self, j: usize) -> Vec<String> {
        let f = &self.fns[j];
        let ctx = &self.ctxs[f.file];
        let params = param_names(ctx, &f.item);
        if params.is_empty() {
            return Vec::new();
        }
        let invocations: Vec<usize> = f
            .summary
            .calls
            .iter()
            .filter(|c| c.qual.is_none() && c.recv.is_none() && params.contains(&c.name))
            .map(|c| c.tok)
            .collect();
        if invocations.is_empty() {
            return Vec::new();
        }
        let mut scopes: Vec<(String, (usize, usize))> = Vec::new();
        for l in &f.summary.locks {
            if f.summary.returns_guard_of.as_deref() == Some(l.name.as_str()) {
                continue;
            }
            scopes.push((format!("{}/{}", f.krate, l.name), l.toks));
        }
        for (ci, c) in f.summary.calls.iter().enumerate() {
            if let Some(field) = &c.first_arg_field {
                if self.resolved[j][ci]
                    .iter()
                    .any(|&k| self.fns[k].summary.returns_guard_of.is_some())
                {
                    scopes.push((
                        format!("{}/{}", f.krate, field),
                        lock_scope_range(ctx, c.tok, f.item.body),
                    ));
                }
            }
        }
        scopes
            .into_iter()
            .filter(|(_, toks)| invocations.iter().any(|&t| t > toks.0 && t <= toks.1))
            .map(|(q, _)| q)
            .collect()
    }

    /// Resolved callee candidates for call `ci` of fn `i`.
    pub fn callees(&self, i: usize, ci: usize) -> &[usize] {
        &self.resolved[i][ci]
    }

    /// Whether fn `i` is (non-test) production code.
    pub fn is_prod(&self, i: usize) -> bool {
        let f = &self.fns[i];
        !f.item.is_test && !self.ctxs[f.file].in_test(f.item.offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn build_ctxs(files: &[(&str, &str)]) -> Vec<FileCtx> {
        files
            .iter()
            .map(|(module, src)| {
                FileCtx::new(
                    PathBuf::from(format!("{module}.rs")),
                    src.to_string(),
                    module.to_string(),
                )
            })
            .collect()
    }

    fn find<'a>(ws: &'a Workspace, name: &str) -> &'a FnInfo {
        ws.fns.iter().find(|f| f.item.name == name).unwrap()
    }

    #[test]
    fn panics_propagate_across_files_and_cycles() {
        let ctxs = build_ctxs(&[
            (
                "a/one",
                "pub fn top() { middle(); }\n\
                 pub fn middle() { if x { bottom(); } else { top(); } }\n",
            ),
            ("b/two", "pub fn bottom() { o.unwrap(); middle(); }\n"),
        ]);
        let ws = Workspace::build(&ctxs);
        // The a→b→a cycle converges; effects reach every member.
        for name in ["top", "middle", "bottom"] {
            assert!(
                find(&ws, name).panic_kinds.contains(&PanicKind::Unwrap),
                "{name} must inherit unwrap"
            );
        }
    }

    #[test]
    fn guard_returning_helper_attributes_lock_to_caller() {
        let ctxs = build_ctxs(&[(
            "adaptive/shared",
            "fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> { m.lock().unwrap_or_else(|e| e.into_inner()) }\n\
             pub fn with_learner(&self) { let g = lock(&self.learner); g.absorb(); }\n",
        )]);
        let ws = Workspace::build(&ctxs);
        assert!(
            find(&ws, "lock").eff_scopes.is_empty(),
            "returned guard is attributed at call sites, not the helper"
        );
        let wl = find(&ws, "with_learner");
        assert!(wl.eff_scopes.iter().any(|s| s.qual == "adaptive/learner"));
    }

    #[test]
    fn closure_argument_runs_under_callee_locks() {
        let ctxs = build_ctxs(&[
            (
                "adaptive/shared",
                "pub fn with_learner(&self, f: F) { let g = self.learner.lock(); f(&g); }\n",
            ),
            (
                "galloc/inner",
                "pub fn roll(&self) { self.pred.with_learner(|l| { let m = self.meta.lock(); l.fold(m); }); }\n",
            ),
        ]);
        let ws = Workspace::build(&ctxs);
        let roll = find(&ws, "roll");
        let learner = roll
            .eff_scopes
            .iter()
            .find(|s| s.qual == "adaptive/learner")
            .expect("closure must run under the callee's learner lock");
        let meta = roll
            .eff_scopes
            .iter()
            .find(|s| s.qual == "galloc/meta")
            .unwrap();
        assert!(
            meta.offset >= learner.bytes.0 && meta.offset < learner.bytes.1,
            "meta acquisition happens inside the synthesized learner scope"
        );
    }

    #[test]
    fn global_alloc_impls_mark_their_crate() {
        let ctxs = build_ctxs(&[(
            "galloc/lib",
            "unsafe impl GlobalAlloc for G {\n\
               unsafe fn alloc(&self, l: Layout) -> *mut u8 { self.path(l) }\n\
             }\n",
        )]);
        let ws = Workspace::build(&ctxs);
        assert_eq!(ws.galloc_crates.iter().collect::<Vec<_>>(), ["galloc"]);
    }

    #[test]
    fn type_qualified_calls_resolve_to_the_right_impl() {
        let ctxs = build_ctxs(&[
            ("a/x", "impl Foo { pub fn make() { o.unwrap(); } }\n"),
            ("b/y", "impl Bar { pub fn make() {} }\n"),
            ("c/z", "pub fn f() { Bar::make(); }\n"),
        ]);
        let ws = Workspace::build(&ctxs);
        assert!(
            find(&ws, "f").panic_kinds.is_empty(),
            "Bar::make must not resolve to Foo::make"
        );
    }

    #[test]
    fn field_typed_receivers_disambiguate_same_named_methods() {
        // `on_free` exists on two types; the receiver's struct-field
        // type (through the Mutex wrapper) must pick FeedbackTable,
        // so `free` inherits its unwrap and NOT the learner's indexing.
        let ctxs = build_ctxs(&[
            (
                "galloc/lib",
                "pub struct G { feedback: Mutex<FeedbackTable> }\n\
                 pub fn free(&self) { self.inner.feedback.on_free(1); }\n",
            ),
            (
                "galloc/feedback",
                "impl FeedbackTable { pub fn on_free(&self, n: u64) { o.unwrap(); } }\n",
            ),
            (
                "adaptive/learner",
                "impl Learner { pub fn on_free(&self, n: u64) { self.hist[n]; } }\n",
            ),
        ]);
        let ws = Workspace::build(&ctxs);
        let free = find(&ws, "free");
        assert!(
            free.panic_kinds.contains(&PanicKind::Unwrap),
            "field type must bind on_free to FeedbackTable"
        );
        assert!(
            !free.panic_kinds.contains(&PanicKind::Index),
            "the ambiguous learner on_free must not merge in (it would poison the fixpoint)"
        );
    }

    #[test]
    fn std_method_receivers_never_bind_to_workspace_fns() {
        // `<expr>.write(..)` is std::ptr::write on a cast chain; a
        // workspace fn that happens to be called `write` must not
        // capture it and leak its effects into the caller.
        let ctxs = build_ctxs(&[
            (
                "galloc/inner",
                "pub fn push_block(block: *mut u8) { unsafe { block.cast::<usize>().write(0) }; }\n",
            ),
            (
                "trace/writer",
                "impl Writer { pub fn write(&mut self, b: u8) { self.buf.unwrap(); } }\n",
            ),
        ]);
        let ws = Workspace::build(&ctxs);
        assert!(
            find(&ws, "push_block").panic_kinds.is_empty(),
            "std `write` on an expression receiver must stay unresolved"
        );
    }
}
