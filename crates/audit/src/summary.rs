//! Per-function summaries: lock scopes, call sites, and direct
//! may-panic effects. [`crate::callgraph`] propagates these over the
//! call graph to a fixpoint; `panic-surface` consumes the result.
//!
//! Everything here is lexical, by design (no type information is
//! available offline). The approximations and their rationale:
//!
//! * A **lock scope** is a `.lock()` / `.try_lock()` call. Let-bound
//!   guards scope to the innermost enclosing block close, ended early
//!   at the first lexical `drop(<binding>)`; temporaries scope to the
//!   end of their statement. Guards returned out of a function are
//!   modeled by [`FnSummary::returns_guard_of`] plus call-site
//!   resynthesis in the callgraph layer.
//! * The **receiver chain** resolver names a lock or a method
//!   receiver by the last field identifier of its receiver
//!   (`self.shards[i].0.inner.lock()` → `inner`).
//! * **May-panic** classifies `unwrap`/`expect`, panicking macros
//!   (`panic!`, `assert!`, ... but not `debug_assert!`) and expression
//!   indexing (`a[i]`). Unresolved callees are assumed not to panic —
//!   the cost of a lexical analysis, documented in DESIGN.md §9.

use crate::ctx::{match_brace, FileCtx};
use crate::lex::TokKind;

/// Panicking-construct classification for the `panic-surface` rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PanicKind {
    Unwrap,
    Expect,
    PanicMacro,
    Index,
}

impl PanicKind {
    /// The name used in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap",
            PanicKind::Expect => "expect",
            PanicKind::PanicMacro => "panic-macro",
            PanicKind::Index => "index",
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    /// Path qualifier for `Qual::name(...)` calls (`Box` for
    /// `Box::new`).
    pub qual: Option<String>,
    /// Token index of the name (for scope synthesis) and byte offset.
    pub tok: usize,
    pub offset: usize,
    /// For method calls, the receiver-chain-resolved field
    /// (`self.place(..)` → `self`, `state.predictor.with_learner(..)`
    /// → `predictor`, unresolvable → `<expr>`). `None` for free and
    /// path-qualified calls. Call resolution keys off this: a `self`
    /// receiver resolves through the caller's impl type; any other
    /// receiver only resolves when the name is workspace-unique.
    pub recv: Option<String>,
    /// Last field ident of the first argument (`&self.learner` →
    /// `learner`), used to name guard-returning helpers' locks.
    pub first_arg_field: Option<String>,
    /// Token range of a closure argument (`|..| ...`), if any: ops
    /// inside it run while the callee holds whatever the callee locks.
    pub closure_arg: Option<(usize, usize)>,
}

/// One lock acquisition and its lexical scope.
#[derive(Debug, Clone)]
pub struct LockScope {
    /// Receiver-chain-resolved lock name (`inner`, `pending`, ...).
    pub name: String,
    /// Byte offset of the `lock`/`try_lock` token.
    pub offset: usize,
    /// Token range `[start, end]` over which the guard is held.
    pub toks: (usize, usize),
}

/// A direct panicking construct.
#[derive(Debug, Clone)]
pub struct PanicSite {
    pub offset: usize,
    pub kind: PanicKind,
}

/// Everything the cross-file analysis needs to know about one fn body.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    pub calls: Vec<CallSite>,
    pub locks: Vec<LockScope>,
    pub panics: Vec<PanicSite>,
    /// Set when the body's trailing expression is a lock acquisition:
    /// the fn hands its guard to the caller (the `lock(&self.learner)`
    /// helper idiom). Holds the lock's local name.
    pub returns_guard_of: Option<String>,
}

/// Methods that acquire a mutex. `read`/`write` are deliberately
/// excluded: the workspace uses `Mutex` only, and those names collide
/// with `io::Read`/`io::Write` everywhere.
const LOCK_METHODS: &[&str] = &["lock", "try_lock"];

/// Std methods that grow a container. Like atomic operations, they
/// never resolve to workspace fns: binding `self.pinned.push(..)`
/// through the field's element type would merge a same-named workspace
/// method into the caller.
const CONTAINER_METHODS: &[&str] = &[
    "push",
    "insert",
    "entry",
    "or_default",
    "or_insert",
    "or_insert_with",
    "extend",
    "append",
    "resize",
    "reserve",
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "into_boxed_slice",
];

/// Std constructors (`Qual::name`) that never resolve to workspace fns;
/// `Qual::with_capacity` is treated the same for every `Qual`.
const STD_CONSTRUCTORS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Arc", "new"),
    ("Rc", "new"),
    ("Box", "new_uninit_slice"),
    ("String", "from"),
    ("Vec", "from"),
];

/// Atomic methods: a call to one with an `Ordering` argument is an
/// atomic operation, not a workspace call.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_nand",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Macros that panic (note: `debug_assert*` compile out of release
/// builds and are the sanctioned invariant-check idiom, so they are
/// not listed).
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Keywords that look like calls (`if (...)`) or index receivers
/// (`&mut [T]`) but are not.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "mut", "ref", "move", "in", "as",
    "else", "dyn", "break", "continue", "where", "impl", "use", "pub", "unsafe", "box",
];

/// Builds the summary for one fn body (`body` = token indices of its
/// braces), skipping tokens inside `nested` fn bodies.
pub fn summarize(ctx: &FileCtx, body: (usize, usize), nested: &[(usize, usize)]) -> FnSummary {
    let toks = &ctx.toks;
    let mut s = FnSummary::default();
    let in_nested = |i: usize| nested.iter().any(|&(a, b)| i > a && i < b);

    let mut i = body.0 + 1;
    while i < body.1.min(toks.len()) {
        if in_nested(i) {
            i += 1;
            continue;
        }
        let tok = &toks[i];

        // Expression indexing: `recv[...]` where recv ends in an
        // ident, `)`, or `]` (excludes types, slices, attributes).
        if tok.is_punct('[') {
            if let Some(p) = ctx.prev_code_tok(i) {
                let value_like = match &toks[p].kind {
                    TokKind::Ident(s) => !KEYWORDS.contains(&s.as_str()),
                    TokKind::Punct(')') | TokKind::Punct(']') => true,
                    _ => false,
                };
                if value_like {
                    s.panics.push(PanicSite {
                        offset: tok.start,
                        kind: PanicKind::Index,
                    });
                }
            }
            i += 1;
            continue;
        }

        let Some(name) = tok.ident() else {
            i += 1;
            continue;
        };
        let Some(n) = ctx.next_code_tok(i + 1) else {
            break;
        };

        // Macro invocation: `name!(...)` / `name![...]` / `name!{...}`.
        if toks[n].is_punct('!')
            && ctx.next_code_tok(n + 1).is_some_and(|d| {
                matches!(
                    toks[d].kind,
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{')
                )
            })
        {
            if PANIC_MACROS.contains(&name) {
                s.panics.push(PanicSite {
                    offset: tok.start,
                    kind: PanicKind::PanicMacro,
                });
            }
            i = n + 1;
            continue;
        }

        if !toks[n].is_punct('(') {
            i += 1;
            continue;
        }
        // `name(...)`: a call, method call, or declaration header.
        if KEYWORDS.contains(&name) {
            i += 1;
            continue;
        }
        let prev = ctx.prev_code_tok(i);
        let prev_is = |c: char| prev.is_some_and(|p| toks[p].is_punct(c));
        // Skip declaration headers (`fn name(`) — nested fns are
        // already excluded, but closures' parameter lists and stray
        // shapes land here too.
        if prev.is_some_and(|p| toks[p].is_ident("fn")) {
            i += 1;
            continue;
        }
        let is_method = prev_is('.');

        // Lock acquisitions.
        if is_method && LOCK_METHODS.contains(&name) {
            let field = receiver_chain(ctx, prev.unwrap()).unwrap_or_else(|| "<expr>".into());
            let toks_range = lock_scope_range(ctx, i, body);
            s.locks.push(LockScope {
                name: field,
                offset: tok.start,
                toks: toks_range,
            });
            i += 1;
            continue;
        }

        // Panicking methods.
        if is_method && matches!(name, "unwrap" | "unwrap_err") {
            s.panics.push(PanicSite {
                offset: tok.start,
                kind: PanicKind::Unwrap,
            });
            i += 1;
            continue;
        }
        if is_method && matches!(name, "expect" | "expect_err") {
            s.panics.push(PanicSite {
                offset: tok.start,
                kind: PanicKind::Expect,
            });
            i += 1;
            continue;
        }

        let qual = path_qualifier(ctx, i);
        let args = split_args(ctx, n);
        let std_call = if is_method {
            CONTAINER_METHODS.contains(&name)
                || (ATOMIC_METHODS.contains(&name)
                    && args.iter().any(|&(a, b)| passes_ordering(ctx, a, b)))
        } else {
            qual.as_deref()
                .is_some_and(|q| STD_CONSTRUCTORS.contains(&(q, name)) || name == "with_capacity")
        };
        if std_call {
            i += 1;
            continue;
        }

        // A genuine call site.
        let first_arg_field = args.first().and_then(|&(a, b)| last_field_ident(ctx, a, b));
        let closure_arg = args
            .iter()
            .find(|&&(a, b)| (a..b).any(|t| toks[t].is_punct('|')))
            .copied();
        let recv = if is_method {
            Some(receiver_chain(ctx, prev.unwrap()).unwrap_or_else(|| "<expr>".into()))
        } else {
            None
        };
        s.calls.push(CallSite {
            name: name.to_string(),
            qual,
            tok: i,
            offset: tok.start,
            recv,
            first_arg_field,
            closure_arg,
        });
        i += 1;
    }

    // Guard-returning helper: the body's trailing expression (no `;`
    // before the close brace) is a lock acquisition whose scope runs
    // to the end of the body.
    if let Some(last) = ctx.prev_code_tok(body.1) {
        if !toks[last].is_punct(';') && !toks[last].is_punct('}') {
            if let Some(l) = s
                .locks
                .iter()
                .find(|l| l.toks.1 >= body.1.saturating_sub(1))
            {
                s.returns_guard_of = Some(l.name.clone());
            }
        }
    }
    s
}

/// Resolves the receiver chain of a method call to its last field
/// ident: walk left from the `.` over tuple indices, `[...]` index
/// brackets, and `(...)` call parens until an identifier is found.
/// `self.shards[i].0.inner.lock()` → `inner`;
/// `self.shards[i].0.lock()` → `shards`; `STATE.load(..)` → `STATE`.
pub fn receiver_chain(ctx: &FileCtx, dot: usize) -> Option<String> {
    let toks = &ctx.toks;
    let mut i = ctx.prev_code_tok(dot)?;
    loop {
        match &toks[i].kind {
            TokKind::Ident(s) => return Some(s.clone()),
            TokKind::Literal => {
                // Tuple index: step over the `.` to its left.
                let d = ctx.prev_code_tok(i)?;
                if !toks[d].is_punct('.') {
                    return None;
                }
                i = ctx.prev_code_tok(d)?;
            }
            TokKind::Punct(']') => {
                let open = match_open(ctx, i, '[', ']')?;
                i = ctx.prev_code_tok(open)?;
            }
            TokKind::Punct(')') => {
                let open = match_open(ctx, i, '(', ')')?;
                i = ctx.prev_code_tok(open)?;
            }
            _ => return None,
        }
    }
}

/// Index of the opening delimiter matching the closer at `close`,
/// scanning backwards.
fn match_open(ctx: &FileCtx, close: usize, open_c: char, close_c: char) -> Option<usize> {
    let toks = &ctx.toks;
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        if toks[i].is_punct(close_c) {
            depth += 1;
        } else if toks[i].is_punct(open_c) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// The `Qual` of a `Qual::name(...)` path call, if the name at `i` is
/// preceded by `::`.
fn path_qualifier(ctx: &FileCtx, i: usize) -> Option<String> {
    let toks = &ctx.toks;
    let c2 = ctx.prev_code_tok(i)?;
    let c1 = ctx.prev_code_tok(c2)?;
    if !toks[c2].is_punct(':') || !toks[c1].is_punct(':') {
        return None;
    }
    let q = ctx.prev_code_tok(c1)?;
    toks[q].ident().map(str::to_string)
}

/// Splits the argument list opening at token `open` (a `(`) into
/// top-level token ranges, one per argument.
fn split_args(ctx: &FileCtx, open: usize) -> Vec<(usize, usize)> {
    let toks = &ctx.toks;
    let mut args = Vec::new();
    let mut depth = 0usize;
    let mut arg_start = open + 1;
    for (i, tok) in toks.iter().enumerate().skip(open) {
        match tok.kind {
            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    if i > arg_start {
                        args.push((arg_start, i));
                    }
                    break;
                }
            }
            TokKind::Punct(',') if depth == 1 => {
                args.push((arg_start, i));
                arg_start = i + 1;
            }
            _ => {}
        }
    }
    args
}

/// Whether an argument token range names an atomic `Ordering`.
fn passes_ordering(ctx: &FileCtx, a: usize, b: usize) -> bool {
    ctx.toks[a..b.min(ctx.toks.len())].iter().any(|t| {
        t.ident()
            .is_some_and(|s| matches!(s, "Relaxed" | "Acquire" | "Release" | "AcqRel" | "SeqCst"))
    })
}

/// The last field identifier in an argument token range (`&self.learner`
/// → `learner`; `&mut state.pending` → `pending`).
fn last_field_ident(ctx: &FileCtx, a: usize, b: usize) -> Option<String> {
    ctx.toks[a..b.min(ctx.toks.len())]
        .iter()
        .rev()
        .find_map(|t| t.ident())
        .filter(|s| !KEYWORDS.contains(s))
        .map(str::to_string)
}

/// Computes the token range over which the guard produced by the
/// `lock`/`try_lock` call at name-token `m` is held. Public so the
/// callgraph layer can resynthesize scopes for guard-returning helper
/// calls.
pub fn lock_scope_range(ctx: &FileCtx, m: usize, body: (usize, usize)) -> (usize, usize) {
    let toks = &ctx.toks;
    // Let-bound? Walk back to the nearest `;`, `{`, `}`, or `=`.
    let mut j = m;
    let mut binding: Option<(String, usize)> = None; // (name, let tok)
    while j > body.0 {
        j -= 1;
        match &toks[j].kind {
            TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
            TokKind::Punct('=') => {
                // `let [mut] NAME =` → let-bound guard. Plain
                // assignment or comparison → temporary.
                if toks[j.saturating_sub(1)].is_punct('=')
                    || toks
                        .get(j + 1)
                        .is_some_and(|t| t.is_punct('=') || t.is_punct('>'))
                {
                    continue; // == / => / >= style operators
                }
                let Some(nm) = ctx.prev_code_tok(j) else {
                    break;
                };
                let Some(name) = toks[nm].ident() else { break };
                let Some(mut kw) = ctx.prev_code_tok(nm) else {
                    break;
                };
                if toks[kw].is_ident("mut") {
                    match ctx.prev_code_tok(kw) {
                        Some(k) => kw = k,
                        None => break,
                    }
                }
                if toks[kw].is_ident("let") {
                    binding = Some((name.to_string(), kw));
                }
                break;
            }
            _ => {}
        }
    }

    match binding {
        Some((name, let_tok)) => {
            // Scope: from the `let` to the innermost enclosing block's
            // close brace, ended early at the first `drop(name)`.
            let mut depth = 0usize;
            let mut open = body.0;
            let mut k = let_tok;
            while k > body.0 {
                k -= 1;
                match toks[k].kind {
                    TokKind::Punct('}') => depth += 1,
                    TokKind::Punct('{') => {
                        if depth == 0 {
                            open = k;
                            break;
                        }
                        depth -= 1;
                    }
                    _ => {}
                }
            }
            let close = match_brace(toks, open).min(body.1);
            let mut end = close;
            let mut d = m;
            while d < close {
                if toks[d].is_ident("drop")
                    && ctx
                        .next_code_tok(d + 1)
                        .is_some_and(|p| toks[p].is_punct('('))
                    && ctx
                        .next_code_tok(d + 1)
                        .and_then(|p| ctx.next_code_tok(p + 1))
                        .is_some_and(|a| toks[a].is_ident(&name))
                {
                    end = d;
                    break;
                }
                d += 1;
            }
            (m, end)
        }
        None => {
            // Temporary guard: held to the end of the statement (the
            // first `;` at depth 0), or to the close of the enclosing
            // delimiter if that comes first (brace-less closures,
            // arguments).
            let mut depth = 0isize;
            let mut k = m;
            while k < body.1 {
                match toks[k].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                        depth -= 1;
                        if depth < 0 {
                            return (m, k);
                        }
                    }
                    TokKind::Punct(';') | TokKind::Punct(',') if depth == 0 => {
                        return (m, k);
                    }
                    _ => {}
                }
                k += 1;
            }
            (m, body.1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::index_fns;
    use std::path::PathBuf;

    fn summarize_src(src: &str) -> FnSummary {
        let ctx = FileCtx::new(PathBuf::from("t.rs"), src.to_string(), "m/x".into());
        let fns = index_fns(&ctx);
        assert!(!fns.is_empty(), "no fn indexed in {src}");
        summarize(&ctx, fns[0].body, &[])
    }

    #[test]
    fn receiver_chains_resolve_through_tuples_and_indexing() {
        let s = summarize_src(
            "fn f(&self) {\n\
             let a = self.shards[i].0.inner.lock();\n\
             let b = self.shards[i].0.lock();\n\
             let c = self.pending.lock();\n}",
        );
        let names: Vec<&str> = s.locks.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, ["inner", "shards", "pending"]);
    }

    #[test]
    fn let_bound_guard_scopes_to_block_close_or_drop() {
        let src = "fn f() {\n\
                   let g = m.lock();\n\
                   use_it();\n\
                   drop(g);\n\
                   after();\n}";
        let s = summarize_src(src);
        assert_eq!(s.locks.len(), 1);
        let scope = &s.locks[0];
        // `after()` is outside the scope, `use_it()` inside.
        let use_call = s.calls.iter().find(|c| c.name == "use_it").unwrap();
        let after_call = s.calls.iter().find(|c| c.name == "after").unwrap();
        assert!(use_call.tok > scope.toks.0 && use_call.tok < scope.toks.1);
        assert!(after_call.tok > scope.toks.1);
    }

    #[test]
    fn temporary_guard_scopes_to_statement_end() {
        let s = summarize_src("fn f() {\n  m.lock().unwrap().touch(1);\n  later();\n}");
        assert_eq!(s.locks.len(), 1);
        let scope = &s.locks[0];
        let later = s.calls.iter().find(|c| c.name == "later").unwrap();
        assert!(later.tok > scope.toks.1);
        // touch is inside the lock's statement scope.
        let touch = s.calls.iter().find(|c| c.name == "touch").unwrap();
        assert!(touch.tok > scope.toks.0 && touch.tok < scope.toks.1);
    }

    #[test]
    fn braceless_closure_guard_ends_at_closure_end() {
        // `|t| results[t].lock().expect("x").clone()` — the guard must
        // not leak past the closing paren of the enclosing call.
        let s = summarize_src(
            "fn f() {\n  g(|t| results[t].lock().expect(\"x\").clone());\n  h(other);\n}",
        );
        let lock = s.locks.iter().find(|l| l.name == "results").unwrap();
        let h = s.calls.iter().find(|c| c.name == "h").unwrap();
        assert!(h.tok > lock.toks.1, "guard leaked into the next statement");
    }

    #[test]
    fn inner_block_guard_does_not_leak() {
        let s = summarize_src(
            "fn f() {\n  {\n    let v = victim.lock();\n    steal(v);\n  }\n  let mine = me.lock();\n}",
        );
        let victim = s.locks.iter().find(|l| l.name == "victim").unwrap();
        let mine = s.locks.iter().find(|l| l.name == "me").unwrap();
        assert!(
            mine.toks.0 > victim.toks.1,
            "inner-block guard must end before the second lock"
        );
    }

    #[test]
    fn panic_sites_classified() {
        let s = summarize_src(
            "fn f(v: &[u8], o: Option<u8>) {\n\
             let a = v[0];\n\
             let b = o.unwrap();\n\
             let c = o.expect(\"set\");\n\
             panic!(\"boom\");\n\
             debug_assert!(a > 0);\n\
             let d: [u8; 4] = [0; 4];\n\
             let e = o.unwrap_or_else(|| 0);\n}",
        );
        let kinds: Vec<PanicKind> = s.panics.iter().map(|p| p.kind).collect();
        assert_eq!(
            kinds,
            [
                PanicKind::Index,
                PanicKind::Unwrap,
                PanicKind::Expect,
                PanicKind::PanicMacro
            ],
            "debug_assert!, array types/literals, and unwrap_or_else are exempt"
        );
    }

    #[test]
    fn guard_returning_helper_detected() {
        let s = summarize_src(
            "fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {\n\
             m.lock().unwrap_or_else(|e| e.into_inner())\n}",
        );
        assert_eq!(s.returns_guard_of.as_deref(), Some("m"));
    }

    #[test]
    fn plain_fn_is_not_guard_returning() {
        let s = summarize_src("fn f() {\n  let g = m.lock();\n  g.push(1);\n}");
        assert_eq!(s.returns_guard_of, None);
    }

    #[test]
    fn call_sites_record_args_and_closures() {
        let s = summarize_src(
            "fn f(&self) {\n\
             let g = lock(&self.learner);\n\
             self.predictor.with_learner(|l| { l.absorb(x); });\n}",
        );
        let lk = s.calls.iter().find(|c| c.name == "lock").unwrap();
        assert_eq!(lk.first_arg_field.as_deref(), Some("learner"));
        let wl = s.calls.iter().find(|c| c.name == "with_learner").unwrap();
        assert!(wl.closure_arg.is_some());
        let absorb = s.calls.iter().find(|c| c.name == "absorb").unwrap();
        let (a, b) = wl.closure_arg.unwrap();
        assert!(absorb.tok > a && absorb.tok < b);
    }
}
