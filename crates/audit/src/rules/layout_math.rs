//! `layout-math`: inside the allocator-core modules, size/offset
//! arithmetic must go through checked helpers (`checked_add`,
//! `checked_mul`, `checked_next_multiple_of`, `saturating_*`) instead
//! of bare `+`/`*` or the `(x + a - 1) & !(a - 1)` mask idiom.
//!
//! Rationale: bump-pointer offset math feeds directly into
//! `base.add(..)`; a silent wrap turns into an out-of-bounds pointer.
//! The rule is scoped to the modules where that is true (configurable
//! via `modules` in `audit.toml`) so ordinary counter arithmetic
//! elsewhere is untouched.

use super::{emit, Rule};
use crate::config::AuditConfig;
use crate::ctx::FileCtx;
use crate::diag::Diagnostic;
use crate::lex::TokKind;

pub struct LayoutMath;

const ID: &str = "layout-math";

/// Modules checked when `audit.toml` does not configure its own list:
/// the allocator cores, where offset math becomes pointers (the same
/// set `audit.toml` spells out).
pub const DEFAULT_MODULES: &[&str] = &["heap/arena", "galloc/inner", "galloc/tls"];

/// Identifier fragments that mark a value as layout arithmetic.
const LAYOUTISH: &[&str] = &[
    "size", "align", "offset", "bytes", "count", "used", "len", "capacity",
];

/// Identifiers ignored when classifying operands (types, common
/// constructors — not value-carrying names).
const NEUTRAL: &[&str] = &[
    "self", "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    "f32", "f64", "from", "into", "as", "Some", "None", "Ok", "Err",
];

impl Rule for LayoutMath {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "layout/size arithmetic in allocator cores must use checked helpers"
    }

    fn check(&self, ctx: &FileCtx, cfg: &AuditConfig, out: &mut Vec<Diagnostic>) {
        let configured = cfg.modules(ID);
        let scoped: Vec<String> = if configured.is_empty() {
            DEFAULT_MODULES.iter().map(|s| s.to_string()).collect()
        } else {
            configured.to_vec()
        };
        if !scoped.iter().any(|m| m == &ctx.module) {
            return;
        }
        let include_tests = cfg.include_tests(ID);
        let toks = &ctx.toks;
        for i in 0..toks.len() {
            if !include_tests && ctx.in_test(toks[i].start) {
                continue;
            }
            // Mask-rounding idiom: binary `&` followed by `!`.
            if toks[i].is_punct('&') {
                let Some(n) = ctx.next_code_tok(i + 1) else {
                    continue;
                };
                if !toks[n].is_punct('!') {
                    continue;
                }
                // `a && !b`: the `&` here is half of a logical-and.
                let binary = ctx
                    .prev_code_tok(i)
                    .map(|p| is_operand_end(&toks[p].kind) && !toks[p].is_punct('&'))
                    .unwrap_or(false);
                if !binary {
                    continue;
                }
                // Allowlist filtering happens centrally in `run_check`.
                let site = format!("{}::mask", ctx.module);
                emit(
                    ID,
                    ctx,
                    cfg,
                    toks[i].start,
                    site,
                    "mask-based rounding (`x & !(a - 1)` idiom); use \
                     `checked_next_multiple_of` / `next_multiple_of` instead"
                        .to_string(),
                    out,
                );
                continue;
            }
            // Bare binary `+` / `*` between layout-ish operands.
            let op = match toks[i].kind {
                TokKind::Punct('+') => '+',
                TokKind::Punct('*') => '*',
                _ => continue,
            };
            // Binary position: the previous code token ends an operand.
            let Some(prev) = ctx.prev_code_tok(i) else {
                continue;
            };
            if !is_operand_end(&toks[prev].kind) {
                continue;
            }
            // Skip compound assignment (`+=`, `*=`): accumulators, not
            // pointer math (and they carry their own overflow checks in
            // debug builds without feeding a pointer).
            if let Some(n) = ctx.next_code_tok(i + 1) {
                if toks[n].is_punct('=') {
                    continue;
                }
            }
            let layoutish = operand_idents_back(ctx, i)
                .into_iter()
                .chain(operand_idents_fwd(ctx, i))
                .any(|id| is_layoutish(&id));
            if !layoutish {
                continue;
            }
            let anchor = nearest_layoutish_ident(ctx, i).unwrap_or_else(|| "expr".into());
            let site = format!("{}::{}", ctx.module, anchor);
            emit(
                ID,
                ctx,
                cfg,
                toks[i].start,
                site.clone(),
                format!(
                    "bare `{op}` on layout/size values (`{anchor}`); use \
                     checked_add/checked_mul/saturating_* or add a reasoned \
                     [[allow]] for `{site}`"
                ),
                out,
            );
        }
    }
}

/// Whether a token kind can end an operand (making a following `+`,
/// `*`, or `&` binary rather than unary/deref/ref).
fn is_operand_end(kind: &TokKind) -> bool {
    matches!(
        kind,
        TokKind::Ident(_) | TokKind::Literal | TokKind::Punct(')') | TokKind::Punct(']')
    )
}

/// Collects up to a handful of identifiers to the left of the
/// operator, staying within the local expression (stops at statement
/// or argument boundaries and at unbalanced open parens).
fn operand_idents_back(ctx: &FileCtx, op: usize) -> Vec<String> {
    let mut ids = Vec::new();
    let mut depth = 0i32;
    let mut i = op;
    let mut steps = 0;
    while i > 0 && steps < 12 {
        i -= 1;
        let t = &ctx.toks[i];
        if t.is_comment() {
            continue;
        }
        steps += 1;
        match &t.kind {
            TokKind::Punct(')') | TokKind::Punct(']') => depth += 1,
            TokKind::Punct('(') | TokKind::Punct('[') => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            TokKind::Punct(',')
            | TokKind::Punct(';')
            | TokKind::Punct('{')
            | TokKind::Punct('}')
            | TokKind::Punct('=')
            | TokKind::Punct('<')
            | TokKind::Punct('>')
                if depth == 0 =>
            {
                break;
            }
            TokKind::Ident(s) => {
                if s == "return" || s == "let" || s == "if" || s == "in" {
                    break;
                }
                if !NEUTRAL.contains(&s.as_str()) {
                    ids.push(s.clone());
                }
            }
            _ => {}
        }
    }
    ids
}

/// Collects identifiers to the right of the operator, symmetric to
/// [`operand_idents_back`].
fn operand_idents_fwd(ctx: &FileCtx, op: usize) -> Vec<String> {
    let mut ids = Vec::new();
    let mut depth = 0i32;
    let mut steps = 0;
    for t in ctx.toks.iter().skip(op + 1) {
        if t.is_comment() {
            continue;
        }
        if steps >= 12 {
            break;
        }
        steps += 1;
        match &t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            }
            TokKind::Punct(',')
            | TokKind::Punct(';')
            | TokKind::Punct('{')
            | TokKind::Punct('}')
            | TokKind::Punct('=')
            | TokKind::Punct('<')
            | TokKind::Punct('>')
                if depth == 0 =>
            {
                break;
            }
            TokKind::Ident(s) if !NEUTRAL.contains(&s.as_str()) => {
                ids.push(s.clone());
            }
            _ => {}
        }
    }
    ids
}

fn is_layoutish(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    LAYOUTISH.iter().any(|frag| lower.contains(frag))
}

/// The nearest layout-ish identifier around the operator, used as the
/// allowlist anchor.
fn nearest_layoutish_ident(ctx: &FileCtx, op: usize) -> Option<String> {
    operand_idents_back(ctx, op)
        .into_iter()
        .chain(operand_idents_fwd(ctx, op))
        .find(|id| is_layoutish(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::FileCtx;
    use std::path::PathBuf;

    fn run_in(module: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = FileCtx::new(PathBuf::from("t.rs"), src.to_string(), module.into());
        let mut out = Vec::new();
        LayoutMath.check(&ctx, &AuditConfig::default(), &mut out);
        out
    }

    #[test]
    fn mask_idiom_is_flagged_in_scope() {
        let d = run_in(
            "galloc/tls",
            "fn align_up(offset: usize, align: usize) -> usize { (offset + align - 1) & !(align - 1) }",
        );
        assert!(d.iter().any(|d| d.message.contains("mask-based")), "{d:?}");
        assert!(d.iter().any(|d| d.message.contains("bare `+`")), "{d:?}");
    }

    #[test]
    fn out_of_scope_module_is_exempt() {
        assert!(run_in(
            "quantile/p2",
            "fn f(a: usize, size: usize) -> usize { a + size }"
        )
        .is_empty());
    }

    #[test]
    fn bare_plus_on_offset_and_size() {
        let d = run_in("galloc/inner", "fn f() -> usize { offset + layout.size() }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].site, "galloc/inner::offset");
    }

    #[test]
    fn bare_mul_on_index_times_size() {
        let d = run_in(
            "galloc/inner",
            "fn f() -> usize { idx * config.arena_size }",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn checked_helpers_are_clean() {
        assert!(run_in(
            "galloc/inner",
            "fn f() -> Option<usize> { idx.checked_mul(config.arena_size)?.checked_add(offset) }"
        )
        .is_empty());
        assert!(run_in(
            "galloc/tls",
            "fn g(offset: usize, align: usize) -> Option<usize> { offset.checked_next_multiple_of(align) }"
        )
        .is_empty());
    }

    #[test]
    fn non_layout_arithmetic_is_untouched() {
        assert!(run_in("galloc/inner", "fn f(a: u64, b: u64) -> u64 { a + b }").is_empty());
        assert!(run_in(
            "galloc/tls",
            "fn pct(num: u64) -> f64 { 100.0 * num as f64 }"
        )
        .is_empty());
    }

    #[test]
    fn logical_and_not_is_not_a_mask() {
        assert!(run_in("galloc/inner", "fn f(a: bool, b: bool) -> bool { a && !b }").is_empty());
    }

    #[test]
    fn compound_add_assign_is_exempt() {
        assert!(run_in(
            "galloc/inner",
            "fn f(s: &mut S, size: u64) { s.total_bytes += size; }"
        )
        .is_empty());
    }

    #[test]
    fn deref_and_ref_are_not_binary_ops() {
        assert!(run_in("galloc/inner", "fn f(p: &usize) -> usize { *p }").is_empty());
        assert!(run_in("galloc/inner", "fn f(size: &usize) -> usize { *size }").is_empty());
    }
}
