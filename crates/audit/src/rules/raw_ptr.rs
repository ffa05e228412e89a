//! R2 `raw-ptr-ops`: raw-pointer arithmetic and raw-pointer casts are
//! confined to the allowlisted allocator-core modules.
//!
//! Pointer arithmetic (`.add`/`.offset`/`.sub`) is only callable in
//! `unsafe` code, so the rule matches those method names *inside
//! unsafe regions* — safe methods that happen to share a name (e.g.
//! `BigNum::add` in the workloads crate) never trip it. `as *mut` /
//! `as *const` casts are safe syntax and are matched anywhere outside
//! tests.

use super::{emit, skip_tests, Rule};
use crate::config::AuditConfig;
use crate::ctx::FileCtx;
use crate::diag::Diagnostic;

pub struct RawPtrOps;

const ID: &str = "raw-ptr-ops";

/// Modules allowed to do pointer arithmetic when `audit.toml` does not
/// configure its own list: the allocator cores and the trace mapping
/// (the same set `audit.toml` spells out).
pub const DEFAULT_ALLOWED_MODULES: &[&str] =
    &["heap/arena", "galloc/inner", "galloc/tls", "tracefile/map"];

const PTR_METHODS: &[&str] = &[
    "add",
    "offset",
    "sub",
    "byte_add",
    "byte_offset",
    "byte_sub",
];

impl Rule for RawPtrOps {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "raw-pointer arithmetic and raw-pointer casts only in allowlisted modules"
    }

    fn check(&self, ctx: &FileCtx, cfg: &AuditConfig, out: &mut Vec<Diagnostic>) {
        let configured = cfg.modules(ID);
        let allowed = if configured.is_empty() {
            DEFAULT_ALLOWED_MODULES
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        } else {
            configured.to_vec()
        };
        if allowed.iter().any(|m| m == &ctx.module) {
            return;
        }
        let toks = &ctx.toks;
        for i in 0..toks.len() {
            // `.add(` / `.offset(` / `.sub(` inside an unsafe region.
            if toks[i].is_punct('.') {
                let Some(m) = ctx.next_code_tok(i + 1) else {
                    continue;
                };
                let Some(name) = toks[m].ident() else {
                    continue;
                };
                if !PTR_METHODS.contains(&name) {
                    continue;
                }
                let Some(p) = ctx.next_code_tok(m + 1) else {
                    continue;
                };
                if !toks[p].is_punct('(') {
                    continue;
                }
                if !ctx.in_unsafe(toks[m].start) {
                    continue;
                }
                if skip_tests(ID, ctx, cfg, toks[m].start) {
                    continue;
                }
                emit(
                    ID,
                    ctx,
                    cfg,
                    toks[m].start,
                    ctx.module.clone(),
                    format!(
                        "raw-pointer arithmetic `.{name}()` outside the allowlisted \
                         allocator modules ({})",
                        allowed.join(", ")
                    ),
                    out,
                );
            }
            // `as *mut` / `as *const` casts.
            if toks[i].is_ident("as") {
                let Some(s) = ctx.next_code_tok(i + 1) else {
                    continue;
                };
                if !toks[s].is_punct('*') {
                    continue;
                }
                let Some(q) = ctx.next_code_tok(s + 1) else {
                    continue;
                };
                let Some(qual) = toks[q].ident() else {
                    continue;
                };
                if qual != "mut" && qual != "const" {
                    continue;
                }
                if skip_tests(ID, ctx, cfg, toks[i].start) {
                    continue;
                }
                emit(
                    ID,
                    ctx,
                    cfg,
                    toks[i].start,
                    ctx.module.clone(),
                    format!(
                        "`as *{qual}` raw-pointer cast outside the allowlisted \
                         allocator modules ({})",
                        allowed.join(", ")
                    ),
                    out,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::FileCtx;
    use std::path::PathBuf;

    fn run_in(module: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = FileCtx::new(PathBuf::from("t.rs"), src.to_string(), module.into());
        let mut out = Vec::new();
        RawPtrOps.check(&ctx, &AuditConfig::default(), &mut out);
        out
    }

    #[test]
    fn ptr_add_in_unsafe_outside_allowlist_is_flagged() {
        let d = run_in("cli/lib", "fn f(p: *mut u8) { unsafe { p.add(4) }; }");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains(".add()"));
    }

    #[test]
    fn allowlisted_module_is_exempt() {
        assert!(run_in("galloc/inner", "fn f(p: *mut u8) { unsafe { p.add(4) }; }").is_empty());
    }

    #[test]
    fn safe_add_method_is_not_pointer_math() {
        // BigNum-style safe `.add()` calls never trip the rule.
        assert!(run_in(
            "workloads/cfrac/bignum",
            "fn f(a: B, b: B) -> B { a.add(&b) }"
        )
        .is_empty());
    }

    #[test]
    fn as_mut_cast_is_flagged_even_in_safe_code() {
        let d = run_in("heap/replay", "fn f(x: usize) -> *mut u8 { x as *mut u8 }");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("as *mut"));
    }

    #[test]
    fn multiplication_is_not_a_cast() {
        assert!(run_in("core/train", "fn f(a: usize, b: usize) -> usize { a * b }").is_empty());
    }
}
