//! Per-file analysis context shared by all rules: the token stream,
//! line mapping, the spans of `unsafe` code, and the spans of
//! `#[cfg(test)]` / `#[test]` items (which most rules skip).

use crate::lex::{lex, Tok, TokKind};
use std::path::{Path, PathBuf};

/// Kind of an `unsafe` region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// `unsafe { ... }` block.
    Block,
    /// `unsafe impl Trait for T { ... }`.
    Impl,
    /// `unsafe fn f(...) { ... }` (span covers the body).
    Fn,
    /// `unsafe extern "C" { ... }` and friends.
    Extern,
}

/// One `unsafe` region: the `unsafe` keyword token and the byte span
/// of its braced body.
#[derive(Debug, Clone, Copy)]
pub struct UnsafeSpan {
    pub kind: UnsafeKind,
    /// Index of the `unsafe` token in [`FileCtx::toks`].
    pub kw_tok: usize,
    /// Byte span of the braced region (including the braces), or of
    /// the keyword alone when no body was found (e.g. a trait method
    /// declaration).
    pub start: usize,
    pub end: usize,
}

/// Analysis context for one source file.
#[derive(Debug)]
pub struct FileCtx {
    pub path: PathBuf,
    pub src: String,
    pub toks: Vec<Tok>,
    /// Byte offset of the start of each line.
    line_starts: Vec<usize>,
    /// Byte spans of `#[cfg(test)] mod`/items and `#[test]` fns.
    pub test_spans: Vec<(usize, usize)>,
    /// All `unsafe` regions in the file.
    pub unsafe_spans: Vec<UnsafeSpan>,
    /// Module id: `<crate-dir>/<path-under-src>`, e.g. `galloc/inner`
    /// for `crates/galloc/src/inner.rs` (see [`module_id`]).
    pub module: String,
}

impl FileCtx {
    /// Builds the context for a file's source text. `module` is the
    /// repo-relative module id used by allowlists.
    pub fn new(path: PathBuf, src: String, module: String) -> Self {
        let toks = lex(&src);
        let line_starts = compute_line_starts(&src);
        let test_spans = find_test_spans(&toks);
        let unsafe_spans = find_unsafe_spans(&toks);
        FileCtx {
            path,
            src,
            toks,
            line_starts,
            test_spans,
            unsafe_spans,
            module,
        }
    }

    /// 1-based (line, column) of a byte offset.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(l) => l,
            Err(l) => l - 1,
        };
        (line + 1, offset - self.line_starts[line] + 1)
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        self.line_col(offset).0
    }

    /// Byte span of a 1-based line (excluding the newline).
    pub fn line_span(&self, line: usize) -> (usize, usize) {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map(|&e| e.saturating_sub(1))
            .unwrap_or(self.src.len());
        (start, end)
    }

    /// Whether a byte offset falls inside test code.
    pub fn in_test(&self, offset: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(s, e)| offset >= s && offset < e)
    }

    /// Whether a byte offset falls inside an `unsafe` region.
    pub fn in_unsafe(&self, offset: usize) -> bool {
        self.unsafe_spans
            .iter()
            .any(|u| offset >= u.start && offset < u.end)
    }

    /// Index of the first non-comment token at or after `from`.
    pub fn next_code_tok(&self, from: usize) -> Option<usize> {
        (from..self.toks.len()).find(|&i| !self.toks[i].is_comment())
    }

    /// Index of the last non-comment token strictly before `before`.
    pub fn prev_code_tok(&self, before: usize) -> Option<usize> {
        (0..before).rev().find(|&i| !self.toks[i].is_comment())
    }
}

fn compute_line_starts(src: &str) -> Vec<usize> {
    let mut starts = vec![0];
    for (i, b) in src.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Finds the matching `}` for the `{` at token index `open`, returning
/// the index of the closing token (or the last token when unbalanced).
pub fn match_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    toks.len().saturating_sub(1)
}

/// Scans for `#[cfg(test)]` / `#[cfg(any(test, ...))]` / `#[test]`
/// attributes and records the byte span of the item that follows
/// (through its matching closing brace, or its terminating `;`).
fn find_test_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') && i + 1 < toks.len() && toks[i + 1].is_punct('[') {
            // Collect the attribute's tokens up to the matching ']'.
            let mut depth = 0usize;
            let mut j = i + 1;
            let mut attr_idents: Vec<&str> = Vec::new();
            while j < toks.len() {
                match &toks[j].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokKind::Ident(s) => attr_idents.push(s),
                    _ => {}
                }
                j += 1;
            }
            let is_test_attr = match attr_idents.first().copied() {
                Some("test") => true,
                Some("cfg") | Some("cfg_attr") => attr_idents.contains(&"test"),
                _ => false,
            };
            if is_test_attr {
                // Skip any further attributes, then span the item.
                let mut k = j + 1;
                while let Some(nc) = next_code(toks, k) {
                    if toks[nc].is_punct('#') && nc + 1 < toks.len() && toks[nc + 1].is_punct('[') {
                        let mut d = 0usize;
                        let mut m = nc + 1;
                        while m < toks.len() {
                            match toks[m].kind {
                                TokKind::Punct('[') => d += 1,
                                TokKind::Punct(']') => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            m += 1;
                        }
                        k = m + 1;
                        continue;
                    }
                    break;
                }
                // Find the item body: first `{` before any `;`.
                let mut m = k;
                let mut open = None;
                while m < toks.len() {
                    match toks[m].kind {
                        TokKind::Punct('{') => {
                            open = Some(m);
                            break;
                        }
                        TokKind::Punct(';') => break,
                        _ => {}
                    }
                    m += 1;
                }
                if let Some(open) = open {
                    let close = match_brace(toks, open);
                    spans.push((toks[i].start, toks[close].end));
                    i = close + 1;
                    continue;
                } else if m < toks.len() {
                    spans.push((toks[i].start, toks[m].end));
                    i = m + 1;
                    continue;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    spans
}

fn next_code(toks: &[Tok], from: usize) -> Option<usize> {
    (from..toks.len()).find(|&i| !toks[i].is_comment())
}

/// Finds every `unsafe` region: blocks, impls, fns, externs.
fn find_unsafe_spans(toks: &[Tok]) -> Vec<UnsafeSpan> {
    let mut spans = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("unsafe") {
            continue;
        }
        let Some(nxt) = next_code(toks, i + 1) else {
            continue;
        };
        let (kind, search_from) = match &toks[nxt].kind {
            TokKind::Punct('{') => (UnsafeKind::Block, nxt),
            TokKind::Ident(s) if s == "impl" => (UnsafeKind::Impl, nxt + 1),
            TokKind::Ident(s) if s == "fn" => (UnsafeKind::Fn, nxt + 1),
            TokKind::Ident(s) if s == "extern" => (UnsafeKind::Extern, nxt + 1),
            _ => continue,
        };
        // Find the opening brace (stopping at `;` for bodyless decls).
        let mut open = None;
        let mut m = search_from;
        while m < toks.len() {
            match toks[m].kind {
                TokKind::Punct('{') => {
                    open = Some(m);
                    break;
                }
                TokKind::Punct(';') => break,
                _ => {}
            }
            m += 1;
        }
        let (start, end) = match open {
            Some(open) => {
                let close = match_brace(toks, open);
                (toks[open].start, toks[close].end)
            }
            // Bodyless (trait method decl): span just the keyword.
            None => (toks[i].start, toks[i].end),
        };
        spans.push(UnsafeSpan {
            kind,
            kw_tok: i,
            start,
            end,
        });
    }
    spans
}

/// Derives the module id used by allowlists from a repo-relative
/// path: `crates/galloc/src/inner.rs` → `galloc/inner`,
/// `src/lib.rs` → `lifepred/lib`, nested files keep their directories
/// (`crates/workloads/src/cfrac/bignum.rs` → `workloads/cfrac/bignum`).
pub fn module_id(rel: &Path) -> String {
    let comps: Vec<&str> = rel.iter().map(|c| c.to_str().unwrap_or_default()).collect();
    let stemmed = |parts: &[&str]| -> String {
        let mut v: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        if let Some(last) = v.last_mut() {
            if let Some(stripped) = last.strip_suffix(".rs") {
                *last = stripped.to_string();
            }
        }
        v.join("/")
    };
    match comps.as_slice() {
        ["crates", krate, "src", rest @ ..] => {
            let mut parts = vec![*krate];
            parts.extend(rest);
            stemmed(&parts)
        }
        ["src", rest @ ..] => {
            let mut parts = vec!["lifepred"];
            parts.extend(rest);
            stemmed(&parts)
        }
        _ => stemmed(&comps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileCtx {
        FileCtx::new(PathBuf::from("test.rs"), src.to_string(), "test".into())
    }

    #[test]
    fn line_col_mapping() {
        let c = ctx("ab\ncd\nef");
        assert_eq!(c.line_col(0), (1, 1));
        assert_eq!(c.line_col(3), (2, 1));
        assert_eq!(c.line_col(7), (3, 2));
    }

    #[test]
    fn unsafe_block_span() {
        let c = ctx("fn f() { let x = unsafe { g() }; }");
        assert_eq!(c.unsafe_spans.len(), 1);
        let u = &c.unsafe_spans[0];
        assert_eq!(u.kind, UnsafeKind::Block);
        assert_eq!(&c.src[u.start..u.end], "{ g() }");
    }

    #[test]
    fn unsafe_impl_and_fn_spans() {
        let c = ctx("unsafe impl Send for X {}\nunsafe fn f() { body() }\n");
        assert_eq!(c.unsafe_spans.len(), 2);
        assert_eq!(c.unsafe_spans[0].kind, UnsafeKind::Impl);
        assert_eq!(c.unsafe_spans[1].kind, UnsafeKind::Fn);
        assert!(c.in_unsafe(c.src.find("body").unwrap()));
    }

    #[test]
    fn bodyless_unsafe_fn_decl() {
        let c = ctx("trait T { unsafe fn f(); }");
        assert_eq!(c.unsafe_spans.len(), 1);
    }

    #[test]
    fn cfg_test_mod_span() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x() }\n}\n";
        let c = ctx(src);
        assert_eq!(c.test_spans.len(), 1);
        assert!(c.in_test(src.find("x()").unwrap()));
        assert!(!c.in_test(src.find("prod").unwrap()));
    }

    #[test]
    fn test_attr_fn_span() {
        let src = "#[test]\nfn check() { y() }\nfn prod() {}";
        let c = ctx(src);
        assert!(c.in_test(src.find("y()").unwrap()));
        assert!(!c.in_test(src.find("prod").unwrap()));
    }

    #[test]
    fn cfg_test_with_second_attribute() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() { z() } }";
        let c = ctx(src);
        assert!(c.in_test(src.find("z()").unwrap()));
    }

    #[test]
    fn module_ids() {
        assert_eq!(
            module_id(Path::new("crates/galloc/src/inner.rs")),
            "galloc/inner"
        );
        assert_eq!(module_id(Path::new("src/lib.rs")), "lifepred/lib");
        assert_eq!(
            module_id(Path::new("crates/workloads/src/cfrac/bignum.rs")),
            "workloads/cfrac/bignum"
        );
    }
}
