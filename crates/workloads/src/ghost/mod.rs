//! GHOST: a PostScript-subset interpreter run in NODISPLAY mode.
//!
//! Scanner → operand/dictionary-stack executor → path construction,
//! flattening and span "rasterization" with a glyph cache whose
//! bitmaps are deliberately ~6 KB: the paper observes GhostScript
//! allocating about 5000 such objects, too large for its 4 KB arenas.
//! Inputs are generated documents (a reference-manual-like and a
//! thesis-like text with figures), interpreted without display.

mod graphics;
mod interp;
mod scanner;

use interp::PsInterp;
use scanner::scan;

use crate::input;
use crate::Workload;
use lifepred_trace::TraceSession;

/// The GHOST workload.
#[derive(Debug, Default, Clone)]
pub struct Ghost;

impl Workload for Ghost {
    fn name(&self) -> &'static str {
        "ghost"
    }

    fn description(&self) -> &'static str {
        "A PostScript interpreter executing generated documents (a \
         reference manual and a thesis) with the NODISPLAY option: \
         pages are interpreted, paths flattened and rasterized into \
         spans, text rendered through a glyph cache, but nothing is \
         displayed."
    }

    fn inputs(&self) -> Vec<String> {
        vec!["manual".to_owned(), "thesis".to_owned()]
    }

    fn run(&self, input_idx: usize, session: &TraceSession) {
        let _main = session.enter("ghost_main");
        // Page volume is kept below the 32 KB lifetime threshold so
        // page display lists (spans, advances) count as short-lived,
        // as GhostScript's do in the paper.
        let doc = match input_idx {
            0 => generate_document(3001, 32, 7),
            _ => generate_document(4001, 150, 8),
        };
        let tokens = scan(&doc).expect("generated documents scan");
        let mut interp = PsInterp::new(session);
        let stats = interp.run(&tokens).expect("generated documents run");
        session.work(stats.pages * 100);
    }
}

/// Generates a PostScript document with `pages` pages of text
/// paragraphs, rules, boxes and curve figures.
pub fn generate_document(seed: u64, pages: usize, paragraphs_per_page: usize) -> String {
    use rand::Rng;
    let mut r = input::rng(seed);
    let vocab = input::words(seed ^ 0xd0c, 400);
    let mut doc = String::from(
        "% generated document\n\
         /box { newpath moveto dup 0 rlineto dup 0 exch rlineto neg 0 rlineto closepath } def\n\
         /rule { newpath moveto 0 rlineto stroke } def\n\
         /fig { gsave translate 0.5 setgray newpath 0 0 moveto } def\n\
         /endfig { stroke grestore } def\n",
    );
    for _page in 0..pages {
        doc.push_str("gsave 72 72 translate\n");
        // Text paragraphs in a handful of font sizes (headings, body,
        // footnotes) — each (glyph, size) pair caches its own bitmap.
        let sizes = [10, 12, 14, 18, 24];
        for p in 0..paragraphs_per_page {
            let size = sizes[r.gen_range(0..sizes.len())];
            let words = r.gen_range(6..16);
            let mut text = String::new();
            for w in 0..words {
                if w > 0 {
                    text.push(' ');
                }
                text.push_str(&vocab[r.gen_range(0..vocab.len())]);
            }
            doc.push_str(&format!(
                "/Body {size} selectfont 0 {} moveto ({text}) show\n",
                p * 12
            ));
        }
        // A horizontal rule and some boxes.
        doc.push_str("400 0 720 rule\n");
        let boxes = r.gen_range(1..3);
        for _ in 0..boxes {
            let (w, x, y) = (
                r.gen_range(20..120),
                r.gen_range(0..400),
                r.gen_range(0..700),
            );
            doc.push_str(&format!("{w} {x} {y} box stroke\n"));
        }
        // A curve figure drawn with a loop.
        let n = r.gen_range(3..7);
        doc.push_str(&format!(
            "100 300 fig 1 1 {n} {{ dup 10 mul exch 7 mul 60 80 100 120 \
             curveto }} for endfig\n"
        ));
        // A starburst with rotation.
        doc.push_str(
            "gsave 200 400 translate 1 1 6 { pop 60 rotate newpath 0 0 moveto \
             80 0 lineto stroke } for grestore\n",
        );
        doc.push_str("grestore showpage\n");
    }
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_trace::TraceSession;

    #[test]
    fn generated_document_runs_clean() {
        let s = TraceSession::new("ghost-doc");
        let doc = generate_document(1, 2, 10);
        let toks = scan(&doc).expect("scan");
        let mut interp = PsInterp::new(&s);
        let stats = interp.run(&toks).expect("run");
        assert_eq!(stats.pages, 2);
        assert!(stats.paints > 10);
        assert!(stats.glyphs_shown > 100);
    }

    #[test]
    fn workload_has_large_and_small_objects() {
        let s = TraceSession::new("ghost-wl");
        Ghost.run(0, &s);
        let t = s.finish();
        let big = t.records().iter().filter(|r| r.size >= 4096).count();
        let small = t.records().iter().filter(|r| r.size < 64).count();
        assert!(big > 20, "want many >4KB glyph bitmaps, got {big}");
        assert!(small > 1000, "want many small objects, got {small}");
    }

    #[test]
    fn documents_are_deterministic() {
        assert_eq!(generate_document(7, 2, 5), generate_document(7, 2, 5));
    }
}
