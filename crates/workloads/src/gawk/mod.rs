//! GAWK: an AWK-subset interpreter.
//!
//! Lexer → recursive-descent parser → tree-walking evaluator, with
//! gawk's allocation discipline: string values, field splits and array
//! cells are traced heap objects. The workload runs the paper's kind
//! of script — formatting the words of several dictionaries into
//! filled paragraphs (plus a word-frequency pass) — over generated
//! dictionaries. Both inputs run the *same* script on different data,
//! which is why the paper sees near-perfect true prediction for GAWK.

mod interp;
mod lexer;
mod parser;

use interp::Interp;
use parser::parse;

use crate::input;
use crate::Workload;
use lifepred_trace::TraceSession;

/// The dictionary-formatting script (same for every input, as in the
/// paper).
const SCRIPT: &str = r#"
/^[a-z]/ { count[$1]++ }
{ line = line " " $1 }
length(line) > 60 { print line; line = "" }
END {
    for (w in count) {
        total += count[w]
        if (count[w] > max) { max = count[w]; maxw = w }
    }
    print "words", total, "most", maxw, max
    if (length(line) > 0) print line
}
"#;

/// The GAWK workload.
#[derive(Debug, Default, Clone)]
pub struct Gawk;

impl Workload for Gawk {
    fn name(&self) -> &'static str {
        "gawk"
    }

    fn description(&self) -> &'static str {
        "An AWK interpreter running a script that formats the words of \
         several dictionaries into filled paragraphs and counts word \
         frequencies; inputs differ only in the dictionaries fed to \
         the same script."
    }

    fn inputs(&self) -> Vec<String> {
        vec!["small-dicts".to_owned(), "large-dicts".to_owned()]
    }

    fn run(&self, input_idx: usize, session: &TraceSession) {
        let _main = session.enter("gawk_main");
        let data = match input_idx {
            0 => {
                let mut d = input::dictionary(1001, 6_000);
                d.push_str(&input::dictionary(1002, 4_000));
                d
            }
            _ => {
                let mut d = input::dictionary(2001, 20_000);
                d.push_str(&input::dictionary(2002, 15_000));
                d.push_str(&input::dictionary(2003, 10_000));
                d
            }
        };
        let program = parse(SCRIPT).expect("the built-in script parses");
        let mut interp = Interp::new(session);
        let out = interp.run(&program, &data).expect("the script runs");
        session.work(out.len() as u64 / 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_trace::TraceSession;

    #[test]
    fn workload_produces_a_heavy_trace() {
        let s = TraceSession::new("gawk-wl");
        Gawk.run(0, &s);
        let t = s.finish();
        assert!(
            t.stats().total_objects > 50_000,
            "objects {}",
            t.stats().total_objects
        );
        // Field strings die quickly; symbol nodes persist: lifetimes
        // must span several orders of magnitude.
        let end = t.end_clock();
        let max_life = t
            .records()
            .iter()
            .map(|r| r.lifetime(end))
            .max()
            .unwrap_or(0);
        assert!(max_life > 100_000, "max lifetime {max_life}");
    }

    #[test]
    fn builtin_script_parses() {
        parse(SCRIPT).expect("valid");
    }
}
