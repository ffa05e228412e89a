//! PERL: a report extraction and printing language.
//!
//! Lexer → parser → evaluator with perl's SV/HE allocation discipline.
//! Following the paper, the two inputs are **two distinct programs on
//! distinct data** — a record-sorting report and a paragraph-filling
//! formatter — which is exactly why the paper's PERL shows weak *true*
//! prediction (different scripts exercise different allocation sites).

mod interp;
mod lexer;
mod parser;

use interp::PerlInterp;
use parser::parse;

use crate::input;
use crate::Workload;
use lifepred_trace::TraceSession;

/// Training script: sort the contents of a file by key.
const SORT_SCRIPT: &str = r#"
while (<>) {
    @f = split(/ /, $_);
    $key = $f[0];
    $seen{$key} = $_;
    $count{$key}++;
    $tmp = $f[1] . " " . $f[0];
    $width{length($tmp)}++;
    $lines++;
}
foreach $k (sort keys %seen) {
    print $k . " " . $count{$k} . " " . $seen{$k} . "\n";
}
print "total " . $lines . "\n";
"#;

/// Test script: format the words of a dictionary into filled
/// paragraphs and report a length histogram.
const FILL_SCRIPT: &str = r#"
$line = "";
while (<>) {
    if ($_ =~ /^[a-z]/) {
        $line = $line . " " . $_;
        $len{length($_)}++;
        $words++;
    }
    if (length($line) > 60) {
        push(@paras, $line);
        $line = "";
        $paragraphs++;
    }
}
foreach $p (@paras) {
    print $p . "\n";
}
foreach $k (sort keys %len) {
    print $k . ":" . $len{$k} . " ";
}
print "\nwords " . $words . " paragraphs " . $paragraphs . "\n";
"#;

/// The PERL workload.
#[derive(Debug, Default, Clone)]
pub struct Perl;

impl Workload for Perl {
    fn name(&self) -> &'static str {
        "perl"
    }

    fn description(&self) -> &'static str {
        "A report extraction and printing language; the two inputs are \
         two distinct programs on distinct data — one sorts the \
         records of a file, the other formats dictionary words into \
         filled paragraphs."
    }

    fn inputs(&self) -> Vec<String> {
        vec!["sort-records".to_owned(), "fill-paragraphs".to_owned()]
    }

    fn run(&self, input_idx: usize, session: &TraceSession) {
        let _main = session.enter("perl_main");
        let (script, data) = match input_idx {
            0 => (SORT_SCRIPT, input::field_lines(5001, 9_000, 4)),
            _ => {
                let mut d = input::dictionary(6001, 25_000);
                d.push_str(&input::dictionary(6002, 12_000));
                (FILL_SCRIPT, d)
            }
        };
        let program = parse(script).expect("built-in scripts parse");
        let mut interp = PerlInterp::new(session, &data);
        let out = interp.run(&program).expect("built-in scripts run");
        session.work(out.len() as u64 / 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_trace::TraceSession;

    #[test]
    fn builtin_scripts_parse() {
        parse(SORT_SCRIPT).expect("sort script");
        parse(FILL_SCRIPT).expect("fill script");
    }

    #[test]
    fn sort_script_produces_sorted_report() {
        let s = TraceSession::new("perl-sort");
        let program = parse(SORT_SCRIPT).expect("parse");
        let mut interp = PerlInterp::new(&s, "30 b\n10 a\n20 c\n10 z\n");
        let out = interp.run(&program).expect("run");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("10 2"));
        assert!(lines[1].starts_with("20 1"));
        assert!(lines[2].starts_with("30 1"));
        assert_eq!(lines[3], "total 4");
    }

    #[test]
    fn fill_script_fills_paragraphs() {
        let s = TraceSession::new("perl-fill");
        let program = parse(FILL_SCRIPT).expect("parse");
        let words = "alpha\nbeta\ngamma\ndelta\nepsilon\nzeta\neta\ntheta\niota\nkappa\n".repeat(4);
        let mut interp = PerlInterp::new(&s, &words);
        let out = interp.run(&program).expect("run");
        assert!(out.lines().count() >= 3);
        assert!(out.contains("words 40"));
    }

    #[test]
    fn workload_traces_heavily() {
        let s = TraceSession::new("perl-wl");
        Perl.run(0, &s);
        let t = s.finish();
        assert!(
            t.stats().total_objects > 50_000,
            "objects {}",
            t.stats().total_objects
        );
    }
}
