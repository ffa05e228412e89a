//! Evaluator for the PERL-subset report language.
//!
//! Scalars follow perl's SV discipline: every string value is a traced
//! heap allocation (`sv_new`), hash entries add a traced HE node,
//! array lists reallocate traced AV bodies as they grow.

use super::parser::{PExpr, PStmt};
use crate::regexlite::Regex;
use crate::HashMap;
use lifepred_trace::{TraceSession, Traced};
use std::rc::Rc;

/// A traced shared string (an "SV").
pub type Sv = Rc<Traced<String>>;

/// A scalar value.
#[derive(Debug, Clone, Default)]
pub enum Scalar {
    /// Undefined.
    #[default]
    Undef,
    /// Numeric.
    Num(f64),
    /// String.
    Str(Sv),
}

/// A hash entry: traced HE node + value.
#[derive(Debug)]
struct Entry {
    _node: Traced<()>,
    value: Scalar,
}

/// The interpreter.
#[derive(Debug)]
pub struct PerlInterp<'s> {
    session: &'s TraceSession,
    scalars: HashMap<String, Scalar>,
    arrays: HashMap<String, Vec<Scalar>>,
    hashes: HashMap<String, HashMap<String, Entry>>,
    regex_cache: HashMap<String, Regex>,
    input: Vec<String>,
    input_pos: usize,
    output: String,
    last_flag: bool,
}

impl<'s> PerlInterp<'s> {
    /// Creates an interpreter whose `<>` reads lines of `input`.
    pub fn new(session: &'s TraceSession, input: &str) -> Self {
        PerlInterp {
            session,
            scalars: HashMap::default(),
            arrays: HashMap::default(),
            hashes: HashMap::default(),
            regex_cache: HashMap::default(),
            input: input.lines().map(str::to_owned).collect(),
            input_pos: 0,
            output: String::new(),
            last_flag: false,
        }
    }

    /// Runs a parsed program, returning its output.
    ///
    /// # Errors
    ///
    /// Returns a message on runtime errors.
    pub fn run(&mut self, program: &[PStmt]) -> Result<String, String> {
        let _g = self.session.enter("perl_run");
        for stmt in program {
            self.exec(stmt)?;
        }
        Ok(std::mem::take(&mut self.output))
    }

    /// Allocates a traced string SV.
    fn sv_new(&self, s: String) -> Sv {
        let _g = self.session.enter("sv_new");
        let _m = self.session.enter("safemalloc");
        let size = s.len().max(1) as u32;
        let t = self.session.traced(s, size);
        Traced::touch(&t, (t.len() / 4 + 1) as u64);
        Rc::new(t)
    }

    fn exec(&mut self, stmt: &PStmt) -> Result<(), String> {
        if self.last_flag {
            return Ok(());
        }
        match stmt {
            PStmt::Expr(e) => {
                self.eval(e)?;
                Ok(())
            }
            PStmt::Print(args) => {
                let _g = self.session.enter("do_print");
                for a in args {
                    let v = self.eval(a)?;
                    let s = self.stringify(&v);
                    self.output.push_str(&s);
                }
                self.session.work(8);
                Ok(())
            }
            PStmt::Push(arr, e) => {
                let _g = self.session.enter("av_push");
                let v = self.eval(e)?;
                let list = self.arrays.entry(arr.clone()).or_default();
                list.push(v);
                // Simulate AV body reallocation on power-of-two growth.
                if list.len().is_power_of_two() {
                    let _m = self.session.enter("safemalloc");
                    let body = self.session.traced((), (list.len() * 8) as u32);
                    Traced::touch(&body, list.len() as u64 / 2 + 1);
                }
                Ok(())
            }
            PStmt::If(arms, otherwise) => {
                for (cond, body) in arms {
                    let v = self.eval(cond)?;
                    if self.truthy(&v) {
                        for s in body {
                            self.exec(s)?;
                        }
                        return Ok(());
                    }
                }
                if let Some(body) = otherwise {
                    for s in body {
                        self.exec(s)?;
                    }
                }
                Ok(())
            }
            PStmt::While(cond, body) => {
                loop {
                    let v = self.eval(cond)?;
                    if !self.truthy(&v) || self.last_flag {
                        break;
                    }
                    for s in body {
                        self.exec(s)?;
                    }
                }
                self.last_flag = false;
                Ok(())
            }
            PStmt::Foreach(var, list, body) => {
                let items = self.eval_list(list)?;
                for item in items {
                    self.scalars.insert(var.clone(), item);
                    for s in body {
                        self.exec(s)?;
                    }
                    if self.last_flag {
                        break;
                    }
                }
                self.last_flag = false;
                Ok(())
            }
            PStmt::Last => {
                self.last_flag = true;
                Ok(())
            }
        }
    }

    /// Evaluates an expression in list context.
    fn eval_list(&mut self, e: &PExpr) -> Result<Vec<Scalar>, String> {
        match e {
            PExpr::ArrayAll(a) => Ok(self.arrays.get(a).cloned().unwrap_or_default()),
            PExpr::Keys(h) => {
                let _g = self.session.enter("hv_keys");
                let mut keys: Vec<String> = self
                    .hashes
                    .get(h)
                    .map_or_else(Vec::new, |m| m.keys().cloned().collect());
                keys.sort();
                Ok(keys
                    .into_iter()
                    .map(|k| Scalar::Str(self.sv_new(k)))
                    .collect())
            }
            PExpr::Sort(inner) => {
                let _g = self.session.enter("do_sort");
                let mut items = self.eval_list(inner)?;
                let mut strs: Vec<String> = items.drain(..).map(|v| self.stringify(&v)).collect();
                self.session.work(strs.len() as u64 * 4);
                strs.sort();
                Ok(strs
                    .into_iter()
                    .map(|s| Scalar::Str(self.sv_new(s)))
                    .collect())
            }
            PExpr::Reverse(inner) => {
                let mut items = self.eval_list(inner)?;
                items.reverse();
                Ok(items)
            }
            PExpr::Split(re, target) => {
                let _g = self.session.enter("do_split");
                let tv = self.eval(target)?;
                let text = self.stringify(&tv);
                let regex = self.compile(re)?;
                let mut parts = Vec::new();
                let mut rest: &str = &text;
                loop {
                    match regex.find(rest) {
                        Some((a, b)) if b > a || a < rest.len() => {
                            let (a, b) = char_to_byte_range(rest, a, b.max(a + 1));
                            parts.push(rest[..a].to_owned());
                            rest = &rest[b..];
                        }
                        _ => {
                            parts.push(rest.to_owned());
                            break;
                        }
                    }
                }
                Ok(parts
                    .into_iter()
                    .map(|p| Scalar::Str(self.sv_new(p)))
                    .collect())
            }
            single => Ok(vec![self.eval(single)?]),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn eval(&mut self, e: &PExpr) -> Result<Scalar, String> {
        match e {
            PExpr::Num(n) => Ok(Scalar::Num(*n)),
            PExpr::Str(s) => Ok(Scalar::Str(self.sv_new(s.clone()))),
            PExpr::Scalar(name) => Ok(self.scalars.get(name).cloned().unwrap_or_default()),
            PExpr::ArrayElem(name, idx) => {
                let iv = self.eval(idx)?;
                let i = self.numify(&iv) as usize;
                Ok(self
                    .arrays
                    .get(name)
                    .and_then(|a| a.get(i))
                    .cloned()
                    .unwrap_or_default())
            }
            PExpr::HashElem(name, key) => {
                let kv = self.eval(key)?;
                let k = self.stringify(&kv);
                Ok(self
                    .hashes
                    .get(name)
                    .and_then(|m| m.get(&k))
                    .map(|e| e.value.clone())
                    .unwrap_or_default())
            }
            PExpr::ArrayAll(name) => {
                // Scalar context: element count.
                Ok(Scalar::Num(self.arrays.get(name).map_or(0, Vec::len) as f64))
            }
            PExpr::Diamond => {
                let _g = self.session.enter("read_line");
                if self.input_pos >= self.input.len() {
                    return Ok(Scalar::Undef);
                }
                let line = self.input[self.input_pos].clone();
                self.input_pos += 1;
                let sv = Scalar::Str(self.sv_new(line));
                self.scalars.insert("_".to_owned(), sv.clone());
                Ok(sv)
            }
            PExpr::Assign(lv, op, rhs) => {
                let _g = self.session.enter("sv_assign");
                let rv = self.eval(rhs)?;
                let newv = match op.as_str() {
                    "=" => {
                        // `@arr = LIST` when lhs denotes a whole array.
                        if let PExpr::ArrayAll(name) = &**lv {
                            let items = self.eval_list(rhs)?;
                            let n = items.len();
                            self.arrays.insert(name.clone(), items);
                            return Ok(Scalar::Num(n as f64));
                        }
                        rv
                    }
                    ".=" => {
                        let old = self.read_lv(lv)?;
                        let mut s = self.stringify(&old);
                        s.push_str(&self.stringify(&rv));
                        Scalar::Str(self.sv_new(s))
                    }
                    "+=" => {
                        let old = self.read_lv(lv)?;
                        Scalar::Num(self.numify(&old) + self.numify(&rv))
                    }
                    "-=" => {
                        let old = self.read_lv(lv)?;
                        Scalar::Num(self.numify(&old) - self.numify(&rv))
                    }
                    other => return Err(format!("bad assign op {other}")),
                };
                self.write_lv(lv, newv.clone())?;
                Ok(newv)
            }
            PExpr::Binary(op, a, b) => self.binary(op, a, b),
            PExpr::Unary(op, inner) => {
                let v = self.eval(inner)?;
                match op.as_str() {
                    "!" => Ok(Scalar::Num(f64::from(!self.truthy(&v)))),
                    "-" => Ok(Scalar::Num(-self.numify(&v))),
                    other => Err(format!("bad unary {other}")),
                }
            }
            PExpr::Incr(target, delta, postfix) => {
                let old_value = self.read_lv(target)?;
                let old = self.numify(&old_value);
                let new = old + delta;
                self.write_lv(target, Scalar::Num(new))?;
                Ok(Scalar::Num(if *postfix { old } else { new }))
            }
            PExpr::Match(target, re, neg) => {
                let tv = self.eval(target)?;
                let text = self.stringify(&tv);
                let regex = self.compile(re)?;
                self.session.work(text.len() as u64 / 2 + 4);
                Ok(Scalar::Num(f64::from(regex.is_match(&text) != *neg)))
            }
            PExpr::Substitute(target, re, rep) => {
                let _g = self.session.enter("do_subst");
                let tv = self.read_lv(target)?;
                let text = self.stringify(&tv);
                let regex = self.compile(re)?;
                let out = match regex.find(&text) {
                    Some((a, b)) => {
                        let (a, b) = char_to_byte_range(&text, a, b);
                        let mut s = String::with_capacity(text.len());
                        s.push_str(&text[..a]);
                        s.push_str(rep);
                        s.push_str(&text[b..]);
                        self.write_lv(target, Scalar::Str(self.sv_new(s.clone())))?;
                        1.0
                    }
                    None => 0.0,
                };
                Ok(Scalar::Num(out))
            }
            PExpr::Call(name, args) => self.call(name, args),
            PExpr::Keys(_) | PExpr::Sort(_) | PExpr::Reverse(_) | PExpr::Split(..) => {
                // Scalar context: count.
                Ok(Scalar::Num(self.eval_list(e)?.len() as f64))
            }
            PExpr::Join(sep, list) => {
                let _g = self.session.enter("do_join");
                let sv = self.eval(sep)?;
                let sep = self.stringify(&sv);
                let items = self.eval_list(list)?;
                let joined = items
                    .iter()
                    .map(|v| self.stringify(v))
                    .collect::<Vec<_>>()
                    .join(&sep);
                Ok(Scalar::Str(self.sv_new(joined)))
            }
        }
    }

    fn binary(&mut self, op: &str, a: &PExpr, b: &PExpr) -> Result<Scalar, String> {
        if op == "&&" {
            let l = self.eval(a)?;
            if !self.truthy(&l) {
                return Ok(Scalar::Num(0.0));
            }
            let r = self.eval(b)?;
            return Ok(Scalar::Num(f64::from(self.truthy(&r))));
        }
        if op == "||" {
            let l = self.eval(a)?;
            if self.truthy(&l) {
                return Ok(Scalar::Num(1.0));
            }
            let r = self.eval(b)?;
            return Ok(Scalar::Num(f64::from(self.truthy(&r))));
        }
        let l = self.eval(a)?;
        let r = self.eval(b)?;
        match op {
            "." => {
                let _g = self.session.enter("sv_concat");
                let mut s = self.stringify(&l);
                s.push_str(&self.stringify(&r));
                Ok(Scalar::Str(self.sv_new(s)))
            }
            "+" | "-" | "*" | "/" | "%" => {
                let (x, y) = (self.numify(&l), self.numify(&r));
                Ok(Scalar::Num(match op {
                    "+" => x + y,
                    "-" => x - y,
                    "*" => x * y,
                    "/" => {
                        if y == 0.0 {
                            return Err("division by zero".to_owned());
                        }
                        x / y
                    }
                    _ => x % y,
                }))
            }
            "==" | "!=" | "<" | "<=" | ">" | ">=" => {
                let (x, y) = (self.numify(&l), self.numify(&r));
                let v = match op {
                    "==" => x == y,
                    "!=" => x != y,
                    "<" => x < y,
                    "<=" => x <= y,
                    ">" => x > y,
                    _ => x >= y,
                };
                Ok(Scalar::Num(f64::from(v)))
            }
            "eq" | "ne" | "lt" | "gt" | "le" | "ge" => {
                let (x, y) = (self.stringify(&l), self.stringify(&r));
                let v = match op {
                    "eq" => x == y,
                    "ne" => x != y,
                    "lt" => x < y,
                    "gt" => x > y,
                    "le" => x <= y,
                    _ => x >= y,
                };
                Ok(Scalar::Num(f64::from(v)))
            }
            other => Err(format!("bad binary op {other}")),
        }
    }

    fn call(&mut self, name: &str, args: &[PExpr]) -> Result<Scalar, String> {
        match name {
            "length" => {
                let v = self.eval(&args[0])?;
                Ok(Scalar::Num(self.stringify(&v).len() as f64))
            }
            "chop" => {
                let v = self.read_lv(&args[0])?;
                let mut s = self.stringify(&v);
                s.pop();
                let sv = Scalar::Str(self.sv_new(s));
                self.write_lv(&args[0], sv.clone())?;
                Ok(sv)
            }
            "substr" => {
                let _g = self.session.enter("do_substr");
                let v = self.eval(&args[0])?;
                let s = self.stringify(&v);
                let sv = self.eval(&args[1])?;
                let start = self.numify(&sv).max(0.0) as usize;
                let len = if args.len() > 2 {
                    let lv = self.eval(&args[2])?;
                    self.numify(&lv).max(0.0) as usize
                } else {
                    usize::MAX
                };
                let sub: String = s.chars().skip(start).take(len).collect();
                Ok(Scalar::Str(self.sv_new(sub)))
            }
            "uc" | "lc" => {
                let v = self.eval(&args[0])?;
                let s = self.stringify(&v);
                let out = if name == "uc" {
                    s.to_uppercase()
                } else {
                    s.to_lowercase()
                };
                Ok(Scalar::Str(self.sv_new(out)))
            }
            "scalar" => {
                let n = self.eval_list(&args[0])?.len();
                Ok(Scalar::Num(n as f64))
            }
            "int" => {
                let v = self.eval(&args[0])?;
                Ok(Scalar::Num(self.numify(&v).trunc()))
            }
            other => Err(format!("unknown function {other}")),
        }
    }

    fn read_lv(&mut self, lv: &PExpr) -> Result<Scalar, String> {
        self.eval(lv)
    }

    fn write_lv(&mut self, lv: &PExpr, v: Scalar) -> Result<(), String> {
        match lv {
            PExpr::Scalar(n) => {
                self.scalars.insert(n.clone(), v);
                Ok(())
            }
            PExpr::HashElem(h, key) => {
                let kv = self.eval(key)?;
                let k = self.stringify(&kv);
                let map = self.hashes.entry(h.clone()).or_default();
                if let Some(entry) = map.get_mut(&k) {
                    entry.value = v;
                } else {
                    let _g = self.session.enter("hv_store");
                    let _m = self.session.enter("safemalloc");
                    let node = self.session.traced((), (k.len() + 24) as u32);
                    map.insert(
                        k,
                        Entry {
                            _node: node,
                            value: v,
                        },
                    );
                }
                Ok(())
            }
            PExpr::ArrayElem(a, idx) => {
                let iv = self.eval(idx)?;
                let i = self.numify(&iv) as usize;
                let arr = self.arrays.entry(a.clone()).or_default();
                if arr.len() <= i {
                    arr.resize(i + 1, Scalar::Undef);
                }
                arr[i] = v;
                Ok(())
            }
            other => Err(format!("cannot assign to {other:?}")),
        }
    }

    fn compile(&mut self, pattern: &str) -> Result<Regex, String> {
        if let Some(r) = self.regex_cache.get(pattern) {
            return Ok(r.clone());
        }
        let r = Regex::compile(pattern)?;
        self.regex_cache.insert(pattern.to_owned(), r.clone());
        Ok(r)
    }

    fn truthy(&self, v: &Scalar) -> bool {
        match v {
            Scalar::Undef => false,
            Scalar::Num(n) => *n != 0.0,
            Scalar::Str(s) => !s.is_empty() && &***s != "0",
        }
    }

    fn numify(&self, v: &Scalar) -> f64 {
        match v {
            Scalar::Undef => 0.0,
            Scalar::Num(n) => *n,
            Scalar::Str(s) => {
                let t = s.trim();
                let end = t
                    .char_indices()
                    .take_while(|(i, c)| {
                        c.is_ascii_digit() || *c == '.' || (*i == 0 && (*c == '-' || *c == '+'))
                    })
                    .map(|(i, c)| i + c.len_utf8())
                    .last()
                    .unwrap_or(0);
                t[..end].parse().unwrap_or(0.0)
            }
        }
    }

    fn stringify(&self, v: &Scalar) -> String {
        match v {
            Scalar::Undef => String::new(),
            Scalar::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            Scalar::Str(s) => (***s).clone(),
        }
    }
}

/// Converts a char-indexed range from [`Regex::find`] to byte indices.
fn char_to_byte_range(text: &str, a: usize, b: usize) -> (usize, usize) {
    let mut idx = text.char_indices().map(|(i, _)| i).chain([text.len()]);
    let abyte = idx.clone().nth(a).unwrap_or(text.len());
    let bbyte = idx.nth(b).unwrap_or(text.len());
    (abyte, bbyte)
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse;
    use super::*;
    use lifepred_trace::TraceSession;

    fn run(src: &str, input: &str) -> String {
        let s = TraceSession::new("perl-test");
        let prog = parse(src).expect("parse");
        let mut interp = PerlInterp::new(&s, input);
        interp.run(&prog).expect("run")
    }

    #[test]
    fn while_diamond_reads_lines() {
        let out = run("while (<>) { $n++; } print $n;", "a\nb\nc\n");
        assert_eq!(out, "3");
    }

    #[test]
    fn split_and_array_access() {
        let out = run(
            "while (<>) { @f = split(/ /, $_); print $f[1] . \"-\"; }",
            "a b\nc d\n",
        );
        assert_eq!(out, "b-d-");
    }

    #[test]
    fn hashes_and_sorted_keys() {
        let out = run(
            "while (<>) { $c{$_}++; } foreach $k (sort keys %c) { print $k . \":\" . $c{$k} . \" \"; }",
            "b\na\nb\n",
        );
        assert_eq!(out, "a:1 b:2 ");
    }

    #[test]
    fn string_ops() {
        assert_eq!(run("$x = \"he\" . \"llo\"; print length($x);", ""), "5");
        assert_eq!(run("$x = \"hello\"; print substr($x, 1, 3);", ""), "ell");
        assert_eq!(run("$x = \"Hi\"; print uc($x) . lc($x);", ""), "HIhi");
        assert_eq!(run("$x = \"hey\\n\"; chop($x); print $x;", ""), "hey");
    }

    #[test]
    fn match_and_substitute() {
        assert_eq!(
            run("$x = \"foo123\"; if ($x =~ /[0-9]+/) { print \"y\"; }", ""),
            "y"
        );
        assert_eq!(run("$_ = \"aXc\"; s/X/b/; print $_;", ""), "abc");
    }

    #[test]
    fn join_and_push() {
        let out = run(
            "push(@a, \"x\"); push(@a, \"y\"); print join(\"-\", @a);",
            "",
        );
        assert_eq!(out, "x-y");
    }

    #[test]
    fn foreach_reverse() {
        let out = run(
            "@a = split(/ /, \"1 2 3\"); foreach $i (reverse @a) { print $i; }",
            "",
        );
        assert_eq!(out, "321");
    }

    #[test]
    fn numeric_and_string_comparison() {
        assert_eq!(run("if (10 > 9) { print \"n\"; }", ""), "n");
        assert_eq!(run("if (\"10\" lt \"9\") { print \"s\"; }", ""), "s");
    }

    #[test]
    fn last_exits_loop() {
        let out = run(
            "while (<>) { $n++; if ($n == 2) { last; } } print $n;",
            "a\nb\nc\nd\n",
        );
        assert_eq!(out, "2");
    }

    #[test]
    fn allocations_are_traced() {
        let s = TraceSession::new("perl-alloc");
        let prog = parse("while (<>) { @f = split(/ /, $_); $c{$f[0]}++; }").expect("parse");
        let mut interp = PerlInterp::new(&s, "a 1\nb 2\na 3\n");
        interp.run(&prog).expect("run");
        drop(interp);
        let t = s.finish();
        assert!(t.stats().total_objects > 15);
    }
}
