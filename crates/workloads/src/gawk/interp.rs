//! Tree-walking evaluator for the AWK subset.
//!
//! Values mirror gawk's NODE discipline: every string value and every
//! array cell is a traced heap allocation, reference-counted so its
//! trace lifetime ends when the last holder lets go — field values die
//! at the next record, symbol-table entries die at program end.

use super::parser::{Expr, Lvalue, Pattern, Program, Stmt};
use crate::regexlite::Regex;
use crate::HashMap;
use lifepred_trace::{TraceSession, Traced};
use std::rc::Rc;

/// A traced, shared string.
pub type RStr = Rc<Traced<String>>;

/// An AWK value.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// Unset (compares as `""` / `0`).
    #[default]
    Uninit,
    /// A number.
    Num(f64),
    /// A string.
    Str(RStr),
}

/// One array cell: the per-key symbol node plus the value.
#[derive(Debug)]
struct Cell {
    /// Simulates gawk's per-element NODE allocation (long-lived).
    _node: Traced<()>,
    value: Value,
}

/// The interpreter state.
#[derive(Debug)]
pub struct Interp<'s> {
    session: &'s TraceSession,
    globals: HashMap<String, Value>,
    arrays: HashMap<String, HashMap<String, Cell>>,
    /// `$0` at index 0, fields at 1..=NF.
    fields: Vec<Value>,
    regex_cache: HashMap<String, Regex>,
    output: String,
    next_flag: bool,
}

impl<'s> Interp<'s> {
    /// Creates an interpreter recording into `session`.
    pub fn new(session: &'s TraceSession) -> Self {
        Interp {
            session,
            globals: HashMap::default(),
            arrays: HashMap::default(),
            fields: vec![Value::Uninit],
            regex_cache: HashMap::default(),
            output: String::new(),
            next_flag: false,
        }
    }

    /// Runs `program` over `input`, returning the accumulated output.
    ///
    /// # Errors
    ///
    /// Returns a message on runtime errors (bad builtin arity etc.).
    pub fn run(&mut self, program: &Program, input: &str) -> Result<String, String> {
        let _g = self.session.enter("awk_run");
        for rule in &program.rules {
            if rule.pattern == Pattern::Begin {
                self.run_action(rule)?;
            }
        }
        for (nr, line) in input.lines().enumerate() {
            self.set_record(line, nr as f64 + 1.0);
            self.next_flag = false;
            for rule in &program.rules {
                if matches!(rule.pattern, Pattern::Begin | Pattern::End) {
                    continue;
                }
                let fire = match &rule.pattern {
                    Pattern::Always => true,
                    Pattern::Expr(e) => {
                        let v = self.eval(e)?;
                        self.truthy(&v)
                    }
                    _ => unreachable!(),
                };
                if fire {
                    self.run_action(rule)?;
                }
                if self.next_flag {
                    break;
                }
            }
        }
        for rule in &program.rules {
            if rule.pattern == Pattern::End {
                self.run_action(rule)?;
            }
        }
        Ok(std::mem::take(&mut self.output))
    }

    fn run_action(&mut self, rule: &super::parser::Rule) -> Result<(), String> {
        match &rule.action {
            Some(stmts) => {
                for s in stmts {
                    self.exec(s)?;
                    if self.next_flag {
                        break;
                    }
                }
                Ok(())
            }
            None => {
                let rec = self.fields[0].clone();
                self.print_values(&[rec]);
                Ok(())
            }
        }
    }

    /// Splits a record into fields — the per-record allocation storm
    /// the paper's GAWK numbers are made of.
    fn set_record(&mut self, line: &str, nr: f64) {
        let _g = self.session.enter("split_fields");
        self.fields.clear();
        self.fields.push(Value::Str(self.mkstr(line.to_owned())));
        let parts: Vec<&str> = line.split_whitespace().collect();
        for p in &parts {
            self.fields.push(Value::Str(self.mkstr((*p).to_owned())));
        }
        self.globals.insert("NR".to_owned(), Value::Num(nr));
        self.globals
            .insert("NF".to_owned(), Value::Num(parts.len() as f64));
        self.session.work(line.len() as u64);
    }

    /// Allocates a traced string (the `dupnode`/`make_str_node` layer).
    fn mkstr(&self, s: String) -> RStr {
        let _g = self.session.enter("make_str_node");
        let _m = self.session.enter("emalloc");
        let size = s.len().max(1) as u32;
        let t = self.session.traced(s, size);
        Traced::touch(&t, (t.len() / 4 + 1) as u64);
        Rc::new(t)
    }

    fn exec(&mut self, stmt: &Stmt) -> Result<(), String> {
        match stmt {
            Stmt::Print(args) => {
                let _g = self.session.enter("do_print");
                let vals = if args.is_empty() {
                    vec![self.fields[0].clone()]
                } else {
                    args.iter()
                        .map(|a| self.eval(a))
                        .collect::<Result<Vec<_>, _>>()?
                };
                self.print_values(&vals);
                Ok(())
            }
            Stmt::Printf(args) => {
                let _g = self.session.enter("do_printf");
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<_, _>>()?;
                let fmt = self.to_string_value(&vals[0]);
                let out = self.format(&fmt, &vals[1..]);
                self.output.push_str(&out);
                self.session.work(out.len() as u64 / 2 + 4);
                Ok(())
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(())
            }
            Stmt::If(cond, then, otherwise) => {
                let v = self.eval(cond)?;
                if self.truthy(&v) {
                    self.exec(then)
                } else if let Some(o) = otherwise {
                    self.exec(o)
                } else {
                    Ok(())
                }
            }
            Stmt::While(cond, body) => {
                loop {
                    let v = self.eval(cond)?;
                    if !self.truthy(&v) || self.next_flag {
                        break;
                    }
                    self.exec(body)?;
                }
                Ok(())
            }
            Stmt::For(init, cond, step, body) => {
                if let Some(i) = init {
                    self.exec(i)?;
                }
                loop {
                    if let Some(c) = cond {
                        let v = self.eval(c)?;
                        if !self.truthy(&v) {
                            break;
                        }
                    }
                    if self.next_flag {
                        break;
                    }
                    self.exec(body)?;
                    if let Some(s) = step {
                        self.exec(s)?;
                    }
                }
                Ok(())
            }
            Stmt::ForIn(var, arr, body) => {
                let mut keys: Vec<String> = self
                    .arrays
                    .get(arr)
                    .map_or_else(Vec::new, |m| m.keys().cloned().collect());
                keys.sort(); // deterministic iteration
                for k in keys {
                    let kv = Value::Str(self.mkstr(k));
                    self.globals.insert(var.clone(), kv);
                    self.exec(body)?;
                    if self.next_flag {
                        break;
                    }
                }
                Ok(())
            }
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.exec(s)?;
                    if self.next_flag {
                        break;
                    }
                }
                Ok(())
            }
            Stmt::Next => {
                self.next_flag = true;
                Ok(())
            }
            Stmt::Delete(arr, sub) => {
                let key = {
                    let v = self.eval(sub)?;
                    self.to_string_value(&v)
                };
                if let Some(m) = self.arrays.get_mut(arr) {
                    m.remove(&key);
                }
                Ok(())
            }
        }
    }

    fn print_values(&mut self, vals: &[Value]) {
        for (i, v) in vals.iter().enumerate() {
            if i > 0 {
                self.output.push(' ');
            }
            let s = self.to_string_value(v);
            self.output.push_str(&s);
        }
        self.output.push('\n');
        self.session.work(8);
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, String> {
        match expr {
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::Str(self.mkstr(s.clone()))),
            Expr::Regex(re) => {
                // A bare regex matches against $0.
                let rec = self.to_string_value(&self.fields[0].clone());
                Ok(Value::Num(f64::from(self.regex_match(re, &rec)?)))
            }
            Expr::Var(name) => Ok(self.globals.get(name).cloned().unwrap_or_default()),
            Expr::Field(idx) => {
                let v = self.eval(idx)?;
                let i = self.to_num(&v) as usize;
                Ok(self.fields.get(i).cloned().unwrap_or_default())
            }
            Expr::Index(arr, sub) => {
                let v = self.eval(sub)?;
                let key = self.to_string_value(&v);
                Ok(self
                    .arrays
                    .get(arr)
                    .and_then(|m| m.get(&key))
                    .map(|c| c.value.clone())
                    .unwrap_or_default())
            }
            Expr::Assign(lv, op, rhs) => {
                let _g = self.session.enter("do_assign");
                let rv = self.eval(rhs)?;
                let newv = if op == "=" {
                    rv
                } else {
                    let old = self.read_lvalue(lv)?;
                    let (a, b) = (self.to_num(&old), self.to_num(&rv));
                    Value::Num(match op.as_str() {
                        "+=" => a + b,
                        "-=" => a - b,
                        "*=" => a * b,
                        "/=" => a / b,
                        "%=" => a % b,
                        other => return Err(format!("bad assign op {other}")),
                    })
                };
                self.write_lvalue(lv, newv.clone())?;
                Ok(newv)
            }
            Expr::Binary(op, lhs, rhs) => self.eval_binary(op, lhs, rhs),
            Expr::Unary(op, inner) => {
                let v = self.eval(inner)?;
                match op.as_str() {
                    "!" => Ok(Value::Num(f64::from(!self.truthy(&v)))),
                    "-" => Ok(Value::Num(-self.to_num(&v))),
                    other => Err(format!("bad unary {other}")),
                }
            }
            Expr::Incr {
                lvalue,
                delta,
                postfix,
            } => {
                let old_value = self.read_lvalue(lvalue)?;
                let old = self.to_num(&old_value);
                let new = old + delta;
                self.write_lvalue(lvalue, Value::Num(new))?;
                Ok(Value::Num(if *postfix { old } else { new }))
            }
            Expr::Match(target, re, negated) => {
                let tv = self.eval(target)?;
                let text = self.to_string_value(&tv);
                let hit = self.regex_match(re, &text)?;
                Ok(Value::Num(f64::from(hit != *negated)))
            }
            Expr::Call(name, args) => self.call(name, args),
            Expr::In(key, arr) => {
                let kv = self.eval(key)?;
                let k = self.to_string_value(&kv);
                let present = self.arrays.get(arr).is_some_and(|m| m.contains_key(&k));
                Ok(Value::Num(f64::from(present)))
            }
        }
    }

    fn eval_binary(&mut self, op: &str, lhs: &Expr, rhs: &Expr) -> Result<Value, String> {
        if op == "&&" {
            let l = self.eval(lhs)?;
            if !self.truthy(&l) {
                return Ok(Value::Num(0.0));
            }
            let r = self.eval(rhs)?;
            return Ok(Value::Num(f64::from(self.truthy(&r))));
        }
        if op == "||" {
            let l = self.eval(lhs)?;
            if self.truthy(&l) {
                return Ok(Value::Num(1.0));
            }
            let r = self.eval(rhs)?;
            return Ok(Value::Num(f64::from(self.truthy(&r))));
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        match op {
            "concat" => {
                let _g = self.session.enter("do_concat");
                let a = self.to_string_value(&l);
                let b = self.to_string_value(&r);
                let mut s = String::with_capacity(a.len() + b.len());
                s.push_str(&a);
                s.push_str(&b);
                Ok(Value::Str(self.mkstr(s)))
            }
            "+" | "-" | "*" | "/" | "%" => {
                let (a, b) = (self.to_num(&l), self.to_num(&r));
                Ok(Value::Num(match op {
                    "+" => a + b,
                    "-" => a - b,
                    "*" => a * b,
                    "/" => a / b,
                    _ => a % b,
                }))
            }
            "<" | "<=" | ">" | ">=" | "==" | "!=" => {
                let result = match (&l, &r) {
                    (Value::Str(a), Value::Str(b)) => compare(op, &***a, &***b),
                    _ => {
                        let (a, b) = (self.to_num(&l), self.to_num(&r));
                        compare(op, &a, &b)
                    }
                };
                Ok(Value::Num(f64::from(result)))
            }
            other => Err(format!("bad binary op {other}")),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<Value, String> {
        if name == "gsub" || name == "sub" {
            return self.substitute(name == "gsub", args);
        }
        let vals: Vec<Value> = args
            .iter()
            .map(|a| self.eval(a))
            .collect::<Result<_, _>>()?;
        match name {
            "length" => {
                let s = if vals.is_empty() {
                    self.to_string_value(&self.fields[0].clone())
                } else {
                    self.to_string_value(&vals[0])
                };
                Ok(Value::Num(s.len() as f64))
            }
            "substr" => {
                let _g = self.session.enter("do_substr");
                let s = self.to_string_value(&vals[0]);
                let start = (self.to_num(vals.get(1).unwrap_or(&Value::Num(1.0))) as usize)
                    .saturating_sub(1);
                let len = vals
                    .get(2)
                    .map_or(usize::MAX, |v| self.to_num(v).max(0.0) as usize);
                let sub: String = s.chars().skip(start).take(len).collect();
                Ok(Value::Str(self.mkstr(sub)))
            }
            "index" => {
                let hay = self.to_string_value(&vals[0]);
                let needle = self.to_string_value(&vals[1]);
                Ok(Value::Num(
                    hay.find(needle.as_str()).map_or(0.0, |i| i as f64 + 1.0),
                ))
            }
            "split" => {
                let _g = self.session.enter("do_split");
                let s = self.to_string_value(&vals[0]);
                let Expr::Var(arr_name) = &args[1] else {
                    return Err("split needs an array name".to_owned());
                };
                let sep = vals.get(2).map(|v| self.to_string_value(v));
                let parts: Vec<String> = match &sep {
                    Some(sep) if !sep.is_empty() => {
                        s.split(sep.as_str()).map(str::to_owned).collect()
                    }
                    _ => s.split_whitespace().map(str::to_owned).collect(),
                };
                let n = parts.len();
                self.arrays.insert(arr_name.clone(), HashMap::default());
                for (i, p) in parts.into_iter().enumerate() {
                    let v = Value::Str(self.mkstr(p));
                    self.array_insert(arr_name, (i + 1).to_string(), v);
                }
                Ok(Value::Num(n as f64))
            }
            "toupper" | "tolower" => {
                let _g = self.session.enter("do_case");
                let s = self.to_string_value(&vals[0]);
                let out = if name == "toupper" {
                    s.to_uppercase()
                } else {
                    s.to_lowercase()
                };
                Ok(Value::Str(self.mkstr(out)))
            }
            "sprintf" => {
                let _g = self.session.enter("do_sprintf");
                let fmt = self.to_string_value(&vals[0]);
                let out = self.format(&fmt, &vals[1..]);
                Ok(Value::Str(self.mkstr(out)))
            }
            "int" => Ok(Value::Num(self.to_num(&vals[0]).trunc())),
            other => Err(format!("unknown function {other}")),
        }
    }

    /// `sub(/re/, repl [, target])` and `gsub`: replace the first (or
    /// every) match in the target (default `$0`), returning the count.
    fn substitute(&mut self, global: bool, args: &[Expr]) -> Result<Value, String> {
        let _g = self.session.enter("do_gsub");
        let Some(Expr::Regex(re)) = args.first() else {
            return Err("sub/gsub need a regex first argument".to_owned());
        };
        let replacement = {
            let v = self.eval(args.get(1).ok_or("sub/gsub need a replacement")?)?;
            self.to_string_value(&v)
        };
        let target = match args.get(2) {
            Some(Expr::Var(n)) => Lvalue::Var(n.clone()),
            Some(Expr::Field(i)) => Lvalue::Field(i.clone()),
            Some(Expr::Index(n, i)) => Lvalue::Index(n.clone(), i.clone()),
            Some(other) => return Err(format!("sub/gsub target must be an lvalue, got {other:?}")),
            None => Lvalue::Field(Box::new(Expr::Num(0.0))),
        };
        if !self.regex_cache.contains_key(re) {
            let compiled = Regex::compile(re)?;
            self.regex_cache.insert(re.clone(), compiled);
        }
        let regex = self.regex_cache[re].clone();
        let old = self.read_lvalue(&target)?;
        let mut rest = self.to_string_value(&old);
        let mut out = String::with_capacity(rest.len());
        let mut count = 0u64;
        loop {
            match regex.find(&rest) {
                // Zero-width matches are skipped to guarantee progress.
                Some((a, b)) if b > a => {
                    let chars: Vec<char> = rest.chars().collect();
                    out.extend(&chars[..a]);
                    out.push_str(&replacement);
                    count += 1;
                    rest = chars[b..].iter().collect();
                    self.session.work(rest.len() as u64 / 4 + 1);
                    if !global || rest.is_empty() {
                        break;
                    }
                }
                _ => break,
            }
        }
        out.push_str(&rest);
        let newv = Value::Str(self.mkstr(out));
        self.write_lvalue(&target, newv)?;
        Ok(Value::Num(count as f64))
    }

    /// Minimal printf-style formatting: `%s`, `%d`, `%x`, `%f`, `%%`.
    fn format(&mut self, fmt: &str, args: &[Value]) -> String {
        let mut out = String::new();
        let mut ai = 0;
        let mut chars = fmt.chars().peekable();
        while let Some(c) = chars.next() {
            if c != '%' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('%') => out.push('%'),
                Some('s') => {
                    let v = args.get(ai).cloned().unwrap_or_default();
                    out.push_str(&self.to_string_value(&v));
                    ai += 1;
                }
                Some('d') => {
                    let v = args.get(ai).cloned().unwrap_or_default();
                    out.push_str(&(self.to_num(&v) as i64).to_string());
                    ai += 1;
                }
                Some('x') => {
                    let v = args.get(ai).cloned().unwrap_or_default();
                    out.push_str(&format!("{:x}", self.to_num(&v) as i64));
                    ai += 1;
                }
                Some('f') => {
                    let v = args.get(ai).cloned().unwrap_or_default();
                    out.push_str(&format!("{:.6}", self.to_num(&v)));
                    ai += 1;
                }
                Some(other) => out.push(other),
                None => {}
            }
        }
        out
    }

    fn regex_match(&mut self, pattern: &str, text: &str) -> Result<bool, String> {
        if !self.regex_cache.contains_key(pattern) {
            let re = Regex::compile(pattern)?;
            self.regex_cache.insert(pattern.to_owned(), re);
        }
        self.session.work(text.len() as u64 / 2 + 4);
        Ok(self.regex_cache[pattern].is_match(text))
    }

    fn read_lvalue(&mut self, lv: &Lvalue) -> Result<Value, String> {
        match lv {
            Lvalue::Var(n) => Ok(self.globals.get(n).cloned().unwrap_or_default()),
            Lvalue::Field(ie) => {
                let v = self.eval(ie)?;
                let i = self.to_num(&v) as usize;
                Ok(self.fields.get(i).cloned().unwrap_or_default())
            }
            Lvalue::Index(arr, sub) => {
                let v = self.eval(sub)?;
                let key = self.to_string_value(&v);
                Ok(self
                    .arrays
                    .get(arr)
                    .and_then(|m| m.get(&key))
                    .map(|c| c.value.clone())
                    .unwrap_or_default())
            }
        }
    }

    fn write_lvalue(&mut self, lv: &Lvalue, value: Value) -> Result<(), String> {
        match lv {
            Lvalue::Var(n) => {
                self.globals.insert(n.clone(), value);
            }
            Lvalue::Field(ie) => {
                let v = self.eval(ie)?;
                let i = self.to_num(&v) as usize;
                while self.fields.len() <= i {
                    self.fields.push(Value::Uninit);
                }
                self.fields[i] = value;
            }
            Lvalue::Index(arr, sub) => {
                let v = self.eval(sub)?;
                let key = self.to_string_value(&v);
                self.array_insert(arr, key, value);
            }
        }
        Ok(())
    }

    fn array_insert(&mut self, arr: &str, key: String, value: Value) {
        let map = self.arrays.entry(arr.to_owned()).or_default();
        if let Some(cell) = map.get_mut(&key) {
            cell.value = value;
        } else {
            let _g = self.session.enter("array_node");
            let _m = self.session.enter("emalloc");
            let node = self.session.traced((), (key.len() + 16) as u32);
            map.insert(key, Cell { _node: node, value });
        }
    }

    /// AWK truthiness: nonzero number or nonempty string.
    fn truthy(&self, v: &Value) -> bool {
        match v {
            Value::Uninit => false,
            Value::Num(n) => *n != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }

    fn to_num(&self, v: &Value) -> f64 {
        match v {
            Value::Uninit => 0.0,
            Value::Num(n) => *n,
            Value::Str(s) => {
                // AWK parses a numeric prefix.
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

    fn to_string_value(&self, v: &Value) -> String {
        match v {
            Value::Uninit => String::new(),
            Value::Num(n) => num_to_string(*n),
            Value::Str(s) => (***s).clone(),
        }
    }
}

fn compare<T: PartialOrd + PartialEq>(op: &str, a: &T, b: &T) -> bool {
    match op {
        "<" => a < b,
        "<=" => a <= b,
        ">" => a > b,
        ">=" => a >= b,
        "==" => a == b,
        "!=" => a != b,
        _ => false,
    }
}

/// AWK number formatting: integers print without a decimal point.
pub fn num_to_string(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse;
    use super::*;
    use lifepred_trace::TraceSession;

    fn run(src: &str, input: &str) -> String {
        let s = TraceSession::new("awk-test");
        let prog = parse(src).expect("parse");
        let mut interp = Interp::new(&s);
        interp.run(&prog, input).expect("run")
    }

    #[test]
    fn counts_records() {
        let out = run("{ n++ }\nEND { print n }", "a\nb\nc\n");
        assert_eq!(out, "3\n");
    }

    #[test]
    fn fields_and_concat() {
        let out = run(r#"{ print $2 "-" $1 }"#, "hello world\nfoo bar\n");
        assert_eq!(out, "world-hello\nbar-foo\n");
    }

    #[test]
    fn arrays_and_for_in() {
        let out = run(
            "{ c[$1]++ }\nEND { for (k in c) print k, c[k] }",
            "b\na\nb\n",
        );
        assert_eq!(out, "a 1\nb 2\n");
    }

    #[test]
    fn paragraph_fill() {
        let src = r#"
{ line = line " " $1 }
length(line) > 20 { print line; line = "" }
END { if (length(line) > 0) print line }
"#;
        let out = run(src, "aaaa\nbbbb\ncccc\ndddd\neeee\nffff\n");
        assert!(out.lines().count() >= 2);
        for l in out.lines() {
            assert!(l.len() <= 26, "line too long: {l}");
        }
    }

    #[test]
    fn regex_patterns_filter() {
        let out = run("/^[0-9]+$/ { n++ }\nEND { print n }", "12\nx\n9\n");
        assert_eq!(out, "2\n");
    }

    #[test]
    fn builtins() {
        assert_eq!(run("{ print length($1) }", "hello\n"), "5\n");
        assert_eq!(run("{ print substr($1, 2, 3) }", "hello\n"), "ell\n");
        assert_eq!(run("{ print index($1, \"ll\") }", "hello\n"), "3\n");
        assert_eq!(run("{ print toupper($1) }", "hey\n"), "HEY\n");
        assert_eq!(
            run("{ n = split($0, parts); print n, parts[2] }", "a b c\n"),
            "3 b\n"
        );
        assert_eq!(run("{ print sprintf(\"%s=%d\", $1, 42) }", "x\n"), "x=42\n");
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(run("{ print $1 + $2 * 2 }", "1 3\n"), "7\n");
        assert_eq!(run("$1 > 5 { print }", "3\n9\n"), "9\n");
        assert_eq!(run("{ print ($1 == \"a\") }", "a\n"), "1\n");
    }

    #[test]
    fn control_flow() {
        let out = run(
            "{ for (i = 0; i < 3; i++) s += i; while (j < 2) j++; print s, j }",
            "x\n",
        );
        assert_eq!(out, "3 2\n");
    }

    #[test]
    fn printf_formats_without_newline() {
        let out = run(r#"{ printf "%s=%d;", $1, $2 * 2 }"#, "a 1\nb 2\n");
        assert_eq!(out, "a=2;b=4;");
    }

    #[test]
    fn sub_replaces_first_only() {
        let out = run(r#"{ n = sub(/o/, "0"); print n, $0 }"#, "foo\n");
        assert_eq!(out, "1 f0o\n");
    }

    #[test]
    fn gsub_replaces_all_and_counts() {
        let out = run(r#"{ n = gsub(/o/, "0"); print n, $0 }"#, "foo boo\n");
        assert_eq!(out, "4 f00 b00\n");
    }

    #[test]
    fn gsub_on_named_variable() {
        let out = run(
            r##"{ x = $0; gsub(/[0-9]+/, "#", x); print x }"##,
            "a1b22c333\n",
        );
        assert_eq!(out, "a#b#c#\n");
    }

    #[test]
    fn gsub_with_no_match_returns_zero() {
        let out = run(r#"{ print gsub(/zz/, "!") }"#, "abc\n");
        assert_eq!(out, "0\n");
    }

    #[test]
    fn next_skips_later_rules() {
        let out = run("$1 == \"skip\" { next }\n{ print $1 }", "a\nskip\nb\n");
        assert_eq!(out, "a\nb\n");
    }

    #[test]
    fn delete_and_in() {
        let out = run(
            "BEGIN { a[\"x\"] = 1; delete a[\"x\"]; print (\"x\" in a) }",
            "",
        );
        assert_eq!(out, "0\n");
    }

    #[test]
    fn string_allocations_are_traced() {
        let s = TraceSession::new("awk-alloc");
        let prog = parse(r#"{ line = line " " $1 }"#).expect("parse");
        let mut interp = Interp::new(&s);
        interp.run(&prog, "one two\nthree\n").expect("run");
        drop(interp);
        let t = s.finish();
        assert!(t.stats().total_objects > 6);
        // Field strings die by the next record: check some short-lived
        // records exist.
        let end = t.end_clock();
        assert!(t.records().iter().any(|r| r.lifetime(end) < 200));
    }
}
