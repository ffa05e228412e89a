//! The PostScript executor: operand stack, dictionary stack, operators.

use super::graphics::{rasterize, Matrix, Path};
use super::scanner::PsToken;
use crate::HashMap;
use lifepred_trace::{TraceSession, Traced};
use std::cell::RefCell;
use std::rc::Rc;

/// A traced PostScript composite: the allocation node plus payload.
#[derive(Debug)]
pub struct Composite<T> {
    /// The traced allocation standing for the C object header+body.
    pub node: Traced<()>,
    /// The payload.
    pub body: RefCell<T>,
}

/// One cached glyph: the bitmap and its metrics node.
type Glyph = (Traced<Vec<u8>>, Traced<(f32, f32)>);

/// A PostScript object.
#[derive(Debug, Clone)]
pub enum Obj {
    /// Integer.
    Int(i64),
    /// Real.
    Real(f64),
    /// Boolean.
    Bool(bool),
    /// Literal name (`/x`).
    LitName(String),
    /// String (traced).
    Str(Rc<Composite<String>>),
    /// Array (traced).
    Array(Rc<Composite<Vec<Obj>>>),
    /// Procedure body (traced token list).
    Proc(Rc<Composite<Vec<PsToken>>>),
    /// Dictionary (traced).
    Dict(Rc<Composite<HashMap<String, Obj>>>),
    /// Array-construction mark.
    Mark,
}

/// Graphics state saved by `gsave`.
#[derive(Debug, Clone, Copy)]
struct GState {
    ctm: Matrix,
    line_width: f64,
    gray: f64,
    font_size: f64,
}

impl Default for GState {
    fn default() -> Self {
        GState {
            ctm: Matrix::identity(),
            line_width: 1.0,
            gray: 0.0,
            font_size: 12.0,
        }
    }
}

/// Summary of one interpretation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageStats {
    /// `showpage` executions.
    pub pages: u64,
    /// Path paint operations (stroke/fill).
    pub paints: u64,
    /// Glyphs rendered by `show`.
    pub glyphs_shown: u64,
}

/// The PostScript interpreter.
#[derive(Debug)]
pub struct PsInterp<'s> {
    session: &'s TraceSession,
    stack: Vec<Obj>,
    dicts: Vec<Rc<Composite<HashMap<String, Obj>>>>,
    gstate: GState,
    gstack: Vec<GState>,
    path: Path,
    /// Font cache: one large bitmap plus a small metrics node per
    /// (glyph, font size), long-lived — the bitmaps are the paper's
    /// "about 5000 6-kilobyte objects" class.
    glyph_cache: HashMap<(char, u32), Glyph>,
    /// Page display list: rasterized spans, freed at `showpage`.
    page_spans: Vec<Traced<(u32, u32)>>,
    /// Page text layout: glyph advances, freed at `showpage`.
    page_advances: Vec<Traced<(u32, f32)>>,
    stats: PageStats,
}

/// Bytes per cached glyph bitmap (≈ the 6 KB objects the paper calls
/// out as too large for 4 KB arenas).
const GLYPH_BYTES: u32 = 6 * 1024;

impl<'s> PsInterp<'s> {
    /// Creates an interpreter with an empty user dictionary.
    pub fn new(session: &'s TraceSession) -> Self {
        let userdict = alloc_dict(session, 64);
        PsInterp {
            session,
            stack: Vec::new(),
            dicts: vec![userdict],
            gstate: GState::default(),
            gstack: Vec::new(),
            path: Path::new(),
            glyph_cache: HashMap::default(),
            page_spans: Vec::new(),
            page_advances: Vec::new(),
            stats: PageStats::default(),
        }
    }

    /// Executes a whole program.
    ///
    /// # Errors
    ///
    /// Returns a message on type errors, stack underflow, unknown
    /// names, or malformed procedure nesting.
    pub fn run(&mut self, tokens: &[PsToken]) -> Result<PageStats, String> {
        let _g = self.session.enter("ps_run");
        let mut i = 0;
        while i < tokens.len() {
            i = self.exec_token(tokens, i)?;
        }
        Ok(self.stats)
    }

    /// Executes the token at `i`, returning the next index.
    fn exec_token(&mut self, tokens: &[PsToken], i: usize) -> Result<usize, String> {
        match &tokens[i] {
            PsToken::Int(v) => {
                self.stack.push(Obj::Int(*v));
                Ok(i + 1)
            }
            PsToken::Real(v) => {
                self.stack.push(Obj::Real(*v));
                Ok(i + 1)
            }
            PsToken::Str(s) => {
                self.stack
                    .push(Obj::Str(alloc_str(self.session, s.clone())));
                Ok(i + 1)
            }
            PsToken::LitName(n) => {
                self.stack.push(Obj::LitName(n.clone()));
                Ok(i + 1)
            }
            PsToken::ProcOpen => {
                let (body, next) = collect_proc(tokens, i + 1)?;
                let node = {
                    let _g = self.session.enter("proc_alloc");
                    let _m = self.session.enter("gs_alloc");
                    self.session.traced((), (body.len() * 8 + 8) as u32)
                };
                self.stack.push(Obj::Proc(Rc::new(Composite {
                    node,
                    body: RefCell::new(body),
                })));
                Ok(next)
            }
            PsToken::ProcClose => Err("unmatched }".to_owned()),
            PsToken::ArrayOpen => {
                self.stack.push(Obj::Mark);
                Ok(i + 1)
            }
            PsToken::ArrayClose => {
                let mut items = Vec::new();
                loop {
                    match self.stack.pop() {
                        Some(Obj::Mark) => break,
                        Some(o) => items.push(o),
                        None => return Err("] without [".to_owned()),
                    }
                }
                items.reverse();
                self.stack
                    .push(Obj::Array(alloc_array(self.session, items)));
                Ok(i + 1)
            }
            PsToken::Name(n) => {
                self.exec_name(n)?;
                Ok(i + 1)
            }
        }
    }

    /// Runs a procedure body.
    fn exec_proc(&mut self, proc: &Rc<Composite<Vec<PsToken>>>) -> Result<(), String> {
        let body = proc.body.borrow().clone();
        Traced::touch(&proc.node, body.len() as u64 / 2 + 1);
        let mut i = 0;
        while i < body.len() {
            i = self.exec_token(&body, i)?;
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<Obj> {
        for d in self.dicts.iter().rev() {
            if let Some(o) = d.body.borrow().get(name) {
                return Some(o.clone());
            }
        }
        None
    }

    fn exec_name(&mut self, name: &str) -> Result<(), String> {
        if let Some(obj) = self.lookup(name) {
            return match obj {
                Obj::Proc(p) => self.exec_proc(&p),
                other => {
                    self.stack.push(other);
                    Ok(())
                }
            };
        }
        self.operator(name)
    }

    fn pop(&mut self) -> Result<Obj, String> {
        self.stack.pop().ok_or_else(|| "stack underflow".to_owned())
    }

    fn pop_num(&mut self) -> Result<f64, String> {
        match self.pop()? {
            Obj::Int(i) => Ok(i as f64),
            Obj::Real(r) => Ok(r),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    fn pop_int(&mut self) -> Result<i64, String> {
        match self.pop()? {
            Obj::Int(i) => Ok(i),
            Obj::Real(r) => Ok(r as i64),
            other => Err(format!("expected int, got {other:?}")),
        }
    }

    fn pop_bool(&mut self) -> Result<bool, String> {
        match self.pop()? {
            Obj::Bool(b) => Ok(b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }

    fn pop_proc(&mut self) -> Result<Rc<Composite<Vec<PsToken>>>, String> {
        match self.pop()? {
            Obj::Proc(p) => Ok(p),
            other => Err(format!("expected proc, got {other:?}")),
        }
    }

    fn pop_name(&mut self) -> Result<String, String> {
        match self.pop()? {
            Obj::LitName(n) => Ok(n),
            other => Err(format!("expected name, got {other:?}")),
        }
    }

    fn push_num(&mut self, v: f64) {
        if v.fract() == 0.0 && v.abs() < 1e15 {
            self.stack.push(Obj::Int(v as i64));
        } else {
            self.stack.push(Obj::Real(v));
        }
    }

    #[allow(clippy::too_many_lines)]
    fn operator(&mut self, name: &str) -> Result<(), String> {
        match name {
            // --- stack manipulation ---
            "dup" => {
                let top = self.pop()?;
                self.stack.push(top.clone());
                self.stack.push(top);
            }
            "pop" => {
                self.pop()?;
            }
            "exch" => {
                let b = self.pop()?;
                let a = self.pop()?;
                self.stack.push(b);
                self.stack.push(a);
            }
            "index" => {
                let n = self.pop_int()? as usize;
                let len = self.stack.len();
                if n >= len {
                    return Err("index out of range".to_owned());
                }
                let item = self.stack[len - 1 - n].clone();
                self.stack.push(item);
            }
            "copy" => {
                let n = self.pop_int()? as usize;
                let len = self.stack.len();
                if n > len {
                    return Err("copy out of range".to_owned());
                }
                for k in len - n..len {
                    self.stack.push(self.stack[k].clone());
                }
            }
            "roll" => {
                let j = self.pop_int()?;
                let n = self.pop_int()? as usize;
                let len = self.stack.len();
                if n > len {
                    return Err("roll out of range".to_owned());
                }
                if n > 0 {
                    let slice = &mut self.stack[len - n..];
                    let j = j.rem_euclid(n as i64) as usize;
                    slice.rotate_right(j);
                }
            }
            "clear" => self.stack.clear(),
            "count" => {
                let n = self.stack.len() as i64;
                self.stack.push(Obj::Int(n));
            }
            // --- arithmetic ---
            "add" | "sub" | "mul" | "div" | "mod" | "idiv" => {
                let b = self.pop_num()?;
                let a = self.pop_num()?;
                let v = match name {
                    "add" => a + b,
                    "sub" => a - b,
                    "mul" => a * b,
                    "div" => {
                        if b == 0.0 {
                            return Err("division by zero".to_owned());
                        }
                        a / b
                    }
                    "mod" => {
                        if b == 0.0 {
                            return Err("mod by zero".to_owned());
                        }
                        ((a as i64) % (b as i64)) as f64
                    }
                    _ => {
                        if b == 0.0 {
                            return Err("idiv by zero".to_owned());
                        }
                        ((a as i64) / (b as i64)) as f64
                    }
                };
                self.push_num(v);
                self.session.work(2);
            }
            "neg" => {
                let a = self.pop_num()?;
                self.push_num(-a);
            }
            "abs" => {
                let a = self.pop_num()?;
                self.push_num(a.abs());
            }
            "round" => {
                let a = self.pop_num()?;
                self.push_num(a.round());
            }
            "sqrt" => {
                let a = self.pop_num()?;
                self.stack.push(Obj::Real(a.sqrt()));
            }
            "truncate" => {
                let a = self.pop_num()?;
                self.push_num(a.trunc());
            }
            // --- comparison / logic ---
            "eq" | "ne" | "lt" | "le" | "gt" | "ge" => {
                let b = self.pop_num()?;
                let a = self.pop_num()?;
                let v = match name {
                    "eq" => a == b,
                    "ne" => a != b,
                    "lt" => a < b,
                    "le" => a <= b,
                    "gt" => a > b,
                    _ => a >= b,
                };
                self.stack.push(Obj::Bool(v));
            }
            "and" | "or" => {
                let b = self.pop_bool()?;
                let a = self.pop_bool()?;
                self.stack
                    .push(Obj::Bool(if name == "and" { a && b } else { a || b }));
            }
            "not" => {
                let a = self.pop_bool()?;
                self.stack.push(Obj::Bool(!a));
            }
            "true" => self.stack.push(Obj::Bool(true)),
            "false" => self.stack.push(Obj::Bool(false)),
            // --- control ---
            "if" => {
                let p = self.pop_proc()?;
                let c = self.pop_bool()?;
                if c {
                    self.exec_proc(&p)?;
                }
            }
            "ifelse" => {
                let pf = self.pop_proc()?;
                let pt = self.pop_proc()?;
                let c = self.pop_bool()?;
                self.exec_proc(if c { &pt } else { &pf })?;
            }
            "repeat" => {
                let p = self.pop_proc()?;
                let n = self.pop_int()?;
                for _ in 0..n.max(0) {
                    self.exec_proc(&p)?;
                }
            }
            "for" => {
                let p = self.pop_proc()?;
                let limit = self.pop_num()?;
                let step = self.pop_num()?;
                let init = self.pop_num()?;
                if step == 0.0 {
                    return Err("for with zero step".to_owned());
                }
                let mut v = init;
                while (step > 0.0 && v <= limit) || (step < 0.0 && v >= limit) {
                    self.push_num(v);
                    self.exec_proc(&p)?;
                    v += step;
                }
            }
            "forall" => {
                let p = self.pop_proc()?;
                match self.pop()? {
                    Obj::Array(a) => {
                        let items = a.body.borrow().clone();
                        Traced::touch(&a.node, items.len() as u64);
                        for item in items {
                            self.stack.push(item);
                            self.exec_proc(&p)?;
                        }
                    }
                    Obj::Str(s) => {
                        let text = s.body.borrow().clone();
                        Traced::touch(&s.node, text.len() as u64);
                        for ch in text.chars() {
                            self.stack.push(Obj::Int(ch as i64));
                            self.exec_proc(&p)?;
                        }
                    }
                    other => return Err(format!("forall over {other:?}")),
                }
            }
            "exec" => {
                let p = self.pop_proc()?;
                self.exec_proc(&p)?;
            }
            // --- definitions / dictionaries ---
            "def" => {
                let value = self.pop()?;
                let key = self.pop_name()?;
                let d = self.dicts.last().expect("dict stack nonempty");
                Traced::touch(&d.node, 2);
                d.body.borrow_mut().insert(key, value);
            }
            "load" => {
                let key = self.pop_name()?;
                let v = self
                    .lookup(&key)
                    .ok_or_else(|| format!("undefined name {key}"))?;
                self.stack.push(v);
            }
            "dict" => {
                let n = self.pop_int()? as usize;
                self.stack.push(Obj::Dict(alloc_dict(self.session, n)));
            }
            "begin" => match self.pop()? {
                Obj::Dict(d) => self.dicts.push(d),
                other => return Err(format!("begin expects dict, got {other:?}")),
            },
            "end" => {
                if self.dicts.len() <= 1 {
                    return Err("end with empty dict stack".to_owned());
                }
                self.dicts.pop();
            }
            "known" => {
                let key = self.pop_name()?;
                match self.pop()? {
                    Obj::Dict(d) => {
                        let present = d.body.borrow().contains_key(&key);
                        self.stack.push(Obj::Bool(present));
                    }
                    other => return Err(format!("known expects dict, got {other:?}")),
                }
            }
            // --- arrays / strings ---
            "array" => {
                let n = self.pop_int()? as usize;
                self.stack
                    .push(Obj::Array(alloc_array(self.session, vec![Obj::Int(0); n])));
            }
            "length" => match self.pop()? {
                Obj::Array(a) => {
                    let n = a.body.borrow().len();
                    self.stack.push(Obj::Int(n as i64));
                }
                Obj::Str(s) => {
                    let n = s.body.borrow().len();
                    self.stack.push(Obj::Int(n as i64));
                }
                Obj::Dict(d) => {
                    let n = d.body.borrow().len();
                    self.stack.push(Obj::Int(n as i64));
                }
                other => return Err(format!("length of {other:?}")),
            },
            "get" => {
                let idx = self.pop_int()? as usize;
                match self.pop()? {
                    Obj::Array(a) => {
                        let v = a
                            .body
                            .borrow()
                            .get(idx)
                            .cloned()
                            .ok_or("get out of range")?;
                        Traced::touch(&a.node, 1);
                        self.stack.push(v);
                    }
                    Obj::Str(s) => {
                        let b = s
                            .body
                            .borrow()
                            .as_bytes()
                            .get(idx)
                            .copied()
                            .ok_or("get out of range")?;
                        self.stack.push(Obj::Int(i64::from(b)));
                    }
                    other => return Err(format!("get from {other:?}")),
                }
            }
            "put" => {
                let value = self.pop()?;
                let idx = self.pop_int()? as usize;
                match self.pop()? {
                    Obj::Array(a) => {
                        let mut body = a.body.borrow_mut();
                        if idx >= body.len() {
                            return Err("put out of range".to_owned());
                        }
                        Traced::touch(&a.node, 1);
                        body[idx] = value;
                    }
                    other => return Err(format!("put into {other:?}")),
                }
            }
            "string" => {
                let n = self.pop_int()? as usize;
                self.stack
                    .push(Obj::Str(alloc_str(self.session, " ".repeat(n))));
            }
            // --- graphics state ---
            "gsave" => self.gstack.push(self.gstate),
            "grestore" => {
                self.gstate = self.gstack.pop().unwrap_or_default();
            }
            "translate" => {
                let y = self.pop_num()?;
                let x = self.pop_num()?;
                self.gstate.ctm = self.gstate.ctm.translate(x, y);
            }
            "scale" => {
                let y = self.pop_num()?;
                let x = self.pop_num()?;
                self.gstate.ctm = self.gstate.ctm.scale(x, y);
            }
            "rotate" => {
                let d = self.pop_num()?;
                self.gstate.ctm = self.gstate.ctm.rotate(d);
            }
            "setlinewidth" => {
                self.gstate.line_width = self.pop_num()?;
            }
            "setgray" => {
                self.gstate.gray = self.pop_num()?;
            }
            // --- path construction ---
            "newpath" => self.path.clear(),
            "moveto" => {
                let y = self.pop_num()?;
                let x = self.pop_num()?;
                let (tx, ty) = self.gstate.ctm.apply(x, y);
                self.path.move_to(self.session, tx, ty);
            }
            "lineto" => {
                let y = self.pop_num()?;
                let x = self.pop_num()?;
                let (tx, ty) = self.gstate.ctm.apply(x, y);
                self.path.line_to(self.session, tx, ty);
            }
            "rlineto" | "rmoveto" => {
                let dy = self.pop_num()?;
                let dx = self.pop_num()?;
                let (cx, cy) = self
                    .path
                    .current_point()
                    .ok_or("rlineto with no current point")?;
                // Relative moves transform the delta only.
                let (tx, ty) = self.gstate.ctm.apply(dx, dy);
                let (ox, oy) = self.gstate.ctm.apply(0.0, 0.0);
                let p = (cx + tx - ox, cy + ty - oy);
                if name == "rlineto" {
                    self.path.line_to(self.session, p.0, p.1);
                } else {
                    self.path.move_to(self.session, p.0, p.1);
                }
            }
            "curveto" => {
                let y3 = self.pop_num()?;
                let x3 = self.pop_num()?;
                let y2 = self.pop_num()?;
                let x2 = self.pop_num()?;
                let y1 = self.pop_num()?;
                let x1 = self.pop_num()?;
                let (tx1, ty1) = self.gstate.ctm.apply(x1, y1);
                let (tx2, ty2) = self.gstate.ctm.apply(x2, y2);
                let (tx3, ty3) = self.gstate.ctm.apply(x3, y3);
                self.path
                    .curve_to(self.session, tx1, ty1, tx2, ty2, tx3, ty3);
            }
            "closepath" => self.path.close(self.session),
            // --- painting (NODISPLAY) ---
            "stroke" | "fill" => {
                let _g = self.session.enter(if name == "stroke" {
                    "do_stroke"
                } else {
                    "do_fill"
                });
                let chords = self.path.flatten(self.session);
                let out = rasterize(self.session, &chords, self.gstate.line_width);
                self.page_spans.extend(out.spans);
                self.path.clear();
                self.stats.paints += 1;
            }
            // --- text ---
            "show" => {
                let s = match self.pop()? {
                    Obj::Str(s) => s,
                    other => return Err(format!("show expects string, got {other:?}")),
                };
                let text = s.body.borrow().clone();
                self.show_text(&text);
            }
            "stringwidth" => {
                let s = match self.pop()? {
                    Obj::Str(s) => s,
                    other => return Err(format!("stringwidth expects string, got {other:?}")),
                };
                let w = s.body.borrow().len() as f64 * 6.0;
                self.push_num(w);
                self.push_num(0.0);
            }
            "showpage" => {
                let _g = self.session.enter("showpage");
                // Emit page bands, then drop the page display list —
                // spans and advances die here (NODISPLAY).
                for _ in 0..8 {
                    let _m = self.session.enter("gs_alloc");
                    let band = self.session.traced(vec![0u8; 2048], 2048);
                    Traced::touch(&band, 16);
                }
                self.page_spans.clear();
                self.page_advances.clear();
                self.path.clear();
                self.stats.pages += 1;
                self.session.work(2000);
            }
            "selectfont" => {
                let size = self.pop_num()?;
                self.pop_name()?;
                self.gstate.font_size = size.max(1.0);
            }
            "findfont" | "setfont" | "scalefont" => {
                // Font machinery is a no-op beyond consuming operands.
                if name != "findfont" {
                    self.pop()?;
                }
                if name == "findfont" {
                    self.pop_name()?;
                    self.stack.push(Obj::Int(0)); // dummy font object
                }
            }
            other => return Err(format!("unknown operator {other}")),
        }
        Ok(())
    }

    /// Renders text: each new glyph allocates a large cached bitmap;
    /// every glyph allocates a small short-lived advance record.
    fn show_text(&mut self, text: &str) {
        let _g = self.session.enter("show_text");
        let size_key = self.gstate.font_size.round() as u32;
        for ch in text.chars() {
            if !self.glyph_cache.contains_key(&(ch, size_key)) {
                let _g2 = self.session.enter("build_glyph");
                let bitmap = {
                    let _m = self.session.enter("gs_alloc");
                    self.session
                        .traced(vec![0u8; GLYPH_BYTES as usize], GLYPH_BYTES)
                };
                Traced::touch(&bitmap, 64);
                // Width/height metrics: the same 16-byte struct shape
                // the rasterizer churns through, but cached forever.
                let metrics = alloc_struct(self.session, (6.0f32, 9.0f32));
                self.glyph_cache.insert((ch, size_key), (bitmap, metrics));
            }
            let advance = {
                let _m = self.session.enter("gs_alloc");
                self.session.traced((ch as u32, 6.0f32), 12)
            };
            Traced::touch(&advance, 1);
            self.page_advances.push(advance);
            self.stats.glyphs_shown += 1;
        }
        self.session.work(text.len() as u64 * 3);
    }
}

/// Allocates a small fixed-shape struct through the shared low-level
/// layer (the rasterizer's spans take the same path, so short chains
/// cannot tell cached metrics from transient spans).
fn alloc_struct<T>(session: &TraceSession, value: T) -> Traced<T> {
    let _g = session.enter("alloc_struct");
    let _m = session.enter("gs_alloc");
    session.traced(value, 16)
}

fn alloc_str(session: &TraceSession, s: String) -> Rc<Composite<String>> {
    let _g = session.enter("str_alloc");
    let _m = session.enter("gs_alloc");
    let node = session.traced((), s.len().max(1) as u32);
    Traced::touch(&node, s.len() as u64 / 4 + 1);
    Rc::new(Composite {
        node,
        body: RefCell::new(s),
    })
}

fn alloc_array(session: &TraceSession, items: Vec<Obj>) -> Rc<Composite<Vec<Obj>>> {
    let _g = session.enter("array_alloc");
    let _m = session.enter("gs_alloc");
    let node = session.traced((), (items.len() * 8 + 8) as u32);
    Rc::new(Composite {
        node,
        body: RefCell::new(items),
    })
}

fn alloc_dict(session: &TraceSession, capacity: usize) -> Rc<Composite<HashMap<String, Obj>>> {
    let _g = session.enter("dict_alloc");
    let _m = session.enter("gs_alloc");
    let node = session.traced((), (capacity.max(4) * 16) as u32);
    Rc::new(Composite {
        node,
        body: RefCell::new(HashMap::default()),
    })
}

/// Collects a procedure body starting after a `{`, handling nesting.
fn collect_proc(tokens: &[PsToken], mut i: usize) -> Result<(Vec<PsToken>, usize), String> {
    let mut depth = 1;
    let mut body = Vec::new();
    while i < tokens.len() {
        match &tokens[i] {
            PsToken::ProcOpen => {
                depth += 1;
                body.push(tokens[i].clone());
            }
            PsToken::ProcClose => {
                depth -= 1;
                if depth == 0 {
                    return Ok((body, i + 1));
                }
                body.push(tokens[i].clone());
            }
            t => body.push(t.clone()),
        }
        i += 1;
    }
    Err("unterminated procedure".to_owned())
}

#[cfg(test)]
mod tests {
    use super::super::scanner::scan;
    use super::*;
    use lifepred_trace::TraceSession;

    fn run(src: &str) -> (PageStats, Vec<f64>) {
        let s = TraceSession::new("ps-test");
        let toks = scan(src).expect("scan");
        let mut interp = PsInterp::new(&s);
        let stats = interp.run(&toks).expect("run");
        let nums = interp
            .stack
            .iter()
            .map(|o| match o {
                Obj::Int(i) => *i as f64,
                Obj::Real(r) => *r,
                Obj::Bool(b) => f64::from(*b),
                _ => f64::NAN,
            })
            .collect();
        (stats, nums)
    }

    #[test]
    fn arithmetic_and_stack_ops() {
        let (_, st) = run("3 4 add 2 mul 5 sub");
        assert_eq!(st, vec![9.0]);
        let (_, st) = run("1 2 exch");
        assert_eq!(st, vec![2.0, 1.0]);
        let (_, st) = run("1 2 3 3 -1 roll");
        assert_eq!(st, vec![2.0, 3.0, 1.0]);
        let (_, st) = run("7 dup");
        assert_eq!(st, vec![7.0, 7.0]);
    }

    #[test]
    fn def_and_procedures() {
        let (_, st) = run("/sq { dup mul } def 9 sq");
        assert_eq!(st, vec![81.0]);
    }

    #[test]
    fn control_flow() {
        let (_, st) = run("0 1 1 4 { add } for"); // 0+1+2+3+4
        assert_eq!(st, vec![10.0]);
        let (_, st) = run("true { 1 } { 2 } ifelse");
        assert_eq!(st, vec![1.0]);
        let (_, st) = run("0 5 { 1 add } repeat");
        assert_eq!(st, vec![5.0]);
    }

    #[test]
    fn arrays_and_forall() {
        let (_, st) = run("0 [1 2 3] { add } forall");
        assert_eq!(st, vec![6.0]);
        let (_, st) = run("[10 20 30] 1 get");
        assert_eq!(st, vec![20.0]);
    }

    #[test]
    fn dictionaries() {
        let (_, st) = run("4 dict begin /x 42 def x end");
        assert_eq!(st, vec![42.0]);
    }

    #[test]
    fn paths_paint_and_pages() {
        let (stats, _) = run(
            "newpath 0 0 moveto 100 0 lineto 100 100 lineto closepath stroke \
             newpath 10 10 moveto 20 30 40 50 60 10 curveto fill showpage",
        );
        assert_eq!(stats.paints, 2);
        assert_eq!(stats.pages, 1);
    }

    #[test]
    fn show_populates_glyph_cache() {
        let s = TraceSession::new("ps-glyphs");
        let toks = scan("(hello hello) show").expect("scan");
        let mut interp = PsInterp::new(&s);
        let stats = interp.run(&toks).expect("run");
        assert_eq!(stats.glyphs_shown, 11);
        // 'h','e','l','o',' ' = 5 distinct glyph bitmaps (one size).
        assert_eq!(interp.glyph_cache.len(), 5);
        drop(interp);
        let t = s.finish();
        let big = t.records().iter().filter(|r| r.size >= 6 * 1024).count();
        assert_eq!(big, 5, "one 6 KB bitmap per distinct glyph");
    }

    #[test]
    fn transforms_compose() {
        let (_, st) = run("72 72 translate 2 2 scale 10 10 moveto 0 0 lineto count");
        assert_eq!(st.last(), Some(&0.0));
    }

    #[test]
    fn errors_are_reported() {
        let s = TraceSession::new("ps-err");
        let mut interp = PsInterp::new(&s);
        assert!(interp.run(&scan("1 0 div").expect("scan")).is_err());
        let mut interp2 = PsInterp::new(&s);
        assert!(interp2.run(&scan("frobnicate").expect("scan")).is_err());
        let mut interp3 = PsInterp::new(&s);
        assert!(interp3.run(&scan("pop").expect("scan")).is_err());
    }
}
