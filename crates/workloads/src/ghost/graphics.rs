//! Path construction, flattening and NODISPLAY rasterization.

use lifepred_trace::{TraceSession, Traced};

/// A 2-D affine transform (PostScript CTM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matrix {
    /// `[a b c d tx ty]` such that `x' = a·x + c·y + tx`.
    pub m: [f64; 6],
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::identity()
    }
}

impl Matrix {
    /// The identity transform.
    pub fn identity() -> Matrix {
        Matrix {
            m: [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        }
    }

    /// Applies the transform to a point.
    pub fn apply(&self, x: f64, y: f64) -> (f64, f64) {
        (
            self.m[0] * x + self.m[2] * y + self.m[4],
            self.m[1] * x + self.m[3] * y + self.m[5],
        )
    }

    /// Post-multiplies a translation.
    pub fn translate(&self, tx: f64, ty: f64) -> Matrix {
        let (ax, ay) = self.apply(tx, ty);
        let mut m = self.m;
        m[4] = ax;
        m[5] = ay;
        Matrix { m }
    }

    /// Post-multiplies a scale.
    pub fn scale(&self, sx: f64, sy: f64) -> Matrix {
        let mut m = self.m;
        m[0] *= sx;
        m[1] *= sx;
        m[2] *= sy;
        m[3] *= sy;
        Matrix { m }
    }

    /// Post-multiplies a rotation (degrees).
    pub fn rotate(&self, degrees: f64) -> Matrix {
        let r = degrees.to_radians();
        let (s, c) = (r.sin(), r.cos());
        let [a, b, cc, d, tx, ty] = self.m;
        Matrix {
            m: [
                a * c + cc * s,
                b * c + d * s,
                -a * s + cc * c,
                -b * s + d * c,
                tx,
                ty,
            ],
        }
    }
}

/// One path segment, allocated per construction operator like the C
/// original's segment nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Seg {
    /// Begin a subpath.
    Move(f64, f64),
    /// Straight line.
    Line(f64, f64),
    /// Cubic Bézier (control, control, end).
    Curve(f64, f64, f64, f64, f64, f64),
    /// Close the current subpath.
    Close,
}

/// The current path: a list of individually-allocated segment nodes.
#[derive(Debug, Default)]
pub struct Path {
    segs: Vec<Traced<Seg>>,
    current: Option<(f64, f64)>,
    start: Option<(f64, f64)>,
}

/// Size charged per segment node (point pair + type + link, as in the
/// C implementation).
const SEG_BYTES: u32 = 24;

impl Path {
    /// An empty path.
    pub fn new() -> Path {
        Path::default()
    }

    /// The current point, if any.
    pub fn current_point(&self) -> Option<(f64, f64)> {
        self.current
    }

    fn push(&mut self, session: &TraceSession, seg: Seg) {
        let _g = session.enter("path_segment");
        let _m = session.enter("gs_alloc");
        self.segs.push(session.traced(seg, SEG_BYTES));
    }

    /// `moveto`.
    pub fn move_to(&mut self, session: &TraceSession, x: f64, y: f64) {
        self.push(session, Seg::Move(x, y));
        self.current = Some((x, y));
        self.start = Some((x, y));
    }

    /// `lineto`.
    pub fn line_to(&mut self, session: &TraceSession, x: f64, y: f64) {
        self.push(session, Seg::Line(x, y));
        self.current = Some((x, y));
    }

    /// `curveto`.
    #[allow(clippy::too_many_arguments)]
    pub fn curve_to(
        &mut self,
        session: &TraceSession,
        x1: f64,
        y1: f64,
        x2: f64,
        y2: f64,
        x3: f64,
        y3: f64,
    ) {
        self.push(session, Seg::Curve(x1, y1, x2, y2, x3, y3));
        self.current = Some((x3, y3));
    }

    /// `closepath`.
    pub fn close(&mut self, session: &TraceSession) {
        self.push(session, Seg::Close);
        self.current = self.start;
    }

    /// Flattens curves into chords and returns the polyline — a fresh
    /// storm of short-lived segment allocations, as in GhostScript's
    /// flattening pass.
    pub fn flatten(&self, session: &TraceSession) -> Vec<Traced<(f64, f64)>> {
        let _g = session.enter("flatten_path");
        let mut out: Vec<Traced<(f64, f64)>> = Vec::new();
        let mut cur = (0.0, 0.0);
        let mut start = (0.0, 0.0);
        let mut emit = |session: &TraceSession, p: (f64, f64)| {
            let _m = session.enter("gs_alloc");
            out.push(session.traced(p, 16));
        };
        for seg in &self.segs {
            match **seg {
                Seg::Move(x, y) => {
                    cur = (x, y);
                    start = cur;
                    emit(session, cur);
                }
                Seg::Line(x, y) => {
                    cur = (x, y);
                    emit(session, cur);
                }
                Seg::Curve(x1, y1, x2, y2, x3, y3) => {
                    // Fixed 8-chord flattening (de Casteljau samples).
                    const STEPS: usize = 8;
                    for i in 1..=STEPS {
                        let t = i as f64 / STEPS as f64;
                        let u = 1.0 - t;
                        let px = u * u * u * cur.0
                            + 3.0 * u * u * t * x1
                            + 3.0 * u * t * t * x2
                            + t * t * t * x3;
                        let py = u * u * u * cur.1
                            + 3.0 * u * u * t * y1
                            + 3.0 * u * t * t * y2
                            + t * t * t * y3;
                        emit(session, (px, py));
                    }
                    cur = (x3, y3);
                }
                Seg::Close => {
                    emit(session, start);
                    cur = start;
                }
            }
        }
        out
    }

    /// Clears the path, freeing its segment nodes.
    pub fn clear(&mut self) {
        self.segs.clear();
        self.current = None;
        self.start = None;
    }
}

/// The product of rasterizing one painted path.
#[derive(Debug)]
pub struct RasterOutput {
    /// Scanline spans, kept in the page display list until `showpage`
    /// (NODISPLAY still builds the bands before discarding them).
    pub spans: Vec<Traced<(u32, u32)>>,
}

/// "Rasterizes" a flattened path under NODISPLAY: walks the chords and
/// produces scanline span buffers — the compute-but-don't-show mode
/// the paper ran GhostScript in. The caller parks the spans in the
/// page display list, so their lifetime runs to the next `showpage`.
pub fn rasterize(
    session: &TraceSession,
    chords: &[Traced<(f64, f64)>],
    width: f64,
) -> RasterOutput {
    let _g = session.enter("rasterize");
    let mut bbox = (
        f64::INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
    );
    for c in chords {
        let (x, y) = **c;
        Traced::touch(c, 1);
        bbox.0 = bbox.0.min(x);
        bbox.1 = bbox.1.min(y);
        bbox.2 = bbox.2.max(x);
        bbox.3 = bbox.3.max(y);
    }
    if chords.is_empty() {
        return RasterOutput { spans: Vec::new() };
    }
    // One span buffer per scanline touched.
    let lines = ((bbox.3 - bbox.1).abs().ceil() as usize).clamp(1, 256);
    let mut spans = Vec::with_capacity(lines);
    for i in 0..lines {
        let _s = session.enter("alloc_struct");
        let _m = session.enter("gs_alloc");
        let span = session.traced((i as u32, 0u32), 16);
        Traced::touch(&span, 1);
        spans.push(span);
    }
    session.work(lines as u64 * (2.0 + width) as u64);
    RasterOutput { spans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_trace::TraceSession;

    #[test]
    fn matrix_transforms() {
        let m = Matrix::identity().translate(10.0, 5.0).scale(2.0, 3.0);
        assert_eq!(m.apply(1.0, 1.0), (12.0, 8.0));
        let r = Matrix::identity().rotate(90.0);
        let (x, y) = r.apply(1.0, 0.0);
        assert!((x - 0.0).abs() < 1e-9 && (y - 1.0).abs() < 1e-9);
    }

    #[test]
    fn path_construction_allocates_segments() {
        let s = TraceSession::new("path");
        let mut p = Path::new();
        p.move_to(&s, 0.0, 0.0);
        p.line_to(&s, 10.0, 0.0);
        p.curve_to(&s, 10.0, 5.0, 5.0, 10.0, 0.0, 10.0);
        p.close(&s);
        assert_eq!(p.segs.len(), 4);
        assert_eq!(p.current_point(), Some((0.0, 0.0)));
        let chords = p.flatten(&s);
        // move + line + 8 curve chords + close-return.
        assert_eq!(chords.len(), 11);
        let t = s.finish();
        assert!(t.stats().total_objects >= 15);
    }

    #[test]
    fn rasterize_spans_the_bbox_height() {
        let s = TraceSession::new("raster");
        let mut p = Path::new();
        p.move_to(&s, 1.0, 2.0);
        p.line_to(&s, 11.0, 22.0);
        let chords = p.flatten(&s);
        let out = rasterize(&s, &chords, 1.0);
        // One span per scanline from y = 2 to y = 22.
        assert_eq!(out.spans.len(), 20);
    }

    #[test]
    fn clear_frees_segments() {
        let s = TraceSession::new("clear");
        let mut p = Path::new();
        p.move_to(&s, 0.0, 0.0);
        p.line_to(&s, 1.0, 1.0);
        p.clear();
        assert!(p.segs.is_empty());
        let t = s.finish();
        assert!(t.records().iter().all(|r| !r.is_immortal()));
    }
}
