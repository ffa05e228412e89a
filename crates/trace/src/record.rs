//! Per-object allocation records.

use crate::chain::ChainId;
use std::fmt;

/// A recording session's handle on a traced heap object: its birth
/// index among the session's records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub(crate) u64);

impl ObjectId {
    /// The raw per-session index.
    pub fn index(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from [`ObjectId::index`], e.g. from a token a
    /// simulation kept. Only meaningful against the same session.
    pub fn from_index(index: u64) -> ObjectId {
        ObjectId(index)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// Everything the tracer learned about one heap object.
///
/// Clocks are measured in **bytes allocated so far** — the paper's time
/// measure. A record's identity is its birth index among a trace's
/// records, and where its birth and death fall among the other events
/// is the trace's event stream's to say, not the record's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocationRecord {
    /// Requested size in bytes.
    pub size: u32,
    /// The complete raw call-chain at birth.
    pub chain: ChainId,
    /// Byte clock immediately before this allocation.
    pub birth_clock: u64,
    /// Byte clock at deallocation; `None` if never freed.
    pub death_clock: Option<u64>,
    /// Heap references made to this object over its life.
    pub refs: u64,
    /// Byte clock at the first recorded reference; `None` if the
    /// object was never touched.
    pub first_ref_clock: Option<u64>,
    /// Byte clock at the last recorded reference; `None` if the
    /// object was never touched.
    pub last_ref_clock: Option<u64>,
}

impl AllocationRecord {
    /// The object's lifetime in bytes allocated, the paper's measure.
    ///
    /// An object allocated and immediately freed has a lifetime equal
    /// to its own size (the clock advances by `size` at allocation).
    /// Objects never freed are charged a lifetime running to
    /// `end_clock`, the byte clock at the end of the trace.
    pub fn lifetime(&self, end_clock: u64) -> u64 {
        let death = self.death_clock.unwrap_or(end_clock);
        death.saturating_sub(self.birth_clock)
    }

    /// Returns `true` if the object was still live at trace end.
    pub fn is_immortal(&self) -> bool {
        self.death_clock.is_none()
    }

    /// *Drag*: byte-clock distance between the object's last recorded
    /// reference and its death (or `end_clock` for immortal objects) —
    /// the window where the allocator held bytes the program had
    /// finished using. An object never touched drags for its whole
    /// lifetime.
    pub fn drag(&self, end_clock: u64) -> u64 {
        let death = self.death_clock.unwrap_or(end_clock);
        match self.last_ref_clock {
            Some(last) => death.saturating_sub(last),
            None => self.lifetime(end_clock),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(birth: u64, death: Option<u64>, size: u32) -> AllocationRecord {
        AllocationRecord {
            size,
            chain: ChainId(0),
            birth_clock: birth,
            death_clock: death,
            refs: 0,
            first_ref_clock: None,
            last_ref_clock: None,
        }
    }

    #[test]
    fn lifetime_includes_own_size() {
        // Allocate 16 bytes at clock 100 (clock becomes 116), free
        // immediately: lifetime is 16.
        let r = record(100, Some(116), 16);
        assert_eq!(r.lifetime(1000), 16);
        assert!(!r.is_immortal());
    }

    #[test]
    fn immortal_objects_live_to_end() {
        let r = record(100, None, 16);
        assert_eq!(r.lifetime(5000), 4900);
        assert!(r.is_immortal());
    }

    #[test]
    fn drag_measures_bytes_after_last_touch() {
        let mut r = record(100, Some(500), 16);
        r.first_ref_clock = Some(120);
        r.last_ref_clock = Some(300);
        assert_eq!(r.drag(1000), 200);
    }

    #[test]
    fn untouched_objects_drag_their_whole_lifetime() {
        let r = record(100, Some(500), 16);
        assert_eq!(r.drag(1000), r.lifetime(1000));
        let immortal = record(100, None, 16);
        assert_eq!(immortal.drag(1000), 900);
    }

    #[test]
    fn immortal_touched_objects_drag_to_trace_end() {
        let mut r = record(0, None, 8);
        r.first_ref_clock = Some(10);
        r.last_ref_clock = Some(40);
        assert_eq!(r.drag(100), 60);
    }
}
