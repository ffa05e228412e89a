//! The fixed-size binary event cell.

/// What one [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A span opens on this thread (closed by the matching
    /// [`EventKind::SpanEnd`] with the same event id).
    SpanBegin = 0,
    /// The innermost open span with this id on this thread closes.
    SpanEnd = 1,
    /// A point-in-time marker.
    Instant = 2,
}

/// One flight-recorder event: 24 bytes, `Copy`, no heap pointers.
///
/// Events are written into per-thread rings by value and drained by
/// value; nothing is ever borrowed across threads, which is what keeps
/// the ring protocol a pure index hand-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Event {
    /// Monotonic nanoseconds since the recorder's process-local epoch.
    pub ts_ns: u64,
    /// Kind-specific payload: span or instant argument, or 0.
    pub arg: u64,
    /// Static event id from the compile-time [catalogue](crate::catalog).
    pub id: u16,
    /// Discriminant; see [`EventKind`].
    pub kind: EventKind,
    /// Recorder-assigned thread number (1-based; 0 never appears).
    pub tid: u32,
}

/// The ring stores events inline; keep the cell small and stable.
const _: () = assert!(std::mem::size_of::<Event>() == 24);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_is_two_dozen_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 24);
        assert_eq!(std::mem::align_of::<Event>(), 8);
    }
}
