//! A whole trace, wherever it lives, and the one walk over all of it.
//!
//! Each fact is stored once: the events give each object's size and
//! death (at the byte clock, the sum of the sizes before it); two
//! columns, one entry per allocation in birth order, its chain id and
//! its [`Touch`]. [`walk`] reads the three in lock step.

use crate::chain::{ChainId, ChainTable};
use crate::chunk::{ChunkEvent, ChunkSource, EventChunk, POOLED_CHUNK_EVENTS};
use crate::keys::TraceEvents;
use crate::record::AllocationRecord;
use crate::session::Trace;
use crate::stats::TraceStats;
use std::collections::HashMap;
use std::convert::Infallible;

/// One object's touch entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Touch {
    /// Heap references made to the object.
    pub refs: u64,
    /// Bytes from its birth to its first reference (0 if none).
    pub first: u64,
    /// Bytes from its first reference to its last (0 if none).
    pub span: u64,
}

impl Touch {
    /// `r`'s touch entry; `None` if its count and clocks make none (a
    /// session stamps the clocks exactly when it counts a reference, the
    /// first no earlier than the birth and the last no earlier than it).
    pub fn of(r: &AllocationRecord) -> Option<Touch> {
        match (r.refs, r.first_ref_clock, r.last_ref_clock) {
            (0, None, None) => Some(Touch::default()),
            (refs @ 1.., Some(first), Some(last)) => Some(Touch {
                refs,
                first: first.checked_sub(r.birth_clock)?,
                span: last.checked_sub(first)?,
            }),
            _ => None,
        }
    }
}

/// A whole trace, wherever it lives: the header, the events and the two
/// columns, each read in a fresh pass.
pub trait TraceSource {
    /// Why reading fails ([`Infallible`] in memory).
    type Error;
    /// The events, in program order.
    type Events<'a>: ChunkSource<Error = Self::Error>
    where
        Self: 'a;
    /// Each allocation's chain id, in birth order.
    type ChainIds<'a>: Iterator<Item = Result<ChainId, Self::Error>>
    where
        Self: 'a;
    /// Each allocation's [`Touch`], in birth order.
    type Touches<'a>: Iterator<Item = Result<Touch, Self::Error>>
    where
        Self: 'a;

    /// The traced program's name.
    fn name(&self) -> &str;
    /// The header's statistics, which a [`walk`] must reproduce.
    fn stats(&self) -> &TraceStats;
    /// The table the chain column's ids index.
    fn chains(&self) -> &ChainTable;
    /// The events.
    fn events(&self) -> Self::Events<'_>;
    /// The chain column.
    fn chain_ids(&self) -> Result<Self::ChainIds<'_>, Self::Error>;
    /// The touch column.
    fn touches(&self) -> Result<Self::Touches<'_>, Self::Error>;
    /// The error of parts that each read well but do not tell one story.
    fn malformed(&self, section: &'static str, detail: String) -> Self::Error;
}

/// A column of an in-memory [`Trace`], read off its records.
type RecordColumn<'a, T> = std::iter::Map<
    std::slice::Iter<'a, AllocationRecord>,
    fn(&'a AllocationRecord) -> Result<T, Infallible>,
>;

/// A trace upholds [`Trace::from_parts`]' contract, so it has no
/// malformed column or story; breaking the contract panics.
impl TraceSource for Trace {
    type Error = Infallible;
    type Events<'a> = TraceEvents<'a>;
    type ChainIds<'a> = RecordColumn<'a, ChainId>;
    type Touches<'a> = RecordColumn<'a, Touch>;

    fn name(&self) -> &str {
        Trace::name(self)
    }
    fn stats(&self) -> &TraceStats {
        Trace::stats(self)
    }
    fn chains(&self) -> &ChainTable {
        Trace::chains(self)
    }
    fn events(&self) -> TraceEvents<'_> {
        Trace::events(self)
    }
    fn chain_ids(&self) -> Result<RecordColumn<'_, ChainId>, Infallible> {
        Ok(self.records().iter().map(|r| Ok(r.chain)))
    }
    fn touches(&self) -> Result<RecordColumn<'_, Touch>, Infallible> {
        Ok(self
            .records()
            .iter()
            .map(|r| Ok(Touch::of(r).expect("a record's touch"))))
    }
    fn malformed(&self, section: &'static str, detail: String) -> Infallible {
        panic!("a trace breaks its contract in its {section}: {detail}")
    }
}

/// An object the walk holds from its birth to its death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Live {
    /// Bytes allocated before it.
    pub birth_clock: u64,
    /// Its size in bytes.
    pub size: u32,
    /// What [`Visit::born`] returned for it.
    pub tag: u32,
}

/// What a [`walk`] tells its reader, in program order.
pub trait Visit {
    /// Object `record` is born (its death not yet known); returns its tag.
    fn born(&mut self, _record: usize, _r: &AllocationRecord) -> u32 {
        0
    }
    /// Object `record` dies at byte clock `death`, or, `None`, outlives
    /// the events (those come last, in no order).
    fn died(&mut self, _record: usize, _obj: Live, _death: Option<u64>) {}
}

/// A visitor that only walks.
impl Visit for () {}

/// Walks `source`'s events with both columns in lock step, in memory
/// bounded by the live objects, handing each birth and death to `visit`.
/// Returns the header's statistics as the walk derives them (totals,
/// live maxima, heap refs), the others as the header has them.
///
/// # Errors
///
/// The source's decode error, or [`TraceSource::malformed`] for a free
/// of an object that is not live, a column with an entry more or fewer
/// than the allocations, or a clock past `u64`.
pub fn walk<T: TraceSource>(source: &T, visit: &mut impl Visit) -> Result<TraceStats, T::Error> {
    let (mut chain_ids, mut touches) = (source.chain_ids()?, source.touches()?);
    let (mut events, mut chunk) = (
        source.events(),
        EventChunk::with_capacity(POOLED_CHUNK_EVENTS),
    );
    let mut live = LiveSet::default();
    let header = source.stats();
    let mut derived = TraceStats {
        instructions: header.instructions,
        function_calls: header.function_calls,
        other_refs: header.other_refs,
        ..TraceStats::default()
    };
    let (mut n, mut live_bytes) = (0u64, 0u64);
    while events.next_chunk(&mut chunk)? {
        for event in chunk.events() {
            match event {
                ChunkEvent::Alloc { record, size } => {
                    let past = |column| {
                        let detail =
                            format!("event {n} allocates object {record}, past the last entry");
                        source.malformed(column, detail)
                    };
                    let chain = chain_ids.next().ok_or_else(|| past("chain ids"))??;
                    let touch = touches.next().ok_or_else(|| past("touches"))??;
                    let clock = derived.total_bytes;
                    let r = born_at(clock, size, chain, touch).ok_or_else(|| {
                        source.malformed("touches", format!("object {record}'s clocks overflow"))
                    })?;
                    let tag = visit.born(record, &r);
                    live.born(Live {
                        birth_clock: clock,
                        size,
                        tag,
                    });
                    derived.total_objects += 1;
                    derived.total_bytes += u64::from(size);
                    live_bytes += u64::from(size);
                    derived.max_live_bytes = derived.max_live_bytes.max(live_bytes);
                    derived.max_live_objects = derived.max_live_objects.max(live.count);
                    derived.heap_refs = derived.heap_refs.saturating_add(r.refs);
                }
                ChunkEvent::Free { record } => {
                    let obj = live.died(record).ok_or_else(|| {
                        let detail = format!("event {n} frees object {record}, which is not live");
                        source.malformed("events", detail)
                    })?;
                    live_bytes -= u64::from(obj.size);
                    visit.died(record, obj, Some(derived.total_bytes));
                }
            }
            n += 1;
        }
    }
    let more = [
        ("chain ids", chain_ids.next().transpose()?.is_some()),
        ("touches", touches.next().transpose()?.is_some()),
    ];
    if let Some((column, _)) = more.into_iter().find(|&(_, more)| more) {
        let detail = format!(
            "more entries than the {} allocations",
            derived.total_objects
        );
        return Err(source.malformed(column, detail));
    }
    live.survivors()
        .for_each(|(record, obj)| visit.died(record, obj, None));
    Ok(derived)
}

/// Ring capacity of [`LiveSet`], a power of two: 2¹⁶ entries of 24 B.
const RING: usize = 1 << 16;

/// The walk's live objects by birth index: the last [`RING`] births in a
/// ring at `record & (RING - 1)`, and those that outlived `RING` later
/// births in a map. Births come in order and most objects die young, so
/// most deaths are one indexed load.
#[derive(Default)]
struct LiveSet {
    ring: Vec<Option<Live>>,
    survivors: HashMap<usize, Live>,
    births: usize,
    count: u64,
}

impl LiveSet {
    #[inline]
    fn born(&mut self, obj: Live) {
        let record = self.births;
        (self.births, self.count) = (record + 1, self.count + 1);
        match self.ring.get_mut(record & (RING - 1)) {
            Some(slot) => {
                if let Some(old) = slot.replace(obj) {
                    self.survivors.insert(record - RING, old);
                }
            }
            None => self.ring.push(Some(obj)),
        }
    }

    #[inline]
    fn died(&mut self, record: usize) -> Option<Live> {
        let obj = match self.births.checked_sub(record) {
            Some(1..=RING) => self.ring[record & (RING - 1)].take(),
            _ => self.survivors.remove(&record),
        }?;
        self.count -= 1;
        Some(obj)
    }

    /// The objects still live, in no order. Ring slot `s` holds the
    /// latest birth at it.
    fn survivors(self) -> impl Iterator<Item = (usize, Live)> {
        let last = self.births.wrapping_sub(1);
        let ring = self.ring.into_iter().enumerate();
        let ring = ring.filter_map(move |(s, obj)| Some((last - (last - s) % RING, obj?)));
        self.survivors.into_iter().chain(ring)
    }
}

/// The record of an object of `size` bytes born at `clock`; `None` if a
/// clock passes `u64`.
fn born_at(clock: u64, size: u32, chain: ChainId, touch: Touch) -> Option<AllocationRecord> {
    clock.checked_add(u64::from(size))?;
    let first = clock.checked_add(touch.first)?;
    let touched = touch.refs > 0;
    Some(AllocationRecord {
        size,
        chain,
        birth_clock: clock,
        death_clock: None,
        refs: touch.refs,
        first_ref_clock: touched.then_some(first),
        last_ref_clock: touched.then_some(first.checked_add(touch.span)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TraceSession;

    /// Collects every death the walk reports, and counts the survivors.
    #[derive(Default)]
    struct Deaths(Vec<Option<u64>>, usize);

    impl Visit for Deaths {
        fn born(&mut self, record: usize, r: &AllocationRecord) -> u32 {
            assert_eq!(record, self.0.len());
            assert_eq!(r.death_clock, None);
            self.0.push(None);
            record as u32
        }
        fn died(&mut self, record: usize, obj: Live, death: Option<u64>) {
            assert_eq!(obj.tag as usize, record);
            assert_eq!(self.0[record], None, "{record} dies once");
            self.0[record] = death;
            self.1 += usize::from(death.is_none());
        }
    }

    /// Objects that die young, die after more than a ring of later
    /// births, and never die: the walk reports each death at the
    /// session's clock, and its maxima are the session's.
    #[test]
    fn the_walk_finds_every_death_across_the_ring() {
        let s = TraceSession::new("ring");
        let (mut kept, mut immortal) = (Vec::new(), 0);
        for i in 0..3 * RING as u32 {
            let id = s.alloc(i % 7 + 1);
            s.touch(id, u64::from(i % 2));
            match i % 1000 {
                0 => kept.push(id),
                1 => immortal += 1,
                _ => s.free(id),
            }
        }
        kept.into_iter().for_each(|id| s.free(id));
        let trace = s.finish();
        let mut deaths = Deaths::default();
        let derived = walk(&trace, &mut deaths).unwrap_or_else(|e| match e {});
        let recorded: Vec<_> = trace.records().iter().map(|r| r.death_clock).collect();
        assert_eq!(deaths.0, recorded);
        assert_eq!(derived, *trace.stats());
        assert_eq!(recorded.iter().filter(|d| d.is_none()).count(), immortal);
        assert_eq!(deaths.1, immortal);
    }
}
