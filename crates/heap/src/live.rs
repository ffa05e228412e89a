//! The replay's per-object state, sized by the objects alive at once
//! rather than by the objects ever born.
//!
//! A replayed event stream allocates records strictly in birth order
//! (an even `.lpt` event key allocates "the next record in birth
//! order", DESIGN §14), and most objects die young. So [`LiveTable`]
//! keeps the last [`RING`] births in a ring indexed by
//! `record & (RING - 1)`; a birth that lands on a still-live entry moves
//! that entry to a survivor map first. A free looks in the ring when the
//! object is at most `RING` births old, and in the map otherwise. Memory
//! is the ring (fixed, grown on first use) plus one map entry per object
//! that outlived `RING` later births — never more than the peak number
//! of live objects.

use crate::hash::AddrMap;
use crate::replay::Corrupt;
use crate::Addr;

/// Ring capacity in entries, a power of two: 2¹⁶ × 24 B = 1.5 MiB.
pub(crate) const RING: usize = 1 << 16;

/// The address no simulated heap returns (every general-heap block
/// starts with an 8-byte header and the arenas sit at `1 << 40`), so it
/// marks a ring entry whose object has died.
const VACANT: Addr = Addr(0);

/// One live object: where the simulated heap put it, and what the
/// predictor and the observer need back when it dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LiveObj {
    /// The simulated heap's address for it.
    pub(crate) addr: Addr,
    /// Bytes allocated before this object — its birth on the paper's
    /// clock, which the learner and the lifetime histogram both use.
    pub(crate) birth: u64,
    /// Requested size in bytes.
    pub(crate) size: u32,
    /// The predictor's bits (the online learner's site row and flags;
    /// zero for the other predictors).
    pub(crate) tag: u32,
}

/// The live objects of one replay, keyed by birth-order record index.
#[derive(Debug, Default)]
pub(crate) struct LiveTable {
    /// The last `RING` births at `record & (RING - 1)`; dead entries
    /// hold [`VACANT`].
    ring: Vec<LiveObj>,
    /// Live objects more than `RING` births old.
    survivors: AddrMap<usize, LiveObj>,
    /// Records born so far: the next birth's record index.
    births: usize,
}

impl LiveTable {
    /// Checks that `record` is the next birth.
    #[inline]
    pub(crate) fn expect_birth(&self, record: usize) -> Result<(), Corrupt> {
        if record == self.births {
            Ok(())
        } else {
            Err(out_of_order(record, self.births))
        }
    }

    /// Enters the next birth (after [`expect_birth`](Self::expect_birth)
    /// accepted its record).
    #[inline]
    pub(crate) fn born(&mut self, obj: LiveObj) {
        if obj.addr == VACANT {
            reserved(obj.addr);
        }
        let record = self.births;
        self.births += 1;
        match self.ring.get_mut(record & (RING - 1)) {
            Some(slot) => {
                if slot.addr != VACANT {
                    survive(&mut self.survivors, record - RING, *slot);
                }
                *slot = obj;
            }
            None => self.ring.push(obj),
        }
    }

    /// Live object `record`, if it is live.
    pub(crate) fn get_mut(&mut self, record: usize) -> Option<&mut LiveObj> {
        match self.births.checked_sub(record) {
            Some(1..=RING) => {
                let obj = &mut self.ring[record & (RING - 1)];
                (obj.addr != VACANT).then_some(obj)
            }
            _ => self.survivors.get_mut(&record),
        }
    }

    /// Takes live object `record` out of the table.
    #[inline]
    pub(crate) fn died(&mut self, record: usize) -> Result<LiveObj, Corrupt> {
        match self.births.checked_sub(record) {
            Some(1..=RING) => {
                let slot = &mut self.ring[record & (RING - 1)];
                let addr = std::mem::replace(&mut slot.addr, VACANT);
                if addr == VACANT {
                    return Err(not_live(record));
                }
                // Field by field, so the loop loads only the fields its
                // predictor and observer read, each as it was stored.
                Ok(LiveObj {
                    addr,
                    birth: slot.birth,
                    size: slot.size,
                    tag: slot.tag,
                })
            }
            _ => outlived(&mut self.survivors, record),
        }
    }
}

// Everything below is off the per-event path and kept out of line, so
// the ring paths above inline into the replay loop with their entry in
// registers: a panic or error message that borrowed a field would pin
// the entry to the stack, and then every birth would store it field by
// field and reload it whole. The survivor map is the rare path — about
// one object in a hundred on the server traces.

#[cold]
#[inline(never)]
fn survive(survivors: &mut AddrMap<usize, LiveObj>, record: usize, obj: LiveObj) {
    survivors.insert(record, obj);
}

#[cold]
#[inline(never)]
fn outlived(survivors: &mut AddrMap<usize, LiveObj>, record: usize) -> Result<LiveObj, Corrupt> {
    survivors.remove(&record).ok_or_else(|| not_live(record))
}

#[cold]
#[inline(never)]
fn reserved(addr: Addr) -> ! {
    panic!("allocator returned the reserved address {addr}")
}

#[cold]
#[inline(never)]
fn out_of_order(record: usize, next: usize) -> Corrupt {
    Corrupt(format!(
        "object {record} allocated out of birth order (the next birth is object {next})"
    ))
}

#[cold]
#[inline(never)]
fn not_live(record: usize) -> Corrupt {
    Corrupt(format!("free of object {record}, which is not live"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-record table `LiveTable` replaced, kept as its oracle:
    /// one `u64` per object ever born, holding its address while it
    /// lives.
    #[derive(Debug, Default)]
    struct SlotTable {
        slots: Vec<u64>,
    }

    const UNBORN: u64 = 0;
    const DEAD: u64 = u64::MAX;

    impl SlotTable {
        fn born(&mut self, record: usize, addr: Addr) -> Result<(), Corrupt> {
            if record >= self.slots.len() {
                self.slots.resize(record + 1, UNBORN);
            }
            if self.slots[record] != UNBORN {
                return Err(Corrupt(format!("object {record} allocated twice")));
            }
            self.slots[record] = addr.0;
            Ok(())
        }

        fn died(&mut self, record: usize) -> Result<Addr, Corrupt> {
            match self.slots.get_mut(record) {
                Some(slot) if *slot != UNBORN && *slot != DEAD => {
                    Ok(Addr(std::mem::replace(slot, DEAD)))
                }
                _ => Err(Corrupt(format!("free before alloc of object {record}"))),
            }
        }
    }

    /// A distinct, non-vacant address and size per record.
    fn obj(record: usize) -> LiveObj {
        LiveObj {
            addr: Addr(16 * record as u64 + 8),
            birth: 100 * record as u64,
            size: record as u32 % 1000 + 1,
            tag: record as u32 ^ 0x55,
        }
    }

    fn table_with(births: usize) -> LiveTable {
        let mut table = LiveTable::default();
        for record in 0..births {
            table.expect_birth(record).expect("in order");
            table.born(obj(record));
        }
        table
    }

    #[test]
    fn the_entry_is_twenty_four_bytes() {
        assert_eq!(std::mem::size_of::<LiveObj>(), 24);
    }

    #[test]
    fn an_object_exactly_ring_births_old_is_still_in_the_ring() {
        let mut table = table_with(RING);
        assert!(table.survivors.is_empty());
        assert_eq!(table.died(0).ok(), Some(obj(0)));
        assert!(table.died(0).is_err(), "a second free of a dead ring entry");
    }

    #[test]
    fn one_birth_more_moves_it_to_the_survivors() {
        let mut table = table_with(RING + 1);
        assert_eq!(table.survivors.len(), 1);
        assert_eq!(table.get_mut(0).copied(), Some(obj(0)));
        assert_eq!(
            table.ring[0],
            obj(RING),
            "its ring slot holds the new birth"
        );
        assert_eq!(table.died(0).ok(), Some(obj(0)));
        assert!(table.survivors.is_empty());
        assert!(table.died(0).is_err(), "a second free of a survivor");
        assert_eq!(table.get_mut(0), None);
        assert_eq!(table.died(RING).ok(), Some(obj(RING)));
    }

    #[test]
    fn a_dead_object_is_not_evicted() {
        let mut table = table_with(3);
        table.died(1).expect("live");
        for record in 3..RING + 3 {
            table.born(obj(record));
        }
        // Records 0 and 2 survive; 1 had died.
        assert_eq!(table.survivors.len(), 2);
        assert!(table.died(1).is_err());
        assert_eq!(table.died(2).ok(), Some(obj(2)));
    }

    #[test]
    fn freeing_an_unborn_record_is_corrupt() {
        let mut table = table_with(10);
        assert!(table.died(10).is_err());
        assert!(table.died(usize::MAX).is_err());
        assert!(LiveTable::default().died(0).is_err());
        assert_eq!(table.births, 10, "a rejected free changes nothing");
    }

    #[test]
    fn a_birth_out_of_order_or_repeated_is_corrupt() {
        let table = table_with(5);
        assert!(table.expect_birth(6).is_err(), "skips a record");
        assert!(table.expect_birth(4).is_err(), "repeats a record");
        assert!(table.expect_birth(0).is_err(), "repeats the first record");
        assert!(table.expect_birth(5).is_ok());
        assert!(LiveTable::default().expect_birth(1).is_err());
    }

    /// One step of a replay script.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// The next birth; a `long` object is freed only rarely.
        Alloc { long: bool },
        /// Free a short-lived pick (`index % pool`); it may already have
        /// died through `FreeAny`.
        FreeShort(usize),
        /// Free a long-lived pick.
        FreeLong(usize),
        /// Free any record up to a few past the last birth: live, dead
        /// or unborn.
        FreeAny(usize),
        /// Allocate a record that was already born.
        Rebirth(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u32..1000, 0usize..1 << 24).prop_map(|(kind, n)| match kind {
            0..=499 => Op::Alloc { long: n % 32 == 0 },
            500..=894 => Op::FreeShort(n),
            895..=899 => Op::FreeLong(n),
            900..=959 => Op::FreeAny(n),
            _ => Op::Rebirth(n),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Over scripts of more than `RING` births with long-lived
        /// objects, the ring and its survivors return the same address
        /// and the same verdict as one slot per record, event for event.
        #[test]
        fn agrees_with_the_per_record_table(
            script in proptest::collection::vec(op(), 150_000..170_000)
        ) {
            let (mut live, mut oracle) = (LiveTable::default(), SlotTable::default());
            let (mut short, mut long) = (Vec::new(), Vec::new());
            let mut births = 0usize;
            fn free(live: &mut LiveTable, oracle: &mut SlotTable, record: usize) {
                let got = live.died(record).map(|dead| dead.addr).map_err(drop);
                assert_eq!(got, oracle.died(record).map_err(drop), "free {record}");
                if let Ok(addr) = got {
                    assert_eq!(addr, obj(record).addr);
                }
            }
            for op in script {
                match op {
                    Op::Alloc { long: is_long } => {
                        prop_assert!(live.expect_birth(births).is_ok());
                        live.born(obj(births));
                        prop_assert!(oracle.born(births, obj(births).addr).is_ok());
                        if is_long { long.push(births) } else { short.push(births) }
                        births += 1;
                    }
                    Op::FreeShort(i) if !short.is_empty() => {
                        let record = short.swap_remove(i % short.len());
                        free(&mut live, &mut oracle, record);
                    }
                    Op::FreeLong(i) if !long.is_empty() => {
                        let record = long.swap_remove(i % long.len());
                        free(&mut live, &mut oracle, record);
                    }
                    Op::FreeAny(n) => free(&mut live, &mut oracle, n % (births + 4)),
                    Op::Rebirth(n) if births > 0 => {
                        let record = n % births;
                        prop_assert!(live.expect_birth(record).is_err());
                        prop_assert!(oracle.born(record, obj(record).addr).is_err());
                    }
                    _ => {}
                }
            }
            prop_assert!(births > RING, "{} births", births);
            prop_assert!(!live.survivors.is_empty());
            // Everything still live drains with the same answers.
            for record in 0..births {
                free(&mut live, &mut oracle, record);
            }
            prop_assert!(live.survivors.is_empty());
        }
    }
}
