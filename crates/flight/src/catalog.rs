//! The compile-time event catalogue.
//!
//! Every instrumented site names its event by a 16-bit id from this
//! table. Ids are grouped by subsystem (high byte) so a trace can be
//! filtered without string matching, and the table is sorted by id so
//! lookup is a binary search. Adding an event means adding one
//! constant and one [`EventDesc`] row — the `catalogue_is_sorted`
//! test keeps the invariant honest.

/// Static description of one event id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventDesc {
    /// The id instrumented code passes to `span`/`instant`.
    pub id: u16,
    /// Dotted display name (`subsystem.event`), stable across releases
    /// — the Chrome-trace golden pins these strings.
    pub name: &'static str,
    /// Chrome trace `cat` field; one per subsystem.
    pub cat: &'static str,
}

/// `galloc`: magazine refill from the shard free lists.
pub const GALLOC_MAG_REFILL: u16 = 0x0101;
/// `galloc`: magazine overflow flush back to the shards.
pub const GALLOC_MAG_FLUSH: u16 = 0x0102;
/// `galloc`: draining a segment's remote-free stack.
pub const GALLOC_REMOTE_DRAIN: u16 = 0x0103;
/// `galloc`: a short-segment reclaim election was won (instant).
pub const GALLOC_SHORT_RECLAIM: u16 = 0x0104;
/// `galloc`: learner epoch tick (clock flush crossing a boundary).
pub const GALLOC_EPOCH_TICK: u16 = 0x0105;
/// `galloc`: an allocation fell back to the System allocator
/// (instant; `arg` = requested size).
pub const GALLOC_SYS_FALLBACK: u16 = 0x0106;

/// `replay`: decoding one event chunk from the `.lpt` stream.
pub const REPLAY_DECODE: u16 = 0x0201;
/// `replay`: placing one chunk's events into the simulated heap.
pub const REPLAY_PLACE: u16 = 0x0202;
/// `replay`: publishing batched metrics at end of replay.
pub const REPLAY_OBS_FLUSH: u16 = 0x0203;
/// `replay`: an online-arena epoch boundary (instant; `arg` = the
/// epoch's ordinal).
pub const REPLAY_EPOCH: u16 = 0x0204;

/// `sweep`: one grid-cell job, train or simulate (span; `arg` = job
/// sequence number).
pub const SWEEP_JOB: u16 = 0x0301;
/// `sweep`: a cell was answered from the result store (instant).
pub const SWEEP_CACHE_HIT: u16 = 0x0305;
/// `sweep`: a cell missed the result store and must compute (instant).
pub const SWEEP_CACHE_MISS: u16 = 0x0306;

/// `cli`: one native workload run (span; `arg` = workload ordinal).
pub const CLI_WORKLOAD: u16 = 0x0501;

/// `tracefile`: bulk CRC verification of a mapped trace's large
/// sections (span; `arg` = payload bytes verified).
pub const TRACEFILE_MAP_VERIFY: u16 = 0x0601;
/// `tracefile`: streaming out one section of a synthetic trace (span;
/// `arg` = the section id).
pub const TRACEFILE_GEN_SECTION: u16 = 0x0602;

/// The full catalogue, sorted by id.
pub(crate) const CATALOG: &[EventDesc] = &[
    EventDesc {
        id: GALLOC_MAG_REFILL,
        name: "galloc.mag_refill",
        cat: "galloc",
    },
    EventDesc {
        id: GALLOC_MAG_FLUSH,
        name: "galloc.mag_flush",
        cat: "galloc",
    },
    EventDesc {
        id: GALLOC_REMOTE_DRAIN,
        name: "galloc.remote_drain",
        cat: "galloc",
    },
    EventDesc {
        id: GALLOC_SHORT_RECLAIM,
        name: "galloc.short_reclaim",
        cat: "galloc",
    },
    EventDesc {
        id: GALLOC_EPOCH_TICK,
        name: "galloc.epoch_tick",
        cat: "galloc",
    },
    EventDesc {
        id: GALLOC_SYS_FALLBACK,
        name: "galloc.sys_fallback",
        cat: "galloc",
    },
    EventDesc {
        id: REPLAY_DECODE,
        name: "replay.decode",
        cat: "replay",
    },
    EventDesc {
        id: REPLAY_PLACE,
        name: "replay.place",
        cat: "replay",
    },
    EventDesc {
        id: REPLAY_OBS_FLUSH,
        name: "replay.obs_flush",
        cat: "replay",
    },
    EventDesc {
        id: REPLAY_EPOCH,
        name: "replay.epoch",
        cat: "replay",
    },
    EventDesc {
        id: SWEEP_JOB,
        name: "sweep.job",
        cat: "sweep",
    },
    EventDesc {
        id: SWEEP_CACHE_HIT,
        name: "sweep.cache_hit",
        cat: "sweep",
    },
    EventDesc {
        id: SWEEP_CACHE_MISS,
        name: "sweep.cache_miss",
        cat: "sweep",
    },
    EventDesc {
        id: CLI_WORKLOAD,
        name: "cli.workload",
        cat: "cli",
    },
    EventDesc {
        id: TRACEFILE_MAP_VERIFY,
        name: "tracefile.map_verify",
        cat: "tracefile",
    },
    EventDesc {
        id: TRACEFILE_GEN_SECTION,
        name: "tracefile.gen_section",
        cat: "tracefile",
    },
];

/// Resolves an id to its catalogue row, if it has one.
pub(crate) fn lookup(id: u16) -> Option<&'static EventDesc> {
    CATALOG
        .binary_search_by_key(&id, |d| d.id)
        .ok()
        .map(|i| &CATALOG[i])
}

/// Display name for an id; unknown ids render as `unknown.0xNNNN` so a
/// stale trace never panics an exporter.
pub(crate) fn name_of(id: u16) -> std::borrow::Cow<'static, str> {
    match lookup(id) {
        Some(d) => std::borrow::Cow::Borrowed(d.name),
        None => std::borrow::Cow::Owned(format!("unknown.0x{id:04x}")),
    }
}

/// Category for an id (`"unknown"` when uncatalogued).
pub(crate) fn cat_of(id: u16) -> &'static str {
    lookup(id).map_or("unknown", |d| d.cat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_sorted_and_unique() {
        for pair in CATALOG.windows(2) {
            assert!(
                pair[0].id < pair[1].id,
                "{} >= {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn names_are_dotted_and_unique() {
        let mut names: Vec<_> = CATALOG.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CATALOG.len());
        for d in CATALOG {
            let (cat, _) = d.name.split_once('.').expect("dotted name");
            assert_eq!(cat, d.cat, "{}", d.name);
        }
    }

    #[test]
    fn lookup_resolves_every_row() {
        for d in CATALOG {
            assert_eq!(lookup(d.id), Some(d));
        }
        assert_eq!(lookup(0xffff), None);
        assert_eq!(name_of(0xffff), "unknown.0xffff");
        assert_eq!(cat_of(SWEEP_JOB), "sweep");
    }
}
