//! The benchmark's vocabulary: workload and metric names with their
//! units. `BENCHMARK.json` at the repository root lists the same names;
//! a unit test fails if the two ever differ.

/// One workload: what a repetition runs and why it was chosen is in
/// `BENCHMARK.json` and the README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplayFirstfit,
    ReplayBsd,
    TrainArena,
    ReplayOnline,
    Tables,
    GallocStorm,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ReplayFirstfit,
        Workload::ReplayBsd,
        Workload::TrainArena,
        Workload::ReplayOnline,
        Workload::Tables,
        Workload::GallocStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayFirstfit => "replay_firstfit",
            Workload::ReplayBsd => "replay_bsd",
            Workload::TrainArena => "train_arena",
            Workload::ReplayOnline => "replay_online",
            Workload::Tables => "tables",
            Workload::GallocStorm => "galloc_storm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// An end-to-end metric: name, unit, which direction is better, and the
/// share of the parent's median by which it may get worse (set from the
/// measured run-to-run spread; README, "Noise").
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("events_per_s", "events/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
];

/// A per-layer metric: name (layer = crate name, then the quantity) and
/// unit. Every traced run prints all of them; one whose layer is not on
/// the workload's path reads 0, which is itself the evidence that the
/// workload bypasses that layer.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("tracefile.open_verify_s", "s"),
    ("tracefile.decode_s", "s"),
    ("tracefile.decode_events_per_s", "events/s"),
    ("tracefile.records_walk_s", "s"),
    ("tracefile.load_trace_s", "s"),
    ("tracefile.save_trace_s", "s"),
    ("tracefile.iter_verify_s", "s"),
    ("tracefile.bytes_per_event", "B/event"),
    ("workloads.gen_s", "s"),
    ("workloads.gen_events_per_s", "events/s"),
    ("workloads.record_s", "s"),
    ("trace.recorded_events", "count"),
    ("quantile.p2_observe_ns", "ns"),
    ("core.profile_build_s", "s"),
    ("core.train_s", "s"),
    ("core.predict_walk_s", "s"),
    ("core.fingerprint_walk_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.sites_seen", "count"),
    ("core.sites_short", "count"),
    ("heap.replay_self_s", "s"),
    ("heap.ns_per_event", "ns"),
    ("heap.inmem_replay_s", "s"),
    ("heap.search_steps", "count"),
    ("heap.max_heap_bytes", "B"),
    ("heap.arena_alloc_pct", "%"),
    ("heap.arena_byte_pct", "%"),
    ("heap.frees_invalid", "count"),
    ("adaptive.learner_s", "s"),
    ("adaptive.epochs", "count"),
    ("adaptive.promotions", "count"),
    ("adaptive.demotions", "count"),
    ("adaptive.mispredictions", "count"),
    ("adaptive.error_bytes_pct", "%"),
    ("obs.replay_overhead_pct", "%"),
    ("galloc.ops_per_s.t1", "1/s"),
    ("galloc.ops_per_s.t2", "1/s"),
    ("galloc.system_ops_per_s.t2", "1/s"),
    ("galloc.vs_system", "ratio"),
    ("galloc.magazine_hit_rate", "ratio"),
    ("galloc.remote_frees", "count"),
    ("galloc.seg_resets", "count"),
    ("galloc.system_fallbacks", "count"),
    ("galloc.epoch_ticks", "count"),
    ("galloc.wild_frees", "count"),
    ("galloc.short_free_underflows", "count"),
    ("galloc.native_s", "s"),
    ("bench.jobs2_speedup", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("cli.cpu_s", "s"),
    ("cli.unattributed_s", "s"),
    ("cli.predictor_io_s", "s"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every `"name": "<value>"` inside the array that follows `"<key>":`.
    fn names_in(json: &str, key: &str) -> BTreeSet<String> {
        let start = json
            .find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("no {key}"));
        let array = &json[start..];
        let array = &array[..array.find(']').expect("array closes") + 1];
        array
            .split("\"name\":")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("opening quote") + 1..];
                rest[..rest.find('"').expect("closing quote")].to_owned()
            })
            .collect()
    }

    fn set<'a>(names: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
        names.into_iter().map(str::to_owned).collect()
    }

    #[test]
    fn benchmark_json_names_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            names_in(&json, "workloads"),
            set(Workload::ALL.iter().map(|w| w.name()))
        );
        assert_eq!(
            names_in(&json, "end_to_end"),
            set(END_TO_END.iter().map(|m| m.0))
        );
        assert_eq!(
            names_in(&json, "per_layer"),
            set(PER_LAYER.iter().map(|m| m.0))
        );
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&entry), "BENCHMARK.json must hold {{{entry}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "BENCHMARK.json must hold {{{entry}, …}}"
            );
        }
    }

    #[test]
    fn names_are_unique_and_parse_back() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(set(all.iter().copied()).len(), all.len());
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
