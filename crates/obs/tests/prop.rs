//! Property-based tests for the metrics core: concurrent publishes
//! into one registry must equal a serial oracle, and snapshots must
//! survive a JSON round trip.

use lifepred_obs::{HistogramSnapshot, Registry, Snapshot, MERGE_NAME_MISSES_METRIC};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    /// Counters, gauges and histograms published from eight threads
    /// into one `Registry` snapshot to exactly the serial oracle:
    /// counters total every `add` (the threads share a small name
    /// pool), each thread's own gauge holds its last `set`, and each
    /// shared histogram holds every value of every batch absorbed into
    /// it, whatever the interleaving.
    #[test]
    fn concurrent_publishes_match_the_serial_oracle(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(
                // (metric kind, name index, value)
                (0u8..3, 0usize..3, 0u64..1_000_000),
                0..40,
            ),
            8,
        )
    ) {
        let registry = Registry::new();
        let mut counter_oracle: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauge_oracle: BTreeMap<String, u64> = BTreeMap::new();
        let mut hist_oracle: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        for (thread, entries) in per_thread.iter().enumerate() {
            for &(kind, idx, v) in entries {
                match kind {
                    0 => *counter_oracle.entry(format!("lifepred_c{idx}_total")).or_default() += v,
                    1 => {
                        gauge_oracle.insert(format!("lifepred_g{thread}_bytes"), v);
                    }
                    _ => hist_oracle.entry(format!("lifepred_h{idx}_ns")).or_default().record(v),
                }
            }
        }
        std::thread::scope(|scope| {
            for (thread, entries) in per_thread.iter().enumerate() {
                let registry = &registry;
                scope.spawn(move || {
                    // Histogram values go out in batches of up to
                    // four, recorded locally first.
                    let mut local: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
                    for &(kind, idx, v) in entries {
                        match kind {
                            0 => registry.add(&format!("lifepred_c{idx}_total"), v),
                            1 => registry.set(&format!("lifepred_g{thread}_bytes"), v),
                            _ => {
                                let name = format!("lifepred_h{idx}_ns");
                                let batch = local.entry(name.clone()).or_default();
                                batch.record(v);
                                if batch.count == 4 {
                                    registry.absorb(&name, &std::mem::take(batch));
                                }
                            }
                        }
                    }
                    for (name, batch) in &local {
                        registry.absorb(name, batch);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        let expect = |oracle: &BTreeMap<String, u64>| -> Vec<(String, u64)> {
            oracle.iter().map(|(n, &v)| (n.clone(), v)).collect()
        };
        prop_assert_eq!(&snap.counters, &expect(&counter_oracle));
        prop_assert_eq!(&snap.gauges, &expect(&gauge_oracle));
        let hists: Vec<(String, HistogramSnapshot)> =
            hist_oracle.into_iter().collect();
        prop_assert_eq!(&snap.histograms, &hists);
        prop_assert!(snap.timelines.is_empty());
    }

    /// `to_json` → `from_json` reproduces the snapshot bit-for-bit for
    /// arbitrary counter/gauge/histogram contents.
    #[test]
    fn snapshot_json_roundtrips(
        counters in proptest::collection::vec(0u64..u64::MAX / 2, 0..4),
        gauges in proptest::collection::vec(0u64..u64::MAX / 2, 0..4),
        observations in proptest::collection::vec(any::<u64>(), 0..64),
    ) {
        let registry = Registry::new();
        for (i, v) in counters.iter().enumerate() {
            registry.add(&format!("lifepred_c{i}_total"), *v);
        }
        for (i, v) in gauges.iter().enumerate() {
            registry.set(&format!("lifepred_g{i}"), *v);
        }
        let mut hist = HistogramSnapshot::empty();
        for &v in &observations {
            hist.record(v);
        }
        registry.absorb("lifepred_h_bytes", &hist);
        let snap = registry.snapshot();
        let parsed = Snapshot::from_json(&snap.to_json()).expect("own JSON parses");
        prop_assert_eq!(parsed, snap);
    }

    /// Merging bare [`HistogramSnapshot`]s part by part equals one
    /// histogram that recorded every value serially.
    #[test]
    fn histogram_snapshot_merge_matches_serial_oracle(
        parts in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..40),
            1..6,
        )
    ) {
        let mut oracle = HistogramSnapshot::empty();
        for &v in parts.iter().flatten() {
            oracle.record(v);
        }
        let mut merged = HistogramSnapshot::empty();
        for part in &parts {
            let mut local = HistogramSnapshot::empty();
            for &v in part {
                local.record(v);
            }
            merged.merge(&local);
        }
        prop_assert_eq!(merged, oracle);
    }

    /// Folding per-job snapshots with [`Snapshot::merge`] — the
    /// parallel driver's combine step — equals a serial
    /// oracle that saw every job's activity, for any mix of disjoint
    /// and overlapping metric names across counters, gauges and
    /// histograms.
    #[test]
    fn snapshot_merge_matches_serial_oracle(
        jobs in proptest::collection::vec(
            proptest::collection::vec(
                // (metric kind, name index, value): a small name pool
                // so jobs overlap on some names and miss others.
                (0u8..3, 0usize..5, 0u64..100_000),
                0..16,
            ),
            1..6,
        )
    ) {
        let mut counter_oracle: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauge_oracle: BTreeMap<String, u64> = BTreeMap::new();
        let mut hist_oracle: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        let mut merged = Snapshot::default();
        for entries in &jobs {
            let registry = Registry::new();
            // This job's gauge levels: merged gauges sum across jobs by
            // contract, so each job publishes its own running total.
            let mut levels: BTreeMap<String, u64> = BTreeMap::new();
            for &(kind, idx, v) in entries {
                match kind {
                    0 => {
                        let name = format!("lifepred_pc{idx}_total");
                        registry.add(&name, v);
                        *counter_oracle.entry(name).or_default() += v;
                    }
                    1 => {
                        let name = format!("lifepred_pg{idx}_bytes");
                        let level = levels.entry(name.clone()).or_default();
                        *level += v;
                        registry.set(&name, *level);
                        *gauge_oracle.entry(name).or_default() += v;
                    }
                    _ => {
                        let name = format!("lifepred_ph{idx}_ns");
                        let mut one = HistogramSnapshot::empty();
                        one.record(v);
                        registry.absorb(&name, &one);
                        hist_oracle.entry(name).or_default().record(v);
                    }
                }
            }
            merged.merge(&registry.snapshot());
        }
        for (name, &total) in &counter_oracle {
            prop_assert_eq!(merged.counter(name), Some(total));
        }
        for (name, &level) in &gauge_oracle {
            prop_assert_eq!(merged.gauge(name), Some(level));
        }
        for (name, oracle) in &hist_oracle {
            prop_assert_eq!(merged.histogram(name), Some(oracle));
        }
        // Nothing beyond the oracle names and the name-miss warning
        // counter may appear, and every kind stays name-sorted.
        for (name, _) in &merged.counters {
            prop_assert!(
                counter_oracle.contains_key(name) || name == MERGE_NAME_MISSES_METRIC
            );
        }
        prop_assert_eq!(merged.gauges.len(), gauge_oracle.len());
        prop_assert_eq!(merged.histograms.len(), hist_oracle.len());
        for window in merged.counters.windows(2) {
            prop_assert!(window[0].0 < window[1].0);
        }
        for window in merged.histograms.windows(2) {
            prop_assert!(window[0].0 < window[1].0);
        }
    }
}
