//! Metric registry: stable names → live metric handles.
//!
//! A [`Registry`] is the one place metric names exist. Producers ask
//! for a handle (`registry.counter("lifepred_sim_allocs_total")`) and
//! keep the returned `Arc` on their hot path — the registry lock is
//! taken only at registration and export time, never per-increment.
//! Exporters call [`Registry::snapshot`] to get a plain [`Snapshot`]
//! that renders to JSON or Prometheus text (see the crate root docs
//! for the naming convention).
//!
//! Names are validated eagerly and kind mismatches panic: both are
//! programmer errors on compile-time string constants, and failing
//! loudly at registration beats exporting a silently-wrong schema.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::counter::{Counter, Gauge};
use crate::hist::{HistogramSnapshot, LogHistogram};
use crate::timeline::{EpochSample, EpochTimeline};

/// A named collection of live metrics.
///
/// # Examples
///
/// ```
/// use lifepred_obs::Registry;
///
/// let reg = Registry::new();
/// let allocs = reg.counter("demo_allocs_total");
/// allocs.add(1);
/// // The same name returns the same underlying metric.
/// reg.counter("demo_allocs_total").add(2);
/// assert_eq!(reg.snapshot().counters[0].1, 3);
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LogHistogram>),
    Timeline(Arc<EpochTimeline>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
            Metric::Timeline(_) => "timeline",
        }
    }
}

/// Whether `name` is a valid metric name: `[a-z_][a-z0-9_]*`, the
/// intersection of Prometheus's metric-name grammar and what reads
/// naturally in JSON keys.
pub(crate) fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_lowercase() || first == '_')
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        wrap: impl FnOnce() -> Metric,
        unwrap: impl Fn(&Metric) -> Option<Arc<T>>,
        want: &'static str,
    ) -> Arc<T> {
        assert!(
            valid_name(name),
            "invalid metric name `{name}` (want [a-z_][a-z0-9_]*)"
        );
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        let entry = metrics.entry(name.to_string()).or_insert_with(wrap);
        match unwrap(entry) {
            Some(m) => m,
            None => panic!(
                "metric `{name}` already registered as a {}, requested as a {want}",
                entry.kind()
            ),
        }
    }

    /// Returns the counter registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    ///
    /// If `name` is invalid or already registered as another kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            "counter",
        )
    }

    /// Returns the gauge registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    ///
    /// If `name` is invalid or already registered as another kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            "gauge",
        )
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    ///
    /// If `name` is invalid or already registered as another kind.
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        self.get_or_insert(
            name,
            || Metric::Histogram(Arc::new(LogHistogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            "histogram",
        )
    }

    /// Returns the epoch timeline registered under `name`, creating it
    /// (at the default capacity) on first use.
    ///
    /// # Panics
    ///
    /// If `name` is invalid or already registered as another kind.
    pub fn timeline(&self, name: &str) -> Arc<EpochTimeline> {
        self.get_or_insert(
            name,
            || Metric::Timeline(Arc::new(EpochTimeline::new())),
            |m| match m {
                Metric::Timeline(t) => Some(Arc::clone(t)),
                _ => None,
            },
            "timeline",
        )
    }

    /// Reads every metric into a plain, renderable snapshot. Values
    /// are read per-metric while writers may be active, so the
    /// snapshot is consistent per metric, not across metrics — the
    /// same contract as the underlying counters.
    pub fn snapshot(&self) -> Snapshot {
        // Clone the handles out so metric reads (which may sum shards
        // or lock a timeline) happen outside the registry lock.
        let metrics: Vec<(String, Metric)> = {
            let metrics = self.metrics.lock().expect("registry lock poisoned");
            metrics
                .iter()
                .map(|(n, m)| (n.clone(), m.clone()))
                .collect()
        };
        let mut snap = Snapshot::default();
        for (name, metric) in metrics {
            match metric {
                Metric::Counter(c) => snap.counters.push((name, c.get())),
                Metric::Gauge(g) => snap.gauges.push((name, g.get())),
                Metric::Histogram(h) => snap.histograms.push((name, h.snapshot())),
                Metric::Timeline(t) => snap.timelines.push((name, t.samples())),
            }
        }
        snap
    }
}

/// A plain point-in-time dump of a registry: sorted name/value pairs
/// per metric kind. This is the unit of persistence — JSON written by
/// `simulate --metrics-out` is a rendered `Snapshot`, and `lifepred
/// stats` parses one back (see [`Snapshot::from_json`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge levels, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Timeline dumps, sorted by name.
    pub timelines: Vec<(String, Vec<EpochSample>)>,
}

impl Snapshot {
    /// Whether the snapshot holds no metrics at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.timelines.is_empty()
    }

    /// Looks up a counter total by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge level by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Looks up a timeline by name.
    pub fn timeline(&self, name: &str) -> Option<&[EpochSample]> {
        self.timelines
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_slice())
    }

    /// Folds `other` into `self`, name by name — how the parallel
    /// simulation driver and the sweep engine combine per-job
    /// registries into one dump.
    ///
    /// Counters and gauges **add** (a merged gauge is therefore a sum
    /// across jobs — the right reading for the `lifepred_learner_*`
    /// byte totals, the only gauges the simulator exports), histograms
    /// merge bucketwise, and timelines concatenate in merge order.
    ///
    /// The merge is a **union**: a metric present on only one side is
    /// carried into the result unchanged, with nothing to pair it
    /// against on the other side. That is the right behavior for
    /// optional metric families (the epoch timeline only exists for
    /// online runs), but it also means a misspelled or mis-wired
    /// metric name can never fail a merge. To keep that visible, when
    /// two **non-empty** snapshots disagree on their name sets the
    /// merged result carries a typed warning counter,
    /// [`MERGE_NAME_MISSES_METRIC`], incremented once per unpaired
    /// name (in either direction, every metric kind). Merging into a
    /// freshly-`default()` accumulator — the standard fold loop — does
    /// not count, and neither does the warning counter itself.
    /// Name ordering stays sorted.
    pub fn merge(&mut self, other: &Snapshot) {
        let misses = if self.is_empty() {
            0
        } else {
            self.name_misses(other)
        };
        fn fold<T: Clone>(
            into: &mut Vec<(String, T)>,
            from: &[(String, T)],
            combine: impl Fn(&mut T, &T),
        ) {
            for (name, value) in from {
                match into.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
                    Ok(i) => combine(&mut into[i].1, value),
                    Err(i) => into.insert(i, (name.clone(), value.clone())),
                }
            }
        }
        fold(&mut self.counters, &other.counters, |a, b| *a += b);
        fold(&mut self.gauges, &other.gauges, |a, b| *a += b);
        fold(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
        fold(&mut self.timelines, &other.timelines, |a, b| {
            a.extend_from_slice(b);
        });
        if misses > 0 {
            match self
                .counters
                .binary_search_by(|(n, _)| n.as_str().cmp(MERGE_NAME_MISSES_METRIC))
            {
                Ok(i) => self.counters[i].1 += misses,
                Err(i) => self
                    .counters
                    .insert(i, (MERGE_NAME_MISSES_METRIC.to_string(), misses)),
            }
        }
    }

    /// Counts the names that would merge without a partner: present on
    /// exactly one side, across every metric kind, excluding
    /// [`MERGE_NAME_MISSES_METRIC`] itself (which is bookkeeping, not
    /// a wired metric).
    fn name_misses(&self, other: &Snapshot) -> u64 {
        fn unpaired<T, U>(a: &[(String, T)], b: &[(String, U)]) -> u64 {
            // Both vectors are name-sorted; walk them in lockstep.
            let (mut i, mut j, mut misses) = (0usize, 0usize, 0u64);
            while i < a.len() || j < b.len() {
                let cmp = match (a.get(i), b.get(j)) {
                    (Some((x, _)), Some((y, _))) => x.as_str().cmp(y.as_str()),
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (None, Some(_)) => std::cmp::Ordering::Greater,
                    (None, None) => break,
                };
                match cmp {
                    std::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Less => {
                        if a[i].0 != MERGE_NAME_MISSES_METRIC {
                            misses += 1;
                        }
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        if b[j].0 != MERGE_NAME_MISSES_METRIC {
                            misses += 1;
                        }
                        j += 1;
                    }
                }
            }
            misses
        }
        unpaired(&self.counters, &other.counters)
            + unpaired(&self.gauges, &other.gauges)
            + unpaired(&self.histograms, &other.histograms)
            + unpaired(&self.timelines, &other.timelines)
    }
}

/// Counter name [`Snapshot::merge`] bumps when it folds two non-empty
/// snapshots whose metric name sets differ (see the `merge` docs).
/// A non-zero value in a merged dump means some metric was recorded on
/// one side of a fold but not the other — usually a wiring bug in the
/// caller, not a property of the workload.
pub const MERGE_NAME_MISSES_METRIC: &str = "lifepred_obs_merge_name_misses_total";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_validate() {
        assert!(valid_name("lifepred_sim_allocs_total"));
        assert!(valid_name("_private"));
        assert!(!valid_name(""));
        assert!(!valid_name("9lives"));
        assert!(!valid_name("has-dash"));
        assert!(!valid_name("Upper"));
    }

    #[test]
    fn same_name_same_metric() {
        let reg = Registry::new();
        reg.counter("a_total").add(1);
        reg.counter("a_total").add(1);
        assert_eq!(reg.snapshot().counter("a_total"), Some(2));
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        Registry::new().counter("not ok");
    }

    #[test]
    fn merge_folds_every_metric_kind() {
        let a = Registry::new();
        a.counter("c_total").add(3);
        a.gauge("g_bytes").set(10);
        a.histogram("h_bytes").observe(4);
        a.timeline("t_epochs").push(EpochSample {
            epoch: 1,
            ..EpochSample::default()
        });
        let b = Registry::new();
        b.counter("c_total").add(2);
        b.counter("only_b_total").add(7);
        b.gauge("g_bytes").set(5);
        b.histogram("h_bytes").observe(4096);
        b.timeline("t_epochs").push(EpochSample {
            epoch: 2,
            ..EpochSample::default()
        });
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("c_total"), Some(5));
        assert_eq!(merged.counter("only_b_total"), Some(7));
        assert_eq!(merged.gauge("g_bytes"), Some(15), "gauges sum");
        let h = merged.histogram("h_bytes").expect("merged histogram");
        assert_eq!((h.count, h.sum, h.max), (2, 4100, 4096));
        let t = merged.timeline("t_epochs").expect("merged timeline");
        assert_eq!(
            t.iter().map(|s| s.epoch).collect::<Vec<_>>(),
            vec![1, 2],
            "timelines concatenate in merge order"
        );
        // `only_b_total` had no partner in `a`, so the union is
        // flagged by the typed warning counter.
        assert_eq!(merged.counter(MERGE_NAME_MISSES_METRIC), Some(1));
        // Names stay sorted so a merged snapshot renders like a real one.
        let names: Vec<&str> = merged.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["c_total", MERGE_NAME_MISSES_METRIC, "only_b_total"]
        );
    }

    #[test]
    fn merge_into_empty_accumulator_counts_no_misses() {
        // The standard fold loop starts from `Snapshot::default()`;
        // adopting the first job's snapshot is not a name mismatch.
        let a = Registry::new();
        a.counter("c_total").add(3);
        a.gauge("g_bytes").set(1);
        let mut merged = Snapshot::default();
        merged.merge(&a.snapshot());
        assert_eq!(merged.counter(MERGE_NAME_MISSES_METRIC), None);
        // And identical name sets never trip the warning either.
        merged.merge(&a.snapshot());
        assert_eq!(merged.counter(MERGE_NAME_MISSES_METRIC), None);
        assert_eq!(merged.counter("c_total"), Some(6));
    }

    #[test]
    fn merge_counts_misses_in_both_directions_and_every_kind() {
        let a = Registry::new();
        a.counter("only_a_total").add(1);
        a.histogram("h_shared").observe(1);
        let b = Registry::new();
        b.gauge("only_b_bytes").set(2);
        b.histogram("h_shared").observe(2);
        b.timeline("only_b_epochs").push(EpochSample::default());
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        // only_a_total, only_b_bytes, only_b_epochs are unpaired;
        // h_shared pairs.
        assert_eq!(merged.counter(MERGE_NAME_MISSES_METRIC), Some(3));
        assert_eq!(merged.histogram("h_shared").map(|h| h.count), Some(2));
    }

    #[test]
    fn merge_miss_counter_does_not_count_itself() {
        let a = Registry::new();
        a.counter("c_total").add(1);
        let b = Registry::new();
        b.counter("c_total").add(1);
        b.counter("d_total").add(1);
        // First mismatched merge plants the warning counter…
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter(MERGE_NAME_MISSES_METRIC), Some(1));
        // …which must not itself register as a miss on later folds
        // (nor when folding a dump that already carries one).
        let again = merged.clone();
        merged.merge(&again);
        assert_eq!(merged.counter(MERGE_NAME_MISSES_METRIC), Some(2));
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.gauge("z_gauge").set(7);
        reg.counter("b_total").add(3);
        reg.counter("a_total").add(1);
        reg.histogram("h_bytes").observe(42);
        reg.timeline("t_epochs").push(EpochSample::default());
        let snap = reg.snapshot();
        let counter_names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(counter_names, vec!["a_total", "b_total"]);
        assert_eq!(snap.gauge("z_gauge"), Some(7));
        assert_eq!(snap.histogram("h_bytes").map(|h| h.count), Some(1));
        assert_eq!(snap.timeline("t_epochs").map(<[EpochSample]>::len), Some(1));
        assert!(!snap.is_empty());
    }
}
