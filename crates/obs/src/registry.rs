//! Metric registry: stable names → published values.
//!
//! A [`Registry`] is the one place metric names exist, and it stores
//! plain values behind one mutex. Producers count into their own
//! memory — a replay's local histograms, galloc's counter words, the
//! learner's stats — and publish when they are done, one call per
//! metric kind: [`Registry::add`] to a counter, [`Registry::set`] a
//! gauge, [`Registry::absorb`] a histogram, [`Registry::push`] epoch
//! samples onto a timeline. Every call takes the lock, so nothing
//! publishes per event. Exporters call [`Registry::snapshot`] to get a
//! plain [`Snapshot`] that renders to JSON (see the crate root docs for
//! the naming convention).
//!
//! Names are validated eagerly and kind mismatches panic: both are
//! programmer errors on compile-time string constants, and failing
//! loudly at the first publish beats exporting a silently-wrong schema.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard};

use crate::hist::HistogramSnapshot;
use crate::timeline::{EpochSample, DEFAULT_TIMELINE_CAPACITY};

/// A named collection of published metric values.
///
/// Publishing the identity of a kind — adding 0, absorbing an empty
/// histogram, pushing no samples — registers the name at its zero
/// value, so a producer can declare its whole metric set up front.
///
/// # Examples
///
/// ```
/// use lifepred_obs::Registry;
///
/// let reg = Registry::new();
/// reg.add("demo_allocs_total", 1);
/// // The same name accumulates into the same counter.
/// reg.add("demo_allocs_total", 2);
/// assert_eq!(reg.snapshot().counters[0].1, 3);
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

#[derive(Debug)]
enum Metric {
    Counter(u64),
    Gauge(u64),
    Histogram(Box<HistogramSnapshot>),
    /// The newest [`DEFAULT_TIMELINE_CAPACITY`] samples, oldest first.
    Timeline(VecDeque<EpochSample>),
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

/// Whether `name` is a valid metric name: `[a-z_][a-z0-9_]*`, which
/// reads naturally in JSON keys.
pub(crate) fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    (first.is_ascii_lowercase() || first == '_')
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// The metric stored under `name`, created as `fresh` on first use.
///
/// # Panics
///
/// If `name` is invalid or already holds another kind of metric.
fn slot<'m>(
    metrics: &'m mut BTreeMap<String, Metric>,
    name: &str,
    fresh: Metric,
) -> &'m mut Metric {
    assert!(
        valid_name(name),
        "invalid metric name `{name}` (want [a-z_][a-z0-9_]*)"
    );
    let want = fresh.kind();
    let metric = metrics.entry(name.to_owned()).or_insert(fresh);
    assert!(
        metric.kind() == want,
        "metric `{name}` already registered as a {}, requested as a {want}",
        metric.kind()
    );
    metric
}

/// Appends `samples` to `ring`, dropping the oldest beyond `capacity`.
fn push_bounded(ring: &mut VecDeque<EpochSample>, samples: &[EpochSample], capacity: usize) {
    ring.extend(samples);
    let excess = ring.len().saturating_sub(capacity);
    ring.drain(..excess);
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().expect("registry lock poisoned")
    }

    /// Adds `n` to the counter `name` (wrapping), creating it at 0.
    ///
    /// # Panics
    ///
    /// If `name` is invalid or already registered as another kind.
    pub fn add(&self, name: &str, n: u64) {
        let mut metrics = self.lock();
        if let Metric::Counter(total) = slot(&mut metrics, name, Metric::Counter(0)) {
            *total = total.wrapping_add(n);
        }
    }

    /// Sets the gauge `name` to `level`.
    ///
    /// # Panics
    ///
    /// If `name` is invalid or already registered as another kind.
    pub fn set(&self, name: &str, level: u64) {
        let mut metrics = self.lock();
        if let Metric::Gauge(gauge) = slot(&mut metrics, name, Metric::Gauge(0)) {
            *gauge = level;
        }
    }

    /// Folds `local`, a histogram recorded in the producer's own
    /// memory, into the histogram `name`.
    ///
    /// # Panics
    ///
    /// If `name` is invalid or already registered as another kind.
    pub fn absorb(&self, name: &str, local: &HistogramSnapshot) {
        let mut metrics = self.lock();
        let fresh = Metric::Histogram(Box::default());
        if let Metric::Histogram(hist) = slot(&mut metrics, name, fresh) {
            hist.merge(local);
        }
    }

    /// Appends `samples`, oldest first, to the epoch timeline `name`.
    /// The timeline keeps the newest [`DEFAULT_TIMELINE_CAPACITY`]
    /// samples; older ones fall off the front.
    ///
    /// # Panics
    ///
    /// If `name` is invalid or already registered as another kind.
    pub fn push(&self, name: &str, samples: &[EpochSample]) {
        let mut metrics = self.lock();
        if let Metric::Timeline(ring) = slot(&mut metrics, name, Metric::Timeline(VecDeque::new()))
        {
            push_bounded(ring, samples, DEFAULT_TIMELINE_CAPACITY);
        }
    }

    /// Copies every metric into a plain, renderable snapshot, all under
    /// one lock: a point-in-time view across metrics.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (name, metric) in self.lock().iter() {
            let name = name.clone();
            match metric {
                Metric::Counter(c) => snap.counters.push((name, *c)),
                Metric::Gauge(g) => snap.gauges.push((name, *g)),
                Metric::Histogram(h) => snap.histograms.push((name, **h)),
                Metric::Timeline(t) => snap.timelines.push((name, t.iter().copied().collect())),
            }
        }
        snap
    }
}

/// A plain point-in-time dump of a registry: sorted name/value pairs
/// per metric kind. This is the unit of persistence — JSON written by
/// `simulate --metrics-out` is a rendered `Snapshot`, and
/// [`Snapshot::from_json`] parses one back.
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
    /// simulation driver combines per-job registries into one dump.
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

    fn sample(epoch: u64) -> EpochSample {
        EpochSample {
            epoch,
            ..EpochSample::default()
        }
    }

    fn hist(values: &[u64]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::empty();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn same_name_same_metric() {
        let reg = Registry::new();
        reg.add("a_total", 1);
        reg.add("a_total", 1);
        reg.set("g_bytes", 10);
        reg.set("g_bytes", 12);
        reg.absorb("h_bytes", &hist(&[0, 1, 5]));
        reg.absorb("h_bytes", &hist(&[5, 300]));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a_total"), Some(2));
        assert_eq!(
            snap.gauge("g_bytes"),
            Some(12),
            "a gauge holds the last set"
        );
        assert_eq!(snap.histogram("h_bytes"), Some(&hist(&[0, 1, 5, 5, 300])));
    }

    #[test]
    fn publishing_the_identity_registers_at_zero() {
        let reg = Registry::new();
        reg.add("c_total", 0);
        reg.absorb("h_bytes", &HistogramSnapshot::empty());
        reg.push("t_epochs", &[]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c_total"), Some(0));
        assert_eq!(snap.histogram("h_bytes"), Some(&HistogramSnapshot::empty()));
        assert_eq!(snap.timeline("t_epochs"), Some(&[][..]));
    }

    #[test]
    fn timeline_evicts_oldest_when_full() {
        let mut ring = VecDeque::new();
        for e in 0..10 {
            push_bounded(&mut ring, &[sample(e)], 3);
        }
        let got: Vec<u64> = ring.iter().map(|s| s.epoch).collect();
        assert_eq!(got, vec![7, 8, 9]);
        // The registry's rings hold DEFAULT_TIMELINE_CAPACITY.
        let reg = Registry::new();
        let pushed = DEFAULT_TIMELINE_CAPACITY as u64 + 7;
        for e in 0..pushed {
            reg.push("t_epochs", &[sample(e)]);
        }
        let snap = reg.snapshot();
        let kept = snap.timeline("t_epochs").expect("timeline");
        assert_eq!(kept.len(), DEFAULT_TIMELINE_CAPACITY);
        assert_eq!(kept[0].epoch, 7);
        assert_eq!(kept[kept.len() - 1].epoch, pushed - 1);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.add("x", 0);
        reg.set("x", 0);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        Registry::new().add("not ok", 1);
    }

    #[test]
    fn merge_folds_every_metric_kind() {
        let a = Registry::new();
        a.add("c_total", 3);
        a.set("g_bytes", 10);
        a.absorb("h_bytes", &hist(&[4]));
        a.push("t_epochs", &[sample(1)]);
        let b = Registry::new();
        b.add("c_total", 2);
        b.add("only_b_total", 7);
        b.set("g_bytes", 5);
        b.absorb("h_bytes", &hist(&[4096]));
        b.push("t_epochs", &[sample(2)]);
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
        a.add("c_total", 3);
        a.set("g_bytes", 1);
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
        a.add("only_a_total", 1);
        a.absorb("h_shared", &hist(&[1]));
        let b = Registry::new();
        b.set("only_b_bytes", 2);
        b.absorb("h_shared", &hist(&[2]));
        b.push("only_b_epochs", &[EpochSample::default()]);
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
        a.add("c_total", 1);
        let b = Registry::new();
        b.add("c_total", 1);
        b.add("d_total", 1);
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
        reg.set("z_gauge", 7);
        reg.add("b_total", 3);
        reg.add("a_total", 1);
        reg.absorb("h_bytes", &hist(&[42]));
        reg.push("t_epochs", &[EpochSample::default()]);
        let snap = reg.snapshot();
        let counter_names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(counter_names, vec!["a_total", "b_total"]);
        assert_eq!(snap.gauge("z_gauge"), Some(7));
        assert_eq!(snap.histogram("h_bytes").map(|h| h.count), Some(1));
        assert_eq!(snap.timeline("t_epochs").map(<[EpochSample]>::len), Some(1));
        assert!(!snap.is_empty());
    }
}
