//! Per-site lifetime profiles built from training traces.

use crate::pct;
use crate::site::{SiteConfig, SiteExtractor, SiteId, SiteKey};
use lifepred_trace::{walk, AllocationRecord, Live, Trace, TraceSource, Visit};
use std::collections::HashMap;

/// Lifetime statistics accumulated for one allocation site: sums and
/// a maximum, so the order objects arrive in cannot change them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Objects allocated at this site.
    pub objects: u64,
    /// Bytes allocated at this site.
    pub bytes: u64,
    /// Largest lifetime observed (exact, so the all-short training
    /// rule is exact, not approximate).
    pub max_lifetime: u64,
    /// Bytes of objects that lived less than the profile threshold.
    pub short_bytes: u64,
    /// Heap references to objects from this site.
    pub refs: u64,
}

impl SiteStats {
    /// Returns `true` if every object observed at this site was
    /// short-lived under `threshold` — the paper's admission rule.
    pub(crate) fn all_short(&self, threshold: u64) -> bool {
        self.objects > 0 && self.max_lifetime < threshold
    }

    /// Fraction of this site's bytes that were long-lived, in `[0, 1]`.
    pub(crate) fn long_byte_fraction(&self) -> f64 {
        if self.bytes == 0 {
            0.0
        } else {
            (self.bytes - self.short_bytes) as f64 / self.bytes as f64
        }
    }
}

/// A training profile: the mapping from allocation sites to lifetime
/// statistics. Program-wide totals are sums over the sites.
///
/// # Examples
///
/// ```
/// use lifepred_core::{Profile, SiteConfig, DEFAULT_THRESHOLD};
/// use lifepred_trace::TraceSession;
///
/// let s = TraceSession::new("p");
/// let id = s.alloc(32);
/// s.free(id);
/// let trace = s.finish();
/// let profile = Profile::build(&trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
/// assert_eq!(profile.total_sites(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Profile {
    program: String,
    config: SiteConfig,
    threshold: u64,
    sites: HashMap<SiteKey, SiteStats>,
    traces: usize,
}

impl Profile {
    /// Scans `trace` and accumulates per-site statistics.
    ///
    /// `threshold` is the short-lived cutoff in bytes (the paper uses
    /// 32 KB); it determines `short_bytes` and must match the
    /// threshold later passed to training.
    pub fn build(trace: &Trace, config: &SiteConfig, threshold: u64) -> Profile {
        Profile::build_many([trace], config, threshold)
    }

    /// Builds one merged profile over several training traces — the
    /// paper's cross-input experiments train on multiple runs of the
    /// same program so that per-input sites generalize.
    ///
    /// Site keys are only comparable across traces recorded against a
    /// shared function registry (e.g. the inputs of one `lifepred
    /// record` invocation); the caller is responsible for that.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    pub fn build_many<'a>(
        traces: impl IntoIterator<Item = &'a Trace>,
        config: &SiteConfig,
        threshold: u64,
    ) -> Profile {
        let mut profile = Profile::new(config, threshold);
        for trace in traces {
            profile = profile.absorb(trace).unwrap_or_else(|e| match e {});
        }
        assert!(profile.traces > 0, "build_many needs at least one trace");
        profile
    }

    /// An empty profile, for [`absorb`](Profile::absorb) to fill.
    pub fn new(config: &SiteConfig, threshold: u64) -> Profile {
        Profile {
            program: String::new(),
            config: *config,
            threshold,
            sites: HashMap::new(),
            traces: 0,
        }
    }

    /// Accumulates one trace in one [`walk`]: each object is counted at
    /// its birth, and its lifetime at its free or, if never freed, the
    /// end clock. A site an earlier trace reached continues its
    /// statistics (site *keys* cross traces; dense ids do not). The
    /// program name becomes the absorbed names joined with `+`.
    ///
    /// # Errors
    ///
    /// The first error the walk reports; the half-updated profile is
    /// dropped with it.
    pub fn absorb<T: TraceSource>(mut self, source: &T) -> Result<Profile, T::Error> {
        if self.traces > 0 {
            self.program.push('+');
        }
        self.program.push_str(source.name());
        self.traces += 1;
        let mut sites = Sites {
            extractor: SiteExtractor::from_chains(source.chains(), self.config),
            table: Vec::new(),
            merged: std::mem::take(&mut self.sites),
            threshold: self.threshold,
            end_clock: source.stats().total_bytes,
        };
        walk(source, &mut sites)?;
        let keys = (0..).map(|id| sites.extractor.key(SiteId(id)));
        self.sites = keys.zip(sites.table).chain(sites.merged).collect();
        Ok(self)
    }

    /// The profiled program's name.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// The site configuration the profile was built under.
    pub(crate) fn config(&self) -> &SiteConfig {
        &self.config
    }

    /// The short-lived threshold in bytes.
    pub(crate) fn threshold(&self) -> u64 {
        self.threshold
    }

    /// All sites and their statistics.
    pub fn sites(&self) -> &HashMap<SiteKey, SiteStats> {
        &self.sites
    }

    /// Number of distinct allocation sites (Table 4's "Total Sites").
    pub fn total_sites(&self) -> usize {
        self.sites.len()
    }

    /// Total bytes allocated in the profiled run.
    pub fn total_bytes(&self) -> u64 {
        self.sites.values().map(|s| s.bytes).sum()
    }

    /// Total objects allocated in the profiled run.
    pub fn total_objects(&self) -> u64 {
        self.sites.values().map(|s| s.objects).sum()
    }

    /// Percentage of all bytes that were actually short-lived
    /// (Table 4's "Actual Short-lived Bytes").
    pub fn actual_short_bytes_pct(&self) -> f64 {
        let short = self.sites.values().map(|s| s.short_bytes).sum();
        pct(short, self.total_bytes())
    }
}

/// [`Profile::absorb`]'s walk: statistics per dense site id, each
/// object's live entry tagged with its site. A site met again is taken
/// out of the profile's sites so far, `merged`.
struct Sites<'t> {
    extractor: SiteExtractor<'t>,
    table: Vec<SiteStats>,
    merged: HashMap<SiteKey, SiteStats>,
    threshold: u64,
    end_clock: u64,
}

impl Visit for Sites<'_> {
    fn born(&mut self, _record: usize, r: &AllocationRecord) -> u32 {
        let id = self.extractor.site_id(r);
        if id.0 as usize == self.table.len() {
            let key = self.extractor.key(id);
            self.table
                .push(self.merged.remove(&key).unwrap_or_default());
        }
        let stats = &mut self.table[id.0 as usize];
        stats.objects += 1;
        stats.bytes += u64::from(r.size);
        stats.refs += r.refs;
        id.0
    }

    fn died(&mut self, _record: usize, obj: Live, death: Option<u64>) {
        let stats = &mut self.table[obj.tag as usize];
        let lifetime = death
            .unwrap_or(self.end_clock)
            .saturating_sub(obj.birth_clock);
        stats.max_lifetime = stats.max_lifetime.max(lifetime);
        if lifetime < self.threshold {
            stats.short_bytes += u64::from(obj.size);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_THRESHOLD;
    use lifepred_trace::{shared_registry, ChainId, SharedRegistry, TraceSession};

    /// Two sites: one allocating only short-lived objects, one keeping
    /// objects alive past the threshold.
    fn mixed_trace() -> Trace {
        mixed_trace_in(shared_registry(), false)
    }

    /// `mixed_trace` against `registry`; with `short_first`, one extra
    /// early `short_site` object gives the chains other ids.
    fn mixed_trace_in(registry: SharedRegistry, short_first: bool) -> Trace {
        let s = TraceSession::with_registry("mixed", registry);
        if short_first {
            let _g = s.enter("short_site");
            let id = s.alloc(50);
            s.free(id);
        }
        let mut long_lived = Vec::new();
        {
            let _g = s.enter("long_site");
            for _ in 0..4 {
                long_lived.push(s.alloc(100));
            }
        }
        {
            let _g = s.enter("short_site");
            for _ in 0..100 {
                let id = s.alloc(50);
                s.free(id);
            }
        }
        // Push the clock past the threshold so the long-lived objects
        // exceed it, then free them.
        {
            let _g = s.enter("filler");
            for _ in 0..40 {
                let id = s.alloc(1024);
                s.free(id);
            }
        }
        for id in long_lived {
            s.free(id);
        }
        s.finish()
    }

    #[test]
    fn profile_separates_sites() {
        let trace = mixed_trace();
        let p = Profile::build(&trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
        assert_eq!(p.total_sites(), 3);
        let short_site = p
            .sites()
            .iter()
            .find(|(_, s)| s.objects == 100)
            .map(|(_, s)| s)
            .expect("short site present");
        assert!(short_site.all_short(DEFAULT_THRESHOLD));
        assert_eq!(short_site.short_bytes, short_site.bytes);

        let long_site = p
            .sites()
            .iter()
            .find(|(_, s)| s.objects == 4)
            .map(|(_, s)| s)
            .expect("long site present");
        assert!(!long_site.all_short(DEFAULT_THRESHOLD));
        assert!(long_site.max_lifetime >= DEFAULT_THRESHOLD);
        assert!(long_site.long_byte_fraction() > 0.99);
    }

    #[test]
    fn totals_match_trace_stats() {
        let trace = mixed_trace();
        let p = Profile::build(&trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
        assert_eq!(p.total_bytes(), trace.stats().total_bytes);
        assert_eq!(p.total_objects(), trace.stats().total_objects);
        let site_bytes: u64 = p.sites().values().map(|s| s.bytes).sum();
        assert_eq!(site_bytes, p.total_bytes());
    }

    #[test]
    fn actual_short_pct_reflects_threshold() {
        let trace = mixed_trace();
        let tight = Profile::build(&trace, &SiteConfig::default(), 1);
        assert_eq!(tight.actual_short_bytes_pct(), 0.0);
        let loose = Profile::build(&trace, &SiteConfig::default(), u64::MAX);
        assert!((loose.actual_short_bytes_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn build_many_merges_site_stats() {
        let config = SiteConfig::default();
        let registry = shared_registry();
        let t1 = mixed_trace_in(registry.clone(), false);
        let t2 = mixed_trace_in(registry, true);
        // One registry, so keys are comparable — but the chain tables
        // number the same chains differently, as two files' would.
        let first = ChainId::from_index(0);
        assert_ne!(t1.chain(first), t2.chain(first));
        let (p1, p2) = (
            Profile::build(&t1, &config, DEFAULT_THRESHOLD),
            Profile::build(&t2, &config, DEFAULT_THRESHOLD),
        );
        let merged = Profile::build_many([&t1, &t2], &config, DEFAULT_THRESHOLD);
        assert_eq!(merged.total_sites(), p1.total_sites());
        assert_eq!(merged.total_sites(), p2.total_sites());
        assert_eq!(
            merged.total_objects(),
            p1.total_objects() + p2.total_objects()
        );
        assert_eq!(merged.total_bytes(), p1.total_bytes() + p2.total_bytes());
        assert_eq!(merged.program(), "mixed+mixed");
        for (key, a) in p1.sites() {
            let (b, m) = (&p2.sites()[key], &merged.sites()[key]);
            assert_eq!(m.objects, a.objects + b.objects);
            assert_eq!(m.short_bytes, a.short_bytes + b.short_bytes);
            assert_eq!(m.max_lifetime, a.max_lifetime.max(b.max_lifetime));
        }
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn build_many_rejects_empty_input() {
        let _ = Profile::build_many(
            std::iter::empty::<&Trace>(),
            &SiteConfig::default(),
            DEFAULT_THRESHOLD,
        );
    }

    #[test]
    fn empty_trace_profile() {
        let s = TraceSession::new("empty");
        let trace = s.finish();
        let p = Profile::build(&trace, &SiteConfig::default(), DEFAULT_THRESHOLD);
        assert_eq!(p.total_sites(), 0);
        assert_eq!(p.actual_short_bytes_pct(), 0.0);
    }
}
