//! Training: turning a profile into a short-lived site database.

use crate::profile::Profile;
use crate::site::{SiteConfig, SiteKey};
use crate::DEFAULT_THRESHOLD;
use std::collections::HashSet;

/// Training parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// The short-lived cutoff in bytes allocated (paper: 32 KB).
    pub threshold: u64,
    /// Maximum tolerated fraction of *long-lived bytes* at an admitted
    /// site. The paper's rule is `0.0` — "we only consider allocation
    /// sites in which **all** of the objects allocated lived less than
    /// 32 kilobytes". Non-zero values are an ablation knob.
    pub max_long_fraction: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            threshold: DEFAULT_THRESHOLD,
            max_long_fraction: 0.0,
        }
    }
}

/// A trained database of allocation sites predicted to allocate only
/// short-lived objects — the structure the paper links into the
/// optimized allocator as a small hash table.
///
/// # Examples
///
/// ```
/// use lifepred_core::{train, Profile, SiteConfig, TrainConfig};
/// use lifepred_trace::TraceSession;
///
/// let s = TraceSession::new("p");
/// let id = s.alloc(8);
/// s.free(id);
/// let trace = s.finish();
/// let cfg = SiteConfig::default();
/// let profile = Profile::build(&trace, &cfg, 32 * 1024);
/// let db = train(&profile, &TrainConfig::default());
/// assert_eq!(db.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ShortLivedSet {
    config: SiteConfig,
    threshold: u64,
    sites: HashSet<SiteKey>,
}

impl ShortLivedSet {
    /// Creates an empty database (predicts nothing short-lived); used
    /// as the degenerate baseline in the simulations.
    pub fn empty(config: SiteConfig, threshold: u64) -> Self {
        ShortLivedSet {
            config,
            threshold,
            sites: HashSet::new(),
        }
    }

    /// Assembles a database from already-validated parts (used by the
    /// persistence layer).
    pub(crate) fn from_parts(config: SiteConfig, threshold: u64, sites: HashSet<SiteKey>) -> Self {
        ShortLivedSet {
            config,
            threshold,
            sites,
        }
    }

    /// The site configuration keys must be extracted under.
    pub fn config(&self) -> &SiteConfig {
        &self.config
    }

    /// The training threshold in bytes.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Whether `key`'s site is predicted to allocate short-lived
    /// objects.
    pub fn predicts(&self, key: &SiteKey) -> bool {
        self.sites.contains(key)
    }

    /// Number of sites in the database.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Returns `true` if the database predicts nothing.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Iterates over the admitted sites.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &SiteKey> {
        self.sites.iter()
    }
}

/// Trains a short-lived site database from `profile`.
///
/// With the default [`TrainConfig`] this is exactly the paper's rule: a
/// site is admitted iff all of its training objects died before
/// `threshold` bytes had been allocated.
///
/// # Panics
///
/// Panics if `config.threshold` differs from the threshold the profile
/// was built with (the per-site short counters would be inconsistent).
pub fn train(profile: &Profile, config: &TrainConfig) -> ShortLivedSet {
    assert_eq!(
        profile.threshold(),
        config.threshold,
        "profile built with threshold {} but training with {}",
        profile.threshold(),
        config.threshold
    );
    let mut sites = HashSet::new();
    for (key, stats) in profile.sites() {
        let admit = if config.max_long_fraction <= 0.0 {
            stats.all_short(config.threshold)
        } else {
            stats.long_byte_fraction() <= config.max_long_fraction
        };
        if admit {
            sites.insert(key.clone());
        }
    }
    ShortLivedSet {
        config: *profile.config(),
        threshold: config.threshold,
        sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SitePolicy;
    use lifepred_trace::TraceSession;

    fn two_site_profile() -> Profile {
        let s = TraceSession::new("p");
        {
            let _g = s.enter("ephemeral");
            for _ in 0..50 {
                let id = s.alloc(16);
                s.free(id);
            }
        }
        let leak = {
            let _g = s.enter("permanent");
            s.alloc(16)
        };
        {
            let _g = s.enter("filler");
            for _ in 0..50 {
                let id = s.alloc(1500);
                s.free(id);
            }
        }
        let _ = leak; // never freed: immortal
        Profile::build(&s.finish(), &SiteConfig::default(), DEFAULT_THRESHOLD)
    }

    #[test]
    fn all_short_rule_admits_only_pure_sites() {
        let p = two_site_profile();
        let db = train(&p, &TrainConfig::default());
        // "ephemeral" and "filler" qualify; "permanent" does not.
        assert_eq!(db.len(), 2);
        assert!(!db.is_empty());
    }

    #[test]
    fn relaxed_rule_admits_more() {
        let p = two_site_profile();
        let strict = train(&p, &TrainConfig::default());
        let relaxed = train(
            &p,
            &TrainConfig {
                max_long_fraction: 1.0,
                ..TrainConfig::default()
            },
        );
        assert!(relaxed.len() >= strict.len());
        assert_eq!(relaxed.len(), 3);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn mismatched_threshold_panics() {
        let p = two_site_profile();
        let _ = train(
            &p,
            &TrainConfig {
                threshold: 1,
                ..TrainConfig::default()
            },
        );
    }

    #[test]
    fn empty_database_predicts_nothing() {
        let db = ShortLivedSet::empty(SiteConfig::default(), DEFAULT_THRESHOLD);
        assert!(db.is_empty());
        assert!(!db.predicts(&SiteKey::Size { size: 8 }));
        assert_eq!(db.config().policy, SitePolicy::Complete);
    }
}
