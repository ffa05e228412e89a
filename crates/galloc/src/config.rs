//! Startup geometry for the global allocator.
//!
//! A set-but-malformed override is a loud startup error naming the
//! offending field, never a silent fall back to defaults.

use lifepred_adaptive::EpochConfig;

/// Environment variable overriding the galloc geometry, as
/// `shards,segs_per_shard` (both powers of two).
pub(crate) const GALLOC_ENV: &str = "LIFEPRED_GALLOC";

/// Bytes per segment (the unit of carving and short-lived reclaim).
pub(crate) const SEG_SIZE: usize = 64 * 1024;

/// `log2(SEG_SIZE)`.
pub(crate) const SEG_SHIFT: u32 = 16;

/// Geometry and prediction tuning for [`crate::LifepredGlobal`].
#[derive(Debug, Clone, PartialEq)]
pub struct GallocConfig {
    /// Number of shards (power of two). Each shard owns a contiguous
    /// run of segments and a central free list per class.
    pub shards: usize,
    /// Segments per shard (power of two). Total reserved area is
    /// `shards * segs_per_shard * SEG_SIZE`.
    pub segs_per_shard: usize,
    /// Sample one in `sample_every` small allocations for lifetime
    /// feedback (power of two).
    pub sample_every: u32,
    /// Epoch/threshold tuning for the online learner. Lifetimes are
    /// measured on the allocation byte clock, so the defaults here are
    /// larger than the trace-replay defaults.
    pub epoch: EpochConfig,
}

impl Default for GallocConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        GallocConfig {
            shards: threads.next_power_of_two().clamp(1, 16),
            // 256 segments = 16 MiB of (lazily committed) area per
            // shard; a small live set never touches most of it, and a
            // big one stays off the exhaustion fallback.
            segs_per_shard: 256,
            sample_every: 64,
            epoch: EpochConfig {
                threshold: 256 * 1024,
                epoch_bytes: 4 * 1024 * 1024,
                ..EpochConfig::default()
            },
        }
    }
}

impl GallocConfig {
    /// Parses a `shards,segs_per_shard` spec (the [`GALLOC_ENV`]
    /// format); unspecified fields keep their defaults.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field when the spec is
    /// malformed.
    pub(crate) fn parse_spec(spec: &str) -> Result<Self, String> {
        let (shards, segs) = spec
            .split_once(',')
            .ok_or_else(|| format!("{GALLOC_ENV}: expected shards,segs_per_shard, got {spec:?}"))?;
        let shards: usize = shards
            .trim()
            .parse()
            .map_err(|e| format!("{GALLOC_ENV}: bad shard count {shards:?}: {e}"))?;
        let segs_per_shard: usize = segs
            .trim()
            .parse()
            .map_err(|e| format!("{GALLOC_ENV}: bad segs_per_shard {segs:?}: {e}"))?;
        let config = GallocConfig {
            shards,
            segs_per_shard,
            ..GallocConfig::default()
        };
        config.validate()?;
        Ok(config)
    }

    /// Reads the [`GALLOC_ENV`] override, if set.
    ///
    /// # Errors
    ///
    /// Returns the [`GallocConfig::parse_spec`] message when the
    /// variable is set but malformed, and a dedicated message when it
    /// is set but not valid Unicode (never a silent default).
    pub(crate) fn from_env() -> Result<Option<Self>, String> {
        match std::env::var(GALLOC_ENV) {
            Ok(spec) => GallocConfig::parse_spec(&spec).map(Some),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(raw)) => Err(format!(
                "{GALLOC_ENV}: value is not valid Unicode ({raw:?}); \
                 expected shards,segs_per_shard"
            )),
        }
    }

    /// Checks the geometry invariants the allocator's address
    /// arithmetic relies on.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !self.shards.is_power_of_two() || self.shards > 256 {
            return Err(format!(
                "{GALLOC_ENV}: shard count must be a power of two in 1..=256, got {}",
                self.shards
            ));
        }
        if !self.segs_per_shard.is_power_of_two()
            || self.segs_per_shard < 4
            || self.segs_per_shard > 4096
        {
            return Err(format!(
                "{GALLOC_ENV}: segs_per_shard must be a power of two in 4..=4096, got {}",
                self.segs_per_shard
            ));
        }
        let segs = self.shards * self.segs_per_shard;
        if segs.checked_mul(SEG_SIZE).is_none_or(|a| a > 1 << 30) {
            return Err(format!(
                "{GALLOC_ENV}: total area {}*{}*{SEG_SIZE} exceeds 1 GiB",
                self.shards, self.segs_per_shard
            ));
        }
        if !self.sample_every.is_power_of_two() {
            return Err(format!(
                "sample_every must be a power of two, got {}",
                self.sample_every
            ));
        }
        self.epoch.validate()
    }

    /// Total reserved bytes.
    pub(crate) fn area_len(&self) -> usize {
        self.shards * self.segs_per_shard * SEG_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        GallocConfig::default().validate().expect("default valid");
    }

    #[test]
    fn spec_parses_valid_geometry() {
        let c = GallocConfig::parse_spec("4,128").expect("valid");
        assert_eq!(c.shards, 4);
        assert_eq!(c.segs_per_shard, 128);
        assert_eq!(c.area_len(), 4 * 128 * SEG_SIZE);
        let c = GallocConfig::parse_spec(" 1 , 16 ").expect("whitespace ok");
        assert_eq!(c.shards, 1);
        assert_eq!(c.segs_per_shard, 16);
    }

    #[test]
    fn spec_rejects_malformed_geometry_naming_the_field() {
        for (bad, field) in [
            ("", "shards,segs_per_shard"),
            ("4", "shards,segs_per_shard"),
            ("x,64", "shard count"),
            ("4,y", "segs_per_shard"),
            ("3,64", "shard count"),
            ("0,64", "shard count"),
            ("512,64", "shard count"),
            ("4,2", "segs_per_shard"),
            ("4,8192", "segs_per_shard"),
            ("256,4096", "exceeds 1 GiB"),
        ] {
            let err = GallocConfig::parse_spec(bad).expect_err(bad);
            assert!(
                err.contains(field),
                "error for {bad:?} should name {field}: {err}"
            );
            assert!(err.contains(GALLOC_ENV), "{err}");
        }
    }

    #[test]
    fn from_env_is_loud_about_broken_values() {
        // Serialized with the other env mutation below by being the
        // same test; no sibling test touches GALLOC_ENV.
        std::env::remove_var(GALLOC_ENV);
        assert_eq!(GallocConfig::from_env(), Ok(None));
        std::env::set_var(GALLOC_ENV, "2,32");
        let c = GallocConfig::from_env().expect("parses").expect("set");
        assert_eq!((c.shards, c.segs_per_shard), (2, 32));
        std::env::set_var(GALLOC_ENV, "2;32");
        assert!(GallocConfig::from_env().is_err());
        #[cfg(unix)]
        {
            use std::os::unix::ffi::OsStrExt;
            std::env::set_var(GALLOC_ENV, std::ffi::OsStr::from_bytes(&[b'2', 0xff, b'2']));
            let err = GallocConfig::from_env().unwrap_err();
            assert!(err.contains("not valid Unicode"), "{err}");
        }
        std::env::remove_var(GALLOC_ENV);
    }
}
