//! Epoch-model configuration.

/// Parameters of the online epoch learner.
///
/// Lifetimes and epochs are measured on the paper's *byte clock*: the
/// clock advances by the object size at every allocation, so a
/// "32 KB lifetime" means the program allocated 32 KB elsewhere while
/// the object was live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochConfig {
    /// Short-lived threshold in bytes of allocation (the paper's
    /// 32 KB). An object whose lifetime reaches this is long-lived.
    pub threshold: u64,
    /// Epoch length in bytes of allocation. Site states are
    /// re-evaluated once per epoch; the default is twice the threshold,
    /// mirroring the paper's "arena area is twice the age of the
    /// objects predicted short-lived".
    pub epoch_bytes: u64,
    /// Clean (active, no long lifetime) epochs a fresh site must show
    /// before it is first predicted short-lived.
    pub promote_epochs: u32,
    /// Clean epochs a *demoted* site must show before it re-qualifies —
    /// the hysteresis `K`. Idle epochs do not count.
    pub requalify_epochs: u32,
    /// Minimum frees observed in an epoch for it to count as clean
    /// evidence (an epoch with fewer frees is ignored, not dirty).
    pub min_epoch_frees: u64,
    /// The lifetime quantile tracked per site with a P² estimator and
    /// required to sit under [`EpochConfig::threshold`] at promotion
    /// time (once at least five observations exist).
    pub tail_quantile: f64,
}

impl Default for EpochConfig {
    fn default() -> Self {
        EpochConfig {
            threshold: 32 * 1024,
            epoch_bytes: 64 * 1024,
            promote_epochs: 1,
            requalify_epochs: 3,
            min_epoch_frees: 1,
            tail_quantile: 0.95,
        }
    }
}

impl EpochConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when a field is zero or the quantile is out of
    /// `(0, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        if self.threshold == 0 {
            return Err("threshold must be positive".to_owned());
        }
        if self.epoch_bytes == 0 {
            return Err("epoch_bytes must be positive".to_owned());
        }
        if self.requalify_epochs == 0 {
            return Err("requalify_epochs must be at least 1".to_owned());
        }
        if !(self.tail_quantile > 0.0 && self.tail_quantile < 1.0) {
            return Err(format!(
                "tail_quantile must be in (0, 1), got {}",
                self.tail_quantile
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_paper_shaped() {
        let c = EpochConfig::default();
        c.validate().expect("default config");
        assert_eq!(c.threshold, 32 * 1024);
        assert_eq!(c.epoch_bytes, 2 * c.threshold);
    }

    #[test]
    fn validation_rejects_degenerate_fields() {
        let mut c = EpochConfig {
            threshold: 0,
            ..EpochConfig::default()
        };
        assert!(c.validate().is_err());
        c.threshold = 1;
        c.epoch_bytes = 0;
        assert!(c.validate().is_err());
        c.epoch_bytes = 1;
        c.requalify_epochs = 0;
        assert!(c.validate().is_err());
        c.requalify_epochs = 1;
        c.tail_quantile = 1.0;
        assert!(c.validate().is_err());
    }
}
