//! JSON persistence for trained predictors.
//!
//! A [`ShortLivedSet`] is self-describing on disk: the JSON document
//! carries the site policy and size rounding alongside the threshold
//! and the site keys, so `lifepred simulate` can reload a predictor
//! without being told how it was trained. The format is deliberately
//! small (one object, scalar fields, one string array). The emitter
//! lives here; documents are read with `lifepred_obs::json`, the
//! workspace's one JSON reader (no serde: the workspace has no
//! crates.io dependencies).
//!
//! ```json
//! {
//!   "format": "lifepred-predictor",
//!   "version": 1,
//!   "policy": "complete",
//!   "size_rounding": 4,
//!   "threshold": 32768,
//!   "sites": ["C 0,3 16", "S 24"]
//! }
//! ```
//!
//! `policy` uses the [`SitePolicy`] display grammar (`complete`,
//! `len-N`, `cce`, `size-only`); each entry of `sites` is a
//! [`SiteKey::encode`] line.

use crate::site::{SiteConfig, SiteKey, SitePolicy};
use crate::train::ShortLivedSet;
use lifepred_obs::json::{self, Value};
use std::collections::HashSet;
use std::fmt::Write as _;

impl ShortLivedSet {
    /// Serializes the database (including its [`SiteConfig`]) as JSON.
    ///
    /// Output is deterministic: sites are sorted.
    pub fn to_json(&self) -> String {
        let mut lines: Vec<String> = self.iter().map(SiteKey::encode).collect();
        lines.sort();
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"format\": \"lifepred-predictor\",\n");
        out.push_str("  \"version\": 1,\n");
        let _ = writeln!(out, "  \"policy\": \"{}\",", self.config().policy);
        let _ = writeln!(out, "  \"size_rounding\": {},", self.config().size_rounding);
        let _ = writeln!(out, "  \"threshold\": {},", self.threshold());
        out.push_str("  \"sites\": [");
        for (i, line) in lines.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\"", json::escape(line));
        }
        if !lines.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a database saved by [`ShortLivedSet::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on syntax errors, a wrong
    /// `format`/`version`, or malformed policy/site entries. Never
    /// panics, whatever the input.
    pub fn from_json(text: &str) -> Result<ShortLivedSet, String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        if value.as_obj().is_none() {
            return Err("top-level value is not an object".to_owned());
        }
        let get = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        // Only `Value::Int`: a float, a negative or an out-of-range
        // number is not a count.
        let int = |key: &str| match get(key)? {
            Value::Int(n) => Ok(*n),
            _ => Err(format!("{key:?} is not an integer")),
        };
        let format = get("format")?
            .as_str()
            .ok_or("\"format\" is not a string")?;
        if format != "lifepred-predictor" {
            return Err(format!("not a predictor file (format {format:?})"));
        }
        let version = int("version")?;
        if version != 1 {
            return Err(format!("unsupported predictor version {version}"));
        }
        let policy_str = get("policy")?
            .as_str()
            .ok_or("\"policy\" is not a string")?;
        let policy = SitePolicy::parse(policy_str)
            .ok_or_else(|| format!("unknown site policy {policy_str:?}"))?;
        let size_rounding = u32::try_from(int("size_rounding")?)
            .map_err(|_| "\"size_rounding\" is not a 32-bit integer")?;
        let threshold = int("threshold")?;
        let site_values = get("sites")?.as_arr().ok_or("\"sites\" is not an array")?;
        let mut sites = HashSet::with_capacity(site_values.len());
        for (i, v) in site_values.iter().enumerate() {
            let line = v
                .as_str()
                .ok_or_else(|| format!("sites[{i}] is not a string"))?;
            let key =
                SiteKey::decode(line).ok_or_else(|| format!("sites[{i}] is not a site key"))?;
            let consistent = matches!(
                (&key, policy),
                (
                    SiteKey::Chain { .. },
                    SitePolicy::Complete | SitePolicy::LastN(_)
                ) | (SiteKey::Encrypted { .. }, SitePolicy::Encrypted)
                    | (SiteKey::Size { .. }, SitePolicy::SizeOnly)
            );
            if !consistent {
                return Err(format!("sites[{i}] does not match policy {policy}"));
            }
            sites.insert(key);
        }
        let config = SiteConfig {
            policy,
            size_rounding,
        };
        Ok(ShortLivedSet::from_parts(config, threshold, sites))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use crate::train::{train, TrainConfig};
    use crate::DEFAULT_THRESHOLD;
    use lifepred_trace::TraceSession;

    fn sample_db(config: SiteConfig) -> ShortLivedSet {
        let s = TraceSession::new("persist-test");
        {
            let _g = s.enter("maker");
            for _ in 0..10 {
                let id = s.alloc(24);
                s.free(id);
            }
            let _g2 = s.enter("nested");
            for _ in 0..5 {
                let id = s.alloc(100);
                s.free(id);
            }
        }
        let trace = s.finish();
        let p = Profile::build(&trace, &config, DEFAULT_THRESHOLD);
        train(&p, &TrainConfig::default())
    }

    #[test]
    fn json_roundtrip_all_policies() {
        for config in [
            SiteConfig::default(),
            SiteConfig::last_n(3),
            SiteConfig::encrypted(),
            SiteConfig::size_only(),
        ] {
            let db = sample_db(config);
            assert!(!db.is_empty());
            let json = db.to_json();
            let loaded = ShortLivedSet::from_json(&json).expect("parse own output");
            assert_eq!(loaded.config(), db.config());
            assert_eq!(loaded.threshold(), db.threshold());
            assert_eq!(loaded.len(), db.len());
            for site in db.iter() {
                assert!(loaded.predicts(site));
            }
        }
    }

    #[test]
    fn json_is_deterministic() {
        let a = sample_db(SiteConfig::default()).to_json();
        let b = sample_db(SiteConfig::default()).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = ShortLivedSet::empty(SiteConfig::size_only(), 1234);
        let loaded = ShortLivedSet::from_json(&db.to_json()).expect("parse");
        assert!(loaded.is_empty());
        assert_eq!(loaded.threshold(), 1234);
    }

    #[test]
    fn rejects_malformed_documents() {
        let good = sample_db(SiteConfig::default()).to_json();
        for bad in [
            "",
            "{",
            "[]",
            "{\"format\": \"something-else\", \"version\": 1}",
            "{\"format\": \"lifepred-predictor\", \"version\": 2}",
            "{\"format\": \"lifepred-predictor\", \"version\": 1, \"policy\": \"bogus\", \
             \"size_rounding\": 4, \"threshold\": 1, \"sites\": []}",
            "{\"format\": \"lifepred-predictor\", \"version\": 1, \"policy\": \"complete\", \
             \"size_rounding\": 4, \"threshold\": 1, \"sites\": [\"not a key\"]}",
            "{\"format\": \"lifepred-predictor\", \"version\": 1, \"policy\": \"complete\", \
             \"size_rounding\": 4, \"threshold\": 1, \"sites\": [\"S 8\"]}",
            "{\"format\": \"lifepred-predictor\", \"version\": 1, \"policy\": \"complete\", \
             \"size_rounding\": 4, \"threshold\": -3, \"sites\": []}",
            "{\"format\": \"lifepred-predictor\", \"version\": 1, \"policy\": \"complete\", \
             \"size_rounding\": 4, \"threshold\": 1.5, \"sites\": []}",
            "{\"format\": \"lifepred-predictor\", \"version\": 1.0, \"policy\": \"complete\", \
             \"size_rounding\": 4, \"threshold\": 1, \"sites\": []}",
        ] {
            assert!(ShortLivedSet::from_json(bad).is_err(), "accepted: {bad}");
        }
        // Truncations of a valid document must error, never panic.
        // (Trim first: cutting only the cosmetic trailing newline
        // leaves a complete document.)
        let good = good.trim_end();
        for cut in 0..good.len() {
            assert!(ShortLivedSet::from_json(&good[..cut]).is_err());
        }
    }
}
