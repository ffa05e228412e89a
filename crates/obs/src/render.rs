//! Snapshot rendering: the JSON document, and its parser.
//!
//! The renderer is deterministic — the snapshot's name-sorted vectors
//! drive iteration order, floats use Rust's shortest-roundtrip
//! `Display`, and histogram buckets serialize sparsely (index →
//! count) so a 64-bucket histogram with three occupied buckets costs
//! three entries. Determinism is load-bearing: the golden-file test
//! diffs this string byte-for-byte to pin the metric schema.
//!
//! The crate stays dependency-free, so the JSON emitter is hand-rolled
//! (same style as `lifepred-core`'s persistence layer) and
//! [`Snapshot::from_json`], built on [`crate::json::parse`], accepts
//! exactly the documents [`Snapshot::to_json`] writes — plus
//! ordinary JSON whitespace and key reordering, so hand-edited files
//! still load.

use std::fmt::Write as _;

use crate::hist::{HistogramSnapshot, HIST_BUCKETS};
use crate::json::{parse, ParseError, Value};
use crate::registry::Snapshot;
use crate::timeline::EpochSample;

/// Schema tag written into every JSON document.
pub(crate) const JSON_SCHEMA: &str = "lifepred-metrics-v1";

/// Formats an `f64` for JSON: shortest roundtrip form,
/// never NaN/inf (clamped to 0, which no percentage field can
/// legitimately produce as a lie).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn push_sample_json(out: &mut String, indent: &str, s: &EpochSample) {
    let _ = write!(
        out,
        "{indent}{{\"epoch\": {}, \"clock_bytes\": {}, \"generation\": {}, \
         \"short_sites\": {}, \"sites\": {}, \"live_bytes\": {}, \
         \"max_heap_bytes\": {}, \"utilization_pct\": {}, \
         \"fragmentation_pct\": {}, \"mispredictions\": {}, \"demotions\": {}}}",
        s.epoch,
        s.clock_bytes,
        s.generation,
        s.short_sites,
        s.sites,
        s.live_bytes,
        s.max_heap_bytes,
        fmt_f64(s.utilization_pct),
        fmt_f64(s.fragmentation_pct),
        s.mispredictions,
        s.demotions,
    );
}

fn push_hist_json(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": {{",
        h.count, h.sum, h.max
    );
    let mut first = true;
    for (i, &b) in h.buckets.iter().enumerate() {
        if b == 0 {
            continue;
        }
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "\"{i}\": {b}");
    }
    out.push_str("}}");
}

/// Writes one `"section": {...}` object of [`Snapshot::to_json`]: an
/// entry a line, each value written by `value`.
fn push_section<T>(
    out: &mut String,
    section: &str,
    entries: &[(String, T)],
    value: impl Fn(&mut String, &T),
) {
    let _ = write!(out, "  \"{section}\": {{");
    for (i, (name, v)) in entries.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(out, "{sep}    \"{name}\": ");
        value(out, v);
    }
    out.push_str(if entries.is_empty() { "}" } else { "\n  }" });
}

impl Snapshot {
    /// Renders the snapshot as a self-describing JSON document (the
    /// `simulate --metrics-out` format).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"schema\": \"{JSON_SCHEMA}\",");
        let number = |out: &mut String, v: &u64| {
            let _ = write!(out, "{v}");
        };
        push_section(&mut out, "counters", &self.counters, number);
        out.push_str(",\n");
        push_section(&mut out, "gauges", &self.gauges, number);
        out.push_str(",\n");
        push_section(&mut out, "histograms", &self.histograms, push_hist_json);
        out.push_str(",\n");
        push_section(&mut out, "timelines", &self.timelines, |out, samples| {
            out.push('[');
            for (j, s) in samples.iter().enumerate() {
                out.push_str(if j == 0 { "\n" } else { ",\n" });
                push_sample_json(out, "      ", s);
            }
            out.push_str(if samples.is_empty() { "]" } else { "\n    ]" });
        });
        out.push_str("\n}\n");
        out
    }

    /// Parses a document written by [`Snapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Snapshot, ParseError> {
        let value = parse(text)?;
        let top = value
            .as_obj()
            .ok_or_else(|| ParseError::new("top level is not an object", 0))?;
        let mut snap = Snapshot::default();
        for (key, val) in top {
            match key.as_str() {
                "schema" => {
                    let got = val.as_str().unwrap_or("<non-string>");
                    if got != JSON_SCHEMA {
                        return Err(ParseError::new(
                            format!("unsupported schema `{got}` (want `{JSON_SCHEMA}`)"),
                            0,
                        ));
                    }
                }
                "counters" => snap.counters = parse_u64_map(val, "counters")?,
                "gauges" => snap.gauges = parse_u64_map(val, "gauges")?,
                "histograms" => {
                    for (name, hv) in obj_of(val, "histograms")? {
                        snap.histograms.push((name.clone(), parse_hist(hv, name)?));
                    }
                }
                "timelines" => {
                    for (name, tv) in obj_of(val, "timelines")? {
                        let arr = tv.as_arr().ok_or_else(|| {
                            ParseError::new(format!("timeline `{name}` is not an array"), 0)
                        })?;
                        let samples = arr
                            .iter()
                            .map(|s| parse_sample(s, name))
                            .collect::<Result<Vec<_>, _>>()?;
                        snap.timelines.push((name.clone(), samples));
                    }
                }
                _ => {} // Forward compatibility: ignore unknown sections.
            }
        }
        Ok(snap)
    }
}

fn obj_of<'v>(val: &'v Value, what: &str) -> Result<&'v [(String, Value)], ParseError> {
    val.as_obj()
        .ok_or_else(|| ParseError::new(format!("`{what}` is not an object"), 0))
}

fn parse_u64_map(val: &Value, what: &str) -> Result<Vec<(String, u64)>, ParseError> {
    obj_of(val, what)?
        .iter()
        .map(|(name, v)| {
            v.as_u64()
                .map(|n| (name.clone(), n))
                .ok_or_else(|| ParseError::new(format!("`{what}.{name}` is not a u64"), 0))
        })
        .collect()
}

fn field_u64(obj: &[(String, Value)], field: &str, ctx: &str) -> Result<u64, ParseError> {
    obj.iter()
        .find(|(k, _)| k == field)
        .and_then(|(_, v)| v.as_u64())
        .ok_or_else(|| ParseError::new(format!("`{ctx}` missing u64 field `{field}`"), 0))
}

fn field_f64(obj: &[(String, Value)], field: &str, ctx: &str) -> Result<f64, ParseError> {
    obj.iter()
        .find(|(k, _)| k == field)
        .and_then(|(_, v)| v.as_f64())
        .ok_or_else(|| ParseError::new(format!("`{ctx}` missing number field `{field}`"), 0))
}

fn parse_hist(val: &Value, name: &str) -> Result<HistogramSnapshot, ParseError> {
    let obj = obj_of(val, name)?;
    let mut h = HistogramSnapshot {
        count: field_u64(obj, "count", name)?,
        sum: field_u64(obj, "sum", name)?,
        max: field_u64(obj, "max", name)?,
        ..HistogramSnapshot::empty()
    };
    let buckets = obj
        .iter()
        .find(|(k, _)| k == "buckets")
        .and_then(|(_, v)| v.as_obj())
        .ok_or_else(|| ParseError::new(format!("histogram `{name}` missing buckets object"), 0))?;
    for (idx, count) in buckets {
        let i: usize = idx
            .parse()
            .ok()
            .filter(|&i| i < HIST_BUCKETS)
            .ok_or_else(|| {
                ParseError::new(format!("histogram `{name}` bad bucket index `{idx}`"), 0)
            })?;
        h.buckets[i] = count.as_u64().ok_or_else(|| {
            ParseError::new(format!("histogram `{name}` bucket `{idx}` not a u64"), 0)
        })?;
    }
    Ok(h)
}

fn parse_sample(val: &Value, name: &str) -> Result<EpochSample, ParseError> {
    let obj = obj_of(val, name)?;
    Ok(EpochSample {
        epoch: field_u64(obj, "epoch", name)?,
        clock_bytes: field_u64(obj, "clock_bytes", name)?,
        generation: field_u64(obj, "generation", name)?,
        short_sites: field_u64(obj, "short_sites", name)?,
        sites: field_u64(obj, "sites", name)?,
        live_bytes: field_u64(obj, "live_bytes", name)?,
        max_heap_bytes: field_u64(obj, "max_heap_bytes", name)?,
        utilization_pct: field_f64(obj, "utilization_pct", name)?,
        fragmentation_pct: field_f64(obj, "fragmentation_pct", name)?,
        mispredictions: field_u64(obj, "mispredictions", name)?,
        demotions: field_u64(obj, "demotions", name)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn demo_snapshot() -> Snapshot {
        let reg = Registry::new();
        reg.add("sim_allocs_total", 5);
        reg.add("sim_frees_total", 4);
        reg.set("live_bytes", 96);
        let mut h = HistogramSnapshot::empty();
        for v in [8u64, 8, 16, 300] {
            h.record(v);
        }
        reg.absorb("object_size_bytes", &h);
        reg.push(
            "epochs",
            &[EpochSample {
                epoch: 0,
                clock_bytes: 65536,
                generation: 1,
                short_sites: 3,
                sites: 5,
                live_bytes: 96,
                max_heap_bytes: 128,
                utilization_pct: 75.5,
                fragmentation_pct: 2.25,
                mispredictions: 1,
                demotions: 0,
            }],
        );
        reg.snapshot()
    }

    #[test]
    fn json_roundtrips() {
        let snap = demo_snapshot();
        let json = snap.to_json();
        let back = Snapshot::from_json(&json).expect("parses");
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = Snapshot::default();
        let back = Snapshot::from_json(&snap.to_json()).expect("parses");
        assert_eq!(back, snap);
        assert!(back.is_empty());
    }

    #[test]
    fn json_has_schema_tag() {
        assert!(demo_snapshot()
            .to_json()
            .contains("\"schema\": \"lifepred-metrics-v1\""));
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let doc = "{\"schema\": \"other-v9\", \"counters\": {}}";
        let err = Snapshot::from_json(doc).unwrap_err();
        assert!(err.msg.contains("unsupported schema"), "{err}");
    }

    #[test]
    fn malformed_json_reports_position() {
        let err = Snapshot::from_json("{\"counters\": {").unwrap_err();
        assert!(err.to_string().contains("at byte"), "{err}");
    }

    #[test]
    fn sparse_buckets_only_emit_occupied() {
        let json = demo_snapshot().to_json();
        // Bucket 4 covers 8..=15 (two observations), bucket 9 covers
        // 256..=511 (one observation); empty buckets are absent.
        assert!(json.contains("\"4\": 2"));
        assert!(json.contains("\"9\": 1"));
        assert!(!json.contains("\"0\": 0"));
    }

    #[test]
    fn unknown_sections_are_ignored() {
        let doc = format!(
            "{{\"schema\": \"{JSON_SCHEMA}\", \"counters\": {{\"a_total\": 1}}, \"future\": [1, 2]}}"
        );
        let snap = Snapshot::from_json(&doc).expect("parses");
        assert_eq!(snap.counter("a_total"), Some(1));
    }
}
