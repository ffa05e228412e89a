//! Content-addressed on-disk result cache.
//!
//! Every completed grid cell persists as one small JSON object file
//! under `<root>/objects/<hh>/<16-hex-key>.json`. The key is a 64-bit
//! FNV-1a hash over
//!
//! 1. the result schema tag (format changes invalidate everything),
//! 2. the **trace identity** — 64-bit FNV-1a plus byte length of the
//!    `.lpt` file, so re-recording a trace dirties exactly its cells.
//!    Deliberately *not* CRC-32: `.lpt` sections carry CRC-32
//!    trailers of the same polynomial, and the CRC residue property
//!    (`crc(data ‖ crc_le(data))` is a constant independent of
//!    `data`) makes a whole-file CRC of such a file nearly
//!    content-blind — two different traces of equal length hash
//!    identically. FNV-1a is not linear over GF(2), so embedded
//!    checksums cannot cancel out. And
//! 3. the cell's [`canonical_string`](crate::CellConfig::canonical_string)
//!    — the axes the backend actually consults.
//!
//! Writes are crash-safe: the object is written to a temporary file
//! in the same directory, synced, then renamed into place. A reader
//! therefore sees either nothing or a complete object; a torn or
//! hand-corrupted file fails to parse and is treated as a miss (and
//! overwritten by the next run). There is no lock file — concurrent
//! writers of the same key race benignly, last rename wins, and both
//! wrote identical bytes-for-identical-measurement anyway.

use crate::spec::CellConfig;
use lifepred_obs::json::{self, Value};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// Schema tag of a cached cell-result document.
pub(crate) const RESULT_SCHEMA: &str = "lifepred-sweep-result-v1";

/// A cache key: 64-bit content hash, rendered as 16 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey(pub u64);

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identity of a trace file for cache-key purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceIdentity {
    /// 64-bit FNV-1a of the file bytes (see the module docs for why
    /// this is not a CRC).
    pub hash: u64,
    /// File length in bytes.
    pub len: u64,
}

/// Streams `path` once and returns its [`TraceIdentity`].
///
/// # Errors
///
/// Any I/O error opening or reading the file.
pub(crate) fn trace_identity(path: impl AsRef<Path>) -> io::Result<TraceIdentity> {
    let mut file = fs::File::open(path)?;
    let mut hash = Fnv64::new();
    let mut len = 0u64;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        hash.update(&buf[..n]);
        len += n as u64;
    }
    Ok(TraceIdentity {
        hash: hash.finish(),
        len,
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a.
struct Fnv64 {
    h: u64,
}

impl Fnv64 {
    fn new() -> Fnv64 {
        Fnv64 { h: FNV_OFFSET }
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.h
    }
}

/// 64-bit FNV-1a over `parts`, with a length prefix per part so
/// concatenation ambiguity cannot alias two different inputs.
fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut hash = Fnv64::new();
    for part in parts {
        hash.update(&(part.len() as u64).to_le_bytes());
        hash.update(part);
    }
    hash.finish()
}

/// Derives the cache key for `cell` given its trace's identity.
pub(crate) fn cell_key(identity: TraceIdentity, cell: &CellConfig) -> CellKey {
    CellKey(fnv1a64(&[
        RESULT_SCHEMA.as_bytes(),
        &identity.hash.to_le_bytes(),
        &identity.len.to_le_bytes(),
        cell.canonical_string().as_bytes(),
    ]))
}

/// The measurements one grid cell produced.
///
/// Percentages are stored as `f64` with the same shortest-roundtrip
/// formatting the metrics layer uses, so a result file re-parses to
/// exactly the struct that wrote it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellResult {
    /// Program name recorded in the trace.
    pub program: String,
    /// Allocations replayed.
    pub total_allocs: u64,
    /// Bytes allocated.
    pub total_bytes: u64,
    /// Allocations placed in the short-lived arena area.
    pub arena_allocs: u64,
    /// Bytes placed in the short-lived arena area.
    pub arena_bytes: u64,
    /// High-water heap footprint in bytes.
    pub max_heap_bytes: u64,
    /// Percent of allocations predicted (and placed) short-lived.
    pub short_alloc_pct: f64,
    /// Percent of bytes predicted (and placed) short-lived.
    pub short_byte_pct: f64,
    /// Percent of bytes wrongly predicted short-lived.
    pub error_byte_pct: f64,
    /// Online learner epochs (0 for other backends).
    pub epochs: u64,
    /// Wall-clock cost of computing this cell, in milliseconds.
    /// Informational only — never part of comparisons or renders that
    /// must be byte-stable.
    pub elapsed_ms: u64,
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl CellResult {
    /// Renders the result (echoing its cell config) as the stored
    /// JSON object document.
    pub(crate) fn to_json(&self, cell: &CellConfig) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{RESULT_SCHEMA}\",");
        let _ = writeln!(out, "  \"config\": {{");
        let _ = writeln!(out, "    \"trace\": \"{}\",", json::escape(&cell.trace));
        let _ = writeln!(out, "    \"backend\": \"{}\",", cell.backend);
        let _ = writeln!(out, "    \"policy\": \"{}\",", cell.policy);
        let _ = writeln!(out, "    \"rounding\": {},", cell.rounding);
        let _ = writeln!(out, "    \"threshold\": {},", cell.threshold);
        let _ = writeln!(out, "    \"epoch_bytes\": {},", cell.epoch_bytes());
        let _ = writeln!(out, "    \"arena\": \"{}\"", cell.arena);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"program\": \"{}\",", json::escape(&self.program));
        let _ = writeln!(out, "  \"metrics\": {{");
        let _ = writeln!(out, "    \"total_allocs\": {},", self.total_allocs);
        let _ = writeln!(out, "    \"total_bytes\": {},", self.total_bytes);
        let _ = writeln!(out, "    \"arena_allocs\": {},", self.arena_allocs);
        let _ = writeln!(out, "    \"arena_bytes\": {},", self.arena_bytes);
        let _ = writeln!(out, "    \"max_heap_bytes\": {},", self.max_heap_bytes);
        let _ = writeln!(
            out,
            "    \"short_alloc_pct\": {},",
            fmt_f64(self.short_alloc_pct)
        );
        let _ = writeln!(
            out,
            "    \"short_byte_pct\": {},",
            fmt_f64(self.short_byte_pct)
        );
        let _ = writeln!(
            out,
            "    \"error_byte_pct\": {},",
            fmt_f64(self.error_byte_pct)
        );
        let _ = writeln!(out, "    \"epochs\": {}", self.epochs);
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"elapsed_ms\": {}", self.elapsed_ms);
        out.push_str("}\n");
        out
    }

    /// Parses a stored object document.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a wrong schema tag, or a
    /// missing metric field.
    pub(crate) fn from_json(text: &str) -> Result<CellResult, String> {
        let doc = json::parse(text).map_err(|e| format!("result object: {e}"))?;
        let schema = doc.get("schema").and_then(Value::as_str).unwrap_or("");
        if schema != RESULT_SCHEMA {
            return Err(format!(
                "result object: unsupported schema `{schema}` (want `{RESULT_SCHEMA}`)"
            ));
        }
        let metrics = doc
            .get("metrics")
            .ok_or("result object: missing `metrics`")?;
        let u = |f: &str| -> Result<u64, String> {
            metrics
                .get(f)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("result object: missing u64 `metrics.{f}`"))
        };
        let fl = |f: &str| -> Result<f64, String> {
            metrics
                .get(f)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("result object: missing number `metrics.{f}`"))
        };
        Ok(CellResult {
            program: doc
                .get("program")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned(),
            total_allocs: u("total_allocs")?,
            total_bytes: u("total_bytes")?,
            arena_allocs: u("arena_allocs")?,
            arena_bytes: u("arena_bytes")?,
            max_heap_bytes: u("max_heap_bytes")?,
            short_alloc_pct: fl("short_alloc_pct")?,
            short_byte_pct: fl("short_byte_pct")?,
            error_byte_pct: fl("error_byte_pct")?,
            epochs: u("epochs")?,
            elapsed_ms: doc.get("elapsed_ms").and_then(Value::as_u64).unwrap_or(0),
        })
    }
}

/// The on-disk cache: open it once per sweep and share by reference.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating `root/objects`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ResultStore> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        Ok(ResultStore { root })
    }

    /// On-disk path of `key`'s object.
    pub(crate) fn object_path(&self, key: CellKey) -> PathBuf {
        let hex = key.to_string();
        self.root
            .join("objects")
            .join(&hex[..2])
            .join(format!("{}.json", &hex[2..]))
    }

    /// Loads the cached result under `key`. A missing, torn or
    /// corrupt object reads as `None` — a cache miss, never an error.
    pub(crate) fn load(&self, key: CellKey) -> Option<CellResult> {
        let text = fs::read_to_string(self.object_path(key)).ok()?;
        CellResult::from_json(&text).ok()
    }

    /// Persists `result` under `key` atomically: temp file in the
    /// destination directory, `sync_all`, rename.
    ///
    /// # Errors
    ///
    /// Any I/O error on the write, sync or rename.
    pub(crate) fn save(
        &self,
        key: CellKey,
        cell: &CellConfig,
        result: &CellResult,
    ) -> io::Result<()> {
        let path = self.object_path(key);
        let dir = path.parent().expect("object path has a parent");
        fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(".tmp-{key}-{}", std::process::id()));
        {
            let mut file = fs::File::create(&tmp)?;
            io::Write::write_all(&mut file, result.to_json(cell).as_bytes())?;
            file.sync_all()?;
        }
        match fs::rename(&tmp, &path) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Leave no temp droppings behind a failed rename.
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Number of objects currently stored (walks the tree; for CLI
    /// summaries, not hot paths).
    pub fn len(&self) -> usize {
        let mut n = 0;
        if let Ok(shards) = fs::read_dir(self.root.join("objects")) {
            for shard in shards.flatten() {
                if let Ok(objects) = fs::read_dir(shard.path()) {
                    n += objects
                        .flatten()
                        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                        .count();
                }
            }
        }
        n
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Backend;
    use lifepred_core::SitePolicy;
    use lifepred_heap::ArenaConfig;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "lifepred-sweep-store-{name}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn demo_cell() -> CellConfig {
        CellConfig {
            trace: "demo.lpt".into(),
            backend: Backend::Offline,
            policy: SitePolicy::Complete,
            rounding: 4,
            threshold: 32768,
            epoch: 0,
            arena: ArenaConfig::default(),
        }
    }

    fn demo_result() -> CellResult {
        CellResult {
            program: "demo".into(),
            total_allocs: 100,
            total_bytes: 6400,
            arena_allocs: 90,
            arena_bytes: 5000,
            max_heap_bytes: 8192,
            short_alloc_pct: 90.0,
            short_byte_pct: 78.125,
            error_byte_pct: 0.5,
            epochs: 0,
            elapsed_ms: 3,
        }
    }

    #[test]
    fn result_json_round_trips() {
        let r = demo_result();
        let back = CellResult::from_json(&r.to_json(&demo_cell())).expect("parses");
        assert_eq!(back, r);
    }

    #[test]
    fn save_then_load() {
        let dir = scratch("roundtrip");
        let store = ResultStore::open(&dir).expect("open");
        let key = CellKey(0xdead_beef_0123_4567);
        assert_eq!(store.load(key), None);
        store.save(key, &demo_cell(), &demo_result()).expect("save");
        assert_eq!(store.load(key), Some(demo_result()));
        assert_eq!(store.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_object_reads_as_miss() {
        let dir = scratch("corrupt");
        let store = ResultStore::open(&dir).expect("open");
        let key = CellKey(42);
        store.save(key, &demo_cell(), &demo_result()).expect("save");
        fs::write(store.object_path(key), "{\"schema\": \"torn").expect("corrupt");
        assert_eq!(store.load(key), None, "corrupt object must be a miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_depend_on_identity_and_config() {
        let id_a = TraceIdentity { hash: 1, len: 1000 };
        let id_b = TraceIdentity { hash: 2, len: 1000 };
        let cell = demo_cell();
        let other = CellConfig {
            threshold: 16384,
            ..demo_cell()
        };
        assert_ne!(cell_key(id_a, &cell), cell_key(id_b, &cell));
        assert_ne!(cell_key(id_a, &cell), cell_key(id_a, &other));
        assert_eq!(cell_key(id_a, &cell), cell_key(id_a, &demo_cell()));
    }

    /// Regression: `.lpt` sections end in CRC-32 trailers, and the
    /// CRC residue property makes the whole-file CRC-32 of two
    /// same-length traces collide even when their contents differ.
    /// The identity hash must still tell them apart.
    #[test]
    fn identity_distinguishes_crc_colliding_traces() {
        let dir = scratch("crc-collide");
        let make = |name: &str, salt: u32| {
            let s = lifepred_trace::TraceSession::new(name);
            {
                let _g = s.enter("churn");
                for _ in 0..200 {
                    let a = s.alloc(64 + salt);
                    s.free(a);
                }
            }
            let path = dir.join(format!("{name}.lpt"));
            lifepred_tracefile::save_trace(&path, &s.finish()).expect("save");
            path
        };
        // Same name length and event count → same file length; the
        // embedded section CRCs swallow the content difference from
        // the whole-file CRC-32, which is exactly why we don't use it.
        let a = make("alpha", 0);
        let b = make("gamma", 2);
        let ia = trace_identity(&a).expect("identity");
        let ib = trace_identity(&b).expect("identity");
        assert_eq!(ia.len, ib.len, "collision setup needs equal lengths");
        assert_ne!(ia, ib, "different traces must have different identities");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_identity_reflects_content() {
        let dir = scratch("identity");
        let a = dir.join("a.bin");
        let b = dir.join("b.bin");
        fs::write(&a, b"hello trace").expect("write");
        fs::write(&b, b"hello trace").expect("write");
        let ia = trace_identity(&a).expect("identity");
        let ib = trace_identity(&b).expect("identity");
        assert_eq!(ia, ib, "same bytes, same identity");
        fs::write(&b, b"hello trac3").expect("rewrite");
        assert_ne!(trace_identity(&b).expect("identity"), ia);
        let _ = fs::remove_dir_all(&dir);
    }
}
