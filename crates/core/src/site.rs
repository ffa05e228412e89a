//! Allocation-site identity: what the predictor keys on.

use lifepred_trace::{AllocationRecord, ChainId, ChainTable, FnId, RecordSource};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;

/// How much of the birth context identifies an allocation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SitePolicy {
    /// The complete call-chain with recursion cycles eliminated
    /// (gprof-style), plus the object size. The paper's "∞" case.
    #[default]
    Complete,
    /// The last `N` callers (no cycle elimination — matching the
    /// paper, whose ∞ row can therefore predict *less* than length-7),
    /// plus the object size.
    LastN(usize),
    /// Carter's call-chain encryption: the XOR of per-function 16-bit
    /// ids over the whole raw chain, plus the object size. Constant
    /// per-call cost, but distinct chains may collide.
    Encrypted,
    /// Object size alone (the paper's Table 5 baseline).
    SizeOnly,
}

impl fmt::Display for SitePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SitePolicy::Complete => write!(f, "complete"),
            SitePolicy::LastN(n) => write!(f, "len-{n}"),
            SitePolicy::Encrypted => write!(f, "cce"),
            SitePolicy::SizeOnly => write!(f, "size-only"),
        }
    }
}

impl SitePolicy {
    /// Parses the textual form produced by [`Display`](fmt::Display):
    /// `complete`, `len-N`, `cce` or `size-only`.
    ///
    /// Returns `None` on anything else.
    pub fn parse(text: &str) -> Option<SitePolicy> {
        match text {
            "complete" => Some(SitePolicy::Complete),
            "cce" => Some(SitePolicy::Encrypted),
            "size-only" => Some(SitePolicy::SizeOnly),
            _ => {
                let n = text.strip_prefix("len-")?.parse().ok()?;
                Some(SitePolicy::LastN(n))
            }
        }
    }
}

/// Full site-identity configuration.
///
/// `size_rounding` rounds object sizes before they become part of the
/// site key. The paper rounds to 4 bytes so that training sites map
/// onto test-run sites ("rounding to a larger multiple of two reduced
/// the mapping effectiveness").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteConfig {
    /// Which part of the call context identifies the site.
    pub policy: SitePolicy,
    /// Sizes are rounded up to a multiple of this before keying
    /// (0 or 1 disables rounding).
    pub size_rounding: u32,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            policy: SitePolicy::Complete,
            size_rounding: 4,
        }
    }
}

impl SiteConfig {
    /// A length-N sub-chain configuration with the default rounding.
    pub fn last_n(n: usize) -> Self {
        SiteConfig {
            policy: SitePolicy::LastN(n),
            ..SiteConfig::default()
        }
    }

    /// The call-chain-encryption configuration with default rounding.
    pub fn encrypted() -> Self {
        SiteConfig {
            policy: SitePolicy::Encrypted,
            ..SiteConfig::default()
        }
    }

    /// The size-only configuration (Table 5).
    pub fn size_only() -> Self {
        SiteConfig {
            policy: SitePolicy::SizeOnly,
            ..SiteConfig::default()
        }
    }

    /// Applies this configuration's size rounding.
    pub fn round_size(&self, size: u32) -> u32 {
        if self.size_rounding <= 1 {
            return size;
        }
        let r = self.size_rounding;
        size.div_ceil(r) * r
    }
}

/// The identity of an allocation site under some [`SiteConfig`].
///
/// Keys are self-contained (they own their frame lists) so they can be
/// compared across traces and serialized into site databases.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SiteKey {
    /// A call-chain (outermost first) plus rounded size.
    Chain {
        /// Frames identifying the site, outermost first.
        frames: Vec<FnId>,
        /// Rounded object size.
        size: u32,
    },
    /// An XOR-encrypted chain key plus rounded size.
    Encrypted {
        /// The 16-bit XOR key over the raw chain.
        key: u16,
        /// Rounded object size.
        size: u32,
    },
    /// Size alone.
    Size {
        /// Rounded object size.
        size: u32,
    },
}

impl SiteKey {
    /// The rounded size component of the key.
    pub fn size(&self) -> u32 {
        match self {
            SiteKey::Chain { size, .. }
            | SiteKey::Encrypted { size, .. }
            | SiteKey::Size { size } => *size,
        }
    }

    /// Encodes the key as a single text line (see [`SiteKey::decode`]).
    pub fn encode(&self) -> String {
        match self {
            SiteKey::Chain { frames, size } => {
                let mut s = String::from("C ");
                if frames.is_empty() {
                    s.push('-');
                }
                for (i, f) in frames.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&f.index().to_string());
                }
                s.push_str(&format!(" {size}"));
                s
            }
            SiteKey::Encrypted { key, size } => format!("E {key} {size}"),
            SiteKey::Size { size } => format!("S {size}"),
        }
    }

    /// A stable 64-bit fingerprint of the key: FNV-1a over the variant
    /// discriminant and fields.
    ///
    /// This is the integer identity consumers that can't carry the full
    /// key use — e.g. the online learner in `lifepred-adaptive`, which
    /// keys its per-site state by `u64`. It is deterministic across
    /// runs for the same interned function ids; as with any 64-bit
    /// hash, distinct keys may collide.
    pub fn fingerprint(&self) -> u64 {
        const SEED: u64 = 0xcbf2_9ce4_8422_2325;
        match self {
            SiteKey::Chain { frames, size } => {
                let mut h = fnv1a(SEED, &[1]);
                for f in frames {
                    h = fnv1a(h, &f.index().to_le_bytes());
                }
                fnv1a(h, &size.to_le_bytes())
            }
            SiteKey::Encrypted { key, size } => {
                let h = fnv1a(fnv1a(SEED, &[2]), &key.to_le_bytes());
                fnv1a(h, &size.to_le_bytes())
            }
            SiteKey::Size { size } => fnv1a(fnv1a(SEED, &[3]), &size.to_le_bytes()),
        }
    }

    /// Decodes a key produced by [`SiteKey::encode`].
    ///
    /// Returns `None` on malformed input.
    pub fn decode(line: &str) -> Option<SiteKey> {
        let mut parts = line.split_whitespace();
        match parts.next()? {
            "C" => {
                let frames_str = parts.next()?;
                let size: u32 = parts.next()?.parse().ok()?;
                let frames = if frames_str == "-" {
                    Vec::new()
                } else {
                    frames_str
                        .split(',')
                        .map(|t| t.parse::<u32>().ok().map(FnId::from_index))
                        .collect::<Option<Vec<_>>>()?
                };
                Some(SiteKey::Chain { frames, size })
            }
            "E" => {
                let key: u16 = parts.next()?.parse().ok()?;
                let size: u32 = parts.next()?.parse().ok()?;
                Some(SiteKey::Encrypted { key, size })
            }
            "S" => {
                let size: u32 = parts.next()?.parse().ok()?;
                Some(SiteKey::Size { size })
            }
            _ => None,
        }
    }
}

/// The dense identity of an allocation site within one
/// [`SiteExtractor`], numbered from 0 in first-seen order. Unlike a
/// [`SiteKey`], an id means nothing to another extractor (or trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

/// Resolves trace records to allocation sites, memoizing per-site work.
///
/// A trace has millions of records but few distinct chains and sites:
/// chain processing (cycle elimination, truncation, encryption) runs
/// once per [`ChainId`], after which a record costs one lookup of two
/// integers; a [`SiteKey`] is only built when one is asked for.
#[derive(Debug)]
pub struct SiteExtractor<'t> {
    config: SiteConfig,
    chains: &'t ChainTable,
    /// The distinct processed chains, as keys at size 0.
    templates: Vec<SiteKey>,
    template_ids: HashMap<SiteKey, u32>,
    /// Each chain's template, indexed by `ChainId` (ids are dense).
    template_of: Vec<Option<u32>>,
    /// Each chain's latest rounded size and its site, indexed by
    /// `ChainId`: most chains allocate one size, and skip the hashing.
    latest: Vec<Option<(u32, SiteId)>>,
    /// Each site's template and rounded size, indexed by `SiteId`.
    sites: Vec<(u32, u32)>,
    ids: HashMap<(u32, u32), SiteId>,
}

impl<'t> SiteExtractor<'t> {
    /// Creates an extractor over a trace's chain table — all of a trace
    /// it reads, so records may stream past without a whole
    /// [`Trace`](lifepred_trace::Trace) ever being materialized.
    pub fn from_chains(chains: &'t ChainTable, config: SiteConfig) -> Self {
        SiteExtractor {
            config,
            chains,
            templates: Vec::new(),
            template_ids: HashMap::new(),
            template_of: vec![None; chains.len()],
            latest: vec![None; chains.len()],
            sites: Vec::new(),
            ids: HashMap::new(),
        }
    }

    /// The site of one allocation record. A site not seen before gets
    /// the next id, so a table indexed by id grows by pushing.
    pub fn site_id(&mut self, record: &AllocationRecord) -> SiteId {
        let size = self.config.round_size(record.size);
        let chain = record.chain.index() as usize;
        if let Some((_, id)) = self.latest[chain].filter(|&(latest, _)| latest == size) {
            return id;
        }
        let site = (self.template(record.chain), size);
        let id = *self.ids.entry(site).or_insert_with(|| {
            self.sites.push(site);
            SiteId(u32::try_from(self.sites.len() - 1).expect("more than u32::MAX sites"))
        });
        self.latest[chain] = Some((size, id));
        id
    }

    /// The key of a site [`site_id`](Self::site_id) has handed out.
    pub fn key(&self, id: SiteId) -> SiteKey {
        let (template, size) = self.sites[id.0 as usize];
        self.key_at(template, size)
    }

    /// Computes the site key for one allocation record.
    pub fn site_of(&mut self, record: &AllocationRecord) -> SiteKey {
        let template = self.template(record.chain);
        self.key_at(template, self.config.round_size(record.size))
    }

    fn key_at(&self, template: u32, rounded: u32) -> SiteKey {
        let mut key = self.templates[template as usize].clone();
        let (SiteKey::Chain { size, .. }
        | SiteKey::Encrypted { size, .. }
        | SiteKey::Size { size }) = &mut key;
        *size = rounded;
        key
    }

    /// Distinct chains can process to the same template.
    fn template(&mut self, id: ChainId) -> u32 {
        if let Some(template) = self.template_of[id.index() as usize] {
            return template;
        }
        let chain = self.chains.get(id);
        let key = match self.config.policy {
            SitePolicy::Complete => SiteKey::Chain {
                frames: chain.without_cycles().frames().to_vec(),
                size: 0,
            },
            SitePolicy::LastN(n) => SiteKey::Chain {
                frames: chain.sub_chain(n).frames().to_vec(),
                size: 0,
            },
            SitePolicy::Encrypted => SiteKey::Encrypted {
                key: chain.encryption_key(),
                size: 0,
            },
            SitePolicy::SizeOnly => SiteKey::Size { size: 0 },
        };
        let template = *self.template_ids.entry(key).or_insert_with_key(|key| {
            self.templates.push(key.clone());
            self.templates.len() as u32 - 1
        });
        self.template_of[id.index() as usize] = Some(template);
        template
    }
}

/// The records walk: resolves each record of `source` to its site under
/// `config`, in record order. `enter` makes a site's state on its first
/// record; `visit` sees that state, the record and its lifetime for
/// every record. Returns each site's key and final state, or the first
/// error `source.records` yields.
pub(crate) fn walk_sites<T, R: Borrow<AllocationRecord>, E>(
    source: RecordSource<'_, impl Iterator<Item = Result<R, E>>>,
    config: SiteConfig,
    mut enter: impl FnMut(&SiteKey) -> T,
    mut visit: impl FnMut(&mut T, &AllocationRecord, u64),
) -> Result<Vec<(SiteKey, T)>, E> {
    let mut extractor = SiteExtractor::from_chains(source.chains, config);
    let mut table = Vec::new();
    for record in source.records {
        let record = record?;
        let record = record.borrow();
        let id = extractor.site_id(record);
        if id.0 as usize == table.len() {
            table.push(enter(&extractor.key(id)));
        }
        let lifetime = record.lifetime(source.end_clock);
        visit(&mut table[id.0 as usize], record, lifetime);
    }
    let keys = (0..).map(|id| extractor.key(SiteId(id)));
    Ok(keys.zip(table).collect())
}

/// One value per record of `source`, in record order: `per_site` of the
/// record's site, evaluated once per distinct site.
///
/// # Errors
///
/// The first error `source.records` yields.
pub fn map_sites<T: Copy, R: Borrow<AllocationRecord>, E>(
    source: RecordSource<'_, impl Iterator<Item = Result<R, E>>>,
    config: SiteConfig,
    per_site: impl FnMut(&SiteKey) -> T,
) -> Result<Vec<T>, E> {
    let mut out = Vec::with_capacity(source.records.size_hint().0);
    walk_sites(source, config, per_site, |value, _, _| out.push(*value))?;
    Ok(out)
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifepred_trace::{Trace, TraceSession};

    fn tiny_trace() -> Trace {
        let s = TraceSession::new("t");
        {
            let _a = s.enter("a");
            let _b = s.enter("b");
            s.alloc(7);
            {
                let _b2 = s.enter("b"); // recursion
                s.alloc(7);
            }
        }
        s.finish()
    }

    #[test]
    fn size_rounding() {
        let cfg = SiteConfig::default();
        assert_eq!(cfg.round_size(7), 8);
        assert_eq!(cfg.round_size(8), 8);
        assert_eq!(cfg.round_size(1), 4);
        assert_eq!(cfg.round_size(0), 0);
        let none = SiteConfig {
            size_rounding: 1,
            ..cfg
        };
        assert_eq!(none.round_size(7), 7);
    }

    #[test]
    fn complete_policy_eliminates_recursion() {
        let trace = tiny_trace();
        let mut ex = SiteExtractor::from_chains(trace.chains(), SiteConfig::default());
        let k1 = ex.site_of(&trace.records()[0]);
        let k2 = ex.site_of(&trace.records()[1]);
        // After cycle elimination both allocations are at chain a>b
        // with size 8 — the same site.
        assert_eq!(k1, k2);
    }

    #[test]
    fn distinct_chains_of_one_site_share_an_id() {
        let trace = tiny_trace();
        let [r0, r1] = trace.records() else {
            panic!("two records")
        };
        assert_ne!(r0.chain, r1.chain);
        let mut ex = SiteExtractor::from_chains(trace.chains(), SiteConfig::default());
        assert_eq!(ex.site_id(r0), SiteId(0));
        assert_eq!(ex.site_id(r1), SiteId(0));
        let mut ex = SiteExtractor::from_chains(trace.chains(), SiteConfig::last_n(2));
        assert_eq!((ex.site_id(r0), ex.site_id(r1)), (SiteId(0), SiteId(1)));
        assert_eq!(ex.key(SiteId(1)), ex.site_of(r1));
    }

    #[test]
    fn map_sites_asks_once_per_site() {
        let trace = tiny_trace();
        let mut asked = 0;
        let sizes = map_sites((&trace).into(), SiteConfig::default(), |key| {
            asked += 1;
            key.size()
        });
        assert_eq!(sizes, Ok::<_, std::convert::Infallible>(vec![8, 8]));
        assert_eq!(asked, 1);
    }

    #[test]
    fn last_n_keeps_recursion() {
        let trace = tiny_trace();
        let mut ex = SiteExtractor::from_chains(trace.chains(), SiteConfig::last_n(2));
        let k1 = ex.site_of(&trace.records()[0]);
        let k2 = ex.site_of(&trace.records()[1]);
        // Sub-chains are a>b vs b>b — distinct sites.
        assert_ne!(k1, k2);
    }

    #[test]
    fn size_only_collapses_everything() {
        let trace = tiny_trace();
        let mut ex = SiteExtractor::from_chains(trace.chains(), SiteConfig::size_only());
        let k1 = ex.site_of(&trace.records()[0]);
        let k2 = ex.site_of(&trace.records()[1]);
        assert_eq!(k1, k2);
        assert_eq!(k1, SiteKey::Size { size: 8 });
    }

    #[test]
    fn encrypted_policy_produces_16_bit_keys() {
        let trace = tiny_trace();
        let mut ex = SiteExtractor::from_chains(trace.chains(), SiteConfig::encrypted());
        let k = ex.site_of(&trace.records()[0]);
        assert!(matches!(k, SiteKey::Encrypted { .. }));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let keys = vec![
            SiteKey::Chain {
                frames: vec![FnId::from_index(1), FnId::from_index(9)],
                size: 16,
            },
            SiteKey::Encrypted { key: 1234, size: 8 },
            SiteKey::Size { size: 4096 },
        ];
        for k in keys {
            let line = k.encode();
            assert_eq!(SiteKey::decode(&line), Some(k), "line {line}");
        }
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        let chain = SiteKey::Chain {
            frames: vec![FnId::from_index(1), FnId::from_index(9)],
            size: 16,
        };
        assert_eq!(chain.fingerprint(), chain.clone().fingerprint());
        let encrypted = SiteKey::Encrypted { key: 1, size: 16 };
        let size_only = SiteKey::Size { size: 16 };
        // Same size, different variants: distinct fingerprints.
        assert_ne!(chain.fingerprint(), encrypted.fingerprint());
        assert_ne!(chain.fingerprint(), size_only.fingerprint());
        assert_ne!(encrypted.fingerprint(), size_only.fingerprint());
        // Size perturbation changes the fingerprint.
        let bigger = SiteKey::Size { size: 20 };
        assert_ne!(size_only.fingerprint(), bigger.fingerprint());
        // Frame order matters.
        let swapped = SiteKey::Chain {
            frames: vec![FnId::from_index(9), FnId::from_index(1)],
            size: 16,
        };
        assert_ne!(chain.fingerprint(), swapped.fingerprint());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(SiteKey::decode(""), None);
        assert_eq!(SiteKey::decode("X 1 2"), None);
        assert_eq!(SiteKey::decode("C notanumber 4"), None);
    }

    #[test]
    fn policy_display() {
        assert_eq!(SitePolicy::Complete.to_string(), "complete");
        assert_eq!(SitePolicy::LastN(4).to_string(), "len-4");
        assert_eq!(SitePolicy::Encrypted.to_string(), "cce");
        assert_eq!(SitePolicy::SizeOnly.to_string(), "size-only");
    }

    #[test]
    fn policy_parse_roundtrip() {
        for p in [
            SitePolicy::Complete,
            SitePolicy::LastN(7),
            SitePolicy::Encrypted,
            SitePolicy::SizeOnly,
        ] {
            assert_eq!(SitePolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(SitePolicy::parse("len-abc"), None);
        assert_eq!(SitePolicy::parse("bogus"), None);
        assert_eq!(SitePolicy::parse(""), None);
    }
}
