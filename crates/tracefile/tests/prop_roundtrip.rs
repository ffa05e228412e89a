//! Property tests for the `.lpt` format: encode/decode is lossless on
//! arbitrary traces, and damaged bytes always surface as errors —
//! never as panics or silently wrong traces.

use lifepred_trace::{ObjectId, Trace, TraceSession};
use lifepred_tracefile::{trace_from_bytes, trace_to_vec};
use proptest::prelude::*;

/// A random program shape: sites that allocate fixed-size objects,
/// hold them for a while, touch them, and sometimes leak them.
#[derive(Debug, Clone)]
struct SyntheticSite {
    name: usize,
    depth: usize,
    size: u32,
    hold: usize,
    count: usize,
    refs: u64,
    leak: bool,
}

fn sites() -> impl Strategy<Value = Vec<SyntheticSite>> {
    proptest::collection::vec(
        (
            (0usize..5, 1usize..4, 1u32..5000),
            (0usize..40, 1usize..40, 0u64..5, 0u32..8),
        )
            .prop_map(
                |((name, depth, size), (hold, count, refs, leak))| SyntheticSite {
                    name,
                    depth,
                    size,
                    hold,
                    count,
                    refs,
                    leak: leak == 0,
                },
            ),
        1..10,
    )
}

/// The function names, indexed by `SyntheticSite::name` and then by
/// frame depth.
const NAMES: [[&str; 3]; 5] = [
    ["fn0_0", "fn0_1", "fn0_2"],
    ["fn1_0", "fn1_1", "fn1_2"],
    ["fn2_0", "fn2_1", "fn2_2"],
    ["fn3_0", "fn3_1", "fn3_2"],
    ["fn4_0", "fn4_1", "fn4_2"],
];

/// Allocates under `site.depth` nested function frames. Recursion (not
/// a Vec of guards) so the call guards drop in LIFO order.
fn alloc_nested(s: &TraceSession, site: &SyntheticSite, d: usize) -> ObjectId {
    if d == site.depth {
        s.alloc(site.size)
    } else {
        let _g = s.enter(NAMES[site.name][d]);
        alloc_nested(s, site, d + 1)
    }
}

/// Runs the synthetic program: round-robin over sites, nested enters,
/// delayed frees, and immortal objects from "leaky" sites.
fn run_synthetic(spec: &[SyntheticSite]) -> Trace {
    let s = TraceSession::new("prop-synthetic");
    let mut pending: Vec<(usize, ObjectId)> = Vec::new();
    let mut remaining: Vec<usize> = spec.iter().map(|x| x.count).collect();
    let mut step = 0usize;
    loop {
        let mut any = false;
        for (i, site) in spec.iter().enumerate() {
            if remaining[i] == 0 {
                continue;
            }
            any = true;
            remaining[i] -= 1;
            let id = alloc_nested(&s, site, 0);
            if site.refs > 0 {
                s.touch(id, site.refs);
            }
            if !site.leak {
                pending.push((step + site.hold, id));
            }
            step += 1;
        }
        pending.retain(|&(due, id)| {
            if due <= step {
                s.free(id);
                false
            } else {
                true
            }
        });
        if !any {
            break;
        }
    }
    for (_, id) in pending {
        s.free(id);
    }
    // Leaked objects stay live to the end: the trace has immortals.
    s.finish()
}

/// Structural equality over everything the format persists.
fn assert_traces_equal(a: &Trace, b: &Trace) {
    assert_eq!(a.name(), b.name());
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.end_clock(), b.end_clock());
    assert_eq!(a.end_seq(), b.end_seq());
    assert_eq!(a.records(), b.records());
    assert_eq!(a.event_keys(), b.event_keys());
    let (ra, rb) = (a.registry(), b.registry());
    assert_eq!(
        ra.names().collect::<Vec<_>>(),
        rb.names().collect::<Vec<_>>()
    );
    assert_eq!(a.chains().len(), b.chains().len());
    for ((ia, ca), (ib, cb)) in a.chains().iter().zip(b.chains().iter()) {
        assert_eq!(ia, ib);
        assert_eq!(ca, cb);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_default_cases(32))]

    /// Trace → bytes → Trace is the identity, for any trace.
    #[test]
    fn roundtrip_is_lossless(spec in sites()) {
        let trace = run_synthetic(&spec);
        let bytes = trace_to_vec(&trace).expect("encode");
        let back = trace_from_bytes(&bytes).expect("decode own output");
        assert_traces_equal(&trace, &back);
        // Encoding is deterministic: same trace, same bytes.
        prop_assert_eq!(&bytes, &trace_to_vec(&back).expect("re-encode"));
    }

    /// Any single corrupted byte is detected: decoding returns an
    /// error (and in particular does not panic or return a trace).
    #[test]
    fn corrupted_byte_is_detected(
        spec in sites(),
        pos in 0usize..1 << 20,
        flip in (1u16..256).prop_map(|x| x as u8),
    ) {
        let trace = run_synthetic(&spec);
        let mut bytes = trace_to_vec(&trace).expect("encode");
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(
            trace_from_bytes(&bytes).is_err(),
            "flip {flip:#x} at {pos}/{} went undetected",
            bytes.len()
        );
    }

    /// Any strict prefix of a valid file is an error, never a panic.
    #[test]
    fn truncation_is_detected(spec in sites(), cut in 0usize..1 << 20) {
        let trace = run_synthetic(&spec);
        let bytes = trace_to_vec(&trace).expect("encode");
        let cut = cut % bytes.len();
        prop_assert!(trace_from_bytes(&bytes[..cut]).is_err());
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(
        bytes in proptest::collection::vec((0u16..256).prop_map(|x| x as u8), 0..512),
    ) {
        let _ = trace_from_bytes(&bytes);
    }

    /// Garbage behind a valid header never panics either (it reaches
    /// the section decoders instead of failing the magic check).
    #[test]
    fn garbage_with_valid_header_never_panics(
        bytes in proptest::collection::vec((0u16..256).prop_map(|x| x as u8), 0..512),
    ) {
        let mut framed = vec![0x89, b'L', b'P', b'T', 4, 0, 5, 0];
        framed.extend_from_slice(&bytes);
        let _ = trace_from_bytes(&framed);
    }
}
