//! Component-level timing for the reader: where does a round go — the
//! open (header + section walk), the bulk CRC, the batch decode of the
//! events, or the chain column a predicting replay reads beside them?
//! Run against a generated trace:
//!
//! ```text
//! lifepred gen --events 10m -o /tmp/t.lpt
//! cargo run --release -p lifepred-tracefile --example decode_prof /tmp/t.lpt
//! ```

use lifepred_trace::{ChunkSource, EventChunk, TraceSource, POOLED_CHUNK_EVENTS};
use lifepred_tracefile::MappedTrace;
use std::time::Instant;

fn main() {
    let path = std::env::args()
        .nth(1)
        .expect("usage: decode_prof <trace.lpt>");
    let file_len = std::fs::metadata(&path).expect("stat").len();

    for round in 0..3 {
        let t = Instant::now();
        let unverified = MappedTrace::open_unverified(&path).expect("open");
        let open_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut chunk = EventChunk::with_capacity(POOLED_CHUNK_EVENTS);
        let mut source = unverified.events();
        let mut n = 0u64;
        while source.next_chunk(&mut chunk).expect("chunk") {
            n += chunk.len() as u64;
        }
        let decode_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let verified = MappedTrace::open(&path).expect("open verified");
        let crc_secs = t.elapsed().as_secs_f64() - open_secs;

        let t = Instant::now();
        let chain_ids = verified.chain_ids().expect("chain ids").count() as u64;
        let chain_ids_secs = t.elapsed().as_secs_f64();
        assert_eq!(chain_ids, verified.record_count());

        println!(
            "round {round}: open {:.1}ms, crc {:.1}ms ({:.2} GB/s), decode {:.1}ms \
             ({:.1}M ev/s), chain ids {:.1}ms ({:.1}M ids/s)",
            open_secs * 1e3,
            crc_secs * 1e3,
            file_len as f64 / crc_secs / 1e9,
            decode_secs * 1e3,
            n as f64 / decode_secs / 1e6,
            chain_ids_secs * 1e3,
            chain_ids as f64 / chain_ids_secs / 1e6,
        );
    }
}
