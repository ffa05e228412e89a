//! The deterministic request/response simulation.
//!
//! One simulation drives both faces of the `server` workload: recorded
//! into a [`TraceSession`](lifepred_trace::TraceSession) it is the
//! sixth workload family, and replayed into the streaming sinks of
//! [`synth`](super::synth) it generates multi-gigabyte `.lpt` files
//! without materializing a trace. That dual use imposes one hard rule:
//! the allocation/free sequence must be a pure function of
//! [`SimConfig`] — same config, same seed, byte-identical behavior on
//! every pass. The simulation therefore keeps all of its state in
//! index-addressed `Vec`s (never iterating a hash map) and draws
//! randomness from its own splitmix64 generator rather than an
//! external crate whose stream might shift under us. `run_sim` is
//! generic over its `AllocSink`, so each pass is compiled with its
//! sink's calls inlined.

use lifepred_tracefile::TraceFileError;

/// Where the simulation's allocations land.
///
/// A token is the sink's own handle for a live object, handed back to
/// its [`free`]: the census's is the object's size, so that free needs
/// no lookup. Only the events pass (and the session) use birth indices:
/// the `n`-th [`alloc`] (zero-based) returns `n`, which is how the event
/// stream's birth-order back-references come for free. Errors are
/// [`TraceFileError`] so streaming sinks can propagate I/O failures.
///
/// [`alloc`]: AllocSink::alloc
/// [`free`]: AllocSink::free
pub(crate) trait AllocSink {
    /// The handle [`alloc`](AllocSink::alloc) returns for an object.
    type Token: Copy + Default;
    /// Records an allocation of `size` bytes at `site`.
    fn alloc(&mut self, site: Site, size: u32) -> Result<Self::Token, TraceFileError>;

    /// Records the death of a previously allocated object.
    fn free(&mut self, token: Self::Token) -> Result<(), TraceFileError>;
}

/// The allocation sites of the server, each with a fixed call chain.
///
/// Six sites spanning the lifetime spectrum: per-request buffers die
/// within their request, log records die at the next batch flush,
/// session state dies on TTL expiry, connection buffers live until
/// teardown, and the routing table is immortal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// Per-connection read buffer, reallocated as requests outgrow it.
    ConnBuf,
    /// Request parse scratch; dies at end of request (bimodal sizes).
    RequestParse,
    /// Response body; dies at end of request (bimodal sizes).
    ResponseBody,
    /// Session object, dies when its TTL expires.
    SessionObj,
    /// One entry in a session's cache, dies with the session.
    SessionEntry,
    /// Uniform slab-burst object (batch work), dies at end of burst.
    SlabBurst,
    /// Access-log record, freed at the next batch flush.
    LogRecord,
    /// The routing table, allocated once and never freed.
    RouteTable,
}

/// Every site, in a fixed order (indexable by `site as usize`).
pub(crate) const SITES: &[Site] = &[
    Site::ConnBuf,
    Site::RequestParse,
    Site::ResponseBody,
    Site::SessionObj,
    Site::SessionEntry,
    Site::SlabBurst,
    Site::LogRecord,
    Site::RouteTable,
];

impl Site {
    /// The call chain under which this site allocates, outermost first.
    pub fn frames(self) -> &'static [&'static str] {
        match self {
            Site::ConnBuf => &["server_main", "conn_loop", "grow_conn_buf", "xmalloc"],
            Site::RequestParse => &["server_main", "conn_loop", "parse_request", "xmalloc"],
            Site::ResponseBody => &["server_main", "conn_loop", "render_response", "xmalloc"],
            Site::SessionObj => &["server_main", "conn_loop", "session_create", "xmalloc"],
            Site::SessionEntry => &[
                "server_main",
                "conn_loop",
                "session_create",
                "cache_insert",
                "xmalloc",
            ],
            Site::SlabBurst => &["server_main", "batch_worker", "slab_fill", "xmalloc"],
            Site::LogRecord => &["server_main", "conn_loop", "access_log", "xmalloc"],
            Site::RouteTable => &["server_main", "load_routes", "xmalloc"],
        }
    }
}

/// Shape of one simulated serving run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Requests to serve.
    pub requests: u64,
    /// Concurrent connections the requests are spread over.
    pub connections: usize,
    /// Session-cache slots (each churns on a TTL).
    pub sessions: usize,
    /// Seed for the simulation's private RNG.
    pub seed: u64,
}

impl SimConfig {
    /// A config sized so the event stream lands near `target_events`
    /// (the exact count comes out of the census pass).
    pub fn for_events(target_events: u64, seed: u64) -> SimConfig {
        SimConfig {
            requests: (target_events / EVENTS_PER_REQUEST_ESTIMATE).max(1),
            connections: 64,
            sessions: 512,
            seed,
        }
    }
}

/// Long-run average events per request (allocs + frees), used to turn
/// an event target into a request count.
pub(crate) const EVENTS_PER_REQUEST_ESTIMATE: u64 = 11;

/// A touched session is evicted with probability 1/this.
const SESSION_TTL: u64 = 64;
/// Cache entries carried by each session.
const SESSION_ENTRIES: usize = 4;
/// A slab burst fires every this many requests...
const BURST_EVERY: u64 = 16;
/// ...allocating this many uniform objects.
const BURST_OBJECTS: usize = 32;
/// Log records are freed in batches of this size.
const LOG_BATCH: usize = 32;
/// Connection read buffers start here and double as needed.
const CONN_BUF_MIN: u32 = 1 << 10;
/// Hard cap on a connection buffer (and on bimodal long tails).
const CONN_BUF_MAX: u32 = 1 << 16;

/// splitmix64 — tiny, deterministic, and ours, so the stream can never
/// shift under a dependency upgrade.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A live session: its object token plus its cache-entry tokens.
struct Session<T> {
    object: T,
    entries: [T; SESSION_ENTRIES],
}

/// Runs the serving simulation, feeding every allocation and free to
/// `sink`.
///
/// # Errors
///
/// Only errors surfaced by the sink (I/O on the streaming paths).
pub(crate) fn run_sim<S: AllocSink>(
    config: &SimConfig,
    sink: &mut S,
) -> Result<(), TraceFileError> {
    let mut rng = Rng(config.seed ^ 0x5eed_5eed_5eed_5eed);
    let connections = config.connections.max(1);
    let sessions = config.sessions.max(1);

    // Immortal: the routing table, sized to the deployment.
    sink.alloc(Site::RouteTable, 16 * 1024)?;

    // Per-connection read buffers live until teardown, growing by
    // doubling when a request outgrows them.
    let mut conn_caps: Vec<u32> = Vec::with_capacity(connections);
    let mut conn_bufs = Vec::with_capacity(connections);
    for _ in 0..connections {
        conn_caps.push(CONN_BUF_MIN);
        conn_bufs.push(sink.alloc(Site::ConnBuf, CONN_BUF_MIN)?);
    }

    let mut slots: Vec<Option<Session<S::Token>>> = (0..sessions).map(|_| None).collect();
    let mut log_batch = Vec::with_capacity(LOG_BATCH);

    for request in 0..config.requests {
        // Bimodal request size: mostly small, a heavy tail of larges.
        let request_bytes = if rng.below(10) < 8 {
            64 + rng.below(448) as u32
        } else {
            2_048 + rng.below(u64::from(CONN_BUF_MAX / 4)) as u32
        };

        // Grow the connection's read buffer if the request outgrew it:
        // capacities double from CONN_BUF_MIN, so the new one is the
        // request's next power of two (requests stay under the cap).
        let conn = rng.below(connections as u64) as usize;
        if conn_caps[conn] < request_bytes {
            sink.free(conn_bufs[conn])?;
            conn_caps[conn] = request_bytes.next_power_of_two().min(CONN_BUF_MAX);
            conn_bufs[conn] = sink.alloc(Site::ConnBuf, conn_caps[conn])?;
        }

        // Parse scratch and response body: born and dead in-request.
        let parse = sink.alloc(Site::RequestParse, request_bytes.max(64))?;
        let response_bytes = if rng.below(10) < 9 {
            128 + rng.below(1_900) as u32
        } else {
            8_192 + rng.below(u64::from(CONN_BUF_MAX - 8_192)) as u32
        };
        let response = sink.alloc(Site::ResponseBody, response_bytes)?;

        // Session cache with TTL churn: each touch of an occupied
        // slot expires it with probability 1/TTL, so sessions live
        // ~TTL·sessions requests — the long-lived population.
        let slot = rng.below(sessions as u64) as usize;
        if slots[slot].is_some() && rng.below(SESSION_TTL) == 0 {
            let dead = slots[slot].take().expect("checked is_some");
            for entry in dead.entries {
                sink.free(entry)?;
            }
            sink.free(dead.object)?;
        }
        if slots[slot].is_none() {
            let object = sink.alloc(Site::SessionObj, 256 + rng.below(256) as u32)?;
            let mut entries = [S::Token::default(); SESSION_ENTRIES];
            for entry in &mut entries {
                *entry = sink.alloc(Site::SessionEntry, 48 + rng.below(80) as u32)?;
            }
            slots[slot] = Some(Session { object, entries });
        }

        // Slab-shaped burst: a batch job allocates a run of uniform
        // objects and frees them together, FIFO.
        if request % BURST_EVERY == 0 {
            let mut slab = [S::Token::default(); BURST_OBJECTS];
            for obj in &mut slab {
                *obj = sink.alloc(Site::SlabBurst, 48)?;
            }
            for obj in slab {
                sink.free(obj)?;
            }
        }

        // Access log, flushed (freed) a batch at a time.
        log_batch.push(sink.alloc(Site::LogRecord, 80 + rng.below(120) as u32)?);
        if log_batch.len() == LOG_BATCH {
            for token in log_batch.drain(..) {
                sink.free(token)?;
            }
        }

        sink.free(response)?;
        sink.free(parse)?;
    }

    // Teardown: drain the log, evict every session, close every
    // connection. The routing table is deliberately leaked (immortal).
    for token in log_batch.drain(..) {
        sink.free(token)?;
    }
    for slot in &mut slots {
        if let Some(dead) = slot.take() {
            for entry in dead.entries {
                sink.free(entry)?;
            }
            sink.free(dead.object)?;
        }
    }
    for token in conn_bufs {
        sink.free(token)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts events and checks token discipline.
    #[derive(Default)]
    struct Counter {
        births: u64,
        frees: u64,
        live: std::collections::HashSet<u64>,
    }

    impl AllocSink for Counter {
        type Token = u64;

        fn alloc(&mut self, _site: Site, size: u32) -> Result<u64, TraceFileError> {
            assert!(size > 0);
            let token = self.births;
            self.births += 1;
            self.live.insert(token);
            Ok(token)
        }

        fn free(&mut self, token: u64) -> Result<(), TraceFileError> {
            assert!(self.live.remove(&token), "free of dead token {token}");
            self.frees += 1;
            Ok(())
        }
    }

    #[test]
    fn the_sim_is_deterministic() {
        let config = SimConfig {
            requests: 2_000,
            connections: 8,
            sessions: 64,
            seed: 7,
        };
        let mut log_a = Vec::new();
        let mut log_b = Vec::new();
        struct Recorder<'a>(&'a mut Vec<(bool, u64, u32)>, u64);
        impl AllocSink for Recorder<'_> {
            type Token = u64;
            fn alloc(&mut self, site: Site, size: u32) -> Result<u64, TraceFileError> {
                self.0.push((true, site as u64, size));
                self.1 += 1;
                Ok(self.1 - 1)
            }
            fn free(&mut self, token: u64) -> Result<(), TraceFileError> {
                self.0.push((false, token, 0));
                Ok(())
            }
        }
        run_sim(&config, &mut Recorder(&mut log_a, 0)).expect("run a");
        run_sim(&config, &mut Recorder(&mut log_b, 0)).expect("run b");
        assert_eq!(log_a, log_b);
        assert!(log_a.len() as u64 > config.requests);
    }

    #[test]
    fn tokens_are_never_double_freed_and_most_die() {
        let config = SimConfig {
            requests: 5_000,
            connections: 16,
            sessions: 128,
            seed: 42,
        };
        let mut counter = Counter::default();
        run_sim(&config, &mut counter).expect("run");
        // Only the routing table survives teardown.
        assert_eq!(counter.live.len(), 1);
        assert_eq!(counter.births, counter.frees + 1);
        // The event-count estimate used by `for_events` is honest to
        // within 20% on a run this long.
        let events = counter.births + counter.frees;
        let estimate = config.requests * EVENTS_PER_REQUEST_ESTIMATE;
        let err = events.abs_diff(estimate) as f64 / events as f64;
        assert!(err < 0.2, "estimate off by {:.0}%", err * 100.0);
    }
}
