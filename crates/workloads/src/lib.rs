//! The five allocation-intensive workloads of the paper, rebuilt.
//!
//! The paper instruments CFRAC, ESPRESSO, GAWK, GhostScript and PERL —
//! 1990s C programs we cannot ship — so this crate provides
//! from-scratch Rust mini-implementations of the same program classes,
//! each instrumented against a
//! [`lifepred_trace::TraceSession`]:
//!
//! * [`cfrac`] — continued-fraction integer factoring over our own
//!   arbitrary-precision arithmetic;
//! * [`espresso`] — a cube-based two-level logic minimizer
//!   (expand / irredundant / reduce loop);
//! * `gawk` — an AWK-subset interpreter (lexer, parser, evaluator,
//!   field splitting, associative arrays);
//! * `ghost` — a PostScript-subset interpreter (scanner, operand and
//!   dictionary stacks, path construction and flattening, NODISPLAY
//!   rasterization, a glyph cache with large bitmaps);
//! * `perl` — a report-extraction language (line processing, hashes,
//!   sorting, a small regex engine, paragraph filling).
//!
//! A sixth family extends the set beyond the paper's batch jobs:
//!
//! * [`server`] — a deterministic high-QPS request/response server
//!   (per-connection buffers, TTL-churned session caches, slab bursts,
//!   bimodal short/long lifetimes). Its simulation doubles as the
//!   streaming generator behind `lifepred gen`
//!   ([`server::synth::generate_lpt`]), which writes 10⁸-event `.lpt`
//!   files without materializing a trace.
//!
//! Every workload offers at least two deterministic, generated inputs:
//! input 0 trains the predictor, the last input is the larger test run
//! (the paper reports results for the largest input). Each workload
//! brackets its functions with call guards (`TraceSession::enter`) so
//! allocation sites carry realistic layered call-chains
//! (`xmalloc`-style wrappers included, deliberately).
//!
//! # Examples
//!
//! ```
//! use lifepred_workloads::{all_workloads, record};
//! use lifepred_trace::shared_registry;
//!
//! let workloads = all_workloads();
//! let cfrac = &workloads[0];
//! let trace = record(cfrac.as_ref(), 0, shared_registry());
//! assert!(trace.stats().total_objects > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cfrac;
pub mod espresso;
mod gawk;
mod ghost;
mod input;
mod perl;
pub mod regexlite;
pub mod server;

use lifepred_trace::{SharedRegistry, Trace, TraceSession};
use std::hash::{BuildHasherDefault, DefaultHasher};

/// `std`'s map with a fixed-key SipHash: one drop order, so one
/// recording. Its keys come from the workloads' own generated inputs.
type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// A traced program with a fixed set of generated inputs. `Send`, so a
/// batch of workloads can be handed to worker threads.
pub trait Workload: Send {
    /// Short program name (matches the paper's, lower-case).
    fn name(&self) -> &'static str;

    /// One-paragraph description for Table 1.
    fn description(&self) -> &'static str;

    /// Names of the available inputs, smallest (training) first.
    /// Always at least two, so *true prediction* is meaningful.
    fn inputs(&self) -> Vec<String>;

    /// Runs the program on input `input`, recording into `session`.
    ///
    /// # Panics
    ///
    /// Panics if `input >= self.inputs().len()`.
    fn run(&self, input: usize, session: &TraceSession);
}

/// All six workloads: the paper's five in its order, then `server`.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(cfrac::Cfrac),
        Box::new(espresso::Espresso),
        Box::new(gawk::Gawk),
        Box::new(ghost::Ghost),
        Box::new(perl::Perl),
        Box::new(server::Server),
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    all_workloads().into_iter().find(|w| w.name() == name)
}

/// Runs `workload` on input `input` under a fresh session sharing
/// `registry`, returning the finished trace.
///
/// Sharing one registry between the training and test run of a
/// workload is what lets sites map across runs (true prediction).
pub fn record(workload: &dyn Workload, input: usize, registry: SharedRegistry) -> Trace {
    let session = TraceSession::with_registry(
        &format!("{}:{}", workload.name(), workload.inputs()[input]),
        registry,
    );
    workload.run(input, &session);
    session.finish()
}

/// The training/test pair for a workload: input 0 and the last input.
pub fn train_test_traces(workload: &dyn Workload, registry: SharedRegistry) -> (Trace, Trace) {
    let n = workload.inputs().len();
    assert!(n >= 2, "workloads must provide at least two inputs");
    let train = record(workload, 0, registry.clone());
    let test = record(workload, n - 1, registry);
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_workloads_in_paper_order_then_server() {
        let names: Vec<&str> = all_workloads().iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec!["cfrac", "espresso", "gawk", "ghost", "perl", "server"]
        );
    }

    #[test]
    fn every_workload_has_two_inputs() {
        for w in all_workloads() {
            assert!(w.inputs().len() >= 2, "{} must have >= 2 inputs", w.name());
            assert!(!w.description().is_empty());
        }
    }

    #[test]
    fn by_name_finds_workloads() {
        assert!(by_name("gawk").is_some());
        assert!(by_name("nosuch").is_none());
    }
}
