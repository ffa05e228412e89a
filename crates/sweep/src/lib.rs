//! Design-space sweep engine for the lifetime-prediction testbed.
//!
//! The paper's evaluation is a grid: programs × predictors ×
//! thresholds × site policies (Tables 4–9). This crate runs that grid
//! as a first-class object:
//!
//! * [`GridSpec`] — a declarative JSON grid spec, expanded into
//!   [`CellConfig`] cells ([`spec`]);
//! * [`ResultStore`] — a content-addressed on-disk cache keyed by
//!   trace identity + canonical cell config, with crash-safe atomic
//!   writes ([`store`]);
//! * [`run_sweep`] — a dependency-aware work-stealing scheduler that
//!   trains once per database and recomputes only dirty cells
//!   ([`engine`]);
//! * [`render_table`] / [`render_csv`] / [`render_json`] /
//!   [`diff_reports`] — deterministic paper-style renders and exports
//!   ([`table`]);
//! * [`Server`] — a dependency-free blocking HTTP/1.1 endpoint
//!   exposing metrics and sweep control ([`serve`]).
//!
//! # Examples
//!
//! ```no_run
//! use lifepred_sweep::{run_sweep, CancelFlag, GridSpec, ResultStore, SweepOptions};
//!
//! let spec = GridSpec {
//!     traces: vec!["traces/cfrac.lpt".into()],
//!     ..GridSpec::default()
//! };
//! let store = ResultStore::open("results/sweep-cache").unwrap();
//! let outcome = run_sweep(
//!     &spec,
//!     &store,
//!     &SweepOptions { threads: 4, want_metrics: false },
//!     &CancelFlag::new(),
//!     None,
//! )
//! .unwrap();
//! println!("{}", lifepred_sweep::render_table(&outcome));
//! ```

#![warn(missing_docs)]

pub mod cell;
pub mod engine;
pub mod http;
pub mod serve;
pub mod spec;
pub mod store;
pub mod table;

pub use cell::{run_cell, simulate_file, train_for, SimBackend, SimOutput, TrainKey, TrainedDb};
pub use engine::{run_sweep, CancelFlag, CellOutcome, SweepOptions, SweepOutcome, SweepStats};
pub use serve::{install_shutdown_handlers, Server, ServerConfig};
pub use spec::{Backend, CellConfig, GridSpec, MAX_CELLS, SPEC_SCHEMA};
pub use store::{
    cell_key, trace_identity, CellKey, CellResult, ResultStore, TraceIdentity, RESULT_SCHEMA,
};
pub use table::{diff_reports, render_csv, render_json, render_table, REPORT_SCHEMA};
