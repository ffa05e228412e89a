//! Design-space sweep engine for the lifetime-prediction testbed.
//!
//! The paper's evaluation is a grid: programs × predictors ×
//! thresholds × site policies (Tables 4–9). This crate runs that grid
//! as a first-class object:
//!
//! * [`GridSpec`] — a declarative JSON grid spec, expanded into
//!   [`CellConfig`] cells;
//! * [`ResultStore`] — a content-addressed on-disk cache keyed by
//!   trace identity + canonical cell config, with crash-safe atomic
//!   writes;
//! * [`run_sweep`] — trains once per database, then recomputes only
//!   dirty cells, each phase fanned out with [`run_jobs`];
//! * [`render_table`] / [`render_csv`] / [`render_json`] /
//!   [`diff_reports`] — deterministic paper-style renders and exports;
//! * [`simulate_file`] — the one file-level simulation behind both a
//!   grid cell and `lifepred simulate`;
//! * [`run_jobs`] — the workspace's one thread pool: independent jobs
//!   on scoped threads, results in input order.
//!
//! # Examples
//!
//! ```no_run
//! use lifepred_sweep::{run_sweep, CancelFlag, GridSpec, ResultStore};
//!
//! let spec = GridSpec {
//!     traces: vec!["traces/cfrac.lpt".into()],
//!     ..GridSpec::default()
//! };
//! let store = ResultStore::open("results/sweep-cache").unwrap();
//! let outcome = run_sweep(
//!     &spec,
//!     &store,
//!     4,
//!     &CancelFlag::new(),
//!     None,
//! )
//! .unwrap();
//! println!("{}", lifepred_sweep::render_table(&outcome));
//! ```

#![warn(missing_docs)]

mod cell;
mod driver;
mod engine;
mod spec;
mod store;
mod table;

pub use cell::{simulate_file, SimOutput};
pub use driver::run_jobs;
pub use engine::{
    install_shutdown_handlers, run_sweep, CancelFlag, CellOutcome, SweepOutcome, SweepStats,
};
pub use spec::{Backend, CellConfig, GridSpec};
pub use store::{CellKey, CellResult, ResultStore};
pub use table::{diff_reports, render_csv, render_json, render_table};
