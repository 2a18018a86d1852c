//! # jessy-bench — the benchmark harness
//!
//! One `cargo bench` target per table and figure of the paper's evaluation section
//! (see `benches/`), plus the extension benches and quality ablations of the design
//! choices called out in DESIGN.md.
//!
//! This library holds the shared harness: problem-size scaling, workload drivers at a
//! given sampling rate, the paper's N/A logic for rate columns, and plain-text table
//! rendering.
//!
//! Scale selection: the `JESSY_SCALE` environment variable (`paper` or `small`,
//! default `paper` for tables run via `cargo bench`). Scaled-down runs preserve every
//! structural property; absolute byte/time magnitudes shrink.


#![warn(missing_docs)]
pub mod harness;
pub mod table;

pub use harness::{
    bh_cfg, dominant_class, rate_is_na, rate_ladder, run_tracked, run_tracked_tcm, scale,
    sor_cfg, water_cfg, RateRun, Scale, PAGE_FAULT_NS,
};
pub use table::TextTable;
