//! Experiment runners that regenerate every table and figure of the
//! paper.
//!
//! Each `table*` / `fig*` function is self-contained: it builds its
//! workload from seeds, runs the relevant pipeline pieces, and returns a
//! printable report plus structured numbers. The [`reproduce`](../reproduce)
//! binary dispatches on experiment id; its `--quick` flag runs the same
//! runners with smaller workloads.
//!
//! Run `cargo run -p seaice-bench --release --bin reproduce -- all` to
//! regenerate everything (release strongly recommended — the training
//! experiments are compute-bound).

pub mod common;
pub mod figures;
pub mod tables;
pub mod thickness;

pub use common::ExperimentOutput;
