//! # bench — the harness that regenerates every table and figure
//!
//! [`results`] is the registry of the paper's results: one entry per
//! `results/*.csv`, rendered by the `results` binary and checked against the
//! committed files by `tests/results.rs`. The entries draw on one module per
//! experiment family (see DESIGN.md §4 for the experiment index):
//!
//! * [`membench_harness`] — Figures 10 and 11 (memory-layout microbenchmark
//!   under the three driver models);
//! * [`gravit_harness`] — Figure 12 (end-to-end Gravit frame times across
//!   problem sizes and optimization levels) and the abstract's 1.27×/87×
//!   summary;
//! * [`tables`] — the occupancy ladder, the per-half-warp transaction counts
//!   (Figs. 3/5/7/9), the ablations and the analyzer cross-validations;
//! * [`report`] — writing results as markdown (stdout) + CSV
//!   (`results/*.csv`);
//! * [`gate`] — flag lookup for the soak bins (`chaos`, `fleet`).

#![warn(missing_docs)]

pub mod gate;
pub mod gravit_harness;
pub mod membench_harness;
pub mod report;
pub mod results;
pub mod tables;
