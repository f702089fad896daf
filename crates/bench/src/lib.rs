//! # bench — the harness that regenerates every table and figure
//!
//! One module per experiment family (see DESIGN.md §4 for the experiment
//! index):
//!
//! * [`membench_harness`] — Figures 10 and 11 (memory-layout microbenchmark
//!   under the three driver models);
//! * [`gravit_harness`] — Figure 12 (end-to-end Gravit frame times across
//!   problem sizes and optimization levels) and the abstract's 1.27×/87×
//!   summary;
//! * [`tables`] — the unroll sweep (Sec. IV-A), the occupancy ladder, the
//!   per-half-warp transaction counts (Figs. 3/5/7/9) and the
//!   access-frequency grouping ablation;
//! * [`report`] — writing results as markdown (stdout) + CSV
//!   (`results/*.csv`);
//! * [`gate`] — flag lookup for the bins that take options.
//!
//! Binaries under `src/bin/` are thin wrappers over these modules, so the
//! experiments are also callable as a library (the integration tests do).

#![warn(missing_docs)]

pub mod gate;
pub mod gravit_harness;
pub mod membench_harness;
pub mod report;
pub mod tables;
