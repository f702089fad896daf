//! # simcore — shared substrate for the Gravit CUDA-optimization reproduction
//!
//! This crate holds the pieces every other crate in the workspace leans on:
//!
//! * [`vec3`] — a small `f32` 3-vector, the currency of the N-body code.
//! * [`crc`] — CRC-32 (IEEE) for integrity-protecting on-disk artifacts
//!   (checkpoints, recordings) against truncation and bit rot.
//! * [`par`] — the one parallel primitive: an index-ordered map over scoped
//!   worker threads.
//! * [`rng`] — deterministic pseudo-random number generation (SplitMix64 and
//!   Xoshiro256++) plus sampling helpers. We implement these ourselves rather
//!   than depending on `rand` so that every workload, kernel run and timing
//!   experiment in the reproduction is bit-reproducible from a `u64` seed,
//!   independent of external crate version churn.
//! * [`stats`] — summary statistics and least-squares fitting, used by the
//!   timing extrapolation and by the benchmark harness.
//! * [`table`] — markdown/CSV table rendering for the experiment binaries.
//! * [`units`] — cycle/time/byte quantities and pretty-printing.
//!
//! Nothing in here knows about GPUs or gravity; it is deliberately the
//! dependency-free bottom of the stack.

#![warn(missing_docs)]

pub mod crc;
pub mod par;
pub mod rng;
pub mod stats;
pub mod table;
pub mod units;
pub mod vec3;

pub use crc::crc32;
pub use rng::{Rng64, SplitMix64, Xoshiro256pp};
pub use stats::{geometric_mean, linear_fit, percentile, Histogram, Summary};
pub use table::Table;
pub use units::{format_bytes, format_duration_s, Cycles};
pub use vec3::Vec3;
