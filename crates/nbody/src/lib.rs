//! # nbody — the physics substrate of the Gravit reproduction
//!
//! Gravit (Sec. I-B/I-C of the paper) is a Newtonian gravity simulator with
//! two far-field force algorithms: the O(n log n) Barnes–Hut tree code it
//! uses on CPUs, and the O(n²) all-pairs sum that maps perfectly onto a GPU.
//! This crate implements both, plus the supporting machinery:
//!
//! * [`model`] — the softened force law shared by every implementation
//!   (including the simulated GPU kernels, which must match it bit-for-bit);
//! * [`direct`] — O(n²) all-pairs solvers: serial, multi-threaded, and a
//!   cache-blocked variant mirroring the GPU tiling order;
//! * [`barnes_hut`] — octree construction, centers of mass, opening-angle (θ)
//!   traversal (recursive and iterative — the paper notes the recursion is
//!   what makes the tree code hostile to CC-1.x CUDA);
//! * [`integrator`] — Euler and leapfrog (KDK) time stepping;
//! * [`energy`] — conservation diagnostics used by the test suite;
//! * [`spawn`] — deterministic workload generators (uniform ball, Plummer
//!   sphere, rotating disk, colliding galaxies) standing in for Gravit's
//!   spawn scripts.

#![warn(missing_docs)]

pub mod barnes_hut;
pub mod direct;
pub mod energy;
pub mod integrator;
pub mod model;
pub mod spawn;

pub use barnes_hut::Octree;
pub use direct::{accelerations, accelerations_par};
pub use integrator::{step_euler, step_leapfrog};
pub use model::{Bodies, ForceParams};
