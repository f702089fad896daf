//! # gpu-kernels — the paper's CUDA kernels, in the gpu-sim IR
//!
//! Two kernel families, both parameterized by [`particle_layouts::Layout`]:
//!
//! * [`membench`] — the stripped-down read kernels of Sec. III: per
//!   particle, load the whole record under the layout's access pattern, sum
//!   the values (to keep the loads alive), and measure the elapsed cycles
//!   with `clock()`. These regenerate Figures 10 and 11.
//! * [`banks`] — a shared-memory bank-conflict microbenchmark (Sec. I-A's
//!   serialization rule, made measurable);
//! * [`barnes_hut`] — the GPU tree-traversal kernel the paper rules out in
//!   Sec. I-D, built anyway (divergent While loop, shared-memory stacks) so
//!   the O(n²)-vs-tree trade-off can be measured;
//! * [`integrate`] — the on-device Euler step (`v += a·dt; p += v·dt`),
//!   which touches the cold velocity group and round-trips the ride-along
//!   words of the vector layouts;
//! * [`force`] — the tiled O(n²) far-field force kernel of Sec. IV
//!   (structurally the GPU Gems 3 ch. 31 kernel the paper's port follows):
//!   each thread owns one particle; the block stages K source particles in
//!   shared memory per tile; the innermost loop accumulates softened
//!   pairwise accelerations. Unrolling, invariant code motion and block-size
//!   tuning are applied via the `gpu_sim::ir::passes` pipeline, giving the
//!   paper's optimization ladder (Sec. IV + Fig. 12).
//!
//! Two advisors read the force kernel:
//!
//! * [`unroll_advisor`] — the Sec. IV-A loop-unrolling analysis: the one
//!   unroll sweep (measured per-element instruction budgets, Eq. 3
//!   `speedup ≈ P₁/P₂`, register demand) plus occupancy and cost-model
//!   feedback, and a recommended factor;
//! * [`pipeline`] — the full ladder applied to the force kernel, each
//!   step's layout traffic, instruction budget, registers and occupancy
//!   (the programmatic form of Fig. 12's levels).
//!
//! The force kernel is *functionally validated* against the `nbody` CPU
//! solver — bit-for-bit, because both sides use the same operation order
//! (see `nbody::model::accel_one_exact`).

#![warn(missing_docs)]

pub mod banks;
pub mod barnes_hut;
pub mod chunk;
pub mod force;
pub mod integrate;
pub mod lintset;
pub mod membench;
pub mod pipeline;
pub mod synthset;
pub mod unroll_advisor;
pub mod verifyset;

pub use chunk::{build_chunk_force_kernel, chunk_force_params};
pub use force::{build_force_kernel, force_params, ForceKernelConfig, OptLevel};
pub use integrate::{build_integrate_kernel, integrate_params};
pub use membench::{build_membench_kernel, MembenchConfig};
