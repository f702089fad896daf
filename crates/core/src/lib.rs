//! # gravit-core — the paper's optimization techniques as a library
//!
//! This is the front end of the reproduction of *"CUDA Memory
//! Optimizations for Large Data-Structures in the Gravit Simulator"*
//! (Siegel, Ributzka, Li — ICPP 2009 workshops). It packages the paper's two
//! contributions as reusable components over the [`gpu_sim`] machine model,
//! and computes nothing the crates below it compute: a declared schema goes
//! through the same packer, pricing and passes the layout synthesizer uses.
//!
//! * [`layout_advisor`] — the Sec. IV three-step memory-layout procedure for
//!   structures larger than the 128-bit alignment boundary:
//!   **group** fields by access frequency, **split** groups into 64/128-bit
//!   alignable sub-structures, **arrange** the sub-structures in arrays
//!   (SoAoaS). Given a declared struct schema it produces the optimized
//!   layout plan plus the predicted per-half-warp transaction improvement.
//! * [`unroll_advisor`] — the Sec. IV-A loop-unrolling analysis: the one
//!   unroll sweep (measured per-element instruction budgets, Eq. 3
//!   `speedup ≈ P₁/P₂`, register demand) plus occupancy and cost-model
//!   feedback, and a recommended factor.
//! * [`lint`] — the layout and pass advice `kernel-lint` attaches to an
//!   analysis report, with the record schema taken from the report's
//!   buffer summaries.
//! * [`pipeline`] — applies the full ladder to the Gravit force kernel and
//!   reports each step (the programmatic form of Fig. 12's levels).
//!
//! Downstream crates (`gravit-app`, `bench`, the examples) use this crate as
//! their single entry point; the substrates are re-exported under
//! [`substrates`].
//!
//! ## Quickstart
//!
//! ```
//! use gravit_core::layout_advisor::{AccessFreq, FieldSpec, StructSchema};
//!
//! // Gravit's particle record, as the paper describes it.
//! let schema = StructSchema::new(vec![
//!     FieldSpec::scalar("px", AccessFreq::Hot),
//!     FieldSpec::scalar("py", AccessFreq::Hot),
//!     FieldSpec::scalar("pz", AccessFreq::Hot),
//!     FieldSpec::scalar("vx", AccessFreq::Cold),
//!     FieldSpec::scalar("vy", AccessFreq::Cold),
//!     FieldSpec::scalar("vz", AccessFreq::Cold),
//!     FieldSpec::scalar("mass", AccessFreq::Hot),
//! ]);
//! let plan = gravit_core::layout_advisor::optimize_layout(&schema);
//! // The paper's SoAoaS: {x,y,z,mass} hot float4 + {vx,vy,vz,pad} cold float4.
//! assert_eq!(plan.groups.len(), 2);
//! assert!(plan.transaction_improvement() > 20.0);
//! ```

#![warn(missing_docs)]

pub mod layout_advisor;
pub mod lint;
pub mod pipeline;
pub mod report;
pub mod unroll_advisor;

/// Re-exports of the substrate crates, so downstream users need only one
/// dependency.
pub mod substrates {
    pub use gpu_kernels;
    pub use gpu_sim;
    pub use nbody;
    pub use particle_layouts;
    pub use simcore;
}

pub use layout_advisor::{optimize_layout, LayoutPlan, StructSchema};
pub use pipeline::{optimization_ladder, LadderStep};
pub use report::{build_report, OptimizationReport};
pub use unroll_advisor::{advise_unroll, UnrollAdvice};
