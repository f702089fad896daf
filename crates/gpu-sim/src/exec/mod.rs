//! Kernel execution: functional interpretation and cycle-level timing.
//!
//! Both executors run the program's compiled tape (built once by
//! [`crate::ir::lower::lower`] and kept in the `Program`)
//! warp-synchronously: the 32 lanes of a warp move through the ops together
//! under an active mask, exactly as CC-1.x hardware issues them. The two
//! executors share one implementation of instruction semantics and control
//! flow ([`machine`]), so the timed engine can never compute different
//! values than the functional one.
//!
//! * [`functional`] — runs every block of the grid to completion, warp by
//!   warp (barrier-segmented), against simulated global memory.
//! * [`timed`] — simulates the resident blocks of **one SM**: a round-robin
//!   warp scheduler with a register scoreboard, a global-memory pipeline fed
//!   by the coalescer, shared-memory bank serialization and block barriers.
//! * `tape` — the flat op array and its one-pass compiler from the
//!   structured IR.
//! * [`machine`] — block state (a warp-major register file) and op
//!   semantics.
//! * [`launch`] — the steady-state extrapolation the frame model fits
//!   resident-wave cycles with.

pub mod functional;
pub mod launch;
pub mod machine;
pub(crate) mod tape;
pub mod timed;
