//! # particle-layouts — the paper's memory layouts, as real layouts
//!
//! Section II of the paper walks the Gravit particle record (7 floats:
//! position, velocity, mass) through four global-memory organizations:
//!
//! | variant | layout | per-particle reads (all 7 floats) |
//! |---|---|---|
//! | `Unopt`  | packed 28-byte array of structures (original Gravit) | 7 scalar, non-coalesced |
//! | `AoS`    | 32-byte aligned array of structures, scalar access | 7 scalar, non-coalesced |
//! | `SoA`    | structure of arrays (7 scalar arrays) | 7 scalar, coalesced |
//! | `AoaS`   | array of 16-byte-aligned structures | 2 × 128-bit, non-coalesced |
//! | `SoAoaS` | **the contribution**: two arrays of 16-byte-aligned sub-structures, grouped by access frequency (`{x,y,z,mass}` hot / `{vx,vy,vz,pad}` cold) | 2 × 128-bit, coalesced |
//!
//! This crate provides each layout three ways, and they cannot drift apart
//! because the latter two are derived from the first:
//!
//! 1. **Host types** ([`host`]): `#[repr(C)]`/`#[repr(C, align(16))]` structs
//!    whose sizes and field offsets are checked by tests — these are the
//!    actual byte layouts, also usable for CPU-side cache experiments.
//! 2. **Read plans** ([`plan`]): a machine-readable description of which
//!    buffer, offset, stride and width each field read uses — consumed by the
//!    kernel builders and by the coalescing analysis (paper Figs. 3/5/7/9).
//! 3. **Device images** ([`device`]): serialization of a particle set into
//!    simulated global memory, padded to a block multiple with zero-mass
//!    sentinel particles (so kernels need no bounds `if`, as in GPU Gems).

#![warn(missing_docs)]

pub mod device;
pub mod host;
pub mod plan;
pub mod streams;

pub use device::{padded_count, DeviceImage};
pub use host::Particle;
pub use plan::{BufferKind, FieldRead, Layout, ReadPlan};
