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
//! Each layout is declared once, in [`plan`]'s placement table: its
//! buffers' record strides, the `(buffer, byte offset)` slot of each of the
//! seven words of [`Particle::fields`], and whether threads read it with
//! 128-bit vectors. Everything else is derived from that table, so no two
//! views of a layout can drift apart:
//!
//! 1. **Read plans** ([`plan`]): which buffer, offset, stride and width
//!    each read uses, and the register lane of each field — consumed by the
//!    kernel builders and by the coalescing analysis (paper Figs. 3/5/7/9).
//! 2. **Device images** ([`device`]): serialization of a particle set into
//!    simulated global memory, padded to a block multiple with zero-mass
//!    sentinel particles (so kernels need no bounds `if`, as in GPU Gems).
//! 3. **Byte shapes** ([`host`]'s tests): the 28-byte packed record, the
//!    32-byte aligned record with its pad word at byte 28, and the 16-byte
//!    hot and cold `float4`s, checked on the table itself.
//!
//! [`layout_advisor`] runs the paper's Sec. IV procedure (group by access
//! frequency, split into aligned sub-structures, arrange them in arrays) on
//! a declared record schema, and prices the result with the same
//! [`streams::price_reads`] the read plans use.

#![warn(missing_docs)]

pub mod device;
pub mod host;
pub mod layout_advisor;
pub mod plan;
pub mod streams;

pub use device::{padded_count, DeviceImage};
pub use host::Particle;
pub use plan::{Buffer, FieldRead, Layout, ReadPlan};
