//! # gpu-sim — a software model of a G80-class CUDA device
//!
//! This crate is the hardware substitute for the reproduction of
//! *"CUDA Memory Optimizations for Large Data-Structures in the Gravit
//! Simulator"* (ICPP 2009). The paper's measurements were taken on a GeForce
//! 8800 GTX under CUDA driver/compiler revisions 1.0, 1.1 and 2.2 — hardware
//! and software that no longer exist. Everything the paper observes, however,
//! is a deterministic consequence of published machine rules:
//!
//! * the **half-warp coalescing protocol** of compute capability 1.0/1.1 and
//!   the segment-based protocol of 1.2+ ([`coalesce`]),
//! * the **shared-memory bank** structure ([`banks`]),
//! * the **occupancy arithmetic** of the CUDA occupancy calculator
//!   ([`occupancy`]),
//! * instruction-issue and memory-pipeline **timing** ([`timing`], [`exec`]),
//! * and the **register/instruction effects of compiler transformations**
//!   ([`ir::passes`], [`ir::regalloc`]).
//!
//! We implement those rules directly. Kernels are written in a small
//! PTX-flavoured IR ([`ir`]) that is executed *functionally* (actual loads,
//! stores and arithmetic on a simulated global memory — validated against
//! native CPU implementations) and *temporally* (a cycle-level engine that
//! schedules resident warps on one streaming multiprocessor and pushes every
//! memory transaction through a latency/throughput pipeline).
//!
//! ## Quick tour
//!
//! ```
//! use gpu_sim::DeviceConfig;
//! use gpu_sim::occupancy::occupancy;
//!
//! let dev = DeviceConfig::g8800gtx();
//! // The paper's tuned kernel: 16 registers/thread, 128-thread blocks.
//! let occ = occupancy(&dev, 128, 16, 2048);
//! assert_eq!(occ.active_warps, 16);
//! assert!((occ.fraction() - 2.0 / 3.0).abs() < 1e-6); // the 67% in the paper
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::panic))]

pub mod analyze;
pub mod banks;
pub mod coalesce;
pub mod device;
pub mod driver;
pub mod exec;
pub mod fault;
pub mod ir;
pub mod mem;
pub mod occupancy;
pub mod pool;
pub mod texcache;
pub mod timing;
pub mod transfer;
pub mod transient;

pub use analyze::{analyze_kernel, AnalysisConfig, AnalysisReport, Diagnostic, LintKind, Severity};
pub use device::DeviceConfig;
pub use driver::DriverModel;
pub use exec::launch::LaunchConfig;
pub use fault::{
    DeviceError, DeviceResult, FaultKind, FaultPlan, FaultSite, InjectedFault, Mutation,
};
pub use ir::{Kernel, KernelBuilder};
pub use mem::GlobalMemory;
pub use pool::{DevicePool, DeviceSpec, SimDevice};
pub use timing::TimingParams;
pub use transient::{run_grid_chaos_lowered, FaultRates, LaunchFault, TransientFaultPlan};
