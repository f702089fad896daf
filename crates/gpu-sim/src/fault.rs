//! Device-fault taxonomy and the fault-injection harness.
//!
//! Every misuse of the simulated device — out-of-bounds or misaligned
//! accesses, allocator exhaustion, bad launch geometry, reads of
//! never-written memory — is reported as a typed [`DeviceError`] carrying
//! the fault coordinates (kernel, block, thread, instruction), in the shape
//! of `compute-sanitizer` for real CUDA. Layout bugs (the paper's whole
//! subject) therefore surface at the faulting instruction as a reportable
//! value the application can catch, log and degrade around, instead of a
//! process-killing panic or — worse — silently wrong physics.
//!
//! The module also hosts the **fault-injection harness** ([`FaultPlan`]):
//! a test-facing hook that mutates the effective address of a chosen
//! (block, thread, instruction) memory access in the functional executor,
//! used to prove each fault class is detected and attributed correctly.

use crate::ir::MemSpace;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Result alias for every fallible device operation.
pub type DeviceResult<T> = Result<T, DeviceError>;

/// What went wrong on the device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// An access touched bytes outside any live allocation (or outside the
    /// address space entirely). `redzone` is set when the access landed in a
    /// guard band adjacent to a live allocation — the signature of an
    /// off-by-one stride or padding bug.
    OutOfBounds {
        /// Memory space of the access.
        space: MemSpace,
        /// Faulting byte address.
        addr: u64,
        /// Access width in bytes.
        width: u64,
        /// Capacity of the space (global capacity or shared-memory size).
        limit: u64,
        /// Whether the access landed in an inter-allocation redzone.
        redzone: bool,
    },
    /// An access violated the natural-alignment rule (a `width`-byte access
    /// must be `width`-aligned, as CUDA requires for vector types).
    Misaligned {
        /// Memory space of the access.
        space: MemSpace,
        /// Faulting byte address.
        addr: u64,
        /// Access width in bytes.
        width: u64,
    },
    /// A load read bytes that were allocated but never written (poison fill).
    UninitializedRead {
        /// Faulting byte address.
        addr: u64,
        /// Access width in bytes.
        width: u64,
    },
    /// The allocator could not satisfy a request. Recoverable by
    /// construction: the caller can free memory, shrink the working set
    /// (chunked execution), or fall back to the host.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes still free (capacity minus allocations, redzones and
        /// alignment padding).
        free: u64,
        /// Total capacity of the memory.
        capacity: u64,
    },
    /// `free` was called with a pointer that is not the most recent live
    /// allocation (the bump allocator frees in strict LIFO order).
    InvalidFree {
        /// The pointer passed to `free`.
        ptr: u64,
        /// Base of the allocation that could legally be freed, if any.
        expected: Option<u64>,
    },
    /// Invalid launch geometry or kernel-parameter mismatch.
    BadLaunch {
        /// Human-readable explanation.
        reason: String,
    },
    /// A store hit read-only memory (the texture space).
    ReadOnlyWrite {
        /// Memory space of the store.
        space: MemSpace,
        /// Faulting byte address.
        addr: u64,
    },
    /// Warps could not all reach a barrier (divergent `__syncthreads`).
    Deadlock {
        /// Human-readable explanation.
        reason: String,
    },
    /// A loop branch diverged where the engine requires warp uniformity.
    DivergentBranch {
        /// Active-lane mask at the branch.
        mask: u32,
        /// Lanes that took the branch.
        taken: u32,
    },
    /// Invalid host-side model configuration (e.g. a non-positive PCIe
    /// bandwidth, or an extrapolation outside its validity regime).
    BadConfig {
        /// Human-readable explanation.
        reason: String,
    },
    /// ECC-style checksum mismatch detected on readback: a device word was
    /// corrupted outside any legitimate store path (a soft error). Transient:
    /// re-uploading and re-running the frame is expected to succeed.
    EccMismatch {
        /// Address of the first corrupted 32-bit word.
        addr: u64,
        /// Checksum recorded when the word was last legitimately written.
        expected: u8,
        /// Checksum recomputed from the (corrupted) data at readback.
        actual: u8,
    },
    /// The kernel exceeded its step budget and was killed by the watchdog
    /// (a hung or runaway kernel). Transient from the application's view:
    /// the launch can be retried.
    WatchdogTimeout {
        /// The configured step budget (warp instructions or cycles).
        budget: u64,
        /// Steps executed when the watchdog fired.
        executed: u64,
    },
    /// The driver transiently refused the launch (spurious
    /// `CUDA_ERROR_LAUNCH_FAILED`-style error); retrying is expected to
    /// succeed.
    TransientLaunch {
        /// Human-readable explanation.
        reason: String,
    },
    /// A downloaded result contained a NaN or infinity — corrupted or
    /// numerically exploded physics that must not propagate silently into
    /// the integrator.
    NonFiniteResult {
        /// Index of the first non-finite element (body index).
        index: u64,
    },
}

impl FaultKind {
    /// Stable, short name of the fault class.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::OutOfBounds { .. } => "OutOfBounds",
            FaultKind::Misaligned { .. } => "Misaligned",
            FaultKind::UninitializedRead { .. } => "UninitializedRead",
            FaultKind::OutOfMemory { .. } => "OutOfMemory",
            FaultKind::InvalidFree { .. } => "InvalidFree",
            FaultKind::BadLaunch { .. } => "BadLaunch",
            FaultKind::ReadOnlyWrite { .. } => "ReadOnlyWrite",
            FaultKind::Deadlock { .. } => "Deadlock",
            FaultKind::DivergentBranch { .. } => "DivergentBranch",
            FaultKind::BadConfig { .. } => "BadConfig",
            FaultKind::EccMismatch { .. } => "EccMismatch",
            FaultKind::WatchdogTimeout { .. } => "WatchdogTimeout",
            FaultKind::TransientLaunch { .. } => "TransientLaunch",
            FaultKind::NonFiniteResult { .. } => "NonFiniteResult",
        }
    }

    /// Whether this fault class is *transient*: retrying the operation (after
    /// re-uploading from host state) is expected to succeed. Permanent faults
    /// — program bugs like out-of-bounds accesses, misalignment, deadlocks —
    /// recur deterministically and must not be retried.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            FaultKind::EccMismatch { .. }
                | FaultKind::WatchdogTimeout { .. }
                | FaultKind::TransientLaunch { .. }
                | FaultKind::NonFiniteResult { .. }
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::OutOfBounds {
                space,
                addr,
                width,
                limit,
                redzone,
            } => {
                let zone = if *redzone {
                    " (in a redzone guard band)"
                } else {
                    ""
                };
                write!(
                    f,
                    "{width}-byte {space:?} access at {addr:#x} is out of bounds{zone}; space limit {limit:#x}"
                )
            }
            FaultKind::Misaligned { space, addr, width } => {
                write!(f, "misaligned {width}-byte {space:?} access at {addr:#x}")
            }
            FaultKind::UninitializedRead { addr, width } => {
                write!(
                    f,
                    "{width}-byte load of uninitialized (poison) memory at {addr:#x}"
                )
            }
            FaultKind::OutOfMemory {
                requested,
                free,
                capacity,
            } => {
                write!(
                    f,
                    "device out of memory: requested {requested} B with {free} B free of {capacity} B"
                )
            }
            FaultKind::InvalidFree { ptr, expected } => match expected {
                Some(e) => write!(
                    f,
                    "invalid free of {ptr:#x}: the bump allocator frees LIFO, expected {e:#x}"
                ),
                None => write!(f, "invalid free of {ptr:#x}: no live allocations"),
            },
            FaultKind::BadLaunch { reason } => write!(f, "bad launch: {reason}"),
            FaultKind::ReadOnlyWrite { space, addr } => {
                write!(f, "store to read-only {space:?} memory at {addr:#x}")
            }
            FaultKind::Deadlock { reason } => write!(f, "deadlock: {reason}"),
            FaultKind::DivergentBranch { mask, taken } => {
                write!(
                    f,
                    "divergent loop branch: active mask {mask:#010x}, taken {taken:#010x}"
                )
            }
            FaultKind::BadConfig { reason } => write!(f, "bad configuration: {reason}"),
            FaultKind::EccMismatch {
                addr,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "ECC checksum mismatch at {addr:#x}: stored {expected:#04x}, recomputed {actual:#04x} (soft error)"
                )
            }
            FaultKind::WatchdogTimeout { budget, executed } => {
                write!(
                    f,
                    "watchdog killed the kernel after {executed} steps (budget {budget})"
                )
            }
            FaultKind::TransientLaunch { reason } => {
                write!(f, "transient launch failure: {reason}")
            }
            FaultKind::NonFiniteResult { index } => {
                write!(
                    f,
                    "non-finite value in downloaded results at element {index}"
                )
            }
        }
    }
}

/// Where a fault happened. Coordinates are filled in as the error propagates
/// outward: the memory system knows nothing, the warp stepper attaches
/// (block, thread, instruction), and the launch wrappers attach the kernel
/// name. Each is set at most once — the innermost (most precise) value wins.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSite {
    /// Kernel name, once known.
    pub kernel: Option<String>,
    /// `blockIdx.x` of the faulting thread.
    pub block: Option<u32>,
    /// Linear thread index within the block.
    pub thread: Option<u32>,
    /// Retired-instruction index of the faulting warp at the fault.
    pub instruction: Option<u64>,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if let Some(k) = &self.kernel {
            parts.push(format!("kernel `{k}`"));
        }
        if let Some(b) = self.block {
            parts.push(format!("block {b}"));
        }
        if let Some(t) = self.thread {
            parts.push(format!("thread {t}"));
        }
        if let Some(i) = self.instruction {
            parts.push(format!("instruction {i}"));
        }
        if parts.is_empty() {
            write!(f, "host-side API call")
        } else {
            write!(f, "{}", parts.join(", "))
        }
    }
}

/// A typed device fault: what went wrong, and where.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceError {
    /// The fault class and payload.
    pub kind: FaultKind,
    /// Fault coordinates.
    pub site: FaultSite,
}

impl DeviceError {
    /// A fault with no coordinates yet.
    pub fn new(kind: FaultKind) -> Self {
        DeviceError {
            kind,
            site: FaultSite::default(),
        }
    }

    /// Attach the kernel name, unless already known.
    pub fn with_kernel(mut self, name: &str) -> Self {
        if self.site.kernel.is_none() {
            self.site.kernel = Some(name.to_string());
        }
        self
    }

    /// Attach the block index, unless already known.
    pub fn with_block(mut self, block: u32) -> Self {
        if self.site.block.is_none() {
            self.site.block = Some(block);
        }
        self
    }

    /// Attach the thread index, unless already known.
    pub fn with_thread(mut self, thread: u32) -> Self {
        if self.site.thread.is_none() {
            self.site.thread = Some(thread);
        }
        self
    }

    /// Attach the retired-instruction index, unless already known.
    pub fn with_instruction(mut self, instruction: u64) -> Self {
        if self.site.instruction.is_none() {
            self.site.instruction = Some(instruction);
        }
        self
    }

    /// Multi-line, human-readable sanitizer report (the `compute-sanitizer`
    /// shape) for logs and the CLI.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("========= DEVICE FAULT: {}\n", self.kind.name()));
        out.push_str(&format!("=========   {}\n", self.kind));
        if let Some(k) = &self.site.kernel {
            out.push_str(&format!("=========   kernel:      {k}\n"));
        }
        if let Some(b) = self.site.block {
            out.push_str(&format!("=========   block:       {b}\n"));
        }
        if let Some(t) = self.site.thread {
            out.push_str(&format!("=========   thread:      {t}\n"));
        }
        if let Some(i) = self.site.instruction {
            out.push_str(&format!("=========   instruction: {i}\n"));
        }
        out.push_str("=========");
        out
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] at {}", self.kind.name(), self.kind, self.site)
    }
}

impl std::error::Error for DeviceError {}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// How an injected fault perturbs the effective address of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Add a signed delta to the lane's effective address (wrapping).
    AddrDelta(i64),
    /// Replace the lane's effective address outright.
    SetAddr(u64),
}

/// One injected fault: at the given (block, thread, retired-instruction)
/// coordinate, mutate the effective address of that thread's memory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// `blockIdx.x` to strike.
    pub block: u32,
    /// Linear thread index within the block to strike.
    pub thread: u32,
    /// Warp retired-instruction index at which to strike.
    pub instruction: u64,
    /// The address perturbation.
    pub mutation: Mutation,
}

/// A set of injected faults, threaded through the functional executor by
/// [`crate::exec::functional::run_lowered_full`]. Used by the test suite to
/// prove that every fault class is detected and attributed to the exact
/// thread — never enabled on the normal execution paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The faults to inject.
    pub faults: Vec<InjectedFault>,
}

/// Wildcard for [`InjectedFault::instruction`]: strike every memory access of
/// the targeted (block, thread) pair, whichever instruction it retires at.
pub const ANY_INSTRUCTION: u64 = u64::MAX;

impl FaultPlan {
    /// A plan with a single injected fault.
    pub fn single(block: u32, thread: u32, instruction: u64, mutation: Mutation) -> Self {
        FaultPlan {
            faults: vec![InjectedFault {
                block,
                thread,
                instruction,
                mutation,
            }],
        }
    }

    /// A plan striking every memory access of one thread (see
    /// [`ANY_INSTRUCTION`]) — robust against instruction-schedule changes.
    pub fn at_thread(block: u32, thread: u32, mutation: Mutation) -> Self {
        Self::single(block, thread, ANY_INSTRUCTION, mutation)
    }

    /// Mutate `addr` if a fault is registered for this coordinate.
    pub fn mutate(&self, block: u32, thread: u32, instruction: u64, addr: u64) -> u64 {
        let mut a = addr;
        for f in &self.faults {
            if f.block == block
                && f.thread == thread
                && (f.instruction == instruction || f.instruction == ANY_INSTRUCTION)
            {
                a = match f.mutation {
                    Mutation::AddrDelta(d) => a.wrapping_add_signed(d),
                    Mutation::SetAddr(v) => v,
                };
            }
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_fills_innermost_first() {
        let e = DeviceError::new(FaultKind::BadLaunch { reason: "x".into() })
            .with_thread(7)
            .with_thread(9) // outer attempt must not override
            .with_block(2)
            .with_kernel("k");
        assert_eq!(e.site.thread, Some(7));
        assert_eq!(e.site.block, Some(2));
        assert_eq!(e.site.kernel.as_deref(), Some("k"));
        assert_eq!(e.site.instruction, None);
    }

    #[test]
    fn report_names_the_fault_class_and_coordinates() {
        let e = DeviceError::new(FaultKind::OutOfBounds {
            space: MemSpace::Global,
            addr: 0x1000,
            width: 16,
            limit: 0x800,
            redzone: true,
        })
        .with_block(3)
        .with_thread(17)
        .with_instruction(42)
        .with_kernel("force");
        let r = e.report();
        assert!(r.contains("OutOfBounds"));
        assert!(r.contains("redzone"));
        assert!(r.contains("force"));
        assert!(r.contains("block:       3"));
        assert!(r.contains("thread:      17"));
        assert!(r.contains("instruction: 42"));
    }

    #[test]
    fn plan_strikes_only_its_coordinate() {
        let p = FaultPlan::single(1, 33, 5, Mutation::AddrDelta(-4));
        assert_eq!(p.mutate(1, 33, 5, 100), 96);
        assert_eq!(p.mutate(1, 33, 4, 100), 100);
        assert_eq!(p.mutate(1, 32, 5, 100), 100);
        assert_eq!(p.mutate(0, 33, 5, 100), 100);
        let s = FaultPlan::single(0, 0, 0, Mutation::SetAddr(0xdead));
        assert_eq!(s.mutate(0, 0, 0, 4), 0xdead);
    }

    #[test]
    fn display_is_one_line_and_informative() {
        let e = DeviceError::new(FaultKind::Misaligned {
            space: MemSpace::Global,
            addr: 0x1c,
            width: 16,
        });
        let s = e.to_string();
        assert!(s.contains("Misaligned"));
        assert!(s.contains("0x1c"));
        assert!(!s.contains('\n'));
    }
}
