//! Timing constants for the cycle-level engine.
//!
//! The *mechanisms* of the model (coalescing, warp scheduling, scoreboarding,
//! memory-pipeline serialization) live in [`crate::exec::timed`]; this module
//! holds the calibrated constants. Per DESIGN.md we fit the handful of free
//! constants once against the shape of the paper's Figure 10 (orderings and
//! approximate ratios), not against absolute 2006-era cycle counts.
//!
//! Sources for the mechanistic values:
//! * G80 issues one warp instruction per 4 shader cycles (8 SPs × 4 clocks
//!   to cover 32 lanes).
//! * Transcendental/special-function ops run on the 2 SFUs at 1/4 rate →
//!   16 cycles per warp.
//! * Global-memory latency was reported as 400–600 cycles in the CUDA guide.

use crate::driver::DriverModel;
use serde::{Deserialize, Serialize};

/// Cycle-cost constants used by the timed executor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Cycles to issue one ALU warp instruction (G80: 4).
    pub issue_alu: u64,
    /// Cycles to issue one SFU (rsqrt, etc.) warp instruction (G80: 16).
    pub issue_sfu: u64,
    /// Cycles to issue one memory warp instruction (address path), before
    /// the transactions themselves are accounted.
    pub issue_mem: u64,
    /// Cycles to issue one shared-memory warp access per conflict pass.
    pub issue_smem: u64,
    /// Round-trip global-memory latency from issue to data-ready.
    pub mem_latency: u64,
    /// Memory-pipeline occupancy per 32-byte transaction chunk: the SM's
    /// path to DRAM is busy this many cycles for every 32 bytes of a
    /// transaction (so a 128B transaction holds it 4× longer).
    pub cycles_per_32b: u64,
    /// Fixed memory-pipeline occupancy per transaction (command overhead),
    /// regardless of size.
    pub cycles_per_transaction: u64,
    /// Maximum in-flight global loads per warp before issue stalls
    /// (G80-class MSHR limit per warp).
    pub max_outstanding_loads: u32,
    /// Cycles charged for the `bar.sync` instruction itself.
    pub issue_sync: u64,
    /// Latency of a texture fetch that hits the per-SM texture cache
    /// (the texture pipeline is long even on a hit — ~100 cycles on G80).
    pub tex_hit_latency: u64,
    /// Step-budget watchdog for the timed engine: a launch that issues more
    /// than this many warp instructions on one SM is killed with
    /// [`crate::fault::FaultKind::WatchdogTimeout`] — the simulated analogue
    /// of the driver's display-watchdog kernel timeout. `None` disables it
    /// (the default; long soak runs opt in).
    pub watchdog_instructions: Option<u64>,
}

impl TimingParams {
    /// Constants for the given driver revision.
    ///
    /// Calibration notes (see the `fig10_membench` entry of `bench::results`
    /// for the experiment these were fitted on):
    /// * `Cuda10` — tall per-transaction overhead: the original coalescing
    ///   path issued uncoalesced accesses as fully serialized transactions.
    /// * `Cuda11` — same hardware, but the driver merges same-line requests
    ///   (fewer, larger transactions) and we observed the paper's flattened
    ///   profile emerges with a slightly higher fixed latency — consistent
    ///   with a driver that trades latency for fewer commands.
    /// * `Cuda22` — segment-based coalescing plus a better compiler:
    ///   lower latency, moderate per-transaction overhead.
    pub fn for_driver(driver: DriverModel) -> TimingParams {
        let base = TimingParams {
            issue_alu: 4,
            issue_sfu: 16,
            issue_mem: 4,
            issue_smem: 4,
            mem_latency: 450,
            cycles_per_32b: 1,
            cycles_per_transaction: 3,
            max_outstanding_loads: 2,
            issue_sync: 4,
            tex_hit_latency: 110,
            watchdog_instructions: None,
        };
        match driver {
            DriverModel::Cuda10 => TimingParams {
                mem_latency: 520,
                cycles_per_transaction: 4,
                ..base
            },
            DriverModel::Cuda11 => TimingParams {
                mem_latency: 560,
                cycles_per_transaction: 2,
                ..base
            },
            DriverModel::Cuda22 => TimingParams {
                mem_latency: 430,
                cycles_per_transaction: 3,
                ..base
            },
        }
    }

    /// Memory-pipeline busy time for one transaction of `bytes`.
    #[inline]
    pub fn transaction_busy(&self, bytes: u32) -> u64 {
        self.cycles_per_transaction + self.cycles_per_32b * (bytes as u64).div_ceil(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_exist_for_all_drivers() {
        for d in DriverModel::ALL {
            let p = TimingParams::for_driver(d);
            assert!(p.mem_latency > 0 && p.issue_alu > 0);
        }
    }

    #[test]
    fn bigger_transactions_hold_the_pipe_longer() {
        let p = TimingParams::for_driver(DriverModel::Cuda10);
        assert!(p.transaction_busy(128) > p.transaction_busy(32));
        assert_eq!(
            p.transaction_busy(128) - p.transaction_busy(32),
            3 * p.cycles_per_32b
        );
    }

    #[test]
    fn cuda11_has_cheaper_transactions_than_cuda10() {
        // The flattening mechanism: uncoalesced accesses cost relatively less.
        let p10 = TimingParams::for_driver(DriverModel::Cuda10);
        let p11 = TimingParams::for_driver(DriverModel::Cuda11);
        assert!(p11.cycles_per_transaction < p10.cycles_per_transaction);
    }
}
