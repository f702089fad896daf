//! Transient-fault (soft-error) injection: seeded, deterministic chaos for
//! the simulated device.
//!
//! PR 1's [`crate::fault::FaultPlan`] injects *permanent* faults — address
//! corruption that deterministically recurs, the signature of a layout bug.
//! This module models the other failure family of long production runs:
//! **transient** faults that vanish on retry.
//!
//! * **bit flips** — a radiation-induced single-bit upset in device memory
//!   ([`GlobalMemory::corrupt_bit`]), detected by the memory's ECC-style
//!   checksums on readback as [`FaultKind::EccMismatch`];
//! * **transient launch failures** — the spurious
//!   `CUDA_ERROR_LAUNCH_FAILED` every long-lived CUDA service learns to
//!   retry, surfaced as [`FaultKind::TransientLaunch`];
//! * **kernel hangs** — a launch that stops making progress and is killed by
//!   the step-budget watchdog as [`FaultKind::WatchdogTimeout`].
//!
//! A [`TransientFaultPlan`] draws at most one event per kernel launch from a
//! `u64` seed, so a whole chaos campaign is reproducible bit-for-bit: the
//! k-th launch of a plan with seed `s` always sees the same fate, regardless
//! of what the application does in between.

use crate::exec::functional::{configured_threads, run_lowered_full, FunctionalRun};
use crate::fault::{DeviceError, DeviceResult, FaultKind, FaultPlan};
use crate::ir::lower::Program;
use crate::mem::GlobalMemory;
use serde::{Deserialize, Serialize};
use simcore::SplitMix64;

/// Per-launch probabilities of each transient fault class. The classes are
/// mutually exclusive within one launch (one die roll decides), so the sum
/// must not exceed 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Probability a launch is preceded by a single-bit upset somewhere in
    /// the live device memory.
    pub bit_flip: f64,
    /// Probability the launch itself transiently fails.
    pub launch_failure: f64,
    /// Probability the kernel hangs and the watchdog kills it.
    pub hang: f64,
}

impl FaultRates {
    /// No injected faults at all.
    pub const QUIET: FaultRates = FaultRates {
        bit_flip: 0.0,
        launch_failure: 0.0,
        hang: 0.0,
    };

    /// Validate: every rate in `[0, 1]` and the sum at most 1.
    pub fn validate(&self) -> Result<(), String> {
        let rs = [self.bit_flip, self.launch_failure, self.hang];
        if rs.iter().any(|r| !(0.0..=1.0).contains(r)) {
            return Err(format!("fault rates must lie in [0, 1]: {self:?}"));
        }
        if rs.iter().sum::<f64>() > 1.0 {
            return Err(format!("fault rates must sum to at most 1: {self:?}"));
        }
        Ok(())
    }
}

/// The fate of one kernel launch under a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LaunchFault {
    /// Healthy launch.
    None,
    /// A single-bit upset strikes the device memory before the launch.
    BitFlip {
        /// Strike position as a fraction of the allocated bytes.
        addr_fraction: f64,
        /// Which bit of the struck byte flips (0–7).
        bit: u8,
    },
    /// The launch transiently fails before running.
    LaunchFailure,
    /// The kernel hangs; the watchdog kills it.
    Hang,
}

/// A seeded, deterministic schedule of transient faults. The k-th call to
/// [`next_launch`](TransientFaultPlan::next_launch) of any plan with the same
/// seed and rates returns the same [`LaunchFault`] — chaos campaigns replay
/// exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransientFaultPlan {
    seed: u64,
    rates: FaultRates,
    launches: u64,
}

impl TransientFaultPlan {
    /// A plan injecting faults at the given rates, deterministically from
    /// `seed`.
    pub fn new(seed: u64, rates: FaultRates) -> Self {
        rates.validate().expect("invalid fault rates");
        TransientFaultPlan {
            seed,
            rates,
            launches: 0,
        }
    }

    /// A plan that never injects anything (the fault-free reference).
    pub fn quiet() -> Self {
        Self::new(0, FaultRates::QUIET)
    }

    /// The configured rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Launches drawn so far.
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Draw the fate of the next launch. Deterministic in (seed, launch
    /// index) alone: the same launch of the same plan always draws the same
    /// fate, independent of prior draws.
    pub fn next_launch(&mut self) -> LaunchFault {
        let k = self.launches;
        self.launches += 1;
        self.fate_of(k)
    }

    /// The fate of launch `k` without advancing the plan.
    pub fn fate_of(&self, k: u64) -> LaunchFault {
        let mut rng = SplitMix64::new(self.seed ^ SplitMix64::mix(k).wrapping_add(k));
        let u = next_unit(&mut rng);
        let r = self.rates;
        if u < r.bit_flip {
            LaunchFault::BitFlip {
                addr_fraction: next_unit(&mut rng),
                bit: (rng_next(&mut rng) & 7) as u8,
            }
        } else if u < r.bit_flip + r.launch_failure {
            LaunchFault::LaunchFailure
        } else if u < r.bit_flip + r.launch_failure + r.hang {
            LaunchFault::Hang
        } else {
            LaunchFault::None
        }
    }
}

fn rng_next(rng: &mut SplitMix64) -> u64 {
    use simcore::Rng64;
    rng.next_u64()
}

fn next_unit(rng: &mut SplitMix64) -> f64 {
    use simcore::Rng64;
    rng.next_f64()
}

/// Warp-instruction budget a "hung" kernel is allowed before the watchdog
/// fires. A hang means *no forward progress*, so the stricken launch is
/// allowed exactly one warp instruction — enough that the kill comes from
/// the executor's real instruction counting (and can leave partial side
/// effects behind), never enough for any multi-instruction kernel to finish.
pub const HANG_BUDGET: u64 = 1;

/// Execute a lowered program functionally under a transient-fault plan —
/// [`run_lowered_full`] with the launch's fate applied first and an ECC
/// scrub after.
///
/// One event is drawn for this launch:
///
/// * `LaunchFailure` → the launch never runs; [`FaultKind::TransientLaunch`];
/// * `Hang` → the kernel runs with a starved step budget and is genuinely
///   killed mid-flight by the watchdog ([`FaultKind::WatchdogTimeout`]),
///   leaving partial side effects in `gmem` exactly as a real kill would;
/// * `BitFlip` → a bit of the live memory is flipped, then the kernel runs
///   normally; after the run (and on every later download) the memory's ECC
///   checksums are verified, surfacing the strike as
///   [`FaultKind::EccMismatch`] unless a legitimate full overwrite healed
///   the word first (in which case the results are unaffected by
///   construction);
/// * `None` → a healthy, watchdog-supervised run.
///
/// `inject` and `watchdog` are passed through to [`run_lowered_full`], which
/// runs on [`configured_threads`]. On any error the caller owns recovery:
/// discard `gmem`, re-upload from host state, and retry — which is exactly
/// what `gravit_app::backend`'s `RecoveryPolicy` does.
#[allow(clippy::too_many_arguments)]
pub fn run_grid_chaos_lowered(
    prog: &Program,
    grid: u32,
    block: u32,
    params: &[u32],
    gmem: &mut GlobalMemory,
    plan: &mut TransientFaultPlan,
    inject: Option<&FaultPlan>,
    watchdog: Option<u64>,
) -> DeviceResult<FunctionalRun> {
    let fate = plan.next_launch();
    let effective_watchdog = match fate {
        LaunchFault::LaunchFailure => {
            return Err(DeviceError::new(FaultKind::TransientLaunch {
                reason: "injected spurious launch failure".into(),
            })
            .with_kernel(&prog.name));
        }
        LaunchFault::Hang => Some(HANG_BUDGET.min(watchdog.unwrap_or(HANG_BUDGET))),
        LaunchFault::BitFlip { addr_fraction, bit } => {
            let span = gmem.allocated().max(1);
            let addr = ((addr_fraction * span as f64) as u64).min(span - 1);
            gmem.corrupt_bit(addr, bit);
            watchdog
        }
        LaunchFault::None => watchdog,
    };
    let run = run_lowered_full(
        prog,
        grid,
        block,
        params,
        gmem,
        inject,
        effective_watchdog,
        configured_threads(),
    )?;
    // Scrub: any undetected strike in the working set fails the launch here
    // rather than leaking corrupted physics to the host.
    gmem.verify_all().map_err(|e| e.with_kernel(&prog.name))?;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed() -> TransientFaultPlan {
        TransientFaultPlan::new(
            7,
            FaultRates {
                bit_flip: 0.2,
                launch_failure: 0.1,
                hang: 0.1,
            },
        )
    }

    #[test]
    fn plans_replay_bit_for_bit() {
        let mut a = mixed();
        let mut b = mixed();
        let fates: Vec<LaunchFault> = (0..256).map(|_| a.next_launch()).collect();
        assert!((0..256).all(|i| fates[i] == b.next_launch()));
        // And fate_of agrees without advancing.
        let c = mixed();
        assert!((0..256u64).all(|k| c.fate_of(k) == fates[k as usize]));
        assert_eq!(c.launches(), 0);
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut p = TransientFaultPlan::new(
            99,
            FaultRates {
                bit_flip: 0.25,
                launch_failure: 0.25,
                hang: 0.25,
            },
        );
        let n = 4000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            match p.next_launch() {
                LaunchFault::BitFlip { .. } => counts[0] += 1,
                LaunchFault::LaunchFailure => counts[1] += 1,
                LaunchFault::Hang => counts[2] += 1,
                LaunchFault::None => counts[3] += 1,
            }
        }
        for (i, c) in counts.iter().enumerate() {
            let frac = *c as f64 / n as f64;
            assert!((frac - 0.25).abs() < 0.05, "class {i}: {frac}");
        }
    }

    #[test]
    fn quiet_plan_never_faults() {
        let mut p = TransientFaultPlan::quiet();
        assert!((0..1000).all(|_| p.next_launch() == LaunchFault::None));
    }

    #[test]
    fn invalid_rates_are_rejected() {
        assert!(FaultRates {
            bit_flip: -0.1,
            launch_failure: 0.0,
            hang: 0.0
        }
        .validate()
        .is_err());
        assert!(FaultRates {
            bit_flip: 0.6,
            launch_failure: 0.6,
            hang: 0.0
        }
        .validate()
        .is_err());
        assert!(FaultRates {
            bit_flip: 0.3,
            launch_failure: 0.3,
            hang: 0.4
        }
        .validate()
        .is_ok());
    }
}
