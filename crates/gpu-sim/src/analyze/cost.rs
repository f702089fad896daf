//! The static cycle model: predicted kernel cycles from purely static facts.
//!
//! Eq. 3 of the paper ranks optimisations by instruction budgets alone; this
//! module extends that to a whole-kernel cycle estimate by combining the four
//! static sources the workspace already computes:
//!
//! * the per-thread **instruction mix** ([`count::instruction_mix`]) priced
//!   by issue cost per unit ([`TimingParams`]: ALU/SFU/memory/sync issue),
//! * the **memory pipe**: the same per-site transaction counts the lint's
//!   symbolic coalescer derives ([`AnalysisReport::accesses`]), priced by
//!   [`TimingParams::transaction_busy`] — the paper's Sec. III bus model,
//! * **shared-memory serialization**: extra conflict passes from the static
//!   bank-conflict degree,
//! * **exposed latency**: one `mem_latency` charge per dependent load round,
//!   divided by the warps available to hide it ([`occupancy`](crate::occupancy)) — the paper's
//!   Sec. V point that occupancy exists to hide memory latency.
//!
//! The estimate is a *ranking* model, not a simulator: both components are
//! monotone in what the optimisations change (fewer instructions, fewer
//! transactions, more warps), so orderings — the AoS→SoA→AoaS→SoAoaS ladder,
//! the unroll/LICM gains — are preserved. `results --only table_verify`
//! cross-validates exactly that against the dynamic engine, per driver.

use crate::driver::DriverModel;
use crate::ir::count::{self, CountError, InstrMix};
use crate::ir::regalloc::register_demand;
use crate::ir::{Kernel, MemSpace};
use crate::timing::TimingParams;

use super::{analyze_kernel, AnalysisConfig, AnalysisReport};

/// A static cycle estimate and the ledger it was assembled from.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelCost {
    /// Kernel name.
    pub kernel: String,
    /// Driver model priced under.
    pub driver: DriverModel,
    /// Per-thread dynamic instruction mix.
    pub mix: InstrMix,
    /// Issue cycles: every warp instruction priced at its unit's issue cost.
    pub issue_cycles: f64,
    /// Memory-pipe busy cycles from predicted transactions.
    pub memory_cycles: f64,
    /// Extra shared-memory serialization passes.
    pub smem_conflict_cycles: f64,
    /// Exposed global-load latency after occupancy-based hiding.
    pub exposed_latency_cycles: f64,
    /// Warps resident per SM (the latency-hiding divisor).
    pub active_warps: u32,
    /// Blocks concurrently resident per SM (occupancy, not total work).
    pub blocks_per_sm: u32,
}

impl KernelCost {
    /// Total predicted cycles for the launch (per SM, busiest-resource sum).
    pub fn total_cycles(&self) -> f64 {
        self.issue_cycles
            + self.memory_cycles
            + self.smem_conflict_cycles
            + self.exposed_latency_cycles
    }
}

/// Why a cost estimate is unavailable.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// The instruction count is not static ([`count::CountError`]).
    Count(CountError),
    /// The launch shape cannot be scheduled or analyzed.
    Unanalyzable(String),
}

impl std::fmt::Display for CostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostError::Count(e) => write!(f, "no static instruction count: {e}"),
            CostError::Unanalyzable(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CostError {}

impl From<CountError> for CostError {
    fn from(e: CountError) -> CostError {
        CostError::Count(e)
    }
}

/// Estimate the cycles one launch of `kernel` takes under `cfg`, reusing a
/// precomputed lint report (so `kernel-lint --cost` prices exactly the facts
/// it just printed).
pub fn estimate_from_report(
    kernel: &Kernel,
    cfg: &AnalysisConfig,
    report: &AnalysisReport,
) -> Result<KernelCost, CostError> {
    let mix = count::instruction_mix(kernel, &cfg.params)?;
    if !report.exact {
        return Err(CostError::Unanalyzable(
            "addresses are not fully static; transaction counts are a lower bound".to_string(),
        ));
    }
    let tp = TimingParams::for_driver(cfg.driver);

    // --- Issue: every warp retires the per-thread mix (lockstep warps).
    let warps_per_block = cfg.block.div_ceil(32) as f64;
    let occ = report.occupancy.as_ref().ok_or_else(|| {
        CostError::Unanalyzable("launch is not schedulable; no occupancy".to_string())
    })?;
    // Residency (how many blocks share an SM) only affects latency hiding;
    // total issue work per SM is set by how many blocks the busiest SM must
    // retire over the whole launch, resident or queued.
    let blocks_per_sm = occ.active_blocks.max(1);
    let num_sms = cfg.device.num_sms.max(1);
    let sm_blocks = cfg.grid.div_ceil(num_sms).max(1) as f64;
    let per_warp_issue = mix.fp as f64 * tp.issue_alu as f64
        + mix.int as f64 * tp.issue_alu as f64
        + mix.control as f64 * tp.issue_alu as f64
        + mix.sfu as f64 * tp.issue_sfu as f64
        + mix.loads as f64 * tp.issue_mem as f64
        + mix.stores as f64 * tp.issue_mem as f64;
    let issue_cycles = per_warp_issue * warps_per_block * sm_blocks;

    // --- Memory pipe: the symbolic coalescer's transactions, priced by the
    // driver's per-transaction busy time. `report.accesses` covers the whole
    // launch; scale to one SM's share.
    let launch_share = 1.0 / num_sms as f64;
    let mut memory_cycles = 0.0;
    let mut smem_conflict_cycles = 0.0;
    let mut load_rounds = 0u64;
    for site in &report.accesses {
        match site.space {
            MemSpace::Global | MemSpace::Texture => {
                let per_txn = tp.transaction_busy(site.width_bytes.max(32)) as f64;
                memory_cycles += site.transactions as f64 * per_txn * launch_share;
                if site.is_load {
                    load_rounds += 1;
                }
            }
            MemSpace::Shared => {
                // Extra serialized passes per half-warp issue beyond the
                // per-word issues a vector access pays anyway.
                let extra = site.bank_degree.saturating_sub(site.width_bytes / 4) as f64;
                smem_conflict_cycles +=
                    extra * site.half_warp_accesses as f64 * tp.issue_smem as f64 * launch_share;
            }
        }
    }

    // --- Exposed latency: each *dependent* load round stalls the warp for
    // the full trip unless other warps cover it. With `w` resident warps and
    // `max_outstanding_loads` in flight per warp, hiding scales with both.
    let active_warps = occ.active_warps.max(1);
    let hiding = (active_warps as f64) * tp.max_outstanding_loads.max(1) as f64;
    let exposed_per_round = tp.mem_latency as f64 / hiding;
    let exposed_latency_cycles =
        load_rounds as f64 * exposed_per_round * warps_per_block * sm_blocks;

    Ok(KernelCost {
        kernel: kernel.name.clone(),
        driver: cfg.driver,
        mix,
        issue_cycles,
        memory_cycles,
        smem_conflict_cycles,
        exposed_latency_cycles,
        active_warps,
        blocks_per_sm,
    })
}

/// Analyze and estimate in one call.
pub fn estimate(kernel: &Kernel, cfg: &AnalysisConfig) -> Result<KernelCost, CostError> {
    let report = analyze_kernel(kernel, cfg);
    estimate_from_report(kernel, cfg, &report)
}

/// A `[best, worst]` cycle estimate for kernels the exact model refuses —
/// data-dependent loops priced under the trip-count interval the analyzer
/// walked ([`AnalysisConfig::with_trip_budget`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CostBounds {
    /// The optimistic ledger: best-case instruction mix, `transactions_lo`,
    /// conflict-free shared accesses at the unknown sites.
    pub best: KernelCost,
    /// The pessimistic ledger: worst-case mix, `transactions_hi`, full
    /// 16-way serialization at unknown shared sites.
    pub worst: KernelCost,
}

impl CostBounds {
    /// The predicted cycle interval `[best, worst]`.
    pub fn cycle_range(&self) -> (f64, f64) {
        (self.best.total_cycles(), self.worst.total_cycles())
    }

    /// `true` when the interval is degenerate — the kernel was statically
    /// exact and both ledgers priced the same facts.
    pub fn is_tight(&self) -> bool {
        self.cycle_range().0 == self.cycle_range().1
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Bound {
    Best,
    Worst,
}

/// Price one end of the interval. Identical skeleton to
/// [`estimate_from_report`], with per-site facts swapped for their interval
/// endpoints: `transactions_lo`/`transactions_hi` on the memory pipe, and —
/// at shared sites whose addresses never resolved — conflict-free (best) vs
/// fully serialized 16-way (worst) bank behaviour over the worst-case issue
/// count.
fn price_bound(
    kernel: &Kernel,
    cfg: &AnalysisConfig,
    report: &AnalysisReport,
    mix: InstrMix,
    bound: Bound,
) -> Result<KernelCost, CostError> {
    let tp = TimingParams::for_driver(cfg.driver);
    let warps_per_block = cfg.block.div_ceil(32) as f64;
    let occ = report.occupancy.as_ref().ok_or_else(|| {
        CostError::Unanalyzable("launch is not schedulable; no occupancy".to_string())
    })?;
    let blocks_per_sm = occ.active_blocks.max(1);
    let num_sms = cfg.device.num_sms.max(1);
    let sm_blocks = cfg.grid.div_ceil(num_sms).max(1) as f64;
    let per_warp_issue = mix.fp as f64 * tp.issue_alu as f64
        + mix.int as f64 * tp.issue_alu as f64
        + mix.control as f64 * tp.issue_alu as f64
        + mix.sfu as f64 * tp.issue_sfu as f64
        + mix.loads as f64 * tp.issue_mem as f64
        + mix.stores as f64 * tp.issue_mem as f64;
    let issue_cycles = per_warp_issue * warps_per_block * sm_blocks;

    let launch_share = 1.0 / num_sms as f64;
    let mut memory_cycles = 0.0;
    let mut smem_conflict_cycles = 0.0;
    let mut load_rounds = 0u64;
    for site in &report.accesses {
        match site.space {
            MemSpace::Global | MemSpace::Texture => {
                let txns = match bound {
                    Bound::Best => site.transactions_lo,
                    Bound::Worst => site.transactions_hi,
                };
                let per_txn = tp.transaction_busy(site.width_bytes.max(32)) as f64;
                memory_cycles += txns as f64 * per_txn * launch_share;
                if site.is_load {
                    load_rounds += 1;
                }
            }
            MemSpace::Shared => {
                let (degree, half) = if site.exact {
                    (site.bank_degree, site.half_warp_accesses)
                } else {
                    match bound {
                        Bound::Best => (site.width_bytes / 4, 0),
                        Bound::Worst => (16, site.half_warp_accesses_hi),
                    }
                };
                let extra = degree.saturating_sub(site.width_bytes / 4) as f64;
                smem_conflict_cycles += extra * half as f64 * tp.issue_smem as f64 * launch_share;
            }
        }
    }

    let active_warps = occ.active_warps.max(1);
    let hiding = (active_warps as f64) * tp.max_outstanding_loads.max(1) as f64;
    let exposed_per_round = tp.mem_latency as f64 / hiding;
    let exposed_latency_cycles =
        load_rounds as f64 * exposed_per_round * warps_per_block * sm_blocks;

    Ok(KernelCost {
        kernel: kernel.name.clone(),
        driver: cfg.driver,
        mix,
        issue_cycles,
        memory_cycles,
        smem_conflict_cycles,
        exposed_latency_cycles,
        active_warps,
        blocks_per_sm,
    })
}

/// Interval cycle estimate from a precomputed report. The exact model
/// ([`estimate_from_report`]) is untouched: for a statically exact kernel
/// this returns a degenerate interval equal to its answer; for a kernel with
/// data-dependent loops — where the exact model refuses with
/// [`CostError::Count`] — it prices both endpoints of the trip-count
/// interval instead.
pub fn estimate_bounds_from_report(
    kernel: &Kernel,
    cfg: &AnalysisConfig,
    report: &AnalysisReport,
) -> Result<CostBounds, CostError> {
    let (mix_lo, mix_hi) = count::instruction_mix_bounds(kernel, &cfg.params, cfg.trip_budget)?;
    Ok(CostBounds {
        best: price_bound(kernel, cfg, report, mix_lo, Bound::Best)?,
        worst: price_bound(kernel, cfg, report, mix_hi, Bound::Worst)?,
    })
}

/// Analyze and bound in one call.
pub fn estimate_bounds(kernel: &Kernel, cfg: &AnalysisConfig) -> Result<CostBounds, CostError> {
    let report = analyze_kernel(kernel, cfg);
    estimate_bounds_from_report(kernel, cfg, &report)
}

/// Eq. 3 from cycle estimates: predicted speedup of `after` over `before`.
pub fn predicted_speedup(before: &KernelCost, after: &KernelCost) -> Result<f64, CountError> {
    count::eq3_speedup(before.total_cycles(), after.total_cycles())
}

/// A register-demand convenience the cost tables report alongside cycles.
pub fn regs_per_thread(kernel: &Kernel) -> u16 {
    register_demand(kernel).regs_per_thread
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{KernelBuilder, Operand};

    /// A strided scalar copy at lane stride `stride` bytes.
    fn copy_kernel(stride: u32) -> Kernel {
        let mut b = KernelBuilder::new(format!("copy{stride}"));
        let src = b.param();
        let dst = b.param();
        let i = b.global_thread_index();
        let a = b.mad_u(i.into(), Operand::ImmU(stride), src.into());
        let v = b.ld(MemSpace::Global, a, 0, 1)[0];
        let oa = b.mad_u(i.into(), Operand::ImmU(4), dst.into());
        b.st(MemSpace::Global, oa, 0, vec![v.into()]);
        b.finish()
    }

    #[test]
    fn uncoalesced_reads_cost_more_cycles() {
        let cfg = AnalysisConfig::new(2, 64, vec![0x1000, 0x80000]);
        let coalesced = estimate(&copy_kernel(4), &cfg).unwrap();
        let strided = estimate(&copy_kernel(28), &cfg).unwrap();
        assert!(
            strided.total_cycles() > coalesced.total_cycles(),
            "28B stride {} should out-cost 4B stride {}",
            strided.total_cycles(),
            coalesced.total_cycles()
        );
        assert!(strided.memory_cycles > coalesced.memory_cycles);
    }

    #[test]
    fn fewer_instructions_cost_fewer_issue_cycles() {
        let mut b = KernelBuilder::new("busy");
        let dst = b.param();
        let i = b.global_thread_index();
        let mut acc = b.mov(Operand::ImmF(1.0));
        for _ in 0..32 {
            acc = b.fmul(acc.into(), acc.into());
        }
        let oa = b.mad_u(i.into(), Operand::ImmU(4), dst.into());
        b.st(MemSpace::Global, oa, 0, vec![acc.into()]);
        let busy = b.finish();
        let cfg = AnalysisConfig::new(1, 64, vec![0x80000]);
        let lean = estimate(
            &copy_kernel(4),
            &AnalysisConfig::new(1, 64, vec![0x1000, 0x80000]),
        )
        .unwrap();
        let fat = estimate(&busy, &cfg).unwrap();
        assert!(fat.issue_cycles > lean.issue_cycles);
    }

    #[test]
    fn bounds_collapse_to_exact_estimate_on_affine_kernels() {
        let cfg = AnalysisConfig::new(2, 64, vec![0x1000, 0x80000]);
        let k = copy_kernel(4);
        let exact = estimate(&k, &cfg).unwrap();
        let bounds = estimate_bounds(&k, &cfg).unwrap();
        assert!(bounds.is_tight());
        assert_eq!(bounds.best.total_cycles(), exact.total_cycles());
        assert_eq!(bounds.worst.mix, exact.mix);
    }

    #[test]
    fn data_dependent_loops_get_an_interval_where_exact_refuses() {
        use crate::ir::{AluOp, CmpOp};
        let mut b = KernelBuilder::new("walk");
        let buf = b.param();
        let i = b.global_thread_index();
        let a = b.mad_u(i.into(), Operand::ImmU(4), buf.into());
        let x = b.ld(MemSpace::Global, a, 0, 1)[0];
        b.do_while(|b| {
            b.alu_into(x, AluOp::ISub, x.into(), Operand::ImmU(1));
            b.setp(CmpOp::UNe, x.into(), Operand::ImmU(0))
        });
        b.st(MemSpace::Global, a, 0, vec![x.into()]);
        let k = b.finish();
        let cfg = AnalysisConfig::new(1, 32, vec![0x1000]).with_trip_budget(64);
        assert!(matches!(estimate(&k, &cfg), Err(CostError::Count(_))));
        let bounds = estimate_bounds(&k, &cfg).unwrap();
        let (lo, hi) = bounds.cycle_range();
        assert!(
            lo > 0.0 && lo < hi,
            "expected widening interval, got [{lo}, {hi}]"
        );
        assert!(bounds.worst.issue_cycles > bounds.best.issue_cycles);
    }

    #[test]
    fn data_dependent_kernels_error_gracefully() {
        let mut b = KernelBuilder::new("dd");
        let buf = b.param();
        let n = b.ld(MemSpace::Global, buf, 0, 1)[0];
        b.for_loop(Operand::ImmU(0), n.into(), 1, |b, _| {
            b.mov(Operand::ImmF(0.0));
        });
        let k = b.finish();
        let err = estimate(&k, &AnalysisConfig::new(1, 32, vec![0x1000])).unwrap_err();
        assert!(matches!(err, CostError::Count(_)), "{err}");
    }
}
