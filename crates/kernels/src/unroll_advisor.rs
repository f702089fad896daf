//! The Sec. IV-A unrolling analysis as an advisor.
//!
//! For a tiled kernel with innermost trip count K, [`unroll_sweep`]
//! evaluates every unroll factor dividing K: per-element instruction budget
//! (measured on the transformed IR, not estimated), Eq. 3 predicted speedup
//! and register demand. [`advise_unroll`] adds the resulting occupancy and
//! the cost model's predicted cycles, then recommends the factor with the
//! best predicted time, breaking ties toward smaller code. The `table_unroll`
//! experiment prints the same sweep at its own problem size.

use gpu_sim::analyze::{cost, AnalysisConfig};
use gpu_sim::ir::count::{dynamic_instructions, eq3_speedup};
use gpu_sim::ir::regalloc::register_demand;
use gpu_sim::ir::Kernel;
use gpu_sim::occupancy::{occupancy, Occupancy};
use gpu_sim::DeviceConfig;
use particle_layouts::Layout;

use crate::force::{build_force_kernel, ForceKernelConfig};
use crate::lintset::fake_force_params;

/// One factor of the unroll sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The factor (1 = rolled; the block size = full unroll).
    pub factor: u32,
    /// The force kernel unrolled by `factor`.
    pub kernel: Kernel,
    /// Per-element dynamic instructions (thread 0 at the swept size).
    pub instrs_per_element: f64,
    /// Eq. 3 predicted speedup over factor 1.
    pub eq3_speedup: f64,
    /// Registers per thread after the transformation.
    pub regs: u16,
}

/// Dynamic instructions of a force kernel's thread 0 per body, at `n`
/// padded bodies.
pub fn instrs_per_element(kernel: &Kernel, n: u32) -> f64 {
    let mut params = vec![0u32; kernel.n_params as usize];
    params[kernel.n_params as usize - 3] = n; // ..., out, n, eps, smem0
    dynamic_instructions(kernel, &params).expect("force kernel loop bounds are launch constants")
        as f64
        / n as f64
}

/// Sweep the force kernel at a layout, block size and ICM setting over every
/// power-of-two unroll factor dividing `block`, ascending, at `n` padded
/// bodies.
pub fn unroll_sweep(layout: Layout, block: u32, icm: bool, n: u32) -> Vec<SweepRow> {
    let mut rows: Vec<SweepRow> = Vec::new();
    for factor in (0..=block.ilog2())
        .map(|e| 1 << e)
        .filter(|f| block.is_multiple_of(*f))
    {
        let kernel = build_force_kernel(ForceKernelConfig {
            layout,
            block,
            unroll: factor,
            icm,
        });
        let per_elem = instrs_per_element(&kernel, n);
        let rolled = rows.first().map_or(per_elem, |r| r.instrs_per_element);
        rows.push(SweepRow {
            factor,
            eq3_speedup: eq3_speedup(rolled, per_elem).expect("instruction budgets are positive"),
            regs: register_demand(&kernel).regs_per_thread,
            instrs_per_element: per_elem,
            kernel,
        });
    }
    rows
}

/// Evaluation of one unroll factor.
#[derive(Debug, Clone, PartialEq)]
pub struct UnrollOption {
    /// The factor.
    pub factor: u32,
    /// Per-element dynamic instructions (thread 0, reference size).
    pub instrs_per_element: f64,
    /// Eq. 3 predicted speedup over factor 1.
    pub eq3_speedup: f64,
    /// Registers per thread after the transformation.
    pub regs: u16,
    /// Occupancy at this register demand.
    pub occupancy: Occupancy,
    /// Whole-kernel predicted cycles from the full cost model
    /// ([`gpu_sim::analyze::cost::estimate`]) at a reference 2-block
    /// launch; `None` when the kernel is not exactly analyzable there.
    pub predicted_cycles: Option<f64>,
}

/// The advisor's output.
#[derive(Debug, Clone, PartialEq)]
pub struct UnrollAdvice {
    /// Every factor evaluated, ascending.
    pub options: Vec<UnrollOption>,
    /// Index of the recommended option.
    pub recommended: usize,
}

impl UnrollAdvice {
    /// The recommended option.
    pub fn best(&self) -> &UnrollOption {
        &self.options[self.recommended]
    }
}

/// Analyze unroll factors for the force kernel at a given layout/block/ICM
/// setting on a device.
pub fn advise_unroll(dev: &DeviceConfig, layout: Layout, block: u32, icm: bool) -> UnrollAdvice {
    // Price each transformed kernel through the same cost model the
    // layout/schedule synthesizer ranks candidates with, at a small
    // reference launch (2 blocks, one tile pass per thread).
    let acfg = AnalysisConfig::new(2, block, fake_force_params(layout, 2 * block));
    // Reference size: per-element budgets are size-stable.
    let options: Vec<UnrollOption> = unroll_sweep(layout, block, icm, block * 64)
        .into_iter()
        .map(|row| {
            let k = &row.kernel;
            UnrollOption {
                factor: row.factor,
                instrs_per_element: row.instrs_per_element,
                eq3_speedup: row.eq3_speedup,
                regs: row.regs,
                occupancy: occupancy(dev, block, row.regs as u32, k.smem_bytes),
                predicted_cycles: cost::estimate(k, &acfg).ok().map(|c| c.total_cycles()),
            }
        })
        .collect();
    // Recommend the cheapest kernel under the full cost model (the same
    // yardstick `analyze::synth` ranks schedules with), preferring smaller
    // factors on a tie; fall back to the Eq. 3 × occupancy score when the
    // cost model abstains.
    let mut recommended = 0;
    match options
        .iter()
        .map(|o| o.predicted_cycles)
        .collect::<Option<Vec<f64>>>()
    {
        Some(cycles) => {
            for (i, &c) in cycles.iter().enumerate() {
                if c + 1e-9 < cycles[recommended] {
                    recommended = i;
                }
            }
        }
        None => {
            let base_occ = options[0].occupancy.fraction();
            let mut best_score = 0.0f64;
            for (i, o) in options.iter().enumerate() {
                let score = o.eq3_speedup * (o.occupancy.fraction() / base_occ).max(1.0);
                if score > best_score + 1e-9 {
                    best_score = score;
                    recommended = i;
                }
            }
        }
    }
    UnrollAdvice {
        options,
        recommended,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unroll_sweep_is_monotone_in_instructions() {
        let rows = unroll_sweep(Layout::SoAoaS, 128, false, 128 * 64);
        for w in rows.windows(2) {
            assert!(
                w[1].instrs_per_element <= w[0].instrs_per_element,
                "more unrolling must not add instructions: {} -> {}",
                w[0].factor,
                w[1].factor
            );
        }
        // Full unroll hits the paper's ~18–20 % band.
        let full = rows.last().unwrap();
        let rolled = &rows[0];
        let reduction = 1.0 - full.instrs_per_element / rolled.instrs_per_element;
        assert!(
            (0.15..0.25).contains(&reduction),
            "reduction {reduction:.3}"
        );
        assert!(full.eq3_speedup > 1.15 && full.eq3_speedup < 1.3);
    }

    #[test]
    fn full_unroll_is_recommended_for_the_gravit_kernel() {
        let dev = DeviceConfig::g8800gtx();
        let advice = advise_unroll(&dev, Layout::SoAoaS, 128, false);
        assert_eq!(advice.options.len(), 8); // 1,2,4,...,128
        let best = advice.best();
        assert_eq!(best.factor, 128, "the paper's conclusion: unroll fully");
        assert!(best.eq3_speedup > 1.15 && best.eq3_speedup < 1.3);
    }

    #[test]
    fn speedup_is_monotone_in_factor() {
        let dev = DeviceConfig::g8800gtx();
        let advice = advise_unroll(&dev, Layout::SoAoaS, 128, false);
        for w in advice.options.windows(2) {
            assert!(
                w[1].eq3_speedup >= w[0].eq3_speedup - 1e-9,
                "factor {} worse than {}",
                w[1].factor,
                w[0].factor
            );
        }
    }

    #[test]
    fn register_effects_of_unrolling() {
        let dev = DeviceConfig::g8800gtx();
        let advice = advise_unroll(&dev, Layout::SoAoaS, 128, true);
        let rolled = advice.options[0].regs;
        // Partial unrolling costs a couple of extra registers (the CSE'd
        // address base shared by the copies, plus copy-boundary temporaries)
        // — the classic register-pressure cost of partial unrolling.
        for o in &advice.options {
            assert!(
                o.regs <= rolled + 2,
                "factor {} uses {} vs rolled {}",
                o.factor,
                o.regs,
                rolled
            );
        }
        // Full unroll frees the iterator — the paper's point.
        assert!(advice.options.last().unwrap().regs < rolled);
    }
}
