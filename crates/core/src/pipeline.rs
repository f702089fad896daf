//! The full optimization ladder, programmatically.
//!
//! [`optimization_ladder`] evaluates each of the paper's optimization levels
//! (Fig. 12) on the machine model and reports the per-step properties —
//! layout traffic, instruction budget, registers, occupancy — in one
//! structure. This is the "what did each optimization buy" view that the
//! examples and the gravit application print.

use gpu_kernels::force::{build_force_kernel, OptLevel};
use gpu_sim::ir::regalloc::register_demand;
use gpu_sim::occupancy::{occupancy, Occupancy};
use gpu_sim::DeviceConfig;
use gpu_sim::DriverModel;
use particle_layouts::streams::analyze_plan;

use crate::unroll_advisor::instrs_per_element;

/// One step of the ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderStep {
    /// The optimization level.
    pub level: OptLevel,
    /// Per-half-warp transactions to fetch the hot fields of one tile element.
    pub tile_fetch_transactions: usize,
    /// Dynamic instructions per element of the inner loop (thread 0 at the
    /// reference size).
    pub instrs_per_element: f64,
    /// Registers per thread.
    pub regs: u16,
    /// Occupancy.
    pub occupancy: Occupancy,
}

/// Evaluate the whole ladder on a device under a driver revision.
pub fn optimization_ladder(dev: &DeviceConfig, driver: DriverModel) -> Vec<LadderStep> {
    OptLevel::ALL
        .iter()
        .map(|&level| {
            let cfg = level.config();
            let kernel = build_force_kernel(cfg);
            let regs = register_demand(&kernel).regs_per_thread;
            LadderStep {
                level,
                tile_fetch_transactions: analyze_plan(&cfg.layout.read_plan_posmass(), driver)
                    .transactions,
                instrs_per_element: instrs_per_element(&kernel, cfg.block * 64),
                regs,
                occupancy: occupancy(dev, cfg.block, regs as u32, kernel.smem_bytes),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_improves_monotonically_where_the_paper_says() {
        let dev = DeviceConfig::g8800gtx();
        let steps = optimization_ladder(&dev, DriverModel::Cuda10);
        assert_eq!(steps.len(), 6);
        // Layout steps cut tile-fetch transactions.
        assert!(steps[3].tile_fetch_transactions < steps[0].tile_fetch_transactions);
        // The unroll step cuts instructions.
        assert!(steps[4].instrs_per_element < steps[3].instrs_per_element);
        // The final step raises occupancy.
        assert!(steps[5].occupancy.fraction() > steps[4].occupancy.fraction());
        // And the register ladder is 18 → 17 → 16.
        assert_eq!(steps[3].regs, 18);
        assert_eq!(steps[4].regs, 17);
        assert_eq!(steps[5].regs, 16);
    }

    #[test]
    fn layout_steps_do_not_change_the_inner_loop() {
        let dev = DeviceConfig::g8800gtx();
        let steps = optimization_ladder(&dev, DriverModel::Cuda10);
        // Baseline vs SoAoaS: same rolled inner loop, different tile fetch.
        // (The instruction difference between scalar/vector tile loads is in
        // the per-tile term, which is tiny per element.)
        let diff = (steps[0].instrs_per_element - steps[3].instrs_per_element).abs();
        assert!(
            diff < 0.2,
            "layout must not touch the hot loop (diff {diff})"
        );
    }
}
