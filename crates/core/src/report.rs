//! A machine-readable optimization report.
//!
//! Bundles everything the paper's procedure produces for a given struct
//! schema and kernel shape — the layout plan, the unroll analysis, the
//! occupancy ladder — into one serializable structure, so downstream tooling
//! (CI dashboards, the `gravit report` subcommand) can consume the advisor
//! without re-running the analyses.

use crate::layout_advisor::{optimize_layout, LayoutPlan, StructSchema};
use crate::pipeline::optimization_ladder;
use crate::unroll_advisor::advise_unroll;
use gpu_sim::{DeviceConfig, DriverModel};
use particle_layouts::Layout;
use serde::Serialize;

/// One evaluated unroll factor, serialization-friendly.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UnrollRow {
    /// The factor.
    pub factor: u32,
    /// Instructions per inner element.
    pub instrs_per_element: f64,
    /// Eq. 3 predicted speedup over rolled.
    pub eq3_speedup: f64,
    /// Registers per thread.
    pub regs: u16,
    /// Occupancy percent.
    pub occupancy_pct: f64,
}

/// One optimization-ladder step, serialization-friendly.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LadderRow {
    /// Level label.
    pub level: String,
    /// Per-half-warp transactions for the hot tile fetch.
    pub tile_fetch_transactions: usize,
    /// Instructions per inner element.
    pub instrs_per_element: f64,
    /// Registers per thread.
    pub regs: u16,
    /// Occupancy percent.
    pub occupancy_pct: f64,
}

/// The full report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OptimizationReport {
    /// Device the analysis targeted.
    pub device: String,
    /// Driver revision of the memory model.
    pub driver: String,
    /// The layout plan for the schema.
    pub layout: LayoutPlan,
    /// Unroll analysis of the tuned kernel.
    pub unroll: Vec<UnrollRow>,
    /// Recommended unroll factor.
    pub recommended_unroll: u32,
    /// The Fig. 12 optimization ladder.
    pub ladder: Vec<LadderRow>,
}

/// Produce the full report for a schema on a device.
pub fn build_report(
    dev: &DeviceConfig,
    driver: DriverModel,
    schema: &StructSchema,
) -> OptimizationReport {
    let layout = optimize_layout(schema);
    let advice = advise_unroll(dev, Layout::SoAoaS, 128, true);
    let unroll = advice
        .options
        .iter()
        .map(|o| UnrollRow {
            factor: o.factor,
            instrs_per_element: o.instrs_per_element,
            eq3_speedup: o.eq3_speedup,
            regs: o.regs,
            occupancy_pct: o.occupancy.percent(),
        })
        .collect();
    let ladder = optimization_ladder(dev, driver)
        .into_iter()
        .map(|s| LadderRow {
            level: s.level.label().to_string(),
            tile_fetch_transactions: s.tile_fetch_transactions,
            instrs_per_element: s.instrs_per_element,
            regs: s.regs,
            occupancy_pct: s.occupancy.percent(),
        })
        .collect();
    OptimizationReport {
        device: dev.name.clone(),
        driver: driver.label().to_string(),
        layout,
        unroll,
        recommended_unroll: advice.best().factor,
        ladder,
    }
}

impl OptimizationReport {
    /// Serialize as pretty JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_complete_and_serializable() {
        let dev = DeviceConfig::g8800gtx();
        let r = build_report(&dev, DriverModel::Cuda10, &StructSchema::gravit_particle());
        assert_eq!(r.layout.groups.len(), 2);
        assert_eq!(r.recommended_unroll, 128);
        assert_eq!(r.ladder.len(), 6);
        assert_eq!(r.unroll.len(), 8);
        let json = r.to_json().unwrap();
        assert!(json.contains("\"recommended_unroll\": 128"));
        assert!(json.contains("SoAoaS"));
        // Round-trippable enough for tooling: valid JSON.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v["ladder"].as_array().unwrap().len() == 6);
    }
}
