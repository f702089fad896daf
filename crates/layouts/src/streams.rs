//! Half-warp address streams and transaction analysis.
//!
//! Turns a [`ReadPlan`] into the exact per-lane address streams a half-warp
//! generates, and runs them through the [`gpu_sim::coalesce`] protocols.
//! This is the direct reproduction of the paper's Figures 3, 5, 7 and 9
//! (transaction diagrams) and the source of the per-layout transaction table
//! (the `table_transactions_*` results of `bench::results`).

use crate::plan::{FieldRead, Layout, ReadPlan};
use gpu_sim::coalesce::{coalesce_half_warp, AccessWidth};
use gpu_sim::DriverModel;

/// The address stream of one read of the plan, for one half-warp where lane
/// `k` handles particle `first + k`.
pub fn half_warp_addresses(
    plan: &ReadPlan,
    bases: &[u64],
    read_idx: usize,
    first: u64,
) -> Vec<Option<u64>> {
    let r = plan.reads[read_idx];
    (0..16)
        .map(|k| Some(r.address(bases[r.buffer], first + k)))
        .collect()
}

/// Transaction analysis of one layout under one driver protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct TransactionAnalysis {
    /// Layout analyzed.
    pub layout: Layout,
    /// Driver protocol used.
    pub driver: DriverModel,
    /// Load instructions per particle fetch.
    pub reads: usize,
    /// DRAM transactions per half-warp per particle fetch.
    pub transactions: usize,
    /// Bus bytes per half-warp per particle fetch.
    pub bus_bytes: u64,
    /// Useful bytes (what the threads asked for).
    pub useful_bytes: u64,
    /// Whether every read coalesced under the strict rule.
    pub all_coalesced: bool,
}

impl TransactionAnalysis {
    /// Bus efficiency: useful bytes over transferred bytes.
    pub fn efficiency(&self) -> f64 {
        self.useful_bytes as f64 / self.bus_bytes as f64
    }
}

/// Analyze a full-record fetch (all seven floats) by a half-warp whose lane
/// `k` handles particle `k`, with buffers at synthetic 1 MiB-spaced aligned
/// bases.
pub fn analyze_layout(layout: Layout, driver: DriverModel) -> TransactionAnalysis {
    analyze_plan(&layout.read_plan_all(), driver)
}

/// As [`analyze_layout`] but for an arbitrary plan (e.g. the posmass plan).
pub fn analyze_plan(plan: &ReadPlan, driver: DriverModel) -> TransactionAnalysis {
    let cost = price_reads(&plan.reads, driver);
    TransactionAnalysis {
        layout: plan.layout,
        driver,
        reads: plan.reads.len(),
        transactions: cost.transactions,
        bus_bytes: cost.bus_bytes,
        useful_bytes: cost.useful_bytes,
        all_coalesced: cost.all_coalesced,
    }
}

/// What a half-warp's reads cost on the bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadsCost {
    /// DRAM transactions.
    pub transactions: usize,
    /// Bus bytes.
    pub bus_bytes: u64,
    /// Useful bytes (what the threads asked for).
    pub useful_bytes: u64,
    /// Whether every read coalesced under the strict rule.
    pub all_coalesced: bool,
}

/// Price `reads` issued by a half-warp whose lane `k` handles particle `k`,
/// with buffer `b` at the synthetic aligned base `(b + 1) << 20`.
pub fn price_reads(reads: &[FieldRead], driver: DriverModel) -> ReadsCost {
    let mut cost = ReadsCost {
        transactions: 0,
        bus_bytes: 0,
        useful_bytes: 0,
        all_coalesced: true,
    };
    for r in reads {
        let base = (r.buffer as u64 + 1) << 20;
        let addrs: Vec<Option<u64>> = (0..16).map(|k| Some(r.address(base, k))).collect();
        let width = AccessWidth::from_bytes(r.words * 4).expect("plan width");
        let res = coalesce_half_warp(driver, &addrs, width);
        cost.transactions += res.count();
        cost.bus_bytes += res.total_bytes();
        cost.useful_bytes += 16 * width.bytes();
        cost.all_coalesced &= res.coalesced;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline counts the paper's Figures 3/5/7/9 illustrate, under the
    /// CC-1.0 protocol the figures assume.
    #[test]
    fn paper_figure_transaction_counts() {
        let t = |l: Layout| analyze_layout(l, DriverModel::Cuda10);

        let unopt = t(Layout::Unopt); // Fig. 3
        assert_eq!(unopt.reads, 7);
        assert_eq!(unopt.transactions, 7 * 16);
        assert!(!unopt.all_coalesced);

        let soa = t(Layout::SoA); // Fig. 5
        assert_eq!(soa.reads, 7);
        assert_eq!(soa.transactions, 7);
        assert!(soa.all_coalesced);

        let aoas = t(Layout::AoaS); // Fig. 7
        assert_eq!(aoas.reads, 2);
        assert_eq!(aoas.transactions, 2 * 16);
        assert!(!aoas.all_coalesced);

        let soaoas = t(Layout::SoAoaS); // Fig. 9
        assert_eq!(soaoas.reads, 2);
        assert_eq!(
            soaoas.transactions, 4,
            "two coalesced float4 reads = 2×2 128B transactions"
        );
        assert!(soaoas.all_coalesced);
    }

    #[test]
    fn soaoas_has_best_bus_efficiency_among_vector_layouts() {
        let aoas = analyze_layout(Layout::AoaS, DriverModel::Cuda10);
        let soaoas = analyze_layout(Layout::SoAoaS, DriverModel::Cuda10);
        assert!(soaoas.efficiency() > aoas.efficiency());
        assert!(
            (soaoas.efficiency() - 1.0).abs() < 1e-12,
            "SoAoaS wastes no bus bytes"
        );
    }

    #[test]
    fn cuda22_softens_the_unopt_penalty() {
        let strict = analyze_layout(Layout::Unopt, DriverModel::Cuda10);
        let seg = analyze_layout(Layout::Unopt, DriverModel::Cuda22);
        assert!(seg.transactions < strict.transactions);
        assert!(seg.bus_bytes <= strict.bus_bytes);
    }

    #[test]
    fn posmass_plan_rewards_grouping() {
        // The force kernel's hot fetch: SoAoaS moves half the bus bytes AoaS
        // does, because mass lives with position.
        let aoas = analyze_plan(&Layout::AoaS.read_plan_posmass(), DriverModel::Cuda10);
        let soaoas = analyze_plan(&Layout::SoAoaS.read_plan_posmass(), DriverModel::Cuda10);
        assert!(soaoas.bus_bytes * 2 <= aoas.bus_bytes);
        assert_eq!(soaoas.transactions, 2);
    }

    #[test]
    fn streams_respect_first_particle_offset() {
        let plan = Layout::SoAoaS.read_plan_all();
        let bases = vec![0u64, 1 << 20];
        let a0 = half_warp_addresses(&plan, &bases, 0, 0);
        let a1 = half_warp_addresses(&plan, &bases, 0, 16);
        assert_eq!(a1[0].unwrap() - a0[0].unwrap(), 16 * 16);
    }
}
