//! Integration of the optimization pipeline with the experiment harness:
//! the paper's headline claims, asserted end to end as *shape* invariants
//! (see EXPERIMENTS.md for the measured-vs-paper tables).

use bench::gravit_harness::model_frame;
use bench::membench_harness::{fig11_speedups, run_membench};
use bench::tables::occupancy_ladder;
use gpu_kernels::force::OptLevel;
use gpu_sim::DriverModel;
use gravit_core::unroll_advisor::unroll_sweep;
use particle_layouts::Layout;

/// Fig. 10/11 shape: under every driver, the paper's ordering holds —
/// unoptimized slowest, SoAoaS fastest, SoA strictly between.
#[test]
fn fig10_shape_holds_under_every_driver() {
    for driver in DriverModel::ALL {
        let unopt = run_membench(Layout::Unopt, driver).avg_cycles_per_read;
        let soa = run_membench(Layout::SoA, driver).avg_cycles_per_read;
        let aoas = run_membench(Layout::AoaS, driver).avg_cycles_per_read;
        let soaoas = run_membench(Layout::SoAoaS, driver).avg_cycles_per_read;
        assert!(soa < unopt, "{driver}: SoA {soa} !< unopt {unopt}");
        assert!(
            aoas < soa,
            "{driver}: AoaS {aoas} !< SoA {soa} (alignment beats pure coalescing)"
        );
        assert!(soaoas < aoas, "{driver}: SoAoaS {soaoas} !< AoaS {aoas}");
    }
}

/// The CUDA 1.1 anomaly (paper Sec. III-A): the gap between the unoptimized
/// and optimized layouts shrinks markedly versus CUDA 1.0.
#[test]
fn cuda11_flattens_the_unoptimized_penalty() {
    let sweep: Vec<_> = DriverModel::ALL
        .iter()
        .flat_map(|&d| Layout::ALL.map(|l| run_membench(l, d)))
        .collect();
    let ratio = |d: DriverModel| {
        let get = |l: Layout| {
            sweep
                .iter()
                .find(|r| r.driver == d && r.layout == l)
                .unwrap()
                .avg_cycles_per_read
        };
        get(Layout::Unopt) / get(Layout::SoAoaS)
    };
    assert!(
        ratio(DriverModel::Cuda11) < ratio(DriverModel::Cuda10),
        "CUDA 1.1 should compress the spread: {} vs {}",
        ratio(DriverModel::Cuda11),
        ratio(DriverModel::Cuda10)
    );
    // The sharper 1.1 signature: coalescing alone (SoA) stops paying — its
    // speedup collapses toward 1 while the vector layouts keep theirs
    // ("the impact on the performance has a completely different pattern").
    let sp = fig11_speedups(&sweep);
    let gain = |d: DriverModel, l: Layout| {
        sp.iter()
            .find(|(dd, ll, _)| *dd == d && *ll == l)
            .unwrap()
            .2
    };
    assert!(
        gain(DriverModel::Cuda11, Layout::SoA) < 0.6 * gain(DriverModel::Cuda10, Layout::SoA)
            || gain(DriverModel::Cuda11, Layout::SoA) < 1.15,
        "SoA's advantage should flatten under CUDA 1.1"
    );
    // Fig. 11 companion: speedups are > 1 everywhere.
    assert!(sp.iter().all(|(_, _, s)| *s > 1.0));
}

/// Sec. IV-A: the unroll ladder's instruction reduction sits in the paper's
/// band and the register ladder is exactly 18 → 17 (+ICM → 16).
#[test]
fn unroll_and_register_ladders_match_paper() {
    let rows = unroll_sweep(Layout::SoAoaS, 128, false, 128 * 256);
    let rolled = &rows[0];
    let full = rows.last().unwrap();
    assert_eq!(rolled.regs, 18);
    assert_eq!(full.regs, 17);
    let reduction = 1.0 - full.instrs_per_element / rolled.instrs_per_element;
    assert!((0.15..0.25).contains(&reduction), "reduction {reduction}");

    let ladder = occupancy_ladder();
    assert_eq!(
        ladder.iter().map(|r| r.regs).collect::<Vec<_>>(),
        vec![18, 17, 16, 16],
        "the paper's register story"
    );
    assert_eq!(ladder.last().unwrap().warps, 16, "67% of 24 warps");
}

/// The Sec. IV-A sweep's rows at the `table_unroll` size (`128 · 512`) and
/// at this file's (`128 · 256`): an FNV-1a digest of each row's factor,
/// per-element instructions, Eq. 3 prediction and registers.
#[test]
fn unroll_sweep_rows_are_pinned() {
    for (n, pin) in [
        (128 * 512, 0xa0c9850d5233453d),
        (128 * 256, 0x2d6d0e3e1f1ce849),
    ] {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in unroll_sweep(Layout::SoAoaS, 128, false, n) {
            for v in [
                u64::from(r.factor),
                r.instrs_per_element.to_bits(),
                r.eq3_speedup.to_bits(),
                u64::from(r.regs),
            ] {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, pin, "n = {n}");
    }
}

/// Fig. 12 / abstract: the full optimization ladder is worth ≈ 1.27× over the
/// baseline GPU port, dominated by the unroll step, with layout steps small.
#[test]
fn fig12_speedup_decomposition() {
    let n = 200_000;
    let t = |lvl: OptLevel| model_frame(lvl, n, DriverModel::Cuda10).total_s();
    let base = t(OptLevel::Baseline);
    let soaoas = t(OptLevel::SoAoaS);
    let unrolled = t(OptLevel::SoAoaSUnrolled);
    let full = t(OptLevel::Full);

    let layout_gain = base / soaoas;
    let unroll_gain = soaoas / unrolled;
    let occ_gain = unrolled / full;
    let total = base / full;

    assert!(
        (1.0..1.10).contains(&layout_gain),
        "layout gain {layout_gain} (paper: a few %)"
    );
    assert!(
        (1.10..1.30).contains(&unroll_gain),
        "unroll gain {unroll_gain} (paper: ~18%)"
    );
    assert!(
        (1.0..1.12).contains(&occ_gain),
        "occupancy gain {occ_gain} (paper: ~6%)"
    );
    assert!(
        (1.15..1.40).contains(&total),
        "total {total} (paper: 1.27x)"
    );
}

/// Frame time is transfer-bound at small N and kernel-bound at large N; the
/// kernel share must dominate at the paper's sizes.
#[test]
fn kernel_dominates_transfers_at_paper_sizes() {
    let p = model_frame(OptLevel::Full, 40_000, DriverModel::Cuda10);
    assert!(p.kernel_s > 10.0 * (p.upload_s + p.download_s));
}
