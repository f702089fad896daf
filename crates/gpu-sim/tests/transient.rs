//! Transient-fault acceptance tests: every injection class of
//! [`gpu_sim::transient::TransientFaultPlan`] must surface as its typed
//! [`FaultKind`], attributed to the launch, and — the core safety property —
//! a chaos launch must never return *silently wrong* data: either the run
//! errors with a transient fault, or its results are bit-identical to the
//! fault-free run.

use gpu_sim::exec::functional::{configured_threads, run_grid, run_lowered_full};
use gpu_sim::exec::timed::time_resident;
use gpu_sim::ir::lower::lower;
use gpu_sim::ir::{Kernel, KernelBuilder, MemSpace, Operand, SpecialReg};
use gpu_sim::mem::GlobalMemory;
use gpu_sim::transient::{run_grid_chaos_lowered, FaultRates, LaunchFault, TransientFaultPlan};
use gpu_sim::{DeviceConfig, DriverModel, FaultKind, TimingParams};

/// `out[tid] = in[tid]` over one block.
fn copy_kernel() -> Kernel {
    let mut b = KernelBuilder::new("chaos_copy");
    let input = b.param();
    let out = b.param();
    let tid = b.special(SpecialReg::TidX);
    let src = b.mad_u(tid.into(), Operand::ImmU(4), input.into());
    let v = b.ld(MemSpace::Global, src, 0, 1)[0];
    let dst = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
    b.st(MemSpace::Global, dst, 0, vec![v.into()]);
    b.finish()
}

fn setup(threads: u32) -> (GlobalMemory, u32, u32) {
    let mut gmem = GlobalMemory::new(1 << 16);
    let data: Vec<f32> = (0..threads).map(|i| i as f32).collect();
    let d = gmem.alloc_f32(&data).expect("input fits");
    let out = gmem.alloc_zeroed(threads as u64 * 4).expect("output fits");
    (gmem, d.0 as u32, out.0 as u32)
}

#[test]
fn injected_launch_failure_is_typed_and_attributed() {
    let k = copy_kernel();
    let (mut gmem, d, out) = setup(32);
    let mut plan = TransientFaultPlan::new(
        3,
        FaultRates {
            bit_flip: 0.0,
            launch_failure: 1.0,
            hang: 0.0,
        },
    );
    let e = run_grid_chaos_lowered(
        &lower(&k),
        1,
        32,
        &[d, out],
        &mut gmem,
        &mut plan,
        None,
        None,
    )
    .expect_err("launch must transiently fail");
    assert!(
        matches!(e.kind, FaultKind::TransientLaunch { .. }),
        "kind: {:?}",
        e.kind
    );
    assert!(e.kind.is_transient());
    assert_eq!(e.site.kernel.as_deref(), Some("chaos_copy"));
    // The memory was never touched: a plain retry on the same gmem succeeds.
    plan = TransientFaultPlan::quiet();
    run_grid_chaos_lowered(
        &lower(&k),
        1,
        32,
        &[d, out],
        &mut gmem,
        &mut plan,
        None,
        None,
    )
    .expect("retry succeeds");
}

#[test]
fn injected_hang_is_killed_by_the_watchdog() {
    let k = copy_kernel();
    let (mut gmem, d, out) = setup(32);
    let mut plan = TransientFaultPlan::new(
        5,
        FaultRates {
            bit_flip: 0.0,
            launch_failure: 0.0,
            hang: 1.0,
        },
    );
    // Generous caller watchdog: the injected hang must still starve the run.
    let e = run_grid_chaos_lowered(
        &lower(&k),
        1,
        32,
        &[d, out],
        &mut gmem,
        &mut plan,
        None,
        Some(1 << 20),
    )
    .expect_err("hung launch must be killed");
    match e.kind {
        FaultKind::WatchdogTimeout { budget, executed } => {
            assert!(budget <= gpu_sim::transient::HANG_BUDGET);
            assert!(
                executed >= budget,
                "the kill fires only once the budget is exhausted"
            );
        }
        other => panic!("expected WatchdogTimeout, got {other:?}"),
    }
    assert!(e.kind.is_transient());
}

/// The safety property of ECC under random strikes: across many seeded
/// single-bit upsets, every chaos launch either (a) fails with a typed
/// transient fault, or (b) returns results bit-identical to the fault-free
/// run. A strike is never allowed to leak silently wrong data.
#[test]
fn bit_flips_never_produce_silently_wrong_results() {
    let k = copy_kernel();
    let expected: Vec<f32> = (0..32).map(|i| i as f32).collect();
    let mut detected = 0;
    let mut clean = 0;
    for seed in 0..200u64 {
        let (mut gmem, d, out) = setup(32);
        let mut plan = TransientFaultPlan::new(
            seed,
            FaultRates {
                bit_flip: 1.0,
                launch_failure: 0.0,
                hang: 0.0,
            },
        );
        match run_grid_chaos_lowered(
            &lower(&k),
            1,
            32,
            &[d, out],
            &mut gmem,
            &mut plan,
            None,
            None,
        ) {
            Ok(_) => {
                // Strike hit a redzone / was healed by a full overwrite:
                // results must be exactly right.
                let got = gmem
                    .read_f32(gpu_sim::mem::DevicePtr(out as u64), 32)
                    .expect("readable");
                assert_eq!(
                    got, expected,
                    "seed {seed}: surviving run must be bit-exact"
                );
                clean += 1;
            }
            Err(e) => {
                assert!(
                    matches!(
                        e.kind,
                        FaultKind::EccMismatch { .. } | FaultKind::UninitializedRead { .. }
                    ),
                    "seed {seed}: unexpected fault {:?}",
                    e.kind
                );
                detected += 1;
            }
        }
    }
    // Both outcomes must actually occur across 200 strikes — otherwise the
    // test is vacuous.
    assert!(detected > 0, "no strike was ever detected");
    assert!(clean > 0, "no strike ever landed harmlessly");
}

#[test]
fn ecc_detection_reports_the_struck_word() {
    // Deterministically corrupt a known input word (bypassing the plan) and
    // let the chaos wrapper's post-run scrub catch it.
    let k = copy_kernel();
    let (mut gmem, d, out) = setup(32);
    assert!(gmem.corrupt_bit(d as u64 + 5 * 4, 2));
    let mut plan = TransientFaultPlan::quiet();
    let e = run_grid_chaos_lowered(
        &lower(&k),
        1,
        32,
        &[d, out],
        &mut gmem,
        &mut plan,
        None,
        None,
    )
    .expect_err("the strike must be detected");
    match e.kind {
        FaultKind::EccMismatch {
            addr,
            expected,
            actual,
        } => {
            assert_eq!(addr, d as u64 + 5 * 4);
            assert_ne!(expected, actual);
        }
        other => panic!("expected EccMismatch, got {other:?}"),
    }
    assert!(e.kind.is_transient());
    assert_eq!(e.site.kernel.as_deref(), Some("chaos_copy"));
}

#[test]
fn functional_watchdog_kills_runaway_and_spares_healthy_runs() {
    let k = copy_kernel();
    let (mut gmem, d, out) = setup(32);
    // A one-block copy retires a handful of warp instructions; budget 1 is
    // starvation, a large budget is not.
    let e = run_lowered_full(
        &lower(&k),
        1,
        32,
        &[d, out],
        &mut gmem,
        None,
        Some(1),
        configured_threads(),
    )
    .expect_err("budget 1 must starve the launch");
    match e.kind {
        FaultKind::WatchdogTimeout { budget, executed } => {
            assert_eq!(budget, 1);
            assert!(executed >= 1);
        }
        other => panic!("expected WatchdogTimeout, got {other:?}"),
    }
    assert!(e.site.block.is_some(), "the stuck block is attributed");

    let (mut gmem, d, out) = setup(32);
    let run = run_lowered_full(
        &lower(&k),
        1,
        32,
        &[d, out],
        &mut gmem,
        None,
        Some(1 << 20),
        configured_threads(),
    )
    .expect("healthy run under a generous budget");
    // The reference run with no watchdog retires exactly as many instructions.
    let (mut gmem2, d2, out2) = setup(32);
    let reference = run_grid(&k, 1, 32, &[d2, out2], &mut gmem2).expect("reference");
    assert_eq!(run.warp_instructions, reference.warp_instructions);
}

#[test]
fn timed_engine_watchdog_kills_runaway_and_spares_healthy_runs() {
    let k = copy_kernel();
    let dev = DeviceConfig::g8800gtx();
    let driver = DriverModel::Cuda22;

    let mut tp = TimingParams::for_driver(driver);
    tp.watchdog_instructions = Some(1);
    let (mut gmem, d, out) = setup(32);
    let e = time_resident(&k, &[0], 32, 1, &[d, out], &mut gmem, &dev, driver, &tp)
        .expect_err("budget 1 must starve the timed launch");
    match e.kind {
        FaultKind::WatchdogTimeout { budget, .. } => assert_eq!(budget, 1),
        other => panic!("expected WatchdogTimeout, got {other:?}"),
    }
    assert_eq!(e.site.kernel.as_deref(), Some("chaos_copy"));

    tp.watchdog_instructions = Some(1 << 20);
    let (mut gmem, d, out) = setup(32);
    time_resident(&k, &[0], 32, 1, &[d, out], &mut gmem, &dev, driver, &tp)
        .expect("healthy run under a generous budget");
}

#[test]
fn chaos_wrapper_with_quiet_plan_matches_plain_run() {
    let k = copy_kernel();
    let (mut gmem_a, da, oa) = setup(64);
    let (mut gmem_b, db, ob) = setup(64);
    let mut plan = TransientFaultPlan::quiet();
    let a = run_grid_chaos_lowered(
        &lower(&k),
        2,
        32,
        &[da, oa],
        &mut gmem_a,
        &mut plan,
        None,
        Some(1 << 20),
    )
    .expect("quiet chaos run");
    let b = run_grid(&k, 2, 32, &[db, ob], &mut gmem_b).expect("plain run");
    assert_eq!(a.warp_instructions, b.warp_instructions);
    let va = gmem_a
        .read_f32(gpu_sim::mem::DevicePtr(oa as u64), 64)
        .expect("readable");
    let vb = gmem_b
        .read_f32(gpu_sim::mem::DevicePtr(ob as u64), 64)
        .expect("readable");
    assert_eq!(va, vb, "the chaos wrapper is bit-transparent when quiet");
}

#[test]
fn fault_classes_serialize_round_trip() {
    // FaultReport persistence (checkpoints, chaos logs) depends on the new
    // kinds surviving JSON.
    for kind in [
        FaultKind::EccMismatch {
            addr: 4096,
            expected: 0x5A,
            actual: 0x58,
        },
        FaultKind::WatchdogTimeout {
            budget: 64,
            executed: 64,
        },
        FaultKind::TransientLaunch {
            reason: "injected spurious launch failure".into(),
        },
        FaultKind::NonFiniteResult { index: 17 },
    ] {
        assert!(kind.is_transient());
        let json = serde_json::to_string(&kind).expect("serialize");
        let back: FaultKind = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, kind);
    }
}

#[test]
fn launch_fates_partition_the_unit_interval() {
    // With rates summing to 1, no launch is ever healthy.
    let mut p = TransientFaultPlan::new(
        11,
        FaultRates {
            bit_flip: 0.4,
            launch_failure: 0.3,
            hang: 0.3,
        },
    );
    assert!((0..500).all(|_| p.next_launch() != LaunchFault::None));
}
