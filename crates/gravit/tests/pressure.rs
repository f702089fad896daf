//! Memory-pressure acceptance tests: a device capacity smaller than the
//! working set degrades to chunked streaming execution that is
//! **bit-identical** to the unconstrained run (for every optimization
//! level), descends to the CPU at the floor, and composes with the
//! transient-fault chaos machinery — all with full fault attribution and
//! zero sanitizer violations.

use gpu_kernels::force::OptLevel;
use gpu_sim::fault::FaultKind;
use gpu_sim::transient::{FaultRates, TransientFaultPlan};
use gpu_sim::DriverModel;
use gravit_app::backend::{frame_memory_budget, Backend, FaultPolicy, FrameOpts};
use gravit_app::config::{SimConfig, SpawnKind};
use gravit_app::pressure::{
    chunked_memory_budget, downgrade, gpu_frame_chunked, plan_frame, ExecMode,
};
use gravit_app::recovery::RecoveryPolicy;
use gravit_app::sim::Simulation;
use gravit_app::Integrator;
use nbody::model::ForceParams;
use nbody::spawn;
use proptest::prelude::*;

fn gpu(level: OptLevel) -> Backend {
    Backend::GpuSim {
        level,
        driver: DriverModel::Cuda10,
    }
}

/// Chunked execution under a constricted capacity is bit-identical to the
/// unconstrained run for every optimization level (hence every layout in
/// the ladder: Unopt, SoA, AoaS, SoAoaS, and the tuned variants).
#[test]
fn constrained_execution_is_bit_identical_for_every_level() {
    let bodies = spawn::uniform_ball(500, 5.0, 2.0, 13);
    let fp = ForceParams::default();
    for level in OptLevel::ALL {
        let backend = gpu(level);
        let reference = backend.try_accelerations(&bodies, &fp).unwrap();
        // Tight enough to force chunking, ample enough for the floor chunk
        // (the block-192 levels have a sizeable smallest rung).
        let capacity = chunked_memory_budget(level, gravit_app::pressure::chunk_floor(level));
        assert!(
            capacity < frame_memory_budget(level, 500),
            "{}: not constricting",
            level.label()
        );
        let recovery = RecoveryPolicy {
            device_capacity: Some(capacity),
            ..Default::default()
        };
        let res = backend
            .frame(
                &bodies,
                &fp,
                FrameOpts {
                    policy: FaultPolicy::FailFast,
                    recovery,
                    ..FrameOpts::default()
                },
            )
            .unwrap_or_else(|e| panic!("{}: {e}", level.label()));
        assert_eq!(
            res.accels,
            reference,
            "{}: chunked must be bit-identical",
            level.label()
        );
        // The degradation must be attributed: a report with the admission
        // OOM as root cause and the full ladder history.
        let report = res
            .fault
            .unwrap_or_else(|| panic!("{}: degraded frame unreported", level.label()));
        assert!(matches!(report.error.kind, FaultKind::OutOfMemory { .. }));
        assert!(
            !report.ladder.is_empty(),
            "{}: ladder must be recorded",
            level.label()
        );
        assert_eq!(report.ladder[0].from, "full");
        assert!(
            report.degraded_to.contains("chunked"),
            "{}",
            report.degraded_to
        );
        assert!(report.render().contains("degrade full ->"));
    }
}

/// At a capacity below the chunk floor, the ladder's last rung takes the
/// frame on the CPU — still bit-identical — or propagates the root OOM
/// under fail-fast.
#[test]
fn hopeless_capacity_ends_on_the_cpu_rung() {
    let bodies = spawn::uniform_ball(300, 5.0, 2.0, 13);
    let fp = ForceParams::default();
    let backend = gpu(OptLevel::Full);
    let reference = backend.try_accelerations(&bodies, &fp).unwrap();
    let recovery = RecoveryPolicy {
        device_capacity: Some(128),
        ..Default::default()
    };
    // Fail-fast: the typed admission OOM propagates.
    let err = backend
        .frame(
            &bodies,
            &fp,
            FrameOpts {
                policy: FaultPolicy::FailFast,
                recovery,
                ..FrameOpts::default()
            },
        )
        .unwrap_err();
    assert!(
        matches!(err.kind, FaultKind::OutOfMemory { .. }),
        "got {:?}",
        err.kind
    );
    // Fallback: the CPU takes the frame, ladder fully recorded.
    let res = backend
        .frame(
            &bodies,
            &fp,
            FrameOpts {
                policy: FaultPolicy::FallbackToCpu,
                recovery,
                ..FrameOpts::default()
            },
        )
        .unwrap();
    assert_eq!(res.accels, reference);
    let report = res.fault.unwrap();
    assert_eq!(report.degraded_to, "cpu-parallel");
    assert_eq!(report.ladder.last().unwrap().to, "cpu-parallel");
    assert!(
        report.ladder.len() >= 2,
        "full -> chunked... -> cpu: {:?}",
        report.ladder
    );
}

/// The ladder at n = 960, full optimization level: the full frame's device
/// footprint, then every chunked rung `downgrade` visits with its footprint,
/// then the CPU. Each chunked frame is bitwise equal to the unconstrained
/// frame.
#[test]
fn ladder_rungs_at_n960_match_their_pins() {
    let level = OptLevel::Full;
    let n = 960;
    let bodies = spawn::uniform_ball(n as usize, 5.0, 2.0, 42);
    let fp = ForceParams::default();
    let reference = gpu(level).try_accelerations(&bodies, &fp).unwrap();
    assert_eq!(frame_memory_budget(level, n), 49_920);
    let mut rungs = Vec::new();
    let mut mode = ExecMode::Full;
    while let Some(next) = downgrade(level, n, mode) {
        if let ExecMode::Chunked { chunk } = next {
            let accels =
                gpu_frame_chunked(&bodies, &fp, level, chunk, &mut FrameOpts::default()).unwrap();
            assert!(accels == reference, "chunk {chunk} is not bit-identical");
            rungs.push((chunk, chunked_memory_budget(level, chunk)));
        }
        mode = next;
    }
    assert_eq!(mode, ExecMode::Cpu);
    assert_eq!(rungs, [(512, 42_240), (256, 21_760), (128, 11_520)]);
}

/// A full constrained *simulation* (multi-step leapfrog) produces the exact
/// trajectory of the unconstrained one, and logs the degradations.
#[test]
fn constrained_trajectory_matches_unconstrained_bitwise() {
    let level = OptLevel::Full;
    let base = SimConfig {
        n: 384,
        spawn: SpawnKind::UniformBall { radius: 3.0 },
        seed: 7,
        dt: 0.005,
        integrator: Integrator::Leapfrog,
        backend: gpu(level),
        ..SimConfig::default()
    };
    let mut free = Simulation::new(base.clone()).unwrap();
    free.run(4).unwrap();
    assert!(
        free.fault_reports.is_empty(),
        "unconstrained run must be clean"
    );

    let capacity = frame_memory_budget(level, 384) / 4;
    let mut constrained_cfg = base;
    constrained_cfg.recovery.device_capacity = Some(capacity);
    let mut tight = Simulation::new(constrained_cfg).unwrap();
    tight.run(4).unwrap();
    assert_eq!(
        free.bodies, tight.bodies,
        "trajectories must be bit-identical"
    );
    assert_eq!(free.accels, tight.accels);
    // Every force evaluation degraded (and said so): initial accels + steps.
    assert!(!tight.fault_reports.is_empty());
    assert!(tight.fault_reports.iter().all(|r| !r.ladder.is_empty()));
}

/// Pressure composed with transient chaos: bit-flips, launch failures and
/// hangs rain on a memory-constricted run, and the trajectory still matches
/// the clean unconstrained reference bit-for-bit (retries and the CPU rung
/// are both bit-identical).
#[test]
fn pressure_and_transient_chaos_compose() {
    let level = OptLevel::Full;
    let base = SimConfig {
        n: 256,
        spawn: SpawnKind::UniformBall { radius: 3.0 },
        seed: 11,
        dt: 0.005,
        integrator: Integrator::Leapfrog,
        backend: gpu(level),
        ..SimConfig::default()
    };
    let mut free = Simulation::new(base.clone()).unwrap();
    free.run(3).unwrap();

    let mut cfg = base;
    cfg.recovery.device_capacity = Some(frame_memory_budget(level, 256) / 4);
    cfg.recovery.max_retries = 6;
    cfg.recovery.watchdog_instructions = Some(1 << 22);
    cfg.fault_policy = FaultPolicy::FallbackToCpu;
    // Seed the chaos before the first force evaluation by constructing, then
    // injecting and re-running the same trajectory from scratch.
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    sim.set_transient_faults(TransientFaultPlan::new(
        42,
        FaultRates {
            bit_flip: 0.05,
            launch_failure: 0.1,
            hang: 0.05,
        },
    ));
    sim.run(3).unwrap();
    assert_eq!(
        free.bodies, sim.bodies,
        "chaos + pressure must not corrupt the trajectory"
    );
    // The pressure degradations were reported throughout.
    assert!(sim.fault_reports.iter().any(|r| !r.ladder.is_empty()));
}

/// A bit flip in the chunk kernel's carried accumulator must not escape.
/// The kernel reads its `out` slot and writes the running total back, which
/// refreshes the word's checksum; only the load-time ECC record lets the
/// post-launch scrub see the strike. This is campaign 0 of
/// `chaos --campaigns 1 --steps 6 --n 256 --device-mem 11712`, which ended
/// "final state diverged" before loads were tracked.
#[test]
fn bit_flips_in_the_carried_accumulator_are_caught() {
    let config = |device_capacity| SimConfig {
        n: 256,
        spawn: SpawnKind::UniformBall { radius: 4.0 },
        seed: 42,
        dt: 0.01,
        backend: gpu(OptLevel::Full),
        fault_policy: FaultPolicy::FallbackToCpu,
        recovery: RecoveryPolicy {
            max_retries: 3,
            watchdog_instructions: Some(1 << 22),
            device_capacity,
            ..RecoveryPolicy::default()
        },
        ..SimConfig::default()
    };
    let mut free = Simulation::new(config(None)).unwrap();
    free.run(6).unwrap();

    let mut sim = Simulation::new(config(Some(11712))).unwrap();
    sim.set_transient_faults(TransientFaultPlan::new(
        simcore::SplitMix64::mix(42),
        FaultRates {
            bit_flip: 0.5,
            launch_failure: 0.0,
            hang: 0.0,
        },
    ));
    sim.run(6).unwrap();
    assert!(
        sim.fault_reports
            .iter()
            .all(|r| r.ladder.first().is_some_and(|e| e.to == "chunked(c=128)")),
        "the run must stream through the chunk kernel"
    );
    assert!(
        free.bodies == sim.bodies && free.accels == sim.accels,
        "a bit flip escaped the ECC scrub"
    );
}

/// Resuming a checkpoint on a *smaller* device replans through
/// [`plan_frame`] before any upload: under fallback it degrades down the
/// PR 5 ladder (bit-identically), and a capacity below even the CPU-rung
/// threshold under fail-fast is a typed admission OOM at resume time — never
/// a raw mid-restore `OutOfMemory`.
#[test]
fn resume_on_smaller_device_degrades_via_the_ladder() {
    let level = OptLevel::Full;
    let base = SimConfig {
        n: 256,
        spawn: SpawnKind::UniformBall { radius: 3.0 },
        seed: 23,
        dt: 0.005,
        integrator: Integrator::Leapfrog,
        backend: gpu(level),
        fault_policy: FaultPolicy::FallbackToCpu,
        ..SimConfig::default()
    };
    // Uninterrupted reference on the big device.
    let mut free = Simulation::new(base.clone()).unwrap();
    free.run(6).unwrap();
    // Interrupt at step 3 and resume on a device a quarter the size.
    let mut first = Simulation::new(base.clone()).unwrap();
    first.run(3).unwrap();
    let ckpt = first.checkpoint();
    let mut small_cfg = base.clone();
    small_cfg.recovery.device_capacity = Some(frame_memory_budget(level, 256) / 4);
    let mut resumed = Simulation::resume(small_cfg, &ckpt).unwrap();
    resumed.run(3).unwrap();
    assert_eq!(free.bodies, resumed.bodies, "must be bit-identical");
    assert_eq!(free.accels, resumed.accels);
    assert!(
        resumed.fault_reports.iter().any(|r| !r.ladder.is_empty()),
        "the constricted continuation must report its degradations"
    );
}

/// Fail-fast + a capacity below the chunk floor: the resume itself refuses
/// with the plan's typed root OOM (exit path, not a panic and not a partial
/// restore). The same checkpoint under fallback lands on the CPU rung and
/// stays bit-identical.
#[test]
fn hopeless_resume_is_typed_oom_under_failfast_and_cpu_under_fallback() {
    let level = OptLevel::Full;
    let base = SimConfig {
        n: 256,
        spawn: SpawnKind::UniformBall { radius: 3.0 },
        seed: 29,
        dt: 0.005,
        integrator: Integrator::Leapfrog,
        backend: gpu(level),
        ..SimConfig::default()
    };
    let mut free = Simulation::new(base.clone()).unwrap();
    free.run(5).unwrap();
    let mut first = Simulation::new(base.clone()).unwrap();
    first.run(2).unwrap();
    let ckpt = first.checkpoint();

    let mut hopeless = base.clone();
    hopeless.recovery.device_capacity = Some(128);
    hopeless.fault_policy = FaultPolicy::FailFast;
    match Simulation::resume(hopeless, &ckpt) {
        Err(gravit_app::SimError::Device(e)) => {
            assert!(
                matches!(e.kind, FaultKind::OutOfMemory { .. }),
                "got {:?}",
                e.kind
            );
        }
        other => panic!("expected a typed admission OOM, got {other:?}"),
    }

    let mut fallback = base;
    fallback.recovery.device_capacity = Some(128);
    fallback.fault_policy = FaultPolicy::FallbackToCpu;
    let mut resumed = Simulation::resume(fallback, &ckpt).unwrap();
    resumed.run(3).unwrap();
    assert_eq!(
        free.bodies, resumed.bodies,
        "CPU rung must be bit-identical"
    );
    assert!(resumed
        .fault_reports
        .iter()
        .any(|r| r.degraded_to == "cpu-parallel"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random (n, capacity, level): the admitted mode respects the budget,
    /// and chunked execution is bit-identical to the unconstrained frame.
    #[test]
    fn chunked_equals_unconstrained_bitwise(
        n in 64u32..400,
        denom in 2u64..8,
        level_idx in 0usize..OptLevel::ALL.len(),
        seed in 0u64..1000,
    ) {
        let level = OptLevel::ALL[level_idx];
        let bodies = spawn::uniform_ball(n as usize, 4.0, 2.0, seed);
        let fp = ForceParams::default();
        let backend = gpu(level);
        let capacity = (frame_memory_budget(level, n) / denom).max(1);
        let plan = plan_frame(level, n, Some(capacity));
        match plan.mode {
            ExecMode::Full => prop_assert!(plan.full_budget <= capacity),
            ExecMode::Chunked { chunk } => {
                prop_assert!(chunked_memory_budget(level, chunk) <= capacity);
                prop_assert!(plan.full_budget > capacity);
            }
            ExecMode::Cpu => {}
        }
        let recovery = RecoveryPolicy { device_capacity: Some(capacity), ..Default::default() };
        let reference = backend.try_accelerations(&bodies, &fp).unwrap();
        let res = backend
            .frame(&bodies, &fp, FrameOpts { policy: FaultPolicy::FallbackToCpu, recovery, ..FrameOpts::default() })
            .unwrap();
        prop_assert_eq!(res.accels, reference);
        // Reports appear exactly when the plan degraded.
        prop_assert_eq!(res.fault.is_some(), plan.mode != ExecMode::Full);
    }
}
