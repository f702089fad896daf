//! Fleet acceptance tests: the supervised device pool loses no admitted job,
//! completes every job **bitwise identical** to a fault-free single-device
//! reference under chaos, quarantine and migration; every refusal is typed;
//! and the same seed replays the schedule and fault history exactly.

use gpu_kernels::force::OptLevel;
use gpu_sim::fault::FaultKind;
use gpu_sim::transient::FaultRates;
use gpu_sim::{DevicePool, DeviceSpec, DriverModel};
use gravit_app::backend::{frame_memory_budget, Backend, FaultPolicy};
use gravit_app::checkpoint::Checkpoint;
use gravit_app::config::{ConfigError, SimConfig, SpawnKind};
use gravit_app::fleet::{drive, Fleet, FleetConfig, FleetEvent, Health, JobSpec, Rejected};
use gravit_app::sim::Simulation;
use proptest::prelude::*;

fn gpu_backend() -> Backend {
    Backend::GpuSim {
        level: OptLevel::Full,
        driver: DriverModel::Cuda10,
    }
}

fn job(id: u64, n: usize, steps: u64) -> JobSpec {
    JobSpec {
        id,
        tenant: format!("t{}", id % 2),
        config: SimConfig {
            n,
            spawn: SpawnKind::UniformBall { radius: 4.0 },
            seed: 100 + id,
            dt: 0.01,
            backend: gpu_backend(),
            fault_policy: FaultPolicy::FallbackToCpu,
            ..SimConfig::default()
        },
        steps,
    }
}

/// The fault-free single-device reference: same config, run solo to the same
/// step count.
fn reference_checkpoint(spec: &JobSpec) -> Checkpoint {
    let mut sim = Simulation::new(spec.config.clone()).unwrap();
    sim.run(spec.steps).unwrap();
    sim.checkpoint()
}

/// Physics-only checkpoint equality: everything except the fault log, which
/// legitimately differs between a chaotic fleet run and a clean reference.
fn physics_eq(a: &Checkpoint, b: &Checkpoint) -> bool {
    a.n == b.n
        && a.seed == b.seed
        && a.dt_bits == b.dt_bits
        && a.integrator == b.integrator
        && a.backend == b.backend
        && a.time_bits == b.time_bits
        && a.steps == b.steps
        && a.pos == b.pos
        && a.vel == b.vel
        && a.mass == b.mass
        && a.accels == b.accels
        && a.energy0_bits == b.energy0_bits
}

#[test]
fn quiet_pool_completes_every_job_bitwise_identical() {
    let pool = DevicePool::uniform(7, 2, DeviceSpec::quiet()).unwrap();
    let mut fleet = Fleet::new(FleetConfig::default(), pool);
    let jobs: Vec<JobSpec> = (0..6).map(|id| job(id, 96, 8)).collect();
    let refs: Vec<Checkpoint> = jobs.iter().map(reference_checkpoint).collect();
    let outcome = drive(&mut fleet, jobs, 10_000).unwrap();
    assert!(outcome.rejected.is_empty(), "{:?}", outcome.rejected);
    assert_eq!(fleet.completed().len(), 6, "no job may be lost");
    assert!(fleet.idle());
    for done in fleet.completed() {
        let reference = &refs[done.id as usize];
        assert!(
            physics_eq(&done.final_state, reference),
            "job {} diverged from its solo reference",
            done.id
        );
    }
}

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pinned quiet batch: 24 jobs of 96 bodies for 6 steps, tenant
/// `id % 4`, workload seed `42 ^ id`, on a quiet pool and schedule seeded 42.
/// Each pool size pins its tick count and an FNV-1a digest of the event log
/// (as JSON) followed by every final state, so any change to scheduling or
/// to a job's physics moves it.
#[test]
fn quiet_batch_schedule_matches_its_pins() {
    let spec = |id: u64| JobSpec {
        id,
        tenant: format!("tenant-{}", id % 4),
        config: SimConfig {
            n: 96,
            spawn: SpawnKind::UniformBall { radius: 4.0 },
            seed: 42 ^ id,
            dt: 0.01,
            backend: gpu_backend(),
            fault_policy: FaultPolicy::FallbackToCpu,
            ..SimConfig::default()
        },
        steps: 6,
    };
    for (devices, ticks, digest) in [
        (1, 48, 0x037b_a03c_937b_32f3_u64),
        (2, 24, 0xb81e_5bbc_3113_1bf5),
        (4, 16, 0x908c_295c_7dc4_91df),
    ] {
        let pool = DevicePool::uniform(42, devices, DeviceSpec::quiet()).unwrap();
        let cfg = FleetConfig {
            seed: 42,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(cfg, pool);
        let outcome = drive(&mut fleet, (0..24).map(spec).collect(), 100_000).unwrap();
        assert!(outcome.rejected.is_empty(), "{:?}", outcome.rejected);
        assert_eq!(fleet.completed().len(), 24);
        let events = serde_json::to_string(fleet.events()).unwrap();
        let mut h = fnv1a(events.as_bytes(), 0xcbf2_9ce4_8422_2325);
        for done in fleet.completed() {
            h = fnv1a(&done.final_state.to_bytes(), h);
        }
        assert_eq!(
            (outcome.ticks, format!("{h:016x}")),
            (ticks, format!("{digest:016x}")),
            "{devices} devices"
        );
    }
}

/// The pinned chaotic batch: the quiet batch's 24 jobs on devices that flip
/// bits, fail launches and hang (watchdog `1 << 22`), with a seeded
/// preemption rate of 0.2. Each pool size pins its tick count and an FNV-1a
/// digest of the event log (as JSON), then every device's fault history (as
/// JSON), then every final state, so a change to the order in which retries,
/// preemptions, quarantines and migrations merge moves it.
#[test]
fn chaotic_batch_schedule_matches_its_pins() {
    let spec = |id: u64| JobSpec {
        id,
        tenant: format!("tenant-{}", id % 4),
        config: SimConfig {
            n: 96,
            spawn: SpawnKind::UniformBall { radius: 4.0 },
            seed: 42 ^ id,
            dt: 0.01,
            backend: gpu_backend(),
            fault_policy: FaultPolicy::FallbackToCpu,
            ..SimConfig::default()
        },
        steps: 6,
    };
    let device = DeviceSpec {
        capacity: None,
        fault_rates: FaultRates {
            bit_flip: 0.2,
            launch_failure: 0.2,
            hang: 0.1,
        },
        watchdog_instructions: Some(1 << 22),
    };
    for (devices, ticks, digest) in [
        (1, 156, 0xdf86_f669_aa9e_9b9b_u64),
        (2, 52, 0x3aeb_bac0_012b_841e),
        (3, 34, 0x89e8_08db_d561_5014),
    ] {
        let pool = DevicePool::uniform(42, devices, device.clone()).unwrap();
        let cfg = FleetConfig {
            preempt_rate: 0.2,
            seed: 42,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(cfg, pool);
        let outcome = drive(&mut fleet, (0..24).map(spec).collect(), 100_000).unwrap();
        assert!(outcome.rejected.is_empty(), "{:?}", outcome.rejected);
        assert_eq!(fleet.completed().len(), 24);
        let events = serde_json::to_string(fleet.events()).unwrap();
        let mut h = fnv1a(events.as_bytes(), 0xcbf2_9ce4_8422_2325);
        for d in 0..devices {
            let history = serde_json::to_string(fleet.fault_history(d)).unwrap();
            h = fnv1a(history.as_bytes(), h);
        }
        for done in fleet.completed() {
            h = fnv1a(&done.final_state.to_bytes(), h);
        }
        assert_eq!(
            (outcome.ticks, format!("{h:016x}")),
            (ticks, format!("{digest:016x}")),
            "{devices} devices"
        );
    }
}

#[test]
fn chaotic_pool_loses_no_job_and_stays_bitwise_identical() {
    let spec = DeviceSpec {
        capacity: None,
        fault_rates: FaultRates {
            bit_flip: 0.2,
            launch_failure: 0.2,
            hang: 0.1,
        },
        watchdog_instructions: Some(1 << 22),
    };
    let pool = DevicePool::uniform(99, 3, spec).unwrap();
    let cfg = FleetConfig {
        preempt_rate: 0.2,
        seed: 99,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(cfg, pool);
    let jobs: Vec<JobSpec> = (0..6).map(|id| job(id, 96, 10)).collect();
    let refs: Vec<Checkpoint> = jobs.iter().map(reference_checkpoint).collect();
    let outcome = drive(&mut fleet, jobs, 10_000).unwrap();
    assert!(outcome.rejected.is_empty(), "{:?}", outcome.rejected);
    assert_eq!(fleet.completed().len(), 6, "no admitted job may be lost");
    for done in fleet.completed() {
        assert!(
            physics_eq(&done.final_state, &refs[done.id as usize]),
            "job {} diverged under chaos (devices {:?}, {} migrations)",
            done.id,
            done.devices,
            done.migrations
        );
    }
    // The chaos actually happened: faults were observed and attributed.
    let faults = fleet
        .events()
        .iter()
        .filter(|e| matches!(e, FleetEvent::Faulted { .. }))
        .count();
    assert!(faults > 0, "rates this high must surface faults");
    // Drive ends idle: every quarantined device was fully drained.
    for d in 0..3 {
        assert_eq!(fleet.queue_len(d), 0);
    }
}

#[test]
fn same_seed_replays_schedule_and_fault_history_exactly() {
    let spec = DeviceSpec {
        capacity: None,
        fault_rates: FaultRates {
            bit_flip: 0.15,
            launch_failure: 0.25,
            hang: 0.1,
        },
        watchdog_instructions: Some(1 << 22),
    };
    let run = || {
        let pool = DevicePool::uniform(1234, 2, spec.clone()).unwrap();
        let cfg = FleetConfig {
            preempt_rate: 0.3,
            seed: 1234,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(cfg, pool);
        let jobs: Vec<JobSpec> = (0..5).map(|id| job(id, 64, 9)).collect();
        drive(&mut fleet, jobs, 10_000).unwrap();
        fleet
    };
    let a = run();
    let b = run();
    assert_eq!(a.events(), b.events(), "the event log must replay exactly");
    for d in 0..2 {
        assert_eq!(
            a.fault_history(d),
            b.fault_history(d),
            "device {d} fault history must replay exactly"
        );
    }
    assert_eq!(a.completed().len(), b.completed().len());
    for (x, y) in a.completed().iter().zip(b.completed()) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.final_state, y.final_state, "including the fault log");
        assert_eq!(x.devices, y.devices);
        assert_eq!(x.migrations, y.migrations);
    }
}

#[test]
fn rejections_are_typed_before_any_upload() {
    // Queue-full: one device, bound 2.
    let pool = DevicePool::uniform(1, 1, DeviceSpec::quiet()).unwrap();
    let cfg = FleetConfig {
        queue_capacity: 2,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(cfg, pool);
    fleet.submit(job(0, 64, 4)).unwrap();
    fleet.submit(job(1, 64, 4)).unwrap();
    assert_eq!(
        fleet.submit(job(2, 64, 4)),
        Err(Rejected::QueueFull { capacity: 2 })
    );
    assert_eq!(fleet.accepted(), 2);

    // Invalid config: typed, never enqueued.
    let mut bad = job(3, 64, 4);
    bad.config.dt = 0.0;
    assert!(matches!(
        fleet.submit(bad),
        Err(Rejected::InvalidConfig(ConfigError::BadTimeStep { .. }))
    ));

    // Tenant budget: the reservation's typed OOM comes back verbatim, and
    // nothing was admitted (no partial upload to roll back).
    let pool = DevicePool::uniform(1, 1, DeviceSpec::quiet()).unwrap();
    let cfg = FleetConfig {
        tenant_budget: Some(1),
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(cfg, pool);
    match fleet.submit(job(0, 96, 4)) {
        Err(Rejected::TenantBudget { tenant, error }) => {
            assert_eq!(tenant, "t0");
            assert!(matches!(error.kind, FaultKind::OutOfMemory { .. }));
        }
        other => panic!("expected a tenant-budget rejection, got {other:?}"),
    }
    assert_eq!(fleet.accepted(), 0);
    assert_eq!(fleet.in_flight(), 0);
}

#[test]
fn sick_device_is_quarantined_drained_and_refuses_admission() {
    // One device with brutal fault rates: strikes accumulate fast.
    let spec = DeviceSpec {
        capacity: None,
        fault_rates: FaultRates {
            bit_flip: 0.1,
            launch_failure: 0.8,
            hang: 0.1,
        },
        watchdog_instructions: Some(1 << 22),
    };
    let pool = DevicePool::uniform(5, 1, spec).unwrap();
    let mut fleet = Fleet::new(FleetConfig::default(), pool);
    fleet.submit(job(0, 64, 400)).unwrap();
    fleet.submit(job(1, 64, 400)).unwrap();
    let mut quarantined_at = None;
    for _ in 0..60 {
        fleet.tick();
        if matches!(fleet.device_health(0), Some(Health::Quarantined { .. })) {
            quarantined_at = Some(fleet.tick_count());
            break;
        }
    }
    assert!(
        quarantined_at.is_some(),
        "a device failing 90% of launches must be quarantined; health {:?}",
        fleet.device_health(0)
    );
    // Drained: its queue is empty, the jobs are parked, nothing lost.
    assert_eq!(fleet.queue_len(0), 0, "quarantine must drain the queue");
    assert_eq!(fleet.in_flight(), 2, "both jobs still owned by the fleet");
    assert!(fleet
        .events()
        .iter()
        .any(|e| matches!(e, FleetEvent::Drained { device: 0, .. })));
    // While quarantined the pool admits nothing, and says so in type.
    assert_eq!(
        fleet.submit(job(2, 64, 4)),
        Err(Rejected::NoAdmittingDevice)
    );
}

#[test]
fn quarantined_device_jobs_migrate_and_finish_elsewhere() {
    // Device 0 is hopeless, device 1 is healthy: jobs placed on (or draining
    // off) device 0 must finish on device 1, bit-identically.
    let sick = DeviceSpec {
        capacity: None,
        fault_rates: FaultRates {
            bit_flip: 0.1,
            launch_failure: 0.8,
            hang: 0.1,
        },
        watchdog_instructions: Some(1 << 22),
    };
    let pool = DevicePool::new(21, vec![sick, DeviceSpec::quiet()]).unwrap();
    let cfg = FleetConfig {
        seed: 21,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(cfg, pool);
    let jobs: Vec<JobSpec> = (0..4).map(|id| job(id, 64, 8)).collect();
    let refs: Vec<Checkpoint> = jobs.iter().map(reference_checkpoint).collect();
    let outcome = drive(&mut fleet, jobs, 10_000).unwrap();
    assert!(outcome.rejected.is_empty());
    assert_eq!(fleet.completed().len(), 4);
    for done in fleet.completed() {
        assert!(
            physics_eq(&done.final_state, &refs[done.id as usize]),
            "job {} diverged across devices {:?}",
            done.id,
            done.devices
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Satellite 3: checkpoint → migrate → resume across devices with
    /// *different capacities* is bit-identical to the uninterrupted solo
    /// run, for random sizes, capacity splits and slice granularities.
    /// (The `GPU_SIM_THREADS` dimension is covered by CI's full-test rerun
    /// with `GPU_SIM_THREADS=8`; the thread count is a process-wide
    /// `OnceLock`, so it cannot vary within one test process.)
    #[test]
    fn migration_across_unequal_devices_is_bit_identical(
        n in 64usize..160,
        denom in 2u64..6,
        slice in 1u64..5,
        seed in 0u64..500,
    ) {
        // Device 0 unconstrained; device 1 constricted so the resumed job
        // replans (chunked or CPU rung) — physics must not notice.
        let small = frame_memory_budget(OptLevel::Full, n as u32) / denom;
        let specs = vec![
            DeviceSpec::quiet(),
            DeviceSpec { capacity: Some(small), ..DeviceSpec::quiet() },
        ];
        let pool = DevicePool::new(seed, specs).unwrap();
        let cfg = FleetConfig {
            slice_steps: slice,
            preempt_rate: 0.5, // force plenty of preemption/migration
            seed,
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(cfg, pool);
        let spec = job(seed, n, 8);
        let reference = reference_checkpoint(&spec);
        drive(&mut fleet, vec![spec], 10_000).unwrap();
        prop_assert_eq!(fleet.completed().len(), 1);
        let done = &fleet.completed()[0];
        prop_assert!(
            physics_eq(&done.final_state, &reference),
            "diverged across devices {:?} after {} migrations",
            &done.devices, done.migrations
        );
    }
}
