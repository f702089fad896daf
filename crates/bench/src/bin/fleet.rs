//! Fleet chaos soak: the supervised device pool under rotating fault mixes,
//! with every runtime invariant checked from outside.
//!
//! Campaigns of jobs (`--jobs J --devices D`, default 200×4) are driven
//! through a faulty pool while the harness asserts, per tick and per
//! campaign:
//!
//! 1. no admitted job is ever lost — `completed + rejected == submitted` and
//!    the fleet drains to idle;
//! 2. every completed job's final state is **bit-identical** to a fault-free
//!    single-device reference run of the same spec;
//! 3. a quarantined device is fully drained — its queue is empty on the very
//!    tick the quarantine is entered and stays empty while it lasts;
//! 4. every refused submission carries a typed [`Rejected`] reason;
//! 5. the same seed replays the event log, per-device fault history and
//!    final states exactly (campaign 0 is run twice and compared).
//!
//! Usage: `fleet [--devices D] [--jobs J] [--campaigns C] [--n N]
//!         [--steps S] [--seed SEED]`. Any violation exits nonzero.

use bench::gate::flag;
use gpu_kernels::force::OptLevel;
use gpu_sim::transient::FaultRates;
use gpu_sim::{DevicePool, DeviceSpec, DriverModel};
use gravit_app::backend::{Backend, FaultPolicy};
use gravit_app::checkpoint::Checkpoint;
use gravit_app::config::{SimConfig, SpawnKind};
use gravit_app::fleet::{Fleet, FleetConfig, FleetEvent, Health, JobSpec, Rejected};
use gravit_app::sim::Simulation;
use simcore::SplitMix64;

struct Violations(usize);

impl Violations {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("VIOLATION: {what}");
            self.0 += 1;
        }
    }
}

fn job(id: u64, n: usize, steps: u64, workload_seed: u64) -> JobSpec {
    JobSpec {
        id,
        tenant: format!("tenant-{}", id % 4),
        config: SimConfig {
            n,
            spawn: SpawnKind::UniformBall { radius: 4.0 },
            seed: workload_seed ^ id,
            dt: 0.01,
            backend: Backend::GpuSim {
                level: OptLevel::Full,
                driver: DriverModel::Cuda10,
            },
            fault_policy: FaultPolicy::FallbackToCpu,
            ..SimConfig::default()
        },
        steps,
    }
}

/// Physics-only checkpoint equality: the fault log legitimately differs
/// between a chaotic fleet lineage and a clean reference.
fn physics_eq(a: &Checkpoint, b: &Checkpoint) -> bool {
    a.time_bits == b.time_bits
        && a.steps == b.steps
        && a.pos == b.pos
        && a.vel == b.vel
        && a.mass == b.mass
        && a.accels == b.accels
        && a.energy0_bits == b.energy0_bits
}

/// The campaign's rotating stress profile (mirrors the chaos soak).
fn campaign_rates(c: u64) -> FaultRates {
    match c % 4 {
        0 => FaultRates {
            bit_flip: 0.5,
            launch_failure: 0.0,
            hang: 0.0,
        },
        1 => FaultRates {
            bit_flip: 0.0,
            launch_failure: 0.4,
            hang: 0.2,
        },
        2 => FaultRates {
            bit_flip: 0.25,
            launch_failure: 0.15,
            hang: 0.15,
        },
        _ => FaultRates {
            bit_flip: 0.2,
            launch_failure: 0.2,
            hang: 0.1,
        },
    }
}

/// Drive `jobs` through a fresh fleet, checking the quarantine-drain
/// invariant on every tick. Returns the finished fleet and the terminal
/// rejections.
fn drive_checked(
    devices: usize,
    rates: FaultRates,
    seed: u64,
    jobs: Vec<JobSpec>,
    violations: &mut Violations,
    tag: &str,
) -> (Fleet, Vec<(u64, Rejected)>) {
    let spec = DeviceSpec {
        capacity: None,
        fault_rates: rates,
        watchdog_instructions: Some(1 << 22),
    };
    let pool = DevicePool::uniform(seed, devices, spec).expect("soak rates are valid");
    let cfg = FleetConfig {
        preempt_rate: 0.1,
        seed,
        ..FleetConfig::default()
    };
    let mut fleet = Fleet::new(cfg, pool);
    let mut pending: std::collections::VecDeque<JobSpec> = jobs.into();
    let mut rejected = Vec::new();
    let max_ticks = 100_000u64;
    for _ in 0..max_ticks {
        // Submit as far as admission allows; full queues retry next tick.
        while let Some(j) = pending.pop_front() {
            match fleet.submit(j.clone()) {
                Ok(()) => {}
                Err(Rejected::QueueFull { .. }) | Err(Rejected::NoAdmittingDevice) => {
                    pending.push_front(j);
                    break;
                }
                Err(terminal) => rejected.push((j.id, terminal)),
            }
        }
        if pending.is_empty() && fleet.idle() {
            break;
        }
        fleet.tick();
        // Invariant 3: a quarantined device's queue is drained, always.
        for d in 0..devices {
            if matches!(fleet.device_health(d), Some(Health::Quarantined { .. })) {
                violations.check(
                    fleet.queue_len(d) == 0,
                    &format!(
                        "{tag}: device {d} quarantined at tick {} with {} queued jobs",
                        fleet.tick_count(),
                        fleet.queue_len(d)
                    ),
                );
            }
        }
    }
    violations.check(
        pending.is_empty() && fleet.idle(),
        &format!("{tag}: fleet did not drain within {max_ticks} ticks"),
    );
    (fleet, rejected)
}

#[allow(clippy::too_many_arguments)]
fn soak(
    devices: usize,
    total_jobs: u64,
    campaigns: u64,
    n: usize,
    steps: u64,
    base_seed: u64,
    violations: &mut Violations,
) {
    let per_campaign = (total_jobs / campaigns.max(1)).max(1);
    println!(
        "fleet soak: {campaigns} campaigns x {per_campaign} jobs (n={n} x {steps} steps) \
         across {devices} devices, base seed {base_seed}"
    );
    let mut total_faults = 0usize;
    for c in 0..campaigns {
        let seed = SplitMix64::mix(base_seed ^ c);
        let rates = campaign_rates(c);
        let jobs: Vec<JobSpec> = (0..per_campaign)
            .map(|id| job(id, n, steps, base_seed))
            .collect();
        // Fault-free single-device references for invariant 2.
        let refs: Vec<Checkpoint> = jobs
            .iter()
            .map(|j| {
                let mut sim = Simulation::new(j.config.clone()).expect("soak config is valid");
                sim.run(j.steps).expect("fault-free reference");
                sim.checkpoint()
            })
            .collect();
        let tag = format!("campaign {c}");
        let (fleet, rejected) = drive_checked(devices, rates, seed, jobs, violations, &tag);
        // Invariant 1: conservation.
        violations.check(
            fleet.completed().len() as u64 + rejected.len() as u64 == per_campaign,
            &format!(
                "{tag}: {} completed + {} rejected != {per_campaign} submitted",
                fleet.completed().len(),
                rejected.len()
            ),
        );
        // Invariant 2: bit-identical completions.
        for done in fleet.completed() {
            violations.check(
                physics_eq(&done.final_state, &refs[done.id as usize]),
                &format!(
                    "{tag}: job {} diverged from its fault-free reference \
                     (devices {:?}, {} migrations)",
                    done.id, done.devices, done.migrations
                ),
            );
        }
        // Invariant 4: every rejection is typed (labels exist by
        // construction; surface them in the log).
        for (id, why) in &rejected {
            println!("{tag}: job {id} rejected ({}): {why}", why.label());
        }
        // Invariant 5: seeded replay, checked once per soak.
        if c == 0 {
            let jobs: Vec<JobSpec> = (0..per_campaign)
                .map(|id| job(id, n, steps, base_seed))
                .collect();
            let mut quiet = Violations(0);
            let (replay, _) = drive_checked(devices, rates, seed, jobs, &mut quiet, "replay");
            violations.check(
                replay.events() == fleet.events(),
                &format!("{tag}: replay produced a different event log"),
            );
            for d in 0..devices {
                violations.check(
                    replay.fault_history(d) == fleet.fault_history(d),
                    &format!("{tag}: replay produced a different fault history on device {d}"),
                );
            }
            violations.check(
                replay
                    .completed()
                    .iter()
                    .zip(fleet.completed())
                    .all(|(x, y)| x.id == y.id && x.final_state == y.final_state),
                &format!("{tag}: replay produced different final states"),
            );
        }
        let faults = fleet
            .events()
            .iter()
            .filter(|e| matches!(e, FleetEvent::Faulted { .. }))
            .count();
        let migrations = fleet
            .events()
            .iter()
            .filter(|e| matches!(e, FleetEvent::Migrated { .. }))
            .count();
        total_faults += faults;
        println!(
            "campaign {c:2} rates(flip={:.2} launch={:.2} hang={:.2}): {} completed in {} \
             ticks, {faults} faults, {migrations} migrations, {} rejections",
            rates.bit_flip,
            rates.launch_failure,
            rates.hang,
            fleet.completed().len(),
            fleet.tick_count(),
            rejected.len(),
        );
    }
    println!(
        "fleet soak done: {total_faults} faults survived, {} violations",
        violations.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let devices: usize = flag(&args, "--devices")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let jobs: u64 = flag(&args, "--jobs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let campaigns: u64 = flag(&args, "--campaigns")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let n: usize = flag(&args, "--n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let steps: u64 = flag(&args, "--steps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let base_seed: u64 = flag(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);

    let mut violations = Violations(0);
    soak(
        devices,
        jobs,
        campaigns,
        n,
        steps,
        base_seed,
        &mut violations,
    );

    if violations.0 > 0 {
        eprintln!("[FAIL] {} fleet invariant violations", violations.0);
        std::process::exit(1);
    }
    println!("fleet invariants held: no job lost, completions bit-identical, replay exact");
}
