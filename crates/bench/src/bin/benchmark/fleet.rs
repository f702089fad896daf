//! `fleet_quiet` and `fleet_chaos`: a closed loop of small simulation jobs
//! through the supervised fleet on a two-device pool.
//!
//! Set-up generates the job list and builds the pool and fleet. Four
//! clients each keep one job outstanding: a client submits its next job
//! only after the previous one completes. A job's latency runs from its
//! first submission attempt to the end of the tick that completes it. Once
//! the window closes, no new job is submitted and the in-flight ones drain.
//!
//! Traced, `fleet.submit` and `fleet.tick` get spans, and afterwards the
//! first jobs' lifecycles are replayed serially through the public
//! `Simulation`/`Checkpoint` calls the fleet makes inside its ticks
//! (creation, a checkpoint per slice, the steps, and decode plus resume per
//! preemption), with one replica frame each.

use crate::expected;
use crate::frame::{frame_counts, replica_frame, FrameStats, LEVEL};
use crate::stats::{fnv1a, median, p90, FNV_OFFSET};
use crate::trace::Tracer;
use crate::workload::{peak_rss_kib, time_setup, Outcome, Run, Scale, Window};
use gpu_sim::transient::FaultRates;
use gpu_sim::{DevicePool, DeviceSpec, DriverModel};
use gravit_app::backend::{Backend, FaultPolicy};
use gravit_app::checkpoint::Checkpoint;
use gravit_app::config::{SimConfig, SpawnKind};
use gravit_app::fleet::{CompletedJob, Fleet, FleetConfig, FleetEvent, JobSpec, Rejected};
use gravit_app::sim::Simulation;
use simcore::SplitMix64;
use std::time::Instant;

/// Jobs each client keeps outstanding, times clients.
const CLIENTS: usize = 4;
/// Pool size: one slice worker thread per busy device.
pub const DEVICES: usize = 2;
const SLICE_STEPS: u64 = 4;
/// Ticks after which a run is abandoned as not draining.
const MAX_TICKS: u64 = 1_000_000;

/// Which pool the fleet runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// No injected faults.
    Quiet,
    /// Transient faults on every device, and a watchdog.
    Chaos,
}

struct Sizes {
    n: usize,
    steps: u64,
    /// Jobs the clients draw from, generated at set-up: far more than a
    /// run completes (~1000 in 15 s on a 2-core host).
    jobs: u64,
    /// Jobs with ids below this are in the digest; every run completes them.
    check_jobs: u64,
    /// Events before this tick are in the digest; every run reaches it.
    check_ticks: u64,
    /// Jobs whose lifecycle the traced run replays.
    replays: u64,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            n: 96,
            steps: 12,
            jobs: 8192,
            check_jobs: 32,
            check_ticks: 64,
            replays: 16,
        },
        Scale::Smoke => Sizes {
            n: 32,
            steps: 4,
            jobs: 64,
            check_jobs: 6,
            check_ticks: 8,
            replays: 2,
        },
    }
}

fn device_spec(pool: Pool) -> DeviceSpec {
    match pool {
        Pool::Quiet => DeviceSpec::quiet(),
        Pool::Chaos => DeviceSpec {
            capacity: None,
            fault_rates: FaultRates {
                bit_flip: 0.2,
                launch_failure: 0.2,
                hang: 0.1,
            },
            watchdog_instructions: Some(1 << 22),
        },
    }
}

fn job(id: u64, seed: u64, s: &Sizes) -> JobSpec {
    JobSpec {
        id,
        tenant: format!("tenant-{}", id % 4),
        config: SimConfig {
            n: s.n,
            spawn: SpawnKind::UniformBall { radius: 4.0 },
            seed: SplitMix64::mix(seed ^ id),
            dt: 0.01,
            backend: Backend::GpuSim {
                level: LEVEL,
                driver: DriverModel::Cuda10,
            },
            fault_policy: FaultPolicy::FallbackToCpu,
            ..SimConfig::default()
        },
        steps: s.steps,
    }
}

fn new_fleet(pool: Pool, seed: u64) -> Result<Fleet, String> {
    let devices = DevicePool::uniform(seed, DEVICES, device_spec(pool))?;
    let cfg = FleetConfig {
        queue_capacity: 8,
        slice_steps: SLICE_STEPS,
        preempt_rate: 0.1,
        seed,
        ..FleetConfig::default()
    };
    Ok(Fleet::new(cfg, devices))
}

fn event_tick(e: &FleetEvent) -> u64 {
    match e {
        FleetEvent::Submitted { tick, .. }
        | FleetEvent::RejectedSubmit { tick, .. }
        | FleetEvent::Started { tick, .. }
        | FleetEvent::Resumed { tick, .. }
        | FleetEvent::Migrated { tick, .. }
        | FleetEvent::Preempted { tick, .. }
        | FleetEvent::Faulted { tick, .. }
        | FleetEvent::HealthChanged { tick, .. }
        | FleetEvent::Drained { tick, .. }
        | FleetEvent::Completed { tick, .. } => *tick,
    }
}

/// Physics of two checkpoints, without the fault log (a faulty lineage
/// legitimately records faults a clean run does not).
fn physics_eq(a: &Checkpoint, b: &Checkpoint) -> bool {
    a.time_bits == b.time_bits
        && a.steps == b.steps
        && a.pos == b.pos
        && a.vel == b.vel
        && a.mass == b.mass
        && a.accels == b.accels
        && a.energy0_bits == b.energy0_bits
}

/// The job run alone on the CPU direct sum: the oracle its fleet result
/// must match bit for bit.
fn oracle(spec: &JobSpec) -> Result<Checkpoint, String> {
    let cfg = SimConfig {
        backend: Backend::CpuSerial,
        ..spec.config.clone()
    };
    let mut sim = Simulation::new(cfg).map_err(|e| e.to_string())?;
    sim.run(spec.steps).map_err(|e| e.to_string())?;
    Ok(sim.checkpoint())
}

/// Replay one job's lifecycle serially through the calls the fleet makes
/// inside its ticks, with `preemptions` freeze/resume cycles.
fn replay(
    tr: &mut Tracer,
    spec: &JobSpec,
    preemptions: usize,
    stats: &mut FrameStats,
    ckpt_bytes: &mut Vec<usize>,
) -> Result<Checkpoint, String> {
    let cfg = spec.config.clone();
    let mut sim = tr
        .span("sim.new", |_| Simulation::new(cfg.clone()))
        .map_err(|e| e.to_string())?;
    replica_frame(tr, &sim.bodies, &cfg.force, 1, stats).map_err(|e| e.to_string())?;
    let mut left = preemptions;
    while sim.steps < spec.steps {
        let bytes = tr.span("ckpt.encode", |_| sim.checkpoint().to_bytes());
        ckpt_bytes.push(bytes.len());
        for _ in 0..SLICE_STEPS.min(spec.steps - sim.steps) {
            tr.span("sim.step", |_| sim.step())
                .map_err(|e| e.to_string())?;
        }
        if left > 0 && sim.steps < spec.steps {
            left -= 1;
            let bytes = tr.span("ckpt.encode", |_| sim.checkpoint().to_bytes());
            let ckpt = tr
                .span("ckpt.decode", |_| Checkpoint::from_bytes(&bytes))
                .map_err(|e| e.to_string())?;
            sim = tr
                .span("sim.resume", |_| Simulation::resume(cfg.clone(), &ckpt))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(sim.checkpoint())
}

/// Run the workload on `pool`.
pub fn run(r: &Run, pool: Pool) -> Outcome {
    let s = sizes(r.scale);
    let mut out = Outcome::new(gpu_sim::exec::functional::configured_threads(), DEVICES);
    let built = time_setup(r, &mut out, || {
        let specs: Vec<JobSpec> = (0..s.jobs).map(|id| job(id, r.seed, &s)).collect();
        new_fleet(pool, r.seed).map(|fleet| (fleet, specs))
    });
    let (mut fleet, specs) = match built {
        Ok(b) => b,
        Err(e) => {
            out.fail(format!("pool construction failed: {e}"));
            return out;
        }
    };

    let mut first_attempt: Vec<Instant> = Vec::new();
    let mut outstanding = 0usize;
    let mut retry: Option<JobSpec> = None;
    let mut terminal = 0u64;
    let mut seen = 0usize;
    let mut checked_done = 0u64;
    let window = Window::open();
    loop {
        let prefix_done = fleet.tick_count() >= s.check_ticks && checked_done == s.check_jobs;
        let open = (!prefix_done || window.start().elapsed().as_secs_f64() < r.seconds)
            && first_attempt.len() < specs.len();
        // A refused job keeps its client's slot and is offered again first.
        loop {
            let spec = match retry.take() {
                Some(spec) => spec,
                None if open && outstanding < CLIENTS => {
                    first_attempt.push(Instant::now());
                    specs[first_attempt.len() - 1].clone()
                }
                None => break,
            };
            let id = spec.id;
            match out
                .tracer
                .span_if(r.trace, "fleet.submit", |_| fleet.submit(spec.clone()))
            {
                Ok(()) => outstanding += 1,
                Err(Rejected::QueueFull { .. }) | Err(Rejected::NoAdmittingDevice) => {
                    retry = Some(spec);
                    break;
                }
                Err(e) => {
                    terminal += 1;
                    out.fail(format!("job {id} rejected: {e}"));
                }
            }
        }
        if !open && outstanding == 0 && retry.is_none() {
            break;
        }
        if fleet.tick_count() >= MAX_TICKS {
            out.fail(format!("fleet did not drain within {MAX_TICKS} ticks"));
            break;
        }
        out.tracer.span_if(r.trace, "fleet.tick", |_| fleet.tick());
        let now = Instant::now();
        for done in &fleet.completed()[seen..] {
            let waited = now - first_attempt[done.id as usize];
            out.op_wall_ms.push(waited.as_secs_f64() * 1e3);
            outstanding -= 1;
            checked_done += u64::from(done.id < s.check_jobs);
        }
        seen = fleet.completed().len();
    }
    window.close(&mut out);
    out.peak_rss_kib = peak_rss_kib();
    out.attempted = first_attempt.len() as u64;

    let completed = fleet.completed();
    let lost = out.attempted - completed.len() as u64 - terminal;
    if lost > 0 {
        out.fail(format!("{lost} admitted jobs never completed"));
    }
    for done in completed {
        match oracle(&specs[done.id as usize]) {
            Ok(want) if physics_eq(&want, &done.final_state) => {}
            Ok(_) => out.fail(format!("job {} differs from the CPU direct sum", done.id)),
            Err(e) => out.fail(format!("job {} oracle failed: {e}", done.id)),
        }
    }
    let d = digest(&fleet, &s);
    out.digest = Some(d);
    if r.checks_seeded_digest() {
        let want = match pool {
            Pool::Quiet => expected::FLEET_QUIET,
            Pool::Chaos => expected::FLEET_CHAOS,
        };
        out.check_digest(d, want, "first jobs' final states and event log");
    }
    if r.trace {
        layer_counts(&mut out, &fleet, &specs, &s);
    }
    out
}

/// Final states of the first `check_jobs` jobs by id, then every event
/// before tick `check_ticks`.
fn digest(fleet: &Fleet, s: &Sizes) -> u64 {
    let mut firsts: Vec<&CompletedJob> = fleet
        .completed()
        .iter()
        .filter(|c| c.id < s.check_jobs)
        .collect();
    firsts.sort_by_key(|c| c.id);
    let mut h = FNV_OFFSET;
    for c in firsts {
        h = fnv1a(h, &c.final_state.to_bytes());
    }
    for e in fleet
        .events()
        .iter()
        .filter(|e| event_tick(e) < s.check_ticks)
    {
        let line = serde_json::to_string(e).expect("fleet events serialize");
        h = fnv1a(h, line.as_bytes());
    }
    h
}

fn layer_counts(out: &mut Outcome, fleet: &Fleet, specs: &[JobSpec], s: &Sizes) {
    let completed = fleet.completed();
    let jobs = completed.len().max(1) as f64;
    let events = |f: fn(&FleetEvent) -> bool| fleet.events().iter().filter(|e| f(e)).count();
    let preempted = |id: u64| {
        fleet
            .events()
            .iter()
            .filter(|e| matches!(e, FleetEvent::Preempted { job, .. } if *job == id))
            .count()
    };
    let per_job = |n: usize| n as f64 / jobs;
    out.count("fleet.ticks_per_job", fleet.tick_count() as f64 / jobs);
    out.count(
        "fleet.preemptions_per_job",
        per_job(events(|e| matches!(e, FleetEvent::Preempted { .. }))),
    );
    out.count(
        "fleet.migrations_per_job",
        per_job(events(|e| matches!(e, FleetEvent::Migrated { .. }))),
    );
    out.count(
        "fleet.faults_per_job",
        per_job(events(|e| matches!(e, FleetEvent::Faulted { .. }))),
    );
    out.count(
        "fleet.refusals_per_job",
        per_job(events(|e| matches!(e, FleetEvent::RejectedSubmit { .. }))),
    );
    let reports = completed.iter().flat_map(|c| &c.final_state.fault_reports);
    let retries: usize = reports.clone().map(|r| r.retries.len()).sum();
    let cpu = Backend::CpuParallel.label();
    let cpu_frames = reports.filter(|r| r.degraded_to == cpu).count();
    // Every job computes one frame at creation and one per step.
    let frames = completed.len() as f64 * (s.steps + 1) as f64;
    out.count("recovery.retries_per_job", per_job(retries));
    out.count("recovery.cpu_frames_per_job", per_job(cpu_frames));
    out.count(
        "recovery.useful_launch_frac",
        frames / (frames + retries as f64).max(1.0),
    );
    let ratio = match (p90(&out.op_wall_ms), median(&out.op_wall_ms)) {
        (Some(hi), Some(mid)) if mid > 0.0 => hi / mid,
        _ => 0.0,
    };
    out.count("fleet.job_p90_over_p50", ratio);

    let mut stats = FrameStats::default();
    let mut ckpt_bytes = Vec::new();
    let mut firsts: Vec<&CompletedJob> = completed.iter().filter(|c| c.id < s.replays).collect();
    firsts.sort_by_key(|c| c.id);
    for done in firsts {
        let spec = &specs[done.id as usize];
        let r = out
            .tracer
            .op(|tr| replay(tr, spec, preempted(done.id), &mut stats, &mut ckpt_bytes));
        match r {
            Ok(state) if physics_eq(&state, &done.final_state) => {}
            Ok(_) => out.fail(format!("replay of job {} differs from the fleet", done.id)),
            Err(e) => out.fail(format!("replay of job {} failed: {e}", done.id)),
        }
    }
    let mean_bytes = ckpt_bytes.iter().sum::<usize>() as f64 / ckpt_bytes.len().max(1) as f64;
    out.count("ckpt.bytes", mean_bytes);
    frame_counts(out, &stats);
}
