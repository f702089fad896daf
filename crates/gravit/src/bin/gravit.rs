//! The `gravit` CLI: a Gravit-like gravity simulator over the reproduction's
//! backends.
//!
//! ```text
//! gravit run    [--n N] [--steps S] [--backend cpu|par|bh|gpu] [--spawn ball|disk|collision|plummer]
//!               [--dt DT] [--record FILE] [--seed SEED]
//!               [--checkpoint FILE] [--checkpoint-every K] [--resume FILE]
//! gravit ladder                 # the paper's optimization ladder (Fig. 12 levels)
//! gravit model  [--n N]         # modeled GPU frame times at size N
//! gravit fleet  [--devices D] [--jobs J] [--seed S] [--fault-rates F,L,H]
//! gravit help
//! ```
//!
//! Exit codes: 0 success, 2 usage/configuration/checkpoint error, 3 device
//! fault under `--fault-policy fail`.

use gpu_kernels::force::OptLevel;
use gpu_sim::fault::DeviceError;
use gpu_sim::{DeviceConfig, DriverModel};
use gravit_app::backend::{Backend, FaultPolicy};
use gravit_app::checkpoint::Checkpoint;
use gravit_app::config::{SimConfig, SpawnKind};
use gravit_app::recorder::Recording;
use gravit_app::sim::{SimError, Simulation};
use simcore::format_duration_s;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("ladder") => cmd_ladder(),
        Some("model") => cmd_model(&args[1..]),
        Some("render") => cmd_render(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        _ => print_help(),
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The value of flag `name` parsed as `T`, or `default` when the flag is
/// absent. A value that does not parse or that `accepted` refuses exits 2
/// naming `expected`.
fn checked_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
    accepted: impl Fn(&T) -> bool,
    expected: &str,
) -> T {
    let Some(v) = flag(args, name) else {
        return default;
    };
    match v.parse::<T>() {
        Ok(x) if accepted(&x) => x,
        _ => {
            eprintln!("invalid {name} {v:?} (expected {expected})");
            std::process::exit(2);
        }
    }
}

/// Parse a byte count with an optional K/M/G suffix (binary multiples).
fn parse_bytes(v: &str) -> Option<u64> {
    let v = v.trim();
    let (digits, mult) = match v.as_bytes().last()? {
        b'K' | b'k' => (&v[..v.len() - 1], 1u64 << 10),
        b'M' | b'm' => (&v[..v.len() - 1], 1u64 << 20),
        b'G' | b'g' => (&v[..v.len() - 1], 1u64 << 30),
        _ => (v, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

fn cmd_run(args: &[String]) {
    let n: usize = checked_flag(args, "--n", 2048, |_| true, "a body count");
    let steps: u64 = checked_flag(args, "--steps", 50, |_| true, "a step count");
    // The time step's range is the configuration's to check (exit 2 too).
    let dt: f32 = checked_flag(args, "--dt", 0.005, |_| true, "a number");
    let seed: u64 = checked_flag(args, "--seed", 42, |_| true, "an unsigned integer");
    let backend = match flag(args, "--backend").as_deref() {
        Some("cpu") => Backend::CpuSerial,
        Some("par") | None => Backend::CpuParallel,
        Some("bh") => Backend::BarnesHut { theta: 0.6 },
        Some("gpu") => Backend::GpuSim {
            level: OptLevel::Full,
            driver: DriverModel::Cuda10,
        },
        Some(other) => {
            eprintln!("unknown --backend {other:?} (expected cpu|par|bh|gpu)");
            std::process::exit(2);
        }
    };
    let spawn = match flag(args, "--spawn").as_deref() {
        Some("ball") => SpawnKind::UniformBall { radius: 5.0 },
        Some("disk") | None => SpawnKind::DiskGalaxy { radius: 5.0 },
        Some("plummer") => SpawnKind::Plummer { a: 1.0 },
        Some("collision") => SpawnKind::Collision {
            separation: 20.0,
            approach_speed: 0.4,
        },
        Some(other) => {
            eprintln!("unknown --spawn {other:?} (expected ball|disk|collision|plummer)");
            std::process::exit(2);
        }
    };
    let fault_policy = match flag(args, "--fault-policy").as_deref() {
        Some("fail") => FaultPolicy::FailFast,
        Some("fallback") | None => FaultPolicy::FallbackToCpu,
        Some(other) => {
            eprintln!("unknown --fault-policy {other:?} (expected fail|fallback)");
            std::process::exit(2);
        }
    };
    let mut cfg = SimConfig {
        n,
        spawn,
        seed,
        dt,
        backend,
        fault_policy,
        ..SimConfig::default()
    };
    cfg.recovery.max_retries = checked_flag(
        args,
        "--max-retries",
        cfg.recovery.max_retries,
        |_| true,
        "a retry count",
    );
    if let Some(v) = flag(args, "--device-mem") {
        match parse_bytes(&v) {
            Some(bytes) => cfg.recovery.device_capacity = Some(bytes),
            None => {
                eprintln!("invalid --device-mem {v:?} (expected BYTES with optional K/M/G suffix)");
                std::process::exit(2);
            }
        }
    }
    if args.iter().any(|a| a == "--dry-run") {
        match backend {
            Backend::GpuSim { level, .. } => {
                let plan =
                    gravit_app::pressure::plan_frame(level, n as u32, cfg.recovery.device_capacity);
                print!("{}", plan.render());
            }
            other => println!(
                "memory plan: backend {} is not device-bound; no device memory needed",
                other.label()
            ),
        }
        return;
    }
    let ckpt_every: u64 = checked_flag(args, "--checkpoint-every", 0, |_| true, "a step count");
    cfg.recovery.checkpoint_every = ckpt_every;
    let ckpt_path =
        flag(args, "--checkpoint").or_else(|| (ckpt_every > 0).then(|| "gravit.ckpt".to_string()));
    println!(
        "gravit: n={n}, steps={steps}, dt={dt}, backend={}",
        backend.label()
    );

    let t0 = Instant::now();
    let mut sim = match flag(args, "--resume") {
        Some(path) => {
            let ckpt = Checkpoint::load(&path).unwrap_or_else(|e| {
                eprintln!("gravit: cannot resume from {path}: {e}");
                std::process::exit(2);
            });
            let sim = Simulation::resume(cfg, &ckpt).unwrap_or_else(|e| sim_error_exit(&e));
            println!(
                "resumed from {path} at step {} (t={:.3})",
                sim.steps, sim.time
            );
            sim
        }
        None => Simulation::new(cfg).unwrap_or_else(|e| sim_error_exit(&e)),
    };
    let mut recording = flag(args, "--record").map(|_| Recording::new(n, (n / 512).max(1)));
    if let Some(rec) = recording.as_mut() {
        rec.capture(&sim);
    }
    for s in sim.steps + 1..=steps {
        if let Err(e) = sim.step() {
            device_fault_exit(&e);
        }
        if let Some(rec) = recording.as_mut() {
            if s % 5 == 0 {
                rec.capture(&sim);
            }
        }
        if let (Some(path), true) = (&ckpt_path, ckpt_every > 0 && s % ckpt_every == 0) {
            if let Err(e) = sim.checkpoint().save(path) {
                eprintln!("gravit: checkpoint to {path} failed: {e}");
                std::process::exit(2);
            }
        }
    }
    // A memory-constrained run degrades every frame; cap the noise.
    const MAX_REPORTS: usize = 8;
    for report in sim.fault_reports.iter().take(MAX_REPORTS) {
        eprintln!("sanitizer: recovered device fault\n{}", report.render());
    }
    if sim.fault_reports.len() > MAX_REPORTS {
        eprintln!(
            "sanitizer: ... and {} more recovered faults (identical degradations elided)",
            sim.fault_reports.len() - MAX_REPORTS
        );
    }
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "done: t={:.3}, wall={}, {:.1} steps/s, energy drift {:.3e}, |momentum| {:.3e}",
        sim.time,
        format_duration_s(wall),
        steps as f64 / wall,
        sim.energy_drift(),
        sim.momentum_magnitude()
    );
    if let (Some(rec), Some(path)) = (recording, flag(args, "--record")) {
        if let Err(e) = rec.write(&path) {
            eprintln!("gravit: cannot write recording to {path}: {e}");
            std::process::exit(2);
        }
        println!("recording written to {path} ({} frames)", rec_len(&path));
    }
}

/// Print the sanitizer report and exit with the device-fault code (3),
/// distinct from usage errors (2).
fn device_fault_exit(e: &DeviceError) -> ! {
    eprintln!(
        "gravit: device fault detected by the sanitizer\n{}",
        e.report()
    );
    std::process::exit(3);
}

/// Map construction failures to exit codes: device faults exit 3;
/// configuration and checkpoint problems are usage errors, exit 2 with a
/// readable message.
fn sim_error_exit(e: &SimError) -> ! {
    match e {
        SimError::Device(d) => device_fault_exit(d),
        other => {
            eprintln!("gravit: {other}");
            std::process::exit(2);
        }
    }
}

fn rec_len(path: &str) -> usize {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| Recording::from_json(&s).ok())
        .map(|r| r.frames.len())
        .unwrap_or(0)
}

fn cmd_ladder() {
    let dev = DeviceConfig::g8800gtx();
    println!("Optimization ladder on {} (CUDA 1.0 model):\n", dev.name);
    println!(
        "{:<32} {:>10} {:>12} {:>6} {:>10}",
        "level", "tile-fetch", "instrs/elem", "regs", "occupancy"
    );
    for step in gravit_core::pipeline::optimization_ladder(&dev, DriverModel::Cuda10) {
        println!(
            "{:<32} {:>10} {:>12.2} {:>6} {:>9.0}%",
            step.level.label(),
            step.tile_fetch_transactions,
            step.instrs_per_element,
            step.regs,
            step.occupancy.percent()
        );
    }
}

fn cmd_model(args: &[String]) {
    let n: u32 = checked_flag(args, "--n", 100_000, |&n| n >= 1, "a body count >= 1");
    println!("Modeled 8800 GTX frame times at N = {n} (CUDA 1.0):\n");
    let base = gravit_app::model::model_frame(OptLevel::Baseline, n, DriverModel::Cuda10).total_s();
    for level in OptLevel::ALL {
        let p = gravit_app::model::model_frame(level, n, DriverModel::Cuda10);
        println!(
            "{:<32} {:>10}  (kernel {:>10}, transfers {:>9})  {:>5.2}x",
            level.label(),
            format_duration_s(p.total_s()),
            format_duration_s(p.kernel_s),
            format_duration_s(p.upload_s + p.download_s),
            base / p.total_s()
        );
    }
}

fn cmd_report(args: &[String]) {
    use gravit_core::layout_advisor::StructSchema;
    let dev = DeviceConfig::g8800gtx();
    let report =
        gravit_core::build_report(&dev, DriverModel::Cuda10, &StructSchema::gravit_particle());
    let json = report.to_json().unwrap_or_else(|e| {
        eprintln!("gravit: cannot serialize the report: {e}");
        std::process::exit(2);
    });
    match flag(args, "--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("gravit: cannot write report to {path}: {e}");
                std::process::exit(2);
            }
            println!("optimization report written to {path}");
        }
        None => println!("{json}"),
    }
}

fn cmd_render(args: &[String]) {
    let Some(input) = flag(args, "--input") else {
        eprintln!("render: --input FILE.json required (produced by `gravit run --record`)");
        std::process::exit(2);
    };
    let out = flag(args, "--out").unwrap_or_else(|| "frames".into());
    let size: usize = checked_flag(args, "--size", 256, |&s| s >= 1, "a pixel size >= 1");
    let rec = Recording::load(&input).unwrap_or_else(|e| {
        eprintln!("gravit: cannot load recording {input}: {e}");
        std::process::exit(2);
    });
    let n = gravit_app::render::render_recording(&rec, &out, size).unwrap_or_else(|e| {
        eprintln!("gravit: render failed: {e}");
        std::process::exit(2);
    });
    println!("rendered {n} frames to {out}/frame_NNNN.pgm");
    if let Some(last) = rec.frames.last() {
        let bounds = gravit_app::render::auto_bounds(&rec);
        match gravit_app::render::render_frame(last, size, size, bounds) {
            Ok(img) => println!("last frame preview:\n{}", img.ascii_preview(64)),
            Err(e) => eprintln!("gravit: preview skipped: {e}"),
        }
    }
}

/// Parse `--fault-rates flip,launch,hang` (three comma-separated
/// probabilities).
fn parse_fault_rates(v: &str) -> Option<gpu_sim::FaultRates> {
    let mut parts = v.split(',').map(|p| p.trim().parse::<f64>());
    let rates = gpu_sim::FaultRates {
        bit_flip: parts.next()?.ok()?,
        launch_failure: parts.next()?.ok()?,
        hang: parts.next()?.ok()?,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(rates)
}

fn cmd_fleet(args: &[String]) {
    use gpu_sim::{DevicePool, DeviceSpec};
    use gravit_app::fleet::{drive, Fleet, FleetConfig, FleetEvent, JobSpec};

    let devices: usize = checked_flag(args, "--devices", 2, |&d| d >= 1, "a device count >= 1");
    let jobs: u64 = checked_flag(args, "--jobs", 12, |_| true, "a job count");
    let seed: u64 = checked_flag(args, "--seed", 42, |_| true, "an unsigned integer");
    let n: usize = checked_flag(args, "--n", 256, |_| true, "a body count");
    let steps: u64 = checked_flag(args, "--steps", 16, |_| true, "a step count");
    let ticks: u64 = checked_flag(args, "--ticks", 100_000, |_| true, "a tick count");
    let rates = match flag(args, "--fault-rates") {
        Some(v) => match parse_fault_rates(&v) {
            Some(r) => r,
            None => {
                eprintln!("invalid --fault-rates {v:?} (expected FLIP,LAUNCH,HANG probabilities)");
                std::process::exit(2);
            }
        },
        None => gpu_sim::FaultRates::QUIET,
    };
    let capacity = match flag(args, "--device-mem") {
        Some(v) => match parse_bytes(&v) {
            Some(bytes) => Some(bytes),
            None => {
                eprintln!("invalid --device-mem {v:?} (expected BYTES with optional K/M/G suffix)");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let spec = DeviceSpec {
        capacity,
        fault_rates: rates,
        watchdog_instructions: Some(1 << 22),
    };
    let pool = match DevicePool::uniform(seed, devices, spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gravit: invalid pool: {e}");
            std::process::exit(2);
        }
    };
    let defaults = FleetConfig::default();
    let cfg = FleetConfig {
        seed,
        slice_steps: checked_flag(
            args,
            "--slice",
            defaults.slice_steps,
            |_| true,
            "a step count",
        ),
        queue_capacity: checked_flag(
            args,
            "--queue-cap",
            defaults.queue_capacity,
            |&q| q >= 1,
            "a queue length >= 1",
        ),
        preempt_rate: checked_flag(
            args,
            "--preempt-rate",
            defaults.preempt_rate,
            |p| (0.0..=1.0).contains(p),
            "a probability in [0, 1]",
        ),
        ..defaults
    };
    let specs: Vec<JobSpec> = (0..jobs)
        .map(|id| JobSpec {
            id,
            tenant: format!("tenant-{}", id % 4),
            config: SimConfig {
                n,
                spawn: SpawnKind::UniformBall { radius: 4.0 },
                seed: seed ^ id,
                dt: 0.01,
                backend: Backend::GpuSim {
                    level: OptLevel::Full,
                    driver: DriverModel::Cuda10,
                },
                fault_policy: FaultPolicy::FallbackToCpu,
                ..SimConfig::default()
            },
            steps,
        })
        .collect();
    println!(
        "fleet: {devices} device(s), {jobs} job(s) of n={n} x {steps} steps, seed {seed}, \
         rates (flip {:.2}, launch {:.2}, hang {:.2})",
        rates.bit_flip, rates.launch_failure, rates.hang
    );
    let mut fleet = Fleet::new(cfg, pool);
    let t0 = Instant::now();
    let outcome = match drive(&mut fleet, specs, ticks) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gravit: fleet did not converge: {e}");
            std::process::exit(2);
        }
    };
    let wall = t0.elapsed().as_secs_f64();
    let (mut faults, mut migrations, mut preemptions) = (0usize, 0usize, 0usize);
    for ev in fleet.events() {
        match ev {
            FleetEvent::Faulted { .. } => faults += 1,
            FleetEvent::Migrated { .. } => migrations += 1,
            FleetEvent::Preempted { .. } => preemptions += 1,
            _ => {}
        }
    }
    println!(
        "done: {} completed, {} rejected in {} tick(s), wall={} ({:.1} jobs/s)",
        fleet.completed().len(),
        outcome.rejected.len(),
        outcome.ticks,
        format_duration_s(wall),
        fleet.completed().len() as f64 / wall.max(1e-9),
    );
    println!("faults seen: {faults}, migrations: {migrations}, preemptions: {preemptions}");
    for d in 0..devices {
        let health = fleet
            .device_health(d)
            .map(|h| h.label().to_string())
            .unwrap_or_else(|| "?".into());
        println!(
            "device {d}: health {health}, {} fault(s) on record",
            fleet.fault_history(d).len()
        );
    }
    for (spec, why) in &outcome.rejected {
        println!("rejected job {} ({}): {why}", spec.id, why.label());
    }
    for f in fleet.failed() {
        println!("failed job {} ({}): {}", f.id, f.failure.label(), f.failure);
    }
}

fn print_help() {
    println!(
        "gravit — a Gravit-like gravity simulator (ICPP'09 CUDA-optimizations reproduction)

USAGE:
  gravit run    [--n N] [--steps S] [--backend cpu|par|bh|gpu]
                [--spawn ball|disk|collision|plummer] [--dt DT]
                [--seed SEED] [--record FILE] [--fault-policy fail|fallback]
                [--max-retries R] [--checkpoint FILE] [--checkpoint-every K]
                [--resume FILE] [--device-mem BYTES[K|M|G]] [--dry-run]
                (on a device fault: `fail` exits 3 with the sanitizer
                report; `fallback` retries transient faults up to R times,
                then finishes the frame on the CPU)
                (--device-mem caps the simulated device memory: a working
                set that does not fit degrades full -> chunked streaming ->
                CPU, bit-identical physics throughout; --dry-run prints the
                per-frame memory plan — budget, per-buffer breakdown, mode,
                chunk size — and exits without running)
                (--checkpoint-every K saves a crash-safe checkpoint every K
                steps; --resume continues a killed run bit-identically;
                --steps is the total step count of the run, so a resumed
                run stops at the same step the uninterrupted one would)
  gravit ladder             print the paper's optimization ladder
  gravit model  [--n N]     modeled GPU frame times at size N
  gravit render --input REC.json [--out DIR] [--size PX]
  gravit report [--out FILE]    full optimization report as JSON
  gravit fleet  [--devices D] [--jobs J] [--seed SEED]
                [--fault-rates FLIP,LAUNCH,HANG] [--n N] [--steps S]
                [--slice K] [--queue-cap Q] [--preempt-rate P]
                [--device-mem BYTES[K|M|G]] [--ticks MAX]
                (runs J simulations across a supervised pool of D
                simulated devices: faulty devices are quarantined and
                their queues drained; running jobs preempt/migrate via
                in-memory checkpoints, bit-identically; the whole
                schedule and fault history replay from SEED)
  gravit help"
    );
}
