//! # Galaxy collision — the Gravit showcase workload
//!
//! Two disk galaxies on a collision course, integrated with leapfrog on the
//! multi-threaded CPU backend, with energy/momentum diagnostics and a JSON
//! recording — the "beautiful looking gravity patterns" the paper credits
//! Gravit with.
//!
//! Run: `cargo run --release --example galaxy_collision [-- --n 4000 --steps 200]`

use gravit_app::backend::Backend;
use gravit_app::config::{Integrator, SimConfig, SpawnKind};
use gravit_app::recorder::Recording;
use gravit_app::sim::Simulation;
use simcore::format_duration_s;
use std::time::Instant;

fn arg(name: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let n = arg("--n", 3000) as usize;
    let steps = arg("--steps", 150);
    let cfg = SimConfig {
        n,
        spawn: SpawnKind::Collision {
            separation: 18.0,
            approach_speed: 0.35,
        },
        seed: 2009,
        dt: 0.01,
        integrator: Integrator::Leapfrog,
        backend: Backend::CpuParallel,
        ..SimConfig::default()
    };
    println!(
        "Colliding galaxies: n={n}, {steps} steps, backend={}",
        cfg.backend.label()
    );

    let t0 = Instant::now();
    let mut sim = Simulation::new(cfg).expect("no device faults in a healthy run");
    let mut rec = Recording::new(n, (n / 1000).max(1));
    rec.capture(&sim);

    let com0 = sim.bodies.center_of_mass();
    for s in 1..=steps {
        sim.step().expect("no device faults in a healthy run");
        if s % 10 == 0 {
            rec.capture(&sim);
            println!(
                "  t={:>6.2}  energy drift {:>9.2e}  |momentum| {:>9.2e}",
                sim.time,
                sim.energy_drift(),
                sim.momentum_magnitude()
            );
        }
    }
    let com1 = sim.bodies.center_of_mass();
    println!(
        "done in {} — COM moved {:.3} (ballistic drift of the approaching pair)",
        format_duration_s(t0.elapsed().as_secs_f64()),
        com0.distance(com1)
    );

    let path = std::env::temp_dir().join("gravit_collision.json");
    rec.write(&path).expect("write recording");
    println!(
        "recording: {} ({} frames)",
        path.display(),
        rec.frames.len()
    );
    assert!(
        sim.energy_drift() < 0.2,
        "energy diverged — integration unstable"
    );
}
