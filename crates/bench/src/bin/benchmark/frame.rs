//! `frame_n4096`: one gravit simulation stepping on the simulated GPU.
//!
//! Untraced, each operation is a `Simulation::step`. Traced, each operation
//! is a replica of that step built from the layers' public calls, so spans
//! can sit between them; the replica must reproduce the simulation bit for
//! bit, which the committed checksum and the oracle check.

use crate::expected;
use crate::stats::{fnv1a, FNV_OFFSET};
use crate::trace::{total_ns, Tracer};
use crate::workload::{ms_since, peak_rss_kib, time_setup, Outcome, Run, Scale, Window};
use gpu_kernels::force::{build_force_kernel, force_params, OptLevel};
use gpu_sim::exec::functional::{configured_threads, run_lowered_full};
use gpu_sim::fault::{DeviceError, DeviceResult, FaultKind};
use gpu_sim::ir::lower::lower;
use gpu_sim::mem::GlobalMemory;
use gpu_sim::DriverModel;
use gravit_app::backend::{frame_memory_budget, Backend, FaultPolicy};
use gravit_app::config::{SimConfig, SpawnKind};
use gravit_app::sim::Simulation;
use nbody::direct::accelerations;
use nbody::integrator::step_leapfrog;
use nbody::model::{Bodies, ForceParams};
use particle_layouts::device::{alloc_accel_out, download_accels};
use particle_layouts::{DeviceImage, Particle};
use simcore::Vec3;
use std::time::Instant;

/// The optimization level every GPU frame of the benchmark runs at.
pub const LEVEL: OptLevel = OptLevel::Full;

/// Bodies, and the step after which the state digest is taken (every run
/// takes at least that many steps).
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (4096, 8),
        Scale::Smoke => (256, 2),
    }
}

fn config(n: usize, seed: u64) -> SimConfig {
    SimConfig {
        n,
        spawn: SpawnKind::UniformBall { radius: 5.0 },
        seed,
        backend: Backend::GpuSim {
            level: LEVEL,
            driver: DriverModel::Cuda10,
        },
        fault_policy: FaultPolicy::FailFast,
        ..SimConfig::default()
    }
}

/// Warp instructions and frames the replica executed.
#[derive(Default)]
pub struct FrameStats {
    /// Warp instructions over every replica frame.
    pub winst: u64,
    /// Replica frames run.
    pub frames: u64,
}

/// Fill the per-layer counts every replica-frame workload reports.
pub fn frame_counts(out: &mut Outcome, stats: &FrameStats) {
    let spans = out.tracer.spans();
    let fixed = ["kernels.build", "ir.lower", "layouts.alloc"]
        .iter()
        .map(|n| total_ns(spans, n))
        .sum::<u64>();
    let frame = total_ns(spans, "backend.frame");
    let launch = total_ns(spans, "exec.launch");
    let fixed_frac = fixed as f64 / frame.max(1) as f64;
    let rate = stats.winst as f64 / (launch.max(1) as f64 / 1e3);
    out.count("frame.fixed_frac", fixed_frac);
    out.count("exec.minst_per_s", rate);
    out.count(
        "exec.winst",
        stats.winst as f64 / stats.frames.max(1) as f64,
    );
}

/// One force frame exactly as `gravit_app::backend` computes it on the
/// simulated GPU (full residency, no fault injection), with a span around
/// each layer call.
pub fn replica_frame(
    tr: &mut Tracer,
    bodies: &Bodies,
    fp: &ForceParams,
    threads: usize,
    stats: &mut FrameStats,
) -> DeviceResult<Vec<Vec3>> {
    if bodies.is_empty() {
        return Ok(Vec::new());
    }
    tr.span("backend.frame", |tr| {
        let cfg = LEVEL.config();
        let kernel = tr.span("kernels.build", |_| build_force_kernel(cfg));
        let prog = tr.span("ir.lower", |_| lower(&kernel));
        let n = bodies.len() as u32;
        let mut gmem = tr.span("layouts.alloc", |_| {
            GlobalMemory::new(frame_memory_budget(LEVEL, n))
        });
        let img = tr.span("layouts.upload", |_| {
            let particles: Vec<Particle> = (0..bodies.len())
                .map(|i| Particle {
                    pos: bodies.pos[i],
                    vel: bodies.vel[i],
                    mass: fp.g * bodies.mass[i],
                })
                .collect();
            DeviceImage::upload(&mut gmem, cfg.layout, &particles, cfg.block)
        })?;
        let out = tr.span("layouts.alloc", |_| {
            alloc_accel_out(&mut gmem, img.padded_n)
        })?;
        let params = force_params(&img, out, fp.softening);
        let grid = img.padded_n / cfg.block;
        let run = tr.span("exec.launch", |_| {
            run_lowered_full(
                &prog, grid, cfg.block, &params, &mut gmem, None, None, threads,
            )
        })?;
        stats.winst += run.warp_instructions;
        stats.frames += 1;
        let accels = tr.span("layouts.download", |_| download_accels(&gmem, out, img.n))?;
        tr.span("backend.nan_scan", |_| {
            match accels
                .iter()
                .position(|a| !(a.x.is_finite() && a.y.is_finite() && a.z.is_finite()))
            {
                None => Ok(()),
                Some(i) => Err(
                    DeviceError::new(FaultKind::NonFiniteResult { index: i as u64 })
                        .with_kernel(&kernel.name),
                ),
            }
        })?;
        Ok(accels)
    })
}

/// One leapfrog step as `Simulation::step` takes it, on the replica frame.
fn replica_step(
    tr: &mut Tracer,
    bodies: &mut Bodies,
    accels: &[Vec3],
    cfg: &SimConfig,
    threads: usize,
    stats: &mut FrameStats,
) -> DeviceResult<Vec<Vec3>> {
    let mut fault = None;
    let next = tr.span("nbody.integrate", |tr| {
        step_leapfrog(bodies, accels, cfg.dt, None, |b| {
            replica_frame(tr, b, &cfg.force, threads, stats).unwrap_or_else(|e| {
                fault = Some(e);
                vec![Vec3::ZERO; b.len()]
            })
        })
    });
    fault.map_or(Ok(next), Err)
}

/// Digest of a body state: positions, velocities, masses and accelerations.
fn state_digest(b: &Bodies, accels: &[Vec3]) -> u64 {
    let mut h = FNV_OFFSET;
    for (((p, v), a), m) in b.pos.iter().zip(&b.vel).zip(accels).zip(&b.mass) {
        for c in [p, v, a].into_iter().flat_map(|x| x.to_array()) {
            h = fnv1a(h, &c.to_bits().to_le_bytes());
        }
        h = fnv1a(h, &m.to_bits().to_le_bytes());
    }
    h
}

/// Run the workload.
pub fn run(r: &Run) -> Outcome {
    let (n, check_steps) = sizes(r.scale);
    let threads = configured_threads();
    let mut out = Outcome::new(threads, 1);
    let sim = time_setup(r, &mut out, || Simulation::new(config(n, r.seed)));
    let mut sim = match sim {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("Simulation::new failed: {e}"));
            return out;
        }
    };
    let cfg = sim.config.clone();
    let mut stats = FrameStats::default();
    let mut bodies = sim.bodies.clone();
    let mut accels = sim.accels.clone();
    let window = Window::open();
    while r.keep_going(window.start(), &out.op_wall_ms, check_steps) {
        out.attempted += 1;
        let t = Instant::now();
        let step = if r.trace {
            out.tracer
                .op(|tr| replica_step(tr, &mut bodies, &accels, &cfg, threads, &mut stats))
                .map(|a| accels = a)
        } else {
            sim.step()
        };
        if let Err(e) = step {
            out.fail(format!("frame {} faulted: {e}", out.op_wall_ms.len()));
            break;
        }
        out.op_wall_ms.push(ms_since(t));
        if out.op_wall_ms.len() == check_steps {
            out.digest = Some(if r.trace {
                state_digest(&bodies, &accels)
            } else {
                state_digest(&sim.bodies, &sim.accels)
            });
        }
    }
    window.close(&mut out);
    out.peak_rss_kib = peak_rss_kib();
    if !r.trace {
        bodies = sim.bodies;
        accels = sim.accels;
    }

    // Oracle: the last frame (unless one faulted) against the CPU direct
    // sum, bit for bit.
    if out.failed == 0 && accelerations(&bodies, &cfg.force) != accels {
        out.fail("last frame differs from the CPU direct sum".into());
    }
    if let (true, Some(d)) = (r.checks_seeded_digest(), out.digest) {
        out.check_digest(d, expected::FRAME_N4096, "body state after 8 steps");
    }
    if r.trace {
        frame_counts(&mut out, &stats);
    }
    out
}
