//! `model_fig12`: the paper's Fig. 12 sweep on the timed engine —
//! `model_frame` for every optimization level at each Fig. 12 size, under
//! the CUDA 1.0 driver. One operation is one Fig. 12 column: all six levels
//! at one size. The seed picks the column the run starts at; every column
//! is checked against its committed digest on every seed.
//!
//! Traced, each point is a replica of `model_frame_config` built from the
//! public calls it makes, with spans around them; the replica must produce
//! the same frame points, which the digests check. A traced run covers at
//! least the whole sweep.

use crate::expected;
use crate::stats::{fnv1a, fold_u64, FNV_OFFSET};
use crate::trace::{total_ns, Tracer};
use crate::workload::{ms_since, peak_rss_kib, time_setup, Outcome, Run, Scale, Window};
use bench::gravit_harness::FIG12_SIZES;
use gpu_kernels::force::{build_force_kernel, force_params, OptLevel};
use gpu_sim::exec::launch::extrapolate_linear;
use gpu_sim::exec::timed::time_resident;
use gpu_sim::ir::regalloc::register_demand;
use gpu_sim::mem::GlobalMemory;
use gpu_sim::occupancy::occupancy;
use gpu_sim::transfer::PcieModel;
use gpu_sim::{DeviceConfig, DriverModel, TimingParams};
use gravit_app::model::{model_frame, FramePoint};
use particle_layouts::device::alloc_accel_out;
use particle_layouts::{DeviceImage, Particle};
use simcore::Vec3;
use std::collections::BTreeSet;
use std::time::Instant;

/// Tile counts `model_frame` fits its steady state at
/// (`gravit_app::model`'s `FIT_TILES`).
const FIT_TILES: [u32; 2] = [4, 8];

const DRIVER: DriverModel = DriverModel::Cuda10;

/// The levels of a column, each with its force kernel's register demand,
/// which every frame point at that level must report.
fn levels(scale: Scale) -> Vec<(OptLevel, u32)> {
    let levels = match scale {
        Scale::Full => OptLevel::ALL.to_vec(),
        Scale::Smoke => vec![OptLevel::Full],
    };
    levels
        .into_iter()
        .map(|l| {
            let kernel = build_force_kernel(l.config());
            (l, u32::from(register_demand(&kernel).regs_per_thread))
        })
        .collect()
}

/// The columns of this run, starting at the one the seed picks.
fn columns(seed: u64) -> impl Iterator<Item = u32> {
    let first = seed as usize % FIG12_SIZES.len();
    (0..).map(move |k| FIG12_SIZES[(first + k) % FIG12_SIZES.len()])
}

/// Modeled-device counters and the timed engine's inputs seen so far.
#[derive(Default)]
struct TimedStats {
    winst: u64,
    cycles: u64,
    calls: u64,
    inputs: BTreeSet<(String, Vec<u32>, Vec<u32>)>,
}

/// `model_frame(level, n, DRIVER)` rebuilt from its public calls.
fn replica_point(
    tr: &mut Tracer,
    level: OptLevel,
    n: u32,
    stats: &mut TimedStats,
) -> Result<FramePoint, String> {
    tr.span("model.point", |tr| {
        let cfg = level.config();
        let dev = DeviceConfig::g8800gtx();
        let tp = TimingParams::for_driver(DRIVER);
        let pcie = PcieModel::pcie1_x16();
        let kernel = tr.span("kernels.build", |_| build_force_kernel(cfg));
        let regs = tr.span("ir.regalloc", |_| register_demand(&kernel).regs_per_thread);
        let occ = occupancy(&dev, cfg.block, u32::from(regs), kernel.smem_bytes);
        let padded = n.div_ceil(cfg.block) * cfg.block;
        let resident: Vec<u32> = (0..occ.active_blocks.min(FIT_TILES[0])).collect();
        let mut measured = Vec::new();
        for tiles in FIT_TILES {
            let small_n = tiles * cfg.block;
            let particles: Vec<Particle> = (0..small_n)
                .map(|i| Particle {
                    pos: Vec3::new(i as f32 * 0.01, 1.0, 2.0),
                    vel: Vec3::ZERO,
                    mass: 1.0,
                })
                .collect();
            let mut gmem = tr.span("layouts.alloc", |_| GlobalMemory::new(64 << 20));
            let img = tr
                .span("layouts.upload", |_| {
                    DeviceImage::upload(&mut gmem, cfg.layout, &particles, cfg.block)
                })
                .map_err(|e| e.to_string())?;
            let out = tr
                .span("layouts.alloc", |_| {
                    alloc_accel_out(&mut gmem, img.padded_n)
                })
                .map_err(|e| e.to_string())?;
            let params = force_params(&img, out, 0.05);
            let grid = resident.len() as u32;
            let run = tr
                .span("timed.resident", |_| {
                    time_resident(
                        &kernel, &resident, cfg.block, grid, &params, &mut gmem, &dev, DRIVER, &tp,
                    )
                })
                .map_err(|e| e.to_string())?;
            stats.winst += run.warp_instructions;
            stats.cycles += run.cycles;
            stats.calls += 1;
            stats
                .inputs
                .insert((level.label().to_string(), resident.clone(), params));
            measured.push((u64::from(small_n), run.cycles));
        }
        let wave_cycles =
            extrapolate_linear(&measured, u64::from(padded)).map_err(|e| e.to_string())?;
        let blocks = u64::from(padded / cfg.block);
        let waves = blocks.div_ceil(u64::from(dev.num_sms) * resident.len() as u64);
        let sizes: Vec<u64> = cfg
            .layout
            .buffers()
            .iter()
            .map(|b| b.stride() * u64::from(padded))
            .collect();
        Ok(FramePoint {
            level,
            n,
            upload_s: pcie.copies_time_s(&sizes),
            kernel_s: (wave_cycles * waves) as f64 / dev.clock_hz,
            download_s: pcie.copy_time_s(16 * u64::from(padded)),
            regs: u32::from(regs),
            occupancy: occ,
        })
    })
}

/// Fold one frame point's exact bits into `h`.
fn point_digest(h: u64, p: &FramePoint) -> u64 {
    let mut h = fnv1a(h, p.level.label().as_bytes());
    for v in [
        u64::from(p.n),
        p.upload_s.to_bits(),
        p.kernel_s.to_bits(),
        p.download_s.to_bits(),
        u64::from(p.regs),
        u64::from(p.occupancy.active_blocks),
        u64::from(p.occupancy.active_warps),
        u64::from(p.occupancy.max_warps),
    ] {
        h = fold_u64(h, v);
    }
    fnv1a(h, format!("{:?}", p.occupancy.limiter).as_bytes())
}

/// Run the workload.
pub fn run(r: &Run) -> Outcome {
    let mut out = Outcome::new(1, 1);
    // The set-up builds each level's kernel and allocates its registers.
    let plan = time_setup(r, &mut out, || levels(r.scale));
    let mut stats = TimedStats::default();
    // A traced run covers the whole sweep, so the share of distinct timed
    // simulations is the sweep's own.
    let min_ops = if r.trace && r.scale == Scale::Full {
        FIG12_SIZES.len()
    } else {
        1
    };
    let window = Window::open();
    for n in columns(r.seed) {
        if !r.keep_going(window.start(), &out.op_wall_ms, min_ops) {
            break;
        }
        let t = Instant::now();
        let column: Vec<Result<FramePoint, String>> = if r.trace {
            out.tracer.op(|tr| {
                plan.iter()
                    .map(|&(l, _)| replica_point(tr, l, n, &mut stats))
                    .collect()
            })
        } else {
            plan.iter()
                .map(|&(l, _)| Ok(model_frame(l, n, DRIVER)))
                .collect()
        };
        out.op_wall_ms.push(ms_since(t));
        out.attempted += column.len() as u64;
        let mut h = FNV_OFFSET;
        for (p, &(level, regs)) in column.into_iter().zip(&plan) {
            match p {
                Ok(p) if p.regs == regs => h = point_digest(h, &p),
                Ok(p) => out.fail(format!(
                    "n={n} {}: {} registers, the kernel needs {regs}",
                    level.label(),
                    p.regs
                )),
                Err(e) => out.fail(format!("n={n}: {e}")),
            }
        }
        // The run reports its first column's digest, which the seed picks.
        out.digest.get_or_insert(h);
        if r.scale == Scale::Full {
            match expected::MODEL_FIG12.iter().find(|(size, _)| *size == n) {
                Some(&(_, want)) => out.check_digest(h, want, &format!("Fig. 12 column n={n}")),
                None => out.fail(format!("no committed digest for n={n}")),
            }
        }
    }
    window.close(&mut out);
    out.peak_rss_kib = peak_rss_kib();
    if r.trace {
        let columns = out.op_wall_ms.len().max(1) as f64;
        let resident_ns = total_ns(out.tracer.spans(), "timed.resident");
        out.count("timed.winst", stats.winst as f64 / columns);
        out.count("timed.cycles", stats.cycles as f64 / columns);
        out.count(
            "timed.minst_per_s",
            stats.winst as f64 / (resident_ns.max(1) as f64 / 1e3),
        );
        out.count(
            "model.distinct_sim_frac",
            stats.inputs.len() as f64 / stats.calls.max(1) as f64,
        );
    }
    out
}
