//! simperf — wall-clock benchmark of the *simulator itself* (not the modeled
//! device): how fast the functional and timed executors chew through
//! representative launches, sequentially and with the parallel block
//! executor (`simcore::par::map_indexed` over block shards, deterministic
//! commit/merge — see `gpu_sim::exec::functional` and DESIGN.md §15).
//!
//! Three workloads, each deterministic down to the bit:
//!
//! * `force_n4096` — one gravit force frame (OptLevel::Full, 4096 bodies,
//!   32 blocks × 128 threads) on the functional executor;
//! * `membench_soaos` — the SoAoaS membench kernel, 64 blocks × 64 threads,
//!   functional;
//! * `timed_membench` — the same kernel on the cycle-level timed executor
//!   (16 SMs, parallel across per-SM queues).
//!
//! Per workload × thread count the wall time is the **best of N runs**
//! (default 3): the minimum of repeats is the least noisy estimator on
//! load-sensitive runners. Every run's output memory is checksummed
//! (FNV-1a) and folded with the executor's statistics; a parallel run whose
//! checksum differs from the sequential run of the same workload is a
//! determinism bug and fails the binary immediately.
//!
//! Emits `BENCH_sim.json`. With `--check-against PATH`, the committed
//! baseline is loaded first and the run fails on (a) any checksum or
//! instruction-count drift — bit-identity is host-independent — or (b) a
//! wall-time regression beyond 1.2× + 50 ms slack.
//!
//! Usage: `simperf [--threads 1,8] [--reps N] [--json PATH]
//!         [--check-against PATH]`.

use bench::gate::{self, flag, fnv1a, Envelope, FNV_OFFSET};
use gpu_kernels::force::{build_force_kernel, force_params, OptLevel};
use gpu_kernels::membench::{build_membench_kernel, MembenchConfig};
use gpu_sim::exec::functional::run_lowered_full;
use gpu_sim::exec::timed::time_grid_lowered_full;
use gpu_sim::ir::lower::lower;
use gpu_sim::mem::GlobalMemory;
use gpu_sim::{DeviceConfig, DriverModel, TimingParams};
use nbody::model::ForceParams;
use nbody::spawn;
use particle_layouts::device::alloc_accel_out;
use particle_layouts::{DeviceImage, Layout, Particle};
use serde::{Deserialize, Serialize};
use simcore::par::host_threads;
use simcore::Table;

fn fold_u64(h: u64, v: u64) -> u64 {
    fnv1a(&v.to_le_bytes(), h)
}

/// One measured (workload, thread-count) cell.
#[derive(Serialize, Deserialize)]
struct SimRow {
    workload: String,
    threads: usize,
    /// Best-of-reps wall milliseconds.
    wall_ms: f64,
    /// Warp instructions the executor reported (bit-identity witness #1).
    warp_instructions: u64,
    /// FNV-1a over the output memory + run statistics, hex
    /// (bit-identity witness #2).
    checksum: String,
}

#[derive(Serialize, Deserialize)]
struct SimReport {
    bench: String,
    /// Physical cores of the measuring host — wall times and speedups are
    /// only comparable against a baseline from a similar machine, and a
    /// 1-core host cannot show wall-clock parallel speedup at all.
    host_cores: usize,
    rows: Vec<SimRow>,
}

/// Outcome of one executed workload: output checksum + instruction count.
struct Outcome {
    checksum: u64,
    warp_instructions: u64,
}

/// One force frame of gravit on the functional executor, decode-once,
/// explicit thread count. Mirrors `gravit_app::backend::gpu_frame`.
fn force_frame(threads: usize) -> Outcome {
    let level = OptLevel::Full;
    let cfg = level.config();
    let prog = lower(&build_force_kernel(cfg));
    let fp = ForceParams::default();
    let bodies = spawn::uniform_ball(4096, 5.0, 2.0, 42);
    let particles: Vec<Particle> = (0..bodies.len())
        .map(|i| Particle {
            pos: bodies.pos[i],
            vel: bodies.vel[i],
            mass: fp.g * bodies.mass[i],
        })
        .collect();
    let mut gmem = GlobalMemory::new(64 << 20);
    let img = DeviceImage::upload(&mut gmem, cfg.layout, &particles, cfg.block)
        .expect("bench upload fits");
    let out = alloc_accel_out(&mut gmem, img.padded_n).expect("bench output fits");
    let params = force_params(&img, out, fp.softening);
    let grid = img.padded_n / cfg.block;
    let run = run_lowered_full(
        &prog, grid, cfg.block, &params, &mut gmem, None, None, threads,
    )
    .expect("bench frame is well-formed");
    let accels = gmem
        .download(out, u64::from(img.n) * 16)
        .expect("output is initialized");
    let mut h = fnv1a(&accels, FNV_OFFSET);
    h = fold_u64(h, run.warp_instructions);
    h = fold_u64(h, run.barriers);
    Outcome {
        checksum: h,
        warp_instructions: run.warp_instructions,
    }
}

/// Shared setup for the membench workloads: kernel + device image + output
/// buffers, returning everything a launch needs.
fn membench_setup(
    grid: u32,
    block: u32,
) -> (
    gpu_sim::ir::lower::Program,
    GlobalMemory,
    Vec<u32>,
    [(u64, u64); 2],
) {
    let cfg = MembenchConfig {
        layout: Layout::SoAoaS,
        iters: 2,
    };
    let kernel = build_membench_kernel(cfg);
    let prog = lower(&kernel);
    let n = cfg.particles_needed(grid, block) as usize;
    let ps: Vec<Particle> = (0..n).map(|_| Particle::SENTINEL).collect();
    let mut gmem = GlobalMemory::new(64 << 20);
    let img = DeviceImage::upload(&mut gmem, cfg.layout, &ps, block).expect("bench upload fits");
    let out_bytes = u64::from(grid * block) * 4;
    let out_delta = gmem.alloc(out_bytes).expect("delta fits");
    let out_sum = gmem.alloc(out_bytes).expect("sum fits");
    let mut params = img.base_params();
    params.push(out_delta.0 as u32);
    params.push(out_sum.0 as u32);
    let outs = [(out_delta.0, out_bytes), (out_sum.0, out_bytes)];
    (prog, gmem, params, outs)
}

/// Checksum the output buffers of a membench launch (each downloaded
/// separately — allocations are redzone-separated).
fn checksum_outputs(gmem: &GlobalMemory, outs: &[(u64, u64)]) -> u64 {
    let mut h = FNV_OFFSET;
    for &(addr, bytes) in outs {
        let data = gmem
            .download(gpu_sim::mem::DevicePtr(addr), bytes)
            .expect("outputs are initialized");
        h = fnv1a(&data, h);
    }
    h
}

fn membench_functional(threads: usize) -> Outcome {
    let (grid, block) = (64u32, 64u32);
    let (prog, mut gmem, params, outs) = membench_setup(grid, block);
    let run = run_lowered_full(&prog, grid, block, &params, &mut gmem, None, None, threads)
        .expect("bench launch is well-formed");
    let mut h = checksum_outputs(&gmem, &outs);
    h = fold_u64(h, run.warp_instructions);
    h = fold_u64(h, run.barriers);
    Outcome {
        checksum: h,
        warp_instructions: run.warp_instructions,
    }
}

fn membench_timed(threads: usize) -> Outcome {
    let (grid, block) = (64u32, 64u32);
    let (prog, mut gmem, params, outs) = membench_setup(grid, block);
    let dev = DeviceConfig::g8800gtx();
    let driver = DriverModel::Cuda10;
    let tp = TimingParams::for_driver(driver);
    let run = time_grid_lowered_full(
        &prog, grid, block, 1, &params, &mut gmem, &dev, driver, &tp, threads,
    )
    .expect("bench launch is well-formed");
    let mut h = checksum_outputs(&gmem, &outs);
    h = fold_u64(h, run.warp_instructions);
    h = fold_u64(h, run.cycles);
    h = fold_u64(h, run.transactions);
    h = fold_u64(h, run.bus_bytes);
    Outcome {
        checksum: h,
        warp_instructions: run.warp_instructions,
    }
}

/// Wall-time regression gate: beyond 1.2× the committed baseline plus 50 ms
/// absolute slack (scheduler jitter must not trip short rows).
const ENVELOPE: Envelope = Envelope {
    factor: 1.2,
    slack_ms: 50.0,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads: Vec<usize> = flag(&args, "--threads")
        .unwrap_or_else(|| "1,8".into())
        .split(',')
        .map(|t| t.trim().parse().expect("--threads takes e.g. 1,8"))
        .collect();
    let reps: u32 = flag(&args, "--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let json_path = flag(&args, "--json").unwrap_or_else(|| "BENCH_sim.json".into());
    let baseline: Option<SimReport> = gate::baseline(&args);
    let host_cores = host_threads();

    type Workload = fn(usize) -> Outcome;
    let workloads: Vec<(&str, Workload)> = vec![
        ("force_n4096", force_frame),
        ("membench_soaos", membench_functional),
        ("timed_membench", membench_timed),
    ];

    let mut rows: Vec<SimRow> = Vec::new();
    let mut determinism_failures = 0usize;
    for (name, run) in &workloads {
        // The sequential run is the reference every parallel run must match.
        let mut reference: Option<Outcome> = None;
        for &t in &threads {
            let (best_ms, o) = gate::best_of(reps, || run(t));
            if let Some(r) = &reference {
                if r.checksum != o.checksum || r.warp_instructions != o.warp_instructions {
                    println!(
                        "[FAIL] {name} at {t} threads diverged from {} threads: \
                         checksum {:016x} vs {:016x}, instructions {} vs {}",
                        threads[0],
                        o.checksum,
                        r.checksum,
                        o.warp_instructions,
                        r.warp_instructions
                    );
                    determinism_failures += 1;
                }
            } else {
                reference = Some(Outcome {
                    checksum: o.checksum,
                    warp_instructions: o.warp_instructions,
                });
            }
            rows.push(SimRow {
                workload: (*name).to_string(),
                threads: t,
                wall_ms: best_ms,
                warp_instructions: o.warp_instructions,
                checksum: format!("{:016x}", o.checksum),
            });
        }
    }

    let mut table = Table::new(
        "Simulator executor wall time — parallel block execution",
        &["workload", "threads", "wall ms", "speedup", "checksum"],
    );
    for r in &rows {
        let base = rows
            .iter()
            .find(|b| b.workload == r.workload && b.threads == threads[0])
            .expect("reference row exists");
        table.row(vec![
            r.workload.clone(),
            r.threads.to_string(),
            format!("{:.2}", r.wall_ms),
            format!("{:.2}x", base.wall_ms / r.wall_ms),
            r.checksum.clone(),
        ]);
    }
    print!("{}", table.to_markdown());
    println!("host cores: {host_cores}");

    // Baseline gate: bit-identity is host-independent and absolute; wall
    // time gets the 1.2x + slack envelope.
    let mut gate_failures = 0usize;
    if let Some(b) = &baseline {
        for r in &rows {
            let Some(base) = b
                .rows
                .iter()
                .find(|x| x.workload == r.workload && x.threads == r.threads)
            else {
                continue; // new cell: nothing to regress against
            };
            if base.checksum != r.checksum || base.warp_instructions != r.warp_instructions {
                println!(
                    "[FAIL] {} at {} threads drifted from the committed baseline: \
                     checksum {} vs {}, instructions {} vs {}",
                    r.workload,
                    r.threads,
                    r.checksum,
                    base.checksum,
                    r.warp_instructions,
                    base.warp_instructions
                );
                gate_failures += 1;
            }
            if ENVELOPE.regressed(base.wall_ms, r.wall_ms) {
                println!(
                    "[FAIL] {} at {} threads: {:.2} ms vs committed {:.2} ms (> {ENVELOPE})",
                    r.workload, r.threads, r.wall_ms, base.wall_ms
                );
                gate_failures += 1;
            }
        }
        println!(
            "checked {} cells against committed baseline (host_cores {} vs baseline {})",
            rows.len(),
            host_cores,
            b.host_cores
        );
    }

    let report = SimReport {
        bench: "sim".into(),
        host_cores,
        rows,
    };
    std::fs::write(
        &json_path,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write BENCH_sim.json");
    println!("wrote {json_path}");

    if determinism_failures > 0 {
        println!("[FAIL] {determinism_failures} parallel runs were not bit-identical");
        std::process::exit(1);
    }
    if gate_failures > 0 {
        println!("[FAIL] {gate_failures} baseline-gate failures");
        std::process::exit(1);
    }
    println!("all thread counts bit-identical; executor performance recorded");
}
