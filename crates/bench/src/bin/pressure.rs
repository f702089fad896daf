//! Memory-pressure overhead baseline: chunked streaming execution vs the
//! unconstrained full-resident frame, at an `n` where **both** fit the
//! device. Chunking exists for working sets that don't fit; this benchmark
//! measures what the streaming machinery costs when it isn't needed — the
//! perf baseline the ROADMAP asked for — and asserts the modes stay
//! bit-identical while doing so.
//!
//! Emits `BENCH_pressure.json`:
//!
//! ```json
//! { "n": 960, "level": "SoAoaS+unroll+licm", "full": { ... },
//!   "chunked": [ { "chunk": 512, "overhead_x": ..., ... }, ... ] }
//! ```
//!
//! Usage: `pressure [--n BODIES] [--reps R] [--out PATH]`.

use std::time::Instant;

use gpu_kernels::force::OptLevel;
use gpu_sim::DriverModel;
use gravit_app::backend::{frame_memory_budget, Backend, FrameOpts};
use gravit_app::pressure::{chunk_floor, chunked_memory_budget, gpu_frame_chunked};
use nbody::model::ForceParams;
use nbody::spawn;
use serde::Serialize;

#[derive(Serialize)]
struct FullRow {
    wall_s: f64,
    launches: u64,
    device_footprint_bytes: u64,
}

#[derive(Serialize)]
struct ChunkRow {
    chunk: u32,
    wall_s: f64,
    overhead_x: f64,
    launches: u64,
    device_footprint_bytes: u64,
    footprint_vs_full: f64,
    bit_identical: bool,
}

#[derive(Serialize)]
struct Report {
    bench: String,
    n: u32,
    level: String,
    block: u32,
    reps: u32,
    full: FullRow,
    chunked: Vec<ChunkRow>,
    all_bit_identical: bool,
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Best-of-`reps` wall time of `f`, plus its (bitwise-comparable) result.
fn time_best<T>(reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: u32 = flag(&args, "--n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(960);
    let reps: u32 = flag(&args, "--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let out_path = flag(&args, "--out").unwrap_or_else(|| "BENCH_pressure.json".into());

    let level = OptLevel::Full;
    let block = chunk_floor(level);
    let bodies = spawn::uniform_ball(n as usize, 5.0, 2.0, 42);
    let fp = ForceParams::default();
    let backend = Backend::GpuSim {
        level,
        driver: DriverModel::Cuda10,
    };
    let padded = n.div_ceil(block) * block;
    let full_budget = frame_memory_budget(level, n);

    println!(
        "pressure baseline: n={n} level={} block={block} full budget {full_budget} B, \
         best of {reps} reps",
        level.label()
    );

    let (full_s, reference) = time_best(reps, || {
        backend
            .try_accelerations(&bodies, &fp)
            .expect("unconstrained frame")
    });
    println!("  full resident: {full_s:.4}s (1 launch, {full_budget} B footprint)");

    // Chunk sizes from one halving of the padded count down to the floor —
    // exactly the rungs the degradation ladder would visit for this n.
    let mut chunks = Vec::new();
    let mut c = padded / 2 / block * block;
    while c >= block {
        chunks.push(c);
        if c == block {
            break;
        }
        c = (c / 2).div_ceil(block) * block;
    }

    let mut rows = Vec::new();
    let mut all_identical = true;
    for &chunk in &chunks {
        let (wall_s, accels) = time_best(reps, || {
            gpu_frame_chunked(&bodies, &fp, level, chunk, &mut FrameOpts::default())
                .expect("chunked frame")
        });
        let bit_identical = accels == reference;
        all_identical &= bit_identical;
        let n_chunks = padded.div_ceil(chunk) as u64;
        let launches = n_chunks * n_chunks;
        let footprint = chunked_memory_budget(level, chunk);
        let overhead = wall_s / full_s;
        println!(
            "  chunked c={chunk:4}: {wall_s:.4}s ({overhead:.2}x full, {launches} launches, \
             {footprint} B footprint, bit-identical: {bit_identical})"
        );
        rows.push(ChunkRow {
            chunk,
            wall_s,
            overhead_x: overhead,
            launches,
            device_footprint_bytes: footprint,
            footprint_vs_full: footprint as f64 / full_budget as f64,
            bit_identical,
        });
    }

    let report = Report {
        bench: "pressure".into(),
        n,
        level: level.label().into(),
        block,
        reps,
        full: FullRow {
            wall_s: full_s,
            launches: 1,
            device_footprint_bytes: full_budget,
        },
        chunked: rows,
        all_bit_identical: all_identical,
    };
    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write BENCH_pressure.json");
    println!("wrote {out_path}");

    if !all_identical {
        eprintln!("VIOLATION: chunked execution diverged from the unconstrained frame");
        std::process::exit(1);
    }
}
