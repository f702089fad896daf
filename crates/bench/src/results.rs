//! The results registry: one [`Entry`] per `results/*.csv`.
//!
//! An entry renders one of the paper's figures or tables, or one of its
//! ablations (DESIGN.md §4), as a [`Table`], the notes printed under it and
//! the failures of the gates it checks. The `results` binary prints and
//! writes every entry (`--only SLUG`: one) and exits 1 on a gate failure;
//! `tests/results.rs` renders every entry and compares it byte for byte with
//! its committed CSV, the [`Entry::host_timed`] columns masked.

use crate::gravit_harness::{cpu_frame_seconds, fig12_sweep, model_frame, FIG12_SIZES};
use crate::membench_harness::{fig10_sweep, fig11_speedups, run_membench, run_membench_texture};
use crate::tables::{
    bank_sweep, bh_bounds_validation, bh_crossover, block_sweep, cost_vs_measured,
    device_sensitivity, grouping_ablation, inner_loop_budget, lint_cross_validation,
    occupancy_ladder, ranking_disagreements, synth_ranking_disagreements, synth_vs_measured,
    transaction_table,
};
use gpu_kernels::force::{
    build_force_kernel, build_force_kernel_prefetch, ForceKernelConfig, OptLevel,
};
use gpu_sim::DriverModel;
use gravit_app::model::{model_kernel, standard_upload};
use particle_layouts::Layout;
use simcore::{format_duration_s as dur, Table};

/// What rendering one entry produces.
pub struct Rendered {
    /// The table `results/<slug>.csv` holds.
    pub table: Table,
    /// Lines printed under the table.
    pub notes: Vec<String>,
    /// One line per failed gate check; empty when the entry passes or has
    /// no gate.
    pub failures: Vec<String>,
}

impl Rendered {
    /// `rows` under `title` and the comma-separated `header`.
    fn new(
        title: impl Into<String>,
        header: &str,
        rows: impl IntoIterator<Item = Vec<String>>,
        notes: &[&str],
    ) -> Self {
        let mut table = Table::new(title, &header.split(',').collect::<Vec<_>>());
        for r in rows {
            table.row(r);
        }
        let notes = notes.iter().map(|n| n.to_string()).collect();
        Rendered {
            table,
            notes,
            failures: Vec::new(),
        }
    }

    /// The entry's gate: its notes claim a pass, so they go when a check
    /// fails.
    fn gate(mut self, failures: Vec<String>) -> Self {
        if !failures.is_empty() {
            self.notes.clear();
        }
        self.failures = failures;
        self
    }
}

/// One table row: each cell's `Display`.
macro_rules! row {
    ($($cell:expr),* $(,)?) => {
        vec![$($cell.to_string()),*]
    };
}

/// One result of the reproduction.
pub struct Entry {
    /// The file stem under `results/`.
    pub slug: &'static str,
    /// Columns timed on the host, not modeled; they change from run to run.
    pub host_timed: &'static [&'static str],
    /// Computes the entry.
    pub render: fn() -> Rendered,
}

const fn modeled(slug: &'static str, render: fn() -> Rendered) -> Entry {
    Entry {
        slug,
        host_timed: &[],
        render,
    }
}

/// Every entry, in the order `results` renders them.
pub static REGISTRY: [Entry; 23] = [
    modeled("fig10_membench", fig10_membench),
    modeled("fig10_spread", fig10_spread),
    modeled("fig11_speedup", fig11_speedup),
    modeled("fig12_decomposition_CUDA_1_0", fig12_decomposition),
    Entry {
        slug: "fig12_gravit_CUDA_1_0",
        host_timed: &["CPU serial"],
        render: fig12_gravit,
    },
    Entry {
        slug: "summary_speedup",
        host_timed: &["full vs serial CPU (this machine)"],
        render: summary_speedup,
    },
    modeled("table_banks", banks),
    modeled("table_bh_bounds", bh_bounds),
    modeled("table_bh_crossover", crossover),
    modeled("table_blocksweep", blocksweep),
    modeled("table_grouping", grouping),
    modeled("table_gt200", gt200),
    modeled("table_lint_validation", lint_validation),
    modeled("table_model_validation", model_validation),
    modeled("table_occupancy", occupancy),
    modeled("table_prefetch", prefetch),
    modeled("table_synth", synth),
    modeled("table_texture", texture),
    modeled("table_transactions_CUDA_1_0", || {
        transactions(DriverModel::Cuda10)
    }),
    modeled("table_transactions_CUDA_1_1", || {
        transactions(DriverModel::Cuda11)
    }),
    modeled("table_transactions_CUDA_2_2", || {
        transactions(DriverModel::Cuda22)
    }),
    modeled("table_unroll", unroll),
    modeled("table_verify", verify),
];

/// The entry named `slug`.
pub fn find(slug: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.slug == slug)
}

/// The driver model of the Fig. 12 tables.
const FIG12_DRIVER: DriverModel = DriverModel::Cuda10;

/// The problem size of the ladder validations (`table_verify`,
/// `table_synth`).
const VALIDATION_N: u32 = 24_576;

fn pct(x: f64) -> String {
    format!("{x:.0}%")
}

/// Fig. 10: average cycles per single 4-byte read, per layout and driver.
fn fig10_membench() -> Rendered {
    let sweep = fig10_sweep();
    let rows = Layout::ALL.map(|layout| {
        let [r10, r11, r22] = DriverModel::ALL.map(|d| {
            let r = sweep.iter().find(|r| r.layout == layout && r.driver == d);
            r.expect("sweep complete")
        });
        let [c10, c11, c22] = [r10, r11, r22].map(|r| format!("{:.1}", r.avg_cycles_per_read));
        row![
            layout.label(),
            c10,
            c11,
            c22,
            r10.transactions,
            r10.bus_bytes
        ]
    });
    Rendered::new(
        "Fig. 10 — Average cycle count per single 4-byte read",
        "layout,CUDA 1.0,CUDA 1.1,CUDA 2.2,trans 1.0,bus bytes 1.0",
        rows,
        &[],
    )
}

/// The per-thread spread behind the CUDA 1.0 averages of Fig. 10.
fn fig10_spread() -> Rendered {
    let rows = Layout::ALL.map(|layout| {
        let r = run_membench(layout, DriverModel::Cuda10);
        let mut row = row![layout.label()];
        row.extend([r.p10, r.p50, r.p90, r.avg_cycles_per_read].map(|c| format!("{c:.1}")));
        row
    });
    Rendered::new(
        "Fig. 10 companion — per-thread cycles/element distribution (CUDA 1.0)",
        "layout,p10,median,p90,mean",
        rows,
        &[],
    )
}

/// Fig. 11: speedup of each optimized layout over the unoptimized baseline.
fn fig11_speedup() -> Rendered {
    let sp = fig11_speedups(&fig10_sweep());
    let rows = DriverModel::ALL.map(|driver| {
        let mut row = row![driver.label()];
        row.extend([Layout::SoA, Layout::AoaS, Layout::SoAoaS].map(|l| {
            let (_, _, s) = sp
                .iter()
                .find(|(d, ll, _)| *d == driver && *ll == l)
                .unwrap();
            format!("{s:.2}x")
        }));
        row
    });
    Rendered::new(
        "Fig. 11 — Speedup for the different memory layouts (baseline: unoptimized AoS)",
        "driver,SoA,AoaS,SoAoaS",
        rows,
        &[
            "Paper bands: SoA ≈ 1.1x, SoAoaS ≈ 1.5x (CUDA 1.0) / ≈ 1.3x (CUDA 2.2);",
            "CUDA 1.1 shows a flattened, reordered profile. See EXPERIMENTS.md.",
        ],
    )
}

/// Fig. 12: end-to-end frame time for every optimization level across
/// 40k … 1M bodies, with the measured serial-CPU line.
fn fig12_gravit() -> Rendered {
    let sweep = fig12_sweep(FIG12_DRIVER);
    let cpu = cpu_frame_seconds(4096);
    let rows = FIG12_SIZES.map(|n| {
        let total = |level: OptLevel| {
            let p = sweep.iter().find(|p| p.level == level && p.n == n);
            p.expect("sweep complete").total_s()
        };
        let mut row = row![n, dur(cpu(n))];
        row.extend(OptLevel::ALL.map(|level| dur(total(level))));
        row.push(format!(
            "{:.2}x",
            total(OptLevel::Baseline) / total(OptLevel::Full)
        ));
        row
    });
    Rendered::new(
        format!("Fig. 12 — Gravit frame time by optimization level ({FIG12_DRIVER})"),
        "N,CPU serial,GPU base,SoA,AoaS,SoAoaS,+unroll,full opt,full speedup",
        rows,
        &[],
    )
}

/// Fig. 12 step by step at the largest size: the paper's narrative.
fn fig12_decomposition() -> Rendered {
    let n = FIG12_SIZES[FIG12_SIZES.len() - 1];
    let mut prev: Option<f64> = None;
    let rows = OptLevel::ALL.map(|level| {
        let p = model_frame(level, n, FIG12_DRIVER);
        let total = p.total_s();
        let step = prev.map_or_else(|| "-".into(), |x| format!("{:.3}x", x / total));
        prev = Some(total);
        row![
            level.label(),
            dur(p.kernel_s),
            dur(p.upload_s + p.download_s),
            dur(total),
            p.regs,
            pct(p.occupancy.percent()),
            step
        ]
    });
    Rendered::new(
        format!("Fig. 12 decomposition at N = {n} ({FIG12_DRIVER})"),
        "level,kernel,transfers,total,regs,occupancy,vs previous",
        rows,
        &[],
    )
}

/// The abstract's headline numbers: the full kernel against the baseline
/// GPU port, and against this machine's serial CPU build (the paper's 87x
/// is against a 2009 Core 2 Duo, so the GPU-side ratio is the comparable
/// one).
fn summary_speedup() -> Rendered {
    let n = 1_000_000u32;
    // The serial CPU frame does not depend on the driver: measure it once.
    let cpu = cpu_frame_seconds(8192)(n);
    let rows = DriverModel::ALL.map(|driver| {
        let base = model_frame(OptLevel::Baseline, n, driver).total_s();
        let full = model_frame(OptLevel::Full, n, driver).total_s();
        row![
            driver.label(),
            format!("{:.2}x", base / full),
            format!("{:.1}x", cpu / full)
        ]
    });
    let note = format!(
        "CPU serial frame at N={n}: {} (measured at 8192 bodies, O(n^2)-extrapolated)",
        dur(cpu)
    );
    Rendered::new(
        format!("Headline speedups at N = {n}"),
        "driver,full vs GPU baseline,full vs serial CPU (this machine)",
        rows,
        &[
            note.as_str(),
            "Paper: 1.27x over the baseline GPU port; 87x over the 2009 serial CPU build.",
        ],
    )
}

/// Shared-memory bank conflicts: measured cycles against the analytic
/// conflict degree (Sec. I-A's serialization rule).
fn banks() -> Rendered {
    let rows = bank_sweep();
    let free = rows.iter().find(|r| r.stride == 1).unwrap().cycles as f64;
    let rows = rows.iter().map(|r| {
        let slowdown = format!("{:.2}x", r.cycles as f64 / free);
        row![r.stride, r.degree, r.cycles, slowdown]
    });
    Rendered::new(
        "Shared-memory bank conflicts — strided reads, 16 banks (CUDA 1.0 model)",
        "word stride,conflict degree,cycles,vs conflict-free",
        rows,
        &[
            "The force kernel's inner loop broadcasts one word to all lanes — degree 1,",
            "which is why the paper's tiling strategy is bank-conflict-free by design.",
        ],
    )
}

/// The analyzer's interval fragment on the Barnes–Hut traversal: the
/// measured transactions must land inside the static `[best, worst]`.
fn bh_bounds() -> Rendered {
    let rows = bh_bounds_validation(192);
    let failures = rows.iter().filter(|r| !r.enclosed).map(|r| {
        format!(
            "{} under {}: measured {} transactions escape the static [{}, {}]",
            r.kernel, r.driver, r.measured, r.tx_lo, r.tx_hi
        )
    });
    let failures = failures.collect();
    let rows = rows.iter().map(|r| {
        let enclosed = if r.enclosed { "yes" } else { "NO" };
        row![
            r.kernel,
            r.driver.label(),
            r.tx_lo,
            r.tx_hi,
            r.measured,
            enclosed
        ]
    });
    Rendered::new(
        "Interval transaction bounds vs dynamic coalescer — Barnes-Hut traversal",
        "kernel,driver,static lo,static hi,measured,enclosed",
        rows,
        &["The Barnes-Hut interval bounds enclose the dynamic traversal under every driver."],
    )
    .gate(failures)
}

/// E13: GPU Barnes–Hut against the tuned direct kernel — the measurable
/// form of the paper's Sec. I-D decision.
fn crossover() -> Rendered {
    let rows = bh_crossover(&[1_024, 4_096, 16_384, 65_536]);
    let rows = rows.iter().map(|r| {
        row![
            r.n,
            dur(r.direct_s),
            dur(r.bh_s),
            format!("{:.2}x", r.direct_s / r.bh_s),
            pct(r.bh_occupancy_pct)
        ]
    });
    Rendered::new(
        "GPU Barnes–Hut (θ=0.5) vs tuned direct O(n²) — modeled kernel time",
        "N,direct O(n^2),tree O(n log n),tree speedup,tree occupancy",
        rows,
        &[
            "The traversal kernel runs (validated bit-for-bit vs the CPU) but pays for",
            "divergence and 12 KiB/block stacks (1 block/SM, ~8% occupancy): on the 2007",
            "machine model the tuned O(n^2) kernel stays ahead at these sizes — the",
            "quantitative case for the paper's Sec. I-D decision. Competitive GPU tree",
            "codes needed the warp-cooperative traversals of the Fermi era.",
        ],
    )
}

/// The block-size design space behind the paper's switch to 128 threads.
fn blocksweep() -> Rendered {
    let n = 200_000;
    let rows = block_sweep(n, DriverModel::Cuda10);
    let rows = rows
        .iter()
        .map(|r| row![r.block, r.regs, pct(r.occupancy_pct), dur(r.kernel_s)]);
    Rendered::new(
        format!("Block-size sweep — SoAoaS + full unroll + ICM at N = {n} (CUDA 1.0)"),
        "block,regs,occupancy,kernel time",
        rows,
        &[
            "At 16 regs/thread, 64/128/256 all reach the 67% occupancy frontier; the",
            "paper's 128 sits on that frontier (192, their baseline block, does not).",
        ],
    )
}

/// Sec. II-D: the hot (position + mass) fetch per layout — the case for
/// storing the mass with the position.
fn grouping() -> Rendered {
    let rows = grouping_ablation(DriverModel::Cuda10);
    let rows = rows.iter().map(|a| {
        row![
            a.layout.label(),
            a.reads,
            a.transactions,
            a.bus_bytes,
            pct(100.0 * a.efficiency())
        ]
    });
    Rendered::new(
        "Grouping ablation — hot-path (pos+mass) fetch per half-warp, CUDA 1.0",
        "layout,loads,transactions,bus bytes,efficiency",
        rows,
        &[
            "Grouped SoAoaS fetches pos+mass in ONE float4; ungrouped AoaS must pull",
            "both halves of the 32-byte record to reach the mass (2x the traffic).",
        ],
    )
}

/// The paper's future work: the tuned kernel's occupancy on G80 and GT200.
fn gt200() -> Rendered {
    let rows = device_sensitivity();
    let rows = rows
        .iter()
        .map(|(name, warps, regs, occupancy)| row![name, warps, regs, pct(*occupancy)]);
    Rendered::new(
        "Device sensitivity — SoAoaS + unroll + ICM, block 128",
        "device,active warps,regs/thread,occupancy",
        rows,
        &[
            "GT200's doubled register file lifts the ceiling: the same 16-register",
            "kernel that needed the paper's ICM trick on G80 is no longer register-bound.",
        ],
    )
}

/// The analyzer's static transaction counts against the dynamic coalescer
/// on the membench kernels: they must be equal.
fn lint_validation() -> Rendered {
    let rows = lint_cross_validation();
    let failures = rows.iter().filter(|r| r.predicted != r.measured).map(|r| {
        format!(
            "{} under {}: static {} transactions, measured {}",
            r.layout, r.driver, r.predicted, r.measured
        )
    });
    let failures = failures.collect();
    let rows = rows.iter().map(|r| {
        let matched = if r.predicted == r.measured {
            "yes"
        } else {
            "NO"
        };
        row![
            r.layout.label(),
            r.driver.label(),
            r.predicted,
            r.measured,
            matched
        ]
    });
    Rendered::new(
        "Static transaction prediction vs dynamic coalescer — membench kernels",
        "layout,driver,static,measured,match",
        rows,
        &[
            "The analyzer's symbolic coalescer agrees with the executor on every",
            "layout and driver; `kernel-lint` findings rest on sound counts.",
        ],
    )
    .gate(failures)
}

/// E15: the wave extrapolation Fig. 12 runs on, against the exact
/// full-grid simulation at sizes where that is affordable.
fn model_validation() -> Rendered {
    use gpu_sim::exec::timed::{time_grid, time_resident};
    use gpu_sim::ir::regalloc::register_demand;
    use gpu_sim::mem::GlobalMemory;
    use gpu_sim::occupancy::occupancy;
    use gpu_sim::{DeviceConfig, TimingParams};
    use gravit_app::model::grid_cycles;
    use particle_layouts::{padded_count, DeviceImage, Particle};
    use simcore::Vec3;

    let dev = DeviceConfig::g8800gtx();
    let driver = DriverModel::Cuda10;
    let tp = TimingParams::for_driver(driver);
    let cfg = OptLevel::Full.config();
    let kernel = build_force_kernel(cfg);
    let regs = register_demand(&kernel).regs_per_thread as u32;
    let occ = occupancy(&dev, cfg.block, regs, kernel.smem_bytes);
    let rows = [2_048u32, 4_096, 8_192].map(|n| {
        let particles: Vec<Particle> = (0..n)
            .map(|i| Particle {
                pos: Vec3::new(i as f32 * 0.01, 1.0, 2.0),
                vel: Vec3::ZERO,
                mass: 1.0,
            })
            .collect();
        // The layout's buffers and the float4 output.
        let mut sizes = DeviceImage::alloc_sizes(cfg.layout, n, cfg.block);
        sizes.push(padded_count(n, cfg.block) * 16);
        let mut gmem = GlobalMemory::new(GlobalMemory::footprint(&sizes));
        let params = standard_upload(cfg.layout, cfg.block)(&mut gmem, &particles)
            .expect("validation upload fits");
        let grid = n / cfg.block;
        let exact = time_grid(
            &kernel,
            grid,
            cfg.block,
            occ.active_blocks,
            &params,
            &mut gmem.clone(),
            &dev,
            driver,
            &tp,
        )
        .expect("exact dispatch is well-formed");
        // The wave model's residency cannot exceed what the grid actually
        // puts on an SM (matters only at validation-scale grids; the Fig. 12
        // sweeps have hundreds of blocks per SM).
        let per_sm = grid.div_ceil(dev.num_sms).max(1);
        let resident: Vec<u32> = (0..occ.active_blocks.min(per_sm).min(grid)).collect();
        let wave = time_resident(
            &kernel, &resident, cfg.block, grid, &params, &mut gmem, &dev, driver, &tp,
        )
        .expect("wave launch is well-formed");
        let est = grid_cycles(&dev, wave.cycles, grid as u64, resident.len() as u64);
        let err = (est as f64 - exact.cycles as f64) / exact.cycles as f64;
        row![n, grid, exact.cycles, est, format!("{:+.1}%", 100.0 * err)]
    });
    Rendered::new(
        "Wave extrapolation vs exact full-grid simulation — tuned force kernel",
        "N,blocks,exact cycles,wave-model cycles,relative error",
        rows,
        &[
            "The wave model is the production path (Fig. 12 sweeps to 10^6 bodies);",
            "the exact dispatch simulation bounds its error at affordable sizes.",
        ],
    )
}

/// Sec. IV-A: registers and occupancy from the baseline through unrolling,
/// ICM and block 128.
fn occupancy() -> Rendered {
    let rows = occupancy_ladder();
    let rows = rows
        .iter()
        .map(|r| row![r.step, r.block, r.regs, r.warps, pct(r.occupancy_pct)]);
    Rendered::new(
        "Occupancy ladder — 8800 GTX, SoAoaS force kernel",
        "step,block,regs/thread,active warps,occupancy",
        rows,
        &["Paper: 18 → 17 (unroll) → 16 (ICM) registers; 50% → 67% occupancy with block 128."],
    )
}

/// Prefetching (double buffering) hides the tile-fetch latency at the cost
/// of four registers, which on CC 1.0 can cost an occupancy step.
fn prefetch() -> Rendered {
    let n = 200_000u32;
    let rows = [128u32, 192].into_iter().flat_map(|block| {
        let cfg = ForceKernelConfig {
            layout: Layout::SoAoaS,
            block,
            unroll: block,
            icm: true,
        };
        let kernels = [
            ("standard", build_force_kernel(cfg)),
            ("prefetch", build_force_kernel_prefetch(cfg)),
        ];
        kernels.map(|(name, kernel)| {
            let upload = standard_upload(cfg.layout, block);
            let k = model_kernel(&kernel, block, n, DriverModel::Cuda10, upload)
                .expect("the ablation's model launch is well-formed");
            row![
                name,
                block,
                k.regs,
                pct(k.occupancy.percent()),
                dur(k.seconds)
            ]
        })
    });
    Rendered::new(
        format!("Prefetch ablation — SoAoaS + full unroll + ICM, N = {n} (CUDA 1.0)"),
        "variant,block,regs,occupancy,kernel time",
        rows,
        &[
            "Prefetching hides the tile-fetch latency but its buffer registers can drop",
            "an occupancy step — the reason the era's tuned kernels (and the paper's)",
            "spent registers so carefully.",
        ],
    )
}

/// The synthesizer against the dynamic engine: per driver, the naive AoS
/// force kernel's baseline and proven suggestions, timed with their
/// rewritten buffers. The orderings must agree outside 3 % ties, the winner
/// must land in the hand-derived ladder's 1.24x ± 5 % band, and every
/// suggestion must carry a translation-validation certificate.
fn synth() -> Rendered {
    use gpu_kernels::synthset::within_ladder_band;

    let (mut table, mut failures) = (Vec::new(), Vec::new());
    for driver in DriverModel::ALL {
        let rows = synth_vs_measured(VALIDATION_N, driver);
        for (i, j) in synth_ranking_disagreements(&rows, 0.03) {
            let (a, b) = (&rows[i], &rows[j]);
            failures.push(format!(
                "ranking disagreement under {driver}: {} vs {} (predicted {:.0} vs {:.0} cycles, \
                 measured {:.6}s vs {:.6}s)",
                a.label,
                b.label,
                a.predicted_cycles,
                b.predicted_cycles,
                a.measured_seconds,
                b.measured_seconds,
            ));
        }
        // Row 0 is the baseline; row 1, when present, is the proven winner.
        match rows.get(1) {
            Some(w) if !within_ladder_band(w.predicted_speedup) => failures.push(format!(
                "winner outside the ladder band under {driver}: {} predicted {:.3}x \
                 (expected 1.24x ± 5%)",
                w.label, w.predicted_speedup
            )),
            Some(_) => {}
            None => failures.push(format!(
                "no proven suggestion under {driver}: synthesis found nothing to certify"
            )),
        }
        for r in rows.iter().skip(1) {
            if r.certificate.contains("MISMATCH") || r.certificate.contains("unsupported") {
                failures.push(format!(
                    "uncertified suggestion under {driver}: {} ({})",
                    r.label, r.certificate
                ));
            }
        }
        table.extend(rows.into_iter().map(|r| {
            row![
                driver.label(),
                r.label,
                format!("{:.0}", r.predicted_cycles),
                format!("{:.3}x", r.predicted_speedup),
                dur(r.measured_seconds),
                format!("{:.3}x", r.measured_speedup),
                r.regs,
                r.certificate,
            ]
        }));
    }
    Rendered::new(
        format!(
            "Synthesized candidates: static rank vs dynamic engine — naive AoS force kernel, \
             N = {VALIDATION_N}"
        ),
        "driver,candidate,predicted cycles,predicted speedup,measured time,measured speedup,\
         regs,certificate",
        table,
        &["Static and measured rankings agree; all suggestions certified."],
    )
    .gate(failures)
}

/// The road the paper set aside: the membench patterns through the per-SM
/// texture cache instead of the CC 1.0 coalescer.
fn texture() -> Rendered {
    let rows = Layout::ALL.map(|layout| {
        let g = run_membench(layout, DriverModel::Cuda10).avg_cycles_per_read;
        let x = run_membench_texture(layout, DriverModel::Cuda10);
        let t = x.avg_cycles_per_read;
        let lookups = (x.tex_hits + x.tex_misses) as f64;
        let hit_rate = pct(100.0 * x.tex_hits as f64 / lookups.max(1.0));
        let speedup = format!("{:.2}x", g / t);
        row![
            layout.label(),
            format!("{g:.1}"),
            format!("{t:.1}"),
            speedup,
            hit_rate
        ]
    });
    Rendered::new(
        "Texture-path ablation — cycles per 4-byte element (CUDA 1.0 model)",
        "layout,global path,texture path,texture speedup,tex hit rate",
        rows,
        &[
            "The texture cache rescues the packed AoS layouts (adjacent threads share",
            "32-byte lines), narrowing the gap the SoAoaS layout closes without a cache —",
            "the quantitative form of the road the paper chose not to take.",
        ],
    )
}

/// Figs. 3/5/7/9: per-half-warp traffic of a full 7-float record fetch.
fn transactions(driver: DriverModel) -> Rendered {
    let rows = transaction_table(driver);
    let rows = rows.iter().map(|a| {
        row![
            a.layout.label(),
            a.reads,
            a.transactions,
            a.bus_bytes,
            a.useful_bytes,
            pct(100.0 * a.efficiency()),
            a.all_coalesced
        ]
    });
    Rendered::new(
        format!("Figs. 3/5/7/9 — per-half-warp traffic, full record fetch ({driver})"),
        "layout,loads,transactions,bus bytes,useful bytes,efficiency,coalesced",
        rows,
        &[
            "Paper (CC 1.0): unopt 7 reads -> 112 transactions; SoA 7 -> 7;",
            "AoaS 2 -> 32; SoAoaS 2 -> 4 (two coalesced 128-bit reads).",
        ],
    )
}

/// Sec. IV-A: instructions per element, Eq. 3's speedup and registers per
/// unroll factor.
fn unroll() -> Rendered {
    use gpu_kernels::unroll_advisor::unroll_sweep;

    let (body, overhead) = inner_loop_budget();
    let sweep = unroll_sweep(Layout::SoAoaS, 128, false, 128 * 512);
    let (rolled, full) = (&sweep[0], &sweep[sweep.len() - 1]);
    let budget = format!(
        "Rolled inner loop: {body} body + {overhead} overhead = {} instructions/iteration",
        body + overhead
    );
    let gain = format!(
        "Full unroll: {:.1}% fewer instructions, Eq.3 predicts {:.2}x (paper: ~18% / 1.18x)",
        100.0 * (1.0 - full.instrs_per_element / rolled.instrs_per_element),
        full.eq3_speedup
    );
    let rows = sweep.iter().map(|r| {
        row![
            r.factor,
            format!("{:.2}", r.instrs_per_element),
            format!("{:.3}", r.eq3_speedup),
            r.regs
        ]
    });
    Rendered::new(
        "Unroll sweep — SoAoaS force kernel, block 128",
        "factor,instrs/element,Eq.3 speedup,regs/thread",
        rows,
        &[
            budget.as_str(),
            "(paper: \"a little more than 25 instructions including the loop instructions\")",
            gain.as_str(),
        ],
    )
}

/// The static cycle model (`analyze::cost`) against the dynamic engine:
/// the ladder's orderings must agree outside 3 % ties under every driver,
/// and each Barnes–Hut target must certify its `[best, worst]` cycle
/// interval.
fn verify() -> Rendered {
    use gpu_kernels::verifyset::bounds_targets;

    let (mut table, mut failures) = (Vec::new(), Vec::new());
    for driver in DriverModel::ALL {
        let rows = cost_vs_measured(VALIDATION_N, driver);
        for (i, j) in ranking_disagreements(&rows, 0.03) {
            let (a, b) = (&rows[i], &rows[j]);
            failures.push(format!(
                "ranking disagreement under {driver}: {} vs {} (predicted {:.2} vs {:.2} \
                 cyc/pair, measured {:.6}s vs {:.6}s)",
                a.level.label(),
                b.level.label(),
                a.predicted_cycles_per_pair,
                b.predicted_cycles_per_pair,
                a.measured_seconds,
                b.measured_seconds,
            ));
        }
        table.extend(rows.iter().map(|r| {
            row![
                driver.label(),
                r.level.label(),
                format!("{:.2}", r.predicted_cycles_per_pair),
                dur(r.measured_seconds),
                format!("{:.3}x", r.predicted_speedup),
                format!("{:.3}x", r.measured_speedup),
            ]
        }));
    }
    // Barnes–Hut: no exact point prediction exists, so the row carries the
    // certified [best, worst] cycle interval from the bounds verifier.
    for target in bounds_targets() {
        match target.verify() {
            Ok(cert) => {
                let ((lo, hi), kernel) = (cert.cycle_bounds, cert.kernel);
                let interval = format!("[{lo:.0}, {hi:.0}] cyc");
                table.push(row![
                    "CUDA 1.0",
                    format!("{kernel} [interval]"),
                    interval,
                    "-",
                    "-",
                    "-"
                ]);
            }
            Err(reason) => failures.push(format!(
                "bounds certification failed: {}: {reason}",
                target.kernel.name
            )),
        }
    }
    Rendered::new(
        format!("Static cycle model vs dynamic engine — force ladder, N = {VALIDATION_N}"),
        "driver,level,predicted cyc/pair,measured time,predicted speedup,measured speedup",
        table,
        &[
            "Static and measured rankings agree under every driver, and every",
            "Barnes-Hut target carries a bounds certificate.",
        ],
    )
    .gate(failures)
}
