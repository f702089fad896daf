//! Golden pins for both execution engines.
//!
//! Every case launches a real workspace kernel on a fresh memory image and
//! pins what the engines report: the functional executor's warp
//! instructions, barriers and an FNV-1a digest of the output buffer (at 1
//! and 2 host threads), and the timed engine's cycles, warp instructions,
//! transactions, bus bytes, idle cycles and texture hits/misses. The values
//! were recorded from the statement-walking interpreter the compiled tape
//! replaced, so an engine change that moves any modeled number fails here.
//!
//! The second half pins how the two engines charge masked regions (see
//! DESIGN.md, "The warp tape"): on the divergent collatz kernel the counts
//! are derived from a host-side model of each warp's passes.

use gpu_kernels::force::{build_force_kernel, force_params, OptLevel};
use gpu_kernels::membench::{build_membench_kernel, build_membench_texture_kernel, MembenchConfig};
use gpu_sim::exec::functional::{run_lowered_full, FunctionalRun};
use gpu_sim::exec::timed::{time_grid_lowered_full, time_resident, time_sm_queue, TimedRun};
use gpu_sim::ir::lower::lower;
use gpu_sim::ir::{AluOp, CmpOp, Kernel, KernelBuilder, MemSpace, Operand, SpecialReg, UnaryOp};
use gpu_sim::mem::{DevicePtr, GlobalMemory};
use gpu_sim::timing::TimingParams;
use gpu_sim::{DeviceConfig, DriverModel};
use particle_layouts::device::alloc_accel_out;
use particle_layouts::{DeviceImage, Layout, Particle};
use simcore::Vec3;

/// A kernel launch on a fresh memory image: the kernel, its geometry, its
/// parameters and the output region the digest covers.
struct Launch {
    kernel: Kernel,
    grid: u32,
    block: u32,
    params: Vec<u32>,
    gmem: GlobalMemory,
    out: (DevicePtr, u64),
    driver: DriverModel,
}

/// What one case pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    f_winst: u64,
    f_barriers: u64,
    digest: u64,
    t_cycles: u64,
    t_winst: u64,
    t_transactions: u64,
    t_bus_bytes: u64,
    t_idle: u64,
    t_tex_hits: u64,
    t_tex_misses: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic bodies on a small lattice with varied masses.
fn particles(n: usize) -> Vec<Particle> {
    (0..n)
        .map(|i| {
            let f = i as f32;
            Particle {
                pos: Vec3::new((i % 7) as f32 * 0.7, (i % 5) as f32 * 1.3, f * 0.05),
                vel: Vec3::new(0.1, -0.2, 0.3),
                mass: 1.0 + (i % 3) as f32,
            }
        })
        .collect()
}

fn force_launch(level: OptLevel, n: usize) -> Launch {
    let cfg = level.config();
    let kernel = build_force_kernel(cfg);
    let mut gmem = GlobalMemory::new(8 << 20);
    let img = DeviceImage::upload(&mut gmem, cfg.layout, &particles(n), cfg.block).unwrap();
    let out = alloc_accel_out(&mut gmem, img.padded_n).unwrap();
    Launch {
        kernel,
        grid: img.padded_n / cfg.block,
        block: cfg.block,
        params: force_params(&img, out, 0.025),
        gmem,
        out: (out, img.padded_n as u64 * 16),
        driver: DriverModel::Cuda10,
    }
}

fn membench_launch(layout: Layout, texture: bool, driver: DriverModel) -> Launch {
    let cfg = MembenchConfig { layout, iters: 3 };
    let kernel = if texture {
        build_membench_texture_kernel(cfg)
    } else {
        build_membench_kernel(cfg)
    };
    let (grid, block) = (2, 64);
    let mut gmem = GlobalMemory::new(8 << 20);
    let n = cfg.particles_needed(grid, block) as usize;
    let img = DeviceImage::upload(&mut gmem, layout, &particles(n), block).unwrap();
    let threads = (grid * block) as u64;
    let out_delta = gmem.alloc(threads * 4).unwrap();
    let out_sum = gmem.alloc(threads * 4).unwrap();
    let mut params = img.base_params();
    params.push(out_delta.0 as u32);
    params.push(out_sum.0 as u32);
    Launch {
        kernel,
        grid,
        block,
        params,
        gmem,
        // The sum buffer only: the delta buffer holds clock readings, which
        // the two engines define differently (retired instructions vs cycles).
        out: (out_sum, threads * 4),
        driver,
    }
}

/// Collatz step count per thread: out[tid] = steps for tid+1 to reach 1.
/// Genuinely divergent: a `While` whose lanes leave at different passes,
/// with an `If` and an `If`/`else` nested inside.
fn collatz_kernel() -> Kernel {
    let mut b = KernelBuilder::new("collatz");
    let out = b.param();
    let tid = b.special(SpecialReg::TidX);
    let n = b.iadd(tid.into(), Operand::ImmU(1));
    let steps = b.mov(Operand::ImmU(0));
    b.do_while(|b| {
        let not_one = b.setp(CmpOp::UNe, n.into(), Operand::ImmU(1));
        b.if_then(not_one, |b| {
            let bit = b.alu(AluOp::IAnd, n.into(), Operand::ImmU(1));
            let podd = b.setp(CmpOp::UEq, bit.into(), Operand::ImmU(1));
            b.if_else(
                podd,
                |b| {
                    let t = b.mad_u(n.into(), Operand::ImmU(3), Operand::ImmU(1));
                    b.emit(gpu_sim::ir::Instr::Mov {
                        dst: n,
                        src: t.into(),
                    });
                },
                |b| {
                    // n / 2 through f32 (exact for these magnitudes).
                    let f = b.reg();
                    b.emit(gpu_sim::ir::Instr::Unary {
                        op: UnaryOp::U2F,
                        dst: f,
                        a: n.into(),
                    });
                    let h = b.fmul(f.into(), Operand::ImmF(0.5));
                    b.emit(gpu_sim::ir::Instr::Unary {
                        op: UnaryOp::F2U,
                        dst: n,
                        a: h.into(),
                    });
                },
            );
            b.alu_into(steps, AluOp::IAdd, steps.into(), Operand::ImmU(1));
        });
        b.setp(CmpOp::UNe, n.into(), Operand::ImmU(1))
    });
    let oaddr = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
    b.st(MemSpace::Global, oaddr, 0, vec![steps.into()]);
    b.finish()
}

fn collatz_launch(block: u32) -> Launch {
    let mut gmem = GlobalMemory::new(1 << 16);
    let out = gmem.alloc(block as u64 * 4).unwrap();
    Launch {
        kernel: collatz_kernel(),
        grid: 1,
        block,
        params: vec![out.0 as u32],
        gmem,
        out: (out, block as u64 * 4),
        driver: DriverModel::Cuda10,
    }
}

fn functional(l: &Launch, threads: usize) -> (FunctionalRun, u64) {
    let mut gmem = l.gmem.clone();
    let run = run_lowered_full(
        &lower(&l.kernel),
        l.grid,
        l.block,
        &l.params,
        &mut gmem,
        None,
        None,
        threads,
    )
    .unwrap();
    (run, fnv1a(&gmem.download(l.out.0, l.out.1).unwrap()))
}

fn timed(l: &Launch) -> TimedRun {
    let resident: Vec<u32> = (0..l.grid.min(2)).collect();
    let mut gmem = l.gmem.clone();
    time_resident(
        &l.kernel,
        &resident,
        l.block,
        l.grid,
        &l.params,
        &mut gmem,
        &DeviceConfig::g8800gtx(),
        l.driver,
        &TimingParams::for_driver(l.driver),
    )
    .unwrap()
}

fn pin(l: &Launch) -> Pin {
    let (f1, d1) = functional(l, 1);
    let (f2, d2) = functional(l, 2);
    assert_eq!((&f1, d1), (&f2, d2), "1 and 2 host threads must agree");
    let t = timed(l);
    Pin {
        f_winst: f1.warp_instructions,
        f_barriers: f1.barriers,
        digest: d1,
        t_cycles: t.cycles,
        t_winst: t.warp_instructions,
        t_transactions: t.transactions,
        t_bus_bytes: t.bus_bytes,
        t_idle: t.idle_cycles,
        t_tex_hits: t.tex_hits,
        t_tex_misses: t.tex_misses,
    }
}

/// Every pinned case, by name.
fn cases() -> Vec<(&'static str, Launch)> {
    let mut v: Vec<(&'static str, Launch)> = vec![
        ("force_baseline_256", force_launch(OptLevel::Baseline, 256)),
        ("force_soa_256", force_launch(OptLevel::SoA, 256)),
        ("force_aoas_256", force_launch(OptLevel::AoaS, 256)),
        ("force_soaoas_256", force_launch(OptLevel::SoAoaS, 256)),
        (
            "force_unrolled_256",
            force_launch(OptLevel::SoAoaSUnrolled, 256),
        ),
        ("force_full_256", force_launch(OptLevel::Full, 256)),
        // 200 bodies: the last block is partly padding.
        ("force_full_200", force_launch(OptLevel::Full, 200)),
    ];
    for (name, layout) in [
        ("membench_unopt", Layout::Unopt),
        ("membench_soa", Layout::SoA),
        ("membench_aoas", Layout::AoaS),
        ("membench_soaoas", Layout::SoAoaS),
    ] {
        v.push((name, membench_launch(layout, false, DriverModel::Cuda10)));
    }
    v.push((
        "membench_unopt_cuda22",
        membench_launch(Layout::Unopt, false, DriverModel::Cuda22),
    ));
    v.push((
        "membench_soa_tex",
        membench_launch(Layout::SoA, true, DriverModel::Cuda10),
    ));
    v.push(("collatz_64", collatz_launch(64)));
    // 40 threads: one full warp and a partial one.
    v.push(("collatz_40", collatz_launch(40)));
    v
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Pin)] = &[
    ("force_baseline_256", Pin { f_winst: 97368, f_barriers: 48, digest: 13706047807934390356, t_cycles: 521218, t_winst: 97368, t_transactions: 4656, t_bus_bytes: 153600, t_idle: 19542, t_tex_hits: 0, t_tex_misses: 0 }),
    ("force_soa_256", Pin { f_winst: 97368, f_barriers: 48, digest: 13706047807934390356, t_cycles: 503946, t_winst: 97368, t_transactions: 336, t_bus_bytes: 24576, t_idle: 2102, t_tex_hits: 0, t_tex_misses: 0 }),
    ("force_aoas_256", Pin { f_winst: 97224, f_barriers: 48, digest: 13706047807934390356, t_cycles: 509698, t_winst: 97224, t_transactions: 2352, t_bus_bytes: 79872, t_idle: 8598, t_tex_hits: 0, t_tex_misses: 0 }),
    ("force_soaoas_256", Pin { f_winst: 97152, f_barriers: 48, digest: 13706047807934390356, t_cycles: 501980, t_winst: 97152, t_transactions: 192, t_bus_bytes: 24576, t_idle: 1000, t_tex_hits: 0, t_tex_misses: 0 }),
    ("force_unrolled_256", Pin { f_winst: 78696, f_barriers: 48, digest: 13706047807934390356, t_cycles: 428156, t_winst: 78696, t_transactions: 192, t_bus_bytes: 24576, t_idle: 1000, t_tex_hits: 0, t_tex_misses: 0 }),
    ("force_full_256", Pin { f_winst: 33016, f_barriers: 32, digest: 2896334492322609748, t_cycles: 183380, t_winst: 33016, t_transactions: 128, t_bus_bytes: 16384, t_idle: 1044, t_tex_hits: 0, t_tex_misses: 0 }),
    ("force_full_200", Pin { f_winst: 33016, f_barriers: 32, digest: 12480155425588274288, t_cycles: 183380, t_winst: 33016, t_transactions: 128, t_bus_bytes: 16384, t_idle: 1044, t_tex_hits: 0, t_tex_misses: 0 }),
    ("membench_unopt", Pin { f_winst: 364, f_barriers: 0, digest: 4596094920618730271, t_cycles: 15835, t_winst: 364, t_transactions: 2704, t_bus_bytes: 87040, t_idle: 14367, t_tex_hits: 0, t_tex_misses: 0 }),
    ("membench_soa", Pin { f_winst: 364, f_barriers: 0, digest: 4596094920618730271, t_cycles: 12382, t_winst: 364, t_transactions: 184, t_bus_bytes: 11776, t_idle: 10902, t_tex_hits: 0, t_tex_misses: 0 }),
    ("membench_aoas", Pin { f_winst: 256, f_barriers: 0, digest: 4596094920618730271, t_cycles: 5662, t_winst: 256, t_transactions: 784, t_bus_bytes: 25600, t_idle: 4626, t_tex_hits: 0, t_tex_misses: 0 }),
    ("membench_soaoas", Pin { f_winst: 256, f_barriers: 0, digest: 11181557664201085285, t_cycles: 4516, t_winst: 256, t_transactions: 112, t_bus_bytes: 13312, t_idle: 3480, t_tex_hits: 0, t_tex_misses: 0 }),
    ("membench_unopt_cuda22", Pin { f_winst: 364, f_barriers: 0, digest: 4596094920618730271, t_cycles: 11337, t_winst: 364, t_transactions: 688, t_bus_bytes: 76288, t_idle: 9871, t_tex_hits: 0, t_tex_misses: 0 }),
    ("membench_soa_tex", Pin { f_winst: 364, f_barriers: 0, digest: 4596094920618730271, t_cycles: 12483, t_winst: 364, t_transactions: 352, t_bus_bytes: 11776, t_idle: 11015, t_tex_hits: 2352, t_tex_misses: 336 }),
    ("collatz_64", Pin { f_winst: 2314, f_barriers: 0, digest: 3466792891538835417, t_cycles: 25204, t_winst: 2760, t_transactions: 4, t_bus_bytes: 256, t_idle: 14144, t_tex_hits: 0, t_tex_misses: 0 }),
    ("collatz_40", Pin { f_winst: 1462, f_barriers: 0, digest: 4729332789650993516, t_cycles: 22912, t_winst: 1752, t_transactions: 3, t_bus_bytes: 192, t_idle: 15884, t_tex_hits: 0, t_tex_misses: 0 }),
];

#[test]
fn engines_match_the_golden_pins() {
    let mut mismatches = Vec::new();
    for (name, launch) in cases() {
        let got = pin(&launch);
        let want = GOLDEN.iter().find(|(n, _)| *n == name).map(|(_, p)| *p);
        if want != Some(got) {
            mismatches.push(format!("    (\"{name}\", {got:?}),"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "engine pins moved:\n{}",
        mismatches.join("\n")
    );
}

/// Per-warp pass counts of the collatz kernel from a host model of its
/// lanes: `passes` of the `While` body, passes that enter the outer `If`'s
/// body, and passes that run the odd and the even arm of the inner one.
#[derive(Debug, Default)]
struct Passes {
    passes: u64,
    then: u64,
    odd: u64,
    even: u64,
}

fn collatz_passes(threads: std::ops::Range<u32>) -> Passes {
    let mut n: Vec<u32> = threads.map(|t| t + 1).collect();
    let mut active = vec![true; n.len()];
    let mut p = Passes::default();
    while active.iter().any(|&a| a) {
        p.passes += 1;
        let stepping: Vec<usize> = (0..n.len()).filter(|&l| active[l] && n[l] != 1).collect();
        if !stepping.is_empty() {
            p.then += 1;
            p.odd += stepping.iter().any(|&l| n[l] % 2 == 1) as u64;
            p.even += stepping.iter().any(|&l| n[l].is_multiple_of(2)) as u64;
            for &l in &stepping {
                n[l] = if n[l] % 2 == 1 {
                    3 * n[l] + 1
                } else {
                    n[l] / 2
                };
            }
        }
        for l in 0..n.len() {
            active[l] = active[l] && n[l] != 1;
        }
    }
    p
}

/// The engines charge masked regions differently, and both charges are
/// baked into `exec.winst`, fault coordinates and modeled cycles:
///
/// * `If` entry: 0 warp instructions in the functional engine, 1 in the
///   timed engine;
/// * `While` entry: 0 in both (the timed engine spends an issue slot on it);
/// * a `While` back-edge: 1 in both.
#[test]
fn masked_regions_are_charged_per_engine() {
    for block in [64u32, 40] {
        let l = collatz_launch(block);
        let (mut functional_winst, mut timed_winst) = (0, 0);
        for w in 0..block.div_ceil(32) {
            let p = collatz_passes(32 * w..(32 * w + 32).min(block));
            // Prologue (tid, n, steps) and epilogue (address, store): 5.
            // Every pass: two setps and the back-edge. Outer-`If` body: the
            // parity test, its setp and the step add. Odd arm: mad + mov.
            // Even arm: u2f + fmul + f2u.
            let f = 5 + 3 * p.passes + 3 * p.then + 2 * p.odd + 3 * p.even;
            functional_winst += f;
            // Plus one per `If` entry: the outer one every pass, the inner
            // one every pass that enters the outer body.
            timed_winst += f + p.passes + p.then;
        }
        let (run, _) = functional(&l, 1);
        assert_eq!(run.warp_instructions, functional_winst, "block {block}");
        assert_eq!(timed(&l).warp_instructions, timed_winst, "block {block}");
    }
}

/// A uniform loop branch and a barrier retire one warp instruction each in
/// both engines.
#[test]
fn branches_and_barriers_count_once_in_both_engines() {
    let mut b = KernelBuilder::new("loop_sync");
    b.shared_mem(96 * 4);
    let tid = b.special(SpecialReg::TidX);
    let addr = b.imul(tid.into(), Operand::ImmU(4));
    b.for_loop(Operand::ImmU(0), Operand::ImmU(3), 1, |b, _| {
        b.st(MemSpace::Shared, addr, 0, vec![tid.into()]);
        b.sync();
    });
    let mut gmem = GlobalMemory::new(1 << 12);
    let out = gmem.alloc(4).unwrap();
    let l = Launch {
        kernel: b.finish(),
        grid: 1,
        block: 96,
        params: vec![],
        gmem,
        out: (out, 0),
        driver: DriverModel::Cuda10,
    };
    // tid, address, loop init, then per trip: store, bar.sync, add, setp, bra.
    let per_warp = 3 + 3 * 5;
    let (run, _) = functional(&l, 1);
    assert_eq!(run.warp_instructions, 3 * per_warp);
    assert_eq!(run.barriers, 3 * 3);
    assert_eq!(timed(&l).warp_instructions, 3 * per_warp);
}

/// Warp instructions and digest of a 4096-body force frame at the full
/// optimization level on the functional engine: G-scaled masses from
/// `uniform_ball(4096, 5.0, 2.0, 42)`, as gravit uploads them. The digest
/// covers the accelerations, then the instruction and barrier counts.
fn force_n4096(threads: usize) -> (u64, u64) {
    let cfg = OptLevel::Full.config();
    let fp = nbody::model::ForceParams::default();
    let bodies = nbody::spawn::uniform_ball(4096, 5.0, 2.0, 42);
    let particles: Vec<Particle> = (0..bodies.len())
        .map(|i| Particle {
            pos: bodies.pos[i],
            vel: bodies.vel[i],
            mass: fp.g * bodies.mass[i],
        })
        .collect();
    let mut gmem = GlobalMemory::new(64 << 20);
    let img = DeviceImage::upload(&mut gmem, cfg.layout, &particles, cfg.block).unwrap();
    let out = alloc_accel_out(&mut gmem, img.padded_n).unwrap();
    let run = run_lowered_full(
        &lower(&build_force_kernel(cfg)),
        img.padded_n / cfg.block,
        cfg.block,
        &force_params(&img, out, fp.softening),
        &mut gmem,
        None,
        None,
        threads,
    )
    .unwrap();
    let mut bytes = gmem.download(out, u64::from(img.n) * 16).unwrap();
    bytes.extend(run.warp_instructions.to_le_bytes());
    bytes.extend(run.barriers.to_le_bytes());
    (run.warp_instructions, fnv1a(&bytes))
}

/// The SoAoaS membench kernel over 64 blocks of 64 threads on sentinel
/// particles, with both output buffers (delta, then sum) read back.
fn membench_64x64() -> (Kernel, GlobalMemory, Vec<u32>, [(DevicePtr, u64); 2]) {
    let cfg = MembenchConfig {
        layout: Layout::SoAoaS,
        iters: 2,
    };
    let (grid, block) = (64u32, 64u32);
    let ps = vec![Particle::SENTINEL; cfg.particles_needed(grid, block) as usize];
    let mut gmem = GlobalMemory::new(64 << 20);
    let img = DeviceImage::upload(&mut gmem, cfg.layout, &ps, block).unwrap();
    let bytes = u64::from(grid * block) * 4;
    let out_delta = gmem.alloc(bytes).unwrap();
    let out_sum = gmem.alloc(bytes).unwrap();
    let mut params = img.base_params();
    params.push(out_delta.0 as u32);
    params.push(out_sum.0 as u32);
    let outs = [(out_delta, bytes), (out_sum, bytes)];
    (build_membench_kernel(cfg), gmem, params, outs)
}

fn outputs(gmem: &GlobalMemory, outs: &[(DevicePtr, u64)], stats: &[u64]) -> u64 {
    let mut bytes = Vec::new();
    for &(ptr, len) in outs {
        bytes.extend(gmem.download(ptr, len).unwrap());
    }
    for s in stats {
        bytes.extend(s.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// [`membench_64x64`] on the functional engine; the digest folds in the
/// instruction and barrier counts.
fn membench_functional(threads: usize) -> (u64, u64) {
    let (kernel, mut gmem, params, outs) = membench_64x64();
    let run = run_lowered_full(
        &lower(&kernel),
        64,
        64,
        &params,
        &mut gmem,
        None,
        None,
        threads,
    )
    .unwrap();
    let stats = [run.warp_instructions, run.barriers];
    (run.warp_instructions, outputs(&gmem, &outs, &stats))
}

/// [`membench_64x64`] on the timed engine (one resident block per SM); the
/// digest folds in instructions, cycles, transactions and bus bytes.
fn membench_timed(threads: usize) -> (u64, u64) {
    let (kernel, mut gmem, params, outs) = membench_64x64();
    let driver = DriverModel::Cuda10;
    let run = time_grid_lowered_full(
        &lower(&kernel),
        64,
        64,
        1,
        &params,
        &mut gmem,
        &DeviceConfig::g8800gtx(),
        driver,
        &TimingParams::for_driver(driver),
        threads,
    )
    .unwrap();
    let stats = [
        run.warp_instructions,
        run.cycles,
        run.transactions,
        run.bus_bytes,
    ];
    (run.warp_instructions, outputs(&gmem, &outs, &stats))
}

/// Full-scale launches at 1 and 8 host threads: warp instructions and the
/// output-plus-statistics digest.
#[test]
fn full_scale_launches_match_their_pins() {
    type Case = (&'static str, fn(usize) -> (u64, u64), u64, u64);
    let cases: [Case; 3] = [
        ("force_n4096", force_n4096, 8_423_296, 0xf336_893c_fca6_7c5d),
        (
            "membench_soaos",
            membench_functional,
            6_144,
            0xedcc_23af_11a4_bedd,
        ),
        (
            "timed_membench",
            membench_timed,
            6_144,
            0x8ba3_7555_dc4b_47e9,
        ),
    ];
    for (name, run, winst, digest) in cases {
        for threads in [1, 8] {
            let (got_winst, got_digest) = run(threads);
            assert_eq!(
                (got_winst, format!("{got_digest:016x}")),
                (winst, format!("{digest:016x}")),
                "{name} at {threads} threads"
            );
        }
    }
}

/// Collatz steps per thread (a divergent `While`), exchanged through shared
/// memory across two barriers: a reversed read, a stride-two read (2-way
/// bank conflict), a broadcast four-word read and a two-word read. The
/// result joins a global load of the thread's input word.
fn queue_mix_kernel() -> Kernel {
    let mut b = KernelBuilder::new("queue_mix");
    b.shared_mem(64 * 4 * 2);
    let inp = b.param();
    let out = b.param();
    let tid = b.special(SpecialReg::TidX);
    let ntid = b.special(SpecialReg::NtidX);
    let ctaid = b.special(SpecialReg::CtaidX);
    let gi = b.global_thread_index();
    let seed = b.iadd(tid.into(), ctaid.into());
    let n = b.iadd(seed.into(), Operand::ImmU(1));
    let steps = b.mov(Operand::ImmU(0));
    b.do_while(|b| {
        let not_one = b.setp(CmpOp::UNe, n.into(), Operand::ImmU(1));
        b.if_then(not_one, |b| {
            let bit = b.alu(AluOp::IAnd, n.into(), Operand::ImmU(1));
            let podd = b.setp(CmpOp::UEq, bit.into(), Operand::ImmU(1));
            b.if_else(
                podd,
                |b| {
                    let t = b.mad_u(n.into(), Operand::ImmU(3), Operand::ImmU(1));
                    b.emit(gpu_sim::ir::Instr::Mov {
                        dst: n,
                        src: t.into(),
                    });
                },
                |b| {
                    let f = b.reg();
                    b.emit(gpu_sim::ir::Instr::Unary {
                        op: UnaryOp::U2F,
                        dst: f,
                        a: n.into(),
                    });
                    let h = b.fmul(f.into(), Operand::ImmF(0.5));
                    b.emit(gpu_sim::ir::Instr::Unary {
                        op: UnaryOp::F2U,
                        dst: n,
                        a: h.into(),
                    });
                },
            );
            b.alu_into(steps, AluOp::IAdd, steps.into(), Operand::ImmU(1));
        });
        b.setp(CmpOp::UNe, n.into(), Operand::ImmU(1))
    });
    let own = b.imul(tid.into(), Operand::ImmU(4));
    b.st(MemSpace::Shared, own, 0, vec![steps.into()]);
    b.sync();
    let last = b.alu(AluOp::ISub, ntid.into(), Operand::ImmU(1));
    let rev = b.alu(AluOp::ISub, last.into(), tid.into());
    let rev_addr = b.imul(rev.into(), Operand::ImmU(4));
    let mirrored = b.ld(MemSpace::Shared, rev_addr, 0, 1)[0];
    let stride2 = b.imul(tid.into(), Operand::ImmU(8));
    let pair = b.ld(MemSpace::Shared, stride2, 0, 2);
    let zero = b.mov(Operand::ImmU(0));
    let quad = b.ld(MemSpace::Shared, zero, 0, 4);
    b.sync();
    let in_addr = b.mad_u(gi.into(), Operand::ImmU(4), inp.into());
    let x = b.ld(MemSpace::Global, in_addr, 0, 1)[0];
    let mut acc = b.iadd(mirrored.into(), x.into());
    for r in pair.into_iter().chain(quad) {
        acc = b.iadd(acc.into(), r.into());
    }
    let out_addr = b.mad_u(gi.into(), Operand::ImmU(4), out.into());
    b.st(MemSpace::Global, out_addr, 0, vec![acc.into()]);
    b.finish()
}

/// One SM's queue on the timed engine: three resident blocks of 64 threads,
/// four more admitted from the pending queue as resident blocks retire.
#[test]
fn queued_blocks_with_barriers_match_their_pin() {
    let (grid, block) = (7u32, 64u32);
    let threads = u64::from(grid * block);
    let mut gmem = GlobalMemory::new(1 << 16);
    let words: Vec<u8> = (0..threads as u32)
        .flat_map(|i| (i * 7 + 3).to_le_bytes())
        .collect();
    let inp = gmem.alloc(threads * 4).unwrap();
    gmem.upload(inp, &words).unwrap();
    let out = gmem.alloc(threads * 4).unwrap();
    let driver = DriverModel::Cuda10;
    let run = time_sm_queue(
        &lower(&queue_mix_kernel()),
        &[0, 1, 2],
        &[3, 4, 5, 6],
        block,
        grid,
        &[inp.0 as u32, out.0 as u32],
        &mut gmem,
        &DeviceConfig::g8800gtx(),
        driver,
        &TimingParams::for_driver(driver),
    )
    .unwrap();
    let digest = fnv1a(&gmem.download(out, threads * 4).unwrap());
    assert_eq!(
        (
            run.cycles,
            run.warp_instructions,
            run.transactions,
            run.bus_bytes,
            run.idle_cycles,
            format!("{digest:016x}"),
        ),
        (
            96_038,
            19_724,
            56,
            3_584,
            16_738,
            "db0f8eb84264180c".to_string()
        )
    );
}
