//! The tiled O(n²) far-field force kernel (paper Sec. IV).
//!
//! Structure (one thread per target particle, shared-memory tiles of K = the
//! block size, as in GPU Gems 3 ch. 31, whose shape the paper's port follows):
//!
//! ```text
//! S: i = blockIdx·blockDim + threadIdx; load own position; acc = 0
//! B: for each tile: stage one source particle per thread into shared memory
//! P: for j in 0..K: accumulate softened pairwise acceleration from tile[j]
//! ```
//!
//! The innermost loop `P` is deliberately built in the paper's *baseline*
//! shape: a `mad`-computed shared-memory address and an ε² that is recomputed
//! every iteration. The optimization ladder is then applied as real IR
//! passes —
//!
//! * `icm = true` runs [`gpu_sim::ir::passes::licm`] (hoists ε², freeing one
//!   register once the loop is unrolled);
//! * `unroll > 1` runs [`gpu_sim::ir::passes::unroll_innermost`] (removes
//!   induction add + compare + jump, hard-codes the address offsets, frees
//!   the iterator register at full unroll).
//!
//! The layout only changes phase `B` (how the tile is fetched from global
//! memory) and the upload footprint — phase `P` reads shared memory and is
//! layout-independent, which is why the paper finds layout effects small and
//! unrolling effects large in the full application (Sec. IV-A).
//!
//! Every force-style kernel in the crate is built from one set of emitters
//! here: `thread_setup` (phase `S`), `tile_loop` (`B` + `P` over a given
//! set of source buffers), `store_acc` (the epilogue) and the pairwise
//! interaction, split as `offset_sq` (`d`, `|d|²`) and `add_pull` (the
//! softened pull into the accumulator) because the Barnes–Hut opening test
//! reads `|d|²` before it decides. [`build_force_kernel`] and
//! [`crate::chunk::build_chunk_force_kernel`] differ only in their
//! parameter lists and accumulator seeds and share `ladder`; the prefetch
//! and Barnes–Hut kernels emit their interactions through the same pair.

use gpu_sim::ir::passes::{licm, unroll_innermost};
use gpu_sim::ir::{AluOp, Kernel, KernelBuilder, MemSpace, Operand, Reg, SpecialReg};
use nbody::model::MIN_DIST_SQ;
use particle_layouts::{DeviceImage, Layout, Particle};

/// Configuration of a force-kernel build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForceKernelConfig {
    /// Global-memory layout of the particle data.
    pub layout: Layout,
    /// Threads per block == tile size K.
    pub block: u32,
    /// Inner-loop unroll factor (1 = rolled; `block` = full unroll). Must
    /// divide `block`.
    pub unroll: u32,
    /// Apply invariant code motion before unrolling.
    pub icm: bool,
}

impl ForceKernelConfig {
    /// Shared memory the kernel declares (one float4 per tile slot).
    pub fn smem_bytes(&self) -> u32 {
        self.block * 16
    }
}

/// The optimization ladder of Figure 12, from the baseline GPU port to the
/// fully tuned kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Original AoS (packed) layout, rolled loop — the GPU baseline.
    Baseline,
    /// Structure-of-arrays layout.
    SoA,
    /// Array of aligned structures.
    AoaS,
    /// The paper's SoAoaS layout.
    SoAoaS,
    /// SoAoaS + fully unrolled innermost loop (the +18 % step).
    SoAoaSUnrolled,
    /// SoAoaS + unroll + invariant code motion + 128-thread blocks
    /// (the occupancy step; the paper's final 1.27×).
    Full,
}

impl OptLevel {
    /// Every level, in the order Fig. 12 stacks them.
    pub const ALL: [OptLevel; 6] = [
        OptLevel::Baseline,
        OptLevel::SoA,
        OptLevel::AoaS,
        OptLevel::SoAoaS,
        OptLevel::SoAoaSUnrolled,
        OptLevel::Full,
    ];

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Baseline => "GPU baseline (AoS)",
            OptLevel::SoA => "SoA",
            OptLevel::AoaS => "AoaS",
            OptLevel::SoAoaS => "SoAoaS",
            OptLevel::SoAoaSUnrolled => "SoAoaS+unroll",
            OptLevel::Full => "SoAoaS+unroll+ICM (block 128)",
        }
    }

    /// The kernel configuration this level denotes. The pre-tuning levels use
    /// the original port's 192-thread blocks; the final level switches to 128
    /// as the paper does.
    pub fn config(self) -> ForceKernelConfig {
        match self {
            OptLevel::Baseline => ForceKernelConfig {
                layout: Layout::Unopt,
                block: 192,
                unroll: 1,
                icm: false,
            },
            OptLevel::SoA => ForceKernelConfig {
                layout: Layout::SoA,
                block: 192,
                unroll: 1,
                icm: false,
            },
            OptLevel::AoaS => ForceKernelConfig {
                layout: Layout::AoaS,
                block: 192,
                unroll: 1,
                icm: false,
            },
            OptLevel::SoAoaS => ForceKernelConfig {
                layout: Layout::SoAoaS,
                block: 192,
                unroll: 1,
                icm: false,
            },
            OptLevel::SoAoaSUnrolled => ForceKernelConfig {
                layout: Layout::SoAoaS,
                block: 192,
                unroll: 192,
                icm: false,
            },
            OptLevel::Full => ForceKernelConfig {
                layout: Layout::SoAoaS,
                block: 128,
                unroll: 128,
                icm: true,
            },
        }
    }
}

impl core::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Build the force kernel for a configuration.
///
/// Parameters, in order: the layout's buffers, then `out` (float4 per
/// particle), `n` (padded particle count, a multiple of `block`), `eps`
/// (ε as raw f32 bits) and `smem0` (the shared-memory tile base, always 0 —
/// a param so address folding can express "base + hard-coded offset").
pub fn build_force_kernel(cfg: ForceKernelConfig) -> Kernel {
    let mut b = KernelBuilder::new(kernel_name("force", cfg));
    b.shared_mem(cfg.smem_bytes());
    let bufs: Vec<Reg> = (0..cfg.layout.buffers().len()).map(|_| b.param()).collect();
    let out = b.param();
    let n = b.param();
    let eps = b.param();
    let smem0 = b.param();

    let th = thread_setup(&mut b, cfg.layout, &bufs, out, eps);
    let acc = zero_acc(&mut b);
    tile_loop(&mut b, cfg, &bufs, n, smem0, &th, acc);
    store_acc(&mut b, th.oaddr, acc);
    ladder(cfg, b.finish())
}

/// `"{prefix}_{layout}_b{block}_u{unroll}"`, plus `_icm` when LICM runs.
pub(crate) fn kernel_name(prefix: &str, cfg: ForceKernelConfig) -> String {
    format!(
        "{prefix}_{}_b{}_u{}{}",
        cfg.layout.label(),
        cfg.block,
        cfg.unroll,
        if cfg.icm { "_icm" } else { "" }
    )
}

/// The optimization ladder over a baseline-shaped kernel: `licm` when
/// `cfg.icm`, then `unroll_innermost` by `cfg.unroll`.
pub(crate) fn ladder(cfg: ForceKernelConfig, mut k: Kernel) -> Kernel {
    assert!(
        cfg.block > 0 && cfg.block.is_multiple_of(32),
        "block must be a warp multiple"
    );
    assert!(
        cfg.unroll >= 1 && cfg.block.is_multiple_of(cfg.unroll),
        "unroll must divide the block size"
    );
    if cfg.icm {
        k = licm(&k);
    }
    if cfg.unroll > 1 {
        k = unroll_innermost(&k, cfg.unroll);
    }
    k
}

/// The registers phase `S` leaves live for the loops and the epilogue.
pub(crate) struct Thread {
    /// `threadIdx.x`: the first source this thread stages.
    pub tid: Reg,
    /// The thread's own position.
    pub pos: [Reg; 3],
    /// Address of the thread's `out` float4.
    pub oaddr: Reg,
    /// Byte offset of the thread's shared-memory tile slot.
    pub myslot: Reg,
    /// ε, copied out of param space.
    pub eps: Reg,
}

/// Phase `S`: `i = blockIdx·blockDim + threadIdx`, the own position read
/// from `bufs` (the mass word of the plan is loaded but unused for self),
/// the output address and tile slot, and ε.
pub(crate) fn thread_setup(
    b: &mut KernelBuilder,
    layout: Layout,
    bufs: &[Reg],
    out: Reg,
    eps_param: Reg,
) -> Thread {
    let tid = b.special(SpecialReg::TidX);
    let ctaid = b.special(SpecialReg::CtaidX);
    let ntid = b.special(SpecialReg::NtidX);
    let i = b.mad_u(ctaid.into(), ntid.into(), tid.into());
    let (px, py, pz, _own_mass) = load_posmass(b, layout, bufs, i);
    // Output address, computed in setup so `i`/`out` die here (nvcc-style
    // rematerialization keeps them out of the loop-carried set).
    let oaddr = b.mad_u(i.into(), Operand::ImmU(16), out.into());
    let myslot = b.imul(tid.into(), Operand::ImmU(16));
    // ε lives in a register across the loops (params are re-read from param
    // space; a loop-hot value gets a copy — see gpu-sim regalloc docs).
    let eps = b.mov(eps_param.into());
    Thread {
        tid,
        pos: [px, py, pz],
        oaddr,
        myslot,
        eps,
    }
}

/// An accumulator `(ax, ay, az)` starting at zero.
pub(crate) fn zero_acc(b: &mut KernelBuilder) -> [Reg; 3] {
    [(); 3].map(|()| b.mov(Operand::ImmF(0.0)))
}

/// Phases `B` and `P` over the sources in `src_bufs` (`n` of them, a
/// multiple of the block), accumulating into `acc`.
pub(crate) fn tile_loop(
    b: &mut KernelBuilder,
    cfg: ForceKernelConfig,
    src_bufs: &[Reg],
    n: Reg,
    smem0: Reg,
    th: &Thread,
    acc: [Reg; 3],
) {
    // --- B: jj walks this thread's staging source: tid, tid+K, tid+2K, ...
    b.for_loop(th.tid.into(), n.into(), cfg.block, |b, jj| {
        let (tpx, tpy, tpz, tm) = load_posmass(b, cfg.layout, src_bufs, jj);
        b.st(
            MemSpace::Shared,
            th.myslot,
            0,
            vec![tpx.into(), tpy.into(), tpz.into(), tm.into()],
        );
        b.sync();

        // --- P: the innermost loop over the tile ------------------------
        b.for_loop(Operand::ImmU(0), Operand::ImmU(cfg.block), 1, |b, j| {
            let jaddr = b.mad_u(j.into(), Operand::ImmU(16), smem0.into());
            let v = b.ld(MemSpace::Shared, jaddr, 0, 4);
            // The baseline recomputes ε² here; `licm` hoists it.
            let eps2 = b.fmul(th.eps.into(), th.eps.into());
            let (d, d2) = offset_sq(b, [v[0], v[1], v[2]], th.pos);
            add_pull(b, d, d2, eps2, v[3], acc);
        });
        b.sync();
    });
}

/// The first half of the pairwise interaction: `d = src - pos` and `|d|²`.
pub(crate) fn offset_sq(b: &mut KernelBuilder, src: [Reg; 3], pos: [Reg; 3]) -> ([Reg; 3], Reg) {
    let dx = b.fsub(src[0].into(), pos[0].into());
    let dy = b.fsub(src[1].into(), pos[1].into());
    let dz = b.fsub(src[2].into(), pos[2].into());
    let t = b.fmul(dx.into(), dx.into());
    b.fmad_into(t, dy.into(), dy.into(), t.into());
    b.fmad_into(t, dz.into(), dz.into(), t.into());
    ([dx, dy, dz], t)
}

/// The second half: `acc += d · mass / max(|d|² + ε², MIN_DIST_SQ)^{3/2}`,
/// in the operation order of `nbody::model::accel_one_exact`.
pub(crate) fn add_pull(
    b: &mut KernelBuilder,
    d: [Reg; 3],
    d2: Reg,
    eps2: Reg,
    mass: Reg,
    acc: [Reg; 3],
) {
    let r2 = b.fadd(d2.into(), eps2.into());
    b.alu_into(r2, AluOp::FMax, r2.into(), Operand::ImmF(MIN_DIST_SQ));
    let rinv = b.frsqrt(r2.into());
    let rc = b.fmul(rinv.into(), rinv.into());
    b.alu_into(rc, AluOp::FMul, rc.into(), rinv.into());
    let s = b.fmul(mass.into(), rc.into());
    for (a, dk) in acc.into_iter().zip(d) {
        b.fmad_into(a, dk.into(), s.into(), a.into());
    }
}

/// The epilogue: write the accumulated acceleration to `oaddr` as a float4.
pub(crate) fn store_acc(b: &mut KernelBuilder, oaddr: Reg, acc: [Reg; 3]) {
    b.st(
        MemSpace::Global,
        oaddr,
        0,
        vec![
            acc[0].into(),
            acc[1].into(),
            acc[2].into(),
            Operand::ImmF(0.0),
        ],
    );
}

/// Emit the layout's posmass reads for element `idx` from `bufs`; returns
/// `(x, y, z, mass)`.
fn load_posmass(
    b: &mut KernelBuilder,
    layout: Layout,
    bufs: &[Reg],
    idx: Reg,
) -> (Reg, Reg, Reg, Reg) {
    let plan = layout.read_plan_posmass();
    let reads: Vec<Vec<Reg>> = plan
        .reads
        .iter()
        .map(|r| {
            let addr = b.mad_u(idx.into(), Operand::ImmU(r.stride), bufs[r.buffer].into());
            b.ld(MemSpace::Global, addr, r.offset, r.words as usize)
        })
        .collect();
    let reg = |word: usize| {
        let (read, lane) = plan.lane(word);
        reads[read][lane]
    };
    let [x, y, z, mass] = Particle::POSMASS.map(reg);
    (x, y, z, mass)
}

/// Assemble the launch parameter values for a force kernel over `img`,
/// writing accelerations to `out`.
pub fn force_params(img: &DeviceImage, out: gpu_sim::mem::DevicePtr, eps: f32) -> Vec<u32> {
    let mut p = img.base_params();
    p.push(out.0 as u32);
    p.push(img.padded_n);
    p.push(eps.to_bits());
    p.push(0); // smem0
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::exec::functional::run_grid;
    use gpu_sim::ir::count::{dynamic_instructions, inner_loop_profile};
    use gpu_sim::ir::regalloc::register_demand;
    use gpu_sim::mem::GlobalMemory;
    use nbody::direct::accelerations;
    use nbody::model::{Bodies, ForceParams};
    use nbody::spawn;
    use particle_layouts::device::{alloc_accel_out, download_accels};
    use particle_layouts::Particle;

    fn to_particles(bodies: &Bodies, g: f32) -> Vec<Particle> {
        (0..bodies.len())
            .map(|i| Particle {
                pos: bodies.pos[i],
                vel: bodies.vel[i],
                mass: g * bodies.mass[i],
            })
            .collect()
    }

    /// Run a force kernel functionally and return the accelerations.
    fn run_kernel(
        cfg: ForceKernelConfig,
        bodies: &Bodies,
        params: &ForceParams,
    ) -> Vec<simcore::Vec3> {
        let k = build_force_kernel(cfg);
        let mut gmem = GlobalMemory::new(64 << 20);
        let ps = to_particles(bodies, params.g);
        let img = DeviceImage::upload(&mut gmem, cfg.layout, &ps, cfg.block).unwrap();
        let out = alloc_accel_out(&mut gmem, img.padded_n).unwrap();
        let p = force_params(&img, out, params.softening);
        let grid = img.padded_n / cfg.block;
        run_grid(&k, grid, cfg.block, &p, &mut gmem).unwrap();
        download_accels(&gmem, out, img.n).unwrap()
    }

    fn assert_bitwise_eq(a: &[simcore::Vec3], b: &[simcore::Vec3], what: &str) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a[i].x.to_bits(), b[i].x.to_bits(), "{what}: body {i} x");
            assert_eq!(a[i].y.to_bits(), b[i].y.to_bits(), "{what}: body {i} y");
            assert_eq!(a[i].z.to_bits(), b[i].z.to_bits(), "{what}: body {i} z");
        }
    }

    /// The central validation: every layout × every optimization level
    /// computes bit-identical accelerations to the CPU reference.
    #[test]
    fn every_layout_matches_cpu_bitwise() {
        let bodies = spawn::uniform_ball(200, 5.0, 3.0, 42); // padded to 256
        let fp = ForceParams::default();
        let cpu = accelerations(&bodies, &fp);
        // Padding must not change physics: CPU over unpadded == kernel over padded.
        for layout in Layout::ALL {
            let cfg = ForceKernelConfig {
                layout,
                block: 128,
                unroll: 1,
                icm: false,
            };
            let gpu = run_kernel(cfg, &bodies, &fp);
            assert_bitwise_eq(&cpu, &gpu, layout.label());
        }
    }

    #[test]
    fn unroll_and_icm_preserve_results_bitwise() {
        let bodies = spawn::disk_galaxy(150, 4.0, 1.0, 1.0, 7);
        let fp = ForceParams {
            g: 1.0,
            softening: 0.02,
        };
        let cpu = accelerations(&bodies, &fp);
        for (unroll, icm) in [(1, true), (4, false), (32, true), (128, false), (128, true)] {
            let cfg = ForceKernelConfig {
                layout: Layout::SoAoaS,
                block: 128,
                unroll,
                icm,
            };
            let gpu = run_kernel(cfg, &bodies, &fp);
            assert_bitwise_eq(&cpu, &gpu, &format!("unroll={unroll},icm={icm}"));
        }
    }

    #[test]
    fn non_unit_g_is_baked_into_masses() {
        let bodies = spawn::uniform_ball(100, 3.0, 2.0, 5);
        let fp = ForceParams {
            g: 6.674e-3,
            softening: 0.05,
        };
        let cpu = accelerations(&bodies, &fp);
        let cfg = ForceKernelConfig {
            layout: Layout::SoAoaS,
            block: 128,
            unroll: 128,
            icm: true,
        };
        let gpu = run_kernel(cfg, &bodies, &fp);
        assert_bitwise_eq(&cpu, &gpu, "g-scaled");
    }

    /// The paper's instruction accounting (Sec. IV-A): the rolled inner loop
    /// carries ~20 instructions per iteration incl. overhead; full unrolling
    /// removes the compare, the induction add, the jump and the address add —
    /// ≈ 19 % fewer instructions.
    #[test]
    fn unrolling_cuts_the_inner_loop_budget_as_in_the_paper() {
        let rolled = build_force_kernel(ForceKernelConfig {
            layout: Layout::SoAoaS,
            block: 128,
            unroll: 1,
            icm: false,
        });
        let full = build_force_kernel(ForceKernelConfig {
            layout: Layout::SoAoaS,
            block: 128,
            unroll: 128,
            icm: false,
        });
        let p = inner_loop_profile(&rolled).unwrap();
        assert_eq!(p.per_iteration(), 21, "18-instruction body + 3 overhead");
        // Per-element instructions at N = one tile of 128, measured end to end.
        let n = 128u32 * 128; // big enough that S and B wash out
        let params = |k: &Kernel| {
            let mut v = vec![0u32; k.n_params as usize];
            // n param is third-from-last (out, n, eps, smem0 at the tail).
            let idx = k.n_params as usize - 3;
            v[idx] = n;
            v
        };
        let d_rolled = dynamic_instructions(&rolled, &params(&rolled)).unwrap() as f64;
        let d_full = dynamic_instructions(&full, &params(&full)).unwrap() as f64;
        let reduction = 1.0 - d_full / d_rolled;
        assert!(
            (0.15..0.25).contains(&reduction),
            "instruction reduction {reduction:.3} outside the paper's ~19% band"
        );
    }

    /// The paper's register ladder: full unrolling frees the iterator
    /// register; ICM frees one more.
    #[test]
    fn register_ladder_matches_the_paper() {
        let demand = |unroll: u32, icm: bool| {
            register_demand(&build_force_kernel(ForceKernelConfig {
                layout: Layout::SoAoaS,
                block: 128,
                unroll,
                icm,
            }))
            .regs_per_thread
        };
        let baseline = demand(1, false);
        let unrolled = demand(128, false);
        let full = demand(128, true);
        assert_eq!(baseline, 18, "baseline kernel registers");
        assert_eq!(unrolled, 17, "full unroll frees the iterator");
        assert_eq!(full, 16, "ICM frees one more");
    }

    #[test]
    fn opt_levels_produce_valid_configs() {
        for lvl in OptLevel::ALL {
            let cfg = lvl.config();
            assert!(cfg.block % cfg.unroll == 0);
            let k = build_force_kernel(cfg);
            assert!(k.smem_bytes >= cfg.block * 16);
            assert!(!lvl.label().is_empty());
        }
    }

    #[test]
    #[should_panic]
    fn non_warp_multiple_block_rejected() {
        build_force_kernel(ForceKernelConfig {
            layout: Layout::SoA,
            block: 100,
            unroll: 1,
            icm: false,
        });
    }
}

/// Build the **double-buffered** (prefetching) variant of the SoAoaS force
/// kernel: each tile's global load is issued *before* the inner loop over the
/// previous tile, hiding the fetch latency behind 128 iterations of compute.
///
/// The classic trade (measured by `results --only table_prefetch`): the prefetch
/// buffer costs four extra registers, which on a CC-1.0 register file can
/// push the kernel off its occupancy step — latency hiding bought by losing
/// warps. SoAoaS-only (one float4 per tile element).
pub fn build_force_kernel_prefetch(cfg: ForceKernelConfig) -> Kernel {
    assert_eq!(
        cfg.layout,
        Layout::SoAoaS,
        "prefetch variant is built for the tuned layout"
    );
    assert!(cfg.block.is_multiple_of(32) && cfg.block.is_multiple_of(cfg.unroll));
    let mut b = KernelBuilder::new(format!("force_prefetch_b{}_u{}", cfg.block, cfg.unroll));
    b.shared_mem(cfg.smem_bytes());
    // SoAoaS buffer list (posmass, vel): parity with the standard kernel.
    let bufs = [b.param(), b.param()];
    let posmass = bufs[0];
    let out = b.param();
    let n = b.param();
    let eps = b.param();
    let smem0 = b.param();

    let th = thread_setup(&mut b, cfg.layout, &bufs, out, eps);
    let tid = th.tid;
    let eps2 = b.fmul(th.eps.into(), th.eps.into());
    let acc = zero_acc(&mut b);
    // Clamp bound for the prefetch index: the base of the last tile. The
    // clamp must act on the *tile base*, not the per-lane element — clamping
    // every lane to `n - 1` would collapse the half-warp onto one address on
    // the final trip and decay the load into 16 transactions (kernel-lint
    // flags exactly that pattern as uncoalesced).
    let nmb = b.alu(AluOp::ISub, n.into(), Operand::ImmU(cfg.block));

    // Prefetch tile 0 into the persistent buffer registers.
    let cur: Vec<Reg> = {
        let a0 = b.mad_u(tid.into(), Operand::ImmU(16), posmass.into());
        b.ld(MemSpace::Global, a0, 0, 4)
    };

    b.for_loop(tid.into(), n.into(), cfg.block, |b, jj| {
        // Publish the prefetched tile element.
        b.st(
            MemSpace::Shared,
            th.myslot,
            0,
            vec![cur[0].into(), cur[1].into(), cur[2].into(), cur[3].into()],
        );
        b.sync();
        // Kick off the next tile's fetch (clamped on the last tile; the
        // value is published but never consumed past the loop).
        let next = b.iadd(jj.into(), Operand::ImmU(cfg.block));
        // next = tid + (k+1)·block; clamp its tile base (next - tid) to the
        // last tile so every lane keeps its 16-byte stride.
        let next_base = b.alu(AluOp::ISub, next.into(), tid.into());
        let capped = b.alu(AluOp::IMin, next_base.into(), nmb.into());
        let elem = b.iadd(capped.into(), tid.into());
        let naddr = b.mad_u(elem.into(), Operand::ImmU(16), posmass.into());
        b.ld_into(MemSpace::Global, naddr, 0, cur.clone());
        // Inner loop over the published tile (the standard kernel's, with
        // ε² hoisted).
        b.for_loop(Operand::ImmU(0), Operand::ImmU(cfg.block), 1, |b, j| {
            let jaddr = b.mad_u(j.into(), Operand::ImmU(16), smem0.into());
            let v = b.ld(MemSpace::Shared, jaddr, 0, 4);
            let (d, d2) = offset_sq(b, [v[0], v[1], v[2]], th.pos);
            add_pull(b, d, d2, eps2, v[3], acc);
        });
        b.sync();
    });

    store_acc(&mut b, th.oaddr, acc);
    let mut k = b.finish();
    if cfg.unroll > 1 {
        k = unroll_innermost(&k, cfg.unroll);
    }
    k
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use gpu_sim::exec::functional::run_grid;
    use gpu_sim::ir::regalloc::register_demand;
    use gpu_sim::mem::GlobalMemory;
    use nbody::direct::accelerations;
    use nbody::model::ForceParams;
    use nbody::spawn;
    use particle_layouts::device::{alloc_accel_out, download_accels};
    use particle_layouts::DeviceImage;

    #[test]
    fn prefetch_variant_is_bitwise_identical_physics() {
        let bodies = spawn::disk_galaxy(300, 4.0, 1.0, 1.0, 17);
        let fp = ForceParams::default();
        let cpu = accelerations(&bodies, &fp);
        for unroll in [1u32, 128] {
            let cfg = ForceKernelConfig {
                layout: Layout::SoAoaS,
                block: 128,
                unroll,
                icm: true,
            };
            let k = build_force_kernel_prefetch(cfg);
            let mut gmem = GlobalMemory::new(64 << 20);
            let ps: Vec<particle_layouts::Particle> = (0..bodies.len())
                .map(|i| particle_layouts::Particle {
                    pos: bodies.pos[i],
                    vel: bodies.vel[i],
                    mass: bodies.mass[i],
                })
                .collect();
            let img = DeviceImage::upload(&mut gmem, Layout::SoAoaS, &ps, cfg.block).unwrap();
            let out = alloc_accel_out(&mut gmem, img.padded_n).unwrap();
            let params = force_params(&img, out, fp.softening);
            run_grid(&k, img.padded_n / cfg.block, cfg.block, &params, &mut gmem).unwrap();
            let gpu = download_accels(&gmem, out, img.n).unwrap();
            for i in 0..cpu.len() {
                assert_eq!(cpu[i], gpu[i], "unroll {unroll}, body {i}");
            }
        }
    }

    #[test]
    fn prefetch_costs_registers() {
        let cfg = ForceKernelConfig {
            layout: Layout::SoAoaS,
            block: 128,
            unroll: 128,
            icm: true,
        };
        let standard = register_demand(&build_force_kernel(cfg)).regs_per_thread;
        let prefetch = register_demand(&build_force_kernel_prefetch(cfg)).regs_per_thread;
        assert!(
            prefetch > standard,
            "the double buffer must cost registers: {prefetch} vs {standard}"
        );
        assert!(
            prefetch - standard <= 6,
            "but only the buffer + clamp temps"
        );
    }
}
