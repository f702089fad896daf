//! Chunked-streaming variant of the force kernel, for working sets larger
//! than device memory.
//!
//! The paper assumes the particle buffers fit the 8800 GTX's global memory;
//! when they do not, the application tiles the O(n²) frame over *body
//! chunks*: the target bodies and the source bodies are uploaded a chunk at
//! a time, and one launch accumulates the partial accelerations of one
//! (target chunk, source chunk) pair. The kernel here is the standard tiled
//! force kernel (see [`crate::force`]) with two differences that make the
//! streaming composition **bit-identical** to an unconstrained run:
//!
//! 1. **Separate target and source buffers.** The standard kernel reads its
//!    own position and its tile stages from the same buffer set; the chunk
//!    kernel takes the target chunk's buffers and the source chunk's buffers
//!    as distinct parameters.
//! 2. **The accumulator is carried through `out`.** Instead of starting at
//!    zero, each thread seeds `(ax, ay, az)` from its `out` slot and the
//!    epilogue writes the running total back. f32 addition is not
//!    associative, so partial sums must not be combined on the host in a
//!    different order; launching the source chunks in ascending body order
//!    replays the *exact* addition sequence of the unconstrained kernel
//!    (zero-mass padding sentinels contribute exact no-ops, as in the
//!    unconstrained kernel's own padding).
//!
//! Everything else — phase `S` on the target buffers, the `B`+`P` tile loop
//! over the source buffers, the epilogue store and the optimization ladder
//! (`icm` runs LICM, `unroll` unrolls the innermost loop) — is the standard
//! kernel's own emitters, so the innermost loop `P` is the standard
//! kernel's instruction for instruction and physics stay bit-identical
//! throughout.

use gpu_sim::ir::{Kernel, KernelBuilder, MemSpace, Reg};
use particle_layouts::DeviceImage;

use crate::force::{kernel_name, ladder, store_acc, thread_setup, tile_loop, ForceKernelConfig};

/// Build the chunk force kernel for a configuration.
///
/// Parameters, in order: the layout's buffers for the **target** chunk, the
/// layout's buffers for the **source** chunk, then `out` (float4 per target,
/// read *and* written — the carried accumulator), `n_src` (padded source
/// count, a multiple of `block`), `eps` (ε as raw f32 bits) and `smem0`.
pub fn build_chunk_force_kernel(cfg: ForceKernelConfig) -> Kernel {
    let n_buffers = cfg.layout.buffers().len();
    let mut b = KernelBuilder::new(kernel_name("force_chunk", cfg));
    b.shared_mem(cfg.smem_bytes());
    let tgt_bufs: Vec<Reg> = (0..n_buffers).map(|_| b.param()).collect();
    let src_bufs: Vec<Reg> = (0..n_buffers).map(|_| b.param()).collect();
    let out = b.param();
    let n_src = b.param();
    let eps = b.param();
    let smem0 = b.param();

    let th = thread_setup(&mut b, cfg.layout, &tgt_bufs, out, eps);
    // Seed the accumulator from the carried partial sum (the w lane rides
    // along for the float4 access and is dead).
    let carried = b.ld(MemSpace::Global, th.oaddr, 0, 4);
    let acc = [carried[0], carried[1], carried[2]];
    tile_loop(&mut b, cfg, &src_bufs, n_src, smem0, &th, acc);
    store_acc(&mut b, th.oaddr, acc);
    ladder(cfg, b.finish())
}

/// Assemble the launch parameter values for a chunk force kernel: target
/// chunk `tgt`, source chunk `src`, accumulator buffer `out`.
pub fn chunk_force_params(
    tgt: &DeviceImage,
    src: &DeviceImage,
    out: gpu_sim::mem::DevicePtr,
    eps: f32,
) -> Vec<u32> {
    assert_eq!(tgt.layout, src.layout, "chunks must share one layout");
    let mut p = tgt.base_params();
    p.extend(src.base_params());
    p.push(out.0 as u32);
    p.push(src.padded_n);
    p.push(eps.to_bits());
    p.push(0); // smem0
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::exec::functional::run_grid;
    use gpu_sim::mem::GlobalMemory;
    use nbody::direct::accelerations;
    use nbody::model::{Bodies, ForceParams};
    use nbody::spawn;
    use particle_layouts::device::{alloc_accel_out, download_accels};
    use particle_layouts::{Layout, Particle};

    fn to_particles(bodies: &Bodies, g: f32) -> Vec<Particle> {
        (0..bodies.len())
            .map(|i| Particle {
                pos: bodies.pos[i],
                vel: bodies.vel[i],
                mass: g * bodies.mass[i],
            })
            .collect()
    }

    /// Stream a frame through the chunk kernel: all targets resident, the
    /// sources uploaded `chunk` bodies at a time in ascending order, the
    /// accumulator carried through `out` across launches.
    fn run_chunked(
        cfg: ForceKernelConfig,
        bodies: &Bodies,
        fp: &ForceParams,
        chunk: usize,
    ) -> Vec<simcore::Vec3> {
        assert!(chunk.is_multiple_of(cfg.block as usize));
        let k = build_chunk_force_kernel(cfg);
        let ps = to_particles(bodies, fp.g);
        let mut gmem = GlobalMemory::new(64 << 20);
        let tgt = DeviceImage::upload(&mut gmem, cfg.layout, &ps, cfg.block).unwrap();
        let out = alloc_accel_out(&mut gmem, tgt.padded_n).unwrap();
        let grid = tgt.padded_n / cfg.block;
        let mut lo = 0;
        while lo < ps.len() {
            let hi = (lo + chunk).min(ps.len());
            let src = DeviceImage::upload(&mut gmem, cfg.layout, &ps[lo..hi], cfg.block).unwrap();
            let params = chunk_force_params(&tgt, &src, out, fp.softening);
            run_grid(&k, grid, cfg.block, &params, &mut gmem).unwrap();
            // Free the source chunk LIFO so the next one reuses its space.
            for b in src.buffers.iter().rev() {
                gmem.free(*b).unwrap();
            }
            lo = hi;
        }
        download_accels(&gmem, out, tgt.n).unwrap()
    }

    fn assert_bitwise_eq(a: &[simcore::Vec3], b: &[simcore::Vec3], what: &str) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a[i].x.to_bits(), b[i].x.to_bits(), "{what}: body {i} x");
            assert_eq!(a[i].y.to_bits(), b[i].y.to_bits(), "{what}: body {i} y");
            assert_eq!(a[i].z.to_bits(), b[i].z.to_bits(), "{what}: body {i} z");
        }
    }

    /// The central chunking claim: for every layout, streaming the sources
    /// through the chunk kernel is bit-identical to the CPU reference (and
    /// hence to the unconstrained kernel, which equals the CPU bitwise).
    #[test]
    fn chunked_streaming_is_bit_identical_for_every_layout() {
        let bodies = spawn::uniform_ball(150, 5.0, 3.0, 42); // ragged vs 64
        let fp = ForceParams::default();
        let cpu = accelerations(&bodies, &fp);
        for layout in Layout::ALL {
            let cfg = ForceKernelConfig {
                layout,
                block: 64,
                unroll: 1,
                icm: false,
            };
            for chunk in [64usize, 128] {
                let gpu = run_chunked(cfg, &bodies, &fp, chunk);
                assert_bitwise_eq(&cpu, &gpu, &format!("{layout} chunk={chunk}"));
            }
        }
    }

    /// The optimization ladder applies to the chunk kernel unchanged.
    #[test]
    fn unroll_and_icm_preserve_chunked_results_bitwise() {
        let bodies = spawn::disk_galaxy(130, 4.0, 1.0, 1.0, 7);
        let fp = ForceParams {
            g: 1.0,
            softening: 0.02,
        };
        let cpu = accelerations(&bodies, &fp);
        for (unroll, icm) in [(1, true), (4, false), (64, true)] {
            let cfg = ForceKernelConfig {
                layout: Layout::SoAoaS,
                block: 64,
                unroll,
                icm,
            };
            let gpu = run_chunked(cfg, &bodies, &fp, 64);
            assert_bitwise_eq(&cpu, &gpu, &format!("unroll={unroll},icm={icm}"));
        }
    }

    /// A single all-bodies chunk reduces the chunk kernel to the standard
    /// kernel exactly (the degenerate streaming case).
    #[test]
    fn single_chunk_equals_the_standard_kernel() {
        let bodies = spawn::uniform_ball(96, 4.0, 2.0, 9);
        let fp = ForceParams::default();
        let cfg = ForceKernelConfig {
            layout: Layout::SoAoaS,
            block: 32,
            unroll: 1,
            icm: false,
        };
        let chunked = run_chunked(cfg, &bodies, &fp, 96);
        let cpu = accelerations(&bodies, &fp);
        assert_bitwise_eq(&cpu, &chunked, "single chunk");
    }

    /// Chunk-kernel parameter shape: both buffer sets, then out/n/eps/smem0.
    #[test]
    fn param_count_matches_the_kernel() {
        for layout in Layout::ALL {
            let cfg = ForceKernelConfig {
                layout,
                block: 32,
                unroll: 1,
                icm: false,
            };
            let k = build_chunk_force_kernel(cfg);
            let expected = 2 * layout.buffers().len() + 4;
            assert_eq!(k.n_params as usize, expected, "{layout}");
        }
    }
}
