//! A GPU Barnes–Hut traversal kernel — the road the paper rules out.
//!
//! Sec. I-D: *"Because of its heavily recursive nature [Barnes–Hut] is not an
//! algorithm that allows for an (easy) implementation on the CUDA
//! architecture … the recursion has to be transformed into an iterative
//! equivalent."* This module does that transformation for real, so the claim
//! can be measured instead of taken on faith:
//!
//! * the octree is consumed in linearized form
//!   ([`nbody::barnes_hut::LinearTree`]);
//! * each thread walks the tree with an explicit stack in **shared memory**
//!   (interleaved by depth so pushes/pops are bank-conflict-free);
//! * the walk is a *divergent* `While` loop — lanes finish at different
//!   times and the warp serializes to the slowest lane, which is exactly the
//!   cost the paper avoids by choosing the O(n²) kernel.
//!
//! Functionally the kernel is validated **bit-for-bit** against
//! [`LinearTree::accel_kernel_order`](nbody::barnes_hut::LinearTree::accel_kernel_order),
//! the CPU traversal with identical
//! push order and operation order.

use gpu_sim::ir::{AluOp, CmpOp, Kernel, KernelBuilder, MemSpace, Operand, SpecialReg};
use nbody::barnes_hut::{LINEAR_FANOUT, LINEAR_LEAF_CAP};

use crate::force::{add_pull, offset_sq, store_acc, zero_acc};

/// Configuration of the traversal kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BhKernelConfig {
    /// Threads per block. The shared-memory stack costs `block × depth × 4`
    /// bytes, so 64 is the practical choice on a 16 KiB-smem device.
    pub block: u32,
    /// Per-thread stack capacity (entries). Use
    /// [`LinearTree::max_stack_depth`](nbody::barnes_hut::LinearTree::max_stack_depth)
    /// to size it; overflow is caught by the simulator's bounds checks.
    pub depth: u32,
}

impl BhKernelConfig {
    /// A G80-friendly default: 64-thread blocks, 48-deep stacks (12 KiB).
    pub fn g80_default() -> BhKernelConfig {
        BhKernelConfig {
            block: 64,
            depth: 48,
        }
    }

    /// Shared memory the kernel declares.
    pub fn smem_bytes(&self) -> u32 {
        self.block * self.depth * 4
    }
}

/// Static trip-count budget for the traversal's `While` loop.
///
/// Every node enters a thread's stack at most once (it has exactly one
/// parent, and children are pushed only when their parent is popped), so a
/// traversal over a tree of `n_nodes` nodes pops — and therefore iterates —
/// at most `n_nodes` times. Feed this to
/// [`AnalysisConfig::with_trip_budget`](gpu_sim::analyze::AnalysisConfig::with_trip_budget)
/// to bound the interval analysis of the walk.
pub fn traversal_budget(n_nodes: u32) -> u64 {
    u64::from(n_nodes).max(1)
}

/// Build the Barnes–Hut traversal kernel.
///
/// Parameters, in order:
/// `pos` (float4 per target particle: x,y,z,_), `com` (float4 per node),
/// `side_meta` (float4 per node: side², first_child|body_start, n_children,
/// n_bodies — u32s as raw bits), `bodies` (float4 per leaf body), `out`
/// (float4 per particle), `theta_sq` (f32 bits), `eps` (f32 bits).
pub fn build_bh_kernel(cfg: BhKernelConfig) -> Kernel {
    assert!(cfg.block.is_multiple_of(32) && cfg.depth >= 8);
    let mut b = KernelBuilder::new(format!("bh_b{}_d{}", cfg.block, cfg.depth));
    b.shared_mem(cfg.smem_bytes());
    let pos = b.param();
    let com = b.param();
    let side_meta = b.param();
    let bodies = b.param();
    let out = b.param();
    let theta_sq_p = b.param();
    let eps_p = b.param();

    let tid = b.special(SpecialReg::TidX);
    let ctaid = b.special(SpecialReg::CtaidX);
    let ntid = b.special(SpecialReg::NtidX);
    let i = b.mad_u(ctaid.into(), ntid.into(), tid.into());
    let paddr = b.mad_u(i.into(), Operand::ImmU(16), pos.into());
    let own = b.ld(MemSpace::Global, paddr, 0, 4);
    let own_pos = [own[0], own[1], own[2]];
    let oaddr = b.mad_u(i.into(), Operand::ImmU(16), out.into());
    let slot = b.imul(tid.into(), Operand::ImmU(4));
    let theta_sq = b.mov(theta_sq_p.into());
    let eps = b.mov(eps_p.into());
    let eps2 = b.fmul(eps.into(), eps.into());
    let acc = zero_acc(&mut b);

    // Push the root: stack[0] = 0, sp = 1.
    let zero_node = b.mov(Operand::ImmU(0));
    b.st(MemSpace::Shared, slot, 0, vec![zero_node.into()]);
    let sp = b.mov(Operand::ImmU(1));
    let stride = Operand::ImmU(cfg.block * 4);

    b.do_while(|b| {
        // Pop.
        b.alu_into(sp, AluOp::ISub, sp.into(), Operand::ImmU(1));
        let sa = b.mad_u(sp.into(), stride, slot.into());
        let node = b.ld(MemSpace::Shared, sa, 0, 1)[0];
        // Node data.
        let caddr = b.mad_u(node.into(), Operand::ImmU(16), com.into());
        let c = b.ld(MemSpace::Global, caddr, 0, 4);
        let maddr = b.mad_u(node.into(), Operand::ImmU(16), side_meta.into());
        let m = b.ld(MemSpace::Global, maddr, 0, 4);
        let (side2, first, nchild, nbody) = (m[0], m[1], m[2], m[3]);
        // d² to the COM (no softening in the opening test).
        let (d, d2) = offset_sq(b, [c[0], c[1], c[2]], own_pos);
        let thr = b.fmul(theta_sq.into(), d2.into());
        let far = b.setp(CmpOp::FLt, side2.into(), thr.into());
        b.if_else(
            far,
            |b| {
                // Point-mass contribution of the whole cell.
                add_pull(b, d, d2, eps2, c[3], acc);
            },
            |b| {
                let is_internal = b.setp(CmpOp::UNe, nchild.into(), Operand::ImmU(0));
                b.if_else(
                    is_internal,
                    |b| {
                        // Push children ascending.
                        b.for_loop(
                            Operand::ImmU(0),
                            Operand::ImmU(LINEAR_FANOUT as u32),
                            1,
                            |b, cix| {
                                let in_range = b.setp(CmpOp::ULt, cix.into(), nchild.into());
                                b.if_then(in_range, |b| {
                                    let child = b.iadd(first.into(), cix.into());
                                    let pa = b.mad_u(sp.into(), stride, slot.into());
                                    b.st(MemSpace::Shared, pa, 0, vec![child.into()]);
                                    b.alu_into(sp, AluOp::IAdd, sp.into(), Operand::ImmU(1));
                                });
                            },
                        );
                    },
                    |b| {
                        // Leaf: accumulate members.
                        b.for_loop(
                            Operand::ImmU(0),
                            Operand::ImmU(LINEAR_LEAF_CAP as u32),
                            1,
                            |b, j| {
                                let in_range = b.setp(CmpOp::ULt, j.into(), nbody.into());
                                b.if_then(in_range, |b| {
                                    let bi = b.iadd(first.into(), j.into());
                                    let ba = b.mad_u(bi.into(), Operand::ImmU(16), bodies.into());
                                    let body = b.ld(MemSpace::Global, ba, 0, 4);
                                    let (bd, bd2) =
                                        offset_sq(b, [body[0], body[1], body[2]], own_pos);
                                    add_pull(b, bd, bd2, eps2, body[3], acc);
                                });
                            },
                        );
                    },
                );
            },
        );
        // Continue while the stack is non-empty.
        b.setp(CmpOp::UNe, sp.into(), Operand::ImmU(0))
    });

    store_acc(&mut b, oaddr, acc);
    b.finish()
}

/// Upload a [`LinearTree`](nbody::barnes_hut::LinearTree) plus the target
/// positions; returns the kernel parameter vector (without `out`).
pub fn upload_bh(
    gmem: &mut gpu_sim::mem::GlobalMemory,
    lt: &nbody::barnes_hut::LinearTree,
    targets: &[simcore::Vec3],
    pad_to: u32,
) -> gpu_sim::fault::DeviceResult<(Vec<u32>, u32)> {
    use gpu_sim::fault::{DeviceError, FaultKind};
    if targets.is_empty() {
        return Err(DeviceError::new(FaultKind::BadLaunch {
            reason: "empty target set for Barnes-Hut upload".into(),
        }));
    }
    let padded = (targets.len() as u32).div_ceil(pad_to) * pad_to;
    let pos = gmem.alloc(padded as u64 * 16)?;
    for (k, p) in targets.iter().enumerate() {
        gmem.store_f32(pos.0 + 16 * k as u64, p.x)?;
        gmem.store_f32(pos.0 + 16 * k as u64 + 4, p.y)?;
        gmem.store_f32(pos.0 + 16 * k as u64 + 8, p.z)?;
        // The kernel does a float4 load; the pad lane must be initialized.
        gmem.store_f32(pos.0 + 16 * k as u64 + 12, 0.0)?;
    }
    // Padding targets replay target 0 (their results are discarded).
    for k in targets.len() as u32..padded {
        for w in 0..4u64 {
            let v = gmem.load_f32(pos.0 + 4 * w)?;
            gmem.store_f32(pos.0 + 16 * k as u64 + 4 * w, v)?;
        }
    }
    let com = gmem.alloc(lt.n_nodes() as u64 * 16)?;
    let meta = gmem.alloc(lt.n_nodes() as u64 * 16)?;
    for n in 0..lt.n_nodes() {
        let a = com.0 + 16 * n as u64;
        for w in 0..4 {
            gmem.store_f32(a + 4 * w as u64, lt.com[n][w])?;
        }
        let ma = meta.0 + 16 * n as u64;
        gmem.store_f32(ma, lt.side_sq[n])?;
        // first_child for internal nodes, body_start for leaves.
        let first = if lt.meta[n][1] > 0 {
            lt.meta[n][0]
        } else {
            lt.meta[n][2]
        };
        gmem.store_u32(ma + 4, first)?;
        gmem.store_u32(ma + 8, lt.meta[n][1])?;
        gmem.store_u32(ma + 12, lt.meta[n][3])?;
    }
    let bodies = gmem.alloc((lt.bodies.len().max(1)) as u64 * 16)?;
    for (k, bd) in lt.bodies.iter().enumerate() {
        for (w, v) in bd.iter().enumerate() {
            gmem.store_f32(bodies.0 + 16 * k as u64 + 4 * w as u64, *v)?;
        }
    }
    Ok((
        vec![pos.0 as u32, com.0 as u32, meta.0 as u32, bodies.0 as u32],
        padded,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::exec::functional::run_grid;
    use gpu_sim::mem::GlobalMemory;
    use nbody::barnes_hut::LinearTree;
    use nbody::direct::accelerations;
    use nbody::model::ForceParams;
    use nbody::spawn;
    use particle_layouts::device::{alloc_accel_out, download_accels};

    fn run_bh(
        lt: &LinearTree,
        targets: &[simcore::Vec3],
        theta: f32,
        eps: f32,
        cfg: BhKernelConfig,
    ) -> Vec<simcore::Vec3> {
        let k = build_bh_kernel(cfg);
        let mut gmem = GlobalMemory::new(128 << 20);
        let (mut params, padded) = upload_bh(&mut gmem, lt, targets, cfg.block).unwrap();
        let out = alloc_accel_out(&mut gmem, padded).unwrap();
        params.push(out.0 as u32);
        params.push((theta * theta).to_bits());
        params.push(eps.to_bits());
        run_grid(&k, padded / cfg.block, cfg.block, &params, &mut gmem).unwrap();
        download_accels(&gmem, out, targets.len() as u32).unwrap()
    }

    #[test]
    fn gpu_traversal_matches_cpu_kernel_order_bitwise() {
        let b = spawn::plummer(500, 1.0, 2.0, 31);
        let fp = ForceParams {
            g: 1.0,
            softening: 0.05,
        };
        let lt = LinearTree::from_bodies(&b, fp.g);
        let theta = 0.5f32;
        let gpu = run_bh(
            &lt,
            &b.pos,
            theta,
            fp.softening,
            BhKernelConfig::g80_default(),
        );
        for (i, g) in gpu.iter().enumerate() {
            let cpu = lt.accel_kernel_order(b.pos[i], theta * theta, fp.eps_sq());
            assert_eq!(cpu.x.to_bits(), g.x.to_bits(), "body {i} x");
            assert_eq!(cpu.y.to_bits(), g.y.to_bits(), "body {i} y");
            assert_eq!(cpu.z.to_bits(), g.z.to_bits(), "body {i} z");
        }
    }

    #[test]
    fn gpu_traversal_approximates_direct_sum() {
        let b = spawn::uniform_ball(400, 6.0, 1.0, 8);
        let fp = ForceParams::default();
        let lt = LinearTree::from_bodies(&b, fp.g);
        let gpu = run_bh(
            &lt,
            &b.pos,
            0.35,
            fp.softening,
            BhKernelConfig::g80_default(),
        );
        let direct = accelerations(&b, &fp);
        for i in (0..b.len()).step_by(13) {
            let err = (gpu[i] - direct[i]).norm() / direct[i].norm().max(1e-9);
            assert!(err < 0.05, "body {i}: err {err}");
        }
    }

    #[test]
    fn stack_interleaving_is_conflict_free() {
        // Lane l's stack entry at depth d lives at (d·block + l)·4: a
        // half-warp pushing at the same depth hits 16 consecutive words.
        let addrs: Vec<Option<u64>> = (0..16).map(|l| Some(((5 * 64 + l) * 4) as u64)).collect();
        assert!(gpu_sim::banks::is_conflict_free(&addrs, 16));
    }

    #[test]
    fn kernel_resources_fit_the_device() {
        let cfg = BhKernelConfig::g80_default();
        let k = build_bh_kernel(cfg);
        assert!(
            k.smem_bytes <= 16 * 1024 - 256,
            "stack must fit G80 shared memory"
        );
        let regs = gpu_sim::ir::regalloc::register_demand(&k).regs_per_thread;
        assert!(
            regs <= 32,
            "traversal kernel registers {regs} out of CC-1.x range"
        );
        // It must be *launchable*:
        let occ = gpu_sim::occupancy::occupancy(
            &gpu_sim::DeviceConfig::g8800gtx(),
            cfg.block,
            regs as u32,
            k.smem_bytes,
        );
        assert!(occ.active_blocks >= 1);
        // ... but at poor occupancy — part of why the paper avoided it.
        assert!(
            occ.fraction() <= 0.5,
            "BH kernel should be resource-starved on G80"
        );
    }
}
