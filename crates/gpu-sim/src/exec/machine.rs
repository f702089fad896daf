//! Shared machine state and instruction semantics.
//!
//! One warp-step function ([`exec_instr`]) implements the meaning of every
//! instruction for all 32 lanes of a warp under an active mask. Both the
//! functional and the timed executor call it, so values, addresses and
//! side effects are identical in both modes by construction.

use crate::coalesce::AccessWidth;
use crate::fault::{DeviceError, DeviceResult, FaultKind, FaultPlan};
use crate::ir::lower::{LinStmt, Program};
use crate::ir::{alu, compare, mad, unary, Instr, MemSpace, Operand, Pred, Reg, SpecialReg};
use crate::mem::DeviceMem;

/// Warp width — fixed at 32 for every CUDA device.
pub const WARP: usize = 32;

/// Launch-wide environment visible to special registers.
#[derive(Debug, Clone, Copy)]
pub struct LaunchEnv {
    /// `blockDim.x`
    pub block_dim: u32,
    /// `gridDim.x`
    pub grid_dim: u32,
}

/// Mutable state of one thread block.
#[derive(Debug)]
pub struct BlockCtx {
    /// `blockIdx.x`
    pub block_id: u32,
    /// Threads in this block.
    pub n_threads: usize,
    n_regs: usize,
    n_preds: usize,
    /// Register file: `regs[thread * n_regs + reg]`, raw 32-bit values.
    regs: Vec<u32>,
    /// Predicate file.
    preds: Vec<bool>,
    /// Shared memory bytes.
    pub smem: Vec<u8>,
}

impl BlockCtx {
    /// Create block state with parameters bound to the first registers of
    /// every thread (as the lowered ABI requires). A parameter-count mismatch
    /// is a [`FaultKind::BadLaunch`].
    pub fn new(
        prog: &Program,
        block_id: u32,
        n_threads: usize,
        params: &[u32],
    ) -> DeviceResult<Self> {
        if params.len() != prog.n_params as usize {
            return Err(DeviceError::new(FaultKind::BadLaunch {
                reason: format!(
                    "kernel expects {} parameters, launch passed {}",
                    prog.n_params,
                    params.len()
                ),
            })
            .with_kernel(&prog.name)
            .with_block(block_id));
        }
        let n_regs = prog.n_regs as usize;
        let n_preds = prog.n_preds as usize;
        let mut regs = vec![0u32; n_threads * n_regs];
        for t in 0..n_threads {
            regs[t * n_regs..t * n_regs + params.len()].copy_from_slice(params);
        }
        Ok(BlockCtx {
            block_id,
            n_threads,
            n_regs,
            n_preds,
            regs,
            preds: vec![false; n_threads * n_preds.max(1)],
            smem: vec![0u8; prog.smem_bytes as usize],
        })
    }

    /// Read a register of a thread.
    #[inline]
    pub fn reg(&self, t: usize, r: Reg) -> u32 {
        self.regs[t * self.n_regs + r.0 as usize]
    }

    /// Write a register of a thread.
    #[inline]
    pub fn set_reg(&mut self, t: usize, r: Reg, v: u32) {
        self.regs[t * self.n_regs + r.0 as usize] = v;
    }

    /// Read a predicate of a thread.
    #[inline]
    pub fn pred(&self, t: usize, p: Pred) -> bool {
        self.preds[t * self.n_preds.max(1) + p.0 as usize]
    }

    #[inline]
    fn set_pred(&mut self, t: usize, p: Pred, v: bool) {
        self.preds[t * self.n_preds.max(1) + p.0 as usize] = v;
    }

    /// Validate a shared-memory word access. Shared memory is zero-initialized
    /// on real hardware-adjacent semantics here (no poison tracking): the
    /// sanitizer checks alignment and bounds only.
    fn smem_check(&self, addr: u64) -> DeviceResult<()> {
        if !addr.is_multiple_of(4) {
            return Err(DeviceError::new(FaultKind::Misaligned {
                space: MemSpace::Shared,
                addr,
                width: 4,
            }));
        }
        if addr + 4 > self.smem.len() as u64 {
            return Err(DeviceError::new(FaultKind::OutOfBounds {
                space: MemSpace::Shared,
                addr,
                width: 4,
                limit: self.smem.len() as u64,
                redzone: false,
            }));
        }
        Ok(())
    }

    fn smem_load_u32(&self, addr: u64) -> DeviceResult<u32> {
        self.smem_check(addr)?;
        let a = addr as usize;
        Ok(u32::from_le_bytes(
            self.smem[a..a + 4].try_into().expect("4-byte slice"),
        ))
    }

    fn smem_store_u32(&mut self, addr: u64, v: u32) -> DeviceResult<()> {
        self.smem_check(addr)?;
        let a = addr as usize;
        self.smem[a..a + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }
}

/// Description of the memory traffic of one executed warp instruction, for
/// the timed engine's coalescer/bank models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemTrace {
    /// Space accessed.
    pub space: MemSpace,
    /// `true` for a load (creates a register dependency), `false` for a store.
    pub is_load: bool,
    /// Access width.
    pub width: AccessWidth,
    /// Per-lane byte addresses (`None` = lane inactive), 32 entries.
    pub addrs: Vec<Option<u64>>,
}

/// The block-local thread indices selected by an active-lane mask — the
/// zero-allocation replacement for collecting lanes into a `Vec` on every
/// executed instruction (the functional hot loop's biggest malloc source).
#[inline]
fn active_lanes(mask: u32, warp: usize, n_threads: usize) -> impl Iterator<Item = usize> {
    (0..WARP)
        .filter(move |l| mask & (1 << l) != 0)
        .map(move |l| warp * WARP + l)
        .filter(move |t| *t < n_threads)
}

/// Execute one instruction for a warp.
///
/// `warp` is the warp index within the block, `mask` the active-lane mask,
/// `clock_value` what a `Clock` instruction should read. With `want_trace`
/// set, returns the memory trace if the instruction touched memory (the
/// timed engine feeds it to the coalescer/bank models); the functional
/// executor passes `false` and skips the per-lane address bookkeeping
/// entirely. A memory fault carries the exact (block, thread, instruction)
/// coordinates of the offending lane.
///
/// Generic over [`DeviceMem`] so the same semantics run against the real
/// [`crate::mem::GlobalMemory`] (sequential path) and against per-block
/// [`crate::mem::BlockShard`] write-views (parallel path).
///
/// `plan` is the fault-injection hook: when set, the effective address of a
/// matching (block, thread, instruction) access is mutated before the access
/// is performed (test harness only — production paths pass `None`).
#[allow(clippy::too_many_arguments)]
pub fn exec_instr<M: DeviceMem>(
    i: &Instr,
    ctx: &mut BlockCtx,
    warp: usize,
    mask: u32,
    env: &LaunchEnv,
    gmem: &mut M,
    clock_value: u64,
    plan: Option<&FaultPlan>,
    want_trace: bool,
) -> DeviceResult<Option<MemTrace>> {
    let opv = |ctx: &BlockCtx, t: usize, o: &Operand| -> u32 {
        match o {
            Operand::R(r) => ctx.reg(t, *r),
            Operand::ImmU(v) => *v,
            Operand::ImmF(f) => f.to_bits(),
        }
    };
    match i {
        Instr::Mov { dst, src } => {
            for t in active_lanes(mask, warp, ctx.n_threads) {
                let v = opv(ctx, t, src);
                ctx.set_reg(t, *dst, v);
            }
            Ok(None)
        }
        Instr::Special { dst, sr } => {
            for t in active_lanes(mask, warp, ctx.n_threads) {
                let v = match sr {
                    SpecialReg::TidX => t as u32,
                    SpecialReg::CtaidX => ctx.block_id,
                    SpecialReg::NtidX => env.block_dim,
                    SpecialReg::NctaidX => env.grid_dim,
                };
                ctx.set_reg(t, *dst, v);
            }
            Ok(None)
        }
        Instr::Alu { op, dst, a, b } => {
            for t in active_lanes(mask, warp, ctx.n_threads) {
                let x = opv(ctx, t, a);
                let y = opv(ctx, t, b);
                let v = alu(*op, x, y);
                ctx.set_reg(t, *dst, v);
            }
            Ok(None)
        }
        Instr::Mad {
            float,
            dst,
            a,
            b,
            c,
        } => {
            for t in active_lanes(mask, warp, ctx.n_threads) {
                let x = opv(ctx, t, a);
                let y = opv(ctx, t, b);
                let z = opv(ctx, t, c);
                let v = mad(*float, x, y, z);
                ctx.set_reg(t, *dst, v);
            }
            Ok(None)
        }
        Instr::Unary { op, dst, a } => {
            for t in active_lanes(mask, warp, ctx.n_threads) {
                let x = opv(ctx, t, a);
                let v = unary(*op, x);
                ctx.set_reg(t, *dst, v);
            }
            Ok(None)
        }
        Instr::Setp { dst, cmp, a, b } => {
            for t in active_lanes(mask, warp, ctx.n_threads) {
                let x = opv(ctx, t, a);
                let y = opv(ctx, t, b);
                let v = compare(*cmp, x, y);
                ctx.set_pred(t, *dst, v);
            }
            Ok(None)
        }
        Instr::Ld {
            dsts,
            space,
            base,
            offset,
        } => {
            let width = AccessWidth::from_bytes(4 * dsts.len() as u32).expect("load width");
            let n_words = dsts.len() as u64;
            let mut addrs = if want_trace {
                vec![None; WARP]
            } else {
                Vec::new()
            };
            let bid = ctx.block_id;
            for t in active_lanes(mask, warp, ctx.n_threads) {
                let mut addr = ctx.reg(t, *base).wrapping_add(*offset) as u64;
                if let Some(p) = plan {
                    addr = p.mutate(bid, t as u32, clock_value, addr);
                }
                if want_trace {
                    addrs[t % WARP] = Some(addr);
                }
                // A vector access must be naturally aligned as a whole; the
                // per-word loop below would only catch word misalignment.
                let fault_at = move |e: DeviceError| {
                    e.with_block(bid)
                        .with_thread(t as u32)
                        .with_instruction(clock_value)
                };
                if matches!(space, MemSpace::Global | MemSpace::Texture)
                    && !addr.is_multiple_of(4 * n_words)
                {
                    return Err(fault_at(DeviceError::new(FaultKind::Misaligned {
                        space: *space,
                        addr,
                        width: 4 * n_words,
                    })));
                }
                for (w, d) in dsts.iter().enumerate() {
                    let v = match space {
                        MemSpace::Global | MemSpace::Texture => {
                            gmem.load_u32(addr + 4 * w as u64).map_err(fault_at)?
                        }
                        MemSpace::Shared => {
                            ctx.smem_load_u32(addr + 4 * w as u64).map_err(fault_at)?
                        }
                    };
                    ctx.set_reg(t, *d, v);
                }
            }
            Ok(want_trace.then_some(MemTrace {
                space: *space,
                is_load: true,
                width,
                addrs,
            }))
        }
        Instr::St {
            srcs,
            space,
            base,
            offset,
        } => {
            let width = AccessWidth::from_bytes(4 * srcs.len() as u32).expect("store width");
            let n_words = srcs.len() as u64;
            let mut addrs = if want_trace {
                vec![None; WARP]
            } else {
                Vec::new()
            };
            let bid = ctx.block_id;
            for t in active_lanes(mask, warp, ctx.n_threads) {
                let mut addr = ctx.reg(t, *base).wrapping_add(*offset) as u64;
                if let Some(p) = plan {
                    addr = p.mutate(bid, t as u32, clock_value, addr);
                }
                if want_trace {
                    addrs[t % WARP] = Some(addr);
                }
                let fault_at = move |e: DeviceError| {
                    e.with_block(bid)
                        .with_thread(t as u32)
                        .with_instruction(clock_value)
                };
                if *space == MemSpace::Global && !addr.is_multiple_of(4 * n_words) {
                    return Err(fault_at(DeviceError::new(FaultKind::Misaligned {
                        space: *space,
                        addr,
                        width: 4 * n_words,
                    })));
                }
                for (w, s) in srcs.iter().enumerate() {
                    let v = opv(ctx, t, s);
                    match space {
                        MemSpace::Global => {
                            gmem.store_u32(addr + 4 * w as u64, v).map_err(fault_at)?
                        }
                        MemSpace::Shared => ctx
                            .smem_store_u32(addr + 4 * w as u64, v)
                            .map_err(fault_at)?,
                        MemSpace::Texture => {
                            return Err(fault_at(DeviceError::new(FaultKind::ReadOnlyWrite {
                                space: MemSpace::Texture,
                                addr,
                            })));
                        }
                    }
                }
            }
            Ok(want_trace.then_some(MemTrace {
                space: *space,
                is_load: false,
                width,
                addrs,
            }))
        }
        Instr::Clock { dst } => {
            for t in active_lanes(mask, warp, ctx.n_threads) {
                ctx.set_reg(t, *dst, clock_value as u32);
            }
            Ok(None)
        }
    }
}

// ---------------------------------------------------------------------------
// Warp cursor over the lowered program
// ---------------------------------------------------------------------------

/// One stack frame of a warp's position in the program arena.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// Sequence index in the arena.
    pub seq: usize,
    /// Next statement index within the sequence.
    pub idx: usize,
    /// Active-lane mask for this frame.
    pub mask: u32,
    /// For a divergent-loop body frame: the continuation predicate tested at
    /// the bottom of each pass.
    pub while_of: Option<(Pred, bool)>,
}

/// A warp's resumable position in a lowered program.
#[derive(Debug, Clone)]
pub struct Cursor {
    frames: Vec<Frame>,
}

/// What [`Cursor::fetch`] yields.
#[derive(Debug)]
pub enum FetchItem<'a> {
    /// A lowered statement to handle under the given mask.
    Stmt(&'a LinStmt, u32),
    /// The bottom of a divergent loop pass: the executor must evaluate the
    /// predicate under `mask` and call [`Cursor::while_backedge`].
    WhileBackedge {
        /// Continuation predicate.
        pred: Pred,
        /// Invert the predicate sense.
        negate: bool,
        /// The lanes that executed this pass.
        mask: u32,
    },
}

impl Cursor {
    /// Cursor at the program entry with the given initial active mask.
    pub fn new(prog: &Program, mask: u32) -> Self {
        Cursor {
            frames: vec![Frame {
                seq: prog.root,
                idx: 0,
                mask,
                while_of: None,
            }],
        }
    }

    /// `true` once the warp has retired every instruction.
    pub fn done(&self) -> bool {
        self.frames.is_empty()
    }

    /// Peek the next fetchable item, resolving control flow that needs no
    /// execution (frame pops). Branches, `IfMasked` and while back-edges need
    /// predicate values, so those are surfaced for the executor to resolve.
    pub fn fetch<'a>(&mut self, prog: &'a Program) -> Option<FetchItem<'a>> {
        loop {
            let top = self.frames.last().copied()?;
            if top.idx >= prog.seqs[top.seq].len() {
                if let Some((pred, negate)) = top.while_of {
                    return Some(FetchItem::WhileBackedge {
                        pred,
                        negate,
                        mask: top.mask,
                    });
                }
                self.frames.pop();
                continue;
            }
            return Some(FetchItem::Stmt(&prog.seqs[top.seq][top.idx], top.mask));
        }
    }

    /// Advance past a plain instruction or `Sync`.
    pub fn step(&mut self) {
        self.frames.last_mut().expect("step on finished cursor").idx += 1;
    }

    /// Resolve a branch: if `taken`, jump to `target` in the current
    /// sequence; otherwise fall through.
    pub fn branch(&mut self, taken: bool, target: usize) {
        let f = self.frames.last_mut().expect("branch on finished cursor");
        if taken {
            f.idx = target;
        } else {
            f.idx += 1;
        }
    }

    /// Enter an `IfMasked`: push the else and then frames (then executes
    /// first). Frames with empty masks are skipped.
    pub fn enter_if(&mut self, then_seq: usize, else_seq: usize, then_mask: u32, else_mask: u32) {
        self.step();
        if else_mask != 0 {
            self.frames.push(Frame {
                seq: else_seq,
                idx: 0,
                mask: else_mask,
                while_of: None,
            });
        }
        if then_mask != 0 {
            self.frames.push(Frame {
                seq: then_seq,
                idx: 0,
                mask: then_mask,
                while_of: None,
            });
        }
    }

    /// Enter a `WhileMasked` body (bottom-tested: the body runs at least once
    /// with the current mask).
    pub fn enter_while(&mut self, body_seq: usize, pred: Pred, negate: bool, mask: u32) {
        self.step();
        if mask != 0 {
            self.frames.push(Frame {
                seq: body_seq,
                idx: 0,
                mask,
                while_of: Some((pred, negate)),
            });
        }
    }

    /// Resolve a while back-edge: lanes in `continue_mask` run another pass;
    /// an empty mask exits the loop.
    pub fn while_backedge(&mut self, continue_mask: u32) {
        let f = self.frames.last_mut().expect("backedge on finished cursor");
        assert!(f.while_of.is_some(), "while_backedge outside a while frame");
        if continue_mask != 0 {
            f.mask = continue_mask;
            f.idx = 0;
        } else {
            self.frames.pop();
        }
    }
}

/// Evaluate a predicate for every active lane of a warp; returns the lane
/// mask of threads where it holds.
pub fn pred_mask(ctx: &BlockCtx, warp: usize, mask: u32, p: Pred, negate: bool) -> u32 {
    let mut out = 0u32;
    for l in 0..WARP {
        if mask & (1 << l) == 0 {
            continue;
        }
        let t = warp * WARP + l;
        if t >= ctx.n_threads {
            continue;
        }
        if ctx.pred(t, p) != negate {
            out |= 1 << l;
        }
    }
    out
}

/// Mask of lanes of `warp` that map to real threads of the block.
pub fn live_lane_mask(n_threads: usize, warp: usize) -> u32 {
    let mut m = 0u32;
    for l in 0..WARP {
        if warp * WARP + l < n_threads {
            m |= 1 << l;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower::lower;
    use crate::ir::{AluOp, KernelBuilder};
    use crate::mem::GlobalMemory;

    fn env() -> LaunchEnv {
        LaunchEnv {
            block_dim: 32,
            grid_dim: 1,
        }
    }

    #[test]
    fn params_are_bound_to_leading_registers() {
        let mut b = KernelBuilder::new("p");
        let p0 = b.param();
        let _p1 = b.param();
        let _ = b.iadd(p0.into(), Operand::ImmU(1));
        let prog = lower(&b.finish());
        let ctx = BlockCtx::new(&prog, 0, 32, &[11, 22]).unwrap();
        assert_eq!(ctx.reg(0, Reg(0)), 11);
        assert_eq!(ctx.reg(31, Reg(1)), 22);
    }

    #[test]
    fn alu_semantics_float_and_int() {
        assert_eq!(
            f32::from_bits(alu(AluOp::FAdd, 1.5f32.to_bits(), 2.5f32.to_bits())),
            4.0
        );
        assert_eq!(alu(AluOp::IAdd, u32::MAX, 1), 0);
        assert_eq!(alu(AluOp::IShl, 1, 4), 16);
        assert_eq!(
            f32::from_bits(alu(AluOp::FMax, (-1.0f32).to_bits(), 2.0f32.to_bits())),
            2.0
        );
    }

    #[test]
    fn exec_mov_respects_mask() {
        let mut b = KernelBuilder::new("m");
        let r = b.reg();
        b.emit(Instr::Mov {
            dst: r,
            src: Operand::ImmU(7),
        });
        let k = b.finish();
        let prog = lower(&k);
        let mut ctx = BlockCtx::new(&prog, 0, 32, &[]).unwrap();
        let mut gmem = GlobalMemory::new(64);
        // Only lanes 0 and 3 active.
        exec_instr(
            &Instr::Mov {
                dst: r,
                src: Operand::ImmU(7),
            },
            &mut ctx,
            0,
            0b1001,
            &env(),
            &mut gmem,
            0,
            None,
            true,
        )
        .unwrap();
        assert_eq!(ctx.reg(0, r), 7);
        assert_eq!(ctx.reg(1, r), 0);
        assert_eq!(ctx.reg(3, r), 7);
    }

    #[test]
    fn special_regs_reflect_thread_identity() {
        let mut b = KernelBuilder::new("s");
        let t = b.special(SpecialReg::TidX);
        let k = b.finish();
        let prog = lower(&k);
        let mut ctx = BlockCtx::new(&prog, 5, 64, &[]).unwrap();
        let mut gmem = GlobalMemory::new(64);
        let e = LaunchEnv {
            block_dim: 64,
            grid_dim: 9,
        };
        exec_instr(
            &Instr::Special {
                dst: t,
                sr: SpecialReg::TidX,
            },
            &mut ctx,
            1,
            u32::MAX,
            &e,
            &mut gmem,
            0,
            None,
            true,
        )
        .unwrap();
        assert_eq!(ctx.reg(32, t), 32);
        assert_eq!(ctx.reg(63, t), 63);
        exec_instr(
            &Instr::Special {
                dst: t,
                sr: SpecialReg::CtaidX,
            },
            &mut ctx,
            0,
            u32::MAX,
            &e,
            &mut gmem,
            0,
            None,
            true,
        )
        .unwrap();
        assert_eq!(ctx.reg(0, t), 5);
    }

    #[test]
    fn global_load_produces_mem_trace() {
        let mut b = KernelBuilder::new("ld");
        let base = b.param();
        let _v = b.ld(MemSpace::Global, base, 0, 1);
        let k = b.finish();
        let prog = lower(&k);
        let mut gmem = GlobalMemory::new(1024);
        let ptr = gmem.alloc_f32(&[1.0; 64]).unwrap();
        let mut ctx = BlockCtx::new(&prog, 0, 32, &[ptr.0 as u32]).unwrap();
        // Give each lane a distinct address: addr = base + 4*t via a mad.
        // Simpler: directly execute a load with base reg holding per-thread
        // addresses.
        let r = Reg(0);
        for t in 0..32 {
            let a = ptr.0 as u32 + 4 * t as u32;
            ctx.set_reg(t, r, a);
        }
        let tr = exec_instr(
            &Instr::Ld {
                dsts: vec![Reg(1)],
                space: MemSpace::Global,
                base: r,
                offset: 0,
            },
            &mut ctx,
            0,
            u32::MAX,
            &env(),
            &mut gmem,
            0,
            None,
            true,
        )
        .unwrap()
        .unwrap();
        assert!(tr.is_load);
        assert_eq!(tr.addrs.iter().flatten().count(), 32);
        assert_eq!(f32::from_bits(ctx.reg(7, Reg(1))), 1.0);
    }

    #[test]
    fn shared_roundtrip_within_block() {
        let mut b = KernelBuilder::new("sm");
        b.shared_mem(256);
        let r = b.mov(Operand::ImmU(16));
        let v = b.mov(Operand::ImmF(3.5));
        b.st(MemSpace::Shared, r, 0, vec![v.into()]);
        let _w = b.ld(MemSpace::Shared, r, 0, 1);
        let k = b.finish();
        let prog = lower(&k);
        let mut ctx = BlockCtx::new(&prog, 0, 1, &[]).unwrap();
        let mut gmem = GlobalMemory::new(64);
        for s in &prog.seqs[prog.root] {
            if let LinStmt::I(i) = s {
                exec_instr(i, &mut ctx, 0, 1, &env(), &mut gmem, 0, None, false).unwrap();
            }
        }
        // The load's destination is the last register.
        let last = Reg(k.n_regs - 1);
        assert_eq!(f32::from_bits(ctx.reg(0, last)), 3.5);
    }

    #[test]
    fn cursor_walks_pops_and_branches() {
        let mut b = KernelBuilder::new("c");
        b.for_loop(Operand::ImmU(0), Operand::ImmU(2), 1, |b, _| {
            b.mov(Operand::ImmU(1));
        });
        let prog = lower(&b.finish());
        let mut cur = Cursor::new(&prog, u32::MAX);
        let mut executed = 0;
        let mut ctx = BlockCtx::new(&prog, 0, 32, &[]).unwrap();
        let mut gmem = GlobalMemory::new(64);
        while let Some(item) = cur.fetch(&prog) {
            let FetchItem::Stmt(stmt, mask) = item else {
                unreachable!("no while loops here")
            };
            match stmt {
                LinStmt::I(i) => {
                    exec_instr(i, &mut ctx, 0, mask, &env(), &mut gmem, 0, None, false).unwrap();
                    executed += 1;
                    cur.step();
                }
                LinStmt::Bra {
                    pred,
                    negate,
                    target,
                } => {
                    let m = pred_mask(&ctx, 0, mask, *pred, *negate);
                    assert!(m == 0 || m == mask, "non-uniform loop branch");
                    cur.branch(m == mask, *target);
                }
                LinStmt::IfMasked { .. } | LinStmt::WhileMasked { .. } | LinStmt::Sync => {
                    unreachable!()
                }
            }
        }
        // mov init + 2 × (body mov + add + setp) = 7 executed instructions.
        assert_eq!(executed, 7);
        assert!(cur.done());
    }

    #[test]
    fn live_lane_masks() {
        assert_eq!(live_lane_mask(32, 0), u32::MAX);
        assert_eq!(live_lane_mask(40, 1), 0xFF);
        assert_eq!(live_lane_mask(40, 2), 0);
    }
}
