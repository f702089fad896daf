//! Shared machine state and instruction semantics.
//!
//! A `Block` is one thread block running a `Tape`: a warp-major register
//! file (one `[u32; 32]` row per warp and register, so an instruction reads
//! and writes whole rows), predicates as per-warp lane masks, shared memory,
//! and each warp's position on the tape with its stack of lane masks.
//!
//! `Block::exec` gives every instruction its meaning for all 32 lanes of a
//! warp: the op is matched once, then a lane loop over fixed arrays computes
//! every lane and, under a partial mask, blends the result into the row.
//! The control methods (`branch`, `enter_if`, `enter_while`, `while_back`,
//! `advance`) move
//! a warp along the tape. Both the functional and the timed executor call
//! these, so values, addresses and side effects are identical in both modes
//! by construction; each engine does its own accounting around them.

use super::tape::{Inst, Op, Row, Tape};
use crate::coalesce::AccessWidth;
use crate::fault::{DeviceError, DeviceResult, FaultKind, FaultPlan};
use crate::ir::{alu, compare, mad, unary, AluOp, CmpOp, MemSpace, SpecialReg, UnaryOp};
use crate::mem::DeviceMem;

/// Warp width — fixed at 32 for every CUDA device.
pub const WARP: usize = 32;

/// One register row: a value per lane.
pub(crate) type Lanes = [u32; WARP];

/// Launch-wide environment visible to special registers.
#[derive(Debug, Clone, Copy)]
pub struct LaunchEnv {
    /// `blockDim.x`
    pub block_dim: u32,
    /// `gridDim.x`
    pub grid_dim: u32,
}

/// The effective byte address of every active lane of one memory access,
/// for the timed engine's coalescer and bank models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct LaneAddrs {
    /// Per-lane addresses; only lanes in `mask` are meaningful.
    pub addrs: [u64; WARP],
    /// The lanes that accessed memory.
    pub mask: u32,
}

impl LaneAddrs {
    /// The addresses offset by `delta`, with `None` for inactive lanes — the
    /// shape [`crate::coalesce`] and [`crate::banks`] take.
    pub fn lanes(&self, delta: u64) -> [Option<u64>; WARP] {
        std::array::from_fn(|l| (self.mask >> l & 1 != 0).then(|| self.addrs[l] + delta))
    }

    /// Active addresses in lane order.
    pub fn active(&self) -> impl Iterator<Item = u64> + '_ {
        lanes_of(self.mask).map(|l| self.addrs[l])
    }
}

/// The set lanes of `mask`, ascending.
#[inline]
fn lanes_of(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let l = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            l
        })
    })
}

/// Mask of lanes of `warp` that map to real threads of the block.
pub fn live_lane_mask(n_threads: usize, warp: usize) -> u32 {
    match n_threads.saturating_sub(warp * WARP) {
        0 => 0,
        n if n >= WARP => u32::MAX,
        n => (1u32 << n) - 1,
    }
}

/// Where one warp is on the tape.
#[derive(Debug, Clone, Copy)]
struct WarpPos {
    pc: u32,
    /// Active lanes.
    mask: u32,
    /// Mask-stack height.
    sp: usize,
}

/// One entry of a warp's mask stack, pushed by `If` and `While`.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    /// The mask to restore when the region ends.
    parent: u32,
    /// The else-arm lanes still to run (an `If` in its then-arm only).
    pending: u32,
}

#[inline(always)]
fn map1(a: &Lanes, f: impl Fn(u32) -> u32) -> Lanes {
    let mut out = [0; WARP];
    for l in 0..WARP {
        out[l] = f(a[l]);
    }
    out
}

#[inline(always)]
fn map2(a: &Lanes, b: &Lanes, f: impl Fn(u32, u32) -> u32) -> Lanes {
    let mut out = [0; WARP];
    for l in 0..WARP {
        out[l] = f(a[l], b[l]);
    }
    out
}

#[inline(always)]
fn map3(a: &Lanes, b: &Lanes, c: &Lanes, f: impl Fn(u32, u32, u32) -> u32) -> Lanes {
    let mut out = [0; WARP];
    for l in 0..WARP {
        out[l] = f(a[l], b[l], c[l]);
    }
    out
}

#[inline(always)]
fn bits2(a: &Lanes, b: &Lanes, f: impl Fn(u32, u32) -> bool) -> u32 {
    let mut out = 0;
    for l in 0..WARP {
        out |= (f(a[l], b[l]) as u32) << l;
    }
    out
}

/// [`alu`] on every lane, with the op matched once outside the lane loop.
fn alu_lanes(op: AluOp, a: &Lanes, b: &Lanes) -> Lanes {
    macro_rules! each {
        ($($op:ident),*) => {
            match op {
                $(AluOp::$op => map2(a, b, |x, y| alu(AluOp::$op, x, y)),)*
            }
        };
    }
    each!(FAdd, FSub, FMul, FMin, FMax, IAdd, ISub, IMul, IShl, IAnd, IMin)
}

/// [`unary`] on every lane.
fn unary_lanes(op: UnaryOp, a: &Lanes) -> Lanes {
    macro_rules! each {
        ($($op:ident),*) => {
            match op {
                $(UnaryOp::$op => map1(a, |x| unary(UnaryOp::$op, x)),)*
            }
        };
    }
    each!(FRsqrt, FNeg, U2F, F2U)
}

/// [`compare`] on every lane, as a lane mask.
fn compare_lanes(cmp: CmpOp, a: &Lanes, b: &Lanes) -> u32 {
    macro_rules! each {
        ($($op:ident),*) => {
            match cmp {
                $(CmpOp::$op => bits2(a, b, |x, y| compare(CmpOp::$op, x, y)),)*
            }
        };
    }
    each!(ULt, UGe, UEq, UNe, FLt)
}

/// Mutable state of one thread block running a tape.
#[derive(Debug)]
pub(crate) struct Block<'t> {
    tape: &'t Tape,
    /// `blockIdx.x`
    pub block_id: u32,
    /// Register-file rows per warp.
    rows: usize,
    /// Register file, warp-major: `regs[warp * rows + row]`.
    regs: Vec<Lanes>,
    /// Predicate file as lane masks: `preds[warp * n_preds + pred]`.
    preds: Vec<u32>,
    /// Shared memory words.
    smem: Vec<u32>,
    warps: Vec<WarpPos>,
    /// Mask stacks: `frames[warp * depth + level]`.
    frames: Vec<Frame>,
}

impl<'t> Block<'t> {
    /// Block state with parameters bound to the first registers and
    /// immediates splatted into their rows (as the lowered ABI requires),
    /// every warp at the tape's start under its live-lane mask. A
    /// parameter-count mismatch is a [`FaultKind::BadLaunch`].
    pub fn new(
        tape: &'t Tape,
        block_id: u32,
        n_threads: usize,
        params: &[u32],
    ) -> DeviceResult<Self> {
        if params.len() != tape.n_params as usize {
            return Err(DeviceError::new(FaultKind::BadLaunch {
                reason: format!(
                    "kernel expects {} parameters, launch passed {}",
                    tape.n_params,
                    params.len()
                ),
            })
            .with_block(block_id));
        }
        let n_warps = n_threads.div_ceil(WARP);
        let rows = tape.rows();
        let mut regs = vec![[0u32; WARP]; n_warps * rows];
        for warp_rows in regs.chunks_exact_mut(rows.max(1)) {
            for (row, &v) in warp_rows.iter_mut().zip(params) {
                *row = [v; WARP];
            }
            let consts = &mut warp_rows[tape.n_regs as usize..];
            for (row, &v) in consts.iter_mut().zip(&tape.consts) {
                *row = [v; WARP];
            }
        }
        let mut block = Block {
            tape,
            block_id,
            rows,
            regs,
            preds: vec![0; n_warps * tape.n_preds as usize],
            smem: vec![0; tape.smem_bytes as usize / 4],
            warps: (0..n_warps)
                .map(|w| WarpPos {
                    pc: 0,
                    mask: live_lane_mask(n_threads, w),
                    sp: 0,
                })
                .collect(),
            frames: vec![Frame::default(); n_warps * tape.depth],
        };
        for w in 0..n_warps {
            block.settle(w);
        }
        Ok(block)
    }

    /// Warps in the block.
    pub fn n_warps(&self) -> usize {
        self.warps.len()
    }

    /// The op warp `w` runs next: an instruction, a control op or
    /// [`Op::Exit`] (never `ThenEnd`/`IfEnd`, which the control methods
    /// resolve as they move the warp).
    #[inline]
    pub fn op(&self, w: usize) -> &'t Op {
        &self.tape.ops[self.warps[w].pc as usize]
    }

    /// Tape index of warp `w`'s next op.
    #[inline]
    pub fn pc(&self, w: usize) -> usize {
        self.warps[w].pc as usize
    }

    /// `true` once warp `w` has reached the end of the kernel.
    #[inline]
    pub fn done(&self, w: usize) -> bool {
        matches!(self.op(w), Op::Exit)
    }

    /// Warp `w`'s active-lane mask.
    #[inline]
    pub fn mask(&self, w: usize) -> u32 {
        self.warps[w].mask
    }

    /// Active lanes of warp `w` where predicate `p` (xor `negate`) holds.
    #[inline]
    pub fn pred_mask(&self, w: usize, p: u16, negate: bool) -> u32 {
        let bits = self.preds[w * self.tape.n_preds as usize + p as usize];
        (if negate { !bits } else { bits }) & self.warps[w].mask
    }

    #[cfg(test)]
    fn reg(&self, w: usize, lane: usize, r: Row) -> u32 {
        self.regs[w * self.rows + r as usize][lane]
    }

    #[inline(always)]
    fn row(&self, w: usize, r: Row) -> &Lanes {
        &self.regs[w * self.rows + r as usize]
    }

    /// Write `v` into register `dst` of warp `w` on the lanes of `mask`.
    #[inline(always)]
    fn put(&mut self, w: usize, dst: Row, mask: u32, v: &Lanes) {
        let row = &mut self.regs[w * self.rows + dst as usize];
        if mask == u32::MAX {
            *row = *v;
        } else {
            for l in 0..WARP {
                row[l] = if mask >> l & 1 != 0 { v[l] } else { row[l] };
            }
        }
    }

    /// Resolve `ThenEnd`/`IfEnd` ops at warp `w`'s position: they cost
    /// nothing and retire nothing, they only pick the next mask.
    fn settle(&mut self, w: usize) {
        loop {
            let pos = &mut self.warps[w];
            match self.tape.ops[pos.pc as usize] {
                Op::ThenEnd { end_pc } => {
                    let f = &mut self.frames[w * self.tape.depth + pos.sp - 1];
                    if f.pending != 0 {
                        pos.mask = f.pending;
                        f.pending = 0;
                        pos.pc += 1;
                    } else {
                        pos.mask = f.parent;
                        pos.sp -= 1;
                        pos.pc = end_pc;
                    }
                }
                Op::IfEnd => {
                    pos.sp -= 1;
                    pos.mask = self.frames[w * self.tape.depth + pos.sp].parent;
                    pos.pc += 1;
                }
                _ => return,
            }
        }
    }

    fn push_frame(&mut self, w: usize, pending: u32) {
        let pos = &mut self.warps[w];
        self.frames[w * self.tape.depth + pos.sp] = Frame {
            parent: pos.mask,
            pending,
        };
        pos.sp += 1;
    }

    /// Move warp `w` to the next op (past an instruction or a released
    /// barrier).
    #[inline]
    pub fn advance(&mut self, w: usize) {
        self.warps[w].pc += 1;
        self.settle(w);
    }

    /// Resolve a uniform branch: to `target` if `taken`, else fall through.
    pub fn branch(&mut self, w: usize, taken: bool, target: u32) {
        if taken {
            self.warps[w].pc = target;
            self.settle(w);
        } else {
            self.advance(w);
        }
    }

    /// Enter an `If`: the then-arm runs first under the lanes where the
    /// predicate holds, then the else-arm under the rest; an empty arm is
    /// skipped.
    pub fn enter_if(&mut self, w: usize, pred: u16, negate: bool, else_pc: u32) {
        let then_mask = self.pred_mask(w, pred, negate);
        let else_mask = self.warps[w].mask & !then_mask;
        if then_mask != 0 {
            self.push_frame(w, else_mask);
            let pos = &mut self.warps[w];
            pos.mask = then_mask;
            pos.pc += 1;
        } else {
            self.push_frame(w, 0);
            let pos = &mut self.warps[w];
            pos.mask = else_mask;
            pos.pc = else_pc;
        }
        self.settle(w);
    }

    /// Enter a `While` body (bottom-tested: it runs at least once under the
    /// current mask).
    pub fn enter_while(&mut self, w: usize) {
        self.push_frame(w, 0);
        self.advance(w);
    }

    /// Resolve a `While` back-edge: lanes whose predicate still holds run
    /// another pass from `body`; with none left the loop exits.
    pub fn while_back(&mut self, w: usize, pred: u16, negate: bool, body: u32) {
        let cont = self.pred_mask(w, pred, negate);
        let pos = &mut self.warps[w];
        if cont != 0 {
            pos.mask = cont;
            pos.pc = body;
        } else {
            pos.sp -= 1;
            pos.mask = self.frames[w * self.tape.depth + pos.sp].parent;
            pos.pc += 1;
        }
        self.settle(w);
    }

    /// Execute instruction `i` for warp `w` under its active mask and move
    /// the warp past it.
    ///
    /// `clock` is what a `Clock` instruction reads and the instruction
    /// coordinate of a fault. With `addrs` set, a memory access records its
    /// per-lane effective addresses there (the timed engine feeds them to
    /// the coalescer/bank models). A memory fault carries the exact (block,
    /// thread, instruction) coordinates of the offending lane; lanes are
    /// served in ascending order, so a faulting store leaves the side
    /// effects of every lane and word before it.
    ///
    /// Generic over [`DeviceMem`] so the same semantics run against the real
    /// [`crate::mem::GlobalMemory`] (sequential path) and against per-block
    /// [`crate::mem::BlockShard`] write-views (parallel path).
    ///
    /// `plan` is the fault-injection hook: when set, the effective address of
    /// a matching (block, thread, instruction) access is mutated before the
    /// access is performed (test harness only — production paths pass
    /// `None`).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn exec<M: DeviceMem>(
        &mut self,
        w: usize,
        i: &Inst,
        env: &LaunchEnv,
        gmem: &mut M,
        clock: u64,
        plan: Option<&FaultPlan>,
        addrs: Option<&mut LaneAddrs>,
    ) -> DeviceResult<()> {
        let mask = self.warps[w].mask;
        match *i {
            Inst::Mov { dst, src } => {
                let v = *self.row(w, src);
                self.put(w, dst, mask, &v);
            }
            Inst::Special { dst, sr } => {
                let v = match sr {
                    SpecialReg::TidX => std::array::from_fn(|l| (w * WARP + l) as u32),
                    SpecialReg::CtaidX => [self.block_id; WARP],
                    SpecialReg::NtidX => [env.block_dim; WARP],
                    SpecialReg::NctaidX => [env.grid_dim; WARP],
                };
                self.put(w, dst, mask, &v);
            }
            Inst::Alu { op, dst, a, b } => {
                let v = alu_lanes(op, self.row(w, a), self.row(w, b));
                self.put(w, dst, mask, &v);
            }
            Inst::Mad {
                float,
                dst,
                a,
                b,
                c,
            } => {
                let (a, b, c) = (self.row(w, a), self.row(w, b), self.row(w, c));
                let v = if float {
                    map3(a, b, c, |x, y, z| mad(true, x, y, z))
                } else {
                    map3(a, b, c, |x, y, z| mad(false, x, y, z))
                };
                self.put(w, dst, mask, &v);
            }
            Inst::Unary { op, dst, a } => {
                let v = unary_lanes(op, self.row(w, a));
                self.put(w, dst, mask, &v);
            }
            Inst::Setp { cmp, dst, a, b } => {
                let bits = compare_lanes(cmp, self.row(w, a), self.row(w, b));
                let p = &mut self.preds[w * self.tape.n_preds as usize + dst as usize];
                *p = (*p & !mask) | (bits & mask);
            }
            Inst::Ld {
                space,
                width,
                dsts,
                base,
                offset,
            } => {
                let at = self.addresses(w, base, offset, clock, plan);
                if let Some(out) = addrs {
                    *out = at;
                }
                self.load(w, space, width, &dsts, &at, gmem, clock)?;
            }
            Inst::St {
                space,
                width,
                srcs,
                base,
                offset,
            } => {
                let at = self.addresses(w, base, offset, clock, plan);
                if let Some(out) = addrs {
                    *out = at;
                }
                self.store(w, space, width, &srcs, &at, gmem, clock)?;
            }
            Inst::Clock { dst } => self.put(w, dst, mask, &[clock as u32; WARP]),
        }
        self.advance(w);
        Ok(())
    }

    /// Effective address of every active lane: `base + offset` as a 32-bit
    /// sum, then the fault plan's mutation if one matches.
    fn addresses(
        &self,
        w: usize,
        base: Row,
        offset: u32,
        clock: u64,
        plan: Option<&FaultPlan>,
    ) -> LaneAddrs {
        let row = self.row(w, base);
        let mut at = LaneAddrs {
            addrs: std::array::from_fn(|l| row[l].wrapping_add(offset) as u64),
            mask: self.warps[w].mask,
        };
        if let Some(p) = plan {
            for l in lanes_of(at.mask) {
                at.addrs[l] = p.mutate(self.block_id, (w * WARP + l) as u32, clock, at.addrs[l]);
            }
        }
        at
    }

    /// Attach the coordinates of lane `l` of warp `w` to a fault.
    fn fault_at(&self, w: usize, l: usize, clock: u64, e: DeviceError) -> DeviceError {
        e.with_block(self.block_id)
            .with_thread((w * WARP + l) as u32)
            .with_instruction(clock)
    }

    /// Read one word of shared memory. Shared memory is zero-initialized
    /// (no poison tracking): the sanitizer checks alignment and bounds only.
    fn smem_load(&self, addr: u64) -> DeviceResult<u32> {
        Ok(self.smem[self.smem_word(addr)?])
    }

    fn smem_word(&self, addr: u64) -> DeviceResult<usize> {
        if !addr.is_multiple_of(4) {
            return Err(DeviceError::new(FaultKind::Misaligned {
                space: MemSpace::Shared,
                addr,
                width: 4,
            }));
        }
        let limit = self.tape.smem_bytes as u64;
        if addr + 4 > limit {
            return Err(DeviceError::new(FaultKind::OutOfBounds {
                space: MemSpace::Shared,
                addr,
                width: 4,
                limit,
                redzone: false,
            }));
        }
        Ok((addr / 4) as usize)
    }

    /// Load `width` bytes per active lane. A broadcast (every active lane at
    /// one address) is served once and splatted; whichever lane would fault
    /// first is the first active lane either way.
    #[allow(clippy::too_many_arguments)]
    fn load<M: DeviceMem>(
        &mut self,
        w: usize,
        space: MemSpace,
        width: AccessWidth,
        dsts: &[Row; 4],
        at: &LaneAddrs,
        gmem: &M,
        clock: u64,
    ) -> DeviceResult<()> {
        let words = width.words();
        let first = at.mask.trailing_zeros() as usize;
        let a0 = at.addrs[first % WARP];
        let broadcast = (0..WARP).all(|l| at.mask >> l & 1 == 0 || at.addrs[l] == a0);
        let mut vals = [[0u32; WARP]; 4];
        for l in lanes_of(at.mask) {
            let addr = at.addrs[l];
            // A vector access must be naturally aligned as a whole; the
            // per-word checks would only catch word misalignment.
            if space != MemSpace::Shared && !addr.is_multiple_of(width.bytes()) {
                return Err(self.fault_at(
                    w,
                    l,
                    clock,
                    DeviceError::new(FaultKind::Misaligned {
                        space,
                        addr,
                        width: width.bytes(),
                    }),
                ));
            }
            for (k, val) in vals.iter_mut().enumerate().take(words) {
                let a = addr + 4 * k as u64;
                let word = match space {
                    MemSpace::Global | MemSpace::Texture => gmem.load_u32(a),
                    MemSpace::Shared => self.smem_load(a),
                };
                val[l] = word.map_err(|e| self.fault_at(w, l, clock, e))?;
            }
            if broadcast {
                for val in vals.iter_mut().take(words) {
                    *val = [val[l]; WARP];
                }
                break;
            }
        }
        for (k, val) in vals.iter().enumerate().take(words) {
            self.put(w, dsts[k], at.mask, val);
        }
        Ok(())
    }

    /// Store `width` bytes per active lane, lane by lane.
    #[allow(clippy::too_many_arguments)]
    fn store<M: DeviceMem>(
        &mut self,
        w: usize,
        space: MemSpace,
        width: AccessWidth,
        srcs: &[Row; 4],
        at: &LaneAddrs,
        gmem: &mut M,
        clock: u64,
    ) -> DeviceResult<()> {
        let words = width.words();
        for l in lanes_of(at.mask) {
            let addr = at.addrs[l];
            if space == MemSpace::Global && !addr.is_multiple_of(width.bytes()) {
                return Err(self.fault_at(
                    w,
                    l,
                    clock,
                    DeviceError::new(FaultKind::Misaligned {
                        space,
                        addr,
                        width: width.bytes(),
                    }),
                ));
            }
            for (k, &src) in srcs.iter().enumerate().take(words) {
                let v = self.row(w, src)[l];
                let a = addr + 4 * k as u64;
                let stored = match space {
                    MemSpace::Global => gmem.store_u32(a, v),
                    MemSpace::Shared => self.smem_word(a).map(|i| self.smem[i] = v),
                    MemSpace::Texture => Err(DeviceError::new(FaultKind::ReadOnlyWrite {
                        space: MemSpace::Texture,
                        addr,
                    })),
                };
                stored.map_err(|e| self.fault_at(w, l, clock, e))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower::lower;
    use crate::ir::{Instr, KernelBuilder, Operand, Reg};
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
        let blk = Block::new(prog.tape().unwrap(), 0, 32, &[11, 22]).unwrap();
        assert_eq!(blk.reg(0, 0, 0), 11);
        assert_eq!(blk.reg(0, 31, 1), 22);
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

    /// Run warp 0 of a one-block launch to the end of the tape, executing
    /// straight-line instructions under `mask`.
    fn run_straight(b: KernelBuilder, n_threads: usize, mask: u32) -> (Block<'static>, Reg) {
        let k = b.finish();
        let last = Reg(k.n_regs - 1);
        let prog = Box::leak(Box::new(lower(&k)));
        let mut blk = Block::new(prog.tape().unwrap(), 5, n_threads, &[]).unwrap();
        blk.warps[0].mask = mask;
        let mut gmem = GlobalMemory::new(64);
        while let Op::Inst(i) = blk.op(0) {
            blk.exec(0, i, &env(), &mut gmem, 0, None, None).unwrap();
        }
        (blk, last)
    }

    #[test]
    fn exec_mov_respects_mask() {
        let mut b = KernelBuilder::new("m");
        let r = b.reg();
        b.emit(Instr::Mov {
            dst: r,
            src: Operand::ImmU(7),
        });
        // Only lanes 0 and 3 active.
        let (blk, r) = run_straight(b, 32, 0b1001);
        assert_eq!(blk.reg(0, 0, r.0), 7);
        assert_eq!(blk.reg(0, 1, r.0), 0);
        assert_eq!(blk.reg(0, 3, r.0), 7);
    }

    #[test]
    fn special_regs_reflect_thread_identity() {
        let mut b = KernelBuilder::new("s");
        b.special(SpecialReg::TidX);
        let (blk, t) = run_straight(b, 64, u32::MAX);
        assert_eq!(blk.reg(0, 7, t.0), 7);
        let mut b = KernelBuilder::new("s");
        b.special(SpecialReg::CtaidX);
        let (blk, t) = run_straight(b, 64, u32::MAX);
        assert_eq!(blk.reg(0, 0, t.0), 5);
    }

    #[test]
    fn global_load_records_lane_addresses() {
        let mut b = KernelBuilder::new("ld");
        let base = b.param();
        let tid = b.special(SpecialReg::TidX);
        let a = b.mad_u(tid.into(), Operand::ImmU(4), base.into());
        let v = b.ld(MemSpace::Global, a, 0, 1)[0];
        let prog = lower(&b.finish());
        let mut gmem = GlobalMemory::new(1024);
        let ptr = gmem.alloc_f32(&[1.0; 64]).unwrap();
        let mut blk = Block::new(prog.tape().unwrap(), 0, 32, &[ptr.0 as u32]).unwrap();
        let mut at = LaneAddrs::default();
        while let Op::Inst(i) = blk.op(0) {
            let is_load = matches!(i, Inst::Ld { .. });
            blk.exec(0, i, &env(), &mut gmem, 0, None, is_load.then_some(&mut at))
                .unwrap();
        }
        assert_eq!(at.mask, u32::MAX);
        assert_eq!(at.active().count(), 32);
        assert_eq!(at.addrs[3], ptr.0 + 12);
        assert_eq!(f32::from_bits(blk.reg(0, 7, v.0)), 1.0);
    }

    #[test]
    fn shared_roundtrip_within_block() {
        let mut b = KernelBuilder::new("sm");
        b.shared_mem(256);
        let r = b.mov(Operand::ImmU(16));
        let v = b.mov(Operand::ImmF(3.5));
        b.st(MemSpace::Shared, r, 0, vec![v.into()]);
        let _w = b.ld(MemSpace::Shared, r, 0, 1);
        // The load's destination is the last register.
        let (blk, last) = run_straight(b, 1, 1);
        assert_eq!(f32::from_bits(blk.reg(0, 0, last.0)), 3.5);
    }

    #[test]
    fn tape_walks_loops_and_branches() {
        let mut b = KernelBuilder::new("c");
        b.for_loop(Operand::ImmU(0), Operand::ImmU(2), 1, |b, _| {
            b.mov(Operand::ImmU(1));
        });
        let prog = lower(&b.finish());
        let mut blk = Block::new(prog.tape().unwrap(), 0, 32, &[]).unwrap();
        let mut gmem = GlobalMemory::new(64);
        let mut executed = 0;
        while !blk.done(0) {
            match *blk.op(0) {
                Op::Inst(ref i) => blk.exec(0, i, &env(), &mut gmem, 0, None, None).unwrap(),
                Op::Bra {
                    pred,
                    negate,
                    target,
                } => {
                    let m = blk.pred_mask(0, pred, negate);
                    assert!(m == 0 || m == blk.mask(0), "non-uniform loop branch");
                    blk.branch(0, m != 0, target);
                }
                ref other => unreachable!("no masked regions here: {other:?}"),
            }
            executed += 1;
        }
        // mov init + 2 × (body mov + add + setp + bra) = 9 retired ops.
        assert_eq!(executed, 9);
    }

    #[test]
    fn live_lane_masks() {
        assert_eq!(live_lane_mask(32, 0), u32::MAX);
        assert_eq!(live_lane_mask(40, 1), 0xFF);
        assert_eq!(live_lane_mask(40, 2), 0);
    }
}
