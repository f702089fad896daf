//! Functional (untimed) execution of a whole grid.
//!
//! Every block runs the program's tape on a `Block`. Inside a block,
//! warps run round-robin in barrier-delimited segments (a warp runs down the
//! tape until it reaches `Sync` or `Exit`, then the next warp runs), which
//! is equivalent to lock-step execution for race-free kernels and keeps the
//! interpreter simple and fast.
//!
//! Accounting: every instruction, `Bra`, `While` back-edge and `bar.sync`
//! retires one warp instruction; entering an `If` or a `While` retires none
//! (the timed engine charges an `If` entry — see DESIGN.md, "The warp
//! tape").
//!
//! Blocks run sequentially by default, or across host threads when
//! `GPU_SIM_THREADS` (or an explicit [`run_lowered_full`] thread count) asks
//! for it. The parallel path runs every block against its own
//! [`BlockShard`] write-view and then merges in ascending block-id order, so
//! memory contents, shadow/ECC state, statistics and first-fault coordinates
//! are bit-identical to the sequential executor — see DESIGN.md §15.
//!
//! In functional mode `clock()` reads a per-warp retired-instruction counter
//! — deterministic, and good enough for the membench kernels' *functional*
//! validation (their timing numbers come from the timed engine).

use super::machine::{Block, LaunchEnv, WARP};
use super::tape::{Op, Tape};
use crate::fault::{DeviceError, DeviceResult, FaultKind, FaultPlan};
use crate::ir::lower::{lower, Program};
use crate::ir::Kernel;
use crate::mem::{BlockShard, DeviceMem, GlobalMemory};
use simcore::par::map_indexed;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Largest block the G80 accepts (threads per block).
pub const MAX_BLOCK: u32 = 512;

/// Largest grid dimension the G80 accepts (blocks per launch).
pub const MAX_GRID: u32 = 65535;

/// Host threads the functional executor spreads blocks across, read from
/// `GPU_SIM_THREADS` once per process (absent/invalid/0/1 → sequential).
/// CI forces the parallel path onto the whole suite by exporting it.
pub fn configured_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        std::env::var("GPU_SIM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(1)
    })
}

/// Statistics of a functional run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FunctionalRun {
    /// Warp instructions executed across the whole grid.
    pub warp_instructions: u64,
    /// Block barriers crossed (per block, summed).
    pub barriers: u64,
}

/// Execute every block of the grid functionally against `gmem`: lower
/// `kernel`, then [`run_lowered_full`] with no fault plan, no watchdog and
/// [`configured_threads`].
///
/// `grid` × `block` threads; `params` are the kernel parameter values.
/// Device misuse (bad geometry, out-of-bounds/misaligned/uninitialized
/// accesses, divergent barriers) returns a typed [`DeviceError`] with fault
/// coordinates instead of panicking.
pub fn run_grid(
    kernel: &Kernel,
    grid: u32,
    block: u32,
    params: &[u32],
    gmem: &mut GlobalMemory,
) -> DeviceResult<FunctionalRun> {
    run_lowered_full(
        &lower(kernel),
        grid,
        block,
        params,
        gmem,
        None,
        None,
        configured_threads(),
    )
}

/// The functional executor's one entry point, over an already-lowered
/// program (decode-once callers like gravit's frame loop lower each kernel
/// exactly once).
///
/// * `plan` — a fault-injection plan (test harness): matching memory
///   accesses have their effective addresses mutated before execution;
/// * `watchdog` — a step budget: if the grid executes more than this many
///   warp instructions in total, the launch is killed with
///   [`FaultKind::WatchdogTimeout`] — the simulated analogue of the driver's
///   kernel-execution timeout that turns a hung or runaway kernel into a
///   recoverable error instead of a wedged device;
/// * `threads` — host threads to spread blocks across (callers usually pass
///   [`configured_threads`]).
///
/// `threads <= 1` (or a one-block grid) runs the classic sequential loop;
/// otherwise blocks execute across `threads` host threads
/// ([`simcore::par::map_indexed`]) against per-block [`BlockShard`]
/// write-views, and the results are committed in ascending block-id order —
/// bit-identical to the sequential path in memory contents, shadow/ECC
/// state, statistics and first-fault coordinates (the differential
/// proptests in `tests/parallel_difftests.rs` hold this equivalence under
/// random kernels, geometries, injected faults and watchdog budgets).
#[allow(clippy::too_many_arguments)]
pub fn run_lowered_full(
    prog: &Program,
    grid: u32,
    block: u32,
    params: &[u32],
    gmem: &mut GlobalMemory,
    plan: Option<&FaultPlan>,
    watchdog: Option<u64>,
    threads: usize,
) -> DeviceResult<FunctionalRun> {
    validate_launch(grid, block).map_err(|e| e.with_kernel(&prog.name))?;
    let tape = prog.tape()?;
    let env = LaunchEnv {
        block_dim: block,
        grid_dim: grid,
    };
    if threads <= 1 || grid <= 1 {
        let mut stats = FunctionalRun::default();
        for b in 0..grid {
            run_block(
                tape,
                b,
                block as usize,
                params,
                &env,
                gmem,
                &mut stats,
                plan,
                watchdog,
            )
            .map_err(|e| e.with_kernel(&prog.name))?;
        }
        return Ok(stats);
    }
    run_parallel(
        prog, tape, grid, block, params, &env, gmem, plan, watchdog, threads,
    )
}

/// What one block's isolated (sharded) execution produced, queued for the
/// deterministic merge.
struct BlockOutcome {
    /// Final value of every word the block stored, ascending by address.
    writes: Vec<(u64, u32)>,
    /// The block's own instruction/barrier counts.
    stats: FunctionalRun,
    /// `Ok` if the block retired, or its fault (coordinates already attached
    /// by the warp stepper).
    result: Result<(), DeviceError>,
}

/// Parallel block execution with a sequential-equivalent commit/merge.
///
/// [`map_indexed`] workers pull block ids from a shared counter and run each
/// block against a fresh [`BlockShard`] (reads see the pre-launch memory plus
/// the block's own writes; CUDA blocks are independent by construction, so
/// that equals what the sequential executor would read). The merge then walks
/// blocks in ascending id order, replaying each block's buffered writes
/// through the real [`GlobalMemory::store_u32`] and summing its stats — so
/// the final memory/shadow/ECC state, the merged [`FunctionalRun`], and the
/// *first* fault in block order are all bit-identical to the sequential loop.
///
/// Watchdog accounting: the sequential executor drains one global budget in
/// block order, so each block runs in isolation against the *full* budget,
/// and the merge re-runs any block whose accumulated count makes the global
/// check ambiguous (`T + c >= budget`) directly against the committed
/// memory with the accumulated count precharged — that re-run *is* the
/// sequential execution of the block, so the kill site and `executed` count
/// are exact by construction.
#[allow(clippy::too_many_arguments)]
fn run_parallel(
    prog: &Program,
    tape: &Tape,
    grid: u32,
    block: u32,
    params: &[u32],
    env: &LaunchEnv,
    gmem: &mut GlobalMemory,
    plan: Option<&FaultPlan>,
    watchdog: Option<u64>,
    threads: usize,
) -> DeviceResult<FunctionalRun> {
    // Lowest block id seen to fault in isolation: the merge is guaranteed to
    // terminate at or before it, so workers skip everything after it.
    let min_terminal = AtomicU32::new(u32::MAX);
    let base: &GlobalMemory = gmem;
    let mut outcomes = map_indexed(grid as usize, threads, |b| {
        let b = b as u32;
        if b > min_terminal.load(Ordering::Relaxed) {
            return None;
        }
        let mut shard = BlockShard::new(base);
        let mut stats = FunctionalRun::default();
        let result = run_block(
            tape,
            b,
            block as usize,
            params,
            env,
            &mut shard,
            &mut stats,
            plan,
            watchdog,
        );
        if result.is_err() {
            min_terminal.fetch_min(b, Ordering::Relaxed);
        }
        Some(BlockOutcome {
            writes: shard.into_writes(),
            stats,
            result,
        })
    });

    // Deterministic merge, ascending block id.
    let mut total = FunctionalRun::default();
    for (b, slot) in outcomes.iter_mut().enumerate() {
        let b = b as u32;
        // A block whose isolated count would straddle the global watchdog
        // budget (or that was skipped past a terminal block) is replayed
        // sequentially against the committed prefix — exact by construction.
        let replay_sequentially = match slot {
            None => true,
            Some(o) => watchdog.is_some_and(|budget| {
                total.warp_instructions + o.stats.warp_instructions >= budget
            }),
        };
        if replay_sequentially {
            run_block(
                tape,
                b,
                block as usize,
                params,
                env,
                gmem,
                &mut total,
                plan,
                watchdog,
            )
            .map_err(|e| e.with_kernel(&prog.name))?;
            continue;
        }
        let o = slot.take().expect("outcome present");
        // Commit the block's writes — on a fault these are the partial side
        // effects the sequential executor would also have made.
        for (a, v) in o.writes {
            gmem.store_u32(a, v)
                .map_err(|e| e.with_kernel(&prog.name))?;
        }
        match o.result {
            Ok(()) => {
                total.warp_instructions += o.stats.warp_instructions;
                total.barriers += o.stats.barriers;
            }
            Err(e) => return Err(e.with_kernel(&prog.name)),
        }
    }
    Ok(total)
}

/// Validate launch geometry against the G80's limits.
pub fn validate_launch(grid: u32, block: u32) -> DeviceResult<()> {
    if grid == 0 || block == 0 {
        return Err(DeviceError::new(FaultKind::BadLaunch {
            reason: format!("empty launch: grid {grid} × block {block}"),
        }));
    }
    if block > MAX_BLOCK {
        return Err(DeviceError::new(FaultKind::BadLaunch {
            reason: format!("block size {block} exceeds the device limit of {MAX_BLOCK} threads"),
        }));
    }
    if grid > MAX_GRID {
        return Err(DeviceError::new(FaultKind::BadLaunch {
            reason: format!("grid size {grid} exceeds the device limit of {MAX_GRID} blocks"),
        }));
    }
    Ok(())
}

/// Run one block to completion, adding its counts to `stats`.
#[allow(clippy::too_many_arguments)]
fn run_block<M: DeviceMem>(
    tape: &Tape,
    block_id: u32,
    n_threads: usize,
    params: &[u32],
    env: &LaunchEnv,
    gmem: &mut M,
    stats: &mut FunctionalRun,
    plan: Option<&FaultPlan>,
    watchdog: Option<u64>,
) -> DeviceResult<()> {
    let mut blk = Block::new(tape, block_id, n_threads, params)?;
    let n_warps = blk.n_warps();
    // Warp instructions each warp has retired: what `clock()` reads and the
    // instruction coordinate of a fault.
    let mut retired = vec![0u64; n_warps];
    let mut at_sync = vec![false; n_warps];

    // Run warps in barrier-delimited segments.
    loop {
        let mut any_progress = false;
        at_sync.fill(false);
        for w in 0..n_warps {
            // Run this warp until Sync or the end of the kernel.
            loop {
                let op = blk.op(w);
                if matches!(op, Op::Exit | Op::ThenEnd { .. } | Op::IfEnd) {
                    break;
                }
                // Step-budget watchdog: a kernel that retires more warp
                // instructions than its budget is treated as hung and killed
                // — this is what turns an unbounded `while` into a typed,
                // retryable fault instead of a non-terminating simulation.
                if let Some(budget) = watchdog {
                    if stats.warp_instructions >= budget {
                        return Err(DeviceError::new(FaultKind::WatchdogTimeout {
                            budget,
                            executed: stats.warp_instructions,
                        })
                        .with_block(block_id)
                        .with_thread((w * WARP) as u32)
                        .with_instruction(retired[w]));
                    }
                }
                match *op {
                    Op::Inst(ref i) => {
                        blk.exec(w, i, env, gmem, retired[w], plan, None)?;
                        retired[w] += 1;
                        stats.warp_instructions += 1;
                    }
                    Op::Bra {
                        pred,
                        negate,
                        target,
                    } => {
                        let mask = blk.mask(w);
                        let m = blk.pred_mask(w, pred, negate);
                        if m != 0 && m != mask {
                            // Attribute to the first lane disagreeing with
                            // the majority sense of the branch.
                            let lane = (m ^ mask).trailing_zeros();
                            return Err(DeviceError::new(FaultKind::DivergentBranch {
                                mask,
                                taken: m,
                            })
                            .with_block(block_id)
                            .with_thread((w * WARP) as u32 + lane)
                            .with_instruction(retired[w]));
                        }
                        blk.branch(w, m == mask, target);
                        retired[w] += 1;
                        stats.warp_instructions += 1;
                    }
                    Op::If {
                        pred,
                        negate,
                        else_pc,
                    } => blk.enter_if(w, pred, negate, else_pc),
                    Op::While => blk.enter_while(w),
                    Op::WhileBack { pred, negate, body } => {
                        // The loop branch: lanes whose predicate still holds
                        // run another pass.
                        blk.while_back(w, pred, negate, body);
                        retired[w] += 1;
                        stats.warp_instructions += 1;
                    }
                    Op::Sync => {
                        at_sync[w] = true;
                        break;
                    }
                    Op::Exit | Op::ThenEnd { .. } | Op::IfEnd => break,
                }
                any_progress = true;
            }
        }
        if (0..n_warps).all(|w| blk.done(w)) {
            break;
        }
        // Every unfinished warp must be parked at the same barrier.
        let all_at_sync = (0..n_warps).all(|w| blk.done(w) || at_sync[w]);
        if !(all_at_sync && any_progress) {
            return Err(DeviceError::new(FaultKind::Deadlock {
                reason: "not all warps reached the barrier (a divergent __syncthreads)".into(),
            })
            .with_block(block_id));
        }
        for (w, _) in at_sync.iter().enumerate().filter(|(_, &s)| s) {
            blk.advance(w);
            stats.barriers += 1;
            stats.warp_instructions += 1; // bar.sync is an instruction
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CmpOp, KernelBuilder, MemSpace, Operand};

    /// vec-add: out[i] = a[i] + b[i]
    #[test]
    fn vector_add_whole_grid() {
        let mut b = KernelBuilder::new("vadd");
        let pa = b.param();
        let pb = b.param();
        let po = b.param();
        let i = b.global_thread_index();
        let off = b.imul(i.into(), Operand::ImmU(4));
        let aa = b.iadd(pa.into(), off.into());
        let ab = b.iadd(pb.into(), off.into());
        let ao = b.iadd(po.into(), off.into());
        let va = b.ld(MemSpace::Global, aa, 0, 1)[0];
        let vb = b.ld(MemSpace::Global, ab, 0, 1)[0];
        let s = b.fadd(va.into(), vb.into());
        b.st(MemSpace::Global, ao, 0, vec![s.into()]);
        let k = b.finish();

        let n = 256usize;
        let mut gmem = GlobalMemory::new(1 << 20);
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let ys: Vec<f32> = (0..n).map(|i| 2.0 * i as f32).collect();
        let a = gmem.alloc_f32(&xs).unwrap();
        let bb = gmem.alloc_f32(&ys).unwrap();
        let o = gmem.alloc(n as u64 * 4).unwrap();
        run_grid(&k, 4, 64, &[a.0 as u32, bb.0 as u32, o.0 as u32], &mut gmem).unwrap();
        let out = gmem.read_f32(o, n).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f32, "lane {i}");
        }
    }

    /// Loop + accumulate: out[i] = sum_{j<m} j  (same for all threads).
    #[test]
    fn looped_accumulation() {
        let mut b = KernelBuilder::new("loopsum");
        let po = b.param();
        let m = b.param();
        let i = b.global_thread_index();
        let acc = b.mov(Operand::ImmF(0.0));
        b.for_loop(Operand::ImmU(0), m.into(), 1, |b, j| {
            let jf = b.reg();
            b.emit(crate::ir::Instr::Unary {
                op: crate::ir::UnaryOp::U2F,
                dst: jf,
                a: j.into(),
            });
            b.alu_into(acc, crate::ir::AluOp::FAdd, acc.into(), jf.into());
        });
        let ao = b.mad_u(i.into(), Operand::ImmU(4), po.into());
        b.st(MemSpace::Global, ao, 0, vec![acc.into()]);
        let k = b.finish();

        let mut gmem = GlobalMemory::new(1 << 16);
        let o = gmem.alloc(64 * 4).unwrap();
        run_grid(&k, 1, 64, &[o.0 as u32, 10], &mut gmem).unwrap();
        let out = gmem.read_f32(o, 64).unwrap();
        assert!(out.iter().all(|&v| v == 45.0));
    }

    /// Shared-memory exchange across warps with a barrier: thread t writes
    /// t to smem, then reads the value of (t+1) mod blockDim.
    #[test]
    fn smem_exchange_with_barrier() {
        let mut b = KernelBuilder::new("xchg");
        b.shared_mem(64 * 4);
        let po = b.param();
        let tid = b.special(crate::ir::SpecialReg::TidX);
        let ntid = b.special(crate::ir::SpecialReg::NtidX);
        let my = b.imul(tid.into(), Operand::ImmU(4));
        let tf = b.reg();
        b.emit(crate::ir::Instr::Unary {
            op: crate::ir::UnaryOp::U2F,
            dst: tf,
            a: tid.into(),
        });
        b.st(MemSpace::Shared, my, 0, vec![tf.into()]);
        b.sync();
        let tp1 = b.iadd(tid.into(), Operand::ImmU(1));
        // (t+1) mod blockDim without a mod instruction: if t+1 == ntid → 0.
        let p = b.setp(CmpOp::UEq, tp1.into(), ntid.into());
        let idx = b.reg();
        b.emit(crate::ir::Instr::Mov {
            dst: idx,
            src: tp1.into(),
        });
        b.if_then(p, |b| {
            b.emit(crate::ir::Instr::Mov {
                dst: idx,
                src: Operand::ImmU(0),
            });
        });
        let sa = b.imul(idx.into(), Operand::ImmU(4));
        let v = b.ld(MemSpace::Shared, sa, 0, 1)[0];
        let ao = b.mad_u(tid.into(), Operand::ImmU(4), po.into());
        b.st(MemSpace::Global, ao, 0, vec![v.into()]);
        let k = b.finish();

        let mut gmem = GlobalMemory::new(1 << 16);
        let o = gmem.alloc(64 * 4).unwrap();
        run_grid(&k, 1, 64, &[o.0 as u32], &mut gmem).unwrap();
        let out = gmem.read_f32(o, 64).unwrap();
        for (t, v) in out.iter().enumerate() {
            assert_eq!(*v, ((t + 1) % 64) as f32, "thread {t}");
        }
    }

    /// Masked If: even threads write 1.0, odd threads write 2.0.
    #[test]
    fn divergent_if_writes_both_paths() {
        let mut b = KernelBuilder::new("div");
        let po = b.param();
        let tid = b.special(crate::ir::SpecialReg::TidX);
        let bit = b.alu(crate::ir::AluOp::IAnd, tid.into(), Operand::ImmU(1));
        let p = b.setp(CmpOp::UEq, bit.into(), Operand::ImmU(0));
        let v = b.reg();
        b.if_else(
            p,
            |b| {
                b.emit(crate::ir::Instr::Mov {
                    dst: v,
                    src: Operand::ImmF(1.0),
                });
            },
            |b| {
                b.emit(crate::ir::Instr::Mov {
                    dst: v,
                    src: Operand::ImmF(2.0),
                });
            },
        );
        let ao = b.mad_u(tid.into(), Operand::ImmU(4), po.into());
        b.st(MemSpace::Global, ao, 0, vec![v.into()]);
        let k = b.finish();

        let mut gmem = GlobalMemory::new(1 << 16);
        let o = gmem.alloc(32 * 4).unwrap();
        run_grid(&k, 1, 32, &[o.0 as u32], &mut gmem).unwrap();
        let out = gmem.read_f32(o, 32).unwrap();
        for (t, v) in out.iter().enumerate() {
            assert_eq!(*v, if t % 2 == 0 { 1.0 } else { 2.0 });
        }
    }

    /// G80 grid-dimension cap: 65535 blocks is a legal launch, 65536 is a
    /// typed `BadLaunch` — previously any grid size silently launched.
    #[test]
    fn grid_limit_boundary() {
        assert!(validate_launch(MAX_GRID, 64).is_ok());
        let e = validate_launch(MAX_GRID + 1, 64).unwrap_err();
        match e.kind {
            FaultKind::BadLaunch { reason } => {
                assert!(reason.contains("65536"), "reason names the size: {reason}");
                assert!(reason.contains("65535"), "reason names the limit: {reason}");
            }
            k => panic!("wrong kind {k:?}"),
        }
        // And through the launch wrapper, with the kernel name attached.
        let mut b = KernelBuilder::new("toolarge");
        let _p = b.param();
        let k = b.finish();
        let mut gmem = GlobalMemory::new(64);
        let e = run_grid(&k, MAX_GRID + 1, 32, &[0], &mut gmem).unwrap_err();
        assert!(matches!(e.kind, FaultKind::BadLaunch { .. }));
        assert_eq!(e.site.kernel.as_deref(), Some("toolarge"));
    }

    /// The parallel path commits blocks in id order: memory and stats equal
    /// the sequential run bit-for-bit (the broad equivalence lives in
    /// `tests/parallel_difftests.rs`; this is the in-crate smoke check).
    #[test]
    fn parallel_matches_sequential_smoke() {
        let mut b = KernelBuilder::new("pfill");
        let po = b.param();
        let i = b.global_thread_index();
        let ao = b.mad_u(i.into(), Operand::ImmU(4), po.into());
        b.st(MemSpace::Global, ao, 0, vec![i.into()]);
        let k = b.finish();
        let n = 8 * 64;
        let run = |threads: usize| {
            let mut gmem = GlobalMemory::new(1 << 20);
            let o = gmem.alloc(n as u64 * 4).unwrap();
            let stats = run_lowered_full(
                &lower(&k),
                8,
                64,
                &[o.0 as u32],
                &mut gmem,
                None,
                None,
                threads,
            )
            .unwrap();
            (gmem.download(o, n as u64 * 4).unwrap(), stats)
        };
        let (seq_mem, seq_stats) = run(1);
        for threads in [2, 8] {
            let (par_mem, par_stats) = run(threads);
            assert_eq!(seq_mem, par_mem, "{threads} threads");
            assert_eq!(seq_stats, par_stats, "{threads} threads");
        }
    }

    /// Partial last warp: 40 threads = one full warp + 8 lanes.
    #[test]
    fn partial_warp_block() {
        let mut b = KernelBuilder::new("partial");
        let po = b.param();
        let i = b.global_thread_index();
        let ao = b.mad_u(i.into(), Operand::ImmU(4), po.into());
        let one = b.mov(Operand::ImmF(1.0));
        b.st(MemSpace::Global, ao, 0, vec![one.into()]);
        let k = b.finish();
        let mut gmem = GlobalMemory::new(1 << 12);
        let o = gmem.alloc(40 * 4).unwrap();
        run_grid(&k, 1, 40, &[o.0 as u32], &mut gmem).unwrap();
        assert!(gmem.read_f32(o, 40).unwrap().iter().all(|&v| v == 1.0));
    }
}

#[cfg(test)]
mod while_tests {
    use super::*;
    use crate::ir::{AluOp, CmpOp, KernelBuilder, MemSpace, Operand};

    /// Collatz step-count per thread: genuinely divergent iteration counts.
    /// out[tid] = number of steps for (tid+1) to reach 1.
    fn collatz_kernel() -> crate::ir::Kernel {
        let mut b = KernelBuilder::new("collatz");
        let out = b.param();
        let tid = b.special(crate::ir::SpecialReg::TidX);
        let n = b.iadd(tid.into(), Operand::ImmU(1));
        let steps = b.mov(Operand::ImmU(0));
        // do { if n != 1 { n = odd ? 3n+1 : n/2 (shr via and trick) ; steps++ } } while (n != 1)
        b.do_while(|b| {
            let not_one = b.setp(CmpOp::UNe, n.into(), Operand::ImmU(1));
            b.if_then(not_one, |b| {
                let bit = b.alu(AluOp::IAnd, n.into(), Operand::ImmU(1));
                let podd = b.setp(CmpOp::UEq, bit.into(), Operand::ImmU(1));
                b.if_else(
                    podd,
                    |b| {
                        // n = 3n + 1
                        let t = b.mad_u(n.into(), Operand::ImmU(3), Operand::ImmU(1));
                        b.emit(crate::ir::Instr::Mov {
                            dst: n,
                            src: t.into(),
                        });
                    },
                    |b| {
                        // n = n / 2 — no shift-right op; n/2 == (n - bit)/2 via
                        // multiply-high is overkill, so use a subtract loop…
                        // simpler: n even ⇒ n = n * 0x8000_0001? No — emulate
                        // with IShl-based doubling comparison is silly; add a
                        // dedicated halving using IAnd+IShl identities is not
                        // available, so divide by repeated subtraction is too
                        // slow. Instead: n/2 for even n == (n >> 1); we lack
                        // shr, so precompute via u32 multiply by 0x80000000?
                        // mad.lo gives low 32 bits (n * 2^31 mod 2^32) — not
                        // the high half. Use float conversion: exact for the
                        // magnitudes in this test (n < 2^24).
                        let f = b.reg();
                        b.emit(crate::ir::Instr::Unary {
                            op: crate::ir::UnaryOp::U2F,
                            dst: f,
                            a: n.into(),
                        });
                        let h = b.fmul(f.into(), Operand::ImmF(0.5));
                        b.emit(crate::ir::Instr::Unary {
                            op: crate::ir::UnaryOp::F2U,
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

    fn collatz_steps(mut n: u32) -> u32 {
        let mut s = 0;
        while n != 1 {
            n = if n % 2 == 1 { 3 * n + 1 } else { n / 2 };
            s += 1;
        }
        s
    }

    #[test]
    fn divergent_while_computes_collatz_per_lane() {
        let k = collatz_kernel();
        let mut gmem = GlobalMemory::new(1 << 16);
        let out = gmem.alloc(64 * 4).unwrap();
        run_grid(&k, 1, 64, &[out.0 as u32], &mut gmem).unwrap();
        for t in 0..64u64 {
            let got = u32::from_le_bytes(
                gmem.download(crate::mem::DevicePtr(out.0 + 4 * t), 4)
                    .unwrap()
                    .try_into()
                    .unwrap(),
            );
            assert_eq!(got, collatz_steps(t as u32 + 1), "thread {t}");
        }
    }

    #[test]
    fn timed_while_charges_until_the_slowest_lane() {
        use crate::exec::timed::time_resident;
        use crate::timing::TimingParams;
        use crate::{DeviceConfig, DriverModel};
        let k = collatz_kernel();
        let dev = DeviceConfig::g8800gtx();
        let tp = TimingParams::for_driver(DriverModel::Cuda10);
        let mut gmem = GlobalMemory::new(1 << 16);
        let out = gmem.alloc(64 * 4).unwrap();
        let run = time_resident(
            &k,
            &[0],
            64,
            1,
            &[out.0 as u32],
            &mut gmem,
            &dev,
            DriverModel::Cuda10,
            &tp,
        )
        .unwrap();
        // Functional result still correct under the timed engine.
        let got = u32::from_le_bytes(
            gmem.download(crate::mem::DevicePtr(out.0), 4)
                .unwrap()
                .try_into()
                .unwrap(),
        );
        assert_eq!(got, collatz_steps(1));
        assert!(run.cycles > 0);
        // The warp executes max-lane passes: thread 26 (n=27) needs 111 steps,
        // so at least 111 body passes were issued by its warp.
        assert!(
            run.warp_instructions > 111,
            "divergence must serialize the warp"
        );
    }
}
