//! Cycle-level simulation of one streaming multiprocessor.
//!
//! The engine schedules the warps of the SM's *resident blocks* through a
//! single issue port (G80 issues one warp instruction at a time), with:
//!
//! * a **register/predicate scoreboard** — an instruction cannot issue until
//!   its operands are ready (ALU results appear after a pipeline latency,
//!   load results after the memory round trip);
//! * a **memory pipeline** — every global access is run through the
//!   [`crate::coalesce`] protocol of the configured driver; each transaction
//!   occupies the SM's path to DRAM for a size-dependent time and its data
//!   returns one latency later. A per-warp in-flight-load limit models the
//!   G80's small MSHR budget;
//! * **shared-memory bank serialization** — per half-warp, per 32-bit phase,
//!   the access reissues once per conflicting bank set ([`crate::banks`]);
//! * **block barriers** — `Sync` parks a warp until every warp of its block
//!   arrives.
//!
//! Occupancy effects emerge rather than being assumed: more resident warps
//! (from lower register pressure or better block sizes) give the scheduler
//! more candidates to hide latencies and barrier bubbles with — which is how
//! the paper's 50 % → 67 % occupancy step buys its ~6 %.

use super::functional::{configured_threads, validate_launch};
use super::machine::{Block, LaneAddrs, LaunchEnv, WARP};
use super::tape::{Inst, Op, Tape};
use crate::banks::conflict_degree;
use crate::coalesce::CoalesceCache;
use crate::device::DeviceConfig;
use crate::driver::DriverModel;
use crate::fault::{DeviceError, DeviceResult, FaultKind};
use crate::ir::lower::{lower, Program};
use crate::ir::{Kernel, MemSpace, UnaryOp};
use crate::mem::{BlockShard, DeviceMem, GlobalMemory};
use crate::texcache::TexCache;
use crate::timing::TimingParams;
use simcore::par::map_indexed;

/// Additional latency before an ALU result can be consumed by the same warp
/// (G80's register read-after-write pipeline depth, ~6 warp-slots).
const ALU_RAW_LATENCY: u64 = 20;
/// RAW latency for SFU results.
const SFU_RAW_LATENCY: u64 = 32;
/// Latency of a shared-memory load (register-file speed plus a bank cycle).
const SMEM_LATENCY: u64 = 24;

/// Result of timing one SM's resident blocks to completion.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimedRun {
    /// Cycles from launch until the last warp (and the memory pipe) drained.
    pub cycles: u64,
    /// Warp instructions issued.
    pub warp_instructions: u64,
    /// Global-memory transactions issued.
    pub transactions: u64,
    /// Bytes moved across the DRAM bus.
    pub bus_bytes: u64,
    /// Texture-cache hits (texture-path loads only).
    pub tex_hits: u64,
    /// Texture-cache misses.
    pub tex_misses: u64,
    /// Warp-issue opportunities lost to scoreboard/memory stalls (cycles the
    /// issue port sat idle while work remained).
    pub idle_cycles: u64,
}

impl TimedRun {
    /// Associative per-SM merge: total time is the slowest SM, counters sum.
    pub fn merge(&mut self, other: &TimedRun) {
        self.cycles = self.cycles.max(other.cycles);
        self.warp_instructions += other.warp_instructions;
        self.transactions += other.transactions;
        self.bus_bytes += other.bus_bytes;
        self.tex_hits += other.tex_hits;
        self.tex_misses += other.tex_misses;
        self.idle_cycles += other.idle_cycles;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpPhase {
    Ready,
    AtBarrier,
    Done,
}

struct WarpSim {
    block: usize,
    warp_in_block: usize,
    phase: WarpPhase,
    /// Earliest cycle this warp may issue again.
    resume_at: u64,
    reg_ready: Vec<u64>,
    pred_ready: Vec<u64>,
    /// Completion times of in-flight loads, ascending.
    outstanding: Vec<u64>,
    finish: u64,
}

impl WarpSim {
    /// Reset for a newly admitted block whose slot retired at `retire`.
    fn admit(&mut self, retire: u64) {
        self.phase = WarpPhase::Ready;
        self.resume_at = retire;
        self.reg_ready.fill(retire);
        self.pred_ready.fill(retire);
        self.outstanding.clear();
        self.finish = retire;
    }

    /// Record a load completing at `done`, dropping loads retired by `now`.
    fn track_load(&mut self, now: u64, done: u64) {
        self.outstanding.retain(|&d| d > now);
        let at = self.outstanding.partition_point(|&d| d <= done);
        self.outstanding.insert(at, done);
    }
}

/// Simulate the given resident blocks of a launch on one SM.
///
/// `resident` lists the block ids co-resident on the SM (e.g. `[0, 1]` for
/// two resident blocks — use [`crate::occupancy`] to decide how many).
/// Functional side effects go to `gmem`, so pass a scratch clone when only
/// the timing is wanted.
#[allow(clippy::too_many_arguments)]
pub fn time_resident(
    kernel: &Kernel,
    resident: &[u32],
    block_size: u32,
    grid: u32,
    params: &[u32],
    gmem: &mut GlobalMemory,
    dev: &DeviceConfig,
    driver: DriverModel,
    tp: &TimingParams,
) -> DeviceResult<TimedRun> {
    time_sm_queue(
        &lower(kernel),
        resident,
        &[],
        block_size,
        grid,
        params,
        gmem,
        dev,
        driver,
        tp,
    )
}

/// Simulate one SM running `resident` blocks concurrently, admitting blocks
/// from `pending` (in order) as resident blocks retire — the G80 dispatch
/// behaviour. This is the exact engine behind [`time_grid`]; the
/// wave-extrapolation path ([`time_resident`]) is its `pending = []` special
/// case.
///
/// Accounting: every instruction, `Bra`, `If` entry, `While` back-edge and
/// `bar.sync` issues one counted warp instruction; a `While` entry takes an
/// issue slot but is not counted (see DESIGN.md, "The warp tape").
#[allow(clippy::too_many_arguments)]
pub fn time_sm_queue<M: DeviceMem>(
    prog: &Program,
    resident: &[u32],
    pending: &[u32],
    block_size: u32,
    grid: u32,
    params: &[u32],
    gmem: &mut M,
    dev: &DeviceConfig,
    driver: DriverModel,
    tp: &TimingParams,
) -> DeviceResult<TimedRun> {
    let bad = |reason: String| {
        Err(DeviceError::new(FaultKind::BadLaunch { reason }).with_kernel(&prog.name))
    };
    validate_launch(grid, block_size).map_err(|e| e.with_kernel(&prog.name))?;
    let tape = prog.tape()?;
    if resident.is_empty() {
        return bad("no resident blocks".into());
    }
    if let Some(b) = pending.iter().chain(resident.iter()).find(|b| **b >= grid) {
        return bad(format!("block id {b} beyond grid of {grid}"));
    }
    let mut queue = pending;
    let env = LaunchEnv {
        block_dim: block_size,
        grid_dim: grid,
    };
    let n_threads = block_size as usize;
    let warps_per_block = n_threads.div_ceil(WARP);
    let half = dev.half_warp as usize;
    let new_block =
        |b: u32| Block::new(tape, b, n_threads, params).map_err(|e| e.with_kernel(&prog.name));

    let mut blocks: Vec<Block> = resident
        .iter()
        .map(|&b| new_block(b))
        .collect::<DeviceResult<_>>()?;
    let mut warps: Vec<WarpSim> = Vec::new();
    for (bi, _) in resident.iter().enumerate() {
        for w in 0..warps_per_block {
            warps.push(WarpSim {
                block: bi,
                warp_in_block: w,
                phase: WarpPhase::Ready,
                resume_at: 0,
                reg_ready: vec![0; tape.n_regs as usize],
                pred_ready: vec![0; tape.n_preds as usize],
                outstanding: Vec::with_capacity(tp.max_outstanding_loads as usize + 1),
                finish: 0,
            });
        }
    }

    let mut stats = TimedRun::default();
    let mut tex_cache = TexCache::g80();
    // Coalescing decisions are translation-invariant modulo 256-byte base
    // alignment, so identical half-warp access shapes (e.g. every iteration
    // of a streaming loop) hit this memo instead of re-running the protocol.
    let mut co_cache = CoalesceCache::new(driver);
    let mut issue_free: u64 = 0;
    let mut mem_free: u64 = 0;
    let mut last_issued: usize = 0;
    let mut busy_until: u64 = 0;
    // Each warp's `own_bound`: its next-issue cycle is exactly
    // `max(issue_free, own[w])`. Only the issuing warp's state moves, except
    // on barrier release and block admission, which refresh their block.
    let mut own: Vec<u64> = warps
        .iter()
        .map(|w| own_bound(w, &blocks, tape, tp))
        .collect();
    let mut at = LaneAddrs::default();

    loop {
        // Step-budget watchdog: a runaway kernel (e.g. a data-dependent loop
        // that never converges) is killed with a typed, retryable fault
        // instead of spinning the scheduler forever.
        if let Some(budget) = tp.watchdog_instructions {
            if stats.warp_instructions >= budget {
                return Err(DeviceError::new(FaultKind::WatchdogTimeout {
                    budget,
                    executed: stats.warp_instructions,
                })
                .with_kernel(&prog.name));
            }
        }
        // Find the warp that can issue earliest (round-robin tie-break: the
        // first strict minimum from `last_issued + 1`). A warp's bound is
        // `max(issue_free, own[w])`, so one at or below `issue_free` ties the
        // best possible bound and ends the scan.
        let (mut best, mut wi) = (u64::MAX, 0);
        for k in (last_issued + 1..own.len()).chain(0..=last_issued) {
            if own[k] < best {
                (best, wi) = (own[k], k);
                if best <= issue_free {
                    break;
                }
            }
        }
        if best == u64::MAX {
            break; // everyone is done (or parked at a barrier — checked below)
        }
        let now = best.max(issue_free);
        if now > busy_until {
            stats.idle_cycles += now - busy_until;
        }

        last_issued = wi;
        let (bi, wib) = (warps[wi].block, warps[wi].warp_in_block);
        let blk = &mut blocks[bi];
        let w = &mut warps[wi];
        let issue_cost = match *blk.op(wib) {
            Op::Inst(ref i) => {
                blk.exec(wib, i, &env, gmem, now, None, Some(&mut at))
                    .map_err(|e| e.with_kernel(&prog.name))?;
                stats.warp_instructions += 1;
                match *i {
                    Inst::Ld {
                        space: MemSpace::Global,
                        width,
                        dsts,
                        ..
                    } => {
                        // Coalesce each half-warp and push transactions
                        // through the memory pipe.
                        let mut data_ready = now + tp.issue_mem + tp.mem_latency;
                        for h in at.lanes(0).chunks(half) {
                            for &bytes in co_cache.transaction_sizes(h, width) {
                                let start = mem_free.max(now + tp.issue_mem);
                                mem_free = start + tp.transaction_busy(bytes);
                                data_ready = data_ready.max(start + tp.mem_latency);
                                stats.transactions += 1;
                                stats.bus_bytes += bytes as u64;
                            }
                        }
                        for d in &dsts[..width.words()] {
                            w.reg_ready[*d as usize] = data_ready;
                        }
                        w.track_load(now, data_ready);
                        tp.issue_mem
                    }
                    Inst::St {
                        space: MemSpace::Global,
                        width,
                        ..
                    } => {
                        for h in at.lanes(0).chunks(half) {
                            for &bytes in co_cache.transaction_sizes(h, width) {
                                let start = mem_free.max(now + tp.issue_mem);
                                mem_free = start + tp.transaction_busy(bytes);
                                stats.transactions += 1;
                                stats.bus_bytes += bytes as u64;
                            }
                        }
                        tp.issue_mem
                    }
                    Inst::Ld {
                        space: MemSpace::Texture,
                        width,
                        dsts,
                        ..
                    } => {
                        // Texture path: no coalescing; 32B-line cache per SM.
                        let mut data_ready = now + tp.issue_mem + tp.tex_hit_latency;
                        for a in at.active() {
                            for line in TexCache::lines_of(a, width.bytes()) {
                                if tex_cache.access(line) {
                                    stats.tex_hits += 1;
                                } else {
                                    stats.tex_misses += 1;
                                    let start = mem_free.max(now + tp.issue_mem);
                                    mem_free = start + tp.transaction_busy(32);
                                    data_ready = data_ready.max(start + tp.mem_latency);
                                    stats.transactions += 1;
                                    stats.bus_bytes += 32;
                                }
                            }
                        }
                        for d in &dsts[..width.words()] {
                            w.reg_ready[*d as usize] = data_ready;
                        }
                        w.track_load(now, data_ready);
                        tp.issue_mem
                    }
                    Inst::Ld {
                        space: MemSpace::Shared,
                        width,
                        ..
                    }
                    | Inst::St {
                        space: MemSpace::Shared,
                        width,
                        ..
                    } => {
                        let words = width.words();
                        // Worst conflict degree across half-warps, on the
                        // first 32-bit phase: every phase has its degree (see
                        // `banks::conflict_degree`).
                        let mut degree = 1u64;
                        for h in at.lanes(0).chunks(half) {
                            degree = degree.max(conflict_degree(h, dev.smem_banks) as u64);
                        }
                        let cost = tp.issue_smem * words as u64 * degree;
                        if let Inst::Ld { dsts, .. } = i {
                            for d in &dsts[..words] {
                                w.reg_ready[*d as usize] = now + cost + SMEM_LATENCY;
                            }
                        }
                        cost
                    }
                    Inst::Unary {
                        op: UnaryOp::FRsqrt,
                        dst,
                        ..
                    } => {
                        w.reg_ready[dst as usize] = now + tp.issue_sfu + SFU_RAW_LATENCY;
                        tp.issue_sfu
                    }
                    Inst::Setp { dst, .. } => {
                        w.pred_ready[dst as usize] = now + tp.issue_alu + ALU_RAW_LATENCY;
                        tp.issue_alu
                    }
                    Inst::Mov { dst, .. }
                    | Inst::Special { dst, .. }
                    | Inst::Alu { dst, .. }
                    | Inst::Mad { dst, .. }
                    | Inst::Unary { dst, .. }
                    | Inst::Clock { dst } => {
                        w.reg_ready[dst as usize] = now + tp.issue_alu + ALU_RAW_LATENCY;
                        tp.issue_alu
                    }
                    // A texture store faults in `exec` before it gets here.
                    Inst::St {
                        space: MemSpace::Texture,
                        ..
                    } => tp.issue_alu,
                }
            }
            Op::Bra {
                pred,
                negate,
                target,
            } => {
                stats.warp_instructions += 1;
                let mask = blk.mask(wib);
                let m = blk.pred_mask(wib, pred, negate);
                if m != 0 && m != mask {
                    let lane = (m ^ mask).trailing_zeros();
                    return Err(
                        DeviceError::new(FaultKind::DivergentBranch { mask, taken: m })
                            .with_kernel(&prog.name)
                            .with_block(blk.block_id)
                            .with_thread((wib * WARP) as u32 + lane)
                            .with_instruction(now),
                    );
                }
                blk.branch(wib, m == mask, target);
                tp.issue_alu
            }
            Op::If {
                pred,
                negate,
                else_pc,
            } => {
                // The branch instruction guarding the region.
                stats.warp_instructions += 1;
                blk.enter_if(wib, pred, negate, else_pc);
                tp.issue_alu
            }
            Op::While => {
                blk.enter_while(wib);
                tp.issue_alu
            }
            Op::WhileBack { pred, negate, body } => {
                // Divergent-loop back-edge: a branch instruction.
                stats.warp_instructions += 1;
                blk.while_back(wib, pred, negate, body);
                tp.issue_alu
            }
            Op::Sync => {
                stats.warp_instructions += 1; // bar.sync is an instruction
                w.phase = WarpPhase::AtBarrier;
                tp.issue_sync
            }
            // `own_bound` never offers a warp at the end of the tape.
            Op::Exit | Op::ThenEnd { .. } | Op::IfEnd => unreachable!("warp offered past its end"),
        };
        issue_free = now + issue_cost;
        busy_until = busy_until.max(issue_free);
        w.resume_at = issue_free;
        w.finish = w.finish.max(issue_free);
        let span = bi * warps_per_block..(bi + 1) * warps_per_block;
        let mut refresh = wi..wi + 1;
        if w.phase == WarpPhase::AtBarrier {
            // Release the barrier if everyone arrived.
            let group = &mut warps[span.clone()];
            if group
                .iter()
                .all(|x| matches!(x.phase, WarpPhase::AtBarrier | WarpPhase::Done))
            {
                let release = group
                    .iter()
                    .filter(|x| x.phase == WarpPhase::AtBarrier)
                    .map(|x| x.resume_at)
                    .max()
                    .unwrap_or(now);
                for x in group.iter_mut() {
                    if x.phase == WarpPhase::AtBarrier {
                        x.phase = WarpPhase::Ready;
                        x.resume_at = x.resume_at.max(release);
                        blocks[bi].advance(x.warp_in_block);
                        if blocks[bi].done(x.warp_in_block) {
                            x.phase = WarpPhase::Done;
                        }
                    }
                }
                refresh = span.clone();
            }
        } else if blk.done(wib) {
            w.phase = WarpPhase::Done;
        }

        // Block retirement → admit the next pending block into the slot.
        if let Some((&next_id, rest)) = queue.split_first() {
            let group = &mut warps[span.clone()];
            if group.iter().all(|x| x.phase == WarpPhase::Done) {
                queue = rest;
                let retire = group.iter().map(|x| x.finish).max().unwrap_or(0);
                blocks[bi] = new_block(next_id)?;
                for x in group.iter_mut() {
                    x.admit(retire);
                }
                refresh = span;
            }
        }
        for k in refresh {
            own[k] = own_bound(&warps[k], &blocks, tape, tp);
        }
    }

    // Sanity: nobody left parked at a barrier, and every block admitted.
    if !warps.iter().all(|w| w.phase == WarpPhase::Done) {
        return Err(DeviceError::new(FaultKind::Deadlock {
            reason: "warp parked at a barrier at end of simulation".into(),
        })
        .with_kernel(&prog.name));
    }
    if !queue.is_empty() {
        return Err(DeviceError::new(FaultKind::Deadlock {
            reason: format!("{} blocks never admitted", queue.len()),
        })
        .with_kernel(&prog.name));
    }
    stats.cycles = warps
        .iter()
        .map(|w| w.finish)
        .max()
        .unwrap_or(0)
        .max(mem_free);
    stats.idle_cycles = stats.idle_cycles.min(stats.cycles);
    Ok(stats)
}

/// Exact full-grid timing: every block of the launch is simulated, with the
/// G80's per-SM dispatch modeled as round-robin block queues (SM `s` runs
/// blocks `s, s+S, s+2S, …` with `active_blocks` resident at a time; a
/// retiring block immediately admits the next in its queue). Total time is
/// the slowest SM. Expensive — use for validating the wave-extrapolation
/// model at moderate sizes, not for the 10⁶-body sweeps.
#[allow(clippy::too_many_arguments)]
pub fn time_grid(
    kernel: &Kernel,
    grid: u32,
    block_size: u32,
    resident_per_sm: u32,
    params: &[u32],
    gmem: &mut GlobalMemory,
    dev: &DeviceConfig,
    driver: DriverModel,
    tp: &TimingParams,
) -> DeviceResult<TimedRun> {
    let prog = lower(kernel);
    time_grid_lowered_full(
        &prog,
        grid,
        block_size,
        resident_per_sm,
        params,
        gmem,
        dev,
        driver,
        tp,
        configured_threads(),
    )
}

/// As [`time_grid`] for an already-lowered program, with an explicit host
/// thread count. SMs are mutually independent (each owns its block queue and
/// texture cache, and CUDA blocks never read other blocks' writes within a
/// launch), so with `threads > 1` each SM's queue runs against its own
/// [`BlockShard`] write-view and the results are committed in ascending SM
/// order — memory contents, summed stats and the first-faulting-SM error are
/// bit-identical to the sequential loop.
#[allow(clippy::too_many_arguments)]
pub fn time_grid_lowered_full(
    prog: &Program,
    grid: u32,
    block_size: u32,
    resident_per_sm: u32,
    params: &[u32],
    gmem: &mut GlobalMemory,
    dev: &DeviceConfig,
    driver: DriverModel,
    tp: &TimingParams,
    threads: usize,
) -> DeviceResult<TimedRun> {
    if resident_per_sm < 1 {
        return Err(DeviceError::new(FaultKind::BadLaunch {
            reason: "resident_per_sm must be at least 1".into(),
        })
        .with_kernel(&prog.name));
    }
    let queues: Vec<Vec<u32>> = (0..dev.num_sms)
        .map(|sm| {
            (sm..grid)
                .step_by(dev.num_sms as usize)
                .collect::<Vec<u32>>()
        })
        .filter(|q| !q.is_empty())
        .collect();

    let mut total = TimedRun::default();
    if threads <= 1 || queues.len() <= 1 {
        for queue in &queues {
            let r = (resident_per_sm as usize).min(queue.len());
            let run = time_sm_queue(
                prog,
                &queue[..r],
                &queue[r..],
                block_size,
                grid,
                params,
                gmem,
                dev,
                driver,
                tp,
            )?;
            total.merge(&run);
        }
        return Ok(total);
    }

    let base: &GlobalMemory = gmem;
    let outcomes = map_indexed(queues.len(), threads, |qi| {
        let queue = &queues[qi];
        let r = (resident_per_sm as usize).min(queue.len());
        let mut shard = BlockShard::new(base);
        let res = time_sm_queue(
            prog,
            &queue[..r],
            &queue[r..],
            block_size,
            grid,
            params,
            &mut shard,
            dev,
            driver,
            tp,
        );
        (shard.into_writes(), res)
    });

    // Deterministic merge, ascending SM index: commit each SM's writes (the
    // faulting SM's partial writes included — the same side effects the
    // sequential loop leaves behind), return the lowest-SM error if any.
    for (writes, res) in outcomes {
        for (a, v) in writes {
            GlobalMemory::store_u32(gmem, a, v).map_err(|e| e.with_kernel(&prog.name))?;
        }
        total.merge(&res?);
    }
    Ok(total)
}

/// Earliest cycle at which this warp could issue its next op were the issue
/// port free at cycle 0, or `u64::MAX` if it cannot issue at all right now
/// (done, or parked at a barrier).
///
/// With the port free at `issue_free` instead, the bound is exactly
/// `max(issue_free, own_bound(..))`. The resume and operand terms are maxed
/// with `issue_free` either way. A global load over the in-flight limit
/// waits for the `max_outstanding_loads`-th latest completion `L`, and it is
/// over the limit at cycle `t` exactly when `L > t`; so the wait is
/// `max(t, L)` for any `t`, `issue_free` included.
fn own_bound(w: &WarpSim, blocks: &[Block], tape: &Tape, tp: &TimingParams) -> u64 {
    if w.phase != WarpPhase::Ready {
        return u64::MAX;
    }
    let blk = &blocks[w.block];
    let mut t = w.resume_at;
    match blk.op(w.warp_in_block) {
        Op::Inst(i) => {
            for &u in tape.uses[blk.pc(w.warp_in_block)].regs() {
                t = t.max(w.reg_ready[u as usize]);
            }
            if let Inst::Ld {
                space: MemSpace::Global,
                ..
            } = i
            {
                // At most `max_outstanding_loads` loads in flight: wait for
                // the one that leaves fewer than that pending.
                let limit = (tp.max_outstanding_loads as usize).max(1);
                if let Some(at) = w.outstanding.len().checked_sub(limit) {
                    t = t.max(w.outstanding[at]);
                }
            }
        }
        Op::Bra { pred, .. } | Op::If { pred, .. } | Op::WhileBack { pred, .. } => {
            t = t.max(w.pred_ready[*pred as usize]);
        }
        Op::While | Op::Sync => {}
        Op::Exit | Op::ThenEnd { .. } | Op::IfEnd => return u64::MAX,
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{KernelBuilder, Operand};

    fn setup() -> (DeviceConfig, TimingParams) {
        (
            DeviceConfig::g8800gtx(),
            TimingParams::for_driver(DriverModel::Cuda10),
        )
    }

    /// out[i] = a[i] * 2 — smoke test: values correct AND cycles plausible.
    fn scale_kernel() -> Kernel {
        let mut b = KernelBuilder::new("scale");
        let pa = b.param();
        let po = b.param();
        let i = b.global_thread_index();
        let off = b.imul(i.into(), Operand::ImmU(4));
        let aa = b.iadd(pa.into(), off.into());
        let ao = b.iadd(po.into(), off.into());
        let v = b.ld(MemSpace::Global, aa, 0, 1)[0];
        let r = b.fmul(v.into(), Operand::ImmF(2.0));
        b.st(MemSpace::Global, ao, 0, vec![r.into()]);
        b.finish()
    }

    #[test]
    fn timed_run_is_functionally_correct() {
        let (dev, tp) = setup();
        let k = scale_kernel();
        let mut gmem = GlobalMemory::new(1 << 16);
        let xs: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let a = gmem.alloc_f32(&xs).unwrap();
        let o = gmem.alloc(64 * 4).unwrap();
        let run = time_resident(
            &k,
            &[0],
            64,
            1,
            &[a.0 as u32, o.0 as u32],
            &mut gmem,
            &dev,
            DriverModel::Cuda10,
            &tp,
        )
        .unwrap();
        assert!(
            run.cycles > tp.mem_latency,
            "must include a memory round trip"
        );
        let out = gmem.read_f32(o, 64).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
        assert!(run.transactions >= 4, "2 half-warps × (1 load + 1 store)");
    }

    #[test]
    fn coalesced_loads_cost_less_than_scattered() {
        let (dev, tp) = setup();
        // Coalesced: thread i loads a[i]. Scattered: thread i loads a[7*i]
        // (stride breaks CC-1.0 coalescing).
        let mk = |stride: u32| {
            let mut b = KernelBuilder::new("strided");
            let pa = b.param();
            let po = b.param();
            let i = b.global_thread_index();
            let acc = b.mov(Operand::ImmF(0.0));
            b.for_loop(Operand::ImmU(0), Operand::ImmU(16), 1, |b, it| {
                let idx = b.mad_u(it.into(), Operand::ImmU(64), i.into());
                let off = b.imul(idx.into(), Operand::ImmU(4 * stride));
                let aa = b.iadd(pa.into(), off.into());
                let v = b.ld(MemSpace::Global, aa, 0, 1)[0];
                b.alu_into(acc, crate::ir::AluOp::FAdd, acc.into(), v.into());
            });
            let ao = b.mad_u(i.into(), Operand::ImmU(4), po.into());
            b.st(MemSpace::Global, ao, 0, vec![acc.into()]);
            b.finish()
        };
        let run_one = |stride: u32| {
            let (dev, tp) = setup();
            let mut gmem = GlobalMemory::new(8 << 20);
            let a = gmem.alloc_zeroed(7 << 20).unwrap();
            let o = gmem.alloc(64 * 4).unwrap();
            time_resident(
                &mk(stride),
                &[0],
                64,
                1,
                &[a.0 as u32, o.0 as u32],
                &mut gmem,
                &dev,
                DriverModel::Cuda10,
                &tp,
            )
            .unwrap()
        };
        let _ = (&dev, &tp);
        let coalesced = run_one(1);
        let scattered = run_one(7);
        assert!(
            scattered.cycles > coalesced.cycles,
            "scattered {} should exceed coalesced {}",
            scattered.cycles,
            coalesced.cycles
        );
        assert!(scattered.transactions > coalesced.transactions);
        assert!(scattered.bus_bytes > coalesced.bus_bytes);
    }

    #[test]
    fn more_resident_blocks_hide_latency() {
        let (dev, tp) = setup();
        let k = scale_kernel();
        let grid = 4u32;
        let run_with = |resident: &[u32]| {
            let mut gmem = GlobalMemory::new(1 << 16);
            let a = gmem.alloc_zeroed(grid as u64 * 64 * 4).unwrap();
            let o = gmem.alloc(grid as u64 * 64 * 4).unwrap();
            time_resident(
                &k,
                resident,
                64,
                grid,
                &[a.0 as u32, o.0 as u32],
                &mut gmem,
                &dev,
                DriverModel::Cuda10,
                &tp,
            )
            .unwrap()
        };
        let one = run_with(&[0]);
        let two = run_with(&[0, 1]);
        // Two blocks do twice the work in less than twice the time.
        assert!(
            two.cycles < 2 * one.cycles,
            "two blocks {} vs one {}",
            two.cycles,
            one.cycles
        );
    }

    #[test]
    fn barrier_parks_warps_until_all_arrive() {
        let (dev, tp) = setup();
        let mut b = KernelBuilder::new("bar");
        b.shared_mem(512);
        let po = b.param();
        let tid = b.special(crate::ir::SpecialReg::TidX);
        let sa = b.imul(tid.into(), Operand::ImmU(4));
        let tf = b.reg();
        b.emit(crate::ir::Instr::Unary {
            op: UnaryOp::U2F,
            dst: tf,
            a: tid.into(),
        });
        b.st(MemSpace::Shared, sa, 0, vec![tf.into()]);
        b.sync();
        let v = b.ld(MemSpace::Shared, sa, 0, 1)[0];
        let ao = b.mad_u(tid.into(), Operand::ImmU(4), po.into());
        b.st(MemSpace::Global, ao, 0, vec![v.into()]);
        let k = b.finish();
        let mut gmem = GlobalMemory::new(1 << 12);
        let o = gmem.alloc(128 * 4).unwrap();
        let run = time_resident(
            &k,
            &[0],
            128,
            1,
            &[o.0 as u32],
            &mut gmem,
            &dev,
            DriverModel::Cuda10,
            &tp,
        )
        .unwrap();
        assert!(run.cycles > 0);
        let out = gmem.read_f32(o, 128).unwrap();
        for (t, v) in out.iter().enumerate() {
            assert_eq!(*v, t as f32);
        }
    }

    #[test]
    fn clock_reads_progressing_cycles() {
        let (dev, tp) = setup();
        let mut b = KernelBuilder::new("clk");
        let po = b.param();
        let t0 = b.clock();
        // Some work between the clocks.
        let mut acc = b.mov(Operand::ImmF(1.0));
        for _ in 0..8 {
            acc = b.fmul(acc.into(), Operand::ImmF(1.0001));
        }
        let t1 = b.clock();
        let dt = b.alu(crate::ir::AluOp::ISub, t1.into(), t0.into());
        let tid = b.special(crate::ir::SpecialReg::TidX);
        let ao = b.mad_u(tid.into(), Operand::ImmU(4), po.into());
        b.st(MemSpace::Global, ao, 0, vec![dt.into()]);
        let _ = acc;
        let k = b.finish();
        let mut gmem = GlobalMemory::new(1 << 12);
        let o = gmem.alloc(32 * 4).unwrap();
        time_resident(
            &k,
            &[0],
            32,
            1,
            &[o.0 as u32],
            &mut gmem,
            &dev,
            DriverModel::Cuda10,
            &tp,
        )
        .unwrap();
        let dts = gmem.download(o, 4).unwrap();
        let dt0 = u32::from_le_bytes(dts[0..4].try_into().unwrap());
        // 8 dependent fmuls at issue+RAW each — the delta must at least cover
        // the issue costs.
        assert!(dt0 as u64 >= 8 * tp.issue_alu, "clock delta {dt0}");
    }
}

#[cfg(test)]
mod grid_tests {
    use super::*;
    use crate::ir::{KernelBuilder, Operand};

    /// out[i] = i as float, plus a small compute loop to give blocks a cost.
    fn work_kernel(loop_trips: u32) -> Kernel {
        let mut b = KernelBuilder::new("gridwork");
        let po = b.param();
        let i = b.global_thread_index();
        let acc = b.mov(Operand::ImmF(0.0));
        b.for_loop(Operand::ImmU(0), Operand::ImmU(loop_trips), 1, |b, _| {
            b.alu_into(acc, crate::ir::AluOp::FAdd, acc.into(), Operand::ImmF(1.0));
        });
        let ao = b.mad_u(i.into(), Operand::ImmU(4), po.into());
        b.st(MemSpace::Global, ao, 0, vec![acc.into()]);
        b.finish()
    }

    fn setup(n_threads: u64) -> (DeviceConfig, TimingParams, GlobalMemory, u64) {
        let dev = DeviceConfig::g8800gtx();
        let tp = TimingParams::for_driver(DriverModel::Cuda10);
        let mut gmem = GlobalMemory::new(32 << 20);
        let out = gmem.alloc(n_threads * 4).unwrap();
        (dev, tp, gmem, out.0)
    }

    #[test]
    fn grid_simulation_is_functionally_complete() {
        // Every block of the grid must actually run (including queued ones).
        let k = work_kernel(5);
        let grid = 64u32; // 4 blocks per SM queue on 16 SMs
        let (dev, tp, mut gmem, out) = setup(grid as u64 * 64);
        let run = time_grid(
            &k,
            grid,
            64,
            1,
            &[out as u32],
            &mut gmem,
            &dev,
            DriverModel::Cuda10,
            &tp,
        )
        .unwrap();
        assert!(run.cycles > 0);
        for t in 0..(grid as u64 * 64) {
            let v = gmem.load_f32(out + 4 * t).unwrap();
            assert_eq!(v, 5.0, "thread {t} never ran");
        }
    }

    #[test]
    fn queued_blocks_extend_the_sm_timeline() {
        let k = work_kernel(50);
        let (dev, tp, mut gmem, out) = setup(16 * 4 * 64);
        // 16 blocks = 1 per SM; 64 blocks = 4 per SM queued behind each other.
        let one = time_grid(
            &k,
            16,
            64,
            1,
            &[out as u32],
            &mut gmem.clone(),
            &dev,
            DriverModel::Cuda10,
            &tp,
        )
        .unwrap();
        let four = time_grid(
            &k,
            64,
            64,
            1,
            &[out as u32],
            &mut gmem,
            &dev,
            DriverModel::Cuda10,
            &tp,
        )
        .unwrap();
        assert!(
            four.cycles > 2 * one.cycles,
            "4 sequential blocks per SM: {} vs {}",
            four.cycles,
            one.cycles
        );
        assert!(four.cycles < 6 * one.cycles);
    }

    /// The methodology check: wave extrapolation vs exact dispatch.
    #[test]
    fn wave_extrapolation_tracks_exact_grid_simulation() {
        let k = work_kernel(40);
        let grid = 96u32; // 6 blocks per SM
        let (dev, tp, mut gmem, out) = setup(grid as u64 * 64);
        let exact = time_grid(
            &k,
            grid,
            64,
            2,
            &[out as u32],
            &mut gmem.clone(),
            &dev,
            DriverModel::Cuda10,
            &tp,
        )
        .unwrap();
        // Wave model: simulate 2 resident blocks once, times 3 waves.
        let wave = time_resident(
            &k,
            &[0, 1],
            64,
            grid,
            &[out as u32],
            &mut gmem,
            &dev,
            DriverModel::Cuda10,
            &tp,
        )
        .unwrap();
        let waves = (grid as u64).div_ceil(dev.num_sms as u64 * 2);
        let estimated = wave.cycles * waves;
        let err = (estimated as f64 - exact.cycles as f64).abs() / exact.cycles as f64;
        assert!(
            err < 0.30,
            "wave model {estimated} vs exact {} — {err:.2} relative error too large",
            exact.cycles
        );
    }
}

#[cfg(test)]
mod texture_timed_tests {
    use super::*;
    use crate::ir::{KernelBuilder, Operand};

    /// Streaming texture reads: the first pass misses, a re-read of the same
    /// range hits — and the timed stats expose both.
    #[test]
    fn texture_cache_hits_on_rereads() {
        let mut b = KernelBuilder::new("texloop");
        let base = b.param();
        let out = b.param();
        let tid = b.special(crate::ir::SpecialReg::TidX);
        let addr = b.mad_u(tid.into(), Operand::ImmU(4), base.into());
        let acc = b.mov(Operand::ImmF(0.0));
        b.for_loop(Operand::ImmU(0), Operand::ImmU(4), 1, |b, _| {
            let v = b.ld(MemSpace::Texture, addr, 0, 1)[0];
            b.alu_into(acc, crate::ir::AluOp::FAdd, acc.into(), v.into());
        });
        let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
        b.st(MemSpace::Global, oa, 0, vec![acc.into()]);
        let k = b.finish();

        let dev = DeviceConfig::g8800gtx();
        let tp = TimingParams::for_driver(DriverModel::Cuda10);
        let mut gmem = GlobalMemory::new(1 << 16);
        let data = gmem.alloc_f32(&vec![2.5f32; 64]).unwrap();
        let out_buf = gmem.alloc(64 * 4).unwrap();
        let run = time_resident(
            &k,
            &[0],
            64,
            1,
            &[data.0 as u32, out_buf.0 as u32],
            &mut gmem,
            &dev,
            DriverModel::Cuda10,
            &tp,
        )
        .unwrap();
        // 64 threads × 4 reads = 256 line touches over 8 distinct 32B lines:
        // 8 misses, 248 hits.
        assert_eq!(run.tex_misses, 8);
        assert_eq!(run.tex_hits, 248);
        assert_eq!(gmem.read_f32(out_buf, 1).unwrap()[0], 10.0);
    }
}
