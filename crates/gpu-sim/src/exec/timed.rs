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
use super::machine::{
    exec_instr, live_lane_mask, pred_mask, BlockCtx, Cursor, FetchItem, LaunchEnv,
};
use crate::banks::conflict_degree;
use crate::coalesce::CoalesceCache;
use crate::device::DeviceConfig;
use crate::driver::DriverModel;
use crate::fault::{DeviceError, DeviceResult, FaultKind};
use crate::ir::lower::{lower, LinStmt, Program};
use crate::ir::{Instr, Kernel, MemSpace, UnaryOp};
use crate::mem::{BlockShard, DeviceMem, GlobalMemory};
use crate::texcache::TexCache;
use crate::timing::TimingParams;

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
    cursor: Cursor,
    phase: WarpPhase,
    /// Earliest cycle this warp may issue again.
    resume_at: u64,
    reg_ready: Vec<u64>,
    pred_ready: Vec<u64>,
    /// Completion times of in-flight loads.
    outstanding: Vec<u64>,
    finish: u64,
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
    if resident.is_empty() {
        return bad("no resident blocks".into());
    }
    let mut pending: std::collections::VecDeque<u32> = pending.iter().copied().collect();
    if let Some(b) = pending.iter().chain(resident.iter()).find(|b| **b >= grid) {
        return bad(format!("block id {b} beyond grid of {grid}"));
    }
    let env = LaunchEnv {
        block_dim: block_size,
        grid_dim: grid,
    };
    let n_threads = block_size as usize;
    let warps_per_block = n_threads.div_ceil(32);
    let half = dev.half_warp as usize;

    let mut blocks: Vec<BlockCtx> = resident
        .iter()
        .map(|&b| BlockCtx::new(prog, b, n_threads, params))
        .collect::<DeviceResult<_>>()?;
    let mut warps: Vec<WarpSim> = Vec::new();
    for (bi, _) in resident.iter().enumerate() {
        for w in 0..warps_per_block {
            warps.push(WarpSim {
                block: bi,
                warp_in_block: w,
                cursor: Cursor::new(prog, live_lane_mask(n_threads, w)),
                phase: WarpPhase::Ready,
                resume_at: 0,
                reg_ready: vec![0; prog.n_regs as usize],
                pred_ready: vec![0; prog.n_preds as usize],
                outstanding: Vec::new(),
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
        // Find the warp that can issue earliest (round-robin tie-break).
        let mut best: Option<(u64, usize)> = None;
        for off in 0..warps.len() {
            let wi = (last_issued + 1 + off) % warps.len();
            let Some(t) = earliest_issue(&warps[wi], prog, issue_free, tp) else {
                continue;
            };
            match best {
                Some((bt, _)) if bt <= t => {}
                _ => best = Some((t, wi)),
            }
        }
        let Some((now, wi)) = best else {
            break; // everyone is done (or parked at a barrier — checked below)
        };
        if now > busy_until {
            stats.idle_cycles += now - busy_until;
        }

        last_issued = wi;
        let item = {
            let w = &mut warps[wi];
            match w
                .cursor
                .fetch(prog)
                .expect("issueable warp has an instruction")
            {
                FetchItem::Stmt(s, m) => (Some(s.clone()), m, None),
                FetchItem::WhileBackedge { pred, negate, mask } => {
                    (None, mask, Some((pred, negate)))
                }
            }
        };
        if let (None, mask, Some((pred, negate))) = (&item.0, item.1, item.2) {
            // Divergent-loop back-edge: a branch instruction.
            stats.warp_instructions += 1;
            let w = &warps[wi];
            let cont = pred_mask(&blocks[w.block], w.warp_in_block, mask, pred, negate);
            let w = &mut warps[wi];
            issue_free = now + tp.issue_alu;
            busy_until = busy_until.max(issue_free);
            w.resume_at = issue_free;
            w.cursor.while_backedge(cont);
            w.finish = w.finish.max(issue_free);
            if w.cursor.fetch(prog).is_none() {
                w.phase = WarpPhase::Done;
            }
            continue;
        }
        let (stmt, mask) = (item.0.expect("statement"), item.1);

        match &stmt {
            LinStmt::I(i) => {
                let trace = {
                    let w = &warps[wi];
                    let ctx = &mut blocks[w.block];
                    let wib = w.warp_in_block;
                    exec_instr(i, ctx, wib, mask, &env, gmem, now, None, true)
                        .map_err(|e| e.with_kernel(&prog.name))?
                };
                stats.warp_instructions += 1;
                let w = &mut warps[wi];
                let issue_cost;
                match (i, &trace) {
                    (
                        Instr::Ld {
                            dsts,
                            space: MemSpace::Global,
                            ..
                        },
                        Some(tr),
                    ) => {
                        issue_cost = tp.issue_mem;
                        // Coalesce each half-warp and push transactions
                        // through the memory pipe.
                        let mut data_ready = now + tp.issue_mem + tp.mem_latency;
                        for h in tr.addrs.chunks(half) {
                            for &bytes in co_cache.transaction_sizes(h, tr.width) {
                                let start = mem_free.max(now + tp.issue_mem);
                                mem_free = start + tp.transaction_busy(bytes);
                                data_ready = data_ready.max(start + tp.mem_latency);
                                stats.transactions += 1;
                                stats.bus_bytes += bytes as u64;
                            }
                        }
                        for d in dsts {
                            w.reg_ready[d.0 as usize] = data_ready;
                        }
                        w.outstanding.retain(|&d| d > now);
                        w.outstanding.push(data_ready);
                    }
                    (
                        Instr::St {
                            space: MemSpace::Global,
                            ..
                        },
                        Some(tr),
                    ) => {
                        issue_cost = tp.issue_mem;
                        for h in tr.addrs.chunks(half) {
                            for &bytes in co_cache.transaction_sizes(h, tr.width) {
                                let start = mem_free.max(now + tp.issue_mem);
                                mem_free = start + tp.transaction_busy(bytes);
                                stats.transactions += 1;
                                stats.bus_bytes += bytes as u64;
                            }
                        }
                    }
                    (
                        Instr::Ld {
                            dsts,
                            space: MemSpace::Texture,
                            ..
                        },
                        Some(tr),
                    ) => {
                        // Texture path: no coalescing; 32B-line cache per SM.
                        issue_cost = tp.issue_mem;
                        let mut data_ready = now + tp.issue_mem + tp.tex_hit_latency;
                        for a in tr.addrs.iter().flatten() {
                            for line in TexCache::lines_of(*a, tr.width.bytes()) {
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
                        for d in dsts {
                            w.reg_ready[d.0 as usize] = data_ready;
                        }
                        w.outstanding.retain(|&d| d > now);
                        w.outstanding.push(data_ready);
                    }
                    (
                        Instr::Ld {
                            space: MemSpace::Shared,
                            ..
                        },
                        Some(tr),
                    )
                    | (
                        Instr::St {
                            space: MemSpace::Shared,
                            ..
                        },
                        Some(tr),
                    ) => {
                        let words = tr.width.bytes() / 4;
                        // Worst conflict degree across half-warps and phases.
                        let mut degree = 1u64;
                        for h in tr.addrs.chunks(half) {
                            for phase in 0..words {
                                let phase_addrs: Vec<Option<u64>> =
                                    h.iter().map(|a| a.map(|a| a + 4 * phase)).collect();
                                degree = degree
                                    .max(conflict_degree(&phase_addrs, dev.smem_banks) as u64);
                            }
                        }
                        issue_cost = tp.issue_smem * words * degree;
                        if let Instr::Ld { dsts, .. } = i {
                            for d in dsts {
                                w.reg_ready[d.0 as usize] = now + issue_cost + SMEM_LATENCY;
                            }
                        }
                    }
                    (
                        Instr::Unary {
                            op: UnaryOp::FRsqrt,
                            dst,
                            ..
                        },
                        _,
                    ) => {
                        issue_cost = tp.issue_sfu;
                        w.reg_ready[dst.0 as usize] = now + issue_cost + SFU_RAW_LATENCY;
                    }
                    (Instr::Setp { dst, .. }, _) => {
                        issue_cost = tp.issue_alu;
                        w.pred_ready[dst.0 as usize] = now + issue_cost + ALU_RAW_LATENCY;
                    }
                    _ => {
                        issue_cost = tp.issue_alu;
                        for d in i.defs() {
                            w.reg_ready[d.0 as usize] = now + issue_cost + ALU_RAW_LATENCY;
                        }
                    }
                }
                issue_free = now + issue_cost;
                busy_until = busy_until.max(issue_free);
                w.resume_at = issue_free;
                w.cursor.step();
                w.finish = w.finish.max(issue_free);
                if w.cursor.fetch(prog).is_none() {
                    w.phase = WarpPhase::Done;
                }
            }
            LinStmt::Bra {
                pred,
                negate,
                target,
            } => {
                stats.warp_instructions += 1;
                let w = &warps[wi];
                let m = pred_mask(&blocks[w.block], w.warp_in_block, mask, *pred, *negate);
                if m != 0 && m != mask {
                    let lane = (m ^ mask).trailing_zeros();
                    return Err(
                        DeviceError::new(FaultKind::DivergentBranch { mask, taken: m })
                            .with_kernel(&prog.name)
                            .with_block(blocks[w.block].block_id)
                            .with_thread(w.warp_in_block as u32 * 32 + lane)
                            .with_instruction(now),
                    );
                }
                let taken = m == mask;
                let w = &mut warps[wi];
                issue_free = now + tp.issue_alu;
                busy_until = busy_until.max(issue_free);
                w.resume_at = issue_free;
                w.cursor.branch(taken, *target);
                w.finish = w.finish.max(issue_free);
                if w.cursor.fetch(prog).is_none() {
                    w.phase = WarpPhase::Done;
                }
            }
            LinStmt::IfMasked {
                pred,
                negate,
                then_seq,
                else_seq,
            } => {
                // The branch instruction guarding the region.
                stats.warp_instructions += 1;
                let w = &warps[wi];
                let tm = pred_mask(&blocks[w.block], w.warp_in_block, mask, *pred, *negate);
                let em = mask & !tm;
                let w = &mut warps[wi];
                issue_free = now + tp.issue_alu;
                busy_until = busy_until.max(issue_free);
                w.resume_at = issue_free;
                w.cursor.enter_if(*then_seq, *else_seq, tm, em);
                w.finish = w.finish.max(issue_free);
                if w.cursor.fetch(prog).is_none() {
                    w.phase = WarpPhase::Done;
                }
            }
            LinStmt::WhileMasked {
                pred,
                negate,
                body_seq,
            } => {
                let w = &mut warps[wi];
                issue_free = now + tp.issue_alu;
                busy_until = busy_until.max(issue_free);
                w.resume_at = issue_free;
                w.cursor.enter_while(*body_seq, *pred, *negate, mask);
                w.finish = w.finish.max(issue_free);
                if w.cursor.fetch(prog).is_none() {
                    w.phase = WarpPhase::Done;
                }
            }
            LinStmt::Sync => {
                stats.warp_instructions += 1; // bar.sync is an instruction
                                              // (fallthrough to barrier handling below)
                let w = &mut warps[wi];
                issue_free = now + tp.issue_sync;
                busy_until = busy_until.max(issue_free);
                w.phase = WarpPhase::AtBarrier;
                w.resume_at = issue_free;
                w.finish = w.finish.max(issue_free);
                // Release the barrier if everyone arrived.
                let block = warps[wi].block;
                let all_arrived = warps
                    .iter()
                    .filter(|x| x.block == block)
                    .all(|x| matches!(x.phase, WarpPhase::AtBarrier | WarpPhase::Done));
                if all_arrived {
                    let release = warps
                        .iter()
                        .filter(|x| x.block == block && x.phase == WarpPhase::AtBarrier)
                        .map(|x| x.resume_at)
                        .max()
                        .unwrap_or(now);
                    for x in warps.iter_mut().filter(|x| x.block == block) {
                        if x.phase == WarpPhase::AtBarrier {
                            x.phase = WarpPhase::Ready;
                            x.resume_at = x.resume_at.max(release);
                            x.cursor.step();
                            if x.cursor.fetch(prog).is_none() {
                                x.phase = WarpPhase::Done;
                            }
                        }
                    }
                }
            }
        }

        // Block retirement → admit the next pending block into the slot.
        if !pending.is_empty() {
            let slot = warps[wi].block;
            let all_done = warps
                .iter()
                .filter(|x| x.block == slot)
                .all(|x| x.phase == WarpPhase::Done);
            if all_done {
                if let Some(next_id) = pending.pop_front() {
                    let retire = warps
                        .iter()
                        .filter(|x| x.block == slot)
                        .map(|x| x.finish)
                        .max()
                        .unwrap_or(0);
                    blocks[slot] = BlockCtx::new(prog, next_id, n_threads, params)?;
                    for x in warps.iter_mut().filter(|x| x.block == slot) {
                        x.cursor = Cursor::new(prog, live_lane_mask(n_threads, x.warp_in_block));
                        x.phase = WarpPhase::Ready;
                        x.resume_at = retire;
                        x.reg_ready.iter_mut().for_each(|r| *r = retire);
                        x.pred_ready.iter_mut().for_each(|r| *r = retire);
                        x.outstanding.clear();
                        x.finish = retire;
                    }
                }
            }
        }
    }

    // Sanity: nobody left parked at a barrier.
    if !warps.iter().all(|w| w.phase == WarpPhase::Done) {
        return Err(DeviceError::new(FaultKind::Deadlock {
            reason: "warp parked at a barrier at end of simulation".into(),
        })
        .with_kernel(&prog.name));
    }
    assert!(pending.is_empty(), "blocks left unadmitted");
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

    // One finished SM-queue: the shard's buffered writes plus its run result.
    type QueueOutcome = (Vec<(u64, u32)>, DeviceResult<TimedRun>);
    let base: &GlobalMemory = gmem;
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut outcomes: Vec<Option<QueueOutcome>> = (0..queues.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.min(queues.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut produced = Vec::new();
                    loop {
                        let qi = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(queue) = queues.get(qi) else {
                            break;
                        };
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
                        produced.push((qi, (shard.into_writes(), res)));
                    }
                    produced
                })
            })
            .collect();
        for h in handles {
            for (qi, o) in h.join().expect("timed worker thread panicked") {
                outcomes[qi] = Some(o);
            }
        }
    });

    // Deterministic merge, ascending SM index: commit each SM's writes (the
    // faulting SM's partial writes included — the same side effects the
    // sequential loop leaves behind), return the lowest-SM error if any.
    for (writes, res) in outcomes.into_iter().flatten() {
        for (a, v) in writes {
            GlobalMemory::store_u32(gmem, a, v).map_err(|e| e.with_kernel(&prog.name))?;
        }
        total.merge(&res?);
    }
    Ok(total)
}

/// Earliest cycle at which this warp could issue its next instruction, or
/// `None` if it cannot issue at all right now (done, or parked at a barrier).
fn earliest_issue(w: &WarpSim, prog: &Program, issue_free: u64, tp: &TimingParams) -> Option<u64> {
    if w.phase != WarpPhase::Ready {
        return None;
    }
    // Peek the next statement without mutating the cursor: clone it (frames
    // are tiny).
    let mut c = w.cursor.clone();
    let item = c.fetch(prog)?;
    let mut t = issue_free.max(w.resume_at);
    let stmt = match item {
        FetchItem::Stmt(s, _) => s,
        FetchItem::WhileBackedge { pred, .. } => {
            return Some(t.max(w.pred_ready[pred.0 as usize]));
        }
    };
    match stmt {
        LinStmt::I(i) => {
            for u in i.uses() {
                t = t.max(w.reg_ready[u.0 as usize]);
            }
            if let Instr::Ld {
                space: MemSpace::Global,
                ..
            } = i
            {
                let in_flight = w.outstanding.iter().filter(|&&done| done > t).count() as u32;
                if in_flight >= tp.max_outstanding_loads {
                    let mut completions: Vec<u64> =
                        w.outstanding.iter().copied().filter(|&d| d > t).collect();
                    completions.sort_unstable();
                    let idx = completions.len() - tp.max_outstanding_loads as usize;
                    t = t.max(completions[idx]);
                }
            }
        }
        LinStmt::Bra { pred, .. } | LinStmt::IfMasked { pred, .. } => {
            t = t.max(w.pred_ready[pred.0 as usize]);
        }
        LinStmt::WhileMasked { .. } | LinStmt::Sync => {}
    }
    Some(t)
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
        b.emit(Instr::Unary {
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
