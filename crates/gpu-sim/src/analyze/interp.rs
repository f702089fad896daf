//! The per-warp abstract interpreter behind [`crate::analyze`].
//!
//! The interpreter walks a kernel's structured body once per (block, warp)
//! with a register file of abstract values drawn from the interval
//! lattice of [`super::domain`]: `Exact(bits)` when the value is statically
//! known, `Interval(lo, hi)` when only bounds are known (data-dependent but
//! bounded loops and branches), `Top` when nothing is. Exact arithmetic
//! mirrors `exec::machine` bit-for-bit (the same wrapping u32 ops, the same
//! `f32::from_bits` float rules, the same `wrapping_add`-then-widen address
//! computation), so whenever every input of an address is exact the derived
//! per-lane addresses are *exactly* the addresses the dynamic engines see —
//! which is what lets the static transaction prediction feed the very same
//! [`crate::coalesce::coalesce_half_warp`] oracle the timed executor uses
//! (through the same per-shape [`CoalesceCache`]) and come out equal.
//!
//! Each register is either **uniform** — one value that every live lane
//! holds — or a value per lane ([`WarpReg`]). Everything a kernel derives
//! from launch constants, parameters and broadcast loads is uniform: the
//! paper's force kernels read each staged body from shared memory on every
//! thread, and 99.85 % of their ALU, `mad` and unary warp instructions have
//! only uniform sources. Such an instruction runs its transfer function once
//! and, under a mask of every live lane, stores the result once. A write
//! under a partial mask (an exact `If` on the thread index) makes the
//! register per-lane; the next write to every live lane makes it uniform
//! again. Joins and the fixpoint's stability test go lane by lane over the
//! live lanes, once for a pair of uniform registers, so the abstract state,
//! the round counts and the widening are those of a per-lane walk. A memory
//! access through a uniform base computes one address.
//!
//! Non-affine control flow is over-approximated rather than abandoned:
//!
//! * an `If` whose predicate is not statically known walks both branches
//!   from the same entry state and **joins** the results (each lane takes
//!   one branch or the other, so the join covers both);
//! * a loop whose trip count is not statically known runs a **fixpoint with
//!   widening** over its body to find an invariant state, then one recorded
//!   pass under a trip-count interval `[lo, hi]` capped by the analysis
//!   budget — memory sites inside accumulate `[best, worst]` transaction
//!   bounds scaled by the trip interval instead of exact counts.
//!
//! Sites whose addresses are not exact are still *inexact* (excluded from
//! `predicted_transactions`, reported via an `unanalyzable` info diagnostic)
//! but now carry interval address ranges for the bounds certifier and
//! `[tx_lo, tx_hi]` transaction bounds for the cost model.
//!
//! The cross-thread race check summarizes a block's exact shared accesses
//! in one fixed-size [`RaceCell`] per `(barrier phase, word)`: the cell's
//! first access, its first access by another thread than the first one's,
//! and its first write. The check reports the first write and the first
//! access by a thread other than the writer's, which the summary determines
//! (see [`RaceCell::race`]), so the block's cells, sorted by
//! `(phase, word)`, yield the same findings in the same order as a scan
//! over every access would. An access at a uniform address records only
//! the first two lanes of its mask: after them every cell it touches holds
//! its second thread and, for a store, its first write, so the other lanes
//! would change nothing.

use std::collections::BTreeMap;

use simcore::hash::{FastMap, FastSet};

use super::domain::{self, AbsVal};
use super::{AnalysisConfig, Diagnostic, LintKind, Severity};
use crate::banks::conflict_degree;
use crate::coalesce::{AccessWidth, CoalesceCache};
use crate::fault::FaultSite;
use crate::ir::count::trip_count;
/// The exact scalar semantics the `Exact` domain and [`super::verify`]'s
/// constant folder evaluate — the executors' own, defined once in
/// [`crate::ir`].
pub(crate) use crate::ir::{alu, compare, mad, unary};
use crate::ir::{
    AluOp, Instr, InstrIndexer, Kernel, MemSpace, Operand, Pred, Reg, SpecialReg, Stmt,
};

/// Warp width (matches `exec::machine::WARP`).
const WARP: usize = 32;

/// Fixpoint rounds before the all-`Top` fallback. Widening makes each round
/// strictly ascend a height-2 lattice per register, so real kernels converge
/// in a handful of rounds; the cap is a backstop, not a tuning knob.
const FIX_ROUNDS: u32 = 64;

/// A statement annotated with the stable instruction indices of
/// [`InstrIndexer`] — shared coordinate system with `ir::pretty` and the
/// executors' retired-instruction counters.
pub(crate) enum IStmt<'k> {
    /// A plain instruction and its index.
    I(u64, &'k Instr),
    /// A counted loop with the indices of its lowered init `mov` and
    /// `add`/`setp`/`bra` latch triple.
    For {
        init: u64,
        var: Reg,
        start: &'k Operand,
        end: &'k Operand,
        step: u32,
        body: Vec<IStmt<'k>>,
        latch: (u64, u64, u64),
    },
    /// Masked conditional (no indices: `If` markers do not retire).
    If {
        pred: Pred,
        negate: bool,
        then: Vec<IStmt<'k>>,
        els: Vec<IStmt<'k>>,
    },
    /// Block barrier (no index).
    Sync,
    /// Divergent bottom-tested loop and the index of its backedge branch.
    While {
        pred: Pred,
        negate: bool,
        body: Vec<IStmt<'k>>,
        backedge: u64,
    },
}

/// Annotate a statement list with stable instruction indices.
pub(crate) fn index_stmts<'k>(stmts: &'k [Stmt], ix: &mut InstrIndexer) -> Vec<IStmt<'k>> {
    stmts
        .iter()
        .map(|s| match s {
            Stmt::I(i) => IStmt::I(ix.instr(), i),
            Stmt::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let init = ix.instr();
                let body = index_stmts(body, ix);
                let latch = ix.for_latch();
                IStmt::For {
                    init,
                    var: *var,
                    start,
                    end,
                    step: *step,
                    body,
                    latch,
                }
            }
            Stmt::If {
                pred,
                negate,
                then,
                els,
            } => IStmt::If {
                pred: *pred,
                negate: *negate,
                then: index_stmts(then, ix),
                els: index_stmts(els, ix),
            },
            Stmt::Sync => IStmt::Sync,
            Stmt::While { pred, negate, body } => {
                let body = index_stmts(body, ix);
                let backedge = ix.while_backedge();
                IStmt::While {
                    pred: *pred,
                    negate: *negate,
                    body,
                    backedge,
                }
            }
        })
        .collect()
}

/// Does this statement list (re)define `var`? Loops whose body clobbers the
/// induction variable lose the a-priori hull `run_for_abstract` computes.
fn body_writes(stmts: &[IStmt<'_>], var: Reg) -> bool {
    stmts.iter().any(|s| match s {
        IStmt::I(_, i) => match i {
            Instr::Mov { dst, .. }
            | Instr::Special { dst, .. }
            | Instr::Alu { dst, .. }
            | Instr::Mad { dst, .. }
            | Instr::Unary { dst, .. }
            | Instr::Clock { dst } => *dst == var,
            Instr::Ld { dsts, .. } => dsts.contains(&var),
            Instr::Setp { .. } | Instr::St { .. } => false,
        },
        IStmt::For {
            var: v, body: b, ..
        } => *v == var || body_writes(b, var),
        IStmt::If { then, els, .. } => body_writes(then, var) || body_writes(els, var),
        IStmt::While { body: b, .. } => body_writes(b, var),
        IStmt::Sync => false,
    })
}

/// How per-lane address deltas at a site have looked so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StrideTrack {
    /// No adjacent-lane pair observed yet.
    Unset,
    /// Every adjacent active lane pair differed by this many bytes.
    Const(i64),
    /// Mixed deltas.
    Mixed,
}

/// Accumulated static facts about one `Ld`/`St` site.
pub(crate) struct SiteAcc {
    pub instr: u64,
    pub space: MemSpace,
    pub is_load: bool,
    pub width_words: u32,
    /// Every execution of this site had fully known, in-spec addresses.
    pub exact: bool,
    /// A lane was seen with a misaligned address (dynamic run would fault).
    pub misaligned: bool,
    pub transactions: u64,
    pub bus_bytes: u64,
    /// Transactions a perfectly coalesced access pattern would need.
    pub ideal: u64,
    /// Half-warp issues observed (with at least one active lane).
    pub half_warps: u64,
    pub stride: StrideTrack,
    /// Worst shared-memory bank-conflict degree (shared sites only).
    pub bank_degree: u32,
    /// Best-case transaction bound (global sites; equals `transactions`
    /// when the site is exact).
    pub tx_lo: u64,
    /// Worst-case transaction bound (global sites; equals `transactions`
    /// when the site is exact).
    pub tx_hi: u64,
    /// Worst-case half-warp issue bound (trip-interval scaled).
    pub half_warps_hi: u64,
    /// Lowest byte this site can touch (inclusive; `u64::MAX` = none seen).
    pub addr_lo: u64,
    /// One past the highest byte this site can touch (exclusive).
    pub addr_hi: u64,
    /// Some execution's address range could not be bounded at all.
    pub addr_unbounded: bool,
    /// Kernel parameter holding the base address of the buffer this site
    /// falls in (global sites only): the largest nonzero parameter value
    /// that does not exceed every observed address. `None` until a
    /// recorded execution attributes the site.
    pub param_base: Option<u16>,
    /// Different executions attributed the site to different parameters
    /// (or some execution could not be attributed at all) — the site does
    /// not belong to a single buffer.
    pub param_mixed: bool,
}

impl SiteAcc {
    fn new(instr: u64, space: MemSpace, is_load: bool, width_words: u32) -> SiteAcc {
        SiteAcc {
            instr,
            space,
            is_load,
            width_words,
            exact: true,
            misaligned: false,
            transactions: 0,
            bus_bytes: 0,
            ideal: 0,
            half_warps: 0,
            stride: StrideTrack::Unset,
            bank_degree: 1,
            tx_lo: 0,
            tx_hi: 0,
            half_warps_hi: 0,
            addr_lo: u64::MAX,
            addr_hi: 0,
            addr_unbounded: false,
            param_base: None,
            param_mixed: false,
        }
    }
}

/// One thread's access to one shared-memory word.
#[derive(Clone, Copy)]
struct SharedAccess {
    thread: u32,
    is_write: bool,
    instr: u64,
}

/// What the race check keeps of one `(barrier phase, shared word)` cell,
/// over its accesses in the order the interpreter visits them (warp by
/// warp, then program order, then lane order).
#[derive(Clone, Copy)]
struct RaceCell {
    first: SharedAccess,
    /// The first access by a thread other than `first`'s.
    second: Option<SharedAccess>,
    /// The first write.
    write: Option<SharedAccess>,
}

impl RaceCell {
    fn new(a: SharedAccess) -> RaceCell {
        RaceCell {
            first: a,
            second: None,
            write: a.is_write.then_some(a),
        }
    }

    fn record(&mut self, a: SharedAccess) {
        if self.second.is_none() && a.thread != self.first.thread {
            self.second = Some(a);
        }
        if self.write.is_none() && a.is_write {
            self.write = Some(a);
        }
    }

    /// The first write, and the first access by another thread than the
    /// writer's: `first` when the writer's thread differs from it, else
    /// `second` (every access before `second` is by `first`'s thread).
    fn race(&self) -> Option<(SharedAccess, SharedAccess)> {
        let writer = self.write?;
        let other = if writer.thread != self.first.thread {
            self.first
        } else {
            self.second?
        };
        Some((writer, other))
    }
}

/// The race cells of one block, keyed by `(barrier phase, word)`.
type RaceCells = FastMap<(u64, u64), RaceCell>;

/// What a diagnostic is deduplicated on: one finding per kind and site.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Finding {
    BarrierDeadlock,
    /// The two racing instructions, lower index first.
    SharedRace(u64, u64),
    /// A data-dependent `While`, by backedge index.
    While(u64),
    /// A loop over the interpretation budget, by backedge index.
    Budget(u64),
    /// A divergent loop backedge, by backedge index.
    DivergentLoop(u64),
    /// A barrier under divergence: proven (error) or possible (warning).
    DivergentSync {
        proven: bool,
    },
    // Memory-access findings, by instruction index.
    TextureWrite(u64),
    Misaligned(u64),
    SharedOob(u64),
}

/// Where the interpreter deposits everything it learns.
pub(crate) struct Sink {
    pub sites: BTreeMap<u64, SiteAcc>,
    pub diags: Vec<Diagnostic>,
    /// The global-transaction prediction covers every dynamic transaction.
    pub exact: bool,
    dedup: FastSet<Finding>,
}

impl Sink {
    pub(crate) fn new() -> Sink {
        Sink {
            sites: BTreeMap::new(),
            diags: Vec::new(),
            exact: true,
            dedup: FastSet::default(),
        }
    }

    /// Record the first finding of each kind and site; later ones are
    /// dropped before their diagnostic is built.
    fn push_once(&mut self, key: Finding, d: impl FnOnce() -> Diagnostic) {
        if self.dedup.insert(key) {
            self.diags.push(d());
        }
    }
}

fn site_at(kernel: &str, block: u32, thread: Option<u32>, instr: Option<u64>) -> FaultSite {
    FaultSite {
        kernel: Some(kernel.to_string()),
        block: Some(block),
        thread,
        instruction: instr,
    }
}

/// Run the abstract interpretation over every (block, warp) of the launch,
/// then the per-block race and barrier-deadlock checks.
pub(crate) fn interpret(
    kernel: &Kernel,
    tree: &[IStmt<'_>],
    cfg: &AnalysisConfig,
    sink: &mut Sink,
) {
    let warps = cfg.block.div_ceil(WARP as u32);
    let mut coalesce = CoalesceCache::new(cfg.driver);
    let mut races = RaceCells::default();
    for block_id in 0..cfg.grid {
        let mut sync_counts: Vec<u64> = Vec::new();
        let mut any_uncertain = false;
        let mut any_aborted = false;
        for w in 0..warps {
            let mut wi = WarpInterp::new(kernel, cfg, block_id, w, sink, &mut races, &mut coalesce);
            let live = wi.live;
            let aborted = wi.walk(tree, live, true).is_err();
            sync_counts.push(wi.sync_count);
            any_uncertain |= wi.sync_uncertain;
            any_aborted |= aborted;
        }
        if !any_aborted && !any_uncertain {
            check_deadlock(kernel, block_id, &sync_counts, sink);
        }
        check_races(kernel, block_id, &mut races, sink);
    }
}

/// Unequal per-warp barrier counts: some warp waits at a `bar.sync` the
/// others never reach.
fn check_deadlock(kernel: &Kernel, block_id: u32, sync_counts: &[u64], sink: &mut Sink) {
    let min = sync_counts.iter().min().copied().unwrap_or(0);
    let max = sync_counts.iter().max().copied().unwrap_or(0);
    if min != max {
        sink.push_once(Finding::BarrierDeadlock, || Diagnostic {
            severity: Severity::Error,
            kind: LintKind::BarrierDeadlock,
            site: site_at(&kernel.name, block_id, None, None),
            message: format!(
                "warps of the same block retire different numbers of barriers ({min} vs \
                 {max}); the block hangs at bar.sync"
            ),
            fixit: Some(
                "make every warp execute the same barriers: move the Sync out of divergent \
                 control flow"
                    .to_string(),
            ),
        });
    }
}

/// Same shared word, same barrier interval, more than one thread, at least
/// one writer: the inter-thread ordering is undefined. Drains the block's
/// cells, reporting them in `(phase, word)` order.
fn check_races(kernel: &Kernel, block_id: u32, cells: &mut RaceCells, sink: &mut Sink) {
    let mut races: Vec<((u64, u64), (SharedAccess, SharedAccess))> = cells
        .drain()
        .filter_map(|(key, cell)| Some((key, cell.race()?)))
        .collect();
    races.sort_unstable_by_key(|&(key, _)| key);
    for ((phase, word), (writer, other)) in races {
        let lo = writer.instr.min(other.instr);
        let hi = writer.instr.max(other.instr);
        sink.push_once(Finding::SharedRace(lo, hi), || Diagnostic {
            severity: Severity::Error,
            kind: LintKind::SharedRace,
            site: site_at(&kernel.name, block_id, Some(other.thread), Some(hi)),
            message: format!(
                "shared word {word} is written by thread {} (instruction {}) and {} by \
                 thread {} (instruction {}) in the same barrier interval ({phase})",
                writer.thread,
                writer.instr,
                if other.is_write {
                    "also written"
                } else {
                    "read"
                },
                other.thread,
                other.instr
            ),
            fixit: Some("insert a Sync between the write and the cross-thread access".to_string()),
        });
    }
}

/// One register of a warp: one value that every live lane holds, or a
/// value per lane. Lanes outside the warp's live mask are never read, so a
/// uniform register says nothing about them.
#[derive(Debug, PartialEq)]
enum WarpReg<T> {
    Uniform(T),
    PerLane(Box<[T; WARP]>),
}

impl<T: Copy> Clone for WarpReg<T> {
    fn clone(&self) -> Self {
        match self {
            WarpReg::Uniform(v) => WarpReg::Uniform(*v),
            WarpReg::PerLane(l) => WarpReg::PerLane(l.clone()),
        }
    }

    /// Reuses the lane array when both sides are per-lane.
    fn clone_from(&mut self, src: &Self) {
        match (&mut *self, src) {
            (WarpReg::PerLane(dst), WarpReg::PerLane(l)) => **dst = **l,
            (dst, src) => *dst = src.clone(),
        }
    }
}

impl<T: Copy + PartialEq> WarpReg<T> {
    fn get(&self, lane: usize) -> T {
        match self {
            WarpReg::Uniform(v) => *v,
            WarpReg::PerLane(l) => l[lane],
        }
    }

    fn is_uniform(&self) -> bool {
        matches!(self, WarpReg::Uniform(_))
    }

    /// Store `v` on the lanes of `mask`, a subset of the warp's `live`
    /// lanes: the register is uniform after a write to every live lane.
    fn set(&mut self, mask: u32, live: u32, v: T) {
        match self {
            _ if mask == live => *self = WarpReg::Uniform(v),
            WarpReg::Uniform(u) if *u == v => {}
            _ => self.map_lanes(mask, |_, _| v),
        }
    }

    /// Replace each lane `l` of `mask` holding `x` by `f(l, x)`; the
    /// register holds a value per lane afterwards.
    fn map_lanes(&mut self, mask: u32, mut f: impl FnMut(usize, T) -> T) {
        match self {
            WarpReg::PerLane(l) => {
                for lane in lanes(mask) {
                    l[lane] = f(lane, l[lane]);
                }
            }
            WarpReg::Uniform(v) => {
                let mut l = Box::new([*v; WARP]);
                for lane in lanes(mask) {
                    l[lane] = f(lane, l[lane]);
                }
                *self = WarpReg::PerLane(l);
            }
        }
    }

    /// Merge `other` into this register over the `live` lanes, lane by lane
    /// as `f(mine, theirs)`; two uniform registers merge once.
    fn merge(&mut self, other: &WarpReg<T>, live: u32, mut f: impl FnMut(T, T) -> T) {
        match (&*self, other) {
            (WarpReg::Uniform(a), WarpReg::Uniform(b)) => *self = WarpReg::Uniform(f(*a, *b)),
            _ => self.map_lanes(live, |l, a| f(a, other.get(l))),
        }
    }
}

/// A warp's register file of one kind, indexed by register.
type RegFile<T> = Vec<WarpReg<T>>;

/// A copy of the value state, for branch joins and loop fixpoints.
struct Snapshot {
    regs: RegFile<AbsVal>,
    preds: RegFile<Option<bool>>,
}

/// Per-warp interpreter state.
struct WarpInterp<'a, 'k> {
    cfg: &'a AnalysisConfig,
    kernel: &'k Kernel,
    block_id: u32,
    warp: u32,
    /// Mask of lanes that exist (thread id < block size).
    live: u32,
    /// Abstract register values, each uniform or per lane.
    regs: RegFile<AbsVal>,
    preds: RegFile<Option<bool>>,
    sync_count: u64,
    sync_uncertain: bool,
    /// `false` during fixpoint stabilization walks: value state evolves but
    /// nothing is deposited in the sink (no sites, no diagnostics, no
    /// events, no barrier accounting) — only the final recorded pass counts.
    record: bool,
    /// `[lo, hi]` bound on how many times the currently-walked statement
    /// executes dynamically (product of enclosing trip intervals; `lo` drops
    /// to 0 inside a branch that may be skipped). Scales the per-site
    /// transaction bounds.
    mult: (u64, u64),
    sink: &'a mut Sink,
    /// The block's race cells, shared by its warps.
    races: &'a mut RaceCells,
    /// Transaction sizes per half-warp access shape, shared by every warp
    /// of the launch.
    coalesce: &'a mut CoalesceCache,
}

/// The lanes set in `mask`, lowest first.
fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        if rest == 0 {
            return None;
        }
        let l = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        Some(l)
    })
}

impl<'a, 'k> WarpInterp<'a, 'k> {
    fn new(
        kernel: &'k Kernel,
        cfg: &'a AnalysisConfig,
        block_id: u32,
        warp: u32,
        sink: &'a mut Sink,
        races: &'a mut RaceCells,
        coalesce: &'a mut CoalesceCache,
    ) -> Self {
        let first = warp * WARP as u32;
        let live = if cfg.block >= first + WARP as u32 {
            u32::MAX
        } else {
            (1u32 << (cfg.block - first)) - 1
        };
        // Registers zero-init like the executors' `Block`, params bound to Reg(0..).
        let mut regs =
            vec![WarpReg::Uniform(AbsVal::Exact(0)); kernel.n_regs.max(kernel.n_params) as usize];
        for (p, v) in cfg.params.iter().enumerate() {
            regs[p] = WarpReg::Uniform(AbsVal::Exact(*v));
        }
        let preds = vec![WarpReg::Uniform(None); kernel.n_preds as usize];
        WarpInterp {
            cfg,
            kernel,
            block_id,
            warp,
            live,
            regs,
            preds,
            sync_count: 0,
            sync_uncertain: false,
            record: true,
            mult: (1, 1),
            sink,
            races,
            coalesce,
        }
    }

    fn operand(&self, lane: usize, op: &Operand) -> AbsVal {
        match op {
            Operand::R(r) => self.regs[r.0 as usize].get(lane),
            Operand::ImmF(f) => AbsVal::Exact(f.to_bits()),
            Operand::ImmU(u) => AbsVal::Exact(*u),
        }
    }

    /// Does `op` hold the same value on every live lane?
    fn is_uniform(&self, op: &Operand) -> bool {
        match op {
            Operand::R(r) => self.regs[r.0 as usize].is_uniform(),
            Operand::ImmF(_) | Operand::ImmU(_) => true,
        }
    }

    /// Write `f(lane)` to register `dst` of `file` on the lanes of `mask`.
    /// When `uniform` (every input of `f` is uniform, so every lane gets the
    /// same value) `f` runs once, for the lowest lane.
    fn write<T: Copy + PartialEq>(
        &mut self,
        file: fn(&mut Self) -> &mut RegFile<T>,
        dst: usize,
        mask: u32,
        uniform: bool,
        f: impl Fn(&Self, usize) -> T,
    ) {
        let Some(first) = lanes(mask).next() else {
            return;
        };
        let v = f(self, first);
        let live = self.live;
        if uniform {
            file(self)[dst].set(mask, live, v);
        } else {
            let mut vals = [v; WARP];
            for l in lanes(mask).skip(1) {
                vals[l] = f(self, l);
            }
            file(self)[dst].map_lanes(mask, |l, _| vals[l]);
        }
    }

    fn write_reg(
        &mut self,
        dst: Reg,
        mask: u32,
        uniform: bool,
        f: impl Fn(&Self, usize) -> AbsVal,
    ) {
        self.write(|wi| &mut wi.regs, dst.0 as usize, mask, uniform, f);
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            regs: self.regs.clone(),
            preds: self.preds.clone(),
        }
    }

    fn restore(&mut self, s: &Snapshot) {
        self.regs.clone_from(&s.regs);
        self.preds.clone_from(&s.preds);
    }

    /// Pointwise join of the current state with `s` (post-states of the two
    /// arms of a branch): registers via the lattice join, predicates kept
    /// only when both arms agree.
    fn join_with(&mut self, s: &Snapshot) {
        for (r, theirs) in self.regs.iter_mut().zip(&s.regs) {
            r.merge(theirs, self.live, domain::join);
        }
        for (p, theirs) in self.preds.iter_mut().zip(&s.preds) {
            p.merge(theirs, self.live, |a, b| if a == b { a } else { None });
        }
    }

    /// Walk a statement list under a lane mask. `exact` means the mask and
    /// every iteration count on the path here were statically resolved.
    /// `Err(())` aborts the warp (mirrors a dynamic `DivergentBranch` fault).
    fn walk(&mut self, stmts: &[IStmt<'k>], mask: u32, exact: bool) -> Result<(), ()> {
        for s in stmts {
            match s {
                IStmt::I(idx, i) => self.exec(*idx, i, mask, exact),
                IStmt::Sync => self.sync(exact, mask),
                IStmt::If {
                    pred,
                    negate,
                    then,
                    els,
                } => {
                    let p = &self.preds[pred.0 as usize];
                    let taken =
                        lanes_where(mask, p.is_uniform(), |l| p.get(l).map(|v| v != *negate));
                    if let (true, Some(then_mask)) = (exact, taken) {
                        let else_mask = mask & !then_mask;
                        if then_mask != 0 {
                            self.walk(then, then_mask, true)?;
                        }
                        if else_mask != 0 {
                            self.walk(els, else_mask, true)?;
                        }
                    } else {
                        // Unknown predicate: each lane takes one arm or the
                        // other, so walk both from the same entry state and
                        // join the post-states. Sites inside may execute
                        // zero times — the lower execution bound drops to 0.
                        let saved_mult = self.mult;
                        self.mult.0 = 0;
                        let entry = self.snapshot();
                        let r_then = self.walk(then, mask, false);
                        let after_then = self.snapshot();
                        self.restore(&entry);
                        let r_els = self.walk(els, mask, false);
                        self.join_with(&after_then);
                        self.mult = saved_mult;
                        r_then?;
                        r_els?;
                    }
                }
                IStmt::For {
                    init: _,
                    var,
                    start,
                    end,
                    step,
                    body,
                    latch,
                } => {
                    self.run_for(*var, start, end, *step, body, *latch, mask, exact)?;
                }
                IStmt::While { body, backedge, .. } => {
                    // Data-dependent trip count and per-lane mask narrowing:
                    // the body is stabilized to an invariant state, then
                    // recorded once under the trip-count interval
                    // [1, trip_budget].
                    let budget = self.cfg.trip_budget.max(1);
                    if self.record {
                        let (kernel, block) = (self.kernel, self.block_id);
                        self.sink.exact = false;
                        self.sink
                            .push_once(Finding::While(*backedge), || Diagnostic {
                                severity: Severity::Info,
                                kind: LintKind::Unanalyzable,
                                site: site_at(&kernel.name, block, None, Some(*backedge)),
                                message: format!(
                                    "do/while trip count is data-dependent; the body is \
                                     analyzed under the trip-count interval [1, {budget}]"
                                ),
                                fixit: None,
                            });
                    }
                    self.fix_body(body, mask)?;
                    let saved_mult = self.mult;
                    self.mult = (saved_mult.0, saved_mult.1.saturating_mul(budget));
                    let r = self.walk(body, mask, false);
                    self.mult = saved_mult;
                    r?;
                }
            }
        }
        Ok(())
    }

    /// Iterate the loop body (without recording) until the value state is a
    /// post-fixpoint: `state ⊒ post(state)`. Joins for the first round,
    /// widening (straight to `Top` on growth) afterwards, with an all-`Top`
    /// fallback at [`FIX_ROUNDS`] as a termination backstop.
    fn fix_body(&mut self, body: &[IStmt<'k>], mask: u32) -> Result<(), ()> {
        let saved_record = self.record;
        self.record = false;
        let mut round = 0u32;
        loop {
            round += 1;
            if round > FIX_ROUNDS {
                for r in self.regs.iter_mut() {
                    r.set(mask, self.live, AbsVal::Top);
                }
                for p in self.preds.iter_mut() {
                    p.set(mask, self.live, None);
                }
                break;
            }
            let pre = self.snapshot();
            if self.walk(body, mask, false).is_err() {
                self.record = saved_record;
                return Err(());
            }
            // Compared lane for lane over the live lanes (once for a pair
            // of uniform registers), so the rounds match a per-lane walk.
            let mut stable = true;
            for (r, old) in self.regs.iter_mut().zip(&pre.regs) {
                r.merge(old, self.live, |new, old| {
                    let mut merged = domain::join(old, new);
                    if round >= 2 {
                        merged = domain::widen(old, merged);
                    }
                    stable &= merged == old;
                    merged
                });
            }
            for (p, old) in self.preds.iter_mut().zip(&pre.preds) {
                p.merge(old, self.live, |new, old| {
                    let merged = if old == new { old } else { None };
                    stable &= merged == old;
                    merged
                });
            }
            if stable {
                break;
            }
        }
        self.record = saved_record;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn run_for(
        &mut self,
        var: Reg,
        start: &Operand,
        end: &Operand,
        step: u32,
        body: &[IStmt<'k>],
        latch: (u64, u64, u64),
        mask: u32,
        exact: bool,
    ) -> Result<(), ()> {
        let v = var.0 as usize;
        if exact {
            self.write_reg(var, mask, self.is_uniform(start), |wi, l| {
                wi.operand(l, start)
            });
        }
        let starts_exact = exact
            && lanes(mask)
                .take(if self.regs[v].is_uniform() { 1 } else { WARP })
                .all(|l| self.regs[v].get(l).as_exact().is_some());
        if !starts_exact {
            return self.run_for_abstract(var, start, end, step, body, mask);
        }
        // The lowered form is bottom-tested: the body runs at least once.
        let mut iters: u64 = 0;
        loop {
            iters += 1;
            if iters > self.cfg.max_steps {
                self.sink.exact = false;
                let (kernel, block, max_steps) = (self.kernel, self.block_id, self.cfg.max_steps);
                self.sink
                    .push_once(Finding::Budget(latch.2), || Diagnostic {
                        severity: Severity::Info,
                        kind: LintKind::Unanalyzable,
                        site: site_at(&kernel.name, block, None, Some(latch.2)),
                        message: format!(
                            "loop exceeded the static interpretation budget of {max_steps} \
                             iterations; state after it is treated as unknown"
                        ),
                        fixit: None,
                    });
                return self.run_for_abstract(var, start, end, step, body, mask);
            }
            self.walk(body, mask, true)?;
            // Latch: add var, var, step; setp var < end; bra.
            let latch_uniform = self.regs[v].is_uniform();
            self.write_reg(var, mask, latch_uniform, |wi, l| {
                let r = wi.regs[v].get(l);
                match r.as_exact() {
                    Some(x) => AbsVal::Exact(x.wrapping_add(step)),
                    None => domain::alu_abs(AluOp::IAdd, r, AbsVal::Exact(step)),
                }
            });
            let uniform = self.regs[v].is_uniform() && self.is_uniform(end);
            let cont = lanes_where(mask, uniform, |l| {
                match (
                    self.regs[v].get(l).as_exact(),
                    self.operand(l, end).as_exact(),
                ) {
                    (Some(x), Some(e)) => Some(x < e),
                    _ => None,
                }
            });
            let Some(cont) = cont else {
                // The bound (or the induction variable) was clobbered by
                // something unknown inside the body; fall back to bounds.
                return self.run_for_abstract(var, start, end, step, body, mask);
            };
            if cont == 0 {
                return Ok(());
            }
            if cont != mask {
                // The executor refuses non-uniform loop backedges.
                let lane = (cont ^ mask).trailing_zeros();
                self.sink.exact = false;
                let (kernel, block) = (self.kernel, self.block_id);
                let thread = self.warp * WARP as u32 + lane;
                self.sink
                    .push_once(Finding::DivergentLoop(latch.2), || Diagnostic {
                        severity: Severity::Error,
                        kind: LintKind::DivergentLoopBranch,
                        site: site_at(&kernel.name, block, Some(thread), Some(latch.2)),
                        message: format!(
                            "loop backedge diverges within a warp (taken mask {cont:#010x} of \
                             active {mask:#010x}); the executor faults with DivergentBranch here"
                        ),
                        fixit: Some(
                            "make the trip count uniform across the warp (pad the bound to a \
                             multiple of the block size)"
                                .to_string(),
                        ),
                    });
                return Err(());
            }
        }
    }

    /// A loop whose trip count could not be resolved exactly: derive a
    /// trip-count interval from the bounds' hulls (capped by the budget),
    /// give the induction variable its over-all-iterations hull, stabilize
    /// the body to an invariant, and record one pass scaled by the trip
    /// interval. The induction variable is unknown after the loop.
    fn run_for_abstract(
        &mut self,
        var: Reg,
        start: &Operand,
        end: &Operand,
        step: u32,
        body: &[IStmt<'k>],
        mask: u32,
    ) -> Result<(), ()> {
        let budget = self.cfg.trip_budget.max(1);
        // Hull of the per-lane start/end bounds across the warp (one lane
        // stands for all when the bound is uniform: the join is idempotent).
        let hull = |wi: &Self, op: &Operand| {
            lanes(mask)
                .take(if wi.is_uniform(op) { 1 } else { WARP })
                .map(|l| wi.operand(l, op))
                .fold(None, |acc: Option<AbsVal>, v| {
                    Some(match acc {
                        None => v,
                        Some(a) => domain::join(a, v),
                    })
                })
                .unwrap_or(AbsVal::Top)
        };
        let sb = hull(self, start);
        let eb = hull(self, end);
        let (trips, var_val) = match (sb.bounds(), eb.bounds()) {
            (Some((sl, sh)), Some((el, eh))) if step > 0 => {
                let trip = |s, e| trip_count(s, e, step).expect("the step is positive");
                let th = trip(sl, eh).min(budget);
                let tl = trip(sh, el).min(th);
                // Entry value of the induction variable at iteration k:
                // start + (k-1)*step, which for k >= 2 passed the previous
                // latch test (so it is <= eh - 1) and is <= sh + (th-1)*step.
                let hi = if th >= 2 {
                    let later = (sh as u64 + (th - 1) * step as u64)
                        .min(eh.saturating_sub(1).max(sh) as u64);
                    sh.max(later.min(u32::MAX as u64) as u32)
                } else {
                    sh
                };
                let v = if body_writes(body, var) {
                    AbsVal::Top
                } else {
                    AbsVal::interval(sl, hi)
                };
                ((tl, th), v)
            }
            _ => ((1, budget), AbsVal::Top),
        };
        self.write_reg(var, mask, true, |_, _| var_val);
        self.fix_body(body, mask)?;
        let saved_mult = self.mult;
        self.mult = (
            saved_mult.0.saturating_mul(trips.0),
            saved_mult.1.saturating_mul(trips.1),
        );
        let r = self.walk(body, mask, false);
        self.mult = saved_mult;
        r?;
        self.write_reg(var, mask, true, |_, _| AbsVal::Top);
        Ok(())
    }

    fn sync(&mut self, exact: bool, mask: u32) {
        if !self.record {
            return;
        }
        if exact && mask == self.live {
            self.sync_count += 1;
            return;
        }
        self.sync_uncertain = true;
        let (kernel, block, live) = (self.kernel, self.block_id, self.live);
        if exact {
            // Statically proven: part of the warp skips this barrier.
            self.sink
                .push_once(Finding::DivergentSync { proven: true }, || Diagnostic {
                    severity: Severity::Error,
                    kind: LintKind::DivergentSync,
                    site: site_at(&kernel.name, block, None, None),
                    message: format!(
                        "bar.sync reached by a strict subset of the warp's lanes (mask \
                         {mask:#010x} of {live:#010x}): threads that skip the barrier leave the \
                         block deadlocked"
                    ),
                    fixit: Some("hoist the Sync out of the conditional".to_string()),
                });
        } else {
            self.sink
                .push_once(Finding::DivergentSync { proven: false }, || Diagnostic {
                    severity: Severity::Warning,
                    kind: LintKind::DivergentSync,
                    site: site_at(&kernel.name, block, None, None),
                    message: "bar.sync under data-dependent control flow: the analysis cannot \
                              prove every thread reaches it"
                        .to_string(),
                    fixit: None,
                });
        }
    }

    fn exec(&mut self, idx: u64, i: &Instr, mask: u32, exact: bool) {
        match i {
            Instr::Mov { dst, src } => {
                self.write_reg(*dst, mask, self.is_uniform(src), |wi, l| wi.operand(l, src));
            }
            Instr::Special { dst, sr } => {
                let uniform = *sr != SpecialReg::TidX;
                self.write_reg(*dst, mask, uniform, |wi, l| {
                    AbsVal::Exact(match sr {
                        SpecialReg::TidX => wi.warp * WARP as u32 + l as u32,
                        SpecialReg::CtaidX => wi.block_id,
                        SpecialReg::NtidX => wi.cfg.block,
                        SpecialReg::NctaidX => wi.cfg.grid,
                    })
                });
            }
            Instr::Alu { op, dst, a, b } => {
                let uniform = self.is_uniform(a) && self.is_uniform(b);
                self.write_reg(*dst, mask, uniform, |wi, l| {
                    domain::alu_abs(*op, wi.operand(l, a), wi.operand(l, b))
                });
            }
            Instr::Mad {
                float,
                dst,
                a,
                b,
                c,
            } => {
                let uniform = self.is_uniform(a) && self.is_uniform(b) && self.is_uniform(c);
                self.write_reg(*dst, mask, uniform, |wi, l| {
                    domain::mad_abs(*float, wi.operand(l, a), wi.operand(l, b), wi.operand(l, c))
                });
            }
            Instr::Unary { op, dst, a } => {
                self.write_reg(*dst, mask, self.is_uniform(a), |wi, l| {
                    domain::unary_abs(*op, wi.operand(l, a))
                });
            }
            Instr::Setp { dst, cmp, a, b } => {
                let uniform = self.is_uniform(a) && self.is_uniform(b);
                self.write(
                    |wi| &mut wi.preds,
                    dst.0 as usize,
                    mask,
                    uniform,
                    |wi, l| domain::compare_abs(*cmp, wi.operand(l, a), wi.operand(l, b)),
                );
            }
            Instr::Ld {
                dsts,
                space,
                base,
                offset,
            } => {
                self.memory(idx, *space, true, *base, *offset, dsts.len(), mask, exact);
                for d in dsts {
                    self.write_reg(*d, mask, true, |_, _| AbsVal::Top);
                }
            }
            Instr::St {
                srcs,
                space,
                base,
                offset,
            } => {
                self.memory(idx, *space, false, *base, *offset, srcs.len(), mask, exact);
            }
            Instr::Clock { dst } => {
                self.write_reg(*dst, mask, true, |_, _| AbsVal::Top);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn memory(
        &mut self,
        idx: u64,
        space: MemSpace,
        is_load: bool,
        base: Reg,
        offset: u32,
        words: usize,
        mask: u32,
        exact: bool,
    ) {
        if !self.record {
            return;
        }
        let width_bytes = 4 * words as u64;
        let kernel = self.kernel;
        let block = self.block_id;
        self.sink
            .sites
            .entry(idx)
            .or_insert_with(|| SiteAcc::new(idx, space, is_load, words as u32));
        let mark_inexact = |sink: &mut Sink| {
            if let Some(site) = sink.sites.get_mut(&idx) {
                site.exact = false;
            }
            if matches!(space, MemSpace::Global | MemSpace::Texture) {
                sink.exact = false;
            }
        };

        if space == MemSpace::Texture && !is_load {
            self.sink
                .push_once(Finding::TextureWrite(idx), || Diagnostic {
                    severity: Severity::Error,
                    kind: LintKind::MisalignedAccess,
                    site: site_at(&kernel.name, block, None, Some(idx)),
                    message: "store to read-only texture space (the executor faults with \
                              ReadOnlyWrite)"
                        .to_string(),
                    fixit: None,
                });
            mark_inexact(self.sink);
            return;
        }

        // Per-lane abstract addresses. Exact bases compute the address
        // exactly as the machine does (u32 wrapping add, then widen);
        // interval bases carry `[lo, hi]` byte ranges unless the offset
        // could wrap, which loses the bound.
        let addr_of = |v: AbsVal| match v {
            AbsVal::Exact(b) => {
                let a = b.wrapping_add(offset) as u64;
                (Some(a), Some((a, a)))
            }
            AbsVal::Interval(lo, hi) if hi as u64 + offset as u64 <= u32::MAX as u64 => (
                None,
                Some((lo as u64 + offset as u64, hi as u64 + offset as u64)),
            ),
            AbsVal::Interval(..) | AbsVal::Top => (None, None),
        };
        // A uniform base is one address on every lane, computed once.
        let base_reg = &self.regs[base.0 as usize];
        let uniform = base_reg.is_uniform();
        let uniform_addr = uniform.then(|| addr_of(base_reg.get(0)));
        let mut addrs: [Option<u64>; WARP] = [None; WARP];
        let mut ranges: [Option<(u64, u64)>; WARP] = [None; WARP];
        let mut any_unbounded = false;
        for l in lanes(mask) {
            let (addr, range) = uniform_addr.unwrap_or_else(|| addr_of(base_reg.get(l)));
            addrs[l] = addr;
            ranges[l] = range;
            any_unbounded |= range.is_none();
        }

        // Feed the bounds certifier: the byte footprint this site can touch.
        if let Some(site) = self.sink.sites.get_mut(&idx) {
            site.addr_unbounded |= any_unbounded;
            for r in ranges.iter().flatten() {
                site.addr_lo = site.addr_lo.min(r.0);
                site.addr_hi = site.addr_hi.max(r.1 + width_bytes);
            }
        }

        // Feed the layout synthesizer: attribute the site to the kernel
        // parameter holding the base of the buffer it falls in — the
        // largest nonzero parameter value that does not exceed every
        // address this execution can touch (ties go to the lowest index).
        // An execution that cannot be bounded, or that disagrees with a
        // previous attribution, poisons the site to "mixed".
        if space == MemSpace::Global && mask != 0 {
            let attribution = if any_unbounded {
                None
            } else {
                ranges.iter().flatten().map(|r| r.0).min().and_then(|lo| {
                    self.cfg
                        .params
                        .iter()
                        .enumerate()
                        .filter(|&(_, &v)| v != 0 && (v as u64) <= lo)
                        .max_by_key(|&(p, &v)| (v, std::cmp::Reverse(p)))
                        .map(|(p, _)| p as u16)
                })
            };
            if let Some(site) = self.sink.sites.get_mut(&idx) {
                match (attribution, site.param_base) {
                    _ if site.param_mixed => {}
                    (Some(p), None) => site.param_base = Some(p),
                    (Some(p), Some(q)) if p == q => {}
                    _ => {
                        site.param_base = None;
                        site.param_mixed = true;
                    }
                }
            }
        }

        let all_exact = lanes(mask).all(|l| addrs[l].is_some());
        if exact && all_exact {
            // ---- the affine fragment: bit-identical to the PR 2 path ----

            // Alignment / bounds, mirroring `exec::machine`'s fault checks.
            let mut faulted = false;
            let access = if is_load { "load" } else { "store" };
            for l in lanes(mask) {
                let Some(addr) = addrs[l] else { continue };
                let thread = self.warp * WARP as u32 + l as u32;
                match space {
                    MemSpace::Global | MemSpace::Texture => {
                        if !addr.is_multiple_of(width_bytes) {
                            faulted = true;
                            self.sink
                                .push_once(Finding::Misaligned(idx), || Diagnostic {
                                    severity: Severity::Error,
                                    kind: LintKind::MisalignedAccess,
                                    site: site_at(&kernel.name, block, Some(thread), Some(idx)),
                                    message: format!(
                                        "{width_bytes}-byte {access} at address {addr:#x} is not \
                                         naturally aligned; the executor faults with Misaligned"
                                    ),
                                    fixit: None,
                                });
                        }
                    }
                    MemSpace::Shared => {
                        if !addr.is_multiple_of(4) {
                            faulted = true;
                            self.sink
                                .push_once(Finding::Misaligned(idx), || Diagnostic {
                                    severity: Severity::Error,
                                    kind: LintKind::MisalignedAccess,
                                    site: site_at(&kernel.name, block, Some(thread), Some(idx)),
                                    message: format!(
                                        "shared {access} at address {addr:#x} is not word-aligned"
                                    ),
                                    fixit: None,
                                });
                        } else if addr + width_bytes > kernel.smem_bytes as u64 {
                            faulted = true;
                            self.sink.push_once(Finding::SharedOob(idx), || Diagnostic {
                                severity: Severity::Error,
                                kind: LintKind::OutOfBoundsShared,
                                site: site_at(&kernel.name, block, Some(thread), Some(idx)),
                                message: format!(
                                    "shared {access} of {width_bytes} bytes at address \
                                     {addr:#x} overruns the {}-byte static allocation",
                                    kernel.smem_bytes
                                ),
                                fixit: None,
                            });
                        }
                    }
                }
            }
            if faulted {
                if let Some(site) = self.sink.sites.get_mut(&idx) {
                    site.exact = false;
                    site.misaligned = true;
                }
                self.sink.exact = false;
                return;
            }

            match space {
                MemSpace::Global => {
                    let Some(width) = AccessWidth::from_bytes(width_bytes as u32) else {
                        mark_inexact(self.sink);
                        return;
                    };
                    // Track the adjacent-lane stride (for the fix-it text).
                    let mut stride_here: Option<i64> = None;
                    let mut stride_mixed = false;
                    for l in 0..WARP - 1 {
                        if let (Some(a), Some(b)) = (addrs[l], addrs[l + 1]) {
                            let d = b as i64 - a as i64;
                            match stride_here {
                                None => stride_here = Some(d),
                                Some(p) if p != d => stride_mixed = true,
                                _ => {}
                            }
                        }
                    }
                    let half = self.cfg.device.half_warp as usize;
                    if let Some(site) = self.sink.sites.get_mut(&idx) {
                        for chunk in addrs.chunks(half) {
                            if chunk.iter().all(Option::is_none) {
                                continue;
                            }
                            let sizes = self.coalesce.transaction_sizes(chunk, width);
                            let tx = sizes.len() as u64;
                            site.transactions += tx;
                            site.tx_lo += tx;
                            site.tx_hi += tx;
                            site.bus_bytes += sizes.iter().map(|&b| b as u64).sum::<u64>();
                            site.ideal += if width == AccessWidth::W16 { 2 } else { 1 };
                            site.half_warps += 1;
                            site.half_warps_hi += 1;
                        }
                        site.stride = match (site.stride, stride_here, stride_mixed) {
                            (_, _, true) | (StrideTrack::Mixed, _, _) => StrideTrack::Mixed,
                            (s, None, false) => s,
                            (StrideTrack::Unset, Some(d), false) => StrideTrack::Const(d),
                            (StrideTrack::Const(p), Some(d), false) => {
                                if p == d {
                                    StrideTrack::Const(p)
                                } else {
                                    StrideTrack::Mixed
                                }
                            }
                        };
                    }
                }
                MemSpace::Texture => {
                    // The texture path bypasses the coalescer; its transaction
                    // count depends on dynamic cache state. Excluded from the
                    // prediction (summarized as an info diagnostic later).
                    mark_inexact(self.sink);
                }
                MemSpace::Shared => {
                    let half = self.cfg.device.half_warp as usize;
                    let banks = self.cfg.device.smem_banks;
                    // Each word of a vector access is a bank phase of its
                    // own with the first phase's degree (see
                    // `banks::conflict_degree`).
                    let mut degree = 1u32;
                    let mut issues = 0u64;
                    for chunk in addrs.chunks(half) {
                        if chunk.iter().all(Option::is_none) {
                            continue;
                        }
                        issues += 1;
                        degree = degree.max(conflict_degree(chunk, banks));
                    }
                    if let Some(site) = self.sink.sites.get_mut(&idx) {
                        site.bank_degree = site.bank_degree.max(degree);
                        site.half_warps += issues;
                        site.half_warps_hi += issues;
                    }
                    // A cell that has seen two threads' accesses of one
                    // instruction already holds its second thread and, for
                    // a store, its first write (see `RaceCell::record`), so
                    // the other lanes of a uniform address change nothing.
                    let phase = self.sync_count;
                    for l in lanes(mask).take(if uniform { 2 } else { WARP }) {
                        let Some(addr) = addrs[l] else { continue };
                        let a = SharedAccess {
                            thread: self.warp * WARP as u32 + l as u32,
                            is_write: !is_load,
                            instr: idx,
                        };
                        for w in 0..words as u64 {
                            self.races
                                .entry((phase, addr / 4 + w))
                                .and_modify(|c| c.record(a))
                                .or_insert_with(|| RaceCell::new(a));
                        }
                    }
                }
            }
            return;
        }

        // ---- the abstract fragment: bounds instead of exact counts ----
        // The site is inexact (excluded from `predicted_transactions`), but
        // each half-warp issue still moves between 1 transaction (perfectly
        // coalesced) and one per active lane (fully decayed) under every
        // driver model, and the issue count is scaled by the enclosing
        // trip-count interval.
        mark_inexact(self.sink);
        let half = self.cfg.device.half_warp as usize;
        match space {
            MemSpace::Global => {
                let Some(width) = AccessWidth::from_bytes(width_bytes as u32) else {
                    if let Some(site) = self.sink.sites.get_mut(&idx) {
                        site.addr_unbounded = true;
                    }
                    return;
                };
                let ideal: u64 = if width == AccessWidth::W16 { 2 } else { 1 };
                let mut lo_sum = 0u64;
                let mut hi_sum = 0u64;
                let mut issues = 0u64;
                for (c, chunk) in addrs.chunks(half).enumerate() {
                    let chunk_mask = mask & chunk_lanes(c, half);
                    if chunk_mask == 0 {
                        continue;
                    }
                    issues += 1;
                    lo_sum += 1;
                    let aligned_exact = lanes(chunk_mask)
                        .all(|l| addrs[l].is_some_and(|a| a.is_multiple_of(width_bytes)));
                    hi_sum += if aligned_exact {
                        // Every lane address is known and in-spec: the
                        // oracle's count is itself the worst case (shrinking
                        // the active set never adds transactions).
                        self.coalesce.transaction_sizes(chunk, width).len() as u64
                    } else {
                        // Fully decayed: one transaction per active lane
                        // (but never below the coalesced-issue cost).
                        u64::from(chunk_mask.count_ones()).max(ideal)
                    };
                }
                if let Some(site) = self.sink.sites.get_mut(&idx) {
                    site.tx_lo = site
                        .tx_lo
                        .saturating_add(lo_sum.saturating_mul(self.mult.0));
                    site.tx_hi = site
                        .tx_hi
                        .saturating_add(hi_sum.saturating_mul(self.mult.1));
                    site.half_warps_hi = site
                        .half_warps_hi
                        .saturating_add(issues.saturating_mul(self.mult.1));
                }
            }
            MemSpace::Texture => {}
            MemSpace::Shared => {
                let banks = self.cfg.device.smem_banks;
                // One phase stands for every word of a vector access, as
                // on the exact path above.
                let mut degree = 1u32;
                let mut issues = 0u64;
                for (c, chunk) in addrs.chunks(half).enumerate() {
                    let chunk_mask = mask & chunk_lanes(c, half);
                    if chunk_mask == 0 {
                        continue;
                    }
                    issues += 1;
                    if lanes(chunk_mask).all(|l| addrs[l].is_some()) {
                        degree = degree.max(conflict_degree(chunk, banks));
                    }
                }
                if let Some(site) = self.sink.sites.get_mut(&idx) {
                    site.bank_degree = site.bank_degree.max(degree);
                    site.half_warps_hi = site
                        .half_warps_hi
                        .saturating_add(issues.saturating_mul(self.mult.1));
                }
            }
        }
    }
}

/// The lanes of `mask` where `test` holds, or `None` when it is undecided on
/// some lane. When `uniform` (every lane gets the same answer) `test` runs
/// once, for the lowest lane.
fn lanes_where(mask: u32, uniform: bool, test: impl Fn(usize) -> Option<bool>) -> Option<u32> {
    let mut taken = 0u32;
    for l in lanes(mask).take(if uniform { 1 } else { WARP }) {
        if test(l)? {
            taken |= 1 << l;
        }
    }
    Some(if uniform && taken != 0 { mask } else { taken })
}

/// The lanes of half-warp chunk `c` (chunks of `half` lanes) as a mask.
fn chunk_lanes(c: usize, half: usize) -> u32 {
    let lo = c * half;
    let len = half.min(WARP - lo);
    (((1u64 << len) - 1) << lo) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CmpOp, KernelBuilder};

    /// Run `f` on a fresh interpreter for warp `warp` of a `block`-thread
    /// block of `kernel`.
    fn with_warp<'k, R>(
        kernel: &'k Kernel,
        block: u32,
        warp: u32,
        f: impl FnOnce(&mut WarpInterp<'_, 'k>) -> R,
    ) -> R {
        let cfg = AnalysisConfig::new(1, block, vec![]);
        let mut sink = Sink::new();
        let mut races = RaceCells::default();
        let mut coalesce = CoalesceCache::new(cfg.driver);
        let mut wi = WarpInterp::new(kernel, &cfg, 0, warp, &mut sink, &mut races, &mut coalesce);
        f(&mut wi)
    }

    fn two_regs() -> Kernel {
        Kernel {
            name: "two_regs".to_string(),
            n_params: 0,
            n_regs: 2,
            n_preds: 0,
            smem_bytes: 0,
            body: Vec::new(),
        }
    }

    fn mov(wi: &mut WarpInterp<'_, '_>, r: u16, v: u32, mask: u32) {
        wi.exec(
            0,
            &Instr::Mov {
                dst: Reg(r),
                src: Operand::ImmU(v),
            },
            mask,
            true,
        );
    }

    #[test]
    fn a_partial_mask_write_reads_back_per_lane() {
        with_warp(&two_regs(), 32, 0, |wi| {
            mov(wi, 1, 7, 0x0000_00ff);
            let r = &wi.regs[1];
            assert!(!r.is_uniform());
            for l in 0..WARP {
                let want = if l < 8 { 7 } else { 0 };
                assert_eq!(r.get(l), AbsVal::Exact(want), "lane {l}");
            }
            // The register it was not written to stays uniform.
            assert_eq!(wi.regs[0], WarpReg::Uniform(AbsVal::Exact(0)));
        });
    }

    #[test]
    fn a_full_warp_write_makes_a_register_uniform_again() {
        with_warp(&two_regs(), 32, 0, |wi| {
            mov(wi, 1, 7, 0x0000_00ff);
            mov(wi, 1, 3, u32::MAX);
            assert_eq!(wi.regs[1], WarpReg::Uniform(AbsVal::Exact(3)));
        });
        // In a partly dead warp, the live lanes are the whole warp.
        with_warp(&two_regs(), 48, 1, |wi| {
            assert_eq!(wi.live, 0x0000_ffff);
            mov(wi, 1, 7, 0x0000_000f);
            assert!(!wi.regs[1].is_uniform());
            mov(wi, 1, 3, 0x0000_ffff);
            assert_eq!(wi.regs[1], WarpReg::Uniform(AbsVal::Exact(3)));
        });
    }

    #[test]
    fn a_join_of_two_uniform_arms_is_uniform() {
        with_warp(&two_regs(), 32, 0, |wi| {
            let entry = wi.snapshot();
            mov(wi, 1, 1, u32::MAX);
            let after_then = wi.snapshot();
            wi.restore(&entry);
            mov(wi, 1, 4, u32::MAX);
            wi.join_with(&after_then);
            assert_eq!(wi.regs[1], WarpReg::Uniform(AbsVal::Interval(1, 4)));
            assert_eq!(wi.regs[0], WarpReg::Uniform(AbsVal::Exact(0)));
        });
    }

    #[test]
    fn fix_body_reaches_the_same_state_from_uniform_and_per_lane_starts() {
        // do { i += 1; x = min(x, 9); p = i < 10 } while p: `i` widens to
        // Top in the third round, `x` is stable from the first.
        let mut b = KernelBuilder::new("counter");
        let i = b.mov(Operand::ImmU(0));
        let x = b.mov(Operand::ImmU(5));
        b.do_while(|b| {
            b.alu_into(i, AluOp::IAdd, i.into(), Operand::ImmU(1));
            b.alu_into(x, AluOp::IMin, x.into(), Operand::ImmU(9));
            b.setp(CmpOp::ULt, i.into(), Operand::ImmU(10))
        });
        let k = b.finish();
        let tree = index_stmts(&k.body, &mut InstrIndexer::new());
        let Some(IStmt::While { body, .. }) = tree.last() else {
            panic!("the kernel ends in its While");
        };
        let fixpoint = |per_lane: bool| {
            with_warp(&k, 48, 1, |wi| {
                for (r, v) in [(i, 0), (x, 5)] {
                    wi.regs[r.0 as usize] = if per_lane {
                        WarpReg::PerLane(Box::new([AbsVal::Exact(v); WARP]))
                    } else {
                        WarpReg::Uniform(AbsVal::Exact(v))
                    };
                }
                wi.fix_body(body, wi.live).expect("the body does not abort");
                let live = wi.live;
                let lanes_of =
                    |r: &WarpReg<AbsVal>| lanes(live).map(|l| r.get(l)).collect::<Vec<_>>();
                let preds: Vec<Vec<Option<bool>>> = wi
                    .preds
                    .iter()
                    .map(|p| lanes(live).map(|l| p.get(l)).collect())
                    .collect();
                let regs: Vec<Vec<AbsVal>> = wi.regs.iter().map(lanes_of).collect();
                (regs, preds, wi.regs[i.0 as usize].is_uniform())
            })
        };
        let (regs_u, preds_u, still_uniform) = fixpoint(false);
        let (regs_p, preds_p, _) = fixpoint(true);
        assert_eq!(regs_u, regs_p);
        assert_eq!(preds_u, preds_p);
        assert!(still_uniform);
        assert!(regs_u[i.0 as usize].iter().all(|&v| v == AbsVal::Top));
        assert!(regs_u[x.0 as usize].iter().all(|&v| v == AbsVal::Exact(5)));
    }
}
