//! The per-warp abstract interpreter behind [`crate::analyze`].
//!
//! The interpreter walks a kernel's structured body once per (block, warp)
//! with a 32-lane vector of abstract register values drawn from the interval
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
//! over every access would.

use std::collections::BTreeMap;

use simcore::hash::{FastMap, FastSet};

use super::domain::{self, AbsVal};
use super::{AnalysisConfig, Diagnostic, LintKind, Severity};
use crate::banks::conflict_degree;
use crate::coalesce::{AccessWidth, CoalesceCache};
use crate::fault::FaultSite;
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
    /// Masked conditional (no indices: `IfMasked` markers do not retire).
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

/// Bottom-tested trip count under exact bounds (mirrors `ir::count`):
/// the body always runs once, then `ceil((end - start) / step)` total.
fn trip(start: u32, end: u32, step: u32) -> u64 {
    if end <= start {
        1
    } else {
        ((end - start) as u64).div_ceil(step as u64)
    }
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

/// A copy of the value state, for branch joins and loop fixpoints.
struct Snapshot {
    regs: Vec<Vec<AbsVal>>,
    preds: Vec<Vec<Option<bool>>>,
}

/// Per-warp interpreter state.
struct WarpInterp<'a, 'k> {
    cfg: &'a AnalysisConfig,
    kernel: &'k Kernel,
    block_id: u32,
    warp: u32,
    /// Mask of lanes that exist (thread id < block size).
    live: u32,
    /// `[lane][reg]`, abstract per-lane values.
    regs: Vec<Vec<AbsVal>>,
    preds: Vec<Vec<Option<bool>>>,
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
            vec![vec![AbsVal::Exact(0); kernel.n_regs.max(kernel.n_params) as usize]; WARP];
        for lane in &mut regs {
            for (p, v) in cfg.params.iter().enumerate() {
                lane[p] = AbsVal::Exact(*v);
            }
        }
        let preds = vec![vec![None; kernel.n_preds as usize]; WARP];
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
            Operand::R(r) => self.regs[lane][r.0 as usize],
            Operand::ImmF(f) => AbsVal::Exact(f.to_bits()),
            Operand::ImmU(u) => AbsVal::Exact(*u),
        }
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
        for l in 0..WARP {
            for r in 0..self.regs[l].len() {
                self.regs[l][r] = domain::join(self.regs[l][r], s.regs[l][r]);
            }
            for p in 0..self.preds[l].len() {
                if self.preds[l][p] != s.preds[l][p] {
                    self.preds[l][p] = None;
                }
            }
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
                    let mut known = true;
                    let mut then_mask = 0u32;
                    for l in lanes(mask) {
                        match self.preds[l][pred.0 as usize] {
                            Some(v) => {
                                if v != *negate {
                                    then_mask |= 1 << l;
                                }
                            }
                            None => known = false,
                        }
                    }
                    if exact && known {
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
                for l in lanes(mask) {
                    for r in self.regs[l].iter_mut() {
                        *r = AbsVal::Top;
                    }
                    for p in self.preds[l].iter_mut() {
                        *p = None;
                    }
                }
                break;
            }
            let pre = self.snapshot();
            if self.walk(body, mask, false).is_err() {
                self.record = saved_record;
                return Err(());
            }
            let mut stable = true;
            for l in 0..WARP {
                for r in 0..self.regs[l].len() {
                    let old = pre.regs[l][r];
                    let mut merged = domain::join(old, self.regs[l][r]);
                    if round >= 2 {
                        merged = domain::widen(old, merged);
                    }
                    if merged != old {
                        stable = false;
                    }
                    self.regs[l][r] = merged;
                }
                for p in 0..self.preds[l].len() {
                    let old = pre.preds[l][p];
                    let merged = if old == self.preds[l][p] { old } else { None };
                    if merged != old {
                        stable = false;
                    }
                    self.preds[l][p] = merged;
                }
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
        if exact {
            for l in lanes(mask) {
                self.regs[l][var.0 as usize] = self.operand(l, start);
            }
        }
        let starts_exact =
            exact && lanes(mask).all(|l| self.regs[l][var.0 as usize].as_exact().is_some());
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
            for l in lanes(mask) {
                let r = &mut self.regs[l][var.0 as usize];
                if let Some(v) = r.as_exact() {
                    *r = AbsVal::Exact(v.wrapping_add(step));
                } else {
                    *r = domain::alu_abs(AluOp::IAdd, *r, AbsVal::Exact(step));
                }
            }
            let mut cont = 0u32;
            let mut known = true;
            for l in lanes(mask) {
                match (
                    self.regs[l][var.0 as usize].as_exact(),
                    self.operand(l, end).as_exact(),
                ) {
                    (Some(v), Some(e)) => {
                        if v < e {
                            cont |= 1 << l;
                        }
                    }
                    _ => known = false,
                }
            }
            if !known {
                // The bound (or the induction variable) was clobbered by
                // something unknown inside the body; fall back to bounds.
                return self.run_for_abstract(var, start, end, step, body, mask);
            }
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
        // Hull of the per-lane start/end bounds across the warp.
        let hull = |wi: &Self, op: &Operand| {
            lanes(mask)
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
                let th = trip(sl, eh, step).min(budget);
                let tl = trip(sh, el, step).min(th);
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
        for l in lanes(mask) {
            self.regs[l][var.0 as usize] = var_val;
        }
        self.fix_body(body, mask)?;
        let saved_mult = self.mult;
        self.mult = (
            saved_mult.0.saturating_mul(trips.0),
            saved_mult.1.saturating_mul(trips.1),
        );
        let r = self.walk(body, mask, false);
        self.mult = saved_mult;
        r?;
        for l in lanes(mask) {
            self.regs[l][var.0 as usize] = AbsVal::Top;
        }
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
                for l in lanes(mask) {
                    self.regs[l][dst.0 as usize] = self.operand(l, src);
                }
            }
            Instr::Special { dst, sr } => {
                for l in lanes(mask) {
                    self.regs[l][dst.0 as usize] = AbsVal::Exact(match sr {
                        SpecialReg::TidX => self.warp * WARP as u32 + l as u32,
                        SpecialReg::CtaidX => self.block_id,
                        SpecialReg::NtidX => self.cfg.block,
                        SpecialReg::NctaidX => self.cfg.grid,
                    });
                }
            }
            Instr::Alu { op, dst, a, b } => {
                for l in lanes(mask) {
                    let v = domain::alu_abs(*op, self.operand(l, a), self.operand(l, b));
                    self.regs[l][dst.0 as usize] = v;
                }
            }
            Instr::Mad {
                float,
                dst,
                a,
                b,
                c,
            } => {
                for l in lanes(mask) {
                    let v = domain::mad_abs(
                        *float,
                        self.operand(l, a),
                        self.operand(l, b),
                        self.operand(l, c),
                    );
                    self.regs[l][dst.0 as usize] = v;
                }
            }
            Instr::Unary { op, dst, a } => {
                for l in lanes(mask) {
                    self.regs[l][dst.0 as usize] = domain::unary_abs(*op, self.operand(l, a));
                }
            }
            Instr::Setp { dst, cmp, a, b } => {
                for l in lanes(mask) {
                    let v = domain::compare_abs(*cmp, self.operand(l, a), self.operand(l, b));
                    self.preds[l][dst.0 as usize] = v;
                }
            }
            Instr::Ld {
                dsts,
                space,
                base,
                offset,
            } => {
                self.memory(idx, *space, true, *base, *offset, dsts.len(), mask, exact);
                for l in lanes(mask) {
                    for d in dsts {
                        self.regs[l][d.0 as usize] = AbsVal::Top;
                    }
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
                for l in lanes(mask) {
                    self.regs[l][dst.0 as usize] = AbsVal::Top;
                }
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
        let mut addrs: [Option<u64>; WARP] = [None; WARP];
        let mut ranges: [Option<(u64, u64)>; WARP] = [None; WARP];
        let mut any_unbounded = false;
        for l in lanes(mask) {
            match self.regs[l][base.0 as usize] {
                AbsVal::Exact(b) => {
                    let a = b.wrapping_add(offset) as u64;
                    addrs[l] = Some(a);
                    ranges[l] = Some((a, a));
                }
                AbsVal::Interval(lo, hi) => {
                    if hi as u64 + offset as u64 <= u32::MAX as u64 {
                        ranges[l] = Some((lo as u64 + offset as u64, hi as u64 + offset as u64));
                    } else {
                        any_unbounded = true;
                    }
                }
                AbsVal::Top => any_unbounded = true,
            }
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
                    let mut degree = 1u32;
                    let mut issues = 0u64;
                    for chunk in addrs.chunks(half) {
                        if chunk.iter().all(Option::is_none) {
                            continue;
                        }
                        issues += 1;
                        degree = degree.max(vector_conflict_degree(chunk, words, banks));
                    }
                    if let Some(site) = self.sink.sites.get_mut(&idx) {
                        site.bank_degree = site.bank_degree.max(degree);
                        site.half_warps += issues;
                        site.half_warps_hi += issues;
                    }
                    let phase = self.sync_count;
                    for l in lanes(mask) {
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
                let mut degree = 1u32;
                let mut issues = 0u64;
                for (c, chunk) in addrs.chunks(half).enumerate() {
                    let chunk_mask = mask & chunk_lanes(c, half);
                    if chunk_mask == 0 {
                        continue;
                    }
                    issues += 1;
                    if lanes(chunk_mask).all(|l| addrs[l].is_some()) {
                        degree = degree.max(vector_conflict_degree(chunk, words, banks));
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

/// The lanes of half-warp chunk `c` (chunks of `half` lanes) as a mask.
fn chunk_lanes(c: usize, half: usize) -> u32 {
    let lo = c * half;
    let len = half.min(WARP - lo);
    (((1u64 << len) - 1) << lo) as u32
}

/// Worst bank-conflict degree of one half-warp issue of a `words`-word
/// shared access: each word of a vector access is its own bank phase.
fn vector_conflict_degree(chunk: &[Option<u64>], words: usize, banks: u32) -> u32 {
    let mut shifted: [Option<u64>; WARP] = [None; WARP];
    let shifted = &mut shifted[..chunk.len()];
    (0..words as u64)
        .map(|w| {
            for (s, a) in shifted.iter_mut().zip(chunk) {
                *s = a.map(|a| a + 4 * w);
            }
            conflict_degree(shifted, banks)
        })
        .fold(1, u32::max)
}
