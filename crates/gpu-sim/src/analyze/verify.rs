//! Translation validation for the IR passes.
//!
//! `verify_equiv` symbolically executes a kernel and its transformed
//! counterpart over a concrete launch shape and proves — per thread, per
//! store, bit for bit — that the two produce identical observable behaviour:
//! the same global/shared stores (address, width and value), in the same
//! order, with the same barrier structure. Loads of addresses the kernel did
//! not itself write become opaque *input terms*, so the proof holds for
//! **every** possible memory content, not just one test vector; arithmetic
//! over known bits constant-folds through the executors' own scalar
//! semantics (`alu`/`mad`/`unary`/`compare`, defined once in [`crate::ir`]),
//! so the symbolic run never disagrees with a dynamic one.
//!
//! Terms live in a hash-consed `TermArena` per block, shared by both
//! kernels: structural equality is pointer equality (the arena and the
//! per-block memory maps hash with [`simcore::hash::FxHasher`]: lookups
//! only, so no result depends on iteration order), and no float identities are
//! assumed (not even `x + 0.0`, which is wrong for `-0.0`) — which is exactly
//! why the passes this checker validates (`unroll_innermost`, `licm`,
//! `fold_addressing`) are provable: they reorder and de-duplicate
//! computations but never re-associate floats.
//!
//! Cross-**layout** equivalence (the `layout_advisor` fix-it: rebuild the
//! kernel under the advised layout) is proved the same way, with an
//! [`InputMap`] canonicalizing each load address to the logical
//! `(element, field)` it holds, so `px` of particle 7 gets the *same* input
//! term whether it was fetched from a packed 28-byte record or a `float4`.
//!
//! A [`Reference`] keeps one kernel's run, block by block, so that many
//! candidates are checked against it while it runs once; [`verify_equiv`]
//! is a reference used for one check.
//!
//! On a mismatch the checker emits a counterexample [`FaultSite`] — kernel,
//! block, thread and the stable instruction index of the first diverging
//! event (the same numbering `ir::pretty` prints).
//!
//! What it does not do: kernels whose control flow depends on loaded data
//! (the Barnes–Hut `While` traversal, an `If` on a loaded predicate) are
//! reported as [`VerifyResult::Unsupported`], never "proved".

use std::fmt;
use std::hash::{Hash, Hasher};

use simcore::hash::{FastMap, FxHasher};

use crate::fault::FaultSite;
use crate::ir::passes::{fold_addressing, licm, unroll_innermost};
use crate::ir::{AluOp, Instr, InstrIndexer, Kernel, MemSpace, Operand, SpecialReg, UnaryOp};

use super::interp;

/// A term in the normal-form expression algebra. Terms are hash-consed in a
/// [`TermArena`]; two [`TermId`]s are equal iff the terms are structurally
/// identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    /// A known 32-bit value.
    Const(u32),
    /// An unknown input: one word of device memory the kernel read but never
    /// wrote. The key is either the raw byte address or, under an
    /// [`InputMap`], a canonical logical key.
    Input {
        /// Address space the word was read from.
        space: MemSpace,
        /// Raw address or canonical key.
        key: u64,
    },
    /// The n-th `clock()` sample this thread took (opaque: passes must not
    /// duplicate, drop or reorder clock reads).
    Clock(u32),
    /// A binary ALU operation.
    Alu(AluOp, TermId, TermId),
    /// A fused multiply-add.
    Mad {
        /// f32 (`true`) or wrapping u32 (`false`).
        float: bool,
        /// Multiplicand, multiplier, addend.
        a: TermId,
        /// Multiplier.
        b: TermId,
        /// Addend.
        c: TermId,
    },
    /// A unary operation.
    Unary(UnaryOp, TermId),
}

/// Index into a [`TermArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TermId(u32);

/// Hash-consed term store shared by both kernels of a verification, so that
/// identical computations — however they were reached — get identical ids.
///
/// Ids are indices into `nodes`, handed out in insertion order. The dedup
/// index is an open-addressed table of those ids (linear probing, doubled at
/// half load) rather than a `HashMap`, so the interner's hot path is a few
/// lines of this crate's own code and does not hinge on how the standard
/// map's entry API happens to inline.
struct TermArena {
    nodes: Vec<Node>,
    /// `EMPTY` or an id into `nodes`; a power-of-two length, at most half
    /// full.
    slots: Vec<u32>,
}

/// A free slot of [`TermArena::slots`].
const EMPTY: u32 = u32::MAX;

/// The home slot of `n` in a table of `mask + 1` slots.
#[inline]
fn home_slot(n: &Node, mask: usize) -> usize {
    let mut h = FxHasher::default();
    n.hash(&mut h);
    h.finish() as usize & mask
}

impl TermArena {
    fn new() -> TermArena {
        TermArena {
            nodes: Vec::new(),
            slots: vec![EMPTY; 64],
        }
    }

    fn intern(&mut self, n: Node) -> TermId {
        let mask = self.slots.len() - 1;
        let mut i = home_slot(&n, mask);
        loop {
            match self.slots[i] {
                EMPTY => break,
                id if self.nodes[id as usize] == n => return TermId(id),
                _ => i = (i + 1) & mask,
            }
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(n);
        self.slots[i] = id;
        if 2 * self.nodes.len() > self.slots.len() {
            self.grow();
        }
        TermId(id)
    }

    /// Double the table and re-insert every id.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let len = 2 * self.slots.len();
        self.slots.clear();
        self.slots.resize(len, EMPTY);
        for (id, n) in self.nodes.iter().enumerate() {
            let mut i = home_slot(n, len - 1);
            while self.slots[i] != EMPTY {
                i = (i + 1) & (len - 1);
            }
            self.slots[i] = id as u32;
        }
    }

    /// Drop every term interned after the first `len`, keeping the table's
    /// size. Exact because the newest term is removed first: a term's probe
    /// run from its home slot only crosses slots of older terms (inserts and
    /// [`TermArena::grow`] both place terms in id order), so no remaining
    /// term's run crosses a freed slot.
    fn truncate(&mut self, len: usize) {
        let mask = self.slots.len() - 1;
        while self.nodes.len() > len {
            let id = self.nodes.len() - 1;
            let mut i = home_slot(&self.nodes[id], mask);
            while self.slots[i] != id as u32 {
                i = (i + 1) & mask;
            }
            self.slots[i] = EMPTY;
            self.nodes.pop();
        }
    }

    fn konst(&mut self, v: u32) -> TermId {
        self.intern(Node::Const(v))
    }

    fn as_const(&self, t: TermId) -> Option<u32> {
        match self.nodes[t.0 as usize] {
            Node::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Smart constructor: folds when both sides are known, using the exact
    /// bit semantics of [`interp::alu`]. The only algebraic identities used
    /// are integer ones that hold for every bit pattern; floats get none.
    fn alu(&mut self, op: AluOp, a: TermId, b: TermId) -> TermId {
        if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
            return self.konst(interp::alu(op, x, y));
        }
        match op {
            AluOp::IAdd | AluOp::ISub => {
                if self.as_const(b) == Some(0) {
                    return a;
                }
                if op == AluOp::IAdd && self.as_const(a) == Some(0) {
                    return b;
                }
            }
            AluOp::IMul => {
                if self.as_const(b) == Some(1) {
                    return a;
                }
                if self.as_const(a) == Some(1) {
                    return b;
                }
            }
            _ => {}
        }
        self.intern(Node::Alu(op, a, b))
    }

    fn mad(&mut self, float: bool, a: TermId, b: TermId, c: TermId) -> TermId {
        if let (Some(x), Some(y), Some(z)) = (self.as_const(a), self.as_const(b), self.as_const(c))
        {
            return self.konst(interp::mad(float, x, y, z));
        }
        if !float {
            // mad.lo.u32 with a known multiply folds to an add; with a zero
            // addend it is the bare multiply. Wrapping-exact either way.
            if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
                let prod = self.konst(x.wrapping_mul(y));
                return self.alu(AluOp::IAdd, prod, c);
            }
            if self.as_const(c) == Some(0) {
                return self.alu(AluOp::IMul, a, b);
            }
        }
        self.intern(Node::Mad { float, a, b, c })
    }

    fn unary(&mut self, op: UnaryOp, a: TermId) -> TermId {
        if let Some(x) = self.as_const(a) {
            return self.konst(interp::unary(op, x));
        }
        self.intern(Node::Unary(op, a))
    }

    /// Render a term for counterexample messages (depth-limited).
    fn render(&self, t: TermId, depth: u32) -> String {
        if depth == 0 {
            return "…".to_string();
        }
        match &self.nodes[t.0 as usize] {
            Node::Const(v) => format!("{v:#x}"),
            Node::Input { space, key } => format!("{space:?}[{key:#x}]"),
            Node::Clock(n) => format!("clock#{n}"),
            Node::Alu(op, a, b) => {
                format!(
                    "({op:?} {} {})",
                    self.render(*a, depth - 1),
                    self.render(*b, depth - 1)
                )
            }
            Node::Mad { float, a, b, c } => format!(
                "(mad{} {} {} {})",
                if *float { ".f32" } else { ".u32" },
                self.render(*a, depth - 1),
                self.render(*b, depth - 1),
                self.render(*c, depth - 1)
            ),
            Node::Unary(op, a) => format!("({op:?} {})", self.render(*a, depth - 1)),
        }
    }
}

/// Maps raw load addresses to canonical logical keys, so two kernels reading
/// the *same logical datum* through *different layouts* get the same input
/// term. Addresses not in the map fall back to their raw value.
#[derive(Debug, Clone, Default)]
pub struct InputMap {
    /// byte address of a 32-bit word → canonical key.
    pub global: FastMap<u64, u64>,
}

impl InputMap {
    /// Canonical key for one global word.
    fn key(&self, addr: u64) -> u64 {
        self.global.get(&addr).copied().unwrap_or(addr)
    }
}

/// Launch shape and parameters to verify under.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Blocks in the launch.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Parameter values for the *original* kernel.
    pub params: Vec<u32>,
    /// Parameter values for the transformed kernel (defaults to `params`).
    pub params_b: Option<Vec<u32>>,
    /// Canonical input naming for the original kernel's loads.
    pub input_map: Option<InputMap>,
    /// Canonical input naming for the transformed kernel's loads.
    pub input_map_b: Option<InputMap>,
    /// Per-loop iteration budget before giving up (`Unsupported`).
    pub max_steps: u64,
    /// Interval-guarded lockstep for the uniform-bound case: when
    /// `Some(r)`, a data-dependent `While` continuation predicate no longer
    /// aborts the proof — instead the check is re-run once per assumed
    /// uniform trip count `t ∈ [1, r]`, forcing every unknown continuation
    /// to "continue" for the first `t − 1` rounds and "exit" at round `t`,
    /// and recording each forced decision as an observable `Event` both
    /// kernels must agree on. All `r` proofs together yield
    /// [`VerifyResult::ProvedBounded`] — equivalence on every execution
    /// whose data-dependent loops run uniformly at most `r` rounds.
    pub uniform_while_rounds: Option<u32>,
}

impl VerifyConfig {
    /// Same launch, same parameters, raw addresses as input names — the
    /// configuration for verifying an IR pass (which never changes the
    /// parameter list or the data layout).
    pub fn new(grid: u32, block: u32, params: Vec<u32>) -> VerifyConfig {
        VerifyConfig {
            grid,
            block,
            params,
            params_b: None,
            input_map: None,
            input_map_b: None,
            max_steps: 4096,
            uniform_while_rounds: None,
        }
    }

    /// Enable the uniform-bound `While` guard (see
    /// [`VerifyConfig::uniform_while_rounds`]).
    pub fn with_uniform_while_rounds(mut self, rounds: u32) -> VerifyConfig {
        self.uniform_while_rounds = Some(rounds.max(1));
        self
    }
}

/// Outcome of one equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyResult {
    /// The two kernels are observably equivalent on this launch shape, for
    /// every possible memory content.
    Proved {
        /// Threads compared.
        threads: u64,
        /// Store events matched per thread pair (summed over the launch).
        stores: u64,
        /// Barrier events matched (summed over the launch).
        syncs: u64,
    },
    /// The kernels disagree; `site` pinpoints the first diverging event.
    Mismatch {
        /// Counterexample coordinates (kernel of the *transformed* run,
        /// block, thread, instruction index of the diverging event).
        site: FaultSite,
        /// Human-readable account of the divergence.
        detail: String,
    },
    /// Equivalent under the uniform-trip-count guard: proved separately for
    /// every assumed trip count `t ∈ [1, rounds]` of the data-dependent
    /// `While` loops (see [`VerifyConfig::uniform_while_rounds`]). Weaker
    /// than [`VerifyResult::Proved`] — executions where lanes exit the loop
    /// at different rounds, or run more than `rounds` rounds, are not
    /// covered.
    ProvedBounded {
        /// The trip-count bound every assumption was checked up to.
        rounds: u32,
        /// Threads compared, summed over all assumed trip counts.
        threads: u64,
        /// Store events matched, summed over all assumed trip counts.
        stores: u64,
        /// Barrier events matched, summed over all assumed trip counts.
        syncs: u64,
    },
    /// The checker cannot decide (data-dependent control flow, address it
    /// cannot resolve, loop budget exhausted) — never counted as proved.
    Unsupported {
        /// Why.
        reason: String,
    },
}

impl VerifyResult {
    /// `true` only for [`VerifyResult::Proved`] — the unconditional proof.
    pub fn is_proved(&self) -> bool {
        matches!(self, VerifyResult::Proved { .. })
    }

    /// `true` for the guarded proof ([`VerifyResult::ProvedBounded`]).
    pub fn is_proved_bounded(&self) -> bool {
        matches!(self, VerifyResult::ProvedBounded { .. })
    }
}

impl fmt::Display for VerifyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyResult::Proved {
                threads,
                stores,
                syncs,
            } => write!(
                f,
                "proved equivalent: {threads} threads, {stores} stores, {syncs} barriers matched"
            ),
            VerifyResult::ProvedBounded {
                rounds,
                threads,
                stores,
                syncs,
            } => write!(
                f,
                "proved equivalent for every uniform trip count <= {rounds}: \
                 {threads} threads, {stores} stores, {syncs} barriers matched"
            ),
            VerifyResult::Mismatch { site, detail } => {
                write!(f, "MISMATCH at {site}: {detail}")
            }
            VerifyResult::Unsupported { reason } => write!(f, "unsupported: {reason}"),
        }
    }
}

/// The passes the checker can validate applications of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassId {
    /// `passes::unroll_innermost` with this factor.
    Unroll(u32),
    /// `passes::licm`.
    Licm,
    /// `passes::fold_addressing`.
    Fold,
    /// `licm` then `unroll_innermost` (the advisor's recommended order).
    LicmThenUnroll(u32),
    /// `unroll_innermost` then `licm` (the reverse order).
    UnrollThenLicm(u32),
}

impl PassId {
    /// Human-readable label.
    pub fn label(&self) -> String {
        match self {
            PassId::Unroll(f) => format!("unroll x{f}"),
            PassId::Licm => "licm".to_string(),
            PassId::Fold => "fold_addressing".to_string(),
            PassId::LicmThenUnroll(f) => format!("licm ∘ unroll x{f}"),
            PassId::UnrollThenLicm(f) => format!("unroll x{f} ∘ licm"),
        }
    }

    /// Apply the pass.
    pub fn apply(&self, k: &Kernel) -> Kernel {
        match self {
            PassId::Unroll(f) => unroll_innermost(k, *f),
            PassId::Licm => licm(k),
            PassId::Fold => fold_addressing(k),
            PassId::LicmThenUnroll(f) => unroll_innermost(&licm(k), *f),
            PassId::UnrollThenLicm(f) => licm(&unroll_innermost(k, *f)),
        }
    }
}

/// Apply `pass` to `kernel` and prove the result equivalent to the original.
pub fn verify_pass(kernel: &Kernel, pass: PassId, cfg: &VerifyConfig) -> VerifyResult {
    let transformed = pass.apply(kernel);
    verify_equiv(kernel, &transformed, cfg)
}

/// Prove `a` and `b` observably equivalent under `cfg`.
///
/// Both kernels are symbolically executed block by block, all threads of a
/// block in lockstep (so shared-memory staging works), and each thread's
/// ordered trace of observable events — global/shared stores and barriers —
/// is compared. The first divergence is returned as a counterexample. This
/// is a one-off [`Reference`] of `a` and one [`Reference::check`] of `b`.
pub fn verify_equiv(a: &Kernel, b: &Kernel, cfg: &VerifyConfig) -> VerifyResult {
    Reference::new(a, cfg).check(b, cfg.params_b.as_deref(), cfg.input_map_b.as_ref())
}

/// One kernel's symbolic run under a [`VerifyConfig`] (its launch shape,
/// `params`, `input_map` and uniform-`While` guard), kept so that any number
/// of kernels can be checked against it while it runs only once.
///
/// Each block has its own term arena, holding the reference's terms and
/// its threads' traces. Blocks run lazily, in block order, when the first
/// check reaches them, and are kept for every later check. A check interns
/// its kernel's terms into the block's arena after the reference's and
/// drops them once compared, so every check starts from the arena the
/// reference left and returns exactly what a one-off [`verify_equiv`]
/// returns.
pub struct Reference<'k> {
    kernel: &'k Kernel,
    cfg: &'k VerifyConfig,
    /// Why no check can run: an empty launch or a parameter list that does
    /// not fit the reference kernel.
    invalid: Option<VerifyResult>,
    /// One run per assumed uniform trip count `1..=r` under the guard, or
    /// the one unguarded run.
    runs: Vec<RefRun>,
}

/// The reference's run under one trip-count assumption.
struct RefRun {
    assume_rounds: Option<u32>,
    /// Blocks `0..blocks.len()`, run so far.
    blocks: Vec<RefBlock>,
    /// The `Unsupported` of block `blocks.len()`, when it cannot run: every
    /// check that reaches it returns this.
    stuck: Option<VerifyResult>,
}

/// One block of the reference: its terms, its threads' traces, and the
/// store and barrier events in them.
struct RefBlock {
    arena: TermArena,
    traces: Vec<Vec<Event>>,
    stores: u64,
    syncs: u64,
}

impl<'k> Reference<'k> {
    /// The reference run of `kernel` under `cfg`. Nothing is executed until
    /// the first [`Reference::check`].
    pub fn new(kernel: &'k Kernel, cfg: &'k VerifyConfig) -> Reference<'k> {
        let invalid = if cfg.block == 0 || cfg.grid == 0 {
            Some(VerifyResult::Unsupported {
                reason: "empty launch".to_string(),
            })
        } else {
            param_mismatch(kernel, &cfg.params)
        };
        let assumptions: Vec<Option<u32>> = match cfg.uniform_while_rounds {
            None => vec![None],
            Some(rounds) => (1..=rounds.max(1)).map(Some).collect(),
        };
        Reference {
            kernel,
            cfg,
            invalid,
            runs: assumptions
                .into_iter()
                .map(|assume_rounds| RefRun {
                    assume_rounds,
                    blocks: Vec::new(),
                    stuck: None,
                })
                .collect(),
        }
    }

    /// Prove `b`, run with `params_b` and inputs named by `map_b`,
    /// observably equivalent to the reference. `None` takes the reference's
    /// own parameters or naming, as [`VerifyConfig::params_b`] and
    /// [`VerifyConfig::input_map_b`] do.
    pub fn check(
        &mut self,
        b: &Kernel,
        params_b: Option<&[u32]>,
        map_b: Option<&InputMap>,
    ) -> VerifyResult {
        if let Some(r) = &self.invalid {
            return r.clone();
        }
        let cfg = self.cfg;
        let params_b = params_b.unwrap_or(&cfg.params);
        if let Some(r) = param_mismatch(b, params_b) {
            return r;
        }
        let empty = InputMap::default();
        let side_a = Side {
            kernel: self.kernel,
            params: &cfg.params,
            map: cfg.input_map.as_ref().unwrap_or(&empty),
        };
        let side_b = Side {
            kernel: b,
            params: params_b,
            map: map_b.or(cfg.input_map.as_ref()).unwrap_or(&empty),
        };
        // One full proof per assumed uniform trip count (the one run
        // without the guard); every one must hold.
        let (mut threads, mut stores, mut syncs) = (0u64, 0u64, 0u64);
        for run in &mut self.runs {
            match run.check(&side_a, &side_b, cfg) {
                VerifyResult::Proved {
                    threads: th,
                    stores: st,
                    syncs: sy,
                } => {
                    threads += th;
                    stores += st;
                    syncs += sy;
                }
                other => return other,
            }
        }
        if cfg.uniform_while_rounds.is_none() {
            return VerifyResult::Proved {
                threads,
                stores,
                syncs,
            };
        }
        VerifyResult::ProvedBounded {
            rounds: self.runs.len() as u32,
            threads,
            stores,
            syncs,
        }
    }
}

/// `Unsupported` when `params` does not fit `k`'s parameter list.
fn param_mismatch(k: &Kernel, params: &[u32]) -> Option<VerifyResult> {
    (params.len() != k.n_params as usize).then(|| VerifyResult::Unsupported {
        reason: format!(
            "kernel `{}` takes {} parameters, config supplies {}",
            k.name,
            k.n_params,
            params.len()
        ),
    })
}

/// A kernel with the parameters and input naming it runs under.
struct Side<'s> {
    kernel: &'s Kernel,
    params: &'s [u32],
    map: &'s InputMap,
}

impl RefRun {
    /// Block `block_id` of the run, running the blocks up to it first.
    fn block(
        &mut self,
        a: &Side<'_>,
        cfg: &VerifyConfig,
        block_id: u32,
    ) -> Result<&mut RefBlock, VerifyResult> {
        while self.blocks.len() <= block_id as usize {
            if let Some(stuck) = &self.stuck {
                return Err(stuck.clone());
            }
            let id = self.blocks.len() as u32;
            let mut arena = TermArena::new();
            match run_block(
                a.kernel,
                a.params,
                a.map,
                id,
                cfg,
                self.assume_rounds,
                &mut arena,
            ) {
                Ok(traces) => {
                    let events = traces.iter().flatten();
                    let stores = events
                        .clone()
                        .filter(|e| matches!(e, Event::Store { .. }))
                        .count() as u64;
                    let syncs = events.filter(|e| matches!(e, Event::Sync)).count() as u64;
                    self.blocks.push(RefBlock {
                        arena,
                        traces,
                        stores,
                        syncs,
                    });
                }
                Err(e) => self.stuck = Some(e.into_result(a.kernel, id)),
            }
        }
        Ok(&mut self.blocks[block_id as usize])
    }

    /// One equivalence proof of `b` against this run, block by block: the
    /// reference's block first, then `b`'s in the same arena.
    fn check(&mut self, a: &Side<'_>, b: &Side<'_>, cfg: &VerifyConfig) -> VerifyResult {
        let assume_rounds = self.assume_rounds;
        let (mut threads, mut stores, mut syncs) = (0u64, 0u64, 0u64);
        for block_id in 0..cfg.grid {
            let blk = match self.block(a, cfg, block_id) {
                Ok(blk) => blk,
                Err(stuck) => return stuck,
            };
            let mark = blk.arena.nodes.len();
            let verdict = match run_block(
                b.kernel,
                b.params,
                b.map,
                block_id,
                cfg,
                assume_rounds,
                &mut blk.arena,
            ) {
                Err(e) => Some(e.into_result(b.kernel, block_id)),
                Ok(trace_b) => {
                    blk.traces
                        .iter()
                        .zip(&trace_b)
                        .enumerate()
                        .find_map(|(tid, (ta, tb))| {
                            let m = compare_traces(ta, tb, &blk.arena)?;
                            Some(VerifyResult::Mismatch {
                                site: FaultSite {
                                    kernel: Some(b.kernel.name.clone()),
                                    block: Some(block_id),
                                    thread: Some(tid as u32),
                                    instruction: m.instruction,
                                },
                                detail: m.detail,
                            })
                        })
                }
            };
            blk.arena.truncate(mark);
            if let Some(v) = verdict {
                return v;
            }
            threads += u64::from(cfg.block);
            stores += blk.stores;
            syncs += blk.syncs;
        }
        VerifyResult::Proved {
            threads,
            stores,
            syncs,
        }
    }
}

/// One observable event in a thread's trace.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    /// A barrier this thread retired.
    Sync,
    /// A store this thread issued: space, resolved byte address, the stored
    /// word terms, and the instruction index (for counterexamples).
    Store {
        space: MemSpace,
        addr: u64,
        values: Vec<TermId>,
        instr: u64,
    },
    /// A forced decision on a data-dependent `While` continuation under the
    /// uniform-bound guard: at completed round `round`, the predicate was
    /// *assumed* to be `cont`. Both kernels must consult an unknown
    /// continuation at the same trace positions with the same outcomes, or
    /// the per-assumption proofs do not transfer between them.
    Assume { round: u32, cont: bool },
}

struct TraceMismatch {
    instruction: Option<u64>,
    detail: String,
}

fn compare_traces(a: &[Event], b: &[Event], arena: &TermArena) -> Option<TraceMismatch> {
    for (i, (ea, eb)) in a.iter().zip(b.iter()).enumerate() {
        match (ea, eb) {
            (Event::Sync, Event::Sync) => {}
            (
                Event::Store {
                    space: sa,
                    addr: aa,
                    values: va,
                    instr: _,
                },
                Event::Store {
                    space: sb,
                    addr: ab,
                    values: vb,
                    instr: ib,
                },
            ) => {
                if sa != sb || aa != ab {
                    return Some(TraceMismatch {
                        instruction: Some(*ib),
                        detail: format!(
                            "event {i}: store targets differ: {sa:?}@{aa:#x} vs {sb:?}@{ab:#x}"
                        ),
                    });
                }
                if va.len() != vb.len() {
                    return Some(TraceMismatch {
                        instruction: Some(*ib),
                        detail: format!(
                            "event {i}: store widths differ: {} vs {} words at {sa:?}@{aa:#x}",
                            va.len(),
                            vb.len()
                        ),
                    });
                }
                for (w, (ta, tb)) in va.iter().zip(vb.iter()).enumerate() {
                    if ta != tb {
                        return Some(TraceMismatch {
                            instruction: Some(*ib),
                            detail: format!(
                                "event {i}: word {w} stored to {sa:?}@{aa:#x} differs: {} vs {}",
                                arena.render(*ta, 5),
                                arena.render(*tb, 5)
                            ),
                        });
                    }
                }
            }
            (
                Event::Assume {
                    round: ra,
                    cont: ca,
                },
                Event::Assume {
                    round: rb,
                    cont: cb,
                },
            ) => {
                if ra != rb || ca != cb {
                    return Some(TraceMismatch {
                        instruction: None,
                        detail: format!(
                            "event {i}: While assumptions diverge: \
                             round {ra} cont={ca} vs round {rb} cont={cb}"
                        ),
                    });
                }
            }
            (ea, eb) => {
                let describe = |e: &Event| match e {
                    Event::Sync => "syncs".to_string(),
                    Event::Store { space, addr, .. } => format!("stores to {space:?}@{addr:#x}"),
                    Event::Assume { round, cont } => {
                        format!("assumes While round {round} cont={cont}")
                    }
                };
                let instr = match eb {
                    Event::Store { instr, .. } => Some(*instr),
                    _ => None,
                };
                return Some(TraceMismatch {
                    instruction: instr,
                    detail: format!(
                        "event {i}: original thread {}, transformed {}",
                        describe(ea),
                        describe(eb)
                    ),
                });
            }
        }
    }
    if a.len() != b.len() {
        let instr = b.get(a.len()).and_then(|e| match e {
            Event::Store { instr, .. } => Some(*instr),
            Event::Sync | Event::Assume { .. } => None,
        });
        return Some(TraceMismatch {
            instruction: instr,
            detail: format!(
                "trace lengths differ: {} vs {} observable events",
                a.len(),
                b.len()
            ),
        });
    }
    None
}

/// Why a symbolic block run could not finish.
#[derive(Debug)]
struct RunStuck {
    instruction: Option<u64>,
    reason: String,
}

impl RunStuck {
    fn into_result(self, k: &Kernel, block: u32) -> VerifyResult {
        VerifyResult::Unsupported {
            reason: format!(
                "kernel `{}` block {block}{}: {}",
                k.name,
                match self.instruction {
                    Some(i) => format!(" instruction {i}"),
                    None => String::new(),
                },
                self.reason
            ),
        }
    }
}

/// Symbolic state of one block: every thread in lockstep.
struct BlockRun<'k, 'a> {
    input_map: &'k InputMap,
    block_id: u32,
    grid: u32,
    block: u32,
    max_steps: u64,
    /// `Some(t)` = uniform-bound guard: assume unknown `While` continuations
    /// run exactly `t` rounds (see [`VerifyConfig::uniform_while_rounds`]).
    assume_rounds: Option<u32>,
    arena: &'a mut TermArena,
    /// regs[thread][reg]
    regs: Vec<Vec<TermId>>,
    /// preds[thread][pred]
    preds: Vec<Vec<Option<bool>>>,
    /// Per-thread clock-sample counter.
    clocks: Vec<u32>,
    /// Shared memory words this block wrote: word address → term.
    shared: FastMap<u64, TermId>,
    /// Global words *this kernel* wrote: address → term (reads of unwritten
    /// words become canonical input terms).
    global: FastMap<u64, TermId>,
    traces: Vec<Vec<Event>>,
}

fn run_block(
    kernel: &Kernel,
    params: &[u32],
    input_map: &InputMap,
    block_id: u32,
    cfg: &VerifyConfig,
    assume_rounds: Option<u32>,
    arena: &mut TermArena,
) -> Result<Vec<Vec<Event>>, RunStuck> {
    let n_threads = cfg.block as usize;
    let n_regs = (kernel.n_regs.max(kernel.n_params)).max(kernel.max_reg_referenced() + 1) as usize;
    let zero = arena.konst(0);
    let mut regs = vec![vec![zero; n_regs]; n_threads];
    for (p, &v) in params.iter().enumerate() {
        let t = arena.konst(v);
        for r in regs.iter_mut() {
            r[p] = t;
        }
    }
    let mut run = BlockRun {
        input_map,
        block_id,
        grid: cfg.grid,
        block: cfg.block,
        max_steps: cfg.max_steps,
        assume_rounds,
        arena,
        regs,
        preds: vec![vec![None; kernel.n_preds.max(1) as usize]; n_threads],
        clocks: vec![0; n_threads],
        shared: FastMap::default(),
        global: FastMap::default(),
        traces: vec![Vec::new(); n_threads],
    };
    let mut ix = InstrIndexer::new();
    let tree = interp::index_stmts(&kernel.body, &mut ix);
    let all: Vec<usize> = (0..n_threads).collect();
    run.walk(&tree, &all)?;
    Ok(run.traces)
}

impl BlockRun<'_, '_> {
    fn operand(&mut self, t: usize, o: &Operand) -> TermId {
        match o {
            Operand::R(r) => self.regs[t][r.0 as usize],
            Operand::ImmU(v) => self.arena.konst(*v),
            Operand::ImmF(f) => self.arena.konst(f.to_bits()),
        }
    }

    /// A register operand's value must be a compile-time constant to steer
    /// control flow; report which instruction needed it otherwise.
    fn concrete(&mut self, t: usize, o: &Operand, at: Option<u64>) -> Result<u32, RunStuck> {
        let term = self.operand(t, o);
        self.arena.as_const(term).ok_or_else(|| RunStuck {
            instruction: at,
            reason: "control flow depends on a value that is not a launch constant".to_string(),
        })
    }

    fn walk(&mut self, stmts: &[interp::IStmt<'_>], active: &[usize]) -> Result<(), RunStuck> {
        use interp::IStmt;
        for s in stmts {
            match s {
                IStmt::I(idx, i) => self.exec(*idx, i, active)?,
                IStmt::Sync => {
                    // A barrier under partial activity is a defect the lint
                    // reports; for equivalence it is still an ordered event
                    // for the threads that reach it.
                    for &t in active {
                        self.traces[t].push(Event::Sync);
                    }
                }
                IStmt::If {
                    pred,
                    negate,
                    then,
                    els,
                } => {
                    let mut taken = Vec::new();
                    let mut not_taken = Vec::new();
                    for &t in active {
                        let Some(p) = self.preds[t][pred.0 as usize] else {
                            return Err(RunStuck {
                                instruction: None,
                                reason: format!(
                                    "branch predicate %p{} is not statically known",
                                    pred.0
                                ),
                            });
                        };
                        if p != *negate {
                            taken.push(t);
                        } else {
                            not_taken.push(t);
                        }
                    }
                    if !taken.is_empty() {
                        self.walk(then, &taken)?;
                    }
                    if !not_taken.is_empty() {
                        self.walk(els, &not_taken)?;
                    }
                }
                IStmt::For {
                    init,
                    var,
                    start,
                    end,
                    step,
                    body,
                    latch,
                } => {
                    if *step == 0 {
                        return Err(RunStuck {
                            instruction: Some(*init),
                            reason: "loop step is zero".to_string(),
                        });
                    }
                    // Uniform trip counts only: each active thread's bounds
                    // must be known, and iteration proceeds per-thread value
                    // (a grid-strided start is fine — the latch compare is
                    // evaluated per thread each round, in lockstep).
                    // Indexed by thread; only the active threads' slots are read.
                    let mut iv = vec![0u32; self.block as usize];
                    let mut ends = vec![0u32; self.block as usize];
                    for &t in active {
                        iv[t] = self.concrete(t, start, Some(*init))?;
                        ends[t] = self.concrete(t, end, Some(*init))?;
                    }
                    let mut rounds = 0u64;
                    let mut live: Vec<usize> = active.to_vec();
                    // Bottom-tested: every thread runs the body at least once.
                    loop {
                        for &t in &live {
                            let v = self.arena.konst(iv[t]);
                            self.regs[t][var.0 as usize] = v;
                        }
                        self.walk(body, &live)?;
                        for &t in &live {
                            iv[t] = iv[t].wrapping_add(*step);
                            let v = self.arena.konst(iv[t]);
                            self.regs[t][var.0 as usize] = v;
                        }
                        live.retain(|&t| iv[t] < ends[t]);
                        rounds += 1;
                        if live.is_empty() {
                            break;
                        }
                        if rounds >= self.max_steps {
                            return Err(RunStuck {
                                instruction: Some(latch.2),
                                reason: format!(
                                    "loop exceeded the {}-iteration budget",
                                    self.max_steps
                                ),
                            });
                        }
                    }
                }
                IStmt::While {
                    pred,
                    negate,
                    body,
                    backedge,
                } => {
                    let mut live: Vec<usize> = active.to_vec();
                    let mut rounds = 0u64;
                    loop {
                        self.walk(body, &live)?;
                        rounds += 1;
                        let mut next = Vec::new();
                        for &t in &live {
                            let cont = match self.preds[t][pred.0 as usize] {
                                Some(p) => p != *negate,
                                None => {
                                    // Under the uniform-bound guard an
                                    // unknown continuation is assumed, not
                                    // fatal: continue for the first t − 1
                                    // rounds, exit at round t, and make the
                                    // decision part of the observable trace.
                                    let Some(t_rounds) = self.assume_rounds else {
                                        return Err(RunStuck {
                                            instruction: Some(*backedge),
                                            reason: format!(
                                                "While continuation predicate %p{} is data-dependent",
                                                pred.0
                                            ),
                                        });
                                    };
                                    let cont = rounds < u64::from(t_rounds);
                                    self.traces[t].push(Event::Assume {
                                        round: rounds as u32,
                                        cont,
                                    });
                                    cont
                                }
                            };
                            if cont {
                                next.push(t);
                            }
                        }
                        live = next;
                        if live.is_empty() {
                            break;
                        }
                        if rounds >= self.max_steps {
                            return Err(RunStuck {
                                instruction: Some(*backedge),
                                reason: format!(
                                    "While loop exceeded the {}-iteration budget",
                                    self.max_steps
                                ),
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn exec(&mut self, idx: u64, i: &Instr, active: &[usize]) -> Result<(), RunStuck> {
        match i {
            Instr::Mov { dst, src } => {
                for &t in active {
                    let v = self.operand(t, src);
                    self.regs[t][dst.0 as usize] = v;
                }
            }
            Instr::Special { dst, sr } => {
                for &t in active {
                    let v = match sr {
                        SpecialReg::TidX => t as u32,
                        SpecialReg::CtaidX => self.block_id,
                        SpecialReg::NtidX => self.block,
                        SpecialReg::NctaidX => self.grid,
                    };
                    let term = self.arena.konst(v);
                    self.regs[t][dst.0 as usize] = term;
                }
            }
            Instr::Alu { op, dst, a, b } => {
                for &t in active {
                    let (x, y) = (self.operand(t, a), self.operand(t, b));
                    let v = self.arena.alu(*op, x, y);
                    self.regs[t][dst.0 as usize] = v;
                }
            }
            Instr::Mad {
                float,
                dst,
                a,
                b,
                c,
            } => {
                for &t in active {
                    let (x, y, z) = (self.operand(t, a), self.operand(t, b), self.operand(t, c));
                    let v = self.arena.mad(*float, x, y, z);
                    self.regs[t][dst.0 as usize] = v;
                }
            }
            Instr::Unary { op, dst, a } => {
                for &t in active {
                    let x = self.operand(t, a);
                    let v = self.arena.unary(*op, x);
                    self.regs[t][dst.0 as usize] = v;
                }
            }
            Instr::Setp { dst, cmp, a, b } => {
                for &t in active {
                    let (x, y) = (self.operand(t, a), self.operand(t, b));
                    let v = match (self.arena.as_const(x), self.arena.as_const(y)) {
                        (Some(x), Some(y)) => Some(interp::compare(*cmp, x, y)),
                        _ => None,
                    };
                    self.preds[t][dst.0 as usize] = v;
                }
            }
            Instr::Ld {
                dsts,
                space,
                base,
                offset,
            } => {
                for &t in active {
                    let addr = self.address(t, *base, *offset, idx)?;
                    for (w, d) in dsts.iter().enumerate() {
                        let wa = addr + 4 * w as u64;
                        let v = self.load_word(*space, wa);
                        self.regs[t][d.0 as usize] = v;
                    }
                }
            }
            Instr::St {
                srcs,
                space,
                base,
                offset,
            } => {
                if *space == MemSpace::Texture {
                    return Err(RunStuck {
                        instruction: Some(idx),
                        reason: "store through the read-only texture path".to_string(),
                    });
                }
                for &t in active {
                    let addr = self.address(t, *base, *offset, idx)?;
                    let mut values = Vec::with_capacity(srcs.len());
                    for (w, s) in srcs.iter().enumerate() {
                        let v = self.operand(t, s);
                        values.push(v);
                        let wa = addr + 4 * w as u64;
                        match space {
                            MemSpace::Shared => self.shared.insert(wa, v),
                            _ => self.global.insert(wa, v),
                        };
                    }
                    self.traces[t].push(Event::Store {
                        space: *space,
                        addr,
                        values,
                        instr: idx,
                    });
                }
            }
            Instr::Clock { dst } => {
                for &t in active {
                    let n = self.clocks[t];
                    self.clocks[t] += 1;
                    let v = self.arena.intern(Node::Clock(n));
                    self.regs[t][dst.0 as usize] = v;
                }
            }
        }
        Ok(())
    }

    /// Resolve a memory address; it must be concrete (addresses drive which
    /// input terms are created, so a symbolic address is undecidable).
    fn address(
        &mut self,
        t: usize,
        base: crate::ir::Reg,
        offset: u32,
        idx: u64,
    ) -> Result<u64, RunStuck> {
        let b = self.regs[t][base.0 as usize];
        match self.arena.as_const(b) {
            Some(v) => Ok(v.wrapping_add(offset) as u64),
            None => Err(RunStuck {
                instruction: Some(idx),
                reason: "memory address is not statically resolvable".to_string(),
            }),
        }
    }

    fn load_word(&mut self, space: MemSpace, addr: u64) -> TermId {
        match space {
            MemSpace::Shared => {
                if let Some(&v) = self.shared.get(&addr) {
                    return v;
                }
                self.arena.intern(Node::Input {
                    space: MemSpace::Shared,
                    key: addr,
                })
            }
            MemSpace::Global | MemSpace::Texture => {
                if let Some(&v) = self.global.get(&addr) {
                    return v;
                }
                let key = self.input_map.key(addr);
                // The texture path reads the same underlying buffers.
                self.arena.intern(Node::Input {
                    space: MemSpace::Global,
                    key,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CmpOp, KernelBuilder, Reg, Stmt};

    /// out[i] = a[i] * s + eps²  with the ε² multiply recomputed per
    /// iteration — licm has something to hoist, unroll has a loop to unroll.
    fn sample_kernel(iters: u32) -> Kernel {
        let mut b = KernelBuilder::new("sample");
        let buf = b.param();
        let out = b.param();
        let eps = b.param();
        let i = b.global_thread_index();
        let acc = b.mov(Operand::ImmF(0.0));
        b.for_loop(Operand::ImmU(0), Operand::ImmU(iters), 1, |b, it| {
            let e2 = b.fmul(eps.into(), eps.into());
            let a = b.mad_u(it.into(), Operand::ImmU(4), buf.into());
            let v = b.ld(MemSpace::Global, a, 0, 1)[0];
            let x = b.fmad(v.into(), e2.into(), acc.into());
            b.alu_into(acc, AluOp::FAdd, acc.into(), x.into());
        });
        let oa = b.mad_u(i.into(), Operand::ImmU(4), out.into());
        b.st(MemSpace::Global, oa, 0, vec![acc.into()]);
        b.finish()
    }

    fn cfg() -> VerifyConfig {
        VerifyConfig::new(1, 32, vec![0x1000, 0x8000, 0.5f32.to_bits()])
    }

    #[test]
    fn identity_is_proved() {
        let k = sample_kernel(8);
        let r = verify_equiv(&k, &k, &cfg());
        assert!(r.is_proved(), "{r}");
    }

    #[test]
    fn all_passes_prove_on_the_sample() {
        let k = sample_kernel(8);
        for pass in [
            PassId::Licm,
            PassId::Fold,
            PassId::Unroll(4),
            PassId::Unroll(8),
            PassId::LicmThenUnroll(8),
            PassId::UnrollThenLicm(8),
        ] {
            let r = verify_pass(&k, pass, &cfg());
            assert!(r.is_proved(), "{}: {r}", pass.label());
        }
    }

    #[test]
    fn changed_store_value_is_a_mismatch_with_site() {
        let k = sample_kernel(4);
        let bad = sample_with_wrong_store(4);
        let r = verify_equiv(&k, &bad, &cfg());
        let VerifyResult::Mismatch { site, detail } = r else {
            panic!("expected mismatch, got {r}");
        };
        assert_eq!(site.kernel.as_deref(), Some("sample"));
        assert_eq!(site.block, Some(0));
        assert_eq!(site.thread, Some(0));
        assert!(site.instruction.is_some());
        assert!(detail.contains("differs"), "{detail}");
    }

    #[test]
    fn dropped_sync_is_a_mismatch() {
        let mut b = KernelBuilder::new("syncful");
        let out = b.param();
        let tid = b.special(SpecialReg::TidX);
        let sa = b.imul(tid.into(), Operand::ImmU(4));
        b.st(MemSpace::Shared, sa, 0, vec![tid.into()]);
        b.sync();
        let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
        b.st(MemSpace::Global, oa, 0, vec![tid.into()]);
        let k = b.finish();
        let mut bad = k.clone();
        bad.body.retain(|s| !matches!(s, Stmt::Sync));
        let r = verify_equiv(&k, &bad, &VerifyConfig::new(1, 32, vec![0x8000]));
        assert!(matches!(r, VerifyResult::Mismatch { .. }), "{r}");
    }

    #[test]
    fn data_dependent_branch_is_unsupported_not_proved() {
        let mut b = KernelBuilder::new("ddbranch");
        let buf = b.param();
        let out = b.param();
        let tid = b.special(SpecialReg::TidX);
        let v = b.ld(MemSpace::Global, buf, 0, 1)[0];
        let p = b.setp(CmpOp::ULt, v.into(), Operand::ImmU(10));
        b.if_then(p, |b| {
            let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
            b.st(MemSpace::Global, oa, 0, vec![v.into()]);
        });
        let k = b.finish();
        let r = verify_equiv(&k, &k, &VerifyConfig::new(1, 32, vec![0x1000, 0x8000]));
        assert!(matches!(r, VerifyResult::Unsupported { .. }), "{r}");
    }

    #[test]
    fn proof_is_symbolic_in_memory_contents() {
        // The sample kernel's stores depend on loaded data; a proof must not
        // depend on any particular memory content — check the input terms
        // show up in the rendered detail of a deliberate value flip.
        let k = sample_kernel(2);
        let mut arena = TermArena::new();
        let t = run_block(
            &k,
            &[0x1000, 0x8000, 0x3f000000],
            &InputMap::default(),
            0,
            &cfg(),
            None,
            &mut arena,
        )
        .expect("supported");
        let Event::Store { values, .. } = &t[0][0] else {
            panic!("store expected")
        };
        let txt = arena.render(values[0], 12);
        assert!(
            txt.contains("Global[0x1000]"),
            "store value should reference the input: {txt}"
        );
    }

    #[test]
    fn interned_ids_are_dense_and_stable_across_growth_and_clear() {
        let mut arena = TermArena::new();
        for round in 0..2 {
            // Enough terms to double the table several times.
            let ids: Vec<TermId> = (0..1000).map(|v| arena.konst(v * 4)).collect();
            for (k, id) in ids.iter().enumerate() {
                assert_eq!(id.0 as usize, k, "round {round}: insertion order");
            }
            let sum = arena.intern(Node::Alu(AluOp::IAdd, ids[3], ids[7]));
            assert_eq!(sum.0, 1000);
            for (v, id) in (0..1000).zip(&ids) {
                assert_eq!(arena.konst(v * 4), *id, "re-interning finds the term");
            }
            assert_eq!(arena.intern(Node::Alu(AluOp::IAdd, ids[3], ids[7])), sum);
            assert_eq!(arena.nodes.len(), 1001);
            arena.truncate(0);
        }
    }

    #[test]
    fn truncation_forgets_exactly_the_newer_terms() {
        let mut arena = TermArena::new();
        // Past several doublings, so the kept and the dropped terms share
        // probe runs in the grown table.
        let ids: Vec<TermId> = (0..1000).map(|v| arena.konst(v * 4)).collect();
        arena.truncate(600);
        assert_eq!(arena.nodes.len(), 600);
        for (v, id) in (0..600).zip(&ids) {
            assert_eq!(arena.konst(v * 4), *id, "a kept term keeps its id");
        }
        // A dropped term is new again and takes the next id.
        for (k, v) in (600..1000).rev().enumerate() {
            assert_eq!(arena.konst(v * 4).0 as usize, 600 + k);
        }
    }

    /// A uniform data-dependent walk: every thread loads the same scalar,
    /// recomputes an invariant product in the loop, and counts down — the
    /// continuation is genuinely data-dependent, but uniform across lanes.
    fn countdown_kernel() -> Kernel {
        let mut b = KernelBuilder::new("countdown");
        let buf = b.param();
        let out = b.param();
        let scale = b.param();
        let tid = b.special(SpecialReg::TidX);
        let n = b.ld(MemSpace::Global, buf, 0, 1)[0];
        let acc = b.mov(Operand::ImmF(0.0));
        b.do_while(|b| {
            let s2 = b.fmul(scale.into(), scale.into());
            b.alu_into(acc, AluOp::FAdd, acc.into(), s2.into());
            b.alu_into(n, AluOp::ISub, n.into(), Operand::ImmU(1));
            b.setp(CmpOp::UNe, n.into(), Operand::ImmU(0))
        });
        let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
        b.st(MemSpace::Global, oa, 0, vec![acc.into()]);
        b.finish()
    }

    #[test]
    fn uniform_while_guard_turns_unsupported_into_bounded_proof() {
        let k = countdown_kernel();
        let base = VerifyConfig::new(1, 32, vec![0x1000, 0x8000, 0.5f32.to_bits()]);
        let r = verify_equiv(&k, &k, &base);
        assert!(matches!(r, VerifyResult::Unsupported { .. }), "{r}");
        let guarded = base.with_uniform_while_rounds(5);
        let r = verify_equiv(&k, &k, &guarded);
        assert!(r.is_proved_bounded(), "{r}");
        assert!(!r.is_proved(), "bounded proof must not claim the full one");
        let VerifyResult::ProvedBounded { rounds, stores, .. } = r else {
            unreachable!()
        };
        assert_eq!(rounds, 5);
        // One output store per thread per assumed trip count: 32 × 5.
        assert_eq!(stores, 32 * 5);
    }

    #[test]
    fn licm_proves_under_the_uniform_while_guard() {
        // licm hoists the invariant `scale²` out of the data-dependent loop;
        // the guarded lockstep must still match the traces round for round.
        let k = countdown_kernel();
        let cfg = VerifyConfig::new(1, 32, vec![0x1000, 0x8000, 0.5f32.to_bits()])
            .with_uniform_while_rounds(4);
        let r = verify_pass(&k, PassId::Licm, &cfg);
        assert!(r.is_proved_bounded(), "{}: {r}", PassId::Licm.label());
    }

    #[test]
    fn guarded_proof_still_catches_mismatches() {
        let k = countdown_kernel();
        let mut bad = k.clone();
        let Some(Stmt::I(Instr::St { srcs, .. })) = bad.body.last_mut() else {
            panic!("expected trailing store");
        };
        srcs[0] = Operand::R(Reg(2)); // store `scale` instead of the accumulator
        let cfg = VerifyConfig::new(1, 32, vec![0x1000, 0x8000, 0.5f32.to_bits()])
            .with_uniform_while_rounds(3);
        let r = verify_equiv(&k, &bad, &cfg);
        assert!(matches!(r, VerifyResult::Mismatch { .. }), "{r}");
    }

    #[test]
    fn guard_does_not_mask_divergent_while_exits() {
        // A *non-uniform* continuation (per-lane countdown from tid) resolves
        // concretely — known predicates keep steering, no assumption fires,
        // and the result is the plain guarded re-proof of a decidable loop.
        let mut b = KernelBuilder::new("divexit");
        let out = b.param();
        let tid = b.special(SpecialReg::TidX);
        let n = b.alu(AluOp::IAdd, tid.into(), Operand::ImmU(1));
        b.do_while(|b| {
            b.alu_into(n, AluOp::ISub, n.into(), Operand::ImmU(1));
            b.setp(CmpOp::UNe, n.into(), Operand::ImmU(0))
        });
        let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
        b.st(MemSpace::Global, oa, 0, vec![n.into()]);
        let k = b.finish();
        let cfg = VerifyConfig::new(1, 8, vec![0x8000]).with_uniform_while_rounds(2);
        let r = verify_equiv(&k, &k, &cfg);
        assert!(r.is_proved_bounded(), "{r}");
    }

    /// The sample kernel with its final store writing ε instead of the
    /// accumulator.
    fn sample_with_wrong_store(iters: u32) -> Kernel {
        let mut bad = sample_kernel(iters);
        let Some(Stmt::I(Instr::St { srcs, .. })) = bad.body.last_mut() else {
            panic!("expected trailing store");
        };
        srcs[0] = Operand::R(Reg(2)); // eps param
        bad
    }

    #[test]
    fn checks_against_one_reference_match_one_off_proofs() {
        let k = sample_kernel(8);
        // Same parameters as the sample; branches on a loaded word.
        let stuck = {
            let mut b = KernelBuilder::new("ddbranch");
            let buf = b.param();
            let out = b.param();
            let _eps = b.param();
            let tid = b.special(SpecialReg::TidX);
            let v = b.ld(MemSpace::Global, buf, 0, 1)[0];
            let p = b.setp(CmpOp::ULt, v.into(), Operand::ImmU(10));
            b.if_then(p, |b| {
                let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
                b.st(MemSpace::Global, oa, 0, vec![v.into()]);
            });
            b.finish()
        };
        let candidates = [
            PassId::LicmThenUnroll(8).apply(&k),
            sample_with_wrong_store(8),
            stuck,
            PassId::Licm.apply(&k),
        ];
        let cfg = VerifyConfig::new(2, 32, vec![0x1000, 0x8000, 0.5f32.to_bits()]);
        let mut reference = Reference::new(&k, &cfg);
        let shared: Vec<VerifyResult> = candidates
            .iter()
            .map(|c| reference.check(c, None, None))
            .collect();
        let one_off: Vec<VerifyResult> = candidates
            .iter()
            .map(|c| verify_equiv(&k, c, &cfg))
            .collect();
        assert_eq!(shared, one_off);
        assert!(shared[0].is_proved() && shared[3].is_proved(), "{shared:?}");
        assert!(
            matches!(shared[1], VerifyResult::Mismatch { .. }),
            "{}",
            shared[1]
        );
        assert!(
            matches!(shared[2], VerifyResult::Unsupported { .. }),
            "{}",
            shared[2]
        );
    }

    /// Stores `tid + bump` in every block; block 1 then branches on a
    /// loaded word, which no symbolic run can decide.
    fn stuck_in_block_1(bump: u32) -> Kernel {
        let mut b = KernelBuilder::new("late");
        let buf = b.param();
        let out = b.param();
        let tid = b.special(SpecialReg::TidX);
        let cta = b.special(SpecialReg::CtaidX);
        let v = b.iadd(tid.into(), Operand::ImmU(bump));
        let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
        b.st(MemSpace::Global, oa, 0, vec![v.into()]);
        let in_block_1 = b.setp(CmpOp::UEq, cta.into(), Operand::ImmU(1));
        b.if_then(in_block_1, |b| {
            let w = b.ld(MemSpace::Global, buf, 0, 1)[0];
            let p = b.setp(CmpOp::ULt, w.into(), Operand::ImmU(10));
            b.if_then(p, |b| b.st(MemSpace::Global, oa, 0, vec![w.into()]));
        });
        b.finish()
    }

    #[test]
    fn a_reference_stuck_in_block_1_still_reports_block_0_mismatches() {
        let k = stuck_in_block_1(0);
        let cfg = VerifyConfig::new(2, 32, vec![0x1000, 0x8000]);
        let mut reference = Reference::new(&k, &cfg);
        let early = reference.check(&stuck_in_block_1(1), None, None);
        let VerifyResult::Mismatch { site, .. } = &early else {
            panic!("expected a block-0 mismatch, got {early}");
        };
        assert_eq!((site.block, site.thread), (Some(0), Some(0)));
        // Block 0 passes: the candidate reaches the block the reference
        // could not run.
        let late = reference.check(&k, None, None);
        let VerifyResult::Unsupported { reason } = &late else {
            panic!("expected the reference's block-1 Unsupported, got {late}");
        };
        assert!(reason.starts_with("kernel `late` block 1"), "{reason}");
        // Neither answer depends on what the reference ran before.
        assert_eq!(reference.check(&stuck_in_block_1(1), None, None), early);
        assert_eq!(early, verify_equiv(&k, &stuck_in_block_1(1), &cfg));
        assert_eq!(late, verify_equiv(&k, &k, &cfg));
    }

    #[test]
    fn input_map_canonicalization_merges_layouts() {
        // Two trivially different "layouts" of one scalar: kernel A reads
        // addr 0x1000, kernel B reads 0x2000; the maps name both word 7.
        let build = |base: u32, name: &str| {
            let mut b = KernelBuilder::new(name);
            let buf = b.param();
            let out = b.param();
            let tid = b.special(SpecialReg::TidX);
            let v = b.ld(MemSpace::Global, buf, 0, 1)[0];
            let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
            b.st(MemSpace::Global, oa, 0, vec![v.into()]);
            (b.finish(), vec![base, 0x8000])
        };
        let (ka, pa) = build(0x1000, "la");
        let (kb, pb) = build(0x2000, "lb");
        let mut cfg = VerifyConfig::new(1, 32, pa);
        cfg.params_b = Some(pb);
        let mut ma = InputMap::default();
        ma.global.insert(0x1000, 7);
        let mut mb = InputMap::default();
        mb.global.insert(0x2000, 7);
        cfg.input_map = Some(ma);
        cfg.input_map_b = Some(mb);
        let r = verify_equiv(&ka, &kb, &cfg);
        assert!(r.is_proved(), "{r}");
        // Without the maps the same pair must NOT prove.
        let mut cfg2 = VerifyConfig::new(1, 32, vec![0x1000, 0x8000]);
        cfg2.params_b = Some(vec![0x2000, 0x8000]);
        let r2 = verify_equiv(&ka, &kb, &cfg2);
        assert!(matches!(r2, VerifyResult::Mismatch { .. }), "{r2}");
    }
}
