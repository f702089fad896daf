//! Static kernel analysis: IR-level lints for the paper's failure modes.
//!
//! `analyze` predicts — **without executing the kernel** — the memory
//! behaviour the dynamic engines measure, and flags the bug classes the rest
//! of the workspace models:
//!
//! * **Coalescing** ([`LintKind::UncoalescedAccess`]): per-lane addresses are
//!   derived by abstract interpretation (exact, bit-level — see
//!   [`interp`](self)), fed through the same
//!   [`coalesce_half_warp`](crate::coalesce::coalesce_half_warp) oracle the
//!   timed executor uses, and compared against the ideal transaction count.
//!   The paper's 28-byte record (Sec. III) is recognised by its lane stride
//!   and the fix-it points at `layout_advisor`'s 128-bit split.
//! * **Shared-memory bank conflicts** ([`LintKind::BankConflict`]): static
//!   conflict degree via [`conflict_degree`](crate::banks::conflict_degree).
//! * **Barrier hygiene** ([`LintKind::SharedRace`],
//!   [`LintKind::DivergentSync`], [`LintKind::BarrierDeadlock`],
//!   [`LintKind::DivergentLoopBranch`]): cross-thread shared accesses are
//!   tracked per barrier interval; syncs under divergent control flow and
//!   non-uniform loop backedges reuse the fault taxonomy of [`crate::fault`].
//! * **Dataflow** ([`LintKind::UseBeforeDef`], [`LintKind::DeadCode`],
//!   [`LintKind::UnhoistedInvariant`]): def-before-use, dead stores, and a
//!   diff against [`passes::licm`] that counts the invariant instructions a
//!   loop recomputes.
//! * **Occupancy** ([`LintKind::RegisterPressure`]): register demand from
//!   [`register_demand`] runs through the occupancy calculator; when
//!   registers are the limiter and freeing one or two would admit another
//!   block, the paper's 17→16 trick is suggested.
//!
//! Diagnostic coordinates (`kernel`/`block`/`thread`/`instruction`) share
//! [`FaultSite`] with the device-fault sanitizer, and instruction indices are
//! the stable pre-order numbering of [`InstrIndexer`] — the same numbers
//! `ir::pretty` prints in a disassembly.
//!
//! The load-bearing property (tested in `tests/analyze_proptests.rs`): for
//! kernels whose addresses resolve statically ([`AnalysisReport::exact`]),
//! [`AnalysisReport::predicted_transactions`] equals the dynamic coalescer's
//! transaction count **exactly**, under every [`DriverModel`].

mod domain;
mod interp;

pub mod cost;
pub mod synth;
pub mod verify;

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::device::DeviceConfig;
use crate::driver::DriverModel;
use crate::fault::FaultSite;
use crate::ir::regalloc::register_demand;
use crate::ir::{count, passes, Instr, InstrIndexer, Kernel, MemSpace, Operand, Stmt};
use crate::occupancy::{occupancy, regs_per_block, Limiter, Occupancy};
use interp::{IStmt, Sink, SiteAcc, StrideTrack};

/// How serious a finding is. `Error`-level findings make `kernel-lint` exit
/// nonzero and correspond to launches the dynamic engines would fault on or
/// results the paper calls out as pathological.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational: a modelled cost or an analysis limitation.
    Info,
    /// Probable performance problem; the kernel still runs correctly.
    Warning,
    /// A fault or a pathology the paper's optimisations exist to remove.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The lint classes the analyzer reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LintKind {
    /// A global access issuing more transactions than its ideal.
    UncoalescedAccess,
    /// An access the executor would fault on with `Misaligned`.
    MisalignedAccess,
    /// A shared access overrunning the static allocation.
    OutOfBoundsShared,
    /// A shared access serializing across banks.
    BankConflict,
    /// A cross-thread shared write/access pair with no barrier between.
    SharedRace,
    /// A `Sync` not provably reached by every thread.
    DivergentSync,
    /// A loop backedge that diverges within a warp (executor fault).
    DivergentLoopBranch,
    /// Warps of one block retiring different barrier counts.
    BarrierDeadlock,
    /// A register read that is never written (zero-init default).
    UseBeforeDef,
    /// A defined value that is never read.
    DeadCode,
    /// Loop-invariant instructions recomputed every iteration.
    UnhoistedInvariant,
    /// Registers are the occupancy limiter and freeing a few would help.
    RegisterPressure,
    /// A loop whose trip count is not a launch constant.
    UnboundedLoop,
    /// An access through the (dynamically cached) texture path.
    TextureDependence,
    /// An access whose interval address range is not provably inside a
    /// declared buffer extent (the static bounds certifier's finding).
    PossibleOutOfBounds,
    /// Something the static analysis cannot resolve.
    Unanalyzable,
}

impl LintKind {
    /// Stable kebab-case identifier (used in `--json` output and CI).
    pub fn name(&self) -> &'static str {
        match self {
            LintKind::UncoalescedAccess => "uncoalesced-access",
            LintKind::MisalignedAccess => "misaligned-access",
            LintKind::OutOfBoundsShared => "out-of-bounds-shared",
            LintKind::BankConflict => "bank-conflict",
            LintKind::SharedRace => "shared-race",
            LintKind::DivergentSync => "divergent-sync",
            LintKind::DivergentLoopBranch => "divergent-loop-branch",
            LintKind::BarrierDeadlock => "barrier-deadlock",
            LintKind::UseBeforeDef => "use-before-def",
            LintKind::DeadCode => "dead-code",
            LintKind::UnhoistedInvariant => "unhoisted-invariant",
            LintKind::RegisterPressure => "register-pressure",
            LintKind::UnboundedLoop => "unbounded-loop",
            LintKind::TextureDependence => "texture-dependence",
            LintKind::PossibleOutOfBounds => "possible-out-of-bounds",
            LintKind::Unanalyzable => "unanalyzable",
        }
    }
}

/// One finding.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Diagnostic {
    /// How serious it is.
    pub severity: Severity,
    /// Which lint fired.
    pub kind: LintKind,
    /// Where (same coordinate shape as a device fault).
    pub site: FaultSite,
    /// Human-readable statement of the problem.
    pub message: String,
    /// A concrete suggested fix, when the analyzer has one.
    pub fixit: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity,
            self.kind.name(),
            self.message
        )
    }
}

/// Static facts about one memory instruction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccessSummary {
    /// Stable instruction index (matches `ir::pretty` output).
    pub instruction: u64,
    /// Address space.
    pub space: MemSpace,
    /// Load or store.
    pub is_load: bool,
    /// Access width in bytes per lane.
    pub width_bytes: u32,
    /// Every execution had statically known, in-spec addresses.
    pub exact: bool,
    /// Predicted memory transactions over the whole launch (global only).
    pub transactions: u64,
    /// Transactions a perfectly coalesced pattern would need.
    pub ideal_transactions: u64,
    /// Predicted bytes moved over the bus.
    pub bus_bytes: u64,
    /// Half-warp issues with at least one active lane.
    pub half_warp_accesses: u64,
    /// Constant byte stride between adjacent lanes, when one exists.
    pub lane_stride: Option<i64>,
    /// Worst static bank-conflict degree (shared only; 1 = conflict-free).
    pub bank_degree: u32,
    /// Best-case transaction bound (equals `transactions` when exact).
    pub transactions_lo: u64,
    /// Worst-case transaction bound under the trip-count intervals.
    pub transactions_hi: u64,
    /// Worst-case half-warp issue bound (trip-interval scaled).
    pub half_warp_accesses_hi: u64,
    /// Interval byte footprint `[lo, hi)` this site can touch, when bounded.
    pub addr_range: Option<(u64, u64)>,
    /// Kernel parameter holding the base address of the buffer this site
    /// accesses (global sites only), when every execution attributes the
    /// site to the same single parameter. The hook the layout synthesizer
    /// ([`synth`]) uses to group sites into per-buffer access summaries.
    pub buffer_param: Option<u16>,
}

/// Everything the analyzer learned about one kernel under one launch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Kernel name.
    pub kernel: String,
    /// Driver model the coalescing prediction targeted.
    pub driver: DriverModel,
    /// When `true`, [`Self::predicted_transactions`] covers every dynamic
    /// global transaction exactly; when `false`, some access was data-
    /// dependent (or texture-path) and the prediction is a lower bound.
    pub exact: bool,
    /// Predicted global-memory transactions for the whole launch.
    pub predicted_transactions: u64,
    /// `[best, worst]` global-transaction bounds for the whole launch.
    /// Collapses to `(predicted, predicted)` when the report is exact;
    /// non-affine sites widen it by their interval transaction bounds
    /// (texture-path traffic stays excluded from both ends).
    pub transaction_bounds: (u64, u64),
    /// Register demand per thread (`ir::regalloc`).
    pub regs_per_thread: u16,
    /// Occupancy at the analyzed launch shape, when schedulable.
    pub occupancy: Option<Occupancy>,
    /// Findings, most severe first.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-site access facts, by instruction index.
    pub accesses: Vec<AccessSummary>,
}

impl AnalysisReport {
    /// The most severe finding, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Whether any error-severity finding exists (the CI gate).
    pub fn has_errors(&self) -> bool {
        self.max_severity() == Some(Severity::Error)
    }

    /// Render the report for humans (the `kernel-lint` default output).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "kernel `{}` [{}]: {} predicted global transactions{}, {} regs/thread",
            self.kernel,
            self.driver.label(),
            self.predicted_transactions,
            if self.exact {
                " (exact)"
            } else {
                " (partial: data-dependent accesses)"
            },
            self.regs_per_thread,
        );
        if !self.exact && self.transaction_bounds.1 > self.transaction_bounds.0 {
            let _ = writeln!(
                s,
                "  transaction bounds: [{}, {}]",
                self.transaction_bounds.0, self.transaction_bounds.1
            );
        }
        if let Some(o) = &self.occupancy {
            let _ = writeln!(
                s,
                "  occupancy: {} warps of {} ({:.0}%), limited by {:?}",
                o.active_warps,
                o.max_warps,
                o.percent(),
                o.limiter
            );
        }
        if self.diagnostics.is_empty() {
            let _ = writeln!(s, "  clean: no findings");
        }
        for d in &self.diagnostics {
            let _ = writeln!(s, "  {d}");
            let _ = writeln!(s, "      at {}", d.site);
            if let Some(fx) = &d.fixit {
                let _ = writeln!(s, "      fix: {fx}");
            }
        }
        s
    }
}

/// A declared device-buffer extent the bounds certifier checks global and
/// texture accesses against: bytes `[base, base + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferExtent {
    /// First byte of the buffer.
    pub base: u64,
    /// Size in bytes.
    pub len: u64,
}

impl BufferExtent {
    /// Does `[lo, hi)` fit entirely inside this buffer?
    pub fn covers(&self, lo: u64, hi: u64) -> bool {
        self.base <= lo && hi <= self.base + self.len
    }
}

/// Launch shape and device context to analyze under.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Device the occupancy/bank/coalescing rules come from.
    pub device: DeviceConfig,
    /// Coalescing protocol revision.
    pub driver: DriverModel,
    /// Blocks in the launch.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Launch parameter values (bound to `Reg(0..n_params)`).
    pub params: Vec<u32>,
    /// Per-loop iteration budget before the interpreter gives up.
    pub max_steps: u64,
    /// Trip-count cap for data-dependent loops: the upper end of the
    /// `[1, trip_budget]` interval the abstract interpreter analyzes a
    /// `While` (or unresolvable `For`) under. Sound only if the loop really
    /// terminates within the budget — pass a structural bound (e.g. the
    /// Barnes–Hut traversal's node count) when one exists.
    pub trip_budget: u64,
    /// Declared device-buffer extents. When non-empty, every global/texture
    /// access must be provably inside one of them or
    /// [`LintKind::PossibleOutOfBounds`] fires. Empty = certifier off.
    pub buffers: Vec<BufferExtent>,
}

impl AnalysisConfig {
    /// Defaults: GeForce 8800 GTX, CUDA 1.0 coalescing, 4096-iteration
    /// loop budget, no declared buffer extents.
    pub fn new(grid: u32, block: u32, params: Vec<u32>) -> AnalysisConfig {
        AnalysisConfig {
            device: DeviceConfig::g8800gtx(),
            driver: DriverModel::Cuda10,
            grid,
            block,
            params,
            max_steps: 4096,
            trip_budget: 4096,
            buffers: Vec::new(),
        }
    }

    /// Use a different coalescing protocol revision.
    pub fn with_driver(mut self, driver: DriverModel) -> AnalysisConfig {
        self.driver = driver;
        self
    }

    /// Cap data-dependent trip counts at `budget` (must be a true bound on
    /// the dynamic trip count for the transaction bounds to be sound).
    pub fn with_trip_budget(mut self, budget: u64) -> AnalysisConfig {
        self.trip_budget = budget.max(1);
        self
    }

    /// Declare buffer extents and switch the bounds certifier on.
    pub fn with_buffers(mut self, buffers: Vec<BufferExtent>) -> AnalysisConfig {
        self.buffers = buffers;
        self
    }
}

/// Run every static pass over a kernel and assemble the report.
pub fn analyze_kernel(kernel: &Kernel, cfg: &AnalysisConfig) -> AnalysisReport {
    let mut report = AnalysisReport {
        kernel: kernel.name.clone(),
        driver: cfg.driver,
        exact: true,
        predicted_transactions: 0,
        transaction_bounds: (0, 0),
        regs_per_thread: 0,
        occupancy: None,
        diagnostics: Vec::new(),
        accesses: Vec::new(),
    };

    // Launch validation first: everything downstream assumes a well-formed
    // launch (and the occupancy calculator asserts on impossible ones).
    let bad_launch = |msg: String, report: &mut AnalysisReport| {
        report.exact = false;
        report.diagnostics.push(Diagnostic {
            severity: Severity::Error,
            kind: LintKind::Unanalyzable,
            site: FaultSite {
                kernel: Some(kernel.name.clone()),
                ..FaultSite::default()
            },
            message: msg,
            fixit: None,
        });
    };
    if cfg.grid == 0 || cfg.block == 0 {
        bad_launch(
            format!("empty launch: grid {} x block {}", cfg.grid, cfg.block),
            &mut report,
        );
        return report;
    }
    if cfg.block > cfg.device.max_threads_per_block {
        bad_launch(
            format!(
                "block of {} threads exceeds the device limit of {}",
                cfg.block, cfg.device.max_threads_per_block
            ),
            &mut report,
        );
        return report;
    }
    if cfg.params.len() != kernel.n_params as usize {
        bad_launch(
            format!(
                "kernel takes {} parameters, launch supplied {}",
                kernel.n_params,
                cfg.params.len()
            ),
            &mut report,
        );
        return report;
    }

    let mut ix = InstrIndexer::new();
    let tree = interp::index_stmts(&kernel.body, &mut ix);

    let mut sink = Sink::new();
    interp::interpret(kernel, &tree, cfg, &mut sink);
    report.exact = sink.exact;
    let mut diags = sink.diags;

    def_use_pass(kernel, &tree, &mut diags);
    licm_pass(kernel, &tree, &mut diags);
    trip_count_pass(kernel, cfg, &mut diags);
    summarize_sites(kernel, &sink.sites, &mut report, &mut diags);
    bounds_pass(kernel, cfg, &sink.sites, &mut diags);
    pressure_pass(kernel, cfg, &mut report, &mut diags);

    // Deterministic total order so `--json` output is byte-stable across
    // runs: severity (most severe first), then kernel, then instruction
    // `[idx]` (site-less findings last), then lint kind, then message.
    diags.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.site.kernel.cmp(&b.site.kernel))
            .then(
                a.site
                    .instruction
                    .unwrap_or(u64::MAX)
                    .cmp(&b.site.instruction.unwrap_or(u64::MAX)),
            )
            .then(a.kind.name().cmp(b.kind.name()))
            .then(a.message.cmp(&b.message))
    });
    report.diagnostics = diags;
    report
}

/// Def-before-use and dead-store analysis over the indexed tree.
fn def_use_pass(kernel: &Kernel, tree: &[IStmt<'_>], diags: &mut Vec<Diagnostic>) {
    struct DefUse {
        used_regs: HashSet<u16>,
        def_regs: HashSet<u16>,
        used_preds: HashSet<u16>,
        def_preds: HashSet<u16>,
        /// (index, instr) of every plain instruction.
        sites: Vec<(u64, Vec<u16>, bool)>,
        first_use: HashMap<u16, u64>,
    }
    fn collect(stmts: &[IStmt<'_>], du: &mut DefUse) {
        for s in stmts {
            match s {
                IStmt::I(idx, i) => {
                    for r in i.uses() {
                        du.used_regs.insert(r.0);
                        du.first_use.entry(r.0).or_insert(*idx);
                    }
                    let defs: Vec<u16> = i.defs().iter().map(|r| r.0).collect();
                    for &r in &defs {
                        du.def_regs.insert(r);
                    }
                    if let Instr::Setp { dst, .. } = i {
                        du.def_preds.insert(dst.0);
                    }
                    du.sites.push((*idx, defs, matches!(i, Instr::Ld { .. })));
                }
                IStmt::For {
                    var,
                    start,
                    end,
                    body,
                    init,
                    ..
                } => {
                    // The lowered latch both defines and reads the induction
                    // variable; bound operands are read every iteration.
                    du.def_regs.insert(var.0);
                    du.used_regs.insert(var.0);
                    for o in [*start, *end] {
                        if let Operand::R(r) = o {
                            du.used_regs.insert(r.0);
                            du.first_use.entry(r.0).or_insert(*init);
                        }
                    }
                    collect(body, du);
                }
                IStmt::If {
                    pred, then, els, ..
                } => {
                    du.used_preds.insert(pred.0);
                    collect(then, du);
                    collect(els, du);
                }
                IStmt::While { pred, body, .. } => {
                    du.used_preds.insert(pred.0);
                    collect(body, du);
                }
                IStmt::Sync => {}
            }
        }
    }
    let mut du = DefUse {
        used_regs: HashSet::new(),
        def_regs: HashSet::new(),
        used_preds: HashSet::new(),
        def_preds: HashSet::new(),
        sites: Vec::new(),
        first_use: HashMap::new(),
    };
    collect(tree, &mut du);

    for (idx, defs, is_load) in &du.sites {
        if !defs.is_empty() && defs.iter().all(|r| !du.used_regs.contains(r)) {
            let regs: Vec<String> = defs.iter().map(|r| format!("%r{r}")).collect();
            diags.push(Diagnostic {
                severity: Severity::Warning,
                kind: LintKind::DeadCode,
                site: FaultSite {
                    kernel: Some(kernel.name.clone()),
                    instruction: Some(*idx),
                    ..FaultSite::default()
                },
                message: if *is_load {
                    format!(
                        "loaded value{} {} never read (dead load)",
                        plural(defs.len()),
                        regs.join(", ")
                    )
                } else {
                    format!("value {} is never read (dead store)", regs.join(", "))
                },
                fixit: Some("delete the instruction, or narrow the read plan".to_string()),
            });
        }
    }
    let mut undef: Vec<u16> = du
        .used_regs
        .iter()
        .filter(|&&r| r >= kernel.n_params && !du.def_regs.contains(&r))
        .copied()
        .collect();
    undef.sort_unstable();
    for r in undef {
        diags.push(Diagnostic {
            severity: Severity::Error,
            kind: LintKind::UseBeforeDef,
            site: FaultSite {
                kernel: Some(kernel.name.clone()),
                instruction: du.first_use.get(&r).copied(),
                ..FaultSite::default()
            },
            message: format!(
                "%r{r} is read but never written (it would hold the zero-init default)"
            ),
            fixit: None,
        });
    }
    let mut undef_preds: Vec<u16> = du
        .used_preds
        .iter()
        .filter(|p| !du.def_preds.contains(p))
        .copied()
        .collect();
    undef_preds.sort_unstable();
    for p in undef_preds {
        diags.push(Diagnostic {
            severity: Severity::Error,
            kind: LintKind::UseBeforeDef,
            site: FaultSite {
                kernel: Some(kernel.name.clone()),
                ..FaultSite::default()
            },
            message: format!("predicate %p{p} is branched on but never set by a setp"),
            fixit: None,
        });
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Diff against `passes::licm` to count invariant instructions each loop
/// recomputes, attributing every hoist to its innermost loop.
fn licm_pass(kernel: &Kernel, tree: &[IStmt<'_>], diags: &mut Vec<Diagnostic>) {
    fn collect_i(
        stmts: &[IStmt<'_>],
        parent: Option<usize>,
        out: &mut Vec<(u64, u64, Option<usize>)>,
    ) -> u64 {
        let mut n = 0;
        for s in stmts {
            match s {
                IStmt::I(..) => n += 1,
                IStmt::For { init, body, .. } => {
                    let slot = out.len();
                    out.push((*init, 0, parent));
                    let c = collect_i(body, Some(slot), out);
                    out[slot].1 = c;
                    n += c;
                }
                IStmt::If { then, els, .. } => {
                    n += collect_i(then, parent, out);
                    n += collect_i(els, parent, out);
                }
                IStmt::While { body, .. } => n += collect_i(body, parent, out),
                IStmt::Sync => {}
            }
        }
        n
    }
    fn collect_s(
        stmts: &[Stmt],
        parent: Option<usize>,
        out: &mut Vec<(u64, Option<usize>)>,
    ) -> u64 {
        let mut n = 0;
        for s in stmts {
            match s {
                Stmt::I(_) => n += 1,
                Stmt::For { body, .. } => {
                    let slot = out.len();
                    out.push((0, parent));
                    let c = collect_s(body, Some(slot), out);
                    out[slot].0 = c;
                    n += c;
                }
                Stmt::If { then, els, .. } => {
                    n += collect_s(then, parent, out);
                    n += collect_s(els, parent, out);
                }
                Stmt::While { body, .. } => n += collect_s(body, parent, out),
                Stmt::Sync => {}
            }
        }
        n
    }
    let hoisted = passes::licm(kernel);
    let mut orig: Vec<(u64, u64, Option<usize>)> = Vec::new();
    collect_i(tree, None, &mut orig);
    let mut hst: Vec<(u64, Option<usize>)> = Vec::new();
    collect_s(&hoisted.body, None, &mut hst);
    if orig.len() != hst.len() {
        return; // licm changed the loop structure; nothing safe to report
    }
    let diffs: Vec<i64> = (0..orig.len())
        .map(|i| orig[i].1 as i64 - hst[i].0 as i64)
        .collect();
    let mut child_diff = vec![0i64; orig.len()];
    for i in 0..orig.len() {
        if let Some(p) = orig[i].2 {
            child_diff[p] += diffs[i];
        }
    }
    for i in 0..orig.len() {
        let own = diffs[i] - child_diff[i];
        if own > 0 {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                kind: LintKind::UnhoistedInvariant,
                site: FaultSite {
                    kernel: Some(kernel.name.clone()),
                    instruction: Some(orig[i].0),
                    ..FaultSite::default()
                },
                message: format!(
                    "loop body recomputes {own} loop-invariant instruction{} every iteration",
                    plural(own as usize)
                ),
                fixit: Some(
                    "apply `passes::licm` (the paper's invariant-code-motion step — hoisting \
                     the ε² multiply is what frees a register after unrolling)"
                        .to_string(),
                ),
            });
        }
    }
}

/// Surface data-dependent trip counts via `ir::count`'s typed error.
fn trip_count_pass(kernel: &Kernel, cfg: &AnalysisConfig, diags: &mut Vec<Diagnostic>) {
    if let Err(e) = count::dynamic_instructions(kernel, &cfg.params) {
        diags.push(Diagnostic {
            severity: Severity::Info,
            kind: LintKind::UnboundedLoop,
            site: FaultSite {
                kernel: Some(kernel.name.clone()),
                ..FaultSite::default()
            },
            message: format!("{e}; instruction counts and Eq. 3 speedups are unavailable"),
            fixit: None,
        });
    }
}

/// Turn per-site accumulators into summaries and coalescing/bank findings.
fn summarize_sites(
    kernel: &Kernel,
    sites: &std::collections::BTreeMap<u64, SiteAcc>,
    report: &mut AnalysisReport,
    diags: &mut Vec<Diagnostic>,
) {
    for site in sites.values() {
        let stride = match site.stride {
            StrideTrack::Const(d) => Some(d),
            _ => None,
        };
        let kind_word = if site.is_load { "load" } else { "store" };
        let at = |instr: u64| FaultSite {
            kernel: Some(kernel.name.clone()),
            instruction: Some(instr),
            ..FaultSite::default()
        };
        match site.space {
            MemSpace::Global => {
                if site.exact {
                    report.predicted_transactions += site.transactions;
                    if site.transactions > site.ideal {
                        let stride_txt = match stride {
                            Some(d) => format!(" (adjacent lanes {d} bytes apart)"),
                            None => String::new(),
                        };
                        let fixit = match stride {
                            Some(d @ 17..=63) => format!(
                                "split the {d}-byte record into 128-bit sub-structures (see \
                                 `layout_advisor`): the paper's SoAoaS layout takes the force \
                                 kernel from 112 to 4 transactions per particle"
                            ),
                            _ => "rearrange the access so consecutive lanes touch consecutive \
                                  addresses of one 64/128-byte segment"
                                .to_string(),
                        };
                        diags.push(Diagnostic {
                            severity: Severity::Error,
                            kind: LintKind::UncoalescedAccess,
                            site: at(site.instr),
                            message: format!(
                                "uncoalesced global {kind_word} of {} bytes/lane: {} \
                                 transactions for {} half-warp issues (ideal {}){stride_txt}",
                                4 * site.width_words,
                                site.transactions,
                                site.half_warps,
                                site.ideal
                            ),
                            fixit: Some(fixit),
                        });
                    }
                } else if !site.misaligned {
                    report.exact = false;
                    diags.push(Diagnostic {
                        severity: Severity::Info,
                        kind: LintKind::Unanalyzable,
                        site: at(site.instr),
                        message: format!(
                            "global {kind_word} has a data-dependent address; its transactions \
                             are excluded from the exact prediction and bounded by [{}, {}]",
                            site.tx_lo, site.tx_hi
                        ),
                        fixit: None,
                    });
                }
                report.transaction_bounds.0 =
                    report.transaction_bounds.0.saturating_add(site.tx_lo);
                report.transaction_bounds.1 =
                    report.transaction_bounds.1.saturating_add(site.tx_hi);
            }
            MemSpace::Texture => {
                report.exact = false;
                diags.push(Diagnostic {
                    severity: Severity::Info,
                    kind: LintKind::TextureDependence,
                    site: at(site.instr),
                    message: format!(
                        "texture-path {kind_word} bypasses the coalescer; its traffic depends \
                         on dynamic cache state and is excluded from the static prediction"
                    ),
                    fixit: None,
                });
            }
            MemSpace::Shared => {
                if site.exact && site.bank_degree > site.width_words {
                    diags.push(Diagnostic {
                        severity: Severity::Warning,
                        kind: LintKind::BankConflict,
                        site: at(site.instr),
                        message: format!(
                            "shared {kind_word} serializes {}-way across the {} banks",
                            site.bank_degree,
                            // degree is computed against the device's banks
                            "16"
                        ),
                        fixit: Some(
                            "pad the shared stride to an odd word count, or make the \
                             half-warp's words fall in distinct banks"
                                .to_string(),
                        ),
                    });
                }
                if !site.exact && !site.misaligned {
                    diags.push(Diagnostic {
                        severity: Severity::Info,
                        kind: LintKind::Unanalyzable,
                        site: at(site.instr),
                        message: format!(
                            "shared {kind_word} has a data-dependent address; bank behaviour \
                             not statically known"
                        ),
                        fixit: None,
                    });
                }
            }
        }
        report.accesses.push(AccessSummary {
            instruction: site.instr,
            space: site.space,
            is_load: site.is_load,
            width_bytes: 4 * site.width_words,
            exact: site.exact,
            transactions: site.transactions,
            ideal_transactions: site.ideal,
            bus_bytes: site.bus_bytes,
            half_warp_accesses: site.half_warps,
            lane_stride: stride,
            bank_degree: site.bank_degree,
            transactions_lo: site.tx_lo,
            transactions_hi: site.tx_hi,
            half_warp_accesses_hi: site.half_warps_hi,
            addr_range: if site.addr_unbounded || site.addr_lo >= site.addr_hi {
                None
            } else {
                Some((site.addr_lo, site.addr_hi))
            },
            buffer_param: if site.param_mixed {
                None
            } else {
                site.param_base
            },
        });
    }
}

/// The static bounds certifier: prove every memory site's interval byte
/// footprint inside its allocation, or fire
/// [`LintKind::PossibleOutOfBounds`] with the interval witness.
///
/// Global and texture sites are checked against the declared
/// [`AnalysisConfig::buffers`] (a footprint must fit entirely inside *one*
/// buffer — spanning two extents is as much a bug as escaping them); the
/// check is off while no extents are declared. Shared sites with non-exact
/// addresses are checked against the kernel's static allocation
/// unconditionally (exact shared addresses already fault as
/// [`LintKind::OutOfBoundsShared`] in the interpreter).
fn bounds_pass(
    kernel: &Kernel,
    cfg: &AnalysisConfig,
    sites: &std::collections::BTreeMap<u64, SiteAcc>,
    diags: &mut Vec<Diagnostic>,
) {
    for site in sites.values() {
        let kind_word = if site.is_load { "load" } else { "store" };
        let touched = site.addr_unbounded || site.addr_lo < site.addr_hi;
        if !touched {
            continue;
        }
        let at = FaultSite {
            kernel: Some(kernel.name.clone()),
            instruction: Some(site.instr),
            ..FaultSite::default()
        };
        let mut warn = |message: String| {
            diags.push(Diagnostic {
                severity: Severity::Warning,
                kind: LintKind::PossibleOutOfBounds,
                site: at.clone(),
                message,
                fixit: None,
            });
        };
        match site.space {
            MemSpace::Global | MemSpace::Texture => {
                if cfg.buffers.is_empty() {
                    continue;
                }
                if site.addr_unbounded {
                    warn(format!(
                        "global {kind_word} address could not be bounded; in-bounds access is \
                         unproven for every declared buffer extent"
                    ));
                } else if !cfg
                    .buffers
                    .iter()
                    .any(|b| b.covers(site.addr_lo, site.addr_hi))
                {
                    warn(format!(
                        "global {kind_word} may touch bytes [{:#x}, {:#x}) — not provably \
                         inside any declared buffer extent",
                        site.addr_lo, site.addr_hi
                    ));
                }
            }
            MemSpace::Shared => {
                if site.exact {
                    continue; // concrete addresses were checked per access
                }
                if site.addr_unbounded {
                    warn(format!(
                        "shared {kind_word} address could not be bounded against the {}-byte \
                         static allocation",
                        kernel.smem_bytes
                    ));
                } else if site.addr_hi > kernel.smem_bytes as u64 {
                    warn(format!(
                        "shared {kind_word} may touch bytes [{:#x}, {:#x}) — beyond the \
                         {}-byte static allocation",
                        site.addr_lo, site.addr_hi, kernel.smem_bytes
                    ));
                }
            }
        }
    }
}

/// Occupancy + register-pressure advice (guarded so the occupancy
/// calculator's asserts can never fire).
fn pressure_pass(
    kernel: &Kernel,
    cfg: &AnalysisConfig,
    report: &mut AnalysisReport,
    diags: &mut Vec<Diagnostic>,
) {
    let dev = &cfg.device;
    let rd = register_demand(kernel);
    report.regs_per_thread = rd.regs_per_thread;
    let regs = rd.regs_per_thread as u32;
    let rpb = regs_per_block(dev, cfg.block, regs);
    let spb = kernel.smem_bytes.max(1).div_ceil(dev.smem_alloc_unit) * dev.smem_alloc_unit;
    let not_schedulable = |msg: String, diags: &mut Vec<Diagnostic>| {
        diags.push(Diagnostic {
            severity: Severity::Error,
            kind: LintKind::RegisterPressure,
            site: FaultSite {
                kernel: Some(kernel.name.clone()),
                ..FaultSite::default()
            },
            message: msg,
            fixit: None,
        });
    };
    if rpb > dev.regs_per_sm {
        not_schedulable(
            format!(
                "a single block needs {rpb} registers ({regs}/thread) — more than the SM's \
                 {}; the launch cannot be scheduled",
                dev.regs_per_sm
            ),
            diags,
        );
        return;
    }
    if spb > dev.smem_per_sm {
        not_schedulable(
            format!(
                "a single block needs {spb} bytes of shared memory — more than the SM's {}",
                dev.smem_per_sm
            ),
            diags,
        );
        return;
    }
    if cfg.block > dev.max_threads_per_sm {
        return;
    }
    let occ = occupancy(dev, cfg.block, regs, kernel.smem_bytes);
    if occ.limiter == Limiter::Registers {
        for freed in 1..=2u32 {
            if regs <= freed {
                break;
            }
            let o2 = occupancy(dev, cfg.block, regs - freed, kernel.smem_bytes);
            if o2.active_warps > occ.active_warps {
                diags.push(Diagnostic {
                    severity: Severity::Info,
                    kind: LintKind::RegisterPressure,
                    site: FaultSite {
                        kernel: Some(kernel.name.clone()),
                        ..FaultSite::default()
                    },
                    message: format!(
                        "registers limit occupancy to {} of {} warps ({:.0}%); freeing \
                         {freed} register{} would allow {} warps",
                        occ.active_warps,
                        occ.max_warps,
                        occ.percent(),
                        plural(freed as usize),
                        o2.active_warps
                    ),
                    fixit: Some(
                        "combine `passes::licm` with `passes::unroll_innermost` — the paper's \
                         17→16 register drop at 128 threads/block raises occupancy 50%→67%"
                            .to_string(),
                    ),
                });
                break;
            }
        }
    }
    report.occupancy = Some(occ);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AluOp, CmpOp, KernelBuilder, SpecialReg};

    fn cfg(grid: u32, block: u32, params: Vec<u32>) -> AnalysisConfig {
        AnalysisConfig::new(grid, block, params)
    }

    fn kinds(report: &AnalysisReport, sev: Severity) -> Vec<&'static str> {
        report
            .diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .map(|d| d.kind.name())
            .collect()
    }

    /// Strided scalar loads, lane stride 4: strictly coalesced, clean, exact.
    #[test]
    fn coalesced_scalar_loads_are_clean_and_exact() {
        let mut b = KernelBuilder::new("soa_read");
        let buf = b.param();
        let out = b.param();
        let i = b.global_thread_index();
        let a = b.mad_u(i.into(), Operand::ImmU(4), buf.into());
        let v = b.ld(MemSpace::Global, a, 0, 1)[0];
        let oa = b.mad_u(i.into(), Operand::ImmU(4), out.into());
        b.st(MemSpace::Global, oa, 0, vec![v.into()]);
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(2, 64, vec![0x1000, 0x8000]));
        assert!(r.exact);
        assert!(!r.has_errors(), "diags: {:?}", r.diagnostics);
        // 2 blocks x 4 half-warps x (1 load + 1 store) = 16 transactions.
        assert_eq!(r.predicted_transactions, 16);
    }

    /// The paper's packed-record pattern: 28-byte lane stride, scalar loads.
    #[test]
    fn packed_record_stride_is_flagged_uncoalesced_with_layout_fixit() {
        let mut b = KernelBuilder::new("aos_read");
        let buf = b.param();
        let out = b.param();
        let i = b.global_thread_index();
        let a = b.mad_u(i.into(), Operand::ImmU(28), buf.into());
        let v = b.ld(MemSpace::Global, a, 0, 1)[0];
        let oa = b.mad_u(i.into(), Operand::ImmU(4), out.into());
        b.st(MemSpace::Global, oa, 0, vec![v.into()]);
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(1, 32, vec![0x1000, 0x8000]));
        assert!(r.has_errors());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::UncoalescedAccess)
            .expect("uncoalesced finding");
        assert!(d.message.contains("28 bytes apart"), "{}", d.message);
        assert!(
            d.fixit.as_deref().unwrap_or("").contains("layout_advisor"),
            "fixit should point at the 128-bit split: {:?}",
            d.fixit
        );
        // Prediction still exact: 16 scalar txns/half-warp for the load.
        assert!(r.exact);
        assert_eq!(r.predicted_transactions, 2 * 16 + 2);
    }

    #[test]
    fn misaligned_vector_access_is_an_error() {
        let mut b = KernelBuilder::new("mis");
        let buf = b.param();
        let i = b.global_thread_index();
        // 16-byte loads at stride 16 but base offset 4: never 16B-aligned.
        let a = b.mad_u(i.into(), Operand::ImmU(16), buf.into());
        let _ = b.ld(MemSpace::Global, a, 4, 4);
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(1, 32, vec![0x1000]));
        assert!(kinds(&r, Severity::Error).contains(&"misaligned-access"));
        assert!(!r.exact, "a faulting access cannot be predicted exactly");
    }

    #[test]
    fn shared_stride_two_bank_conflict_is_warned() {
        let mut b = KernelBuilder::new("bank2");
        b.shared_mem(4096);
        let out = b.param();
        let tid = b.special(SpecialReg::TidX);
        let w = b.imul(tid.into(), Operand::ImmU(2));
        let a = b.imul(w.into(), Operand::ImmU(4));
        let v = b.ld(MemSpace::Shared, a, 0, 1)[0];
        let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
        b.st(MemSpace::Global, oa, 0, vec![v.into()]);
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(1, 32, vec![0x8000]));
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::BankConflict)
            .expect("bank conflict finding");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("2-way"), "{}", d.message);
    }

    /// Write-then-cross-read without a barrier races; with a barrier between
    /// it is clean.
    #[test]
    fn shared_race_requires_a_barrier() {
        let build = |with_sync: bool| {
            let mut b = KernelBuilder::new("xchg");
            b.shared_mem(128);
            let out = b.param();
            let tid = b.special(SpecialReg::TidX);
            let my = b.imul(tid.into(), Operand::ImmU(4));
            let seed = b.alu(AluOp::IShl, tid.into(), Operand::ImmU(1));
            b.st(MemSpace::Shared, my, 0, vec![seed.into()]);
            if with_sync {
                b.sync();
            }
            // Read the neighbour's word: (tid+1) mod 32.
            let n1 = b.iadd(tid.into(), Operand::ImmU(1));
            let nm = b.alu(AluOp::IAnd, n1.into(), Operand::ImmU(31));
            let na = b.imul(nm.into(), Operand::ImmU(4));
            let v = b.ld(MemSpace::Shared, na, 0, 1)[0];
            let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
            b.st(MemSpace::Global, oa, 0, vec![v.into()]);
            b.finish()
        };
        let racy = analyze_kernel(&build(false), &cfg(1, 32, vec![0x8000]));
        assert!(
            kinds(&racy, Severity::Error).contains(&"shared-race"),
            "{:?}",
            racy.diagnostics
        );
        let clean = analyze_kernel(&build(true), &cfg(1, 32, vec![0x8000]));
        assert!(
            !clean
                .diagnostics
                .iter()
                .any(|d| d.kind == LintKind::SharedRace),
            "{:?}",
            clean.diagnostics
        );
    }

    /// A barrier inside a lane-divergent conditional is a proven error.
    #[test]
    fn sync_under_divergent_if_is_an_error() {
        let mut b = KernelBuilder::new("divsync");
        let tid = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::ULt, tid.into(), Operand::ImmU(16));
        b.if_then(p, |b| b.sync());
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(1, 32, vec![]));
        assert!(
            kinds(&r, Severity::Error).contains(&"divergent-sync"),
            "{:?}",
            r.diagnostics
        );
    }

    /// Warp-uniform but block-divergent barriers deadlock the block.
    #[test]
    fn unequal_warp_barrier_counts_deadlock() {
        let mut b = KernelBuilder::new("halfbar");
        let tid = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::ULt, tid.into(), Operand::ImmU(32));
        b.if_then(p, |b| b.sync());
        let k = b.finish();
        // Block of 64: warp 0 takes the branch wholesale, warp 1 skips it —
        // no divergent-sync, but warp barrier counts are 1 vs 0.
        let r = analyze_kernel(&k, &cfg(1, 64, vec![]));
        assert!(
            kinds(&r, Severity::Error).contains(&"barrier-deadlock"),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn non_uniform_loop_backedge_is_the_executor_fault() {
        let mut b = KernelBuilder::new("divloop");
        let tid = b.special(SpecialReg::TidX);
        let end = b.iadd(tid.into(), Operand::ImmU(1));
        b.for_loop(Operand::ImmU(0), end.into(), 1, |b, _| {
            b.mov(Operand::ImmF(0.0));
        });
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(1, 32, vec![]));
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::DivergentLoopBranch)
            .expect("divergent loop backedge");
        assert_eq!(d.severity, Severity::Error);
        assert!(!r.exact);
    }

    #[test]
    fn dead_store_and_use_before_def_are_reported() {
        let mut b = KernelBuilder::new("defuse");
        let out = b.param();
        let tid = b.special(SpecialReg::TidX);
        let _dead = b.mov(Operand::ImmF(3.0)); // never read
        let ghost = b.reg(); // read but never written
        let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
        b.st(MemSpace::Global, oa, 0, vec![ghost.into()]);
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(1, 32, vec![0x8000]));
        assert!(
            kinds(&r, Severity::Warning).contains(&"dead-code"),
            "{:?}",
            r.diagnostics
        );
        assert!(
            kinds(&r, Severity::Error).contains(&"use-before-def"),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn invariant_in_loop_suggests_licm() {
        let mut b = KernelBuilder::new("inv");
        let out = b.param();
        let eps = b.param();
        let tid = b.special(SpecialReg::TidX);
        let acc = b.mov(Operand::ImmF(0.0));
        b.for_loop(Operand::ImmU(0), Operand::ImmU(8), 1, |b, _i| {
            let e2 = b.fmul(eps.into(), eps.into()); // loop-invariant
            b.alu_into(acc, AluOp::FAdd, acc.into(), e2.into());
        });
        let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
        b.st(MemSpace::Global, oa, 0, vec![acc.into()]);
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(1, 32, vec![0x8000, 1.5f32.to_bits()]));
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::UnhoistedInvariant)
            .expect("licm finding");
        assert!(d.fixit.as_deref().unwrap_or("").contains("licm"));
    }

    /// The paper's 17-register kernel at 128 threads: registers limit
    /// occupancy to 50%, and freeing one register would reach 67%.
    #[test]
    fn register_pressure_advice_matches_the_paper() {
        let mut b = KernelBuilder::new("fat");
        b.shared_mem(2048);
        let out = b.param();
        let tid = b.special(SpecialReg::TidX);
        let addr = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
        let vals: Vec<_> = (0..16).map(|i| b.mov(Operand::ImmF(i as f32))).collect();
        for v in &vals[1..] {
            b.alu_into(vals[0], AluOp::FAdd, vals[0].into(), (*v).into());
        }
        b.st(MemSpace::Global, addr, 0, vec![vals[0].into()]);
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(1, 128, vec![0x8000]));
        assert_eq!(r.regs_per_thread, 17, "addr + 16 live accumulands");
        let occ = r.occupancy.as_ref().expect("schedulable");
        assert_eq!(occ.limiter, Limiter::Registers);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::RegisterPressure)
            .expect("pressure advice");
        assert_eq!(d.severity, Severity::Info);
        assert!(d.message.contains("freeing 1 register"), "{}", d.message);
    }

    #[test]
    fn data_dependent_loop_bound_reports_unbounded_loop() {
        let mut b = KernelBuilder::new("dynloop");
        let buf = b.param();
        let out = b.param();
        let tid = b.special(SpecialReg::TidX);
        let n = b.ld(MemSpace::Global, buf, 0, 1)[0];
        let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
        b.for_loop(Operand::ImmU(0), n.into(), 1, |b, _| {
            let z = b.mov(Operand::ImmF(0.0));
            b.st(MemSpace::Global, oa, 0, vec![z.into()]);
        });
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(1, 32, vec![0x1000, 0x8000]));
        assert!(
            r.diagnostics
                .iter()
                .any(|d| d.kind == LintKind::UnboundedLoop),
            "{:?}",
            r.diagnostics
        );
        assert!(
            !r.exact,
            "stores repeated a data-dependent number of times leave the prediction partial"
        );
    }

    #[test]
    fn texture_reads_are_info_and_excluded() {
        let mut b = KernelBuilder::new("tex");
        let buf = b.param();
        let out = b.param();
        let i = b.global_thread_index();
        let a = b.mad_u(i.into(), Operand::ImmU(28), buf.into());
        let v = b.ld(MemSpace::Texture, a, 0, 1)[0];
        let oa = b.mad_u(i.into(), Operand::ImmU(4), out.into());
        b.st(MemSpace::Global, oa, 0, vec![v.into()]);
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(1, 32, vec![0x1000, 0x8000]));
        // The texture path is never "uncoalesced" — it bypasses the
        // coalescer — but the prediction stops being exhaustive.
        assert!(!r.has_errors(), "{:?}", r.diagnostics);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::TextureDependence));
        assert!(!r.exact);
        assert_eq!(
            r.predicted_transactions, 2,
            "only the global store is predicted"
        );
    }

    #[test]
    fn wrong_param_count_is_rejected_not_panicked() {
        let mut b = KernelBuilder::new("p2");
        let _ = b.param();
        let _ = b.param();
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(1, 32, vec![7]));
        assert!(r.has_errors());
        assert!(kinds(&r, Severity::Error).contains(&"unanalyzable"));
    }

    #[test]
    fn render_mentions_site_and_fixit() {
        let mut b = KernelBuilder::new("aos28");
        let buf = b.param();
        let i = b.global_thread_index();
        let a = b.mad_u(i.into(), Operand::ImmU(28), buf.into());
        let v = b.ld(MemSpace::Global, a, 0, 1)[0];
        let oa = b.mad_u(i.into(), Operand::ImmU(4), buf.into());
        b.st(MemSpace::Global, oa, 0, vec![v.into()]);
        let k = b.finish();
        let r = analyze_kernel(&k, &cfg(1, 32, vec![0x1000]));
        let txt = r.render();
        assert!(txt.contains("error[uncoalesced-access]"), "{txt}");
        assert!(txt.contains("kernel `aos28`"), "{txt}");
        assert!(txt.contains("fix:"), "{txt}");
    }
}
