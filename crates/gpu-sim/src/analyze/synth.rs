//! Layout + schedule synthesis: turn the analyzers into an optimizer.
//!
//! PRs 2/3/6 built three independent capabilities: *detect* bad layouts
//! (lints over per-lane address streams), *price* rewrites (the Eq. 3 cycle
//! model), and *prove* rewrites (translation validation). This module closes
//! the loop the paper closes by hand in Sec. III–IV:
//!
//! 1. **Summarize** — [`buffer_summaries`] distills the interpreter's
//!    per-site [`AccessSummary`](super::AccessSummary)s into per-buffer facts: which kernel
//!    parameter is the buffer base ([`AccessSummary::buffer_param`](super::AccessSummary::buffer_param)), the
//!    record stride per lane, and the hot/cold field partition (words the
//!    kernel reads vs. words it hauls across the bus and never touches —
//!    the paper's 28-byte record wastes 12 of every 32 bus bytes).
//! 2. **Enumerate** — [`synthesize`] builds the candidate space: layout
//!    plans (pow2-aligned AoS, full SoA scatter, SoAoaS tilings at 8- and
//!    16-byte tile widths, always hot/cold split because only read words
//!    are mapped) as [`LayoutRewrite`] specs, crossed with pass schedules
//!    (`licm`, `unroll`, and both compositions at every legal factor).
//! 3. **Price** — every candidate kernel is materialized through
//!    [`rewrite_layout`] + [`PassId::apply`] and priced from one
//!    [`analyze_kernel`] call ([`cost::estimate_from_report`] and the
//!    report's register demand) under one launch shape; candidates are
//!    ranked by predicted cycles (ties to fewer registers — the paper's
//!    17→16 point).
//! 4. **Prove** — top candidates are checked with
//!    [`verify_equiv`] under an element-indexed [`InputMap`] (the
//!    layout step) and [`verify_pass`](super::verify::verify_pass) (the schedule step). **A
//!    candidate that does not come back `Proved`/`ProvedBounded` is
//!    discarded, never suggested** — the prove-then-suggest invariant.
//!
//! The end-to-end expectation (`gpu_kernels::synthset`): starting from the
//! naive 28-byte packed force kernel, synthesis must rediscover the paper's
//! answer — a single 16-byte SoAoaS tile of the four hot words plus
//! licm-before-unroll — with a machine-checked certificate attached.

use std::fmt;

use crate::driver::DriverModel;
use crate::ir::layout::{rewrite_layout, BufferMap, FieldDest, LayoutRewrite};
use crate::ir::{count, Kernel, MemSpace, Operand, Stmt};

use super::cost::{self, CostError};
use super::verify::{verify_equiv, InputMap, PassId, VerifyConfig, VerifyResult};
use super::{analyze_kernel, AnalysisConfig, AnalysisReport};

/// What the synthesizer needs to know about a launch to optimize a kernel.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// Driver model candidates are priced under.
    pub driver: DriverModel,
    /// Blocks in the pricing launch.
    pub grid: u32,
    /// Threads per block (the kernel's native block size — tile loops bake
    /// it into immediate bounds, so it is not a free variable here).
    pub block: u32,
    /// Parameter values for the pricing launch. Buffer-base parameters
    /// must be nonzero, distinct, 16-byte aligned, and far enough apart
    /// that footprints do not overlap — the same convention as
    /// `gpu_kernels::lintset`.
    pub params: Vec<u32>,
    /// Index of the parameter holding the element count, when the kernel
    /// has one; synthesis re-derives it per launch shape (`grid·block` for
    /// pricing, `block` for the verification launch).
    pub n_param: Option<usize>,
    /// How many proven suggestions to emit at most. Candidates beyond the
    /// ones proven are still listed (and ranked) in
    /// [`SynthReport::candidates`], just not suggested.
    pub max_suggestions: usize,
    /// Minimum predicted speedup for a suggestion (e.g. `1.02` = 2%);
    /// keeps noise-level wins from churning code and makes synthesis
    /// idempotent — re-running on a winner finds nothing above threshold.
    pub min_gain: f64,
    /// Per-loop iteration budget for the verifier.
    pub verify_max_steps: u64,
    /// Blocks in the verification launch (2 exercises `ctaid`).
    pub verify_grid: u32,
}

impl SynthConfig {
    /// Defaults: 3 suggestions, 2% minimum gain, 2-block verify launch.
    pub fn new(driver: DriverModel, grid: u32, block: u32, params: Vec<u32>) -> SynthConfig {
        SynthConfig {
            driver,
            grid,
            block,
            params,
            n_param: None,
            max_suggestions: 3,
            min_gain: 1.02,
            verify_max_steps: 1 << 16,
            verify_grid: 2,
        }
    }

    /// Declare which parameter carries the element count.
    pub fn with_n_param(mut self, idx: usize) -> SynthConfig {
        self.n_param = Some(idx);
        self
    }

    /// Cap the number of proven suggestions.
    pub fn with_max_suggestions(mut self, n: usize) -> SynthConfig {
        self.max_suggestions = n;
        self
    }
}

/// Per-buffer access summary: everything layout synthesis needs to know
/// about how one global buffer is read.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferSummary {
    /// Kernel parameter holding the buffer base.
    pub param: u16,
    /// The base value under the analyzed launch.
    pub base: u64,
    /// Record stride in bytes (the constant byte stride between adjacent
    /// lanes at every load site of this buffer).
    pub stride: u32,
    /// Byte offsets of record words the kernel reads (sorted) — the hot set.
    pub hot_words: Vec<u32>,
    /// Record words never read — hauled across the bus and dropped.
    pub cold_words: Vec<u32>,
    /// Load sites contributing to this summary.
    pub sites: usize,
    /// Predicted transactions over all sites of this buffer.
    pub transactions: u64,
    /// Half-warp issues over all sites of this buffer.
    pub half_warp_accesses: u64,
    /// Some site also *stores* through this base — not rewritable.
    pub written: bool,
}

/// Extract per-buffer summaries from an analysis report.
///
/// A buffer qualifies only when every global load site attributed to its
/// parameter is exact, has a bounded footprint, and agrees on a single
/// positive lane stride (the record stride). Buffers that fail any of this
/// are dropped — and with them any rewrite candidate that would have
/// touched them; the synthesizer never guesses.
pub fn buffer_summaries(report: &AnalysisReport, params: &[u32]) -> Vec<BufferSummary> {
    let mut out: Vec<BufferSummary> = Vec::new();
    let mut poisoned: Vec<u16> = Vec::new();
    for acc in &report.accesses {
        if acc.space != MemSpace::Global {
            continue;
        }
        let Some(p) = acc.buffer_param else { continue };
        if !acc.is_load {
            if let Some(s) = out.iter_mut().find(|s| s.param == p) {
                s.written = true;
            } else {
                out.push(BufferSummary {
                    param: p,
                    base: params.get(p as usize).copied().unwrap_or(0) as u64,
                    stride: 0,
                    hot_words: Vec::new(),
                    cold_words: Vec::new(),
                    sites: 0,
                    transactions: 0,
                    half_warp_accesses: 0,
                    written: true,
                });
            }
            continue;
        }
        let stride = match acc.lane_stride {
            Some(s) if s > 0 && s % 4 == 0 => s as u32,
            _ => {
                poisoned.push(p);
                continue;
            }
        };
        let (Some((lo, _hi)), true) = (acc.addr_range, acc.exact) else {
            poisoned.push(p);
            continue;
        };
        let base = params.get(p as usize).copied().unwrap_or(0) as u64;
        if lo < base {
            poisoned.push(p);
            continue;
        }
        let rel = ((lo - base) % stride as u64) as u32;
        let at = match out.iter().position(|s| s.param == p) {
            Some(at) => at,
            None => {
                out.push(BufferSummary {
                    param: p,
                    base,
                    stride,
                    hot_words: Vec::new(),
                    cold_words: Vec::new(),
                    sites: 0,
                    transactions: 0,
                    half_warp_accesses: 0,
                    written: false,
                });
                out.len() - 1
            }
        };
        let entry = &mut out[at];
        if entry.stride == 0 {
            entry.stride = stride;
        }
        if entry.stride != stride || rel + acc.width_bytes > stride {
            poisoned.push(p);
            continue;
        }
        for w in 0..acc.width_bytes / 4 {
            let off = rel + 4 * w;
            if !entry.hot_words.contains(&off) {
                entry.hot_words.push(off);
            }
        }
        entry.sites += 1;
        entry.transactions += acc.transactions;
        entry.half_warp_accesses += acc.half_warp_accesses;
    }
    out.retain(|s| !poisoned.contains(&s.param));
    for s in &mut out {
        s.hot_words.sort_unstable();
        s.cold_words = (0..s.stride / 4)
            .map(|w| 4 * w)
            .filter(|o| !s.hot_words.contains(o))
            .collect();
    }
    out.sort_by_key(|s| s.param);
    out
}

/// One priced candidate (also the rows of `results/table_synth.csv`).
#[derive(Debug, Clone)]
pub struct CandidateEval {
    /// `layout + schedule` label.
    pub label: String,
    /// Predicted cycles under the pricing launch (lower is better).
    pub predicted_cycles: f64,
    /// Baseline cycles / candidate cycles.
    pub predicted_speedup: f64,
    /// Registers per thread (the ranking tie-break).
    pub regs: u16,
}

/// The translation-validation evidence attached to a suggestion.
#[derive(Debug, Clone)]
pub struct SynthCertificate {
    /// Proof that the layout rewrite preserves every observable store
    /// (`None` when the candidate keeps the layout).
    pub layout: Option<VerifyResult>,
    /// Proof that the pass schedule preserves them (`None` when the
    /// candidate keeps the schedule).
    pub schedule: Option<VerifyResult>,
}

impl SynthCertificate {
    /// `true` iff every component came back `Proved` or `ProvedBounded`.
    pub fn is_proved(&self) -> bool {
        let ok =
            |r: &Option<VerifyResult>| r.iter().all(|v| v.is_proved() || v.is_proved_bounded());
        (self.layout.is_some() || self.schedule.is_some()) && ok(&self.layout) && ok(&self.schedule)
    }

    /// Short human-readable form (`layout: proved; schedule: proved`).
    pub fn summary(&self) -> String {
        let word = |r: &Option<VerifyResult>| match r {
            None => "unchanged".to_string(),
            Some(VerifyResult::Proved { .. }) => "proved".to_string(),
            Some(VerifyResult::ProvedBounded { rounds, .. }) => {
                format!("proved (bounded, {rounds} rounds)")
            }
            Some(VerifyResult::Mismatch { detail, .. }) => format!("MISMATCH: {detail}"),
            Some(VerifyResult::Unsupported { reason }) => format!("unsupported: {reason}"),
        };
        format!(
            "layout: {}; schedule: {}",
            word(&self.layout),
            word(&self.schedule)
        )
    }
}

/// A proven, strictly-better rewrite the synthesizer stands behind.
#[derive(Debug, Clone)]
pub struct Suggestion {
    /// `layout + schedule` label.
    pub label: String,
    /// The layout change (`None` = keep the current layout).
    pub rewrite: Option<LayoutRewrite>,
    /// The pass schedule (`None` = keep the current schedule).
    pub schedule: Option<PassId>,
    /// The fully transformed kernel (layout rewrite, then schedule).
    pub kernel: Kernel,
    /// Predicted cycles under the pricing launch.
    pub predicted_cycles: f64,
    /// Predicted speedup over the unmodified kernel.
    pub predicted_speedup: f64,
    /// Registers per thread of the transformed kernel.
    pub regs: u16,
    /// The machine-checked evidence. [`SynthCertificate::is_proved`] is
    /// `true` by construction for every emitted suggestion.
    pub certificate: SynthCertificate,
}

/// Everything one synthesis run learned.
#[derive(Debug, Clone)]
pub struct SynthReport {
    /// Kernel analyzed.
    pub kernel: String,
    /// Driver model priced under.
    pub driver: DriverModel,
    /// Threads per block of the pricing launch.
    pub block: u32,
    /// Predicted cycles of the unmodified kernel.
    pub baseline_cycles: f64,
    /// Registers per thread of the unmodified kernel.
    pub baseline_regs: u16,
    /// The per-buffer access summaries synthesis worked from.
    pub summaries: Vec<BufferSummary>,
    /// Every priced candidate, ranked best-first.
    pub candidates: Vec<CandidateEval>,
    /// Proven suggestions, ranked best-first (subset of `candidates`).
    pub suggestions: Vec<Suggestion>,
    /// Candidates that were enumerated but could not be materialized or
    /// proved, with reasons — nothing is dropped silently.
    pub skipped: Vec<String>,
}

impl SynthReport {
    /// The winning suggestion, if any candidate survived pricing + proof.
    pub fn winner(&self) -> Option<&Suggestion> {
        self.suggestions.first()
    }
}

/// Why synthesis could not run at all (individual candidates failing is
/// reported in [`SynthReport::skipped`] instead).
#[derive(Debug, Clone, PartialEq)]
pub enum SynthError {
    /// The baseline kernel itself cannot be priced (not exact / not
    /// schedulable) — there is no yardstick to rank candidates against.
    Unpriceable(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Unpriceable(s) => write!(f, "baseline kernel cannot be priced: {s}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// Parameter vector for a rewritten kernel: the new buffer bases, then the
/// original non-buffer parameters in order.
pub fn rewritten_params(rw: &LayoutRewrite, params: &[u32], new_bases: &[u32]) -> Vec<u32> {
    assert_eq!(new_bases.len(), rw.new_strides.len());
    let mut out = new_bases.to_vec();
    out.extend_from_slice(&params[rw.old_buffers as usize..]);
    out
}

/// Canonical logical key of `(old buffer param, element, old byte offset)` —
/// the layout-independent name both sides of an equivalence proof use for
/// the same datum.
fn canon_key(param: u16, elem: u64, offset: u32) -> u64 {
    ((param as u64 + 1) << 40) | (elem << 12) | offset as u64
}

/// Non-overlapping, 16-byte-aligned fake bases for the rewritten kernel's
/// buffers, placed well away from the originals.
fn fake_bases(n: usize, start: u32) -> Vec<u32> {
    (0..n as u32).map(|j| start + j * 0x1_0000).collect()
}

fn next_pow2(x: u32) -> u32 {
    x.max(1).next_power_of_two()
}

// ---------------------------------------------------------------------------
// Candidate enumeration
// ---------------------------------------------------------------------------

struct LayoutCand {
    name: &'static str,
    rw: LayoutRewrite,
}

/// Enumerate layout plans over the rewritable buffers. Only hot words are
/// mapped, so every plan implicitly hot/cold-splits; cold words simply do
/// not exist in the new layout the kernel sees.
fn layout_candidates(sums: &[BufferSummary], old_buffers: u16) -> Vec<LayoutCand> {
    let mut out: Vec<LayoutCand> = Vec::new();
    // Buffer params the kernel never reads get an empty map: they are
    // dropped from the new layout outright (whole-buffer cold split).
    let full_maps = |read_maps: Vec<BufferMap>| -> Vec<BufferMap> {
        (0..old_buffers)
            .map(|p| {
                read_maps
                    .iter()
                    .find(|m| m.param == p)
                    .cloned()
                    .unwrap_or(BufferMap {
                        param: p,
                        stride: 4,
                        words: Vec::new(),
                    })
            })
            .collect()
    };
    let mut push = |name: &'static str, new_strides: Vec<u32>, maps: Vec<BufferMap>| {
        let rw = LayoutRewrite {
            tag: name.to_string(),
            old_buffers,
            new_strides,
            maps,
        };
        if rw.is_identity() {
            return;
        }
        if out
            .iter()
            .any(|c| c.rw.new_strides == rw.new_strides && c.rw.maps == rw.maps)
        {
            return;
        }
        out.push(LayoutCand { name, rw });
    };

    // AoS, pow2-aligned: keep each record together, pad the stride to a
    // power of two so records never straddle segment boundaries (the
    // paper's 28→32-byte step).
    push(
        "aos-pow2",
        sums.iter().map(|s| next_pow2(s.stride)).collect(),
        full_maps(
            sums.iter()
                .enumerate()
                .map(|(j, s)| BufferMap {
                    param: s.param,
                    stride: s.stride,
                    words: s
                        .hot_words
                        .iter()
                        .map(|&o| {
                            (
                                o,
                                FieldDest {
                                    buffer: j,
                                    offset: o,
                                },
                            )
                        })
                        .collect(),
                })
                .collect(),
        ),
    );

    // The hot words of every buffer, numbered in `sums` order: word `i` of
    // `sums[k]` is hot word `first_hot[k] + i`. `hot_maps` maps each hot
    // word to `dest` of its number.
    let first_hot: Vec<usize> = sums
        .iter()
        .scan(0, |next, s| {
            let first = *next;
            *next += s.hot_words.len();
            Some(first)
        })
        .collect();
    let n_hot: usize = sums.iter().map(|s| s.hot_words.len()).sum();
    let hot_maps = |dest: &dyn Fn(usize) -> FieldDest| -> Vec<BufferMap> {
        sums.iter()
            .zip(&first_hot)
            .map(|(s, &first)| BufferMap {
                param: s.param,
                stride: s.stride,
                words: s
                    .hot_words
                    .iter()
                    .enumerate()
                    .map(|(i, &o)| (o, dest(first + i)))
                    .collect(),
            })
            .collect()
    };

    // SoA: one scalar array per hot word.
    push(
        "soa",
        vec![4; n_hot],
        full_maps(hot_maps(&|j| FieldDest {
            buffer: j,
            offset: 0,
        })),
    );

    // SoAoaS at tile widths 8 and 16: pack the hot words (across all old
    // buffers) contiguously into fixed-width tiles; a short tail tile is
    // padded only to the next power of two.
    for (name, tile_words) in [("soaoas-8", 2usize), ("soaoas-16", 4usize)] {
        let n_tiles = n_hot.div_ceil(tile_words);
        let mut strides = Vec::with_capacity(n_tiles);
        for t in 0..n_tiles {
            let words_here = (n_hot - t * tile_words).min(tile_words);
            strides.push(next_pow2(4 * words_here as u32));
        }
        push(
            name,
            strides,
            full_maps(hot_maps(&|j| FieldDest {
                buffer: j / tile_words,
                offset: 4 * (j % tile_words) as u32,
            })),
        );
    }
    out
}

/// Mirror of `unroll_innermost`'s target selection: the trip count of the
/// loop it would unroll, or `None` when unrolling would be refused
/// (non-immediate bounds, induction variable redefined, no loop at all).
fn unrollable_trips(stmts: &[Stmt]) -> Option<u64> {
    fn contains_loop(s: &Stmt) -> bool {
        match s {
            Stmt::For { .. } | Stmt::While { .. } => true,
            Stmt::If { then, els, .. } => {
                then.iter().any(contains_loop) || els.iter().any(contains_loop)
            }
            _ => false,
        }
    }
    fn defines(stmts: &[Stmt], var: crate::ir::Reg) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::I(i) => i.defs().contains(&var),
            Stmt::For { body, var: v, .. } => *v == var || defines(body, var),
            Stmt::While { body, .. } => defines(body, var),
            Stmt::If { then, els, .. } => defines(then, var) || defines(els, var),
            Stmt::Sync => false,
        })
    }
    // Recurse-first, exactly like `unroll_in`.
    for s in stmts {
        match s {
            Stmt::For { body, .. }
                if (body.iter().any(|b| matches!(b, Stmt::For { .. }))
                    || body
                        .iter()
                        .any(|b| matches!(b, Stmt::If { .. }) && contains_loop(b))) =>
            {
                if let Some(t) = unrollable_trips(body) {
                    return Some(t);
                }
            }
            Stmt::If { then, els, .. }
                if (then.iter().any(contains_loop) || els.iter().any(contains_loop)) =>
            {
                if let Some(t) = unrollable_trips(then).or_else(|| unrollable_trips(els)) {
                    return Some(t);
                }
            }
            _ => {}
        }
    }
    for s in stmts {
        if let Stmt::For {
            var,
            start,
            end,
            step,
            body,
        } = s
        {
            if body.iter().any(contains_loop) {
                continue;
            }
            let (Operand::ImmU(s0), Operand::ImmU(e0)) = (start, end) else {
                return None;
            };
            if defines(body, *var) {
                return None;
            }
            return count::trip_count(*s0, *e0, *step).ok();
        }
    }
    None
}

/// Pass schedules worth trying on `k`: nothing, `licm`, and — when the
/// innermost loop is statically unrollable — `unroll`, `licm∘unroll`, and
/// `unroll∘licm` at factor 4 and at full trip count. Licm is listed before
/// unroll-then-licm at equal cost, so ties resolve to the paper's order.
fn schedule_candidates(k: &Kernel) -> Vec<Option<PassId>> {
    let mut out: Vec<Option<PassId>> = vec![None, Some(PassId::Licm)];
    if let Some(trips) = unrollable_trips(&k.body) {
        if (2..=1024).contains(&trips) {
            let mut factors = Vec::new();
            if trips % 4 == 0 && trips > 4 {
                factors.push(4u32);
            }
            factors.push(trips as u32);
            factors.dedup();
            for f in factors {
                out.push(Some(PassId::LicmThenUnroll(f)));
                out.push(Some(PassId::Unroll(f)));
                out.push(Some(PassId::UnrollThenLicm(f)));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Synthesis
// ---------------------------------------------------------------------------

/// Launch params with the element count re-derived for a given shape.
fn shaped_params(cfg: &SynthConfig, params: &[u32], n: u32) -> Vec<u32> {
    let mut p = params.to_vec();
    if let Some(i) = cfg.n_param {
        if i < p.len() {
            p[i] = n;
        }
    }
    p
}

/// Predicted cycles and registers per thread, from one analysis.
fn price_report(
    kernel: &Kernel,
    acfg: &AnalysisConfig,
    report: &AnalysisReport,
) -> Result<(f64, u16), CostError> {
    let c = cost::estimate_from_report(kernel, acfg, report)?;
    Ok((c.total_cycles(), report.regs_per_thread))
}

fn price(kernel: &Kernel, cfg: &SynthConfig, params: Vec<u32>) -> Result<(f64, u16), CostError> {
    let acfg = AnalysisConfig::new(cfg.grid, cfg.block, params).with_driver(cfg.driver);
    price_report(kernel, &acfg, &analyze_kernel(kernel, &acfg))
}

/// Build the element-indexed input maps proving `orig ≡ rewritten`: every
/// hot word of every old buffer gets the same canonical key on both sides.
/// A mapped buffer without a summary has no record stride to map by, which
/// is the `Err` reason.
fn layout_input_maps(
    rw: &LayoutRewrite,
    sums: &[BufferSummary],
    params_a: &[u32],
    params_b: &[u32],
    n_elems: u64,
) -> Result<(InputMap, InputMap), String> {
    let mut a = InputMap::default();
    let mut b = InputMap::default();
    for m in &rw.maps {
        if m.words.is_empty() {
            continue; // dropped (never-read) buffer
        }
        let Some(s) = sums.iter().find(|s| s.param == m.param) else {
            return Err(format!("buffer param {} has no access summary", m.param));
        };
        let base_a = params_a[m.param as usize] as u64;
        for &(old_off, dest) in &m.words {
            let base_b = params_b[dest.buffer] as u64;
            let new_stride = rw.new_strides[dest.buffer] as u64;
            for e in 0..n_elems {
                let key = canon_key(m.param, e, old_off);
                a.global
                    .insert(base_a + e * s.stride as u64 + old_off as u64, key);
                b.global
                    .insert(base_b + e * new_stride + dest.offset as u64, key);
            }
        }
    }
    Ok((a, b))
}

/// Run the whole pipeline: summarize, enumerate, price, rank, prove.
///
/// Every suggestion in the returned report carries a certificate with
/// [`SynthCertificate::is_proved`] — candidates whose proof fails land in
/// [`SynthReport::skipped`] with the verifier's reason.
pub fn synthesize(kernel: &Kernel, cfg: &SynthConfig) -> Result<SynthReport, SynthError> {
    let vn = cfg.grid * cfg.block;
    let base_params = shaped_params(cfg, &cfg.params, vn);
    let acfg =
        AnalysisConfig::new(cfg.grid, cfg.block, base_params.clone()).with_driver(cfg.driver);
    let report = analyze_kernel(kernel, &acfg);
    let (baseline_cycles, baseline_regs) = price_report(kernel, &acfg, &report)
        .map_err(|e| SynthError::Unpriceable(format!("{e:?}")))?;

    let summaries = buffer_summaries(&report, &base_params);

    // Layout rewriting covers the leading buffer parameters `0..old_buffers`
    // where `old_buffers` spans every cleanly-read buffer; buffer params in
    // that range the kernel never reads are dropped from the new layout
    // (whole-buffer cold split). A written buffer inside the range, or an
    // element-count param inside it, keeps the layout fixed and synthesis
    // searches schedules only.
    let rewritable: Vec<BufferSummary> = summaries
        .iter()
        .filter(|s| !s.written && !s.hot_words.is_empty() && s.stride > 0)
        .cloned()
        .collect();
    let old_buffers = rewritable.iter().map(|s| s.param + 1).max().unwrap_or(0);
    let range_ok = old_buffers >= 1
        && summaries
            .iter()
            .all(|s| !(s.written && s.param < old_buffers))
        && cfg.n_param.is_none_or(|i| i >= old_buffers as usize);
    let rewritable = if range_ok { rewritable } else { Vec::new() };

    let mut skipped: Vec<String> = Vec::new();
    let layouts = if rewritable.is_empty() {
        Vec::new()
    } else {
        layout_candidates(&rewritable, old_buffers)
    };

    // Materialize and price the whole candidate space.
    struct Priced {
        label: String,
        layout: Option<usize>,
        schedule: Option<PassId>,
        kernel: Kernel,
        cycles: f64,
        regs: u16,
    }
    let mut priced: Vec<Priced> = Vec::new();
    let mut layout_kernels: Vec<Option<(Kernel, Vec<u32>)>> = Vec::new();

    // The identity layout.
    let mut bases: Vec<(Option<usize>, Kernel, Vec<u32>)> =
        vec![(None, kernel.clone(), base_params.clone())];
    for (li, cand) in layouts.iter().enumerate() {
        match rewrite_layout(kernel, &cand.rw) {
            Ok(k) => {
                let nb = fake_bases(cand.rw.new_strides.len(), 0x4000_0000);
                let params = rewritten_params(&cand.rw, &base_params, &nb);
                layout_kernels.push(Some((k.clone(), params.clone())));
                bases.push((Some(li), k, params));
            }
            Err(e) => {
                skipped.push(format!("{}: rewrite refused: {e}", cand.name));
                layout_kernels.push(None);
            }
        }
    }

    for (layout, k_l, params_l) in &bases {
        let lname = layout.map_or("keep-layout", |li| layouts[li].name);
        for sched in schedule_candidates(k_l) {
            let k_s = match &sched {
                None => k_l.clone(),
                Some(p) => p.apply(k_l),
            };
            let sname = sched
                .as_ref()
                .map_or("keep-schedule".to_string(), |p| p.label());
            let label = format!("{lname} + {sname}");
            // The unmodified kernel under the baseline's launch: its price
            // is the baseline's, from the report already in hand.
            let cost = if layout.is_none() && sched.is_none() {
                Ok((baseline_cycles, baseline_regs))
            } else {
                price(&k_s, cfg, params_l.clone())
            };
            match cost {
                Ok((cycles, regs)) => priced.push(Priced {
                    label,
                    layout: *layout,
                    schedule: sched,
                    kernel: k_s,
                    cycles,
                    regs,
                }),
                Err(e) => skipped.push(format!("{label}: unpriceable: {e:?}")),
            }
        }
    }

    priced.sort_by(|x, y| {
        x.cycles
            .total_cmp(&y.cycles)
            .then(x.regs.cmp(&y.regs))
            .then(x.label.cmp(&y.label))
    });

    let candidates: Vec<CandidateEval> = priced
        .iter()
        .map(|p| CandidateEval {
            label: p.label.clone(),
            predicted_cycles: p.cycles,
            predicted_speedup: baseline_cycles / p.cycles,
            regs: p.regs,
        })
        .collect();

    // Prove the ranked winners, best first, until enough survive.
    let vblock = cfg.block;
    let vgrid = cfg.verify_grid.max(1);
    let n_elems = (vgrid * vblock) as u64;
    let vparams_a = shaped_params(cfg, &cfg.params, vblock);
    let mut suggestions: Vec<Suggestion> = Vec::new();
    for p in &priced {
        if suggestions.len() >= cfg.max_suggestions {
            break;
        }
        if p.layout.is_none() && p.schedule.is_none() {
            continue; // the kernel itself
        }
        if baseline_cycles / p.cycles < cfg.min_gain {
            break; // ranked: nothing further clears the bar either
        }
        let mut cert = SynthCertificate {
            layout: None,
            schedule: None,
        };
        let (k_l, vparams_b) = match p.layout {
            None => (kernel.clone(), vparams_a.clone()),
            Some(li) => {
                let cand = &layouts[li];
                let Some((k_l, _)) = &layout_kernels[li] else {
                    continue;
                };
                let nb = fake_bases(cand.rw.new_strides.len(), 0x4000_0000);
                let vparams_b = rewritten_params(&cand.rw, &vparams_a, &nb);
                let (map_a, map_b) =
                    match layout_input_maps(&cand.rw, &rewritable, &vparams_a, &vparams_b, n_elems)
                    {
                        Ok(maps) => maps,
                        Err(reason) => {
                            skipped.push(format!("{}: layout proof skipped: {reason}", p.label));
                            continue;
                        }
                    };
                let mut vcfg = VerifyConfig::new(vgrid, vblock, vparams_a.clone());
                vcfg.params_b = Some(vparams_b.clone());
                vcfg.input_map = Some(map_a);
                vcfg.input_map_b = Some(map_b);
                vcfg.max_steps = cfg.verify_max_steps;
                let r = verify_equiv(kernel, k_l, &vcfg);
                if !(r.is_proved() || r.is_proved_bounded()) {
                    skipped.push(format!("{}: layout proof failed: {r}", p.label));
                    continue;
                }
                cert.layout = Some(r);
                (k_l.clone(), vparams_b)
            }
        };
        if let Some(pass) = &p.schedule {
            let mut vcfg = VerifyConfig::new(vgrid, vblock, vparams_b.clone());
            vcfg.max_steps = cfg.verify_max_steps;
            let r = verify_equiv(&k_l, &pass.apply(&k_l), &vcfg);
            if !(r.is_proved() || r.is_proved_bounded()) {
                skipped.push(format!("{}: schedule proof failed: {r}", p.label));
                continue;
            }
            cert.schedule = Some(r);
        }
        debug_assert!(cert.is_proved());
        suggestions.push(Suggestion {
            label: p.label.clone(),
            rewrite: p.layout.map(|li| layouts[li].rw.clone()),
            schedule: p.schedule,
            kernel: p.kernel.clone(),
            predicted_cycles: p.cycles,
            predicted_speedup: baseline_cycles / p.cycles,
            regs: p.regs,
            certificate: cert,
        });
    }

    Ok(SynthReport {
        kernel: kernel.name.clone(),
        driver: cfg.driver,
        block: cfg.block,
        baseline_cycles,
        baseline_regs,
        summaries,
        candidates,
        suggestions,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_keys_are_injective_per_buffer_and_word() {
        let mut seen = std::collections::HashSet::new();
        for p in 0..3u16 {
            for e in 0..64u64 {
                for off in (0..32u32).step_by(4) {
                    assert!(seen.insert(canon_key(p, e, off)));
                }
            }
        }
    }

    #[test]
    fn layout_candidates_cover_the_paper_ladder() {
        let sums = vec![BufferSummary {
            param: 0,
            base: 0x1_0000,
            stride: 28,
            hot_words: vec![0, 4, 8, 24],
            cold_words: vec![12, 16, 20],
            sites: 2,
            transactions: 100,
            half_warp_accesses: 10,
            written: false,
        }];
        let cands = layout_candidates(&sums, 1);
        let names: Vec<&str> = cands.iter().map(|c| c.name).collect();
        assert!(names.contains(&"aos-pow2"));
        assert!(names.contains(&"soa"));
        assert!(names.contains(&"soaoas-8"));
        assert!(names.contains(&"soaoas-16"));
        // The 16-byte tiling of 4 hot words is a single float4 record.
        let soaoas = cands.iter().find(|c| c.name == "soaoas-16").unwrap();
        assert_eq!(soaoas.rw.new_strides, vec![16]);
        assert_eq!(soaoas.rw.bytes_per_element(), 16);
    }

    #[test]
    fn a_mapped_buffer_without_a_summary_is_a_reason_not_a_panic() {
        let rw = LayoutRewrite {
            tag: "soa".to_string(),
            old_buffers: 1,
            new_strides: vec![4],
            maps: vec![BufferMap {
                param: 0,
                stride: 16,
                words: vec![(
                    0,
                    FieldDest {
                        buffer: 0,
                        offset: 0,
                    },
                )],
            }],
        };
        let maps = layout_input_maps(&rw, &[], &[0x1_0000], &[0x4000_0000], 4);
        assert_eq!(
            maps.err().as_deref(),
            Some("buffer param 0 has no access summary")
        );
    }

    #[test]
    fn identity_layouts_are_not_candidates() {
        // A buffer already in SoAoaS-16 form: tiling it again is identity.
        let sums = vec![BufferSummary {
            param: 0,
            base: 0x1_0000,
            stride: 16,
            hot_words: vec![0, 4, 8, 12],
            cold_words: vec![],
            sites: 2,
            transactions: 4,
            half_warp_accesses: 4,
            written: false,
        }];
        let cands = layout_candidates(&sums, 1);
        assert!(cands.iter().all(|c| c.name != "soaoas-16"));
        assert!(cands.iter().all(|c| c.name != "aos-pow2"));
    }
}
