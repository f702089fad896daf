//! Instruction counting and the paper's Eq. 3 speedup model.
//!
//! Section IV-A of the paper models a tiled O(n²) kernel as
//! `S + (N/K)·B + N·P` instructions per thread — setup, per-tile block code,
//! and the innermost per-element code — and predicts the unrolling speedup as
//! `P₁/P₂`, the ratio of innermost-loop instruction budgets. This module
//! computes all three quantities *from the IR*, so the model's inputs are
//! measured rather than assumed.

use super::*;
use std::fmt;

/// Why a kernel's dynamic instruction count cannot be computed statically.
///
/// Counting requires every loop trip count to be a launch-time constant;
/// data-dependent control flow (the Barnes–Hut traversal's `While` stack
/// loop, a `For` bounded by a loaded value) has no static count. The
/// advisors surface this as an "unbounded loop" condition instead of
/// crashing — see `crate::analyze`.
#[derive(Debug, Clone, PartialEq)]
pub enum CountError {
    /// A `For` loop's end operand is neither an immediate nor a parameter.
    DataDependentBound {
        /// The loop's induction variable, for locating it in a disassembly.
        var: Reg,
    },
    /// A `While` loop: trip counts are inherently data-dependent.
    DataDependentLoop,
    /// A loop whose lowered step is zero never advances its induction
    /// variable: no finite trip count exists.
    ZeroStep,
    /// Eq. 3 divides instruction budgets; a non-positive budget has no
    /// meaningful speedup ratio.
    NonPositiveBudget {
        /// The offending budget value.
        budget: f64,
    },
    /// The launch supplied a different number of parameter values than the
    /// kernel declares.
    ParamCountMismatch {
        /// Parameters the kernel declares.
        expected: u16,
        /// Values the launch supplied.
        got: usize,
    },
}

impl fmt::Display for CountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CountError::DataDependentBound { var } => write!(
                f,
                "loop bound for induction variable %r{} is not a launch constant",
                var.0
            ),
            CountError::DataDependentLoop => {
                write!(f, "data-dependent While loop has no static trip count")
            }
            CountError::ZeroStep => write!(f, "loop step of 0 never terminates"),
            CountError::NonPositiveBudget { budget } => {
                write!(
                    f,
                    "instruction budget {budget} is not positive; Eq. 3 is undefined"
                )
            }
            CountError::ParamCountMismatch { expected, got } => {
                write!(
                    f,
                    "kernel takes {expected} parameters, launch supplied {got}"
                )
            }
        }
    }
}

impl std::error::Error for CountError {}

/// Resolve an operand that must be a launch-time constant: an immediate or a
/// parameter register. Returns `None` for anything data-dependent.
fn resolve_const(op: &Operand, params: &[u32]) -> Option<u32> {
    match op {
        Operand::ImmU(v) => Some(*v),
        Operand::R(r) if (r.0 as usize) < params.len() => Some(params[r.0 as usize]),
        _ => None,
    }
}

/// Trip count of a lowered (bottom-tested) loop: at least one iteration.
/// A zero step is a [`CountError::ZeroStep`], not a panic.
pub fn trip_count(start: u32, end: u32, step: u32) -> Result<u64, CountError> {
    if step == 0 {
        return Err(CountError::ZeroStep);
    }
    if end <= start {
        Ok(1) // bottom-tested loops execute once even when the bound is degenerate
    } else {
        Ok(((end - start) as u64).div_ceil(step as u64))
    }
}

/// Dynamic instructions executed by **one thread** of the kernel, given the
/// launch parameter values (loop bounds must be immediates or parameters).
///
/// Loop accounting matches [`super::lower`]: one init `mov`, plus per
/// iteration the body and the 3-instruction overhead (add, compare, branch).
/// Both sides of an `If` are charged (divergent serialization — the
/// conservative SIMT cost). Data-dependent loop bounds are a [`CountError`],
/// not a panic, so callers (the advisors, the static analyzer) can degrade
/// to an "unbounded loop" diagnostic.
pub fn dynamic_instructions(kernel: &Kernel, params: &[u32]) -> Result<u64, CountError> {
    if kernel.n_params as usize != params.len() {
        return Err(CountError::ParamCountMismatch {
            expected: kernel.n_params,
            got: params.len(),
        });
    }
    fn count(stmts: &[Stmt], params: &[u32]) -> Result<u64, CountError> {
        let mut total = 0u64;
        for s in stmts {
            match s {
                Stmt::I(_) => total += 1,
                Stmt::Sync => total += 1,
                Stmt::If { then, els, .. } => {
                    total += count(then, params)? + count(els, params)?;
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    // A data-dependent start (the grid-strided tile loop
                    // starts at `tid`) counts as thread 0's trip count.
                    let st = resolve_const(start, params).unwrap_or(0);
                    let en = resolve_const(end, params)
                        .ok_or(CountError::DataDependentBound { var: *var })?;
                    let trips = trip_count(st, en, *step)?;
                    total += 1 + trips * (count(body, params)? + 3);
                }
                Stmt::While { .. } => return Err(CountError::DataDependentLoop),
            }
        }
        Ok(total)
    }
    count(&kernel.body, params)
}

/// Profile of the innermost loop: the `P` term of Eq. 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InnerLoopProfile {
    /// Static instructions in the innermost loop body.
    pub body_instrs: u64,
    /// Loop-overhead instructions per iteration (3 in the lowered form).
    pub overhead_instrs: u64,
    /// Nesting depth at which the innermost loop was found (1 = top level).
    pub depth: u32,
}

impl InnerLoopProfile {
    /// Instructions per innermost iteration including overhead — the paper's
    /// "a little more than 25 instructions including the instructions needed
    /// for the loop".
    pub fn per_iteration(&self) -> u64 {
        self.body_instrs + self.overhead_instrs
    }
}

/// Find the innermost (deepest, first encountered at that depth) loop and
/// profile it. Returns `None` for loop-free kernels — e.g. a fully unrolled
/// one, whose "per iteration" cost should then be measured as straight-line
/// instructions per element instead.
pub fn inner_loop_profile(kernel: &Kernel) -> Option<InnerLoopProfile> {
    fn static_count(stmts: &[Stmt]) -> u64 {
        let mut n = 0;
        for s in stmts {
            match s {
                Stmt::I(_) | Stmt::Sync => n += 1,
                Stmt::If { then, els, .. } => n += 1 + static_count(then) + static_count(els),
                Stmt::For { body, .. } => n += 4 + static_count(body), // init + overhead
                Stmt::While { body, .. } => n += 1 + static_count(body), // + backedge branch
            }
        }
        n
    }
    fn deepest(stmts: &[Stmt], depth: u32, best: &mut Option<(u32, u64)>) {
        for s in stmts {
            match s {
                Stmt::While { body, .. } => deepest(body, depth, best),
                Stmt::For { body, .. } => {
                    let has_nested = body.iter().any(|b| matches!(b, Stmt::For { .. }));
                    if !has_nested {
                        let cnt = static_count(body);
                        match best {
                            Some((d, _)) if *d > depth => {}
                            _ => *best = Some((depth + 1, cnt)),
                        }
                    }
                    deepest(body, depth + 1, best);
                }
                Stmt::If { then, els, .. } => {
                    deepest(then, depth, best);
                    deepest(els, depth, best);
                }
                _ => {}
            }
        }
    }
    let mut best = None;
    deepest(&kernel.body, 0, &mut best);
    best.map(|(depth, body_instrs)| InnerLoopProfile {
        body_instrs,
        overhead_instrs: 3,
        depth,
    })
}

/// The paper's Eq. 3: predicted speedup from replacing an innermost-loop
/// budget of `p1` instructions/element with `p2`. Non-positive budgets are a
/// [`CountError::NonPositiveBudget`], not a panic.
pub fn eq3_speedup(p1: f64, p2: f64) -> Result<f64, CountError> {
    for b in [p1, p2] {
        if b.is_nan() || b <= 0.0 {
            return Err(CountError::NonPositiveBudget { budget: b });
        }
    }
    Ok(p1 / p2)
}

/// Dynamic instruction histogram by coarse class, for reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstrMix {
    /// f32 arithmetic (add/sub/mul/mad/min/max/neg).
    pub fp: u64,
    /// Integer/address arithmetic, moves, converts, predicates.
    pub int: u64,
    /// Special-function (rsqrt).
    pub sfu: u64,
    /// Global + shared loads.
    pub loads: u64,
    /// Global + shared stores.
    pub stores: u64,
    /// Loop overhead (induction add + compare + branch) and syncs.
    pub control: u64,
}

impl InstrMix {
    /// Total dynamic instructions.
    pub fn total(&self) -> u64 {
        self.fp + self.int + self.sfu + self.loads + self.stores + self.control
    }
}

/// Dynamic instruction mix for one thread. Same counting contract (and the
/// same [`CountError`] degradation) as [`dynamic_instructions`].
pub fn instruction_mix(kernel: &Kernel, params: &[u32]) -> Result<InstrMix, CountError> {
    if kernel.n_params as usize != params.len() {
        return Err(CountError::ParamCountMismatch {
            expected: kernel.n_params,
            got: params.len(),
        });
    }
    fn classify(i: &Instr, m: &mut InstrMix, mult: u64) {
        match i {
            Instr::Alu { op, .. } if op.is_float() => m.fp += mult,
            Instr::Mad { float: true, .. } => m.fp += mult,
            Instr::Unary {
                op: UnaryOp::FRsqrt,
                ..
            } => m.sfu += mult,
            Instr::Unary { .. } => m.int += mult,
            Instr::Ld { .. } => m.loads += mult,
            Instr::St { .. } => m.stores += mult,
            Instr::Clock { .. } => m.int += mult,
            _ => m.int += mult,
        }
    }
    fn walk(stmts: &[Stmt], params: &[u32], mult: u64, m: &mut InstrMix) -> Result<(), CountError> {
        for s in stmts {
            match s {
                Stmt::I(i) => classify(i, m, mult),
                Stmt::Sync => m.control += mult,
                Stmt::If { then, els, .. } => {
                    walk(then, params, mult, m)?;
                    walk(els, params, mult, m)?;
                }
                Stmt::While { .. } => return Err(CountError::DataDependentLoop),
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    let st = resolve_const(start, params).unwrap_or(0);
                    let en = resolve_const(end, params)
                        .ok_or(CountError::DataDependentBound { var: *var })?;
                    let trips = trip_count(st, en, *step)?;
                    m.int += mult; // init mov
                    m.control += mult * trips * 3;
                    walk(body, params, mult * trips, m)?;
                }
            }
        }
        Ok(())
    }
    let mut m = InstrMix::default();
    walk(&kernel.body, params, 1, &mut m)?;
    Ok(m)
}

/// Saturating variant of the mix classifier, for the bounds walk: widened
/// trip budgets can push multipliers toward `u64::MAX`, which must clamp
/// rather than wrap.
fn classify_sat(i: &Instr, m: &mut InstrMix, mult: u64) {
    let slot: &mut u64 = match i {
        Instr::Alu { op, .. } if op.is_float() => &mut m.fp,
        Instr::Mad { float: true, .. } => &mut m.fp,
        Instr::Unary {
            op: UnaryOp::FRsqrt,
            ..
        } => &mut m.sfu,
        Instr::Unary { .. } => &mut m.int,
        Instr::Ld { .. } => &mut m.loads,
        Instr::St { .. } => &mut m.stores,
        _ => &mut m.int,
    };
    *slot = slot.saturating_add(mult);
}

/// Dynamic instruction-mix **bounds** for one thread: a `[best, worst]`
/// pair of mixes under the given trip-count budget for data-dependent loops.
///
/// The contract extends [`instruction_mix`] instead of replacing it:
///
/// * every statically countable construct is charged exactly as the exact
///   counter charges it — for a kernel with no data-dependent loop the two
///   mixes are equal *and* equal to [`instruction_mix`]'s result;
/// * a `While` loop (bottom-tested, so at least one trip) is charged
///   `[1, trip_budget]` trips plus one backedge branch per trip;
/// * a `For` loop whose end operand is not a launch constant is charged
///   `[1, trip_budget]` trips (the caller asserts, via the budget, that its
///   loops terminate within it — the same contract as
///   `analyze::AnalysisConfig::with_trip_budget`).
///
/// Both sides of an `If` are charged in both bounds, matching the exact
/// counter's divergent-serialization model. Accumulation saturates.
pub fn instruction_mix_bounds(
    kernel: &Kernel,
    params: &[u32],
    trip_budget: u64,
) -> Result<(InstrMix, InstrMix), CountError> {
    if kernel.n_params as usize != params.len() {
        return Err(CountError::ParamCountMismatch {
            expected: kernel.n_params,
            got: params.len(),
        });
    }
    let budget = trip_budget.max(1);
    fn walk(
        stmts: &[Stmt],
        params: &[u32],
        budget: u64,
        mult: (u64, u64),
        lo: &mut InstrMix,
        hi: &mut InstrMix,
    ) -> Result<(), CountError> {
        for s in stmts {
            match s {
                Stmt::I(i) => {
                    classify_sat(i, lo, mult.0);
                    classify_sat(i, hi, mult.1);
                }
                Stmt::Sync => {
                    lo.control = lo.control.saturating_add(mult.0);
                    hi.control = hi.control.saturating_add(mult.1);
                }
                Stmt::If { then, els, .. } => {
                    walk(then, params, budget, mult, lo, hi)?;
                    walk(els, params, budget, mult, lo, hi)?;
                }
                Stmt::While { body, .. } => {
                    // One backedge branch per trip, trips ∈ [1, budget].
                    lo.control = lo.control.saturating_add(mult.0);
                    hi.control = hi.control.saturating_add(mult.1.saturating_mul(budget));
                    walk(
                        body,
                        params,
                        budget,
                        (mult.0, mult.1.saturating_mul(budget)),
                        lo,
                        hi,
                    )?;
                }
                Stmt::For {
                    start,
                    end,
                    step,
                    body,
                    ..
                } => {
                    let st = resolve_const(start, params).unwrap_or(0);
                    let (tl, th) = match resolve_const(end, params) {
                        Some(en) => {
                            let t = trip_count(st, en, *step)?;
                            (t, t)
                        }
                        None if *step == 0 => return Err(CountError::ZeroStep),
                        None => (1, budget),
                    };
                    lo.int = lo.int.saturating_add(mult.0); // init mov
                    hi.int = hi.int.saturating_add(mult.1);
                    lo.control = lo
                        .control
                        .saturating_add(mult.0.saturating_mul(tl).saturating_mul(3));
                    hi.control = hi
                        .control
                        .saturating_add(mult.1.saturating_mul(th).saturating_mul(3));
                    walk(
                        body,
                        params,
                        budget,
                        (mult.0.saturating_mul(tl), mult.1.saturating_mul(th)),
                        lo,
                        hi,
                    )?;
                }
            }
        }
        Ok(())
    }
    let (mut lo, mut hi) = (InstrMix::default(), InstrMix::default());
    walk(&kernel.body, params, budget, (1, 1), &mut lo, &mut hi)?;
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::KernelBuilder;

    #[test]
    fn trip_count_semantics() {
        assert_eq!(trip_count(0, 10, 1).unwrap(), 10);
        assert_eq!(trip_count(0, 10, 3).unwrap(), 4);
        assert_eq!(
            trip_count(5, 5, 1).unwrap(),
            1,
            "bottom-tested: at least once"
        );
        assert_eq!(trip_count(2, 10, 4).unwrap(), 2);
    }

    #[test]
    fn zero_step_is_an_error_not_a_panic() {
        let err = trip_count(0, 10, 0).unwrap_err();
        assert_eq!(err, CountError::ZeroStep);
        assert!(err.to_string().contains("never terminates"));
    }

    #[test]
    fn param_count_mismatch_is_an_error_not_a_panic() {
        let mut b = KernelBuilder::new("pc");
        let _ = b.param();
        let k = b.finish();
        let err = dynamic_instructions(&k, &[]).unwrap_err();
        assert_eq!(
            err,
            CountError::ParamCountMismatch {
                expected: 1,
                got: 0
            }
        );
        assert!(err.to_string().contains("takes 1 parameters"));
        assert_eq!(
            instruction_mix(&k, &[1, 2]).unwrap_err(),
            CountError::ParamCountMismatch {
                expected: 1,
                got: 2
            }
        );
    }

    #[test]
    fn straight_line_count() {
        let mut b = KernelBuilder::new("sl");
        b.mov(Operand::ImmU(1));
        b.mov(Operand::ImmU(2));
        assert_eq!(dynamic_instructions(&b.finish(), &[]).unwrap(), 2);
    }

    #[test]
    fn loop_count_includes_overhead() {
        let mut b = KernelBuilder::new("l");
        b.for_loop(Operand::ImmU(0), Operand::ImmU(10), 1, |b, _| {
            b.mov(Operand::ImmF(0.0));
            b.mov(Operand::ImmF(1.0));
        });
        // 1 init + 10 × (2 body + 3 overhead) = 51
        assert_eq!(dynamic_instructions(&b.finish(), &[]).unwrap(), 51);
    }

    #[test]
    fn param_bound_loop_resolves_from_launch_values() {
        let mut b = KernelBuilder::new("p");
        let n = b.param();
        b.for_loop(Operand::ImmU(0), n.into(), 1, |b, _| {
            b.mov(Operand::ImmF(0.0));
        });
        let k = b.finish();
        assert_eq!(dynamic_instructions(&k, &[5]).unwrap(), 1 + 5 * 4);
        assert_eq!(dynamic_instructions(&k, &[100]).unwrap(), 1 + 100 * 4);
    }

    #[test]
    fn nested_loops_multiply() {
        let mut b = KernelBuilder::new("nest");
        b.for_loop(Operand::ImmU(0), Operand::ImmU(4), 1, |b, _| {
            b.for_loop(Operand::ImmU(0), Operand::ImmU(8), 1, |b, _| {
                b.mov(Operand::ImmF(0.0));
            });
        });
        // outer: 1 + 4 × (inner + 3); inner: 1 + 8 × (1 + 3) = 33
        assert_eq!(
            dynamic_instructions(&b.finish(), &[]).unwrap(),
            1 + 4 * (33 + 3)
        );
    }

    #[test]
    fn data_dependent_bound_is_an_error_not_a_panic() {
        let mut b = KernelBuilder::new("dd");
        let base = b.param();
        let end = b.ld(MemSpace::Global, base, 0, 1)[0];
        b.for_loop(Operand::ImmU(0), end.into(), 1, |b, _| {
            b.mov(Operand::ImmF(0.0));
        });
        let k = b.finish();
        let err = dynamic_instructions(&k, &[0]).unwrap_err();
        assert!(
            matches!(err, CountError::DataDependentBound { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("not a launch constant"));
        assert!(instruction_mix(&k, &[0]).is_err());
    }

    #[test]
    fn while_loop_is_an_error_not_a_panic() {
        let mut b = KernelBuilder::new("w");
        let x = b.mov(Operand::ImmU(3));
        b.do_while(|b| {
            b.alu_into(x, AluOp::ISub, x.into(), Operand::ImmU(1));
            b.setp(CmpOp::UNe, x.into(), Operand::ImmU(0))
        });
        let k = b.finish();
        assert_eq!(
            dynamic_instructions(&k, &[]).unwrap_err(),
            CountError::DataDependentLoop
        );
        assert_eq!(
            instruction_mix(&k, &[]).unwrap_err(),
            CountError::DataDependentLoop
        );
    }

    #[test]
    fn inner_loop_profile_finds_deepest() {
        let mut b = KernelBuilder::new("prof");
        b.for_loop(Operand::ImmU(0), Operand::ImmU(4), 1, |b, _| {
            b.mov(Operand::ImmF(0.0));
            b.for_loop(Operand::ImmU(0), Operand::ImmU(8), 1, |b, _| {
                b.mov(Operand::ImmF(1.0));
                b.mov(Operand::ImmF(2.0));
            });
        });
        let p = inner_loop_profile(&b.finish()).unwrap();
        assert_eq!(p.depth, 2);
        assert_eq!(p.body_instrs, 2);
        assert_eq!(p.per_iteration(), 5);
    }

    #[test]
    fn loop_free_kernel_has_no_profile() {
        let mut b = KernelBuilder::new("flat");
        b.mov(Operand::ImmU(0));
        assert!(inner_loop_profile(&b.finish()).is_none());
    }

    #[test]
    fn eq3_matches_paper_example() {
        // Removing 4 of 21 per-iteration instructions predicts ≈ 1.19×,
        // the paper's ~18 % unrolling gain.
        let s = eq3_speedup(21.0, 17.0).unwrap();
        assert!((s - 21.0 / 17.0).abs() < 1e-12);
        assert!(s > 1.18 && s < 1.25);
    }

    #[test]
    fn eq3_rejects_non_positive_budgets() {
        assert_eq!(
            eq3_speedup(0.0, 17.0).unwrap_err(),
            CountError::NonPositiveBudget { budget: 0.0 }
        );
        assert!(matches!(
            eq3_speedup(21.0, -1.0),
            Err(CountError::NonPositiveBudget { .. })
        ));
        assert!(matches!(
            eq3_speedup(f64::NAN, 1.0),
            Err(CountError::NonPositiveBudget { .. })
        ));
    }

    #[test]
    fn mix_classifies_by_unit() {
        let mut b = KernelBuilder::new("mix");
        let base = b.param();
        let x = b.ld(MemSpace::Global, base, 0, 1)[0];
        let y = b.fmul(x.into(), x.into());
        let r = b.frsqrt(y.into());
        b.st(MemSpace::Global, base, 4, vec![r.into()]);
        let m = instruction_mix(&b.finish(), &[0]).unwrap();
        assert_eq!(m.loads, 1);
        assert_eq!(m.fp, 1);
        assert_eq!(m.sfu, 1);
        assert_eq!(m.stores, 1);
        assert_eq!(m.total(), 4);
    }

    #[test]
    fn mix_bounds_collapse_to_exact_without_data_dependence() {
        let mut b = KernelBuilder::new("cb");
        let n = b.param();
        let base = b.param();
        b.for_loop(Operand::ImmU(0), n.into(), 1, |b, i| {
            let a = b.mad_u(i.into(), Operand::ImmU(4), base.into());
            let v = b.ld(MemSpace::Global, a, 0, 1)[0];
            let w = b.fadd(v.into(), Operand::ImmF(1.0));
            b.st(MemSpace::Global, a, 0, vec![w.into()]);
        });
        let k = b.finish();
        let params = &[9u32, 0x100];
        let exact = instruction_mix(&k, params).unwrap();
        let (lo, hi) = instruction_mix_bounds(&k, params, 4096).unwrap();
        assert_eq!(lo, exact);
        assert_eq!(hi, exact);
    }

    #[test]
    fn while_bounds_span_one_to_budget_trips() {
        let mut b = KernelBuilder::new("wb");
        let x = b.mov(Operand::ImmU(10));
        b.do_while(|b| {
            b.fadd(Operand::ImmF(0.0), Operand::ImmF(1.0));
            b.alu_into(x, AluOp::ISub, x.into(), Operand::ImmU(1));
            b.setp(CmpOp::UNe, x.into(), Operand::ImmU(0))
        });
        let k = b.finish();
        assert!(
            instruction_mix(&k, &[]).is_err(),
            "exact counter must still refuse"
        );
        let (lo, hi) = instruction_mix_bounds(&k, &[], 16).unwrap();
        // Body per trip: 1 fp + 2 int (sub, setp) + 1 backedge control.
        assert_eq!(lo.fp, 1);
        assert_eq!(hi.fp, 16);
        // mov before the loop: 1 int each; body int ×trips.
        assert_eq!(lo.int, 1 + 2);
        assert_eq!(hi.int, 1 + 2 * 16);
        assert_eq!(lo.control, 1);
        assert_eq!(hi.control, 16);
        assert!(lo.total() <= hi.total());
    }

    #[test]
    fn data_dependent_for_bounds_span_one_to_budget() {
        let mut b = KernelBuilder::new("df");
        let base = b.param();
        let end = b.ld(MemSpace::Global, base, 0, 1)[0];
        b.for_loop(Operand::ImmU(0), end.into(), 1, |b, _| {
            b.mov(Operand::ImmF(0.0));
        });
        let k = b.finish();
        assert!(instruction_mix(&k, &[0]).is_err());
        let (lo, hi) = instruction_mix_bounds(&k, &[0], 8).unwrap();
        assert_eq!(lo.control, 3);
        assert_eq!(hi.control, 3 * 8);
        assert_eq!(lo.total() + 7 * 4, hi.total());
    }

    #[test]
    fn bounds_saturate_instead_of_wrapping() {
        let mut b = KernelBuilder::new("sat");
        let x = b.mov(Operand::ImmU(1));
        b.do_while(|b| {
            b.do_while(|b| {
                b.do_while(|b| {
                    b.mov(Operand::ImmU(2));
                    b.setp(CmpOp::UNe, x.into(), Operand::ImmU(0))
                });
                b.setp(CmpOp::UNe, x.into(), Operand::ImmU(0))
            });
            b.setp(CmpOp::UNe, x.into(), Operand::ImmU(0))
        });
        let (lo, hi) = instruction_mix_bounds(&b.finish(), &[], u64::MAX).unwrap();
        assert_eq!(hi.int, u64::MAX);
        assert!(lo.total() < u64::MAX);
    }

    #[test]
    fn mix_total_matches_dynamic_count() {
        let mut b = KernelBuilder::new("consistent");
        let n = b.param();
        let base = b.param();
        b.for_loop(Operand::ImmU(0), n.into(), 1, |b, i| {
            let a = b.mad_u(i.into(), Operand::ImmU(4), base.into());
            let v = b.ld(MemSpace::Global, a, 0, 1)[0];
            let w = b.fadd(v.into(), Operand::ImmF(1.0));
            b.st(MemSpace::Global, a, 0, vec![w.into()]);
        });
        let k = b.finish();
        let params = &[7u32, 0u32];
        assert_eq!(
            instruction_mix(&k, params).unwrap().total(),
            dynamic_instructions(&k, params).unwrap()
        );
    }
}
