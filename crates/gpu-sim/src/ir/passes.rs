//! The paper's hand optimizations as IR-to-IR passes.
//!
//! * [`unroll_innermost`] — partial/full unrolling of the innermost loop
//!   (Sec. IV-A: "we unroll the loop starting from unrolling it 4 times to
//!   fully K or here 128 times").
//! * [`licm`] — loop-invariant code motion (the paper's "manually applying
//!   invariant code motion ... reduced the register pressure ... by one
//!   register").
//! * [`fold_addressing`] — local constant/address folding, which is what
//!   turns an unrolled iteration's `mad`-computed address into a hard-coded
//!   load offset (the paper: "an additional add to calculate the address
//!   offset that now is hard coded"). Deliberately restricted to *integer
//!   address arithmetic*: the 2008 toolchain demonstrably did not CSE the
//!   floating-point invariants (otherwise the authors' manual ICM would have
//!   done nothing), so the model must not either.

use super::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Unrolling
// ---------------------------------------------------------------------------

/// Substitute every *use* of `var` in `stmts` with `rep` (definitions are not
/// touched — unrolled copies must not redefine the induction register).
fn substitute_uses(stmts: &mut [Stmt], var: Reg, rep: Operand) {
    let sub = |o: &mut Operand| {
        if *o == Operand::R(var) {
            *o = rep;
        }
    };
    for s in stmts {
        match s {
            Stmt::I(i) => match i {
                Instr::Mov { src, .. } => sub(src),
                Instr::Special { .. } | Instr::Clock { .. } => {}
                Instr::Alu { a, b, .. } => {
                    sub(a);
                    sub(b);
                }
                Instr::Mad { a, b, c, .. } => {
                    sub(a);
                    sub(b);
                    sub(c);
                }
                Instr::Unary { a, .. } => sub(a),
                Instr::Setp { a, b, .. } => {
                    sub(a);
                    sub(b);
                }
                Instr::Ld { base, .. } => {
                    assert_ne!(
                        *base, var,
                        "cannot substitute an immediate into a load base; run fold first"
                    );
                }
                Instr::St { srcs, base, .. } => {
                    for o in srcs {
                        sub(o);
                    }
                    assert_ne!(
                        *base, var,
                        "cannot substitute an immediate into a store base"
                    );
                }
            },
            Stmt::For {
                start, end, body, ..
            } => {
                sub(start);
                sub(end);
                substitute_uses(body, var, rep);
            }
            Stmt::If { then, els, .. } => {
                substitute_uses(then, var, rep);
                substitute_uses(els, var, rep);
            }
            Stmt::While { body, .. } => substitute_uses(body, var, rep),
            Stmt::Sync => {}
        }
    }
}

fn defines(stmts: &[Stmt], r: Reg) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::I(i) => i.defs().contains(&r),
        Stmt::For { var, body, .. } => *var == r || defines(body, r),
        Stmt::While { body, .. } => defines(body, r),
        Stmt::If { then, els, .. } => defines(then, r) || defines(els, r),
        Stmt::Sync => false,
    })
}

/// The loop [`unroll_innermost`] unrolls, walking statements in order and
/// looking inside every `For` body and `If` arm first: the first `For` whose
/// body holds no loop. `f` gets the statement list holding it and its index
/// there.
fn at_innermost_loop<R>(
    stmts: &mut Vec<Stmt>,
    f: &mut impl FnMut(&mut Vec<Stmt>, usize) -> R,
) -> Option<R> {
    let inner = stmts.iter_mut().find_map(|s| match s {
        Stmt::For { body, .. } => at_innermost_loop(body, f),
        Stmt::If { then, els, .. } => {
            at_innermost_loop(then, f).or_else(|| at_innermost_loop(els, f))
        }
        _ => None,
    });
    if inner.is_some() {
        return inner;
    }
    let at = stmts
        .iter()
        .position(|s| matches!(s, Stmt::For { body, .. } if !body.iter().any(contains_loop)))?;
    Some(f(stmts, at))
}

/// The trip count of a `For` that [`unroll_innermost`] can unroll:
/// immediate bounds, a positive step and a body that leaves the induction
/// variable alone.
fn loop_trips(s: &Stmt) -> Option<u64> {
    match s {
        Stmt::For {
            var,
            start: Operand::ImmU(s0),
            end: Operand::ImmU(e0),
            step,
            body,
        } if !defines(body, *var) => count::trip_count(*s0, *e0, *step).ok(),
        _ => None,
    }
}

/// The trip count of the loop [`unroll_innermost`] unrolls, or `None` when
/// it would refuse: no loop, bounds that are not immediates, a step of
/// zero, or a body that redefines the induction variable. (The walk hands
/// out the loop mutably, so it walks a copy of the body.)
pub fn unroll_trips(kernel: &Kernel) -> Option<u64> {
    at_innermost_loop(&mut kernel.body.clone(), &mut |stmts, at| {
        loop_trips(&stmts[at])
    })
    .flatten()
}

/// Unroll the innermost loop of the kernel by `factor`.
///
/// Requirements (checked): the innermost loop's bounds are immediates, the
/// trip count is a multiple of `factor`, and the body does not redefine the
/// induction variable ([`unroll_trips`] is `Some`). `factor == trip count`
/// removes the loop entirely (full unroll, the paper's headline case);
/// smaller factors keep the loop with a widened step and per-copy induction
/// offsets, which [`fold_addressing`] then folds into load/store offsets.
pub fn unroll_innermost(kernel: &Kernel, factor: u32) -> Kernel {
    assert!(factor >= 1);
    let mut k = kernel.clone();
    let mut next_reg = k.n_regs;
    let done = at_innermost_loop(&mut k.body, &mut |stmts, at| {
        unroll_at(stmts, at, factor, &mut next_reg)
    });
    assert!(done.is_some(), "kernel has no innermost loop to unroll");
    k.n_regs = next_reg;
    let k2 = fold_addressing(&k);
    k2.validate();
    k2
}

// Unrolling a loop with non-immediate bounds is a caller contract violation
// (asserted, like the divisibility requirement), not a device fault.
#[allow(clippy::panic)]
fn unroll_at(stmts: &mut Vec<Stmt>, idx: usize, factor: u32, next_reg: &mut u16) {
    let (
        Some(trips),
        Stmt::For {
            var,
            start: Operand::ImmU(s0),
            end,
            step,
            body,
        },
    ) = (loop_trips(&stmts[idx]), stmts[idx].clone())
    else {
        panic!(
            "innermost loop needs immediate bounds, a positive step and an \
             untouched induction variable to unroll"
        )
    };
    assert!(
        trips.is_multiple_of(factor as u64),
        "unroll factor {factor} must divide trip count {trips}"
    );
    if factor as u64 == trips {
        // Full unroll: splice immediate-substituted copies in place.
        let mut copies = Vec::with_capacity(body.len() * factor as usize);
        for t in 0..trips {
            let mut c = body.clone();
            substitute_uses(&mut c, var, Operand::ImmU(s0 + t as u32 * step));
            copies.extend(c);
        }
        stmts.splice(idx..=idx, copies);
    } else {
        // Partial unroll: widen the step. Copy k>0 gets fresh names for its
        // temporaries (so address folding can CSE the copy-0 address
        // computation) and addresses var + k·step through a fresh register
        // that folding absorbs into load offsets.
        let mut new_body = Vec::with_capacity(body.len() * factor as usize);
        for kcopy in 0..factor {
            let mut c = body.clone();
            if kcopy > 0 {
                let mut map = HashMap::new();
                rename_defs(&mut c, next_reg, &mut map);
                let vk = Reg(*next_reg);
                *next_reg += 1;
                substitute_uses(&mut c, var, Operand::R(vk));
                new_body.push(Stmt::I(Instr::Alu {
                    op: AluOp::IAdd,
                    dst: vk,
                    a: Operand::R(var),
                    b: Operand::ImmU(kcopy * step),
                }));
            }
            new_body.extend(c);
        }
        stmts[idx] = Stmt::For {
            var,
            start: Operand::ImmU(s0),
            end,
            step: step * factor,
            body: new_body,
        };
    }
}

/// Rename every register *defined* in `stmts` to a fresh name, rewriting
/// later uses within the same statements. Accumulators — instructions that
/// read their own destination (e.g. `acc += x`) — keep their register so the
/// reduction carries across unrolled copies.
fn rename_defs(stmts: &mut [Stmt], next_reg: &mut u16, map: &mut HashMap<Reg, Reg>) {
    let rewrite_use = |o: &mut Operand, map: &HashMap<Reg, Reg>| {
        if let Operand::R(r) = o {
            if let Some(n) = map.get(r) {
                *o = Operand::R(*n);
            }
        }
    };
    for s in stmts {
        match s {
            Stmt::I(i) => {
                // Rewrite uses through the current map.
                match i {
                    Instr::Mov { src, .. } => rewrite_use(src, map),
                    Instr::Special { .. } | Instr::Clock { .. } => {}
                    Instr::Alu { a, b, .. } => {
                        rewrite_use(a, map);
                        rewrite_use(b, map);
                    }
                    Instr::Mad { a, b, c, .. } => {
                        rewrite_use(a, map);
                        rewrite_use(b, map);
                        rewrite_use(c, map);
                    }
                    Instr::Unary { a, .. } => rewrite_use(a, map),
                    Instr::Setp { a, b, .. } => {
                        rewrite_use(a, map);
                        rewrite_use(b, map);
                    }
                    Instr::Ld { base, .. } => {
                        if let Some(n) = map.get(base) {
                            *base = *n;
                        }
                    }
                    Instr::St { srcs, base, .. } => {
                        for o in srcs {
                            rewrite_use(o, map);
                        }
                        if let Some(n) = map.get(base) {
                            *base = *n;
                        }
                    }
                }
                // Rename defs, except accumulators.
                let uses = i.uses();
                let defs = i.defs();
                let is_accumulator = defs.iter().any(|d| uses.contains(d));
                if !is_accumulator {
                    for d in defs {
                        let fresh = Reg(*next_reg);
                        *next_reg += 1;
                        map.insert(d, fresh);
                    }
                    match i {
                        Instr::Mov { dst, .. }
                        | Instr::Special { dst, .. }
                        | Instr::Alu { dst, .. }
                        | Instr::Mad { dst, .. }
                        | Instr::Unary { dst, .. }
                        | Instr::Clock { dst } => *dst = map[dst],
                        Instr::Ld { dsts, .. } => {
                            for d in dsts {
                                *d = map[d];
                            }
                        }
                        Instr::Setp { .. } | Instr::St { .. } => {}
                    }
                }
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => rename_defs(body, next_reg, map),
            Stmt::If { then, els, .. } => {
                rename_defs(then, next_reg, map);
                rename_defs(els, next_reg, map);
            }
            Stmt::Sync => {}
        }
    }
}

fn contains_loop(s: &Stmt) -> bool {
    match s {
        Stmt::For { .. } | Stmt::While { .. } => true,
        Stmt::If { then, els, .. } => {
            then.iter().any(contains_loop) || els.iter().any(contains_loop)
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Loop-invariant code motion
// ---------------------------------------------------------------------------

/// Hoist loop-invariant pure instructions out of every loop, innermost-first,
/// to fixpoint. An instruction is invariant if it is pure arithmetic
/// (`Mov`/`Alu`/`Mad`/`Unary`), none of its source registers is defined
/// inside the loop (including the induction variable), and its destination
/// is defined exactly once in the loop.
pub fn licm(kernel: &Kernel) -> Kernel {
    let mut k = kernel.clone();
    loop {
        let mut changed = false;
        licm_walk(&mut k.body, &mut changed);
        if !changed {
            break;
        }
    }
    k.validate();
    k
}

fn licm_walk(stmts: &mut Vec<Stmt>, changed: &mut bool) {
    let mut idx = 0;
    while idx < stmts.len() {
        // Recurse into nested structures first.
        match &mut stmts[idx] {
            // Recurse inside While bodies but do not hoist across their
            // boundary (conservative: the loop may retire lanes early).
            Stmt::For { body, .. } | Stmt::While { body, .. } => licm_walk(body, changed),
            Stmt::If { then, els, .. } => {
                licm_walk(then, changed);
                licm_walk(els, changed);
            }
            _ => {}
        }
        if let Stmt::For { var, body, .. } = &stmts[idx] {
            let var = *var;
            // Count in-loop definitions of every register.
            let mut def_counts: HashMap<Reg, u32> = HashMap::new();
            collect_defs(body, &mut def_counts);
            *def_counts.entry(var).or_insert(0) += 1; // induction add defines var
            let mut hoisted: Vec<Stmt> = Vec::new();
            let mut hoisted_dsts: Vec<Reg> = Vec::new();
            if let Stmt::For { body, .. } = &mut stmts[idx] {
                let mut i = 0;
                while i < body.len() {
                    let invariant = match &body[i] {
                        Stmt::I(
                            ins @ (Instr::Mov { .. }
                            | Instr::Alu { .. }
                            | Instr::Mad { .. }
                            | Instr::Unary { .. }),
                        ) => {
                            let dst_once = ins.defs().iter().all(|d| def_counts.get(d) == Some(&1));
                            let srcs_invariant = ins
                                .uses()
                                .iter()
                                .all(|u| !def_counts.contains_key(u) || hoisted_dsts.contains(u));
                            dst_once && srcs_invariant
                        }
                        _ => false,
                    };
                    if invariant {
                        let s = body.remove(i);
                        if let Stmt::I(ins) = &s {
                            hoisted_dsts.extend(ins.defs());
                            for d in ins.defs() {
                                def_counts.remove(&d);
                            }
                        }
                        hoisted.push(s);
                        *changed = true;
                    } else {
                        i += 1;
                    }
                }
            }
            for h in hoisted {
                stmts.insert(idx, h);
                idx += 1;
            }
        }
        idx += 1;
    }
}

fn collect_defs(stmts: &[Stmt], out: &mut HashMap<Reg, u32>) {
    for s in stmts {
        match s {
            Stmt::I(i) => {
                for d in i.defs() {
                    *out.entry(d).or_insert(0) += 1;
                }
            }
            Stmt::For { var, body, .. } => {
                *out.entry(*var).or_insert(0) += 1;
                collect_defs(body, out);
            }
            Stmt::While { body, .. } => collect_defs(body, out),
            Stmt::If { then, els, .. } => {
                collect_defs(then, out);
                collect_defs(els, out);
            }
            Stmt::Sync => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Address folding
// ---------------------------------------------------------------------------

/// What is known about a register inside a straight-line segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Known {
    /// A u32 constant.
    Const(u32),
    /// `reg + offset` for some canonical register.
    RegPlus(Reg, u32),
}

/// Local integer constant propagation, `mad`/`add` strength reduction and
/// load/store offset folding, followed by dead-code elimination of integer
/// arithmetic whose results became unused.
///
/// Only u32 `Mov`/`IAdd`/`IMul`/`IShl`/`Mad` are touched; f32 arithmetic is
/// left alone (see module docs). Folding is per straight-line segment
/// (boundaries: loops, ifs, syncs), so loop-carried values are never folded.
pub fn fold_addressing(kernel: &Kernel) -> Kernel {
    let mut k = kernel.clone();
    fold_walk(&mut k.body);
    dce(&mut k);
    k.validate();
    k
}

/// Value-numbering table for integer `mad` results: key = (multiplicand base
/// register, immediate scale, addend base register) → (representative
/// destination, the constant offset baked into the representative).
type MadTable = HashMap<(Reg, u32, Reg), (Reg, u32)>;

fn fold_walk(stmts: &mut [Stmt]) {
    // Recurse first.
    for s in stmts.iter_mut() {
        match s {
            Stmt::For { body, .. } | Stmt::While { body, .. } => fold_walk(body),
            Stmt::If { then, els, .. } => {
                fold_walk(then);
                fold_walk(els);
            }
            _ => {}
        }
    }
    // Then fold each straight-line run in this list.
    let mut known: HashMap<Reg, Known> = HashMap::new();
    let mut mads: MadTable = HashMap::new();
    for s in stmts.iter_mut() {
        match s {
            Stmt::I(i) => fold_instr(i, &mut known, &mut mads),
            _ => {
                known.clear(); // segment boundary
                mads.clear();
            }
        }
    }
}

fn resolve(o: Operand, known: &HashMap<Reg, Known>) -> Operand {
    if let Operand::R(r) = o {
        if let Some(Known::Const(c)) = known.get(&r) {
            return Operand::ImmU(*c);
        }
    }
    o
}

fn fold_instr(i: &mut Instr, known: &mut HashMap<Reg, Known>, mads: &mut MadTable) {
    let defs = i.defs();
    // Invalidate everything that referenced a register this instruction is
    // about to redefine (the instruction's own new knowledge is added after).
    for d in &defs {
        known.remove(d);
        known.retain(|_, v| !matches!(v, Known::RegPlus(r, _) if r == d));
        mads.retain(|(a, _, c), (rep, _)| a != d && c != d && rep != d);
    }
    match i {
        Instr::Mov { dst, src } => {
            *src = resolve(*src, known);
            match *src {
                Operand::ImmU(c) => {
                    known.insert(*dst, Known::Const(c));
                }
                Operand::R(r) => {
                    let k = known.get(&r).copied().unwrap_or(Known::RegPlus(r, 0));
                    known.insert(*dst, k);
                }
                _ => {}
            }
        }
        Instr::Alu { op, dst, a, b } if !op.is_float() => {
            *a = resolve(*a, known);
            *b = resolve(*b, known);
            let k = match (*op, *a, *b) {
                (op, Operand::ImmU(x), Operand::ImmU(y)) => Some(Known::Const(alu(op, x, y))),
                (AluOp::IAdd, Operand::R(r), Operand::ImmU(c))
                | (AluOp::IAdd, Operand::ImmU(c), Operand::R(r)) => Some(match known.get(&r) {
                    Some(Known::RegPlus(base, off)) => Known::RegPlus(*base, off.wrapping_add(c)),
                    _ => Known::RegPlus(r, c),
                }),
                _ => None,
            };
            if let Some(k) = k {
                known.insert(*dst, k);
            }
        }
        Instr::Mad {
            float: false,
            dst,
            a,
            b,
            c,
        } => {
            *a = resolve(*a, known);
            *b = resolve(*b, known);
            *c = resolve(*c, known);
            if let (Operand::ImmU(x), Operand::ImmU(y)) = (*a, *b) {
                // mad with a constant product degenerates to an add — the
                // fully-unrolled address pattern.
                let prod = x.wrapping_mul(y);
                let c2 = *c;
                *i = Instr::Alu {
                    op: AluOp::IAdd,
                    dst: *dst,
                    a: c2,
                    b: Operand::ImmU(prod),
                };
                fold_instr(i, known, mads);
                return;
            }
            if let (Operand::R(ra), Operand::ImmU(scale), Operand::R(rc)) = (*a, *b, *c) {
                // Canonicalize through reg+offset knowledge:
                // (x + ca)·s + (y + cc) = [x·s + y] + ca·s + cc.
                let (xa, ca) = match known.get(&ra) {
                    Some(Known::RegPlus(x, c)) => (*x, *c),
                    _ => (ra, 0),
                };
                let (yc, cc) = match known.get(&rc) {
                    Some(Known::RegPlus(y, c)) => (*y, *c),
                    _ => (rc, 0),
                };
                let extra = ca.wrapping_mul(scale).wrapping_add(cc);
                let key = (xa, scale, yc);
                match mads.get(&key) {
                    Some((rep, rep_off)) if *rep != *dst => {
                        // Same product computed earlier: this value is
                        // rep + (extra - rep_off); record it so loads fold.
                        known.insert(*dst, Known::RegPlus(*rep, extra.wrapping_sub(*rep_off)));
                    }
                    _ => {
                        mads.insert(key, (*dst, extra));
                    }
                }
            }
        }
        Instr::Ld { base, offset, .. } => {
            if let Some(Known::RegPlus(b, off)) = known.get(base) {
                *offset = offset.wrapping_add(*off);
                *base = *b;
            }
        }
        Instr::St {
            base, offset, srcs, ..
        } => {
            for o in srcs.iter_mut() {
                *o = resolve(*o, known);
            }
            if let Some(Known::RegPlus(b, off)) = known.get(base) {
                *offset = offset.wrapping_add(*off);
                *base = *b;
            }
        }
        _ => {}
    }
}

/// Remove pure integer instructions whose destinations are never used
/// anywhere in the kernel (the `mad`s the folding absorbed into offsets).
fn dce(kernel: &mut Kernel) {
    loop {
        let mut used: HashMap<Reg, u32> = HashMap::new();
        count_uses(&kernel.body, &mut used);
        let mut removed = false;
        dce_walk(&mut kernel.body, &used, &mut removed);
        if !removed {
            break;
        }
    }
}

fn count_uses(stmts: &[Stmt], out: &mut HashMap<Reg, u32>) {
    for s in stmts {
        match s {
            Stmt::I(i) => {
                for u in i.uses() {
                    *out.entry(u).or_insert(0) += 1;
                }
            }
            Stmt::For {
                start, end, body, ..
            } => {
                for o in [start, end] {
                    if let Operand::R(r) = o {
                        *out.entry(*r).or_insert(0) += 1;
                    }
                }
                count_uses(body, out);
            }
            Stmt::While { body, .. } => count_uses(body, out),
            Stmt::If { then, els, .. } => {
                count_uses(then, out);
                count_uses(els, out);
            }
            Stmt::Sync => {}
        }
    }
}

fn dce_walk(stmts: &mut Vec<Stmt>, used: &HashMap<Reg, u32>, removed: &mut bool) {
    stmts.retain(|s| match s {
        Stmt::I(i @ (Instr::Mov { .. } | Instr::Alu { .. } | Instr::Mad { .. })) => {
            let is_float = match i {
                Instr::Alu { op, .. } => op.is_float(),
                Instr::Mad { float, .. } => *float,
                _ => false,
            };
            let dead = !is_float && i.defs().iter().all(|d| !used.contains_key(d));
            if dead {
                *removed = true;
            }
            !dead
        }
        _ => true,
    });
    for s in stmts.iter_mut() {
        match s {
            Stmt::For { body, .. } | Stmt::While { body, .. } => dce_walk(body, used, removed),
            Stmt::If { then, els, .. } => {
                dce_walk(then, used, removed);
                dce_walk(els, used, removed);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::count::{dynamic_instructions, inner_loop_profile};
    use crate::ir::regalloc::register_demand;
    use crate::ir::KernelBuilder;

    /// A miniature of the force kernel's inner loop: addresses computed with
    /// mad, a shared-memory load, float work, an accumulator. With
    /// `eps2_hoisted` the invariant multiply sits before the loop; otherwise
    /// it is recomputed every iteration (the pre-ICM shape).
    fn mini_kernel(eps2_hoisted: bool) -> Kernel {
        let mut b = KernelBuilder::new("mini");
        let base = b.param();
        let out = b.param();
        let eps_param = b.param();
        // Copy ε out of param space, as nvcc does for values consumed in an
        // inner loop (params themselves cost no registers — see regalloc).
        let eps = b.mov(eps_param.into());
        let acc = b.mov(Operand::ImmF(0.0));
        let eps2_pre = if eps2_hoisted {
            Some(b.fmul(eps.into(), eps.into()))
        } else {
            None
        };
        b.for_loop(Operand::ImmU(0), Operand::ImmU(8), 1, |b, j| {
            let addr = b.mad_u(j.into(), Operand::ImmU(4), base.into());
            let x = b.ld(MemSpace::Shared, addr, 0, 1)[0];
            let e2 = match eps2_pre {
                Some(r) => r,
                None => b.fmul(eps.into(), eps.into()),
            };
            let y = b.fadd(x.into(), e2.into());
            b.alu_into(acc, AluOp::FAdd, acc.into(), y.into());
        });
        b.st(MemSpace::Global, out, 0, vec![acc.into()]);
        b.finish()
    }

    #[test]
    fn full_unroll_removes_loop_and_folds_addresses() {
        let k = mini_kernel(true);
        let u = unroll_innermost(&k, 8);
        assert!(inner_loop_profile(&u).is_none(), "loop should be gone");
        // No mad_u should survive: addresses are folded into load offsets.
        let mut mads = 0;
        let mut offsets = Vec::new();
        u.visit_stmts(&mut |s| {
            if let Stmt::I(Instr::Mad { float: false, .. }) = s {
                mads += 1;
            }
            if let Stmt::I(Instr::Ld { offset, .. }) = s {
                offsets.push(*offset);
            }
        });
        assert_eq!(mads, 0, "address mads must fold away");
        assert_eq!(
            offsets,
            vec![0, 4, 8, 12, 16, 20, 24, 28],
            "hard-coded offsets"
        );
    }

    #[test]
    fn full_unroll_reduces_dynamic_instructions() {
        let k = mini_kernel(true);
        let u = unroll_innermost(&k, 8);
        let params = &[0u32, 0, 0];
        let before = dynamic_instructions(&k, params).unwrap();
        let after = dynamic_instructions(&u, params).unwrap();
        // Per iteration: mad + overhead(3) gone, minus the one-time init mov.
        assert_eq!(before - after, 8 * 4 + 1);
    }

    #[test]
    fn full_unroll_frees_the_induction_register() {
        let k = mini_kernel(true);
        let u = unroll_innermost(&k, 8);
        let before = register_demand(&k).max_live;
        let after = register_demand(&u).max_live;
        assert!(
            before > after,
            "unrolling must reduce register pressure ({before} -> {after})"
        );
    }

    #[test]
    fn partial_unroll_preserves_loop_and_divides_overhead() {
        let k = mini_kernel(true);
        let u = unroll_innermost(&k, 4);
        let p = inner_loop_profile(&u).expect("loop still present");
        assert_eq!(p.overhead_instrs, 3);
        let params = &[0u32, 0, 0];
        let d_rolled = dynamic_instructions(&k, params).unwrap();
        let d_partial = dynamic_instructions(&u, params).unwrap();
        assert!(d_partial < d_rolled);
        // Overhead now paid twice (8/4) instead of 8 times.
        let full = dynamic_instructions(&unroll_innermost(&k, 8), params).unwrap();
        assert!(d_partial > full);
    }

    #[test]
    #[should_panic]
    fn non_dividing_factor_rejected() {
        unroll_innermost(&mini_kernel(true), 3);
    }

    /// A kernel of `body` with registers 0..4 (register 0 the parameter)
    /// and one predicate.
    fn kernel_of(body: Vec<Stmt>) -> Kernel {
        Kernel {
            name: "select".into(),
            n_params: 1,
            n_regs: 4,
            n_preds: 1,
            smem_bytes: 0,
            body,
        }
    }

    /// `for r<var> in 0..end step 1 { body }`.
    fn counted(var: u16, end: Operand, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            var: Reg(var),
            start: Operand::ImmU(0),
            end,
            step: 1,
            body,
        }
    }

    fn set(dst: u16) -> Stmt {
        Stmt::I(Instr::Mov {
            dst: Reg(dst),
            src: Operand::ImmU(7),
        })
    }

    #[test]
    fn no_unroll_target_for_register_bounds() {
        let k = kernel_of(vec![counted(1, Operand::R(Reg(0)), vec![set(2)])]);
        assert_eq!(unroll_trips(&k), None);
    }

    #[test]
    fn no_unroll_target_when_the_body_redefines_the_induction_variable() {
        let k = kernel_of(vec![counted(1, Operand::ImmU(8), vec![set(1)])]);
        assert_eq!(unroll_trips(&k), None);
    }

    #[test]
    fn the_loop_in_an_if_arm_inside_a_loop_is_the_target() {
        let inner = counted(2, Operand::ImmU(6), vec![set(3)]);
        let k = kernel_of(vec![counted(
            1,
            Operand::ImmU(4),
            vec![Stmt::If {
                pred: Pred(0),
                negate: false,
                then: vec![],
                els: vec![inner],
            }],
        )]);
        assert_eq!(unroll_trips(&k), Some(6));
        // Unrolling it fully leaves the outer loop as the next target.
        assert_eq!(unroll_trips(&unroll_innermost(&k, 6)), Some(4));
    }

    #[test]
    fn licm_hoists_the_invariant_multiply() {
        let k = mini_kernel(false); // eps² recomputed in-loop
        let h = licm(&k);
        // The in-loop fmul(eps,eps) moves out: loop body shrinks by one.
        let before = inner_loop_profile(&k).unwrap().body_instrs;
        let after = inner_loop_profile(&h).unwrap().body_instrs;
        assert_eq!(before - after, 1);
        // And register pressure drops by one (eps no longer live in loop).
        let rb = register_demand(&k).max_live;
        let ra = register_demand(&h).max_live;
        assert_eq!(rb - ra, 1);
    }

    #[test]
    fn licm_does_not_touch_variant_code() {
        let k = mini_kernel(true); // eps² already hoisted by construction
        let h = licm(&k);
        assert_eq!(
            inner_loop_profile(&k).unwrap().body_instrs,
            inner_loop_profile(&h).unwrap().body_instrs
        );
    }

    #[test]
    fn fold_keeps_semantics_simple_case() {
        // mov a, 8; mad r, a, 4, base; ld [r] == ld [base+32]
        let mut b = KernelBuilder::new("fold");
        let base = b.param();
        let a = b.mov(Operand::ImmU(8));
        let r = b.mad_u(a.into(), Operand::ImmU(4), base.into());
        let _v = b.ld(MemSpace::Global, r, 0, 1);
        let k = fold_addressing(&b.finish());
        let mut lds = Vec::new();
        k.visit_stmts(&mut |s| {
            if let Stmt::I(Instr::Ld { base, offset, .. }) = s {
                lds.push((*base, *offset));
            }
        });
        assert_eq!(lds, vec![(base, 32)]);
        // The mov and mad are dead and removed.
        let mut n = 0;
        k.visit_stmts(&mut |_| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn fold_respects_segment_boundaries() {
        // Knowledge must not flow across a loop boundary: the loop-carried
        // induction value is not a constant.
        let mut b = KernelBuilder::new("seg");
        let base = b.param();
        b.for_loop(Operand::ImmU(0), Operand::ImmU(4), 1, |b, j| {
            let addr = b.mad_u(j.into(), Operand::ImmU(4), base.into());
            let _ = b.ld(MemSpace::Global, addr, 0, 1);
        });
        let k = fold_addressing(&b.finish());
        let mut mads = 0;
        k.visit_stmts(&mut |s| {
            if let Stmt::I(Instr::Mad { float: false, .. }) = s {
                mads += 1;
            }
        });
        assert_eq!(mads, 1, "in-loop mad with live induction var must survive");
    }

    #[test]
    fn dce_never_removes_float_ops() {
        let mut b = KernelBuilder::new("fp");
        let x = b.mov(Operand::ImmF(1.0));
        let _dead_float = b.fmul(x.into(), x.into());
        let k = fold_addressing(&b.finish());
        let mut fmuls = 0;
        k.visit_stmts(&mut |s| {
            if let Stmt::I(Instr::Alu {
                op: AluOp::FMul, ..
            }) = s
            {
                fmuls += 1;
            }
        });
        assert_eq!(fmuls, 1);
    }
}
