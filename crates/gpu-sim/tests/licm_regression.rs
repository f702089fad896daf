//! Regression harness for the historical LICM multi-hoist bug: an earlier
//! revision inserted hoisted statements in *reverse* order, so a hoisted
//! instruction that consumed another hoisted instruction's result read its
//! pre-loop (zero) value. The translation validator exists to make that
//! class of bug impossible to ship — this test reintroduces the bug by
//! hand and demands a counterexample fault site, not a proof.

use gpu_sim::analyze::verify::{verify_equiv, verify_pass, PassId, VerifyConfig, VerifyResult};
use gpu_sim::ir::passes::licm;
use gpu_sim::ir::{AluOp, Kernel, KernelBuilder, MemSpace, Operand, Stmt};

/// A kernel whose loop carries two *dependent* invariants: `a = p·p` and
/// `c = a + p`. Correct LICM hoists them in order; the buggy one reversed
/// them.
fn two_invariant_kernel() -> Kernel {
    let mut b = KernelBuilder::new("licm_two_invariants");
    let out = b.param();
    let p = b.param();
    let tid = b.global_thread_index();
    let acc = b.mov(Operand::ImmF(0.0));
    b.for_loop(Operand::ImmU(0), Operand::ImmU(4), 1, |b, _j| {
        let a = b.fmul(p.into(), p.into());
        let c = b.fadd(a.into(), p.into());
        b.alu_into(acc, AluOp::FAdd, acc.into(), c.into());
    });
    let oaddr = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
    b.st(MemSpace::Global, oaddr, 0, vec![acc.into()]);
    b.finish()
}

/// Reapply the historical bug: run the real (fixed) LICM, then swap the two
/// hoisted statements directly before the loop — exactly the reversed
/// insertion order the buggy pass produced.
fn buggy_licm(k: &Kernel) -> Kernel {
    let mut out = licm(k);
    let for_at = out
        .body
        .iter()
        .position(|s| matches!(s, Stmt::For { .. }))
        .expect("the loop survives LICM");
    assert!(for_at >= 2, "LICM must have hoisted both invariants");
    assert!(
        matches!(out.body[for_at - 1], Stmt::I(_)) && matches!(out.body[for_at - 2], Stmt::I(_)),
        "the two statements before the loop are the hoisted invariants"
    );
    out.body.swap(for_at - 1, for_at - 2);
    out
}

#[test]
fn correct_licm_is_proved_and_the_reversed_hoist_is_refuted() {
    let k = two_invariant_kernel();
    let cfg = VerifyConfig::new(2, 32, vec![0x20_0000, 1.5f32.to_bits()]);

    // The shipped pass proves.
    let good = verify_pass(&k, PassId::Licm, &cfg);
    assert!(good.is_proved(), "fixed LICM must verify: {good}");

    // The reintroduced bug is refuted with a concrete counterexample site.
    let bad = buggy_licm(&k);
    match verify_equiv(&k, &bad, &cfg) {
        VerifyResult::Mismatch { site, detail } => {
            assert_eq!(site.kernel.as_deref(), Some("licm_two_invariants"));
            assert_eq!(site.block, Some(0), "first divergence is in block 0");
            assert_eq!(site.thread, Some(0), "…on thread 0");
            assert!(
                site.instruction.is_some(),
                "the faulting store is pinpointed"
            );
            assert!(
                detail.contains("store"),
                "the counterexample explains the diverging store: {detail}"
            );
        }
        other => panic!("the reversed multi-hoist must be refuted, got: {other}"),
    }
}

#[test]
fn the_counterexample_renders_both_symbolic_values() {
    let k = two_invariant_kernel();
    let cfg = VerifyConfig::new(1, 32, vec![0x20_0000, 1.5f32.to_bits()]);
    let bad = buggy_licm(&k);
    let VerifyResult::Mismatch { detail, .. } = verify_equiv(&k, &bad, &cfg) else {
        panic!("the reversed multi-hoist must be refuted");
    };
    // The detail names the address and shows the two diverging terms so the
    // report is actionable without re-running anything.
    assert!(
        detail.contains("0x"),
        "counterexample shows the store address: {detail}"
    );
}

#[test]
fn the_reversed_hoist_counterexample_is_pinned() {
    let k = two_invariant_kernel();
    let cfg = VerifyConfig::new(2, 32, vec![0x20_0000, 1.5f32.to_bits()]);
    let VerifyResult::Mismatch { site, detail } = verify_equiv(&k, &buggy_licm(&k), &cfg) else {
        panic!("the reversed multi-hoist must be refuted");
    };
    assert_eq!(
        (
            site.kernel.as_deref(),
            site.block,
            site.thread,
            site.instruction
        ),
        (Some("licm_two_invariants"), Some(0), Some(0), Some(13))
    );
    assert_eq!(
        detail,
        "event 0: word 0 stored to Global@0x200000 differs: 0x41700000 vs 0x40c00000"
    );
}
