//! Lowering structured kernels to the warp tape.
//!
//! [`lower()`] compiles a [`Kernel`]'s structured body in one recursive pass
//! into the flat tape both execution engines run (`exec::tape`), and keeps it
//! in a [`Program`]. An `If` becomes `If … ThenEnd … IfEnd` and a `While`
//! becomes `While … WhileBack`, masked regions over a per-warp mask stack. A
//! `For` loop lowers to the canonical bottom-tested form —
//!
//! ```text
//!     mov   var, start
//! top:
//!     ...body...
//!     add   var, var, step      ; induction add        ┐
//!     setp  p, var < end        ; compare              ├ the 3-instruction
//!     bra   p, top              ; jump                 ┘ overhead of Sec. IV-A
//! ```
//!
//! — which is exactly the per-iteration overhead (one add, one compare, one
//! jump, plus the address add inside the body) the paper's unrolling analysis
//! eliminates. The lowered form executes at least one iteration; all loops in
//! this workspace have statically positive trip counts, and a branch whose
//! predicate differs across the active lanes of a warp fails the launch with
//! a typed [`FaultKind::DivergentBranch`].

use super::Kernel;
use crate::exec::tape::{compile, Tape};
use crate::fault::{DeviceError, DeviceResult, FaultKind};

/// A lowered, executable kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Kernel name.
    pub name: String,
    /// The compiled tape, or why the kernel is malformed.
    tape: Result<Tape, String>,
}

/// Lower a kernel to its executable [`Program`]. A malformed kernel lowers
/// too; every launch of it fails (see [`Program`]'s tape).
pub fn lower(kernel: &Kernel) -> Program {
    Program {
        name: kernel.name.clone(),
        tape: compile(kernel),
    }
}

impl Program {
    /// The tape the engines run. A kernel that failed to compile (a
    /// load/store width other than 1, 2 or 4 words, a register or predicate
    /// index out of range, more parameters than registers) is a
    /// [`FaultKind::BadLaunch`] naming the kernel.
    pub(crate) fn tape(&self) -> DeviceResult<&Tape> {
        self.tape.as_ref().map_err(|reason| {
            DeviceError::new(FaultKind::BadLaunch {
                reason: format!("malformed program: {reason}"),
            })
            .with_kernel(&self.name)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tape::{Inst, Op};
    use crate::ir::{AluOp, KernelBuilder, Operand};

    /// The ops `lower` compiles `k` to, without the final `Exit`.
    fn ops(k: &Kernel) -> Vec<Op> {
        let mut ops = lower(k).tape().unwrap().ops.clone();
        assert_eq!(ops.pop(), Some(Op::Exit));
        ops
    }

    #[test]
    fn straight_line_lowers_one_to_one() {
        let mut b = KernelBuilder::new("sl");
        let r = b.mov(Operand::ImmU(1));
        b.iadd(r.into(), Operand::ImmU(2));
        let ops = ops(&b.finish());
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|op| matches!(op, Op::Inst(_))));
    }

    #[test]
    fn for_loop_lowers_to_bottom_tested_form() {
        let mut b = KernelBuilder::new("loop");
        b.for_loop(Operand::ImmU(0), Operand::ImmU(4), 1, |b, _i| {
            b.mov(Operand::ImmF(1.0));
        });
        let k = b.finish();
        let ops = ops(&k);
        // mov var, body-mov, add, setp, bra
        assert_eq!(ops.len(), 5);
        assert!(matches!(ops[0], Op::Inst(Inst::Mov { .. })));
        assert!(matches!(
            ops[2],
            Op::Inst(Inst::Alu {
                op: AluOp::IAdd,
                ..
            })
        ));
        let Op::Inst(Inst::Setp { dst: pred, .. }) = ops[3] else {
            panic!("expected Setp, got {:?}", ops[3]);
        };
        // The loop's predicate comes after the kernel's; the latch tests it
        // and jumps back to the first op of the body.
        assert_eq!(pred, k.n_preds);
        assert_eq!(
            ops[4],
            Op::Bra {
                pred,
                negate: false,
                target: 1
            }
        );
        assert_eq!(lower(&k).tape().unwrap().n_preds, k.n_preds + 1);
    }

    #[test]
    fn per_iteration_overhead_is_exactly_three_instructions() {
        // The claim the unrolling analysis rests on.
        let mut b = KernelBuilder::new("ovh");
        b.for_loop(Operand::ImmU(0), Operand::ImmU(8), 1, |b, _| {
            b.mov(Operand::ImmF(0.0));
        });
        let ops = ops(&b.finish());
        let body_instrs = 1; // the single mov
        let non_body = ops.len() - body_instrs - 1; // minus loop-init mov
        assert_eq!(non_body, 3, "add + setp + bra");
    }

    #[test]
    fn nested_loops_lower_into_one_sequence() {
        let mut b = KernelBuilder::new("nest");
        b.for_loop(Operand::ImmU(0), Operand::ImmU(2), 1, |b, _| {
            b.for_loop(Operand::ImmU(0), Operand::ImmU(3), 1, |b, _| {
                b.mov(Operand::ImmF(0.0));
            });
        });
        let k = b.finish();
        let ops = ops(&k);
        // outer mov + (inner mov + body + 3) + 3, with no masked regions
        assert_eq!(ops.len(), 1 + 1 + 1 + 3 + 3);
        assert!(ops
            .iter()
            .all(|op| matches!(op, Op::Inst(_) | Op::Bra { .. })));
        // One predicate per loop, the inner one first; each latch jumps to
        // its own body.
        let bra = |pred, target| Op::Bra {
            pred,
            negate: false,
            target,
        };
        assert_eq!(ops[5], bra(k.n_preds, 2));
        assert_eq!(ops[8], bra(k.n_preds + 1, 1));
        assert_eq!(lower(&k).tape().unwrap().n_preds, k.n_preds + 2);
    }
}
