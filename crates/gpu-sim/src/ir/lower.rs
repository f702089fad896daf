//! Lowering structured kernels to a linear executable form.
//!
//! A [`Kernel`]'s structured body is compiled into a [`Program`]: an arena of
//! instruction sequences with explicit uniform back-branches for loops and
//! nested masked regions for `If`. A `For` loop lowers to the canonical
//! bottom-tested form —
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
//!
//! [`lower()`] then compiles the sequences once more into the flat tape both
//! execution engines run (`exec::tape`), and keeps it in the [`Program`].

use super::*;
use crate::exec::tape::{compile, Tape};
use crate::fault::{DeviceError, DeviceResult, FaultKind};

/// A lowered statement.
#[derive(Debug, Clone, PartialEq)]
pub enum LinStmt {
    /// A plain instruction.
    I(Instr),
    /// Uniform conditional branch within the same sequence: taken when the
    /// predicate (xor `negate`) holds. All active threads of the warp must
    /// agree (checked at execution).
    Bra {
        /// Controlling predicate.
        pred: Pred,
        /// Invert the predicate sense.
        negate: bool,
        /// Index of the branch target within the same sequence.
        target: usize,
    },
    /// Masked structured conditional: sub-sequences execute under the thread
    /// mask; divergence serializes both paths.
    IfMasked {
        /// Controlling predicate.
        pred: Pred,
        /// Invert the predicate sense.
        negate: bool,
        /// Arena index of the taken-path sequence.
        then_seq: usize,
        /// Arena index of the else-path sequence.
        else_seq: usize,
    },
    /// Block barrier.
    Sync,
    /// Divergent masked loop: the sub-sequence re-executes with the mask
    /// narrowed to the lanes whose predicate still holds, until none remain.
    WhileMasked {
        /// Continuation predicate (set inside the body).
        pred: Pred,
        /// Invert the predicate sense.
        negate: bool,
        /// Arena index of the body sequence.
        body_seq: usize,
    },
}

/// A lowered, executable kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Kernel name.
    pub name: String,
    /// Sequence arena; `seqs[root]` is the kernel body.
    pub seqs: Vec<Vec<LinStmt>>,
    /// Index of the entry sequence.
    pub root: usize,
    /// Number of launch parameters (bound to `Reg(0)..`).
    pub n_params: u16,
    /// Total 32-bit virtual registers.
    pub n_regs: u16,
    /// Total predicate registers (kernel predicates + one per lowered loop).
    pub n_preds: u16,
    /// Static shared memory bytes per block.
    pub smem_bytes: u32,
    /// The sequences compiled for the engines, or why they are malformed.
    tape: Result<Tape, String>,
}

struct Lowerer {
    seqs: Vec<Vec<LinStmt>>,
    next_pred: u16,
}

impl Lowerer {
    fn lower_body(&mut self, stmts: &[Stmt]) -> usize {
        let id = self.seqs.len();
        self.seqs.push(Vec::new());
        let mut out = Vec::new();
        self.lower_into(stmts, &mut out);
        self.seqs[id] = out;
        id
    }

    fn lower_into(&mut self, stmts: &[Stmt], out: &mut Vec<LinStmt>) {
        for s in stmts {
            match s {
                Stmt::I(i) => out.push(LinStmt::I(i.clone())),
                Stmt::Sync => out.push(LinStmt::Sync),
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    out.push(LinStmt::I(Instr::Mov {
                        dst: *var,
                        src: *start,
                    }));
                    let top = out.len();
                    self.lower_into(body, out);
                    out.push(LinStmt::I(Instr::Alu {
                        op: AluOp::IAdd,
                        dst: *var,
                        a: Operand::R(*var),
                        b: Operand::ImmU(*step),
                    }));
                    let p = Pred(self.next_pred);
                    self.next_pred += 1;
                    out.push(LinStmt::I(Instr::Setp {
                        dst: p,
                        cmp: CmpOp::ULt,
                        a: Operand::R(*var),
                        b: *end,
                    }));
                    out.push(LinStmt::Bra {
                        pred: p,
                        negate: false,
                        target: top,
                    });
                }
                Stmt::If {
                    pred,
                    negate,
                    then,
                    els,
                } => {
                    let then_seq = self.lower_body(then);
                    let else_seq = self.lower_body(els);
                    out.push(LinStmt::IfMasked {
                        pred: *pred,
                        negate: *negate,
                        then_seq,
                        else_seq,
                    });
                }
                Stmt::While { pred, negate, body } => {
                    let body_seq = self.lower_body(body);
                    out.push(LinStmt::WhileMasked {
                        pred: *pred,
                        negate: *negate,
                        body_seq,
                    });
                }
            }
        }
    }
}

/// Lower a kernel to its executable [`Program`].
pub fn lower(kernel: &Kernel) -> Program {
    kernel.validate();
    let mut l = Lowerer {
        seqs: Vec::new(),
        next_pred: kernel.n_preds,
    };
    // Reserve the root slot first so nested sequences come after it.
    let root = l.lower_body(&kernel.body);
    let tape = compile(
        &l.seqs,
        root,
        kernel.n_params,
        kernel.n_regs,
        l.next_pred,
        kernel.smem_bytes,
    );
    Program {
        name: kernel.name.clone(),
        seqs: l.seqs,
        root,
        n_params: kernel.n_params,
        n_regs: kernel.n_regs,
        n_preds: l.next_pred,
        smem_bytes: kernel.smem_bytes,
        tape,
    }
}

impl Program {
    /// The tape the engines run. A program that failed to compile (a
    /// load/store width other than 1, 2 or 4 words, a register or predicate
    /// index out of range, a branch target past its sequence) is a
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
    use crate::ir::KernelBuilder;

    #[test]
    fn straight_line_lowers_one_to_one() {
        let mut b = KernelBuilder::new("sl");
        let r = b.mov(Operand::ImmU(1));
        b.iadd(r.into(), Operand::ImmU(2));
        let p = lower(&b.finish());
        assert_eq!(p.seqs.len(), 1);
        assert_eq!(p.seqs[p.root].len(), 2);
    }

    #[test]
    fn for_loop_lowers_to_bottom_tested_form() {
        let mut b = KernelBuilder::new("loop");
        b.for_loop(Operand::ImmU(0), Operand::ImmU(4), 1, |b, _i| {
            b.mov(Operand::ImmF(1.0));
        });
        let k = b.finish();
        let p = lower(&k);
        let seq = &p.seqs[p.root];
        // mov var, body-mov, add, setp, bra
        assert_eq!(seq.len(), 5);
        assert!(matches!(seq[0], LinStmt::I(Instr::Mov { .. })));
        assert!(matches!(
            seq[2],
            LinStmt::I(Instr::Alu {
                op: AluOp::IAdd,
                ..
            })
        ));
        assert!(matches!(seq[3], LinStmt::I(Instr::Setp { .. })));
        match seq[4] {
            LinStmt::Bra { target, .. } => assert_eq!(target, 1),
            ref other => panic!("expected Bra, got {other:?}"),
        }
        // The loop predicate was allocated during lowering.
        assert_eq!(p.n_preds, k.n_preds + 1);
    }

    #[test]
    fn per_iteration_overhead_is_exactly_three_instructions() {
        // The claim the unrolling analysis rests on.
        let mut b = KernelBuilder::new("ovh");
        b.for_loop(Operand::ImmU(0), Operand::ImmU(8), 1, |b, _| {
            b.mov(Operand::ImmF(0.0));
        });
        let p = lower(&b.finish());
        let seq = &p.seqs[p.root];
        let body_instrs = 1; // the single mov
        let non_body = seq.len() - body_instrs - 1; // minus loop-init mov
        assert_eq!(non_body, 3, "add + setp + bra");
    }

    #[test]
    fn if_lowers_to_masked_subsequences() {
        let mut b = KernelBuilder::new("if");
        let x = b.mov(Operand::ImmU(1));
        let pr = b.setp(CmpOp::ULt, x.into(), Operand::ImmU(5));
        b.if_else(
            pr,
            |b| {
                b.mov(Operand::ImmU(2));
            },
            |b| {
                b.mov(Operand::ImmU(3));
            },
        );
        let p = lower(&b.finish());
        let root = &p.seqs[p.root];
        match root.last().unwrap() {
            LinStmt::IfMasked {
                then_seq, else_seq, ..
            } => {
                assert_eq!(p.seqs[*then_seq].len(), 1);
                assert_eq!(p.seqs[*else_seq].len(), 1);
            }
            other => panic!("expected IfMasked, got {other:?}"),
        }
    }

    #[test]
    fn nested_loops_lower_into_one_sequence() {
        let mut b = KernelBuilder::new("nest");
        b.for_loop(Operand::ImmU(0), Operand::ImmU(2), 1, |b, _| {
            b.for_loop(Operand::ImmU(0), Operand::ImmU(3), 1, |b, _| {
                b.mov(Operand::ImmF(0.0));
            });
        });
        let p = lower(&b.finish());
        assert_eq!(p.seqs.len(), 1, "loops need no sub-sequences");
        // outer mov + (inner mov + body + 3) + 3
        assert_eq!(p.seqs[p.root].len(), 1 + 1 + 1 + 3 + 3);
    }
}
