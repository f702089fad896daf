//! The warp tape: one flat array of ops that both execution engines run,
//! compiled from a kernel's structured body by
//! [`lower`](crate::ir::lower::lower) and kept in its
//! [`Program`](crate::ir::lower::Program).
//!
//! Compilation resolves everything a per-statement walk would look up while
//! executing:
//!
//! * **operands** become register-file rows. Virtual registers keep their
//!   index; every distinct immediate gets a row of its own after the last
//!   register, splatted across the 32 lanes when a block starts, so an op
//!   reads its operands as plain `[u32; 32]` rows;
//! * **control flow** becomes ops with absolute tape targets. A `For`'s
//!   latch `Bra` jumps back to the first op of its body; an `If` is
//!   `If … ThenEnd … IfEnd` and a `While` is `While … WhileBack`, both
//!   driven by a per-warp stack of lane masks whose depth is the kernel's
//!   deepest nesting;
//! * **scoreboard inputs**: each op's register reads ([`Uses`]) are listed
//!   once for the timed engine.
//!
//! Compilation also validates the kernel (access widths, register and
//! predicate indices, at most `n_regs` parameters). A malformed kernel
//! keeps its error in the [`Program`](crate::ir::lower::Program) and every
//! launch of it fails with a typed
//! [`FaultKind::BadLaunch`](crate::fault::FaultKind::BadLaunch) instead of
//! reaching the engines.

use crate::coalesce::AccessWidth;
use crate::ir::{
    AluOp, CmpOp, Instr, Kernel, MemSpace, Operand, Pred, Reg, SpecialReg, Stmt, UnaryOp,
};
use std::collections::HashMap;

/// A register-file row: a virtual register (`< n_regs`) or a splatted
/// immediate (`>= n_regs`).
pub type Row = u16;

/// A straight-line instruction with its operands resolved to rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Inst {
    /// `dst = src`
    Mov {
        /// Destination register.
        dst: Row,
        /// Source row.
        src: Row,
    },
    /// `dst = special register`
    Special {
        /// Destination register.
        dst: Row,
        /// Which special register.
        sr: SpecialReg,
    },
    /// `dst = a <op> b`
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Row,
        /// Left operand.
        a: Row,
        /// Right operand.
        b: Row,
    },
    /// `dst = a*b + c`
    Mad {
        /// f32 (`true`) or wrapping u32 (`false`).
        float: bool,
        /// Destination register.
        dst: Row,
        /// Multiplicand.
        a: Row,
        /// Multiplier.
        b: Row,
        /// Addend.
        c: Row,
    },
    /// `dst = op(a)`
    Unary {
        /// Operation.
        op: UnaryOp,
        /// Destination register.
        dst: Row,
        /// Operand.
        a: Row,
    },
    /// `pred[dst] = a <cmp> b`
    Setp {
        /// Comparison.
        cmp: CmpOp,
        /// Destination predicate.
        dst: u16,
        /// Left operand.
        a: Row,
        /// Right operand.
        b: Row,
    },
    /// Load `width / 4` consecutive words into `dsts[..width / 4]`.
    Ld {
        /// Memory space.
        space: MemSpace,
        /// Access width.
        width: AccessWidth,
        /// Destination registers.
        dsts: [Row; 4],
        /// Register holding the byte base address.
        base: Row,
        /// Immediate byte offset.
        offset: u32,
    },
    /// Store `srcs[..width / 4]` to consecutive words.
    St {
        /// Memory space.
        space: MemSpace,
        /// Access width.
        width: AccessWidth,
        /// Source rows.
        srcs: [Row; 4],
        /// Register holding the byte base address.
        base: Row,
        /// Immediate byte offset.
        offset: u32,
    },
    /// `dst = clock()`
    Clock {
        /// Destination register.
        dst: Row,
    },
}

/// One tape entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// A straight-line instruction; the warp then moves to the next op.
    Inst(Inst),
    /// Uniform branch: to `target` when the predicate (xor `negate`) holds
    /// on every active lane, to the next op when it holds on none.
    Bra {
        /// Controlling predicate.
        pred: u16,
        /// Invert the predicate sense.
        negate: bool,
        /// Tape index of the target.
        target: u32,
    },
    /// Masked conditional: push the mask, run the then-arm under the lanes
    /// where the predicate holds, then the else-arm (at `else_pc`) under the
    /// rest; an arm with no lanes is skipped.
    If {
        /// Controlling predicate.
        pred: u16,
        /// Invert the predicate sense.
        negate: bool,
        /// Tape index of the else-arm's first op.
        else_pc: u32,
    },
    /// End of a then-arm: run the pending else-arm, or leave the `If`.
    ThenEnd {
        /// Tape index just past the matching [`Op::IfEnd`].
        end_pc: u32,
    },
    /// End of an else-arm: pop the mask pushed by the `If`.
    IfEnd,
    /// Divergent loop entry: push the mask; the body follows.
    While,
    /// Bottom of a divergent loop pass: lanes whose predicate still holds
    /// run the body again from `body`; with none left, pop the mask.
    WhileBack {
        /// Continuation predicate.
        pred: u16,
        /// Invert the predicate sense.
        negate: bool,
        /// Tape index of the body's first op.
        body: u32,
    },
    /// Block barrier.
    Sync,
    /// End of the kernel.
    Exit,
}

/// The registers one op reads, for the timed engine's scoreboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Uses {
    n: u8,
    regs: [Row; 5],
}

impl Uses {
    /// The register rows read (immediate rows excluded).
    pub fn regs(&self) -> &[Row] {
        &self.regs[..self.n as usize]
    }

    fn push(&mut self, r: Row, n_regs: u16) {
        if r < n_regs {
            self.regs[self.n as usize] = r;
            self.n += 1;
        }
    }
}

/// A kernel compiled for the engines. Built once by
/// [`lower`](crate::ir::lower::lower) and kept in the `Program`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tape {
    /// The ops; execution starts at 0 and ends at an [`Op::Exit`].
    pub(crate) ops: Vec<Op>,
    /// Register reads of each op (parallel to `ops`; empty for control ops).
    pub(crate) uses: Vec<Uses>,
    /// Launch parameters, bound to registers `0..n_params`.
    pub(crate) n_params: u16,
    /// Virtual registers: rows `0..n_regs`.
    pub(crate) n_regs: u16,
    /// Immediate values: row `n_regs + i` holds `consts[i]` on every lane.
    pub(crate) consts: Vec<u32>,
    /// Predicate registers.
    pub(crate) n_preds: u16,
    /// Mask-stack depth: the deepest `If`/`While` nesting.
    pub(crate) depth: usize,
    /// Static shared memory bytes per block.
    pub(crate) smem_bytes: u32,
}

impl Tape {
    /// Register-file rows per warp: registers plus immediates.
    pub(crate) fn rows(&self) -> usize {
        self.n_regs as usize + self.consts.len()
    }
}

struct Compiler {
    n_regs: u16,
    n_preds: u16,
    next_pred: u16,
    ops: Vec<Op>,
    uses: Vec<Uses>,
    consts: Vec<u32>,
    const_rows: HashMap<u32, Row>,
    depth: usize,
}

/// Compile a kernel's structured body into a tape, or say why the kernel is
/// malformed. Each `For` gets the predicate `kernel.n_preds + k`, allocated
/// after its body in depth-first order.
pub(crate) fn compile(kernel: &Kernel) -> Result<Tape, String> {
    if kernel.n_params > kernel.n_regs {
        return Err(format!(
            "n_params = {} beyond n_regs = {}",
            kernel.n_params, kernel.n_regs
        ));
    }
    let mut loops = 0usize;
    kernel.visit_stmts(&mut |s| loops += usize::from(matches!(s, Stmt::For { .. })));
    let n_preds = u16::try_from(kernel.n_preds as usize + loops)
        .map_err(|_| "too many predicate registers".to_string())?;
    let mut c = Compiler {
        n_regs: kernel.n_regs,
        n_preds,
        next_pred: kernel.n_preds,
        ops: Vec::new(),
        uses: Vec::new(),
        consts: Vec::new(),
        const_rows: HashMap::new(),
        depth: 0,
    };
    c.body(&kernel.body, 0)?;
    c.push(Op::Exit, Uses::default());
    Ok(Tape {
        ops: c.ops,
        uses: c.uses,
        n_params: kernel.n_params,
        n_regs: kernel.n_regs,
        consts: c.consts,
        n_preds,
        depth: c.depth,
        smem_bytes: kernel.smem_bytes,
    })
}

impl Compiler {
    fn pc(&self) -> u32 {
        self.ops.len() as u32
    }

    fn push(&mut self, op: Op, uses: Uses) {
        self.ops.push(op);
        self.uses.push(uses);
    }

    /// Emit `stmts` at mask-stack depth `depth`. The caller pushes the op
    /// that closes them (`ThenEnd`, `IfEnd`, `WhileBack` or `Exit`).
    fn body(&mut self, stmts: &[Stmt], depth: usize) -> Result<(), String> {
        self.depth = self.depth.max(depth);
        for stmt in stmts {
            match stmt {
                Stmt::I(i) => self.inst(i)?,
                Stmt::Sync => self.push(Op::Sync, Uses::default()),
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    self.inst(&Instr::Mov {
                        dst: *var,
                        src: *start,
                    })?;
                    let top = self.pc();
                    self.body(body, depth)?;
                    self.inst(&Instr::Alu {
                        op: AluOp::IAdd,
                        dst: *var,
                        a: Operand::R(*var),
                        b: Operand::ImmU(*step),
                    })?;
                    let pred = self.next_pred;
                    self.next_pred += 1;
                    self.inst(&Instr::Setp {
                        dst: Pred(pred),
                        cmp: CmpOp::ULt,
                        a: Operand::R(*var),
                        b: *end,
                    })?;
                    self.push(
                        Op::Bra {
                            pred,
                            negate: false,
                            target: top,
                        },
                        Uses::default(),
                    );
                }
                Stmt::If {
                    pred,
                    negate,
                    then,
                    els,
                } => {
                    let pred = self.pred(*pred)?;
                    let at_if = self.ops.len();
                    self.push(Op::Exit, Uses::default());
                    self.body(then, depth + 1)?;
                    let at_then_end = self.ops.len();
                    self.push(Op::Exit, Uses::default());
                    let else_pc = self.pc();
                    self.body(els, depth + 1)?;
                    self.push(Op::IfEnd, Uses::default());
                    let end_pc = self.pc();
                    self.ops[at_if] = Op::If {
                        pred,
                        negate: *negate,
                        else_pc,
                    };
                    self.ops[at_then_end] = Op::ThenEnd { end_pc };
                }
                Stmt::While { pred, negate, body } => {
                    let pred = self.pred(*pred)?;
                    self.push(Op::While, Uses::default());
                    let start = self.pc();
                    self.body(body, depth + 1)?;
                    self.push(
                        Op::WhileBack {
                            pred,
                            negate: *negate,
                            body: start,
                        },
                        Uses::default(),
                    );
                }
            }
        }
        Ok(())
    }

    fn reg(&self, r: Reg) -> Result<Row, String> {
        if r.0 < self.n_regs {
            Ok(r.0)
        } else {
            Err(format!("register r{} beyond n_regs = {}", r.0, self.n_regs))
        }
    }

    fn pred(&self, p: Pred) -> Result<u16, String> {
        if p.0 < self.n_preds {
            Ok(p.0)
        } else {
            Err(format!(
                "predicate p{} beyond n_preds = {}",
                p.0, self.n_preds
            ))
        }
    }

    fn operand(&mut self, o: &Operand) -> Result<Row, String> {
        let bits = match *o {
            Operand::R(r) => return self.reg(r),
            Operand::ImmU(v) => v,
            Operand::ImmF(f) => f.to_bits(),
        };
        if let Some(&row) = self.const_rows.get(&bits) {
            return Ok(row);
        }
        let row = self.n_regs as usize + self.consts.len();
        let row = Row::try_from(row).map_err(|_| "too many register-file rows".to_string())?;
        self.consts.push(bits);
        self.const_rows.insert(bits, row);
        Ok(row)
    }

    fn width(words: usize, what: &str) -> Result<AccessWidth, String> {
        AccessWidth::from_bytes(4 * words as u32)
            .ok_or_else(|| format!("{what} of {words} words (the width must be 1, 2 or 4 words)"))
    }

    fn inst(&mut self, i: &Instr) -> Result<(), String> {
        let n = self.n_regs;
        let mut uses = Uses::default();
        let inst = match i {
            Instr::Mov { dst, src } => {
                let src = self.operand(src)?;
                uses.push(src, n);
                Inst::Mov {
                    dst: self.reg(*dst)?,
                    src,
                }
            }
            Instr::Special { dst, sr } => Inst::Special {
                dst: self.reg(*dst)?,
                sr: *sr,
            },
            Instr::Alu { op, dst, a, b } => {
                let (a, b) = (self.operand(a)?, self.operand(b)?);
                uses.push(a, n);
                uses.push(b, n);
                Inst::Alu {
                    op: *op,
                    dst: self.reg(*dst)?,
                    a,
                    b,
                }
            }
            Instr::Mad {
                float,
                dst,
                a,
                b,
                c,
            } => {
                let (a, b, c) = (self.operand(a)?, self.operand(b)?, self.operand(c)?);
                uses.push(a, n);
                uses.push(b, n);
                uses.push(c, n);
                Inst::Mad {
                    float: *float,
                    dst: self.reg(*dst)?,
                    a,
                    b,
                    c,
                }
            }
            Instr::Unary { op, dst, a } => {
                let a = self.operand(a)?;
                uses.push(a, n);
                Inst::Unary {
                    op: *op,
                    dst: self.reg(*dst)?,
                    a,
                }
            }
            Instr::Setp { dst, cmp, a, b } => {
                let (a, b) = (self.operand(a)?, self.operand(b)?);
                uses.push(a, n);
                uses.push(b, n);
                Inst::Setp {
                    cmp: *cmp,
                    dst: self.pred(*dst)?,
                    a,
                    b,
                }
            }
            Instr::Ld {
                dsts,
                space,
                base,
                offset,
            } => {
                let width = Self::width(dsts.len(), "load")?;
                let mut rows = [0; 4];
                for (row, d) in rows.iter_mut().zip(dsts) {
                    *row = self.reg(*d)?;
                }
                let base = self.reg(*base)?;
                uses.push(base, n);
                Inst::Ld {
                    space: *space,
                    width,
                    dsts: rows,
                    base,
                    offset: *offset,
                }
            }
            Instr::St {
                srcs,
                space,
                base,
                offset,
            } => {
                let width = Self::width(srcs.len(), "store")?;
                let mut rows = [0; 4];
                for (row, s) in rows.iter_mut().zip(srcs) {
                    *row = self.operand(s)?;
                    uses.push(*row, n);
                }
                let base = self.reg(*base)?;
                uses.push(base, n);
                Inst::St {
                    space: *space,
                    width,
                    srcs: rows,
                    base,
                    offset: *offset,
                }
            }
            Instr::Clock { dst } => Inst::Clock {
                dst: self.reg(*dst)?,
            },
        };
        self.push(Op::Inst(inst), uses);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::functional::run_grid;
    use crate::exec::timed::time_resident;
    use crate::fault::FaultKind;
    use crate::ir::lower::lower;
    use crate::ir::KernelBuilder;
    use crate::mem::GlobalMemory;
    use crate::timing::TimingParams;
    use crate::{DeviceConfig, DriverModel};

    /// Both engines' launch results for `k` on one 32-thread block.
    fn launch(k: &Kernel) -> [FaultKind; 2] {
        let mut gmem = GlobalMemory::new(1 << 12);
        let functional = run_grid(k, 1, 32, &[0], &mut gmem).unwrap_err();
        assert_eq!(functional.site.kernel.as_deref(), Some("bad"));
        let timed = time_resident(
            k,
            &[0],
            32,
            1,
            &[0],
            &mut gmem,
            &DeviceConfig::g8800gtx(),
            DriverModel::Cuda10,
            &TimingParams::for_driver(DriverModel::Cuda10),
        )
        .unwrap_err();
        assert_eq!(timed.site.kernel.as_deref(), Some("bad"));
        [functional.kind, timed.kind]
    }

    fn assert_bad_launch(kinds: [FaultKind; 2], what: &str) {
        for kind in kinds {
            match kind {
                FaultKind::BadLaunch { reason } => assert!(reason.contains(what), "{reason}"),
                k => panic!("expected BadLaunch, got {k:?}"),
            }
        }
    }

    #[test]
    fn three_word_load_is_a_bad_launch_in_both_engines() {
        let mut b = KernelBuilder::new("bad");
        let base = b.param();
        let dsts = vec![b.reg(), b.reg(), b.reg()];
        b.emit(Instr::Ld {
            dsts,
            space: MemSpace::Global,
            base,
            offset: 0,
        });
        assert_bad_launch(launch(&b.finish()), "load of 3 words");
    }

    #[test]
    fn out_of_range_predicate_is_a_bad_launch() {
        let mut b = KernelBuilder::new("bad");
        let _ = b.param();
        b.emit(Instr::Setp {
            dst: Pred(9),
            cmp: CmpOp::ULt,
            a: Operand::ImmU(0),
            b: Operand::ImmU(1),
        });
        assert_bad_launch(launch(&b.finish()), "predicate p9");
    }

    /// A hand-built kernel with one parameter and `n_regs` registers whose
    /// body writes `dst`.
    fn hand_built(n_regs: u16, dst: u16) -> Kernel {
        Kernel {
            name: "bad".into(),
            n_params: 1,
            n_regs,
            n_preds: 0,
            smem_bytes: 0,
            body: vec![Stmt::I(Instr::Mov {
                dst: Reg(dst),
                src: Operand::ImmU(7),
            })],
        }
    }

    #[test]
    fn out_of_range_register_is_a_bad_launch() {
        assert_bad_launch(launch(&hand_built(2, 2)), "register r2 beyond n_regs = 2");
    }

    #[test]
    fn more_parameters_than_registers_is_a_bad_launch() {
        assert_bad_launch(launch(&hand_built(0, 0)), "n_params = 1 beyond n_regs = 0");
    }

    /// The pinned kernel: a `For` in each arm of an `If`, a `For` nested in
    /// a `For`, a barrier, a `While` and a store.
    fn pinned_kernel() -> crate::ir::Kernel {
        let mut b = KernelBuilder::new("pin");
        let out = b.param();
        let tid = b.special(SpecialReg::TidX);
        let p = b.setp(CmpOp::ULt, tid.into(), Operand::ImmU(16));
        b.if_else(
            p,
            |b| {
                b.for_loop(Operand::ImmU(0), Operand::ImmU(4), 1, |b, i| {
                    b.iadd(i.into(), Operand::ImmU(1));
                });
            },
            |b| {
                b.for_loop(Operand::ImmU(0), Operand::ImmU(2), 1, |b, i| {
                    b.imul(i.into(), Operand::ImmU(3));
                });
                b.do_while(|b| {
                    let x = b.iadd(tid.into(), Operand::ImmU(1));
                    b.setp(CmpOp::ULt, x.into(), Operand::ImmU(8))
                });
            },
        );
        b.sync();
        b.for_loop(Operand::ImmU(0), Operand::ImmU(3), 1, |b, i| {
            b.for_loop(Operand::ImmU(1), Operand::ImmU(9), 2, |b, j| {
                b.iadd(i.into(), j.into());
            });
        });
        b.st(MemSpace::Global, out, 0, vec![tid.into()]);
        b.finish()
    }

    /// The exact tape of [`pinned_kernel`]: loop predicates are numbered
    /// `n_preds + k` after each loop's body, depth first, including loops
    /// inside `If` arms, and every latch branches to the first op of its own
    /// body.
    #[test]
    fn nested_loops_and_regions_compile_to_their_pinned_tape() {
        use crate::ir::AluOp::{IAdd, IMul};
        let prog = lower(&pinned_kernel());
        let tape = prog.tape().unwrap();
        let mov = |dst, src| Op::Inst(Inst::Mov { dst, src });
        let alu = |op, dst, a, b| Op::Inst(Inst::Alu { op, dst, a, b });
        let setp = |dst, a, b| {
            Op::Inst(Inst::Setp {
                cmp: CmpOp::ULt,
                dst,
                a,
                b,
            })
        };
        let bra = |pred, target| Op::Bra {
            pred,
            negate: false,
            target,
        };
        assert_eq!(
            tape.ops,
            vec![
                Op::Inst(Inst::Special {
                    dst: 1,
                    sr: SpecialReg::TidX
                }),
                setp(0, 1, 10),
                Op::If {
                    pred: 0,
                    negate: false,
                    else_pc: 9
                },
                // then: for r2 in 0..4 { r3 = r2 + 1 }
                mov(2, 11),
                alu(IAdd, 3, 2, 12),
                alu(IAdd, 2, 2, 12),
                setp(2, 2, 13),
                bra(2, 4),
                Op::ThenEnd { end_pc: 19 },
                // else: for r4 in 0..2 { r5 = r4 * 3 }, then the While
                mov(4, 11),
                alu(IMul, 5, 4, 14),
                alu(IAdd, 4, 4, 12),
                setp(3, 4, 15),
                bra(3, 10),
                Op::While,
                alu(IAdd, 6, 1, 12),
                setp(1, 6, 16),
                Op::WhileBack {
                    pred: 1,
                    negate: false,
                    body: 15
                },
                Op::IfEnd,
                Op::Sync,
                // for r7 in 0..3 { for r8 in (1..9).step_by(2) { r9 = r7 + r8 } }
                mov(7, 11),
                mov(8, 12),
                alu(IAdd, 9, 7, 8),
                alu(IAdd, 8, 8, 15),
                setp(4, 8, 17),
                bra(4, 22),
                alu(IAdd, 7, 7, 12),
                setp(5, 7, 14),
                bra(5, 21),
                Op::Inst(Inst::St {
                    space: MemSpace::Global,
                    width: AccessWidth::W4,
                    srcs: [1, 0, 0, 0],
                    base: 0,
                    offset: 0
                }),
                Op::Exit,
            ]
        );
        let uses: Vec<&[Row]> = tape.uses.iter().map(Uses::regs).collect();
        let none: &[Row] = &[];
        assert_eq!(
            uses,
            [
                none,
                &[1],
                none,
                none,
                &[2],
                &[2],
                &[2],
                none,
                none,
                none,
                &[4],
                &[4],
                &[4],
                none,
                none,
                &[1],
                &[6],
                none,
                none,
                none,
                none,
                none,
                &[7, 8],
                &[8],
                &[8],
                none,
                &[7],
                &[7],
                none,
                &[1, 0],
                none,
            ]
        );
        assert_eq!(tape.consts, vec![16, 0, 1, 4, 3, 2, 8, 9]);
        assert_eq!((tape.n_params, tape.n_regs, tape.n_preds), (1, 10, 6));
        assert_eq!(tape.depth, 2);
    }

    #[test]
    fn masked_regions_compile_to_flat_ops() {
        let mut b = KernelBuilder::new("flat");
        let x = b.mov(Operand::ImmU(3));
        let p = b.setp(CmpOp::ULt, x.into(), Operand::ImmU(5));
        b.if_else(
            p,
            |b| {
                b.mov(Operand::ImmU(3));
            },
            |b| {
                b.mov(Operand::ImmU(4));
            },
        );
        b.do_while(|b| b.setp(CmpOp::ULt, x.into(), Operand::ImmU(1)));
        let prog = lower(&b.finish());
        let tape = prog.tape().unwrap();
        let kinds: Vec<&str> = tape
            .ops
            .iter()
            .map(|op| match op {
                Op::Inst(_) => "inst",
                Op::If { .. } => "if",
                Op::ThenEnd { .. } => "then_end",
                Op::IfEnd => "if_end",
                Op::While => "while",
                Op::WhileBack { .. } => "while_back",
                Op::Bra { .. } => "bra",
                Op::Sync => "sync",
                Op::Exit => "exit",
            })
            .collect();
        assert_eq!(
            kinds,
            [
                "inst",
                "inst",
                "if",
                "inst",
                "then_end",
                "inst",
                "if_end",
                "while",
                "inst",
                "while_back",
                "exit"
            ]
        );
        assert_eq!(
            tape.ops[2],
            Op::If {
                pred: 0,
                negate: false,
                else_pc: 5
            }
        );
        assert_eq!(tape.ops[4], Op::ThenEnd { end_pc: 7 });
        assert_eq!(tape.depth, 1);
        // The immediate 3 is one splatted row, shared by both movs.
        assert_eq!(tape.consts, vec![3, 5, 4, 1]);
    }
}
