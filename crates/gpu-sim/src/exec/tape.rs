//! The warp tape: a lowered [`Program`](crate::ir::lower::Program) compiled
//! once more into one flat array of ops that both execution engines run.
//!
//! Compilation resolves everything the per-statement walk used to look up
//! while executing:
//!
//! * **operands** become register-file rows. Virtual registers keep their
//!   index; every distinct immediate gets a row of its own after the last
//!   register, splatted across the 32 lanes when a block starts, so an op
//!   reads its operands as plain `[u32; 32]` rows;
//! * **control flow** becomes ops with absolute tape targets. `Bra` jumps
//!   within its sequence; an `If` is `If … ThenEnd … IfEnd` and a `While` is
//!   `While … WhileBack`, both driven by a per-warp stack of lane masks whose
//!   depth is the program's deepest nesting;
//! * **scoreboard inputs**: each op's register reads ([`Uses`]) are listed
//!   once for the timed engine.
//!
//! Compilation also validates the program (access widths, register and
//! predicate indices, branch targets). A malformed program
//! keeps its error in the [`Program`](crate::ir::lower::Program) and every
//! launch of it fails with a typed
//! [`FaultKind::BadLaunch`](crate::fault::FaultKind::BadLaunch) instead of
//! reaching the engines.

use crate::coalesce::AccessWidth;
use crate::ir::lower::LinStmt;
use crate::ir::{AluOp, CmpOp, Instr, MemSpace, Operand, Pred, Reg, SpecialReg, UnaryOp};
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

/// A program compiled for the engines. Built once by
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

struct Compiler<'a> {
    seqs: &'a [Vec<LinStmt>],
    n_regs: u16,
    n_preds: u16,
    ops: Vec<Op>,
    uses: Vec<Uses>,
    consts: Vec<u32>,
    const_rows: HashMap<u32, Row>,
    depth: usize,
}

/// Compile a lowered program's sequence arena into a tape, or say why the
/// program is malformed.
pub(crate) fn compile(
    seqs: &[Vec<LinStmt>],
    root: usize,
    n_params: u16,
    n_regs: u16,
    n_preds: u16,
    smem_bytes: u32,
) -> Result<Tape, String> {
    let mut c = Compiler {
        seqs,
        n_regs,
        n_preds,
        ops: Vec::new(),
        uses: Vec::new(),
        consts: Vec::new(),
        const_rows: HashMap::new(),
        depth: 0,
    };
    c.seq(root, 0)?;
    c.push(Op::Exit, Uses::default());
    Ok(Tape {
        ops: c.ops,
        uses: c.uses,
        n_params,
        n_regs,
        consts: c.consts,
        n_preds,
        depth: c.depth,
        smem_bytes,
    })
}

impl Compiler<'_> {
    fn pc(&self) -> u32 {
        self.ops.len() as u32
    }

    fn push(&mut self, op: Op, uses: Uses) {
        self.ops.push(op);
        self.uses.push(uses);
    }

    /// Emit sequence `s` at mask-stack depth `depth`. The caller pushes the
    /// op that closes it (`ThenEnd`, `IfEnd`, `WhileBack` or `Exit`) right
    /// after, which is where a branch to the sequence's end lands.
    fn seq(&mut self, s: usize, depth: usize) -> Result<(), String> {
        self.depth = self.depth.max(depth);
        let stmts = &self.seqs[s];
        let mut at = Vec::with_capacity(stmts.len() + 1);
        let mut branches = Vec::new();
        for stmt in stmts {
            at.push(self.pc());
            match stmt {
                LinStmt::I(i) => {
                    let (inst, uses) = self.inst(i)?;
                    self.push(Op::Inst(inst), uses);
                }
                LinStmt::Bra {
                    pred,
                    negate,
                    target,
                } => {
                    branches.push((self.ops.len(), *target));
                    let pred = self.pred(*pred)?;
                    self.push(
                        Op::Bra {
                            pred,
                            negate: *negate,
                            target: 0,
                        },
                        Uses::default(),
                    );
                }
                LinStmt::IfMasked {
                    pred,
                    negate,
                    then_seq,
                    else_seq,
                } => {
                    let pred = self.pred(*pred)?;
                    let at_if = self.ops.len();
                    self.push(Op::Exit, Uses::default());
                    self.seq(*then_seq, depth + 1)?;
                    let at_then_end = self.ops.len();
                    self.push(Op::Exit, Uses::default());
                    let else_pc = self.pc();
                    self.seq(*else_seq, depth + 1)?;
                    self.push(Op::IfEnd, Uses::default());
                    let end_pc = self.pc();
                    self.ops[at_if] = Op::If {
                        pred,
                        negate: *negate,
                        else_pc,
                    };
                    self.ops[at_then_end] = Op::ThenEnd { end_pc };
                }
                LinStmt::WhileMasked {
                    pred,
                    negate,
                    body_seq,
                } => {
                    let pred = self.pred(*pred)?;
                    self.push(Op::While, Uses::default());
                    let body = self.pc();
                    self.seq(*body_seq, depth + 1)?;
                    self.push(
                        Op::WhileBack {
                            pred,
                            negate: *negate,
                            body,
                        },
                        Uses::default(),
                    );
                }
                LinStmt::Sync => self.push(Op::Sync, Uses::default()),
            }
        }
        at.push(self.pc());
        for (op, target) in branches {
            let Some(&pc) = at.get(target) else {
                return Err(format!(
                    "branch target {target} beyond its sequence of {} statements",
                    stmts.len()
                ));
            };
            if let Op::Bra { target, .. } = &mut self.ops[op] {
                *target = pc;
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

    fn inst(&mut self, i: &Instr) -> Result<(Inst, Uses), String> {
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
        Ok((inst, uses))
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

    /// Both engines' launch results for `b`'s kernel on one 32-thread block.
    fn launch(b: KernelBuilder) -> [FaultKind; 2] {
        let k = b.finish();
        let mut gmem = GlobalMemory::new(1 << 12);
        let functional = run_grid(&k, 1, 32, &[0], &mut gmem).unwrap_err();
        assert_eq!(functional.site.kernel.as_deref(), Some("bad"));
        let timed = time_resident(
            &k,
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
        assert_bad_launch(launch(b), "load of 3 words");
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
        assert_bad_launch(launch(b), "predicate p9");
    }

    #[test]
    fn branch_targets_must_stay_in_their_sequence() {
        let bra = |target| LinStmt::Bra {
            pred: Pred(0),
            negate: false,
            target,
        };
        // Target 1 is the end of a one-statement sequence: legal.
        let tape = compile(&[vec![bra(1)]], 0, 0, 0, 1, 0).unwrap();
        assert_eq!(
            tape.ops,
            vec![
                Op::Bra {
                    pred: 0,
                    negate: false,
                    target: 1
                },
                Op::Exit
            ]
        );
        let e = compile(&[vec![bra(2)]], 0, 0, 0, 1, 0).unwrap_err();
        assert!(e.contains("branch target 2"), "{e}");
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
