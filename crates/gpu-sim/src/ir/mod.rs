//! A small PTX-flavoured kernel IR.
//!
//! Kernels in this workspace are *values* of this IR rather than native Rust
//! closures, because the reproduction needs four different views of the same
//! kernel and they must never drift apart:
//!
//! 1. **functional execution** — the interpreter in [`crate::exec`] runs the
//!    IR against simulated global memory and its results are validated
//!    against native CPU implementations;
//! 2. **dynamic instruction counts** — the paper's Eq. 3 unrolling model is
//!    about the instruction budget of the innermost loop ([`count`]);
//! 3. **register demand** — occupancy depends on registers per thread, which
//!    a liveness analysis computes from the IR ([`regalloc`]);
//! 4. **memory behaviour** — loads/stores carry enough structure for the
//!    coalescer to see the exact per-lane address streams.
//!
//! The IR is structured (straight-line instructions, counted loops, masked
//! `If`, barrier `Sync`); [`lower`] compiles it in one pass to the flat warp
//! tape the engines run, each loop in bottom-tested form with an explicit
//! back-branch that charges the canonical per-iteration overhead the paper
//! describes (induction add, compare, jump). The optimization
//! passes the paper applies by hand — full/partial unrolling and invariant
//! code motion — are IR-to-IR passes in [`passes`].

pub mod count;
pub mod layout;
pub mod lower;
pub mod passes;
pub mod pretty;
pub mod regalloc;

use serde::{Deserialize, Serialize};

/// A virtual 32-bit register (holds raw bits; instructions give them f32 or
/// u32 meaning, as in PTX untyped registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Reg(pub u16);

/// A predicate (boolean) register. Predicates live in a separate file on
/// NVIDIA hardware and do not count toward the 32-bit register budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Pred(pub u16);

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// A register.
    R(Reg),
    /// An `f32` immediate.
    ImmF(f32),
    /// A `u32` immediate.
    ImmU(u32),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::R(r)
    }
}

/// Hardware special registers (1-D launches are all this workspace needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpecialReg {
    /// `threadIdx.x`
    TidX,
    /// `blockIdx.x`
    CtaidX,
    /// `blockDim.x`
    NtidX,
    /// `gridDim.x`
    NctaidX,
}

/// Memory space of a load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemSpace {
    /// Device global memory (coalescing applies).
    Global,
    /// Per-block shared memory (bank conflicts apply).
    Shared,
    /// Texture path into global memory (read-only, cached — no coalescing
    /// rules; the pre-Fermi workaround for scattered access patterns).
    Texture,
}

/// Two-operand ALU operations. The `F*` forms operate on f32, the `I*` forms
/// on u32 (wrapping, as GPU integer arithmetic does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// f32 add.
    FAdd,
    /// f32 subtract.
    FSub,
    /// f32 multiply.
    FMul,
    /// f32 minimum.
    FMin,
    /// f32 maximum.
    FMax,
    /// u32 wrapping add.
    IAdd,
    /// u32 wrapping subtract.
    ISub,
    /// u32 wrapping multiply (low 32 bits).
    IMul,
    /// u32 logical shift left.
    IShl,
    /// u32 bitwise and.
    IAnd,
    /// u32 minimum.
    IMin,
}

impl AluOp {
    /// `true` for the floating-point forms.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            AluOp::FAdd | AluOp::FSub | AluOp::FMul | AluOp::FMin | AluOp::FMax
        )
    }
}

/// One-operand operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// f32 reciprocal square root (SFU instruction).
    FRsqrt,
    /// f32 negate.
    FNeg,
    /// u32→f32 convert.
    U2F,
    /// f32→u32 convert (truncating).
    F2U,
}

/// Comparison predicates for `Setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// Unsigned less-than.
    ULt,
    /// Unsigned greater-or-equal.
    UGe,
    /// Unsigned equality.
    UEq,
    /// Unsigned inequality.
    UNe,
    /// f32 less-than.
    FLt,
}

/// Exact bit-level semantics of a two-operand ALU op. The one definition the
/// executors ([`crate::exec::machine`]), the analyzer's exact domain and
/// constant folder, and the IR passes' folding all evaluate, so a proof or a
/// folded constant rests on the arithmetic the hardware model runs.
#[inline]
pub(crate) fn alu(op: AluOp, x: u32, y: u32) -> u32 {
    let (fx, fy) = (f32::from_bits(x), f32::from_bits(y));
    match op {
        AluOp::FAdd => (fx + fy).to_bits(),
        AluOp::FSub => (fx - fy).to_bits(),
        AluOp::FMul => (fx * fy).to_bits(),
        AluOp::FMin => fx.min(fy).to_bits(),
        AluOp::FMax => fx.max(fy).to_bits(),
        AluOp::IAdd => x.wrapping_add(y),
        AluOp::ISub => x.wrapping_sub(y),
        AluOp::IMul => x.wrapping_mul(y),
        AluOp::IShl => x.wrapping_shl(y),
        AluOp::IAnd => x & y,
        AluOp::IMin => x.min(y),
    }
}

/// Exact `mad` semantics: f32 `a·b + c` or wrapping u32. G80 MAD truncates
/// the intermediate product and a modern fma differs in the last ulp; the
/// model rounds the product like the CPU reference so functional
/// comparisons are exact.
#[inline]
pub(crate) fn mad(float: bool, a: u32, b: u32, c: u32) -> u32 {
    if float {
        (f32::from_bits(a) * f32::from_bits(b) + f32::from_bits(c)).to_bits()
    } else {
        a.wrapping_mul(b).wrapping_add(c)
    }
}

/// Exact one-operand semantics.
#[inline]
pub(crate) fn unary(op: UnaryOp, x: u32) -> u32 {
    match op {
        UnaryOp::FRsqrt => (1.0 / f32::from_bits(x).sqrt()).to_bits(),
        UnaryOp::FNeg => (-f32::from_bits(x)).to_bits(),
        UnaryOp::U2F => (x as f32).to_bits(),
        UnaryOp::F2U => f32::from_bits(x) as u32,
    }
}

/// Exact `Setp` predicate semantics.
#[inline]
pub(crate) fn compare(op: CmpOp, x: u32, y: u32) -> bool {
    match op {
        CmpOp::ULt => x < y,
        CmpOp::UGe => x >= y,
        CmpOp::UEq => x == y,
        CmpOp::UNe => x != y,
        CmpOp::FLt => f32::from_bits(x) < f32::from_bits(y),
    }
}

/// A straight-line instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// `dst = src`
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = special register`
    Special {
        /// Destination register.
        dst: Reg,
        /// Which special register to read.
        sr: SpecialReg,
    },
    /// `dst = a <op> b`
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Fused multiply-add `dst = a*b + c` (f32 `mad.f32` or u32 `mad.lo.u32`).
    Mad {
        /// `true` = f32 mad, `false` = u32 mad.
        float: bool,
        /// Destination register.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
    },
    /// `dst = op(a)`
    Unary {
        /// Operation.
        op: UnaryOp,
        /// Destination register.
        dst: Reg,
        /// Operand.
        a: Operand,
    },
    /// Set predicate: `dst = a <cmp> b`.
    Setp {
        /// Destination predicate.
        dst: Pred,
        /// Comparison.
        cmp: CmpOp,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// Load `dsts.len()` consecutive 32-bit words (1, 2 or 4 — scalar,
    /// 64-bit or 128-bit access) from `space` at byte address `base + offset`.
    Ld {
        /// Destination registers (consecutive words).
        dsts: Vec<Reg>,
        /// Memory space.
        space: MemSpace,
        /// Register holding the byte base address.
        base: Reg,
        /// Immediate byte offset.
        offset: u32,
    },
    /// Store consecutive 32-bit words to `space` at `base + offset`.
    St {
        /// Source operands (consecutive words).
        srcs: Vec<Operand>,
        /// Memory space.
        space: MemSpace,
        /// Register holding the byte base address.
        base: Reg,
        /// Immediate byte offset.
        offset: u32,
    },
    /// Read the SM cycle counter (`clock()`).
    Clock {
        /// Destination register.
        dst: Reg,
    },
}

impl Instr {
    /// Destination 32-bit register(s) of this instruction.
    pub fn defs(&self) -> Vec<Reg> {
        match self {
            Instr::Mov { dst, .. }
            | Instr::Special { dst, .. }
            | Instr::Alu { dst, .. }
            | Instr::Mad { dst, .. }
            | Instr::Unary { dst, .. }
            | Instr::Clock { dst } => vec![*dst],
            Instr::Ld { dsts, .. } => dsts.clone(),
            Instr::Setp { .. } | Instr::St { .. } => vec![],
        }
    }

    /// Source registers of this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        fn op(o: &Operand, out: &mut Vec<Reg>) {
            if let Operand::R(r) = o {
                out.push(*r);
            }
        }
        let mut out = Vec::new();
        match self {
            Instr::Mov { src, .. } => op(src, &mut out),
            Instr::Special { .. } | Instr::Clock { .. } => {}
            Instr::Alu { a, b, .. } => {
                op(a, &mut out);
                op(b, &mut out);
            }
            Instr::Mad { a, b, c, .. } => {
                op(a, &mut out);
                op(b, &mut out);
                op(c, &mut out);
            }
            Instr::Unary { a, .. } => op(a, &mut out),
            Instr::Setp { a, b, .. } => {
                op(a, &mut out);
                op(b, &mut out);
            }
            Instr::Ld { base, .. } => out.push(*base),
            Instr::St { srcs, base, .. } => {
                for s in srcs {
                    op(s, &mut out);
                }
                out.push(*base);
            }
        }
        out
    }
}

/// A structured statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// A straight-line instruction.
    I(Instr),
    /// Counted loop `for (var = start; var < end; var += step) body`.
    ///
    /// Lowered as a bottom-tested loop charging the canonical 3-instruction
    /// per-iteration overhead (induction add, compare, branch). The loop must
    /// execute at least one iteration (`start < end` at entry) and `end` must
    /// be warp-uniform; both are checked at execution time.
    For {
        /// Induction variable (a real register — it costs occupancy, which
        /// is exactly the paper's point about unrolling freeing it).
        var: Reg,
        /// Initial value.
        start: Operand,
        /// Exclusive upper bound (must be warp-uniform at runtime).
        end: Operand,
        /// Increment (immediate, as in the paper's kernels).
        step: u32,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Masked conditional: threads where `pred`(≠`negate`) holds run `then`,
    /// the rest run `els`. Divergence serializes both paths, as on hardware.
    If {
        /// Controlling predicate.
        pred: Pred,
        /// If `true`, the sense of the predicate is inverted.
        negate: bool,
        /// Taken-path body.
        then: Vec<Stmt>,
        /// Not-taken-path body.
        els: Vec<Stmt>,
    },
    /// Block-wide barrier (`__syncthreads()`).
    Sync,
    /// Divergent bottom-tested loop: execute `body`, then keep iterating the
    /// lanes where `pred` (xor `negate`) still holds; a lane that clears the
    /// predicate is masked off until every lane of the warp is done — the
    /// SIMT cost model of data-dependent loops (tree traversals, etc.).
    /// The body must define `pred` before it is tested.
    While {
        /// Continuation predicate, set inside the body.
        pred: Pred,
        /// Invert the predicate sense.
        negate: bool,
        /// Loop body.
        body: Vec<Stmt>,
    },
}

/// A complete kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Name for reports.
    pub name: String,
    /// Number of parameters; parameters are bound to registers
    /// `Reg(0) .. Reg(n_params)` at launch (they are live from entry, which
    /// matches nvcc moving them from param space into registers on use).
    pub n_params: u16,
    /// Total virtual registers (including parameter registers).
    pub n_regs: u16,
    /// Total predicate registers.
    pub n_preds: u16,
    /// Static shared memory per block, in bytes.
    pub smem_bytes: u32,
    /// Kernel body.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Walk all statements depth-first, calling `f` on each.
    pub fn visit_stmts<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        fn walk<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
            for s in stmts {
                f(s);
                match s {
                    Stmt::For { body, .. } | Stmt::While { body, .. } => walk(body, f),
                    Stmt::If { then, els, .. } => {
                        walk(then, f);
                        walk(els, f);
                    }
                    _ => {}
                }
            }
        }
        walk(&self.body, f);
    }

    /// Highest register index actually referenced, for sanity checks.
    pub fn max_reg_referenced(&self) -> u16 {
        let mut max = 0u16;
        self.visit_stmts(&mut |s| {
            let mut track = |r: Reg| max = max.max(r.0);
            match s {
                Stmt::I(i) => {
                    for r in i.defs() {
                        track(r);
                    }
                    for r in i.uses() {
                        track(r);
                    }
                }
                Stmt::For {
                    var, start, end, ..
                } => {
                    track(*var);
                    for o in [start, end] {
                        if let Operand::R(r) = o {
                            track(*r);
                        }
                    }
                }
                _ => {}
            }
        });
        max
    }

    /// Validate well-formedness: register/predicate indices in range.
    pub fn validate(&self) {
        assert!(self.n_regs as u32 >= self.n_params as u32);
        assert!(
            self.max_reg_referenced() < self.n_regs || self.n_regs == 0,
            "kernel {} references register beyond n_regs={}",
            self.name,
            self.n_regs
        );
    }
}

/// Assigns the **stable instruction indices** used in diagnostic coordinates.
///
/// The pretty-printer ([`pretty::disassemble`]) and the static analyzer
/// (`crate::analyze`) both walk a kernel in structured pre-order and draw
/// indices from this counter, so a diagnostic's `instruction` coordinate can
/// be read straight off the disassembly. The numbering mirrors the
/// functional executor's retired-instruction counter for the first dynamic
/// execution of each statement: only items that retire are numbered — plain
/// instructions, a `For`'s lowered init `mov` plus its `add`/`setp`/`bra`
/// latch triple (after the body), and a `While`'s backedge branch (after the
/// body). `If` markers and `Sync` barriers retire nothing and get no index
/// (see `exec::functional`).
#[derive(Debug, Clone, Default)]
pub struct InstrIndexer {
    next: u64,
}

impl InstrIndexer {
    /// Start numbering at zero.
    pub fn new() -> InstrIndexer {
        InstrIndexer::default()
    }

    /// Index of the next plain instruction (also a `For`'s init `mov`).
    pub fn instr(&mut self) -> u64 {
        let i = self.next;
        self.next += 1;
        i
    }

    /// Indices of a `For` latch, in order: the induction `add`, the bound
    /// `setp`, the backedge `bra`. Call after indexing the loop body.
    pub fn for_latch(&mut self) -> (u64, u64, u64) {
        (self.instr(), self.instr(), self.instr())
    }

    /// Index of a `While` backedge branch. Call after indexing the body.
    pub fn while_backedge(&mut self) -> u64 {
        self.instr()
    }
}

mod builder;
pub use builder::KernelBuilder;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defs_and_uses_of_core_instructions() {
        let i = Instr::Alu {
            op: AluOp::FAdd,
            dst: Reg(3),
            a: Operand::R(Reg(1)),
            b: Operand::ImmF(1.0),
        };
        assert_eq!(i.defs(), vec![Reg(3)]);
        assert_eq!(i.uses(), vec![Reg(1)]);

        let ld = Instr::Ld {
            dsts: vec![Reg(4), Reg(5)],
            space: MemSpace::Global,
            base: Reg(2),
            offset: 8,
        };
        assert_eq!(ld.defs(), vec![Reg(4), Reg(5)]);
        assert_eq!(ld.uses(), vec![Reg(2)]);

        let st = Instr::St {
            srcs: vec![Operand::R(Reg(7)), Operand::ImmF(0.0)],
            space: MemSpace::Shared,
            base: Reg(6),
            offset: 0,
        };
        assert_eq!(st.defs(), vec![]);
        assert_eq!(st.uses(), vec![Reg(7), Reg(6)]);
    }

    #[test]
    fn visit_descends_into_loops_and_ifs() {
        let k = Kernel {
            name: "t".into(),
            n_params: 0,
            n_regs: 4,
            n_preds: 1,
            smem_bytes: 0,
            body: vec![
                Stmt::For {
                    var: Reg(0),
                    start: Operand::ImmU(0),
                    end: Operand::ImmU(4),
                    step: 1,
                    body: vec![
                        Stmt::I(Instr::Mov {
                            dst: Reg(1),
                            src: Operand::ImmU(1),
                        }),
                        Stmt::If {
                            pred: Pred(0),
                            negate: false,
                            then: vec![Stmt::I(Instr::Mov {
                                dst: Reg(2),
                                src: Operand::ImmU(2),
                            })],
                            els: vec![],
                        },
                    ],
                },
                Stmt::Sync,
            ],
        };
        let mut n = 0;
        k.visit_stmts(&mut |_| n += 1);
        assert_eq!(n, 5); // For, Mov, If, inner Mov, Sync
        assert_eq!(k.max_reg_referenced(), 2);
        k.validate();
    }

    #[test]
    #[should_panic]
    fn validate_catches_out_of_range_register() {
        let k = Kernel {
            name: "bad".into(),
            n_params: 0,
            n_regs: 1,
            n_preds: 0,
            smem_bytes: 0,
            body: vec![Stmt::I(Instr::Mov {
                dst: Reg(5),
                src: Operand::ImmU(0),
            })],
        };
        k.validate();
    }
}
