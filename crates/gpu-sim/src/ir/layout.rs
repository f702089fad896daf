//! Data-layout rewriting: an IR→IR pass that re-homes global buffers.
//!
//! The paper's ladder (AoS → SoA → AoaS → SoAoaS, Sec. III) is a sequence of
//! *data-layout* changes: the kernel text barely moves, but the particle
//! record is split, padded and regrouped so each half-warp touches fewer
//! memory segments. [`rewrite_layout`] performs that change mechanically on a
//! kernel value: given a [`LayoutRewrite`] spec — which leading parameters
//! are buffer bases, what the old record stride is, and where every *read*
//! word of the old record lives in the new layout — it
//!
//! 1. recognizes the canonical addressing idiom the workspace kernels (and
//!    `fold_addressing`) produce, `mad.lo.u32 addr, elem, stride, buf_param`
//!    feeding `ld.global` at immediate offsets,
//! 2. regroups the loaded words by their new homes, merging contiguous words
//!    of one new buffer into the widest naturally-aligned vector load
//!    (128/64/32-bit), and
//! 3. rebinds the parameter list: the old buffer params vanish, the new
//!    buffer params take their place, and every other register shifts.
//!
//! The pass is *deliberately* not trusted: it refuses anything outside the
//! idiom (an address escaping into non-load arithmetic, a store into a
//! rewritten buffer, a read of a word the spec does not map), and the layout
//! synthesizer ([`crate::analyze::synth`]) only ever suggests a rewrite after
//! [`crate::analyze::verify`] proves the result bit-equivalent under an
//! element-indexed input map. A rewrite that cannot be proven is discarded.

use std::collections::{HashMap, HashSet};
use std::fmt;

use serde::{Deserialize, Serialize};

use super::{Instr, Kernel, MemSpace, Operand, Reg, Stmt};

/// Where one 32-bit word of the old record lives in the new layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldDest {
    /// Index into [`LayoutRewrite::new_strides`] (and the new parameter
    /// list) of the buffer that now holds this word.
    pub buffer: usize,
    /// Byte offset of the word inside the new buffer's record.
    pub offset: u32,
}

/// The word map for one old buffer parameter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferMap {
    /// Old parameter index (`< LayoutRewrite::old_buffers`).
    pub param: u16,
    /// Old record stride in bytes — the `b` immediate of the addressing
    /// `mad` this pass matches.
    pub stride: u32,
    /// `(old byte offset in record, new home)` for every word the kernel
    /// is allowed to read. Words a kernel reads but the map omits make the
    /// rewrite fail with [`LayoutRewriteError::UnmappedWord`].
    pub words: Vec<(u32, FieldDest)>,
}

impl BufferMap {
    fn dest(&self, offset: u32) -> Option<FieldDest> {
        self.words
            .iter()
            .find(|(o, _)| *o == offset)
            .map(|(_, d)| *d)
    }
}

/// A complete layout-rewrite specification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutRewrite {
    /// Suffix appended to the kernel name (`name__tag`) for reports.
    pub tag: String,
    /// The first `old_buffers` kernel parameters are buffer bases being
    /// replaced.
    pub old_buffers: u16,
    /// Record stride of each new buffer, in bytes. The new buffers become
    /// parameters `0 .. new_strides.len()` of the rewritten kernel; all
    /// remaining parameters keep their relative order after them.
    pub new_strides: Vec<u32>,
    /// One word map per replaced parameter.
    pub maps: Vec<BufferMap>,
}

impl LayoutRewrite {
    /// New home of `(old param, old byte offset)`, if mapped.
    pub fn dest(&self, param: u16, offset: u32) -> Option<FieldDest> {
        self.maps
            .iter()
            .find(|m| m.param == param)
            .and_then(|m| m.dest(offset))
    }

    /// `true` when the rewrite maps every word to exactly where it already
    /// is — same buffer count, same strides, same offsets. Identity
    /// rewrites are never worth suggesting.
    pub fn is_identity(&self) -> bool {
        self.new_strides.len() == self.old_buffers as usize
            && self.maps.iter().all(|m| {
                (m.param as usize) < self.new_strides.len()
                    && self.new_strides[m.param as usize] == m.stride
                    && m.words
                        .iter()
                        .all(|(o, d)| d.buffer == m.param as usize && d.offset == *o)
            })
    }

    /// Total bytes per element in the new layout (sum of strides).
    pub fn bytes_per_element(&self) -> u32 {
        self.new_strides.iter().sum()
    }
}

/// One aligned sub-structure of [`pack_tiles`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tile {
    /// Indices into the packed widths, in placement order.
    pub members: Vec<usize>,
    /// Words the members occupy.
    pub used_words: u32,
    /// `used_words` padded to the next power of two (an alignable width).
    pub padded_words: u32,
}

/// Step 2 of the paper's layout procedure (Sec. IV): split fields of the
/// given word widths into sub-structures of at most `tile_words` words that
/// can be aligned. First fit in order of decreasing width (stable, so equal
/// widths keep their order), each tile padded to the next power of two; a
/// field is never split. For unit widths this is the in-order tiling.
pub fn pack_tiles(widths: &[u32], tile_words: u32) -> Vec<Tile> {
    let mut order: Vec<usize> = (0..widths.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(widths[i]));
    let mut tiles: Vec<Tile> = Vec::new();
    for i in order {
        let w = widths[i];
        match tiles.iter_mut().find(|t| t.used_words + w <= tile_words) {
            Some(t) => {
                t.members.push(i);
                t.used_words += w;
            }
            None => tiles.push(Tile {
                members: vec![i],
                used_words: w,
                padded_words: 0,
            }),
        }
    }
    for t in &mut tiles {
        t.padded_words = t.used_words.next_power_of_two();
    }
    tiles
}

/// Why a layout rewrite was refused. Every variant is a *refusal*, not a
/// miscompile: the input kernel is returned unmodified semantics-wise
/// because no kernel is returned at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutRewriteError {
    /// The spec itself is malformed (stride/offset/alignment/coverage).
    BadSpec(String),
    /// The kernel reads a word of a rewritten buffer the spec does not map.
    UnmappedWord {
        /// Old buffer parameter.
        param: u16,
        /// Old byte offset of the unmapped word.
        offset: u32,
    },
    /// A replaced buffer parameter is used outside the matched addressing
    /// idiom (so the rewrite cannot account for it).
    ResidualParamUse {
        /// The offending parameter index.
        param: u16,
    },
    /// A matched buffer address flows into something other than a load
    /// (store, arithmetic, loop bound) — rewriting would change it.
    AddressEscapes {
        /// The old register holding the escaped address.
        reg: u16,
    },
}

impl fmt::Display for LayoutRewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutRewriteError::BadSpec(s) => write!(f, "bad layout-rewrite spec: {s}"),
            LayoutRewriteError::UnmappedWord { param, offset } => write!(
                f,
                "kernel reads word at byte {offset} of buffer param {param}, which the \
                 rewrite does not map"
            ),
            LayoutRewriteError::ResidualParamUse { param } => write!(
                f,
                "buffer param {param} is used outside the `mad elem, stride, param` \
                 addressing idiom"
            ),
            LayoutRewriteError::AddressEscapes { reg } => write!(
                f,
                "address register r{reg} of a rewritten buffer escapes into a non-load"
            ),
        }
    }
}

impl std::error::Error for LayoutRewriteError {}

/// One load word waiting to be regrouped at the next flush point.
struct PendWord {
    /// Element-index register (old numbering).
    elem: Reg,
    /// New buffer index.
    buffer: usize,
    /// New byte offset inside the record.
    offset: u32,
    /// Destination register (old numbering).
    dst: Reg,
}

struct Rewriter<'a> {
    rw: &'a LayoutRewrite,
    map_for: HashMap<u16, &'a BufferMap>,
    delta: i32,
    next_reg: u16,
}

type RwResult<T> = Result<T, LayoutRewriteError>;

impl<'a> Rewriter<'a> {
    fn remap(&self, r: Reg) -> RwResult<Reg> {
        if r.0 < self.rw.old_buffers {
            Err(LayoutRewriteError::ResidualParamUse { param: r.0 })
        } else {
            Ok(Reg((r.0 as i32 + self.delta) as u16))
        }
    }

    fn remap_op(&self, o: Operand) -> RwResult<Operand> {
        Ok(match o {
            Operand::R(r) => Operand::R(self.remap(r)?),
            imm => imm,
        })
    }

    fn fresh(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Emit the regrouped loads for the pending words: sort by
    /// `(elem, buffer, offset)`, merge maximal contiguous same-elem runs
    /// into the widest naturally-aligned vector loads, value-numbering one
    /// `mad` base per `(buffer, elem)`.
    fn flush(
        &mut self,
        pending: &mut Vec<PendWord>,
        base_vn: &mut HashMap<(usize, Reg), Reg>,
        out: &mut Vec<Stmt>,
    ) -> RwResult<()> {
        if pending.is_empty() {
            return Ok(());
        }
        pending.sort_by_key(|w| (w.elem, w.buffer, w.offset));
        let mut i = 0;
        while i < pending.len() {
            let (elem, buffer) = (pending[i].elem, pending[i].buffer);
            let mut run = vec![&pending[i]];
            while i + run.len() < pending.len() {
                let next = &pending[i + run.len()];
                if next.elem == elem
                    && next.buffer == buffer
                    && next.offset == run.last().expect("run is non-empty").offset + 4
                {
                    run.push(next);
                } else {
                    break;
                }
            }
            let stride = self.rw.new_strides[buffer];
            let elem_new = self.remap(elem)?;
            let base = match base_vn.get(&(buffer, elem_new)) {
                Some(&b) => b,
                None => {
                    let b = self.fresh();
                    out.push(Stmt::I(Instr::Mad {
                        float: false,
                        dst: b,
                        a: Operand::R(elem_new),
                        b: Operand::ImmU(stride),
                        c: Operand::R(Reg(buffer as u16)),
                    }));
                    base_vn.insert((buffer, elem_new), b);
                    b
                }
            };
            // Widest natural vector width legal for this run: the width
            // must divide the run, the start offset, and the stride, so
            // every element's address stays naturally aligned (buffer
            // bases are 16-byte aligned by the allocator).
            let mut at = 0;
            while at < run.len() {
                let off = run[at].offset;
                let width = [4usize, 2, 1]
                    .into_iter()
                    .find(|w| {
                        at + w <= run.len()
                            && off % (4 * *w as u32) == 0
                            && stride.is_multiple_of(4 * *w as u32)
                    })
                    .expect("width 1 is always legal");
                let mut dsts = Vec::with_capacity(width);
                for w in &run[at..at + width] {
                    dsts.push(self.remap(w.dst)?);
                }
                out.push(Stmt::I(Instr::Ld {
                    dsts,
                    space: MemSpace::Global,
                    base,
                    offset: off,
                }));
                at += width;
            }
            i += run.len();
        }
        pending.clear();
        Ok(())
    }

    /// Rewrite one statement list. Matching facts are segment-local: any
    /// compound statement or barrier flushes pending loads and forgets
    /// everything, exactly like `fold_addressing`'s segments.
    fn block(&mut self, stmts: &[Stmt]) -> RwResult<Vec<Stmt>> {
        let mut out = Vec::with_capacity(stmts.len());
        // dst → (elem reg, old param) for matched addressing mads.
        let mut facts: HashMap<Reg, (Reg, u16)> = HashMap::new();
        // Old registers whose defining mad was consumed; any use outside a
        // matched load means the address escapes.
        let mut dropped: HashSet<Reg> = HashSet::new();
        let mut pending: Vec<PendWord> = Vec::new();
        let mut base_vn: HashMap<(usize, Reg), Reg> = HashMap::new();

        let invalidate_def = |d: Reg,
                              facts: &mut HashMap<Reg, (Reg, u16)>,
                              base_vn: &mut HashMap<(usize, Reg), Reg>,
                              dropped: &mut HashSet<Reg>,
                              delta: i32| {
            facts.remove(&d);
            facts.retain(|_, (elem, _)| *elem != d);
            let d_new = Reg((d.0 as i32 + delta) as u16);
            base_vn.retain(|(_, elem), _| *elem != d_new);
            dropped.remove(&d);
        };

        for s in stmts {
            match s {
                Stmt::I(instr) => {
                    // The addressing idiom: mad.lo.u32 dst, elem, stride, buf.
                    if let Instr::Mad {
                        float: false,
                        dst,
                        a: Operand::R(elem),
                        b: Operand::ImmU(stride),
                        c: Operand::R(p),
                    } = instr
                    {
                        if p.0 < self.rw.old_buffers {
                            if elem == dst {
                                // `dst = dst*stride + buf` consumes the
                                // element index; nothing to re-derive the
                                // base from.
                                return Err(LayoutRewriteError::ResidualParamUse { param: p.0 });
                            }
                            let m = self.map_for[&p.0];
                            if *stride != m.stride {
                                return Err(LayoutRewriteError::BadSpec(format!(
                                    "param {} addressed with stride {stride}, map says {}",
                                    p.0, m.stride
                                )));
                            }
                            if elem.0 < self.rw.old_buffers {
                                return Err(LayoutRewriteError::ResidualParamUse { param: elem.0 });
                            }
                            if dropped.contains(elem) {
                                return Err(LayoutRewriteError::AddressEscapes { reg: elem.0 });
                            }
                            // The mad redefines dst — anything pending that
                            // reads or writes dst must land first.
                            if pending.iter().any(|w| w.elem == *dst || w.dst == *dst) {
                                self.flush(&mut pending, &mut base_vn, &mut out)?;
                            }
                            invalidate_def(
                                *dst,
                                &mut facts,
                                &mut base_vn,
                                &mut dropped,
                                self.delta,
                            );
                            facts.insert(*dst, (*elem, p.0));
                            dropped.insert(*dst);
                            continue;
                        }
                    }
                    // A load through a matched address: queue its words.
                    if let Instr::Ld {
                        dsts,
                        space: MemSpace::Global,
                        base,
                        offset,
                    } = instr
                    {
                        if let Some(&(elem, param)) = facts.get(base) {
                            let m = self.map_for[&param];
                            // A queued word must land before its dst is
                            // redefined or its elem is clobbered.
                            if dsts
                                .iter()
                                .any(|d| pending.iter().any(|w| w.elem == *d || w.dst == *d))
                            {
                                self.flush(&mut pending, &mut base_vn, &mut out)?;
                            }
                            let mut words = Vec::with_capacity(dsts.len());
                            for (w, dst) in dsts.iter().enumerate() {
                                let old_off = offset + 4 * w as u32;
                                let dest =
                                    m.dest(old_off).ok_or(LayoutRewriteError::UnmappedWord {
                                        param,
                                        offset: old_off,
                                    })?;
                                words.push(PendWord {
                                    elem,
                                    buffer: dest.buffer,
                                    offset: dest.offset,
                                    dst: *dst,
                                });
                            }
                            let dup = words.iter().any(|nw| {
                                pending.iter().any(|w| {
                                    w.elem == nw.elem
                                        && w.buffer == nw.buffer
                                        && w.offset == nw.offset
                                })
                            });
                            if dup {
                                self.flush(&mut pending, &mut base_vn, &mut out)?;
                            }
                            for w in &words {
                                invalidate_def(
                                    w.dst,
                                    &mut facts,
                                    &mut base_vn,
                                    &mut dropped,
                                    self.delta,
                                );
                            }
                            let clobbers_elem = dsts.contains(&elem);
                            pending.extend(words);
                            if clobbers_elem {
                                // The load overwrites its own element
                                // index; emit the regrouped load here,
                                // while the index still holds.
                                self.flush(&mut pending, &mut base_vn, &mut out)?;
                            }
                            continue;
                        }
                    }
                    // Anything else: pending loads land first, then the
                    // instruction is remapped verbatim. A use of a consumed
                    // address register means the address escaped the idiom.
                    self.flush(&mut pending, &mut base_vn, &mut out)?;
                    for u in instr.uses() {
                        if dropped.contains(&u) {
                            return Err(LayoutRewriteError::AddressEscapes { reg: u.0 });
                        }
                    }
                    let remapped = self.remap_instr(instr)?;
                    for d in instr.defs() {
                        invalidate_def(d, &mut facts, &mut base_vn, &mut dropped, self.delta);
                    }
                    out.push(Stmt::I(remapped));
                }
                Stmt::For {
                    var,
                    start,
                    end,
                    step,
                    body,
                } => {
                    self.flush(&mut pending, &mut base_vn, &mut out)?;
                    facts.clear();
                    base_vn.clear();
                    for o in [start, end] {
                        if let Operand::R(r) = o {
                            if dropped.contains(r) {
                                return Err(LayoutRewriteError::AddressEscapes { reg: r.0 });
                            }
                        }
                    }
                    let new_body = self.block(body)?;
                    dropped.remove(var);
                    out.push(Stmt::For {
                        var: self.remap(*var)?,
                        start: self.remap_op(*start)?,
                        end: self.remap_op(*end)?,
                        step: *step,
                        body: new_body,
                    });
                }
                Stmt::If {
                    pred,
                    negate,
                    then,
                    els,
                } => {
                    self.flush(&mut pending, &mut base_vn, &mut out)?;
                    facts.clear();
                    base_vn.clear();
                    out.push(Stmt::If {
                        pred: *pred,
                        negate: *negate,
                        then: self.block(then)?,
                        els: self.block(els)?,
                    });
                }
                Stmt::While { pred, negate, body } => {
                    self.flush(&mut pending, &mut base_vn, &mut out)?;
                    facts.clear();
                    base_vn.clear();
                    out.push(Stmt::While {
                        pred: *pred,
                        negate: *negate,
                        body: self.block(body)?,
                    });
                }
                Stmt::Sync => {
                    self.flush(&mut pending, &mut base_vn, &mut out)?;
                    facts.clear();
                    base_vn.clear();
                    out.push(Stmt::Sync);
                }
            }
        }
        self.flush(&mut pending, &mut base_vn, &mut out)?;
        Ok(out)
    }

    fn remap_instr(&self, i: &Instr) -> RwResult<Instr> {
        Ok(match i {
            Instr::Mov { dst, src } => Instr::Mov {
                dst: self.remap(*dst)?,
                src: self.remap_op(*src)?,
            },
            Instr::Special { dst, sr } => Instr::Special {
                dst: self.remap(*dst)?,
                sr: *sr,
            },
            Instr::Alu { op, dst, a, b } => Instr::Alu {
                op: *op,
                dst: self.remap(*dst)?,
                a: self.remap_op(*a)?,
                b: self.remap_op(*b)?,
            },
            Instr::Mad {
                float,
                dst,
                a,
                b,
                c,
            } => Instr::Mad {
                float: *float,
                dst: self.remap(*dst)?,
                a: self.remap_op(*a)?,
                b: self.remap_op(*b)?,
                c: self.remap_op(*c)?,
            },
            Instr::Unary { op, dst, a } => Instr::Unary {
                op: *op,
                dst: self.remap(*dst)?,
                a: self.remap_op(*a)?,
            },
            Instr::Setp { dst, cmp, a, b } => Instr::Setp {
                dst: *dst,
                cmp: *cmp,
                a: self.remap_op(*a)?,
                b: self.remap_op(*b)?,
            },
            Instr::Ld {
                dsts,
                space,
                base,
                offset,
            } => Instr::Ld {
                dsts: dsts
                    .iter()
                    .map(|d| self.remap(*d))
                    .collect::<RwResult<_>>()?,
                space: *space,
                base: self.remap(*base)?,
                offset: *offset,
            },
            Instr::St {
                srcs,
                space,
                base,
                offset,
            } => Instr::St {
                srcs: srcs
                    .iter()
                    .map(|s| self.remap_op(*s))
                    .collect::<RwResult<_>>()?,
                space: *space,
                base: self.remap(*base)?,
                offset: *offset,
            },
            Instr::Clock { dst } => Instr::Clock {
                dst: self.remap(*dst)?,
            },
        })
    }
}

fn check_spec(kernel: &Kernel, rw: &LayoutRewrite) -> RwResult<()> {
    let bad = |s: String| Err(LayoutRewriteError::BadSpec(s));
    if rw.old_buffers == 0 {
        return bad("old_buffers must be >= 1".into());
    }
    if rw.old_buffers > kernel.n_params {
        return bad(format!(
            "old_buffers={} exceeds kernel n_params={}",
            rw.old_buffers, kernel.n_params
        ));
    }
    if rw.new_strides.is_empty() {
        return bad("no new buffers".into());
    }
    for (i, &s) in rw.new_strides.iter().enumerate() {
        if s == 0 || s % 4 != 0 {
            return bad(format!(
                "new buffer {i} stride {s} not a positive word multiple"
            ));
        }
    }
    let mut seen_params = HashSet::new();
    let mut seen_dests = HashSet::new();
    for m in &rw.maps {
        if m.param >= rw.old_buffers {
            return bad(format!("map for param {} outside old_buffers", m.param));
        }
        if !seen_params.insert(m.param) {
            return bad(format!("duplicate map for param {}", m.param));
        }
        if m.stride == 0 || m.stride % 4 != 0 {
            return bad(format!(
                "old stride {} of param {} not a positive word multiple",
                m.stride, m.param
            ));
        }
        for &(o, d) in &m.words {
            if o % 4 != 0 || o + 4 > m.stride {
                return bad(format!(
                    "old offset {o} outside record of param {}",
                    m.param
                ));
            }
            if d.buffer >= rw.new_strides.len() {
                return bad(format!("dest buffer {} does not exist", d.buffer));
            }
            if d.offset % 4 != 0 || d.offset + 4 > rw.new_strides[d.buffer] {
                return bad(format!(
                    "dest offset {} outside new buffer {} (stride {})",
                    d.offset, d.buffer, rw.new_strides[d.buffer]
                ));
            }
            if !seen_dests.insert((d.buffer, d.offset)) {
                return bad(format!(
                    "two words map to buffer {} offset {}",
                    d.buffer, d.offset
                ));
            }
        }
    }
    if seen_params.len() != rw.old_buffers as usize {
        return bad(format!(
            "maps cover {} of {} replaced params",
            seen_params.len(),
            rw.old_buffers
        ));
    }
    Ok(())
}

/// Apply a [`LayoutRewrite`] to a kernel, or refuse with a precise reason.
///
/// On success the returned kernel takes `new_strides.len()` buffer-base
/// parameters followed by the original non-buffer parameters in order, and
/// every read of a rewritten buffer goes through regrouped, naturally
/// aligned loads of the new record. The result is only as trustworthy as
/// the caller's verification: run it through
/// [`verify_equiv`](crate::analyze::verify::verify_equiv) with an
/// element-indexed [`InputMap`](crate::analyze::verify::InputMap) before
/// believing it.
pub fn rewrite_layout(kernel: &Kernel, rw: &LayoutRewrite) -> Result<Kernel, LayoutRewriteError> {
    check_spec(kernel, rw)?;
    let delta = rw.new_strides.len() as i32 - rw.old_buffers as i32;
    let mut r = Rewriter {
        rw,
        map_for: rw.maps.iter().map(|m| (m.param, m)).collect(),
        delta,
        next_reg: (kernel.n_regs as i32 + delta) as u16,
    };
    let body = r.block(&kernel.body)?;
    let k = Kernel {
        name: if rw.tag.is_empty() {
            kernel.name.clone()
        } else {
            format!("{}__{}", kernel.name, rw.tag)
        },
        n_params: (kernel.n_params as i32 + delta) as u16,
        n_regs: r.next_reg,
        n_preds: kernel.n_preds,
        smem_bytes: kernel.smem_bytes,
        body,
    };
    k.validate();
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Pred;

    /// `out[i].x = buf[i*28 + 0] + buf[i*28 + 24]` with the canonical
    /// mad/ld idiom, params: buf, out, n.
    fn unopt_like() -> Kernel {
        let (buf, out, _n) = (Reg(0), Reg(1), Reg(2));
        let (i, a0, a1, x, m, o) = (Reg(3), Reg(4), Reg(5), Reg(6), Reg(7), Reg(8));
        let sum = Reg(9);
        Kernel {
            name: "unopt_like".into(),
            n_params: 3,
            n_regs: 10,
            n_preds: 0,
            smem_bytes: 0,
            body: vec![
                Stmt::I(Instr::Special {
                    dst: i,
                    sr: crate::ir::SpecialReg::TidX,
                }),
                Stmt::I(Instr::Mad {
                    float: false,
                    dst: a0,
                    a: Operand::R(i),
                    b: Operand::ImmU(28),
                    c: Operand::R(buf),
                }),
                Stmt::I(Instr::Ld {
                    dsts: vec![x],
                    space: MemSpace::Global,
                    base: a0,
                    offset: 0,
                }),
                Stmt::I(Instr::Mad {
                    float: false,
                    dst: a1,
                    a: Operand::R(i),
                    b: Operand::ImmU(28),
                    c: Operand::R(buf),
                }),
                Stmt::I(Instr::Ld {
                    dsts: vec![m],
                    space: MemSpace::Global,
                    base: a1,
                    offset: 24,
                }),
                Stmt::I(Instr::Alu {
                    op: crate::ir::AluOp::FAdd,
                    dst: sum,
                    a: Operand::R(x),
                    b: Operand::R(m),
                }),
                Stmt::I(Instr::Mad {
                    float: false,
                    dst: o,
                    a: Operand::R(i),
                    b: Operand::ImmU(4),
                    c: Operand::R(out),
                }),
                Stmt::I(Instr::St {
                    srcs: vec![Operand::R(sum)],
                    space: MemSpace::Global,
                    base: o,
                    offset: 0,
                }),
            ],
        }
    }

    fn pack2() -> LayoutRewrite {
        LayoutRewrite {
            tag: "pack2".into(),
            old_buffers: 1,
            new_strides: vec![8],
            maps: vec![BufferMap {
                param: 0,
                stride: 28,
                words: vec![
                    (
                        0,
                        FieldDest {
                            buffer: 0,
                            offset: 0,
                        },
                    ),
                    (
                        24,
                        FieldDest {
                            buffer: 0,
                            offset: 4,
                        },
                    ),
                ],
            }],
        }
    }

    #[test]
    fn merges_scalar_loads_into_vector_load() {
        let k = rewrite_layout(&unopt_like(), &pack2()).unwrap();
        assert_eq!(k.n_params, 3);
        assert_eq!(k.name, "unopt_like__pack2");
        // One base mad + one 2-word load replace two mads + two loads.
        let mut lds = Vec::new();
        k.visit_stmts(&mut |s| {
            if let Stmt::I(Instr::Ld { dsts, offset, .. }) = s {
                lds.push((dsts.len(), *offset));
            }
        });
        assert_eq!(lds, vec![(2, 0)]);
        let mut mads = 0;
        k.visit_stmts(&mut |s| {
            if let Stmt::I(Instr::Mad {
                float: false,
                b: Operand::ImmU(8),
                ..
            }) = s
            {
                mads += 1;
            }
        });
        assert_eq!(mads, 1);
    }

    #[test]
    fn unmapped_word_is_refused() {
        let mut rw = pack2();
        rw.maps[0].words.pop();
        assert_eq!(
            rewrite_layout(&unopt_like(), &rw),
            Err(LayoutRewriteError::UnmappedWord {
                param: 0,
                offset: 24
            })
        );
    }

    #[test]
    fn address_escape_is_refused() {
        let mut k = unopt_like();
        // Leak the matched address into arithmetic.
        k.body.insert(
            3,
            Stmt::I(Instr::Alu {
                op: crate::ir::AluOp::IAdd,
                dst: Reg(9),
                a: Operand::R(Reg(4)),
                b: Operand::ImmU(1),
            }),
        );
        assert_eq!(
            rewrite_layout(&k, &pack2()),
            Err(LayoutRewriteError::AddressEscapes { reg: 4 })
        );
    }

    #[test]
    fn residual_param_use_is_refused() {
        let mut k = unopt_like();
        k.body.push(Stmt::I(Instr::Mov {
            dst: Reg(9),
            src: Operand::R(Reg(0)),
        }));
        assert_eq!(
            rewrite_layout(&k, &pack2()),
            Err(LayoutRewriteError::ResidualParamUse { param: 0 })
        );
    }

    #[test]
    fn identity_detection() {
        assert!(!pack2().is_identity());
        let id = LayoutRewrite {
            tag: String::new(),
            old_buffers: 1,
            new_strides: vec![28],
            maps: vec![BufferMap {
                param: 0,
                stride: 28,
                words: vec![
                    (
                        0,
                        FieldDest {
                            buffer: 0,
                            offset: 0,
                        },
                    ),
                    (
                        24,
                        FieldDest {
                            buffer: 0,
                            offset: 24,
                        },
                    ),
                ],
            }],
        };
        assert!(id.is_identity());
    }

    #[test]
    fn segment_boundary_flushes_groups() {
        // Loads split across an If must not merge through it.
        let mut k = unopt_like();
        // Move the mass load inside an If.
        let ld_mass = k.body.remove(4);
        let mad_mass = k.body.remove(3);
        k.n_preds = 1;
        k.body.insert(
            3,
            Stmt::If {
                pred: Pred(0),
                negate: false,
                then: vec![mad_mass, ld_mass],
                els: vec![],
            },
        );
        let out = rewrite_layout(&k, &pack2()).unwrap();
        let mut widths = Vec::new();
        out.visit_stmts(&mut |s| {
            if let Stmt::I(Instr::Ld { dsts, .. }) = s {
                widths.push(dsts.len());
            }
        });
        assert_eq!(widths, vec![1, 1]);
    }

    fn members_and_padding(tiles: &[Tile]) -> Vec<(Vec<usize>, u32)> {
        tiles
            .iter()
            .map(|t| (t.members.clone(), t.padded_words))
            .collect()
    }

    #[test]
    fn unit_widths_tile_in_order() {
        assert_eq!(
            members_and_padding(&pack_tiles(&[1; 5], 2)),
            vec![(vec![0, 1], 2), (vec![2, 3], 2), (vec![4], 1)]
        );
        assert_eq!(
            members_and_padding(&pack_tiles(&[1; 7], 4)),
            vec![(vec![0, 1, 2, 3], 4), (vec![4, 5, 6], 4)]
        );
    }

    #[test]
    fn wide_fields_pack_first_and_are_never_split() {
        // a:1, b:1, v:3 -> {v, a} fills a 4-word tile, b rides alone.
        let tiles = pack_tiles(&[1, 1, 3], 4);
        assert_eq!(
            members_and_padding(&tiles),
            vec![(vec![2, 0], 4), (vec![1], 1)]
        );
        assert_eq!(tiles[0].used_words, 4);
    }
}
