//! Layout descriptors and read plans.
//!
//! Each [`Layout`] is declared once, as one entry of the `PLACEMENTS`
//! table: its buffers' record strides, the `(buffer, byte offset)` slot of
//! each of the seven record words, and whether threads read it with 128-bit
//! vectors. The buffer list, the read plans, the kernel builders' register
//! lanes ([`ReadPlan::lane`]) and the device image ([`crate::device`]) are
//! all derived from that one table.
//!
//! A [`ReadPlan`] is the machine-readable answer to "how does a thread fetch
//! this particle's data under layout X?" — the kernel builders turn it into
//! IR loads, and the coalescing analysis turns it into address streams. The
//! per-layout plans are exactly the access patterns of the paper's Figures
//! 3, 5, 7 and 9.

use crate::host::Particle;
use serde::{Deserialize, Serialize};

/// The memory layouts compared in the paper (Fig. 10's x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layout {
    /// Original Gravit: packed 28-byte array of structures (Sec. II-A,
    /// labeled "unopt" in Fig. 10).
    Unopt,
    /// 16-byte-aligned 32-byte structure accessed with scalar loads — the
    /// alignment alone, without vector accesses.
    AoS,
    /// Structure of arrays: seven scalar arrays (Sec. II-B).
    SoA,
    /// Array of aligned structures: two 128-bit loads per particle
    /// (Sec. II-C).
    AoaS,
    /// Structure of arrays of aligned structures: the paper's contribution
    /// (Sec. II-D).
    SoAoaS,
}

/// Where a layout puts the particle record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Placement {
    /// The layout's buffers, in kernel parameter order.
    pub buffers: &'static [Buffer],
    /// `(buffer, byte offset)` of each record word, in [`Particle::fields`]
    /// order. A record slot no word maps to is padding, stored as 0.0.
    pub slots: [(usize, u32); 7],
    /// Threads read the layout with one 128-bit vector per 16-byte chunk
    /// instead of one scalar per word.
    pub vector: bool,
}

impl Placement {
    /// The record word at each 4-byte slot of buffer `buffer`, in offset
    /// order; `None` is a padding slot.
    pub fn record(&self, buffer: usize) -> impl Iterator<Item = Option<usize>> + '_ {
        (0..self.buffers[buffer].stride)
            .step_by(4)
            .map(move |off| self.slots.iter().position(|&s| s == (buffer, off)))
    }
}

/// Word `k` at byte `4k` of one buffer: the packed and the aligned record.
const IN_ORDER: [(usize, u32); 7] = [(0, 0), (0, 4), (0, 8), (0, 12), (0, 16), (0, 20), (0, 24)];

/// A table entry's buffer of `stride`-byte records.
const fn buffer(name: &'static str, stride: u32) -> Buffer {
    Buffer { name, stride }
}

/// Every layout's placement, in [`Layout::ALL`] order.
const PLACEMENTS: [Placement; 5] = [
    // Unopt (Fig. 2): the packed 28-byte record, read one scalar at a time.
    Placement {
        buffers: &[buffer("Packed28", 28)],
        slots: IN_ORDER,
        vector: false,
    },
    // AoS: Fig. 6's 32-byte aligned record (pad word at byte 28), read as
    // scalars.
    Placement {
        buffers: &[buffer("Aligned32", 32)],
        slots: IN_ORDER,
        vector: false,
    },
    // SoA (Fig. 4): one 4-byte array per word.
    Placement {
        buffers: &[
            buffer("ScalarArray(Px)", 4),
            buffer("ScalarArray(Py)", 4),
            buffer("ScalarArray(Pz)", 4),
            buffer("ScalarArray(Vx)", 4),
            buffer("ScalarArray(Vy)", 4),
            buffer("ScalarArray(Vz)", 4),
            buffer("ScalarArray(Mass)", 4),
        ],
        slots: [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)],
        vector: false,
    },
    // AoaS (Fig. 6): the aligned record as two float4s, (px, py, pz, vx)
    // and (vy, vz, mass, pad).
    Placement {
        buffers: &[buffer("Aligned32", 32)],
        slots: IN_ORDER,
        vector: true,
    },
    // SoAoaS (Fig. 8): a hot (x, y, z, mass) and a cold (vx, vy, vz, pad)
    // float4 array, grouped by access frequency.
    Placement {
        buffers: &[buffer("PosMass4", 16), buffer("Velocity4", 16)],
        slots: [(0, 0), (0, 4), (0, 8), (1, 0), (1, 4), (1, 8), (0, 12)],
        vector: true,
    },
];

impl Layout {
    /// All layouts in the order the paper plots them.
    pub const ALL: [Layout; 5] = [
        Layout::Unopt,
        Layout::AoS,
        Layout::SoA,
        Layout::AoaS,
        Layout::SoAoaS,
    ];

    /// Label used in tables/figures.
    pub fn label(self) -> &'static str {
        match self {
            Layout::Unopt => "unopt",
            Layout::AoS => "AoS",
            Layout::SoA => "SoA",
            Layout::AoaS => "AoaS",
            Layout::SoAoaS => "SoAoaS",
        }
    }

    /// Where this layout puts the particle record.
    pub(crate) fn placement(self) -> &'static Placement {
        &PLACEMENTS[self as usize]
    }

    /// The buffers this layout stores particles in.
    pub fn buffers(self) -> Vec<Buffer> {
        self.placement().buffers.to_vec()
    }

    /// The reads a thread issues to fetch **all seven** floats of particle
    /// `i` — the membench access pattern (paper Sec. III).
    pub fn read_plan_all(self) -> ReadPlan {
        self.read_plan(&[0, 1, 2, 3, 4, 5, 6])
    }

    /// The reads a thread issues to fetch **position + mass** of particle `i`
    /// — the force kernel's per-tile pattern. This is where the paper's
    /// access-frequency grouping pays: `SoAoaS` needs a single `float4`,
    /// while the ungrouped `AoaS` must pull both halves of the structure to
    /// reach the mass.
    pub fn read_plan_posmass(self) -> ReadPlan {
        self.read_plan(&Particle::POSMASS)
    }

    /// The reads (and, reused with stores, writes) an **integration kernel**
    /// issues per particle: position and velocity, plus whatever padding or
    /// co-located fields the layout forces along (mass rides in the same
    /// vector for `AoaS`/`SoAoaS` and is written back unchanged).
    pub fn read_plan_posvel(self) -> ReadPlan {
        let ([x, y, z], [vx, vy, vz]) = (Particle::POS, Particle::VEL);
        self.read_plan(&[x, y, z, vx, vy, vz])
    }

    /// The reads that fetch record `words` (indices into
    /// [`Particle::fields`]): a scalar layout issues one 1-word read per
    /// word at its slot, in request order; a vector layout issues one
    /// 4-word read per 16-byte-aligned chunk holding a requested word, in
    /// first-request order.
    fn read_plan(self, words: &[usize]) -> ReadPlan {
        let p = self.placement();
        let mut reads: Vec<FieldRead> = Vec::new();
        for &w in words {
            let (buffer, offset) = p.slots[w];
            let (offset, width) = if p.vector {
                (offset - offset % 16, 4)
            } else {
                (offset, 1)
            };
            let read = FieldRead {
                buffer,
                offset,
                words: width,
                stride: p.buffers[buffer].stride,
            };
            if !reads.contains(&read) {
                reads.push(read);
            }
        }
        ReadPlan {
            layout: self,
            reads,
        }
    }
}

impl core::fmt::Display for Layout {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// One device buffer of a layout: an array of fixed-size records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Buffer {
    name: &'static str,
    stride: u32,
}

impl Buffer {
    /// The buffer's name in memory plans, e.g. `PosMass4`.
    pub fn name(self) -> &'static str {
        self.name
    }

    /// Bytes per particle in this buffer.
    pub fn stride(self) -> u64 {
        u64::from(self.stride)
    }
}

/// One 32-bit read per byte offset of a record of `stride` bytes in `buffer`.
pub fn scalar_reads(buffer: usize, stride: u32, offsets: &[u32]) -> Vec<FieldRead> {
    offsets
        .iter()
        .map(|&o| FieldRead {
            buffer,
            offset: o,
            words: 1,
            stride,
        })
        .collect()
}

/// Where one word of the *old* record lands in a synthesized layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SynthesizedField {
    /// Buffer index (kernel parameter order) in the old layout.
    pub old_buffer: usize,
    /// Byte offset of the word within the old record.
    pub old_offset: u32,
    /// Buffer index in the synthesized layout.
    pub buffer: usize,
    /// Byte offset within the synthesized record.
    pub offset: u32,
}

/// A layout *synthesized* by the static analyzer rather than drawn from the
/// fixed [`Layout`] menu: arbitrary per-buffer record strides plus a word
/// map from the old layout. Old words absent from `fields` are cold — the
/// synthesized layout drops them (the hot/cold split of Sec. IV).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SynthesizedLayout {
    /// Synthesis tag, e.g. `soaoas-16`.
    pub tag: String,
    /// Bytes per element in each synthesized buffer.
    pub strides: Vec<u32>,
    /// Destination of every hot word of the old layout.
    pub fields: Vec<SynthesizedField>,
}

impl SynthesizedLayout {
    /// Build a synthesized layout; panics on malformed specs (empty, word
    /// out of its buffer's stride, or two words landing on the same slot).
    pub fn new(
        tag: impl Into<String>,
        strides: Vec<u32>,
        fields: Vec<SynthesizedField>,
    ) -> SynthesizedLayout {
        assert!(!strides.is_empty(), "synthesized layout with no buffers");
        assert!(
            strides.iter().all(|&s| s > 0 && s % 4 == 0),
            "strides must be positive word multiples"
        );
        for f in &fields {
            assert!(f.buffer < strides.len(), "field buffer out of range");
            assert!(
                f.offset + 4 <= strides[f.buffer],
                "field offset outside its record"
            );
        }
        let mut slots: Vec<(usize, u32)> = fields.iter().map(|f| (f.buffer, f.offset)).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), fields.len(), "two fields share a slot");
        SynthesizedLayout {
            tag: tag.into(),
            strides,
            fields,
        }
    }
}

/// One read a thread issues for its particle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldRead {
    /// Index into the layout's buffer list.
    pub buffer: usize,
    /// Byte offset within the particle's slot in that buffer.
    pub offset: u32,
    /// Width in 32-bit words (1, 2 or 4).
    pub words: u32,
    /// Byte stride between consecutive particles in that buffer.
    pub stride: u32,
}

impl FieldRead {
    /// Byte address of this read for particle `i` in a buffer at `base`.
    pub fn address(&self, base: u64, i: u64) -> u64 {
        base + i * self.stride as u64 + self.offset as u64
    }
}

/// All reads a thread performs per particle under one layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadPlan {
    /// The layout this plan belongs to.
    pub layout: Layout,
    /// The reads, in issue order.
    pub reads: Vec<FieldRead>,
}

impl ReadPlan {
    /// Number of load instructions per particle.
    pub fn n_reads(&self) -> usize {
        self.reads.len()
    }

    /// Total 32-bit words fetched per particle.
    pub fn words(&self) -> u32 {
        self.reads.iter().map(|r| r.words).sum()
    }

    /// `(read index, word lane within the read)` that delivers record word
    /// `word` (an index into [`Particle::fields`]) — where a kernel builder
    /// finds that field among a read's destination registers.
    ///
    /// Panics if the plan does not fetch the word.
    pub fn lane(&self, word: usize) -> (usize, usize) {
        let (buffer, offset) = self.layout.placement().slots[word];
        self.reads
            .iter()
            .enumerate()
            .find_map(|(i, r)| {
                let span = r.offset..r.offset + 4 * r.words;
                (r.buffer == buffer && span.contains(&offset))
                    .then_some((i, ((offset - r.offset) / 4) as usize))
            })
            .unwrap_or_else(|| panic!("{} plan does not fetch word {word}", self.layout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn synthesized_slot_collision_rejected() {
        SynthesizedLayout::new(
            "bad",
            vec![8],
            vec![
                SynthesizedField {
                    old_buffer: 0,
                    old_offset: 0,
                    buffer: 0,
                    offset: 0,
                },
                SynthesizedField {
                    old_buffer: 0,
                    old_offset: 4,
                    buffer: 0,
                    offset: 0,
                },
            ],
        );
    }

    #[test]
    fn placements_are_well_formed() {
        for l in Layout::ALL {
            let p = l.placement();
            let mut slots = p.slots.to_vec();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(slots.len(), 7, "{l}: two words share a slot");
            for (b, off) in p.slots {
                let stride = p.buffers[b].stride;
                assert!(
                    off % 4 == 0 && off + 4 <= stride,
                    "{l}: slot outside its record"
                );
            }
            if p.vector {
                assert!(
                    p.buffers.iter().all(|b| b.stride % 16 == 0),
                    "{l}: float4 stride"
                );
            }
        }
    }

    #[test]
    fn all_plans_fetch_seven_words() {
        for l in Layout::ALL {
            // Vector plans fetch the hidden padding element too.
            let expected = if l.placement().vector { 8 } else { 7 };
            assert_eq!(l.read_plan_all().words(), expected, "{l}");
        }
    }

    #[test]
    fn read_counts_match_the_paper_figures() {
        assert_eq!(Layout::Unopt.read_plan_all().n_reads(), 7); // Fig. 3
        assert_eq!(Layout::SoA.read_plan_all().n_reads(), 7); // Fig. 5
        assert_eq!(Layout::AoaS.read_plan_all().n_reads(), 2); // Fig. 7
        assert_eq!(Layout::SoAoaS.read_plan_all().n_reads(), 2); // Fig. 9
    }

    #[test]
    fn grouping_pays_in_the_posmass_plan() {
        // The Sec. II-D claim: frequency grouping halves the hot-path reads.
        assert_eq!(Layout::SoAoaS.read_plan_posmass().n_reads(), 1);
        assert_eq!(Layout::AoaS.read_plan_posmass().n_reads(), 2);
    }

    #[test]
    fn addresses_follow_stride_and_offset() {
        let r = FieldRead {
            buffer: 0,
            offset: 24,
            words: 1,
            stride: 28,
        };
        assert_eq!(r.address(1000, 0), 1024);
        assert_eq!(r.address(1000, 3), 1000 + 84 + 24);
    }

    #[test]
    fn buffer_lists_match_plan_indices() {
        for l in Layout::ALL {
            let bufs = l.buffers();
            for plan in [l.read_plan_all(), l.read_plan_posmass()] {
                for r in &plan.reads {
                    assert!(r.buffer < bufs.len(), "{l}: read references missing buffer");
                    assert_eq!(
                        bufs[r.buffer].stride(),
                        r.stride as u64,
                        "{l}: stride disagrees with buffer kind"
                    );
                }
            }
        }
    }

    #[test]
    fn vector_reads_are_aligned_within_slot() {
        for l in Layout::ALL {
            for plan in [l.read_plan_all(), l.read_plan_posmass()] {
                for r in &plan.reads {
                    let width = r.words * 4;
                    assert_eq!(r.offset % width, 0, "{l}: misaligned read in plan");
                    assert_eq!(r.stride % width, 0, "{l}: stride breaks alignment for i>0");
                }
            }
        }
    }

    #[test]
    fn posmass_lanes_point_at_real_words() {
        for l in Layout::ALL {
            let plan = l.read_plan_posmass();
            for w in Particle::POSMASS {
                let (ri, wi) = plan.lane(w);
                assert!(ri < plan.reads.len(), "{l}");
                assert!((wi as u32) < plan.reads[ri].words, "{l}");
                let r = plan.reads[ri];
                assert_eq!(l.placement().slots[w], (r.buffer, r.offset + 4 * wi as u32));
            }
        }
    }
}

#[cfg(test)]
mod posvel_tests {
    use super::*;

    #[test]
    fn posvel_plans_cover_six_words_plus_ride_alongs() {
        for l in Layout::ALL {
            let expected = if l.placement().vector { 8 } else { 6 };
            assert_eq!(l.read_plan_posvel().words(), expected, "{l}");
        }
    }

    #[test]
    fn posvel_lanes_index_real_words() {
        for l in Layout::ALL {
            let plan = l.read_plan_posvel();
            let mut all: Vec<(usize, usize)> = Particle::POS
                .iter()
                .chain(&Particle::VEL)
                .map(|&w| plan.lane(w))
                .collect();
            for (ri, wi) in &all {
                assert!(*ri < plan.reads.len(), "{l}");
                assert!((*wi as u32) < plan.reads[*ri].words, "{l}");
            }
            // All six lanes distinct.
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 6, "{l}: overlapping integration lanes");
        }
    }

    #[test]
    fn posvel_plan_buffers_and_strides_are_consistent() {
        for l in Layout::ALL {
            let bufs = l.buffers();
            for r in &l.read_plan_posvel().reads {
                assert!(r.buffer < bufs.len(), "{l}");
                assert_eq!(bufs[r.buffer].stride(), r.stride as u64, "{l}");
                assert_eq!(r.offset % (r.words * 4), 0, "{l}: misaligned");
            }
        }
    }
}
