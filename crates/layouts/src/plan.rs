//! Layout descriptors and read plans.
//!
//! A [`ReadPlan`] is the machine-readable answer to "how does a thread fetch
//! this particle's data under layout X?" — the kernel builders turn it into
//! IR loads, the coalescing analysis turns it into address streams, and the
//! device module turns it into buffers. The per-layout plans are exactly the
//! access patterns of the paper's Figures 3, 5, 7 and 9.

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

    /// The buffers this layout stores particles in.
    pub fn buffers(self) -> Vec<BufferKind> {
        match self {
            Layout::Unopt => vec![BufferKind::Packed28],
            Layout::AoS | Layout::AoaS => vec![BufferKind::Aligned32],
            Layout::SoA => vec![
                BufferKind::ScalarArray(Field::Px),
                BufferKind::ScalarArray(Field::Py),
                BufferKind::ScalarArray(Field::Pz),
                BufferKind::ScalarArray(Field::Vx),
                BufferKind::ScalarArray(Field::Vy),
                BufferKind::ScalarArray(Field::Vz),
                BufferKind::ScalarArray(Field::Mass),
            ],
            Layout::SoAoaS => vec![BufferKind::PosMass4, BufferKind::Velocity4],
        }
    }

    /// Bytes of device storage per particle (including padding elements).
    pub fn bytes_per_particle(self) -> u64 {
        match self {
            Layout::Unopt => 28,
            Layout::AoS | Layout::AoaS => 32,
            Layout::SoA => 28,
            Layout::SoAoaS => 32,
        }
    }

    /// The reads a thread issues to fetch **all seven** floats of particle
    /// `i` — the membench access pattern (paper Sec. III).
    pub fn read_plan_all(self) -> ReadPlan {
        let reads = match self {
            Layout::Unopt => scalar_reads(0, 28, &[0, 4, 8, 12, 16, 20, 24]),
            Layout::AoS => scalar_reads(0, 32, &[0, 4, 8, 12, 16, 20, 24]),
            Layout::SoA => (0..7)
                .map(|f| FieldRead {
                    buffer: f,
                    offset: 0,
                    words: 1,
                    stride: 4,
                })
                .collect(),
            Layout::AoaS => vec![
                FieldRead {
                    buffer: 0,
                    offset: 0,
                    words: 4,
                    stride: 32,
                },
                FieldRead {
                    buffer: 0,
                    offset: 16,
                    words: 4,
                    stride: 32,
                },
            ],
            Layout::SoAoaS => vec![
                FieldRead {
                    buffer: 0,
                    offset: 0,
                    words: 4,
                    stride: 16,
                },
                FieldRead {
                    buffer: 1,
                    offset: 0,
                    words: 4,
                    stride: 16,
                },
            ],
        };
        ReadPlan {
            layout: self,
            reads,
        }
    }

    /// The reads a thread issues to fetch **position + mass** of particle `i`
    /// — the force kernel's per-tile pattern. This is where the paper's
    /// access-frequency grouping pays: `SoAoaS` needs a single `float4`,
    /// while the ungrouped `AoaS` must pull both halves of the structure to
    /// reach the mass.
    pub fn read_plan_posmass(self) -> ReadPlan {
        let reads = match self {
            Layout::Unopt => scalar_reads(0, 28, &[0, 4, 8, 24]),
            Layout::AoS => scalar_reads(0, 32, &[0, 4, 8, 24]),
            Layout::SoA => vec![
                FieldRead {
                    buffer: 0,
                    offset: 0,
                    words: 1,
                    stride: 4,
                },
                FieldRead {
                    buffer: 1,
                    offset: 0,
                    words: 1,
                    stride: 4,
                },
                FieldRead {
                    buffer: 2,
                    offset: 0,
                    words: 1,
                    stride: 4,
                },
                FieldRead {
                    buffer: 6,
                    offset: 0,
                    words: 1,
                    stride: 4,
                },
            ],
            Layout::AoaS => vec![
                FieldRead {
                    buffer: 0,
                    offset: 0,
                    words: 4,
                    stride: 32,
                },
                FieldRead {
                    buffer: 0,
                    offset: 16,
                    words: 4,
                    stride: 32,
                },
            ],
            Layout::SoAoaS => vec![FieldRead {
                buffer: 0,
                offset: 0,
                words: 4,
                stride: 16,
            }],
        };
        ReadPlan {
            layout: self,
            reads,
        }
    }

    /// Where (buffer, byte offset within the particle's slot, word lane
    /// within the read) each of px/py/pz/mass lands when fetched via
    /// [`Layout::read_plan_posmass`] — used by kernel builders to pick the
    /// right destination registers.
    pub fn posmass_lanes(self) -> PosMassLanes {
        match self {
            // Scalar plans: reads arrive in order px, py, pz, mass.
            Layout::Unopt | Layout::AoS | Layout::SoA => PosMassLanes {
                px: (0, 0),
                py: (1, 0),
                pz: (2, 0),
                mass: (3, 0),
            },
            // AoaS: first float4 = (px,py,pz,vx), second = (vy,vz,mass,pad).
            Layout::AoaS => PosMassLanes {
                px: (0, 0),
                py: (0, 1),
                pz: (0, 2),
                mass: (1, 2),
            },
            // SoAoaS posmass float4 = (x,y,z,mass).
            Layout::SoAoaS => PosMassLanes {
                px: (0, 0),
                py: (0, 1),
                pz: (0, 2),
                mass: (0, 3),
            },
        }
    }
}

impl core::fmt::Display for Layout {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which of the hot fields sits in which (read index, word lane) of the
/// posmass read plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PosMassLanes {
    /// (read index, word index) of position x.
    pub px: (usize, usize),
    /// (read index, word index) of position y.
    pub py: (usize, usize),
    /// (read index, word index) of position z.
    pub pz: (usize, usize),
    /// (read index, word index) of mass.
    pub mass: (usize, usize),
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

/// The scalar fields, for naming SoA buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Field {
    Px,
    Py,
    Pz,
    Vx,
    Vy,
    Vz,
    Mass,
}

/// A device buffer a layout stores data in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BufferKind {
    /// Packed 28-byte records.
    Packed28,
    /// Aligned 32-byte records.
    Aligned32,
    /// One scalar array of the given field.
    ScalarArray(Field),
    /// Array of `{x,y,z,mass}` float4s.
    PosMass4,
    /// Array of `{vx,vy,vz,pad}` float4s.
    Velocity4,
}

impl BufferKind {
    /// Bytes per particle in this buffer.
    pub fn stride(self) -> u64 {
        match self {
            BufferKind::Packed28 => 28,
            BufferKind::Aligned32 => 32,
            BufferKind::ScalarArray(_) => 4,
            BufferKind::PosMass4 | BufferKind::Velocity4 => 16,
        }
    }
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

    /// Bytes per element over all synthesized buffers.
    pub fn bytes_per_element(&self) -> u64 {
        self.strides.iter().map(|&s| s as u64).sum()
    }

    /// The per-thread read plan of the synthesized layout: one
    /// [`FieldRead`] per maximal run of contiguous mapped words in each
    /// buffer, vector-widened to 2 or 4 words where alignment allows —
    /// the same grouping rule the IR rewrite pass applies.
    pub fn reads(&self) -> Vec<FieldRead> {
        let mut words: Vec<(usize, u32)> =
            self.fields.iter().map(|f| (f.buffer, f.offset)).collect();
        words.sort_unstable();
        let mut out = Vec::new();
        let mut i = 0;
        while i < words.len() {
            let (buf, start) = words[i];
            let mut len = 1u32;
            while i + (len as usize) < words.len()
                && words[i + len as usize] == (buf, start + 4 * len)
            {
                len += 1;
            }
            let stride = self.strides[buf];
            let mut at = 0u32;
            while at < len {
                let mut w = 1u32;
                for cand in [4u32, 2] {
                    let off = start + 4 * at;
                    if len - at >= cand
                        && off.is_multiple_of(4 * cand)
                        && stride.is_multiple_of(4 * cand)
                    {
                        w = cand;
                        break;
                    }
                }
                out.push(FieldRead {
                    buffer: buf,
                    offset: start + 4 * at,
                    words: w,
                    stride,
                });
                at += w;
            }
            i += len as usize;
        }
        out
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_posmass_tile_reads_as_one_float4() {
        // The synthesizer's soaoas-16 answer for the Gravit record: the four
        // hot words of the 28-byte record packed into one 16-byte tile.
        let l = SynthesizedLayout::new(
            "soaoas-16",
            vec![16],
            [0u32, 4, 8, 24]
                .iter()
                .enumerate()
                .map(|(i, &o)| SynthesizedField {
                    old_buffer: 0,
                    old_offset: o,
                    buffer: 0,
                    offset: 4 * i as u32,
                })
                .collect(),
        );
        assert_eq!(l.bytes_per_element(), 16);
        let reads = l.reads();
        assert_eq!(
            reads,
            vec![FieldRead {
                buffer: 0,
                offset: 0,
                words: 4,
                stride: 16
            }]
        );
    }

    #[test]
    fn synthesized_misaligned_words_stay_scalar() {
        // Three words at offsets 4..16 of a 16-byte record: 4 is not
        // 8-aligned, so the run splits scalar, vector2, scalar-free.
        let l = SynthesizedLayout::new(
            "tail",
            vec![16],
            (0..3)
                .map(|i| SynthesizedField {
                    old_buffer: 0,
                    old_offset: 4 * i,
                    buffer: 0,
                    offset: 4 + 4 * i,
                })
                .collect(),
        );
        let reads = l.reads();
        assert_eq!(reads.len(), 2);
        assert_eq!((reads[0].offset, reads[0].words), (4, 1));
        assert_eq!((reads[1].offset, reads[1].words), (8, 2));
    }

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
    fn all_plans_fetch_seven_words() {
        for l in Layout::ALL {
            let p = l.read_plan_all();
            let words = p.words();
            match l {
                Layout::Unopt | Layout::AoS | Layout::SoA => assert_eq!(words, 7, "{l}"),
                // Vector plans fetch the hidden padding element too.
                Layout::AoaS | Layout::SoAoaS => assert_eq!(words, 8, "{l}"),
            }
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
            let lanes = l.posmass_lanes();
            for (ri, wi) in [lanes.px, lanes.py, lanes.pz, lanes.mass] {
                assert!(ri < plan.reads.len(), "{l}");
                assert!((wi as u32) < plan.reads[ri].words, "{l}");
            }
        }
    }
}

/// Which (read index, word lane) of [`Layout::read_plan_posvel`] holds each
/// integration field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PosVelLanes {
    /// Position x/y/z.
    pub pos: [(usize, usize); 3],
    /// Velocity x/y/z.
    pub vel: [(usize, usize); 3],
}

impl Layout {
    /// The reads (and, reused with stores, writes) an **integration kernel**
    /// issues per particle: position and velocity, plus whatever padding or
    /// co-located fields the layout forces along (mass rides in the same
    /// vector for `AoaS`/`SoAoaS` and is written back unchanged).
    pub fn read_plan_posvel(self) -> ReadPlan {
        let reads = match self {
            Layout::Unopt => scalar_reads(0, 28, &[0, 4, 8, 12, 16, 20]),
            Layout::AoS => scalar_reads(0, 32, &[0, 4, 8, 12, 16, 20]),
            Layout::SoA => (0..6)
                .map(|f| FieldRead {
                    buffer: f,
                    offset: 0,
                    words: 1,
                    stride: 4,
                })
                .collect(),
            Layout::AoaS => vec![
                FieldRead {
                    buffer: 0,
                    offset: 0,
                    words: 4,
                    stride: 32,
                },
                FieldRead {
                    buffer: 0,
                    offset: 16,
                    words: 4,
                    stride: 32,
                },
            ],
            Layout::SoAoaS => vec![
                FieldRead {
                    buffer: 0,
                    offset: 0,
                    words: 4,
                    stride: 16,
                },
                FieldRead {
                    buffer: 1,
                    offset: 0,
                    words: 4,
                    stride: 16,
                },
            ],
        };
        ReadPlan {
            layout: self,
            reads,
        }
    }

    /// Lane mapping for [`Layout::read_plan_posvel`].
    pub fn posvel_lanes(self) -> PosVelLanes {
        match self {
            // Scalar plans read px,py,pz,vx,vy,vz in order.
            Layout::Unopt | Layout::AoS | Layout::SoA => PosVelLanes {
                pos: [(0, 0), (1, 0), (2, 0)],
                vel: [(3, 0), (4, 0), (5, 0)],
            },
            // AoaS: (px,py,pz,vx) then (vy,vz,mass,pad).
            Layout::AoaS => PosVelLanes {
                pos: [(0, 0), (0, 1), (0, 2)],
                vel: [(0, 3), (1, 0), (1, 1)],
            },
            // SoAoaS: (x,y,z,mass) then (vx,vy,vz,pad).
            Layout::SoAoaS => PosVelLanes {
                pos: [(0, 0), (0, 1), (0, 2)],
                vel: [(1, 0), (1, 1), (1, 2)],
            },
        }
    }
}

#[cfg(test)]
mod posvel_tests {
    use super::*;

    #[test]
    fn posvel_plans_cover_six_words_plus_ride_alongs() {
        for l in Layout::ALL {
            let p = l.read_plan_posvel();
            match l {
                Layout::Unopt | Layout::AoS | Layout::SoA => assert_eq!(p.words(), 6, "{l}"),
                Layout::AoaS | Layout::SoAoaS => assert_eq!(p.words(), 8, "{l}"),
            }
        }
    }

    #[test]
    fn posvel_lanes_index_real_words() {
        for l in Layout::ALL {
            let plan = l.read_plan_posvel();
            let lanes = l.posvel_lanes();
            for (ri, wi) in lanes.pos.iter().chain(lanes.vel.iter()) {
                assert!(*ri < plan.reads.len(), "{l}");
                assert!((*wi as u32) < plan.reads[*ri].words, "{l}");
            }
            // All six lanes distinct.
            let mut all: Vec<(usize, usize)> = lanes.pos.to_vec();
            all.extend_from_slice(&lanes.vel);
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
