//! The paper's three-step layout procedure (Sec. IV), generalized from the
//! Gravit particle to arbitrary large structures:
//!
//! 1. **Group** data in portions with similar access frequencies.
//! 2. **Split** structures that exceed the alignment boundary into smaller
//!    sub-structures of 64 or 128 bits that can be aligned.
//! 3. **Organize** the aligned sub-structures in arrays to allow for
//!    coalesced reads.
//!
//! The output is a [`LayoutPlan`]: one array of aligned sub-structures per
//! bin, plus a transaction count comparing it against the naive packed
//! array-of-structures baseline. Step 2 is [`gpu_sim::ir::layout::pack_tiles`],
//! which also tiles the layout synthesizer's SoAoaS candidates, and both
//! layouts are priced as read plans by
//! [`particle_layouts::streams::price_reads`], as the paper's Figs. 3–9
//! transaction tables are.

use gpu_sim::ir::layout::pack_tiles;
use gpu_sim::DriverModel;
use particle_layouts::plan::scalar_reads;
use particle_layouts::streams::price_reads;
use particle_layouts::FieldRead;
use serde::{Deserialize, Serialize};

/// Access-frequency class of a field — the grouping key of step 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AccessFreq {
    /// Read in the innermost loop (every element-interaction).
    Hot,
    /// Read once per outer iteration.
    Warm,
    /// Rarely read (e.g. only during integration).
    Cold,
}

/// One field of the structure being optimized.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldSpec {
    /// Field name, for reports.
    pub name: String,
    /// Width in 32-bit words (1–4).
    pub words: u32,
    /// Access-frequency class.
    pub freq: AccessFreq,
}

impl FieldSpec {
    /// A 32-bit scalar field.
    pub fn scalar(name: impl Into<String>, freq: AccessFreq) -> FieldSpec {
        FieldSpec {
            name: name.into(),
            words: 1,
            freq,
        }
    }

    /// A wider field (2–4 words, e.g. a double or a small vector).
    pub fn wide(name: impl Into<String>, words: u32, freq: AccessFreq) -> FieldSpec {
        assert!((1..=4).contains(&words), "field width must be 1–4 words");
        FieldSpec {
            name: name.into(),
            words,
            freq,
        }
    }
}

/// The structure to optimize.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructSchema {
    /// Fields in declaration order.
    pub fields: Vec<FieldSpec>,
}

impl StructSchema {
    /// Build a schema; panics on empty or oversized-field schemas.
    pub fn new(fields: Vec<FieldSpec>) -> StructSchema {
        assert!(!fields.is_empty(), "empty schema");
        for f in &fields {
            assert!(
                (1..=4).contains(&f.words),
                "field {} has invalid width",
                f.name
            );
        }
        StructSchema { fields }
    }

    /// Total payload words.
    pub fn words(&self) -> u32 {
        self.fields.iter().map(|f| f.words).sum()
    }

    /// Gravit's particle record (7 floats), the paper's running example.
    pub fn gravit_particle() -> StructSchema {
        StructSchema::new(vec![
            FieldSpec::scalar("px", AccessFreq::Hot),
            FieldSpec::scalar("py", AccessFreq::Hot),
            FieldSpec::scalar("pz", AccessFreq::Hot),
            FieldSpec::scalar("vx", AccessFreq::Cold),
            FieldSpec::scalar("vy", AccessFreq::Cold),
            FieldSpec::scalar("vz", AccessFreq::Cold),
            FieldSpec::scalar("mass", AccessFreq::Hot),
        ])
    }
}

/// One aligned sub-structure (step 2): a bin of fields padded to an
/// alignable size (1, 2 or 4 words), stored as its own array (step 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubStruct {
    /// Indices into the schema's field list, in placement order.
    pub fields: Vec<usize>,
    /// Access-frequency class of every member.
    pub freq: AccessFreq,
    /// Payload words.
    pub used_words: u32,
    /// Padded (alignable) words: 1, 2 or 4.
    pub padded_words: u32,
}

impl SubStruct {
    /// Padding words added for alignment.
    pub fn padding(&self) -> u32 {
        self.padded_words - self.used_words
    }
}

/// The optimized layout (the SoAoaS of the input schema).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayoutPlan {
    /// The input schema.
    pub schema: StructSchema,
    /// The aligned sub-structures, hot groups first.
    pub groups: Vec<SubStruct>,
    /// Per-half-warp transactions for a full-record fetch, naive packed AoS.
    pub baseline_transactions: u32,
    /// Per-half-warp transactions for a full-record fetch, optimized layout.
    pub optimized_transactions: u32,
}

impl LayoutPlan {
    /// Predicted improvement factor in transactions per full-record fetch —
    /// the first-order effect behind the paper's Fig. 10.
    pub fn transaction_improvement(&self) -> f64 {
        self.baseline_transactions as f64 / self.optimized_transactions.max(1) as f64
    }

    /// Extra storage from padding, as a fraction of the payload ("the memory
    /// usage is slightly increased").
    pub fn padding_overhead(&self) -> f64 {
        let used: u32 = self.groups.iter().map(|g| g.used_words).sum();
        let padded: u32 = self.groups.iter().map(|g| g.padded_words).sum();
        (padded - used) as f64 / used as f64
    }

    /// Loads a thread issues per full-record fetch under the plan.
    pub fn loads_per_record(&self) -> usize {
        self.groups.len()
    }
}

/// Run the three-step procedure on a schema.
pub fn optimize_layout(schema: &StructSchema) -> LayoutPlan {
    // Steps 1 and 2: group by access frequency (hot first), then split each
    // group into 128-bit sub-structures (first fit decreasing), each padded
    // to an alignable 1, 2 or 4 words.
    let mut groups: Vec<SubStruct> = Vec::new();
    for freq in [AccessFreq::Hot, AccessFreq::Warm, AccessFreq::Cold] {
        let members: Vec<usize> = (0..schema.fields.len())
            .filter(|&i| schema.fields[i].freq == freq)
            .collect();
        let widths: Vec<u32> = members.iter().map(|&i| schema.fields[i].words).collect();
        for t in pack_tiles(&widths, 4) {
            groups.push(SubStruct {
                fields: t.members.iter().map(|&m| members[m]).collect(),
                freq,
                used_words: t.used_words,
                padded_words: t.padded_words,
            });
        }
    }

    // Step 3: each group becomes an array of aligned records. Price a
    // full-record fetch from both layouts under the CC 1.0 protocol, the
    // hardware rule the paper's figures assume. The naive packed array of
    // structures reads every word as a scalar at the record stride (a wide
    // field in a packed struct may be misaligned for a vector access, so
    // the original Gravit code reads scalars); each group is one padded
    // vector read from its own array.
    let offsets: Vec<u32> = (0..schema.words()).map(|w| 4 * w).collect();
    let baseline = scalar_reads(0, 4 * schema.words(), &offsets);
    let optimized: Vec<FieldRead> = groups
        .iter()
        .enumerate()
        .map(|(buffer, g)| FieldRead {
            buffer,
            offset: 0,
            words: g.padded_words,
            stride: 4 * g.padded_words,
        })
        .collect();
    let transactions =
        |reads: &[FieldRead]| price_reads(reads, DriverModel::Cuda10).transactions as u32;

    LayoutPlan {
        schema: schema.clone(),
        baseline_transactions: transactions(&baseline),
        optimized_transactions: transactions(&optimized),
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gravit_particle_becomes_the_papers_soaoas() {
        let plan = optimize_layout(&StructSchema::gravit_particle());
        assert_eq!(plan.groups.len(), 2, "hot posmass + cold velocity");
        let hot = &plan.groups[0];
        assert_eq!(hot.freq, AccessFreq::Hot);
        assert_eq!(hot.used_words, 4); // px py pz mass
        assert_eq!(hot.padded_words, 4);
        assert_eq!(hot.padding(), 0);
        let cold = &plan.groups[1];
        assert_eq!(cold.used_words, 3); // vx vy vz
        assert_eq!(cold.padded_words, 4); // + the hidden padding element
        assert_eq!(cold.padding(), 1);
        // Fig. 3 vs Fig. 9: 7×16 = 112 transactions down to 2×2 = 4.
        assert_eq!(plan.baseline_transactions, 112);
        assert_eq!(plan.optimized_transactions, 4);
        assert!((plan.transaction_improvement() - 28.0).abs() < 1e-9);
        assert_eq!(plan.loads_per_record(), 2);
        assert!((plan.padding_overhead() - 1.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn single_hot_scalar_stays_one_array() {
        let plan = optimize_layout(&StructSchema::new(vec![FieldSpec::scalar(
            "x",
            AccessFreq::Hot,
        )]));
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].padded_words, 1);
        // A single coalesced scalar array: 1 transaction either way.
        assert_eq!(plan.optimized_transactions, 1);
    }

    #[test]
    fn large_structure_splits_into_multiple_bins() {
        // 9 hot scalars: 3 bins (4+4+1).
        let fields: Vec<FieldSpec> = (0..9)
            .map(|i| FieldSpec::scalar(format!("f{i}"), AccessFreq::Hot))
            .collect();
        let plan = optimize_layout(&StructSchema::new(fields));
        assert_eq!(plan.groups.len(), 3);
        let sizes: Vec<u32> = plan.groups.iter().map(|g| g.used_words).collect();
        assert_eq!(sizes.iter().sum::<u32>(), 9);
        assert!(plan.groups.iter().all(|g| g.padded_words <= 4));
    }

    #[test]
    fn wide_fields_pack_first_fit_decreasing() {
        let plan = optimize_layout(&StructSchema::new(vec![
            FieldSpec::scalar("a", AccessFreq::Hot),
            FieldSpec::wide("v", 3, AccessFreq::Hot),
            FieldSpec::wide("w", 2, AccessFreq::Hot),
        ]));
        // FFD: v(3)+a(1) → bin of 4; w(2) → bin of 2. No padding at all.
        assert_eq!(plan.groups.len(), 2);
        assert_eq!(plan.padding_overhead(), 0.0);
    }

    #[test]
    fn frequency_classes_never_mix() {
        let plan = optimize_layout(&StructSchema::new(vec![
            FieldSpec::scalar("h1", AccessFreq::Hot),
            FieldSpec::scalar("c1", AccessFreq::Cold),
            FieldSpec::scalar("h2", AccessFreq::Hot),
            FieldSpec::scalar("w1", AccessFreq::Warm),
        ]));
        for g in &plan.groups {
            let freqs: Vec<AccessFreq> = g
                .fields
                .iter()
                .map(|&i| plan.schema.fields[i].freq)
                .collect();
            assert!(
                freqs.iter().all(|&f| f == g.freq),
                "mixed-frequency bin: {g:?}"
            );
        }
        // Hot groups come first.
        assert_eq!(plan.groups[0].freq, AccessFreq::Hot);
    }

    #[test]
    fn every_field_is_placed_exactly_once() {
        let schema = StructSchema::new(
            (0..13)
                .map(|i| {
                    FieldSpec::scalar(
                        format!("f{i}"),
                        if i % 3 == 0 {
                            AccessFreq::Hot
                        } else {
                            AccessFreq::Cold
                        },
                    )
                })
                .collect(),
        );
        let plan = optimize_layout(&schema);
        let mut placed: Vec<usize> = plan.groups.iter().flat_map(|g| g.fields.clone()).collect();
        placed.sort_unstable();
        assert_eq!(placed, (0..13).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn empty_schema_rejected() {
        StructSchema::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn oversized_field_rejected() {
        FieldSpec::wide("huge", 5, AccessFreq::Hot);
    }
}
