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
//! bin, plus a transaction analysis (via [`gpu_sim::coalesce`]) comparing it
//! against the naive packed array-of-structures baseline.

use gpu_sim::coalesce::{coalesce_half_warp, AccessWidth};
use gpu_sim::DriverModel;
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

/// Derive the record schema of the dominant packed buffer straight from an
/// analysis report — the access-summary path that replaces the hand-coded
/// Gravit schema whenever the interpreter attributed the loads.
///
/// Load sites are grouped by
/// [`buffer_param`](gpu_sim::analyze::AccessSummary::buffer_param); the buffer with the
/// widest record whose sites agree on one positive lane stride becomes the
/// schema: each read word is a hot scalar field (named by its byte offset),
/// each never-read word a cold one. Field *identity* (px vs. mass) is
/// unknowable statically, but the three-step procedure only needs widths
/// and frequencies, so the derived plan prices identically to the
/// hand-written one.
pub fn schema_from_report(report: &gpu_sim::analyze::AnalysisReport) -> Option<StructSchema> {
    use std::collections::BTreeMap;
    /// Stride plus raw `(site lo, word offset)` pairs; `None` = poisoned.
    type BufAcc = Option<(u32, Vec<(u64, u32)>)>;
    let mut bufs: BTreeMap<u16, BufAcc> = BTreeMap::new();
    let mut lo_by_param: BTreeMap<u16, u64> = BTreeMap::new();
    for acc in &report.accesses {
        if acc.space != gpu_sim::ir::MemSpace::Global || !acc.is_load {
            continue;
        }
        let Some(p) = acc.buffer_param else { continue };
        let (Some(stride), Some((lo, _)), true) = (acc.lane_stride, acc.addr_range, acc.exact)
        else {
            bufs.insert(p, None);
            continue;
        };
        if stride <= 0 || stride % 4 != 0 {
            bufs.insert(p, None);
            continue;
        }
        let e = lo_by_param.entry(p).or_insert(lo);
        *e = (*e).min(lo);
        match bufs
            .entry(p)
            .or_insert_with(|| Some((stride as u32, Vec::new())))
        {
            Some((s, words)) if *s == stride as u32 => {
                for w in 0..acc.width_bytes / 4 {
                    words.push((lo, 4 * w));
                }
            }
            slot => *slot = None,
        }
    }
    // Offsets relative to the lowest site of the buffer (the record base,
    // assuming the first field is among the reads — true of every packed
    // AoS kernel the workspace builds).
    let mut best: Option<(u32, Vec<u32>)> = None;
    for (p, slot) in bufs {
        let Some((stride, raw)) = slot else { continue };
        let base = lo_by_param[&p];
        let mut hot: Vec<u32> = raw
            .iter()
            .map(|&(lo, w)| (((lo - base) as u32) % stride) + w)
            .collect();
        hot.sort_unstable();
        hot.dedup();
        if hot.iter().any(|&o| o + 4 > stride) {
            continue;
        }
        if best.as_ref().is_none_or(|(s, _)| stride > *s) {
            best = Some((stride, hot));
        }
    }
    let (stride, hot) = best?;
    if stride < 8 {
        return None; // single-word records have no layout to optimize
    }
    let fields = (0..stride / 4)
        .map(|w| {
            let off = 4 * w;
            FieldSpec::scalar(
                format!("+{off}"),
                if hot.contains(&off) {
                    AccessFreq::Hot
                } else {
                    AccessFreq::Cold
                },
            )
        })
        .collect();
    Some(StructSchema::new(fields))
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
    // Step 1: group by access frequency (stable, hot first).
    let mut by_freq: Vec<(AccessFreq, Vec<usize>)> = Vec::new();
    for freq in [AccessFreq::Hot, AccessFreq::Warm, AccessFreq::Cold] {
        let members: Vec<usize> = schema
            .fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.freq == freq)
            .map(|(i, _)| i)
            .collect();
        if !members.is_empty() {
            by_freq.push((freq, members));
        }
    }

    // Step 2: split each group into 128-bit bins (first-fit decreasing),
    // padding each bin to the next alignable size (1, 2 or 4 words).
    let mut groups: Vec<SubStruct> = Vec::new();
    for (freq, mut members) in by_freq {
        members.sort_by_key(|&i| std::cmp::Reverse(schema.fields[i].words));
        let mut bins: Vec<(Vec<usize>, u32)> = Vec::new();
        for i in members {
            let w = schema.fields[i].words;
            match bins.iter_mut().find(|(_, used)| used + w <= 4) {
                Some((bin, used)) => {
                    bin.push(i);
                    *used += w;
                }
                None => bins.push((vec![i], w)),
            }
        }
        for (fields, used) in bins {
            let padded = used.next_power_of_two().max(1);
            groups.push(SubStruct {
                fields,
                freq,
                used_words: used,
                padded_words: padded,
            });
        }
    }

    // Step 3 is implicit: each group becomes an array of aligned records.
    // Score both layouts through the real coalescer (CC 1.0 protocol, the
    // hardware rule the paper's figures assume).
    let baseline_transactions = packed_aos_transactions(schema);
    let optimized_transactions = groups.iter().map(group_transactions).sum::<u32>();

    LayoutPlan {
        schema: schema.clone(),
        groups,
        baseline_transactions,
        optimized_transactions,
    }
}

/// Transactions per half-warp for a full-record fetch from the naive packed
/// array of structures (scalar reads, record stride = payload bytes).
fn packed_aos_transactions(schema: &StructSchema) -> u32 {
    let stride = schema.words() as u64 * 4;
    let mut offset = 0u64;
    let mut total = 0u32;
    for f in &schema.fields {
        // Wide fields in a packed struct may be misaligned for vector access,
        // so the baseline reads them as scalars — exactly what the original
        // Gravit code does.
        for w in 0..f.words {
            let addrs: Vec<Option<u64>> = (0..16)
                .map(|k| Some(k * stride + offset + 4 * w as u64))
                .collect();
            total +=
                coalesce_half_warp(DriverModel::Cuda10, &addrs, AccessWidth::W4).count() as u32;
        }
        offset += f.words as u64 * 4;
    }
    total
}

/// Transactions per half-warp for fetching one aligned sub-structure from its
/// array.
fn group_transactions(g: &SubStruct) -> u32 {
    let width = AccessWidth::from_bytes(g.padded_words * 4).expect("alignable width");
    let stride = g.padded_words as u64 * 4;
    let addrs: Vec<Option<u64>> = (0..16).map(|k| Some(k * stride)).collect();
    coalesce_half_warp(DriverModel::Cuda10, &addrs, width).count() as u32
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
