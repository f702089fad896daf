//! Property-based tests: layout roundtrips and address-plan invariants, and
//! the layout advisor (the paper's 3-step procedure) over arbitrary struct
//! schemas.

use gpu_sim::mem::GlobalMemory;
use gpu_sim::DriverModel;
use particle_layouts::layout_advisor::{optimize_layout, AccessFreq, FieldSpec, StructSchema};
use particle_layouts::streams::{analyze_plan, half_warp_addresses};
use particle_layouts::{DeviceImage, Layout, Particle};
use proptest::prelude::*;
use simcore::Vec3;

fn particle_strategy() -> impl Strategy<Value = Particle> {
    (
        (-1e6f32..1e6, -1e6f32..1e6, -1e6f32..1e6),
        (-1e3f32..1e3, -1e3f32..1e3, -1e3f32..1e3),
        0.0f32..1e6,
    )
        .prop_map(|((px, py, pz), (vx, vy, vz), m)| Particle {
            pos: Vec3::new(px, py, pz),
            vel: Vec3::new(vx, vy, vz),
            mass: m,
        })
}

fn layout_strategy() -> impl Strategy<Value = Layout> {
    prop_oneof![
        Just(Layout::Unopt),
        Just(Layout::AoS),
        Just(Layout::SoA),
        Just(Layout::AoaS),
        Just(Layout::SoAoaS)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Upload → download is the identity for every layout, any particle set,
    /// any pad unit.
    #[test]
    fn device_image_roundtrips(ps in proptest::collection::vec(particle_strategy(), 1..200),
                               layout in layout_strategy(),
                               pad in prop_oneof![Just(32u32), Just(64), Just(128), Just(192)]) {
        let mut gmem = GlobalMemory::new(8 << 20);
        let img = DeviceImage::upload(&mut gmem, layout, &ps, pad).expect("upload fits");
        prop_assert_eq!(img.n as usize, ps.len());
        prop_assert_eq!(img.padded_n % pad, 0);
        prop_assert!(img.padded_n >= img.n);
        prop_assert_eq!(img.read_all(&gmem).expect("readback in bounds"), ps);
        // Padding slots are sentinels.
        for i in img.n..img.padded_n {
            prop_assert_eq!(img.read_particle(&gmem, i).expect("in bounds").mass, 0.0);
        }
    }

    /// Every read plan's half-warp addresses are distinct per lane, naturally
    /// aligned, and disjoint across lanes' slots.
    #[test]
    fn plan_addresses_are_aligned_and_distinct(layout in layout_strategy(), first in 0u64..1024) {
        for plan in [layout.read_plan_all(), layout.read_plan_posmass(), layout.read_plan_posvel()] {
            let bases: Vec<u64> = (0..layout.buffers().len()).map(|b| (b as u64 + 1) << 20).collect();
            for (ri, r) in plan.reads.iter().enumerate() {
                let addrs = half_warp_addresses(&plan, &bases, ri, first);
                let width = (r.words * 4) as u64;
                let mut seen = Vec::new();
                for a in addrs.iter().flatten() {
                    prop_assert_eq!(a % width, 0, "misaligned address in {} plan", layout);
                    prop_assert!(!seen.contains(a), "duplicate lane address");
                    seen.push(*a);
                }
                prop_assert_eq!(seen.len(), 16);
            }
        }
    }

    /// Transaction analysis invariants: bus bytes cover useful bytes, and
    /// efficiency is in (0, 1].
    #[test]
    fn analysis_is_conservative(layout in layout_strategy(),
                                driver in prop_oneof![Just(DriverModel::Cuda10), Just(DriverModel::Cuda11), Just(DriverModel::Cuda22)]) {
        let a = analyze_plan(&layout.read_plan_all(), driver);
        prop_assert!(a.bus_bytes >= a.useful_bytes);
        prop_assert!(a.efficiency() > 0.0 && a.efficiency() <= 1.0);
        prop_assert!(a.transactions >= a.reads, "at least one transaction per load");
    }
}

fn schema_strategy() -> impl Strategy<Value = StructSchema> {
    proptest::collection::vec(
        (
            1u32..=4,
            prop_oneof![
                Just(AccessFreq::Hot),
                Just(AccessFreq::Warm),
                Just(AccessFreq::Cold)
            ],
        ),
        1..24,
    )
    .prop_map(|fields| {
        StructSchema::new(
            fields
                .into_iter()
                .enumerate()
                .map(|(i, (w, f))| FieldSpec::wide(format!("f{i}"), w, f))
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Step-2 invariants: every bin is alignable (1/2/4 words), never
    /// overfull, and every field is placed exactly once.
    #[test]
    fn bins_are_wellformed(schema in schema_strategy()) {
        let plan = optimize_layout(&schema);
        let mut placed: Vec<usize> = Vec::new();
        for g in &plan.groups {
            prop_assert!(matches!(g.padded_words, 1 | 2 | 4));
            prop_assert!(g.used_words <= g.padded_words);
            prop_assert!(g.used_words > 0);
            let sum: u32 = g.fields.iter().map(|&i| schema.fields[i].words).sum();
            prop_assert_eq!(sum, g.used_words);
            placed.extend(&g.fields);
        }
        placed.sort_unstable();
        let expect: Vec<usize> = (0..schema.fields.len()).collect();
        prop_assert_eq!(placed, expect);
    }

    /// Step-1 invariant: access-frequency classes never share a bin.
    #[test]
    fn frequencies_never_mix(schema in schema_strategy()) {
        let plan = optimize_layout(&schema);
        for g in &plan.groups {
            prop_assert!(g.fields.iter().all(|&i| schema.fields[i].freq == g.freq));
        }
    }

    /// The optimized layout never issues more transactions than the packed
    /// baseline.
    #[test]
    fn optimization_never_hurts(schema in schema_strategy()) {
        let plan = optimize_layout(&schema);
        prop_assert!(plan.optimized_transactions <= plan.baseline_transactions);
        prop_assert!(plan.transaction_improvement() >= 1.0);
        // Padding never exceeds 3 words per bin.
        prop_assert!(plan.padding_overhead() <= 3.0);
    }

    /// Idempotence: planning the same schema twice gives the same plan.
    #[test]
    fn planning_is_deterministic(schema in schema_strategy()) {
        prop_assert_eq!(optimize_layout(&schema), optimize_layout(&schema));
    }
}
