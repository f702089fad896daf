//! Property-based tests: layout roundtrips and address-plan invariants.

use gpu_sim::mem::GlobalMemory;
use gpu_sim::DriverModel;
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
