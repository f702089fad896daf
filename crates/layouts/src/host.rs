//! The host-side particle record every layout converts to and from.
//!
//! Its seven words, in [`Particle::fields`] order, are what each layout's
//! placement table in [`crate::plan`] puts at a `(buffer, byte offset)`
//! slot. The tests below pin the byte shapes of the paper's Figures 2, 4, 6
//! and 8 on that table: the 28-byte packed record, the 32-byte aligned
//! record with its hidden pad word, and the two 16-byte `float4`s.

use simcore::Vec3;

/// The canonical particle record all layouts convert to and from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Particle {
    /// Position.
    pub pos: Vec3,
    /// Velocity.
    pub vel: Vec3,
    /// Mass.
    pub mass: f32,
}

impl Particle {
    /// A particle at rest at the origin with zero mass — the padding sentinel
    /// (contributes exactly zero force under Plummer softening).
    pub const SENTINEL: Particle = Particle {
        pos: Vec3::ZERO,
        vel: Vec3::ZERO,
        mass: 0.0,
    };

    /// Indices of position x/y/z in [`Particle::fields`].
    pub const POS: [usize; 3] = [0, 1, 2];
    /// Indices of velocity x/y/z in [`Particle::fields`].
    pub const VEL: [usize; 3] = [3, 4, 5];
    /// Index of the mass in [`Particle::fields`].
    pub const MASS: usize = 6;
    /// Indices of the force kernel's hot words, position x/y/z and mass.
    pub const POSMASS: [usize; 4] = [0, 1, 2, Particle::MASS];

    /// The seven floats in the paper's canonical order
    /// (px, py, pz, vx, vy, vz, mass).
    pub fn fields(&self) -> [f32; 7] {
        [
            self.pos.x, self.pos.y, self.pos.z, self.vel.x, self.vel.y, self.vel.z, self.mass,
        ]
    }

    /// The particle whose [`Particle::fields`] are `f`.
    pub fn from_fields(f: [f32; 7]) -> Particle {
        Particle {
            pos: Vec3::new(f[0], f[1], f[2]),
            vel: Vec3::new(f[3], f[4], f[5]),
            mass: f[6],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Layout;

    /// `(buffer, byte offset)` of every record slot no word maps to.
    fn pads(l: Layout) -> Vec<(usize, u32)> {
        let p = l.placement();
        (0..p.buffers.len())
            .flat_map(|b| p.record(b).zip(0..).map(move |(w, s)| (w, (b, 4 * s))))
            .filter_map(|(w, slot)| w.is_none().then_some(slot))
            .collect()
    }

    fn strides(l: Layout) -> Vec<u64> {
        l.buffers().iter().map(|b| b.stride()).collect()
    }

    #[test]
    fn packed_struct_is_28_bytes() {
        let p = Layout::Unopt.placement();
        assert_eq!(strides(Layout::Unopt), [28]);
        assert_eq!(p.slots[0], (0, 0));
        assert_eq!(p.slots[Particle::VEL[0]], (0, 12));
        assert_eq!(p.slots[Particle::MASS], (0, 24));
        assert!(pads(Layout::Unopt).is_empty());
    }

    #[test]
    fn aligned_struct_is_32_bytes_align_16() {
        for l in [Layout::AoS, Layout::AoaS] {
            let p = l.placement();
            assert_eq!(strides(l), [32], "{l}");
            assert_eq!(p.slots[Particle::MASS], (0, 24), "{l}");
            assert_eq!(pads(l), [(0, 28)], "{l}: the hidden padding element");
        }
        assert!(Layout::AoaS.placement().vector);
    }

    #[test]
    fn sub_structures_are_float4_shaped() {
        let p = Layout::SoAoaS.placement();
        assert_eq!(strides(Layout::SoAoaS), [16, 16]);
        let hot = Particle::POS.map(|w| p.slots[w]);
        assert_eq!(hot, [(0, 0), (0, 4), (0, 8)]);
        assert_eq!(p.slots[Particle::MASS], (0, 12));
        assert_eq!(Particle::VEL.map(|w| p.slots[w]), [(1, 0), (1, 4), (1, 8)]);
        assert_eq!(pads(Layout::SoAoaS), [(1, 12)], "the cold float4's pad");
    }

    #[test]
    fn soa_transpose_roundtrip() {
        // Fig. 4: word k of particle i sits at byte 4i of array k.
        assert!(pads(Layout::SoA).is_empty());
        let ps: Vec<Particle> = (0..10)
            .map(|i| Particle {
                pos: Vec3::splat(i as f32),
                vel: Vec3::splat(-(i as f32)),
                mass: i as f32 * 0.5,
            })
            .collect();
        let mut gmem = gpu_sim::mem::GlobalMemory::new(1 << 16);
        let img = crate::DeviceImage::upload(&mut gmem, Layout::SoA, &ps, 16).unwrap();
        assert_eq!(img.buffers.len(), 7);
        for (i, p) in ps.iter().enumerate() {
            for (k, base) in img.buffers.iter().enumerate() {
                let v = gmem.load_f32(base.0 + 4 * i as u64).unwrap();
                assert_eq!(v, p.fields()[k]);
            }
        }
        assert_eq!(img.read_all(&gmem).unwrap(), ps);
    }

    #[test]
    fn conversions_roundtrip() {
        let p = Particle {
            pos: Vec3::new(1.0, 2.0, 3.0),
            vel: Vec3::new(-1.0, -2.0, -3.0),
            mass: 7.5,
        };
        assert_eq!(Particle::from_fields(p.fields()), p);
        assert_eq!(p.fields()[Particle::MASS], 7.5);
        assert_eq!(Particle::VEL.map(|w| p.fields()[w]), [-1.0, -2.0, -3.0]);
    }

    #[test]
    fn sentinel_has_zero_mass() {
        assert_eq!(Particle::SENTINEL.mass, 0.0);
        assert_eq!(Particle::SENTINEL.fields(), [0.0; 7]);
    }
}
