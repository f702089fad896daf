//! Deterministic pseudo-random number generation.
//!
//! Two small, well-known generators are implemented from their reference
//! descriptions:
//!
//! * [`SplitMix64`] — Steele/Lea/Flood's 64-bit mixer. Used for seeding and
//!   for cheap stateless hashing of indices.
//! * [`Xoshiro256pp`] — Blackman/Vigna's xoshiro256++ generator; the general
//!   purpose workhorse for workload generation.
//!
//! Every experiment in this workspace derives its randomness from a `u64`
//! seed through these types, so results are reproducible across platforms and
//! toolchain versions (the reason we avoid an external RNG crate).

use crate::vec3::Vec3;

/// Common interface for the 64-bit generators in this module.
pub trait Rng64 {
    /// Next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 random bits (upper half of [`Self::next_u64`]).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, n)` using Lemire's widening-multiply method
    /// with rejection of the biased region (no modulo bias).
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut m = (self.next_u64() as u128) * (n as u128);
        if (m as u64) < n {
            // 2^64 mod n, computed without 128-bit division.
            let t = n.wrapping_neg() % n;
            while (m as u64) < t {
                m = (self.next_u64() as u128) * (n as u128);
            }
        }
        (m >> 64) as u64
    }

    /// Standard normal deviate (Box–Muller, one value per call; the twin is
    /// discarded for simplicity — workload generation is not perf-critical).
    fn normal(&mut self) -> f32 {
        loop {
            let u1 = self.next_f64();
            if u1 <= f64::MIN_POSITIVE {
                continue;
            }
            let u2 = self.next_f64();
            let r = (-2.0 * u1.ln()).sqrt();
            return (r * (2.0 * core::f64::consts::PI * u2).cos()) as f32;
        }
    }

    /// Uniform point in the unit ball (rejection sampling).
    fn in_unit_ball(&mut self) -> Vec3 {
        loop {
            let v = Vec3::new(
                self.range_f32(-1.0, 1.0),
                self.range_f32(-1.0, 1.0),
                self.range_f32(-1.0, 1.0),
            );
            if v.norm_sq() <= 1.0 {
                return v;
            }
        }
    }

    /// Uniform point on the unit sphere surface.
    fn on_unit_sphere(&mut self) -> Vec3 {
        loop {
            let v = Vec3::new(self.normal(), self.normal(), self.normal());
            if let Some(u) = v.normalized() {
                return u;
            }
        }
    }

    /// Uniform point in the unit disk in the XY plane.
    fn in_unit_disk_xy(&mut self) -> Vec3 {
        loop {
            let v = Vec3::new(self.range_f32(-1.0, 1.0), self.range_f32(-1.0, 1.0), 0.0);
            if v.norm_sq() <= 1.0 {
                return v;
            }
        }
    }

    /// Fisher–Yates shuffle of a slice.
    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// SplitMix64: a fixed-increment 64-bit mixer.
///
/// Passes BigCrush when used as a generator; here it mostly seeds
/// [`Xoshiro256pp`] and hashes indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a seed.
    #[inline]
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Stateless mix of a single value — handy for hashing indices into
    /// pseudo-random but reproducible values.
    #[inline]
    pub fn mix(z: u64) -> u64 {
        let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++ 1.0 — general-purpose 256-bit-state generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seed via SplitMix64 expansion (the construction the authors recommend).
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256pp { s }
    }

    /// The 2^128-step jump, for carving independent parallel streams out of
    /// one seed (used when sweeps run on several threads).
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        let mut t = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    for (ti, si) in t.iter_mut().zip(self.s.iter()) {
                        *ti ^= si;
                    }
                }
                self.next_u64();
            }
        }
        self.s = t;
    }

    /// A generator `n` jumps ahead of this one (does not advance `self`).
    pub fn stream(&self, n: usize) -> Self {
        let mut g = self.clone();
        for _ in 0..n {
            g.jump();
        }
        g
    }
}

impl Rng64 for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_determinism_and_spread() {
        let mut g = SplitMix64::new(1234567);
        let xs: Vec<u64> = (0..8).map(|_| g.next_u64()).collect();
        let mut h = SplitMix64::new(1234567);
        for &x in &xs {
            assert_eq!(h.next_u64(), x);
        }
        // All eight outputs distinct (a stuck mixer would repeat).
        let mut dedup = xs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), xs.len());
    }

    #[test]
    fn xoshiro_determinism_and_divergence() {
        let mut a = Xoshiro256pp::seeded(42);
        let mut b = Xoshiro256pp::seeded(42);
        let mut c = Xoshiro256pp::seeded(43);
        let av: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let cv: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(av, bv);
        assert_ne!(av, cv);
    }

    #[test]
    fn jump_streams_do_not_overlap_shortly() {
        let base = Xoshiro256pp::seeded(7);
        let mut s0 = base.stream(0);
        let mut s1 = base.stream(1);
        let a: Vec<u64> = (0..256).map(|_| s0.next_u64()).collect();
        let b: Vec<u64> = (0..256).map(|_| s1.next_u64()).collect();
        assert!(a.iter().all(|x| !b.contains(x)));
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut g = Xoshiro256pp::seeded(1);
        for _ in 0..10_000 {
            let x = g.next_f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough_and_in_range() {
        let mut g = Xoshiro256pp::seeded(99);
        let n = 10u64;
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            let v = g.below(n);
            assert!(v < n);
            counts[v as usize] += 1;
        }
        // Each bucket should be within 10% of the expected 10_000.
        for &c in &counts {
            assert!(
                (9_000..=11_000).contains(&c),
                "bucket count {c} out of tolerance"
            );
        }
    }

    #[test]
    fn normal_moments() {
        let mut g = Xoshiro256pp::seeded(5);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let x = g.normal() as f64;
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn ball_sphere_disk_samples_in_domain() {
        let mut g = Xoshiro256pp::seeded(11);
        for _ in 0..1000 {
            assert!(g.in_unit_ball().norm_sq() <= 1.0 + 1e-6);
            assert!((g.on_unit_sphere().norm() - 1.0).abs() < 1e-3);
            let d = g.in_unit_disk_xy();
            assert_eq!(d.z, 0.0);
            assert!(d.norm_sq() <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut g = Xoshiro256pp::seeded(3);
        let mut xs: Vec<u32> = (0..100).collect();
        g.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            xs,
            (0..100).collect::<Vec<_>>(),
            "astronomically unlikely identity shuffle"
        );
    }

    #[test]
    fn mix_is_stateless_and_stable() {
        assert_eq!(SplitMix64::mix(0), SplitMix64::mix(0));
        assert_ne!(SplitMix64::mix(1), SplitMix64::mix(2));
    }
}
