//! O(n²) all-pairs force computation — the algorithm the paper ports to CUDA.
//!
//! Three variants share [`crate::model::accel_one_exact`]:
//!
//! * [`accelerations`] — the serial loop (paper Fig. 1), the "original CPU
//!   implementation" baseline of the 87× claim;
//! * [`accelerations_par`] — parallel over target bodies on every host thread
//!   ([`simcore::par`]), the fair multi-core CPU comparator;
//! * [`accelerations_tiled`] — serial but iterating sources in K-sized tiles,
//!   mirroring the GPU kernel's shared-memory tiling. Because f32 addition is
//!   order-sensitive, bit-exact CPU↔GPU comparisons use this variant with the
//!   GPU's tile size (all variants iterate sources in ascending order, so
//!   they are in fact all bit-identical — a property the tests pin down).

use crate::model::{accel_one_exact, Bodies, ForceParams};
use simcore::par::{host_threads, map_indexed};
use simcore::Vec3;

/// Serial O(n²) accelerations.
pub fn accelerations(b: &Bodies, params: &ForceParams) -> Vec<Vec3> {
    let eps2 = params.eps_sq();
    let n = b.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(accel_on(b, params.g, eps2, b.pos[i], 0, n));
    }
    out
}

/// Parallel O(n²) accelerations over [`host_threads`] (identical results to
/// the serial version: each body's source loop is still sequential and
/// ascending).
pub fn accelerations_par(b: &Bodies, params: &ForceParams) -> Vec<Vec3> {
    let eps2 = params.eps_sq();
    let n = b.len();
    map_indexed(n, host_threads(), |i| {
        accel_on(b, params.g, eps2, b.pos[i], 0, n)
    })
}

/// Serial O(n²) with the source loop blocked into `tile`-sized chunks, the
/// exact summation order of the tiled GPU kernel.
pub fn accelerations_tiled(b: &Bodies, params: &ForceParams, tile: usize) -> Vec<Vec3> {
    assert!(tile > 0);
    let eps2 = params.eps_sq();
    let n = b.len();
    let mut out = vec![Vec3::ZERO; n];
    for (i, o) in out.iter_mut().enumerate() {
        let pi = b.pos[i];
        let (mut ax, mut ay, mut az) = (0.0f32, 0.0f32, 0.0f32);
        let mut t0 = 0;
        while t0 < n {
            let t1 = (t0 + tile).min(n);
            for j in t0..t1 {
                accel_one_exact(
                    pi,
                    b.pos[j],
                    params.g * b.mass[j],
                    eps2,
                    &mut ax,
                    &mut ay,
                    &mut az,
                );
            }
            t0 = t1;
        }
        *o = Vec3::new(ax, ay, az);
    }
    out
}

/// Acceleration on a probe at `pi` from sources `[j0, j1)`.
fn accel_on(b: &Bodies, g: f32, eps2: f32, pi: Vec3, j0: usize, j1: usize) -> Vec3 {
    let (mut ax, mut ay, mut az) = (0.0f32, 0.0f32, 0.0f32);
    for j in j0..j1 {
        accel_one_exact(pi, b.pos[j], g * b.mass[j], eps2, &mut ax, &mut ay, &mut az);
    }
    Vec3::new(ax, ay, az)
}

/// Acceleration at an arbitrary probe point (not a member body) — used by the
/// external-force hooks and by tests.
pub fn accel_at_point(b: &Bodies, params: &ForceParams, p: Vec3) -> Vec3 {
    accel_on(b, params.g, params.eps_sq(), p, 0, b.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spawn;

    fn ball(n: usize, seed: u64) -> Bodies {
        spawn::uniform_ball(n, 10.0, 1.0, seed)
    }

    #[test]
    fn two_body_symmetry() {
        let mut b = Bodies::default();
        b.push(Vec3::new(-1.0, 0.0, 0.0), Vec3::ZERO, 3.0);
        b.push(Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO, 1.0);
        let a = accelerations(
            &b,
            &ForceParams {
                g: 1.0,
                softening: 0.0,
            },
        );
        // m_i a_i must be equal and opposite.
        assert!((3.0 * a[0].x + 1.0 * a[1].x).abs() < 1e-6);
        assert!(a[0].x > 0.0 && a[1].x < 0.0);
        // |a_0| = G·m_1/4, |a_1| = G·m_0/4.
        assert!((a[0].x - 0.25).abs() < 1e-6);
        assert!((a[1].x + 0.75).abs() < 1e-6);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let b = ball(300, 42);
        let p = ForceParams::default();
        let s = accelerations(&b, &p);
        let r = accelerations_par(&b, &p);
        assert_eq!(s.len(), r.len());
        for i in 0..s.len() {
            assert_eq!(s[i].x.to_bits(), r[i].x.to_bits(), "body {i} x");
            assert_eq!(s[i].y.to_bits(), r[i].y.to_bits(), "body {i} y");
            assert_eq!(s[i].z.to_bits(), r[i].z.to_bits(), "body {i} z");
        }
    }

    #[test]
    fn tiled_matches_serial_bitwise_any_tile() {
        let b = ball(257, 7); // deliberately not a tile multiple
        let p = ForceParams::default();
        let s = accelerations(&b, &p);
        for tile in [1, 8, 64, 128, 1024] {
            let t = accelerations_tiled(&b, &p, tile);
            for i in 0..s.len() {
                assert_eq!(s[i], t[i], "tile {tile}, body {i}");
            }
        }
    }

    #[test]
    fn zero_mass_sources_contribute_nothing() {
        let mut b = ball(64, 3);
        let p = ForceParams::default();
        let before = accelerations(&b, &p);
        // Append sentinels like the GPU padding does.
        for _ in 0..64 {
            b.push(Vec3::ZERO, Vec3::ZERO, 0.0);
        }
        let after = accelerations(&b, &p);
        for i in 0..before.len() {
            assert_eq!(before[i], after[i], "padding changed physics for body {i}");
        }
    }

    #[test]
    fn momentum_is_conserved_by_pairwise_forces() {
        let b = ball(200, 11);
        let a = accelerations(&b, &ForceParams::default());
        let (mut fx, mut fy, mut fz) = (0.0f64, 0.0f64, 0.0f64);
        for (i, ai) in a.iter().enumerate() {
            fx += (b.mass[i] * ai.x) as f64;
            fy += (b.mass[i] * ai.y) as f64;
            fz += (b.mass[i] * ai.z) as f64;
        }
        let scale: f64 = a.iter().map(|v| v.norm() as f64).sum::<f64>();
        assert!(fx.abs() < 1e-3 * scale, "net force x {fx} vs scale {scale}");
        assert!(fy.abs() < 1e-3 * scale);
        assert!(fz.abs() < 1e-3 * scale);
    }

    #[test]
    fn probe_point_matches_member_result_when_far() {
        let b = ball(50, 9);
        let p = ForceParams::default();
        let probe = Vec3::new(100.0, 0.0, 0.0);
        let a = accel_at_point(&b, &p, probe);
        // Far away, the ball acts like a point of its total mass.
        let m = b.total_mass() as f32;
        let d = b.center_of_mass() - probe;
        let expected = d * (m / d.norm_sq() / d.norm());
        assert!((a - expected).norm() < 0.02 * expected.norm());
    }
}
