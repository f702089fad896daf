//! The shared force model and particle-set container.
//!
//! Every force implementation in the workspace — serial CPU, multi-threaded CPU,
//! Barnes–Hut, and the simulated GPU kernels — evaluates the same Plummer-
//! softened inverse-square law:
//!
//! ```text
//! a_i = Σ_j  G · m_j · (p_j − p_i) / (|p_j − p_i|² + ε²)^(3/2)
//! ```
//!
//! With softening the `i == j` term is exactly zero, so no branch is needed —
//! the same trick the GPU Gems n-body kernel (which the paper's kernel
//! structure follows) uses in place of Gravit's `if (i != j)`.
//!
//! [`accel_one_exact`] spells out the *operation order* of the GPU kernel's
//! inner loop; the direct CPU solver uses it verbatim so CPU and simulated
//! GPU results are bit-identical, which the integration tests assert.

use simcore::Vec3;

/// Floor applied to the squared distance — keeps the unsoftened (ε = 0)
/// configuration finite at exact overlap. The GPU kernels use the same
/// immediate in their `max` instruction.
pub const MIN_DIST_SQ: f32 = 1e-12;

/// Parameters of the force law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForceParams {
    /// Gravitational constant.
    pub g: f32,
    /// Plummer softening length ε.
    pub softening: f32,
}

impl Default for ForceParams {
    fn default() -> Self {
        // Gravit's dimensionless units: G = 1, with a small softening to keep
        // close encounters integrable.
        ForceParams {
            g: 1.0,
            softening: 0.05,
        }
    }
}

impl ForceParams {
    /// ε² as the kernels consume it.
    #[inline]
    pub fn eps_sq(&self) -> f32 {
        self.softening * self.softening
    }
}

/// A particle set in structure-of-arrays form (the natural shape for the CPU
/// solvers; conversions to the paper's GPU layouts live in the layouts crate).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bodies {
    /// Positions.
    pub pos: Vec<Vec3>,
    /// Velocities.
    pub vel: Vec<Vec3>,
    /// Masses.
    pub mass: Vec<f32>,
}

impl Bodies {
    /// An empty set with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Bodies {
            pos: Vec::with_capacity(n),
            vel: Vec::with_capacity(n),
            mass: Vec::with_capacity(n),
        }
    }

    /// Number of bodies.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Append one body.
    pub fn push(&mut self, pos: Vec3, vel: Vec3, mass: f32) {
        assert!(
            mass >= 0.0 && mass.is_finite(),
            "mass must be finite and non-negative"
        );
        assert!(pos.is_finite() && vel.is_finite(), "non-finite body state");
        self.pos.push(pos);
        self.vel.push(vel);
        self.mass.push(mass);
    }

    /// Append all bodies of another set.
    pub fn extend(&mut self, other: &Bodies) {
        self.pos.extend_from_slice(&other.pos);
        self.vel.extend_from_slice(&other.vel);
        self.mass.extend_from_slice(&other.mass);
    }

    /// Total mass.
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().map(|&m| m as f64).sum()
    }

    /// Center of mass (f64 accumulation).
    pub fn center_of_mass(&self) -> Vec3 {
        let mut cx = 0.0f64;
        let mut cy = 0.0f64;
        let mut cz = 0.0f64;
        let mut m = 0.0f64;
        for i in 0..self.len() {
            let w = self.mass[i] as f64;
            cx += self.pos[i].x as f64 * w;
            cy += self.pos[i].y as f64 * w;
            cz += self.pos[i].z as f64 * w;
            m += w;
        }
        if m == 0.0 {
            Vec3::ZERO
        } else {
            Vec3::new((cx / m) as f32, (cy / m) as f32, (cz / m) as f32)
        }
    }

    /// Axis-aligned bounding box of all positions.
    pub fn bounds(&self) -> (Vec3, Vec3) {
        assert!(!self.is_empty());
        let mut lo = self.pos[0];
        let mut hi = self.pos[0];
        for p in &self.pos[1..] {
            lo = lo.min(*p);
            hi = hi.max(*p);
        }
        (lo, hi)
    }

    /// Validate invariants (finite state, consistent lengths).
    pub fn validate(&self) {
        assert_eq!(self.pos.len(), self.vel.len());
        assert_eq!(self.pos.len(), self.mass.len());
        for i in 0..self.len() {
            assert!(
                self.pos[i].is_finite() && self.vel[i].is_finite(),
                "body {i} non-finite"
            );
            assert!(
                self.mass[i].is_finite() && self.mass[i] >= 0.0,
                "body {i} bad mass"
            );
        }
    }
}

/// The pairwise acceleration contribution of a body at `pj` with mass `mj`
/// on a body at `pi`, accumulated into `(ax, ay, az)` — in **exactly** the
/// operation order of the GPU kernel's inner loop (see `gpu-kernels::force`):
/// mul, mad, mad, add, max, rsqrt, mul, mul, mul, mad ×3.
///
/// `g_mj` is `G · m_j` pre-multiplied (the kernels bake G into the masses at
/// upload; the CPU does the same for bit parity).
#[inline]
// The statement forms mirror the GPU kernel's fmad operand order exactly
// (bit-identical CPU/GPU physics is asserted by the equivalence tests), so
// clippy's `a += b` rewrite is intentionally not applied.
#[allow(clippy::too_many_arguments, clippy::assign_op_pattern)]
pub fn accel_one_exact(
    pi: Vec3,
    pj: Vec3,
    g_mj: f32,
    eps_sq: f32,
    ax: &mut f32,
    ay: &mut f32,
    az: &mut f32,
) {
    let dx = pj.x - pi.x;
    let dy = pj.y - pi.y;
    let dz = pj.z - pi.z;
    let mut t = dx * dx;
    t = dy * dy + t;
    t = dz * dz + t;
    let mut r2 = t + eps_sq;
    r2 = r2.max(MIN_DIST_SQ);
    let rinv = 1.0 / r2.sqrt();
    let mut rc = rinv * rinv;
    rc = rc * rinv;
    let s = g_mj * rc;
    *ax = dx * s + *ax;
    *ay = dy * s + *ay;
    *az = dz * s + *az;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_interaction_is_exactly_zero() {
        let p = Vec3::new(1.0, 2.0, 3.0);
        let (mut ax, mut ay, mut az) = (0.0, 0.0, 0.0);
        accel_one_exact(p, p, 5.0, 0.0025, &mut ax, &mut ay, &mut az);
        assert_eq!((ax, ay, az), (0.0, 0.0, 0.0));
    }

    #[test]
    fn unsoftened_matches_newton_for_unit_case() {
        // Two unit masses 2 apart on x: |a| = G·m/r² = 0.25.
        let (mut ax, mut ay, mut az) = (0.0, 0.0, 0.0);
        accel_one_exact(
            Vec3::ZERO,
            Vec3::new(2.0, 0.0, 0.0),
            1.0,
            0.0,
            &mut ax,
            &mut ay,
            &mut az,
        );
        assert!((ax - 0.25).abs() < 1e-6, "ax = {ax}");
        assert_eq!((ay, az), (0.0, 0.0));
    }

    #[test]
    fn softening_bounds_close_encounters() {
        let eps2 = 0.01f32;
        let (mut ax, mut ay, mut az) = (0.0, 0.0, 0.0);
        accel_one_exact(
            Vec3::ZERO,
            Vec3::new(1e-6, 0.0, 0.0),
            1.0,
            eps2,
            &mut ax,
            &mut ay,
            &mut az,
        );
        assert!(ax.is_finite());
        // Max possible |a| under Plummer softening is bounded by m·d/(ε²)^1.5.
        assert!(ax.abs() < 1.0 / eps2.powf(1.5));
    }

    #[test]
    fn force_is_attractive_toward_source() {
        let (mut ax, mut ay, mut az) = (0.0, 0.0, 0.0);
        accel_one_exact(
            Vec3::ZERO,
            Vec3::new(-3.0, 4.0, 0.0),
            2.0,
            0.0,
            &mut ax,
            &mut ay,
            &mut az,
        );
        assert!(ax < 0.0 && ay > 0.0, "acceleration points at the source");
    }

    #[test]
    fn bodies_bookkeeping() {
        let mut b = Bodies::with_capacity(4);
        assert!(b.is_empty());
        b.push(Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO, 2.0);
        b.push(Vec3::new(-1.0, 0.0, 0.0), Vec3::ZERO, 2.0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.total_mass(), 4.0);
        assert_eq!(b.center_of_mass(), Vec3::ZERO);
        let (lo, hi) = b.bounds();
        assert_eq!(lo, Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(hi, Vec3::new(1.0, 0.0, 0.0));
        b.validate();
    }

    #[test]
    #[should_panic]
    fn nan_position_rejected() {
        let mut b = Bodies::default();
        b.push(Vec3::new(f32::NAN, 0.0, 0.0), Vec3::ZERO, 1.0);
    }

    #[test]
    #[should_panic]
    fn negative_mass_rejected() {
        let mut b = Bodies::default();
        b.push(Vec3::ZERO, Vec3::ZERO, -1.0);
    }

    #[test]
    fn default_params_are_gravit_like() {
        let p = ForceParams::default();
        assert_eq!(p.g, 1.0);
        assert!((p.eps_sq() - 0.0025).abs() < 1e-9);
    }
}
