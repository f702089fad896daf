//! Barnes–Hut octree force calculation (paper Sec. I-C).
//!
//! The classic O(n log n) scheme the paper describes:
//!
//! 1. build an octree over the bodies;
//! 2. compute total mass and center of mass per cell, bottom-up;
//! 3. per body, walk the tree: a cell whose opening ratio `s/d < θ` is
//!    treated as a point mass, otherwise descend.
//!
//! Both a recursive and an explicit-stack **iterative** traversal are
//! provided: Sec. I-D's point is precisely that CC-1.x CUDA has no recursion,
//! so a GPU port would need the iterative form. Forces use the same softened
//! law as every other solver ([`crate::model::accel_one_exact`]).

use crate::model::{accel_one_exact, Bodies, ForceParams};
use simcore::par::{host_threads, map_indexed};
use simcore::Vec3;

/// Bodies per leaf before a cell splits. Small buckets keep the tree shallow
/// enough without per-body allocation.
const LEAF_CAP: usize = 8;

/// A node of the octree (indices into the arena).
#[derive(Debug, Clone)]
enum Node {
    /// A leaf holding body indices.
    Leaf { bodies: Vec<u32> },
    /// An internal cell with up to 8 children.
    Cell { children: [Option<u32>; 8] },
}

/// An octree over a body set.
#[derive(Debug, Clone)]
pub struct Octree {
    nodes: Vec<Node>,
    /// Per-node center of the cube.
    centers: Vec<Vec3>,
    /// Per-node cube side length.
    sides: Vec<f32>,
    /// Per-node total mass.
    masses: Vec<f32>,
    /// Per-node center of mass.
    coms: Vec<Vec3>,
    root: u32,
}

impl Octree {
    /// Build the tree over `b` (step 1) and compute mass moments (step 2).
    pub fn build(b: &Bodies) -> Octree {
        assert!(!b.is_empty(), "cannot build a tree over nothing");
        let (lo, hi) = b.bounds();
        let center = (lo + hi) * 0.5;
        let side = (hi - lo).max_component().max(1e-6) * 1.0001;
        let mut t = Octree {
            nodes: vec![Node::Leaf {
                bodies: (0..b.len() as u32).collect(),
            }],
            centers: vec![center],
            sides: vec![side],
            masses: vec![0.0],
            coms: vec![Vec3::ZERO],
            root: 0,
        };
        t.split(0, b, 0);
        t.compute_moments(t.root, b);
        t
    }

    /// Number of nodes in the arena.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (longest root→leaf path).
    pub fn depth(&self) -> usize {
        fn d(t: &Octree, n: u32) -> usize {
            match &t.nodes[n as usize] {
                Node::Leaf { .. } => 1,
                Node::Cell { children } => {
                    1 + children
                        .iter()
                        .flatten()
                        .map(|&c| d(t, c))
                        .max()
                        .unwrap_or(0)
                }
            }
        }
        d(self, self.root)
    }

    /// Total mass at the root (should equal the body total).
    pub fn root_mass(&self) -> f32 {
        self.masses[self.root as usize]
    }

    /// Root center of mass.
    pub fn root_com(&self) -> Vec3 {
        self.coms[self.root as usize]
    }

    fn split(&mut self, node: u32, b: &Bodies, depth: usize) {
        let Node::Leaf { bodies } = &self.nodes[node as usize] else {
            return;
        };
        if bodies.len() <= LEAF_CAP || depth > 48 {
            return;
        }
        let bodies = bodies.clone();
        let center = self.centers[node as usize];
        let half = self.sides[node as usize] * 0.5;
        let quarter = half * 0.5;
        let mut buckets: [Vec<u32>; 8] = Default::default();
        for &bi in &bodies {
            buckets[octant(center, b.pos[bi as usize])].push(bi);
        }
        // A degenerate split (all bodies coincident) stays a leaf.
        if buckets.iter().filter(|x| !x.is_empty()).count() <= 1
            && buckets.iter().map(|x| x.len()).max().unwrap_or(0) == bodies.len()
        {
            return;
        }
        let mut children: [Option<u32>; 8] = [None; 8];
        for (o, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let id = self.nodes.len() as u32;
            self.nodes.push(Node::Leaf { bodies: bucket });
            self.centers.push(center + octant_offset(o) * quarter);
            self.sides.push(half);
            self.masses.push(0.0);
            self.coms.push(Vec3::ZERO);
            children[o] = Some(id);
            self.split(id, b, depth + 1);
        }
        self.nodes[node as usize] = Node::Cell { children };
    }

    fn compute_moments(&mut self, node: u32, b: &Bodies) -> (f32, Vec3) {
        let (m, weighted) = match self.nodes[node as usize].clone() {
            Node::Leaf { bodies } => {
                let mut m = 0.0f32;
                let mut w = Vec3::ZERO;
                for bi in bodies {
                    let mass = b.mass[bi as usize];
                    m += mass;
                    w += b.pos[bi as usize] * mass;
                }
                (m, w)
            }
            Node::Cell { children } => {
                let mut m = 0.0f32;
                let mut w = Vec3::ZERO;
                for c in children.into_iter().flatten() {
                    let (cm, ccom) = self.compute_moments(c, b);
                    m += cm;
                    w += ccom * cm;
                }
                (m, w)
            }
        };
        let com = if m > 0.0 {
            weighted / m
        } else {
            self.centers[node as usize]
        };
        self.masses[node as usize] = m;
        self.coms[node as usize] = com;
        (m, com)
    }

    /// Acceleration on a probe at `p` via recursive traversal (step 3).
    pub fn accel_recursive(&self, b: &Bodies, params: &ForceParams, p: Vec3, theta: f32) -> Vec3 {
        let eps2 = params.eps_sq();
        let (mut ax, mut ay, mut az) = (0.0, 0.0, 0.0);
        self.accel_rec(
            self.root, b, params.g, eps2, p, theta, &mut ax, &mut ay, &mut az,
        );
        Vec3::new(ax, ay, az)
    }

    #[allow(clippy::too_many_arguments)]
    fn accel_rec(
        &self,
        node: u32,
        b: &Bodies,
        g: f32,
        eps2: f32,
        p: Vec3,
        theta: f32,
        ax: &mut f32,
        ay: &mut f32,
        az: &mut f32,
    ) {
        let ni = node as usize;
        if self.masses[ni] == 0.0 {
            return;
        }
        let d = (self.coms[ni] - p).norm();
        let open = self.sides[ni] / d.max(1e-20);
        match &self.nodes[ni] {
            Node::Cell { children } if open >= theta => {
                for c in children.iter().flatten() {
                    self.accel_rec(*c, b, g, eps2, p, theta, ax, ay, az);
                }
            }
            Node::Leaf { bodies } => {
                for &bi in bodies {
                    accel_one_exact(
                        p,
                        b.pos[bi as usize],
                        g * b.mass[bi as usize],
                        eps2,
                        ax,
                        ay,
                        az,
                    );
                }
            }
            _ => {
                // Far enough: the whole cell acts as a point mass at its COM.
                accel_one_exact(p, self.coms[ni], g * self.masses[ni], eps2, ax, ay, az);
            }
        }
    }

    /// Acceleration via an explicit-stack iterative traversal — the
    /// recursion-free form a CC-1.x GPU port would need (paper Sec. I-D).
    pub fn accel_iterative(&self, b: &Bodies, params: &ForceParams, p: Vec3, theta: f32) -> Vec3 {
        let eps2 = params.eps_sq();
        let g = params.g;
        let (mut ax, mut ay, mut az) = (0.0, 0.0, 0.0);
        let mut stack: Vec<u32> = vec![self.root];
        while let Some(node) = stack.pop() {
            let ni = node as usize;
            if self.masses[ni] == 0.0 {
                continue;
            }
            let d = (self.coms[ni] - p).norm();
            let open = self.sides[ni] / d.max(1e-20);
            match &self.nodes[ni] {
                Node::Cell { children } if open >= theta => {
                    // Push in reverse so traversal order matches recursion.
                    for c in children.iter().rev().flatten() {
                        stack.push(*c);
                    }
                }
                Node::Leaf { bodies } => {
                    for &bi in bodies {
                        accel_one_exact(
                            p,
                            b.pos[bi as usize],
                            g * b.mass[bi as usize],
                            eps2,
                            &mut ax,
                            &mut ay,
                            &mut az,
                        );
                    }
                }
                _ => {
                    accel_one_exact(
                        p,
                        self.coms[ni],
                        g * self.masses[ni],
                        eps2,
                        &mut ax,
                        &mut ay,
                        &mut az,
                    );
                }
            }
        }
        Vec3::new(ax, ay, az)
    }
}

/// All-body accelerations via Barnes–Hut, parallel over targets on
/// [`host_threads`]. Each target's traversal is sequential, so the result is
/// bit-identical to a serial per-target [`Octree::accel_recursive`] map.
pub fn accelerations_bh(b: &Bodies, params: &ForceParams, theta: f32) -> Vec<Vec3> {
    let tree = Octree::build(b);
    map_indexed(b.len(), host_threads(), |i| {
        tree.accel_recursive(b, params, b.pos[i], theta)
    })
}

fn octant(center: Vec3, p: Vec3) -> usize {
    ((p.x >= center.x) as usize)
        | (((p.y >= center.y) as usize) << 1)
        | (((p.z >= center.z) as usize) << 2)
}

fn octant_offset(o: usize) -> Vec3 {
    Vec3::new(
        if o & 1 != 0 { 1.0 } else { -1.0 },
        if o & 2 != 0 { 1.0 } else { -1.0 },
        if o & 4 != 0 { 1.0 } else { -1.0 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::accelerations;
    use crate::spawn;

    #[test]
    fn moments_match_body_totals() {
        let b = spawn::uniform_ball(500, 5.0, 2.0, 1);
        let t = Octree::build(&b);
        assert!((t.root_mass() as f64 - b.total_mass()).abs() < 1e-2);
        assert!((t.root_com() - b.center_of_mass()).norm() < 1e-3);
        assert!(t.n_nodes() > 1);
        assert!(t.depth() >= 2);
    }

    #[test]
    fn theta_zero_equals_direct_sum() {
        // θ = 0 never opens a cell by the s/d < θ test... it always
        // opens (open >= 0 is true), so every interaction is exact.
        let b = spawn::uniform_ball(200, 3.0, 1.0, 2);
        let p = ForceParams::default();
        let t = Octree::build(&b);
        let direct = accelerations(&b, &p);
        for (i, d) in direct.iter().enumerate() {
            let a = t.accel_recursive(&b, &p, b.pos[i], 0.0);
            let err = (a - *d).norm() / d.norm().max(1e-12);
            assert!(err < 1e-5, "body {i}: err {err}");
        }
    }

    #[test]
    fn moderate_theta_approximates_direct() {
        let b = spawn::uniform_ball(800, 10.0, 1.0, 3);
        let p = ForceParams::default();
        let direct = accelerations(&b, &p);
        let bh = accelerations_bh(&b, &p, 0.5);
        let mut worst = 0.0f32;
        for i in 0..b.len() {
            let err = (bh[i] - direct[i]).norm() / direct[i].norm().max(1e-9);
            worst = worst.max(err);
        }
        assert!(
            worst < 0.05,
            "worst relative error {worst} too large for θ=0.5"
        );
    }

    #[test]
    fn parallel_bh_matches_serial_traversal_bitwise() {
        let b = spawn::uniform_ball(700, 8.0, 1.0, 5);
        let p = ForceParams::default();
        let t = Octree::build(&b);
        let bh = accelerations_bh(&b, &p, 0.6);
        assert_eq!(bh.len(), b.len());
        for (i, a) in bh.iter().enumerate() {
            let s = t.accel_recursive(&b, &p, b.pos[i], 0.6);
            assert_eq!(a.x.to_bits(), s.x.to_bits(), "body {i} x");
            assert_eq!(a.y.to_bits(), s.y.to_bits(), "body {i} y");
            assert_eq!(a.z.to_bits(), s.z.to_bits(), "body {i} z");
        }
    }

    #[test]
    fn iterative_matches_recursive_exactly() {
        let b = spawn::uniform_ball(300, 8.0, 1.0, 4);
        let p = ForceParams::default();
        let t = Octree::build(&b);
        for i in (0..b.len()).step_by(17) {
            let r = t.accel_recursive(&b, &p, b.pos[i], 0.7);
            let it = t.accel_iterative(&b, &p, b.pos[i], 0.7);
            assert_eq!(r, it, "body {i}: traversal order must match");
        }
    }

    #[test]
    fn coincident_bodies_do_not_recurse_forever() {
        let mut b = Bodies::default();
        for _ in 0..50 {
            b.push(Vec3::new(1.0, 1.0, 1.0), Vec3::ZERO, 1.0);
        }
        // A couple elsewhere so bounds are non-degenerate.
        b.push(Vec3::ZERO, Vec3::ZERO, 1.0);
        let t = Octree::build(&b);
        assert!(t.depth() < 60);
    }

    #[test]
    fn bigger_theta_is_cheaper_but_less_accurate() {
        let b = spawn::uniform_ball(600, 10.0, 1.0, 6);
        let p = ForceParams::default();
        let direct = accelerations(&b, &p);
        let err_at = |theta: f32| {
            let bh = accelerations_bh(&b, &p, theta);
            let mut s = 0.0f64;
            for i in 0..b.len() {
                s += ((bh[i] - direct[i]).norm() / direct[i].norm().max(1e-9)) as f64;
            }
            s / b.len() as f64
        };
        let tight = err_at(0.3);
        let loose = err_at(1.2);
        assert!(
            tight < loose,
            "θ=0.3 err {tight} should beat θ=1.2 err {loose}"
        );
    }
}

// ---------------------------------------------------------------------------
// Linearized tree — the GPU-consumable form (paper Sec. I-D)
// ---------------------------------------------------------------------------

/// Maximum bodies per linearized leaf (the GPU kernel's fixed inner bound).
pub const LINEAR_LEAF_CAP: usize = 8;
/// Maximum children per linearized internal node.
pub const LINEAR_FANOUT: usize = 8;

/// An octree flattened into arrays — the form a recursion-free, iterative
/// traversal (CPU or GPU) consumes. Children of a node are contiguous;
/// oversized leaves are split into sub-trees so every leaf holds at most
/// [`LINEAR_LEAF_CAP`] bodies.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearTree {
    /// Per node: center of mass x, y, z and total mass.
    pub com: Vec<[f32; 4]>,
    /// Per node: cell side length squared (for the s² ≥ θ²·d² opening test).
    pub side_sq: Vec<f32>,
    /// Per node: `[first_child, n_children, body_start, n_bodies]` — internal
    /// nodes have `n_children > 0`, leaves have `n_bodies > 0`.
    pub meta: Vec<[u32; 4]>,
    /// Leaf bodies, contiguous per leaf: x, y, z, mass (mass may be
    /// pre-scaled by G for device use).
    pub bodies: Vec<[f32; 4]>,
}

impl LinearTree {
    /// Flatten an octree. `g` pre-scales the stored masses (both the node
    /// COM masses and the leaf bodies), matching the GPU kernels' convention.
    pub fn build(tree: &Octree, b: &Bodies, g: f32) -> LinearTree {
        let mut lt = LinearTree {
            com: Vec::new(),
            side_sq: Vec::new(),
            meta: Vec::new(),
            bodies: Vec::new(),
        };
        lt.emit(tree, b, g, tree.root);
        lt
    }

    /// Flatten directly from bodies (builds the octree internally).
    pub fn from_bodies(b: &Bodies, g: f32) -> LinearTree {
        LinearTree::build(&Octree::build(b), b, g)
    }

    /// Number of linearized nodes.
    pub fn n_nodes(&self) -> usize {
        self.com.len()
    }

    fn push_node(&mut self, com: Vec3, mass: f32, side_sq: f32) -> usize {
        let id = self.com.len();
        self.com.push([com.x, com.y, com.z, mass]);
        self.side_sq.push(side_sq);
        self.meta.push([0, 0, 0, 0]);
        id
    }

    /// Emit node `node` of the octree; returns its linear id.
    fn emit(&mut self, tree: &Octree, b: &Bodies, g: f32, node: u32) -> usize {
        let ni = node as usize;
        let side = tree.sides[ni];
        let id = self.push_node(tree.coms[ni], g * tree.masses[ni], side * side);
        match &tree.nodes[ni] {
            Node::Leaf { bodies } => {
                if bodies.len() <= LINEAR_LEAF_CAP {
                    self.fill_leaf(id, bodies, b, g);
                } else {
                    // Oversized (degenerate) leaf: split into pseudo-children.
                    self.split_oversized(id, bodies.clone(), b, g, side);
                }
            }
            Node::Cell { children } => {
                let kids: Vec<u32> = children.iter().flatten().copied().collect();
                // Children must be contiguous: reserve by emitting into a
                // scratch then record ids — emission is depth-first, so ids
                // of siblings are NOT contiguous in general. Fix: emit
                // children breadth-contiguously by first pushing placeholder
                // nodes, then filling them.
                let first = self.com.len();
                for &k in &kids {
                    let kni = k as usize;
                    let ks = tree.sides[kni];
                    self.push_node(tree.coms[kni], g * tree.masses[kni], ks * ks);
                }
                self.meta[id] = [first as u32, kids.len() as u32, 0, 0];
                for (slot, &k) in kids.iter().enumerate() {
                    self.fill_from(tree, b, g, k, first + slot);
                }
            }
        }
        id
    }

    /// Fill the already-allocated linear node `id` with octree node `node`'s
    /// contents (children are appended at the end of the arrays).
    fn fill_from(&mut self, tree: &Octree, b: &Bodies, g: f32, node: u32, id: usize) {
        let ni = node as usize;
        match &tree.nodes[ni] {
            Node::Leaf { bodies } => {
                if bodies.len() <= LINEAR_LEAF_CAP {
                    self.fill_leaf(id, bodies, b, g);
                } else {
                    self.split_oversized(id, bodies.clone(), b, g, tree.sides[ni]);
                }
            }
            Node::Cell { children } => {
                let kids: Vec<u32> = children.iter().flatten().copied().collect();
                let first = self.com.len();
                for &k in &kids {
                    let kni = k as usize;
                    let ks = tree.sides[kni];
                    self.push_node(tree.coms[kni], g * tree.masses[kni], ks * ks);
                }
                self.meta[id] = [first as u32, kids.len() as u32, 0, 0];
                for (slot, &k) in kids.iter().enumerate() {
                    self.fill_from(tree, b, g, k, first + slot);
                }
            }
        }
    }

    fn fill_leaf(&mut self, id: usize, members: &[u32], b: &Bodies, g: f32) {
        let start = self.bodies.len() as u32;
        for &bi in members {
            let p = b.pos[bi as usize];
            self.bodies.push([p.x, p.y, p.z, g * b.mass[bi as usize]]);
        }
        self.meta[id] = [0, 0, start, members.len() as u32];
    }

    /// Split an oversized leaf into chains of pseudo-internal nodes whose
    /// leaves hold ≤ LINEAR_LEAF_CAP bodies each. The pseudo-children share
    /// the parent's cell geometry (conservative for the opening test).
    fn split_oversized(&mut self, id: usize, members: Vec<u32>, b: &Bodies, g: f32, side: f32) {
        let chunks: Vec<Vec<u32>> = members
            .chunks(LINEAR_LEAF_CAP)
            .map(|c| c.to_vec())
            .collect();
        if chunks.len() == 1 {
            self.fill_leaf(id, &chunks[0], b, g);
            return;
        }
        // Up to 8 direct chunks; more recurses (very rare).
        let groups: Vec<Vec<u32>> = if chunks.len() <= LINEAR_FANOUT {
            chunks
        } else {
            let per = members.len().div_ceil(LINEAR_FANOUT);
            members.chunks(per).map(|c| c.to_vec()).collect()
        };
        let first = self.com.len();
        for grp in &groups {
            let (com, mass) = group_com(grp, b);
            self.push_node(com, g * mass, side * side);
        }
        self.meta[id] = [first as u32, groups.len() as u32, 0, 0];
        for (slot, grp) in groups.into_iter().enumerate() {
            if grp.len() <= LINEAR_LEAF_CAP {
                self.fill_leaf(first + slot, &grp, b, g);
            } else {
                self.split_oversized(first + slot, grp, b, g, side);
            }
        }
    }

    /// Iterative traversal of the linear tree, in **exactly the order the
    /// GPU kernel uses** (push children ascending, pop LIFO; same operation
    /// order in the force accumulation). This is the bit-exact CPU reference
    /// for the GPU Barnes–Hut kernel. Masses are already G-scaled.
    // Statements mirror the BH kernel's fmad operand order for bit parity;
    // see `nbody::model::accel_one_exact`.
    #[allow(clippy::assign_op_pattern)]
    pub fn accel_kernel_order(&self, p: Vec3, theta_sq: f32, eps_sq: f32) -> Vec3 {
        let (mut ax, mut ay, mut az) = (0.0f32, 0.0f32, 0.0f32);
        let mut stack: Vec<u32> = vec![0];
        while let Some(node) = stack.pop() {
            let ni = node as usize;
            let c = self.com[ni];
            let dx = c[0] - p.x;
            let dy = c[1] - p.y;
            let dz = c[2] - p.z;
            let mut t = dx * dx;
            t = dy * dy + t;
            t = dz * dz + t;
            let thr = theta_sq * t;
            let meta = self.meta[ni];
            // "Far" when s² < θ²·d²; leaves and near-internal nodes descend.
            if self.side_sq[ni] < thr {
                let mut r2 = t + eps_sq;
                r2 = r2.max(crate::model::MIN_DIST_SQ);
                let rinv = 1.0 / r2.sqrt();
                let mut rc = rinv * rinv;
                rc = rc * rinv;
                let s = c[3] * rc;
                ax = dx * s + ax;
                ay = dy * s + ay;
                az = dz * s + az;
            } else if meta[1] > 0 {
                // Internal: push children ascending (kernel order).
                for cidx in 0..meta[1] {
                    stack.push(meta[0] + cidx);
                }
            } else {
                // Leaf: accumulate members in order.
                for j in 0..meta[3] {
                    let bref = self.bodies[(meta[2] + j) as usize];
                    crate::model::accel_one_exact(
                        p,
                        Vec3::new(bref[0], bref[1], bref[2]),
                        bref[3],
                        eps_sq,
                        &mut ax,
                        &mut ay,
                        &mut az,
                    );
                }
            }
        }
        Vec3::new(ax, ay, az)
    }

    /// Worst-case traversal stack depth over a body sample (for sizing the
    /// GPU kernel's shared-memory stack).
    pub fn max_stack_depth(&self, probes: &[Vec3], theta_sq: f32) -> usize {
        let mut worst = 0usize;
        for &p in probes {
            let mut depth = 1usize;
            let mut stack: Vec<u32> = vec![0];
            while let Some(node) = stack.pop() {
                let ni = node as usize;
                let c = self.com[ni];
                let d2 = (Vec3::new(c[0], c[1], c[2]) - p).norm_sq();
                let meta = self.meta[ni];
                if self.side_sq[ni] >= theta_sq * d2 && meta[1] > 0 {
                    for cidx in 0..meta[1] {
                        stack.push(meta[0] + cidx);
                    }
                }
                depth = depth.max(stack.len());
            }
            worst = worst.max(depth);
        }
        worst
    }
}

fn group_com(members: &[u32], b: &Bodies) -> (Vec3, f32) {
    let mut m = 0.0f32;
    let mut w = Vec3::ZERO;
    for &bi in members {
        m += b.mass[bi as usize];
        w += b.pos[bi as usize] * b.mass[bi as usize];
    }
    (if m > 0.0 { w / m } else { Vec3::ZERO }, m)
}

#[cfg(test)]
mod linear_tests {
    use super::*;
    use crate::direct::accelerations;
    use crate::model::ForceParams;
    use crate::spawn;

    #[test]
    fn linear_tree_conserves_mass_and_bodies() {
        let b = spawn::plummer(700, 1.0, 5.0, 9);
        let lt = LinearTree::from_bodies(&b, 1.0);
        assert_eq!(
            lt.bodies.len(),
            b.len(),
            "every body lands in exactly one leaf"
        );
        let leaf_mass: f64 = lt.bodies.iter().map(|x| x[3] as f64).sum();
        assert!((leaf_mass - b.total_mass()).abs() < 1e-2);
        // Every leaf within cap; children ranges valid.
        for (i, m) in lt.meta.iter().enumerate() {
            assert!(m[3] as usize <= LINEAR_LEAF_CAP, "node {i} leaf too big");
            assert!(m[0] as usize + m[1] as usize <= lt.n_nodes());
            assert!(m[2] as usize + m[3] as usize <= lt.bodies.len());
            assert!(
                m[1] > 0 || m[3] > 0 || lt.com[i][3] == 0.0,
                "node {i} is empty but massive"
            );
        }
    }

    #[test]
    fn oversized_degenerate_leaves_are_split() {
        let mut b = Bodies::default();
        for _ in 0..100 {
            b.push(Vec3::new(1.0, 1.0, 1.0), Vec3::ZERO, 1.0);
        }
        b.push(Vec3::ZERO, Vec3::ZERO, 1.0);
        let lt = LinearTree::from_bodies(&b, 1.0);
        assert_eq!(lt.bodies.len(), 101);
        assert!(lt.meta.iter().all(|m| m[3] as usize <= LINEAR_LEAF_CAP));
    }

    #[test]
    fn kernel_order_traversal_approximates_direct() {
        let b = spawn::uniform_ball(600, 8.0, 1.0, 21);
        let fp = ForceParams::default();
        let direct = accelerations(&b, &fp);
        let lt = LinearTree::from_bodies(&b, fp.g);
        let theta = 0.4f32;
        let mut worst = 0.0f32;
        for i in (0..b.len()).step_by(11) {
            let a = lt.accel_kernel_order(b.pos[i], theta * theta, fp.eps_sq());
            let err = (a - direct[i]).norm() / direct[i].norm().max(1e-9);
            worst = worst.max(err);
        }
        assert!(worst < 0.05, "worst error {worst} at θ=0.4");
    }

    #[test]
    fn theta_zero_kernel_order_is_exact_vs_direct_order_tolerance() {
        let b = spawn::uniform_ball(150, 3.0, 1.0, 2);
        let fp = ForceParams::default();
        let direct = accelerations(&b, &fp);
        let lt = LinearTree::from_bodies(&b, fp.g);
        for (i, d) in direct.iter().enumerate() {
            let a = lt.accel_kernel_order(b.pos[i], 0.0, fp.eps_sq());
            let err = (a - *d).norm() / d.norm().max(1e-12);
            assert!(err < 1e-4, "body {i}: {err}");
        }
    }

    #[test]
    fn stack_depth_is_bounded_for_realistic_workloads() {
        let b = spawn::plummer(4000, 1.0, 1.0, 5);
        let lt = LinearTree::from_bodies(&b, 1.0);
        let depth = lt.max_stack_depth(&b.pos, 0.25);
        assert!(depth > 1);
        assert!(depth <= 48, "depth {depth} exceeds the GPU stack budget");
    }
}
