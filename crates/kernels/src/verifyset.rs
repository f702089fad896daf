//! The curated **translation-validation** target set: every workspace kernel
//! paired with every IR pass that applies to it, plus the cross-layout
//! equivalences of the force-kernel ladder — the inputs to
//! `kernel-lint --verify` and the CI `verify-kernels` gate.
//!
//! Launch shapes are deliberately small (the proof is per-thread and
//! symbolic in memory contents, so a 2-block × 32-thread launch already
//! exercises tiling, staging and grid striding); what matters is coverage of
//! kernel structure, not problem size.

use gpu_sim::analyze::verify::{InputMap, PassId, VerifyConfig, VerifyResult};
use gpu_sim::analyze::{analyze_kernel, cost, AnalysisConfig, BufferExtent, Severity};
use gpu_sim::ir::Kernel;
use particle_layouts::{Layout, Particle};

use crate::banks::build_bank_kernel;
use crate::barnes_hut::{build_bh_kernel, traversal_budget, BhKernelConfig};
use crate::force::{build_force_kernel, build_force_kernel_prefetch, ForceKernelConfig};
use crate::integrate::build_integrate_kernel;
use crate::membench::{build_membench_kernel, MembenchConfig};

/// One kernel × pass application to prove equivalent.
pub struct PassVerifyTarget {
    /// The kernel before the pass.
    pub kernel: Kernel,
    /// The pass under validation.
    pub pass: PassId,
    /// Launch shape and parameters to verify under.
    pub cfg: VerifyConfig,
}

impl PassVerifyTarget {
    /// Run the proof.
    pub fn verify(&self) -> VerifyResult {
        gpu_sim::analyze::verify::verify_pass(&self.kernel, self.pass, &self.cfg)
    }
}

/// One layout-rewrite equivalence of the force ladder: the same physics
/// computed under two data layouts must store identical accelerations.
pub struct LayoutVerifyTarget {
    /// Layout of the original kernel.
    pub from: Layout,
    /// Layout the `layout_advisor` fix-it rewrites to.
    pub to: Layout,
    /// Force kernel under `from`.
    pub a: Kernel,
    /// Force kernel under `to`.
    pub b: Kernel,
    /// Verification config carrying both parameter vectors and both
    /// canonical input maps.
    pub cfg: VerifyConfig,
}

impl LayoutVerifyTarget {
    /// Run the proof.
    pub fn verify(&self) -> VerifyResult {
        gpu_sim::analyze::verify::verify_equiv(&self.a, &self.b, &self.cfg)
    }
}

/// Fake, 64 KiB-apart device buffer addresses (same scheme as `lintset`).
fn fake_buffers(n: usize) -> Vec<u32> {
    (0..n as u32).map(|i| 0x1_0000 * (i + 1)).collect()
}

/// Launch shape every verify target uses: 2 blocks of 32 threads — big
/// enough for grid striding and a 2-tile loop, small enough that symbolic
/// execution is instant.
const GRID: u32 = 2;
const BLOCK: u32 = 32;

/// Force-kernel launch parameters under `layout` for the verify shape.
fn force_verify_params(layout: Layout) -> Vec<u32> {
    let mut p = fake_buffers(layout.buffers().len());
    p.push(0x20_0000); // out
    p.push(GRID * BLOCK); // n
    p.push(0.5f32.to_bits()); // eps
    p.push(0); // smem0
    p
}

/// Canonical `(element, field)` naming for every global word the posmass
/// read plan of `layout` can touch, so the same logical datum gets the same
/// input term under every layout. Field codes 0–3 are px/py/pz/mass; dead
/// ride-along words (a vector load's vx or padding) get codes ≥ 4 that are
/// unique per plan slot and never collide with the hot fields.
pub fn posmass_input_map(layout: Layout, buffers: &[u32], n: u32) -> InputMap {
    let plan = layout.read_plan_posmass();
    let hot = Particle::POSMASS.map(|w| plan.lane(w));
    let mut map = InputMap::default();
    for e in 0..n as u64 {
        for (ri, r) in plan.reads.iter().enumerate() {
            let base = buffers[r.buffer] as u64;
            for w in 0..r.words as u64 {
                let addr = base + e * r.stride as u64 + r.offset as u64 + 4 * w;
                let field = match hot.iter().position(|&l| l == (ri, w as usize)) {
                    Some(f) => f as u64,
                    None => 4 + (ri as u64 * 4 + w),
                };
                map.global.insert(addr, e * 16 + field);
            }
        }
    }
    map
}

/// Every kernel × pass pair `kernel-lint --verify` must prove.
///
/// Pass applicability follows each kernel's structure: `unroll_innermost`
/// requires an innermost loop with immediate bounds (the force tile loop's
/// inner loop, membench's and banks' iteration loops); `licm` and
/// `fold_addressing` apply everywhere. The Barnes–Hut traversal is not a
/// pass target — its store trace depends on loaded tree data — but it is no
/// longer outside the gate: [`bounds_targets`] verifies it through the
/// interval analyzer instead, demanding finite transaction and cycle bounds
/// under its traversal budget.
pub fn workspace_pass_targets() -> Vec<PassVerifyTarget> {
    let mut targets = Vec::new();

    // --- force: every layout, rolled baseline, all passes + compositions --
    for layout in Layout::ALL {
        let fcfg = ForceKernelConfig {
            layout,
            block: BLOCK,
            unroll: 1,
            icm: false,
        };
        let kernel = build_force_kernel(fcfg);
        let cfg = VerifyConfig::new(GRID, BLOCK, force_verify_params(layout));
        let passes: &[PassId] = if layout == Layout::SoAoaS {
            // The paper's ladder layout additionally proves both composition
            // orders and the full unroll.
            &[
                PassId::Licm,
                PassId::Fold,
                PassId::Unroll(4),
                PassId::Unroll(BLOCK),
                PassId::LicmThenUnroll(BLOCK),
                PassId::UnrollThenLicm(BLOCK),
            ]
        } else {
            &[PassId::Licm, PassId::Fold, PassId::Unroll(4)]
        };
        for &pass in passes {
            targets.push(PassVerifyTarget {
                kernel: kernel.clone(),
                pass,
                cfg: cfg.clone(),
            });
        }
    }

    // --- force: the prefetch variant (SoAoaS only) ------------------------
    {
        let fcfg = ForceKernelConfig {
            layout: Layout::SoAoaS,
            block: BLOCK,
            unroll: 1,
            icm: false,
        };
        let kernel = build_force_kernel_prefetch(fcfg);
        let cfg = VerifyConfig::new(GRID, BLOCK, force_verify_params(Layout::SoAoaS));
        for pass in [PassId::Licm, PassId::Fold] {
            targets.push(PassVerifyTarget {
                kernel: kernel.clone(),
                pass,
                cfg: cfg.clone(),
            });
        }
    }

    // --- membench: every layout ------------------------------------------
    for layout in Layout::ALL {
        let mcfg = MembenchConfig { layout, iters: 2 };
        let kernel = build_membench_kernel(mcfg);
        let mut params = fake_buffers(layout.buffers().len());
        params.push(0x20_0000); // out_delta
        params.push(0x21_0000); // out_sum
        let cfg = VerifyConfig::new(1, BLOCK, params);
        for pass in [PassId::Licm, PassId::Fold, PassId::Unroll(2)] {
            targets.push(PassVerifyTarget {
                kernel: kernel.clone(),
                pass,
                cfg: cfg.clone(),
            });
        }
    }

    // --- integrate: every layout (straight-line: no unroll) ---------------
    for layout in Layout::ALL {
        let kernel = build_integrate_kernel(layout);
        let mut params = fake_buffers(layout.buffers().len());
        params.push(0x20_0000); // acc
        params.push(0.01f32.to_bits()); // dt
        let cfg = VerifyConfig::new(1, BLOCK, params);
        for pass in [PassId::Licm, PassId::Fold] {
            targets.push(PassVerifyTarget {
                kernel: kernel.clone(),
                pass,
                cfg: cfg.clone(),
            });
        }
    }

    // --- banks: the conflict microbenchmark -------------------------------
    for stride in [1u32, 2, 16] {
        let kernel = build_bank_kernel(stride, 2);
        let cfg = VerifyConfig::new(1, BLOCK, vec![0x20_0000, 0x21_0000]);
        for pass in [PassId::Licm, PassId::Fold, PassId::Unroll(2)] {
            targets.push(PassVerifyTarget {
                kernel: kernel.clone(),
                pass,
                cfg: cfg.clone(),
            });
        }
    }

    targets
}

/// A data-dependent kernel the affine checker cannot prove store-trace
/// equivalence for, verified through the **interval analyzer** instead: the
/// gate demands finite `[best, worst]` transaction and cycle bounds under
/// the kernel's trip-count budget, with no error-severity findings.
pub struct BoundsVerifyTarget {
    /// The kernel to bound.
    pub kernel: Kernel,
    /// Analysis configuration: launch shape, trip budget, buffer extents.
    pub cfg: AnalysisConfig,
}

/// What a [`BoundsVerifyTarget`] delivers when the analyzer succeeds.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsCertificate {
    /// Kernel name.
    pub kernel: String,
    /// `[best, worst]` global transactions over the launch.
    pub transaction_bounds: (u64, u64),
    /// `[best, worst]` predicted cycles.
    pub cycle_bounds: (f64, f64),
    /// `possible-out-of-bounds` warnings the certifier raised (expected for
    /// tree-indexed sites whose addresses live in loaded data).
    pub oob_warnings: usize,
}

impl BoundsVerifyTarget {
    /// Run the analyzer and check the certificate obligations. `Err` is the
    /// analogue of [`VerifyResult::Unsupported`] — the gate counts it
    /// unproven.
    pub fn verify(&self) -> Result<BoundsCertificate, String> {
        let report = analyze_kernel(&self.kernel, &self.cfg);
        if let Some(d) = report
            .diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
        {
            return Err(format!("error finding `{}`: {}", d.kind.name(), d.message));
        }
        let (tx_lo, tx_hi) = report.transaction_bounds;
        if tx_hi == 0 || tx_hi < tx_lo {
            return Err(format!(
                "analyzer produced no transaction bounds (got [{tx_lo}, {tx_hi}])"
            ));
        }
        let bounds = cost::estimate_bounds_from_report(&self.kernel, &self.cfg, &report)
            .map_err(|e| format!("no cycle bounds: {e}"))?;
        let (cy_lo, cy_hi) = bounds.cycle_range();
        if !(cy_lo.is_finite() && cy_hi.is_finite() && cy_lo > 0.0 && cy_lo <= cy_hi) {
            return Err(format!("degenerate cycle bounds [{cy_lo}, {cy_hi}]"));
        }
        let oob_warnings = report
            .diagnostics
            .iter()
            .filter(|d| {
                d.severity == Severity::Warning && d.kind.name() == "possible-out-of-bounds"
            })
            .count();
        Ok(BoundsCertificate {
            kernel: self.kernel.name.clone(),
            transaction_bounds: (tx_lo, tx_hi),
            cycle_bounds: (cy_lo, cy_hi),
            oob_warnings,
        })
    }
}

/// The Barnes–Hut traversal targets: the default G80 shape under a small
/// (63-node) tree budget, and a shallower-stack variant under a mid-size
/// (1023-node) budget — both must certify with finite bounds.
pub fn bounds_targets() -> Vec<BoundsVerifyTarget> {
    [
        (BhKernelConfig::g80_default(), 63u32),
        (
            BhKernelConfig {
                block: 64,
                depth: 32,
            },
            1023,
        ),
    ]
    .into_iter()
    .map(|(bh, n_nodes)| {
        let addrs = fake_buffers(5); // pos, com, side_meta, bodies, out
        let mut params = addrs.clone();
        params.push(0.25f32.to_bits()); // theta²
        params.push(0.5f32.to_bits()); // eps
        let cfg = AnalysisConfig::new(GRID, bh.block, params)
            .with_trip_budget(traversal_budget(n_nodes))
            .with_buffers(
                addrs
                    .iter()
                    .map(|&base| BufferExtent {
                        base: u64::from(base),
                        len: 0x1_0000,
                    })
                    .collect(),
            );
        BoundsVerifyTarget {
            kernel: build_bh_kernel(bh),
            cfg,
        }
    })
    .collect()
}

/// The layout ladder as equivalence proofs: every layout's force kernel
/// against the `SoAoaS` target the `layout_advisor` fix-it rewrites to.
/// (Membench is *not* here: its reduction sums fields in plan order, so two
/// layouts legitimately produce different float sums.)
pub fn layout_ladder_targets() -> Vec<LayoutVerifyTarget> {
    let to = Layout::SoAoaS;
    let params_b = force_verify_params(to);
    let map_b = posmass_input_map(to, &params_b, GRID * BLOCK);
    let b = build_force_kernel(ForceKernelConfig {
        layout: to,
        block: BLOCK,
        unroll: 1,
        icm: false,
    });
    Layout::ALL
        .into_iter()
        .filter(|&l| l != to)
        .map(|from| {
            let params_a = force_verify_params(from);
            let map_a = posmass_input_map(from, &params_a, GRID * BLOCK);
            let a = build_force_kernel(ForceKernelConfig {
                layout: from,
                block: BLOCK,
                unroll: 1,
                icm: false,
            });
            let mut cfg = VerifyConfig::new(GRID, BLOCK, params_a);
            cfg.params_b = Some(params_b.clone());
            cfg.input_map = Some(map_a);
            cfg.input_map_b = Some(map_b.clone());
            LayoutVerifyTarget {
                from,
                to,
                a: a.clone(),
                b: b.clone(),
                cfg,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barnes_hut::BhKernelConfig;

    #[test]
    fn every_pass_target_proves() {
        for t in workspace_pass_targets() {
            let r = t.verify();
            assert!(r.is_proved(), "{} / {}: {r}", t.kernel.name, t.pass.label());
        }
    }

    #[test]
    fn the_layout_ladder_proves() {
        for t in layout_ladder_targets() {
            let r = t.verify();
            assert!(
                r.is_proved(),
                "{} → {}: {r}",
                t.from.label(),
                t.to.label(),
                r = r
            );
        }
    }

    #[test]
    fn barnes_hut_is_analyzed() {
        // The positive gate that replaced `barnes_hut_is_honestly_unsupported`:
        // the traversal is no longer outside the static story — every BH
        // target must certify with finite, non-degenerate interval bounds.
        let targets = bounds_targets();
        assert!(!targets.is_empty());
        for t in targets {
            let cert = t.verify().unwrap_or_else(|e| {
                panic!(
                    "{}: traversal must be analyzed with bounds: {e}",
                    t.kernel.name
                )
            });
            let (tx_lo, tx_hi) = cert.transaction_bounds;
            assert!(
                0 < tx_lo && tx_lo < tx_hi,
                "{}: expected a widening transaction interval, got [{tx_lo}, {tx_hi}]",
                cert.kernel
            );
            let (cy_lo, cy_hi) = cert.cycle_bounds;
            assert!(
                0.0 < cy_lo && cy_lo < cy_hi,
                "{}: expected a widening cycle interval, got [{cy_lo}, {cy_hi}]",
                cert.kernel
            );
            // The stack-indexed shared sites live in loaded data; the bounds
            // certifier is supposed to flag them, not silently pass them.
            assert!(cert.oob_warnings > 0, "{}", cert.kernel);
        }
        // The affine store-trace checker still refuses the traversal — the
        // certificate above is the honest replacement, not a new claim of
        // bit-exact equivalence.
        let k = build_bh_kernel(BhKernelConfig::g80_default());
        let mut params = vec![0x1_0000u32, 0x2_0000, 0x3_0000, 0x20_0000];
        params.resize(k.n_params as usize, 0x30_0000);
        let cfg = VerifyConfig::new(1, BLOCK, params);
        let r = gpu_sim::analyze::verify::verify_equiv(&k, &k, &cfg);
        assert!(matches!(r, VerifyResult::Unsupported { .. }), "{r}");
    }

    #[test]
    fn input_maps_cover_the_posmass_plan_disjointly() {
        for layout in Layout::ALL {
            let params = force_verify_params(layout);
            let map = posmass_input_map(layout, &params, 64);
            let plan = layout.read_plan_posmass();
            assert_eq!(map.global.len(), 64 * plan.words() as usize, "{layout}");
            // Hot-field keys are layout-independent.
            let (read, lane) = plan.lane(Particle::POS[0]);
            let r = &plan.reads[read];
            let addr =
                params[r.buffer] as u64 + 7 * r.stride as u64 + r.offset as u64 + 4 * lane as u64;
            assert_eq!(
                map.global.get(&addr),
                Some(&(7 * 16)),
                "{layout}: px of element 7"
            );
        }
    }
}
