//! Every kernel family in the workspace, paired with a representative launch
//! shape and its **expected** lint outcome — the source of truth for both
//! the `kernel-lint` CLI and the `all_kernels_lint_clean` test gate.
//!
//! A target's expectation is a set of [`LintKind`](gpu_sim::analyze::LintKind) names per severity.
//! "Dirty" targets (the paper's baseline layouts) are expected to produce
//! exactly their documented findings — the gate fails if a finding
//! *disappears* (the lint lost its teeth) just as it fails if an unexpected
//! one appears (a kernel regressed).

use gpu_sim::analyze::{analyze_kernel, AnalysisConfig, AnalysisReport, BufferExtent, Severity};
use gpu_sim::ir::Kernel;
use particle_layouts::Layout;

use crate::banks::build_bank_kernel;
use crate::barnes_hut::BhKernelConfig;
use crate::chunk::build_chunk_force_kernel;
use crate::force::{build_force_kernel, build_force_kernel_prefetch, ForceKernelConfig, OptLevel};
use crate::integrate::build_integrate_kernel;
use crate::membench::{build_membench_kernel, build_membench_texture_kernel, MembenchConfig};

/// A kernel plus launch shape plus expected lint outcome.
pub struct LintTarget {
    /// The kernel to analyze.
    pub kernel: Kernel,
    /// Blocks in the representative launch.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Launch parameters (fake 256-aligned device addresses).
    pub params: Vec<u32>,
    /// Error-severity [`gpu_sim::analyze::LintKind::name`]s this kernel is
    /// *supposed* to produce (empty = must lint clean of errors).
    pub expect_errors: Vec<&'static str>,
    /// Warning-severity kind names this kernel is supposed to produce.
    pub expect_warnings: Vec<&'static str>,
    /// Declared buffer extents for the static bounds certifier. Every
    /// global/texture access must be proven inside one of these (or the
    /// target carries an expected `possible-out-of-bounds` finding).
    pub buffers: Vec<BufferExtent>,
    /// Trip-count budget for data-dependent loops (`None` = analyzer default).
    pub trip_budget: Option<u64>,
}

impl LintTarget {
    /// The analysis configuration for this target (default device/driver).
    pub fn config(&self) -> AnalysisConfig {
        let mut cfg = AnalysisConfig::new(self.grid, self.block, self.params.clone())
            .with_buffers(self.buffers.clone());
        if let Some(budget) = self.trip_budget {
            cfg = cfg.with_trip_budget(budget);
        }
        cfg
    }

    /// Run the analyzer under the default configuration.
    pub fn analyze(&self) -> AnalysisReport {
        analyze_kernel(&self.kernel, &self.config())
    }

    /// Compare a report against the expectation. Returns one human-readable
    /// violation per mismatch: an unexpected finding kind, or an expected
    /// kind that did not fire.
    pub fn check(&self, report: &AnalysisReport) -> Vec<String> {
        let mut violations = Vec::new();
        for (sev, expected) in [
            (Severity::Error, &self.expect_errors),
            (Severity::Warning, &self.expect_warnings),
        ] {
            let mut actual: Vec<&'static str> = report
                .diagnostics
                .iter()
                .filter(|d| d.severity == sev)
                .map(|d| d.kind.name())
                .collect();
            actual.sort_unstable();
            actual.dedup();
            for kind in &actual {
                if !expected.contains(kind) {
                    violations.push(format!("{}: unexpected {sev} `{kind}`", report.kernel));
                }
            }
            for kind in expected {
                if !actual.contains(kind) {
                    violations.push(format!(
                        "{}: expected {sev} `{kind}` did not fire",
                        report.kernel
                    ));
                }
            }
        }
        violations
    }
}

/// Fake, 64 KiB-apart (hence 256-aligned) device buffer addresses, the one
/// addressing scheme of the lint, verify and synthesis targets and of the
/// unroll advisor's cost launch.
pub(crate) fn fake_buffers(n: usize) -> Vec<u32> {
    (0..n as u32).map(|i| 0x1_0000 * (i + 1)).collect()
}

/// Force-kernel launch parameters under `layout` on fake buffers: the
/// layout's buffers, `out` at `0x20_0000`, `n`, ε = 0.5 and `smem0` = 0.
pub(crate) fn fake_force_params(layout: Layout, n: u32) -> Vec<u32> {
    let mut p = fake_buffers(layout.buffers().len());
    p.push(0x20_0000); // out
    p.push(n);
    p.push(0.5f32.to_bits()); // eps
    p.push(0); // smem0
    p
}

/// Declare a 64 KiB extent at each of the given device addresses — the
/// extents the fake 64 KiB-apart addressing scheme implies.
fn extents(addrs: &[u32]) -> Vec<BufferExtent> {
    addrs
        .iter()
        .map(|&base| BufferExtent {
            base: u64::from(base),
            len: 0x1_0000,
        })
        .collect()
}

fn force_target(
    cfg: ForceKernelConfig,
    prefetch: bool,
    expect_errors: Vec<&'static str>,
    expect_warnings: Vec<&'static str>,
) -> LintTarget {
    let grid = 2u32;
    let params = fake_force_params(cfg.layout, grid * cfg.block);
    let buffers = extents(&params[..=cfg.layout.buffers().len()]); // + out
    let kernel = if prefetch {
        build_force_kernel_prefetch(cfg)
    } else {
        build_force_kernel(cfg)
    };
    LintTarget {
        kernel,
        grid,
        block: cfg.block,
        params,
        expect_errors,
        expect_warnings,
        buffers,
        trip_budget: None,
    }
}

fn chunk_target(
    cfg: ForceKernelConfig,
    expect_errors: Vec<&'static str>,
    expect_warnings: Vec<&'static str>,
) -> LintTarget {
    let grid = 2u32;
    let n_buffers = cfg.layout.buffers().len();
    let mut params = fake_buffers(2 * n_buffers); // target chunk + source chunk
    params.push(0x20_0000); // out
    let buffers = extents(&params);
    params.push(grid * cfg.block); // n_src
    params.push(0.5f32.to_bits()); // eps
    params.push(0); // smem0
    LintTarget {
        kernel: build_chunk_force_kernel(cfg),
        grid,
        block: cfg.block,
        params,
        expect_errors,
        expect_warnings,
        buffers,
        trip_budget: None,
    }
}

fn membench_target(
    layout: Layout,
    texture: bool,
    expect_errors: Vec<&'static str>,
    expect_warnings: Vec<&'static str>,
) -> LintTarget {
    let cfg = MembenchConfig { layout, iters: 2 };
    let mut params = fake_buffers(layout.buffers().len());
    params.push(0x20_0000); // out_delta
    params.push(0x21_0000); // out_sum
    let kernel = if texture {
        build_membench_texture_kernel(cfg)
    } else {
        build_membench_kernel(cfg)
    };
    let buffers = extents(&params); // every membench param is an address
    LintTarget {
        kernel,
        grid: 2,
        block: 64,
        params,
        expect_errors,
        expect_warnings,
        buffers,
        trip_budget: None,
    }
}

fn integrate_target(layout: Layout, expect_errors: Vec<&'static str>) -> LintTarget {
    let mut params = fake_buffers(layout.buffers().len());
    params.push(0x20_0000); // acc
    let buffers = extents(&params);
    params.push(0.01f32.to_bits()); // dt
    LintTarget {
        kernel: build_integrate_kernel(layout),
        grid: 2,
        block: 64,
        params,
        expect_errors,
        expect_warnings: vec![],
        buffers,
        trip_budget: None,
    }
}

fn bank_target(stride: u32, expect_warnings: Vec<&'static str>) -> LintTarget {
    let params = vec![0x1_0000, 0x2_0000];
    LintTarget {
        kernel: build_bank_kernel(stride, 2),
        grid: 1,
        block: 128,
        buffers: extents(&params),
        params,
        expect_errors: vec![],
        expect_warnings,
        trip_budget: None,
    }
}

/// The full target set: every kernel family under every layout/stride the
/// workspace exercises, with expected outcomes.
///
/// The "dirty" entries are deliberate: the paper's unoptimized layouts
/// *must* trip the coalescing lint (28/32-byte lane strides), the rolled
/// force kernels *must* trip the invariant-motion lint (the recomputed ε²),
/// and the power-of-two bank strides *must* trip the conflict lint — those
/// findings reproduce Sections III–IV statically.
pub fn workspace_lint_targets() -> Vec<LintTarget> {
    let uncoalesced = || vec!["uncoalesced-access"];
    let mut targets = Vec::new();

    // --- force: the Fig. 12 optimization ladder --------------------------
    for level in OptLevel::ALL {
        let cfg = level.config();
        let (errors, warnings): (Vec<&str>, Vec<&str>) = match level {
            // Packed records: scalar reads 28 bytes apart + the dead own-mass
            // load + the recomputed ε² of the rolled baseline.
            OptLevel::Baseline => (uncoalesced(), vec!["dead-code", "unhoisted-invariant"]),
            // SoA coalesces but keeps the dead mass-array read and ε².
            OptLevel::SoA => (vec![], vec!["dead-code", "unhoisted-invariant"]),
            // 16-byte vectors 32 bytes apart still split transactions; the
            // own-load's second float4 is fully dead.
            OptLevel::AoaS => (uncoalesced(), vec!["dead-code", "unhoisted-invariant"]),
            // The paper's layout coalesces; only ε² remains.
            OptLevel::SoAoaS => (vec![], vec!["unhoisted-invariant"]),
            // Full unroll dissolves the inner loop; the ε² copies all write
            // the same register, which `licm` (and hence the lint, which
            // diffs against it) cannot hoist — silence is correct here.
            OptLevel::SoAoaSUnrolled => (vec![], vec![]),
            // licm + unroll + block 128: fully clean.
            OptLevel::Full => (vec![], vec![]),
        };
        targets.push(force_target(cfg, false, errors, warnings));
    }
    // The one layout the ladder skips: classic AoS (32-byte records).
    targets.push(force_target(
        ForceKernelConfig {
            layout: Layout::AoS,
            block: 192,
            unroll: 1,
            icm: false,
        },
        false,
        uncoalesced(),
        vec!["dead-code", "unhoisted-invariant"],
    ));
    // The double-buffered variant (regression gate for the tile-base clamp:
    // a per-lane clamp decays the last prefetch into 16 transactions).
    targets.push(force_target(
        ForceKernelConfig {
            layout: Layout::SoAoaS,
            block: 128,
            unroll: 128,
            icm: true,
        },
        true,
        vec![],
        vec![],
    ));

    // --- chunk: the streaming variant of the force kernel ----------------
    // Same per-layout lint story as the standard kernel: the accumulator
    // seed load through `out` is a float4 whose w lane is dead, but a vector
    // load counts as live if any lane is — so no extra dead-code finding.
    for layout in Layout::ALL {
        let cfg = ForceKernelConfig {
            layout,
            block: 192,
            unroll: 1,
            icm: false,
        };
        let (errors, warnings): (Vec<&str>, Vec<&str>) = match layout {
            Layout::Unopt | Layout::AoS | Layout::AoaS => {
                (uncoalesced(), vec!["dead-code", "unhoisted-invariant"])
            }
            Layout::SoA => (vec![], vec!["dead-code", "unhoisted-invariant"]),
            Layout::SoAoaS => (vec![], vec!["unhoisted-invariant"]),
        };
        targets.push(chunk_target(cfg, errors, warnings));
    }
    // The tuned chunk kernel (the configuration chunked frames actually run).
    targets.push(chunk_target(
        ForceKernelConfig {
            layout: Layout::SoAoaS,
            block: 128,
            unroll: 128,
            icm: true,
        },
        vec![],
        vec![],
    ));

    // --- membench: the Sec. III read patterns ----------------------------
    for layout in Layout::ALL {
        let errors = match layout {
            Layout::Unopt | Layout::AoS | Layout::AoaS => uncoalesced(),
            Layout::SoA | Layout::SoAoaS => vec![],
        };
        targets.push(membench_target(layout, false, errors, vec![]));
    }
    // The texture path bypasses the coalescer entirely: info-only.
    targets.push(membench_target(Layout::Unopt, true, vec![], vec![]));

    // --- integrate: the cold-group round-trip ----------------------------
    for layout in Layout::ALL {
        let errors = match layout {
            Layout::Unopt | Layout::AoS | Layout::AoaS => uncoalesced(),
            Layout::SoA | Layout::SoAoaS => vec![],
        };
        targets.push(integrate_target(layout, errors));
    }

    // --- banks: Sec. I-A's serialization rule ----------------------------
    for stride in [1u32, 2, 3, 4, 8, 16] {
        let warnings = if stride.is_power_of_two() && stride > 1 {
            vec!["bank-conflict"]
        } else {
            vec![]
        };
        targets.push(bank_target(stride, warnings));
    }

    // --- barnes_hut: data-dependent traversal, analyzed with bounds ------
    // The walk is bounded by the traversal budget (every node is popped at
    // most once), but the node index itself comes out of shared memory, so
    // the tree-indexed addresses — and the stack pointer fed through the
    // pop/push cycle — widen to ⊤. The bounds certifier is *supposed* to
    // flag those sites: the expected `possible-out-of-bounds` finding below
    // is the honest statement that in-bounds traversal depends on tree
    // well-formedness, which the dynamic redzone checks cover.
    {
        let cfg = BhKernelConfig::g80_default();
        let addrs = fake_buffers(5); // pos, com, side_meta, bodies, out
        let mut params = addrs.clone();
        params.push(0.25f32.to_bits()); // theta²
        params.push(0.5f32.to_bits()); // eps
        targets.push(LintTarget {
            kernel: crate::barnes_hut::build_bh_kernel(cfg),
            grid: 2,
            block: cfg.block,
            params,
            expect_errors: vec![],
            expect_warnings: vec!["possible-out-of-bounds"],
            buffers: extents(&addrs),
            trip_budget: Some(crate::barnes_hut::traversal_budget(63)),
        });
    }

    targets
}
