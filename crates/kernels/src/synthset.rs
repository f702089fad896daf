//! The workspace synthesis targets: kernels `kernel-lint --suggest` and
//! `--fix` run the layout/schedule synthesizer over, with the launch
//! configurations and the acceptance yardstick.
//!
//! The headline target is the paper's own starting point: the naive GPU
//! port of the force kernel — 28-byte packed records, rolled tile loop,
//! ε² recomputed every iteration. Synthesis must rediscover Sec. III–IV's
//! answer from the access summaries alone: pack the four hot words
//! (px, py, pz, mass) into one 16-byte SoAoaS tile, drop the three cold
//! velocity words, and schedule invariant code motion before a full
//! unroll — and it must *prove* the rewrite before suggesting it.

use gpu_sim::analyze::synth::{synthesize, SynthConfig, SynthReport};
use gpu_sim::driver::DriverModel;
use gpu_sim::ir::layout::LayoutRewrite;
use gpu_sim::ir::Kernel;
use particle_layouts::plan::{SynthesizedField, SynthesizedLayout};
use particle_layouts::Layout;

use crate::force::{build_force_kernel, ForceKernelConfig};
use crate::lintset::fake_force_params;

/// The measured end-to-end speedup of the hand-derived ladder at the
/// paper's block sizes (`results/table_verify.csv`, SoAoaS+unroll+ICM over
/// the AoS baseline): the yardstick machine synthesis is held to.
pub const LADDER_MEASURED_SPEEDUP: f64 = 1.24;

/// Relative tolerance on [`LADDER_MEASURED_SPEEDUP`] for the synthesized
/// winner's *predicted* speedup. Synthesis works at the kernel's native
/// block size (it cannot retune the launch), so it reproduces the ladder's
/// layout + schedule steps, not the final 128-thread occupancy step.
pub const SPEEDUP_TOLERANCE: f64 = 0.05;

/// One kernel the synthesizer is pointed at.
pub struct SynthTarget {
    /// Stable identifier for reports and tables.
    pub name: &'static str,
    /// The kernel as written (pre-optimization).
    pub kernel: Kernel,
    /// Launch + pricing configuration.
    pub config: SynthConfig,
    /// Layout tag the winner is expected to carry (`None` = no layout
    /// expectation, schedule-only target).
    pub expect_layout: Option<&'static str>,
}

impl SynthTarget {
    /// Run the synthesizer on this target.
    pub fn synthesize(&self) -> Result<SynthReport, gpu_sim::analyze::synth::SynthError> {
        synthesize(&self.kernel, &self.config)
    }
}

/// Express a proven IR-level [`LayoutRewrite`] as the layouts crate's
/// [`SynthesizedLayout`] — the host-side artifact `kernel-lint --fix`
/// emits so allocation code can adopt the new buffers.
pub fn synthesized_layout(rw: &LayoutRewrite) -> SynthesizedLayout {
    let fields = rw
        .maps
        .iter()
        .flat_map(|m| {
            m.words
                .iter()
                .map(move |&(old_offset, dest)| SynthesizedField {
                    old_buffer: m.param as usize,
                    old_offset,
                    buffer: dest.buffer,
                    offset: dest.offset,
                })
        })
        .collect();
    SynthesizedLayout::new(rw.tag.clone(), rw.new_strides.clone(), fields)
}

/// The naive force kernel under `layout` at its native block size, wired
/// up as a synthesis target for `driver`.
fn force_target(
    name: &'static str,
    layout: Layout,
    block: u32,
    driver: DriverModel,
    expect_layout: Option<&'static str>,
) -> SynthTarget {
    const GRID: u32 = 2;
    let kernel = build_force_kernel(ForceKernelConfig {
        layout,
        block,
        unroll: 1,
        icm: false,
    });
    // buffers…, out, then n, which the synthesizer re-derives per launch shape
    let n_param = layout.buffers().len() + 1;
    let config = SynthConfig::new(driver, GRID, block, fake_force_params(layout, GRID * block))
        .with_n_param(n_param)
        .with_max_suggestions(2);
    SynthTarget {
        name,
        kernel,
        config,
        expect_layout,
    }
}

/// The ladder's endpoint (SoAoaS layout, full unroll, invariant code
/// motion) at `block` — a fixed point synthesis must not move: property
/// tests assert `synthesize` proposes nothing above the gain threshold on
/// these, so `--fix` terminates after one application.
pub fn endpoint_target(block: u32, driver: DriverModel) -> SynthTarget {
    const GRID: u32 = 2;
    let kernel = build_force_kernel(ForceKernelConfig {
        layout: Layout::SoAoaS,
        block,
        unroll: block,
        icm: true,
    });
    let n_param = Layout::SoAoaS.buffers().len() + 1;
    let config = SynthConfig::new(
        driver,
        GRID,
        block,
        fake_force_params(Layout::SoAoaS, GRID * block),
    )
    .with_n_param(n_param);
    SynthTarget {
        name: "ladder-endpoint",
        kernel,
        config,
        expect_layout: None,
    }
}

/// The headline target: the paper's naive 28-byte AoS force kernel at the
/// original port's 192-thread blocks. Synthesis must find the SoAoaS-16
/// hot/cold split plus a licm-before-unroll schedule.
pub fn force_unopt_target(driver: DriverModel) -> SynthTarget {
    force_target(
        "force-unopt-b192",
        Layout::Unopt,
        192,
        driver,
        Some("soaoas-16"),
    )
}

/// Every kernel × launch the workspace runs synthesis over.
pub fn synth_targets(driver: DriverModel) -> Vec<SynthTarget> {
    vec![
        force_unopt_target(driver),
        // SoA at a small block: four stride-4 scalar arrays whose hot words
        // synthesis should re-pack into one float4 record (the SoA→SoAoaS
        // step of the ladder in isolation, cheap enough for the test gate).
        force_target("force-soa-b64", Layout::SoA, 64, driver, Some("soaoas-16")),
    ]
}

/// Does the winner's predicted speedup land within
/// [`SPEEDUP_TOLERANCE`] of the hand-derived ladder's measured
/// [`LADDER_MEASURED_SPEEDUP`]?
pub fn within_ladder_band(predicted_speedup: f64) -> bool {
    (predicted_speedup / LADDER_MEASURED_SPEEDUP - 1.0).abs() <= SPEEDUP_TOLERANCE
}
