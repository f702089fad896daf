//! The device frame-time model (the quantity Figure 12 plots).
//!
//! One Gravit GPU frame is: upload the particle buffers, run the tiled force
//! kernel over the whole grid, download the accelerations. Kernel time comes
//! from [`model_kernel`], the one kernel-time model every modeled table runs:
//! cycle-level simulation of one SM's resident wave at two reduced tile
//! counts, linearly extrapolated to the real particle count and scaled by the
//! wave count ([`grid_seconds`]; see DESIGN.md §6 for why ratios survive this
//! extrapolation).

use gpu_kernels::force::{build_force_kernel, force_params, ForceKernelConfig, OptLevel};
use gpu_sim::exec::launch::extrapolate_linear;
use gpu_sim::exec::timed::time_resident;
use gpu_sim::ir::regalloc::register_demand;
use gpu_sim::ir::Kernel;
use gpu_sim::mem::GlobalMemory;
use gpu_sim::occupancy::{occupancy, Occupancy};
use gpu_sim::transfer::PcieModel;
use gpu_sim::{DeviceConfig, DeviceResult, DriverModel, TimingParams};
use particle_layouts::device::alloc_accel_out;
use particle_layouts::{padded_count, DeviceImage, Layout, Particle};
use simcore::Vec3;

/// One modeled Gravit frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FramePoint {
    /// Optimization level.
    pub level: OptLevel,
    /// Real particle count.
    pub n: u32,
    /// Host→device copy seconds.
    pub upload_s: f64,
    /// Kernel seconds (modeled).
    pub kernel_s: f64,
    /// Device→host copy seconds.
    pub download_s: f64,
    /// Registers per thread (from the allocator).
    pub regs: u32,
    /// Occupancy of the launch.
    pub occupancy: Occupancy,
}

impl FramePoint {
    /// End-to-end frame seconds (the Fig. 12 metric).
    pub fn total_s(&self) -> f64 {
        self.upload_s + self.kernel_s + self.download_s
    }
}

/// Tile counts (as multiples of the block) used for the steady-state fit.
const FIT_TILES: [u32; 2] = [4, 8];

/// Frame decomposition for an arbitrary kernel configuration (no named
/// optimization level) — used by the block-size ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigFrame {
    /// Host→device copy seconds.
    pub upload_s: f64,
    /// Kernel seconds (modeled).
    pub kernel_s: f64,
    /// Device→host copy seconds.
    pub download_s: f64,
    /// Occupancy of the launch.
    pub occupancy: Occupancy,
}

/// Model one Gravit frame at optimization level `level` and size `n`, under
/// the given driver revision.
pub fn model_frame(level: OptLevel, n: u32, driver: DriverModel) -> FramePoint {
    let (f, regs) = model_frame_config(level.config(), n, driver);
    FramePoint {
        level,
        n,
        upload_s: f.upload_s,
        kernel_s: f.kernel_s,
        download_s: f.download_s,
        regs: regs as u32,
        occupancy: f.occupancy,
    }
}

/// Model one Gravit frame for an arbitrary force-kernel configuration.
/// Returns the decomposition and the registers per thread.
pub fn model_frame_config(
    cfg: ForceKernelConfig,
    n: u32,
    driver: DriverModel,
) -> (ConfigFrame, u16) {
    let pcie = PcieModel::pcie1_x16();
    let kernel = build_force_kernel(cfg);
    let k = model_kernel(
        &kernel,
        cfg.block,
        n,
        driver,
        standard_upload(cfg.layout, cfg.block),
    )
    .expect("the force kernel's model launch is well-formed");
    let padded = padded_count(n, cfg.block);
    let buffer_sizes: Vec<u64> = cfg
        .layout
        .buffers()
        .iter()
        .map(|b| b.stride() * padded)
        .collect();
    (
        ConfigFrame {
            upload_s: pcie.copies_time_s(&buffer_sizes),
            kernel_s: k.seconds,
            download_s: pcie.copy_time_s(16 * padded),
            occupancy: k.occupancy,
        },
        k.regs,
    )
}

/// The modeled full-grid time of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTime {
    /// Kernel seconds at the device clock.
    pub seconds: f64,
    /// Registers per thread (from the allocator).
    pub regs: u16,
    /// Occupancy of the launch.
    pub occupancy: Occupancy,
}

/// Model the full-grid time of `kernel` over `n` particles in blocks of
/// `block` threads on the G80 under `driver`.
///
/// One SM's resident wave is simulated at each of the `FIT_TILES` tile
/// counts; `upload` writes that fit's particles into an empty scratch device
/// memory and returns the kernel's launch parameters. Per-wave cycles are
/// extrapolated linearly to the padded `n` and scaled by the wave count
/// ([`grid_seconds`]). Residency is clamped to the smallest fitted grid: a
/// resident block beyond the uploaded tiles would read past the particle
/// buffers (the sanitizer's redzones catch exactly this).
pub fn model_kernel(
    kernel: &Kernel,
    block: u32,
    n: u32,
    driver: DriverModel,
    mut upload: impl FnMut(&mut GlobalMemory, &[Particle]) -> DeviceResult<Vec<u32>>,
) -> DeviceResult<KernelTime> {
    let dev = DeviceConfig::g8800gtx();
    let tp = TimingParams::for_driver(driver);
    let regs = register_demand(kernel).regs_per_thread;
    let occ = occupancy(&dev, block, u32::from(regs), kernel.smem_bytes);
    let padded = padded_count(n, block);
    let resident: Vec<u32> = (0..occ.active_blocks.min(FIT_TILES[0])).collect();
    let mut measured = Vec::new();
    // One scratch memory for every fit: `reset` rewinds the allocator and
    // the shadow map, so each fit uploads to the same addresses under the
    // same sanitizer checks as on a fresh memory, without paying for
    // another 64 MiB.
    let mut gmem = GlobalMemory::new(64 << 20);
    for tiles in FIT_TILES {
        let small_n = tiles * block;
        gmem.reset();
        let params = upload(&mut gmem, &fit_particles(small_n))?;
        let run = time_resident(
            kernel,
            &resident,
            block,
            resident.len() as u32,
            &params,
            &mut gmem,
            &dev,
            driver,
            &tp,
        )?;
        measured.push((u64::from(small_n), run.cycles));
    }
    let wave_cycles = extrapolate_linear(&measured, padded)?;
    Ok(KernelTime {
        seconds: grid_seconds(
            &dev,
            wave_cycles,
            padded / u64::from(block),
            resident.len() as u64,
        ),
        regs,
        occupancy: occ,
    })
}

/// The particles a fit launch runs on: `n` unit masses on a line.
fn fit_particles(n: u32) -> Vec<Particle> {
    (0..n)
        .map(|i| Particle {
            pos: Vec3::new(i as f32 * 0.01, 1.0, 2.0),
            vel: Vec3::ZERO,
            mass: 1.0,
        })
        .collect()
}

/// The standard upload for [`model_kernel`]: the particles as a `layout`
/// [`DeviceImage`] padded to `block`, an acceleration output buffer, and the
/// [`force_params`] parameter convention.
pub fn standard_upload(
    layout: Layout,
    block: u32,
) -> impl FnMut(&mut GlobalMemory, &[Particle]) -> DeviceResult<Vec<u32>> {
    move |gmem, particles| {
        let img = DeviceImage::upload(gmem, layout, particles, block)?;
        let out = alloc_accel_out(gmem, img.padded_n)?;
        Ok(force_params(&img, out, 0.05))
    }
}

/// Full-grid cycles of `blocks` blocks run as waves of `resident` blocks on
/// every SM of `dev`, one wave costing `wave_cycles`:
/// `wave_cycles × ceil(blocks / (SMs × resident))`.
pub fn grid_cycles(dev: &DeviceConfig, wave_cycles: u64, blocks: u64, resident: u64) -> u64 {
    wave_cycles * blocks.div_ceil(u64::from(dev.num_sms) * resident)
}

/// [`grid_cycles`] in seconds at `dev`'s clock.
pub fn grid_seconds(dev: &DeviceConfig, wave_cycles: u64, blocks: u64, resident: u64) -> f64 {
    grid_cycles(dev, wave_cycles, blocks, resident) as f64 / dev.clock_hz
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::exec::timed::time_grid;

    #[test]
    fn wave_model_equals_exact_dispatch_on_a_small_grid() {
        // E15 (`table_model_validation`) in miniature. Exact dispatch costs
        // grid × n work, so the grid is one full wave of 32-thread blocks on
        // a one-SM device: the wave model must price it to the cycle.
        let dev = DeviceConfig {
            num_sms: 1,
            ..DeviceConfig::g8800gtx()
        };
        let driver = DriverModel::Cuda10;
        let tp = TimingParams::for_driver(driver);
        let cfg = ForceKernelConfig {
            block: 32,
            unroll: 32,
            ..OptLevel::Full.config()
        };
        let kernel = build_force_kernel(cfg);
        let regs = register_demand(&kernel).regs_per_thread;
        let occ = occupancy(&dev, cfg.block, u32::from(regs), kernel.smem_bytes);
        let grid = occ.active_blocks;
        assert!(grid > 1, "the wave holds several co-resident blocks");
        let mut gmem = GlobalMemory::new(64 << 20);
        let params =
            standard_upload(cfg.layout, cfg.block)(&mut gmem, &fit_particles(grid * cfg.block))
                .unwrap();
        let exact = time_grid(
            &kernel,
            grid,
            cfg.block,
            occ.active_blocks,
            &params,
            &mut gmem.clone(),
            &dev,
            driver,
            &tp,
        )
        .unwrap();
        let resident: Vec<u32> = (0..grid).collect();
        let wave = time_resident(
            &kernel, &resident, cfg.block, grid, &params, &mut gmem, &dev, driver, &tp,
        )
        .unwrap();
        let modeled = grid_cycles(&dev, wave.cycles, u64::from(grid), u64::from(grid));
        assert_eq!(modeled, exact.cycles);
    }

    #[test]
    fn kernel_time_grows_up_to_u32_max() {
        // u32::MAX pads past u32::MAX at every block size; a wrapped padded
        // count would model an empty grid.
        for level in OptLevel::ALL {
            let at = |n| model_frame(level, n, DriverModel::Cuda10).kernel_s;
            let (big, max) = (at(1 << 30), at(u32::MAX));
            assert!(max >= big, "{}: {max} s < {big} s", level.label());
        }
    }

    #[test]
    fn unroll_step_gives_paper_scale_speedup() {
        let n = 200_000;
        let rolled = model_frame(OptLevel::SoAoaS, n, DriverModel::Cuda10).total_s();
        let unrolled = model_frame(OptLevel::SoAoaSUnrolled, n, DriverModel::Cuda10).total_s();
        let s = rolled / unrolled;
        assert!(
            (1.1..1.3).contains(&s),
            "unroll speedup {s:.3} outside the paper's ~1.18 band"
        );
    }

    #[test]
    fn full_ladder_lands_near_one_point_27() {
        let n = 400_000;
        let base = model_frame(OptLevel::Baseline, n, DriverModel::Cuda10).total_s();
        let full = model_frame(OptLevel::Full, n, DriverModel::Cuda10).total_s();
        let s = base / full;
        assert!(
            (1.15..1.40).contains(&s),
            "total speedup {s:.3} outside the paper's 1.27 band"
        );
    }
}
