//! Cross-crate integration: layouts × kernels × the simulated GPU.
//!
//! These tests exercise the full path a downstream user takes — declare a
//! schema, get a layout, build kernels over device images, execute them —
//! and pin the cross-crate contracts the reproduction rests on.

use gpu_kernels::force::{build_force_kernel, force_params, ForceKernelConfig};
use gpu_kernels::membench::{build_membench_kernel, MembenchConfig};
use gpu_sim::exec::functional::run_grid;
use gpu_sim::exec::timed::time_resident;
use gpu_sim::ir::count::dynamic_instructions;
use gpu_sim::mem::GlobalMemory;
use gpu_sim::{DeviceConfig, DriverModel, TimingParams};
use gravit_core::layout_advisor::{optimize_layout, StructSchema};
use nbody::direct::accelerations_tiled;
use nbody::model::ForceParams;
use nbody::spawn;
use particle_layouts::device::{alloc_accel_out, download_accels};
use particle_layouts::{DeviceImage, Layout, Particle};

/// The layout advisor's output for the Gravit particle must agree with the
/// hand-built SoAoaS layout the kernels use.
#[test]
fn advisor_and_layout_crate_agree_on_soaoas() {
    let plan = optimize_layout(&StructSchema::gravit_particle());
    // Two groups of 4 words = the hot and cold float4 buffers.
    let buffers = Layout::SoAoaS.buffers();
    assert_eq!(plan.groups.len(), buffers.len());
    for (g, b) in plan.groups.iter().zip(&buffers) {
        assert_eq!(g.padded_words as u64 * 4, b.stride());
    }
    // And the advisor's transaction prediction matches the coalescer's count
    // for the real layout (Figs. 3 vs 9).
    let analysis = particle_layouts::streams::analyze_layout(Layout::SoAoaS, DriverModel::Cuda10);
    assert_eq!(plan.optimized_transactions as usize, analysis.transactions);
}

/// Functional execution of the force kernel across every layout must equal
/// the CPU tiled reference bit-for-bit — including through upload/download.
#[test]
fn end_to_end_force_matches_cpu_for_all_layouts_and_blocks() {
    let bodies = spawn::colliding_galaxies(150, 15.0, 0.3, 8); // 300 bodies
    let fp = ForceParams {
        g: 1.0,
        softening: 0.05,
    };
    for layout in Layout::ALL {
        for block in [64u32, 128] {
            let cfg = ForceKernelConfig {
                layout,
                block,
                unroll: 1,
                icm: false,
            };
            let kernel = build_force_kernel(cfg);
            let mut gmem = GlobalMemory::new(32 << 20);
            let ps: Vec<Particle> = (0..bodies.len())
                .map(|i| Particle {
                    pos: bodies.pos[i],
                    vel: bodies.vel[i],
                    mass: bodies.mass[i],
                })
                .collect();
            let img = DeviceImage::upload(&mut gmem, layout, &ps, block).unwrap();
            let out = alloc_accel_out(&mut gmem, img.padded_n).unwrap();
            let params = force_params(&img, out, fp.softening);
            run_grid(&kernel, img.padded_n / block, block, &params, &mut gmem).unwrap();
            let gpu = download_accels(&gmem, out, img.n).unwrap();
            // CPU sums in the same (padded, ascending) order; padding is
            // zero-mass so the unpadded tiled sum matches exactly.
            let cpu = accelerations_tiled(&bodies, &fp, block as usize);
            assert_eq!(cpu, gpu, "{layout} block {block}");
        }
    }
}

/// The membench kernel must be *timeable* under every driver and produce
/// non-trivial deltas that order the layouts as Fig. 10 does.
#[test]
fn membench_orders_layouts_under_every_driver() {
    let dev = DeviceConfig::g8800gtx();
    for driver in DriverModel::ALL {
        let tp = TimingParams::for_driver(driver);
        let mut worst = 0.0f64;
        let mut best = f64::INFINITY;
        let mut unopt = 0.0f64;
        let mut soaoas = 0.0f64;
        for layout in Layout::ALL {
            let cfg = MembenchConfig { layout, iters: 8 };
            let kernel = build_membench_kernel(cfg);
            let n = cfg.particles_needed(1, 128) as usize;
            let ps: Vec<Particle> = (0..n).map(|_| Particle::SENTINEL).collect();
            let mut gmem = GlobalMemory::new(64 << 20);
            let img = DeviceImage::upload(&mut gmem, layout, &ps, 128).unwrap();
            let out_delta = gmem.alloc(128 * 4).unwrap();
            let out_sum = gmem.alloc(128 * 4).unwrap();
            let mut params = img.base_params();
            params.push(out_delta.0 as u32);
            params.push(out_sum.0 as u32);
            let run = time_resident(&kernel, &[0], 128, 1, &params, &mut gmem, &dev, driver, &tp)
                .unwrap();
            let cycles = run.cycles as f64;
            worst = worst.max(cycles);
            best = best.min(cycles);
            if layout == Layout::Unopt {
                unopt = cycles;
            }
            if layout == Layout::SoAoaS {
                soaoas = cycles;
            }
        }
        assert!(soaoas < unopt, "{driver}: SoAoaS must beat unopt");
        assert!(
            worst / best > 1.05,
            "{driver}: layouts must be distinguishable"
        );
    }
}

/// Instruction counts must be consistent between the structured counter and
/// the timed executor's issued-instruction tally (same kernel, same work).
#[test]
fn static_count_matches_executed_instructions() {
    let cfg = ForceKernelConfig {
        layout: Layout::SoAoaS,
        block: 64,
        unroll: 1,
        icm: false,
    };
    let kernel = build_force_kernel(cfg);
    let n = 128u32; // 2 tiles
    let ps: Vec<Particle> = (0..n)
        .map(|i| Particle {
            pos: simcore::Vec3::splat(i as f32),
            vel: simcore::Vec3::ZERO,
            mass: 1.0,
        })
        .collect();
    let mut gmem = GlobalMemory::new(8 << 20);
    let img = DeviceImage::upload(&mut gmem, Layout::SoAoaS, &ps, 64).unwrap();
    let out = alloc_accel_out(&mut gmem, img.padded_n).unwrap();
    let params = force_params(&img, out, 0.05);
    let run = run_grid(&kernel, 2, 64, &params, &mut gmem).unwrap();
    // Counter counts per-thread; executor counts per-warp. One block has 2
    // warps, grid has 2 blocks → 4 warps; every warp executes the same
    // uniform stream. (Thread 0's tile-loop trip count applies to all.)
    let per_thread = dynamic_instructions(&kernel, &params).unwrap();
    assert_eq!(run.warp_instructions, per_thread * 4);
}
