//! Regenerates the **methodology validation**: the Fig. 12 numbers come from
//! wave extrapolation (simulate one resident wave, multiply by wave count
//! with `gravit_app::model::grid_cycles`, the arithmetic Fig. 12 runs); this
//! experiment checks that shortcut against the exact full-grid simulation
//! (every block dispatched through per-SM queues) at sizes where the exact
//! run is affordable.
use bench::report::emit;
use gpu_kernels::force::{build_force_kernel, ForceKernelConfig};
use gpu_sim::exec::timed::{time_grid, time_resident};
use gpu_sim::ir::regalloc::register_demand;
use gpu_sim::mem::GlobalMemory;
use gpu_sim::occupancy::occupancy;
use gpu_sim::{DeviceConfig, DriverModel, TimingParams};
use gravit_app::model::{grid_cycles, standard_upload};
use particle_layouts::{Layout, Particle};
use simcore::{Table, Vec3};

fn main() {
    let dev = DeviceConfig::g8800gtx();
    let driver = DriverModel::Cuda10;
    let tp = TimingParams::for_driver(driver);
    let cfg = ForceKernelConfig {
        layout: Layout::SoAoaS,
        block: 128,
        unroll: 128,
        icm: true,
    };
    let kernel = build_force_kernel(cfg);
    let regs = register_demand(&kernel).regs_per_thread as u32;
    let occ = occupancy(&dev, cfg.block, regs, kernel.smem_bytes);

    let mut t = Table::new(
        "Wave extrapolation vs exact full-grid simulation — tuned force kernel",
        &[
            "N",
            "blocks",
            "exact cycles",
            "wave-model cycles",
            "relative error",
        ],
    );
    for n in [2_048u32, 4_096, 8_192] {
        let particles: Vec<Particle> = (0..n)
            .map(|i| Particle {
                pos: Vec3::new(i as f32 * 0.01, 1.0, 2.0),
                vel: Vec3::ZERO,
                mass: 1.0,
            })
            .collect();
        let mut gmem = GlobalMemory::new(256 << 20);
        let params = standard_upload(cfg.layout, cfg.block)(&mut gmem, &particles)
            .expect("validation upload fits");
        let grid = n / cfg.block;

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
        .expect("exact dispatch is well-formed");
        // The wave model's residency cannot exceed what the grid actually
        // puts on an SM (matters only at validation-scale grids; the Fig. 12
        // sweeps have hundreds of blocks per SM).
        let per_sm = (grid.div_ceil(dev.num_sms)).max(1);
        let resident: Vec<u32> = (0..occ.active_blocks.min(per_sm).min(grid)).collect();
        let wave = time_resident(
            &kernel, &resident, cfg.block, grid, &params, &mut gmem, &dev, driver, &tp,
        )
        .expect("wave launch is well-formed");
        let est = grid_cycles(&dev, wave.cycles, grid as u64, resident.len() as u64);
        let err = (est as f64 - exact.cycles as f64) / exact.cycles as f64;
        t.row(vec![
            n.to_string(),
            grid.to_string(),
            exact.cycles.to_string(),
            est.to_string(),
            format!("{:+.1}%", 100.0 * err),
        ]);
    }
    emit(&t, "table_model_validation");
    println!("The wave model is the production path (Fig. 12 sweeps to 10^6 bodies);");
    println!("the exact dispatch simulation bounds its error at affordable sizes.");
}
