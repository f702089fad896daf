//! # Quickstart — the paper's pipeline in one page
//!
//! Builds the Gravit force kernel at the baseline and fully optimized levels,
//! shows what each of the paper's techniques changed (layout traffic,
//! instruction budget, registers, occupancy), verifies both against the CPU
//! reference, and prints the modeled 8800 GTX frame time.
//!
//! Run: `cargo run --release --example quickstart`

use gpu_kernels::force::OptLevel;
use gpu_kernels::pipeline::optimization_ladder;
use gpu_sim::{DeviceConfig, DriverModel};
use gravit_app::backend::Backend;
use nbody::model::ForceParams;
use particle_layouts::layout_advisor::{optimize_layout, StructSchema};
use simcore::format_duration_s;

fn main() {
    // 1. The layout advisor on Gravit's 7-float particle (Sec. IV's 3 steps).
    let plan = optimize_layout(&StructSchema::gravit_particle());
    println!("Layout advisor on the Gravit particle:");
    println!(
        "  {} aligned sub-structure arrays, {} -> {} transactions per half-warp ({}x)",
        plan.groups.len(),
        plan.baseline_transactions,
        plan.optimized_transactions,
        plan.transaction_improvement()
    );

    // 2. The optimization ladder (the Fig. 12 levels).
    println!("\nOptimization ladder (8800 GTX model):");
    let dev = DeviceConfig::g8800gtx();
    for step in optimization_ladder(&dev, DriverModel::Cuda10) {
        println!(
            "  {:<32} tile-fetch {:>3} trans, {:>5.2} instrs/elem, {:>2} regs, {:>3.0}% occupancy",
            step.level.label(),
            step.tile_fetch_transactions,
            step.instrs_per_element,
            step.regs,
            step.occupancy.percent()
        );
    }

    // 3. Physics check: the simulated-GPU kernel is bit-identical to the CPU.
    let bodies = nbody::spawn::disk_galaxy(1024, 5.0, 1.0, 1.0, 42);
    let fp = ForceParams::default();
    let cpu = Backend::CpuSerial.accelerations(&bodies, &fp);
    let gpu = Backend::GpuSim {
        level: OptLevel::Full,
        driver: DriverModel::Cuda10,
    }
    .accelerations(&bodies, &fp);
    assert_eq!(cpu, gpu);
    println!("\nGPU kernel vs CPU reference at n=1024: bit-identical ✓");

    // 4. Modeled device time, baseline vs optimized (the paper's 1.27x).
    let n = 200_000;
    let base = gravit_app::model::model_frame(OptLevel::Baseline, n, DriverModel::Cuda10);
    let full = gravit_app::model::model_frame(OptLevel::Full, n, DriverModel::Cuda10);
    println!(
        "\nModeled frame at N={n}: baseline {}, full opt {} -> {:.2}x (paper: 1.27x)",
        format_duration_s(base.total_s()),
        format_duration_s(full.total_s()),
        base.total_s() / full.total_s()
    );
}
