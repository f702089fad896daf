//! # Device-resident stepping + kernel disassembly
//!
//! The full shape of the paper's Gravit port: upload the particle state once,
//! alternate force and integration kernels on the (simulated) device, and
//! download at the end — with the kernels' PTX-flavoured disassembly printed
//! so the unrolling/ICM effects of Sec. IV-A are visible as code, not just as
//! counters.
//!
//! Run: `cargo run --release --example device_resident`

use gpu_kernels::force::{build_force_kernel, ForceKernelConfig, OptLevel};
use gpu_kernels::integrate::build_integrate_kernel;
use gpu_sim::ir::pretty::disassemble;
use gravit_app::backend::{run_device_resident, Backend};
use nbody::integrator::step_euler;
use nbody::model::ForceParams;
use particle_layouts::Layout;

fn main() {
    // 1. Show what the optimization passes do to the inner loop.
    let rolled = build_force_kernel(ForceKernelConfig {
        layout: Layout::SoAoaS,
        block: 128,
        unroll: 1,
        icm: false,
    });
    let text = disassemble(&rolled);
    println!("Rolled inner loop (note the mad.u32 address and the loop overhead):\n");
    for line in text
        .lines()
        .filter(|l| l.contains("for ") || l.contains("mad.u32") || l.contains("rsqrt"))
    {
        println!("  {}", line.trim_start());
    }
    let full = build_force_kernel(OptLevel::Full.config());
    let text = disassemble(&full);
    let offsets = text.lines().filter(|l| l.contains("ld.shared.v4")).count();
    println!("\nFully unrolled + ICM: no `for`, {offsets} shared loads with hard-coded offsets.");
    println!("(the paper: \"an additional add to calculate the address offset that now is hard coded\")\n");

    // 2. Device-resident run vs host loop: bit-identical trajectories.
    let fp = ForceParams {
        g: 1.0,
        softening: 0.05,
    };
    let dt = 0.01f32;
    let steps = 8u32;
    let bodies0 = nbody::spawn::disk_galaxy(1024, 5.0, 1.0, fp.g, 77);

    let mut host = bodies0.clone();
    for _ in 0..steps {
        let acc = Backend::CpuSerial.accelerations(&host, &fp);
        step_euler(&mut host, &acc, dt, None);
    }
    let device = run_device_resident(&bodies0, &fp, dt, steps, OptLevel::Full)
        .expect("no device faults in a healthy run");
    assert_eq!(host, device);
    println!("{steps} device-resident steps at n=1024: bit-identical to the host loop ✓");

    // 3. The integration kernel is tiny and loop-free.
    let integ = build_integrate_kernel(Layout::SoAoaS);
    println!(
        "\nIntegration kernel ({} instructions):",
        disassemble(&integ).lines().count() - 2
    );
    print!("{}", disassemble(&integ));
}
