//! Demonstrates the device-fault sanitizer end to end: inject an
//! out-of-bounds access into the GPU force kernel and show (a) the fail-fast
//! sanitizer report and (b) graceful degradation to the CPU backend with
//! bit-identical physics.
//!
//! ```text
//! cargo run --release -p gravit-app --example sanitizer_demo
//! ```

use gpu_kernels::force::OptLevel;
use gpu_sim::fault::{FaultPlan, Mutation};
use gpu_sim::DriverModel;
use gravit_app::backend::{Backend, FaultPolicy, FrameOpts};
use gravit_app::config::SpawnKind;
use nbody::model::ForceParams;

fn main() {
    let bodies = SpawnKind::UniformBall { radius: 3.0 }.generate(256, 1.0, 7);
    let fp = ForceParams::default();
    let gpu = Backend::GpuSim {
        level: OptLevel::Full,
        driver: DriverModel::Cuda10,
    };

    // Strike thread 9 of block 0: wherever it accesses memory, send it far
    // out of bounds (a synthetic layout/stride bug).
    let plan = FaultPlan::at_thread(0, 9, Mutation::SetAddr(1 << 40));

    println!("--- fail-fast policy ---");
    let fail_fast = FrameOpts {
        policy: FaultPolicy::FailFast,
        inject: Some(&plan),
        ..FrameOpts::default()
    };
    match gpu.frame(&bodies, &fp, fail_fast) {
        Ok(_) => println!("unexpected: no fault"),
        Err(e) => println!("{}", e.report()),
    }

    println!("\n--- fallback policy ---");
    let fallback = FrameOpts {
        policy: FaultPolicy::FallbackToCpu,
        inject: Some(&plan),
        ..FrameOpts::default()
    };
    let r = gpu
        .frame(&bodies, &fp, fallback)
        .expect("fallback absorbs the fault");
    let report = r.fault.expect("the survived fault is reported");
    println!("{}", report.render());

    let cpu = Backend::CpuSerial.accelerations(&bodies, &fp);
    let identical = r.accels == cpu;
    println!("\nrecovered accelerations bit-identical to CpuSerial: {identical}");
    assert!(identical);
}
