//! # Occupancy tuning — registers, block size and the 50% → 67% step
//!
//! Reproduces the paper's Sec. IV-A tuning interactively: sweeps block sizes
//! for each register budget on the occupancy calculator, runs the unroll
//! advisor, and prints why (16 regs, block 128) is the sweet spot on a
//! G80 — and what changes on a GT200.
//!
//! Run: `cargo run --release --example occupancy_tuning`

use gravit_core::substrates::gpu_sim::occupancy::{occupancy, regs_per_block};
use gravit_core::substrates::gpu_sim::DeviceConfig;
use gravit_core::substrates::particle_layouts::Layout;
use gravit_core::unroll_advisor::advise_unroll;

fn main() {
    let g80 = DeviceConfig::g8800gtx();
    println!("Occupancy on {} (smem = 16 B/thread tile):\n", g80.name);
    print!("{:>6}", "block");
    for regs in [16u32, 17, 18, 20, 24] {
        print!("{:>10}", format!("{regs} regs"));
    }
    println!();
    for block in [64u32, 96, 128, 160, 192, 256, 320, 384] {
        print!("{block:>6}");
        for regs in [16u32, 17, 18, 20, 24] {
            // A block that needs more registers than the SM has is a launch
            // CUDA refuses: no occupancy to print.
            if regs_per_block(&g80, block, regs) > g80.regs_per_sm {
                print!("{:>10}", "-");
                continue;
            }
            let o = occupancy(&g80, block, regs, block * 16);
            print!("{:>9.0}%", o.percent());
        }
        println!();
    }
    println!("\nThe paper's path: (18 regs, 192) = 50% -> unroll (17 regs) = 50%");
    println!("-> ICM (16 regs) + block 128 = 67%.");

    // The unroll advisor's view.
    let advice = advise_unroll(&g80, Layout::SoAoaS, 128, true);
    println!("\nUnroll advisor (SoAoaS, block 128, ICM on):");
    for o in &advice.options {
        println!(
            "  factor {:>3}: {:>5.2} instrs/elem, Eq.3 {:>5.3}x, {:>2} regs, {:>3.0}% occupancy",
            o.factor,
            o.instrs_per_element,
            o.eq3_speedup,
            o.regs,
            o.occupancy.percent()
        );
    }
    println!("  -> recommended factor: {}", advice.best().factor);

    // Sensitivity: the same kernel on a GT200 (the paper's future work).
    let gt200 = DeviceConfig::gtx280();
    let o = occupancy(&gt200, 128, 16, 128 * 16);
    println!(
        "\nOn {}: the same (16 regs, block 128) kernel reaches {:.0}% occupancy — \nregister pressure stops being the limiter on later devices.",
        gt200.name,
        o.percent()
    );
}
