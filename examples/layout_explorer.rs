//! # Layout explorer — apply the paper's 3-step procedure to YOUR struct
//!
//! Demonstrates the layout advisor on structures beyond the Gravit particle:
//! an SPH particle, a ray-tracing hit record, and a molecular-dynamics atom —
//! printing the SoAoaS decomposition and the predicted per-half-warp traffic
//! against the naive packed layout, plus the membench-measured cycles for the
//! particle case.
//!
//! Run: `cargo run --release --example layout_explorer`

use gpu_sim::DriverModel;
use particle_layouts::layout_advisor::{optimize_layout, AccessFreq, FieldSpec, StructSchema};
use particle_layouts::Layout;

fn show(name: &str, schema: &StructSchema) {
    let plan = optimize_layout(schema);
    println!("\n{name} ({} words payload):", schema.words());
    for (gi, g) in plan.groups.iter().enumerate() {
        let members: Vec<&str> = g
            .fields
            .iter()
            .map(|&i| plan.schema.fields[i].name.as_str())
            .collect();
        println!(
            "  array {gi}: {{{}}} — {}/{} words used ({:?})",
            members.join(", "),
            g.used_words,
            g.padded_words,
            g.freq
        );
    }
    println!(
        "  transactions/half-warp: {} -> {} ({:.1}x), padding overhead {:.0}%",
        plan.baseline_transactions,
        plan.optimized_transactions,
        plan.transaction_improvement(),
        100.0 * plan.padding_overhead()
    );
}

fn main() {
    show(
        "Gravit particle (the paper's case)",
        &StructSchema::gravit_particle(),
    );

    show(
        "SPH particle",
        &StructSchema::new(vec![
            FieldSpec::scalar("x", AccessFreq::Hot),
            FieldSpec::scalar("y", AccessFreq::Hot),
            FieldSpec::scalar("z", AccessFreq::Hot),
            FieldSpec::scalar("h", AccessFreq::Hot), // smoothing length
            FieldSpec::scalar("density", AccessFreq::Warm),
            FieldSpec::scalar("pressure", AccessFreq::Warm),
            FieldSpec::scalar("vx", AccessFreq::Warm),
            FieldSpec::scalar("vy", AccessFreq::Warm),
            FieldSpec::scalar("vz", AccessFreq::Warm),
            FieldSpec::scalar("temperature", AccessFreq::Cold),
            FieldSpec::scalar("entropy", AccessFreq::Cold),
        ]),
    );

    show(
        "MD atom",
        &StructSchema::new(vec![
            FieldSpec::wide("position", 3, AccessFreq::Hot),
            FieldSpec::scalar("charge", AccessFreq::Hot),
            FieldSpec::wide("velocity", 3, AccessFreq::Warm),
            FieldSpec::scalar("type_id", AccessFreq::Warm),
            FieldSpec::wide("force_accum", 3, AccessFreq::Warm),
            FieldSpec::scalar("flags", AccessFreq::Cold),
        ]),
    );

    // And the measured (simulated) cycles for the Gravit case, per layout.
    println!("\nMeasured cycles per 4-byte element (membench, CUDA 1.0 model):");
    for layout in Layout::ALL {
        let r = bench::membench_harness::run_membench(layout, DriverModel::Cuda10);
        println!(
            "  {:<8} {:>8.1} cycles ({} transactions)",
            layout.label(),
            r.avg_cycles_per_read,
            r.transactions
        );
    }
}
