//! Regenerates the **prefetch (double-buffering) ablation**: issuing each
//! tile's global fetch before the inner loop over the previous tile hides
//! the load latency — at the cost of four registers, which on the CC-1.0
//! register file can cost an occupancy step. A period-accurate trade-off the
//! paper's tuned kernel implicitly declined.
use bench::report::emit;
use gpu_kernels::force::{build_force_kernel, build_force_kernel_prefetch, ForceKernelConfig};
use gpu_sim::DriverModel;
use gravit_app::model::{model_kernel, standard_upload};
use particle_layouts::Layout;
use simcore::{format_duration_s, Table};

fn main() {
    let n = 200_000u32;
    let mut t = Table::new(
        format!("Prefetch ablation — SoAoaS + full unroll + ICM, N = {n} (CUDA 1.0)"),
        &["variant", "block", "regs", "occupancy", "kernel time"],
    );
    for block in [128u32, 192] {
        let cfg = ForceKernelConfig {
            layout: Layout::SoAoaS,
            block,
            unroll: block,
            icm: true,
        };
        for (name, kernel) in [
            ("standard", build_force_kernel(cfg)),
            ("prefetch", build_force_kernel_prefetch(cfg)),
        ] {
            let k = model_kernel(
                &kernel,
                block,
                n,
                DriverModel::Cuda10,
                standard_upload(cfg.layout, block),
            )
            .expect("the ablation's model launch is well-formed");
            t.row(vec![
                name.into(),
                block.to_string(),
                k.regs.to_string(),
                format!("{:.0}%", k.occupancy.percent()),
                format_duration_s(k.seconds),
            ]);
        }
    }
    emit(&t, "table_prefetch");
    println!("Prefetching hides the tile-fetch latency but its buffer registers can drop");
    println!("an occupancy step — the reason the era's tuned kernels (and the paper's)");
    println!("spent registers so carefully.");
}
