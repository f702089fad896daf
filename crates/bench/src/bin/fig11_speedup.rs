//! Regenerates **Figure 11**: speedup of each optimized layout over the
//! unoptimized baseline, per CUDA driver revision.
use bench::membench_harness::{fig10_sweep, fig11_speedups};
use bench::report::emit;
use gpu_sim::DriverModel;
use particle_layouts::Layout;
use simcore::Table;

fn main() {
    let sweep = fig10_sweep();
    let sp = fig11_speedups(&sweep);
    let mut t = Table::new(
        "Fig. 11 — Speedup for the different memory layouts (baseline: unoptimized AoS)",
        &["driver", "SoA", "AoaS", "SoAoaS"],
    );
    for driver in DriverModel::ALL {
        let get = |l: Layout| {
            sp.iter()
                .find(|(d, ll, _)| *d == driver && *ll == l)
                .unwrap()
                .2
        };
        t.row(vec![
            driver.label().into(),
            format!("{:.2}x", get(Layout::SoA)),
            format!("{:.2}x", get(Layout::AoaS)),
            format!("{:.2}x", get(Layout::SoAoaS)),
        ]);
    }
    emit(&t, "fig11_speedup");
    println!("Paper bands: SoA ≈ 1.1x, SoAoaS ≈ 1.5x (CUDA 1.0) / ≈ 1.3x (CUDA 2.2);");
    println!("CUDA 1.1 shows a flattened, reordered profile. See EXPERIMENTS.md.");
}
