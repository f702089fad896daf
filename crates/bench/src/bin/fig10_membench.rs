//! Regenerates **Figure 10**: average cycle count per single 4-byte read for
//! each memory layout, under the CUDA 1.0 / 1.1 / 2.2 driver models.
use bench::membench_harness::fig10_sweep;
use bench::report::emit;
use gpu_sim::DriverModel;
use particle_layouts::Layout;
use simcore::Table;

fn main() {
    let sweep = fig10_sweep();
    let mut t = Table::new(
        "Fig. 10 — Average cycle count per single 4-byte read",
        &[
            "layout",
            "CUDA 1.0",
            "CUDA 1.1",
            "CUDA 2.2",
            "trans 1.0",
            "bus bytes 1.0",
        ],
    );
    for layout in Layout::ALL {
        let get = |d: DriverModel| {
            sweep
                .iter()
                .find(|r| r.layout == layout && r.driver == d)
                .expect("sweep complete")
        };
        let r10 = get(DriverModel::Cuda10);
        t.row(vec![
            layout.label().into(),
            format!("{:.1}", r10.avg_cycles_per_read),
            format!("{:.1}", get(DriverModel::Cuda11).avg_cycles_per_read),
            format!("{:.1}", get(DriverModel::Cuda22).avg_cycles_per_read),
            r10.transactions.to_string(),
            r10.bus_bytes.to_string(),
        ]);
    }
    emit(&t, "fig10_membench");

    // Per-thread spread behind the CUDA 1.0 averages.
    let mut v = Table::new(
        "Fig. 10 companion — per-thread cycles/element distribution (CUDA 1.0)",
        &["layout", "p10", "median", "p90", "mean"],
    );
    for layout in Layout::ALL {
        let r = sweep
            .iter()
            .find(|r| r.layout == layout && r.driver == DriverModel::Cuda10)
            .unwrap();
        v.row(vec![
            layout.label().into(),
            format!("{:.1}", r.p10),
            format!("{:.1}", r.p50),
            format!("{:.1}", r.p90),
            format!("{:.1}", r.avg_cycles_per_read),
        ]);
    }
    emit(&v, "fig10_spread");
}
