//! Regenerates the **static-analyzer cross-validation**: `gpu_sim::analyze`
//! predicts per-launch global transaction counts from per-lane symbolic
//! addresses; this table checks that prediction against the timed executor's
//! dynamic coalescer on the real membench kernels, per layout × driver.
//!
//! The second table covers the interval fragment: on the Barnes–Hut
//! traversal the analyzer cannot be exact, so its `[best, worst]`
//! transaction interval must *enclose* the dynamic measurement instead.
//! Either a mismatch or an escape exits 1.
//!
//! Usage: `table_lint_validation [--bh-n BODIES]`.
use bench::gate::flag;
use bench::report::emit;
use bench::tables::{bh_bounds_validation, lint_cross_validation};
use simcore::Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bh_n: u32 = flag(&args, "--bh-n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(192);

    let rows = lint_cross_validation();
    let mut t = Table::new(
        "Static transaction prediction vs dynamic coalescer — membench kernels",
        &["layout", "driver", "static", "measured", "match"],
    );
    let mut mismatches = 0usize;
    for r in &rows {
        if r.predicted != r.measured {
            mismatches += 1;
        }
        t.row(vec![
            r.layout.label().to_string(),
            r.driver.label().to_string(),
            r.predicted.to_string(),
            r.measured.to_string(),
            if r.predicted == r.measured {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    emit(&t, "table_lint_validation");

    let bh_rows = bh_bounds_validation(bh_n);
    let mut bt = Table::new(
        "Interval transaction bounds vs dynamic coalescer — Barnes-Hut traversal",
        &[
            "kernel",
            "driver",
            "static lo",
            "static hi",
            "measured",
            "enclosed",
        ],
    );
    let mut escapes = 0usize;
    for r in &bh_rows {
        if !r.enclosed {
            escapes += 1;
        }
        bt.row(vec![
            r.kernel.clone(),
            r.driver.label().to_string(),
            r.tx_lo.to_string(),
            r.tx_hi.to_string(),
            r.measured.to_string(),
            if r.enclosed { "yes" } else { "NO" }.to_string(),
        ]);
    }
    emit(&bt, "table_bh_bounds");

    if mismatches == 0 && escapes == 0 {
        println!("The analyzer's symbolic coalescer agrees with the executor on every");
        println!("layout and driver, and the Barnes-Hut interval bounds enclose the");
        println!("dynamic traversal; `kernel-lint` findings rest on sound counts.");
    } else {
        if mismatches > 0 {
            println!("[FAIL] {mismatches} static/dynamic transaction mismatches");
        }
        if escapes > 0 {
            println!("[FAIL] {escapes} dynamic measurements escaped the static interval");
        }
        std::process::exit(1);
    }
}
