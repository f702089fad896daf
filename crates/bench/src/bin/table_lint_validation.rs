//! Regenerates the **static-analyzer cross-validation**: `gpu_sim::analyze`
//! predicts per-launch global transaction counts from per-lane symbolic
//! addresses; this table checks that prediction against the timed executor's
//! dynamic coalescer on the real membench kernels, per layout × driver.
//!
//! The second table covers the interval fragment: on the Barnes–Hut
//! traversal the analyzer cannot be exact, so its `[best, worst]`
//! transaction interval must *enclose* the dynamic measurement instead.
//!
//! Also emits `BENCH_analyze.json` — analyzer + synthesizer wall time per
//! kernel × driver across all families, so analysis-cost regressions show
//! up in review. With `--check-against PATH`, the committed baseline is
//! loaded *before* the new report overwrites it and any kernel whose wall
//! time regressed more than 2x (plus a small absolute slack for sub-ms
//! rows) fails the run — the CI `verify-kernels` job gates on this.
//!
//! Usage: `table_lint_validation [--bh-n BODIES] [--json PATH]
//!         [--check-against PATH]`.
use bench::gate::{self, flag, Envelope};
use bench::report::emit;
use bench::tables::{bh_bounds_validation, lint_cross_validation};
use gpu_kernels::synthset::synth_targets;
use gpu_sim::DriverModel;
use serde::{Deserialize, Serialize};
use simcore::Table;

#[derive(Serialize, Deserialize)]
struct AnalyzeTime {
    kernel: String,
    driver: String,
    analyze_ms: f64,
    exact: bool,
}

#[derive(Serialize, Deserialize)]
struct AnalyzeReport {
    bench: String,
    bh_n: u32,
    kernels: Vec<AnalyzeTime>,
}

/// Maximum tolerated wall-time growth over the committed baseline: 2x,
/// with 5 ms of absolute slack so scheduler jitter on sub-millisecond
/// rows cannot trip the gate.
const ENVELOPE: Envelope = Envelope {
    factor: 2.0,
    slack_ms: 5.0,
};

/// Compare the fresh timings against a committed baseline report; returns
/// the number of per-kernel regressions (each printed as it is found).
fn check_against(baseline: &AnalyzeReport, times: &[AnalyzeTime]) -> usize {
    let mut regressions = 0usize;
    for t in times {
        let Some(b) = baseline
            .kernels
            .iter()
            .find(|b| b.kernel == t.kernel && b.driver == t.driver)
        else {
            continue; // new kernel: no baseline to regress against
        };
        if ENVELOPE.regressed(b.analyze_ms, t.analyze_ms) {
            println!(
                "[FAIL] {} under {}: {:.3} ms vs committed {:.3} ms (> {ENVELOPE})",
                t.kernel, t.driver, t.analyze_ms, b.analyze_ms
            );
            regressions += 1;
        }
    }
    regressions
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bh_n: u32 = flag(&args, "--bh-n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(192);
    let json_path = flag(&args, "--json").unwrap_or_else(|| "BENCH_analyze.json".into());
    // Load the committed baseline (if requested) before it is overwritten.
    let baseline: Option<AnalyzeReport> = gate::baseline(&args);

    let rows = lint_cross_validation();
    let mut t = Table::new(
        "Static transaction prediction vs dynamic coalescer — membench kernels",
        &["layout", "driver", "static", "measured", "match"],
    );
    let mut mismatches = 0usize;
    let mut times = Vec::new();
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
        times.push(AnalyzeTime {
            kernel: format!("membench_{}", r.layout.label()),
            driver: r.driver.label().to_string(),
            analyze_ms: r.analyze_ms,
            exact: r.exact,
        });
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
        times.push(AnalyzeTime {
            kernel: r.kernel.clone(),
            driver: r.driver.label().to_string(),
            analyze_ms: r.analyze_ms,
            exact: false,
        });
    }
    emit(&bt, "table_bh_bounds");

    // The synthesis targets: whole-pipeline wall time (summary extraction,
    // candidate pricing, translation-validation proofs) per kernel ×
    // driver. Best of three runs — synthesis is deterministic, so the min
    // is the honest cost and a transient load spike cannot trip the gate.
    for driver in DriverModel::ALL {
        for target in synth_targets(driver) {
            let (best_ms, report) = gate::best_of(3, || {
                target
                    .synthesize()
                    .unwrap_or_else(|e| panic!("{}: synthesis must price: {e}", target.name))
            });
            times.push(AnalyzeTime {
                kernel: format!("synth_{}", target.name),
                driver: driver.label().to_string(),
                analyze_ms: best_ms,
                exact: !report.suggestions.is_empty(),
            });
        }
    }

    let regressions = baseline.as_ref().map_or(0, |b| check_against(b, &times));
    if let Some(b) = &baseline {
        println!(
            "checked {} timings against committed baseline ({} kernels): {} regression(s)",
            times.len(),
            b.kernels.len(),
            regressions
        );
    }

    let report = AnalyzeReport {
        bench: "analyze".into(),
        bh_n,
        kernels: times,
    };
    std::fs::write(
        &json_path,
        serde_json::to_string_pretty(&report).expect("serialize"),
    )
    .expect("write BENCH_analyze.json");
    println!("wrote {json_path}");

    if regressions > 0 {
        println!("[FAIL] {regressions} analyze/synth wall-time regressions > 2x over baseline");
        std::process::exit(1);
    }
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
