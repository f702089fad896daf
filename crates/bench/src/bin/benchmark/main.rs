//! The repository benchmark: five seeded workloads over the simulator, each
//! stressing one layer, with end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one. See README.md beside this package.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//! benchmark --all [--seed N] [--seconds S] [--repeat K] [--trace 0|1] [--json OUT]
//! benchmark --compare A.json B.json
//! ```
//!
//! A single-workload run prints a detail line and then, as its last line,
//! `{"correct", "attempted", "failed", "metrics"}`; it exits 1 when an
//! operation failed or an output check did not hold.

mod clock;
mod compare;
mod expected;
mod fleet;
mod frame;
mod model;
mod stats;
mod suggest;
mod trace;
mod workload;

use serde_json::Value;
use stats::{median, p90};
use std::process::ExitCode;
use workload::{Outcome, Run, Scale, DEFAULT_SEED};

/// Every workload, in the order `--all` runs them.
pub const WORKLOADS: [&str; 5] = [
    "frame_n4096",
    "fleet_quiet",
    "fleet_chaos",
    "suggest_force",
    "model_fig12",
];

/// End-to-end metrics (untraced runs): name and unit. Both are
/// host-normalised CPU time (see [`clock`]); wall times and peak RSS are in
/// the detail line instead, because identical runs differ in them by more
/// than any bound a metric may have (wall time with the host's steal, peak
/// RSS by up to ~75%: 20 vs 35 MiB on `model_fig12`).
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("cpu_ms_per_op", "ms")];

/// Per-layer counts and ratios a workload fills in (traced runs); a
/// workload that does not exercise a layer reports 0.
pub const LAYER_COUNTS: [(&str, &str); 23] = [
    ("frame.fixed_frac", "frac"),
    ("exec.winst", "count"),
    ("exec.minst_per_s", "Minst/s"),
    ("timed.winst", "count"),
    ("timed.cycles", "count"),
    ("timed.minst_per_s", "Minst/s"),
    ("model.distinct_sim_frac", "frac"),
    ("analyze.candidates", "count"),
    ("analyze.suggestions", "count"),
    ("analyze.skipped", "count"),
    ("analyze.repeated_proof_frac", "frac"),
    ("ckpt.bytes", "bytes"),
    ("fleet.ticks_per_job", "count"),
    ("fleet.preemptions_per_job", "count"),
    ("fleet.migrations_per_job", "count"),
    ("fleet.faults_per_job", "count"),
    ("fleet.refusals_per_job", "count"),
    ("fleet.job_p90_over_p50", "ratio"),
    ("recovery.retries_per_job", "count"),
    ("recovery.cpu_frames_per_job", "count"),
    ("recovery.useful_launch_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Every per-layer metric: each layer's self-time share, then
/// [`LAYER_COUNTS`].
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    trace::LAYERS
        .iter()
        .map(|l| (format!("{l}.self_frac"), "frac"))
        .chain(LAYER_COUNTS.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]\n\
         \x20      benchmark --all [--seed N] [--seconds S] [--repeat K] [--trace 0|1] [--json OUT]\n\
         \x20      benchmark --compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

/// Command-line flags: `--name value` pairs and the mode switches.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None if !self.has(name) => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: bad value {v:?}")),
            None => Err(format!("{name} needs a value")),
        }
    }

    /// `--trace 0|1`.
    fn trace(&self) -> Result<bool, String> {
        match self.parsed("--trace", 0u8)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("--trace: bad value {v}")),
        }
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let result = if let Some(name) = args.value("--workload") {
        single(&args, name)
    } else if args.has("--all") {
        compare::all(&args)
    } else if args.has("--compare") {
        compare::compare(&args)
    } else {
        return usage();
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        usage()
    })
}

/// Host cores as the OS reports them.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiler on the path, which `cargo run` built this binary with.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

/// Run one workload in this process and print its result.
fn single(args: &Args, name: &str) -> Result<ExitCode, String> {
    let run = Run {
        seed: args.parsed("--seed", DEFAULT_SEED)?,
        seconds: args.parsed("--seconds", 15.0)?,
        trace: args.trace()?,
        scale: Scale::Full,
    };
    if !(run.seconds >= 0.0 && run.seconds.is_finite()) {
        return Err(format!("--seconds: bad value {}", run.seconds));
    }
    // The executor reads its thread count once per process, so it is set
    // before any workload code runs. The frame runs the parallel block
    // executor on up to two threads; everywhere else it is one, and the
    // fleet's slice workers are the parallelism.
    let threads = if name == "frame_n4096" {
        host_cores().min(2)
    } else {
        1
    };
    std::env::set_var("GPU_SIM_THREADS", threads.to_string());
    if !WORKLOADS.contains(&name) {
        return Err(format!("unknown workload {name:?}"));
    }
    // Traced runs report shares and rates of the traced time, which the
    // reference samples would only blur.
    if !run.trace {
        clock::start_sampling();
    }
    let out = run_workload(name, &run).expect("a listed workload");
    clock::stop_sampling();
    if let Some(path) = args.value("--spans") {
        std::fs::write(path, out.tracer.to_json_lines())
            .map_err(|e| format!("--spans {path}: {e}"))?;
    }
    for p in &out.problems {
        eprintln!("FAILED: {p}");
    }
    println!(
        "{}",
        serde_json::to_string(&detail(name, &run, &out)).expect("detail serializes")
    );
    println!(
        "{}",
        serde_json::to_string(&result(&run, &out)).expect("result serializes")
    );
    Ok(if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run workload `name`, or `None` if there is no such workload.
pub fn run_workload(name: &str, run: &Run) -> Option<Outcome> {
    Some(match name {
        "frame_n4096" => frame::run(run),
        "fleet_quiet" => fleet::run(run, fleet::Pool::Quiet),
        "fleet_chaos" => fleet::run(run, fleet::Pool::Chaos),
        "suggest_force" => suggest::run(run),
        "model_fig12" => model::run(run),
        _ => return None,
    })
}

/// The run's context: host, threads, compiler, seed, sample counts, the
/// normalisation factors, wall times, peak resident set and the output
/// digest.
fn detail(name: &str, run: &Run, out: &Outcome) -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    let n = |v: usize| Value::Int(v as i128);
    let float = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
    let cpu_per_wall = out.window_cpu_ms / (out.window_s * 1e3).max(1e-9);
    Value::Map(vec![
        ("workload".into(), s(name)),
        ("seed".into(), Value::Int(i128::from(run.seed))),
        ("trace".into(), Value::Bool(run.trace)),
        ("host_cores".into(), n(host_cores())),
        ("executor_threads".into(), n(out.executor_threads)),
        ("slice_workers".into(), n(out.slice_workers)),
        ("rustc".into(), s(&rustc_version())),
        ("ops".into(), n(out.op_wall_ms.len())),
        ("setup_samples".into(), n(out.setup_s.len())),
        ("op_scale".into(), Value::Float(out.op_scale)),
        ("wall_ms_p50".into(), float(median(&out.op_wall_ms))),
        ("wall_ms_p90".into(), float(p90(&out.op_wall_ms))),
        (
            "wall_ops_per_s".into(),
            Value::Float(out.op_wall_ms.len() as f64 / out.window_s.max(1e-9)),
        ),
        ("cpu_per_wall".into(), Value::Float(cpu_per_wall)),
        (
            "peak_rss_mib".into(),
            Value::Float(out.peak_rss_kib as f64 / 1024.0),
        ),
        (
            "digest".into(),
            out.digest.map_or(Value::Null, |d| s(&format!("{d:016x}"))),
        ),
        (
            "problems".into(),
            Value::Seq(out.problems.iter().map(|p| s(p)).collect()),
        ),
    ])
}

/// The metric values of a run: end-to-end untraced and host-normalised,
/// per-layer traced.
pub fn metric_values(run: &Run, out: &Outcome) -> Vec<(String, f64, &'static str)> {
    if !run.trace {
        let ops = out.op_wall_ms.len().max(1) as f64;
        let values = [
            median(&out.setup_s).unwrap_or(0.0),
            out.window_cpu_ms * out.op_scale / ops,
        ];
        return END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), v, unit))
            .collect();
    }
    let spans = out.tracer.spans();
    let b = trace::breakdown(spans);
    let root = b.root_ns.max(1) as f64;
    let mut values: Vec<(String, f64)> = trace::LAYERS
        .iter()
        .zip(b.layer_ns)
        .map(|(l, ns)| (format!("{l}.self_frac"), ns as f64 / root))
        .chain(out.counts.iter().map(|&(n, v)| (n.to_string(), v)))
        .collect();
    values.push((
        "trace.unattributed_frac".into(),
        b.unattributed_ns as f64 / root,
    ));
    values.push((
        "trace.overhead_frac".into(),
        spans.len() as f64 * trace::span_cost_ns() / root,
    ));
    per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |x| x.1);
            (name, v, unit)
        })
        .collect()
}

/// The last line a run prints.
fn result(run: &Run, out: &Outcome) -> Value {
    let metrics = metric_values(run, out)
        .into_iter()
        .map(|(name, v, unit)| {
            let m = Value::Map(vec![
                ("value".into(), Value::Float(v)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name, m)
        })
        .collect();
    Value::Map(vec![
        ("correct".into(), Value::Bool(out.failed == 0)),
        (
            "attempted".into(),
            Value::Int(i128::from(out.attempted.max(1))),
        ),
        ("failed".into(), Value::Int(i128::from(out.failed))),
        ("metrics".into(), Value::Map(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smoke-scale run of every workload: tiny inputs, the minimum number
    /// of operations, every oracle check.
    fn smoke(name: &str, trace: bool) -> Outcome {
        let run = Run {
            seed: 3,
            seconds: 0.0,
            trace,
            scale: Scale::Smoke,
        };
        let out = run_workload(name, &run).expect("known workload");
        assert_eq!(out.failed, 0, "{name}: {:?}", out.problems);
        assert!(out.attempted > 0 && !out.op_wall_ms.is_empty(), "{name}");
        for (metric, v, _) in metric_values(&run, &out) {
            assert!(v.is_finite(), "{name}: {metric} = {v}");
        }
        out
    }

    #[test]
    fn frame_smoke_matches_the_oracle_traced_and_untraced() {
        let plain = smoke("frame_n4096", false);
        let traced = smoke("frame_n4096", true);
        assert_eq!(
            plain.digest, traced.digest,
            "the replica must match the simulation"
        );
        let b = trace::breakdown(traced.tracer.spans());
        assert!(b.unattributed_ns * 20 < b.root_ns, "spans cover the frame");
    }

    #[test]
    fn fleet_smoke_loses_no_job_and_matches_the_oracle() {
        for name in ["fleet_quiet", "fleet_chaos"] {
            let plain = smoke(name, false);
            let traced = smoke(name, true);
            assert_eq!(
                plain.digest, traced.digest,
                "{name}: seeded schedule replays"
            );
        }
    }

    #[test]
    fn suggest_smoke_certifies_every_suggestion() {
        let out = smoke("suggest_force", true);
        let count = |n: &str| out.counts.iter().find(|c| c.0 == n).map(|c| c.1);
        assert!(count("analyze.suggestions") > Some(0.0));
        assert_eq!(count("analyze.repeated_proof_frac"), Some(2.0 / 3.0));
    }

    #[test]
    fn model_smoke_replica_matches_model_frame() {
        let plain = smoke("model_fig12", false);
        let traced = smoke("model_fig12", true);
        assert_eq!(plain.digest, traced.digest);
    }

    /// A file at the repository root. The tests build both as
    /// `crates/bench`'s binary and as this directory's own package, so the
    /// root is found by walking up from either manifest.
    fn at_root(file: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .find(|dir| dir.join("BENCHMARK.json").exists())
            .expect("BENCHMARK.json above the manifest")
            .join(file)
    }

    /// The package in this directory is a workspace of its own, so it
    /// cannot inherit the repository's release profile; it must measure the
    /// code as that profile compiles it.
    #[test]
    fn release_profile_matches_the_workspace() {
        let profile = |path: std::path::PathBuf| -> Vec<String> {
            let text = std::fs::read_to_string(path).expect("manifest");
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let own = profile(at_root("crates/bench/src/bin/benchmark/Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, profile(at_root("Cargo.toml")));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = std::fs::read_to_string(at_root("BENCHMARK.json")).expect("BENCHMARK.json");
        let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().expect("string field").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let names: Vec<&str> = spec["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(names, WORKLOADS);
    }
}
