//! `--all` runs every workload in its own process and collects the results;
//! `--compare` judges two such collections against the bounds in
//! `BENCHMARK.json`.

use crate::stats::{median, quartiles, relative_spread};
use crate::workload::DEFAULT_SEED;
use crate::{host_cores, rustc_version, Args, WORKLOADS};
use serde_json::Value;
use std::process::{Command, ExitCode};

/// Per-layer counts that do not depend on the host: two runs of one seed
/// must report them identically.
const EXACT_COUNTS: [&str; 8] = [
    "exec.winst",
    "timed.winst",
    "timed.cycles",
    "analyze.candidates",
    "analyze.suggestions",
    "analyze.skipped",
    "analyze.repeated_proof_frac",
    "ckpt.bytes",
];

/// Run the workload process once and merge its detail and result lines.
fn spawn(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| -> Result<Value, String> {
        serde_json::from_str(line.unwrap_or_default())
            .map_err(|e| format!("{name} seed {seed}: unreadable output: {e}"))
    };
    let result = parse(lines.next())?;
    let detail = parse(lines.next())?;
    let mut merged = detail.as_map().unwrap_or_default().to_vec();
    merged.extend(result.as_map().unwrap_or_default().iter().cloned());
    Ok((Value::Map(merged), output.status.success()))
}

/// `--all`: every workload, `--repeat` untraced runs each (seeds `seed`,
/// `seed + 1`, …) and with `--trace 1` one traced run at `seed`.
pub fn all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = args.parsed("--seconds", 15.0)?;
    let repeat: u64 = args.parsed("--repeat", 1)?;
    let trace = args.trace()?;
    let mut runs = Vec::new();
    let mut all_ok = true;
    for name in WORKLOADS {
        let plan = (0..repeat.max(1))
            .map(|i| (seed + i, false))
            .chain(trace.then_some((seed, true)));
        for (s, t) in plan {
            let (record, ok) = spawn(name, s, seconds, t)?;
            eprintln!(
                "{name} seed {s}{}: {}",
                if t { " traced" } else { "" },
                if ok { "ok" } else { "FAILED" }
            );
            all_ok &= ok;
            runs.push(record);
        }
    }
    print_summary(&runs);
    let doc = Value::Map(vec![
        ("host_cores".into(), Value::Int(host_cores() as i128)),
        ("rustc".into(), Value::Str(rustc_version())),
        ("seconds".into(), Value::Float(seconds)),
        ("runs".into(), Value::Seq(runs)),
    ]);
    if let Some(path) = args.value("--json") {
        let text = serde_json::to_string_pretty(&doc).expect("results serialize");
        std::fs::write(path, text + "\n").map_err(|e| format!("--json {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn runs_of<'a>(doc: &'a Value, workload: &'a str, trace: bool) -> impl Iterator<Item = &'a Value> {
    doc["runs"]
        .as_array()
        .map(|v| v.as_slice())
        .unwrap_or_default()
        .iter()
        .filter(move |r| r["workload"] == workload && r["trace"].as_bool() == Some(trace))
}

fn values(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    runs_of(doc, workload, false)
        .filter_map(|r| r["metrics"][metric]["value"].as_f64())
        .collect()
}

fn metric_names(runs: &[Value]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in runs.iter().filter(|r| r["trace"].as_bool() == Some(false)) {
        for (k, _) in r["metrics"].as_map().unwrap_or_default() {
            if !names.contains(k) {
                names.push(k.clone());
            }
        }
    }
    names
}

fn print_summary(runs: &[Value]) {
    let doc = Value::Map(vec![("runs".into(), Value::Seq(runs.to_vec()))]);
    println!("| workload | metric | median | spread | runs |");
    println!("|---|---|---|---|---|");
    for w in WORKLOADS {
        for m in metric_names(runs) {
            let v = values(&doc, w, &m);
            if let Some(med) = median(&v) {
                let spread = relative_spread(&v).unwrap_or(0.0);
                println!(
                    "| {w} | {m} | {med:.6} | {:.2}% | {} |",
                    spread * 100.0,
                    v.len()
                );
            }
        }
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// How one end-to-end metric moved from the parent (`a`) to the change
/// (`b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the runs cannot
    /// tell.
    Unresolved,
}

/// Smallest set-up regression that counts, in seconds: a set-up may grow
/// by its bound or by this much, whichever is larger.
pub const SETUP_FLOOR_S: f64 = 0.020;

/// Judge one metric: `a` are the parent's runs, `b` the change's. It may
/// worsen by `bound` times the parent's median or by `floor` (in the
/// metric's unit), whichever is larger.
pub fn judge(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
    floor: f64,
) -> (f64, Verdict) {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return (0.0, Verdict::Unresolved);
    };
    let delta = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let worse = if lower_is_better { mb - ma } else { ma - mb };
    let allowed = (bound * ma.abs()).max(floor);
    let iqr = |v: &[f64]| quartiles(v).map_or(0.0, |(q1, q3)| q3 - q1);
    let spread = iqr(a).max(iqr(b));
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let b_wins_every_pair = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if spread > allowed && !b_wins_every_pair {
        Verdict::Unresolved
    } else if worse > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (delta, verdict)
}

/// `--compare A.json B.json`: every workload × end-to-end metric, then the
/// host-independent digests and counts, which must match exactly.
pub fn compare(args: &Args) -> Result<ExitCode, String> {
    let i = args
        .0
        .iter()
        .position(|a| a == "--compare")
        .expect("mode flag");
    let (Some(pa), Some(pb)) = (args.0.get(i + 1), args.0.get(i + 2)) else {
        return Err("--compare needs two result files".into());
    };
    let (a, b) = (load(pa)?, load(pb)?);
    let spec = load("BENCHMARK.json")?;
    let mut regressions = 0;
    println!("| workload | metric | median A | median B | delta | bound | spread A | spread B | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for w in WORKLOADS {
        for m in spec["end_to_end"]
            .as_array()
            .map(|v| v.as_slice())
            .unwrap_or_default()
        {
            let name = m["name"].as_str().unwrap_or_default();
            let bound = m["bound"].as_f64().unwrap_or(0.0);
            let floor = if name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let (va, vb) = (values(&a, w, name), values(&b, w, name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let (delta, verdict) = judge(&va, &vb, m["better"] == "lower", bound, floor);
            regressions += usize::from(verdict == Verdict::Regressed);
            let med = |v: &[f64]| median(v).map_or("-".into(), |x| format!("{x:.6}"));
            let spread =
                |v: &[f64]| relative_spread(v).map_or("-".into(), |x| format!("{:.2}%", x * 100.0));
            println!(
                "| {w} | {name} | {} | {} | {:+.2}% | {:.0}% | {} | {} | {verdict:?} |",
                med(&va),
                med(&vb),
                delta * 100.0,
                bound * 100.0,
                spread(&va),
                spread(&vb)
            );
        }
    }
    let mut mismatches = 0;
    for trace in [false, true] {
        for w in WORKLOADS {
            for ra in runs_of(&a, w, trace) {
                let Some(rb) = runs_of(&b, w, trace).find(|r| r["seed"] == ra["seed"]) else {
                    continue;
                };
                let seed = ra["seed"].as_u64().unwrap_or_default();
                let mut exact = vec![(
                    "digest".to_string(),
                    ra["digest"].clone(),
                    rb["digest"].clone(),
                )];
                if trace {
                    for c in EXACT_COUNTS {
                        let v = |r: &Value| r["metrics"][c]["value"].clone();
                        exact.push((c.to_string(), v(ra), v(rb)));
                    }
                }
                for (what, x, y) in exact {
                    if x != y {
                        mismatches += 1;
                        println!("MISMATCH {w} seed {seed}: {what} {x:?} vs {y:?}");
                    }
                }
            }
        }
    }
    println!(
        "{regressions} regressed, {mismatches} exact-match failures \
         (digests and host-independent counts of runs sharing a seed)"
    );
    Ok(if regressions == 0 && mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5% slower, bound 10%: ok.
        let b: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(judge(&a, &b, true, 0.10, 0.0).1, Verdict::Ok);
        // 20% slower: regressed.
        let b: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(judge(&a, &b, true, 0.10, 0.0).1, Verdict::Regressed);
        // The same drop on a higher-is-better metric is a regression too.
        let b: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge(&a, &b, false, 0.10, 0.0).1, Verdict::Regressed);
        // A spread wider than the bound cannot tell...
        let noisy = [50.0, 150.0, 100.0, 60.0, 140.0];
        assert_eq!(judge(&noisy, &a, true, 0.10, 0.0).1, Verdict::Unresolved);
        // ...unless every run of the change beats every run of the parent.
        let fast = [10.0, 11.0, 12.0];
        assert_eq!(judge(&noisy, &fast, true, 0.10, 0.0).1, Verdict::Ok);
    }

    #[test]
    fn a_setup_may_grow_by_the_floor() {
        // 0.4 ms set-ups: doubling is within the 20 ms floor, 25 ms more is
        // not, and a spread within the floor resolves.
        let a = [0.0004, 0.0005, 0.0004, 0.0006, 0.0004];
        let b: Vec<f64> = a.iter().map(|x| x * 2.0).collect();
        assert_eq!(judge(&a, &b, true, 0.10, SETUP_FLOOR_S).1, Verdict::Ok);
        let b: Vec<f64> = a.iter().map(|x| x + 0.025).collect();
        assert_eq!(
            judge(&a, &b, true, 0.10, SETUP_FLOOR_S).1,
            Verdict::Regressed
        );
        // A 1 s set-up keeps its 10% bound.
        let a = [1.0, 1.01, 0.99, 1.0, 1.0];
        let b: Vec<f64> = a.iter().map(|x| x * 1.15).collect();
        assert_eq!(
            judge(&a, &b, true, 0.10, SETUP_FLOOR_S).1,
            Verdict::Regressed
        );
    }
}
