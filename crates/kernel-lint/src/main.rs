//! `kernel-lint` — static IR lints for every kernel in the workspace.
//!
//! Runs `gpu_sim::analyze` over the curated target set
//! (`gpu_kernels::lintset`), enriches findings with the paper's remedies
//! ([`lint`]), and gates on expectations:
//!
//! * default mode: each kernel must produce **exactly** its documented
//!   findings (the CI gate) — exit 1 on any deviation;
//! * `--deny`: stricter — exit 1 if *any* error-severity finding exists,
//!   expected or not (useful when hunting for a clean build);
//! * `--json`: machine-readable report array on stdout;
//! * `--driver cuda10|cuda11|cuda22|all`: coalescing protocol(s) to lint
//!   under (default cuda10, the paper's G80 driver);
//! * `--kernel <substring>`: only lint matching kernels;
//! * `--list`: print the target set and exit;
//! * `--verify`: translation validation instead of linting — prove every
//!   workspace kernel × pass pair and the cross-layout force ladder
//!   equivalent (`gpu_kernels::verifyset`); exit 1 on any unproven target
//!   (a `Mismatch` prints its counterexample fault site);
//! * `--cost`: static cycle model instead of linting — print the
//!   `gpu_sim::analyze::cost` estimate per kernel per driver;
//! * `--suggest`: run the layout/schedule synthesizer
//!   (`gpu_sim::analyze::synth`) over the synthesis targets and print the
//!   ranked, *proven* rewrite suggestions with predicted cycle deltas;
//! * `--fix`: like `--suggest`, but emit the winning rewrite as a
//!   machine-applied patch (transformed kernel IR + synthesized layout
//!   descriptor), gated on its translation-validation certificate — a
//!   target whose winner cannot be proven produces no patch and exit 1;
//! * `--format text|json|sarif`: output format. `sarif` (lint gate only)
//!   emits SARIF 2.1.0 for GitHub code scanning; `--json` is shorthand
//!   for `--format json`.

mod lint;
mod sarif;

use std::process::ExitCode;

use gpu_kernels::lintset::{workspace_lint_targets, LintTarget};
use gpu_kernels::synthset::{synth_targets, synthesized_layout};
use gpu_kernels::verifyset::{bounds_targets, layout_ladder_targets, workspace_pass_targets};
use gpu_sim::analyze::verify::VerifyResult;
use gpu_sim::analyze::{analyze_kernel, cost};
use gpu_sim::DriverModel;
use lint::{enrich_report, EnrichedReport};
use particle_layouts::plan::SynthesizedLayout;
use serde::Serialize;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    format: Format,
    deny: bool,
    list: bool,
    verify: bool,
    cost: bool,
    suggest: bool,
    fix: bool,
    kernel_filter: Option<String>,
    drivers: Vec<DriverModel>,
}

impl Options {
    fn json(&self) -> bool {
        self.format == Format::Json
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Text,
        deny: false,
        list: false,
        verify: false,
        cost: false,
        suggest: false,
        fix: false,
        kernel_filter: None,
        drivers: vec![DriverModel::Cuda10],
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => opts.format = Format::Json,
            "--deny" => opts.deny = true,
            "--list" => opts.list = true,
            "--verify" => opts.verify = true,
            "--cost" => opts.cost = true,
            "--suggest" => opts.suggest = true,
            "--fix" => opts.fix = true,
            "--format" => {
                let f = args.next().ok_or("--format needs an argument")?;
                opts.format = match f.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--kernel" => {
                opts.kernel_filter =
                    Some(args.next().ok_or("--kernel needs a substring argument")?);
            }
            "--driver" => {
                let d = args.next().ok_or("--driver needs an argument")?;
                opts.drivers = match d.as_str() {
                    "cuda10" => vec![DriverModel::Cuda10],
                    "cuda11" => vec![DriverModel::Cuda11],
                    "cuda22" => vec![DriverModel::Cuda22],
                    "all" => DriverModel::ALL.to_vec(),
                    other => return Err(format!("unknown driver `{other}`")),
                };
            }
            "--help" | "-h" => {
                println!(
                    "kernel-lint [--json | --format text|json|sarif] [--deny] [--list] \
                     [--verify] [--cost] [--suggest] [--fix] \
                     [--driver cuda10|cuda11|cuda22|all] [--kernel SUBSTR]\n\
                     \n\
                     Modes (mutually exclusive; default is the lint gate):\n\
                     \x20 --verify  prove every kernel x pass pair, the layout ladder,\n\
                     \x20           and the interval-bounds certificates (Barnes-Hut)\n\
                     \x20 --cost    static cycle estimates; data-dependent kernels get\n\
                     \x20           [best, worst] cycle ranges instead of a point value\n\
                     \x20 --suggest synthesize layout+schedule rewrites from the access\n\
                     \x20           summaries; print only candidates whose equivalence\n\
                     \x20           the translation validator proved\n\
                     \x20 --fix     emit the winning proven rewrite per target as a\n\
                     \x20           machine-applied patch (kernel IR + layout descriptor);\n\
                     \x20           exit 1 if any target has no certified winner\n\
                     \x20 --list    print the target set and exit\n\
                     \n\
                     --json composes with every mode: the lint gate emits enriched\n\
                     reports, --verify emits structured results (including\n\
                     `unsupported` reasons and interval certificates), --cost emits\n\
                     per-kernel estimates with cycle ranges. --format sarif emits\n\
                     SARIF 2.1.0 code-scanning annotations (lint gate only).\n\
                     \n\
                     Exit codes:\n\
                     \x20 0  success - gate clean / all targets proved\n\
                     \x20 1  gate violation, unproven verify target, --deny hit,\n\
                     \x20    uncertified --fix winner, empty filter match, or bad usage"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

/// One lint run of one kernel under one driver, as emitted by `--json`.
#[derive(Serialize)]
struct JsonEntry {
    driver: String,
    /// Expectation violations (empty = the gate passes for this kernel).
    violations: Vec<String>,
    report: EnrichedReport,
}

/// One translation-validation proof attempt, as emitted by `--verify --json`.
#[derive(Serialize)]
struct VerifyEntry {
    kernel: String,
    /// Pass label, `layout:<from>-><to>` for ladder equivalences, or
    /// `interval-bounds` for analyzer certificates.
    pass: String,
    proved: bool,
    /// `proved`, `proved-bounded`, `bounded`, `mismatch`, or `unsupported`.
    result: String,
    /// Why the checker could not decide, when `result` is `unsupported`.
    unsupported_reason: Option<String>,
    /// `[best, worst]` global transactions (interval-bounds targets only).
    transaction_bounds: Option<(u64, u64)>,
    /// `[best, worst]` predicted cycles (interval-bounds targets only).
    cycle_bounds: Option<(f64, f64)>,
    detail: String,
}

impl VerifyEntry {
    fn from_result(kernel: String, pass: String, r: &VerifyResult) -> VerifyEntry {
        let (result, unsupported_reason) = match r {
            VerifyResult::Proved { .. } => ("proved", None),
            VerifyResult::ProvedBounded { .. } => ("proved-bounded", None),
            VerifyResult::Mismatch { .. } => ("mismatch", None),
            VerifyResult::Unsupported { reason } => ("unsupported", Some(reason.clone())),
        };
        VerifyEntry {
            kernel,
            pass,
            proved: r.is_proved() || r.is_proved_bounded(),
            result: result.to_string(),
            unsupported_reason,
            transaction_bounds: None,
            cycle_bounds: None,
            detail: r.to_string(),
        }
    }
}

/// Run `--verify`: prove the whole `verifyset`, exit 1 on any unproven pair.
fn run_verify(opts: &Options) -> ExitCode {
    let mut entries: Vec<VerifyEntry> = Vec::new();
    let matches = |name: &str| match &opts.kernel_filter {
        Some(f) => name.contains(f.as_str()),
        None => true,
    };

    for t in workspace_pass_targets() {
        if !matches(&t.kernel.name) {
            continue;
        }
        let r = t.verify();
        entries.push(VerifyEntry::from_result(
            t.kernel.name.clone(),
            t.pass.label(),
            &r,
        ));
    }
    for t in layout_ladder_targets() {
        if !(matches(&t.a.name) || matches(&t.b.name)) {
            continue;
        }
        let r = t.verify();
        entries.push(VerifyEntry::from_result(
            t.a.name.clone(),
            format!("layout:{}->{}", t.from.label(), t.to.label()),
            &r,
        ));
    }
    for t in bounds_targets() {
        if !matches(&t.kernel.name) {
            continue;
        }
        match t.verify() {
            Ok(cert) => entries.push(VerifyEntry {
                kernel: cert.kernel.clone(),
                pass: "interval-bounds".to_string(),
                proved: true,
                result: "bounded".to_string(),
                unsupported_reason: None,
                transaction_bounds: Some(cert.transaction_bounds),
                cycle_bounds: Some(cert.cycle_bounds),
                detail: format!(
                    "certified: transactions in [{}, {}], cycles in [{:.0}, {:.0}], \
                     {} possible-out-of-bounds warning(s)",
                    cert.transaction_bounds.0,
                    cert.transaction_bounds.1,
                    cert.cycle_bounds.0,
                    cert.cycle_bounds.1,
                    cert.oob_warnings
                ),
            }),
            Err(reason) => entries.push(VerifyEntry {
                kernel: t.kernel.name.clone(),
                pass: "interval-bounds".to_string(),
                proved: false,
                result: "unsupported".to_string(),
                unsupported_reason: Some(reason.clone()),
                transaction_bounds: None,
                cycle_bounds: None,
                detail: format!("unsupported: {reason}"),
            }),
        }
    }

    if entries.is_empty() {
        eprintln!("kernel-lint: no verify targets match the filter");
        return ExitCode::FAILURE;
    }

    let unproven = entries.iter().filter(|e| !e.proved).count();
    if opts.json() {
        match serde_json::to_string_pretty(&entries) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("kernel-lint: serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        for e in &entries {
            let verdict = if e.proved { "proved" } else { "FAILED" };
            println!("{:<28} {:<24} {verdict}: {}", e.kernel, e.pass, e.detail);
        }
        println!(
            "verified {} target(s): {} proved, {} unproven",
            entries.len(),
            entries.len() - unproven,
            unproven
        );
    }
    if unproven > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// One cycle estimate, as emitted by `--cost --json`.
#[derive(Serialize)]
struct CostEntry {
    kernel: String,
    driver: String,
    /// Point estimate — only for statically exact kernels.
    total_cycles: Option<f64>,
    issue_cycles: Option<f64>,
    memory_cycles: Option<f64>,
    smem_conflict_cycles: Option<f64>,
    exposed_latency_cycles: Option<f64>,
    active_warps: Option<u32>,
    /// `[best, worst]` predicted cycles — present whenever the interval
    /// analyzer could bound the kernel (degenerate iff exact).
    cycle_bounds: Option<(f64, f64)>,
    /// `[best, worst]` global transactions over the launch.
    transaction_bounds: Option<(u64, u64)>,
    regs_per_thread: u16,
    error: Option<String>,
}

/// Run `--cost`: price every lint target under each requested driver.
/// Statically exact kernels get a point estimate; data-dependent ones
/// (Barnes–Hut) get the `[best, worst]` interval from the widening analyzer.
fn run_cost(opts: &Options, targets: &[LintTarget]) -> ExitCode {
    let mut entries: Vec<CostEntry> = Vec::new();
    for target in targets {
        for &driver in &opts.drivers {
            let cfg = target.config().with_driver(driver);
            let regs = cost::regs_per_thread(&target.kernel);
            let report = analyze_kernel(&target.kernel, &cfg);
            let bounds = cost::estimate_bounds_from_report(&target.kernel, &cfg, &report);
            let (cycle_bounds, transaction_bounds, bounds_err) = match &bounds {
                Ok(b) => (Some(b.cycle_range()), Some(report.transaction_bounds), None),
                Err(e) => (None, None, Some(e.to_string())),
            };
            match cost::estimate_from_report(&target.kernel, &cfg, &report) {
                Ok(c) => entries.push(CostEntry {
                    kernel: target.kernel.name.clone(),
                    driver: driver.label().to_string(),
                    total_cycles: Some(c.total_cycles()),
                    issue_cycles: Some(c.issue_cycles),
                    memory_cycles: Some(c.memory_cycles),
                    smem_conflict_cycles: Some(c.smem_conflict_cycles),
                    exposed_latency_cycles: Some(c.exposed_latency_cycles),
                    active_warps: Some(c.active_warps),
                    cycle_bounds,
                    transaction_bounds,
                    regs_per_thread: regs,
                    error: None,
                }),
                Err(e) => entries.push(CostEntry {
                    kernel: target.kernel.name.clone(),
                    driver: driver.label().to_string(),
                    total_cycles: None,
                    issue_cycles: None,
                    memory_cycles: None,
                    smem_conflict_cycles: None,
                    exposed_latency_cycles: None,
                    active_warps: None,
                    error: if cycle_bounds.is_some() {
                        None // bounded, just not exact
                    } else {
                        Some(bounds_err.unwrap_or_else(|| e.to_string()))
                    },
                    cycle_bounds,
                    transaction_bounds,
                    regs_per_thread: regs,
                }),
            }
        }
    }
    if opts.json() {
        match serde_json::to_string_pretty(&entries) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("kernel-lint: serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        println!(
            "{:<28} {:<7} {:>12} {:>12} {:>12} {:>8} {:>8} {:>5}",
            "kernel", "driver", "total", "issue", "memory", "smem", "latency", "regs"
        );
        for e in &entries {
            match (e.total_cycles, e.cycle_bounds) {
                (Some(total), _) => println!(
                    "{:<28} {:<7} {:>12.0} {:>12.0} {:>12.0} {:>8.0} {:>8.0} {:>5}",
                    e.kernel,
                    e.driver,
                    total,
                    e.issue_cycles.unwrap_or(0.0),
                    e.memory_cycles.unwrap_or(0.0),
                    e.smem_conflict_cycles.unwrap_or(0.0),
                    e.exposed_latency_cycles.unwrap_or(0.0),
                    e.regs_per_thread
                ),
                (None, Some((lo, hi))) => {
                    let tx = e
                        .transaction_bounds
                        .map(|(a, b)| format!(", transactions in [{a}, {b}]"))
                        .unwrap_or_default();
                    println!(
                        "{:<28} {:<7} cycles in [{lo:.0}, {hi:.0}]{tx} ({} regs)",
                        e.kernel, e.driver, e.regs_per_thread
                    );
                }
                (None, None) => println!(
                    "{:<28} {:<7} (no static estimate: {})",
                    e.kernel,
                    e.driver,
                    e.error.as_deref().unwrap_or("unknown")
                ),
            }
        }
    }
    ExitCode::SUCCESS
}

/// One synthesized candidate, as emitted by `--suggest --json`.
#[derive(Serialize)]
struct SuggestCandidate {
    label: String,
    predicted_cycles: f64,
    predicted_speedup: f64,
    regs: u16,
}

/// One proven suggestion, as emitted by `--suggest --json` / `--fix`.
#[derive(Serialize)]
struct SuggestPatch {
    label: String,
    predicted_cycles: f64,
    predicted_speedup: f64,
    regs: u16,
    /// Certificate summary (`layout: proved; schedule: proved`). Present —
    /// and affirmative — on every emitted patch by construction.
    certificate: String,
    /// Host-side layout descriptor (`None` = layout unchanged).
    layout: Option<SynthesizedLayout>,
    /// Pass schedule label (`None` = schedule unchanged).
    schedule: Option<String>,
    /// The transformed kernel, ready to splice in.
    kernel: gpu_sim::ir::Kernel,
}

/// One synthesis run, as emitted by `--suggest --json` / `--fix`.
#[derive(Serialize)]
struct SuggestEntry {
    kernel: String,
    driver: String,
    baseline_cycles: f64,
    baseline_regs: u16,
    candidates: Vec<SuggestCandidate>,
    suggestions: Vec<SuggestPatch>,
    skipped: Vec<String>,
}

/// Run `--suggest` / `--fix`: synthesize proven rewrites for every target.
///
/// `--fix` is `--suggest` restricted to the winner, emitted as JSON
/// patches, failing when any target lacks a certified winner.
fn run_suggest(opts: &Options) -> ExitCode {
    let fixing = opts.fix;
    let mut entries: Vec<SuggestEntry> = Vec::new();
    let mut failed = false;
    for &driver in &opts.drivers {
        for target in synth_targets(driver) {
            if let Some(f) = &opts.kernel_filter {
                if !target.kernel.name.contains(f.as_str()) && !target.name.contains(f.as_str()) {
                    continue;
                }
            }
            let report = match target.synthesize() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("kernel-lint: {}: {e}", target.name);
                    failed = true;
                    continue;
                }
            };
            if report.suggestions.is_empty() {
                failed = true;
            }
            let suggestions = report
                .suggestions
                .iter()
                .take(if fixing { 1 } else { usize::MAX })
                .map(|s| SuggestPatch {
                    label: s.label.clone(),
                    predicted_cycles: s.predicted_cycles,
                    predicted_speedup: s.predicted_speedup,
                    regs: s.regs,
                    certificate: s.certificate.summary(),
                    layout: s.rewrite.as_ref().map(synthesized_layout),
                    schedule: s.schedule.as_ref().map(|p| p.label()),
                    kernel: s.kernel.clone(),
                })
                .collect();
            entries.push(SuggestEntry {
                kernel: report.kernel.clone(),
                driver: driver.label().to_string(),
                baseline_cycles: report.baseline_cycles,
                baseline_regs: report.baseline_regs,
                candidates: report
                    .candidates
                    .iter()
                    .map(|c| SuggestCandidate {
                        label: c.label.clone(),
                        predicted_cycles: c.predicted_cycles,
                        predicted_speedup: c.predicted_speedup,
                        regs: c.regs,
                    })
                    .collect(),
                suggestions,
                skipped: report.skipped.clone(),
            });
        }
    }

    if entries.is_empty() {
        eprintln!("kernel-lint: no synthesis targets match the filter");
        return ExitCode::FAILURE;
    }

    if fixing || opts.json() {
        match serde_json::to_string_pretty(&entries) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("kernel-lint: serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        for e in &entries {
            println!(
                "{} [{}]: baseline {:.0} cycles, {} regs",
                e.kernel, e.driver, e.baseline_cycles, e.baseline_regs
            );
            for c in &e.candidates {
                let mark = if e.suggestions.iter().any(|s| s.label == c.label) {
                    "*"
                } else {
                    " "
                };
                println!(
                    " {mark} {:<44} {:>9.0} cyc  {:>6.3}x  {:>2} regs",
                    c.label, c.predicted_cycles, c.predicted_speedup, c.regs
                );
            }
            for s in &e.suggestions {
                println!(
                    "  suggest: {} ({:.3}x) [{}]",
                    s.label, s.predicted_speedup, s.certificate
                );
            }
            for s in &e.skipped {
                println!("  skipped: {s}");
            }
            if e.suggestions.is_empty() {
                println!("  NO certified suggestion");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    simcore::restore_default_sigpipe();
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("kernel-lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    let modes = [opts.verify, opts.cost, opts.suggest, opts.fix, opts.list]
        .iter()
        .filter(|&&m| m)
        .count();
    if modes > 1 {
        eprintln!("kernel-lint: --verify/--cost/--suggest/--fix/--list are mutually exclusive");
        return ExitCode::FAILURE;
    }
    if opts.format == Format::Sarif && (opts.verify || opts.cost || opts.suggest || opts.fix) {
        eprintln!("kernel-lint: --format sarif only applies to the lint gate");
        return ExitCode::FAILURE;
    }

    if opts.suggest || opts.fix {
        return run_suggest(&opts);
    }

    if opts.verify {
        return run_verify(&opts);
    }

    let targets: Vec<LintTarget> = workspace_lint_targets()
        .into_iter()
        .filter(|t| match &opts.kernel_filter {
            Some(f) => t.kernel.name.contains(f.as_str()),
            None => true,
        })
        .collect();
    if targets.is_empty() {
        eprintln!("kernel-lint: no kernels match the filter");
        return ExitCode::FAILURE;
    }

    if opts.cost {
        return run_cost(&opts, &targets);
    }

    if opts.list {
        for t in &targets {
            println!(
                "{:<28} grid {} x block {:<4} expect errors {:?} warnings {:?}",
                t.kernel.name, t.grid, t.block, t.expect_errors, t.expect_warnings
            );
        }
        return ExitCode::SUCCESS;
    }

    let mut entries: Vec<JsonEntry> = Vec::new();
    let mut gate_failed = false;
    for target in &targets {
        for &driver in &opts.drivers {
            let cfg = target.config().with_driver(driver);
            let report = analyze_kernel(&target.kernel, &cfg);
            // Expectations are curated under the default (CUDA 1.0) rules;
            // under other drivers only unexpected *kinds* still gate.
            let violations = if driver == DriverModel::Cuda10 {
                target.check(&report)
            } else {
                Vec::new()
            };
            if !violations.is_empty() || (opts.deny && report.has_errors()) {
                gate_failed = true;
            }
            let enriched = enrich_report(report, &cfg.params);
            if opts.format == Format::Text {
                print!("{}", enriched.render());
                for v in &violations {
                    println!("  GATE: {v}");
                }
            }
            entries.push(JsonEntry {
                driver: driver.label().to_string(),
                violations,
                report: enriched,
            });
        }
    }

    if opts.format == Format::Sarif {
        let reports: Vec<(String, &gpu_sim::analyze::AnalysisReport)> = entries
            .iter()
            .map(|e| (e.driver.clone(), &e.report.report))
            .collect();
        println!("{}", sarif::render(&reports));
    } else if opts.json() {
        match serde_json::to_string_pretty(&entries) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("kernel-lint: serialization failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let n_err: usize = entries
            .iter()
            .filter(|e| e.report.report.has_errors())
            .count();
        let n_viol: usize = entries.iter().map(|e| e.violations.len()).sum();
        println!(
            "linted {} kernel run(s): {} with error-severity findings, {} gate violation(s)",
            entries.len(),
            n_err,
            n_viol
        );
    }

    if gate_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
