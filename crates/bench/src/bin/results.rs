//! Regenerates every figure and table of the paper: each entry of
//! `bench::results` is printed as markdown and written to
//! `results/<slug>.csv`, and its gate checks are reported.
//!
//! Usage: `results [--only SLUG]`. Exits 1 when a gate check fails and 2 on
//! a bad argument, naming the accepted slugs.
use bench::report::emit;
use bench::results::{find, Entry, REGISTRY};
use std::process::ExitCode;

fn main() -> ExitCode {
    simcore::restore_default_sigpipe();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let entries: Vec<&Entry> = match args.as_slice() {
        [] => REGISTRY.iter().collect(),
        [flag, slug] if flag == "--only" => find(slug).into_iter().collect(),
        _ => Vec::new(),
    };
    if entries.is_empty() {
        let slugs: Vec<&str> = REGISTRY.iter().map(|e| e.slug).collect();
        eprintln!(
            "usage: results [--only SLUG]; SLUG is one of: {}",
            slugs.join(", ")
        );
        return ExitCode::from(2);
    }
    let mut failures = 0;
    for e in entries {
        let r = (e.render)();
        emit(&r.table, e.slug);
        for note in &r.notes {
            println!("{note}");
        }
        for f in &r.failures {
            eprintln!("[FAIL] {}: {f}", e.slug);
        }
        failures += r.failures.len();
    }
    if failures > 0 {
        eprintln!("results: {failures} gate check(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
