//! `suggest_force`: what `kernel-lint --suggest --driver all` runs — the
//! layout/schedule synthesizer over every synthesis target, once per driver
//! model. One operation is one pass over all drivers.
//!
//! The targets are the workspace's fixed kernels, so the seed only rotates
//! the order the drivers run in; the pass's output does not depend on it and
//! is checked against the committed digest on every seed.
//!
//! Traced, each target also gets the analyzer's stages called one by one —
//! interpret (`analyze_kernel`), price (`cost::estimate`) and prove
//! (`verify_pass`) — before the `synthesize` call that runs them all.

use crate::expected;
use crate::stats::{fnv1a, fold_u64, FNV_OFFSET};
use crate::trace::Tracer;
use crate::workload::{ms_since, peak_rss_kib, time_setup, Outcome, Run, Scale, Window};
use gpu_kernels::synthset::{synth_targets, SynthTarget};
use gpu_sim::analyze::cost;
use gpu_sim::analyze::synth::SynthReport;
use gpu_sim::analyze::verify::{verify_pass, PassId, VerifyConfig};
use gpu_sim::{analyze_kernel, AnalysisConfig, DriverModel};
use std::collections::BTreeSet;
use std::time::Instant;

/// The drivers in the order this seed runs them.
fn drivers(seed: u64) -> Vec<DriverModel> {
    let all = DriverModel::ALL;
    (0..all.len())
        .map(|i| all[(seed as usize + i) % all.len()])
        .collect()
}

fn targets(seed: u64, scale: Scale) -> Vec<(DriverModel, Vec<SynthTarget>)> {
    drivers(seed)
        .into_iter()
        .map(|d| {
            let mut ts = synth_targets(d);
            if scale == Scale::Smoke {
                ts.retain(|t| t.name == "force-soa-b64");
            }
            (d, ts)
        })
        .collect()
}

/// The launch parameters with the element count set for `n` elements.
fn shaped(t: &SynthTarget, n: u32) -> Vec<u32> {
    let mut p = t.config.params.clone();
    if let Some(slot) = t.config.n_param.and_then(|i| p.get_mut(i)) {
        *slot = n;
    }
    p
}

/// The analyzer's stages one by one, as `synthesize` runs them on the
/// unmodified kernel.
fn stages(tr: &mut Tracer, t: &SynthTarget) {
    let c = &t.config;
    let acfg =
        AnalysisConfig::new(c.grid, c.block, shaped(t, c.grid * c.block)).with_driver(c.driver);
    tr.span("analyze.interpret", |_| analyze_kernel(&t.kernel, &acfg));
    // Only timed; the synthesize call below reports any failure.
    let _ = tr.span("analyze.price", |_| cost::estimate(&t.kernel, &acfg));
    let mut vcfg = VerifyConfig::new(c.verify_grid, c.block, shaped(t, c.block));
    vcfg.max_steps = c.verify_max_steps;
    tr.span("analyze.prove", |_| {
        verify_pass(&t.kernel, PassId::Licm, &vcfg)
    });
}

/// Digest of one report: suggestion labels, predicted-cycle bits and
/// certificate flags.
fn report_digest(h: u64, target: &str, r: &SynthReport) -> u64 {
    let mut h = fnv1a(h, target.as_bytes());
    h = fnv1a(h, r.driver.label().as_bytes());
    for s in &r.suggestions {
        h = fnv1a(h, s.label.as_bytes());
        h = fold_u64(h, s.predicted_cycles.to_bits());
        let cert = &s.certificate;
        for flag in [
            cert.is_proved(),
            cert.layout.is_some(),
            cert.schedule.is_some(),
        ] {
            h = fnv1a(h, &[u8::from(flag)]);
        }
    }
    h
}

/// Run the workload.
pub fn run(r: &Run) -> Outcome {
    let mut out = Outcome::new(1, 1);
    // The set-up builds every target's kernel under every driver.
    let work = time_setup(r, &mut out, || targets(r.seed, r.scale));
    let mut candidates = 0usize;
    let mut suggestions = 0usize;
    let mut skipped = 0usize;
    let mut repeated = 0usize;
    let window = Window::open();
    while r.keep_going(window.start(), &out.op_wall_ms, 1) {
        let t = Instant::now();
        let pass = |tr: &mut Tracer| {
            let mut results = Vec::new();
            for target in work.iter().flat_map(|(_, ts)| ts) {
                if r.trace {
                    stages(tr, target);
                }
                let rep = tr.span_if(r.trace, "analyze.synth", |_| target.synthesize());
                results.push((target.name.to_string(), rep));
            }
            results
        };
        let attempts = if r.trace {
            out.tracer.op(pass)
        } else {
            pass(&mut out.tracer)
        };
        out.op_wall_ms.push(ms_since(t));
        out.attempted += attempts.len() as u64;
        let mut results: Vec<(String, SynthReport)> = Vec::new();
        for (name, rep) in attempts {
            match rep {
                Ok(rep) => results.push((name, rep)),
                Err(e) => out.fail(format!("{name}: {e}")),
            }
        }

        // Certified suggestions only, and the same output for every order.
        let mut proved = BTreeSet::new();
        (candidates, suggestions, skipped, repeated) = (0, 0, 0, 0);
        for (name, rep) in &results {
            candidates += rep.candidates.len();
            skipped += rep.skipped.len();
            if rep.suggestions.is_empty() {
                out.fail(format!("{name} under {:?}: no suggestion", rep.driver));
            }
            for s in &rep.suggestions {
                suggestions += 1;
                if !s.certificate.is_proved() {
                    out.fail(format!("{name}: uncertified suggestion {}", s.label));
                }
                if !proved.insert((name.clone(), s.label.clone())) {
                    repeated += 1;
                }
            }
        }
        results.sort_by(|a, b| (&a.0, a.1.driver.label()).cmp(&(&b.0, b.1.driver.label())));
        let d = results
            .iter()
            .fold(FNV_OFFSET, |h, (name, rep)| report_digest(h, name, rep));
        out.digest = Some(d);
        if r.scale == Scale::Full {
            out.check_digest(d, expected::SUGGEST_FORCE, "synthesis output");
        }
    }
    window.close(&mut out);
    out.peak_rss_kib = peak_rss_kib();
    out.count("analyze.candidates", candidates as f64);
    out.count("analyze.suggestions", suggestions as f64);
    out.count("analyze.skipped", skipped as f64);
    out.count(
        "analyze.repeated_proof_frac",
        repeated as f64 / suggestions.max(1) as f64,
    );
    out
}
