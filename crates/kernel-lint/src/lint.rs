//! Advisor enrichment of static-analysis reports.
//!
//! `gpu_sim::analyze` diagnoses *that* an access pattern is bad; this module
//! wires those diagnostics to the paper's *remedies*: an uncoalesced access
//! with a packed-record lane stride gets the concrete [`LayoutPlan`] the
//! Sec. IV three-step procedure produces (the 28-byte Gravit record →
//! SoAoaS, 112 → 4 transactions), and invariant/register findings get the
//! Sec. IV-A unroll + ICM guidance. The `kernel-lint` CLI renders both.

use gpu_sim::analyze::synth::buffer_summaries;
use gpu_sim::analyze::{AnalysisReport, LintKind};
use particle_layouts::layout_advisor::{
    optimize_layout, AccessFreq, FieldSpec, LayoutPlan, StructSchema,
};
use serde::Serialize;

/// A layout remedy attached to one diagnostic of the report.
#[derive(Debug, Clone, Serialize)]
pub struct LayoutAdvice {
    /// Index into `report.diagnostics` of the finding this addresses.
    pub diagnostic: usize,
    /// Lane stride (bytes) that triggered the advice.
    pub lane_stride: i64,
    /// The concrete split the three-step procedure recommends.
    pub plan: LayoutPlan,
    /// One-line human summary.
    pub summary: String,
}

/// An analysis report plus the advisor remedies for its findings.
#[derive(Debug, Clone, Serialize)]
pub struct EnrichedReport {
    /// The underlying static-analysis report.
    pub report: AnalysisReport,
    /// Layout remedies for uncoalesced packed-record accesses.
    pub layout_advice: Vec<LayoutAdvice>,
    /// Compiler-pass guidance for invariant/register findings.
    pub pass_advice: Vec<String>,
}

impl EnrichedReport {
    /// Render report + remedies for humans.
    pub fn render(&self) -> String {
        let mut s = self.report.render();
        for a in &self.layout_advice {
            s.push_str(&format!("  advice: {}\n", a.summary));
        }
        for a in &self.pass_advice {
            s.push_str(&format!("  advice: {a}\n"));
        }
        s
    }
}

/// Attach the paper's remedies to a report.
///
/// * Every error-severity [`LintKind::UncoalescedAccess`] whose access has a
///   constant lane stride wider than one 128-bit vector (17..=63 bytes — the
///   packed-record regime; Gravit's record is 28, classic AoS is 32) gets
///   the [`LayoutPlan`] of the kernel's record: the first buffer, by
///   parameter, with the widest record stride (≥ 8 bytes) in the report's
///   [`buffer_summaries`] under the launch `params`, its read words hot
///   scalars and the rest cold. Without one, the plan is the Gravit
///   particle's.
/// * [`LintKind::UnhoistedInvariant`] and [`LintKind::RegisterPressure`]
///   findings get the Sec. IV-A pass ordering (licm before unroll; the
///   17 → 16 register drop that buys 50 % → 67 % occupancy).
pub fn enrich_report(report: AnalysisReport, params: &[u32]) -> EnrichedReport {
    let mut layout_advice = Vec::new();
    let mut pass_advice = Vec::new();
    // Field identity (px vs. mass) is unknowable statically, but the
    // three-step procedure only needs widths and frequencies, so a schema
    // of byte-offset-named scalars prices like the hand-written one.
    let summaries = buffer_summaries(&report, params);
    let widest = summaries.iter().map(|s| s.stride).max().filter(|&w| w >= 8);
    let schema = summaries
        .iter()
        .find(|s| Some(s.stride) == widest)
        .map_or_else(StructSchema::gravit_particle, |s| {
            StructSchema::new(
                (0..s.stride)
                    .step_by(4)
                    .map(|off| {
                        let freq = if s.hot_words.contains(&off) {
                            AccessFreq::Hot
                        } else {
                            AccessFreq::Cold
                        };
                        FieldSpec::scalar(format!("+{off}"), freq)
                    })
                    .collect(),
            )
        });
    let plan = optimize_layout(&schema);
    for (i, d) in report.diagnostics.iter().enumerate() {
        match d.kind {
            LintKind::UncoalescedAccess => {
                let stride = report
                    .accesses
                    .iter()
                    .find(|a| Some(a.instruction) == d.site.instruction)
                    .and_then(|a| a.lane_stride);
                if let Some(stride @ 17..=63) = stride {
                    layout_advice.push(LayoutAdvice {
                        diagnostic: i,
                        lane_stride: stride,
                        summary: format!(
                            "regroup the {stride}-byte record into {} aligned sub-structures \
                             ({} loads/record): {} -> {} transactions per half-warp full-record \
                             fetch ({:.0}x)",
                            plan.groups.len(),
                            plan.loads_per_record(),
                            plan.baseline_transactions,
                            plan.optimized_transactions,
                            plan.transaction_improvement()
                        ),
                        plan: plan.clone(),
                    });
                }
            }
            LintKind::UnhoistedInvariant => {
                pass_advice.push(
                    "run `passes::licm` before `passes::unroll_innermost`: hoisting the \
                     invariant frees its register in every unrolled copy (the paper's \
                     ICM step)"
                        .to_string(),
                );
            }
            LintKind::RegisterPressure => {
                pass_advice.push(
                    "registers gate occupancy: combine ICM with a smaller block (the paper \
                     moves 192 -> 128 threads at 16 regs for 50% -> 67% occupancy)"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
    EnrichedReport {
        report,
        layout_advice,
        pass_advice,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_kernels::lintset::workspace_lint_targets;
    use gpu_sim::analyze::Severity;

    #[test]
    fn packed_record_findings_carry_the_layout_plan() {
        // The Fig. 12 baseline (Unopt layout) is the first lintset target.
        let target = &workspace_lint_targets()[0];
        let enriched = enrich_report(target.analyze(), &target.params);
        assert!(enriched.report.has_errors());
        assert!(
            !enriched.layout_advice.is_empty(),
            "28-byte stride must get a plan"
        );
        let a = &enriched.layout_advice[0];
        assert_eq!(a.lane_stride, 28, "Gravit's packed record");
        assert_eq!(a.plan.baseline_transactions, 112);
        assert_eq!(a.plan.optimized_transactions, 4);
        assert_eq!(
            enriched.report.diagnostics[a.diagnostic].severity,
            Severity::Error,
            "advice indexes the uncoalesced error"
        );
        assert!(
            enriched.render().contains("112 -> 4 transactions"),
            "{}",
            enriched.render()
        );
    }

    #[test]
    fn rolled_force_kernel_gets_pass_advice() {
        // Any rolled force target warns about the recomputed eps² and the
        // enrichment names the pass ordering.
        let target = &workspace_lint_targets()[0];
        let enriched = enrich_report(target.analyze(), &target.params);
        assert!(
            enriched.pass_advice.iter().any(|a| a.contains("licm")),
            "{:?}",
            enriched.pass_advice
        );
    }

    #[test]
    fn clean_reports_are_not_decorated() {
        // The tuned Full-level kernel: no advice to give.
        let clean = workspace_lint_targets()
            .into_iter()
            .find(|t| t.kernel.name.contains("b128") && t.kernel.name.contains("icm"))
            .expect("Full-level target");
        let enriched = enrich_report(clean.analyze(), &clean.params);
        assert!(enriched.layout_advice.is_empty());
        assert!(enriched.pass_advice.is_empty());
    }
}
