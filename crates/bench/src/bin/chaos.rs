//! Chaos soak harness: randomized, seeded transient-fault campaigns against
//! the full simulation stack.
//!
//! Each campaign runs the same workload twice — once fault-free (the
//! reference) and once under a seeded [`TransientFaultPlan`] injecting bit
//! flips, transient launch failures and kernel hangs — and asserts the
//! recovery invariants end to end:
//!
//! 1. the recovered run's final state is **bit-identical** to the fault-free
//!    reference (retries re-upload from host state; exhausted retries degrade
//!    to the bit-identical CPU path — either way the trajectory is exact);
//! 2. every frame's retry count stays within the configured budget;
//! 3. every fault that *must* have fired (injected launch failures and
//!    hangs) is attributed in `fault_reports` with its retry history;
//! 4. kill + resume: every fourth campaign checkpoints mid-run, drops the
//!    simulation at a seed-derived step, resumes from the latest checkpoint
//!    (under fresh fault injection), and must still converge bit-identical.
//!
//! With `--device-mem BYTES` the faulty runs additionally execute under a
//! constricted device capacity: the degradation ladder must engage (every
//! frame's report carries its downgrade history) while the trajectory stays
//! bit-identical to the *unconstrained* fault-free reference — memory
//! pressure and transient chaos soak-tested together.
//!
//! Usage: `chaos [--campaigns N] [--steps S] [--n BODIES] [--seed SEED]
//! [--max-retries R] [--device-mem BYTES]`. Any violated invariant exits
//! nonzero.

use bench::gate::flag;
use gpu_kernels::force::OptLevel;
use gpu_sim::transient::{FaultRates, LaunchFault, TransientFaultPlan};
use gpu_sim::DriverModel;
use gravit_app::backend::{Backend, FaultPolicy, FaultReport};
use gravit_app::checkpoint::Checkpoint;
use gravit_app::config::{SimConfig, SpawnKind};
use gravit_app::recovery::RecoveryPolicy;
use gravit_app::sim::Simulation;
use simcore::SplitMix64;

struct Violations(usize);

impl Violations {
    fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("VIOLATION: {what}");
            self.0 += 1;
        }
    }
}

fn config(n: usize, seed: u64, max_retries: u32, device_mem: Option<u64>) -> SimConfig {
    SimConfig {
        n,
        spawn: SpawnKind::UniformBall { radius: 4.0 },
        seed,
        dt: 0.01,
        backend: Backend::GpuSim {
            level: OptLevel::Full,
            driver: DriverModel::Cuda10,
        },
        fault_policy: FaultPolicy::FallbackToCpu,
        recovery: RecoveryPolicy {
            max_retries,
            watchdog_instructions: Some(1 << 22),
            device_capacity: device_mem,
            ..RecoveryPolicy::default()
        },
        ..SimConfig::default()
    }
}

/// Faulty launches the plan provably injected over its first `launches`
/// draws that cannot be healed silently: launch failures and hangs always
/// error (bit flips may land in redzones or be overwritten harmlessly).
fn guaranteed_faults(plan: &TransientFaultPlan) -> usize {
    (0..plan.launches())
        .filter(|&k| {
            matches!(
                plan.fate_of(k),
                LaunchFault::LaunchFailure | LaunchFault::Hang
            )
        })
        .count()
}

/// Faulty launches attributed across the reports: each retry event is one
/// failed launch, plus the final failed launch of every frame that exhausted
/// its retries and degraded to the CPU.
fn attributed_faults(reports: &[FaultReport]) -> usize {
    reports
        .iter()
        .map(|r| r.retries.len() + usize::from(r.degraded_to == "cpu-parallel"))
        .sum()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let campaigns: u64 = flag(&args, "--campaigns")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let steps: u64 = flag(&args, "--steps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let n: usize = flag(&args, "--n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    let base_seed: u64 = flag(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(42);
    let max_retries: u32 = flag(&args, "--max-retries")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let device_mem: Option<u64> = flag(&args, "--device-mem").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--device-mem expects a byte count, got `{v}`");
            std::process::exit(2);
        })
    });

    // With a constricted capacity the plan must degrade off the full rung —
    // that is the point of the soak; an ample capacity is a usage error.
    let constricted = match device_mem {
        Some(cap) => {
            let plan = gravit_app::pressure::plan_frame(OptLevel::Full, n as u32, Some(cap));
            if plan.mode == gravit_app::pressure::ExecMode::Full {
                eprintln!(
                    "--device-mem {cap} does not constrict n={n} (full budget {} B fits)",
                    plan.full_budget
                );
                std::process::exit(2);
            }
            println!(
                "memory pressure: capacity {cap} B vs {} B working set ({:.1}x constriction), \
                 planned mode {}",
                plan.full_budget,
                plan.full_budget as f64 / cap as f64,
                plan.mode.label()
            );
            true
        }
        None => false,
    };

    println!(
        "chaos soak: {campaigns} campaigns x {steps} steps, n={n}, base seed {base_seed}, \
         retry budget {max_retries}"
    );
    let mut violations = Violations(0);
    let mut total_faults = 0usize;

    for c in 0..campaigns {
        let seed = SplitMix64::mix(base_seed ^ c);
        // Fault-free, *unconstrained* reference trajectory: the pressured
        // runs must converge bit-identical across execution modes too.
        let mut reference = Simulation::new(config(n, base_seed, max_retries, None))
            .expect("chaos config is valid");
        reference.run(steps).expect("fault-free run");

        // Campaign fault mix: rotate the stress profile.
        let rates = match c % 4 {
            0 => FaultRates {
                bit_flip: 0.5,
                launch_failure: 0.0,
                hang: 0.0,
            },
            1 => FaultRates {
                bit_flip: 0.0,
                launch_failure: 0.4,
                hang: 0.2,
            },
            2 => FaultRates {
                bit_flip: 0.25,
                launch_failure: 0.15,
                hang: 0.15,
            },
            _ => FaultRates {
                bit_flip: 0.2,
                launch_failure: 0.2,
                hang: 0.1,
            },
        };
        let kill_resume = c % 4 == 3;
        let label = if kill_resume {
            "kill+resume"
        } else {
            "straight"
        };

        let (sim, reports, injected) = if kill_resume {
            run_kill_resume_campaign(n, base_seed, max_retries, device_mem, steps, seed, rates)
        } else {
            let mut sim =
                Simulation::new(config(n, base_seed, max_retries, device_mem)).expect("valid");
            sim.set_transient_faults(TransientFaultPlan::new(seed, rates));
            sim.run(steps)
                .expect("recovery must survive every transient fault");
            let injected = sim.transient_faults().map(guaranteed_faults).unwrap_or(0);
            let reports = sim.fault_reports.clone();
            (sim, reports, injected)
        };

        // Invariant 1: bit-identical convergence.
        violations.check(
            sim.bodies == reference.bodies && sim.accels == reference.accels,
            &format!("campaign {c} ({label}): final state diverged from fault-free reference"),
        );
        violations.check(
            sim.time.to_bits() == reference.time.to_bits() && sim.steps == reference.steps,
            &format!("campaign {c} ({label}): clock/step divergence"),
        );
        // Invariant 2: retry counts within budget.
        for (i, r) in reports.iter().enumerate() {
            violations.check(
                r.retries.len() <= max_retries as usize,
                &format!(
                    "campaign {c} ({label}): report {i} used {} retries (budget {max_retries})",
                    r.retries.len()
                ),
            );
        }
        // Invariant 3: every guaranteed-to-fire fault is attributed.
        let attributed = attributed_faults(&reports);
        violations.check(
            attributed >= injected,
            &format!(
                "campaign {c} ({label}): {injected} injected launch-failures/hangs but only \
                 {attributed} attributed in fault_reports"
            ),
        );
        // Invariant 4 (pressure soak): under a constricted capacity every
        // frame is admitted off the full rung, so every report must carry
        // its degradation ladder starting at `full`.
        if constricted {
            violations.check(
                !reports.is_empty(),
                &format!("campaign {c} ({label}): constricted run logged no degradations"),
            );
            for (i, r) in reports.iter().enumerate() {
                violations.check(
                    r.ladder.first().map(|e| e.from == "full").unwrap_or(false),
                    &format!("campaign {c} ({label}): report {i} missing its pressure ladder"),
                );
            }
        }
        // Retry history shape: a retried frame records attempts 0..k in order.
        for r in &reports {
            for (k, ev) in r.retries.iter().enumerate() {
                violations.check(
                    ev.attempt == k as u32,
                    &format!("campaign {c} ({label}): retry history out of order"),
                );
            }
        }
        total_faults += attributed;
        println!(
            "campaign {c:2} [{label:11}] rates(flip={:.2} launch={:.2} hang={:.2}): \
             {} reports, {attributed} faulty launches attributed, state bit-identical",
            rates.bit_flip,
            rates.launch_failure,
            rates.hang,
            reports.len(),
        );
    }

    println!(
        "chaos soak done: {campaigns} campaigns, {total_faults} faulty launches survived, \
         {} violations",
        violations.0
    );
    if violations.0 > 0 {
        std::process::exit(1);
    }
}

/// Run a campaign that checkpoints every few steps, "dies" at a seed-derived
/// step, resumes from the latest checkpoint under fresh fault injection, and
/// finishes the remaining steps. Returns the finished simulation, the fault
/// reports of the *surviving* lineage (pre-kill reports travel through the
/// checkpoint), and the number of guaranteed-to-fire injected faults in that
/// lineage.
fn run_kill_resume_campaign(
    n: usize,
    workload_seed: u64,
    max_retries: u32,
    device_mem: Option<u64>,
    steps: u64,
    seed: u64,
    rates: FaultRates,
) -> (Simulation, Vec<FaultReport>, usize) {
    let every = (steps / 4).max(1);
    let kill_at = 1 + SplitMix64::mix(seed) % (steps - 1);
    let dir = std::env::temp_dir().join(format!("gravit-chaos-{}-{seed:x}", std::process::id()));
    let path = dir.join("campaign.ckpt");

    let mut first =
        Simulation::new(config(n, workload_seed, max_retries, device_mem)).expect("valid");
    first.set_transient_faults(TransientFaultPlan::new(seed, rates));
    let mut last_ckpt_steps = 0;
    while first.steps < kill_at {
        first.step().expect("recovery must survive");
        if first.steps.is_multiple_of(every) {
            first.checkpoint().save(&path).expect("checkpoint saves");
            last_ckpt_steps = first.steps;
        }
    }
    drop(first); // the kill

    // Faults injected between the last checkpoint and the kill died with the
    // process (their lineage no longer exists), so the attributed-faults
    // invariant counts only what the surviving lineage injected after
    // resume; the checkpoint carries the prefix's report log on top.
    let mut sim = if last_ckpt_steps > 0 {
        let ckpt = Checkpoint::load(&path).expect("latest checkpoint loads");
        Simulation::resume(config(n, workload_seed, max_retries, device_mem), &ckpt)
            .expect("resume")
    } else {
        Simulation::new(config(n, workload_seed, max_retries, device_mem)).expect("valid")
    };
    sim.set_transient_faults(TransientFaultPlan::new(
        SplitMix64::mix(seed ^ 0xD1E),
        rates,
    ));
    sim.run(steps - sim.steps).expect("resumed run survives");
    let injected_after = sim.transient_faults().map(guaranteed_faults).unwrap_or(0);
    let reports = sim.fault_reports.clone();
    std::fs::remove_dir_all(&dir).ok();
    (sim, reports, injected_after)
}
