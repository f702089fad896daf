//! Force-calculation backends.
//!
//! The paper's Sec. I-C/I-D landscape, as selectable engines:
//!
//! * [`Backend::CpuSerial`] — the original O(n²) loop (the 87× baseline);
//! * [`Backend::CpuParallel`] — the same loop spread over every host thread
//!   (`simcore::par`), a multi-core comparator the paper didn't have;
//! * [`Backend::BarnesHut`] — Gravit's O(n log n) tree code;
//! * [`Backend::GpuSim`] — the tiled CUDA kernel at a chosen optimization
//!   level, *functionally executed* on the simulated GPU. Physics results
//!   are bit-identical to `CpuSerial`; wall-clock is that of the simulator,
//!   so use [`modeled_frame_seconds`](Backend::modeled_frame_seconds) for
//!   device-time questions (that is what Fig. 12 reports).
//!
//! # Fault handling
//!
//! The simulated device detects out-of-bounds, misaligned, uninitialized and
//! out-of-memory accesses (see `gpu_sim::fault`). A [`FaultPolicy`] decides
//! what a device fault means at the application layer:
//!
//! * [`FaultPolicy::FailFast`] — propagate the typed [`DeviceError`] to the
//!   caller (CI, debugging: you want the fault coordinates, not a rescue);
//! * [`FaultPolicy::FallbackToCpu`] — log a [`FaultReport`] and recompute the
//!   frame on [`Backend::CpuParallel`], which is bit-identical physics to the
//!   GPU path, so a degraded run produces the same trajectory.
//!
//! Every frame goes through [`Backend::frame`], which applies the policy
//! after the transient-fault retries and the memory-pressure ladder of
//! [`FrameOpts::recovery`].

use crate::pressure::{downgrade, gpu_frame_chunked, plan_frame, DegradeEvent, ExecMode};
use crate::recovery::{RecoveryPolicy, RetryEvent};
use gpu_kernels::chunk::build_chunk_force_kernel;
use gpu_kernels::force::{build_force_kernel, force_params, OptLevel};
use gpu_kernels::integrate::{build_integrate_kernel, integrate_params};
use gpu_sim::exec::functional::{configured_threads, run_lowered_full, FunctionalRun};
use gpu_sim::fault::{DeviceError, DeviceResult, FaultKind, FaultPlan};
use gpu_sim::ir::lower::{lower, Program};
use gpu_sim::mem::GlobalMemory;
use gpu_sim::transient::{run_grid_chaos_lowered, TransientFaultPlan};
use gpu_sim::DriverModel;
use nbody::barnes_hut::accelerations_bh;
use nbody::direct::{accelerations, accelerations_par};
use nbody::model::{Bodies, ForceParams};
use particle_layouts::device::{alloc_accel_out, download_accels};
use particle_layouts::{padded_count, DeviceImage, Particle};
use serde::{Deserialize, Serialize};
use simcore::Vec3;
use std::sync::OnceLock;

/// A force backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backend {
    /// Serial O(n²) on the CPU.
    CpuSerial,
    /// O(n²) on the CPU across every host thread, bit-identical to
    /// [`Backend::CpuSerial`].
    CpuParallel,
    /// Barnes–Hut tree code with opening angle θ.
    BarnesHut {
        /// Opening angle (0.3–1.0 typical; smaller = more accurate).
        theta: f32,
    },
    /// The simulated-GPU tiled kernel at an optimization level.
    GpuSim {
        /// Optimization level (layout/unroll/ICM/block).
        level: OptLevel,
        /// Driver revision for the timing model.
        driver: DriverModel,
    },
}

/// What to do when the simulated device reports a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Propagate the typed error to the caller immediately.
    FailFast,
    /// Emit a [`FaultReport`] and recompute the frame on
    /// [`Backend::CpuParallel`] (bit-identical physics, so the trajectory is
    /// unaffected).
    #[default]
    FallbackToCpu,
}

/// Structured record of a device fault and how the run recovered: the retry
/// history (if the frame was retried) and which backend finally produced the
/// frame. Serializable so checkpoints and chaos logs preserve full fault
/// attribution across a crash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// The first device error of the frame, with kernel/block/thread/
    /// instruction coordinates.
    pub error: DeviceError,
    /// Label of the backend that faulted.
    pub degraded_from: String,
    /// Label of the backend (or retry attempt) that produced the frame.
    pub degraded_to: String,
    /// Every failed attempt of the frame, in order, with the backoff waited
    /// after each. Empty when the frame was not retried (permanent fault or
    /// retries disabled).
    pub retries: Vec<RetryEvent>,
    /// Every rung of the memory-pressure degradation ladder the frame
    /// descended (full → chunked → CPU), in order. Empty when the frame ran
    /// at its planned residency.
    pub ladder: Vec<DegradeEvent>,
}

impl FaultReport {
    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut s = self.error.report();
        for r in &self.retries {
            s.push_str(&format!(
                "\n  attempt {}: {} (backoff {} ms)",
                r.attempt, r.fault, r.backoff_ms
            ));
        }
        for d in &self.ladder {
            s.push_str(&format!("\n  degrade {} -> {}: {}", d.from, d.to, d.reason));
        }
        s.push_str(&format!(
            "\n  recovery: degraded {} -> {}",
            self.degraded_from, self.degraded_to
        ));
        s
    }
}

/// Accelerations plus the fault (if any) survived along the way.
#[derive(Debug, Clone)]
pub struct ForceResult {
    /// Per-body accelerations.
    pub accels: Vec<Vec3>,
    /// Present iff the device faulted and the CPU fallback produced `accels`.
    pub fault: Option<FaultReport>,
}

/// Options of one [`Backend::frame`]: what a fault means, how the frame
/// recovers, and the two fault-injection hooks (both `None` in production).
#[derive(Debug, Default)]
pub struct FrameOpts<'a> {
    /// What a device fault the recovery could not absorb means.
    pub policy: FaultPolicy,
    /// Retry budget, backoff, watchdog and device capacity.
    pub recovery: RecoveryPolicy,
    /// Transient faults drawn once per kernel launch (the soak-test hook;
    /// see `gpu_sim::transient`).
    pub chaos: Option<&'a mut TransientFaultPlan>,
    /// Address faults injected into every kernel launch (the sanitizer test
    /// hook; see `gpu_sim::fault::FaultPlan`). They recur on every attempt,
    /// so they are permanent faults and never retried.
    pub inject: Option<&'a FaultPlan>,
}

impl FrameOpts<'_> {
    /// One attempt under `policy`: no retries, no watchdog, no capacity
    /// limit and no injected faults.
    fn single_attempt(policy: FaultPolicy) -> Self {
        FrameOpts {
            policy,
            recovery: RecoveryPolicy {
                max_retries: 0,
                ..RecoveryPolicy::default()
            },
            chaos: None,
            inject: None,
        }
    }

    /// Launch one kernel of a frame with these options' hooks and watchdog
    /// — the only place gravit chooses between the chaos launch and the
    /// plain one.
    pub(crate) fn launch(
        &mut self,
        prog: &Program,
        grid: u32,
        block: u32,
        params: &[u32],
        gmem: &mut GlobalMemory,
    ) -> DeviceResult<FunctionalRun> {
        let watchdog = self.recovery.watchdog_instructions;
        match self.chaos.as_deref_mut() {
            Some(chaos) => run_grid_chaos_lowered(
                prog,
                grid,
                block,
                params,
                gmem,
                chaos,
                self.inject,
                watchdog,
            ),
            None => run_lowered_full(
                prog,
                grid,
                block,
                params,
                gmem,
                self.inject,
                watchdog,
                configured_threads(),
            ),
        }
    }
}

impl Backend {
    /// Short name for reports.
    pub fn label(&self) -> String {
        match self {
            Backend::CpuSerial => "cpu-serial".into(),
            Backend::CpuParallel => "cpu-parallel".into(),
            Backend::BarnesHut { theta } => format!("barnes-hut(θ={theta})"),
            Backend::GpuSim { level, .. } => format!("gpu-sim[{}]", level.label()),
        }
    }

    /// Compute accelerations in one attempt, recovering from a device fault
    /// via the CPU fallback (i.e. [`FaultPolicy::FallbackToCpu`], report
    /// discarded).
    pub fn accelerations(&self, bodies: &Bodies, fp: &ForceParams) -> Vec<Vec3> {
        self.frame(
            bodies,
            fp,
            FrameOpts::single_attempt(FaultPolicy::FallbackToCpu),
        )
        .map(|r| r.accels)
        // The fallback path cannot itself fault; this arm is unreachable.
        .unwrap_or_else(|_| accelerations_par(bodies, fp))
    }

    /// Compute accelerations in one attempt, propagating any device fault as
    /// a typed error.
    pub fn try_accelerations(&self, bodies: &Bodies, fp: &ForceParams) -> DeviceResult<Vec<Vec3>> {
        self.frame(bodies, fp, FrameOpts::single_attempt(FaultPolicy::FailFast))
            .map(|r| r.accels)
    }

    /// Compute one frame of accelerations under `opts`: the one way every
    /// caller computes a frame.
    ///
    /// CPU backends have no device faults and compute the frame directly.
    /// On the simulated GPU the frame is first planned against
    /// `opts.recovery.device_capacity` (see [`crate::pressure::plan_frame`]):
    /// a working set that does not fit the device is admitted as chunked
    /// streaming (bit-identical physics) or, at the floor, handed to the CPU
    /// — each downgrade recorded in the [`FaultReport`]'s ladder with the
    /// typed OOM that forced it.
    ///
    /// Orthogonally, a frame that fails with a *transient* fault
    /// (`EccMismatch`, `WatchdogTimeout`, `TransientLaunch`,
    /// `NonFiniteResult`) is retried up to `opts.recovery.max_retries` times
    /// with deterministic backoff — each retry rebuilds the device image from
    /// host state, so a vanished fault leaves the physics bit-identical to a
    /// fault-free frame. A runtime OOM that slipped past planning descends
    /// the same ladder reactively. Only when retries exhaust, the fault is
    /// permanent, or the ladder reaches the CPU does `opts.policy` decide
    /// between propagating the error and computing the frame on the CPU.
    /// The retry history is returned in the [`FaultReport`].
    pub fn frame(
        &self,
        bodies: &Bodies,
        fp: &ForceParams,
        opts: FrameOpts,
    ) -> DeviceResult<ForceResult> {
        let accels = match self {
            _ if bodies.is_empty() => Vec::new(),
            Backend::CpuSerial => accelerations(bodies, fp),
            Backend::CpuParallel => accelerations_par(bodies, fp),
            Backend::BarnesHut { theta } => accelerations_bh(bodies, fp, *theta),
            Backend::GpuSim { level, .. } => return self.device_frame(bodies, fp, *level, opts),
        };
        Ok(ForceResult {
            accels,
            fault: None,
        })
    }

    /// [`frame`](Self::frame) on the simulated GPU: plan, retry, descend the
    /// ladder, and let the policy settle what the device could not.
    fn device_frame(
        &self,
        bodies: &Bodies,
        fp: &ForceParams,
        level: OptLevel,
        mut opts: FrameOpts,
    ) -> DeviceResult<ForceResult> {
        let n = bodies.len() as u32;
        let recovery = opts.recovery;
        // Admission control: plan the frame before touching device memory.
        let plan = plan_frame(level, n, recovery.device_capacity);
        let mut mode = plan.mode;
        let mut ladder = plan.ladder;
        let mut first_error: Option<DeviceError> = plan.root;
        let mut retries: Vec<RetryEvent> = Vec::new();
        loop {
            let attempt = retries.len() as u32;
            let r = match mode {
                ExecMode::Full => gpu_frame(bodies, fp, level, &mut opts),
                ExecMode::Chunked { chunk } => {
                    gpu_frame_chunked(bodies, fp, level, chunk, &mut opts)
                }
                // The CPU rung ends the frame; the downgrade that led here
                // recorded its root cause in `first_error`.
                ExecMode::Cpu => break,
            };
            let error = match r {
                Ok(accels) => {
                    let fault = first_error.map(|error| FaultReport {
                        error,
                        degraded_from: self.label(),
                        degraded_to: self.survival_label(mode, attempt),
                        retries,
                        ladder,
                    });
                    return Ok(ForceResult { accels, fault });
                }
                Err(error) => error,
            };
            if error.kind.is_transient() && attempt < recovery.max_retries {
                let backoff_ms = recovery.backoff.delay_ms(attempt);
                retries.push(RetryEvent {
                    attempt,
                    fault: error.kind.name().to_string(),
                    detail: error.to_string(),
                    backoff_ms,
                });
                first_error.get_or_insert(error);
                if backoff_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(backoff_ms));
                }
                continue;
            }
            // Reactive safety net: a runtime OOM (exact planning makes this
            // unreachable in practice, but the rule is cheap insurance)
            // descends the same ladder planning uses instead of abandoning
            // the frame.
            if matches!(error.kind, FaultKind::OutOfMemory { .. }) {
                if let Some(next) = downgrade(level, n, mode) {
                    ladder.push(DegradeEvent {
                        from: mode.label(),
                        to: next.label(),
                        reason: error.to_string(),
                    });
                    first_error.get_or_insert(error);
                    mode = next;
                    continue;
                }
            }
            // Permanent fault, or the retry budget is spent.
            first_error.get_or_insert(error);
            break;
        }
        // The FaultPolicy decides: FailFast propagates the frame's first
        // error (the root cause); otherwise the CPU computes the frame, and
        // the report keeps the root cause with the full retry and ladder
        // history.
        match (opts.policy, first_error) {
            (FaultPolicy::FailFast, Some(error)) => Err(error),
            (_, error) => Ok(ForceResult {
                accels: accelerations_par(bodies, fp),
                fault: error.map(|error| FaultReport {
                    error,
                    degraded_from: self.label(),
                    degraded_to: Backend::CpuParallel.label(),
                    retries,
                    ladder,
                }),
            }),
        }
    }

    /// The `degraded_to` label of a frame that survived on the GPU: the
    /// backend label, tagged with the chunked rung and/or the winning retry.
    fn survival_label(&self, mode: ExecMode, attempt: u32) -> String {
        let mut tags = Vec::new();
        if let ExecMode::Chunked { chunk } = mode {
            tags.push(format!("chunked c={chunk}"));
        }
        if attempt > 0 {
            tags.push(format!("retry {attempt}"));
        }
        if tags.is_empty() {
            self.label()
        } else {
            format!("{} ({})", self.label(), tags.join(", "))
        }
    }

    /// The modeled wall-clock seconds one frame of this backend would take on
    /// the 8800 GTX (GPU backends only; `None` otherwise). This is the
    /// quantity Fig. 12 plots.
    pub fn modeled_frame_seconds(&self, n: u32) -> Option<f64> {
        match self {
            Backend::GpuSim { level, driver } => {
                Some(crate::model::model_frame(*level, n, *driver).total_s())
            }
            _ => None,
        }
    }
}

/// Exact device-memory budget of one GPU force frame: the layout's particle
/// buffers plus the `float4` acceleration output, with the allocator's
/// alignment and redzone overhead included.
pub fn frame_memory_budget(level: OptLevel, n: u32) -> u64 {
    let cfg = level.config();
    let mut sizes = DeviceImage::alloc_sizes(cfg.layout, n, cfg.block);
    sizes.push(padded_count(n, cfg.block) * 16);
    GlobalMemory::footprint(&sizes)
}

/// The host bodies as device particles. The kernels consume G-premultiplied
/// masses (see gpu-kernels).
pub(crate) fn device_particles(bodies: &Bodies, fp: &ForceParams) -> Vec<Particle> {
    (0..bodies.len())
        .map(|i| Particle {
            pos: bodies.pos[i],
            vel: bodies.vel[i],
            mass: fp.g * bodies.mass[i],
        })
        .collect()
}

/// A non-finite acceleration is corrupted physics, not a value to integrate:
/// surface it as a typed (transient, hence retryable) fault with the body
/// index attributed.
pub(crate) fn check_finite(accels: &[Vec3], kernel: &str) -> DeviceResult<()> {
    match accels
        .iter()
        .position(|a| !(a.x.is_finite() && a.y.is_finite() && a.z.is_finite()))
    {
        None => Ok(()),
        Some(i) => Err(
            DeviceError::new(FaultKind::NonFiniteResult { index: i as u64 }).with_kernel(kernel),
        ),
    }
}

/// The kernels a gravit frame path launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameKernel {
    /// The force kernel over the whole resident working set.
    Force,
    /// The chunk-streaming force kernel of the memory-pressure ladder.
    ChunkForce,
    /// The Euler integration kernel of the device-resident loop.
    Integrate,
}

impl FrameKernel {
    const ALL: [FrameKernel; 3] = [
        FrameKernel::Force,
        FrameKernel::ChunkForce,
        FrameKernel::Integrate,
    ];
}

/// One lowered program per (level, kernel) pair, each built and lowered on
/// first use. Fixed-size, so it needs no eviction.
struct ProgramTable([OnceLock<Program>; ProgramTable::SLOTS]);

impl ProgramTable {
    const SLOTS: usize = OptLevel::ALL.len() * FrameKernel::ALL.len();

    const fn new() -> Self {
        ProgramTable([const { OnceLock::new() }; ProgramTable::SLOTS])
    }

    fn get(&self, level: OptLevel, kind: FrameKernel) -> &Program {
        let slot = level as usize * FrameKernel::ALL.len() + kind as usize;
        self.0[slot].get_or_init(|| {
            let cfg = level.config();
            lower(&match kind {
                FrameKernel::Force => build_force_kernel(cfg),
                FrameKernel::ChunkForce => build_chunk_force_kernel(cfg),
                FrameKernel::Integrate => build_integrate_kernel(cfg.layout),
            })
        })
    }
}

/// The lowered `kind` kernel of `level`: built and lowered once per process,
/// then shared by every frame — the way Gravit compiles its kernel once and
/// afterwards only uploads, launches and downloads.
///
/// A kernel is a pure function of its level, and a [`Program`] is immutable
/// and carries its kernel's name, so one value serves every simulation,
/// retry, fleet worker and resumed checkpoint.
pub(crate) fn program(level: OptLevel, kind: FrameKernel) -> &'static Program {
    static PROGRAMS: ProgramTable = ProgramTable::new();
    PROGRAMS.get(level, kind)
}

/// Run the force kernel functionally on the simulated device with the whole
/// working set resident. Each call rebuilds the device image from host
/// state, so it is the unit of retry for [`Backend::frame`].
fn gpu_frame(
    bodies: &Bodies,
    fp: &ForceParams,
    level: OptLevel,
    opts: &mut FrameOpts,
) -> DeviceResult<Vec<Vec3>> {
    let cfg = level.config();
    let prog = program(level, FrameKernel::Force);
    // Memory budget: the exact footprint of the layout buffers + the float4
    // output under the device allocator (alignment + redzones), not a guess.
    let budget = frame_memory_budget(level, bodies.len() as u32);
    let mut gmem = GlobalMemory::new(budget);
    let particles = device_particles(bodies, fp);
    let img = DeviceImage::upload(&mut gmem, cfg.layout, &particles, cfg.block)?;
    let out = alloc_accel_out(&mut gmem, img.padded_n)?;
    debug_assert_eq!(
        gmem.allocated(),
        budget,
        "frame_memory_budget must predict the allocator exactly"
    );
    let params = force_params(&img, out, fp.softening);
    let grid = img.padded_n / cfg.block;
    opts.launch(prog, grid, cfg.block, &params, &mut gmem)?;
    let accels = download_accels(&gmem, out, img.n)?;
    check_finite(&accels, &prog.name)?;
    Ok(accels)
}

/// Run `steps` device-resident Euler steps: upload once, alternate the force
/// and integration kernels on the simulated device, download once — the full
/// port shape of the paper's Gravit (state stays on the GPU across a frame).
///
/// Bit-identical to `steps` iterations of `accelerations` + host
/// `step_euler` (the integration kernel mirrors the host operation order).
pub fn run_device_resident(
    bodies: &Bodies,
    fp: &ForceParams,
    dt: f32,
    steps: u32,
    level: OptLevel,
) -> DeviceResult<Bodies> {
    if bodies.is_empty() {
        return Ok(Bodies::default());
    }
    let cfg = level.config();
    let force_p = program(level, FrameKernel::Force);
    let integ_p = program(level, FrameKernel::Integrate);
    let budget = frame_memory_budget(level, bodies.len() as u32);
    let mut gmem = GlobalMemory::new(budget);
    let particles = device_particles(bodies, fp);
    let img = DeviceImage::upload(&mut gmem, cfg.layout, &particles, cfg.block)?;
    let acc = alloc_accel_out(&mut gmem, img.padded_n)?;
    debug_assert_eq!(
        gmem.allocated(),
        budget,
        "resident-loop budget must be exact"
    );
    let grid = img.padded_n / cfg.block;
    let fparams = force_params(&img, acc, fp.softening);
    let iparams = integrate_params(&img, acc, dt);
    let mut plain = FrameOpts::default();
    for _ in 0..steps {
        plain.launch(force_p, grid, cfg.block, &fparams, &mut gmem)?;
        plain.launch(integ_p, grid, cfg.block, &iparams, &mut gmem)?;
    }
    let out = img.read_all(&gmem)?;
    let mut result = Bodies::with_capacity(bodies.len());
    for (i, p) in out.into_iter().enumerate() {
        // Masses were pre-scaled by G for the kernels; restore the originals
        // (they are unchanged on device, so this avoids a divide round trip).
        result.push(p.pos, p.vel, bodies.mass[i]);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::fault::{FaultKind, Mutation};
    use nbody::spawn;

    #[test]
    fn all_backends_agree_on_physics() {
        let bodies = spawn::uniform_ball(300, 5.0, 2.0, 11);
        let fp = ForceParams::default();
        let reference = Backend::CpuSerial.accelerations(&bodies, &fp);
        // Parallel and GPU are bit-identical.
        let par = Backend::CpuParallel.accelerations(&bodies, &fp);
        assert_eq!(reference, par);
        let gpu = Backend::GpuSim {
            level: OptLevel::Full,
            driver: DriverModel::Cuda10,
        }
        .accelerations(&bodies, &fp);
        assert_eq!(
            reference, gpu,
            "GPU functional execution must match CPU bitwise"
        );
        // Barnes-Hut is approximate.
        let bh = Backend::BarnesHut { theta: 0.4 }.accelerations(&bodies, &fp);
        for i in 0..bodies.len() {
            let err = (bh[i] - reference[i]).norm() / reference[i].norm().max(1e-9);
            assert!(err < 0.05, "body {i} err {err}");
        }
    }

    fn fresh_program(level: OptLevel, kind: FrameKernel) -> Program {
        let cfg = level.config();
        lower(&match kind {
            FrameKernel::Force => build_force_kernel(cfg),
            FrameKernel::ChunkForce => build_chunk_force_kernel(cfg),
            FrameKernel::Integrate => build_integrate_kernel(cfg.layout),
        })
    }

    #[test]
    fn program_table_holds_each_levels_freshly_lowered_kernel() {
        for level in OptLevel::ALL {
            for kind in FrameKernel::ALL {
                let p = program(level, kind);
                assert_eq!(*p, fresh_program(level, kind), "{level:?} {kind:?}");
                assert!(
                    std::ptr::eq(p, program(level, kind)),
                    "{level:?} {kind:?}: a second call must return the same program"
                );
            }
        }
    }

    #[test]
    fn concurrent_first_use_builds_one_program() {
        // A fresh table, so this really is the first use of the slot.
        let table = ProgramTable::new();
        let ptrs = simcore::par::map_indexed(8, 8, |_| {
            table.get(OptLevel::SoA, FrameKernel::ChunkForce) as *const Program as usize
        });
        assert!(ptrs.iter().all(|&p| p == ptrs[0]), "{ptrs:?}");
        assert_eq!(
            *table.get(OptLevel::SoA, FrameKernel::ChunkForce),
            fresh_program(OptLevel::SoA, FrameKernel::ChunkForce)
        );
    }

    #[test]
    fn only_gpu_backends_have_a_frame_model() {
        assert!(Backend::CpuSerial.modeled_frame_seconds(1000).is_none());
        let t = Backend::GpuSim {
            level: OptLevel::SoAoaS,
            driver: DriverModel::Cuda10,
        }
        .modeled_frame_seconds(40_000)
        .unwrap();
        assert!(
            t > 0.0 && t < 10.0,
            "modeled frame {t}s out of plausible range"
        );
    }

    #[test]
    fn device_resident_loop_matches_host_euler_bitwise() {
        use nbody::integrator::step_euler;
        let fp = ForceParams {
            g: 1.0,
            softening: 0.05,
        };
        let dt = 0.01f32;
        let steps = 4u32;
        let bodies0 = spawn::disk_galaxy(200, 4.0, 1.0, fp.g, 21);

        // Host loop: acc at current positions, then Euler, repeated.
        let mut host = bodies0.clone();
        for _ in 0..steps {
            let acc = Backend::CpuSerial.accelerations(&host, &fp);
            step_euler(&mut host, &acc, dt, None);
        }

        let dev = run_device_resident(&bodies0, &fp, dt, steps, OptLevel::Full).unwrap();
        assert_eq!(host, dev, "device-resident trajectory must match the host");
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(Backend::CpuSerial.label(), "cpu-serial");
        assert!(Backend::BarnesHut { theta: 0.5 }.label().contains("0.5"));
        assert!(Backend::GpuSim {
            level: OptLevel::Full,
            driver: DriverModel::Cuda22
        }
        .label()
        .contains("SoAoaS"));
    }

    #[test]
    fn empty_body_set_is_a_noop_for_every_backend() {
        let bodies = Bodies::default();
        let fp = ForceParams::default();
        for backend in [
            Backend::CpuSerial,
            Backend::CpuParallel,
            Backend::BarnesHut { theta: 0.5 },
            Backend::GpuSim {
                level: OptLevel::Full,
                driver: DriverModel::Cuda10,
            },
        ] {
            assert!(
                backend.accelerations(&bodies, &fp).is_empty(),
                "{}",
                backend.label()
            );
            assert!(backend.try_accelerations(&bodies, &fp).unwrap().is_empty());
        }
        assert_eq!(
            run_device_resident(&bodies, &fp, 0.01, 3, OptLevel::Full)
                .unwrap()
                .len(),
            0
        );
    }

    fn gpu() -> Backend {
        Backend::GpuSim {
            level: OptLevel::Full,
            driver: DriverModel::Cuda10,
        }
    }

    /// A plan that redirects one lane's global accesses far out of bounds
    /// (keeping 16-byte alignment so the class is OutOfBounds, not
    /// Misaligned).
    fn oob_plan() -> FaultPlan {
        FaultPlan::at_thread(0, 7, Mutation::SetAddr(1 << 40))
    }

    #[test]
    fn injected_fault_fails_fast_with_coordinates() {
        let bodies = spawn::uniform_ball(256, 5.0, 2.0, 3);
        let fp = ForceParams::default();
        let opts = FrameOpts {
            policy: FaultPolicy::FailFast,
            inject: Some(&oob_plan()),
            ..FrameOpts::default()
        };
        let err = gpu().frame(&bodies, &fp, opts).unwrap_err();
        assert!(
            matches!(err.kind, FaultKind::OutOfBounds { .. }),
            "got {:?}",
            err.kind
        );
        assert_eq!(err.site.block, Some(0));
        assert_eq!(err.site.thread, Some(7));
        assert!(err.site.kernel.as_deref().unwrap_or("").contains("force"));
    }

    #[test]
    fn injected_fault_degrades_to_cpu_with_identical_physics() {
        let bodies = spawn::uniform_ball(256, 5.0, 2.0, 3);
        let fp = ForceParams::default();
        let opts = FrameOpts {
            policy: FaultPolicy::FallbackToCpu,
            inject: Some(&oob_plan()),
            ..FrameOpts::default()
        };
        let res = gpu().frame(&bodies, &fp, opts).unwrap();
        let report = res.fault.expect("the injected fault must be reported");
        assert!(report.degraded_from.contains("gpu-sim"));
        assert_eq!(report.degraded_to, "cpu-parallel");
        assert!(report.render().contains("OutOfBounds"));
        // The degraded frame is bit-identical to the serial CPU reference.
        assert_eq!(res.accels, Backend::CpuSerial.accelerations(&bodies, &fp));
    }

    #[test]
    fn transient_fault_is_retried_and_physics_stay_bit_identical() {
        use gpu_sim::transient::{FaultRates, LaunchFault, TransientFaultPlan};
        let bodies = spawn::uniform_ball(256, 5.0, 2.0, 3);
        let fp = ForceParams::default();
        let reference = Backend::CpuSerial.accelerations(&bodies, &fp);
        let recovery = RecoveryPolicy {
            max_retries: 3,
            ..RecoveryPolicy::default()
        };
        // Find a seed whose first launch faults transiently and whose second
        // is healthy: retry must succeed without touching the CPU path.
        let rates = FaultRates {
            bit_flip: 0.0,
            launch_failure: 0.5,
            hang: 0.0,
        };
        let seed = (0..200u64)
            .find(|&s| {
                let p = TransientFaultPlan::new(s, rates);
                p.fate_of(0) == LaunchFault::LaunchFailure && p.fate_of(1) == LaunchFault::None
            })
            .expect("some seed faults exactly once");
        let mut plan = TransientFaultPlan::new(seed, rates);
        let opts = FrameOpts {
            policy: FaultPolicy::FailFast,
            recovery,
            chaos: Some(&mut plan),
            inject: None,
        };
        let res = gpu()
            .frame(&bodies, &fp, opts)
            .expect("the retry must rescue the frame");
        assert_eq!(
            res.accels, reference,
            "recovered frame must be bit-identical"
        );
        let report = res.fault.expect("the survived fault must be reported");
        assert_eq!(report.retries.len(), 1);
        assert_eq!(report.retries[0].attempt, 0);
        assert_eq!(report.retries[0].fault, "TransientLaunch");
        assert!(
            report.degraded_to.contains("retry 1"),
            "got {}",
            report.degraded_to
        );
        assert!(report.render().contains("attempt 0"));
    }

    #[test]
    fn permanent_faults_are_never_retried() {
        let bodies = spawn::uniform_ball(256, 5.0, 2.0, 3);
        let fp = ForceParams::default();
        // A permanent (injected) fault under FallbackToCpu with a retry
        // budget to spare must still show an empty retry history.
        let opts = FrameOpts {
            policy: FaultPolicy::FallbackToCpu,
            recovery: RecoveryPolicy {
                max_retries: 3,
                ..RecoveryPolicy::default()
            },
            chaos: None,
            inject: Some(&oob_plan()),
        };
        let res = gpu().frame(&bodies, &fp, opts).unwrap();
        let report = res.fault.expect("reported");
        assert!(
            report.retries.is_empty(),
            "permanent faults must not be retried"
        );
        assert_eq!(report.degraded_to, "cpu-parallel");
        // And with retries disabled a transient fault goes straight to the
        // policy.
        use gpu_sim::transient::{FaultRates, TransientFaultPlan};
        let mut plan = TransientFaultPlan::new(
            1,
            FaultRates {
                bit_flip: 0.0,
                launch_failure: 1.0,
                hang: 0.0,
            },
        );
        let none = RecoveryPolicy {
            max_retries: 0,
            ..RecoveryPolicy::default()
        };
        let opts = FrameOpts {
            policy: FaultPolicy::FailFast,
            recovery: none,
            chaos: Some(&mut plan),
            inject: None,
        };
        let err = gpu().frame(&bodies, &fp, opts).unwrap_err();
        assert!(matches!(err.kind, FaultKind::TransientLaunch { .. }));
        assert_eq!(
            plan.launches(),
            1,
            "exactly one attempt with retries disabled"
        );
    }

    #[test]
    fn exhausted_retries_fall_back_to_cpu_with_full_history() {
        use gpu_sim::transient::{FaultRates, TransientFaultPlan};
        let bodies = spawn::uniform_ball(256, 5.0, 2.0, 3);
        let fp = ForceParams::default();
        let reference = Backend::CpuSerial.accelerations(&bodies, &fp);
        // Every launch fails: retries exhaust, the CPU takes the frame.
        let mut plan = TransientFaultPlan::new(
            9,
            FaultRates {
                bit_flip: 0.0,
                launch_failure: 1.0,
                hang: 0.0,
            },
        );
        let recovery = RecoveryPolicy {
            max_retries: 2,
            ..RecoveryPolicy::default()
        };
        let opts = FrameOpts {
            policy: FaultPolicy::FallbackToCpu,
            recovery,
            chaos: Some(&mut plan),
            inject: None,
        };
        let res = gpu().frame(&bodies, &fp, opts).unwrap();
        assert_eq!(
            res.accels, reference,
            "degraded frame must be bit-identical"
        );
        let report = res.fault.expect("reported");
        assert_eq!(report.retries.len(), 2, "max_retries bounds the history");
        assert_eq!(plan.launches(), 3, "initial attempt + 2 retries");
        assert_eq!(report.degraded_to, "cpu-parallel");
        assert!(matches!(
            report.error.kind,
            FaultKind::TransientLaunch { .. }
        ));
    }

    #[test]
    fn non_finite_accelerations_are_typed_faults_with_the_body_index() {
        // A near-f32-max mass at a tiny separation overflows the force to
        // infinity. The GPU path must surface that as a typed fault, not
        // integrate Inf/NaN.
        let mut bodies = Bodies::with_capacity(2);
        bodies.push(Vec3::ZERO, Vec3::ZERO, 1e38);
        bodies.push(
            Vec3 {
                x: 1e-6,
                y: 0.0,
                z: 0.0,
            },
            Vec3::ZERO,
            1e38,
        );
        let fp = ForceParams {
            g: 1.0,
            softening: 0.0,
        };
        let err = gpu().try_accelerations(&bodies, &fp).unwrap_err();
        match err.kind {
            FaultKind::NonFiniteResult { index } => assert_eq!(index, 0),
            other => panic!("expected NonFiniteResult, got {other:?}"),
        }
        assert!(err.kind.is_transient(), "retryable by classification");
        assert!(err.site.kernel.as_deref().unwrap_or("").contains("force"));
    }

    #[test]
    fn watchdogged_healthy_frame_is_bit_transparent() {
        let bodies = spawn::uniform_ball(256, 5.0, 2.0, 3);
        let fp = ForceParams::default();
        let reference = gpu().accelerations(&bodies, &fp);
        let recovery = RecoveryPolicy {
            watchdog_instructions: Some(1 << 24),
            ..RecoveryPolicy::default()
        };
        let opts = FrameOpts {
            policy: FaultPolicy::FailFast,
            recovery,
            ..FrameOpts::default()
        };
        let res = gpu().frame(&bodies, &fp, opts).unwrap();
        assert!(res.fault.is_none());
        assert_eq!(res.accels, reference);
        // A starved watchdog kills the frame as a transient timeout.
        let starved = RecoveryPolicy {
            max_retries: 0,
            watchdog_instructions: Some(1),
            ..RecoveryPolicy::default()
        };
        let opts = FrameOpts {
            policy: FaultPolicy::FailFast,
            recovery: starved,
            ..FrameOpts::default()
        };
        let err = gpu().frame(&bodies, &fp, opts).unwrap_err();
        assert!(matches!(err.kind, FaultKind::WatchdogTimeout { .. }));
    }

    #[test]
    fn healthy_run_reports_no_fault_and_budget_is_exact() {
        let bodies = spawn::uniform_ball(300, 5.0, 2.0, 11);
        let fp = ForceParams::default();
        let opts = FrameOpts {
            policy: FaultPolicy::FailFast,
            ..FrameOpts::default()
        };
        let res = gpu().frame(&bodies, &fp, opts).unwrap();
        assert!(res.fault.is_none());
        // The budget helper is exact: a device with one byte less OOMs.
        let budget = frame_memory_budget(OptLevel::Full, 300);
        let err = {
            let cfg = OptLevel::Full.config();
            let particles: Vec<Particle> = (0..300)
                .map(|i| Particle {
                    pos: bodies.pos[i],
                    vel: bodies.vel[i],
                    mass: bodies.mass[i],
                })
                .collect();
            let mut gmem = GlobalMemory::new(budget - 1);
            DeviceImage::upload(&mut gmem, cfg.layout, &particles, cfg.block)
                .and_then(|img| alloc_accel_out(&mut gmem, img.padded_n))
                .unwrap_err()
        };
        assert!(matches!(err.kind, FaultKind::OutOfMemory { .. }));
    }
}
