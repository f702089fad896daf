//! The simulation loop.

use crate::backend::{FaultReport, FrameOpts};
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::config::{ConfigError, Integrator, SimConfig};
use gpu_sim::fault::{DeviceError, DeviceResult};
use gpu_sim::transient::TransientFaultPlan;
use nbody::energy::{momentum, total_energy};
use nbody::integrator::{step_euler, step_leapfrog};
use nbody::model::Bodies;
use simcore::Vec3;
use std::fmt;

/// Why a simulation could not be constructed (or resumed).
#[derive(Debug)]
pub enum SimError {
    /// The configuration was rejected — a usage error (CLI exit code 2).
    Config(ConfigError),
    /// The device faulted and the policy said fail fast (CLI exit code 3).
    Device(DeviceError),
    /// The checkpoint could not be loaded or does not match the config.
    Checkpoint(CheckpointError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::Device(e) => write!(f, "{e}"),
            SimError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<DeviceError> for SimError {
    fn from(e: DeviceError) -> Self {
        SimError::Device(e)
    }
}

impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        SimError::Checkpoint(e)
    }
}

/// A running simulation.
///
/// Device faults surface according to the configured
/// [`FaultPolicy`](crate::backend::FaultPolicy): with `FailFast`,
/// [`step`](Simulation::step) returns the typed [`DeviceError`]; with
/// `FallbackToCpu`, the step completes on the CPU (bit-identical physics) and
/// the fault is appended to [`fault_reports`](Simulation::fault_reports).
#[derive(Debug)]
pub struct Simulation {
    /// Configuration (immutable after construction).
    pub config: SimConfig,
    /// Current body state.
    pub bodies: Bodies,
    /// Current accelerations (of the last computed step).
    pub accels: Vec<Vec3>,
    /// Simulated time.
    pub time: f64,
    /// Steps taken.
    pub steps: u64,
    /// Device faults survived via CPU fallback or retry, in occurrence order.
    pub fault_reports: Vec<FaultReport>,
    energy0: f64,
    /// Transient-fault injection plan (chaos testing); `None` in production.
    fault_plan: Option<TransientFaultPlan>,
}

impl Simulation {
    /// Initialize from a configuration: spawn the workload and compute the
    /// initial accelerations. A rejected configuration is a typed
    /// [`SimError::Config`], never a panic.
    pub fn new(config: SimConfig) -> Result<Simulation, SimError> {
        config.validate()?;
        let bodies = config.spawn.generate(config.n, config.force.g, config.seed);
        let mut fault_reports = Vec::new();
        let accels = compute_accels(&config, &bodies, &mut fault_reports, None)?;
        let energy0 = total_energy(&bodies, &config.force);
        Ok(Simulation {
            config,
            bodies,
            accels,
            time: 0.0,
            steps: 0,
            fault_reports,
            energy0,
            fault_plan: None,
        })
    }

    /// Rebuild a simulation mid-run from a [`Checkpoint`]: the resumed run
    /// continues bit-identical to the uninterrupted one. The configuration
    /// must describe the same run (same n, seed, dt, integrator, backend) or
    /// a [`SimError::Checkpoint`] config-mismatch is returned.
    ///
    /// The resuming device's capacity is validated against the frame plan
    /// (see [`crate::pressure::plan_frame`]) *before* any upload: a smaller
    /// device than the one that wrote the checkpoint degrades down the
    /// ladder (full → chunked → CPU, bit-identical physics) exactly like a
    /// fresh run would. Under [`FaultPolicy::FailFast`](crate::backend::FaultPolicy)
    /// a capacity that cannot admit even the smallest chunk is the typed
    /// admission `OutOfMemory` here at resume time — not a raw device fault
    /// in the middle of the first restored frame.
    pub fn resume(config: SimConfig, ckpt: &Checkpoint) -> Result<Simulation, SimError> {
        config.validate()?;
        ckpt.compatible_with(&config)?;
        if let crate::backend::Backend::GpuSim { level, .. } = config.backend {
            let plan = crate::pressure::plan_frame(
                level,
                config.n as u32,
                config.recovery.device_capacity,
            );
            if plan.mode == crate::pressure::ExecMode::Cpu
                && config.fault_policy == crate::backend::FaultPolicy::FailFast
            {
                if let Some(root) = plan.root {
                    return Err(SimError::Device(root));
                }
            }
        }
        let mut bodies = Bodies::with_capacity(ckpt.n);
        for i in 0..ckpt.n {
            let p = ckpt.pos[i];
            let v = ckpt.vel[i];
            bodies.push(
                Vec3 {
                    x: p[0],
                    y: p[1],
                    z: p[2],
                },
                Vec3 {
                    x: v[0],
                    y: v[1],
                    z: v[2],
                },
                ckpt.mass[i],
            );
        }
        let accels = ckpt
            .accels
            .iter()
            .map(|a| Vec3 {
                x: a[0],
                y: a[1],
                z: a[2],
            })
            .collect();
        Ok(Simulation {
            config,
            bodies,
            accels,
            time: f64::from_bits(ckpt.time_bits),
            steps: ckpt.steps,
            fault_reports: ckpt.fault_reports.clone(),
            energy0: f64::from_bits(ckpt.energy0_bits),
            fault_plan: None,
        })
    }

    /// Capture the complete resumable state at the current step boundary.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            n: self.config.n,
            seed: self.config.seed,
            dt_bits: self.config.dt.to_bits(),
            integrator: format!("{:?}", self.config.integrator),
            backend: self.config.backend.label(),
            time_bits: self.time.to_bits(),
            steps: self.steps,
            pos: self.bodies.pos.iter().map(|p| p.to_array()).collect(),
            vel: self.bodies.vel.iter().map(|v| v.to_array()).collect(),
            mass: self.bodies.mass.clone(),
            accels: self.accels.iter().map(|a| a.to_array()).collect(),
            energy0_bits: self.energy0.to_bits(),
            fault_reports: self.fault_reports.clone(),
        }
    }

    /// Inject transient device faults from `plan` into every subsequent GPU
    /// frame (chaos testing; see `gpu_sim::transient`).
    pub fn set_transient_faults(&mut self, plan: TransientFaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// The active transient-fault plan, if any (its launch counter tells how
    /// many device launches the simulation has attempted).
    pub fn transient_faults(&self) -> Option<&TransientFaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Take the transient-fault plan out of the simulation, launch counter
    /// included. The fleet harvests a device's plan here at slice
    /// boundaries so its fault schedule stays continuous across the jobs it
    /// hosts.
    pub fn take_transient_faults(&mut self) -> Option<TransientFaultPlan> {
        self.fault_plan.take()
    }

    /// Advance one time step.
    pub fn step(&mut self) -> DeviceResult<()> {
        let dt = self.config.dt;
        match self.config.integrator {
            Integrator::Euler => {
                step_euler(&mut self.bodies, &self.accels, dt, None);
                self.accels = compute_accels(
                    &self.config,
                    &self.bodies,
                    &mut self.fault_reports,
                    self.fault_plan.as_mut(),
                )?;
            }
            Integrator::Leapfrog => {
                // `step_leapfrog` takes an infallible closure; a fail-fast
                // fault is parked here and returned after the call. (The
                // zero-filled stand-in accelerations are never observed: the
                // error abandons the simulation state.)
                let mut pending: Option<DeviceError> = None;
                self.accels = step_leapfrog(&mut self.bodies, &self.accels, dt, None, |b| {
                    compute_accels(
                        &self.config,
                        b,
                        &mut self.fault_reports,
                        self.fault_plan.as_mut(),
                    )
                    .unwrap_or_else(|e| {
                        pending = Some(e);
                        vec![Vec3::ZERO; b.len()]
                    })
                });
                if let Some(e) = pending {
                    return Err(e);
                }
            }
        }
        self.time += dt as f64;
        self.steps += 1;
        Ok(())
    }

    /// Advance `n` steps.
    pub fn run(&mut self, n: u64) -> DeviceResult<()> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Relative energy drift since t = 0 (diagnostic; small for leapfrog).
    pub fn energy_drift(&self) -> f64 {
        let e = total_energy(&self.bodies, &self.config.force);
        if self.energy0 == 0.0 {
            0.0
        } else {
            ((e - self.energy0) / self.energy0).abs()
        }
    }

    /// Current total linear momentum magnitude (diagnostic; conserved by the
    /// pairwise force).
    pub fn momentum_magnitude(&self) -> f64 {
        let m = momentum(&self.bodies);
        (m[0] * m[0] + m[1] * m[1] + m[2] * m[2]).sqrt()
    }
}

/// One force evaluation under the configured fault and recovery policies,
/// appending any survived fault (with its retry history) to `reports`.
fn compute_accels(
    config: &SimConfig,
    bodies: &Bodies,
    reports: &mut Vec<FaultReport>,
    chaos: Option<&mut TransientFaultPlan>,
) -> DeviceResult<Vec<Vec3>> {
    let opts = FrameOpts {
        policy: config.fault_policy,
        recovery: config.recovery,
        chaos,
        inject: None,
    };
    let r = config.backend.frame(bodies, &config.force, opts)?;
    reports.extend(r.fault);
    Ok(r.accels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::config::SpawnKind;
    use gpu_kernels::force::OptLevel;
    use gpu_sim::DriverModel;

    fn small_config(backend: Backend) -> SimConfig {
        SimConfig {
            n: 256,
            spawn: SpawnKind::UniformBall { radius: 3.0 },
            seed: 9,
            dt: 0.005,
            backend,
            ..SimConfig::default()
        }
    }

    #[test]
    fn simulation_advances_time_and_steps() {
        let mut sim = Simulation::new(small_config(Backend::CpuParallel)).unwrap();
        sim.run(10).unwrap();
        assert_eq!(sim.steps, 10);
        assert!((sim.time - 0.05).abs() < 1e-6); // dt is f32; time accumulates its rounding
        sim.bodies.validate();
        assert!(sim.fault_reports.is_empty());
    }

    #[test]
    fn leapfrog_keeps_energy_drift_small() {
        let mut sim = Simulation::new(small_config(Backend::CpuParallel)).unwrap();
        sim.run(100).unwrap();
        assert!(sim.energy_drift() < 0.05, "drift {}", sim.energy_drift());
    }

    #[test]
    fn momentum_stays_conserved() {
        let mut sim = Simulation::new(small_config(Backend::CpuSerial)).unwrap();
        let m0 = sim.momentum_magnitude();
        sim.run(50).unwrap();
        let m1 = sim.momentum_magnitude();
        // Started at rest: momentum ~0 and stays ~0 relative to |p|·|v| scale.
        let scale: f64 = (0..sim.bodies.len())
            .map(|i| (sim.bodies.mass[i] * sim.bodies.vel[i].norm()) as f64)
            .sum();
        assert!(m0 <= 1e-6);
        assert!(
            m1 < 1e-3 * scale.max(1e-9),
            "momentum {m1} vs scale {scale}"
        );
    }

    #[test]
    fn gpu_backend_trajectory_matches_cpu_exactly() {
        let mut cpu = Simulation::new(small_config(Backend::CpuSerial)).unwrap();
        let mut gpu = Simulation::new(small_config(Backend::GpuSim {
            level: OptLevel::Full,
            driver: DriverModel::Cuda10,
        }))
        .unwrap();
        cpu.run(5).unwrap();
        gpu.run(5).unwrap();
        assert_eq!(cpu.bodies, gpu.bodies, "trajectories must be bit-identical");
    }

    #[test]
    fn empty_simulation_runs_without_crashing() {
        let cfg = SimConfig {
            n: 0,
            ..small_config(Backend::CpuParallel)
        };
        let mut sim = Simulation::new(cfg).unwrap();
        sim.run(3).unwrap();
        assert_eq!(sim.steps, 3);
        assert_eq!(sim.bodies.len(), 0);
        assert_eq!(sim.energy_drift(), 0.0);
    }
}
