//! Jobs: what tenants submit, why submissions are rejected, and what a
//! finished job returns.

use crate::backend::Backend;
use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::config::{ConfigError, SimConfig};
use crate::sim::SimError;
use gpu_sim::fault::DeviceError;
use std::fmt;

/// One simulation job submitted to the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Caller-chosen stable id (also the scheduler's decision key).
    pub id: u64,
    /// Tenant the job bills its device-memory budget against.
    pub tenant: String,
    /// The simulation to run. The fleet overrides the per-device recovery
    /// knobs (capacity, watchdog) at assignment time and forces
    /// `FallbackToCpu` so no admitted job can be lost to a device fault.
    pub config: SimConfig,
    /// Total steps the job must reach.
    pub steps: u64,
}

impl JobSpec {
    /// Device bytes one frame of this job holds resident at full residency —
    /// the quantity admission bills against the tenant budget. CPU-only
    /// backends hold no device memory.
    pub fn device_cost(&self) -> u64 {
        match self.config.backend {
            Backend::GpuSim { level, .. } => {
                crate::backend::frame_memory_budget(level, self.config.n as u32)
            }
            _ => 0,
        }
    }
}

/// Typed admission rejection: every refused submission says exactly why,
/// before any device memory is touched.
#[derive(Debug, Clone, PartialEq)]
pub enum Rejected {
    /// Every admitting device's queue is at capacity.
    QueueFull {
        /// The per-device queue bound that was hit.
        capacity: usize,
    },
    /// The tenant's device-memory budget cannot cover the job.
    TenantBudget {
        /// The tenant that is over budget.
        tenant: String,
        /// The typed out-of-memory produced by the rejected reservation.
        error: DeviceError,
    },
    /// The job's simulation config failed validation.
    InvalidConfig(ConfigError),
    /// No device in the pool is currently admitting (all quarantined).
    NoAdmittingDevice,
}

impl Rejected {
    /// Short machine-stable label (event logs, metrics).
    pub fn label(&self) -> &'static str {
        match self {
            Rejected::QueueFull { .. } => "queue-full",
            Rejected::TenantBudget { .. } => "tenant-budget",
            Rejected::InvalidConfig(_) => "invalid-config",
            Rejected::NoAdmittingDevice => "no-admitting-device",
        }
    }
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(
                    f,
                    "rejected: every admitting queue is full (bound {capacity})"
                )
            }
            Rejected::TenantBudget { tenant, error } => {
                write!(f, "rejected: tenant {tenant} over budget: {error}")
            }
            Rejected::InvalidConfig(e) => write!(f, "rejected: invalid config: {e}"),
            Rejected::NoAdmittingDevice => {
                write!(f, "rejected: no admitting device (pool quarantined)")
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// A finished job: its final state plus where it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob {
    /// The job id.
    pub id: u64,
    /// The billing tenant.
    pub tenant: String,
    /// Complete final state (positions, velocities, clock, fault log) —
    /// bitwise comparable against a single-device fault-free reference.
    pub final_state: Checkpoint,
    /// Every device that hosted a slice, in order (repeats elided).
    pub devices: Vec<usize>,
    /// Checkpoint-backed migrations the job survived.
    pub migrations: u32,
    /// Tick the job completed at.
    pub completed_tick: u64,
}

/// Why an admitted job could not (re)start on a device. The job ends with
/// this typed cause; the other jobs and the pool go on.
#[derive(Debug)]
pub enum JobFailure {
    /// The frozen checkpoint failed its CRC framing or did not parse.
    CorruptCheckpoint(CheckpointError),
    /// The simulation refused to resume from the decoded checkpoint.
    Resume(SimError),
    /// The simulation could not be constructed from the job's config.
    Start(SimError),
}

impl JobFailure {
    /// Short machine-stable label (event logs, metrics).
    pub fn label(&self) -> &'static str {
        match self {
            JobFailure::CorruptCheckpoint(_) => "corrupt-checkpoint",
            JobFailure::Resume(_) => "resume-refused",
            JobFailure::Start(_) => "start-refused",
        }
    }
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobFailure::CorruptCheckpoint(e) => write!(f, "frozen checkpoint unreadable: {e}"),
            JobFailure::Resume(e) => write!(f, "resume refused: {e}"),
            JobFailure::Start(e) => write!(f, "start refused: {e}"),
        }
    }
}

impl std::error::Error for JobFailure {}

/// An admitted job that ended with a typed failure instead of completing.
#[derive(Debug)]
pub struct FailedJob {
    /// The job id.
    pub id: u64,
    /// Device the job failed to (re)start on.
    pub device: usize,
    /// Tick the job failed at.
    pub failed_tick: u64,
    /// Why it failed.
    pub failure: JobFailure,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_kernels::force::OptLevel;
    use gpu_sim::DriverModel;

    #[test]
    fn gpu_jobs_bill_their_frame_budget_cpu_jobs_are_free() {
        let gpu = JobSpec {
            id: 1,
            tenant: "a".into(),
            config: SimConfig {
                n: 256,
                backend: Backend::GpuSim {
                    level: OptLevel::Full,
                    driver: DriverModel::Cuda10,
                },
                ..SimConfig::default()
            },
            steps: 4,
        };
        assert_eq!(
            gpu.device_cost(),
            crate::backend::frame_memory_budget(OptLevel::Full, 256)
        );
        let cpu = JobSpec {
            config: SimConfig {
                backend: Backend::CpuParallel,
                ..gpu.config.clone()
            },
            ..gpu
        };
        assert_eq!(cpu.device_cost(), 0);
    }

    #[test]
    fn rejections_render_their_reason() {
        let r = Rejected::QueueFull { capacity: 4 };
        assert_eq!(r.label(), "queue-full");
        assert!(r.to_string().contains("bound 4"));
        let r = Rejected::InvalidConfig(ConfigError::BadTimeStep { dt: 0.0 });
        assert!(r.to_string().contains("time step"));
        assert_eq!(Rejected::NoAdmittingDevice.label(), "no-admitting-device");
    }
}
