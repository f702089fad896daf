//! # gravit-app — a Gravit-like gravity simulator
//!
//! The application layer of the reproduction: the paper accelerates Gravit, a
//! Newtonian gravity simulator, so the repository ships one. It wires the
//! [`nbody`] physics and the simulated-GPU backends from [`gravit_core`] into
//! a configurable simulation loop with recording and diagnostics:
//!
//! * [`config`] — simulation configuration (workload, force law, integrator,
//!   backend);
//! * [`backend`] — force-calculation backends: serial CPU (the paper's 87×
//!   baseline), multi-threaded CPU, Barnes–Hut (Gravit's tree code), and the
//!   simulated-GPU kernel at any optimization level;
//! * [`model`] — the device frame-time model (Fig. 12's quantity);
//! * [`sim`] — the time-stepping loop with energy/momentum diagnostics;
//! * [`pressure`] — per-frame memory planning, chunked streaming execution
//!   and the full → chunked → CPU degradation ladder;
//! * [`recovery`] — retry/backoff policy for transient device faults;
//! * [`checkpoint`] — frame-granular, CRC-protected checkpoint/resume;
//! * [`recorder`] — JSON frame recording;
//! * [`render`] — PGM/ASCII rendering of recordings (Gravit's visual side);
//! * [`fleet`] — the supervised multi-job runtime over a pool of simulated
//!   devices: typed admission, per-device health supervision with
//!   quarantine, and checkpoint-backed preemption/migration.
//!
//! The `gravit` binary exposes `run`, `ladder`, `model` and `fleet`
//! subcommands; see `gravit help`.

#![warn(missing_docs)]

pub mod backend;
pub mod checkpoint;
pub mod config;
pub mod fleet;
pub mod model;
pub mod pressure;
pub mod recorder;
pub mod recovery;
pub mod render;
pub mod sim;

pub use backend::Backend;
pub use checkpoint::{Checkpoint, CheckpointError};
pub use config::{ConfigError, Integrator, SimConfig, SpawnKind};
pub use fleet::{CompletedJob, Fleet, FleetConfig, FleetEvent, Health, JobSpec, Rejected};
pub use pressure::{plan_frame, DegradeEvent, ExecMode, MemoryPlan};
pub use recovery::{BackoffSchedule, RecoveryPolicy, RetryEvent};
pub use sim::{SimError, Simulation};
