//! Memory-pressure planning and chunked streaming execution.
//!
//! The paper fits Gravit's large data-structures into the 8800 GTX's global
//! memory; this module handles the case the paper's subject matter guarantees
//! at scale — the working set that *doesn't* fit. Before any upload, a frame
//! is planned against the configured device capacity
//! ([`RecoveryPolicy::device_capacity`](crate::recovery::RecoveryPolicy)):
//!
//! * **full** — the whole working set is resident (the normal path);
//! * **chunked** — the O(n²) frame is tiled over body chunks: the targets
//!   and the sources stream through a bounded device footprint, the
//!   acceleration accumulator is carried on device between launches, and the
//!   result is **bit-identical** to the unconstrained run (see
//!   [`gpu_kernels::chunk`] for why);
//! * **cpu** — even the smallest chunk does not fit; the CPU takes the
//!   frame (bit-identical physics, as everywhere in this workspace).
//!
//! The descent full → chunked (halving down to one block) → CPU is the
//! *degradation ladder*; every downgrade is recorded as a [`DegradeEvent`]
//! and surfaces in the frame's [`FaultReport`](crate::backend::FaultReport).
//! Planning is an admission check: the typed `OutOfMemory` produced by the
//! rejected reservation becomes the report's root cause, and no partial
//! upload ever happens. The same downgrade rule doubles as a reactive safety
//! net should a launch OOM anyway.

use crate::backend::{
    check_finite, device_particles, frame_memory_budget, program, FrameKernel, FrameOpts,
};
use gpu_kernels::chunk::chunk_force_params;
use gpu_kernels::force::OptLevel;
use gpu_sim::fault::{DeviceError, DeviceResult, FaultKind};
use gpu_sim::mem::{GlobalMemory, MemoryBudget};
use nbody::model::{Bodies, ForceParams};
use particle_layouts::device::{alloc_accel_out, download_accels};
use particle_layouts::{padded_count, DeviceImage};
use serde::{Deserialize, Serialize};
use simcore::Vec3;

/// How a GPU frame executes under the device-memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// The whole working set is device-resident.
    Full,
    /// Streamed `chunk` bodies at a time (a multiple of the block size).
    Chunked {
        /// Bodies per chunk.
        chunk: u32,
    },
    /// The frame runs on the parallel CPU backend.
    Cpu,
}

impl ExecMode {
    /// Ladder-rung label (`full`, `chunked(c=512)`, `cpu-parallel`).
    pub fn label(&self) -> String {
        match self {
            ExecMode::Full => "full".into(),
            ExecMode::Chunked { chunk } => format!("chunked(c={chunk})"),
            ExecMode::Cpu => "cpu-parallel".into(),
        }
    }
}

/// One rung-to-rung downgrade of the degradation ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradeEvent {
    /// The rung that was rejected (or faulted).
    pub from: String,
    /// The rung execution moved to.
    pub to: String,
    /// Why — the admission check's typed OOM, or the runtime fault.
    pub reason: String,
}

/// The per-frame memory plan: what one GPU force frame needs, what the
/// device offers, and the execution mode that follows.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    /// Optimization level planned for.
    pub level: OptLevel,
    /// Real body count.
    pub n: u32,
    /// Device capacity the plan was admitted against (`None` = unlimited).
    pub capacity: Option<u64>,
    /// Exact full-resident footprint (allocator alignment and redzones
    /// included) — [`frame_memory_budget`].
    pub full_budget: u64,
    /// Per-buffer breakdown of the full-resident frame: `(name, bytes)`,
    /// raw sizes before alignment/redzone overhead.
    pub buffers: Vec<(String, u64)>,
    /// The admitted execution mode.
    pub mode: ExecMode,
    /// Downgrades taken during planning (empty when `mode` is `Full`).
    pub ladder: Vec<DegradeEvent>,
    /// The admission failure that forced the first downgrade, if any — the
    /// root cause a degraded frame's fault report leads with.
    pub root: Option<DeviceError>,
}

impl MemoryPlan {
    /// Device bytes the admitted mode actually touches at once.
    pub fn resident_footprint(&self) -> u64 {
        match self.mode {
            ExecMode::Full => self.full_budget,
            ExecMode::Chunked { chunk } => chunked_memory_budget(self.level, chunk),
            ExecMode::Cpu => 0,
        }
    }

    /// Human-readable multi-line plan (the `--dry-run` output).
    pub fn render(&self) -> String {
        let mut s = format!("memory plan: n={} level={}\n", self.n, self.level.label());
        let cap = match self.capacity {
            Some(c) => format!("{c} B"),
            None => "unlimited".into(),
        };
        s.push_str(&format!(
            "  frame budget: {} B resident (device capacity {cap})\n",
            self.full_budget
        ));
        for (name, bytes) in &self.buffers {
            s.push_str(&format!("    {name}: {bytes} B\n"));
        }
        s.push_str("    (+ per-buffer alignment and redzone overhead)\n");
        match self.mode {
            ExecMode::Full => s.push_str("  mode: full (whole working set resident)\n"),
            ExecMode::Chunked { chunk } => s.push_str(&format!(
                "  mode: chunked, {chunk} bodies per chunk ({} B device footprint)\n",
                self.resident_footprint()
            )),
            ExecMode::Cpu => {
                s.push_str("  mode: cpu-parallel (no chunk fits the device)\n");
            }
        }
        for e in &self.ladder {
            s.push_str(&format!("  degrade {} -> {}: {}\n", e.from, e.to, e.reason));
        }
        s
    }
}

/// Exact device footprint of chunked execution at `chunk` bodies per chunk:
/// the resident target chunk, its `float4` accumulator, and one source chunk
/// (source chunks are freed LIFO between launches, so one slot suffices).
pub fn chunked_memory_budget(level: OptLevel, chunk: u32) -> u64 {
    let cfg = level.config();
    let mut sizes = DeviceImage::alloc_sizes(cfg.layout, chunk, cfg.block);
    sizes.push(padded_count(chunk, cfg.block) * 16);
    sizes.extend(DeviceImage::alloc_sizes(cfg.layout, chunk, cfg.block));
    GlobalMemory::footprint(&sizes)
}

/// The smallest chunk the ladder will try: one block of bodies.
pub fn chunk_floor(level: OptLevel) -> u32 {
    level.config().block
}

/// Halve a chunk size, keeping it a block multiple; `None` below the floor.
/// `chunk` may be a padded count past `u32::MAX`; half of it fits again.
fn halve_chunk(level: OptLevel, chunk: u64) -> Option<u32> {
    let block = chunk_floor(level);
    if chunk <= u64::from(block) {
        return None;
    }
    u32::try_from(padded_count(u32::try_from(chunk / 2).ok()?, block)).ok()
}

/// The next rung down from `mode` (the ladder's single source of truth,
/// used both by planning and by the reactive safety net).
pub fn downgrade(level: OptLevel, n: u32, mode: ExecMode) -> Option<ExecMode> {
    let block = chunk_floor(level);
    match mode {
        ExecMode::Full => {
            // Chunking at the full padded count costs *more* than full
            // residency (duplicate source buffers), so the first chunked
            // rung is already a halving.
            match halve_chunk(level, padded_count(n, block)) {
                Some(c) => Some(ExecMode::Chunked { chunk: c }),
                None => Some(ExecMode::Cpu),
            }
        }
        ExecMode::Chunked { chunk } => match halve_chunk(level, u64::from(chunk)) {
            Some(c) => Some(ExecMode::Chunked { chunk: c }),
            None => Some(ExecMode::Cpu),
        },
        ExecMode::Cpu => None,
    }
}

/// Plan one GPU force frame against a device capacity. The plan is a chain
/// of admission checks — no device memory is touched, and the typed OOM of
/// each rejected rung is recorded on the ladder.
pub fn plan_frame(level: OptLevel, n: u32, capacity: Option<u64>) -> MemoryPlan {
    let cfg = level.config();
    let full_budget = frame_memory_budget(level, n);
    let mut buffers: Vec<(String, u64)> = cfg
        .layout
        .buffers()
        .iter()
        .zip(DeviceImage::alloc_sizes(cfg.layout, n, cfg.block))
        .map(|(buffer, bytes)| (buffer.name().to_string(), bytes))
        .collect();
    if n > 0 {
        buffers.push(("AccelOut4".into(), padded_count(n, cfg.block) * 16));
    }
    let mut plan = MemoryPlan {
        level,
        n,
        capacity,
        full_budget,
        buffers,
        mode: ExecMode::Full,
        ladder: Vec::new(),
        root: None,
    };
    let Some(cap) = capacity else {
        return plan;
    };
    if n == 0 {
        return plan; // an empty frame allocates nothing
    }
    // Admission check per rung, descending the ladder until one fits.
    let mut budget = MemoryBudget::new(cap);
    let mut mode = ExecMode::Full;
    loop {
        let need = match mode {
            ExecMode::Full => full_budget,
            ExecMode::Chunked { chunk } => chunked_memory_budget(level, chunk),
            ExecMode::Cpu => 0,
        };
        match budget.reserve(need) {
            Ok(()) => {
                budget.release(need);
                plan.mode = mode;
                return plan;
            }
            Err(error) => {
                let next = downgrade(level, n, mode)
                    .expect("the CPU rung reserves zero bytes and always admits");
                plan.ladder.push(DegradeEvent {
                    from: mode.label(),
                    to: next.label(),
                    reason: error.to_string(),
                });
                plan.root.get_or_insert(error);
                mode = next;
            }
        }
    }
}

/// Execute one force frame by chunked streaming: for each target chunk,
/// upload it with a zeroed accumulator, then stream every source chunk
/// through the device in ascending body order — the accumulator carried on
/// device replays the unconstrained kernel's exact addition sequence, so the
/// result is bit-identical to [`Full`](ExecMode::Full) execution.
///
/// The device holds `opts.recovery.device_capacity` bytes (the chunk's exact
/// footprint when `None`), and every launch goes through
/// [`FrameOpts`]' fault hooks and watchdog, exactly as in full execution;
/// the whole frame is the retry unit. A `chunk` that is not a positive
/// multiple of the block size is a typed [`FaultKind::BadLaunch`].
pub fn gpu_frame_chunked(
    bodies: &Bodies,
    fp: &ForceParams,
    level: OptLevel,
    chunk: u32,
    opts: &mut FrameOpts,
) -> DeviceResult<Vec<Vec3>> {
    let cfg = level.config();
    if chunk < cfg.block || !chunk.is_multiple_of(cfg.block) {
        return Err(DeviceError::new(FaultKind::BadLaunch {
            reason: format!(
                "chunk of {chunk} bodies is not a positive multiple of the block size {}",
                cfg.block
            ),
        }));
    }
    if bodies.is_empty() {
        return Ok(Vec::new());
    }
    let prog = program(level, FrameKernel::ChunkForce);
    let particles = device_particles(bodies, fp);
    let footprint = chunked_memory_budget(level, chunk);
    let mut gmem = GlobalMemory::new(opts.recovery.device_capacity.unwrap_or(footprint));
    let mut accels = Vec::with_capacity(bodies.len());
    let mut t = 0usize;
    while t < particles.len() {
        let t_hi = (t + chunk as usize).min(particles.len());
        // Rewind the device between target chunks: the footprint never
        // exceeds one target image + accumulator + one source image.
        gmem.reset();
        let tgt = DeviceImage::upload(&mut gmem, cfg.layout, &particles[t..t_hi], cfg.block)?;
        let out = alloc_accel_out(&mut gmem, tgt.padded_n)?;
        let grid = tgt.padded_n / cfg.block;
        let mut s = 0usize;
        while s < particles.len() {
            let s_hi = (s + chunk as usize).min(particles.len());
            let src = DeviceImage::upload(&mut gmem, cfg.layout, &particles[s..s_hi], cfg.block)?;
            let params = chunk_force_params(&tgt, &src, out, fp.softening);
            opts.launch(prog, grid, cfg.block, &params, &mut gmem)?;
            src.free(&mut gmem)?;
            s = s_hi;
        }
        accels.extend(download_accels(&gmem, out, tgt.n)?);
        t = t_hi;
    }
    debug_assert!(
        gmem.high_water() <= footprint,
        "chunked execution exceeded its planned footprint: {} > {footprint}",
        gmem.high_water()
    );
    check_finite(&accels, &prog.name)?;
    Ok(accels)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEVEL: OptLevel = OptLevel::Full; // block 128, SoAoaS

    #[test]
    fn unconstrained_plans_are_full_with_exact_budget() {
        let plan = plan_frame(LEVEL, 960, None);
        assert_eq!(plan.mode, ExecMode::Full);
        assert!(plan.ladder.is_empty());
        assert!(plan.root.is_none());
        assert_eq!(plan.full_budget, frame_memory_budget(LEVEL, 960));
        assert!(plan.render().contains("mode: full"));
    }

    #[test]
    fn ample_capacity_admits_full_execution() {
        let budget = frame_memory_budget(LEVEL, 960);
        let plan = plan_frame(LEVEL, 960, Some(budget));
        assert_eq!(
            plan.mode,
            ExecMode::Full,
            "exactly-fitting budget must admit"
        );
        assert!(plan.ladder.is_empty());
    }

    #[test]
    fn constricted_capacity_degrades_to_chunked_with_recorded_ladder() {
        let budget = frame_memory_budget(LEVEL, 960);
        let plan = plan_frame(LEVEL, 960, Some(budget / 4));
        let ExecMode::Chunked { chunk } = plan.mode else {
            panic!("expected chunked, got {:?}", plan.mode);
        };
        assert!(chunk >= chunk_floor(LEVEL) && chunk.is_multiple_of(chunk_floor(LEVEL)));
        assert!(
            chunked_memory_budget(LEVEL, chunk) <= budget / 4,
            "admitted rung must fit"
        );
        assert!(!plan.ladder.is_empty());
        assert_eq!(plan.ladder[0].from, "full");
        assert!(
            plan.ladder[0].reason.contains("out of memory"),
            "{}",
            plan.ladder[0].reason
        );
        let root = plan
            .root
            .as_ref()
            .expect("the admission OOM is the root cause");
        assert!(matches!(root.kind, FaultKind::OutOfMemory { .. }));
        let text = plan.render();
        assert!(text.contains("mode: chunked"), "{text}");
        assert!(text.contains("degrade full ->"), "{text}");
    }

    #[test]
    fn hopeless_capacity_degrades_to_cpu_at_the_floor() {
        let plan = plan_frame(LEVEL, 960, Some(64));
        assert_eq!(plan.mode, ExecMode::Cpu);
        let last = plan.ladder.last().unwrap();
        assert_eq!(last.to, "cpu-parallel");
        // The ladder walked chunked rungs before giving up.
        assert!(plan.ladder.len() >= 2, "{:?}", plan.ladder);
        assert!(plan.render().contains("mode: cpu-parallel"));
    }

    #[test]
    fn downgrade_halves_to_the_floor_then_cpu() {
        let mut mode = ExecMode::Full;
        let mut rungs = vec![];
        while let Some(next) = downgrade(LEVEL, 960, mode) {
            rungs.push(next);
            mode = next;
        }
        assert_eq!(*rungs.last().unwrap(), ExecMode::Cpu);
        let chunks: Vec<u32> = rungs
            .iter()
            .filter_map(|m| match m {
                ExecMode::Chunked { chunk } => Some(*chunk),
                _ => None,
            })
            .collect();
        assert!(
            chunks.windows(2).all(|w| w[1] < w[0]),
            "strictly shrinking: {chunks:?}"
        );
        assert_eq!(*chunks.last().unwrap(), chunk_floor(LEVEL));
        assert!(chunks.iter().all(|c| c.is_multiple_of(chunk_floor(LEVEL))));
    }

    #[test]
    fn padding_past_u32_max_is_not_a_free_full_frame() {
        // 4_294_967_200 bodies pad to 2^32 at block 128: the budget must
        // see the whole padded count, not a wrapped zero.
        let plan = plan_frame(LEVEL, 4_294_967_200, Some(12 * 1024));
        assert!(plan.buffers.iter().all(|(_, bytes)| *bytes > 0));
        assert_eq!(
            plan.mode,
            ExecMode::Chunked {
                chunk: chunk_floor(LEVEL)
            }
        );
    }

    #[test]
    fn misaligned_chunks_are_typed_bad_launches() {
        let bodies = nbody::spawn::uniform_ball(256, 5.0, 2.0, 3);
        let fp = ForceParams::default();
        let block = chunk_floor(LEVEL);
        for chunk in [0, block - 1, block + 1] {
            let err = gpu_frame_chunked(&bodies, &fp, LEVEL, chunk, &mut FrameOpts::default())
                .unwrap_err();
            assert!(
                matches!(err.kind, FaultKind::BadLaunch { .. }),
                "chunk {chunk}: got {:?}",
                err.kind
            );
        }
    }

    #[test]
    fn empty_frames_admit_anywhere() {
        let plan = plan_frame(LEVEL, 0, Some(1));
        assert_eq!(plan.mode, ExecMode::Full);
        assert!(plan.ladder.is_empty());
    }
}
