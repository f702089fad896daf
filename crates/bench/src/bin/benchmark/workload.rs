//! What every workload takes and returns.

use crate::clock::Clock;
use crate::trace::Tracer;
use std::time::Instant;

/// The seed the committed checksums in [`crate::expected`] were recorded
/// with.
pub const DEFAULT_SEED: u64 = 42;

/// Input sizes: the benchmark's own, or the small ones the tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` and the README describe.
    Full,
    /// Tiny inputs for the test suite; only the oracle checks apply.
    Smoke,
}

/// One workload run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement window; a workload also completes its minimum number of
    /// operations, so the window can run over.
    pub seconds: f64,
    /// Record per-layer spans instead of timing the untraced program.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

impl Run {
    /// Whether the committed checksum of a seed-dependent output applies.
    pub fn checks_seeded_digest(&self) -> bool {
        self.scale == Scale::Full && self.seed == DEFAULT_SEED
    }

    /// Whether another operation should start: while fewer than `min_ops`
    /// have run, or while one more as long as the last (`op_wall_ms`) still
    /// ends inside the window.
    pub fn keep_going(&self, start: Instant, op_wall_ms: &[f64], min_ops: usize) -> bool {
        let next_s = op_wall_ms.last().map_or(0.0, |ms| ms / 1e3);
        op_wall_ms.len() < min_ops || start.elapsed().as_secs_f64() + next_s < self.seconds
    }
}

/// What one workload run measured and checked.
pub struct Outcome {
    /// Normalised CPU seconds of one set-up, per sample.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each completed operation (for a fleet job, from
    /// its first submission attempt to the end of the tick that completes
    /// it).
    pub op_wall_ms: Vec<f64>,
    /// CPU milliseconds from the first operation's start to the last one's
    /// end, on the run's [`Clock`].
    pub window_cpu_ms: f64,
    /// Normalisation factor of `window_cpu_ms`.
    pub op_scale: f64,
    /// Wall seconds from the first operation's start to the last one's end.
    pub window_s: f64,
    /// Peak resident set of the process at the end of the window, in KiB.
    pub peak_rss_kib: u64,
    /// Operations attempted (frames, jobs, synthesis targets, model points).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// FNV-1a digest of the workload's fixed-size checked output.
    pub digest: Option<u64>,
    /// Executor threads the simulated GPU used.
    pub executor_threads: usize,
    /// Threads running fleet slices concurrently (1 outside the fleet).
    pub slice_workers: usize,
    /// Per-layer counts and ratios, by `per_layer` metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Spans of the traced run.
    pub tracer: Tracer,
}

impl Outcome {
    /// An empty outcome of a workload running `executor_threads` block
    /// execution threads and `slice_workers` fleet slice workers.
    pub fn new(executor_threads: usize, slice_workers: usize) -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            op_wall_ms: Vec::new(),
            window_cpu_ms: 0.0,
            op_scale: 1.0,
            window_s: 0.0,
            peak_rss_kib: 0,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            digest: None,
            executor_threads,
            slice_workers,
            counts: Vec::new(),
            tracer: Tracer::default(),
        }
    }

    /// Record a failed operation or check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// Record a failure unless digest `got` is the committed `want`.
    pub fn check_digest(&mut self, got: u64, want: u64, what: &str) {
        if got != want {
            self.fail(format!(
                "{what}: checksum {got:016x} differs from the committed {want:016x}"
            ));
        }
    }

    /// Set a per-layer count or ratio.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push((name, value));
    }
}

/// Shortest set-up sample: a cheap set-up is repeated until one sample
/// takes this much CPU time, so it holds several reference samples.
const MIN_SETUP_SAMPLE_S: f64 = 0.05;
/// Fewest set-up samples: `frame_n4096`'s set-up takes ~0.5 s, so its
/// median is over this many.
const MIN_SETUP_SAMPLES: usize = 5;
/// Shortest span the set-up samples cover, so a cheap set-up's median is
/// taken over tens of samples.
const MIN_SETUP_SPAN_S: f64 = 1.0;

/// Time `build` — the workload's input generation and object construction
/// — in samples of normalised CPU seconds per build, at least
/// [`MIN_SETUP_SAMPLES`] of them spread over at least [`MIN_SETUP_SPAN_S`],
/// into `out.setup_s`. Each sample is normalised by its own reference
/// samples. A smoke-scale run takes one sample. Returns the last build.
pub fn time_setup<T>(r: &Run, out: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let (min_samples, min_span_s) = match r.scale {
        Scale::Full => (MIN_SETUP_SAMPLES, MIN_SETUP_SPAN_S),
        Scale::Smoke => (1, 0.0),
    };
    let mut last = None;
    let span = Instant::now();
    while out.setup_s.len() < min_samples || span.elapsed().as_secs_f64() < min_span_s {
        let clock = Clock::new();
        let start = clock.now_ms();
        let mut builds = 0u32;
        let elapsed_ms = loop {
            last = Some(std::hint::black_box(build()));
            builds += 1;
            let elapsed_ms = clock.now_ms() - start;
            if elapsed_ms >= MIN_SETUP_SAMPLE_S * 1e3 {
                break elapsed_ms;
            }
        };
        out.setup_s
            .push(elapsed_ms / 1e3 / f64::from(builds) * clock.scale());
    }
    last.expect("at least one set-up sample")
}

/// The measured window of a run: CPU and wall time from the first
/// operation's start to the last one's end.
pub struct Window {
    clock: Clock,
    start: Instant,
    cpu_start_ms: f64,
}

impl Window {
    /// Open the window just before the first operation.
    pub fn open() -> Window {
        let clock = Clock::new();
        Window {
            cpu_start_ms: clock.now_ms(),
            clock,
            start: Instant::now(),
        }
    }

    /// When the window opened.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// Close the window after the last operation and record it in `out`.
    pub fn close(self, out: &mut Outcome) {
        out.window_s = self.start.elapsed().as_secs_f64();
        out.window_cpu_ms = self.clock.now_ms() - self.cpu_start_ms;
        out.op_scale = self.clock.scale();
    }
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
