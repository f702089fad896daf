//! Host-normalised CPU time.
//!
//! On a shared virtual machine wall time measures the neighbours as much as
//! the program. On a 2-vCPU host two effects each moved identical runs by
//! far more than any bound that would catch a 10% regression:
//!
//! - steal: the hypervisor took 1–40% of the vCPUs' time, changing from
//!   run to run;
//! - speed phases: for tens of milliseconds to minutes, the same
//!   instructions ran up to ~1.7× slower (with little steal), every kind of
//!   work at once.
//!
//! So a [`Clock`] reads the process's CPU time, which the kernel keeps
//! without steal, and a sampler runs a fixed reference computation —
//! written here, independent of the simulator — for [`REF_SHARE`] of the
//! process's CPU time, in short samples spread evenly over it: a profiling
//! timer interrupts whichever thread is running every [`SAMPLE_EVERY`] of
//! CPU time, and the signal handler runs the reference on that thread.
//! Each sample's speed is `NOMINAL_PASS_NS / CPU ns of a reference pass`,
//! and a span's CPU time is reported multiplied by the mean speed of the
//! samples taken in it: as CPU time of a host that runs a pass in
//! [`NOMINAL_PASS_NS`]. Samples are evenly spaced in CPU time, so a stretch
//! of the run that is k× slower takes k× the CPU time, gets k× the samples,
//! each k× slower, and cancels exactly, however the phases mix within the
//! span. A slower simulator does not touch the reference and shows in full.
//! Sampling between operations instead would see a long operation through
//! a few instants; the timer sees all of it.

use std::ffi::{c_int, c_long};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering::SeqCst};
use std::sync::OnceLock;
use std::time::Duration;

/// CPU nanoseconds of one pass of the reference program on the host the
/// bounds were set on (a 2-vCPU Intel Xeon virtual machine): the unit
/// normalised times are expressed in.
pub const NOMINAL_PASS_NS: f64 = 40_000.0;

/// Share of the process's CPU time the reference runs for.
pub const REF_SHARE: f64 = 0.02;

/// Process CPU time between two reference samples.
pub const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// Instructions in the reference program.
const PROGRAM_LEN: usize = 256;
/// Registers per lane.
const REGS: usize = 16;
/// Lanes per warp.
const LANES: usize = 32;
/// Bytes of memory the reference program loads from and stores to.
const MEMORY_BYTES: usize = 64 << 10;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

#[repr(C)]
struct Itimerval {
    it_interval: Timeval,
    it_value: Timeval,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
    /// glibc's `signal` installs the handler with BSD semantics: it stays
    /// installed, and system calls it interrupts are restarted.
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
}

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
/// Linux's profiling timer, which counts the process's CPU time, and the
/// signal it raises.
const ITIMER_PROF: c_int = 2;
const SIGPROF: c_int = 27;

/// CPU time of clock `id`, in nanoseconds. Safe to call from a signal
/// handler: `clock_gettime` is async-signal-safe and nothing here
/// allocates or panics (a failed read, which Linux never gives for these
/// clocks, reads as 0).
fn cpu_ns(id: c_int) -> u64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call.
    unsafe { clock_gettime(id, &mut t) };
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// CPU nanoseconds every thread of this process has used, including
/// threads that have exited.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

#[derive(Clone, Copy)]
enum Operand {
    Reg(u8),
    Imm(u32),
}

#[derive(Clone, Copy)]
enum Instr {
    Alu {
        op: u8,
        dst: u8,
        a: Operand,
        b: Operand,
    },
    Mad {
        dst: u8,
        a: Operand,
        b: Operand,
        c: Operand,
    },
    Load {
        dst: u8,
        addr: u8,
        offset: u32,
    },
    Store {
        addr: u8,
        src: u8,
        offset: u32,
    },
}

/// A pseudo-random program of integer, float, load and store instructions.
fn reference_program() -> Vec<Instr> {
    let mut x = 0x1234_5678u32;
    (0..PROGRAM_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let reg = |s: u32| ((x >> s) % REGS as u32) as u8;
            let operand = |s: u32| {
                if (x >> s) & 3 == 0 {
                    Operand::Imm(x >> 7)
                } else {
                    Operand::Reg(reg(s + 2))
                }
            };
            match x % 8 {
                0..=2 => Instr::Alu {
                    op: ((x >> 3) % 5) as u8,
                    dst: reg(8),
                    a: operand(12),
                    b: operand(18),
                },
                3 | 4 => Instr::Mad {
                    dst: reg(8),
                    a: operand(12),
                    b: operand(16),
                    c: operand(20),
                },
                5 | 6 => Instr::Load {
                    dst: reg(8),
                    addr: reg(12),
                    offset: x >> 16,
                },
                _ => Instr::Store {
                    addr: reg(8),
                    src: reg(12),
                    offset: x >> 16,
                },
            }
        })
        .collect()
}

/// Run `prog` once over a warp, lane by lane under a few active masks, the
/// way the simulator's functional interpreter executes a warp instruction.
/// It neither allocates nor panics (every index is in range by
/// construction), so the signal handler may run it.
fn interpret(prog: &[Instr], mem: &mut [u8], regs: &mut [u32; LANES * REGS]) -> u32 {
    const MASKS: [u32; 5] = [u32::MAX, u32::MAX, 0x0000_ffff, u32::MAX, 0xf0f0_f0f0];
    let value = |regs: &[u32], t: usize, o: Operand| match o {
        Operand::Reg(r) => regs[t * REGS + r as usize],
        Operand::Imm(v) => v,
    };
    let last = mem.len() - 4;
    let address = |base: u32, offset: u32| (base.wrapping_add(offset) as usize % last) & !3;
    let float = |v: u32| f32::from_bits(v & 0x3fff_ffff);
    for (k, &instr) in prog.iter().enumerate() {
        let mask = MASKS[k % MASKS.len()];
        for t in (0..LANES).filter(|l| mask & (1 << l) != 0) {
            match instr {
                Instr::Alu { op, dst, a, b } => {
                    let (x, y) = (value(regs, t, a), value(regs, t, b));
                    regs[t * REGS + dst as usize] = match op {
                        0 => x.wrapping_add(y),
                        1 => x ^ y,
                        2 => x.wrapping_mul(y),
                        3 => x.min(y),
                        _ => x >> (y & 31),
                    };
                }
                Instr::Mad { dst, a, b, c } => {
                    let (x, y, z) = (value(regs, t, a), value(regs, t, b), value(regs, t, c));
                    regs[t * REGS + dst as usize] = (float(x) * float(y) + float(z)).to_bits();
                }
                Instr::Load { dst, addr, offset } => {
                    let at = address(regs[t * REGS + addr as usize], offset);
                    let mut word = [0; 4];
                    word.copy_from_slice(&mem[at..at + 4]);
                    regs[t * REGS + dst as usize] = u32::from_le_bytes(word);
                }
                Instr::Store { addr, src, offset } => {
                    let at = address(regs[t * REGS + addr as usize], offset);
                    mem[at..at + 4].copy_from_slice(&regs[t * REGS + src as usize].to_le_bytes());
                }
            }
        }
    }
    regs.iter().fold(0, |h, &v| h ^ v)
}

/// The sampler's state. The handler may run on any thread, and on two at
/// once; [`BUSY`] lets one of them sample and makes the other skip, so the
/// reference memory has one user at a time.
static PROGRAM: OnceLock<Vec<Instr>> = OnceLock::new();
static MEMORY: AtomicPtr<u8> = AtomicPtr::new(std::ptr::null_mut());
static BUSY: AtomicBool = AtomicBool::new(false);
/// Sum of the samples' speeds (an `f64`, as bits; only the handler holding
/// [`BUSY`] writes it), and the number of samples.
static SPEED_SUM: AtomicU64 = AtomicU64::new(0);
static SAMPLES: AtomicU64 = AtomicU64::new(0);
/// CPU nanoseconds spent in the handler, on every thread: taken off
/// [`Clock::now_ms`].
static HANDLER_NS: AtomicU64 = AtomicU64::new(0);

/// The `SIGPROF` handler: one reference sample on the interrupted thread.
extern "C" fn sample(_: c_int) {
    let Some(program) = PROGRAM.get() else {
        return;
    };
    let memory = MEMORY.load(SeqCst);
    if memory.is_null() || BUSY.swap(true, SeqCst) {
        return;
    }
    // SAFETY: `memory` is the leaked `MEMORY_BYTES` allocation `start_sampling`
    // published before arming the timer and never frees, and `BUSY` makes
    // this the only reference to it until it is cleared below.
    let mem = unsafe { std::slice::from_raw_parts_mut(memory, MEMORY_BYTES) };
    let start = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    let budget_ns = (SAMPLE_EVERY.as_nanos() as f64 * REF_SHARE) as u64;
    let mut regs = [1u32; LANES * REGS];
    // An untimed warm-up first: the workload evicted the reference's
    // program and memory from the caches.
    std::hint::black_box(interpret(program, mem, &mut regs));
    let t = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
    let (mut spent, mut passes) = (0, 0);
    while passes == 0 || spent < budget_ns {
        std::hint::black_box(interpret(std::hint::black_box(program), mem, &mut regs));
        passes += 1;
        spent = cpu_ns(CLOCK_THREAD_CPUTIME_ID).saturating_sub(t);
    }
    let speed = NOMINAL_PASS_NS * passes as f64 / spent.max(1) as f64;
    let sum = f64::from_bits(SPEED_SUM.load(SeqCst)) + speed;
    SPEED_SUM.store(sum.to_bits(), SeqCst);
    SAMPLES.fetch_add(1, SeqCst);
    HANDLER_NS.fetch_add(
        cpu_ns(CLOCK_THREAD_CPUTIME_ID).saturating_sub(start),
        SeqCst,
    );
    BUSY.store(false, SeqCst);
}

fn arm(every: Duration) {
    let tv = Timeval {
        tv_sec: every.as_secs() as c_long,
        tv_usec: every.subsec_micros() as c_long,
    };
    let timer = Itimerval {
        it_interval: tv,
        it_value: tv,
    };
    // SAFETY: `timer` is a valid `struct itimerval` for the call; a null
    // old-value pointer is allowed.
    let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "setitimer(ITIMER_PROF) failed");
}

/// Start sampling the reference for the rest of the process, or until
/// [`stop_sampling`]. Only a run that reports normalised times starts it.
pub fn start_sampling() {
    PROGRAM.get_or_init(reference_program);
    if MEMORY.load(SeqCst).is_null() {
        let memory = Box::leak(vec![7u8; MEMORY_BYTES].into_boxed_slice());
        MEMORY.store(memory.as_mut_ptr(), SeqCst);
    }
    // SAFETY: `sample` is an `extern "C" fn(c_int)` that only touches
    // atomics, the published reference memory and `clock_gettime`.
    let previous = unsafe { signal(SIGPROF, sample) };
    assert_ne!(
        previous,
        usize::MAX,
        "installing the SIGPROF handler failed"
    );
    arm(SAMPLE_EVERY);
}

/// Stop the sampler's timer (the handler stays installed, and idle).
pub fn stop_sampling() {
    arm(Duration::ZERO);
}

/// CPU time of a span of the run, from the sampler's counters at its start.
pub struct Clock {
    speed_sum: f64,
    samples: u64,
}

impl Clock {
    /// A clock whose [`scale`](Self::scale) covers the samples from now on.
    pub fn new() -> Clock {
        Clock {
            speed_sum: f64::from_bits(SPEED_SUM.load(SeqCst)),
            samples: SAMPLES.load(SeqCst),
        }
    }

    /// Reference samples taken since [`new`](Self::new).
    pub fn samples(&self) -> u64 {
        SAMPLES.load(SeqCst) - self.samples
    }

    /// CPU milliseconds this process has used, without the reference
    /// samples.
    pub fn now_ms(&self) -> f64 {
        process_cpu_ns().saturating_sub(HANDLER_NS.load(SeqCst)) as f64 / 1e6
    }

    /// The factor CPU times are multiplied by: the mean speed of the
    /// samples taken since [`new`](Self::new) (1 without samples: the
    /// sampler is off, or the span was too short).
    pub fn scale(&self) -> f64 {
        match self.samples() {
            0 => 1.0,
            n => (f64::from_bits(SPEED_SUM.load(SeqCst)) - self.speed_sum) / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_counts_work_not_sleep() {
        // The thread clock: other tests run on other threads meanwhile.
        let thread_ns = || cpu_ns(CLOCK_THREAD_CPUTIME_ID);
        let t = thread_ns();
        std::thread::sleep(Duration::from_millis(30));
        assert!(thread_ns() - t < 10_000_000, "sleeping uses no CPU");
        let t = thread_ns();
        let (prog, mut mem) = (reference_program(), vec![7; MEMORY_BYTES]);
        let mut regs = [1u32; LANES * REGS];
        for _ in 0..20 {
            std::hint::black_box(interpret(&prog, &mut mem, &mut regs));
        }
        assert!(thread_ns() > t, "work uses CPU");
        assert!(
            process_cpu_ns() >= thread_ns(),
            "the process clock covers the thread"
        );
    }

    #[test]
    fn the_sampler_runs_the_reference_off_the_clock() {
        let clock = Clock::new();
        let (cpu, handler) = (process_cpu_ns(), HANDLER_NS.load(SeqCst));
        start_sampling();
        let t = cpu_ns(CLOCK_THREAD_CPUTIME_ID);
        while cpu_ns(CLOCK_THREAD_CPUTIME_ID) - t < 200_000_000 {
            std::hint::black_box(reference_program());
        }
        stop_sampling();
        let handler = HANDLER_NS.load(SeqCst) - handler;
        assert!(handler > 0, "the timer fired and the handler sampled");
        assert!(
            handler < (process_cpu_ns() - cpu) / 5,
            "sampling takes a small share of the CPU time"
        );
        assert!(clock.scale() > 0.0 && clock.scale().is_finite() && clock.scale() != 1.0);
        // A sample the timer started just before it stopped may still be
        // finishing on another thread.
        std::thread::sleep(SAMPLE_EVERY);
        let after = SAMPLES.load(SeqCst);
        std::thread::sleep(SAMPLE_EVERY * 3);
        assert_eq!(SAMPLES.load(SeqCst), after, "stopped");
    }

    #[test]
    fn reference_work_is_deterministic() {
        let prog = reference_program();
        let run = || {
            let (mut mem, mut regs) = (vec![7; MEMORY_BYTES], [1u32; LANES * REGS]);
            interpret(&prog, &mut mem, &mut regs)
        };
        assert_eq!(run(), run());
    }
}
