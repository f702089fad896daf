//! Differential tests for the parallel block executor: for random kernels,
//! geometries and thread counts, parallel execution must be **bit-identical**
//! to sequential execution — final device state (data, shadow, ECC),
//! merged statistics, and, when the launch faults, the *same* typed error
//! with the *same* fault coordinates.
//!
//! The kernels generated here are block-independent (no block reads another
//! block's writes), which is the contract CUDA grids satisfy by construction
//! and the one the commit/merge scheme guarantees determinism for (see
//! DESIGN.md §15).

use gpu_sim::exec::functional::{run_lowered_full, FunctionalRun};
use gpu_sim::fault::{DeviceError, FaultKind, FaultPlan, Mutation};
use gpu_sim::ir::lower::lower;
use gpu_sim::ir::{AluOp, CmpOp, Kernel, KernelBuilder, MemSpace, Operand};
use gpu_sim::mem::GlobalMemory;
use proptest::prelude::*;

/// Thread counts every scenario is replayed under; index 0 is the
/// sequential reference.
const THREADS: [usize; 3] = [1, 2, 8];

/// A random affine kernel: `out[gti*stride + k] = in[gti]*scale + gti` for
/// `k < writes_per_thread` — strided, multi-word global traffic with every
/// written word owned by exactly one thread.
fn affine_kernel(stride: u32, writes_per_thread: u32) -> Kernel {
    let mut b = KernelBuilder::new("diff_affine");
    let inp = b.param();
    let out = b.param();
    let scale = b.param();
    let gti = b.global_thread_index();
    let iaddr = b.mad_u(gti.into(), Operand::ImmU(4), inp.into());
    let v = b.ld(MemSpace::Global, iaddr, 0, 1)[0];
    let scaled = b.fmul(v.into(), scale.into());
    let slot = b.alu(AluOp::IMul, gti.into(), Operand::ImmU(stride));
    for k in 0..writes_per_thread {
        let w = b.iadd(slot.into(), Operand::ImmU(k));
        let oaddr = b.mad_u(w.into(), Operand::ImmU(4), out.into());
        let tagged = b.fadd(scaled.into(), gti.into());
        b.st(MemSpace::Global, oaddr, 0, vec![tagged.into()]);
    }
    b.finish()
}

/// A divergent kernel: a data-dependent countdown loop (`(gti & mask) + 1`
/// trips) inside a parity branch, so warps diverge on both the branch and
/// the trip count; the per-thread iteration tally lands in `out[gti]`.
fn divergent_kernel(mask: u32) -> Kernel {
    let mut b = KernelBuilder::new("diff_divergent");
    let out = b.param();
    let gti = b.global_thread_index();
    let acc = b.mov(Operand::ImmU(0));
    let parity = b.alu(AluOp::IAnd, gti.into(), Operand::ImmU(1));
    let odd = b.setp(CmpOp::UEq, parity.into(), Operand::ImmU(1));
    let trips = b.alu(AluOp::IAnd, gti.into(), Operand::ImmU(mask));
    let count = b.iadd(trips.into(), Operand::ImmU(1));
    b.if_else(
        odd,
        |b| {
            b.do_while(|b| {
                b.alu_into(acc, AluOp::IAdd, acc.into(), Operand::ImmU(3));
                b.alu_into(count, AluOp::ISub, count.into(), Operand::ImmU(1));
                b.setp(CmpOp::UNe, count.into(), Operand::ImmU(0))
            });
        },
        |b| {
            b.alu_into(acc, AluOp::IAdd, acc.into(), Operand::ImmU(7));
        },
    );
    let oaddr = b.mad_u(gti.into(), Operand::ImmU(4), out.into());
    b.st(MemSpace::Global, oaddr, 0, vec![acc.into()]);
    b.finish()
}

/// Execute one launch scenario and capture everything observable: the run
/// result and the complete final device state.
#[allow(clippy::too_many_arguments)]
fn execute(
    kernel: &Kernel,
    grid: u32,
    block: u32,
    in_words: u32,
    out_words: u32,
    plan: Option<&FaultPlan>,
    watchdog: Option<u64>,
    threads: usize,
) -> (Result<FunctionalRun, DeviceError>, GlobalMemory) {
    let mut gmem = GlobalMemory::new(16 << 20);
    let data: Vec<f32> = (0..in_words).map(|i| i as f32 * 0.5 - 7.0).collect();
    let inp = if in_words > 0 {
        gmem.alloc_f32(&data).expect("input fits").0
    } else {
        0
    };
    let out = gmem.alloc(u64::from(out_words) * 4).expect("output fits");
    let mut params = Vec::new();
    if in_words > 0 {
        params.push(inp as u32);
    }
    params.push(out.0 as u32);
    params.push(1.5f32.to_bits());
    params.truncate(kernel.n_params as usize);
    let r = run_lowered_full(
        &lower(kernel),
        grid,
        block,
        &params,
        &mut gmem,
        plan,
        watchdog,
        threads,
    );
    (r, gmem)
}

/// Assert that every thread count reproduces the sequential outcome
/// bit-for-bit: same `Result` (stats or typed error with coordinates) and
/// same final device state.
fn assert_all_threads_identical(
    kernel: &Kernel,
    grid: u32,
    block: u32,
    in_words: u32,
    out_words: u32,
    plan: Option<&FaultPlan>,
    watchdog: Option<u64>,
) -> Result<(), String> {
    let (ref_r, ref_m) = execute(
        kernel, grid, block, in_words, out_words, plan, watchdog, THREADS[0],
    );
    for &t in &THREADS[1..] {
        let (r, m) = execute(kernel, grid, block, in_words, out_words, plan, watchdog, t);
        prop_assert_eq!(
            &r,
            &ref_r,
            "run result diverged at {} threads (grid {} block {})",
            t,
            grid,
            block
        );
        prop_assert!(
            m == ref_m,
            "device state diverged at {t} threads (grid {grid} block {block})"
        );
    }
    Ok(())
}

fn grid_strategy() -> impl Strategy<Value = u32> {
    1u32..12
}

fn block_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![Just(32u32), Just(64), Just(128)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Healthy affine launches: memory, shadow, ECC and stats all match.
    #[test]
    fn affine_parallel_equals_sequential(
        grid in grid_strategy(),
        block in block_strategy(),
        stride in 1u32..3,
        writes in 1u32..4,
    ) {
        let k = affine_kernel(stride, writes);
        let n = grid * block;
        assert_all_threads_identical(&k, grid, block, n, n * stride + writes, None, None)?;
    }

    /// Healthy divergent launches (warp-divergent branch + data-dependent
    /// loop): identical across thread counts.
    #[test]
    fn divergent_parallel_equals_sequential(
        grid in grid_strategy(),
        block in block_strategy(),
        mask in prop_oneof![Just(3u32), Just(7), Just(15)],
    ) {
        let k = divergent_kernel(mask);
        let n = grid * block;
        assert_all_threads_identical(&k, grid, block, 0, n, None, None)?;
    }

    /// Injected permanent faults: the parallel executor reports the same
    /// typed error with the same kernel/block/thread/instruction coordinates
    /// the sequential one does, and leaves identical device state.
    #[test]
    fn injected_faults_have_identical_coordinates(
        grid in grid_strategy(),
        block in block_strategy(),
        fault_block in 0u32..12,
        fault_lane in 0u32..32,
    ) {
        let k = affine_kernel(1, 1);
        let n = grid * block;
        // Redirect one lane's accesses far out of bounds (16-byte aligned so
        // the class is OutOfBounds). Blocks past the grid simply never fault.
        let plan = FaultPlan::at_thread(
            fault_block % grid,
            fault_lane,
            Mutation::SetAddr(1 << 40),
        );
        assert_all_threads_identical(&k, grid, block, n, n + 1, Some(&plan), None)?;
    }

    /// Watchdog kills: the deterministic budget split must attribute the
    /// timeout to the same block/thread/instruction regardless of how many
    /// host threads raced — the satellite-2 bugfix under test. Budgets span
    /// instant kills through full completion.
    #[test]
    fn watchdog_kills_are_deterministic(
        grid in grid_strategy(),
        block in block_strategy(),
        budget in prop_oneof![1u64..64, 64u64..4096, Just(u64::MAX)],
        divergent in prop_oneof![Just(true), Just(false)],
    ) {
        let (k, in_words) = if divergent {
            (divergent_kernel(7), 0)
        } else {
            (affine_kernel(1, 2), grid * block)
        };
        let n = grid * block;
        assert_all_threads_identical(&k, grid, block, in_words, n + 2, None, Some(budget))?;
    }

    /// Faults and watchdog together: whichever fires first must be the same
    /// one, with the same coordinates, at every thread count.
    #[test]
    fn fault_and_watchdog_interplay_is_deterministic(
        grid in grid_strategy(),
        block in block_strategy(),
        fault_block in 0u32..12,
        budget in 1u64..2048,
    ) {
        let k = affine_kernel(1, 1);
        let n = grid * block;
        let plan = FaultPlan::at_thread(fault_block % grid, 5, Mutation::SetAddr(1 << 40));
        assert_all_threads_identical(&k, grid, block, n, n + 1, Some(&plan), Some(budget))?;
    }
}

/// The transient-fault (chaos) suite from PR 4 must see identical fault
/// attribution whether the underlying executor ran blocks sequentially or in
/// parallel: the watchdog-starved "hang" fate is the adversarial case, since
/// its budget of 1 kills the very first fetched item of the grid.
#[test]
fn chaos_hang_attribution_matches_sequential() {
    use gpu_sim::transient::HANG_BUDGET;
    let k = divergent_kernel(7);
    let prog = lower(&k);
    let (grid, block) = (6u32, 64u32);
    let mut reference: Option<(Result<FunctionalRun, DeviceError>, GlobalMemory)> = None;
    for &t in &THREADS {
        let mut gmem = GlobalMemory::new(1 << 20);
        let out = gmem.alloc(u64::from(grid * block) * 4).expect("fits");
        let params = [out.0 as u32];
        let r = gpu_sim::exec::functional::run_lowered_full(
            &prog,
            grid,
            block,
            &params,
            &mut gmem,
            None,
            Some(HANG_BUDGET),
            t,
        );
        let err = r.clone().expect_err("a budget of 1 must kill the launch");
        assert!(
            matches!(err.kind, FaultKind::WatchdogTimeout { .. }),
            "got {:?}",
            err.kind
        );
        match &reference {
            None => reference = Some((r, gmem)),
            Some((rr, rm)) => {
                assert_eq!(&r, rr, "hang attribution diverged at {t} threads");
                assert!(
                    gmem == *rm,
                    "post-kill device state diverged at {t} threads"
                );
            }
        }
    }
}

/// The launch-validation bugfix rides the same entry points the difftests
/// use: an oversized grid is rejected with a typed error before any thread
/// pool spins up, at every thread count.
#[test]
fn oversized_grids_are_rejected_at_every_thread_count() {
    use gpu_sim::exec::functional::MAX_GRID;
    let k = affine_kernel(1, 1);
    for &t in &THREADS {
        let mut gmem = GlobalMemory::new(1 << 20);
        let err = run_lowered_full(&lower(&k), MAX_GRID + 1, 64, &[], &mut gmem, None, None, t)
            .expect_err("65536 blocks must be rejected");
        assert!(
            matches!(err.kind, FaultKind::BadLaunch { .. }),
            "got {:?}",
            err.kind
        );
    }
}
