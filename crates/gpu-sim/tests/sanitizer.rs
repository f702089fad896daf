//! Device-fault sanitizer acceptance tests.
//!
//! Every fault class in [`gpu_sim::fault::FaultKind`] gets a fault-injection
//! (or naturally-faulting) test that asserts both the classification and the
//! exact fault coordinates — kernel, block, thread — the way
//! `compute-sanitizer` attributes faults on real CUDA. Property tests then
//! drive random coordinates and addresses through the injection harness to
//! show attribution is exact everywhere, and a regression test proves the
//! paper's mis-padded 28-byte AoS particle faults loudly instead of
//! returning silently wrong accelerations.

use gpu_sim::exec::functional::{configured_threads, run_grid, run_lowered_full, MAX_BLOCK};
use gpu_sim::fault::{DeviceError, FaultKind, FaultPlan, Mutation};
use gpu_sim::ir::lower::lower;
use gpu_sim::ir::{Kernel, KernelBuilder, MemSpace, Operand, SpecialReg};
use gpu_sim::mem::GlobalMemory;
use proptest::prelude::*;

/// `out[tid] = in[tid]` over one block: a 4-byte load and store per thread.
fn copy_kernel() -> Kernel {
    let mut b = KernelBuilder::new("san_copy");
    let input = b.param();
    let out = b.param();
    let tid = b.special(SpecialReg::TidX);
    let src = b.mad_u(tid.into(), Operand::ImmU(4), input.into());
    let v = b.ld(MemSpace::Global, src, 0, 1)[0];
    let dst = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
    b.st(MemSpace::Global, dst, 0, vec![v.into()]);
    b.finish()
}

/// Multi-block variant: `out[gtid] = in[gtid]`.
fn grid_copy_kernel() -> Kernel {
    let mut b = KernelBuilder::new("san_grid_copy");
    let input = b.param();
    let out = b.param();
    let gtid = b.global_thread_index();
    let src = b.mad_u(gtid.into(), Operand::ImmU(4), input.into());
    let v = b.ld(MemSpace::Global, src, 0, 1)[0];
    let dst = b.mad_u(gtid.into(), Operand::ImmU(4), out.into());
    b.st(MemSpace::Global, dst, 0, vec![v.into()]);
    b.finish()
}

/// Memory with `threads` initialized input floats and a zeroed output buffer.
fn setup(threads: u32) -> (GlobalMemory, u32, u32) {
    let mut gmem = GlobalMemory::new(1 << 20);
    let data: Vec<f32> = (0..threads).map(|i| i as f32).collect();
    let d = gmem.alloc_f32(&data).expect("input fits");
    let out = gmem.alloc_zeroed(threads as u64 * 4).expect("output fits");
    (gmem, d.0 as u32, out.0 as u32)
}

fn fault(r: Result<gpu_sim::exec::functional::FunctionalRun, DeviceError>) -> DeviceError {
    r.expect_err("the sanitizer must detect the fault")
}

#[test]
fn injected_oob_is_detected_with_exact_coordinates() {
    let k = copy_kernel();
    let (mut gmem, d, out) = setup(32);
    let far = 1u64 << 30; // 4-aligned and far outside the 1 MiB space
    let plan = FaultPlan::at_thread(0, 13, Mutation::SetAddr(far));
    let e = fault(run_lowered_full(
        &lower(&k),
        1,
        32,
        &[d, out],
        &mut gmem,
        Some(&plan),
        None,
        configured_threads(),
    ));
    match e.kind {
        FaultKind::OutOfBounds {
            space,
            addr,
            width,
            limit,
            redzone,
        } => {
            assert_eq!(space, MemSpace::Global);
            assert_eq!(addr, far);
            assert_eq!(width, 4);
            assert_eq!(limit, 1 << 20);
            assert!(!redzone, "an address beyond capacity is not a redzone hit");
        }
        other => panic!("expected OutOfBounds, got {other:?}"),
    }
    assert_eq!(e.site.kernel.as_deref(), Some("san_copy"));
    assert_eq!(e.site.block, Some(0));
    assert_eq!(e.site.thread, Some(13));
    assert!(
        e.site.instruction.is_some(),
        "faulting instruction must be recorded"
    );
}

#[test]
fn injected_misalignment_wins_over_out_of_bounds() {
    // A far AND misaligned address must classify as Misaligned: the
    // alignment pre-check fires before any byte is dereferenced, exactly
    // like the hardware raising a misaligned-address exception.
    let k = copy_kernel();
    let (mut gmem, d, out) = setup(32);
    let bad = (1u64 << 30) + 2;
    let plan = FaultPlan::at_thread(0, 7, Mutation::SetAddr(bad));
    let e = fault(run_lowered_full(
        &lower(&k),
        1,
        32,
        &[d, out],
        &mut gmem,
        Some(&plan),
        None,
        configured_threads(),
    ));
    match e.kind {
        FaultKind::Misaligned { space, addr, width } => {
            assert_eq!(space, MemSpace::Global);
            assert_eq!(addr, bad);
            assert_eq!(width, 4);
        }
        other => panic!("expected Misaligned, got {other:?}"),
    }
    assert_eq!(e.site.block, Some(0));
    assert_eq!(e.site.thread, Some(7));
}

#[test]
fn one_past_the_end_lands_in_the_redzone() {
    // Thread 31 is nudged 4 bytes forward: one element past the input
    // buffer, into the guard band before the output buffer. The report must
    // say "redzone" — the signature of an off-by-one stride bug.
    let k = copy_kernel();
    let (mut gmem, d, out) = setup(32);
    let plan = FaultPlan::at_thread(0, 31, Mutation::AddrDelta(4));
    let e = fault(run_lowered_full(
        &lower(&k),
        1,
        32,
        &[d, out],
        &mut gmem,
        Some(&plan),
        None,
        configured_threads(),
    ));
    match e.kind {
        FaultKind::OutOfBounds { addr, redzone, .. } => {
            assert_eq!(addr, d as u64 + 32 * 4);
            assert!(
                redzone,
                "one-past-the-end must be attributed to the guard band"
            );
        }
        other => panic!("expected a redzone OutOfBounds, got {other:?}"),
    }
    assert_eq!(e.site.thread, Some(31));
}

#[test]
fn reading_never_written_memory_is_an_uninitialized_read() {
    // `alloc` poison-fills; no injection needed — the first thread to load
    // the buffer faults.
    let k = copy_kernel();
    let mut gmem = GlobalMemory::new(1 << 20);
    let d = gmem.alloc(32 * 4).expect("fits"); // allocated, never written
    let out = gmem.alloc_zeroed(32 * 4).expect("fits");
    let e = fault(run_grid(&k, 1, 32, &[d.0 as u32, out.0 as u32], &mut gmem));
    match e.kind {
        FaultKind::UninitializedRead { addr, width } => {
            assert_eq!(addr, d.0);
            assert_eq!(width, 4);
        }
        other => panic!("expected UninitializedRead, got {other:?}"),
    }
    assert_eq!(e.site.block, Some(0));
    assert_eq!(
        e.site.thread,
        Some(0),
        "thread 0 reads the first poisoned word"
    );
}

#[test]
fn allocator_exhaustion_is_a_typed_host_side_fault() {
    let mut gmem = GlobalMemory::new(4096);
    let e = gmem.alloc(1 << 20).expect_err("cannot fit 1 MiB in 4 KiB");
    match e.kind {
        FaultKind::OutOfMemory {
            requested,
            capacity,
            ..
        } => {
            assert_eq!(requested, 1 << 20);
            assert_eq!(capacity, 4096);
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
    // Host-side API fault: no device coordinates to attribute.
    assert_eq!(e.site.block, None);
    assert_eq!(e.site.thread, None);
    assert!(e.report().contains("OutOfMemory"));
}

#[test]
fn bad_launch_geometry_is_rejected_before_execution() {
    let k = copy_kernel();
    let (mut gmem, d, out) = setup(32);

    let e = fault(run_grid(&k, 0, 32, &[d, out], &mut gmem));
    assert!(
        matches!(e.kind, FaultKind::BadLaunch { .. }),
        "empty grid: {e:?}"
    );
    assert_eq!(e.site.kernel.as_deref(), Some("san_copy"));

    let e = fault(run_grid(&k, 1, MAX_BLOCK + 1, &[d, out], &mut gmem));
    match &e.kind {
        FaultKind::BadLaunch { reason } => assert!(reason.contains("block size")),
        other => panic!("expected BadLaunch, got {other:?}"),
    }
}

#[test]
fn parameter_count_mismatch_is_a_bad_launch() {
    let k = copy_kernel();
    let (mut gmem, d, _out) = setup(32);
    let e = fault(run_grid(&k, 1, 32, &[d], &mut gmem)); // kernel wants 2 params
    match &e.kind {
        FaultKind::BadLaunch { reason } => {
            assert!(reason.contains("2 parameters"), "reason: {reason}");
            assert!(reason.contains("passed 1"), "reason: {reason}");
        }
        other => panic!("expected BadLaunch, got {other:?}"),
    }
    assert_eq!(e.site.kernel.as_deref(), Some("san_copy"));
}

#[test]
fn storing_to_texture_memory_is_a_read_only_write() {
    let mut b = KernelBuilder::new("san_tex_store");
    let out = b.param();
    let tid = b.special(SpecialReg::TidX);
    let dst = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
    b.st(MemSpace::Texture, dst, 0, vec![Operand::ImmF(1.0)]);
    let k = b.finish();

    let mut gmem = GlobalMemory::new(1 << 16);
    let out = gmem.alloc_zeroed(128).expect("fits");
    let e = fault(run_grid(&k, 1, 8, &[out.0 as u32], &mut gmem));
    match e.kind {
        FaultKind::ReadOnlyWrite { space, .. } => assert_eq!(space, MemSpace::Texture),
        other => panic!("expected ReadOnlyWrite, got {other:?}"),
    }
    assert_eq!(e.site.thread, Some(0));
}

/// The paper's regression: Gravit's particle struct is 28 bytes
/// (float4 pos+mass is the fix; the unpadded AoS record is 7 floats). A
/// float4 vector load over a 28-byte stride is misaligned for every thread
/// whose record does not happen to start on a 16-byte boundary. On real
/// hardware pre-padding this either faulted or silently produced garbage —
/// here it must be a typed Misaligned fault at thread 1, never wrong
/// accelerations.
#[test]
fn mispadded_28_byte_aos_faults_instead_of_returning_wrong_physics() {
    let mut b = KernelBuilder::new("san_aos28");
    let particles = b.param();
    let out = b.param();
    let tid = b.special(SpecialReg::TidX);
    let rec = b.mad_u(tid.into(), Operand::ImmU(28), particles.into());
    let pos = b.ld(MemSpace::Global, rec, 0, 4); // float4 load of pos+mass
    let dst = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
    b.st(MemSpace::Global, dst, 0, vec![pos[3].into()]);
    let k = b.finish();

    let mut gmem = GlobalMemory::new(1 << 20);
    let n = 32u32;
    let data: Vec<f32> = (0..n * 7).map(|i| i as f32).collect();
    let d = gmem.alloc_f32(&data).expect("fits");
    let out = gmem.alloc_zeroed(n as u64 * 4).expect("fits");
    let e = fault(run_grid(&k, 1, n, &[d.0 as u32, out.0 as u32], &mut gmem));
    match e.kind {
        FaultKind::Misaligned { space, addr, width } => {
            assert_eq!(space, MemSpace::Global);
            assert_eq!(
                width, 16,
                "the whole float4 access is checked, not its words"
            );
            assert_eq!(
                addr,
                d.0 + 28,
                "thread 1's record starts 28 B in — not 16-B aligned"
            );
        }
        other => panic!("expected Misaligned, got {other:?}"),
    }
    assert_eq!(
        e.site.thread,
        Some(1),
        "thread 0's record is aligned; thread 1 faults first"
    );
    assert_eq!(e.site.kernel.as_deref(), Some("san_aos28"));
}

#[test]
fn healthy_injection_free_run_still_computes() {
    // Control: the same kernel with an empty plan completes and copies.
    let k = copy_kernel();
    let (mut gmem, d, out) = setup(32);
    run_lowered_full(
        &lower(&k),
        1,
        32,
        &[d, out],
        &mut gmem,
        Some(&FaultPlan::default()),
        None,
        configured_threads(),
    )
    .expect("no faults injected");
    let vals = gmem
        .read_f32(gpu_sim::mem::DevicePtr(out as u64), 32)
        .expect("written");
    assert_eq!(vals, (0..32).map(|i| i as f32).collect::<Vec<_>>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A random (block, thread) struck with a random far out-of-bounds
    /// address is always detected AND attributed to exactly that thread.
    #[test]
    fn random_oob_injection_attributes_the_exact_thread(
        block in 0u32..4,
        thread in 0u32..64,
        slot in 0u64..1_000_000,
    ) {
        let k = grid_copy_kernel();
        let mut gmem = GlobalMemory::new(1 << 20);
        let n = 4 * 64;
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let d = gmem.alloc_f32(&data).expect("fits");
        let out = gmem.alloc_zeroed(n as u64 * 4).expect("fits");
        let far = (1u64 << 20) + slot * 4; // 4-aligned, at/after capacity
        let plan = FaultPlan::at_thread(block, thread, Mutation::SetAddr(far));
        let e = fault(run_lowered_full(
            &lower(&k),
            4,
            64,
            &[d.0 as u32, out.0 as u32],
            &mut gmem,
            Some(&plan),
            None,
            configured_threads(),
        ));
        prop_assert!(
            matches!(e.kind, FaultKind::OutOfBounds { addr, .. } if addr == far),
            "kind: {:?}", e.kind
        );
        prop_assert_eq!(e.site.block, Some(block));
        prop_assert_eq!(e.site.thread, Some(thread));
        prop_assert_eq!(e.site.kernel.as_deref(), Some("san_grid_copy"));
    }

    /// A random misaligned address is always classified Misaligned (never
    /// OutOfBounds or a wrong value), with the mutated address reported.
    #[test]
    fn random_misaligned_injection_is_classified_and_located(
        block in 0u32..4,
        thread in 0u32..64,
        word in 0u64..100_000,
        skew in 1u64..4,
    ) {
        let k = grid_copy_kernel();
        let mut gmem = GlobalMemory::new(1 << 20);
        let n = 4 * 64;
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let d = gmem.alloc_f32(&data).expect("fits");
        let out = gmem.alloc_zeroed(n as u64 * 4).expect("fits");
        let bad = word * 4 + skew; // guaranteed addr % 4 != 0
        let plan = FaultPlan::at_thread(block, thread, Mutation::SetAddr(bad));
        let e = fault(run_lowered_full(
            &lower(&k),
            4,
            64,
            &[d.0 as u32, out.0 as u32],
            &mut gmem,
            Some(&plan),
            None,
            configured_threads(),
        ));
        prop_assert!(
            matches!(e.kind, FaultKind::Misaligned { addr, width: 4, .. } if addr == bad),
            "kind: {:?}", e.kind
        );
        prop_assert_eq!(e.site.block, Some(block));
        prop_assert_eq!(e.site.thread, Some(thread));
    }

    /// Initialize only the first `k` of 64 input slots: the first poisoned
    /// load is detected and attributed to thread `k` at the exact address.
    #[test]
    fn partial_initialization_poison_is_caught_at_the_boundary(k in 0usize..64) {
        let kern = copy_kernel();
        let mut gmem = GlobalMemory::new(1 << 20);
        let d = gmem.alloc(64 * 4).expect("fits");
        for i in 0..k {
            gmem.store_f32(d.0 + i as u64 * 4, i as f32).expect("in bounds");
        }
        let out = gmem.alloc_zeroed(64 * 4).expect("fits");
        let e = fault(run_grid(&kern, 1, 64, &[d.0 as u32, out.0 as u32], &mut gmem));
        prop_assert!(
            matches!(e.kind, FaultKind::UninitializedRead { addr, width: 4 } if addr == d.0 + k as u64 * 4),
            "kind: {:?}", e.kind
        );
        prop_assert_eq!(e.site.thread, Some(k as u32));
        prop_assert_eq!(e.site.block, Some(0));
    }
}
