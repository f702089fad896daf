//! Golden pins for the static analyzer, the translation validator and the
//! layout/schedule synthesizer.
//!
//! The values were recorded from the analyzer as it stood before its
//! interpreters were reworked for speed (per-cell race summary, no
//! per-instruction allocation, a fast hash for the term arena), so any
//! change to what they report — a diagnostic's text, a transaction count,
//! a proof's event counts, a candidate's predicted cycles — fails here:
//!
//! * every `workspace_lint_targets()` kernel under every driver model: an
//!   FNV-1a digest of `report.render()` and of every access summary;
//! * a racy kernel whose readers precede the writer in the same
//!   `(barrier phase, shared word)` cell: its full `shared-race` findings;
//! * the `Proved { threads, stores, syncs }` counts of every
//!   `verifyset` pass and layout-ladder target;
//! * the `force-soa-b64` synthesis report under every driver model:
//!   candidate labels, predicted-cycle bits, registers, skipped reasons
//!   and certificate summaries, plus every suggestion's full certificate
//!   (each proof's `threads`/`stores`/`syncs` counts), and the serde JSON
//!   of every suggestion's `SynthesizedLayout`, the allocation plan
//!   `kernel-lint --fix` emits;
//! * a hand-built kernel whose registers move between one value on every
//!   lane and a value per lane (a partly dead warp, an exact `If` on the
//!   thread index, a joined `If`, a widened `While`, a racy shared store,
//!   broadcast shared and global loads) under every driver model.

use std::sync::OnceLock;

use gpu_kernels::lintset::workspace_lint_targets;
use gpu_kernels::synthset::{synth_targets, synthesized_layout};
use gpu_kernels::verifyset::{layout_ladder_targets, workspace_pass_targets};
use gpu_sim::analyze::synth::SynthReport;
use gpu_sim::analyze::verify::VerifyResult;
use gpu_sim::analyze::{analyze_kernel, AnalysisConfig, AnalysisReport, LintKind};
use gpu_sim::ir::{AluOp, CmpOp, KernelBuilder, MemSpace, Operand, SpecialReg};
use gpu_sim::DriverModel;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fold(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

/// Digest of one report: its rendering plus every access summary's
/// transactions, bounds, stride, footprint and buffer attribution.
fn report_digest(r: &AnalysisReport) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, r.render().as_bytes());
    for a in &r.accesses {
        h = fold(h, a.instruction);
        h = fold(h, a.transactions);
        h = fold(h, a.transactions_lo);
        h = fold(h, a.transactions_hi);
        h = fold(h, a.lane_stride.map_or(u64::MAX, |s| s as u64));
        let (lo, hi) = a.addr_range.unwrap_or((u64::MAX, u64::MAX));
        h = fold(fold(h, lo), hi);
        h = fold(h, a.buffer_param.map_or(u64::MAX, u64::from));
    }
    h
}

/// `(target kernel, [digest under CUDA 1.0, 1.1, 2.2])`.
const LINT_PINS: &[(&str, [u64; 3])] = &[
    (
        "force_unopt_b192_u1",
        [0x035675a97efc27b3, 0xc806bd3579b8dd7a, 0x01238a47ef21a2fe],
    ),
    (
        "force_SoA_b192_u1",
        [0x49ce503d6654cbe5, 0x6120f5963e568fd6, 0xa452ccca08ed639a],
    ),
    (
        "force_AoaS_b192_u1",
        [0x82cac8cdefdfbea5, 0x4ed6b14b3a9dfc2e, 0xbec3defda12479c2],
    ),
    (
        "force_SoAoaS_b192_u1",
        [0x7bd82e0d07b5bfb6, 0x2c917e9644e05adb, 0xb2225312555b8f77],
    ),
    (
        "force_SoAoaS_b192_u192",
        [0xa0cf1bb6160799c2, 0xc1c552899e731065, 0x23c01427418bfbf9],
    ),
    (
        "force_SoAoaS_b128_u128_icm",
        [0x6bcc74ae33e139d1, 0x728ea3bf3db8955a, 0x8cb48e44406c5d26],
    ),
    (
        "force_AoS_b192_u1",
        [0xc158556ff6b7fd00, 0xe0d22a1377c7bc85, 0x0ff5698747564471],
    ),
    (
        "force_prefetch_b128_u128",
        [0xe14a2fcd1426c801, 0xe22d7a74b8d397b4, 0xe9650c3d3ba01518],
    ),
    (
        "force_chunk_unopt_b192_u1",
        [0x03f34665eb9aa315, 0x59d257490a99d34c, 0x9c9d6aef976bddb8],
    ),
    (
        "force_chunk_AoS_b192_u1",
        [0x5be1e215b53bfc92, 0x9ef8ef0191b915ef, 0x399ee1e3ca9524a3],
    ),
    (
        "force_chunk_SoA_b192_u1",
        [0x5e143e378df35ac9, 0x5696ae01a599e072, 0xc790d7964ffbbcae],
    ),
    (
        "force_chunk_AoaS_b192_u1",
        [0x8aad1c0d6ae0cdda, 0x84be8dbe73cf4f54, 0x13932abf09c3f368],
    ),
    (
        "force_chunk_SoAoaS_b192_u1",
        [0x1d5d8921fd89651f, 0xd4bd32c514dbf6ae, 0xfac2fa0e4d5bc2c2],
    ),
    (
        "force_chunk_SoAoaS_b128_u128_icm",
        [0x79603cca0946c718, 0xa6b01bbcab66583f, 0xa58ad06c35baeed3],
    ),
    (
        "membench_unopt",
        [0x1069b90dd31111a4, 0x35d5903dae42b91a, 0x611460d6e50d1bd6],
    ),
    (
        "membench_AoS",
        [0x914cae2db52bfc85, 0xd1525b73cb1aa815, 0xd804d518c2626981],
    ),
    (
        "membench_SoA",
        [0x8d8d25edaed7e97b, 0xb4da11ac768c24b0, 0x79084353e1f64124],
    ),
    (
        "membench_AoaS",
        [0x7449f634ada64ff1, 0x54451c0d7a9f234c, 0xd203619f61686be0],
    ),
    (
        "membench_SoAoaS",
        [0xeda59959861e84b2, 0x097a102a3e0fae91, 0xe87a04ee7fd9286d],
    ),
    (
        "membench_unopt_tex",
        [0xc053061ad377e389, 0x57f3a1441cad36a6, 0x13197aabc50daf82],
    ),
    (
        "integrate_unopt",
        [0x04c3e1a89837c9c1, 0x9d9c335789f5928b, 0x481f9048a69112d7],
    ),
    (
        "integrate_AoS",
        [0x4d1c11e1a1f67dc1, 0x2726d31a76aa19c5, 0xa7215dc93646e4d1],
    ),
    (
        "integrate_SoA",
        [0xe7af4f6b1e054f54, 0x2b498b4c441ca9fb, 0x82b6ef8b7b06e077],
    ),
    (
        "integrate_AoaS",
        [0x0a583dec98d41ec9, 0xbf838d61d24be50c, 0x3217c1d974d07908],
    ),
    (
        "integrate_SoAoaS",
        [0xaff42411ffcaa8c8, 0x5ac7b9a0e86cae09, 0xe87be0aeb6ac9b75],
    ),
    (
        "banks_s1",
        [0x508462950c0a120f, 0x52935bc3f55e8c42, 0xfe44dddbe4384c66],
    ),
    (
        "banks_s2",
        [0x2f50914717f761ff, 0xb9eb6ad5f4595818, 0xfc5bd0fb3fd935a4],
    ),
    (
        "banks_s3",
        [0x2f9139cb270c2ecc, 0xfd266761e72ff401, 0xcc7b62d836260bed],
    ),
    (
        "banks_s4",
        [0xe775f3dd7448fa19, 0x762ceb89914b5942, 0x54d5079267e0f006],
    ),
    (
        "banks_s8",
        [0xc36207ae40601b9d, 0x748c1c8a7a12a976, 0x96c0d29c0fb53d6a],
    ),
    (
        "banks_s16",
        [0x6be5df56f2afba0a, 0x4f618bb1a147eb79, 0x2eb2fdfc5d911aa5],
    ),
    (
        "bh_b64_d48",
        [0x5f1cda3c2cdc37c1, 0x58bd0d4f75aaef96, 0x0b6481cb7b328b42],
    ),
];

#[test]
fn lint_targets_render_and_access_summaries_are_pinned() {
    let mut actual = Vec::new();
    for target in workspace_lint_targets() {
        let digests = DriverModel::ALL.map(|d| {
            let cfg = target.config().with_driver(d);
            report_digest(&analyze_kernel(&target.kernel, &cfg))
        });
        actual.push((target.kernel.name.clone(), digests));
    }
    let expected: Vec<(String, [u64; 3])> =
        LINT_PINS.iter().map(|(n, d)| (n.to_string(), *d)).collect();
    assert_eq!(
        actual,
        expected,
        "analysis digests moved; actual table:\n{}",
        actual
            .iter()
            .map(|(n, [a, b, c])| format!("    (\"{n}\", [{a:#018x}, {b:#018x}, {c:#018x}]),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Two shared words raced without a barrier, each read by every thread
/// before one thread writes it:
///
/// * word 0 is written by thread 0, the thread of its first read, so the
///   reported other access is the cell's first read by a *different*
///   thread (thread 1);
/// * word 1 is written by thread 5, so the reported other access is the
///   cell's first event (thread 0's read).
fn read_before_write_kernel() -> gpu_sim::ir::Kernel {
    let mut b = KernelBuilder::new("read_before_write");
    b.shared_mem(64);
    let out = b.param();
    let tid = b.special(SpecialReg::TidX);
    let zero = b.mov(Operand::ImmU(0));
    let v0 = b.ld(MemSpace::Shared, zero, 0, 1)[0];
    let is0 = b.setp(CmpOp::UEq, tid.into(), Operand::ImmU(0));
    b.if_then(is0, |b| b.st(MemSpace::Shared, zero, 0, vec![tid.into()]));
    let v1 = b.ld(MemSpace::Shared, zero, 4, 1)[0];
    let is5 = b.setp(CmpOp::UEq, tid.into(), Operand::ImmU(5));
    b.if_then(is5, |b| b.st(MemSpace::Shared, zero, 4, vec![tid.into()]));
    let sum = b.iadd(v0.into(), v1.into());
    let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
    b.st(MemSpace::Global, oa, 0, vec![sum.into()]);
    b.finish()
}

#[test]
fn shared_race_reports_the_first_other_thread_of_the_cell() {
    let k = read_before_write_kernel();
    let report = analyze_kernel(&k, &AnalysisConfig::new(2, 64, vec![0x8000]));
    let races: Vec<String> = report
        .diagnostics
        .iter()
        .filter(|d| d.kind == LintKind::SharedRace)
        .map(|d| {
            format!(
                "{d} | at {} | fix: {}",
                d.site,
                d.fixit.as_deref().unwrap_or("")
            )
        })
        .collect();
    let expected: &[&str] = &[
        "error[shared-race]: shared word 0 is written by thread 0 (instruction 4) and read by thread 1 (instruction 2) in the same barrier interval (0) | at kernel `read_before_write`, block 0, thread 1, instruction 4 | fix: insert a Sync between the write and the cross-thread access",
        "error[shared-race]: shared word 1 is written by thread 5 (instruction 7) and read by thread 0 (instruction 5) in the same barrier interval (0) | at kernel `read_before_write`, block 0, thread 0, instruction 7 | fix: insert a Sync between the write and the cross-thread access",
    ];
    assert_eq!(races, expected, "{}", report.render());
}

/// `(kernel, pass label, threads, stores, syncs)` of every pass target, then
/// `(from kernel, "layout", …)` of every layout-ladder target.
const VERIFY_PINS: &[(&str, &str, u64, u64, u64)] = &[
    ("force_unopt_b32_u1", "licm", 64, 192, 256),
    ("force_unopt_b32_u1", "fold_addressing", 64, 192, 256),
    ("force_unopt_b32_u1", "unroll x4", 64, 192, 256),
    ("force_AoS_b32_u1", "licm", 64, 192, 256),
    ("force_AoS_b32_u1", "fold_addressing", 64, 192, 256),
    ("force_AoS_b32_u1", "unroll x4", 64, 192, 256),
    ("force_SoA_b32_u1", "licm", 64, 192, 256),
    ("force_SoA_b32_u1", "fold_addressing", 64, 192, 256),
    ("force_SoA_b32_u1", "unroll x4", 64, 192, 256),
    ("force_AoaS_b32_u1", "licm", 64, 192, 256),
    ("force_AoaS_b32_u1", "fold_addressing", 64, 192, 256),
    ("force_AoaS_b32_u1", "unroll x4", 64, 192, 256),
    ("force_SoAoaS_b32_u1", "licm", 64, 192, 256),
    ("force_SoAoaS_b32_u1", "fold_addressing", 64, 192, 256),
    ("force_SoAoaS_b32_u1", "unroll x4", 64, 192, 256),
    ("force_SoAoaS_b32_u1", "unroll x32", 64, 192, 256),
    ("force_SoAoaS_b32_u1", "licm ∘ unroll x32", 64, 192, 256),
    ("force_SoAoaS_b32_u1", "unroll x32 ∘ licm", 64, 192, 256),
    ("force_prefetch_b32_u1", "licm", 64, 192, 256),
    ("force_prefetch_b32_u1", "fold_addressing", 64, 192, 256),
    ("membench_unopt", "licm", 32, 64, 0),
    ("membench_unopt", "fold_addressing", 32, 64, 0),
    ("membench_unopt", "unroll x2", 32, 64, 0),
    ("membench_AoS", "licm", 32, 64, 0),
    ("membench_AoS", "fold_addressing", 32, 64, 0),
    ("membench_AoS", "unroll x2", 32, 64, 0),
    ("membench_SoA", "licm", 32, 64, 0),
    ("membench_SoA", "fold_addressing", 32, 64, 0),
    ("membench_SoA", "unroll x2", 32, 64, 0),
    ("membench_AoaS", "licm", 32, 64, 0),
    ("membench_AoaS", "fold_addressing", 32, 64, 0),
    ("membench_AoaS", "unroll x2", 32, 64, 0),
    ("membench_SoAoaS", "licm", 32, 64, 0),
    ("membench_SoAoaS", "fold_addressing", 32, 64, 0),
    ("membench_SoAoaS", "unroll x2", 32, 64, 0),
    ("integrate_unopt", "licm", 32, 192, 0),
    ("integrate_unopt", "fold_addressing", 32, 192, 0),
    ("integrate_AoS", "licm", 32, 192, 0),
    ("integrate_AoS", "fold_addressing", 32, 192, 0),
    ("integrate_SoA", "licm", 32, 192, 0),
    ("integrate_SoA", "fold_addressing", 32, 192, 0),
    ("integrate_AoaS", "licm", 32, 64, 0),
    ("integrate_AoaS", "fold_addressing", 32, 64, 0),
    ("integrate_SoAoaS", "licm", 32, 64, 0),
    ("integrate_SoAoaS", "fold_addressing", 32, 64, 0),
    ("banks_s1", "licm", 32, 96, 32),
    ("banks_s1", "fold_addressing", 32, 96, 32),
    ("banks_s1", "unroll x2", 32, 96, 32),
    ("banks_s2", "licm", 32, 96, 32),
    ("banks_s2", "fold_addressing", 32, 96, 32),
    ("banks_s2", "unroll x2", 32, 96, 32),
    ("banks_s16", "licm", 32, 96, 32),
    ("banks_s16", "fold_addressing", 32, 96, 32),
    ("banks_s16", "unroll x2", 32, 96, 32),
    ("force_unopt_b32_u1", "layout", 64, 192, 256),
    ("force_AoS_b32_u1", "layout", 64, 192, 256),
    ("force_SoA_b32_u1", "layout", 64, 192, 256),
    ("force_AoaS_b32_u1", "layout", 64, 192, 256),
];

#[test]
fn verifyset_proof_counts_are_pinned() {
    let counts = |r: VerifyResult| match r {
        VerifyResult::Proved {
            threads,
            stores,
            syncs,
        } => (threads, stores, syncs),
        other => panic!("expected a proof, got {other}"),
    };
    let mut actual = Vec::new();
    for t in workspace_pass_targets() {
        let (th, st, sy) = counts(t.verify());
        actual.push((t.kernel.name.clone(), t.pass.label(), th, st, sy));
    }
    for t in layout_ladder_targets() {
        let (th, st, sy) = counts(t.verify());
        actual.push((t.a.name.clone(), "layout".to_string(), th, st, sy));
    }
    let expected: Vec<(String, String, u64, u64, u64)> = VERIFY_PINS
        .iter()
        .map(|&(k, p, th, st, sy)| (k.to_string(), p.to_string(), th, st, sy))
        .collect();
    assert_eq!(
        actual,
        expected,
        "proof counts moved; actual table:\n{}",
        actual
            .iter()
            .map(|(k, p, th, st, sy)| format!("    (\"{k}\", \"{p}\", {th}, {st}, {sy}),"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Digest of a synthesis report: baseline, every ranked candidate, every
/// skipped reason and every suggestion with its certificate summary.
fn synth_digest(r: &SynthReport) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, r.kernel.as_bytes());
    h = fold(h, r.baseline_cycles.to_bits());
    h = fold(h, u64::from(r.baseline_regs));
    for c in &r.candidates {
        h = fnv1a(h, c.label.as_bytes());
        h = fold(h, c.predicted_cycles.to_bits());
        h = fold(h, c.predicted_speedup.to_bits());
        h = fold(h, u64::from(c.regs));
    }
    for s in &r.skipped {
        h = fnv1a(h, s.as_bytes());
    }
    for s in &r.suggestions {
        h = fnv1a(h, s.label.as_bytes());
        h = fold(h, s.predicted_cycles.to_bits());
        h = fold(h, u64::from(s.regs));
        h = fnv1a(h, s.certificate.summary().as_bytes());
    }
    h
}

/// The `force-soa-b64` synthesis reports under CUDA 1.0, 1.1 and 2.2,
/// synthesized once for every test that reads them.
fn force_soa_b64_reports() -> &'static [SynthReport; 3] {
    static REPORTS: OnceLock<[SynthReport; 3]> = OnceLock::new();
    REPORTS.get_or_init(|| {
        DriverModel::ALL.map(|d| {
            let target = synth_targets(d)
                .into_iter()
                .find(|t| t.name == "force-soa-b64")
                .expect("force-soa-b64 is a synthesis target");
            target.synthesize().expect("force-soa-b64 is priceable")
        })
    })
}

/// `force-soa-b64` synthesis digests under CUDA 1.0, 1.1 and 2.2.
const SYNTH_PINS: [u64; 3] = [0xb2147b7559a22e76, 0x67c35958632e949e, 0x3bb4aec3ec5f99a2];

#[test]
fn force_soa_b64_synthesis_is_pinned() {
    let actual = force_soa_b64_reports().each_ref().map(synth_digest);
    assert_eq!(
        actual, SYNTH_PINS,
        "synthesis digests moved: [{:#018x}, {:#018x}, {:#018x}]",
        actual[0], actual[1], actual[2]
    );
}

/// Digests of the full `Debug` of every `force-soa-b64` suggestion's
/// certificate under CUDA 1.0, 1.1 and 2.2: each proof's verdict with its
/// `threads`, `stores` and `syncs` counts, which the certificate summary in
/// [`synth_digest`] does not show.
const CERTIFICATE_PINS: [u64; 3] = [0x4a94c4685d88dff4, 0x4a94c4685d88dff4, 0x4a94c4685d88dff4];

#[test]
fn force_soa_b64_certificates_are_pinned() {
    let actual = force_soa_b64_reports().each_ref().map(|r| {
        r.suggestions.iter().fold(FNV_OFFSET, |h, s| {
            let h = fnv1a(h, s.label.as_bytes());
            fnv1a(h, format!("{:?}", s.certificate).as_bytes())
        })
    });
    assert_eq!(
        actual, CERTIFICATE_PINS,
        "certificate digests moved: [{:#018x}, {:#018x}, {:#018x}]",
        actual[0], actual[1], actual[2]
    );
}

/// Digests of the serde JSON of every `force-soa-b64` suggestion's
/// synthesized layout under CUDA 1.0, 1.1 and 2.2 (`null` for a
/// schedule-only suggestion): the host-side allocation plan
/// `kernel-lint --fix` emits.
const SYNTHESIZED_LAYOUT_PINS: [u64; 3] =
    [0x306d3abf90747953, 0x306d3abf90747953, 0x306d3abf90747953];

#[test]
fn force_soa_b64_synthesized_layouts_are_pinned() {
    let actual = force_soa_b64_reports().each_ref().map(|r| {
        r.suggestions.iter().fold(FNV_OFFSET, |h, s| {
            let layout = s.rewrite.as_ref().map(synthesized_layout);
            let json = serde_json::to_string(&layout).expect("layouts serialize");
            fnv1a(fnv1a(h, s.label.as_bytes()), json.as_bytes())
        })
    });
    assert_eq!(
        actual, SYNTHESIZED_LAYOUT_PINS,
        "synthesized layout digests moved: [{:#018x}, {:#018x}, {:#018x}]",
        actual[0], actual[1], actual[2]
    );
}

/// A kernel whose registers keep changing between one abstract value on
/// every lane and a value per lane, launched with 48-thread blocks so the
/// second warp has 16 dead lanes:
///
/// * `acc` starts the same on every lane; an exact `If` on `tid < 20`
///   rewrites it on part of the first warp (and on all live lanes of the
///   second);
/// * every lane loads the same global word, and an `If` on a predicate
///   computed from it walks both arms and joins them;
/// * every lane stores to shared word 0 (a race), then after a barrier
///   every lane reads it back (a broadcast);
/// * a `While` whose bound is that loaded word runs the fixpoint with
///   widening, loading shared and global words at data-dependent
///   addresses inside.
fn uniform_transitions_kernel() -> gpu_sim::ir::Kernel {
    let mut b = KernelBuilder::new("uniform_transitions");
    b.shared_mem(256);
    let inp = b.param();
    let out = b.param();
    let tid = b.special(SpecialReg::TidX);
    let acc = b.mov(Operand::ImmU(3));
    let low = b.setp(CmpOp::ULt, tid.into(), Operand::ImmU(20));
    b.if_else(
        low,
        |b| b.alu_into(acc, AluOp::IAdd, acc.into(), tid.into()),
        |b| b.alu_into(acc, AluOp::IMul, acc.into(), Operand::ImmU(2)),
    );
    let g = b.ld(MemSpace::Global, inp, 0, 1)[0];
    let small = b.setp(CmpOp::ULt, g.into(), Operand::ImmU(100));
    let sel = b.mov(Operand::ImmU(8));
    b.if_else(
        small,
        |b| b.alu_into(sel, AluOp::IAdd, sel.into(), Operand::ImmU(4)),
        |b| b.alu_into(sel, AluOp::IAdd, sel.into(), Operand::ImmU(12)),
    );
    let zero = b.mov(Operand::ImmU(0));
    b.st(MemSpace::Shared, zero, 0, vec![acc.into()]);
    b.sync();
    let s = b.ld(MemSpace::Shared, zero, 0, 1)[0];
    let i = b.mov(Operand::ImmU(0));
    b.do_while(|b| {
        b.alu_into(i, AluOp::IAdd, i.into(), Operand::ImmU(1));
        let sa = b.imul(i.into(), Operand::ImmU(4));
        let v = b.ld(MemSpace::Shared, sa, 0, 1)[0];
        b.alu_into(acc, AluOp::IAdd, acc.into(), v.into());
        let ga = b.mad_u(sel.into(), Operand::ImmU(4), inp.into());
        let w = b.ld(MemSpace::Global, ga, 0, 1)[0];
        b.alu_into(acc, AluOp::IAdd, acc.into(), w.into());
        b.setp(CmpOp::ULt, i.into(), s.into())
    });
    let oa = b.mad_u(tid.into(), Operand::ImmU(4), out.into());
    b.st(MemSpace::Global, oa, 0, vec![acc.into()]);
    b.st(MemSpace::Global, oa, 256, vec![sel.into()]);
    b.st(MemSpace::Global, oa, 512, vec![i.into()]);
    b.finish()
}

/// `uniform_transitions` digests under CUDA 1.0, 1.1 and 2.2.
const UNIFORM_TRANSITION_PINS: [u64; 3] =
    [0x49ff09fab59ab575, 0x9c8fce7dda5c1891, 0x0c68900656de87d5];

#[test]
fn uniform_and_per_lane_register_transitions_are_pinned() {
    let k = uniform_transitions_kernel();
    let actual = DriverModel::ALL.map(|d| {
        let cfg = AnalysisConfig::new(2, 48, vec![0x1000, 0x8000]).with_driver(d);
        report_digest(&analyze_kernel(&k, &cfg))
    });
    assert_eq!(
        actual, UNIFORM_TRANSITION_PINS,
        "uniform_transitions digests moved: [{:#018x}, {:#018x}, {:#018x}]",
        actual[0], actual[1], actual[2]
    );
}
