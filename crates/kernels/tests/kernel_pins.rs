//! Golden pins for the kernel IR itself.
//!
//! The other pins (`engine_pins`, `analyze_pins`, the `results/*.csv`
//! tables) see only what is derived from a kernel: cycles, findings,
//! proofs. This file pins an FNV-1a digest of each kernel's `Debug`
//! rendering — its name, parameter count, register numbering, shared-memory
//! size and every statement in order — so a builder refactor that claims to
//! emit the same kernels can be checked directly:
//!
//! * every kernel in `workspace_lint_targets()`;
//! * every kernel in `workspace_pass_targets()`;
//! * both kernels of every `layout_ladder_targets()` proof;
//! * `build_force_kernel` and `build_chunk_force_kernel` at every `OptLevel`;
//! * `build_integrate_kernel` at every `Layout`.

use std::collections::BTreeMap;

use gpu_kernels::lintset::workspace_lint_targets;
use gpu_kernels::verifyset::{layout_ladder_targets, workspace_pass_targets};
use gpu_kernels::{build_chunk_force_kernel, build_force_kernel, build_integrate_kernel, OptLevel};
use gpu_sim::ir::Kernel;
use particle_layouts::Layout;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every pinned kernel's digest, keyed by kernel name. A name that two
/// sources build must come out identical from both.
fn digests() -> BTreeMap<String, u64> {
    let mut kernels: Vec<Kernel> = Vec::new();
    kernels.extend(workspace_lint_targets().into_iter().map(|t| t.kernel));
    kernels.extend(workspace_pass_targets().into_iter().map(|t| t.kernel));
    for t in layout_ladder_targets() {
        kernels.push(t.a);
        kernels.push(t.b);
    }
    for level in OptLevel::ALL {
        kernels.push(build_force_kernel(level.config()));
        kernels.push(build_chunk_force_kernel(level.config()));
    }
    kernels.extend(Layout::ALL.into_iter().map(build_integrate_kernel));

    let mut map = BTreeMap::new();
    for k in kernels {
        let d = fnv1a(format!("{k:?}").as_bytes());
        if let Some(prev) = map.insert(k.name.clone(), d) {
            assert_eq!(prev, d, "{}: two builds of one name differ", k.name);
        }
    }
    map
}

/// `(kernel name, FNV-1a of its Debug rendering)`, recorded from the
/// builders before they were rebuilt on shared emitters.
const PINS: &[(&str, u64)] = &[
    ("banks_s1", 0xe472e940ad9196b7),
    ("banks_s16", 0x22b5f47a1d3f2853),
    ("banks_s2", 0x937128149e07dbfd),
    ("banks_s3", 0x3bf17b83dd144eab),
    ("banks_s4", 0x1c81ab2c82340785),
    ("banks_s8", 0x51cac099727741e5),
    ("bh_b64_d48", 0x30832c85ac7ec9ba),
    ("force_AoS_b192_u1", 0x2e8890a9946bd6ac),
    ("force_AoS_b32_u1", 0x8988d2f98618e18b),
    ("force_AoaS_b192_u1", 0x148c5959f238c8f2),
    ("force_AoaS_b32_u1", 0x0935ec60324957cf),
    ("force_SoA_b192_u1", 0x6a2a0d9ddefb9e9d),
    ("force_SoA_b32_u1", 0x54c014cb5d089730),
    ("force_SoAoaS_b128_u128_icm", 0xbe42ddabfdc71f59),
    ("force_SoAoaS_b192_u1", 0x1b1d07b97e47edf7),
    ("force_SoAoaS_b192_u192", 0xcb209a81d2ce6681),
    ("force_SoAoaS_b32_u1", 0x1c4ac6eb59d9f718),
    ("force_chunk_AoS_b192_u1", 0x3f83f5354773457b),
    ("force_chunk_AoaS_b192_u1", 0x084f2a4bd67877a5),
    ("force_chunk_SoA_b192_u1", 0x1bbcf3e7c8d4afd7),
    ("force_chunk_SoAoaS_b128_u128_icm", 0x39e891a973c3cce9),
    ("force_chunk_SoAoaS_b192_u1", 0x11c82ffff46a225a),
    ("force_chunk_SoAoaS_b192_u192", 0x185a3969d7a4010c),
    ("force_chunk_unopt_b192_u1", 0xbfbc75de0e57f02e),
    ("force_prefetch_b128_u128", 0x169be3d0a419e60c),
    ("force_prefetch_b32_u1", 0x93431a46a1f6dada),
    ("force_unopt_b192_u1", 0x3ac80a35c9c6f777),
    ("force_unopt_b32_u1", 0x7acfd6822d5feddc),
    ("integrate_AoS", 0xb1c3ccda96e9eba8),
    ("integrate_AoaS", 0x5907466ea8120f3e),
    ("integrate_SoA", 0x390c84350257cc3b),
    ("integrate_SoAoaS", 0x8fca6763795c362c),
    ("integrate_unopt", 0x5a31f5798e5dabe7),
    ("membench_AoS", 0x009cc36225cce0c8),
    ("membench_AoaS", 0x6e18afb0e92d2b9a),
    ("membench_SoA", 0x479b286b611f2262),
    ("membench_SoAoaS", 0x94f7292f110555bd),
    ("membench_unopt", 0xb61162fb5fd080f6),
    ("membench_unopt_tex", 0x091d49c885b5528c),
];

#[test]
fn every_kernel_matches_its_pin() {
    let got = digests();
    let mut diffs = Vec::new();
    for &(name, want) in PINS {
        match got.get(name) {
            Some(&d) if d == want => {}
            Some(&d) => diffs.push(format!("{name}: 0x{d:016x} (pinned 0x{want:016x})")),
            None => diffs.push(format!("{name}: no longer built")),
        }
    }
    for name in got.keys() {
        if !PINS.iter().any(|&(n, _)| n == name) {
            diffs.push(format!("{name}: built but not pinned"));
        }
    }
    assert!(diffs.is_empty(), "kernel IR moved:\n{}", diffs.join("\n"));
}
