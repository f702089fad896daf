//! Pass-composition validation (Sec. IV-A ordering): both orders of
//! LICM ∘ unroll are *proved* equivalent to the rolled kernel, and the
//! advisor's licm-before-unroll preference is grounded in the register
//! ladder the paper exploits — 18 regs rolled, 17 after a bare full unroll,
//! 16 when invariants are hoisted first (the 17→16 occupancy trick).

use gpu_kernels::force::{build_force_kernel, ForceKernelConfig};
use gpu_kernels::unroll_advisor::advise_unroll;
use gpu_sim::analyze::verify::{verify_pass, PassId, VerifyConfig};
use gpu_sim::ir::passes::{licm, unroll_innermost};
use gpu_sim::ir::regalloc::register_demand;
use gpu_sim::DeviceConfig;
use particle_layouts::Layout;

fn regs(unroll: u32, icm: bool) -> u16 {
    let k = build_force_kernel(ForceKernelConfig {
        layout: Layout::SoAoaS,
        block: 128,
        unroll,
        icm,
    });
    register_demand(&k).regs_per_thread
}

#[test]
fn the_register_ladder_is_18_17_16() {
    assert_eq!(regs(1, false), 18, "rolled baseline");
    assert_eq!(regs(128, false), 17, "full unroll drops the loop counter");
    assert_eq!(
        regs(128, true),
        16,
        "hoisting before unrolling frees one more"
    );
}

#[test]
fn licm_before_unroll_needs_fewer_registers_than_after() {
    let base = build_force_kernel(ForceKernelConfig {
        layout: Layout::SoAoaS,
        block: 128,
        unroll: 1,
        icm: false,
    });
    let licm_first = unroll_innermost(&licm(&base), 128);
    let unroll_first = licm(&unroll_innermost(&base, 128));
    assert_eq!(register_demand(&licm_first).regs_per_thread, 16);
    assert_eq!(register_demand(&unroll_first).regs_per_thread, 17);
}

#[test]
fn both_composition_orders_are_proved_equivalent() {
    let cfg = ForceKernelConfig {
        layout: Layout::SoAoaS,
        block: 32,
        unroll: 1,
        icm: false,
    };
    let k = build_force_kernel(cfg);
    let mut params: Vec<u32> = (0..cfg.layout.buffers().len() as u32)
        .map(|i| 0x1_0000 * (i + 1))
        .collect();
    params.push(0x20_0000); // out
    params.push(64); // n = grid * block
    params.push(0.5f32.to_bits()); // eps
    params.push(0); // smem0
    let vcfg = VerifyConfig::new(2, 32, params);
    for pass in [PassId::LicmThenUnroll(32), PassId::UnrollThenLicm(32)] {
        let r = verify_pass(&k, pass, &vcfg);
        assert!(r.is_proved(), "{}: {r}", pass.label());
    }
}

#[test]
fn the_advisor_recommends_licm_plus_full_unroll() {
    let dev = DeviceConfig::g8800gtx();
    let with_icm = advise_unroll(&dev, Layout::SoAoaS, 128, true);
    let without = advise_unroll(&dev, Layout::SoAoaS, 128, false);
    assert_eq!(with_icm.best().factor, 128);
    assert_eq!(
        with_icm.best().regs,
        16,
        "licm-first reaches the 16-reg point"
    );
    assert_eq!(without.best().regs, 17, "unroll alone stops at 17");
    assert!(
        with_icm.best().occupancy.active_warps >= without.best().occupancy.active_warps,
        "the freed register must never cost occupancy"
    );
}
