//! Golden pins for the advisors' outputs.
//!
//! Each value is an FNV-1a digest of what a user sees:
//!
//! * the optimization report `gravit report` prints (its pretty JSON);
//! * the `Debug` form of the layout plan for the Gravit particle and for
//!   the SPH and MD-atom schemas of the `layout_explorer` example, which
//!   cover the warm class and 3-word fields;
//! * the `Debug` form of the unroll advice for the SoAoaS force kernel at
//!   block 128, with and without ICM.
//!
//! A refactor of the layout or unroll advisor that claims identical
//! behaviour must pass these unedited.

use gpu_kernels::unroll_advisor::advise_unroll;
use gpu_sim::{DeviceConfig, DriverModel};
use gravit_app::report::build_report;
use particle_layouts::layout_advisor::{optimize_layout, AccessFreq, FieldSpec, StructSchema};
use particle_layouts::Layout;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(text: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn sph_particle() -> StructSchema {
    StructSchema::new(vec![
        FieldSpec::scalar("x", AccessFreq::Hot),
        FieldSpec::scalar("y", AccessFreq::Hot),
        FieldSpec::scalar("z", AccessFreq::Hot),
        FieldSpec::scalar("h", AccessFreq::Hot),
        FieldSpec::scalar("density", AccessFreq::Warm),
        FieldSpec::scalar("pressure", AccessFreq::Warm),
        FieldSpec::scalar("vx", AccessFreq::Warm),
        FieldSpec::scalar("vy", AccessFreq::Warm),
        FieldSpec::scalar("vz", AccessFreq::Warm),
        FieldSpec::scalar("temperature", AccessFreq::Cold),
        FieldSpec::scalar("entropy", AccessFreq::Cold),
    ])
}

fn md_atom() -> StructSchema {
    StructSchema::new(vec![
        FieldSpec::wide("position", 3, AccessFreq::Hot),
        FieldSpec::scalar("charge", AccessFreq::Hot),
        FieldSpec::wide("velocity", 3, AccessFreq::Warm),
        FieldSpec::scalar("type_id", AccessFreq::Warm),
        FieldSpec::wide("force_accum", 3, AccessFreq::Warm),
        FieldSpec::scalar("flags", AccessFreq::Cold),
    ])
}

#[test]
fn the_optimization_report_is_pinned() {
    let report = build_report(
        &DeviceConfig::g8800gtx(),
        DriverModel::Cuda10,
        &StructSchema::gravit_particle(),
    );
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    assert_eq!(fnv1a(&json), 0x875af5a471563312, "{json}");
}

#[test]
fn layout_plans_are_pinned() {
    for (name, schema, pin) in [
        (
            "gravit",
            StructSchema::gravit_particle(),
            0xf88dcf6e9f3c1771,
        ),
        ("sph", sph_particle(), 0xc2acd7bcf3b12b90),
        ("md", md_atom(), 0x7872000c7626c071),
    ] {
        let plan = format!("{:?}", optimize_layout(&schema));
        assert_eq!(fnv1a(&plan), pin, "{name}: {plan}");
    }
}

#[test]
fn unroll_advice_is_pinned() {
    let dev = DeviceConfig::g8800gtx();
    for (icm, pin) in [(false, 0x25a48eb956636f0b), (true, 0x40051b25c911d1c9)] {
        let advice = format!("{:?}", advise_unroll(&dev, Layout::SoAoaS, 128, icm));
        assert_eq!(fnv1a(&advice), pin, "icm {icm}: {advice}");
    }
}
