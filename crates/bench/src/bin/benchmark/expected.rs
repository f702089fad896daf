//! Committed output digests (FNV-1a). A run whose output digest differs
//! from these fails. `FRAME_N4096` and the two fleet digests hold for the
//! default seed only (their inputs come from the seed); the suggestion and
//! Fig. 12 digests hold for every seed. Re-record a value only with a
//! change that is meant to alter that output.

/// Body state after 8 steps of `frame_n4096`.
pub const FRAME_N4096: u64 = 0x4d92_9227_7284_3ed6;

/// `fleet_quiet`: final states of jobs 0..32 and events before tick 64.
pub const FLEET_QUIET: u64 = 0xd7df_46d9_12df_c181;

/// `fleet_chaos`: final states of jobs 0..32 and events before tick 64.
pub const FLEET_CHAOS: u64 = 0xa3fe_1586_2c57_3894;

/// `suggest_force`: one pass of synthesis over every target and driver.
pub const SUGGEST_FORCE: u64 = 0x22c8_cfe1_d27f_fec5;

/// `model_fig12`: each Fig. 12 column (particle count, digest).
pub const MODEL_FIG12: [(u32, u64); 6] = [
    (40_000, 0x8c97_4963_2608_0d67),
    (100_000, 0x6dce_9547_9a53_3663),
    (200_000, 0x14ec_62de_584b_0e75),
    (400_000, 0x0fd8_74a1_3eac_a388),
    (700_000, 0xab64_3f8f_e4b2_e0c7),
    (1_000_000, 0xd46a_8084_ac55_1870),
];
