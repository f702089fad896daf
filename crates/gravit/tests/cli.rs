//! End-to-end tests of the `gravit` binary (the path a user actually takes).

use std::process::Command;

fn gravit() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gravit"))
}

#[test]
fn help_lists_all_subcommands() {
    let out = gravit().output().expect("run gravit");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["run", "ladder", "model", "render"] {
        assert!(text.contains(cmd), "help missing `{cmd}`");
    }
}

#[test]
fn ladder_prints_the_register_story() {
    let out = gravit().arg("ladder").output().expect("run gravit ladder");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SoAoaS+unroll"));
    assert!(text.contains("67%"));
    assert!(text.contains("50%"));
}

#[test]
fn run_record_render_pipeline() {
    let dir = std::env::temp_dir().join(format!("gravit_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rec = dir.join("rec.json");

    let out = gravit()
        .args([
            "run", "--n", "512", "--steps", "10", "--spawn", "disk", "--record",
        ])
        .arg(&rec)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("energy drift"), "missing diagnostics: {text}");
    assert!(rec.exists());

    let frames = dir.join("frames");
    let out = gravit()
        .args(["render", "--input"])
        .arg(&rec)
        .args(["--size", "64", "--out"])
        .arg(&frames)
        .output()
        .expect("render");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(frames.join("frame_0000.pgm").exists());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gpu_backend_runs_from_the_cli() {
    let out = gravit()
        .args(["run", "--n", "256", "--steps", "3", "--backend", "gpu"])
        .output()
        .expect("run gpu");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gpu-sim"), "backend label missing: {text}");
}

#[test]
fn dry_run_prints_the_memory_plan_without_running() {
    let out = gravit()
        .args([
            "run",
            "--n",
            "960",
            "--backend",
            "gpu",
            "--device-mem",
            "11712",
            "--dry-run",
        ])
        .output()
        .expect("dry run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("memory plan: n=960"), "{text}");
    assert!(text.contains("frame budget:"), "{text}");
    assert!(
        text.contains("PosMass4"),
        "per-buffer breakdown expected: {text}"
    );
    assert!(
        text.contains("mode: chunked, 128 bodies per chunk"),
        "{text}"
    );
    assert!(text.contains("degrade full -> chunked"), "{text}");
    assert!(!text.contains("done:"), "dry run must not simulate: {text}");

    // Suffixed capacities parse; an ample one plans full residency.
    let out = gravit()
        .args([
            "run",
            "--n",
            "960",
            "--backend",
            "gpu",
            "--device-mem",
            "64M",
            "--dry-run",
        ])
        .output()
        .expect("dry run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mode: full"), "{text}");

    // A malformed capacity is a usage error.
    let out = gravit()
        .args([
            "run",
            "--n",
            "64",
            "--backend",
            "gpu",
            "--device-mem",
            "lots",
            "--dry-run",
        ])
        .output()
        .expect("dry run");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn constrained_gpu_run_completes_with_chunked_attribution() {
    let out = gravit()
        .args([
            "run",
            "--n",
            "256",
            "--steps",
            "2",
            "--backend",
            "gpu",
            "--device-mem",
            "12K",
        ])
        .output()
        .expect("constrained run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("energy drift"), "run must complete: {text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("degrade full -> chunked"),
        "ladder must be reported: {err}"
    );
    assert!(!err.contains("panicked"), "never a panic: {err}");
}

#[test]
fn invalid_config_exits_2_with_a_readable_message() {
    let out = gravit()
        .args(["run", "--n", "16", "--steps", "1", "--dt", "0"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2), "config errors are usage errors");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("time step"),
        "message must name the problem: {err}"
    );
    assert!(!err.contains("panicked"), "never a panic: {err}");
}

#[test]
fn checkpoint_resume_finishes_bit_identical_to_uninterrupted_run() {
    let dir = std::env::temp_dir().join(format!("gravit_cli_ckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let common = [
        "--n", "128", "--spawn", "ball", "--seed", "5", "--dt", "0.01",
    ];

    // Reference: 12 steps uninterrupted, recorded.
    let ref_rec = dir.join("ref.json");
    let out = gravit()
        .args(["run", "--steps", "12"])
        .args(common)
        .args(["--record"])
        .arg(&ref_rec)
        .output()
        .expect("reference run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // "Killed" run: stops at step 6, leaving a checkpoint every 3 steps.
    let ckpt = dir.join("state.ckpt");
    let out = gravit()
        .args(["run", "--steps", "6"])
        .args(common)
        .args(["--checkpoint-every", "3", "--checkpoint"])
        .arg(&ckpt)
        .output()
        .expect("first half");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt.exists(), "checkpoint written");

    // Resume to the same total step count, recording the tail.
    let res_rec = dir.join("resumed.json");
    let out = gravit()
        .args(["run", "--steps", "12"])
        .args(common)
        .args(["--resume"])
        .arg(&ckpt)
        .args(["--record"])
        .arg(&res_rec)
        .output()
        .expect("resumed run");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("resumed from"));

    // The final recorded frame (step 10 = last multiple of 5) must agree
    // bit-for-bit between the two runs.
    let ref_json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&ref_rec).unwrap()).unwrap();
    let res_json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&res_rec).unwrap()).unwrap();
    let last = |v: &serde_json::Value| v["frames"].as_array().unwrap().last().unwrap().clone();
    let (a, b) = (last(&ref_json), last(&res_json));
    assert_eq!(a["step"], b["step"]);
    assert_eq!(
        a["positions"], b["positions"],
        "resumed trajectory must be bit-identical"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resuming_from_a_corrupt_checkpoint_exits_2() {
    let dir = std::env::temp_dir().join(format!("gravit_cli_badckpt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("bad.ckpt");
    std::fs::write(&ckpt, "GRAVITCKPT v1 crc=deadbeef len=4\n{}").unwrap();
    let out = gravit()
        .args(["run", "--n", "16", "--steps", "2", "--resume"])
        .arg(&ckpt)
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot resume"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn render_without_input_fails_cleanly() {
    let out = gravit().arg("render").output().expect("run render");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

#[test]
fn report_emits_valid_json() {
    let out = gravit().arg("report").output().expect("run report");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON report");
    assert_eq!(v["recommended_unroll"], 128);
    assert_eq!(v["ladder"].as_array().unwrap().len(), 6);
}

/// The deterministic tail of `gravit run`'s summary line (energy drift and
/// momentum; the wall-clock fields before it vary run to run).
fn run_physics(extra: &[&str]) -> String {
    let out = gravit()
        .args(["run", "--n", "64", "--steps", "3", "--seed", "9"])
        .args(extra)
        .output()
        .expect("run");
    assert!(
        out.status.success(),
        "{extra:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let at = text.find("energy drift").expect("summary line");
    text[at..].to_string()
}

#[test]
fn unknown_backend_or_spawn_exits_2_naming_the_accepted_values() {
    for (cmd, flag, value, accepted) in [
        ("run", "--backend", "gpuu", "cpu|par|bh|gpu"),
        ("run", "--spawn", "nope", "ball|disk|collision|plummer"),
        ("fleet", "--devices", "0", "device count >= 1"),
        ("fleet", "--slice", "four", "a step count"),
        ("fleet", "--queue-cap", "0", "queue length >= 1"),
        ("fleet", "--queue-cap", "eight", "queue length >= 1"),
        ("fleet", "--preempt-rate", "5", "probability in [0, 1]"),
        ("fleet", "--preempt-rate", "nan", "probability in [0, 1]"),
        ("fleet", "--preempt-rate", "often", "probability in [0, 1]"),
    ] {
        let out = gravit()
            .args([cmd, "--n", "16", "--steps", "1", flag, value])
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(value) && err.contains(accepted),
            "{flag} {value}: {err}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value} must not run");
    }
}

/// A number that does not parse, or that its flag's range refuses, exits 2
/// naming the accepted values instead of running with the default.
#[test]
fn bad_numbers_exit_2_naming_the_accepted_values() {
    let cases: &[(&[&str], &str, &str)] = &[
        (&["run", "--n", "many"], "many", "a body count"),
        (&["run", "--steps", "abc"], "abc", "a step count"),
        (&["run", "--dt", "fast"], "fast", "a number"),
        (&["run", "--seed", "-1"], "-1", "an unsigned integer"),
        (&["run", "--max-retries", "lots"], "lots", "a retry count"),
        (&["run", "--checkpoint-every", "2.5"], "2.5", "a step count"),
        (&["model", "--n", "0"], "0", "a body count >= 1"),
        (&["model", "--n", "1e5"], "1e5", "a body count >= 1"),
        (
            &["render", "--input", "none.json", "--size", "0"],
            "0",
            "a pixel size >= 1",
        ),
        (
            &["render", "--input", "none.json", "--size", "big"],
            "big",
            "a pixel size >= 1",
        ),
        (&["fleet", "--jobs", "x"], "x", "a job count"),
        (&["fleet", "--ticks", "-3"], "-3", "a tick count"),
    ];
    for (args, value, accepted) in cases {
        let out = gravit().args(*args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{value:?}")) && err.contains(accepted),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?} must not run");
    }
}

#[test]
fn par_and_disk_are_the_defaults_and_selectable_by_name() {
    let out = gravit()
        .args(["run", "--n", "16", "--steps", "1", "--backend", "par"])
        .output()
        .expect("run");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("backend=cpu-parallel"));

    let default = run_physics(&[]);
    assert_eq!(
        default,
        run_physics(&["--backend", "par", "--spawn", "disk"])
    );
    assert_ne!(default, run_physics(&["--spawn", "ball"]));
}
