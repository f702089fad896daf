//! Golden pins for the lint gate's output: an FNV-1a digest of what
//! `kernel-lint --driver all` prints, as text and as `--json`, with its exit
//! code. The text is every workspace lint target's report under every
//! driver plus the layout and pass advice attached to it; the JSON adds the
//! advice's layout plans. `--suggest --driver all --json` is pinned the same
//! way. A change to the analyzer or to the advice that
//! claims identical output must pass these unedited.

use std::process::Command;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of stdout and the exit code of one `kernel-lint` run.
fn run(args: &[&str]) -> (u64, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_kernel-lint"))
        .args(args)
        .output()
        .expect("run kernel-lint");
    (fnv1a(&out.stdout), out.status.code())
}

#[test]
fn every_driver_text_report_is_pinned() {
    assert_eq!(run(&["--driver", "all"]), (0x0189b43941aad4e5, Some(0)));
}

#[test]
fn every_driver_json_report_is_pinned() {
    assert_eq!(
        run(&["--driver", "all", "--json"]),
        (0x6982407fcb36f4f7, Some(0))
    );
}

/// `--suggest --driver all --json`: every synthesis target's report under
/// every driver, with its suggested kernels, rewrites and certificates.
#[test]
fn every_driver_suggest_json_is_pinned() {
    assert_eq!(
        run(&["--suggest", "--driver", "all", "--json"]),
        (0x82c9508e6ca05684, Some(0))
    );
}
