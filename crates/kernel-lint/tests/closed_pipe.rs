//! `kernel-lint` writes megabytes of JSON; a reader that closes the pipe
//! after a few bytes (`kernel-lint --driver all --json | head -c 10`) must
//! end it quietly, not make it panic with "failed printing to stdout".

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn a_reader_that_closes_early_ends_the_run_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kernel-lint"))
        .args(["--driver", "all", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start kernel-lint");
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut head = [0u8; 10];
    stdout.read_exact(&mut head).expect("the first 10 bytes");
    // Close the pipe with ~2 MB still to write.
    drop(stdout);
    let out = child.wait_with_output().expect("wait for kernel-lint");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_ne!(out.status.code(), Some(101), "stderr: {stderr}");
}
