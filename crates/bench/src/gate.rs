//! What the bench gates (`simperf`, `fleet`, `chaos`, `pressure`,
//! `table_lint_validation`) share: flag lookup, the FNV-1a checksum behind
//! their host-independent witnesses, the `--check-against` baseline loader,
//! best-of-N timing and the wall-time envelope.

use std::fmt;
use std::time::Instant;

/// FNV-1a offset basis: the state to start a checksum from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the FNV-1a state `h`.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The value following `name` in `args`, if both are present.
pub fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The committed baseline report named by `--check-against`, if given.
/// Call it before the run writes its fresh report over the same path.
///
/// # Panics
/// If the file cannot be read or parsed: a gate asked to compare must not
/// silently pass.
pub fn baseline<T: serde::Deserialize>(args: &[String]) -> Option<T> {
    flag(args, "--check-against").map(|p| {
        let text =
            std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("--check-against {p}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("--check-against {p}: {e}"))
    })
}

/// Best-of-`reps` wall time of `f` in milliseconds, with the result of its
/// last run. Interference only ever adds time, so the minimum of repeats is
/// the least noisy estimate of a deterministic call's intrinsic cost; the
/// result is returned so callers measure the same call they use.
///
/// # Panics
/// If `reps` is 0.
pub fn best_of<T>(reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(v);
    }
    (best, out.expect("best_of needs at least one rep"))
}

/// A wall-time regression envelope: a fresh time regresses when it exceeds
/// `factor` × the committed time plus `slack_ms` (the slack keeps scheduler
/// jitter from tripping short rows). Displays as e.g. `1.2x + 50 ms`.
#[derive(Debug)]
pub struct Envelope {
    /// Tolerated growth over the baseline.
    pub factor: f64,
    /// Absolute slack, milliseconds.
    pub slack_ms: f64,
}

impl Envelope {
    /// Whether `new_ms` regressed past the envelope around `baseline_ms`.
    pub fn regressed(&self, baseline_ms: f64, new_ms: f64) -> bool {
        new_ms > self.factor * baseline_ms + self.slack_ms
    }
}

impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x + {} ms", self.factor, self.slack_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_returns_the_minimum_and_the_last_result() {
        let mut calls = 0u32;
        let (ms, last) = best_of(3, || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            calls
        });
        assert_eq!((calls, last), (3, 3));
        assert!(
            ms < 30.0,
            "the slow first rep must not be the best: {ms} ms"
        );
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b"", FNV_OFFSET), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", FNV_OFFSET), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn flag_reads_the_following_value() {
        let args: Vec<String> = ["--n", "64", "--json"].map(String::from).into();
        assert_eq!(flag(&args, "--n").as_deref(), Some("64"));
        assert_eq!(flag(&args, "--json"), None);
        assert_eq!(flag(&args, "--seed"), None);
    }

    #[test]
    fn envelope_bounds_and_label() {
        let e = Envelope {
            factor: 1.2,
            slack_ms: 50.0,
        };
        assert!(!e.regressed(100.0, 169.0));
        assert!(e.regressed(100.0, 171.0));
        assert_eq!(e.to_string(), "1.2x + 50 ms");
        let e = Envelope {
            factor: 2.0,
            slack_ms: 5.0,
        };
        assert_eq!(e.to_string(), "2x + 5 ms");
    }
}
