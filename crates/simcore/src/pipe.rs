//! Command-line output into a pipeline.

/// Restore the default `SIGPIPE` action, which the Rust runtime sets to
/// "ignore" so that a write to a closed pipe fails instead. `println!` turns
/// that failure into a panic; with the default action, a reader that stops
/// early (`gravit ladder | head`) ends the process quietly, as it does any
/// other filter in a pipeline. Call it first thing in `main`. A no-op off
/// Unix.
pub fn restore_default_sigpipe() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: `signal` with `SIG_DFL` installs no handler of ours; it
        // runs once, before any other thread exists.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}
