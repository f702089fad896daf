//! The workspace's one way to run work in parallel.
//!
//! [`map_indexed`] fans the indices `0..n` out across scoped worker threads
//! that pull them from a shared atomic counter, and returns the results in
//! index order. Every parallel loop in the workspace — the CPU force solvers
//! and both simulated-GPU executors — goes through it, so results never
//! depend on which worker computed which index.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Host threads available to this process (`available_parallelism`, at
/// least 1).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(0..n).map(f)` on up to `threads.min(n)` scoped workers, results in
/// index order.
///
/// Workers take the next unclaimed index from a shared counter, so uneven
/// items balance themselves. With `threads <= 1` (or `n <= 1`) everything
/// runs on the calling thread. A panic in a worker is re-raised on the
/// caller with its original payload.
pub fn map_indexed<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut produced = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break produced;
            }
            produced.push((i, f(i)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        for h in handles {
            match h.join() {
                Ok(produced) => {
                    for (i, v) in produced {
                        slots[i] = Some(v);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|v| v.expect("every index is claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_index_order() {
        for n in [0, 1, 7, 1000] {
            for threads in [0, 1, 2, 8] {
                let out = map_indexed(n, threads, |i| i * 3 + 1);
                assert_eq!(out.len(), n, "n {n}, threads {threads}");
                for (i, v) in out.iter().enumerate() {
                    assert_eq!(*v, i * 3 + 1, "n {n}, threads {threads}, index {i}");
                }
            }
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            map_indexed(16, 2, |i| {
                if i == 5 {
                    panic!("item five failed");
                }
                i
            })
        });
        let payload = caught.expect_err("the worker panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item five failed"));
    }

    #[test]
    fn two_workers_run_at_once() {
        // Items 0 and 1 each block until the other arrives: this finishes
        // only if two workers really run concurrently.
        let barrier = Barrier::new(2);
        let out = map_indexed(4, 2, |i| {
            if i < 2 {
                barrier.wait();
            }
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }
}
