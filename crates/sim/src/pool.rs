//! The one worker pool: `n` independent jobs, claimed by index.
//!
//! Dense shards (`hack-core`) and campaign jobs (`hack-campaign`) are
//! both "run job `i`, put the result in slot `i`". Workers claim the
//! next unclaimed index from one shared counter, so a long job holds no
//! other back, and results come back **by job index**, never by
//! completion order — which is why one thread and sixteen produce
//! identical output.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `job(0)`, …, `job(n_jobs - 1)` on up to `threads` workers
/// (`0` = [`std::thread::available_parallelism`]) and return the results
/// in index order. A lone worker is the calling thread running the jobs
/// in index order — the serial reference parallel runs must match. A
/// job's panic resumes on the caller once the other workers are done.
pub fn run<T: Send>(n_jobs: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    };
    // Relaxed: the counter hands out indices and publishes nothing;
    // results cross threads through `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_jobs {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let workers = threads.min(n_jobs);
    let mut done = std::thread::scope(|s| {
        if workers <= 1 {
            return work();
        }
        // The caller only joins: running jobs on it too measured
        // slower on the 60-job campaign ruler.
        let spawned: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        spawned
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::run;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Job 0 cannot finish until every other job has: whatever the
    /// thread count, the others are claimed past it, and the results
    /// still come back in index order.
    #[test]
    fn results_in_index_order_when_job_zero_outlasts_all_others() {
        const N: usize = 9;
        for threads in [2, 8] {
            let finished = AtomicUsize::new(0);
            let out = run(N, threads, |i| {
                if i == 0 {
                    while finished.load(Ordering::SeqCst) < N - 1 {
                        std::thread::yield_now();
                    }
                } else {
                    finished.fetch_add(1, Ordering::SeqCst);
                }
                i * i
            });
            assert_eq!(out, (0..N).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    /// One worker is the calling thread running the jobs in index order.
    #[test]
    fn one_thread_runs_inline_in_index_order() {
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let out = run(5, 1, |i| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
            i + 10
        });
        assert_eq!(out, [10, 11, 12, 13, 14]);
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_jobs_and_more_threads_than_jobs() {
        for threads in [0, 1, 8] {
            assert_eq!(run(0, threads, |i| i), Vec::<usize>::new());
            assert_eq!(run(3, threads, |i| i), [0, 1, 2]);
        }
    }

    #[test]
    fn a_job_panic_reaches_the_caller() {
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                run(6, threads, |i| {
                    assert_ne!(i, 4, "job four failed");
                    i
                })
            });
            let panic = caught.expect_err("the job's panic must propagate");
            let msg = panic.downcast_ref::<String>().expect("assert message");
            assert!(msg.contains("job four failed"), "payload lost: {msg}");
        }
    }
}
