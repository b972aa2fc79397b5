//! Parallel campaign executor.
//!
//! Every experiment in the evaluation campaign decomposes into a grid
//! of *independent* simulations — (workload, scheduler, seed) cells
//! that share no mutable state. This module fans such grids across OS
//! threads with [`std::thread::scope`] (no external dependencies) while
//! keeping results **deterministic**: [`parallel_map`] returns outputs
//! in input order regardless of which worker finished first, so any
//! downstream accumulation (including floating-point sums) happens in
//! exactly the sequence the sequential loop would have used. A campaign
//! run with `NUAT_JOBS=1` and one with `NUAT_JOBS=16` produce
//! byte-identical reports.
//!
//! Worker count defaults to the machine's available parallelism and can
//! be overridden with the `NUAT_JOBS` environment variable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use for `job_count` independent jobs.
///
/// Resolution order: the `NUAT_JOBS` environment variable if set to a
/// positive integer, otherwise [`std::thread::available_parallelism`],
/// clamped to `job_count` (spawning more workers than jobs is waste).
/// Always at least 1.
pub fn worker_count(job_count: usize) -> usize {
    let requested = std::env::var("NUAT_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    requested.clamp(1, job_count.max(1))
}

/// Applies `f` to every input, fanning the work across scoped threads,
/// and returns the outputs **in input order**.
///
/// Work distribution is a shared atomic cursor: each worker repeatedly
/// claims the next unclaimed index, so long and short jobs balance
/// without static chunking. Output slots are per-index, which is what
/// makes the result order (and therefore any order-sensitive fold the
/// caller performs) independent of scheduling.
///
/// With one worker — one job, one CPU, or `NUAT_JOBS=1` — no threads
/// are spawned and `f` runs inline, which keeps the function usable
/// from contexts that must stay single-threaded.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope joins all workers first).
pub fn parallel_map<T, O, F>(inputs: &[T], f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    let workers = worker_count(inputs.len());
    if workers <= 1 {
        return inputs.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(input) = inputs.get(i) else { break };
                let out = f(input);
                *slots[i]
                    .lock()
                    .expect("no prior panic holding the slot lock") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no prior panic holding the slot lock")
                .expect("every index below the cursor was filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<usize> = (0..257).collect();
        let out = parallel_map(&inputs, |&i| i * 3);
        assert_eq!(out, inputs.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn unbalanced_jobs_still_land_in_their_slots() {
        // Make early indices much slower than late ones so workers
        // finish out of order; the result must still be index-ordered.
        let inputs: Vec<u64> = (0..32).collect();
        let out = parallel_map(&inputs, |&i| {
            let spin = if i < 4 { 200_000 } else { 10 };
            let mut acc = i;
            for _ in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(idx as u64, *i);
        }
    }

    #[test]
    fn worker_count_is_clamped_to_jobs() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1000) >= 1);
    }

    #[test]
    fn single_worker_runs_inline_without_spawning() {
        // A single job clamps the worker count to 1 (the same path
        // `NUAT_JOBS=1` takes, without mutating process-global env from
        // a test): the closure must execute on the calling thread, not
        // a spawned one.
        let caller = std::thread::current().id();
        let out = parallel_map(&[42u64], |&x| (x, std::thread::current().id()));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 42);
        assert_eq!(
            out[0].1, caller,
            "single-worker fallback must not spawn a thread"
        );
    }
}
