//! Parallel simulation driver: fan a batch of independent jobs over a
//! fixed number of worker threads.
//!
//! Replaying one trace through one allocator is strictly sequential —
//! the heap state at event *n* depends on every earlier event — but a
//! *suite* of (trace × allocator × predictor) combinations is
//! embarrassingly parallel: no job reads another's state. [`run_jobs`]
//! exploits exactly that shape with scoped threads pulling from a
//! shared work queue, so a `lifepred simulate --jobs N` or `lifepred
//! report` run scales with cores while every individual simulation
//! stays deterministic. It is the workspace's one thread pool.
//!
//! Results come back **in input order**, whatever order the workers
//! finished in, so callers see output identical to a sequential run.
//! Observability is per-job by construction: each job records into its
//! own registry and the caller folds the snapshots together afterwards
//! (see `Snapshot::merge` in `lifepred-obs`).

use std::collections::VecDeque;
use std::sync::Mutex;

/// Runs `f` over every item of `items` on up to `jobs` worker threads,
/// returning the results in input order.
///
/// `f` receives the item's input index alongside the item. With `jobs
/// <= 1` (or fewer than two items) everything runs inline on the
/// calling thread — no threads are spawned, which keeps the `--jobs 1`
/// path byte-identical to the pre-driver sequential code.
///
/// # Panics
///
/// If a job panics, the panic is propagated to the caller once all
/// workers have stopped (the contract of [`std::thread::scope`]).
pub fn run_jobs<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                // Pop under the lock, run outside it: the queue is only
                // contended for the microseconds of a pop.
                let next = queue.lock().expect("work queue poisoned").pop_front();
                let Some((i, item)) = next else { break };
                *results[i].lock().expect("result slot poisoned") = Some(f(i, item));
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = run_jobs(items, 8, |i, item| {
            assert_eq!(i, item);
            // Stagger finish times so out-of-order completion is real.
            std::thread::sleep(std::time::Duration::from_micros(((item * 7) % 13) as u64));
            item * 2
        });
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_runs_inline() {
        let main_thread = std::thread::current().id();
        let out = run_jobs(vec![1, 2, 3], 1, |_, item| {
            assert_eq!(std::thread::current().id(), main_thread);
            item + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn worker_count_is_capped_by_items() {
        // Two items never need more than two workers; the rest of the
        // requested pool must not spin on an empty queue.
        let ran = AtomicUsize::new(0);
        let out = run_jobs(vec![10, 20], 64, |_, item| {
            ran.fetch_add(1, Ordering::Relaxed);
            item
        });
        assert_eq!(out, vec![10, 20]);
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = run_jobs(Vec::<u32>::new(), 4, |_, x| x);
        assert!(out.is_empty());
    }
}
