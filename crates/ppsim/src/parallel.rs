//! Multi-threaded execution of independent simulation trials.
//!
//! Experiments run many independent executions (different seeds, different
//! population sizes).  Trials are embarrassingly parallel, so the harness fans them
//! out over a fixed number of worker threads.  Results are returned in trial order
//! regardless of completion order.
//!
//! Work is distributed dynamically (an atomic cursor), so long trials do not
//! stall whole chunks; results are written through **per-slot** locks, so the
//! fan-out does not serialise on a single shared collection and scales with the
//! number of cores.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `trials` independent jobs on at most `threads` worker threads, returning the
/// results in trial order.
///
/// Each result is written to its own pre-allocated slot — there is no shared
/// results lock, so completion of cheap trials is never blocked behind another
/// thread's write.
///
/// # Panics
///
/// Panics if a worker thread panics; the panic of the job is propagated.
pub fn run_trials_with_threads<T, F>(trials: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if trials == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, trials);
    if threads == 1 {
        return (0..trials).map(&job).collect();
    }

    let next = AtomicUsize::new(0);
    // One slot per trial: a worker takes a trial index from the atomic cursor and
    // writes into the slot it now exclusively owns.  The per-slot mutexes are
    // never contended (each is locked exactly once); they exist only to satisfy
    // the borrow checker without `unsafe`.
    let slots: Vec<Mutex<Option<T>>> = (0..trials).map(|_| Mutex::new(None)).collect();

    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= trials {
                    break;
                }
                let out = job(i);
                *slots[i].lock() = Some(out);
            });
        }
    })
    // Joining surfaces a worker panic on the caller thread. ppcheck: allow(no-unwrap)
    .expect("a simulation worker thread panicked");

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                // Infallible by construction: each index is sent once. ppcheck: allow(no-unwrap)
                .expect("every trial index is processed exactly once")
        })
        .collect()
}

/// Apply `job(item, arg)` to every `(item, arg)` pair, splitting the items
/// into at most `threads` contiguous chunks with one scoped worker thread per
/// chunk.
///
/// Used by the sharded engine's within-epoch phase: the items are the shard
/// sub-simulators, the args their interaction allotments.  Chunking is static
/// (shards carry near-identical load by construction), the single-thread path
/// spawns nothing, and the outcome is independent of `threads` because the
/// jobs touch disjoint items.
///
/// # Panics
///
/// Panics if a worker thread panics; the panic of the job is propagated.
pub(crate) fn run_chunked<T, F>(items: &mut [T], args: &[u64], threads: usize, job: F)
where
    T: Send,
    F: Fn(&mut T, u64) + Sync,
{
    debug_assert_eq!(items.len(), args.len());
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        for (item, &a) in items.iter_mut().zip(args) {
            job(item, a);
        }
        return;
    }
    let per_chunk = items.len().div_ceil(threads);
    let job = &job;
    crossbeam::thread::scope(|scope| {
        for (chunk, chunk_args) in items.chunks_mut(per_chunk).zip(args.chunks(per_chunk)) {
            scope.spawn(move |_| {
                for (item, &a) in chunk.iter_mut().zip(chunk_args) {
                    job(item, a);
                }
            });
        }
    })
    // Joining surfaces a worker panic on the caller thread. ppcheck: allow(no-unwrap)
    .expect("a shard worker thread panicked");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_chunked_applies_every_job_once() {
        for threads in [1usize, 2, 3, 8, 16] {
            let mut items = vec![0u64; 10];
            let args: Vec<u64> = (0..10).collect();
            run_chunked(&mut items, &args, threads, |item, a| *item += a + 1);
            assert_eq!(items, (1..=10).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn run_chunked_handles_empty_and_single() {
        let mut items: Vec<u64> = Vec::new();
        run_chunked(&mut items, &[], 4, |_, _| unreachable!());
        let mut one = vec![7u64];
        run_chunked(&mut one, &[5], 4, |item, a| *item *= a);
        assert_eq!(one, vec![35]);
    }

    #[test]
    fn results_are_in_trial_order() {
        let out = run_trials_with_threads(100, 8, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_trials_returns_empty() {
        let out: Vec<u32> = run_trials_with_threads(0, 4, |_| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_path_matches_parallel_path() {
        let seq = run_trials_with_threads(25, 1, |i| i as u64 * 7 + 1);
        let par = run_trials_with_threads(25, 5, |i| i as u64 * 7 + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_trial_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let out = run_trials_with_threads(64, 8, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        let distinct: HashSet<usize> = out.into_iter().collect();
        assert_eq!(distinct.len(), 64);
    }

    #[test]
    fn uneven_job_durations_still_fill_every_slot() {
        // Dynamic scheduling: slow early trials must not prevent later ones from
        // being picked up by idle workers.
        let out = run_trials_with_threads(32, 4, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * i
        });
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }
}
