//! Deterministic parallel execution of independent simulation jobs.
//!
//! The paper's evaluation is a design-space sweep: every `(scheme,
//! benchmark, configuration)` cell is a fully independent, deterministic
//! simulation, so the sweep is embarrassingly parallel. [`par_map`] runs
//! such a job list across threads while keeping the *output* bit-identical
//! to a sequential run:
//!
//! * jobs are claimed from a shared [`AtomicUsize`] cursor (no work
//!   stealing, no channels — claiming is one `fetch_add`);
//! * every worker tags its results with the job index and the results are
//!   put back in index order, so output ordering never depends on thread
//!   interleaving;
//! * each job's simulation is seeded and self-contained, so the values
//!   themselves cannot depend on scheduling either.
//!
//! The worker count comes from the `NIM_JOBS` environment variable
//! (default: [`std::thread::available_parallelism`]). The calling thread
//! is always a worker, so `jobs` workers spawn `jobs − 1` helper threads
//! and `NIM_JOBS=1` runs every job on the caller, in index order. Tools
//! that compare parallel and sequential runs in-process (nimbench, the
//! determinism test) can pin the count with [`set_jobs_override`] instead
//! of mutating the environment.
//!
//! ```
//! use nim_core::parallel::par_map;
//!
//! let squares = par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Process-wide override for the worker count; 0 means "not set, consult
/// `NIM_JOBS` / `available_parallelism`".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Pins the worker count for subsequent [`par_map`] calls, bypassing the
/// `NIM_JOBS` environment variable; `None` restores env-driven behaviour.
/// Intended for benchmarks and tests that compare `jobs = 1` against
/// `jobs = N` within one process.
pub fn set_jobs_override(jobs: Option<usize>) {
    JOBS_OVERRIDE.store(jobs.unwrap_or(0), Ordering::SeqCst);
}

/// The worker count [`par_map`] will use: the [`set_jobs_override`] value
/// if set, else `NIM_JOBS` if parseable and non-zero, else
/// [`std::thread::available_parallelism`] (1 if even that is unknown).
pub(crate) fn configured_jobs() -> usize {
    let forced = JOBS_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("NIM_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` with `configured_jobs` workers, returning the
/// results in item order — deterministically equal to the sequential
/// `items.iter().enumerate().map(|(i, it)| f(i, it))`.
///
/// `f` receives the job index and the item. Jobs are claimed atomically.
/// The calling thread is worker 0 and spawns `jobs − 1` helpers (fewer
/// when there are fewer items), so a job it claims reuses the heap it
/// already holds.
///
/// # Panics
///
/// Re-raises a job's panic, on the caller or in a helper, once every
/// helper has stopped.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_on(configured_jobs(), items, f)
}

/// [`par_map`] with an explicit worker count.
fn par_map_on<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let claim = || {
        let mut produced = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                return produced;
            }
            produced.push((i, f(i, &items[i])));
        }
    };
    let mut produced = thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(items.len()))
            .map(|_| s.spawn(claim))
            .collect();
        let mut produced = claim();
        for helper in helpers {
            produced.extend(helper.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        produced
    });
    produced.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(produced.iter().enumerate().all(|(k, &(i, _))| k == i));
    produced.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = par_map(&[], |_, x: &u32| *x);
        assert!(empty.is_empty());
        assert_eq!(par_map(&[9u32], |i, x| (i, *x)), vec![(0, 9)]);
    }

    #[test]
    fn parallel_output_matches_sequential_order() {
        let items: Vec<u64> = (0..257).collect();
        let seq = par_map_on(1, &items, |i, &x| x * 31 + i as u64);
        let par = par_map_on(4, &items, |i, &x| x * 31 + i as u64);
        assert_eq!(seq, par);
        assert_eq!(seq[10], 10 * 31 + 10);
    }

    #[test]
    fn every_index_is_passed_exactly_once() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map_on(8, &items, |i, &x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        let result = panic::catch_unwind(|| {
            par_map_on(4, &items, |_, &x| {
                if x == 7 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    /// Two workers, two jobs, and each job blocks until the other has
    /// started: each worker runs exactly one, and one of them is the
    /// caller.
    #[test]
    fn the_caller_is_a_worker() {
        let both = Barrier::new(2);
        let ran_on = par_map_on(2, &[0, 1], |_, _| {
            both.wait();
            thread::current().id()
        });
        let caller = thread::current().id();
        assert_eq!(ran_on.iter().filter(|&&id| id == caller).count(), 1);
    }

    /// A panic on the caller unwinds out of `par_map_on` only once the
    /// helper's job has finished.
    #[test]
    fn a_panic_on_the_caller_waits_for_the_helpers() {
        let caller = thread::current().id();
        let both = Barrier::new(2);
        let helper_done = AtomicBool::new(false);
        let result = panic::catch_unwind(|| {
            par_map_on(2, &[0, 1], |_, _| {
                both.wait();
                if thread::current().id() == caller {
                    panic!("boom on the caller");
                }
                thread::sleep(Duration::from_millis(50));
                helper_done.store(true, Ordering::SeqCst);
            })
        });
        assert!(result.is_err());
        assert!(helper_done.load(Ordering::SeqCst));
    }

    /// The only test that sets the process-global override, so no other
    /// test can observe it.
    #[test]
    fn override_beats_env() {
        set_jobs_override(Some(3));
        let jobs = configured_jobs();
        set_jobs_override(None);
        assert_eq!(jobs, 3);
    }
}
