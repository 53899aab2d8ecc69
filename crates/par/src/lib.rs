//! # `wmh-par` — an index-parallel loop for the experiment sweeps
//!
//! The Figure 8 sweep is a flat list of independent, coarse
//! `(dataset, algorithm, repeat)` cells, so one shared cursor over
//! `0..n` on [`std::thread::scope`] keeps every core busy.
//!
//! Determinism contract: the loop decides *when and where* an index runs,
//! never *what it computes* — callers derive all randomness from the
//! index, so any schedule produces identical results.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `job(i)` exactly once for every `i` in `0..n` on `threads`
/// concurrent workers: `threads − 1` spawned threads plus the caller.
///
/// Every index passes the `par::worker_delay` failpoint first, so chaos
/// scenarios (`par::worker_delay=p0.3:sleep2ms`) can shuffle the schedule.
///
/// # Panics
/// Re-raises the first job panic, with its original payload, after every
/// worker has finished. A panicking worker stops; the others carry on
/// through the remaining indices.
pub fn for_each_index(threads: usize, n: usize, job: impl Fn(usize) + Sync) {
    // `Relaxed` suffices: the cursor only hands out indices, and the
    // scope's spawn and join order everything the jobs read and write.
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // Delay-only injection site: a `fail` action has nothing to fail.
        let _ = wmh_fault::point!("par::worker_delay");
        job(i);
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (1..threads.min(n)).map(|_| s.spawn(work)).collect();
        let caller = catch_unwind(AssertUnwindSafe(work));
        // Join explicitly: the scope's own re-panic drops the payload.
        let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        if let Some(panic) = std::iter::once(caller).chain(joined).find_map(Result::err) {
            resume_unwind(panic);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::for_each_index;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn every_index_runs_exactly_once() {
        let _inert = wmh_fault::inert();
        for threads in [1, 2, 8] {
            let runs: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
            let ran_on = Mutex::new(Vec::<ThreadId>::new());
            for_each_index(threads, runs.len(), |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                ran_on.lock().expect("lock").push(std::thread::current().id());
            });
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "threads {threads}");
            if threads == 1 {
                let caller = std::thread::current().id();
                assert!(ran_on.into_inner().expect("lock").iter().all(|&t| t == caller));
            }
        }
    }

    #[test]
    fn a_job_panic_is_reraised_with_its_payload() {
        let _inert = wmh_fault::inert();
        for threads in [1, 2] {
            let ran = AtomicUsize::new(0);
            let panic = std::panic::catch_unwind(|| {
                for_each_index(threads, 64, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 17 {
                        panic!("cell 17 failed");
                    }
                });
            })
            .expect_err("the job panic must propagate");
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"cell 17 failed"), "threads {threads}");
            assert!(ran.load(Ordering::Relaxed) >= 18, "threads {threads}");
        }
    }

    /// The delay point stalls workers but never drops an index.
    #[test]
    fn worker_delay_fires_once_per_index() {
        let _g = wmh_fault::scenario("par::worker_delay=p0.5:sleep1ms", 9).expect("scenario");
        let count = AtomicUsize::new(0);
        for_each_index(4, 32, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 32, "every index must still run");
        assert_eq!(wmh_fault::hits("par::worker_delay"), 32, "every index passes the point");
        assert!(wmh_fault::fired("par::worker_delay") > 0, "p0.5 over 32 indices should fire");
    }
}
