//! Concurrency-stress helper: put threads at a starting line and release
//! them at once.
//!
//! [`hammer`] is a [`std::sync::Barrier`]-synchronized fan-out, so racy
//! windows actually overlap instead of being serialized by thread startup
//! latency.

use std::sync::Barrier;

/// Run `f(thread_index, iteration)` on `threads` threads, `iters` times
/// each, with a barrier release before the first iteration so all threads
/// enter the hot section together.
///
/// Panics in any closure propagate to the caller (the panicking thread's
/// payload is re-raised after all threads join).
///
/// # Panics
/// Re-raises the first closure panic; panics if `threads == 0`.
pub fn hammer<F>(threads: usize, iters: usize, f: F)
where
    F: Fn(usize, usize) + Sync,
{
    assert!(threads > 0, "hammer needs at least one thread");
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, f) = (&barrier, &f);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..iters {
                        f(t, i);
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn hammer_runs_every_iteration() {
        let count = AtomicUsize::new(0);
        hammer(4, 100, |_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn hammer_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            hammer(2, 10, |t, i| {
                assert!(!(t == 1 && i == 5), "deliberate failure");
            });
        });
        assert!(result.is_err());
    }
}
