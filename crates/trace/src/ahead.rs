//! Build-ahead: jobs that depend on nothing but their index are built on
//! worker threads, into recycled slots, while the caller consumes the
//! results strictly in job order.
//!
//! The generator uses it for its per-epoch sampler tables: building one
//! reads only the catalog, while consuming one draws from RNG streams whose
//! order is the trace. Nothing a worker does can reach the consumer except
//! through a slot, and slots arrive in job order, so the output cannot
//! depend on the worker count or on scheduling.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};

/// What a worker reports: the job it built and the slot — or the payload
/// of its panic.
type Built<T> = std::thread::Result<(usize, T)>;

/// Runs `build(job, &mut slot)` for every job in `0..jobs` and passes each
/// built slot to `consume(job, &slot)` in job order, on the calling thread.
///
/// With one worker (or one job) everything runs inline and no thread is
/// spawned. Otherwise `workers` scoped threads claim jobs from a shared
/// counter; a worker claims only while it holds a free slot, and a slot is
/// free again once `consume` is done with it. Every slot and every builder
/// is made by the calling thread (`new_slot` runs `workers + 1` times,
/// `new_builder` once per worker, so a builder can own scratch space):
/// workers only ever write into memory they were handed.
///
/// # Panics
///
/// A panic in `build` is re-raised on the calling thread with its payload;
/// a panic in `consume` unwinds after the workers have stopped.
pub(crate) fn build_ahead<T, B>(
    jobs: usize,
    workers: usize,
    new_slot: impl Fn() -> T,
    new_builder: impl Fn() -> B,
    mut consume: impl FnMut(usize, &T),
) where
    T: Send,
    B: FnMut(usize, &mut T) + Send,
{
    let workers = workers.min(jobs);
    if workers <= 1 {
        let mut slot = new_slot();
        let mut build = new_builder();
        for job in 0..jobs {
            build(job, &mut slot);
            consume(job, &slot);
        }
        return;
    }

    // Only hands out indices; the slots themselves travel by channel.
    let next = AtomicUsize::new(0);
    let (built_tx, built_rx) = mpsc::channel::<Built<T>>();
    // Free slots, one queue for all workers: a worker that has delivered
    // picks up the next free slot itself and need not wait for this thread
    // to notice. The mutex only shares the receiving end; it is held across
    // `recv`, by a worker that has nothing to build, and by nothing else.
    let (free_tx, free_rx) = mpsc::channel::<T>();
    let free_rx = Mutex::new(free_rx);
    // One slot per worker plus one for the consumer to be reading.
    for _ in 0..workers + 1 {
        free_tx.send(new_slot()).expect("free_rx is alive");
    }
    std::thread::scope(|scope| {
        // Owned by this closure so that leaving it — done or unwinding —
        // closes the queue, which is what ends an idle worker; the scope
        // joins the workers only after that.
        let free_tx = free_tx;
        for _ in 0..workers {
            let mut build = new_builder();
            let built_tx = built_tx.clone();
            let (next, free_rx) = (&next, &free_rx);
            scope.spawn(move || loop {
                // No panic can happen under the lock, so poison is moot.
                let free = free_rx.lock().unwrap_or_else(PoisonError::into_inner);
                // Closed: the consumer is done, or unwinding.
                let Ok(mut slot) = free.recv() else { break };
                drop(free);
                let job = next.fetch_add(1, Ordering::Relaxed);
                if job >= jobs {
                    break;
                }
                // Caught so the consumer hears of it: it may be waiting for
                // exactly this job while the other workers, out of slots,
                // wait for the consumer.
                let built =
                    catch_unwind(AssertUnwindSafe(|| build(job, &mut slot))).map(|()| (job, slot));
                let failed = built.is_err();
                if built_tx.send(built).is_err() || failed {
                    break;
                }
            });
        }
        drop(built_tx);

        // Slots that finished ahead of their turn.
        let mut early: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
        for job in 0..jobs {
            let slot = loop {
                if let Some(ready) = early[job].take() {
                    break ready;
                }
                match built_rx.recv() {
                    Ok(Ok((j, slot))) => early[j] = Some(slot),
                    Ok(Err(payload)) => resume_unwind(payload),
                    Err(_) => panic!("build-ahead workers exited with job {job} unbuilt"),
                }
            };
            consume(job, &slot);
            free_tx.send(slot).expect("free_rx outlives the scope");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread::ThreadId;

    /// Builds `job * 10` into each slot and returns what `consume` saw,
    /// plus how many slots were made.
    fn run(jobs: usize, workers: usize) -> (Vec<(usize, u64)>, usize) {
        let slots = AtomicUsize::new(0);
        let threaded = workers.min(jobs) > 1;
        let one_is_built = AtomicBool::new(false);
        let mut seen = Vec::new();
        build_ahead(
            jobs,
            workers,
            || {
                slots.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            || {
                |job: usize, slot: &mut u64| {
                    // Job 0 finishes after job 1, so the consumer has to
                    // hold a slot that arrived ahead of its turn.
                    while threaded && job == 0 && !one_is_built.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    *slot = job as u64 * 10;
                    if job == 1 {
                        one_is_built.store(true, Ordering::Release);
                    }
                }
            },
            |job, slot| seen.push((job, *slot)),
        );
        (seen, slots.load(Ordering::Relaxed))
    }

    #[test]
    fn consumes_every_job_in_order_from_at_most_workers_plus_one_slots() {
        for workers in [1, 2, 3, 8, 64] {
            for jobs in [0, 1, 2, 7, 100] {
                let (seen, slots) = run(jobs, workers);
                let want: Vec<(usize, u64)> = (0..jobs).map(|j| (j, j as u64 * 10)).collect();
                assert_eq!(seen, want, "{workers} workers, {jobs} jobs");
                let threads = workers.min(jobs);
                let made = if threads > 1 { threads + 1 } else { 1 };
                assert_eq!(slots, made, "{workers} workers, {jobs} jobs");
            }
        }
    }

    #[test]
    fn one_worker_spawns_no_thread_and_more_build_off_the_calling_thread() {
        let builders = |workers: usize| -> Vec<ThreadId> {
            let (tx, rx) = mpsc::channel();
            build_ahead(
                6,
                workers,
                || (),
                || {
                    let tx = tx.clone();
                    move |_, _: &mut ()| tx.send(std::thread::current().id()).unwrap()
                },
                |_, _| {},
            );
            drop(tx);
            rx.iter().collect()
        };
        let me = std::thread::current().id();
        assert!(builders(1).iter().all(|&id| id == me));
        assert!(builders(3).iter().all(|&id| id != me));
    }

    #[test]
    fn a_panicking_build_ends_the_call_in_that_panic_at_any_worker_count() {
        for workers in [1, 2, 3, 8] {
            let consumed = AtomicUsize::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                build_ahead(
                    40,
                    workers,
                    || 0usize,
                    || {
                        |job: usize, slot: &mut usize| {
                            if job == 5 {
                                panic!("job {job} is cursed");
                            }
                            *slot = job;
                        }
                    },
                    |_, _| {
                        consumed.fetch_add(1, Ordering::Relaxed);
                    },
                );
            }));
            let payload = result.expect_err("the build panic must surface");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("job 5 is cursed"), "{workers} workers");
            // Jobs are consumed in order, so nothing past the failed one was.
            assert!(consumed.load(Ordering::Relaxed) <= 5, "{workers} workers");
        }
    }

    #[test]
    fn a_panicking_consumer_stops_the_workers_and_unwinds() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            build_ahead(
                40,
                3,
                || 0usize,
                || |job: usize, slot: &mut usize| *slot = job,
                |job, _| assert!(job != 7, "consumer gave up"),
            );
        }));
        assert!(result.is_err());
    }
}
