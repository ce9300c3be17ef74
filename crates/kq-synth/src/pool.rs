//! The synthesis worker pool.
//!
//! One pool serves both parallel axes of the synthesis engine:
//!
//! * **within one command** — observation collection maps command
//!   executions over generated stream pairs ([`SynthPool::map`]); deciding
//!   which candidates an observation leaves plausible is one walk of the
//!   combiner trie (`kq_dsl::space`) and spawns nothing;
//! * **across commands** — the planner synthesizes distinct stdin-reading
//!   commands concurrently on [`SynthPool::serve`]: the planning thread
//!   and `workers - 1` long-lived threads take one command per job from a
//!   queue the planner keeps filling while it reads ahead through the
//!   scripts it plans, so the cold commands of a whole corpus, not one
//!   script's handful, keep every worker busy. Each job synthesizes on one
//!   thread.
//!
//! Like the executors' pools, workers are *scoped threads* (there is no
//! pool object to keep alive across borrows): [`SynthPool::map`] spawns
//! them per batch and hands items out through an atomic cursor, so one
//! expensive item (one slow external command run) does not straggle a
//! fixed partition; [`SynthPool::serve`] keeps them for as long as its
//! caller has jobs for them. `map` returns results in input order and every
//! job is a pure function of its item — so the output is byte-for-byte
//! independent of worker count and scheduling, which is what keeps
//! synthesis deterministic under `--synth-workers`. `serve` returns
//! results as they finish; its caller puts them in order.
//!
//! A worker records into its caller's trace session, and a job that
//! panics panics its caller with the job's own payload.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Condvar, Mutex};

/// A handle describing how wide synthesis work may fan out.
#[derive(Debug, Clone, Copy)]
pub struct SynthPool {
    workers: usize,
}

impl SynthPool {
    /// A pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> SynthPool {
        SynthPool {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Work distribution is dynamic (atomic next-item cursor), so item
    /// costs may be arbitrarily skewed; because each `f(i, item)` is
    /// independent, the result vector is identical to the serial
    /// `items.iter().enumerate().map(..)` regardless of scheduling. A
    /// panic inside `f` propagates to the caller.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.workers.min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        // Workers record into the caller's trace session, if it has one.
        let trace = kq_trace::current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    let f = &f;
                    scope.spawn(move || {
                        let _trace = trace.attach();
                        let mut produced: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            produced.push((i, f(i, &items[i])));
                        }
                        produced
                    })
                })
                .collect();
            for handle in handles {
                for (i, r) in handle.join().unwrap_or_else(|panic| resume_unwind(panic)) {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every item produced a result"))
            .collect()
    }

    /// Runs `body` with a job queue that `workers` threads serve — the
    /// caller and `workers - 1` long-lived scoped threads — applying
    /// `work` to every job `body` submits.
    ///
    /// [`Jobs::submit`] queues a job and returns at once; [`Jobs::next`]
    /// returns the result of the next job to finish, in completion order,
    /// and while none has, runs a queued job itself rather than wait. So a
    /// one-worker pool starts no thread and runs each job inside the `next`
    /// that returns it. Jobs still queued when `body` returns are dropped
    /// unrun. A job that panics on a thread is caught there and its payload
    /// resumed on the caller by the `next` that would have returned its
    /// result.
    pub fn serve<J, R, T, W, B>(&self, work: W, body: B) -> T
    where
        J: Send,
        R: Send,
        W: Fn(J) -> R + Sync,
        B: FnOnce(&Jobs<'_, J, R>) -> T,
    {
        let queue = Queue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        };
        let trace = kq_trace::current();
        std::thread::scope(|scope| {
            let (done_tx, done) = channel();
            for _ in 1..self.workers {
                let (queue, work, done_tx) = (&queue, &work, done_tx.clone());
                scope.spawn(move || {
                    let _trace = trace.attach();
                    while let Some(job) = queue.pop() {
                        let result = catch_unwind(AssertUnwindSafe(|| work(job)));
                        if done_tx.send(result).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(done_tx);
            // Closing on the way out, unwinding included, is what lets
            // the scope join its threads.
            let _close = CloseOnDrop(&queue);
            body(&Jobs {
                work: &work,
                queue: &queue,
                done,
                outstanding: Cell::new(0),
            })
        })
    }
}

/// The job side of [`SynthPool::serve`].
pub struct Jobs<'a, J, R> {
    work: &'a (dyn Fn(J) -> R + Sync),
    queue: &'a Queue<J>,
    done: Receiver<std::thread::Result<R>>,
    /// Jobs submitted whose results `next` has not returned yet.
    outstanding: Cell<usize>,
}

impl<J, R> Jobs<'_, J, R> {
    /// Queues `job` for the workers.
    pub fn submit(&self, job: J) {
        self.outstanding.set(self.outstanding.get() + 1);
        self.queue.push(job);
    }

    /// The result of the next job to finish: one a thread finished, else
    /// one taken off the queue and run here, else the next a thread
    /// finishes.
    ///
    /// # Panics
    /// With the job's own payload when the job panicked, and when no
    /// submitted job is left to wait for.
    pub fn next(&self) -> R {
        let left = self.outstanding.get();
        assert!(left > 0, "Jobs::next with no job outstanding");
        self.outstanding.set(left - 1);
        let finished = match self.done.try_recv() {
            Ok(finished) => finished,
            Err(_) => match self.queue.try_pop() {
                Some(job) => return (self.work)(job),
                None => self
                    .done
                    .recv()
                    .expect("a job outstanding and no thread left to run it"),
            },
        };
        finished.unwrap_or_else(|panic| resume_unwind(panic))
    }
}

/// The jobs [`SynthPool::serve`]'s workers take, and whether more may come.
struct Queue<J> {
    state: Mutex<(VecDeque<J>, bool)>,
    ready: Condvar,
}

impl<J> Queue<J> {
    fn push(&self, job: J) {
        self.state.lock().unwrap().0.push_back(job);
        self.ready.notify_one();
    }

    fn try_pop(&self) -> Option<J> {
        self.state.lock().unwrap().0.pop_front()
    }

    /// The next job, waiting for one; `None` once the queue is closed.
    fn pop(&self) -> Option<J> {
        let mut state = self.state.lock().unwrap();
        loop {
            let (jobs, closed) = &mut *state;
            if *closed {
                return None;
            }
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            state = self.ready.wait(state).unwrap();
        }
    }
}

/// Closes a [`Queue`], dropping the jobs still in it, when it drops.
struct CloseOnDrop<'a, J>(&'a Queue<J>);

impl<J> Drop for CloseOnDrop<'_, J> {
    fn drop(&mut self) {
        // Jobs run outside the lock, so no job can poison it; recover the
        // guard anyway rather than panic in a drop that may run while
        // unwinding.
        let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
        state.0.clear();
        state.1 = true;
        drop(state);
        self.0.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 4, 9] {
            let pool = SynthPool::new(workers);
            let out = pool.map(&items, |i, v| {
                assert_eq!(i, *v);
                v * 3
            });
            assert_eq!(out, (0..100).map(|v| v * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_degenerate_sizes() {
        let pool = SynthPool::new(4);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.map(&empty, |_, v| *v).is_empty());
        assert_eq!(pool.map(&[7u8], |_, v| *v), vec![7]);
        assert_eq!(SynthPool::new(0).workers(), 1);
    }

    #[test]
    fn serve_returns_every_result_at_any_worker_count() {
        for workers in [1, 2, 4] {
            let pool = SynthPool::new(workers);
            let mut got = pool.serve(
                |v: u64| v * v,
                |jobs| {
                    for v in 0..20 {
                        jobs.submit(v);
                    }
                    (0..20).map(|_| jobs.next()).collect::<Vec<_>>()
                },
            );
            got.sort_unstable();
            assert_eq!(got, (0..20).map(|v| v * v).collect::<Vec<_>>());
        }
    }

    #[test]
    fn serve_resumes_a_job_panic_on_the_caller() {
        for workers in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                SynthPool::new(workers).serve(
                    |v: u32| {
                        assert!(v != 3, "job {v} failed");
                        v
                    },
                    |jobs| {
                        for v in 0..6 {
                            jobs.submit(v);
                        }
                        // Give a thread the time to take job 3 (with one
                        // worker, `next` runs it here).
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        (0..6).map(|_| jobs.next()).sum::<u32>()
                    },
                )
            })
            .unwrap_err();
            let message = caught.downcast_ref::<String>().unwrap();
            assert_eq!(message, "job 3 failed");
        }
    }

    #[test]
    fn serve_drops_unrun_jobs_when_the_caller_leaves_early() {
        let ran = AtomicUsize::new(0);
        let first = SynthPool::new(2).serve(
            |v: u32| {
                ran.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(5));
                v
            },
            |jobs| {
                for v in 0..200 {
                    jobs.submit(v);
                }
                jobs.next()
            },
        );
        assert!(first < 200);
        assert!(ran.load(Ordering::Relaxed) < 200);
    }

    #[test]
    fn skewed_item_costs_still_slot_correctly() {
        let items: Vec<u64> = (0..32).collect();
        let pool = SynthPool::new(4);
        let out = pool.map(&items, |_, v| {
            if v % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            v + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }
}
