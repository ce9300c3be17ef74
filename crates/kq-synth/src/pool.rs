//! The synthesis worker pool.
//!
//! One pool serves both parallel axes of the synthesis engine:
//!
//! * **within one command** — observation collection maps command
//!   executions over generated stream pairs ([`SynthPool::map`]); deciding
//!   which candidates an observation leaves plausible is one walk of the
//!   combiner trie (`kq_dsl::space`) and spawns nothing;
//! * **across commands** — the planner synthesizes a script's distinct
//!   stdin-reading commands concurrently, one [`SynthPool::map`] item per
//!   command.
//!
//! Like the executors' pools, workers are *scoped threads spawned per
//! batch* (there is no long-lived pool object to keep alive across
//! borrows); work is handed out through an atomic cursor so an expensive
//! item (one slow command synthesis, one slow external command run) does
//! not straggle a whole fixed partition. Results land in input order,
//! and every job is a pure function of its item — so the output is
//! byte-for-byte independent of worker count and scheduling, which is
//! what keeps synthesis deterministic under `--synth-workers`.

use std::sync::atomic::{AtomicUsize, Ordering};

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
                for (i, r) in handle.join().expect("synthesis worker panicked") {
                    slots[i] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every item produced a result"))
            .collect()
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
