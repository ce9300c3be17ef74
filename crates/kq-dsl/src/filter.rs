//! Batch, order-independent candidate filtering — the data-parallel core
//! of Algorithm 1.
//!
//! Plausibility (Definition 3.9) is a per-candidate predicate: whether
//! `g` reproduces `y12` on every observation. Filtering a candidate set is
//! therefore an *embarrassingly parallel* map — no candidate's verdict
//! depends on another's — and this module exposes it as such:
//! [`filter_candidates`] returns one `bool` per candidate, and
//! [`filter_candidates_partitioned`] computes the identical vector by
//! fanning contiguous partitions of the candidate set out over scoped
//! worker threads.
//!
//! The two functions are provably interchangeable: each slot `i` of the
//! result is `plausible(&candidates[i], observations, env)`, a pure
//! function of the candidate, the observation list, and the (deterministic)
//! command behind `env`. Worker count and scheduling affect only wall
//! clock, never the vector — which is what lets synthesis stay
//! deterministic given `rng_seed` regardless of `--synth-workers`
//! (pinned by `filtering_is_worker_count_invariant` below and by the
//! corpus-wide determinism suite in `tests/synth_engine.rs`).
//!
//! Elimination counts (the gradient score of Algorithm 2) likewise become
//! order-independent sums over the mask: see [`eliminated_count`].

use crate::ast::Candidate;
use crate::eval::RunEnv;
use crate::{plausible, Observation};

/// Serial batch filter: `out[i] = P(candidates[i], observations)`
/// (Definition 3.9 applied pointwise).
pub fn filter_candidates(
    candidates: &[Candidate],
    observations: &[Observation],
    env: &dyn RunEnv,
) -> Vec<bool> {
    candidates
        .iter()
        .map(|c| plausible(c, observations, env))
        .collect()
}

/// Parallel batch filter: identical output to [`filter_candidates`],
/// computed by splitting the candidate set into `workers` contiguous
/// partitions evaluated on scoped threads. Each thread writes a disjoint
/// slice of the result, so no ordering between workers is observable.
///
/// `workers <= 1` (or a candidate set smaller than two partitions) takes
/// the serial path directly.
pub fn filter_candidates_partitioned(
    candidates: &[Candidate],
    observations: &[Observation],
    env: &dyn RunEnv,
    workers: usize,
) -> Vec<bool> {
    let workers = workers.max(1).min(candidates.len());
    if workers <= 1 {
        return filter_candidates(candidates, observations, env);
    }
    let chunk = candidates.len().div_ceil(workers);
    let mut mask = vec![false; candidates.len()];
    let trace = kq_trace::current();
    std::thread::scope(|scope| {
        let mut rest: &mut [bool] = &mut mask;
        for part in candidates.chunks(chunk) {
            let (slots, tail) = rest.split_at_mut(part.len());
            rest = tail;
            scope.spawn(move || {
                let _trace = trace.attach();
                for (slot, candidate) in slots.iter_mut().zip(part) {
                    *slot = plausible(candidate, observations, env);
                }
            });
        }
    });
    mask
}

/// Number of candidates a filter mask eliminates (`false` slots) — the
/// gradient score of Algorithm 2 as a parallel-safe reduction: the sum is
/// associative and commutative, so partitioned filtering followed by this
/// count equals the serial fold exactly.
pub fn eliminated_count(mask: &[bool]) -> usize {
    mask.iter().filter(|keep| !**keep).count()
}

/// Drops the eliminated candidates in place, preserving order: keeps
/// `alive[i]` iff `mask[i]`. The surviving order is the enumeration
/// order, exactly as a serial `retain` over the same predicate leaves it.
pub fn retain_by_mask(alive: &mut Vec<Candidate>, mask: &[bool]) {
    debug_assert_eq!(alive.len(), mask.len());
    let mut keep = mask.iter();
    alive.retain(|_| *keep.next().expect("mask length matches"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{RecOp, StructOp};
    use crate::eval::NoRunEnv;

    fn candidates() -> Vec<Candidate> {
        vec![
            Candidate::rec(RecOp::Concat),
            Candidate::rec(RecOp::Add),
            Candidate::rec(RecOp::First),
            Candidate::rec(RecOp::Second),
            Candidate::structural(StructOp::Stitch(RecOp::First)),
            Candidate {
                op: crate::Combiner::Rec(RecOp::First),
                swapped: true,
            },
        ]
    }

    fn observations() -> Vec<Observation> {
        vec![
            Observation::new("a\n", "b\n", "a\nb\n"),
            Observation::new("a\nb\n", "b\nc\n", "a\nb\nc\n"),
        ]
    }

    #[test]
    fn serial_mask_matches_pointwise_plausibility() {
        let cands = candidates();
        let obs = observations();
        let mask = filter_candidates(&cands, &obs, &NoRunEnv);
        for (i, c) in cands.iter().enumerate() {
            assert_eq!(mask[i], plausible(c, &obs, &NoRunEnv), "candidate {c}");
        }
    }

    #[test]
    fn filtering_is_worker_count_invariant() {
        let cands = candidates();
        let obs = observations();
        let serial = filter_candidates(&cands, &obs, &NoRunEnv);
        for workers in [1, 2, 3, 4, 7, 64] {
            let parallel = filter_candidates_partitioned(&cands, &obs, &NoRunEnv, workers);
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(filter_candidates_partitioned(&[], &observations(), &NoRunEnv, 4).is_empty());
        // No observations: everything is vacuously plausible.
        let cands = candidates();
        let mask = filter_candidates_partitioned(&cands, &[], &NoRunEnv, 4);
        assert!(mask.iter().all(|&b| b));
    }

    #[test]
    fn eliminated_count_is_the_false_count() {
        assert_eq!(eliminated_count(&[true, false, true, false, false]), 3);
        assert_eq!(eliminated_count(&[]), 0);
    }

    #[test]
    fn retain_by_mask_preserves_order() {
        let mut alive = candidates();
        let survivors = [true, false, true, false, true, false];
        retain_by_mask(&mut alive, &survivors);
        let shown: Vec<String> = alive.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            shown,
            vec!["(concat a b)", "(first a b)", "((stitch first) a b)"]
        );
    }
}
