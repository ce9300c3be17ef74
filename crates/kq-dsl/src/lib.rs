//! The KumQuat combiner DSL (paper Figure 3):
//!
//! ```text
//! g ∈ Combiner_f := b | s | r
//! b ∈ RecOp      := add | concat | first | second
//!                 | front d b | back d b | fuse d b
//! s ∈ StructOp   := stitch b | stitch2 d b1 b2 | offset d b
//! r ∈ RunOp_f    := rerun_f | merge <flags>
//! d ∈ Delim      := '\n' | '\t' | ' ' | ','
//! ```
//!
//! A combiner is a binary operation over the *outputs* of two command
//! instances; a correct combiner `g` for command `f` satisfies
//! `f(x1 ++ x2) = g(f(x1), f(x2))` for all input streams.
//!
//! This crate provides the AST ([`ast`]), the big-step evaluation semantics
//! of Figure 6 ([`eval`]), the legal-domain predicate `L(g)` of Definition
//! B.1 ([`domain`]), combiner size and the candidate space ([`space`],
//! [`enumerate`] — reproducing the paper's per-command search-space counts
//! exactly), the representative combiners and observation-sufficiency
//! predicates of Table 2 and Definitions B.11–B.15 ([`repr`]), and k-way
//! combining for `k > 2` parallel substreams ([`kway`], paper §3.5).
//!
//! # The candidate space is implicit
//!
//! Synthesis asks one question of the space, once per observation: which
//! candidates are [`plausible`] for it? [`CandidateSpace`] answers without
//! holding a single candidate. It is the counts an [`EnumConfig`] implies;
//! a candidate is its position in the enumeration order
//! ([`CandidateSpace::candidate`] decodes one, [`enumerate_candidates`] is
//! that over every id); and [`CandidateSpace::passing`] walks the trie the
//! `front`/`back`/`fuse` wrappers form, carrying the observation down it,
//! so that a wrapper that cannot apply removes its whole subtree — a few
//! dozen nodes visited in place of up to 110 444 evaluations.
//!
//! The contract is *soundness plus confirmation*. The walk must keep every
//! plausible id and may keep more; every id it keeps is then confirmed by
//! [`plausible`] on the decoded candidate. So `eval`, `in_domain` and
//! `plausible` remain the only code that can return a verdict — the same
//! code that combines at run time and that the combiner cache's spot check
//! replays — and the walk is an index over it, tested against it on all
//! candidates of the 2 700 / 26 404 / 110 444 spaces.
//!
//! One step of the walk is exact where it may look approximate: under
//! `fuse d` the three strings of an observation are split on `d` and
//! compared piece by piece. That loses nothing, because the child operator
//! only ever sees pieces without a `d` and no RecOp can make a `d` out of
//! such arguments, so the joined result splits back into exactly the
//! child's results (the [`space`] module docs go through each operator).
//!
//! # The merge combiner runs on the byte plane
//!
//! `merge <flags>` is the combiner of every sorting stage, so it is the
//! barrier of every parallel `sort`, and it never leaves the data plane:
//! [`RunEnv::merge`] and [`RunEnv::merge_stream`] take the substreams as
//! byte slices borrowed from their [`kq_stream::Bytes`] and hand back
//! `Bytes` (or fragments of bytes) — there is no `&str` view, `String`
//! result, or re-wrap on the way. The flags are parsed into a
//! [`kq_coreutils::sort::LineOrder`] once per combine
//! ([`eval::merge_order`]) — once per *fold* for an [`IncrementalFold`] —
//! and the merge itself is `kq_coreutils::sort`'s offset-value-coded loser
//! tree. An [`IncrementalFold`] hands its merges out as
//! [`FoldWork`](kway::FoldWork) instead of making them itself, so that its
//! owner can run them with no lock held and hand the results back: the
//! run batches of [`push`](IncrementalFold::push) and of the close, the
//! scatter of its raw chunks and the key ranges of its closing merge (cut
//! at [`LineOrder::splitters`](kq_coreutils::sort::LineOrder::splitters)
//! so that `-u`, `-f`, `-n`, `-r` and the stream-order tie-break are those
//! of the one flat sort or merge). Its docs tell the protocol and how each combiner
//! folds.
//!
//! ```
//! use kq_dsl::ast::{Combiner, RecOp, StructOp};
//! use kq_dsl::eval::{eval, NoRunEnv};
//! use kq_dsl::Delim;
//!
//! // The `uniq -c` combiner: merge boundary records whose keys agree.
//! let g = Combiner::Struct(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First));
//! let y1 = b"      2 apple\n      1 beta\n";
//! let y2 = b"      3 beta\n      1 cat\n";
//! let combined = eval(&g, y1, y2, &NoRunEnv).unwrap();
//! assert_eq!(combined, "      2 apple\n      4 beta\n      1 cat\n");
//!
//! // Size (Definition 3.6) and the legal domain L(g) (Definition B.1).
//! assert_eq!(g.size(), 5);
//! assert!(kq_dsl::domain::in_domain(&g, y1));
//! assert!(!kq_dsl::domain::in_domain(&g, b"unpadded words\n"));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod codec;
pub mod domain;
pub mod enumerate;
pub mod eval;
pub mod kway;
pub mod repr;
pub mod space;
pub mod spill;

pub use ast::{Candidate, Combiner, RecOp, RunOp, StructOp};
pub use codec::{decode_candidate, encode_candidate};
pub use enumerate::{enumerate_candidates, EnumConfig, SpaceBreakdown};
pub use eval::{CommandEnv, EvalError, RunEnv};
pub use kq_stream::Delim;
pub use kway::{combine_all, IncrementalFold};
pub use space::CandidateSpace;
pub use spill::{SpillConfig, SpillMetrics, SpillPolicy};

/// An observation `⟨y1, y2, y12⟩ = ⟨f(x1), f(x2), f(x1 ++ x2)⟩`
/// (paper Definition 3.4/3.5).
///
/// `Hash` lets the synthesis loop dedup observations through a hashed
/// seen-set (the content fingerprint is the hash; equality resolves any
/// collision exactly) instead of a quadratic `contains` scan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Observation {
    /// `f(x1)`.
    pub y1: String,
    /// `f(x2)`.
    pub y2: String,
    /// `f(x1 ++ x2)`.
    pub y12: String,
}

impl Observation {
    /// Convenience constructor.
    pub fn new(y1: impl Into<String>, y2: impl Into<String>, y12: impl Into<String>) -> Self {
        Observation {
            y1: y1.into(),
            y2: y2.into(),
            y12: y12.into(),
        }
    }
}

/// `P(g, Y)` — plausibility (Definition 3.9): `g` is plausible for the
/// observations iff every `y1, y2` lies in `L(g)` and `g y1 y2` evaluates
/// exactly to `y12`.
pub fn plausible(candidate: &Candidate, observations: &[Observation], env: &dyn RunEnv) -> bool {
    observations.iter().all(|o| {
        let (a, b) = candidate.oriented(o.y1.as_bytes(), o.y2.as_bytes());
        domain::in_domain(&candidate.op, a)
            && domain::in_domain(&candidate.op, b)
            && matches!(eval::eval(&candidate.op, a, b, env), Ok(v) if v == o.y12)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval::NoRunEnv;

    #[test]
    fn plausibility_requires_domain_membership() {
        // `add` on outputs that are not digit runs is implausible even when
        // concatenation would match.
        let cand = Candidate::rec(RecOp::Add);
        let obs = vec![Observation::new("a\n", "b\n", "a\nb\n")];
        assert!(!plausible(&cand, &obs, &NoRunEnv));
    }

    #[test]
    fn concat_plausible_for_mapping_outputs() {
        let cand = Candidate::rec(RecOp::Concat);
        let obs = vec![
            Observation::new("a\n", "b\n", "a\nb\n"),
            Observation::new("x\ny\n", "z\n", "x\ny\nz\n"),
        ];
        assert!(plausible(&cand, &obs, &NoRunEnv));
    }

    #[test]
    fn concat_rejected_by_counterexample() {
        // The `uniq`-style boundary merge defeats concat.
        let cand = Candidate::rec(RecOp::Concat);
        let obs = vec![Observation::new("a\nb\n", "b\nc\n", "a\nb\nc\n")];
        assert!(!plausible(&cand, &obs, &NoRunEnv));
    }

    #[test]
    fn swapped_candidate_orients_arguments() {
        let cand = Candidate {
            op: Combiner::Rec(RecOp::First),
            swapped: true,
        };
        // (first b a) == y2.
        let obs = vec![Observation::new("l\n", "r\n", "r\n")];
        assert!(plausible(&cand, &obs, &NoRunEnv));
    }
}
