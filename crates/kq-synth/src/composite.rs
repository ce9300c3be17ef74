//! Post-processing of the plausible set (paper §3.2, "Multiple Plausible
//! Combiners").
//!
//! When synthesis returns several plausible combiners, KumQuat keeps the
//! highest-priority class present (RecOp ⊐ StructOp ⊐ RunOp) and builds a
//! *composite* combiner: given two arguments, apply the first member whose
//! legal domain contains both. Two reductions keep only members the rule
//! can select:
//!
//! * when some member's domain is universal (`concat`/`first`/`second`),
//!   that member alone suffices — its domain is a superset of every other
//!   member's;
//! * a member whose domain equals an earlier member's
//!   ([`kq_dsl::domain::same_domain`]: `wc -l`'s `(back '\n' add)` in
//!   both orientations, `uniq`'s `stitch first` and `stitch second`,
//!   `sort`'s `merge` and `rerun`) is dropped: whenever it admits both
//!   arguments, so does the earlier one.
//!
//! Parallel substreams are folded by that rule pair by pair (§3.5), in
//! [`kq_dsl::kway::IncrementalFold`], built over the composite's members.

use kq_coreutils::sort::LineOrder;
use kq_dsl::ast::{Candidate, Combiner, RecOp, RunOp};
use kq_dsl::eval::{EvalError, RunEnv};
use kq_dsl::{domain, kway};
use kq_stream::Bytes;

/// The synthesis product: an executable combiner built from the plausible
/// set, plus the metadata the benchmark tables report.
#[derive(Debug, Clone)]
pub struct SynthesizedCombiner {
    /// The members of the composite, in application order.
    pub members: Vec<Candidate>,
    /// Every plausible combiner that survived filtering (for reporting;
    /// superset of `members`).
    pub plausible: Vec<Candidate>,
}

impl SynthesizedCombiner {
    /// Builds the composite from the full plausible set. Panics when the
    /// set is empty — callers handle the "no combiner" case beforehand.
    pub fn from_plausible(plausible: Vec<Candidate>) -> SynthesizedCombiner {
        assert!(!plausible.is_empty(), "no plausible combiners");
        let best_class = plausible
            .iter()
            .map(|c| c.op.class())
            .min()
            .expect("non-empty");
        let mut members: Vec<Candidate> = plausible
            .iter()
            .filter(|c| c.op.class() == best_class)
            .cloned()
            .collect();
        // Within RunOp, prefer merge over rerun: both are plausible for
        // sorting commands, but merge is a single k-way interleave while
        // rerun re-executes the command on the whole concatenation.
        members.sort_by_key(|c| matches!(c.op, Combiner::Run(RunOp::Rerun)) as u8);
        // Domain-superset reduction: a universal-domain member subsumes the
        // rest of its class.
        if let Some(universal) = members.iter().position(|c| {
            matches!(
                c.op,
                Combiner::Rec(RecOp::Concat)
                    | Combiner::Rec(RecOp::First)
                    | Combiner::Rec(RecOp::Second)
            )
        }) {
            members = vec![members[universal].clone()];
        }
        // Equal-domain reduction: the composite rule never gets past the
        // earlier member to a later one with its domain.
        let mut distinct: Vec<Candidate> = Vec::with_capacity(members.len());
        for c in members {
            if !distinct.iter().any(|d| domain::same_domain(&d.op, &c.op)) {
                distinct.push(c);
            }
        }
        SynthesizedCombiner {
            members: distinct,
            plausible,
        }
    }

    /// The representative combiner used for planning decisions (e.g. the
    /// Theorem 5 elimination test and the rerun-cost heuristic).
    pub fn primary(&self) -> &Candidate {
        &self.members[0]
    }

    /// True when the composite is plain concatenation, making the combiner
    /// eligible for intermediate elimination (Theorem 5).
    pub fn is_concat(&self) -> bool {
        self.members.len() == 1 && self.primary().op.is_concat() && !self.primary().swapped
    }

    /// True when the composite requires re-running the command.
    pub fn is_rerun(&self) -> bool {
        self.members
            .iter()
            .all(|c| matches!(c.op, Combiner::Run(RunOp::Rerun)))
    }

    /// The line order of the `merge <flags>` this composite folds with —
    /// `None` when its primary is anything but a `merge` whose flags parse.
    /// A planner that fuses a `sort` with the stage after it asks here
    /// whether the sort merges, and under which order.
    pub fn merge_order(&self) -> Option<LineOrder> {
        match &self.primary().op {
            Combiner::Run(RunOp::Merge(flags)) => kq_dsl::eval::merge_order(flags).ok(),
            _ => None,
        }
    }

    /// Combines two streams: the first member whose domain admits both
    /// arguments is applied (the composite rule of §3.2,
    /// [`kway::combine_pair`], which the incremental fold applies too).
    pub fn combine2(&self, y1: &[u8], y2: &[u8], env: &dyn RunEnv) -> Result<Bytes, EvalError> {
        kway::combine_pair(&self.members, y1, y2, env)
    }

    /// Combines `k` parallel substreams (paper §3.5): the first member
    /// whose domain admits all pieces is applied k-way. Pieces flow as
    /// refcounted [`Bytes`] slices; the domain checks borrow the piece
    /// bytes in place.
    pub fn combine_all(&self, pieces: &[Bytes], env: &dyn RunEnv) -> Result<Bytes, EvalError> {
        for member in &self.members {
            if pieces
                .iter()
                .filter(|p| !p.is_empty())
                .all(|p| domain::in_domain(&member.op, p.as_bytes()))
            {
                return kway::combine_all(member, pieces, env);
            }
        }
        kway::combine_all(self.members.last().expect("non-empty"), pieces, env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kq_dsl::ast::StructOp;
    use kq_dsl::eval::NoRunEnv;
    use kq_stream::Delim;

    #[test]
    fn class_priority_prefers_rec_ops() {
        let plausible = vec![
            Candidate::run(RunOp::Rerun),
            Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
            Candidate::structural(StructOp::Stitch(RecOp::First)),
        ];
        let s = SynthesizedCombiner::from_plausible(plausible);
        assert_eq!(s.members.len(), 1);
        assert!(matches!(s.primary().op, Combiner::Rec(RecOp::Back(..))));
    }

    #[test]
    fn universal_domain_member_subsumes() {
        let plausible = vec![
            Candidate::rec(RecOp::Concat),
            Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Concat))),
        ];
        let s = SynthesizedCombiner::from_plausible(plausible);
        assert_eq!(s.members.len(), 1);
        assert!(s.is_concat());
    }

    #[test]
    fn composite_falls_through_by_domain() {
        // (back '\n' add) applies to count streams; first handles the rest.
        let plausible = vec![
            Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
            Candidate::rec(RecOp::Fuse(Delim::Newline, Box::new(RecOp::Add))),
        ];
        let s = SynthesizedCombiner::from_plausible(plausible);
        assert_eq!(s.members.len(), 2);
        assert_eq!(s.combine2(b"3\n", b"4\n", &NoRunEnv).unwrap(), "7\n");
    }

    #[test]
    fn rerun_detection() {
        let s = SynthesizedCombiner::from_plausible(vec![Candidate::run(RunOp::Rerun)]);
        assert!(s.is_rerun());
        assert!(!s.is_concat());
    }

    #[test]
    fn swapped_concat_is_not_theorem5_eligible() {
        let s = SynthesizedCombiner::from_plausible(vec![Candidate {
            op: Combiner::Rec(RecOp::Concat),
            swapped: true,
        }]);
        assert!(!s.is_concat());
    }

    /// The composite's fold, as the dataflow scheduler builds it: over its
    /// members, fed each piece and finished.
    fn fold(s: &SynthesizedCombiner, pieces: &[Bytes], env: &dyn RunEnv) -> Bytes {
        let mut fold = kway::IncrementalFold::over(&s.members, None, env, None);
        for p in pieces {
            if let Some(work) = fold.push(p.clone()) {
                fold.complete(work.run());
            }
        }
        fold.finish().unwrap().into_bytes()
    }

    #[test]
    fn equal_domain_members_reduce_to_the_first() {
        let back_add = |swapped| Candidate {
            op: Combiner::Rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
            swapped,
        };
        let stitch2 = |b| Candidate::structural(StructOp::Stitch2(Delim::Space, RecOp::Add, b));
        let stitch = |b| Candidate::structural(StructOp::Stitch(b));
        // `wc -l`'s and `grep -c`'s, `uniq -c`'s, `uniq`'s and `sort`'s.
        for plausible in [
            vec![back_add(false), back_add(true)],
            vec![stitch2(RecOp::First), stitch2(RecOp::Second)],
            vec![stitch(RecOp::First), stitch(RecOp::Second)],
            vec![
                Candidate::run(RunOp::Merge(vec![])),
                Candidate {
                    op: Combiner::Run(RunOp::Merge(vec![])),
                    swapped: true,
                },
                Candidate::run(RunOp::Rerun),
            ],
        ] {
            let s = SynthesizedCombiner::from_plausible(plausible.clone());
            assert_eq!(s.members, plausible[..1], "{plausible:?}");
            assert_eq!(s.plausible, plausible, "the report keeps them all");
        }
        // Distinct domains stay.
        let s = SynthesizedCombiner::from_plausible(vec![
            back_add(false),
            Candidate::rec(RecOp::Fuse(Delim::Newline, Box::new(RecOp::Add))),
        ]);
        assert_eq!(s.members.len(), 2);
    }

    #[test]
    fn folds_of_universal_and_single_member_composites_equal_combine_all() {
        struct MergeEnv;
        impl RunEnv for MergeEnv {
            fn rerun(&self, input: Bytes) -> Result<Bytes, EvalError> {
                Ok(input)
            }
            fn merge(&self, order: LineOrder, streams: &[&[u8]]) -> Result<Bytes, EvalError> {
                Ok(Bytes::from(order.merge(streams)))
            }
        }
        // A sort-shaped composite: [merge, rerun] — one member left.
        let s = SynthesizedCombiner::from_plausible(vec![
            Candidate::run(RunOp::Merge(vec![])),
            Candidate::run(RunOp::Rerun),
        ]);
        let pieces: Vec<Bytes> = ["b\nd\n", "a\nc\n", "e\n"]
            .iter()
            .map(|p| Bytes::from(*p))
            .collect();
        let expect = s.combine_all(&pieces, &MergeEnv).unwrap();
        assert_eq!(fold(&s, &pieces, &MergeEnv), expect);
        let s = SynthesizedCombiner::from_plausible(vec![Candidate::structural(StructOp::Stitch(
            RecOp::First,
        ))]);
        let pieces = [Bytes::from("a\nb\n"), Bytes::from("b\nc\n")];
        assert_eq!(fold(&s, &pieces, &NoRunEnv), "a\nb\nc\n");
    }

    #[test]
    fn a_composite_of_distinct_domains_folds_pair_by_pair() {
        // [back add, fuse add]: a count line is in both domains; `3\n4`
        // (no trailing newline) only in `fuse`'s, so each pair of those
        // folds by the second member, as combine_all's member switch does.
        let s = SynthesizedCombiner::from_plausible(vec![
            Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
            Candidate::rec(RecOp::Fuse(Delim::Newline, Box::new(RecOp::Add))),
        ]);
        assert_eq!(s.members.len(), 2);
        for pieces in [
            vec![Bytes::from("3\n"), Bytes::from("4\n"), Bytes::from("5\n")],
            vec![Bytes::from("3\n4"), Bytes::from("5\n6")],
        ] {
            let expect = s.combine_all(&pieces, &NoRunEnv).unwrap();
            assert_eq!(fold(&s, &pieces, &NoRunEnv), expect, "{pieces:?}");
        }
        assert_eq!(
            fold(&s, &[Bytes::from("3\n"), Bytes::from("4\n")], &NoRunEnv),
            "7\n"
        );
    }

    #[test]
    fn kway_combination_via_members() {
        let s = SynthesizedCombiner::from_plausible(vec![Candidate::structural(StructOp::Stitch(
            RecOp::First,
        ))]);
        let pieces = vec![
            Bytes::from("a\nb\n"),
            Bytes::from("b\nc\n"),
            Bytes::from("d\n"),
        ];
        assert_eq!(s.combine_all(&pieces, &NoRunEnv).unwrap(), "a\nb\nc\nd\n");
    }
}
