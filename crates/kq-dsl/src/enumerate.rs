//! Candidate-space enumeration (`G_n`, Definition 3.7).
//!
//! The search space is parameterized by the delimiter alphabet (KumQuat's
//! preprocessing derives it per command from the delimiters observed in
//! probe outputs) and the expansion budget. Each combiner is emitted in
//! both argument orders — Table 10 lists swapped candidates such as
//! `(second b a)` — so the space size is twice the combiner count.
//!
//! With the default budget (`max_size = 7`, i.e. at most five grammar
//! expansions) this enumeration reproduces the paper's per-command space
//! sizes *exactly*:
//!
//! | delimiters | RecOp | StructOp | RunOp | total |
//! |-----------:|------:|---------:|------:|------:|
//! | 1          |   968 |     1728 |     4 |  2700 |
//! | 2          | 12440 |    13960 |     4 | 26404 |
//! | 3          | 59048 |    51392 |     4 | 110444 |

use crate::ast::Candidate;
use crate::space::CandidateSpace;
use kq_stream::Delim;

/// Enumeration parameters.
#[derive(Debug, Clone)]
pub struct EnumConfig {
    /// Delimiters available to `front`/`back`/`fuse`/`stitch2`/`offset`.
    /// `'\n'` should always be present.
    pub delims: Vec<Delim>,
    /// Maximum combiner size `|g|` (Definition 3.6). The paper's deployed
    /// budget is 7 ("seven or fewer nodes", §2), which yields the Table 10
    /// space sizes.
    pub max_size: usize,
    /// Flags for the `merge` candidate (the command's own sort flags when
    /// `f` is a `sort` invocation, empty otherwise).
    pub merge_flags: Vec<String>,
}

impl Default for EnumConfig {
    fn default() -> Self {
        EnumConfig {
            delims: vec![Delim::Newline],
            max_size: 7,
            merge_flags: Vec::new(),
        }
    }
}

/// Per-class candidate counts, reported like Table 10's
/// `26404 (= 12440 + 13960 + 4)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceBreakdown {
    /// RecOp candidates (both argument orders).
    pub rec: usize,
    /// StructOp candidates (both argument orders).
    pub structural: usize,
    /// RunOp candidates (`rerun`/`merge` × argument order).
    pub run: usize,
}

impl SpaceBreakdown {
    /// Total candidate count.
    pub fn total(&self) -> usize {
        self.rec + self.structural + self.run
    }
}

impl std::fmt::Display for SpaceBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (= {} + {} + {})",
            self.total(),
            self.rec,
            self.structural,
            self.run
        )
    }
}

/// Materialises the full candidate space (both argument orders) together
/// with its per-class breakdown: `(0..len).map(candidate)` over the
/// [`CandidateSpace`], which holds the one definition of the order.
/// Synthesis never calls this — it asks the space which ids pass — but
/// tests, benches and the codec's round-trip do.
pub fn enumerate_candidates(config: &EnumConfig) -> (Vec<Candidate>, SpaceBreakdown) {
    let space = CandidateSpace::new(config);
    let candidates = (0..space.len() as u32)
        .map(|id| space.candidate(id))
        .collect();
    (candidates, space.breakdown())
}

/// The recursive, tree-building enumeration the space replaced, kept as
/// the definition of the order that `CandidateSpace::candidate` is tested
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::ast::{Combiner, RecOp, RunOp, StructOp};
    use kq_stream::Delim;

    /// Enumerates every RecOp with at most `budget` expansions.
    fn rec_ops(budget: usize, delims: &[Delim]) -> Vec<RecOp> {
        let mut out = Vec::new();
        if budget == 0 {
            return out;
        }
        out.extend([RecOp::Add, RecOp::Concat, RecOp::First, RecOp::Second]);
        if budget >= 2 {
            for child in rec_ops(budget - 1, delims) {
                for &d in delims {
                    out.push(RecOp::Front(d, Box::new(child.clone())));
                    out.push(RecOp::Back(d, Box::new(child.clone())));
                    out.push(RecOp::Fuse(d, Box::new(child.clone())));
                }
            }
        }
        out
    }

    pub(crate) fn enumerate_candidates(config: &EnumConfig) -> (Vec<Candidate>, SpaceBreakdown) {
        let budget = config.max_size.saturating_sub(2);
        let mut combiners: Vec<Combiner> = Vec::new();

        let recs = rec_ops(budget, &config.delims);
        let rec_count = recs.len();
        combiners.extend(recs.iter().cloned().map(Combiner::Rec));

        // StructOp: one expansion for the struct node itself.
        let mut struct_count = 0;
        if budget >= 2 {
            let children = rec_ops(budget - 1, &config.delims);
            for b in &children {
                combiners.push(Combiner::Struct(StructOp::Stitch(b.clone())));
                struct_count += 1;
            }
            for &d in &config.delims {
                for b in &children {
                    combiners.push(Combiner::Struct(StructOp::Offset(d, b.clone())));
                    struct_count += 1;
                }
            }
            // stitch2: two children sharing the remaining budget.
            for &d in &config.delims {
                for b1 in rec_ops(budget.saturating_sub(2), &config.delims) {
                    let b2_budget = budget - 1 - b1.expansions();
                    for b2 in rec_ops(b2_budget, &config.delims) {
                        combiners.push(Combiner::Struct(StructOp::Stitch2(d, b1.clone(), b2)));
                        struct_count += 1;
                    }
                }
            }
        }

        let run_ops = [
            Combiner::Run(RunOp::Rerun),
            Combiner::Run(RunOp::Merge(config.merge_flags.clone())),
        ];
        combiners.extend(run_ops.iter().cloned());

        let breakdown = SpaceBreakdown {
            rec: rec_count * 2,
            structural: struct_count * 2,
            run: run_ops.len() * 2,
        };

        let mut candidates = Vec::with_capacity(combiners.len() * 2);
        for op in combiners {
            candidates.push(Candidate {
                op: op.clone(),
                swapped: false,
            });
            candidates.push(Candidate { op, swapped: true });
        }
        (candidates, breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Combiner, RecOp, RunOp, StructOp};

    fn space(n_delims: usize) -> SpaceBreakdown {
        let config = EnumConfig {
            delims: Delim::ALL[..n_delims].to_vec(),
            ..EnumConfig::default()
        };
        let (cands, breakdown) = enumerate_candidates(&config);
        assert_eq!(cands.len(), breakdown.total());
        breakdown
    }

    #[test]
    fn one_delim_space_matches_table10() {
        // e.g. `wc -l`, `tr -cs A-Za-z '\n'`: 2700 (= 968 + 1728 + 4).
        let b = space(1);
        assert_eq!((b.rec, b.structural, b.run), (968, 1728, 4));
        assert_eq!(b.total(), 2700);
    }

    #[test]
    fn two_delim_space_matches_table10() {
        // e.g. `cat`, `sort`, `grep`: 26404 (= 12440 + 13960 + 4).
        let b = space(2);
        assert_eq!((b.rec, b.structural, b.run), (12440, 13960, 4));
        assert_eq!(b.total(), 26404);
    }

    #[test]
    fn three_delim_space_matches_table10() {
        // e.g. `awk "{print $2, $0}"`: 110444 (= 59048 + 51392 + 4).
        let b = space(3);
        assert_eq!((b.rec, b.structural, b.run), (59048, 51392, 4));
        assert_eq!(b.total(), 110444);
    }

    #[test]
    fn space_decodes_to_the_reference_enumeration() {
        // Ids are positions in the order the recursive enumeration
        // produced, for every tier, budget and delimiter choice.
        let mut configs: Vec<EnumConfig> = (0..=3)
            .map(|n| EnumConfig {
                delims: Delim::ALL[..n].to_vec(),
                merge_flags: vec!["-rn".to_owned()],
                ..EnumConfig::default()
            })
            .collect();
        configs.push(EnumConfig {
            delims: vec![Delim::Newline, Delim::Space, Delim::Comma],
            ..EnumConfig::default()
        });
        for max_size in 0..=8 {
            configs.push(EnumConfig {
                delims: vec![Delim::Space, Delim::Newline],
                max_size,
                ..EnumConfig::default()
            });
        }
        for config in &configs {
            let (want, want_breakdown) = reference::enumerate_candidates(config);
            let space = CandidateSpace::new(config);
            assert_eq!(space.len(), want.len(), "{config:?}");
            assert_eq!(space.breakdown(), want_breakdown, "{config:?}");
            for (id, candidate) in want.iter().enumerate() {
                assert_eq!(&space.candidate(id as u32), candidate, "{config:?} id {id}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decoding_past_the_end_panics() {
        let space = CandidateSpace::new(&EnumConfig::default());
        space.candidate(space.len() as u32);
    }

    #[test]
    fn display_matches_paper_format() {
        assert_eq!(space(2).to_string(), "26404 (= 12440 + 13960 + 4)");
    }

    #[test]
    fn all_candidates_within_size_budget() {
        let config = EnumConfig {
            delims: vec![Delim::Newline, Delim::Space],
            ..EnumConfig::default()
        };
        let (cands, _) = enumerate_candidates(&config);
        assert!(cands.iter().all(|c| c.size() <= config.max_size));
        // The budget is tight: some candidate attains it.
        assert!(cands.iter().any(|c| c.size() == config.max_size));
    }

    #[test]
    fn candidates_are_distinct() {
        let config = EnumConfig::default();
        let (cands, _) = enumerate_candidates(&config);
        let set: std::collections::HashSet<_> = cands.iter().collect();
        assert_eq!(set.len(), cands.len());
    }

    #[test]
    fn space_contains_known_correct_combiners() {
        let config = EnumConfig {
            delims: vec![Delim::Newline, Delim::Space],
            ..EnumConfig::default()
        };
        let (cands, _) = enumerate_candidates(&config);
        let want = [
            Combiner::Rec(RecOp::Concat),
            Combiner::Rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
            Combiner::Struct(StructOp::Stitch(RecOp::First)),
            Combiner::Struct(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First)),
            Combiner::Run(RunOp::Rerun),
        ];
        for w in want {
            assert!(cands.iter().any(|c| c.op == w && !c.swapped), "missing {w}");
        }
    }

    #[test]
    fn merge_flags_are_threaded_through() {
        let config = EnumConfig {
            merge_flags: vec!["-rn".to_owned()],
            ..EnumConfig::default()
        };
        let (cands, _) = enumerate_candidates(&config);
        assert!(cands
            .iter()
            .any(|c| matches!(&c.op, Combiner::Run(RunOp::Merge(f)) if f == &["-rn".to_owned()])));
    }

    #[test]
    fn smaller_budget_shrinks_space() {
        let small = EnumConfig {
            max_size: 4,
            ..EnumConfig::default()
        };
        let (cands, b) = enumerate_candidates(&small);
        // Size <= 4: leaves (4), one-level chains (12), stitch over leaves
        // (4), offset over leaves (4), no stitch2 (needs size 5), run (2).
        assert_eq!(b.rec, (4 + 12) * 2);
        assert_eq!(b.structural, (4 + 4) * 2);
        assert_eq!(b.run, 4);
        assert_eq!(cands.len(), b.total());
    }
}
