//! Graph verification: compile each statement to the dataflow IR the
//! scheduler executes — without running anything — and check it.
//!
//! The planner normally decides stage modes from synthesis results and
//! runtime probes. The analyzer has neither, so it assembles a *static
//! plan* from the effect lattice alone: a stage statically classified
//! [`EffectClass::Stateless`] becomes a chunk-local parallel stage (its
//! combiner is the same `concat` the short-circuit hands the planner);
//! every other stage becomes sequential. That plan is conservative — the
//! dynamic plan may parallelize more — but it exercises the same
//! [`DataflowGraph::build`] and rewrites the scheduler runs, and
//! [`DataflowGraph::validate`] checks the result: its structure
//! (`KQ201`), its queue credit (`KQ202`) and that every fused run, fused
//! fold and sorting fold is one the plan licenses (`KQ203`).
//!
//! The static plan's licences come from the planner's own rules
//! ([`PlannedStatement::new`]), fed what each licence assumes synthesis
//! finds ([`Evidence::assumed`]) in place of what it found. So its flags
//! are the rewrites the planner applies once synthesis makes the stages
//! parallel: every `sort | uniq` pair that runs as one fold
//! ([`PlannedStage::fold_pair`]), every counting pair that closes in the
//! order of the numeric `sort` after it ([`PlannedStage::count_order`]),
//! every `tr -s` that runs chunk-local under a newline seam
//! ([`PlannedStage::seam`]) and every `sort` whose fold sorts raw chunks
//! ([`PlannedStage::sorting`]). `kumquat check` reports them
//! ([`fold_pair_sites`], [`seam_sites`], [`sorting_sites`]) with the notes
//! `plan` and `run` print ([`PlannedStatement::rewrites`]).
//!
//! [`PlannedStage::fold_pair`]: kq_pipeline::plan::PlannedStage::fold_pair
//! [`PlannedStage::count_order`]: kq_pipeline::plan::PlannedStage::count_order
//! [`PlannedStage::seam`]: kq_pipeline::plan::PlannedStage::seam
//! [`PlannedStage::sorting`]: kq_pipeline::plan::PlannedStage::sorting

use crate::diag::{Diagnostic, Severity};
use kq_pipeline::lattice::{self, EffectClass, FoldPair};
use kq_pipeline::plan::{Evidence, PlannedStatement, Rewrite, StageMode};
use kq_pipeline::scheduler::DEFAULT_QUEUE_DEPTH;
use kq_pipeline::{DataflowGraph, GraphFault, Script, Statement};
use std::sync::Arc;

/// Builds the conservative static plan for one statement from its
/// per-stage effect classes.
pub fn static_plan(statement: &Statement, classes: &[EffectClass]) -> PlannedStatement {
    let modes: Vec<StageMode> = classes
        .iter()
        .map(|class| match lattice::static_combiner(*class) {
            Some(combiner) => StageMode::Parallel {
                combiner: Arc::new(combiner),
                eliminated: false,
            },
            None => StageMode::Sequential,
        })
        .collect();
    let streamable = modes.iter().map(StageMode::is_parallel).collect();
    let evidence: Vec<Evidence> = statement
        .stages
        .iter()
        .map(|stage| Evidence::assumed(&stage.command))
        .collect();
    PlannedStatement::new(statement, modes, streamable, &evidence)
}

/// `(statement, stage, rewrite, note)` for every rewrite the static plans
/// license, in source order.
fn rewrites<'a>(
    script: &'a Script,
    plans: &'a [PlannedStatement],
) -> impl Iterator<Item = (usize, usize, Rewrite, String)> + 'a {
    script
        .statements
        .iter()
        .zip(plans)
        .enumerate()
        .flat_map(|(si, (statement, planned))| {
            planned
                .rewrites(si, statement)
                .into_iter()
                .map(move |(gi, rewrite, note)| (si, gi, rewrite, note))
        })
}

/// A `sort | uniq` pair of adjacent stages that the lattice licenses to
/// run as one fold under the dataflow executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldPairSite {
    /// Statement index (0-based).
    pub statement: usize,
    /// Index of the `sort` stage within the statement (0-based); the
    /// `uniq` is the next stage.
    pub stage: usize,
    /// What the pair folds into.
    pub pair: FoldPair,
    /// The fold extends over the numeric `sort` after the pair and closes
    /// in its order ([`lattice::count_order`]).
    pub count_order: bool,
    /// The line `check` and the run notes print for the pair
    /// ([`PlannedStatement::rewrites`]).
    pub note: String,
}

/// Every fold pair of the static plans, in source order: the sites the
/// planner fuses when both stages parallelize.
pub fn fold_pair_sites(script: &Script, plans: &[PlannedStatement]) -> Vec<FoldPairSite> {
    rewrites(script, plans)
        .filter_map(|(si, gi, rewrite, note)| match rewrite {
            Rewrite::Fold(pair) => Some(FoldPairSite {
                statement: si,
                stage: gi,
                pair,
                count_order: plans[si].stages[gi].count_order.is_some(),
                note,
            }),
            Rewrite::Seam | Rewrite::Sorting => None,
        })
        .collect()
}

/// A `tr -s` stage that the lattice licenses to run chunk by chunk under a
/// one-newline seam ([`lattice::newline_seam`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeamSite {
    /// Statement index (0-based).
    pub statement: usize,
    /// Index of the stage within the statement (0-based).
    pub stage: usize,
    /// The line `check` and the run notes print for the stage
    /// ([`PlannedStatement::rewrites`]).
    pub note: String,
}

/// Every seam stage of the static plans, in source order: the sites the
/// dataflow graph lifts out of their folds when synthesis finds the
/// stage's combiner to be `rerun`.
pub fn seam_sites(script: &Script, plans: &[PlannedStatement]) -> Vec<SeamSite> {
    rewrites(script, plans)
        .filter(|(.., rewrite, _)| *rewrite == Rewrite::Seam)
        .map(|(statement, stage, _, note)| SeamSite {
            statement,
            stage,
            note,
        })
        .collect()
}

/// A `sort` stage whose fold the lattice licenses to sort raw chunks
/// ([`lattice::sorting_order`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortingSite {
    /// Statement index (0-based).
    pub statement: usize,
    /// Index of the stage within the statement (0-based).
    pub stage: usize,
    /// The line `check` and the run notes print for the stage
    /// ([`PlannedStatement::rewrites`]).
    pub note: String,
}

/// Every sorting fold of the static plans, in source order: the `sort`
/// stages whose folds the dataflow graph feeds raw chunks once synthesis
/// finds each stage's combiner to merge in the order it sorts by — all but
/// the sorts of counting pairs and the numeric sorts counting folds close
/// in the order of.
pub fn sorting_sites(script: &Script, plans: &[PlannedStatement]) -> Vec<SortingSite> {
    rewrites(script, plans)
        .filter(|(.., rewrite, _)| *rewrite == Rewrite::Sorting)
        .map(|(statement, stage, _, note)| SortingSite {
            statement,
            stage,
            note,
        })
        .collect()
}

/// The findings on one statement's graph: one per problem
/// [`DataflowGraph::validate`] finds, `KQ201` for the graph's structure,
/// `KQ202` for its queue credit and `KQ203` for a fusion the plan does not
/// license.
fn graph_findings(
    si: usize,
    statement: &Statement,
    planned: &PlannedStatement,
    graph: &DataflowGraph,
    queue_seed: usize,
) -> Vec<Diagnostic> {
    graph
        .validate(planned, queue_seed)
        .into_iter()
        .map(|(fault, problem)| {
            let code = match fault {
                GraphFault::Structure => "KQ201",
                GraphFault::Credit => "KQ202",
                GraphFault::Fusion => "KQ203",
            };
            Diagnostic::new(code, Severity::Error, format!("dataflow graph: {problem}"))
                .at_statement(si, statement.span)
        })
        .collect()
}

/// Verifies every statement's dataflow graph, as the scheduler builds it
/// from the statement's static plan ([`graph_findings`]).
pub fn verify_graphs(script: &Script, plans: &[PlannedStatement]) -> Vec<Diagnostic> {
    let statements = script.statements.iter().zip(plans).enumerate();
    statements
        .flat_map(|(si, (statement, planned))| {
            let graph = DataflowGraph::build(planned, true);
            graph_findings(si, statement, planned, &graph, DEFAULT_QUEUE_DEPTH)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kq_pipeline::parse::parse_script;
    use kq_pipeline::{FoldMode, NodeKind};
    use std::collections::HashMap;

    fn plans_for(script: &Script) -> Vec<PlannedStatement> {
        let classes = |st: &Statement| -> Vec<EffectClass> {
            st.stages
                .iter()
                .map(|s| lattice::classify(&s.command))
                .collect()
        };
        script
            .statements
            .iter()
            .map(|st| static_plan(st, &classes(st)))
            .collect()
    }

    /// The graph of `planned` with the node at stage `first` made a fold in
    /// `mode` over `stages` stages, by hand.
    fn fold_by_hand(
        planned: &PlannedStatement,
        first: usize,
        stages: usize,
        mode: FoldMode,
    ) -> DataflowGraph {
        let mut graph = DataflowGraph::build(planned, true);
        let at = graph
            .nodes
            .iter()
            .position(|n| n.stages.start == first && !n.stages.is_empty())
            .unwrap();
        graph.nodes[at].kind = NodeKind::Fold { mode };
        for _ in 1..stages {
            graph.nodes[at].stages.end += 1;
            graph.nodes.remove(at + 1);
        }
        graph
    }

    /// The findings on `graph` as statement `si`'s graph, under
    /// `queue_seed` chunks of credit.
    fn findings(
        script: &Script,
        plans: &[PlannedStatement],
        si: usize,
        graph: &DataflowGraph,
        queue_seed: usize,
    ) -> Vec<Diagnostic> {
        graph_findings(si, &script.statements[si], &plans[si], graph, queue_seed)
    }

    /// Asserts that `findings` is exactly one `code` finding whose message
    /// says `what`.
    fn assert_one(findings: &[Diagnostic], code: &str, what: &str) {
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].code, code, "{findings:?}");
        assert!(findings[0].message.contains(what), "{findings:?}");
    }

    #[test]
    fn corpus_shaped_statements_verify_clean() {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script(
            "cat /in.txt | tr A-Z a-z | grep fox | sort | uniq -c | head -n 5\n\
             cat /a /b | cut -d ' ' -f 1 | wc -l > /tmp/count\n",
            &env,
        )
        .unwrap();
        let plans = plans_for(&script);
        assert!(verify_graphs(&script, &plans).is_empty());
    }

    #[test]
    fn fold_pairs_are_reported_and_unlicensed_fused_folds_are_kq203() {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script(
            "cat /in.txt | tr A-Z a-z | sort | uniq -c | sort -rn\n\
             cat /in.txt | sort -u | uniq -c\n\
             cat /in.txt | sort -r | uniq | sort -f | uniq\n\
             cat /in.txt | sort | uniq -c | sort -rnf\n",
            &env,
        )
        .unwrap();
        let plans = plans_for(&script);
        let sites = fold_pair_sites(&script, &plans);
        let notes: Vec<&str> = sites.iter().map(|s| s.note.as_str()).collect();
        assert_eq!(
            notes,
            [
                "counting fold: s1 stages 2-4 'sort | uniq -c | sort -rn' (count order)",
                "unique fold: s3 stages 1-2 'sort -r | uniq'",
                "counting fold: s4 stages 1-2 'sort | uniq -c'",
            ]
        );
        let closing: Vec<bool> = sites.iter().map(|s| s.count_order).collect();
        assert_eq!(closing, [true, false, false]);
        // The sites are the static plan's flags, on the sort's stage.
        let recorded: Vec<Option<FoldPair>> = plans[0].stages.iter().map(|s| s.fold_pair).collect();
        assert_eq!(recorded, [None, Some(FoldPair::Counting), None, None]);
        let closes: Vec<bool> = plans[0]
            .stages
            .iter()
            .map(|s| s.count_order.is_some())
            .collect();
        assert_eq!(closes, [false, true, false, false]);
        assert!(verify_graphs(&script, &plans).is_empty());

        // A graph whose folds were fused by hand: over the licensed pair
        // of statement 1, alone or with the sort after it, nothing fires;
        // over `sort -u | uniq -c` one KQ203.
        let fused = |si: usize, first: usize, stages: usize| {
            let graph = fold_by_hand(&plans[si], first, stages, FoldMode::Combine);
            findings(&script, &plans, si, &graph, DEFAULT_QUEUE_DEPTH)
        };
        let spans = "may span more than one stage";
        assert!(fused(0, 1, 2).is_empty());
        assert!(fused(0, 1, 3).is_empty());
        assert_one(&fused(1, 0, 2), "KQ203", spans);
        // `uniq -c | sort -rn`: two folds, but no pair; and a counting pair
        // with a sort after it that puts its output in no count order.
        assert_one(&fused(0, 2, 2), "KQ203", spans);
        assert!(fused(3, 0, 2).is_empty());
        assert_one(&fused(3, 0, 3), "KQ203", spans);
        // A graph no edge of which can carry a chunk: one KQ202.
        let graph = DataflowGraph::build(&plans[0], true);
        assert_one(
            &findings(&script, &plans, 0, &graph, 0),
            "KQ202",
            "queue credit",
        );
    }

    #[test]
    fn seam_stages_are_reported_and_misplaced_ones_are_kq203() {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script(
            "cat /in.txt | grep o | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort\n\
             cat /in.txt | tr -s '\\n' ' ' | tr -s ' ' '\\n'\n",
            &env,
        )
        .unwrap();
        let plans = plans_for(&script);
        let notes: Vec<String> = seam_sites(&script, &plans)
            .into_iter()
            .map(|s| s.note)
            .collect();
        assert_eq!(
            notes,
            [
                "seam: s1 stage 2 'tr -cs A-Za-z '\\n'' runs chunk-local",
                "seam: s2 stage 2 'tr -s ' ' '\\n'' runs chunk-local"
            ]
        );
        assert!(verify_graphs(&script, &plans).is_empty());
        // The static plan marks the stage and the graph puts it at the
        // head of the run `tr A-Z a-z` fuses into.
        let seams: Vec<bool> = plans[0].stages.iter().map(|s| s.seam).collect();
        assert_eq!(seams, [false, true, false, false]);
        let graph = DataflowGraph::build(&plans[0], true);
        assert_eq!(graph.nodes[2].kind, NodeKind::StageWorker);
        assert_eq!(graph.nodes[2].stages, 1..3);
        // Fused into the `grep` before it, the seam stage no longer sees
        // the chunks of its own input edge: one KQ203, and nothing else.
        let mut fused = graph.clone();
        fused.nodes[1].stages.end = 3;
        fused.nodes.remove(2);
        let found = findings(&script, &plans, 0, &fused, DEFAULT_QUEUE_DEPTH);
        assert_one(
            &found,
            "KQ203",
            "a seam stage: it may only head a StageWorker",
        );
    }

    #[test]
    fn sorting_sites_are_reported_and_unlicensed_sorting_folds_are_kq203() {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script(
            "cat /in.txt | sort -rn | head -n 3\n\
             cat /in.txt | sort | uniq -c | sort -k1n\n\
             cat /in.txt | sort -r | uniq\n\
             cat /in.txt | sort -m\n\
             cat /in.txt | sort - /in.txt | sort -u\n",
            &env,
        )
        .unwrap();
        let plans = plans_for(&script);
        let notes: Vec<String> = sorting_sites(&script, &plans)
            .into_iter()
            .map(|s| s.note)
            .collect();
        // `sort -k1n` after the counting pair is no fold of its own: the
        // counting fold closes in its order.
        assert_eq!(
            notes,
            [
                "sorting fold: s1 stage 1 'sort -rn'",
                "sorting fold: s3 stage 1 'sort -r'",
                "sorting fold: s5 stage 2 'sort -u'",
            ]
        );
        assert!(verify_graphs(&script, &plans).is_empty());
        let sorting: Vec<bool> = plans[1].stages.iter().map(|s| s.sorting).collect();
        assert_eq!(sorting, [false, false, false]);
        // A sorting fold made by hand: over a licensed sort, or the unique
        // pair, nothing fires; over the counting pair's sort, the sort a
        // counting fold closes in the order of, a merge, or a sort with an
        // operand, one KQ203.
        let sort_fold = |si: usize, first: usize, stages: usize| {
            let graph = fold_by_hand(&plans[si], first, stages, FoldMode::Sort);
            findings(&script, &plans, si, &graph, DEFAULT_QUEUE_DEPTH)
        };
        assert!(sort_fold(0, 0, 1).is_empty());
        assert!(sort_fold(2, 0, 2).is_empty());
        for (si, first, stages) in [(1, 0, 1), (1, 0, 2), (1, 2, 1), (3, 0, 1), (4, 0, 1)] {
            let found = sort_fold(si, first, stages);
            assert_one(&found, "KQ203", "does not license to fold raw chunks");
        }
    }

    #[test]
    fn static_plan_parallelizes_exactly_the_stateless_stages() {
        let env: HashMap<String, String> = HashMap::new();
        let script =
            parse_script("cat /in.txt | grep fox | tr A-Z a-z | sort | wc -l\n", &env).unwrap();
        let plans = plans_for(&script);
        let shape: Vec<(bool, bool, bool)> = plans[0]
            .stages
            .iter()
            .map(|s| (s.mode.is_parallel(), s.mode.is_eliminated(), s.streamable))
            .collect();
        // grep and tr are stateless (grep eliminated into tr); sort and wc
        // are folds the static plan conservatively leaves sequential.
        assert_eq!(
            shape,
            vec![
                (true, true, true),
                (true, false, true),
                (false, false, false),
                (false, false, false),
            ]
        );
    }
}
