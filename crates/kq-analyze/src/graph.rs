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
//! [`DataflowGraph::build`] + fusion rewrite the scheduler runs, so the
//! structural invariants ([`DataflowGraph::validate`]) and the fusion
//! legality rules (fused runs span chunk-local stages only; a fused fold
//! spans a `sort | uniq` pair the lattice licenses) are checked on a graph
//! of the real shape family. The static plan also carries the lattice's
//! answer about every such pair ([`PlannedStage::fold_pair`]) — what the
//! planner will fuse once synthesis makes both stages parallel — and about
//! every counting pair whose output a numeric `sort` puts in count order
//! ([`PlannedStage::count_order`]), about every `tr -s` that runs
//! chunk-local under a newline seam ([`PlannedStage::seam`]), and about
//! every `sort` whose fold may sort raw chunks ([`PlannedStage::sorting`]),
//! which `kumquat check` reports ([`fold_pair_sites`], [`seam_sites`],
//! [`sorting_sites`]).

use crate::diag::{Diagnostic, Severity};
use kq_coreutils::sort::CountOrder;
use kq_pipeline::lattice::{self, EffectClass, FoldPair};
use kq_pipeline::plan::{self, PlannedStage, PlannedStatement, StageMode};
use kq_pipeline::scheduler::DEFAULT_QUEUE_DEPTH;
use kq_pipeline::{DataflowGraph, FoldMode, NodeKind, Script, Statement};
use std::sync::Arc;

/// Builds the conservative static plan for one statement from its
/// per-stage effect classes.
pub fn static_plan(statement: &Statement, classes: &[EffectClass]) -> PlannedStatement {
    let mut stages: Vec<PlannedStage> = statement
        .stages
        .iter()
        .zip(classes)
        .enumerate()
        .map(|(stage_idx, (stage, class))| {
            let mode = match lattice::static_combiner(*class) {
                Some(combiner) => StageMode::Parallel {
                    combiner: Arc::new(combiner),
                    eliminated: false,
                },
                None => StageMode::Sequential,
            };
            let streamable = mode.is_parallel();
            let fold_pair = pair_at(statement, stage_idx);
            PlannedStage {
                stage_idx,
                // What the planner records once synthesis finds this
                // stage's combiner to be `rerun`.
                seam: !streamable && lattice::newline_seam(&stage.command),
                // And once it finds the `merge` of the order the stage
                // sorts by.
                sorting: sorts_raw(statement, stage_idx),
                mode,
                streamable,
                line_bound: plan::line_bound(statement, stage_idx),
                fold_pair,
                count_order: count_order_at(statement, stage_idx),
            }
        })
        .collect();
    // Mirror the planner's Theorem 5 pass: a chunk-local stage followed by
    // another parallel stage sheds its intermediate combiner.
    for i in 0..stages.len() {
        let next_parallel = stages
            .get(i + 1)
            .map(|s| s.mode.is_parallel())
            .unwrap_or(false);
        if stages[i].streamable && next_parallel {
            if let StageMode::Parallel { eliminated, .. } = &mut stages[i].mode {
                *eliminated = true;
            }
        }
    }
    PlannedStatement { stages }
}

/// The fold pair the lattice licenses at stage `gi` of `statement`: that
/// stage and the next ([`lattice::fold_pair`]).
fn pair_at(statement: &Statement, gi: usize) -> Option<FoldPair> {
    let command = |i: usize| statement.stages.get(i).map(|stage| &stage.command);
    lattice::fold_pair(command(gi)?, command(gi + 1)?)
}

/// The count order the planner closes the counting pair at stage `gi` in
/// once synthesis makes the three stages parallel: a counting pair whose
/// `uniq -c` a numeric `sort` follows ([`lattice::count_order`]) that
/// starts no pair of its own.
fn count_order_at(statement: &Statement, gi: usize) -> Option<CountOrder> {
    if pair_at(statement, gi) != Some(FoldPair::Counting) || pair_at(statement, gi + 2).is_some() {
        return None;
    }
    let command = |i: usize| statement.stages.get(i).map(|stage| &stage.command);
    lattice::count_order(command(gi)?, command(gi + 2)?)
}

/// Whether stage `gi` is a `sort` the lattice licenses to fold raw chunks
/// ([`lattice::sorting_order`]) and the counting rewrite leaves to it: a
/// `sort | uniq -c` pair keeps its counting map, and the numeric sort a
/// counting fold closes in the order of is no fold of its own.
fn sorts_raw(statement: &Statement, gi: usize) -> bool {
    lattice::sorting_order(&statement.stages[gi].command).is_some()
        && pair_at(statement, gi) != Some(FoldPair::Counting)
        && !(gi >= 2 && count_order_at(statement, gi - 2).is_some())
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
    /// [`FoldPair::note`] for the pair (or [`lattice::count_order_note`]
    /// for it and the sort after it): the line `check` and the run notes
    /// print.
    pub note: String,
}

/// Every fold pair of the script, in source order: the sites the planner
/// fuses when both stages parallelize.
pub fn fold_pair_sites(script: &Script) -> Vec<FoldPairSite> {
    let mut sites = Vec::new();
    for (si, statement) in script.statements.iter().enumerate() {
        for (gi, stages) in statement.stages.windows(2).enumerate() {
            let (sort, uniq) = (&stages[0].command, &stages[1].command);
            if let Some(pair) = lattice::fold_pair(sort, uniq) {
                let count_order = count_order_at(statement, gi).is_some();
                let note = if count_order {
                    let then = &statement.stages[gi + 2].command;
                    lattice::count_order_note(si, gi, sort, uniq, then)
                } else {
                    pair.note(si, gi, sort, uniq)
                };
                sites.push(FoldPairSite {
                    statement: si,
                    stage: gi,
                    pair,
                    count_order,
                    note,
                });
            }
        }
    }
    sites
}

/// A `tr -s` stage that the lattice licenses to run chunk by chunk under a
/// one-newline seam ([`lattice::newline_seam`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeamSite {
    /// Statement index (0-based).
    pub statement: usize,
    /// Index of the stage within the statement (0-based).
    pub stage: usize,
    /// [`lattice::seam_note`] for the stage: the line `check` and the run
    /// notes print.
    pub note: String,
}

/// Every seam stage of the script, in source order: the sites the dataflow
/// graph lifts out of their folds when synthesis finds the stage's combiner
/// to be `rerun`.
pub fn seam_sites(script: &Script) -> Vec<SeamSite> {
    let mut sites = Vec::new();
    for (si, statement) in script.statements.iter().enumerate() {
        for (gi, stage) in statement.stages.iter().enumerate() {
            if lattice::newline_seam(&stage.command) {
                sites.push(SeamSite {
                    statement: si,
                    stage: gi,
                    note: lattice::seam_note(si, gi, &stage.command),
                });
            }
        }
    }
    sites
}

/// A `sort` stage whose fold the lattice licenses to sort raw chunks
/// ([`lattice::sorting_order`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortingSite {
    /// Statement index (0-based).
    pub statement: usize,
    /// Index of the stage within the statement (0-based).
    pub stage: usize,
    /// [`lattice::sorting_note`] for the stage: the line `check` and the
    /// run notes print.
    pub note: String,
}

/// Every sorting fold of the script, in source order: the `sort` stages
/// whose folds the dataflow graph feeds raw chunks once synthesis finds
/// each stage's combiner to merge in the order it sorts by — all but the
/// sorts of counting pairs and the numeric sorts counting folds close in
/// the order of.
pub fn sorting_sites(script: &Script) -> Vec<SortingSite> {
    let mut sites = Vec::new();
    for (si, statement) in script.statements.iter().enumerate() {
        for (gi, stage) in statement.stages.iter().enumerate() {
            if sorts_raw(statement, gi) {
                sites.push(SortingSite {
                    statement: si,
                    stage: gi,
                    note: lattice::sorting_note(si, gi, &stage.command),
                });
            }
        }
    }
    sites
}

/// `KQ203` — fusion legality of one statement's graph: a StageWorker run
/// must span chunk-local stages only — but for its first stage, which may
/// be a seam stage instead — a seam stage may sit nowhere else in a fused
/// node, a fused fold must span exactly a `sort | uniq` pair the lattice
/// licenses — or a counting pair and the numeric sort it licenses the pair
/// to close in the order of — and a fold fed raw chunks must be a `sort`
/// the lattice licenses for that, alone or at the head of a unique pair.
/// The rewrites of [`DataflowGraph::build`] produce
/// nothing else, so this can fire only if a rewrite (or a hand-built
/// graph) regresses; it is the static twin of the scheduler's debug
/// assertion.
pub fn fusion_findings(
    si: usize,
    statement: &Statement,
    planned: &PlannedStatement,
    graph: &DataflowGraph,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for node in &graph.nodes {
        let first = node.stages.start;
        match node.kind {
            NodeKind::StageWorker => {
                for idx in node.stages.clone() {
                    let stage = &planned.stages[idx];
                    let heads_seam = idx == first && stage.seam;
                    if !(stage.streamable || heads_seam) {
                        let what = if stage.seam {
                            "a seam stage behind the head of its run"
                        } else {
                            "not chunk-local"
                        };
                        out.push(
                            Diagnostic::new(
                                "KQ203",
                                Severity::Error,
                                format!(
                                    "fused run over stages {:?} includes stage {idx}, \
                                     which is {what}",
                                    node.stages
                                ),
                            )
                            .at_stage(
                                si,
                                idx,
                                statement.stages[idx].span,
                            ),
                        );
                    }
                }
            }
            NodeKind::Fold { mode } if node.stages.len() > 1 => {
                let licensed = match node.stages.len() {
                    2 => pair_at(statement, first).is_some(),
                    3 => mode == FoldMode::Combine && count_order_at(statement, first).is_some(),
                    _ => false,
                };
                if !licensed {
                    out.push(
                        Diagnostic::new(
                            "KQ203",
                            Severity::Error,
                            format!(
                                "fused fold over stages {:?} is not a sort | uniq pair the \
                                 lattice licenses, nor a counting pair and the numeric sort \
                                 it licenses the pair to close in the order of",
                                node.stages
                            ),
                        )
                        .at_stage(si, first, statement.stages[first].span),
                    );
                }
            }
            // `validate` (KQ201) reports every other multi-stage node.
            NodeKind::Split | NodeKind::Fold { .. } | NodeKind::BoundedConsumer { .. } => {}
        }
        if node.kind
            == (NodeKind::Fold {
                mode: FoldMode::Sort,
            })
        {
            let licensed = sorts_raw(statement, first)
                && (node.stages.len() == 1 || pair_at(statement, first) == Some(FoldPair::Unique));
            if !licensed {
                out.push(
                    Diagnostic::new(
                        "KQ203",
                        Severity::Error,
                        format!(
                            "sorting fold over stages {:?} is not a sort the lattice licenses to \
                             fold raw chunks",
                            node.stages
                        ),
                    )
                    .at_stage(si, first, statement.stages[first].span),
                );
            }
        }
    }
    out
}

/// Verifies every statement's dataflow graph (`KQ201`–`KQ203`).
pub fn verify_graphs(script: &Script, classes: &[Vec<EffectClass>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (si, (statement, stage_classes)) in script.statements.iter().zip(classes).enumerate() {
        let planned = static_plan(statement, stage_classes);
        let graph = DataflowGraph::build(&planned, true);

        // KQ201/KQ202 — structural invariants and queue-credit coverage.
        for problem in graph.validate(&planned, DEFAULT_QUEUE_DEPTH) {
            let code = if problem.contains("queue credit") {
                "KQ202"
            } else {
                "KQ201"
            };
            out.push(
                Diagnostic::new(code, Severity::Error, format!("dataflow graph: {problem}"))
                    .at_statement(si, statement.span),
            );
        }

        out.extend(fusion_findings(si, statement, &planned, &graph));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kq_pipeline::parse::parse_script;
    use std::collections::HashMap;

    fn classes_for(script: &Script) -> Vec<Vec<EffectClass>> {
        script
            .statements
            .iter()
            .map(|st| {
                st.stages
                    .iter()
                    .map(|s| lattice::classify(&s.command))
                    .collect()
            })
            .collect()
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
        let classes = classes_for(&script);
        assert!(verify_graphs(&script, &classes).is_empty());
    }

    #[test]
    fn fold_pairs_are_reported_and_unlicensed_fused_folds_are_kq203() {
        use kq_pipeline::FoldMode;
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script(
            "cat /in.txt | tr A-Z a-z | sort | uniq -c | sort -rn\n\
             cat /in.txt | sort -u | uniq -c\n\
             cat /in.txt | sort -r | uniq | sort -f | uniq\n\
             cat /in.txt | sort | uniq -c | sort -rnf\n",
            &env,
        )
        .unwrap();
        let sites = fold_pair_sites(&script);
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
        // The static plan records the same answers, on the sort's stage.
        let classes = classes_for(&script);
        let planned = static_plan(&script.statements[0], &classes[0]);
        let recorded: Vec<Option<FoldPair>> = planned.stages.iter().map(|s| s.fold_pair).collect();
        assert_eq!(recorded, [None, Some(FoldPair::Counting), None, None]);
        let closes: Vec<bool> = planned
            .stages
            .iter()
            .map(|s| s.count_order.is_some())
            .collect();
        assert_eq!(closes, [false, true, false, false]);
        assert!(verify_graphs(&script, &classes).is_empty());

        // A graph whose folds were fused by hand: over the licensed pair
        // of statement 1, alone or with the sort after it, nothing fires;
        // over `sort -u | uniq -c` KQ203.
        let fuse_stages = |si: usize, first: usize, stages: usize| {
            let statement = &script.statements[si];
            let planned = static_plan(statement, &classes[si]);
            let mut graph = DataflowGraph::build(&planned, true);
            let at = graph
                .nodes
                .iter()
                .position(|n| n.stages.start == first && !n.stages.is_empty())
                .unwrap();
            graph.nodes[at].kind = NodeKind::Fold {
                mode: FoldMode::Combine,
            };
            for _ in 1..stages {
                graph.nodes[at].stages.end += 1;
                graph.nodes.remove(at + 1);
            }
            fusion_findings(si, statement, &planned, &graph)
        };
        assert!(fuse_stages(0, 1, 2).is_empty());
        assert!(fuse_stages(0, 1, 3).is_empty());
        let findings = fuse_stages(1, 0, 2);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, "KQ203");
        assert!(findings[0].message.contains("not a sort | uniq pair"));
        // `uniq -c | sort -rn`: two folds, but no pair; and a counting pair
        // with a sort after it that puts its output in no count order.
        assert_eq!(fuse_stages(0, 2, 2)[0].code, "KQ203");
        assert!(fuse_stages(3, 0, 2).is_empty());
        let findings = fuse_stages(3, 0, 3);
        assert_eq!(findings.len(), 1);
        assert!(findings[0]
            .message
            .contains("nor a counting pair and the numeric sort"));
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
        let notes: Vec<String> = seam_sites(&script).into_iter().map(|s| s.note).collect();
        assert_eq!(
            notes,
            [
                "seam: s1 stage 2 'tr -cs A-Za-z '\\n'' runs chunk-local",
                "seam: s2 stage 2 'tr -s ' ' '\\n'' runs chunk-local"
            ]
        );
        let classes = classes_for(&script);
        assert!(verify_graphs(&script, &classes).is_empty());
        // The static plan marks the stage and the graph puts it at the
        // head of the run `tr A-Z a-z` fuses into.
        let statement = &script.statements[0];
        let planned = static_plan(statement, &classes[0]);
        let seams: Vec<bool> = planned.stages.iter().map(|s| s.seam).collect();
        assert_eq!(seams, [false, true, false, false]);
        let graph = DataflowGraph::build(&planned, true);
        assert_eq!(graph.nodes[2].kind, NodeKind::StageWorker);
        assert_eq!(graph.nodes[2].stages, 1..3);
        assert!(fusion_findings(0, statement, &planned, &graph).is_empty());
        // Fused into the `grep` before it, the seam stage no longer sees
        // the chunks of its own input edge.
        let mut fused = graph.clone();
        fused.nodes[1].stages.end = 3;
        fused.nodes.remove(2);
        let findings = fusion_findings(0, statement, &planned, &fused);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, "KQ203");
        assert!(findings[0].message.contains("a seam stage behind the head"));
        // `validate` calls the same graph malformed (KQ201).
        assert!(!fused.validate(&planned, DEFAULT_QUEUE_DEPTH).is_empty());
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
        let notes: Vec<String> = sorting_sites(&script).into_iter().map(|s| s.note).collect();
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
        let classes = classes_for(&script);
        assert!(verify_graphs(&script, &classes).is_empty());
        // The static plan records the same answers.
        let planned = static_plan(&script.statements[1], &classes[1]);
        let sorting: Vec<bool> = planned.stages.iter().map(|s| s.sorting).collect();
        assert_eq!(sorting, [false, false, false]);
        // A sorting fold made by hand: over a licensed sort, or the unique
        // pair, nothing fires; over the counting pair's sort, the sort a
        // counting fold closes in the order of, a merge, or a sort with an
        // operand, KQ203.
        let sort_fold = |si: usize, first: usize, stages: usize| {
            let statement = &script.statements[si];
            let planned = static_plan(statement, &classes[si]);
            let mut graph = DataflowGraph::build(&planned, true);
            let at = graph
                .nodes
                .iter()
                .position(|n| n.stages.start == first && !n.stages.is_empty())
                .unwrap();
            graph.nodes[at].kind = NodeKind::Fold {
                mode: FoldMode::Sort,
            };
            for _ in 1..stages {
                graph.nodes[at].stages.end += 1;
                graph.nodes.remove(at + 1);
            }
            fusion_findings(si, statement, &planned, &graph)
        };
        assert!(sort_fold(0, 0, 1).is_empty());
        assert!(sort_fold(2, 0, 2).is_empty());
        for (si, first, stages) in [(1, 0, 1), (1, 0, 2), (1, 2, 1), (3, 0, 1), (4, 0, 1)] {
            let findings = sort_fold(si, first, stages);
            assert!(
                findings.iter().any(|f| f.code == "KQ203"
                    && f.message.contains("is not a sort the lattice licenses")),
                "s{si}: {findings:?}"
            );
        }
    }

    #[test]
    fn static_plan_parallelizes_exactly_the_stateless_stages() {
        let env: HashMap<String, String> = HashMap::new();
        let script =
            parse_script("cat /in.txt | grep fox | tr A-Z a-z | sort | wc -l\n", &env).unwrap();
        let classes = classes_for(&script);
        let planned = static_plan(&script.statements[0], &classes[0]);
        let shape: Vec<(bool, bool, bool)> = planned
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
