//! Corpus-wide properties of the `kumquat check` static analysis pass:
//!
//! 1. the effect lattice never claims more than dynamic synthesis can
//!    prove (agreement, per unique corpus command);
//! 2. turning the lattice short-circuit on does not change a single byte
//!    of any emitted parallel script (plan identity), while skipping
//!    synthesis for a substantial fraction of unique commands;
//! 3. `check` is clean — even under `--deny-warnings` semantics — on all
//!    70 benchmark scripts;
//! 4. a deliberately broken fixture trips the hazard lints and makes the
//!    CLI exit nonzero;
//! 5. the `sort | uniq` pairs `check` names are exactly the pairs the
//!    planner fuses into one fold, corpus-wide;
//! 6. so are the `tr -s` seam stages the planner lifts out of their folds;
//! 7. and the `sort` stages whose folds the planner feeds raw chunks;
//! 8. beyond the corpus, over a table of `sort` spellings, followers and
//!    tails, the sites `check` reports are the nodes the planner's graph
//!    builds, and the dataflow run prints what the serial run prints.

use kq_analyze::EffectClass;
use kq_cli::{emit_script, EmitOptions};
use kq_coreutils::ExecContext;
use kq_pipeline::cache_key;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::{Planner, StageMode};
use kq_synth::SynthesisConfig;
use kq_workloads::{corpus, planning_sample, setup, Scale};
use std::collections::HashMap;

const SCALE: Scale = Scale {
    input_bytes: 16_000,
};

/// (1) Agreement: for every unique stdin-reading command in the corpus,
/// the static classification is a *lower bound* on what synthesis
/// observes. `Stateless` promises the combiner is plain `concat`;
/// `PureParallelizable`/`CommutativeFold` promise a combiner exists.
/// Synthesis runs with the lattice off, so nothing here is circular.
#[test]
fn lattice_never_claims_more_than_synthesis_proves() {
    let mut planner = Planner::new(SynthesisConfig::default());
    planner.use_lattice = false;
    let mut seen: HashMap<String, String> = HashMap::new();
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &SCALE, 0xA9A1);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        for statement in &parsed.statements {
            for stage in &statement.stages {
                let cmd = &stage.command;
                if !cmd.reads_stdin() {
                    continue;
                }
                let key = cache_key(cmd);
                if seen.contains_key(&key) {
                    continue;
                }
                seen.insert(key, cmd.display().to_owned());
                let class = kq_analyze::classify(cmd);
                let combiner = planner.combiner_for(cmd, &ctx);
                match class {
                    EffectClass::Stateless => {
                        let combiner = combiner.unwrap_or_else(|| {
                            panic!("{}: Stateless but synthesis found nothing", cmd.display())
                        });
                        assert!(
                            combiner.is_concat(),
                            "{}: Stateless but synthesis did not certify concat",
                            cmd.display()
                        );
                    }
                    EffectClass::PureParallelizable | EffectClass::CommutativeFold => {
                        assert!(
                            combiner.is_some(),
                            "{}: classified {} but synthesis found no combiner",
                            cmd.display(),
                            class.as_str()
                        );
                    }
                    // No static promise to check.
                    EffectClass::OrderSensitive | EffectClass::Unknown => {}
                }
            }
        }
    }
    assert!(
        seen.len() >= 30,
        "corpus walk found only {} unique commands",
        seen.len()
    );
}

/// (2) Plan identity and short-circuit coverage: across the whole corpus,
/// the lattice-on planner emits byte-identical parallel scripts to the
/// synthesis-only planner, while short-circuiting synthesis for at least
/// 25% of the unique commands it resolves.
#[test]
fn short_circuited_plans_are_byte_identical_across_the_corpus() {
    let mut with = Planner::new(SynthesisConfig::default());
    let mut without = Planner::new(SynthesisConfig::default());
    without.use_lattice = false;
    for script in corpus() {
        let emitted = |planner: &mut Planner| {
            let ctx = ExecContext::default();
            let env = setup(script, &ctx, &SCALE, 0x1D57);
            let parsed = parse_script(script.text, &env).unwrap();
            let sample = ctx.vfs.read(&env["IN"]).unwrap();
            let plan = planner.plan(&parsed, &ctx, planning_sample(&sample, 12_000));
            emit_script(&parsed, &plan, &EmitOptions::default()).script
        };
        assert_eq!(
            emitted(&mut with),
            emitted(&mut without),
            "{}/{}: lattice short-circuit changed the emitted plan",
            script.suite.dir(),
            script.id
        );
    }
    // Unique commands resolved by the lattice-on planner: one synthesis
    // report per cold synthesis, one counter bump per short-circuit.
    let unique = with.lattice_short_circuits + with.reports.len();
    assert_eq!(without.lattice_short_circuits, 0);
    assert!(
        with.lattice_short_circuits * 4 >= unique,
        "short-circuits {}/{unique} below the 25% floor",
        with.lattice_short_circuits
    );
}

/// (3) `kumquat check` is clean on every corpus script, including under
/// `--deny-warnings` semantics, and classifies at least one stage
/// statically in the aggregate.
#[test]
fn check_is_clean_on_all_seventy_corpus_scripts() {
    let mut scripts = 0usize;
    let mut classified = 0usize;
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &SCALE, 0xC4EC);
        let analysis = kq_analyze::check_script(script.text, &env);
        assert_eq!(
            analysis.errors(),
            0,
            "{}/{}: {}",
            script.suite.dir(),
            script.id,
            analysis.render_human()
        );
        assert!(
            analysis.passes(true),
            "{}/{} has warnings: {}",
            script.suite.dir(),
            script.id,
            analysis.render_human()
        );
        scripts += 1;
        classified += analysis
            .classes
            .iter()
            .filter(|c| c.class != EffectClass::Unknown)
            .count();
    }
    assert_eq!(scripts, 70);
    assert!(
        classified >= scripts,
        "only {classified} statically classified stages across {scripts} scripts"
    );
}

/// (4) The broken fixture: statement 2 reads a file that only statement 3
/// writes (use-before-def), and statement 2's output is overwritten by
/// statement 4 without ever being read (dead write). Both lints fire;
/// hazards are warnings, so `--deny-warnings` is what turns them into a
/// nonzero CLI exit — pin exactly that.
#[test]
fn broken_fixture_trips_hazard_lints_and_nonzero_exit() {
    let fixture = "cat /in.txt | sort > /data/sorted.txt\n\
                   cat /data/later.txt | wc -l > /data/n.txt\n\
                   cat /in.txt | tr a-z A-Z > /data/later.txt\n\
                   cat /in.txt | grep fox > /data/n.txt\n";
    let analysis = kq_analyze::check_script(fixture, &HashMap::new());
    let codes: Vec<&str> = analysis.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"KQ101"), "no use-before-def: {codes:?}");
    assert!(codes.contains(&"KQ102"), "no dead-write: {codes:?}");
    assert!(analysis.passes(false));
    assert!(!analysis.passes(true));

    // CLI surface: --deny-warnings turns the warnings into a nonzero exit.
    let out =
        kq_cli::run_cli(&["check".into(), "--deny-warnings".into(), fixture.to_owned()]).unwrap();
    assert_eq!(out.exit_code, 1, "stdout: {}", out.text());
    assert!(out.text().contains("KQ101"), "stdout: {}", out.text());
    assert!(out.text().contains("KQ102"), "stdout: {}", out.text());
    let clean = kq_cli::run_cli(&[
        "check".into(),
        "--deny-warnings".into(),
        "cat /in.txt | grep fox | wc -l".into(),
    ])
    .unwrap();
    assert_eq!(clean.exit_code, 0, "stdout: {}", clean.text());
}

/// (5) The counting rewrite, statically and dynamically: every
/// `sort | uniq [-c]` pair the planner records — and the dataflow graph
/// therefore fuses into one two-stage fold — is a pair `check` reports
/// from the signatures alone, and every pair `check` reports is one the
/// planner fuses (in the corpus both stages of each always parallelize and
/// the sort's combiner is always `merge`). A counting pair that a numeric
/// `sort` follows fuses with it into one three-stage fold closing in count
/// order, and `check` says so of exactly those; the corpus tails that do
/// are pinned by count. The pairs the lattice refuses stay two nodes.
#[test]
fn check_reports_exactly_the_fold_pairs_the_planner_fuses() {
    use kq_pipeline::{DataflowGraph, NodeKind};
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut scripts_with_a_pair = 0usize;
    let (mut tails, mut scripts_with_a_tail) = (0usize, 0usize);
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &SCALE, 0xF01D);
        let parsed = parse_script(script.text, &env).unwrap();
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let plan = planner.plan(&parsed, &ctx, planning_sample(&sample, 12_000));
        // (statement, sort stage, stages) of every multi-stage fold in the
        // graphs.
        let mut fused: Vec<(usize, usize, usize)> = Vec::new();
        for (si, planned) in plan.statements.iter().enumerate() {
            let graph = DataflowGraph::build(planned, true);
            assert!(graph.validate(planned, 4).is_empty());
            for node in &graph.nodes {
                if matches!(node.kind, NodeKind::Fold { .. }) && node.stages.len() > 1 {
                    let count_order = planned.stages[node.stages.start].count_order;
                    assert_eq!(node.stages.len(), 2 + usize::from(count_order.is_some()));
                    fused.push((si, node.stages.start, node.stages.len()));
                }
            }
        }
        let analysis = kq_analyze::check_script(script.text, &env);
        let reported: Vec<(usize, usize, usize)> = analysis
            .fold_pairs
            .iter()
            .map(|site| {
                (
                    site.statement,
                    site.stage,
                    2 + usize::from(site.count_order),
                )
            })
            .collect();
        assert_eq!(
            fused,
            reported,
            "{}/{}: planner-fused pairs vs `check`",
            script.suite.dir(),
            script.id
        );
        for site in &analysis.fold_pairs {
            assert!(
                analysis.render_human().contains(&site.note),
                "check must name {}",
                site.note
            );
        }
        scripts_with_a_pair += usize::from(!fused.is_empty());
        let script_tails = fused.iter().filter(|(_, _, stages)| *stages == 3).count();
        tails += script_tails;
        scripts_with_a_tail += usize::from(script_tails > 0);
    }
    assert!(
        scripts_with_a_pair >= 36,
        "only {scripts_with_a_pair} corpus scripts have a fold pair"
    );
    assert_eq!(
        (tails, scripts_with_a_tail),
        (20, 19),
        "counting folds closing in count order across the corpus, and the scripts they are in"
    );

    // The pairs that must stay two nodes, through the real planner
    // (`sort | uniq -d`, which this reproduction's `uniq` does not parse,
    // is refused by `lattice::fold_pair`'s own test).
    for text in [
        "cat /in.txt | sort -u | uniq -c",
        "cat /in.txt | sort /in.txt | uniq -c",
        "cat /in.txt | sort > /t\ncat /t | uniq -c",
        "cat /in.txt | sort -f | uniq",
    ] {
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", "b x\na y\nb x\n".repeat(40));
        let parsed = parse_script(text, &HashMap::new()).unwrap();
        let plan = planner.plan(&parsed, &ctx, &"b x\na y\nb x\n".repeat(40));
        for planned in &plan.statements {
            let graph = DataflowGraph::build(planned, true);
            assert!(
                graph.nodes.iter().all(|n| n.stages.len() <= 1),
                "{text}: {:?}",
                graph.nodes
            );
        }
        assert!(kq_analyze::check_script(text, &HashMap::new())
            .fold_pairs
            .is_empty());
    }
}

/// (6) The seam rewrite, statically and dynamically: every stage the
/// planner marks a seam — and the dataflow graph therefore runs at the
/// head of a chunk-local node instead of in a fold — is a stage `check`
/// reports from the command alone, and every stage `check` reports is one
/// the planner marks (in the corpus synthesis finds each of them `rerun`,
/// whether or not the planning sample makes the rerun look worth a
/// parallel stage: the `poets` scripts' `$IN` is a list of file names,
/// which a word splitter shrinks to nothing). The sites and the scripts
/// they are in are pinned by count.
#[test]
fn check_reports_exactly_the_seam_stages_the_planner_lifts() {
    use kq_pipeline::{DataflowGraph, NodeKind};
    let mut planner = Planner::new(SynthesisConfig::default());
    let (mut sites, mut scripts, mut planned_parallel) = (0usize, 0usize, 0usize);
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &SCALE, 0x5EA4);
        let parsed = parse_script(script.text, &env).unwrap();
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let plan = planner.plan(&parsed, &ctx, planning_sample(&sample, 12_000));
        // (statement, stage) of the head of every seam node in the graphs.
        let mut lifted: Vec<(usize, usize)> = Vec::new();
        for (si, planned) in plan.statements.iter().enumerate() {
            let graph = DataflowGraph::build(planned, true);
            assert!(graph.validate(planned, 4).is_empty());
            for node in &graph.nodes {
                if node.heads_seam(planned) {
                    lifted.push((si, node.stages.start));
                    planned_parallel +=
                        usize::from(planned.stages[node.stages.start].mode.is_parallel());
                }
                // No seam stage is left in a fold.
                let folds = matches!(node.kind, NodeKind::Fold { .. });
                assert!(!(folds && planned.stages[node.stages.start].seam));
            }
        }
        let analysis = kq_analyze::check_script(script.text, &env);
        let reported: Vec<(usize, usize)> = analysis
            .seams
            .iter()
            .map(|site| (site.statement, site.stage))
            .collect();
        assert_eq!(
            lifted,
            reported,
            "{}/{}: planner-lifted seams vs `check`",
            script.suite.dir(),
            script.id
        );
        for site in &analysis.seams {
            assert!(
                analysis.render_human().contains(&site.note),
                "check must name {}",
                site.note
            );
        }
        sites += lifted.len();
        scripts += usize::from(!lifted.is_empty());
    }
    assert_eq!(
        (sites, scripts),
        (30, 27),
        "seam stages across the corpus, and the scripts they are in"
    );
    // Four of them plan parallel on the file-list sample.
    assert_eq!(planned_parallel, 4);
}

/// (7) The sorting rewrite, statically and dynamically: every `sort` stage
/// whose fold the dataflow graph feeds raw chunks is one `check` reports
/// from the command alone, and every one `check` reports is such a fold in
/// the graph (in the corpus every stdin-reading `sort` parallelizes with
/// the `merge` of its own flags). The sorts of counting pairs are neither,
/// nor are the numeric sorts a counting fold closes in the order of; the
/// sites are pinned by count.
#[test]
fn check_reports_exactly_the_sorting_folds_the_planner_builds() {
    use kq_pipeline::{DataflowGraph, FoldMode, NodeKind};
    let mut planner = Planner::new(SynthesisConfig::default());
    let (mut sites, mut scripts) = (0usize, 0usize);
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &SCALE, 0x5027);
        let parsed = parse_script(script.text, &env).unwrap();
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let plan = planner.plan(&parsed, &ctx, planning_sample(&sample, 12_000));
        let mut built: Vec<(usize, usize)> = Vec::new();
        for (si, planned) in plan.statements.iter().enumerate() {
            let graph = DataflowGraph::build(planned, true);
            assert!(graph.validate(planned, 4).is_empty());
            for node in &graph.nodes {
                if node.kind
                    == (NodeKind::Fold {
                        mode: FoldMode::Sort,
                    })
                {
                    built.push((si, node.stages.start));
                }
            }
            // `--no-opt` builds none.
            assert!(DataflowGraph::build(planned, false)
                .nodes
                .iter()
                .all(|n| n.kind
                    != NodeKind::Fold {
                        mode: FoldMode::Sort
                    }));
        }
        let analysis = kq_analyze::check_script(script.text, &env);
        let reported: Vec<(usize, usize)> = analysis
            .sortings
            .iter()
            .map(|site| (site.statement, site.stage))
            .collect();
        assert_eq!(
            built,
            reported,
            "{}/{}: planner-built sorting folds vs `check`",
            script.suite.dir(),
            script.id
        );
        for site in &analysis.sortings {
            assert!(analysis.render_human().contains(&site.note));
        }
        sites += built.len();
        scripts += usize::from(!built.is_empty());
    }
    // 54 sorts in 42 scripts, less the 20 numeric sorts that counting
    // folds close in the order of.
    assert_eq!(
        (sites, scripts),
        (34, 27),
        "sorting folds across the corpus, and the scripts they are in"
    );
}

/// (8) The licences beyond the corpus: every `sort` spelling × follower ×
/// tail, with and without the word splitter in front. Wherever synthesis
/// gave each `sort` that the lattice can order the `merge` of its own
/// order — what `check` assumes it finds — the fold pairs, sorting folds
/// and seams `check` reports are exactly the multi-stage folds, sorting
/// folds and seam-headed nodes of the planner's graphs. Every script, at
/// one and four workers on small chunks, prints what the serial run
/// prints.
#[test]
fn check_reports_the_rewrites_the_planner_builds_beyond_the_corpus() {
    use kq_pipeline::exec::run_serial;
    use kq_pipeline::lattice::sorting_order;
    use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
    use kq_pipeline::{DataflowGraph, FoldMode, NodeKind};
    let input: String = (0..240)
        .map(|i| {
            format!(
                "{} {} Word{}\n",
                ["apple", "Banana", "10", "cherry", "9", "apple"][i % 6],
                i % 7,
                i % 5
            )
        })
        .collect();
    let mut planner = Planner::new(SynthesisConfig::default());
    let (mut scripts, mut compared, mut sites) = (0usize, 0usize, 0usize);
    for lead in ["", "tr -cs A-Za-z '\\n' | "] {
        for flags in [
            "",
            "-r",
            "-n",
            "-f",
            "-u",
            "-s",
            "-m",
            "-k1n",
            "-k1,1nr",
            "- /in.txt",
        ] {
            for follower in ["uniq", "uniq -c"] {
                for tail in ["", " | sort -rn", " | sort -n", " | sort -k1nr", " | sort"] {
                    let text = format!("cat /in.txt | {lead}sort {flags} | {follower}{tail}");
                    let ctx = ExecContext::default();
                    ctx.vfs.write("/in.txt", input.as_str());
                    let parsed = parse_script(&text, &HashMap::new()).unwrap();
                    let plan = planner.plan(&parsed, &ctx, &input);
                    let planned = &plan.statements[0];
                    scripts += 1;

                    let serial = run_serial(&parsed, &ctx).unwrap();
                    for workers in [1, 4] {
                        let opts = DataflowOptions {
                            workers,
                            chunk: ChunkSizing::Fixed(700),
                            queue: QueueCredit::Fixed(2),
                            fuse_streamable: true,
                            spill: None,
                        };
                        let got = run_dataflow(&parsed, &plan, &ctx, &opts).unwrap();
                        assert_eq!(got.output, serial.output, "{text} (w={workers})");
                    }

                    let merges_own_order =
                        parsed.statements[0].stages.iter().zip(&planned.stages).all(
                            |(stage, plan)| match sorting_order(&stage.command) {
                                None => true,
                                Some(order) => matches!(&plan.mode,
                                StageMode::Parallel { combiner, .. }
                                    if combiner.merge_order() == Some(order)),
                            },
                        );
                    if !merges_own_order {
                        continue;
                    }
                    compared += 1;
                    let graph = DataflowGraph::build(planned, true);
                    let (mut folds, mut sorting, mut seams) = (Vec::new(), Vec::new(), Vec::new());
                    for node in &graph.nodes {
                        let first = node.stages.start;
                        if matches!(node.kind, NodeKind::Fold { .. }) && node.stages.len() > 1 {
                            folds.push((first, node.stages.len()));
                        }
                        if node.kind
                            == (NodeKind::Fold {
                                mode: FoldMode::Sort,
                            })
                        {
                            sorting.push(first);
                        }
                        if node.heads_seam(planned) {
                            seams.push(first);
                        }
                    }
                    let analysis = kq_analyze::check_script(&text, &HashMap::new());
                    let reported: Vec<(usize, usize)> = analysis
                        .fold_pairs
                        .iter()
                        .map(|site| (site.stage, 2 + usize::from(site.count_order)))
                        .collect();
                    assert_eq!(folds, reported, "{text}: fold pairs");
                    let reported: Vec<usize> = analysis.sortings.iter().map(|s| s.stage).collect();
                    assert_eq!(sorting, reported, "{text}: sorting folds");
                    let reported: Vec<usize> = analysis.seams.iter().map(|s| s.stage).collect();
                    assert_eq!(seams, reported, "{text}: seams");
                    sites += folds.len() + sorting.len() + seams.len();
                }
            }
        }
    }
    assert_eq!(scripts, 200);
    assert!(
        compared >= 160,
        "only {compared} of {scripts} scripts compared"
    );
    assert!(sites >= 200, "only {sites} rewrite sites compared");
}
