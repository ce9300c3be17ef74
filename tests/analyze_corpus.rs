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
//!    builds, and the dataflow run prints what the serial run prints;
//! 9. the census of the corpus graphs: how many nodes of each shape the
//!    planner's plans build, with and without the rewrites, all valid, and
//!    every prefix-bounded stage bounded;
//! 10. the census of the lattice's answers: every distinct corpus
//!     command's class, seam and sorting order, every `sort | uniq` pair's
//!     fold pair, and how many commands skip synthesis, pinned;
//! 11. and the answers come from what each command is: a `cat` with a
//!     file beside its input is no map, and a custom command claims
//!     nothing its name suggests.

use kq_analyze::EffectClass;
use kq_cli::{emit_script, EmitOptions};
use kq_coreutils::ExecContext;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::{Planner, StageMode};
use kq_pipeline::{cache_key, FoldBy, NodeKind, NodeMap};
use kq_synth::SynthesisConfig;
use kq_workloads::{corpus, planning_sample, setup, Scale};
use std::collections::HashMap;

const SCALE: Scale = Scale {
    input_bytes: 16_000,
};

/// A sorting fold: its map hands each chunk to a merge raw.
fn sorts(kind: NodeKind) -> bool {
    matches!(
        kind,
        NodeKind::Fold {
            map: NodeMap::Raw,
            by: FoldBy::Merge { .. }
        }
    )
}

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
                let class = cmd.effect_class();
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
    use kq_pipeline::DataflowGraph;
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
            assert!(graph.validate(planned).is_empty());
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
    use kq_pipeline::DataflowGraph;
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
            assert!(graph.validate(planned).is_empty());
            for node in &graph.nodes {
                if node.kind == (NodeKind::StageWorker { seam: true }) {
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
    use kq_pipeline::DataflowGraph;
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
            assert!(graph.validate(planned).is_empty());
            for node in &graph.nodes {
                if sorts(node.kind) {
                    built.push((si, node.stages.start));
                }
            }
            // `--no-opt` builds none.
            assert!(!DataflowGraph::build(planned, false)
                .nodes
                .iter()
                .any(|n| sorts(n.kind)));
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
    use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
    use kq_pipeline::DataflowGraph;
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
                            |(stage, plan)| match stage.command.stdin_order() {
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
                        if sorts(node.kind) {
                            sorting.push(first);
                        }
                        if node.kind == (NodeKind::StageWorker { seam: true }) {
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

/// (9) The census of the corpus graphs, as the planner plans each script:
/// the nodes of every shape the one-pass build makes, with the rewrites
/// and without (`--no-opt`), every graph valid. Every stage with a prefix
/// bound keeps it: in the corpus a decoding stage before a bound always
/// has a barrier — a fold that reads all its input — between them.
#[test]
fn corpus_graph_census_pins_every_node_shape() {
    use kq_pipeline::DataflowGraph;
    use std::collections::BTreeMap;
    let shape = |kind: NodeKind| match kind {
        NodeKind::Split => "split",
        NodeKind::StageWorker { seam: false } => "worker",
        NodeKind::StageWorker { seam: true } => "seam worker",
        NodeKind::Fold {
            map: NodeMap::Chain,
            by: FoldBy::Combiner,
        } => "combiner fold",
        NodeKind::Fold {
            map: NodeMap::Chain,
            by: FoldBy::Merge { .. },
        } => "unique fold",
        NodeKind::Fold {
            map: NodeMap::Counted,
            by: FoldBy::Merge { count: None, .. },
        } => "counting fold",
        NodeKind::Fold {
            map: NodeMap::Counted,
            by: FoldBy::Merge { count: Some(_), .. },
        } => "count-order fold",
        NodeKind::Fold {
            map: NodeMap::Raw,
            by: FoldBy::Merge { .. },
        } => "sorting fold",
        NodeKind::Fold {
            map: NodeMap::Raw,
            by: FoldBy::Rerun { bound: None },
        } => "rerun fold",
        NodeKind::Fold {
            map: NodeMap::Raw,
            by: FoldBy::Rerun { bound: Some(_) },
        } => "bounded fold",
        kind => panic!("no build makes {kind:?}"),
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut census: [BTreeMap<&str, usize>; 2] = Default::default();
    let (mut bounded, mut unbounded) = (0usize, Vec::new());
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &SCALE, 0xCE45);
        let parsed = parse_script(script.text, &env).unwrap();
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let plan = planner.plan(&parsed, &ctx, planning_sample(&sample, 12_000));
        let statements = parsed.statements.iter().zip(&plan.statements);
        for (si, (statement, planned)) in statements.enumerate() {
            for (rewrite, census) in [false, true].into_iter().zip(&mut census) {
                let graph = DataflowGraph::build(planned, rewrite);
                let found = graph.validate(planned);
                assert!(
                    found.is_empty(),
                    "{}/{}: {found:?}",
                    script.suite.dir(),
                    script.id
                );
                for node in &graph.nodes {
                    *census.entry(shape(node.kind)).or_default() += 1;
                }
            }
            for (stage, planned) in statement.stages.iter().zip(&planned.stages) {
                if stage.command.line_bound().is_none() {
                    continue;
                }
                match planned.line_bound {
                    Some(_) => bounded += 1,
                    None => unbounded.push(format!(
                        "{}/{} s{} '{}'",
                        script.suite.dir(),
                        script.id,
                        si + 1,
                        stage.command.display()
                    )),
                }
            }
        }
    }
    assert_eq!(bounded, 20, "prefix-bounded stages across the corpus");
    assert!(unbounded.is_empty(), "unbounded: {unbounded:?}");
    let pinned = |pairs: &[(&'static str, usize)]| pairs.iter().copied().collect();
    assert_eq!(census[0], pinned(&CENSUS_UNREWRITTEN), "--no-opt graphs");
    assert_eq!(census[1], pinned(&CENSUS_REWRITTEN), "rewritten graphs");
}

/// The node shapes of the corpus graphs built without the rewrites.
const CENSUS_UNREWRITTEN: [(&str, usize); 5] = [
    ("bounded fold", 20),
    ("combiner fold", 172),
    ("rerun fold", 49),
    ("split", 99),
    ("worker", 186),
];

/// The node shapes of the corpus graphs built with the rewrites: 30 seam
/// stages lift out of their folds, and they and the 186 chunk-local stages
/// fuse into 134 workers; 31 `sort | uniq -c` pairs become counting folds, 20 of them
/// closing in the order of the numeric sort after them; 34 sorts fold raw
/// chunks. No unique pair keeps its chain.
const CENSUS_REWRITTEN: [(&str, usize); 9] = [
    ("bounded fold", 20),
    ("combiner fold", 45),
    ("count-order fold", 20),
    ("counting fold", 11),
    ("rerun fold", 23),
    ("seam worker", 30),
    ("sorting fold", 34),
    ("split", 99),
    ("worker", 104),
];

/// (10) The census of the lattice's answers over the corpus: for every
/// distinct stage argv, its effect class, whether it is a newline seam and
/// whether it sorts its standard input in an order of its own; for every
/// distinct `sort` then `uniq` pair of adjacent stages, the fold pair; and
/// how many distinct commands the lattice-on planner resolves without
/// synthesis. Pinned, so that moving where an answer is decided cannot
/// change what it is.
#[test]
fn lattice_census_pins_every_corpus_answer() {
    use kq_pipeline::lattice::fold_pair;
    use std::collections::BTreeMap;
    let mut commands: BTreeMap<String, String> = BTreeMap::new();
    let mut pairs: BTreeMap<String, String> = BTreeMap::new();
    let mut planner = Planner::new(SynthesisConfig::default());
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &SCALE, 0xCE45);
        let parsed = parse_script(script.text, &env).unwrap();
        for statement in &parsed.statements {
            for (i, stage) in statement.stages.iter().enumerate() {
                let cmd = &stage.command;
                commands
                    .entry(format!("{:?}", cmd.argv()))
                    .or_insert_with(|| {
                        format!(
                            "{} seam={} sorts={}",
                            cmd.effect_class().as_str(),
                            cmd.newline_seam(),
                            cmd.stdin_order().is_some()
                        )
                    });
                let Some(next) = statement.stages.get(i + 1) else {
                    continue;
                };
                if cmd.program() == "sort" && next.command.program() == "uniq" {
                    let key = format!("{:?} | {:?}", cmd.argv(), next.command.argv());
                    let pair = fold_pair(cmd, &next.command);
                    pairs.insert(key, pair.map_or("none", |p| p.as_str()).to_owned());
                }
            }
        }
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        planner.plan(&parsed, &ctx, planning_sample(&sample, 12_000));
    }
    let table: Vec<String> = commands
        .iter()
        .chain(&pairs)
        .map(|(key, answer)| format!("{key} => {answer}"))
        .collect();
    let pinned: Vec<&str> = LATTICE_CENSUS.lines().filter(|l| !l.is_empty()).collect();
    if table != pinned {
        panic!("lattice census changed; now:\n{}", table.join("\n"));
    }
    assert_eq!(commands.len(), 145, "distinct stage argvs");
    assert_eq!(
        planner.lattice_short_circuits, 70,
        "short-circuited commands"
    );
}

const LATTICE_CENSUS: &str = r#"
["awk", "$1 == 2 {print $2, $0}"] => unknown seam=false sorts=false
["awk", "$1 == 2 {print $2, $3}"] => unknown seam=false sorts=false
["awk", "$1 >= 1000"] => unknown seam=false sorts=false
["awk", "$1 >= 2 {print $2}"] => unknown seam=false sorts=false
["awk", "-v", "OFS=\\t", "{print $2,$1}"] => unknown seam=false sorts=false
["awk", "length <= 45"] => unknown seam=false sorts=false
["awk", "length >= 16"] => unknown seam=false sorts=false
["awk", "{$1=$1};1"] => unknown seam=false sorts=false
["awk", "{print $2, $0}"] => unknown seam=false sorts=false
["awk", "{print $2}"] => unknown seam=false sorts=false
["awk", "{print NF}"] => unknown seam=false sorts=false
["col", "-bx"] => unknown seam=false sorts=false
["comm", "-23", "-", "/aux/dict"] => order-sensitive seam=false sorts=false
["comm", "-23", "-", "/tmp/p833_e"] => order-sensitive seam=false sorts=false
["comm", "-23", "/tmp/sd_a", "/tmp/sd_b"] => unknown seam=false sorts=false
["cut", "-c", "1-1"] => stateless seam=false sorts=false
["cut", "-c", "1-12"] => stateless seam=false sorts=false
["cut", "-c", "1-2"] => stateless seam=false sorts=false
["cut", "-c", "1-4"] => stateless seam=false sorts=false
["cut", "-c", "3-3"] => stateless seam=false sorts=false
["cut", "-d", " ", "-f", "1"] => stateless seam=false sorts=false
["cut", "-d", " ", "-f", "2"] => stateless seam=false sorts=false
["cut", "-d", " ", "-f", "3"] => stateless seam=false sorts=false
["cut", "-d", " ", "-f", "4"] => stateless seam=false sorts=false
["cut", "-d", "(", "-f", "2"] => stateless seam=false sorts=false
["cut", "-d", ")", "-f", "1"] => stateless seam=false sorts=false
["cut", "-d", ",", "-f", "1"] => stateless seam=false sorts=false
["cut", "-d", ",", "-f", "1,2"] => stateless seam=false sorts=false
["cut", "-d", ",", "-f", "1,2,3"] => stateless seam=false sorts=false
["cut", "-d", ",", "-f", "2"] => stateless seam=false sorts=false
["cut", "-d", ",", "-f", "2,1"] => stateless seam=false sorts=false
["cut", "-d", ",", "-f", "3"] => stateless seam=false sorts=false
["cut", "-d", ".", "-f", "2"] => stateless seam=false sorts=false
["cut", "-d", "@", "-f", "1"] => stateless seam=false sorts=false
["cut", "-d", "\"", "-f", "2"] => stateless seam=false sorts=false
["cut", "-d:", "-f1"] => stateless seam=false sorts=false
["cut", "-f", "1"] => stateless seam=false sorts=false
["cut", "-f", "2"] => stateless seam=false sorts=false
["cut", "-f", "4"] => stateless seam=false sorts=false
["diff", "/tmp/d_up", "/tmp/d_low"] => unknown seam=false sorts=false
["fmt", "-w1"] => unknown seam=false sorts=false
["grep", "("] => stateless seam=false sorts=false
["grep", "-c", "@"] => commutative-fold seam=false sorts=false
["grep", "-c", "^....$"] => commutative-fold seam=false sorts=false
["grep", "-c", "^[A-Z]"] => commutative-fold seam=false sorts=false
["grep", "-c", "light.*light"] => commutative-fold seam=false sorts=false
["grep", "-c", "light.*light.*light"] => commutative-fold seam=false sorts=false
["grep", "-i", "^[^aeiou]*[aeiou][^aeiou]*$"] => stateless seam=false sorts=false
["grep", "-i", "^[^aeiou]*[aeiou][^aeiou]*[aeiou][^aeiou]$"] => stateless seam=false sorts=false
["grep", "-v", "[KQRBN]"] => stateless seam=false sorts=false
["grep", "-v", "\\."] => stateless seam=false sorts=false
["grep", "-v", "^0$"] => stateless seam=false sorts=false
["grep", "-vc", "light.*light.*light"] => commutative-fold seam=false sorts=false
["grep", "-vi", "[aeiou]"] => stateless seam=false sorts=false
["grep", "1969"] => stateless seam=false sorts=false
["grep", "@"] => stateless seam=false sorts=false
["grep", "And he said"] => stateless seam=false sorts=false
["grep", "BELL"] => stateless seam=false sorts=false
["grep", "Bell"] => stateless seam=false sorts=false
["grep", "PORT"] => stateless seam=false sorts=false
["grep", "TELE"] => stateless seam=false sorts=false
["grep", "UNIX"] => stateless seam=false sorts=false
["grep", "V"] => stateless seam=false sorts=false
["grep", "[A-Z]"] => stateless seam=false sorts=false
["grep", "[KQRBN]"] => stateless seam=false sorts=false
["grep", "\""] => stateless seam=false sorts=false
["grep", "\\(.\\).*\\1\\(.\\).*\\2\\(.\\).*\\3\\(.\\).*\\4"] => stateless seam=false sorts=false
["grep", "\\."] => stateless seam=false sorts=false
["grep", "light.*light"] => stateless seam=false sorts=false
["grep", "print"] => stateless seam=false sorts=false
["grep", "shell script"] => stateless seam=false sorts=false
["grep", "the land of"] => stateless seam=false sorts=false
["grep", "the"] => stateless seam=false sorts=false
["grep", "x"] => stateless seam=false sorts=false
["head", "-15"] => pure-parallelizable seam=false sorts=false
["head", "-n", "1"] => pure-parallelizable seam=false sorts=false
["head", "-n", "2"] => pure-parallelizable seam=false sorts=false
["head", "-n", "200"] => pure-parallelizable seam=false sorts=false
["head", "-n", "3"] => pure-parallelizable seam=false sorts=false
["head", "-n", "4"] => pure-parallelizable seam=false sorts=false
["head", "-n", "5"] => pure-parallelizable seam=false sorts=false
["iconv", "-f", "utf-8", "-t", "ascii//translit"] => unknown seam=false sorts=false
["mkfifo", "/tmp/d_fifo"] => unknown seam=false sorts=false
["mkfifo", "/tmp/sd_fifo"] => unknown seam=false sorts=false
["paste", "/tmp/bg_words", "/tmp/bg_next"] => unknown seam=false sorts=false
["paste", "/tmp/p43_words", "/tmp/p43_next"] => unknown seam=false sorts=false
["paste", "/tmp/p43b_words", "/tmp/p43b_next", "/tmp/p43b_third"] => unknown seam=false sorts=false
["paste", "/tmp/p81_n", "/tmp/p81_w"] => unknown seam=false sorts=false
["paste", "/tmp/p822_words", "/tmp/p822_next"] => unknown seam=false sorts=false
["rev"] => stateless seam=false sorts=false
["rm", "/tmp/d_fifo"] => unknown seam=false sorts=false
["rm", "/tmp/sd_fifo"] => unknown seam=false sorts=false
["sed", "100q"] => order-sensitive seam=false sorts=false
["sed", "1d"] => order-sensitive seam=false sorts=false
["sed", "5q"] => order-sensitive seam=false sorts=false
["sed", "s/$/0s/"] => stateless seam=false sorts=false
["sed", "s/T..:..:..//"] => stateless seam=false sorts=false
["sed", "s/T\\(..\\):..:../,\\1/"] => stateless seam=false sorts=false
["sed", "s;^;/books/;"] => stateless seam=false sorts=false
["sort", "-f"] => commutative-fold seam=false sorts=true
["sort", "-k1n"] => commutative-fold seam=false sorts=true
["sort", "-n"] => commutative-fold seam=false sorts=true
["sort", "-nr"] => commutative-fold seam=false sorts=true
["sort", "-r"] => commutative-fold seam=false sorts=true
["sort", "-rn"] => commutative-fold seam=false sorts=true
["sort", "-u"] => commutative-fold seam=false sorts=true
["sort"] => commutative-fold seam=false sorts=true
["tail", "+2", "/tmp/bg_words"] => unknown seam=false sorts=false
["tail", "+2", "/tmp/p43_words"] => unknown seam=false sorts=false
["tail", "+2", "/tmp/p43b_words"] => unknown seam=false sorts=false
["tail", "+2", "/tmp/p822_words"] => unknown seam=false sorts=false
["tail", "+2"] => order-sensitive seam=false sorts=false
["tail", "+3", "/tmp/p43b_words"] => unknown seam=false sorts=false
["tail", "+3"] => order-sensitive seam=false sorts=false
["tail", "-n", "1"] => order-sensitive seam=false sorts=false
["tr", " ", "\\n"] => stateless seam=false sorts=false
["tr", "-c", "[A-Z]", "\\n"] => stateless seam=false sorts=false
["tr", "-c", "[a-z][A-Z]", "\\n"] => stateless seam=false sorts=false
["tr", "-cs", "A-Za-z", "\\n"] => order-sensitive seam=true sorts=false
["tr", "-d", ","] => stateless seam=false sorts=false
["tr", "-d", "[:punct:]"] => stateless seam=false sorts=false
["tr", "-d", "\\n"] => stateless seam=false sorts=false
["tr", "-s", " ", "\\n"] => order-sensitive seam=true sorts=false
["tr", "-sc", "AEIOU", "[\\012*]"] => order-sensitive seam=true sorts=false
["tr", "-sc", "AEIOUaeiou", "[\\012*]"] => order-sensitive seam=true sorts=false
["tr", "-sc", "BCDFGHJKLMNPQRSTVWXYZ", "[\\012*]"] => order-sensitive seam=true sorts=false
["tr", "-sc", "[A-Z]", "[\\012*]"] => order-sensitive seam=true sorts=false
["tr", "-sc", "[A-Z][a-z]", " [\\012*]"] => order-sensitive seam=true sorts=false
["tr", "-sc", "[A-Z][a-z]", "[\\012*]"] => order-sensitive seam=true sorts=false
["tr", "-sc", "[AEIOUaeiou\\012]", " "] => order-sensitive seam=false sorts=false
["tr", "-sc", "[a-z]", "[\\012*]"] => order-sensitive seam=true sorts=false
["tr", "A-Z", "a-z"] => stateless seam=false sorts=false
["tr", "[:lower:]", "[:upper:]"] => stateless seam=false sorts=false
["tr", "[:upper:]", "[:lower:]"] => stateless seam=false sorts=false
["tr", "[A-Z]", "[a-z]"] => stateless seam=false sorts=false
["tr", "[a-z]", "P"] => stateless seam=false sorts=false
["tr", "[a-z]", "[A-Z]"] => stateless seam=false sorts=false
["tr", "[a-z]", "\\n"] => stateless seam=false sorts=false
["tr", "a-z", "[A-Z]"] => stateless seam=false sorts=false
["uniq", "-c"] => pure-parallelizable seam=false sorts=false
["uniq"] => pure-parallelizable seam=false sorts=false
["wc", "-l"] => commutative-fold seam=false sorts=false
["xargs", "-L", "1", "wc", "-l"] => unknown seam=false sorts=false
["xargs", "cat"] => unknown seam=false sorts=false
["xargs", "file"] => unknown seam=false sorts=false
["sort", "-f"] | ["uniq", "-c"] => counting
["sort"] | ["uniq", "-c"] => counting
["sort"] | ["uniq"] => unique
"#;

/// (11) `cat - F` and `cat F -` read their input and a file: the file's
/// lines join every piece's, so neither is a per-line map, and `check`
/// says nothing of a concat combiner for them. `cat` and `cat -` are.
#[test]
fn cat_beside_a_file_is_not_statically_stateless() {
    for (text, stateless) in [
        ("cat /in.txt | cat - /tail.txt | wc -l", false),
        ("cat /in.txt | cat /tail.txt - | wc -l", false),
        ("cat /in.txt | cat - | wc -l", true),
    ] {
        let analysis = kq_analyze::check_script(text, &HashMap::new());
        let cat = &analysis.classes[0];
        assert!(cat.command.starts_with("cat"), "{text}: {}", cat.command);
        assert_eq!(cat.class == EffectClass::Stateless, stateless, "{text}");
        let kq301 = analysis
            .diagnostics
            .iter()
            .any(|d| d.code == "KQ301" && d.message.contains(&format!("`{}`", cat.command)));
        assert_eq!(kq301, stateless, "{text}: {}", analysis.render_human());
    }
}

/// (11) A [`Command::custom`] whose argv names a built-in runs its own
/// implementation, so it gets only what that implementation claims — here
/// nothing: no class, no seam, no sorting order, no fold pair, and the
/// planner synthesizes its combiner instead of short-circuiting it.
#[test]
fn custom_commands_get_no_licence_from_their_names() {
    use kq_coreutils::{parse_command, Bytes, CmdError, Command, UnixCommand};
    use kq_pipeline::lattice::{count_order, fold_pair};
    /// Upper-cases its input: none of the programs it is named after.
    struct Upper;
    impl UnixCommand for Upper {
        fn display(&self) -> String {
            "upper".to_owned()
        }
        fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
            Ok(Bytes::from(input.as_bytes().to_ascii_uppercase()))
        }
    }
    let custom = |line: &str| {
        let argv = kq_coreutils::split_words(line).unwrap();
        Command::custom(argv, Box::new(Upper))
    };
    let uniq_c = parse_command("uniq -c").unwrap();
    let sort_rn = parse_command("sort -rn").unwrap();
    for line in ["tr -cs A-Za-z '\n'", "sort", "grep x"] {
        let built_in = parse_command(line).unwrap();
        let cmd = custom(line);
        assert!(cmd.reads_stdin(), "{line}");
        assert_ne!(built_in.effect_class(), EffectClass::Unknown, "{line}");
        assert_eq!(cmd.effect_class(), EffectClass::Unknown, "{line}");
        assert!(!cmd.newline_seam(), "{line}");
        assert!(cmd.stdin_order().is_none(), "{line}");
        assert!(cmd.collapses_runs().is_none(), "{line}");
        assert!(fold_pair(&cmd, &uniq_c).is_none(), "{line}");
        assert!(count_order(&cmd, &sort_rn).is_none(), "{line}");
    }
    // The names are the built-ins' own licences.
    assert!(parse_command("tr -cs A-Za-z '\n'").unwrap().newline_seam());
    assert!(fold_pair(&parse_command("sort").unwrap(), &uniq_c).is_some());
    // Nor does the planner take the name for a map.
    let mut planner = Planner::new(SynthesisConfig::default());
    planner.combiner_for(&custom("grep x"), &ExecContext::default());
    assert_eq!(planner.lattice_short_circuits, 0);
    assert_eq!(planner.reports.len(), 1);
}
