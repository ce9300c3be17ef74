//! The parallel synthesis engine's contract, pinned end to end:
//!
//! 1. **Determinism, and equality with the loop it replaced** —
//!    `synthesize` with `workers ∈ {1, 4}`, and with the gradient off,
//!    produces for every unique stdin-reading command in the 70-script
//!    corpus the `SynthesisReport` (space, rounds, observations,
//!    plausible set in order, counterexample) that
//!    `kq_synth::synthesize_reference` does — the per-candidate loop over
//!    the materialised space, kept as the oracle. The pool buys wall
//!    clock only, and the trie walk decides exactly what evaluating every
//!    candidate decides.
//! 2. **Warm-cache planning** — planning the corpus against a shared
//!    on-disk combiner cache twice synthesizes everything exactly once:
//!    the second planner reports zero syntheses (everything validates out
//!    of the store) and yields plans with identical stage modes.
//! 3. **Executor equivalence under the parallel planner** — plans built
//!    with `synth-workers = 4` (and plans resolved from the warm cache)
//!    drive the dataflow and streaming executors to byte-identical output
//!    against serial.

use kq_coreutils::ExecContext;
use kq_pipeline::cache::{cache_key, CombinerCache};
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::{Planner, StageMode};
use kq_synth::{
    synthesize, synthesize_reference, SynthesisConfig, SynthesisOutcome, SynthesisReport,
};
use kq_workloads::{corpus, setup, Scale};
use proptest::prelude::*;

/// Every unique stdin-reading corpus command, as parsed `Command`s (owned
/// by the returned scripts' stage lists — we synthesize straight off the
/// parse so display-requoting quirks cannot drop commands).
fn for_each_unique_command(mut f: impl FnMut(&kq_coreutils::Command)) {
    let scale = Scale { input_bytes: 4_000 };
    let mut seen: Vec<String> = Vec::new();
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 7);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        for statement in &parsed.statements {
            for stage in &statement.stages {
                if !stage.command.reads_stdin() {
                    continue;
                }
                let key = cache_key(&stage.command);
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                f(&stage.command);
            }
        }
    }
    assert!(
        seen.len() > 100,
        "only {} unique commands found",
        seen.len()
    );
}

fn outcome_fingerprint(
    outcome: &SynthesisOutcome,
) -> (bool, Vec<String>, Option<(String, String)>) {
    match outcome {
        SynthesisOutcome::Synthesized(c) => (
            true,
            c.plausible.iter().map(|cand| cand.to_string()).collect(),
            None,
        ),
        SynthesisOutcome::NoCombiner { counterexample } => {
            (false, Vec::new(), counterexample.clone())
        }
    }
}

/// Everything in a report but its wall time, field by field.
fn assert_same_report(want: &SynthesisReport, got: &SynthesisReport, what: &str) {
    let line = &want.command;
    assert_eq!(want.command, got.command, "{what}");
    assert_eq!(want.space, got.space, "{line}: search space ({what})");
    assert_eq!(want.rounds, got.rounds, "{line}: rounds ({what})");
    assert_eq!(
        want.observations, got.observations,
        "{line}: observations ({what})"
    );
    assert_eq!(want.profile, got.profile, "{line}: profile ({what})");
    assert_eq!(
        outcome_fingerprint(&want.outcome),
        outcome_fingerprint(&got.outcome),
        "{line}: outcome/candidate set ({what})"
    );
}

#[test]
fn synthesis_equals_the_reference_loop_at_any_worker_count_across_the_corpus() {
    let config = SynthesisConfig {
        workers: 1,
        ..SynthesisConfig::default()
    };
    let parallel_config = SynthesisConfig {
        workers: 4,
        ..config.clone()
    };
    let ungraded_config = SynthesisConfig {
        use_gradient: false,
        ..config.clone()
    };
    let fresh = ExecContext::default;
    let mut checked = 0usize;
    let mut synthesized = 0usize;
    for_each_unique_command(|command| {
        let reference = synthesize_reference(command, &fresh(), &config);
        let serial = synthesize(command, &fresh(), &config);
        assert_same_report(&reference, &serial, "workers 1 vs reference");
        let parallel = synthesize(command, &fresh(), &parallel_config);
        assert_same_report(&reference, &parallel, "workers 4 vs reference");

        let reference = synthesize_reference(command, &fresh(), &ungraded_config);
        let ungraded = synthesize(command, &fresh(), &ungraded_config);
        assert_same_report(&reference, &ungraded, "no gradient vs reference");
        checked += 1;
        synthesized += usize::from(serial.combiner().is_some());
    });
    assert!(checked > 100, "checked only {checked} commands");
    assert!(
        synthesized > 80,
        "only {synthesized} commands have a combiner"
    );
}

proptest! {
    /// Determinism holds for arbitrary seeds and configurations, not just
    /// the default: the worker count is never observable in the report.
    #[test]
    fn determinism_over_random_seeds_and_configs(
        seed in 0u64..u64::MAX,
        gradient_steps in 1usize..3,
        pairs_per_shape in 1usize..3,
        gradient_coin in 0usize..2,
        cmd_idx in 0usize..4,
        workers in 2usize..6,
    ) {
        let lines = ["wc -l", "uniq -c", "sort -rn", "sed 1d"];
        let command = kq_coreutils::parse_command(lines[cmd_idx]).unwrap();
        let serial_config = SynthesisConfig {
            rng_seed: seed,
            gradient_steps,
            pairs_per_shape,
            use_gradient: gradient_coin == 1,
            max_rounds: 3,
            workers: 1,
            ..SynthesisConfig::default()
        };
        let parallel_config = SynthesisConfig {
            workers,
            ..serial_config.clone()
        };
        let serial = synthesize(&command, &ExecContext::default(), &serial_config);
        let parallel = synthesize(&command, &ExecContext::default(), &parallel_config);
        prop_assert_eq!(serial.rounds, parallel.rounds);
        prop_assert_eq!(serial.observations, parallel.observations);
        prop_assert_eq!(
            outcome_fingerprint(&serial.outcome),
            outcome_fingerprint(&parallel.outcome)
        );
    }
}

fn cache_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("kq-synth-engine-{tag}-{}", std::process::id()))
}

fn stage_modes(planner: &mut Planner, script: &kq_workloads::BenchmarkScript) -> Vec<String> {
    let scale = Scale {
        input_bytes: 24_000,
    };
    let ctx = ExecContext::default();
    let env = setup(script, &ctx, &scale, 0xC0FFEE);
    let parsed = parse_script(script.text, &env).unwrap();
    let sample = ctx.vfs.read(&env["IN"]).unwrap();
    let plan = planner.plan(
        &parsed,
        &ctx,
        kq_workloads::planning_sample(&sample, 16_000),
    );
    plan.statements
        .iter()
        .flat_map(|st| {
            st.stages.iter().map(|s| match &s.mode {
                StageMode::Sequential => "seq".to_owned(),
                StageMode::Parallel {
                    combiner,
                    eliminated,
                } => format!("par:{}:{}:{}", combiner.primary(), eliminated, s.streamable),
            })
        })
        .collect()
}

#[test]
fn warm_cache_plans_the_corpus_without_synthesizing_and_identically() {
    let path = cache_path("warm");
    std::fs::remove_file(&path).ok();
    // workers = 2 also exercises the per-command fan-out.
    let config = SynthesisConfig {
        workers: 2,
        ..SynthesisConfig::default()
    };

    // Pass 1: cold. Synthesizes every unique command once, writes the store.
    let mut cold = Planner::with_cache(config.clone(), CombinerCache::open(&path, &config));
    let cold_modes: Vec<Vec<String>> = corpus()
        .iter()
        .map(|script| stage_modes(&mut cold, script))
        .collect();
    assert!(!cold.reports.is_empty(), "cold pass must synthesize");
    assert!(cold.save_cache().unwrap(), "cold pass must write the store");
    let synthesized = cold.reports.len();

    // Pass 2: warm. Everything validates out of the store — except
    // commands whose cold probe environment was unsupported (a file
    // dependency the script writes later): those verdicts are
    // deliberately not persisted, and their re-probe costs zero
    // synthesis rounds.
    let mut warm = Planner::with_cache(config.clone(), CombinerCache::open(&path, &config));
    let warm_modes: Vec<Vec<String>> = corpus()
        .iter()
        .map(|script| stage_modes(&mut warm, script))
        .collect();
    for report in &warm.reports {
        assert_eq!(
            report.profile,
            kq_synth::InputProfile::Unsupported,
            "warm pass re-synthesized {}",
            report.command
        );
        assert_eq!(report.rounds, 0, "{} must not search", report.command);
    }
    let warm_rounds: usize = warm.reports.iter().map(|r| r.rounds).sum();
    assert_eq!(
        warm_rounds, 0,
        "warm pass must report zero synthesis rounds"
    );
    let stats = warm.cache_stats();
    assert_eq!(stats.rejected, 0, "nothing may fail validation");
    assert!(
        stats.validated > 0 && stats.validated <= synthesized,
        "validated {} of {synthesized}",
        stats.validated
    );
    assert_eq!(cold_modes, warm_modes, "plans must not depend on the cache");
    std::fs::remove_file(&path).ok();
}

#[test]
fn cold_corpus_plan_writes_the_same_cache_file_at_any_synth_worker_count() {
    // What `kumquat corpus --plan --combiner-cache F` leaves on disk is a
    // function of the corpus and the seed alone: plausible sets in
    // enumeration order, commands in first-encounter order.
    let cold_cache = |workers: &str| {
        let path = cache_path(&format!("cold-w{workers}"));
        std::fs::remove_file(&path).ok();
        let args = [
            "corpus",
            "--plan",
            "--synth-workers",
            workers,
            "--combiner-cache",
        ];
        let mut args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        args.push(path.display().to_string());
        let out = kq_cli::run_cli(&args).unwrap();
        assert!(
            out.text().contains("planned 70 script(s)"),
            "{}",
            out.text()
        );
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    };
    let serial = cold_cache("1");
    assert!(serial.len() > 1000, "cache of {} bytes", serial.len());
    assert_eq!(serial, cold_cache("2"));
}

#[test]
fn parallel_planner_keeps_executors_byte_identical() {
    // A boundary-sensitive multi-segment pipeline planned with the
    // parallel engine (and re-planned from a warm cache) must drive every
    // executor to the serial output.
    let path = cache_path("exec");
    std::fs::remove_file(&path).ok();
    let script = corpus().iter().find(|s| s.id == "wf.sh").unwrap();
    let scale = Scale {
        input_bytes: 30_000,
    };

    for pass in 0..2 {
        let config = SynthesisConfig {
            workers: 4,
            ..SynthesisConfig::default()
        };
        let mut planner = Planner::with_cache(config.clone(), CombinerCache::open(&path, &config));
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 99);
        let parsed = parse_script(script.text, &env).unwrap();
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let plan = planner.plan(
            &parsed,
            &ctx,
            kq_workloads::planning_sample(&sample, 16_000),
        );
        if pass == 1 {
            assert_eq!(planner.reports.len(), 0, "second pass must be warm");
        }
        let serial = run_serial(&parsed, &ctx).unwrap();
        let dataflow = kq_pipeline::run_dataflow(
            &parsed,
            &plan,
            &ctx,
            &kq_pipeline::DataflowOptions {
                workers: 3,
                chunk: kq_pipeline::ChunkSizing::Fixed(700),
                ..kq_pipeline::DataflowOptions::default()
            },
        )
        .unwrap();
        assert_eq!(dataflow.output, serial.output, "dataflow (pass {pass})");
        let streaming = kq_pipeline::run_streaming(
            &parsed,
            &plan,
            &ctx,
            &kq_pipeline::StreamingOptions {
                workers: 2,
                chunk_bytes: 700,
                queue_depth: 2,
                fuse_streamable: true,
                spill: None,
            },
        )
        .unwrap();
        assert_eq!(streaming.output, serial.output, "streaming (pass {pass})");
        planner.save_cache().unwrap();
    }
    std::fs::remove_file(&path).ok();
}
