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
//!    drive the dataflow executor to byte-identical output against
//!    serial.
//! 4. **One pass over many scripts is a loop of `plan`** — the corpus pass
//!    (`Planner::plan_all`, `kumquat corpus --plan`) yields the plans,
//!    reports, cache counters and validations a script-by-script loop
//!    does, and the same listing and cache file at any worker count; a
//!    job that panics panics the pass with its own message.

use kq_coreutils::{CmdError, Command, ExecContext, UnixCommand};
use kq_pipeline::cache::{cache_key, CacheStats, CombinerCache};
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::{PlannedScript, Planner, PreparedScript, StageMode};
use kq_synth::{
    synthesize, synthesize_reference, SynthesisConfig, SynthesisOutcome, SynthesisReport,
};
use kq_workloads::{corpus, setup, BenchmarkScript, Scale};
use proptest::prelude::*;
use std::convert::Infallible;

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

fn stage_modes(planner: &mut Planner, script: &BenchmarkScript) -> Vec<String> {
    let p = prepared(script);
    fingerprint(&planner.plan(&p.script, &p.ctx, p.sample.as_str()))
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

/// A `corpus --plan` listing with its wall times blanked and its
/// alignment collapsed: the per-command lines (in order, with verdicts),
/// the cache line, every `stages parallel` line and the `planned` line
/// stay.
fn without_times(listing: &str) -> String {
    let mut out = String::new();
    for line in listing.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        for (i, word) in words.iter().enumerate() {
            let timed = words.get(i + 1) == Some(&"ms") && word.parse::<f64>().is_ok();
            out.push_str(if timed { "_" } else { word });
            out.push(if i + 1 == words.len() { '\n' } else { ' ' });
        }
    }
    out
}

#[test]
fn cold_corpus_plan_writes_the_same_cache_file_at_any_synth_worker_count() {
    // What `kumquat corpus --plan --combiner-cache F` prints and leaves on
    // disk is a function of the corpus and the seed alone: plausible sets
    // in enumeration order, commands in first-encounter order.
    let cold = |workers: &str| {
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
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        (without_times(&out.text()), bytes)
    };
    let (listing, cache) = cold("1");
    assert!(cache.len() > 1000, "cache of {} bytes", cache.len());
    assert!(
        listing.contains("planned 70 script(s); synthesis rounds: 163; lattice short-circuits: 70"),
        "{listing}"
    );
    assert!(listing.contains(" miss(es), "), "{listing}");
    assert!(listing.contains("\n_ ms sort (merge a b)\n"), "{listing}");
    assert_eq!(listing.matches(" stages parallel").count(), 70);
    for workers in ["2", "4"] {
        let (other_listing, other_cache) = cold(workers);
        assert_eq!(
            listing, other_listing,
            "listing at --synth-workers {workers}"
        );
        assert!(
            cache == other_cache,
            "cache file at --synth-workers {workers}"
        );
    }
}

/// One corpus script generated, parsed and sampled as `corpus --plan`
/// prepares it.
fn prepared(script: &BenchmarkScript) -> PreparedScript {
    let ctx = ExecContext::default();
    let env = setup(script, &ctx, &Scale::tests(), 0xC0FFEE);
    let parsed = parse_script(script.text, &env).unwrap();
    let input = ctx.vfs.read_bytes(&env["IN"]).unwrap();
    let cut = kq_workloads::planning_sample(input.as_str(), 16_000).len();
    PreparedScript {
        script: parsed,
        ctx,
        sample: input.slice(0..cut),
    }
}

/// Everything a plan decides, per stage.
fn fingerprint(plan: &PlannedScript) -> Vec<String> {
    plan.statements
        .iter()
        .flat_map(|st| {
            st.stages.iter().map(|s| {
                let mode = match &s.mode {
                    StageMode::Sequential => "seq".to_owned(),
                    StageMode::Parallel {
                        combiner,
                        eliminated,
                    } => format!("par:{}:{eliminated}", combiner.primary()),
                };
                format!(
                    "{mode}:{}:{:?}:{:?}:{}:{}",
                    s.streamable, s.line_bound, s.fold_pair, s.seam, s.sorting
                )
            })
        })
        .collect()
}

fn counters(stats: CacheStats) -> [usize; 5] {
    [
        stats.hits,
        stats.misses,
        stats.validated,
        stats.rejected,
        stats.loaded,
    ]
}

/// `(script, key)` for every disk-entry validation in a trace: the
/// `plan/plan` span it ran inside, numbered in start order.
fn validations(records: &[kq_trace::Record]) -> Vec<(usize, String)> {
    let mut plans: Vec<&kq_trace::Record> = records
        .iter()
        .filter(|r| r.cat == "plan" && r.name == "plan")
        .collect();
    plans.sort_by_key(|r| r.t0);
    records
        .iter()
        .filter(|r| r.cat == "cache" && r.name == "validate")
        .map(|v| {
            let script = plans
                .iter()
                .position(|p| p.tid == v.tid && p.t0 <= v.t0 && v.t1 <= p.t1)
                .expect("a validation outside any plan");
            (script, v.label.clone())
        })
        .collect()
}

/// Plans `scripts` with a loop of `Planner::plan` and with one
/// `Planner::plan_all` pass, each on a fresh planner over `store` (left
/// as it is), and asserts that the two agree on everything.
fn pass_equals_loop(scripts: &[&BenchmarkScript], workers: usize, store: Option<&std::path::Path>) {
    let config = SynthesisConfig {
        workers,
        ..SynthesisConfig::default()
    };
    let planner = || match store {
        Some(path) => Planner::with_cache(config.clone(), CombinerCache::open(path, &config)),
        None => Planner::new(config.clone()),
    };

    let session = kq_trace::TraceSession::start();
    let mut looped = planner();
    let loop_plans: Vec<Vec<String>> = scripts
        .iter()
        .map(|script| {
            let p = prepared(script);
            fingerprint(&looped.plan(&p.script, &p.ctx, p.sample.as_str()))
        })
        .collect();
    let loop_validations = validations(&session.finish());

    let session = kq_trace::TraceSession::start();
    let mut passed = planner();
    let pass_plans: Vec<Vec<String>> = passed
        .plan_all(
            scripts
                .iter()
                .map(|script| Ok::<_, Infallible>(prepared(script))),
        )
        .unwrap()
        .iter()
        .map(fingerprint)
        .collect();
    let pass_validations = validations(&session.finish());

    let what = format!("{} script(s), {workers} worker(s)", scripts.len());
    assert_eq!(loop_plans, pass_plans, "plans ({what})");
    assert_eq!(
        looped.reports.len(),
        passed.reports.len(),
        "reports ({what})"
    );
    for (want, got) in looped.reports.iter().zip(&passed.reports) {
        assert_same_report(want, got, &what);
    }
    assert_eq!(
        counters(looped.cache_stats()),
        counters(passed.cache_stats()),
        "cache counters ({what})"
    );
    assert_eq!(
        looped.lattice_short_circuits, passed.lattice_short_circuits,
        "{what}"
    );
    assert_eq!(loop_validations, pass_validations, "validations ({what})");
    assert_eq!(store.is_some(), !pass_validations.is_empty(), "{what}");
}

#[test]
fn one_pass_over_many_scripts_plans_what_a_loop_of_plan_does() {
    let all: Vec<&BenchmarkScript> = corpus().iter().collect();
    // Cold: every unique command synthesizes, in the pass on the pool.
    pass_equals_loop(&all, 2, None);
    // A subset, as `--suite poets` plans it, on a wider pool.
    let poets: Vec<&BenchmarkScript> = all
        .iter()
        .copied()
        .filter(|s| s.suite.dir() == "poets")
        .collect();
    pass_equals_loop(&poets, 4, None);
    // Warm: every disk entry validates in the script it did before.
    let path = cache_path("pass-warm");
    std::fs::remove_file(&path).ok();
    let config = SynthesisConfig::default();
    let mut cold = Planner::with_cache(config.clone(), CombinerCache::open(&path, &config));
    cold.plan_all(
        all.iter()
            .map(|script| Ok::<_, Infallible>(prepared(script))),
    )
    .unwrap();
    assert!(cold.save_cache().unwrap());
    pass_equals_loop(&all, 2, Some(&path));
    std::fs::remove_file(&path).ok();
}

/// A command that panics whenever it runs.
struct Boom;

impl UnixCommand for Boom {
    fn display(&self) -> String {
        "boom".to_owned()
    }

    fn run(
        &self,
        _: kq_coreutils::Bytes,
        _: &ExecContext,
    ) -> Result<kq_coreutils::Bytes, CmdError> {
        panic!("boom: the command under synthesis panicked");
    }
}

#[test]
fn a_job_that_panics_panics_the_pass_with_its_own_message() {
    let (done_tx, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(|| {
            let mut scripts: Vec<PreparedScript> = corpus().iter().take(12).map(prepared).collect();
            // Script 3's second stage becomes the panicking command; the
            // scripts around it keep the pool busy.
            scripts[2].script.statements[0].stages[1].command =
                Command::custom(vec!["boom".to_owned()], Box::new(Boom));
            let config = SynthesisConfig {
                workers: 2,
                ..SynthesisConfig::default()
            };
            Planner::new(config)
                .plan_all(scripts.into_iter().map(Ok::<_, Infallible>))
                .map(|plans| plans.len())
        });
        done_tx.send(outcome).ok();
    });
    let outcome = done
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("the pass hung on a panicking job");
    let payload = outcome.expect_err("the pass must panic");
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<no message>");
    assert_eq!(message, "boom: the command under synthesis panicked");
}

#[test]
fn parallel_planner_keeps_executors_byte_identical() {
    // A boundary-sensitive multi-segment pipeline planned with the
    // parallel engine (and re-planned from a warm cache) must drive the
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
        planner.save_cache().unwrap();
    }
    std::fs::remove_file(&path).ok();
}
