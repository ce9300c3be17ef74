//! The synthesis engine benchmark: cold serial synthesis vs cold parallel
//! synthesis (4 workers) vs warm-cache planning, over the corpus's unique
//! stdin-reading commands — the three regimes the parallel synthesis
//! engine distinguishes.
//!
//! * `cold_serial` — every unique command synthesized from scratch with
//!   `workers = 1` (the pre-engine behaviour, and the baseline the other
//!   two must beat);
//! * `cold_parallel_w4` — the same work with the observe phase and the
//!   per-command fan-out on a 4-worker pool (the filter phase is a walk
//!   of the combiner trie and spawns nothing at any worker count).
//!   Reports are byte-identical to serial (asserted here per iteration);
//!   the win is wall clock only, so expect parity on a single-core host
//!   and the speedup on multicore;
//! * `warm_cache` — a `Planner` resolving every command out of a
//!   pre-written on-disk combiner store (load + validate-on-hit, zero
//!   synthesis rounds), the repeat-invocation regime.
//!
//! `KQ_SYNTH_BENCH_COMMANDS` caps how many unique commands each iteration
//! covers (default 12 — enough spread to be representative while keeping
//! calibration runs sane; raise it to sweep the full corpus).

use criterion::{criterion_group, criterion_main, Criterion};
use kq_coreutils::{parse_command, Command, ExecContext};
use kq_pipeline::cache::{cache_key, CombinerCache};
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_synth::{synthesize, SynthesisConfig};
use std::hint::black_box;

/// The corpus's unique stdin-reading command lines, first-appearance
/// order, deduplicated by normalized cache signature.
fn unique_commands() -> Vec<String> {
    let mut seen: Vec<String> = Vec::new();
    let mut lines: Vec<String> = Vec::new();
    for script in kq_workloads::corpus() {
        let ctx = ExecContext::default();
        let env = kq_workloads::setup(script, &ctx, &kq_workloads::Scale { input_bytes: 4_000 }, 1);
        let Ok(parsed) = parse_script(script.text, &env) else {
            continue;
        };
        for statement in &parsed.statements {
            for stage in &statement.stages {
                if !stage.command.reads_stdin() {
                    continue;
                }
                // A handful of displays don't re-quote into parseable
                // lines (e.g. a bare `grep "`); skip those.
                if parse_command(&stage.command.display()).is_err() {
                    continue;
                }
                let key = cache_key(&stage.command);
                if !seen.contains(&key) {
                    seen.push(key);
                    lines.push(stage.command.display());
                }
            }
        }
    }
    lines
}

fn command_cap() -> usize {
    std::env::var("KQ_SYNTH_BENCH_COMMANDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

fn config(workers: usize) -> SynthesisConfig {
    SynthesisConfig {
        workers,
        ..SynthesisConfig::default()
    }
}

fn bench_synth_engine(c: &mut Criterion) {
    let lines = unique_commands();
    let cap = command_cap().min(lines.len());
    let commands: Vec<Command> = lines[..cap]
        .iter()
        .map(|l| parse_command(l).expect("corpus command parses"))
        .collect();
    eprintln!(
        "synth_engine: {} of {} unique corpus commands",
        commands.len(),
        lines.len()
    );

    let mut group = c.benchmark_group("synth_engine");
    group.sample_size(10);

    for (name, workers) in [("cold_serial", 1usize), ("cold_parallel_w4", 4)] {
        let config = config(workers);
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut observations = 0usize;
                for command in &commands {
                    let ctx = ExecContext::default();
                    let report = synthesize(black_box(command), &ctx, &config);
                    observations += report.observations;
                }
                observations
            })
        });
    }

    // Warm store: synthesize everything once into an on-disk cache, then
    // measure repeat "planning" — open the store and resolve every
    // command through lookup + validate-on-hit.
    let cache_path = std::env::temp_dir().join(format!("kq-synth-bench-{}", std::process::id()));
    std::fs::remove_file(&cache_path).ok();
    {
        let warm_config = config(1);
        let mut planner = Planner::with_cache(
            warm_config.clone(),
            CombinerCache::open(&cache_path, &warm_config),
        );
        let ctx = ExecContext::default();
        for command in &commands {
            planner.combiner_for(command, &ctx);
        }
        planner.save_cache().expect("cache write");
    }
    group.bench_function("warm_cache", |b| {
        let warm_config = config(1);
        b.iter(|| {
            let mut planner = Planner::with_cache(
                warm_config.clone(),
                CombinerCache::open(&cache_path, &warm_config),
            );
            let ctx = ExecContext::default();
            let mut resolved = 0usize;
            for command in &commands {
                if planner.combiner_for(black_box(command), &ctx).is_some() {
                    resolved += 1;
                }
            }
            assert_eq!(
                planner.reports.len(),
                0,
                "warm pass must not synthesize anything"
            );
            resolved
        })
    });
    group.finish();
    std::fs::remove_file(&cache_path).ok();
}

criterion_group!(benches, bench_synth_engine);
criterion_main!(benches);
