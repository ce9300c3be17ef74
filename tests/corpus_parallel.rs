//! The headline end-to-end property over the whole corpus: for every one
//! of the 70 benchmark scripts, the KumQuat-parallelized pipeline produces
//! exactly the serial output on the dataflow executor — at multiple worker
//! counts, on the rewritten graph and on the `--no-opt` one (every stage
//! its own node, every parallel stage combined: the paper's unoptimized
//! pipeline).
//! (The paper: "The generated parallel pipelines all produce correct
//! outputs (same outputs as the original scripts).")

use kq_coreutils::ExecContext;
use kq_pipeline::exec::{run_serial, ExecutionResult};
use kq_pipeline::parse::{parse_script, Script};
use kq_pipeline::plan::{PlannedScript, Planner};
use kq_pipeline::{run_dataflow, ChunkSizing, DataflowOptions};
use kq_synth::SynthesisConfig;
use kq_workloads::{corpus, setup, Scale};

/// A dataflow run on `workers` threads cutting `chunk_bytes` chunks, on
/// the rewritten graph.
fn dataflow(
    script: &Script,
    plan: &PlannedScript,
    ctx: &ExecContext,
    workers: usize,
    chunk_bytes: usize,
) -> ExecutionResult {
    let opts = DataflowOptions {
        workers,
        chunk: ChunkSizing::Fixed(chunk_bytes),
        ..DataflowOptions::default()
    };
    run_dataflow(script, plan, ctx, &opts).unwrap()
}

#[test]
fn all_seventy_scripts_parallelize_correctly() {
    let scale = Scale {
        input_bytes: 24_000,
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut parallelized_total = 0usize;
    let mut stage_total = 0usize;
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 0xC0FFEE);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let plan = planner.plan(
            &parsed,
            &ctx,
            kq_workloads::planning_sample(&sample, 16_000),
        );

        let serial = run_serial(&parsed, &ctx)
            .unwrap_or_else(|e| panic!("{}/{} serial: {e}", script.suite.dir(), script.id));

        // The dataflow executor, optimized, w = 3, several chunks.
        let par = dataflow(&parsed, &plan, &ctx, 3, 4096);
        assert_eq!(
            par.output,
            serial.output,
            "{}/{} diverged (dataflow, w=3, optimized)",
            script.suite.dir(),
            script.id
        );

        // The dataflow executor, unoptimized (`--no-opt`), w = 5.
        let opts = DataflowOptions {
            workers: 5,
            fuse_streamable: false,
            ..DataflowOptions::default()
        };
        let unopt = run_dataflow(&parsed, &plan, &ctx, &opts)
            .unwrap_or_else(|e| panic!("{}/{} unoptimized: {e}", script.suite.dir(), script.id));
        assert_eq!(
            unopt.output,
            serial.output,
            "{}/{} diverged (dataflow, w=5, unoptimized)",
            script.suite.dir(),
            script.id
        );

        let (k, n) = plan.parallelized_counts();
        parallelized_total += k;
        stage_total += n;
    }
    // Aggregate shape versus the paper's 325/427 (76.1%).
    let ratio = parallelized_total as f64 / stage_total as f64;
    assert!(
        (0.6..=0.95).contains(&ratio),
        "parallelized ratio {ratio:.2} ({parallelized_total}/{stage_total}) far from the paper's 0.76"
    );
}

#[test]
fn worker_count_does_not_change_output() {
    // Deeper sweep on a boundary-sensitive pipeline (uniq -c merges across
    // splits at every worker count), one chunk per worker like the
    // paper's static split.
    let scale = Scale {
        input_bytes: 30_000,
    };
    let script = corpus().iter().find(|s| s.id == "wf.sh").unwrap();
    let ctx = ExecContext::default();
    let env = setup(script, &ctx, &scale, 11);
    let parsed = parse_script(script.text, &env).unwrap();
    let sample = ctx.vfs.read(&env["IN"]).unwrap();
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&parsed, &ctx, &sample[..16_000]);
    let serial = run_serial(&parsed, &ctx).unwrap();
    let input_len = ctx.vfs.read_bytes(&env["IN"]).unwrap().len();
    for w in 1..=9 {
        let par = dataflow(&parsed, &plan, &ctx, w, input_len.div_ceil(w));
        assert_eq!(par.output, serial.output, "w={w}");
    }
}

#[test]
fn different_seeds_still_verify() {
    // The corpus generators are seeded; correctness must not depend on a
    // lucky seed.
    let scale = Scale {
        input_bytes: 12_000,
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    let script = corpus()
        .iter()
        .find(|s| s.id == "4.sh" && s.suite.dir() == "analytics-mts")
        .unwrap();
    for seed in [1u64, 99, 12345] {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, seed);
        let parsed = parse_script(script.text, &env).unwrap();
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let plan = planner.plan(&parsed, &ctx, &sample[..sample.len().min(8_000)]);
        let serial = run_serial(&parsed, &ctx).unwrap();
        let par = dataflow(&parsed, &plan, &ctx, 4, 3072);
        assert_eq!(par.output, serial.output, "seed {seed}");
    }
}
