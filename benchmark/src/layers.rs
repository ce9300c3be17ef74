//! The traced pass: each layer's public functions, called in-process with
//! a harness-side span around every call.
//!
//! The pass repeats what `kumquat run` does for a workload — ingest,
//! parse, plan against a warm cache, execute on the dataflow scheduler
//! with the CLI's default options — and adds the calls a run does not
//! make (a cold plan, the serial oracle, k-way combines over fixed piece
//! counts, the static check). Times are read from the spans; counts from
//! what the functions return (`ExecutionResult::timings`,
//! `Planner::reports`, `Planner::cache_stats`, `Analysis`). Every
//! dataflow output is compared with the serial oracle's.

use crate::e2e::{Env, Prepared, Reference};
use crate::spans::Tracer;
use crate::stats::{fast_quarter_mean, median};
use crate::workloads::Kind;
use kq_coreutils::ExecContext;
use kq_dsl::eval::CommandEnv;
use kq_io::IngestOptions;
use kq_pipeline::cache::CombinerCache;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::{parse_script, InputSource, Script};
use kq_pipeline::plan::{PlannedScript, Planner, StageMode};
use kq_pipeline::{
    run_dataflow, ChunkSizing, DataflowOptions, ExecutionResult, QueueCredit, DEFAULT_CHUNK_BYTES,
    DEFAULT_QUEUE_DEPTH,
};
use kq_stream::{Bytes, Rope};
use kq_synth::SynthesisConfig;
use kq_workloads::{BenchmarkScript, Scale};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

/// The commands whose serial time and throughput get a row of their own.
const COMMANDS: [&str; 8] = ["sort", "uniq", "tr", "grep", "sed", "cut", "wc", "head"];

/// `IncrementalFold` sees one piece per chunk; past this many the
/// `combine_many` measurement splits evenly instead.
const MANY_PIECES_CAP: usize = 512;

/// Every per-layer metric: name, unit, and which direction is better.
pub const PER_LAYER: [(&str, &str, &str); 55] = [
    ("kq-io.ingest_s", "s", "lower"),
    ("kq-io.spill_runs", "count", "lower"),
    ("kq-io.spill_written_mb", "MB", "lower"),
    ("kq-io.spill_mapped_mb", "MB", "lower"),
    ("kq-stream.split_s", "s", "lower"),
    ("kq-stream.chunks", "count", "lower"),
    ("kq-coreutils.sort_s", "s", "lower"),
    ("kq-coreutils.sort_mbps", "MB/s", "higher"),
    ("kq-coreutils.uniq_s", "s", "lower"),
    ("kq-coreutils.uniq_mbps", "MB/s", "higher"),
    ("kq-coreutils.tr_s", "s", "lower"),
    ("kq-coreutils.tr_mbps", "MB/s", "higher"),
    ("kq-coreutils.grep_s", "s", "lower"),
    ("kq-coreutils.grep_mbps", "MB/s", "higher"),
    ("kq-coreutils.sed_s", "s", "lower"),
    ("kq-coreutils.sed_mbps", "MB/s", "higher"),
    ("kq-coreutils.cut_s", "s", "lower"),
    ("kq-coreutils.cut_mbps", "MB/s", "higher"),
    ("kq-coreutils.wc_s", "s", "lower"),
    ("kq-coreutils.wc_mbps", "MB/s", "higher"),
    ("kq-coreutils.head_s", "s", "lower"),
    ("kq-coreutils.head_mbps", "MB/s", "higher"),
    ("kq-dsl.fold_busy_s", "s", "lower"),
    ("kq-dsl.fold_share", "ratio", "lower"),
    ("kq-dsl.combine_few_s", "s", "lower"),
    ("kq-dsl.combine_many_s", "s", "lower"),
    ("kq-synth.synthesize_s", "s", "lower"),
    ("kq-synth.slowest_command_s", "s", "lower"),
    ("kq-synth.commands", "count", "lower"),
    ("kq-synth.rounds", "count", "lower"),
    ("kq-synth.observations", "count", "lower"),
    ("kq-synth.combiners_found", "count", "higher"),
    ("kq-pipeline.parse_s", "s", "lower"),
    ("kq-pipeline.plan_cold_s", "s", "lower"),
    ("kq-pipeline.plan_warm_s", "s", "lower"),
    ("kq-pipeline.cache_hits", "count", "higher"),
    ("kq-pipeline.cache_misses", "count", "lower"),
    ("kq-pipeline.lattice_shortcuts", "count", "higher"),
    ("kq-pipeline.parallel_stages", "count", "higher"),
    ("kq-pipeline.eliminated_combiners", "count", "higher"),
    ("kq-pipeline.run_serial_s", "s", "lower"),
    ("kq-pipeline.dataflow_s", "s", "lower"),
    ("kq-pipeline.dataflow_w1_s", "s", "lower"),
    ("kq-pipeline.map_busy_s", "s", "lower"),
    ("kq-pipeline.send_stall_s", "s", "lower"),
    ("kq-pipeline.recv_stall_s", "s", "lower"),
    ("kq-pipeline.max_queued", "count", "lower"),
    ("kq-pipeline.tasks", "count", "lower"),
    ("kq-analyze.check_s", "s", "lower"),
    ("kq-analyze.findings", "count", "lower"),
    ("kq-trace.overhead_ratio", "ratio", "lower"),
    ("kq-trace.records", "count", "lower"),
    ("cli.spawn_s", "s", "lower"),
    ("cli.stdout_mb", "MB", "lower"),
    ("cli.overhead_s", "s", "lower"),
];

/// One script the pass plans and runs, and where its input comes from.
struct Case {
    text: String,
    input: CaseInput,
}

enum CaseInput {
    /// A host file, already ingested, stored in the VFS under its path.
    Host { path: String, bytes: Bytes },
    /// A corpus script; `kq_workloads::setup` generates its files.
    Corpus(&'static BenchmarkScript),
}

impl Case {
    /// A run workload's script over its input file as `kq-io` ingested it.
    fn host(p: &Prepared, path: &Path, bytes: Bytes) -> Case {
        Case {
            text: p.script_text.clone(),
            input: CaseInput::Host {
                path: path.display().to_string(),
                bytes,
            },
        }
    }

    /// A fresh context holding the case's input files, the variables its
    /// script is parsed with, and the planning sample — the 64 KiB prefix
    /// `kumquat run` takes, or the 16 KB line-aligned one of
    /// `kumquat corpus --plan`.
    fn fresh(&self, seed: u64) -> (ExecContext, HashMap<String, String>, String) {
        let ctx = ExecContext::default();
        match &self.input {
            CaseInput::Host { path, bytes } => {
                ctx.vfs.write(path.clone(), bytes.clone());
                let raw = bytes.as_bytes();
                let mut cap = raw.len().min(64 * 1024);
                while cap > 0 && cap < raw.len() && (raw[cap] & 0xC0) == 0x80 {
                    cap -= 1;
                }
                let mut sample = String::from_utf8_lossy(&raw[..cap]).into_owned();
                if !sample.ends_with('\n') {
                    sample.push('\n');
                }
                (ctx, HashMap::new(), sample)
            }
            CaseInput::Corpus(script) => {
                let env = kq_workloads::setup(script, &ctx, &Scale::tests(), seed);
                let input = ctx.vfs.read(&env["IN"]).expect("setup writes $IN");
                let sample = kq_workloads::planning_sample(&input, 16_000).to_owned();
                (ctx, env, sample)
            }
        }
    }

    fn main_input(&self, ctx: &ExecContext, env: &HashMap<String, String>) -> Bytes {
        match &self.input {
            CaseInput::Host { bytes, .. } => bytes.clone(),
            CaseInput::Corpus(_) => ctx.vfs.read_bytes(&env["IN"]).expect("setup writes $IN"),
        }
    }
}

fn ingest(path: &Path) -> Result<Bytes, String> {
    kq_io::read_path_text(path, &IngestOptions::default())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn corpus_cases() -> Vec<Case> {
    kq_workloads::corpus()
        .iter()
        .map(|script| Case {
            text: script.text.to_owned(),
            input: CaseInput::Corpus(script),
        })
        .collect()
}

fn synthesis_config(workers: usize) -> SynthesisConfig {
    SynthesisConfig {
        workers,
        ..SynthesisConfig::default()
    }
}

/// The options `kumquat run --workers N [--spill-mb M]` executes with.
fn dataflow_options(env: &Env, workers: usize, spill_mb: Option<usize>) -> DataflowOptions {
    DataflowOptions {
        workers,
        chunk: ChunkSizing::Fixed(DEFAULT_CHUNK_BYTES),
        queue: QueueCredit::Fixed(DEFAULT_QUEUE_DEPTH),
        fuse_streamable: true,
        spill: spill_mb.map(|mb| kq_dsl::SpillPolicy {
            budget_bytes: mb * 1024 * 1024,
            dir: Some(env.out.join("tmp")),
        }),
    }
}

/// True when the run's stdout and every redirect target equal the
/// serial oracle's.
fn same_outputs(
    script: &Script,
    serial: &ExecutionResult,
    serial_ctx: &ExecContext,
    run: &ExecutionResult,
    run_ctx: &ExecContext,
) -> bool {
    run.output == serial.output
        && script
            .statements
            .iter()
            .filter_map(|s| s.output.as_deref())
            .all(|target| run_ctx.vfs.read_bytes(target) == serial_ctx.vfs.read_bytes(target))
}

fn gather_input(input: &InputSource, ctx: &ExecContext) -> Result<Bytes, String> {
    let mut rope = Rope::new();
    if let InputSource::Files(files) = input {
        for f in files {
            rope.push(
                ctx.vfs
                    .read_bytes(f)
                    .ok_or_else(|| format!("{f}: not in the VFS"))?,
            );
        }
    }
    Ok(rope.into_bytes())
}

/// Walks a script stage by stage on `ctx` (which already holds every
/// redirect target) and, at each stage the plan combines, times the
/// synthesized combiner over the stage's real outputs: `combine_few` on
/// `workers` pieces, `combine_many` on one piece per default-size chunk.
/// Running the commands on the pieces is the walk's self time.
fn combine_walk(
    t: &mut Tracer,
    script: &Script,
    plan: &PlannedScript,
    ctx: &ExecContext,
    workers: usize,
) -> Result<(), String> {
    for (statement, planned) in script.statements.iter().zip(&plan.statements) {
        let mut stream = gather_input(&statement.input, ctx)?;
        for (stage, planned_stage) in statement.stages.iter().zip(&planned.stages) {
            let cmd = &stage.command;
            let run = |piece: Bytes| cmd.run(piece, ctx).map_err(|e| e.to_string());
            stream = match &planned_stage.mode {
                StageMode::Parallel {
                    combiner,
                    eliminated: false,
                } => {
                    let env = CommandEnv { command: cmd, ctx };
                    let mut many = stream.split_chunks(DEFAULT_CHUNK_BYTES);
                    if many.len() > MANY_PIECES_CAP {
                        many = stream.split_stream(MANY_PIECES_CAP);
                    }
                    let many: Vec<Bytes> = many.into_iter().map(run).collect::<Result<_, _>>()?;
                    t.span("kq-dsl.combine_many", |_| combiner.combine_all(&many, &env))
                        .map_err(|e| e.to_string())?;
                    let few: Vec<Bytes> = stream
                        .split_stream(workers)
                        .into_iter()
                        .map(run)
                        .collect::<Result<_, _>>()?;
                    t.span("kq-dsl.combine_few", |_| combiner.combine_all(&few, &env))
                        .map_err(|e| e.to_string())?
                }
                _ => run(stream)?,
            };
        }
    }
    Ok(())
}

/// What one repetition of the pass found besides times.
#[derive(Default)]
struct Counts {
    values: BTreeMap<&'static str, f64>,
    /// Bytes in and seconds per command, from the serial run.
    commands: BTreeMap<&'static str, (f64, f64)>,
    outputs_checked: u64,
    outputs_wrong: u64,
}

impl Counts {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.values.entry(name).or_insert(0.0);
        *slot = slot.max(value);
    }
}

const MB: f64 = 1024.0 * 1024.0;

/// One repetition over `cases`: every layer once, in the order a run
/// meets them.
fn repetition(
    t: &mut Tracer,
    env: &Env,
    cases: &[Case],
    warm_cache: &Path,
    spill_mb: Option<usize>,
    sh_reference: Option<&[u8]>,
    seed: u64,
) -> Result<Counts, String> {
    let mut c = Counts::default();
    let cold_path = env.out.join("work").join("cold-combiners.v1");
    let _ = std::fs::remove_file(&cold_path);
    let config = synthesis_config(env.workers);
    let mut cold = Planner::with_cache(config.clone(), CombinerCache::open(&cold_path, &config));
    let mut warm = t.span("kq-pipeline.plan_warm", |_| {
        Planner::with_cache(config.clone(), CombinerCache::open(warm_cache, &config))
    });
    let wide = dataflow_options(env, env.workers, spill_mb);
    let narrow = dataflow_options(env, 1, spill_mb);

    for case in cases {
        let (ctx, vars, sample) = case.fresh(seed);
        let script = t
            .span("kq-pipeline.parse", |_| parse_script(&case.text, &vars))
            .map_err(|e| e.to_string())?;
        t.span("kq-pipeline.plan_cold", |_| {
            cold.plan(&script, &ctx, &sample)
        });
        let plan = t.span("kq-pipeline.plan_warm", |_| {
            warm.plan(&script, &ctx, &sample)
        });
        let (parallel, _) = plan.parallelized_counts();
        c.add("kq-pipeline.parallel_stages", parallel as f64);
        c.add(
            "kq-pipeline.eliminated_combiners",
            plan.eliminated_count() as f64,
        );

        let input = case.main_input(&ctx, &vars);
        let chunks = t.span("kq-stream.split", |_| {
            input.split_chunks(DEFAULT_CHUNK_BYTES)
        });
        c.add("kq-stream.chunks", chunks.len() as f64);

        let analysis = t.span("kq-analyze.check", |_| {
            kq_analyze::check_script(&case.text, &vars)
        });
        c.add("kq-analyze.findings", analysis.diagnostics.len() as f64);

        let serial = t
            .span("kq-pipeline.run_serial", |_| run_serial(&script, &ctx))
            .map_err(|e| e.to_string())?;
        if let Some(reference) = sh_reference {
            // Two independent implementations of the script must agree.
            c.outputs_checked += 1;
            c.outputs_wrong += u64::from(serial.output.as_bytes() != reference);
        }
        for stage in serial.timings.statements.iter().flatten() {
            let program = stage.label.split(' ').next().unwrap_or("");
            if let Some(name) = COMMANDS.iter().find(|c| **c == program) {
                let slot = c.commands.entry(name).or_insert((0.0, 0.0));
                slot.0 += stage.bytes_in as f64;
                slot.1 += stage.total_work().as_secs_f64();
            }
        }

        for (span, opts) in [
            ("kq-pipeline.dataflow", &wide),
            ("kq-pipeline.dataflow_w1", &narrow),
        ] {
            let (run_ctx, _, _) = case.fresh(seed);
            let run = t
                .span(span, |_| run_dataflow(&script, &plan, &run_ctx, opts))
                .map_err(|e| e.to_string())?;
            c.outputs_checked += 1;
            if !same_outputs(&script, &serial, &ctx, &run, &run_ctx) {
                c.outputs_wrong += 1;
            }
            if span != "kq-pipeline.dataflow" {
                continue;
            }
            for stage in run.timings.statements.iter().flatten() {
                c.add("kq-dsl.fold_busy_s", stage.combine_time.as_secs_f64());
                c.add(
                    "kq-pipeline.map_busy_s",
                    stage
                        .piece_times
                        .iter()
                        .sum::<std::time::Duration>()
                        .as_secs_f64(),
                );
                if let Some(q) = &stage.queue {
                    c.add("kq-pipeline.send_stall_s", q.send_stall.as_secs_f64());
                    c.add("kq-pipeline.recv_stall_s", q.recv_stall.as_secs_f64());
                    c.add("kq-pipeline.tasks", q.tasks as f64);
                    c.max("kq-pipeline.max_queued", q.max_queued as f64);
                }
                if let Some(s) = &stage.spill {
                    c.add("kq-io.spill_runs", s.runs_spilled as f64);
                    c.add("kq-io.spill_written_mb", s.bytes_written as f64 / MB);
                    c.add("kq-io.spill_mapped_mb", s.bytes_mapped as f64 / MB);
                }
            }
        }

        t.span("kq-dsl.combine_walk", |t| {
            combine_walk(t, &script, &plan, &ctx, env.workers)
        })?;
    }
    t.span("kq-pipeline.plan_cold", |_| cold.save_cache())?;

    let stats = cold.cache_stats();
    c.add("kq-pipeline.cache_misses", stats.misses as f64);
    c.add("kq-pipeline.cache_hits", warm.cache_stats().hits as f64);
    c.add(
        "kq-pipeline.lattice_shortcuts",
        cold.lattice_short_circuits as f64,
    );
    c.add("kq-synth.commands", cold.reports.len() as f64);
    for report in &cold.reports {
        c.add("kq-synth.synthesize_s", report.elapsed.as_secs_f64());
        c.max("kq-synth.slowest_command_s", report.elapsed.as_secs_f64());
        c.add("kq-synth.rounds", report.rounds as f64);
        c.add("kq-synth.observations", report.observations as f64);
        c.add(
            "kq-synth.combiners_found",
            f64::from(u8::from(report.combiner().is_some())),
        );
    }
    Ok(c)
}

/// The result of a traced pass.
pub struct Traced {
    /// One value per entry of [`PER_LAYER`], in that order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
    pub repetitions: usize,
}

/// Runs the traced pass on a prepared workload: up to `max_repetitions`
/// of the in-process pass within `seconds`, then as many rounds of the
/// binary runs the `cli` and `kq-trace` rows need.
pub fn traced_pass(
    env: &Env,
    p: &Prepared,
    seed: u64,
    seconds: f64,
    max_repetitions: usize,
) -> Result<Traced, String> {
    let mut t = Tracer::new(p.workload.name);
    let started = Instant::now();
    let spill_mb = env.spill_mb(p.workload);
    let mut reps: Vec<Counts> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    while reps.len() < max_repetitions.max(1) {
        t.set_rep(reps.len());
        let counts = t.span("repetition", |t| {
            let cases = match &p.input {
                Some(path) => {
                    let bytes = t.span("kq-io.ingest", |_| ingest(path))?;
                    vec![Case::host(p, path, bytes)]
                }
                None => corpus_cases(),
            };
            let sh_reference =
                (p.reference_source == Reference::Sh).then_some(p.reference.as_slice());
            repetition(t, env, &cases, &p.cache, spill_mb, sh_reference, seed)
        })?;
        attempted += counts.outputs_checked;
        failed += counts.outputs_wrong;
        reps.push(counts);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // The binary, for the rows only a process can give.
    let trace_file = p.dir.join("kq-trace.jsonl");
    let mut spawn = Vec::new();
    let mut plain = Vec::new();
    let mut with_trace = Vec::new();
    for _ in 0..max_repetitions.max(1) {
        spawn.push(env.spawn_sample()?.wall_s);
        let untraced = env.sample(p, env.workers, None)?;
        let traced = match p.workload.kind {
            Kind::Run { .. } => env.sample(p, env.workers, Some(&trace_file))?,
            // `corpus --plan` has no --trace-out; its ratio reads 1.
            Kind::SynthCorpus => untraced,
        };
        attempted += 2;
        failed += u64::from(!untraced.correct) + u64::from(!traced.correct);
        plain.push(untraced.run.wall_s);
        with_trace.push(traced.run.wall_s);
    }
    let records = std::fs::read_to_string(&trace_file)
        .map(|s| s.lines().count())
        .unwrap_or(0);
    let wall_s = fast_quarter_mean(&plain);

    // One repetition's value of a metric that a repetition can give.
    let in_repetition = |rep: usize, c: &Counts, name: &str| -> f64 {
        if let Some(value) = c.values.get(name) {
            return *value;
        }
        if let Some(cmd) = name.strip_prefix("kq-coreutils.") {
            let rate = cmd.strip_suffix("_mbps");
            let command = rate.unwrap_or(cmd.trim_end_matches("_s"));
            return match c.commands.get(command) {
                Some(&(bytes, secs)) if rate.is_some() => bytes / MB / secs,
                Some(&(_, secs)) => secs,
                None => 0.0,
            };
        }
        match name {
            "kq-dsl.fold_share" => {
                c.values.get("kq-dsl.fold_busy_s").copied().unwrap_or(0.0)
                    / t.total_s("kq-pipeline.dataflow", rep)
            }
            // A time with no count behind it is the span of that name.
            _ => name
                .strip_suffix("_s")
                .map_or(0.0, |span| t.total_s(span, rep)),
        }
    };
    // Over repetitions: times as the end-to-end half takes them (with at
    // most four repetitions the fastest quarter is the fastest one, so
    // one repetition in a slow mode does not set the row), and counts and
    // ratios by their median.
    let over_repetitions = |name: &str| -> f64 {
        let values: Vec<f64> = reps
            .iter()
            .enumerate()
            .map(|(rep, c)| in_repetition(rep, c, name))
            .collect();
        if name.ends_with("_s") {
            fast_quarter_mean(&values)
        } else {
            median(&values)
        }
    };
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for (name, unit, _) in PER_LAYER {
        let value = match name {
            "kq-trace.overhead_ratio" => fast_quarter_mean(&with_trace) / wall_s,
            "kq-trace.records" => records as f64,
            "cli.spawn_s" => fast_quarter_mean(&spawn),
            "cli.stdout_mb" => p.reference.len() as f64 / MB,
            // The residual that makes the rows tile the binary's wall:
            // what it spends outside the calls the pass repeats.
            "cli.overhead_s" => match p.workload.kind {
                Kind::Run { .. } => {
                    wall_s
                        - over_repetitions("kq-io.ingest_s")
                        - over_repetitions("kq-pipeline.plan_warm_s")
                        - over_repetitions("kq-pipeline.dataflow_s")
                }
                Kind::SynthCorpus => {
                    wall_s
                        - over_repetitions("kq-pipeline.parse_s")
                        - over_repetitions("kq-pipeline.plan_cold_s")
                }
            },
            _ => over_repetitions(name),
        };
        metrics.push((name, unit, value));
    }
    Ok(Traced {
        metrics,
        attempted,
        failed,
        repetitions: reps.len(),
        tracer: t,
    })
}

/// The check that follows the `synth-corpus` timing: every corpus script,
/// planned from the combiner cache the timed runs left, must give the
/// serial oracle's output on the dataflow scheduler. Returns how many
/// scripts ran and how many differed.
pub fn corpus_check(env: &Env, cache: &Path, seed: u64) -> Result<(u64, u64), String> {
    let config = synthesis_config(env.workers);
    let mut planner = Planner::with_cache(config.clone(), CombinerCache::open(cache, &config));
    let opts = dataflow_options(env, env.workers, None);
    let mut wrong = 0;
    let cases = corpus_cases();
    for case in &cases {
        let (ctx, vars, sample) = case.fresh(seed);
        let script = parse_script(&case.text, &vars).map_err(|e| e.to_string())?;
        let plan = planner.plan(&script, &ctx, &sample);
        let serial = run_serial(&script, &ctx).map_err(|e| e.to_string())?;
        let (run_ctx, _, _) = case.fresh(seed);
        let run = run_dataflow(&script, &plan, &run_ctx, &opts).map_err(|e| e.to_string())?;
        wrong += u64::from(!same_outputs(&script, &serial, &ctx, &run, &run_ctx));
    }
    // What CI's warm-cache job asserts: a complete cache leaves nothing
    // to search for.
    if planner.reports.iter().any(|r| r.rounds > 0) {
        return Err("synth-corpus: the timed runs left an incomplete combiner cache".into());
    }
    Ok((cases.len() as u64, wrong))
}

/// The serial oracle's stdout for a run workload: the reference when the
/// host has no coreutils, and what the `sh` reference must agree with.
pub fn serial_reference(p: &Prepared) -> Result<Vec<u8>, String> {
    let path = p.input.as_ref().expect("run workloads have an input");
    let case = Case::host(p, path, ingest(path)?);
    let (ctx, vars, _) = case.fresh(0);
    let script = parse_script(&case.text, &vars).map_err(|e| e.to_string())?;
    let serial = run_serial(&script, &ctx).map_err(|e| e.to_string())?;
    Ok(serial.output.as_bytes().to_vec())
}
