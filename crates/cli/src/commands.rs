//! Implementations of the `kumquat` subcommands.
//!
//! Each subcommand is a function from parsed arguments to the text it
//! prints on stdout, so integration tests drive them without spawning the
//! binary. Diagnostics go to the returned [`CliOutput::notes`] (the binary
//! prints them on stderr).

use crate::args::ParsedArgs;
use crate::emit::{emit_script, EmitOptions};
use crate::report::{render_plan, render_synthesis, render_synthesis_summary};
use kq_coreutils::ExecContext;
use kq_io::{IngestOptions, MmapMode};
use kq_pipeline::cache::CombinerCache;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::{parse_script, InputSource, Script};
use kq_pipeline::plan::{planning_sample, PlannedScript, Planner, PreparedScript};
use kq_stream::{Bytes, Rope};
use kq_synth::SynthesisConfig;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// What a subcommand produced.
#[derive(Debug, Default)]
pub struct CliOutput {
    /// What goes to stdout, as the segments the subcommand produced it in:
    /// one for a report, the buffers a run's statements ended in for `run`
    /// (mapped spill files included). The binary writes them out one after
    /// the other, so the output is never gathered into one heap buffer;
    /// [`text`](CliOutput::text) is the gathered form for tests.
    pub stdout: Rope,
    /// Diagnostics for stderr.
    pub notes: Vec<String>,
    /// Process exit code. Nonzero for subcommands that ran successfully
    /// but *found* something — `check --deny-warnings` on a script with
    /// warnings exits 1 while argument/IO errors keep exiting 2 via
    /// `Err`.
    pub exit_code: i32,
}

impl CliOutput {
    fn from_stdout(stdout: String) -> CliOutput {
        CliOutput::with_notes(stdout, Vec::new())
    }

    fn with_notes(stdout: String, notes: Vec<String>) -> CliOutput {
        CliOutput {
            stdout: Bytes::from(stdout).into(),
            notes,
            exit_code: 0,
        }
    }

    /// The stdout text in one piece (a copy: for tests and assertions, not
    /// for writing the output). Bytes that are not UTF-8 are replaced.
    pub fn text(&self) -> String {
        let bytes: Vec<u8> = self
            .stdout
            .segments()
            .iter()
            .flat_map(Bytes::as_bytes)
            .copied()
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// Top-level dispatch. `args` excludes the program name.
pub fn run_cli(args: &[String]) -> Result<CliOutput, String> {
    let parsed = ParsedArgs::parse(args).map_err(|e| format!("{e}\n\n{USAGE}"))?;
    // `--exec` no longer parses a value, so `--exec streaming` would leave
    // `streaming` behind as a second script argument: name the removed
    // option first instead, whatever the subcommand.
    for removed in ["exec", "executor"] {
        if parsed.opt(removed).is_some() {
            return Err(format!(
                "--{removed} was removed: kumquat has one executor (the dataflow pool; \
                 --no-opt runs its graph without rewrites)"
            ));
        }
    }
    match parsed.subcommand.as_str() {
        "synthesize" => cmd_synthesize(&parsed),
        "check" => cmd_check(&parsed),
        "plan" => cmd_plan(&parsed),
        "run" => cmd_run(&parsed),
        "emit" => cmd_emit(&parsed),
        "corpus" => cmd_corpus(&parsed),
        "trace" => cmd_trace(&parsed),
        "help" | "--help" | "-h" => Ok(CliOutput::from_stdout(USAGE.to_owned())),
        other => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    }
}

/// Usage text shown by `kumquat help` and on argument errors.
pub const USAGE: &str = "kumquat — synthesize data-parallel Unix pipelines (PPoPP'22 reproduction)

USAGE:
    kumquat synthesize '<command>' [--seed N] [--external]
        Synthesize a combiner for one command and print the report.
        --external probes the real system binary (the paper's setup)
        instead of the in-process implementation.
    kumquat check <script|file> [--var NAME=VALUE,...]
                                [--format human|json] [--deny-warnings]
        Statically analyze a script without executing or synthesizing
        anything: classify every command on the effect lattice
        (stateless / pure-parallelizable / commutative-fold /
        order-sensitive / unknown), lint the script's file accesses for
        hazards (use-before-def KQ101, dead writes KQ102, read/write
        aliasing KQ103), and verify each statement's dataflow graph
        (structural invariants KQ201, fusion legality KQ203). Findings
        carry stable KQnnn codes and line/column spans. Exits 0 when the
        script passes, 1 when it does not; --deny-warnings makes warnings
        fail too; --format json emits a machine-readable report.
    kumquat plan <script|file> [--var NAME=VALUE,...] [--input FILE]
                               [--synth-workers N] [--combiner-cache FILE]
        Parse a pipeline script and print the parallelization plan plus a
        synthesis summary (per-command wall time, cache hit/miss counts).
        --synth-workers synthesizes distinct commands on N threads
        (default: the number of cores available to the process; plans are
        identical for every N);
        --combiner-cache persists synthesized combiners to FILE so repeat
        invocations skip synthesis (on-disk hits are re-validated against
        a fresh observation before being trusted).
    kumquat run <script|file> [--workers N] [--no-opt] [--var ...]
                               [--chunk-kb N] [--queue-depth N]
                               [--mmap auto|on|off] [--no-verify]
                               [--synth-workers N] [--combiner-cache FILE]
                               [--spill-mb N] [--spill-dir DIR]
                               [--trace-out FILE] [--metrics]
        Execute a script with N-way data parallelism (default: the
        number of cores available to the process); the
        parallel output is verified against the serial output unless
        --no-verify is given (the serial oracle re-reads the whole input
        onto the heap — skip it for out-of-core runs). Files named
        by the script are read from the host filesystem — memory-mapped
        into the data plane when large (--mmap auto, the default; 'on'
        and 'off' force one backing), so multi-GB inputs are never copied
        into the heap. The executor compiles every statement to a
        dataflow graph and runs the whole script on one shared
        work-stealing pool of exactly --workers threads:
        stages pass chunks of --chunk-kb KiB (default 64) through queues
        of --queue-depth chunks (default 4), so a stage starts before its
        predecessor finishes; independent statements overlap, dependent
        ones (linked by > file redirects) wait, and once a prefix-bounded
        consumer (head -n k, sed kq) is satisfied the upstream work still
        queued is dropped (reported as 'early-exit: ... after M
        chunk(s)'). A 'sort | uniq -c'
        (or 'sort | uniq') pair of parallel stages runs there as one
        counting fold — each chunk hash-counted, the counts merged, and
        a chunk of mostly distinct lines sorted raw in a 128 KiB batch
        with others like it — instead of a sort of every line and a
        second pass over it,
        reported as 'counting fold: s1 stages 4-5 ...'; a numeric sort
        right after such a 'uniq -c' ('sort -rn', '-n', '-k1nr', ...)
        joins the fold, which closes by grouping its lines by count
        instead of sorting them again, reported as 'counting fold: s1
        stages 3-5 ... (count order)'; and a 'tr -s'
        that splits text into lines (tr -cs A-Za-z '\\n': its combiner is
        a rerun, so it plans sequential unless it shrinks its input) runs
        there chunk by chunk — what it carries across a chunk boundary
        is one newline — reported as 'seam: s1 stage 1 ...'. Any other
        parallel 'sort' whose combiner merges in its own order passes its
        chunks to its fold unsorted, and the fold sorts them a batch at a
        time where it would merge their sorted copies, reported as
        'sorting fold: s1 stage 2 ...'. --no-opt
        runs the plan without its rewrites: every parallel stage combines
        (no Theorem 5 elimination, no fused chunk-local runs), such a
        pair stays two stages, such a numeric sort sorts again, such a
        'tr' runs once and every 'sort' sorts its own chunks. --spill-mb N bounds
        the memory of barrier folds (sort and friends): a fold keeps
        sorted runs of up to N/4 MiB on the heap and writes further runs
        to temp files, mapped back for the final k-way merge, and cuts
        its batches small enough that every worker's batch fits in the
        other 3N/4 MiB, so a sort's peak memory stays the budget plus a
        merge window per worker instead of O(input). Run files live in
        --spill-dir (default: the system temp dir) and are unlinked as
        soon as they are mapped, so they never outlive the run. Disk
        traffic is reported as 'spill: ...' notes. (--exec is gone:
        there is one executor.)
        --trace-out FILE records a span for every unit of work in every
        layer (planning, synthesis, ingest, chunking, folds, executor
        tasks) and writes FILE as JSONL plus FILE's stem + '.chrome.json'
        as a Chrome trace_event file — open the latter in Perfetto
        (ui.perfetto.dev) or chrome://tracing to see one track per worker
        thread and one per dataflow node. --metrics prints aggregated
        span/counter totals as end-of-run notes. Both are off by default
        and cost nothing when off.
    kumquat trace report FILE [--top N]
        Analyze a --trace-out JSONL file: per-node busy time, the
        critical path through the dataflow graph (whose windows tile the
        trace, so the path total matches the run's wall time), and the
        top N bottleneck nodes (default 5).
    kumquat emit <script|file> [--workers N] [--no-opt] [--out FILE]
        Compile the script into a runnable POSIX shell script that uses
        the real Unix commands plus the synthesized combiners. It emits
        the paper's plan — split, run, combine per stage, with Theorem 5
        elimination — without the dataflow executor's graph rewrites
        (chunk-local fusion, counting folds, seams, sorting folds).
    kumquat corpus [--suite NAME] [--plan] [--combiner-cache FILE]
                   [--synth-workers N] [--trace-out FILE] [--metrics]
        List the 70-script benchmark corpus from the paper. With --plan,
        generate each script's inputs and plan it, sharing one combiner
        cache across the whole corpus, then print per-command synthesis
        times and cache statistics (CI plans the corpus twice against a
        shared --combiner-cache and asserts the second pass reports zero
        synthesis rounds). The scripts plan in one pass: while one plans,
        the next few are generated and their uncached commands queued to
        the --synth-workers threads (default: the number of cores), so
        the whole corpus's syntheses overlap; the output is the same for
        every N. --trace-out and --metrics record the planning pass the
        way they record a run.
";

fn synthesis_config(args: &ParsedArgs) -> Result<SynthesisConfig, String> {
    let mut config = SynthesisConfig::default();
    config.rng_seed = args.opt_parse("seed", config.rng_seed)?;
    // Like --workers: the host is asked only when the flag is absent.
    config.workers = match args.opt("synth-workers") {
        Some(_) => args.opt_parse_nonzero("synth-workers", 1)?,
        None => host_parallelism(),
    };
    Ok(config)
}

/// Builds the planner the way every planning subcommand shares: synthesis
/// config from `--seed`/`--synth-workers`, and an on-disk combiner cache
/// when `--combiner-cache` is given. Cache-load warnings land in `notes`.
fn planner_from_args(args: &ParsedArgs, notes: &mut Vec<String>) -> Result<Planner, String> {
    let config = synthesis_config(args)?;
    let planner = match args.opt("combiner-cache") {
        Some(path) => Planner::with_cache(config.clone(), CombinerCache::open(path, &config)),
        None => Planner::new(config),
    };
    notes.extend(planner.cache_warnings().iter().cloned());
    Ok(planner)
}

/// The one-line synthesis/cache summary appended to `plan`/`run` notes,
/// plus the cache write-back.
fn finish_planning(planner: &mut Planner, notes: &mut Vec<String>) {
    let stats = planner.cache_stats();
    let synth_ms = crate::report::total_synthesis_ms(&planner.reports);
    let rounds: usize = planner.reports.iter().map(|r| r.rounds).sum();
    notes.push(format!(
        "synthesis: {} command(s) synthesized in {synth_ms:.1} ms summed over commands \
         ({rounds} round(s)); \
         combiner cache: {} hit(s) ({} validated, {} rejected), {} miss(es); \
         lattice: {} short-circuit(s)",
        planner.reports.len(),
        stats.hits,
        stats.validated,
        stats.rejected,
        stats.misses,
        planner.lattice_short_circuits,
    ));
    let path = planner
        .cache_path()
        .map(|p| p.display().to_string())
        .unwrap_or_default();
    match planner.save_cache() {
        Ok(true) => notes.push(format!("combiner cache written to {path}")),
        Ok(false) => {}
        Err(e) => notes.push(format!("combiner cache not saved: {e}")),
    }
}

fn cmd_synthesize(args: &ParsedArgs) -> Result<CliOutput, String> {
    let [line] = args.positional.as_slice() else {
        return Err("synthesize expects exactly one command argument".into());
    };
    let mut notes = Vec::new();
    // --external reproduces the paper's exact setup: the black box is the
    // real system binary, spawned per probe, not our in-process model.
    let command = if args.flag("external") {
        let words = kq_coreutils::split_words(line).map_err(|e| e.to_string())?;
        let imp =
            kq_coreutils::external::ExternalCommand::new(&words).map_err(|e| e.to_string())?;
        notes.push("probing the real system binary (per-observation process spawns)".into());
        kq_coreutils::Command::custom(words, Box::new(imp))
    } else {
        kq_coreutils::parse_command(line).map_err(|e| e.to_string())?
    };
    let ctx = ExecContext::default();
    let report = kq_synth::synthesize(&command, &ctx, &synthesis_config(args)?);
    Ok(CliOutput::with_notes(render_synthesis(&report), notes))
}

/// `kumquat check`: the static analysis pass — parse, classify on the
/// effect lattice, lint VFS hazards, verify dataflow graphs. Never
/// executes a command and never synthesizes, so it is safe to run on
/// scripts whose input files do not exist.
fn cmd_check(args: &ParsedArgs) -> Result<CliOutput, String> {
    let [arg] = args.positional.as_slice() else {
        return Err("check expects exactly one script argument".into());
    };
    let ingest = ingest_options(args)?;
    let text = load_script_text(arg, &ingest)?;
    let env: HashMap<String, String> = args.vars()?.into_iter().collect();
    let analysis = kq_analyze::check_script(&text, &env);
    let stdout = match args.opt("format").unwrap_or("human") {
        "human" => analysis.render_human(),
        "json" => {
            let mut json = analysis.to_json();
            json.push('\n');
            json
        }
        other => return Err(format!("--format must be 'human' or 'json', got {other:?}")),
    };
    Ok(CliOutput {
        exit_code: i32::from(!analysis.passes(args.flag("deny-warnings"))),
        ..CliOutput::from_stdout(stdout)
    })
}

/// The ingest policy from `--mmap auto|on|off` (default `auto`: map files
/// at or above the size threshold, heap-read the rest).
fn ingest_options(args: &ParsedArgs) -> Result<IngestOptions, String> {
    match args.opt("mmap") {
        None => Ok(IngestOptions::default()),
        Some(v) => v
            .parse::<MmapMode>()
            .map(IngestOptions::with_mode)
            .map_err(|e| format!("--mmap: {e}")),
    }
}

/// The one host-file ingest door: every path the CLI reads — the script
/// argument, files the script references, `--input` — comes through here,
/// so error attribution (`path: message`) is identical everywhere, and
/// `--mmap` governs them all. Large files enter the data plane as mapped
/// regions without a heap read. Data files are bytes: nothing is checked.
fn ingest_file(path: &str, opts: &IngestOptions) -> Result<Bytes, String> {
    kq_io::read_path(path, opts).map_err(|e| format!("{path}: {e}"))
}

/// Reads the script argument: a file path when one exists, otherwise the
/// argument itself is the script text. A script file is decoded: its
/// bytes must be UTF-8.
fn load_script_text(arg: &str, opts: &IngestOptions) -> Result<String, String> {
    if Path::new(arg).is_file() {
        let bytes = ingest_file(arg, opts)?;
        match bytes.to_str() {
            Ok(text) => Ok(text.to_owned()),
            Err(_) => Err(format!("{arg}: input is not valid UTF-8")),
        }
    } else if arg.contains('|') || arg.contains(' ') {
        Ok(arg.to_owned())
    } else {
        Err(format!("{arg}: no such file (and not a pipeline)"))
    }
}

/// Loads files the script references from the host filesystem into the
/// virtual filesystem, returning notes about anything missing.
fn load_referenced_files(script: &Script, ctx: &ExecContext, opts: &IngestOptions) -> Vec<String> {
    let mut notes = Vec::new();
    let mut wanted: Vec<String> = Vec::new();
    for statement in &script.statements {
        if let InputSource::Files(files) = &statement.input {
            wanted.extend(files.iter().cloned());
        }
        for stage in &statement.stages {
            // Non-option argv words that exist on the host are loaded too
            // (dictionaries for `comm`, file lists for `xargs cat`).
            for word in stage.command.argv().iter().skip(1) {
                if !word.starts_with('-') && Path::new(word).is_file() {
                    wanted.push(word.clone());
                }
            }
        }
        // Redirect targets are produced by the run itself.
        if let Some(target) = &statement.output {
            notes.push(format!("writes {target} into the virtual filesystem"));
        }
    }
    wanted.sort();
    wanted.dedup();
    for path in wanted {
        if ctx.vfs.exists(&path) {
            continue;
        }
        if !Path::new(&path).is_file() {
            notes.push(format!("input file {path} not found on host"));
            continue;
        }
        match ingest_file(&path, opts) {
            Ok(content) => {
                if content.is_mmap_backed() {
                    notes.push(format!(
                        "mapped {path} ({} bytes, zero-copy)",
                        content.len()
                    ));
                }
                ctx.vfs.write(path, content);
            }
            Err(e) => notes.push(format!("input file {e}")),
        }
    }
    notes
}

/// The `--workers` and `--synth-workers` default: one thread per core the
/// host gives this process (1 when it will not say).
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct PlannedRun {
    script: Script,
    plan: PlannedScript,
    ctx: ExecContext,
    notes: Vec<String>,
    planner: Planner,
}

fn plan_from_args(args: &ParsedArgs) -> Result<PlannedRun, String> {
    let [arg] = args.positional.as_slice() else {
        return Err("expected exactly one script argument".into());
    };
    // Validate every synthesis knob up front — like the executor capacity
    // knobs, a bad --synth-workers fails before any file is read or
    // synthesis starts.
    synthesis_config(args)?;
    let ingest = ingest_options(args)?;
    let text = load_script_text(arg, &ingest)?;
    let env: HashMap<String, String> = args.vars()?.into_iter().collect();
    let script = parse_script(&text, &env).map_err(|e| e.to_string())?;
    let ctx = ExecContext::default();
    let mut notes = load_referenced_files(&script, &ctx, &ingest);
    if let Some(input) = args.opt("input") {
        match ingest_file(input, &ingest) {
            Ok(content) => ctx.vfs.write(input, content),
            Err(e) => notes.push(format!("--input {e}")),
        }
    }
    let sample = planning_sample(&script, &ctx);
    let mut planner = planner_from_args(args, &mut notes)?;
    let plan = planner.plan(&script, &ctx, &sample);
    finish_planning(&mut planner, &mut notes);
    Ok(PlannedRun {
        script,
        plan,
        ctx,
        notes,
        planner,
    })
}

fn cmd_plan(args: &ParsedArgs) -> Result<CliOutput, String> {
    let mut planned = plan_from_args(args)?;
    planned.notes.extend(crate::report::render_rewrite_notes(
        &planned.script,
        &planned.plan,
    ));
    let mut stdout = render_plan(&planned.script, &planned.plan);
    stdout.push_str(&render_synthesis_summary(
        &planned.planner.reports,
        planned.planner.cache_stats(),
    ));
    Ok(CliOutput::with_notes(stdout, planned.notes))
}

fn cmd_run(args: &ParsedArgs) -> Result<CliOutput, String> {
    // Every capacity knob is validated up front, before any file is read.
    // Asking the host costs a few file reads: only when the flag is absent.
    let workers = match args.opt("workers") {
        Some(_) => args.opt_parse_nonzero("workers", 1)?,
        None => host_parallelism(),
    };
    let chunk_bytes = args.opt_parse_bytes("chunk-kb", 64, 1 << 10)?;
    let queue_depth = args.opt_parse_nonzero("queue-depth", kq_pipeline::DEFAULT_QUEUE_DEPTH)?;
    let honor = !args.flag("no-opt");
    // --spill-mb turns on bounded-memory barrier folds: sorted runs past
    // the budget go to temp files and come back memory-mapped for the
    // final merge. Off by default — spilling trades disk I/O for resident
    // memory. --spill-dir overrides the run-file directory (default: the
    // system temp dir) but does not by itself enable spilling.
    let spill = match args.opt("spill-mb") {
        None => None,
        Some(_) => Some(kq_dsl::SpillPolicy {
            budget_bytes: args.opt_parse_bytes("spill-mb", 1, 1 << 20)?,
            dir: args.opt("spill-dir").map(std::path::PathBuf::from),
        }),
    };
    // The trace session wraps planning, the serial oracle, and the
    // parallel run.
    let tracing = Tracing::start(args);
    let planned = plan_from_args(args)?;
    // The serial oracle gathers the whole input and output on the heap —
    // exactly what an out-of-core run cannot afford. --no-verify skips it
    // (the differential suite pins executor equivalence corpus-wide).
    let serial = if args.flag("no-verify") {
        None
    } else {
        Some(run_serial(&planned.script, &planned.ctx).map_err(|e| e.to_string())?)
    };
    // Stdout stays the segments the run produced (see `CliOutput::stdout`).
    let opts = kq_pipeline::DataflowOptions {
        workers,
        chunk: kq_pipeline::ChunkSizing::Fixed(chunk_bytes),
        queue: kq_pipeline::QueueCredit::Fixed(queue_depth),
        fuse_streamable: honor,
        spill,
    };
    let (output, timings) =
        kq_pipeline::run_dataflow_segments(&planned.script, &planned.plan, &planned.ctx, &opts)
            .map_err(|e| e.to_string())?;
    let mut notes = planned.notes;
    // Under --no-opt the graph runs the plan stage by stage.
    if honor {
        notes.extend(crate::report::render_rewrite_notes(
            &planned.script,
            &planned.plan,
        ));
    }
    if let Some(serial) = &serial {
        if !output.eq_bytes(serial.output.as_bytes()) {
            return Err("parallel output diverged from serial output (combiner bug)".into());
        }
    }
    notes.extend(crate::report::render_run_notes(
        workers,
        planned.script.statements.len(),
        &planned.plan,
        &timings,
        serial.is_some(),
    ));
    tracing.finish(&mut notes)?;
    Ok(CliOutput {
        stdout: output,
        notes,
        exit_code: 0,
    })
}

/// The `--trace-out FILE` / `--metrics` session of one invocation, shared
/// by every subcommand that records (`run`, `corpus --plan`): --trace-out
/// captures every layer's spans, --metrics aggregates them into the
/// end-of-run metrics block. Off by default — with neither flag no session
/// starts and the recorder stays a relaxed-load no-op.
struct Tracing {
    session: Option<kq_trace::TraceSession>,
    trace_out: Option<String>,
    want_metrics: bool,
}

impl Tracing {
    fn start(args: &ParsedArgs) -> Tracing {
        let trace_out = args.opt("trace-out").map(str::to_owned);
        let want_metrics = args.flag("metrics");
        Tracing {
            session: (trace_out.is_some() || want_metrics).then(kq_trace::TraceSession::start),
            trace_out,
            want_metrics,
        }
    }

    /// Ends the session, writes the trace files and appends the notes.
    fn finish(self, notes: &mut Vec<String>) -> Result<(), String> {
        let Some(session) = self.session else {
            return Ok(());
        };
        let records = session.finish();
        if let Some(path) = &self.trace_out {
            notes.extend(write_trace_files(path, &records)?);
        }
        if self.want_metrics {
            notes.extend(kq_trace::report::render_metrics(&records));
        }
        Ok(())
    }
}

/// Writes the two `--trace-out` artifacts: the JSONL record stream at
/// `path` and a Chrome `trace_event` file (loadable in Perfetto or
/// `chrome://tracing`) next to it with a `.chrome.json` suffix.
fn write_trace_files(path: &str, records: &[kq_trace::Record]) -> Result<Vec<String>, String> {
    let mut jsonl = Vec::new();
    kq_trace::write_jsonl(records, &mut jsonl).map_err(|e| format!("{path}: {e}"))?;
    std::fs::write(path, jsonl).map_err(|e| format!("{path}: {e}"))?;
    let chrome_path = match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.chrome.json"),
        None => format!("{path}.chrome.json"),
    };
    let mut chrome = Vec::new();
    kq_trace::write_chrome_trace(records, &mut chrome)
        .map_err(|e| format!("{chrome_path}: {e}"))?;
    std::fs::write(&chrome_path, chrome).map_err(|e| format!("{chrome_path}: {e}"))?;
    Ok(vec![format!(
        "trace: {} record(s) written to {path} (JSONL) and {chrome_path} (Chrome trace_event; \
         open in Perfetto or chrome://tracing)",
        records.len()
    )])
}

/// `kumquat trace report FILE [--top N]`: parse a `--trace-out` JSONL
/// file, compute per-node busy time and the critical path through the
/// dataflow graph, and print the bottleneck summary.
fn cmd_trace(args: &ParsedArgs) -> Result<CliOutput, String> {
    let top = args.opt_parse_nonzero("top", 5)?;
    match args.positional.as_slice() {
        [action, file] if action == "report" => {
            let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
            let records = kq_trace::parse_jsonl(&text).map_err(|e| format!("{file}: {e}"))?;
            let analysis = kq_trace::report::analyze(&records);
            Ok(CliOutput::from_stdout(kq_trace::report::render_report(
                &analysis, top,
            )))
        }
        _ => Err("trace expects: trace report FILE [--top N]".into()),
    }
}

fn cmd_emit(args: &ParsedArgs) -> Result<CliOutput, String> {
    let workers = args.opt_parse_nonzero("workers", 16)?;
    let opts = EmitOptions {
        workers,
        honor_elimination: !args.flag("no-opt"),
    };
    let planned = plan_from_args(args)?;
    let emitted = emit_script(&planned.script, &planned.plan, &opts);
    let mut notes = planned.notes;
    for (si, stage, combiner) in &emitted.degraded {
        notes.push(format!(
            "statement {} stage {}: combiner {combiner} has no shell translation; \
             stage emitted sequential",
            si + 1,
            stage + 1
        ));
    }
    if let Some(path) = args.opt("out") {
        std::fs::write(path, &emitted.script).map_err(|e| format!("{path}: {e}"))?;
        notes.push(format!("wrote {path}"));
        Ok(CliOutput::with_notes(String::new(), notes))
    } else {
        Ok(CliOutput::with_notes(emitted.script, notes))
    }
}

fn cmd_corpus(args: &ParsedArgs) -> Result<CliOutput, String> {
    let filter = args.opt("suite");
    if args.flag("plan") {
        return cmd_corpus_plan(args, filter);
    }
    let mut out = String::new();
    let mut shown = 0usize;
    for script in kq_workloads::corpus() {
        let suite = script.suite.dir();
        if filter.is_some_and(|f| f != suite) {
            continue;
        }
        shown += 1;
        let stages: usize = script
            .text
            .lines()
            .map(|l| l.matches('|').count() + usize::from(!l.trim().is_empty()))
            .sum();
        writeln!(
            out,
            "{suite:>14}  {:<12} {:<38} ~{stages} stage(s)",
            script.id, script.name
        )
        .unwrap();
    }
    if shown == 0 {
        return Err(format!(
            "no scripts match --suite {:?} (suites: analytics-mts, oneliners, poets, unix50)",
            filter.unwrap_or("")
        ));
    }
    writeln!(out, "{shown} script(s)").unwrap();
    Ok(CliOutput::from_stdout(out))
}

/// `kumquat corpus --plan`: generate each corpus script's inputs, plan
/// the scripts in one pass of one shared planner (and, with
/// `--combiner-cache`, one shared on-disk store), and report per-command
/// synthesis times plus cache statistics. The trailing "synthesis rounds"
/// line is what CI's warm-cache job asserts reaches zero on the second
/// pass.
fn cmd_corpus_plan(args: &ParsedArgs, filter: Option<&str>) -> Result<CliOutput, String> {
    let tracing = Tracing::start(args);
    let mut notes = Vec::new();
    let mut planner = planner_from_args(args, &mut notes)?;
    let scripts: Vec<_> = kq_workloads::corpus()
        .iter()
        .filter(|script| filter.is_none_or(|f| f == script.suite.dir()))
        .collect();
    if scripts.is_empty() {
        return Err(format!(
            "no scripts match --suite {:?} (suites: analytics-mts, oneliners, poets, unix50)",
            filter.unwrap_or("")
        ));
    }
    let scale = kq_workloads::Scale::tests();
    let plans = planner.plan_all(
        scripts
            .iter()
            .map(|script| prepare_corpus_script(script, &scale)),
    )?;
    let mut out = String::new();
    for (script, plan) in scripts.iter().zip(&plans) {
        let (k, n) = plan.parallelized_counts();
        writeln!(
            out,
            "{:>14}  {:<16} {k}/{n} stages parallel",
            script.suite.dir(),
            script.id
        )
        .unwrap();
    }
    out.push_str(&render_synthesis_summary(
        &planner.reports,
        planner.cache_stats(),
    ));
    let rounds: usize = planner.reports.iter().map(|r| r.rounds).sum();
    writeln!(
        out,
        "planned {} script(s); synthesis rounds: {rounds}; \
         lattice short-circuits: {}",
        plans.len(),
        planner.lattice_short_circuits
    )
    .unwrap();
    finish_planning(&mut planner, &mut notes);
    tracing.finish(&mut notes)?;
    Ok(CliOutput::with_notes(out, notes))
}

/// One corpus script, generated and parsed, with its planning sample.
fn prepare_corpus_script(
    script: &kq_workloads::BenchmarkScript,
    scale: &kq_workloads::Scale,
) -> Result<PreparedScript, String> {
    let name = format!("{}/{}", script.suite.dir(), script.id);
    let ctx = ExecContext::default();
    let env = kq_workloads::setup(script, &ctx, scale, 0xC0FFEE);
    let parsed = parse_script(script.text, &env).map_err(|e| format!("{name}: {e}"))?;
    let sample = corpus_planning_sample(&env, &ctx)
        .ok_or_else(|| format!("{name}: no $IN input generated"))?;
    Ok(PreparedScript {
        script: parsed,
        ctx,
        sample,
    })
}

/// The planning sample for a corpus script: a line-aligned 16 KiB prefix
/// of its generated `$IN` input (the same probe the corpus test suite
/// plans against), sliced out of the input the context holds — no copy.
fn corpus_planning_sample(env: &HashMap<String, String>, ctx: &ExecContext) -> Option<Bytes> {
    let input = ctx.vfs.read_bytes(env.get("IN")?)?;
    let cut = kq_workloads::planning_sample(input.to_str().ok()?, 16_000).len();
    Some(input.slice(0..cut))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(words: &[&str]) -> Result<CliOutput, String> {
        let v: Vec<String> = words.iter().map(|s| (*s).to_owned()).collect();
        run_cli(&v)
    }

    #[test]
    fn synthesize_subcommand_reports_combiner() {
        let out = call(&["synthesize", "wc -l"]).unwrap();
        assert!(out.text().contains("(back '\\n' add)"));
    }

    #[test]
    fn synthesize_external_probes_real_binary() {
        // The paper's actual experimental setup: the black box is the
        // host's real `wc`, spawned per observation. Skip silently when
        // the host has no binaries to spawn.
        if std::process::Command::new("wc")
            .arg("--version")
            .output()
            .is_err()
        {
            eprintln!("skipping: no host wc");
            return;
        }
        let out = call(&["synthesize", "wc -l", "--external"]).unwrap();
        assert!(
            out.text().contains("(back '\\n' add)"),
            "got: {}",
            out.text()
        );
        assert!(out.notes.iter().any(|n| n.contains("real system binary")));
    }

    #[test]
    fn synthesize_rejects_arity() {
        assert!(call(&["synthesize"]).is_err());
        assert!(call(&["synthesize", "wc", "-l"]).is_err());
    }

    #[test]
    fn check_classifies_and_exits_clean_on_a_good_script() {
        let out = call(&["check", "cat /in.txt | grep fox | sort | uniq -c"]).unwrap();
        assert_eq!(out.exit_code, 0);
        assert!(
            out.text().contains("statically stateless"),
            "{}",
            out.text()
        );
        assert!(
            out.text().contains("0 error(s), 0 warning(s)"),
            "{}",
            out.text()
        );
    }

    #[test]
    fn check_reports_hazards_and_honors_deny_warnings() {
        let script = "cat /t.txt | grep a | sort > /t.txt";
        let lenient = call(&["check", script]).unwrap();
        assert_eq!(lenient.exit_code, 0);
        assert!(lenient.text().contains("KQ103"), "{}", lenient.text());
        let strict = call(&["check", script, "--deny-warnings"]).unwrap();
        assert_eq!(strict.exit_code, 1);
    }

    #[test]
    fn check_parse_errors_carry_positions_and_fail() {
        let out = call(&["check", "cat /in.txt | sort >"]).unwrap();
        assert_eq!(out.exit_code, 1);
        assert!(
            out.text().contains("error[KQ001] statement 1, line 1"),
            "{}",
            out.text()
        );
    }

    #[test]
    fn check_json_format_and_bad_format_error() {
        let out = call(&["check", "cat /in.txt | wc -l", "--format", "json"]).unwrap();
        assert!(out.text().starts_with("{\"summary\":"), "{}", out.text());
        assert!(out.text().ends_with("}\n"), "{}", out.text());
        let err = call(&["check", "cat /in.txt | wc -l", "--format", "yaml"]).unwrap_err();
        assert!(err.contains("--format must be"), "{err}");
    }

    #[test]
    fn unknown_subcommand_mentions_usage() {
        let err = call(&["frob"]).unwrap_err();
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn help_prints_usage() {
        let out = call(&["help"]).unwrap();
        assert!(out.text().contains("kumquat synthesize"));
    }

    #[test]
    fn corpus_lists_all_suites() {
        let out = call(&["corpus"]).unwrap();
        assert!(out.text().contains("70 script(s)"), "got: {}", out.text());
        let poets = call(&["corpus", "--suite", "poets"]).unwrap();
        assert!(poets.text().contains("22 script(s)"));
        assert!(call(&["corpus", "--suite", "nope"]).is_err());
    }

    #[test]
    fn inline_script_plan_and_run() {
        let dir = std::env::temp_dir().join(format!("kq-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("words.txt");
        std::fs::write(&input, "b x\na y\nb z\na w\nc q\n".repeat(20)).unwrap();
        let script = format!("cat {} | cut -d ' ' -f 1 | sort | uniq -c", input.display());

        let plan = call(&["plan", &script]).unwrap();
        assert!(plan.text().contains("stages parallelized"));

        let run = call(&["run", &script, "--workers", "3"]).unwrap();
        assert!(run.text().contains(" a\n"), "got: {}", run.text());
        assert!(
            run.notes.iter().any(|n| n.contains("verified")),
            "notes: {:?}",
            run.notes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn removed_executors_are_rejected_before_anything_runs() {
        // The script names no file: the check comes first, whether the
        // option is spelled with a value, with `=`, or as the old alias,
        // and whichever subcommand it is given to.
        for (subcommand, words) in [
            ("run", &["--exec", "streaming"][..]),
            ("run", &["--exec=dataflow"]),
            ("run", &["--executor", "static"]),
            ("plan", &["--exec=dataflow"]),
            ("check", &["--executor=dataflow"]),
            ("emit", &["--exec", "streaming"]),
        ] {
            let mut args = vec![subcommand, "cat /absent | sort"];
            args.extend_from_slice(words);
            let err = call(&args).unwrap_err();
            let name = if words[0].starts_with("--executor") {
                "executor"
            } else {
                "exec"
            };
            assert_eq!(
                err,
                format!(
                    "--{name} was removed: kumquat has one executor (the dataflow pool; \
                     --no-opt runs its graph without rewrites)"
                ),
                "{words:?}"
            );
        }
    }

    #[test]
    fn run_with_dataflow_executor() {
        let dir = std::env::temp_dir().join(format!("kq-cli-dataflow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("w.txt");
        std::fs::write(&input, "b x\na y\nb z\n".repeat(60)).unwrap();
        // Two statements: the second reads the first's redirect target, so
        // the scheduler must order them; both run on the one shared pool.
        let script = format!(
            "cat {inp} | cut -d ' ' -f 1 | sort > {tmp}\ncat {tmp} | uniq -c | sort -rn",
            inp = input.display(),
            tmp = dir.join("sorted.txt").display()
        );
        let run = call(&[
            "run",
            &script,
            "--workers",
            "2",
            "--chunk-kb",
            "1",
            "--queue-depth",
            "2",
        ])
        .unwrap();
        assert!(run.text().contains(" b\n"), "got: {}", run.text());
        assert!(
            run.notes
                .iter()
                .any(|n| n
                    .contains("2 statement(s) share one work-stealing pool of 2 worker thread(s)")),
            "notes: {:?}",
            run.notes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataflow_head_pipeline_reports_early_exit() {
        let dir = std::env::temp_dir().join(format!("kq-cli-dfearly-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("w.txt");
        std::fs::write(&input, "b x\na y\nb z\nc w\n".repeat(4000)).unwrap();
        let script = format!("cat {} | grep b | head -n 1", input.display());
        let run = call(&["run", &script, "--chunk-kb", "1", "--workers", "2"]).unwrap();
        assert_eq!(run.text(), "b x\n");
        assert!(
            run.notes
                .iter()
                .any(|n| n.starts_with("early-exit:") && n.contains("head -n 1")),
            "notes: {:?}",
            run.notes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn graph_rewrites_are_reported_where_they_are_built() {
        let dir = std::env::temp_dir().join(format!("kq-cli-foldpair-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("w.txt");
        std::fs::write(&input, "b x\na y\nb z\n".repeat(400)).unwrap();
        let script = format!(
            "cat {inp} | cut -d ' ' -f 1 | sort | uniq -c | sort -rn\n\
             cat {inp} | cut -d ' ' -f 2 | sort -r | uniq\n\
             cat {inp} | tr -s ' ' '\\n' | sort -u",
            inp = input.display()
        );
        let expect = "    800 b\n    400 a\nz\ny\nx\na\nb\nx\ny\nz\n";
        let notes = [
            "counting fold: s1 stages 2-4 'sort | uniq -c | sort -rn' (count order)",
            "unique fold: s2 stages 2-3 'sort -r | uniq'",
            "sorting fold: s2 stage 2 'sort -r'",
            "seam: s3 stage 1 'tr -s ' ' '\\n'' runs chunk-local",
            "sorting fold: s3 stage 2 'sort -u'",
        ];
        let has_notes = |out: &CliOutput| notes.map(|n| out.notes.iter().any(|have| have == n));
        // The plan says what it records; a dataflow run says what it ran.
        assert_eq!(has_notes(&call(&["plan", &script]).unwrap()), [true; 5]);
        let run = call(&["run", &script, "--workers", "2", "--chunk-kb", "1"]).unwrap();
        assert_eq!(run.text(), expect);
        assert_eq!(has_notes(&run), [true; 5]);
        // The sort of the counting pair keeps its counting map, and the
        // sort after the pair is the counting fold's close, no fold of its
        // own.
        for folded in [
            "sorting fold: s1 stage 2 'sort'",
            "sorting fold: s1 stage 4 'sort -rn'",
        ] {
            assert!(!run.notes.iter().any(|n| n == folded), "{folded}");
        }
        // --no-opt runs stage by stage.
        let run = call(&[
            "run",
            &script,
            "--workers",
            "2",
            "--chunk-kb",
            "1",
            "--no-opt",
        ])
        .unwrap();
        assert_eq!(run.text(), expect);
        assert_eq!(has_notes(&run), [false; 5]);
        // `check` names the same sites without planning anything.
        let check = call(&["check", &script]).unwrap();
        for note in notes {
            assert!(check.text().contains(note), "{}", check.text());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataflow_is_the_default_executor() {
        let dir = std::env::temp_dir().join(format!("kq-cli-dfdefault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("w.txt");
        std::fs::write(&input, "b x\na y\nb z\n".repeat(40)).unwrap();
        let script = format!("cat {} | cut -d ' ' -f 1 | sort | uniq -c", input.display());
        let run = call(&["run", &script, "--workers", "2"]).unwrap();
        assert!(run.text().contains(" b\n"), "got: {}", run.text());
        assert!(
            run.notes.iter().any(|n| n.contains("work-stealing pool")
                && n.contains("verified: dataflow")
                || n.contains("verified: dataflow")),
            "default run must report the dataflow executor: {:?}",
            run.notes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn workers_default_to_the_cores_the_host_offers() {
        let dir = std::env::temp_dir().join(format!("kq-cli-workers-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("w.txt");
        std::fs::write(&input, "b x\na y\nb z\n".repeat(40)).unwrap();
        let script = format!("cat {} | sort | uniq -c", input.display());
        let cores = std::thread::available_parallelism().unwrap().get();
        let pool = |notes: &[String]| {
            let note = notes.iter().find(|n| n.contains("work-stealing pool"));
            note.expect("the dataflow run reports its pool").clone()
        };
        let run = call(&["run", &script]).unwrap();
        let expect = format!("pool of {cores} worker thread(s)");
        assert!(pool(&run.notes).ends_with(&expect), "{:?}", run.notes);
        // The flag still decides when given.
        let run = call(&["run", &script, "--workers", "3"]).unwrap();
        assert!(pool(&run.notes).ends_with("pool of 3 worker thread(s)"));
        assert!(USAGE.contains("number of cores available"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_run_writes_stdout_from_its_segments() {
        // Two statements print: stdout is their two buffers, in order,
        // and `text()` is the gathered form.
        let dir = std::env::temp_dir().join(format!("kq-cli-segments-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("w.txt");
        std::fs::write(&input, "b\na\nc\n").unwrap();
        let script = format!(
            "cat {inp} | sort\ncat {inp} | sort -r",
            inp = input.display()
        );
        let run = call(&["run", &script, "--workers", "2"]).unwrap();
        assert_eq!(run.stdout.segment_count(), 2);
        assert_eq!(run.text(), "a\nb\nc\nc\nb\na\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queue_depth_auto_is_rejected() {
        let err = call(&["run", "cat x | sort", "--queue-depth", "auto"]).unwrap_err();
        assert_eq!(
            err,
            "--queue-depth must be a positive integer, got \"auto\""
        );
    }

    #[test]
    fn run_rejects_zero_workers() {
        assert!(call(&["run", "cat x | sort", "--workers", "0"]).is_err());
    }

    #[test]
    fn run_rejects_bad_numeric_options() {
        let s = "cat x | sort";
        let err = call(&["run", s, "--queue-depth", "0"]).unwrap_err();
        assert!(err.contains("--queue-depth must be at least 1"), "{err}");
        let err = call(&["run", s, "--chunk-kb", "0"]).unwrap_err();
        assert!(err.contains("--chunk-kb must be at least 1"), "{err}");
        let err = call(&["run", s, "--queue-depth", "deep"]).unwrap_err();
        assert!(
            err.contains("--queue-depth must be a positive integer"),
            "{err}"
        );
        let err = call(&["run", s, "--chunk-kb", "wide"]).unwrap_err();
        assert!(
            err.contains("--chunk-kb must be a positive integer"),
            "{err}"
        );
        // Counts whose byte size overflows a usize: no wrap to 0 bytes.
        for (flag, count) in [
            ("--chunk-kb", "18014398509481984"),
            ("--spill-mb", "17592186044416"),
        ] {
            let err = call(&["run", s, flag, count]).unwrap_err();
            assert_eq!(
                err,
                format!("{flag} {count} is too large: the byte count overflows")
            );
        }
    }

    #[test]
    fn run_rejects_bad_mmap_mode() {
        let err = call(&["run", "cat x | sort", "--mmap", "sometimes"]).unwrap_err();
        assert!(err.contains("--mmap"), "{err}");
        assert!(err.contains("'auto', 'on', or 'off'"), "{err}");
    }

    #[test]
    fn run_with_mmap_on_matches_heap_ingest() {
        let dir = std::env::temp_dir().join(format!("kq-cli-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("m.txt");
        std::fs::write(&input, "b x\na y\nb z\nc w\n".repeat(200)).unwrap();
        let script = format!("cat {} | cut -d ' ' -f 1 | sort | uniq -c", input.display());
        let mapped = call(&["run", &script, "--mmap", "on"]).unwrap();
        let heap = call(&["run", &script, "--mmap", "off"]).unwrap();
        assert_eq!(mapped.text(), heap.text(), "backings must be invisible");
        assert!(
            mapped.notes.iter().any(|n| n.contains("mapped")),
            "notes should report the mapping: {:?}",
            mapped.notes
        );
        assert!(
            !heap.notes.iter().any(|n| n.contains("mapped")),
            "--mmap off must not map: {:?}",
            heap.notes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn no_verify_skips_the_serial_oracle() {
        let dir = std::env::temp_dir().join(format!("kq-cli-nv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("n.txt");
        std::fs::write(&input, "b x\na y\n".repeat(50)).unwrap();
        let script = format!("cat {} | cut -d ' ' -f 1 | sort", input.display());
        let verified = call(&["run", &script]).unwrap();
        let unverified = call(&["run", &script, "--no-verify"]).unwrap();
        assert_eq!(verified.text(), unverified.text());
        assert!(unverified.notes.iter().any(|n| n.contains("unverified")));
        assert!(!unverified.notes.iter().any(|n| n.contains("equals serial")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_utf8_host_file_is_attributed() {
        let dir = std::env::temp_dir().join(format!("kq-cli-utf8-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("foreign.txt");
        std::fs::write(&input, [0xff, 0xfe, b'x', b'\n']).unwrap();
        let script = format!("cat {} | sort", input.display());
        // Data files are bytes: a foreign referenced file loads with no
        // error note...
        let out = call(&["plan", &script, "--mmap", "on"]).unwrap();
        let notes = out.notes.join("\n");
        assert!(!notes.contains("not valid UTF-8"), "{notes}");
        // ...and so does a foreign --input.
        let out = call(&[
            "plan",
            "cat /x | sort",
            "--input",
            &input.display().to_string(),
        ])
        .unwrap();
        let notes = out.notes.join("\n");
        assert!(!notes.contains("not valid UTF-8"), "{notes}");
        // The script is text: a foreign script file fails, naming itself.
        let script_file = dir.join("foreign.kq");
        std::fs::write(&script_file, b"cat /x | sed s/\xe9/e/\n").unwrap();
        let err = call(&["plan", &script_file.display().to_string()]).unwrap_err();
        assert!(err.contains("not valid UTF-8"), "{err}");
        assert!(
            err.contains(&script_file.display().to_string()),
            "error must name the file: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_reports_synthesis_times_and_cache_counts() {
        let dir = std::env::temp_dir().join(format!("kq-cli-synthrep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        std::fs::write(&input, "a x\nb y\n".repeat(40)).unwrap();
        let script = format!("cat {} | grep a | wc -l", input.display());
        let out = call(&["plan", &script]).unwrap();
        assert!(
            out.text().contains("command(s) synthesized"),
            "{}",
            out.text()
        );
        // grep is lattice-short-circuited; wc -l is the synthesized one.
        assert!(out.text().contains(" ms  wc -l"), "{}", out.text());
        assert!(
            out.notes
                .iter()
                .any(|n| n.contains("lattice: 1 short-circuit(s)")),
            "{:?}",
            out.notes
        );
        assert!(out.text().contains("combiner cache:"), "{}", out.text());
        assert!(
            out.notes.iter().any(|n| n.contains("synthesis:")),
            "{:?}",
            out.notes
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn combiner_cache_warms_across_invocations() {
        let dir = std::env::temp_dir().join(format!("kq-cli-warm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        std::fs::write(&input, "a x\nb y\na z\n".repeat(40)).unwrap();
        let cache = dir.join("combiners.v1");
        let cache_arg = cache.display().to_string();
        let script = format!("cat {} | grep a | sort | uniq -c", input.display());

        let cold = call(&["plan", &script, "--combiner-cache", &cache_arg]).unwrap();
        // grep short-circuits on the lattice; sort and uniq -c synthesize.
        assert!(
            cold.text().contains("2 command(s) synthesized"),
            "{}",
            cold.text()
        );
        assert!(
            cold.notes
                .iter()
                .any(|n| n.contains("combiner cache written")),
            "{:?}",
            cold.notes
        );
        assert!(cache.is_file());

        // Second process: everything validates out of the store, nothing
        // synthesizes, and the plan is unchanged.
        let warm = call(&["plan", &script, "--combiner-cache", &cache_arg]).unwrap();
        assert!(
            warm.text().contains("0 command(s) synthesized"),
            "{}",
            warm.text()
        );
        assert!(warm.text().contains("(2 validated"), "{}", warm.text());
        let plan_of = |s: &str| {
            s.lines()
                .take_while(|l| !l.starts_with("synthesis:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(plan_of(&cold.text()), plan_of(&warm.text()));

        // A run through the warm cache still verifies against serial.
        let run = call(&["run", &script, "--combiner-cache", &cache_arg]).unwrap();
        assert!(
            run.notes.iter().any(|n| n.contains("verified")),
            "{:?}",
            run.notes
        );

        // A corrupted store is ignored with a warning and re-synthesized.
        std::fs::write(&cache, "garbage\nmore garbage\n").unwrap();
        let poisoned = call(&["plan", &script, "--combiner-cache", &cache_arg]).unwrap();
        assert!(
            poisoned
                .notes
                .iter()
                .any(|n| n.contains("ignoring the file")),
            "{:?}",
            poisoned.notes
        );
        assert!(
            poisoned.text().contains("2 command(s) synthesized"),
            "{}",
            poisoned.text()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corpus_plan_warms_to_zero_rounds() {
        let dir = std::env::temp_dir().join(format!("kq-cli-corpusplan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("combiners.v1");
        let cache_arg = cache.display().to_string();
        let cold = call(&[
            "corpus",
            "--plan",
            "--suite",
            "analytics-mts",
            "--combiner-cache",
            &cache_arg,
        ])
        .unwrap();
        assert!(
            cold.text().contains("planned 4 script(s)"),
            "{}",
            cold.text()
        );
        assert!(
            !cold.text().contains("synthesis rounds: 0"),
            "{}",
            cold.text()
        );
        let warm = call(&[
            "corpus",
            "--plan",
            "--suite",
            "analytics-mts",
            "--combiner-cache",
            &cache_arg,
        ])
        .unwrap();
        assert!(
            warm.text().contains("synthesis rounds: 0"),
            "{}",
            warm.text()
        );
        assert!(
            warm.text().contains("0 command(s) synthesized"),
            "{}",
            warm.text()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn synth_workers_default_to_the_host_core_count() {
        let parse = |words: &[&str]| {
            let v: Vec<String> = words.iter().map(|s| (*s).to_owned()).collect();
            synthesis_config(&ParsedArgs::parse(&v).unwrap())
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(parse(&["plan", "x"]).unwrap().workers, cores);
        assert_eq!(
            parse(&["plan", "x", "--synth-workers", "3"])
                .unwrap()
                .workers,
            3
        );
        let err = parse(&["corpus", "--plan", "--synth-workers", "0"]).unwrap_err();
        assert!(err.contains("--synth-workers must be at least 1"), "{err}");
    }

    #[test]
    fn synth_workers_validate_up_front() {
        let err = call(&["plan", "cat x | sort", "--synth-workers", "0"]).unwrap_err();
        assert!(err.contains("--synth-workers must be at least 1"), "{err}");
    }

    #[test]
    fn every_option_the_usage_names_parses() {
        let names: std::collections::BTreeSet<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .filter(|name| !name.is_empty())
            .collect();
        assert!(names.len() > 20, "{names:?}");
        for name in names {
            let words = ["run".to_owned(), "x".to_owned(), format!("--{name}=1")];
            assert!(ParsedArgs::parse(&words).is_ok(), "--{name}");
        }
    }

    #[test]
    fn missing_script_file_is_an_error() {
        let err = call(&["plan", "/no/such/file.sh"]).unwrap_err();
        assert!(err.contains("no such file"));
    }

    #[test]
    fn emit_writes_script_text() {
        let dir = std::env::temp_dir().join(format!("kq-cli-emit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.txt");
        std::fs::write(&input, "b\na\nc\n".repeat(10)).unwrap();
        let script = format!("cat {} | sort", input.display());
        let out = call(&["emit", &script, "--workers", "2"]).unwrap();
        assert!(out.text().starts_with("#!/bin/sh"));
        assert!(out.text().contains("sort -m"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
