//! Script executors.
//!
//! * [`run_serial`] — the paper's measurement infrastructure: every stage
//!   runs to completion before the next starts, outputs buffered between
//!   stages.
//! * [`run_parallel`] — KumQuat's generated data-parallel pipeline: each
//!   parallel stage splits its input into `w` line-aligned substreams, runs
//!   `w` command instances on real threads, and combines the outputs with
//!   the synthesized combiner — unless the combiner was eliminated
//!   (Theorem 5), in which case the substreams flow to the next stage.
//!
//! Both executors record a [`TimingLog`] of per-piece wall-clock durations;
//! the [`crate::sim`] scheduler replays those measurements on virtual
//! workers to produce the performance-table numbers.

use crate::parse::{InputSource, Script, Statement};
use crate::plan::{PlannedScript, StageMode};
use kq_coreutils::{CmdError, ExecContext};
use kq_dsl::eval::CommandEnv;
use kq_stream::{Bytes, Rope};
use std::time::{Duration, Instant};

/// Timing record for one executed stage.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// The command line.
    pub label: String,
    /// Whether the stage ran data-parallel.
    pub parallel: bool,
    /// Whether its combiner was eliminated (output stayed split).
    pub eliminated: bool,
    /// Wall-clock duration of each piece (length 1 for sequential stages).
    pub piece_times: Vec<Duration>,
    /// Wall-clock duration of the combine step (zero when eliminated or
    /// sequential).
    pub combine_time: Duration,
    /// Input bytes consumed by the stage.
    pub bytes_in: usize,
    /// Output bytes produced (post-combine for parallel stages).
    pub bytes_out: usize,
    /// Total piece output bytes *before* combining (equals `bytes_out`
    /// for sequential stages; the distributed cost model uses the
    /// difference as the combiner's shrink).
    pub bytes_out_pieces: usize,
    /// Early exit: set when this stage was a prefix-bounded consumer
    /// (`head -n k`, `sed kq`) under the streaming executor and satisfied
    /// its demand without waiting for end-of-input — it released its
    /// receiver (the demand token), so any upstream producer still running
    /// unwound without draining the rest of the stream. `None` for stages
    /// that read their whole input (every stage under the other
    /// executors). The CLI reports these as
    /// `early-exit: statement N stage M ... after K chunk(s)`.
    pub early_exit: Option<EarlyExit>,
    /// Queue-stall and occupancy counters for executors that move chunks
    /// through queues (streaming, dataflow). `None` under the batch
    /// executors, which have no inter-stage queues to stall on.
    pub queue: Option<QueueTelemetry>,
    /// Spill activity for barrier folds run under a spill budget
    /// (`--spill-mb`): `None` when no budget was configured for the stage
    /// (including every batch-executor stage); `Some` with zeroed counters
    /// when a budget was set but never crossed.
    pub spill: Option<SpillTelemetry>,
}

/// Out-of-core fold counters — a snapshot of [`kq_dsl::SpillMetrics`]
/// taken after the stage settles. The CLI prints a `spill:` note per
/// stage whose `runs_spilled` is non-zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillTelemetry {
    /// Temp files written: sorted runs still to be merged, plus the files
    /// of the streamed final merge ([`merge_parts`](Self::merge_parts) of
    /// them).
    pub runs_spilled: u64,
    /// Total bytes written to spill files.
    pub bytes_written: u64,
    /// Total bytes mapped back for merging.
    pub bytes_mapped: u64,
    /// How many of the files are parts of the fold's merged output — one
    /// per part of a closing merge that ran in parts, one otherwise — not
    /// runs.
    pub merge_parts: u64,
}

impl SpillTelemetry {
    /// Snapshot of a stage's live spill counters.
    pub fn from_metrics(metrics: &kq_dsl::SpillMetrics) -> SpillTelemetry {
        let (runs_spilled, bytes_written, bytes_mapped) = metrics.snapshot();
        SpillTelemetry {
            runs_spilled,
            bytes_written,
            bytes_mapped,
            merge_parts: metrics.merge_parts(),
        }
    }
}

/// Per-node queue telemetry — the measurable cost of moving chunks
/// between stages, feeding the future adaptive-tuning plane.
///
/// Under the streaming executor the stalls are literal blocking time in
/// channel `send`/`recv`; under the dataflow scheduler (which never
/// blocks a worker thread on a queue) they are the wall-clock intervals
/// during which the node *wanted* to make progress but could not — gated
/// on a full downstream edge (`send_stall`) or starved on an empty input
/// edge (`recv_stall`) — measured from the moment a task observed the
/// condition to the moment a later task found it cleared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueTelemetry {
    /// Time the node spent unable to forward output: blocked in a channel
    /// `send` (streaming) or gated on a full downstream edge (dataflow).
    pub send_stall: Duration,
    /// Time the node spent waiting for input: blocked in a channel `recv`
    /// (streaming) or starved on an empty input edge (dataflow).
    pub recv_stall: Duration,
    /// High-water mark of chunks queued at this node: the input-edge
    /// length observed when a task claimed a chunk (dataflow), or the
    /// bounded-channel occupancy observed at each send/recv (streaming).
    pub max_queued: usize,
    /// Scheduler tasks executed for this node (dataflow), or chunks
    /// received (streaming) — the denominator for the stall averages.
    pub tasks: usize,
}

/// The record behind [`StageTiming::early_exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EarlyExit {
    /// Index of the bounded stage within its statement (pipeline
    /// position, not the segment-timing position — chunk-local stages
    /// fuse, so the two can differ).
    pub stage: usize,
    /// Input chunks consumed before the demand was met.
    pub chunks: usize,
}

impl StageTiming {
    /// Total serial work in the stage (sum of pieces plus combine).
    pub fn total_work(&self) -> Duration {
        self.piece_times.iter().sum::<Duration>() + self.combine_time
    }
}

/// What the dataflow executor's closed-loop tuning layer actually did
/// during a run (`--chunk-kb auto`, `--queue-depth auto`): the run-level
/// summary behind the CLI's `adaptive:` report line. Per-decision detail
/// (every chunk-target growth, every credit shift) is emitted as
/// `adaptive` kq-trace instants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveTelemetry {
    /// Chunk sizing ran in auto mode (input-size heuristic + online
    /// coarsening of barrier-feeding producers).
    pub auto_chunk: bool,
    /// Smallest initial chunk target the input-size heuristic chose for
    /// any statement (0 when no statement started).
    pub initial_chunk_bytes: usize,
    /// Largest chunk target any producer coarsened to.
    pub max_chunk_bytes: usize,
    /// Queue credit ran in auto mode (controller shifts credit from
    /// starved edges to gated ones).
    pub rebalanced: bool,
    /// Credit moves the controller performed.
    pub credit_shifts: u64,
}

/// Per-statement stage timings for a whole script run.
#[derive(Debug, Clone, Default)]
pub struct TimingLog {
    /// One vector of stage timings per statement.
    pub statements: Vec<Vec<StageTiming>>,
    /// Closed-loop tuning summary — `Some` only for dataflow runs with at
    /// least one `auto` knob active.
    pub adaptive: Option<AdaptiveTelemetry>,
}

/// The product of a script execution.
#[derive(Debug)]
pub struct ExecutionResult {
    /// Concatenated stdout of all non-redirected statements, as a shared
    /// byte slice (single-statement scripts hand their final stream
    /// through without copying).
    pub output: Bytes,
    /// Measured timings for the scheduler.
    pub timings: TimingLog,
}

/// Gathers a statement's input as shared bytes: a single input file is a
/// refcount bump on the VFS entry; multiple files gather through a
/// [`Rope`] with one memcpy total.
pub(crate) fn gather_input(statement: &Statement, ctx: &ExecContext) -> Result<Bytes, CmdError> {
    gather_files(&statement.input, ctx)
}

pub(crate) fn gather_files(input: &InputSource, ctx: &ExecContext) -> Result<Bytes, CmdError> {
    match input {
        InputSource::None => Ok(Bytes::new()),
        InputSource::Files(files) => {
            let mut rope = Rope::new();
            for f in files {
                match ctx.vfs.read_bytes(f) {
                    Some(content) => rope.push(content),
                    None => {
                        return Err(CmdError::new(
                            "cat",
                            format!("{f}: No such file or directory"),
                        ))
                    }
                }
            }
            Ok(rope.into_bytes())
        }
    }
}

/// Runs a script serially, stage to completion (the `u1` configuration and
/// the baseline for output-correctness checks).
pub fn run_serial(script: &Script, ctx: &ExecContext) -> Result<ExecutionResult, CmdError> {
    let mut output = Rope::new();
    let mut timings = TimingLog::default();
    for (si, statement) in script.statements.iter().enumerate() {
        let mut stream = gather_input(statement, ctx)?;
        let mut stage_timings = Vec::with_capacity(statement.stages.len());
        for (stage_idx, stage) in statement.stages.iter().enumerate() {
            let bytes_in = stream.len();
            let span = kq_trace::span("serial", "stage")
                .si(si)
                .ni(stage_idx)
                .label(stage.command.display())
                .v(bytes_in as f64);
            let t0 = Instant::now();
            let out = stage.command.run(stream, ctx)?;
            let elapsed = t0.elapsed();
            span.done();
            stage_timings.push(StageTiming {
                label: stage.command.display(),
                parallel: false,
                eliminated: false,
                piece_times: vec![elapsed],
                combine_time: Duration::ZERO,
                bytes_in,
                bytes_out: out.len(),
                bytes_out_pieces: out.len(),
                early_exit: None,
                queue: None,
                spill: None,
            });
            stream = out;
        }
        timings.statements.push(stage_timings);
        match &statement.output {
            // Redirection stores the shared slice — no copy.
            Some(target) => ctx.vfs.write(target.clone(), stream),
            None => output.push(stream),
        }
    }
    Ok(ExecutionResult {
        output: output.into_bytes(),
        timings,
    })
}

/// The stream state between stages of a parallel execution: either one
/// contiguous stream or the substream vector an eliminated combiner
/// forwarded (both refcounted; moving the state never copies payload).
enum State {
    Single(Bytes),
    Split(Vec<Bytes>),
}

/// Runs a planned script with `workers`-way data parallelism on real
/// threads.
///
/// `honor_elimination` selects the optimized pipeline (Theorem 5 applied)
/// versus the unoptimized one that combines after every parallel stage —
/// the paper's `T` versus `u` configurations.
///
/// Piece durations in the returned log are wall-clock times of genuinely
/// concurrent threads: on an oversubscribed host they include contention.
/// Use [`run_parallel_measured`] when the log feeds the [`crate::sim`]
/// scheduler.
pub fn run_parallel(
    script: &Script,
    plan: &PlannedScript,
    ctx: &ExecContext,
    workers: usize,
    honor_elimination: bool,
) -> Result<ExecutionResult, CmdError> {
    run_parallel_inner(script, plan, ctx, workers, honor_elimination, true)
}

/// Like [`run_parallel`], but executes the pieces of each parallel stage
/// one at a time so every recorded piece duration is that piece's own
/// cost. This is the measurement mode behind the performance tables: the
/// virtual scheduler in [`crate::sim`] replays these unbiased durations on
/// `w` virtual workers, which is the honest way to report parallel wall
/// clock from a host with fewer cores than the paper's 80 (see DESIGN.md).
pub fn run_parallel_measured(
    script: &Script,
    plan: &PlannedScript,
    ctx: &ExecContext,
    workers: usize,
    honor_elimination: bool,
) -> Result<ExecutionResult, CmdError> {
    run_parallel_inner(script, plan, ctx, workers, honor_elimination, false)
}

fn run_parallel_inner(
    script: &Script,
    plan: &PlannedScript,
    ctx: &ExecContext,
    workers: usize,
    honor_elimination: bool,
    use_threads: bool,
) -> Result<ExecutionResult, CmdError> {
    assert!(workers >= 1, "need at least one worker");
    let mut output = Rope::new();
    let mut timings = TimingLog::default();
    for (si, (statement, planned)) in script.statements.iter().zip(&plan.statements).enumerate() {
        let mut state = State::Single(gather_input(statement, ctx)?);
        let mut stage_timings = Vec::with_capacity(statement.stages.len());
        for (stage_idx, (stage, planned_stage)) in
            statement.stages.iter().zip(&planned.stages).enumerate()
        {
            let cmd = &stage.command;
            match &planned_stage.mode {
                StageMode::Sequential => {
                    let input = match state {
                        State::Single(s) => s,
                        State::Split(_) => {
                            unreachable!("planner never feeds split streams to a sequential stage")
                        }
                    };
                    let bytes_in = input.len();
                    let span = kq_trace::span("static", "stage")
                        .si(si)
                        .ni(stage_idx)
                        .label(cmd.display())
                        .v(bytes_in as f64);
                    let t0 = Instant::now();
                    let out = cmd.run(input, ctx)?;
                    span.done();
                    stage_timings.push(StageTiming {
                        label: cmd.display(),
                        parallel: false,
                        eliminated: false,
                        piece_times: vec![t0.elapsed()],
                        combine_time: Duration::ZERO,
                        bytes_in,
                        bytes_out: out.len(),
                        bytes_out_pieces: out.len(),
                        early_exit: None,
                        queue: None,
                        spill: None,
                    });
                    state = State::Single(out);
                }
                StageMode::Parallel {
                    combiner,
                    eliminated,
                } => {
                    // Zero-copy piece setup: a contiguous stream splits
                    // into O(workers) refcounted slices; an already-split
                    // state (eliminated upstream combiner) is forwarded
                    // as-is.
                    let pieces: Vec<Bytes> = match state {
                        State::Single(s) => s.split_stream(workers),
                        State::Split(p) => p,
                    };
                    let bytes_in: usize = pieces.iter().map(Bytes::len).sum();
                    // Run one command instance per piece: on real threads
                    // (correctness mode) or one at a time (measured mode).
                    // Threads receive their piece as a refcount bump.
                    let mut results: Vec<Result<(Bytes, Duration), CmdError>> =
                        Vec::with_capacity(pieces.len());
                    if use_threads {
                        let trace = kq_trace::current();
                        std::thread::scope(|scope| {
                            let handles: Vec<_> = pieces
                                .iter()
                                .enumerate()
                                .map(|(pi, piece)| {
                                    let piece = piece.clone();
                                    scope.spawn(move || {
                                        let _trace = trace.attach();
                                        let span = kq_trace::span("static", "piece")
                                            .si(si)
                                            .ni(stage_idx)
                                            .seq(pi)
                                            .v(piece.len() as f64);
                                        let t0 = Instant::now();
                                        let out = cmd.run(piece, ctx)?;
                                        span.done();
                                        Ok((out, t0.elapsed()))
                                    })
                                })
                                .collect();
                            for h in handles {
                                results.push(h.join().expect("worker thread panicked"));
                            }
                        });
                    } else {
                        for (pi, piece) in pieces.iter().enumerate() {
                            let span = kq_trace::span("static", "piece")
                                .si(si)
                                .ni(stage_idx)
                                .seq(pi)
                                .v(piece.len() as f64);
                            let t0 = Instant::now();
                            results
                                .push(cmd.run(piece.clone(), ctx).map(|out| (out, t0.elapsed())));
                            span.done();
                        }
                    }
                    let mut outputs = Vec::with_capacity(results.len());
                    let mut piece_times = Vec::with_capacity(results.len());
                    for r in results {
                        let (out, d) = r?;
                        outputs.push(out);
                        piece_times.push(d);
                    }
                    let bytes_out_pieces: usize = outputs.iter().map(Bytes::len).sum();
                    let eliminate_now = *eliminated && honor_elimination;
                    if eliminate_now {
                        // Theorem 5: the substream vector flows to the
                        // next stage with zero copies.
                        stage_timings.push(StageTiming {
                            label: cmd.display(),
                            parallel: true,
                            eliminated: true,
                            piece_times,
                            combine_time: Duration::ZERO,
                            bytes_in,
                            bytes_out: bytes_out_pieces,
                            bytes_out_pieces,
                            early_exit: None,
                            queue: None,
                            spill: None,
                        });
                        state = State::Split(outputs);
                    } else {
                        let env = CommandEnv { command: cmd, ctx };
                        let span = kq_trace::span("static", "combine")
                            .si(si)
                            .ni(stage_idx)
                            .label(cmd.display());
                        let t0 = Instant::now();
                        let combined = combiner
                            .combine_all(&outputs, &env)
                            .map_err(|e| CmdError::new(cmd.display(), e.to_string()))?;
                        let combine_time = t0.elapsed();
                        span.done();
                        stage_timings.push(StageTiming {
                            label: cmd.display(),
                            parallel: true,
                            eliminated: false,
                            piece_times,
                            combine_time,
                            bytes_in,
                            bytes_out: combined.len(),
                            bytes_out_pieces,
                            early_exit: None,
                            queue: None,
                            spill: None,
                        });
                        state = State::Single(combined);
                    }
                }
            }
        }
        let final_stream = match state {
            State::Single(s) => s,
            // The planner never eliminates the final combiner, but a
            // statement can *end* split if it had zero stages.
            State::Split(pieces) => kq_stream::concat_bytes(&pieces),
        };
        timings.statements.push(stage_timings);
        match &statement.output {
            // Redirection stores the shared slice — no copy.
            Some(target) => ctx.vfs.write(target.clone(), final_stream),
            None => output.push(final_stream),
        }
    }
    Ok(ExecutionResult {
        output: output.into_bytes(),
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_script;
    use crate::plan::Planner;
    use kq_synth::SynthesisConfig;
    use std::collections::HashMap;

    fn make_input() -> String {
        let words = ["apple", "dog", "cat", "apple", "bird", "cat", "fox"];
        let mut s = String::new();
        for i in 0..300 {
            s.push_str(&format!(
                "{} {} line {}\n",
                words[i % words.len()],
                words[(i * 3 + 1) % words.len()],
                i % 11
            ));
        }
        s
    }

    fn check_parallel_matches_serial(script_text: &str) {
        let env: HashMap<String, String> = [("IN".to_owned(), "/in.txt".to_owned())].into();
        let script = parse_script(script_text, &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", make_input());
        let serial = run_serial(&script, &ctx).unwrap();
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &make_input());
        for workers in [1, 2, 3, 5, 8] {
            for honor in [false, true] {
                let par = run_parallel(&script, &plan, &ctx, workers, honor).unwrap();
                assert_eq!(
                    par.output, serial.output,
                    "script {script_text:?} differs at w={workers} honor={honor}"
                );
            }
        }
    }

    #[test]
    fn word_frequency_parallel_matches_serial() {
        check_parallel_matches_serial(
            "cat $IN | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn",
        );
    }

    #[test]
    fn grep_count_parallel_matches_serial() {
        check_parallel_matches_serial("cat $IN | grep apple | wc -l");
    }

    #[test]
    fn uniq_boundaries_parallel_matches_serial() {
        check_parallel_matches_serial("cat $IN | sort | uniq");
        check_parallel_matches_serial("cat $IN | sort | uniq -c");
    }

    #[test]
    fn head_rerun_parallel_matches_serial() {
        check_parallel_matches_serial("cat $IN | cut -d ' ' -f 1 | sort -u | head -n 3");
    }

    #[test]
    fn redirect_chain_parallel_matches_serial() {
        check_parallel_matches_serial(
            "cat $IN | cut -d ' ' -f 1 | sort > /tmp1\ncat /tmp1 | uniq -c | sort -rn",
        );
    }

    #[test]
    fn timing_log_structure() {
        let env: HashMap<String, String> = [("IN".to_owned(), "/in.txt".to_owned())].into();
        let script = parse_script("cat $IN | grep apple | wc -l", &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", make_input());
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &make_input());
        let result = run_parallel(&script, &plan, &ctx, 4, true).unwrap();
        let stages = &result.timings.statements[0];
        assert_eq!(stages.len(), 2);
        assert!(stages[0].parallel);
        assert!(stages[0].eliminated); // grep concat feeds wc -l
        assert_eq!(stages[0].piece_times.len(), 4);
        assert!(stages[1].parallel);
        assert!(!stages[1].eliminated);
        assert!(stages[1].bytes_out > 0);
    }

    #[test]
    fn worker_count_larger_than_lines() {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script("cat /tiny | sort", &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/tiny", "b\na\n");
        let serial = run_serial(&script, &ctx).unwrap();
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, "b\na\n");
        let par = run_parallel(&script, &plan, &ctx, 16, true).unwrap();
        assert_eq!(par.output, serial.output);
    }

    #[test]
    fn missing_input_file_is_an_error() {
        let script = parse_script("cat /absent | sort", &HashMap::new()).unwrap();
        let ctx = ExecContext::default();
        assert!(run_serial(&script, &ctx).is_err());
    }
}
