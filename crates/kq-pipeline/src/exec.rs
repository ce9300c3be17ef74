//! The serial oracle and the records every run reports.
//!
//! [`run_serial`] is the paper's measurement infrastructure and the byte
//! oracle of the dataflow executor: every stage runs to completion before
//! the next starts, outputs buffered between stages. Both it and
//! [`crate::scheduler::run_dataflow`] record a [`TimingLog`].

use crate::parse::{InputSource, Script, Statement};
use kq_coreutils::{CmdError, Command, ExecContext};
use kq_stream::{Bytes, Rope};
use std::time::{Duration, Instant};

/// Timing record for one executed stage.
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// The command line.
    pub label: String,
    /// Wall-clock duration of each piece: of the stage under
    /// [`run_serial`] (length 1), of each chunk's map under the dataflow
    /// executor (next to nothing at a node that hands its chunks on raw).
    pub piece_times: Vec<Duration>,
    /// Wall-clock duration of the combine step: zero when eliminated, and
    /// under [`run_serial`]; at a sequential or prefix-bounded stage's
    /// node, the one run of its command.
    pub combine_time: Duration,
    /// Input bytes consumed by the stage.
    pub bytes_in: usize,
    /// Output bytes produced (post-combine for parallel stages).
    pub bytes_out: usize,
    /// Early exit: set when this stage was a prefix-bounded consumer
    /// (`head -n k`, `sed kq`) under the dataflow executor and satisfied
    /// its demand without waiting for end-of-input — it cancelled every
    /// node above it, so upstream work still queued was dropped instead of
    /// draining the rest of the stream. `None` for stages
    /// that read their whole input (every stage of [`run_serial`]). The
    /// CLI reports these as
    /// `early-exit: statement N stage M ... after K chunk(s)`.
    pub early_exit: Option<EarlyExit>,
    /// Queue-stall and occupancy counters of the dataflow executor, which
    /// moves chunks through queues. `None` under [`run_serial`], which
    /// has no inter-stage queues to stall on.
    pub queue: Option<QueueTelemetry>,
    /// Spill activity for barrier folds run under a spill budget
    /// (`--spill-mb`): `None` when no budget was configured for the stage
    /// (including every [`run_serial`] stage); `Some` with zeroed counters
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
/// between stages.
///
/// The dataflow scheduler never blocks a worker thread on a queue, so the
/// stalls are the wall-clock intervals during which the node *wanted* to
/// make progress but could not — gated
/// on a full downstream edge (`send_stall`) or starved on an empty input
/// edge (`recv_stall`) — measured from the moment a task observed the
/// condition to the moment a later task found it cleared.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueTelemetry {
    /// Time the node spent unable to forward output: gated on a full
    /// downstream edge.
    pub send_stall: Duration,
    /// Time the node spent waiting for input: starved on an empty input
    /// edge.
    pub recv_stall: Duration,
    /// High-water mark of chunks queued at this node: the input-edge
    /// length observed when a task claimed a chunk.
    pub max_queued: usize,
    /// Scheduler tasks executed for this node — the denominator for the
    /// stall averages.
    pub tasks: usize,
    /// Chunks this node's map handed its fold raw: every chunk of a
    /// sorting fold (sorted there in a batch), of a sequential or
    /// prefix-bounded stage (which its `rerun` fold runs the command over
    /// once), and the chunks a counting fold's hash table gave up on. Zero
    /// at every other node; the trace reports it at counting and sorting
    /// folds.
    pub raw_pieces: usize,
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

/// Per-statement stage timings for a whole script run.
#[derive(Debug, Clone, Default)]
pub struct TimingLog {
    /// One vector of stage timings per statement.
    pub statements: Vec<Vec<StageTiming>>,
}

/// The product of a script execution.
#[derive(Debug)]
pub struct ExecutionResult {
    /// Concatenated stdout of all non-redirected statements, as a shared
    /// byte slice (single-statement scripts hand their final stream
    /// through without copying).
    pub output: Bytes,
    /// Measured per-stage timings.
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

/// Runs `chain` (a fused run of chunk-local commands) over one chunk. The
/// chunk enters the first command as the refcounted slice itself — no
/// per-chunk copy. What the dataflow scheduler's map tasks run.
pub(crate) fn run_chain(
    chain: &[&Command],
    chunk: Bytes,
    ctx: &ExecContext,
) -> Result<Bytes, CmdError> {
    let mut cur = chunk;
    for cmd in chain {
        cur = cmd.run(cur, ctx)?;
    }
    Ok(cur)
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
                piece_times: vec![elapsed],
                combine_time: Duration::ZERO,
                bytes_in,
                bytes_out: out.len(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_script;
    use std::collections::HashMap;

    #[test]
    fn missing_input_file_is_an_error() {
        let script = parse_script("cat /absent | sort", &HashMap::new()).unwrap();
        let ctx = ExecContext::default();
        assert!(run_serial(&script, &ctx).is_err());
    }
}
