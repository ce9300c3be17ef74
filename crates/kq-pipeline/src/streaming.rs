//! Bounded-queue streaming executor: chunks flow stage-to-stage before the
//! previous stage finishes.
//!
//! Every other executor in this crate barriers between stages — a stage's
//! whole output materializes before the next stage starts, even in
//! [`run_chunked`](crate::chunked::run_chunked), whose parallelism is
//! *within* a segment. This executor instead runs every planned segment
//! (see [`PlannedStatement::stream_segments`]) concurrently, connected by
//! bounded MPMC channels carrying line-aligned [`Bytes`] chunks:
//!
//! * a **feeder** splits the statement input into chunks and pushes them
//!   into the first channel;
//! * a **streaming segment** (a fused run of chunk-local stages — concat
//!   combiner, newline-terminated outputs: `grep`, `tr`, `cut`, per-line
//!   `sed`) runs a small worker pool over incoming chunks and forwards the
//!   outputs *in input order* as soon as they are contiguous, re-normalized
//!   to the target chunk size by an [`IncrementalChunker`]. No combiner
//!   ever runs — the Theorem 5 argument applied chunk-wise;
//! * a **barrier segment** (`sort`, `uniq -c`, `wc`, … — any parallel
//!   stage whose combiner is not plain concat) also processes chunks as
//!   they arrive on its pool, but folds the outputs through the stage's
//!   combiner incrementally ([`SynthesizedCombiner::incremental`]): the
//!   combine work — e.g. `sort`'s k-way merge — overlaps with upstream
//!   compute instead of serializing after it. Only the combined stream
//!   moves on, re-chunked;
//! * a **sequential segment** (no combiner, or a rerun that does not pay)
//!   re-gathers its input through a [`Rope`], runs the command once, and
//!   re-chunks the output;
//! * a **bounded segment** (`head -n k`, `sed kq` — a stage whose output
//!   depends only on its first `k` input lines, see
//!   [`PlannedStage::line_bound`](crate::plan::PlannedStage::line_bound)) holds a *demand token*: it gathers
//!   in-order chunks only until `k` complete lines exist, then drops its
//!   receiver — cancelling every upstream producer — runs the command
//!   once on the prefix, and re-chunks the output downstream;
//! * the statement's final channel drains into the result rope.
//!
//! Backpressure: every inter-segment channel and every pool's result
//! channel is bounded, so a fast producer blocks once `queue_depth` chunks
//! are in flight — total buffering per statement is
//! O(segments × (queue_depth + workers) × chunk_bytes) chunk *handles*
//! (payloads are refcounted slices).
//!
//! Out-of-core inputs: every chunk producer (the feeder, sequential
//! segments, barrier outputs) cuts its stream with the *lazy* chunker
//! ([`Bytes::chunks`]) and trails a page-release hint
//! ([`Bytes::release_range`]) a bounded lag behind its cursor. For a
//! memory-mapped input (see `kq-io`) this means pages fault in just ahead
//! of consumption and are dropped once the in-flight window has passed
//! them, so a multi-GB file streams through at O(window) resident memory
//! — both calls are no-ops for heap-backed streams, and an early release
//! is only ever a refault, never a correctness edge.
//!
//! # Teardown: cancelled versus failed
//!
//! Two events tear a pipeline down early, sharing one mechanism (dropping
//! channel endpoints, observed upstream as failing sends or
//! `Sender::is_disconnected`) but differing in verdict:
//!
//! | | trigger | upstream producers | downstream consumers | statement result |
//! |---|---|---|---|---|
//! | **failed** | a command error in any segment | sends fail → bail (timings are discarded with the error) | end-of-input → drain | the failing segment's `Err` surfaces from [`run_streaming`] |
//! | **cancelled** | a bounded consumer met its `k`-line demand | sends fail → bail; pool collectors report the telemetry of the work they actually did | the bounded stage's re-chunked output, then end-of-input | `Ok` — success, with `StageTiming::early_exit` recording the bounded stage and its consumed chunk count |
//!
//! A cancelled pipeline stops cutting chunks at the feeder (which also
//! releases the resident tail of a memory-mapped input via
//! [`Bytes::release_range`]), so a `cat big | grep p | head -n 1` run
//! does O(first match) bytes of upstream work, not O(file). Cancellation
//! reproduces real Unix `SIGPIPE` semantics: bytes past the consumed
//! prefix are never processed, so a command error lurking in the unread
//! tail never fires — the serial oracle, which reads everything, can fail
//! where a cancelled streaming run succeeds, exactly as
//! `big | grep p | head -n 1` outruns a corrupt late line in a real
//! shell. On *successful* serial runs the outputs are byte-identical
//! (`tests/early_exit.rs` pins every prefix-bounded corpus script).
//!
//! Failure teardown is asserted with a watchdog in
//! `tests/failure_injection.rs`; cancellation teardown (a 256 MiB
//! producer must stop without draining its input) in
//! `tests/early_exit.rs`.
//!
//! Output equivalence with [`run_serial`](crate::exec::run_serial) across
//! the whole corpus — at several chunk sizes, including degenerate ones —
//! is asserted by `tests/streaming_differential.rs`.
//!
//! [`SynthesizedCombiner::incremental`]: kq_synth::SynthesizedCombiner::incremental
//! [`IncrementalChunker`]: kq_stream::IncrementalChunker

use crate::chunked::run_chain;
use crate::exec::{gather_files, ExecutionResult, StageTiming, TimingLog};
use crate::parse::{Script, Statement};
use crate::plan::{PlannedScript, PlannedStatement, StageMode, StreamSegmentKind};
use crossbeam::channel;
use kq_coreutils::{CmdError, Command, ExecContext};
use kq_dsl::eval::CommandEnv;
use kq_stream::{Bytes, IncrementalChunker, Rope};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Tuning for the streaming executor.
#[derive(Debug, Clone)]
pub struct StreamingOptions {
    /// Worker threads per parallel (streaming or barrier) segment.
    pub workers: usize,
    /// Target chunk size in bytes for the feeder and for every
    /// re-chunking point (sequential and barrier outputs, streaming
    /// re-normalization).
    pub chunk_bytes: usize,
    /// Capacity of each bounded inter-segment channel, in chunks: the
    /// backpressure knob. 1 is fully lock-step; larger values absorb
    /// per-chunk cost variance between neighboring segments.
    pub queue_depth: usize,
    /// Fuse maximal runs of chunk-local stages into one segment (one pool
    /// pipes each chunk through the whole run). `false` gives every stage
    /// its own segment and channel hop — same output, more hand-offs; the
    /// differential suite uses it to stress the plumbing.
    pub fuse_streamable: bool,
    /// Spill policy for barrier folds: when set, each barrier segment
    /// derives a per-stage [`SpillConfig`](kq_dsl::SpillConfig) from it and
    /// writes sorted runs to disk once the resident run bytes would cross
    /// the budget. `None` keeps every run on the heap (the default).
    pub spill: Option<kq_dsl::SpillPolicy>,
}

impl Default for StreamingOptions {
    fn default() -> Self {
        StreamingOptions {
            workers: 4,
            chunk_bytes: 64 * 1024,
            queue_depth: 4,
            fuse_streamable: true,
            spill: None,
        }
    }
}

/// A chunk in flight: its ordinal within the producing segment's output
/// stream, and its payload (a refcounted slice — sending is an Arc bump).
type Chunk = (usize, Bytes);

/// Sends a stream — `segments`, in order — downstream as lazily cut,
/// line-aligned chunks, with a page-release hint trailing `release_lag`
/// bytes behind the cursor.
///
/// This is the out-of-core discipline shared by the feeder and by every
/// segment that re-chunks a materialized stream: boundaries are computed
/// just ahead of each send (so a mapped source pages in chunk by chunk
/// instead of being scanned — and made resident — up front), and pages
/// the bounded in-flight window has structurally passed are dropped
/// ([`Bytes::release_range`]; a no-op for heap sources, a refault-on-
/// retouch hint for mapped ones). Returns `false` when the consumer
/// disappeared (pipeline teardown). Time spent blocked inside `send`
/// (downstream backpressure) accumulates into `telem.send_stall`, and the
/// channel occupancy observed right after each send raises
/// `telem.max_queued` — the send-side view of how full the bounded edge
/// actually ran.
fn send_chunked(
    segments: impl IntoIterator<Item = Bytes>,
    chunk_bytes: usize,
    release_lag: usize,
    tx: &channel::Sender<Chunk>,
    telem: &mut crate::exec::QueueTelemetry,
) -> bool {
    // A chunk never spans two segments (the parts of a partitioned fold
    // output are separate buffers), ordinals run on across them, and a
    // segment is dropped once it is cut through: the chunks in flight keep
    // its buffer alive, and a mapped part file goes away with the last.
    let mut ordinal = 0usize;
    for source in segments {
        let span = kq_trace::span("streaming", "send").v(source.len() as f64);
        let mut fed = 0usize;
        let mut released = 0usize;
        for chunk in source.chunks(chunk_bytes) {
            let len = chunk.len();
            let t0 = Instant::now();
            let sent = tx.send((ordinal, chunk));
            telem.send_stall += t0.elapsed();
            if sent.is_err() {
                // The consumer disappeared — cancellation (a bounded
                // consumer satisfied its demand) or failure teardown.
                // Nobody will read the rest of this stream: drop the whole
                // resident tail of a mapped source, including the
                // in-flight window (a straggler worker touching an
                // already-delivered slice merely refaults).
                source.release_range(released..source.len());
                return false;
            }
            ordinal += 1;
            telem.max_queued = telem.max_queued.max(tx.len());
            fed += len;
            if fed > released + 2 * release_lag {
                let upto = fed - release_lag;
                source.release_range(released..upto);
                released = upto;
            }
        }
        span.done();
    }
    true
}

/// A pool worker's report: chunk ordinal, input length, wall-clock cost,
/// and the chain result.
type WorkerResult = (usize, usize, Duration, Result<Bytes, CmdError>);

/// Runs a planned script with the bounded-queue streaming executor.
///
/// Statements execute in order (later statements may read files redirected
/// by earlier ones); within a statement all segments run concurrently as
/// described in the [module docs](self).
pub fn run_streaming(
    script: &Script,
    plan: &PlannedScript,
    ctx: &ExecContext,
    opts: &StreamingOptions,
) -> Result<ExecutionResult, CmdError> {
    let mut output = Rope::new();
    let mut timings = TimingLog::default();
    for (si, (statement, planned)) in script.statements.iter().zip(&plan.statements).enumerate() {
        let input = gather_files(&statement.input, ctx)?;
        let (stream, stage_timings) = if statement.stages.is_empty() {
            (input, Vec::new())
        } else {
            run_statement(si, statement, planned, input, ctx, opts)?
        };
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

/// Pipelines one statement: spawns the feeder, one worker set per segment,
/// and drains the sink on the calling thread.
fn run_statement(
    si: usize,
    statement: &Statement,
    planned: &PlannedStatement,
    input: Bytes,
    ctx: &ExecContext,
    opts: &StreamingOptions,
) -> Result<(Bytes, Vec<StageTiming>), CmdError> {
    let _stmt_span = kq_trace::span("streaming", "statement")
        .si(si)
        .v(input.len() as f64);
    let chunk_bytes = opts.chunk_bytes.max(1);
    let queue_depth = opts.queue_depth.max(1);
    let workers = opts.workers.max(1);
    let segments = planned.stream_segments(opts.fuse_streamable);

    // Channel i feeds segment i; the last channel is the sink.
    let mut txs = Vec::with_capacity(segments.len() + 1);
    let mut rxs = Vec::with_capacity(segments.len() + 1);
    for _ in 0..=segments.len() {
        let (tx, rx) = channel::bounded::<Chunk>(queue_depth);
        txs.push(tx);
        rxs.push(rx);
    }
    let mut txs = txs.into_iter();
    let mut rxs = rxs.into_iter();

    // How far the feeder's page-release hint trails its cursor: generously
    // past the pipeline's bounded in-flight window (every channel and pool
    // full), floored so small configurations never thrash. Pages released
    // early merely refault — a perf hint, never a correctness edge. Under
    // a spill budget the contract flips from throughput to bounded memory:
    // a generous trailing window on each big mapped stream (the ingest map
    // plus every barrier output being re-fed downstream) costs tens of MiB
    // of residency, so cap the lag and take the occasional refault — the
    // pages are page-cache-hot anyway.
    let release_lag = chunk_bytes
        .saturating_mul(queue_depth + workers)
        .saturating_mul(segments.len() + 2)
        .max(16 << 20);
    let release_lag = match opts.spill {
        Some(_) => release_lag.min(2 << 20),
        None => release_lag,
    };

    // Demand propagation: a streaming segment whose downstream chain
    // leads to a prefix-bounded consumer through chunk-local stages only
    // flushes its collector eagerly (complete lines ship immediately
    // instead of re-normalizing to the chunk-size target). Otherwise a
    // sparse stage — `grep` with one match — would buffer its only lines
    // until end-of-input and the bound downstream could never cancel
    // anything. Barriers and sequential stages need their whole input
    // regardless, so the propagation stops there.
    let mut eager_flush = vec![false; segments.len()];
    for i in (0..segments.len().saturating_sub(1)).rev() {
        eager_flush[i] = match segments[i + 1].kind {
            StreamSegmentKind::Bounded { .. } => true,
            StreamSegmentKind::Streaming => eager_flush[i + 1],
            StreamSegmentKind::Barrier | StreamSegmentKind::Sequential => false,
        };
    }

    // Every thread of the statement records into the caller's trace
    // session, if it has one.
    let trace = kq_trace::current();
    std::thread::scope(|scope| {
        let feed_tx = txs.next().expect("feeder sender");
        let feed_input = input.clone();
        scope.spawn(move || {
            let _trace = trace.attach();
            // A send failure means downstream tore down; unwind quietly.
            // The feeder has no StageTiming, so its telemetry is discarded
            // (the `streaming/send` span still records the feed interval).
            let mut discarded = crate::exec::QueueTelemetry::default();
            send_chunked(
                [feed_input],
                chunk_bytes,
                release_lag,
                &feed_tx,
                &mut discarded,
            );
        });

        let mut handles = Vec::with_capacity(segments.len());
        for (seg_idx, segment) in segments.iter().enumerate() {
            let seg_rx = rxs.next().expect("segment receiver");
            let seg_tx = txs.next().expect("segment sender");
            let handle = match segment.kind {
                StreamSegmentKind::Bounded { lines } => {
                    let stage_idx = segment.stages.start;
                    let cmd = &statement.stages[stage_idx].command;
                    scope.spawn(move || -> Result<StageTiming, CmdError> {
                        let _trace = trace.attach();
                        // The demand token is the receiver itself: hold it
                        // only until `lines` complete lines exist, then
                        // drop it so every upstream producer unwinds
                        // without draining the rest of the input.
                        let mut rope = Rope::new();
                        let mut seen = 0usize;
                        let mut chunks = 0usize;
                        let mut upstream_done = false;
                        let mut telem = crate::exec::QueueTelemetry::default();
                        while seen < lines {
                            let t0 = Instant::now();
                            let received = seg_rx.recv();
                            telem.recv_stall += t0.elapsed();
                            let Some((_seq, chunk)) = received else {
                                upstream_done = true;
                                break;
                            };
                            telem.max_queued = telem.max_queued.max(seg_rx.len() + 1);
                            if seg_tx.is_disconnected() {
                                return Ok(empty_timing(cmd.display(), false, false));
                            }
                            seen += chunk.count_newlines();
                            chunks += 1;
                            telem.tasks += 1;
                            rope.push(chunk);
                        }
                        // Cancellation point. Sound because the chunks are
                        // line-aligned and arrive in stream order from a
                        // single upstream sender: the rope is a prefix of
                        // the full stream holding >= `lines` complete
                        // lines (or all of it), which is exactly what the
                        // line_bound contract says the command may see.
                        drop(seg_rx);
                        if !upstream_done {
                            kq_trace::instant("streaming", "early-exit")
                                .si(si)
                                .ni(seg_idx)
                                .v(chunks as f64)
                                .emit();
                        }
                        let stage_in = rope.into_bytes();
                        let bytes_in = stage_in.len();
                        let run_span = kq_trace::span("streaming", "bounded-run")
                            .si(si)
                            .ni(seg_idx)
                            .v(stage_in.len() as f64);
                        let t0 = Instant::now();
                        let out = cmd.run(stage_in, ctx)?;
                        let elapsed = t0.elapsed();
                        run_span.done();
                        let bytes_out = out.len();
                        send_chunked([out], chunk_bytes, release_lag, &seg_tx, &mut telem);
                        Ok(StageTiming {
                            label: cmd.display(),
                            parallel: false,
                            eliminated: false,
                            piece_times: vec![elapsed],
                            combine_time: Duration::ZERO,
                            bytes_in,
                            bytes_out,
                            bytes_out_pieces: bytes_out,
                            early_exit: (!upstream_done).then_some(crate::exec::EarlyExit {
                                stage: stage_idx,
                                chunks,
                            }),
                            queue: Some(telem),
                            spill: None,
                        })
                    })
                }
                StreamSegmentKind::Sequential => {
                    let cmd = &statement.stages[segment.stages.start].command;
                    scope.spawn(move || -> Result<StageTiming, CmdError> {
                        let _trace = trace.attach();
                        let mut rope = Rope::new();
                        let mut telem = crate::exec::QueueTelemetry::default();
                        loop {
                            let t0 = Instant::now();
                            let received = seg_rx.recv();
                            telem.recv_stall += t0.elapsed();
                            let Some((_seq, chunk)) = received else { break };
                            telem.max_queued = telem.max_queued.max(seg_rx.len() + 1);
                            // Downstream tore down (its own handle carries
                            // the error): stop gathering so upstream
                            // unwinds now instead of draining the stream.
                            if seg_tx.is_disconnected() {
                                return Ok(empty_timing(cmd.display(), false, false));
                            }
                            telem.tasks += 1;
                            rope.push(chunk);
                        }
                        let stage_in = rope.into_bytes();
                        let bytes_in = stage_in.len();
                        let run_span = kq_trace::span("streaming", "seq-run")
                            .si(si)
                            .ni(seg_idx)
                            .v(stage_in.len() as f64);
                        let t0 = Instant::now();
                        let out = cmd.run(stage_in, ctx)?;
                        let elapsed = t0.elapsed();
                        run_span.done();
                        let bytes_out = out.len();
                        // Source commands (`cat big-file`) return the
                        // mapped input itself: chunk it lazily with the
                        // same trailing release as the feeder, or the
                        // re-chunk scan would page the whole map in.
                        send_chunked([out], chunk_bytes, release_lag, &seg_tx, &mut telem);
                        Ok(StageTiming {
                            label: cmd.display(),
                            parallel: false,
                            eliminated: false,
                            piece_times: vec![elapsed],
                            combine_time: Duration::ZERO,
                            bytes_in,
                            bytes_out,
                            bytes_out_pieces: bytes_out,
                            early_exit: None,
                            queue: Some(telem),
                            spill: None,
                        })
                    })
                }
                StreamSegmentKind::Streaming | StreamSegmentKind::Barrier => {
                    // The pool: `workers` threads pull chunks off the
                    // segment's input channel (MPMC, cloned receiver) and
                    // report results unordered on a bounded side channel —
                    // the same shape as the chunked executor's pool, with
                    // the feeder replaced by the upstream segment.
                    let chain: Vec<&Command> = segment
                        .stages
                        .clone()
                        .map(|i| &statement.stages[i].command)
                        .collect();
                    let label = chain
                        .iter()
                        .map(|c| c.display())
                        .collect::<Vec<_>>()
                        .join(" | ");
                    let (res_tx, res_rx) =
                        channel::bounded::<WorkerResult>((workers * 2).max(queue_depth));
                    for _ in 0..workers {
                        let rx = seg_rx.clone();
                        let res_tx = res_tx.clone();
                        let chain = chain.clone();
                        scope.spawn(move || {
                            let _trace = trace.attach();
                            for (seq, chunk) in rx.iter() {
                                let in_len = chunk.len();
                                let span = kq_trace::span("streaming", "map")
                                    .si(si)
                                    .ni(seg_idx)
                                    .seq(seq)
                                    .v(in_len as f64);
                                let t0 = Instant::now();
                                let out = run_chain(&chain, chunk, ctx);
                                span.done();
                                let failed = out.is_err();
                                if res_tx.send((seq, in_len, t0.elapsed(), out)).is_err() || failed
                                {
                                    break;
                                }
                            }
                        });
                    }
                    drop(seg_rx);
                    drop(res_tx);

                    match segment.kind {
                        StreamSegmentKind::Streaming => scope.spawn({
                            let eager = eager_flush[seg_idx];
                            move || {
                                let _trace = trace.attach();
                                collect_streaming(label, res_rx, seg_tx, chunk_bytes, eager)
                            }
                        }),
                        StreamSegmentKind::Barrier => {
                            let closing = segment.stages.start;
                            let StageMode::Parallel { combiner, .. } =
                                &planned.stages[closing].mode
                            else {
                                unreachable!("barrier segments are parallel stages");
                            };
                            let combiner = combiner.clone();
                            let closing_cmd = &statement.stages[closing].command;
                            let spill = opts.spill.as_ref().map(|p| p.stage_config());
                            scope.spawn(move || {
                                let _trace = trace.attach();
                                collect_barrier(
                                    (si, seg_idx),
                                    label,
                                    &combiner,
                                    closing_cmd,
                                    ctx,
                                    res_rx,
                                    seg_tx,
                                    chunk_bytes,
                                    release_lag,
                                    spill,
                                )
                            })
                        }
                        StreamSegmentKind::Sequential | StreamSegmentKind::Bounded { .. } => {
                            unreachable!()
                        }
                    }
                }
            };
            handles.push(handle);
        }

        // Drain the sink here: the pipeline needs a live consumer before
        // any segment result can be joined.
        let sink_rx = rxs.next().expect("sink receiver");
        let mut rope = Rope::new();
        for (_seq, chunk) in sink_rx.iter() {
            rope.push(chunk);
        }

        let mut stage_timings = Vec::with_capacity(handles.len());
        let mut first_err: Option<CmdError> = None;
        for handle in handles {
            match handle.join().expect("segment thread panicked") {
                Ok(timing) => stage_timings.push(timing),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok((rope.into_bytes(), stage_timings)),
        }
    })
}

/// Collector for a streaming segment: restores input order, re-normalizes
/// chunk sizes, and forwards downstream as soon as a contiguous prefix of
/// outputs exists.
///
/// With `eager_flush` (the demand-propagation mode: downstream reaches a
/// prefix-bounded consumer through chunk-local stages only), every
/// contiguous piece's complete lines ship immediately instead of waiting
/// to fill the chunk-size target — otherwise a sparse stage would sit on
/// the very lines that satisfy the bound until end-of-input and the
/// cancellation could never fire. Same stream content, smaller chunks.
fn collect_streaming(
    label: String,
    res_rx: channel::Receiver<WorkerResult>,
    seg_tx: channel::Sender<Chunk>,
    chunk_bytes: usize,
    eager_flush: bool,
) -> Result<StageTiming, CmdError> {
    let mut pending: BTreeMap<usize, Bytes> = BTreeMap::new();
    let mut next = 0usize;
    let mut out_seq = 0usize;
    let mut chunker = IncrementalChunker::new(chunk_bytes);
    let mut piece_times: Vec<Duration> = Vec::new();
    let (mut bytes_in, mut bytes_out) = (0usize, 0usize);
    // A downstream teardown (a failing segment, or a bounded consumer
    // that satisfied its demand — the latter a *success* path) ends the
    // collection early: breaking out drops `res_rx` (pool workers' sends
    // fail → they drop the input receiver → upstream sends fail), and the
    // telemetry accumulated so far is returned as-is — on a cancelled run
    // these numbers land in the successful result and must describe the
    // work that actually happened, not read as a zero-byte stage.
    let mut torn_down = false;
    let mut telem = crate::exec::QueueTelemetry::default();
    'collect: loop {
        let t0 = Instant::now();
        let received = res_rx.recv();
        telem.recv_stall += t0.elapsed();
        let Some((seq, in_len, dur, res)) = received else {
            break 'collect;
        };
        // Sends only happen when chunk output actually accumulates, so a
        // sparse segment (`grep` with one match) could otherwise drain
        // its whole input without ever noticing that a bounded consumer
        // downstream cancelled — poll the demand token every result.
        if seg_tx.is_disconnected() {
            torn_down = true;
            break 'collect;
        }
        record_piece(&mut piece_times, seq, dur);
        bytes_in += in_len;
        telem.tasks += 1;
        telem.max_queued = telem.max_queued.max(res_rx.len() + 1);
        // A chain error tears the pipeline down: returning drops `res_rx`
        // and `seg_tx` (downstream sees end-of-input and drains).
        let out = res?;
        pending.insert(seq, out);
        while let Some(ready) = pending.remove(&next) {
            next += 1;
            bytes_out += ready.len();
            let mut outgoing = chunker.push(ready);
            if eager_flush {
                outgoing.extend(chunker.flush_pending());
            }
            for chunk in outgoing {
                let t0 = Instant::now();
                let sent = seg_tx.send((out_seq, chunk));
                telem.send_stall += t0.elapsed();
                if sent.is_err() {
                    torn_down = true;
                    break 'collect;
                }
                telem.max_queued = telem.max_queued.max(seg_tx.len());
                out_seq += 1;
            }
        }
    }
    if !torn_down {
        for chunk in chunker.finish() {
            let t0 = Instant::now();
            let sent = seg_tx.send((out_seq, chunk));
            telem.send_stall += t0.elapsed();
            if sent.is_err() {
                break;
            }
            out_seq += 1;
        }
    }
    Ok(StageTiming {
        label,
        parallel: true,
        eliminated: true, // no combiner ran: chunk outputs flowed through
        piece_times,
        combine_time: Duration::ZERO,
        bytes_in,
        bytes_out,
        bytes_out_pieces: bytes_out,
        early_exit: None,
        queue: Some(telem),
        spill: None,
    })
}

/// Collector for a barrier segment: restores input order and folds chunk
/// outputs through the stage's combiner *as they arrive*; only the final
/// combined stream is re-chunked downstream.
#[allow(clippy::too_many_arguments)]
fn collect_barrier(
    (si, ni): (usize, usize),
    label: String,
    combiner: &kq_synth::SynthesizedCombiner,
    closing_cmd: &Command,
    ctx: &ExecContext,
    res_rx: channel::Receiver<WorkerResult>,
    seg_tx: channel::Sender<Chunk>,
    chunk_bytes: usize,
    release_lag: usize,
    spill: Option<kq_dsl::SpillConfig>,
) -> Result<StageTiming, CmdError> {
    let env = CommandEnv {
        command: closing_cmd,
        ctx,
    };
    let spill_metrics = spill.as_ref().map(|cfg| cfg.metrics.clone());
    let mut accum = combiner.incremental_with_spill(&env, spill);
    let mut pending: BTreeMap<usize, Bytes> = BTreeMap::new();
    let mut next = 0usize;
    let mut piece_times: Vec<Duration> = Vec::new();
    let (mut bytes_in, mut bytes_out_pieces) = (0usize, 0usize);
    let mut combine_time = Duration::ZERO;
    // Downstream teardown ends the collection without combining the rest
    // — a failing segment's handle carries the error, and a bounded
    // consumer's cancellation (`sort | head -n 1`) is a success whose
    // result must still report the piece work this barrier actually did.
    let mut torn_down = false;
    let mut telem = crate::exec::QueueTelemetry::default();
    loop {
        let t0 = Instant::now();
        let received = res_rx.recv();
        telem.recv_stall += t0.elapsed();
        let Some((seq, in_len, dur, res)) = received else {
            break;
        };
        // This collector only transmits after end-of-input, so a blocked
        // `send` cannot tell it the consumer died — poll instead.
        if seg_tx.is_disconnected() {
            torn_down = true;
            break;
        }
        record_piece(&mut piece_times, seq, dur);
        bytes_in += in_len;
        telem.tasks += 1;
        telem.max_queued = telem.max_queued.max(res_rx.len() + 1);
        let out = res?;
        pending.insert(seq, out);
        while let Some(piece) = pending.remove(&next) {
            next += 1;
            bytes_out_pieces += piece.len();
            let span = kq_trace::span("streaming", "fold-push")
                .si(si)
                .ni(ni)
                .seq(next - 1);
            let t0 = Instant::now();
            accum.push_inline(piece);
            span.done();
            combine_time += t0.elapsed();
        }
    }
    let bytes_out = if torn_down {
        // Nobody will read the combined stream: skip the final combine.
        0
    } else {
        let span = kq_trace::span("streaming", "fold-finish").si(si).ni(ni);
        let t0 = Instant::now();
        let finished = accum.finish();
        span.done();
        let combined = finished.map_err(|e| CmdError::new(closing_cmd.display(), e.to_string()))?;
        combine_time += t0.elapsed();
        let bytes_out = combined.len();
        send_chunked(
            combined.into_segments(),
            chunk_bytes,
            release_lag,
            &seg_tx,
            &mut telem,
        );
        bytes_out
    };
    Ok(StageTiming {
        label,
        parallel: true,
        eliminated: false,
        piece_times,
        combine_time,
        bytes_in,
        bytes_out,
        bytes_out_pieces,
        early_exit: None,
        queue: Some(telem),
        spill: spill_metrics
            .as_deref()
            .map(crate::exec::SpillTelemetry::from_metrics),
    })
}

/// The placeholder timing a segment returns when it bails out because a
/// downstream segment tore the pipeline down — the statement is about to
/// surface that segment's error, so these numbers are never reported.
fn empty_timing(label: String, parallel: bool, eliminated: bool) -> StageTiming {
    StageTiming {
        label,
        parallel,
        eliminated,
        piece_times: Vec::new(),
        combine_time: Duration::ZERO,
        bytes_in: 0,
        bytes_out: 0,
        bytes_out_pieces: 0,
        early_exit: None,
        queue: None,
        spill: None,
    }
}

/// Slots a piece duration at its chunk ordinal (results arrive unordered).
fn record_piece(times: &mut Vec<Duration>, seq: usize, dur: Duration) {
    if times.len() <= seq {
        times.resize(seq + 1, Duration::ZERO);
    }
    times[seq] = dur;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_serial;
    use crate::parse::parse_script;
    use crate::plan::Planner;
    use kq_synth::SynthesisConfig;
    use std::collections::HashMap;

    fn make_input(lines: usize) -> String {
        let words = ["apple", "dog", "cat", "apple", "bird", "cat", "fox"];
        let mut s = String::new();
        for i in 0..lines {
            s.push_str(&format!(
                "{} {} line {}\n",
                words[i % words.len()],
                words[(i * 3 + 1) % words.len()],
                i % 11
            ));
        }
        s
    }

    fn check(script_text: &str, chunk_bytes: usize) {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script(script_text, &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", make_input(500));
        let serial = run_serial(&script, &ctx).unwrap();
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &make_input(100));
        for workers in [1, 3] {
            for queue_depth in [1, 4] {
                for fuse in [true, false] {
                    let opts = StreamingOptions {
                        workers,
                        chunk_bytes,
                        queue_depth,
                        fuse_streamable: fuse,
                        spill: None,
                    };
                    let got = run_streaming(&script, &plan, &ctx, &opts).unwrap();
                    assert_eq!(
                        got.output, serial.output,
                        "{script_text:?} differs (w={workers}, chunk={chunk_bytes}, \
                         depth={queue_depth}, fuse={fuse})"
                    );
                }
            }
        }
    }

    #[test]
    fn word_frequency_streams() {
        check(
            "cat /in.txt | cut -d ' ' -f 1 | sort | uniq -c | sort -rn",
            256,
        );
    }

    #[test]
    fn streamable_chain_streams() {
        check(
            "cat /in.txt | grep apple | tr a-z A-Z | cut -d ' ' -f 1",
            300,
        );
    }

    #[test]
    fn counting_pipeline_streams() {
        check("cat /in.txt | grep apple | wc -l", 512);
    }

    #[test]
    fn sequential_stage_mid_pipeline() {
        // sed 1d has no combiner: gather → run once → re-chunk.
        check("cat /in.txt | sed 1d | sort | uniq", 400);
    }

    #[test]
    fn chunk_larger_than_input_degenerates_to_serial() {
        check("cat /in.txt | sort | uniq -c", 10_000_000);
    }

    #[test]
    fn one_byte_chunks_are_one_line_each() {
        check("cat /in.txt | cut -d ' ' -f 2 | sort | uniq -c", 1);
    }

    #[test]
    fn redirect_chain_streams() {
        check(
            "cat /in.txt | cut -d ' ' -f 1 | sort > /tmp1\ncat /tmp1 | uniq -c | sort -rn",
            350,
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script("cat /empty | sort | uniq -c", &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/empty", "");
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &make_input(50));
        let got = run_streaming(&script, &plan, &ctx, &StreamingOptions::default()).unwrap();
        assert_eq!(got.output, "");
    }

    #[test]
    fn timing_log_reports_segments() {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script("cat /in.txt | tr A-Z a-z | grep a | sort", &env).unwrap();
        let ctx = ExecContext::default();
        let input = make_input(400);
        ctx.vfs.write("/in.txt", &input);
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &input);
        let opts = StreamingOptions {
            workers: 2,
            chunk_bytes: 1024,
            queue_depth: 2,
            fuse_streamable: true,
            spill: None,
        };
        let got = run_streaming(&script, &plan, &ctx, &opts).unwrap();
        let stages = &got.timings.statements[0];
        // tr|grep fuse into one streaming segment; sort barriers.
        assert_eq!(stages.len(), 2);
        assert!(stages[0].label.contains('|'));
        assert!(stages[0].eliminated, "streaming segment skips its combiner");
        assert!(!stages[1].eliminated, "sort combines");
        assert!(stages[1].combine_time > Duration::ZERO);
        assert!(stages[0].piece_times.len() > 1, "expected many chunks");
    }

    #[test]
    fn head_terminated_pipelines_stay_byte_identical() {
        check("cat /in.txt | grep apple | head -n 1", 64);
        check("cat /in.txt | head -n 2 | cut -d ' ' -f 1", 128);
        check("cat /in.txt | sort -u | head -n 3", 256);
        check("cat /in.txt | sed 5q | sort", 200);
        check("cat /in.txt | grep apple | head -n 1 | tr a-z A-Z", 64);
        // Degenerate bounds: zero lines, and a bound past end-of-input.
        check("cat /in.txt | head -n 0 | sort", 128);
        check("cat /in.txt | head -n 999 | sort", 300);
    }

    #[test]
    fn bounded_consumer_cancels_upstream_and_reports_early_exit() {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script("cat /in.txt | grep apple | head -n 1", &env).unwrap();
        let ctx = ExecContext::default();
        let input = make_input(5000);
        ctx.vfs.write("/in.txt", &input);
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &make_input(100));
        let opts = StreamingOptions {
            workers: 2,
            chunk_bytes: 256,
            queue_depth: 2,
            fuse_streamable: true,
            spill: None,
        };
        let got = run_streaming(&script, &plan, &ctx, &opts).unwrap();
        let serial = run_serial(&script, &ctx).unwrap();
        assert_eq!(got.output, serial.output);
        let stages = &got.timings.statements[0];
        let head = stages
            .iter()
            .find(|s| s.label.starts_with("head"))
            .expect("head stage timing");
        let early = head.early_exit.expect("head must report its early exit");
        assert!(early.chunks >= 1, "head consumed at least the first chunk");
        assert_eq!(early.stage, 1, "head is pipeline stage 1 (grep is 0)");
        // The cancelled grep segment processed a small prefix, not the
        // whole stream: upstream work is O(first match), O(input).
        let grep = stages
            .iter()
            .find(|s| s.label.starts_with("grep"))
            .expect("grep stage timing");
        assert!(
            grep.bytes_in < input.len() / 4,
            "grep consumed {} of {} bytes despite the cancellation",
            grep.bytes_in,
            input.len()
        );
    }

    #[test]
    fn exhausted_bound_is_not_an_early_exit() {
        // head -n past the end of the stream: upstream runs to end-of-input,
        // so no cancellation happened and none may be reported.
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script("cat /in.txt | head -n 999", &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", make_input(200));
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &make_input(50));
        let got = run_streaming(&script, &plan, &ctx, &StreamingOptions::default()).unwrap();
        let head = &got.timings.statements[0][0];
        assert_eq!(head.early_exit, None);
        assert_eq!(got.output, run_serial(&script, &ctx).unwrap().output);
    }

    #[test]
    fn missing_input_file_is_an_error() {
        let script = parse_script("cat /absent | sort", &HashMap::new()).unwrap();
        let ctx = ExecContext::default();
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, "b\na\n");
        assert!(run_streaming(&script, &plan, &ctx, &StreamingOptions::default()).is_err());
    }
}
