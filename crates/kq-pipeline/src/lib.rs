//! Pipeline parsing, parallelization planning, and execution.
//!
//! This crate implements the KumQuat workflow of Figure 2: parse a shell
//! script into pipelines ([`parse`]), synthesize a combiner per stage and
//! decide which stages parallelize ([`plan`] — including the Theorem 5
//! intermediate-combiner elimination and the §2 rerun-cost heuristic),
//! execute the script in parallel ([`scheduler::run_dataflow`]) against
//! the serial oracle ([`exec::run_serial`]), and compute the virtual
//! wall-clock times the paper's performance tables report ([`sim`] — a
//! measured-cost scheduler replaying the per-piece durations of
//! [`exec::run_parallel_measured`], the honest substitute for the paper's
//! 80-core testbed on a small host).
//!
//! # The zero-copy data plane
//!
//! All executors move stream payloads as [`kq_stream::Bytes`] — refcounted
//! slices of shared buffers — rather than owned `String`s:
//!
//! * input gathering reads the virtual filesystem by refcount bump
//!   (multi-file inputs gather through a [`kq_stream::Rope`], one memcpy
//!   total);
//! * cutting a stage input into chunks allocates O(chunks): each chunk is
//!   a slice of the parent buffer, and worker threads receive it as an
//!   `Arc` clone;
//! * chunk-local stages whose combiner is eliminated (Theorem 5) pass
//!   their chunks on to the next stage with zero copies;
//! * k-way `concat` combining gathers segments with at most one memcpy,
//!   and `> file` redirection stores the shared slice directly.
//!
//! Commands still allocate their own transformed output once (that's the
//! command's job); what the data plane eliminates is every copy *between*
//! stages. `crates/bench/benches/bytes_dataplane.rs` measures the
//! difference against the legacy copy-per-piece path.
//!
//! # The executor matrix
//!
//! Two parallel executors share the data plane and produce byte-identical
//! output to the serial oracle (asserted across the whole corpus by
//! `tests/dataflow_differential.rs` and `tests/streaming_differential.rs`):
//!
//! | executor | parallelism | barriers | role |
//! |---|---|---|---|
//! | [`exec::run_serial`] | none | every stage | the byte oracle every parallel run is checked against |
//! | [`scheduler::run_dataflow`] | one work-stealing pool of `w` threads for the *whole script* | graph properties, not thread boundaries | the executor: every statement's [`dataflow`] graph shares the same fixed pool (no per-statement spawn/teardown), independent statements overlap, barrier stages fold *while upstream still computes*, and early exit tears down queued upstream work |
//! | [`streaming::run_streaming`] | a thread pool per segment, segments pipelined over bounded channels | only where a stage truly needs its whole input | the out-of-core bound: a statement's memory is its channels' capacity plus its folds' spill budget, so a 256 MiB sort under a 64 MiB spill budget stays under 160 MiB resident — which the dataflow pool, whose run batches in flight, queued chunks and finish parts are not budget-accounted, does not yet meet |
//!
//! [`exec::run_parallel_measured`] is not an executor but a measurement:
//! the paper's split/combine pipeline with each piece run alone, whose
//! per-piece times [`sim`] replays on virtual workers.
//!
//! The streaming executor's segment classification (chunk-local versus
//! barrier versus sequential) lives in
//! [`plan::PlannedStatement::stream_segments`]; the dataflow executor
//! reifies the same classification as a graph IR ([`dataflow`]) and
//! executes it with a shared scheduler ([`scheduler`]). Four rewrites of
//! that graph go beyond the classification, all switched off together
//! (`fuse_streamable: false`, `--no-opt`): adjacent chunk-local stages
//! fuse into one node, a `sort | uniq [-c]` pair of barrier stages that
//! [`lattice::fold_pair`] licenses becomes one counting fold (see
//! "Counting rewrite" in [`dataflow`]), a rerun-combined `tr -s` that
//! [`lattice::newline_seam`] licenses — the word splitter
//! `tr -cs A-Za-z '\n'` — runs chunk by chunk at the head of a chunk-local
//! node instead of once over its gathered input ("Seam rewrite"), and a
//! `sort` that [`lattice::sorting_order`] licenses passes its chunks to its
//! fold unsorted, the fold sorting them a run batch at a time ("Sorting
//! rewrite"). The serial oracle and the streaming executor always run the
//! plan stage by stage, which is what makes [`exec::run_serial`] the
//! oracle for all four. `crates/bench/benches/dataflow_exec.rs` measures dataflow
//! against streaming on a multi-statement script.
//!
//! # Fold finalization protocol
//!
//! Both pipelined executors fold barrier-stage outputs incrementally, and
//! both must answer the same question without a central coordinator:
//! *who runs `finish()` when the last piece lands?* The streaming
//! executor answers structurally — each barrier has one collector thread,
//! and end-of-input is its result channel disconnecting. The dataflow
//! scheduler has no such thread: any pool worker may integrate a fold's
//! chunk, so finalization is a *claim*: a task that observes
//! `input closed && inflight == 0 && queue empty` flips the node's phase
//! to `Running` under the node lock and runs the finish outside it.
//!
//! The protocol's invariant: **every task that pops a chunk or observes
//! the closed edge re-evaluates the finalization condition after
//! integrating its own work** — unconditionally, not only on the path
//! that "should" be last. The condition is stable once true, so the extra
//! checks are idempotent; skipping one is how the lost-finalization race
//! happened (a task popped the final chunk, saw *its own* inflight claim
//! still counted, and only rescheduled upstream, while the concurrent
//! observer of the closed edge had already bailed on the nonzero
//! inflight — nobody checked again, and the run hung with the pool
//! idle). `tests/fold_finalize_stress.rs` hammers the window at both
//! gather and combine folds under tiny chunks and a shallow queue.
//!
//! The same count keeps the node lock short. Integrating a map result
//! into a merge fold is O(1) under the lock: when the fold has enough
//! pieces for a run it hands them back as a batch
//! (`kq_synth::IncrementalCombine::push`), the task bumps `inflight` for
//! the batch, drops the lock, k-way merges the batch (a `fold-merge`
//! span, timed into [`StageTiming::combine_time`]), and re-takes the lock
//! only to install the run at the batch's index and retire the claim. So
//! a worker's finished map never waits behind another worker's run merge,
//! finalization cannot start while a batch is out, and `finish` sees the
//! runs in stream order whatever order they came back in (the third test
//! of `tests/fold_finalize_stress.rs`). The streaming executor's barrier
//! collector owns its fold outright and merges each batch on the spot.
//!
//! **The sealing phase.** The pieces a merge fold still holds when its
//! input ends are not merged into the closing merge's parts: the task that
//! claims the finalization seals the fold
//! (`kq_synth::IncrementalCombine::seal`), which cuts them by bytes into
//! ordinary run batches, stores them in the node as `Phase::Sealing` and
//! schedules one `(si, ni)` task per batch. Each claims a batch under the
//! lock, makes it a run with the lock released (a `fold-merge` span, as for
//! every batch) and installs it; the task that installs the last — or the
//! sealing task, when there was nothing to cut — goes on to the finish. A
//! sorting fold's tail is raw chunks that no partition could cut; sealed,
//! it is sorted by as many workers as it has batches.
//!
//! **The finishing phase.** The finish itself used to be one task: the
//! k-way merge of every run, on one thread, with the rest of the pool idle
//! (on a 32 MiB sort at two workers, 39% of the wall clock). A merge fold
//! that has folded enough bytes — `kq_dsl::kway::FINISH_PART_BYTES` per
//! part, so the decision never depends on `--workers` — now finishes in
//! parts. The task that claimed the finalization plans them (a
//! `fold-partition` span: splitters sampled from the runs, every run cut
//! by binary search, no bytes moved; `kq_dsl::IncrementalFold::plan_finish`),
//! stores them in the node as `Phase::Finishing`, and schedules one
//! ordinary `(si, ni)` task per part. Each such task claims the next
//! unclaimed part under the node lock (counted in `inflight` while it is
//! out), merges it with the lock released (a `fold-finish` span whose
//! `seq` is the part index, timed into [`StageTiming::combine_time`]),
//! and slots the output by part index; the task that fills the last slot
//! — whichever it is — flips the node to `Emitting` over the ordered
//! segments and starts the emission. There is no thread outside the pool
//! and no new node or edge: the graph IR, `DataflowGraph::validate` and
//! `kumquat check` do not know the phase exists. A part that fails takes
//! the node out of the phase under the lock before it reports, so the
//! statement fails once and siblings still out are dropped when they come
//! back; cancellation (`cancel_upstream`, a statement error elsewhere)
//! drops the phase the same way — unclaimed parts with it, claimed ones on
//! return — like a run batch that is never installed. An emitter walks the
//! segment list and never cuts a chunk across two parts, so downstream
//! chunk boundaries, and with them every trace span identity, are equal
//! at every worker count. Below two parts nothing of this runs: the
//! finalizing task merges the one part itself, as before.
//!
//! A statement's stdout stays the segments its last node emitted
//! ([`scheduler::run_dataflow_segments`]); the CLI writes them out one
//! after the other. [`run_dataflow`] gathers them into
//! [`ExecutionResult::output`], and a `> file` redirect gathers them once
//! into the buffer the VFS keeps.
//!
//! # Spill lifecycle (bounded-memory barrier folds)
//!
//! A merge-combiner fold normally keeps every sorted run on the heap
//! until the final k-way merge, so a big `sort`'s peak memory is O(input).
//! Under a [`kq_dsl::SpillPolicy`] (CLI `--spill-mb`, carried by
//! [`StreamingOptions::spill`] / [`DataflowOptions::spill`]) each barrier
//! stage derives a per-stage [`kq_dsl::SpillConfig`] and the fold spills:
//!
//! 1. runs accumulate on the heap only while their total stays within
//!    the budget; past it, each completed run is written to a temp file
//!    (`kq_io::RunWriter`) and **immediately mapped back and unlinked** —
//!    the inode survives while mapped, so cleanup is structural on every
//!    exit path (success, error, cancellation, even SIGKILL once the
//!    process dies);
//! 2. `finish()` then streams the k-way merge of the mapped runs through
//!    a bounded fragment sink into an output run file — one per part of
//!    the closing merge, see the finishing phase above — releasing each
//!    run's consumed pages as the merge frontier passes them
//!    ([`kq_stream::ReleaseCursor`]), and maps the output back the same
//!    way — so neither the runs nor the merged result are ever fully
//!    heap-resident (planning the parts drops the pages its searches
//!    touched as it goes);
//! 3. the executor snapshots the stage's [`kq_dsl::SpillMetrics`] into
//!    [`StageTiming::spill`] ([`exec::SpillTelemetry`]), which the CLI
//!    reports as `spill: ...` notes.
//!
//! `tests/spill_differential.rs` pins byte-identity with the serial
//! oracle under a one-byte budget (every run spills) on both executors,
//! plus the no-leftover-files property across success, failure, and
//! early-exit teardowns; `crates/bench/benches/spill_fold.rs` records
//! peak RSS for a 256 MiB sort with and without a budget
//! (`BENCH_spill.json`).
//!
//! # The adaptive control loop
//!
//! The dataflow executor can size its chunks closed-loop
//! ([`scheduler::ChunkSizing::Auto`], CLI `--chunk-kb auto` under the
//! default `--exec dataflow`):
//!
//! * **Adaptive chunk sizing.** Each statement's base chunk target is
//!   derived from its input size and the worker count when the statement
//!   starts (≈8 chunks per worker, clamped to [128 KiB, 8 MiB]), and
//!   producers feeding a combine fold *coarsen* geometrically as they cut
//!   — doubling the target every 8 chunks, up to 6 doublings. The first
//!   wave of small chunks gets every worker busy; later, larger chunks
//!   amortize per-chunk overhead and shrink the fold's merge frontier
//!   (fewer, bigger sorted runs to k-way merge).
//! * **Spill-aware run sizing.** Under a spill budget a merge fold
//!   accumulates incoming pieces until a quarter of the budget before
//!   sorting/spilling a run ([`kq_dsl` `kway`]), so run count tracks the
//!   budget rather than the chunk count.
//!
//! The invariant that makes both safe: **adaptation moves chunk
//! boundaries, never bytes**. Chunk targets are pure functions of
//! (statement base, chunks already cut) — independent of timing, queue
//! state, and worker interleaving — and reorder buffers already make
//! every node's output order-deterministic, so serial byte-equality holds
//! with the knob on; `tests/dataflow_differential.rs` sweeps the corpus
//! with auto chunk sizing at several worker counts. Decisions are traced
//! (`adaptive` instants) and summarized in
//! [`TimingLog::adaptive`](exec::AdaptiveTelemetry);
//! `crates/bench/benches/adaptive_exec.rs` measures auto against the
//! fixed default (`BENCH_adaptive.json`).
//!
//! # The trace plane
//!
//! Every executor is instrumented through [`kq_trace`]: node-task spans
//! (`dataflow`/`streaming`/`serial`/`measured` categories), graph
//! structure metas, and per-node counters (bytes in/out, tasks,
//! max-queued, send/recv stall time). Instrumentation is off unless the
//! calling thread carries a live `kq_trace::TraceSession` — every pool
//! hands the caller's session to its workers at spawn, so a run records
//! into the session that asked for it and into no other. A disabled probe
//! is one relaxed atomic load, so the executors' hot loops carry no
//! tracing cost on normal runs
//! (`crates/bench/benches/trace_overhead.rs` guards this).
//! Span identity is `(kind, cat, name, si, ni, seq, label)`: `si` the
//! statement index, `ni` the dataflow node / stage index, `seq` the chunk
//! ordinal. Chunk cuts are deterministic for a given input and chunk
//! size, so the identity multiset is stable across runs and worker counts
//! (absent early-exit cancellation) — `tests/trace_plane.rs` pins that
//! contract, plus graph coverage: every node of every statement's graph
//! appears with at least one task span. The CLI exports sessions via
//! `--trace-out` (JSONL + a Chrome `trace_event` file for Perfetto) and
//! summarizes them with `kumquat trace report` (per-node busy time and
//! the critical path).

//! ```
//! use kq_pipeline::exec::run_serial;
//! use kq_pipeline::parse::parse_script;
//! use kq_pipeline::plan::Planner;
//! use kq_pipeline::{run_dataflow, DataflowOptions};
//! use kq_coreutils::ExecContext;
//! use kq_synth::SynthesisConfig;
//!
//! let script = parse_script("cat /in | sort | uniq -c", &Default::default()).unwrap();
//! let ctx = ExecContext::default();
//! ctx.vfs.write("/in", "b\na\nb\n".repeat(40));
//! let mut planner = Planner::new(SynthesisConfig::default());
//! let plan = planner.plan(&script, &ctx, "b\na\nb\n");
//! let serial = run_serial(&script, &ctx).unwrap();
//! let opts = DataflowOptions { workers: 4, ..DataflowOptions::default() };
//! let parallel = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
//! assert_eq!(parallel.output, serial.output);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dataflow;
pub mod exec;
pub mod lattice;
pub mod parse;
pub mod plan;
pub mod scheduler;
pub mod sim;
pub mod streaming;

pub use cache::{cache_key, CacheStats, CombinerCache};
pub use dataflow::{DataflowGraph, DataflowNode, FoldMode, NodeKind};
pub use exec::{
    AdaptiveTelemetry, EarlyExit, ExecutionResult, QueueTelemetry, SpillTelemetry, StageTiming,
    TimingLog,
};
pub use lattice::{
    classify, fold_pair, newline_seam, sorting_order, EffectClass, EffectSet, FoldPair,
};
pub use parse::{InputSource, ParseError, Script, SourceSpan, Stage, Statement};
pub use plan::{
    planning_sample, PlannedScript, PlannedStage, Planner, PreparedScript, StageMode,
    StreamSegment, StreamSegmentKind,
};
pub use scheduler::{
    run_dataflow, run_dataflow_segments, ChunkSizing, DataflowOptions, QueueCredit,
    DEFAULT_CHUNK_BYTES, DEFAULT_QUEUE_DEPTH,
};
pub use sim::{PipelineCosts, SimParams};
pub use streaming::{run_streaming, StreamingOptions};
