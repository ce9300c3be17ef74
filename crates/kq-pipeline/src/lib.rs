//! Pipeline parsing, parallelization planning, and execution.
//!
//! This crate implements the KumQuat workflow of Figure 2: parse a shell
//! script into pipelines ([`parse`]), synthesize a combiner per stage and
//! decide which stages parallelize ([`plan`] — including the Theorem 5
//! intermediate-combiner elimination and the §2 rerun-cost heuristic),
//! execute the script in parallel ([`scheduler::run_dataflow`]) against
//! the serial oracle ([`exec::run_serial`]). The paper's performance
//! tables (`crates/bench`) time those two calls.
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
//! stages.
//!
//! # One executor, one oracle
//!
//! | executor | parallelism | barriers | role |
//! |---|---|---|---|
//! | [`exec::run_serial`] | none | every stage | the byte oracle every parallel run is checked against |
//! | [`scheduler::run_dataflow`] | one work-stealing pool of `w` threads for the *whole script* | graph properties, not thread boundaries | the executor: every statement's [`dataflow`] graph shares the same fixed pool (no per-statement spawn/teardown), independent statements overlap, barrier stages fold *while upstream still computes*, early exit tears down queued upstream work, and under a spill budget a fold holds at most its budget (see "Spill lifecycle" below) |
//!
//! Their outputs are byte-identical across the whole corpus
//! (`tests/dataflow_differential.rs`).
//!
//! The dataflow executor builds each statement's plan into a graph IR
//! ([`dataflow`]) — one node per stage, by its plan: chunk-local,
//! barrier, sequential or prefix-bounded — and executes it with a shared
//! scheduler ([`scheduler`]). Each node says what it maps and what it
//! folds by, decided in one pass over the plan's licence flags (set in one
//! place, [`plan::PlannedStatement::new`]), so the scheduler derives
//! nothing again. Four rewrites in that pass go beyond the per-stage
//! modes, all switched off together (`fuse_streamable: false`,
//! `--no-opt`): adjacent chunk-local stages
//! fuse into one node, a `sort | uniq [-c]` pair of barrier stages that
//! [`lattice::fold_pair`] licenses becomes one counting fold (see
//! "Counting rewrite" in [`dataflow`]) — which takes in the numeric `sort`
//! after it where [`lattice::count_order`] licenses closing in that
//! sort's order ("Count-order rewrite") — a rerun-combined `tr -s` whose
//! command claims a newline seam ([`kq_coreutils::Command::newline_seam`])
//! — the word splitter
//! `tr -cs A-Za-z '\n'` — runs chunk by chunk at the head of a chunk-local
//! node instead of once over its gathered input ("Seam rewrite"), and a
//! `sort` that sorts its input in an order of its own
//! ([`kq_coreutils::Command::stdin_order`]) passes its chunks to its
//! fold unsorted, the fold sorting them a run batch at a time ("Sorting
//! rewrite"). The serial oracle always runs the plan stage by stage,
//! which is what makes [`exec::run_serial`] the oracle for all four.
//!
//! # Fold finalization protocol
//!
//! The executor folds barrier-stage outputs incrementally and must answer
//! one question without a central coordinator: *who closes the fold when
//! the last piece lands?* There is no collector thread: any pool worker
//! may integrate a fold's chunk, so the close is a *claim*: a task that
//! observes `input closed && inflight == 0 && queue empty` flips the
//! node's phase to `Closing` under the node lock.
//!
//! Every node past the split runs the one task loop that asks it
//! (`scheduler::node_task`): claim a chunk, map it, integrate it in
//! stream order, close. A sequential stage is a fold like any other:
//! its map hands each chunk on raw and its fold is the paper's `rerun`
//! (`cat $* | f`), which gathers the chunks and runs the command once at
//! the close — on the empty stream when it was fed nothing. A
//! prefix-bounded stage (`head -n k`, `sed kq`) is the same fold whose
//! integration counts lines: the chunk that meets the bound cancels
//! every node above it, which clears and closes the node's input edge, so
//! the claim above fires as soon as the chunks still in flight come back
//! — each dropped as it integrates — and the close runs the command on
//! the prefix.
//!
//! Each fold is one `kq_dsl::kway::IncrementalFold`, built through its one
//! constructor over the stage combiner's members (the one `rerun` at a
//! sequential or bounded stage), a fused fold's merge and count order,
//! the node's environment and its spill config. It keeps no piece once it
//! is combined: a composite combines each pair by the first member whose
//! domain admits both (§3.2). Its `push` never fails: the first error
//! comes back at the close, which a cancelled node never reaches.
//!
//! The protocol's invariant: **every task that pops a chunk or observes
//! the closed edge re-evaluates the close condition after integrating its
//! own work** — unconditionally, not only on the path that "should" be
//! last. The condition is stable once true, so the extra checks are
//! idempotent; skipping one is how the lost-finalization race happened (a
//! task popped the final chunk, saw *its own* inflight claim still
//! counted, and only rescheduled upstream, while the concurrent observer
//! of the closed edge had already bailed on the nonzero inflight — nobody
//! checked again, and the run hung with the pool idle).
//! `tests/fold_finalize_stress.rs` hammers the window at both sequential
//! stages' rerun folds and combine folds under tiny chunks and a shallow
//! queue.
//!
//! The same count keeps the node lock short. A fold never does work
//! proportional to a run under the lock: it hands that work out
//! (`kq_dsl::kway::FoldWork`) and the scheduler runs every piece of it the
//! same way (`scheduler::run_fold_work`) — outside every lock, under the
//! work's trace span, counted in `inflight` while it is out — then takes
//! the node lock, retires the claim, times the work into
//! [`StageTiming::combine_time`] and hands the result back, and the fold
//! says what comes next. While the node collects, that work is the run
//! batches a merge fold cuts as pieces arrive (`fold-merge` spans, `seq`
//! the batch index), each run by the task whose push cut it: a worker's
//! finished map never waits behind another worker's merge, the close
//! cannot start while a batch is out, and the runs keep their batches'
//! places in the stream whatever order they come back in.
//!
//! **The closing phase.** The claiming task closes the fold, and the node
//! holds the work the fold hands out in its `Closing` queue: one pool task
//! per piece, the claiming task running the first. A merge fold closes in
//! rounds, each handed out when the last piece of the one before is back:
//! the pieces it still holds cut by bytes into run batches, so that a
//! sorting fold's raw tail is sorted by as many workers as it has batches;
//! then, once it has folded `kq_dsl::kway::FINISH_PART_BYTES` per part or
//! more — a count that never depends on `--workers` — the partition of its
//! closing merge (a `fold-partition` span: splitters sampled from the runs,
//! every run cut by binary search, no bytes moved), one merge per key range
//! (`fold-finish` spans, `seq` the part index), and the stitch of the
//! parts' outputs (a `fold-stitch` span: the parts in order, or for a fold
//! closing in count order every count's groups part by part); closed as
//! one merge on one thread, a 32 MiB sort at two workers spent 39% of its
//! wall clock there. A smaller merge fold, every other fold, and a fold
//! fed nothing
//! close in one unnumbered `fold-finish`. The fold's result turns the node
//! `Emitting` over its segments. There is no thread outside the pool and
//! no new node or edge: the graph IR, `DataflowGraph::validate` and
//! `kumquat check` do not know the phase exists. A failed piece of work
//! takes the node out of `Closing` under the lock before it reports, so
//! the statement fails once and work still out is dropped when it comes
//! back; cancellation (`cancel_upstream`, a statement error elsewhere)
//! drops the queue the same way. An emitter walks the segment list and
//! never cuts a chunk across two parts, so downstream chunk boundaries,
//! and with them every trace span identity, are equal at every worker
//! count.
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
//! [`DataflowOptions::spill`]) each barrier stage derives a per-stage
//! [`kq_dsl::SpillConfig`] for the pool's `workers` and the fold spills:
//!
//! 1. runs accumulate on the heap only while their total stays within a
//!    quarter of the budget — each batch is charged as it is cut, and one
//!    that finds no room has its run written to a temp file
//!    (`kq_io::RunWriter`) by the task that makes it, outside the node
//!    lock, and **immediately mapped back and unlinked** — the inode
//!    survives while mapped, so cleanup is structural on every exit path
//!    (success, error, cancellation, even SIGKILL once the process dies).
//!    The other three quarters are the batches in flight: a batch is cut
//!    at `budget / (4 × workers)` bytes and holds up to
//!    `kq_dsl::spill::BATCH_WORKING_SET` (3) times that while it becomes a
//!    run, so the `workers` batches the pool can be making runs of at once
//!    fit — the pool bounds the work in flight, the budget sizes it, and
//!    nothing waits;
//! 2. the closing merge then streams the k-way merge of the mapped runs
//!    through a bounded fragment sink into an output run file — one per
//!    part of the closing merge, see the closing phase above — releasing each
//!    run's consumed pages as the merge frontier passes them
//!    ([`kq_stream::ReleaseCursor`]), and maps the output back the same
//!    way — so neither the runs nor the merged result are ever fully
//!    heap-resident (planning the parts drops the pages its searches
//!    touched as it goes);
//! 3. the executor snapshots the stage's [`kq_dsl::SpillMetrics`] into
//!    [`StageTiming::spill`] ([`exec::SpillTelemetry`]), which the CLI
//!    reports as `spill: ...` notes.
//!
//! What is left outside the budget does not grow with the input: each
//! worker's merge window, and the page windows producers trail behind
//! their cursors — capped at 2 MiB under a budget — over mapped streams.
//! Mapped runs are written 256 KiB at a time, so a fault maps at most
//! that much of a run, and a merge that is done with its slice of a run
//! releases the folios its faults mapped around it: a wave of a part's
//! merge reads at most [`kq_dsl::kway::MERGE_RUN_ARITY`] runs. So a fold's
//! peak RSS is the budget plus a constant: a 256 MiB `sort` of mapped
//! input peaks at budget + at most ~45 MiB for budgets of 16 to 64 MiB on
//! two and four workers (the CI out-of-core job holds the 64 MiB,
//! four-worker case under 160 MiB; it reads ~85 MiB).
//!
//! `tests/spill_differential.rs` pins byte-identity with the serial
//! oracle under a one-byte budget (every run spills), plus the
//! no-leftover-files property across success, failure, and early-exit
//! teardowns.
//!
//! # The trace plane
//!
//! Every executor is instrumented through [`kq_trace`]: node-task spans
//! (`dataflow`/`serial` categories), graph
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

pub use cache::{cache_key, CacheStats, CombinerCache};
pub use dataflow::{DataflowGraph, DataflowNode, FoldBy, GraphFault, NodeKind, NodeMap};
pub use exec::{
    EarlyExit, ExecutionResult, QueueTelemetry, SpillTelemetry, StageTiming, TimingLog,
};
pub use lattice::{count_order, fold_pair, EffectClass, EffectSet, FoldPair};
pub use parse::{InputSource, ParseError, Script, SourceSpan, Stage, Statement};
pub use plan::{planning_sample, PlannedScript, PlannedStage, Planner, PreparedScript, StageMode};
pub use scheduler::{
    run_dataflow, run_dataflow_segments, ChunkSizing, DataflowOptions, QueueCredit,
    DEFAULT_CHUNK_BYTES, DEFAULT_QUEUE_DEPTH,
};
