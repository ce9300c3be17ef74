//! Work-stealing executor for the dataflow IR.
//!
//! The executor runs the *whole script* on one fixed pool of exactly
//! [`DataflowOptions::workers`] threads — no thread is spawned per
//! statement, stage or fold. Each statement's plan becomes a [`DataflowGraph`]
//! (see [`crate::dataflow`] for the node and edge semantics), and the unit
//! of scheduling is a *task*: "make progress at node N of statement S" —
//! process one chunk at a node (by the node's map: through its commands —
//! behind a seam stage, with the seam's `'\n'` taken off first — through
//! the hash table of its counted line order, or through nothing) and fold
//! or forward it, run a piece of work a closing fold handed out — make a
//! run of a batch, run a `rerun` fold's command once, merge one part of a
//! closing merge — or emit the next chunk of a materialized output: the
//! statement's input at the split, a fold's result anywhere else.
//! Every node but the split runs the one loop of `node_task`, and every
//! decision it acts on — the map, the fold, the bound — is read from the
//! node's [`NodeKind`], which [`DataflowGraph::build`] made from the plan's
//! licence flags; of the plan it reads only the combiner's members. A
//! sequential stage is a `rerun` fold fed its chunks raw, and a bounded
//! stage the same fold, cancelling upstream once the lines it folded meet
//! its bound.
//!
//! # Scheduling
//!
//! Tasks live in [`crossbeam::deque`] queues: each worker owns a local
//! FIFO deque and pushes follow-up work there; tasks created off-pool
//! (statement starts) land in a shared injector. An idle worker takes from
//! its own deque first, then the injector, then *steals* from a sibling.
//! Workers never block on data: a node that cannot progress (input empty,
//! or downstream edge at capacity) simply returns, and the event that
//! unblocks it — an upstream push, a downstream pop freeing a credit —
//! schedules it again. A pop schedules one task, but any number of chunks
//! may be queued behind a gated stage worker, each of whose tasks has come
//! and gone: the node counts the tasks it sent away and a task that gets
//! through the gate re-issues one of them, so none is lost however rarely
//! the consumer pops (in the unfused graph a selective `grep` between two
//! chunk-local stages pops once per dozens of chunks it is handed).
//! Sleep/wake uses a generation-counted condvar: a
//! worker records the generation *before* its final queue scan, so a task
//! pushed concurrently either shows up in the scan or bumps the
//! generation and cancels the sleep.
//!
//! # Statements run concurrently
//!
//! All statements whose dependencies are satisfied execute at once on the
//! shared pool. Dependencies are inferred conservatively from VFS redirect
//! targets: statement `j` waits for statement `i < j` when `j` may read a
//! file `i` writes (any argv word or input file matching, with `xargs`
//! treated as reading everything), when both write the same target, or
//! when `j` overwrites a file `i` may read. Everything else overlaps —
//! the per-statement pool spawn/teardown and the strict statement barrier
//! are the costs this executor removes. One observable difference from
//! the serial oracle: when a statement fails, *independent* sibling
//! statements already in flight still run to completion (their VFS writes
//! happen); the surfaced error is the lowest-indexed failing statement's.
//!
//! # Backpressure, cancellation, out-of-core
//!
//! Edges are soft-bounded at [`DataflowOptions::queue`] chunks: a
//! producer claims new input only while its output edge is below the
//! bound (in-flight results may overshoot it by the amount already
//! claimed). Early exit is the graph teardown described in
//! [`crate::dataflow`]: a satisfied bounded fold cancels every node
//! above it and *drops chunks already queued on their edges*. Splits and
//! emitters cut chunks lazily and trail a page-release hint one in-flight
//! window behind their cursor (what the edges and the workers can hold
//! between them, at least 2 MiB), so mapped multi-GB inputs stream
//! through at O(window) resident memory, with or without a spill budget.
//!
//! # Memory under a spill budget
//!
//! A fold's [`SpillConfig`](kq_dsl::SpillConfig) is derived for the
//! pool's `workers`: resident runs take a quarter of the budget, and
//! batches are cut small enough that one batch per worker — the most the
//! pool can be making runs of at once — fits in the other three quarters
//! ([`kq_dsl::spill`]); a batch whose run has no room left on the heap
//! writes it out in the task that makes it, not under the node lock.
//! The work a closing fold hands out is scheduled all at once, because a
//! task per worker is all that runs of it at a time: a part of a closing
//! merge under a budget streams through a temp file with a merge window
//! of its own.
//!
//! Byte-equality with [`run_serial`](crate::exec::run_serial) across the
//! corpus — plus multi-statement scripts with redirect dependencies — is
//! asserted by `tests/dataflow_differential.rs` and
//! `tests/multi_statement_differential.rs`.

use crate::dataflow::{DataflowGraph, FoldBy, NodeKind, NodeMap};
use crate::exec::{
    gather_files, run_chain, EarlyExit, ExecutionResult, QueueTelemetry, StageTiming, TimingLog,
};
use crate::parse::{InputSource, Script, Statement};
use crate::plan::{PlannedScript, StageMode};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use kq_coreutils::{CmdError, Command, ExecContext};
use kq_dsl::ast::{Candidate, RunOp};
use kq_dsl::eval::{CommandEnv, EvalError};
use kq_dsl::kway::{FoldWork, IncrementalFold, Piece, Step};
use kq_stream::{next_chunk_end, Bytes, IncrementalChunker, Rope};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How the dataflow executor sizes split/re-chunk pieces (the
/// `--chunk-kb` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkSizing {
    /// Every producer cuts line-aligned chunks of this many bytes for the
    /// whole run.
    Fixed(usize),
}

/// How the dataflow executor budgets per-edge queue credit (the
/// `--queue-depth` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueCredit {
    /// Every edge holds this many chunks of credit for the whole run.
    Fixed(usize),
}

/// Default per-edge credit in chunks: the `Fixed` value
/// [`DataflowOptions::default`] uses.
pub const DEFAULT_QUEUE_DEPTH: usize = 4;

/// Default fixed chunk target ([`DataflowOptions::default`], CLI
/// `--chunk-kb 64`).
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// The least distance a producer's page-release hint trails its cursor:
/// a mapped stream it cuts holds about twice its lag resident.
const MIN_RELEASE_LAG: usize = 2 << 20;

/// Tuning for the dataflow executor.
#[derive(Debug, Clone)]
pub struct DataflowOptions {
    /// Size of the shared worker pool — the *total* thread budget for the
    /// whole script, not a per-segment or per-statement figure.
    pub workers: usize,
    /// Chunk sizing for splits and for every re-chunking point (fold
    /// outputs, stage-worker re-normalization).
    pub chunk: ChunkSizing,
    /// Soft per-edge queue credit: a producer stops claiming input once
    /// its output edge holds that many chunks.
    pub queue: QueueCredit,
    /// Build the graph with the rewrites the plan licenses
    /// ([`DataflowGraph::build`]). `false` (`--no-opt`) leaves every stage
    /// its own node — same output, more edge hops; the differential suite
    /// uses it to stress the scheduler harder.
    pub fuse_streamable: bool,
    /// Spill policy for combine folds: when set, every fold by a combiner
    /// or a merge derives a per-node [`SpillConfig`](kq_dsl::SpillConfig)
    /// from it and writes sorted runs to disk once the resident run bytes
    /// would cross the budget. `None` keeps every run on the heap (the default).
    pub spill: Option<kq_dsl::SpillPolicy>,
}

impl Default for DataflowOptions {
    fn default() -> Self {
        DataflowOptions {
            workers: 4,
            chunk: ChunkSizing::Fixed(DEFAULT_CHUNK_BYTES),
            queue: QueueCredit::Fixed(DEFAULT_QUEUE_DEPTH),
            fuse_streamable: true,
            spill: None,
        }
    }
}

/// A scheduler task: make progress at node `1` of statement `0`.
type Task = (usize, usize);

/// One edge's queue. Order-preserving: producers push in stream order
/// (map nodes drain their reorder buffer under the node lock), and
/// `pop_seq` stamps each pop so consumers can restore order after
/// parallel processing.
#[derive(Default)]
struct EdgeQ {
    items: VecDeque<Bytes>,
    /// Ordinal of the next pop (equals the number of chunks ever popped).
    pop_seq: usize,
    /// Sticky end-of-stream marker, set after the producer's final push.
    closed: bool,
    /// The last chunk pushed did not end in `'\n'`. Only a stream's final
    /// chunk may: [`push_edge`] asserts it in debug builds.
    unterminated: bool,
}

struct Edge {
    q: Mutex<EdgeQ>,
    /// Mirror of `q.items.len()` for lock-free credit checks.
    len: AtomicUsize,
    /// Chunks of queue credit this edge holds for the whole run.
    credit: usize,
}

impl Edge {
    fn new(credit: usize) -> Edge {
        Edge {
            q: Mutex::new(EdgeQ::default()),
            len: AtomicUsize::new(0),
            credit,
        }
    }

    /// Lock-free credit gate: true when the edge is at capacity.
    fn check_gate(&self) -> bool {
        self.len.load(Ordering::Relaxed) >= self.credit
    }
}

/// A lazy cursor over a materialized stream: cuts line-aligned chunks on
/// demand and trails a page-release hint (`release_lag` bytes) behind. The
/// stream is a list of segments — one for an input or a command's output,
/// one per part for a fold that finished in parts — and a chunk never
/// spans two of them, so chunk boundaries are a function of the segments
/// alone.
struct Emit {
    /// What is left to cut, the segment under the cursor first. A segment
    /// is dropped once it is cut through: the chunks in flight keep its
    /// buffer alive, and a mapped part file goes away with the last one.
    segments: VecDeque<Bytes>,
    /// Bytes of the front segment already cut.
    cursor: usize,
    /// Bytes of the front segment already released.
    released: usize,
    /// Chunks cut so far — the `seq` stamp on the cut's trace span.
    chunks: usize,
}

impl Emit {
    fn new(source: impl Into<Rope>) -> Emit {
        Emit {
            segments: source.into().into_segments().into(),
            cursor: 0,
            released: 0,
            chunks: 0,
        }
    }

    fn done(&self) -> bool {
        self.segments.is_empty()
    }

    fn next_chunk(&mut self, chunk_bytes: usize, release_lag: usize) -> Bytes {
        let source = self.segments.front().expect("a stream that is not done");
        let end = next_chunk_end(source.as_bytes(), self.cursor, chunk_bytes);
        let chunk = source.slice(self.cursor..end);
        self.cursor = end;
        self.chunks += 1;
        if end == source.len() {
            // A segment is rarely long enough for the trailing release to
            // fire inside it: let go of what cutting it made resident.
            source.release_range(self.released..end);
            self.segments.pop_front();
            (self.cursor, self.released) = (0, 0);
        } else if self.cursor > self.released + 2 * release_lag {
            let upto = self.cursor - release_lag;
            source.release_range(self.released..upto);
            self.released = upto;
        }
        chunk
    }

    /// Nobody will read the rest: drop the whole resident tail.
    fn abandon(&self) {
        let mut from = self.released;
        for source in &self.segments {
            source.release_range(from..source.len());
            from = 0;
        }
    }
}

/// What a node is currently doing.
#[derive(Default)]
enum Phase<'a> {
    /// Consuming input chunks.
    #[default]
    Collecting,
    /// A fold whose input ended, closing: the work its fold handed out that
    /// no task has claimed yet. Each piece is a pool task of its own, run
    /// outside every lock.
    Closing(VecDeque<FoldWork<'a>>),
    /// Streaming a materialized output downstream, credit-gated.
    Emitting(Emit),
    /// Output edge closed (or node cancelled); nothing left to do.
    Done,
}

/// Runtime state of one node, guarded by its mutex. The lock order is
/// `node state → that node's output edge`; input-edge operations never
/// nest inside the state lock.
#[derive(Default)]
struct NodeState<'a> {
    phase: Phase<'a>,
    cancelled: bool,
    /// Chunks claimed but not yet integrated, and fold work claimed but
    /// not yet completed: work in progress outside the lock. The close
    /// waits for it to reach zero.
    inflight: usize,
    /// StageWorker: tasks that found the output edge at capacity and went
    /// away without claiming the chunk they were scheduled for. Each is
    /// owed: a task that gets through the gate schedules one of them
    /// again. A downstream pop schedules one task, which alone would leave
    /// every other chunk queued here waiting for a pop that need not come
    /// (a selective stage between this node and the next fold pushes
    /// nothing for most chunks it takes).
    deferred: usize,
    /// Reorder buffer: results keyed by input pop ordinal — raw at a
    /// fold whose map hands chunks on as they are.
    pending: BTreeMap<usize, Piece>,
    next_seq: usize,
    /// StageWorker: output re-normalization.
    chunker: Option<IncrementalChunker>,
    /// StageWorker: demand propagation ([`DataflowGraph::eager_flush`]) —
    /// complete lines ship at once.
    eager_flush: bool,
    /// Every fold: the incremental fold its [`FoldBy`] names — over the
    /// members of the stage's combiner, folding each pair by the first
    /// member whose domain admits both, by their own flags or under the
    /// node's merge order; or a `rerun` fold fed the raw chunks. It keeps
    /// no piece once combined, and goes once it returns its result.
    accum: Option<IncrementalFold<'a>>,
    /// A fold by a combiner or a merge: this node's spill counters (shared
    /// with `accum`), snapshotted into the node's StageTiming after the run.
    spill_metrics: Option<std::sync::Arc<kq_dsl::SpillMetrics>>,
    /// A bounded fold: complete lines folded so far; chunks integrated
    /// past the bound are dropped.
    seen_lines: usize,
    /// A bounded fold: input chunks folded.
    chunks_consumed: usize,
    early_exit: Option<EarlyExit>,
    // Timing fields, snapshotted into a StageTiming after the run.
    piece_times: Vec<Duration>,
    combine_time: Duration,
    bytes_in: usize,
    bytes_out: usize,
    telem: QueueTelemetry,
    gate_since: Option<Instant>,
    starve_since: Option<Instant>,
}

/// Runtime state of one statement.
struct StmtRt<'a> {
    statement: &'a Statement,
    graph: DataflowGraph,
    /// Command chain per node (empty for the split node).
    chains: Vec<Vec<&'a Command>>,
    nodes: Vec<Mutex<NodeState<'a>>>,
    /// `edges[i]` carries node `i`'s output; the last edge is the sink.
    edges: Vec<Edge>,
    error: Mutex<Option<CmdError>>,
    started: AtomicBool,
    finished: AtomicBool,
    deps_left: AtomicUsize,
    dependents: Vec<usize>,
    /// The statement's stdout (unset for a redirected statement).
    output: Mutex<Option<Rope>>,
}

impl StmtRt<'_> {
    /// Node `ni`'s command chain, as the trace and errors name it.
    fn label(&self, ni: usize) -> String {
        let chain: Vec<String> = self.chains[ni].iter().map(|c| c.display()).collect();
        chain.join(" | ")
    }
}

/// The map of a seam-headed node (see "Seam rewrite" in
/// [`crate::dataflow`]): `seq` is the chunk's pop ordinal on the node's
/// input edge, and every chunk popped before it was non-empty.
fn run_seam_chain(
    chain: &[&Command],
    seq: usize,
    chunk: Bytes,
    ctx: &ExecContext,
) -> Result<Bytes, CmdError> {
    let (head, rest) = chain.split_first().expect("a seam node has its stage");
    let mut out = head.run(chunk, ctx)?;
    if seq > 0 && out.as_bytes().first() == Some(&b'\n') {
        out = out.slice(1..out.len());
    }
    run_chain(rest, out, ctx)
}

struct IdleGate {
    generation: Mutex<u64>,
    cv: Condvar,
}

/// Shared run state: everything the worker pool operates on.
struct RunState<'a> {
    stmts: Vec<StmtRt<'a>>,
    injector: Injector<Task>,
    idle: IdleGate,
    done: AtomicBool,
    abort: AtomicBool,
    finished_count: AtomicUsize,
    ctx: &'a ExecContext,
    /// The chunk target every producer cuts at (clamped ≥ 1).
    chunk_bytes: usize,
    release_lag: usize,
}

/// Per-thread scheduling context: where this thread's follow-up tasks go.
struct Cx<'r, 'a> {
    rt: &'r RunState<'a>,
    local: Option<&'r Worker<Task>>,
}

impl<'r, 'a> Cx<'r, 'a> {
    fn schedule(&self, task: Task) {
        match self.local {
            Some(local) => local.push(task),
            None => self.rt.injector.push(task),
        }
        self.rt.signal();
    }
}

impl RunState<'_> {
    fn signal(&self) {
        let mut generation = self
            .idle
            .generation
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *generation += 1;
        self.idle.cv.notify_all();
    }
}

fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs a planned script on the shared work-stealing pool (see the
/// [module docs](self)), gathering the script's stdout into one buffer.
/// [`run_dataflow_segments`] is the same run without the gather.
pub fn run_dataflow(
    script: &Script,
    plan: &PlannedScript,
    ctx: &ExecContext,
    opts: &DataflowOptions,
) -> Result<ExecutionResult, CmdError> {
    let (output, timings) = run_dataflow_segments(script, plan, ctx, opts)?;
    Ok(ExecutionResult {
        output: output.into_bytes(),
        timings,
    })
}

/// [`run_dataflow`], with the script's stdout as the segments the
/// statements' last nodes produced: the statements' outputs in statement
/// order, each one buffer — or, behind a fold that finished in parts, one
/// buffer per part (mapped part files under a spill budget). Writing the
/// segments out one after the other never copies them onto the heap.
pub fn run_dataflow_segments(
    script: &Script,
    plan: &PlannedScript,
    ctx: &ExecContext,
    opts: &DataflowOptions,
) -> Result<(Rope, TimingLog), CmdError> {
    let workers = opts.workers.max(1);
    let ChunkSizing::Fixed(chunk_bytes) = opts.chunk;
    let chunk_bytes = chunk_bytes.max(1);
    let QueueCredit::Fixed(depth) = opts.queue;
    let queue_depth = depth.max(1);

    // Build the graphs first: the release lag and combiner environments
    // depend on their shapes.
    let graphs: Vec<DataflowGraph> = plan
        .statements
        .iter()
        .map(|p| DataflowGraph::build(p, opts.fuse_streamable))
        .collect();
    if cfg!(debug_assertions) {
        for (si, (graph, planned)) in graphs.iter().zip(&plan.statements).enumerate() {
            let problems = graph.validate(planned);
            assert!(
                problems.is_empty(),
                "statement {si} dataflow graph violates its invariants: {problems:?}"
            );
        }
    }
    let max_nodes = graphs.iter().map(|g| g.nodes.len()).max().unwrap_or(0);
    // One in-flight window: the chunks every edge and worker of the widest
    // graph can hold at once. Pages behind it are read already; a later
    // read refaults them from the page cache, as page-release is a hint
    // (see `Bytes::release_range`) that never changes bytes.
    let release_lag = chunk_bytes
        .saturating_mul(queue_depth + workers)
        .saturating_mul(max_nodes + 2)
        .max(MIN_RELEASE_LAG);

    // Combiner environments — and the `rerun` combiner of the sequential
    // and bounded stages — live outside the node states so the
    // incremental folds (which borrow them) can be shared by the pool.
    let rerun = [Candidate::run(RunOp::Rerun)];
    let envs: Vec<Vec<Option<CommandEnv<'_>>>> = script
        .statements
        .iter()
        .zip(&graphs)
        .map(|(statement, graph)| {
            graph
                .nodes
                .iter()
                .map(|node| match node.kind {
                    NodeKind::Split | NodeKind::StageWorker { .. } => None,
                    NodeKind::Fold { .. } => Some(CommandEnv {
                        command: &statement.stages[node.stages.start].command,
                        ctx,
                    }),
                })
                .collect()
        })
        .collect();

    let mut stmts: Vec<StmtRt<'_>> = Vec::with_capacity(script.statements.len());
    for (si, (statement, graph)) in script.statements.iter().zip(graphs).enumerate() {
        let chains: Vec<Vec<&Command>> = graph
            .nodes
            .iter()
            .map(|node| {
                node.stages
                    .clone()
                    .map(|i| &statement.stages[i].command)
                    .collect()
            })
            .collect();
        let eager_flush = graph.eager_flush();
        let nodes: Vec<Mutex<NodeState<'_>>> = graph
            .nodes
            .iter()
            .enumerate()
            .map(|(ni, node)| {
                let mut state = NodeState::default();
                let env = envs[si][ni].as_ref();
                match node.kind {
                    NodeKind::Split => {}
                    NodeKind::StageWorker { .. } => {
                        state.chunker = Some(IncrementalChunker::new(chunk_bytes));
                        state.eager_flush = eager_flush[ni];
                    }
                    NodeKind::Fold {
                        by: FoldBy::Rerun { .. },
                        ..
                    } => {
                        let env = env.expect("fold env");
                        state.accum = Some(IncrementalFold::over(&rerun, None, env, None));
                    }
                    NodeKind::Fold { by, .. } => {
                        let StageMode::Parallel { combiner, .. } =
                            &plan.statements[si].stages[node.stages.start].mode
                        else {
                            unreachable!("combine folds are parallel stages");
                        };
                        let env = env.expect("fold env");
                        // Each fold gets its own config so the metrics
                        // counters are per-node, not script-global; every
                        // worker of the pool may make one of its runs.
                        let spill = opts.spill.as_ref().map(|p| p.stage_config(workers));
                        state.spill_metrics = spill.as_ref().map(|cfg| cfg.metrics.clone());
                        let order = match by {
                            FoldBy::Merge { order, count } => Some((order, count)),
                            _ => None,
                        };
                        let members = &combiner.members;
                        state.accum = Some(IncrementalFold::over(members, order, env, spill));
                    }
                }
                Mutex::new(state)
            })
            .collect();
        let edges = (0..graph.nodes.len())
            .map(|_| Edge::new(queue_depth))
            .collect();
        stmts.push(StmtRt {
            statement,
            graph,
            chains,
            nodes,
            edges,
            error: Mutex::new(None),
            started: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            deps_left: AtomicUsize::new(0),
            dependents: Vec::new(),
            output: Mutex::new(None),
        });
    }

    // Conservative cross-statement dependencies over VFS redirect targets.
    let deps = statement_deps(script);
    for (j, dj) in deps.iter().enumerate() {
        stmts[j].deps_left.store(dj.len(), Ordering::Relaxed);
        for &i in dj {
            stmts[i].dependents.push(j);
        }
    }

    // Trace plane: one graph meta per node (the Chrome exporter and the
    // critical-path report key their node tracks on these) and one dep
    // meta per cross-statement edge.
    if kq_trace::enabled() {
        for (si, stmt) in stmts.iter().enumerate() {
            for (ni, node) in stmt.graph.nodes.iter().enumerate() {
                let kind = match node.kind {
                    NodeKind::Split => "split",
                    NodeKind::StageWorker { .. } => "worker",
                    NodeKind::Fold {
                        by: FoldBy::Rerun { bound: None },
                        ..
                    } => "gather",
                    NodeKind::Fold {
                        by: FoldBy::Rerun { bound: Some(_) },
                        ..
                    } => "bounded",
                    NodeKind::Fold { .. } => "fold",
                };
                kq_trace::meta("graph", kind)
                    .si(si)
                    .ni(ni)
                    .label(stmt.label(ni))
                    .emit();
            }
            for &d in &deps[si] {
                kq_trace::meta("graph", "dep").si(si).seq(d).emit();
            }
        }
    }
    let _run_span = kq_trace::span("dataflow", "run").v(stmts.len() as f64);

    let total = stmts.len();
    let rt = RunState {
        stmts,
        injector: Injector::new(),
        idle: IdleGate {
            generation: Mutex::new(0),
            cv: Condvar::new(),
        },
        done: AtomicBool::new(total == 0),
        abort: AtomicBool::new(false),
        finished_count: AtomicUsize::new(0),
        ctx,
        chunk_bytes,
        release_lag,
    };

    // Seed every dependency-free statement, then let the pool run.
    {
        let cx = Cx {
            rt: &rt,
            local: None,
        };
        for si in 0..total {
            if rt.stmts[si].deps_left.load(Ordering::Relaxed) == 0 {
                start_statement(&cx, si);
            }
        }
    }

    let locals: Vec<Worker<Task>> = (0..workers).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<Task>> = locals.iter().map(Worker::stealer).collect();
    // The pool records into the caller's trace session, if it has one.
    let trace = kq_trace::current();
    std::thread::scope(|scope| {
        for (idx, local) in locals.into_iter().enumerate() {
            let rt = &rt;
            let stealers = &stealers;
            scope.spawn(move || {
                let _trace = trace.attach();
                worker_loop(rt, local, stealers, idx)
            });
        }
    });

    // Lowest-indexed statement error wins (closest to serial, which stops
    // at the first failing statement).
    for stmt in &rt.stmts {
        if let Some(e) = lock(&stmt.error).take() {
            return Err(e);
        }
    }

    let mut output = Rope::new();
    let mut timings = TimingLog::default();
    for (si, stmt) in rt.stmts.iter().enumerate() {
        output.extend(
            lock(&stmt.output)
                .take()
                .unwrap_or_default()
                .into_segments(),
        );
        let stages = snapshot_timings(stmt);
        if kq_trace::enabled() {
            emit_node_counters(si, &stages, stmt);
        }
        timings.statements.push(stages);
    }
    Ok((output, timings))
}

/// One statement's VFS accesses, as the dependency pass
/// ([`statement_deps`]) models them and `kumquat check`'s hazard lints
/// read them: every stage's [`effects`](crate::lattice::effects) — any
/// argv word may name a file the command reads (`comm - dict`, `paste a
/// b`), and `xargs` reads paths from its *data*, which no static scan can
/// bound — plus the statement's input files and its `>` target.
pub struct VfsAccess {
    /// The statement's input files and its commands' argv words.
    pub reads: Vec<String>,
    /// A stage is `xargs`: the statement may read any path.
    pub reads_everything: bool,
    /// The statement's `>` redirection target.
    pub write: Option<String>,
}

impl VfsAccess {
    /// The accesses of every statement of `script`, in statement order.
    pub fn of(script: &Script) -> Vec<VfsAccess> {
        script
            .statements
            .iter()
            .map(|st| {
                let mut access = VfsAccess {
                    reads: match &st.input {
                        InputSource::Files(files) => files.clone(),
                        InputSource::None => Vec::new(),
                    },
                    reads_everything: false,
                    write: st.output.clone(),
                };
                for stage in &st.stages {
                    let effects = crate::lattice::effects(&stage.command);
                    access.reads.extend(effects.reads);
                    access.reads_everything |= effects.reads_everything;
                }
                access
            })
            .collect()
    }

    /// The statement may read `path`.
    pub fn may_read(&self, path: &str) -> bool {
        self.reads_everything || self.reads.iter().any(|r| r == path)
    }
}

/// Conservative read/write dependency analysis over VFS paths
/// ([`VfsAccess`]): `deps[j]` lists every earlier statement `j` must wait
/// for — one that writes what `j` may read, writes `j`'s target, or may
/// read `j`'s target.
pub fn statement_deps(script: &Script) -> Vec<Vec<usize>> {
    let access = VfsAccess::of(script);
    (0..access.len())
        .map(|j| {
            (0..j)
                .filter(|&i| {
                    let (ai, aj) = (&access[i], &access[j]);
                    let raw = ai.write.as_ref().is_some_and(|w| aj.may_read(w));
                    let waw = ai.write.is_some() && ai.write == aj.write;
                    let war = aj.write.as_ref().is_some_and(|w| ai.may_read(w));
                    raw || waw || war
                })
                .collect()
        })
        .collect()
}

fn worker_loop(rt: &RunState<'_>, local: Worker<Task>, stealers: &[Stealer<Task>], idx: usize) {
    let cx = Cx {
        rt,
        local: Some(&local),
    };
    loop {
        while let Some(task) = find_task(rt, &local, stealers, idx) {
            run_contained(&cx, task);
        }
        // Record the generation *before* the confirming scan: a task
        // pushed after this read bumps the generation and cancels the
        // sleep; a task pushed before it is visible to the scan.
        let generation = *lock(&rt.idle.generation);
        if rt.done.load(Ordering::Acquire) {
            break;
        }
        if let Some(task) = find_task(rt, &local, stealers, idx) {
            run_contained(&cx, task);
            continue;
        }
        let mut guard = lock(&rt.idle.generation);
        while *guard == generation && !rt.done.load(Ordering::Acquire) {
            guard = rt.idle.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

fn find_task(
    rt: &RunState<'_>,
    local: &Worker<Task>,
    stealers: &[Stealer<Task>],
    idx: usize,
) -> Option<Task> {
    if let Some(task) = local.pop() {
        return Some(task);
    }
    loop {
        match rt.injector.steal() {
            Steal::Success(task) => return Some(task),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    for (k, stealer) in stealers.iter().enumerate() {
        if k == idx {
            continue;
        }
        loop {
            match stealer.steal() {
                Steal::Success(task) => return Some(task),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

/// [`run_task`], with a panic turned into its statement's error naming
/// the stage: the worker lives on, and [`stmt_error`] finishes the
/// statement with its other tasks in flight, so the run returns the error
/// instead of waiting for a task that will never end.
fn run_contained(cx: &Cx<'_, '_>, task: Task) {
    let Err(panic) = catch_unwind(AssertUnwindSafe(|| run_task(cx, task))) else {
        return;
    };
    let (si, ni) = task;
    let what = match (panic.downcast_ref::<&str>(), panic.downcast_ref::<String>()) {
        (Some(s), _) => s,
        (_, Some(s)) => s.as_str(),
        _ => "a panic",
    };
    let stage = cx.rt.stmts[si].label(ni);
    stmt_error(cx, si, CmdError::new(stage, format!("panicked: {what}")));
}

fn run_task(cx: &Cx<'_, '_>, (si, ni): Task) {
    match cx.rt.stmts[si].graph.nodes[ni].kind {
        // The split emits the statement's input.
        NodeKind::Split => emit_task(cx, si, ni),
        _ => node_task(cx, si, ni),
    }
}

/// Trace plane: the per-node queue/stall/volume telemetry as counter
/// records, emitted once per node after the pool has drained — and, at a
/// counting or sorting fold, how many chunks its map handed on raw.
/// `stages[k]` is node `k + 1` (the split has no StageTiming).
fn emit_node_counters(si: usize, stages: &[StageTiming], stmt: &StmtRt<'_>) {
    for (k, t) in stages.iter().enumerate() {
        let ni = k + 1;
        let mut counters = vec![("bytes-in", t.bytes_in), ("bytes-out", t.bytes_out)];
        if let Some(q) = &t.queue {
            counters.extend([
                ("tasks", q.tasks),
                ("max-queued", q.max_queued),
                ("send-stall-ns", q.send_stall.as_nanos() as usize),
                ("recv-stall-ns", q.recv_stall.as_nanos() as usize),
            ]);
            // A sorting or counting fold: a merge fold whose map may hand
            // chunks on raw.
            if let NodeKind::Fold {
                map: NodeMap::Raw | NodeMap::Counted,
                by: FoldBy::Merge { .. },
            } = stmt.graph.nodes[ni].kind
            {
                counters.push(("raw-pieces", q.raw_pieces));
            }
        }
        for (name, value) in counters {
            kq_trace::counter("dataflow", name, value as f64)
                .si(si)
                .ni(ni)
                .emit();
        }
    }
}

/// Starts a statement once its dependencies are settled: gathers the
/// input (which may be a file an earlier statement just redirected) and
/// schedules the split.
fn start_statement(cx: &Cx<'_, '_>, si: usize) {
    let stmt = &cx.rt.stmts[si];
    if stmt.started.swap(true, Ordering::AcqRel) {
        return;
    }
    let gather_span = kq_trace::span("dataflow", "gather-input").si(si);
    let gathered = gather_files(&stmt.statement.input, cx.rt.ctx);
    gather_span.done();
    match gathered {
        Err(e) => stmt_error(cx, si, e),
        Ok(input) => {
            if stmt.statement.stages.is_empty() {
                // Pure plumbing (`cat a > b`): the input stream is the
                // output, handle-through without touching the pool.
                finish_statement(cx, si, Some(input.into()));
            } else {
                lock(&stmt.nodes[0]).phase = Phase::Emitting(Emit::new(input));
                cx.schedule((si, 0));
            }
        }
    }
}

/// Pushes one chunk onto edge `i` (caller holds the producing node's
/// state lock, preserving stream order). No producer cuts an empty chunk
/// or one that ends mid-line before the stream does ([`Emit::next_chunk`]
/// and [`IncrementalChunker`] never do), and a seam node relies on it: its
/// chunk `seq > 0` follows `seq` non-empty newline-terminated ones.
fn push_edge(stmt: &StmtRt<'_>, i: usize, chunk: Bytes) {
    debug_assert!(!chunk.is_empty(), "an edge never carries an empty chunk");
    let mut q = lock(&stmt.edges[i].q);
    debug_assert!(!q.closed, "push after close");
    debug_assert!(!q.unterminated, "only a stream's last chunk ends mid-line");
    q.unterminated = !chunk.ends_with_newline();
    q.items.push_back(chunk);
    stmt.edges[i].len.fetch_add(1, Ordering::Relaxed);
}

/// Schedules `count` consumer tasks for node `ni` (one per pushed chunk).
/// Pushes onto the sink edge have no consumer node — nothing to schedule.
fn schedule_pushes(cx: &Cx<'_, '_>, si: usize, ni: usize, count: usize) {
    if ni >= cx.rt.stmts[si].graph.nodes.len() {
        return;
    }
    for _ in 0..count {
        cx.schedule((si, ni));
    }
}

/// Closes edge `i`: end-of-stream for its consumer. Closing the sink edge
/// completes the statement.
fn close_edge(cx: &Cx<'_, '_>, si: usize, i: usize) {
    let stmt = &cx.rt.stmts[si];
    lock(&stmt.edges[i].q).closed = true;
    if i + 1 == stmt.graph.nodes.len() {
        let sink = drain_sink(stmt, i);
        finish_statement(cx, si, Some(sink));
    } else {
        cx.schedule((si, i + 1));
    }
}

/// The chunks that reached the sink, in order. Chunks cut from one buffer
/// join back into one segment ([`Rope::push`]), so a statement's output
/// has a segment per buffer the last node emitted — one per part for a
/// fold that finished in parts — not one per chunk.
fn drain_sink(stmt: &StmtRt<'_>, i: usize) -> Rope {
    let mut q = lock(&stmt.edges[i].q);
    let rope = q.items.drain(..).collect();
    stmt.edges[i].len.store(0, Ordering::Relaxed);
    rope
}

/// Pops one chunk (with its order stamp and the pre-pop queue length)
/// from node `ni`'s input edge; `None` when the edge is empty.
fn pop_input(stmt: &StmtRt<'_>, ni: usize) -> Option<(usize, Bytes, usize)> {
    let edge = &stmt.edges[ni - 1];
    let mut q = lock(&edge.q);
    let len_at = q.items.len();
    let chunk = q.items.pop_front()?;
    let seq = q.pop_seq;
    q.pop_seq += 1;
    edge.len.fetch_sub(1, Ordering::Relaxed);
    Some((seq, chunk, len_at))
}

/// One task at any node but the split: claim one input chunk, map it
/// outside every lock (by the node's [`NodeMap`]), integrate the result in
/// input order — forward it at a stage worker, fold it anywhere else — and
/// finalize when the input is exhausted.
///
/// A `rerun` fold maps nothing; a bounded one counts the lines it folds
/// and, once they meet the bound, cancels everything upstream. Integration
/// under the node lock is O(pieces): a run batch the fold hands out
/// ([`IncrementalFold::push`]) is run after the lock is dropped and
/// counts as `inflight` until it is completed (see "Fold finalization
/// protocol" in the [crate docs](crate)).
///
/// A task that finds the node past collecting continues whatever phase it
/// is in: the emission of a combined output, or the next piece of a
/// closing fold's work ([`closing_task`]).
fn node_task(cx: &Cx<'_, '_>, si: usize, ni: usize) {
    let stmt = &cx.rt.stmts[si];
    let node = &stmt.graph.nodes[ni];
    let is_worker = matches!(node.kind, NodeKind::StageWorker { .. });
    let bound = match node.kind {
        NodeKind::Fold {
            by: FoldBy::Rerun { bound },
            ..
        } => bound,
        _ => None,
    };
    let last = ni + 1 == stmt.graph.nodes.len();
    let reissue = {
        let mut st = lock(&stmt.nodes[ni]);
        if st.cancelled {
            return;
        }
        match st.phase {
            Phase::Collecting => {}
            // A credit-freed wakeup can land while the fold's combined
            // output is streaming out: continue the emission.
            Phase::Emitting(_) => {
                drop(st);
                emit_task(cx, si, ni);
                return;
            }
            Phase::Closing(_) => {
                drop(st);
                closing_task(cx, si, ni);
                return;
            }
            Phase::Done => return,
        }
        // Credit gate: stage workers forward chunk-per-chunk, so claiming
        // input while downstream is full only grows the overshoot. Folds
        // consume everything before emitting — no gate.
        if is_worker && !last && stmt.edges[ni].check_gate() {
            st.gate_since.get_or_insert_with(Instant::now);
            st.deferred += 1;
            return;
        }
        if let Some(gated) = st.gate_since.take() {
            st.telem.send_stall += gated.elapsed();
        }
        st.inflight += 1;
        // Through the gate: one of the tasks it sent away comes back.
        let owed = st.deferred > 0;
        st.deferred -= usize::from(owed);
        owed
    };
    if reissue {
        cx.schedule((si, ni));
    }
    let (seq, chunk, len_at) = match pop_input(stmt, ni) {
        Some(popped) => popped,
        None => {
            let mut st = lock(&stmt.nodes[ni]);
            st.inflight -= 1;
            st.starve_since.get_or_insert_with(Instant::now);
            drop(st);
            maybe_finalize(cx, si, ni);
            return;
        }
    };
    // The pop freed one credit upstream.
    cx.schedule((si, ni - 1));
    let span = kq_trace::span("dataflow", "map")
        .si(si)
        .ni(ni)
        .seq(seq)
        .v(chunk.len() as f64);
    let t0 = Instant::now();
    let chain = &stmt.chains[ni];
    let result = match node.kind {
        NodeKind::StageWorker { seam: true } => {
            run_seam_chain(chain, seq, chunk.clone(), cx.rt.ctx).map(Piece::Output)
        }
        NodeKind::Fold {
            map: NodeMap::Raw, ..
        } => Ok(Piece::Raw(chunk.clone())),
        NodeKind::Fold {
            map: NodeMap::Counted,
            by: FoldBy::Merge { order, .. },
        } => Ok(order
            .count_bytes(&chunk)
            .map_or_else(|| Piece::Raw(chunk.clone()), Piece::Output)),
        _ => run_chain(chain, chunk.clone(), cx.rt.ctx).map(Piece::Output),
    };
    let dur = t0.elapsed();
    span.done();

    let mut pushed = 0usize;
    let mut batches = Vec::new();
    let mut satisfied = None;
    {
        let mut st = lock(&stmt.nodes[ni]);
        st.inflight -= 1;
        if st.cancelled {
            return;
        }
        if let Some(starved) = st.starve_since.take() {
            st.telem.recv_stall += starved.elapsed();
        }
        st.telem.tasks += 1;
        st.telem.max_queued = st.telem.max_queued.max(len_at);
        record_piece(&mut st.piece_times, seq, dur);
        st.bytes_in += chunk.len();
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                drop(st);
                stmt_error(cx, si, e);
                return;
            }
        };
        st.telem.raw_pieces += usize::from(matches!(out, Piece::Raw(_)));
        st.pending.insert(seq, out);
        while let Some(ready) = {
            let next = st.next_seq;
            st.pending.remove(&next)
        } {
            st.next_seq += 1;
            if is_worker {
                let ready = ready.into_bytes();
                st.bytes_out += ready.len();
                let eager_flush = st.eager_flush;
                let chunker = st.chunker.as_mut().expect("stage worker chunker");
                let mut outgoing = chunker.push(ready);
                if eager_flush {
                    outgoing.extend(chunker.flush_pending());
                }
                for c in outgoing {
                    push_edge(stmt, ni, c);
                    pushed += 1;
                }
            } else if bound.is_some_and(|lines| st.seen_lines >= lines) {
                // Past a met bound: a chunk that was in flight, dropped.
            } else {
                if bound.is_some() {
                    st.seen_lines += ready.bytes().count_newlines();
                    st.chunks_consumed += 1;
                }
                let span = kq_trace::span("dataflow", "fold-push")
                    .si(si)
                    .ni(ni)
                    .seq(st.next_seq - 1);
                let t0 = Instant::now();
                let batch = st.accum.as_mut().expect("fold accum").push(ready);
                let elapsed = t0.elapsed();
                span.done();
                st.combine_time += elapsed;
                if let Some(batch) = batch {
                    st.inflight += 1;
                    batches.push(batch);
                }
            }
        }
        // The bound is met once: by the chunk that meets it, or — a bound
        // of zero lines — by the first to arrive.
        if bound.is_some_and(|lines| st.seen_lines >= lines) && st.early_exit.is_none() {
            let chunks = st.chunks_consumed;
            st.early_exit = Some(EarlyExit {
                stage: node.stages.start,
                chunks,
            });
            satisfied = Some(chunks);
        }
    }
    schedule_pushes(cx, si, ni + 1, pushed);
    if let Some(chunks) = satisfied {
        kq_trace::instant("dataflow", "early-exit")
            .si(si)
            .ni(ni)
            .v(chunks as f64)
            .emit();
        cancel_upstream(cx, si, ni);
    }
    for batch in batches {
        let next = run_fold_work(cx, si, ni, batch);
        take_step(cx, si, ni, next);
    }
    maybe_finalize(cx, si, ni);
}

/// Finalizes a node once its input is closed, drained, and no claims are
/// in flight — a condition that is stable once true (`closed` is sticky
/// and set after the producer's last push, or by the cancellation a met
/// bound makes).
fn maybe_finalize(cx: &Cx<'_, '_>, si: usize, ni: usize) {
    let stmt = &cx.rt.stmts[si];
    {
        let q = lock(&stmt.edges[ni - 1].q);
        if !q.closed || !q.items.is_empty() {
            return;
        }
    }
    let node = &stmt.graph.nodes[ni];
    if matches!(node.kind, NodeKind::StageWorker { .. }) {
        let mut pushed = 0usize;
        {
            let mut st = lock(&stmt.nodes[ni]);
            if st.cancelled || !matches!(st.phase, Phase::Collecting) || st.inflight > 0 {
                return;
            }
            debug_assert!(st.pending.is_empty(), "gap in integrated sequence");
            for c in st.chunker.take().expect("stage worker chunker").finish() {
                push_edge(stmt, ni, c);
                pushed += 1;
            }
            st.phase = Phase::Done;
        }
        schedule_pushes(cx, si, ni + 1, pushed);
        close_edge(cx, si, ni);
    } else {
        close_fold(cx, si, ni);
    }
}

/// Closes a fold whose input is exhausted and whose work is all back: the
/// node turns `Closing`, and the task acts on the fold's first step.
fn close_fold(cx: &Cx<'_, '_>, si: usize, ni: usize) {
    let next = {
        let mut st = lock(&cx.rt.stmts[si].nodes[ni]);
        if st.cancelled || !matches!(st.phase, Phase::Collecting) || st.inflight > 0 {
            return;
        }
        st.phase = Phase::Closing(VecDeque::new());
        let step = st.accum.as_mut().expect("fold accum").close();
        queue_step(&mut st, step)
    };
    take_step(cx, si, ni, next);
}

/// One task of a closing fold: claim the next piece of work its fold
/// handed out and run it ([`run_fold_work`]).
fn closing_task(cx: &Cx<'_, '_>, si: usize, ni: usize) {
    let work = {
        let mut st = lock(&cx.rt.stmts[si].nodes[ni]);
        // A cancelled node is `Done`: its queued work went with the phase.
        let Phase::Closing(queue) = &mut st.phase else {
            return;
        };
        let Some(work) = queue.pop_front() else {
            return;
        };
        st.inflight += 1;
        work
    };
    let next = run_fold_work(cx, si, ni, work);
    take_step(cx, si, ni, next);
}

/// Runs a piece of a fold's work outside every lock, under its trace
/// span, then retires its `inflight` claim, times it into
/// `combine_time` and hands the result back to the fold under the node
/// lock — unless the node was cancelled meanwhile, or its fold already
/// returned its result, and the result is dropped.
fn run_fold_work<'a>(cx: &Cx<'_, 'a>, si: usize, ni: usize, work: FoldWork<'a>) -> Next {
    let (name, seq) = work.span();
    let span = kq_trace::span("dataflow", name).si(si).ni(ni);
    let span = match seq {
        Some(seq) => span.seq(seq),
        None => span,
    };
    let t0 = Instant::now();
    let done = work.run();
    let elapsed = t0.elapsed();
    span.done();
    let mut st = lock(&cx.rt.stmts[si].nodes[ni]);
    st.inflight -= 1;
    st.combine_time += elapsed;
    if st.cancelled {
        return Next::Nothing;
    }
    let Some(fold) = st.accum.as_mut() else {
        return Next::Nothing;
    };
    let step = fold.complete(done);
    queue_step(&mut st, step)
}

/// What a task does after a fold's step, once the node lock is dropped.
enum Next {
    Nothing,
    /// Claim this many pieces of work from the closing queue: one here,
    /// the rest as tasks of their own.
    Claim(usize),
    Emit,
    Fail(EvalError),
}

/// Acts on a fold's step under the node lock: queues its work, or — when
/// the fold returned its result — leaves `Closing` for `Emitting` or, on
/// an error, `Done`, so that one failure fails the statement once.
fn queue_step<'a>(st: &mut NodeState<'a>, step: Step<'a>) -> Next {
    match step {
        Step::Wait => Next::Nothing,
        Step::Work(work) => {
            let Phase::Closing(queue) = &mut st.phase else {
                unreachable!("a fold hands out closing work once closed");
            };
            let count = work.len();
            queue.extend(work);
            Next::Claim(count)
        }
        Step::Done(result) => {
            st.accum = None;
            match result {
                Ok(combined) => {
                    st.bytes_out = combined.len();
                    st.phase = Phase::Emitting(Emit::new(combined));
                    Next::Emit
                }
                Err(e) => {
                    st.phase = Phase::Done;
                    Next::Fail(e)
                }
            }
        }
    }
}

/// Does what [`queue_step`] left to do with the lock dropped.
fn take_step(cx: &Cx<'_, '_>, si: usize, ni: usize, next: Next) {
    match next {
        Next::Nothing => {}
        Next::Claim(count) => {
            for _ in 1..count {
                cx.schedule((si, ni));
            }
            closing_task(cx, si, ni);
        }
        Next::Emit => emit_task(cx, si, ni),
        Next::Fail(e) => stmt_error(cx, si, fold_error(&cx.rt.stmts[si], ni, e)),
    }
}

/// A fold's error: the command's own when the command failed, as the
/// serial run reports it, else attributed to the fold's command.
fn fold_error(stmt: &StmtRt<'_>, ni: usize, e: EvalError) -> CmdError {
    match e {
        EvalError::Run(e) => e,
        e => CmdError::new(stmt.chains[ni][0].display(), e.to_string()),
    }
}

/// One emit quantum: stream a materialized output downstream as lazily
/// cut chunks, stopping at the credit bound (a downstream pop reschedules
/// us) and closing the edge at the end. The split is the emitter of the
/// statement's input, and its chunks are `split` spans.
fn emit_task(cx: &Cx<'_, '_>, si: usize, ni: usize) {
    let stmt = &cx.rt.stmts[si];
    let last = ni + 1 == stmt.graph.nodes.len();
    let mut pushed = 0usize;
    {
        let mut st = lock(&stmt.nodes[ni]);
        if st.cancelled {
            return;
        }
        loop {
            if !matches!(st.phase, Phase::Emitting(_)) {
                return;
            }
            if matches!(&st.phase, Phase::Emitting(emit) if emit.done()) {
                st.phase = Phase::Done;
                break;
            }
            if !last && stmt.edges[ni].check_gate() {
                st.gate_since.get_or_insert_with(Instant::now);
                drop(st);
                schedule_pushes(cx, si, ni + 1, pushed);
                return;
            }
            if let Some(gated) = st.gate_since.take() {
                st.telem.send_stall += gated.elapsed();
            }
            let Phase::Emitting(emit) = &mut st.phase else {
                unreachable!()
            };
            let name = if ni == 0 { "split" } else { "emit" };
            let span = kq_trace::span("dataflow", name)
                .si(si)
                .ni(ni)
                .seq(emit.chunks);
            let chunk = emit.next_chunk(cx.rt.chunk_bytes, cx.rt.release_lag);
            span.v(chunk.len() as f64).done();
            push_edge(stmt, ni, chunk);
            pushed += 1;
        }
    }
    if !last {
        schedule_pushes(cx, si, ni + 1, pushed);
    }
    close_edge(cx, si, ni);
}

/// Early-exit teardown: a satisfied bound (or a failing statement) marks
/// every node above `upto` cancelled and drops the chunks already queued
/// on their edges — see the cancellation matrix in [`crate::dataflow`].
fn cancel_upstream(cx: &Cx<'_, '_>, si: usize, upto: usize) {
    kq_trace::instant("dataflow", "cancel")
        .si(si)
        .v(upto as f64)
        .emit();
    let stmt = &cx.rt.stmts[si];
    for k in 0..upto {
        let mut st = lock(&stmt.nodes[k]);
        st.cancelled = true;
        if let Phase::Emitting(emit) = &st.phase {
            // Nobody reads the rest of this stream: drop the resident
            // tail of a mapped source now.
            emit.abandon();
        }
        st.phase = Phase::Done;
    }
    for e in 0..upto {
        let mut q = lock(&stmt.edges[e].q);
        q.items.clear();
        q.closed = true;
        stmt.edges[e].len.store(0, Ordering::Relaxed);
    }
}

/// Records a statement failure (first error wins), tears the whole
/// statement down, and aborts statements that have not started yet.
fn stmt_error(cx: &Cx<'_, '_>, si: usize, err: CmdError) {
    let stmt = &cx.rt.stmts[si];
    {
        let mut slot = lock(&stmt.error);
        if slot.is_none() {
            *slot = Some(err);
        }
    }
    cancel_upstream(cx, si, stmt.graph.nodes.len());
    {
        let mut q = lock(&stmt.edges[stmt.graph.nodes.len() - 1].q);
        q.items.clear();
        q.closed = true;
    }
    cx.rt.abort.store(true, Ordering::Release);
    finish_statement(cx, si, None);
    // Statements that never started will never be needed: the run's
    // result is this error. Running siblings finish on their own.
    for other in 0..cx.rt.stmts.len() {
        if !cx.rt.stmts[other].started.swap(true, Ordering::AcqRel) {
            finish_statement(cx, other, None);
        }
    }
}

/// Completes a statement: stores/redirects its output, releases
/// dependents, and — when it is the last one — shuts the pool down.
fn finish_statement(cx: &Cx<'_, '_>, si: usize, output: Option<Rope>) {
    let stmt = &cx.rt.stmts[si];
    if stmt.finished.swap(true, Ordering::AcqRel) {
        return;
    }
    kq_trace::instant("dataflow", "stmt-finish").si(si).emit();
    if let Some(out) = output {
        match &stmt.statement.output {
            // Redirection stores the shared slice — no copy, unless the
            // output is several buffers, which gather once into the one
            // the VFS keeps — and must land before any dependent statement
            // starts reading.
            Some(target) => cx.rt.ctx.vfs.write(target.clone(), out.into_bytes()),
            None => *lock(&stmt.output) = Some(out),
        }
        for &d in &stmt.dependents {
            if cx.rt.stmts[d].deps_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                start_statement(cx, d);
            }
        }
    }
    if cx.rt.finished_count.fetch_add(1, Ordering::AcqRel) + 1 == cx.rt.stmts.len() {
        cx.rt.done.store(true, Ordering::Release);
        cx.rt.signal();
    }
}

/// Builds the per-node [`StageTiming`]s after the pool has drained.
fn snapshot_timings(stmt: &StmtRt<'_>) -> Vec<StageTiming> {
    let mut out = Vec::with_capacity(stmt.graph.nodes.len().saturating_sub(1));
    for ni in 1..stmt.graph.nodes.len() {
        let st = lock(&stmt.nodes[ni]);
        out.push(StageTiming {
            label: stmt.label(ni),
            piece_times: st.piece_times.clone(),
            combine_time: st.combine_time,
            bytes_in: st.bytes_in,
            bytes_out: st.bytes_out,
            early_exit: st.early_exit,
            queue: Some(st.telem),
            spill: st
                .spill_metrics
                .as_deref()
                .map(crate::exec::SpillTelemetry::from_metrics),
        });
    }
    out
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
        check_on(script_text, &make_input(500), chunk_bytes, &[1, 3]);
    }

    /// Runs `script_text` over `input` at `/in.txt` on every worker count
    /// in `sweep`, fused and unfused, and asserts byte equality with serial
    /// — and, at every bounded stage that exits early, that the chunks its
    /// early exit counts are the chunks it folded (its `fold-push` spans).
    fn check_on(script_text: &str, input: &str, chunk_bytes: usize, sweep: &[usize]) {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script(script_text, &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", input);
        let serial = run_serial(&script, &ctx).unwrap();
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &make_input(100));
        for &workers in sweep {
            for queue_depth in [1, 4] {
                for fuse in [true, false] {
                    let opts = DataflowOptions {
                        workers,
                        chunk: ChunkSizing::Fixed(chunk_bytes),
                        queue: QueueCredit::Fixed(queue_depth),
                        fuse_streamable: fuse,
                        spill: None,
                    };
                    // Redirect targets persist in the VFS: reset them by
                    // using a fresh context per configuration is not
                    // needed — serial already wrote the same bytes.
                    let session = kq_trace::TraceSession::start();
                    let got = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
                    let records = session.finish();
                    let at = format!(
                        "{script_text:?} (w={workers}, chunk={chunk_bytes}, \
                         depth={queue_depth}, fuse={fuse})"
                    );
                    assert_eq!(got.output, serial.output, "{at} differs");
                    for (si, stages) in got.timings.statements.iter().enumerate() {
                        // `stages[k]` is node `k + 1`.
                        for (k, stage) in stages.iter().enumerate() {
                            let Some(early) = stage.early_exit else {
                                continue;
                            };
                            let folded = records
                                .iter()
                                .filter(|r| {
                                    r.name == "fold-push"
                                        && r.si == Some(si as u64)
                                        && r.ni == Some(k as u64 + 1)
                                })
                                .count();
                            assert_eq!(early.chunks, folded, "{at}: s{si} {}", stage.label);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn word_frequency_runs_on_the_shared_pool() {
        check(
            "cat /in.txt | cut -d ' ' -f 1 | sort | uniq -c | sort -rn",
            256,
        );
        check(
            "cat /in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn",
            256,
        );
    }

    #[test]
    fn streamable_chain_runs() {
        check(
            "cat /in.txt | grep apple | tr a-z A-Z | cut -d ' ' -f 1",
            300,
        );
        check("cat /in.txt | grep apple | tr a-z A-Z", 300);
    }

    #[test]
    fn counting_pipeline_runs() {
        check("cat /in.txt | grep apple | wc -l", 512);
        // uniq stitches the boundary between every pair of chunks.
        for script in ["cat /in.txt | sort | uniq", "cat /in.txt | sort | uniq -c"] {
            check_on(script, &make_input(500), 256, &[1, 2, 3, 5, 8]);
        }
    }

    #[test]
    fn sequential_stage_mid_pipeline() {
        check("cat /in.txt | sed 1d | sort | uniq", 400);
        // Fed nothing, the stage still runs once, on the empty stream.
        check("cat /in.txt | grep zzz | sed 1d | wc -l", 400);
        check("cat /in.txt | grep zzz | tail -n +2", 64);
    }

    #[test]
    fn chunk_larger_than_input_degenerates_to_serial() {
        check("cat /in.txt | sort | uniq -c", 10_000_000);
    }

    #[test]
    fn one_byte_chunks_are_one_line_each() {
        check("cat /in.txt | cut -d ' ' -f 2 | sort | uniq -c", 1);
        // More workers than lines.
        check_on("cat /in.txt | sort", "b\na\n", 1, &[16]);
    }

    #[test]
    fn redirect_chain_orders_statements() {
        check_on(
            "cat /in.txt | cut -d ' ' -f 1 | sort > /tmp1\ncat /tmp1 | uniq -c | sort -rn",
            &make_input(500),
            350,
            &[1, 2, 3, 5, 8],
        );
    }

    #[test]
    fn independent_statements_share_the_pool() {
        check(
            "cat /in.txt | grep apple | wc -l\ncat /in.txt | cut -d ' ' -f 2 | sort -u\n\
             cat /in.txt | tr a-z A-Z | grep APPLE | head -n 3",
            256,
        );
    }

    #[test]
    fn head_terminated_pipelines_stay_byte_identical() {
        check("cat /in.txt | grep apple | head -n 1", 64);
        check("cat /in.txt | head -n 2 | cut -d ' ' -f 1", 128);
        check("cat /in.txt | sort -u | head -n 3", 256);
        check("cat /in.txt | cut -d ' ' -f 1 | sort -u | head -n 3", 256);
        check("cat /in.txt | sed 5q | sort", 200);
        check("cat /in.txt | grep apple | head -n 1 | tr a-z A-Z", 64);
        check("cat /in.txt | head -n 0 | sort", 128);
        check("cat /in.txt | head -n 0", 64);
        check("cat /in.txt | head -n 999 | sort", 300);
        // Met while other tasks at the node still hold popped chunks.
        for script in [
            "cat /in.txt | head -n 40",
            "cat /in.txt | tail -n +3 | head -n 40",
        ] {
            check_on(script, &make_input(500), 64, &[4]);
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script("cat /empty | sort | uniq -c", &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/empty", "");
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &make_input(50));
        let got = run_dataflow(&script, &plan, &ctx, &DataflowOptions::default()).unwrap();
        assert_eq!(got.output, "");
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
        let opts = DataflowOptions {
            workers: 2,
            chunk: ChunkSizing::Fixed(256),
            queue: QueueCredit::Fixed(2),
            fuse_streamable: true,
            spill: None,
        };
        let got = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
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
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script("cat /in.txt | head -n 999", &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", make_input(200));
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &make_input(50));
        let got = run_dataflow(&script, &plan, &ctx, &DataflowOptions::default()).unwrap();
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
        assert!(run_dataflow(&script, &plan, &ctx, &DataflowOptions::default()).is_err());
    }

    #[test]
    fn command_error_mid_pipeline_surfaces() {
        let env: HashMap<String, String> = HashMap::new();
        let script =
            parse_script("cat /in.txt | grep apple | comm -23 - /nonexistent", &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", make_input(200));
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &make_input(50));
        assert!(run_dataflow(&script, &plan, &ctx, &DataflowOptions::default()).is_err());
    }

    #[test]
    fn timing_log_reports_nodes_with_queue_telemetry() {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script("cat /in.txt | tr A-Z a-z | grep a | sort", &env).unwrap();
        let ctx = ExecContext::default();
        let input = make_input(400);
        ctx.vfs.write("/in.txt", &input);
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &input);
        let opts = DataflowOptions {
            workers: 2,
            chunk: ChunkSizing::Fixed(1024),
            queue: QueueCredit::Fixed(2),
            fuse_streamable: true,
            spill: None,
        };
        let got = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
        let stages = &got.timings.statements[0];
        assert_eq!(stages.len(), 2, "tr|grep fuse; sort folds");
        assert!(stages[0].label.contains('|'));
        assert_eq!(stages[1].label, "sort");
        assert!(stages[1].combine_time > Duration::ZERO);
        assert!(stages[0].piece_times.len() > 1, "expected many chunks");
        let telem = stages[0].queue.expect("dataflow reports queue telemetry");
        assert!(telem.tasks > 1, "one task per chunk");
        assert!(stages[1].queue.is_some());
    }

    #[test]
    fn statement_deps_cover_raw_waw_war() {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script(
            "cat /a | sort > /x\ncat /x | uniq > /y\ncat /b | grep q > /x\ncat /c | wc -l",
            &env,
        )
        .unwrap();
        let deps = statement_deps(&script);
        assert_eq!(deps[0], Vec::<usize>::new());
        assert_eq!(deps[1], vec![0], "RAW on /x");
        // Statement 2 rewrites /x: WAW with 0, WAR with 1 (which reads /x).
        assert_eq!(deps[2], vec![0, 1]);
        assert_eq!(deps[3], Vec::<usize>::new(), "independent statement");
    }
}
