//! Dataflow-graph IR for the work-stealing executor.
//!
//! A planned statement ([`crate::plan::PlannedStatement`]) becomes an
//! explicit graph the shared scheduler ([`crate::scheduler`]) can execute: a
//! linear chain of [`DataflowNode`]s, one per stage before the rewrites
//! below ([`DataflowGraph::build`]), connected by
//! *edges* — bounded queues of line-aligned [`kq_stream::Bytes`] chunks —
//! where edge `i` carries node `i`'s output into node `i + 1` and the last
//! node's edge drains into the statement sink.
//!
//! # Node semantics
//!
//! | node | input | output | parallelism |
//! |---|---|---|---|
//! | [`NodeKind::Split`] | the statement's gathered input | line-aligned chunks, cut lazily | one task at a time |
//! | [`NodeKind::StageWorker`] | chunks | per-chunk outputs of a chunk-local command run, re-normalized by an incremental chunker and forwarded **in input order** | one scheduler task per chunk, any number in flight |
//! | [`NodeKind::StageWorker`] headed by a **seam stage** — a `tr -s` that splits text into lines (see "Seam rewrite") | chunks | as above, except that the head stage's output for every chunk but the first loses one leading `'\n'` before the rest of the run sees it | as any stage worker: the node *is* one |
//! | [`NodeKind::Fold`] ([`FoldMode::Combine`]) | chunks | the stage's synthesized combiner folded over per-chunk outputs in input order; only the combined stream moves on, re-chunked | per-chunk map tasks in parallel, the fold itself in arrival order |
//! | [`NodeKind::Fold`] ([`FoldMode::Combine`]) over **two stages** — a `sort \| uniq [-c]` pair (see "Counting rewrite") | chunks | per chunk, what the pair prints for it — the chunk's distinct lines in the sort's order, with their counts under `-c` — or, for `-c` when most of its lines are distinct, the chunk itself, raw; these fold through the sort's `merge` under the counted (or `-u`) order, raw chunks sorted in batches of their own; the result is byte for byte the second stage's output | as a one-stage combine fold: the node *is* one |
//! | [`NodeKind::Fold`] ([`FoldMode::Combine`]) over **three stages** — a `sort \| uniq -c` pair and the numeric `sort` after it (see "Count-order rewrite") | chunks | as the counting fold, except that each part of the closing merge regroups its counted lines by count as it is merged, and the parts' groups are stitched count by count into slices of them: the result is byte for byte the third stage's output | as the counting fold: the parts merge and regroup as pool tasks |
//! | [`NodeKind::Fold`] ([`FoldMode::Sort`]) — a `sort`, or the `sort \| uniq` of a unique pair (see "Sorting rewrite") | chunks | nothing per chunk: the chunks reach the fold as they are, batches of them are sorted into runs (under `-u` for the pair) and the runs merged by the stage's `merge`; the result is the stage's output | a sort per run batch, batches in parallel; the closing merge in parts as for any merge fold |
//! | [`NodeKind::Fold`] ([`FoldMode::Gather`]) | chunks | nothing per chunk: the chunks reach the stage's `rerun` fold as they are, which runs the command once over all of them when the input ends (on the empty stream when none came); the output is re-chunked | per-chunk tasks, the fold in arrival order; the one run of the command by one task |
//! | [`NodeKind::BoundedConsumer`] | chunks, **in stream order**, only until `lines` complete lines exist | as a `Fold(Gather)`, except that the fold counts the lines it takes in: the chunk that meets the bound cancels everything upstream, chunks behind it are dropped, and the command runs once on the prefix | as a `Fold(Gather)`: the node *is* one |
//!
//! # Fusion rewrite
//!
//! The graph is first built *unfused* — one node per planned stage — and
//! adjacent chunk-local stages are then merged by a graph rewrite
//! ([`DataflowGraph::fuse_streamable`]): two neighboring
//! [`NodeKind::StageWorker`] nodes collapse into one whose stage range is
//! the concatenation, eliminating the edge between them (`grep | tr | cut`
//! becomes a single node piping each chunk through all three commands).
//! The rewrite is semantics-preserving by the chunk-local property — each
//! stage's combiner is plain concat over newline-terminated chunk outputs,
//! so per-chunk composition commutes with concatenation.
//!
//! # Counting rewrite
//!
//! A second rewrite, under the same switch as fusion
//! ([`DataflowGraph::fuse_fold_pairs`]): a [`FoldMode::Combine`] `sort`
//! node directly followed by a [`FoldMode::Combine`] `uniq` node becomes
//! **one** combine fold spanning both stages when the plan says the pair is
//! licensed ([`PlannedStage::fold_pair`], the answer of
//! [`crate::lattice::fold_pair`]). `uniq` needs the sort only for
//! adjacency, and absent `-u` the sort's comparator calls exactly the
//! identical lines equal, so the pair is one keyed aggregation:
//!
//! * **map** — each chunk becomes what `sort <flags> | uniq -c` prints for
//!   it: its distinct lines in the sort's order behind their counts (for a
//!   plain `uniq`, what `sort -u` prints). For the counting pair that is a
//!   hash count (`LineOrder::count_bytes` of the counted order) while the
//!   chunk has few distinct lines. When the table gives up — most lines
//!   distinct, so counting buys nothing — the map does nothing more: the
//!   chunk goes to the fold *raw* ([`kq_dsl::kway::Piece::Raw`]), a
//!   refcount bump;
//! * **fold** — the sort stage's own `merge <flags>` fold, run under the
//!   counted order: every merge reads a line's key past the count column
//!   and, where a `-u` merge drops a duplicate, adds the counts. Counted
//!   runs are merged in batches of 32; raw chunks are batched apart, by
//!   their bytes (128 KiB, `kq_dsl::kway::COUNT_RUN_BYTES`), and each
//!   batch is sorted and counted once (`sort_bytes`), so a line of a
//!   high-cardinality stream is sorted once and merged once — in the
//!   closing merge — not sorted per chunk and merged twice. The counted
//!   order calls only identical lines equal, so the two kinds' runs may
//!   leave stream order. Spill, the closing merge in parts and the
//!   scheduler's `Finishing` phase see ordinary line runs. (Plain `uniq`:
//!   the `-u` order, nothing new at all.) The trace's
//!   `dataflow/raw-pieces` counter says how many chunks each such fold
//!   took raw;
//! * **output** — exactly the bytes the `uniq` stage would have emitted,
//!   so nothing downstream changes.
//!
//! What it removes: the sort of every line (a word stream of megabytes
//! has KBs of distinct lines), the merge of those megabytes, and the whole
//! second barrier — `uniq -c`'s stitch fold re-touching the sorted stream.
//! `fuse_streamable = false` builds neither rewrite, so every suite that
//! runs both settings compares the two graphs; [`run_serial`] and the
//! other executors always run the two stages.
//!
//! [`PlannedStage::fold_pair`]: crate::plan::PlannedStage::fold_pair
//! [`run_serial`]: crate::exec::run_serial
//!
//! # Count-order rewrite
//!
//! Part of the counting rewrite ([`DataflowGraph::fuse_fold_pairs`]): a
//! counting pair whose sort the plan marks [`PlannedStage::count_order`]
//! — the answer of [`crate::lattice::count_order`] about that sort and the
//! numeric `sort` two stages on — absorbs the one-stage combine fold of
//! that third stage as well. The ranking tail of Figure 1,
//! `sort | uniq -c | sort -rn`, is then one fold. The counting fold's
//! output is in the pair's key order, and `sort -n` of it compares the
//! counts and then, for equal counts (equal columns), the lines' bytes:
//! the counted order itself, or its reverse. So nothing needs comparing:
//!
//! * **map, fold** — the counting fold's, unchanged;
//! * **closing merge** — each part is a key range of the counted stream;
//!   as its task merges it, it regroups its lines by count
//!   (`CountOrder::regroup`: a tally of each count's bytes places every
//!   group, and one copy puts each line in its group, in the counted order
//!   or against it) — under a spill budget a window of the budget's batch
//!   size at a time, into the part's temp file;
//! * **stitch** — for each count in output order, each part's group of
//!   that count, parts in counted order (from the last when the lines of
//!   one count go against it): a [`kq_stream::Rope`] of at most
//!   (distinct counts × parts) slices, where distinct counts are at most
//!   √(2 × lines), short slices copied together
//!   (`kq_dsl::kway::stitch`).
//!
//! What it removes is the third barrier: the sort of every counted line a
//! second time — for a stream of mostly-distinct words, megabytes whose
//! numeric keys tie on nearly every line, so the sort compares the count
//! column and then the bytes behind it — and the merge of those runs. The
//! counted stream exists once. `fuse_streamable = false` builds neither
//! fold, and [`run_serial`] runs the three stages.
//!
//! [`PlannedStage::count_order`]: crate::plan::PlannedStage::count_order
//!
//! # Seam rewrite
//!
//! The third rewrite under that switch
//! ([`DataflowGraph::lift_seam_stages`]) takes a serial pass off the
//! chain: a one-stage [`NodeKind::Fold`] whose stage the plan marks
//! [`PlannedStage::seam`] — the gather fold of a stage planned sequential,
//! or the fold of one planned parallel, which would gather the chunk
//! outputs and rerun the command over them — becomes a
//! [`NodeKind::StageWorker`]. Such a
//! stage is a `tr -s` that leaves `'\n'` alone and squeezes it — the word
//! splitter `tr -cs A-Za-z '\n'` — and the only thing it carries from one
//! line-aligned piece of its input to the next is the last character it
//! wrote, which after any non-empty piece is `'\n'`
//! ([`crate::lattice::newline_seam`]). So for chunks `x0, x1, …`:
//!
//! ```text
//! f(x0 ++ x1 ++ …) = f(x0) ++ strip(f(x1)) ++ …      strip = drop one leading '\n'
//! ```
//!
//! which the scheduler computes per chunk: the node's map runs the stage,
//! drops the leading `'\n'` of its output when the chunk is not the first,
//! and pipes the result through the rest of the run. Two things make "not
//! the first" decidable from the chunk's pop ordinal alone. A seam stage
//! always **heads** its node — chunk-local successors fuse into it, it
//! never fuses into a predecessor — so the ordinal counts the stage's own
//! input pieces; and **no edge ever carries an empty chunk** (splits and
//! re-chunkers never cut one; `push_edge` asserts it), so every piece
//! before it was non-empty and ended in `'\n'`. The stripped outputs are
//! again newline-terminated pieces of the stage's true output, which is
//! all the chunk-local stages behind it ask for.
//!
//! What it removes is the gather: the one task that ran the stage over the
//! whole stream while the pool waited, and the whole stream held in memory
//! at once. A `head` behind such a stage now cancels it after a chunk.
//! `fuse_streamable = false` keeps the fold, and [`run_serial`] and
//! the other executors run the stage once, so every differential suite
//! that runs both compares the seam with the rerun it stands for.
//!
//! [`PlannedStage::seam`]: crate::plan::PlannedStage::seam
//!
//! # Sorting rewrite
//!
//! The fourth rewrite under the switch ([`DataflowGraph::sort_runs`]),
//! run last: a [`FoldMode::Combine`] fold whose first stage the plan marks
//! [`PlannedStage::sorting`] — a `sort` whose combiner is the `merge` of
//! the very order it sorts by, alone or at the head of a unique pair the
//! counting rewrite fused — becomes a [`FoldMode::Sort`] fold. A parallel
//! `sort` sorts every chunk and the fold merges the sorted chunks, in two
//! levels (run batches, then the closing merge): every line handled three
//! times, and the sorted chunks exist only to be merged. But merging the
//! sorts of pieces is sorting them together:
//!
//! ```text
//! sort(x1 ++ … ++ xk) = merge(sort(x1), …, sort(xk))
//! ```
//!
//! where the merge hands ties to the earlier piece and a stable sort keeps
//! them in input order. So the node's map passes each chunk on raw, and
//! the fold — the stage's own merge fold, all of whose pieces arrive raw,
//! cutting run batches where it would, or without a budget every 512 KiB
//! (`kq_dsl::kway::SORT_RUN_BYTES`) — makes each batch one run by **one
//! sort of the batch's concatenation** (adjacent chunks of a split
//! concatenate without a copy) instead of a merge of its sorted chunks.
//! The runs merge in batch order as before, so `-u` still keeps the first
//! of key-equal lines; the chunks still pending when the input ends are
//! sealed into batches of a part's bytes
//! (`kq_dsl::kway::IncrementalFold::seal`), sorted as pool tasks of their
//! own, so that the closing merge in parts reads runs only.
//!
//! What it removes: the sort of every 64 KiB chunk and the merge of their
//! sorted copies — each line is sorted once, in a run of half a megabyte
//! or more, and merged once. A counting pair keeps its counting map (its
//! chunks shrink to their distinct lines before they reach the fold, and
//! only those that would not shrink go raw), so the planner does not mark
//! its sort. `fuse_streamable = false` keeps every chunk's
//! sort, and [`run_serial`] and the other executors run the stage on its
//! own, so the suites that run both settings compare the two.
//!
//! [`PlannedStage::sorting`]: crate::plan::PlannedStage::sorting
//!
//! # Cancellation propagation
//!
//! Early exit is edge teardown propagated through the graph. When a
//! [`NodeKind::BoundedConsumer`] at position `b` meets its `lines` demand
//! before its input closes, the scheduler marks nodes `0..b` cancelled and
//! **clears** every edge feeding them *and* the bounded node's own input
//! edge — chunks already queued are dropped, not processed. In-flight
//! tasks at cancelled nodes discard their output
//! when they complete. A stage after one that decodes its input gets no
//! bound ([`crate::plan::line_bound`]): the bytes a cancellation skips
//! are bytes the serial run fails on. The propagation matrix:
//!
//! | event | upstream nodes | queued chunks | downstream nodes | statement result |
//! |---|---|---|---|---|
//! | **bound satisfied** | cancelled; telemetry keeps the work actually done | dropped from every edge at or above the bound | receive the bounded stage's re-chunked prefix output, then end-of-input | `Ok`, with `StageTiming::early_exit` set |
//! | **command error** | cancelled | dropped from every edge of the statement | cancelled | the statement's first recorded error surfaces |
//! | **sibling statement error** | statements already running finish their own way; statements still waiting on dependencies are abandoned | — | — | the lowest-indexed failing statement's error surfaces |
//!
//! # Demand propagation
//!
//! [`DataflowNode::eager_flush`]: a `StageWorker` whose downstream chain reaches a bounded consumer through
//! chunk-local nodes only ships complete lines immediately instead of
//! re-normalizing to the chunk-size target, so a sparse stage (`grep` with
//! one match) cannot sit on the very lines that would satisfy the bound.

use crate::plan::PlannedStatement;
use std::ops::Range;

/// What a [`NodeKind::Fold`] node does with its gathered input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldMode {
    /// A parallel stage whose combiner is not plain concat (`sort`,
    /// `uniq -c`, `wc`): chunks map through the command in parallel and
    /// the outputs fold through the synthesized combiner in input order.
    Combine,
    /// A sequential stage (no combiner, or a rerun that does not pay):
    /// chunks gather into a `rerun` fold and the command runs once.
    Gather,
    /// A parallel `sort` (or `sort | uniq` pair) whose chunks reach the
    /// fold raw: batches of chunks are sorted into runs and the runs merged
    /// by the stage's combiner (see "Sorting rewrite").
    Sort,
}

/// The operation a dataflow node performs (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Cuts the statement input into line-aligned chunks.
    Split,
    /// A run of chunk-local stages: each chunk pipes through the run's
    /// commands independently; outputs flow on uncombined (Theorem 5
    /// applied per chunk).
    StageWorker,
    /// A stage that must see its whole input before emitting.
    Fold {
        /// How the gathered input turns into output.
        mode: FoldMode,
    },
    /// A prefix-bounded stage (`head -n k`, `sed kq`): consumes in-order
    /// chunks only until `lines` complete lines exist, then cancels
    /// everything upstream and runs the command once on the prefix.
    BoundedConsumer {
        /// The stage's prefix bound in complete lines.
        lines: usize,
    },
}

/// The kind of a parallel barrier stage's node — the only kind the
/// counting and sorting rewrites act on.
const COMBINE: NodeKind = NodeKind::Fold {
    mode: FoldMode::Combine,
};

/// The kind of a sequential stage's node.
const GATHER: NodeKind = NodeKind::Fold {
    mode: FoldMode::Gather,
};

/// The kind of a fold the sorting rewrite made.
const SORT: NodeKind = NodeKind::Fold {
    mode: FoldMode::Sort,
};

/// One node of a statement's dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowNode {
    /// The operation.
    pub kind: NodeKind,
    /// Stage index range within the statement (`start..end`, end
    /// exclusive). Empty (`0..0`) for [`NodeKind::Split`]; length > 1 only
    /// for fused [`NodeKind::StageWorker`] runs, for the two-stage combine
    /// fold of a licensed `sort | uniq` pair, and for the three-stage one
    /// of a counting pair closing in count order. Every stage of a
    /// `StageWorker` is chunk-local, except that the first may instead be a
    /// seam stage ([`DataflowNode::heads_seam`]).
    pub stages: Range<usize>,
    /// Demand propagation: this node's output chain reaches a
    /// [`NodeKind::BoundedConsumer`] through chunk-local nodes only, so
    /// complete lines must ship immediately (see the [module docs](self)).
    pub eager_flush: bool,
}

impl DataflowNode {
    /// True for a [`NodeKind::StageWorker`] whose first stage is a seam
    /// stage of `planned` (see "Seam rewrite" in the [module docs](self)):
    /// the node whose map strips the seam.
    pub fn heads_seam(&self, planned: &PlannedStatement) -> bool {
        self.kind == NodeKind::StageWorker
            && planned
                .stages
                .get(self.stages.start)
                .is_some_and(|stage| stage.seam)
    }
}

/// What a problem [`DataflowGraph::validate`] finds breaks: `kumquat
/// check` reports each class under its own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFault {
    /// The node chain's shape: the split, the stage partition and the
    /// eager-flush flags (invariants 1, 2 and 4).
    Structure,
    /// Queue credit that cannot carry a chunk (invariant 5).
    Credit,
    /// A node the plan's flags do not license (invariant 3).
    Fusion,
}

/// A statement's dataflow graph: a linear node chain; edge `i` connects
/// node `i` to node `i + 1`, and the last node feeds the statement sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowGraph {
    /// The nodes, in stream order. `nodes[0]` is always [`NodeKind::Split`].
    pub nodes: Vec<DataflowNode>,
}

impl DataflowGraph {
    /// Builds the graph for one planned statement.
    ///
    /// The graph is assembled unfused, one node per stage:
    ///
    /// * a prefix-bounded stage ([`PlannedStage::line_bound`], `head -n k`,
    ///   `sed kq`) is a [`NodeKind::BoundedConsumer`] whatever its mode —
    ///   it consumes chunks only until `k` complete lines exist, then
    ///   cancels everything upstream and runs the command once on the
    ///   prefix;
    /// * a chunk-local stage ([`PlannedStage::streamable`]) is a
    ///   [`NodeKind::StageWorker`];
    /// * any other parallel stage is a [`FoldMode::Combine`] fold, and a
    ///   sequential one a [`FoldMode::Gather`] fold.
    ///
    /// With `fuse_streamable`, seam stages are then lifted out of their
    /// folds by the [seam rewrite](Self::lift_seam_stages), adjacent
    /// [`NodeKind::StageWorker`] nodes are merged by the
    /// [fusion rewrite](Self::fuse_streamable), licensed `sort | uniq`
    /// fold pairs — with the numeric sort after a counting pair that
    /// closes in its order — by the [counting rewrite](Self::fuse_fold_pairs), and
    /// licensed sorts' folds turned into sorting folds by the
    /// [sorting rewrite](Self::sort_runs).
    ///
    /// [`PlannedStage::line_bound`]: crate::plan::PlannedStage::line_bound
    /// [`PlannedStage::streamable`]: crate::plan::PlannedStage::streamable
    pub fn build(planned: &PlannedStatement, fuse_streamable: bool) -> DataflowGraph {
        let split = DataflowNode {
            kind: NodeKind::Split,
            stages: 0..0,
            eager_flush: false,
        };
        let stages = planned.stages.iter().enumerate().map(|(idx, stage)| {
            let kind = if let Some(lines) = stage.line_bound {
                NodeKind::BoundedConsumer { lines }
            } else if stage.streamable {
                NodeKind::StageWorker
            } else if stage.mode.is_parallel() {
                COMBINE
            } else {
                GATHER
            };
            DataflowNode {
                kind,
                stages: idx..idx + 1,
                eager_flush: false,
            }
        });
        let mut graph = DataflowGraph {
            nodes: std::iter::once(split).chain(stages).collect(),
        };
        if fuse_streamable {
            graph.lift_seam_stages(planned);
            graph.fuse_streamable(planned);
            graph.fuse_fold_pairs(planned);
            graph.sort_runs(planned);
        }
        graph.compute_eager_flush();
        graph
    }

    /// The seam rewrite (see the [module docs](self)): a fold over a stage
    /// the plan marks [`PlannedStage::seam`](crate::plan::PlannedStage::seam)
    /// becomes a stage worker, which [`DataflowNode::heads_seam`] then
    /// recognizes. Runs first, on the one-node-per-stage graph.
    pub fn lift_seam_stages(&mut self, planned: &PlannedStatement) {
        for node in &mut self.nodes {
            if matches!(node.kind, NodeKind::Fold { .. }) && planned.stages[node.stages.start].seam
            {
                debug_assert_eq!(node.stages.len(), 1);
                node.kind = NodeKind::StageWorker;
            }
        }
    }

    /// The fusion rewrite: merges every adjacent pair of
    /// [`NodeKind::StageWorker`] nodes into one node spanning both stage
    /// ranges, deleting the edge between them — unless the second heads a
    /// seam, whose map must see the chunks of its own input edge. Applied
    /// to fixpoint, this turns each maximal run of chunk-local stages, with
    /// the seam stage that may lead it, into a single node.
    pub fn fuse_streamable(&mut self, planned: &PlannedStatement) {
        let mut i = 0;
        while i + 1 < self.nodes.len() {
            let fusable = self.nodes[i].kind == NodeKind::StageWorker
                && self.nodes[i + 1].kind == NodeKind::StageWorker
                && !self.nodes[i + 1].heads_seam(planned);
            if fusable {
                debug_assert_eq!(self.nodes[i].stages.end, self.nodes[i + 1].stages.start);
                self.nodes[i].stages.end = self.nodes[i + 1].stages.end;
                self.nodes.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    /// The counting rewrite (see the [module docs](self)): a one-stage
    /// combine fold whose stage the plan marks as the `sort` of a licensed
    /// pair ([`PlannedStage::fold_pair`](crate::plan::PlannedStage::fold_pair)),
    /// directly followed by a one-stage combine fold, absorbs it — one node
    /// over both stages, the edge between them gone. Where the plan also
    /// marks the sort [`count_order`], the one-stage combine fold after the
    /// pair is absorbed too (the count-order rewrite): one node over three
    /// stages.
    ///
    /// [`count_order`]: crate::plan::PlannedStage::count_order
    pub fn fuse_fold_pairs(&mut self, planned: &PlannedStatement) {
        let single_combine = |node: &DataflowNode| node.kind == COMBINE && node.stages.len() == 1;
        let mut i = 0;
        while i + 1 < self.nodes.len() {
            let (sort, uniq) = (&self.nodes[i], &self.nodes[i + 1]);
            let first = &planned.stages[sort.stages.start];
            if single_combine(sort) && single_combine(uniq) && first.fold_pair.is_some() {
                debug_assert_eq!(sort.stages.end, uniq.stages.start);
                let mut absorbed = 1;
                if first.count_order.is_some() && self.nodes.get(i + 2).is_some_and(single_combine)
                {
                    absorbed = 2;
                }
                self.nodes[i].stages.end = self.nodes[i + absorbed].stages.end;
                self.nodes.drain(i + 1..=i + absorbed);
            }
            i += 1;
        }
    }

    /// The sorting rewrite (see the [module docs](self)): a combine fold
    /// whose first stage the plan marks
    /// [`PlannedStage::sorting`](crate::plan::PlannedStage::sorting) — a
    /// one-stage `sort`, or the `sort | uniq` of a unique pair the counting
    /// rewrite fused — becomes a [`FoldMode::Sort`] fold. Runs last, on the
    /// pairs the counting rewrite left.
    pub fn sort_runs(&mut self, planned: &PlannedStatement) {
        for node in &mut self.nodes {
            if node.kind == COMBINE && planned.stages[node.stages.start].sorting {
                node.kind = SORT;
            }
        }
    }

    /// Checks the structural invariants every well-formed statement graph
    /// satisfies, returning one human-readable violation per breach, tagged
    /// with the [`GraphFault`] it is (empty means valid). The scheduler
    /// asserts this under `debug_assertions` right after building its
    /// graphs, and `kumquat check` runs it as the graph-verification layer
    /// of static analysis.
    ///
    /// Invariants:
    ///
    /// 1. (structure) the graph starts with exactly one [`NodeKind::Split`]
    ///    owning no stages, and no other `Split` appears;
    /// 2. (structure) the remaining nodes' stage ranges partition
    ///    `0..n_stages` contiguously and in order — no gap, overlap, or
    ///    inversion;
    /// 3. (fusion) only two kinds of node span more than one stage:
    ///    [`NodeKind::StageWorker`] nodes (fused chunk-local runs), and a
    ///    combine (or sorting) fold over exactly the two stages of a
    ///    `sort | uniq` pair the plan licenses
    ///    (`planned.stages[start].fold_pair`), or a combine fold over
    ///    exactly the three stages of a counting pair and the numeric sort
    ///    the plan licenses it to close in the order of
    ///    (`planned.stages[start].count_order`) — any other multi-stage fold
    ///    is a rewrite gone wrong; a [`FoldMode::Sort`] fold's first stage
    ///    is one the plan marks `sorting`, and a counting pair is never one;
    ///    and within a [`NodeKind::StageWorker`] every stage is chunk-local
    ///    ([`PlannedStage::streamable`](crate::plan::PlannedStage::streamable))
    ///    but possibly the first, which may be a seam stage instead. A seam
    ///    stage anywhere else — behind another stage of a run, in a fold
    ///    over two stages, in a bounded consumer — is a rewrite gone wrong
    ///    (a one-stage fold is where it sits in the unfused graph);
    /// 4. (structure) [`DataflowNode::eager_flush`] agrees with the
    ///    canonical right-to-left demand propagation — a stale flag after a
    ///    rewrite would let a sparse stage sit on the lines a bounded
    ///    consumer needs;
    /// 5. (credit) every edge carries at least one chunk of queue credit
    ///    (`queue_seed >= 1`) — a [`NodeKind::Fold`] buffers its whole
    ///    input before emitting, so a zero-credit edge upstream of a fold
    ///    deadlocks the statement.
    pub fn validate(
        &self,
        planned: &PlannedStatement,
        queue_seed: usize,
    ) -> Vec<(GraphFault, String)> {
        let n_stages = planned.stages.len();
        let (mut structure, mut fusion) = (Vec::new(), Vec::new());
        match self.nodes.first() {
            Some(n) if n.kind == NodeKind::Split && n.stages == (0..0) => {}
            Some(n) => structure.push(format!(
                "node 0 must be a Split owning no stages, got {:?} over stages {:?}",
                n.kind, n.stages
            )),
            None => structure.push("graph has no nodes".to_owned()),
        }
        let mut cursor = 0usize;
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            if node.kind == NodeKind::Split {
                structure.push(format!("node {i} is a Split; only node 0 may split"));
                continue;
            }
            if node.stages.start != cursor {
                structure.push(format!(
                    "node {i} covers stages {:?} but the previous node ended at stage {cursor}",
                    node.stages
                ));
            }
            if node.stages.end <= node.stages.start {
                structure.push(format!(
                    "node {i} ({:?}) owns an empty or inverted stage range {:?}",
                    node.kind, node.stages
                ));
            }
            let first = planned.stages.get(node.stages.start);
            let licensed_pair = (node.kind == COMBINE || node.kind == SORT)
                && node.stages.len() == 2
                && first.is_some_and(|sort| sort.fold_pair.is_some());
            let licensed_count_order = node.kind == COMBINE
                && node.stages.len() == 3
                && first.is_some_and(|sort| sort.count_order.is_some());
            if node.stages.len() > 1
                && node.kind != NodeKind::StageWorker
                && !licensed_pair
                && !licensed_count_order
            {
                fusion.push(format!(
                    "node {i} ({:?}) spans stages {:?}; only fused StageWorker runs, the \
                     combine fold of a licensed sort | uniq pair and that of a counting pair \
                     licensed to close in count order may span more than one stage",
                    node.kind, node.stages
                ));
            }
            let sorts = first.is_some_and(|sort| {
                sort.sorting && sort.fold_pair != Some(crate::lattice::FoldPair::Counting)
            });
            if node.kind == SORT && !sorts {
                fusion.push(format!(
                    "node {i} is a sorting fold over stages {:?}, whose first stage the plan \
                     does not license to fold raw chunks",
                    node.stages
                ));
            }
            for idx in node.stages.clone() {
                // A range past the plan is reported below, once.
                let Some(stage) = planned.stages.get(idx) else {
                    break;
                };
                let heads = idx == node.stages.start;
                let legal = match node.kind {
                    NodeKind::StageWorker => stage.streamable || (heads && stage.seam),
                    NodeKind::Fold { .. } => node.stages.len() == 1 || !stage.seam,
                    _ => !stage.seam,
                };
                if !legal {
                    fusion.push(format!(
                        "node {i} ({:?}) over stages {:?} holds stage {idx}, which is {}",
                        node.kind,
                        node.stages,
                        if stage.seam {
                            "a seam stage: it may only head a StageWorker"
                        } else {
                            "not chunk-local"
                        }
                    ));
                }
            }
            cursor = cursor.max(node.stages.end);
        }
        if cursor != n_stages {
            structure.push(format!(
                "graph covers stages 0..{cursor} but the statement has {n_stages} stage(s)"
            ));
        }
        let mut canonical = self.clone();
        canonical.compute_eager_flush();
        for (i, (have, want)) in self.nodes.iter().zip(&canonical.nodes).enumerate() {
            if have.eager_flush != want.eager_flush {
                structure.push(format!(
                    "node {i} has eager_flush={} but demand propagation requires {}",
                    have.eager_flush, want.eager_flush
                ));
            }
        }
        let credit = (queue_seed == 0 && self.nodes.len() > 1).then(|| {
            "queue credit is 0: no edge can carry a chunk, so every fold deadlocks".to_owned()
        });
        let tag = |fault| move |problem| (fault, problem);
        let structure = structure.into_iter().map(tag(GraphFault::Structure));
        let fusion = fusion.into_iter().map(tag(GraphFault::Fusion));
        structure
            .chain(fusion)
            .chain(credit.map(tag(GraphFault::Credit)))
            .collect()
    }

    /// Recomputes [`DataflowNode::eager_flush`] right-to-left: a node
    /// flushes eagerly when its successor is a bounded consumer, or is a
    /// chunk-local node that itself flushes eagerly. Folds need their whole
    /// input regardless, so the propagation stops there.
    fn compute_eager_flush(&mut self) {
        for i in (0..self.nodes.len().saturating_sub(1)).rev() {
            self.nodes[i].eager_flush = match self.nodes[i + 1].kind {
                NodeKind::BoundedConsumer { .. } => true,
                NodeKind::StageWorker => self.nodes[i + 1].eager_flush,
                NodeKind::Fold { .. } | NodeKind::Split => false,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_script;
    use crate::plan::Planner;
    use kq_coreutils::ExecContext;
    use kq_synth::SynthesisConfig;
    use std::collections::HashMap;

    fn sample_text() -> String {
        let mut s = String::new();
        for i in 0..200 {
            s.push_str(&format!("the quick brown fox {i} jumps over dogs\n"));
        }
        s
    }

    fn planned(script_text: &str) -> PlannedStatement {
        let env: HashMap<String, String> = HashMap::new();
        let script = parse_script(script_text, &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", sample_text());
        let mut planner = Planner::new(SynthesisConfig::default());
        planner
            .plan(&script, &ctx, &sample_text())
            .statements
            .remove(0)
    }

    fn graph(script_text: &str, fuse: bool) -> DataflowGraph {
        DataflowGraph::build(&planned(script_text), fuse)
    }

    fn shape(g: &DataflowGraph) -> Vec<(NodeKind, Range<usize>)> {
        g.nodes.iter().map(|n| (n.kind, n.stages.clone())).collect()
    }

    #[test]
    fn seam_rewrite_lifts_licensed_gathers_and_keeps_them_at_the_head() {
        // Behind a chunk-local stage the seam stage starts a node of its
        // own; two in a row do not fuse either; what follows fuses in.
        let text = "cat /in.txt | grep o | tr -cs A-Za-z '\\n' | tr A-Z a-z \
                    | tr -s ' ' '\\n' | cut -c 1-3 | sort";
        let p = planned(text);
        let seams: Vec<bool> = p.stages.iter().map(|s| s.seam).collect();
        assert_eq!(seams, [false, true, false, true, false, false]);
        let g = DataflowGraph::build(&p, true);
        assert_eq!(
            shape(&g),
            vec![
                (NodeKind::Split, 0..0),
                (NodeKind::StageWorker, 0..1),
                (NodeKind::StageWorker, 1..3),
                (NodeKind::StageWorker, 3..5),
                (SORT, 5..6),
            ]
        );
        let heads: Vec<bool> = g.nodes.iter().map(|n| n.heads_seam(&p)).collect();
        assert_eq!(heads, [false, false, true, true, false]);
        assert!(g.validate(&p, 8).is_empty());
        // The switch that builds no rewrite keeps the gather folds.
        let unfused = DataflowGraph::build(&p, false);
        assert_eq!(unfused.nodes[2].kind, GATHER);
        assert_eq!(unfused.nodes[4].kind, GATHER);
        assert!(unfused.nodes.iter().all(|n| !n.heads_seam(&p)));
        assert!(unfused.validate(&p, 8).is_empty());
        // A squeeze the lattice refuses stays a gather fold, and so does
        // any other sequential stage.
        for text in [
            "cat /in.txt | tr -s '\\n' ' ' | sort",
            "cat /in.txt | sed 1d | sort",
        ] {
            assert_eq!(graph(text, true).nodes[1].kind, GATHER, "{text}");
        }
        // A bounded consumer behind a seam node demands eager flushes
        // through it.
        let g = graph("cat /in.txt | tr -cs A-Za-z '\\n' | head -n 3", true);
        assert_eq!(g.nodes[1].kind, NodeKind::StageWorker);
        assert!(g.nodes[0].eager_flush && g.nodes[1].eager_flush);
    }

    #[test]
    fn validate_admits_a_seam_stage_only_at_the_head_of_a_worker() {
        let text = "cat /in.txt | grep o | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort";
        let p = planned(text);
        let misplaced = |g: &DataflowGraph| {
            g.validate(&p, 8)
                .iter()
                .any(|(_, problem)| problem.contains("a seam stage"))
        };
        let built = DataflowGraph::build(&p, true);
        assert!(!misplaced(&built));
        // Fused into its predecessor: the seam stage is stage 1 of 0..3.
        let mut g = built.clone();
        g.nodes[1].stages.end = g.nodes[2].stages.end;
        g.nodes.remove(2);
        assert!(misplaced(&g));
        // Swallowed by a fold over two stages.
        let mut g = DataflowGraph::build(&p, false);
        g.nodes[2].stages.end = g.nodes[3].stages.end;
        g.nodes.remove(3);
        assert!(misplaced(&g));
        // A stage that is neither chunk-local nor a seam, in a worker.
        let mut g = built.clone();
        let sort = g.nodes.len() - 1;
        g.nodes[sort].kind = NodeKind::StageWorker;
        assert!(g
            .validate(&p, 8)
            .iter()
            .any(|(_, problem)| problem.contains("not chunk-local")));
    }

    #[test]
    fn counting_rewrite_fuses_exactly_the_licensed_fold_pairs() {
        // Both kinds of pair, back to back; the second sort is not the
        // `uniq` of the first pair, and `sort -rn` has no `uniq` after it.
        let text = "cat /in.txt | sort -r | uniq | sort -f | uniq -c | sort -rn";
        let p = planned(text);
        assert_eq!(
            shape(&DataflowGraph::build(&p, true)),
            vec![
                (NodeKind::Split, 0..0),
                // The unique pair, and the last sort, sort raw chunks too;
                // the counting pair keeps its counting map.
                (SORT, 0..2),
                (COMBINE, 2..4),
                (SORT, 4..5),
            ]
        );
        // The switch that leaves chunk-local stages unfused leaves these
        // alone too: one node per stage.
        let unfused = DataflowGraph::build(&p, false);
        assert_eq!(unfused.nodes.len(), 6);
        assert!(unfused.nodes.iter().all(|n| n.stages.len() <= 1));
        // Pairs the lattice does not license, and a licensed-looking pair
        // with a stage in between or a redirect between statements.
        for text in [
            "cat /in.txt | sort -u | uniq -c",
            "cat /in.txt | sort -f | uniq",
            "cat /in.txt | sort /in.txt | uniq -c",
            "cat /in.txt | sort | grep fox | uniq -c",
        ] {
            let g = graph(text, true);
            assert!(
                g.nodes
                    .iter()
                    .all(|n| !matches!(n.kind, NodeKind::Fold { .. }) || n.stages.len() == 1),
                "{text}: {:?}",
                shape(&g)
            );
        }
    }

    #[test]
    fn sorting_rewrite_marks_exactly_the_licensed_sorts() {
        let kinds = |text: &str, fuse: bool| -> Vec<NodeKind> {
            graph(text, fuse).nodes.iter().map(|n| n.kind).collect()
        };
        let split = NodeKind::Split;
        // Plain, unique, numeric, reversed, folded and field-keyed sorts;
        // the counting pair keeps its map.
        for text in [
            "cat /in.txt | sort",
            "cat /in.txt | sort -u",
            "cat /in.txt | sort -rn",
            "cat /in.txt | sort -fu",
            "cat /in.txt | sort -k1n",
            "cat /in.txt | sort --parallel=1",
        ] {
            assert_eq!(kinds(text, true), [split, SORT], "{text}");
            // `--no-opt` builds none of it.
            assert_eq!(kinds(text, false), [split, COMBINE], "{text}");
        }
        assert_eq!(
            kinds("cat /in.txt | sort | uniq -c", true),
            [split, COMBINE]
        );
        assert_eq!(kinds("cat /in.txt | sort -r | uniq", true), [split, SORT]);
        // A merge, and a sort of a named stream besides its input, are not
        // sorts of their input chunks.
        for text in ["cat /in.txt | sort -m", "cat /in.txt | sort - /in.txt"] {
            assert!(!kinds(text, true).contains(&SORT), "{text}");
        }
        // Every graph the rewrite builds is valid; a sorting fold the plan
        // does not license is not.
        for text in [
            "cat /in.txt | sort -r | uniq | sort -f | uniq -c | sort -rn",
            "cat /in.txt | sort -m",
        ] {
            let p = planned(text);
            assert!(DataflowGraph::build(&p, true).validate(&p, 8).is_empty());
            let mut g = DataflowGraph::build(&p, false);
            for node in &mut g.nodes[1..] {
                node.kind = SORT;
            }
            let refused = g.validate(&p, 8);
            assert!(
                refused.iter().any(|(_, p)| p.contains("does not license")),
                "{text}: {refused:?}"
            );
        }
        let p = planned("cat /in.txt | sort | uniq -c");
        let mut g = DataflowGraph::build(&p, true);
        g.nodes[1].kind = SORT;
        assert!(g
            .validate(&p, 8)
            .iter()
            .any(|(_, p)| p.contains("sorting fold over stages 0..2")));
    }

    #[test]
    fn unfused_graph_has_one_node_per_stage() {
        let g = graph(
            "cat /in.txt | grep o | tr A-Z a-z | cut -c 1-5 | sort",
            false,
        );
        // Split + 4 stage nodes, streamables unfused.
        assert_eq!(g.nodes.len(), 5);
        assert!(g.nodes[1..4]
            .iter()
            .all(|n| n.kind == NodeKind::StageWorker && n.stages.len() == 1));
    }

    #[test]
    fn fusion_rewrite_merges_maximal_streamable_runs() {
        let p = planned("cat /in.txt | grep o | tr A-Z a-z | cut -c 1-5 | sort");
        let mut g = DataflowGraph::build(&p, false);
        g.fuse_streamable(&p);
        let workers: Vec<Range<usize>> = g
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::StageWorker)
            .map(|n| n.stages.clone())
            .collect();
        assert_eq!(workers, vec![0..3], "three chunk-local stages fuse");
    }

    #[test]
    fn bounded_stage_becomes_bounded_consumer_node() {
        let g = graph("cat /in.txt | grep fox | head -n 2 | grep o", true);
        assert_eq!(g.nodes[2].kind, NodeKind::BoundedConsumer { lines: 2 });
        // A bounded node never fuses into a neighboring streamable run.
        assert_eq!(g.nodes.len(), 4);
    }

    #[test]
    fn validate_accepts_built_graphs_and_rejects_broken_ones() {
        let script = "cat /in.txt | grep fox | tr A-Z a-z | sort | head -n 2";
        let plan = planned(script);
        let finds = |g: &DataflowGraph, plan: &PlannedStatement, seed: usize, want, text| {
            g.validate(plan, seed)
                .iter()
                .any(|(fault, p)| *fault == want && p.contains(text))
        };
        for fuse in [false, true] {
            let g = graph(script, fuse);
            assert!(g.validate(&plan, 8).is_empty());
        }

        let mut g = graph(script, true);
        // A gap in the stage partition.
        let last = g.nodes.len() - 1;
        g.nodes[last].stages.start += 1;
        assert!(finds(&g, &plan, 8, GraphFault::Structure, "previous node"));

        // A fold pretending to span a fused run.
        let mut g = graph(script, true);
        let fold = g
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::Fold { .. }))
            .unwrap();
        g.nodes[fold - 1].stages.end -= 1;
        g.nodes[fold].stages.start -= 1;
        assert!(finds(
            &g,
            &plan,
            8,
            GraphFault::Fusion,
            "span more than one stage"
        ));

        // A stale eager_flush flag after a rewrite.
        let mut g = graph(script, true);
        g.nodes[0].eager_flush = !g.nodes[0].eager_flush;
        assert!(finds(&g, &plan, 8, GraphFault::Structure, "eager_flush"));

        // Zero queue credit deadlocks every fold.
        let g = graph(script, true);
        assert!(finds(&g, &plan, 0, GraphFault::Credit, "queue credit"));

        // Wrong stage count.
        let g = graph(script, true);
        let longer = planned("cat /in.txt | grep fox | tr A-Z a-z | sort | head -n 2 | wc -l");
        assert!(finds(
            &g,
            &longer,
            8,
            GraphFault::Structure,
            "has 5 stage(s)"
        ));
    }

    #[test]
    fn validate_admits_the_licensed_two_and_three_stage_folds_and_no_other() {
        let text = "cat /in.txt | tr A-Z a-z | sort | uniq -c | sort -rn | wc -l";
        let plan = planned(text);
        let spans_too_much = |plan: &PlannedStatement, g: &DataflowGraph| {
            g.validate(plan, 8)
                .iter()
                .any(|(_, p)| p.contains("span more than one stage"))
        };
        let built = DataflowGraph::build(&plan, true);
        assert_eq!(shape(&built)[2], (COMBINE, 1..4));
        assert!(built.validate(&plan, 8).is_empty());
        // The pair alone, its count order left to a fold of its own.
        let unfused = DataflowGraph::build(&plan, false);
        let mut g = unfused.clone();
        g.nodes[2].stages.end += 1;
        g.nodes.remove(3);
        assert_eq!(shape(&g)[2], (COMBINE, 1..3));
        assert!(g.validate(&plan, 8).is_empty());
        // The same fold one stage further on: `uniq -c | sort -rn` is not
        // a pair anyone licensed.
        let mut g = unfused.clone();
        g.nodes[3].stages.end += 1;
        g.nodes.remove(4);
        assert_eq!(shape(&g)[3], (COMBINE, 2..4));
        assert!(spans_too_much(&plan, &g));
        // The count-order fold with a fourth stage swallowed.
        let mut g = built.clone();
        g.nodes[2].stages.end += 1;
        g.nodes.remove(3);
        assert_eq!(shape(&g)[2], (COMBINE, 1..5));
        assert!(spans_too_much(&plan, &g));
        // A gather or sorting fold over the licensed stages.
        for mode in [FoldMode::Gather, FoldMode::Sort] {
            let mut g = built.clone();
            g.nodes[2].kind = NodeKind::Fold { mode };
            assert!(spans_too_much(&plan, &g), "{mode:?}");
        }
        // Three stages over a counting pair with no count order.
        let refused = planned("cat /in.txt | sort | uniq -c | sort -rnf");
        let g = DataflowGraph::build(&refused, true);
        assert_eq!(
            shape(&g),
            [(NodeKind::Split, 0..0), (COMBINE, 0..2), (SORT, 2..3)]
        );
        let mut g = g.clone();
        g.nodes[1].stages.end += 1;
        g.nodes[1].kind = COMBINE;
        g.nodes.remove(2);
        assert!(spans_too_much(&refused, &g));
    }

    #[test]
    fn eager_flush_propagates_through_chunk_local_nodes_only() {
        let g = graph("cat /in.txt | grep fox | grep o | head -n 1", false);
        // Split, grep, grep, head: both greps and the split flush eagerly.
        assert_eq!(
            g.nodes.iter().map(|n| n.eager_flush).collect::<Vec<_>>(),
            vec![true, true, true, false]
        );
        let g = graph("cat /in.txt | sort | head -n 1", true);
        // The fold blocks the propagation: split need not flush eagerly.
        assert_eq!(
            g.nodes.iter().map(|n| n.eager_flush).collect::<Vec<_>>(),
            vec![false, true, false]
        );
    }
}
