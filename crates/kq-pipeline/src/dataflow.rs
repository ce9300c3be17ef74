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
//! Every node past the split says what a task makes of one input chunk
//! (its *map*) and what the chunks it maps fold by (its *fold*):
//! [`NodeKind::StageWorker`] maps each chunk through its chain and folds
//! nothing, and [`NodeKind::Fold`] names its [`NodeMap`] and [`FoldBy`].
//! One row per map × fold that [`DataflowGraph::build`] makes:
//!
//! | node | map of a chunk | fold | output | parallelism |
//! |---|---|---|---|---|
//! | [`NodeKind::Split`] | — | — | the statement's gathered input cut into line-aligned chunks, lazily | one task at a time |
//! | `StageWorker { seam: false }` | the chain of chunk-local commands | none: outputs are re-normalized by an incremental chunker and forwarded **in input order** | the chunk outputs | one scheduler task per chunk, any number in flight |
//! | `StageWorker { seam: true }` — headed by a seam stage, a `tr -s` that splits text into lines (see "Seam rewrite") | the chain, except that the head stage's output for every chunk but the first loses one leading `'\n'` before the rest of the chain sees it | none, as above | as above | as any stage worker |
//! | `Fold { map: Chain, by: Combiner }` | the stage's command | the stage's synthesized combiner, by its own flags, in input order | the combined stream, re-chunked | per-chunk map tasks in parallel, the fold itself in arrival order |
//! | `Fold { map: Counted, by: Merge { count: None, .. } }` — a `sort \| uniq -c` pair (see "Counting rewrite") | the hash count of the counted order: the chunk's distinct lines in the sort's order behind their counts — or, when most of its lines are distinct, the chunk itself, raw | the sort's `merge` under the counted order, raw chunks sorted in batches of their own | byte for byte the `uniq -c` stage's output | as a one-stage combine fold |
//! | `Fold { map: Counted, by: Merge { count: Some(_), .. } }` — that pair and the numeric `sort` after it (see "Count-order rewrite") | as the counting fold | as the counting fold, except that each part of the closing merge regroups its counted lines by count, and the parts' groups are stitched count by count | byte for byte the third stage's output | as the counting fold: the parts merge and regroup as pool tasks |
//! | `Fold { map: Chain, by: Merge { .. } }` — a `sort \| uniq` pair whose sort is not a sorting fold | `sort -u` of the chunk: the pair's chain | the sort's `merge` under `-u` | byte for byte the `uniq` stage's output | as a one-stage combine fold |
//! | `Fold { map: Raw, by: Merge { .. } }` — a `sort`, or the `sort \| uniq` of a unique pair (see "Sorting rewrite") | nothing: the chunk goes as it is | batches of chunks sorted into runs (under `-u` for the pair), the runs merged by the stage's `merge` | the stage's output | a sort per run batch, batches in parallel; the closing merge in parts as for any merge fold |
//! | `Fold { map: Raw, by: Rerun { bound: None } }` — a sequential stage | nothing | the stage's `rerun`: the command runs once over all the chunks when the input ends (on the empty stream when none came) | the command's output, re-chunked | per-chunk tasks, the fold in arrival order; the one run of the command by one task |
//! | `Fold { map: Raw, by: Rerun { bound: Some(k) } }` — a prefix-bounded stage (`head -n k`, `sed kq`) | nothing; chunks are taken **in stream order**, only until `k` complete lines exist | as the rerun fold, except that the fold counts the lines it takes in: the chunk that meets the bound cancels everything upstream, chunks behind it are dropped, and the command runs once on the prefix | as the rerun fold | as the rerun fold |
//!
//! [`DataflowGraph::build`] makes each node in one pass over the stages,
//! from the flags [`PlannedStatement::new`](crate::plan::PlannedStatement::new)
//! set: the rewrites below are the clauses of that pass, and building
//! with `rewrite = false` (`--no-opt`) takes none of them.
//!
//! # Fusion rewrite
//!
//! Unrewritten, the graph has one node per planned stage. The pass
//! instead extends a [`NodeKind::StageWorker`] over every chunk-local
//! stage after it: one node whose stage range is the concatenation, with
//! no edge between the stages (`grep | tr | cut` becomes a single node
//! piping each chunk through all three commands) — up to a seam stage,
//! which heads a node of its own (see "Seam rewrite"). The rewrite is
//! semantics-preserving by the chunk-local property — each
//! stage's combiner is plain concat over newline-terminated chunk outputs,
//! so per-chunk composition commutes with concatenation.
//!
//! # Counting rewrite
//!
//! A second clause of the pass, under the same switch as fusion: a
//! parallel `sort` directly followed by a parallel `uniq`, each of which
//! would be a one-stage combine fold, becomes **one** fold spanning both
//! stages — `Fold { map: Counted, by: Merge { .. } }` for `uniq -c` — when
//! the plan says the pair is licensed ([`PlannedStage::fold_pair`], the
//! answer of [`crate::lattice::fold_pair`]). `uniq` needs the sort only for
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
//!   leave stream order. Spill and the closing merge in parts see
//!   ordinary line runs. (Plain `uniq`:
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
//! Part of the counting rewrite: a counting pair whose sort the plan
//! marks [`PlannedStage::count_order`] — the answer of [`crate::lattice::count_order`] about that sort and the
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
//!   √(2 × lines), short slices copied together (the fold's
//!   `fold-stitch` work).
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
//! The third clause under that switch takes a serial pass off the
//! chain: a stage the plan marks [`PlannedStage::seam`] — which would be
//! the rerun fold of a stage planned sequential, or the fold of one
//! planned parallel, which would gather the chunk outputs and rerun the
//! command over them — heads a `StageWorker { seam: true }`. Such a
//! stage is a `tr -s` that leaves `'\n'` alone and squeezes it — the word
//! splitter `tr -cs A-Za-z '\n'` — and the only thing it carries from one
//! line-aligned piece of its input to the next is the last character it
//! wrote, which after any non-empty piece is `'\n'`
//! ([`kq_coreutils::Command::newline_seam`]). So for chunks `x0, x1, …`:
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
//! The fourth clause under the switch: a fold whose first stage the plan
//! marks [`PlannedStage::sorting`] — a `sort` whose combiner is the `merge`
//! of the very order it sorts by, alone or at the head of a unique pair
//! the counting rewrite fuses — maps nothing: `Fold { map: Raw, by:
//! Merge { .. } }`. A parallel `sort` sorts every chunk and the fold
//! merges the sorted chunks, in two levels (run batches, then the closing merge): every line handled three
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
//! cut into batches of a part's bytes by the fold's close, sorted as pool
//! tasks of their own, so that the closing merge in parts reads runs only.
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
//! bounded fold (`Fold { map: Raw, by: Rerun { bound: Some(k) } }`) at
//! position `b` meets its demand of `k` lines before its input closes,
//! the scheduler marks nodes `0..b` cancelled and **clears** every edge
//! feeding them *and* the bounded node's own input edge — chunks already
//! queued are dropped, not processed. In-flight tasks at cancelled nodes
//! discard their output when they complete. A stage after one that decodes its input gets no
//! bound ([`PlannedStage::line_bound`]) unless a barrier — a fold that
//! reads all its input before it emits — stands between them: without
//! one, the bytes a cancellation skips are bytes the serial run fails on.
//! The propagation matrix:
//!
//! | event | upstream nodes | queued chunks | downstream nodes | statement result |
//! |---|---|---|---|---|
//! | **bound satisfied** | cancelled; telemetry keeps the work actually done | dropped from every edge at or above the bound | receive the bounded stage's re-chunked prefix output, then end-of-input | `Ok`, with `StageTiming::early_exit` set |
//! | **command error** | cancelled | dropped from every edge of the statement | cancelled | the statement's first recorded error surfaces |
//! | **sibling statement error** | statements already running finish their own way; statements still waiting on dependencies are abandoned | — | — | the lowest-indexed failing statement's error surfaces |
//!
//! # Demand propagation
//!
//! [`DataflowGraph::eager_flush`]: a `StageWorker` whose downstream chain
//! reaches a bounded fold through chunk-local nodes only ships complete
//! lines immediately instead of re-normalizing to the chunk-size target,
//! so a sparse stage (`grep` with one match) cannot sit on the very lines
//! that would satisfy the bound.
//! It is a function of the node chain alone, so the scheduler derives it
//! when it sets up each node, and no graph stores it.
//!
//! [`PlannedStage::line_bound`]: crate::plan::PlannedStage::line_bound

use crate::lattice::FoldPair;
use crate::plan::{PlannedStage, PlannedStatement, StageMode};
use kq_coreutils::sort::{CountOrder, LineOrder};
use std::ops::Range;

/// What a task at a [`NodeKind::Fold`] makes of one input chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeMap {
    /// The node's command chain.
    Chain,
    /// Nothing: the chunk goes to the fold raw, a refcount bump. A sorting
    /// fold sorts it there in a batch with its neighbours; a `rerun` fold
    /// runs the command once over it and all the others.
    Raw,
    /// The hash count of the counted order the node merges under
    /// ([`LineOrder::count_bytes`]): the chunk's counted run, or, when the
    /// table gives up, the chunk itself, raw.
    Counted,
}

/// What the mapped chunks of a [`NodeKind::Fold`] fold by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldBy {
    /// The stage's synthesized combiner, by its own flags.
    Combiner,
    /// The stage's `merge`, under `order` — the sort's own, counted for a
    /// `sort | uniq -c` pair, under `-u` for a `sort | uniq` pair — with
    /// the [`CountOrder`] its closing merge regroups in, at a counting pair
    /// that closes in the order of the numeric sort after it.
    Merge {
        /// The line order every merge of the fold compares by.
        order: LineOrder,
        /// The count order the closing merge regroups its lines in.
        count: Option<CountOrder>,
    },
    /// The paper's `rerun`: the command runs once over every chunk, or,
    /// with a prefix bound (`head -n k`, `sed kq`), over the chunks until
    /// `k` complete lines exist, cancelling everything upstream then.
    Rerun {
        /// The stage's prefix bound in complete lines.
        bound: Option<usize>,
    },
}

/// The operation a dataflow node performs (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Cuts the statement input into line-aligned chunks.
    Split,
    /// A run of chunk-local stages: each chunk pipes through the run's
    /// commands independently; outputs flow on uncombined (Theorem 5
    /// applied per chunk).
    StageWorker {
        /// The run's first stage is a seam stage, whose output for every
        /// chunk but the first loses one leading `'\n'`.
        seam: bool,
    },
    /// Stages that must see their whole input (or, bounded, a prefix of
    /// it) before emitting.
    Fold {
        /// What a task makes of one chunk.
        map: NodeMap,
        /// What the mapped chunks fold by.
        by: FoldBy,
    },
}

/// One node of a statement's dataflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowNode {
    /// The operation.
    pub kind: NodeKind,
    /// Stage index range within the statement (`start..end`, end
    /// exclusive). Empty (`0..0`) for [`NodeKind::Split`]; length > 1 only
    /// for fused [`NodeKind::StageWorker`] runs, for the two-stage merge
    /// fold of a licensed `sort | uniq` pair, and for the three-stage one
    /// of a counting pair closing in count order. Every stage of a
    /// `StageWorker` is chunk-local, except that the first is a seam stage
    /// where the node says so.
    pub stages: Range<usize>,
}

/// What a problem [`DataflowGraph::validate`] finds breaks: `kumquat
/// check` reports each class under its own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphFault {
    /// The node chain's shape: the split and the stage partition
    /// (invariants 1 and 2).
    Structure,
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

/// The stage would be a one-stage fold by its combiner: what the counting
/// rewrite fuses.
fn combines(stage: Option<&PlannedStage>) -> bool {
    stage.is_some_and(|stage| {
        stage.line_bound.is_none() && !stage.seam && !stage.streamable && stage.mode.is_parallel()
    })
}

/// The node that starts at stage `i`, with the number of stages it takes
/// (see [`DataflowGraph::build`]).
fn node_at(stages: &[PlannedStage], i: usize, rewrite: bool) -> (NodeKind, usize) {
    let stage = &stages[i];
    let fold = |map, by| NodeKind::Fold { map, by };
    let rerun = |bound| fold(NodeMap::Raw, FoldBy::Rerun { bound });
    if stage.line_bound.is_some() {
        return (rerun(stage.line_bound), 1);
    }
    let seam = rewrite && stage.seam;
    if stage.streamable || seam {
        return (NodeKind::StageWorker { seam }, 1);
    }
    let StageMode::Parallel { combiner, .. } = &stage.mode else {
        return (rerun(None), 1);
    };
    let plain = (fold(NodeMap::Chain, FoldBy::Combiner), 1);
    let Some(order) = combiner.merge_order().filter(|_| rewrite) else {
        return plain;
    };
    let merge = |order, count| FoldBy::Merge { order, count };
    let sorted = if stage.sorting {
        NodeMap::Raw
    } else {
        NodeMap::Chain
    };
    let uniq = combines(stages.get(i + 1));
    match stage.fold_pair {
        Some(FoldPair::Counting) if uniq => {
            let count = stage.count_order.filter(|_| combines(stages.get(i + 2)));
            let by = merge(order.counted(), count);
            (fold(NodeMap::Counted, by), 2 + usize::from(count.is_some()))
        }
        Some(FoldPair::Unique) if uniq => (fold(sorted, merge(order.unique(), None)), 2),
        _ if stage.sorting => (fold(NodeMap::Raw, merge(order, None)), 1),
        _ => plain,
    }
}

impl DataflowGraph {
    /// Builds the graph for one planned statement, in one pass over its
    /// stages. Each stage starts a node by its plan:
    ///
    /// * a prefix-bounded stage ([`PlannedStage::line_bound`], `head -n k`,
    ///   `sed kq`) is a bounded `rerun` fold whatever its mode — it takes
    ///   chunks only until `k` complete lines exist, then cancels
    ///   everything upstream and runs the command once on the prefix;
    /// * a chunk-local stage ([`PlannedStage::streamable`]) is a
    ///   [`NodeKind::StageWorker`];
    /// * any other parallel stage is a fold of its chain by its combiner,
    ///   and a sequential one a `rerun` fold of the raw chunks.
    ///
    /// With `rewrite` (`--no-opt` builds without), the pass also takes the
    /// rewrites the plan licenses: a seam stage heads a stage worker of
    /// its own ("Seam rewrite" in the [module docs](self)), a chunk-local
    /// stage joins the stage worker before it ("Fusion rewrite"), a
    /// licensed `sort | uniq` pair is one merge fold — with the numeric
    /// sort after a counting pair that closes in its order ("Counting
    /// rewrite", "Count-order rewrite") — and a licensed sort's fold takes
    /// its chunks raw ("Sorting rewrite").
    ///
    /// [`PlannedStage::line_bound`]: crate::plan::PlannedStage::line_bound
    /// [`PlannedStage::streamable`]: crate::plan::PlannedStage::streamable
    pub fn build(planned: &PlannedStatement, rewrite: bool) -> DataflowGraph {
        let split = DataflowNode {
            kind: NodeKind::Split,
            stages: 0..0,
        };
        let mut nodes = vec![split];
        let mut i = 0;
        while i < planned.stages.len() {
            let (kind, len) = node_at(&planned.stages, i, rewrite);
            let last = nodes.last_mut().expect("the split");
            let joins = matches!(last.kind, NodeKind::StageWorker { .. })
                && kind == NodeKind::StageWorker { seam: false };
            if rewrite && joins {
                last.stages.end = i + len;
            } else {
                nodes.push(DataflowNode {
                    kind,
                    stages: i..i + len,
                });
            }
            i += len;
        }
        DataflowGraph { nodes }
    }

    /// Demand propagation (see the [module docs](self)), per node: whether
    /// it must ship complete lines at once. A node does when its successor
    /// is a bounded fold, or is a stage worker that itself does. Other
    /// folds need their whole input regardless, so the propagation stops
    /// there.
    pub fn eager_flush(&self) -> Vec<bool> {
        let mut flush = vec![false; self.nodes.len()];
        for i in (0..self.nodes.len().saturating_sub(1)).rev() {
            flush[i] = match self.nodes[i + 1].kind {
                NodeKind::Fold {
                    by: FoldBy::Rerun { bound: Some(_) },
                    ..
                } => true,
                NodeKind::StageWorker { .. } => flush[i + 1],
                NodeKind::Fold { .. } | NodeKind::Split => false,
            };
        }
        flush
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
    ///    merge fold over exactly the two stages of a `sort | uniq` pair
    ///    the plan licenses (`planned.stages[start].fold_pair`), or a
    ///    counting merge fold closing in a count order over exactly the
    ///    three stages of a counting pair and the numeric sort the plan
    ///    licenses it to close in the order of
    ///    (`planned.stages[start].count_order`) — any other multi-stage
    ///    node is a rewrite gone wrong; a fold that maps its chunks raw
    ///    into a merge has a first stage the plan marks `sorting`, and a
    ///    counting pair is never one, nor anything but a counting pair a
    ///    fold that counts its chunks; and within a
    ///    [`NodeKind::StageWorker`] every stage is chunk-local
    ///    ([`PlannedStage::streamable`](crate::plan::PlannedStage::streamable))
    ///    but the first of a `seam` worker, which is a seam stage. A seam
    ///    stage anywhere else — behind another stage of a run, at the
    ///    head of a worker that does not strip its seam, in a fold over
    ///    two stages — is a rewrite gone wrong (a one-stage fold is where
    ///    it sits in the unrewritten graph).
    pub fn validate(&self, planned: &PlannedStatement) -> Vec<(GraphFault, String)> {
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
            let pair = first.and_then(|sort| sort.fold_pair);
            let licensed = match (node.kind, node.stages.len()) {
                (NodeKind::StageWorker { .. }, _) | (_, 0 | 1) => true,
                (
                    NodeKind::Fold {
                        by: FoldBy::Merge { count: None, .. },
                        ..
                    },
                    2,
                ) => pair.is_some(),
                (
                    NodeKind::Fold {
                        map: NodeMap::Counted,
                        by: FoldBy::Merge { count: Some(_), .. },
                    },
                    3,
                ) => first.is_some_and(|sort| sort.count_order.is_some()),
                _ => false,
            };
            if !licensed {
                fusion.push(format!(
                    "node {i} ({:?}) spans stages {:?}; only fused StageWorker runs, the \
                     merge fold of a licensed sort | uniq pair and that of a counting pair \
                     licensed to close in count order may span more than one stage",
                    node.kind, node.stages
                ));
            }
            if let NodeKind::Fold {
                map: map @ (NodeMap::Raw | NodeMap::Counted),
                by: FoldBy::Merge { .. },
            } = node.kind
            {
                let sorts = first.is_some_and(|sort| sort.sorting);
                let counts = pair == Some(FoldPair::Counting);
                let (holds, what) = match map {
                    NodeMap::Raw => (sorts && !counts, "fold raw chunks"),
                    _ => (counts, "count its chunks"),
                };
                if !holds {
                    fusion.push(format!(
                        "node {i} is a merge fold over stages {:?}, whose first stage the \
                         plan does not license to {what}",
                        node.stages
                    ));
                }
            }
            for idx in node.stages.clone() {
                // A range past the plan is reported below, once.
                let Some(stage) = planned.stages.get(idx) else {
                    break;
                };
                let heads = idx == node.stages.start;
                let legal = match node.kind {
                    NodeKind::StageWorker { seam: true } if heads => stage.seam,
                    NodeKind::StageWorker { .. } => stage.streamable,
                    _ => node.stages.len() == 1 || !stage.seam,
                };
                if !legal {
                    fusion.push(format!(
                        "node {i} ({:?}) over stages {:?} holds stage {idx}, which is {}",
                        node.kind,
                        node.stages,
                        if stage.seam {
                            "a seam stage: it may only head a StageWorker that strips its seam"
                        } else if heads && node.kind == (NodeKind::StageWorker { seam: true }) {
                            "no seam stage"
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
        let tag = |fault| move |problem| (fault, problem);
        let structure = structure.into_iter().map(tag(GraphFault::Structure));
        structure
            .chain(fusion.into_iter().map(tag(GraphFault::Fusion)))
            .collect()
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

    fn graph(script_text: &str, rewrite: bool) -> DataflowGraph {
        DataflowGraph::build(&planned(script_text), rewrite)
    }

    fn shape(g: &DataflowGraph) -> Vec<(NodeKind, Range<usize>)> {
        g.nodes.iter().map(|n| (n.kind, n.stages.clone())).collect()
    }

    const RERUN: NodeKind = NodeKind::Fold {
        map: NodeMap::Raw,
        by: FoldBy::Rerun { bound: None },
    };
    const WORKER: NodeKind = NodeKind::StageWorker { seam: false };
    const SEAM: NodeKind = NodeKind::StageWorker { seam: true };
    const COMBINE: NodeKind = NodeKind::Fold {
        map: NodeMap::Chain,
        by: FoldBy::Combiner,
    };

    /// A fold whose map hands chunks on raw into a merge: a sorting fold.
    fn sorts(kind: NodeKind) -> bool {
        matches!(
            kind,
            NodeKind::Fold {
                map: NodeMap::Raw,
                by: FoldBy::Merge { .. }
            }
        )
    }

    /// A sorting fold under `order`.
    fn sorting(order: &[&str]) -> NodeKind {
        let flags: Vec<String> = order.iter().map(|f| f.to_string()).collect();
        let order = LineOrder::parse(&flags).unwrap();
        NodeKind::Fold {
            map: NodeMap::Raw,
            by: FoldBy::Merge { order, count: None },
        }
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
                (WORKER, 0..1),
                (SEAM, 1..3),
                (SEAM, 3..5),
                (sorting(&[]), 5..6),
            ]
        );
        assert!(g.validate(&p).is_empty());
        // The switch that builds no rewrite keeps the rerun folds.
        let unfused = DataflowGraph::build(&p, false);
        assert_eq!(unfused.nodes[2].kind, RERUN);
        assert_eq!(unfused.nodes[4].kind, RERUN);
        assert!(unfused.nodes.iter().all(|n| n.kind != SEAM));
        assert!(unfused.validate(&p).is_empty());
        // A squeeze the lattice refuses stays a rerun fold, and so does
        // any other sequential stage.
        for text in [
            "cat /in.txt | tr -s '\\n' ' ' | sort",
            "cat /in.txt | sed 1d | sort",
        ] {
            assert_eq!(graph(text, true).nodes[1].kind, RERUN, "{text}");
        }
        // A bounded fold behind a seam node demands eager flushes
        // through it.
        let g = graph("cat /in.txt | tr -cs A-Za-z '\\n' | head -n 3", true);
        assert_eq!(g.nodes[1].kind, SEAM);
        assert_eq!(g.eager_flush()[..2], [true, true]);
    }

    #[test]
    fn validate_admits_a_seam_stage_only_at_the_head_of_a_worker() {
        let text = "cat /in.txt | grep o | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort";
        let p = planned(text);
        let finds = |g: &DataflowGraph, what: &str| {
            g.validate(&p)
                .iter()
                .any(|(_, problem)| problem.contains(what))
        };
        let misplaced = |g: &DataflowGraph| finds(g, "a seam stage");
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
        // At the head of a worker that does not strip its seam.
        let mut g = built.clone();
        g.nodes[2].kind = WORKER;
        assert!(misplaced(&g));
        // A worker that strips a seam its head stage does not have.
        let mut g = built.clone();
        g.nodes[1].kind = SEAM;
        assert!(finds(&g, "no seam stage"));
        // A stage that is neither chunk-local nor a seam, in a worker.
        let mut g = built.clone();
        let sort = g.nodes.len() - 1;
        g.nodes[sort].kind = WORKER;
        assert!(finds(&g, "not chunk-local"));
    }

    #[test]
    fn counting_rewrite_fuses_exactly_the_licensed_fold_pairs() {
        // Both kinds of pair, back to back; the second sort is not the
        // `uniq` of the first pair, and `sort -rn` has no `uniq` after it.
        let text = "cat /in.txt | sort -r | uniq | sort -f | uniq -c | sort -rn";
        let p = planned(text);
        let g = DataflowGraph::build(&p, true);
        let ranges: Vec<Range<usize>> = g.nodes.iter().map(|n| n.stages.clone()).collect();
        assert_eq!(ranges, [0..0, 0..2, 2..4, 4..5]);
        // The unique pair, and the last sort, sort raw chunks too (the
        // pair under `-u`); the counting pair keeps its counting map.
        assert_eq!(g.nodes[1].kind, sorting(&["-r", "-u"]));
        let counted = LineOrder::parse(&["-f".to_owned()]).unwrap().counted();
        assert_eq!(
            g.nodes[2].kind,
            NodeKind::Fold {
                map: NodeMap::Counted,
                by: FoldBy::Merge {
                    order: counted,
                    count: None
                },
            }
        );
        assert_eq!(g.nodes[3].kind, sorting(&["-rn"]));
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
        let kinds = |text: &str, rewrite: bool| -> Vec<NodeKind> {
            graph(text, rewrite).nodes.iter().map(|n| n.kind).collect()
        };
        let split = NodeKind::Split;
        // Plain, unique, numeric, reversed, folded and field-keyed sorts;
        // the counting pair keeps its map.
        for (text, order) in [
            ("cat /in.txt | sort", &[][..]),
            ("cat /in.txt | sort -u", &["-u"][..]),
            ("cat /in.txt | sort -rn", &["-rn"][..]),
            ("cat /in.txt | sort -fu", &["-fu"][..]),
            ("cat /in.txt | sort -k1n", &["-k1n"][..]),
            ("cat /in.txt | sort --parallel=1", &[][..]),
        ] {
            assert_eq!(kinds(text, true), [split, sorting(order)], "{text}");
            // `--no-opt` builds none of it.
            assert_eq!(kinds(text, false), [split, COMBINE], "{text}");
        }
        let counting = kinds("cat /in.txt | sort | uniq -c", true);
        assert!(matches!(
            counting[..],
            [
                NodeKind::Split,
                NodeKind::Fold {
                    map: NodeMap::Counted,
                    ..
                }
            ]
        ));
        assert_eq!(
            kinds("cat /in.txt | sort -r | uniq", true),
            [split, sorting(&["-r", "-u"])]
        );
        // A merge, and a sort of a named stream besides its input, are not
        // sorts of their input chunks.
        for text in ["cat /in.txt | sort -m", "cat /in.txt | sort - /in.txt"] {
            assert!(!kinds(text, true).into_iter().any(sorts), "{text}");
        }
        // Every graph the rewrite builds is valid; a sorting fold the plan
        // does not license is not.
        for text in [
            "cat /in.txt | sort -r | uniq | sort -f | uniq -c | sort -rn",
            "cat /in.txt | sort -m",
        ] {
            let p = planned(text);
            assert!(DataflowGraph::build(&p, true).validate(&p).is_empty());
            let mut g = DataflowGraph::build(&p, false);
            for node in &mut g.nodes[1..] {
                node.kind = sorting(&[]);
            }
            let refused = g.validate(&p);
            assert!(
                refused.iter().any(|(_, p)| p.contains("does not license")),
                "{text}: {refused:?}"
            );
        }
        let p = planned("cat /in.txt | sort | uniq -c");
        let mut g = DataflowGraph::build(&p, true);
        g.nodes[1].kind = sorting(&[]);
        assert!(g
            .validate(&p)
            .iter()
            .any(|(_, p)| p.contains("merge fold over stages 0..2")
                && p.contains("to fold raw chunks")));
        // Nor does it license anything but a counting pair to count.
        let p = planned("cat /in.txt | sort -r | uniq");
        let mut g = DataflowGraph::build(&p, true);
        g.nodes[1].kind = NodeKind::Fold {
            map: NodeMap::Counted,
            by: FoldBy::Merge {
                order: LineOrder::parse(&[]).unwrap().counted(),
                count: None,
            },
        };
        assert!(g
            .validate(&p)
            .iter()
            .any(|(_, p)| p.contains("to count its chunks")));
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
            .all(|n| n.kind == WORKER && n.stages.len() == 1));
    }

    #[test]
    fn fusion_rewrite_merges_maximal_streamable_runs() {
        let g = graph(
            "cat /in.txt | grep o | tr A-Z a-z | cut -c 1-5 | sort",
            true,
        );
        let workers: Vec<Range<usize>> = g
            .nodes
            .iter()
            .filter(|n| n.kind == WORKER)
            .map(|n| n.stages.clone())
            .collect();
        assert_eq!(workers, vec![0..3], "three chunk-local stages fuse");
    }

    #[test]
    fn bounded_stage_becomes_bounded_rerun_fold() {
        let g = graph("cat /in.txt | grep fox | head -n 2 | grep o", true);
        assert_eq!(
            g.nodes[2].kind,
            NodeKind::Fold {
                map: NodeMap::Raw,
                by: FoldBy::Rerun { bound: Some(2) }
            }
        );
        // A bounded node never fuses into a neighboring streamable run.
        assert_eq!(g.nodes.len(), 4);
    }

    #[test]
    fn validate_accepts_built_graphs_and_rejects_broken_ones() {
        let script = "cat /in.txt | grep fox | tr A-Z a-z | sort | head -n 2";
        let plan = planned(script);
        let finds = |g: &DataflowGraph, plan: &PlannedStatement, want, text| {
            g.validate(plan)
                .iter()
                .any(|(fault, p)| *fault == want && p.contains(text))
        };
        for rewrite in [false, true] {
            let g = graph(script, rewrite);
            assert!(g.validate(&plan).is_empty());
        }

        let mut g = graph(script, true);
        // A gap in the stage partition.
        let last = g.nodes.len() - 1;
        g.nodes[last].stages.start += 1;
        assert!(finds(&g, &plan, GraphFault::Structure, "previous node"));

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
            GraphFault::Fusion,
            "span more than one stage"
        ));

        // Wrong stage count.
        let g = graph(script, true);
        let longer = planned("cat /in.txt | grep fox | tr A-Z a-z | sort | head -n 2 | wc -l");
        assert!(finds(&g, &longer, GraphFault::Structure, "has 5 stage(s)"));
    }

    #[test]
    fn validate_admits_the_licensed_two_and_three_stage_folds_and_no_other() {
        let text = "cat /in.txt | tr A-Z a-z | sort | uniq -c | sort -rn | wc -l";
        let plan = planned(text);
        let spans_too_much = |plan: &PlannedStatement, g: &DataflowGraph| {
            g.validate(plan)
                .iter()
                .any(|(_, p)| p.contains("span more than one stage"))
        };
        let built = DataflowGraph::build(&plan, true);
        let counted = LineOrder::parse(&[]).unwrap().counted();
        let pair = |count| NodeKind::Fold {
            map: NodeMap::Counted,
            by: FoldBy::Merge {
                order: counted,
                count,
            },
        };
        let count_order = plan.stages[1].count_order;
        assert!(count_order.is_some());
        assert_eq!(shape(&built)[2], (pair(count_order), 1..4));
        assert!(built.validate(&plan).is_empty());
        // The pair alone, its count order left to a fold of its own.
        let unfused = DataflowGraph::build(&plan, false);
        let mut g = unfused.clone();
        g.nodes[2].stages.end += 1;
        g.nodes[2].kind = pair(None);
        g.nodes.remove(3);
        assert_eq!(shape(&g)[2], (pair(None), 1..3));
        assert!(g.validate(&plan).is_empty());
        // The same fold one stage further on: `uniq -c | sort -rn` is not
        // a pair anyone licensed.
        let mut g = unfused.clone();
        g.nodes[3].stages.end += 1;
        g.nodes[3].kind = pair(None);
        g.nodes.remove(4);
        assert_eq!(shape(&g)[3], (pair(None), 2..4));
        assert!(spans_too_much(&plan, &g));
        // The count-order fold with a fourth stage swallowed.
        let mut g = built.clone();
        g.nodes[2].stages.end += 1;
        g.nodes.remove(3);
        assert_eq!(shape(&g)[2], (pair(count_order), 1..5));
        assert!(spans_too_much(&plan, &g));
        // A rerun or sorting fold over the licensed stages, and a counting
        // fold over them that does not close in count order.
        let count = count_order.unwrap();
        for kind in [
            RERUN,
            NodeKind::Fold {
                map: NodeMap::Raw,
                by: FoldBy::Merge {
                    order: counted,
                    count: Some(count),
                },
            },
            pair(None),
        ] {
            let mut g = built.clone();
            g.nodes[2].kind = kind;
            assert!(spans_too_much(&plan, &g), "{kind:?}");
        }
        // Three stages over a counting pair with no count order.
        let refused = planned("cat /in.txt | sort | uniq -c | sort -rnf");
        let g = DataflowGraph::build(&refused, true);
        assert_eq!(
            shape(&g),
            [
                (NodeKind::Split, 0..0),
                (pair(None), 0..2),
                (sorting(&["-rnf"]), 2..3)
            ]
        );
        let mut g = g.clone();
        g.nodes[1].stages.end += 1;
        g.nodes[1].kind = pair(Some(count));
        g.nodes.remove(2);
        assert!(spans_too_much(&refused, &g));
    }

    #[test]
    fn eager_flush_propagates_through_chunk_local_nodes_only() {
        let g = graph("cat /in.txt | grep fox | grep o | head -n 1", false);
        // Split, grep, grep, head: both greps and the split flush eagerly.
        assert_eq!(g.eager_flush(), vec![true, true, true, false]);
        let g = graph("cat /in.txt | sort | head -n 1", true);
        // The fold blocks the propagation: split need not flush eagerly.
        assert_eq!(g.eager_flush(), vec![false, true, false]);
    }
}
