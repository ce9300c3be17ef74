//! k-way combining (paper §3.5, "Combining Multiple Substreams").
//!
//! Synthesized combiners are binary, but parallel execution produces `k`
//! output substreams. Three combiners generalize natively — `concat` is
//! `cat $*`, `merge <flags>` is `sort -m <flags> $*`, and `rerun` is one
//! re-execution over the concatenation — while every other combiner is
//! applied pairwise, in a balanced tree, until one stream remains.
//!
//! [`combine_all`] combines a list of pieces with one candidate;
//! [`IncrementalFold`] folds them as they arrive, over the members of a
//! composite, and applies the composite rule of §3.2 to each pair it
//! combines ([`combine_pair`]): the first member whose legal domain
//! contains both arguments.

use crate::ast::{Candidate, Combiner, RecOp, RunOp};
use crate::domain::in_domain;
use crate::eval::{eval, merge_order, EvalError, RunEnv};
use crate::spill::SpillConfig;
use kq_coreutils::sort::{CountOrder, LineOrder};
use kq_stream::{Bytes, ReleaseCursor, Rope};
use std::ops::Range;

/// Combines `k` parallel output substreams with the given candidate.
///
/// The paper (§3.5) generalizes three combiners natively — `concat` is
/// `cat $*`, `merge <flags>` is `sort -m <flags> $*`, and `rerun` is one
/// re-execution over the concatenation — and applies every other combiner
/// pairwise "until only one substream remains", here as a balanced tree
/// fold, so each byte is touched `O(log k)` times.
///
/// Empty substreams (a worker that received no lines) are skipped: they
/// contribute nothing to the combined stream, matching the behaviour of
/// the shell implementations (`cat`/`sort -m` of empty files).
///
/// Pieces arrive and leave as [`Bytes`]: a single surviving piece is
/// returned by refcount bump, k-way `concat` gathers the segments with at
/// most one memcpy ([`Rope::into_bytes`]), `merge` reads the pieces' bytes
/// in place and writes one pre-sized output, and `rerun` hands the
/// gathered stream to the command without an owned-string round trip.
pub fn combine_all(
    candidate: &Candidate,
    pieces: &[Bytes],
    env: &dyn RunEnv,
) -> Result<Bytes, EvalError> {
    let live = match live_pieces(pieces) {
        Ok(live) => live,
        Err(settled) => return Ok(settled),
    };
    match &candidate.op {
        // concat == `cat $*`: a segment gather, no pairwise work.
        Combiner::Rec(RecOp::Concat) => {
            let mut ordered = live;
            if candidate.swapped {
                ordered.reverse();
            }
            return Ok(kq_stream::concat_bytes(ordered));
        }
        // merge == `sort -m <flags> $*`: borrow the piece bytes in
        // place (no per-piece copies).
        Combiner::Run(RunOp::Merge(flags)) => {
            let views: Vec<&[u8]> = live.iter().map(|p| p.as_bytes()).collect();
            return env.merge(merge_order(flags)?, &views);
        }
        // rerun == gather everything, re-run `f` once on the bytes.
        Combiner::Run(RunOp::Rerun) => {
            return env.rerun(kq_stream::concat_bytes(live));
        }
        _ => {}
    }
    // Tree fold. Leaves enter the tree as refcounted slices; only
    // combined intermediates are owned.
    let mut level: Vec<Bytes> = live.into_iter().cloned().collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            match pair {
                [a, b] => {
                    let (x, y) = candidate.oriented(a.as_bytes(), b.as_bytes());
                    next.push(eval(&candidate.op, x, y, env)?);
                }
                [a] => next.push(a.clone()),
                _ => unreachable!("chunks(2) yields 1- or 2-element slices"),
            }
        }
        level = next;
    }
    Ok(level.pop().expect("at least one piece"))
}

/// Combines two adjacent substreams with a composite (paper §3.2): the
/// first of `members` whose legal domain contains both arguments is
/// applied, `earlier` as the left argument ([`Candidate::oriented`]
/// handles swapped members). A lone member is applied with no domain
/// scan. When no member admits both, the last member is evaluated, for
/// its error.
pub fn combine_pair(
    members: &[Candidate],
    earlier: &[u8],
    later: &[u8],
    env: &dyn RunEnv,
) -> Result<Bytes, EvalError> {
    let member = match members {
        [only] => only,
        _ => members
            .iter()
            .find(|m| in_domain(&m.op, earlier) && in_domain(&m.op, later))
            .or(members.last())
            .expect("a composite has members"),
    };
    let (x, y) = member.oriented(earlier, later);
    eval(&member.op, x, y, env)
}

/// A substream pushed into an [`IncrementalFold`].
#[derive(Debug, Clone)]
pub enum Piece {
    /// What the stage printed for a chunk — for a merge fold, a run in the
    /// fold's order. Plain [`Bytes`] convert into this.
    Output(Bytes),
    /// A chunk of the stage's *input*, which a merge fold sorts itself, in
    /// a batch with the raw chunks around it — the chunks of a sorting
    /// fold, and those a counting fold's hash table gave up on — and a
    /// rerun fold runs the command over, once, with all the others: the
    /// chunks of a sequential or prefix-bounded stage.
    Raw(Bytes),
}

impl From<Bytes> for Piece {
    fn from(output: Bytes) -> Piece {
        Piece::Output(output)
    }
}

impl Piece {
    /// The piece's bytes, raw or not.
    pub fn bytes(&self) -> &Bytes {
        match self {
            Piece::Output(bytes) | Piece::Raw(bytes) => bytes,
        }
    }

    /// [`bytes`](Piece::bytes), by value.
    pub fn into_bytes(self) -> Bytes {
        match self {
            Piece::Output(bytes) | Piece::Raw(bytes) => bytes,
        }
    }
}

/// Incremental k-way combining: substreams are folded *as they arrive*
/// instead of being gathered first.
///
/// [`combine_all`] needs the complete piece list, which forces an
/// executor to buffer a stage's whole output before combining — exactly
/// the barrier this type removes. Pieces are pushed in stream
/// order and the combine work overlaps with whatever produces the pieces.
///
/// # The protocol
///
/// A fold usually sits behind a lock that the producers of its pieces
/// share, so none of its methods does work proportional to a run. Work
/// that is goes out as a [`FoldWork`]: the owner runs it with the lock
/// released ([`FoldWork::run`]), on any thread and in any order, and hands
/// the result back ([`complete`]). The fold is the only code that knows
/// what comes next:
///
/// * [`push`] folds a piece in, and may hand out a run batch;
/// * [`close`], when the input ends, and [`complete`] return a [`Step`]:
///   wait for work still out, run more work, or the combined stream.
///
/// A merge fold closes in up to four rounds of work. The pieces it still
/// holds are cut by bytes into run batches, so that several workers make
/// runs of the tail at once. A fold of at least two parts' bytes
/// ([`FINISH_PART_BYTES`] per part, at most [`FINISH_MAX_PARTS`], so the
/// count depends on the bytes folded and on nothing else) is then cut
/// into key ranges ([`LineOrder::partition`]), each merged as work of its
/// own — in memory, or once a run has spilled through a temp file of its
/// own — and the parts' outputs are stitched in part order. A smaller
/// fold merges its runs as one part, and every other fold settles in one
/// piece of work. [`finish`] is the one-thread driver over the same calls.
///
/// [`push`]: IncrementalFold::push
/// [`close`]: IncrementalFold::close
/// [`complete`]: IncrementalFold::complete
/// [`finish`]: IncrementalFold::finish
///
/// # How each combiner folds
///
/// A fold is built over a composite's members ([`over`]) and folds by its
/// first member, the primary — by the composite rule pair by pair where
/// the primary's domain is restricted. How each primary folds (mirroring
/// [`combine_all`]):
///
/// * unswapped `concat` — pieces accumulate in a segment list; the close
///   is the single gather memcpy (zero work per push);
/// * `rerun` — pieces are gathered and the command re-executes once at
///   the close (pairwise rerun would re-run the command per piece on a
///   growing accumulator, O(n·k) command work);
/// * `merge` — run accumulation: arrivals are cut into a batch as soon
///   as enough of them exist, each batch becomes one sorted run, and
///   the close merges the runs. Whether a piece is sorted is a property of
///   the piece ([`Piece`]), so the fold keeps two pending lists: a batch
///   of [`Piece::Output`] runs is k-way merged, a batch of [`Piece::Raw`]
///   chunks is sorted as one ([`LineOrder::sort_bytes`]). Without a spill
///   config a batch of runs forms every [`MERGE_RUN_ARITY`] pieces, and
///   a batch of raw chunks every [`SORT_RUN_BYTES`] — [`COUNT_RUN_BYTES`]
///   under a counted order; under a config, batches are sized to the
///   budget instead — pieces accumulate until their bytes reach
///   [`SpillConfig::batch_bytes`] (capped at [`MERGE_RUN_MAX_PIECES`]
///   pieces), so that every worker of the pool can be making a run at
///   once within three quarters of the budget (see the ledger in
///   [`crate::spill`]). Each byte moves through at most two merges
///   (versus one for the all-at-once merge — that's the price of
///   overlapping — and `log k` for a pairwise tree). A merge costs one
///   prefix scan per line plus `log2 k` integer compares (the
///   offset-value-coded loser tree of [`LineOrder::merge`]): on 31-byte
///   keyed lines with long shared prefixes, ~90 ns/line for a 64-way
///   batch and ~65 ns/line for an 8-way closing merge on one core of a
///   2-core host (152 and 97 ns/line with the seven-byte-key comparator
///   before it). A batch of raw chunks costs one sort (~57 ns/line on a
///   4 MiB batch of those lines), where sorting each chunk and merging
///   the batch cost ~86 + ~90, so each raw line is sorted once and merged
///   once. The two kinds are cut apart, so their runs leave stream order:
///   only a counted order, which calls only identical lines equal, may
///   be fed both;
/// * everything else (the structural stitches, arithmetic folds) — a
///   binary-counter tree fold: slot *i* holds a combined group of `2^i`
///   adjacent pieces, so each push performs O(1) amortized combines and
///   every byte is touched O(log k) times, matching the tree-fold cost.
///   Each combine is §3.2's composite rule on the pair ([`combine_pair`]):
///   the first member whose domain contains both groups. No piece is kept
///   once it is combined, so no later piece can make the fold redo its
///   work with another member.
///   Under a spill config the slot groups are budget-accounted like merge
///   runs: a stored group that would push the resident slot bytes past
///   the budget goes to a temp file and lives in its slot as a mapped
///   slice, so `uniq -c`-style accumulators no longer grow the heap with
///   their output size.
///
/// All of these combiners are associative on adjacent pieces of a split
/// stream (see `combine_all_matches_the_pairwise_fold_on_corpus_combiners`
/// and the `combine_strategies_agree_on_split_pieces` property), so the fold
/// grouping cannot change the result.
///
/// A merge fold is parameterized by its [`LineOrder`] and by nothing else,
/// so the same fold serves a `sort` stage fused with the `uniq` that
/// follows it (a fold [`over`] an order other than its flags'): over a
/// *counted* order the pieces are counted runs (`sort | uniq -c` of each chunk) or
/// raw chunks (whose batch sort counts them), and every merge — of a
/// batch, of a part of the closing merge, of a wave of spilled runs —
/// adds the counts of equal lines, which is as associative as dropping
/// duplicates is under `-u`. No other piece of the fold knows. Nor do
/// they know whether a batch was merged or sorted into its run, so the
/// fold of a `sort` fed its raw chunks (the sorting rewrite) is a merge
/// fold whose pieces all arrive raw.
/// Only the closing merge of a counting fold that closes in count order
/// (a fold [`over`] a count order too) does more: each part regroups what
/// it merged by count, and the stitch interleaves the parts' groups.
///
/// Two rules hold for every fold. One fed no non-empty piece — none at
/// all, or only empty ones, as when an upstream `grep` matched no line —
/// closes as the command run on the empty stream: `wc -l` still owes
/// its `0`. And [`push`] never fails: the first error of a push or of
/// completed work is kept, the fold takes nothing more, and the close
/// returns the error.
///
/// [`over`]: IncrementalFold::over
pub struct IncrementalFold<'a> {
    members: &'a [Candidate],
    env: &'a dyn RunEnv,
    state: FoldState,
    spill: Option<SpillConfig>,
    /// A non-empty piece was pushed.
    fed: bool,
    /// The first error of a push or of completed work, returned at the
    /// close.
    failed: Option<EvalError>,
    /// Work handed out and not yet completed.
    out: usize,
    /// The input ended ([`close`](IncrementalFold::close)).
    closed: bool,
    /// Bytes of runs per part of the closing merge: [`FINISH_PART_BYTES`],
    /// or a few lines' worth in tests.
    part_bytes: usize,
}

/// Pieces per intermediate merge run (see [`IncrementalFold`]) when no
/// spill budget informs the sizing: wide enough that small piece counts
/// degenerate to the single flat merge (no redundant pass), small enough
/// that run merging genuinely overlaps with piece production on long
/// streams. Also the per-wave input bound of the out-of-core run merge.
pub const MERGE_RUN_ARITY: usize = 32;

/// Bytes of accumulated runs per part of a merge fold's closing merge (see
/// [`IncrementalFold`]): large enough that a part's merge
/// dwarfs the cost of cutting it and that folds of KBs — counts, `sort -u`
/// of a selective `grep` — close with the one flat merge they always had,
/// small enough that a sort of tens of MiB gives every worker of a pool
/// several parts to balance with.
pub const FINISH_PART_BYTES: usize = 2 << 20;

/// Ceiling on the parts of one closing merge: under a spill budget every
/// part streams through a temp file of its own, and each is a segment of
/// the fold's output.
pub const FINISH_MAX_PARTS: usize = 32;

/// `pending`'s pieces cut into batches of about `part_bytes`, give or take
/// a line: a piece that overfills a batch is cut at a line end — a
/// line-aligned slice of a sorted piece is sorted, and of a raw one raw —
/// and its rest starts the next. Contiguous in the order pushed, as `push`
/// cuts them.
fn cut_by_bytes(pending: Pending, part_bytes: usize) -> Vec<Vec<Bytes>> {
    let batches = (pending.bytes / part_bytes.max(1)).max(1);
    let target = pending.bytes.div_ceil(batches);
    let mut groups = vec![Vec::new()];
    let mut room = target;
    for mut piece in pending.pieces {
        while piece.len() > room {
            let Some(nl) = piece.as_bytes()[room - 1..]
                .iter()
                .position(|&b| b == b'\n')
            else {
                break;
            };
            let cut = room + nl;
            if cut == piece.len() {
                break;
            }
            groups
                .last_mut()
                .expect("a group")
                .push(piece.slice(0..cut));
            piece = piece.slice(cut..piece.len());
            groups.push(Vec::new());
            room = target;
        }
        room = room.saturating_sub(piece.len());
        groups.last_mut().expect("a group").push(piece);
        if room == 0 {
            groups.push(Vec::new());
            room = target;
        }
    }
    groups.retain(|group| !group.is_empty());
    groups
}

/// Parts to cut a closing merge over `total_bytes` of runs into.
fn finish_part_count(total_bytes: usize, part_bytes: usize) -> usize {
    (total_bytes / part_bytes.max(1)).clamp(1, FINISH_MAX_PARTS)
}

/// Ceiling on pieces per merge run under budget-derived sizing: bounds the
/// arity of each run-forming k-way merge (and its per-piece bookkeeping)
/// when the budget allows very large runs of very small pieces.
pub const MERGE_RUN_MAX_PIECES: usize = 1024;

/// Bytes of raw chunks per run batch of a merge fold when no spill budget
/// informs the sizing. Sorting a batch takes about 2.5 times its bytes
/// beside it on short lines — a 24-byte entry per line and the radix
/// sort's second buffer — where merging one takes only its output: at
/// 512 KiB a sort's working set stays within that of a merge batch of
/// [`MERGE_RUN_ARITY`] 64 KiB chunks, and in a core's cache.
pub const SORT_RUN_BYTES: usize = 512 << 10;

/// [`SORT_RUN_BYTES`] under a counted order: the raw chunks a counting
/// fold's hash table gave up on, nearly every line distinct. Their runs
/// are as large as their input, count columns and all, and live until the
/// closing merge beside the batches being sorted; at 128 KiB a batch is
/// two default chunks. On the `multi-stmt` benchmark script (4 MiB, its
/// first statement's counting fold over 218k lines of which 196k are
/// distinct; `--workers 2` on a 2-core host, 15 alternating runs), raw
/// batches of 128, 256 and 512 KiB took 22%, 21% and 23% off the wall
/// time of sorting every chunk and merging it twice, at +1%, +7% and
/// +13% peak RSS.
pub const COUNT_RUN_BYTES: usize = 128 << 10;

/// The run-size target in bytes of a batch of raw pieces (`raw`) or of
/// runs, under an order that is `counted` or not: under a spill config the
/// batch size of its ledger ([`SpillConfig::batch_bytes`]), so that the
/// batches every worker may be making runs of at once fit in three
/// quarters of the budget (a 64 MiB budget on four workers makes 4 MiB
/// runs); without one, [`SORT_RUN_BYTES`] (or [`COUNT_RUN_BYTES`]) for
/// raw chunks, and none — a run per [`MERGE_RUN_ARITY`] pieces — for runs.
fn merge_run_target(spill: &Option<SpillConfig>, raw: bool, counted: bool) -> Option<usize> {
    match spill {
        Some(cfg) => Some(cfg.batch_bytes()),
        None if !raw => None,
        None if counted => Some(COUNT_RUN_BYTES),
        None => Some(SORT_RUN_BYTES),
    }
}

enum FoldState {
    /// Unswapped concat: a segment list, gathered once at the close.
    Concat(Vec<Bytes>),
    /// Rerun: gather everything, one re-execution at the close. The pieces
    /// are the stage's outputs — `rerun` as a combiner, which leaves a
    /// lone piece as it is — or, `raw`, chunks of its input: the command
    /// runs once over all of them, however many there are.
    Gather { pieces: Vec<Bytes>, raw: bool },
    /// Merge: pending pieces of each kind are cut into a batch once they
    /// reach the run-size trigger — [`merge_run_target`] bytes under a
    /// spill config or for raw chunks, [`MERGE_RUN_ARITY`] pieces
    /// otherwise; the batch's run becomes `runs[batch index]`
    /// (`None` while the batch is out being merged), and the close merges the
    /// runs (earlier runs first, keeping the stability tiebreak of one
    /// flat merge). Under a spill config each batch is charged to the
    /// ledger as it is cut (`heap_bytes`: resident runs plus the runs of
    /// batches still out): one whose run would push it past the share for
    /// runs has its run written to a temp file by whoever makes it, and the
    /// run lives in `runs` as a mapped slice; once any run has spilled
    /// (`spilled`), the close streams the final merge through a temp file too,
    /// so the heap never holds more than a quarter of the budget in runs
    /// plus the pending pieces and the batches out being made runs — which
    /// the batch size bounds by the other three quarters.
    Merge {
        /// The flags' line order, parsed once for the whole fold, or the
        /// order the fold was built [`over`](IncrementalFold::over).
        order: Result<LineOrder, EvalError>,
        /// The closing merge's output is regrouped into this order (a
        /// counting fold that closes in count order).
        count: Option<CountOrder>,
        runs: Vec<Option<Bytes>>,
        /// Runs ([`Piece::Output`]) not yet cut into a batch.
        pending: Pending,
        /// Raw chunks ([`Piece::Raw`]) not yet cut into a batch.
        pending_raw: Pending,
        /// Which kinds of piece were pushed: `[runs, raw chunks]`.
        fed: [bool; 2],
        heap_bytes: usize,
        spilled: bool,
    },
    /// Binary-counter tree: slot `i` is a combined run of `2^i` adjacent
    /// pieces (higher slots hold earlier data). Under a spill config the
    /// stored groups are budget-accounted (`heap_bytes`) and spill to
    /// mapped slices like merge runs do.
    Counter {
        slots: Vec<Option<Bytes>>,
        heap_bytes: usize,
        spilled: bool,
    },
    /// A merge fold's closing merge, cut into parts: each part's output by
    /// part index, `None` while the part is out being merged.
    Parts(Vec<Option<PartOutput>>),
    /// The fold's last work is out: its result closes the fold.
    Settling,
}

/// Pieces of one kind a merge fold has not yet cut into a batch.
#[derive(Default)]
struct Pending {
    pieces: Vec<Bytes>,
    bytes: usize,
}

impl FoldState {
    /// An empty merge fold over `order`, closing in `count` order when
    /// given.
    fn merge(order: Result<LineOrder, EvalError>, count: Option<CountOrder>) -> FoldState {
        FoldState::Merge {
            order,
            count,
            runs: Vec::new(),
            pending: Pending::default(),
            pending_raw: Pending::default(),
            fed: [false; 2],
            heap_bytes: 0,
            spilled: false,
        }
    }
}

impl<'a> IncrementalFold<'a> {
    /// An empty fold over a composite's `members` (at least one), which
    /// folds by the first of them. `order` is set for a merge fold only:
    /// it merges under that line order instead of the one its flags name —
    /// how a `sort` folds when it is fused with the `uniq -c`
    /// ([`LineOrder::counted`]: the merges add the counts of equal lines)
    /// or `uniq` ([`LineOrder::unique`]) after it — and, given a
    /// [`CountOrder`] too, its closing merge regroups each part by count
    /// ([`CountOrder::regroup`]), the fold of `sort | uniq -c | sort -rn`
    /// as one node.
    ///
    /// Under a spill config merge runs are sized to the budget
    /// (`merge_run_target`) and go to temp files once the heap-resident run
    /// bytes would cross [`SpillConfig::run_budget`], and a fold that
    /// spilled streams its closing merge through temp files as well (see
    /// [`crate::spill`]). Counter-tree folds account their stored slot
    /// groups against the same budget and spill them as mapped slices.
    /// Only `concat`/`rerun` ignore the config — their accumulation is
    /// inherently a gather.
    pub fn over(
        members: &'a [Candidate],
        order: Option<(LineOrder, Option<CountOrder>)>,
        env: &'a dyn RunEnv,
        spill: Option<SpillConfig>,
    ) -> IncrementalFold<'a> {
        let primary = members.first().expect("a composite has members");
        let state = match (&primary.op, order) {
            (Combiner::Run(RunOp::Merge(_)), Some((order, count))) => {
                FoldState::merge(Ok(order), count)
            }
            (_, Some(_)) => panic!("a merge order is for a merge fold"),
            (Combiner::Run(RunOp::Merge(flags)), None) => {
                FoldState::merge(merge_order(flags), None)
            }
            (Combiner::Rec(RecOp::Concat), None) if !primary.swapped => {
                FoldState::Concat(Vec::new())
            }
            (Combiner::Run(RunOp::Rerun), None) => FoldState::Gather {
                pieces: Vec::new(),
                raw: false,
            },
            _ => FoldState::Counter {
                slots: Vec::new(),
                heap_bytes: 0,
                spilled: false,
            },
        };
        IncrementalFold {
            members,
            env,
            state,
            spill,
            fed: false,
            failed: None,
            out: 0,
            closed: false,
            part_bytes: FINISH_PART_BYTES,
        }
    }

    /// Folds in the next substream (empty pieces are skipped, as in
    /// [`combine_all`]): a stage's output, or — into a merge or rerun
    /// fold only — a [`Piece::Raw`] chunk of its input. A merge fold sorts
    /// raw chunks itself: `sort(x1 ++ … ++ xk) = merge(sort(x1), …,
    /// sort(xk))` with ties to the earlier input. A rerun fold fed raw
    /// chunks runs the command once over them at the close. A merge fold
    /// whose pending pieces of one kind reached the run trigger hands them
    /// out as a run batch. Never fails: a combine error is kept for the
    /// close, and a fold that failed takes nothing more.
    pub fn push(&mut self, piece: impl Into<Piece>) -> Option<FoldWork<'a>> {
        if self.failed.is_some() {
            return None;
        }
        match self.fold_in(piece.into()) {
            Ok(batch) => {
                self.out += usize::from(batch.is_some());
                batch.map(|batch| FoldWork(Work::Batch(batch)))
            }
            Err(e) => {
                self.failed = Some(e);
                None
            }
        }
    }

    /// [`push`](IncrementalFold::push), with the error returned.
    fn fold_in(&mut self, piece: Piece) -> Result<Option<Batch<'a>>, EvalError> {
        let (raw, piece) = match piece {
            Piece::Output(piece) => (false, piece),
            Piece::Raw(chunk) => (true, chunk),
        };
        if piece.is_empty() {
            return Ok(None);
        }
        self.fed = true;
        assert!(
            !raw || matches!(
                self.state,
                FoldState::Merge { .. } | FoldState::Gather { .. }
            ),
            "raw chunks feed merge and rerun folds only"
        );
        let (members, env) = (self.members, self.env);
        match &mut self.state {
            FoldState::Concat(segments) => segments.push(piece),
            FoldState::Gather {
                pieces,
                raw: fed_raw,
            } => {
                debug_assert!(
                    pieces.is_empty() || *fed_raw == raw,
                    "a rerun fold gathers outputs or raw chunks, not both"
                );
                *fed_raw = raw;
                pieces.push(piece);
            }
            FoldState::Merge {
                order,
                runs,
                pending,
                pending_raw,
                fed,
                heap_bytes,
                spilled,
                ..
            } => {
                let counted = order.as_ref().is_ok_and(|order| order.is_counted());
                fed[usize::from(raw)] = true;
                debug_assert!(
                    counted || !fed.iter().all(|&kind| kind),
                    "runs and raw chunks leave stream order: only a counted order mixes them"
                );
                let list = if raw { pending_raw } else { pending };
                list.bytes += piece.len();
                list.pieces.push(piece);
                let cut = match merge_run_target(&self.spill, raw, counted) {
                    Some(target) => {
                        list.bytes >= target || list.pieces.len() >= MERGE_RUN_MAX_PIECES
                    }
                    None => list.pieces.len() >= MERGE_RUN_ARITY,
                };
                if cut {
                    let order = order.clone()?;
                    let Pending { pieces, bytes } = std::mem::take(list);
                    let (charged, spill) = charge_batch(&self.spill, heap_bytes, spilled, bytes);
                    let batch = Batch {
                        env,
                        order,
                        raw,
                        index: runs.len(),
                        pieces,
                        charged,
                        spill,
                    };
                    runs.push(None);
                    return Ok(Some(batch));
                }
            }
            FoldState::Counter {
                slots,
                heap_bytes,
                spilled,
            } => {
                let mut carry = piece;
                for slot in slots.iter_mut() {
                    match slot.take() {
                        None => {
                            *slot = Some(store_group(carry, &self.spill, heap_bytes, spilled)?);
                            return Ok(None);
                        }
                        Some(earlier) => {
                            if !earlier.is_mmap_backed() {
                                *heap_bytes = heap_bytes.saturating_sub(earlier.len());
                            }
                            carry =
                                combine_pair(members, earlier.as_bytes(), carry.as_bytes(), env)?;
                        }
                    }
                }
                let carry = store_group(carry, &self.spill, heap_bytes, spilled)?;
                slots.push(Some(carry));
            }
            FoldState::Parts(_) | FoldState::Settling => {
                unreachable!("a piece pushed after the close")
            }
        }
        Ok(None)
    }

    /// Closes the fold's input and returns its first step.
    pub fn close(&mut self) -> Step<'a> {
        self.closed = true;
        self.advance()
    }

    /// Takes back the result of work the fold handed out, in any order,
    /// and returns the fold's next step. A run lands in its batch's place
    /// in the stream and settles the spill ledger with its true size; a
    /// part lands at its index. A failure is kept like a failed push, and
    /// once the input has ended it closes the fold at once, with work
    /// still out.
    pub fn complete(&mut self, done: WorkDone<'a>) -> Step<'a> {
        self.out -= 1;
        let landed = match done.0 {
            Done::Run {
                index,
                charged,
                run,
            } => run.map(|run| self.slot_run(index, charged, run)),
            Done::Parts(parts) => {
                self.state = FoldState::Parts((0..parts.len()).map(|_| None).collect());
                self.out += parts.len();
                let work = (parts.into_iter().enumerate())
                    .map(|(index, part)| FoldWork(Work::Part(Some(index), part)));
                return Step::Work(work.collect());
            }
            Done::Part(index, output) => output.map(|output| {
                if let FoldState::Parts(outputs) = &mut self.state {
                    outputs[index] = Some(output);
                }
            }),
            Done::Closed(result) => return Step::Done(result),
        };
        if let Err(e) = landed {
            self.failed.get_or_insert(e);
        }
        self.advance()
    }

    /// The run of batch `index`, slotted, with the `charged` bytes of the
    /// ledger settled.
    fn slot_run(&mut self, index: usize, charged: usize, run: Bytes) {
        let FoldState::Merge {
            runs, heap_bytes, ..
        } = &mut self.state
        else {
            unreachable!("only merge folds hand out batches");
        };
        if charged > 0 {
            *heap_bytes = (*heap_bytes + run.len()).saturating_sub(charged);
        }
        runs[index] = Some(run);
    }

    /// The step of a fold that may have moved on: none before the close;
    /// the first error once closed; otherwise, with no work out, the next
    /// round of work.
    fn advance(&mut self) -> Step<'a> {
        if !self.closed {
            return Step::Wait;
        }
        let next = match self.failed.take() {
            Some(e) => Err(e),
            None if self.out > 0 => return Step::Wait,
            None => self.next_work(),
        };
        match next {
            Ok(work) => {
                self.out += work.len();
                Step::Work(work.into_iter().map(FoldWork).collect())
            }
            Err(e) => Step::Done(Err(e)),
        }
    }

    /// The next round of a closed fold's work, none of it out: the run
    /// batches of a merge fold's pending pieces, then its closing merge —
    /// in one part, or cut into parts whose outputs are then stitched —
    /// or the settling of any other fold, or of one fed nothing.
    fn next_work(&mut self) -> Result<Vec<Work<'a>>, EvalError> {
        if let FoldState::Merge {
            pending,
            pending_raw,
            ..
        } = &self.state
        {
            if !(pending.pieces.is_empty() && pending_raw.pieces.is_empty()) {
                return self.seal();
            }
        }
        let (members, env, spill) = (self.members, self.env, self.spill.clone());
        let work = match std::mem::replace(&mut self.state, FoldState::Settling) {
            _ if !self.fed => Work::Settle(Settle {
                members,
                env,
                state: FoldState::Gather {
                    pieces: Vec::new(),
                    raw: true,
                },
                spill,
            }),
            FoldState::Merge {
                order,
                count,
                runs,
                spilled,
                ..
            } => {
                let runs: Vec<Bytes> = (runs.into_iter())
                    .map(|run| run.expect("every batch completed"))
                    .collect();
                let parts = finish_part_count(runs.iter().map(Bytes::len).sum(), self.part_bytes);
                let merge = ClosingMerge {
                    env,
                    order: order?,
                    count,
                    runs,
                    // Once a run has spilled, every part streams through a
                    // temp file, so the heap never holds the merged output.
                    spill: spill.filter(|_| spilled),
                };
                match parts {
                    0 | 1 => Work::Part(None, merge),
                    _ => Work::Partition(merge, parts),
                }
            }
            FoldState::Parts(outputs) => Work::Stitch(
                (outputs.into_iter())
                    .map(|output| output.expect("every part completed"))
                    .collect(),
            ),
            FoldState::Settling => unreachable!("a fold with no work out has not settled"),
            state => Work::Settle(Settle {
                members,
                env,
                state,
                spill,
            }),
        };
        Ok(vec![work])
    }

    /// The pending pieces of a closed merge fold as run batches, so that
    /// the closing merge reads runs only. Each kind's tail is cut by bytes,
    /// at line ends — one piece may feed two batches — into batches of
    /// about a part's bytes, a pure function of the pieces like every
    /// other cut the fold makes.
    fn seal(&mut self) -> Result<Vec<Work<'a>>, EvalError> {
        let env = self.env;
        let FoldState::Merge {
            order,
            runs,
            pending,
            pending_raw,
            heap_bytes,
            spilled,
            ..
        } = &mut self.state
        else {
            unreachable!("only merge folds seal");
        };
        let order = order.clone()?;
        let mut batches = Vec::new();
        for (raw, list) in [(false, pending), (true, pending_raw)] {
            for pieces in cut_by_bytes(std::mem::take(list), self.part_bytes) {
                let bytes = pieces.iter().map(Bytes::len).sum();
                let (charged, spill) = charge_batch(&self.spill, heap_bytes, spilled, bytes);
                runs.push(None);
                batches.push(Work::Batch(Batch {
                    env,
                    order,
                    raw,
                    index: runs.len() - 1,
                    pieces,
                    charged,
                    spill,
                }));
            }
        }
        Ok(batches)
    }

    /// Settles the fold into the combined stream on this thread: the
    /// [`close`](IncrementalFold::close) and every piece of work after it,
    /// run in the order handed out. Work [`push`](IncrementalFold::push)
    /// handed out must be completed first. The segments of the result are
    /// the parts' outputs — a merge fold that spilled never gathers them
    /// onto the heap.
    pub fn finish(mut self) -> Result<Rope, EvalError> {
        let mut queue = std::collections::VecDeque::new();
        let mut step = self.close();
        loop {
            match step {
                Step::Done(result) => return result,
                Step::Work(work) => queue.extend(work),
                Step::Wait => {}
            }
            let work = queue.pop_front().expect("a fold that waits has work out");
            step = self.complete(work.run());
        }
    }
}

/// What a fold asks of its owner next ([`IncrementalFold::close`],
/// [`IncrementalFold::complete`]).
pub enum Step<'a> {
    /// Nothing, until work still out comes back.
    Wait,
    /// Work to run, each piece with no lock held, in any order.
    Work(Vec<FoldWork<'a>>),
    /// The fold is closed: its combined stream, or its first error. It
    /// takes nothing more.
    Done(Result<Rope, EvalError>),
}

/// A piece of a fold's work, handed out to be run outside whatever lock
/// guards the fold ([`FoldWork::run`]) and completed
/// ([`IncrementalFold::complete`]).
pub struct FoldWork<'a>(Work<'a>);

enum Work<'a> {
    /// A run batch: merge its runs, or sort its raw chunks.
    Batch(Batch<'a>),
    /// Cut the closing merge into this many key ranges.
    Partition(ClosingMerge<'a>, usize),
    /// Merge one key range of the closing merge, by part index — or, with
    /// no index, the closing merge whole, which closes the fold.
    Part(Option<usize>, ClosingMerge<'a>),
    /// Stitch the parts' outputs, in part order.
    Stitch(Vec<PartOutput>),
    /// Settle a fold that closes by no merge, or one fed nothing.
    Settle(Settle<'a>),
}

impl<'a> FoldWork<'a> {
    /// Does the work.
    pub fn run(self) -> WorkDone<'a> {
        WorkDone(match self.0 {
            Work::Batch(batch) => Done::Run {
                index: batch.index,
                charged: batch.charged,
                run: batch.run(),
            },
            Work::Partition(merge, parts) => Done::Parts(merge.partition(parts)),
            Work::Part(Some(index), part) => Done::Part(index, part.merge()),
            Work::Part(None, part) => Done::Closed(part.merge().map(|output| stitch(vec![output]))),
            Work::Stitch(outputs) => Done::Closed(Ok(stitch(outputs))),
            Work::Settle(settle) => Done::Closed(settle.run().map(Rope::from)),
        })
    }

    /// The name of the work's trace span, and its `seq`: `fold-merge` for
    /// a run batch (the batch index), `fold-partition`, `fold-finish` for a
    /// part (the part index), `fold-stitch`, and an unnumbered
    /// `fold-finish` for work that closes the fold by itself.
    pub fn span(&self) -> (&'static str, Option<usize>) {
        match &self.0 {
            Work::Batch(batch) => ("fold-merge", Some(batch.index)),
            Work::Partition(..) => ("fold-partition", None),
            Work::Part(index, _) => ("fold-finish", *index),
            Work::Stitch(_) => ("fold-stitch", None),
            Work::Settle(_) => ("fold-finish", None),
        }
    }
}

/// The result of a [`FoldWork`], to hand back to its fold.
pub struct WorkDone<'a>(Done<'a>);

enum Done<'a> {
    Run {
        index: usize,
        charged: usize,
        run: Result<Bytes, EvalError>,
    },
    Parts(Vec<ClosingMerge<'a>>),
    Part(usize, Result<PartOutput, EvalError>),
    Closed(Result<Rope, EvalError>),
}

/// What one part of a closing merge comes to ([`ClosingMerge::merge`]).
enum PartOutput {
    /// The part's segment of the combined stream.
    Segment(Bytes),
    /// The part's lines regrouped by count, in blocks of its stream (one
    /// block in memory; under a spill budget one per window written out),
    /// for [`stitch`] to interleave with the other parts' groups.
    Regrouped(CountOrder, Vec<CountBlock>),
}

/// One block of a part regrouped by count: a line-aligned stretch of the
/// counted stream, its lines regrouped ([`CountOrder::regroup`]).
struct CountBlock {
    bytes: Bytes,
    /// The groups of `bytes`.
    groups: Groups,
}

/// Each group's count and byte range, in output order.
type Groups = Vec<(u64, Range<usize>)>;

/// Bytes below which a slice of a regrouped block is copied into a
/// segment with its neighbours instead of becoming a segment of its own:
/// the groups of high counts hold a line or two each, and a node
/// downstream takes a chunk per segment.
const STITCH_COPY_BYTES: usize = 4 << 10;

/// The combined stream of a fold's part outputs, in part order: the
/// segments one after the other — or, for a fold closing in count order,
/// every count's groups in output order, each count's taken block by block
/// in the order of the counted stream (from the last block when the lines
/// of one count go against it). A part is a key range of that stream, so
/// this is the numeric sort of the whole of it, made of at most one slice
/// per count and block and no second copy of the stream — slices that
/// continue the one before join it, and short ones are copied together.
fn stitch(parts: Vec<PartOutput>) -> Rope {
    let mut rope = Rope::new();
    let mut order = None;
    let mut blocks = Vec::new();
    for part in parts {
        match part {
            PartOutput::Segment(segment) => rope.push(segment),
            PartOutput::Regrouped(count, part_blocks) => {
                order = Some(count);
                blocks.extend(part_blocks);
            }
        }
    }
    let Some(order) = order else {
        return rope;
    };
    debug_assert!(rope.is_empty(), "a fold's parts are of one kind");
    if order.against_stream() {
        blocks.reverse();
    }
    let mut counts: Vec<u64> = (blocks.iter())
        .flat_map(|block| block.groups.iter().map(|(count, _)| *count))
        .collect();
    counts.sort_unstable_by(|&a, &b| match (order.precedes(a, b), a == b) {
        (true, _) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Equal,
        (false, false) => std::cmp::Ordering::Greater,
    });
    counts.dedup();
    let mut next = vec![0usize; blocks.len()];
    // The segment being gathered: a slice of one block, grown while the
    // slices continue it, or a copy of short slices.
    let mut pending = Gathered::Nothing;
    for count in counts {
        for (b, (block, at)) in blocks.iter().zip(&mut next).enumerate() {
            let Some((_, range)) = block.groups.get(*at).filter(|(c, _)| *c == count) else {
                continue;
            };
            *at += 1;
            let short = range.len() < STITCH_COPY_BYTES;
            pending = match pending {
                Gathered::Slice(from, held) if from == b && held.end == range.start => {
                    Gathered::Slice(b, held.start..range.end)
                }
                Gathered::Slice(from, held) if short && held.len() < STITCH_COPY_BYTES => {
                    let mut copy = blocks[from].bytes.as_bytes()[held].to_vec();
                    copy.extend_from_slice(&block.bytes.as_bytes()[range.clone()]);
                    Gathered::Copy(copy)
                }
                Gathered::Copy(mut copy) if short => {
                    copy.extend_from_slice(&block.bytes.as_bytes()[range.clone()]);
                    Gathered::Copy(copy)
                }
                held => {
                    held.flush(&blocks, &mut rope);
                    Gathered::Slice(b, range.clone())
                }
            };
        }
    }
    pending.flush(&blocks, &mut rope);
    rope
}

/// A segment [`stitch`] is gathering.
enum Gathered {
    Nothing,
    /// A range of one block.
    Slice(usize, Range<usize>),
    /// Short slices of several blocks, copied together.
    Copy(Vec<u8>),
}

impl Gathered {
    fn flush(self, blocks: &[CountBlock], rope: &mut Rope) {
        match self {
            Gathered::Nothing => {}
            Gathered::Slice(b, range) => rope.push(blocks[b].bytes.slice(range)),
            Gathered::Copy(copy) => rope.push(Bytes::from(copy)),
        }
    }
}

/// A merge fold's closing merge, or one key range of it.
struct ClosingMerge<'a> {
    env: &'a dyn RunEnv,
    order: LineOrder,
    /// Set when the fold closes in count order: the output is regrouped
    /// by count.
    count: Option<CountOrder>,
    /// The runs — or this part's slice of each — in run order.
    runs: Vec<Bytes>,
    /// Set when the fold spilled: the merge streams through a temp file,
    /// releasing the run slices' pages behind its frontier.
    spill: Option<SpillConfig>,
}

impl<'a> ClosingMerge<'a> {
    /// The merge cut into `parts` key ranges, empty ones dropped: the
    /// splitters sampled from the runs, every run cut by binary search,
    /// no bytes moved.
    fn partition(self, parts: usize) -> Vec<ClosingMerge<'a>> {
        let views: Vec<&[u8]> = self.runs.iter().map(Bytes::as_bytes).collect();
        // Searching a spilled run leaves pages all over it resident: drop
        // them as soon as each search is done, or the partition alone
        // would map every run whole.
        let mut release = |r: usize| self.runs[r].release_range(0..self.runs[r].len());
        (self
            .order
            .partition(&views, parts, &mut release)
            .into_iter())
        .filter(|ranges| ranges.iter().any(|r| !r.is_empty()))
        .map(|ranges| ClosingMerge {
            env: self.env,
            order: self.order,
            count: self.count,
            runs: self
                .runs
                .iter()
                .zip(ranges)
                .map(|(s, r)| s.slice(r))
                .collect(),
            spill: self.spill.clone(),
        })
        .collect()
    }

    /// Merges the runs into a segment of the combined stream — or, for a
    /// fold closing in count order, into their lines regrouped by count.
    fn merge(self) -> Result<PartOutput, EvalError> {
        let ClosingMerge {
            env,
            order,
            count,
            runs,
            spill,
        } = self;
        Ok(match (count, spill) {
            (None, None) => PartOutput::Segment(merge_pieces(env, order, &runs)?),
            (None, Some(cfg)) => PartOutput::Segment(merge_spilled_runs(env, order, runs, &cfg)?),
            (Some(count), None) => {
                let merged = merge_pieces(env, order, &runs)?;
                drop(runs);
                PartOutput::Regrouped(count, vec![regroup_block(count, merged.as_bytes())?])
            }
            (Some(count), Some(cfg)) => {
                PartOutput::Regrouped(count, regroup_spilled_runs(env, order, count, runs, &cfg)?)
            }
        })
    }
}

/// The close of a fold that is no merge — or of one fed nothing, as a
/// rerun fold fed no chunk.
struct Settle<'a> {
    members: &'a [Candidate],
    env: &'a dyn RunEnv,
    state: FoldState,
    spill: Option<SpillConfig>,
}

impl Settle<'_> {
    fn run(self) -> Result<Bytes, EvalError> {
        let Settle {
            members,
            env,
            state,
            spill,
        } = self;
        Ok(match state {
            // Only constructed for unswapped concat: stream order is
            // output order.
            FoldState::Concat(segments) => kq_stream::concat_bytes(&segments),
            FoldState::Gather { pieces, raw: true } => {
                env.rerun(kq_stream::concat_bytes(&pieces))?
            }
            FoldState::Gather { pieces, .. } => combine_all(&members[0], &pieces, env)?,
            FoldState::Counter {
                slots,
                mut heap_bytes,
                mut spilled,
            } => {
                // Low slots hold later data: combine upward so each slot
                // (an earlier group) becomes the left argument. At most
                // `log k` intermediates form; each stays budget-accounted
                // so the closing combine chain cannot regrow the heap the
                // incremental pushes kept bounded.
                let mut acc: Option<Bytes> = None;
                for earlier in slots.into_iter().flatten() {
                    acc = Some(match acc {
                        None => earlier,
                        Some(later) => {
                            for consumed in [&earlier, &later] {
                                if !consumed.is_mmap_backed() {
                                    heap_bytes = heap_bytes.saturating_sub(consumed.len());
                                }
                            }
                            let combined =
                                combine_pair(members, earlier.as_bytes(), later.as_bytes(), env)?;
                            store_group(combined, &spill, &mut heap_bytes, &mut spilled)?
                        }
                    });
                }
                acc.unwrap_or_default()
            }
            _ => unreachable!("a merge fold closes by its merge"),
        })
    }
}

/// The non-empty pieces when at least two of them need combining;
/// otherwise the settled result — nothing, or the one live piece by
/// refcount bump.
fn live_pieces(pieces: &[Bytes]) -> Result<Vec<&Bytes>, Bytes> {
    let live: Vec<&Bytes> = pieces.iter().filter(|p| !p.is_empty()).collect();
    match live.as_slice() {
        [] => Err(Bytes::new()),
        [one] => Err((*one).clone()),
        _ => Ok(live),
    }
}

/// k-way `merge` of a piece list, with [`combine_all`]'s shortcuts.
fn merge_pieces(env: &dyn RunEnv, order: LineOrder, pieces: &[Bytes]) -> Result<Bytes, EvalError> {
    match live_pieces(pieces) {
        Ok(live) => {
            let views: Vec<&[u8]> = live.iter().map(|p| p.as_bytes()).collect();
            env.merge(order, &views)
        }
        Err(settled) => Ok(settled),
    }
}

/// The pending pieces of one kind of a merge fold, cut at the run trigger
/// or when the input ends, to be made a run — a k-way merge of runs, or
/// one sort of raw chunks — outside whatever lock guards the fold.
struct Batch<'a> {
    env: &'a dyn RunEnv,
    order: LineOrder,
    /// The pieces are raw chunks: sort them, do not merge them.
    raw: bool,
    /// Position of the batch's run among the fold's runs.
    index: usize,
    pieces: Vec<Bytes>,
    /// Bytes the fold's ledger reserved for the run on the heap; zero when
    /// the run goes to disk.
    charged: usize,
    /// Set when the ledger had no room: the run is written to a temp file
    /// as soon as it exists, by whoever makes it.
    spill: Option<SpillConfig>,
}

impl Batch<'_> {
    /// Makes the batch one sorted run: the merge of its sorted pieces, or
    /// the sort of its raw ones' concatenation (which joins adjacent views
    /// of one buffer, the chunks of a split, without a copy) — and writes
    /// it out and maps it back when the fold's ledger said so.
    fn run(self) -> Result<Bytes, EvalError> {
        let run = if self.raw {
            let input = kq_stream::concat_bytes(&self.pieces);
            drop(self.pieces);
            let sorted = self.order.sort_bytes(&input).map_err(EvalError::Run)?;
            // The sort faulted in every page of a mapped batch, which the
            // split had already let go of: let go of them again.
            if input.is_mmap_backed() {
                input.release_range(0..input.len());
            }
            sorted
        } else {
            merge_pieces(self.env, self.order, &self.pieces)?
        };
        match &self.spill {
            Some(cfg) => spill_run(run, cfg),
            None => Ok(run),
        }
    }
}

/// Fragment granularity of the streamed spilled-run merge: how much merged
/// output buffers before a write.
const SPILL_MERGE_FRAGMENT: usize = 1 << 20;

/// How far each mapped run's release cursor trails the merge frontier.
/// This must stay small relative to a run: the merge holds a window of
/// `k × 2 × lag` resident across the `k` runs, and a lag as large as a
/// run would keep every run fully resident until the merge ends (the
/// cursor only fires once `consumed` outruns `released` by `2 × lag`).
/// 64 KiB bounds the window to a few MiB even at k ≈ 100 while still
/// batching madvise calls well above page granularity.
const SPILL_MERGE_RELEASE_LAG: usize = 1 << 16;

fn spill_err(e: std::io::Error) -> EvalError {
    EvalError::Command(format!("spill: {e}"))
}

/// Charges a batch of `bytes` to the fold's ledger as it is cut: its run
/// may stay on the heap if the resident runs, and the runs of batches
/// still out, leave room for it within [`SpillConfig::run_budget`] — the
/// bytes charged, settled when the run comes back — and is
/// otherwise written to disk by whoever makes it, outside any lock on the
/// fold. Returns `(bytes charged, config to spill with)`.
fn charge_batch(
    spill: &Option<SpillConfig>,
    heap_bytes: &mut usize,
    spilled: &mut bool,
    bytes: usize,
) -> (usize, Option<SpillConfig>) {
    let Some(cfg) = spill else {
        return (0, None);
    };
    if heap_bytes.saturating_add(bytes) <= cfg.run_budget() {
        *heap_bytes += bytes;
        return (bytes, None);
    }
    *spilled = true;
    (0, Some(cfg.clone()))
}

/// Writes a run to a temp file and hands back the mapped (demand-paged,
/// evictable) view.
fn spill_run(run: Bytes, cfg: &SpillConfig) -> Result<Bytes, EvalError> {
    let mut writer = kq_io::RunWriter::create(&cfg.dir).map_err(spill_err)?;
    writer.write(run.as_bytes()).map_err(spill_err)?;
    cfg.metrics.record_spill(run.len() as u64);
    // Drop the heap run before mapping the file back, so the two copies
    // never coexist.
    drop(run);
    let mapped = writer.finish().map_err(spill_err)?;
    cfg.metrics.record_mapped(mapped.len() as u64);
    Ok(mapped)
}

/// Counter-slot variant of the spill policy: a freshly stored or combined
/// group is kept on the heap while the resident slot total stays within
/// [`SpillConfig::run_budget`] and otherwise written out. Groups that are
/// already disk-backed (mapped) pass through unaccounted.
fn store_group(
    group: Bytes,
    spill: &Option<SpillConfig>,
    heap_bytes: &mut usize,
    spilled: &mut bool,
) -> Result<Bytes, EvalError> {
    let Some(cfg) = spill.as_ref().filter(|_| !group.is_mmap_backed()) else {
        return Ok(group);
    };
    if heap_bytes.saturating_add(group.len()) <= cfg.run_budget() {
        *heap_bytes += group.len();
        return Ok(group);
    }
    *spilled = true;
    spill_run(group, cfg)
}

/// The out-of-core merge of a [`ClosingMerge`]: an arity-bounded
/// merge tree over the part's slices of the accumulated runs, each wave
/// streaming `env.merge_stream` fragments into a fresh temp file while
/// releasing every mapped run's consumed prefix behind the merge frontier,
/// then mapping the merged output back.
///
/// Bounding each wave at [`MERGE_RUN_ARITY`] inputs is a memory bound, not
/// a comparison-cost tweak: the kernel keeps a frontier window of pages
/// resident per *input* mapping (fault-around / large-folio mapping can
/// pin on the order of a folio per run, regardless of how politely we
/// release behind the cursors), so a flat merge over hundreds of runs
/// holds hundreds of those windows at once — O(k) residency that defeats
/// the spill budget exactly when k is large. A wave touches at most
/// `MERGE_RUN_ARITY` mappings, and each group's source runs (heap or
/// mapped) are dropped as soon as its merged output exists, so heap runs
/// also retire progressively instead of living until the very end.
///
/// Groups are contiguous and in order and `merge_stream` breaks ties by
/// stream index, so the merge tree is stable and byte-identical to the
/// flat merge. Multi-wave input (k > arity) only occurs once runs have
/// spilled, i.e. the data already outgrew the budget; the extra disk
/// round-trip per wave is the agreed price.
fn merge_spilled_runs(
    env: &dyn RunEnv,
    order: LineOrder,
    mut runs: Vec<Bytes>,
    cfg: &SpillConfig,
) -> Result<Bytes, EvalError> {
    runs.retain(|r| !r.is_empty());
    // The file the last wave writes is this part of the fold's output.
    if runs.len() > 1 {
        cfg.metrics.record_part();
    }
    let mut runs = merge_waves(env, order, runs, 1, cfg)?;
    Ok(runs.pop().unwrap_or_default())
}

/// Merge waves over `runs`, each of groups of [`MERGE_RUN_ARITY`] runs,
/// until at most `upto` runs are left (see [`merge_spilled_runs`]).
fn merge_waves(
    env: &dyn RunEnv,
    order: LineOrder,
    mut runs: Vec<Bytes>,
    upto: usize,
    cfg: &SpillConfig,
) -> Result<Vec<Bytes>, EvalError> {
    while runs.len() > upto.max(1) {
        let mut next = Vec::with_capacity(runs.len().div_ceil(MERGE_RUN_ARITY));
        while !runs.is_empty() {
            let take = runs.len().min(MERGE_RUN_ARITY);
            let group: Vec<Bytes> = runs.drain(..take).collect();
            if group.len() == 1 {
                next.extend(group);
            } else {
                next.push(merge_run_group(env, order, &group, cfg)?);
            }
            // `group` drops here: a merged group's sources are finished
            // with, freeing their heap bytes or unmapping their files
            // before the next group starts.
        }
        runs = next;
    }
    Ok(runs)
}

/// One counted stream regrouped by count into one block on the heap.
fn regroup_block(count: CountOrder, counted: &[u8]) -> Result<CountBlock, EvalError> {
    let regrouped = count.regroup(counted);
    Ok(CountBlock {
        bytes: Bytes::from(regrouped.bytes),
        groups: regrouped.groups,
    })
}

/// The out-of-core closing merge of one part of a fold closing in count
/// order: the waves of [`merge_spilled_runs`] down to one group of runs,
/// whose merge streams — or, for one run, whose bytes stream — into
/// windows of the budget's batch size ([`SpillConfig::batch_bytes`]),
/// each regrouped on the heap and appended to the part's temp file, one
/// block per window. The heap holds a window and its regrouped copy, and
/// the runs' pages are released behind the merge frontier as before.
fn regroup_spilled_runs(
    env: &dyn RunEnv,
    order: LineOrder,
    count: CountOrder,
    mut runs: Vec<Bytes>,
    cfg: &SpillConfig,
) -> Result<Vec<CountBlock>, EvalError> {
    runs.retain(|r| !r.is_empty());
    cfg.metrics.record_part();
    let runs = merge_waves(env, order, runs, MERGE_RUN_ARITY, cfg)?;
    let window_bytes = cfg.batch_bytes().max(1);
    let mut out = kq_io::RunWriter::create(&cfg.dir).map_err(spill_err)?;
    let mut window: Vec<u8> = Vec::new();
    let mut blocks: Vec<(Range<usize>, Groups)> = Vec::new();
    let mut regroup = |window: &mut Vec<u8>, out: &mut kq_io::RunWriter| {
        if window.is_empty() {
            return Ok(());
        }
        let regrouped = count.regroup(window);
        window.clear();
        let start = out.written();
        out.write(&regrouped.bytes).map_err(spill_err)?;
        blocks.push((start..out.written(), regrouped.groups));
        Ok(())
    };
    let mut cursors: Vec<ReleaseCursor> = runs
        .iter()
        .map(|_| ReleaseCursor::new(SPILL_MERGE_RELEASE_LAG))
        .collect();
    let views: Vec<&[u8]> = runs.iter().map(Bytes::as_bytes).collect();
    env.merge_stream(
        order,
        &views,
        SPILL_MERGE_FRAGMENT,
        &mut |frag, consumed| {
            window.extend_from_slice(frag);
            if window.len() >= window_bytes {
                regroup(&mut window, &mut out)?;
            }
            for ((cursor, run), &done) in cursors.iter_mut().zip(&runs).zip(consumed) {
                cursor.advance(run, done);
            }
            Ok(())
        },
    )?;
    regroup(&mut window, &mut out)?;
    for (cursor, run) in cursors.iter_mut().zip(&runs) {
        cursor.finish(run);
    }
    drop(runs);
    cfg.metrics.record_spill(out.written() as u64);
    let regrouped = out.finish().map_err(spill_err)?;
    cfg.metrics.record_mapped(regrouped.len() as u64);
    Ok(blocks
        .into_iter()
        .map(|(range, groups)| CountBlock {
            bytes: regrouped.slice(range),
            groups,
        })
        .collect())
}

/// One merge wave: streams the k-way merge of `group` into a temp file,
/// trailing a release cursor behind each input's merge frontier, and maps
/// the result back. Peak residency is O(fragment + k × release window),
/// independent of total group bytes.
fn merge_run_group(
    env: &dyn RunEnv,
    order: LineOrder,
    group: &[Bytes],
    cfg: &SpillConfig,
) -> Result<Bytes, EvalError> {
    let views: Vec<&[u8]> = group.iter().map(Bytes::as_bytes).collect();
    let mut out = kq_io::RunWriter::create(&cfg.dir).map_err(spill_err)?;
    let mut cursors: Vec<ReleaseCursor> = group
        .iter()
        .map(|_| ReleaseCursor::new(SPILL_MERGE_RELEASE_LAG))
        .collect();
    env.merge_stream(
        order,
        &views,
        SPILL_MERGE_FRAGMENT,
        &mut |frag, consumed| {
            out.write(frag).map_err(spill_err)?;
            for ((cursor, run), &done) in cursors.iter_mut().zip(group).zip(consumed) {
                cursor.advance(run, done);
            }
            Ok(())
        },
    )?;
    for (cursor, run) in cursors.iter_mut().zip(group) {
        cursor.finish(run);
    }
    cfg.metrics.record_spill(out.written() as u64);
    let merged = out.finish().map_err(spill_err)?;
    cfg.metrics.record_mapped(merged.len() as u64);
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StructOp;
    use crate::eval::NoRunEnv;
    use kq_stream::Delim;

    struct FakeEnv;

    impl RunEnv for FakeEnv {
        fn rerun(&self, input: Bytes) -> Result<Bytes, EvalError> {
            Ok(Bytes::from(format!("f({})", input.to_str().unwrap())))
        }

        fn merge(&self, order: LineOrder, streams: &[&[u8]]) -> Result<Bytes, EvalError> {
            Ok(Bytes::from(order.merge(streams)))
        }
    }

    /// A push the way a single owner of the fold does it: a batch handed
    /// out is run and completed on the spot.
    fn push(fold: &mut IncrementalFold<'_>, piece: &Bytes) {
        push_piece(fold, Piece::Output(piece.clone()));
    }

    /// [`push`] of a raw chunk.
    fn push_raw(fold: &mut IncrementalFold<'_>, chunk: &Bytes) {
        push_piece(fold, Piece::Raw(chunk.clone()));
    }

    fn push_piece(fold: &mut IncrementalFold<'_>, piece: Piece) {
        if let Some(work) = fold.push(piece) {
            assert!(matches!(fold.complete(work.run()), Step::Wait));
        }
    }

    /// The trace span of each piece of work a fold handed out.
    type Spans = Vec<(&'static str, Option<usize>)>;

    /// Closes `fold` in parts of `part_bytes`, its work run on this thread
    /// in the order handed out: the combined stream, and the span of each
    /// piece of work run.
    fn close_in_parts(mut fold: IncrementalFold<'_>, part_bytes: usize) -> (Rope, Spans) {
        fold.part_bytes = part_bytes;
        let mut spans = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        let mut step = fold.close();
        loop {
            match step {
                Step::Done(result) => return (result.unwrap(), spans),
                Step::Work(work) => queue.extend(work),
                Step::Wait => {}
            }
            let work = queue.pop_front().expect("work out");
            spans.push(work.span());
            step = fold.complete(work.run());
        }
    }

    /// The parts a close merged, checked to be numbered in order.
    fn parts(spans: &Spans) -> usize {
        let seqs: Vec<usize> = (spans.iter())
            .filter(|(name, _)| *name == "fold-finish")
            .filter_map(|&(_, seq)| seq)
            .collect();
        assert_eq!(seqs, (0..seqs.len()).collect::<Vec<_>>());
        seqs.len()
    }

    fn s(v: &[&str]) -> Vec<Bytes> {
        v.iter().copied().map(Bytes::from).collect()
    }

    #[test]
    fn concat_kway_is_plain_concat() {
        let c = Candidate::rec(RecOp::Concat);
        let out = combine_all(&c, &s(&["a\n", "b\n", "c\n"]), &NoRunEnv).unwrap();
        assert_eq!(out, "a\nb\nc\n");
    }

    #[test]
    fn merge_kway_merges_all_at_once() {
        let c = Candidate::run(RunOp::Merge(vec![]));
        let out = combine_all(&c, &s(&["a\nd\n", "b\n", "c\ne\n"]), &FakeEnv).unwrap();
        assert_eq!(out, "a\nb\nc\nd\ne\n");
    }

    #[test]
    fn rerun_kway_executes_once() {
        let c = Candidate::run(RunOp::Rerun);
        let out = combine_all(&c, &s(&["x\n", "y\n"]), &FakeEnv).unwrap();
        assert_eq!(out, "f(x\ny\n)");
    }

    #[test]
    fn a_rerun_fold_runs_the_command_over_raw_chunks_however_many() {
        let c = Candidate::run(RunOp::Rerun);
        for chunks in [&["x\n"][..], &["x\n", "y\n", "z\n"]] {
            let mut fold = IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, None);
            for chunk in chunks {
                push_raw(&mut fold, &Bytes::from(*chunk));
            }
            let expect = format!("f({})", chunks.concat());
            assert_eq!(fold.finish().unwrap().into_bytes(), expect);
        }
        // An output is the command's already: one stays as it is.
        let mut fold = IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, None);
        push(&mut fold, &Bytes::from("x\n"));
        assert_eq!(fold.finish().unwrap().into_bytes(), "x\n");
    }

    #[test]
    fn general_combiner_folds_pairwise() {
        let c = Candidate::structural(StructOp::Stitch(RecOp::First));
        let out = combine_all(&c, &s(&["a\nb\n", "b\nc\n", "c\nd\n"]), &NoRunEnv).unwrap();
        assert_eq!(out, "a\nb\nc\nd\n");
    }

    #[test]
    fn back_add_folds_counts() {
        let c = Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add)));
        let out = combine_all(&c, &s(&["3\n", "4\n", "5\n"]), &NoRunEnv).unwrap();
        assert_eq!(out, "12\n");
    }

    #[test]
    fn empty_pieces_are_skipped() {
        let c = Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add)));
        let out = combine_all(&c, &s(&["3\n", "", "5\n"]), &NoRunEnv).unwrap();
        assert_eq!(out, "8\n");
    }

    #[test]
    fn single_piece_passes_through() {
        let c = Candidate::run(RunOp::Rerun);
        let out = combine_all(&c, &s(&["only\n"]), &FakeEnv).unwrap();
        assert_eq!(out, "only\n"); // no re-execution needed
    }

    #[test]
    fn no_pieces_is_empty() {
        let c = Candidate::rec(RecOp::Concat);
        assert_eq!(combine_all(&c, &[], &NoRunEnv).unwrap(), "");
    }

    /// The pairwise reference for k-way combining: the binary combiner
    /// folded left over the non-empty pieces through [`eval`], one piece
    /// at a time — "apply the combiner on two substreams until one
    /// remains", read literally.
    fn fold_pairwise(c: &Candidate, pieces: &[Bytes], env: &dyn RunEnv) -> Bytes {
        let mut live = pieces.iter().filter(|p| !p.is_empty());
        let Some(first) = live.next() else {
            return Bytes::new();
        };
        live.fold(first.clone(), |acc, piece| {
            let (x, y) = c.oriented(acc.as_bytes(), piece.as_bytes());
            eval(&c.op, x, y, env).unwrap()
        })
    }

    /// `combine_all` agrees with the pairwise fold for the combiners the
    /// corpus produces: native k-way `concat`, and the tree fold of the
    /// rest, differ from it only in evaluation order, and combining
    /// adjacent pieces of a split stream is associative for these
    /// operators.
    #[test]
    fn combine_all_matches_the_pairwise_fold_on_corpus_combiners() {
        let cases: Vec<(Candidate, Vec<Bytes>)> = vec![
            (
                Candidate::rec(RecOp::Concat),
                s(&["a\n", "b\n", "c\n", "d\n", "e\n"]),
            ),
            (
                Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
                s(&["1\n", "2\n", "3\n", "4\n", "5\n"]),
            ),
            (
                Candidate::structural(StructOp::Stitch(RecOp::First)),
                s(&["a\nb\n", "b\nc\n", "c\nc\nd\n", "d\ne\n"]),
            ),
            (
                Candidate::structural(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First)),
                s(&[
                    "      2 a\n      1 b\n",
                    "      3 b\n",
                    "      1 b\n      4 c\n",
                ]),
            ),
        ];
        for (cand, pieces) in cases {
            let flat = combine_all(&cand, &pieces, &NoRunEnv).unwrap();
            assert_eq!(
                flat,
                fold_pairwise(&cand, &pieces, &NoRunEnv),
                "flat vs pairwise for {cand}"
            );
        }
    }

    #[test]
    fn swapped_concat_reverses_natively_and_pairwise() {
        let mut c = Candidate::rec(RecOp::Concat);
        c.swapped = true;
        let pieces = s(&["a\n", "b\n", "c\n"]);
        assert_eq!(combine_all(&c, &pieces, &NoRunEnv).unwrap(), "c\nb\na\n");
        assert_eq!(fold_pairwise(&c, &pieces, &NoRunEnv), "c\nb\na\n");
    }

    #[test]
    fn pairwise_merge_matches_the_kway_merge() {
        let c = Candidate::run(RunOp::Merge(vec![]));
        let pieces = s(&["a\nd\n", "b\n", "c\ne\n"]);
        let fold = fold_pairwise(&c, &pieces, &FakeEnv);
        assert_eq!(fold, "a\nb\nc\nd\ne\n");
        assert_eq!(combine_all(&c, &pieces, &FakeEnv).unwrap(), fold);
    }

    fn incremental(c: &Candidate, pieces: &[Bytes], env: &dyn RunEnv) -> Bytes {
        let mut fold = IncrementalFold::over(std::slice::from_ref(c), None, env, None);
        for p in pieces {
            push(&mut fold, p);
        }
        fold.finish().unwrap().into_bytes()
    }

    #[test]
    fn incremental_fold_matches_combine_all_on_corpus_combiners() {
        let cases: Vec<(Candidate, Vec<Bytes>)> = vec![
            (
                Candidate::rec(RecOp::Concat),
                s(&["a\n", "", "b\n", "c\n", "d\n", "e\n", "f\n"]),
            ),
            (
                Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
                s(&["1\n", "2\n", "3\n", "4\n", "5\n", "6\n", "7\n"]),
            ),
            (
                Candidate::structural(StructOp::Stitch(RecOp::First)),
                s(&["a\nb\n", "b\nc\n", "c\nc\nd\n", "d\ne\n", "e\nf\n"]),
            ),
            (
                Candidate::structural(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First)),
                s(&[
                    "      2 a\n      1 b\n",
                    "      3 b\n",
                    "      1 b\n      4 c\n",
                ]),
            ),
        ];
        for (cand, pieces) in cases {
            let flat = combine_all(&cand, &pieces, &NoRunEnv).unwrap();
            assert_eq!(
                incremental(&cand, &pieces, &NoRunEnv),
                flat,
                "incremental vs flat for {cand}"
            );
        }
    }

    #[test]
    fn incremental_merge_matches_kway_merge() {
        let c = Candidate::run(RunOp::Merge(vec![]));
        let pieces = s(&["a\nd\n", "b\n", "", "c\ne\n", "a\nz\n"]);
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        assert_eq!(incremental(&c, &pieces, &FakeEnv), flat);
    }

    #[test]
    fn incremental_merge_run_accumulation_matches_flat() {
        // More pieces than MERGE_RUN_ARITY: intermediate runs form and the
        // finish merge of runs must equal the one flat k-way merge,
        // including the stability tiebreak (duplicates across pieces).
        let c = Candidate::run(RunOp::Merge(vec![]));
        let piece_strings: Vec<String> = (0..(MERGE_RUN_ARITY * 2 + 3))
            .map(|i| {
                let a = (b'a' + (i % 26) as u8) as char;
                let b = (b'a' + ((i * 7) % 26) as u8) as char;
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                format!("{lo}\n{hi}\n")
            })
            .collect();
        let pieces: Vec<Bytes> = piece_strings
            .iter()
            .map(|p| Bytes::from(p.as_str()))
            .collect();
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        assert_eq!(incremental(&c, &pieces, &FakeEnv), flat);
    }

    /// Runs `pieces` through `fold`, closed in parts of `part_bytes`, with
    /// every piece of work it hands out run and completed in an order drawn
    /// from `seed`: batches handed out while pushing come back now and
    /// then, and those still out when the input ends come back among the
    /// close's work.
    fn fold_shuffled(
        mut fold: IncrementalFold<'_>,
        pieces: &[Piece],
        part_bytes: usize,
        seed: u64,
    ) -> Bytes {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        fold.part_bytes = part_bytes;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out: Vec<FoldWork> = Vec::new();
        for piece in pieces {
            out.extend(fold.push(piece.clone()));
            while !out.is_empty() && rng.gen_range(0..3) == 0 {
                let work = out.swap_remove(rng.gen_range(0..out.len()));
                assert!(matches!(fold.complete(work.run()), Step::Wait));
            }
        }
        let mut step = fold.close();
        loop {
            match step {
                Step::Done(result) => return result.unwrap().into_bytes(),
                Step::Work(work) => out.extend(work),
                Step::Wait => {}
            }
            let work = out.swap_remove(rng.gen_range(0..out.len()));
            step = fold.complete(work.run());
        }
    }

    /// A fold closes right whatever order its work comes back in. Plain,
    /// `-nu`, counted (counted runs and raw chunks mixed) and count-order
    /// merges, and rerun, concat and counter folds, each with no spill
    /// config, with every run spilled and with some resident, closed in
    /// parts of a few lines and their work completed in seeded shuffled
    /// orders, equal `combine_all` — or, for the counted kinds, the serial
    /// commands.
    #[test]
    fn a_fold_closes_right_in_any_completion_order() {
        use kq_coreutils::sort::reference;
        let ctx = kq_coreutils::ExecContext::default();
        let sort = kq_coreutils::parse_command("sort").unwrap();
        let sort_env = crate::eval::CommandEnv {
            command: &sort,
            ctx: &ctx,
        };
        let counted = LineOrder::parse(&[]).unwrap().counted();
        let by_count = LineOrder::parse(&words("-rn")).unwrap();
        let count = LineOrder::parse(&[])
            .unwrap()
            .count_order(by_count)
            .unwrap();
        let (stream, mixed) = counted_and_raw_chunks(counted);
        let uniq_c = reference::sort_count(counted, &stream);
        let outputs = |pieces: Vec<Bytes>| pieces.into_iter().map(Piece::Output).collect();
        let flat = |c: &Candidate, pieces: &[Piece]| {
            let bytes: Vec<Bytes> = pieces.iter().map(|p| p.bytes().clone()).collect();
            combine_all(c, &bytes, &FakeEnv).unwrap()
        };
        let lines = |n: usize, line: &dyn Fn(usize) -> String| -> Vec<Bytes> {
            (0..n).map(|i| Bytes::from(line(i))).collect()
        };
        type Kind<'e> = (
            &'static str,
            Candidate,
            Option<(LineOrder, Option<CountOrder>)>,
            Vec<Piece>,
            &'e dyn RunEnv,
        );
        let kinds: Vec<Kind> = vec![
            (
                "merge",
                merge_candidate(""),
                None,
                outputs(keyed_pieces("", MERGE_RUN_ARITY * 2 + 5, 9)),
                &FakeEnv,
            ),
            // Lines equal by key: only a run's place in the stream keeps
            // the first of them.
            (
                "merge -nu",
                merge_candidate("-nu"),
                None,
                outputs(keyed_pieces("-nu", MERGE_RUN_ARITY * 2 + 5, 9)),
                &FakeEnv,
            ),
            (
                "counted",
                merge_candidate(""),
                Some((counted, None)),
                mixed.clone(),
                &sort_env,
            ),
            (
                "count order",
                merge_candidate(""),
                Some((counted, Some(count))),
                mixed,
                &sort_env,
            ),
            (
                "rerun",
                Candidate::run(RunOp::Rerun),
                None,
                (lines(40, &|i| format!("x{i}\n")).into_iter())
                    .map(Piece::Raw)
                    .collect(),
                &FakeEnv,
            ),
            (
                "concat",
                Candidate::rec(RecOp::Concat),
                None,
                outputs(lines(40, &|i| format!("c{i}\n"))),
                &FakeEnv,
            ),
            (
                "counter",
                Candidate::structural(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First)),
                None,
                outputs(lines(40, &|i| {
                    format!("      2 k{:03}\n      1 k{:03}\n", i / 2, i / 2 + 1)
                })),
                &FakeEnv,
            ),
        ];
        for (label, c, order, pieces, env) in &kinds {
            let expect = match *label {
                "counted" => Bytes::from(uniq_c.clone()),
                "count order" => Bytes::from(reference::sort(by_count, &uniq_c)),
                "rerun" => FakeEnv
                    .rerun(kq_stream::concat_bytes(pieces.iter().map(Piece::bytes)))
                    .unwrap(),
                _ => flat(c, pieces),
            };
            let total: usize = pieces.iter().map(|p| p.bytes().len()).sum();
            for budget in [None, Some(0), Some(total / 3)] {
                for seed in 0..3 {
                    let tag = format!("order-{label}-{seed}-{}", budget.unwrap_or(usize::MAX));
                    with_spill_dir(&tag.replace(' ', "-"), budget.unwrap_or(0), |cfg| {
                        let spill = budget.map(|_| cfg.clone());
                        let fold =
                            IncrementalFold::over(std::slice::from_ref(c), *order, *env, spill);
                        let part_bytes = [40, 300][seed as usize % 2];
                        assert_eq!(
                            fold_shuffled(fold, pieces, part_bytes, seed),
                            expect,
                            "{label}, budget {budget:?}, seed {seed}"
                        );
                    });
                }
            }
        }
    }

    #[test]
    fn an_unparsable_merge_flag_fails_the_fold_not_the_constructor() {
        let c = Candidate::run(RunOp::Merge(vec!["-Z".to_owned()]));
        let mut fold = IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, None);
        // The batch the flags would be parsed for is never handed out: the
        // error is kept, and the fold takes nothing more.
        for _ in 0..MERGE_RUN_ARITY + 1 {
            assert!(fold.push(Bytes::from("a\n")).is_none());
        }
        // The close hands out no work: it fails at once.
        assert!(matches!(fold.close(), Step::Done(Err(_))));
    }

    #[test]
    fn a_fold_fed_nothing_is_the_command_on_the_empty_stream() {
        let wc = kq_coreutils::parse_command("wc -l").unwrap();
        let ctx = kq_coreutils::ExecContext::default();
        let env = crate::CommandEnv {
            command: &wc,
            ctx: &ctx,
        };
        let members = [
            Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
            Candidate::rec(RecOp::Fuse(Delim::Newline, Box::new(RecOp::Add))),
        ];
        for pieces in [&[][..], &["", ""], &["", "3\n"]] {
            let mut fold = IncrementalFold::over(&members, None, &env, None);
            for piece in pieces {
                push(&mut fold, &Bytes::from(*piece));
            }
            let expect = if pieces.concat().is_empty() {
                "0\n"
            } else {
                "3\n"
            };
            assert_eq!(fold.finish().unwrap().into_bytes(), expect, "{pieces:?}");
        }
        // Whatever the fold: a merge fold with flags it cannot parse too.
        let c = Candidate::run(RunOp::Merge(vec!["-Z".to_owned()]));
        let fold = IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, None);
        assert_eq!(fold.finish().unwrap().into_bytes(), "f()");
    }

    #[test]
    fn incremental_rerun_executes_once() {
        // One re-execution over the gathered stream, not one per push.
        let c = Candidate::run(RunOp::Rerun);
        let pieces = s(&["x\n", "y\n", "z\n"]);
        assert_eq!(incremental(&c, &pieces, &FakeEnv), "f(x\ny\nz\n)");
    }

    #[test]
    fn incremental_swapped_concat_reverses() {
        let mut c = Candidate::rec(RecOp::Concat);
        c.swapped = true;
        let pieces = s(&["a\n", "b\n", "c\n"]);
        assert_eq!(incremental(&c, &pieces, &NoRunEnv), "c\nb\na\n");
    }

    #[test]
    fn incremental_empty_and_single() {
        let c = Candidate::rec(RecOp::Concat);
        assert_eq!(incremental(&c, &[], &FakeEnv), "f()");
        assert_eq!(incremental(&c, &s(&["only\n"]), &NoRunEnv), "only\n");
    }

    /// A throwaway spill config over a private temp dir; the closure runs
    /// with it, then the dir is asserted empty (unlink-after-map means no
    /// run file survives its fold) and removed.
    fn with_spill_dir(tag: &str, budget: usize, f: impl FnOnce(&crate::spill::SpillConfig)) {
        let dir = std::env::temp_dir().join(format!("kq-kway-spill-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = crate::spill::SpillConfig {
            budget_bytes: budget,
            workers: 1,
            dir: dir.clone(),
            metrics: std::sync::Arc::new(crate::spill::SpillMetrics::default()),
        };
        f(&cfg);
        let leftovers = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(leftovers, 0, "spill dir must be clean after the fold");
    }

    fn spill_pieces(n: usize) -> Vec<Bytes> {
        (0..n)
            .map(|i| {
                let a = (b'a' + (i % 26) as u8) as char;
                let b = (b'a' + ((i * 11 + 5) % 26) as u8) as char;
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                Bytes::from(format!("{lo} {i}\n{hi} {i}\n"))
            })
            .collect()
    }

    #[test]
    fn zero_budget_spills_every_run_and_matches_flat() {
        // Budget 0: the run target degenerates to one byte, so every piece
        // becomes its own spilled run and the final merge streams through
        // temp files in arity-bounded waves. Result must be byte-identical
        // to the in-memory flat merge.
        let c = Candidate::run(RunOp::Merge(vec![]));
        let pieces = spill_pieces(MERGE_RUN_ARITY * 3 + 5);
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        with_spill_dir("zero", 0, |cfg| {
            let mut fold =
                IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, Some(cfg.clone()));
            for p in &pieces {
                push(&mut fold, p);
            }
            assert_eq!(fold.finish().unwrap().into_bytes(), flat);
            let (runs, written, mapped) = cfg.metrics.snapshot();
            // One run per piece, plus the wave merges of the finish.
            assert!(runs >= pieces.len() as u64, "runs spilled: {runs}");
            assert!(written >= flat.len() as u64);
            assert!(mapped >= flat.len() as u64);
        });
    }

    #[test]
    fn budgeted_run_sizing_accumulates_pieces_into_large_runs() {
        // A small-but-nonzero budget: runs cut at the ledger's batch size,
        // so each spilled run aggregates several pieces instead of one run
        // per piece (or per MERGE_RUN_ARITY arrivals).
        let c = Candidate::run(RunOp::Merge(vec![]));
        let pieces = spill_pieces(MERGE_RUN_ARITY * 2);
        let total: usize = pieces.iter().map(Bytes::len).sum();
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        with_spill_dir("sized", total / 2, |cfg| {
            assert!(cfg.batch_bytes().abs_diff(total / 8) <= 2);
            let mut fold =
                IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, Some(cfg.clone()));
            for p in &pieces {
                push(&mut fold, p);
            }
            assert_eq!(fold.finish().unwrap().into_bytes(), flat);
            let (runs, _, _) = cfg.metrics.snapshot();
            // Batches of an eighth of the total: some 8 runs form, those
            // past the eighth kept resident spill — strictly fewer spills
            // than pieces proves the byte-target batching, more than one
            // proves we still spill.
            assert!(runs > 1, "expected multiple spilled runs, got {runs}");
            assert!(
                runs < pieces.len() as u64,
                "runs must batch pieces: {runs} spills for {} pieces",
                pieces.len()
            );
        });
    }

    #[test]
    fn counter_fold_spills_slot_groups_under_budget() {
        // The satellite case: a uniq -c-shaped stitch accumulator must
        // respect the spill budget instead of growing its output on the
        // heap. Budget 0 forces every stored group out; the combined
        // result (read back through mapped views) must match the
        // in-memory fold.
        let c = Candidate::structural(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First));
        let pieces: Vec<Bytes> = (0..40)
            .map(|i| {
                Bytes::from(format!(
                    "      2 k{:03}\n      1 k{:03}\n",
                    2 * i,
                    2 * i + 1
                ))
            })
            .collect();
        let flat = combine_all(&c, &pieces, &NoRunEnv).unwrap();
        with_spill_dir("counter", 0, |cfg| {
            let mut fold =
                IncrementalFold::over(std::slice::from_ref(&c), None, &NoRunEnv, Some(cfg.clone()));
            for p in &pieces {
                push(&mut fold, p);
            }
            assert_eq!(fold.finish().unwrap().into_bytes(), flat);
            let (runs, written, _) = cfg.metrics.snapshot();
            assert!(runs > 0, "counter groups must spill at budget 0");
            assert!(written > 0);
        });
    }

    #[test]
    fn counter_fold_generous_budget_stays_in_memory() {
        let c = Candidate::structural(StructOp::Stitch(RecOp::First));
        let pieces = s(&["a\nb\n", "b\nc\n", "c\nd\n", "d\ne\n", "e\nf\n"]);
        let flat = combine_all(&c, &pieces, &NoRunEnv).unwrap();
        with_spill_dir("counter-mem", usize::MAX, |cfg| {
            let mut fold =
                IncrementalFold::over(std::slice::from_ref(&c), None, &NoRunEnv, Some(cfg.clone()));
            for p in &pieces {
                push(&mut fold, p);
            }
            assert_eq!(fold.finish().unwrap().into_bytes(), flat);
            assert_eq!(cfg.metrics.snapshot(), (0, 0, 0), "no spill under budget");
        });
    }

    #[test]
    fn spilled_fold_matches_through_the_real_command_env() {
        // CommandEnv overrides merge_stream with the true incremental
        // merge (fragments + per-run progress), which is the path the
        // executors use — cover it end to end, unique flags included.
        let command = kq_coreutils::parse_command("sort -u").unwrap();
        let ctx = kq_coreutils::ExecContext::default();
        let env = crate::eval::CommandEnv {
            command: &command,
            ctx: &ctx,
        };
        let c = Candidate::run(RunOp::Merge(vec!["-u".to_owned()]));
        let pieces: Vec<Bytes> = spill_pieces(MERGE_RUN_ARITY * 2 + 7)
            .iter()
            .map(|p| {
                // Pre-sort each piece under -u semantics (dedup by key).
                command.run(p.clone(), &ctx).unwrap()
            })
            .collect();
        let flat = combine_all(&c, &pieces, &env).unwrap();
        with_spill_dir("cmdenv", 0, |cfg| {
            let mut fold =
                IncrementalFold::over(std::slice::from_ref(&c), None, &env, Some(cfg.clone()));
            for p in &pieces {
                push(&mut fold, p);
            }
            assert_eq!(fold.finish().unwrap().into_bytes(), flat);
        });
    }

    #[test]
    fn generous_budget_never_touches_disk() {
        let c = Candidate::run(RunOp::Merge(vec![]));
        let pieces = spill_pieces(MERGE_RUN_ARITY + 3);
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        with_spill_dir("generous", usize::MAX, |cfg| {
            let mut fold =
                IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, Some(cfg.clone()));
            for p in &pieces {
                push(&mut fold, p);
            }
            assert_eq!(fold.finish().unwrap().into_bytes(), flat);
            assert_eq!(cfg.metrics.snapshot(), (0, 0, 0), "no spill under budget");
        });
    }

    #[test]
    fn abandoned_spilled_fold_leaves_no_files() {
        // The cancellation path: runs spill, then the fold is dropped
        // without finish(). Mapped runs unlinked at creation — nothing to
        // clean; the assertion lives in with_spill_dir.
        let c = Candidate::run(RunOp::Merge(vec![]));
        let pieces = spill_pieces(MERGE_RUN_ARITY * 2);
        with_spill_dir("abandon", 0, |cfg| {
            let mut fold =
                IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, Some(cfg.clone()));
            for p in &pieces {
                push(&mut fold, p);
            }
            let (runs, _, _) = cfg.metrics.snapshot();
            assert_eq!(
                runs,
                pieces.len() as u64,
                "budget 0 spills one run per piece before the drop"
            );
            drop(fold);
        });
    }

    /// Pieces of `n` lines each as `sort <flags>` leaves them, keys drawn
    /// from a small alphabet so equal lines recur across pieces.
    fn keyed_pieces(flags: &str, pieces: usize, n: usize) -> Vec<Bytes> {
        let sort = kq_coreutils::parse_command(&format!("sort {flags}")).unwrap();
        let ctx = kq_coreutils::ExecContext::default();
        (0..pieces)
            .map(|p| {
                let lines: String = (0..n)
                    .map(|i| format!("{} {p}\n", (i * 7 + p * 13) % 23))
                    .collect();
                sort.run(Bytes::from(lines), &ctx).unwrap()
            })
            .collect()
    }

    fn merge_candidate(flags: &str) -> Candidate {
        Candidate::run(RunOp::Merge(
            flags.split_whitespace().map(str::to_owned).collect(),
        ))
    }

    #[test]
    fn finish_in_parts_of_a_few_lines_equals_combine_all() {
        for flags in ["", "-u", "-n", "-nu", "-r"] {
            let c = merge_candidate(flags);
            let pieces = keyed_pieces(flags, MERGE_RUN_ARITY * 2 + 5, 9);
            let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
            let total: usize = pieces.iter().map(Bytes::len).sum();
            // In memory, then with every run spilled, then with a budget
            // that keeps the first runs resident.
            for budget in [None, Some(0), Some(total / 3)] {
                for part_bytes in [1, 40, 300, total / 3, total * 2] {
                    let tag = format!("parts-{part_bytes}-{}", budget.unwrap_or(usize::MAX));
                    with_spill_dir(&tag, budget.unwrap_or(0), |cfg| {
                        let spill = budget.map(|_| cfg.clone());
                        let mut fold =
                            IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, spill);
                        for p in &pieces {
                            push(&mut fold, p);
                        }
                        let (got, spans) = close_in_parts(fold, part_bytes);
                        // `-u` runs are smaller than the pieces they merged.
                        let at_most = finish_part_count(total, part_bytes);
                        assert!(parts(&spans) <= at_most);
                        if part_bytes <= 40 {
                            assert!(parts(&spans) > 2, "{flags:?}: the fold must cut");
                        }
                        let got = got.into_bytes();
                        assert_eq!(
                            got, flat,
                            "merge {flags:?}, budget {budget:?}, parts of {part_bytes} bytes"
                        );
                    });
                }
            }
        }
    }

    /// The fold of a fused `sort <flags> | uniq [-c]` pair: the pieces are
    /// what the pair prints for each chunk, the fold runs under the counted
    /// (or `-u`) order, and the result — closed in parts of a few lines, in
    /// memory and with runs spilled — is what the two commands print for
    /// the whole stream.
    #[test]
    fn a_counted_fold_in_parts_equals_sort_then_uniq_c() {
        let ctx = kq_coreutils::ExecContext::default();
        let run = |line: &str, input: Bytes| {
            kq_coreutils::parse_command(line)
                .unwrap()
                .run(input, &ctx)
                .unwrap()
        };
        // Lines that recur within a chunk and across chunks, some with
        // blanks and digits up front, some differing only in case.
        let chunks: Vec<Bytes> = (0..MERGE_RUN_ARITY * 2 + 5)
            .map(|p| {
                let lines: String = (0..9)
                    .map(|i| match (i * 7 + p * 13) % 23 {
                        k @ 0..=4 => format!("  {k} x\n"),
                        k @ 5..=9 => format!("{k}\n"),
                        k if k % 2 == 0 => format!("Key{k}\n"),
                        k => format!("key{}\n", k - 1),
                    })
                    .collect();
                Bytes::from(lines)
            })
            .collect();
        let whole = kq_stream::concat_bytes(&chunks);
        for (flags, uniq) in [
            ("", "uniq -c"),
            ("-n", "uniq -c"),
            ("-r", "uniq -c"),
            ("-f", "uniq -c"),
            ("-k1n", "uniq -c"),
            ("", "uniq"),
            ("-r", "uniq"),
        ] {
            let sort = format!("sort {flags}");
            let expect = run(uniq, run(&sort, whole.clone()));
            let c = merge_candidate(flags);
            let plain = merge_order(
                &flags
                    .split_whitespace()
                    .map(str::to_owned)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            let order = if uniq == "uniq" {
                plain.unique()
            } else {
                plain.counted()
            };
            let pieces: Vec<Bytes> = chunks
                .iter()
                .map(|chunk| run(uniq, run(&sort, chunk.clone())))
                .collect();
            if uniq == "uniq -c" {
                let kernel: Vec<Bytes> = chunks
                    .iter()
                    .map(|c| order.sort_bytes(c).unwrap())
                    .collect();
                assert_eq!(kernel, pieces, "the chunk kernel under {flags:?}");
            }
            let command = kq_coreutils::parse_command(&sort).unwrap();
            let env = crate::eval::CommandEnv {
                command: &command,
                ctx: &ctx,
            };
            let total: usize = pieces.iter().map(Bytes::len).sum();
            for budget in [None, Some(0), Some(total / 3)] {
                for part_bytes in [1, 40, 300, total * 2] {
                    let tag = format!(
                        "counted-{}-{part_bytes}-{}",
                        flags.len() + uniq.len(),
                        budget.unwrap_or(usize::MAX)
                    );
                    with_spill_dir(&tag, budget.unwrap_or(0), |cfg| {
                        let spill = budget.map(|_| cfg.clone());
                        let mut fold = IncrementalFold::over(
                            std::slice::from_ref(&c),
                            Some((order, None)),
                            &env,
                            spill,
                        );
                        for p in &pieces {
                            push(&mut fold, p);
                        }
                        let (got, spans) = close_in_parts(fold, part_bytes);
                        if part_bytes <= 40 {
                            assert!(parts(&spans) > 2, "{sort} | {uniq}: the fold must cut");
                        }
                        let got = got.into_bytes();
                        assert_eq!(
                            got, expect,
                            "{sort} | {uniq}, budget {budget:?}, parts of {part_bytes} bytes"
                        );
                    });
                }
            }
        }
    }

    /// The fold of `sort [-r] | uniq -c | sort <numeric>` as one node: the
    /// counting fold's pieces, closed in parts of a few lines, in memory
    /// and with runs and parts spilled, each part regrouped by count and
    /// the parts stitched — what the three commands print for the whole
    /// stream, for every kind of tail: counts up or down, ties with the
    /// counted order or against it.
    #[test]
    fn a_counting_fold_closing_in_count_order_equals_the_three_commands() {
        let ctx = kq_coreutils::ExecContext::default();
        let run = |line: &str, input: Bytes| {
            kq_coreutils::parse_command(line)
                .unwrap()
                .run(input, &ctx)
                .unwrap()
        };
        // Counts from one to dozens, many tied, over lines with blanks and
        // digits up front.
        let chunks: Vec<Bytes> = (0..MERGE_RUN_ARITY * 2 + 5)
            .map(|p| {
                let lines: String = (0..9)
                    .map(|i| match (i * 7 + p * 13) % 29 {
                        k @ 0..=4 => format!("  {k} x\n"),
                        k @ 5..=9 => format!("{}\n", k * p % 31),
                        k if k % 3 == 0 => format!("w{}\n", k % 4),
                        k => format!("key{}\n", k * p),
                    })
                    .collect();
                Bytes::from(lines)
            })
            .collect();
        let whole = kq_stream::concat_bytes(&chunks);
        for pair in ["", "-r"] {
            let sort = format!("sort {pair}");
            let command = kq_coreutils::parse_command(&sort).unwrap();
            let env = crate::eval::CommandEnv {
                command: &command,
                ctx: &ctx,
            };
            let c = merge_candidate(pair);
            let plain = merge_order(
                &pair
                    .split_whitespace()
                    .map(str::to_owned)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            let order = plain.counted();
            let pieces: Vec<Bytes> = chunks
                .iter()
                .map(|c| order.sort_bytes(c).unwrap())
                .collect();
            let counted = run("uniq -c", run(&sort, whole.clone()));
            let total: usize = pieces.iter().map(Bytes::len).sum();
            for then in ["-rn", "-n", "-k1nr", "-k1n -r"] {
                let numeric = format!("sort {then}");
                let expect = run(&numeric, counted.clone());
                let words: Vec<String> = then.split_whitespace().map(str::to_owned).collect();
                let count = plain
                    .count_order(merge_order(&words).unwrap())
                    .expect("a licensed tail");
                for budget in [None, Some(0), Some(total / 3)] {
                    for part_bytes in [1, 40, 300, total * 2] {
                        let tag = format!(
                            "count-order-{}-{}-{part_bytes}-{}",
                            pair.len(),
                            then.len(),
                            budget.unwrap_or(usize::MAX)
                        );
                        with_spill_dir(&tag, budget.unwrap_or(0), |cfg| {
                            let spill = budget.map(|_| cfg.clone());
                            let mut fold = IncrementalFold::over(
                                std::slice::from_ref(&c),
                                Some((order, Some(count))),
                                &env,
                                spill,
                            );
                            for p in &pieces {
                                push(&mut fold, p);
                            }
                            let (got, spans) = close_in_parts(fold, part_bytes);
                            if part_bytes <= 40 {
                                assert!(parts(&spans) > 2, "{sort} | uniq -c: the fold must cut");
                            }
                            let got = got.into_bytes();
                            assert_eq!(
                                got, expect,
                                "{sort} | uniq -c | {numeric}, budget {budget:?}, parts of \
                                 {part_bytes} bytes"
                            );
                        });
                    }
                }
            }
        }
    }

    /// What a counting fold's map hands on: stretches of one repeated word
    /// (their chunks counted, as the hash table does) alternating with
    /// stretches of distinct lines (their chunks raw, as when the table
    /// gives up), enough of each for both kinds of batch to be cut while
    /// pushing — raw ones under a budget of 1 MiB too. Lines lead with blanks and digits and differ only in case.
    /// Returns the stream and the pieces.
    fn counted_and_raw_chunks(order: LineOrder) -> (String, Vec<Piece>) {
        let mut stream = String::new();
        let pieces = (0..MERGE_RUN_ARITY * 3 + 5)
            .map(|p| {
                let lines: String = (0..240)
                    .map(|i| match (p % 2, (i * 7 + p) % 5) {
                        (0, 0) => format!("w{}\n", p % 3),
                        (0, 1) => "W1\n".to_owned(),
                        (0, k) => format!("  {k} x\n"),
                        (_, 0) => format!("{} distinct {p}\n", i * 37 % 101),
                        (_, 1) => format!("Distinct line {i} of {p}\n"),
                        (_, k) => format!("distinct line {i} of {p} {k}\n"),
                    })
                    .collect();
                stream.push_str(&lines);
                let chunk = Bytes::from(lines);
                if p % 2 == 0 {
                    Piece::Output(order.sort_bytes(&chunk).unwrap())
                } else {
                    Piece::Raw(chunk)
                }
            })
            .collect();
        (stream, pieces)
    }

    /// A counting fold fed counted runs and raw chunks interleaved — the
    /// two kinds are batched apart, so their runs leave stream order, which
    /// a counted order allows — equals `sort | uniq -c` of the stream by
    /// the reference comparator, and closing in count order, that piped
    /// through the numeric `sort`: sealed in parts of a few lines and in
    /// one, in memory, under a 1 MiB budget and with every run spilled.
    #[test]
    fn a_counting_fold_of_counted_runs_and_raw_chunks_equals_sort_then_uniq_c() {
        use kq_coreutils::sort::reference;
        let ctx = kq_coreutils::ExecContext::default();
        for (flags, tails) in [
            ("", &["", "-rn", "-n", "-k1n -r"][..]),
            ("-r", &["", "-k1nr"][..]),
            ("-n", &[""][..]),
            ("-f", &[""][..]),
        ] {
            let plain = merge_order(&words(flags)).unwrap();
            let order = plain.counted();
            let (stream, pieces) = counted_and_raw_chunks(order);
            let counted = reference::sort_count(order, &stream);
            let sort = kq_coreutils::parse_command(&format!("sort {flags}")).unwrap();
            let env = crate::eval::CommandEnv {
                command: &sort,
                ctx: &ctx,
            };
            let c = merge_candidate(flags);
            for &then in tails {
                let numeric = LineOrder::parse(&words(then)).unwrap();
                let count = (!then.is_empty()).then(|| plain.count_order(numeric).unwrap());
                let expect = match count {
                    None => counted.clone(),
                    Some(_) => reference::sort(numeric, &counted),
                };
                for budget in [None, Some(1 << 20), Some(0)] {
                    for part_bytes in [40, 2_000, 1 << 30] {
                        let tag = format!(
                            "mixed-{}-{}-{part_bytes}-{}",
                            flags.len(),
                            then.len(),
                            budget.unwrap_or(usize::MAX)
                        );
                        with_spill_dir(&tag, budget.unwrap_or(0), |cfg| {
                            let spill = budget.map(|_| cfg.clone());
                            let mut fold = match count {
                                None => IncrementalFold::over(
                                    std::slice::from_ref(&c),
                                    Some((order, None)),
                                    &env,
                                    spill,
                                ),
                                Some(count) => IncrementalFold::over(
                                    std::slice::from_ref(&c),
                                    Some((order, Some(count))),
                                    &env,
                                    spill,
                                ),
                            };
                            // Batches cut while pushing, of runs and of raw
                            // chunks; a budget sizes both by bytes, and the
                            // counted runs are small.
                            let mut cut = [0usize; 2];
                            for piece in &pieces {
                                if let Some(work) = fold.push(piece.clone()) {
                                    let Work::Batch(batch) = &work.0 else {
                                        panic!("a push hands out run batches only");
                                    };
                                    cut[usize::from(batch.raw)] += 1;
                                    fold.complete(work.run());
                                }
                            }
                            assert!(cut[1] > 0 && (cut[0] > 0 || budget.is_some()), "{cut:?}");
                            let (got, spans) = close_in_parts(fold, part_bytes);
                            if part_bytes <= 40 {
                                assert!(
                                    parts(&spans) > 2,
                                    "sort {flags} | uniq -c: the fold must cut"
                                );
                            }
                            let got = got.into_bytes();
                            assert!(
                                got == expect.as_str(),
                                "sort {flags} | uniq -c | sort {then}, budget {budget:?}, parts \
                                 of {part_bytes} bytes"
                            );
                        });
                    }
                }
            }
        }
    }

    /// Runs and raw chunks are batched apart, so their runs leave stream
    /// order: under an order that calls lines of different bytes equal,
    /// that would change which of them comes first.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "only a counted order mixes them")]
    fn only_a_counted_order_takes_runs_and_raw_chunks() {
        let c = merge_candidate("-n");
        let order = LineOrder::parse(&words("-n")).unwrap();
        let mut fold = IncrementalFold::over(
            std::slice::from_ref(&c),
            Some((order, None)),
            &FakeEnv,
            None,
        );
        push(&mut fold, &Bytes::from("1 b\n"));
        push_raw(&mut fold, &Bytes::from("1 a\n"));
    }

    /// The words of a flag list.
    fn words(flags: &str) -> Vec<String> {
        flags.split_whitespace().map(str::to_owned).collect()
    }

    /// The stitch over blocks: a counted stream cut into line-aligned
    /// blocks, each regrouped on its own and the blocks spread over parts,
    /// stitches to the numeric sort of the whole stream; the slices of a
    /// block that follow each other join into one segment, and short ones
    /// from different blocks are copied together.
    #[test]
    fn stitched_blocks_are_the_numeric_sort_of_their_stream() {
        // 400 lines of 13 bytes, in byte order past the count column.
        let counted: String = (0..400)
            .map(|i| {
                format!(
                    "{:>7} w{i:03}\n",
                    [1, 1, 2, 3, 1, 7, 2, 40][i % 8] + i / 100
                )
            })
            .collect();
        let cuts: Vec<usize> = [0, 1, 60, 61, 300, 350, 400].map(|line| line * 13).to_vec();
        let pair = LineOrder::parse(&[]).unwrap();
        for then in ["-rn", "-n", "-k1nr", "-k1n -r"] {
            let words: Vec<String> = then.split_whitespace().map(str::to_owned).collect();
            let numeric = LineOrder::parse(&words).unwrap();
            let count = pair.count_order(numeric).unwrap();
            let expect = numeric.sort_bytes(&Bytes::from(counted.as_str())).unwrap();
            let blocks = |from: usize, to: usize| -> Vec<CountBlock> {
                (from..to)
                    .map(|b| {
                        regroup_block(count, &counted.as_bytes()[cuts[b]..cuts[b + 1]]).unwrap()
                    })
                    .collect()
            };
            let last = cuts.len() - 1;
            // One block is one segment, with no copy.
            let rope = stitch(vec![PartOutput::Regrouped(
                count,
                blocks_of(count, &counted),
            )]);
            assert_eq!(rope.segment_count(), 1, "sort {then}");
            assert_eq!(rope.into_bytes(), expect, "sort {then}");
            // Every block a part; one part of every block; two parts.
            for parts in [
                (0..last)
                    .map(|b| PartOutput::Regrouped(count, blocks(b, b + 1)))
                    .collect(),
                vec![PartOutput::Regrouped(count, blocks(0, last))],
                vec![
                    PartOutput::Regrouped(count, blocks(0, 3)),
                    PartOutput::Regrouped(count, blocks(3, last)),
                ],
            ] {
                let rope = stitch(parts);
                // Nine counts, six blocks, and every slice short: copies.
                assert!(rope.segment_count() < 9 * 6, "sort {then}");
                assert_eq!(rope.into_bytes(), expect, "sort {then}");
            }
        }
    }

    /// A whole counted stream as the one block of a part.
    fn blocks_of(count: CountOrder, counted: &str) -> Vec<CountBlock> {
        vec![regroup_block(count, counted.as_bytes()).unwrap()]
    }

    /// The raw chunks of one stream, as a split cuts them: adjacent
    /// line-aligned slices of one buffer, `lines` lines each. Lines repeat
    /// within and across chunks, spell one number several ways (`07`,
    /// `7`, ` 7`, `+7`), differ only in case, and share long prefixes.
    fn raw_chunks(chunks: usize, lines: usize) -> Vec<Bytes> {
        let text: String = (0..chunks * lines)
            .map(|i| match (i * 7 + i / 13) % 11 {
                0 => format!("{:02}\n", i % 9),
                1 => format!("{}\n", i % 9),
                2 => format!(" {} x\n", i % 9),
                3 => format!("+{}\n", i % 9),
                4 => format!("Key{} shared tail\n", i % 5),
                5 => format!("key{} shared tail\n", i % 5),
                6 => "\n".to_owned(),
                k => format!("key 287 item {:03} {k}\n", i % 17),
            })
            .collect();
        let whole = Bytes::from(text);
        let mut chunks_out = Vec::new();
        let mut at = 0;
        for _ in 0..chunks {
            let end = at
                + whole.as_bytes()[at..]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &b)| b == b'\n')
                    .nth(lines - 1)
                    .map_or(whole.len() - at, |(i, _)| i + 1);
            chunks_out.push(whole.slice(at..end));
            at = end;
        }
        chunks_out
    }

    /// The fold of the sorting rewrite: raw chunks in, batches sorted
    /// into runs, and out the bytes `sort <flags>` prints for the whole
    /// stream — for every flag set, in memory and spilled, closed in one
    /// part and in several, with no piece pending at the end (every piece
    /// its own batch under budget 0), one, and many — the pieces of a
    /// split, and copies of them that no longer sit side by side.
    #[test]
    fn a_sorting_fold_of_raw_chunks_equals_the_sort_of_the_stream() {
        let ctx = kq_coreutils::ExecContext::default();
        for flags in [
            "", "-r", "-n", "-rn", "-nr", "-f", "-u", "-nu", "-fu", "-k1n", "-ru", "-fr", "-nf",
        ] {
            let sort = kq_coreutils::parse_command(&format!("sort {flags}")).unwrap();
            let order = merge_order(
                &flags
                    .split_whitespace()
                    .map(str::to_owned)
                    .collect::<Vec<_>>(),
            )
            .unwrap();
            let c = merge_candidate(flags);
            let env = crate::eval::CommandEnv {
                command: &sort,
                ctx: &ctx,
            };
            for pieces in [1, 2 * MERGE_RUN_ARITY + 5] {
                let split = raw_chunks(pieces, 23);
                let copies: Vec<Bytes> = split
                    .iter()
                    .map(|p| Bytes::from(p.to_str().unwrap().to_owned()))
                    .collect();
                let whole = kq_stream::concat_bytes(&split);
                let expect = sort.run(whole.clone(), &ctx).unwrap();
                let total = whole.len();
                for chunks in [&split, &copies] {
                    for budget in [None, Some(0), Some(total / 3)] {
                        for part_bytes in [40, total * 2] {
                            let tag = format!(
                                "sorting-{}-{pieces}-{part_bytes}-{}",
                                flags.len(),
                                budget.unwrap_or(usize::MAX)
                            );
                            with_spill_dir(&tag, budget.unwrap_or(0), |cfg| {
                                let spill = budget.map(|_| cfg.clone());
                                let mut fold = IncrementalFold::over(
                                    std::slice::from_ref(&c),
                                    Some((order, None)),
                                    &env,
                                    spill,
                                );
                                for p in chunks {
                                    push_raw(&mut fold, p);
                                }
                                let got = close_in_parts(fold, part_bytes).0.into_bytes();
                                assert_eq!(
                                    got, expect,
                                    "sort {flags} of {pieces} piece(s), budget {budget:?}, \
                                     parts of {part_bytes} bytes"
                                );
                            });
                        }
                    }
                }
            }
        }
    }

    /// Without a budget, raw chunks are cut into batches by their bytes,
    /// sorted pieces by their number.
    #[test]
    fn raw_batches_are_cut_by_bytes_and_sorted_ones_by_count() {
        let c = merge_candidate("");
        let order = LineOrder::parse(&[]).unwrap();
        let piece = Bytes::from("b\na\n".repeat(SORT_RUN_BYTES / 32));
        assert_eq!(piece.len() * 8, SORT_RUN_BYTES);
        let mut sorting = IncrementalFold::over(
            std::slice::from_ref(&c),
            Some((order, None)),
            &FakeEnv,
            None,
        );
        let mut merging = IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, None);
        for i in 1..=MERGE_RUN_ARITY {
            let raw_cut = sorting.push(Piece::Raw(piece.clone())).is_some();
            let merge_cut = merging.push(piece.clone()).is_some();
            assert_eq!((raw_cut, merge_cut), (i % 8 == 0, i == MERGE_RUN_ARITY));
        }
    }

    /// Resident KiB of the mapping that holds `addr`, from
    /// `/proc/self/smaps`.
    #[cfg(target_os = "linux")]
    fn mapping_rss_kib(addr: usize) -> usize {
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let mut inside = false;
        for line in smaps.lines() {
            let range = line.split_whitespace().next().unwrap_or("");
            if let Some((start, end)) = range.split_once('-') {
                if let (Ok(start), Ok(end)) = (
                    usize::from_str_radix(start, 16),
                    usize::from_str_radix(end, 16),
                ) {
                    inside = (start..end).contains(&addr);
                    continue;
                }
            }
            if let Some(kib) = line.strip_prefix("Rss:").filter(|_| inside) {
                return kib.trim().trim_end_matches("kB").trim().parse().unwrap();
            }
        }
        panic!("no mapping holds {addr:#x}")
    }

    /// A sorting fold's batch of a mapped input is a view of the map: the
    /// sort faults every page of it in, and the batch lets go of them once
    /// its run exists, so sorting a 32 MiB mapped file batch by batch
    /// leaves little of the file resident.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_sorting_fold_releases_the_mapped_pages_it_sorted() {
        use kq_io::{IngestOptions, MmapMode};
        let path = std::env::temp_dir().join(format!("kq-kway-mapped-{}", std::process::id()));
        let text: String = (0..1_500_000u64)
            .map(|i| format!("key {:07} item {:05}\n", (i * 7919) % 1_000_003, i % 99_991))
            .collect();
        assert!(text.len() >= 32 << 20);
        std::fs::write(&path, &text).unwrap();
        drop(text);
        let mapped = kq_io::read_path(&path, &IngestOptions::with_mode(MmapMode::On)).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(mapped.is_mmap_backed());
        let c = merge_candidate("");
        let order = LineOrder::parse(&[]).unwrap();
        let mut fold = IncrementalFold::over(
            std::slice::from_ref(&c),
            Some((order, None)),
            &FakeEnv,
            None,
        );
        for chunk in mapped.chunks(64 << 10) {
            push_raw(&mut fold, &chunk);
        }
        // The tail's batches, sorted; the closing merge is not run.
        let Step::Work(batches) = fold.close() else {
            panic!("a fold with chunks pending hands out their batches");
        };
        for batch in batches {
            assert_eq!(batch.span().0, "fold-merge");
            fold.complete(batch.run());
        }
        let resident = mapping_rss_kib(mapped.as_bytes().as_ptr() as usize);
        let file_kib = mapped.len() / 1024;
        assert!(
            resident < file_kib / 2,
            "{resident} KiB of the {file_kib} KiB file still resident after sorting"
        );
    }

    /// The batches a close hands out, and the spans of all it hands out.
    fn close_batches<'a>(fold: &mut IncrementalFold<'a>) -> (Vec<Batch<'a>>, Spans) {
        let Step::Work(work) = fold.close() else {
            panic!("a fold fed something closes by work");
        };
        let spans = work.iter().map(FoldWork::span).collect();
        let batches = (work.into_iter())
            .filter_map(|work| match work.0 {
                Work::Batch(batch) => Some(batch),
                _ => None,
            })
            .collect();
        (batches, spans)
    }

    #[test]
    fn sealing_cuts_the_tail_by_bytes_at_line_ends() {
        let c = merge_candidate("");
        let order = LineOrder::parse(&[]).unwrap();
        let pieces = raw_chunks(3, 40);
        let total: usize = pieces.iter().map(Bytes::len).sum();
        // Three raw pieces that close in parts of a third of their bytes:
        // three batches, each about a third, cut at line ends, that are
        // the pieces' bytes in order.
        let mut fold = IncrementalFold::over(
            std::slice::from_ref(&c),
            Some((order, None)),
            &FakeEnv,
            None,
        );
        fold.part_bytes = total / 3;
        for p in &pieces {
            assert!(fold.push(Piece::Raw(p.clone())).is_none());
        }
        let (batches, spans) = close_batches(&mut fold);
        assert_eq!(batches.len(), 3);
        let indices: Vec<usize> = batches.iter().map(|batch| batch.index).collect();
        assert_eq!(indices, [0, 1, 2]);
        assert_eq!(spans.len(), 3, "the close hands out batches only");
        let mut cut = Vec::new();
        for batch in &batches {
            let bytes: usize = batch.pieces.iter().map(Bytes::len).sum();
            assert!(bytes.abs_diff(total / 3) < 40, "{bytes} of {total}");
            assert!(batch.pieces.iter().all(|p| p.as_bytes().ends_with(b"\n")));
            cut.extend(batch.pieces.iter().cloned());
        }
        assert_eq!(
            kq_stream::concat_bytes(&cut),
            kq_stream::concat_bytes(&pieces)
        );
        // Sealed: once the runs are back, the closing merge is cut.
        let mut steps: Vec<Step> = batches
            .into_iter()
            .map(|batch| fold.complete(FoldWork(Work::Batch(batch)).run()))
            .collect();
        let Some(Step::Work(next)) = steps.pop() else {
            panic!("the last run back moves the close on");
        };
        assert!(steps.iter().all(|step| matches!(step, Step::Wait)));
        let next: Spans = next.iter().map(FoldWork::span).collect();
        assert_eq!(next, [("fold-partition", None)]);
        // Below a part's bytes, the tail is one batch, raw or sorted.
        for raw in [true, false] {
            let mut fold = IncrementalFold::over(
                std::slice::from_ref(&c),
                Some((order, None)),
                &FakeEnv,
                None,
            );
            if raw {
                pieces.iter().for_each(|p| push_raw(&mut fold, p));
            } else {
                pieces.iter().for_each(|p| push(&mut fold, p));
            }
            assert_eq!(close_batches(&mut fold).0.len(), 1);
        }
        // Nothing pending, or no merge: the close is one unnumbered finish.
        let cat = Candidate::rec(RecOp::Concat);
        let mut concat = IncrementalFold::over(std::slice::from_ref(&cat), None, &NoRunEnv, None);
        push(&mut concat, &pieces[0]);
        let mut merge = IncrementalFold::over(
            std::slice::from_ref(&c),
            Some((order, None)),
            &FakeEnv,
            None,
        );
        for fold in [&mut concat, &mut merge] {
            let (batches, spans) = close_batches(fold);
            assert!(batches.is_empty());
            assert_eq!(spans, [("fold-finish", None)]);
        }
    }

    #[test]
    fn the_part_count_follows_the_bytes_folded_and_small_folds_do_not_cut() {
        assert_eq!(finish_part_count(0, FINISH_PART_BYTES), 1);
        assert_eq!(
            finish_part_count(2 * FINISH_PART_BYTES - 1, FINISH_PART_BYTES),
            1
        );
        assert_eq!(
            finish_part_count(2 * FINISH_PART_BYTES, FINISH_PART_BYTES),
            2
        );
        assert_eq!(
            finish_part_count(usize::MAX, FINISH_PART_BYTES),
            FINISH_MAX_PARTS
        );
        // A fold of KBs closes by the flat merge, after the batch of its
        // tail, and folds that are not merges settle in one piece of work.
        let c = merge_candidate("");
        let pieces = spill_pieces(MERGE_RUN_ARITY + 3);
        let mut fold = IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, None);
        for p in &pieces {
            push(&mut fold, p);
        }
        let (_, spans) = close_in_parts(fold, FINISH_PART_BYTES);
        assert_eq!(spans, [("fold-merge", Some(1)), ("fold-finish", None)]);
        let concat = Candidate::rec(RecOp::Concat);
        let mut fold = IncrementalFold::over(std::slice::from_ref(&concat), None, &NoRunEnv, None);
        push(&mut fold, &Bytes::from("a\n"));
        push(&mut fold, &Bytes::from("b\n"));
        let (combined, spans) = close_in_parts(fold, FINISH_PART_BYTES);
        assert_eq!(spans, [("fold-finish", None)]);
        assert_eq!(combined.into_bytes(), "a\nb\n");
    }

    #[test]
    fn a_spilled_fold_writes_one_file_per_part_and_says_so() {
        let c = merge_candidate("");
        let pieces = keyed_pieces("", MERGE_RUN_ARITY, 9);
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        with_spill_dir("part-files", 0, |cfg| {
            let mut fold =
                IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, Some(cfg.clone()));
            for p in &pieces {
                push(&mut fold, p);
            }
            let (runs_before, ..) = cfg.metrics.snapshot();
            let (rope, spans) = close_in_parts(fold, 200);
            let cut = parts(&spans) as u64;
            assert!(cut > 2);
            assert_eq!(rope.segment_count() as u64, cut, "one mapped file per part");
            assert!(rope.segments().iter().all(Bytes::is_mmap_backed));
            assert_eq!(rope.into_bytes(), flat);
            assert_eq!(cfg.metrics.merge_parts(), cut);
            let (runs_after, ..) = cfg.metrics.snapshot();
            assert_eq!(
                runs_after - runs_before,
                cut,
                "one wave per part at this arity"
            );
        });
    }

    proptest::proptest! {
        /// The satellite property: a spill-everything fold equals the
        /// in-memory combine_all for arbitrary sorted pieces.
        #[test]
        fn prop_spilled_merge_equals_combine_all(
            raw in proptest::collection::vec(
                proptest::collection::vec("[a-e]{0,4}", 0..6),
                0..70,
            )
        ) {
            let pieces: Vec<Bytes> = raw
                .iter()
                .map(|lines| {
                    let mut sorted: Vec<&str> = lines.iter().map(String::as_str).collect();
                    sorted.sort_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
                    Bytes::from(sorted.iter().map(|l| format!("{l}\n")).collect::<String>())
                })
                .collect();
            let c = Candidate::run(RunOp::Merge(vec![]));
            // A fold fed only empty pieces is the command on the empty stream.
            let flat = match pieces.iter().all(Bytes::is_empty) {
                true => FakeEnv.rerun(Bytes::new()).unwrap(),
                false => combine_all(&c, &pieces, &FakeEnv).unwrap(),
            };
            let dir = std::env::temp_dir().join(format!("kq-kway-prop-{}", std::process::id()));
            let cfg = crate::spill::SpillConfig {
                budget_bytes: 0,
                workers: 1,
                dir: dir.clone(),
                metrics: std::sync::Arc::new(crate::spill::SpillMetrics::default()),
            };
            let mut fold = IncrementalFold::over(std::slice::from_ref(&c), None, &FakeEnv, Some(cfg));
            for p in &pieces {
                push(&mut fold, p);
            }
            let got = fold.finish().unwrap().into_bytes();
            std::fs::remove_dir_all(&dir).ok();
            proptest::prop_assert_eq!(got, flat);
        }
    }
}
