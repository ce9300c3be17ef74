//! k-way combining (paper §3.5, "Combining Multiple Substreams").
//!
//! Synthesized combiners are binary, but parallel execution produces `k`
//! output substreams. Three combiners generalize natively — `concat` is
//! `cat $*`, `merge <flags>` is `sort -m <flags> $*`, and `rerun` is one
//! re-execution over the concatenation — while every other combiner is
//! applied pairwise, in a balanced tree, until one stream remains.

use crate::ast::{Candidate, Combiner, RecOp, RunOp};
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

/// Combines two adjacent substream groups with a binary combiner (the
/// earlier group is the left argument; [`Candidate::oriented`] handles
/// swapped combiners).
fn combine_pair(
    candidate: &Candidate,
    env: &dyn RunEnv,
    earlier: &Bytes,
    later: &Bytes,
) -> Result<Bytes, EvalError> {
    let (x, y) = candidate.oriented(earlier.as_bytes(), later.as_bytes());
    eval(&candidate.op, x, y, env)
}

/// Incremental k-way combining: substreams are folded *as they arrive*
/// instead of being gathered first.
///
/// [`combine_all`] needs the complete piece list, which forces an
/// executor to buffer a stage's whole output before combining — exactly
/// the barrier this type removes. Pieces are pushed in stream
/// order and the combine work overlaps with whatever produces the pieces;
/// [`finish`](IncrementalFold::finish) only settles the remainder.
///
/// A fold usually sits behind a lock that the producers of its pieces
/// share, so [`push`](IncrementalFold::push) itself never does work
/// proportional to a run: when enough pieces are pending it cuts them
/// into a [`RunBatch`] and hands that back. The caller merges the batch
/// with the lock released ([`RunBatch::merge`]) and gives the run back
/// through [`install`](IncrementalFold::install), which slots it by batch
/// index — batches may come back in any order and `finish` still sees the
/// runs in stream order.
///
/// The end of the input is handed out the same way: [`seal`] turns the
/// pieces still pending into ordinary run batches, cut by bytes into
/// batches of about a part's bytes, so that several workers make runs of
/// the tail at once and the closing merge reads nothing but runs.
///
/// The closing merge is handed out too. [`finish`] of a merge fold is
/// *seal, plan the parts, merge each part, concatenate*: [`plan_finish`]
/// cuts the runs into key ranges ([`LineOrder::partition`] — one part per
/// [`FINISH_PART_BYTES`] folded, at most [`FINISH_MAX_PARTS`], so the count
/// depends on the bytes folded and on nothing else) and returns one
/// [`FinishPart`] per range, each owning O(1) slices of the runs. A part is
/// merged by the code that merged the whole fold before there were parts —
/// `merge_pieces` in memory or, once a run has spilled,
/// `merge_spilled_runs` with its release cursors and a temp file of its
/// own — on whatever thread its holder likes, and the outputs concatenate
/// in part order to the bytes of the one flat merge. Below two parts the
/// single part *is* that flat merge. `finish` seals and runs the batches
/// and parts inline, one after the other, so there is one closing path:
/// `finish` on one thread (what the dataflow scheduler calls for a fold
/// that closes in fewer than two parts, and what every test calls) and
/// the scheduler's pool tasks, one per sealed batch and one per part,
/// differ only in where [`RunBatch::merge`] and `FinishPart::merge` are
/// called.
///
/// [`finish`]: IncrementalFold::finish
/// [`plan_finish`]: IncrementalFold::plan_finish
/// [`seal`]: IncrementalFold::seal
///
/// How each combiner folds (mirroring [`combine_all`]):
///
/// * unswapped `concat` — pieces accumulate in a segment list; `finish`
///   is the single gather memcpy (zero work per push);
/// * `rerun` — pieces are gathered and the command re-executes once at
///   `finish` (pairwise rerun would re-run the command per piece on a
///   growing accumulator, O(n·k) command work);
/// * `merge` — run accumulation: arrivals are cut into a batch as soon
///   as enough of them exist, each batch is k-way merged into one sorted
///   run — or, in a [`sorting`](IncrementalFold::sorting) fold of raw
///   chunks, sorted into one — and `finish` merges the runs. Without a
///   spill config a run forms every [`MERGE_RUN_ARITY`]
///   pieces (every [`SORT_RUN_BYTES`] of raw chunks); under one, runs are
///   sized to the budget instead — pieces accumulate until their bytes
///   reach [`SpillConfig::batch_bytes`] (capped at
///   [`MERGE_RUN_MAX_PIECES`] pieces), so that every worker of the pool
///   can be making a run at once within three quarters of the budget (see
///   the ledger in [`crate::spill`]). Each byte moves through at most two merges (versus one for
///   the all-at-once merge — that's the price of overlapping — and
///   `log k` for a pairwise tree). A merge costs one prefix scan per line
///   plus `log2 k` integer compares (the offset-value-coded loser tree of
///   [`LineOrder::merge`]): on 31-byte keyed lines with long shared
///   prefixes, ~90 ns/line for a 64-way batch and ~65 ns/line for an
///   8-way closing merge on one core of a 2-core host (152 and 97 ns/line
///   with the seven-byte-key comparator before it). A sorting fold's batch
///   costs one sort ([`LineOrder::sort_bytes`]: ~57 ns/line on a 4 MiB
///   batch of those lines), where the chunk sorts and the batch merge of a
///   merging fold cost ~86 + ~90, so each line is sorted once and merged
///   once;
/// * everything else (the structural stitches, arithmetic folds) — a
///   binary-counter tree fold: slot *i* holds a combined group of `2^i`
///   adjacent pieces, so each push performs O(1) amortized combines and
///   every byte is touched O(log k) times, matching the tree-fold cost.
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
/// follows it ([`merging`](IncrementalFold::merging)): over a *counted*
/// order the pieces are counted runs (`sort | uniq -c` of each chunk) and
/// every merge — of a batch, of a part of the closing merge, of a wave of
/// spilled runs — adds the counts of equal lines, which is as associative
/// as dropping duplicates is under `-u`. No other piece of the fold knows.
/// Nor do they know whether a batch was merged or sorted into its run.
/// Only the closing merge of a counting fold that closes in count order
/// ([`counting`](IncrementalFold::counting)) does more: each part regroups
/// what it merged by count, and [`stitch`] interleaves the parts' groups.
pub struct IncrementalFold<'a> {
    candidate: &'a Candidate,
    env: &'a dyn RunEnv,
    state: FoldState,
    spill: Option<SpillConfig>,
}

/// Pieces per intermediate merge run (see [`IncrementalFold`]) when no
/// spill budget informs the sizing: wide enough that small piece counts
/// degenerate to the single flat merge (no redundant pass), small enough
/// that run merging genuinely overlaps with piece production on long
/// streams. Also the per-wave input bound of the out-of-core run merge.
pub const MERGE_RUN_ARITY: usize = 32;

/// Bytes of accumulated runs per part of a merge fold's closing merge (see
/// [`IncrementalFold::plan_finish`]): large enough that a part's merge
/// dwarfs the cost of cutting it and that folds of KBs — counts, `sort -u`
/// of a selective `grep` — close with the one flat merge they always had,
/// small enough that a sort of tens of MiB gives every worker of a pool
/// several parts to balance with.
pub const FINISH_PART_BYTES: usize = 2 << 20;

/// Ceiling on the parts of one closing merge: under a spill budget every
/// part streams through a temp file of its own, and each is a segment of
/// the fold's output.
pub const FINISH_MAX_PARTS: usize = 32;

/// The bytes a merge fold holds: its runs (those installed) and the
/// pieces still pending.
fn folded_bytes(runs: &[Option<Bytes>], pending_bytes: usize) -> usize {
    runs.iter().flatten().map(Bytes::len).sum::<usize>() + pending_bytes
}

/// Parts to cut a closing merge over `total_bytes` of runs into.
fn finish_part_count(total_bytes: usize, part_bytes: usize) -> usize {
    (total_bytes / part_bytes.max(1)).clamp(1, FINISH_MAX_PARTS)
}

/// Ceiling on pieces per merge run under budget-derived sizing: bounds the
/// arity of each run-forming k-way merge (and its per-piece bookkeeping)
/// when the budget allows very large runs of very small pieces.
pub const MERGE_RUN_MAX_PIECES: usize = 1024;

/// Bytes of raw chunks per run batch of a [`sorting`] fold when no spill
/// budget informs the sizing. Sorting a batch takes about 2.5 times its
/// bytes beside it on short lines — a 24-byte entry per line and the radix
/// sort's second buffer — where merging one takes only its output: at
/// 512 KiB a sort's working set stays within that of a merge batch of
/// [`MERGE_RUN_ARITY`] 64 KiB chunks, and in a core's cache.
///
/// [`sorting`]: IncrementalFold::sorting
pub const SORT_RUN_BYTES: usize = 512 << 10;

/// The run-size target in bytes: under a spill config the batch size of
/// its ledger ([`SpillConfig::batch_bytes`]), so that the batches every
/// worker may be making runs of at once fit in three quarters of the
/// budget (a 64 MiB budget on four workers makes 4 MiB runs); without one,
/// [`SORT_RUN_BYTES`] for the raw chunks of a sorting fold, and none — a
/// run per [`MERGE_RUN_ARITY`] pieces — for sorted ones.
fn merge_run_target(spill: &Option<SpillConfig>, raw: bool) -> Option<usize> {
    match spill {
        Some(cfg) => Some(cfg.batch_bytes()),
        None => raw.then_some(SORT_RUN_BYTES),
    }
}

enum FoldState {
    /// Unswapped concat: a segment list, gathered once at finish.
    Concat(Vec<Bytes>),
    /// Rerun: gather everything, one re-execution at finish.
    Gather(Vec<Bytes>),
    /// Merge: pending pieces are cut into a batch once they reach the
    /// run-size trigger — [`merge_run_target`] bytes (`pending_bytes`
    /// tracks that) under a spill config or for raw chunks,
    /// [`MERGE_RUN_ARITY`] pieces otherwise; the batch's run becomes
    /// `runs[batch index]`
    /// (`None` while the batch is out being merged), and finish merges the
    /// runs (earlier runs first, keeping the stability tiebreak of one
    /// flat merge). Under a spill config each batch is charged to the
    /// ledger as it is cut (`heap_bytes`: resident runs plus the runs of
    /// batches still out): one whose run would push it past the share for
    /// runs has its run written to a temp file by whoever makes it, and the
    /// run lives in `runs` as a mapped slice; once any run has spilled
    /// (`spilled`), finish streams the final merge through a temp file too,
    /// so the heap never holds more than a quarter of the budget in runs
    /// plus the pending pieces and the batches out being made runs — which
    /// the batch size bounds by the other three quarters.
    Merge {
        /// The flags' line order, parsed once for the whole fold.
        order: Result<LineOrder, EvalError>,
        /// The pieces are raw chunks of the stream, not sorted runs: a
        /// batch is sorted, not merged (a [`sorting`] fold).
        ///
        /// [`sorting`]: IncrementalFold::sorting
        raw: bool,
        /// The closing merge's output is regrouped into this order (a
        /// [`counting`] fold that closes in count order).
        ///
        /// [`counting`]: IncrementalFold::counting
        count: Option<CountOrder>,
        runs: Vec<Option<Bytes>>,
        pending: Vec<Bytes>,
        pending_bytes: usize,
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
}

impl FoldState {
    /// An empty merge fold over `order`, of sorted runs or of `raw` chunks,
    /// closing in `count` order when given.
    fn merge(
        order: Result<LineOrder, EvalError>,
        raw: bool,
        count: Option<CountOrder>,
    ) -> FoldState {
        FoldState::Merge {
            order,
            raw,
            count,
            runs: Vec::new(),
            pending: Vec::new(),
            pending_bytes: 0,
            heap_bytes: 0,
            spilled: false,
        }
    }
}

impl<'a> IncrementalFold<'a> {
    /// An empty fold for `candidate` (finishing immediately yields the
    /// empty stream, like [`combine_all`] on no pieces).
    pub fn new(candidate: &'a Candidate, env: &'a dyn RunEnv) -> IncrementalFold<'a> {
        IncrementalFold::new_with_spill(candidate, env, None)
    }

    /// Like [`new`](IncrementalFold::new), but with a spill policy: merge
    /// runs are sized to the budget (`merge_run_target`) and go to temp
    /// files once the heap-resident run bytes would cross
    /// [`SpillConfig::run_budget`], and a fold that spilled streams its final
    /// merge through a temp file as well (see [`crate::spill`]).
    /// Counter-tree folds (`uniq -c` stitches, arithmetic) account their
    /// stored slot groups against the same budget and spill them as mapped
    /// slices. Only `concat`/`rerun` ignore the config — their
    /// accumulation is inherently a gather.
    pub fn new_with_spill(
        candidate: &'a Candidate,
        env: &'a dyn RunEnv,
        spill: Option<SpillConfig>,
    ) -> IncrementalFold<'a> {
        let state = match &candidate.op {
            Combiner::Rec(RecOp::Concat) if !candidate.swapped => FoldState::Concat(Vec::new()),
            Combiner::Run(RunOp::Rerun) => FoldState::Gather(Vec::new()),
            Combiner::Run(RunOp::Merge(flags)) => FoldState::merge(merge_order(flags), false, None),
            _ => FoldState::Counter {
                slots: Vec::new(),
                heap_bytes: 0,
                spilled: false,
            },
        };
        IncrementalFold {
            candidate,
            env,
            state,
            spill,
        }
    }

    /// The merge fold of a `merge <flags>` candidate, run under `order`
    /// instead of the order its flags name: how the streams of a stage that
    /// *follows* the sort fold when the pair is one keyed aggregation —
    /// `sort <flags> | uniq -c` outputs under [`LineOrder::counted`] (the
    /// merge adds the counts of equal lines), `sort | uniq` outputs under
    /// [`LineOrder::unique`]. Everything else is the merge fold of
    /// [`new_with_spill`](IncrementalFold::new_with_spill): run batches,
    /// spill and the closing merge in parts see ordinary line runs, and
    /// every merge goes through `env` with the order given here.
    pub fn merging(
        candidate: &'a Candidate,
        order: LineOrder,
        env: &'a dyn RunEnv,
        spill: Option<SpillConfig>,
    ) -> IncrementalFold<'a> {
        debug_assert!(matches!(candidate.op, Combiner::Run(RunOp::Merge(_))));
        IncrementalFold {
            candidate,
            env,
            state: FoldState::merge(Ok(order), false, None),
            spill,
        }
    }

    /// The [`merging`](IncrementalFold::merging) fold of a counting pair
    /// whose output a numeric `sort` puts in `count` order: the fold of
    /// `sort | uniq -c | sort -rn` as one node. Everything up to the
    /// closing merge is the counting fold's; each part of the closing
    /// merge — a key range of the counted stream — regroups its lines by
    /// count ([`CountOrder::regroup`]) as it is merged, and [`stitch`]
    /// interleaves the parts' groups count by count.
    pub fn counting(
        candidate: &'a Candidate,
        order: LineOrder,
        count: CountOrder,
        env: &'a dyn RunEnv,
        spill: Option<SpillConfig>,
    ) -> IncrementalFold<'a> {
        debug_assert!(matches!(candidate.op, Combiner::Run(RunOp::Merge(_))));
        IncrementalFold {
            candidate,
            env,
            state: FoldState::merge(Ok(order), false, Some(count)),
            spill,
        }
    }

    /// The merge fold of a `merge <flags>` candidate fed *raw* chunks of a
    /// `sort`'s input instead of the chunks' sorted outputs: the fold of
    /// the sorting rewrite. Batches are cut as for any merge fold but by
    /// bytes when there is no budget ([`SORT_RUN_BYTES`]), and a
    /// batch becomes a run by one `sort` of its pieces' concatenation under
    /// `order` ([`LineOrder::sort_bytes`]) where another fold merges them —
    /// the same run, since `sort(x1 ++ … ++ xk) = merge(sort(x1), …,
    /// sort(xk))` with ties to the earlier input. Runs, spill and the
    /// closing merge are those of every merge fold; the pieces still
    /// pending when the input ends must be [`seal`](IncrementalFold::seal)ed
    /// into runs before anything is merged.
    pub fn sorting(
        candidate: &'a Candidate,
        order: LineOrder,
        env: &'a dyn RunEnv,
        spill: Option<SpillConfig>,
    ) -> IncrementalFold<'a> {
        debug_assert!(matches!(candidate.op, Combiner::Run(RunOp::Merge(_))));
        IncrementalFold {
            candidate,
            env,
            state: FoldState::merge(Ok(order), true, None),
            spill,
        }
    }

    /// Folds in the next substream (empty pieces are skipped, as in
    /// [`combine_all`]). Combine errors surface immediately. A merge fold
    /// whose pending pieces reached the run trigger returns them as a
    /// batch: merge it ([`RunBatch::merge`]) outside any lock that guards
    /// this fold and [`install`](IncrementalFold::install) the run.
    pub fn push(&mut self, piece: Bytes) -> Result<Option<RunBatch<'a>>, EvalError> {
        if piece.is_empty() {
            return Ok(None);
        }
        let (candidate, env) = (self.candidate, self.env);
        match &mut self.state {
            FoldState::Concat(segments) | FoldState::Gather(segments) => segments.push(piece),
            FoldState::Merge {
                order,
                raw,
                runs,
                pending,
                pending_bytes,
                heap_bytes,
                spilled,
                ..
            } => {
                *pending_bytes += piece.len();
                pending.push(piece);
                let cut = match merge_run_target(&self.spill, *raw) {
                    Some(target) => {
                        *pending_bytes >= target || pending.len() >= MERGE_RUN_MAX_PIECES
                    }
                    None => pending.len() >= MERGE_RUN_ARITY,
                };
                if cut {
                    let order = order.clone()?;
                    let (charged, spill) =
                        charge_batch(&self.spill, heap_bytes, spilled, *pending_bytes);
                    let batch = RunBatch {
                        env,
                        order,
                        raw: *raw,
                        index: runs.len(),
                        pieces: std::mem::take(pending),
                        charged,
                        spill,
                    };
                    runs.push(None);
                    *pending_bytes = 0;
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
                            carry = combine_pair(candidate, env, &earlier, &carry)?;
                        }
                    }
                }
                let carry = store_group(carry, &self.spill, heap_bytes, spilled)?;
                slots.push(Some(carry));
            }
        }
        Ok(None)
    }

    /// Takes back the run merged from a batch [`push`](IncrementalFold::push)
    /// handed out — on the heap, or already written to disk when the
    /// ledger had no room for it — and settles the ledger with the run's
    /// true size. Runs may be installed in any order; each lands in its
    /// batch's place in the stream.
    pub fn install(&mut self, merged: MergedRun) {
        let FoldState::Merge {
            runs, heap_bytes, ..
        } = &mut self.state
        else {
            unreachable!("only merge folds hand out batches");
        };
        if merged.charged > 0 {
            *heap_bytes = (*heap_bytes + merged.run.len()).saturating_sub(merged.charged);
        }
        runs[merged.index] = Some(merged.run);
    }

    /// Closes the fold's input: the pieces still pending become run
    /// batches, handed back to be merged ([`RunBatch::merge`]) wherever
    /// suits — each on a worker of its own — and
    /// [`install`](IncrementalFold::install)ed like those
    /// [`push`](IncrementalFold::push) cuts, so that the closing merge reads
    /// runs only. The tail is cut by bytes, at line ends — one piece may
    /// feed two batches — into batches of about a part's bytes
    /// ([`FINISH_PART_BYTES`]), a pure function of the pieces like every
    /// other cut the fold makes. Folds that are not merges, and merges with
    /// nothing pending, hand out nothing.
    pub fn seal(&mut self) -> Result<Vec<RunBatch<'a>>, EvalError> {
        self.seal_at(FINISH_PART_BYTES)
    }

    /// [`seal`](IncrementalFold::seal) with the part size as an argument
    /// (see [`plan_finish_at`](IncrementalFold::plan_finish_at)).
    fn seal_at(&mut self, part_bytes: usize) -> Result<Vec<RunBatch<'a>>, EvalError> {
        let env = self.env;
        let FoldState::Merge {
            order,
            raw,
            runs,
            pending,
            pending_bytes,
            heap_bytes,
            spilled,
            ..
        } = &mut self.state
        else {
            return Ok(Vec::new());
        };
        if pending.is_empty() {
            return Ok(Vec::new());
        }
        let order = order.clone()?;
        let batches = (*pending_bytes / part_bytes.max(1)).max(1);
        let target = pending_bytes.div_ceil(batches);
        // Batches of `target` bytes, give or take a line: a piece that
        // overfills a batch is cut at a line end — a line-aligned slice of
        // a sorted piece is sorted, and of a raw one raw — and its rest
        // starts the next. Contiguous in stream order, as `push` cuts them.
        let mut groups = vec![Vec::new()];
        let mut room = target;
        for mut piece in pending.drain(..) {
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
        *pending_bytes = 0;
        Ok(groups
            .into_iter()
            .map(|pieces| {
                let bytes = pieces.iter().map(Bytes::len).sum();
                let (charged, spill) = charge_batch(&self.spill, heap_bytes, spilled, bytes);
                runs.push(None);
                RunBatch {
                    env,
                    order,
                    raw: *raw,
                    index: runs.len() - 1,
                    pieces,
                    charged,
                    spill,
                }
            })
            .collect())
    }

    /// How many parts [`plan_finish`](IncrementalFold::plan_finish) will
    /// cut the closing merge into (before dropping any that come out
    /// empty): a pure function of the bytes folded so far. One for every
    /// fold that is not a merge.
    pub fn finish_parts(&self) -> usize {
        match &self.state {
            FoldState::Merge {
                runs,
                pending_bytes,
                ..
            } => finish_part_count(folded_bytes(runs, *pending_bytes), FINISH_PART_BYTES),
            _ => 1,
        }
    }

    /// Does everything [`finish`](IncrementalFold::finish) does except the
    /// part merges, and returns those as work to be done: merge each part
    /// ([`FinishPart::merge`]) wherever and in whatever order suits, and
    /// concatenate the outputs by [`FinishPart::index`]. Every fold that
    /// is not a merge settles here and returns its result as one finished
    /// part.
    pub fn plan_finish(self) -> Result<Vec<FinishPart<'a>>, EvalError> {
        self.plan_finish_at(FINISH_PART_BYTES)
    }

    /// [`plan_finish`](IncrementalFold::plan_finish) with the part size
    /// as an argument, so tests can cut folds of a few lines. A fold not
    /// yet [`seal`](IncrementalFold::seal)ed is sealed here, its batches
    /// merged one after the other.
    fn plan_finish_at(mut self, part_bytes: usize) -> Result<Vec<FinishPart<'a>>, EvalError> {
        for batch in self.seal_at(part_bytes)? {
            self.install(batch.merge()?);
        }
        let IncrementalFold {
            candidate,
            env,
            state,
            spill,
        } = self;
        let settled = match state {
            // Only constructed for unswapped concat: stream order is
            // output order.
            FoldState::Concat(segments) => kq_stream::concat_bytes(&segments),
            FoldState::Gather(segments) => combine_all(candidate, &segments, env)?,
            FoldState::Merge {
                order,
                count,
                runs,
                pending,
                spilled,
                ..
            } => {
                debug_assert!(pending.is_empty(), "sealed above");
                let order = order?;
                let parts = finish_part_count(folded_bytes(&runs, 0), part_bytes);
                let runs: Vec<Bytes> = runs
                    .into_iter()
                    .map(|run| run.expect("finish before every batch was installed"))
                    .collect();
                // Once a run has spilled, every part streams through a temp
                // file, so the heap never holds the merged output.
                let spill = spill.filter(|_| spilled);
                let part = |index: usize, runs: Vec<Bytes>| FinishPart {
                    index,
                    work: PartWork::Merge {
                        env,
                        order,
                        count,
                        runs,
                        spill: spill.clone(),
                    },
                };
                if parts < 2 {
                    return Ok(vec![part(0, runs)]);
                }
                let views: Vec<&[u8]> = runs.iter().map(Bytes::as_bytes).collect();
                // Searching a spilled run leaves pages all over it
                // resident: drop them as soon as each search is done, or
                // planning alone would map every run whole.
                let mut release = |r: usize| runs[r].release_range(0..runs[r].len());
                return Ok(order
                    .partition(&views, parts, &mut release)
                    .into_iter()
                    .filter(|ranges| ranges.iter().any(|r| !r.is_empty()))
                    .enumerate()
                    .map(|(index, ranges)| {
                        part(
                            index,
                            runs.iter().zip(ranges).map(|(s, r)| s.slice(r)).collect(),
                        )
                    })
                    .collect());
            }
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
                            let combined = combine_pair(candidate, env, &earlier, &later)?;
                            store_group(combined, &spill, &mut heap_bytes, &mut spilled)?
                        }
                    });
                }
                acc.unwrap_or_default()
            }
        };
        Ok(vec![FinishPart::settled(settled)])
    }

    /// Settles the fold into the combined stream (empty when nothing was
    /// pushed): [`plan_finish`](IncrementalFold::plan_finish), with every
    /// part merged here and now. The segments of the result are the parts'
    /// outputs — a merge fold that spilled never gathers them onto the
    /// heap.
    pub fn finish(self) -> Result<Rope, EvalError> {
        merge_parts(self.plan_finish()?)
    }
}

/// Merges `parts` one after the other and stitches the outputs.
fn merge_parts(parts: Vec<FinishPart<'_>>) -> Result<Rope, EvalError> {
    let outputs = parts
        .into_iter()
        .map(FinishPart::merge)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(stitch(outputs))
}

/// What one part of a fold's closing work comes to ([`FinishPart::merge`]).
pub enum PartOutput {
    /// The part's segment of the combined stream.
    Segment(Bytes),
    /// The part's lines regrouped by count, in blocks of its stream (one
    /// block in memory; under a spill budget one per window written out),
    /// for [`stitch`] to interleave with the other parts' groups.
    Regrouped(CountOrder, Vec<CountBlock>),
}

/// One block of a part regrouped by count: a line-aligned stretch of the
/// counted stream, its lines regrouped ([`CountOrder::regroup`]).
pub struct CountBlock {
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
pub fn stitch(parts: Vec<PartOutput>) -> Rope {
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

/// One independent piece of a fold's closing work, handed out by
/// [`IncrementalFold::plan_finish`]: a key range of a merge fold's runs
/// still to be merged, or — for folds that do not partition — the settled
/// result. The outputs of a fold's parts, concatenated by
/// [`index`](FinishPart::index), are the fold's combined stream.
pub struct FinishPart<'a> {
    index: usize,
    work: PartWork<'a>,
}

enum PartWork<'a> {
    Settled(Bytes),
    Merge {
        env: &'a dyn RunEnv,
        order: LineOrder,
        /// Set when the fold closes in count order: the part's output is
        /// regrouped by count.
        count: Option<CountOrder>,
        /// This part's slice of every run, in run order.
        runs: Vec<Bytes>,
        /// Set when the fold spilled: the merge streams through a temp
        /// file, releasing the run slices' pages behind its frontier.
        spill: Option<SpillConfig>,
    },
}

impl<'a> FinishPart<'a> {
    /// A finished part holding `combined`: how a fold that settles without
    /// partitioning returns its result.
    pub fn settled(combined: Bytes) -> FinishPart<'a> {
        FinishPart {
            index: 0,
            work: PartWork::Settled(combined),
        }
    }

    /// Position of this part's output in the combined stream.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Merges the part into its segment of the combined stream — or, for
    /// a fold closing in count order, into its lines regrouped by count.
    pub fn merge(self) -> Result<PartOutput, EvalError> {
        let (env, order, count, runs, spill) = match self.work {
            PartWork::Settled(combined) => return Ok(PartOutput::Segment(combined)),
            PartWork::Merge {
                env,
                order,
                count,
                runs,
                spill,
            } => (env, order, count, runs, spill),
        };
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

/// The pending pieces of a merge fold, cut at the run trigger and handed
/// back by [`IncrementalFold::push`] (or by [`IncrementalFold::seal`] when
/// the input ends) so that making them a run — a k-way merge, or for the
/// raw chunks of a [`sorting`](IncrementalFold::sorting) fold one sort —
/// happens outside whatever lock guards the fold.
pub struct RunBatch<'a> {
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

impl RunBatch<'_> {
    /// Position of this batch among the batches its fold has cut.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Makes the batch one sorted run: the merge of its sorted pieces, or
    /// the sort of its raw ones' concatenation (which joins adjacent views
    /// of one buffer, the chunks of a split, without a copy) — and writes
    /// it out and maps it back when the fold's ledger said so.
    pub fn merge(self) -> Result<MergedRun, EvalError> {
        let run = if self.raw {
            let input = kq_stream::concat_bytes(&self.pieces);
            drop(self.pieces);
            let sorted = self
                .order
                .sort_bytes(&input)
                .map_err(|e| EvalError::Command(e.to_string()))?;
            // The sort faulted in every page of a mapped batch, which the
            // split had already let go of: let go of them again.
            if input.is_mmap_backed() {
                input.release_range(0..input.len());
            }
            sorted
        } else {
            merge_pieces(self.env, self.order, &self.pieces)?
        };
        let run = match &self.spill {
            Some(cfg) => spill_run(run, cfg)?,
            None => run,
        };
        Ok(MergedRun {
            index: self.index,
            run,
            charged: self.charged,
        })
    }
}

/// A merged [`RunBatch`], to be given back with
/// [`IncrementalFold::install`].
pub struct MergedRun {
    index: usize,
    run: Bytes,
    charged: usize,
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
/// bytes charged, settled by [`IncrementalFold::install`] — and is
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

/// Moves the heap-resident pieces of `pieces` into one temp run file and
/// replaces each with its mapped (demand-paged, evictable) sub-slice.
/// Bytes and piece boundaries are preserved exactly — every replacement
/// views the byte range its heap copy occupied — so a later
/// [`combine_all`] over the list sees identical input. The raw-handle
/// fallback list of a selective composite fold routes through this once
/// its resident bytes cross the spill budget (see
/// `kq_synth::CompositeCombiner::incremental_with_spill`). Pieces already
/// mapped (from an earlier batch) and empty pieces are left alone.
/// Returns the number of bytes moved off the heap (0 means nothing was
/// resident and no file was created).
pub fn spill_piece_batch(pieces: &mut [Bytes], cfg: &SpillConfig) -> Result<usize, EvalError> {
    let mut spans: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    let mut total = 0usize;
    for (i, p) in pieces.iter().enumerate() {
        if p.is_empty() || p.is_mmap_backed() {
            continue;
        }
        spans.push((i, total..total + p.len()));
        total += p.len();
    }
    if total == 0 {
        return Ok(0);
    }
    let mut writer = kq_io::RunWriter::create(&cfg.dir).map_err(spill_err)?;
    for (i, _) in &spans {
        writer.write(pieces[*i].as_bytes()).map_err(spill_err)?;
    }
    cfg.metrics.record_spill(total as u64);
    let mapped = writer.finish().map_err(spill_err)?;
    cfg.metrics.record_mapped(mapped.len() as u64);
    for (i, span) in spans {
        pieces[i] = mapped.slice(span);
    }
    Ok(total)
}

/// The out-of-core final merge of one [`FinishPart`]: an arity-bounded
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
    /// back is merged and installed on the spot.
    fn push(fold: &mut IncrementalFold<'_>, piece: &Bytes) {
        if let Some(batch) = fold.push(piece.clone()).unwrap() {
            fold.install(batch.merge().unwrap());
        }
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
        let mut fold = IncrementalFold::new(c, env);
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

    #[test]
    fn batches_installed_out_of_arrival_order_finish_in_stream_order() {
        // Every line is its piece number under `-n`, with a tail that
        // last-resort byte order would sort the other way: only batch
        // *position* keeps key-equal lines in stream order under -nu.
        let c = Candidate::run(RunOp::Merge(vec!["-nu".to_owned()]));
        let pieces: Vec<Bytes> = (0..MERGE_RUN_ARITY * 3 + 2)
            .map(|i| Bytes::from(format!("{} piece {}\n", i % 5, 999 - i)))
            .collect();
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        let mut fold = IncrementalFold::new(&c, &FakeEnv);
        let mut batches = Vec::new();
        for p in &pieces {
            batches.extend(fold.push(p.clone()).unwrap());
        }
        let indices: Vec<usize> = batches.iter().map(RunBatch::index).collect();
        assert_eq!(indices, [0, 1, 2], "one batch per full arity of pieces");
        // Last batch back first.
        for batch in batches.into_iter().rev() {
            fold.install(batch.merge().unwrap());
        }
        assert_eq!(fold.finish().unwrap().into_bytes(), flat);
    }

    #[test]
    fn an_unparsable_merge_flag_fails_the_fold_not_the_constructor() {
        let c = Candidate::run(RunOp::Merge(vec!["-Z".to_owned()]));
        let mut fold = IncrementalFold::new(&c, &FakeEnv);
        for _ in 0..MERGE_RUN_ARITY - 1 {
            assert!(fold.push(Bytes::from("a\n")).unwrap().is_none());
        }
        assert!(fold.push(Bytes::from("a\n")).is_err());
        let fold = IncrementalFold::new(&c, &FakeEnv);
        assert!(fold.finish().is_err());
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
        assert_eq!(incremental(&c, &[], &NoRunEnv), "");
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
            let mut fold = IncrementalFold::new_with_spill(&c, &FakeEnv, Some(cfg.clone()));
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
            let mut fold = IncrementalFold::new_with_spill(&c, &FakeEnv, Some(cfg.clone()));
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
            let mut fold = IncrementalFold::new_with_spill(&c, &NoRunEnv, Some(cfg.clone()));
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
            let mut fold = IncrementalFold::new_with_spill(&c, &NoRunEnv, Some(cfg.clone()));
            for p in &pieces {
                push(&mut fold, p);
            }
            assert_eq!(fold.finish().unwrap().into_bytes(), flat);
            assert_eq!(cfg.metrics.snapshot(), (0, 0, 0), "no spill under budget");
        });
    }

    #[test]
    fn spill_piece_batch_preserves_bytes_and_boundaries() {
        with_spill_dir("batch", 0, |cfg| {
            let originals = ["alpha\n", "", "beta\nbeta2\n", "gamma\n"];
            let mut pieces: Vec<Bytes> = originals.iter().copied().map(Bytes::from).collect();
            let moved = spill_piece_batch(&mut pieces, cfg).unwrap();
            assert_eq!(
                moved,
                originals.iter().map(|s| s.len()).sum::<usize>(),
                "every non-empty heap piece moves"
            );
            for (piece, original) in pieces.iter().zip(originals) {
                assert_eq!(piece, original);
                assert_eq!(piece.is_mmap_backed(), !original.is_empty());
            }
            let (runs, written, mapped) = cfg.metrics.snapshot();
            assert_eq!(runs, 1, "one batch file, not one per piece");
            assert_eq!(written, moved as u64);
            assert_eq!(mapped, moved as u64);
            // A second batch over already-mapped pieces is a no-op.
            assert_eq!(spill_piece_batch(&mut pieces, cfg).unwrap(), 0);
            assert_eq!(cfg.metrics.snapshot().0, 1);
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
            let mut fold = IncrementalFold::new_with_spill(&c, &env, Some(cfg.clone()));
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
            let mut fold = IncrementalFold::new_with_spill(&c, &FakeEnv, Some(cfg.clone()));
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
            let mut fold = IncrementalFold::new_with_spill(&c, &FakeEnv, Some(cfg.clone()));
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
                        let mut fold = IncrementalFold::new_with_spill(&c, &FakeEnv, spill);
                        for p in &pieces {
                            push(&mut fold, p);
                        }
                        let parts = fold.plan_finish_at(part_bytes).unwrap();
                        // `-u` runs are smaller than the pieces they merged.
                        let at_most = finish_part_count(total, part_bytes);
                        assert!((1..=at_most).contains(&parts.len()));
                        if part_bytes <= 40 {
                            assert!(parts.len() > 2, "{flags:?}: the fold must cut");
                        }
                        let indices: Vec<usize> = parts.iter().map(FinishPart::index).collect();
                        assert_eq!(indices, (0..parts.len()).collect::<Vec<_>>());
                        let got = merge_parts(parts).unwrap().into_bytes();
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
                        let mut fold = IncrementalFold::merging(&c, order, &env, spill);
                        for p in &pieces {
                            push(&mut fold, p);
                        }
                        let parts = fold.plan_finish_at(part_bytes).unwrap();
                        if part_bytes <= 40 {
                            assert!(parts.len() > 2, "{sort} | {uniq}: the fold must cut");
                        }
                        let got = merge_parts(parts).unwrap().into_bytes();
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
                            let mut fold = IncrementalFold::counting(&c, order, count, &env, spill);
                            for p in &pieces {
                                push(&mut fold, p);
                            }
                            let parts = fold.plan_finish_at(part_bytes).unwrap();
                            if part_bytes <= 40 {
                                assert!(parts.len() > 2, "{sort} | uniq -c: the fold must cut");
                            }
                            let got = merge_parts(parts).unwrap().into_bytes();
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
                                let mut fold = IncrementalFold::sorting(&c, order, &env, spill);
                                for p in chunks {
                                    push(&mut fold, p);
                                }
                                let parts = fold.plan_finish_at(part_bytes).unwrap();
                                let got = merge_parts(parts).unwrap().into_bytes();
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
        let mut sorting = IncrementalFold::sorting(&c, order, &FakeEnv, None);
        let mut merging = IncrementalFold::new(&c, &FakeEnv);
        for i in 1..=MERGE_RUN_ARITY {
            let raw_cut = sorting.push(piece.clone()).unwrap().is_some();
            let merge_cut = merging.push(piece.clone()).unwrap().is_some();
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
        let mut fold = IncrementalFold::sorting(&c, order, &FakeEnv, None);
        for chunk in mapped.chunks(64 << 10) {
            push(&mut fold, &chunk);
        }
        for batch in fold.seal().unwrap() {
            fold.install(batch.merge().unwrap());
        }
        let resident = mapping_rss_kib(mapped.as_bytes().as_ptr() as usize);
        let file_kib = mapped.len() / 1024;
        assert!(
            resident < file_kib / 2,
            "{resident} KiB of the {file_kib} KiB file still resident after sorting"
        );
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
        let mut fold = IncrementalFold::sorting(&c, order, &FakeEnv, None);
        for p in &pieces {
            assert!(fold.push(p.clone()).unwrap().is_none());
        }
        let batches = fold.seal_at(total / 3).unwrap();
        assert_eq!(batches.len(), 3);
        let indices: Vec<usize> = batches.iter().map(RunBatch::index).collect();
        assert_eq!(indices, [0, 1, 2]);
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
        // Sealed: nothing is left to hand out.
        assert!(fold.seal_at(total / 3).unwrap().is_empty());
        // Below a part's bytes, the tail is one batch, raw or sorted.
        for raw in [true, false] {
            let mut fold = if raw {
                IncrementalFold::sorting(&c, order, &FakeEnv, None)
            } else {
                IncrementalFold::new(&c, &FakeEnv)
            };
            pieces.iter().for_each(|p| push(&mut fold, p));
            assert_eq!(fold.seal().unwrap().len(), 1);
        }
        // Nothing pending, or no merge: nothing to hand out.
        assert!(IncrementalFold::sorting(&c, order, &FakeEnv, None)
            .seal()
            .unwrap()
            .is_empty());
        let cat = Candidate::rec(RecOp::Concat);
        let mut concat = IncrementalFold::new(&cat, &NoRunEnv);
        push(&mut concat, &pieces[0]);
        assert!(concat.seal().unwrap().is_empty());
    }

    #[test]
    fn parts_merged_out_of_order_concatenate_by_index() {
        let c = merge_candidate("-nu");
        let pieces = keyed_pieces("-nu", MERGE_RUN_ARITY + 7, 12);
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        let mut fold = IncrementalFold::new(&c, &FakeEnv);
        for p in &pieces {
            push(&mut fold, p);
        }
        let parts = fold.plan_finish_at(64).unwrap();
        let mut slots: Vec<Option<PartOutput>> = (0..parts.len()).map(|_| None).collect();
        for part in parts.into_iter().rev() {
            let index = part.index();
            slots[index] = Some(part.merge().unwrap());
        }
        assert_eq!(
            stitch(slots.into_iter().flatten().collect()).into_bytes(),
            flat
        );
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
        // A fold of KBs plans one part — the flat merge — and folds that
        // are not merges settle in planning.
        let c = merge_candidate("");
        let pieces = spill_pieces(MERGE_RUN_ARITY + 3);
        let mut fold = IncrementalFold::new(&c, &FakeEnv);
        for p in &pieces {
            push(&mut fold, p);
        }
        assert_eq!(fold.finish_parts(), 1);
        assert_eq!(fold.plan_finish().unwrap().len(), 1);
        let concat = Candidate::rec(RecOp::Concat);
        let mut fold = IncrementalFold::new(&concat, &NoRunEnv);
        push(&mut fold, &Bytes::from("a\n"));
        push(&mut fold, &Bytes::from("b\n"));
        assert_eq!(fold.finish_parts(), 1);
        let parts = fold.plan_finish().unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(merge_parts(parts).unwrap().into_bytes(), "a\nb\n");
    }

    #[test]
    fn a_spilled_fold_writes_one_file_per_part_and_says_so() {
        let c = merge_candidate("");
        let pieces = keyed_pieces("", MERGE_RUN_ARITY, 9);
        let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
        with_spill_dir("part-files", 0, |cfg| {
            let mut fold = IncrementalFold::new_with_spill(&c, &FakeEnv, Some(cfg.clone()));
            for p in &pieces {
                push(&mut fold, p);
            }
            let (runs_before, ..) = cfg.metrics.snapshot();
            let parts = fold.plan_finish_at(200).unwrap();
            let cut = parts.len() as u64;
            assert!(cut > 2);
            let rope = merge_parts(parts).unwrap();
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
            let flat = combine_all(&c, &pieces, &FakeEnv).unwrap();
            let dir = std::env::temp_dir().join(format!("kq-kway-prop-{}", std::process::id()));
            let cfg = crate::spill::SpillConfig {
                budget_bytes: 0,
                workers: 1,
                dir: dir.clone(),
                metrics: std::sync::Arc::new(crate::spill::SpillMetrics::default()),
            };
            let mut fold = IncrementalFold::new_with_spill(&c, &FakeEnv, Some(cfg));
            for p in &pieces {
                push(&mut fold, p);
            }
            let got = fold.finish().unwrap().into_bytes();
            std::fs::remove_dir_all(&dir).ok();
            proptest::prop_assert_eq!(got, flat);
        }
    }
}
