//! Post-processing of the plausible set (paper §3.2, "Multiple Plausible
//! Combiners").
//!
//! When synthesis returns several plausible combiners, KumQuat keeps the
//! highest-priority class present (RecOp ⊐ StructOp ⊐ RunOp) and builds a
//! *composite* combiner: given arguments, apply the first member whose
//! legal domain contains them. When some member's domain is universal
//! (`concat`/`first`/`second`), that member alone suffices — its domain is
//! a superset of every other member's.

use kq_coreutils::sort::{CountOrder, LineOrder};
use kq_dsl::ast::{Candidate, Combiner, RecOp, RunOp};
use kq_dsl::eval::{EvalError, RunEnv};
use kq_dsl::{domain, kway};
use kq_stream::{Bytes, Rope};

/// The synthesis product: an executable combiner built from the plausible
/// set, plus the metadata the benchmark tables report.
#[derive(Debug, Clone)]
pub struct SynthesizedCombiner {
    /// The members of the composite, in application order.
    pub members: Vec<Candidate>,
    /// Every plausible combiner that survived filtering (for reporting;
    /// superset of `members`).
    pub plausible: Vec<Candidate>,
}

impl SynthesizedCombiner {
    /// Builds the composite from the full plausible set. Panics when the
    /// set is empty — callers handle the "no combiner" case beforehand.
    pub fn from_plausible(plausible: Vec<Candidate>) -> SynthesizedCombiner {
        assert!(!plausible.is_empty(), "no plausible combiners");
        let best_class = plausible
            .iter()
            .map(|c| c.op.class())
            .min()
            .expect("non-empty");
        let mut members: Vec<Candidate> = plausible
            .iter()
            .filter(|c| c.op.class() == best_class)
            .cloned()
            .collect();
        // Within RunOp, prefer merge over rerun: both are plausible for
        // sorting commands, but merge is a single k-way interleave while
        // rerun re-executes the command on the whole concatenation.
        members.sort_by_key(|c| matches!(c.op, Combiner::Run(kq_dsl::ast::RunOp::Rerun)) as u8);
        // Domain-superset reduction: a universal-domain member subsumes the
        // rest of its class.
        if let Some(universal) = members.iter().position(|c| {
            matches!(
                c.op,
                Combiner::Rec(RecOp::Concat)
                    | Combiner::Rec(RecOp::First)
                    | Combiner::Rec(RecOp::Second)
            )
        }) {
            members = vec![members[universal].clone()];
        }
        SynthesizedCombiner { members, plausible }
    }

    /// The representative combiner used for planning decisions (e.g. the
    /// Theorem 5 elimination test and the rerun-cost heuristic).
    pub fn primary(&self) -> &Candidate {
        &self.members[0]
    }

    /// True when the composite is plain concatenation, making the combiner
    /// eligible for intermediate elimination (Theorem 5).
    pub fn is_concat(&self) -> bool {
        self.members.len() == 1 && self.primary().op.is_concat() && !self.primary().swapped
    }

    /// True when the composite requires re-running the command.
    pub fn is_rerun(&self) -> bool {
        self.members
            .iter()
            .all(|c| matches!(c.op, Combiner::Run(kq_dsl::ast::RunOp::Rerun)))
    }

    /// The line order of the `merge <flags>` this composite folds with —
    /// `None` when its primary is anything but a `merge` whose flags parse.
    /// A planner that fuses a `sort` with the stage after it asks here
    /// whether the sort merges, and under which order.
    pub fn merge_order(&self) -> Option<LineOrder> {
        match &self.primary().op {
            Combiner::Run(RunOp::Merge(flags)) => kq_dsl::eval::merge_order(flags).ok(),
            _ => None,
        }
    }

    /// Combines two streams: the first member whose domain admits both
    /// arguments is applied (the composite rule of §3.2).
    pub fn combine2(&self, y1: &[u8], y2: &[u8], env: &dyn RunEnv) -> Result<Bytes, EvalError> {
        for member in &self.members {
            let (a, b) = member.oriented(y1, y2);
            if domain::in_domain(&member.op, a) && domain::in_domain(&member.op, b) {
                return kq_dsl::eval::eval(&member.op, a, b, env);
            }
        }
        // Fall back to the last member's evaluation error for diagnostics.
        let last = self.members.last().expect("non-empty");
        let (a, b) = last.oriented(y1, y2);
        kq_dsl::eval::eval(&last.op, a, b, env)
    }

    /// Combines `k` parallel substreams (paper §3.5): the first member
    /// whose domain admits all pieces is applied k-way. Pieces flow as
    /// refcounted [`Bytes`] slices; the domain checks borrow the piece
    /// bytes in place.
    pub fn combine_all(&self, pieces: &[Bytes], env: &dyn RunEnv) -> Result<Bytes, EvalError> {
        for member in &self.members {
            if pieces
                .iter()
                .filter(|p| !p.is_empty())
                .all(|p| domain::in_domain(&member.op, p.as_bytes()))
            {
                return kway::combine_all(member, pieces, env);
            }
        }
        kway::combine_all(self.members.last().expect("non-empty"), pieces, env)
    }

    /// Starts an incremental k-way combine: substreams are folded as they
    /// arrive (see [`kway::IncrementalFold`]) instead of being gathered
    /// first, so combine work overlaps with whatever produces the pieces.
    ///
    /// The fold commits to the primary member (the one
    /// [`combine_all`](Self::combine_all) picks for well-formed adjacent
    /// substreams). Whether raw piece *handles* are retained for a
    /// gather-first fallback depends on whether that commitment can ever
    /// be wrong:
    ///
    /// * **authoritative** — a single-member composite, or a primary
    ///   whose legal domain is universal ([`kq_dsl::domain::is_universal`]:
    ///   `concat`/`first`/`second`/`merge`/`rerun`). The composite's
    ///   first-member-whose-domain-admits-all-pieces rule selects the
    ///   primary for *every* piece list, so no other member can ever be
    ///   chosen: pieces fold in and their handles drop immediately. A
    ///   `sort` barrier (primary `merge`) thus frees each chunk output as
    ///   soon as it is folded into a run instead of pinning the stage's
    ///   whole output until `finish` — the memory win the out-of-core CI
    ///   job asserts. A fold error on this path is final (the fallback
    ///   would re-evaluate the very same member over the same pieces);
    /// * **selective** — a multi-member composite with a restricted
    ///   primary domain (`wc -l`'s `[back add, fuse add]`, `uniq -c`'s
    ///   stitches). An out-of-domain piece must switch members, which
    ///   requires every raw piece, so handles are retained and
    ///   [`IncrementalCombine::finish`] falls back to
    ///   [`combine_all`](Self::combine_all) when the speculation is
    ///   abandoned. These combiners certify aggregated (tiny) outputs, so
    ///   the retention is bytes-cheap.
    pub fn incremental<'a>(&'a self, env: &'a dyn RunEnv) -> IncrementalCombine<'a> {
        self.incremental_with_spill(env, None)
    }

    /// [`incremental`](Self::incremental) with an optional spill config:
    /// the primary member's fold honors the budget and temp-file policy of
    /// [`kq_dsl::spill`] (budget-sized merge runs, budget-accounted
    /// counter slots — see [`kway::IncrementalFold::new_with_spill`]), and
    /// on the selective path the retained raw handles are themselves
    /// budget-bounded: once their resident bytes cross the budget's share
    /// for resident runs ([`kq_dsl::SpillConfig::run_budget`]) the
    /// whole list is batch-spilled to one temp file and re-pointed at
    /// mapped slices ([`kway::spill_piece_batch`]), so even the
    /// gather-first fallback cannot pin O(output) heap.
    pub fn incremental_with_spill<'a>(
        &'a self,
        env: &'a dyn RunEnv,
        spill: Option<kq_dsl::SpillConfig>,
    ) -> IncrementalCombine<'a> {
        let fold = kway::IncrementalFold::new_with_spill(self.primary(), env, spill.clone());
        self.incremental_over(fold, env, spill)
    }

    /// The incremental combine of a composite whose primary is `merge`
    /// ([`merge_order`](Self::merge_order) is `Some`), merging under
    /// `order` instead: see [`kway::IncrementalFold::merging`]. `merge`'s
    /// domain is universal, so this is the authoritative path — pieces fold
    /// in and their handles drop.
    pub fn incremental_merging<'a>(
        &'a self,
        order: LineOrder,
        env: &'a dyn RunEnv,
        spill: Option<kq_dsl::SpillConfig>,
    ) -> IncrementalCombine<'a> {
        let fold = kway::IncrementalFold::merging(self.primary(), order, env, spill);
        self.incremental_over(fold, env, None)
    }

    /// [`incremental_merging`](Self::incremental_merging) of a counting
    /// pair's fold whose closing merge regroups its output into `count`
    /// order — the fold of `sort | uniq -c | sort -rn` as one node
    /// ([`kway::IncrementalFold::counting`]).
    pub fn incremental_counting<'a>(
        &'a self,
        order: LineOrder,
        count: CountOrder,
        env: &'a dyn RunEnv,
        spill: Option<kq_dsl::SpillConfig>,
    ) -> IncrementalCombine<'a> {
        let fold = kway::IncrementalFold::counting(self.primary(), order, count, env, spill);
        self.incremental_over(fold, env, None)
    }

    /// The incremental combine of a `sort` stage fed its raw input chunks
    /// instead of their sorted outputs, merging under `order` — the fold
    /// of the sorting rewrite ([`kway::IncrementalFold::sorting`]).
    /// Authoritative like [`incremental_merging`](Self::incremental_merging).
    pub fn incremental_sorting<'a>(
        &'a self,
        order: LineOrder,
        env: &'a dyn RunEnv,
        spill: Option<kq_dsl::SpillConfig>,
    ) -> IncrementalCombine<'a> {
        let fold = kway::IncrementalFold::sorting(self.primary(), order, env, spill);
        self.incremental_over(fold, env, None)
    }

    /// An incremental combine speculating on `fold`, a fold of the primary
    /// member; `raw_spill` bounds the raw handles of the selective path.
    fn incremental_over<'a>(
        &'a self,
        fold: kway::IncrementalFold<'a>,
        env: &'a dyn RunEnv,
        raw_spill: Option<kq_dsl::SpillConfig>,
    ) -> IncrementalCombine<'a> {
        let authoritative =
            self.members.len() == 1 || kq_dsl::domain::is_universal(&self.primary().op);
        IncrementalCombine {
            combiner: self,
            env,
            raw: (!authoritative).then(Vec::new),
            raw_spill: raw_spill.filter(|_| !authoritative),
            raw_heap_bytes: 0,
            fed: false,
            fold: Some(fold),
            failed: None,
        }
    }
}

/// Incremental combining over a [`SynthesizedCombiner`] (see
/// [`SynthesizedCombiner::incremental`]).
pub struct IncrementalCombine<'a> {
    combiner: &'a SynthesizedCombiner,
    env: &'a dyn RunEnv,
    /// Raw piece handles for the gather-first fallback — `Some` only on
    /// the *selective* path (a non-primary member could still be chosen;
    /// see [`SynthesizedCombiner::incremental`]). `None` on the
    /// authoritative path: each piece's handle drops as soon as the fold
    /// has consumed it, so a barrier stage's already-combined chunk
    /// outputs are freed instead of pinned until `finish`.
    raw: Option<Vec<Bytes>>,
    /// Spill config for the raw list (selective path only): when the
    /// heap-resident raw bytes (`raw_heap_bytes`) cross the budget, the
    /// list is batch-spilled and its entries become mapped slices.
    raw_spill: Option<kq_dsl::SpillConfig>,
    /// Heap-resident bytes currently in `raw` (mapped entries excluded).
    raw_heap_bytes: usize,
    /// A non-empty piece has been pushed.
    fed: bool,
    /// The primary-member fold; `None` after the speculation (selective
    /// path) or the fold itself (authoritative path) failed.
    fold: Option<kway::IncrementalFold<'a>>,
    /// The first fold error on the authoritative path, surfaced by
    /// [`finish`](Self::finish) — with no raw handles there is no
    /// fallback, and none is needed: the fallback would re-evaluate the
    /// same (unconditionally selected) member over the same pieces.
    failed: Option<EvalError>,
}

impl<'a> IncrementalCombine<'a> {
    /// Folds in the next substream. Never fails: an error either defers
    /// to [`finish`](Self::finish) (authoritative path) or disables the
    /// speculation so `finish` takes the gather-first fallback
    /// (selective path).
    ///
    /// A `merge` fold whose pending pieces reached the run trigger hands
    /// them back as a batch instead of merging them here (see
    /// [`kway::IncrementalFold::push`]): merge it wherever no lock on this
    /// combine is held and give the outcome to
    /// [`install`](Self::install).
    pub fn push(&mut self, piece: Bytes) -> Option<kway::RunBatch<'a>> {
        self.fed |= !piece.is_empty();
        let mut batch = None;
        match &mut self.raw {
            None => {
                // Authoritative: the primary is combine_all's selection
                // for any piece list; fold and drop the handle.
                if let Some(fold) = &mut self.fold {
                    match fold.push(piece) {
                        Ok(cut) => batch = cut,
                        Err(e) => self.fail(e),
                    }
                }
            }
            Some(raw) => {
                if let Some(fold) = &mut self.fold {
                    // Committing to the primary member is sound only under
                    // the condition
                    // [`combine_all`](SynthesizedCombiner::combine_all)
                    // would select it: every piece lies in its legal
                    // domain. An out-of-domain piece might still
                    // *evaluate* cleanly at the boundaries the fold
                    // touches while the composite would have chosen
                    // another member — so the domain check, not
                    // evaluation success, gates the speculation.
                    let primary = self.combiner.primary();
                    let admissible =
                        piece.is_empty() || domain::in_domain(&primary.op, piece.as_bytes());
                    let cut = admissible.then(|| fold.push(piece.clone()).ok()).flatten();
                    match cut {
                        Some(cut) => batch = cut,
                        None => self.fold = None,
                    }
                }
                let resident = if piece.is_empty() || piece.is_mmap_backed() {
                    0
                } else {
                    piece.len()
                };
                raw.push(piece);
                if let Some(cfg) = &self.raw_spill {
                    self.raw_heap_bytes += resident;
                    if self.raw_heap_bytes > cfg.run_budget() {
                        // Best-effort: push cannot fail, so an IO error
                        // simply leaves the heap copies in place (finish
                        // still works; only the memory bound is lost).
                        if kway::spill_piece_batch(raw, cfg).is_ok() {
                            self.raw_heap_bytes = 0;
                        }
                    }
                }
            }
        }
        batch
    }

    /// Takes back the outcome of merging a batch [`push`](Self::push)
    /// handed out. A failed merge fails the combine the way a failed push
    /// does.
    pub fn install(&mut self, merged: Result<kway::MergedRun, EvalError>) {
        let Some(fold) = &mut self.fold else {
            return;
        };
        match merged {
            Ok(run) => fold.install(run),
            Err(e) => self.fail(e),
        }
    }

    /// Closes the input: the pieces a `merge` fold still holds come back
    /// as run batches (see [`kway::IncrementalFold::seal`]), to be merged
    /// and [`install`](Self::install)ed before
    /// [`plan_finish`](Self::plan_finish). Nothing comes back from any other
    /// combine.
    pub fn seal(&mut self) -> Vec<kway::RunBatch<'a>> {
        if self.raw.is_some() {
            return Vec::new();
        }
        let Some(fold) = &mut self.fold else {
            return Vec::new();
        };
        match fold.seal() {
            Ok(cut) => cut,
            Err(e) => {
                self.fail(e);
                Vec::new()
            }
        }
    }

    /// [`push`](Self::push), with a batch it hands back merged and
    /// installed before returning: how a test that owns the fold feeds it.
    #[cfg(test)]
    fn push_inline(&mut self, piece: Bytes) {
        if let Some(batch) = self.push(piece) {
            self.install(batch.merge());
        }
    }

    /// Gives up on the primary-member fold: the error is final on the
    /// authoritative path, and the gather-first fallback takes over on the
    /// selective one.
    fn fail(&mut self, e: EvalError) {
        self.fold = None;
        if self.raw.is_none() {
            self.failed = Some(e);
        }
    }

    /// Number of raw piece handles currently retained for the
    /// gather-first fallback: always `0` on the authoritative path (a
    /// fold does not pin the pieces it has merged), the pushed piece count
    /// on the selective path.
    pub fn retained_handles(&self) -> usize {
        self.raw.as_ref().map_or(0, Vec::len)
    }

    /// How many parts [`plan_finish`](Self::plan_finish) will cut the
    /// closing work into (see [`kway::IncrementalFold::finish_parts`]):
    /// more than one only for a live authoritative `merge` fold that has
    /// accumulated enough bytes.
    pub fn finish_parts(&self) -> usize {
        match (&self.raw, &self.fold) {
            (None, Some(fold)) if self.fed => fold.finish_parts(),
            _ => 1,
        }
    }

    /// Everything [`finish`](Self::finish) does short of merging the
    /// parts of a `merge` fold's closing merge, which come back as work
    /// (see [`kway::IncrementalFold::plan_finish`]): merge each wherever no
    /// lock on the combine's owner is held and concatenate the outputs by
    /// part index. Every other combine settles here and returns one
    /// finished part.
    ///
    /// A combine that was fed nothing — no piece at all, or only empty
    /// ones, as when an upstream `grep` matched no line — is the command
    /// run on the empty stream: `wc -l` still owes its `0`. (Skipping
    /// empty pieces is only sound next to a non-empty one.)
    pub fn plan_finish(self) -> Result<Vec<kway::FinishPart<'a>>, EvalError> {
        let settled = if !self.fed {
            self.env.rerun(Bytes::new())?
        } else {
            match self.raw {
                None => match (self.fold, self.failed) {
                    (Some(fold), None) => return fold.plan_finish(),
                    (_, Some(e)) => return Err(e),
                    (None, None) => unreachable!("fold disabled without a recorded error"),
                },
                // Selective: the primary is never `merge` (its domain is
                // universal), so there is nothing to hand out, and a
                // failed speculation needs every raw piece at once.
                Some(raw) => match self.fold.map(kway::IncrementalFold::finish) {
                    Some(Ok(combined)) => combined.into_bytes(),
                    _ => self.combiner.combine_all(&raw, self.env)?,
                },
            }
        };
        Ok(vec![kway::FinishPart::settled(settled)])
    }

    /// Settles into the combined stream: [`plan_finish`](Self::plan_finish)
    /// with every part merged here, one after the other. The result's
    /// segments are the parts' outputs.
    pub fn finish(self) -> Result<Rope, EvalError> {
        let parts = self
            .plan_finish()?
            .into_iter()
            .map(kway::FinishPart::merge)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(kway::stitch(parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kq_dsl::ast::StructOp;
    use kq_dsl::eval::NoRunEnv;
    use kq_stream::Delim;

    #[test]
    fn class_priority_prefers_rec_ops() {
        let plausible = vec![
            Candidate::run(RunOp::Rerun),
            Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
            Candidate::structural(StructOp::Stitch(RecOp::First)),
        ];
        let s = SynthesizedCombiner::from_plausible(plausible);
        assert_eq!(s.members.len(), 1);
        assert!(matches!(s.primary().op, Combiner::Rec(RecOp::Back(..))));
    }

    #[test]
    fn universal_domain_member_subsumes() {
        let plausible = vec![
            Candidate::rec(RecOp::Concat),
            Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Concat))),
        ];
        let s = SynthesizedCombiner::from_plausible(plausible);
        assert_eq!(s.members.len(), 1);
        assert!(s.is_concat());
    }

    #[test]
    fn composite_falls_through_by_domain() {
        // (back '\n' add) applies to count streams; first handles the rest.
        let plausible = vec![
            Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
            Candidate::rec(RecOp::Fuse(Delim::Newline, Box::new(RecOp::Add))),
        ];
        let s = SynthesizedCombiner::from_plausible(plausible);
        assert_eq!(s.members.len(), 2);
        assert_eq!(s.combine2(b"3\n", b"4\n", &NoRunEnv).unwrap(), "7\n");
    }

    #[test]
    fn rerun_detection() {
        let s = SynthesizedCombiner::from_plausible(vec![Candidate::run(RunOp::Rerun)]);
        assert!(s.is_rerun());
        assert!(!s.is_concat());
    }

    #[test]
    fn swapped_concat_is_not_theorem5_eligible() {
        let s = SynthesizedCombiner::from_plausible(vec![Candidate {
            op: Combiner::Rec(RecOp::Concat),
            swapped: true,
        }]);
        assert!(!s.is_concat());
    }

    #[test]
    fn authoritative_incremental_folds_retain_no_handles() {
        use kq_dsl::eval::{EvalError, RunEnv};
        struct MergeEnv;
        impl RunEnv for MergeEnv {
            fn rerun(&self, input: Bytes) -> Result<Bytes, EvalError> {
                Ok(input)
            }
            fn merge(
                &self,
                order: kq_coreutils::sort::LineOrder,
                streams: &[&[u8]],
            ) -> Result<Bytes, EvalError> {
                Ok(Bytes::from(order.merge(streams)))
            }
        }
        // A sort-shaped composite: [merge, rerun] — multi-member, but the
        // primary's domain is universal, so the primary is always
        // selected and no fallback handles may be kept.
        let s = SynthesizedCombiner::from_plausible(vec![
            Candidate::run(RunOp::Merge(vec![])),
            Candidate::run(RunOp::Rerun),
        ]);
        let pieces: Vec<Bytes> = ["b\nd\n", "a\nc\n", "e\n"]
            .iter()
            .map(|p| Bytes::from(*p))
            .collect();
        let mut inc = s.incremental(&MergeEnv);
        for p in &pieces {
            inc.push_inline(p.clone());
            assert_eq!(inc.retained_handles(), 0, "merge path must not pin pieces");
        }
        let expect = s.combine_all(&pieces, &MergeEnv).unwrap();
        assert_eq!(inc.finish().unwrap().into_bytes(), expect);
        // Single-member composites are authoritative whatever the domain.
        let s = SynthesizedCombiner::from_plausible(vec![Candidate::structural(StructOp::Stitch(
            RecOp::First,
        ))]);
        let mut inc = s.incremental(&NoRunEnv);
        inc.push_inline(Bytes::from("a\nb\n"));
        inc.push_inline(Bytes::from("b\nc\n"));
        assert_eq!(inc.retained_handles(), 0);
        assert_eq!(inc.finish().unwrap().into_bytes(), "a\nb\nc\n");
    }

    #[test]
    fn selective_incremental_folds_keep_the_fallback() {
        // wc -l-shaped composite: [back add, fuse add] — restricted
        // primary domain, so an out-of-domain piece must be able to
        // switch members over the full raw piece list.
        let s = SynthesizedCombiner::from_plausible(vec![
            Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
            Candidate::rec(RecOp::Fuse(Delim::Newline, Box::new(RecOp::Add))),
        ]);
        let pieces = vec![Bytes::from("3\n"), Bytes::from("4\n"), Bytes::from("5\n")];
        let mut inc = s.incremental(&NoRunEnv);
        for p in &pieces {
            inc.push_inline(p.clone());
        }
        assert_eq!(inc.retained_handles(), pieces.len());
        assert_eq!(inc.finish().unwrap().into_bytes(), "12\n");
        // Pieces outside the primary's domain but inside the second
        // member's ("3\n4" has no trailing newline, so `back` rejects it
        // while `fuse` admits it): the speculation is abandoned and the
        // fallback must reproduce combine_all's member switch.
        let odd = vec![Bytes::from("3\n4"), Bytes::from("5\n6")];
        let expect = s.combine_all(&odd, &NoRunEnv).unwrap();
        let mut inc = s.incremental(&NoRunEnv);
        for p in &odd {
            inc.push_inline(p.clone());
        }
        assert_eq!(inc.finish().unwrap().into_bytes(), expect);
    }

    #[test]
    fn selective_raw_handles_spill_under_budget() {
        // A selective composite retains every raw piece for the
        // gather-first fallback; under a zero budget those handles must be
        // batch-spilled to mapped slices rather than pinned on the heap —
        // and both finish paths (fold speculation, fallback over mapped
        // pieces) must still produce combine_all's answer.
        let s = SynthesizedCombiner::from_plausible(vec![
            Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
            Candidate::rec(RecOp::Fuse(Delim::Newline, Box::new(RecOp::Add))),
        ]);
        let dir = std::env::temp_dir().join(format!("kq-composite-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = kq_dsl::SpillConfig {
            budget_bytes: 0,
            workers: 1,
            dir: dir.clone(),
            metrics: std::sync::Arc::new(kq_dsl::SpillMetrics::default()),
        };
        // "3\n4" is outside the primary's domain: the fallback over the
        // (by then mapped) raw list is what settles the result.
        let odd = vec![
            Bytes::from("3\n4"),
            Bytes::from("5\n6"),
            Bytes::from("7\n8"),
        ];
        let expect = s.combine_all(&odd, &NoRunEnv).unwrap();
        let mut inc = s.incremental_with_spill(&NoRunEnv, Some(cfg.clone()));
        for p in &odd {
            inc.push_inline(p.clone());
        }
        assert_eq!(inc.retained_handles(), odd.len(), "handles stay retained");
        assert_eq!(inc.finish().unwrap().into_bytes(), expect);
        let (runs, written, _) = cfg.metrics.snapshot();
        assert!(runs > 0, "raw handles must batch-spill at budget 0");
        assert!(written > 0);
        let leftovers = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(leftovers, 0, "spill dir must be clean after the combine");
    }

    #[test]
    fn a_combine_fed_nothing_is_the_command_on_the_empty_stream() {
        let wc = kq_coreutils::parse_command("wc -l").unwrap();
        let ctx = kq_coreutils::ExecContext::default();
        let env = kq_dsl::CommandEnv {
            command: &wc,
            ctx: &ctx,
        };
        let s = SynthesizedCombiner::from_plausible(vec![
            Candidate::rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add))),
            Candidate::rec(RecOp::Fuse(Delim::Newline, Box::new(RecOp::Add))),
        ]);
        assert_eq!(s.incremental(&env).finish().unwrap().into_bytes(), "0\n");
        let mut inc = s.incremental(&env);
        inc.push_inline(Bytes::new());
        inc.push_inline(Bytes::new());
        assert_eq!(inc.finish().unwrap().into_bytes(), "0\n");
        let mut inc = s.incremental(&env);
        inc.push_inline(Bytes::new());
        inc.push_inline(Bytes::from("3\n"));
        assert_eq!(inc.finish().unwrap().into_bytes(), "3\n");
    }

    #[test]
    fn kway_combination_via_members() {
        let s = SynthesizedCombiner::from_plausible(vec![Candidate::structural(StructOp::Stitch(
            RecOp::First,
        ))]);
        let pieces = vec![
            Bytes::from("a\nb\n"),
            Bytes::from("b\nc\n"),
            Bytes::from("d\n"),
        ];
        assert_eq!(s.combine_all(&pieces, &NoRunEnv).unwrap(), "a\nb\nc\nd\n");
    }
}
