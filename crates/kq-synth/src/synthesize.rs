//! The core synthesis loop: Algorithm 1 (`Synthesize`) driving Algorithm 2
//! (`GetEffectiveInputs`).
//!
//! Each round generates a fresh random seed shape, hill-climbs it through
//! the twelve mutations — scoring each mutation by how many candidates its
//! generated inputs eliminate — and filters the surviving candidate set
//! against every observation collected along the way. The loop stops when
//! a round eliminates nothing `stall_rounds` times in succession (the
//! paper's `MakingProgress`), or when the candidate set empties (no
//! combiner exists — Table 9).
//!
//! # Staged rounds and parallelism
//!
//! The candidate set is never materialised. `alive` is a sorted list of
//! candidate ids into a [`CandidateSpace`] ("every id" until the first
//! observation arrives), and each gradient step runs in four phases:
//!
//! 1. **generate** (serial, RNG): input pairs for all twelve mutations, in
//!    the exact (mutation, pair) order the serial algorithm draws them —
//!    the only phase that touches the RNG;
//! 2. **observe** (pool): run `f` on each pair to form
//!    `⟨f(x1), f(x2), f(x1++x2)⟩`, one independent job per pair on the
//!    [`SynthPool`] — an external command spawns a process per run, so
//!    this is the phase worth fanning out;
//! 3. **dedup** (serial, ordered): drop observations already seen, keeping
//!    first-occurrence order so counterexample attribution is stable;
//! 4. **filter** (serial, no threads): for each fresh observation, the
//!    live ids that are plausible for it
//!    ([`CandidateSpace::passing_among`]: one walk of the combiner trie,
//!    then [`plausible`] on the handful of ids the walk keeps, the RunOp
//!    candidates included while they are alive). Everything else is
//!    arithmetic on sorted id lists: a mutation's gradient score is
//!    `|alive| − |⋂ passing over its observations|`, the counterexample is
//!    the first fresh observation (in generation order) whose list is
//!    shorter than `alive`, and retention is the intersection over all of
//!    them. Combiner ASTs are built for the survivors only, at the end.
//!
//! Retention consults the *fresh* observations only: every live
//! candidate already passed all prior observations (that is what kept it
//! live), and plausibility over a concatenated observation list is the
//! conjunction of per-observation plausibility — so the incremental
//! filter provably equals a `retain` over the cumulative list.
//! Every phase's output is a pure function of the phase inputs, so the
//! whole report is byte-identical for any `workers` value, and equal to
//! what the per-candidate loop it replaced computes —
//! [`synthesize_reference`] keeps that loop for `tests/synth_engine.rs`
//! to compare against over the whole corpus.

use crate::composite::SynthesizedCombiner;
use crate::gen::stream_pair;
use crate::pool::SynthPool;
use crate::preprocess::{preprocess, InputProfile, Preprocessed};
use crate::shape::{InputShape, Mutation};
use kq_coreutils::{Command, ExecContext};
use kq_dsl::ast::Candidate;
use kq_dsl::eval::CommandEnv;
use kq_dsl::{plausible, CandidateSpace, EnumConfig, Observation, SpaceBreakdown};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Synthesis tuning knobs.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Maximum combiner size `|g|` (Definition 3.6); 7 reproduces the
    /// paper's search-space sizes.
    pub max_size: usize,
    /// Gradient iterations per round (`M` in Algorithm 2).
    pub gradient_steps: usize,
    /// Input stream pairs generated per mutated shape.
    pub pairs_per_shape: usize,
    /// Rounds without elimination before declaring convergence.
    pub stall_rounds: usize,
    /// Hard cap on rounds.
    pub max_rounds: usize,
    /// RNG seed (synthesis is deterministic given the seed).
    pub rng_seed: u64,
    /// Follow the elimination gradient when choosing the next shape
    /// (Algorithm 2). With `false`, mutations are chosen uniformly at
    /// random — the ablation baseline for the paper's gradient design.
    pub use_gradient: bool,
    /// Worker threads for the observe phase (and, in the planner, for
    /// synthesizing distinct commands concurrently). Affects wall
    /// clock only: the report is identical for every value (see the
    /// crate-level determinism discussion).
    pub workers: usize,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            max_size: 7,
            gradient_steps: 2,
            pairs_per_shape: 2,
            stall_rounds: 2,
            max_rounds: 8,
            rng_seed: 0x5eed,
            use_gradient: true,
            workers: 1,
        }
    }
}

/// The synthesis verdict for one command.
#[derive(Debug, Clone)]
pub enum SynthesisOutcome {
    /// A combiner (possibly composite) was found.
    Synthesized(SynthesizedCombiner),
    /// Every candidate was eliminated: no combiner exists in the space.
    NoCombiner {
        /// An input pair that eliminated one of the last candidates, kept
        /// as the counterexample for reporting (Table 9).
        counterexample: Option<(String, String)>,
    },
}

/// The full synthesis report for one command (one Table 10 row).
#[derive(Debug, Clone)]
pub struct SynthesisReport {
    /// The command line.
    pub command: String,
    /// Search-space size, broken down by class as in Table 10.
    pub space: SpaceBreakdown,
    /// Wall-clock synthesis time.
    pub elapsed: Duration,
    /// Rounds executed.
    pub rounds: usize,
    /// Observations collected.
    pub observations: usize,
    /// Preprocessing results that shaped generation.
    pub profile: InputProfile,
    /// The verdict.
    pub outcome: SynthesisOutcome,
}

impl SynthesisReport {
    /// The plausible combiners, empty when no combiner exists.
    pub fn plausible(&self) -> &[Candidate] {
        match &self.outcome {
            SynthesisOutcome::Synthesized(s) => &s.plausible,
            SynthesisOutcome::NoCombiner { .. } => &[],
        }
    }

    /// The executable combiner, `None` when synthesis failed.
    pub fn combiner(&self) -> Option<&SynthesizedCombiner> {
        match &self.outcome {
            SynthesisOutcome::Synthesized(s) => Some(s),
            SynthesisOutcome::NoCombiner { .. } => None,
        }
    }
}

/// Executes `f` on an input pair, producing the observation
/// `⟨f(x1), f(x2), f(x1 ++ x2)⟩` (Definition 3.5). `None` when the command
/// rejects any of the three inputs.
fn observe(command: &Command, ctx: &ExecContext, x1: &str, x2: &str) -> Option<Observation> {
    let y1 = command.run_str(x1, ctx).ok()?;
    let y2 = command.run_str(x2, ctx).ok()?;
    let combined = format!("{x1}{x2}");
    let y12 = command.run_str(&combined, ctx).ok()?;
    Some(Observation { y1, y2, y12 })
}

/// Algorithm 1: synthesizes a combiner for `command`.
pub fn synthesize(
    command: &Command,
    ctx: &ExecContext,
    config: &SynthesisConfig,
) -> SynthesisReport {
    run(command, ctx, config, false)
}

/// [`synthesize`] with the filter phase done the way it was before the
/// candidate space became implicit: every candidate enumerated as a tree,
/// every live one evaluated against every fresh observation. The reports
/// are equal field by field; this one is the oracle that says so.
#[doc(hidden)]
pub fn synthesize_reference(
    command: &Command,
    ctx: &ExecContext,
    config: &SynthesisConfig,
) -> SynthesisReport {
    run(command, ctx, config, true)
}

/// The live candidates: ids into the space, ascending.
struct Alive<'a> {
    space: &'a CandidateSpace,
    /// `None` until the first observation: every id.
    ids: Option<Vec<u32>>,
    /// The reference loop's trees, indexed by id.
    enumerated: Option<Vec<Candidate>>,
}

impl Alive<'_> {
    fn len(&self) -> usize {
        self.ids.as_ref().map_or(self.space.len(), Vec::len)
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The live ids plausible for `o`, ascending.
    fn passing(&self, o: &Observation, env: &CommandEnv<'_>) -> Vec<u32> {
        let Some(candidates) = &self.enumerated else {
            return match &self.ids {
                Some(ids) => self.space.passing_among(ids, o, env),
                None => self.space.passing(o, env),
            };
        };
        let holds = |id: &u32| plausible(&candidates[*id as usize], std::slice::from_ref(o), env);
        match &self.ids {
            Some(ids) => ids.iter().copied().filter(holds).collect(),
            None => (0..candidates.len() as u32).filter(holds).collect(),
        }
    }
}

/// The ids present in every list (each ascending); `None` for no lists,
/// which constrain nothing.
fn intersection(lists: &[Vec<u32>]) -> Option<Vec<u32>> {
    let (first, rest) = lists.split_first()?;
    let mut common = first.clone();
    for list in rest {
        common.retain(|id| list.binary_search(id).is_ok());
    }
    Some(common)
}

fn run(
    command: &Command,
    ctx: &ExecContext,
    config: &SynthesisConfig,
    reference: bool,
) -> SynthesisReport {
    let label = command.display();
    let span = kq_trace::span("synth", "synthesize").label(&label);
    let start = Instant::now();
    let pool = SynthPool::new(config.workers);
    let mut rng = SmallRng::seed_from_u64(config.rng_seed);
    let pre = preprocess(command, ctx, &mut rng);
    let enum_config = EnumConfig {
        delims: pre.delims.clone(),
        max_size: config.max_size,
        merge_flags: pre.merge_flags.clone(),
    };
    let space = CandidateSpace::new(&enum_config);
    let mut alive = Alive {
        space: &space,
        ids: None,
        enumerated: reference.then(|| kq_dsl::enumerate_candidates(&enum_config).0),
    };
    let env = CommandEnv { command, ctx };

    let mut observations: Vec<Observation> = Vec::new();
    // Cross-round dedup: every observation ever kept, hashed. Replaces
    // the former O(n²) `observations.contains` scan per candidate
    // observation (ROADMAP headroom) with one set probe; the retained
    // sequence is identical (see `hashed_dedup_matches_quadratic_scan`).
    let mut seen: HashSet<Observation> = HashSet::new();
    let mut counterexample: Option<(String, String)> = None;
    let mut rounds = 0;
    let mut stalled = 0;

    if matches!(pre.profile, InputProfile::Unsupported) {
        // Every probe failed (e.g. the command reads a file that does not
        // exist yet): no observation can certify any candidate.
        span.done();
        return SynthesisReport {
            command: label,
            space: space.breakdown(),
            elapsed: start.elapsed(),
            rounds: 0,
            observations: 0,
            profile: pre.profile,
            outcome: SynthesisOutcome::NoCombiner {
                counterexample: None,
            },
        };
    }

    while rounds < config.max_rounds && !alive.is_empty() {
        rounds += 1;
        kq_trace::instant("synth", "round")
            .label(&label)
            .seq(rounds)
            .v(alive.len() as f64)
            .emit();
        let before = alive.len();
        let seed_shape = InputShape::random(&mut rng, pre.line_hint);
        gradient_round(
            command,
            ctx,
            &pre,
            seed_shape,
            config,
            &mut rng,
            &mut alive,
            &mut observations,
            &mut seen,
            &mut counterexample,
            &env,
            &pool,
        );
        if alive.is_empty() {
            break;
        }
        if alive.len() == before {
            stalled += 1;
            if stalled >= config.stall_rounds {
                break;
            }
        } else {
            stalled = 0;
        }
    }

    // A verdict needs evidence that varied: observations are kept once
    // each, so with fewer than two every output the command gave was the
    // same (or there was none), and `first` fits them as well as the
    // combiner would — a hint-less counter of lines no generated input
    // holds prints `0` every time. (With evidence, `alive` is an explicit
    // list, and only now do its ids become trees.)
    let survivors = alive
        .ids
        .filter(|ids| !ids.is_empty() && observations.len() >= 2);
    let outcome = match survivors {
        None => SynthesisOutcome::NoCombiner { counterexample },
        Some(ids) => SynthesisOutcome::Synthesized(SynthesizedCombiner::from_plausible(
            ids.into_iter().map(|id| space.candidate(id)).collect(),
        )),
    };
    kq_trace::counter("synth", "rounds", rounds as f64)
        .label(&label)
        .emit();
    kq_trace::counter("synth", "observations", observations.len() as f64)
        .label(&label)
        .emit();
    kq_trace::counter("synth", "trie-nodes", space.trie_nodes() as f64)
        .label(&label)
        .emit();
    span.done();
    SynthesisReport {
        command: label,
        space: space.breakdown(),
        elapsed: start.elapsed(),
        rounds,
        observations: observations.len(),
        profile: pre.profile,
        outcome,
    }
}

/// Algorithm 2: one gradient descent over shape mutations, staged as the
/// module docs describe. All generated observations filter the candidate
/// set; the mutation that eliminated the most candidates seeds the next
/// step.
#[allow(clippy::too_many_arguments)]
fn gradient_round(
    command: &Command,
    ctx: &ExecContext,
    pre: &Preprocessed,
    mut shape: InputShape,
    config: &SynthesisConfig,
    rng: &mut SmallRng,
    alive: &mut Alive<'_>,
    observations: &mut Vec<Observation>,
    seen: &mut HashSet<Observation>,
    counterexample: &mut Option<(String, String)>,
    env: &CommandEnv<'_>,
    pool: &SynthPool,
) {
    for step in 0..config.gradient_steps {
        // Phase 1 — generate (serial; the RNG draws happen in the same
        // (mutation, pair) order as the serial algorithm's).
        let shapes: Vec<InputShape> = Mutation::all().iter().map(|m| shape.mutate(*m)).collect();
        let mut pairs: Vec<(usize, String, String)> = Vec::new();
        for (mi, mutated) in shapes.iter().enumerate() {
            for _ in 0..config.pairs_per_shape {
                if let Some((x1, x2)) = stream_pair(mutated, pre, rng) {
                    pairs.push((mi, x1, x2));
                }
            }
        }

        // Phase 2 — observe (pool): three command executions per pair,
        // each an independent job; results slot back in generation order.
        let observing = kq_trace::span("synth", "observe").seq(step);
        let observed: Vec<Option<Observation>> =
            pool.map(&pairs, |_, (_, x1, x2)| observe(command, ctx, x1, x2));
        observing.done();

        // Phase 3 — dedup (serial, ordered): keep first occurrences only,
        // recording which span of the fresh list each mutation produced.
        // The seen-set spans rounds, so one probe covers both "already in
        // the cumulative list" and "already fresh this round".
        let mut fresh: Vec<Observation> = Vec::new();
        let mut fresh_pairs: Vec<(String, String)> = Vec::new();
        let mut spans: Vec<std::ops::Range<usize>> = Vec::with_capacity(shapes.len());
        let mut cursor = 0;
        for mi in 0..shapes.len() {
            let start = fresh.len();
            while cursor < pairs.len() && pairs[cursor].0 == mi {
                if let Some(obs) = &observed[cursor] {
                    if note_fresh(seen, obs) {
                        fresh.push(obs.clone());
                        let (_, x1, x2) = &pairs[cursor];
                        fresh_pairs.push((x1.clone(), x2.clone()));
                    }
                }
                cursor += 1;
            }
            spans.push(start..fresh.len());
        }

        // Phase 4 — filter: per fresh observation, the live ids it leaves
        // plausible.
        let live = alive.len();
        let filtering = kq_trace::span("synth", "filter").seq(step).v(live as f64);
        let passing: Vec<Vec<u32>> = fresh.iter().map(|o| alive.passing(o, env)).collect();
        filtering.done();

        // Counterexample: the first fresh observation (generation order)
        // that eliminates any live candidate — same pair the serial
        // algorithm records at insertion time.
        if counterexample.is_none() {
            if let Some(oi) = passing.iter().position(|ids| ids.len() < live) {
                *counterexample = Some(fresh_pairs[oi].clone());
            }
        }

        // Score: how many live candidates does each mutation's batch
        // eliminate? A candidate survives a batch iff every observation
        // in the batch's span leaves it plausible. Ties keep the earliest
        // mutation, as the serial fold does.
        let mut best: Option<(usize, usize)> = None;
        for (mi, span) in spans.iter().enumerate() {
            let eliminated =
                intersection(&passing[span.clone()]).map_or(0, |kept| live - kept.len());
            match best {
                Some((score, _)) if score >= eliminated => {}
                _ => best = Some((eliminated, mi)),
            }
        }

        // Retention: every live candidate already passed the cumulative
        // observation set (that is the loop invariant the previous
        // retention established), so intersecting over the fresh ones
        // equals a retain over `observations ++ fresh`.
        if let Some(kept) = intersection(&passing) {
            alive.ids = Some(kept);
        }
        observations.extend(fresh);
        if alive.is_empty() {
            return;
        }
        if config.use_gradient {
            if let Some((_, mi)) = best {
                shape = shapes[mi];
            }
        } else {
            // Ablation: ignore the gradient, take a uniformly random step.
            use rand::Rng;
            let all = Mutation::all();
            shape = shape.mutate(all[rng.gen_range(0..all.len())]);
        }
    }
}

/// Records `obs` in the cross-round seen-set, returning whether it is
/// fresh (its first occurrence). This is the hashed replacement for the
/// quadratic `Vec::contains` scan the dedup phase used to run per
/// observation: the set keys on the observation's content hash and
/// resolves collisions by full equality, so the retained sequence —
/// order included — is exactly the quadratic scan's (pinned by
/// `hashed_dedup_matches_quadratic_scan`).
fn note_fresh(seen: &mut HashSet<Observation>, obs: &Observation) -> bool {
    if seen.contains(obs) {
        false
    } else {
        seen.insert(obs.clone());
        true
    }
}

/// Replays cached candidates against the first observation synthesis
/// itself would generate for `command` under `config` — the persistent
/// combiner cache's load-validation step.
///
/// The probe regenerates round 1's first successful observation from
/// `config.rng_seed` (same preprocessing, same seed shape, same mutation
/// order), so a genuine cache entry — a plausible set that survived that
/// very observation during synthesis — always passes, while an entry that
/// belongs to a different command (a cache-key collision), a different
/// configuration, or a corrupted file is rejected unless it happens to be
/// plausible for this command too. Returns `false` when no observation
/// can be generated at all (e.g. a missing file dependency): with zero
/// evidence the entry must not be trusted.
pub fn spot_check(
    command: &Command,
    ctx: &ExecContext,
    config: &SynthesisConfig,
    candidates: &[Candidate],
) -> bool {
    if candidates.is_empty() {
        return false;
    }
    let mut rng = SmallRng::seed_from_u64(config.rng_seed);
    let pre = preprocess(command, ctx, &mut rng);
    if matches!(pre.profile, InputProfile::Unsupported) {
        return false;
    }
    let env = CommandEnv { command, ctx };
    let seed_shape = InputShape::random(&mut rng, pre.line_hint);
    for mutation in Mutation::all() {
        let mutated = seed_shape.mutate(mutation);
        for _ in 0..config.pairs_per_shape {
            let Some((x1, x2)) = stream_pair(&mutated, &pre, &mut rng) else {
                continue;
            };
            let Some(obs) = observe(command, ctx, &x1, &x2) else {
                continue;
            };
            return candidates
                .iter()
                .all(|c| plausible(c, std::slice::from_ref(&obs), &env));
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use kq_coreutils::parse_command;
    use kq_dsl::ast::{Combiner, RecOp, RunOp, StructOp};
    use kq_stream::Delim;

    fn synth(cmd: &str) -> SynthesisReport {
        let command = parse_command(cmd).unwrap();
        let ctx = ExecContext::default();
        synthesize(&command, &ctx, &SynthesisConfig::default())
    }

    fn has(report: &SynthesisReport, op: &Combiner) -> bool {
        report.plausible().iter().any(|c| &c.op == op)
    }

    #[test]
    fn wc_l_synthesizes_back_newline_add() {
        let r = synth("wc -l");
        let want = Combiner::Rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add)));
        assert!(
            has(&r, &want),
            "plausible: {:?}",
            r.plausible()
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
        );
        // concat must have been eliminated.
        assert!(!has(&r, &Combiner::Rec(RecOp::Concat)));
        // Space matches Table 10's wc -l row: newline-only outputs.
        assert_eq!(r.space.total(), 2700);
    }

    #[test]
    fn grep_c_synthesizes_count_adder() {
        let r = synth("grep -c a");
        let want = Combiner::Rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add)));
        assert!(has(&r, &want));
    }

    #[test]
    fn tr_translate_synthesizes_concat() {
        let r = synth("tr A-Z a-z");
        let s = r.combiner().expect("combiner");
        assert!(
            s.is_concat(),
            "members: {:?}",
            s.members.iter().map(|c| c.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn uniq_synthesizes_stitch_selection() {
        let r = synth("uniq");
        let stitch_first = Combiner::Struct(StructOp::Stitch(RecOp::First));
        let stitch_second = Combiner::Struct(StructOp::Stitch(RecOp::Second));
        assert!(
            has(&r, &stitch_first) || has(&r, &stitch_second),
            "plausible: {:?}",
            r.plausible()
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
        );
        assert!(!has(&r, &Combiner::Rec(RecOp::Concat)));
    }

    #[test]
    fn uniq_c_synthesizes_stitch2_add() {
        let r = synth("uniq -c");
        let want = Combiner::Struct(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First));
        let alt = Combiner::Struct(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::Second));
        assert!(
            has(&r, &want) || has(&r, &alt),
            "plausible: {:?}",
            r.plausible()
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn sort_synthesizes_merge() {
        let r = synth("sort");
        assert!(has(&r, &Combiner::Run(RunOp::Merge(vec![]))));
        assert!(!has(&r, &Combiner::Rec(RecOp::Concat)));
    }

    #[test]
    fn sort_rn_merge_carries_flags() {
        let r = synth("sort -rn");
        assert!(has(
            &r,
            &Combiner::Run(RunOp::Merge(vec!["-rn".to_owned()]))
        ));
    }

    #[test]
    fn tr_squeeze_requires_rerun() {
        // The §2 example: only rerun survives for tr -cs.
        let r = synth(r"tr -cs A-Za-z '\n'");
        let s = r.combiner().expect("combiner");
        assert!(
            s.is_rerun(),
            "members: {:?}",
            s.members.iter().map(|c| c.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn sed_1d_has_no_combiner() {
        let r = synth("sed 1d");
        assert!(
            r.combiner().is_none(),
            "plausible: {:?}",
            r.plausible()
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn tail_plus_2_has_no_combiner() {
        let r = synth("tail +2");
        assert!(r.combiner().is_none());
    }

    #[test]
    fn head_n_1_synthesizes_first() {
        let r = synth("head -n 1");
        assert!(has(&r, &Combiner::Rec(RecOp::First)));
    }

    #[test]
    fn tail_n_1_synthesizes_second() {
        let r = synth("tail -n 1");
        assert!(has(&r, &Combiner::Rec(RecOp::Second)));
    }

    #[test]
    fn sed_100q_synthesizes_rerun() {
        let r = synth("sed 100q");
        let s = r.combiner().expect("combiner");
        assert!(
            s.is_rerun(),
            "members: {:?}",
            s.members.iter().map(|c| c.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn missing_file_dependency_yields_no_combiner() {
        // A command whose file dependency does not exist yet (written by
        // an earlier pipeline statement) must not be certified: with zero
        // observations every candidate would be vacuously plausible.
        let command = parse_command("comm -23 - /not/written/yet").unwrap();
        let ctx = ExecContext::default();
        let r = synthesize(&command, &ctx, &SynthesisConfig::default());
        assert!(r.combiner().is_none());
        assert_eq!(r.observations, 0);
    }

    #[test]
    fn reports_equal_the_per_candidate_reference_loop() {
        // One command per verdict shape: a RecOp, both StructOp families,
        // RunOps, a three-delimiter space, no combiner at all (with its
        // counterexample), and a command nothing can be observed for.
        let lines = [
            "wc -l",
            "uniq",
            "uniq -c",
            "sort -rn",
            "tr -cs A-Za-z '\\n'",
            "awk '{print $2, $0}'",
            "sed 1d",
            "comm -23 - /not/written/yet",
        ];
        for line in lines {
            for (workers, use_gradient) in [(1, true), (3, true), (1, false)] {
                let config = SynthesisConfig {
                    workers,
                    use_gradient,
                    ..SynthesisConfig::default()
                };
                let command = parse_command(line).unwrap();
                let want = synthesize_reference(&command, &ExecContext::default(), &config);
                let got = synthesize(&command, &ExecContext::default(), &config);
                let shown = |r: &SynthesisReport| -> Vec<String> {
                    r.plausible().iter().map(|c| c.to_string()).collect()
                };
                assert_eq!(got.space, want.space, "{line}");
                assert_eq!(got.rounds, want.rounds, "{line}");
                assert_eq!(got.observations, want.observations, "{line}");
                assert_eq!(got.profile, want.profile, "{line}");
                assert_eq!(shown(&got), shown(&want), "{line}");
                match (&got.outcome, &want.outcome) {
                    (
                        SynthesisOutcome::NoCombiner { counterexample: g },
                        SynthesisOutcome::NoCombiner { counterexample: w },
                    ) => assert_eq!(g, w, "{line}"),
                    (SynthesisOutcome::Synthesized(_), SynthesisOutcome::Synthesized(_)) => {}
                    _ => panic!("{line}: verdicts differ"),
                }
            }
        }
    }

    #[test]
    fn intersection_of_sorted_id_lists() {
        assert_eq!(intersection(&[]), None);
        assert_eq!(intersection(&[vec![1, 4, 9]]), Some(vec![1, 4, 9]));
        assert_eq!(
            intersection(&[vec![1, 4, 9, 12], vec![0, 4, 12, 13], vec![4, 5, 12]]),
            Some(vec![4, 12])
        );
        assert_eq!(intersection(&[vec![1, 2], vec![]]), Some(vec![]));
    }

    #[test]
    fn hashed_dedup_matches_quadratic_scan() {
        // A duplicate-heavy observation stream (23×11 distinct among 600):
        // the hashed seen-set must retain exactly what the replaced
        // quadratic `contains` scan retained, in the same order.
        let stream: Vec<Observation> = (0..600)
            .map(|i| {
                let y1 = format!("{}\n", i % 23);
                let y2 = format!("{}\n", (i * 7) % 11);
                let y12 = format!("{y1}{y2}");
                Observation::new(y1, y2, y12)
            })
            .collect();
        let mut seen = HashSet::new();
        let mut hashed: Vec<Observation> = Vec::new();
        let mut quadratic: Vec<Observation> = Vec::new();
        for obs in &stream {
            if note_fresh(&mut seen, obs) {
                hashed.push(obs.clone());
            }
            if !quadratic.contains(obs) {
                quadratic.push(obs.clone());
            }
        }
        assert_eq!(hashed, quadratic);
        assert!(
            hashed.len() < stream.len() / 2,
            "the stream must actually contain duplicates"
        );
        // Replaying the whole stream finds nothing fresh.
        assert!(stream.iter().all(|o| !note_fresh(&mut seen, o)));
    }

    #[test]
    fn report_metadata_populated() {
        let r = synth("cat");
        assert!(r.rounds >= 1);
        assert!(r.observations > 0);
        assert!(r.elapsed.as_nanos() > 0);
        assert_eq!(r.command, "cat");
    }
}
