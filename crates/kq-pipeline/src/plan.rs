//! Parallelization planning (paper §2, §3.5).
//!
//! Planning a script is two-phase: the planner first walks the script to
//! collect its *distinct* stdin-reading commands and resolves each one —
//! from the combiner cache, from the effect lattice, or by synthesis on a
//! [`kq_synth::SynthPool`] (the paper synthesizes once per unique
//! command/flag combination; combiners are cached under the command's
//! argv words as written, optionally persisted on disk — see
//! [`crate::cache`]).
//! It then assembles each statement's plan from the cache, deciding the
//! stage's execution mode:
//!
//! * no combiner, or a command that does not read its standard input →
//!   **sequential**;
//! * a rerun-only combiner on a command that does not significantly shrink
//!   its input (e.g. `tr -cs A-Za-z '\n'`) → **sequential**, per §2's cost
//!   observation — though where the lattice knows exactly what a
//!   rerun-combined command carries across a split
//!   ([`Command::newline_seam`]: that `tr` does, `tr -s '\n' ' '` does
//!   not) the stage is also marked [`PlannedStage::seam`], whichever mode
//!   it got, and the dataflow executor runs it chunk by chunk all the same;
//! * otherwise → **parallel**.
//!
//! A parallel stage whose combiner is plain `concat` and whose successor is
//! also parallel has its intermediate combiner *eliminated* (Theorem 5):
//! the worker substreams flow directly into the next stage. The elimination
//! additionally requires the stage's outputs to be newline-terminated
//! streams — `tr -d '\n'` fails that precondition and keeps its combiner.
//!
//! The graph rewrites beyond the modes — the counting fold, count order,
//! the newline seam and the sorting fold — are licensed in one place,
//! [`PlannedStatement::new`], from what is known of each stage
//! ([`Evidence`]): the planner passes what synthesis and the probes found,
//! and `kumquat check`, which synthesizes nothing, what each licence
//! assumes synthesis finds ([`Evidence::assumed`]).
//!
//! Many scripts plan in one pass ([`Planner::plan_all`]; [`Planner::plan`]
//! is its one-script case): while one script plans, the pass reads ahead
//! and queues the commands of the next scripts that nothing cached yet
//! covers, so synthesis of the whole batch overlaps on the pool.

use crate::cache::{cache_key, CacheLookup, CacheStats, CombinerCache};
use crate::lattice;
use crate::parse::{InputSource, Script, Statement};
use kq_coreutils::sort::LineOrder;
use kq_coreutils::{Bytes, Command, ExecContext};
use kq_synth::pool::Jobs;
use kq_synth::{
    spot_check, synthesize, InputProfile, SynthPool, SynthesisConfig, SynthesisReport,
    SynthesizedCombiner,
};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// How a planned stage executes.
#[derive(Debug, Clone)]
pub enum StageMode {
    /// Run one instance on the whole stream.
    Sequential,
    /// Run `w` instances on substreams and combine.
    Parallel {
        /// The synthesized combiner.
        combiner: Arc<SynthesizedCombiner>,
        /// Theorem 5: the combiner is skipped and the substreams feed the
        /// next (parallel) stage directly.
        eliminated: bool,
    },
}

impl StageMode {
    /// True for either parallel variant.
    pub fn is_parallel(&self) -> bool {
        matches!(self, StageMode::Parallel { .. })
    }

    /// True when the intermediate combiner was eliminated.
    pub fn is_eliminated(&self) -> bool {
        matches!(
            self,
            StageMode::Parallel {
                eliminated: true,
                ..
            }
        )
    }
}

/// A stage with its planned mode (indexes into the source statement).
#[derive(Debug)]
pub struct PlannedStage {
    /// Index of the stage within its statement.
    pub stage_idx: usize,
    /// Planned execution mode.
    pub mode: StageMode,
    /// Chunk-local: the stage's combiner is plain `concat` and its outputs
    /// are newline-terminated streams, so `f(c1 ++ c2) = f(c1) ++ f(c2)`
    /// for line-aligned chunks and the executor can let chunk
    /// outputs flow to the next stage without ever materializing the whole
    /// substream (`grep`, `tr`, `cut`, per-line `sed` qualify; `sort` and
    /// `uniq -c` do not and must barrier). Always `false` for sequential
    /// stages.
    pub streamable: bool,
    /// Prefix bound: `Some(k)` when the stage's output depends only on the
    /// first `k` complete lines of its input (`head -n k`, `sed kq`), and
    /// no stage since the last barrier before it decodes its input (see
    /// `license`). The executor runs such a stage as a bounded `rerun`
    /// fold ([`FoldBy::Rerun`](crate::dataflow::FoldBy::Rerun)) that stops
    /// demanding input — and cancels everything upstream — the moment `k`
    /// lines exist.
    /// Independent of the sequential/parallel mode decision: running the
    /// command once on a `k`-line prefix is exact under either plan.
    pub line_bound: Option<usize>,
    /// Set on a `sort` stage that the lattice licenses to fold together
    /// with the `uniq` stage after it ([`lattice::fold_pair`]): the
    /// dataflow graph turns the two combine folds into one spanning both
    /// stages (the counting rewrite of [`crate::dataflow`]). The planner
    /// sets it only when both stages parallelize and the sort's combiner
    /// is a `merge` — the fused fold is that merge under a derived order.
    /// Executors that run stage by stage ignore it.
    pub fold_pair: Option<lattice::FoldPair>,
    /// Set on the `sort` of a counting pair
    /// ([`lattice::FoldPair::Counting`]) whose output the stage after the
    /// `uniq -c` — a numeric `sort` — puts in count order
    /// ([`lattice::count_order`]): the dataflow graph extends the pair's
    /// fold over that third stage, which closes by regrouping its lines by
    /// count instead of sorting them again (the count-order rewrite of
    /// [`crate::dataflow`]). The planner sets it only where the third
    /// stage parallelizes with a `merge` combiner and is not itself the
    /// sort of a pair. Executors that run stage by stage ignore it.
    pub count_order: Option<kq_coreutils::sort::CountOrder>,
    /// Set on a stage that the lattice licenses to run chunk by chunk under
    /// a one-newline seam ([`Command::newline_seam`]): for non-empty
    /// line-aligned pieces, `f(x ++ y)` is `f(x)` followed by `f(y)` less
    /// one leading `'\n'`. The planner sets it only where synthesis found a
    /// `rerun` combiner — the seam *is* that rerun, reduced to an O(1)
    /// slice — and leaves the mode what the cost rule made it:
    /// [`StageMode::Sequential`] where the command does not shrink its
    /// input (the word splitter on prose), parallel where it does (the same
    /// command on a table of numbers). The dataflow graph turns the stage's
    /// fold, gathering or rerun-combining, into the head of a chunk-local
    /// node (the seam rewrite of [`crate::dataflow`]). Executors that run
    /// stage by stage ignore it.
    pub seam: bool,
    /// Set on a `sort` stage that the lattice licenses to feed its fold
    /// raw chunks ([`Command::stdin_order`]): the fold sorts batches of
    /// chunks, each into one run, where the stage would sort every chunk
    /// and the fold merge them (the sorting rewrite of
    /// [`crate::dataflow`]). The planner sets it only where the stage
    /// parallelizes and its combiner merges under the order the stage sorts
    /// by, and not on the sort of a counting pair
    /// ([`lattice::FoldPair::Counting`]), whose fold keeps its own map.
    /// Executors that run stage by stage ignore it.
    pub sorting: bool,
}

/// Planning result for one statement.
#[derive(Debug)]
pub struct PlannedStatement {
    /// Per-stage plans, parallel to `Statement::stages`.
    pub stages: Vec<PlannedStage>,
}

impl PlannedStatement {
    /// `(parallelized, total)` stage counts — one Table 3 pair.
    pub fn parallelized_counts(&self) -> (usize, usize) {
        let k = self.stages.iter().filter(|s| s.mode.is_parallel()).count();
        (k, self.stages.len())
    }

    /// Number of eliminated intermediate combiners.
    pub fn eliminated_count(&self) -> usize {
        self.stages
            .iter()
            .filter(|s| s.mode.is_eliminated())
            .count()
    }

    /// Assembles a statement's plan from each stage's mode, chunk-locality
    /// ([`PlannedStage::streamable`]) and the evidence the rewrite licences
    /// read. Theorem 5 is applied here: a chunk-local stage followed by
    /// another parallel stage sheds its intermediate combiner. The licences
    /// come from one private function, the one place where the lattice's
    /// rules become plan flags.
    pub fn new(
        statement: &Statement,
        modes: Vec<StageMode>,
        streamable: Vec<bool>,
        evidence: &[Evidence],
    ) -> PlannedStatement {
        let mut stages: Vec<PlannedStage> = modes
            .into_iter()
            .zip(streamable)
            .enumerate()
            .map(|(stage_idx, (mode, streamable))| PlannedStage {
                stage_idx,
                mode,
                streamable,
                line_bound: None,
                fold_pair: None,
                count_order: None,
                seam: false,
                sorting: false,
            })
            .collect();
        for i in 0..stages.len() {
            let next_parallel = stages.get(i + 1).is_some_and(|s| s.mode.is_parallel());
            if stages[i].streamable && next_parallel {
                if let StageMode::Parallel { eliminated, .. } = &mut stages[i].mode {
                    *eliminated = true;
                }
            }
        }
        license(statement, evidence, &mut stages);
        PlannedStatement { stages }
    }

    /// Every rewrite the plan licenses, in stage order (at one stage: the
    /// seam, the fold pair, the sorting fold), each with the one line that
    /// `plan`, `run` and `kumquat check` print for it:
    /// `counting fold: s1 stages 4-5 'sort | uniq -c'`, or `... stages 3-5
    /// 'sort | uniq -c | sort -rn' (count order)` where the pair closes in
    /// the order of the sort after it, `seam: s1 stage 1 'tr -cs A-Za-z
    /// '\n'' runs chunk-local` and `sorting fold: s1 stage 1 'sort'`.
    /// `si` is the statement's index; statements and stages print counted
    /// from one.
    pub fn rewrites(&self, si: usize, statement: &Statement) -> Vec<(usize, Rewrite, String)> {
        let command = |gi: usize| statement.stages[gi].command.display();
        let s = si + 1;
        let mut out = Vec::new();
        for (gi, stage) in self.stages.iter().enumerate() {
            if stage.seam {
                let note = format!(
                    "seam: s{s} stage {} '{}' runs chunk-local",
                    gi + 1,
                    command(gi)
                );
                out.push((gi, Rewrite::Seam, note));
            }
            if let Some(pair) = stage.fold_pair {
                let fold = format!("{} fold: s{s} stages {}", pair.as_str(), gi + 1);
                let (sort, uniq) = (command(gi), command(gi + 1));
                let note = match stage.count_order {
                    Some(_) => format!(
                        "{fold}-{} '{sort} | {uniq} | {}' (count order)",
                        gi + 3,
                        command(gi + 2)
                    ),
                    None => format!("{fold}-{} '{sort} | {uniq}'", gi + 2),
                };
                out.push((gi, Rewrite::Fold(pair), note));
            }
            if stage.sorting {
                let note = format!("sorting fold: s{s} stage {} '{}'", gi + 1, command(gi));
                out.push((gi, Rewrite::Sorting, note));
            }
        }
        out
    }
}

/// A rewrite the plan licenses at one stage
/// ([`PlannedStatement::rewrites`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rewrite {
    /// The stage is a [`PlannedStage::seam`].
    Seam,
    /// The stage is the `sort` of a [`PlannedStage::fold_pair`], closing
    /// in count order where [`PlannedStage::count_order`] says so.
    Fold(lattice::FoldPair),
    /// The stage is a [`PlannedStage::sorting`] fold.
    Sorting,
}

/// What synthesis and the planning probes found about one stage: the
/// evidence the rewrite licences of [`PlannedStatement::new`] read. The
/// default is no evidence, so no licence. The planner gathers it from each
/// stage's combiner and mode; [`Evidence::assumed`] is what the licences
/// need synthesis to find, for a plan made without it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Evidence {
    /// The stage runs parallel.
    parallel: bool,
    /// The order the stage's combiner merges in, where it is a `merge`.
    merge_order: Option<LineOrder>,
    /// The stage's combiner is a `rerun`.
    rerun: bool,
}

impl Evidence {
    /// What each licence assumes synthesis finds about `command`, as
    /// `kumquat check` reports the rewrites without synthesizing: a stage
    /// reading its standard input runs parallel, a `sort` merges in the
    /// order it sorts by ([`Command::stdin_order`]), and any other
    /// stage's combiner is a `rerun`.
    pub fn assumed(command: &Command) -> Evidence {
        let merge_order = command.stdin_order();
        Evidence {
            parallel: command.reads_stdin(),
            merge_order,
            rerun: command.reads_stdin() && merge_order.is_none(),
        }
    }
}

/// The rewrite licences: sets every stage's [`PlannedStage::line_bound`],
/// [`PlannedStage::fold_pair`], [`PlannedStage::count_order`],
/// [`PlannedStage::seam`] and [`PlannedStage::sorting`] from the
/// statement's commands and each stage's `evidence`. Each flag asks the
/// lattice about the commands only where the evidence holds what the
/// rewrite needs:
///
/// * a prefix bound comes from the parsed command itself (exact, never
///   widened: a stage with a file operand reads no stdin and reports no
///   bound), and holds only while no stage since the last *barrier*
///   before it decodes its input ([`Command::decodes`]): cancelling such
///   a stage would skip bytes the serial run reads, and fails on. A
///   barrier is a stage that is neither chunk-local, nor a seam, nor
///   bounded itself: a fold in the rewritten and the unrewritten graph
///   alike, which reads all its input before it emits — so every stage
///   before it has passed or failed before the bound can fire. Bounds are
///   set in stage order, after the seams they read;
/// * a seam needs a `rerun` combiner, whatever the stage's mode;
/// * a fold pair needs both stages parallel and the sort's combiner a
///   `merge`;
/// * a count order needs a counting pair, and the sort two stages on
///   parallel with a `merge` and starting no pair of its own;
/// * a sorting fold needs a parallel `sort` whose combiner merges in the
///   order it sorts by, that is not the sort of a counting pair (whose
///   fold keeps its own map) nor a sort a counting pair closes in the
///   order of.
fn license(statement: &Statement, evidence: &[Evidence], stages: &mut [PlannedStage]) {
    let command = |i: usize| &statement.stages[i].command;
    let at = |i: usize| evidence.get(i).copied().unwrap_or_default();
    let merges = |i: usize| at(i).parallel && at(i).merge_order.is_some();
    for (i, stage) in stages.iter_mut().enumerate() {
        stage.seam = at(i).rerun && command(i).newline_seam();
        if merges(i) && at(i + 1).parallel {
            stage.fold_pair = lattice::fold_pair(command(i), command(i + 1));
        }
    }
    for i in 0..stages.len() {
        let barrier = stages[..i]
            .iter()
            .rposition(|s| !s.streamable && !s.seam && s.line_bound.is_none());
        let since = barrier.map_or(0, |b| b + 1)..i;
        if !statement.stages[since].iter().any(|s| s.command.decodes()) {
            stages[i].line_bound = command(i).line_bound();
        }
    }
    for i in 0..stages.len() {
        let counting = stages[i].fold_pair == Some(lattice::FoldPair::Counting);
        let then_folds = stages
            .get(i + 2)
            .is_some_and(|then| then.fold_pair.is_some());
        if counting && merges(i + 2) && !then_folds {
            stages[i].count_order = lattice::count_order(command(i), command(i + 2));
        }
    }
    for i in 0..stages.len() {
        let absorbed = i >= 2 && stages[i - 2].count_order.is_some();
        let own_order =
            at(i).merge_order.is_some() && at(i).merge_order == command(i).stdin_order();
        stages[i].sorting = at(i).parallel
            && own_order
            && !absorbed
            && stages[i].fold_pair != Some(lattice::FoldPair::Counting);
    }
}

/// Planning result for a whole script.
#[derive(Debug)]
pub struct PlannedScript {
    /// Per-statement plans, parallel to `Script::statements`.
    pub statements: Vec<PlannedStatement>,
}

impl PlannedScript {
    /// Script-level `(parallelized, total)` sums (Table 3's leading pair).
    pub fn parallelized_counts(&self) -> (usize, usize) {
        self.statements
            .iter()
            .map(PlannedStatement::parallelized_counts)
            .fold((0, 0), |(a, b), (k, n)| (a + k, b + n))
    }

    /// Script-level eliminated-combiner count.
    pub fn eliminated_count(&self) -> usize {
        self.statements
            .iter()
            .map(PlannedStatement::eliminated_count)
            .sum()
    }
}

/// Bytes of the script's input that [`planning_sample`] hands the planner.
const PLANNING_SAMPLE_BYTES: usize = 64 * 1024;

/// The sample [`Planner::plan`] probes a script's commands on: the first
/// 64 KiB of the first input file any statement reads,
/// newline-terminated, or generic text when no statement reads a file that
/// exists yet.
///
/// Only the sampled prefix is copied — never the whole file, which may be
/// a multi-GB mapped region — and the cut walks back off UTF-8
/// continuation bytes, so a multi-byte character straddling the cap is
/// left out whole rather than split.
pub fn planning_sample(script: &Script, ctx: &ExecContext) -> String {
    for statement in &script.statements {
        if let InputSource::Files(files) = &statement.input {
            if let Some(content) = files.first().and_then(|f| ctx.vfs.read_bytes(f)) {
                let bytes = content.as_bytes();
                let mut cap = bytes.len().min(PLANNING_SAMPLE_BYTES);
                while cap > 0 && cap < bytes.len() && (bytes[cap] & 0xC0) == 0x80 {
                    cap -= 1;
                }
                let mut sample = String::from_utf8_lossy(&bytes[..cap]).into_owned();
                if !sample.ends_with('\n') {
                    sample.push('\n');
                }
                return sample;
            }
        }
    }
    "the quick brown fox\njumps over the lazy dog\nthe end\n".repeat(30)
}

/// A script ready for [`Planner::plan_all`]: its parse, the context its
/// commands run in, and the sample the planning probes run on.
pub struct PreparedScript {
    /// The parsed script.
    pub script: Script,
    /// The context its commands (and their syntheses) run in.
    pub ctx: ExecContext,
    /// The planning sample, e.g. a line-aligned slice of the script's
    /// input that `ctx` holds anyway. The probes read it as text: bytes
    /// that are not UTF-8 are replaced, in a copy.
    pub sample: Bytes,
}

/// What planning reads of one script: owned ([`PreparedScript`]) in a
/// many-script pass, borrowed in [`Planner::plan`].
trait PlanSource: Send + Sync {
    fn parts(&self) -> (&Script, &ExecContext, Cow<'_, str>);
}

impl PlanSource for PreparedScript {
    fn parts(&self) -> (&Script, &ExecContext, Cow<'_, str>) {
        let sample = String::from_utf8_lossy(self.sample.as_bytes());
        (&self.script, &self.ctx, sample)
    }
}

impl PlanSource for (&Script, &ExecContext, &str) {
    fn parts(&self) -> (&Script, &ExecContext, Cow<'_, str>) {
        (self.0, self.1, Cow::Borrowed(self.2))
    }
}

/// One cold command for the synthesis pool: its cache key and where it
/// stands in the script that uses it first. `Command` is not `Clone`, so
/// the job holds the script itself.
struct SynthJob<P> {
    key: String,
    source: Arc<P>,
    statement: usize,
    stage: usize,
}

impl<P: PlanSource> SynthJob<P> {
    fn synthesize(&self, config: &SynthesisConfig) -> SynthesisReport {
        let (script, ctx, _) = self.source.parts();
        let command = &script.statements[self.statement].stages[self.stage].command;
        synthesize(command, ctx, config)
    }
}

type SynthJobs<'a, P> = Jobs<'a, SynthJob<P>, (String, SynthesisReport)>;

/// The commands of a pass handed to the pool and not yet recorded.
#[derive(Default)]
struct Cold {
    submitted: HashSet<String>,
    finished: HashMap<String, SynthesisReport>,
}

impl Cold {
    /// Queues the synthesis of `key` unless a job for it is out already.
    fn submit<P>(
        &mut self,
        jobs: &SynthJobs<'_, P>,
        key: String,
        source: &Arc<P>,
        statement: usize,
        stage: usize,
    ) {
        if self.submitted.insert(key.clone()) {
            jobs.submit(SynthJob {
                key,
                source: source.clone(),
                statement,
                stage,
            });
        }
    }

    /// The report of `key`'s job, waiting for it and keeping the reports
    /// of the jobs that finish first.
    fn take<P>(&mut self, jobs: &SynthJobs<'_, P>, key: &str) -> SynthesisReport {
        let report = loop {
            if let Some(report) = self.finished.remove(key) {
                break report;
            }
            let (done, report) = jobs.next();
            self.finished.insert(done, report);
        };
        self.submitted.remove(key);
        report
    }
}

/// `(statement, stage, command)` for every stage reading stdin, in order.
fn stdin_commands(script: &Script) -> impl Iterator<Item = (usize, usize, &Command)> {
    script
        .statements
        .iter()
        .enumerate()
        .flat_map(|(si, statement)| {
            statement
                .stages
                .iter()
                .enumerate()
                .filter(|(_, stage)| stage.command.reads_stdin())
                .map(move |(gi, stage)| (si, gi, &stage.command))
        })
}

/// Output/input size ratio at or below which a rerun-only combiner still
/// pays off (paper §2's cost observation, probed on the planning sample).
/// A rerun combiner re-executes the command on the concatenated worker
/// outputs, so parallelizing only wins when the command *shrinks* its
/// stream — `sort -u` or `grep -c` do, `tr -cs A-Za-z '\n'` does not (that
/// one is sequential by this rule and runs chunk-local anyway, as a
/// [`PlannedStage::seam`]; a `sed 100q` has no such way out): at least a
/// 2× reduction.
const RERUN_SHRINK_THRESHOLD: f64 = 0.5;

/// The planner: synthesis cache plus heuristics.
pub struct Planner {
    config: SynthesisConfig,
    /// Combiner cache keyed by the command's argv words as written
    /// ([`cache_key`]); optionally backed by a versioned on-disk store.
    cache: CombinerCache,
    /// Synthesis reports for every unique command actually synthesized
    /// this process (Table 10 rows); cache hits produce none.
    pub reports: Vec<SynthesisReport>,
    /// Memoized `(output length, ends-with-newline)` probe results per
    /// (command display, sample fingerprint): identical commands used to
    /// re-run both planning probes in every statement mentioning them.
    /// `None` records a probe failure. Cleared at the start of every
    /// [`Planner::plan`] call: probe outputs can depend on `ExecContext`
    /// file state (`comm - dict`), so memoization is scoped to one
    /// (script, context) planning pass and must not leak across the
    /// fresh-context-per-script pattern corpus planning uses.
    probe_memo: HashMap<(String, u64), Option<(usize, bool)>>,
    /// Consult the static effect lattice ([`crate::lattice`]) before
    /// synthesizing: a [`lattice::EffectClass::Stateless`] command's
    /// combiner is plain `concat` by construction, so synthesis is
    /// short-circuited for it. The resulting plan is identical to the
    /// synthesis-only path (the combiner is the same, and the mode/
    /// streamability probes still run); the switch exists so the
    /// plan-identity differential test can pin exactly that.
    pub use_lattice: bool,
    /// Unique commands whose synthesis the lattice short-circuited this
    /// process (reported by the CLI's planning notes).
    pub lattice_short_circuits: usize,
}

impl Planner {
    /// A planner with the given synthesis configuration and a
    /// process-local cache.
    pub fn new(config: SynthesisConfig) -> Planner {
        let cache = CombinerCache::in_memory(&config);
        Planner::with_cache(config, cache)
    }

    /// A planner over an explicit combiner cache (e.g. one attached to an
    /// on-disk store via [`CombinerCache::open`]).
    pub fn with_cache(config: SynthesisConfig, cache: CombinerCache) -> Planner {
        Planner {
            config,
            cache,
            reports: Vec::new(),
            probe_memo: HashMap::new(),
            use_lattice: true,
            lattice_short_circuits: 0,
        }
    }

    /// Lookup/validation counters for the combiner cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Warnings accumulated while loading the on-disk cache.
    pub fn cache_warnings(&self) -> &[String] {
        &self.cache.warnings
    }

    /// The combiner cache's on-disk path, when disk-backed.
    pub fn cache_path(&self) -> Option<&std::path::Path> {
        self.cache.path()
    }

    /// Persists the combiner cache when it is disk-backed and dirty.
    /// Returns whether a write happened.
    pub fn save_cache(&mut self) -> Result<bool, String> {
        self.cache.save()
    }

    /// Registers a manually written combiner for a command line,
    /// bypassing synthesis — the workflow of the POSH/PaSh systems the
    /// paper compares against (§5), kept as an escape hatch for commands
    /// whose combiners synthesis cannot certify (e.g. a command reading
    /// files produced earlier in the same script). The caller asserts
    /// correctness; the executors still verify outputs against serial
    /// runs. Manual entries stay process-local: they are never persisted
    /// to the on-disk store (no synthesis provenance to validate). A line
    /// that names no shipped command is taken for the argv of a
    /// [`Command::custom`] stage, split into words as the shell would
    /// split it (or the whole line as one word, where it does not split).
    pub fn register_manual(
        &mut self,
        command_line: impl Into<String>,
        combiner: SynthesizedCombiner,
    ) {
        let line = command_line.into();
        // Key like any other lookup so stages naming this command find it.
        let key = match kq_coreutils::parse_command(&line) {
            Ok(cmd) => cache_key(&cmd),
            Err(_) => {
                let words = kq_coreutils::split_words(&line).unwrap_or_else(|_| vec![line]);
                crate::cache::custom_key(crate::cache::argv_key(&words))
            }
        };
        self.cache.insert(key, Some(Arc::new(combiner)), false);
    }

    /// Synthesizes (or recalls) the combiner for one command: an
    /// in-memory hit returns immediately, a disk hit is validated by
    /// replaying its candidates against a fresh observation
    /// ([`kq_synth::spot_check`]), and anything else synthesizes.
    pub fn combiner_for(
        &mut self,
        command: &kq_coreutils::Command,
        ctx: &ExecContext,
    ) -> Option<Arc<SynthesizedCombiner>> {
        let key = cache_key(command);
        if let Some(resolved) = self.resolve_cached(&key, command, ctx) {
            return resolved;
        }
        if let Some(combiner) = self.lattice_shortcut(&key, command) {
            return Some(combiner);
        }
        let report = synthesize(command, ctx, &self.config);
        self.record_synthesis(key, report)
    }

    /// The static short-circuit: a [`lattice::EffectClass::Stateless`]
    /// command gets its `concat` combiner without synthesis. The entry is
    /// cached process-locally but never persisted — the on-disk store
    /// stays purely synthesis-proven. Any other class returns `None`:
    /// those classes only promise a combiner *exists*, and planning from
    /// the promise instead of the observed plausible set could change the
    /// plan (rerun cost, elimination) relative to the synthesis path.
    fn lattice_shortcut(
        &mut self,
        key: &str,
        command: &kq_coreutils::Command,
    ) -> Option<Arc<SynthesizedCombiner>> {
        let combiner = Arc::new(self.lattice_combiner(command)?);
        kq_trace::instant("lattice", "short-circuit")
            .label(key)
            .emit();
        self.lattice_short_circuits += 1;
        self.cache
            .insert(key.to_owned(), Some(combiner.clone()), false);
        Some(combiner)
    }

    /// The combiner [`Planner::lattice_shortcut`] would install, with no
    /// side effect.
    fn lattice_combiner(&self, command: &Command) -> Option<SynthesizedCombiner> {
        if !self.use_lattice {
            return None;
        }
        lattice::static_combiner(command.effect_class())
    }

    /// Resolves `key` from the cache when possible: trusted in-memory
    /// entries outright, disk entries after replaying their candidates
    /// against a fresh observation. `None` means synthesis is required
    /// (a true miss, or a disk entry that failed validation).
    fn resolve_cached(
        &mut self,
        key: &str,
        command: &kq_coreutils::Command,
        ctx: &ExecContext,
    ) -> Option<Option<Arc<SynthesizedCombiner>>> {
        match self.cache.lookup(key) {
            CacheLookup::Ready(combiner) => {
                kq_trace::instant("cache", "hit").label(key).emit();
                Some(combiner)
            }
            CacheLookup::NeedsValidation(candidates) => {
                let span = kq_trace::span("cache", "validate")
                    .label(key)
                    .v(candidates.len() as f64);
                let valid = spot_check(command, ctx, &self.config, &candidates);
                span.done();
                let resolved = self
                    .cache
                    .resolve_validation(key, candidates, valid)
                    .map(Some);
                let verdict = if resolved.is_some() {
                    "validated"
                } else {
                    "rejected"
                };
                kq_trace::instant("cache", verdict).label(key).emit();
                resolved
            }
            CacheLookup::NeedsProbe => {
                let still_unsupported = matches!(
                    kq_synth::probe_profile(command, ctx),
                    InputProfile::Unsupported
                );
                let resolved = self.cache.resolve_probe(key, still_unsupported);
                let verdict = if resolved.is_some() {
                    "validated"
                } else {
                    "rejected"
                };
                kq_trace::instant("cache", verdict).label(key).emit();
                resolved
            }
            CacheLookup::Miss => {
                kq_trace::instant("cache", "miss").label(key).emit();
                None
            }
        }
    }

    /// Records one synthesis result: the report, the miss, and the cache
    /// entry. Unsupported-profile negatives describe the probe
    /// environment (e.g. a file the script writes later) as much as the
    /// command — they are stored as such and probed again before a later
    /// run trusts them.
    fn record_synthesis(
        &mut self,
        key: String,
        report: SynthesisReport,
    ) -> Option<Arc<SynthesizedCombiner>> {
        let combiner = report.combiner().cloned().map(Arc::new);
        if combiner.is_none() && matches!(report.profile, InputProfile::Unsupported) {
            self.cache.insert_unsupported(key);
        } else {
            self.cache.insert(key, combiner.clone(), true);
        }
        self.cache.stats.misses += 1;
        self.reports.push(report);
        combiner
    }

    /// Plans a whole script against a sample input (used for the shrink
    /// and stream-output probes): the one-script case of
    /// [`Planner::plan_all`].
    ///
    /// Phase one walks the script for its *distinct* stdin-reading
    /// commands and resolves each, the uncached ones as concurrent jobs on
    /// a [`SynthPool`] (one per command — synthesis output is worker-count
    /// independent, so the fan-out is invisible in the plan); phase two
    /// assembles the per-statement plans from cache hits alone.
    pub fn plan(&mut self, script: &Script, ctx: &ExecContext, sample: &str) -> PlannedScript {
        let Ok(mut plans) =
            self.plan_pass([Ok::<_, std::convert::Infallible>((script, ctx, sample))]);
        plans.pop().expect("one script in, one plan out")
    }

    /// Plans many scripts in order, returning their plans in that order.
    /// The first error a script's preparation yields ends the pass.
    ///
    /// One pass over all of them: while script *i* plans, the pass reads
    /// ahead — preparing at most [`SynthesisConfig::workers`] scripts
    /// beyond it — and queues each command that no cache entry, lattice
    /// shortcut or earlier job covers to the [`SynthPool`] (its long-lived
    /// threads, and the calling thread whenever it waits), one job per
    /// command, carrying the context of the script it first appears in.
    /// Script *i* then plans exactly as alone: its phase one waits for the
    /// jobs of the commands it uses and records them, in their order of
    /// first appearance, against the cache state a loop of
    /// [`Planner::plan`] would have reached. So the cache, its counters and
    /// the order of [`Planner::reports`] — hence the on-disk store — are
    /// the loop's, whatever the worker count. The read-ahead window is
    /// small because each prepared script waiting holds its context in
    /// memory; a one-worker pool synthesizes on the calling thread and
    /// reads no script ahead.
    pub fn plan_all<E>(
        &mut self,
        scripts: impl IntoIterator<Item = Result<PreparedScript, E>>,
    ) -> Result<Vec<PlannedScript>, E> {
        self.plan_pass(scripts)
    }

    fn plan_pass<P: PlanSource, E>(
        &mut self,
        scripts: impl IntoIterator<Item = Result<P, E>>,
    ) -> Result<Vec<PlannedScript>, E> {
        let pool = SynthPool::new(self.config.workers);
        // A one-worker pool runs jobs only when the caller waits for
        // them: reading ahead would hold scripts for nothing.
        let window = if pool.workers() > 1 {
            pool.workers()
        } else {
            0
        };
        // Distinct commands synthesize concurrently; each job keeps its
        // own phases serial, so the machine is not oversubscribed
        // workers² wide. The reports are the same either way.
        let job_config = SynthesisConfig {
            workers: 1,
            ..self.config.clone()
        };
        pool.serve(
            |job: SynthJob<P>| {
                let report = job.synthesize(&job_config);
                (job.key, report)
            },
            |jobs| {
                let mut scripts = scripts.into_iter();
                let mut held: VecDeque<Arc<P>> = VecDeque::new();
                let mut cold = Cold::default();
                let mut plans = Vec::new();
                loop {
                    while held.len() <= window {
                        let Some(source) = scripts.next() else {
                            break;
                        };
                        let source = Arc::new(source?);
                        self.submit_cold(&source, jobs, &mut cold);
                        held.push_back(source);
                    }
                    let Some(source) = held.pop_front() else {
                        break;
                    };
                    plans.push(self.plan_one(&source, jobs, &mut cold));
                }
                Ok(plans)
            },
        )
    }

    /// Queues every command of `source` that nothing covers yet — no cache
    /// entry, no lattice shortcut, no earlier job — touching no counter.
    /// Such a command stays uncovered until the first script using it
    /// plans (only its synthesis inserts it), so the job's report is the
    /// one that script's phase one would have computed.
    fn submit_cold<P: PlanSource>(
        &self,
        source: &Arc<P>,
        jobs: &SynthJobs<'_, P>,
        cold: &mut Cold,
    ) {
        let (script, _, _) = source.parts();
        for (statement, stage, command) in stdin_commands(script) {
            let key = cache_key(command);
            if !self.cache.contains(&key) && self.lattice_combiner(command).is_none() {
                cold.submit(jobs, key, source, statement, stage);
            }
        }
    }

    fn plan_one<P: PlanSource>(
        &mut self,
        source: &Arc<P>,
        jobs: &SynthJobs<'_, P>,
        cold: &mut Cold,
    ) -> PlannedScript {
        let (script, ctx, sample) = source.parts();
        let _plan_span = kq_trace::span("plan", "plan").v(script.statements.len() as f64);
        // Probe results depend on context file state; scope the memo to
        // this (script, context) pass.
        self.probe_memo.clear();
        self.synthesize_script_commands(source, jobs, cold);
        let statements = script
            .statements
            .iter()
            .map(|st| self.plan_statement(st, ctx, &sample))
            .collect();
        PlannedScript { statements }
    }

    /// Phase one of planning a script: resolve every distinct
    /// stdin-reading command — validating disk entries in order, then
    /// collecting the syntheses of the rest from the pool. Reports and
    /// cache entries land in first-appearance order regardless of which
    /// worker finishes first.
    fn synthesize_script_commands<P: PlanSource>(
        &mut self,
        source: &Arc<P>,
        jobs: &SynthJobs<'_, P>,
        cold: &mut Cold,
    ) {
        let (script, ctx, _) = source.parts();
        let mut pending: Vec<(String, usize, usize)> = Vec::new();
        for (statement, stage, command) in stdin_commands(script) {
            let key = cache_key(command);
            if pending.iter().any(|(k, ..)| *k == key) {
                continue;
            }
            if self.resolve_cached(&key, command, ctx).is_some() {
                continue;
            }
            if self.lattice_shortcut(&key, command).is_some() {
                continue;
            }
            pending.push((key, statement, stage));
        }
        // The read-ahead queued what was cold then; a disk entry that
        // failed validation, or an all-probes-failed verdict that no
        // longer holds, goes out now.
        for (key, statement, stage) in &pending {
            cold.submit(jobs, key.clone(), source, *statement, *stage);
        }
        for (key, ..) in pending {
            let report = cold.take(jobs, &key);
            self.record_synthesis(key, report);
        }
    }

    fn plan_statement(
        &mut self,
        statement: &Statement,
        ctx: &ExecContext,
        sample: &str,
    ) -> PlannedStatement {
        // First pass: decide sequential/parallel per stage, and keep what
        // synthesis found as the licences' evidence — none without the
        // lattice, which then licenses nothing.
        let n = statement.stages.len();
        let mut modes: Vec<StageMode> = Vec::with_capacity(n);
        let mut evidence = vec![Evidence::default(); n];
        for (idx, stage) in statement.stages.iter().enumerate() {
            let cmd = &stage.command;
            let combiner = if cmd.reads_stdin() {
                self.combiner_for(cmd, ctx)
            } else {
                None
            };
            let Some(combiner) = combiner else {
                modes.push(StageMode::Sequential);
                continue;
            };
            // §2: parallelizing with a rerun combiner only pays when the
            // command significantly reduces the stream.
            let parallel = !combiner.is_rerun() || self.shrinks_enough(cmd, ctx, sample);
            if self.use_lattice {
                evidence[idx] = Evidence {
                    parallel,
                    merge_order: combiner.merge_order(),
                    rerun: combiner.is_rerun(),
                };
            }
            modes.push(if parallel {
                StageMode::Parallel {
                    combiner,
                    eliminated: false,
                }
            } else {
                StageMode::Sequential
            });
        }
        // Second pass: probe once per parallel stage whether its outputs
        // are newline-terminated streams; with a concat combiner that makes
        // the stage chunk-local.
        let streamable: Vec<bool> = statement
            .stages
            .iter()
            .zip(&modes)
            .map(|(stage, mode)| match mode {
                StageMode::Parallel { combiner, .. } => {
                    combiner.is_concat() && self.outputs_streams(&stage.command, ctx, sample)
                }
                StageMode::Sequential => false,
            })
            .collect();
        PlannedStatement::new(statement, modes, streamable, &evidence)
    }

    /// One memoized probe run per (command display, sample): executes the
    /// command on the sample once and records everything both planning
    /// heuristics need — the output length (shrink ratio) and whether the
    /// output ends with a newline (Theorem 5's stream precondition).
    /// Identical commands used to pay both probe executions again in
    /// every statement that mentioned them.
    ///
    /// Byte-plane probe on purpose: a source command (`cat big-file`)
    /// ignores the sample and returns the file handle — under `run` that
    /// is a refcount bump whose length is O(1) to read, where `run_str`
    /// would copy a possibly mapped multi-GB output just to measure it.
    fn probe(
        &mut self,
        cmd: &kq_coreutils::Command,
        ctx: &ExecContext,
        sample: &str,
    ) -> Option<(usize, bool)> {
        let key = (cmd.display(), sample_fingerprint(sample));
        if let Some(memo) = self.probe_memo.get(&key) {
            return *memo;
        }
        let result = cmd
            .run(kq_coreutils::Bytes::from(sample), ctx)
            .ok()
            .map(|out| (out.len(), out.is_empty() || out.ends_with_newline()));
        self.probe_memo.insert(key, result);
        result
    }

    /// Probes whether the command shrinks the sample enough to justify a
    /// rerun combiner (see [`RERUN_SHRINK_THRESHOLD`]).
    fn shrinks_enough(
        &mut self,
        cmd: &kq_coreutils::Command,
        ctx: &ExecContext,
        sample: &str,
    ) -> bool {
        match self.probe(cmd, ctx, sample) {
            Some((out_len, _)) => {
                let ratio = out_len as f64 / sample.len().max(1) as f64;
                ratio <= RERUN_SHRINK_THRESHOLD
            }
            None => false,
        }
    }

    /// Theorem 5 precondition: outputs terminate with newlines.
    fn outputs_streams(
        &mut self,
        cmd: &kq_coreutils::Command,
        ctx: &ExecContext,
        sample: &str,
    ) -> bool {
        match self.probe(cmd, ctx, sample) {
            Some((_, ends_with_newline)) => ends_with_newline,
            None => false,
        }
    }
}

/// FNV-1a over the sample, so the probe memo distinguishes plan calls
/// with different samples while staying O(sample) once per call site.
fn sample_fingerprint(sample: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in sample.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^ (sample.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::{DataflowGraph, FoldBy, NodeKind, NodeMap};
    use crate::parse::parse_script;
    use std::collections::HashMap as Map;

    fn sample_text() -> String {
        let mut s = String::new();
        for i in 0..200 {
            s.push_str(&format!("the quick brown fox {i} jumps over dogs\n"));
        }
        s
    }

    fn plan(script_text: &str) -> (PlannedScript, Planner) {
        let env: Map<String, String> = [("IN".to_owned(), "/in.txt".to_owned())].into();
        let script = parse_script(script_text, &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", sample_text());
        let mut planner = Planner::new(SynthesisConfig::default());
        let planned = planner.plan(&script, &ctx, &sample_text());
        (planned, planner)
    }

    #[test]
    fn wf_pipeline_plan_matches_paper() {
        // §2: wf.sh — tr -cs runs sequentially (rerun, no shrink); the
        // other four stages parallelize; tr A-Z a-z's concat combiner is
        // eliminated into the following sort.
        let (planned, _) =
            plan("cat $IN | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn");
        let st = &planned.statements[0];
        assert_eq!(st.parallelized_counts(), (4, 5));
        assert_eq!(st.eliminated_count(), 1);
        assert!(
            !st.stages[0].mode.is_parallel(),
            "tr -cs must be sequential"
        );
        assert!(st.stages[1].mode.is_eliminated(), "tr A-Z a-z feeds sort");
        assert!(!st.stages[4].mode.is_eliminated(), "final combiner stays");
    }

    #[test]
    fn tr_d_newline_blocks_elimination() {
        // tr -d '\n' violates the Theorem 5 stream precondition; it still
        // parallelizes (concat combiner) but keeps its combiner.
        let (planned, _) = plan("cat $IN | tr -d '\\n' | wc -c");
        let st = &planned.statements[0];
        assert!(st.stages[0].mode.is_parallel());
        assert!(!st.stages[0].mode.is_eliminated());
    }

    #[test]
    fn no_combiner_stage_is_sequential() {
        let (planned, _) = plan("cat $IN | sed 1d | sort");
        let st = &planned.statements[0];
        assert!(!st.stages[0].mode.is_parallel());
        assert!(st.stages[1].mode.is_parallel());
        assert_eq!(st.parallelized_counts(), (1, 2));
    }

    #[test]
    fn synthesis_cache_reused_across_statements() {
        let (_, planner) = plan("cat $IN | sort\ncat $IN | sort");
        let sort_reports = planner
            .reports
            .iter()
            .filter(|r| r.command == "sort")
            .count();
        assert_eq!(sort_reports, 1);
    }

    #[test]
    fn a_detached_key_spec_plans_a_sorting_fold() {
        // `-k 1n` is one option in two words: the merge flags are both,
        // so the stage merges in its own order and folds raw chunks.
        let (planned, _) = plan("cat $IN | sort -k 1n");
        let stage = &planned.statements[0].stages[0];
        let StageMode::Parallel { combiner, .. } = &stage.mode else {
            panic!("sort -k 1n must plan [par]");
        };
        assert_eq!(combiner.primary().to_string(), "(merge(-k 1n) a b)");
        assert!(stage.sorting);
    }

    #[test]
    fn each_spelling_of_a_key_plans_on_its_own() {
        // The two spellings key apart, so a later `-k1n` is not planned
        // from the entry of an earlier `-k 1n`.
        let (planned, planner) = plan("cat $IN | sort -k 1n > /a\ncat $IN | sort -k1n > /b");
        for st in &planned.statements {
            assert_eq!(st.parallelized_counts(), (1, 1));
            assert!(st.stages[0].sorting);
        }
        assert_eq!(planner.reports.len(), 2);
    }

    #[test]
    fn last_stage_combiner_never_eliminated() {
        let (planned, _) = plan("cat $IN | tr A-Z a-z | tr a-z A-Z");
        let st = &planned.statements[0];
        assert!(st.stages[0].mode.is_eliminated());
        assert!(st.stages[1].mode.is_parallel());
        assert!(!st.stages[1].mode.is_eliminated());
    }

    #[test]
    fn manual_combiner_overrides_synthesis() {
        // `sed 1d` has no synthesizable combiner; a POSH-style manual
        // registration makes the stage parallel anyway (and a manual
        // rerun for `sed 1d` is wrong — this only checks plumbing; the
        // executor's serial-vs-parallel verification is what catches bad
        // manual combiners).
        use kq_dsl::ast::{Candidate, RecOp};
        use kq_synth::SynthesizedCombiner;
        let env: Map<String, String> = [("IN".to_owned(), "/in.txt".to_owned())].into();
        let script = parse_script("cat $IN | grep fox | sort", &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", sample_text());
        let mut planner = Planner::new(SynthesisConfig::default());
        planner.register_manual(
            "grep fox",
            SynthesizedCombiner::from_plausible(vec![Candidate::rec(RecOp::Concat)]),
        );
        let planned = planner.plan(&script, &ctx, &sample_text());
        assert!(planned.statements[0].stages[0].mode.is_parallel());
        // No synthesis report was produced for the manual command.
        assert!(planner.reports.iter().all(|r| r.command != "grep fox"));
    }

    #[test]
    fn lattice_short_circuits_stateless_commands_without_changing_the_plan() {
        let text = "cat $IN | grep fox | tr A-Z a-z | sort | uniq -c";
        let env: Map<String, String> = [("IN".to_owned(), "/in.txt".to_owned())].into();
        let script = parse_script(text, &env).unwrap();
        let shape = |planner: &mut Planner| {
            let ctx = ExecContext::default();
            ctx.vfs.write("/in.txt", sample_text());
            let planned = planner.plan(&script, &ctx, &sample_text());
            planned.statements[0]
                .stages
                .iter()
                .map(|s| {
                    (
                        s.mode.is_parallel(),
                        s.mode.is_eliminated(),
                        s.streamable,
                        s.line_bound,
                    )
                })
                .collect::<Vec<_>>()
        };
        let mut with = Planner::new(SynthesisConfig::default());
        let mut without = Planner::new(SynthesisConfig::default());
        without.use_lattice = false;
        assert_eq!(shape(&mut with), shape(&mut without));
        // grep and tr are stateless: neither synthesized with the lattice
        // on; both did with it off. sort/uniq -c always synthesize.
        assert_eq!(with.lattice_short_circuits, 2);
        assert_eq!(without.lattice_short_circuits, 0);
        let synthesized = |p: &Planner, c: &str| p.reports.iter().any(|r| r.command == c);
        assert!(!synthesized(&with, "grep fox"));
        assert!(!synthesized(&with, "tr A-Z a-z"));
        assert!(synthesized(&without, "grep fox"));
        assert!(synthesized(&with, "sort"));
        assert!(synthesized(&with, "uniq -c"));
    }

    #[test]
    fn licensed_sort_uniq_pairs_are_recorded_on_the_sort_stage() {
        use crate::lattice::FoldPair;
        let pairs = |text: &str| -> Vec<Option<FoldPair>> {
            let (planned, _) = plan(text);
            planned.statements[0]
                .stages
                .iter()
                .map(|s| s.fold_pair)
                .collect()
        };
        assert_eq!(
            pairs("cat $IN | tr A-Z a-z | sort | uniq -c | sort -rn"),
            vec![None, Some(FoldPair::Counting), None, None]
        );
        assert_eq!(
            pairs("cat $IN | sort -r | uniq | sort -f | uniq -c"),
            vec![Some(FoldPair::Unique), None, Some(FoldPair::Counting), None]
        );
        // The pairs the lattice does not license stay two stages, and so
        // does a licensed pair whose second stage runs sequentially.
        assert_eq!(pairs("cat $IN | sort -u | uniq -c"), vec![None, None]);
        assert_eq!(pairs("cat $IN | sort -f | uniq"), vec![None, None]);
        assert_eq!(pairs("cat $IN | sort /in.txt | uniq -c"), vec![None, None]);
        assert_eq!(pairs("cat $IN | sort | wc -l"), vec![None, None]);
        // Without the lattice the planner acts on nothing it says.
        let env: Map<String, String> = [("IN".to_owned(), "/in.txt".to_owned())].into();
        let script = parse_script("cat $IN | sort | uniq -c", &env).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", sample_text());
        let mut planner = Planner::new(SynthesisConfig::default());
        planner.use_lattice = false;
        let planned = planner.plan(&script, &ctx, &sample_text());
        assert!(planned.statements[0]
            .stages
            .iter()
            .all(|s| s.fold_pair.is_none()));
    }

    #[test]
    fn count_orders_are_recorded_on_the_counting_pairs_sort() {
        let closes = |text: &str| -> Vec<bool> {
            let (planned, _) = plan(text);
            planned.statements[0]
                .stages
                .iter()
                .map(|s| s.count_order.is_some())
                .collect()
        };
        for then in [
            "sort -rn",
            "sort -nr",
            "sort -n",
            "sort -k1nr",
            "sort -k1,1n",
            "sort -k1n -r",
        ] {
            for pair in ["sort | uniq -c", "sort -r | uniq -c"] {
                let text = format!("cat $IN | tr A-Z a-z | {pair} | {then} | head -n 3");
                assert_eq!(closes(&text), [false, true, false, false, false], "{text}");
            }
        }
        // Refusals: a counting sort not in byte order, a unique pair, a
        // next sort that is not numeric, has -u, -f, -s or an operand, or
        // starts a pair of its own; and a stage between.
        for text in [
            "cat $IN | sort -f | uniq -c | sort -rn",
            "cat $IN | sort -n | uniq -c | sort -rn",
            "cat $IN | sort | uniq | sort -rn",
            "cat $IN | sort | uniq -c | sort -r",
            "cat $IN | sort | uniq -c | sort -rnu",
            "cat $IN | sort | uniq -c | sort -rnf",
            "cat $IN | sort | uniq -c | sort -rns",
            "cat $IN | sort | uniq -c | sort -rn /in.txt",
            "cat $IN | sort | uniq -c | sort -n | uniq -c",
            "cat $IN | sort | uniq -c | grep 1 | sort -rn",
        ] {
            assert!(closes(text).iter().all(|c| !c), "{text}");
        }
        // The sort it closes in the order of is no sorting fold.
        let (planned, _) = plan("cat $IN | sort | uniq -c | sort -rn");
        let sorting: Vec<bool> = planned.statements[0]
            .stages
            .iter()
            .map(|s| s.sorting)
            .collect();
        assert_eq!(sorting, [false, false, false]);
    }

    #[test]
    fn seams_are_recorded_where_synthesis_found_a_licensed_rerun() {
        // (seam, parallel) per stage, planned against `sample`.
        let plan_on = |planner: &mut Planner, text: &str, sample: &str| -> Vec<(bool, bool)> {
            let env: Map<String, String> = [("IN".to_owned(), "/in.txt".to_owned())].into();
            let script = parse_script(text, &env).unwrap();
            let ctx = ExecContext::default();
            ctx.vfs.write("/in.txt", sample);
            let planned = planner.plan(&script, &ctx, sample);
            planned.statements[0]
                .stages
                .iter()
                .map(|s| (s.seam, s.mode.is_parallel()))
                .collect()
        };
        let seams = |planner: &mut Planner, text: &str| -> Vec<bool> {
            plan_on(planner, text, &sample_text())
                .into_iter()
                .map(|(seam, _)| seam)
                .collect()
        };
        let mut planner = Planner::new(SynthesisConfig::default());
        // On prose the splitter does not shrink its input: sequential, and
        // a seam. On a table of numbers it does: parallel, and a seam.
        let wf = "cat $IN | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort";
        assert_eq!(
            plan_on(&mut planner, wf, &sample_text()),
            [(true, false), (false, true), (false, true)]
        );
        let numbers = "12 345 6789 x 0 11 22 33 44 55\n".repeat(100);
        assert_eq!(
            plan_on(&mut planner, wf, &numbers)[0],
            (true, true),
            "a rerun that pays is still a seam"
        );
        assert_eq!(
            seams(
                &mut planner,
                "cat $IN | sort | tr -s ' ' '\\n' | tr -sc '[A-Z][a-z]' '[\\012*]'"
            ),
            [false, true, true]
        );
        // Squeezes the lattice refuses, and stages that are sequential for
        // another reason (`sed 1d`: no combiner at all).
        for text in [
            "cat $IN | tr -s '\\n' ' '",
            "cat $IN | tr -ds '\\n' x",
            "cat $IN | tr -cs 'A-Za-z\\n' ' '",
            "cat $IN | sed 1d | tr A-Z a-z",
        ] {
            assert!(seams(&mut planner, text).iter().all(|s| !s), "{text}");
        }
        // A licensed command whose combiner is not `rerun`: the planner
        // acts on what synthesis found, not on the licence alone.
        use kq_dsl::ast::{Candidate, RecOp};
        let mut manual = Planner::new(SynthesisConfig::default());
        manual.register_manual(
            "tr -cs A-Za-z '\\n'",
            SynthesizedCombiner::from_plausible(vec![Candidate::rec(RecOp::Concat)]),
        );
        assert_eq!(
            seams(&mut manual, "cat $IN | tr -cs A-Za-z '\\n' | sort"),
            [false, false]
        );
        // Without the lattice the planner acts on nothing it says.
        let mut without = Planner::new(SynthesisConfig::default());
        without.use_lattice = false;
        assert_eq!(
            seams(&mut without, "cat $IN | tr -cs A-Za-z '\\n' | sort"),
            [false, false]
        );
    }

    #[test]
    fn sorting_is_licensed_where_the_combiner_merges_in_the_sorts_own_order() {
        use kq_dsl::ast::{Candidate, RunOp};
        use kq_synth::SynthesizedCombiner;
        let sorting = |planner: &mut Planner, text: &str| -> Vec<bool> {
            let env: Map<String, String> = [("IN".to_owned(), "/in.txt".to_owned())].into();
            let script = parse_script(text, &env).unwrap();
            let ctx = ExecContext::default();
            ctx.vfs.write("/in.txt", sample_text());
            let planned = planner.plan(&script, &ctx, &sample_text());
            planned.statements[0]
                .stages
                .iter()
                .map(|s| s.sorting)
                .collect()
        };
        let mut planner = Planner::new(SynthesisConfig::default());
        for (text, expect) in [
            ("cat $IN | sort", &[true][..]),
            ("cat $IN | sort -nu | wc -l", &[true, false]),
            ("cat $IN | sort -fr --parallel=2", &[true]),
            // The unique pair sorts raw chunks; the counting pair counts.
            ("cat $IN | sort -r | uniq", &[true, false]),
            ("cat $IN | sort -rn | uniq -c", &[false, false]),
            // The counting fold closes in the order of the `sort -rn`
            // after it, which is no fold of its own; a sort it may not
            // close in the order of sorts raw chunks as ever.
            (
                "cat $IN | sort | uniq -c | sort -rn",
                &[false, false, false],
            ),
            (
                "cat $IN | sort | uniq -c | sort -rnu",
                &[false, false, true],
            ),
            // A merge, a file operand beside the input, a file instead of
            // it, and a stage that is no sort.
            ("cat $IN | sort -m", &[false]),
            ("cat $IN | sort - /in.txt", &[false]),
            ("cat $IN | grep o | sort /in.txt", &[false, false]),
            ("cat $IN | uniq -c", &[false]),
        ] {
            assert_eq!(sorting(&mut planner, text), expect, "{text}");
        }
        // A combiner that merges in another order than the sort sorts by
        // is refused; one that merges in the same order is licensed.
        let merge = |flags: &[&str]| {
            let flags = flags.iter().map(|f| f.to_string()).collect();
            SynthesizedCombiner::from_plausible(vec![Candidate::run(RunOp::Merge(flags))])
        };
        let mut manual = Planner::new(SynthesisConfig::default());
        manual.register_manual("sort -n", merge(&["-r"]));
        manual.register_manual("sort -f", merge(&["-f"]));
        assert_eq!(sorting(&mut manual, "cat $IN | sort -n"), [false]);
        assert_eq!(sorting(&mut manual, "cat $IN | sort -f"), [true]);
        // Nor does a `merge` make a merge, or a sort of more than its
        // input, a sort of its input chunks.
        manual.register_manual("sort -m", merge(&[]));
        manual.register_manual("sort - /in.txt", merge(&[]));
        assert_eq!(sorting(&mut manual, "cat $IN | sort -m"), [false]);
        assert_eq!(sorting(&mut manual, "cat $IN | sort - /in.txt"), [false]);
        // Without the lattice the planner acts on nothing it says.
        let mut without = Planner::new(SynthesisConfig::default());
        without.use_lattice = false;
        assert_eq!(sorting(&mut without, "cat $IN | sort"), [false]);
    }

    #[test]
    fn grep_then_count_parallelizes_fully() {
        let (planned, _) = plan("cat $IN | grep fox | wc -l");
        let st = &planned.statements[0];
        assert_eq!(st.parallelized_counts(), (2, 2));
        // grep's concat feeds wc -l directly.
        assert_eq!(st.eliminated_count(), 1);
    }

    #[test]
    fn streamable_stages_are_chunk_local_commands() {
        // grep/tr/cut stream; sort (merge) and uniq -c (stitch) barrier;
        // the final stage is streamable even with nothing after it
        // (unlike Theorem 5 elimination, chunk-locality does not depend
        // on the successor).
        let (planned, _) = plan("cat $IN | grep fox | tr A-Z a-z | sort | uniq -c");
        let st = &planned.statements[0];
        let flags: Vec<bool> = st.stages.iter().map(|s| s.streamable).collect();
        assert_eq!(flags, vec![true, true, false, false]);
        let (planned, _) = plan("cat $IN | cut -d ' ' -f 1 | grep fox");
        let st = &planned.statements[0];
        assert!(st.stages.iter().all(|s| s.streamable));
    }

    #[test]
    fn tr_d_newline_is_not_streamable() {
        // Concat combiner but non-stream outputs: chunk boundaries would
        // land mid-line downstream.
        let (planned, _) = plan("cat $IN | tr -d '\\n' | wc -c");
        assert!(!planned.statements[0].stages[0].streamable);
    }

    fn shape(graph: &DataflowGraph) -> Vec<(NodeKind, std::ops::Range<usize>)> {
        graph.nodes[1..]
            .iter()
            .map(|n| (n.kind, n.stages.clone()))
            .collect()
    }

    #[test]
    fn graph_fuses_streamable_runs_and_isolates_barriers() {
        // No stage here licenses a rewrite but fusion.
        let (planned, _) = plan("cat $IN | sed 1d | tr A-Z a-z | grep o | uniq | uniq -c | wc -l");
        let st = &planned.statements[0];
        let graph = DataflowGraph::build(st, true);
        let rerun = NodeKind::Fold {
            map: NodeMap::Raw,
            by: FoldBy::Rerun { bound: None },
        };
        let combine = NodeKind::Fold {
            map: NodeMap::Chain,
            by: FoldBy::Combiner,
        };
        let worker = NodeKind::StageWorker { seam: false };
        assert_eq!(
            shape(&graph),
            vec![
                (rerun, 0..1),   // sed 1d (sequential)
                (worker, 1..3),  // tr | grep fused
                (combine, 3..4), // uniq
                (combine, 4..5), // uniq -c
                (combine, 5..6), // wc -l
            ]
        );
        // Unfused: one node per stage.
        let unfused = DataflowGraph::build(st, false);
        assert_eq!(unfused.nodes.len(), 7);
        assert!(unfused.nodes[1..].iter().all(|n| n.stages.len() == 1));
    }

    #[test]
    fn prefix_bounded_stages_surface_their_line_bound() {
        let (planned, _) = plan("cat $IN | grep fox | head -n 1");
        let st = &planned.statements[0];
        assert_eq!(st.stages[0].line_bound, None);
        assert_eq!(st.stages[1].line_bound, Some(1));
        let (planned, _) = plan("cat $IN | sed 100q | sort");
        assert_eq!(planned.statements[0].stages[0].line_bound, Some(100));
        // Non-prefix-bounded line-windows stay unbounded.
        let (planned, _) = plan("cat $IN | sed 1d | sort");
        assert_eq!(planned.statements[0].stages[0].line_bound, None);
        let (planned, _) = plan("cat $IN | tail -n 1");
        assert_eq!(planned.statements[0].stages[0].line_bound, None);
        // Behind a stage that decodes, a bound holds only past a barrier:
        // a fold that reads all its input before the bound can fire. A
        // chunk-local stage, a seam stage or a bounded stage is none.
        let bounds = |text: &str| -> Vec<Option<usize>> {
            let (planned, _) = plan(text);
            planned.statements[0]
                .stages
                .iter()
                .map(|s| s.line_bound)
                .collect()
        };
        assert_eq!(bounds("cat $IN | sed s/o/0/ | head -n 3"), [None, None]);
        assert_eq!(
            bounds("cat $IN | sed s/o/0/ | sort | head -n 3"),
            [None, None, Some(3)]
        );
        assert_eq!(
            bounds("cat $IN | sort | sed s/o/0/ | head -n 3"),
            [None, None, None]
        );
        assert_eq!(
            bounds("cat $IN | sed s/o/0/ | tr -cs A-Za-z '\\n' | sed 2q"),
            [None, None, None]
        );
        // An unbounded `head` is a fold like any other.
        assert_eq!(
            bounds("cat $IN | sed s/o/0/ | head -n 5 | grep o | head -n 2"),
            [None, None, None, Some(2)]
        );
        assert_eq!(
            bounds("cat $IN | head -n 5 | sed s/o/0/ | head -n 2"),
            [Some(5), None, None]
        );
    }

    #[test]
    fn bounded_stages_form_their_own_graph_node_in_any_mode() {
        // head -n 1 plans parallel (First combiner); sed 100q plans with a
        // rerun combiner — both must become bounded rerun folds regardless.
        let graph = |text: &str| {
            let (planned, _) = plan(text);
            shape(&DataflowGraph::build(&planned.statements[0], true))
        };
        let bounded = |k| NodeKind::Fold {
            map: NodeMap::Raw,
            by: FoldBy::Rerun { bound: Some(k) },
        };
        let nodes = graph("cat $IN | grep fox | head -n 1");
        assert_eq!(nodes.last().map(|n| n.0), Some(bounded(1)));
        let nodes = graph("cat $IN | sed 100q | sort");
        assert_eq!(nodes[0], (bounded(100), 0..1));
        // A bounded stage never fuses into a neighboring streamable run.
        let nodes = graph("cat $IN | grep fox | head -n 2 | grep o");
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[1].0, bounded(2));
    }

    #[test]
    fn a_custom_command_named_like_a_built_in_gets_its_own_combiner() {
        use kq_coreutils::{Bytes, CmdError, UnixCommand};
        /// `grep x` by name, `grep -c x` by behaviour.
        struct CountingGrep;
        impl UnixCommand for CountingGrep {
            fn display(&self) -> String {
                "grep x".to_owned()
            }
            fn run(&self, input: Bytes, _: &ExecContext) -> Result<Bytes, CmdError> {
                let text = input
                    .to_str()
                    .map_err(|_| CmdError::new("grep", "not UTF-8"))?;
                let count = text.lines().filter(|line| line.contains('x')).count();
                Ok(Bytes::from(format!("{count}\n")))
            }
            // Hints come from the implementation, never from the argv:
            // without its pattern no generated line holds an `x`, and
            // `first` fits every observation.
            fn synthesis_hints(&self) -> kq_coreutils::SynthesisHints {
                kq_coreutils::parse_command("grep -c x")
                    .unwrap()
                    .synthesis_hints()
            }
        }
        let ctx = ExecContext::default();
        let mut planner = Planner::new(SynthesisConfig::default());
        let built_in = kq_coreutils::parse_command("grep x").unwrap();
        let concat = planner.combiner_for(&built_in, &ctx).unwrap();
        assert!(concat.is_concat());
        let custom = Command::custom(
            vec!["grep".to_owned(), "x".to_owned()],
            Box::new(CountingGrep),
        );
        let own = planner
            .combiner_for(&custom, &ctx)
            .expect("a line count has a combiner");
        assert!(!own.is_concat(), "the built-in's concat was handed out");
        let sum = own
            .combine2(b"2\n", b"3\n", &kq_dsl::eval::NoRunEnv)
            .unwrap();
        assert_eq!(sum.as_bytes(), b"5\n");
        assert_eq!(
            planner.reports.len(),
            1,
            "only the custom command synthesizes"
        );
    }

    #[test]
    fn a_counter_whose_observations_never_vary_runs_sequentially() {
        use kq_coreutils::{Bytes, CmdError, UnixCommand};
        /// Counts the lines that hold an `x`, and states no hints: no
        /// generated line holds one, so every observation is `0`.
        struct HintlessCounter;
        impl UnixCommand for HintlessCounter {
            fn display(&self) -> String {
                "count-x".to_owned()
            }
            fn run(&self, input: Bytes, _: &ExecContext) -> Result<Bytes, CmdError> {
                let lines = input.as_bytes().split(|&b| b == b'\n');
                let count = lines.filter(|line| line.contains(&b'x')).count();
                Ok(Bytes::from(format!("{count}\n")))
            }
        }
        let env: Map<String, String> = [("IN".to_owned(), "/in.txt".to_owned())].into();
        let mut script = parse_script("cat $IN | grep x", &env).unwrap();
        script.statements[0].stages[0].command =
            Command::custom(vec!["count-x".to_owned()], Box::new(HintlessCounter));
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", sample_text());
        let mut planner = Planner::new(SynthesisConfig::default());
        let planned = planner.plan(&script, &ctx, &sample_text());
        assert!(
            !planned.statements[0].stages[0].mode.is_parallel(),
            "one observation is no evidence for a combiner"
        );
        assert_eq!(planner.reports[0].observations, 1);
        let serial = crate::exec::run_serial(&script, &ctx).unwrap();
        assert_eq!(serial.output, "200\n");
        let opts = crate::scheduler::DataflowOptions {
            workers: 2,
            chunk: crate::scheduler::ChunkSizing::Fixed(1024),
            ..Default::default()
        };
        let parallel = crate::scheduler::run_dataflow(&script, &planned, &ctx, &opts).unwrap();
        assert_eq!(parallel.output, serial.output);
    }
}
