//! PaSh-style static effect lattice over the command algebra.
//!
//! KumQuat discovers parallelizability *dynamically* (generate → observe →
//! filter); this module is the static complement: a conservative
//! classification of each command into an effect lattice. The lattice
//! records what a command *is*, and each command says so itself: its
//! parser in `kq-coreutils` reads the flags once and answers
//! [`Command::effect_class`], [`Command::stdin_order`],
//! [`Command::newline_seam`] and [`Command::collapses_runs`] from what it
//! parsed. Nothing here reads an argv; the rules below combine those
//! answers.
//!
//! ```text
//!                 Unknown
//!               /    |    \
//!   OrderSensitive   |   CommutativeFold
//!               \    |    /
//!            PureParallelizable
//!                    |
//!                Stateless
//! ```
//!
//! Lower is stronger. [`EffectClass::Stateless`] is the only class the
//! planner acts on *per command* without running anything: a stateless
//! command is a per-line (or per-byte) pure map, so
//! `f(x ++ y) = f(x) ++ f(y)` for line-aligned pieces and its combiner is
//! plain `concat` — exactly what dynamic synthesis would find, minus the
//! synthesis. Every other class is advisory on its own: it feeds
//! `kumquat check` diagnostics and the lattice/synthesis agreement test,
//! but planning still goes through synthesis so plans cannot silently
//! diverge from the observed-behaviour path.
//!
//! # Fold pairs: the first class acted on beyond `Stateless`
//!
//! A [`EffectClass::CommutativeFold`] `sort` followed by a
//! [`EffectClass::PureParallelizable`] `uniq` is where the lattice removes
//! work instead of skipping synthesis. `uniq` is order-aware only about
//! *adjacency*, and it needs the sort for nothing else: when the sort's
//! comparator calls two lines equal exactly when they are the same bytes,
//! the pair is one keyed aggregation — count (or keep one of) each
//! distinct line — whose per-chunk results merge by key. [`fold_pair`] is
//! the legality test over the sort's order and the uniq's answer, the planner
//! records its answer on [`PlannedStage::fold_pair`], and
//! [`DataflowGraph::build`] turns a licensed pair of combine folds into
//! one fold spanning both stages (see "Counting rewrite" in
//! [`crate::dataflow`]).
//!
//! The condition on the sort is why `-u`, `-s` and file operands are
//! excluded. The in-process `sort` compares by its flagged key and then,
//! *absent `-u` and `-s`*, by the whole line's bytes — so under `-n`,
//! `-r`, `-f` and `-k1n` alike, lines that compare equal are identical and
//! identical lines are adjacent. `-u` switches that last resort off and
//! keeps one line per *key*: `sort -nu | uniq -c` counts spellings that
//! survived, not lines that occurred. `-m` does not sort at all. A file
//! operand makes the stream the concatenation of files the chunks never
//! see (and a `sort` that reads only files is a source, not a stage): the
//! sort's [`Command::stdin_order`] is `None` for both, and
//! [`LineOrder::folds_runs`] decides the rest. The `uniq` must say that
//! it writes one line per run ([`Command::collapses_runs`]): `-d`, `-u`,
//! `-i`, `-f N` ask about runs in ways a count per line does not answer,
//! and the in-process `uniq` parses none of them.
//!
//! [`PlannedStage::fold_pair`]: crate::plan::PlannedStage::fold_pair
//! [`DataflowGraph::build`]: crate::dataflow::DataflowGraph::build
//!
//! # Count order: the `sort -rn` after a counting pair
//!
//! A counting pair's fold ends in the sort's key order, and a ranking
//! pipeline sorts that again: `sort | uniq -c | sort -rn`. But `sort -n`
//! of a counted run compares the counts and then, for equal counts — which
//! print equal columns — the lines' bytes, which is the very order the
//! counting sort left them in, or its reverse. So the third sort needs no
//! comparison at all: each line goes to the group of its count, the groups
//! go out by count, and a group's lines keep the counted order or reverse
//! it. [`count_order`] is that licence over the two sorts' orders:
//! the counting sort in byte order, the next sort numeric on field one and
//! otherwise plain. The planner records it on
//! [`PlannedStage::count_order`] of the pair's sort, and
//! [`DataflowGraph::build`] extends the pair's fold over the third stage
//! (see "Count-order rewrite" in [`crate::dataflow`]). GNU `sort` 9.1 on
//! `a b b c d | sort | uniq -c`: `-rn` gives `2 b, 1 d, 1 c, 1 a`;
//! `-k1nr` gives `2 b, 1 a, 1 c, 1 d` (`r` on the key reverses the key
//! alone); `-k1n -r` gives `1 d, 1 c, 1 a, 2 b` (a key with modifiers of
//! its own takes no global option, but the last resort still takes `-r`).
//!
//! [`PlannedStage::count_order`]: crate::plan::PlannedStage::count_order
//!
//! # Seams: an `OrderSensitive` command whose carried state is known
//!
//! `tr -s` is [`EffectClass::OrderSensitive`] because a squeeze reaches
//! across any split point, and synthesis finds it nothing better than
//! `rerun`. But *what* crosses the split is one character — the last one
//! written — and for the squeezes that split text into lines
//! (`tr -cs A-Za-z '\n'`, `tr -s ' ' '\n'`) that character is `'\n'` after
//! every non-empty line-aligned piece, whatever the piece held. So
//! `f(x ++ y) = f(x) ++ (f(y) minus one leading '\n')`: the `rerun` at the
//! seam is an O(1) slice of the right-hand output. The command says
//! whether it is of that kind ([`Command::newline_seam`], which the
//! in-process `tr` answers from its byte table); the planner records the
//! answer on
//! [`PlannedStage::seam`] where synthesis found `rerun` — the stage would
//! otherwise run once over its gathered input, or over its gathered chunk
//! outputs — and [`DataflowGraph::build`] runs such a stage chunk by chunk
//! (see "Seam rewrite" in [`crate::dataflow`]). The stage's planned *mode*
//! stays what the rerun-cost rule made it: the licence is a fact about the
//! dataflow graph, and every executor that runs stage by stage ignores it.
//!
//! [`PlannedStage::seam`]: crate::plan::PlannedStage::seam
//!
//! # Sorting folds: a `CommutativeFold` whose map is its combiner's work
//!
//! A parallel `sort` maps every chunk through `sort` and merges the sorted
//! chunks — and a merge of sorted pieces is what sorting them together
//! makes: `sort(x1 ++ … ++ xk) = merge(sort(x1), …, sort(xk))`, where the
//! merge hands ties to the earlier piece and a stable sort keeps them in
//! input order. So the sort of each chunk is work the fold could do on
//! more lines at once. The command's [`Command::stdin_order`] licenses a
//! stage for that: a stdin-reading `sort` with no `-m` (which merges, not
//! sorts) and no operand (whose lines the chunks never see) has one; the
//! planner records it on
//! [`PlannedStage::sorting`] where the stage's combiner merges under that
//! very order — the order the fold's sorts must keep — and
//! [`DataflowGraph::build`] turns the stage's fold into one fed raw chunks
//! (see "Sorting rewrite" in [`crate::dataflow`]). A `sort | uniq -c`
//! counting fold keeps its own map, so a sort the counting rewrite takes
//! is not marked.
//!
//! [`PlannedStage::sorting`]: crate::plan::PlannedStage::sorting
//!
//! # Soundness
//!
//! The table is deliberately *under*-approximating. A command classifies
//! below [`EffectClass::Unknown`] only when its own parser understood its
//! whole flag/operand shape, and only when it reads its standard input (a
//! source's parallelization question does not arise). A command gets
//! only what its implementation claims: a [`Command::custom`] wrapper
//! whose implementation claims nothing is `Unknown` (= "ask synthesis")
//! and gets no licence, whatever its `argv[0]` says. The
//! agreement test in `kq-analyze` pins the invariant for every unique
//! corpus command: the static class is never *stronger* than what
//! synthesis proves (`Stateless` ⇒ synthesis finds a concat combiner;
//! `CommutativeFold` / `PureParallelizable` ⇒ synthesis finds *a*
//! combiner).
//!
//! [`LineOrder::folds_runs`]: kq_coreutils::sort::LineOrder::folds_runs

use kq_coreutils::sort::CountOrder;
use kq_coreutils::Command;
pub use kq_coreutils::EffectClass;
use kq_dsl::ast::{Candidate, RecOp};
use kq_synth::SynthesizedCombiner;

/// What a `sort` stage and the `uniq` stage that follows it fold into when
/// the pair is one keyed aggregation (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FoldPair {
    /// `sort <flags> | uniq -c`: per chunk, the distinct lines with their
    /// counts; the fold merges them adding the counts of equal lines.
    Counting,
    /// `sort [-r] | uniq`, where key-equal is identical: per chunk
    /// `sort -u`; the fold is the `-u` merge.
    Unique,
}

impl FoldPair {
    /// Stable lowercase name (run notes, `kumquat check`).
    pub fn as_str(self) -> &'static str {
        match self {
            FoldPair::Counting => "counting",
            FoldPair::Unique => "unique",
        }
    }
}

/// The legality test of the counting rewrite: `Some` when `sort | uniq`,
/// as adjacent stages, compute one keyed aggregation — the `uniq` writes
/// one line per run ([`Command::collapses_runs`]), and the `sort` sorts
/// its standard input ([`Command::stdin_order`]) under an order whose
/// equal lines are identical, and in byte order before a plain `uniq`
/// ([`LineOrder::folds_runs`](kq_coreutils::sort::LineOrder::folds_runs)).
pub fn fold_pair(sort: &Command, uniq: &Command) -> Option<FoldPair> {
    let counts = uniq.collapses_runs()?;
    let pair = if counts {
        FoldPair::Counting
    } else {
        FoldPair::Unique
    };
    sort.stdin_order()?.folds_runs(counts).then_some(pair)
}

/// The count-order licence (see the [module docs](self)): the order in
/// which `then`, the stage after a counting pair whose sort is `sort`,
/// puts the pair's output, when that order is the counts' first and the
/// lines' bytes second — `sort` in byte order (no flags, or `-r`), and
/// `then` a stdin-reading `sort` with no operand and none of `-m`, `-u`,
/// `-f` or `-s`, numeric on field one (`-n`, `-k1n`, `-k1,1n`) with `r`
/// given globally, on the key, or both. The counts go descending when the
/// key is reversed; within one count the lines go in byte order,
/// descending only when the last resort is (a global `-r`). Decided from
/// the two sorts' own orders ([`Command::stdin_order`],
/// [`LineOrder::count_order`](kq_coreutils::sort::LineOrder::count_order)).
/// Whether `sort` and the `uniq -c` between them are a counting pair is
/// [`fold_pair`]'s question.
pub fn count_order(sort: &Command, then: &Command) -> Option<CountOrder> {
    sort.stdin_order()?.count_order(then.stdin_order()?)
}

/// The combiner a classification certifies without synthesis: plain
/// `concat` for [`EffectClass::Stateless`], nothing for every other class
/// (they only *promise* a combiner exists; synthesis must still find it so
/// plans stay identical to the observed-behaviour path).
pub fn static_combiner(class: EffectClass) -> Option<SynthesizedCombiner> {
    match class {
        EffectClass::Stateless => Some(SynthesizedCombiner::from_plausible(vec![Candidate::rec(
            RecOp::Concat,
        )])),
        _ => None,
    }
}

/// A command's read effect set, which the scheduler's conservative
/// dependency pass reads ([`crate::scheduler::VfsAccess`]): any argv
/// word may name a file the command reads (`comm - dict`, `paste a b`),
/// and `xargs` reads paths from its *data*, which no static scan can
/// bound.
#[derive(Debug, Clone, Default)]
pub struct EffectSet {
    /// The command consumes its standard input.
    pub reads_stdin: bool,
    /// argv words that may name read files (everything after the program).
    pub reads: Vec<String>,
    /// `xargs`: the read set is unbounded.
    pub reads_everything: bool,
}

/// Extracts a command's [`EffectSet`].
pub fn effects(command: &Command) -> EffectSet {
    EffectSet {
        reads_stdin: command.reads_stdin(),
        reads: command.argv().iter().skip(1).cloned().collect(),
        reads_everything: command.program() == "xargs",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kq_coreutils::external::ExternalCommand;
    use kq_coreutils::parse_command;

    fn class_of(line: &str) -> EffectClass {
        parse_command(line).unwrap().effect_class()
    }

    #[test]
    fn stateless_per_line_maps() {
        for line in [
            "cat",
            "grep fox",
            "grep -i -v pattern",
            "grep -F a.c",
            "grep -Fvi a.c",
            "grep -e fox",
            "tr A-Z a-z",
            "tr -d '\\n'",
            "tr -cs A-Za-z '\\n'", // squeeze: must NOT be stateless
            "cut -d ' ' -f 1",
            "cut -c 1-5",
            "rev",
            "sed 's/a/b/g'",
            // The script as `-e`'s value is the same parsed script.
            "sed -e 's/a/b/g'",
        ] {
            let class = class_of(line);
            if line.contains("-cs") {
                assert_eq!(class, EffectClass::OrderSensitive, "{line}");
            } else {
                assert_eq!(class, EffectClass::Stateless, "{line}");
            }
        }
    }

    #[test]
    fn folds_and_parallelizable() {
        assert_eq!(class_of("sort"), EffectClass::CommutativeFold);
        assert_eq!(class_of("sort -rn"), EffectClass::CommutativeFold);
        assert_eq!(class_of("wc -l"), EffectClass::CommutativeFold);
        assert_eq!(class_of("grep -c fox"), EffectClass::CommutativeFold);
        assert_eq!(class_of("grep -cF fox"), EffectClass::CommutativeFold);
        assert_eq!(class_of("grep -vce fox"), EffectClass::CommutativeFold);
        assert_eq!(class_of("uniq"), EffectClass::PureParallelizable);
        assert_eq!(class_of("uniq -c"), EffectClass::PureParallelizable);
        assert_eq!(class_of("head -n 3"), EffectClass::PureParallelizable);
    }

    #[test]
    fn order_sensitive_and_unknown() {
        assert_eq!(class_of("tail -n 1"), EffectClass::OrderSensitive);
        assert_eq!(class_of("nl"), EffectClass::OrderSensitive);
        assert_eq!(class_of("cat -n"), EffectClass::OrderSensitive);
        assert_eq!(class_of("grep -n fox"), EffectClass::OrderSensitive);
        assert_eq!(class_of("grep -nF fox"), EffectClass::OrderSensitive);
        assert_eq!(class_of("sed '1d'"), EffectClass::OrderSensitive);
        assert_eq!(class_of("sed '100q'"), EffectClass::OrderSensitive);
        assert_eq!(class_of("sed '$d'"), EffectClass::OrderSensitive);
        assert_eq!(class_of("awk '{print $1}'"), EffectClass::Unknown);
        assert_eq!(class_of("xargs wc -l"), EffectClass::Unknown);
        // Sources never classify: the parallelization question is moot.
        assert_eq!(class_of("cat big.txt"), EffectClass::Unknown);
        // Nor does a file around the input: its lines join the pieces'.
        assert_eq!(class_of("cat - big.txt"), EffectClass::Unknown);
        assert_eq!(class_of("cat big.txt -"), EffectClass::Unknown);
        assert_eq!(class_of("cat - -"), EffectClass::Unknown);
    }

    #[test]
    fn fold_pairs_are_licensed_by_both_commands() {
        let pair = |sort: &str, uniq: &str| {
            fold_pair(&parse_command(sort).unwrap(), &parse_command(uniq).unwrap())
        };
        for sort in [
            "sort",
            "sort -n",
            "sort -r",
            "sort -rn",
            "sort -nr",
            "sort -f",
            "sort -fr",
            "sort -k1n",
            "sort -k 1n",
            "sort -k1,1n",
            "sort -r -n",
        ] {
            assert_eq!(pair(sort, "uniq -c"), Some(FoldPair::Counting), "{sort}");
            // `uniq` parses the long spelling to the same command.
            assert_eq!(
                pair(sort, "uniq --count"),
                Some(FoldPair::Counting),
                "{sort}"
            );
        }
        // `sort` ignores `--parallel`: the order is the same.
        assert_eq!(
            pair("sort --parallel=1", "uniq -c"),
            Some(FoldPair::Counting)
        );
        assert_eq!(pair("sort --parallel=2", "uniq"), Some(FoldPair::Unique));
        assert_eq!(pair("sort", "uniq"), Some(FoldPair::Unique));
        assert_eq!(pair("sort -r", "uniq"), Some(FoldPair::Unique));
        // Key-equal is not identical outside byte order.
        for sort in ["sort -f", "sort -n", "sort -k1n", "sort -rn"] {
            assert_eq!(pair(sort, "uniq"), None, "{sort} | uniq");
        }
        // -u, -m, -s, operands.
        for sort in [
            "sort -u",
            "sort -nu",
            "sort -m",
            "sort -s",
            "sort f.txt",
            "sort -",
            "sort -n f.txt",
        ] {
            assert_eq!(pair(sort, "uniq -c"), None, "{sort} | uniq -c");
            assert_eq!(pair(sort, "uniq"), None, "{sort} | uniq");
        }
        // A `uniq` asking about runs (the in-process one parses no such
        // flag; a wrapped system binary does, and claims nothing).
        let words = ["uniq".to_owned(), "-d".to_owned()];
        let uniq_d = Command::custom(
            words.to_vec(),
            Box::new(ExternalCommand::new(&words).unwrap()),
        );
        assert_eq!(fold_pair(&parse_command("sort").unwrap(), &uniq_d), None);
        // Only `sort` then `uniq`, in that order.
        assert_eq!(pair("uniq -c", "sort"), None);
        assert_eq!(pair("sort", "sort"), None);
        assert_eq!(pair("sort", "wc -l"), None);
    }

    #[test]
    fn count_orders_are_licensed_by_the_parsed_sorts() {
        let order = |sort: &str, then: &str| {
            count_order(&parse_command(sort).unwrap(), &parse_command(then).unwrap())
        };
        for sort in ["sort", "sort -r", "sort -k1"] {
            for then in [
                "sort -n",
                "sort -rn",
                "sort -nr",
                "sort -r -n",
                "sort -k1n",
                "sort -k 1n",
                "sort -k1,1n",
                "sort -k1nr",
                "sort -k1,1nr",
                "sort -k1n -r",
                "sort -rn --parallel=1",
            ] {
                assert!(order(sort, then).is_some(), "{sort} | uniq -c | {then}");
            }
            // Not numeric, -m, -u, -f, -s, an operand, or not a sort.
            for then in [
                "sort",
                "sort -r",
                "sort -rnm",
                "sort -rnu",
                "sort -rnf",
                "sort -rns",
                "sort -rn f.txt",
                "sort -rn -",
                "sort -n -k1r",
                "uniq -c",
                "head -n 3",
            ] {
                assert!(order(sort, then).is_none(), "{sort} | uniq -c | {then}");
            }
        }
        // The counting sort must be byte order.
        for sort in [
            "sort -n",
            "sort -f",
            "sort -fr",
            "sort -k1n",
            "sort -u",
            "sort -m",
        ] {
            assert!(order(sort, "sort -rn").is_none(), "{sort}");
        }
        // `r` on the key turns the counts round; a global `-r` the lines of
        // one count, against the counting sort's byte order.
        let rn = order("sort", "sort -rn").unwrap();
        assert!(rn.precedes(2, 1) && rn.against_stream());
        let key_r = order("sort", "sort -k1nr").unwrap();
        assert!(key_r.precedes(2, 1) && !key_r.against_stream());
        let global_r = order("sort", "sort -k1n -r").unwrap();
        assert!(global_r.precedes(1, 2) && global_r.against_stream());
        assert!(!order("sort -r", "sort -rn").unwrap().against_stream());
    }

    #[test]
    fn seams_are_licensed_by_the_parsed_sets() {
        let seam = |line: &str| parse_command(line).unwrap().newline_seam();
        for line in [
            "tr -cs A-Za-z '\\n'",
            "tr -sc '[A-Z][a-z]' '[\\012*]'",
            "tr -s ' ' '\\n'",
            "tr -c -s A-Za-z '\\n'",
        ] {
            assert!(seam(line), "{line}");
            assert_eq!(class_of(line), EffectClass::OrderSensitive, "{line}");
        }
        for line in [
            "tr -s '\\n' ' '",
            "tr -ds '\\n' x",
            "tr -cs 'A-Za-z\\n' ' '",
            "tr -c A-Za-z '\\n'",
            "tr A-Z a-z",
            "sort",
            "uniq",
        ] {
            assert!(!seam(line), "{line}");
        }
        // A command that only calls itself `tr` but takes what `tr` does
        // not parse.
        let odd = Command::custom(
            vec!["tr".to_owned(), "--squeeze".to_owned()],
            Box::new(kq_coreutils::uniq::UniqCmd::parse(&[]).unwrap()),
        );
        assert!(!odd.newline_seam());
    }

    #[test]
    fn spellings_of_one_command_classify_alike() {
        // The class comes from the parsed command, not from how its
        // flags were written.
        assert_eq!(class_of("grep -n -c p"), class_of("grep -cn p"));
        assert_eq!(class_of("cut -d, -f1"), class_of("cut -f 1 -d ','"));
        assert_eq!(class_of("head -3"), class_of("head -n 3"));
    }

    #[test]
    fn static_combiner_only_for_stateless() {
        let c = static_combiner(EffectClass::Stateless).unwrap();
        assert!(c.is_concat());
        for class in [
            EffectClass::PureParallelizable,
            EffectClass::CommutativeFold,
            EffectClass::OrderSensitive,
            EffectClass::Unknown,
        ] {
            assert!(static_combiner(class).is_none());
        }
    }

    #[test]
    fn effects_mirror_the_scheduler_pass() {
        let e = effects(&parse_command("comm -23 - /dict").unwrap());
        assert!(e.reads_stdin);
        assert_eq!(e.reads, vec!["-23", "-", "/dict"]);
        assert!(!e.reads_everything);
        let e = effects(&parse_command("xargs cat").unwrap());
        assert!(e.reads_everything);
    }
}
