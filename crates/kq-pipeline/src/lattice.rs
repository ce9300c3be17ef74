//! PaSh-style static effect lattice over the command algebra.
//!
//! KumQuat discovers parallelizability *dynamically* (generate → observe →
//! filter); this module is the static complement: a conservative
//! classification of each command into an effect lattice derived from its
//! *normalized signature* (the same [`cache_key`] normalization the
//! combiner cache uses, so `grep -n -c p` and `grep -cn p` classify
//! identically).
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
//! the legality test over the two normalized signatures, the planner
//! records its answer on [`PlannedStage::fold_pair`], and
//! [`DataflowGraph::build`] turns a licensed pair of combine folds into
//! one fold spanning both stages (see "Counting rewrite" in
//! [`crate::dataflow`]).
//!
//! The condition on the sort is why `-u` and file operands are excluded.
//! The in-process `sort` compares by its flagged key and then, *absent
//! `-u`*, by the whole line's bytes — so under `-n`, `-r`, `-f` and `-k1n`
//! alike, lines that compare equal are identical and identical lines are
//! adjacent. `-u` switches that last resort off and keeps one line per
//! *key*: `sort -nu | uniq -c` counts spellings that survived, not lines
//! that occurred. `-m` does not sort at all. A file operand makes the
//! stream the concatenation of files the chunks never see (and a `sort`
//! that reads only files is a source, not a stage). `uniq` must be plain
//! or exactly `-c`: `-d`, `-u`, `-i`, `-f N` ask about runs in ways a count
//! per line does not answer. Any flag not named here means no rewrite.
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
//! it. [`count_order`] is that licence over the two sorts' parsed flags:
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
//! seam is an O(1) slice of the right-hand output. [`newline_seam`] asks
//! the parsed command ([`kq_coreutils::tr::TrCmd::newline_seam`]) whether
//! it is of that kind; the planner records the answer on
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
//! more lines at once. [`sorting_order`] licenses a stage for that: a
//! stdin-reading `sort` with no `-m` (which merges, not sorts) and no
//! operand (whose lines the chunks never see); the planner records it on
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
//! The table is deliberately *under*-approximating. A command is
//! classified below [`EffectClass::Unknown`] only when its whole
//! flag/operand shape is understood; any unrecognized flag falls back to
//! `Unknown` (= "ask synthesis"). The agreement test in `kq-analyze`
//! pins the invariant for every unique corpus command: the static class
//! is never *stronger* than what synthesis proves (`Stateless` ⇒
//! synthesis finds a concat combiner; `CommutativeFold` /
//! `PureParallelizable` ⇒ synthesis finds *a* combiner).

use crate::cache::cache_key;
use kq_coreutils::sort::{CountOrder, LineOrder, SortCmd};
use kq_coreutils::tr::TrCmd;
use kq_coreutils::Command;
use kq_dsl::ast::{Candidate, RecOp};
use kq_dsl::codec::unescape_token;
use kq_synth::SynthesizedCombiner;

/// The static effect classification (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffectClass {
    /// A per-line (or per-byte) pure map: combiner is plain `concat`.
    /// The planner short-circuits synthesis for these.
    Stateless,
    /// Parallelizable with a structured, order-aware combiner (`head -n k`
    /// keeps a prefix, `uniq` re-merges the piece boundary). Synthesis is
    /// still consulted — the class only promises a combiner exists.
    PureParallelizable,
    /// Parallelizable with an order-insensitive aggregate (`sort` merges,
    /// `wc`/`grep -c` sum). Synthesis is still consulted.
    CommutativeFold,
    /// Correct only on the whole stream in order (`tail`, `nl`, `tr -s`,
    /// `sed` with addresses): naive splitting changes observable output,
    /// so synthesis decides (it may still find a rerun combiner) — except
    /// where the state that crosses a split is known exactly, which is
    /// what [`newline_seam`] licenses for a line-splitting `tr -s`.
    OrderSensitive,
    /// Not statically understood; dynamic synthesis decides.
    Unknown,
}

impl EffectClass {
    /// Stable lowercase name (used by `kumquat check --format json`).
    pub fn as_str(self) -> &'static str {
        match self {
            EffectClass::Stateless => "stateless",
            EffectClass::PureParallelizable => "pure-parallelizable",
            EffectClass::CommutativeFold => "commutative-fold",
            EffectClass::OrderSensitive => "order-sensitive",
            EffectClass::Unknown => "unknown",
        }
    }
}

/// A command's normalized signature, recovered from its [`cache_key`]:
/// the program, the canonical flag set (clusters exploded, value-taking
/// options paired as `-f=value`, sorted), and the operands in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// The program name (`argv[0]`).
    pub program: String,
    /// Canonical flags (`-c`, `-n=3`, `--long`).
    pub flags: Vec<String>,
    /// Non-flag operands, in order.
    pub operands: Vec<String>,
}

impl Signature {
    /// True when a canonical boolean flag is present.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The value of a `-x=value` flag, when present.
    pub fn flag_value(&self, letter: char) -> Option<&str> {
        let prefix = [b'-', letter as u8, b'='];
        self.flags
            .iter()
            .find_map(|f| f.as_bytes().starts_with(&prefix).then(|| &f[3..]))
    }
}

/// Recovers the normalized [`Signature`] from a command's [`cache_key`].
/// Returns `None` for commands the normalizer does not understand (raw
/// keys — custom wrappers, unknown programs).
pub fn signature(command: &Command) -> Option<Signature> {
    let key = cache_key(command);
    let mut fields = key.split('\x1f');
    let program = fields.next()?.to_owned();
    if program == "raw" {
        return None;
    }
    let mut flags = Vec::new();
    let mut operands = Vec::new();
    let mut past_separator = false;
    for field in fields {
        if !past_separator && field == "|" {
            past_separator = true;
            continue;
        }
        // Keys are produced by `escape_token`; failures cannot happen on
        // round-tripped data, but stay conservative anyway.
        let token = unescape_token(field).ok()?;
        if past_separator {
            operands.push(token);
        } else {
            flags.push(token);
        }
    }
    Some(Signature {
        program,
        flags,
        operands,
    })
}

/// Classifies a command into the effect lattice.
///
/// Only commands that consume their standard input classify below
/// [`EffectClass::Unknown`]: a source command (`cat big.txt`,
/// `paste a b`) is a pipeline head, and its parallelization question does
/// not arise. Gating here also means operands are unambiguous — a
/// stdin-reading `grep`'s operand is its pattern, never a file.
pub fn classify(command: &Command) -> EffectClass {
    if !command.reads_stdin() {
        return EffectClass::Unknown;
    }
    let Some(sig) = signature(command) else {
        return EffectClass::Unknown;
    };
    match sig.program.as_str() {
        "cat" => classify_cat(&sig),
        "tr" => classify_tr(&sig),
        "grep" => classify_grep(&sig),
        "cut" => classify_cut(&sig),
        "sed" => classify_sed(&sig),
        "sort" => classify_sort(&sig),
        "wc" => EffectClass::CommutativeFold,
        "uniq" => classify_uniq(&sig),
        "head" => classify_head(&sig),
        "rev" | "expand" => classify_flagless_map(&sig),
        "fold" => classify_fold(&sig),
        // Whole-stream order dependence: position numbering, reversal,
        // suffixes, sorted two-way merges.
        "nl" | "tac" | "tail" | "comm" => EffectClass::OrderSensitive,
        _ => EffectClass::Unknown,
    }
}

fn classify_cat(sig: &Signature) -> EffectClass {
    if sig.flags.is_empty() {
        // A stdin-reading cat is the identity map.
        EffectClass::Stateless
    } else if sig.has_flag("-n") {
        // `cat -n` is line numbering.
        EffectClass::OrderSensitive
    } else {
        EffectClass::Unknown
    }
}

fn classify_tr(sig: &Signature) -> EffectClass {
    if sig.has_flag("-s") {
        // Squeezing repeats merges across any split point.
        EffectClass::OrderSensitive
    } else if sig
        .flags
        .iter()
        .all(|f| f == "-c" || f == "-C" || f == "-d")
    {
        // Translate/delete is a pure per-byte map. (This includes
        // `tr -d '\n'`: concat still holds byte-wise; whether its output
        // *streams* line-aligned is a separate, probed property.)
        EffectClass::Stateless
    } else {
        EffectClass::Unknown
    }
}

fn classify_grep(sig: &Signature) -> EffectClass {
    // Positional or contextual output depends on line positions/neighbors.
    let order_sensitive = ["-n", "-b"].iter().any(|f| sig.has_flag(f))
        || ['m', 'A', 'B', 'C']
            .iter()
            .any(|&l| sig.flag_value(l).is_some());
    if order_sensitive {
        return EffectClass::OrderSensitive;
    }
    // Selecting-form flags: each input line maps to itself or nothing.
    let selecting = |f: &String| {
        matches!(f.as_str(), "-i" | "-v" | "-w" | "-x" | "-E" | "-F" | "-o") || f.starts_with("-e=")
    };
    if sig.has_flag("-c") {
        // Per-piece counts sum.
        if sig.flags.iter().all(|f| f == "-c" || selecting(f)) {
            EffectClass::CommutativeFold
        } else {
            EffectClass::Unknown
        }
    } else if sig.flags.iter().all(selecting) {
        EffectClass::Stateless
    } else {
        EffectClass::Unknown
    }
}

fn classify_cut(sig: &Signature) -> EffectClass {
    let known = |f: &String| {
        f == "-s"
            || ['d', 'f', 'c', 'b']
                .iter()
                .any(|&l| f.as_bytes().starts_with(&[b'-', l as u8, b'=']))
    };
    if sig.flags.iter().all(known) {
        EffectClass::Stateless
    } else {
        EffectClass::Unknown
    }
}

fn classify_sed(sig: &Signature) -> EffectClass {
    // Only the plain single-script form is classified; `-n`, `-e`, and
    // multi-operand invocations fall through to synthesis.
    if !sig.flags.is_empty() || sig.operands.len() != 1 {
        return EffectClass::Unknown;
    }
    let script = sig.operands[0].as_str();
    let mut chars = script.chars();
    match chars.next() {
        // An address prefix (`1d`, `100q`, `$d`) pins behaviour to line
        // positions.
        Some(c) if c.is_ascii_digit() || c == '$' || c == '/' => EffectClass::OrderSensitive,
        // `s<d>pat<d>rep<d>flags` / `y<d>a<d>b<d>`: a per-line map,
        // provided the flags do not write files (`w`) — conservatively
        // require them to be the known per-line set.
        Some(op @ ('s' | 'y')) => {
            let Some(delim) = chars.next() else {
                return EffectClass::Unknown;
            };
            if delim.is_ascii_alphanumeric() || delim == '\\' {
                return EffectClass::Unknown;
            }
            let body = &script[op.len_utf8() + delim.len_utf8()..];
            let parts = split_sed_body(body, delim);
            match parts.as_slice() {
                [_, _, tail]
                    if tail
                        .chars()
                        .all(|c| c == 'g' || c == 'i' || c.is_ascii_digit()) =>
                {
                    EffectClass::Stateless
                }
                _ => EffectClass::Unknown,
            }
        }
        _ => EffectClass::Unknown,
    }
}

/// Splits a sed `s`/`y` body on its unescaped delimiters.
fn split_sed_body(body: &str, delim: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut escaped = false;
    for (idx, c) in body.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == delim {
            parts.push(&body[start..idx]);
            start = idx + c.len_utf8();
        }
    }
    parts.push(&body[start..]);
    parts
}

fn classify_sort(sig: &Signature) -> EffectClass {
    if sig.flag_value('o').is_some() {
        // `sort -o file` writes a file: an effect the lattice's pure
        // stream model does not cover.
        EffectClass::Unknown
    } else {
        EffectClass::CommutativeFold
    }
}

fn classify_uniq(sig: &Signature) -> EffectClass {
    if sig.flags.is_empty() || sig.flags == ["-c"] {
        // Plain `uniq` re-runs over the piece boundary; `uniq -c`
        // stitches boundary counts.
        EffectClass::PureParallelizable
    } else {
        EffectClass::Unknown
    }
}

fn classify_head(sig: &Signature) -> EffectClass {
    let line_form = match sig.flags.as_slice() {
        [] => true,
        [f] => {
            sig.flag_value('n')
                .is_some_and(|v| v.parse::<u64>().is_ok())
                || (f.starts_with('-') && f[1..].parse::<u64>().is_ok())
        }
        _ => false,
    };
    if line_form {
        // A line prefix: the first piece (or a rerun) combines.
        EffectClass::PureParallelizable
    } else {
        EffectClass::Unknown
    }
}

fn classify_flagless_map(sig: &Signature) -> EffectClass {
    if sig.flags.is_empty() {
        EffectClass::Stateless
    } else {
        EffectClass::Unknown
    }
}

fn classify_fold(sig: &Signature) -> EffectClass {
    let known = |f: &String| f == "-s" || f.starts_with("-w=");
    if sig.flags.iter().all(known) {
        // Wrapping long lines is a per-line map.
        EffectClass::Stateless
    } else {
        EffectClass::Unknown
    }
}

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
/// as adjacent stages, compute one keyed aggregation. Both commands must
/// read their standard input and take no operand; `sort` may carry `-n`,
/// `-r`, `-f` and a field-1 key (`-k1n` and its spellings) before
/// `uniq -c`, and nothing but `-r` before a plain `uniq`, which is
/// `sort -u` only in byte order. Conservative like [`classify`]: any flag
/// not listed here — `-u`, `-m`, `-s`, a long option — means `None`.
pub fn fold_pair(sort: &Command, uniq: &Command) -> Option<FoldPair> {
    if !sort.reads_stdin() || !uniq.reads_stdin() {
        return None;
    }
    let (sort, uniq) = (signature(sort)?, signature(uniq)?);
    if sort.program != "sort" || uniq.program != "uniq" {
        return None;
    }
    if !sort.operands.is_empty() || !uniq.operands.is_empty() {
        return None;
    }
    // `-k=1`, `-k=1n`, `-k=1,1n`, …: field one, with modifiers the flags
    // below also spell.
    let field1_key = |f: &String| {
        f.strip_prefix("-k=").is_some_and(|spec| {
            spec.split(',').all(|part| {
                part.strip_prefix('1')
                    .is_some_and(|mods| mods.chars().all(|m| matches!(m, 'n' | 'r' | 'f')))
            })
        })
    };
    let sort_flag = |f: &String| matches!(f.as_str(), "-n" | "-r" | "-f") || field1_key(f);
    if uniq.flags == ["-c"] && sort.flags.iter().all(sort_flag) {
        Some(FoldPair::Counting)
    } else if uniq.flags.is_empty() && sort.flags.iter().all(|f| f == "-r") {
        Some(FoldPair::Unique)
    } else {
        None
    }
}

/// The count-order licence (see the [module docs](self)): the order in
/// which `then`, the stage after a counting pair whose sort is `sort`,
/// puts the pair's output, when that order is the counts' first and the
/// lines' bytes second — `sort` in byte order (no flags, or `-r`), and
/// `then` a stdin-reading `sort` with no operand and none of `-m`, `-u`,
/// `-f` or `-s`, numeric on field one (`-n`, `-k1n`, `-k1,1n`) with `r`
/// given globally, on the key, or both. The counts go descending when the
/// key is reversed; within one count the lines go in byte order,
/// descending only when the last resort is (a global `-r`). Decided by the
/// in-process `sort`'s own parse of both argvs
/// ([`LineOrder::count_order`]). Whether `sort` and the `uniq -c` between
/// them are a counting pair is [`fold_pair`]'s question.
pub fn count_order(sort: &Command, then: &Command) -> Option<CountOrder> {
    sorting_order(sort)?.count_order(sorting_order(then)?)
}

/// The seam licence (see the [module docs](self)): `true` when `command`
/// is a stdin-reading `tr` that squeezes `'\n'` and neither deletes nor
/// retargets it, so that over non-empty line-aligned pieces
/// `f(x ++ y) = f(x) ++ (f(y) minus one leading '\n')`. Decided by the
/// in-process `tr`'s own parse of the argv; anything it rejects, and any
/// SET it does not run from its byte table, is `false`.
pub fn newline_seam(command: &Command) -> bool {
    command.reads_stdin()
        && command.program() == "tr"
        && TrCmd::parse(&command.argv()[1..]).is_ok_and(|tr| tr.newline_seam())
}

/// The sorting licence (see the [module docs](self)): the order in which
/// `command` sorts its standard input, when it is a stdin-reading `sort`
/// that the in-process command parses, with no `-m` and no operand —
/// `None` for anything else. A `sort` stage whose fold merges under this
/// same order may feed the fold its raw chunks, sorted there a batch at a
/// time (`sort(x1 ++ … ++ xk) = merge(sort(x1), …, sort(xk))`, ties to the
/// earlier input).
pub fn sorting_order(command: &Command) -> Option<LineOrder> {
    if !command.reads_stdin() || command.program() != "sort" {
        return None;
    }
    SortCmd::parse(&command.argv()[1..]).ok()?.stdin_order()
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
    use kq_coreutils::parse_command;

    fn class_of(line: &str) -> EffectClass {
        classify(&parse_command(line).unwrap())
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
    }

    #[test]
    fn fold_pairs_are_licensed_by_both_signatures() {
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
            assert_eq!(pair(sort, "uniq --count"), None, "long spelling: {sort}");
        }
        assert_eq!(pair("sort", "uniq"), Some(FoldPair::Unique));
        assert_eq!(pair("sort -r", "uniq"), Some(FoldPair::Unique));
        // Key-equal is not identical outside byte order.
        for sort in ["sort -f", "sort -n", "sort -k1n", "sort -rn"] {
            assert_eq!(pair(sort, "uniq"), None, "{sort} | uniq");
        }
        // -u, -m, -s, long options, operands.
        for sort in [
            "sort -u",
            "sort -nu",
            "sort -m",
            "sort -s",
            "sort --parallel=1",
            "sort f.txt",
            "sort -",
            "sort -n f.txt",
        ] {
            assert_eq!(pair(sort, "uniq -c"), None, "{sort} | uniq -c");
            assert_eq!(pair(sort, "uniq"), None, "{sort} | uniq");
        }
        // A `uniq` asking about runs (the in-process one parses no such
        // flag; a wrapped system binary would).
        let uniq_d = Command::custom(
            vec!["uniq".to_owned(), "-d".to_owned()],
            Box::new(kq_coreutils::uniq::UniqCmd::parse(&[]).unwrap()),
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
        let seam = |line: &str| newline_seam(&parse_command(line).unwrap());
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
        assert!(!newline_seam(&odd));
    }

    #[test]
    fn signature_round_trips_normalization() {
        let sig = signature(&parse_command("grep -cn p").unwrap()).unwrap();
        assert_eq!(sig.program, "grep");
        assert_eq!(sig.flags, vec!["-c", "-n"]);
        assert_eq!(sig.operands, vec!["p"]);
        let a = signature(&parse_command("cut -d, -f1").unwrap());
        let b = signature(&parse_command("cut -f 1 -d ','").unwrap());
        assert_eq!(a, b);
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
