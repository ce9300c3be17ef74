//! The candidate space `G_n` (Definition 3.7) held implicitly, and the one
//! question synthesis asks of it: *which candidates are plausible for this
//! observation?*
//!
//! # Ids instead of trees
//!
//! A [`CandidateSpace`] is a handful of counts derived from an
//! [`EnumConfig`]. Candidate `id` is the element `id` of the enumeration
//! order ([`enumerate_candidates`](crate::enumerate_candidates) is
//! `(0..len).map(candidate)`): every combiner in both argument orders
//! (`2c` unswapped, `2c + 1` swapped), RecOps first, then `stitch`,
//! `offset` and `stitch2`, then `rerun` and `merge`. A RecOp is a chain of
//! `front`/`back`/`fuse` wrappers over one of four leaves, so RecOp index
//! `r` decodes digit by digit: `r < 4` is a leaf, otherwise
//! `(r - 4) % 3k` names the *outermost* wrapper (`k` delimiters, three
//! kinds each) and `(r - 4) / 3k` is the index of what it wraps. The
//! RecOps of at most `e` expansions are exactly the indices below
//! `rec_count[e]`, so one index space serves every budget — the children
//! of `stitch`/`offset`, and the two children of `stitch2` that share one.
//!
//! # One walk per observation
//!
//! All candidates that begin with the same wrappers share a prefix of
//! that digit string: the space is a trie, and a wrapper that cannot apply
//! to an observation rules out everything below it. [`passing`] walks the
//! trie top-down carrying what the operator at each node still has to do:
//! a list of `(a, b, want)` triples it must map, and a list of strings
//! that must lie in its domain.
//!
//! * `front d` / `back d` strip `d` from every string carried, or cut the
//!   subtree when one lacks it (the result starts/ends with `d` by
//!   construction, so `want` must too).
//! * `fuse d` splits all three strings of a triple into equally many
//!   pieces and carries the pieces. Comparing piecewise is exact, not an
//!   approximation: the child is applied to pieces that contain no `d`,
//!   and no RecOp can produce a `d` from such arguments (`front d`/`back d`
//!   find nothing to strip, `fuse d` nothing to split, the leaves only
//!   copy or add), so the joined result splits back into exactly the
//!   child's results.
//! * the leaves compare `want` against `a`, `b`, their concatenation or
//!   their sum.
//! * `stitch b` and `offset d b` become a walk of the child space: their
//!   own rule fixes how much of `want` the child must produce from the
//!   boundary line(s) — one triple per rewritten line — while every other
//!   line only has to lie in `L(b)`.
//! * `stitch2 d b1 b2` factors: `b1` sees only first fields, `b2` only
//!   the rests, so one walk over heads and one over tails decide the whole
//!   product.
//!
//! # Sound, then confirmed
//!
//! The walk is a *pruning*: it must keep every plausible candidate, and
//! nothing else is asked of it. Each id it keeps is then confirmed by
//! [`plausible`] on the decoded candidate, which stays the single
//! definition of the semantics (`eval` + `in_domain`) — used unchanged at
//! run time, by the cache's spot check, and as the oracle of this
//! module's tests, which compare [`passing`] against plausibility of all
//! 110 444 candidates. The walk never returns a verdict of its own, so a
//! slip in it can cost time but not change an answer, unless it drops a
//! plausible id — which is what the differential tests exist to catch.
//!
//! [`passing`]: CandidateSpace::passing

use crate::ast::{Candidate, Combiner, RecOp, RunOp, StructOp};
use crate::domain::{rec_in_domain, table_line};
use crate::enumerate::{EnumConfig, SpaceBreakdown};
use crate::eval::{add_digit_runs, RunEnv};
use crate::{plausible, Observation};
use kq_stream::{
    count_delim, del_back, del_front, lines_of, split_first, split_first_line, split_last_line,
    split_last_nonempty_line, Delim,
};
use std::cell::Cell;

/// `add`, `concat`, `first`, `second` — RecOp indices `0..4`.
const LEAVES: usize = 4;
/// `front`, `back`, `fuse` — the wrapper kinds, in enumeration order.
const WRAPPERS: usize = 3;

/// The candidate space of one command, never materialised (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub struct CandidateSpace {
    delims: Vec<Delim>,
    merge_flags: Vec<String>,
    /// Expansions a whole combiner may use (`max_size - 2`).
    budget: usize,
    /// `rec_count[e]`: RecOps of at most `e` expansions, which are the
    /// RecOp indices below it.
    rec_count: Vec<usize>,
    /// Combiner index (id / 2) at which each class after the RecOps
    /// starts.
    stitch_at: usize,
    offset_at: usize,
    stitch2_at: usize,
    run_at: usize,
    /// `stitch2` combiners per delimiter.
    stitch2_block: usize,
    /// Trie nodes entered by every walk so far.
    nodes: Cell<u64>,
}

/// What the operator at a trie node still has to satisfy.
#[derive(Debug, Default)]
struct Goal<'a> {
    /// `[a, b, want]`: `a` and `b` lie in the operator's domain and it
    /// maps them to `want`.
    triples: Vec<[&'a [u8]; 3]>,
    /// Strings that only have to lie in the operator's domain.
    members: Vec<&'a [u8]>,
}

impl<'a> Goal<'a> {
    /// The goal of the child of `front d` (`back d`): every string
    /// stripped of its leading (trailing) `d`.
    fn stripped(&self, strip: impl Fn(&'a [u8]) -> Option<&'a [u8]>) -> Option<Goal<'a>> {
        let mut child = Goal::default();
        for [a, b, want] in &self.triples {
            child.triples.push([strip(a)?, strip(b)?, strip(want)?]);
        }
        for y in &self.members {
            child.members.push(strip(y)?);
        }
        Some(child)
    }

    /// The goal of the child of `fuse d`: the pieces, pairwise.
    fn fused(&self, d: u8) -> Option<Goal<'a>> {
        // L(fuse d b): at least two pieces, the outer two non-empty.
        let pieces = |y: &[u8]| match count_delim(d, y) + 1 {
            n if n >= 2 && y.first() != Some(&d) && y.last() != Some(&d) => Some(n),
            _ => None,
        };
        let split = |y: &'a [u8]| y.split(move |&c| c == d);
        let mut child = Goal::default();
        for [a, b, want] in &self.triples {
            let n = pieces(a)?;
            if pieces(b)? != n || count_delim(d, want) + 1 != n {
                return None;
            }
            let parts = split(a).zip(split(b)).zip(split(want));
            child
                .triples
                .extend(parts.map(|((a, b), want)| [a, b, want]));
        }
        for y in &self.members {
            pieces(y)?;
            child.members.extend(split(y));
        }
        Some(child)
    }

    /// Whether leaf `leaf` (a RecOp index below [`LEAVES`]) satisfies the
    /// goal.
    fn met_by_leaf(&self, leaf: usize) -> bool {
        match leaf {
            0 => {
                self.members.iter().all(|y| rec_in_domain(&RecOp::Add, y))
                    && self.triples.iter().all(
                        |[a, b, want]| matches!(add_digit_runs(a, b), Ok(sum) if sum.to_string().as_bytes() == *want),
                    )
            }
            1 => self.triples.iter().all(|[a, b, want]| is_concat(a, b, want)),
            2 => self.triples.iter().all(|[a, _, want]| a == want),
            _ => self.triples.iter().all(|[_, b, want]| b == want),
        }
    }
}

fn is_concat(a: &[u8], b: &[u8], want: &[u8]) -> bool {
    want.len() == a.len() + b.len() && want.starts_with(a) && want.ends_with(b)
}

/// `stitch` and `stitch2` replace the two boundary lines by one line `v`:
/// their result is `a` up to its last line, `v`, a newline, and `b` after
/// its first line. Returns the `v` that makes that equal `want`.
fn boundary_slot<'a>(a: &[u8], b: &[u8], want: &'a [u8]) -> Option<&'a [u8]> {
    let head = split_last_line(a).0.map_or(0, |pre| pre.len() + 1);
    let post = split_first_line(b).1;
    let tail = post.len() + 1;
    (want.len() >= head + tail
        && want[..head] == a[..head]
        && want[want.len() - tail] == b'\n'
        && want[want.len() - tail + 1..] == *post)
        .then(|| &want[head..want.len() - tail])
}

/// `s` without its leading spaces.
fn trim_spaces(s: &[u8]) -> &[u8] {
    &s[s.iter().take_while(|&&c| c == b' ').count()..]
}

/// The lines `L(s)` constrains for a structural `s`: `"\n"` is in every
/// structural domain outright.
fn constrained_lines(y: &[u8]) -> impl Iterator<Item = &[u8]> {
    (y != b"\n").then(|| lines_of(y)).into_iter().flatten()
}

/// The child goal of `stitch b` on streams `a`, `b`.
fn stitch_goal<'a>(a: &'a [u8], b: &'a [u8], want: &'a [u8]) -> Option<Goal<'a>> {
    let (l1, l2) = (split_last_line(a).1, split_first_line(b).0);
    let triples = if l1 != l2 {
        is_concat(a, b, want).then(Vec::new)?
    } else {
        vec![[l1, l2, boundary_slot(a, b, want)?]]
    };
    Some(Goal {
        triples,
        members: constrained_lines(a).chain(constrained_lines(b)).collect(),
    })
}

/// The child goal of `offset d b` on streams `a`, `b`: the first field of
/// `a`'s last non-empty line against the first field of every line of `b`.
fn offset_goal<'a>(d: Delim, a: &'a [u8], b: &'a [u8], want: &'a [u8]) -> Option<Goal<'a>> {
    let (h1, _) = table_line(d, split_last_nonempty_line(a).1?)?;
    let mut produced = want.strip_prefix(a)?;
    let mut goal = Goal::default();
    for line in lines_of(a).filter(|l| !l.is_empty()) {
        goal.members.push(table_line(d, line)?.0);
    }
    for line in lines_of(b) {
        let (got, rest) = produced.split_at(produced.iter().position(|&c| c == b'\n')?);
        produced = &rest[1..];
        if line.is_empty() {
            if !got.is_empty() {
                return None;
            }
            continue;
        }
        let (h2, t2) = table_line(d, line)?;
        // The line reads `pad ++ h ++ d ++ t2`, where the pad is spaces
        // and `h`, computed from fields that had their blanks stripped,
        // starts with none.
        let padded = del_back(d.as_byte(), got.strip_suffix(t2)?)?;
        goal.triples.push([h1, h2, trim_spaces(padded)]);
    }
    produced.is_empty().then_some(goal)
}

/// The child goals (first fields, rests) of `stitch2 d b1 b2` on streams
/// `a`, `b`.
fn stitch2_goals<'a>(
    d: Delim,
    a: &'a [u8],
    b: &'a [u8],
    want: &'a [u8],
) -> Option<(Goal<'a>, Goal<'a>)> {
    let (mut heads, mut tails) = (Goal::default(), Goal::default());
    let boundary = (a != b"\n" && b != b"\n")
        .then(|| {
            let (h1, t1) = table_line(d, split_last_line(a).1)?;
            let (h2, t2) = table_line(d, split_first_line(b).0)?;
            (t1 == t2).then_some([h1, h2, t1])
        })
        .flatten();
    match boundary {
        None if is_concat(a, b, want) => {}
        None => return None,
        Some([h1, h2, t]) => {
            // The merged line reads `pad ++ h ++ d ++ t'`; `h` holds no
            // `d` and starts with no blank (see `offset_goal`).
            let merged = trim_spaces(boundary_slot(a, b, want)?);
            let (h, rest) = split_first(d.as_byte(), merged);
            heads.triples.push([h1, h2, h]);
            tails.triples.push([t, t, rest?]);
        }
    }
    // L(stitch2 d ..): every line is a table line. (A boundary line that
    // is none was sent to the concatenation case above, and fails here.)
    for line in constrained_lines(a).chain(constrained_lines(b)) {
        let (h, t) = table_line(d, line)?;
        heads.members.push(h);
        tails.members.push(t);
    }
    Some((heads, tails))
}

impl CandidateSpace {
    /// The space [`enumerate_candidates`](crate::enumerate_candidates)
    /// lists for `config`.
    ///
    /// # Panics
    /// When the space has more than `u32::MAX` candidates (a `max_size`
    /// beyond anything enumerable).
    pub fn new(config: &EnumConfig) -> CandidateSpace {
        let budget = config.max_size.saturating_sub(2);
        let delims = config.delims.len();
        let mut rec_count = vec![0usize];
        for e in 1..=budget {
            let wrapped = (WRAPPERS * delims).checked_mul(rec_count[e - 1]);
            let count = wrapped.and_then(|w| w.checked_add(LEAVES));
            rec_count.push(count.expect("candidate space overflows usize"));
        }
        // StructOps spend one expansion on themselves; `stitch2`'s two
        // children share the rest, `b1` taking at most `budget - 2`.
        let children = if budget >= 2 {
            rec_count[budget - 1]
        } else {
            0
        };
        let stitch2_block = (1..budget.saturating_sub(1))
            .map(|e| (rec_count[e] - rec_count[e - 1]) * rec_count[budget - 1 - e])
            .sum::<usize>();
        let stitch_at = rec_count[budget];
        let offset_at = stitch_at + children;
        let stitch2_at = offset_at + delims * children;
        let space = CandidateSpace {
            delims: config.delims.clone(),
            merge_flags: config.merge_flags.clone(),
            budget,
            rec_count,
            stitch_at,
            offset_at,
            stitch2_at,
            run_at: stitch2_at + delims * stitch2_block,
            stitch2_block,
            nodes: Cell::new(0),
        };
        assert!(
            u32::try_from(space.len()).is_ok(),
            "candidate space exceeds u32 ids"
        );
        space
    }

    /// RecOps of exactly `e` expansions.
    fn exactly(&self, e: usize) -> usize {
        self.rec_count[e] - self.rec_count[e - 1]
    }

    /// Number of candidates (both argument orders). Never zero: the RunOp
    /// candidates exist under every configuration.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        2 * (self.run_at + 2)
    }

    /// Per-class candidate counts (Table 10's breakdown).
    pub fn breakdown(&self) -> SpaceBreakdown {
        SpaceBreakdown {
            rec: 2 * self.stitch_at,
            structural: 2 * (self.run_at - self.stitch_at),
            run: 4,
        }
    }

    /// Trie nodes entered by all queries so far — the work the walk did
    /// in place of one evaluation per candidate.
    pub fn trie_nodes(&self) -> u64 {
        self.nodes.get()
    }

    /// Decodes candidate `id`.
    ///
    /// # Panics
    /// When `id >= self.len()`.
    pub fn candidate(&self, id: u32) -> Candidate {
        let c = id as usize / 2;
        let children = self.offset_at - self.stitch_at;
        let op = if c < self.stitch_at {
            Combiner::Rec(self.rec_op(c))
        } else if c < self.offset_at {
            Combiner::Struct(StructOp::Stitch(self.rec_op(c - self.stitch_at)))
        } else if c < self.stitch2_at {
            let x = c - self.offset_at;
            let d = self.delims[x / children];
            Combiner::Struct(StructOp::Offset(d, self.rec_op(x % children)))
        } else if c < self.run_at {
            let x = c - self.stitch2_at;
            let d = self.delims[x / self.stitch2_block];
            let mut x = x % self.stitch2_block;
            // Rows of equal width, one per `b1`, grouped by `b1`'s size.
            let mut e = 1;
            while x >= self.exactly(e) * self.rec_count[self.budget - 1 - e] {
                x -= self.exactly(e) * self.rec_count[self.budget - 1 - e];
                e += 1;
            }
            let width = self.rec_count[self.budget - 1 - e];
            let b1 = self.rec_op(self.rec_count[e - 1] + x / width);
            Combiner::Struct(StructOp::Stitch2(d, b1, self.rec_op(x % width)))
        } else if c == self.run_at {
            Combiner::Run(RunOp::Rerun)
        } else {
            assert!(c == self.run_at + 1, "candidate id out of range");
            Combiner::Run(RunOp::Merge(self.merge_flags.clone()))
        };
        Candidate {
            op,
            swapped: id % 2 == 1,
        }
    }

    fn rec_op(&self, r: usize) -> RecOp {
        if r < LEAVES {
            return [RecOp::Add, RecOp::Concat, RecOp::First, RecOp::Second][r].clone();
        }
        let fan = WRAPPERS * self.delims.len();
        let (inner, wrapper) = ((r - LEAVES) / fan, (r - LEAVES) % fan);
        let d = self.delims[wrapper / WRAPPERS];
        let inner = Box::new(self.rec_op(inner));
        match wrapper % WRAPPERS {
            0 => RecOp::Front(d, inner),
            1 => RecOp::Back(d, inner),
            _ => RecOp::Fuse(d, inner),
        }
    }

    /// Where the `stitch2` row of `b1 = r1` starts within a delimiter's
    /// block, and how many `b2` it holds.
    fn stitch2_row(&self, r1: usize) -> (usize, usize) {
        let mut at = 0;
        let mut e = 1;
        while r1 >= self.rec_count[e] {
            at += self.exactly(e) * self.rec_count[self.budget - 1 - e];
            e += 1;
        }
        let width = self.rec_count[self.budget - 1 - e];
        (at + (r1 - self.rec_count[e - 1]) * width, width)
    }

    /// The ids plausible for `o`, ascending: `{ id | plausible(candidate(id),
    /// [o], env) }`.
    pub fn passing(&self, o: &Observation, env: &dyn RunEnv) -> Vec<u32> {
        self.decide(None, o, env)
    }

    /// [`passing`](Self::passing) restricted to the ascending id list
    /// `alive`. Only these are confirmed — and, for the RunOp candidates,
    /// executed — so a caller narrowing a live set pays for what is left
    /// of it, not for the space.
    pub fn passing_among(&self, alive: &[u32], o: &Observation, env: &dyn RunEnv) -> Vec<u32> {
        self.decide(Some(alive), o, env)
    }

    fn decide(&self, alive: Option<&[u32]>, o: &Observation, env: &dyn RunEnv) -> Vec<u32> {
        let is_alive = |id: &u32| alive.is_none_or(|alive| alive.binary_search(id).is_ok());
        let mut kept = Vec::new();
        self.walk(o, &mut kept);
        kept.retain(is_alive);
        kept.sort_unstable();
        // The RunOp candidates need the command: nothing to prune with.
        kept.extend((2 * self.run_at as u32..self.len() as u32).filter(is_alive));
        kept.retain(|&id| plausible(&self.candidate(id), std::slice::from_ref(o), env));
        kept
    }

    /// Pushes a superset of the plausible RecOp and StructOp ids, in no
    /// particular order.
    fn walk(&self, o: &Observation, kept: &mut Vec<u32>) {
        for swapped in [false, true] {
            let (a, b) = if swapped {
                (o.y2.as_bytes(), o.y1.as_bytes())
            } else {
                (o.y1.as_bytes(), o.y2.as_bytes())
            };
            let want = o.y12.as_bytes();
            let mut keep =
                |combiner: usize| kept.push((2 * combiner + usize::from(swapped)) as u32);

            let goal = Goal {
                triples: vec![[a, b, want]],
                members: Vec::new(),
            };
            self.rec_walk(&goal, self.budget)
                .into_iter()
                .for_each(&mut keep);

            // Every structural domain is a set of streams.
            if self.budget < 2 || !a.ends_with(b"\n") || !b.ends_with(b"\n") {
                continue;
            }
            let children = self.budget - 1;
            if let Some(goal) = stitch_goal(a, b, want) {
                for r in self.rec_walk(&goal, children) {
                    keep(self.stitch_at + r);
                }
            }
            for (di, &d) in self.delims.iter().enumerate() {
                if let Some(goal) = offset_goal(d, a, b, want) {
                    let at = self.offset_at + di * self.rec_count[children];
                    for r in self.rec_walk(&goal, children) {
                        keep(at + r);
                    }
                }
                if let Some((heads, tails)) = stitch2_goals(d, a, b, want) {
                    let at = self.stitch2_at + di * self.stitch2_block;
                    let b2s = self.rec_walk(&tails, children - 1);
                    for r1 in self.rec_walk(&heads, children - 1) {
                        let (row, width) = self.stitch2_row(r1);
                        for &r2 in b2s.iter().filter(|&&r2| r2 < width) {
                            keep(at + row + r2);
                        }
                    }
                }
            }
        }
    }

    /// The RecOp indices of at most `budget` expansions that satisfy
    /// `goal`.
    fn rec_walk(&self, goal: &Goal, budget: usize) -> Vec<usize> {
        let mut found = Vec::new();
        if budget > 0 {
            self.descend(goal, budget, 0, 1, &mut found);
        }
        found
    }

    /// One trie node: the operators `at + stride * r` for `r` a RecOp
    /// index of at most `budget` expansions, all of which still face
    /// `goal`.
    fn descend(
        &self,
        goal: &Goal,
        budget: usize,
        at: usize,
        stride: usize,
        found: &mut Vec<usize>,
    ) {
        self.nodes.set(self.nodes.get() + 1);
        found.extend(
            (0..LEAVES)
                .filter(|&leaf| goal.met_by_leaf(leaf))
                .map(|leaf| at + stride * leaf),
        );
        if budget < 2 {
            return;
        }
        let fan = WRAPPERS * self.delims.len();
        for (di, d) in self.delims.iter().map(|d| d.as_byte()).enumerate() {
            for kind in 0..WRAPPERS {
                let child = match kind {
                    0 => goal.stripped(|y| del_front(d, y)),
                    1 => goal.stripped(|y| del_back(d, y)),
                    _ => goal.fused(d),
                };
                if let Some(child) = child {
                    let wrapper = LEAVES + di * WRAPPERS + kind;
                    self.descend(
                        &child,
                        budget - 1,
                        at + stride * wrapper,
                        stride * fan,
                        found,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::reference;
    use crate::eval::{CommandEnv, NoRunEnv};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn obs(y1: &str, y2: &str, y12: &str) -> Observation {
        Observation::new(y1, y2, y12)
    }

    /// Observations chosen to sit on the edges of every rule the walk
    /// re-derives. Each also runs with `y1` and `y2` exchanged.
    fn vocabulary() -> Vec<Observation> {
        let max = i64::MAX.to_string();
        let huge = "99999999999999999999"; // 20 digits: in L(add), not an i64
        let mut v = vec![
            // Empty outputs, the empty stream, empty boundary lines.
            obs("", "", ""),
            obs("\n", "\n", "\n"),
            obs("\n", "\n", "\n\n"),
            obs("\n", "a\n", "\na\n"),
            obs("a\n", "\n", "a\n\n"),
            obs("\n", "\na\n", "\na\n"),
            obs("a\n\n", "\nb\n", "a\n\nb\n"),
            obs("\n\n", "\n\n", "\n\n\n"),
            // An unterminated last line: outside every structural domain.
            obs("a", "b", "ab"),
            obs("a\nb", "c\n", "a\nbc\n"),
            obs("a\n", "b", "a\nb"),
            obs("a\nb", "b\nc\n", "a\nb\nc\n"),
            // Selections and plain concatenation.
            obs("l\n", "r\n", "r\n"),
            obs("l\n", "r\n", "l\n"),
            obs("a b\n", "c d\n", "a b\nc d\n"),
            // `uniq`: equal and unequal boundary lines.
            obs("a\nb\n", "b\nc\n", "a\nb\nc\n"),
            obs("a\nb\n", "c\nd\n", "a\nb\nc\nd\n"),
            obs("a\nb\n", "b\nc\n", "a\nbb\nc\n"),
            obs("b\n", "b\n", "b\n"),
            obs("b\n", "b\nz\n", "b\nz\n"),
            obs("1\n3\n", "3\n4\n", "1\n6\n4\n"),
            obs("1\n3 4\n", "3 4\n4\n", "1\n6 8\n4\n"),
            // `uniq -c`: padded counts, the padding shrinking to nothing
            // at eight digits, tails with the delimiter inside.
            obs(
                "      2 apple\n      1 beta\n",
                "      3 beta\n      1 cat\n",
                "      2 apple\n      4 beta\n      1 cat\n",
            ),
            obs(
                "      4 word\n",
                "      9 other\n",
                "      4 word\n      9 other\n",
            ),
            obs("      2 a b\n", "      3 a b\n", "      5 a b\n"),
            obs("      2 a b\n", "      3 a b\n", "      5 a ba b\n"),
            obs("9999999 w\n", "      1 w\n", "10000000 w\n"),
            obs("99999999 w\n", "      1 w\n", "100000000 w\n"),
            obs("      1 w\n", "9999999 w\n", "10000000 w\n"),
            obs("      2 w\n", "      3 w\n", "5 w\n"),
            obs("\t3 x\n", "\t4 x\n", " 7 x\n"),
            obs("\t3 x\n", "\t4 x\n", "\t7 x\n"),
            obs("      2 w\n", "\n", "      2 w\n\n"),
            obs("\n", "      2 w\n", "\n      2 w\n"),
            // Counts: leading zeros, the sum leaving i64, digit runs that
            // are in L(add) but are no i64.
            obs("007\n", "01\n", "8\n"),
            obs("007\n", "01\n", "008\n"),
            obs("0\n", "0\n", "0\n"),
            obs(&format!("{max}\n"), &format!("{max}\n"), "-2\n"),
            obs(
                &format!("{max}\n"),
                &format!("{max}\n"),
                "18446744073709551614\n",
            ),
            obs(&format!("{max}\n"), "0\n", &format!("{max}\n")),
            obs(
                &format!("{huge}\n5\n"),
                "6\n1\n",
                &format!("{huge}\n5\n6\n1\n"),
            ),
            obs(
                &format!("{huge}\n5\n"),
                "5\n1\n",
                &format!("{huge}\n10\n1\n"),
            ),
            obs(
                &format!("{huge}\n"),
                &format!("{huge}\n"),
                &format!("{huge}\n"),
            ),
            // `wc`: fused triples, unequal piece counts, real padding.
            obs("1 2 6\n", "3 4 5\n", "4 6 11\n"),
            obs("1 2\n", "1 2 3\n", "2 4 3\n"),
            obs("1 2 3\n", "1 2 3\n", "2 4\n"),
            obs(
                "      1       2       6\n",
                "      3       4       5\n",
                "      4       6      11\n",
            ),
            obs("1,2,3\n", "10,20,30\n", "11,22,33\n"),
            obs("a\tb\n", "c\td\n", "ac\tbd\n"),
            obs("1 2\n3 4\n", "5 6\n7 8\n", "6 8\n10 12\n"),
            // A delimiter as the first or last character.
            obs(" a", " b", " ab"),
            obs("a ", "b ", "ab "),
            obs(" a ", " b ", " ab "),
            obs(" a\n", " b\n", " ab\n"),
            obs(",x\n", ",y\n", ",xy\n"),
            obs("\na\n", "\nb\n", "\nab\n"),
            obs(",k\n", ",k\n", ",k\n"),
            obs("  ,k\n", " ,k\n", "  ,k\n"),
            obs(" \n", " \n", " \n"),
            // Multi-byte characters next to a delimiter.
            obs("é ü\n", "é ö\n", "éé üö\n"),
            obs("é\n", "é\n", "é\n"),
            obs("  3 é\n", "  4 é\n", "  7 é\n"),
            obs(" é", " ü", " éü"),
            obs("é,ü\n", "é,ü\n", "é,ü\n"),
            obs("ü é\nü é\n", "ö é\n", "ü é\nüö é\n"),
            // `offset`: running counts, empty lines, padding kept and
            // outgrown, an empty second stream, nothing to offset by.
            obs(
                "3 a.txt\n10 b.txt\n",
                "4 c.txt\n1 d.txt\n",
                "3 a.txt\n10 b.txt\n14 c.txt\n11 d.txt\n",
            ),
            obs("3 a\n", "4 b\n5 c\n", "3 a\n4 b\n5 c\n"),
            obs("1 x\n", "\n2 y\n", "1 x\n\n3 y\n"),
            obs("  3 a\n", "  4 b\n 10 c\n", "  3 a\n  7 b\n 13 c\n"),
            obs("  8 a\n", "  4 b\n", "  8 a\n 12 b\n"),
            obs("998 a\n", "4 b\n", "998 a\n1002 b\n"),
            obs("3 a\n", "\n", "3 a\n\n"),
            obs("3 a\n\n", "4 b\n", "3 a\n\n7 b\n"),
            obs("\n\n", "4 b\n", "\n\n4 b\n"),
            obs("3,a\n", "4,b\n", "3,a\n7,b\n"),
            obs("3 a\n", "4 b c\n", "3 a\n7 b c\n"),
            obs("3 a\n", "4 b\n", "3 a\n7 b"),
            obs("3 a\n", "4 b\n", "3 a\n7 b\n\n"),
        ];
        let exchanged: Vec<Observation> = v
            .iter()
            .map(|o| obs(&o.y2, &o.y1, &o.y12))
            .filter(|o| o.y1 != o.y2)
            .collect();
        v.extend(exchanged);
        v
    }

    fn tiers() -> Vec<EnumConfig> {
        [
            vec![Delim::Newline],
            vec![Delim::Newline, Delim::Space],
            vec![Delim::Newline, Delim::Space, Delim::Comma],
            vec![Delim::Newline, Delim::Tab, Delim::Space],
        ]
        .into_iter()
        .map(|delims| EnumConfig {
            delims,
            ..EnumConfig::default()
        })
        .collect()
    }

    /// `{ id | plausible(candidate(id), [o]) }` by the per-candidate loop.
    fn oracle(candidates: &[Candidate], o: &Observation, env: &dyn RunEnv) -> Vec<u32> {
        (0..candidates.len() as u32)
            .filter(|&id| plausible(&candidates[id as usize], std::slice::from_ref(o), env))
            .collect()
    }

    fn show(space: &CandidateSpace, ids: &[u32]) -> Vec<String> {
        ids.iter()
            .map(|&id| space.candidate(id).to_string())
            .collect()
    }

    #[test]
    fn passing_equals_plausibility_over_the_whole_space() {
        let vocabulary = vocabulary();
        for config in tiers() {
            let (candidates, _) = reference::enumerate_candidates(&config);
            let space = CandidateSpace::new(&config);
            let mut kept_in_class = [0usize; 3];
            for o in &vocabulary {
                let got = space.passing(o, &NoRunEnv);
                let want = oracle(&candidates, o, &NoRunEnv);
                assert_eq!(
                    got,
                    want,
                    "{:?} on {o:?}:\n walk {:?}\n loop {:?}",
                    config.delims,
                    show(&space, &got),
                    show(&space, &want)
                );
                for id in got {
                    kept_in_class[candidates[id as usize].op.class() as usize] += 1;
                }
            }
            // The vocabulary exercises both walked classes (and, without a
            // command, no RunOp can pass).
            assert!(
                kept_in_class[0] > 100 && kept_in_class[1] > 100,
                "{kept_in_class:?}"
            );
            assert_eq!(kept_in_class[2], 0);
            assert!(space.trie_nodes() > 0);
            // Far fewer nodes than one evaluation per candidate.
            assert!(
                (space.trie_nodes() as usize) < vocabulary.len() * 2000,
                "{} nodes",
                space.trie_nodes()
            );
        }
    }

    #[test]
    fn the_walk_alone_keeps_little_more_than_what_is_plausible() {
        // Soundness is required, exactness is what makes confirmation
        // cheap: over the vocabulary the walk may keep ids `plausible`
        // then rejects (a pad it does not check), but not many.
        let config = &tiers()[2];
        let space = CandidateSpace::new(config);
        let (mut walked, mut confirmed) = (0, 0);
        for o in &vocabulary() {
            let mut kept = Vec::new();
            space.walk(o, &mut kept);
            walked += kept.len();
            confirmed += space.passing(o, &NoRunEnv).len();
        }
        assert!(walked >= confirmed);
        assert!(
            walked <= confirmed + confirmed / 20,
            "{walked} vs {confirmed}"
        );
    }

    #[test]
    fn passing_equals_plausibility_on_outputs_of_random_candidates() {
        // Observations no one wrote down: random arguments over a small
        // alphabet, and as the expected output what a random candidate
        // makes of them (so that something passes) or a mutation of it.
        let config = EnumConfig {
            delims: vec![Delim::Newline, Delim::Space],
            ..EnumConfig::default()
        };
        let (candidates, _) = reference::enumerate_candidates(&config);
        let space = CandidateSpace::new(&config);
        let mut rng = SmallRng::seed_from_u64(16);
        let alphabet = ['a', '1', '9', ' ', ' ', '\n', '\n', 'é'];
        let text = |rng: &mut SmallRng, terminated: bool| {
            let mut s: String = (0..rng.gen_range(0..7))
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect();
            if terminated {
                s.push('\n');
            }
            s
        };
        let mut evaluated = 0;
        let mut nonempty = 0;
        while evaluated < 60 {
            let terminated = rng.gen_range(0..4) > 0;
            let (y1, y2) = (text(&mut rng, terminated), text(&mut rng, terminated));
            let candidate = &candidates[rng.gen_range(0..candidates.len() - 4)];
            let (a, b) = candidate.oriented(y1.as_bytes(), y2.as_bytes());
            let Ok(y12) = crate::eval::eval(&candidate.op, a, b, &NoRunEnv) else {
                continue;
            };
            let mut y12 = y12.to_str().unwrap().to_owned();
            evaluated += 1;
            if rng.gen_range(0..5) == 0 {
                y12.insert(rng.gen_range(0..=y12.len().min(1)), ' ');
            }
            let o = Observation { y1, y2, y12 };
            let got = space.passing(&o, &NoRunEnv);
            assert_eq!(got, oracle(&candidates, &o, &NoRunEnv), "{o:?}");
            nonempty += usize::from(!got.is_empty());
        }
        assert!(nonempty > 20, "only {nonempty} observations kept anything");
    }

    #[test]
    fn run_ops_are_confirmed_with_the_command_and_only_while_alive() {
        let command = kq_coreutils::parse_command("sort").unwrap();
        let ctx = kq_coreutils::ExecContext::default();
        let env = CommandEnv {
            command: &command,
            ctx: &ctx,
        };
        let config = EnumConfig::default();
        let (candidates, _) = reference::enumerate_candidates(&config);
        let space = CandidateSpace::new(&config);
        let o = obs("a\nc\n", "b\n", "a\nb\nc\n");
        let all = space.passing(&o, &env);
        assert_eq!(all, oracle(&candidates, &o, &env));
        let run_ids: Vec<u32> = (space.len() as u32 - 4..space.len() as u32).collect();
        assert_eq!(all, run_ids, "{:?}", show(&space, &all));

        // Restricted to a live set, the answer is the intersection — and
        // a dead `rerun` is not executed at all.
        let alive = [1, 7, run_ids[2], run_ids[3]];
        assert_eq!(space.passing_among(&alive, &o, &env), &run_ids[2..]);
        struct NoRerun;
        impl RunEnv for NoRerun {
            fn rerun(&self, _: kq_stream::Bytes) -> Result<kq_stream::Bytes, crate::EvalError> {
                panic!("rerun is not alive");
            }
            fn merge(
                &self,
                order: kq_coreutils::sort::LineOrder,
                streams: &[&[u8]],
            ) -> Result<kq_stream::Bytes, crate::EvalError> {
                Ok(kq_stream::Bytes::from(order.merge(streams)))
            }
        }
        assert_eq!(space.passing_among(&alive, &o, &NoRerun), &run_ids[2..]);
        let concat = obs("a\n", "b\n", "a\nb\n");
        let among = space.passing_among(&[2, 3, 4, 5], &concat, &NoRerun);
        assert_eq!(show(&space, &among), ["(concat a b)"]);
    }
}
