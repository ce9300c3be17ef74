//! Combiner AST (paper Figure 3) and combiner size (Definition 3.6).

use kq_stream::Delim;
use std::fmt;

/// Recursive operators `b ∈ RecOp`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RecOp {
    /// Numeric addition of two digit-run strings.
    Add,
    /// String concatenation.
    Concat,
    /// Select the first argument.
    First,
    /// Select the second argument.
    Second,
    /// Strip delimiter `d` from the front of both arguments, apply the
    /// child, re-attach `d` in front.
    Front(Delim, Box<RecOp>),
    /// Strip `d` from the back, apply the child, re-attach at the back.
    Back(Delim, Box<RecOp>),
    /// Split both arguments on `d` into equally many pieces, apply the
    /// child piecewise, re-join with `d`.
    Fuse(Delim, Box<RecOp>),
}

/// Structural operators `s ∈ StructOp` — combiners conditioned on the
/// values at the `y1`/`y2` boundary.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum StructOp {
    /// Compare `y1`'s last line with `y2`'s first; when equal, merge them
    /// with the child operator.
    Stitch(RecOp),
    /// Like `stitch` but the lines are padded two-field records
    /// (`pad count d rest`): when the *rest* fields agree, combine the
    /// first fields with `b1` and the rests with `b2`, preserving padding.
    Stitch2(Delim, RecOp, RecOp),
    /// Use the first field of `y1`'s last non-empty line to adjust the
    /// first field of every line of `y2`.
    Offset(Delim, RecOp),
}

/// Command-executing operators `r ∈ RunOp_f`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RunOp {
    /// Re-run the command `f` on `y1 ++ y2`.
    Rerun,
    /// `sort -m <flags>`: merge two pre-sorted streams.
    Merge(Vec<String>),
}

/// A combiner `g ∈ Combiner_f`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Combiner {
    /// A recursive operator.
    Rec(RecOp),
    /// A structural (boundary-conditioned) operator.
    Struct(StructOp),
    /// A command-executing operator.
    Run(RunOp),
}

impl RecOp {
    /// Number of grammar-production expansions in this subtree.
    pub fn expansions(&self) -> usize {
        match self {
            RecOp::Add | RecOp::Concat | RecOp::First | RecOp::Second => 1,
            RecOp::Front(_, b) | RecOp::Back(_, b) | RecOp::Fuse(_, b) => 1 + b.expansions(),
        }
    }
}

impl Combiner {
    /// Number of grammar-production expansions (used by Definition 3.6).
    pub fn expansions(&self) -> usize {
        match self {
            Combiner::Rec(b) => b.expansions(),
            Combiner::Struct(StructOp::Stitch(b)) => 1 + b.expansions(),
            Combiner::Struct(StructOp::Stitch2(_, b1, b2)) => 1 + b1.expansions() + b2.expansions(),
            Combiner::Struct(StructOp::Offset(_, b)) => 1 + b.expansions(),
            Combiner::Run(_) => 1,
        }
    }

    /// `|g|` — combiner size (Definition 3.6): two (for the two stream
    /// arguments) plus the number of production expansions.
    pub fn size(&self) -> usize {
        2 + self.expansions()
    }

    /// The operator class, in the priority order used when constructing
    /// composite combiners (paper §3.2): RecOp first, then StructOp, then
    /// RunOp.
    pub fn class(&self) -> CombinerClass {
        match self {
            Combiner::Rec(_) => CombinerClass::Rec,
            Combiner::Struct(_) => CombinerClass::Struct,
            Combiner::Run(_) => CombinerClass::Run,
        }
    }

    /// True when this combiner is plain string concatenation — the
    /// precondition for intermediate-combiner elimination (Theorem 5).
    pub fn is_concat(&self) -> bool {
        matches!(self, Combiner::Rec(RecOp::Concat))
    }
}

/// The three operator classes of the DSL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CombinerClass {
    /// Recursive operators (`add`, `concat`, selections, delimiters).
    Rec,
    /// Structural operators (`stitch`, `stitch2`, `offset`).
    Struct,
    /// Command-executing operators (`rerun`, `merge`).
    Run,
}

/// A candidate in the search space: a combiner plus its argument order.
/// The enumerator emits both `(g a b)` and `(g b a)` — Table 10 lists
/// swapped plausible combiners such as `(second b a)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// The combiner expression.
    pub op: Combiner,
    /// When true, the candidate evaluates `g(y2, y1)`.
    pub swapped: bool,
}

impl Candidate {
    /// An unswapped RecOp candidate.
    pub fn rec(op: RecOp) -> Candidate {
        Candidate {
            op: Combiner::Rec(op),
            swapped: false,
        }
    }

    /// An unswapped StructOp candidate.
    pub fn structural(op: StructOp) -> Candidate {
        Candidate {
            op: Combiner::Struct(op),
            swapped: false,
        }
    }

    /// An unswapped RunOp candidate.
    pub fn run(op: RunOp) -> Candidate {
        Candidate {
            op: Combiner::Run(op),
            swapped: false,
        }
    }

    /// Orders the argument pair according to the candidate's orientation.
    pub fn oriented<'a>(&self, y1: &'a [u8], y2: &'a [u8]) -> (&'a [u8], &'a [u8]) {
        if self.swapped {
            (y2, y1)
        } else {
            (y1, y2)
        }
    }

    /// `|g|` of the underlying combiner (orientation does not affect size).
    pub fn size(&self) -> usize {
        self.op.size()
    }
}

impl fmt::Display for RecOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecOp::Add => write!(f, "add"),
            RecOp::Concat => write!(f, "concat"),
            RecOp::First => write!(f, "first"),
            RecOp::Second => write!(f, "second"),
            RecOp::Front(d, b) => write!(f, "(front {d} {b})"),
            RecOp::Back(d, b) => write!(f, "(back {d} {b})"),
            RecOp::Fuse(d, b) => write!(f, "(fuse {d} {b})"),
        }
    }
}

impl fmt::Display for StructOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StructOp::Stitch(b) => write!(f, "(stitch {b})"),
            StructOp::Stitch2(d, b1, b2) => write!(f, "(stitch2 {d} {b1} {b2})"),
            StructOp::Offset(d, b) => write!(f, "(offset {d} {b})"),
        }
    }
}

impl fmt::Display for RunOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOp::Rerun => write!(f, "rerun"),
            RunOp::Merge(flags) if flags.is_empty() => write!(f, "merge"),
            RunOp::Merge(flags) => write!(f, "merge({})", flags.join(" ")),
        }
    }
}

impl fmt::Display for Combiner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Combiner::Rec(b) => b.fmt(f),
            Combiner::Struct(s) => s.fmt(f),
            Combiner::Run(r) => r.fmt(f),
        }
    }
}

impl fmt::Display for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.swapped {
            write!(f, "({} b a)", self.op)
        } else {
            write!(f, "({} a b)", self.op)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn back_add() -> Combiner {
        Combiner::Rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add)))
    }

    #[test]
    fn sizes_match_paper_examples() {
        // Example 2 of the appendix: |g_a| = 3, |g_fbfa| = 6, |g_saf| = 5.
        assert_eq!(Combiner::Rec(RecOp::Add).size(), 3);
        let fbfa = Combiner::Rec(RecOp::Front(
            Delim::Newline,
            Box::new(RecOp::Back(
                Delim::Space,
                Box::new(RecOp::Fuse(Delim::Tab, Box::new(RecOp::Add))),
            )),
        ));
        assert_eq!(fbfa.size(), 6);
        let saf = Combiner::Struct(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First));
        assert_eq!(saf.size(), 5);
    }

    #[test]
    fn run_op_sizes() {
        assert_eq!(Combiner::Run(RunOp::Rerun).size(), 3);
        assert_eq!(Combiner::Run(RunOp::Merge(vec![])).size(), 3);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(back_add().to_string(), "(back '\\n' add)");
        let saf = Combiner::Struct(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First));
        assert_eq!(saf.to_string(), "(stitch2 ' ' add first)");
        let cand = Candidate {
            op: Combiner::Rec(RecOp::Second),
            swapped: true,
        };
        assert_eq!(cand.to_string(), "(second b a)");
    }

    #[test]
    fn class_priority_order() {
        assert!(CombinerClass::Rec < CombinerClass::Struct);
        assert!(CombinerClass::Struct < CombinerClass::Run);
    }

    #[test]
    fn concat_detection_for_theorem5() {
        assert!(Combiner::Rec(RecOp::Concat).is_concat());
        assert!(!Combiner::Rec(RecOp::Front(Delim::Newline, Box::new(RecOp::Concat))).is_concat());
        assert!(!Combiner::Run(RunOp::Rerun).is_concat());
    }

    #[test]
    fn oriented_swaps() {
        let c = Candidate {
            op: Combiner::Rec(RecOp::First),
            swapped: true,
        };
        assert_eq!(c.oriented(b"x", b"y"), (&b"y"[..], &b"x"[..]));
        let c = Candidate::rec(RecOp::First);
        assert_eq!(c.oriented(b"x", b"y"), (&b"x"[..], &b"y"[..]));
    }
}
