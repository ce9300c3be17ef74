//! Big-step evaluation of combiners (paper Figure 6).
//!
//! Evaluation either produces the combined string or fails with a *domain
//! error* — the analogue of a rule's premises not matching. Candidate
//! filtering treats both a failure and a wrong result as grounds to discard
//! the candidate.
//!
//! Strings are bytes: every rule cuts at ASCII delimiters and compares
//! bytes, so a combiner accepts whatever bytes its command does, and pad
//! widths count bytes, as under `LC_ALL=C`.

use crate::ast::{Combiner, RecOp, RunOp, StructOp};
use kq_coreutils::sort::LineOrder;
use kq_stream::{
    add_pad, del_back, del_front, del_pad, split_first, split_first_line, split_last_line,
    split_last_nonempty_line, Bytes,
};

/// An evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The arguments fall outside the rule premises (`L(g)` violation or a
    /// structural mismatch like differing `fuse` arity).
    Domain(&'static str),
    /// A `rerun`/`merge` execution failed.
    Command(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Domain(m) => write!(f, "domain error: {m}"),
            EvalError::Command(m) => write!(f, "command error: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The fragment consumer for [`RunEnv::merge_stream`]: receives each
/// merged line-aligned fragment plus, per input stream, the count of bytes
/// the merge has consumed from it so far.
pub type MergeStreamSink<'a> = dyn FnMut(&[u8], &[usize]) -> Result<(), EvalError> + 'a;

/// The line order of a `merge <flags>` combiner, parsed once per combine
/// (or once per fold) and handed to every [`RunEnv::merge`] call it makes.
pub fn merge_order(flags: &[String]) -> Result<LineOrder, EvalError> {
    LineOrder::parse(flags).map_err(|e| EvalError::Command(e.to_string()))
}

/// The environment needed by `RunOp` combiners: how to re-run the command
/// `f` and how to invoke `unixMerge`.
///
/// `Sync` is a supertrait so one environment can serve the worker threads
/// of a parallel fold, which share the `&dyn RunEnv`. Both built-in
/// environments qualify ([`NoRunEnv`] is stateless; [`CommandEnv`] borrows
/// a `Send + Sync` command and context), and the requirement is what
/// makes `&dyn RunEnv: Send`.
pub trait RunEnv: Sync {
    /// `rerun_f`: execute `f` on the given input — a shared byte slice,
    /// handed to the command without a copy.
    fn rerun(&self, input: Bytes) -> Result<Bytes, EvalError>;

    /// `unixMerge <flags>`: merge pre-sorted streams (`sort -m <flags>`).
    /// The streams are the substreams' bytes, borrowed in place, and the
    /// result is a data-plane slice: nothing is copied on the way in or
    /// out.
    fn merge(&self, order: LineOrder, streams: &[&[u8]]) -> Result<Bytes, EvalError>;

    /// Streaming `unixMerge <flags>`: merge pre-sorted streams, handing
    /// the output to `sink` in line-aligned fragments of roughly
    /// `fragment_bytes` together with, per stream, the byte offset the
    /// merge has consumed so far. The out-of-core fold uses the offsets to
    /// release mapped run pages behind the merge frontier and the
    /// fragments to write the merged output to disk, so neither the runs
    /// nor the result need ever be fully resident. The default shim does
    /// one flat merge and calls the sink once with everything consumed;
    /// command-backed environments override it with the true incremental
    /// merge.
    fn merge_stream(
        &self,
        order: LineOrder,
        streams: &[&[u8]],
        fragment_bytes: usize,
        sink: &mut MergeStreamSink,
    ) -> Result<(), EvalError> {
        let _ = fragment_bytes;
        let merged = self.merge(order, streams)?;
        let consumed: Vec<usize> = streams.iter().map(|s| s.len()).collect();
        sink(merged.as_bytes(), &consumed)
    }
}

/// A [`RunEnv`] for contexts where `RunOp` combiners cannot occur (pure
/// RecOp/StructOp evaluation, unit tests). `rerun` and `merge` fail.
pub struct NoRunEnv;

impl RunEnv for NoRunEnv {
    fn rerun(&self, _input: Bytes) -> Result<Bytes, EvalError> {
        Err(EvalError::Command("rerun unavailable".to_owned()))
    }

    fn merge(&self, _order: LineOrder, _streams: &[&[u8]]) -> Result<Bytes, EvalError> {
        Err(EvalError::Command("merge unavailable".to_owned()))
    }
}

/// A [`RunEnv`] backed by an in-process [`kq_coreutils::Command`].
pub struct CommandEnv<'a> {
    /// The black-box command `f`.
    pub command: &'a kq_coreutils::Command,
    /// Its execution context (virtual filesystem).
    pub ctx: &'a kq_coreutils::ExecContext,
}

impl RunEnv for CommandEnv<'_> {
    fn rerun(&self, input: Bytes) -> Result<Bytes, EvalError> {
        self.command
            .run(input, self.ctx)
            .map_err(|e| EvalError::Command(e.to_string()))
    }

    fn merge(&self, order: LineOrder, streams: &[&[u8]]) -> Result<Bytes, EvalError> {
        Ok(Bytes::from(order.merge(streams)))
    }

    fn merge_stream(
        &self,
        order: LineOrder,
        streams: &[&[u8]],
        fragment_bytes: usize,
        sink: &mut MergeStreamSink,
    ) -> Result<(), EvalError> {
        // The sink's own error must survive the round-trip through the
        // command layer's error type, so stash it and restore on the way
        // out instead of stringifying it.
        let mut sink_err: Option<EvalError> = None;
        let res = order.merge_to(streams, fragment_bytes, &mut |f, c| {
            sink(f, c).map_err(|e| {
                sink_err = Some(e);
                kq_coreutils::CmdError::new("sort", "merge sink failed")
            })
        });
        res.map_err(|e| {
            sink_err
                .take()
                .unwrap_or_else(|| EvalError::Command(e.to_string()))
        })
    }
}

/// Evaluates `g y1 y2` per Figure 6.
pub fn eval(g: &Combiner, y1: &[u8], y2: &[u8], env: &dyn RunEnv) -> Result<Bytes, EvalError> {
    match g {
        Combiner::Rec(b) => eval_rec(b, y1, y2).map(Bytes::from),
        Combiner::Struct(s) => eval_struct(s, y1, y2).map(Bytes::from),
        Combiner::Run(RunOp::Rerun) => env.rerun(Bytes::from([y1, y2].concat())),
        Combiner::Run(RunOp::Merge(flags)) => env.merge(merge_order(flags)?, &[y1, y2]),
    }
}

/// The value of `add y1 y2`: both arguments are non-empty digit runs and
/// neither they nor their sum leave `i64`. The one definition of the
/// rule — [`eval`] renders the sum, the candidate-space walk
/// ([`crate::space`]) compares it against the expected output.
pub(crate) fn add_digit_runs(y1: &[u8], y2: &[u8]) -> Result<i64, EvalError> {
    let parse = |s: &[u8]| -> Result<i64, EvalError> {
        if s.is_empty() || !s.iter().all(u8::is_ascii_digit) {
            return Err(EvalError::Domain("add expects a digit run"));
        }
        s.iter()
            .try_fold(0i64, |n, &d| {
                n.checked_mul(10)?.checked_add(i64::from(d - b'0'))
            })
            .ok_or(EvalError::Domain("add overflow"))
    };
    parse(y1)?
        .checked_add(parse(y2)?)
        .ok_or(EvalError::Domain("add overflow"))
}

pub(crate) fn eval_rec(b: &RecOp, y1: &[u8], y2: &[u8]) -> Result<Vec<u8>, EvalError> {
    match b {
        RecOp::Add => add_digit_runs(y1, y2).map(|sum| sum.to_string().into_bytes()),
        RecOp::Concat => Ok([y1, y2].concat()),
        RecOp::First => Ok(y1.to_vec()),
        RecOp::Second => Ok(y2.to_vec()),
        RecOp::Front(d, b) => {
            let d = d.as_byte();
            let t1 = del_front(d, y1).ok_or(EvalError::Domain("front: missing delimiter"))?;
            let t2 = del_front(d, y2).ok_or(EvalError::Domain("front: missing delimiter"))?;
            let mut out = vec![d];
            out.extend_from_slice(&eval_rec(b, t1, t2)?);
            Ok(out)
        }
        RecOp::Back(d, b) => {
            let d = d.as_byte();
            let t1 = del_back(d, y1).ok_or(EvalError::Domain("back: missing delimiter"))?;
            let t2 = del_back(d, y2).ok_or(EvalError::Domain("back: missing delimiter"))?;
            let mut out = eval_rec(b, t1, t2)?;
            out.push(d);
            Ok(out)
        }
        RecOp::Fuse(d, b) => {
            let d = d.as_byte();
            let p1: Vec<&[u8]> = y1.split(|&c| c == d).collect();
            let p2: Vec<&[u8]> = y2.split(|&c| c == d).collect();
            if p1.len() < 2 {
                return Err(EvalError::Domain("fuse: delimiter absent"));
            }
            if p1.len() != p2.len() {
                return Err(EvalError::Domain("fuse: piece counts differ"));
            }
            let mut out = Vec::with_capacity(y1.len() + y2.len());
            for (i, (a, c)) in p1.iter().zip(p2.iter()).enumerate() {
                if i > 0 {
                    out.push(d);
                }
                out.extend_from_slice(&eval_rec(b, a, c)?);
            }
            Ok(out)
        }
    }
}

/// `pre ++ "\n" ++ v ++ "\n" ++ post`, the `pre` part only when there is
/// one: the stream with its boundary lines replaced by `v`.
fn replace_boundary(pre: Option<&[u8]>, v: &[u8], post: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(pre.map_or(0, |p| p.len() + 1) + v.len() + 1 + post.len());
    if let Some(pre) = pre {
        out.extend_from_slice(pre);
        out.push(b'\n');
    }
    out.extend_from_slice(v);
    out.push(b'\n');
    out.extend_from_slice(post);
    out
}

fn eval_struct(s: &StructOp, y1: &[u8], y2: &[u8]) -> Result<Vec<u8>, EvalError> {
    match s {
        StructOp::Stitch(b) => {
            // Figure 6 short-circuits a bare "\n" to concatenation; we let
            // it flow through the general rule instead, which compares the
            // empty boundary line like any other. This is required for the
            // paper's own §3.4 claim that (stitch first) is correct for
            // `uniq`: with the short-circuit, x1 = "\n", x2 = "\na\n" is a
            // counterexample (uniq merges the boundary empties; the
            // short-circuit would not). See DESIGN.md.
            if !y1.ends_with(b"\n") || !y2.ends_with(b"\n") {
                return Err(EvalError::Domain("stitch: arguments must be streams"));
            }
            let (pre, l1) = split_last_line(y1);
            let (l2, post) = split_first_line(y2);
            if l1 != l2 {
                return Ok([y1, y2].concat());
            }
            Ok(replace_boundary(pre, &eval_rec(b, l1, l2)?, post))
        }
        StructOp::Stitch2(d, b1, b2) => {
            if y1 == b"\n" || y2 == b"\n" {
                return Ok([y1, y2].concat());
            }
            if !y1.ends_with(b"\n") || !y2.ends_with(b"\n") {
                return Err(EvalError::Domain("stitch2: arguments must be streams"));
            }
            let d = d.as_byte();
            let (pre, l1) = split_last_line(y1);
            let (l2, post) = split_first_line(y2);
            let (p1, rest1) = del_pad(l1);
            let (_p2, rest2) = del_pad(l2);
            let (h1, t1) = split_first(d, rest1);
            let (h2, t2) = split_first(d, rest2);
            let (Some(t1), Some(t2)) = (t1, t2) else {
                return Err(EvalError::Domain("stitch2: missing field delimiter"));
            };
            if t1 != t2 {
                return Ok([y1, y2].concat());
            }
            let h = eval_rec(b1, h1, h2)?;
            let t = eval_rec(b2, t1, t2)?;
            // addPad: keep the first field right-aligned to the column it
            // occupied in l1 (GNU `uniq -c`-style alignment).
            let mut v = Vec::with_capacity(p1 + h.len() + 1 + t.len());
            add_pad(p1 + h1.len(), &h, &mut v);
            v.push(d);
            v.extend_from_slice(&t);
            Ok(replace_boundary(pre, &v, post))
        }
        StructOp::Offset(d, b) => {
            if !y1.ends_with(b"\n") || !y2.ends_with(b"\n") {
                return Err(EvalError::Domain("offset: arguments must be streams"));
            }
            let d = d.as_byte();
            let (_, l1) = split_last_nonempty_line(y1);
            let Some(l1) = l1 else {
                return Err(EvalError::Domain("offset: y1 has no non-empty line"));
            };
            let (_, rest1) = del_pad(l1);
            let (h1, _) = split_first(d, rest1);
            // helper d b: rewrite the first field of every line of y2.
            let mut out = Vec::with_capacity(y1.len() + y2.len());
            out.extend_from_slice(y1);
            for line in kq_stream::lines_of(y2) {
                if line.is_empty() {
                    out.push(b'\n');
                    continue;
                }
                let (p2, rest2) = del_pad(line);
                let (h2, t2) = split_first(d, rest2);
                let Some(t2) = t2 else {
                    return Err(EvalError::Domain("offset: missing field delimiter"));
                };
                add_pad(p2 + h2.len(), &eval_rec(b, h1, h2)?, &mut out);
                out.push(d);
                out.extend_from_slice(t2);
                out.push(b'\n');
            }
            Ok(out)
        }
    }
}

/// Samples a value in `L(g1) ∩ L(g2)` and checks Definition B.7
/// (equivalence by intersection) on the given pairs: both evaluate and
/// agree on every pair that lies in both domains. Returns the number of
/// pairs actually exercised.
pub fn check_equiv_by_intersection(
    g1: &Combiner,
    g2: &Combiner,
    pairs: &[(String, String)],
    env: &dyn RunEnv,
) -> Result<usize, String> {
    let mut exercised = 0;
    for (sa, sb) in pairs {
        let (a, b) = (sa.as_bytes(), sb.as_bytes());
        let in_both = crate::domain::in_domain(g1, a)
            && crate::domain::in_domain(g1, b)
            && crate::domain::in_domain(g2, a)
            && crate::domain::in_domain(g2, b);
        if !in_both {
            continue;
        }
        exercised += 1;
        let v1 = eval(g1, a, b, env).map_err(|e| format!("{g1} failed on {sa:?},{sb:?}: {e}"))?;
        let v2 = eval(g2, a, b, env).map_err(|e| format!("{g2} failed on {sa:?},{sb:?}: {e}"))?;
        if v1 != v2 {
            return Err(format!(
                "{g1} and {g2} disagree on ({sa:?}, {sb:?}): {v1:?} vs {v2:?}"
            ));
        }
    }
    Ok(exercised)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Combiner as C, RecOp as R, StructOp as S};
    use kq_stream::Delim;

    fn ev(g: &C, y1: &str, y2: &str) -> Result<Bytes, EvalError> {
        eval(g, y1.as_bytes(), y2.as_bytes(), &NoRunEnv)
    }

    fn rec(b: R, y1: &str, y2: &str) -> Result<Bytes, EvalError> {
        ev(&C::Rec(b), y1, y2)
    }

    #[test]
    fn add_rule() {
        assert_eq!(rec(R::Add, "4", "9").unwrap(), "13");
        assert_eq!(rec(R::Add, "007", "01").unwrap(), "8");
        assert!(rec(R::Add, "4x", "9").is_err());
        assert!(rec(R::Add, "", "9").is_err());
        assert!(rec(R::Add, "-4", "9").is_err());
    }

    #[test]
    fn add_overflow_is_a_domain_error() {
        // Each argument fits `i64`, their sum does not: this used to panic
        // in debug builds and wrap to "-2" in release builds.
        let max = i64::MAX.to_string();
        assert_eq!(
            rec(R::Add, &max, &max),
            Err(EvalError::Domain("add overflow"))
        );
        assert_eq!(
            rec(R::Add, &max, "1"),
            Err(EvalError::Domain("add overflow"))
        );
        assert_eq!(rec(R::Add, &max, "0").unwrap(), max);
        // A 20-digit argument already fails to parse.
        assert_eq!(
            rec(R::Add, "99999999999999999999", "1"),
            Err(EvalError::Domain("add overflow"))
        );
    }

    #[test]
    fn concat_first_second_rules() {
        assert_eq!(rec(R::Concat, "ab", "cd").unwrap(), "abcd");
        assert_eq!(rec(R::First, "ab", "cd").unwrap(), "ab");
        assert_eq!(rec(R::Second, "ab", "cd").unwrap(), "cd");
    }

    #[test]
    fn front_back_rules() {
        let back_add = R::Back(Delim::Newline, Box::new(R::Add));
        assert_eq!(rec(back_add.clone(), "4\n", "9\n").unwrap(), "13\n");
        assert!(rec(back_add, "4", "9\n").is_err());
        let front_concat = R::Front(Delim::Space, Box::new(R::Concat));
        assert_eq!(rec(front_concat, " ab", " cd").unwrap(), " abcd");
    }

    #[test]
    fn fuse_rule() {
        // wc-style triple counts fused by spaces.
        let fuse_add = R::Fuse(Delim::Space, Box::new(R::Add));
        assert_eq!(
            rec(fuse_add.clone(), "1 2 3", "10 20 30").unwrap(),
            "11 22 33"
        );
        assert!(rec(fuse_add.clone(), "1 2", "1 2 3").is_err());
        assert!(rec(fuse_add, "123", "456").is_err()); // no delimiter
    }

    #[test]
    fn nested_back_fuse_add() {
        // (back '\n' (fuse ' ' add)) — the default `wc` combiner.
        let g = R::Back(
            Delim::Newline,
            Box::new(R::Fuse(Delim::Space, Box::new(R::Add))),
        );
        assert_eq!(rec(g, "1 2 6\n", "3 4 5\n").unwrap(), "4 6 11\n");
    }

    #[test]
    fn stitch_merges_equal_boundary_lines() {
        let g = C::Struct(S::Stitch(R::First));
        // uniq: ... b | b ... -> single b.
        assert_eq!(ev(&g, "a\nb\n", "b\nc\n").unwrap(), "a\nb\nc\n");
        // Distinct boundary lines concatenate.
        assert_eq!(ev(&g, "a\nb\n", "c\nd\n").unwrap(), "a\nb\nc\nd\n");
    }

    #[test]
    fn stitch_single_line_streams() {
        let g = C::Struct(S::Stitch(R::First));
        assert_eq!(ev(&g, "b\n", "b\n").unwrap(), "b\n");
        assert_eq!(ev(&g, "b\n", "b\nz\n").unwrap(), "b\nz\n");
    }

    #[test]
    fn stitch_empty_stream_concatenates() {
        let g = C::Struct(S::Stitch(R::First));
        assert_eq!(ev(&g, "\n", "x\n").unwrap(), "\nx\n");
        assert_eq!(ev(&g, "x\n", "\n").unwrap(), "x\n\n");
    }

    #[test]
    fn stitch_merges_empty_boundary_lines() {
        // The uniq case that rules out Figure 6's bare-newline
        // short-circuit: empty boundary lines merge like any other.
        let g = C::Struct(S::Stitch(R::First));
        assert_eq!(ev(&g, "\n", "\nx\n").unwrap(), "\nx\n");
        assert_eq!(ev(&g, "a\n\n", "\nb\n").unwrap(), "a\n\nb\n");
    }

    #[test]
    fn stitch2_adds_counts_and_keeps_padding() {
        // The `uniq -c` combiner: (stitch2 ' ' add first).
        let g = C::Struct(S::Stitch2(Delim::Space, R::Add, R::First));
        let y1 = "      2 alpha\n      4 word\n";
        let y2 = "      9 word\n      1 beta\n";
        assert_eq!(
            ev(&g, y1, y2).unwrap(),
            "      2 alpha\n     13 word\n      1 beta\n"
        );
    }

    #[test]
    fn stitch2_distinct_tails_concatenate() {
        let g = C::Struct(S::Stitch2(Delim::Space, R::Add, R::First));
        let y1 = "      4 word\n";
        let y2 = "      9 other\n";
        assert_eq!(ev(&g, y1, y2).unwrap(), "      4 word\n      9 other\n");
    }

    #[test]
    fn stitch2_padding_overflow_widens() {
        let g = C::Struct(S::Stitch2(Delim::Space, R::Add, R::First));
        let y1 = "9999999 w\n";
        let y2 = "      1 w\n";
        assert_eq!(ev(&g, y1, y2).unwrap(), "10000000 w\n");
    }

    #[test]
    fn offset_adjusts_first_fields() {
        // (offset ' ' add): shift y2's counts by y1's final count —
        // the `xargs -L 1 wc -l`-style running adjustment.
        let g = C::Struct(S::Offset(Delim::Space, R::Add));
        let y1 = "3 a.txt\n10 b.txt\n";
        let y2 = "4 c.txt\n1 d.txt\n";
        assert_eq!(
            ev(&g, y1, y2).unwrap(),
            "3 a.txt\n10 b.txt\n14 c.txt\n11 d.txt\n"
        );
    }

    #[test]
    fn offset_second_is_concat_on_tables() {
        let g = C::Struct(S::Offset(Delim::Space, R::Second));
        let y1 = "3 a\n";
        let y2 = "4 b\n5 c\n";
        assert_eq!(ev(&g, y1, y2).unwrap(), "3 a\n4 b\n5 c\n");
    }

    #[test]
    fn offset_keeps_empty_lines() {
        let g = C::Struct(S::Offset(Delim::Space, R::Second));
        assert_eq!(ev(&g, "1 x\n", "\n2 y\n").unwrap(), "1 x\n\n2 y\n");
    }

    #[test]
    fn equiv_by_intersection_example1() {
        // Example 1 of the appendix: (front d concat) ≡∩ (back d concat).
        let g1 = C::Rec(R::Front(Delim::Space, Box::new(R::Concat)));
        let g2 = C::Rec(R::Back(Delim::Space, Box::new(R::Concat)));
        let pairs = vec![
            (" a ".to_owned(), " b ".to_owned()),
            (" x y ".to_owned(), " z ".to_owned()),
        ];
        let n = check_equiv_by_intersection(&g1, &g2, &pairs, &NoRunEnv).unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn equiv_by_intersection_stitch_forms() {
        // (stitch2 d first first) ≡∩ (stitch first).
        let g1 = C::Struct(S::Stitch2(Delim::Space, R::First, R::First));
        let g2 = C::Struct(S::Stitch(R::First));
        let pairs = vec![
            (" 1 w\n".to_owned(), " 1 w\n".to_owned()),
            (" 1 w\n".to_owned(), " 2 z\n".to_owned()),
        ];
        // Both defined on padded-table streams; they agree wherever both
        // are defined.
        let n = check_equiv_by_intersection(&g1, &g2, &pairs, &NoRunEnv).unwrap();
        assert!(n >= 1);
    }

    #[test]
    fn disagreement_is_detected() {
        let g1 = C::Rec(R::First);
        let g2 = C::Rec(R::Second);
        let pairs = vec![("x".to_owned(), "y".to_owned())];
        assert!(check_equiv_by_intersection(&g1, &g2, &pairs, &NoRunEnv).is_err());
    }
}
