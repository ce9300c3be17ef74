//! Legal domains `L(g)` (paper Definition B.1).
//!
//! Plausibility (Definition 3.9) requires `y1, y2 ∈ L(g)` *before*
//! evaluation: a combiner is discarded outright when an observation falls
//! outside its domain. The definitions here mirror Definition B.1, with one
//! documented relaxation: `stitch2`/`offset` padding may be empty (GNU
//! `uniq -c` emits no padding for counts of eight or more digits).

use crate::ast::{Combiner, RecOp, RunOp, StructOp};
use kq_stream::{del_pad, split_first, Delim};

/// `y ∈ L(g)`.
pub fn in_domain(g: &Combiner, y: &[u8]) -> bool {
    match g {
        Combiner::Rec(b) => rec_in_domain(b, y),
        Combiner::Struct(s) => struct_in_domain(s, y),
        // L(rerun_f) = legal inputs for f, L(merge) = legal inputs for
        // unixMerge: any string; failures surface as evaluation errors.
        Combiner::Run(RunOp::Rerun) | Combiner::Run(RunOp::Merge(_)) => {
            let _ = y;
            true
        }
    }
}

/// True when `L(g)` is every string — [`in_domain`] is constantly `true`.
///
/// Universal-domain combiners (`concat`, `first`, `second`, `rerun`,
/// `merge`) can never be deselected by a composite's first-member-whose-
/// domain-admits-all-pieces rule: when such a combiner leads a composite,
/// it is the selected member for *any* piece list. Incremental folds use
/// this to commit to the primary member without retaining raw piece
/// handles for a fallback that cannot be selected.
pub fn is_universal(g: &Combiner) -> bool {
    matches!(
        g,
        Combiner::Rec(RecOp::Concat | RecOp::First | RecOp::Second)
            | Combiner::Run(RunOp::Rerun | RunOp::Merge(_))
    )
}

pub(crate) fn rec_in_domain(b: &RecOp, y: &[u8]) -> bool {
    match b {
        RecOp::Add => !y.is_empty() && y.iter().all(u8::is_ascii_digit),
        RecOp::Concat | RecOp::First | RecOp::Second => true,
        RecOp::Front(d, b) => match y.strip_prefix(&[d.as_byte()]) {
            Some(rest) => rec_in_domain(b, rest),
            None => false,
        },
        RecOp::Back(d, b) => match y.strip_suffix(&[d.as_byte()]) {
            Some(rest) => rec_in_domain(b, rest),
            None => false,
        },
        RecOp::Fuse(d, b) => {
            let parts: Vec<&[u8]> = y.split(|&c| c == d.as_byte()).collect();
            parts.len() >= 2
                && !parts.first().unwrap().is_empty()
                && !parts.last().unwrap().is_empty()
                && parts.iter().all(|p| rec_in_domain(b, p))
        }
    }
}

fn struct_in_domain(s: &StructOp, y: &[u8]) -> bool {
    if y == b"\n" {
        // All three structural domains include the empty stream.
        return true;
    }
    if !y.ends_with(b"\n") {
        return false;
    }
    match s {
        StructOp::Stitch(b) => kq_stream::lines_of(y).all(|l| rec_in_domain(b, l)),
        StructOp::Stitch2(d, b1, b2) => kq_stream::lines_of(y).all(|l| {
            table_line(*d, l)
                .map(|(h, t)| rec_in_domain(b1, h) && rec_in_domain(b2, t))
                .unwrap_or(false)
        }),
        StructOp::Offset(d, b) => kq_stream::lines_of(y).all(|l| {
            if l.is_empty() {
                // L(offset) admits nil lines.
                return true;
            }
            table_line(*d, l)
                .map(|(h, _t)| rec_in_domain(b, h))
                .unwrap_or(false)
        }),
    }
}

/// Decomposes a padded table line `pad ++ h ++ d ++ t`, requiring `d ∉ h`.
/// Returns `None` when the field delimiter is absent.
pub(crate) fn table_line(d: Delim, line: &[u8]) -> Option<(&[u8], &[u8])> {
    let (_pad, rest) = del_pad(line);
    let (h, t) = split_first(d.as_byte(), rest);
    t.map(|t| (h, t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Combiner as C, RecOp as R, StructOp as S};

    #[test]
    fn add_domain_is_digit_runs() {
        let g = C::Rec(R::Add);
        assert!(in_domain(&g, b"0123"));
        assert!(!in_domain(&g, b""));
        assert!(!in_domain(&g, b"12\n"));
        assert!(!in_domain(&g, b"-2"));
    }

    #[test]
    fn concat_domain_is_everything() {
        let g = C::Rec(R::Concat);
        assert!(in_domain(&g, b""));
        assert!(in_domain(&g, b"any\nthing"));
    }

    #[test]
    fn back_add_domain() {
        let g = C::Rec(R::Back(Delim::Newline, Box::new(R::Add)));
        assert!(in_domain(&g, b"42\n"));
        assert!(!in_domain(&g, b"42"));
        assert!(!in_domain(&g, b"4 2\n"));
        // wc -l output is exactly this shape.
        assert!(in_domain(&g, b"0\n"));
    }

    #[test]
    fn fuse_domain_requires_delimiter_and_nonempty_ends() {
        let g = C::Rec(R::Fuse(Delim::Space, Box::new(R::Add)));
        assert!(in_domain(&g, b"1 2 3"));
        assert!(!in_domain(&g, b"123")); // k >= 2 required
        assert!(!in_domain(&g, b" 1")); // first piece empty
        assert!(!in_domain(&g, b"1 ")); // last piece empty
        assert!(!in_domain(&g, b"1 x")); // piece outside L(add)
    }

    #[test]
    fn stitch_domain_lines_in_child_domain() {
        let g = C::Struct(S::Stitch(R::First));
        assert!(in_domain(&g, b"a\nb\n"));
        assert!(in_domain(&g, b"\n"));
        assert!(!in_domain(&g, b"a\nb")); // not a stream
        let g_add = C::Struct(S::Stitch(R::Add));
        assert!(in_domain(&g_add, b"1\n23\n"));
        assert!(!in_domain(&g_add, b"1\nx\n"));
    }

    #[test]
    fn stitch2_domain_requires_table_lines() {
        let g = C::Struct(S::Stitch2(Delim::Space, R::Add, R::First));
        assert!(in_domain(&g, b"      4 word\n      9 other\n"));
        assert!(in_domain(&g, b"\n"));
        assert!(!in_domain(&g, b"word\n")); // no field delimiter
        assert!(!in_domain(&g, b"      x word\n")); // first field not numeric
    }

    #[test]
    fn offset_domain_admits_empty_lines() {
        let g = C::Struct(S::Offset(Delim::Space, R::Add));
        assert!(in_domain(&g, b"3 a\n\n4 b\n"));
        assert!(!in_domain(&g, b"bare\n"));
    }

    #[test]
    fn run_ops_accept_everything() {
        assert!(in_domain(&C::Run(RunOp::Rerun), b"anything"));
        assert!(in_domain(&C::Run(RunOp::Merge(vec![])), b""));
    }

    #[test]
    fn universal_domains_are_exactly_the_unrestricted_ops() {
        assert!(is_universal(&C::Rec(R::Concat)));
        assert!(is_universal(&C::Rec(R::First)));
        assert!(is_universal(&C::Rec(R::Second)));
        assert!(is_universal(&C::Run(RunOp::Rerun)));
        assert!(is_universal(&C::Run(RunOp::Merge(vec!["-rn".into()]))));
        assert!(!is_universal(&C::Rec(R::Add)));
        assert!(!is_universal(&C::Rec(R::Back(
            Delim::Newline,
            Box::new(R::Add)
        ))));
        assert!(!is_universal(&C::Struct(S::Stitch(R::First))));
    }
}
