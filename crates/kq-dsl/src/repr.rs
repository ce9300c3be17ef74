//! Representative combiners (Definition B.11) and the observation-
//! sufficiency predicates of Table 2 and Definitions B.13–B.15.
//!
//! `E(g, Y)` is a conservative predicate: when it holds, the observation
//! set `Y` is rich enough that every plausible candidate in the same class
//! is equivalent-by-intersection to the correct combiner `g` (Theorems
//! 1–4). The synthesizer uses these predicates in tests and diagnostics to
//! certify that its generated inputs were sufficient.

use crate::ast::{Combiner, RecOp, StructOp};
use crate::Observation;
use kq_stream::{del_pad, split_first, split_first_line, split_last_line, Delim};

/// `G_rec` — the representative RecOp combiners (Definition B.11),
/// instantiated with a delimiter alphabet.
pub fn g_rec(delims: &[Delim]) -> Vec<Combiner> {
    let mut out = vec![
        Combiner::Rec(RecOp::Add),
        Combiner::Rec(RecOp::Concat),
        Combiner::Rec(RecOp::First),
        Combiner::Rec(RecOp::Second),
    ];
    for &d in delims {
        out.push(Combiner::Rec(RecOp::Back(d, Box::new(RecOp::Add))));
        out.push(Combiner::Rec(RecOp::Fuse(d, Box::new(RecOp::Add))));
        out.push(Combiner::Rec(RecOp::Front(d, Box::new(RecOp::Concat))));
        for &d2 in delims {
            out.push(Combiner::Rec(RecOp::Back(
                d,
                Box::new(RecOp::Fuse(d2, Box::new(RecOp::Add))),
            )));
            for &d3 in delims {
                out.push(Combiner::Rec(RecOp::Front(
                    d,
                    Box::new(RecOp::Back(
                        d2,
                        Box::new(RecOp::Fuse(d3, Box::new(RecOp::Add))),
                    )),
                )));
            }
        }
    }
    out
}

/// `G_struct` — the representative StructOp combiners (Definition B.11).
pub fn g_struct(delims: &[Delim]) -> Vec<Combiner> {
    let mut out = vec![Combiner::Struct(StructOp::Stitch(RecOp::First))];
    for &d in delims {
        out.push(Combiner::Struct(StructOp::Stitch2(
            d,
            RecOp::Add,
            RecOp::First,
        )));
        out.push(Combiner::Struct(StructOp::Offset(d, RecOp::Add)));
    }
    out
}

/// A byte outside `Delim ∪ {'0'}`. On UTF-8 the first and the last byte
/// of a character answer as the character does.
fn non_delim_nonzero(c: u8) -> bool {
    !Delim::is_delim_char(char::from(c)) && c != b'0'
}

/// The observation's boundary lines: the last line of `y1`, the first of
/// `y2`, and what follows that in `y2`.
fn boundary(o: &Observation) -> (&[u8], &[u8], &[u8]) {
    let (_, l1) = split_last_line(o.y1.as_bytes());
    let (l2, rest) = split_first_line(o.y2.as_bytes());
    (l1, l2, rest)
}

/// `l1 == l2`, and the line starts (past its pad) and ends with a byte
/// outside `Delim ∪ {'0'}`.
fn shared_boundary(l1: &[u8], l2: &[u8]) -> bool {
    let (_, depadded) = del_pad(l1);
    l1 == l2
        && depadded.first().is_some_and(|&c| non_delim_nonzero(c))
        && l1.last().is_some_and(|&c| non_delim_nonzero(c))
}

/// `E(g_a, Y)`: some `y1` and some `y2` are not all-zero digit runs.
pub fn e_add(obs: &[Observation]) -> bool {
    obs.iter().any(|o| !o.y1.chars().all(|c| c == '0'))
        && obs.iter().any(|o| !o.y2.chars().all(|c| c == '0'))
}

/// `E(g_c, Y)`: some `y1` and some `y2` are non-empty.
pub fn e_concat(obs: &[Observation]) -> bool {
    obs.iter().any(|o| !o.y1.is_empty()) && obs.iter().any(|o| !o.y2.is_empty())
}

/// `E(g_f, Y)`: some observation has `y1 ≠ y2`, and some `y2` contains a
/// character outside `Delim ∪ {'0'}`.
pub fn e_first(obs: &[Observation]) -> bool {
    obs.iter().any(|o| o.y1 != o.y2) && obs.iter().any(|o| o.y2.bytes().any(non_delim_nonzero))
}

/// `E(g_s, Y)` — symmetric to [`e_first`].
pub fn e_second(obs: &[Observation]) -> bool {
    obs.iter().any(|o| o.y1 != o.y2) && obs.iter().any(|o| o.y1.bytes().any(non_delim_nonzero))
}

/// `E(g_ba, Y)`: strip the trailing delimiter from every component, then
/// require `E(g_a)` on the residue. Observations that do not carry the
/// delimiter are dropped (the predicate is conservative).
pub fn e_back_add(d: Delim, obs: &[Observation]) -> bool {
    let stripped: Vec<Observation> = obs
        .iter()
        .filter_map(|o| {
            Some(Observation::new(
                o.y1.strip_suffix(d.as_char())?,
                o.y2.strip_suffix(d.as_char())?,
                o.y12.strip_suffix(d.as_char())?,
            ))
        })
        .collect();
    !stripped.is_empty() && e_add(&stripped)
}

/// `E(g_sf, Y)` — conditions for `(stitch first)` (Table 2): a boundary
/// observation whose shared boundary line starts and ends with characters
/// outside `Delim ∪ {'0'}`, plus (when the outputs are tables) an
/// observation whose boundary first-fields differ.
pub fn e_stitch_first(obs: &[Observation]) -> bool {
    let boundary_ok = obs.iter().any(|o| {
        let (l1, l2, _) = boundary(o);
        shared_boundary(l1, l2)
    });
    if !boundary_ok {
        return false;
    }
    for d in Delim::ALL {
        if obs_table_shaped(d, obs) {
            let heads_differ = obs.iter().any(|o| {
                let (l1, l2, _) = boundary(o);
                let (h1, t1) = split_field(d, l1);
                let (h2, t2) = split_field(d, l2);
                t1 == t2 && h1 != h2
            });
            if !heads_differ {
                return false;
            }
        }
    }
    true
}

/// `E(g_saf, Y)` — conditions for `(stitch2 d add first)` (Table 2).
pub fn e_stitch2_add_first(obs: &[Observation]) -> bool {
    obs.iter().any(|o| {
        let (l1, l2, _) = boundary(o);
        shared_boundary(l1, l2)
    })
}

/// `E_rec(Y)` (Definition B.13): sufficient to discriminate within RecOp
/// whenever the correct combiner is in `G_rec`.
pub fn e_rec(obs: &[Observation]) -> bool {
    obs.iter().any(|o| o.y1 != o.y2)
        && obs.iter().any(|o| o.y1.bytes().any(non_delim_nonzero))
        && obs.iter().any(|o| o.y2.bytes().any(non_delim_nonzero))
}

/// `T(Y)` (Definition B.14): the observations are interpretable as a table
/// — every line of every component is nil or `pad ++ h ++ d ++ t` for a
/// single delimiter `d`.
pub fn t_table(obs: &[Observation]) -> bool {
    Delim::ALL
        .into_iter()
        .filter(|d| *d != Delim::Newline)
        .any(|d| obs_table_shaped(d, obs))
}

fn obs_table_shaped(d: Delim, obs: &[Observation]) -> bool {
    if d == Delim::Newline {
        return false;
    }
    let line_ok = |l: &[u8]| l.is_empty() || split_field(d, l).1.is_some();
    let stream_ok = |s: &str| kq_stream::lines_of(s.as_bytes()).all(line_ok);
    !obs.is_empty()
        && obs
            .iter()
            .all(|o| stream_ok(&o.y1) && stream_ok(&o.y2) && stream_ok(&o.y12))
}

fn split_field(d: Delim, line: &[u8]) -> (&[u8], Option<&[u8]>) {
    split_first(d.as_byte(), del_pad(line).1)
}

/// `E_struct(Y)` (Definition B.15): sufficient to discriminate within
/// StructOp whenever the correct combiner is in `G_struct`.
pub fn e_struct(obs: &[Observation]) -> bool {
    let first = obs.iter().any(|o| {
        let (l1, l2, y2p) = boundary(o);
        shared_boundary(l1, l2) && !split_first_line(y2p).0.is_empty()
    });
    if !first {
        return false;
    }
    if t_table(obs) {
        // Project the table observations to their first fields and require
        // E_rec on the projection.
        for d in Delim::ALL {
            if obs_table_shaped(d, obs) {
                let projected: Vec<Observation> = obs
                    .iter()
                    .filter_map(|o| {
                        let (l1, l2, _) = boundary(o);
                        let (h1, t1) = split_field(d, l1);
                        let (h2, t2) = split_field(d, l2);
                        // Cut at an ASCII delimiter: the fields are text.
                        let text = |h| String::from_utf8_lossy(h).into_owned();
                        (t1 == t2).then(|| Observation::new(text(h1), text(h2), String::new()))
                    })
                    .collect();
                if !e_rec(&projected) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(triples: &[(&str, &str, &str)]) -> Vec<Observation> {
        triples
            .iter()
            .map(|(a, b, c)| Observation::new(*a, *b, *c))
            .collect()
    }

    #[test]
    fn representative_sets_nonempty_and_well_formed() {
        let delims = [Delim::Newline, Delim::Space];
        let grec = g_rec(&delims);
        let gstruct = g_struct(&delims);
        assert!(grec.len() >= 9);
        assert_eq!(gstruct.len(), 1 + 2 * delims.len());
        for g in grec.iter().chain(&gstruct) {
            assert!(g.size() >= 3);
        }
    }

    #[test]
    fn e_add_requires_nonzero_observations() {
        assert!(!e_add(&obs(&[("0", "0", "0")])));
        assert!(!e_add(&obs(&[("7", "0", "7")])));
        assert!(e_add(&obs(&[("7", "0", "7"), ("0", "3", "3")])));
    }

    #[test]
    fn e_concat_requires_nonempty_both_sides() {
        assert!(!e_concat(&obs(&[("", "x", "x")])));
        assert!(e_concat(&obs(&[("", "x", "x"), ("y", "", "y")])));
    }

    #[test]
    fn e_first_needs_difference_and_content() {
        assert!(!e_first(&obs(&[("a", "a", "a")])));
        assert!(!e_first(&obs(&[("a", "0", "a")])));
        assert!(e_first(&obs(&[("a", "b", "a")])));
    }

    #[test]
    fn e_back_add_strips_delimiter() {
        assert!(e_back_add(Delim::Newline, &obs(&[("3\n", "4\n", "7\n")])));
        assert!(!e_back_add(Delim::Newline, &obs(&[("0\n", "0\n", "0\n")])));
        assert!(!e_back_add(Delim::Newline, &obs(&[("3", "4", "7")])));
    }

    #[test]
    fn e_rec_composite() {
        assert!(e_rec(&obs(&[("a\n", "b\n", "a\nb\n")])));
        assert!(!e_rec(&obs(&[("0\n", "0\n", "0\n0\n")])));
        assert!(!e_rec(&obs(&[("a\n", "a\n", "a\na\n")])));
    }

    #[test]
    fn table_detection() {
        let table = obs(&[(
            "      2 cat\n",
            "      1 dog\n",
            "      2 cat\n      1 dog\n",
        )]);
        assert!(t_table(&table));
        let not_table = obs(&[("plainline\n", "other\n", "plainline\nother\n")]);
        assert!(!t_table(&not_table));
    }

    #[test]
    fn e_stitch2_on_uniq_c_style_boundary() {
        // Boundary lines equal with content: "      4 word" both sides.
        let good = obs(&[(
            "      1 alpha\n      4 word\n",
            "      4 word\n",
            "      1 alpha\n      8 word\n",
        )]);
        assert!(e_stitch2_add_first(&good));
        let bad = obs(&[("      1 a\n", "      2 b\n", "      1 a\n      2 b\n")]);
        assert!(!e_stitch2_add_first(&bad));
    }

    #[test]
    fn e_struct_requires_second_line_in_y2() {
        // y2 must contain a second line after the shared boundary line.
        let good = obs(&[("alpha\nword\n", "word\nbeta\n", "alpha\nword\nbeta\n")]);
        assert!(e_struct(&good));
        let no_second = obs(&[("word\n", "word\n", "word\n")]);
        assert!(!e_struct(&no_second));
    }
}
