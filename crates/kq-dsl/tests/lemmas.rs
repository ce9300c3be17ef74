//! Property-based verification of the paper's appendix lemmas (B.1–B.4)
//! over randomly generated RecOp trees and strings. These lemmas underpin
//! the equivalence proofs of Theorems 1–4.

use kq_dsl::ast::Combiner;
use kq_dsl::ast::RecOp;
use kq_dsl::eval::eval;
use kq_dsl::eval::NoRunEnv;
use kq_dsl::{domain, Delim};
use kq_stream::count_delim;
use proptest::prelude::*;

/// A strategy over RecOp trees up to a few levels deep.
fn rec_op() -> impl Strategy<Value = RecOp> {
    let leaf = prop_oneof![
        Just(RecOp::Add),
        Just(RecOp::Concat),
        Just(RecOp::First),
        Just(RecOp::Second),
    ];
    leaf.prop_recursive(3, 12, 1, |inner| {
        (
            inner,
            prop_oneof![Just(Delim::Space), Just(Delim::Comma), Just(Delim::Tab)],
            0..3u8,
        )
            .prop_map(|(child, d, which)| match which {
                0 => RecOp::Front(d, Box::new(child)),
                1 => RecOp::Back(d, Box::new(child)),
                _ => RecOp::Fuse(d, Box::new(child)),
            })
    })
}

fn delim_free_string() -> impl Strategy<Value = String> {
    // Digits and letters only: no DSL delimiter can appear.
    "[a-z0-9]{1,12}"
}

proptest! {
    /// Lemma B.1: if `d` occurs in neither argument, `d` does not occur in
    /// any successful RecOp result.
    #[test]
    fn lemma_b1_recop_preserves_delim_absence(
        g in rec_op(),
        y1 in delim_free_string(),
        y2 in delim_free_string(),
    ) {
        if let Ok(v) = eval(&Combiner::Rec(g), y1.as_bytes(), y2.as_bytes(), &NoRunEnv) {
            for d in Delim::ALL {
                prop_assume!(count_delim(d.as_byte(), y1.as_bytes()) == 0);
                prop_assume!(count_delim(d.as_byte(), y2.as_bytes()) == 0);
                prop_assert_eq!(count_delim(d.as_byte(), v.as_bytes()), 0);
            }
        }
    }

    /// Lemma B.2: no RecOp result equals `y1 ++ z ++ y2` for non-empty `z`
    /// — i.e. RecOp combiners never invent interior content.
    #[test]
    fn lemma_b2_no_invented_interior(
        g in rec_op(),
        y1 in "[a-z]{1,6}",
        y2 in "[a-z]{1,6}",
    ) {
        if let Ok(v) = eval(&Combiner::Rec(g), y1.as_bytes(), y2.as_bytes(), &NoRunEnv) {
            if v.len() > y1.len() + y2.len()
                && v.as_bytes().starts_with(y1.as_bytes())
                && v.as_bytes().ends_with(y2.as_bytes())
            {
                // The middle would be invented content.
                prop_assert!(false, "invented interior: {v:?} from {y1:?} {y2:?}");
            }
        }
    }

    /// Lemma B.3: a successful `fuse d b` preserves the count of `d` from
    /// its (equal-count) arguments.
    #[test]
    fn lemma_b3_fuse_preserves_delim_count(
        parts in proptest::collection::vec("[0-9]{1,3}", 2..6),
        parts2 in proptest::collection::vec("[0-9]{1,3}", 2..6),
    ) {
        let g = RecOp::Fuse(Delim::Space, Box::new(RecOp::Add));
        let y1 = parts.join(" ");
        let y2 = parts2.join(" ");
        if let Ok(v) = eval(&Combiner::Rec(g), y1.as_bytes(), y2.as_bytes(), &NoRunEnv) {
            prop_assert_eq!(count_delim(b' ', y1.as_bytes()), count_delim(b' ', y2.as_bytes()));
            prop_assert_eq!(count_delim(b' ', v.as_bytes()), count_delim(b' ', y1.as_bytes()));
        }
    }

    /// Lemma B.4: for any RecOp, the result's delimiter count never
    /// exceeds the sum of the arguments' counts.
    #[test]
    fn lemma_b4_delim_count_subadditive(
        g in rec_op(),
        y1 in "[a-z0-9 ,]{0,16}",
        y2 in "[a-z0-9 ,]{0,16}",
    ) {
        if let Ok(v) = eval(&Combiner::Rec(g.clone()), y1.as_bytes(), y2.as_bytes(), &NoRunEnv) {
            for d in [b' ', b',', b'\t', b'\n'] {
                let count = |y: &[u8]| count_delim(d, y);
                prop_assert!(
                    count(v.as_bytes()) <= count(y1.as_bytes()) + count(y2.as_bytes()) + 2,
                    "combiner {g:?} inflated {d:?}: {v:?} from {y1:?}/{y2:?}"
                );
            }
        }
    }

    /// Domain soundness: evaluation succeeds on every pair *constructed
    /// from* the combiner's legal domain `L(g)` — the guarantee Definition
    /// B.1 states ("for any y1, y2 ∈ L(g), the evaluation succeeds").
    /// Strings are built bottom-up to lie in the domain; `fuse` arity is
    /// matched (a cross-pair constraint `L(g)` cannot express).
    #[test]
    fn eval_total_on_legal_domain(g in rec_op(), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let arity = rng.gen_range(2..5usize);
        // Some nested combiners have *empty* domains (e.g. a fuse whose
        // child demands the fuse delimiter inside every piece); the
        // sampler reports those as None and the case is skipped.
        let (y1, y2) = match (
            sample_in_domain(&g, &mut rng, arity),
            sample_in_domain(&g, &mut rng, arity),
        ) {
            (Some(a), Some(b)) => (a, b),
            _ => return Ok(()),
        };
        let c = Combiner::Rec(g);
        prop_assert!(domain::in_domain(&c, y1.as_bytes()), "{c} should admit {y1:?}");
        prop_assert!(domain::in_domain(&c, y2.as_bytes()), "{c} should admit {y2:?}");
        let r = eval(&c, y1.as_bytes(), y2.as_bytes(), &NoRunEnv);
        prop_assert!(r.is_ok(), "{c} failed on {y1:?}/{y2:?}: {:?}", r.err());
    }
}

/// Builds a string in `L(g)` bottom-up; `fuse` uses a caller-fixed arity
/// so both arguments decompose into equally many pieces. Returns `None`
/// when the domain is unsatisfiable (a fuse child that itself requires
/// the fuse delimiter).
fn sample_in_domain(g: &RecOp, rng: &mut rand::rngs::SmallRng, arity: usize) -> Option<String> {
    use rand::Rng;
    Some(match g {
        RecOp::Add => format!("{}", rng.gen_range(0..10_000u32)),
        RecOp::Concat | RecOp::First | RecOp::Second => {
            let n = rng.gen_range(1..6);
            (0..n)
                .map(|_| (b'a' + rng.gen_range(0..26)) as char)
                .collect()
        }
        RecOp::Front(d, b) => format!("{}{}", d.as_char(), sample_in_domain(b, rng, arity)?),
        RecOp::Back(d, b) => format!("{}{}", sample_in_domain(b, rng, arity)?, d.as_char()),
        RecOp::Fuse(d, b) => {
            let mut parts = Vec::with_capacity(arity);
            for _ in 0..arity {
                let p = sample_in_domain(b, rng, arity)?;
                if p.is_empty() || p.contains(d.as_char()) {
                    // The child's domain forces the fuse delimiter into
                    // the piece: L(fuse d b) is empty.
                    return None;
                }
                parts.push(p);
            }
            parts.join(&d.as_char().to_string())
        }
    })
}

/// Deterministic spot checks of the lemmas' edge conditions.
#[test]
fn lemma_edges() {
    // B.3 arity mismatch is an error, not a silent truncation.
    let g = Combiner::Rec(RecOp::Fuse(Delim::Space, Box::new(RecOp::Add)));
    assert!(eval(&g, b"1 2", b"1 2 3", &NoRunEnv).is_err());
    // B.1 boundary: delimiters inside arguments survive concat only.
    let g = Combiner::Rec(RecOp::Concat);
    assert_eq!(eval(&g, b"a b", b"c", &NoRunEnv).unwrap(), "a bc");
}
