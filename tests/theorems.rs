//! Empirical verification of the paper's theorems.
//!
//! The theorems characterize when filtering is guaranteed to land on the
//! correct combiner (or an equivalent). These tests build observation sets
//! from real command executions, check the sufficiency predicates `E`,
//! filter the *entire* candidate space, and verify every survivor is
//! equivalent-by-intersection to the known-correct combiner.

use kq_coreutils::{parse_command, ExecContext};
use kq_dsl::ast::{Combiner, RecOp, StructOp};
use kq_dsl::eval::{check_equiv_by_intersection, CommandEnv, NoRunEnv};
use kq_dsl::repr;
use kq_dsl::{enumerate_candidates, plausible, Delim, EnumConfig, Observation};

/// Observations from running `cmd` on the given split input pairs.
fn observe(cmd: &str, pairs: &[(&str, &str)]) -> (Vec<Observation>, kq_coreutils::Command) {
    let command = parse_command(cmd).unwrap();
    let ctx = ExecContext::default();
    let obs = pairs
        .iter()
        .map(|(x1, x2)| {
            let y1 = command.run_str(x1, &ctx).unwrap();
            let y2 = command.run_str(x2, &ctx).unwrap();
            let y12 = command.run_str(&format!("{x1}{x2}"), &ctx).unwrap();
            Observation { y1, y2, y12 }
        })
        .collect();
    (obs, command)
}

/// Theorem 2 instance: for `wc -l` (correct combiner `(back '\n' add)` ∈
/// G_rec) with observations satisfying `E_rec`, every plausible RecOp
/// candidate is equivalent-by-intersection to the correct combiner.
#[test]
fn theorem2_wc_l_rec_ops_collapse_to_back_add() {
    let pairs = [
        ("a\nb\nc\n", "d\n"),
        ("x\n", "y\nz\n"),
        ("one two\n", "three\nfour\nfive\n"),
    ];
    let (obs, _command) = observe("wc -l", &pairs);
    assert!(repr::e_rec(&obs), "observations satisfy E_rec");
    let correct = Combiner::Rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add)));
    assert!(repr::e_back_add(Delim::Newline, &obs));

    let (candidates, _) = enumerate_candidates(&EnumConfig::default());
    let ctx = ExecContext::default();
    let command = parse_command("wc -l").unwrap();
    let env = CommandEnv {
        command: &command,
        ctx: &ctx,
    };
    // Equivalence is checked on the combiners' shared domain: padded
    // count streams.
    let domain_pairs: Vec<(String, String)> = (0..40)
        .map(|i| {
            (
                format!("{}\n", i * 7 % 90),
                format!("{}\n", i * 13 % 70 + 1),
            )
        })
        .collect();
    let mut survivors = 0;
    for cand in candidates
        .iter()
        .filter(|c| matches!(c.op, Combiner::Rec(_)))
    {
        if plausible(cand, &obs, &env) {
            survivors += 1;
            check_equiv_by_intersection(&cand.op, &correct, &domain_pairs, &NoRunEnv)
                .unwrap_or_else(|e| panic!("survivor {cand} not equivalent: {e}"));
        }
    }
    assert!(survivors >= 1, "the correct combiner itself must survive");
}

/// Theorem 4 instance: for `uniq` (correct combiner `(stitch first)` ∈
/// G_struct) with sufficient observations, every plausible StructOp
/// candidate is equivalent-by-intersection to `(stitch first)`.
#[test]
fn theorem4_uniq_struct_ops_collapse_to_stitch_first() {
    let pairs = [
        ("alpha\nword\n", "word\nbeta\n"),  // shared boundary line
        ("alpha\nword\n", "other\nbeta\n"), // distinct boundary lines
        ("m\nm\nq\n", "q\nq\nr\n"),
        ("solo\n", "solo\nduo\n"),
    ];
    let (obs, _command) = observe("uniq", &pairs);
    assert!(repr::e_struct(&obs), "observations satisfy E_struct");
    let correct = Combiner::Struct(StructOp::Stitch(RecOp::First));

    let (candidates, _) = enumerate_candidates(&EnumConfig {
        delims: vec![Delim::Newline, Delim::Space],
        ..EnumConfig::default()
    });
    let ctx = ExecContext::default();
    let command = parse_command("uniq").unwrap();
    let env = CommandEnv {
        command: &command,
        ctx: &ctx,
    };
    let domain_pairs: Vec<(String, String)> = vec![
        ("a\nb\n".into(), "b\nc\n".into()),
        ("a\nb\n".into(), "c\nd\n".into()),
        ("q\n".into(), "q\n".into()),
        ("x\ny\nz\n".into(), "z\n".into()),
    ];
    let mut survivors = 0;
    for cand in candidates
        .iter()
        .filter(|c| matches!(c.op, Combiner::Struct(_)) && !c.swapped)
    {
        if plausible(cand, &obs, &env) {
            survivors += 1;
            check_equiv_by_intersection(&cand.op, &correct, &domain_pairs, &NoRunEnv)
                .unwrap_or_else(|e| panic!("survivor {cand} not equivalent: {e}"));
        }
    }
    assert!(survivors >= 1);
}

/// Theorem 1's flip side: without sufficient observations (`E` fails),
/// inequivalent candidates *can* survive — the predicates are not vacuous.
#[test]
fn insufficient_observations_leave_ambiguity() {
    // head -n 1 with equal leading lines: y1 == y2 == y12, so `first`,
    // `second`, and rerun are all indistinguishable.
    let pairs = [("same\nx\n", "same\ny\n")];
    let (obs, command) = observe("head -n 1", &pairs);
    assert!(!repr::e_first(&obs), "E(g_f) must fail on y1 == y2");
    let ctx = ExecContext::default();
    let env = CommandEnv {
        command: &command,
        ctx: &ctx,
    };
    // Both selections survive these degenerate observations — the correct
    // one (`first`) and the wrong one (`second`); only richer inputs
    // (satisfying E) separate them.
    assert!(plausible(&kq_dsl::Candidate::rec(RecOp::First), &obs, &env));
    assert!(plausible(
        &kq_dsl::Candidate::rec(RecOp::Second),
        &obs,
        &env
    ));
}

/// Theorem 5: when `g1 = concat` and `f1` emits streams, combining before
/// or after `f2` yields identical results.
#[test]
fn theorem5_combiner_elimination_equation() {
    let ctx = ExecContext::default();
    let f1 = parse_command("grep -v zz").unwrap(); // combiner: concat
    let f2 = parse_command("wc -l").unwrap(); // combiner: (back '\n' add)
    let g2 = Combiner::Rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add)));

    let inputs = [
        ("a\nzz\nb\n", "c\nd\n"),
        ("zz\n", "x\nzz\ny\n"),
        ("p\nq\nr\ns\n", "t\n"),
    ];
    for (x1, x2) in inputs {
        // Unoptimized: combine f1's outputs, re-split is the identity
        // because g1 is concat, then run f2 on the combined halves.
        let y1 = f1.run_str(x1, &ctx).unwrap();
        let y2 = f1.run_str(x2, &ctx).unwrap();
        let lhs = kq_dsl::eval::eval(
            &g2,
            f2.run_str(&y1, &ctx).unwrap().as_bytes(),
            f2.run_str(&y2, &ctx).unwrap().as_bytes(),
            &NoRunEnv,
        )
        .unwrap();
        // Serial reference: f2(f1(x1 ++ x2)).
        let serial = f2
            .run_str(&f1.run_str(&format!("{x1}{x2}"), &ctx).unwrap(), &ctx)
            .unwrap();
        assert_eq!(lhs, serial, "Theorem 5 equation failed for {x1:?}/{x2:?}");
    }
}

/// Theorem 5's precondition matters: `tr -d '\n'` does not emit streams,
/// and feeding its split outputs onward diverges from the serial result.
#[test]
fn theorem5_precondition_violation_detectable() {
    let ctx = ExecContext::default();
    let f1 = parse_command(r"tr -d '\n'").unwrap();
    let out = f1.run_str("ab\ncd\n", &ctx).unwrap();
    assert!(!out.ends_with('\n'), "tr -d strips the trailing newline");
}

/// Appendix Example 1, first claim: `(front d concat) ≡∩ (back d concat)`
/// for every delimiter — both reduce to plain concatenation minus one
/// duplicated delimiter when a string starts *and* ends with `d`.
#[test]
fn example1_front_concat_equiv_back_concat() {
    for d in [Delim::Newline, Delim::Tab, Delim::Space, Delim::Comma] {
        let c = d.as_char();
        let g1 = Combiner::Rec(RecOp::Front(d, Box::new(RecOp::Concat)));
        let g2 = Combiner::Rec(RecOp::Back(d, Box::new(RecOp::Concat)));
        let pairs: Vec<(String, String)> = vec![
            (format!("{c}ab{c}"), format!("{c}xy{c}")),
            (format!("{c}{c}"), format!("{c}q{c}")),
            (format!("{c}a{c}b{c}"), format!("{c}z{c}")),
            // Pairs outside the intersection are skipped, not failures.
            ("plain".to_owned(), "text".to_owned()),
        ];
        let exercised = check_equiv_by_intersection(&g1, &g2, &pairs, &NoRunEnv).unwrap();
        assert_eq!(exercised, 3, "delimiter {c:?}");
    }
}

/// Appendix Example 1, second claim — with a caveat this reproduction
/// documents: `(stitch2 d first first) ≡∩ (stitch first)` holds on the
/// outputs the `uniq` family can produce, but NOT on every string pair in
/// both domains. Padded table lines that agree in the second field while
/// differing in the first ("  1 a" / "  2 a") make stitch2 merge where
/// stitch concatenates. For `uniq` the claim is vacuous-but-true: uniq
/// output lines are unpadded, hence outside L(stitch2); for `uniq -c`
/// first/first is not the correct combiner anyway (add/first is). See
/// EXPERIMENTS.md.
#[test]
fn example1_stitch2_first_first_caveat() {
    let g1 = Combiner::Struct(StructOp::Stitch2(Delim::Space, RecOp::First, RecOp::First));
    let g2 = Combiner::Struct(StructOp::Stitch(RecOp::First));

    // Identical boundary lines: both merge the same way — agreement.
    let agree = vec![("  1 a\n".to_owned(), "  1 a\n".to_owned())];
    assert_eq!(
        check_equiv_by_intersection(&g1, &g2, &agree, &NoRunEnv).unwrap(),
        1
    );

    // Equal second field, different first: stitch2 merges, stitch
    // concatenates — the universal claim fails here.
    let diverge = vec![("  1 a\n".to_owned(), "  2 a\n".to_owned())];
    let err = check_equiv_by_intersection(&g1, &g2, &diverge, &NoRunEnv)
        .expect_err("padded table pair with equal keys must diverge");
    assert!(err.contains("disagree"), "{err}");

    // And the reason the paper's claim is safe for `uniq`: its outputs
    // are unpadded words, which L(stitch2) rejects, so the intersection
    // over uniq-reachable streams exercises nothing.
    let uniq_shaped = vec![("alpha\nbeta\n".to_owned(), "beta\ngamma\n".to_owned())];
    assert_eq!(
        check_equiv_by_intersection(&g1, &g2, &uniq_shaped, &NoRunEnv).unwrap(),
        0,
        "uniq-shaped outputs lie outside L(stitch2)"
    );
}
