//! The §2 running example, end to end through the public façade: the
//! word-frequency pipeline gets exactly the per-command combiners the
//! paper describes, the planner makes the §2 decisions (sequential
//! `tr -cs`, eliminated `tr A-Z a-z`), and the parallel result is correct.

use kq_workloads::inputs::gutenberg_text;
use kumquat::Kumquat;

const WF: &str = r"cat $IN | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn";

fn wf_instance() -> Kumquat {
    let mut kq = Kumquat::new();
    kq.write_file("/in/book.txt", gutenberg_text(60_000, 5));
    kq.set_var("IN", "/in/book.txt");
    kq
}

#[test]
fn figure1_combiners_match_section2() {
    let mut kq = wf_instance();
    // "The combine operator for command tr A-Z a-z simply concatenates."
    assert!(kq
        .synthesize_command("tr A-Z a-z")
        .unwrap()
        .combiner()
        .unwrap()
        .is_concat());
    // "The combine operator for tr -cs A-Za-z '\n' ... reruns the command."
    assert!(kq
        .synthesize_command(r"tr -cs A-Za-z '\n'")
        .unwrap()
        .combiner()
        .unwrap()
        .is_rerun());
    // "The combine operators for sort commands apply an appropriate merge
    // function, which may depend on the sort flag."
    let sort = kq.synthesize_command("sort -rn").unwrap();
    assert_eq!(
        sort.combiner().unwrap().primary().to_string(),
        "(merge(-rn) a b)"
    );
    // "uniq -c ... combines the last and first lines to include the sum."
    let uniq = kq.synthesize_command("uniq -c").unwrap();
    assert!(uniq
        .combiner()
        .unwrap()
        .primary()
        .to_string()
        .starts_with("((stitch2 ' ' add"));
}

#[test]
fn figure1_parallel_run_is_correct_and_optimized() {
    let mut kq = wf_instance();
    let run = kq.parallelize_and_run(WF, 16).expect("pipeline runs");
    // "The resulting optimized pipeline has one sequential stage and three
    // parallel stages" — 4 of 5 stages parallelized, one combiner
    // eliminated (tr A-Z a-z feeding sort).
    assert_eq!(run.parallelized, (4, 5));
    assert_eq!(run.eliminated, 1);
    // Output sanity: count-ordered word frequencies.
    let first = kumquat::stream::lines_of(run.output.as_bytes())
        .next()
        .expect("nonempty output");
    let count: i64 = kumquat::stream::parse_padded_int(first)
        .expect("count field")
        .1;
    assert!(count > 1, "most frequent word should repeat: {first:?}");
}

#[test]
fn facade_reports_accumulate_unique_commands() {
    let mut kq = wf_instance();
    kq.parallelize_and_run(WF, 4).unwrap();
    // Five stages, five unique commands: every one is either synthesized
    // (one report) or resolved statically by the effect lattice.
    let resolved = kq.reports().len() + kq.lattice_short_circuits();
    assert_eq!(resolved, 5);
    assert!(
        kq.lattice_short_circuits() >= 1,
        "WF contains stateless stages the lattice should short-circuit"
    );
    // Re-running the same pipeline must not re-synthesize.
    kq.parallelize_and_run(WF, 8).unwrap();
    assert_eq!(kq.reports().len() + kq.lattice_short_circuits(), resolved);
}

#[test]
fn divergence_detection_guards_outputs() {
    // A correct pipeline through the façade must verify; this exercises
    // the verification path itself.
    let mut kq = Kumquat::new();
    kq.write_file("/f", "3\n1\n2\n1\n");
    let run = kq
        .parallelize_and_run("cat /f | sort -n | uniq", 3)
        .unwrap();
    assert_eq!(run.output, "1\n2\n3\n");
}

#[test]
fn multi_statement_scripts_work_through_facade() {
    let mut kq = Kumquat::new();
    kq.write_file("/f", "b\na\nc\na\n");
    let run = kq
        .parallelize_and_run("cat /f | sort > /sorted\ncat /sorted | uniq -c", 4)
        .unwrap();
    assert_eq!(run.output, "      2 a\n      1 b\n      1 c\n");
}
