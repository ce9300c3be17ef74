//! The classic Unix spell checker (Bentley's Programming Pearls column,
//! the paper's `oneliners/spell.sh`): normalize a document to one
//! lower-case word per line, dedupe, and report words missing from the
//! dictionary — parallelized end to end by KumQuat.
//!
//! This is the paper's hardest pipeline shape: eight stages mixing
//! per-line maps (combiner `concat`, eliminated by Theorem 5), a rerun
//! stage (`tr -cs`), sorted merges, `uniq`'s stitch, and a two-input
//! `comm` against the dictionary.
//!
//! ```sh
//! cargo run --release --example spell_checker
//! ```

use kq_workloads::inputs::{dictionary, gutenberg_text};
use kumquat::Kumquat;

fn main() {
    let mut kq = Kumquat::new();

    // A synthetic "book" plus a dictionary that misses a few of its words.
    let book = format!(
        "{}\nThe qymirth of zorblat weather, a phlogiston qymirth!\n",
        gutenberg_text(128 * 1024, 7)
    );
    kq.write_file("/in/book.txt", book);
    kq.write_file("/in/dict.sorted", dictionary());
    kq.set_var("IN", "/in/book.txt");
    kq.set_var("DICT", "/in/dict.sorted");

    let script = "cat $IN | iconv -f utf-8 -t ascii//translit | col -bx | \
                  tr A-Z a-z | tr -d '[:punct:]' | tr -cs A-Za-z '\\n' | \
                  sort | uniq | comm -23 - $DICT";
    println!("spell pipeline:\n  {script}\n");

    // Plan first so we can show the per-stage decisions.
    let parsed = kq.parse(script).expect("script parses");
    let plan = kq.plan(&parsed).expect("planning succeeds");
    for (statement, planned) in parsed.statements.iter().zip(&plan.statements) {
        for (stage, ps) in statement.stages.iter().zip(&planned.stages) {
            use kumquat::pipeline::plan::StageMode;
            let mode = match &ps.mode {
                StageMode::Sequential => "sequential".to_owned(),
                StageMode::Parallel {
                    combiner,
                    eliminated: true,
                } => format!("parallel, {} (eliminated)", combiner.primary()),
                StageMode::Parallel {
                    combiner,
                    eliminated: false,
                } => format!("parallel, {}", combiner.primary()),
            };
            println!("  {:32} {mode}", stage.command.display());
        }
    }

    // Run with 8-way parallelism; output is verified against serial.
    let run = kq.parallelize_and_run(script, 8).expect("pipeline runs");
    let output = run.output.to_str().expect("the corpus is text");
    println!("\nmisspelled words found:");
    for line in output.lines().take(10) {
        println!("  {line}");
    }
    let (k, n) = run.parallelized;
    println!(
        "\nparallelized {k}/{n} stages, {} combiner(s) eliminated",
        run.eliminated
    );
    assert!(output.lines().any(|w| w == "qymirth"));
    assert!(output.lines().any(|w| w == "zorblat"));
}
