//! Quickstart: synthesize combiners for the paper's Figure 1 pipeline and
//! run it with 8-way data parallelism.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use kq_workloads::inputs::gutenberg_text;
use kumquat::Kumquat;

fn main() {
    let mut kq = Kumquat::new();

    // The Figure 1 word-frequency pipeline over a synthetic book.
    kq.write_file("/in/book.txt", gutenberg_text(256 * 1024, 42));
    kq.set_var("IN", "/in/book.txt");
    let script = r"cat $IN | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn";

    println!("pipeline: {script}\n");

    // Synthesize a combiner for each stage, as KumQuat does internally.
    for stage in [
        "tr -cs A-Za-z '\\n'",
        "tr A-Z a-z",
        "sort",
        "uniq -c",
        "sort -rn",
    ] {
        let report = kq.synthesize_command(stage).expect("command parses");
        let verdict = match report.combiner() {
            Some(c) => format!("combiner {}", c.primary()),
            None => "no combiner".to_owned(),
        };
        println!(
            "  {:22} space {:>6}  {:>3} observations  {verdict}",
            report.command,
            report.space.total(),
            report.observations,
        );
    }

    // Parallelize the whole pipeline; the output is verified against the
    // serial run internally.
    let run = kq.parallelize_and_run(script, 8).expect("pipeline runs");
    let (k, n) = run.parallelized;
    println!(
        "\nparallelized {k}/{n} stages, {} combiner(s) eliminated",
        run.eliminated
    );
    println!("top five words:");
    for line in kumquat::stream::lines_of(run.output.as_bytes()).take(5) {
        println!("  {}", String::from_utf8_lossy(line));
    }
}
