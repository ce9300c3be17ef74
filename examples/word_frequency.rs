//! The paper's §2 running example in full: the word-frequency pipeline,
//! its per-stage combiners, the Theorem 5 optimization, and the measured
//! unoptimized-vs-optimized speedup curve (the Figure 5 story): wall
//! clock of `run_serial` against `run_dataflow` on the `--no-opt` graph
//! and on the rewritten one.
//!
//! ```sh
//! cargo run --release --example word_frequency
//! ```

use kq_pipeline::exec::run_serial;
use kq_pipeline::plan::{Planner, StageMode};
use kq_pipeline::{run_dataflow, DataflowOptions};
use kq_synth::SynthesisConfig;
use kq_workloads::inputs::gutenberg_text;
use kumquat::coreutils::ExecContext;
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let ctx = ExecContext::default();
    let input = gutenberg_text(4 * 1024 * 1024, 7);
    ctx.vfs.write("/in/book.txt", input.clone());
    let env: HashMap<String, String> = [("IN".to_owned(), "/in/book.txt".to_owned())].into();

    let text = r"cat $IN | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn";
    let script = kq_pipeline::parse::parse_script(text, &env).expect("parses");

    let mut planner = Planner::new(SynthesisConfig::default());
    let cut = input[..input.len().min(64 * 1024)]
        .rfind('\n')
        .map(|i| i + 1)
        .unwrap_or(input.len());
    let plan = planner.plan(&script, &ctx, &input[..cut]);

    println!("stage plan for wf.sh:");
    for (stage, planned) in script.statements[0]
        .stages
        .iter()
        .zip(&plan.statements[0].stages)
    {
        let mode = match &planned.mode {
            StageMode::Sequential => "sequential".to_owned(),
            StageMode::Parallel {
                combiner,
                eliminated,
            } => {
                let extra = if *eliminated { ", eliminated" } else { "" };
                format!("parallel (combiner {}{extra})", combiner.primary())
            }
        };
        println!("  {:22} {mode}", stage.command.display());
    }

    let t0 = Instant::now();
    let serial = run_serial(&script, &ctx).expect("serial run");
    let u1 = t0.elapsed();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("\nwall clock on this host ({cores} core(s)): u_1 (run_serial) {u1:>9.1?}");

    println!("\n  w   unoptimized u_w    speedup   optimized T_w    speedup");
    for w in [1usize, 2, 4, 8, 16] {
        let time = |fuse_streamable| {
            let opts = DataflowOptions {
                workers: w,
                fuse_streamable,
                ..DataflowOptions::default()
            };
            let t0 = Instant::now();
            let run = run_dataflow(&script, &plan, &ctx, &opts).expect("dataflow run");
            let wall = t0.elapsed();
            assert_eq!(
                run.output, serial.output,
                "w={w} fuse={fuse_streamable} diverged"
            );
            wall
        };
        let (uw, tw) = (time(false), time(true));
        println!(
            "  {w:>2}   {uw:>12.1?}   {:>6.1}x   {tw:>12.1?}   {:>6.1}x",
            u1.as_secs_f64() / uw.as_secs_f64(),
            u1.as_secs_f64() / tw.as_secs_f64(),
        );
    }
    println!(
        "\n(the paper reports 10.7x unoptimized / 14.4x optimized at w = 16 on 3 GB, 80 cores)"
    );
}
