//! A tour of the unix50 suite: parallelize a selection of the Bell Labs
//! Unix 50 game pipelines and verify every parallel output against the
//! serial baseline.
//!
//! ```sh
//! cargo run --release --example unix50_game
//! ```

use kq_coreutils::ExecContext;
use kq_pipeline::exec::run_serial;
use kq_pipeline::plan::Planner;
use kq_pipeline::{run_dataflow, DataflowOptions};
use kq_synth::SynthesisConfig;
use kq_workloads::{corpus, setup, Scale, Suite};

fn main() {
    let picks = [
        "4.sh", "7.sh", "10.sh", "12.sh", "17.sh", "21.sh", "34.sh", "36.sh",
    ];
    let scale = Scale {
        input_bytes: 128 * 1024,
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    for script in corpus()
        .iter()
        .filter(|s| s.suite == Suite::Unix50 && picks.contains(&s.id))
    {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 2026);
        let parsed = kq_pipeline::parse::parse_script(script.text, &env).expect("parses");
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(32 * 1024)]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(sample.len());
        let plan = planner.plan(&parsed, &ctx, &sample[..cut]);

        let serial = run_serial(&parsed, &ctx).expect("serial");
        let opts = DataflowOptions {
            workers: 6,
            ..DataflowOptions::default()
        };
        let par = run_dataflow(&parsed, &plan, &ctx, &opts).expect("parallel");
        assert_eq!(serial.output, par.output, "{} diverged", script.id);

        let (k, n) = plan.parallelized_counts();
        let first = serial.output.as_str().lines().next().unwrap_or("<empty>");
        println!(
            "{:6} {:38} {k}/{n} parallel, answer: {first:?}",
            script.id, script.name
        );
    }
    println!("\nall parallel outputs matched the serial baselines");
}
