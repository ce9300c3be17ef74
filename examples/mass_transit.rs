//! The analytics-mts suite: the paper's motivating real-world workload —
//! COVID-era bus telemetry analytics — run end to end on synthetic
//! telemetry with verified 8-way parallel execution, timed against the
//! serial run.
//!
//! ```sh
//! cargo run --release --example mass_transit
//! ```

use kq_coreutils::ExecContext;
use kq_pipeline::exec::run_serial;
use kq_pipeline::plan::Planner;
use kq_pipeline::{run_dataflow, DataflowOptions};
use kq_synth::SynthesisConfig;
use kq_workloads::{corpus, setup, Scale, Suite};
use std::time::Instant;

fn main() {
    let scale = Scale {
        input_bytes: 512 * 1024,
    };
    for script in corpus().iter().filter(|s| s.suite == Suite::AnalyticsMts) {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 99);
        let parsed = kq_pipeline::parse::parse_script(script.text, &env).expect("parses");

        let mut planner = Planner::new(SynthesisConfig::default());
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(64 * 1024)]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(sample.len());
        let plan = planner.plan(&parsed, &ctx, &sample[..cut]);

        let t0 = Instant::now();
        let serial = run_serial(&parsed, &ctx).expect("serial");
        let u1 = t0.elapsed();
        let opts = DataflowOptions {
            workers: 8,
            ..DataflowOptions::default()
        };
        let t0 = Instant::now();
        let opt = run_dataflow(&parsed, &plan, &ctx, &opts).expect("parallel");
        let t8 = t0.elapsed();
        assert_eq!(serial.output, opt.output, "{} diverged", script.id);

        let (k, n) = plan.parallelized_counts();
        println!(
            "{:5} ({:24}) parallelized {k}/{n}, eliminated {}, u1 {:>9.1?} -> T8 {:>9.1?} ({:.1}x)",
            script.id,
            script.name,
            plan.eliminated_count(),
            u1,
            t8,
            u1.as_secs_f64() / t8.as_secs_f64(),
        );
        println!(
            "   sample output: {:?}",
            serial.output.as_str().lines().next().unwrap_or("")
        );
    }
}
