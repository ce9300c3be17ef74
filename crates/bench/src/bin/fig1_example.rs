//! Regenerates the §2 / Figure 1 walkthrough: the word-frequency pipeline,
//! its synthesized combiners, and the unoptimized/optimized speedups.

use kq_pipeline::plan::StageMode;

fn main() {
    let scale = kq_workloads::Scale::bench();
    let script = kq_workloads::corpus()
        .iter()
        .find(|s| s.id == "wf.sh")
        .expect("wf.sh in corpus");
    let ctx = kq_coreutils::ExecContext::default();
    let env = kq_workloads::setup(script, &ctx, &scale, 1);
    let parsed = kq_pipeline::parse::parse_script(script.text, &env).unwrap();
    let sample = ctx.vfs.read(&env["IN"]).unwrap();
    let mut planner = kq_pipeline::plan::Planner::new(kq_synth::SynthesisConfig::default());
    let cut = sample[..sample.len().min(48 * 1024)]
        .rfind('\n')
        .map(|i| i + 1)
        .unwrap_or(sample.len());
    let plan = planner.plan(&parsed, &ctx, &sample[..cut]);
    println!("Figure 1 pipeline: {}", script.text);
    for (stage, planned) in parsed.statements[0]
        .stages
        .iter()
        .zip(&plan.statements[0].stages)
    {
        let mode = match &planned.mode {
            StageMode::Sequential => "sequential".to_owned(),
            StageMode::Parallel {
                combiner,
                eliminated,
            } => format!(
                "parallel, combiner {}{}",
                combiner.primary(),
                if *eliminated { " (eliminated)" } else { "" }
            ),
        };
        println!("  {:24} {mode}", stage.command.display());
    }
    let mut planner = kq_pipeline::plan::Planner::new(kq_synth::SynthesisConfig::default());
    let m = kq_bench::measure_script(script, &scale, &kq_bench::WORKER_SWEEP, &mut planner);
    println!("\n{}", kq_bench::timing_note());
    println!("u1 {}", kq_bench::fmt_ms(m.u1));
    for &w in &kq_bench::WORKER_SWEEP[1..] {
        let u = kq_bench::ScriptMeasurement::at(&m.unopt, w).unwrap();
        let t = kq_bench::ScriptMeasurement::at(&m.opt, w).unwrap();
        println!(
            "  w={w:>2}  unoptimized {} ({})   optimized {} ({})",
            kq_bench::fmt_ms(u),
            kq_bench::fmt_speedup(m.u1, u),
            kq_bench::fmt_ms(t),
            kq_bench::fmt_speedup(m.u1, t),
        );
    }
    println!("(paper at w=16 on 3 GB: 10.7x unoptimized, 14.4x optimized)");
}
