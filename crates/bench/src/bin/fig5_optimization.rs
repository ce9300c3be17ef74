//! Regenerates the Figure 5 ablation: combining after every stage versus
//! eliminating intermediate combiners, on the corpus scripts with the
//! most eliminated combiners.

fn main() {
    let scale = kq_workloads::Scale::bench();
    let mut planner = kq_pipeline::plan::Planner::new(kq_synth::SynthesisConfig::default());
    println!("Figure 5 — intermediate-combiner elimination ablation (w = 16)");
    println!("{}", kq_bench::timing_note());
    println!(
        "{:<14} {:<22} {:>5} {:>12} {:>12} {:>9}",
        "benchmark", "script", "elim", "u16", "T16", "T16/u16"
    );
    let mut rows: Vec<_> = kq_workloads::corpus()
        .iter()
        .map(|s| kq_bench::measure_script(s, &scale, &[16], &mut planner))
        .filter(|m| m.eliminated() > 0)
        .collect();
    rows.sort_by_key(|m| std::cmp::Reverse(m.eliminated()));
    for m in rows.iter().take(12) {
        let u16 = kq_bench::ScriptMeasurement::at(&m.unopt, 16).unwrap();
        let t16 = kq_bench::ScriptMeasurement::at(&m.opt, 16).unwrap();
        println!(
            "{:<14} {:<22} {:>5} {:>12} {:>12} {:>8.2}x",
            m.suite,
            m.id,
            m.eliminated(),
            kq_bench::fmt_ms(u16),
            kq_bench::fmt_ms(t16),
            u16.as_secs_f64() / t16.as_secs_f64().max(1e-9),
        );
    }
}
