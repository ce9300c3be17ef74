//! Regenerates Table 1: performance highlights for the paper's two
//! longest-running scripts per suite.

fn main() {
    let scale = kq_workloads::Scale::bench();
    let wanted: Vec<(&str, &str)> = kq_bench::paper::TABLE1
        .iter()
        .map(|r| (r.suite, r.id))
        .collect();
    let mut planner = kq_pipeline::plan::Planner::new(kq_synth::SynthesisConfig::default());
    let measurements: Vec<_> = kq_workloads::corpus()
        .iter()
        .filter(|s| wanted.contains(&(s.suite.dir(), s.id)))
        .map(|s| kq_bench::measure_script(s, &scale, &kq_bench::WORKER_SWEEP, &mut planner))
        .collect();
    kq_bench::tables::print_table1(&measurements);
}
