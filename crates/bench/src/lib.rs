//! Shared measurement harness for the table/figure reproduction binaries.
//!
//! Every timing is the wall clock of one real run on this host:
//! `u_1` is [`run_serial`] (the paper's stage-to-completion protocol),
//! `u_w` is [`run_dataflow`] on `w` workers over the `--no-opt` graph
//! (every stage its own node, every parallel stage combined), and `T_w` is
//! the same call over the rewritten graph. Every run's output is checked
//! byte for byte against `run_serial`. Worker counts above the host's
//! cores oversubscribe it; every timing table prints the core count
//! ([`timing_note`]).
//!
//! Input scale defaults to `Scale::bench()` (2 MiB per script, override
//! with `KQ_SCALE_KB`).

#![deny(unsafe_code)]

pub mod paper;
pub mod tables;

use kq_coreutils::ExecContext;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::{run_dataflow, DataflowOptions};
use kq_synth::{SynthesisConfig, SynthesisReport};
use kq_workloads::{setup, BenchmarkScript, Scale};
use std::time::{Duration, Instant};

/// The worker counts the paper sweeps (Tables 5/6).
pub const WORKER_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// Performance measurements for one script.
#[derive(Debug)]
pub struct ScriptMeasurement {
    /// Suite directory name.
    pub suite: &'static str,
    /// Script id (`2.sh`).
    pub id: &'static str,
    /// Descriptive name.
    pub name: &'static str,
    /// Per-statement `(parallelized, total)` stage counts.
    pub per_statement: Vec<(usize, usize)>,
    /// Per-statement eliminated-combiner counts.
    pub eliminated_per_statement: Vec<usize>,
    /// Wall time of `run_serial` (`u_1`).
    pub u1: Duration,
    /// Wall time of `run_dataflow` on the `--no-opt` graph per sweep entry
    /// (`u_w`).
    pub unopt: Vec<(usize, Duration)>,
    /// Wall time of `run_dataflow` on the rewritten graph per sweep entry
    /// (`T_w`).
    pub opt: Vec<(usize, Duration)>,
}

impl ScriptMeasurement {
    /// Script-level `(parallelized, total)`.
    pub fn parallelized(&self) -> (usize, usize) {
        self.per_statement
            .iter()
            .fold((0, 0), |(a, b), (k, n)| (a + k, b + n))
    }

    /// Script-level eliminated count.
    pub fn eliminated(&self) -> usize {
        self.eliminated_per_statement.iter().sum()
    }

    /// Time for worker count `w` from a sweep vector.
    pub fn at(sweep: &[(usize, Duration)], w: usize) -> Option<Duration> {
        sweep.iter().find(|(sw, _)| *sw == w).map(|(_, d)| *d)
    }

    /// `u_1 / d` as a speedup factor.
    pub fn speedup(&self, d: Duration) -> f64 {
        self.u1.as_secs_f64() / d.as_secs_f64().max(1e-9)
    }
}

/// The line every timing table prints under its title: the host's core
/// count, above which a worker count oversubscribes.
pub fn timing_note() -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    format!("(wall clock on this host, {cores} core(s): w above that oversubscribes)")
}

/// Measures one script: plans it (synthesizing combiners), times the
/// serial run, and times `run_dataflow` at each requested worker count on
/// the `--no-opt` graph and on the rewritten one.
///
/// # Panics
///
/// When a dataflow run's output differs from the serial output, naming
/// the script, the worker count and the graph.
pub fn measure_script(
    script: &BenchmarkScript,
    scale: &Scale,
    workers: &[usize],
    planner: &mut Planner,
) -> ScriptMeasurement {
    let ctx = ExecContext::default();
    let env = setup(script, &ctx, scale, 0xBE7C);
    let parsed = parse_script(script.text, &env).expect("corpus scripts parse");
    let sample = ctx
        .vfs
        .read(env.get("IN").expect("IN set"))
        .expect("input exists");
    let plan = planner.plan(
        &parsed,
        &ctx,
        kq_workloads::planning_sample(&sample, 48 * 1024),
    );

    let t0 = Instant::now();
    let serial = run_serial(&parsed, &ctx).expect("serial run");
    let u1 = t0.elapsed();

    let mut unopt = Vec::with_capacity(workers.len());
    let mut opt = Vec::with_capacity(workers.len());
    for &w in workers {
        for (fuse_streamable, graph, sweep) in [
            (false, "--no-opt", &mut unopt),
            (true, "rewritten", &mut opt),
        ] {
            let opts = DataflowOptions {
                workers: w,
                fuse_streamable,
                ..DataflowOptions::default()
            };
            let t0 = Instant::now();
            let run = run_dataflow(&parsed, &plan, &ctx, &opts).expect("dataflow run");
            let wall = t0.elapsed();
            assert!(
                run.output == serial.output,
                "{}/{}: run_dataflow at w={w} on the {graph} graph differs from run_serial",
                script.suite.dir(),
                script.id
            );
            sweep.push((w, wall));
        }
    }

    ScriptMeasurement {
        suite: script.suite.dir(),
        id: script.id,
        name: script.name,
        per_statement: plan
            .statements
            .iter()
            .map(|s| s.parallelized_counts())
            .collect(),
        eliminated_per_statement: plan
            .statements
            .iter()
            .map(|s| s.eliminated_count())
            .collect(),
        u1,
        unopt,
        opt,
    }
}

/// Measures the whole corpus with a shared synthesis cache.
pub fn measure_corpus(
    scale: &Scale,
    workers: &[usize],
) -> (Vec<ScriptMeasurement>, Vec<SynthesisReport>) {
    let mut planner = Planner::new(SynthesisConfig::default());
    let measurements = kq_workloads::corpus()
        .iter()
        .map(|script| {
            eprintln!("  measuring {}/{}", script.suite.dir(), script.id);
            measure_script(script, scale, workers, &mut planner)
        })
        .collect();
    (measurements, std::mem::take(&mut planner.reports))
}

/// Formats a `(k, n)` pair list the way Table 3 does:
/// `8/9 (3/4, 5/5)`.
pub fn format_counts(per_statement: &[(usize, usize)]) -> String {
    let (k, n) = per_statement
        .iter()
        .fold((0, 0), |(a, b), (x, y)| (a + x, b + y));
    if per_statement.len() <= 1 {
        format!("{k}/{n}")
    } else {
        let inner: Vec<String> = per_statement
            .iter()
            .map(|(x, y)| format!("{x}/{y}"))
            .collect();
        format!("{k}/{n} ({})", inner.join(", "))
    }
}

/// Formats a duration like the tables (`41 s` in the paper; milliseconds
/// at our scale).
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

/// `x.x×` speedup formatting.
pub fn fmt_speedup(base: Duration, d: Duration) -> String {
    format!("{:.1}x", base.as_secs_f64() / d.as_secs_f64().max(1e-9))
}

/// `KQ_BENCH_QUICK=1`: the benches' smoke mode — small inputs, one sample,
/// no noise-sensitive assertions.
pub fn bench_quick() -> bool {
    std::env::var("KQ_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Runs `routine` `n` times and returns the median duration and the
/// sample count. The routine times itself, so its setup stays out of the
/// sample.
pub fn median_of(n: usize, mut routine: impl FnMut() -> Duration) -> (Duration, usize) {
    let mut samples: Vec<Duration> = (0..n).map(|_| routine()).collect();
    samples.sort();
    (samples[samples.len() / 2], samples.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kq_workloads::corpus;

    #[test]
    fn measure_one_script_end_to_end() {
        let script = corpus().iter().find(|s| s.id == "wf.sh").unwrap();
        let mut planner = Planner::new(SynthesisConfig::default());
        let m = measure_script(
            script,
            &Scale {
                input_bytes: 30_000,
            },
            &[1, 4],
            &mut planner,
        );
        assert_eq!(m.parallelized(), (4, 5));
        assert_eq!(m.eliminated(), 1);
        for sweep in [&m.unopt, &m.opt] {
            let ws: Vec<usize> = sweep.iter().map(|(w, _)| *w).collect();
            assert_eq!(ws, [1, 4]);
            assert!(sweep.iter().all(|(_, d)| *d > Duration::ZERO));
        }
        assert!(m.u1 > Duration::ZERO);
    }

    #[test]
    fn format_counts_matches_table3_style() {
        assert_eq!(format_counts(&[(4, 5)]), "4/5");
        assert_eq!(
            format_counts(&[(0, 1), (3, 3), (2, 2)]),
            "5/6 (0/1, 3/3, 2/2)"
        );
    }
}
