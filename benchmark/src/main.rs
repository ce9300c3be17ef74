//! The benchmark of the `kumquat` binary: see `benchmark/README.md`.
//!
//! `run.sh` builds the binary and this harness and passes its arguments
//! through. Three ways to run it:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` — one half of one
//!   workload; the last line of stdout is one JSON object holding every
//!   end-to-end metric (`--trace 0`) or every per-layer metric
//!   (`--trace 1`).
//! * no `--trace` — both halves of every workload (or of `--workload`),
//!   printed by name and written to `out/results.json` and
//!   `out/<workload>.trace.jsonl`. `--quick` shrinks inputs 16-fold and
//!   takes one sample.
//! * `--aa` — the end-to-end half twice over, and a table of both medians
//!   against each metric's bound.

#![deny(unsafe_code)]

mod e2e;
mod inputs;
mod layers;
mod procfs;
mod spans;
mod stats;
mod workloads;

use e2e::{Env, Measured};
use procfs::ChildRun;
use stats::{summarize, Summary};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Kind, Workload, END_TO_END, WORKLOADS};

/// Times each workload is set up in one run; `setup_s` is their median.
const SETUP_REPETITIONS: usize = 3;
/// Repetitions of the in-process traced pass, time permitting.
const TRACE_REPETITIONS: usize = 3;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    aa: bool,
    kumquat: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 18.0,
        trace: None,
        quick: false,
        aa: false,
        kumquat: PathBuf::from("target/release/kumquat"),
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(workloads::find(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--quick" => args.quick = true,
            "--aa" => args.aa = true,
            "--kumquat" => args.kumquat = PathBuf::from(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !args.kumquat.is_file() {
        return Err(format!(
            "{}: no such binary (run benchmark/run.sh, which builds it)",
            args.kumquat.display()
        ));
    }
    Ok(args)
}

/// The end-to-end half of one workload.
struct EndToEndResult {
    workload: &'static Workload,
    input_mb: f64,
    reference_source: e2e::Reference,
    attempted: u64,
    failed: u64,
    /// One per entry of [`END_TO_END`], in that order: the value that is
    /// reported and gated, and the whole distribution it was taken from.
    metrics: Vec<(f64, Summary)>,
    sh_wall_s: Option<Summary>,
    /// Seconds the hypervisor took from the host while this half ran.
    host_steal_s: f64,
}

impl EndToEndResult {
    fn value(&self, name: &str) -> f64 {
        let index = END_TO_END
            .iter()
            .position(|m| m.name == name)
            .expect("a known metric");
        self.metrics[index].0
    }
}

/// Sets a workload up and fixes its reference output: `sh`'s when the
/// host has the tools (that run is returned, as the first `sh_wall_s`
/// sample), else the in-process serial oracle's.
fn set_up(
    env: &Env,
    workload: &'static Workload,
    seed: u64,
    repetitions: usize,
) -> Result<(e2e::Prepared, Option<ChildRun>), String> {
    e2e::wake_cores(env.workers);
    let mut p = env.prepare(workload, seed, repetitions)?;
    let first_sh = env.reference_from_sh(&mut p)?;
    if first_sh.is_none() && matches!(workload.kind, Kind::Run { .. }) {
        p.reference = layers::serial_reference(&p)?;
        p.reference_source = e2e::Reference::RunSerial;
    }
    Ok((p, first_sh))
}

fn summary<'a>(runs: impl Iterator<Item = &'a ChildRun>, pick: fn(&ChildRun) -> f64) -> Summary {
    summarize(&runs.map(pick).collect::<Vec<f64>>())
}

fn end_to_end(
    env: &Env,
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
) -> Result<(EndToEndResult, e2e::Prepared), String> {
    let repetitions = if quick { 1 } else { SETUP_REPETITIONS };
    let steal_before = procfs::host_steal_s();
    let (p, first_sh) = set_up(env, workload, seed, repetitions)?;
    let Measured { wide, narrow, sh } = env.measure(&p, seconds, quick, first_sh)?;
    write_samples(env, workload, seed, &wide, &narrow, &sh)?;
    let mut attempted = (wide.len() + narrow.len()) as u64;
    let mut failed = wide.iter().chain(&narrow).filter(|s| !s.correct).count() as u64;
    if matches!(workload.kind, Kind::SynthCorpus) {
        let (scripts, wrong) = layers::corpus_check(env, &p.cache, seed)?;
        attempted += scripts;
        failed += wrong;
    }
    let wall = summary(wide.iter().map(|s| &s.run), |r| r.wall_s);
    let wall_w1 = summary(narrow.iter().map(|s| &s.run), |r| r.wall_s);
    let cpu = summary(wide.iter().map(|s| &s.run), |r| r.cpu_s);
    let rss = summary(wide.iter().map(|s| &s.run), |r| r.peak_rss_mb);
    let setup = summarize(&p.setup_s);
    let result = EndToEndResult {
        workload,
        input_mb: p.input_bytes as f64 / (1024.0 * 1024.0),
        reference_source: p.reference_source,
        attempted,
        failed,
        // The host and the scheduler only ever add time to a run, so the
        // fastest quarter of the times repeats from run to run where
        // their median does not (README, "Which statistic"). Memory has
        // no such one-sided noise, only modes: its mean repeats.
        metrics: vec![
            (wall.fast_mean, wall),
            (wall_w1.fast_mean, wall_w1),
            (cpu.fast_mean, cpu),
            (rss.mean, rss),
            (setup.median, setup),
        ],
        sh_wall_s: (!sh.is_empty()).then(|| summary(sh.iter(), |r| r.wall_s)),
        host_steal_s: procfs::host_steal_s() - steal_before,
    };
    Ok((result, p))
}

/// Every run made, one JSON line each, for whoever doubts a summary.
fn write_samples(
    env: &Env,
    workload: &Workload,
    seed: u64,
    wide: &[e2e::Sample],
    narrow: &[e2e::Sample],
    sh: &[ChildRun],
) -> Result<(), String> {
    let mut lines = String::new();
    let runs = (wide.iter().map(|s| ("W", s.run, s.correct)))
        .chain(narrow.iter().map(|s| ("1", s.run, s.correct)))
        .chain(sh.iter().map(|r| ("sh", *r, true)));
    for (config, run, correct) in runs {
        writeln!(
            lines,
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"config\": \"{config}\", \"wall_s\": {}, \
             \"cpu_s\": {}, \"peak_rss_mb\": {}, \"correct\": {correct}}}",
            workload.name,
            num(run.wall_s),
            num(run.cpu_s),
            num(run.peak_rss_mb)
        )
        .unwrap();
    }
    let path = env.out.join(format!("{}.samples.jsonl", workload.name));
    std::fs::write(&path, lines).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_end_to_end(r: &EndToEndResult) {
    println!(
        "== {} — end to end ({:.1} MB input, reference: {}) ==",
        r.workload.name,
        r.input_mb,
        r.reference_source.as_str()
    );
    for (m, (value, s)) in END_TO_END.iter().zip(&r.metrics) {
        println!(
            "  {:<12} {:>10.4} {:<3} min {:.4}  q1 {:.4}  median {:.4}  q3 {:.4}  max {:.4}  n {}",
            m.name, value, m.unit, s.min, s.q1, s.median, s.q3, s.max, s.n
        );
    }
    println!(
        "  runs_attempted {}  runs_failed {}  host_steal_s {:.2}",
        r.attempted, r.failed, r.host_steal_s
    );
    println!(
        "  speedup_vs_w1 {:.3} (wall_w1_s / wall_s)",
        r.value("wall_w1_s") / r.value("wall_s")
    );
    if let Some(sh) = &r.sh_wall_s {
        println!(
            "  sh_wall_s {:.4} s (n {})  speedup_vs_sh {:.3} (sh_wall_s / wall_s)",
            sh.fast_mean,
            sh.n,
            sh.fast_mean / r.value("wall_s")
        );
    }
}

fn print_per_layer(name: &str, traced: &layers::Traced) {
    println!(
        "== {name} — per layer ({} repetition(s) of the traced pass) ==",
        traced.repetitions
    );
    for (metric, unit, value) in &traced.metrics {
        println!("  {metric:<34} {value:>14.6} {unit}");
    }
    println!(
        "  outputs_checked {}  outputs_wrong {}",
        traced.attempted, traced.failed
    );
}

/// A number as JSON: every digit `f64` has, and `null` for what is not
/// a number.
fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, &'a str, f64)>) -> String {
    let entries: Vec<String> = metrics
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    )
}

fn end_to_end_metrics(r: &EndToEndResult) -> String {
    metrics_json(
        END_TO_END
            .iter()
            .zip(&r.metrics)
            .map(|(m, (value, _))| (m.name, m.unit, *value)),
    )
}

fn workload_json(r: &EndToEndResult, traced: &layers::Traced) -> String {
    let mut s = String::new();
    write!(
        s,
        "    {{\"name\": \"{}\", \"why\": \"{}\", \"input_mb\": {}, \"reference\": \"{}\", \
         \"runs_attempted\": {}, \"runs_failed\": {},\n     \"end_to_end\": {{",
        r.workload.name,
        r.workload.why,
        num(r.input_mb),
        r.reference_source.as_str(),
        r.attempted + traced.attempted,
        r.failed + traced.failed,
    )
    .unwrap();
    let entries: Vec<String> = END_TO_END
        .iter()
        .zip(&r.metrics)
        .map(|(m, (value, q))| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"min\": {}, \"q1\": {}, \
                 \"median\": {}, \"q3\": {}, \"max\": {}}}",
                m.name,
                num(*value),
                m.unit,
                q.n,
                num(q.min),
                num(q.q1),
                num(q.median),
                num(q.q3),
                num(q.max)
            )
        })
        .collect();
    write!(
        s,
        "{}}},\n     \"baselines\": {{\"sh_wall_s\": {}, \"speedup_vs_w1\": {}, \"speedup_vs_sh\": {}}},\n",
        entries.join(", "),
        r.sh_wall_s.map_or("null".to_owned(), |q| num(q.fast_mean)),
        num(r.value("wall_w1_s") / r.value("wall_s")),
        r.sh_wall_s
            .map_or("null".to_owned(), |q| num(q.fast_mean / r.value("wall_s"))),
    )
    .unwrap();
    write!(
        s,
        "     \"trace_repetitions\": {}, \"per_layer\": {}}}",
        traced.repetitions,
        metrics_json(traced.metrics.iter().copied())
    )
    .unwrap();
    s
}

/// Both halves of the chosen workloads, every metric by name.
fn full_run(env: &Env, args: &Args) -> Result<bool, String> {
    let host = procfs::host();
    println!(
        "host: {} core(s), {} MB, kernel {}; W = {}; seed {}{}",
        host.cores,
        host.mem_mb,
        host.kernel,
        env.workers,
        args.seed,
        if args.quick { "; quick" } else { "" }
    );
    let mut rows = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS
        .iter()
        .filter(|w| args.workload.is_none_or(|only| only.name == w.name))
    {
        let (result, p) = end_to_end(env, workload, args.seed, args.seconds, args.quick)?;
        print_end_to_end(&result);
        let repetitions = if args.quick { 1 } else { TRACE_REPETITIONS };
        let traced = layers::traced_pass(env, &p, args.seed, args.seconds, repetitions)?;
        print_per_layer(workload.name, &traced);
        traced
            .tracer
            .write_jsonl(&env.out.join(format!("{}.trace.jsonl", workload.name)))
            .map_err(|e| e.to_string())?;
        all_correct &= result.failed == 0 && traced.failed == 0;
        rows.push(workload_json(&result, &traced));
    }
    let json = format!(
        "{{\n  \"seed\": {}, \"quick\": {}, \"workers\": {},\n  \"host\": {{\"cores\": {}, \
         \"mem_mb\": {}, \"kernel\": \"{}\"}},\n  \"workloads\": [\n{}\n  ]\n}}\n",
        args.seed,
        args.quick,
        env.workers,
        host.cores,
        host.mem_mb,
        host.kernel,
        rows.join(",\n")
    );
    let path = env.out.join("results.json");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

/// Two sets of the end-to-end half on the same code: do they agree
/// within the bounds this benchmark holds later changes to?
fn aa_run(env: &Env, args: &Args) -> Result<bool, String> {
    let mut sets: [Vec<EndToEndResult>; 2] = [Vec::new(), Vec::new()];
    for set in &mut sets {
        for workload in &WORKLOADS {
            set.push(end_to_end(env, workload, args.seed, args.seconds, false)?.0);
        }
    }
    println!(
        "{:<13} {:<12} {:>10} {:>10} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut within = true;
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        within &= a.failed == 0 && b.failed == 0;
        for m in &END_TO_END {
            let (first, second) = (a.value(m.name), b.value(m.name));
            let diff = (second - first) / first;
            let breach = diff.abs() > m.bound;
            within &= !breach;
            println!(
                "{:<13} {:<12} {first:>10.4} {second:>10.4} {:>+7.1}% {:>5.0}%{}",
                a.workload.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    Ok(within)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let env = Env {
        kumquat: cwd.join(&args.kumquat),
        out: cwd.join(&args.out),
        workers: std::thread::available_parallelism().map_or(1, usize::from),
        size_divisor: if args.quick { 16 } else { 1 },
    };
    std::fs::create_dir_all(&env.out).map_err(|e| format!("{}: {e}", env.out.display()))?;
    let outcome = match (args.trace, args.workload) {
        _ if args.aa => aa_run(&env, &args),
        (None, _) => full_run(&env, &args),
        (Some(_), None) => Err("--trace needs --workload".to_owned()),
        (Some(false), Some(workload)) => {
            end_to_end(&env, workload, args.seed, args.seconds, args.quick).map(|(r, _)| {
                print_end_to_end(&r);
                println!(
                    "{}",
                    result_line(r.attempted, r.failed, &end_to_end_metrics(&r))
                );
                // The line carries the verdict; the exit code says it was printed.
                true
            })
        }
        (Some(true), Some(workload)) => {
            // The traced half needs the files and the warm cache, not the
            // set-up statistics: set up once.
            let (p, _) = set_up(&env, workload, args.seed, 1)?;
            let repetitions = if args.quick { 1 } else { TRACE_REPETITIONS };
            layers::traced_pass(&env, &p, args.seed, args.seconds, repetitions).map(|t| {
                print_per_layer(workload.name, &t);
                println!(
                    "{}",
                    result_line(
                        t.attempted,
                        t.failed,
                        &metrics_json(t.metrics.iter().copied())
                    )
                );
                true
            })
        }
    };
    // Inputs and spill space are scratch; results and traces stay.
    let _ = std::fs::remove_dir_all(env.out.join("work"));
    let _ = std::fs::remove_dir_all(env.out.join("tmp"));
    outcome
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("kq-benchmark: a correctness check or an A/A bound failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("kq-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
