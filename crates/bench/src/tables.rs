//! Printers for every table and figure of the paper's evaluation.
//!
//! Each printer takes the measurements produced by [`crate::measure_corpus`]
//! (or per-command synthesis reports) and emits the paper's table layout
//! with our measured values, quoting the paper's aggregates for
//! side-by-side comparison. Absolute times are milliseconds of wall clock
//! at our scaled-down inputs on this host (the paper's are seconds on
//! 0.9–3.4 GB on 80 cores); the claims under reproduction are the
//! *shapes* — who parallelizes, what gets eliminated, how speedups trend
//! with `w`, which commands synthesize which combiners.

use crate::paper;
use crate::{fmt_ms, fmt_speedup, format_counts, timing_note, ScriptMeasurement};
use kq_synth::{SynthesisOutcome, SynthesisReport};
use std::collections::BTreeMap;
use std::time::Duration;

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// Table 1: performance highlights for the two longest-running scripts of
/// each suite.
pub fn print_table1(ms: &[ScriptMeasurement]) {
    println!("Table 1 — performance highlights (paper's two longest scripts per suite)");
    println!("{}", timing_note());
    println!(
        "{:<14} {:<16} {:>12} {:>5} | {:>9} {:>8} {:>8} | paper u16/T16",
        "benchmark", "script", "parallelized", "elim", "u1", "u16", "T16"
    );
    for row in paper::TABLE1 {
        let Some(m) = ms.iter().find(|m| m.suite == row.suite && m.id == row.id) else {
            continue;
        };
        let u16 = ScriptMeasurement::at(&m.unopt, 16).unwrap_or(m.u1);
        let t16 = ScriptMeasurement::at(&m.opt, 16).unwrap_or(m.u1);
        println!(
            "{:<14} {:<16} {:>12} {:>5} | {:>9} {:>8} {:>8} | {:>6.1}x / {:.1}x",
            m.suite,
            m.id,
            format!("{}/{}", m.parallelized().0, m.parallelized().1),
            m.eliminated(),
            fmt_ms(m.u1),
            fmt_speedup(m.u1, u16),
            fmt_speedup(m.u1, t16),
            row.u16_speedup,
            row.t16_speedup,
        );
    }
}

/// Table 3: parallelized / eliminated stage counts for every script.
pub fn print_table3(ms: &[ScriptMeasurement]) {
    println!("Table 3 — pipeline stages parallelized with synthesized combiners");
    println!(
        "{:<14} {:<22} {:<28} eliminated",
        "benchmark", "script", "parallelized"
    );
    let mut total_k = 0;
    let mut total_n = 0;
    let mut total_e = 0;
    for m in ms {
        let (k, n) = m.parallelized();
        total_k += k;
        total_n += n;
        total_e += m.eliminated();
        println!(
            "{:<14} {:<22} {:<28} {}",
            m.suite,
            m.id,
            format_counts(&m.per_statement),
            m.eliminated()
        );
    }
    println!(
        "Total: {total_k}/{total_n} stages parallelized ({:.1}%), {total_e} combiners eliminated ({:.1}%)",
        100.0 * total_k as f64 / total_n as f64,
        100.0 * total_e as f64 / total_k.max(1) as f64,
    );
    println!(
        "Paper: {}/{} stages (76.1%), {} eliminated (44.3%)",
        paper::aggregates::PARALLELIZED_STAGES,
        paper::aggregates::TOTAL_STAGES,
        paper::aggregates::ELIMINATED_COMBINERS,
    );
}

/// Table 4: `u1`, `u16`, `T16` for every script. The paper's `T_orig`
/// column (the script under the shell) is measured by `benchmark/`
/// (`sh_wall_s`) on its five workloads.
pub fn print_table4(ms: &[ScriptMeasurement]) {
    println!("Table 4 — performance of all benchmark scripts (times in ms at scaled inputs)");
    println!("{}", timing_note());
    println!(
        "{:<14} {:<22} {:>10} {:>16} {:>16}",
        "benchmark", "script", "u1", "u16 (speedup)", "T16 (speedup)"
    );
    let mut u16_speedups = Vec::new();
    let mut t16_speedups = Vec::new();
    for m in ms {
        let u16 = ScriptMeasurement::at(&m.unopt, 16).unwrap_or(m.u1);
        let t16 = ScriptMeasurement::at(&m.opt, 16).unwrap_or(m.u1);
        u16_speedups.push(m.speedup(u16));
        t16_speedups.push(m.speedup(t16));
        println!(
            "{:<14} {:<22} {:>10} {:>16} {:>16}",
            m.suite,
            m.id,
            fmt_ms(m.u1),
            format!("{} ({})", fmt_ms(u16), fmt_speedup(m.u1, u16)),
            format!("{} ({})", fmt_ms(t16), fmt_speedup(m.u1, t16)),
        );
    }
    println!(
        "Median speedups: u16 {:.1}x (paper {:.1}x), T16 {:.1}x (paper {:.1}x)",
        median(u16_speedups),
        paper::aggregates::MEDIAN_U16_SPEEDUP,
        median(t16_speedups),
        paper::aggregates::MEDIAN_T16_SPEEDUP,
    );
}

fn print_sweep(ms: &[ScriptMeasurement], optimized: bool) {
    let label = if optimized { "T" } else { "u" };
    println!("{}", timing_note());
    println!(
        "{:<14} {:<22} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "benchmark",
        "script",
        format!("{label}1"),
        format!("{label}2 (x)"),
        format!("{label}4 (x)"),
        format!("{label}8 (x)"),
        format!("{label}16 (x)"),
    );
    for m in ms {
        let sweep = if optimized { &m.opt } else { &m.unopt };
        let cells: Vec<String> = crate::WORKER_SWEEP
            .iter()
            .map(|&w| {
                let d = ScriptMeasurement::at(sweep, w).unwrap_or(m.u1);
                if w == 1 {
                    fmt_ms(d)
                } else {
                    format!("{} ({})", fmt_ms(d), fmt_speedup(m.u1, d))
                }
            })
            .collect();
        println!(
            "{:<14} {:<22} {:>10} {:>10} {:>10} {:>10} {:>10}",
            m.suite, m.id, cells[0], cells[1], cells[2], cells[3], cells[4]
        );
    }
}

/// Table 5: the unoptimized worker sweep.
pub fn print_table5(ms: &[ScriptMeasurement]) {
    println!("Table 5 — unoptimized pipelines at 1/2/4/8/16-way parallelism");
    print_sweep(ms, false);
}

/// Table 6: the optimized worker sweep.
pub fn print_table6(ms: &[ScriptMeasurement]) {
    println!("Table 6 — optimized pipelines (intermediate combiners eliminated)");
    print_sweep(ms, true);
}

/// Table 7: the long-running subset (the paper uses `u1 >= 3 min`; at our
/// scale the threshold is the corpus's 60th-percentile `u1` unless
/// `KQ_LONG_MS` overrides it).
pub fn print_table7(ms: &[ScriptMeasurement]) {
    let threshold = std::env::var("KQ_LONG_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis)
        .unwrap_or_else(|| {
            let mut u1s: Vec<Duration> = ms.iter().map(|m| m.u1).collect();
            u1s.sort();
            u1s[(u1s.len() * 6 / 10).min(u1s.len() - 1)]
        });
    println!(
        "Table 7 — long-running scripts (u1 >= {:.0?}; paper: u1 >= 3 min)",
        threshold
    );
    println!("{}", timing_note());
    let long: Vec<&ScriptMeasurement> = ms.iter().filter(|m| m.u1 >= threshold).collect();
    let mut u16_speedups = Vec::new();
    let mut t16_speedups = Vec::new();
    println!(
        "{:<14} {:<22} {:>12} {:>5} {:>10} {:>12} {:>12}",
        "benchmark", "script", "parallelized", "elim", "u1", "u16 (x)", "T16 (x)"
    );
    for m in &long {
        let u16 = ScriptMeasurement::at(&m.unopt, 16).unwrap_or(m.u1);
        let t16 = ScriptMeasurement::at(&m.opt, 16).unwrap_or(m.u1);
        u16_speedups.push(m.speedup(u16));
        t16_speedups.push(m.speedup(t16));
        println!(
            "{:<14} {:<22} {:>12} {:>5} {:>10} {:>12} {:>12}",
            m.suite,
            m.id,
            format!("{}/{}", m.parallelized().0, m.parallelized().1),
            m.eliminated(),
            fmt_ms(m.u1),
            fmt_speedup(m.u1, u16),
            fmt_speedup(m.u1, t16),
        );
    }
    println!(
        "{} scripts; median u16 speedup {:.1}x (paper 8.5x), median T16 speedup {:.1}x (paper 11.3x)",
        long.len(),
        median(u16_speedups),
        median(t16_speedups),
    );
}

/// Table 8: census of synthesized plausible combiners.
pub fn print_table8(reports: &[SynthesisReport]) {
    println!("Table 8 — plausible combiners across all unique benchmark commands");
    let mut census: BTreeMap<String, usize> = BTreeMap::new();
    for report in reports {
        for cand in report.plausible() {
            *census.entry(cand.to_string()).or_default() += 1;
        }
    }
    let mut rows: Vec<(usize, String)> = census.into_iter().map(|(k, v)| (v, k)).collect();
    rows.sort_by(|a, b| b.cmp(a));
    println!("{:>5}  combiner (ours)", "count");
    for (count, combiner) in rows.iter().take(16) {
        println!("{count:>5}  {combiner}");
    }
    println!("\npaper's census (per script occurrence):");
    for (combiner, count) in paper::TABLE8 {
        println!("{count:>5}  {combiner}");
    }
}

/// Table 9: commands with no synthesized combiner.
pub fn print_table9(reports: &[SynthesisReport]) {
    println!("Table 9 — commands with no synthesized combiner");
    let mut ours: Vec<&SynthesisReport> = reports
        .iter()
        .filter(|r| matches!(r.outcome, SynthesisOutcome::NoCombiner { .. }))
        .collect();
    ours.sort_by_key(|r| r.command.clone());
    ours.dedup_by_key(|r| r.command.clone());
    for r in &ours {
        let counterexample = match &r.outcome {
            SynthesisOutcome::NoCombiner {
                counterexample: Some((x1, x2)),
            } => format!("counterexample x1={x1:?} x2={x2:?}"),
            _ => "all candidates eliminated".to_owned(),
        };
        let shown = if counterexample.len() > 72 {
            format!("{}…", &counterexample[..72])
        } else {
            counterexample
        };
        println!("  {:<28} {}", r.command, shown);
    }
    println!("\npaper's unsupported commands:");
    for (cmd, why) in paper::TABLE9 {
        println!("  {cmd:<28} {why}");
    }
}

/// Table 10: per-command synthesis results.
pub fn print_table10(reports: &[SynthesisReport]) {
    println!("Table 10 — synthesis results for unique command/flag combinations");
    println!(
        "{:<34} {:>28} {:>9} {:>5}  plausible",
        "command", "search space", "time", "#P"
    );
    let mut seen = std::collections::BTreeSet::new();
    let mut times = Vec::new();
    let mut synthesized = 0usize;
    let mut total = 0usize;
    for r in reports {
        if !seen.insert(r.command.clone()) {
            continue;
        }
        total += 1;
        times.push(r.elapsed.as_secs_f64());
        let plausible = r.plausible();
        if !plausible.is_empty() {
            synthesized += 1;
        }
        let listed: Vec<String> = plausible.iter().take(2).map(|c| c.to_string()).collect();
        let extra = if plausible.len() > 2 {
            format!(" +{}", plausible.len() - 2)
        } else {
            String::new()
        };
        println!(
            "{:<34} {:>28} {:>9} {:>5}  {}{}",
            truncate(&r.command, 34),
            r.space.to_string(),
            format!("{:.0?}", r.elapsed),
            plausible.len(),
            listed.join(", "),
            extra,
        );
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let med = if times.is_empty() {
        0.0
    } else {
        times[times.len() / 2]
    };
    println!(
        "\nSynthesized combiners for {synthesized} of {total} unique commands \
         (paper: {} of {}).",
        paper::aggregates::SYNTHESIZED_COMMANDS,
        paper::aggregates::UNIQUE_COMMANDS,
    );
    if let (Some(first), Some(last)) = (times.first(), times.last()) {
        println!(
            "Synthesis times {:.0}ms – {:.0}ms, median {:.0}ms \
             (paper: {:.0}s – {:.0}s, median {:.0}s — real processes vs. in-process calls).",
            first * 1e3,
            last * 1e3,
            med * 1e3,
            paper::aggregates::SYNTH_SECONDS.0,
            paper::aggregates::SYNTH_SECONDS.1,
            paper::aggregates::SYNTH_SECONDS.2,
        );
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        format!("{}…", &s[..n.saturating_sub(1)])
    }
}
