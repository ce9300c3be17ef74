//! Human-readable rendering of synthesis reports, pipeline plans, and
//! post-run telemetry.
//!
//! [`render_run_notes`] is the one place executor telemetry becomes text:
//! every `kumquat run` reports the same fields in the same shapes (pool
//! accounting, early-exit ledger, spill ledger, verification line), which
//! CI greps.

use kq_pipeline::cache::CacheStats;
use kq_pipeline::exec::TimingLog;
use kq_pipeline::parse::Script;
use kq_pipeline::plan::{PlannedScript, StageMode};
use kq_synth::{SynthesisOutcome, SynthesisReport};
use std::fmt::Write as _;

/// Renders one synthesis report the way Table 10 presents a row: command,
/// search space (with the per-class breakdown), wall-clock time, and the
/// plausible set.
pub fn render_synthesis(report: &SynthesisReport) -> String {
    let mut out = String::new();
    writeln!(out, "command:       {}", report.command).unwrap();
    writeln!(
        out,
        "search space:  {} (= {} RecOp + {} StructOp + {} RunOp)",
        report.space.total(),
        report.space.rec,
        report.space.structural,
        report.space.run
    )
    .unwrap();
    writeln!(
        out,
        "synthesis:     {:.1} ms, {} rounds, {} observations",
        report.elapsed.as_secs_f64() * 1e3,
        report.rounds,
        report.observations
    )
    .unwrap();
    writeln!(out, "input profile: {}", report.profile.describe()).unwrap();
    match &report.outcome {
        SynthesisOutcome::Synthesized(c) => {
            writeln!(out, "plausible ({}):", c.plausible.len()).unwrap();
            for (i, cand) in c.plausible.iter().enumerate() {
                writeln!(out, "  e{} = {}", i + 1, cand).unwrap();
            }
            writeln!(out, "combiner:      {}", c.primary()).unwrap();
        }
        SynthesisOutcome::NoCombiner { counterexample } => {
            writeln!(out, "combiner:      NONE — every candidate eliminated").unwrap();
            if let Some((x1, x2)) = counterexample {
                writeln!(out, "counterexample x1: {x1:?}").unwrap();
                writeln!(out, "counterexample x2: {x2:?}").unwrap();
            }
        }
    }
    out
}

/// Renders a plan as a per-stage table: mode, combiner, elimination.
pub fn render_plan(script: &Script, plan: &PlannedScript) -> String {
    let mut out = String::new();
    let (par, total) = plan.parallelized_counts();
    writeln!(
        out,
        "plan: {par}/{total} stages parallelized, {} combiner(s) eliminated (Thm. 5)",
        plan.eliminated_count()
    )
    .unwrap();
    for (si, (statement, planned)) in script.statements.iter().zip(&plan.statements).enumerate() {
        writeln!(out, "statement {}:", si + 1).unwrap();
        for (stage, ps) in statement.stages.iter().zip(&planned.stages) {
            let line = match &ps.mode {
                StageMode::Sequential => format!("  [seq]      {}", stage.command.display()),
                StageMode::Parallel {
                    combiner,
                    eliminated,
                } => {
                    let mark = if *eliminated {
                        "[par:elim]"
                    } else {
                        "[par]     "
                    };
                    format!(
                        "  {mark} {}  ⇐ {}",
                        stage.command.display(),
                        combiner.primary()
                    )
                }
            };
            writeln!(out, "{line}").unwrap();
        }
    }
    out
}

/// One note per site where the dataflow executor's graph departs from the
/// per-stage modes — what the planner decided beyond them
/// ([`PlannedStatement::rewrites`](kq_pipeline::plan::PlannedStatement::rewrites)):
/// a `sort | uniq` pair fused into one fold, or fused with the numeric sort
/// after it into one fold closing in count order, a sequential `tr -s` run
/// chunk by chunk under its newline seam, and a `sort` whose fold sorts raw
/// chunks.
pub fn render_rewrite_notes(script: &Script, plan: &PlannedScript) -> Vec<String> {
    let statements = script.statements.iter().zip(&plan.statements).enumerate();
    statements
        .flat_map(|(si, (statement, planned))| planned.rewrites(si, statement))
        .map(|(_, _, note)| note)
        .collect()
}

/// Total synthesis wall time in milliseconds. (An empty float sum is
/// `-0.0`, which `{:.1}` renders as "-0.0 ms"; normalize it away.)
pub(crate) fn total_synthesis_ms(reports: &[SynthesisReport]) -> f64 {
    let ms: f64 = reports.iter().map(|r| r.elapsed.as_secs_f64() * 1e3).sum();
    if ms == 0.0 {
        0.0
    } else {
        ms
    }
}

/// Renders the planner's synthesis ledger: per-command wall time for
/// every command synthesized this process (cache hits cost none and list
/// none) plus the cache hit/miss/validated counters. The total sums the
/// commands' times, so it exceeds the wall clock when syntheses overlap.
pub fn render_synthesis_summary(reports: &[SynthesisReport], stats: CacheStats) -> String {
    let mut out = String::new();
    let total_ms = total_synthesis_ms(reports);
    writeln!(
        out,
        "synthesis: {} command(s) synthesized in {total_ms:.1} ms summed over commands",
        reports.len()
    )
    .unwrap();
    for report in reports {
        let verdict = match &report.outcome {
            SynthesisOutcome::Synthesized(c) => c.primary().to_string(),
            SynthesisOutcome::NoCombiner { .. } => "no combiner".to_owned(),
        };
        writeln!(
            out,
            "  {:>9.2} ms  {:<28} {verdict}",
            report.elapsed.as_secs_f64() * 1e3,
            report.command,
        )
        .unwrap();
    }
    writeln!(
        out,
        "combiner cache: {} hit(s) ({} validated, {} rejected), {} miss(es), {} loaded from disk",
        stats.hits, stats.validated, stats.rejected, stats.misses, stats.loaded
    )
    .unwrap();
    out
}

/// Renders the post-run telemetry notes: the pool-accounting line, the
/// early-exit and spill ledgers, and the verification line.
pub fn render_run_notes(
    workers: usize,
    statements: usize,
    plan: &PlannedScript,
    timings: &TimingLog,
    verified: bool,
) -> Vec<String> {
    let mut notes = Vec::new();
    // Worker accounting: the dataflow executor runs the whole script —
    // every statement, segment, and fold — on one fixed pool, so the
    // thread budget is exactly `--workers` regardless of statement count.
    // (CI greps this line in its multi-statement smoke.)
    notes.push(format!(
        "dataflow: {statements} statement(s) share one work-stealing pool of {workers} worker thread(s)",
    ));
    // Early-exit ledger: a prefix-bounded stage (head -n k / sed kq) that
    // satisfied its demand before end-of-input reports how little it
    // consumed. The stage number comes from the EarlyExit record —
    // timings are per *segment*, and fused chunk-local runs would make
    // the timing index drift from the pipeline position.
    for (si, stages) in timings.statements.iter().enumerate() {
        for stage in stages {
            if let Some(early) = stage.early_exit {
                notes.push(format!(
                    "early-exit: statement {} stage {} ({}) satisfied after {} chunk(s); \
                     demand token released before end-of-input",
                    si + 1,
                    early.stage + 1,
                    stage.label,
                    early.chunks
                ));
            }
        }
    }
    // Spill ledger: every barrier fold that ran under a --spill-mb budget
    // reports its disk traffic; a fold that stayed within budget reports
    // nothing (its telemetry is Some but all-zero).
    for (si, stages) in timings.statements.iter().enumerate() {
        for stage in stages {
            if let Some(sp) = stage.spill.filter(|sp| sp.runs_spilled > 0) {
                // The files of the closing merge are output, not runs:
                // a merge that ran in p parts wrote p of them.
                notes.push(format!(
                    "spill: statement {} ({}) wrote {} run(s) and {} part(s) of the merged \
                     output, {} KiB to disk, mapped {} KiB back for the merge",
                    si + 1,
                    stage.label,
                    sp.runs_spilled.saturating_sub(sp.merge_parts),
                    sp.merge_parts,
                    sp.bytes_written / 1024,
                    sp.bytes_mapped / 1024
                ));
            }
        }
    }
    let (par, total) = plan.parallelized_counts();
    if verified {
        notes.push(format!(
            "verified: dataflow parallel output (w={workers}) equals serial output; \
             {par}/{total} stages parallel, {} combiner(s) eliminated",
            plan.eliminated_count()
        ));
    } else {
        notes.push(format!(
            "unverified (--no-verify): dataflow output (w={workers}); \
             {par}/{total} stages parallel, {} combiner(s) eliminated",
            plan.eliminated_count()
        ));
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;
    use kq_coreutils::ExecContext;
    use kq_pipeline::parse::parse_script;
    use kq_pipeline::plan::Planner;
    use kq_synth::{synthesize, SynthesisConfig};
    use std::collections::HashMap;

    #[test]
    fn synthesis_report_renders_table10_shape() {
        let cmd = kq_coreutils::parse_command("wc -l").unwrap();
        let ctx = ExecContext::default();
        let report = synthesize(&cmd, &ctx, &SynthesisConfig::default());
        let text = render_synthesis(&report);
        assert!(text.contains("search space:"));
        assert!(text.contains("RecOp"));
        assert!(text.contains("(back '\\n' add)"), "got: {text}");
    }

    #[test]
    fn plan_renders_stage_modes() {
        let script = parse_script("cat in.txt | grep a | wc -l", &HashMap::new()).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("in.txt", "a x\nb y\na z\n".repeat(30));
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, "a x\nb y\na z\n");
        let text = render_plan(&script, &plan);
        assert!(text.contains("stages parallelized"));
        assert!(text.contains("[par"));
    }

    #[test]
    fn synthesis_summary_lists_per_command_times_and_cache_counts() {
        let script = parse_script("cat in.txt | grep a | grep a | wc -l", &HashMap::new()).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("in.txt", "a x\nb y\na z\n".repeat(30));
        let mut planner = Planner::new(SynthesisConfig::default());
        let _ = planner.plan(&script, &ctx, "a x\nb y\na z\n");
        let text = render_synthesis_summary(&planner.reports, planner.cache_stats());
        // grep is statically stateless (lattice short-circuit): only wc
        // actually synthesizes.
        assert!(text.contains("1 command(s) synthesized"), "{text}");
        assert!(!text.contains(" ms  grep a"), "{text}");
        assert!(text.contains(" ms  wc -l"), "{text}");
        assert!(text.contains("combiner cache:"), "{text}");
        assert!(text.contains("1 miss(es)"), "{text}");
        // The duplicated grep stage is a hit, not a second synthesis.
        assert!(text.contains("hit(s)"), "{text}");
    }
}
