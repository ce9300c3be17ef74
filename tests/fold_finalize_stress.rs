//! Regression stress for the Fold-finalization race in the dataflow
//! scheduler (promoted from a temporary reviewer repro).
//!
//! The bug: `gather_task` claimed the inflight counter, popped the final
//! chunk, and then only rescheduled its *upstream* node — so when a
//! sibling task had already observed the closed edge and bailed out on
//! the nonzero inflight count, nobody ever re-ran the finalization check
//! and the run hung with the pool idle. The fix makes every pop path
//! call `maybe_finalize_gather`/`maybe_finalize_map` unconditionally
//! after integrating its chunk (the condition is stable once true, so
//! the extra call is idempotent).
//!
//! These tests hammer the window with tiny chunks (64 B) and a shallow
//! queue (depth 2) so the final-chunk/closed-edge interleaving happens
//! constantly. Each iteration runs on a detached thread watched over a
//! channel: a hang panics the test with the iteration number instead of
//! wedging the suite. (A detached thread is deliberate — `thread::scope`
//! would join the hung worker and turn the panic back into a wedge.)
//!
//! The same harness covers the run batches a merge fold hands out to be
//! merged *outside* the node lock: with four workers several batches are
//! out at once and come back in whatever order their merges finish, the
//! batch count holds finalization off, and `sort -nu` makes the order
//! they are installed in visible in the output.
//!
//! It covers the sealing phase, where the pieces a fold holds when its
//! input ends become run batches merged — for a sorting fold, sorted — as
//! pool tasks of their own (`sealed_tail_batches_stress`).
//!
//! And it covers the finishing phase of a fold whose closing merge is cut
//! into parts (`partitioned_finish_stress`): the finalizing task schedules
//! one pool task per part, four workers merge parts of uneven size at once
//! and slot them in whatever order they finish, and the task that fills
//! the last slot — any of them — must start the emission exactly once.
//!
//! `unfused_worker_chain_stress` is a lost wakeup of another kind, in the
//! graph `--no-opt` builds: a chunk-local stage gated on a full edge used
//! to drop the task it was scheduled with, and a selective stage behind it
//! pops less often than that.

use kq_coreutils::ExecContext;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::{parse_script, Script};
use kq_pipeline::plan::{PlannedScript, Planner};
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

const ITERATIONS: usize = 3000;

/// Plans `script_text` over `input` and returns the shared state each
/// stress iteration re-executes.
fn plan_stress_script(
    script_text: &str,
    input: &str,
) -> (Arc<Script>, Arc<PlannedScript>, Arc<ExecContext>) {
    let env: HashMap<String, String> = HashMap::new();
    let script = parse_script(script_text, &env).unwrap();
    let ctx = ExecContext::default();
    ctx.vfs.write("/in.txt", input);
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&script, &ctx, input);
    (Arc::new(script), Arc::new(plan), Arc::new(ctx))
}

/// 300 lines: some fifty 64-byte chunks.
fn short_input() -> String {
    (0..300)
        .map(|i| format!("line {} {}\n", i % 7, i))
        .collect()
}

/// Runs the planned script `iterations` times under the race-friendly
/// configuration (64-byte chunks, a queue two deep), each run on a
/// detached watchdog-guarded thread.
fn stress(script_text: &str, input: &str, iterations: usize) {
    stress_with(script_text, input, iterations, 64, true);
}

/// [`stress`] at a given chunk size, with or without the graph rewrites.
fn stress_with(script_text: &str, input: &str, iterations: usize, chunk_bytes: usize, fuse: bool) {
    // Plan over a line-aligned head of the input, run over all of it.
    let head = input[..input.len().min(32_000)]
        .rfind('\n')
        .map_or(input.len(), |nl| nl + 1);
    let (script, plan, ctx) = plan_stress_script(script_text, &input[..head]);
    ctx.vfs.write("/in.txt", input);
    let expect = run_serial(&script, &ctx).unwrap().output;
    for iter in 0..iterations {
        let (tx, rx) = mpsc::channel();
        let (script, plan, ctx) = (script.clone(), plan.clone(), ctx.clone());
        std::thread::spawn(move || {
            let opts = DataflowOptions {
                workers: 4,
                chunk: ChunkSizing::Fixed(chunk_bytes),
                queue: QueueCredit::Fixed(2),
                fuse_streamable: fuse,
                spill: None,
            };
            let got = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
            // A send failure means the watchdog already gave up.
            let _ = tx.send(got.output);
        });
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(out) => assert_eq!(out, expect, "dataflow output diverged at iteration {iter}"),
            Err(_) => panic!("lost-finalization hang at iteration {iter}"),
        }
    }
}

/// The original repro: `sed 1d` plans as a sequential Fold(Gather) node
/// fed by the split, the shape whose finalization was lost.
#[test]
fn gather_finalize_stress() {
    stress("cat /in.txt | sed 1d | sort", &short_input(), ITERATIONS);
}

/// The same window at a Fold(Combine) node: no gather stage in the
/// pipeline, so the incremental combiner fold's pop paths are the ones
/// racing the closed-edge observer.
#[test]
fn combine_finalize_stress() {
    stress("cat /in.txt | sort", &short_input(), ITERATIONS);
}

/// Run batches merged outside the node lock. 1500 lines are some two
/// hundred chunks, so the `sort -nu` fold of sorted chunks (the graph
/// `--no-opt` builds; the sorting fold of the rewritten one takes them as
/// one sealed batch) cuts six batches of 32 pieces and several are out
/// being merged at once; the output keeps, per number, the line that came
/// first in the stream — which it only does when every batch lands in its
/// own place however late it comes back, and when finalization waits for
/// the last of them.
#[test]
fn run_batches_merged_outside_the_lock_finish_in_stream_order() {
    let input: String = (0..1500)
        .map(|i| format!("{} line {}\n", i % 7, 1499 - i))
        .collect();
    let expect: String = (0..7).map(|k| format!("{k} line {}\n", 1499 - k)).collect();
    let (script, plan, ctx) = plan_stress_script("cat /in.txt | sort -nu", &input);
    let once = run_dataflow(&script, &plan, &ctx, &DataflowOptions::default()).unwrap();
    assert_eq!(once.output, expect);
    stress_with("cat /in.txt | sort -nu", &input, ITERATIONS / 3, 64, false);
}

/// The finishing phase. Nine MiB of lines fold into four parts under
/// `sort` and (one line in seven repeating an earlier number, so the
/// deduplicated runs are smaller) three under `sort -nu`; with 64 KiB
/// chunks the fold also has several run batches out before it closes. A lost or doubled hand-over between the part tasks hangs the
/// run or reorders its segments; `sort -nu` shows a part that merged the
/// wrong slice of a run, by keeping the wrong line of a number.
#[test]
fn partitioned_finish_stress() {
    // One run takes a debug build seconds and a release build some tens
    // of milliseconds.
    let iterations = if cfg!(debug_assertions) { 4 } else { 500 };
    let input = kq_workloads::inputs::numbered_lines(280_000, 29);
    assert!(input.len() > 8 << 20, "four parts need 8 MiB");
    stress_with("cat /in.txt | sort", &input, iterations, 64 << 10, true);
    stress_with("cat /in.txt | sort -nu", &input, iterations, 64 << 10, true);
}

/// The sealing phase of a sorting fold: one 16 MiB chunk holds all of 5
/// MiB of lines, so nothing is cut while the input arrives and the seal
/// turns that one raw piece into two batches, cut at a line end, which two
/// workers sort at once and install in whichever order they finish; the
/// task that installs the last starts the closing merge in two parts,
/// exactly once. `sort -nu` shows a batch that landed in the wrong place,
/// or a piece cut anywhere but at a line end, by keeping the wrong line of
/// a number.
#[test]
fn sealed_tail_batches_stress() {
    let iterations = if cfg!(debug_assertions) { 2 } else { 60 };
    let input = kq_workloads::inputs::numbered_lines(160_000, 37);
    assert!(input.len() > 4 << 20, "two batches need 4 MiB");
    stress_with("cat /in.txt | sort -nu", &input, iterations, 16 << 20, true);
    stress_with("cat /in.txt | sort -r", &input, iterations, 16 << 20, true);
}

/// The counting fold (`sort | uniq -c` as one node) in the same windows:
/// fifty chunks of a few lines each through the table kernel and a
/// one-part closing merge, then — 1.4 MiB of numbers, nine in ten
/// distinct, in 4 KiB chunks — eleven run batches of counted runs out at
/// once, every chunk sorted rather than hashed. A count that a lost or
/// doubled hand-over drops or adds shows in the output.
#[test]
fn counting_fold_finalize_stress() {
    stress(
        "cat /in.txt | cut -d ' ' -f 2 | sort | uniq -c | sort -rn",
        &short_input(),
        ITERATIONS / 3,
    );
    let iterations = if cfg!(debug_assertions) { 4 } else { 300 };
    let numbers = kq_workloads::inputs::numbered_lines(40_000, 31);
    stress_with(
        "cat /in.txt | cut -d ' ' -f 1 | sort -n | uniq -c | tail -n 3",
        &numbers,
        iterations,
        4 << 10,
        true,
    );
}

/// The unfused graph (`fuse_streamable: false`, what `--no-opt` builds)
/// puts chunk-local stages back to back: `tr` fills its edge to `grep`
/// past the credit, `grep` keeps one line in dozens and so pushes — and is
/// popped from — rarely. A `tr` or `grep` task that finds its output edge
/// full must not be forgotten, or the chunks it was scheduled for wait
/// for pops that never come.
#[test]
fn unfused_worker_chain_stress() {
    let input: String = (0..600)
        .map(|i| format!("e4 e5 {}. Nf3 Nc6 x{} d4\n", i % 50, i % 9))
        .collect();
    stress_with(
        "cat /in.txt | tr ' ' '\\n' | grep '\\.' | grep 1 | wc -l",
        &input,
        ITERATIONS / 6,
        64,
        false,
    );
}
