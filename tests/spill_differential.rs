//! Spill differential suite: barrier folds running under a deliberately
//! tiny `--spill-mb` budget (every run goes to disk) must produce output
//! byte-identical to the serial oracle, on both spill-capable executors,
//! at several worker counts — and must never leave run files behind in
//! the spill directory, whether the run succeeds, fails, or exits early.
//!
//! Run files are unlinked the moment they are mapped back (see
//! `kq_io::RunWriter`), so "no leftovers" is structural rather than a
//! cleanup pass: these tests pin that property end-to-end through both
//! executors' success and teardown paths.

use kq_coreutils::ExecContext;
use kq_dsl::SpillPolicy;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::{parse_script, Script};
use kq_pipeline::plan::{PlannedScript, Planner};
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_pipeline::streaming::{run_streaming, StreamingOptions};
use kq_synth::SynthesisConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Barrier-bearing scripts: a pure sort, a sort feeding a stitch-combined
/// `uniq -c`, an add-combined `wc`, and a `sort -nu` over `"<key>
/// <value>"` lines, whose output keeps the first line of each key *in
/// stream order*. Under the one-byte budget every piece is a run batch of
/// its own, merged outside the fold's lock and installed whenever it
/// comes back, so that last script diverges unless each run lands at its
/// batch's position.
const SCRIPTS: &[&str] = &[
    "cat /in.txt | sort",
    "cat /in.txt | sort | uniq -c",
    "cat /in.txt | wc",
    "cat /in.txt | cut -d ' ' -f 2,4 | sort -nu",
];

/// A fresh spill directory for one test, removed (and asserted empty) by
/// `assert_clean`.
fn spill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kq-spill-diff-{}-{tag}", std::process::id()))
}

/// Asserts no run file outlived the runs, then removes the directory.
fn assert_clean(dir: &Path) {
    if !dir.exists() {
        return; // nothing was ever spilled there — also clean
    }
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "run files left behind in {}: {leftovers:?}",
        dir.display()
    );
    std::fs::remove_dir(dir).unwrap();
}

/// A budget of one byte: every completed run spills.
fn tiny_policy(dir: &Path) -> SpillPolicy {
    SpillPolicy {
        budget_bytes: 1,
        dir: Some(dir.to_path_buf()),
    }
}

fn plan_over(script_text: &str, input: &str) -> (Script, PlannedScript, ExecContext) {
    let env: HashMap<String, String> = HashMap::new();
    let script = parse_script(script_text, &env).unwrap();
    let ctx = ExecContext::default();
    ctx.vfs.write("/in.txt", input);
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&script, &ctx, input);
    (script, plan, ctx)
}

/// Enough lines, with repeated keys, that a small chunk size yields many
/// runs per fold.
fn stress_input() -> String {
    let mut input = String::new();
    for i in 0..2_000 {
        input.push_str(&format!("key {} value {}\n", i % 13, i * 31 % 997));
    }
    input
}

#[test]
fn spilled_streaming_matches_serial_across_corpus_and_workers() {
    let dir = spill_dir("streaming");
    let input = stress_input();
    for script_text in SCRIPTS {
        let (script, plan, ctx) = plan_over(script_text, &input);
        let serial = run_serial(&script, &ctx).unwrap();
        for workers in [1, 4] {
            let opts = StreamingOptions {
                workers,
                chunk_bytes: 256,
                queue_depth: 2,
                fuse_streamable: true,
                spill: Some(tiny_policy(&dir)),
            };
            let got = run_streaming(&script, &plan, &ctx, &opts).unwrap();
            assert_eq!(
                got.output, serial.output,
                "{script_text} w={workers} diverged under spilling"
            );
            // Every barrier fold in a sort-bearing script must actually
            // have hit the disk under the one-byte budget.
            if script_text.contains("sort") {
                let spilled: u64 = got
                    .timings
                    .statements
                    .iter()
                    .flatten()
                    .filter_map(|t| t.spill)
                    .map(|sp| sp.runs_spilled)
                    .sum();
                assert!(spilled > 0, "{script_text} w={workers} never spilled");
            }
        }
    }
    assert_clean(&dir);
}

#[test]
fn spilled_dataflow_matches_serial_across_corpus_and_workers() {
    let dir = spill_dir("dataflow");
    let input = stress_input();
    for script_text in SCRIPTS {
        let (script, plan, ctx) = plan_over(script_text, &input);
        let serial = run_serial(&script, &ctx).unwrap();
        for workers in [1, 4] {
            let opts = DataflowOptions {
                workers,
                chunk: ChunkSizing::Fixed(256),
                queue: QueueCredit::Fixed(2),
                fuse_streamable: true,
                spill: Some(tiny_policy(&dir)),
            };
            let got = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
            assert_eq!(
                got.output, serial.output,
                "{script_text} w={workers} diverged under spilling"
            );
            if script_text.contains("sort") {
                let spilled: u64 = got
                    .timings
                    .statements
                    .iter()
                    .flatten()
                    .filter_map(|t| t.spill)
                    .map(|sp| sp.runs_spilled)
                    .sum();
                assert!(spilled > 0, "{script_text} w={workers} never spilled");
            }
        }
    }
    assert_clean(&dir);
}

#[test]
fn failed_run_leaves_no_spill_files() {
    // The failing stage sits downstream of the spilling sort (`comm`
    // needs a dictionary file nobody wrote), so the fold completes —
    // spilling and mapping its runs — before the error surfaces. Every
    // run file must already be unlinked by then.
    let dir = spill_dir("failure");
    let (script, plan, ctx) = plan_over("cat /in.txt | sort | comm -23 - /nodict", &stress_input());
    for workers in [1, 4] {
        let sopts = StreamingOptions {
            workers,
            chunk_bytes: 256,
            queue_depth: 2,
            fuse_streamable: true,
            spill: Some(tiny_policy(&dir)),
        };
        run_streaming(&script, &plan, &ctx, &sopts).expect_err("comm without /nodict must fail");
        let dopts = DataflowOptions {
            workers,
            chunk: ChunkSizing::Fixed(256),
            queue: QueueCredit::Fixed(2),
            fuse_streamable: true,
            spill: Some(tiny_policy(&dir)),
        };
        run_dataflow(&script, &plan, &ctx, &dopts).expect_err("comm without /nodict must fail");
    }
    assert_clean(&dir);
}

#[test]
fn early_exit_run_leaves_no_spill_files() {
    // A bounded consumer downstream of the spilling sort cancels the
    // fold's emit after one line: the mapped (already-unlinked) merge
    // output is dropped mid-stream, and nothing may remain on disk.
    let dir = spill_dir("early-exit");
    let input = stress_input();
    let (script, plan, ctx) = plan_over("cat /in.txt | sort | head -n 1", &input);
    let serial = run_serial(&script, &ctx).unwrap();
    for workers in [1, 4] {
        let sopts = StreamingOptions {
            workers,
            chunk_bytes: 256,
            queue_depth: 2,
            fuse_streamable: true,
            spill: Some(tiny_policy(&dir)),
        };
        let got = run_streaming(&script, &plan, &ctx, &sopts).unwrap();
        assert_eq!(got.output, serial.output);
        let dopts = DataflowOptions {
            workers,
            chunk: ChunkSizing::Fixed(256),
            queue: QueueCredit::Fixed(2),
            fuse_streamable: true,
            spill: Some(tiny_policy(&dir)),
        };
        let got = run_dataflow(&script, &plan, &ctx, &dopts).unwrap();
        assert_eq!(got.output, serial.output);
    }
    assert_clean(&dir);
}
