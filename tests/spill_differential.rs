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

/// Barrier-bearing scripts: a pure sort, a `sort | uniq -c` (one counting
/// fold under the dataflow executor, whose counted runs spill like any
/// others; a sort feeding a stitch-combined `uniq -c` under the streaming
/// one), an add-combined `wc`, and a `sort -nu` over `"<key>
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

/// The closing merge in parts, under a budget: every part streams its key
/// range of the spilled runs into a temp file of its own, the statement's
/// stdout (or the redirect target, gathered once) is the part files in
/// order, and none of them is left behind — at one, two and four workers,
/// at chunk sizes that give thousands of pieces, a few dozen, and one; in
/// the graph the rewrites build, where the sorts' folds sort raw chunks a
/// batch at a time, and in the one `--no-opt` builds, where every chunk is
/// sorted on its own and the folds merge them.
#[test]
fn closing_merge_in_parts_matches_serial_under_a_budget() {
    let dir = spill_dir("parts");
    // Some 6.6 MiB: three parts for the plain sorts, two for `sort -nu`
    // (one line in seven repeats an earlier number and is dropped).
    let input = kq_workloads::inputs::numbered_lines(200_000, 17);
    let script_text = "cat /in.txt | sort > /out/sorted\n\
                       cat /out/sorted | sort -nu\n\
                       cat /in.txt | sort -r";
    let (script, plan, serial_ctx) = plan_over(script_text, &input[..64 << 10]);
    serial_ctx.vfs.write("/in.txt", input.as_str());
    let serial = run_serial(&script, &serial_ctx).unwrap();
    let sorted = serial_ctx.vfs.read_bytes("/out/sorted").unwrap();
    assert!(serial.output.len() > 10 << 20 && sorted.len() > 6 << 20);
    let sweep = [1, 2, 4]
        .into_iter()
        .flat_map(|w| [700, 64 << 10, 16 << 20].map(|c| (w, c, true)))
        .chain([(2, 64 << 10, false), (2, 16 << 20, false)]);
    for (workers, chunk_bytes, fuse) in sweep {
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", input.as_str());
        let opts = DataflowOptions {
            workers,
            chunk: ChunkSizing::Fixed(chunk_bytes),
            queue: QueueCredit::Fixed(4),
            fuse_streamable: fuse,
            spill: Some(SpillPolicy {
                budget_bytes: 1 << 20,
                dir: Some(dir.clone()),
            }),
        };
        let got = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
        let at = format!("w={workers} chunk={chunk_bytes} fuse={fuse}");
        assert!(got.output == serial.output, "stdout diverged at {at}");
        assert!(
            ctx.vfs.read_bytes("/out/sorted").unwrap() == sorted,
            "/out/sorted diverged at {at}"
        );
        // Each of the three folds wrote one file per part of its closing
        // merge: 6.6 MiB in three parts, twice, and the deduplicated
        // numbers in two. A fold that saw one chunk — one batch past a
        // budget's run size — has one run, and its parts are slices of
        // that run: no file.
        let expect = if chunk_bytes > input.len() {
            [0, 0, 0]
        } else {
            [3, 2, 3]
        };
        let parts: Vec<u64> = got
            .timings
            .statements
            .iter()
            .flatten()
            .filter_map(|t| t.spill)
            .map(|sp| sp.merge_parts)
            .collect();
        assert_eq!(parts, expect, "part files at {at}");
    }
    assert_clean(&dir);
}

/// A counting fold whose counted runs outgrow the budget and whose closing
/// merge runs in parts: 12 MiB of numbered lines, nine numbers in ten
/// distinct, so `sort -n | uniq -c` folds some 4.4 MiB of counted runs —
/// past the 1 MiB budget (runs spill, and every later merge adds counts
/// reading mapped runs) and past two parts' worth (each part streams its
/// key range into a file of its own). The unfused graph spills its sort
/// and its `uniq -c` fold separately and must print the same bytes; no
/// file may be left behind by either.
#[test]
fn a_counting_fold_spills_counted_runs_and_closes_in_parts() {
    let dir = spill_dir("counted");
    let input = kq_workloads::inputs::numbered_lines(360_000, 41);
    let script_text = "cat /in.txt | cut -d ' ' -f 1 | sort -n | uniq -c > /out/counts\n\
                       cat /out/counts | wc -l\n\
                       cat /in.txt | cut -d ' ' -f 1 | sort -n | uniq -c | sort -rn | head -n 4";
    let (script, plan, serial_ctx) = plan_over(script_text, &input[..64 << 10]);
    serial_ctx.vfs.write("/in.txt", input.as_str());
    let serial = run_serial(&script, &serial_ctx).unwrap();
    let counts = serial_ctx.vfs.read_bytes("/out/counts").unwrap();
    assert!(
        counts.len() > 4 << 20,
        "two parts need 4 MiB of counted lines"
    );
    for (workers, chunk_bytes, fuse) in [
        (1, 64 << 10, true),
        (2, 64 << 10, true),
        (4, 64 << 10, true),
        (2, 700, true),
        (2, 64 << 10, false),
    ] {
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", input.as_str());
        let opts = DataflowOptions {
            workers,
            chunk: ChunkSizing::Fixed(chunk_bytes),
            queue: QueueCredit::Fixed(4),
            fuse_streamable: fuse,
            spill: Some(SpillPolicy {
                budget_bytes: 1 << 20,
                dir: Some(dir.clone()),
            }),
        };
        let got = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
        let at = format!("w={workers} chunk={chunk_bytes} fuse={fuse}");
        assert!(got.output == serial.output, "stdout diverged at {at}");
        assert!(
            ctx.vfs.read_bytes("/out/counts").unwrap() == counts,
            "/out/counts diverged at {at}"
        );
        if fuse {
            // The counting folds of statements 1 and 3 each wrote runs and
            // one file per part of their closing merge.
            for statement in [0, 2] {
                let fold = got.timings.statements[statement]
                    .iter()
                    .find(|t| t.label == "sort -n | uniq -c")
                    .unwrap_or_else(|| panic!("no counting fold in statement {statement} at {at}"));
                let spill = fold.spill.expect("a budget was set");
                assert_eq!(spill.merge_parts, 2, "part files at {at}");
                assert!(
                    spill.runs_spilled > spill.merge_parts,
                    "counted runs spilled at {at}"
                );
            }
        }
    }
    assert_clean(&dir);
}
