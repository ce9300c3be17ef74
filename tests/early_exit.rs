//! Early exit on the pool in its lock-step shapes and behind the dataflow
//! graph's rewrites: a prefix-bounded consumer (`head -n k`, `sed kq`)
//! must cancel its upstream, leave no spill file behind, and print the
//! serial bytes.
//!
//! The corpus sweep here runs the `head`-terminated scripts at depth-1
//! queues, fused and unfused, with every fold run spilled; the cancelled
//! 256 MiB producer runs on a single worker. (The default-shaped sweep and
//! producer at two workers are in `tests/dataflow_differential.rs`.) Then
//! a bound behind a sort that finishes in parts, behind a counting fold,
//! and behind the word splitter's seam.

use kq_coreutils::ExecContext;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use kq_workloads::{corpus, setup, Scale};
use std::collections::HashMap;

/// The prefix-bounded corpus scripts (`… | sort -nr | head -n 1`-shaped)
/// at depth-1 queues, fused and unfused (what `--no-opt` builds), under a
/// spill budget of nothing: the bound cancels upstream while every fold
/// run behind it is on disk. The serial bytes at one and three workers,
/// and no run file left behind.
#[test]
fn prefix_bounded_corpus_scripts_match_serial_under_early_exit() {
    let scale = Scale {
        input_bytes: 10_000,
    };
    let dir = std::env::temp_dir().join(format!("kq-early-exit-corpus-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // One planner across scripts: combiners cache per command signature.
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut covered: Vec<String> = Vec::new();
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 0xEA51);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        // Select scripts with a statement *terminating* in a bounded
        // consumer — the shape where cancellation saves the whole tail.
        let bounded_terminal = parsed.statements.iter().any(|st| {
            st.stages
                .last()
                .is_some_and(|stage| kq_synth::prefix_bound(&stage.command).is_some())
        });
        if !bounded_terminal {
            continue;
        }
        let id = format!("{}/{}", script.suite.dir(), script.id);
        covered.push(id.clone());
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(8_000)]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(sample.len());
        let plan = planner.plan(&parsed, &ctx, &sample[..cut]);
        let serial = run_serial(&parsed, &ctx).unwrap_or_else(|e| panic!("{id} serial: {e}"));
        for workers in [1usize, 3] {
            for fuse in [true, false] {
                let opts = DataflowOptions {
                    workers,
                    chunk: ChunkSizing::Fixed(700),
                    queue: QueueCredit::Fixed(1),
                    fuse_streamable: fuse,
                    spill: Some(kq_dsl::SpillPolicy {
                        budget_bytes: 0,
                        dir: Some(dir.clone()),
                    }),
                };
                let got = run_dataflow(&parsed, &plan, &ctx, &opts)
                    .unwrap_or_else(|e| panic!("{id} dataflow (w={workers}, fuse={fuse}): {e}"));
                assert_eq!(
                    got.output, serial.output,
                    "{id}: early-exit dataflow diverged (w={workers}, fuse={fuse})"
                );
                let left = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
                assert_eq!(
                    left, 0,
                    "{id}: spill files left behind (w={workers}, fuse={fuse})"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    // The corpus has 11 head-/sed kq-terminated scripts; a corpus edit
    // that silently empties this suite should fail loudly.
    assert!(
        covered.len() >= 11,
        "expected >= 11 prefix-bounded corpus scripts, found {}: {covered:?}",
        covered.len()
    );
}

/// A cancelled 256 MiB producer on a single worker: `sed 1q` behind an
/// unfused `grep | tr` at queue depth 1. No second pool thread can see the
/// bound while the producer cuts, so the cancellation has to reach the
/// split between tasks: the grep node's consumed-byte count stays
/// O(first match), with a watchdog so a regression hangs the test instead
/// of silently scanning everything.
#[test]
fn cancelled_256mib_producer_terminates_promptly_without_draining() {
    const TOTAL: usize = 256 << 20;
    let mut input = String::with_capacity(TOTAL + (1 << 20));
    input.push_str("needle alpha\n");
    let filler_block = "haystack filler line with nothing to find here\n".repeat(1 << 14);
    while input.len() < TOTAL {
        input.push_str(&filler_block);
    }
    let input_len = input.len();
    let ctx = ExecContext::default();
    ctx.vfs.write("/big", input); // moves the buffer; no copy
    let env: HashMap<String, String> = HashMap::new();
    let script = parse_script("cat /big | grep needle | tr a-z A-Z | sed 1q", &env).unwrap();
    let mut planner = Planner::new(SynthesisConfig::default());
    let sample = "needle alpha\nhaystack filler line\n".repeat(40);
    let plan = planner.plan(&script, &ctx, &sample);

    let opts = DataflowOptions {
        workers: 1,
        chunk: ChunkSizing::Fixed(64 * 1024),
        queue: QueueCredit::Fixed(1),
        fuse_streamable: false,
        spill: None,
    };
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let result = run_dataflow(&script, &plan, &ctx, &opts);
        done_tx.send(()).ok();
        result
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("cancelled pipeline hung: upstream kept draining after the bound was met");
    let got = handle.join().expect("dataflow thread panicked").unwrap();
    assert_eq!(got.output, "NEEDLE ALPHA\n");

    let stages = &got.timings.statements[0];
    let sed = stages
        .iter()
        .find(|s| s.label.starts_with("sed"))
        .expect("sed node timing");
    assert!(
        sed.early_exit.is_some(),
        "sed must report its early exit: {sed:?}"
    );
    let grep = stages
        .iter()
        .find(|s| s.label.starts_with("grep"))
        .expect("grep node timing");
    assert!(
        grep.bytes_in < 32 << 20,
        "grep consumed {} of {input_len} bytes: cancellation did not stop the producer",
        grep.bytes_in
    );
}

/// `sort | head -n 5` behind a sort whose closing merge runs in parts,
/// under a spill budget, on the dataflow executor. The fold emits once
/// its last part is slotted, the first chunk of the first part satisfies
/// the bound, and the teardown must drop the part files nobody will read
/// — the pool has to come to rest (watchdog) with the serial answer and
/// an empty spill directory, at one, two and four workers.
#[test]
fn head_behind_a_sort_that_finishes_in_parts_cancels_cleanly() {
    let input = kq_workloads::inputs::numbered_lines(200_000, 23);
    assert!(input.len() > 6 << 20, "three parts need 6 MiB");
    let ctx = ExecContext::default();
    ctx.vfs.write("/in.txt", input.as_str());
    let script = parse_script("cat /in.txt | sort | head -n 5", &HashMap::new()).unwrap();
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&script, &ctx, &input[..8_000]);
    let serial = run_serial(&script, &ctx).unwrap();
    assert_eq!(serial.output.to_str().unwrap().lines().count(), 5);

    let dir = std::env::temp_dir().join(format!("kq-early-exit-parts-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (script, plan, ctx) = (
        std::sync::Arc::new(script),
        std::sync::Arc::new(plan),
        std::sync::Arc::new(ctx),
    );
    for workers in [1usize, 2, 4] {
        let opts = DataflowOptions {
            workers,
            chunk: ChunkSizing::Fixed(64 << 10),
            queue: QueueCredit::Fixed(2),
            fuse_streamable: true,
            spill: Some(kq_dsl::SpillPolicy {
                budget_bytes: 1 << 20,
                dir: Some(dir.clone()),
            }),
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let (script, plan, ctx) = (script.clone(), plan.clone(), ctx.clone());
        let handle = std::thread::spawn(move || {
            let result = run_dataflow(&script, &plan, &ctx, &opts);
            done_tx.send(()).ok();
            result
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the cancelled fold left the pool waiting");
        let got = handle.join().expect("dataflow thread panicked").unwrap();
        assert_eq!(got.output, serial.output, "w={workers}");
        let stages = &got.timings.statements[0];
        let sort = stages.iter().find(|s| s.label == "sort").unwrap();
        assert_eq!(
            sort.spill.unwrap().merge_parts,
            3,
            "the sort must have finished in parts (w={workers})"
        );
        let head = stages.iter().find(|s| s.label.starts_with("head")).unwrap();
        assert!(head.early_exit.is_some(), "head exits early (w={workers})");
        let left = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(left, 0, "spill files left behind at w={workers}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `head` behind a counting fold (`sort -n | uniq -c` as one node), on the
/// dataflow executor: directly — the fold is cancelled while it emits
/// some 400 KB of counted lines in 4 KiB chunks, of which the first
/// satisfies the bound — and behind the `sort -rn` that follows it in the
/// paper's word count. The pool has to come to rest (watchdog) with the
/// serial answer and an early exit on record, at one, two and four
/// workers.
#[test]
fn head_behind_a_counting_fold_cancels_cleanly() {
    let input = kq_workloads::inputs::numbered_lines(30_000, 37);
    let ctx = std::sync::Arc::new(ExecContext::default());
    ctx.vfs.write("/in.txt", input.as_str());
    let mut planner = Planner::new(SynthesisConfig::default());
    for (text, lines) in [
        (
            "cat /in.txt | cut -d ' ' -f 1 | sort -n | uniq -c | head -n 3",
            3,
        ),
        (
            "cat /in.txt | cut -d ' ' -f 1 | sort -n | uniq -c | sort -rn | head -n 5",
            5,
        ),
    ] {
        let script = parse_script(text, &HashMap::new()).unwrap();
        let plan = planner.plan(&script, &ctx, &input[..8_000]);
        assert!(
            plan.statements[0].stages[1].fold_pair.is_some(),
            "{text}: the pair must fuse"
        );
        let serial = run_serial(&script, &ctx).unwrap();
        assert_eq!(serial.output.to_str().unwrap().lines().count(), lines);
        let (script, plan) = (std::sync::Arc::new(script), std::sync::Arc::new(plan));
        for workers in [1usize, 2, 4] {
            let opts = DataflowOptions {
                workers,
                chunk: ChunkSizing::Fixed(4 << 10),
                queue: QueueCredit::Fixed(2),
                fuse_streamable: true,
                spill: None,
            };
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let (script, plan, ctx) = (script.clone(), plan.clone(), ctx.clone());
            let handle = std::thread::spawn(move || {
                let result = run_dataflow(&script, &plan, &ctx, &opts);
                done_tx.send(()).ok();
                result
            });
            done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the cancelled counting fold left the pool waiting");
            let got = handle.join().expect("dataflow thread panicked").unwrap();
            assert_eq!(got.output, serial.output, "{text} (w={workers})");
            let stages = &got.timings.statements[0];
            assert!(
                stages.iter().any(|s| s.label == "sort -n | uniq -c"),
                "{text}: no counting fold among {:?}",
                stages.iter().map(|s| &s.label).collect::<Vec<_>>()
            );
            let head = stages.iter().find(|s| s.label.starts_with("head")).unwrap();
            assert!(
                head.early_exit.is_some(),
                "{text}: head exits early (w={workers})"
            );
        }
    }
}

/// `head` behind the word splitter. `tr -cs A-Za-z '\n'` plans sequential
/// (its combiner is `rerun` and it does not shrink), and as a gather fold
/// it read its whole input before `head` saw a line; as a seam node it is
/// chunk-local, so `head -n 3` is satisfied by the first chunk and cancels
/// the rest. The unfused graph still gathers — and still agrees.
#[test]
fn head_behind_the_word_splitter_exits_early() {
    let input = kq_workloads::inputs::gutenberg_text(2 << 20, 11);
    let ctx = ExecContext::default();
    ctx.vfs.write("/in.txt", input.as_str());
    let script = parse_script(
        "cat /in.txt | tr -cs A-Za-z '\\n' | head -n 3",
        &HashMap::new(),
    )
    .unwrap();
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&script, &ctx, &input[..8_000]);
    assert!(plan.statements[0].stages[0].seam, "the splitter is a seam");
    let serial = run_serial(&script, &ctx).unwrap();
    assert_eq!(serial.output.to_str().unwrap().lines().count(), 3);
    for fuse in [true, false] {
        for workers in [1usize, 2, 4] {
            let opts = DataflowOptions {
                workers,
                chunk: ChunkSizing::Fixed(4 << 10),
                queue: QueueCredit::Fixed(2),
                fuse_streamable: fuse,
                spill: None,
            };
            let got = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
            assert_eq!(got.output, serial.output, "fuse={fuse}, w={workers}");
            let stages = &got.timings.statements[0];
            let (tr, head) = (&stages[0], &stages[1]);
            assert!(tr.label.starts_with("tr -cs") && head.label.starts_with("head"));
            if fuse {
                let early = head
                    .early_exit
                    .expect("head exits early behind a seam node");
                assert_eq!(early.stage, 1);
                assert!(
                    tr.bytes_in < input.len() / 4,
                    "tr read {} of {} bytes despite the cancellation (w={workers})",
                    tr.bytes_in,
                    input.len()
                );
            } else {
                assert_eq!(tr.bytes_in, input.len(), "the gather fold reads it all");
            }
        }
    }
}
