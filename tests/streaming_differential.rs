//! The serial-vs-streaming differential harness: both parallel executors
//! must produce byte-identical output on every script of the paper corpus.
//!
//! `run_serial` is the semantics oracle. `run_dataflow` (one
//! work-stealing pool for the whole script) and `run_streaming`
//! (bounded-queue pipelining, a thread set per statement) each
//! re-schedule the same work in a different way, and the combiner
//! equation is the only thing standing between a scheduling change and
//! silent corruption — so the whole 70-script corpus runs through all
//! three, the dataflow executor at a small and a larger-than-any-input
//! chunk size, and the streaming executor additionally sweeps the
//! degenerate 1-byte chunk (one chunk per line; the large one is one
//! chunk total, i.e. serial execution with queue plumbing).

use kq_coreutils::ExecContext;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::streaming::{run_streaming, StreamingOptions};
use kq_pipeline::{run_dataflow, ChunkSizing, DataflowOptions};
use kq_synth::SynthesisConfig;
use kq_workloads::{corpus, setup, Scale};
use std::collections::HashMap;

/// The dataflow arm of both sweeps: three workers, the default queue.
fn dataflow_options(chunk_bytes: usize) -> DataflowOptions {
    DataflowOptions {
        workers: 3,
        chunk: ChunkSizing::Fixed(chunk_bytes),
        ..DataflowOptions::default()
    }
}

#[test]
fn full_corpus_all_executors_agree() {
    let scale = Scale {
        input_bytes: 10_000,
    };
    // One planner across scripts: combiners cache per command line.
    let mut planner = Planner::new(SynthesisConfig::default());
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 0xD1FF);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(8_000)]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(sample.len());
        let plan = planner.plan(&parsed, &ctx, &sample[..cut]);

        let id = format!("{}/{}", script.suite.dir(), script.id);
        let serial = run_serial(&parsed, &ctx).unwrap_or_else(|e| panic!("{id} serial: {e}"));

        for chunk_bytes in [700usize, 1 << 24] {
            let dataflow = run_dataflow(&parsed, &plan, &ctx, &dataflow_options(chunk_bytes))
                .unwrap_or_else(|e| panic!("{id} dataflow (chunk={chunk_bytes}): {e}"));
            assert_eq!(
                dataflow.output, serial.output,
                "{id}: dataflow diverged at chunk_bytes={chunk_bytes}"
            );
        }

        // Streaming sweep: degenerate 1-byte chunks (one line each), a
        // mid-size target, and a target larger than any input.
        for chunk_bytes in [1usize, 700, 1 << 24] {
            let sopts = StreamingOptions {
                workers: 2,
                chunk_bytes,
                queue_depth: 2,
                fuse_streamable: true,
                spill: None,
            };
            let streaming = run_streaming(&parsed, &plan, &ctx, &sopts)
                .unwrap_or_else(|e| panic!("{id} streaming (chunk={chunk_bytes}): {e}"));
            assert_eq!(
                streaming.output, serial.output,
                "{id}: streaming diverged at chunk_bytes={chunk_bytes}"
            );
        }
    }
}

/// Mapped inputs through every executor: the backing store must be
/// invisible. A heap-ingested context is the oracle (serial semantics on
/// owned buffers — exactly the pre-mmap world); the mmap-ingested context
/// runs serial, dataflow and streaming, both parallel executors at chunk
/// sizes bracketing the file size. Cases cover the documented edges: the empty file (mmap
/// refuses zero length — heap fallback), a file without a trailing
/// newline (unterminated final chunk), and a file much larger than the
/// chunk size (many chunks slicing one mapped region).
#[cfg(unix)]
#[test]
fn mmap_backed_inputs_match_heap_ingest_on_every_executor() {
    use kq_io::{IngestOptions, MmapMode};
    let dir = std::env::temp_dir().join(format!("kq-mmap-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let chunk_bytes = 700usize;
    let big: String = (0..2000)
        .map(|i| format!("word{} tail{}\n", i % 13, i % 7))
        .collect();
    assert!(
        big.len() > 8 * chunk_bytes,
        "big case must dwarf the chunks"
    );
    let cases: Vec<(&str, String)> = vec![
        ("empty", String::new()),
        (
            "unterminated",
            "alpha one\nbeta two\ngamma three".to_owned(),
        ),
        ("big", big),
    ];
    let scripts = [
        "cat IN | grep a | tr a-z A-Z | cut -d ' ' -f 1", // fully streamable
        "cat IN | cut -d ' ' -f 1 | sort | uniq -c",      // barrier combiners
    ];
    let mapped_policy = IngestOptions::with_mode(MmapMode::On);
    for (name, content) in &cases {
        let path = dir.join(name);
        std::fs::write(&path, content).unwrap();
        let path_str = path.display().to_string();

        let heap_ctx = ExecContext::default();
        heap_ctx.vfs.write(path_str.clone(), content.as_str());
        let mmap_ctx = ExecContext::default();
        let ingested = kq_io::read_path_text(&path, &mapped_policy).unwrap();
        assert_eq!(
            ingested.is_mmap_backed(),
            !content.is_empty(),
            "{name}: non-empty files must actually map"
        );
        mmap_ctx.vfs.write(path_str.clone(), ingested);

        for template in scripts {
            let text = template.replace("IN", &path_str);
            let parsed = parse_script(&text, &HashMap::new()).unwrap();
            let sample = "word1 tail1\nword2 tail2\nword3 tail3\n".repeat(20);
            let mut planner = Planner::new(SynthesisConfig::default());
            let plan = planner.plan(&parsed, &heap_ctx, &sample);
            let oracle = run_serial(&parsed, &heap_ctx)
                .unwrap_or_else(|e| panic!("{name} heap serial: {e}"));

            let serial_m = run_serial(&parsed, &mmap_ctx)
                .unwrap_or_else(|e| panic!("{name} mmap serial: {e}"));
            assert_eq!(serial_m.output, oracle.output, "{name}: serial diverged");

            // Chunk sizes bracketing the file: many chunks per map, and
            // one chunk swallowing the whole file.
            for cb in [chunk_bytes, 1 << 24] {
                let dataflow = run_dataflow(&parsed, &plan, &mmap_ctx, &dataflow_options(cb))
                    .unwrap_or_else(|e| panic!("{name} mmap dataflow (chunk={cb}): {e}"));
                assert_eq!(
                    dataflow.output, oracle.output,
                    "{name}: dataflow diverged at chunk_bytes={cb}"
                );
                let sopts = StreamingOptions {
                    workers: 2,
                    chunk_bytes: cb,
                    queue_depth: 2,
                    fuse_streamable: true,
                    spill: None,
                };
                let streaming = run_streaming(&parsed, &plan, &mmap_ctx, &sopts)
                    .unwrap_or_else(|e| panic!("{name} mmap streaming (chunk={cb}): {e}"));
                assert_eq!(
                    streaming.output, oracle.output,
                    "{name}: streaming diverged at chunk_bytes={cb}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_options_sweep_on_boundary_sensitive_scripts() {
    // Deeper option sweep on pipelines whose combiners are sensitive to
    // where the stream splits (uniq -c stitching, sort merging, head
    // rerun), exercising single-worker pools, depth-1 queues (fully
    // lock-step), and unfused per-stage channels.
    let scale = Scale {
        input_bytes: 20_000,
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    let picks = ["wf.sh", "2.sh", "4_3.sh"];
    let selected: Vec<_> = corpus()
        .iter()
        .filter(|s| picks.contains(&s.id) || (s.id == "4.sh" && s.suite.dir() == "analytics-mts"))
        .collect();
    assert!(
        selected.len() >= 4,
        "pick list drifted from the corpus: {selected:?}"
    );
    for script in selected {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 7);
        let parsed = parse_script(script.text, &env).unwrap();
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(8_000)]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(sample.len());
        let plan = planner.plan(&parsed, &ctx, &sample[..cut]);
        let serial = run_serial(&parsed, &ctx).unwrap();
        for workers in [1usize, 4] {
            for queue_depth in [1usize, 8] {
                for fuse in [true, false] {
                    let opts = StreamingOptions {
                        workers,
                        chunk_bytes: 512,
                        queue_depth,
                        fuse_streamable: fuse,
                        spill: None,
                    };
                    let got = run_streaming(&parsed, &plan, &ctx, &opts).unwrap();
                    assert_eq!(
                        got.output,
                        serial.output,
                        "{}/{} diverged (w={workers}, depth={queue_depth}, fuse={fuse})",
                        script.suite.dir(),
                        script.id
                    );
                }
            }
        }
    }
}
