//! Multi-statement differential suite: scripts with three or more
//! statements — including chains of `> file` redirects that later
//! statements read back — must produce identical results under every
//! executor.
//!
//! This is the shape the dataflow scheduler exists for: statements linked
//! by redirect targets must serialize (RAW/WAW/WAR over the VFS), while
//! independent statements overlap on the shared pool. Equality covers
//! both the concatenated stdout *and* the final contents of every
//! redirect target, at chunk sizes bracketing the inputs and w ∈ {1, 2, 4}.
//! The dataflow executor runs every script twice — with its graph rewrites
//! (fused chunk-local runs, `sort | uniq [-c]` as one counting fold) and
//! without them, the graph `--no-opt` builds.

use kq_coreutils::ExecContext;
use kq_pipeline::chunked::{run_chunked, ChunkedOptions};
use kq_pipeline::exec::{run_parallel, run_serial};
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_pipeline::streaming::{run_streaming, StreamingOptions};
use kq_synth::SynthesisConfig;
use std::collections::HashMap;

/// (name, script text). Inputs live at `/in.txt`; redirect targets under
/// `/out/...` are part of the differential comparison.
fn scripts() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "redirect-chain",
            // Three statements, each reading the previous one's target:
            // the classic word-frequency split into checkpointed steps.
            "cat /in.txt | tr -cs 'A-Za-z' '\\n' | sort > /out/words\n\
             cat /out/words | uniq -c | sort -rn > /out/freq\n\
             cat /out/freq | head -n 5",
        ),
        (
            "fan-in",
            // Two independent statements whose targets a third gathers:
            // the middle pair may overlap; the join must wait for both.
            "cat /in.txt | grep apple > /out/hits\n\
             cat /in.txt | grep -v apple > /out/misses\n\
             cat /out/hits /out/misses | sort | uniq -c | head -n 8",
        ),
        (
            "overwrite",
            // /out/t is written, read, then *overwritten* (WAR + WAW) and
            // read again: executor ordering bugs scramble the final read.
            "cat /in.txt | head -n 40 > /out/t\n\
             cat /out/t | tr a-z A-Z > /out/u\n\
             cat /in.txt | tail -n 20 > /out/t\n\
             cat /out/t /out/u | wc -l",
        ),
        (
            "counting-chain",
            // `sort | uniq -c` and `sort -r | uniq` fold as one node each,
            // into redirect targets a later statement reads back; a pair
            // split by a redirect (`sort > t`, then `uniq -c`) stays two.
            "cat /in.txt | cut -d ' ' -f 1 | sort | uniq -c > /out/counts\n\
             cat /in.txt | cut -d ' ' -f 2 | sort -r | uniq > /out/seconds\n\
             cat /out/counts /out/seconds | sort -rn | head -n 6\n\
             cat /in.txt | cut -d ' ' -f 3 | sort > /out/thirds\n\
             cat /out/thirds | uniq -c | sort -rn | head -n 3",
        ),
        (
            "independent",
            // Three statements with no dependencies at all: pure overlap;
            // stdout order must still follow statement order.
            "cat /in.txt | cut -d ' ' -f 1 | sort -u\n\
             cat /in.txt | grep bird | wc -l\n\
             cat /in.txt | tr a-z A-Z | head -n 3",
        ),
    ]
}

fn make_input(lines: usize) -> String {
    let words = ["apple", "dog", "cat", "apple", "bird", "fox", "emu"];
    (0..lines)
        .map(|i| {
            format!(
                "{} {} field{}\n",
                words[i % words.len()],
                words[(i * 3 + 1) % words.len()],
                i % 17
            )
        })
        .collect()
}

/// Fresh context per run: redirect targets are outputs under test, so no
/// state may leak between executors.
fn fresh_ctx(input: &str) -> ExecContext {
    let ctx = ExecContext::default();
    ctx.vfs.write("/in.txt", input);
    ctx
}

/// The redirect targets a script writes, in statement order.
fn targets(parsed: &kq_pipeline::Script) -> Vec<String> {
    parsed
        .statements
        .iter()
        .filter_map(|st| st.output.clone())
        .collect()
}

#[test]
fn multi_statement_scripts_agree_across_all_executors() {
    let input = make_input(600);
    let env: HashMap<String, String> = HashMap::new();
    let mut planner = Planner::new(SynthesisConfig::default());
    for (name, text) in scripts() {
        let parsed = parse_script(text, &env).unwrap_or_else(|e| panic!("{name} parse: {e}"));
        assert!(
            parsed.statements.len() >= 3,
            "{name}: suite promises >= 3 statements"
        );
        let outs = targets(&parsed);

        let sample = make_input(80);
        let plan = planner.plan(&parsed, &fresh_ctx(&input), &sample);
        if name == "counting-chain" {
            let pairs: Vec<usize> = plan
                .statements
                .iter()
                .map(|p| p.stages.iter().filter(|s| s.fold_pair.is_some()).count())
                .collect();
            assert_eq!(
                pairs,
                [1, 1, 0, 0, 0],
                "{name}: which statements fuse a pair"
            );
        }

        // Oracle: serial on a fresh context, stdout + every target.
        let serial_ctx = fresh_ctx(&input);
        let serial =
            run_serial(&parsed, &serial_ctx).unwrap_or_else(|e| panic!("{name} serial: {e}"));
        let serial_targets: Vec<Option<String>> = outs
            .iter()
            .map(|t| serial_ctx.vfs.read(t).map(|s| s.to_owned()))
            .collect();

        let check = |exec_name: &str, ctx: &ExecContext, output: kq_coreutils::Bytes| {
            assert_eq!(
                output, serial.output,
                "{name}: {exec_name} stdout diverged from serial"
            );
            for (t, expect) in outs.iter().zip(&serial_targets) {
                assert_eq!(
                    ctx.vfs.read(t).map(|s| s.to_owned()).as_deref(),
                    expect.as_deref(),
                    "{name}: {exec_name} left wrong bytes in {t}"
                );
            }
        };

        for workers in [1usize, 2, 4] {
            let ctx = fresh_ctx(&input);
            let got = run_parallel(&parsed, &plan, &ctx, workers, true)
                .unwrap_or_else(|e| panic!("{name} parallel (w={workers}): {e}"));
            check(&format!("parallel w={workers}"), &ctx, got.output);

            for chunk_bytes in [1usize, 700, 16 << 20] {
                let ctx = fresh_ctx(&input);
                let copts = ChunkedOptions {
                    workers,
                    chunk_bytes,
                    honor_elimination: true,
                };
                let got = run_chunked(&parsed, &plan, &ctx, &copts).unwrap_or_else(|e| {
                    panic!("{name} chunked (w={workers}, c={chunk_bytes}): {e}")
                });
                check(
                    &format!("chunked w={workers} c={chunk_bytes}"),
                    &ctx,
                    got.output,
                );

                let ctx = fresh_ctx(&input);
                let sopts = StreamingOptions {
                    workers,
                    chunk_bytes,
                    queue_depth: 2,
                    fuse_streamable: true,
                    spill: None,
                };
                let got = run_streaming(&parsed, &plan, &ctx, &sopts).unwrap_or_else(|e| {
                    panic!("{name} streaming (w={workers}, c={chunk_bytes}): {e}")
                });
                check(
                    &format!("streaming w={workers} c={chunk_bytes}"),
                    &ctx,
                    got.output,
                );

                for fuse in [true, false] {
                    let ctx = fresh_ctx(&input);
                    let dopts = DataflowOptions {
                        workers,
                        chunk: ChunkSizing::Fixed(chunk_bytes),
                        queue: QueueCredit::Fixed(2),
                        fuse_streamable: fuse,
                        spill: None,
                    };
                    let at = format!("dataflow w={workers} c={chunk_bytes} fuse={fuse}");
                    let got = run_dataflow(&parsed, &plan, &ctx, &dopts)
                        .unwrap_or_else(|e| panic!("{name} {at}: {e}"));
                    check(&at, &ctx, got.output);
                }
            }
        }
    }
}

/// The dataflow scheduler must not reorder dependent statements even when
/// the dependency is only visible through an argv word (a file operand
/// rather than the `cat` input list).
#[test]
fn argv_file_operands_count_as_reads_for_statement_ordering() {
    let env: HashMap<String, String> = HashMap::new();
    let text = "cat /in.txt | cut -d ' ' -f 1 | sort -u > /out/left\n\
                cat /in.txt | cut -d ' ' -f 2 | sort -u > /out/right\n\
                comm -12 /out/left /out/right";
    let parsed = parse_script(text, &env).unwrap();
    let input = make_input(300);
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&parsed, &fresh_ctx(&input), &make_input(60));

    let serial_ctx = fresh_ctx(&input);
    let serial = run_serial(&parsed, &serial_ctx).unwrap();
    assert!(!serial.output.is_empty(), "comm should find shared words");

    for workers in [1usize, 4] {
        let ctx = fresh_ctx(&input);
        let opts = DataflowOptions {
            workers,
            chunk: ChunkSizing::Fixed(256),
            queue: QueueCredit::Fixed(2),
            fuse_streamable: true,
            spill: None,
        };
        let got = run_dataflow(&parsed, &plan, &ctx, &opts).unwrap();
        assert_eq!(
            got.output, serial.output,
            "comm ran before its inputs existed?"
        );
    }
}
