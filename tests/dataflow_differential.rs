//! The serial-vs-dataflow differential harness: the shared work-stealing
//! scheduler must produce byte-identical output on every script of the
//! paper corpus, at every chunk size and worker count.
//!
//! `run_serial` is the semantics oracle. `run_dataflow` compiles each
//! statement to a dataflow graph and executes the whole script on one
//! fixed pool, so every scheduler behaviour — reorder buffers, credit
//! gating, fusion, fold finalization, early-exit teardown — is in play on
//! every script. The sweep brackets the chunking extremes (1 byte → one
//! chunk per line; 16 MiB → one chunk total, i.e. serial execution with
//! scheduler plumbing) at w ∈ {1, 4}, checking stdout and every redirect
//! target; the default knobs get the same check. A watchdog test pins the
//! cancellation property: a bounded consumer stops a 256 MiB producer
//! after O(first match) bytes, including chunks already queued. Mapped
//! inputs must run like heap ones, and boundary-sensitive scripts hold
//! at depth-1 queues, one worker and unfused graphs.
//!
//! The counting rewrite (`sort | uniq [-c]` as one fold) has its own
//! sweeps: every corpus script the planner fuses a pair in, and generated
//! multi-MiB inputs of low and high cardinality, run fused, unfused
//! (`fuse_streamable: false`, what `--no-opt` builds) and serially —
//! stdout and every redirect target, at one, two and four workers — and
//! inputs whose chunks the counting table takes and gives up on in turn,
//! so that counted runs and raw chunks meet in one fold.
//!
//! So has the seam rewrite (a line-splitting `tr -s` run chunk by chunk):
//! the stage at the head of a statement, behind a `grep` that empties
//! whole chunks, behind a fold, twice in a row, and in front of `head`, on
//! inputs that start with separators and that end without a newline —
//! fused, unfused and serially, at chunks of 1 B, 1 KiB and 64 KiB.

use kq_coreutils::ExecContext;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use kq_workloads::{corpus, setup, Scale};
use std::collections::HashMap;

/// Every corpus script, at 1 and 4 workers and 1-byte, 700-byte and
/// 16 MiB chunks, must be byte-identical to serial on stdout AND on every
/// `> file` redirect target. Each configuration runs in a fresh context
/// (same deterministic setup seed) so a redirect target cannot carry one
/// run's bytes into the next.
#[test]
fn full_corpus_dataflow_matches_serial_across_chunkings_and_workers() {
    let scale = Scale {
        input_bytes: 10_000,
    };
    // One planner across scripts: combiners cache per command line.
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut count = 0usize;
    let mut redirects_checked = 0usize;
    for script in corpus() {
        let serial_ctx = ExecContext::default();
        let env = setup(script, &serial_ctx, &scale, 0xDF01);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        let sample = serial_ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(8_000)]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(sample.len());
        let plan = planner.plan(&parsed, &serial_ctx, &sample[..cut]);

        let id = format!("{}/{}", script.suite.dir(), script.id);
        let serial =
            run_serial(&parsed, &serial_ctx).unwrap_or_else(|e| panic!("{id} serial: {e}"));
        let serial_files: Vec<(String, String)> = parsed
            .statements
            .iter()
            .filter_map(|s| s.output.clone())
            .map(|t| {
                let bytes = serial_ctx
                    .vfs
                    .read(&t)
                    .unwrap_or_else(|| panic!("{id}: serial run left no redirect file {t}"));
                (t, bytes)
            })
            .collect();
        for workers in [1usize, 4] {
            for chunk_bytes in [1usize, 700, 16 << 20] {
                let ctx = ExecContext::default();
                setup(script, &ctx, &scale, 0xDF01);
                let opts = DataflowOptions {
                    workers,
                    chunk: ChunkSizing::Fixed(chunk_bytes),
                    queue: QueueCredit::Fixed(2),
                    fuse_streamable: true,
                    spill: None,
                };
                let got = run_dataflow(&parsed, &plan, &ctx, &opts).unwrap_or_else(|e| {
                    panic!("{id} dataflow (w={workers}, chunk={chunk_bytes}): {e}")
                });
                assert_eq!(
                    got.output, serial.output,
                    "{id}: dataflow diverged (w={workers}, chunk={chunk_bytes})"
                );
                for (target, want) in &serial_files {
                    let have = ctx.vfs.read(target).unwrap_or_else(|| {
                        panic!("{id}: dataflow run left no redirect file {target}")
                    });
                    assert_eq!(
                        &have, want,
                        "{id}: dataflow diverged at redirect {target} \
                         (w={workers}, chunk={chunk_bytes})"
                    );
                    redirects_checked += 1;
                }
            }
        }
        count += 1;
    }
    assert!(count >= 70, "corpus shrank to {count} scripts");
    assert!(
        redirects_checked >= 10,
        "corpus drifted: only {redirects_checked} redirect targets checked"
    );
}

/// The knobs a run gets when none is given — `DataflowOptions::default()`,
/// the CLI's `--chunk-kb 64` and `--queue-depth 4` — must be byte-identical
/// to serial on every corpus script, on stdout AND on every redirect
/// target, at one worker and at four. Each run gets a fresh context.
#[test]
fn full_corpus_adaptive_knobs_match_serial_including_redirects() {
    let scale = Scale {
        input_bytes: 10_000,
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut count = 0usize;
    let mut redirects_checked = 0usize;
    for script in corpus() {
        let serial_ctx = ExecContext::default();
        let env = setup(script, &serial_ctx, &scale, 0xADA9);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        let sample = serial_ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(8_000)]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(sample.len());
        let plan = planner.plan(&parsed, &serial_ctx, &sample[..cut]);

        let id = format!("{}/{}", script.suite.dir(), script.id);
        let serial =
            run_serial(&parsed, &serial_ctx).unwrap_or_else(|e| panic!("{id} serial: {e}"));
        let serial_files: Vec<(String, String)> = parsed
            .statements
            .iter()
            .filter_map(|s| s.output.clone())
            .map(|t| {
                let bytes = serial_ctx
                    .vfs
                    .read(&t)
                    .unwrap_or_else(|| panic!("{id}: serial run left no redirect file {t}"));
                (t, bytes)
            })
            .collect();

        for workers in [1usize, 4] {
            let ctx = ExecContext::default();
            setup(script, &ctx, &scale, 0xADA9);
            let opts = DataflowOptions {
                workers,
                ..DataflowOptions::default()
            };
            let got = run_dataflow(&parsed, &plan, &ctx, &opts)
                .unwrap_or_else(|e| panic!("{id} default-knob dataflow (w={workers}): {e}"));
            assert_eq!(
                got.output, serial.output,
                "{id}: default-knob dataflow diverged on stdout (w={workers})"
            );
            for (target, want) in &serial_files {
                let have = ctx.vfs.read(target).unwrap_or_else(|| {
                    panic!("{id}: default-knob run left no redirect file {target}")
                });
                assert_eq!(
                    &have, want,
                    "{id}: default-knob dataflow diverged at redirect {target} (w={workers})"
                );
                redirects_checked += 1;
            }
        }
        count += 1;
    }
    assert!(count >= 70, "corpus shrank to {count} scripts");
    assert!(
        redirects_checked >= 10,
        "corpus drifted: only {redirects_checked} redirect targets checked"
    );
}

/// Rewrites every file of the context as Latin-1 text would look to a
/// byte-clean reader: about one ASCII letter in sixteen becomes `0xE9`
/// (`é`), `0xB0` (`°`) or `0xA0` (no-break space), seeded.
fn latin1(ctx: &ExecContext, seed: u64) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    for path in ctx.vfs.paths() {
        let mut bytes = ctx.vfs.read_bytes(&path).unwrap().as_bytes().to_vec();
        for b in bytes.iter_mut().filter(|b| b.is_ascii_alphabetic()) {
            if rng.gen_range(0..16) == 0 {
                *b = [0xE9, 0xB0, 0xA0][rng.gen_range(0..3)];
            }
        }
        let file_type = ctx.vfs.file_type(&path).unwrap();
        ctx.vfs.write_typed(path, bytes, file_type);
    }
}

/// The corpus on Latin-1 inputs: every script's dataflow run at one and
/// four workers must give serial's bytes on stdout and on every redirect
/// target — or fail with serial's error. Byte-clean commands take the
/// foreign bytes; the ones that read characters refuse them, chunk or
/// whole.
#[test]
fn full_corpus_latin1_inputs_match_serial_bytes_or_error() {
    let scale = Scale {
        input_bytes: 10_000,
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    let (mut count, mut completed) = (0usize, 0usize);
    for script in corpus() {
        let id = format!("{}/{}", script.suite.dir(), script.id);
        let fresh = || {
            let ctx = ExecContext::default();
            let env = setup(script, &ctx, &scale, 0x1A71);
            latin1(&ctx, 0xE9);
            (ctx, env)
        };
        let (serial_ctx, env) = fresh();
        let parsed = parse_script(script.text, &env).unwrap_or_else(|e| panic!("{id} parse: {e}"));
        let sample = kq_pipeline::plan::planning_sample(&parsed, &serial_ctx);
        let plan = planner.plan(&parsed, &serial_ctx, &sample);
        let targets: Vec<String> = parsed
            .statements
            .iter()
            .filter_map(|s| s.output.clone())
            .collect();
        let serial = run_serial(&parsed, &serial_ctx);
        for workers in [1usize, 4] {
            let (ctx, _) = fresh();
            let opts = DataflowOptions {
                workers,
                ..DataflowOptions::default()
            };
            match (&serial, run_dataflow(&parsed, &plan, &ctx, &opts)) {
                (Ok(serial), Ok(got)) => {
                    assert_eq!(got.output, serial.output, "{id}: stdout (w={workers})");
                    for target in &targets {
                        assert_eq!(
                            ctx.vfs.read_bytes(target),
                            serial_ctx.vfs.read_bytes(target),
                            "{id}: redirect {target} (w={workers})"
                        );
                    }
                }
                (Err(serial), Err(got)) => {
                    assert_eq!(got.to_string(), serial.to_string(), "{id} (w={workers})")
                }
                (serial, got) => panic!(
                    "{id} (w={workers}): serial {:?}, dataflow {:?}",
                    serial.as_ref().err(),
                    got.err()
                ),
            }
        }
        count += 1;
        completed += usize::from(serial.is_ok());
    }
    eprintln!("{completed} of {count} corpus scripts complete on Latin-1 inputs");
    assert!(count >= 70, "corpus shrank to {count} scripts");
}

/// One foreign byte past the first 64 KiB chunk, behind stages that stop
/// early. A prefix bound must not let the dataflow skip bytes the serial
/// run reads: `sed Nq` and `head` behind byte-clean stages keep their
/// early exit and print the first lines, while a decoding stage before
/// `head` drops the bound and fails as it does serially — unless a fold
/// stands between them, which reads (and fails on) all its input before
/// the bound can fire. On clean bytes that bound exits early and prints
/// what the serial run prints. At every worker count and chunk size.
#[test]
fn foreign_bytes_past_the_first_chunk_fail_alike_behind_an_early_exit() {
    let mut text = "alpha river caf\u{e9}\nbeta abc stream\n"
        .repeat(4096)
        .into_bytes();
    text.extend_from_slice(b"gamma \xe9t\xe9\n");
    text.extend_from_slice(&b"delta\n".repeat(100));
    assert!(text.len() > 2 * 64 * 1024);
    // (script, bounded: the last stage keeps its prefix bound, completes:
    // byte-clean up to and including the bound)
    let cases = [
        ("cat /in.txt | sed 2q", true, true),
        ("cat /in.txt | head -n 3", true, true),
        ("cat /in.txt | tr a-z A-Z | head -n 3", true, true),
        ("cat /in.txt | grep abc | head -n 2", true, true),
        ("cat /in.txt | cut -d ' ' -f 2 | sed 1q", true, true),
        ("cat /in.txt | sed 1d | head -n 2", true, true),
        (
            "cat /in.txt | sed s/river/stream/ | head -n 3",
            false,
            false,
        ),
        ("cat /in.txt | sed s/river/stream/ | sed 2q", false, false),
        ("cat /in.txt | cut -c 1-3 | head -n 3", false, false),
        ("cat /in.txt | grep 'a.c' | head -n 1", false, false),
        ("cat /in.txt | awk '{print $1}' | sed 2q", false, false),
        (
            "cat /in.txt | tr -d a | sed s/x/y/ | head -n 1",
            false,
            false,
        ),
        (
            "cat /in.txt | sed s/river/stream/ | sort | head -n 1",
            true,
            false,
        ),
        // The same bound behind the same barrier, on clean bytes.
        (
            "cat /clean.txt | sed s/river/stream/ | sort | head -n 1",
            true,
            true,
        ),
    ];
    let ctx = ExecContext::default();
    let clean = "alpha river caf\u{e9}\nbeta abc stream\n".repeat(4096);
    ctx.vfs.write("/clean.txt", clean);
    ctx.vfs.write("/in.txt", text);
    let mut planner = Planner::new(SynthesisConfig::default());
    for (text, bounded, completes) in cases {
        let parsed = parse_script(text, &HashMap::new()).unwrap();
        let sample = kq_pipeline::plan::planning_sample(&parsed, &ctx);
        let plan = planner.plan(&parsed, &ctx, &sample);
        let bound = plan.statements[0].stages.last().unwrap().line_bound;
        assert_eq!(bound.is_some(), bounded, "{text}: bound {bound:?}");
        let serial = run_serial(&parsed, &ctx);
        assert_eq!(
            serial.is_ok(),
            completes,
            "{text}: serial {:?}",
            serial.as_ref().err()
        );
        for workers in [1usize, 4] {
            for chunk_bytes in [700usize, 64 * 1024] {
                let opts = fixed_opts(workers, chunk_bytes, true);
                let got = run_dataflow(&parsed, &plan, &ctx, &opts);
                let at = format!("{text} (w={workers}, chunk={chunk_bytes})");
                match (&serial, got) {
                    (Ok(serial), Ok(got)) => {
                        assert_eq!(got.output, serial.output, "{at}");
                        // A bounded last stage that meets its bound exits
                        // early, whatever stands before it.
                        let last = got.timings.statements[0].last().unwrap();
                        assert_eq!(last.early_exit.is_some(), bounded, "{at}");
                    }
                    (Err(serial), Err(got)) => {
                        assert_eq!(got.to_string(), serial.to_string(), "{at}")
                    }
                    (serial, got) => panic!(
                        "{at}: serial {:?}, dataflow {:?}",
                        serial.as_ref().err(),
                        got.err()
                    ),
                }
            }
        }
    }
}

/// A fold that no line reaches still owes the command's output on the
/// empty stream: `grep zzz | wc -l` prints `0`, not nothing. Covers the
/// counting folds (`wc -l`, `grep -c`), the merge fold (`sort`), the
/// stitch fold (`uniq -c`) and a fold behind an empty fold
/// (`sort -u | wc -l`), with the no-match filter first or in the middle,
/// and an input file that is empty to begin with.
#[test]
fn folds_that_receive_no_line_match_serial() {
    let mut input = String::new();
    for i in 0..3000 {
        input.push_str(&format!("word{} payload {}\n", i % 17, i));
    }
    let scripts = [
        "cat /in.txt | grep zzz | wc -l",
        "cat /in.txt | grep zzz | grep -c word",
        "cat /in.txt | grep zzz | sort",
        "cat /in.txt | grep zzz | sort | uniq -c",
        "cat /in.txt | grep zzz | sort -u | wc -l",
        "cat /in.txt | cut -d ' ' -f 1 | grep zzz | sort | uniq -c | sort -rn",
        "cat /in.txt | sort | grep zzz | uniq -c | wc -l",
        "cat /empty.txt | wc -l",
        "cat /empty.txt | sort | uniq -c | wc -l",
    ];
    let mut planner = Planner::new(SynthesisConfig::default());
    let env = HashMap::new();
    for text in scripts {
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", input.as_str());
        ctx.vfs.write("/empty.txt", "");
        let parsed = parse_script(text, &env).unwrap();
        let plan = planner.plan(&parsed, &ctx, &input[..input.len().min(8_000)]);
        let serial = run_serial(&parsed, &ctx).unwrap();
        for workers in [1usize, 4] {
            for chunk_bytes in [1usize, 700, 16 << 20] {
                let opts = DataflowOptions {
                    workers,
                    chunk: ChunkSizing::Fixed(chunk_bytes),
                    queue: QueueCredit::Fixed(2),
                    fuse_streamable: true,
                    spill: None,
                };
                let got = run_dataflow(&parsed, &plan, &ctx, &opts).unwrap();
                assert_eq!(
                    got.output, serial.output,
                    "{text}: dataflow diverged (w={workers}, chunk={chunk_bytes})"
                );
            }
        }
    }
}

/// A `cat` that reads its input and a file is no per-line map: every piece
/// of the input would get the file's lines after it. Planned with the
/// lattice on and run without the oracle — what `--no-verify` does — the
/// dataflow run prints what the serial run prints, whichever side of the
/// input the file is on, and with no file the stage is still a map.
#[test]
fn cat_of_the_input_and_a_file_matches_serial() {
    let input: String = (0..2000).map(|i| format!("line {i}\n")).collect();
    let mut planner = Planner::new(SynthesisConfig::default());
    let env = HashMap::new();
    for text in [
        "cat /in.txt | cat - /tail.txt | grep -c TAIL",
        "cat /in.txt | cat /tail.txt - | grep -c TAIL",
        "cat /in.txt | cat - /tail.txt | wc -l",
        "cat /in.txt | cat - | wc -l",
    ] {
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", input.as_str());
        ctx.vfs.write("/tail.txt", "TAIL\n");
        let parsed = parse_script(text, &env).unwrap();
        let plan = planner.plan(&parsed, &ctx, &input[..input.len().min(8_000)]);
        let serial = run_serial(&parsed, &ctx).unwrap();
        for workers in [1usize, 2] {
            let got = run_dataflow(&parsed, &plan, &ctx, &fixed_opts(workers, 700, true)).unwrap();
            assert_eq!(got.output, serial.output, "{text} (w={workers})");
        }
    }
}

/// `awk`'s `NR` numbers the records of the whole stream: `END {print NR}`
/// prints the record count, and `{print NR}` numbers every line — serially
/// as `awk` does, and in parallel as serially.
#[test]
fn awk_record_numbers_match_serial() {
    let mut input = String::new();
    let mut numbers = String::new();
    for i in 0..3000 {
        input.push_str(&format!("word{} payload {}\n", i % 17, i));
        numbers.push_str(&format!("{}\n", i + 1));
    }
    let mut planner = Planner::new(SynthesisConfig::default());
    for (text, expect) in [
        ("cat /in.txt | awk 'END {print NR}'", "3000\n"),
        ("cat /in.txt | awk '{print NR}'", numbers.as_str()),
    ] {
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", input.as_str());
        let parsed = parse_script(text, &HashMap::new()).unwrap();
        let plan = planner.plan(&parsed, &ctx, &input[..8_000]);
        let serial = run_serial(&parsed, &ctx).unwrap();
        assert_eq!(serial.output, expect, "{text}: serial output");
        for workers in [1usize, 4] {
            let got = run_dataflow(&parsed, &plan, &ctx, &fixed_opts(workers, 700, true)).unwrap();
            assert_eq!(
                got.output, serial.output,
                "{text}: dataflow diverged (w={workers})"
            );
        }
    }
}

/// Folds large enough that their closing merge runs in parts (one per
/// 2 MiB folded), in memory: a `sort` that folds 6.6 MiB in three parts
/// into a redirect target (gathered once for the VFS), a `sort -nu` over
/// that file whose parts must keep, per number, the line that came first,
/// a `sort -r` to stdout (three segments), and a fold downstream of a
/// partitioned one — its chunks are cut from the parts, never across two.
/// One, two and four workers; thousands of pieces, a few dozen, and one.
#[test]
fn closing_merges_in_parts_match_serial_including_redirects() {
    let input = kq_workloads::inputs::numbered_lines(200_000, 17);
    let text = "cat /in.txt | sort > /out/sorted\n\
                cat /out/sorted | sort -nu\n\
                cat /in.txt | sort -r\n\
                cat /in.txt | sort | cut -d ' ' -f 3 | uniq -c | sort -rn | head -n 5";
    let parsed = parse_script(text, &HashMap::new()).unwrap();
    let serial_ctx = ExecContext::default();
    serial_ctx.vfs.write("/in.txt", input.as_str());
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&parsed, &serial_ctx, &input[..input.len().min(8_000)]);
    let serial = run_serial(&parsed, &serial_ctx).unwrap();
    let sorted = serial_ctx.vfs.read_bytes("/out/sorted").unwrap();
    assert!(sorted.len() > 6 << 20, "the sort must fold three parts");
    for workers in [1usize, 2, 4] {
        for chunk_bytes in [700usize, 64 << 10, 16 << 20] {
            let ctx = ExecContext::default();
            ctx.vfs.write("/in.txt", input.as_str());
            let opts = DataflowOptions {
                workers,
                chunk: ChunkSizing::Fixed(chunk_bytes),
                queue: QueueCredit::Fixed(4),
                fuse_streamable: true,
                spill: None,
            };
            let got = run_dataflow(&parsed, &plan, &ctx, &opts).unwrap();
            let at = format!("w={workers}, chunk={chunk_bytes}");
            assert!(got.output == serial.output, "stdout diverged ({at})");
            assert!(
                ctx.vfs.read_bytes("/out/sorted").unwrap() == sorted,
                "/out/sorted diverged ({at})"
            );
        }
    }
}

/// The sweep of the counting-rewrite suites: one, two and four workers at
/// chunks of 700 B, 64 KiB and 16 MiB.
fn sweep() -> impl Iterator<Item = (usize, usize)> {
    [1usize, 2, 4]
        .into_iter()
        .flat_map(|w| [700usize, 64 << 10, 16 << 20].map(|c| (w, c)))
}

fn fixed_opts(workers: usize, chunk_bytes: usize, fuse: bool) -> DataflowOptions {
    DataflowOptions {
        workers,
        chunk: ChunkSizing::Fixed(chunk_bytes),
        queue: QueueCredit::Fixed(2),
        fuse_streamable: fuse,
        spill: None,
    }
}

/// How many fold nodes of a plan's graphs span more than one stage — a
/// fused pair, or a counting pair fused with the numeric sort after it —
/// with or without the graph rewrites.
fn fused_folds(plan: &kq_pipeline::PlannedScript, fuse: bool) -> usize {
    plan.statements
        .iter()
        .flat_map(|p| kq_pipeline::DataflowGraph::build(p, fuse).nodes)
        .filter(|n| matches!(n.kind, kq_pipeline::NodeKind::Fold { .. }) && n.stages.len() > 1)
        .count()
}

/// Every corpus script with a `sort | uniq [-c]` pair the planner fuses:
/// the fused graph, the unfused graph and the serial oracle agree on
/// stdout and on every redirect target, at one, two and four workers and
/// at chunks of 700 B, 64 KiB and 16 MiB. Each run gets a fresh context,
/// so a redirect target is what that run wrote.
#[test]
fn corpus_scripts_with_a_fused_fold_pair_match_serial_fused_and_unfused() {
    let scale = Scale {
        input_bytes: 10_000,
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut scripts = 0usize;
    let mut pairs = 0usize;
    for script in corpus() {
        let serial_ctx = ExecContext::default();
        let env = setup(script, &serial_ctx, &scale, 0xC0F0);
        let parsed = parse_script(script.text, &env).unwrap();
        let sample = serial_ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(8_000)]
            .rfind('\n')
            .map_or(sample.len(), |i| i + 1);
        let plan = planner.plan(&parsed, &serial_ctx, &sample[..cut]);
        let fused = fused_folds(&plan, true);
        if fused == 0 {
            continue;
        }
        assert_eq!(
            fused_folds(&plan, false),
            0,
            "the switch builds neither rewrite"
        );
        scripts += 1;
        pairs += fused;
        let id = format!("{}/{}", script.suite.dir(), script.id);
        let serial = run_serial(&parsed, &serial_ctx).unwrap_or_else(|e| panic!("{id}: {e}"));
        let targets: Vec<String> = parsed
            .statements
            .iter()
            .filter_map(|s| s.output.clone())
            .collect();
        for fuse in [true, false] {
            for (workers, chunk_bytes) in sweep() {
                let ctx = ExecContext::default();
                setup(script, &ctx, &scale, 0xC0F0);
                let at = format!("{id} (fuse={fuse}, w={workers}, chunk={chunk_bytes})");
                let opts = fixed_opts(workers, chunk_bytes, fuse);
                let got = run_dataflow(&parsed, &plan, &ctx, &opts)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(got.output, serial.output, "{at}: stdout");
                for target in &targets {
                    assert_eq!(
                        ctx.vfs.read_bytes(target),
                        serial_ctx.vfs.read_bytes(target),
                        "{at}: {target}"
                    );
                }
            }
        }
    }
    // 29 scripts with `sort | uniq -c`, 7 with `sort | uniq`, one with
    // `sort -f | uniq -c`: 36 scripts with at least one pair.
    assert!(scripts >= 36, "only {scripts} corpus scripts fuse a pair");
    assert!(pairs >= scripts);
}

/// The counting fold on inputs large enough for thousands of chunks, run
/// batches and (high cardinality) a closing merge in parts: a word stream
/// with some hundred distinct words — every chunk's table stays small and
/// the fold merges KBs — and a number stream where nine lines in ten are
/// distinct — every chunk is sorted and counted, and the counted runs are
/// as large as the input, which a fold closing in count order regroups
/// part by part. Fused, unfused and serial; stdout and a redirect target
/// that a later statement reads back. (Megabytes in an optimised build; an
/// unoptimised one takes a tenth.)
#[test]
fn counting_folds_match_serial_on_low_and_high_cardinality_megabytes() {
    let scale = if cfg!(debug_assertions) { 10 } else { 1 };
    let lines = 360_000 / scale;
    let words = kq_workloads::inputs::gutenberg_text((3 << 20) / scale, 134);
    let numbers = kq_workloads::inputs::numbered_lines(lines, 90);
    let text = "cat /words.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn\n\
                cat /numbers.txt | cut -d ' ' -f 1 | sort -n | uniq -c > /out/counts\n\
                cat /out/counts | sort -rn | head -n 7\n\
                cat /numbers.txt | cut -d ' ' -f 1 | sort -r | uniq | wc -l\n\
                cat /words.txt | tr -cs A-Za-z '\\n' | sort -f | uniq -c | sort -k1n | tail -n 4\n\
                cat /numbers.txt | cut -d ' ' -f 1 | sort | uniq -c | sort -rn | tail -n 5";
    let parsed = parse_script(text, &HashMap::new()).unwrap();
    let fresh = || {
        let ctx = ExecContext::default();
        ctx.vfs.write("/words.txt", words.as_str());
        ctx.vfs.write("/numbers.txt", numbers.as_str());
        ctx
    };
    let serial_ctx = fresh();
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&parsed, &serial_ctx, &words[..8_000]);
    // The counting pair of the last statement closes in count order, and
    // in parts: its counted stream is the size of `/out/counts`.
    assert_eq!(fused_folds(&plan, true), 5);
    let serial = run_serial(&parsed, &serial_ctx).unwrap();
    let counts = serial_ctx.vfs.read_bytes("/out/counts").unwrap();
    // Nine numbers in ten are distinct: the counted stream is the size of
    // the sorted one, count columns and all.
    assert!(counts.count_newlines() * 10 > lines * 8);
    if scale == 1 {
        assert!(
            counts.len() > 4 << 20,
            "the counted runs must close in parts"
        );
    }
    for fuse in [true, false] {
        for (workers, chunk_bytes) in sweep() {
            let ctx = fresh();
            let got = run_dataflow(
                &parsed,
                &plan,
                &ctx,
                &fixed_opts(workers, chunk_bytes, fuse),
            )
            .unwrap();
            let at = format!("fuse={fuse}, w={workers}, chunk={chunk_bytes}");
            assert!(got.output == serial.output, "stdout diverged ({at})");
            assert!(
                ctx.vfs.read_bytes("/out/counts").unwrap() == counts,
                "/out/counts diverged ({at})"
            );
        }
    }
}

/// The count-order rewrite: a counting pair and the numeric `sort` after
/// it are one fold closing in count order, against the graph `--no-opt`
/// builds (the pair's fold, then a sorting fold) and `run_serial`, for
/// every tail the licence takes — `-rn`, `-nr`, `-n -r`, `-n`, `-k1nr`,
/// `-k1,1n`, `-k1,1nr`, `-k1n -r` behind `sort` and `sort -r` — at one,
/// two and five workers, on 700-byte and 64 KiB chunks, with no budget, a
/// budget of 0 (every run and every part written out) and one of a
/// quarter of the input. The lines lead with blanks or digits, counts tie
/// by the hundred and the top ones run past fifty, and the input ends
/// without a newline. The tails the licence refuses keep two folds, and match too.
#[test]
fn count_order_folds_match_serial_and_no_opt_for_every_tail() {
    let lines = if cfg!(debug_assertions) {
        3_000
    } else {
        10_000
    };
    let mut state = 0x00C0_FFEE_u64;
    let mut input = String::new();
    for _ in 0..lines {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (state >> 33) as usize;
        let line = match r % 5 {
            0 => format!("w{}", r % 7),
            1 => format!("  {} lead", r % 300),
            2 => format!("{}x", r % 2_000),
            3 => format!(" \t{}", r % 40),
            _ => format!("rare{}", r % 50_000),
        };
        input.push_str(&line);
        input.push('\n');
    }
    input.pop();
    let licensed = [
        ("", "-rn"),
        ("", "-nr"),
        ("", "-n -r"),
        ("", "-n"),
        ("", "-k1nr"),
        ("", "-k1,1n"),
        ("-r", "-k1,1nr"),
        ("-r", "-k1n -r"),
        ("-r", "-rn"),
        ("-r", "-n"),
    ];
    let refused = [
        "sort -f | uniq -c | sort -rn",
        "sort | uniq -c | sort -rnu",
        "sort | uniq -c | sort -rn /in.txt",
        "sort | uniq -c | sort -rnf",
    ];
    let mut text = String::new();
    for (i, (pair, then)) in licensed.iter().enumerate() {
        text.push_str(&format!(
            "cat /in.txt | sort {pair} | uniq -c | sort {then} > /out/t{i}\n"
        ));
    }
    for tail in refused {
        text.push_str(&format!("cat /in.txt | {tail} | head -n 50\n"));
    }
    let parsed = parse_script(&text, &HashMap::new()).unwrap();
    let fresh = || {
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", input.as_str());
        ctx
    };
    let serial_ctx = fresh();
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&parsed, &serial_ctx, &input[..8_000]);
    // Per statement, the stages of each fold the graph builds.
    let folds = |fuse: bool| -> Vec<Vec<usize>> {
        plan.statements
            .iter()
            .map(|p| {
                kq_pipeline::DataflowGraph::build(p, fuse)
                    .nodes
                    .iter()
                    .filter(|n| match n.kind {
                        // Not the bounded `head`, which no rewrite makes.
                        kq_pipeline::NodeKind::Fold { by, .. } => {
                            !matches!(by, kq_pipeline::FoldBy::Rerun { bound: Some(_) })
                        }
                        _ => false,
                    })
                    .map(|n| n.stages.len())
                    .collect()
            })
            .collect()
    };
    let fused = folds(true);
    for (i, stages) in fused.iter().enumerate() {
        let expect: &[usize] = if i < licensed.len() {
            &[3]
        } else {
            // A pair's fold, then the sort's own; the sort of a file is
            // a source, and runs as one.
            &[2, 1]
        };
        assert_eq!(
            stages,
            expect,
            "statement {}: {}",
            i + 1,
            text.lines().nth(i).unwrap()
        );
    }
    assert!(folds(false).iter().flatten().all(|&stages| stages == 1));
    let serial = run_serial(&parsed, &serial_ctx).unwrap();
    let targets: Vec<String> = (0..licensed.len()).map(|i| format!("/out/t{i}")).collect();
    // Counts tie by the hundred, and the top ones run past fifty.
    let ranked = serial_ctx.vfs.read("/out/t0").unwrap();
    let count = |line: &str| -> usize { line.split_whitespace().next().unwrap().parse().unwrap() };
    assert!(ranked.lines().next().is_some_and(|top| count(top) > 50));
    assert!(ranked.lines().filter(|line| count(line) == 1).count() > 100);
    let dir = std::env::temp_dir().join(format!("kq-count-order-{}", std::process::id()));
    for fuse in [true, false] {
        for workers in [1, 2, 5] {
            for chunk_bytes in [700, 64 << 10] {
                for budget in [None, Some(0), Some(input.len() / 4)] {
                    let ctx = fresh();
                    let opts = DataflowOptions {
                        spill: budget.map(|budget_bytes| kq_dsl::SpillPolicy {
                            budget_bytes,
                            dir: Some(dir.clone()),
                        }),
                        ..fixed_opts(workers, chunk_bytes, fuse)
                    };
                    let at = format!("fuse={fuse}, w={workers}, chunk={chunk_bytes}, {budget:?}");
                    let got = run_dataflow(&parsed, &plan, &ctx, &opts)
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert!(got.output == serial.output, "{at}: stdout");
                    for target in &targets {
                        assert!(
                            ctx.vfs.read_bytes(target) == serial_ctx.vfs.read_bytes(target),
                            "{at}: {target}"
                        );
                    }
                }
            }
        }
    }
    let leftovers = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(leftovers, 0, "run files left behind");
}

/// A counting fold's map hands a chunk on raw when its hash table gives
/// up on it (most lines distinct) and counted otherwise, and the fold
/// batches the two kinds apart. On an input whose stretches of one
/// repeated word alternate with stretches of distinct lines, both kinds
/// meet in one fold at 64 KiB chunks (at 700 B no chunk has the lines the
/// table needs before it may give up): `sort | uniq -c` under `-r`, `-f`
/// and `-n`, and closing in count order, equal `run_serial` at one, two
/// and four workers, in memory and under a 1 MiB budget. A word per line
/// never makes the table give up, so no chunk of it goes raw.
#[test]
fn counting_folds_of_counted_and_raw_chunks_match_serial() {
    let stretches = if cfg!(debug_assertions) { 4 } else { 12 };
    let mut input = String::new();
    for s in 0..stretches {
        for i in 0..4_000 {
            input.push_str(&format!("{} item {s} of {i}\n", (i * 7919 + s) % 9_973));
        }
        let word = ["the", "The", "and", "  12 of"][s % 4];
        input.push_str(&format!("{word}\n").repeat(4_000));
    }
    let words = kq_workloads::inputs::gutenberg_text(
        if cfg!(debug_assertions) { 300 } else { 1_500 } << 10,
        7,
    );
    let text = "cat /in.txt | sort | uniq -c > /out/plain\n\
                cat /in.txt | sort -r | uniq -c > /out/r\n\
                cat /in.txt | sort -f | uniq -c > /out/f\n\
                cat /in.txt | sort -n | uniq -c > /out/n\n\
                cat /in.txt | sort | uniq -c | sort -rn > /out/ranked\n\
                cat /words.txt | tr -cs A-Za-z '\\n' | sort | uniq -c";
    let parsed = parse_script(text, &HashMap::new()).unwrap();
    let fresh = || {
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", input.as_str());
        ctx.vfs.write("/words.txt", words.as_str());
        ctx
    };
    let serial_ctx = fresh();
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&parsed, &serial_ctx, &input[..8_000]);
    assert_eq!(fused_folds(&plan, true), 6);
    let serial = run_serial(&parsed, &serial_ctx).unwrap();
    let targets = ["/out/plain", "/out/r", "/out/f", "/out/n", "/out/ranked"];
    let dir = std::env::temp_dir().join(format!("kq-raw-pieces-{}", std::process::id()));
    for workers in [1, 2, 4] {
        for chunk_bytes in [700, 64 << 10] {
            for spill in [false, true] {
                let ctx = fresh();
                let opts = DataflowOptions {
                    spill: spill.then(|| kq_dsl::SpillPolicy {
                        budget_bytes: 1 << 20,
                        dir: Some(dir.clone()),
                    }),
                    ..fixed_opts(workers, chunk_bytes, true)
                };
                let at = format!("w={workers}, chunk={chunk_bytes}, spill={spill}");
                let got = run_dataflow(&parsed, &plan, &ctx, &opts)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert!(got.output == serial.output, "{at}: stdout");
                for target in targets {
                    assert!(
                        ctx.vfs.read_bytes(target) == serial_ctx.vfs.read_bytes(target),
                        "{at}: {target}"
                    );
                }
                // Per statement, the chunks its counting fold took and how
                // many of them went raw.
                let folds: Vec<(usize, usize)> = (got.timings.statements.iter())
                    .map(|stages| {
                        let q = stages.last().unwrap().queue.unwrap();
                        (q.tasks, q.raw_pieces)
                    })
                    .collect();
                for (si, &(chunks, raw)) in folds.iter().enumerate() {
                    let mixed = raw > 0 && raw < chunks;
                    let expect = match (si, chunk_bytes) {
                        (5, _) => raw == 0,
                        (_, 700) => raw == 0,
                        _ => mixed,
                    };
                    assert!(
                        expect,
                        "{at}: statement {}: {raw} of {chunks} chunk(s) raw",
                        si + 1
                    );
                }
            }
        }
    }
    let leftovers = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(leftovers, 0, "run files left behind");
}

/// The seam rewrite against the two oracles it has — the graph `--no-opt`
/// builds, where the stage gathers and runs once, and `run_serial` — in
/// every position a seam node can take, on text whose chunks start with
/// separators, hold nothing but separators, or (behind the `grep`) never
/// reach the node at all.
#[test]
fn seam_stages_match_serial_fused_and_unfused() {
    // ~150 KB: a few chunks at 64 KiB, one per line at 1 B. Lines start
    // with blanks, are blank, hold only punctuation, or carry multi-byte
    // characters; `needle` lines come in two clusters with more than
    // 64 KiB of other lines in between.
    let mut body = String::new();
    for i in 0..4200usize {
        let line = match i % 7 {
            0 => format!("  lead blanks {i}  twice  \n"),
            1 => "\n".to_owned(),
            2 => " ,, ;; \n".to_owned(),
            3 => format!("caf\u{e9} \u{e9}\u{e9} na\u{ef}ve {i}\n"),
            4 if i % 2100 < 40 => format!("needle  in  cluster {i}\n"),
            _ => format!("plain words, some Upper CASE; number {}\n", i % 13),
        };
        body.push_str(&line);
    }
    // Mostly digits: the splitter shrinks this one to a tenth, so it plans
    // parallel — a rerun that pays — and is lifted out of a combine fold.
    let digits: String = (0..3000usize)
        .map(|i| format!("{i} {} 00 needle{} 12345 {}  678\n", i * 7, i % 3, i % 11))
        .collect();
    let inputs = [
        // Separators first, newline last.
        format!(" \n\n ,,\n{body}"),
        // A word first, no newline last.
        format!("{body}tail  without newline"),
        digits,
    ];
    let mut seams_planned = [0usize; 2];
    let scripts = [
        "cat /in.txt | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn",
        "cat /in.txt | grep needle | tr -cs A-Za-z '\\n' | tr A-Z a-z | grep -v e",
        "cat /in.txt | sort | tr -s ' ' '\\n' | uniq -c",
        "cat /in.txt | tr -s ' ' '\\n' | tr -sc '[A-Z][a-z]' '[\\012*]' | wc -l",
        "cat /in.txt | tr -cs A-Za-z '\\n' | head -n 3",
        "cat /in.txt | tr -cs A-Za-z '\\n' > /out/words\ncat /out/words | tr A-Z a-z | sort -u",
    ];
    let mut planner = Planner::new(SynthesisConfig::default());
    for text in scripts {
        let parsed = parse_script(text, &HashMap::new()).unwrap();
        for input in &inputs {
            let fresh = || {
                let ctx = ExecContext::default();
                ctx.vfs.write("/in.txt", input.as_str());
                ctx
            };
            let serial_ctx = fresh();
            let plan = planner.plan(&parsed, &serial_ctx, &input[..8_000]);
            // Every `tr -s` of these scripts heads a node of the fused
            // graph; the unfused graph has none.
            let seam_nodes = |fuse: bool| {
                plan.statements
                    .iter()
                    .map(|p| {
                        let graph = kq_pipeline::DataflowGraph::build(p, fuse);
                        let seam = kq_pipeline::NodeKind::StageWorker { seam: true };
                        graph.nodes.iter().filter(|n| n.kind == seam).count()
                    })
                    .sum::<usize>()
            };
            assert_eq!(seam_nodes(true), text.matches("tr -").count(), "{text}");
            assert_eq!(seam_nodes(false), 0, "{text}");
            for stage in plan.statements.iter().flat_map(|p| &p.stages) {
                seams_planned[usize::from(stage.mode.is_parallel())] += usize::from(stage.seam);
            }
            let serial = run_serial(&parsed, &serial_ctx).unwrap();
            for fuse in [true, false] {
                for workers in [1usize, 2, 4] {
                    for chunk_bytes in [1usize, 1 << 10, 64 << 10] {
                        let ctx = fresh();
                        let opts = fixed_opts(workers, chunk_bytes, fuse);
                        let at = format!("{text} (fuse={fuse}, w={workers}, chunk={chunk_bytes})");
                        let got = run_dataflow(&parsed, &plan, &ctx, &opts)
                            .unwrap_or_else(|e| panic!("{at}: {e}"));
                        assert!(got.output == serial.output, "{at}: stdout");
                        assert!(
                            ctx.vfs.read_bytes("/out/words")
                                == serial_ctx.vfs.read_bytes("/out/words"),
                            "{at}: /out/words"
                        );
                    }
                }
            }
        }
    }
    let [sequential, parallel] = seams_planned;
    assert!(
        sequential > 0 && parallel > 0,
        "seam stages planned sequential: {sequential}, parallel: {parallel}"
    );
}

/// The flag sets of `sort` the kernel and the merge are tested on.
const SORT_FLAG_SETS: [&str; 16] = [
    "", "-r", "-n", "-rn", "-nr", "-f", "-u", "-nu", "-fu", "-k1n", "-ru", "-fr", "-nf", "-k1nr",
    "-k1n -r", "-rns",
];

/// GNU `sort -n`'s number at the head of a line — blanks, an optional `-`,
/// digits, a fraction; no `+` — computed apart from the kernel, for the
/// first-spelling check below.
fn leading_number(line: &str) -> f64 {
    let t = line.trim_start_matches([' ', '\t']);
    let sign = usize::from(t.starts_with('-'));
    let digits = |s: &str| s.bytes().take_while(u8::is_ascii_digit).count();
    let whole = digits(&t[sign..]);
    let mut end = sign + whole;
    let fraction = if t[end..].starts_with('.') {
        digits(&t[end + 1..])
    } else {
        0
    };
    if fraction > 0 {
        end += 1 + fraction;
    }
    if whole + fraction == 0 {
        0.0
    } else {
        t[..end].parse().unwrap()
    }
}

/// `lines` fixed-width lines (34 bytes and a newline, so a 700-byte chunk
/// is exactly 20 of them) of numbers spelled several ways — the first
/// occurrence of each number spelled `007 first`, later ones `7 later`,
/// ` 7.0 Later` or `+7 plus` (no number at all to GNU `-n`) — words that
/// differ only in case, and keyed lines sharing a 21-byte prefix. Each
/// number first appears somewhere in the middle of the stream and recurs
/// after it, in later chunks and run batches.
fn spelled_lines(lines: usize) -> String {
    let mut seen = [0usize; 300];
    (0..lines)
        .map(|i| {
            let k = (i * 7919 + i / 11) % 300;
            seen[k] += 1;
            let content = match (seen[k] - 1) % 7 {
                0 => format!("{k:03} first"),
                1 => format!("{k} later"),
                2 => format!(" {k}.0 Later"),
                3 => format!("+{k} plus"),
                4 => format!("Word{} case", k % 7),
                5 => format!("WORD{} CASE", k % 7),
                _ => format!("key 287 item 24 wolf {k}"),
            };
            format!("{content:_<34}\n")
        })
        .collect()
}

/// The sorting rewrite against the graph `--no-opt` builds (every chunk
/// sorted by its `sort`, the sorted chunks merged) and against
/// `run_serial`: all sixteen flag sets and both unique pairs, as redirect
/// targets and on stdout, at one, two and four workers, chunks of 700 B,
/// 64 KiB and 16 MiB, and no budget, a budget of 0 and one of half the
/// input. The pieces pending when a fold's input ends — the tail its seal
/// turns into batches — are none (budget 0; half the input at 64 KiB
/// chunks), one (a 16 MiB chunk) or many (700 B chunks: all of them
/// without a budget, and under `--no-opt` the 17 past the last batch of
/// 32). Under `-nu` and `-fu` the line kept for each key is its
/// first spelling in the stream, however the spellings fall into chunks
/// and batches.
#[test]
fn sorting_folds_match_serial_and_no_opt_for_every_flag_set() {
    let batches = if cfg!(debug_assertions) { 2 } else { 6 };
    let input = spelled_lines(20 * (32 * batches + 17));
    let mut text = String::new();
    for (i, flags) in SORT_FLAG_SETS.iter().enumerate() {
        let target = if *flags == "-nu" {
            String::new()
        } else {
            format!(" > /out/s{i}")
        };
        text.push_str(&format!("cat /in.txt | sort {flags}{target}\n"));
    }
    text.push_str("cat /in.txt | sort | uniq > /out/u\ncat /in.txt | sort -r | uniq > /out/ru");
    let parsed = parse_script(&text, &HashMap::new()).unwrap();
    let targets: Vec<String> = parsed
        .statements
        .iter()
        .filter_map(|s| s.output.clone())
        .collect();
    let fresh = || {
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", input.as_str());
        ctx
    };
    let serial_ctx = fresh();
    let mut planner = Planner::new(SynthesisConfig::default());
    let plan = planner.plan(&parsed, &serial_ctx, &input[..8_000]);
    let sorting_folds = |fuse: bool| {
        plan.statements
            .iter()
            .flat_map(|p| kq_pipeline::DataflowGraph::build(p, fuse).nodes)
            .filter(|n| {
                matches!(
                    n.kind,
                    kq_pipeline::NodeKind::Fold {
                        map: kq_pipeline::NodeMap::Raw,
                        by: kq_pipeline::FoldBy::Merge { .. },
                    }
                )
            })
            .count()
    };
    assert_eq!((sorting_folds(true), sorting_folds(false)), (18, 0));
    let serial = run_serial(&parsed, &serial_ctx).unwrap();
    // The first spelling of each number, and of each word, wins.
    let first_of = |key: &dyn Fn(&str) -> String| {
        let mut firsts: Vec<(String, &str)> = Vec::new();
        for line in input.lines() {
            if !firsts.iter().any(|(k, _)| *k == key(line)) {
                firsts.push((key(line), line));
            }
        }
        firsts
    };
    let firsts = first_of(&|l| format!("{:e}", leading_number(l)));
    assert_eq!(
        serial.output.to_str().unwrap().lines().count(),
        firsts.len()
    );
    for line in serial.output.to_str().unwrap().lines() {
        assert!(
            firsts.iter().any(|(_, first)| *first == line),
            "-nu: {line}"
        );
    }
    let fu = serial_ctx.vfs.read("/out/s8").unwrap();
    let firsts = first_of(&|l| l.to_ascii_uppercase());
    assert_eq!(fu.lines().count(), firsts.len());
    for line in fu.lines() {
        assert!(
            firsts.iter().any(|(_, first)| *first == line),
            "-fu: {line}"
        );
    }
    let dir = std::env::temp_dir().join(format!("kq-sorting-fold-{}", std::process::id()));
    for fuse in [true, false] {
        for (workers, chunk_bytes) in sweep() {
            for budget in [None, Some(0), Some(input.len() / 2)] {
                let ctx = fresh();
                let opts = DataflowOptions {
                    spill: budget.map(|budget_bytes| kq_dsl::SpillPolicy {
                        budget_bytes,
                        dir: Some(dir.clone()),
                    }),
                    ..fixed_opts(workers, chunk_bytes, fuse)
                };
                let at = format!("fuse={fuse}, w={workers}, chunk={chunk_bytes}, {budget:?}");
                let got = run_dataflow(&parsed, &plan, &ctx, &opts)
                    .unwrap_or_else(|e| panic!("{at}: {e}"));
                assert!(got.output == serial.output, "{at}: stdout");
                for target in &targets {
                    assert!(
                        ctx.vfs.read_bytes(target) == serial_ctx.vfs.read_bytes(target),
                        "{at}: {target}"
                    );
                }
            }
        }
    }
    let leftovers = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(leftovers, 0, "run files left behind");
}

/// Every dataflow stage timing carries queue telemetry, and per-chunk
/// nodes report one task per chunk — the observability contract the
/// perf analysis relies on.
#[test]
fn dataflow_timings_report_queue_telemetry() {
    let ctx = ExecContext::default();
    let input: String = (0..2000)
        .map(|i| format!("word{} tail{}\n", i % 13, i % 7))
        .collect();
    ctx.vfs.write("/in.txt", input);
    let env: HashMap<String, String> = HashMap::new();
    let parsed = parse_script(
        "cat /in.txt | grep word | tr a-z A-Z | sort | uniq -c",
        &env,
    )
    .unwrap();
    let mut planner = Planner::new(SynthesisConfig::default());
    let sample = "word1 tail1\nword2 tail2\n".repeat(30);
    let plan = planner.plan(&parsed, &ctx, &sample);
    let opts = DataflowOptions {
        workers: 2,
        chunk: ChunkSizing::Fixed(1024),
        queue: QueueCredit::Fixed(2),
        fuse_streamable: true,
        spill: None,
    };
    let got = run_dataflow(&parsed, &plan, &ctx, &opts).unwrap();
    let stages = &got.timings.statements[0];
    assert!(!stages.is_empty());
    for stage in stages {
        let telem = stage
            .queue
            .unwrap_or_else(|| panic!("{}: dataflow stage without telemetry", stage.label));
        assert!(
            telem.tasks >= 1,
            "{}: node processed no tasks: {telem:?}",
            stage.label
        );
    }
    // The fused grep|tr node saw many chunks; its task count says so.
    let fused = stages.iter().find(|s| s.label.contains('|')).unwrap();
    assert!(
        fused.queue.unwrap().tasks > 5,
        "expected one task per chunk at the fused node: {:?}",
        fused.queue
    );
}

/// A cancelled 256 MiB producer must terminate promptly without draining
/// its input. Under the dataflow scheduler the bound's satisfaction tears
/// the graph down edge-by-edge — queued chunks are dropped, not drained —
/// so the grep node's consumed-byte count stays O(first match), with a
/// watchdog so a regression hangs the test rather than silently scanning
/// all 256 MiB.
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
    let script = parse_script("cat /big | grep needle | head -n 1", &env).unwrap();
    let mut planner = Planner::new(SynthesisConfig::default());
    let sample = "needle alpha\nhaystack filler line\n".repeat(40);
    let plan = planner.plan(&script, &ctx, &sample);

    let opts = DataflowOptions {
        workers: 2,
        chunk: ChunkSizing::Fixed(64 * 1024),
        queue: QueueCredit::Fixed(2),
        fuse_streamable: true,
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
        .expect("cancelled pipeline hung: upstream kept running after the bound was met");
    let got = handle.join().expect("dataflow thread panicked").unwrap();
    assert_eq!(got.output, "needle alpha\n");

    let stages = &got.timings.statements[0];
    let head = stages
        .iter()
        .find(|s| s.label.starts_with("head"))
        .expect("head node timing");
    assert!(
        head.early_exit.is_some(),
        "head must report its early exit: {head:?}"
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

/// The prefix-bounded corpus scripts (`… | head -n 1`-shaped) under the
/// dataflow scheduler: byte-identical to serial while the bound cancels
/// upstream, at one and four workers and chunks of 1 B, 700 B and 16 MiB.
#[test]
fn prefix_bounded_corpus_scripts_match_serial_under_early_exit() {
    let scale = Scale {
        input_bytes: 10_000,
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut covered = 0usize;
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 0xDF0E);
        let parsed = parse_script(script.text, &env).unwrap();
        let bounded_terminal = parsed.statements.iter().any(|st| {
            st.stages
                .last()
                .is_some_and(|stage| stage.command.line_bound().is_some())
        });
        if !bounded_terminal {
            continue;
        }
        covered += 1;
        let id = format!("{}/{}", script.suite.dir(), script.id);
        let sample = ctx.vfs.read(&env["IN"]).unwrap();
        let cut = sample[..sample.len().min(8_000)]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(sample.len());
        let plan = planner.plan(&parsed, &ctx, &sample[..cut]);
        let serial = run_serial(&parsed, &ctx).unwrap();
        for workers in [1usize, 4] {
            for chunk_bytes in [1usize, 700, 16 << 20] {
                let opts = DataflowOptions {
                    workers,
                    chunk: ChunkSizing::Fixed(chunk_bytes),
                    queue: QueueCredit::Fixed(2),
                    fuse_streamable: true,
                    spill: None,
                };
                let got = run_dataflow(&parsed, &plan, &ctx, &opts)
                    .unwrap_or_else(|e| panic!("{id} dataflow (chunk={chunk_bytes}): {e}"));
                assert_eq!(
                    got.output, serial.output,
                    "{id}: early-exit dataflow diverged (w={workers}, chunk={chunk_bytes})"
                );
            }
        }
    }
    assert!(
        covered >= 11,
        "expected >= 11 prefix-bounded corpus scripts, found {covered}"
    );
}

/// Mapped inputs: the backing store must be invisible. A heap-ingested
/// context is the oracle (serial semantics on owned buffers); the
/// mmap-ingested context runs serial and the pool, at chunk sizes
/// bracketing the file size. Cases cover the documented edges: the empty
/// file (mmap refuses zero length — heap fallback), a file without a
/// trailing newline (unterminated final chunk), and a file much larger
/// than the chunk size (many chunks slicing one mapped region).
#[cfg(unix)]
#[test]
fn mmap_backed_inputs_match_heap_ingest() {
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
        "cat IN | grep a | tr a-z A-Z | cut -d ' ' -f 1", // fully chunk-local
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
            for workers in [1usize, 3] {
                for cb in [chunk_bytes, 1 << 24] {
                    let opts = DataflowOptions {
                        workers,
                        chunk: ChunkSizing::Fixed(cb),
                        ..DataflowOptions::default()
                    };
                    let dataflow =
                        run_dataflow(&parsed, &plan, &mmap_ctx, &opts).unwrap_or_else(|e| {
                            panic!("{name} mmap dataflow (w={workers}, chunk={cb}): {e}")
                        });
                    assert_eq!(
                        dataflow.output, oracle.output,
                        "{name}: dataflow diverged at w={workers}, chunk_bytes={cb}"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A deeper option sweep on pipelines whose combiners are sensitive to
/// where the stream splits (`uniq -c` stitching, `sort` merging, `head`
/// rerun): single-worker pools, depth-1 queues (fully lock-step), and
/// unfused per-stage nodes.
#[test]
fn options_sweep_on_boundary_sensitive_scripts() {
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
                    let opts = DataflowOptions {
                        workers,
                        chunk: ChunkSizing::Fixed(512),
                        queue: QueueCredit::Fixed(queue_depth),
                        fuse_streamable: fuse,
                        spill: None,
                    };
                    let got = run_dataflow(&parsed, &plan, &ctx, &opts).unwrap();
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
