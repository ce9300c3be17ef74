//! Failure injection: how the synthesizer and the executors behave when a
//! command violates KumQuat's model (determinism, stream-function purity)
//! or fails outright.
//!
//! The paper's §3 model requires commands to be *deterministic* functions
//! `Stream -> Stream`. These tests inject each violation and pin the
//! system's response: synthesis refuses (returns no combiner), planners
//! degrade to sequential, and executors surface honest errors instead of
//! wrong output.

use kumquat::coreutils::{Bytes, CmdError, Command, ExecContext, UnixCommand};
use kumquat::pipeline::plan::Planner;
use kumquat::pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kumquat::pipeline::{InputSource, Script, Stage, Statement};
use kumquat::synth::{synthesize, SynthesisConfig, SynthesisOutcome};
use kumquat::Kumquat;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A stateful "command": output depends on how often it has been called.
/// Violates determinism the way a command reading a cache or a tempfile
/// would.
struct StatefulCounter {
    calls: AtomicUsize,
}

impl UnixCommand for StatefulCounter {
    fn display(&self) -> String {
        "stateful-counter".to_owned()
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(Bytes::from(format!(
            "{}:{}\n",
            n,
            input.to_str().unwrap().lines().count()
        )))
    }
}

/// A command that fails on inputs containing a poison line, the way real
/// commands exit non-zero on malformed records.
struct PoisonSensitive;

impl UnixCommand for PoisonSensitive {
    fn display(&self) -> String {
        "poison-sensitive".to_owned()
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        if input.to_str().unwrap().lines().any(|l| l == "POISON") {
            return Err(CmdError::new("poison-sensitive", "bad record"));
        }
        Ok(Bytes::from(input.to_str().unwrap().to_uppercase()))
    }
}

/// A command that panics on inputs containing a poison line: a bug in a
/// stage, not a failure it reports.
struct PoisonPanics;

impl UnixCommand for PoisonPanics {
    fn display(&self) -> String {
        "poison-panics".to_owned()
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let text = input.to_str().unwrap();
        assert!(!text.lines().any(|l| l == "POISON"), "poison record");
        Ok(input)
    }
}

#[test]
fn stateful_command_synthesizes_nothing() {
    let cmd = Command::custom(
        vec!["stateful-counter".into()],
        Box::new(StatefulCounter {
            calls: AtomicUsize::new(0),
        }),
    );
    let ctx = ExecContext::default();
    let report = synthesize(&cmd, &ctx, &SynthesisConfig::default());
    assert!(
        matches!(report.outcome, SynthesisOutcome::NoCombiner { .. }),
        "stateful command must not synthesize; got {:?}",
        report.plausible()
    );
}

#[test]
fn command_failing_on_some_inputs_still_synthesizes_from_survivors() {
    // PoisonSensitive only fails on a line the generator never produces;
    // for everything else it is a per-line map, so concat synthesizes.
    let cmd = Command::custom(vec!["poison-sensitive".into()], Box::new(PoisonSensitive));
    let ctx = ExecContext::default();
    let report = synthesize(&cmd, &ctx, &SynthesisConfig::default());
    let combiner = report
        .combiner()
        .expect("poison-free probes should synthesize concat");
    assert!(combiner.is_concat(), "got {}", combiner.primary());
}

#[test]
fn nondeterministic_stage_stays_sequential_and_divergence_is_caught() {
    // `shuf` synthesizes no combiner, so the planner keeps it sequential.
    // But nondeterminism still breaks the run-level verification — serial
    // and parallel runs shuffle differently — and `parallelize_and_run`
    // must report that rather than return either output as "the" answer.
    let mut kq = Kumquat::new();
    let input: String = (0..200).map(|i| format!("line{i}\n")).collect();
    kq.write_file("/in.txt", &input);
    let result = kq.parallelize_and_run("cat /in.txt | shuf", 4);
    let err = result.expect_err("two shuf runs cannot agree");
    assert!(
        err.to_string().contains("diverged"),
        "unexpected error: {err}"
    );
}

#[test]
fn nondeterminism_laundered_through_sort_is_fine() {
    // A canonicalizing stage downstream restores determinism: the overall
    // pipeline is a deterministic stream function even though one stage
    // is not, and parallelization of the *other* stages proceeds.
    let mut kq = Kumquat::new();
    let input: String = (0..200)
        .map(|i| format!("line{}\n", (i * 31) % 100))
        .collect();
    kq.write_file("/in.txt", &input);
    let run = kq
        .parallelize_and_run("cat /in.txt | shuf | sort | uniq -c", 4)
        .expect("sort|uniq -c after shuf is deterministic");
    let out = run.output.to_str().unwrap();
    assert!(out.contains(" line0\n"), "got: {out}");
    // shuf itself stayed sequential; sort and uniq -c parallelized.
    assert_eq!(run.parallelized.1, 3, "three stages total");
    assert!(
        run.parallelized.0 >= 2,
        "sort and uniq -c should parallelize"
    );
}

#[test]
fn poisoned_input_error_propagates_from_parallel_pieces() {
    // When a piece fails mid-parallel-run, the executor returns the
    // command's own error (no partial output, no hang).
    let mut kq = Kumquat::new();
    let mut input = String::new();
    for i in 0..50 {
        input.push_str(&format!("{i}\n"));
    }
    input.push_str("oops\n");
    kq.write_file("/in.txt", &input);
    // grep -v passes everything through; sed 's/oops/&/' keeps it; use a
    // command that errors: comm demands sorted input.
    let err = kq
        .parallelize_and_run("cat /in.txt | comm -23 - /dict", 4)
        .expect_err("comm without the dict file must fail");
    assert!(
        err.to_string().contains("No such file") || err.to_string().contains("comm"),
        "unexpected error: {err}"
    );
}

#[test]
fn missing_input_file_fails_before_spawning_workers() {
    let mut kq = Kumquat::new();
    let err = kq
        .parallelize_and_run("cat /nope.txt | sort", 8)
        .expect_err("missing file");
    assert!(err.to_string().contains("No such file"), "{err}");
}

#[test]
fn foreign_bytes_fail_consistently_piped_and_as_file_operand() {
    // A foreign input file behaves the same whether the bytes reach the
    // command through a pipe (`cat /foreign | sort`) or as a file operand
    // (`sort /foreign`): a byte-clean command sorts the bytes either way,
    // and a command that reads characters fails either way, with one
    // message.
    let mut kq = Kumquat::new();
    kq.write_file("/foreign", vec![0xffu8, 0xfe, b'x', b'\n', b'a', b'\n']);
    let piped = kq.parallelize_and_run("cat /foreign | sort", 2).unwrap();
    let operand = kq.parallelize_and_run("sort /foreign", 2).unwrap();
    assert_eq!(piped.output.as_bytes(), b"a\n\xff\xfex\n");
    assert_eq!(operand.output, piped.output);
    let piped = kq
        .parallelize_and_run("cat /foreign | sed s/x/y/", 2)
        .expect_err("sed reads characters");
    let operand = kq
        .parallelize_and_run("sed s/x/y/ /foreign", 2)
        .expect_err("sed reads characters");
    for err in [&piped, &operand] {
        assert_eq!(err.to_string(), "sed: input is not valid UTF-8");
    }
}

#[test]
fn zero_length_input_runs_through_every_executor() {
    let mut kq = Kumquat::new();
    kq.write_file("/empty.txt", "");
    let run = kq
        .parallelize_and_run("cat /empty.txt | sort | uniq -c | sort -rn", 8)
        .unwrap();
    assert_eq!(run.output, "");
}

/// Builds `cat /in.txt | <prefix...> | poison-sensitive | <tail...>` as a
/// Script (the parser cannot produce custom commands), with a manual
/// concat combiner registered so the planner keeps the poison stage
/// parallel — and, since its probe outputs are streams, *chunk-local*,
/// i.e. a stage-worker node of the dataflow graph.
fn poison_script(
    ctx: &ExecContext,
    prefix: &[&str],
    tail: &[&str],
) -> (Script, kumquat::pipeline::PlannedScript) {
    custom_script(ctx, prefix, Box::new(PoisonSensitive), tail)
}

/// [`poison_script`] around any custom stage, registered under its name.
fn custom_script(
    ctx: &ExecContext,
    prefix: &[&str],
    custom: Box<dyn UnixCommand>,
    tail: &[&str],
) -> (Script, kumquat::pipeline::PlannedScript) {
    use kumquat::dsl::ast::{Candidate, RecOp};
    use kumquat::synth::SynthesizedCombiner;
    let mut stages: Vec<Stage> = prefix
        .iter()
        .map(|t| Stage {
            command: kumquat::coreutils::parse_command(t).unwrap(),
            span: Default::default(),
        })
        .collect();
    let name = custom.display();
    stages.push(Stage {
        command: Command::custom(vec![name.clone()], custom),
        span: Default::default(),
    });
    for t in tail {
        stages.push(Stage {
            command: kumquat::coreutils::parse_command(t).unwrap(),
            span: Default::default(),
        });
    }
    let script = Script {
        statements: vec![Statement {
            stages,
            input: InputSource::Files(vec!["/in.txt".to_owned()]),
            output: None,
            span: Default::default(),
        }],
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    planner.register_manual(
        &name,
        SynthesizedCombiner::from_plausible(vec![Candidate::rec(RecOp::Concat)]),
    );
    let sample: String = (0..50).map(|i| format!("clean line {i}\n")).collect();
    let plan = planner.plan(&script, ctx, &sample);
    (script, plan)
}

/// Runs `run_dataflow` on another thread under a watchdog: the pool must
/// *return* (tearing down every worker — scoped threads cannot leak past
/// the call) within the timeout, not wait on work nobody will schedule.
fn dataflow_under_watchdog(
    ctx: ExecContext,
    script: Script,
    plan: kumquat::pipeline::PlannedScript,
    opts: DataflowOptions,
) -> Result<Bytes, CmdError> {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let result = run_dataflow(&script, &plan, &ctx, &opts).map(|r| r.output);
        done_tx.send(()).ok();
        result
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("dataflow pool hung: teardown did not complete within the watchdog");
    handle.join().expect("dataflow thread panicked")
}

/// Options for the teardown tests: small chunks and a shallow queue, so
/// the failing chunk is hit while the edges around it are full.
fn teardown_options(workers: usize, chunk_bytes: usize, queue_depth: usize) -> DataflowOptions {
    DataflowOptions {
        workers,
        chunk: ChunkSizing::Fixed(chunk_bytes),
        queue: QueueCredit::Fixed(queue_depth),
        fuse_streamable: true,
        spill: None,
    }
}

#[test]
fn streaming_mid_pipeline_error_tears_down_promptly() {
    // The poison line lands mid-stream: upstream chunks have already been
    // forwarded, downstream stages (a barrier sort and a chunk-local tr)
    // are already consuming, and the queues are depth-1 so every edge is
    // at capacity when the failing chunk is hit.
    let ctx = ExecContext::default();
    let mut input = String::new();
    for i in 0..400 {
        input.push_str(&format!("line number {i}\n"));
        if i == 200 {
            input.push_str("POISON\n");
        }
    }
    ctx.vfs.write("/in.txt", input);
    let (script, plan) = poison_script(&ctx, &[], &["tr a-z A-Z", "sort"]);
    let opts = teardown_options(2, 64, 1);
    let err = dataflow_under_watchdog(ctx, script, plan, opts)
        .expect_err("the poison chunk must fail the run");
    assert!(
        err.to_string().contains("poison-sensitive"),
        "error not attributed to the failing stage: {err}"
    );
}

#[test]
fn a_panicking_stage_fails_the_run_naming_it() {
    // A stage that panics on one chunk: the pool must catch it, fail the
    // statement with an error naming the stage, and return — not lose the
    // worker and wait for a task that never ends.
    let mut input = String::new();
    for i in 0..400 {
        input.push_str(&format!("line number {i}\n"));
        if i == 200 {
            input.push_str("POISON\n");
        }
    }
    for workers in [1, 2, 4] {
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", input.clone());
        let (script, plan) = custom_script(&ctx, &[], Box::new(PoisonPanics), &["sort"]);
        let opts = teardown_options(workers, 64, 1);
        let err = dataflow_under_watchdog(ctx, script, plan, opts)
            .expect_err("the panicking chunk must fail the run");
        assert!(
            err.to_string().contains("poison-panics"),
            "w={workers}: error not attributed to the panicking stage: {err}"
        );
    }
}

#[test]
fn streaming_error_downstream_of_sequential_stage_tears_down() {
    // The failing stage sits *after* a sequential stage (sed 1d gathers
    // everything first), so the error propagates backwards across a
    // gather boundary and forwards into a barrier (uniq -c).
    let ctx = ExecContext::default();
    let mut input = String::new();
    for i in 0..300 {
        input.push_str(&format!("row {i}\n"));
    }
    input.push_str("POISON\n");
    ctx.vfs.write("/in.txt", input);
    let (script, plan) = poison_script(&ctx, &["sed 1d"], &["uniq -c"]);
    let opts = teardown_options(1, 32, 1);
    let err = dataflow_under_watchdog(ctx, script, plan, opts)
        .expect_err("poison after the gather stage must fail the run");
    assert!(err.to_string().contains("poison-sensitive"), "{err}");
}

#[test]
fn streaming_error_downstream_of_streamable_run_tears_down() {
    // The failing stage is the *last* node; the chunk-local run ahead of
    // it (tr | cut, fused with it) must stop rather than chain-process
    // the rest of the stream, and the split must unwind behind it.
    let ctx = ExecContext::default();
    let mut input = String::new();
    for i in 0..2_000 {
        input.push_str(&format!("line number {i}\n"));
        if i == 40 {
            input.push_str("POISON\n");
        }
    }
    ctx.vfs.write("/in.txt", input);
    let (script, plan) = poison_script(&ctx, &["tr a-z A-Z", "cut -d ' ' -f 1-3"], &[]);
    let opts = teardown_options(2, 64, 1);
    let err = dataflow_under_watchdog(ctx, script, plan, opts)
        .expect_err("poison in the final segment must fail the run");
    assert!(err.to_string().contains("poison-sensitive"), "{err}");
}

#[test]
fn streaming_clean_run_of_custom_stage_matches_serial() {
    // Sanity check on the same harness without poison: the custom stage
    // uppercases, and the pool's output equals serial.
    let ctx = ExecContext::default();
    let input: String = (0..200).map(|i| format!("word {i}\n")).collect();
    ctx.vfs.write("/in.txt", input);
    let (script, plan) = poison_script(&ctx, &[], &["sort", "uniq"]);
    let serial = kumquat::pipeline::exec::run_serial(&script, &ctx).unwrap();
    let opts = teardown_options(2, 128, 2);
    let got = dataflow_under_watchdog(ctx, script, plan, opts).unwrap();
    assert_eq!(got, serial.output);
}

/// A `sort` that, when handed the chunk holding only the trigger line,
/// replaces the spill directory with a plain file — from then on no run
/// file can be created there — and sorts that chunk to nothing.
struct SabotagedSort {
    sort: Command,
    spill_dir: std::path::PathBuf,
}

const SABOTAGE_TRIGGER: &str = "TRIGGER: the spill directory goes\n";

impl UnixCommand for SabotagedSort {
    fn display(&self) -> String {
        "sabotaged-sort".to_owned()
    }

    fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        if input.as_bytes() == SABOTAGE_TRIGGER.as_bytes() {
            // Another worker may be opening a run file meanwhile, and
            // `RunWriter::create` recreates the directory before it does:
            // remove and write again until the path is a plain file.
            while !self.spill_dir.is_file() {
                std::fs::remove_dir_all(&self.spill_dir).ok();
                std::fs::write(&self.spill_dir, "not a directory").ok();
            }
            return Ok(Bytes::new());
        }
        self.sort.run(input, ctx)
    }
}

/// A part of a fold's closing merge that fails. The fold spills under a
/// 1 MiB budget (24 runs of four 64 KiB chunks each, none pending when it
/// closes), so its three parts each open a temp file — which the trigger
/// chunk, the last of the stream, has made impossible. With one worker
/// the order is fixed: every run is installed before the trigger chunk is
/// mapped, planning succeeds, and the first part to run fails; the trace
/// must show one teardown and no part merged after it. With more workers
/// the trigger can overtake a run still being installed, so only the
/// outcome is pinned: the run fails once, returns, and leaves no file.
#[test]
fn a_failing_part_of_the_closing_merge_fails_the_statement_once() {
    use kumquat::dsl::ast::{Candidate, RunOp};
    use kumquat::pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
    use kumquat::synth::SynthesizedCombiner;

    // 32-byte lines, so 64 KiB chunks end exactly on line ends and the
    // trigger line is a chunk of its own.
    let mut input = String::with_capacity(6 << 20);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    while input.len() < 6 << 20 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        input.push_str(&format!("{state:020} padding...\n"));
    }
    assert_eq!(input.len() % (64 << 10), 0);
    let sample = input[..32 * 100].to_owned();
    input.push_str(SABOTAGE_TRIGGER);

    for workers in [1usize, 2, 4] {
        let base =
            std::env::temp_dir().join(format!("kq-failing-part-{}-{workers}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let spill_dir = base.join("spill");
        std::fs::create_dir_all(&spill_dir).unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", input.as_str());
        let script = Script {
            statements: vec![Statement {
                stages: vec![Stage {
                    command: Command::custom(
                        vec!["sabotaged-sort".into()],
                        Box::new(SabotagedSort {
                            sort: kumquat::coreutils::parse_command("sort").unwrap(),
                            spill_dir: spill_dir.clone(),
                        }),
                    ),
                    span: Default::default(),
                }],
                input: InputSource::Files(vec!["/in.txt".to_owned()]),
                output: None,
                span: Default::default(),
            }],
        };
        let mut planner = Planner::new(SynthesisConfig::default());
        planner.register_manual(
            "sabotaged-sort",
            SynthesizedCombiner::from_plausible(vec![Candidate::run(RunOp::Merge(vec![]))]),
        );
        let plan = planner.plan(&script, &ctx, &sample);
        assert!(plan.statements[0].stages[0].mode.is_parallel());
        let opts = DataflowOptions {
            workers,
            chunk: ChunkSizing::Fixed(64 << 10),
            queue: QueueCredit::Fixed(4),
            fuse_streamable: true,
            spill: Some(kumquat::dsl::SpillPolicy {
                budget_bytes: 1 << 20,
                dir: Some(spill_dir.clone()),
            }),
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let session = kq_trace::TraceSession::start();
            let result = run_dataflow(&script, &plan, &ctx, &opts).map(|r| r.output);
            let records = session.finish();
            done_tx.send(()).ok();
            (result, records)
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the failing part left the pool waiting");
        let (result, records) = handle.join().expect("dataflow thread panicked");
        let err = result.expect_err("no run file can be created: the sort must fail");
        assert!(err.to_string().contains("spill"), "{err}");
        let named = |name: &str| records.iter().filter(|r| r.name == name).count();
        assert_eq!(named("cancel"), 1, "one teardown at w={workers}");
        if workers == 1 {
            assert_eq!(named("fold-partition"), 1, "planning came first");
            assert_eq!(named("fold-finish"), 1, "the parts behind it were dropped");
        }
        let left: Vec<_> = std::fs::read_dir(&base)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["spill"], "only the sabotage itself at w={workers}");
        std::fs::remove_dir_all(&base).unwrap();
    }
}

/// A map error inside a counting fold: `grep -c`, whose combiner is
/// `add`. Its pattern reads characters, so its map decodes each chunk and
/// fails on bytes that are not UTF-8; the file is text except for one
/// line in one chunk, well past the planning sample. The statement must
/// fail once — `grep`'s error, one teardown — with the maps of the chunks
/// around it in flight on other workers, and the run must return.
#[test]
fn a_map_error_inside_a_counting_fold_fails_the_statement_once() {
    use kumquat::pipeline::parse::parse_script;
    use kumquat::pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};

    let mut input: Vec<u8> = Vec::new();
    for i in 0..20_000 {
        input.extend_from_slice(format!("word{} tail{}\n", i % 41, i % 7).as_bytes());
        if i == 12_345 {
            input.extend_from_slice(b"not \xff\xfe text\n");
        }
    }
    let sample = String::from_utf8(input[..8_000].to_vec()).unwrap();
    for workers in [1usize, 2, 4] {
        let script = parse_script(
            "cat /in.txt | grep -c '^....$'",
            &std::collections::HashMap::new(),
        )
        .unwrap();
        let ctx = ExecContext::default();
        ctx.vfs.write("/in.txt", Bytes::from(input.clone()));
        let mut planner = Planner::new(SynthesisConfig::default());
        let plan = planner.plan(&script, &ctx, &sample);
        let kumquat::pipeline::plan::StageMode::Parallel { combiner, .. } =
            &plan.statements[0].stages[0].mode
        else {
            panic!("grep -c runs parallel");
        };
        assert_eq!(combiner.primary().to_string(), "((back '\\n' add) a b)");
        let opts = DataflowOptions {
            workers,
            chunk: ChunkSizing::Fixed(2 << 10),
            queue: QueueCredit::Fixed(4),
            fuse_streamable: true,
            spill: None,
        };
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let session = kq_trace::TraceSession::start();
            let result = run_dataflow(&script, &plan, &ctx, &opts).map(|r| r.output);
            let records = session.finish();
            done_tx.send(()).ok();
            (result, records)
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the failing map left the pool waiting");
        let (result, records) = handle.join().expect("dataflow thread panicked");
        let err = result.expect_err("a chunk that is not text must fail the fold");
        assert_eq!(err.to_string(), "grep: input is not valid UTF-8");
        let named = |name: &str| records.iter().filter(|r| r.name == name).count();
        assert_eq!(named("cancel"), 1, "one teardown at w={workers}");
        assert_eq!(named("stmt-finish"), 1, "one statement end at w={workers}");
        assert_eq!(
            named("fold-finish"),
            0,
            "nothing left to settle at w={workers}"
        );
    }
}

/// Drops the first line, like `sed 1d` — no combiner can say that of two
/// pieces, so the stage plans sequential — and fails on a poison line.
struct DropFirst;

impl UnixCommand for DropFirst {
    fn display(&self) -> String {
        "drop-first".to_owned()
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let text = input.to_str().unwrap();
        if text.lines().any(|l| l == "POISON") {
            return Err(CmdError::new("drop-first", "bad record"));
        }
        Ok(Bytes::from(
            text.split_inclusive('\n').skip(1).collect::<String>(),
        ))
    }
}

/// Keeps the lines that start with `keep`, and fails when it is handed
/// more than five of them: every chunk of the inputs below passes, and
/// so does the planning sample, but the whole stream does not.
struct KeepAtMostFive;

impl UnixCommand for KeepAtMostFive {
    fn display(&self) -> String {
        "keep-at-most-five".to_owned()
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let kept: String = (input.to_str().unwrap().split_inclusive('\n'))
            .filter(|l| l.starts_with("keep"))
            .collect();
        if kept.lines().count() > 5 {
            return Err(CmdError::new(
                "keep-at-most-five",
                "more than five lines kept",
            ));
        }
        Ok(Bytes::from(kept))
    }
}

/// `cat /in.txt | <custom>`, planned on `sample`, with `combiner`
/// registered for the custom stage when there is one.
fn one_custom_stage(
    ctx: &ExecContext,
    custom: Box<dyn UnixCommand>,
    combiner: Option<kumquat::dsl::ast::Candidate>,
    sample: &str,
) -> (Script, kumquat::pipeline::PlannedScript) {
    let name = custom.display();
    let script = Script {
        statements: vec![Statement {
            stages: vec![Stage {
                command: Command::custom(vec![name.clone()], custom),
                span: Default::default(),
            }],
            input: InputSource::Files(vec!["/in.txt".to_owned()]),
            output: None,
            span: Default::default(),
        }],
    };
    let mut planner = Planner::new(SynthesisConfig::default());
    if let Some(candidate) = combiner {
        planner.register_manual(
            &name,
            kumquat::synth::SynthesizedCombiner::from_plausible(vec![candidate]),
        );
    }
    let plan = planner.plan(&script, ctx, sample);
    (script, plan)
}

/// `run_dataflow` fails with exactly `run_serial`'s message, at one and
/// at two workers.
fn fails_as_serial_does(
    ctx: &ExecContext,
    script: &Script,
    plan: &kumquat::pipeline::PlannedScript,
) {
    let serial = kumquat::pipeline::exec::run_serial(script, ctx)
        .expect_err("the serial run must fail")
        .to_string();
    for workers in [1, 2] {
        let err = run_dataflow(script, plan, ctx, &teardown_options(workers, 64, 2))
            .expect_err("the dataflow run must fail");
        assert_eq!(err.to_string(), serial, "w={workers}");
    }
}

#[test]
fn a_failing_sequential_stage_fails_with_the_serial_message() {
    let ctx = ExecContext::default();
    let mut input: String = (0..300).map(|i| format!("row {i}\n")).collect();
    input.push_str("POISON\n");
    ctx.vfs.write("/in.txt", input.as_str());
    let (script, plan) = one_custom_stage(&ctx, Box::new(DropFirst), None, &input[..2_000]);
    assert!(
        !plan.statements[0].stages[0].mode.is_parallel(),
        "drop-first plans sequential"
    );
    fails_as_serial_does(&ctx, &script, &plan);
}

#[test]
fn a_rerun_fold_that_fails_on_the_whole_stream_fails_with_the_serial_message() {
    use kumquat::dsl::ast::{Candidate, RunOp};
    let ctx = ExecContext::default();
    let input: String = (0..400)
        .map(|i| match i % 20 {
            0 => format!("keep {i}\n"),
            _ => format!("drop {i}\n"),
        })
        .collect();
    ctx.vfs.write("/in.txt", input.as_str());
    let (script, plan) = one_custom_stage(
        &ctx,
        Box::new(KeepAtMostFive),
        Some(Candidate::run(RunOp::Rerun)),
        &input[..600],
    );
    assert!(
        plan.statements[0].stages[0].mode.is_parallel(),
        "the rerun pays: keep-at-most-five shrinks its input"
    );
    fails_as_serial_does(&ctx, &script, &plan);
}
