//! Whole-corpus agreement of every way a script can run: the serial
//! oracle, the pool with the graph rewrites off (what `--no-opt` builds:
//! one node per stage, each chunk streamed stage to stage), and the pool
//! out of core (a `--spill-mb` budget of nothing, so every fold run goes
//! to disk and is streamed back from its mapping). All three must print
//! the same bytes on every script of the paper corpus, at the degenerate
//! 1-byte chunk (one chunk per line) and at 700 B, and the spilled runs
//! must leave no file behind.

use kq_coreutils::ExecContext;
use kq_dsl::SpillPolicy;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use kq_workloads::{corpus, setup, Scale};

#[test]
fn full_corpus_all_executors_agree() {
    let scale = Scale {
        input_bytes: 10_000,
    };
    let dir = std::env::temp_dir().join(format!("kq-corpus-spill-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // One planner across scripts: combiners cache per command line.
    let mut planner = Planner::new(SynthesisConfig::default());
    let mut count = 0usize;
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
        for chunk_bytes in [1usize, 700] {
            let unfused = DataflowOptions {
                workers: 2,
                chunk: ChunkSizing::Fixed(chunk_bytes),
                queue: QueueCredit::Fixed(2),
                fuse_streamable: false,
                spill: None,
            };
            let out_of_core = DataflowOptions {
                fuse_streamable: true,
                spill: Some(SpillPolicy {
                    budget_bytes: 0,
                    dir: Some(dir.clone()),
                }),
                ..unfused.clone()
            };
            for (name, opts) in [("unfused", unfused), ("out-of-core", out_of_core)] {
                let got = run_dataflow(&parsed, &plan, &ctx, &opts)
                    .unwrap_or_else(|e| panic!("{id} {name} (chunk={chunk_bytes}): {e}"));
                assert_eq!(
                    got.output, serial.output,
                    "{id}: {name} diverged at chunk_bytes={chunk_bytes}"
                );
            }
            let left = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
            assert_eq!(
                left, 0,
                "{id}: spill files left behind (chunk={chunk_bytes})"
            );
        }
        count += 1;
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(count >= 70, "corpus shrank to {count} scripts");
}
