//! Worker accounting smoke: the dataflow executor's whole-script thread
//! budget is exactly `--workers`, regardless of how many statements,
//! segments, or folds the script contains.
//!
//! A thread set per statement — a feeder plus `segments × (workers +
//! collector)` threads — would grow with the script; the dataflow
//! scheduler has one fixed pool. This test runs a
//! 2-statement script under `workers = 2` while a sampler thread polls
//! `/proc/self/status` `Threads:` and asserts the peak over the baseline
//! never exceeds the worker budget. The first statement's `sort | uniq -c`
//! is one counting fold, and its chunks are so small (some twenty lines,
//! all distinct) that the counted runs are as large as the input — large
//! enough to finish in parts: those are tasks of the same pool.

use kq_coreutils::ExecContext;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[cfg(target_os = "linux")]
#[test]
fn two_statement_script_stays_within_the_worker_budget() {
    const WORKERS: usize = 2;
    let ctx = ExecContext::default();
    // 5 MiB: the first statement's counting fold folds enough for its
    // closing merge to run in parts — pool tasks, which must not cost a
    // thread.
    let input: String = (0..260_000)
        .map(|i| format!("word{} tail{} extra{}\n", i % 13, i % 7, i % 29))
        .collect();
    ctx.vfs.write("/in.txt", input);
    let env: HashMap<String, String> = HashMap::new();
    // Two statements — enough per-statement thread demand that the old
    // per-statement pools would blow past the budget (a feeder + 3
    // segments × 3 threads for the first alone).
    let script = parse_script(
        "cat /in.txt | grep word | sort | uniq -c | sort -rn > /out/freq\n\
         cat /in.txt | cut -d ' ' -f 2 | sort -u | head -n 5",
        &env,
    )
    .unwrap();
    let mut planner = Planner::new(SynthesisConfig::default());
    let sample = "word1 tail1 extra1\nword2 tail2 extra2\n".repeat(30);
    let plan = planner.plan(&script, &ctx, &sample);

    // Start the sampler BEFORE the baseline read so the sampler thread
    // itself is part of the baseline, then measure the peak during runs.
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let stop = Arc::clone(&stop);
        let peak = Arc::clone(&peak);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(thread_count(), Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        })
    };
    while thread_count() < 2 {
        std::thread::yield_now(); // sampler not up yet
    }
    let baseline = thread_count();

    let opts = DataflowOptions {
        workers: WORKERS,
        chunk: ChunkSizing::Fixed(512),
        queue: QueueCredit::Fixed(2),
        fuse_streamable: true,
        spill: None,
    };
    // Several runs so a pool leak across runs would also surface. Between
    // runs, wait for the retired pool's /proc entries to vanish: an exiting
    // worker from run N overlapping run N+1's spawns would otherwise read
    // as a budget violation (join() returns before the kernel task is gone).
    for _ in 0..3 {
        let session = kq_trace::TraceSession::start();
        let got = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
        assert!(!got.output.is_empty());
        let partitions = session
            .finish()
            .iter()
            .filter(|r| r.name == "fold-partition")
            .count();
        assert_eq!(partitions, 1, "the big counting fold finishes in parts");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while thread_count() > baseline {
            assert!(
                std::time::Instant::now() < deadline,
                "worker pool leaked: {} threads still alive after run_dataflow returned \
                 (baseline {baseline})",
                thread_count()
            );
            std::thread::yield_now();
        }
    }
    stop.store(true, Ordering::Relaxed);
    sampler.join().unwrap();

    let peak = peak.load(Ordering::Relaxed);
    assert!(
        peak <= baseline + WORKERS,
        "thread budget exceeded: baseline {baseline}, peak {peak}, budget {WORKERS} \
         (the scheduler must not spawn per-statement or per-segment pools)"
    );
    assert!(
        peak > baseline,
        "sampler never observed a worker thread (baseline {baseline}, peak {peak})"
    );
}
