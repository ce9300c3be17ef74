//! Auto versus fixed chunk sizing on the dataflow scheduler — the
//! closed-loop tuning layer's report card, persisted to
//! `BENCH_adaptive.json`.
//!
//! Two configurations of the same fold-heavy pipeline at w=4: the static
//! default (fixed 128 KiB chunks) and auto chunk sizing, both with the
//! fixed default queue credit. Alongside the medians the harness records
//! the *sort merge frontier* — the fold
//! node's task count, i.e. how many sorted runs the barrier had to k-way
//! merge. Auto chunking exists to shrink that number: the input-sized
//! base target plus online coarsening feeds the fold few large runs
//! instead of one run per 128 KiB chunk, which is asserted here (at full
//! scale) to be at most half the static frontier.
//!
//! Like the other JSON benches this reports medians of fixed-count
//! samples. Input defaults to 16 MiB (`KQ_ADAPTIVE_BENCH_KB` overrides;
//! `KQ_BENCH_QUICK=1` shrinks to 1 MiB and fewer samples for the CI
//! smoke — at that size the auto base clamps to the 128 KiB floor, so
//! the frontier assertion only runs at ≥ 8 MiB). `KQ_BENCH_OUT`
//! overrides the output path.

use kq_coreutils::ExecContext;
use kq_pipeline::exec::{run_serial, ExecutionResult};
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
/// The static default the CLI uses for `--chunk-kb` (128 KiB).
const STATIC_CHUNK_BYTES: usize = 128 * 1024;
const STATIC_QUEUE_DEPTH: usize = 4;

/// A multi-segment pipeline ending in the merge barrier under test: a
/// chunk-local segment (grep|tr) feeding a sort fold whose task count is
/// the merge frontier the chunk coarsening is meant to shrink.
const SCRIPT: &str = "cat /in.txt | grep -v qqq | tr A-Z a-z | sort";

fn quick_mode() -> bool {
    std::env::var("KQ_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn input_bytes() -> usize {
    let kb = std::env::var("KQ_ADAPTIVE_BENCH_KB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if quick_mode() { 1024 } else { 16 * 1024 });
    kb * 1024
}

/// Mixed-case word lines, ~32 bytes each, deterministic.
fn make_input(bytes: usize) -> String {
    let words = [
        "Apple", "dog", "CAT", "bird", "Fox", "wolf", "Pear", "yak", "Emu", "newt",
    ];
    let mut s = String::with_capacity(bytes + 64);
    let mut i = 0usize;
    while s.len() < bytes {
        s.push_str(&format!(
            "{} {} item {:04}\n",
            words[i % words.len()],
            words[(i * 7 + 3) % words.len()],
            (i * 2654435761) % 9973
        ));
        i += 1;
    }
    s
}

fn fresh_ctx(input: &str) -> ExecContext {
    let ctx = ExecContext::default();
    ctx.vfs.write("/in.txt", input);
    ctx
}

/// The sort fold's task count: one task per piece pushed into the merge
/// frontier (the fold is the statement's last stage).
fn sort_frontier(r: &ExecutionResult) -> u64 {
    r.timings.statements[0]
        .last()
        .and_then(|s| s.queue)
        .map(|q| q.tasks as u64)
        .expect("sort fold telemetry")
}

/// Runs `routine` `n` times and returns the median duration.
fn median_of(n: usize, mut routine: impl FnMut() -> Duration) -> (Duration, usize) {
    let mut samples: Vec<Duration> = (0..n).map(|_| routine()).collect();
    samples.sort();
    (samples[samples.len() / 2], samples.len())
}

struct BenchRow {
    name: &'static str,
    median: Duration,
    samples: usize,
    sort_frontier: u64,
}

fn main() {
    let input = make_input(input_bytes());
    let env: HashMap<String, String> = HashMap::new();
    let script = parse_script(SCRIPT, &env).unwrap();
    let mut planner = Planner::new(SynthesisConfig::default());
    let cut = input[..input.len().min(16_384)]
        .rfind('\n')
        .map(|i| i + 1)
        .unwrap_or(input.len());
    let plan = planner.plan(&script, &fresh_ctx(&input), &input[..cut]);

    let configs: [(&'static str, ChunkSizing); 2] = [
        ("static", ChunkSizing::Fixed(STATIC_CHUNK_BYTES)),
        ("auto_chunk", ChunkSizing::Auto),
    ];
    let opts_for = |chunk: ChunkSizing| DataflowOptions {
        workers: WORKERS,
        chunk,
        queue: QueueCredit::Fixed(STATIC_QUEUE_DEPTH),
        fuse_streamable: true,
        spill: None,
    };

    // Correctness guard before timing anything: every configuration must
    // match serial byte-for-byte — adaptation moves chunk boundaries,
    // never bytes.
    let serial = run_serial(&script, &fresh_ctx(&input)).unwrap();
    for (name, chunk) in configs {
        let r = run_dataflow(&script, &plan, &fresh_ctx(&input), &opts_for(chunk)).unwrap();
        assert_eq!(r.output, serial.output, "{name}: diverged from serial");
        assert_eq!(
            r.timings.adaptive.is_some(),
            matches!(chunk, ChunkSizing::Auto),
            "{name}: adaptive telemetry presence is wrong"
        );
    }

    let n = if quick_mode() { 3 } else { 9 };
    let mut rows: Vec<BenchRow> = Vec::new();
    for (name, chunk) in configs {
        let opts = opts_for(chunk);
        let mut last: Option<ExecutionResult> = None;
        let (median, samples) = median_of(n, || {
            let ctx = fresh_ctx(&input);
            let t0 = Instant::now();
            let r = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
            let dt = t0.elapsed();
            std::hint::black_box(r.output.len());
            last = Some(r);
            dt
        });
        let last = last.expect("at least one sample ran");
        let frontier = sort_frontier(&last);
        println!(
            "{:<32} median: {:>9.2} ms  (sort frontier {frontier}, {samples} samples)",
            format!("adaptive_exec/{name}"),
            median.as_secs_f64() * 1e3,
        );
        rows.push(BenchRow {
            name,
            median,
            samples,
            sort_frontier: frontier,
        });
    }

    let frontier = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map(|r| r.sort_frontier)
            .unwrap()
    };
    let (static_frontier, auto_frontier) = (frontier("static"), frontier("auto_chunk"));
    // The chunk-sizing frontier is a pure function of input size and the
    // coarsening schedule — deterministic, so asserted here rather than
    // left to JSON consumers. The auto base only rises above the static
    // 128 KiB default once input/(workers×8) clears the clamp floor.
    if input.len() >= 8 * 1024 * 1024 {
        assert!(
            auto_frontier * 2 <= static_frontier,
            "auto sort frontier {auto_frontier} should be ≤ half the static {static_frontier}"
        );
    }
    println!(
        "adaptive_exec/frontier_static_over_auto    {:.2}x",
        static_frontier as f64 / auto_frontier as f64
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"input_bytes\": {},\n", input.len()));
    json.push_str(&format!("  \"workers\": {WORKERS},\n"));
    json.push_str(&format!(
        "  \"static_chunk_bytes\": {STATIC_CHUNK_BYTES},\n"
    ));
    json.push_str(&format!(
        "  \"static_queue_depth\": {STATIC_QUEUE_DEPTH},\n"
    ));
    json.push_str("  \"benches\": {\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    \"{}\": {{\"median_ms\": {:.3}, \"samples\": {}, \"sort_frontier\": {}}}{comma}\n",
            row.name,
            row.median.as_secs_f64() * 1e3,
            row.samples,
            row.sort_frontier
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"frontier_static_over_auto\": {:.3}\n",
        static_frontier as f64 / auto_frontier as f64
    ));
    json.push_str("}\n");

    let out = std::env::var("KQ_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_adaptive.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}
