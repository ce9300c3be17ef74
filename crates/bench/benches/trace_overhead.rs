//! Overhead guard for the tracing plane: instrumentation must be free
//! when no [`kq_trace::TraceSession`] is live, and cheap when one is.
//!
//! Two measurements, persisted to `BENCH_trace.json` at the repo root:
//!
//! * **Probe cost, tracing off** — a tight loop over a fully-built span
//!   (`span(..).si(..).seq(..).v(..).done()`) with no session. This is
//!   the price every instrumentation point in the executors pays on a
//!   normal run: one relaxed atomic load and a branch. Measured a second
//!   time while *another* thread holds a live session (sessions are
//!   scoped to the threads that carry them, so this thread stays
//!   untraced and pays one more thread-local read). Both asserted to
//!   stay in the single-digit-nanosecond range.
//! * **Dataflow run, off vs on** — a multi-statement dataflow script
//!   (the shape of the benchmark's `multi-stmt`), run with and without a live session
//!   (session start/finish and record collection excluded from the timed
//!   region, as a real `--trace-out` run pays them once, not per chunk).
//!   The enabled/disabled median ratio is asserted `< 1.05`.
//!
//! `KQ_BENCH_QUICK=1` shrinks the input to 1 MiB, takes one sample, and
//! skips the assertions (the CI smoke checks the plumbing, not the
//! noise-sensitive thresholds). `KQ_TRACE_BENCH_KB` overrides the input
//! size; `KQ_BENCH_OUT` overrides the output path.

use kq_bench::{bench_quick, median_of};
use kq_coreutils::ExecContext;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::scheduler::{run_dataflow, ChunkSizing, DataflowOptions, QueueCredit};
use kq_synth::SynthesisConfig;
use std::collections::HashMap;
use std::time::Instant;

const WORKERS: usize = 4;
const CHUNK_BYTES: usize = 64 * 1024;

/// Four statements: a fold-heavy frequency pipeline checkpointed to a
/// redirect, two independent analyses, and a reader of the redirect —
/// enough graph nodes that per-task spans dominate the record stream.
const SCRIPT: &str = "cat /in.txt | tr A-Z a-z | sort | uniq -c | sort -rn > /out/freq\n\
                      cat /in.txt | cut -d ' ' -f 1 | sort -u | wc -l\n\
                      cat /in.txt | grep dog | wc -l\n\
                      cat /out/freq | head -n 10";

fn input_bytes() -> usize {
    let kb = std::env::var("KQ_TRACE_BENCH_KB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if bench_quick() { 1024 } else { 16 * 1024 });
    kb * 1024
}

/// Mixed-case word lines, ~24 bytes each, deterministic.
fn make_input(bytes: usize) -> String {
    let words = ["Apple", "dog", "CAT", "bird", "Fox", "wolf", "Pear", "yak"];
    let mut s = String::with_capacity(bytes + 64);
    let mut i = 0usize;
    while s.len() < bytes {
        s.push_str(&format!(
            "{} {} {:04}\n",
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

/// Per-call cost of a disabled instrumentation point, in nanoseconds.
fn probe_cost_off_ns() -> f64 {
    assert!(!kq_trace::enabled(), "a session leaked into the bench");
    let iters: u64 = if bench_quick() { 1_000_000 } else { 20_000_000 };
    let t0 = Instant::now();
    for i in 0..iters {
        kq_trace::span("bench", "probe")
            .si(0)
            .seq(i as usize)
            .v(i as f64)
            .done();
    }
    let dt = t0.elapsed();
    std::hint::black_box(iters);
    dt.as_nanos() as f64 / iters as f64
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
    let opts = DataflowOptions {
        workers: WORKERS,
        chunk: ChunkSizing::Fixed(CHUNK_BYTES),
        queue: QueueCredit::Fixed(4),
        fuse_streamable: true,
        spill: None,
    };

    let probe_ns = probe_cost_off_ns();
    println!("trace_overhead/probe_off             {probe_ns:>9.2} ns/call");
    // The same probe while a session is live on a thread that is not ours.
    let probe_foreign_ns = std::thread::scope(|scope| {
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        scope.spawn(move || {
            let session = kq_trace::TraceSession::start();
            started_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            assert!(
                session.finish().is_empty(),
                "the probe thread leaked records"
            );
        });
        started_rx.recv().unwrap();
        let ns = probe_cost_off_ns();
        done_tx.send(()).unwrap();
        ns
    });
    println!("trace_overhead/probe_foreign_session {probe_foreign_ns:>9.2} ns/call");

    // One untimed warmup so the off/on comparison doesn't charge cold
    // caches and first-touch page faults to whichever side runs first.
    {
        let ctx = fresh_ctx(&input);
        let r = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
        std::hint::black_box(r.output.len());
    }

    let n = if bench_quick() { 1 } else { 9 };
    let (off, off_samples) = median_of(n, || {
        let ctx = fresh_ctx(&input);
        let t0 = Instant::now();
        let r = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
        let dt = t0.elapsed();
        std::hint::black_box(r.output.len());
        dt
    });
    println!(
        "trace_overhead/dataflow_off          {:>9.2} ms  ({off_samples} samples)",
        off.as_secs_f64() * 1e3
    );

    let mut record_count = 0usize;
    let (on, on_samples) = median_of(n, || {
        let ctx = fresh_ctx(&input);
        let session = kq_trace::TraceSession::start();
        let t0 = Instant::now();
        let r = run_dataflow(&script, &plan, &ctx, &opts).unwrap();
        let dt = t0.elapsed();
        record_count = session.finish().len();
        std::hint::black_box(r.output.len());
        dt
    });
    println!(
        "trace_overhead/dataflow_on           {:>9.2} ms  ({on_samples} samples, {record_count} records)",
        on.as_secs_f64() * 1e3
    );

    let ratio = on.as_secs_f64() / off.as_secs_f64();
    println!("trace_overhead/enabled_over_disabled {ratio:>9.3}x");

    // Hand-rolled JSON: names and floats only, nothing needing escaping.
    let json = format!(
        "{{\n  \"input_bytes\": {},\n  \"workers\": {WORKERS},\n  \"chunk_bytes\": {CHUNK_BYTES},\n  \
         \"probe_off_ns\": {probe_ns:.3},\n  \"probe_foreign_session_ns\": {probe_foreign_ns:.3},\n  \
         \"dataflow_off_ms\": {:.3},\n  \"dataflow_on_ms\": {:.3},\n  \
         \"records_per_run\": {record_count},\n  \"enabled_over_disabled\": {ratio:.4}\n}}\n",
        input.len(),
        off.as_secs_f64() * 1e3,
        on.as_secs_f64() * 1e3,
    );
    let out = std::env::var("KQ_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_trace.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");

    if !bench_quick() {
        // Disabled probes must stay effectively free (an atomic load and a
        // branch — single-digit ns; the bound leaves room for CI jitter).
        assert!(
            probe_ns < 25.0 && probe_foreign_ns < 25.0,
            "disabled instrumentation point costs {probe_ns:.1} ns/call \
             ({probe_foreign_ns:.1} with a foreign session live)"
        );
        // A live session may cost at most ~5% of dataflow wall time.
        assert!(
            ratio < 1.05,
            "tracing-enabled dataflow run is {ratio:.3}x the disabled run"
        );
        assert!(record_count > 50, "trace suspiciously small");
    }
}
