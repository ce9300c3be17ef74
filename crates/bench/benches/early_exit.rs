//! Early-exit cancellation versus full consumption.
//!
//! The corpus's `… | head -n 1`-shaped pipelines consume a prefix of
//! their stream; the serial oracle still pays for the whole input. This
//! bench pins the win on a `cat big | grep needle | head -n 1` pipeline
//! whose needle sits on line one:
//!
//! * `streaming_early_exit` — the bounded consumer's demand token cancels
//!   the feeder and the grep pool after O(first match) bytes;
//! * `streaming_full_scan` — the same upstream terminated by `wc -l`
//!   (which must read everything), so the same executor does the same
//!   per-byte work *without* a cancellation: the baseline for what the
//!   demand token saves (mirrors the CI out-of-core comparison).
//!
//! Input defaults to 16 MiB (`KQ_EARLY_EXIT_BENCH_KB` overrides;
//! `KQ_BENCH_QUICK=1` shrinks to 1 MiB for the CI smoke run).

use criterion::{criterion_group, criterion_main, Criterion};
use kq_coreutils::ExecContext;
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::parse_script;
use kq_pipeline::plan::Planner;
use kq_pipeline::streaming::{run_streaming, StreamingOptions};
use kq_synth::SynthesisConfig;
use std::collections::HashMap;
use std::hint::black_box;

fn make_input(bytes: usize) -> String {
    let mut s = String::with_capacity(bytes + 64);
    s.push_str("needle alpha first line\n");
    let filler = "haystack filler line with nothing of interest inside\n";
    while s.len() < bytes {
        s.push_str(filler);
    }
    s
}

fn input_bytes() -> usize {
    if std::env::var("KQ_BENCH_QUICK").is_ok() {
        return 1024 * 1024;
    }
    std::env::var("KQ_EARLY_EXIT_BENCH_KB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(16 * 1024)
        * 1024
}

fn bench_early_exit(c: &mut Criterion) {
    let input = make_input(input_bytes());
    let env: HashMap<String, String> = HashMap::new();
    let bounded = parse_script("cat /in.txt | grep needle | head -n 1", &env).unwrap();
    // Same upstream, full-consumption sink: the delta to `bounded` is
    // what the demand token saves. (A huge `head -n` bound would be the
    // purer control, but its line hint makes synthesis generate
    // million-line probe streams — `wc -l` costs one count per chunk.)
    let unbounded = parse_script("cat /in.txt | grep needle | wc -l", &env).unwrap();
    let ctx = ExecContext::default();
    ctx.vfs.write("/in.txt", &input);
    let mut planner = Planner::new(SynthesisConfig::default());
    let sample = "needle alpha first line\nhaystack filler line\n".repeat(40);
    let bounded_plan = planner.plan(&bounded, &ctx, &sample);
    let unbounded_plan = planner.plan(&unbounded, &ctx, &sample);

    // Correctness guard before timing anything.
    let serial = run_serial(&bounded, &ctx).unwrap();
    assert_eq!(serial.output, "needle alpha first line\n");
    let sopts = StreamingOptions {
        workers: 2,
        chunk_bytes: 128 * 1024,
        queue_depth: 4,
        fuse_streamable: true,
        spill: None,
    };
    assert_eq!(
        run_streaming(&bounded, &bounded_plan, &ctx, &sopts)
            .unwrap()
            .output,
        serial.output
    );

    let mut group = c.benchmark_group("early_exit");
    group.sample_size(10);
    group.bench_function("streaming_early_exit", |b| {
        b.iter(|| {
            let r = run_streaming(black_box(&bounded), &bounded_plan, &ctx, &sopts).unwrap();
            r.output.len()
        })
    });
    group.bench_function("streaming_full_scan", |b| {
        b.iter(|| {
            let r = run_streaming(black_box(&unbounded), &unbounded_plan, &ctx, &sopts).unwrap();
            r.output.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_early_exit);
criterion_main!(benches);
