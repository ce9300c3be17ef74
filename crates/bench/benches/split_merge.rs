//! Throughput of the parallel plumbing: line-boundary stream splitting and
//! the k-way sorted merge behind the `merge` combiner.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use kq_coreutils::sort::LineOrder;
use kq_stream::split_stream;
use kq_workloads::inputs::gutenberg_text;
use std::hint::black_box;

fn bench_split_merge(c: &mut Criterion) {
    let text = gutenberg_text(1024 * 1024, 11);

    let mut group = c.benchmark_group("split");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.sample_size(30);
    for w in [2usize, 16] {
        group.bench_function(format!("split_1MB_w{w}"), |b| {
            b.iter(|| split_stream(black_box(&text), w).len())
        });
    }
    group.finish();

    // Pre-sorted pieces for the merge benchmark.
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    let sorted: String = lines.iter().map(|l| format!("{l}\n")).collect();
    // Flags are parsed once, as a fold does; pieces go in as bytes.
    let order = LineOrder::parse(&[]).unwrap();
    let mut group = c.benchmark_group("merge");
    group.throughput(Throughput::Bytes(sorted.len() as u64));
    group.sample_size(20);
    for w in [2usize, 8, 16] {
        let pieces: Vec<String> = {
            // Split the sorted stream round-robin so every piece stays
            // sorted (the shape parallel sort instances produce).
            let mut buckets = vec![String::new(); w];
            for (i, line) in sorted.lines().enumerate() {
                buckets[i % w].push_str(line);
                buckets[i % w].push('\n');
            }
            buckets
        };
        let refs: Vec<&[u8]> = pieces.iter().map(String::as_bytes).collect();
        group.bench_function(format!("merge_1MB_w{w}"), |b| {
            b.iter(|| order.merge(black_box(&refs)).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_split_merge);
criterion_main!(benches);
