//! String path versus Bytes path for the parallel data plane.
//!
//! Before the zero-copy refactor, every stage boundary copied the stream:
//! `split_stream` returned `&str` views that executors immediately
//! re-owned (`to_owned` per piece — O(bytes)), and chunk hand-off through
//! the worker channel copied each chunk. The `Bytes` data plane replaces
//! all of that with refcounted slices: splitting N bytes into k pieces
//! allocates O(k).
//!
//! Three measurements pin the claim:
//!
//! * `split/*` — the legacy copy-per-piece split versus `Bytes::split_stream`
//!   on the same 64 MiB stream;
//! * `split_scaling/*` — Bytes split cost across 1→64 MiB inputs (flat when
//!   split is pointer arithmetic, linear when it copies);
//! * `chunk_plumbing/*` — a chunk pool's piece setup (split + chunk
//!   hand-off + gather) in both regimes.
//!
//! Run with `cargo bench --bench bytes_dataplane` and record the numbers
//! in CHANGES.md when they move.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use kq_stream::{concat_bytes, Bytes};
use kq_workloads::inputs::gutenberg_text;
use std::hint::black_box;

const MIB: usize = 1024 * 1024;

/// The pre-refactor piece setup: line-aligned split returning borrowed
/// views, then one owned copy per piece (what the paper's split did before
/// the Bytes data plane).
fn legacy_split_owned(input: &str, k: usize) -> Vec<String> {
    kq_stream::split_stream(input, k)
        .into_iter()
        .map(str::to_owned)
        .collect()
}

fn legacy_chunks_owned(input: &str, target: usize) -> Vec<String> {
    kq_stream::split_chunks(input, target)
        .into_iter()
        .map(str::to_owned)
        .collect()
}

fn bench_split(c: &mut Criterion) {
    let text = gutenberg_text(64 * MIB, 11);
    let shared = Bytes::from(text.as_str());

    let mut group = c.benchmark_group("split");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.sample_size(20);
    for k in [8usize, 64] {
        group.bench_function(format!("string_64MiB_k{k}"), |b| {
            b.iter(|| legacy_split_owned(black_box(&text), k).len())
        });
        group.bench_function(format!("bytes_64MiB_k{k}"), |b| {
            b.iter(|| black_box(&shared).split_stream(k).len())
        });
    }
    group.finish();
}

fn bench_split_scaling(c: &mut Criterion) {
    // The acceptance check: Bytes split cost must be independent of input
    // size (O(k) allocations; the boundary scan is the only size-linear
    // term and it touches no payload). The String path is O(bytes).
    let mut group = c.benchmark_group("split_scaling");
    group.sample_size(20);
    for mib in [1usize, 16, 64] {
        let text = gutenberg_text(mib * MIB, 7);
        let shared = Bytes::from(text.as_str());
        group.bench_function(format!("bytes_{mib}MiB_k16"), |b| {
            b.iter(|| black_box(&shared).split_stream(16).len())
        });
        group.bench_function(format!("string_{mib}MiB_k16"), |b| {
            b.iter(|| legacy_split_owned(black_box(&text), 16).len())
        });
    }
    group.finish();
}

fn bench_chunk_plumbing(c: &mut Criterion) {
    // A chunk pool's piece plumbing: cut the stream into 64 KiB chunks,
    // hand each through a pass-through stage, and gather the outputs in
    // order — the data movement a chunk-mapping executor performs around
    // the real command work. The legacy path owns every chunk and regathers with
    // String concat; the Bytes path moves refcounted handles and regathers
    // through a rope.
    let text = gutenberg_text(64 * MIB, 23);
    let shared = Bytes::from(text.as_str());
    let chunk = 64 * 1024;

    let mut group = c.benchmark_group("chunk_plumbing");
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.sample_size(10);
    group.bench_function("string_64MiB_64KiB_chunks", |b| {
        b.iter(|| {
            let outputs: Vec<String> = legacy_chunks_owned(black_box(&text), chunk);
            outputs.concat().len()
        })
    });
    group.bench_function("bytes_64MiB_64KiB_chunks", |b| {
        b.iter(|| {
            let outputs: Vec<Bytes> = black_box(&shared).split_chunks(chunk);
            concat_bytes(&outputs).len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_split,
    bench_split_scaling,
    bench_chunk_plumbing
);
criterion_main!(benches);
