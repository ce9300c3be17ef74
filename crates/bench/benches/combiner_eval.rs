//! Micro-benchmarks of combiner evaluation (Figure 6 semantics): what the
//! executors' folds run per combine, and what synthesis runs to confirm
//! the ids its trie walk keeps (a few per observation, no longer one per
//! candidate).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use kq_dsl::ast::{Combiner, RecOp, StructOp};
use kq_dsl::eval::{eval, NoRunEnv};
use kq_dsl::{domain, Delim};
use std::hint::black_box;

fn count_table(lines: usize, seed: u64) -> String {
    let mut out = String::new();
    for i in 0..lines {
        out.push_str(&format!(
            "{:>7} word{}\n",
            (i * seed as usize) % 900 + 1,
            i % 50
        ));
    }
    out
}

fn bench_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("combiner_eval");
    group.sample_size(20);

    let concat = Combiner::Rec(RecOp::Concat);
    let y1 = "lorem ipsum\n".repeat(500);
    let y2 = "dolor sit\n".repeat(500);
    group.bench_function("concat_12KB", |b| {
        b.iter(|| eval(black_box(&concat), &y1, &y2, &NoRunEnv).unwrap())
    });

    let back_add = Combiner::Rec(RecOp::Back(Delim::Newline, Box::new(RecOp::Add)));
    group.bench_function("back_newline_add", |b| {
        b.iter(|| eval(black_box(&back_add), "123456\n", "987654\n", &NoRunEnv).unwrap())
    });

    let stitch2 = Combiner::Struct(StructOp::Stitch2(Delim::Space, RecOp::Add, RecOp::First));
    let t1 = count_table(400, 3);
    let t2 = {
        let mut t = t1.lines().last().unwrap().to_owned();
        t.push('\n');
        t.push_str(&count_table(400, 5));
        t
    };
    group.bench_function("stitch2_800_lines", |b| {
        b.iter(|| eval(black_box(&stitch2), &t1, &t2, &NoRunEnv).unwrap())
    });

    group.bench_function("stitch2_domain_check_800_lines", |b| {
        b.iter(|| {
            black_box(domain::in_domain(black_box(&stitch2), &t1))
                && black_box(domain::in_domain(black_box(&stitch2), &t2))
        })
    });

    let fuse = Combiner::Rec(RecOp::Fuse(Delim::Space, Box::new(RecOp::Add)));
    group.bench_function("fuse_space_add", |b| {
        b.iter_batched(
            || ("12 7 9 100".to_owned(), "3 3 3 3".to_owned()),
            |(a, bb)| eval(black_box(&fuse), &a, &bb, &NoRunEnv).unwrap(),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_eval);
criterion_main!(benches);
