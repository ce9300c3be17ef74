//! The candidate space for the three per-command delimiter tiers (Table
//! 10's 2 700 / 26 404 / 110 444 candidates): what it costs to lay the
//! space out, to materialise it, and to decide one observation.
//!
//! * `layout_*` — `CandidateSpace::new`: a handful of counts, which is
//!   all synthesis builds;
//! * `materialise_*` — `enumerate_candidates`: every candidate as a boxed
//!   tree (what tests and the codec round-trip use, and what synthesis
//!   built per command before the space became implicit);
//! * `filter_walk_*` vs `filter_reference_*` — one observation decided by
//!   `CandidateSpace::passing` (a walk of the combiner trie, then
//!   `plausible` on the ids it keeps) against `plausible` on every
//!   materialised candidate; the observation is a `uniq -c` boundary
//!   merge, which reaches into the `stitch2` product. Both sides return
//!   the same ids (asserted).

use criterion::{criterion_group, criterion_main, Criterion};
use kq_dsl::eval::NoRunEnv;
use kq_dsl::{enumerate_candidates, plausible, CandidateSpace, Delim, EnumConfig, Observation};
use std::hint::black_box;

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumeration");
    group.sample_size(20);
    let observation = Observation::new(
        "      2 apple\n      1 beta\n",
        "      3 beta\n      1 cat\n",
        "      2 apple\n      4 beta\n      1 cat\n",
    );
    let tiers = [
        vec![Delim::Newline],
        vec![Delim::Newline, Delim::Space],
        vec![Delim::Newline, Delim::Space, Delim::Comma],
    ];
    for delims in tiers {
        let config = EnumConfig {
            delims,
            ..EnumConfig::default()
        };
        let space = CandidateSpace::new(&config);
        let (candidates, breakdown) = enumerate_candidates(&config);
        assert_eq!(candidates.len(), breakdown.total());
        assert_eq!(candidates.len(), space.len());
        let tier = format!("delims_{}_{}", config.delims.len(), space.len());

        group.bench_function(format!("layout_{tier}"), |b| {
            b.iter(|| CandidateSpace::new(black_box(&config)).len())
        });
        group.bench_function(format!("materialise_{tier}"), |b| {
            b.iter(|| enumerate_candidates(black_box(&config)).0.len())
        });

        let reference = |o: &Observation| -> Vec<u32> {
            (0..candidates.len() as u32)
                .filter(|&id| {
                    plausible(&candidates[id as usize], std::slice::from_ref(o), &NoRunEnv)
                })
                .collect()
        };
        assert_eq!(
            space.passing(&observation, &NoRunEnv),
            reference(&observation)
        );
        group.bench_function(format!("filter_walk_{tier}"), |b| {
            b.iter(|| space.passing(black_box(&observation), &NoRunEnv).len())
        });
        group.bench_function(format!("filter_reference_{tier}"), |b| {
            b.iter(|| reference(black_box(&observation)).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_enumeration);
criterion_main!(benches);
