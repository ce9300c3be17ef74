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
//!   the same ids (asserted, in quick mode too).
//!
//! Each line is the median of 9 samples of the per-call time, a sample
//! repeating the call for at least 20 ms. `KQ_BENCH_QUICK=1` takes one
//! sample of one call.

use kq_bench::{bench_quick, median_of};
use kq_dsl::eval::NoRunEnv;
use kq_dsl::{enumerate_candidates, plausible, CandidateSpace, Delim, EnumConfig, Observation};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Prints the median per-call time of `f` under `name`.
fn bench(name: &str, mut f: impl FnMut() -> usize) {
    let (samples, min) = if bench_quick() {
        (1, Duration::ZERO)
    } else {
        (9, Duration::from_millis(20))
    };
    let (per_call, n) = median_of(samples, || {
        let t0 = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || t0.elapsed() < min {
            black_box(f());
            calls += 1;
        }
        t0.elapsed() / calls
    });
    println!(
        "enumeration/{name:<32} {:>12.2} us/call  ({n} samples)",
        per_call.as_secs_f64() * 1e6
    );
}

fn main() {
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

        bench(&format!("layout_{tier}"), || {
            CandidateSpace::new(black_box(&config)).len()
        });
        bench(&format!("materialise_{tier}"), || {
            enumerate_candidates(black_box(&config)).0.len()
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
        bench(&format!("filter_walk_{tier}"), || {
            space.passing(black_box(&observation), &NoRunEnv).len()
        });
        bench(&format!("filter_reference_{tier}"), || {
            reference(black_box(&observation)).len()
        });
    }
}
