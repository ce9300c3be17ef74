//! KumQuat combiner synthesis.
//!
//! Given a black-box command `f`, the synthesizer (paper Algorithm 1):
//!
//! 1. preprocesses the command line — extracting regex/number literals and
//!    probing `f` with three canonical inputs to pick an input profile
//!    ([`preprocess()`], module [`mod@preprocess`]);
//! 2. lays out the candidate combiner space `G_n` for the command's
//!    delimiter alphabet — implicitly, as counts (`kq_dsl::space`), never
//!    as a list of trees;
//! 3. repeatedly generates input stream pairs from gradient-mutated *input
//!    shapes* ([`shape`], [`gen`]; paper Algorithm 2), runs `f` to obtain
//!    observations `⟨f(x1), f(x2), f(x1++x2)⟩`, and keeps only the
//!    candidate ids each observation leaves plausible (Definition 3.9),
//!    decided by one walk of the combiner trie per observation;
//! 4. stops when no progress is made for several rounds, returning either
//!    a composite combiner over the surviving set ([`composite`]) or `None`
//!    when every candidate was eliminated (Table 9's unsupported commands).
//!
//! # The parallel synthesis engine
//!
//! Synthesis is staged: the RNG-driven input generation and the
//! order-sensitive dedup are serial, *observation generation* (command
//! executions on generated stream pairs — a process per run for an
//! external command) fans out over a [`SynthPool`] ([`pool`]) as
//! independent jobs whose results slot back in input order, and
//! *candidate elimination* is sorted-id-set arithmetic on the answers of
//! `kq_dsl::CandidateSpace::passing_among`, which needs no threads. A
//! report is therefore **byte-identical for every worker count** — the
//! pool buys wall clock, never different answers
//! (`SynthesisConfig::workers`; pinned corpus-wide, and against the
//! per-candidate loop this replaced, by `tests/synth_engine.rs`). The
//! same pool fans the *distinct* commands of every script a planning pass
//! reads out across its workers (`kq_pipeline::plan::Planner`).
//!
//! # Caching and validation
//!
//! Synthesis results are cacheable: the planner keys them by a normalized
//! command signature and can persist them across processes
//! (`kq_pipeline::cache::CombinerCache`). A cache hit loaded from disk is
//! **validated before it is trusted**: [`spot_check`] regenerates, from
//! the configured RNG seed, the first observation synthesis itself would
//! produce for the command and replays every cached candidate against it.
//! Genuine entries always pass (they survived that very observation when
//! they were synthesized); colliding or stale entries are rejected and the
//! command is re-synthesized. Negative entries ("no combiner") skip
//! validation — there is nothing to replay — and can only cost
//! parallelism, never correctness, because the planner treats them as
//! sequential stages.
//!
//! ```
//! use kq_coreutils::{parse_command, ExecContext};
//! use kq_synth::{synthesize, SynthesisConfig};
//!
//! let command = parse_command("wc -l").unwrap();
//! let report = synthesize(&command, &ExecContext::default(), &SynthesisConfig::default());
//! let combiner = report.combiner().expect("wc -l is divide-and-conquer");
//! assert_eq!(combiner.primary().to_string(), "((back '\\n' add) a b)");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod composite;
pub mod gen;
pub mod pool;
pub mod preprocess;
pub mod shape;
pub mod synthesize;

pub use composite::SynthesizedCombiner;
pub use pool::SynthPool;
pub use preprocess::{preprocess, probe_profile, InputProfile, Preprocessed};
pub use shape::{Config, InputShape, Mutation};
#[doc(hidden)]
pub use synthesize::synthesize_reference;
pub use synthesize::{spot_check, synthesize, SynthesisConfig, SynthesisOutcome, SynthesisReport};
