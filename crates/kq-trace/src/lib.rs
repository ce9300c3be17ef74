//! The workspace's tracing and metrics plane.
//!
//! Every layer of the pipeline — planning, synthesis, ingest, chunking,
//! folds, the serial oracle and both parallel executors — records its work
//! through this crate as **spans** (an interval of work), **instants** (a
//! point event),
//! **counters** (a named quantity), and **meta** records (structure, e.g.
//! the dataflow graph's nodes and statement dependencies). The recorder is
//! feature-off-by-default and lock-cheap:
//!
//! * **Disabled** (no [`TraceSession`] live, or none handed to the
//!   calling thread), every instrumentation point is a relaxed atomic
//!   load — plus one thread-local read while some other thread's session
//!   is live — and an early return: no allocation, no clock read, no
//!   lock. The executors stay within noise of their un-instrumented
//!   selves (`benches/trace_overhead.rs` guards this).
//! * **Enabled**, records go to a thread-local buffer tagged with the
//!   thread's session; the process-global sink is only locked when a
//!   thread exits or a session finishes. The hot path is two monotonic
//!   clock reads and a `Vec` push per span.
//!
//! Recording is scoped to a session, not to the process: a thread records
//! only while it carries a live session's id. [`TraceSession::start`]
//! attaches the calling thread; thread pools hand the session on with
//! [`current`] and [`SessionRef::attach`] (every executor pool and the
//! synthesis pool do). Concurrent sessions produce disjoint traces and an
//! untraced run next to a traced one records nothing.
//!
//! # Span taxonomy
//!
//! Identity is `(kind, cat, name, si, ni, seq)` plus a human `label`;
//! `si`/`ni` are statement and dataflow-node indices, `seq` a chunk or
//! round ordinal. Because chunk boundaries are deterministic for a given
//! input and `--chunk-kb`, the span identity *multiset* is stable across
//! runs and worker counts (absent early-exit cancellation, which consumes
//! a timing-dependent chunk count) — only timestamps and thread ids vary.
//! The categories in use:
//!
//! | cat | names | layer |
//! |---|---|---|
//! | `plan` | `plan` | `Planner::plan` wall time |
//! | `synth` | `synthesize` span, under it `observe` and `filter` spans per gradient step; `round` instant; `rounds`, `observations`, `trie-nodes` counters | per-command synthesis |
//! | `cache` | `validate` span; `hit`, `validated`, `rejected`, `miss` instants | combiner-cache lookups |
//! | `ingest` | `read` (label `map`/`heap`), `release` | file → data-plane ingest, page release |
//! | `chunk` | `cut` | incremental re-chunking |
//! | `spill` | `run-out`, `map-back` | bounded-memory fold spills |
//! | `serial` | `stage` | the serial oracle |
//! | `dataflow` | `run`, `gather-input`, `split`, `map`, `fold-push`, `fold-merge`, `fold-partition`, `fold-finish`, `fold-stitch`, `emit`, `early-exit`, `cancel`, `stmt-finish`, per-node counters | the shared-pool executor, one span per node task |
//! | `graph` | node-kind metas (`split`, `worker`, `fold`, `gather`, `bounded`), `dep` | dataflow graph structure |
//!
//! # Exports
//!
//! A finished session yields plain [`Record`]s. [`write_jsonl`] writes one
//! flat JSON object per line (parsed back by [`parse_jsonl`] — the schema
//! round-trip is tested field-for-field), and [`write_chrome_trace`]
//! derives a Chrome `trace_event` array loadable in Perfetto or
//! `chrome://tracing`: one track per worker thread plus one track per
//! dataflow node. [`report::analyze`] computes per-node busy time and the
//! critical path through the dataflow graph (see [`report`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod record;
mod recorder;
pub mod report;

pub use chrome::write_chrome_trace;
pub use record::{parse_jsonl, write_jsonl, Kind, Record};
pub use recorder::{
    counter, current, enabled, instant, meta, span, Attached, Event, SessionRef, Span, TraceSession,
};
