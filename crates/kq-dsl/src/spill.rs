//! Spill policy for bounded-memory folds.
//!
//! A merge-combiner fold ([`crate::kway::IncrementalFold`]) normally keeps
//! every sorted run on the heap until `finish()`. Under a [`SpillConfig`]
//! it instead writes runs to temp files (through [`kq_io::RunWriter`])
//! once the resident run bytes would cross the budget, maps them back as
//! demand-paged [`kq_stream::Bytes`], and streams the final k-way merge so
//! neither the runs nor the merged output are ever fully heap-resident.
//!
//! [`SpillPolicy`] is the user-facing knob (budget + optional directory)
//! carried by executor options; each barrier stage derives its own
//! [`SpillConfig`] from it so the [`SpillMetrics`] counters are per-stage.
//!
//! # The budget ledger
//!
//! A fold's budget `B` is split in two, so that what the fold holds is
//! bounded by `B` whatever the pool does:
//!
//! * **resident runs** — runs (and counter-tree groups) stay on the heap
//!   while their total stays within `B / 4` ([`SpillConfig::run_budget`]);
//!   past it they go to disk. A closing merge that runs in memory (nothing
//!   spilled) writes at most as many bytes again;
//! * **batches in flight** — every pool worker may be making a run of a
//!   batch at once, and a batch holds up to [`BATCH_WORKING_SET`] times its
//!   bytes while it does, so batches are cut at
//!   `3B / (4 × workers × BATCH_WORKING_SET)` = `B / (4 × workers)` bytes
//!   ([`SpillConfig::batch_bytes`]): the `workers` batches that can run at
//!   once hold at most the other `3B / 4`. The pool bounds how many run at
//!   once, so no batch waits for budget — a smaller budget or a larger
//!   pool cuts smaller batches instead. The split favours the batches:
//!   fewer, larger runs make the closing merge narrower, where a larger
//!   resident share only writes less to disk.
//!
//! What is left is independent of the input: each worker's merge window
//! (a fragment buffer and a release window per run it reads) and the
//! release lags of the chunk producers.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes a run batch holds while it becomes a run, per byte of the batch:
/// the batch's own pages (a sorting fold refaults its raw chunks from the
/// input), the sort's 24-byte line entries (at most a byte per byte on
/// lines of 24 bytes or more), and the larger of the radix sort's second
/// buffer of entries and the run it writes, which do not overlap. A merge
/// batch holds its pieces and the run.
pub const BATCH_WORKING_SET: usize = 3;

/// The user-facing spill knob (`--spill-mb` / `--spill-dir`): carried by
/// executor options, turned into one [`SpillConfig`] per barrier stage.
#[derive(Debug, Clone)]
pub struct SpillPolicy {
    /// The fold's memory budget: resident runs and the batches being made
    /// runs share it (see the [module docs](self)).
    pub budget_bytes: usize,
    /// Directory for run files; `None` means the system temp dir.
    pub dir: Option<PathBuf>,
}

impl SpillPolicy {
    /// Derives a per-stage config with fresh metrics counters, for a fold
    /// that `workers` pool threads may make runs for at once.
    pub fn stage_config(&self, workers: usize) -> SpillConfig {
        SpillConfig {
            budget_bytes: self.budget_bytes,
            workers,
            dir: self.dir.clone().unwrap_or_else(std::env::temp_dir),
            metrics: Arc::new(SpillMetrics::default()),
        }
    }
}

/// One stage's spill configuration: a resolved directory plus shared
/// counters the executor snapshots into its timing log after the run.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// The fold's memory budget (see [`SpillPolicy::budget_bytes`]).
    pub budget_bytes: usize,
    /// Threads that may each make a run of a batch at once.
    pub workers: usize,
    /// Resolved run-file directory.
    pub dir: PathBuf,
    /// Live counters, shared between the fold (writer) and the executor
    /// (reader).
    pub metrics: Arc<SpillMetrics>,
}

impl SpillConfig {
    /// Resident run bytes the fold keeps on the heap: a quarter of the
    /// budget.
    pub fn run_budget(&self) -> usize {
        self.budget_bytes / 4
    }

    /// Bytes of raw or sorted pieces per run batch: the rest of the
    /// budget, shared by the batches `workers` threads may hold at once.
    pub fn batch_bytes(&self) -> usize {
        let share = self.workers.max(1) * BATCH_WORKING_SET;
        ((self.budget_bytes - self.run_budget()) / share).max(1)
    }
}

/// Spill activity counters, updated by the fold as it runs.
#[derive(Debug, Default)]
pub struct SpillMetrics {
    runs_spilled: AtomicU64,
    bytes_written: AtomicU64,
    bytes_mapped: AtomicU64,
    merge_parts: AtomicU64,
}

impl SpillMetrics {
    /// Records one run of `bytes` written to disk.
    pub fn record_spill(&self, bytes: u64) {
        self.runs_spilled.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        kq_trace::instant("spill", "run-out").v(bytes as f64).emit();
    }

    /// Records `bytes` of spilled data mapped back for merging.
    pub fn record_mapped(&self, bytes: u64) {
        self.bytes_mapped.fetch_add(bytes, Ordering::Relaxed);
        kq_trace::instant("spill", "map-back")
            .v(bytes as f64)
            .emit();
    }

    /// Notes that one of the files counted by
    /// [`record_spill`](SpillMetrics::record_spill) is (or will be) a part
    /// of the fold's merged output rather than a run still to be merged.
    pub fn record_part(&self) {
        self.merge_parts.fetch_add(1, Ordering::Relaxed);
    }

    /// How many of the spilled files are parts of the merged output.
    pub fn merge_parts(&self) -> u64 {
        self.merge_parts.load(Ordering::Relaxed)
    }

    /// A consistent-enough snapshot: (runs spilled, bytes written, bytes
    /// mapped back).
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.runs_spilled.load(Ordering::Relaxed),
            self.bytes_written.load(Ordering::Relaxed),
            self.bytes_mapped.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_budget_splits_into_resident_runs_and_batches_in_flight() {
        let mib = 1 << 20;
        let cfg = SpillPolicy {
            budget_bytes: 64 * mib,
            dir: None,
        }
        .stage_config(4);
        assert_eq!(cfg.run_budget(), 16 * mib);
        assert_eq!(cfg.batch_bytes(), 4 * mib);
        // Every worker's batch at its working set, plus the resident
        // runs, is the budget.
        let in_flight = cfg.workers * BATCH_WORKING_SET * cfg.batch_bytes();
        assert_eq!(cfg.run_budget() + in_flight, cfg.budget_bytes);
        // A budget too small to share still cuts batches of a byte.
        let tiny = SpillConfig {
            budget_bytes: 0,
            ..cfg
        };
        assert_eq!((tiny.run_budget(), tiny.batch_bytes()), (0, 1));
    }
}
