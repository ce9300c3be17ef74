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

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The user-facing spill knob (`--spill-mb` / `--spill-dir`): carried by
/// executor options, turned into one [`SpillConfig`] per barrier stage.
#[derive(Debug, Clone)]
pub struct SpillPolicy {
    /// Resident run-byte budget: when a newly completed run would push the
    /// heap-held run total past this, runs start spilling to disk.
    pub budget_bytes: usize,
    /// Directory for run files; `None` means the system temp dir.
    pub dir: Option<PathBuf>,
}

impl SpillPolicy {
    /// Derives a per-stage config with fresh metrics counters.
    pub fn stage_config(&self) -> SpillConfig {
        SpillConfig {
            budget_bytes: self.budget_bytes,
            dir: self.dir.clone().unwrap_or_else(std::env::temp_dir),
            metrics: Arc::new(SpillMetrics::default()),
        }
    }
}

/// One stage's spill configuration: a resolved directory plus shared
/// counters the executor snapshots into its timing log after the run.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Resident run-byte budget (see [`SpillPolicy::budget_bytes`]).
    pub budget_bytes: usize,
    /// Resolved run-file directory.
    pub dir: PathBuf,
    /// Live counters, shared between the fold (writer) and the executor
    /// (reader).
    pub metrics: Arc<SpillMetrics>,
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
