//! The measured-cost scheduler.
//!
//! The paper's performance tables (Tables 1, 4–7) report wall-clock times
//! on an 80-core server. This reproduction runs on whatever host it gets —
//! possibly a single core — so parallel wall-clock is computed, not raced:
//! the executors measure every piece's actual duration, and this module
//! replays those measurements on `w` virtual workers:
//!
//! * **staged/unoptimized** (`u_w`): every stage is a barrier —
//!   `Σ_stages (spawn + max_piece + combine)`;
//! * **optimized** (`T_w`): runs of combiner-eliminated stages fuse — each
//!   virtual worker executes its chain of pieces back to back, so the
//!   segment costs `max_over_workers(Σ chain) + final combine`, which also
//!   reproduces the paper's super-linear speedups from cross-stage overlap;
//! * **pipelined original** (`T_orig`): the shell's natural streaming
//!   overlap, modelled as a chunked wavefront over the serial stage times.
//!
//! Per-stage spawn overhead models process startup; it is what makes the
//! paper's sub-second scripts *slow down* under parallelisation (Table 4's
//! `0.5×` rows).

use crate::exec::TimingLog;
use std::time::Duration;

/// Cost-model parameters.
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Virtual worker count `w`.
    pub workers: usize,
    /// Fixed overhead per stage invocation (process spawn, pipe setup).
    pub spawn_base: Duration,
    /// Additional overhead per worker instance of a parallel stage.
    pub per_worker: Duration,
    /// Chunk count for the pipelined-overlap model of `T_orig`.
    pub chunks: usize,
}

impl SimParams {
    /// Parameters for a `w`-way schedule with the default overheads
    /// (process spawn and pipe setup, scaled to the in-process stage
    /// costs of the scaled-down corpus; the paper's sub-second scripts
    /// slow down under parallelisation for the same structural reason).
    pub fn with_workers(workers: usize) -> SimParams {
        SimParams {
            workers,
            spawn_base: Duration::from_micros(300),
            per_worker: Duration::from_micros(60),
            chunks: 16,
        }
    }

    fn spawn_cost(&self, instances: usize) -> Duration {
        self.spawn_base + self.per_worker * instances as u32
    }
}

/// Scheduled times for one script execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineCosts {
    /// Virtual wall-clock of the schedule.
    pub wall: Duration,
    /// Total work (sum over all pieces and combines).
    pub work: Duration,
}

fn max_piece(times: &[Duration]) -> Duration {
    times.iter().copied().max().unwrap_or(Duration::ZERO)
}

/// Staged schedule: barrier after every stage (`u_w` when the log was
/// recorded with elimination off, and the serial `u_1` at one worker).
pub fn staged_time(log: &TimingLog, params: &SimParams) -> PipelineCosts {
    let mut wall = Duration::ZERO;
    let mut work = Duration::ZERO;
    for stages in &log.statements {
        for st in stages {
            work += st.total_work();
            if st.parallel {
                wall += params.spawn_cost(st.piece_times.len())
                    + max_piece(&st.piece_times)
                    + st.combine_time;
            } else {
                wall += params.spawn_cost(1) + max_piece(&st.piece_times);
            }
        }
    }
    PipelineCosts { wall, work }
}

/// Optimized schedule: consecutive eliminated stages fuse into worker
/// chains (`T_w`). The log must come from a `honor_elimination = true`
/// execution so eliminated stages carry split outputs.
pub fn optimized_time(log: &TimingLog, params: &SimParams) -> PipelineCosts {
    let mut wall = Duration::ZERO;
    let mut work = Duration::ZERO;
    for stages in &log.statements {
        let mut i = 0;
        while i < stages.len() {
            let st = &stages[i];
            work += st.total_work();
            if !st.parallel {
                wall += params.spawn_cost(1) + max_piece(&st.piece_times);
                i += 1;
                continue;
            }
            // Collect the fused segment: this stage plus all following
            // stages reached through eliminated combiners.
            let mut segment = vec![st];
            let mut j = i;
            while stages[j].eliminated && j + 1 < stages.len() && stages[j + 1].parallel {
                j += 1;
                segment.push(&stages[j]);
                work += stages[j].total_work();
            }
            // Per-worker chain time: worker p executes piece p of every
            // stage in the segment back to back.
            let width = segment
                .iter()
                .map(|s| s.piece_times.len())
                .max()
                .unwrap_or(1);
            let mut chain_max = Duration::ZERO;
            for p in 0..width {
                let chain: Duration = segment
                    .iter()
                    .map(|s| s.piece_times.get(p).copied().unwrap_or(Duration::ZERO))
                    .sum();
                chain_max = chain_max.max(chain);
            }
            let combine = segment
                .last()
                .map(|s| s.combine_time)
                .unwrap_or(Duration::ZERO);
            wall += params.spawn_cost(width * segment.len()) + chain_max + combine;
            i = j + 1;
        }
    }
    PipelineCosts { wall, work }
}

/// Pipelined-overlap schedule for the original script (`T_orig`): the
/// shell runs all stages concurrently, streaming through pipes. Modelled
/// as a wavefront over `chunks` input chunks, where stage `s` processes
/// chunk `c` after stage `s-1` finished chunk `c` and stage `s` finished
/// chunk `c-1`. The log should come from a serial run (one piece per
/// stage).
pub fn pipelined_time(log: &TimingLog, params: &SimParams) -> PipelineCosts {
    let chunks = params.chunks.max(1) as u32;
    let mut wall = Duration::ZERO;
    let mut work = Duration::ZERO;
    for stages in &log.statements {
        let times: Vec<Duration> = stages
            .iter()
            .map(|s| {
                work += s.total_work();
                s.piece_times.iter().copied().sum::<Duration>() + s.combine_time
            })
            .collect();
        if times.is_empty() {
            continue;
        }
        // completion[s] tracks the finish time of the chunk most recently
        // produced by stage s.
        let mut completion: Vec<Duration> = vec![params.spawn_cost(1); times.len()];
        for _chunk in 0..chunks {
            let mut upstream = Duration::ZERO;
            for (s, t) in times.iter().enumerate() {
                let ready = completion[s].max(upstream);
                completion[s] = ready + *t / chunks;
                upstream = completion[s];
            }
        }
        wall += completion[times.len() - 1];
    }
    PipelineCosts { wall, work }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::StageTiming;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn stage(parallel: bool, eliminated: bool, pieces: &[u64], combine: u64) -> StageTiming {
        StageTiming {
            label: "t".to_owned(),
            parallel,
            eliminated,
            piece_times: pieces.iter().map(|&n| ms(n)).collect(),
            combine_time: ms(combine),
            bytes_in: 0,
            bytes_out: 0,
            early_exit: None,
            queue: None,
            spill: None,
        }
    }

    fn log(stages: Vec<StageTiming>) -> TimingLog {
        TimingLog {
            statements: vec![stages],
            adaptive: None,
        }
    }

    fn params(w: usize) -> SimParams {
        SimParams {
            workers: w,
            spawn_base: Duration::ZERO,
            per_worker: Duration::ZERO,
            chunks: 4,
        }
    }

    #[test]
    fn staged_sums_barriers() {
        let l = log(vec![
            stage(true, false, &[10, 20, 15], 5),
            stage(false, false, &[40], 0),
        ]);
        let c = staged_time(&l, &params(3));
        assert_eq!(c.wall, ms(20 + 5 + 40));
        assert_eq!(c.work, ms(10 + 20 + 15 + 5 + 40));
    }

    #[test]
    fn optimized_fuses_eliminated_chains() {
        // Two fused parallel stages: worker chains are 10+30 and 20+10;
        // the segment costs max(40, 30) + final combine 5.
        let l = log(vec![
            stage(true, true, &[10, 20], 0),
            stage(true, false, &[30, 10], 5),
        ]);
        let c = optimized_time(&l, &params(2));
        assert_eq!(c.wall, ms(40 + 5));
        // Unfused (staged) would be 20 + 30 + 5 = 55.
        let u = staged_time(&l, &params(2));
        assert_eq!(u.wall, ms(55));
    }

    #[test]
    fn fused_chain_can_beat_stagewise_barriers() {
        // Complementary skew: barriers pay both maxima; fusion overlaps.
        let l = log(vec![
            stage(true, true, &[50, 10], 0),
            stage(true, false, &[10, 50], 0),
        ]);
        assert_eq!(optimized_time(&l, &params(2)).wall, ms(60));
        assert_eq!(staged_time(&l, &params(2)).wall, ms(100));
    }

    #[test]
    fn pipelined_is_between_max_and_sum() {
        let l = log(vec![
            stage(false, false, &[40], 0),
            stage(false, false, &[40], 0),
            stage(false, false, &[40], 0),
        ]);
        let p = pipelined_time(&l, &params(1));
        let serial = ms(120);
        let ideal = ms(40);
        assert!(
            p.wall < serial,
            "pipelined {:?} not faster than serial",
            p.wall
        );
        assert!(
            p.wall > ideal,
            "pipelined {:?} beats the bottleneck",
            p.wall
        );
    }

    #[test]
    fn pipelined_dominated_by_bottleneck_stage() {
        let balanced = log(vec![
            stage(false, false, &[30], 0),
            stage(false, false, &[30], 0),
        ]);
        let skewed = log(vec![
            stage(false, false, &[55], 0),
            stage(false, false, &[5], 0),
        ]);
        // Same total work; the skewed pipeline overlaps less.
        let b = pipelined_time(&balanced, &params(1)).wall;
        let s = pipelined_time(&skewed, &params(1)).wall;
        assert!(s > b, "skewed {s:?} should exceed balanced {b:?}");
    }

    #[test]
    fn spawn_overhead_penalizes_tiny_stages() {
        let l = log(vec![stage(true, false, &[1, 1, 1, 1], 0)]);
        let mut p = SimParams::with_workers(4);
        p.spawn_base = ms(5);
        p.per_worker = ms(1);
        let c = staged_time(&l, &p);
        // 5 + 4*1 + 1 = 10ms for 1ms of per-piece work: a slowdown, as in
        // the paper's sub-second scripts.
        assert_eq!(c.wall, ms(10));
    }

    #[test]
    fn empty_log_costs_nothing() {
        let c = staged_time(&TimingLog::default(), &params(4));
        assert_eq!(c.wall, Duration::ZERO);
        assert_eq!(c.work, Duration::ZERO);
    }
}
