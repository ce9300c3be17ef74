//! # KumQuat — automatic synthesis of parallel Unix commands and pipelines
//!
//! A faithful Rust reproduction of the PPoPP 2022 paper *"Automatic
//! Synthesis of Parallel Unix Commands and Pipelines with KumQuat"* (Shen,
//! Rinard, Vasilakis).
//!
//! KumQuat takes a shell pipeline, treats every command `f` as a black
//! box, and automatically *synthesizes* the combiner `g` satisfying the
//! divide-and-conquer equation
//!
//! ```text
//! f(x1 ++ x2) = g(f(x1), f(x2))        for all input streams x1, x2
//! ```
//!
//! With combiners in hand it compiles the pipeline into a data-parallel
//! version: split the input into `w` line-aligned substreams, run `w`
//! instances of each command, and combine — eliminating intermediate
//! combiners where concatenation makes that sound (Theorem 5).
//!
//! ## Quick start
//!
//! ```
//! use kumquat::Kumquat;
//!
//! // Synthesize a combiner for one command.
//! let mut kq = Kumquat::new();
//! let report = kq.synthesize_command("wc -l").unwrap();
//! assert_eq!(
//!     report.combiner().unwrap().primary().to_string(),
//!     "((back '\\n' add) a b)"
//! );
//!
//! // Parallelize a whole pipeline and run it.
//! kq.write_file("/input.txt", "b\na\nb\nc\na\nb\n");
//! let run = kq
//!     .parallelize_and_run("cat /input.txt | sort | uniq -c", 4)
//!     .unwrap();
//! assert_eq!(run.output, "      2 a\n      3 b\n      1 c\n");
//! assert_eq!(run.parallelized, (2, 2)); // both stages parallelized
//! ```
//!
//! The heavy lifting lives in the sub-crates, re-exported here:
//! [`dsl`] (combiner language), [`synth`] (the synthesis algorithms),
//! [`pipeline`] (parsing/planning/execution), [`coreutils`] (the
//! in-process command substrate), [`pattern`] (the BRE engine), and
//! [`stream`] (the stream model).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub use kq_coreutils as coreutils;
pub use kq_dsl as dsl;
pub use kq_pattern as pattern;
pub use kq_pipeline as pipeline;
pub use kq_stream as stream;
pub use kq_synth as synth;

use kq_coreutils::{Bytes, CmdError, ExecContext};
use kq_pipeline::exec::run_serial;
use kq_pipeline::parse::{parse_script, Script};
use kq_pipeline::plan::{planning_sample, PlannedScript, Planner};
use kq_pipeline::{run_dataflow, DataflowOptions};
use kq_synth::{SynthesisConfig, SynthesisReport};
use std::collections::HashMap;

/// The result of parallelizing and running a script.
#[derive(Debug)]
pub struct ParallelRun {
    /// The pipeline's output (verified equal to the serial output).
    pub output: Bytes,
    /// `(parallelized, total)` stage counts.
    pub parallelized: (usize, usize),
    /// Intermediate combiners eliminated by the Theorem 5 optimization.
    pub eliminated: usize,
}

/// The top-level façade: an execution context (virtual filesystem), a
/// synthesis configuration, and a per-command combiner cache.
pub struct Kumquat {
    /// Execution context shared by probes, synthesis, and pipeline runs.
    pub ctx: ExecContext,
    config: SynthesisConfig,
    planner: Planner,
    env: HashMap<String, String>,
}

impl Kumquat {
    /// A fresh instance with default synthesis settings.
    pub fn new() -> Kumquat {
        Kumquat::with_config(SynthesisConfig::default())
    }

    /// A fresh instance with explicit synthesis settings.
    pub fn with_config(config: SynthesisConfig) -> Kumquat {
        Kumquat {
            ctx: ExecContext::default(),
            planner: Planner::new(config.clone()),
            config,
            env: HashMap::new(),
        }
    }

    /// Writes a file into the virtual filesystem visible to pipelines.
    /// Accepts anything convertible to shared [`stream::Bytes`]; handing
    /// in a `Bytes` stores the slice without copying.
    pub fn write_file(&self, path: impl Into<String>, content: impl Into<kq_stream::Bytes>) {
        self.ctx.vfs.write(path, content);
    }

    /// Sets a shell variable for script parsing (`$IN` etc.).
    pub fn set_var(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.env.insert(name.into(), value.into());
    }

    /// Synthesizes a combiner for a single command line (Figure 2's middle
    /// box; Algorithm 1).
    pub fn synthesize_command(&mut self, command_line: &str) -> Result<SynthesisReport, CmdError> {
        let command = kq_coreutils::parse_command(command_line)?;
        Ok(kq_synth::synthesize(&command, &self.ctx, &self.config))
    }

    /// Parses a script against the configured variables.
    pub fn parse(&self, script_text: &str) -> Result<Script, CmdError> {
        parse_script(script_text, &self.env).map_err(CmdError::from)
    }

    /// Parses, plans, and executes a script on the dataflow executor with a
    /// pool of `workers` threads, verifying the parallel output against the
    /// serial one.
    pub fn parallelize_and_run(
        &mut self,
        script_text: &str,
        workers: usize,
    ) -> Result<ParallelRun, CmdError> {
        let script = self.parse(script_text)?;
        let serial = run_serial(&script, &self.ctx)?;
        let plan = self.plan(&script)?;
        let opts = DataflowOptions {
            workers,
            ..DataflowOptions::default()
        };
        let parallel = run_dataflow(&script, &plan, &self.ctx, &opts)?;
        if parallel.output != serial.output {
            return Err(CmdError::new(
                "kumquat",
                "parallel output diverged from serial output (combiner bug)",
            ));
        }
        Ok(ParallelRun {
            output: parallel.output,
            parallelized: plan.parallelized_counts(),
            eliminated: plan.eliminated_count(),
        })
    }

    /// Plans a parsed script (synthesizing combiners as needed).
    pub fn plan(&mut self, script: &Script) -> Result<PlannedScript, CmdError> {
        let sample = planning_sample(script, &self.ctx);
        Ok(self.planner.plan(script, &self.ctx, &sample))
    }

    /// Synthesis reports accumulated so far (one per unique command).
    pub fn reports(&self) -> &[SynthesisReport] {
        &self.planner.reports
    }

    /// Unique commands whose combiner came from the static effect
    /// lattice instead of dynamic synthesis (no report is produced).
    pub fn lattice_short_circuits(&self) -> usize {
        self.planner.lattice_short_circuits
    }
}

impl Default for Kumquat {
    fn default() -> Self {
        Kumquat::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The planning sample is cut at 64 KiB; a multi-byte character that
    /// straddles the cut is left out whole instead of split mid-character.
    #[test]
    fn planning_a_file_with_a_character_across_the_sample_cut_does_not_panic() {
        let mut kq = Kumquat::new();
        let mut text = "a".repeat(65_535);
        text.push_str("é\n");
        kq.write_file("/in", text);
        let run = kq.parallelize_and_run("cat /in | wc -l", 2).unwrap();
        assert_eq!(run.output, "1\n");
    }
}
