//! End-to-end measurement: the release binary, spawned on real files.
//!
//! One client, closed loop: a run starts when the previous one has been
//! reaped, and no run is given more worker threads than the host has
//! cores. Nothing here looks inside the program; the numbers are what a
//! user at a shell would see.

use crate::procfs::{run_child, ChildRun};
use crate::workloads::{Kind, Workload};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Where things are and how wide the host is.
pub struct Env {
    /// The `kumquat` release binary.
    pub kumquat: PathBuf,
    /// Scratch and results directory, inside the checkout.
    pub out: PathBuf,
    /// `W`: worker threads of the `wall_s` configuration (the core count).
    pub workers: usize,
    /// Divides every input size (`--quick`).
    pub size_divisor: usize,
}

/// A workload after set-up: input on disk, combiner cache warm,
/// reference output known.
pub struct Prepared {
    pub workload: &'static Workload,
    pub dir: PathBuf,
    /// The input file (run workloads).
    pub input: Option<PathBuf>,
    pub input_bytes: usize,
    /// The script as `kumquat` gets it (run workloads).
    pub script_text: String,
    script_file: PathBuf,
    pub cache: PathBuf,
    /// Bytes every sample's stdout must equal. For `synth-corpus`, the
    /// plan listing without its timing lines.
    pub reference: Vec<u8>,
    pub reference_source: Reference,
    /// The script for `sh`, when the host has the tools.
    sh_script: Option<PathBuf>,
    /// One value per repetition of the set-up.
    pub setup_s: Vec<f64>,
}

/// Where a workload's reference output came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    /// `LC_ALL=C sh <script>` with the system coreutils.
    Sh,
    /// The in-process serial oracle: the host lacks the tools.
    RunSerial,
    /// `synth-corpus`: the plan listing of the set-up's cold pass.
    ColdPass,
}

impl Reference {
    pub fn as_str(self) -> &'static str {
        match self {
            Reference::Sh => "sh",
            Reference::RunSerial => "run_serial",
            Reference::ColdPass => "cold-pass listing",
        }
    }
}

/// One timed run of the binary, and whether its output was right.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub run: ChildRun,
    pub correct: bool,
}

/// True when `sh` and every command the scripts use can be spawned.
pub fn host_has_coreutils() -> bool {
    Command::new("sh")
        .arg("-c")
        .arg("command -v cat tr sort uniq grep sed cut wc head >/dev/null")
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// The lines of a `corpus --plan` listing that do not hold a time.
pub fn plan_listing(stdout: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(stdout);
    let mut kept = String::new();
    for line in text.lines() {
        if line.ends_with("stages parallel") || line.starts_with("planned ") {
            kept.push_str(line);
            kept.push('\n');
        }
    }
    kept.into_bytes()
}

impl Env {
    /// `kumquat <subcommand...>` with the options every measured call
    /// shares. `--synth-workers` follows the worker count so that no call
    /// starts more threads than it was given.
    fn kumquat(&self, subcommand: &[&str], workers: usize, cache: &Path) -> Command {
        let mut cmd = Command::new(&self.kumquat);
        // Spill files default to the system temp directory; keep them in
        // the checkout without touching the `--spill-dir` default.
        cmd.env("TMPDIR", self.out.join("tmp"))
            .args(subcommand)
            .arg("--synth-workers")
            .arg(workers.to_string())
            .arg("--combiner-cache")
            .arg(cache);
        cmd
    }

    /// `--spill-mb` for a workload that spills, scaled like its input.
    pub fn spill_mb(&self, workload: &Workload) -> Option<usize> {
        match workload.kind {
            Kind::Run { spill_mb, .. } => spill_mb.map(|mb| (mb / self.size_divisor).max(1)),
            Kind::SynthCorpus => None,
        }
    }

    /// Sets a workload up `repetitions` times, timing each: generate the
    /// input from `seed`, write it, and plan the script against an empty
    /// combiner cache so the timed runs find it warm. `synth-corpus` has
    /// no input file; its set-up is one cold pass, whose plan listing
    /// becomes the reference.
    pub fn prepare(
        &self,
        workload: &'static Workload,
        seed: u64,
        repetitions: usize,
    ) -> Result<Prepared, String> {
        let dir = self.out.join("work").join(workload.name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::create_dir_all(self.out.join("tmp")).map_err(|e| e.to_string())?;
        let mut p = Prepared {
            workload,
            input: None,
            input_bytes: 0,
            script_text: String::new(),
            script_file: dir.join("script.kq"),
            cache: dir.join("combiners.v1"),
            reference: Vec::new(),
            reference_source: Reference::Sh,
            sh_script: None,
            setup_s: Vec::new(),
            dir,
        };
        for _ in 0..repetitions.max(1) {
            let started = Instant::now();
            let _ = std::fs::remove_file(&p.cache);
            match workload.kind {
                Kind::Run {
                    script,
                    input,
                    input_kib,
                    ..
                } => {
                    let path = p.dir.join("in.txt");
                    let bytes = input_kib * 1024 / self.size_divisor;
                    let text = input.generate(bytes, seed);
                    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
                    p.input_bytes = text.len();
                    p.script_text = script
                        .replace("{IN}", &path.display().to_string())
                        .replace("{OUT}", &p.dir.join("vfs").display().to_string());
                    std::fs::write(&p.script_file, &p.script_text).map_err(|e| e.to_string())?;
                    p.input = Some(path);
                    let mut plan = self.kumquat(&["plan"], self.workers, &p.cache);
                    plan.arg(&p.script_file).stdout(std::process::Stdio::null());
                    if !run_child(&mut plan).map_err(|e| e.to_string())?.success {
                        return Err(format!("{}: `kumquat plan` failed", workload.name));
                    }
                }
                Kind::SynthCorpus => {
                    let (sample, stdout) = self.sample_raw(&p, self.workers, None)?;
                    if !sample.success {
                        return Err("synth-corpus: `kumquat corpus --plan` failed".into());
                    }
                    p.reference = plan_listing(&stdout);
                    p.reference_source = Reference::ColdPass;
                }
            }
            p.setup_s.push(started.elapsed().as_secs_f64());
        }
        if !p.cache.is_file() {
            return Err(format!("{}: set-up left no combiner cache", workload.name));
        }
        Ok(p)
    }

    /// Fixes the reference output of a run workload: `LC_ALL=C sh` with
    /// the system coreutils when the host has them (returning that run as
    /// a `sh_wall_s` sample), else the caller's in-process serial output.
    pub fn reference_from_sh(&self, p: &mut Prepared) -> Result<Option<ChildRun>, String> {
        let Kind::Run { script, .. } = p.workload.kind else {
            return Ok(None);
        };
        if !host_has_coreutils() {
            return Ok(None);
        }
        let input = p.input.as_ref().expect("run workloads have an input");
        let out_dir = p.dir.join("sh-out");
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        let sh_script = p.dir.join("script.sh");
        let text = script
            .replace("{IN}", &input.display().to_string())
            .replace("{OUT}", &out_dir.display().to_string());
        std::fs::write(&sh_script, text).map_err(|e| e.to_string())?;
        p.sh_script = Some(sh_script);
        let (run, stdout) = self.sh_sample(p)?;
        p.reference = stdout;
        p.reference_source = Reference::Sh;
        Ok(Some(run))
    }

    /// One `LC_ALL=C sh <script>` run: the paper's `T_orig`.
    pub fn sh_sample(&self, p: &Prepared) -> Result<(ChildRun, Vec<u8>), String> {
        let script = p.sh_script.as_ref().expect("reference_from_sh ran");
        let out_path = p.dir.join("sh.out");
        let out = File::create(&out_path).map_err(|e| e.to_string())?;
        let mut cmd = Command::new("sh");
        cmd.arg(script)
            .env("LC_ALL", "C")
            .env("TMPDIR", self.out.join("tmp"))
            .stdout(out);
        let run = run_child(&mut cmd).map_err(|e| e.to_string())?;
        if !run.success {
            return Err(format!("{}: the sh reference failed", p.workload.name));
        }
        let stdout = std::fs::read(&out_path).map_err(|e| e.to_string())?;
        Ok((run, stdout))
    }

    /// Runs the binary once on the prepared workload, stdout to a file.
    fn sample_raw(
        &self,
        p: &Prepared,
        workers: usize,
        trace_out: Option<&Path>,
    ) -> Result<(ChildRun, Vec<u8>), String> {
        let out_path = p.dir.join("run.out");
        let out = File::create(&out_path).map_err(|e| e.to_string())?;
        let mut cmd = match p.workload.kind {
            Kind::Run { .. } => {
                let mut cmd = self.kumquat(&["run"], workers, &p.cache);
                cmd.arg(&p.script_file)
                    .arg("--no-verify")
                    .arg("--workers")
                    .arg(workers.to_string());
                if let Some(mb) = self.spill_mb(p.workload) {
                    cmd.arg("--spill-mb").arg(mb.to_string());
                }
                if let Some(path) = trace_out {
                    cmd.arg("--trace-out").arg(path);
                }
                cmd
            }
            Kind::SynthCorpus => {
                // Cold on every run: synthesis is the workload.
                let _ = std::fs::remove_file(&p.cache);
                self.kumquat(&["corpus", "--plan"], workers, &p.cache)
            }
        };
        cmd.stdout(out);
        let run = run_child(&mut cmd).map_err(|e| e.to_string())?;
        let stdout = std::fs::read(&out_path).map_err(|e| e.to_string())?;
        Ok((run, stdout))
    }

    /// One timed run, checked against the reference.
    pub fn sample(
        &self,
        p: &Prepared,
        workers: usize,
        trace_out: Option<&Path>,
    ) -> Result<Sample, String> {
        let (run, stdout) = self.sample_raw(p, workers, trace_out)?;
        let produced = match p.workload.kind {
            Kind::Run { .. } => stdout,
            Kind::SynthCorpus => plan_listing(&stdout),
        };
        Ok(Sample {
            run,
            correct: run.success && produced == p.reference,
        })
    }

    /// `kumquat help`: process start and exit, nothing else.
    pub fn spawn_sample(&self) -> Result<ChildRun, String> {
        let mut cmd = Command::new(&self.kumquat);
        cmd.arg("help").stdout(std::process::Stdio::null());
        run_child(&mut cmd).map_err(|e| e.to_string())
    }
}

/// Keeps every core busy for a second, so that measuring starts from the
/// same machine state whatever ran before. After about a minute of idling
/// this guest runs a program whose threads mostly take turns (`freq-fold`
/// at `--workers 2`) on one core only, 25% slower, and goes on doing so
/// for minutes, until something has kept both cores busy for a second or
/// so (README, "Hazards"). A shorter burst does not do it.
pub fn wake_cores(workers: usize) {
    let until = Instant::now() + std::time::Duration::from_secs(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// The samples of one end-to-end measurement of one workload.
#[derive(Default)]
pub struct Measured {
    /// Runs at `--workers W`.
    pub wide: Vec<Sample>,
    /// Runs at `--workers 1`.
    pub narrow: Vec<Sample>,
    /// `sh` runs, the first being the one that fixed the reference.
    pub sh: Vec<ChildRun>,
}

impl Env {
    /// Alternates the configurations round-robin (`W`, `1`, and `sh` every
    /// third round until it has three samples) until `seconds` have
    /// passed, so a slow minute of the host lands on all of them alike.
    /// With `single_sample`, takes one run of each and stops.
    pub fn measure(
        &self,
        p: &Prepared,
        seconds: f64,
        single_sample: bool,
        first_sh: Option<ChildRun>,
    ) -> Result<Measured, String> {
        let mut m = Measured {
            sh: first_sh.into_iter().collect(),
            ..Measured::default()
        };
        let started = Instant::now();
        for round in 0.. {
            m.wide.push(self.sample(p, self.workers, None)?);
            m.narrow.push(self.sample(p, 1, None)?);
            if single_sample {
                break;
            }
            if round % 3 == 2 && p.sh_script.is_some() && m.sh.len() < 3 {
                m.sh.push(self.sh_sample(p)?.0);
            }
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_listing_keeps_plans_and_drops_timings() {
        let stdout = b"     oneliners  wf.sh            4/5 stages parallel\n\
                       synthesis: 58 command(s) synthesized in 1234.5 ms\n\
                       \x20   12.3 ms  sort\n\
                       planned 70 script(s); synthesis rounds: 163; lattice short-circuits: 70\n";
        assert_eq!(
            String::from_utf8(plan_listing(stdout)).unwrap(),
            "     oneliners  wf.sh            4/5 stages parallel\n\
             planned 70 script(s); synthesis rounds: 163; lattice short-circuits: 70\n"
        );
    }
}
