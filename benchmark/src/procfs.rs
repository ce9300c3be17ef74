//! Running one child process and measuring it through `/proc`.
//!
//! The harness may not call `getrusage` or `wait4` (the repository's
//! inventory test allows foreign calls only in `kq-io`, `kq-stream` and
//! the shims), so CPU time and peak memory of a child come from procfs:
//!
//! * CPU time is the change of `cutime + cstime` in `/proc/self/stat`
//!   across the `wait` that reaps the child. The kernel reports it in
//!   clock ticks of 10 ms, so one sample is that coarse.
//! * Peak resident set is the largest `VmHWM` seen in
//!   `/proc/<pid>/status`, read every [`POLL`] while the child runs.
//!   `VmHWM` never decreases, so a poll misses only growth during the
//!   last `POLL` before the child exits.

use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How often the child's `VmHWM` is read.
pub const POLL: Duration = Duration::from_millis(10);

/// `USER_HZ`: ticks per second in `/proc/*/stat`. It is 100 on every
/// Linux architecture this repository builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// What one run of a child process cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub success: bool,
}

/// `cutime + cstime` of a `/proc/<pid>/stat` line, in ticks. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_children_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3; cutime and cstime are fields 16, 17.
    let mut fields = after_comm.split_ascii_whitespace().skip(13);
    let cutime: u64 = fields.next()?.parse().ok()?;
    let cstime: u64 = fields.next()?.parse().ok()?;
    Some(cutime + cstime)
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `MemTotal` of `/proc/meminfo`, in kB.
pub fn parse_mem_total_kb(meminfo: &str) -> Option<u64> {
    let line = meminfo.lines().find_map(|l| l.strip_prefix("MemTotal:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// The `steal` column of the first line of `/proc/stat`, in ticks: time
/// the hypervisor ran something else while this machine had work.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    cpu.split_ascii_whitespace().nth(7)?.parse().ok()
}

/// Seconds stolen from this machine since it booted.
pub fn host_steal_s() -> f64 {
    let ticks = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| parse_steal_ticks(&s))
        .unwrap_or(0);
    ticks as f64 / TICKS_PER_SECOND
}

fn children_ticks() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_children_ticks(&s))
        .expect("/proc/self/stat is readable on Linux")
}

/// Spawns `command` with stdin closed and stderr dropped, waits for it,
/// and measures it. The caller has already pointed stdout somewhere.
/// Calls must not overlap: `cutime` counts every child reaped meanwhile.
pub fn run_child(command: &mut Command) -> std::io::Result<ChildRun> {
    command.stdin(Stdio::null()).stderr(Stdio::null());
    let ticks_before = children_ticks();
    let started = Instant::now();
    let mut child = command.spawn()?;
    let status_path = format!("/proc/{}/status", child.id());
    let (exited, poller_wakes) = mpsc::channel::<()>();
    let (status, wall_s, peak_kb) = std::thread::scope(|scope| {
        let poller = scope.spawn(move || {
            let mut peak_kb = 0u64;
            loop {
                // A zombie has no VmHWM line and a reaped child no file:
                // both read as "no new value".
                if let Some(kb) = std::fs::read_to_string(&status_path)
                    .ok()
                    .and_then(|s| parse_vm_hwm_kb(&s))
                {
                    peak_kb = peak_kb.max(kb);
                }
                match poller_wakes.recv_timeout(POLL) {
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    _ => return peak_kb,
                }
            }
        });
        let status = child.wait();
        let wall_s = started.elapsed().as_secs_f64();
        drop(exited);
        let peak_kb = poller.join().expect("the poller does not panic");
        (status, wall_s, peak_kb)
    });
    let ticks = children_ticks() - ticks_before;
    Ok(ChildRun {
        wall_s,
        cpu_s: ticks as f64 / TICKS_PER_SECOND,
        peak_rss_mb: peak_kb as f64 / 1024.0,
        success: status?.success(),
    })
}

/// Cores, memory and kernel of the machine the numbers were taken on.
pub struct Host {
    pub cores: usize,
    pub mem_mb: u64,
    pub kernel: String,
}

pub fn host() -> Host {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    Host {
        cores: std::thread::available_parallelism().map_or(1, usize::from),
        mem_mb: parse_mem_total_kb(&read("/proc/meminfo")).unwrap_or(0) / 1024,
        kernel: read("/proc/sys/kernel/osrelease").trim().to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_ticks_skip_a_command_name_with_spaces_and_parens() {
        let stat = "4242 (my (odd) name) S 1 4242 4242 0 -1 4194560 1500 77000 0 3 \
                    11 22 345 67 20 0 3 0 123456 1000000 250 18446744073709551615";
        assert_eq!(parse_children_ticks(stat), Some(345 + 67));
        assert_eq!(parse_children_ticks("garbage"), None);
        assert_eq!(parse_children_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_mem_total_and_steal_parse_their_lines() {
        let status =
            "Name:\tkumquat\nVmPeak:\t  900000 kB\nVmHWM:\t  382976 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(382_976));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\nState:\tZ (zombie)\n"), None);
        let meminfo = "MemTotal:       16482304 kB\nMemFree:        15000000 kB\n";
        assert_eq!(parse_mem_total_kb(meminfo), Some(16_482_304));
        let stat = "cpu  316659 0 41198 485670 3364 0 1039 19278 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(19_278));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3"), None);
    }

    #[test]
    fn a_child_run_reports_wall_cpu_and_peak_memory() {
        // `sh` burns a little CPU in a loop so every figure is positive.
        let mut cmd = Command::new("sh");
        cmd.arg("-c")
            .arg("i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done")
            .stdout(Stdio::null());
        let run = run_child(&mut cmd).unwrap();
        assert!(run.success);
        assert!(run.wall_s > 0.0);
        assert!(run.cpu_s > 0.0 && run.cpu_s < run.wall_s + 0.05, "{run:?}");
        assert!(run.peak_rss_mb > 0.1, "{run:?}");

        let mut failing = Command::new("sh");
        failing.arg("-c").arg("exit 3").stdout(Stdio::null());
        assert!(!run_child(&mut failing).unwrap().success);
    }
}
