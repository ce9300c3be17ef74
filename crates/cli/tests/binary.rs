//! Black-box tests of the `kumquat` binary itself: spawn the real
//! executable (via `CARGO_BIN_EXE_kumquat`) and check its stdout, stderr,
//! and exit codes — what a packaging smoke test would cover.

use std::process::Command;

fn kumquat() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kumquat"))
}

#[test]
fn help_exits_zero_with_usage() {
    let out = kumquat().arg("help").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kumquat synthesize"));
    assert!(stdout.contains("kumquat emit"));
}

#[test]
fn unknown_subcommand_exits_nonzero() {
    let out = kumquat().arg("fnord").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn removed_executor_options_exit_two_saying_there_is_one_executor() {
    for (option, value) in [("--exec", "streaming"), ("--executor", "dataflow")] {
        let out = kumquat()
            .args(["run", "cat /absent | sort", option, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{option} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{option} was removed: kumquat has one executor")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn synthesize_prints_report_on_stdout() {
    let out = kumquat().args(["synthesize", "wc -l"]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(back '\\n' add)"), "got: {stdout}");
    assert!(stdout.contains("search space:"));
}

#[test]
fn run_streams_pipeline_output_and_notes_to_stderr() {
    let dir = std::env::temp_dir().join(format!("kq-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("data.txt");
    std::fs::write(&input, "pear\napple\npear\n".repeat(30)).unwrap();
    let script = format!("cat {} | sort | uniq -c", input.display());
    let out = kumquat()
        .args(["run", &script, "--workers", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("     30 apple\n"), "got: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("verified"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_planners_share_one_combiner_cache_without_losing_entries() {
    // Two *processes* plan different scripts against the same on-disk
    // combiner cache at the same time. Both load a cold store; without
    // the flock'd read-merge-write in CombinerCache::save the second
    // rename would silently discard the first process's entries. A third
    // process planning the union of both scripts must then validate
    // everything out of the store and synthesize nothing.
    let dir = std::env::temp_dir().join(format!("kq-bin-cachelock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.txt");
    std::fs::write(&input, "a x\nb y\na z\nc w\n".repeat(50)).unwrap();
    let cache = dir.join("combiners.v1");
    let cache_arg = cache.display().to_string();
    let script_a = format!("cat {} | grep a | wc -l", input.display());
    let script_b = format!("cat {} | sort | uniq -c", input.display());

    let mut children: Vec<std::process::Child> = [&script_a, &script_b]
        .iter()
        .map(|script| {
            kumquat()
                .args(["plan", script, "--combiner-cache", &cache_arg])
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn()
                .unwrap()
        })
        .collect();
    for child in children.drain(..) {
        let out = child.wait_with_output().unwrap();
        assert!(
            out.status.success(),
            "planner failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let union = dir.join("union.sh");
    std::fs::write(&union, format!("{script_a}\n{script_b}\n")).unwrap();
    let out = kumquat()
        .args([
            "plan",
            &union.display().to_string(),
            "--combiner-cache",
            &cache_arg,
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 command(s) synthesized"),
        "a concurrent save lost cache entries: {stdout}"
    );
    // grep short-circuits on the effect lattice (never persisted); the
    // three synthesized combiners all validate out of the shared store.
    assert!(stdout.contains("(3 validated"), "got: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn emit_then_sh_round_trip() {
    let dir = std::env::temp_dir().join(format!("kq-bin-emit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("log.txt"), "b 1\na 2\nb 3\n".repeat(20)).unwrap();
    // Relative path in the script so the emitted sh runs inside `dir`.
    let out = kumquat()
        .args([
            "emit",
            "cat log.txt | cut -d ' ' -f 1 | sort | uniq -c",
            "--workers",
            "3",
        ])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::write(dir.join("par.sh"), &out.stdout).unwrap();
    let sh = Command::new("sh").arg("par.sh").current_dir(&dir).output();
    let Ok(sh) = sh else {
        eprintln!("skipping sh round trip: no sh on host");
        return;
    };
    assert!(
        sh.status.success(),
        "emitted script failed: {}",
        String::from_utf8_lossy(&sh.stderr)
    );
    let stdout = String::from_utf8_lossy(&sh.stdout);
    assert!(stdout.contains("     20 a\n"), "got: {stdout}");
    assert!(stdout.contains("     40 b\n"), "got: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}
