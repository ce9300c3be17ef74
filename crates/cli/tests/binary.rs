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
fn removed_executor_options_exit_two_under_every_subcommand() {
    for subcommand in ["plan", "check", "emit"] {
        for option in ["--exec=dataflow", "--executor=dataflow"] {
            let out = kumquat()
                .args([subcommand, "cat /absent | sort", option])
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(2), "{subcommand} {option}");
            let name = option.split('=').next().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("{name} was removed: kumquat has one executor")),
                "{subcommand} {option}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{subcommand} {option}");
        }
    }
}

#[test]
fn a_misspelt_option_exits_two_naming_it() {
    for (words, name) in [
        (&["--wrokers=8", "--no-verify"][..], "--wrokers"),
        (&["--no-verfy"], "--no-verfy"),
        (&["--rerun-threshold", "0.5"], "--rerun-threshold"),
    ] {
        let out = kumquat()
            .args(["run", "cat /absent | sort"])
            .args(words)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{words:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("kumquat: unknown option {name}\n")),
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

/// The tail of Figure 1 as one fold: `sort | uniq -c | sort -rn` (and
/// every spelling of a numeric sort after a counting pair) run with
/// parallelism and without it prints the same bytes — the bytes
/// `LC_ALL=C sh` prints where the host's `sort` can be spawned — and the
/// run says on stderr that the counting fold closed in count order.
#[test]
fn count_order_tails_print_the_same_at_one_worker_and_two() {
    let dir = std::env::temp_dir().join(format!("kq-bin-count-order-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("words.txt");
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut words = String::new();
    for _ in 0..20_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (state >> 33) as usize;
        // A few frequent words, leading blanks and digits, many rare ones.
        let word = match r % 4 {
            0 => format!("the{}", r % 5),
            1 => format!(" {} lead", r % 90),
            2 => format!("{}w", r % 700),
            _ => format!("rare{}", r % 6_000),
        };
        words.push_str(&word);
        words.push('\n');
    }
    std::fs::write(&input, words).unwrap();
    let has_sort = Command::new("sort")
        .arg("--version")
        .output()
        .is_ok_and(|o| o.status.success());
    for (pair, tail) in [
        ("sort", "sort -rn"),
        ("sort", "sort -nr"),
        ("sort", "sort -k1nr"),
        ("sort", "sort -k1,1n"),
        ("sort -r", "sort -k1n -r"),
        ("sort -r", "sort -n"),
    ] {
        let script = format!("cat {} | {pair} | uniq -c | {tail}", input.display());
        let fold =
            format!("counting fold: s1 stages 1-3 '{pair} | uniq -c | {tail}' (count order)");
        let mut outputs = Vec::new();
        for workers in ["1", "2"] {
            let out = kumquat()
                .args(["run", &script, "--workers", workers, "--chunk-kb", "16"])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{script} at {workers}: {stderr}");
            assert!(stderr.contains(&fold), "{script} at {workers}: {stderr}");
            assert!(
                stderr.contains("verified"),
                "{script} at {workers}: {stderr}"
            );
            outputs.push(out.stdout);
        }
        assert!(
            outputs[0] == outputs[1],
            "{script}: --workers 1 and 2 differ"
        );
        if has_sort {
            let sh = Command::new("sh")
                .args(["-c", &script])
                .env("LC_ALL", "C")
                .output()
                .unwrap();
            assert!(sh.status.success());
            assert!(
                sh.stdout == outputs[0],
                "{script}: differs from LC_ALL=C sh"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `cut` through the binary — alone, with a disjoint field list, by
/// characters, and as the map ahead of Figure 1's counting tail — prints
/// the same bytes at one worker and two, and the bytes `LC_ALL=C sh`
/// prints where the host has `cut` and `sort`.
#[test]
fn cut_pipelines_print_the_same_at_one_worker_and_two() {
    let dir = std::env::temp_dir().join(format!("kq-bin-cut-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("fields.txt");
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut text = String::new();
    for i in 0..30_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (state >> 33) as usize;
        // Mostly four fields; now and then a line without the delimiter
        // or with an empty field.
        match i % 50 {
            0 => text.push_str("no-delimiter-here\n"),
            1 => text.push_str(&format!(" lead{} {}\n", r % 9, r % 70)),
            _ => text.push_str(&format!("w{} k{} {} tail{}\n", r % 40, r % 300, r, r % 7)),
        }
    }
    std::fs::write(&input, text).unwrap();
    let host_has = |program: &str| {
        Command::new(program)
            .arg("--version")
            .output()
            .is_ok_and(|o| o.status.success())
    };
    let has_coreutils = host_has("cut") && host_has("sort");
    let file = input.display();
    for script in [
        format!("cat {file} | cut -d ' ' -f 1"),
        format!("cat {file} | cut -d ' ' -f 1,3"),
        format!("cat {file} | cut -c 1-4"),
        format!("cat {file} | cut -d ' ' -f 2 | sort | uniq -c | sort -rn"),
    ] {
        let mut outputs = Vec::new();
        for workers in ["1", "2"] {
            let out = kumquat()
                .args(["run", &script, "--workers", workers, "--chunk-kb", "16"])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{script} at {workers}: {stderr}");
            assert!(
                stderr.contains("verified"),
                "{script} at {workers}: {stderr}"
            );
            assert!(!out.stdout.is_empty(), "{script} at {workers}");
            outputs.push(out.stdout);
        }
        assert!(
            outputs[0] == outputs[1],
            "{script}: --workers 1 and 2 differ"
        );
        if has_coreutils {
            let sh = Command::new("sh")
                .args(["-c", &script])
                .env("LC_ALL", "C")
                .output()
                .unwrap();
            assert!(sh.status.success());
            assert!(
                sh.stdout == outputs[0],
                "{script}: differs from LC_ALL=C sh"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Figure 1 on a Latin-1 file (`é`, `°`, a no-break space as single high
/// bytes): the same bytes at one worker and two, and the bytes
/// `LC_ALL=C sh` prints where the host has the tools. A `sed` stage reads
/// characters, so on the same file it fails at both worker counts,
/// naming `sed`.
#[test]
fn figure1_on_latin1_prints_the_same_at_one_worker_and_two() {
    let dir = std::env::temp_dir().join(format!("kq-bin-latin1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("latin1.txt");
    let mut state = 0x51_7CC1_B727_220Au64;
    let mut text = Vec::new();
    for _ in 0..20_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (state >> 33) as usize;
        let word: &[u8] = [
            &b"Caf\xe9"[..],
            b"d\xe9j\xe0 Vu",
            b"40\xb0 North",
            b"the\xa0End",
            b"Plain words",
            b"river",
        ][r % 6];
        text.extend_from_slice(word);
        text.extend_from_slice(format!(" {}\n", r % 13).as_bytes());
    }
    std::fs::write(&input, text).unwrap();
    let host_has = |program: &str| {
        Command::new(program)
            .arg("--version")
            .output()
            .is_ok_and(|o| o.status.success())
    };
    let file = input.display();
    let script =
        format!("cat {file} | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn");
    let mut outputs = Vec::new();
    for workers in ["1", "2"] {
        let out = kumquat()
            .args(["run", &script, "--workers", workers, "--chunk-kb", "16"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{script} at {workers}: {stderr}");
        assert!(
            stderr.contains("verified"),
            "{script} at {workers}: {stderr}"
        );
        outputs.push(out.stdout);
    }
    assert!(
        outputs[0] == outputs[1],
        "{script}: --workers 1 and 2 differ"
    );
    if ["tr", "sort", "uniq"].into_iter().all(host_has) {
        let sh = Command::new("sh")
            .args(["-c", &script])
            .env("LC_ALL", "C")
            .output()
            .unwrap();
        assert!(sh.status.success());
        assert!(
            sh.stdout == outputs[0],
            "{script}: differs from LC_ALL=C sh"
        );
    }
    let script = format!("cat {file} | sed s/river/stream/ | sort");
    for workers in ["1", "2"] {
        let out = kumquat()
            .args(["run", &script, "--workers", workers])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{script} at {workers}");
        assert!(
            stderr.contains("sed: input is not valid UTF-8"),
            "{script} at {workers}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
