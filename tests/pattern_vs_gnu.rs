//! Differential testing of the from-scratch regex engine (`kq-pattern`)
//! against the host's GNU grep: random patterns drawn from the corpus's
//! BRE subset (and their extended and fixed-string spellings), random
//! line sets, byte-identical selected lines.
//!
//! Skips silently when `grep` cannot be spawned.
//!
//! Beside it, and gated the same way, `tr`'s SET grammar against the
//! host's GNU `tr` ([`tr_sets_match_gnu_tr`]), `sort`/`sort -m` against
//! GNU `sort` on lines with long shared prefixes ([`sort_matches_gnu_sort`]),
//! the corpus's `cut` forms against GNU `cut` ([`cut_matches_gnu_cut`]),
//! `sed s///` against GNU `sed` ([`sed_matches_gnu_sed`]), and the
//! byte-clean commands on bytes that are not UTF-8
//! ([`foreign_bytes_match_gnu`]).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::process::{Command as Proc, Stdio};

fn gnu_grep_available() -> bool {
    Proc::new("grep")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// Runs host `grep [-E|-F] PATTERN` over `input`, returning the selected
/// lines. Treats exit code 1 (no matches) as success with empty output.
fn gnu_grep(pattern: &str, input: &str, syntax: kq_pattern::Syntax) -> Option<String> {
    let mut child = Proc::new("grep")
        .args(match syntax {
            kq_pattern::Syntax::Basic => None,
            kq_pattern::Syntax::Extended => Some("-E"),
            kq_pattern::Syntax::Fixed => Some("-F"),
        })
        .arg("--")
        .arg(pattern)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .ok()?;
    let out = child.wait_with_output().ok()?;
    match out.status.code() {
        Some(0) | Some(1) => Some(String::from_utf8_lossy(&out.stdout).into_owned()),
        _ => None, // grep rejected the pattern; skip this case
    }
}

/// Generates a random BRE pattern from the corpus subset: literals, `.`,
/// `*`, bracket expressions with ranges/negation, and anchors.
fn random_pattern(rng: &mut SmallRng) -> String {
    let mut pat = String::new();
    if rng.gen_bool(0.25) {
        pat.push('^');
    }
    let atoms = rng.gen_range(1..=4);
    for _ in 0..atoms {
        let mut atom = match rng.gen_range(0..5) {
            0 | 1 => ((b'a' + rng.gen_range(0..6u8)) as char).to_string(),
            2 => ".".to_owned(),
            3 => {
                let lo = (b'a' + rng.gen_range(0..4u8)) as char;
                let hi = (lo as u8 + rng.gen_range(1..3u8)) as char;
                format!("[{lo}-{hi}]")
            }
            _ => {
                let c = (b'a' + rng.gen_range(0..6u8)) as char;
                format!("[^{c}]")
            }
        };
        if rng.gen_bool(0.3) {
            atom.push('*');
        }
        pat.push_str(&atom);
    }
    if rng.gen_bool(0.25) {
        pat.push('$');
    }
    pat
}

fn random_line(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(0..10);
    (0..n)
        .map(|_| {
            let set = "abcdefxy.0 ";
            set.as_bytes()[rng.gen_range(0..set.len())] as char
        })
        .collect()
}

#[test]
fn bre_engine_matches_gnu_grep_on_random_patterns() {
    if !gnu_grep_available() {
        eprintln!("skipping: no GNU grep on this host");
        return;
    }
    let mut rng = SmallRng::seed_from_u64(0xB2E);
    let mut compared = 0usize;
    for _ in 0..300 {
        let pattern = random_pattern(&mut rng);
        let Ok(re) = kq_pattern::Regex::new(&pattern) else {
            continue;
        };
        let input: String = (0..12)
            .map(|_| format!("{}\n", random_line(&mut rng)))
            .collect();
        let Some(gnu) = gnu_grep(&pattern, &input, kq_pattern::Syntax::Basic) else {
            continue;
        };
        let ours: String = input
            .lines()
            .filter(|l| re.is_match(l))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            ours, gnu,
            "pattern {pattern:?} disagrees with GNU grep on {input:?}"
        );
        compared += 1;
    }
    assert!(compared > 100, "only {compared} cases compared");
}

/// Alternation, against GNU grep in both spellings: two or three random
/// branches of the same atoms as above, at the top level or inside a
/// group with a tail, written `\|`/`\(..\)` for plain `grep` and
/// `|`/`(..)` for `grep -E`.
#[test]
fn alternation_matches_gnu_grep_in_both_syntaxes() {
    if !gnu_grep_available() {
        eprintln!("skipping: no GNU grep on this host");
        return;
    }
    use kq_pattern::Syntax::{Basic, Extended};
    let mut rng = SmallRng::seed_from_u64(0xA17);
    let mut compared = 0usize;
    for _ in 0..200 {
        // Anchors stay out of the branches: `random_pattern` may put them
        // there, and the two engines agree on those only at branch edges.
        let branches: Vec<String> = (0..rng.gen_range(2..=3))
            .map(|_| random_pattern(&mut rng).replace(['^', '$'], ""))
            .filter(|b| !b.is_empty())
            .collect();
        if branches.len() < 2 {
            continue;
        }
        let grouped = rng.gen_bool(0.5);
        let tail = if grouped {
            random_line(&mut rng).replace(['.', ' '], "")
        } else {
            String::new()
        };
        let spell = |or: &str, open: &str, close: &str| {
            let body = branches.join(or);
            if grouped {
                format!("{open}{body}{close}{tail}")
            } else {
                body
            }
        };
        let input: String = (0..12)
            .map(|_| format!("{}\n", random_line(&mut rng)))
            .collect();
        for (syntax, pattern) in [
            (Basic, spell("\\|", "\\(", "\\)")),
            (Extended, spell("|", "(", ")")),
        ] {
            let Ok(re) = kq_pattern::Regex::with_syntax(&pattern, syntax, false) else {
                continue;
            };
            let Some(gnu) = gnu_grep(&pattern, &input, syntax) else {
                continue;
            };
            let ours: String = input
                .lines()
                .filter(|l| re.is_match(l))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(
                ours, gnu,
                "{syntax:?} pattern {pattern:?} disagrees with GNU grep on {input:?}"
            );
            compared += 1;
        }
    }
    assert!(compared > 150, "only {compared} cases compared");
}

/// Interval expressions, against GNU grep in both spellings: a random
/// atom under `\{n\}`, `\{n,\}` or `\{n,m\}` (`{..}` for `grep -E`)
/// between random context, on lines made of few letters so that runs of
/// every length occur.
#[test]
fn intervals_match_gnu_grep_in_both_syntaxes() {
    if !gnu_grep_available() {
        eprintln!("skipping: no GNU grep on this host");
        return;
    }
    use kq_pattern::Syntax::{Basic, Extended};
    let mut rng = SmallRng::seed_from_u64(0x1A7);
    let mut compared = 0usize;
    for _ in 0..150 {
        let atom = ["a", "b", ".", "[ab]", "[^a]"][rng.gen_range(0..5)];
        let grouped = rng.gen_bool(0.3);
        let min = rng.gen_range(0..4);
        let bounds = match rng.gen_range(0..3) {
            0 => format!("{min}"),
            1 => format!("{min},"),
            _ => format!("{min},{}", min + rng.gen_range(0..3)),
        };
        let before = ["", "^", "a", "^b", "x"][rng.gen_range(0..5)];
        let after = ["", "$", "b", "a$", "x"][rng.gen_range(0..5)];
        let spell = |open: &str, close: &str, lbrace: &str, rbrace: &str| {
            let body = if grouped {
                format!("{open}{atom}b{close}")
            } else {
                atom.to_owned()
            };
            format!("{before}{body}{lbrace}{bounds}{rbrace}{after}")
        };
        let input: String = (0..16)
            .map(|_| {
                let n = rng.gen_range(0..8);
                let line: String = (0..n)
                    .map(|_| ['a', 'a', 'b', 'b', 'x'][rng.gen_range(0..5)])
                    .collect();
                format!("{line}\n")
            })
            .collect();
        for (syntax, pattern) in [
            (Basic, spell("\\(", "\\)", "\\{", "\\}")),
            (Extended, spell("(", ")", "{", "}")),
        ] {
            let Ok(re) = kq_pattern::Regex::with_syntax(&pattern, syntax, false) else {
                continue;
            };
            let Some(gnu) = gnu_grep(&pattern, &input, syntax) else {
                continue;
            };
            let ours: String = re
                .matching_lines(input.as_bytes())
                .map(|line| format!("{}\n", &input[line]))
                .collect();
            assert_eq!(
                ours, gnu,
                "{syntax:?} pattern {pattern:?} disagrees with GNU grep on {input:?}"
            );
            compared += 1;
        }
    }
    assert!(compared > 250, "only {compared} cases compared");
    // The reported bug: `\{` used to parse as a literal brace.
    let re = kq_pattern::Regex::new("a\\{1,2\\}").unwrap();
    assert!(re.is_match("xay") && !re.is_match("xy"));
    // Past the stated bound the pattern is refused, not mis-compiled.
    let err = kq_pattern::Regex::new("a\\{1,300\\}").unwrap_err();
    assert!(err.to_string().contains("255"), "{err}");
}

/// `grep -F`: the random patterns of the first test, read as plain
/// strings by both sides.
#[test]
fn fixed_strings_match_gnu_grep() {
    if !gnu_grep_available() {
        eprintln!("skipping: no GNU grep on this host");
        return;
    }
    let mut rng = SmallRng::seed_from_u64(0xF1);
    for _ in 0..60 {
        let pattern = random_pattern(&mut rng);
        let re = kq_pattern::Regex::with_syntax(&pattern, kq_pattern::Syntax::Fixed, false)
            .expect("every string is a fixed pattern");
        let mut input: String = (0..10)
            .map(|_| format!("{}\n", random_line(&mut rng)))
            .collect();
        input.push_str(&format!("x{pattern}y\n{pattern}"));
        let gnu = gnu_grep(&pattern, &input, kq_pattern::Syntax::Fixed)
            .expect("GNU grep accepts every fixed string");
        let ours: String = re
            .matching_lines(input.as_bytes())
            .map(|line| format!("{}\n", &input[line]))
            .collect();
        assert_eq!(
            ours, gnu,
            "-F {pattern:?} disagrees with GNU grep on {input:?}"
        );
    }
}

/// Runs host `PROGRAM ARGS` over `input` in the C locale; `None` when the
/// program cannot be spawned or fails (rejects the arguments, say).
fn gnu<S: AsRef<std::ffi::OsStr>>(program: &str, args: &[S], input: &str) -> Option<String> {
    let mut child = Proc::new(program)
        .args(args)
        .env("LC_ALL", "C")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .ok()?;
    let out = child.wait_with_output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The corners of `tr`'s SET grammar where this reproduction once read a
/// set differently from GNU `tr`: a `[c*n]` count with a leading zero is
/// octal (and a zero count fills), `-C` is `-c`. ASCII input only — on
/// multi-byte characters GNU `tr` works byte by byte and this one
/// character by character, by design. Skips when `tr` cannot be spawned.
#[test]
fn tr_sets_match_gnu_tr() {
    if gnu("tr", &["a", "b"], "a\n").is_none() {
        eprintln!("tr not available; skipping");
        return;
    }
    let inputs = [
        "abcdefghij\n",
        "  The quick, brown fox -- jumps!\n\nover\tthe lazy dog  \n",
        "jihgfedcba abc xyz\n",
    ];
    let cases: [&[&str]; 8] = [
        &["abcdefghij", "[x*010]y"],
        &["abcdefghij", "[x*10]y"],
        &["abcdefghij", "[x*0]"],
        &["abcdefghij", "[x*3][y*]"],
        &["-C", "a-j", "x"],
        &["-Cs", "A-Za-z", "\\n"],
        &["-cs", "A-Za-z", "\\012"],
        &["-sC", "[A-Z][a-z]", "[\\012*]"],
    ];
    let ctx = kq_coreutils::ExecContext::default();
    for args in cases {
        let argv: Vec<String> = std::iter::once("tr")
            .chain(args.iter().copied())
            .map(str::to_owned)
            .collect();
        let ours = kq_coreutils::from_argv(&argv).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        for input in inputs {
            let expect =
                gnu("tr", args, input).unwrap_or_else(|| panic!("GNU tr rejected {args:?}"));
            assert_eq!(
                ours.run_str(input, &ctx).unwrap(),
                expect,
                "tr {args:?} on {input:?}"
            );
        }
    }
}

/// A line that shares a long prefix with many others — the shape that
/// decides a merge by more than its first eight bytes: an optional count
/// column or `+`-led number, a prefix (or the start of one) of up to 73
/// bytes, sometimes upper-cased, and a short tail of letters, digits,
/// blanks and signs.
fn shared_prefix_line(rng: &mut SmallRng) -> String {
    const PREFIXES: [&str; 5] = [
        "",
        "key 287 item 24",
        "wolf dog item 00",
        "      1 ",
        "key 287 item 24 wolf dog Apple Pear yak emu newt fox bird CAT 0123456789",
    ];
    let mut line = String::new();
    if rng.gen_bool(0.3) {
        line.push_str(&format!("{:>7} ", rng.gen_range(0..40)));
    } else if rng.gen_bool(0.15) {
        let blank = if rng.gen_bool(0.5) { " " } else { "" };
        line.push_str(&format!("{blank}+{} ", rng.gen_range(0..40)));
    }
    let prefix = PREFIXES[rng.gen_range(0..PREFIXES.len())];
    let cut = if rng.gen_bool(0.7) {
        prefix.len()
    } else {
        rng.gen_range(0..=prefix.len())
    };
    line.push_str(&prefix[..cut]);
    if rng.gen_bool(0.2) {
        line.make_ascii_uppercase();
    }
    let tail = "aAbB 09-+.x";
    for _ in 0..rng.gen_range(0..4) {
        line.push(tail.as_bytes()[rng.gen_range(0..tail.len())] as char);
    }
    line
}

/// `sort <flags>` and `sort -m <flags>` of files GNU `sort <flags>` sorted,
/// against GNU `sort` under `LC_ALL=C`, on lines with long shared prefixes
/// and repeats, for every flag set the kernel's reference comparator
/// agrees with GNU on — all of those the kernel tests use: plain, `-r`,
/// `-n`, `-rn`, `-nr`, `-f`, `-u`, `-nu`, `-fu`, `-k1n`, `-ru`, `-fr`,
/// `-nf`, the key-local and global reverses apart (`-k1nr`, `-k1,1nr`,
/// `-k1n -r`, `-n -r`) and `-s` (`-s -n`, `-sn`, `-rns`) — in rounds of up
/// to two hundred lines and, past the sort kernel's insertion and radix
/// thresholds, of thousands, and one round of `uniq -c` output: tied
/// counts, and counts eight digits wide. (The lines leave out what the
/// reference reads differently from GNU by design: numbers past `f64`
/// precision, which `-nu` would call equal.) Skips when `sort` cannot be
/// spawned.
#[test]
fn sort_matches_gnu_sort() {
    if gnu::<&str>("sort", &[], "b\na\n").as_deref() != Some("a\nb\n") {
        eprintln!("sort not available; skipping");
        return;
    }
    const FLAG_SETS: [&str; 20] = [
        "", "-r", "-n", "-rn", "-nr", "-f", "-u", "-nu", "-fu", "-k1n", "-ru", "-fr", "-nf",
        "-k1nr", "-k1,1nr", "-k1n -r", "-n -r", "-s -n", "-sn", "-rns",
    ];
    const ROUNDS: usize = 11;
    let dir = std::env::temp_dir().join(format!("kq-sort-vs-gnu-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = SmallRng::seed_from_u64(0x5027);
    let mut compared = 0usize;
    for round in 0..ROUNDS {
        let files = rng.gen_range(1..=5);
        let (pool_size, lines) = if round < 8 {
            (8, 0..40)
        } else {
            (400, 800..2000)
        };
        // The last round is `uniq -c` output: counts that tie, and counts
        // of eight digits, whose column is one wider.
        let counted = round == ROUNDS - 1;
        let line = |rng: &mut SmallRng| {
            let text = shared_prefix_line(rng);
            if !counted {
                return text;
            }
            let count = match rng.gen_range(0..10) {
                0 => rng.gen_range(10_000_000..10_000_003),
                1..=3 => rng.gen_range(1..400),
                _ => rng.gen_range(1..4),
            };
            format!("{count:>7} {text}")
        };
        let pieces: Vec<String> = (0..files)
            .map(|_| {
                let pool: Vec<String> = (0..pool_size).map(|_| line(&mut rng)).collect();
                (0..rng.gen_range(lines.clone()))
                    .map(|_| format!("{}\n", pool[rng.gen_range(0..pool.len())]))
                    .collect()
            })
            .collect();
        let whole = pieces.concat();
        for flags in FLAG_SETS {
            let flag_words: Vec<String> = flags.split_whitespace().map(str::to_owned).collect();
            let argv = |merge: bool, files: &[String]| -> Vec<String> {
                let mut argv = vec!["sort".to_owned()];
                if merge {
                    argv.push("-m".to_owned());
                }
                argv.extend(flag_words.iter().cloned());
                argv.extend(files.iter().cloned());
                argv
            };
            let ctx = kq_coreutils::ExecContext::with_vfs(kq_coreutils::Vfs::new());
            let ours = |argv: &[String], input: &str| {
                kq_coreutils::from_argv(argv)
                    .and_then(|cmd| cmd.run_str(input, &ctx))
                    .unwrap_or_else(|e| panic!("{argv:?}: {e}"))
            };
            let expect = gnu("sort", &flag_words, &whole).expect("GNU sort failed");
            assert_eq!(
                ours(&argv(false, &[]), &whole),
                expect,
                "sort {flags} of {whole:?}"
            );
            // Each piece sorted by GNU, written to a file for GNU and to
            // the VFS for the in-process command, then merged by both.
            let mut paths = Vec::new();
            for (i, piece) in pieces.iter().enumerate() {
                let sorted = gnu("sort", &flag_words, piece).expect("GNU sort failed");
                let path = dir.join(format!("piece{i}")).to_string_lossy().into_owned();
                std::fs::write(&path, &sorted).unwrap();
                ctx.vfs.write(path.clone(), sorted);
                paths.push(path);
            }
            let gnu_merged = gnu("sort", &argv(true, &paths)[1..], "").expect("GNU sort -m failed");
            assert_eq!(
                ours(&argv(true, &paths), ""),
                gnu_merged,
                "sort -m {flags} of {pieces:?}"
            );
            compared += 1;
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(compared, ROUNDS * FLAG_SETS.len());
}

/// A line for `cut`: fields of zero to five letters or digits joined by
/// `,`, `:`, blanks or tabs — some lines without any, some with empty
/// fields — and up to a dozen fields. ASCII only: GNU `cut -c` counts
/// bytes, this one characters.
fn cut_line(rng: &mut SmallRng) -> String {
    const SEPARATORS: [&str; 5] = [",", ":", " ", "\t", ""];
    let fields = rng.gen_range(1..=12);
    let mut line = String::new();
    for f in 0..fields {
        if f > 0 {
            line.push_str(SEPARATORS[rng.gen_range(0..SEPARATORS.len())]);
        }
        for _ in 0..rng.gen_range(0..=5) {
            let set = "abcxyz0189";
            line.push(set.as_bytes()[rng.gen_range(0..set.len())] as char);
        }
    }
    line
}

/// The corpus's `cut` forms against GNU `cut` under `LC_ALL=C`: `-d ','
/// -f 1,2`, `-d: -f1`, `-f 2`, `-c 1-4`, `-d ' ' -f 1-6`, `-d ',' -f 1,3`
/// (and disjoint and open lists beside them), on random lines with and
/// without the delimiter, empty fields, and a final line with and without
/// its newline. Skips when `cut` cannot be spawned.
#[test]
fn cut_matches_gnu_cut() {
    if gnu("cut", &["-c", "1"], "ab\n").as_deref() != Some("a\n") {
        eprintln!("cut not available; skipping");
        return;
    }
    const FORMS: [&[&str]; 10] = [
        &["-d", ",", "-f", "1,2"],
        &["-d:", "-f1"],
        &["-f", "2"],
        &["-c", "1-4"],
        &["-d", " ", "-f", "1-6"],
        &["-d", ",", "-f", "1,3"],
        &["-d", ":", "-f", "2-"],
        &["-d", " ", "-f", "-2,5,9-"],
        &["-f", "3,1"],
        &["-c", "2,5-7,11-"],
    ];
    let mut rng = SmallRng::seed_from_u64(0xC07);
    let ctx = kq_coreutils::ExecContext::default();
    for round in 0..20 {
        let mut input: String = (0..rng.gen_range(0..60))
            .map(|_| format!("{}\n", cut_line(&mut rng)))
            .collect();
        if round % 4 == 0 {
            input.push_str(&cut_line(&mut rng));
        }
        for args in FORMS {
            let argv: Vec<String> = std::iter::once("cut")
                .chain(args.iter().copied())
                .map(str::to_owned)
                .collect();
            let ours = kq_coreutils::from_argv(&argv)
                .and_then(|cmd| cmd.run_str(&input, &ctx))
                .unwrap_or_else(|e| panic!("{args:?}: {e}"));
            let expect =
                gnu("cut", args, &input).unwrap_or_else(|| panic!("GNU cut rejected {args:?}"));
            assert_eq!(ours, expect, "cut {args:?} of {input:?}");
        }
    }
}

/// `sed s///` against GNU `sed` under `LC_ALL=C`:
///
/// * every `s///` form of the corpus scripts, on its script's own input;
/// * the two timestamp forms on generated transit rows, among lines
///   without a timestamp;
/// * random patterns of the first test's subset (no alternation: the
///   backtracker takes the leftmost-first match where GNU takes the
///   leftmost-longest one), some with a group, under replacements with
///   `&` and `\1` and with and without `g`, on random lines with and
///   without matches;
/// * the empty matches `s///g` must not take where a match ended;
///
/// each input with and without its final newline. Skips when `sed`
/// cannot be spawned.
#[test]
fn sed_matches_gnu_sed() {
    if gnu("sed", &["s/a/b/"], "a\n").as_deref() != Some("b\n") {
        eprintln!("sed not available; skipping");
        return;
    }
    let ctx = kq_coreutils::ExecContext::default();
    let check = |script: &str, input: &str| {
        let argv = ["sed".to_owned(), script.to_owned()];
        let ours = kq_coreutils::from_argv(&argv)
            .and_then(|cmd| cmd.run_str(input, &ctx))
            .unwrap_or_else(|e| panic!("sed {script:?}: {e}"));
        let expect =
            gnu("sed", &[script], input).unwrap_or_else(|| panic!("GNU sed rejected {script:?}"));
        assert_eq!(ours, expect, "sed {script:?} on {input:?}");
    };
    let both_ends = |script: &str, input: &str| {
        check(script, input);
        if let Some(body) = input.strip_suffix('\n') {
            check(script, body);
        }
    };

    let mut corpus_forms = std::collections::BTreeSet::new();
    for script in kq_workloads::corpus() {
        let script_ctx = kq_coreutils::ExecContext::default();
        let scale = kq_workloads::Scale { input_bytes: 4_000 };
        let env = kq_workloads::setup(script, &script_ctx, &scale, 0x5ED);
        let parsed = kq_pipeline::parse::parse_script(script.text, &env).unwrap();
        let input = script_ctx.vfs.read(&env["IN"]).unwrap();
        for stage in parsed.statements.iter().flat_map(|s| &s.stages) {
            let argv = stage.command.argv();
            if argv[0] == "sed" && argv[1].starts_with('s') && corpus_forms.insert(argv[1].clone())
            {
                both_ends(&argv[1], &input);
            }
        }
    }
    assert!(corpus_forms.len() >= 4, "corpus forms: {corpus_forms:?}");

    let mut rng = SmallRng::seed_from_u64(0x5ED);
    let mut transit = kq_workloads::inputs::mass_transit_csv(200, 7);
    transit.push_str("no stamp here\nT1:2:3\n\nTT00:00:00T\n");
    for form in ["s/T..:..:..//", "s/T\\(..\\):..:../,\\1/"] {
        both_ends(form, &transit);
    }

    const REPLACEMENTS: [&str; 6] = ["X", "", "<&>", "&&", "[\\1]", "\\1-&"];
    for _ in 0..200 {
        let pattern = random_pattern(&mut rng);
        let pattern = if rng.gen_bool(0.5) {
            // The pattern's body in a group, then a second body.
            let body = |p: &str| p.trim_start_matches('^').trim_end_matches('$').to_owned();
            let head = if pattern.starts_with('^') { "^" } else { "" };
            let tail = if pattern.ends_with('$') { "$" } else { "" };
            let more = body(&random_pattern(&mut rng));
            format!("{head}\\({}\\){more}{tail}", body(&pattern))
        } else {
            pattern
        };
        let grouped = pattern.contains("\\(");
        let replacement = REPLACEMENTS[rng.gen_range(0..if grouped { 6 } else { 4 })];
        let flags = if rng.gen_bool(0.5) { "g" } else { "" };
        let script = format!("s/{pattern}/{replacement}/{flags}");
        let input: String = (0..12)
            .map(|_| format!("{}\n", random_line(&mut rng)))
            .collect();
        both_ends(&script, &input);
    }

    for script in [
        "s/x*/-/g",
        "s/b*/X/g",
        "s/a*/<&>/g",
        "s/x*/-/",
        "s/[^a]*/(&)/g",
    ] {
        both_ends(script, "xxaxx\nabc\nab\n\nbbb\naxbxc\n");
    }
}

/// Runs host `PROGRAM ARGS` over `input` bytes in the C locale, returning
/// stdout's bytes; exit code 1 counts as success for `grep` (no line
/// selected). `None` when the program cannot be spawned or fails.
fn gnu_bytes(program: &str, args: &[&str], input: &[u8]) -> Option<Vec<u8>> {
    let mut child = Proc::new(program)
        .args(args)
        .env("LC_ALL", "C")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    child.stdin.as_mut().unwrap().write_all(input).ok()?;
    let out = child.wait_with_output().ok()?;
    let ok = out.status.success() || (program == "grep" && out.status.code() == Some(1));
    ok.then_some(out.stdout)
}

/// A line of foreign bytes: words of ASCII, Latin-1 high bytes, control
/// bytes (`\v`, `\x01`) and numbers, joined by spaces and tabs, with the
/// ledger's `grep` words among them.
fn foreign_line(rng: &mut SmallRng) -> Vec<u8> {
    const WORDS: [&[u8]; 16] = [
        b"light of",
        b"land of",
        b"Apple",
        b"dog",
        b"bird",
        b"qqq",
        b"caf\xe9",
        b"\xb0C",
        b"\xa0",
        b"\xff\xfe",
        b"a\x0bb",
        b"\x01",
        b"12",
        b"-3",
        b"Z\xe9ro",
        b"word",
    ];
    let mut line = Vec::new();
    for i in 0..rng.gen_range(0..6) {
        if i > 0 {
            line.push([b' ', b' ', b'\t'][rng.gen_range(0..3)]);
        }
        line.extend_from_slice(WORDS[rng.gen_range(0..WORDS.len())]);
    }
    line
}

/// The byte-clean commands on bytes that are not UTF-8 — Latin-1 letters,
/// `\v`, `\x01`, tabs — give GNU's `LC_ALL=C` bytes: `sort` and its
/// flags, `uniq`, `uniq -c`, `cut -f` at an ASCII delimiter, `tr` with
/// ASCII sets, `wc` and `wc -w`, and `grep` with the benchmark's
/// byte-exact patterns. Skips when `sort` cannot be spawned.
#[test]
fn foreign_bytes_match_gnu() {
    if gnu_bytes("sort", &[], b"b\na\n").as_deref() != Some(&b"a\nb\n"[..]) {
        eprintln!("sort not available; skipping");
        return;
    }
    const FORMS: [&[&str]; 17] = [
        &["sort"],
        &["sort", "-n"],
        &["sort", "-r"],
        &["sort", "-f"],
        &["sort", "-u"],
        &["uniq"],
        &["uniq", "-c"],
        &["cut", "-d", " ", "-f", "2"],
        &["tr", "A-Z", "a-z"],
        &["tr", "-cs", "A-Za-z", "\\n"],
        &["wc"],
        &["wc", "-w"],
        &["grep", "l[ia][gn][hd]t* of"],
        &["grep", "-v", "qqq"],
        &["grep", "Apple"],
        &["grep", "dog"],
        &["grep", "-c", "bird"],
    ];
    let mut rng = SmallRng::seed_from_u64(0xE9);
    let ctx = kq_coreutils::ExecContext::default();
    for round in 0..20 {
        let mut input = Vec::new();
        for _ in 0..rng.gen_range(0..40) {
            input.extend(foreign_line(&mut rng));
            input.push(b'\n');
        }
        if round % 4 == 0 {
            input.extend(foreign_line(&mut rng));
        }
        for args in FORMS {
            let argv: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
            let ours = kq_coreutils::from_argv(&argv)
                .and_then(|cmd| cmd.run(kq_coreutils::Bytes::from(input.clone()), &ctx))
                .unwrap_or_else(|e| panic!("{args:?}: {e}"));
            let expect = gnu_bytes(args[0], &args[1..], &input)
                .unwrap_or_else(|| panic!("GNU rejected {args:?}"));
            assert_eq!(
                ours.as_bytes(),
                expect,
                "{args:?} of {:?}",
                String::from_utf8_lossy(&input)
            );
        }
    }
}
