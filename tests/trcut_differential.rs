//! Differential harness for the `tr`, `cut`, `uniq` and `sed s///` byte
//! fast paths.
//!
//! These commands gained `grep`-style byte fast paths: output gathered
//! from byte ranges of the input `Bytes` instead of a rebuilt `String`
//! (one run stays a slice of the input; more pieces are copied into one
//! buffer) — `cut` a SWAR field kernel for every field list, and `tr`'s
//! translate, squeeze and `-ds` a byte-table kernel, so that for every
//! `cut` and `tr` stage `run` and `run_reference` are two different
//! programs. This suite mirrors `tests/grep_differential.rs`:
//! walk every corpus script, re-parse each `tr`/`cut`/`uniq`/`sed` stage,
//! and run the fast path against the reference implementation on the
//! script's own generated input — so the fast paths are validated on
//! exactly the SET specs, field lists and substitutions real scripts use,
//! not just hand-picked unit cases.

use kq_coreutils::cut::CutCmd;
use kq_coreutils::sed::SedCmd;
use kq_coreutils::tr::TrCmd;
use kq_coreutils::uniq::UniqCmd;
use kq_coreutils::{Bytes, ExecContext, UnixCommand};
use kq_pipeline::parse::parse_script;
use kq_workloads::{corpus, setup, Scale};

/// Inputs where a byte table and a character loop could part ways: no
/// byte, no final newline, separators first, nothing but separators,
/// multi-byte characters alone, doubled, and next to squeezed bytes.
const TR_EDGES: [&str; 12] = [
    "",
    "\n",
    "no final newline",
    "  , leading separators\n",
    " \t ,,;; \n\n\n",
    "\n\n\nblank lines first\n\n",
    "\u{e9}",
    "\u{e9}\u{e9}\n",
    "caf\u{e9}  \u{e9}\u{e9}t\u{e9},,\u{4e16}\u{754c}  x\n",
    "aa  bb,,cc\u{e9}\u{e9}  \n  dd",
    "UPPER lower 0123 [brackets] a-z\n",
    "x,,y,,,z\n,,\n",
];

#[test]
fn corpus_tr_stages_fast_path_matches_reference() {
    let scale = Scale {
        input_bytes: 20_000,
    };
    let ctx_proto = ExecContext::default();
    let mut stages_checked = 0usize;
    let agree = |t: &TrCmd, input: &str, what: &str| {
        let fast = t
            .run(Bytes::from(input), &ctx_proto)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            fast.to_str().unwrap(),
            t.run_reference(input),
            "{what}: fast path diverged on {:?}",
            &input[..input.len().min(80)]
        );
    };
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 0xBEEF);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        let input = ctx.vfs.read(&env["IN"]).unwrap();
        for statement in &parsed.statements {
            for stage in &statement.stages {
                if stage.command.program() != "tr" {
                    continue;
                }
                let t = TrCmd::parse(&stage.command.argv()[1..])
                    .unwrap_or_else(|e| panic!("{}: {e}", stage.command.display()));
                let what = format!(
                    "{}/{}: {}",
                    script.suite.dir(),
                    script.id,
                    stage.command.display()
                );
                agree(&t, &input, &what);
                for edge in TR_EDGES {
                    agree(&t, edge, &what);
                }
                stages_checked += 1;
            }
        }
    }
    assert!(
        stages_checked >= 10,
        "corpus drifted: only {stages_checked} tr stages checked"
    );
    // Shapes the corpus has no stage of: `-c` without `-s` (a multi-byte
    // character becomes one fill character), `-ds`, a squeeze with one
    // SET, `-C`, and SETs that send `run` back to the reference.
    for line in [
        r"tr -c A-Za-z '\n'",
        r"tr -c 'a-z\n' '[#*]'",
        "tr -ds ',' ' a'",
        r"tr -cds 'a-z\n' 'a-z\n'",
        "tr -s ' ,'",
        r"tr -Cs A-Za-z '\012'",
        "tr -cs a-z",
        "tr \u{e9} e",
        "tr -s e \u{e9}",
        "tr -ds , \u{e9}",
    ] {
        let words = kq_coreutils::split_words(line).unwrap();
        let t = TrCmd::parse(&words[1..]).unwrap_or_else(|e| panic!("{line}: {e}"));
        for edge in TR_EDGES {
            agree(&t, edge, line);
        }
    }
}

#[test]
fn corpus_cut_stages_fast_path_matches_reference() {
    let scale = Scale {
        input_bytes: 20_000,
    };
    let ctx_proto = ExecContext::default();
    let mut stages_checked = 0usize;
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 0xBEEF);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        let input = ctx.vfs.read(&env["IN"]).unwrap();
        for statement in &parsed.statements {
            for stage in &statement.stages {
                if stage.command.program() != "cut" {
                    continue;
                }
                let c = CutCmd::parse(&stage.command.argv()[1..])
                    .unwrap_or_else(|e| panic!("{}: {e}", stage.command.display()));
                let fast = c
                    .run(Bytes::from(input.as_str()), &ctx_proto)
                    .unwrap_or_else(|e| panic!("{}: {e}", stage.command.display()));
                let reference = c.run_reference(&input);
                assert_eq!(
                    fast.to_str().unwrap(),
                    reference,
                    "{}/{}: {} fast path diverged",
                    script.suite.dir(),
                    script.id,
                    stage.command.display()
                );
                stages_checked += 1;
            }
        }
    }
    assert!(
        stages_checked >= 10,
        "corpus drifted: only {stages_checked} cut stages checked"
    );
}

/// Lines that put the delimiter `d` at every byte offset from 0 to 9 —
/// either side of the 8-byte word the field kernel loads — after `shift`
/// one-byte lines that move every line start across the word too; then
/// delimiter-free lines, empty fields, non-ASCII bytes beside the
/// delimiter, and a field list's worth of fields.
fn cut_lines(d: char, shift: usize) -> Vec<String> {
    let mut lines: Vec<String> = (0..shift).map(|i| format!("{i}")).collect();
    for at in 0..10 {
        lines.push(format!(
            "{}{d}tail{d}{}",
            "x".repeat(at),
            "y".repeat(9 - at)
        ));
        lines.push(format!("{}{d}", "w".repeat(at)));
    }
    lines.extend([
        String::new(),
        "no delimiter at all".to_owned(),
        format!("{d}{d}{d}"),
        format!("{d}lead{d}{d}gap{d}"),
        format!("caf\u{e9}{d}\u{e9}t\u{e9}{d}\u{4e16}\u{754c}{d}x"),
        format!("\u{e9}{d}{d}\u{e9}"),
        (1..=12)
            .map(|f| format!("f{f}"))
            .collect::<Vec<_>>()
            .join(&d.to_string()),
    ]);
    lines
}

/// `cut` against its line-at-a-time oracle for every LIST shape: single
/// fields, merged (`1,2`), disjoint (`1,3`), open (`2-`, `-2`) and out of
/// range lists under four delimiters, and `-c` ranges — on every line of
/// [`cut_lines`] alone, with and without its newline, and on all of them
/// at once at eight alignments, terminated and not.
#[test]
fn cut_kernels_match_reference_on_every_list_shape() {
    let ctx = ExecContext::default();
    let field_lists = [
        "1", "2", "3", "1,2", "1,3", "3,1", "2-", "-2", "2-3", "1,3-4,7-", "9", "20-",
    ];
    let char_lists = ["1-4", "1", "2-", "-3", "1,3-4", "5-9", "2,9-", "20"];
    let mut cmds: Vec<(String, char)> = Vec::new();
    for (d, spec) in [(',', "-d ','"), (' ', "-d ' '"), (':', "-d:"), ('\t', "")] {
        for list in field_lists {
            cmds.push((format!("cut {spec} -f {list}"), d));
        }
    }
    for list in char_lists {
        cmds.push((format!("cut -c {list}"), ','));
    }
    let mut compared = 0usize;
    for (line, d) in &cmds {
        let words = kq_coreutils::split_words(line).unwrap();
        let c = CutCmd::parse(&words[1..]).unwrap_or_else(|e| panic!("{line}: {e}"));
        let mut agree = |input: &str| {
            let fast = c.run(Bytes::from(input), &ctx).unwrap();
            assert_eq!(
                fast.to_str().unwrap(),
                c.run_reference(input),
                "{line}: kernel diverged on {input:?}"
            );
            compared += 1;
        };
        for text in cut_lines(*d, 0) {
            agree(&text);
            agree(&format!("{text}\n"));
        }
        for shift in 0..8 {
            let whole = cut_lines(*d, shift).join("\n");
            agree(&whole);
            agree(&format!("{whole}\n"));
        }
    }
    assert!(compared > 2_000, "only {compared} comparisons");
}

/// The gather contract of the byte fast paths: an output that is one run
/// of the input is that run, sharing its buffer; any other output is one
/// buffer of its own, holding no reference to the input — and a kept
/// final line without its newline gains one even when a literal came
/// before it.
#[test]
fn partial_selections_own_one_buffer_and_full_ones_share_the_input() {
    let ctx = ExecContext::default();
    let run = |line: &str, input: &Bytes| {
        kq_coreutils::parse_command(line)
            .unwrap_or_else(|e| panic!("{line}: {e}"))
            .run(input.clone(), &ctx)
            .unwrap()
    };
    let input = Bytes::from("k1,v1 one\nk2,v2 two\nk3 three\n".repeat(300));
    for full in ["cut -d, -f1-", "cut -c 1-", "cut -d ';' -f 2"] {
        let out = run(full, &input);
        assert_eq!(out, input, "{full}");
        assert!(
            out.shares_buffer(&input),
            "{full}: a full keep is zero-copy"
        );
    }
    for partial in [
        "cut -d, -f1",
        "cut -d, -f2",
        "cut -d, -f 1,3",
        "cut -c 1-2",
        "grep two",
        "grep -v two",
        "tr -d 1",
        "sed s/two/2/",
    ] {
        let out = run(partial, &input);
        assert!(!out.is_empty(), "{partial}");
        assert!(
            !out.shares_buffer(&input),
            "{partial}: a partial selection owns its buffer"
        );
        assert!(out.to_str().is_ok(), "{partial}: the gather keeps text");
    }
    // One run of the input, not at its start: still a slice.
    let out = run("grep k2", &Bytes::from("k1\nk2\nk3\n"));
    assert_eq!(out, "k2\n");
    for (line, input, expect) in [
        // GNU sed leaves an unterminated last line unterminated.
        ("sed s/a/b/", "a\nb", "b\nb"),
        ("sed s/a/b/", "x\na\nb", "x\nb\nb"),
        ("uniq", "a\na\nb", "a\nb\n"),
        ("grep -v a", "b\na\nb", "b\nb\n"),
        ("cut -c 2-", "\u{e9}x\nab", "x\nb\n"),
        ("cut -d, -f2", "\u{e9},x\na,b", "x\nb\n"),
    ] {
        assert_eq!(
            run(line, &Bytes::from(input)),
            expect,
            "{line} on {input:?}"
        );
    }
}

/// `uniq [-c]` a line at a time, on `&str` with `format!` — the oracle
/// the byte paths of `UniqCmd` are held to here.
fn uniq_reference(count: bool, input: &str) -> String {
    let mut out = String::new();
    let mut lines = input.split_terminator('\n').peekable();
    while let Some(line) = lines.next() {
        let mut n = 1u64;
        while lines.next_if_eq(&line).is_some() {
            n += 1;
        }
        if count {
            out.push_str(&format!("{n:>7} {line}\n"));
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn corpus_uniq_stages_fast_path_matches_reference() {
    let scale = Scale {
        input_bytes: 20_000,
    };
    let ctx_proto = ExecContext::default();
    let mut stages_checked = 0usize;
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 0xBEEF);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        let input = ctx.vfs.read(&env["IN"]).unwrap();
        // A uniq stage's real input is usually sorted (long duplicate
        // runs) — exercise that shape too, not just the raw file.
        let mut sorted_lines: Vec<&str> = input.split_terminator('\n').collect();
        sorted_lines.sort_unstable();
        let sorted: String = sorted_lines.iter().map(|l| format!("{l}\n")).collect();
        for statement in &parsed.statements {
            for stage in &statement.stages {
                if stage.command.program() != "uniq" {
                    continue;
                }
                let u = UniqCmd::parse(&stage.command.argv()[1..])
                    .unwrap_or_else(|e| panic!("{}: {e}", stage.command.display()));
                for text in [input.as_str(), sorted.as_str()] {
                    let fast = u
                        .run(Bytes::from(text), &ctx_proto)
                        .unwrap_or_else(|e| panic!("{}: {e}", stage.command.display()));
                    assert_eq!(
                        fast.to_str().unwrap(),
                        uniq_reference(stage.command.argv().len() > 1, text),
                        "{}/{}: {} fast path diverged",
                        script.suite.dir(),
                        script.id,
                        stage.command.display()
                    );
                }
                stages_checked += 1;
            }
        }
    }
    assert!(
        stages_checked >= 5,
        "corpus drifted: only {stages_checked} uniq stages checked"
    );
}

#[test]
fn corpus_sed_stages_fast_path_matches_reference() {
    let scale = Scale {
        input_bytes: 20_000,
    };
    let ctx_proto = ExecContext::default();
    let mut stages_checked = 0usize;
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 0xBEEF);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        let input = ctx.vfs.read(&env["IN"]).unwrap();
        // The same stream without its final newline: the last line is
        // rewritten or passed through unterminated.
        let unterminated = input.trim_end_matches('\n');
        for statement in &parsed.statements {
            for stage in &statement.stages {
                if stage.command.program() != "sed" {
                    continue;
                }
                let sed = SedCmd::parse(&stage.command.argv()[1..])
                    .unwrap_or_else(|e| panic!("{}: {e}", stage.command.display()));
                for text in [input.as_str(), unterminated] {
                    let fast = sed
                        .run(Bytes::from(text), &ctx_proto)
                        .unwrap_or_else(|e| panic!("{}: {e}", stage.command.display()));
                    assert_eq!(
                        fast.to_str().unwrap(),
                        sed.run_reference(text),
                        "{}/{}: {} fast path diverged",
                        script.suite.dir(),
                        script.id,
                        stage.command.display()
                    );
                }
                stages_checked += 1;
            }
        }
    }
    assert!(
        stages_checked >= 5,
        "corpus drifted: only {stages_checked} sed stages checked"
    );
}

/// Substitutions against the inputs where slicing and rebuilding could
/// part ways: no line, empty lines, an unterminated final line, patterns
/// that match every line (empty matches, anchors alone), a few lines, or
/// none.
#[test]
fn sed_fast_path_agrees_with_reference_on_edge_cases() {
    let inputs = [
        "",
        "\n",
        "a\n",
        "x\n",
        "\n\n",
        "a",
        "a\nb",
        "a\n\nb\n",
        "aa\nbb\naa\n",
        "zzz\n\nzzz",
        "xa\r\nb\r\n",
        "b\nb\na\nxax\nb\nb\na",
    ];
    let scripts = [
        "s/x*/-/g",
        "s;^;/books/;",
        "s/$/0s/",
        "s/a/b/",
        "s/a/b/g",
        "s/q/r/",
        "s/^$/empty/",
        "s/\\(a\\)\\(x*\\)/\\2\\1&/g",
        "s/\\(.\\)\\1/<&>/",
        "s/a*a*a*a*a*a*a*a*c/never/",
    ];
    let ctx = ExecContext::default();
    for script in scripts {
        let sed = SedCmd::parse(&[script.to_owned()]).unwrap();
        for input in inputs {
            let fast = sed.run(Bytes::from(input), &ctx).unwrap();
            assert_eq!(
                fast.to_str().unwrap(),
                sed.run_reference(input),
                "sed {script:?} diverged on {input:?}"
            );
        }
    }
}

/// The zero-copy contract: selections that keep entire inputs return the
/// input buffer itself, not a copy — on corpus-shaped data, not toys.
#[test]
fn full_keep_results_share_the_input_buffer() {
    let ctx = ExecContext::default();
    let input = Bytes::from("alpha one\nbeta two\ngamma three\n".repeat(500));

    let tr_words = kq_coreutils::split_words("tr -d 'Q'").unwrap();
    let t = TrCmd::parse(&tr_words[1..]).unwrap();
    let out = t.run(input.clone(), &ctx).unwrap();
    assert_eq!(out, input);
    assert!(
        out.shares_buffer(&input),
        "tr -d of an absent byte must be a refcount bump"
    );

    let cut_words = kq_coreutils::split_words("cut -c 1-").unwrap();
    let c = CutCmd::parse(&cut_words[1..]).unwrap();
    let out = c.run(input.clone(), &ctx).unwrap();
    assert_eq!(out, input);
    assert!(
        out.shares_buffer(&input),
        "cut -c 1- must be a refcount bump"
    );

    // Every line of the repeated block differs from its neighbor, so
    // plain uniq keeps everything.
    let u = UniqCmd::parse(&[]).unwrap();
    let out = u.run(input.clone(), &ctx).unwrap();
    assert_eq!(out, input);
    assert!(
        out.shares_buffer(&input),
        "all-unique uniq must be a refcount bump"
    );

    let sed = SedCmd::parse(&["s/river/stream/".to_owned()]).unwrap();
    let out = sed.run(input.clone(), &ctx).unwrap();
    assert_eq!(out, input);
    assert!(
        out.shares_buffer(&input),
        "a substitution that matches no line must be a refcount bump"
    );
    // One rewritten line in the middle: everything around it is sliced.
    let sed = SedCmd::parse(&["s/^beta two$/BETA/".to_owned()]).unwrap();
    let out = sed
        .run(Bytes::from("alpha one\nbeta two\ngamma three\n"), &ctx)
        .unwrap();
    assert_eq!(out, "alpha one\nBETA\ngamma three\n");
}
