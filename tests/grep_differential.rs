//! Differential harness for `grep`: every `grep` stage appearing in the
//! 70-script paper corpus runs over that script's generated input through
//! both implementations — `run` (one whole-buffer scan, selected lines as
//! coalesced sub-slices of the input `Bytes`) and the line-at-a-time
//! `run_reference` — in every output form, and the outputs must be
//! byte-identical.

use kq_coreutils::grep::GrepCmd;
use kq_coreutils::{Bytes, ExecContext, UnixCommand};
use kq_pipeline::parse::parse_script;
use kq_workloads::{corpus, setup, Scale};

#[test]
fn corpus_grep_stages_agree_with_reference_path() {
    let scale = Scale {
        input_bytes: 20_000,
    };
    let mut grep_stages = 0usize;
    for script in corpus() {
        let ctx = ExecContext::default();
        let env = setup(script, &ctx, &scale, 0xBEEF);
        let parsed = parse_script(script.text, &env)
            .unwrap_or_else(|e| panic!("{}/{} parse: {e}", script.suite.dir(), script.id));
        let input = ctx.vfs.read(&env["IN"]).unwrap();
        for statement in &parsed.statements {
            for stage in &statement.stages {
                if stage.command.program() != "grep" {
                    continue;
                }
                // The stage as written, then its pattern under the other
                // output forms: all of them are one loop in `run`.
                for extra in ["", "-c", "-n", "-v", "-vc", "-vn"] {
                    let mut args: Vec<String> = vec![extra.to_owned()];
                    args.retain(|a| !a.is_empty());
                    args.extend_from_slice(&stage.command.argv()[1..]);
                    let g = GrepCmd::parse(&args).unwrap_or_else(|e| {
                        panic!("{}/{} grep parse: {e}", script.suite.dir(), script.id)
                    });
                    let fast = g
                        .run(Bytes::from(input.as_str()), &ctx)
                        .unwrap_or_else(|e| panic!("{}/{}: {e}", script.suite.dir(), script.id));
                    assert_eq!(
                        fast.to_str().unwrap(),
                        g.run_reference(&input),
                        "{}/{}: run diverged for {:?} with {extra:?}",
                        script.suite.dir(),
                        script.id,
                        stage.command.display()
                    );
                }
                grep_stages += 1;
            }
        }
    }
    assert!(
        grep_stages >= 10,
        "corpus should exercise many grep stages, found {grep_stages}"
    );
}

/// BRE alternation (`\|`) and `-E`: both spellings select the same lines
/// on both paths, alone and combined with the other flags.
#[test]
fn alternation_and_extended_syntax_agree_on_both_paths() {
    let input = "the light of day\nno land of mine\nlandof\nLIGHT of\nplain\na|b\n";
    let cases: [(&[&str], &str); 8] = [
        (
            &["\\(light\\|land\\) of"],
            "the light of day\nno land of mine\n",
        ),
        (
            &["-E", "(light|land) of"],
            "the light of day\nno land of mine\n",
        ),
        (&["light\\|plain"], "the light of day\nplain\n"),
        (&["-E", "light|plain"], "the light of day\nplain\n"),
        (&["-Ei", "^(no|light)"], "no land of mine\nLIGHT of\n"),
        (&["-Ec", "lan?d ?of"], "2\n"),
        (&["-vE", "l(i|a)+"], "LIGHT of\na|b\n"),
        // Unescaped in BRE, escaped in ERE: the character itself.
        (&["a|b"], "a|b\n"),
    ];
    let ctx = ExecContext::default();
    for (args, expect) in cases {
        let argv: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        let g = GrepCmd::parse(&argv).unwrap_or_else(|e| panic!("grep {args:?}: {e}"));
        let fast = g.run(Bytes::from(input), &ctx).unwrap();
        assert_eq!(fast.to_str().unwrap(), expect, "grep {args:?}");
        assert_eq!(
            g.run_reference(input),
            expect,
            "grep {args:?} (reference path)"
        );
    }
    let escaped = GrepCmd::parse(&["-E".to_owned(), "a\\|b".to_owned()]).unwrap();
    assert_eq!(escaped.run_reference(input), "a|b\n");
}

/// `-F` (the pattern is a string, metacharacters and all), `-e PAT`, and
/// intervals in both spellings, on both paths and with the other flags.
#[test]
fn fixed_strings_explicit_patterns_and_intervals_agree_on_both_paths() {
    let input = "a.c\nabc\nA.C x\n.*\naac\naaac\n-v\n\nlast a.c";
    let cases: [(&[&str], &str); 14] = [
        (&["-F", "a.c"], "a.c\nlast a.c\n"),
        (&["-Fi", "a.c"], "a.c\nA.C x\nlast a.c\n"),
        (&["-Fc", "a.c"], "2\n"),
        (&["-Fv", "a"], "A.C x\n.*\n-v\n\n"),
        (&["-Fn", ".*"], "4:.*\n"),
        (&["-F", "-e", "-v"], "-v\n"),
        (&["a.c"], "a.c\nabc\naac\naaac\nlast a.c\n"),
        (&["-e", "a.c"], "a.c\nabc\naac\naaac\nlast a.c\n"),
        (&["-cea.c"], "5\n"),
        (&["-n", "-e", "^$"], "8:\n"),
        (&["^a\\{2\\}c"], "aac\n"),
        (&["-E", "^a{2,3}c$"], "aac\naaac\n"),
        (&["-Ec", "a{1,2}c"], "2\n"),
        (&["-vE", "(a|A).{0,1}(c|C)"], ".*\n-v\n\n"),
    ];
    let ctx = ExecContext::default();
    for (args, expect) in cases {
        let argv: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        let g = GrepCmd::parse(&argv).unwrap_or_else(|e| panic!("grep {args:?}: {e}"));
        let fast = g.run(Bytes::from(input), &ctx).unwrap();
        assert_eq!(fast.to_str().unwrap(), expect, "grep {args:?}");
        assert_eq!(
            g.run_reference(input),
            expect,
            "grep {args:?} (reference path)"
        );
    }
    assert!(GrepCmd::parse(&["-E".to_owned(), "a{2".to_owned()]).is_err());
    assert!(GrepCmd::parse(&["a\\{999\\}".to_owned()]).is_err());
}

#[test]
fn fast_path_is_zero_copy_for_dense_matches() {
    // The point of the fast path: a selecting grep over realistic text
    // returns slices of its input. All-match → the input handle itself.
    let text = "the quick brown fox\njumps over the lazy dog\n".repeat(500);
    let input = Bytes::from(text);
    let ctx = ExecContext::default();
    let all = GrepCmd::parse(&["o".into()]).unwrap();
    let out = all.run(input.clone(), &ctx).unwrap();
    assert!(out.shares_buffer(&input), "all lines match: refcount bump");
    assert_eq!(out, input);
}
