//! The soundness property behind everything: a synthesized combiner `g`
//! must satisfy `f(x1 ++ x2) = g(f(x1), f(x2))` on inputs the synthesizer
//! never saw. For every supported command family we synthesize once, then
//! hammer the combiner with hundreds of fresh random stream pairs.
//!
//! The seam licence (`kq_coreutils::Command::newline_seam`) claims such an
//! equation without synthesis — `f(x0 ++ x1 ++ …)` is `f(x0)` followed by
//! each `f(xi)` less one leading newline — and is held to it here the same
//! way, for every corpus `tr` stage it licenses.

use kq_coreutils::{parse_command, ExecContext};
use kq_dsl::eval::CommandEnv;
use kq_synth::{synthesize, SynthesisConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random newline-terminated stream whose lines come from a small pool
/// (so duplicates hit the uniq/stitch paths) mixed with fresh noise.
fn random_stream(rng: &mut SmallRng, max_lines: usize) -> String {
    const POOL: [&str; 9] = [
        "alpha",
        "beta",
        "beta beta",
        "42",
        "9 lives",
        "",
        "zz top",
        "0",
        "mid dle",
    ];
    let n = rng.gen_range(1..=max_lines);
    let mut out = String::new();
    for _ in 0..n {
        if rng.gen_bool(0.7) {
            out.push_str(POOL[rng.gen_range(0..POOL.len())]);
        } else {
            for _ in 0..rng.gen_range(1..=3) {
                out.push((b'a' + rng.gen_range(0..26)) as char);
            }
        }
        out.push('\n');
    }
    out
}

/// Synthesizes a combiner for `cmd`, then checks the divide-and-conquer
/// equation on `trials` random stream pairs. `sorted` pre-sorts the pairs
/// (for commands whose domain is sorted streams).
fn check_dnc(cmd: &str, trials: usize, sorted: bool) {
    let command = parse_command(cmd).unwrap();
    let ctx = ExecContext::default();
    let report = synthesize(&command, &ctx, &SynthesisConfig::default());
    let combiner = report
        .combiner()
        .unwrap_or_else(|| panic!("{cmd}: synthesis failed"));
    let env = CommandEnv {
        command: &command,
        ctx: &ctx,
    };
    let mut rng = SmallRng::seed_from_u64(0xD1CE);
    let mut checked = 0;
    for _ in 0..trials {
        let mut combined = random_stream(&mut rng, 14);
        if sorted {
            let mut lines: Vec<&str> = combined.lines().collect();
            lines.sort_unstable();
            combined = lines.iter().map(|l| format!("{l}\n")).collect();
        }
        let Some((x1, x2)) =
            kq_stream::split::split_at_line_boundary(&combined, rng.gen_range(0..combined.len()))
        else {
            continue;
        };
        let (Ok(y1), Ok(y2), Ok(y12)) = (
            command.run_str(x1, &ctx),
            command.run_str(x2, &ctx),
            command.run_str(&combined, &ctx),
        ) else {
            continue;
        };
        let got = combiner
            .combine2(y1.as_bytes(), y2.as_bytes(), &env)
            .unwrap_or_else(|e| panic!("{cmd}: combiner failed on {x1:?}/{x2:?}: {e}"));
        assert_eq!(
            got,
            y12,
            "{cmd}: D&C violated for x1={x1:?} x2={x2:?} (combiner {})",
            combiner.primary()
        );
        checked += 1;
    }
    assert!(
        checked > trials / 2,
        "{cmd}: too few checked pairs ({checked})"
    );
}

#[test]
fn dnc_holds_for_mapping_commands() {
    check_dnc("tr a-z A-Z", 150, false);
    check_dnc("grep a", 150, false);
    check_dnc("cut -d ' ' -f 1", 150, false);
    check_dnc("sed s/a/A/", 150, false);
    check_dnc("rev", 150, false);
    check_dnc("awk 'length >= 3'", 150, false);
}

#[test]
fn dnc_holds_for_counting_commands() {
    check_dnc("wc -l", 200, false);
    check_dnc("wc -c", 200, false);
    check_dnc("grep -c beta", 200, false);
}

#[test]
fn dnc_holds_for_sorting_commands() {
    check_dnc("sort", 150, false);
    check_dnc("sort -rn", 150, false);
    check_dnc("sort -u", 150, false);
}

#[test]
fn dnc_holds_for_selection_commands() {
    check_dnc("uniq", 250, false);
    check_dnc("uniq -c", 250, false);
    check_dnc("head -n 1", 150, false);
    check_dnc("tail -n 1", 150, false);
}

#[test]
fn dnc_holds_for_rerun_commands() {
    check_dnc(r"tr -cs A-Za-z '\n'", 120, false);
    check_dnc("sed 100q", 120, false);
    check_dnc("uniq -c", 120, true); // sorted inputs exercise long runs
}

/// The extension commands (beyond the paper's corpus): the swapped
/// concat (`tac`), the offset representative (`cat -n`, `nl -b a`), the
/// top-level reducer (`awk END` sum), and per-line maps.
#[test]
fn dnc_holds_for_extension_commands() {
    check_dnc("tac", 150, false);
    check_dnc("cat -n", 150, false);
    check_dnc("nl -b a", 120, false);
    check_dnc("awk '{s += $1} END {print s}'", 150, false);
    check_dnc("fold -w5", 120, false);
    check_dnc("expand", 120, false);
}

/// k-way generalization (paper §3.5): the combiner applied across many
/// substreams equals the serial run over the concatenation.
#[test]
fn dnc_generalizes_to_k_substreams() {
    let mut rng = SmallRng::seed_from_u64(0xACE);
    for cmd in ["uniq -c", "wc -l", "sort", "tr a-z A-Z", "cat -n", "tac"] {
        let command = parse_command(cmd).unwrap();
        let ctx = ExecContext::default();
        let report = synthesize(&command, &ctx, &SynthesisConfig::default());
        let combiner = report.combiner().unwrap();
        let env = CommandEnv {
            command: &command,
            ctx: &ctx,
        };
        for _ in 0..40 {
            let combined = kq_stream::Bytes::from(random_stream(&mut rng, 30));
            let k = rng.gen_range(2..=7);
            // Zero-copy splitting: pieces are refcounted slices.
            let outputs: Vec<kq_stream::Bytes> = combined
                .split_stream(k)
                .into_iter()
                .map(|p| command.run(p, &ctx).unwrap())
                .collect();
            let got = combiner.combine_all(&outputs, &env).unwrap();
            let expect = command.run(combined.clone(), &ctx).unwrap();
            assert_eq!(got, expect, "{cmd} at k={k} on {combined:?}");
        }
    }
}

/// Random text for a word splitter: words, runs of blanks and
/// punctuation, empty and separator-only lines, multi-byte characters,
/// separators at the very start, and sometimes no final newline.
fn random_text(rng: &mut SmallRng, max_lines: usize) -> String {
    const TOKENS: [&str; 14] = [
        "alpha",
        "Beta",
        "x",
        " ",
        "  ",
        "\t",
        ",",
        ",,",
        ";",
        "\u{e9}",
        "\u{e9}\u{e9}",
        "42",
        "-",
        "z z",
    ];
    let mut out = String::new();
    for _ in 0..rng.gen_range(1..=max_lines) {
        for _ in 0..rng.gen_range(0..6) {
            out.push_str(TOKENS[rng.gen_range(0..TOKENS.len())]);
        }
        out.push('\n');
    }
    if rng.gen_bool(0.2) {
        out.pop();
    }
    out
}

/// `f(x0) ++ strip(f(x1)) ++ …` over `text` cut after the given newlines,
/// `strip` dropping one leading `'\n'`: what a seam node computes.
fn seamed(command: &kq_coreutils::Command, ctx: &ExecContext, pieces: &[&str]) -> String {
    let mut out = String::new();
    for (i, piece) in pieces.iter().enumerate() {
        let y = command.run_str(piece, ctx).unwrap();
        out.push_str(match y.strip_prefix('\n') {
            Some(rest) if i > 0 => rest,
            _ => &y,
        });
    }
    out
}

/// Cuts `text` after a random subset of its newlines: non-empty
/// line-aligned pieces, the last one unterminated when `text` is.
fn random_line_aligned_pieces<'a>(rng: &mut SmallRng, text: &'a str) -> Vec<&'a str> {
    let mut pieces = Vec::new();
    let mut start = 0;
    for (i, _) in text.match_indices('\n') {
        if i + 1 < text.len() && rng.gen_bool(0.3) {
            pieces.push(&text[start..=i]);
            start = i + 1;
        }
    }
    pieces.push(&text[start..]);
    pieces
}

/// Every `tr` stage of the corpus that the lattice licenses satisfies the
/// seam equation on random text at random line-aligned cuts — and so do
/// the licensed shapes the corpus does not use.
#[test]
fn seam_equation_holds_for_every_licensed_corpus_tr_stage() {
    let mut lines: Vec<String> = vec![
        r"tr -s ' ' '\n'".to_owned(),
        r"tr -s '\n'".to_owned(),
        r"tr -ds , '\n'".to_owned(),
        r"tr -Cs a-z '\012'".to_owned(),
    ];
    let mut stages = 0usize;
    let mut refused: Vec<String> = Vec::new();
    for script in kq_workloads::corpus() {
        let ctx = ExecContext::default();
        let scale = kq_workloads::Scale { input_bytes: 2_000 };
        let env = kq_workloads::setup(script, &ctx, &scale, 7);
        let parsed = kq_pipeline::parse::parse_script(script.text, &env).unwrap();
        for stage in parsed.statements.iter().flat_map(|st| &st.stages) {
            let command = &stage.command;
            let squeezes = command.program() == "tr"
                && command
                    .argv()
                    .get(1)
                    .is_some_and(|flags| flags.starts_with('-') && flags.contains('s'));
            if command.newline_seam() {
                assert!(squeezes, "{}", command.display());
                stages += 1;
                if !lines.contains(&command.display()) {
                    lines.push(command.display());
                }
            } else if squeezes {
                refused.push(command.display());
            }
        }
    }
    // The corpus squeezes to put one word, or one letter run, on a line —
    // but for the one stage that keeps the newlines and squeezes blanks.
    assert!(stages >= 30, "only {stages} licensed corpus stages");
    assert_eq!(refused, [r"tr -sc '[AEIOUaeiou\012]' ' '"]);
    let ctx = ExecContext::default();
    let mut rng = SmallRng::seed_from_u64(0x5EA4);
    for line in &lines {
        let command = parse_command(line).unwrap();
        assert!(command.newline_seam(), "{line}");
        for _ in 0..200 {
            let text = random_text(&mut rng, 12);
            if text.is_empty() {
                continue;
            }
            let pieces = random_line_aligned_pieces(&mut rng, &text);
            assert_eq!(
                seamed(&command, &ctx, &pieces),
                command.run_str(&text, &ctx).unwrap(),
                "{line}: seam equation violated at {pieces:?}"
            );
        }
    }
}

/// The squeezes the licence refuses are refused for a reason: each has
/// line-aligned pieces on which the seam equation is false.
#[test]
fn refused_squeezes_break_the_seam_equation() {
    let ctx = ExecContext::default();
    for (line, pieces) in [
        // '\n' becomes ' ': what is carried is a blank, not a newline.
        (r"tr -s '\n' ' '", ["a\n\n", "\nb\n"]),
        // '\n' is deleted: what is carried is whatever came before it.
        (r"tr -ds '\n' x", ["ax\n", "xb\n"]),
        // '\n' is kept but not squeezed: a leading one is output.
        (r"tr -cs 'A-Za-z\n' ' '", ["a\n", "\nb\n"]),
    ] {
        let command = parse_command(line).unwrap();
        assert!(!command.newline_seam(), "{line}");
        assert_ne!(
            seamed(&command, &ctx, &pieces),
            command.run_str(&pieces.concat(), &ctx).unwrap(),
            "{line}"
        );
    }
}
