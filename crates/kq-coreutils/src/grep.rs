//! `grep` — line matching over the flag subset in the corpus: `-c`
//! (count), `-v` (invert), `-i` (case-insensitive), `-n` (line numbers),
//! in any cluster (`-vc`, `-vi`), with the pattern read as a basic regular
//! expression, as an extended one under `-E` (`|`, `(..)`, `+`, `?`,
//! `{n,m}` unescaped), or as a fixed string under `-F`; `-e PAT` names the
//! pattern explicitly. `-w`, file operands and a second pattern are
//! errors.
//!
//! `grep -n` is an instructive *unsupported* case: its correct combiner
//! would offset the `N:` prefixes of the second stream, but `':'` is not
//! in the DSL's delimiter alphabet (Figure 3), so synthesis eliminates
//! every candidate — a Table 9-style entry created by an output format
//! rather than by command semantics.
//!
//! Matching is one pass over the whole input:
//! [`kq_pattern::Regex::matching_lines`] yields the byte range of every
//! matching line (a lazily built DFA, or a substring search when the
//! pattern is a plain string; see that crate's docs), and [`GrepCmd::run`]
//! is one loop over those ranges and the gaps between them, whatever the
//! output form. The verbatim forms (`grep PAT`, `-v`, `-i`) report the
//! selected lines as byte ranges to the gather of `fastpath`:
//! a result that is one run of lines is a slice of the input [`Bytes`]
//! (an all-match result is the input handle itself: refcount bump, zero
//! copies — also zero *pages touched* beyond the match scan when the
//! input is a mapped file), and any other is copied into one buffer. `-c` only counts and `-n` writes its prefixes; no
//! form builds a `String` per line. The old line-at-a-time loop survives
//! as the differential tests' oracle ([`GrepCmd::run_reference`]).
//!
//! A byte-exact pattern ([`kq_pattern::Regex::byte_exact`]: every pattern
//! of the benchmark ledger) runs on the raw bytes; any other pattern reads
//! characters, so `grep` decodes its input for it first.

use crate::fastpath::SliceRuns;
use crate::{Bytes, CmdError, EffectClass, ExecContext, SynthesisHints, UnixCommand};
use kq_pattern::{Regex, Syntax};
use std::io::Write as _;
use std::ops::Range;

/// The `grep` command.
pub struct GrepCmd {
    regex: Regex,
    count: bool,
    invert: bool,
    number: bool,
    display: String,
}

impl GrepCmd {
    /// Parses `grep` arguments.
    pub fn parse(args: &[String]) -> Result<GrepCmd, CmdError> {
        let mut count = false;
        let mut invert = false;
        let mut insensitive = false;
        let mut number = false;
        let mut syntax = Syntax::Basic;
        let mut pattern: Option<&str> = None;
        let mut set_pattern = |text| match pattern.replace(text) {
            None => Ok(()),
            Some(_) => Err(CmdError::new(
                "grep",
                "one pattern only: file operands and repeated -e are not supported",
            )),
        };
        let mut words = args.iter();
        while let Some(a) = words.next() {
            let Some(flags) = a.strip_prefix('-') else {
                set_pattern(a)?;
                continue;
            };
            if flags.is_empty() {
                return Err(CmdError::new("grep", format!("bad option {a}")));
            }
            for (at, f) in flags.char_indices() {
                match f {
                    'c' => count = true,
                    'v' => invert = true,
                    'i' => insensitive = true,
                    'n' => number = true,
                    'E' => syntax = Syntax::Extended,
                    'F' => syntax = Syntax::Fixed,
                    'e' => {
                        // The pattern is the rest of the cluster, else
                        // the next word.
                        let attached = &flags[at + 1..];
                        if !attached.is_empty() {
                            set_pattern(attached)?;
                        } else if let Some(next) = words.next() {
                            set_pattern(next)?;
                        } else {
                            return Err(CmdError::new("grep", "option -e requires an argument"));
                        }
                        break;
                    }
                    other => return Err(CmdError::new("grep", format!("unknown flag -{other}"))),
                }
            }
        }
        let pattern = pattern.ok_or_else(|| CmdError::new("grep", "missing pattern"))?;
        let regex = Regex::with_syntax(pattern, syntax, insensitive)
            .map_err(|e| CmdError::new("grep", e.to_string()))?;
        let mut display = String::from("grep");
        for a in args {
            display.push(' ');
            if a.contains([' ', '\\', '*', '$', '|', '(', ')', '?', '{', '}']) {
                display.push('\'');
                display.push_str(a);
                display.push('\'');
            } else {
                display.push_str(a);
            }
        }
        Ok(GrepCmd {
            regex,
            count,
            invert,
            number,
            display,
        })
    }

    /// The line-at-a-time implementation, one `is_match` and one rebuilt
    /// line each: the oracle the differential tests compare
    /// [`GrepCmd::run`] against.
    #[doc(hidden)]
    pub fn run_reference(&self, input: &str) -> String {
        let mut out = String::new();
        let mut n: u64 = 0;
        for (idx, line) in input.split_terminator('\n').enumerate() {
            let hit = self.regex.is_match(line) != self.invert;
            if hit {
                if self.count {
                    n += 1;
                } else {
                    if self.number {
                        out.push_str(&(idx + 1).to_string());
                        out.push(':');
                    }
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        if self.count {
            out.push_str(&n.to_string());
            out.push('\n');
        }
        out
    }
}

impl UnixCommand for GrepCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    fn synthesis_hints(&self) -> SynthesisHints {
        SynthesisHints {
            patterns: vec![self.regex.clone()],
            ..SynthesisHints::default()
        }
    }

    fn effect_class(&self) -> EffectClass {
        if self.number {
            // Line numbers depend on where a line sits in the stream.
            EffectClass::OrderSensitive
        } else if self.count {
            // Per-piece counts sum.
            EffectClass::CommutativeFold
        } else {
            // Each input line maps to itself or nothing.
            EffectClass::Stateless
        }
    }

    fn decodes(&self) -> bool {
        // A byte-exact pattern matches the same lines of any bytes; any
        // other reads characters.
        !self.regex.byte_exact()
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        if self.decodes() {
            crate::decode(&input, "grep")?;
        }
        let text = input.as_bytes();
        let mut runs = SliceRuns::new(&input);
        let mut numbered = Vec::new();
        let mut selected_lines = 0usize;
        let mut line_no = 0usize;
        // The input is an alternation of gaps (runs of whole lines that do
        // not match) and matching lines; `-v` decides which of the two is
        // selected, the flags what a selected span turns into.
        let mut span = |span: Range<usize>, selected: bool| {
            if span.is_empty() {
                return;
            }
            if !selected {
                if self.number {
                    line_no += kq_stream::line_count(&text[span]);
                }
            } else if self.count {
                selected_lines += kq_stream::line_count(&text[span]);
            } else if self.number {
                for line in kq_stream::lines_of(&text[span]) {
                    line_no += 1;
                    write!(numbered, "{line_no}:").expect("writing to a Vec cannot fail");
                    numbered.extend_from_slice(line);
                    numbered.push(b'\n');
                }
            } else {
                runs.keep(span);
            }
        };
        let mut pos = 0;
        for line in self.regex.matching_lines(text) {
            let next = (line.end + 1).min(text.len());
            span(pos..line.start, self.invert);
            span(line.start..next, !self.invert);
            pos = next;
        }
        span(pos..text.len(), self.invert);

        Ok(if self.count {
            Bytes::from(format!("{selected_lines}\n"))
        } else if self.number {
            Bytes::from(numbered)
        } else {
            runs.finish_terminated()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_command;

    fn run(cmd: &str, input: &str) -> String {
        parse_command(cmd)
            .unwrap()
            .run_str(input, &ExecContext::default())
            .unwrap()
    }

    #[test]
    fn selects_matching_lines() {
        assert_eq!(run("grep b", "abc\nxyz\ncab\n"), "abc\ncab\n");
    }

    #[test]
    fn count_matching_lines() {
        assert_eq!(run("grep -c b", "abc\nxyz\ncab\n"), "2\n");
        assert_eq!(run("grep -c zz", "abc\n"), "0\n");
    }

    #[test]
    fn invert_selection() {
        assert_eq!(run("grep -v b", "abc\nxyz\ncab\n"), "xyz\n");
        assert_eq!(run("grep -vc b", "abc\nxyz\ncab\n"), "1\n");
    }

    #[test]
    fn case_insensitive_flags() {
        assert_eq!(run("grep -i BELL", "bell labs\nx\n"), "bell labs\n");
        assert_eq!(run("grep -vi '[aeiou]'", "sky\nmoon\n"), "sky\n");
    }

    #[test]
    fn anchored_patterns() {
        assert_eq!(run("grep '^....$'", "four\nfive!\nok\n"), "four\n");
        assert_eq!(run("grep -v '^0$'", "0\n10\n0\nx\n"), "10\nx\n");
    }

    #[test]
    fn count_empty_input_prints_zero() {
        assert_eq!(run("grep -c x", ""), "0\n");
    }

    #[test]
    fn line_numbers() {
        assert_eq!(run("grep -n b", "abc\nxyz\ncab\n"), "1:abc\n3:cab\n");
        // -n combined with -c: GNU lets -c win (counts, no numbers).
        assert_eq!(run("grep -nc b", "abc\ncab\n"), "2\n");
    }

    #[test]
    fn missing_pattern_is_error() {
        assert!(parse_command("grep -c").is_err());
        assert!(parse_command("grep").is_err());
    }

    fn grep(line: &str) -> GrepCmd {
        let words = crate::split_words(line).unwrap();
        GrepCmd::parse(&words[1..]).unwrap()
    }

    #[test]
    fn all_match_is_a_refcount_bump() {
        let input = Bytes::from("aa\nab\nba\n");
        let out = grep("grep a")
            .run(input.clone(), &ExecContext::default())
            .unwrap();
        assert_eq!(out, input);
        assert!(
            out.shares_buffer(&input),
            "all-match output must be the input slice, not a copy"
        );
    }

    #[test]
    fn adjacent_matches_coalesce_into_runs() {
        // Lines 1-2 match, 3 doesn't, 4 matches: two runs, one gather.
        let input = Bytes::from("ax\nay\nbz\naw\n");
        let out = grep("grep a")
            .run(input.clone(), &ExecContext::default())
            .unwrap();
        assert_eq!(out, "ax\nay\naw\n");
        // A prefix-only match stays a pure slice.
        let prefix = grep("grep -v w")
            .run(input.clone(), &ExecContext::default())
            .unwrap();
        assert_eq!(prefix, "ax\nay\nbz\n");
        assert!(prefix.shares_buffer(&input));
    }

    #[test]
    fn unterminated_matched_final_line_gains_newline() {
        let input = Bytes::from("ax\nbz\nay");
        let out = grep("grep a").run(input, &ExecContext::default()).unwrap();
        assert_eq!(out, "ax\nay\n");
    }

    #[test]
    fn fixed_strings_and_explicit_patterns() {
        let input = "a.c\nabc\n-v\nA.C\n";
        assert_eq!(run("grep -F a.c", input), "a.c\n");
        assert_eq!(run("grep -Fi a.c", input), "a.c\nA.C\n");
        assert_eq!(run("grep -Fc '.'", input), "2\n");
        assert_eq!(run("grep -F '[a]*$'", "x[a]*$y\naaa\n"), "x[a]*$y\n");
        assert_eq!(run("grep -e a.c", input), "a.c\nabc\n");
        assert_eq!(run("grep -ea.c", input), "a.c\nabc\n");
        assert_eq!(run("grep -ve a.c", input), "-v\nA.C\n");
        assert_eq!(run("grep -c -e -v", input), "1\n");
        assert_eq!(run("grep -Fe -v", input), "-v\n");
        assert!(parse_command("grep -e").is_err());
        assert!(parse_command("grep -e a -e b").is_err());
        assert!(parse_command("grep -e a file").is_err());
        assert!(parse_command("grep a file").is_err());
        assert!(parse_command("grep -w a").is_err());
    }

    #[test]
    fn intervals_in_both_spellings() {
        let input = "b\nab\naab\naaab\n";
        assert_eq!(run(r"grep 'a\{1,2\}'", input), "ab\naab\naaab\n");
        assert_eq!(run(r"grep '^a\{2\}b'", input), "aab\n");
        assert_eq!(run("grep -E '^a{2,}b'", input), "aab\naaab\n");
        assert_eq!(run("grep -Ec '^a{0,1}b'", input), "2\n");
        assert!(parse_command("grep -E 'a{2'").is_err());
        // Braces survive shell re-emission quoted.
        assert_eq!(
            parse_command("grep -E 'a{1,2}'").unwrap().display(),
            "grep -E 'a{1,2}'"
        );
    }

    #[test]
    fn every_output_form_agrees_with_reference_on_edge_cases() {
        let cases = [
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
            "a\r\nb\r\n\r\na",
            "b\nb\na\nb\nb\na",
        ];
        for cmd_line in [
            "grep a",
            "grep -v a",
            "grep -i A",
            "grep '^$'",
            "grep -c a",
            "grep -vc a",
            "grep -n a",
            "grep -vn a",
            "grep -nc a",
            "grep -n '^$'",
            "grep -vc '^$'",
            "grep -F a",
            "grep -n ''",
            "grep -vn ''",
            r"grep -n '\(.\)\1'",
        ] {
            let g = grep(cmd_line);
            for input in cases {
                let fast = g.run(Bytes::from(input), &ExecContext::default()).unwrap();
                assert_eq!(
                    fast.to_str().unwrap(),
                    g.run_reference(input),
                    "{cmd_line:?} diverged on {input:?}"
                );
            }
        }
    }

    #[test]
    fn the_hint_is_the_pattern_as_parsed() {
        let pattern = |cmd: &str| {
            let hints = parse_command(cmd).unwrap().synthesis_hints();
            assert_eq!(hints.patterns.len(), 1, "{cmd}");
            hints.patterns[0].clone()
        };
        // A fixed string matches only itself.
        let fixed = pattern("grep -cF 'a.*b'");
        assert!(fixed.is_match("a.*b") && !fixed.is_match("axxb"));
        // `-e` names the pattern even when it looks like a flag.
        let explicit = pattern("grep -ie -x");
        assert!(explicit.is_match("-x") && explicit.is_match("-X"));
        let basic = pattern("grep 'light.light'");
        assert!(basic.is_match("lightXlight") && !basic.is_match("light"));
    }
}
