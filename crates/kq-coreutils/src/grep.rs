//! `grep` — BRE line matching over the flag subset in the corpus:
//! `-c` (count), `-v` (invert), `-i` (case-insensitive), and their
//! combinations (`-vc`, `-vi`, `-vw`-style clusters are split), plus `-n`
//! (line numbers) and `-E` (the pattern is an extended regular expression:
//! `|`, `(..)`, `+`, `?` unescaped).
//!
//! `grep -n` is an instructive *unsupported* case: its correct combiner
//! would offset the `N:` prefixes of the second stream, but `':'` is not
//! in the DSL's delimiter alphabet (Figure 3), so synthesis eliminates
//! every candidate — a Table 9-style entry created by an output format
//! rather than by command semantics.
//!
//! Plain selection (`grep PAT`, `-v`, `-i` — no `-c`/`-n` reformatting)
//! takes a **byte fast path**: matching lines are returned as sub-slices
//! of the input [`Bytes`], with adjacent matches coalesced into runs. An
//! all-match result is the input handle itself (refcount bump, zero
//! copies — also zero *pages touched* beyond the match scan when the
//! input is a mapped file); sparse results gather once, sized to the
//! output. The old rebuild-a-`String` path remains for `-c`/`-n` and as
//! the differential-test oracle ([`GrepCmd::run_reference`]).

use crate::{Bytes, CmdError, ExecContext, Rope, UnixCommand};
use kq_pattern::{Regex, Syntax};

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
        let mut pattern: Option<&String> = None;
        for a in args {
            if let Some(flags) = a.strip_prefix('-') {
                if flags.is_empty() || pattern.is_some() {
                    return Err(CmdError::new("grep", format!("bad option {a}")));
                }
                for f in flags.chars() {
                    match f {
                        'c' => count = true,
                        'v' => invert = true,
                        'i' => insensitive = true,
                        'n' => number = true,
                        'E' => syntax = Syntax::Extended,
                        other => {
                            return Err(CmdError::new("grep", format!("unknown flag -{other}")))
                        }
                    }
                }
            } else if pattern.is_none() {
                pattern = Some(a);
            } else {
                return Err(CmdError::new("grep", "file operands are not supported"));
            }
        }
        let pattern = pattern.ok_or_else(|| CmdError::new("grep", "missing pattern"))?;
        let regex = Regex::with_syntax(pattern, syntax, insensitive)
            .map_err(|e| CmdError::new("grep", e.to_string()))?;
        let mut display = String::from("grep");
        for a in args {
            display.push(' ');
            if a.contains([' ', '\\', '*', '$', '|', '(', ')', '?']) {
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

    /// True when a matched line is emitted verbatim (no `-c` count, no
    /// `-n` prefix) — the precondition for the slice fast path.
    fn emits_verbatim(&self) -> bool {
        !self.count && !self.number
    }

    /// The slice fast path: walks line boundaries, tests each line, and
    /// emits matches as coalesced sub-slice runs of `input`. `text` must
    /// be the UTF-8 view of `input` (same indices).
    fn run_select_slices(&self, input: &Bytes, text: &str) -> Bytes {
        let mut out = Rope::new();
        let mut run_start: Option<usize> = None;
        let mut pos = 0usize;
        let len = text.len();
        while pos < len {
            let (line_end, next) = match text[pos..].find('\n') {
                Some(i) => (pos + i, pos + i + 1),
                None => (len, len),
            };
            let hit = self.regex.is_match(&text[pos..line_end]) != self.invert;
            if hit {
                run_start.get_or_insert(pos);
            } else if let Some(s) = run_start.take() {
                out.push(input.slice(s..pos));
            }
            pos = next;
        }
        if let Some(s) = run_start.take() {
            out.push(input.slice(s..len));
            if !text.ends_with('\n') {
                // GNU grep newline-terminates a matched unterminated
                // final line; only this rare case leaves pure slicing.
                out.push(Bytes::from("\n"));
            }
        }
        out.into_bytes()
    }

    /// The pre-fast-path implementation: rebuilds the output as a fresh
    /// `String`, one line at a time. Still the real path for `-c`/`-n`
    /// (their output is a reformatting, not a subsequence of the input)
    /// and the oracle the differential tests compare the slice path
    /// against.
    #[doc(hidden)]
    pub fn run_reference(&self, input: &str) -> String {
        let mut out = String::new();
        let mut n: u64 = 0;
        for (idx, line) in kq_stream::lines_of(input).enumerate() {
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

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let text = crate::input_str(&input, "grep")?;
        if self.emits_verbatim() {
            return Ok(self.run_select_slices(&input, text));
        }
        Ok(Bytes::from(self.run_reference(text)))
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
    fn slice_path_agrees_with_reference_on_edge_cases() {
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
        ];
        for cmd_line in ["grep a", "grep -v a", "grep -i A", "grep '^$'"] {
            let g = grep(cmd_line);
            for input in cases {
                let fast = g.run(Bytes::from(input), &ExecContext::default()).unwrap();
                assert_eq!(
                    fast.as_str(),
                    g.run_reference(input),
                    "{cmd_line:?} diverged on {input:?}"
                );
            }
        }
    }
}
