//! `sed` — the stream-editor script forms used by the corpus:
//!
//! * `s<delim>RE<delim>REPL<delim>[g]` — substitution with any delimiter
//!   (the poets scripts use `s;^;prefix;`), backreferences and `&` in the
//!   replacement;
//! * `Nq` — print the first N lines, then quit (`sed 100q`, `sed 5q`);
//! * `Nd` — delete the N-th line (`sed 1d` … `sed 5d`, Table 9's
//!   no-combiner-exists commands);
//! * `$d` — delete the last line.
//!
//! Substitution takes a **byte fast path** over the same whole-buffer
//! scan as `grep` ([`kq_pattern::Regex::matching_lines`]): lines the
//! pattern does not match are copied through as byte ranges of the input
//! by the gather of `fastpath`, and only the lines it accepts
//! are rebuilt (the backtracker computes their match and capture spans).
//! An input without a match comes back as the input handle itself.
//! Substitution reads characters, so it decodes its input first. The
//! address forms only count lines: they keep byte ranges of any input,
//! as under `LC_ALL=C`, and `sed Nq` never looks past its N lines. The
//! line-at-a-time loop survives as the differential tests' oracle
//! ([`SedCmd::run_reference`]).

use crate::fastpath::SliceRuns;
use crate::{Bytes, CmdError, EffectClass, ExecContext, Rope, UnixCommand};
use kq_pattern::Regex;

enum Script {
    Substitute {
        regex: Regex,
        replacement: String,
        global: bool,
    },
    QuitAfter(usize),
    DeleteLine(usize),
    DeleteLast,
}

/// The `sed` command.
pub struct SedCmd {
    script: Script,
    /// File operands, read in order instead of stdin.
    files: Vec<String>,
    display: String,
}

impl SedCmd {
    /// Parses `sed` arguments: a single script word (optionally preceded by
    /// `-e`), then file operands.
    pub fn parse(args: &[String]) -> Result<SedCmd, CmdError> {
        let mut script_text: Option<&String> = None;
        let mut files = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-e" => {
                    script_text = Some(
                        it.next()
                            .ok_or_else(|| CmdError::new("sed", "missing script"))?,
                    );
                }
                "-n" => return Err(CmdError::new("sed", "-n is not supported")),
                _ if script_text.is_none() => script_text = Some(a),
                _ => files.push(a.clone()),
            }
        }
        let text = script_text.ok_or_else(|| CmdError::new("sed", "missing script"))?;
        let script = parse_script(text)?;
        let mut display = format!("sed '{text}'");
        for f in &files {
            display.push(' ');
            display.push_str(f);
        }
        Ok(SedCmd {
            script,
            files,
            display,
        })
    }
}

fn parse_script(text: &str) -> Result<Script, CmdError> {
    let chars: Vec<char> = text.chars().collect();
    if chars.is_empty() {
        return Err(CmdError::new("sed", "empty script"));
    }
    // Address forms: "100q", "3d", "$d".
    if text == "$d" {
        return Ok(Script::DeleteLast);
    }
    let digits: String = chars.iter().take_while(|c| c.is_ascii_digit()).collect();
    if !digits.is_empty() && digits.len() + 1 == chars.len() {
        let n: usize = digits
            .parse()
            .map_err(|_| CmdError::new("sed", "address overflow"))?;
        match chars[chars.len() - 1] {
            'q' => return Ok(Script::QuitAfter(n)),
            'd' => return Ok(Script::DeleteLine(n)),
            other => return Err(CmdError::new("sed", format!("unknown command {other}"))),
        }
    }
    // Substitution with arbitrary delimiter: s<d>RE<d>REPL<d>[flags]
    if chars[0] == 's' && chars.len() >= 4 {
        let d = chars[1];
        let mut parts: Vec<String> = vec![String::new()];
        let mut i = 2;
        while i < chars.len() {
            let c = chars[i];
            if c == '\\' && i + 1 < chars.len() && chars[i + 1] == d {
                // Escaped delimiter stays literal.
                parts.last_mut().unwrap().push(d);
                i += 2;
                continue;
            }
            if c == d {
                parts.push(String::new());
            } else {
                parts.last_mut().unwrap().push(c);
            }
            i += 1;
        }
        if parts.len() != 3 {
            return Err(CmdError::new("sed", "unterminated s command"));
        }
        let (re_text, replacement, flags) = (&parts[0], &parts[1], &parts[2]);
        let mut global = false;
        for f in flags.chars() {
            match f {
                'g' => global = true,
                other => return Err(CmdError::new("sed", format!("unknown s flag {other}"))),
            }
        }
        let regex = Regex::new(re_text).map_err(|e| CmdError::new("sed", e.to_string()))?;
        return Ok(Script::Substitute {
            regex,
            replacement: replacement.clone(),
            global,
        });
    }
    Err(CmdError::new("sed", format!("unsupported script {text:?}")))
}

impl UnixCommand for SedCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    fn reads_stdin(&self) -> bool {
        self.files.is_empty()
    }

    fn line_bound(&self) -> Option<usize> {
        // Only the quit form stops reading: `sed kq` prints the first k
        // lines and never observes the rest. The delete forms need the
        // whole stream (`kd` must echo the tail, `$d` must find the end)
        // and substitution reads everything.
        match &self.script {
            Script::QuitAfter(n) => Some(*n),
            _ => None,
        }
    }

    fn decodes(&self) -> bool {
        matches!(self.script, Script::Substitute { .. })
    }

    fn effect_class(&self) -> EffectClass {
        match self.script {
            // A per-line map.
            Script::Substitute { .. } => EffectClass::Stateless,
            // An address pins behaviour to line positions.
            Script::QuitAfter(_) | Script::DeleteLine(_) | Script::DeleteLast => {
                EffectClass::OrderSensitive
            }
        }
    }

    fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = if self.files.is_empty() {
            input
        } else {
            let mut rope = Rope::new();
            for f in &self.files {
                rope.push(ctx.vfs.read_bytes(f).ok_or_else(|| {
                    CmdError::new("sed", format!("can't read {f}: No such file or directory"))
                })?);
            }
            rope.into_bytes()
        };
        let mut runs = SliceRuns::new(&input);
        let bytes = input.as_bytes();
        let (regex, replacement, global) = match &self.script {
            Script::Substitute {
                regex,
                replacement,
                global,
            } => (regex, replacement, *global),
            Script::QuitAfter(n) => {
                runs.keep(0..line_start(bytes, *n));
                return Ok(runs.finish_terminated());
            }
            Script::DeleteLine(n) => {
                if *n > 0 {
                    runs.keep(0..line_start(bytes, n - 1));
                    runs.keep(line_start(bytes, *n)..bytes.len());
                } else {
                    runs.keep(0..bytes.len());
                }
                return Ok(runs.finish_terminated());
            }
            Script::DeleteLast => {
                let body = bytes.strip_suffix(b"\n").unwrap_or(bytes);
                let last = body
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |at| at + 1);
                runs.keep(0..last);
                return Ok(runs.finish());
            }
        };
        let text = crate::decode(&input, "sed")?;
        let mut rewritten = String::new();
        let mut pos = 0;
        for line in regex.matching_lines(text.as_bytes()) {
            runs.keep(pos..line.start);
            rewritten.clear();
            regex.replace_into(&text[line.clone()], replacement, global, &mut rewritten);
            rewritten.push('\n');
            runs.lit(rewritten.as_bytes());
            pos = (line.end + 1).min(text.len());
        }
        runs.keep(pos..text.len());
        Ok(runs.finish_terminated())
    }
}

/// Where line `n` (from 0) of `bytes` starts: the end of `bytes` when it
/// has no such line.
fn line_start(bytes: &[u8], n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(n - 1)
        .map_or(bytes.len(), |(at, _)| at + 1)
}

impl SedCmd {
    /// The line-at-a-time implementation, every line rebuilt into a fresh
    /// `String`: the oracle the differential tests compare the byte paths
    /// against.
    #[doc(hidden)]
    pub fn run_reference(&self, input: &str) -> String {
        let mut out = String::with_capacity(input.len());
        match &self.script {
            Script::Substitute {
                regex,
                replacement,
                global,
            } => {
                for line in input.split_terminator('\n') {
                    regex.replace_into(line, replacement, *global, &mut out);
                    out.push('\n');
                }
            }
            Script::QuitAfter(n) => {
                for (i, line) in input.split_terminator('\n').enumerate() {
                    if i >= *n {
                        break;
                    }
                    out.push_str(line);
                    out.push('\n');
                }
            }
            Script::DeleteLine(n) => {
                for (i, line) in input.split_terminator('\n').enumerate() {
                    if i + 1 == *n {
                        continue;
                    }
                    out.push_str(line);
                    out.push('\n');
                }
            }
            Script::DeleteLast => {
                let lines: Vec<&str> = input.split_terminator('\n').collect();
                for line in lines.iter().take(lines.len().saturating_sub(1)) {
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
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
    fn substitute_first() {
        assert_eq!(run("sed s/o/0/", "foo\nboo\n"), "f0o\nb0o\n");
    }

    #[test]
    fn substitute_global() {
        assert_eq!(run("sed s/o/0/g", "foo\n"), "f00\n");
    }

    #[test]
    fn substitute_with_semicolon_delimiter() {
        assert_eq!(
            run("sed 's;^;/in/;'", "a.txt\nb.txt\n"),
            "/in/a.txt\n/in/b.txt\n"
        );
    }

    #[test]
    fn substitute_end_of_line() {
        // unix50 17.sh: append "0s" to each line.
        assert_eq!(run("sed 's/$/0s/'", "197\n198\n"), "1970s\n1980s\n");
    }

    #[test]
    fn substitute_with_group() {
        // analytics-mts 3.sh: pull the hour out of the timestamp.
        assert_eq!(
            run(r"sed 's/T\(..\):..:../,\1/'", "2020-07-01T08:15:59,v42\n"),
            "2020-07-01,08,v42\n"
        );
    }

    #[test]
    fn timestamp_strip() {
        // analytics-mts 1.sh.
        assert_eq!(
            run("sed 's/T..:..:..//'", "2020-07-01T08:15:59,v42\n"),
            "2020-07-01,v42\n"
        );
    }

    #[test]
    fn quit_after_n() {
        let input = "1\n2\n3\n4\n";
        assert_eq!(run("sed 2q", input), "1\n2\n");
        assert_eq!(run("sed 100q", input), input);
    }

    #[test]
    fn delete_nth_line() {
        let input = "1\n2\n3\n";
        assert_eq!(run("sed 1d", input), "2\n3\n");
        assert_eq!(run("sed 2d", input), "1\n3\n");
        assert_eq!(run("sed 5d", input), input);
    }

    #[test]
    fn delete_last_line() {
        assert_eq!(run("sed '$d'", "1\n2\n3\n"), "1\n2\n");
        assert_eq!(run("sed '$d'", ""), "");
    }

    #[test]
    fn address_forms_keep_byte_ranges_equal_to_the_reference() {
        let ctx = ExecContext::default();
        let scripts = ["0q", "1q", "2q", "9q", "0d", "1d", "2d", "3d", "9d", "$d"];
        let inputs = [
            "",
            "\n",
            "a",
            "a\n",
            "a\nb",
            "a\nb\n",
            "a\n\nc",
            "a\nb\nc\n",
        ];
        for script in scripts {
            let sed = SedCmd::parse(&[script.to_string()]).unwrap();
            for input in inputs {
                let out = sed.run(Bytes::from(input), &ctx).unwrap();
                assert_eq!(out, sed.run_reference(input), "sed {script} on {input:?}");
            }
        }
        // Lines past the quit, and every line of the other forms, are
        // bytes as under `LC_ALL=C`.
        let foreign = Bytes::from(b"a\n\xe9\nc\n".to_vec());
        let run = |script: &str| {
            let sed = SedCmd::parse(&[script.to_string()]).unwrap();
            sed.run(foreign.clone(), &ctx).unwrap()
        };
        assert_eq!(run("1q").as_bytes(), b"a\n");
        assert_eq!(run("1d").as_bytes(), b"\xe9\nc\n");
        assert_eq!(run("$d").as_bytes(), b"a\n\xe9\n");
        let sub = SedCmd::parse(&["s/a/b/".to_string()]).unwrap();
        assert_eq!(
            sub.run(foreign, &ctx).unwrap_err().to_string(),
            "sed: input is not valid UTF-8"
        );
    }

    #[test]
    fn only_the_quit_form_is_prefix_bounded() {
        assert_eq!(parse_command("sed 100q").unwrap().line_bound(), Some(100));
        assert_eq!(parse_command("sed 5q").unwrap().line_bound(), Some(5));
        // Delete forms echo the tail (or need the end); substitution
        // reads everything — none may signal a bound.
        assert_eq!(parse_command("sed 1d").unwrap().line_bound(), None);
        assert_eq!(parse_command("sed '$d'").unwrap().line_bound(), None);
        assert_eq!(parse_command("sed s/a/b/").unwrap().line_bound(), None);
    }

    #[test]
    fn rejects_unsupported_scripts() {
        assert!(parse_command("sed y/abc/xyz/").is_err());
        assert!(parse_command("sed").is_err());
        assert!(parse_command("sed s/a/b").is_err());
    }
}
