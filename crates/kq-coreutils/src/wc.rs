//! `wc` — line/word/byte counting.
//!
//! GNU prints a bare number for a single count read from stdin (`wc -l <
//! file` → `"42\n"`) and space-separated padded columns for the default
//! triple. The corpus uses `wc -l`, `wc -w`, and `wc -c`; the synthesized
//! combiner for all of them is `(back '\n' add)`.

use crate::{Bytes, CmdError, EffectClass, ExecContext, UnixCommand};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Count {
    Lines,
    Words,
    Bytes,
}

/// The `wc` command.
pub struct WcCmd {
    selected: Vec<Count>,
    display: String,
}

impl WcCmd {
    /// Parses `wc` arguments.
    pub fn parse(args: &[String]) -> Result<WcCmd, CmdError> {
        let mut selected = Vec::new();
        for a in args {
            let Some(flags) = a.strip_prefix('-') else {
                return Err(CmdError::new("wc", "file operands are not supported"));
            };
            for f in flags.chars() {
                let c = match f {
                    'l' => Count::Lines,
                    'w' => Count::Words,
                    'c' => Count::Bytes,
                    other => return Err(CmdError::new("wc", format!("unknown flag -{other}"))),
                };
                if !selected.contains(&c) {
                    selected.push(c);
                }
            }
        }
        if selected.is_empty() {
            selected = vec![Count::Lines, Count::Words, Count::Bytes];
        } else {
            // Output order is fixed (lines, words, bytes) regardless of
            // flag order, as in GNU.
            selected.sort_by_key(|c| match c {
                Count::Lines => 0,
                Count::Words => 1,
                Count::Bytes => 2,
            });
        }
        let display = if args.is_empty() {
            "wc".to_owned()
        } else {
            format!("wc {}", args.join(" "))
        };
        Ok(WcCmd { selected, display })
    }

    fn count(input: &[u8], what: Count) -> usize {
        match what {
            Count::Lines => kq_stream::count_delim(b'\n', input),
            Count::Words => words(input),
            Count::Bytes => input.len(),
        }
    }
}

/// Words as GNU `wc` counts them under `LC_ALL=C`: `\t\n\v\f\r` and
/// space separate words, and a run between separators is a word only if
/// it holds a printable, non-blank byte (`0x21..=0x7E`).
fn words(input: &[u8]) -> usize {
    input
        .split(|b| matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' '))
        .filter(|run| run.iter().any(|b| b.is_ascii_graphic()))
        .count()
}

impl UnixCommand for WcCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    fn effect_class(&self) -> EffectClass {
        // Per-piece counts sum.
        EffectClass::CommutativeFold
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let counts: Vec<usize> = self
            .selected
            .iter()
            .map(|&c| Self::count(input.as_bytes(), c))
            .collect();
        let mut out = String::new();
        if counts.len() == 1 {
            out.push_str(&counts[0].to_string());
        } else {
            // GNU pads multi-column stdin output to 7 columns.
            for (i, c) in counts.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&format!("{c:>7}"));
            }
        }
        out.push('\n');
        Ok(Bytes::from(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_command;
    use proptest::prelude::*;

    fn run(cmd: &str, input: &str) -> String {
        parse_command(cmd)
            .unwrap()
            .run_str(input, &ExecContext::default())
            .unwrap()
    }

    #[test]
    fn line_count_bare() {
        assert_eq!(run("wc -l", "a\nb\nc\n"), "3\n");
        assert_eq!(run("wc -l", ""), "0\n");
        // An unterminated final line is not counted (GNU counts '\n's).
        assert_eq!(run("wc -l", "a\nb"), "1\n");
    }

    #[test]
    fn word_count() {
        assert_eq!(run("wc -w", "one two\n three\n"), "3\n");
    }

    #[test]
    fn words_are_runs_with_a_printable_byte() {
        let words = |input: &[u8]| {
            parse_command("wc -w")
                .unwrap()
                .run(Bytes::from(input.to_vec()), &ExecContext::default())
                .unwrap()
        };
        // GNU `wc -w` under `LC_ALL=C`.
        assert_eq!(words(b"a\x0bb c"), "3\n");
        assert_eq!(words(b"a\x01b c\n\x01"), "2\n");
        assert_eq!(words("日本 語\ncafé".as_bytes()), "1\n");
        assert_eq!(words(b"\xe9\xb0 x\x0c\ty\r"), "2\n");
    }

    #[test]
    fn byte_count() {
        assert_eq!(run("wc -c", "abc\n"), "4\n");
    }

    #[test]
    fn default_triple_padded() {
        assert_eq!(run("wc", "ab cd\n"), "      1       2       6\n");
    }

    #[test]
    fn flag_order_normalized() {
        assert_eq!(run("wc -cl", "hi\n"), run("wc -lc", "hi\n"));
    }

    #[test]
    fn rejects_unknown() {
        assert!(parse_command("wc -m").is_err());
        assert!(parse_command("wc file").is_err());
    }

    proptest! {
        #[test]
        fn prop_line_count_additive(
            a in proptest::collection::vec("[a-z ]{0,6}", 0..20),
            b in proptest::collection::vec("[a-z ]{0,6}", 0..20),
        ) {
            // The divide-and-conquer property that makes (back '\n' add)
            // the correct combiner for wc -l.
            let s1: String = a.iter().map(|l| format!("{l}\n")).collect();
            let s2: String = b.iter().map(|l| format!("{l}\n")).collect();
            let n = |s: &str| run("wc -l", s).trim().parse::<usize>().unwrap();
            prop_assert_eq!(n(&format!("{}{}", s1, s2)), n(&s1) + n(&s2));
        }
    }
}
