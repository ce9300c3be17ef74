//! Commands beyond the paper's corpus, added to exercise DSL operators the
//! corpus rarely reaches and to document fresh no-combiner cases:
//!
//! * [`NlCmd`] (`nl`, and `cat -n` via [`crate::parse_command`]) — line
//!   numbering. `cat -n` numbers every line, so its combiner is
//!   `(offset '\t' add)`: the representative `g_oa` of Definition B.11,
//!   otherwise seen only for `xargs wc -l`. GNU `nl` leaves empty lines
//!   unnumbered as a 7-space gutter, which falls outside `L(offset)`, so
//!   `nl` synthesizes only `rerun` — a nice demonstration that formatting
//!   details decide combinability.
//! * [`TacCmd`] (`tac`) — line reversal. Its combiner is the *swapped*
//!   concatenation `(concat b a)`: `tac(x1 ++ x2) = tac(x2) ++ tac(x1)`.
//!   This is the only command whose correct combiner requires the
//!   argument-order swap that the enumerator adds to every candidate.
//! * [`FoldCmd`] (`fold -w N`) and [`ExpandCmd`] (`expand`) — per-line
//!   maps; plain `concat`.
//! * [`ShufCmd`] (`shuf`) — deliberately nondeterministic. KumQuat's model
//!   requires deterministic commands; `shuf` makes the synthesizer observe
//!   inconsistent outputs and eliminate every candidate (failure
//!   injection for Algorithm 1).

use crate::{Bytes, CmdError, ExecContext, UnixCommand};
use std::sync::atomic::{AtomicU64, Ordering};

/// Line-numbering style shared by `nl` and `cat -n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumberStyle {
    /// `cat -n`: number every line.
    AllLines,
    /// GNU `nl` default (`-b t`): number non-empty lines; empty lines get
    /// a 7-space gutter and no separator tab.
    NonEmpty,
}

/// `nl` / `cat -n` — prefix lines with a 6-wide right-aligned number and a
/// tab separator, GNU-style.
pub struct NlCmd {
    style: NumberStyle,
    display: String,
}

impl NlCmd {
    /// Parses `nl` arguments. Supports the default body typing and the
    /// explicit `-b a` (all lines) / `-b t` (non-empty) forms.
    pub fn parse(args: &[String]) -> Result<NlCmd, CmdError> {
        let mut style = NumberStyle::NonEmpty;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let spec = if a == "-b" {
                it.next()
                    .ok_or_else(|| CmdError::new("nl", "missing -b style"))?
                    .as_str()
            } else if let Some(body) = a.strip_prefix("-b") {
                body
            } else {
                return Err(CmdError::new("nl", format!("unsupported option {a}")));
            };
            style = match spec {
                "a" => NumberStyle::AllLines,
                "t" => NumberStyle::NonEmpty,
                other => {
                    return Err(CmdError::new(
                        "nl",
                        format!("unsupported body type {other}"),
                    ))
                }
            };
        }
        let display = if args.is_empty() {
            "nl".to_owned()
        } else {
            format!("nl {}", args.join(" "))
        };
        Ok(NlCmd { style, display })
    }

    /// The `cat -n` numbering behaviour.
    pub fn cat_n() -> NlCmd {
        NlCmd {
            style: NumberStyle::AllLines,
            display: "cat -n".to_owned(),
        }
    }

    /// Numbers `input` according to the style.
    pub fn number(&self, input: &str) -> String {
        let mut out = String::with_capacity(input.len() + input.len() / 4);
        let mut n = 0u64;
        for line in input.split_terminator('\n') {
            if self.style == NumberStyle::NonEmpty && line.is_empty() {
                // GNU nl: unnumbered lines get a 7-character gutter.
                out.push_str("       \n");
                continue;
            }
            n += 1;
            out.push_str(&format!("{n:>6}\t{line}\n"));
        }
        out
    }
}

impl UnixCommand for NlCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    fn decodes(&self) -> bool {
        true
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "nl")?;
        let text = || -> Result<String, CmdError> { Ok(self.number(input)) };
        text().map(Bytes::from)
    }
}

/// `tac` — print lines in reverse order.
pub struct TacCmd;

impl UnixCommand for TacCmd {
    fn display(&self) -> String {
        "tac".to_owned()
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let lines: Vec<&[u8]> = kq_stream::lines_of(input.as_bytes()).collect();
        let mut out = Vec::with_capacity(input.len() + 1);
        for line in lines.iter().rev() {
            out.extend_from_slice(line);
            out.push(b'\n');
        }
        Ok(Bytes::from(out))
    }
}

/// `fold -w N` — break lines longer than N characters (no word wrap).
pub struct FoldCmd {
    width: usize,
}

impl FoldCmd {
    /// Parses `fold` arguments (`-w N`, `-wN`).
    pub fn parse(args: &[String]) -> Result<FoldCmd, CmdError> {
        let mut width = 80usize;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let spec: &str = if a == "-w" {
                it.next()
                    .ok_or_else(|| CmdError::new("fold", "missing width"))?
            } else if let Some(body) = a.strip_prefix("-w") {
                body
            } else {
                return Err(CmdError::new("fold", format!("unsupported option {a}")));
            };
            width = spec
                .parse()
                .map_err(|_| CmdError::new("fold", format!("invalid width {spec:?}")))?;
            if width == 0 {
                return Err(CmdError::new("fold", "width must be positive"));
            }
        }
        Ok(FoldCmd { width })
    }
}

impl UnixCommand for FoldCmd {
    fn display(&self) -> String {
        format!("fold -w{}", self.width)
    }

    fn decodes(&self) -> bool {
        true
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "fold")?;
        let text = || -> Result<String, CmdError> {
            let mut out = String::with_capacity(input.len());
            for line in input.split_terminator('\n') {
                let chars: Vec<char> = line.chars().collect();
                if chars.is_empty() {
                    out.push('\n');
                    continue;
                }
                for chunk in chars.chunks(self.width) {
                    out.extend(chunk.iter());
                    out.push('\n');
                }
            }
            Ok(out)
        };
        text().map(Bytes::from)
    }
}

/// `expand` — convert tabs to spaces at 8-column tab stops.
pub struct ExpandCmd;

impl UnixCommand for ExpandCmd {
    fn display(&self) -> String {
        "expand".to_owned()
    }

    fn decodes(&self) -> bool {
        true
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "expand")?;
        let text = || -> Result<String, CmdError> {
            let mut out = String::with_capacity(input.len());
            for line in input.split_terminator('\n') {
                let mut col = 0usize;
                for c in line.chars() {
                    if c == '\t' {
                        let stop = (col / 8 + 1) * 8;
                        while col < stop {
                            out.push(' ');
                            col += 1;
                        }
                    } else {
                        out.push(c);
                        col += 1;
                    }
                }
                out.push('\n');
            }
            Ok(out)
        };
        text().map(Bytes::from)
    }
}

/// Process-wide counter making every `shuf` run observably different.
static SHUF_RUNS: AtomicU64 = AtomicU64::new(0x9E3779B97F4A7C15);

/// `shuf` — permute input lines pseudo-randomly. Every invocation uses a
/// fresh seed (like real `shuf` seeding from the OS), so repeated runs on
/// the same input differ: the command violates KumQuat's determinism
/// assumption by design.
pub struct ShufCmd;

impl UnixCommand for ShufCmd {
    fn display(&self) -> String {
        "shuf".to_owned()
    }

    fn decodes(&self) -> bool {
        true
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "shuf")?;
        let text = || -> Result<String, CmdError> {
            let mut lines: Vec<&str> = input.split_terminator('\n').collect();
            // xorshift* seeded from the run counter: cheap, deterministic per
            // call index, different across calls.
            let mut state = SHUF_RUNS.fetch_add(1, Ordering::Relaxed) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in (1..lines.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                lines.swap(i, j);
            }
            let mut out = String::with_capacity(input.len());
            for line in lines {
                out.push_str(line);
                out.push('\n');
            }
            Ok(out)
        };
        text().map(Bytes::from)
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
    fn cat_n_numbers_every_line() {
        assert_eq!(
            run("cat -n", "a\n\nb\n"),
            "     1\ta\n     2\t\n     3\tb\n"
        );
    }

    #[test]
    fn nl_skips_empty_lines_gnu_style() {
        // Verified against GNU nl: unnumbered lines are a 7-space gutter.
        assert_eq!(run("nl", "a\n\nb\n"), "     1\ta\n       \n     2\tb\n");
    }

    #[test]
    fn nl_b_a_numbers_everything() {
        assert_eq!(run("nl -b a", "a\n\n"), "     1\ta\n     2\t\n");
    }

    #[test]
    fn nl_rejects_unknown_options() {
        assert!(parse_command("nl -s:").is_err());
        assert!(parse_command("nl -b q").is_err());
    }

    #[test]
    fn cat_n_offset_add_property() {
        // The divide-and-conquer shape: numbering the concatenation equals
        // numbering the halves and offsetting the second by the first's
        // final count — exactly `(offset '\t' add)`.
        let x1 = "p\nq\n";
        let x2 = "r\n";
        let y12 = run("cat -n", &format!("{x1}{x2}"));
        assert_eq!(y12, "     1\tp\n     2\tq\n     3\tr\n");
    }

    #[test]
    fn tac_reverses_lines() {
        assert_eq!(run("tac", "x\ny\nz\n"), "z\ny\nx\n");
        assert_eq!(run("tac", ""), "");
    }

    #[test]
    fn tac_swapped_concat_property() {
        // tac(x1 ++ x2) == tac(x2) ++ tac(x1) — the swapped concat.
        let x1 = "a\nb\n";
        let x2 = "c\nd\n";
        let whole = run("tac", &format!("{x1}{x2}"));
        let stitched = format!("{}{}", run("tac", x2), run("tac", x1));
        assert_eq!(whole, stitched);
    }

    #[test]
    fn fold_breaks_long_lines() {
        assert_eq!(run("fold -w3", "abcdefgh\n"), "abc\ndef\ngh\n");
        assert_eq!(run("fold -w3", "ab\n"), "ab\n");
        assert_eq!(run("fold -w3", "\n"), "\n");
    }

    #[test]
    fn fold_rejects_zero_width() {
        assert!(parse_command("fold -w0").is_err());
    }

    #[test]
    fn expand_tabs_to_stops() {
        assert_eq!(run("expand", "a\tb\n"), "a       b\n");
        assert_eq!(run("expand", "abcdefgh\ti\n"), "abcdefgh        i\n");
        assert_eq!(run("expand", "no tabs\n"), "no tabs\n");
    }

    #[test]
    fn shuf_permutes_and_differs_across_runs() {
        let input: String = (0..64).map(|i| format!("line{i}\n")).collect();
        let a = run("shuf", &input);
        let b = run("shuf", &input);
        // Same multiset of lines...
        let sort = |s: &str| {
            let mut v: Vec<&str> = s.lines().collect();
            v.sort_unstable();
            v.join("\n")
        };
        assert_eq!(sort(&a), sort(&input));
        // ...but (with overwhelming probability) different order per run.
        assert_ne!(a, b, "two shuf runs produced identical permutations");
    }
}
