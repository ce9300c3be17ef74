//! `head` and `tail` — line-window commands.
//!
//! `head` supports `-n N`, the historical `-N`, and the 10-line default.
//! `tail` supports `-n N` (last N lines), and the from-line forms `+N` /
//! `-n +N` (everything starting at line N) — the latter being Table 9's
//! `tail +2`/`tail +3`, for which no combiner exists.

use crate::{Bytes, CmdError, EffectClass, ExecContext, UnixCommand};

/// The `head` command.
pub struct HeadCmd {
    n: usize,
    file: Option<String>,
    display: String,
}

impl HeadCmd {
    /// Parses `head` arguments.
    pub fn parse(args: &[String]) -> Result<HeadCmd, CmdError> {
        let mut n = 10usize;
        let mut file: Option<String> = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "-n" {
                let v = it
                    .next()
                    .ok_or_else(|| CmdError::new("head", "missing count"))?;
                n = v
                    .parse()
                    .map_err(|_| CmdError::new("head", format!("invalid count {v:?}")))?;
            } else if let Some(body) = a.strip_prefix("-n") {
                n = body
                    .parse()
                    .map_err(|_| CmdError::new("head", format!("invalid count {body:?}")))?;
            } else if let Some(body) = a.strip_prefix('-') {
                n = body
                    .parse()
                    .map_err(|_| CmdError::new("head", format!("invalid option {a}")))?;
            } else if file.is_none() {
                file = Some(a.clone());
            } else {
                return Err(CmdError::new("head", "at most one file operand"));
            }
        }
        let display = if args.is_empty() {
            "head".to_owned()
        } else {
            format!("head {}", args.join(" "))
        };
        Ok(HeadCmd { n, file, display })
    }
}

impl UnixCommand for HeadCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    fn reads_stdin(&self) -> bool {
        self.file.is_none()
    }

    fn effect_class(&self) -> EffectClass {
        // A line prefix: the first piece (or a rerun) combines.
        EffectClass::PureParallelizable
    }

    fn line_bound(&self) -> Option<usize> {
        // The first n lines determine the whole output; with a file
        // operand stdin is ignored entirely (Command::line_bound already
        // masks that case, but the answer is honest either way).
        self.file.is_none().then_some(self.n)
    }

    fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let stream = match &self.file {
            Some(f) => ctx
                .vfs
                .read_bytes(f)
                .ok_or_else(|| CmdError::new("head", format!("{f}: No such file or directory")))?,
            None => input,
        };
        // The first n lines are a prefix slice of the input: zero-copy
        // unless the window ends on an unterminated final line (which the
        // stream model terminates, requiring one small copy).
        match line_offset(stream.as_bytes(), self.n) {
            Window::At(end) => Ok(stream.slice(0..end)),
            Window::PastTerminated => Ok(stream),
            Window::PastUnterminated => Ok(terminate(&stream)),
        }
    }
}

/// Where the `n`-th line boundary falls in `bytes`.
enum Window {
    /// Byte offset just after the `n`-th newline.
    At(usize),
    /// Fewer than `n` lines and the input is newline-terminated (or empty).
    PastTerminated,
    /// Fewer than `n` lines with an unterminated final line.
    PastUnterminated,
}

fn line_offset(bytes: &[u8], n: usize) -> Window {
    if n == 0 {
        return Window::At(0);
    }
    let mut seen = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            seen += 1;
            if seen == n {
                return Window::At(i + 1);
            }
        }
    }
    if bytes.last().is_some_and(|&b| b != b'\n') {
        Window::PastUnterminated
    } else {
        Window::PastTerminated
    }
}

/// Copies `stream` with a final newline appended (the stream-model
/// normalization the line-window commands apply to unterminated input).
fn terminate(stream: &Bytes) -> Bytes {
    let mut out = Vec::with_capacity(stream.len() + 1);
    out.extend_from_slice(stream.as_bytes());
    out.push(b'\n');
    Bytes::from(out)
}

enum TailMode {
    /// Last N lines.
    LastN(usize),
    /// From line N (1-based) to the end — `tail +N`.
    FromLine(usize),
}

/// The `tail` command.
pub struct TailCmd {
    mode: TailMode,
    file: Option<String>,
    display: String,
}

impl TailCmd {
    /// Parses `tail` arguments.
    pub fn parse(args: &[String]) -> Result<TailCmd, CmdError> {
        let mut mode = TailMode::LastN(10);
        let mut file: Option<String> = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let spec: &str = if a == "-n" {
                it.next()
                    .ok_or_else(|| CmdError::new("tail", "missing count"))?
            } else if let Some(body) = a.strip_prefix("-n") {
                body
            } else if a.starts_with('+') {
                a
            } else if let Some(body) = a.strip_prefix('-') {
                // Historical "tail -5".
                body
            } else if file.is_none() {
                file = Some(a.clone());
                continue;
            } else {
                return Err(CmdError::new("tail", "at most one file operand"));
            };
            mode = if let Some(from) = spec.strip_prefix('+') {
                TailMode::FromLine(
                    from.parse().map_err(|_| {
                        CmdError::new("tail", format!("invalid line number {spec:?}"))
                    })?,
                )
            } else {
                TailMode::LastN(
                    spec.parse()
                        .map_err(|_| CmdError::new("tail", format!("invalid count {spec:?}")))?,
                )
            };
        }
        let display = if args.is_empty() {
            "tail".to_owned()
        } else {
            format!("tail {}", args.join(" "))
        };
        Ok(TailCmd {
            mode,
            file,
            display,
        })
    }
}

impl UnixCommand for TailCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    fn reads_stdin(&self) -> bool {
        self.file.is_none()
    }

    fn effect_class(&self) -> EffectClass {
        // A suffix, or everything from a line number on.
        EffectClass::OrderSensitive
    }

    fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let stream = match &self.file {
            Some(f) => ctx
                .vfs
                .read_bytes(f)
                .ok_or_else(|| CmdError::new("tail", format!("{f}: No such file or directory")))?,
            None => input,
        };
        let start_line = match self.mode {
            TailMode::LastN(n) => {
                // Only the last-N form needs the total line count (one
                // O(n) byte scan); `tail +N` indexes from the front.
                let newlines = stream.count_newlines();
                let total =
                    newlines + usize::from(stream.as_bytes().last().is_some_and(|&b| b != b'\n'));
                total.saturating_sub(n)
            }
            TailMode::FromLine(n) => n.saturating_sub(1),
        };
        // The suffix starting at `start_line` is a slice of the input:
        // zero-copy unless the final line is unterminated (which the
        // stream model terminates, requiring one small copy).
        let start = match line_offset(stream.as_bytes(), start_line) {
            Window::At(off) => off,
            Window::PastTerminated | Window::PastUnterminated => stream.len(),
        };
        let suffix = stream.slice(start..stream.len());
        if suffix.is_empty() || suffix.ends_with_newline() {
            Ok(suffix)
        } else {
            Ok(terminate(&suffix))
        }
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
    fn head_default_ten() {
        let input: String = (1..=15).map(|i| format!("{i}\n")).collect();
        let expect: String = (1..=10).map(|i| format!("{i}\n")).collect();
        assert_eq!(run("head", &input), expect);
    }

    #[test]
    fn head_n_forms() {
        let input = "1\n2\n3\n4\n";
        assert_eq!(run("head -n 2", input), "1\n2\n");
        assert_eq!(run("head -n2", input), "1\n2\n");
        assert_eq!(run("head -2", input), "1\n2\n");
        assert_eq!(run("head -15", input), input);
        assert_eq!(run("head -n 1", input), "1\n");
    }

    #[test]
    fn head_zero() {
        assert_eq!(run("head -n 0", "a\nb\n"), "");
    }

    #[test]
    fn tail_last_n() {
        let input = "1\n2\n3\n4\n";
        assert_eq!(run("tail -n 1", input), "4\n");
        assert_eq!(run("tail -n 2", input), "3\n4\n");
        assert_eq!(run("tail -2", input), "3\n4\n");
        assert_eq!(run("tail -n 10", input), input);
    }

    #[test]
    fn tail_from_line() {
        let input = "1\n2\n3\n4\n";
        assert_eq!(run("tail +2", input), "2\n3\n4\n");
        assert_eq!(run("tail -n +3", input), "3\n4\n");
        assert_eq!(run("tail +1", input), input);
        assert_eq!(run("tail +9", input), "");
    }

    #[test]
    fn head_tail_windows_are_zero_copy() {
        let input = Bytes::from("1\n2\n3\n4\n");
        let ctx = ExecContext::default();
        let head = parse_command("head -n 2").unwrap();
        let out = head.run(input.clone(), &ctx).unwrap();
        assert_eq!(out, "1\n2\n");
        assert!(out.shares_buffer(&input), "head window must be a slice");
        let tail = parse_command("tail -n 2").unwrap();
        let out = tail.run(input.clone(), &ctx).unwrap();
        assert_eq!(out, "3\n4\n");
        assert!(out.shares_buffer(&input), "tail window must be a slice");
    }

    #[test]
    fn head_tail_unterminated_input_normalizes() {
        // The pre-refactor implementations emitted every line with a
        // trailing newline; the sliced fast path must preserve that.
        assert_eq!(run("head -n 3", "a\nb"), "a\nb\n");
        assert_eq!(run("tail -n 1", "a\nb"), "b\n");
        assert_eq!(run("tail +2", "a\nb"), "b\n");
        assert_eq!(run("head -n 1", "a\nb"), "a\n");
        assert_eq!(run("tail -n 5", ""), "");
        assert_eq!(run("head -n 5", ""), "");
    }

    #[test]
    fn head_signals_its_line_bound() {
        assert_eq!(parse_command("head -n 3").unwrap().line_bound(), Some(3));
        assert_eq!(parse_command("head -15").unwrap().line_bound(), Some(15));
        assert_eq!(parse_command("head").unwrap().line_bound(), Some(10));
        assert_eq!(parse_command("head -n 0").unwrap().line_bound(), Some(0));
        // A file operand makes head a source: the bound applies to the
        // file, never to the (ignored) pipe.
        assert_eq!(
            parse_command("head -n 3 /f.txt").unwrap().line_bound(),
            None
        );
        // tail needs the end of the stream: never prefix-bounded.
        assert_eq!(parse_command("tail -n 1").unwrap().line_bound(), None);
        assert_eq!(parse_command("tail +2").unwrap().line_bound(), None);
    }

    #[test]
    fn line_bound_contract_holds_on_prefixes() {
        // The semantic contract: run on any stream holding >= n complete
        // lines equals run on the full stream.
        let full = "a\nb\nc\nd\ne\n";
        let cmd = parse_command("head -n 2").unwrap();
        let ctx = ExecContext::default();
        let whole = cmd.run_str(full, &ctx).unwrap();
        let prefix = cmd.run_str("a\nb\n", &ctx).unwrap();
        assert_eq!(whole, prefix);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_command("head -n").is_err());
        assert!(parse_command("head -x").is_err());
        assert!(parse_command("tail -n x").is_err());
        assert!(parse_command("head a b").is_err());
    }
}
