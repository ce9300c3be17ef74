//! Multi-input and filesystem commands: `paste`, `diff`, `ls`, and the
//! no-op housekeeping commands (`mkfifo`, `rm`).
//!
//! These are the commands the paper *excludes* from combiner synthesis
//! ("commands that process multiple input streams" and "commands that do
//! not process data streams") but which the benchmark scripts still execute.

use crate::{Bytes, CmdError, ExecContext, UnixCommand};

/// `paste f1 f2 ...` — join corresponding lines with tabs. Exhausted files
/// contribute empty fields, as in GNU.
pub struct PasteCmd {
    files: Vec<String>,
}

impl PasteCmd {
    /// Parses `paste` arguments (file names; `-` reads stdin).
    pub fn parse(args: &[String]) -> Result<PasteCmd, CmdError> {
        if args.is_empty() {
            return Err(CmdError::new("paste", "expected file operands"));
        }
        Ok(PasteCmd {
            files: args.to_vec(),
        })
    }
}

impl UnixCommand for PasteCmd {
    fn display(&self) -> String {
        format!("paste {}", self.files.join(" "))
    }

    fn decodes(&self) -> bool {
        true
    }

    fn reads_stdin(&self) -> bool {
        self.files.iter().any(|f| f == "-")
    }

    fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "paste")?;
        let text = || -> Result<String, CmdError> {
            let mut contents = Vec::with_capacity(self.files.len());
            for f in &self.files {
                if f == "-" {
                    contents.push(input.to_owned());
                } else {
                    let bytes = ctx.vfs.read_bytes(f).ok_or_else(|| {
                        CmdError::new("paste", format!("{f}: No such file or directory"))
                    })?;
                    contents.push(crate::decode(&bytes, "paste")?.to_owned());
                }
            }
            let columns: Vec<Vec<&str>> = contents
                .iter()
                .map(|c| c.split_terminator('\n').collect())
                .collect();
            let rows = columns.iter().map(Vec::len).max().unwrap_or(0);
            let mut out = String::new();
            for r in 0..rows {
                for (ci, col) in columns.iter().enumerate() {
                    if ci > 0 {
                        out.push('\t');
                    }
                    out.push_str(col.get(r).copied().unwrap_or(""));
                }
                out.push('\n');
            }
            Ok(out)
        };
        text().map(Bytes::from)
    }
}

/// `diff f1 f2` — a normal-format diff. The corpus only inspects whether
/// outputs differ (and pipes the result onward), so a straightforward
/// longest-common-subsequence hunk printer suffices.
pub struct DiffCmd {
    file1: String,
    file2: String,
}

impl DiffCmd {
    /// Parses `diff` arguments.
    pub fn parse(args: &[String]) -> Result<DiffCmd, CmdError> {
        let files: Vec<&String> = args
            .iter()
            .filter(|a| !a.starts_with('-') || *a == "-")
            .collect();
        if files.len() != 2 {
            return Err(CmdError::new("diff", "expected exactly two files"));
        }
        Ok(DiffCmd {
            file1: files[0].clone(),
            file2: files[1].clone(),
        })
    }
}

impl UnixCommand for DiffCmd {
    fn display(&self) -> String {
        format!("diff {} {}", self.file1, self.file2)
    }

    fn decodes(&self) -> bool {
        true
    }

    fn reads_stdin(&self) -> bool {
        self.file1 == "-" || self.file2 == "-"
    }

    fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "diff")?;
        let text = || -> Result<String, CmdError> {
            let read = |name: &str| -> Result<String, CmdError> {
                if name == "-" {
                    Ok(input.to_owned())
                } else {
                    let bytes = ctx.vfs.read_bytes(name).ok_or_else(|| {
                        CmdError::new("diff", format!("{name}: No such file or directory"))
                    })?;
                    crate::decode(&bytes, "diff").map(str::to_owned)
                }
            };
            let c1 = read(&self.file1)?;
            let c2 = read(&self.file2)?;
            let a: Vec<&str> = c1.split_terminator('\n').collect();
            let b: Vec<&str> = c2.split_terminator('\n').collect();
            Ok(normal_diff(&a, &b))
        };
        text().map(Bytes::from)
    }
}

/// Produces `diff`-style normal output (`NcM`, `<`, `---`, `>`). Uses a
/// simple common-prefix/suffix trim with one replace hunk in the middle —
/// not minimal like GNU's Myers diff, but well-formed and empty exactly
/// when the inputs are equal.
fn normal_diff(a: &[&str], b: &[&str]) -> String {
    let mut lo = 0;
    while lo < a.len() && lo < b.len() && a[lo] == b[lo] {
        lo += 1;
    }
    let mut ahi = a.len();
    let mut bhi = b.len();
    while ahi > lo && bhi > lo && a[ahi - 1] == b[bhi - 1] {
        ahi -= 1;
        bhi -= 1;
    }
    if lo == ahi && lo == bhi {
        return String::new();
    }
    let range = |lo: usize, hi: usize| -> String {
        if hi == lo {
            // Empty side of an add/delete: the line *before* the change.
            format!("{lo}")
        } else if hi - lo == 1 {
            format!("{}", lo + 1)
        } else {
            format!("{},{}", lo + 1, hi)
        }
    };
    let mut out = String::new();
    let (del, add) = (lo < ahi, lo < bhi);
    let op = match (del, add) {
        (true, true) => 'c',
        (true, false) => 'd',
        (false, true) => 'a',
        (false, false) => unreachable!("handled above"),
    };
    out.push_str(&format!("{}{}{}\n", range(lo, ahi), op, range(lo, bhi)));
    for line in &a[lo..ahi] {
        out.push_str("< ");
        out.push_str(line);
        out.push('\n');
    }
    if del && add {
        out.push_str("---\n");
    }
    for line in &b[lo..bhi] {
        out.push_str("> ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// `ls` — lists the virtual filesystem, one path per line.
pub struct LsCmd;

impl UnixCommand for LsCmd {
    fn display(&self) -> String {
        "ls".to_owned()
    }

    fn reads_stdin(&self) -> bool {
        false
    }

    fn run(&self, _input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let mut out = String::new();
        for p in ctx.vfs.paths() {
            out.push_str(&p);
            out.push('\n');
        }
        Ok(Bytes::from(out))
    }
}

/// `mkfifo`/`rm` — housekeeping commands with no stream effect.
pub struct NoopCmd {
    /// The original command line, kept for display.
    pub line: String,
}

impl UnixCommand for NoopCmd {
    fn display(&self) -> String {
        self.line.clone()
    }

    fn reads_stdin(&self) -> bool {
        false
    }

    fn run(&self, _input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        Ok(Bytes::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_command, Vfs};

    fn ctx() -> ExecContext {
        let vfs = Vfs::new();
        vfs.write("w1", "a\nb\nc\n");
        vfs.write("w2", "x\ny\n");
        ExecContext::with_vfs(vfs)
    }

    #[test]
    fn paste_joins_with_tabs() {
        let c = parse_command("paste w1 w2").unwrap();
        assert_eq!(c.run_str("", &ctx()).unwrap(), "a\tx\nb\ty\nc\t\n");
        assert!(!c.reads_stdin());
    }

    #[test]
    fn paste_stdin_column() {
        let c = parse_command("paste - w2").unwrap();
        assert_eq!(c.run_str("1\n2\n", &ctx()).unwrap(), "1\tx\n2\ty\n");
        assert!(c.reads_stdin());
    }

    #[test]
    fn diff_equal_files_is_empty() {
        let vfs = Vfs::new();
        vfs.write("f1", "same\nlines\n");
        vfs.write("f2", "same\nlines\n");
        let c = parse_command("diff f1 f2").unwrap();
        assert_eq!(c.run_str("", &ExecContext::with_vfs(vfs)).unwrap(), "");
    }

    #[test]
    fn diff_reports_changed_hunk() {
        let vfs = Vfs::new();
        vfs.write("f1", "a\nB\nc\n");
        vfs.write("f2", "a\nX\nc\n");
        let c = parse_command("diff f1 f2").unwrap();
        assert_eq!(
            c.run_str("", &ExecContext::with_vfs(vfs)).unwrap(),
            "2c2\n< B\n---\n> X\n"
        );
    }

    #[test]
    fn diff_pure_addition() {
        let vfs = Vfs::new();
        vfs.write("f1", "a\n");
        vfs.write("f2", "a\nb\n");
        let c = parse_command("diff f1 f2").unwrap();
        let out = c.run_str("", &ExecContext::with_vfs(vfs)).unwrap();
        assert_eq!(out, "1a2\n> b\n");
    }

    #[test]
    fn ls_lists_vfs() {
        let c = parse_command("ls").unwrap();
        assert_eq!(c.run_str("", &ctx()).unwrap(), "w1\nw2\n");
    }

    #[test]
    fn noop_commands_swallow_input() {
        let c = parse_command("rm -f temp").unwrap();
        assert_eq!(c.run_str("anything\n", &ctx()).unwrap(), "");
        assert!(!c.reads_stdin());
    }
}
