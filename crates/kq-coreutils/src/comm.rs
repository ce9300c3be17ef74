//! `comm` — compare two sorted files line by line.
//!
//! Supports the column-suppression flags (`-1`, `-2`, `-3`, combined as in
//! `-23`). `-` denotes standard input. Like GNU `comm --check-order` (and
//! like the behaviour KumQuat's preprocessing probes rely on), unsorted
//! input is an error: the paper's spell/set-diff benchmarks only succeed on
//! the sorted probe stream, which tells the synthesizer to generate sorted
//! inputs for these commands.

use crate::{Bytes, CmdError, ExecContext, UnixCommand};

/// The `comm` command.
pub struct CommCmd {
    suppress1: bool,
    suppress2: bool,
    suppress3: bool,
    file1: String,
    file2: String,
    display: String,
}

impl CommCmd {
    /// Parses `comm` arguments.
    pub fn parse(args: &[String]) -> Result<CommCmd, CmdError> {
        let mut suppress = [false; 3];
        let mut files: Vec<&String> = Vec::new();
        for a in args {
            if a != "-" && a.starts_with('-') {
                for c in a[1..].chars() {
                    match c {
                        '1' => suppress[0] = true,
                        '2' => suppress[1] = true,
                        '3' => suppress[2] = true,
                        other => {
                            return Err(CmdError::new("comm", format!("unknown flag -{other}")))
                        }
                    }
                }
            } else {
                files.push(a);
            }
        }
        if files.len() != 2 {
            return Err(CmdError::new("comm", "expected exactly two files"));
        }
        Ok(CommCmd {
            suppress1: suppress[0],
            suppress2: suppress[1],
            suppress3: suppress[2],
            file1: files[0].clone(),
            file2: files[1].clone(),
            display: format!("comm {}", args.join(" ")),
        })
    }

    fn read_input(&self, name: &str, stdin: &str, ctx: &ExecContext) -> Result<String, CmdError> {
        if name == "-" {
            Ok(stdin.to_owned())
        } else {
            let bytes = ctx.vfs.read_bytes(name).ok_or_else(|| {
                CmdError::new("comm", format!("{name}: No such file or directory"))
            })?;
            crate::decode(&bytes, "comm").map(str::to_owned)
        }
    }
}

fn check_sorted(lines: &[&str], which: usize) -> Result<(), CmdError> {
    for w in lines.windows(2) {
        if w[0].as_bytes() > w[1].as_bytes() {
            return Err(CmdError::new(
                "comm",
                format!("file {which} is not in sorted order"),
            ));
        }
    }
    Ok(())
}

impl UnixCommand for CommCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    fn decodes(&self) -> bool {
        true
    }

    fn reads_stdin(&self) -> bool {
        self.file1 == "-" || self.file2 == "-"
    }

    fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "comm")?;
        let text = || -> Result<String, CmdError> {
            let c1 = self.read_input(&self.file1, input, ctx)?;
            let c2 = self.read_input(&self.file2, input, ctx)?;
            let l1: Vec<&str> = c1.split_terminator('\n').collect();
            let l2: Vec<&str> = c2.split_terminator('\n').collect();
            check_sorted(&l1, 1)?;
            check_sorted(&l2, 2)?;

            // Column indentation mirrors GNU: each *printed* column to the left
            // of the current one contributes one tab.
            let col2_prefix = if self.suppress1 { "" } else { "\t" };
            let col3_prefix = match (self.suppress1, self.suppress2) {
                (false, false) => "\t\t",
                (true, true) => "",
                _ => "\t",
            };

            let mut out = String::new();
            let (mut i, mut j) = (0, 0);
            while i < l1.len() || j < l2.len() {
                let ord = match (l1.get(i), l2.get(j)) {
                    (Some(a), Some(b)) => a.as_bytes().cmp(b.as_bytes()),
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (None, Some(_)) => std::cmp::Ordering::Greater,
                    (None, None) => break,
                };
                match ord {
                    std::cmp::Ordering::Less => {
                        if !self.suppress1 {
                            out.push_str(l1[i]);
                            out.push('\n');
                        }
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        if !self.suppress2 {
                            out.push_str(col2_prefix);
                            out.push_str(l2[j]);
                            out.push('\n');
                        }
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        if !self.suppress3 {
                            out.push_str(col3_prefix);
                            out.push_str(l1[i]);
                            out.push('\n');
                        }
                        i += 1;
                        j += 1;
                    }
                }
            }
            Ok(out)
        };
        text().map(Bytes::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_command, Vfs};

    fn ctx() -> ExecContext {
        let vfs = Vfs::new();
        vfs.write("dict", "apple\nbanana\ncherry\n");
        ExecContext::with_vfs(vfs)
    }

    #[test]
    fn spellcheck_form() {
        // Lines in stdin but not in the dictionary: the spell benchmark.
        let c = parse_command("comm -23 - dict").unwrap();
        let out = c.run_str("apple\nbanan\nzebra\n", &ctx()).unwrap();
        assert_eq!(out, "banan\nzebra\n");
    }

    #[test]
    fn unsorted_stdin_is_error() {
        let c = parse_command("comm -23 - dict").unwrap();
        let err = c.run_str("zebra\napple\n", &ctx()).unwrap_err();
        assert!(err.message.contains("not in sorted order"), "{err}");
    }

    #[test]
    fn unsorted_file_is_error() {
        let vfs = Vfs::new();
        vfs.write("bad", "b\na\n");
        let ctx = ExecContext::with_vfs(vfs);
        let c = parse_command("comm -23 - bad").unwrap();
        assert!(c.run_str("a\n", &ctx).is_err());
    }

    #[test]
    fn three_column_output_with_tabs() {
        let vfs = Vfs::new();
        vfs.write("f2", "b\nc\n");
        let ctx = ExecContext::with_vfs(vfs);
        let c = parse_command("comm - f2").unwrap();
        assert_eq!(c.run_str("a\nb\n", &ctx).unwrap(), "a\n\t\tb\n\tc\n");
    }

    #[test]
    fn common_only() {
        let vfs = Vfs::new();
        vfs.write("f2", "b\nc\n");
        let ctx = ExecContext::with_vfs(vfs);
        let c = parse_command("comm -12 - f2").unwrap();
        assert_eq!(c.run_str("a\nb\n", &ctx).unwrap(), "b\n");
    }

    #[test]
    fn reads_stdin_detection() {
        let vfs = Vfs::new();
        vfs.write("x", "");
        vfs.write("y", "");
        let c = parse_command("comm x y").unwrap();
        assert!(!c.reads_stdin());
        assert_eq!(
            c.run_str("ignored", &ExecContext::with_vfs(vfs)).unwrap(),
            ""
        );
    }

    #[test]
    fn parse_errors() {
        assert!(parse_command("comm -23 -").is_err());
        assert!(parse_command("comm -q a b").is_err());
    }
}
