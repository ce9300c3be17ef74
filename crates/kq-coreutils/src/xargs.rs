//! `xargs` — build and run commands from standard input.
//!
//! The corpus uses three forms, all operating on file-name input streams:
//! `xargs cat` (concatenate the named files), `xargs file` (describe each
//! file), and `xargs -L 1 wc -l` (line-count each file, one invocation per
//! input line). Missing files are errors — KumQuat's preprocessing feeds
//! `xargs` commands a word list, a sorted word list, and a file-name list,
//! and relies on the first two failing so it knows to generate file names.

use crate::{Bytes, CmdError, ExecContext, Rope, UnixCommand};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubCommand {
    Cat,
    File,
    WcL,
}

/// The `xargs` command.
pub struct XargsCmd {
    sub: SubCommand,
    display: String,
}

impl XargsCmd {
    /// Parses `xargs` arguments.
    pub fn parse(args: &[String]) -> Result<XargsCmd, CmdError> {
        let mut rest: Vec<&str> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-L" | "-n" => {
                    let v = it
                        .next()
                        .ok_or_else(|| CmdError::new("xargs", "missing count"))?;
                    let _n: usize = v
                        .parse()
                        .map_err(|_| CmdError::new("xargs", format!("invalid count {v:?}")))?;
                    // Batching granularity does not change the output of
                    // the three corpus sub-commands; accepted and ignored.
                }
                other => rest.push(other),
            }
        }
        let sub = match rest.as_slice() {
            ["cat"] => SubCommand::Cat,
            ["file"] => SubCommand::File,
            ["wc", "-l"] => SubCommand::WcL,
            other => {
                return Err(CmdError::new(
                    "xargs",
                    format!("unsupported sub-command {other:?}"),
                ))
            }
        };
        Ok(XargsCmd {
            sub,
            display: format!("xargs {}", args.join(" ")),
        })
    }
}

impl UnixCommand for XargsCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    fn decodes(&self) -> bool {
        true
    }

    fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "xargs")?;
        // xargs tokenizes on whitespace; corpus inputs are one path per
        // line with no embedded blanks.
        match self.sub {
            // `xargs cat` is the gather position of the data plane: each
            // named file joins the output rope as a refcounted slice.
            SubCommand::Cat => {
                let mut out = Rope::new();
                for path in input.split_ascii_whitespace() {
                    match ctx.vfs.read_bytes(path) {
                        Some(content) => out.push(content),
                        None => {
                            return Err(CmdError::new(
                                "cat",
                                format!("{path}: No such file or directory"),
                            ))
                        }
                    }
                }
                Ok(out.into_bytes())
            }
            SubCommand::File => {
                let mut out = String::new();
                for path in input.split_ascii_whitespace() {
                    match ctx.vfs.file_type(path) {
                        Some(t) => {
                            out.push_str(path);
                            out.push_str(": ");
                            out.push_str(&t);
                            out.push('\n');
                        }
                        None => {
                            return Err(CmdError::new(
                                "file",
                                format!("{path}: cannot open (No such file or directory)"),
                            ))
                        }
                    }
                }
                Ok(Bytes::from(out))
            }
            SubCommand::WcL => {
                let mut out = String::new();
                for path in input.split_ascii_whitespace() {
                    match ctx.vfs.read_bytes(path) {
                        Some(content) => {
                            let n = content.count_newlines();
                            out.push_str(&format!("{n} {path}\n"));
                        }
                        None => {
                            return Err(CmdError::new(
                                "wc",
                                format!("{path}: No such file or directory"),
                            ))
                        }
                    }
                }
                Ok(Bytes::from(out))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_command, Vfs};

    fn ctx() -> ExecContext {
        let vfs = Vfs::new();
        vfs.write("/bin/a.sh", "#!/bin/sh\necho one\n");
        vfs.write("/doc/b.txt", "line\nline\nline\n");
        ExecContext::with_vfs(vfs)
    }

    #[test]
    fn xargs_cat_concatenates() {
        let c = parse_command("xargs cat").unwrap();
        let out = c.run_str("/bin/a.sh\n/doc/b.txt\n", &ctx()).unwrap();
        assert_eq!(out, "#!/bin/sh\necho one\nline\nline\nline\n");
    }

    #[test]
    fn xargs_cat_missing_file_errors() {
        let c = parse_command("xargs cat").unwrap();
        // This is the probe behaviour preprocessing depends on: plain words
        // are not files.
        assert!(c.run_str("hello\nworld\n", &ctx()).is_err());
    }

    #[test]
    fn xargs_file_describes() {
        let c = parse_command("xargs file").unwrap();
        let out = c.run_str("/bin/a.sh\n", &ctx()).unwrap();
        assert_eq!(
            out,
            "/bin/a.sh: POSIX shell script, ASCII text executable\n"
        );
    }

    #[test]
    fn xargs_wc_counts_lines_per_file() {
        let c = parse_command("xargs -L 1 wc -l").unwrap();
        let out = c.run_str("/doc/b.txt\n/bin/a.sh\n", &ctx()).unwrap();
        assert_eq!(out, "3 /doc/b.txt\n2 /bin/a.sh\n");
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let c = parse_command("xargs cat").unwrap();
        assert_eq!(c.run_str("", &ctx()).unwrap(), "");
    }

    #[test]
    fn unsupported_subcommand_rejected() {
        assert!(parse_command("xargs rm -rf").is_err());
        assert!(parse_command("xargs").is_err());
    }
}
