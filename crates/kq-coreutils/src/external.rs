//! Optional external-process backend: run the *real* system binary for a
//! command line and capture its stdout, for cross-validating the
//! in-process implementations against GNU coreutils.
//!
//! KumQuat proper never needs this — the synthesizer treats commands as
//! black boxes either way — but it keeps the substrate honest: the
//! `gnu_validation` integration tests (ignored by default, run with
//! `KQ_VALIDATE_GNU=1 cargo test -- --ignored`) diff our outputs against
//! the host's binaries over shared inputs.

use crate::{Bytes, CmdError, ExecContext, SynthesisHints, UnixCommand};
use std::io::Write;
use std::process::{Command as OsCommand, Stdio};

/// A command executed by spawning the real binary.
pub struct ExternalCommand {
    argv: Vec<String>,
}

impl ExternalCommand {
    /// Wraps pre-split argv words. The first word is the binary name,
    /// resolved through `PATH`.
    pub fn new(argv: &[String]) -> Result<ExternalCommand, CmdError> {
        if argv.is_empty() {
            return Err(CmdError::new("sh", "empty external command"));
        }
        Ok(ExternalCommand {
            argv: argv.to_vec(),
        })
    }

    /// Convenience: parse a shell line into an external command.
    pub fn parse(line: &str) -> Result<ExternalCommand, CmdError> {
        let words = crate::split_words(line).map_err(|e| CmdError::new("sh", e))?;
        ExternalCommand::new(&words)
    }
}

impl UnixCommand for ExternalCommand {
    fn display(&self) -> String {
        self.argv.join(" ")
    }

    /// The binary is a black box, but its command line is not: the hints
    /// are what the built-in parse of the same argv answers, and none
    /// where there is no built-in of that name.
    fn synthesis_hints(&self) -> SynthesisHints {
        crate::from_argv(&self.argv)
            .map(|command| command.synthesis_hints())
            .unwrap_or_default()
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let name = &self.argv[0];
        let mut child = OsCommand::new(name)
            .args(&self.argv[1..])
            .env("LC_ALL", "C")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| CmdError::new(name.clone(), format!("spawn failed: {e}")))?;
        child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(input.as_bytes())
            .map_err(|e| CmdError::new(name.clone(), format!("stdin write failed: {e}")))?;
        let output = child
            .wait_with_output()
            .map_err(|e| CmdError::new(name.clone(), format!("wait failed: {e}")))?;
        if !output.status.success() && output.stdout.is_empty() {
            return Err(CmdError::new(
                name.clone(),
                String::from_utf8_lossy(&output.stderr).trim().to_owned(),
            ));
        }
        Ok(Bytes::from(output.stdout))
    }
}

/// True when GNU cross-validation was requested via `KQ_VALIDATE_GNU=1`.
pub fn gnu_validation_enabled() -> bool {
    std::env::var("KQ_VALIDATE_GNU")
        .map(|v| v == "1")
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Commands whose in-process and GNU outputs must agree byte-for-byte
    /// on this input. Only runs when the host opts in (the binaries and
    /// their versions are host-dependent).
    #[test]
    fn cross_validate_against_host_binaries() {
        if !gnu_validation_enabled() {
            eprintln!("set KQ_VALIDATE_GNU=1 to cross-validate against host binaries");
            return;
        }
        let input = "the Quick\nbrown fox\nthe Quick\n\njumps! over 42 dogs\n";
        let ctx = ExecContext::default();
        for line in [
            "tr A-Z a-z",
            r"tr -cs A-Za-z '\n'",
            "sort",
            "sort -rn",
            "uniq",
            "uniq -c",
            "wc -l",
            "grep -c the",
            "cut -d ' ' -f 1",
            "head -n 2",
            "tail -n 2",
            "rev",
            "sed s/the/THE/",
        ] {
            let ours = crate::parse_command(line).unwrap().run_str(input, &ctx);
            let theirs = ExternalCommand::parse(line)
                .unwrap()
                .run(Bytes::from(input), &ctx)
                .map(|out| out.to_str().unwrap().to_owned());
            match (ours, theirs) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "divergence for {line}"),
                (a, b) => panic!("{line}: ours {a:?} vs GNU {b:?}"),
            }
        }
    }

    #[test]
    fn the_hints_are_the_built_in_parse_of_the_same_argv() {
        // Reading the hints parses the argv; it spawns nothing (there is
        // no such binary on any host).
        let words = |line: &str| crate::split_words(line).unwrap();
        let grep = ExternalCommand::new(&words("grep -c x")).unwrap();
        let hints = grep.synthesis_hints();
        assert_eq!(hints.patterns.len(), 1);
        assert!(hints.patterns[0].is_match("axb") && !hints.patterns[0].is_match("ab"));
        let sort = ExternalCommand::new(&words("sort -k 1n")).unwrap();
        assert_eq!(sort.synthesis_hints().merge_flags, ["-k", "1n"]);
        let unknown = ExternalCommand::new(&words("kq-no-such-binary -x")).unwrap();
        let none = unknown.synthesis_hints();
        assert!(none.patterns.is_empty() && none.lines.is_none() && none.merge_flags.is_empty());
    }
}
