//! A small dependency-free option parser for the `kumquat` binary.
//!
//! Grammar: `kumquat <subcommand> [positional ...] [--flag] [--opt value]`.
//! Options may appear anywhere after the subcommand; `--opt=value` and
//! `--opt value` are both accepted. A literal `--` ends option parsing.
//! An option no subcommand reads is an error, so a misspelt one is not
//! silently ignored.

use std::collections::HashMap;

/// A parsed command line: the subcommand, its positional arguments, and
/// its `--options`.
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    /// The subcommand word (`synthesize`, `plan`, ...).
    pub subcommand: String,
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// Option values; flags map to `"true"`.
    options: HashMap<String, String>,
}

/// Options that take a value.
const VALUED: &[&str] = &[
    "workers",
    "input",
    "var",
    "seed",
    "out",
    "suite",
    "chunk-kb",
    "queue-depth",
    "mmap",
    "synth-workers",
    "combiner-cache",
    "spill-mb",
    "spill-dir",
    "trace-out",
    "top",
    "format",
];

/// Boolean flags, and the removed `--exec`/`--executor`, which every
/// subcommand names in its error (`run_cli`).
const FLAGS: &[&str] = &[
    "external",
    "deny-warnings",
    "metrics",
    "no-opt",
    "no-verify",
    "plan",
    "exec",
    "executor",
];

impl ParsedArgs {
    /// Parses the argument vector (without the program name).
    pub fn parse(args: &[String]) -> Result<ParsedArgs, String> {
        let mut parsed = ParsedArgs::default();
        let mut it = args.iter().peekable();
        let Some(sub) = it.next() else {
            return Err("missing subcommand".into());
        };
        parsed.subcommand = sub.clone();
        let mut options_done = false;
        while let Some(arg) = it.next() {
            if options_done || !arg.starts_with("--") {
                parsed.positional.push(arg.clone());
                continue;
            }
            if arg == "--" {
                options_done = true;
                continue;
            }
            let body = &arg[2..];
            let name = body.split_once('=').map_or(body, |(name, _)| name);
            if !VALUED.contains(&name) && !FLAGS.contains(&name) {
                return Err(format!("unknown option --{name}"));
            }
            if let Some((name, value)) = body.split_once('=') {
                parsed.options.insert(name.to_owned(), value.to_owned());
            } else if VALUED.contains(&body) {
                match it.next() {
                    Some(v) => {
                        parsed.options.insert(body.to_owned(), v.clone());
                    }
                    None => return Err(format!("--{body} requires a value")),
                }
            } else {
                parsed.options.insert(body.to_owned(), "true".to_owned());
            }
        }
        Ok(parsed)
    }

    /// The value of `--name`, if given.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// True when the boolean flag `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.opt(name) == Some("true")
    }

    /// `--name` parsed as `T`, or `default` when absent.
    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => v
                .parse::<T>()
                .map_err(|_| format!("--{name}: invalid value {v:?}")),
        }
    }

    /// `--name` parsed as a *nonzero* count, or `default` when absent.
    /// Every caller is a capacity knob (workers, chunk size, queue depth)
    /// where 0 would deadlock the bounded queues or make no progress, so
    /// zero is rejected with its own message; anything that is not a
    /// number at all (`auto`, `-3`, `deep`) is rejected as not a positive
    /// integer.
    pub fn opt_parse_nonzero(&self, name: &str, default: usize) -> Result<usize, String> {
        let Some(raw) = self.opt(name) else {
            return Ok(default);
        };
        match raw.parse::<usize>() {
            Ok(0) => Err(format!("--{name} must be at least 1")),
            Ok(v) => Ok(v),
            Err(_) => Err(format!("--{name} must be a positive integer, got {raw:?}")),
        }
    }

    /// [`ParsedArgs::opt_parse_nonzero`] counted in `unit`s of bytes, as
    /// a byte count (`--chunk-kb`, `--spill-mb`). A count whose bytes do
    /// not fit a `usize` is rejected naming the option instead of
    /// wrapping to a tiny (or zero) size.
    pub fn opt_parse_bytes(
        &self,
        name: &str,
        default: usize,
        unit: usize,
    ) -> Result<usize, String> {
        let count = self.opt_parse_nonzero(name, default)?;
        count
            .checked_mul(unit)
            .ok_or_else(|| format!("--{name} {count} is too large: the byte count overflows"))
    }

    /// All `--var NAME=VALUE` bindings (repeatable via comma separation).
    pub fn vars(&self) -> Result<Vec<(String, String)>, String> {
        let Some(raw) = self.opt("var") else {
            return Ok(Vec::new());
        };
        raw.split(',')
            .map(|pair| {
                pair.split_once('=')
                    .map(|(k, v)| (k.to_owned(), v.to_owned()))
                    .ok_or_else(|| format!("--var: expected NAME=VALUE, got {pair:?}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> ParsedArgs {
        let v: Vec<String> = words.iter().map(|s| (*s).to_owned()).collect();
        ParsedArgs::parse(&v).unwrap()
    }

    #[test]
    fn subcommand_and_positional() {
        let a = parse(&["synthesize", "wc -l"]);
        assert_eq!(a.subcommand, "synthesize");
        assert_eq!(a.positional, vec!["wc -l"]);
    }

    #[test]
    fn valued_options_both_styles() {
        let a = parse(&["run", "s.sh", "--workers", "8", "--input=in.txt"]);
        assert_eq!(a.opt("workers"), Some("8"));
        assert_eq!(a.opt("input"), Some("in.txt"));
        assert_eq!(a.opt_parse::<usize>("workers", 1).unwrap(), 8);
    }

    #[test]
    fn flags_default_off() {
        let a = parse(&["plan", "x", "--no-opt"]);
        assert!(a.flag("no-opt"));
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn double_dash_ends_options() {
        let a = parse(&["emit", "--", "--weird-positional"]);
        assert_eq!(a.positional, vec!["--weird-positional"]);
    }

    #[test]
    fn missing_value_is_an_error() {
        let v: Vec<String> = vec!["run".into(), "--workers".into()];
        assert!(ParsedArgs::parse(&v).is_err());
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(ParsedArgs::parse(&[]).is_err());
    }

    #[test]
    fn vars_parse() {
        let a = parse(&["run", "s.sh", "--var", "IN=/x,OUT=/y"]);
        let vars = a.vars().unwrap();
        assert_eq!(
            vars,
            vec![
                ("IN".to_owned(), "/x".to_owned()),
                ("OUT".to_owned(), "/y".to_owned())
            ]
        );
    }

    #[test]
    fn bad_var_is_an_error() {
        let a = parse(&["run", "s.sh", "--var", "oops"]);
        assert!(a.vars().is_err());
    }

    #[test]
    fn default_when_option_absent() {
        let a = parse(&["plan", "x"]);
        assert_eq!(a.opt_parse::<usize>("workers", 16).unwrap(), 16);
    }

    #[test]
    fn invalid_number_is_an_error() {
        let a = parse(&["plan", "x", "--workers", "lots"]);
        assert!(a.opt_parse::<usize>("workers", 1).is_err());
    }

    #[test]
    fn spill_options_take_values() {
        let a = parse(&[
            "run",
            "s.sh",
            "--spill-mb",
            "64",
            "--spill-dir",
            "/tmp/runs",
        ]);
        assert_eq!(a.opt_parse_nonzero("spill-mb", 1).unwrap(), 64);
        assert_eq!(a.opt("spill-dir"), Some("/tmp/runs"));
    }

    #[test]
    fn zero_counts_are_rejected_with_a_clear_message() {
        for name in ["queue-depth", "chunk-kb", "workers", "spill-mb"] {
            let a = parse(&["run", "x", &format!("--{name}"), "0"]);
            let err = a.opt_parse_nonzero(name, 4).unwrap_err();
            assert_eq!(err, format!("--{name} must be at least 1"));
        }
    }

    #[test]
    fn nonzero_counts_parse_and_default() {
        let a = parse(&["run", "x", "--queue-depth", "8"]);
        assert_eq!(a.opt_parse_nonzero("queue-depth", 4).unwrap(), 8);
        assert_eq!(a.opt_parse_nonzero("chunk-kb", 64).unwrap(), 64);
    }

    #[test]
    fn non_numeric_count_names_the_option() {
        let a = parse(&["run", "x", "--queue-depth", "deep"]);
        let err = a.opt_parse_nonzero("queue-depth", 4).unwrap_err();
        assert_eq!(
            err,
            "--queue-depth must be a positive integer, got \"deep\""
        );
    }

    #[test]
    fn a_count_without_an_auto_mode_rejects_auto() {
        for name in ["queue-depth", "chunk-kb"] {
            let a = parse(&["run", "x", &format!("--{name}"), "auto"]);
            let err = a.opt_parse_nonzero(name, 4).unwrap_err();
            assert_eq!(
                err,
                format!("--{name} must be a positive integer, got \"auto\"")
            );
        }
    }
}
