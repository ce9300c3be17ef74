//! A small dependency-free option parser for the `kumquat` binary.
//!
//! Grammar: `kumquat <subcommand> [positional ...] [--flag] [--opt value]`.
//! Options may appear anywhere after the subcommand; `--opt=value` and
//! `--opt value` are both accepted. A literal `--` ends option parsing.

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

/// Options that take a value (everything else is a boolean flag).
const VALUED: &[&str] = &[
    "workers",
    "input",
    "var",
    "seed",
    "scale-kb",
    "out",
    "suite",
    "chunk-kb",
    "queue-depth",
    "mmap",
    "synth-workers",
    "combiner-cache",
    "rerun-threshold",
    "spill-mb",
    "spill-dir",
    "trace-out",
    "top",
    "format",
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
    /// number at all (`auto` where no `auto` exists, `-3`, `deep`) is
    /// rejected as not a positive integer.
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

    /// `--name` parsed as a *nonzero* count or the literal `auto`
    /// sentinel: `Ok(None)` means auto, `Ok(Some(n))` a fixed value, and
    /// an absent option yields `Some(default)` (the static default —
    /// adaptation is opt-in). Numeric validation matches
    /// [`ParsedArgs::opt_parse_nonzero`] exactly, so `--chunk-kb 0` and
    /// `--chunk-kb wide` fail with the same messages whether or not the
    /// knob supports `auto`.
    pub fn opt_parse_nonzero_or_auto(
        &self,
        name: &str,
        default: usize,
    ) -> Result<Option<usize>, String> {
        match self.opt(name) {
            None => Ok(Some(default)),
            Some("auto") => Ok(None),
            Some(_) => self.opt_parse_nonzero(name, default).map(Some),
        }
    }

    /// `--name` parsed as a ratio in `(0, 1]`, or `default` when absent.
    /// The one caller is `--rerun-threshold` (an output/input shrink
    /// ratio): `0` would disable rerun parallelism by accident, anything
    /// above `1` would "justify" rerun combiners on growing streams, and
    /// `NaN`/`inf` parse as valid `f64`s — so all three are rejected up
    /// front with their own message, in the same style as
    /// [`ParsedArgs::opt_parse_nonzero`].
    pub fn opt_parse_ratio(&self, name: &str, default: f64) -> Result<f64, String> {
        let v = self.opt_parse::<f64>(name, default)?;
        if !(v.is_finite() && v > 0.0 && v <= 1.0) {
            return Err(format!("--{name} must be a number in (0, 1]"));
        }
        Ok(v)
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
    fn auto_sentinel_parses_alongside_numbers() {
        let a = parse(&["run", "x", "--chunk-kb", "auto", "--queue-depth", "8"]);
        assert_eq!(a.opt_parse_nonzero_or_auto("chunk-kb", 64).unwrap(), None);
        assert_eq!(
            a.opt_parse_nonzero_or_auto("queue-depth", 4).unwrap(),
            Some(8)
        );
        // Absent → the static default, not auto.
        assert_eq!(a.opt_parse_nonzero_or_auto("spill-mb", 7).unwrap(), Some(7));
        // Zero and garbage keep the plain-count messages.
        let a = parse(&["run", "x", "--chunk-kb", "0"]);
        assert_eq!(
            a.opt_parse_nonzero_or_auto("chunk-kb", 64).unwrap_err(),
            "--chunk-kb must be at least 1"
        );
        let a = parse(&["run", "x", "--chunk-kb", "wide"]);
        assert_eq!(
            a.opt_parse_nonzero_or_auto("chunk-kb", 64).unwrap_err(),
            "--chunk-kb must be a positive integer, got \"wide\""
        );
    }

    #[test]
    fn ratio_rejects_nan_inf_zero_and_out_of_range() {
        for bad in ["NaN", "nan", "inf", "-inf", "0", "0.0", "-0.3", "1.5", "2"] {
            let a = parse(&["run", "x", "--rerun-threshold", bad]);
            let err = a.opt_parse_ratio("rerun-threshold", 0.5).unwrap_err();
            assert_eq!(err, "--rerun-threshold must be a number in (0, 1]", "{bad}");
        }
        let a = parse(&["run", "x", "--rerun-threshold", "lots"]);
        assert!(a
            .opt_parse_ratio("rerun-threshold", 0.5)
            .unwrap_err()
            .contains("invalid value"));
    }

    #[test]
    fn ratio_accepts_the_valid_range_and_defaults() {
        for (raw, want) in [("0.25", 0.25), ("1", 1.0), ("1.0", 1.0), ("0.999", 0.999)] {
            let a = parse(&["run", "x", "--rerun-threshold", raw]);
            assert_eq!(a.opt_parse_ratio("rerun-threshold", 0.5).unwrap(), want);
        }
        let a = parse(&["run", "x"]);
        assert_eq!(a.opt_parse_ratio("rerun-threshold", 0.5).unwrap(), 0.5);
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
        let a = parse(&["run", "x", "--queue-depth", "auto"]);
        let err = a.opt_parse_nonzero("queue-depth", 4).unwrap_err();
        assert_eq!(
            err,
            "--queue-depth must be a positive integer, got \"auto\""
        );
    }
}
