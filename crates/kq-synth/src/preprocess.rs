//! Command preprocessing (paper §3.2, "Preprocessing").
//!
//! Before synthesis, KumQuat reads the literals off the command line and
//! probes the command with three canonical inputs:
//!
//! * the literals are what the command's own parse answers
//!   ([`Command::synthesis_hints`]); nothing here reads an argv. Its
//!   patterns (`grep`, `sed s///`) become a dictionary of matching strings
//!   (via the `kq-pattern` sampler), its line count (`sed 100q`,
//!   `head -n 3`) a line-count hint of at least two lines, its field
//!   delimiter (`cut`) composite dictionary words that exercise the
//!   splitting path, and its merge flags (`sort`) the flags of the `merge`
//!   candidate;
//! * the command runs on an unsorted word list, a sorted word list, and a
//!   file-name list. `comm`-style commands fail the first and pass the
//!   second (→ generate sorted inputs only); `xargs`-style commands fail
//!   both word lists and pass the file names (→ generate file names);
//! * the delimiter alphabet for candidate enumeration is read off the
//!   command's outputs on representative inputs.

use kq_coreutils::{Command, ExecContext, SynthesisHints};
use kq_stream::Delim;
use rand::Rng;

/// What kind of input streams generation must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputProfile {
    /// Arbitrary text streams.
    Plain,
    /// Sorted streams only (`comm`, `sort -m`-style consumers).
    Sorted,
    /// Streams of file names drawn from the probe filesystem (`xargs`).
    FileNames,
    /// Every probe failed; synthesis will almost surely return no combiner.
    Unsupported,
}

impl InputProfile {
    /// A short human-readable description (used by reports and the CLI).
    pub fn describe(&self) -> &'static str {
        match self {
            InputProfile::Plain => "plain text streams",
            InputProfile::Sorted => "sorted streams only (comm-style probe outcome)",
            InputProfile::FileNames => "file-name streams (xargs-style probe outcome)",
            InputProfile::Unsupported => "all probes failed",
        }
    }
}

/// The result of preprocessing a command.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// Input generation profile from the three probes.
    pub profile: InputProfile,
    /// Dictionary entries biased into generated words.
    pub dictionary: Vec<String>,
    /// Line-count hint from the command's line count (`sed 100q` → 100).
    /// It biases generated input sizes so synthesis exercises the
    /// boundary, and deliberately widens `head -n 1` to two lines; the exact
    /// early-exit bound the executor cancels against is the parsed
    /// command's own ([`Command::line_bound`]), never this guess.
    pub line_hint: Option<usize>,
    /// Delimiter alphabet observed in command outputs (always contains
    /// `'\n'`).
    pub delims: Vec<Delim>,
    /// Flags for the `merge` candidate (a `sort`'s own ordering flags, as
    /// written).
    pub merge_flags: Vec<String>,
}

impl Preprocessed {
    /// A plain-profile configuration for unit tests.
    pub fn plain_for_tests() -> Preprocessed {
        Preprocessed {
            profile: InputProfile::Plain,
            dictionary: Vec::new(),
            line_hint: None,
            delims: vec![Delim::Newline, Delim::Space],
            merge_flags: Vec::new(),
        }
    }
}

/// The probe file names written by [`ensure_probe_files`]; these populate
/// the `FileNames` dictionary.
pub const PROBE_FILES: [&str; 4] = [
    "/kq/probe/alpha.txt",
    "/kq/probe/beta.txt",
    "/kq/probe/gamma.sh",
    "/kq/probe/delta.txt",
];

/// Writes the probe files into the context's filesystem (idempotent).
/// Contents differ in length so per-file statistics vary across files.
pub fn ensure_probe_files(ctx: &ExecContext) {
    let contents = [
        "alpha one\nalpha two\n",
        "beta\n",
        "#!/bin/sh\necho beta\nexit 0\n",
        "delta one\ndelta two\ndelta three\ndelta four\n",
    ];
    for (path, content) in PROBE_FILES.iter().zip(contents) {
        if !ctx.vfs.exists(path) {
            ctx.vfs.write(*path, content);
        }
    }
}

/// Runs the full preprocessing pass.
pub fn preprocess<R: Rng + ?Sized>(
    command: &Command,
    ctx: &ExecContext,
    rng: &mut R,
) -> Preprocessed {
    let hints = command.synthesis_hints();
    let dictionary = dictionary(&hints, rng);
    let profile = probe_profile(command, ctx);
    let mut pre = Preprocessed {
        profile,
        dictionary,
        line_hint: hints.lines.map(|n| n.max(2)),
        delims: vec![Delim::Newline],
        merge_flags: hints.merge_flags,
    };
    if matches!(profile, InputProfile::FileNames) {
        pre.dictionary = PROBE_FILES.iter().map(|s| (*s).to_owned()).collect();
    }
    pre.delims = detect_delims(command, ctx, &pre, rng);
    pre
}

/// The dictionary a command's hints seed: strings sampled from each of
/// its patterns, and words that a field delimiter splits, since that
/// delimiter only matters if inputs contain it.
fn dictionary<R: Rng + ?Sized>(hints: &SynthesisHints, rng: &mut R) -> Vec<String> {
    let mut words = Vec::new();
    for pattern in &hints.patterns {
        for _ in 0..10 {
            let s = pattern.sample(rng, 3);
            if !s.is_empty() && !s.contains('\n') {
                words.push(s);
            }
        }
    }
    if let Some(d) = hints.field_delim {
        for seed in ["ab", "cd", "efg"] {
            words.push(format!("{seed}{d}x{d}y{d}z"));
        }
    }
    words
}

/// The three canonical probes (paper §3.2): unsorted words, sorted words,
/// file names (the probe files are written first if missing). Public so
/// the planner can re-check a cached "every probe failed" verdict without
/// running synthesis.
pub fn probe_profile(command: &Command, ctx: &ExecContext) -> InputProfile {
    ensure_probe_files(ctx);
    let unsorted = "mango\napple\nzebra\nbanana\ncherry\napple\n";
    let sorted = "apple\napple\nbanana\ncherry\nmango\nzebra\n";
    let filenames: String = PROBE_FILES.iter().map(|f| format!("{f}\n")).collect();
    if command.run_str(unsorted, ctx).is_ok() {
        return InputProfile::Plain;
    }
    if command.run_str(sorted, ctx).is_ok() {
        return InputProfile::Sorted;
    }
    if command.run_str(&filenames, ctx).is_ok() {
        return InputProfile::FileNames;
    }
    InputProfile::Unsupported
}

/// Runs the command on representative inputs and reads the delimiter
/// alphabet off its outputs.
fn detect_delims<R: Rng + ?Sized>(
    command: &Command,
    ctx: &ExecContext,
    pre: &Preprocessed,
    rng: &mut R,
) -> Vec<Delim> {
    let shape = crate::shape::InputShape {
        lines: crate::shape::Config {
            min: 6,
            max: 10,
            distinct_pct: 60,
        },
        words: crate::shape::Config {
            min: 1,
            max: 3,
            distinct_pct: 80,
        },
        chars: crate::shape::Config {
            min: 1,
            max: 5,
            distinct_pct: 80,
        },
    };
    let mut seen_space = false;
    let mut seen_tab = false;
    let mut seen_comma = false;
    for _ in 0..4 {
        let Some((x1, x2)) = crate::gen::stream_pair(&shape, pre, rng) else {
            continue;
        };
        let combined = format!("{x1}{x2}");
        if let Ok(out) = command.run_str(&combined, ctx) {
            seen_space |= out.contains(' ');
            seen_tab |= out.contains('\t');
            seen_comma |= out.contains(',');
        }
    }
    let mut delims = vec![Delim::Newline];
    if seen_tab {
        delims.push(Delim::Tab);
    }
    if seen_space {
        delims.push(Delim::Space);
    }
    if seen_comma {
        delims.push(Delim::Comma);
    }
    delims
}

#[cfg(test)]
mod tests {
    use super::*;
    use kq_coreutils::parse_command;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn pre(cmd: &str) -> Preprocessed {
        let command = parse_command(cmd).unwrap();
        let ctx = ExecContext::default();
        let mut rng = SmallRng::seed_from_u64(99);
        preprocess(&command, &ctx, &mut rng)
    }

    #[test]
    fn plain_commands_probe_plain() {
        assert_eq!(pre("cat").profile, InputProfile::Plain);
        assert_eq!(pre("sort").profile, InputProfile::Plain);
        assert_eq!(pre("uniq -c").profile, InputProfile::Plain);
    }

    #[test]
    fn comm_probes_sorted() {
        let command = parse_command("comm -23 - /kq/probe/dict").unwrap();
        let ctx = ExecContext::default();
        ensure_probe_files(&ctx);
        ctx.vfs.write("/kq/probe/dict", "apple\nbanana\n");
        let mut rng = SmallRng::seed_from_u64(3);
        let p = preprocess(&command, &ctx, &mut rng);
        assert_eq!(p.profile, InputProfile::Sorted);
    }

    #[test]
    fn xargs_probes_filenames() {
        let p = pre("xargs cat");
        assert_eq!(p.profile, InputProfile::FileNames);
        assert!(!p.dictionary.is_empty());
        assert!(p.dictionary.iter().all(|d| d.starts_with("/kq/probe/")));
    }

    #[test]
    fn patterns_are_sampled_into_the_dictionary() {
        let line = "grep 'light.light'";
        let p = pre(line);
        assert!(!p.dictionary.is_empty());
        let hints = parse_command(line).unwrap().synthesis_hints();
        assert!(p.dictionary.iter().all(|w| hints.patterns[0].is_match(w)));
        // The pattern the sed parse holds, escaped delimiter and all.
        let sed = pre(r"sed 's/a\/b/X/'");
        assert!(!sed.dictionary.is_empty());
        assert!(sed.dictionary.iter().all(|w| w == "a/b"));
    }

    #[test]
    fn the_line_hint_is_at_least_two_lines() {
        assert_eq!(pre("sed 100q").line_hint, Some(100));
        assert_eq!(pre("head -15").line_hint, Some(15));
        assert_eq!(pre("tail +2").line_hint, Some(2));
        assert_eq!(pre("sed 1d").line_hint, Some(2));
        assert_eq!(pre("uniq").line_hint, None);
    }

    #[test]
    fn prefix_bound_is_exact_where_the_hint_is_fuzzed() {
        // The generation hint widens head -n 1 to 2 (boundary coverage);
        // the execution bound must stay exactly 1. And the hint fires for
        // commands that are NOT prefix-bounded (sed 1d, tail +2) — the
        // bound must not.
        let bound = |line: &str| parse_command(line).unwrap().line_bound();
        assert_eq!(bound("head -n 1"), Some(1));
        assert_eq!(pre("head -n 1").line_hint, Some(2));
        assert_eq!(bound("sed 100q"), Some(100));
        assert_eq!(bound("sed 1d"), None);
        assert_eq!(pre("sed 1d").line_hint, Some(2));
        assert_eq!(bound("tail +2"), None);
        assert_eq!(bound("grep x"), None);
    }

    #[test]
    fn cut_delimiter_seeds_dictionary() {
        let p = pre("cut -d ',' -f 1,3");
        assert!(p.dictionary.iter().any(|w| w.contains(',')));
    }

    #[test]
    fn merge_flags_pass_through() {
        assert_eq!(pre("sort -k 1n").merge_flags, ["-k", "1n"]);
        assert!(pre("uniq").merge_flags.is_empty());
    }

    #[test]
    fn delim_detection_wc_is_newline_only() {
        let p = pre("wc -l");
        assert_eq!(p.delims, vec![Delim::Newline]);
    }

    #[test]
    fn delim_detection_cat_sees_spaces() {
        let p = pre("cat");
        assert!(p.delims.contains(&Delim::Space));
        assert!(!p.delims.contains(&Delim::Comma));
    }

    #[test]
    fn delim_detection_uniq_c_sees_spaces() {
        let p = pre("uniq -c");
        assert!(p.delims.contains(&Delim::Space));
    }
}
