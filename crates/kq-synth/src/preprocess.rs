//! Command preprocessing (paper §3.2, "Preprocessing").
//!
//! Before synthesis, KumQuat inspects the command line and probes the
//! command with three canonical inputs:
//!
//! * literals are extracted — regex patterns from `grep`/`sed` become a
//!   dictionary of matching strings (via the `kq-pattern` sampler), numeric
//!   addresses (`sed 100q`, `head -n 3`) become line-count hints, and `cut`
//!   delimiters produce composite dictionary words that exercise the
//!   splitting path;
//! * the command runs on an unsorted word list, a sorted word list, and a
//!   file-name list. `comm`-style commands fail the first and pass the
//!   second (→ generate sorted inputs only); `xargs`-style commands fail
//!   both word lists and pass the file names (→ generate file names);
//! * the delimiter alphabet for candidate enumeration is read off the
//!   command's outputs on representative inputs.

use kq_coreutils::{Command, ExecContext};
use kq_pattern::Regex;
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
    /// Line-count hint from numeric literals (`sed 100q` → 100). It
    /// biases generated input sizes so synthesis exercises the boundary,
    /// and deliberately widens `head -n 1` to two lines; the exact
    /// early-exit bound the executor cancels against is the parsed
    /// command's own ([`Command::line_bound`]), never this guess.
    pub line_hint: Option<usize>,
    /// Delimiter alphabet observed in command outputs (always contains
    /// `'\n'`).
    pub delims: Vec<Delim>,
    /// Flags for the `merge` candidate (the command's own flags when it is
    /// a `sort`).
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
    let (dictionary, line_hint) = extract_literals(command, rng);
    let profile = probe_profile(command, ctx);
    let mut pre = Preprocessed {
        profile,
        dictionary,
        line_hint,
        delims: vec![Delim::Newline],
        merge_flags: merge_flags(command),
    };
    if matches!(profile, InputProfile::FileNames) {
        pre.dictionary = PROBE_FILES.iter().map(|s| (*s).to_owned()).collect();
    }
    pre.delims = detect_delims(command, ctx, &pre, rng);
    pre
}

/// Extracts regex/number literals from the command line.
fn extract_literals<R: Rng + ?Sized>(
    command: &Command,
    rng: &mut R,
) -> (Vec<String>, Option<usize>) {
    let argv = command.argv();
    let mut dictionary = Vec::new();
    let mut line_hint = None;
    match command.program() {
        "grep" => {
            // The command's own parser knows which word is the pattern
            // and in which syntax (`-E`, `-F`, `-e PAT`).
            if let Ok(grep) = kq_coreutils::grep::GrepCmd::parse(&argv[1..]) {
                for _ in 0..10 {
                    let s = grep.regex().sample(rng, 3);
                    if !s.is_empty() && !s.contains('\n') {
                        dictionary.push(s);
                    }
                }
            }
        }
        "sed" => {
            if let Some(script) = argv[1..].iter().find(|a| !a.starts_with('-')) {
                let digits: String = script.chars().take_while(|c| c.is_ascii_digit()).collect();
                if !digits.is_empty() && (script.ends_with('q') || script.ends_with('d')) {
                    line_hint = digits.parse().ok();
                } else if let Some(rest) = script.strip_prefix('s') {
                    // Sample the pattern between the first two delimiters.
                    let mut chars = rest.chars();
                    if let Some(d) = chars.next() {
                        let body: String = chars.collect();
                        if let Some((re_text, _)) = body.split_once(d) {
                            if let Ok(re) = Regex::new(re_text) {
                                for _ in 0..8 {
                                    let s = re.sample(rng, 2);
                                    if !s.is_empty() && !s.contains('\n') {
                                        dictionary.push(s);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        "head" | "tail" => {
            for a in &argv[1..] {
                let trimmed = a
                    .trim_start_matches(['-', '+', 'n'])
                    .trim_start_matches(' ');
                if let Ok(n) = trimmed.parse::<usize>() {
                    line_hint = Some(n.max(2));
                }
            }
        }
        "cut" => {
            // A `-d X` delimiter only matters if inputs contain it.
            if let Some(d) = cut_delimiter(argv) {
                for seed in ["ab", "cd", "efg"] {
                    dictionary.push(format!("{seed}{d}x{d}y{d}z"));
                }
            }
        }
        _ => {}
    }
    (dictionary, line_hint)
}

fn cut_delimiter(argv: &[String]) -> Option<char> {
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "-d" {
            return it.next().and_then(|v| v.chars().next());
        }
        if let Some(body) = a.strip_prefix("-d") {
            return body.chars().next();
        }
    }
    None
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

fn merge_flags(command: &Command) -> Vec<String> {
    if command.program() != "sort" {
        return Vec::new();
    }
    command.argv()[1..]
        .iter()
        .filter(|a| a.starts_with('-') && !a.starts_with("--parallel") && *a != "-m")
        .cloned()
        .collect()
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
    fn grep_literals_sampled_into_dictionary() {
        let p = pre("grep 'light.light'");
        assert!(!p.dictionary.is_empty());
        let re = Regex::new("light.light").unwrap();
        assert!(p.dictionary.iter().all(|w| re.is_match(w)));
        // A fixed string is its own only sample; `-e` names the pattern
        // even when it looks like a flag.
        let fixed = pre("grep -cF 'a.*b'");
        assert!(!fixed.dictionary.is_empty());
        assert!(fixed.dictionary.iter().all(|w| w == "a.*b"));
        let explicit = pre("grep -ie -x");
        assert!(!explicit.dictionary.is_empty());
        assert!(explicit.dictionary.iter().all(|w| w == "-x"));
    }

    #[test]
    fn sed_quit_address_becomes_line_hint() {
        assert_eq!(pre("sed 100q").line_hint, Some(100));
        assert_eq!(pre("sed 5q").line_hint, Some(5));
        assert_eq!(pre("sed 1d").line_hint, Some(1));
    }

    #[test]
    fn head_count_becomes_line_hint() {
        assert_eq!(pre("head -n 3").line_hint, Some(3));
        assert_eq!(pre("head -15").line_hint, Some(15));
        assert_eq!(pre("tail +2").line_hint, Some(2));
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
        assert_eq!(pre("sed 1d").line_hint, Some(1));
        assert_eq!(bound("tail +2"), None);
        assert_eq!(bound("grep x"), None);
    }

    #[test]
    fn cut_delimiter_seeds_dictionary() {
        let p = pre("cut -d ',' -f 1,3");
        assert!(p.dictionary.iter().any(|w| w.contains(',')));
    }

    #[test]
    fn merge_flags_taken_from_sort() {
        assert_eq!(pre("sort -rn").merge_flags, vec!["-rn".to_owned()]);
        assert_eq!(pre("sort -u").merge_flags, vec!["-u".to_owned()]);
        assert!(pre("sort --parallel=1").merge_flags.is_empty());
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
