//! A from-scratch POSIX regular expression engine for the in-process
//! `grep` and `sed`.
//!
//! The KumQuat benchmark corpus uses `grep`/`sed` with BRE patterns —
//! literals, `.`, `*`, `\{n,m\}` intervals, bracket expressions (ranges,
//! negation, POSIX classes such as `[:punct:]`), anchors, `\(..\)` groups,
//! GNU's `\|` alternation, and backreferences (`nfa-regex.sh` uses
//! `\(.\).*\1\(.\).*\2...`); the same engine runs the extended spelling
//! (`grep -E`: `(..)`, `|`, `+`, `?`, `{n,m}`) and fixed strings
//! (`grep -F`) through [`Regex::with_syntax`].
//!
//! # Two executors
//!
//! Which one runs is a function of the pattern and of the question asked,
//! never of a setting:
//!
//! * **The automaton** answers "which lines match" for every pattern
//!   without a backreference — all of the corpus but `nfa-regex.sh`. The
//!   pattern compiles to a byte-level NFA, linear in its length, when the
//!   [`Regex`] is built; a search determinises it lazily, building only
//!   the DFA states the text reaches, in scratch owned by that search
//!   (`Regex` holds no cache and no lock and is `Clone + Sync`).
//!   [`Regex::matching_lines`] is its entry point: one pass over a whole
//!   buffer, yielding the byte range of each matching line.
//!   [`Regex::is_match`] is the same scan over one line.
//! * **The backtracker** runs patterns with a backreference, which are
//!   not regular, and computes what an automaton does not keep: the span
//!   of the leftmost match and of each group, for [`Regex::find`] and for
//!   the `&` and `\1`..`\9` of [`Regex::replace_into`]. For a pattern
//!   without a backreference both ask it only about lines the automaton
//!   has accepted, and so does `sed`.
//!
//! # The whole-buffer contract
//!
//! * `'\n'` separates lines and is never matched: not by `.`, not by a
//!   negated bracket expression, not by the escape `\n`. An unterminated
//!   last line is a line; a buffer that ends in `'\n'` has no empty line
//!   after it.
//! * `^` holds at the start of a line and `$` where the next byte is
//!   `'\n'` or the buffer ends, each for the branch it is written in.
//! * The buffer is bytes. `.` and bracket expressions consume one whole
//!   UTF-8 scalar, so `[^x]` takes all of `é`, never half; a pattern with
//!   either reads its buffer as UTF-8, and its callers decode first (see
//!   below). `-i` folds ASCII letters only.
//!
//! # Byte-exact patterns
//!
//! A pattern whose automaton never consumes a byte of `0x80` or above —
//! ASCII literals and ASCII classes, such as `l[ia][gn][hd]t* of`, `qqq`
//! or `dog` — matches the same lines of *any* bytes as it does under
//! `LC_ALL=C`: each byte it can consume is one ASCII character in both
//! readings, and every other byte stops it in both. Such a pattern is
//! [`Regex::byte_exact`], and `grep` runs it on raw bytes. Every other
//! pattern (`.`, `[^…]`, a non-ASCII literal, a backreference) reads
//! characters, so `grep` decodes its input for it first.
//! * A search keeps at most 1024 DFA states; past that it drops them and
//!   carries on from where it is. Answers do not change, only speed.
//!
//! # Cost
//!
//! Compiling is O(pattern) (intervals are expanded by the parser, which
//! bounds them). The automaton's scan is O(text): one table lookup per
//! byte once its states exist, less where it can skip — a pattern that is
//! a plain string is a substring search for its first two bytes, and a
//! scan with nothing in progress jumps to the next byte that could start
//! a match, across line ends unless a `^` at the pattern's start or a `$`
//! the idle state could reach makes them matter. When at most four bytes
//! can follow that byte into a match and no match ends after it, the jump
//! is to the next such *pair* of bytes (`l` then `i` or `a` for
//! `l[ia][gn][hd]t* of`): eight positions are tested at once, and a
//! lone first byte costs nothing. The scan looks for a line's start only
//! when the line matches. A state's first visit costs O(pattern).
//! The backtracker is exponential in the worst case (`a*a*a*b` on a line
//! of `a`) and recurses once per repetition of a starred group.
//!
//! Beyond matching, KumQuat's *preprocessing* step (paper §3.2) extracts
//! regexes from commands and generates dictionaries of strings that match
//! them; [`Regex::sample`] implements that generator.
//!
//! ```
//! use kq_pattern::Regex;
//!
//! let re = Regex::new(r"li\(.\)ht.*\1").unwrap();   // backreference
//! assert!(re.is_match("light night: g again"));
//! assert!(!re.is_match("light"));
//!
//! let re = Regex::new("l[ia][gn][hd]t* of").unwrap();
//! let text = "the light of day\nno match\nthe land of nod";
//! let lines: Vec<&str> = re.matching_lines(text.as_bytes()).map(|r| &text[r]).collect();
//! assert_eq!(lines, ["the light of day", "the land of nod"]);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod automaton;
mod exec;
mod parse;
mod sample;

pub use automaton::MatchingLines;
pub use parse::{ParseError, Syntax};

use automaton::Program;
use parse::Ast;
use rand::Rng;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    ast: Ast,
    /// The automaton; `None` when the pattern has a backreference. Boxed:
    /// its byte-class table alone is 256 bytes.
    program: Option<Box<Program>>,
    case_insensitive: bool,
    pattern: String,
}

impl Regex {
    /// Compiles a BRE pattern.
    pub fn new(pattern: &str) -> Result<Regex, ParseError> {
        Regex::with_syntax(pattern, Syntax::Basic, false)
    }

    /// Compiles a pattern in any syntax (`grep -E` is
    /// [`Syntax::Extended`], `grep -F` is [`Syntax::Fixed`]), optionally
    /// matching case-insensitively (`grep -i`).
    pub fn with_syntax(
        pattern: &str,
        syntax: Syntax,
        case_insensitive: bool,
    ) -> Result<Regex, ParseError> {
        let ast = parse::parse(pattern, syntax)?;
        let program = (!ast.has_backref()).then(|| Box::new(Program::new(&ast, case_insensitive)));
        Ok(Regex {
            ast,
            program,
            case_insensitive,
            pattern: pattern.to_owned(),
        })
    }

    /// True when the lines the pattern matches do not depend on how bytes
    /// of `0x80` and above decode (see the crate docs): the automaton
    /// runs it, and it consumes ASCII only.
    pub fn byte_exact(&self) -> bool {
        self.program.as_ref().is_some_and(|p| p.ascii_only)
    }

    /// The source pattern this regex was compiled from.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// The lines of `text` that the pattern matches anywhere, in order:
    /// the byte range of each, without its `'\n'`. One pass over the whole
    /// buffer (see the crate docs for the contract); an empty `text` has
    /// no line.
    pub fn matching_lines<'r, 't>(&'r self, text: &'t [u8]) -> MatchingLines<'r, 't> {
        MatchingLines::new(
            &self.ast,
            self.program.as_deref(),
            self.case_insensitive,
            text,
        )
    }

    /// Search semantics: true when the pattern matches anywhere in `line`
    /// (`line` must not contain `'\n'`; the empty string is an empty line).
    pub fn is_match(&self, line: &str) -> bool {
        if line.is_empty() {
            // No line to yield, but `^$` and `x*` do match the empty one.
            return self.matching_lines(b"\n").next().is_some();
        }
        self.matching_lines(line.as_bytes()).next().is_some()
    }

    /// Returns the byte range of the leftmost match, if any: the
    /// backtracker's answer, asked only when the line matches at all.
    pub fn find(&self, line: &str) -> Option<(usize, usize)> {
        if !self.is_match(line) {
            return None;
        }
        exec::search(&self.ast, line, self.case_insensitive)
    }

    /// Replaces the first match in `line` with `replacement`. The
    /// replacement string supports `&` (whole match) and `\1`..`\9` (group
    /// captures), as in `sed s///`.
    pub fn replace_first(&self, line: &str, replacement: &str) -> String {
        let mut out = String::with_capacity(line.len());
        self.replace_into(line, replacement, false, &mut out);
        out
    }

    /// Replaces every non-overlapping match (`sed s///g`).
    pub fn replace_all(&self, line: &str, replacement: &str) -> String {
        let mut out = String::with_capacity(line.len());
        self.replace_into(line, replacement, true, &mut out);
        out
    }

    /// Appends `line` to `out` with its first match — every match when
    /// `global` — replaced as [`Regex::replace_first`] describes. A line
    /// the automaton rejects comes back unchanged after one linear scan;
    /// the backtracker runs only on lines that match (and on every line of
    /// a pattern with a backreference). A caller with many lines does
    /// better filtering them through [`Regex::matching_lines`] first and
    /// handing the lines it yields to [`Regex::replace_matched_into`].
    pub fn replace_into(&self, line: &str, replacement: &str, global: bool, out: &mut String) {
        if self.program.is_some() && !self.is_match(line) {
            out.push_str(line);
            return;
        }
        self.replace_matched_into(line, replacement, global, out);
    }

    /// [`Regex::replace_into`] for a line [`Regex::matching_lines`] has
    /// already yielded: the backtracker computes the spans straight away,
    /// with no second scan. On a line the pattern does not match the
    /// answer is the same, but the backtracker may take exponential time
    /// to find that out (`\(a*\)*b` on a run of `a`).
    pub fn replace_matched_into(
        &self,
        line: &str,
        replacement: &str,
        global: bool,
        out: &mut String,
    ) {
        exec::replace(
            &self.ast,
            line,
            replacement,
            global,
            self.case_insensitive,
            out,
        );
    }

    /// Generates a random string that matches this pattern — the dictionary
    /// generator used by KumQuat preprocessing. `star_max` bounds the number
    /// of repetitions sampled for each `*`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R, star_max: usize) -> String {
        sample::sample(&self.ast, rng, star_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn m(pat: &str, s: &str) -> bool {
        Regex::new(pat).unwrap().is_match(s)
    }

    #[test]
    fn byte_exact_patterns_read_ascii_only() {
        for pat in [
            "l[ia][gn][hd]t* of",
            "qqq",
            "Apple",
            "dog",
            "^a\\|b$",
            "[[:punct:]]x*",
        ] {
            assert!(Regex::new(pat).unwrap().byte_exact(), "{pat}");
        }
        for pat in ["a.b", "[^x]", "caf\u{e9}", "\\(a\\)\\1"] {
            assert!(!Regex::new(pat).unwrap().byte_exact(), "{pat}");
        }
        // A byte-exact pattern matches lines that are not UTF-8.
        let re = Regex::new("d[ao]g").unwrap();
        let text = b"\xe9 dog\n\xb0\xa0\ncat dag\xff\n";
        let lines: Vec<_> = re.matching_lines(text).collect();
        assert_eq!(lines, [0..5, 9..17]);
    }

    #[test]
    fn literal_search() {
        assert!(m("light", "daylight saving"));
        assert!(!m("light", "dark"));
        assert!(m("", "anything")); // empty pattern matches everywhere
    }

    #[test]
    fn dot_and_star() {
        assert!(m("light.light", "lightXlight"));
        assert!(!m("light.light", "lightlight")); // '.' needs one char
        assert!(m("light.*light", "lightlight"));
        assert!(m("light.*light", "light of the moonlight"));
        assert!(!m("a*b", "ccc"));
        assert!(m("a*b", "b")); // zero reps
    }

    #[test]
    fn anchors() {
        assert!(m("^abc", "abcdef"));
        assert!(!m("^abc", "xabc"));
        assert!(m("abc$", "xxabc"));
        assert!(!m("abc$", "abcx"));
        assert!(m("^$", ""));
        assert!(!m("^$", "x"));
        assert!(m("^....$", "four"));
        assert!(!m("^....$", "three"));
    }

    #[test]
    fn caret_dollar_literal_in_middle() {
        // In BRE, '$' not at the end and '^' not at the start are literals.
        assert!(m("a$b", "a$b"));
        assert!(m("a^b", "a^b"));
    }

    #[test]
    fn bracket_expressions() {
        assert!(m("[abc]", "xbx"));
        assert!(!m("[abc]", "xyz"));
        assert!(m("[a-z]", "M3g"));
        assert!(!m("[a-z]", "M3G"));
        assert!(m("[^a-z]", "abcX"));
        assert!(!m("[^a-z]", "abc"));
        assert!(m("^[A-Z]", "Zebra"));
        assert!(!m("^[A-Z]", "zebra"));
    }

    #[test]
    fn bracket_special_positions() {
        assert!(m("[]a]", "]")); // ']' first is literal
        assert!(m("[a-]", "-")); // '-' last is literal
        assert!(m("[-a]", "-")); // '-' first is literal
    }

    #[test]
    fn posix_classes() {
        assert!(m("[[:punct:]]", "hi!"));
        assert!(!m("[[:punct:]]", "hi"));
        assert!(m("[[:upper:]]", "aBc"));
        assert!(m("[[:digit:]]", "x9"));
        assert!(m("[^[:digit:]]", "12a"));
        assert!(!m("[^[:digit:]]", "123"));
    }

    #[test]
    fn vowel_syllable_patterns() {
        // poets 6_4/6_5 patterns.
        let one = Regex::with_syntax("^[^aeiou]*[aeiou][^aeiou]*$", Syntax::Basic, true).unwrap();
        assert!(one.is_match("cat"));
        assert!(one.is_match("A"));
        assert!(!one.is_match("idea"));
        let two = Regex::with_syntax(
            "^[^aeiou]*[aeiou][^aeiou]*[aeiou][^aeiou]$",
            Syntax::Basic,
            true,
        )
        .unwrap();
        assert!(two.is_match("pilot"));
        assert!(!two.is_match("cat"));
    }

    #[test]
    fn groups_and_backrefs() {
        assert!(m("\\(ab\\)\\1", "abab"));
        assert!(!m("\\(ab\\)\\1", "abba"));
        // The nfa-regex.sh pattern: four pairwise-repeated characters in
        // order (each character reappears before the next pair begins).
        let pat = "\\(.\\).*\\1\\(.\\).*\\2\\(.\\).*\\3\\(.\\).*\\4";
        assert!(m(pat, "aabbccdd"));
        assert!(m(pat, "Xa..aPQQP zz 11")); // a(1,4) Q(6,7) z(10,11) 1(13,14)
        assert!(!m(pat, "abcdefgh"));
        assert!(!m(pat, "abcdabcd")); // second 'b' never reappears after \1
    }

    #[test]
    fn escaped_metacharacters() {
        assert!(m("a\\.b", "a.b"));
        assert!(!m("a\\.b", "axb"));
        assert!(m("\\.", "end."));
        assert!(m("a\\*b", "a*b")); // escaped star is literal
    }

    #[test]
    fn star_is_literal_at_start() {
        assert!(m("*x", "*x"));
    }

    #[test]
    fn case_insensitive() {
        let re = Regex::with_syntax("[aeiou]", Syntax::Basic, true).unwrap();
        assert!(re.is_match("XYZA"));
        assert!(!re.is_match("XYZ"));
        let re = Regex::with_syntax("bell", Syntax::Basic, true).unwrap();
        assert!(re.is_match("BELL labs"));
    }

    #[test]
    fn plus_is_rejected_as_bre() {
        // '+' is an ERE quantifier; in our BRE subset it is a literal, so
        // "b+" matches the literal text "b+".
        assert!(m("b+", "ab+c"));
        assert!(!m("b+", "bbb"));
    }

    #[test]
    fn find_leftmost() {
        let re = Regex::new("bb*").unwrap();
        assert_eq!(re.find("abbbc"), Some((1, 4)));
        assert_eq!(re.find("x"), None);
    }

    #[test]
    fn replace_first_and_all() {
        let re = Regex::new("o").unwrap();
        assert_eq!(re.replace_first("foo", "0"), "f0o");
        assert_eq!(re.replace_all("foo", "0"), "f00");
        // sed 's/$/0s/' appends at end of line.
        let re = Regex::new("$").unwrap();
        assert_eq!(re.replace_first("197", "0s"), "1970s");
        // Group reference in the replacement.
        let re = Regex::new("T\\(..\\):..:..").unwrap();
        assert_eq!(
            re.replace_first("2020-01-01T08:15:59,v1", ",\\1"),
            "2020-01-01,08,v1"
        );
        // '&' inserts the whole match.
        let re = Regex::new("ab").unwrap();
        assert_eq!(re.replace_first("xaby", "<&>"), "x<ab>y");
    }

    #[test]
    fn replace_all_empty_match_advances() {
        // 's/x*/-/g' on "ab" must not loop forever.
        let re = Regex::new("x*").unwrap();
        assert_eq!(re.replace_all("ab", "-"), "-a-b-");
    }

    #[test]
    fn replace_all_takes_no_empty_match_where_a_match_ended() {
        // GNU sed's outputs.
        let cases = [
            ("x*", "-", "xxaxx", "-a-"),
            ("b*", "X", "abc", "XaXcX"),
            ("a*", "<&>", "ab", "<a>b<>"),
            ("x*", "-", "xx", "-"),
            ("x*", "-", "", "-"),
            ("b*", "X", "bb", "X"),
            ("b*", "X", "abba", "XaXaX"),
        ];
        for (pattern, replacement, line, want) in cases {
            let re = Regex::new(pattern).unwrap();
            assert_eq!(
                re.replace_all(line, replacement),
                want,
                "s/{pattern}/{replacement}/g on {line:?}"
            );
        }
    }

    #[test]
    fn anchored_replace_start() {
        // sed "s;^;/books/;" prepends a prefix.
        let re = Regex::new("^").unwrap();
        assert_eq!(re.replace_first("pg100.txt", "/books/"), "/books/pg100.txt");
    }

    #[test]
    fn sampler_produces_matching_strings() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        for pat in [
            "light.light",
            "light.*light",
            "^[A-Z][a-z]*$",
            "[0-9][0-9]*",
            "the land of",
            "\\(ab\\)\\1",
            "[[:punct:]]x",
        ] {
            let re = Regex::new(pat).unwrap();
            for _ in 0..50 {
                let s = re.sample(&mut rng, 3);
                assert!(re.is_match(&s), "pattern {pat:?} sample {s:?}");
                assert!(!s.contains('\n'));
            }
        }
    }

    proptest! {
        #[test]
        fn prop_sample_always_matches(seed in 0u64..500) {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let pats = ["a[bc]*d", "^x.y$", "[^ ]*", "q\\(.\\)\\1"];
            for pat in pats {
                let re = Regex::new(pat).unwrap();
                let s = re.sample(&mut rng, 4);
                prop_assert!(re.is_match(&s), "pattern {} sample {:?}", pat, s);
            }
        }

        #[test]
        fn prop_literal_pattern_matches_itself(s in "[a-z]{1,12}") {
            prop_assert!(m(&s, &s));
        }

        #[test]
        fn prop_star_absorbs_repeats(n in 0usize..8) {
            let hay = format!("x{}y", "a".repeat(n));
            prop_assert!(m("xa*y", &hay));
        }
    }
}
