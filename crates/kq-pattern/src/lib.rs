//! A from-scratch POSIX Basic Regular Expression (BRE) engine.
//!
//! The KumQuat benchmark corpus uses `grep`/`sed` with BRE patterns —
//! literals, `.`, `*`, bracket expressions (ranges, negation, POSIX classes
//! such as `[:punct:]`), anchors, `\(..\)` groups, GNU's `\|` alternation,
//! and backreferences (`nfa-regex.sh` uses `\(.\).*\1\(.\).*\2...`); the
//! same engine runs the extended spelling (`grep -E`: `(..)`, `|`, `+`,
//! `?`) through [`Regex::with_syntax`]. Backreferences make the
//! language non-regular, so the engine is a classic backtracking matcher —
//! perfectly adequate for the short lines these pipelines process.
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
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod parse;
mod sample;

pub use parse::{ParseError, Syntax};

use parse::Ast;
use rand::Rng;

/// A compiled Basic Regular Expression.
#[derive(Debug, Clone)]
pub struct Regex {
    ast: Ast,
    case_insensitive: bool,
    pattern: String,
}

impl Regex {
    /// Compiles a BRE pattern.
    pub fn new(pattern: &str) -> Result<Regex, ParseError> {
        Regex::with_syntax(pattern, Syntax::Basic, false)
    }

    /// Compiles a pattern in either syntax (`grep -E` is
    /// [`Syntax::Extended`]), optionally matching case-insensitively
    /// (`grep -i`).
    pub fn with_syntax(
        pattern: &str,
        syntax: Syntax,
        case_insensitive: bool,
    ) -> Result<Regex, ParseError> {
        Ok(Regex {
            ast: parse::parse(pattern, syntax)?,
            case_insensitive,
            pattern: pattern.to_owned(),
        })
    }

    /// The source pattern this regex was compiled from.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Search semantics: true when the pattern matches anywhere in `line`
    /// (`grep` applies this per line; `line` must not contain `'\n'`).
    pub fn is_match(&self, line: &str) -> bool {
        self.find(line).is_some()
    }

    /// Returns the byte range of the leftmost match, if any.
    pub fn find(&self, line: &str) -> Option<(usize, usize)> {
        exec::search(&self.ast, line, self.case_insensitive)
    }

    /// Replaces the first match in `line` with `replacement`. The
    /// replacement string supports `&` (whole match) and `\1`..`\9` (group
    /// captures), as in `sed s///`.
    pub fn replace_first(&self, line: &str, replacement: &str) -> String {
        exec::replace(&self.ast, line, replacement, false, self.case_insensitive)
    }

    /// Replaces every non-overlapping match (`sed s///g`).
    pub fn replace_all(&self, line: &str, replacement: &str) -> String {
        exec::replace(&self.ast, line, replacement, true, self.case_insensitive)
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
