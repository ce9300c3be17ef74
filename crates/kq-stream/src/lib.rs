//! Stream model and string-splitting primitives for the KumQuat reproduction.
//!
//! The KumQuat paper (Definition 3.1) models a *stream* as a string that ends
//! with a newline character: `Stream = { x ++ "\n" | x ∈ String }`. Commands
//! are functions `Stream -> Stream`, and the combiner DSL semantics (Figure 6
//! of the paper) are defined in terms of a small vocabulary of string
//! helpers: `splitFirst`, `splitLast`, `splitFirstLine`, `splitLastLine`,
//! `splitLastNonemptyLine`, `delFront`, `delBack`, `delPad`, `addPad`, and
//! delimiter counting. This crate implements that vocabulary exactly, plus
//! the line-boundary stream splitting used to create the parallel input
//! substreams.
//!
//! Everything here is pure string/byte manipulation with no I/O, so both
//! the synthesizer and the parallel executors can share it.
//!
//! Two views of the same stream model coexist:
//!
//! * **Borrowed text** — the paper-vocabulary helpers below and the
//!   [`split_stream`]/[`split_chunks`] functions returning `&str` views,
//!   used by the synthesizer's small probe streams and the DSL evaluator;
//! * **Shared bytes** — [`Bytes`] (an `Arc`'d backing plus range) and
//!   [`Rope`] (a segment list), the zero-copy data plane the executors
//!   move payloads through. [`Bytes::split_stream`]/[`Bytes::split_chunks`]
//!   share the exact boundary computation with the borrowed splitters, so
//!   the two views can never disagree about where a stream splits. The
//!   backing is either an owned heap buffer or a memory-mapped file
//!   region ([`MmapRegion`], created by `kq-io`) — see the
//!   [`bytes`] module docs for the backing-store rules, the unmap
//!   lifecycle, and the truncation/`SIGBUS` caveat.
//!
//! ```
//! // Line-aligned splitting never cuts a line and reassembles exactly.
//! let stream = "alpha\nbeta\ngamma\ndelta\n";
//! let pieces = kq_stream::split_stream(stream, 3);
//! assert_eq!(pieces.concat(), stream);
//! assert!(pieces.iter().all(|p| p.ends_with('\n')));
//!
//! // The zero-copy equivalent: pieces are refcounted slices.
//! let shared = kq_stream::Bytes::from(stream);
//! let pieces = shared.split_stream(3);
//! assert!(pieces.iter().all(|p| p.shares_buffer(&shared)));
//!
//! // The appendix string helpers used by the DSL semantics.
//! assert_eq!(kq_stream::del_pad("   42 apple"), (3, "42 apple"));
//! assert_eq!(kq_stream::split_first(' ', "42 apple pie"), ("42", Some("apple pie")));
//! ```

#![warn(missing_docs)]

pub mod bytes;
pub mod chunker;
pub mod delim;
pub mod split;

#[cfg(unix)]
pub use bytes::MmapRegion;
pub use bytes::{concat_bytes, Bytes, ChunkIter, Gather, ReleaseCursor, Rope};
pub use chunker::IncrementalChunker;
pub use delim::Delim;
pub use split::{split_chunks, split_stream};

/// Returns true if `s` is a stream in the sense of Definition 3.1: a
/// non-empty string whose final character is a newline.
///
/// The empty string is *not* a stream; the minimal stream is `"\n"`.
#[inline]
pub fn is_stream(s: &str) -> bool {
    s.ends_with('\n')
}

/// Appends a trailing newline if `s` does not already end with one, making
/// it a stream. The empty string becomes `"\n"` — callers that want to keep
/// "no output" distinct from "one empty line" should branch before calling.
pub fn ensure_stream(s: &str) -> String {
    if is_stream(s) {
        s.to_owned()
    } else {
        let mut out = String::with_capacity(s.len() + 1);
        out.push_str(s);
        out.push('\n');
        out
    }
}

/// `splitFirst d y` from the paper's appendix: splits `y` into elements
/// separated by `d`, returns the first element, and re-joins the remaining
/// elements with `d` as the second output.
///
/// When `d` does not occur in `y` the tail is `None` (the paper's `nil`).
#[inline]
pub fn split_first(d: char, y: &str) -> (&str, Option<&str>) {
    match y.find(d) {
        Some(i) => (&y[..i], Some(&y[i + d.len_utf8()..])),
        None => (y, None),
    }
}

/// `splitLast d y`: splits `y` with `d`, returns the last element as the
/// second output and the re-joined remaining elements as the first output
/// (`None` when `d` does not occur).
#[inline]
pub fn split_last(d: char, y: &str) -> (Option<&str>, &str) {
    match y.rfind(d) {
        Some(i) => (Some(&y[..i]), &y[i + d.len_utf8()..]),
        None => (None, y),
    }
}

/// `splitFirstLine y`: returns the first line of a stream (without its
/// newline) and the remaining suffix *including* all of its newlines.
///
/// For the single-line stream `"b\n"` this yields `("b", "")`.
/// For a non-stream (no trailing newline anywhere) the whole string is the
/// line and the rest is empty.
#[inline]
pub fn split_first_line(y: &str) -> (&str, &str) {
    match y.find('\n') {
        Some(i) => (&y[..i], &y[i + 1..]),
        None => (y, ""),
    }
}

/// `splitLastLine y`: for a stream `y` (ends with `'\n'`), strips the final
/// newline and splits off the last line. The first output is the prefix
/// *without* its trailing newline (`None` when `y` has a single line), the
/// second output is the last line.
///
/// `split_last_line("a\nb\n") == (Some("a"), "b")`,
/// `split_last_line("b\n") == (None, "b")`.
#[inline]
pub fn split_last_line(y: &str) -> (Option<&str>, &str) {
    let body = y.strip_suffix('\n').unwrap_or(y);
    match body.rfind('\n') {
        Some(i) => (Some(&body[..i]), &body[i + 1..]),
        None => (None, body),
    }
}

/// `splitLastNonemptyLine y`: like [`split_last_line`] but skips trailing
/// empty lines when locating the last line. The first output is everything
/// before the returned line (without the separating newline). Returns
/// `None` for the line when every line is empty.
pub fn split_last_nonempty_line(y: &str) -> (Option<&str>, Option<&str>) {
    let mut body = y.strip_suffix('\n').unwrap_or(y);
    loop {
        match body.rfind('\n') {
            Some(i) => {
                let cand = &body[i + 1..];
                if cand.is_empty() {
                    body = &body[..i];
                } else {
                    return (Some(&body[..i]), Some(cand));
                }
            }
            None => {
                if body.is_empty() {
                    return (None, None);
                }
                return (None, Some(body));
            }
        }
    }
}

/// `delFront d y`: removes one occurrence of delimiter `d` from the front of
/// `y`; `None` when `y` does not start with `d` (the evaluation is then a
/// domain error in the DSL).
#[inline]
pub fn del_front(d: char, y: &str) -> Option<&str> {
    y.strip_prefix(d)
}

/// `delBack d y`: removes one occurrence of delimiter `d` from the back of
/// `y`; `None` when `y` does not end with `d`.
#[inline]
pub fn del_back(d: char, y: &str) -> Option<&str> {
    y.strip_suffix(d)
}

/// `delPad y`: removes leading pad characters (spaces, or a run of leading
/// tabs as produced by some tabulating commands) and returns the number of
/// removed characters together with the remaining substring.
///
/// The paper's Definition B.1 restricts pads to `[' '+ | '\t']`; we accept
/// any mix of leading blanks, which is a superset that behaves identically
/// on the command outputs in the corpus (`uniq -c`, `wc`, `xargs wc`).
#[inline]
pub fn del_pad(y: &str) -> (usize, &str) {
    let trimmed = y.trim_start_matches([' ', '\t']);
    (y.len() - trimmed.len(), trimmed)
}

/// `addPad` with the alignment rule implied by the paper's `calcPad`: pads
/// `s` with leading spaces so that it occupies at least `width` columns
/// (right-aligned). When `s` is already wider, no padding is added.
pub fn add_pad(width: usize, s: &str) -> String {
    let len = s.chars().count();
    if len >= width {
        s.to_owned()
    } else {
        let mut out = String::with_capacity(width.saturating_sub(len) + s.len());
        for _ in 0..(width - len) {
            out.push(' ');
        }
        out.push_str(s);
        out
    }
}

/// `C(d, y)` from Definition B.10: the number of occurrences of delimiter
/// `d` in `y`.
#[inline]
pub fn count_delim(d: char, y: &str) -> usize {
    y.as_bytes().iter().filter(|&&b| b == d as u8).count()
}

/// Iterates over the lines of a stream *without* their trailing newlines,
/// preserving empty lines. `"\n"` yields one empty line; `""` yields none;
/// an unterminated final line is yielded as-is.
pub fn lines_of(y: &str) -> impl Iterator<Item = &str> {
    let terminated = y.ends_with('\n');
    let body = if terminated { &y[..y.len() - 1] } else { y };
    let empty = y.is_empty();
    let single_empty = y == "\n";
    let mut it = body.split('\n');
    let mut emitted_single = false;
    std::iter::from_fn(move || {
        if empty {
            return None;
        }
        if single_empty {
            if emitted_single {
                return None;
            }
            emitted_single = true;
            return Some("");
        }
        it.next()
    })
}

/// Number of lines in a stream: the number of `'\n'` characters, plus one
/// when the final line is unterminated (non-stream strings).
pub fn line_count(y: &str) -> usize {
    let n = count_delim('\n', y);
    if y.is_empty() || y.ends_with('\n') {
        n
    } else {
        n + 1
    }
}

/// Parses a GNU-style padded integer field (`delPad` then digits), returning
/// the pad width consumed, the integer value, and the remaining suffix.
/// Returns `None` when the deformatted prefix is not a non-empty digit run.
pub fn parse_padded_int(y: &str) -> Option<(usize, i64, &str)> {
    let (pad, rest) = del_pad(y);
    let digits_len = rest.bytes().take_while(|b| b.is_ascii_digit()).count();
    if digits_len == 0 {
        return None;
    }
    let value: i64 = rest[..digits_len].parse().ok()?;
    Some((pad, value, &rest[digits_len..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stream_predicate() {
        assert!(is_stream("abc\n"));
        assert!(is_stream("\n"));
        assert!(!is_stream(""));
        assert!(!is_stream("abc"));
    }

    #[test]
    fn ensure_stream_appends_only_when_needed() {
        assert_eq!(ensure_stream("a"), "a\n");
        assert_eq!(ensure_stream("a\n"), "a\n");
        assert_eq!(ensure_stream(""), "\n");
    }

    #[test]
    fn split_first_basic() {
        assert_eq!(split_first(',', "a,b,c"), ("a", Some("b,c")));
        assert_eq!(split_first(',', "abc"), ("abc", None));
        assert_eq!(split_first(',', ",x"), ("", Some("x")));
        assert_eq!(split_first(',', "x,"), ("x", Some("")));
    }

    #[test]
    fn split_last_basic() {
        assert_eq!(split_last(',', "a,b,c"), (Some("a,b"), "c"));
        assert_eq!(split_last(',', "abc"), (None, "abc"));
        assert_eq!(split_last(',', "x,"), (Some("x"), ""));
    }

    #[test]
    fn split_first_line_cases() {
        assert_eq!(split_first_line("a\nb\nc\n"), ("a", "b\nc\n"));
        assert_eq!(split_first_line("a\n"), ("a", ""));
        assert_eq!(split_first_line("\n"), ("", ""));
        assert_eq!(split_first_line("nolf"), ("nolf", ""));
    }

    #[test]
    fn split_last_line_cases() {
        assert_eq!(split_last_line("a\nb\nc\n"), (Some("a\nb"), "c"));
        assert_eq!(split_last_line("a\n"), (None, "a"));
        assert_eq!(split_last_line("\n"), (None, ""));
        // Unterminated final line behaves like the line itself.
        assert_eq!(split_last_line("a\nb"), (Some("a"), "b"));
    }

    #[test]
    fn split_last_nonempty_line_skips_trailing_blanks() {
        assert_eq!(
            split_last_nonempty_line("a\nb\n\n\n"),
            (Some("a"), Some("b"))
        );
        assert_eq!(split_last_nonempty_line("a\n"), (None, Some("a")));
        assert_eq!(split_last_nonempty_line("\n\n"), (None, None));
        assert_eq!(split_last_nonempty_line("\n"), (None, None));
    }

    #[test]
    fn del_front_back() {
        assert_eq!(del_front('\n', "\nabc"), Some("abc"));
        assert_eq!(del_front('\n', "abc"), None);
        assert_eq!(del_back('\n', "abc\n"), Some("abc"));
        assert_eq!(del_back('\n', "abc"), None);
    }

    #[test]
    fn del_pad_counts_blanks() {
        assert_eq!(del_pad("   4 word"), (3, "4 word"));
        assert_eq!(del_pad("x"), (0, "x"));
        assert_eq!(del_pad("\t9"), (1, "9"));
        assert_eq!(del_pad("    "), (4, ""));
    }

    #[test]
    fn add_pad_right_aligns() {
        assert_eq!(add_pad(7, "4"), "      4");
        assert_eq!(add_pad(2, "123"), "123");
        assert_eq!(add_pad(0, ""), "");
    }

    #[test]
    fn uniq_c_roundtrip_padding() {
        // GNU uniq -c prints "%7d %s"; combining 4 and 9 must stay aligned.
        let line = "      4 word";
        let (pad, rest) = del_pad(line);
        let (count, tail) = split_first(' ', rest);
        assert_eq!((pad, count, tail), (6, "4", Some("word")));
        let new = add_pad(pad + count.len(), "13");
        assert_eq!(format!("{new} {}", tail.unwrap()), "     13 word");
    }

    #[test]
    fn count_delim_counts() {
        assert_eq!(count_delim('\n', "a\nb\n"), 2);
        assert_eq!(count_delim(',', "a,b,c"), 2);
        assert_eq!(count_delim('\t', "ab"), 0);
    }

    #[test]
    fn lines_of_stream() {
        let ls: Vec<_> = lines_of("a\nb\n\nc\n").collect();
        assert_eq!(ls, vec!["a", "b", "", "c"]);
        let ls: Vec<_> = lines_of("\n").collect();
        assert_eq!(ls, vec![""]);
        let ls: Vec<_> = lines_of("").collect();
        assert!(ls.is_empty());
        let ls: Vec<_> = lines_of("a\nb").collect();
        assert_eq!(ls, vec!["a", "b"]);
    }

    #[test]
    fn line_count_matches_lines_of() {
        for s in ["", "\n", "a\n", "a\nb\n", "a\nb", "\n\n\n"] {
            assert_eq!(line_count(s), lines_of(s).count(), "input {s:?}");
        }
    }

    #[test]
    fn parse_padded_int_cases() {
        assert_eq!(parse_padded_int("      4 word"), Some((6, 4, " word")));
        assert_eq!(parse_padded_int("12"), Some((0, 12, "")));
        assert_eq!(parse_padded_int("  x"), None);
        assert_eq!(parse_padded_int(""), None);
    }

    proptest! {
        #[test]
        fn prop_split_first_reassembles(s in "[a-z,]{0,40}") {
            let (h, t) = split_first(',', &s);
            match t {
                Some(t) => prop_assert_eq!(format!("{h},{t}"), s),
                None => prop_assert_eq!(h, s.as_str()),
            }
        }

        #[test]
        fn prop_split_last_reassembles(s in "[a-z,]{0,40}") {
            let (i, l) = split_last(',', &s);
            match i {
                Some(i) => prop_assert_eq!(format!("{i},{l}"), s),
                None => prop_assert_eq!(l, s.as_str()),
            }
        }

        #[test]
        fn prop_split_lines_reassemble(body in "[a-c\n]{0,60}") {
            let y = format!("{body}\n");
            let (pre, last) = split_last_line(&y);
            let rebuilt = match pre {
                Some(p) => format!("{p}\n{last}\n"),
                None => format!("{last}\n"),
            };
            prop_assert_eq!(rebuilt, y);
        }

        #[test]
        fn prop_first_line_reassembles(body in "[a-c\n]{0,60}") {
            let y = format!("{body}\n");
            let (first, rest) = split_first_line(&y);
            prop_assert_eq!(format!("{first}\n{rest}"), y);
        }

        #[test]
        fn prop_del_pad_add_pad_roundtrip(pad in 0usize..10, s in "[a-z0-9]{1,10}") {
            let padded = add_pad(pad + s.len(), &s);
            let (got, rest) = del_pad(&padded);
            prop_assert_eq!(got, pad);
            prop_assert_eq!(rest, s.as_str());
        }

        #[test]
        fn prop_lines_of_roundtrip(lines in proptest::collection::vec("[a-z]{0,6}", 0..12)) {
            let mut y = String::new();
            for l in &lines {
                y.push_str(l);
                y.push('\n');
            }
            let got: Vec<_> = lines_of(&y).map(str::to_owned).collect();
            prop_assert_eq!(got, lines);
        }
    }
}
