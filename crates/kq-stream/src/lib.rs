//! Stream model and string-splitting primitives for the KumQuat reproduction.
//!
//! The KumQuat paper (Definition 3.1) models a *stream* as a string that ends
//! with a newline character: `Stream = { x ++ "\n" | x ∈ String }`. Commands
//! are functions `Stream -> Stream`, and the combiner DSL semantics (Figure 6
//! of the paper) are defined in terms of a small vocabulary of string
//! helpers: `splitFirst`, `splitFirstLine`, `splitLastLine`,
//! `splitLastNonemptyLine`, `delFront`, `delBack`, `delPad`, `addPad`, and
//! delimiter counting. This crate implements that vocabulary exactly, plus
//! the line-boundary stream splitting used to create the parallel input
//! substreams.
//!
//! A string here is a byte string, as under `LC_ALL=C`: every helper
//! works on `&[u8]`, and nothing in this crate assumes or checks UTF-8.
//! The delimiters are ASCII, so a cut never needs to know where a
//! character begins. Everything is pure byte manipulation with no I/O,
//! so both the synthesizer and the parallel executors can share it.
//!
//! Two views of the same stream model coexist:
//!
//! * **Borrowed** — the paper-vocabulary helpers below, used by the DSL
//!   evaluator, and the [`split_stream`]/[`split_chunks`] functions
//!   returning `&str` views of the synthesizer's small probe streams;
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
//! assert_eq!(kq_stream::del_pad(b"   42 apple"), (3, &b"42 apple"[..]));
//! assert_eq!(
//!     kq_stream::split_first(b' ', b"42 apple pie"),
//!     (&b"42"[..], Some(&b"apple pie"[..]))
//! );
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
pub use split::{next_chunk_end, split_chunks, split_stream};

/// The position of the first `d` in `y`.
#[inline]
fn find(d: u8, y: &[u8]) -> Option<usize> {
    y.iter().position(|&b| b == d)
}

/// The position of the last `d` in `y`.
#[inline]
fn rfind(d: u8, y: &[u8]) -> Option<usize> {
    y.iter().rposition(|&b| b == d)
}

/// `splitFirst d y` from the paper's appendix: splits `y` into elements
/// separated by `d`, returns the first element, and re-joins the remaining
/// elements with `d` as the second output.
///
/// When `d` does not occur in `y` the tail is `None` (the paper's `nil`).
#[inline]
pub fn split_first(d: u8, y: &[u8]) -> (&[u8], Option<&[u8]>) {
    match find(d, y) {
        Some(i) => (&y[..i], Some(&y[i + 1..])),
        None => (y, None),
    }
}

/// `splitFirstLine y`: returns the first line of a stream (without its
/// newline) and the remaining suffix *including* all of its newlines.
///
/// For the single-line stream `"b\n"` this yields `("b", "")`.
/// For a non-stream (no trailing newline anywhere) the whole string is the
/// line and the rest is empty.
#[inline]
pub fn split_first_line(y: &[u8]) -> (&[u8], &[u8]) {
    match find(b'\n', y) {
        Some(i) => (&y[..i], &y[i + 1..]),
        None => (y, &[]),
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
pub fn split_last_line(y: &[u8]) -> (Option<&[u8]>, &[u8]) {
    let body = y.strip_suffix(b"\n").unwrap_or(y);
    match rfind(b'\n', body) {
        Some(i) => (Some(&body[..i]), &body[i + 1..]),
        None => (None, body),
    }
}

/// `splitLastNonemptyLine y`: like [`split_last_line`] but skips trailing
/// empty lines when locating the last line. The first output is everything
/// before the returned line (without the separating newline). Returns
/// `None` for the line when every line is empty.
pub fn split_last_nonempty_line(y: &[u8]) -> (Option<&[u8]>, Option<&[u8]>) {
    let mut body = y.strip_suffix(b"\n").unwrap_or(y);
    loop {
        match rfind(b'\n', body) {
            Some(i) if i + 1 == body.len() => body = &body[..i],
            Some(i) => return (Some(&body[..i]), Some(&body[i + 1..])),
            None if body.is_empty() => return (None, None),
            None => return (None, Some(body)),
        }
    }
}

/// `delFront d y`: removes one occurrence of delimiter `d` from the front of
/// `y`; `None` when `y` does not start with `d` (the evaluation is then a
/// domain error in the DSL).
#[inline]
pub fn del_front(d: u8, y: &[u8]) -> Option<&[u8]> {
    y.strip_prefix(&[d])
}

/// `delBack d y`: removes one occurrence of delimiter `d` from the back of
/// `y`; `None` when `y` does not end with `d`.
#[inline]
pub fn del_back(d: u8, y: &[u8]) -> Option<&[u8]> {
    y.strip_suffix(&[d])
}

/// `delPad y`: removes leading pad bytes (spaces, or a run of leading
/// tabs as produced by some tabulating commands) and returns the number of
/// removed bytes together with the remaining substring.
///
/// The paper's Definition B.1 restricts pads to `[' '+ | '\t']`; we accept
/// any mix of leading blanks, which is a superset that behaves identically
/// on the command outputs in the corpus (`uniq -c`, `wc`, `xargs wc`).
#[inline]
pub fn del_pad(y: &[u8]) -> (usize, &[u8]) {
    let pad = y.iter().take_while(|&&b| b == b' ' || b == b'\t').count();
    (pad, &y[pad..])
}

/// `addPad` with the alignment rule implied by the paper's `calcPad`:
/// appends `s` to `out` behind leading spaces so that it occupies at
/// least `width` bytes (right-aligned). When `s` is already wider, no
/// padding is added.
pub fn add_pad(width: usize, s: &[u8], out: &mut Vec<u8>) {
    out.resize(out.len() + width.saturating_sub(s.len()), b' ');
    out.extend_from_slice(s);
}

/// `C(d, y)` from Definition B.10: the number of occurrences of delimiter
/// `d` in `y`.
#[inline]
pub fn count_delim(d: u8, y: &[u8]) -> usize {
    y.iter().filter(|&&b| b == d).count()
}

/// Iterates over the lines of a stream *without* their trailing newlines,
/// preserving empty lines. `"\n"` yields one empty line; `""` yields none;
/// an unterminated final line is yielded as-is.
pub fn lines_of(y: &[u8]) -> impl Iterator<Item = &[u8]> {
    let body = y.strip_suffix(b"\n").unwrap_or(y);
    (!y.is_empty())
        .then(|| body.split(|&b| b == b'\n'))
        .into_iter()
        .flatten()
}

/// Number of lines in a stream: the number of `'\n'` bytes, plus one
/// when the final line is unterminated (non-stream strings).
pub fn line_count(y: &[u8]) -> usize {
    let n = count_delim(b'\n', y);
    if y.is_empty() || y.ends_with(b"\n") {
        n
    } else {
        n + 1
    }
}

/// Parses a GNU-style padded integer field (`delPad` then digits), returning
/// the pad width consumed, the integer value, and the remaining suffix.
/// Returns `None` when the deformatted prefix is not a non-empty digit run.
pub fn parse_padded_int(y: &[u8]) -> Option<(usize, i64, &[u8])> {
    let (pad, rest) = del_pad(y);
    let digits_len = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    if digits_len == 0 {
        return None;
    }
    let digits = std::str::from_utf8(&rest[..digits_len]).ok()?;
    Some((pad, digits.parse().ok()?, &rest[digits_len..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A `&[u8]` literal, so the cases read as text.
    fn b(s: &str) -> &[u8] {
        s.as_bytes()
    }

    #[test]
    fn split_first_basic() {
        assert_eq!(split_first(b',', b("a,b,c")), (b("a"), Some(b("b,c"))));
        assert_eq!(split_first(b',', b("abc")), (b("abc"), None));
        assert_eq!(split_first(b',', b(",x")), (b(""), Some(b("x"))));
        assert_eq!(split_first(b',', b("x,")), (b("x"), Some(b(""))));
    }

    #[test]
    fn split_first_line_cases() {
        assert_eq!(split_first_line(b("a\nb\nc\n")), (b("a"), b("b\nc\n")));
        assert_eq!(split_first_line(b("a\n")), (b("a"), b("")));
        assert_eq!(split_first_line(b("\n")), (b(""), b("")));
        assert_eq!(split_first_line(b("nolf")), (b("nolf"), b("")));
    }

    #[test]
    fn split_last_line_cases() {
        assert_eq!(split_last_line(b("a\nb\nc\n")), (Some(b("a\nb")), b("c")));
        assert_eq!(split_last_line(b("a\n")), (None, b("a")));
        assert_eq!(split_last_line(b("\n")), (None, b("")));
        // Unterminated final line behaves like the line itself.
        assert_eq!(split_last_line(b("a\nb")), (Some(b("a")), b("b")));
    }

    #[test]
    fn split_last_nonempty_line_skips_trailing_blanks() {
        assert_eq!(
            split_last_nonempty_line(b("a\nb\n\n\n")),
            (Some(b("a")), Some(b("b")))
        );
        assert_eq!(split_last_nonempty_line(b("a\n")), (None, Some(b("a"))));
        assert_eq!(split_last_nonempty_line(b("\n\n")), (None, None));
        assert_eq!(split_last_nonempty_line(b("\n")), (None, None));
    }

    #[test]
    fn del_front_back() {
        assert_eq!(del_front(b'\n', b("\nabc")), Some(b("abc")));
        assert_eq!(del_front(b'\n', b("abc")), None);
        assert_eq!(del_back(b'\n', b("abc\n")), Some(b("abc")));
        assert_eq!(del_back(b'\n', b("abc")), None);
    }

    #[test]
    fn del_pad_counts_blanks() {
        assert_eq!(del_pad(b("   4 word")), (3, b("4 word")));
        assert_eq!(del_pad(b("x")), (0, b("x")));
        assert_eq!(del_pad(b("\t9")), (1, b("9")));
        assert_eq!(del_pad(b("    ")), (4, b("")));
    }

    fn padded(width: usize, s: &str) -> Vec<u8> {
        let mut out = Vec::new();
        add_pad(width, b(s), &mut out);
        out
    }

    #[test]
    fn add_pad_right_aligns() {
        assert_eq!(padded(7, "4"), b("      4"));
        assert_eq!(padded(2, "123"), b("123"));
        assert_eq!(padded(0, ""), b(""));
    }

    #[test]
    fn uniq_c_roundtrip_padding() {
        // GNU uniq -c prints "%7d %s"; combining 4 and 9 must stay aligned.
        let (pad, rest) = del_pad(b("      4 word"));
        let (count, tail) = split_first(b' ', rest);
        assert_eq!((pad, count, tail), (6, b("4"), Some(b("word"))));
        let mut new = padded(pad + count.len(), "13");
        new.push(b' ');
        new.extend_from_slice(tail.unwrap());
        assert_eq!(new, b("     13 word"));
    }

    #[test]
    fn count_delim_counts() {
        assert_eq!(count_delim(b'\n', b("a\nb\n")), 2);
        assert_eq!(count_delim(b',', b("a,b,c")), 2);
        assert_eq!(count_delim(b'\t', b("ab")), 0);
    }

    #[test]
    fn lines_of_stream() {
        let ls: Vec<_> = lines_of(b("a\nb\n\nc\n")).collect();
        assert_eq!(ls, [b("a"), b("b"), b(""), b("c")]);
        let ls: Vec<_> = lines_of(b("\n")).collect();
        assert_eq!(ls, [b("")]);
        assert_eq!(lines_of(b("")).count(), 0);
        let ls: Vec<_> = lines_of(b("a\nb")).collect();
        assert_eq!(ls, [b("a"), b("b")]);
        // Any bytes: a line is what lies between two '\n's.
        let ls: Vec<_> = lines_of(&[0xe9, b'\n', 0xff]).collect();
        assert_eq!(ls, [&[0xe9][..], &[0xff][..]]);
    }

    #[test]
    fn line_count_matches_lines_of() {
        for s in ["", "\n", "a\n", "a\nb\n", "a\nb", "\n\n\n"] {
            assert_eq!(line_count(b(s)), lines_of(b(s)).count(), "input {s:?}");
        }
    }

    #[test]
    fn parse_padded_int_cases() {
        assert_eq!(
            parse_padded_int(b("      4 word")),
            Some((6, 4, b(" word")))
        );
        assert_eq!(parse_padded_int(b("12")), Some((0, 12, b(""))));
        assert_eq!(parse_padded_int(b("  x")), None);
        assert_eq!(parse_padded_int(b("")), None);
    }

    proptest! {
        #[test]
        fn prop_split_first_reassembles(s in "[a-z,]{0,40}") {
            let (h, t) = split_first(b',', b(&s));
            match t {
                Some(t) => prop_assert_eq!([h, t].join(&b','), b(&s)),
                None => prop_assert_eq!(h, b(&s)),
            }
        }

        #[test]
        fn prop_split_lines_reassemble(body in "[a-c\n]{0,60}") {
            let y = format!("{body}\n");
            let (pre, last) = split_last_line(b(&y));
            let mut rebuilt = pre.map(|p| [p, b("")].join(&b'\n')).unwrap_or_default();
            rebuilt.extend_from_slice(last);
            rebuilt.push(b'\n');
            prop_assert_eq!(rebuilt, b(&y));
        }

        #[test]
        fn prop_first_line_reassembles(body in "[a-c\n]{0,60}") {
            let y = format!("{body}\n");
            let (first, rest) = split_first_line(b(&y));
            prop_assert_eq!([first, rest].join(&b'\n'), b(&y));
        }

        #[test]
        fn prop_del_pad_add_pad_roundtrip(pad in 0usize..10, s in "[a-z0-9]{1,10}") {
            let padded = padded(pad + s.len(), &s);
            let (got, rest) = del_pad(&padded);
            prop_assert_eq!(got, pad);
            prop_assert_eq!(rest, b(&s));
        }

        #[test]
        fn prop_lines_of_roundtrip(lines in proptest::collection::vec("[a-z]{0,6}", 0..12)) {
            let mut y = String::new();
            for l in &lines {
                y.push_str(l);
                y.push('\n');
            }
            let got: Vec<_> = lines_of(b(&y)).collect();
            let want: Vec<_> = lines.iter().map(|l| b(l)).collect();
            prop_assert_eq!(got, want);
        }
    }
}
