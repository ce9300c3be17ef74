//! `uniq` — collapse consecutive duplicate lines; `-c` prefixes each output
//! line with its repeat count, right-aligned in a 7-column field exactly as
//! GNU coreutils does (`"%7lu %s"`). The padding matters: KumQuat's
//! `stitch2` combiner deformats it with `delPad`/`addPad`, and the
//! synthesized combiner must reproduce it byte-for-byte.
//!
//! Both forms work on line slices of the input bytes. Plain `uniq` emits a
//! *subsequence of its input bytes* — the first line of every run of equal
//! lines, newline included — so it takes the
//! `SliceRuns` byte fast path (`fastpath`): kept lines are copied
//! into one buffer, and an all-unique input comes back as the input
//! handle itself (a refcount bump, zero copies). `-c` rewrites
//! every line: a run-length count over the slices into one pre-sized
//! buffer.
//!
//! # The count column
//!
//! `push_counted` is the one place that writes the count column and
//! `split_counted` the one place that reads it back; the counting kernel
//! and the count-adding merge of [`crate::sort`] share them, so a counted
//! line is the same bytes whoever wrote it.

use crate::fastpath::SliceRuns;
use crate::{Bytes, CmdError, EffectClass, ExecContext, UnixCommand};

/// The `uniq` command.
pub struct UniqCmd {
    count: bool,
}

impl UniqCmd {
    /// Parses `uniq` arguments (`-c` is the only corpus flag).
    pub fn parse(args: &[String]) -> Result<UniqCmd, CmdError> {
        let mut count = false;
        for a in args {
            match a.as_str() {
                "-c" | "--count" => count = true,
                other => return Err(CmdError::new("uniq", format!("unknown option {other}"))),
            }
        }
        Ok(UniqCmd { count })
    }

    /// The byte fast path for plain `uniq`: scans lines bytewise and
    /// keeps the first line of each run of equal lines — through its
    /// newline, so consecutive kept lines coalesce into one slice. An
    /// unterminated final line gets a synthesized `"\n"`, matching the
    /// reference path.
    fn run_uniq_slices(input: &Bytes) -> Bytes {
        let bytes = input.as_bytes();
        let len = bytes.len();
        let mut runs = SliceRuns::new(input);
        let mut prev: Option<&[u8]> = None;
        let mut pos = 0usize;
        while pos < len {
            let (line_end, next) = match bytes[pos..].iter().position(|&b| b == b'\n') {
                Some(i) => (pos + i, pos + i + 1),
                None => (len, len),
            };
            let line = &bytes[pos..line_end];
            if prev != Some(line) {
                if next > line_end {
                    runs.keep(pos..next);
                } else {
                    runs.keep(pos..line_end);
                    runs.lit(b"\n");
                }
            }
            prev = Some(line);
            pos = next;
        }
        runs.finish()
    }

    /// `uniq -c` on the byte plane: a run-length count over line slices.
    /// The buffer is sized for the worst case (no two adjacent lines equal:
    /// every line gains a count column), so it never grows.
    fn run_counted(bytes: &[u8]) -> Vec<u8> {
        let lines = bytes.iter().filter(|&&b| b == b'\n').count() + 1;
        let mut out = Vec::with_capacity(bytes.len() + (COUNT_WIDTH + 1) * lines + 1);
        let mut current: Option<(&[u8], u64)> = None;
        let body = bytes.strip_suffix(b"\n").unwrap_or(bytes);
        if !bytes.is_empty() {
            for line in body.split(|&b| b == b'\n') {
                match &mut current {
                    Some((prev, n)) if *prev == line => *n += 1,
                    _ => {
                        if let Some((prev, n)) = current {
                            push_counted(&mut out, n, prev);
                        }
                        current = Some((line, 1));
                    }
                }
            }
        }
        if let Some((prev, n)) = current {
            push_counted(&mut out, n, prev);
        }
        out
    }

    /// The line-at-a-time `&str` implementation both byte paths replaced,
    /// kept verbatim as the oracle they are tested against.
    #[cfg(test)]
    fn run_reference(&self, input: &str) -> String {
        let mut out = String::with_capacity(input.len());
        let mut current: Option<(&str, u64)> = None;
        let emit = |line: &str, n: u64, out: &mut String| {
            if self.count {
                out.push_str(&format!("{n:>7} {line}\n"));
            } else {
                out.push_str(line);
                out.push('\n');
            }
        };
        for line in input.split_terminator('\n') {
            match current {
                Some((prev, n)) if prev == line => current = Some((prev, n + 1)),
                Some((prev, n)) => {
                    emit(prev, n, &mut out);
                    current = Some((line, 1));
                }
                None => current = Some((line, 1)),
            }
        }
        if let Some((prev, n)) = current {
            emit(prev, n, &mut out);
        }
        out
    }
}

/// Columns the count of a `uniq -c` line is right-aligned in.
const COUNT_WIDTH: usize = 7;

/// Appends one `uniq -c` output line — GNU's `"%7lu %s\n"`: the count
/// right-aligned in seven columns (a count of 10^7 or more widens the
/// column), exactly one blank, the line, a newline.
pub(crate) fn push_counted(out: &mut Vec<u8>, count: u64, line: &[u8]) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = count;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let width = digits.len() - at;
    out.resize(out.len() + COUNT_WIDTH.saturating_sub(width), b' ');
    out.extend_from_slice(&digits[at..]);
    out.push(b' ');
    out.extend_from_slice(line);
    out.push(b'\n');
}

/// Reads a `uniq -c` output line (newline excluded) back into its count
/// and the line counted: optional blanks, digits, exactly one blank, and
/// everything after it — further blanks and digits included, so a counted
/// `"  12 x"` comes back whole. Total: a line with no count column reads
/// as count 0, and a count past `u64` saturates.
pub(crate) fn split_counted(line: &[u8]) -> (u64, &[u8]) {
    let mut at = line.iter().take_while(|&&b| b == b' ').count();
    let mut count = 0u64;
    while let Some(digit) = line.get(at).filter(|b| b.is_ascii_digit()) {
        count = count
            .saturating_mul(10)
            .saturating_add(u64::from(digit - b'0'));
        at += 1;
    }
    if line.get(at) == Some(&b' ') {
        at += 1;
    }
    (count, &line[at..])
}

impl UnixCommand for UniqCmd {
    fn display(&self) -> String {
        if self.count {
            "uniq -c".to_owned()
        } else {
            "uniq".to_owned()
        }
    }

    fn effect_class(&self) -> EffectClass {
        // Plain `uniq` re-runs over the piece boundary; `uniq -c`
        // stitches boundary counts.
        EffectClass::PureParallelizable
    }

    fn collapses_runs(&self) -> Option<bool> {
        Some(self.count)
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        Ok(if self.count {
            Bytes::from(UniqCmd::run_counted(input.as_bytes()))
        } else {
            UniqCmd::run_uniq_slices(&input)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_command;
    use proptest::prelude::*;

    fn run(cmd: &str, input: &str) -> String {
        parse_command(cmd)
            .unwrap()
            .run_str(input, &ExecContext::default())
            .unwrap()
    }

    #[test]
    fn collapses_adjacent_duplicates_only() {
        assert_eq!(run("uniq", "a\na\nb\na\n"), "a\nb\na\n");
    }

    #[test]
    fn count_padding_is_gnu_seven_wide() {
        assert_eq!(run("uniq -c", "w\nw\nw\nz\n"), "      3 w\n      1 z\n");
    }

    #[test]
    fn count_wider_than_field() {
        let input = "x\n".repeat(12345678);
        let out = run("uniq -c", &input);
        assert_eq!(out, "12345678 x\n");
    }

    #[test]
    fn empty_lines_count_too() {
        assert_eq!(run("uniq -c", "\n\na\n"), "      2 \n      1 a\n");
    }

    #[test]
    fn empty_input_empty_output() {
        assert_eq!(run("uniq", ""), "");
        assert_eq!(run("uniq -c", ""), "");
    }

    #[test]
    fn all_unique_input_is_a_refcount_bump() {
        let input = Bytes::from("a\nb\nc\n");
        let u = UniqCmd::parse(&[]).unwrap();
        let out = u.run(input.clone(), &ExecContext::default()).unwrap();
        assert_eq!(out, input);
        assert!(
            out.shares_buffer(&input),
            "all-unique uniq must be the input slice, not a copy"
        );
    }

    #[test]
    fn byte_paths_agree_with_reference_on_edge_cases() {
        let cases = [
            "",
            "\n",
            "\n\n",
            "a",
            "a\na",
            "a\na\n",
            "a\n\na\n",
            "\n\na\n",
            "x\nx\ny\nx\n",
            "é\né\nü\n",
            "last line unterminated\nlast line unterminated",
            "  12 x\n  12 x\n12 x\n",
            "a\0\na\0\na\n",
        ];
        for flags in [vec![], vec!["-c".to_owned()]] {
            let u = UniqCmd::parse(&flags).unwrap();
            for input in cases {
                let fast = u.run(Bytes::from(input), &ExecContext::default()).unwrap();
                assert_eq!(
                    fast.to_str().unwrap(),
                    u.run_reference(input),
                    "uniq {flags:?} diverged on {input:?}"
                );
            }
        }
    }

    #[test]
    fn the_count_column_round_trips_and_widens() {
        for (count, line, expect) in [
            (1, "w", "      1 w\n"),
            (9_999_999, "", "9999999 \n"),
            (10_000_000, "  12 x", "10000000   12 x\n"),
            (u64::MAX, "é", "18446744073709551615 é\n"),
        ] {
            let mut out = Vec::new();
            push_counted(&mut out, count, line.as_bytes());
            assert_eq!(out, expect.as_bytes());
            assert_eq!(
                split_counted(&out[..out.len() - 1]),
                (count, line.as_bytes())
            );
        }
        // Total on lines that carry no count column.
        assert_eq!(split_counted(b""), (0, &b""[..]));
        assert_eq!(split_counted(b"x 1"), (0, &b"x 1"[..]));
        assert_eq!(split_counted(b"   7"), (7, &b""[..]));
        assert_eq!(
            split_counted(b"99999999999999999999999 x"),
            (u64::MAX, &b"x"[..])
        );
    }

    #[test]
    fn uniq_takes_any_bytes() {
        for (flags, want) in [
            (vec![], &b"a\n\xff\n"[..]),
            (vec!["-c".to_owned()], b"      1 a\n      2 \xff\n"),
        ] {
            let out = UniqCmd::parse(&flags)
                .unwrap()
                .run(
                    Bytes::from(vec![b'a', b'\n', 0xff, b'\n', 0xff]),
                    &ExecContext::default(),
                )
                .unwrap();
            assert_eq!(out.as_bytes(), want);
        }
    }

    #[test]
    fn rejects_unknown_flags() {
        assert!(parse_command("uniq -d").is_err());
    }

    proptest! {
        #[test]
        fn prop_counts_sum_to_line_count(
            lines in proptest::collection::vec("[ab]{0,2}", 0..50)
        ) {
            let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let out = run("uniq -c", &input);
            let total: i64 = kq_stream::lines_of(out.as_bytes())
                .map(|l| kq_stream::parse_padded_int(l).unwrap().1)
                .sum();
            prop_assert_eq!(total as usize, lines.len());
        }

        #[test]
        fn prop_uniq_idempotent(
            lines in proptest::collection::vec("[ab]{0,2}", 0..50)
        ) {
            let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let once = run("uniq", &input);
            let twice = run("uniq", &once);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn prop_byte_paths_match_reference(
            lines in proptest::collection::vec("[ab ]{0,2}", 0..50),
            terminated in 0usize..2,
        ) {
            let mut input: String = lines.iter().map(|l| format!("{l}\n")).collect();
            if terminated == 0 {
                input.pop();
            }
            for flags in [vec![], vec!["-c".to_owned()]] {
                let u = UniqCmd::parse(&flags).unwrap();
                let fast = u.run(Bytes::from(input.as_str()), &ExecContext::default()).unwrap();
                prop_assert_eq!(fast.to_str().unwrap(), u.run_reference(&input));
            }
        }
    }
}
