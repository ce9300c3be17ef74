//! `cut` — select character columns (`-c`) or delimited fields
//! (`-d DELIM -f LIST`, default delimiter TAB).
//!
//! GNU behaviours the synthesis relies on: the selection LIST is a set —
//! output order follows the input (`cut -d, -f3,1` prints field 1 then 3);
//! lines *without* the delimiter are printed whole in field mode; attached
//! option forms (`-d: -f1`) parse like the detached ones.
//!
//! # The kernels
//!
//! Every output byte of `cut` is an input byte, bar the `'\n'` after a
//! clipped line, so both modes report byte ranges of the input to the
//! gather of `fastpath`: an output that is one run of the input
//! (`-c 1-`, `-f 1-`, or lines without the delimiter) is a slice of it,
//! and any other is written into one buffer reserved at the input's
//! length — never a slice per line, whose refcount traffic on the buffer
//! all workers' chunks share grows with the worker count.
//!
//! - **Fields**, for any LIST and an ASCII delimiter: one pass finds
//!   `'\n'` and the delimiter eight bytes at a time (SWAR, `find_either`),
//!   and each line's selected fields become one byte range per run of
//!   adjacent selected fields. Past the LIST's last field only the
//!   newline is looked for.
//! - **Characters**: on an ASCII line a character is a byte, so each
//!   range of the LIST is one byte range of the line (a prefix, for the
//!   corpus's `-c 1-4`); a line with a multi-byte character is cut
//!   character by character.
//!
//! A non-ASCII delimiter (or `'\n'`, which no line contains) runs the
//! line-at-a-time implementation, [`CutCmd::run_reference`], which is
//! also the oracle the differential tests hold both kernels to.
//!
//! Fields at an ASCII delimiter are cut from any bytes, as under
//! `LC_ALL=C`; `-c`, and a non-ASCII delimiter, decode the input first.

use crate::fastpath::SliceRuns;
use crate::{Bytes, CmdError, EffectClass, ExecContext, UnixCommand};

#[derive(Debug, Clone, PartialEq, Eq)]
struct RangeList {
    /// Inclusive 1-based ranges, normalized (sorted, merged).
    ranges: Vec<(usize, usize)>,
}

impl RangeList {
    fn parse(spec: &str) -> Result<RangeList, CmdError> {
        let mut ranges = Vec::new();
        for item in spec.split(',') {
            if item.is_empty() {
                return Err(CmdError::new("cut", "empty list element"));
            }
            let (lo, hi) = match item.split_once('-') {
                None => {
                    let n = parse_pos(item)?;
                    (n, n)
                }
                Some(("", hi)) => (1, parse_pos(hi)?),
                Some((lo, "")) => (parse_pos(lo)?, usize::MAX),
                Some((lo, hi)) => (parse_pos(lo)?, parse_pos(hi)?),
            };
            if lo > hi {
                return Err(CmdError::new("cut", "invalid decreasing range"));
            }
            ranges.push((lo, hi));
        }
        ranges.sort_unstable();
        // Merge overlaps so iteration is a single pass.
        let mut merged: Vec<(usize, usize)> = Vec::with_capacity(ranges.len());
        for (lo, hi) in ranges {
            match merged.last_mut() {
                Some((_, phi)) if lo <= phi.saturating_add(1) => *phi = (*phi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        Ok(RangeList { ranges: merged })
    }

    fn contains(&self, pos: usize) -> bool {
        self.ranges.iter().any(|&(lo, hi)| (lo..=hi).contains(&pos))
    }
}

fn parse_pos(s: &str) -> Result<usize, CmdError> {
    let n: usize = s
        .parse()
        .map_err(|_| CmdError::new("cut", format!("invalid position {s:?}")))?;
    if n == 0 {
        return Err(CmdError::new("cut", "positions are 1-based"));
    }
    Ok(n)
}

enum Mode {
    Chars(RangeList),
    Fields { delim: char, list: RangeList },
}

/// The `cut` command.
pub struct CutCmd {
    mode: Mode,
    display: String,
}

impl CutCmd {
    /// Parses `cut` arguments, accepting attached (`-d:`, `-f1`) and
    /// detached (`-d ':' -f 1`) forms.
    pub fn parse(args: &[String]) -> Result<CutCmd, CmdError> {
        let mut chars_spec: Option<String> = None;
        let mut fields_spec: Option<String> = None;
        let mut delim: Option<char> = None;
        let mut it = args.iter().peekable();
        let take_value = |attached: &str,
                          it: &mut std::iter::Peekable<std::slice::Iter<String>>|
         -> Result<String, CmdError> {
            if attached.is_empty() {
                it.next()
                    .cloned()
                    .ok_or_else(|| CmdError::new("cut", "missing option value"))
            } else {
                Ok(attached.to_owned())
            }
        };
        while let Some(a) = it.next() {
            if let Some(body) = a.strip_prefix("-c") {
                chars_spec = Some(take_value(body, &mut it)?);
            } else if let Some(body) = a.strip_prefix("-f") {
                fields_spec = Some(take_value(body, &mut it)?);
            } else if let Some(body) = a.strip_prefix("-d") {
                let v = take_value(body, &mut it)?;
                let mut cs = v.chars();
                let c = cs
                    .next()
                    .ok_or_else(|| CmdError::new("cut", "empty delimiter"))?;
                if cs.next().is_some() {
                    return Err(CmdError::new("cut", "delimiter must be a single character"));
                }
                delim = Some(c);
            } else {
                return Err(CmdError::new("cut", format!("unexpected operand {a}")));
            }
        }
        let mode = match (chars_spec, fields_spec) {
            (Some(spec), None) => {
                if delim.is_some() {
                    return Err(CmdError::new("cut", "-d only makes sense with -f"));
                }
                Mode::Chars(RangeList::parse(&spec)?)
            }
            (None, Some(spec)) => Mode::Fields {
                delim: delim.unwrap_or('\t'),
                list: RangeList::parse(&spec)?,
            },
            _ => return Err(CmdError::new("cut", "specify exactly one of -c or -f")),
        };
        let mut display = String::from("cut");
        for a in args {
            display.push(' ');
            if a.contains(' ') || a.contains('"') {
                display.push_str(&format!("{a:?}"));
            } else {
                display.push_str(a);
            }
        }
        Ok(CutCmd { mode, display })
    }
}

impl CutCmd {
    /// `-d D -f LIST` for an ASCII delimiter: each line's fields are found
    /// with [`find_either`] and its selected ones kept as byte ranges — a
    /// run of adjacent selected fields is one range, and a field selected
    /// after a gap takes the delimiter before it along (`a,c` of `a,b,c`
    /// is the ranges `a` and `,c`). Past the last selected field only the
    /// line's newline is looked for.
    fn run_fields(input: &Bytes, delim: u8, ranges: &[(usize, usize)]) -> Bytes {
        let bytes = input.as_bytes();
        let last = ranges.last().map_or(0, |&(_, hi)| hi);
        let mut runs = SliceRuns::new(input);
        let mut first = 0;
        while first < bytes.len() {
            let mut line = FieldLine::at(first);
            let line_end = loop {
                // Past the last selected field only the newline matters.
                let wanted = if line.field <= last { delim } else { b'\n' };
                match find_either(bytes, line.start, wanted) {
                    Some(pos) if bytes[pos] == delim => line.close_field(pos, ranges, &mut runs),
                    Some(pos) => break pos,
                    None => break bytes.len(),
                }
            };
            let terminated = line_end < bytes.len();
            if line.field == 1 {
                // No delimiter: GNU prints the line whole.
                runs.keep(first..line_end + usize::from(terminated));
                if !terminated {
                    runs.lit(b"\n");
                }
            } else {
                if line.field <= last {
                    line.close_field(line_end, ranges, &mut runs);
                }
                match line.open {
                    Some((start, end)) if end == line_end && terminated => {
                        runs.keep(start..line_end + 1);
                    }
                    Some((start, end)) => {
                        runs.keep(start..end);
                        runs.lit(b"\n");
                    }
                    None => runs.lit(b"\n"),
                }
            }
            first = line_end + 1;
        }
        runs.finish()
    }

    /// `-c LIST`: on an ASCII line character positions are byte positions,
    /// so each range of the list is one byte range of the line; a line
    /// with a multi-byte character is cut character by character.
    fn run_chars(input: &Bytes, text: &str, list: &RangeList) -> Bytes {
        let bytes = input.as_bytes();
        let mut runs = SliceRuns::new(input);
        let mut selected = String::new();
        let mut start = 0;
        while start < bytes.len() {
            let (line_end, terminated) = match find_either(bytes, start, b'\n') {
                Some(pos) => (pos, true),
                None => (bytes.len(), false),
            };
            let line = &bytes[start..line_end];
            let mut kept_to = start;
            if line.is_ascii() {
                for &(lo, hi) in &list.ranges {
                    if lo > line.len() {
                        break;
                    }
                    kept_to = start + hi.min(line.len());
                    runs.keep(start + lo - 1..kept_to);
                }
            } else {
                selected.clear();
                selected.extend(
                    text[start..line_end]
                        .chars()
                        .enumerate()
                        .filter(|&(i, _)| list.contains(i + 1))
                        .map(|(_, c)| c),
                );
                runs.lit(selected.as_bytes());
            }
            if kept_to == line_end && terminated {
                runs.keep(line_end..line_end + 1);
            } else {
                runs.lit(b"\n");
            }
            start = line_end + 1;
        }
        runs.finish()
    }

    /// The line-at-a-time implementation — the real path for a non-ASCII
    /// or newline delimiter, and the oracle the differential tests hold
    /// both kernels to.
    #[doc(hidden)]
    pub fn run_reference(&self, input: &str) -> String {
        let mut out = String::with_capacity(input.len());
        for line in input.split_terminator('\n') {
            match &self.mode {
                Mode::Chars(list) => {
                    for (i, c) in line.chars().enumerate() {
                        if list.contains(i + 1) {
                            out.push(c);
                        }
                    }
                }
                Mode::Fields { delim, list } => {
                    if !line.contains(*delim) {
                        // GNU: delimiter-free lines pass through whole.
                        out.push_str(line);
                    } else {
                        let mut first = true;
                        for (i, field) in line.split(*delim).enumerate() {
                            if list.contains(i + 1) {
                                if !first {
                                    out.push(*delim);
                                }
                                out.push_str(field);
                                first = false;
                            }
                        }
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

/// One line's progress through [`CutCmd::run_fields`].
struct FieldLine {
    /// The 1-based number of the field being scanned.
    field: usize,
    /// Where that field starts.
    start: usize,
    /// The first range of the list that does not end before `field`.
    next_range: usize,
    /// The selected bytes of the line not yet kept, as a range.
    open: Option<(usize, usize)>,
    /// Some field of the line was selected.
    selected_any: bool,
}

impl FieldLine {
    fn at(first: usize) -> FieldLine {
        FieldLine {
            field: 1,
            start: first,
            next_range: 0,
            open: None,
            selected_any: false,
        }
    }

    /// Ends the current field at `end` (a delimiter, or the line's end)
    /// and moves to the next: a selected field joins the open range (or
    /// opens one, with the delimiter before it if it is not the line's
    /// first selected field); an unselected one hands the open range to
    /// `runs`.
    #[inline]
    fn close_field(&mut self, end: usize, ranges: &[(usize, usize)], runs: &mut SliceRuns) {
        let field = self.field;
        while ranges
            .get(self.next_range)
            .is_some_and(|&(_, hi)| hi < field)
        {
            self.next_range += 1;
        }
        if ranges
            .get(self.next_range)
            .is_some_and(|&(lo, _)| lo <= field)
        {
            match &mut self.open {
                Some((_, open_end)) => *open_end = end,
                None => {
                    let from = self.start - usize::from(self.selected_any);
                    self.open = Some((from, end));
                    self.selected_any = true;
                }
            }
        } else if let Some((from, to)) = self.open.take() {
            runs.keep(from..to);
        }
        self.field += 1;
        self.start = end + 1;
    }
}

const ONES: u64 = 0x0101_0101_0101_0101;
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
const NEWLINES: u64 = ONES * b'\n' as u64;

/// The high bit of every byte of `word` equal to the byte `splat`
/// repeats, and no other bit: exact, since no carry crosses a byte
/// (`(x & 0x7f) + 0x7f` is at most `0xfe`).
#[inline(always)]
fn matches(word: u64, splat: u64) -> u64 {
    let x = word ^ splat;
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The first `'\n'` or `delim` at or after `from`, eight bytes at a time:
/// each word is loaded once and tested for both bytes. With `delim` a
/// newline it finds the next newline alone.
#[inline]
fn find_either(bytes: &[u8], from: usize, delim: u8) -> Option<usize> {
    let delims = ONES * u64::from(delim);
    let mut at = from;
    while let Some(word) = bytes.get(at..at + 8) {
        let word = u64::from_le_bytes(word.try_into().expect("an 8-byte window"));
        let hits = matches(word, NEWLINES) | matches(word, delims);
        if hits != 0 {
            return Some(at + hits.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    bytes[at..]
        .iter()
        .position(|&b| b == b'\n' || b == delim)
        .map(|i| at + i)
}

impl UnixCommand for CutCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    fn effect_class(&self) -> EffectClass {
        EffectClass::Stateless
    }

    fn decodes(&self) -> bool {
        // Fields cut at an ASCII delimiter are byte ranges of any bytes;
        // characters, and a non-ASCII delimiter, need the text.
        !matches!(&self.mode, Mode::Fields { delim, .. } if delim.is_ascii() && *delim != '\n')
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        match &self.mode {
            Mode::Fields { delim, list } if !self.decodes() => {
                return Ok(CutCmd::run_fields(&input, *delim as u8, &list.ranges));
            }
            _ => {}
        }
        let text = crate::decode(&input, "cut")?;
        Ok(match &self.mode {
            Mode::Chars(list) => CutCmd::run_chars(&input, text, list),
            Mode::Fields { .. } => Bytes::from(self.run_reference(text)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_command;

    fn run(cmd: &str, input: &str) -> String {
        parse_command(cmd)
            .unwrap()
            .run_str(input, &ExecContext::default())
            .unwrap()
    }

    #[test]
    fn char_ranges() {
        assert_eq!(run("cut -c 1-4", "abcdefg\nxy\n"), "abcd\nxy\n");
        assert_eq!(run("cut -c 1-1", "abc\n"), "a\n");
        assert_eq!(run("cut -c 3-3", "abc\n"), "c\n");
    }

    #[test]
    fn field_selection_with_delim() {
        assert_eq!(run("cut -d ',' -f 1", "a,b,c\n"), "a\n");
        assert_eq!(run("cut -d ',' -f 2", "a,b,c\n"), "b\n");
        assert_eq!(run("cut -d ',' -f 1,3", "a,b,c\n"), "a,c\n");
    }

    #[test]
    fn field_list_order_is_ignored() {
        // GNU cut outputs fields in input order regardless of LIST order.
        assert_eq!(run("cut -d ',' -f 3,1", "a,b,c\n"), "a,c\n");
    }

    #[test]
    fn lines_without_delimiter_pass_through() {
        assert_eq!(run("cut -d ',' -f 2", "plain\na,b\n"), "plain\nb\n");
    }

    #[test]
    fn attached_option_forms() {
        assert_eq!(run("cut -d: -f1", "root:x:0\n"), "root\n");
    }

    #[test]
    fn default_field_delimiter_is_tab() {
        assert_eq!(run("cut -f 2", "a\tb\tc\n"), "b\n");
        assert_eq!(run("cut -f 1", "a\tb\n"), "a\n");
    }

    #[test]
    fn space_delimiter() {
        assert_eq!(run("cut -d ' ' -f 2", "john smith\n"), "smith\n");
        assert_eq!(run("cut -d ' ' -f 4", "a b c d e\n"), "d\n");
    }

    #[test]
    fn out_of_range_fields_are_empty() {
        assert_eq!(run("cut -d ',' -f 5", "a,b\n"), "\n");
        assert_eq!(run("cut -c 10", "abc\n"), "\n");
    }

    #[test]
    fn open_ended_ranges() {
        assert_eq!(run("cut -c 2-", "abcd\n"), "bcd\n");
        assert_eq!(run("cut -c -2", "abcd\n"), "ab\n");
    }

    #[test]
    fn parse_errors() {
        assert!(parse_command("cut").is_err());
        assert!(parse_command("cut -c 0").is_err());
        assert!(parse_command("cut -d ',' -c 1").is_err());
        assert!(parse_command("cut -d ab -f 1").is_err());
        assert!(parse_command("cut -c 4-2").is_err());
    }

    fn cut(line: &str) -> CutCmd {
        let words = crate::split_words(line).unwrap();
        CutCmd::parse(&words[1..]).unwrap()
    }

    #[test]
    fn select_everything_is_a_refcount_bump() {
        // `-c 1-` and `-f 1-` keep every byte of every line.
        let input = Bytes::from("abc\nd,ef\n");
        for cmd in ["cut -c 1-", "cut -d, -f1-"] {
            let out = cut(cmd)
                .run(input.clone(), &ExecContext::default())
                .unwrap();
            assert_eq!(out, input);
            assert!(
                out.shares_buffer(&input),
                "{cmd}: a full selection must be the input slice, not a copy"
            );
        }
    }

    #[test]
    fn trailing_field_selection_keeps_newlines() {
        let input = Bytes::from("k1,v1\nk2,v2\n");
        let out = cut("cut -d, -f2-")
            .run(input.clone(), &ExecContext::default())
            .unwrap();
        assert_eq!(out, "v1\nv2\n");
    }

    #[test]
    fn kernels_agree_with_reference_on_edge_cases() {
        let cases = [
            "",
            "\n",
            "a\n",
            "a,b,c\n",
            "plain\na,b\n",
            "a,b",
            "a,",
            ",\n,,\n",
            "x,\n,y\n",
            "caf\u{e9},th\u{e9}\n",
            "\u{3b1}\u{3b2}\u{3b3}\n",
            "one two three\nfour\n",
            "a,b,c,d,e,f,g,h,i,j,k\n,,,,,,,,,,,,\nabcdefghijklmnop,q\n",
        ];
        for cmd_line in [
            "cut -d ',' -f 1",
            "cut -d ',' -f 2",
            "cut -d ',' -f 2-",
            "cut -d ',' -f -2",
            "cut -d ',' -f 5",
            "cut -d ',' -f 1,3",
            "cut -d ',' -f 3,1",
            "cut -d ',' -f 2,4-5,9-",
            "cut -d ' ' -f 1,2",
            "cut -c 1-2",
            "cut -c 2-",
            "cut -c 3",
            "cut -c 10",
            "cut -c 1,3-4,9-",
        ] {
            let c = cut(cmd_line);
            for input in cases {
                let fast = c.run(Bytes::from(input), &ExecContext::default()).unwrap();
                assert_eq!(
                    fast.to_str().unwrap(),
                    c.run_reference(input),
                    "{cmd_line:?} diverged on {input:?}"
                );
            }
        }
    }

    #[test]
    fn a_newline_delimiter_passes_lines_through_whole() {
        let args = ["-d", "\n", "-f", "2"].map(str::to_owned);
        let c = CutCmd::parse(&args).unwrap();
        let out = c
            .run(Bytes::from("a\nb,c"), &ExecContext::default())
            .unwrap();
        assert_eq!(out, "a\nb,c\n");
    }

    #[test]
    fn searches_find_every_newline_and_delimiter_across_word_edges() {
        for len in 0..20 {
            let bytes: Vec<u8> = (0..len)
                .map(|i| match i % 5 {
                    1 => b'\n',
                    3 => b',',
                    4 => 0x80 | b',',
                    _ => b'a' + i as u8,
                })
                .collect();
            for from in 0..=len {
                let either = bytes[from..].iter().position(|&b| b == b'\n' || b == b',');
                let newline = bytes[from..].iter().position(|&b| b == b'\n');
                assert_eq!(find_either(&bytes, from, b','), either.map(|i| from + i));
                assert_eq!(find_either(&bytes, from, b'\n'), newline.map(|i| from + i));
            }
        }
    }
}
