//! Shared machinery for byte fast paths.
//!
//! Several commands (`grep` without reformatting flags, `tr -d`, `cut`,
//! plain `uniq`, `sed s///`) emit output that is mostly — or only — a
//! *subsequence of their input bytes*, in input order, with the odd
//! synthesized literal (a `'\n'`, a rewritten line) in between. They
//! report what they keep as byte ranges of the input to [`SliceRuns`],
//! which applies the **gather rule**:
//!
//! - While the output is a single contiguous run of the input (adjacent
//!   keeps coalesce), it stays a run: the result is a sub-slice of the
//!   input [`Bytes`], and when everything is kept it is the input handle
//!   itself — a refcount bump, zero copies, and zero pages touched beyond
//!   the scan when the input is a mapped file.
//! - From the second piece on (a gap, or a literal), the output is copied
//!   into **one owned buffer** ([`kq_stream::Gather`]), reserved at the
//!   input's length up front (and given back when the output is sparse).
//!
//! Slicing every piece instead would cost two atomic operations on the
//! input's shared refcount per kept line — the one counter every worker's
//! chunks of a stream share — plus a rope segment each, and the rope's
//! flatten copies the bytes anyway.

use crate::Bytes;
use kq_stream::Gather;
use std::ops::Range;

/// Accumulates the kept byte ranges and literals of one command's output
/// over one input stream; see the [module docs](self) for the rule.
pub(crate) struct SliceRuns<'a> {
    input: &'a Bytes,
    /// The output so far while it is one run of the input.
    run: Option<Range<usize>>,
    /// The output so far once it is more than one piece.
    owned: Option<Gather>,
    /// The last piece was a keep reaching the end of the input.
    kept_tail: bool,
}

impl<'a> SliceRuns<'a> {
    pub(crate) fn new(input: &'a Bytes) -> SliceRuns<'a> {
        SliceRuns {
            input,
            run: None,
            owned: None,
            kept_tail: false,
        }
    }

    /// The owned buffer, started (with the run so far copied in) on the
    /// first piece that does not continue the run.
    fn gather(&mut self) -> &mut Gather {
        let (input, run) = (self.input, &mut self.run);
        self.owned.get_or_insert_with(|| {
            let mut out = Gather::with_capacity(input.len());
            if let Some(run) = run.take() {
                out.copy(input, run);
            }
            out
        })
    }

    /// Keeps `range` of the input. Ranges must arrive in increasing,
    /// non-overlapping order; a range touching the previous one extends
    /// the current run.
    #[inline]
    pub(crate) fn keep(&mut self, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        self.kept_tail = range.end == self.input.len();
        if let Some(out) = &mut self.owned {
            out.copy(self.input, range);
            return;
        }
        match &mut self.run {
            Some(run) if run.end == range.start => run.end = range.end,
            Some(_) => {
                let input = self.input;
                self.gather().copy(input, range);
            }
            None => self.run = Some(range),
        }
    }

    /// Emits literal bytes (e.g. a synthesized `"\n"`) after the pieces so
    /// far.
    #[inline]
    pub(crate) fn lit(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.kept_tail = false;
        self.gather().push(bytes);
    }

    /// [`SliceRuns::finish`] for line-oriented output: when the last thing
    /// emitted is the input's final line and that line is unterminated,
    /// it gains the `'\n'` GNU `grep` (and `sed`'s `q`) give it.
    pub(crate) fn finish_terminated(mut self) -> Bytes {
        if self.kept_tail && !self.input.ends_with_newline() {
            self.lit(b"\n");
        }
        self.finish()
    }

    pub(crate) fn finish(self) -> Bytes {
        match (self.owned, self.run) {
            (Some(out), _) => out.into_bytes(),
            (None, Some(run)) => self.input.slice(run),
            (None, None) => Bytes::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_keeps_coalesce_to_the_input_handle() {
        let input = Bytes::from("abcdef");
        let mut runs = SliceRuns::new(&input);
        runs.keep(0..2);
        runs.keep(2..4);
        runs.keep(4..6);
        let out = runs.finish();
        assert_eq!(out, input);
        assert!(out.shares_buffer(&input), "full keep must be zero-copy");
    }

    #[test]
    fn one_run_is_a_slice_and_two_pieces_are_one_owned_buffer() {
        let input = Bytes::from("aa.bb.cc");
        let mut runs = SliceRuns::new(&input);
        runs.keep(3..5);
        let out = runs.finish();
        assert_eq!(out, "bb");
        assert!(out.shares_buffer(&input));

        let mut runs = SliceRuns::new(&input);
        runs.keep(0..2);
        runs.keep(3..5);
        runs.lit(b"\n");
        runs.keep(6..8);
        let out = runs.finish();
        assert_eq!(out, "aabb\ncc");
        assert!(!out.shares_buffer(&input), "a gap gathers into one buffer");
        assert!(out.to_str().is_ok());
    }

    #[test]
    fn only_a_kept_unterminated_final_line_gains_a_newline() {
        let input = Bytes::from("ab\ncd");
        let finish = |kept: &[(usize, usize)]| {
            let mut runs = SliceRuns::new(&input);
            for &(start, end) in kept {
                runs.keep(start..end);
            }
            runs.finish_terminated()
        };
        assert_eq!(finish(&[(0, 3), (3, 5)]), "ab\ncd\n");
        assert_eq!(finish(&[(3, 5)]), "cd\n");
        assert_eq!(finish(&[(0, 3)]), "ab\n");
        assert_eq!(finish(&[]), "");
        let whole = Bytes::from("ab\n");
        let mut runs = SliceRuns::new(&whole);
        runs.keep(0..3);
        assert!(runs.finish_terminated().shares_buffer(&whole));
    }

    #[test]
    fn a_kept_unterminated_final_line_after_a_literal_gains_a_newline() {
        let input = Bytes::from("a\nb");
        let mut runs = SliceRuns::new(&input);
        runs.lit(b"x\n");
        runs.keep(2..3);
        assert_eq!(runs.finish_terminated(), "x\nb\n");
        let mut runs = SliceRuns::new(&input);
        runs.keep(2..3);
        runs.lit(b"!");
        assert_eq!(runs.finish_terminated(), "b!");
    }

    #[test]
    fn empty_ranges_and_literals_are_ignored() {
        let input = Bytes::from("xyz");
        let mut runs = SliceRuns::new(&input);
        runs.keep(1..1);
        runs.keep(1..2);
        runs.lit(b"");
        runs.keep(2..2);
        let out = runs.finish();
        assert_eq!(out, "y");
        assert!(out.shares_buffer(&input));
    }
}
