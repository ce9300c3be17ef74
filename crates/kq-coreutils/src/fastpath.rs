//! Shared machinery for byte fast paths.
//!
//! Several commands (`grep` without reformatting flags, `tr -d`,
//! single-range `cut`) emit output that is a *subsequence of their input
//! bytes*: every output byte is an input byte, in input order. Such
//! commands can skip rebuilding a `String` and instead emit sub-slices of
//! the input [`Bytes`], coalescing adjacent keeps into maximal runs so the
//! gather is O(runs), not O(lines). When everything is kept the result is
//! the input handle itself — a refcount bump, zero copies, and zero pages
//! touched beyond the scan when the input is a mapped file.

use crate::{Bytes, Rope};
use std::ops::Range;

/// Accumulates kept byte ranges of one input stream, coalescing
/// contiguous ranges into single slices.
pub(crate) struct SliceRuns<'a> {
    input: &'a Bytes,
    out: Rope,
    run: Option<Range<usize>>,
}

impl<'a> SliceRuns<'a> {
    pub(crate) fn new(input: &'a Bytes) -> SliceRuns<'a> {
        SliceRuns {
            input,
            out: Rope::new(),
            run: None,
        }
    }

    /// Keeps `range` of the input. Ranges must arrive in increasing,
    /// non-overlapping order; a range touching the previous one extends
    /// the current run instead of starting a new slice.
    pub(crate) fn keep(&mut self, range: Range<usize>) {
        if range.is_empty() {
            return;
        }
        match &mut self.run {
            Some(run) if run.end == range.start => run.end = range.end,
            Some(run) => {
                self.out.push(self.input.slice(run.clone()));
                self.run = Some(range);
            }
            None => self.run = Some(range),
        }
    }

    /// Emits literal bytes (e.g. a synthesized `"\n"`) between runs.
    pub(crate) fn lit(&mut self, bytes: Bytes) {
        if let Some(run) = self.run.take() {
            self.out.push(self.input.slice(run));
        }
        self.out.push(bytes);
    }

    /// [`SliceRuns::finish`] for line-oriented output: when the last thing
    /// emitted is the input's final line and that line is unterminated,
    /// it gains the `'\n'` GNU `grep` and `sed` give it — the one case
    /// that leaves pure slicing.
    pub(crate) fn finish_terminated(mut self) -> Bytes {
        let kept_tail = self
            .run
            .as_ref()
            .is_some_and(|run| run.end == self.input.len());
        if kept_tail && !self.input.ends_with_newline() {
            self.lit(Bytes::from("\n"));
        }
        self.finish()
    }

    pub(crate) fn finish(mut self) -> Bytes {
        if let Some(run) = self.run.take() {
            self.out.push(self.input.slice(run));
        }
        self.out.into_bytes()
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
    fn gaps_split_runs_and_literals_interleave() {
        let input = Bytes::from("aa.bb.cc");
        let mut runs = SliceRuns::new(&input);
        runs.keep(0..2);
        runs.keep(3..5);
        runs.lit(Bytes::from("\n"));
        runs.keep(6..8);
        assert_eq!(runs.finish(), "aabb\ncc");
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
    fn empty_ranges_are_ignored() {
        let input = Bytes::from("xyz");
        let mut runs = SliceRuns::new(&input);
        runs.keep(1..1);
        runs.keep(1..2);
        runs.keep(2..2);
        let out = runs.finish();
        assert_eq!(out, "y");
        assert!(out.shares_buffer(&input));
    }
}
