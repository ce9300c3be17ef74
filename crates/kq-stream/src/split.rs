//! Line-boundary splitting of an input stream into `k` substreams.
//!
//! KumQuat's parallel pipelines split the input into contiguous substreams at
//! line boundaries (the model of computation requires `x1` and `x2` to be
//! streams, i.e. newline-terminated), run one command instance per substream,
//! and combine the outputs. This module implements the byte-balanced splitter
//! used by both the executor and the synthesizer's observation harness.

/// Piece boundaries for [`split_stream`]: `(start, end)` byte ranges of at
/// most `k` contiguous, newline-aligned, roughly equal pieces.
///
/// This is the single boundary computation shared by the `&str` splitter
/// and the zero-copy [`Bytes`](crate::Bytes) splitter, so the two can
/// never diverge. Cost is O(bytes scanned) for the boundary search and
/// O(k) allocation.
pub(crate) fn stream_boundaries(bytes: &[u8], k: usize) -> Vec<(usize, usize)> {
    assert!(k > 0, "cannot split into zero substreams");
    if bytes.is_empty() {
        return Vec::new();
    }
    if k == 1 {
        return vec![(0, bytes.len())];
    }
    let mut pieces = Vec::with_capacity(k);
    let mut start = 0usize;
    for piece_idx in 0..k {
        if start >= bytes.len() {
            break;
        }
        let remaining_pieces = k - piece_idx;
        if remaining_pieces == 1 {
            pieces.push((start, bytes.len()));
            break;
        }
        let remaining = bytes.len() - start;
        let target = start + remaining.div_ceil(remaining_pieces);
        // Advance to the next newline at or after `target - 1` so the piece
        // ends on a line boundary.
        let mut end = target.min(bytes.len());
        while end < bytes.len() && bytes[end - 1] != b'\n' {
            end += 1;
        }
        pieces.push((start, end));
        start = end;
    }
    pieces
}

/// Chunk boundaries for [`split_chunks`]: `(start, end)` byte ranges of
/// contiguous newline-aligned chunks of roughly `target_bytes` each.
///
/// Total-by-construction: `target_bytes = 0` is clamped to 1, a target
/// larger than the input yields exactly one chunk, and non-empty input
/// always yields at least one chunk (the loop pushes a range on every
/// iteration and each range is non-empty because `end > start`).
pub(crate) fn chunk_boundaries(bytes: &[u8], target_bytes: usize) -> Vec<(usize, usize)> {
    let target = target_bytes.max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < bytes.len() {
        let end = next_chunk_end(bytes, start, target);
        chunks.push((start, end));
        start = end;
    }
    chunks
}

/// One step of the chunk-boundary rule: the end of the chunk starting at
/// `start` — `target` bytes, extended to the next newline. Shared by
/// [`chunk_boundaries`] (eager) and [`Bytes::chunks`](crate::Bytes::chunks)
/// (lazy), so the two can never disagree; the lazy form only ever touches
/// the pages of the chunk it is producing, which is what keeps mapped
/// multi-GB inputs out-of-core.
pub(crate) fn next_chunk_end(bytes: &[u8], start: usize, target: usize) -> usize {
    let mut end = (start + target.max(1)).min(bytes.len());
    while end < bytes.len() && bytes[end - 1] != b'\n' {
        end += 1;
    }
    end
}

/// Splits a stream into at most `k` contiguous, newline-terminated pieces of
/// roughly equal byte size.
///
/// Invariants (see the unit and property tests):
/// * concatenating the pieces reproduces the input exactly;
/// * every piece is a stream (ends with `'\n'`) provided the input is;
/// * no line is split across pieces;
/// * at most `k` pieces are produced; fewer when the input has fewer lines.
///
/// An empty input produces no pieces. When the input is a non-stream
/// (unterminated final line), the final piece carries the unterminated tail.
///
/// The returned pieces borrow `input`; the parallel executors use the
/// zero-copy owned equivalent [`Bytes::split_stream`](crate::Bytes::split_stream)
/// instead, which shares this function's boundary computation.
pub fn split_stream(input: &str, k: usize) -> Vec<&str> {
    stream_boundaries(input.as_bytes(), k)
        .into_iter()
        .map(|(s, e)| &input[s..e])
        .collect()
}

/// Splits a stream into contiguous, newline-terminated chunks of roughly
/// `target_bytes` bytes each (at least one line per chunk).
///
/// Unlike [`split_stream`], the chunk *count* is data-driven: a 1 MiB
/// stream with `target_bytes = 64 KiB` yields ≈ 16 chunks. Fed to a
/// worker pool, many small chunks give dynamic load balancing where
/// [`split_stream`]'s `k` equal pieces give static assignment.
///
/// Shares [`split_stream`]'s invariants: concatenation reproduces the
/// input, no line is split, every chunk but possibly the last ends with
/// `'\n'`. Edge cases are total: `target_bytes = 0` behaves as 1, a
/// target larger than the input yields one chunk, and non-empty input
/// never yields an empty chunk list.
pub fn split_chunks(input: &str, target_bytes: usize) -> Vec<&str> {
    chunk_boundaries(input.as_bytes(), target_bytes)
        .into_iter()
        .map(|(s, e)| &input[s..e])
        .collect()
}

/// Splits a stream into exactly two substreams at the line boundary closest
/// to the byte `at` (used by the synthesizer to make `⟨x1, x2⟩` pairs from a
/// generated combined stream). Returns `None` when no interior line boundary
/// exists (single-line streams cannot be split).
pub fn split_at_line_boundary(input: &str, at: usize) -> Option<(&str, &str)> {
    if input.len() < 2 {
        return None;
    }
    let bytes = input.as_bytes();
    let at = at.min(input.len() - 1).max(1);
    // Find the nearest '\n' whose *successor* position is a valid interior
    // split point (not 0, not len).
    let mut best: Option<usize> = None;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            let cut = i + 1;
            if cut == input.len() {
                continue;
            }
            match best {
                Some(b0) if b0.abs_diff(at) <= cut.abs_diff(at) => {}
                _ => best = Some(cut),
            }
        }
    }
    best.map(|cut| (&input[..cut], &input[cut..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn split_reassembles() {
        let s = "one\ntwo\nthree\nfour\nfive\n";
        for k in 1..=8 {
            let pieces = split_stream(s, k);
            assert!(pieces.len() <= k);
            assert_eq!(pieces.concat(), s, "k = {k}");
            for p in &pieces {
                assert!(p.ends_with('\n'), "piece {p:?} not a stream");
            }
        }
    }

    #[test]
    fn split_fewer_lines_than_workers() {
        let s = "only\n";
        let pieces = split_stream(s, 4);
        assert_eq!(pieces, vec!["only\n"]);
    }

    #[test]
    fn split_empty_input() {
        assert!(split_stream("", 4).is_empty());
    }

    #[test]
    fn chunks_reassemble_and_hit_target() {
        let s: String = (0..500).map(|i| format!("line number {i}\n")).collect();
        let chunks = split_chunks(&s, 256);
        assert_eq!(chunks.concat(), s);
        assert!(
            chunks.len() > 10,
            "expected many chunks, got {}",
            chunks.len()
        );
        for c in &chunks {
            assert!(c.ends_with('\n'));
            // Each chunk is at most target + one line.
            assert!(c.len() <= 256 + "line number 499\n".len());
        }
    }

    #[test]
    fn chunks_never_split_a_line() {
        let s = "short\nmuch-longer-than-the-target-size-line\nshort\n";
        let chunks = split_chunks(s, 4);
        assert_eq!(chunks.concat(), s);
        for c in &chunks {
            assert!(s.contains(c.trim_end_matches('\n')));
        }
        assert_eq!(chunks[1], "much-longer-than-the-target-size-line\n");
    }

    #[test]
    fn chunks_empty_input() {
        assert!(split_chunks("", 64).is_empty());
    }

    #[test]
    fn chunk_target_larger_than_input_is_one_chunk() {
        let s = "a\nb\n";
        assert_eq!(split_chunks(s, 1 << 20), vec![s]);
    }

    #[test]
    fn chunk_unterminated_tail_is_preserved() {
        let s = "a\nb\nno-newline-tail";
        let chunks = split_chunks(s, 2);
        assert_eq!(chunks.concat(), s);
        assert_eq!(*chunks.last().unwrap(), "no-newline-tail");
    }

    #[test]
    fn split_balances_bytes() {
        let s: String = (0..1000).map(|i| format!("line{i}\n")).collect();
        let pieces = split_stream(&s, 8);
        assert_eq!(pieces.len(), 8);
        let max = pieces.iter().map(|p| p.len()).max().unwrap();
        let min = pieces.iter().map(|p| p.len()).min().unwrap();
        // Balanced within one line length of each other.
        assert!(max - min <= 16, "max {max} min {min}");
    }

    #[test]
    fn split_unterminated_tail_stays_in_last_piece() {
        let s = "a\nb\nc"; // no trailing newline
        let pieces = split_stream(s, 2);
        assert_eq!(pieces.concat(), s);
        assert!(pieces.last().unwrap().ends_with('c'));
    }

    #[test]
    fn boundary_split_picks_interior_cut() {
        let s = "aa\nbb\ncc\n";
        let (x1, x2) = split_at_line_boundary(s, 4).unwrap();
        assert_eq!(format!("{x1}{x2}"), s);
        assert!(x1.ends_with('\n'));
        assert!(!x1.is_empty() && !x2.is_empty());
    }

    #[test]
    fn boundary_split_single_line_is_none() {
        assert_eq!(split_at_line_boundary("abc\n", 1), None);
        assert_eq!(split_at_line_boundary("\n", 0), None);
    }

    #[test]
    fn chunk_target_zero_is_total() {
        // target 0 behaves as 1: one chunk per line, no panic, no empties.
        let s = "a\nbb\nccc\n";
        let chunks = split_chunks(s, 0);
        assert_eq!(chunks, vec!["a\n", "bb\n", "ccc\n"]);
        assert!(split_chunks("", 0).is_empty());
    }

    #[test]
    fn chunk_nonempty_input_never_yields_empty_vec() {
        for target in [0, 1, 2, 7, usize::MAX] {
            for input in ["x", "x\n", "\n", "a\nb", "long-single-line"] {
                let chunks = split_chunks(input, target);
                assert!(!chunks.is_empty(), "target {target} input {input:?}");
                assert!(chunks.iter().all(|c| !c.is_empty()));
                assert_eq!(chunks.concat(), input);
            }
        }
    }

    #[test]
    fn chunk_single_long_line_is_one_chunk() {
        let line = "no-newline-anywhere-in-this-very-long-line";
        assert_eq!(split_chunks(line, 4), vec![line]);
        let line_nl = "one-terminated-line-longer-than-target\n";
        assert_eq!(split_chunks(line_nl, 4), vec![line_nl]);
    }

    #[test]
    fn bytes_and_str_splitters_agree() {
        use crate::Bytes;
        let s: String = (0..200).map(|i| format!("ln {i}\n")).collect();
        let b = Bytes::from(s.as_str());
        for k in [1, 2, 5, 13] {
            let from_str: Vec<&str> = split_stream(&s, k);
            let from_bytes = b.split_stream(k);
            assert_eq!(from_str.len(), from_bytes.len(), "k={k}");
            for (a, c) in from_str.iter().zip(&from_bytes) {
                assert_eq!(*a, c.to_str().unwrap());
                assert!(c.shares_buffer(&b), "piece must be zero-copy");
            }
        }
        for target in [0, 1, 17, 1000, 1 << 20] {
            let from_str: Vec<&str> = split_chunks(&s, target);
            let from_bytes = b.split_chunks(target);
            assert_eq!(from_str.len(), from_bytes.len(), "target={target}");
            for (a, c) in from_str.iter().zip(&from_bytes) {
                assert_eq!(*a, c.to_str().unwrap());
            }
        }
    }

    proptest! {
        #[test]
        fn prop_split_concat_identity(
            lines in proptest::collection::vec("[a-z]{0,8}", 0..50),
            k in 1usize..10,
        ) {
            let s: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let pieces = split_stream(&s, k);
            prop_assert_eq!(pieces.concat(), s.clone());
            prop_assert!(pieces.len() <= k);
            for p in &pieces {
                prop_assert!(p.ends_with('\n'));
            }
        }

        #[test]
        fn prop_chunks_partition_input(
            lines in proptest::collection::vec("[a-z]{0,12}", 0..60),
            target in 1usize..64,
        ) {
            let s: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let chunks = split_chunks(&s, target);
            prop_assert_eq!(chunks.concat(), s.clone());
            for c in &chunks {
                prop_assert!(!c.is_empty());
                prop_assert!(c.ends_with('\n'));
            }
            // Every chunk boundary falls on a line boundary: re-splitting
            // the concatenation by lines yields the original lines.
            let rejoined: Vec<&str> = s.lines().collect();
            let from_chunks: Vec<&str> = chunks.iter().flat_map(|c| c.lines()).collect();
            prop_assert_eq!(rejoined, from_chunks);
        }

        #[test]
        fn prop_boundary_split_is_stream_pair(
            lines in proptest::collection::vec("[a-z]{0,8}", 2..30),
            at in 0usize..400,
        ) {
            let s: String = lines.iter().map(|l| format!("{l}\n")).collect();
            if let Some((x1, x2)) = split_at_line_boundary(&s, at) {
                prop_assert!(x1.ends_with('\n'));
                prop_assert!(x2.ends_with('\n'));
                prop_assert_eq!(format!("{x1}{x2}"), s);
            }
        }
    }
}
