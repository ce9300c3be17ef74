//! Incremental line-aligned chunking of a stream that arrives in pieces.
//!
//! The batch splitters ([`split_chunks`](crate::split_chunks),
//! [`Bytes::split_chunks`](crate::Bytes::split_chunks)) need the whole
//! stream up front. A chunk-local node of the executor instead receives a stage's
//! output as a sequence of [`Bytes`] segments of drifting sizes (a
//! selective `grep` shrinks its chunks, `uniq -c` collapses them) and
//! wants to forward line-aligned chunks of roughly the configured size as
//! soon as they exist — without waiting for the stream to end.
//!
//! [`IncrementalChunker`] does that: segments are pushed into a growing
//! [`Rope`], and whenever enough bytes have accumulated the pending run is
//! gathered and re-cut at line boundaries. Chunks are yielded as `Bytes`
//! sub-slices of the gathered buffer — zero-copy whenever the pending run
//! was a single segment (the dominant case when upstream chunks are
//! already near the target size); a gather memcpy only happens when small
//! segments genuinely coalesce.
//!
//! ```
//! use kq_stream::{Bytes, IncrementalChunker};
//!
//! let mut chunker = IncrementalChunker::new(8);
//! let mut out = chunker.push(Bytes::from("alpha\n"));
//! out.extend(chunker.push(Bytes::from("beta\ngamma\n")));
//! out.extend(chunker.finish());
//! let rebuilt: String = out.iter().map(|c| c.as_str().to_owned()).collect();
//! assert_eq!(rebuilt, "alpha\nbeta\ngamma\n");
//! assert!(out.iter().all(|c| c.ends_with_newline()));
//! ```

use crate::bytes::{Bytes, Rope};

/// Re-chunks an incrementally arriving stream at line boundaries (see the
/// [module docs](self)).
///
/// Invariants over the emitted chunks (property-tested in
/// `tests/properties.rs`):
///
/// * concatenating every chunk from `push` calls plus [`finish`]
///   reproduces the concatenation of the pushed segments exactly;
/// * every chunk except possibly the final one ends with `'\n'` (the
///   final one is unterminated only when the input is);
/// * a chunk only exceeds `target_bytes` when a single line forces it:
///   the bytes past the target contain no interior newline.
///
/// [`finish`]: IncrementalChunker::finish
#[derive(Debug)]
pub struct IncrementalChunker {
    target: usize,
    pending: Rope,
}

impl IncrementalChunker {
    /// A chunker targeting `target_bytes` per chunk (0 behaves as 1, like
    /// the batch splitter).
    pub fn new(target_bytes: usize) -> IncrementalChunker {
        IncrementalChunker {
            target: target_bytes.max(1),
            pending: Rope::new(),
        }
    }

    /// Bytes buffered but not yet emitted (always less than the target, or
    /// a single unterminated line).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The current chunk-size target in bytes.
    pub fn target(&self) -> usize {
        self.target
    }

    /// Retargets future cuts to `target_bytes` (0 behaves as 1).
    ///
    /// Takes effect from the next `push`/`finish`: already-emitted chunks
    /// are untouched, and the pending tail is simply re-cut at the new
    /// target. Every invariant on the emitted stream is per-cut, so the
    /// exact-reassembly and line-termination guarantees hold across any
    /// sequence of retargets — only chunk *boundaries* move. The dataflow
    /// runtime uses this to coarsen barrier-feeding chunks online.
    pub fn set_target(&mut self, target_bytes: usize) {
        self.target = target_bytes.max(1);
    }

    /// Appends a segment and returns the chunks that became complete.
    ///
    /// A returned chunk is *complete*: line-terminated and at least the
    /// target size (or oversized because one line is). An undersized or
    /// unterminated tail stays pending for the next push.
    pub fn push(&mut self, segment: Bytes) -> Vec<Bytes> {
        if segment.is_empty() {
            return Vec::new();
        }
        self.pending.push(segment);
        if self.pending.len() < self.target {
            return Vec::new();
        }
        self.cut(false)
    }

    /// Flushes the remaining tail as final chunks (empty when nothing is
    /// pending). The last chunk may be undersized, and is unterminated
    /// exactly when the overall input was.
    pub fn finish(mut self) -> Vec<Bytes> {
        self.cut(true)
    }

    /// Flushes every *complete line* currently pending as one undersized
    /// chunk, keeping only an unterminated line tail. `None` when no
    /// complete line is pending.
    ///
    /// This is the low-latency mode for a prefix-bounded downstream
    /// consumer (`head -n 1` behind a sparse `grep`): re-normalizing to
    /// the size target would buffer the first — possibly only — matching
    /// lines until end-of-input, so the demand is never satisfied and the
    /// early-exit cancellation never fires. Callers that know downstream
    /// needs only a line prefix trade chunk-size regularity for immediate
    /// delivery; the emitted stream content is identical either way.
    pub fn flush_pending(&mut self) -> Option<Bytes> {
        if self.pending.is_empty() {
            return None;
        }
        let flat = std::mem::take(&mut self.pending).into_bytes();
        let cut = match flat.as_bytes().iter().rposition(|&b| b == b'\n') {
            Some(pos) => pos + 1,
            None => 0,
        };
        if cut == 0 {
            // A single unterminated line: nothing complete to ship.
            self.pending.push(flat);
            return None;
        }
        let head = flat.slice(0..cut);
        if cut < flat.len() {
            self.pending.push(flat.slice(cut..flat.len()));
        }
        Some(head)
    }

    /// Gathers the pending rope and emits its complete chunks, retaining
    /// the tail unless `flush`. The gather is zero-copy for a
    /// single-segment rope ([`Rope::into_bytes`]).
    fn cut(&mut self, flush: bool) -> Vec<Bytes> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let flat = std::mem::take(&mut self.pending).into_bytes();
        let mut chunks = flat.split_chunks(self.target);
        if !flush {
            if let Some(last) = chunks.last() {
                // An undersized or unterminated tail waits for more data;
                // an oversized newline-terminated chunk (single long line)
                // is complete and ships now.
                if last.len() < self.target || !last.ends_with_newline() {
                    let tail = chunks.pop().expect("non-empty chunk list");
                    self.pending.push(tail);
                }
            }
        }
        if !chunks.is_empty() {
            kq_trace::counter("chunk", "cut", chunks.len() as f64).emit();
        }
        chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(target: usize, segments: &[&str]) -> (Vec<Bytes>, String) {
        let mut chunker = IncrementalChunker::new(target);
        let mut out = Vec::new();
        for s in segments {
            out.extend(chunker.push(Bytes::from(*s)));
        }
        out.extend(chunker.finish());
        let rebuilt = out.iter().map(|c| c.as_str().to_owned()).collect();
        (out, rebuilt)
    }

    #[test]
    fn reassembles_exactly() {
        let segs = ["a\nbb\n", "ccc\n", "", "d\ne\nf\n"];
        let (_, rebuilt) = drain(4, &segs);
        assert_eq!(rebuilt, segs.concat());
    }

    #[test]
    fn chunks_are_line_aligned() {
        let (chunks, _) = drain(4, &["aa\nbb\ncc\n", "dd\n"]);
        assert!(chunks.iter().all(|c| c.ends_with_newline()));
        assert!(chunks.len() > 1);
    }

    #[test]
    fn undersized_tail_waits_for_more_data() {
        let mut chunker = IncrementalChunker::new(16);
        assert!(chunker.push(Bytes::from("ab\n")).is_empty());
        assert_eq!(chunker.pending_len(), 3);
        assert!(chunker.push(Bytes::from("cd\n")).is_empty());
        let rest = chunker.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0], "ab\ncd\n");
    }

    #[test]
    fn single_segment_emits_zero_copy() {
        let big = Bytes::from("x\n".repeat(64));
        let mut chunker = IncrementalChunker::new(16);
        let chunks = chunker.push(big.clone());
        assert!(!chunks.is_empty());
        for c in &chunks {
            assert!(c.shares_buffer(&big), "single-segment cut must not copy");
        }
    }

    #[test]
    fn long_line_ships_once_terminated() {
        let mut chunker = IncrementalChunker::new(4);
        // Unterminated long line stays pending...
        assert!(chunker.push(Bytes::from("very-long-line")).is_empty());
        // ...and ships as one oversized chunk once its newline arrives.
        let chunks = chunker.push(Bytes::from("-continued\n"));
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0], "very-long-line-continued\n");
    }

    #[test]
    fn unterminated_overall_input_keeps_tail() {
        let (chunks, rebuilt) = drain(4, &["aa\nbb\n", "tail-without-newline"]);
        assert_eq!(rebuilt, "aa\nbb\ntail-without-newline");
        assert!(!chunks.last().unwrap().ends_with_newline());
        for c in &chunks[..chunks.len() - 1] {
            assert!(c.ends_with_newline());
        }
    }

    #[test]
    fn flush_pending_ships_complete_lines_early() {
        let mut chunker = IncrementalChunker::new(1 << 20);
        // Far below the target: push alone ships nothing...
        assert!(chunker.push(Bytes::from("match one\nmatch tw")).is_empty());
        // ...but a flush delivers the complete line now, keeping the
        // unterminated tail.
        assert_eq!(chunker.flush_pending().unwrap(), "match one\n");
        assert_eq!(chunker.pending_len(), "match tw".len());
        // Nothing complete pending: no flush.
        assert!(chunker.flush_pending().is_none());
        assert!(chunker.push(Bytes::from("o\n")).is_empty());
        assert_eq!(chunker.flush_pending().unwrap(), "match two\n");
        assert!(chunker.finish().is_empty());
        // Empty chunker flushes nothing.
        assert!(IncrementalChunker::new(8).flush_pending().is_none());
    }

    #[test]
    fn flush_pending_interleaves_with_push_without_losing_bytes() {
        let mut chunker = IncrementalChunker::new(8);
        let mut out: Vec<Bytes> = Vec::new();
        let segs = ["aa\nbb", "\ncc\n", "dd", "ee\nff"];
        for s in segs {
            out.extend(chunker.push(Bytes::from(s)));
            out.extend(chunker.flush_pending());
        }
        out.extend(chunker.finish());
        let rebuilt: String = out.iter().map(|c| c.as_str().to_owned()).collect();
        assert_eq!(rebuilt, segs.concat());
        for c in &out[..out.len() - 1] {
            assert!(c.ends_with_newline());
        }
    }

    #[test]
    fn empty_input_yields_nothing() {
        let (chunks, rebuilt) = drain(8, &[]);
        assert!(chunks.is_empty());
        assert_eq!(rebuilt, "");
        let (chunks, _) = drain(8, &["", ""]);
        assert!(chunks.is_empty());
    }

    #[test]
    fn retarget_changes_boundaries_not_bytes() {
        let mut chunker = IncrementalChunker::new(4);
        let mut out = chunker.push(Bytes::from("aa\nbb\ncc\n"));
        chunker.set_target(64);
        assert_eq!(chunker.target(), 64);
        // Under the coarser target the pending tail and the remaining
        // segments coalesce into one chunk.
        out.extend(chunker.push(Bytes::from("dd\nee\n")));
        out.extend(chunker.push(Bytes::from("ff\n")));
        out.extend(chunker.finish());
        let rebuilt: String = out.iter().map(|c| c.as_str().to_owned()).collect();
        assert_eq!(rebuilt, "aa\nbb\ncc\ndd\nee\nff\n");
        assert!(out.iter().all(|c| c.ends_with_newline()));
        assert_eq!(out.last().unwrap(), "cc\ndd\nee\nff\n");
        // Retarget-to-zero clamps like the constructor.
        chunker = IncrementalChunker::new(4);
        chunker.set_target(0);
        assert_eq!(chunker.target(), 1);
    }

    #[test]
    fn target_zero_behaves_as_one() {
        let (chunks, rebuilt) = drain(0, &["a\nb\n"]);
        assert_eq!(rebuilt, "a\nb\n");
        assert_eq!(chunks.len(), 2);
    }
}
