//! Shared-ownership byte slices: the zero-copy data plane.
//!
//! KumQuat's parallel executors split a stream into line-aligned pieces,
//! hand each piece to a command instance, and pass eliminated-combiner
//! outputs straight to the next stage. With owned `String`s every one of
//! those hand-offs is a memcpy of the piece — O(bytes) per stage. [`Bytes`]
//! makes the hand-off a refcount bump instead: it is an `Arc`-shared
//! buffer plus a range, so [`Bytes::slice`] and [`Bytes::clone`] are O(1)
//! and splitting an N-byte stream into k pieces allocates O(k), not O(N).
//!
//! [`Rope`] is the companion for the *gather* direction: stage outputs and
//! multi-file inputs accumulate as a segment list and flatten at most once,
//! when a contiguous view is actually demanded (and not at all when the
//! rope holds a single segment). [`Gather`] is the other gather: one
//! owned buffer that pieces of a view are copied into as they are found,
//! for outputs made of many small pieces of their input.
//!
//! # Backing stores
//!
//! A `Bytes` views one of two backings, chosen at construction and
//! invisible to every consumer:
//!
//! * **Heap** — an owned `Vec<u8>` (command outputs, test fixtures, small
//!   files). `From<String>`/`From<Vec<u8>>` move the buffer in, O(1).
//! * **Mmap** — a memory-mapped file region ([`MmapRegion`], unix only),
//!   created by the `kq-io` crate so multi-GB corpus files enter the data
//!   plane as O(1) maps instead of O(file) heap reads. The pages are
//!   demand-paged and evictable; the region is unmapped exactly once, when
//!   the last `Bytes` referencing it drops (the `Arc` refcount *is* the
//!   unmap lifecycle).
//!
//! Slicing, splitting, hashing, comparison, and `compact()` behave
//! identically across backings — the line-aligned splitters cut mapped
//! memory verbatim.
//!
//! **Sharp edge (SIGBUS):** a mapped region snapshots the file's length at
//! open time. If another process truncates the file while the map is live,
//! touching pages past the new end raises `SIGBUS` — this is inherent to
//! `mmap` and documented rather than defended against; the corpus inputs
//! are not mutated during a run. Heap backings are immune (the read
//! completed before the `Bytes` existed).
//!
//! ```
//! use kq_stream::Bytes;
//!
//! let stream = Bytes::from("alpha\nbeta\ngamma\n");
//! let pieces = stream.split_stream(2);
//! // Zero-copy: both pieces view the same allocation.
//! assert_eq!(pieces.len(), 2);
//! assert_eq!(pieces[0], "alpha\nbeta\n");
//! assert!(pieces.iter().all(|p| p.shares_buffer(&stream)));
//! ```

use std::fmt;
use std::sync::Arc;

/// A read-only memory-mapped file region: the out-of-core backing for
/// [`Bytes`] (unix only; created by the `kq-io` crate).
///
/// Owns the mapping: dropping the region calls `munmap` exactly once.
/// Inside a `Bytes` the region sits behind an `Arc`, so the unmap happens
/// when the *last* clone or sub-slice referencing the map drops — O(1)
/// clones and slices of mapped files are as safe as heap ones.
///
/// See the [module docs](self) for the truncation/`SIGBUS` caveat.
#[cfg(unix)]
pub struct MmapRegion {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the region is an immutable, privately mapped byte range; no
// interior mutability, and `munmap` in Drop runs on whichever thread drops
// the last reference — both are thread-safe kernel operations.
#[cfg(unix)]
unsafe impl Send for MmapRegion {}
#[cfg(unix)]
unsafe impl Sync for MmapRegion {}

#[cfg(unix)]
impl MmapRegion {
    /// Takes ownership of a live mapping.
    ///
    /// # Safety
    /// `ptr` must be the non-`MAP_FAILED` result of an `mmap` call of
    /// exactly `len > 0` bytes, readable for the mapping's whole lifetime,
    /// and not unmapped by anyone else: this region's `Drop` performs the
    /// one `munmap`.
    pub unsafe fn from_raw(ptr: *mut u8, len: usize) -> MmapRegion {
        debug_assert!(!ptr.is_null() && len > 0);
        MmapRegion { ptr, len }
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `from_raw`'s contract — `ptr` is a live readable mapping
        // of `len` bytes until this region drops.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(unix)]
impl Drop for MmapRegion {
    fn drop(&mut self) {
        // SAFETY: we own the mapping (from_raw's contract); this is the
        // single munmap of the region.
        unsafe {
            libc::munmap(self.ptr as *mut libc::c_void, self.len);
        }
    }
}

#[cfg(unix)]
impl fmt::Debug for MmapRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MmapRegion({} bytes)", self.len)
    }
}

/// The storage behind a [`Bytes`]: an owned heap buffer or a mapped file
/// region. Everything above the backing works on `as_slice()` and cannot
/// tell the two apart.
enum Backing {
    Heap(Vec<u8>),
    #[cfg(unix)]
    Mmap(MmapRegion),
}

impl Backing {
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            Backing::Heap(v) => v,
            #[cfg(unix)]
            Backing::Mmap(m) => m.as_slice(),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.as_slice().len()
    }
}

/// A cheaply clonable, cheaply sliceable view into shared immutable bytes.
///
/// The bytes are any bytes: a stream is a byte string, as under
/// `LC_ALL=C`. [`Bytes::to_str`] is the checked door for the few kernels
/// that read characters.
///
/// The backing store is a refcounted [`Backing`]: either an owned
/// `Vec<u8>` — so `From<String>`/`From<Vec<u8>>` *move* the buffer
/// instead of copying it, and commands wrapping their `String` output
/// stay O(1) — or a memory-mapped file region ([`MmapRegion`]) so
/// out-of-core inputs enter the data plane without a heap read. See the
/// [module docs](self) for the backing-store rules.
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<Backing>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty slice (no allocation is shared; cloning is still O(1)).
    pub fn new() -> Bytes {
        Bytes::from_heap(Vec::new())
    }

    fn from_heap(vec: Vec<u8>) -> Bytes {
        let end = vec.len();
        Bytes {
            buf: Arc::new(Backing::Heap(vec)),
            start: 0,
            end,
        }
    }

    /// Wraps a mapped file region as a whole-buffer view — the `kq-io`
    /// ingest door. O(1): no page is touched here.
    #[cfg(unix)]
    pub fn from_mmap_region(region: MmapRegion) -> Bytes {
        let end = region.as_slice().len();
        Bytes {
            buf: Arc::new(Backing::Mmap(region)),
            start: 0,
            end,
        }
    }

    /// True when this view is backed by a memory-mapped file region (the
    /// zero-copy ingest tests use this to prove no heap read happened).
    pub fn is_mmap_backed(&self) -> bool {
        #[cfg(unix)]
        {
            matches!(*self.buf, Backing::Mmap(_))
        }
        #[cfg(not(unix))]
        {
            false
        }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The bytes of this view.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf.as_slice()[self.start..self.end]
    }

    /// The bytes as text, when they are valid UTF-8: one validating
    /// scan. Only the kernels that read characters ask (see the crate
    /// docs); everything else works on [`Bytes::as_bytes`].
    #[inline]
    pub fn to_str(&self) -> Result<&str, std::str::Utf8Error> {
        std::str::from_utf8(self.as_bytes())
    }

    /// O(1) sub-slice sharing the same allocation.
    ///
    /// # Panics
    /// Panics when the range is out of bounds or inverted.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds for {} bytes",
            self.len()
        );
        Bytes {
            buf: self.buf.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// True when `other` views the same underlying allocation — the
    /// zero-copy tests use this to prove splitting did not copy.
    pub fn shares_buffer(&self, other: &Bytes) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Releases an oversized backing buffer: when this view covers less
    /// than a quarter of a non-trivial allocation, the bytes are copied
    /// into a right-sized buffer; otherwise the slice is returned as-is.
    ///
    /// Slice-returning commands (`head -n 1` of a 64 MiB stream) would
    /// otherwise pin the whole input allocation for as long as their
    /// output lives. Long-lived stores (the virtual filesystem) call this
    /// at the storage boundary; transient pipeline hand-offs do not.
    ///
    /// The same rule applies to both backings: a small slice of a large
    /// mapped file copies into a right-sized heap buffer (releasing the
    /// map when the last reference drops), so a few-line result never
    /// keeps a multi-GB file mapped — and never assumes the backing is a
    /// `Vec` it could shrink in place.
    pub fn compact(self) -> Bytes {
        const COMPACT_MIN_BACKING: usize = 4096;
        if self.buf.len() < COMPACT_MIN_BACKING || self.len() * 4 >= self.buf.len() {
            self
        } else {
            Bytes::from_heap(self.as_bytes().to_vec())
        }
    }

    /// Number of `'\n'` bytes in the view (shared by the line-window and
    /// line-count commands; counting on raw bytes needs no UTF-8 view).
    pub fn count_newlines(&self) -> usize {
        self.as_bytes().iter().filter(|&&b| b == b'\n').count()
    }

    /// True when the final byte is `'\n'` (the stream predicate of
    /// Definition 3.1 on the byte plane).
    #[inline]
    pub fn ends_with_newline(&self) -> bool {
        self.as_bytes().last() == Some(&b'\n')
    }

    /// Splits into at most `k` contiguous newline-aligned pieces of
    /// roughly equal size — the zero-copy analogue of
    /// [`split_stream`](crate::split_stream). Each piece is an O(1) slice
    /// of this buffer; total allocation is the O(k) vector.
    pub fn split_stream(&self, k: usize) -> Vec<Bytes> {
        crate::split::stream_boundaries(self.as_bytes(), k)
            .into_iter()
            .map(|(s, e)| self.slice(s..e))
            .collect()
    }

    /// Splits into contiguous newline-aligned chunks of roughly
    /// `target_bytes` each — the zero-copy analogue of
    /// [`split_chunks`](crate::split_chunks).
    pub fn split_chunks(&self, target_bytes: usize) -> Vec<Bytes> {
        crate::split::chunk_boundaries(self.as_bytes(), target_bytes)
            .into_iter()
            .map(|(s, e)| self.slice(s..e))
            .collect()
    }

    /// Lazy [`Bytes::split_chunks`]: yields the same chunks in the same
    /// order, but computes each boundary on demand, touching only the
    /// pages of the chunk being produced, so a mapped multi-GB input is paged in chunk by chunk, just ahead
    /// of consumption, instead of being fully scanned (and made fully
    /// resident) before the first chunk is sent.
    pub fn chunks(&self, target_bytes: usize) -> ChunkIter<'_> {
        ChunkIter {
            source: self,
            pos: 0,
            target: target_bytes.max(1),
        }
    }

    /// Hints that `range` (relative to this view) will not be needed
    /// again: for a mapped backing, drops the resident pages wholly inside
    /// the range (`madvise(MADV_DONTNEED)`); a heap backing is untouched.
    ///
    /// Purely a memory-pressure hint — correctness is unaffected either
    /// way, because a read-only file-backed private map refaults dropped
    /// pages from the file on the next touch (at re-read cost; callers
    /// should only release data they have structurally finished with).
    /// A chunk producer trails one of these behind its cursor so
    /// a sequential pass over a mapped file keeps O(window) pages
    /// resident, not O(file).
    pub fn release_range(&self, range: std::ops::Range<usize>) {
        self.release(range, false);
    }

    /// [`release_range`](Bytes::release_range), and with `through` every
    /// page the range's reads can have mapped: the folios it lies in and
    /// one on either side — for a caller done with every byte of this
    /// view, whose neighbours in the mapping refault those pages if they
    /// still need them. Without it a view shorter than a grain — a part's
    /// slice of a run — would never release anything.
    fn release(&self, range: std::ops::Range<usize>, through: bool) {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "release {range:?} out of bounds for {} bytes",
            self.len()
        );
        #[cfg(unix)]
        if let Backing::Mmap(region) = &*self.buf {
            // Align to a generous 64 KiB grain: a multiple of every real
            // page size, so the madvise range is always page-aligned. Both
            // endpoints round *down*, so back-to-back windows from a
            // trailing cursor tile exactly: the grain block straddling a
            // shared boundary is dropped by the later window (whose head
            // bytes the caller already finished). Rounding the start up
            // instead would leave that block un-released at *every* window
            // boundary — a cursor advancing in ~grain-sized steps would
            // then leak most of the mapping. The end still rounds down
            // unless the caller is through: a partially covered final
            // block may hold bytes the caller still needs.
            const GRAIN: usize = 1 << 16;
            let (abs_start, abs_end) = match through {
                // A fault maps the page-cache folio it lands in, and the
                // fault-around window can reach into the folio beside it:
                // drop whole folios of a spilled run's size, one past
                // either end (`kq_io` writes runs 256 KiB at a time).
                true => {
                    const FOLIO: usize = 1 << 18;
                    let start = (self.start + range.start) / FOLIO * FOLIO;
                    let end = (self.start + range.end).next_multiple_of(FOLIO);
                    (start.saturating_sub(FOLIO), (end + FOLIO).min(region.len))
                }
                false => (
                    (self.start + range.start) / GRAIN * GRAIN,
                    (self.start + range.end) / GRAIN * GRAIN,
                ),
            };
            if abs_start < abs_end {
                kq_trace::instant("ingest", "release")
                    .v((abs_end - abs_start) as f64)
                    .emit();
                // SAFETY: the region is live for as long as `self` exists
                // and the aligned range is inside it; DONTNEED on a
                // read-only file mapping only drops reconstructible pages.
                unsafe {
                    libc::madvise(
                        region.ptr.add(abs_start) as *mut libc::c_void,
                        abs_end - abs_start,
                        libc::MADV_DONTNEED,
                    );
                }
            }
        }
        #[cfg(not(unix))]
        let _ = range;
    }
}

/// The trailing-release discipline as a reusable cursor: callers making a
/// sequential pass over a (possibly mapped) [`Bytes`] report their consumed
/// frontier, and the cursor issues [`Bytes::release_range`] hints a bounded
/// `lag` behind it — batched so the madvise syscall fires once per `lag`
/// window, not once per advance. The lag keeps recently-read pages resident
/// for any short backtrack; everything older is structurally finished and
/// may be dropped. Heap backings make every call a no-op.
#[derive(Debug)]
pub struct ReleaseCursor {
    released: usize,
    lag: usize,
}

impl ReleaseCursor {
    /// A cursor that keeps roughly `lag` bytes behind the frontier
    /// resident.
    pub fn new(lag: usize) -> ReleaseCursor {
        ReleaseCursor {
            released: 0,
            lag: lag.max(1),
        }
    }

    /// How far behind the last released boundary each new release window
    /// re-sweeps. A release is only a hint: a fault near the frontier maps
    /// page-cache-hot neighbours *around* the touched address (kernel
    /// fault-around; with large page-cache folios a single fault can map
    /// the whole folio), so reads can quietly refault pages behind a
    /// boundary the cursor already passed — and a cursor that never looks
    /// back leaks them until the mapping dies. PMD size (2 MiB) covers the
    /// largest folio that can straddle a release boundary; the cost is one
    /// extra mostly-empty-PTE walk per madvise call.
    const BACKFILL_SWEEP: usize = 1 << 21;

    /// Notes that everything before `consumed` (clamped to the view) is
    /// finished with; once the frontier is two lag-windows past the last
    /// release, drops pages up to `consumed - lag`.
    pub fn advance(&mut self, source: &Bytes, consumed: usize) {
        let consumed = consumed.min(source.len());
        if consumed >= self.released + 2 * self.lag {
            let upto = consumed - self.lag;
            let start = self.released.saturating_sub(Self::BACKFILL_SWEEP);
            source.release_range(start..upto);
            self.released = upto;
        }
    }

    /// End of the pass: releases the whole remaining tail and the pages
    /// the pass's faults can have mapped around the view.
    pub fn finish(&mut self, source: &Bytes) {
        if self.released < source.len() {
            let start = self.released.saturating_sub(Self::BACKFILL_SWEEP);
            source.release(start..source.len(), true);
            self.released = source.len();
        }
    }
}

/// Lazy chunk iterator over a [`Bytes`] — see [`Bytes::chunks`].
pub struct ChunkIter<'a> {
    source: &'a Bytes,
    pos: usize,
    target: usize,
}

impl Iterator for ChunkIter<'_> {
    type Item = Bytes;

    fn next(&mut self) -> Option<Bytes> {
        let bytes = self.source.as_bytes();
        if self.pos >= bytes.len() {
            return None;
        }
        let end = crate::split::next_chunk_end(bytes, self.pos, self.target);
        let chunk = self.source.slice(self.pos..end);
        self.pos = end;
        Some(chunk)
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        // O(1): the String's buffer is moved, not copied.
        Bytes::from_heap(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::from_heap(s.as_bytes().to_vec())
    }
}

impl From<&String> for Bytes {
    fn from(s: &String) -> Bytes {
        Bytes::from(s.as_str())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        // O(1): the Vec is moved, not copied.
        Bytes::from_heap(v)
    }
}

impl From<&Bytes> for Bytes {
    fn from(b: &Bytes) -> Bytes {
        b.clone()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Bytes {}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<String> for Bytes {
    fn eq(&self, other: &String) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<Bytes> for String {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<Bytes> for &str {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_str() {
            Ok(s) => write!(f, "{s:?}"),
            Err(_) => write!(f, "Bytes({:?})", self.as_bytes()),
        }
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_str() {
            Ok(s) => f.write_str(s),
            Err(_) => write!(f, "{:?}", self.as_bytes()),
        }
    }
}

/// A segment list over [`Bytes`]: concatenation without flattening.
///
/// Stage outputs, multi-file inputs, and k-way `concat` combines push
/// their pieces here; the rope flattens into one contiguous [`Bytes`]
/// only when [`Rope::into_bytes`] is called — and even then a
/// single-segment rope hands back its segment with no copy at all.
#[derive(Debug, Clone, Default)]
pub struct Rope {
    segments: Vec<Bytes>,
    len: usize,
}

impl Rope {
    /// An empty rope.
    pub fn new() -> Rope {
        Rope::default()
    }

    /// Appends a segment (O(1); empty segments are dropped). A segment
    /// that continues the previous one — the next view of the same backing
    /// buffer — extends it instead of starting a new one, so the chunks of
    /// one materialized stream, re-gathered in order, are one segment
    /// again: the shape every executor sink produces (for a spilled sort
    /// that stream is a mapped merge file of hundreds of MiB, and the
    /// gather memcpy this avoids would be the run's peak-RSS high-water
    /// mark).
    pub fn push(&mut self, segment: Bytes) {
        if segment.is_empty() {
            return;
        }
        self.len += segment.len();
        match self.segments.last_mut() {
            Some(last) if Arc::ptr_eq(&last.buf, &segment.buf) && last.end == segment.start => {
                last.end = segment.end;
            }
            _ => self.segments.push(segment),
        }
    }

    /// Total byte length across segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bytes are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The segments, in order.
    pub fn segments(&self) -> &[Bytes] {
        &self.segments
    }

    /// Consumes the rope into its segments (zero-copy).
    pub fn into_segments(self) -> Vec<Bytes> {
        self.segments
    }

    /// Flattens into one contiguous [`Bytes`]. A rope of zero or one
    /// segments is returned without copying — which, since
    /// [`push`](Rope::push) joins adjacent views of one backing, covers
    /// every in-order re-gather of a single stream; only disjoint or
    /// reordered segments pay the single gather memcpy.
    pub fn into_bytes(mut self) -> Bytes {
        match self.segments.len() {
            0 => Bytes::new(),
            1 => self.segments.pop().expect("one segment"),
            _ => {
                let mut out = Vec::with_capacity(self.len);
                for seg in &self.segments {
                    out.extend_from_slice(seg.as_bytes());
                }
                Bytes::from_heap(out)
            }
        }
    }

    /// True when the rope's bytes, in order, are exactly `other` — a
    /// comparison that gathers nothing.
    pub fn eq_bytes(&self, mut other: &[u8]) -> bool {
        self.len == other.len()
            && self.segments.iter().all(|seg| {
                let (head, rest) = other.split_at(seg.len());
                other = rest;
                head == seg.as_bytes()
            })
    }
}

impl Extend<Bytes> for Rope {
    fn extend<I: IntoIterator<Item = Bytes>>(&mut self, iter: I) {
        for seg in iter {
            self.push(seg);
        }
    }
}

impl FromIterator<Bytes> for Rope {
    fn from_iter<I: IntoIterator<Item = Bytes>>(iter: I) -> Rope {
        let mut rope = Rope::new();
        rope.extend(iter);
        rope
    }
}

impl From<Bytes> for Rope {
    fn from(segment: Bytes) -> Rope {
        std::iter::once(segment).collect()
    }
}

impl From<Vec<Bytes>> for Rope {
    fn from(segments: Vec<Bytes>) -> Rope {
        segments.into_iter().collect()
    }
}

/// One owned buffer assembled from pieces — byte ranges copied out of
/// [`Bytes`] views, and literal bytes — for outputs that are mostly their
/// input's bytes with gaps (`grep`, `cut`, `tr -d`): one copy into one
/// allocation, where a [`Rope`] of sub-slices would bump the shared
/// refcount for every piece and still copy them all when flattened.
#[derive(Debug)]
pub struct Gather {
    buf: Vec<u8>,
}

impl Gather {
    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Gather {
        Gather {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Appends `range` of `src` (relative to the view, like
    /// [`Bytes::slice`]).
    ///
    /// # Panics
    /// Panics when the range is out of bounds or inverted.
    #[inline]
    pub fn copy(&mut self, src: &Bytes, range: std::ops::Range<usize>) {
        self.buf.extend_from_slice(&src.as_bytes()[range]);
    }

    /// Appends literal bytes.
    #[inline]
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The gathered bytes as a whole-buffer [`Bytes`]. A buffer that uses
    /// less than a quarter of a non-trivial reservation is shrunk first
    /// (the rule of [`Bytes::compact`]), so a sparse result does not hold
    /// on to the room it was given.
    pub fn into_bytes(mut self) -> Bytes {
        if self.buf.capacity() >= 4096 && self.buf.len() * 4 < self.buf.capacity() {
            self.buf.shrink_to_fit();
        }
        Bytes::from_heap(self.buf)
    }
}

/// Flattens a piece list into one contiguous [`Bytes`] (single-segment
/// lists are returned without copying). Convenience for executors.
pub fn concat_bytes<'a>(pieces: impl IntoIterator<Item = &'a Bytes>) -> Bytes {
    pieces.into_iter().cloned().collect::<Rope>().into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_copies_pieces_into_one_buffer() {
        let src = Bytes::from("caf\u{e9},x\n");
        let view = src.slice(1..src.len());
        let mut g = Gather::with_capacity(src.len());
        g.copy(&view, 0..4);
        g.push(b"|");
        g.copy(&src, 6..8);
        let out = g.into_bytes();
        assert_eq!(out, "af\u{e9}|x\n");
        assert!(!out.shares_buffer(&src));

        // Any bytes: a range ending inside a multi-byte character, and
        // literal bytes that are not UTF-8.
        let mut g = Gather::with_capacity(8);
        g.copy(&src, 3..4);
        g.push(&[0xff]);
        assert_eq!(g.into_bytes().as_bytes(), [0xc3, 0xff]);
    }

    #[test]
    fn a_sparse_gather_gives_back_its_reservation() {
        let src = Bytes::from("x".repeat(1 << 16));
        let mut g = Gather::with_capacity(src.len());
        g.copy(&src, 0..10);
        g.push(b"\n");
        let out = g.into_bytes();
        assert_eq!(out.len(), 11);
        let Backing::Heap(vec) = &*out.buf else {
            panic!("a gather is a heap buffer")
        };
        assert!(vec.capacity() < 4096, "capacity {}", vec.capacity());
    }

    #[test]
    fn slice_is_zero_copy() {
        let b = Bytes::from("hello\nworld\n");
        let s = b.slice(6..12);
        assert_eq!(s, "world\n");
        assert!(s.shares_buffer(&b));
        assert_eq!(s.slice(0..0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Bytes::from("abc").slice(1..9);
    }

    #[test]
    fn equality_across_types() {
        let b = Bytes::from("abc");
        assert_eq!(b, "abc");
        assert_eq!(b, String::from("abc"));
        assert_eq!("abc", b);
        assert_eq!(b, Bytes::from("abc"));
        assert_ne!(b, Bytes::from("abd"));
    }

    #[test]
    fn split_stream_shares_buffer() {
        let b = Bytes::from("a\nb\nc\nd\ne\nf\n");
        let pieces = b.split_stream(3);
        assert_eq!(concat_bytes(&pieces), b);
        for p in &pieces {
            assert!(p.shares_buffer(&b));
            assert!(p.ends_with_newline());
        }
    }

    #[test]
    fn split_chunks_shares_buffer() {
        let b = Bytes::from("aa\nbb\ncc\ndd\n");
        let chunks = b.split_chunks(4);
        assert_eq!(concat_bytes(&chunks), b);
        assert!(chunks.iter().all(|c| c.shares_buffer(&b)));
    }

    #[test]
    fn rope_single_segment_no_copy() {
        let b = Bytes::from("payload\n");
        let mut rope = Rope::new();
        rope.push(Bytes::new());
        rope.push(b.clone());
        let out = rope.into_bytes();
        assert!(out.shares_buffer(&b), "single-segment rope must not copy");
    }

    #[test]
    fn rope_concatenates_in_order() {
        let rope: Rope = ["a\n", "b\n", "", "c\n"]
            .into_iter()
            .map(Bytes::from)
            .collect();
        assert_eq!(rope.segment_count(), 3);
        assert_eq!(rope.len(), 6);
        assert_eq!(rope.into_bytes(), "a\nb\nc\n");
    }

    #[test]
    fn empty_rope_is_empty_bytes() {
        assert_eq!(Rope::new().into_bytes(), Bytes::new());
        assert!(Rope::new().is_empty());
    }

    #[test]
    fn rope_of_adjacent_slices_coalesces_without_copying() {
        // The executor-sink shape: one stream cut into chunks, re-gathered
        // in order. Reassembly must return a view of the original backing.
        let b = Bytes::from("alpha\nbeta\ngamma\ndelta\n");
        assert!(b.chunks(6).count() > 1, "test needs several chunks");
        let rope: Rope = b.chunks(6).collect();
        assert_eq!(rope.segment_count(), 1, "adjacent slices join on push");
        let out = rope.into_bytes();
        assert_eq!(out, b);
        assert!(out.shares_buffer(&b), "adjacent slices must coalesce");
        // Reordered, gapped, or foreign segments fall back to the gather.
        let gapped: Rope = [b.slice(0..6), b.slice(11..17)].into_iter().collect();
        assert_eq!(gapped.into_bytes(), "alpha\ngamma\n");
        let mixed: Rope = [b.slice(0..6), Bytes::from("x\n")].into_iter().collect();
        assert_eq!(mixed.segment_count(), 2);
        assert!(mixed.eq_bytes(b"alpha\nx\n"));
        assert!(!mixed.eq_bytes(b"alpha\nx") && !mixed.eq_bytes(b"alpha\ny\n"));
        assert_eq!(mixed.into_bytes(), "alpha\nx\n");
    }

    #[test]
    fn compact_releases_oversized_backing() {
        let big = Bytes::from("x\n".repeat(8192)); // 16 KiB backing
        let tiny = big.slice(0..2).compact();
        assert_eq!(tiny, "x\n");
        assert!(
            !tiny.shares_buffer(&big),
            "tiny slice must drop the 16 KiB buffer"
        );
        // A slice covering most of the buffer stays shared.
        let most = big.slice(0..big.len() - 2).compact();
        assert!(most.shares_buffer(&big));
        // Small backings are never worth compacting.
        let small = Bytes::from("abcdef\n");
        let piece = small.slice(0..1).compact();
        assert!(piece.shares_buffer(&small));
    }

    #[test]
    fn lazy_chunks_agree_with_eager_split() {
        for input in ["", "a\n", "aa\nbb\ncc\ndd\n", "a\nb\nunterminated"] {
            let b = Bytes::from(input);
            for target in [1usize, 3, 5, 1 << 20] {
                let eager = b.split_chunks(target);
                let lazy: Vec<Bytes> = b.chunks(target).collect();
                assert_eq!(eager, lazy, "input {input:?} target {target}");
                assert!(lazy.iter().all(|c| c.shares_buffer(&b)));
            }
        }
    }

    #[test]
    fn release_range_is_inert_on_heap_backings() {
        let b = Bytes::from("a\nb\nc\n");
        b.release_range(0..b.len());
        b.release_range(2..2);
        assert_eq!(b, "a\nb\nc\n");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn release_range_checks_bounds() {
        Bytes::from("ab").release_range(0..9);
    }

    #[test]
    fn release_cursor_trails_and_drains() {
        // Heap backing: every release is a no-op, so this checks only the
        // cursor arithmetic (no panic, in-bounds ranges, full drain).
        let b = Bytes::from("line\n".repeat(100));
        let mut cursor = ReleaseCursor::new(64);
        for consumed in (0..=b.len()).step_by(37) {
            cursor.advance(&b, consumed);
        }
        cursor.advance(&b, b.len() + 999); // clamped, not a panic
        cursor.finish(&b);
        assert_eq!(b.as_bytes().len(), 500, "data untouched by hints");
    }

    #[test]
    fn display_and_debug() {
        let b = Bytes::from("x\n");
        assert_eq!(format!("{b}"), "x\n");
        assert_eq!(format!("{b:?}"), "\"x\\n\"");
    }
}
