//! `sort` — line sorting with the GNU flag subset used by the corpus:
//! plain, `-n`, `-r`, `-f`, `-u`, `-s`, `-k1n`-style single keys, `-m`
//! (merge pre-sorted inputs), and the combined forms (`-rn`, `-nr`,
//! `-k1n`, `-k1nr`).
//!
//! Comparison model mirrors GNU sort under `LC_COLLATE=C`: the flagged key
//! comparison first, then (absent `-u`/`-s`) a *last-resort* whole-line byte
//! comparison. A `-k` key with modifiers of its own (`-k1n`, `-k1nr`) takes
//! none of the global ordering options; one without takes them all. So
//! `r` on the key reverses the key alone, and a global `-r` reverses the
//! last resort always and the key when the key inherits it:
//! `sort -k1n -r` puts equal numbers in descending byte order, ascending
//! numbers first. `-u` keeps the first line of each run of key-equal
//! lines, and `-s` keeps all of them in input order.
//!
//! # The kernel
//!
//! Sorting and merging compare lines the same way. Every flag set is
//! lexicographic order over a virtual *symbol string* per line, read lazily
//! and never materialised; a symbol is a byte plus one, or 0 for the end of
//! a part:
//!
//! | flags | symbol string |
//! |---|---|
//! | plain (`-u` or not) | the bytes, end |
//! | `-f` | the upper-cased bytes, end, the bytes, end |
//! | `-fu` | the upper-cased bytes, end |
//! | `-n`, `-k1n` | the key's eight big-endian bytes, the bytes, end |
//! | `-nu` | the key's eight bytes, end |
//!
//! The numeric key is the parsed number mapped to a `u64` that orders like
//! it (`-0` and `0` tie; a `+`-led number is no number, as in GNU). The raw
//! bytes after a folded or numeric lead are the last-resort order, which
//! `-u` and `-s` do without. A reversed key complements every symbol of
//! the lead, and a global `-r` every symbol of the bytes after it, ends
//! included; ties still go to the earlier input. In counted mode (see
//! below) the bytes are those past the count column.
//!
//! ## Sorting: a radix sort on eight symbols at a time
//!
//! `sort` finds the lines with an eight-bytes-at-a-time newline scan and
//! gives each a 24-byte entry — where it is, and two keys of eight symbols
//! each as big-endian words (complemented under `-r`): the lead's first
//! eight (the first eight bytes, upper-cased under `-f`, zero-padded; or
//! the numeric key) and the eight after them (the next eight bytes; after a
//! numeric lead, the tail's first). No copy of the input is made. The
//! entries are radix-sorted on the first key, least significant byte
//! first, one scatter pass per byte position where the keys differ: keyed
//! lines that share `key 287 ` cost three passes, not eight. Where the
//! passes would cost more than a comparison sort's `log2 n` compares per
//! line — a pass costs about two in cache and three past it, and words
//! differ in all eight bytes — the entries are stably sorted by comparing
//! keys instead. A run of
//! equal keys is keyed again by the next step and sorted the same way;
//! runs of at most 16 lines are sorted by insertion, and past the first
//! step settled by comparing the rest of their lines
//! (`Symbols::compare_past`). The second key is at hand in the entry, so
//! the first refinement reads no line again; only deeper ones go back to
//! the input.
//! Once every line of a run ends inside its word, the lines agree but for
//! trailing NULs, and order by length (a line before itself with a NUL
//! appended); then by the raw bytes after a folded or numeric lead. Every
//! pass is stable, so lines the order calls equal keep their input order —
//! what `-u` needs: it keeps the first of them. The sorted entries are
//! written out into one pre-sized buffer.
//!
//! Under `-u` only the first line of each class of equal lines is printed,
//! and a word stream has few classes. So the classes are counted first, in
//! the table of counted mode (below) keyed by what the order compares —
//! the bytes, the upper-cased bytes under `-fu`, the number under `-nu` —
//! and only their first lines are sorted. Where most lines are new, the
//! table is abandoned for the sort of every line, as in counted mode.
//!
//! On one core of a 2-core host, on 31-byte keyed lines, that is ~41 ns a
//! line on 64 KiB and ~57 on 4 MiB, where the comparison sort before it
//! (seven-byte keys, ties settled by slice compares) took ~86 and ~143: at
//! 4 MiB the ties' compares missed the cache line by line. Words, which
//! the keys' compares sort, take ~28 ns a line on 64 KiB (~37 before).
//!
//! ## Merging: offset-value codes
//!
//! `-m` sees lines differently: the lines of sorted runs share prefixes
//! far longer than eight bytes (`key 287 item 24…`, the count column under
//! `-rn`, word pairs), and a merge compares each line with only a few
//! others. The merge is a loser tree over **offset-value codes** (Conner;
//! Graefe & Do, "Offset-value coding in database query processing") of the
//! symbol strings; the stream index breaks ties in stream order.
//!
//! A line's *code* against a base line it does not precede packs the first
//! position where their strings differ and the line's symbol there into a
//! `u64`, longer shared prefixes smaller: of two lines coded against one
//! base, the smaller code is the earlier line, and equal lines are the
//! code 0, "duplicate". Each tree node holds its loser coded against the
//! line that beat it, and all of those on the winner's path are coded
//! against the winner. So when a stream wins and moves on, its next line is
//! coded against the line just emitted — one common-prefix scan, eight
//! bytes at a time — and played up the path: each match is one integer
//! compare, and only equal codes compare symbols, from the position after
//! the shared one, re-coding the loser. Lines that are equal go to the
//! earlier stream. A winner coded "duplicate" equals the line emitted
//! before it: that is what `-u` drops and what a counted merge adds up.
//!
//! Per emitted line that is one newline scan (eight bytes at a time), one
//! prefix scan against the line before, and `log2 k` integer compares,
//! bytes touched again only where two streams' lines share the prefix up
//! to their codes. No per-line allocation: the lines are slices of their
//! streams. A stream that turns out unsorted (its next line precedes the
//! last) is not an error: that line plays up its path with full compares,
//! as every line did before codes, and the earliest current line still goes
//! out first, as GNU `sort -m` does.
//!
//! The merge doubles as the implementation of the combiner DSL's
//! `merge <flags>` operator (`unixMerge` in the paper, realized as
//! `sort -m <flags>`), exposed programmatically via [`LineOrder::merge`]
//! and, for the out-of-core fold, [`LineOrder::merge_to`].
//!
//! # Merging in parts
//!
//! A k-way merge is one thread's work however many streams it reads. To
//! spread it, [`LineOrder::partition`] cuts the sorted streams into key
//! ranges the way a sample sort does — splitter lines sampled from the
//! streams, every stream cut at its lower bound for each splitter — and
//! the ranges are merged independently, by the same `merge`/`merge_to`,
//! and concatenated. A boundary only ever separates lines the full
//! comparator orders strictly, so `-u`, the folded and numeric orders, `-r`
//! and the stream-index tie-break come out exactly as in the flat merge;
//! the method's documentation states the contract.
//!
//! # Counted mode
//!
//! `sort <flags> | uniq -c` asks the sort only for adjacency: absent `-u`
//! the comparator ends in the last-resort byte order, so two lines compare
//! equal exactly when they are the same bytes, and the pair is one keyed
//! count. [`LineOrder::counted`] is that pair as a line order. Its streams
//! are *counted runs* — distinct lines in the sort's order, each behind
//! the count column `uniq -c` prints (optional blanks, digits, exactly one
//! blank; [`crate::uniq`] owns the format) — and every operation reads a
//! line's key and bytes **past the count column**:
//!
//! * [`LineOrder::sort_bytes`] turns raw lines into a counted run — the
//!   bytes `sort <flags> | uniq -c` prints for them. A chunk with few
//!   distinct lines is counted in a hash table over line slices and only
//!   the distinct lines are sorted; when the table stops being small
//!   against the lines read (or probes too long) the chunk is sorted with
//!   the kernel above and adjacent equal lines are counted. Same bytes
//!   either way; the distinct lines sort with the kernel too;
//! * [`LineOrder::merge`] and [`LineOrder::merge_to`] add the counts of
//!   equal lines where a `-u` merge drops the duplicate, and rewrite the
//!   column (a sum of 10^7 or more widens it, as `uniq -c` does);
//! * [`LineOrder::partition`] cuts by the counted lines, so a boundary
//!   separates only entries for lines the comparator orders strictly: all
//!   runs' entries for one line land in one part and their counts meet.
//!
//! Merging counted runs of the pieces of a stream, in any grouping, gives
//! the counted run of the whole stream. The mode is a parameter of the
//! merge loop's instantiation, not a test inside it: the plain merge does
//! not test for it per line.
//!
//! # Count order
//!
//! `sort | uniq -c | sort -rn` sorts a counted run again, numerically. Its
//! lines compare by count first and then, absent `-u` and `-s`, by the
//! last resort: the whole line's bytes. Lines of one count print one
//! column, so that is their bytes past it — the order the counting sort
//! left them in when it sorted in byte order, or the reverse of it. So the
//! numeric sort of a counted run needs no comparison: the lines of each
//! count, in the run's order or against it, and the counts in order.
//! [`LineOrder::count_order`] says when that holds — a counting order in
//! byte order, either way, followed by a numeric order on field one
//! without `-f`, `-u` or `-s` — and gives a [`CountOrder`]: the counts
//! descending when the key is reversed, a count's lines against the run
//! when the last resort runs the other way from the counting sort (a
//! global `-r` after `sort`, or none after `sort -r`).
//! [`CountOrder::regroup`] puts a counted run in that order with one scan
//! and one copy, group by group, and hands back where each group is, so
//! that the groups of several key ranges of one run can be interleaved
//! count by count without a second copy. Its oracle is the sort kernel
//! under the numeric flags, on the same counted bytes.

use crate::uniq::{push_counted, split_counted};
use crate::{Bytes, CmdError, EffectClass, ExecContext, UnixCommand};
use std::cmp::Ordering;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct SortFlags {
    numeric: bool,
    /// The key compares reversed: global `-r` on a key without modifiers
    /// of its own (or on no key), or `r` on the key.
    key_reverse: bool,
    /// The last-resort compare runs reversed: global `-r` alone — a key
    /// with modifiers of its own does not inherit it, the last resort
    /// always does.
    tail_reverse: bool,
    fold_case: bool,
    unique: bool,
    /// `-s`: no last-resort compare, so key-equal lines keep their input
    /// order.
    stable: bool,
    /// `-k1n`: sort by the first whitespace-delimited field, numerically.
    key_field1_numeric: bool,
}

/// The `sort` command.
pub struct SortCmd {
    flags: SortFlags,
    merge: bool,
    files: Vec<String>,
    display: String,
}

impl SortCmd {
    /// Parses `sort` arguments.
    pub fn parse(args: &[String]) -> Result<SortCmd, CmdError> {
        let mut flags = SortFlags::default();
        // The modifiers of a `-k` key, which replace the global ordering
        // options for that key when there are any (as in GNU `sort`).
        let mut key_mods: Option<String> = None;
        let mut merge = false;
        let mut files = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(opt) = a.strip_prefix("--") {
                if opt.starts_with("parallel=") {
                    // The paper's infrastructure pins sort to one thread;
                    // ours is single-threaded regardless.
                    continue;
                }
                return Err(CmdError::new("sort", format!("unknown option --{opt}")));
            }
            if let Some(body) = a.strip_prefix('-') {
                if body.is_empty() {
                    files.push("-".to_owned());
                    continue;
                }
                let mut chars = body.chars().peekable();
                while let Some(f) = chars.next() {
                    match f {
                        'n' => flags.numeric = true,
                        'r' => flags.tail_reverse = true,
                        'f' => flags.fold_case = true,
                        'u' => flags.unique = true,
                        'm' => merge = true,
                        's' => flags.stable = true,
                        'k' => {
                            // Key spec: rest of this word, or next word.
                            let spec: String = chars.by_ref().collect();
                            let spec = if spec.is_empty() {
                                it.next()
                                    .ok_or_else(|| CmdError::new("sort", "missing key spec"))?
                                    .clone()
                            } else {
                                spec
                            };
                            key_mods = Some(parse_key(&spec)?);
                        }
                        other => {
                            return Err(CmdError::new("sort", format!("unknown flag -{other}")))
                        }
                    }
                }
            } else {
                files.push(a.clone());
            }
        }
        flags.key_reverse = flags.tail_reverse;
        if let Some(mods) = key_mods.filter(|mods| !mods.is_empty()) {
            flags.numeric = false;
            flags.key_field1_numeric = mods.contains('n');
            flags.fold_case = mods.contains('f');
            flags.key_reverse = mods.contains('r');
        }
        let mut display = String::from("sort");
        for a in args {
            display.push(' ');
            display.push_str(a);
        }
        Ok(SortCmd {
            flags,
            merge,
            files,
            display,
        })
    }
}

/// The modifiers of a `-k` key spec. Supported forms: "1", "1n", "1,1n",
/// "1n,1", "1nr" — field one with `n`, `r` and `f` modifiers, which is
/// all the corpus uses. A key with modifiers takes none of the global
/// ordering options; one without takes them all.
fn parse_key(spec: &str) -> Result<String, CmdError> {
    let first = spec.split(',').next().unwrap_or(spec);
    let field: String = first.chars().take_while(|c| c.is_ascii_digit()).collect();
    let mods: String = spec.chars().filter(|c| c.is_ascii_alphabetic()).collect();
    if field != "1" {
        return Err(CmdError::new(
            "sort",
            format!("unsupported key field {spec:?} (only field 1)"),
        ));
    }
    if let Some(other) = mods.chars().find(|m| !matches!(m, 'n' | 'r' | 'f')) {
        return Err(CmdError::new(
            "sort",
            format!("unsupported key modifier {other}"),
        ));
    }
    Ok(mods)
}

/// GNU-style numeric prefix value: optional blanks, an optional `-`, digits
/// with optional decimal part. Non-numeric prefixes count as zero — and so
/// does a `+`-led number: GNU `sort -n` takes no `+` sign.
fn numeric_prefix(s: &[u8]) -> f64 {
    let blanks = s.iter().take_while(|&&c| c == b' ' || c == b'\t').count();
    let t = &s[blanks..];
    let mut end = usize::from(t.first() == Some(&b'-'));
    let digits = |from: usize| t[from..].iter().take_while(|c| c.is_ascii_digit()).count();
    let whole = digits(end);
    end += whole;
    let mut fraction = 0;
    if t.get(end) == Some(&b'.') {
        fraction = digits(end + 1);
        if fraction > 0 {
            end += 1 + fraction;
        }
    }
    if whole + fraction == 0 {
        return 0.0;
    }
    // Sign, digits and a dot: ASCII, so the conversion cannot fail.
    std::str::from_utf8(&t[..end])
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(0.0)
}

/// Maps a (non-NaN) number to a `u64` that orders the same way, with `-0`
/// and `0` equal.
fn numeric_key(value: f64) -> u64 {
    let bits = if value == 0.0 { 0 } else { value.to_bits() };
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Line offsets and lengths are kept as `u32`, which keeps a sort entry at
/// 24 bytes — the sort moves entries, and every radix pass moves them all —
/// so one segment of a sort is at most this long.
const MAX_SEGMENT: usize = u32::MAX as usize;

/// Runs of at most this many lines are put in order by insertion sort — by
/// key, and past the first step by comparing the rest of their lines:
/// fewer compares than a radix pass has buckets, and a long line is
/// compared once instead of refined eight bytes at a time.
const INSERTION_RUN: usize = 16;

/// Whether `passes` radix passes over `n` items of `bytes` bytes each cost
/// less than a comparison sort of them, `log2 n` compares per item: a pass
/// costs about two compares per item while the items fit in a core's
/// cache, and three once its scatter misses the cache item by item. (On one
/// core of a 2-core host: 64 KiB of keyed lines, three passes, sort in
/// 52 ns a line by radix and 75 by compares; 2 MiB of words, eight passes,
/// in 55 and 41.)
fn radix_pays(n: usize, bytes: usize, passes: usize) -> bool {
    const CACHE_BYTES: usize = 256 << 10;
    let pass_cost = if n * bytes <= CACHE_BYTES { 2 } else { 3 };
    passes * pass_cost <= n.ilog2() as usize
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Eight bytes of `bytes` from `at`, the first in the low byte.
fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// The end of the line of `input` that starts at `at` — the offset of its
/// newline, or `input.len()` — found eight bytes at a time: a word with a
/// newline in it ends the line, and what precedes the newline is the
/// line's last word. Every word of the line goes to `word` as it is read,
/// the last one masked to the line's bytes (0 when the line ends on a word
/// boundary): the counting table hashes lines that way ([`HashedLines`]),
/// and a merge's streams pass `|_| {}`.
#[inline(always)]
fn line_end(input: &[u8], mut at: usize, mut word: impl FnMut(u64)) -> usize {
    loop {
        if at + 8 > input.len() {
            // The last seven bytes of the input, one at a time.
            let rest = &input[at..];
            let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
            word(
                rest[..len]
                    .iter()
                    .rev()
                    .fold(0u64, |word, &b| word << 8 | u64::from(b)),
            );
            return at + len;
        }
        let w = word_at(input, at);
        // A byte of `x` is zero where `w` has a newline, and the lowest set
        // high bit of `found` marks the first such byte.
        let x = w ^ (ONES * u64::from(b'\n'));
        let found = x.wrapping_sub(ONES) & !x & HIGHS;
        if found != 0 {
            let len = (found.trailing_zeros() / 8) as usize;
            word(w & ((1u64 << (8 * len)) - 1));
            return at + len;
        }
        word(w);
        at += 8;
    }
}

/// The lines of a segment with the counting table's hash of each, found
/// and hashed in one pass by [`line_end`]. A line of up to seven bytes — a
/// word stream has little else — costs one load, one newline test and two
/// multiplications. An unterminated final line is a line; `""` holds none.
/// With `FOLD` the upper-cased bytes are hashed, so that lines equal but
/// for ASCII case hash alike (`-fu`).
struct HashedLines<'a, const FOLD: bool> {
    input: &'a [u8],
    pos: usize,
}

/// One step of the counting table's hash: each word is multiplied in and
/// its high half folded down, so the low bits a table index takes depend on
/// every byte.
fn mix(hash: u64, word: u64) -> u64 {
    let h = (hash ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

impl<'a, const FOLD: bool> Iterator for HashedLines<'a, FOLD> {
    /// A line (newline excluded), its offset, its hash.
    type Item = (&'a [u8], usize, u64);

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.pos;
        if start >= self.input.len() {
            return None;
        }
        let mut hash = 0u64;
        let end = line_end(self.input, start, |word| {
            hash = mix(hash, if FOLD { upper_word(word) } else { word });
        });
        self.pos = end + 1;
        // The length tells lines apart that differ in trailing NULs.
        let hash = mix(hash, (end - start) as u64);
        Some((&self.input[start..end], start, hash))
    }
}

/// The line order of one `sort` flag set: the symbol string its lines
/// compare by (see the [module docs](self)). Parse the flags once with
/// [`LineOrder::parse`] and sort and merge any number of times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineOrder {
    flags: SortFlags,
    /// Counted mode (see the [module docs](self)): streams are counted
    /// runs, and keys and comparisons read past the count column.
    counted: bool,
}

/// One line of a segment being sorted: where it is, and its key at the
/// part and depth the kernel is ordering it by.
#[derive(Clone, Copy)]
struct Entry {
    key: u64,
    /// The key of the step after the first (see [`Symbols::first_step`]),
    /// read with the first while the line is at hand: lines that tie on
    /// their first key are ordered without going back to them.
    next: u64,
    start: u32,
    len: u32,
}

impl Entry {
    fn line(self, input: &[u8]) -> &[u8] {
        &input[self.start as usize..][..self.len as usize]
    }
}

/// What the sort kernel moves: an entry, alone or beside the count the
/// counting table keeps for it.
trait Sortable: Copy {
    fn entry(&self) -> Entry;
    fn entry_mut(&mut self) -> &mut Entry;
}

impl Sortable for Entry {
    fn entry(&self) -> Entry {
        *self
    }

    fn entry_mut(&mut self) -> &mut Entry {
        self
    }
}

impl Sortable for (Entry, u64) {
    fn entry(&self) -> Entry {
        self.0
    }

    fn entry_mut(&mut self) -> &mut Entry {
        &mut self.0
    }
}

/// Stable insertion sort of a short run by `less`.
fn insertion_sort<T: Copy>(run: &mut [T], less: impl Fn(&T, &T) -> bool) {
    for i in 1..run.len() {
        let item = run[i];
        let mut at = i;
        while at > 0 && less(&item, &run[at - 1]) {
            run[at] = run[at - 1];
            at -= 1;
        }
        run[at] = item;
    }
}

/// Sorts `items` by key, stably, least significant byte first, with one
/// scatter pass per byte position where the keys differ: a position every
/// key agrees on costs nothing. Where that takes more passes than a
/// comparison sort takes compares per item — few items, or keys that
/// differ in every byte, as words do — the items are sorted by comparing
/// keys instead. `scratch` is the passes' second buffer, kept by the caller
/// across calls.
fn radix_sort<T: Sortable>(items: &mut [T], scratch: &mut Vec<T>) {
    let first = items[0].entry().key;
    let differs = items.iter().fold(0, |d, t| d | (t.entry().key ^ first));
    let shifts: Vec<u32> = (0..8)
        .map(|byte| 8 * byte)
        .filter(|shift| (differs >> shift) & 0xFF != 0)
        .collect();
    if shifts.is_empty() {
        return;
    }
    if !radix_pays(items.len(), std::mem::size_of::<T>(), shifts.len()) {
        items.sort_by_key(|t| t.entry().key);
        return;
    }
    let mut counts = vec![[0u32; 256]; shifts.len()];
    for t in items.iter() {
        let key = t.entry().key;
        for (count, shift) in counts.iter_mut().zip(&shifts) {
            count[(key >> shift) as usize & 0xFF] += 1;
        }
    }
    if scratch.len() < items.len() {
        scratch.resize(items.len(), items[0]);
    }
    let scratch = &mut scratch[..items.len()];
    for (pass, (count, shift)) in counts.iter().zip(&shifts).enumerate() {
        let mut next = [0usize; 256];
        let mut sum = 0;
        for (slot, &n) in next.iter_mut().zip(count) {
            *slot = sum;
            sum += n as usize;
        }
        let (from, to): (&[T], &mut [T]) = if pass % 2 == 0 {
            (&*items, &mut *scratch)
        } else {
            (&*scratch, &mut *items)
        };
        for t in from {
            let slot = &mut next[(t.entry().key >> shift) as usize & 0xFF];
            to[*slot] = *t;
            *slot += 1;
        }
    }
    if shifts.len() % 2 == 1 {
        items.copy_from_slice(scratch);
    }
}

/// The counted run of sorted `groups` of `input`: each line behind its
/// count, as `uniq -c` prints it.
fn write_counted(input: &[u8], groups: Vec<(Entry, u64)>) -> Vec<u8> {
    let bytes: usize = groups.iter().map(|g| g.0.len as usize + 9).sum();
    let mut out = Vec::with_capacity(bytes);
    for (e, n) in groups {
        push_counted(&mut out, n, e.line(input));
    }
    out
}

/// Lines [`LineOrder::count_segment`] reads into its table before it first
/// asks whether the table is still small against them: any text starts
/// with mostly new lines, and what share stays new shows only after the
/// first thousand.
const FIRST_TABLE_CHECK: usize = 1024;

impl LineOrder {
    /// The order of `sort <flag_words>` (the flags of a `merge <flags>`
    /// combiner).
    pub fn parse(flag_words: &[String]) -> Result<LineOrder, CmdError> {
        SortCmd::parse(flag_words).map(|cmd| LineOrder {
            flags: cmd.flags,
            counted: false,
        })
    }

    /// This order under `-u`: the order of `sort -u <flags>`.
    pub fn unique(self) -> LineOrder {
        LineOrder {
            flags: SortFlags {
                unique: true,
                ..self.flags
            },
            ..self
        }
    }

    /// This order in counted mode — the order of `sort <flags> | uniq -c`
    /// (see the [module docs](self)). Defined for orders without `-u`,
    /// whose comparator calls only identical lines equal.
    pub fn counted(self) -> LineOrder {
        debug_assert!(!self.flags.unique, "`sort -u | uniq -c` is not a count");
        LineOrder {
            counted: true,
            ..self
        }
    }

    /// What keys and comparisons read of a line of one of this order's
    /// streams: the line, or in counted mode what follows its count column.
    fn payload(self, line: &[u8]) -> &[u8] {
        if self.counted {
            split_counted(line).1
        } else {
            line
        }
    }

    /// The fold-pair licence in the kernel's terms: whether a `sort` in
    /// this order followed by `uniq` (`counts` false) or `uniq -c`
    /// (`counts` true) is one keyed aggregation — count (or keep one of)
    /// each distinct line — whose per-piece results merge by key. The
    /// comparator must call two lines equal only when they are the same
    /// bytes: no `-u`, which keeps one line per key, and no `-s`, which
    /// keeps key-equal lines in input order. Before a plain `uniq` the
    /// pair is `sort -u`, which keeps one line per *key*, so the key must
    /// be the bytes as well: byte order, either way.
    pub fn folds_runs(self, counts: bool) -> bool {
        let identical = !self.counted && !self.flags.unique && !self.flags.stable;
        identical && (counts || (!self.numeric() && !self.flags.fold_case))
    }

    /// True in counted mode: the order of `sort <flags> | uniq -c`, whose
    /// merges add the counts of equal lines — and call only identical
    /// lines equal, so its runs may be merged in any grouping.
    pub fn is_counted(self) -> bool {
        self.counted
    }

    /// True when the key is a number (`-k1n` and `-n` outrank `-f`).
    fn numeric(self) -> bool {
        self.flags.key_field1_numeric || self.flags.numeric
    }

    /// The numeric key of a line under `-n` or `-k1n`: its number as a
    /// `u64` that orders like it. The sort kernel and the merge parse it
    /// once per line.
    fn number(self, line: &[u8]) -> u64 {
        let field = if self.flags.key_field1_numeric {
            line.split(u8::is_ascii_whitespace)
                .find(|f| !f.is_empty())
                .unwrap_or(&[])
        } else {
            line
        };
        numeric_key(numeric_prefix(field))
    }

    /// `sort <flags>` of one stream of text — in counted mode
    /// `sort <flags> | uniq -c` of it, as one pass (the input is raw lines,
    /// the output a counted run).
    pub fn sort_bytes(self, input: &Bytes) -> Result<Bytes, CmdError> {
        self.sort(input.as_bytes(), MAX_SEGMENT).map(Bytes::from)
    }

    /// Sorts the lines of `input` (an unterminated final line counts as a
    /// line) into one newline-terminated output. Inputs longer than
    /// `max_segment` (in production, [`MAX_SEGMENT`]) are sorted in
    /// line-aligned segments and merged — "sort every split, then
    /// `sort -m`", on one thread. In counted mode the segments are counted
    /// and the merge adds their counts.
    fn sort(self, input: &[u8], max_segment: usize) -> Result<Vec<u8>, CmdError> {
        let mut runs = Vec::new();
        let mut rest = input;
        while rest.len() > max_segment {
            let cut = rest[..max_segment]
                .iter()
                .rposition(|&b| b == b'\n')
                .ok_or_else(|| {
                    CmdError::new("sort", format!("a line is longer than {max_segment} bytes"))
                })?;
            let (segment, tail) = rest.split_at(cut + 1);
            runs.push(self.sort_segment(segment, FIRST_TABLE_CHECK));
            rest = tail;
        }
        let last = self.sort_segment(rest, FIRST_TABLE_CHECK);
        if runs.is_empty() {
            return Ok(last);
        }
        runs.push(last);
        let runs: Vec<&[u8]> = runs.iter().map(Vec::as_slice).collect();
        Ok(self.merge(&runs))
    }

    /// Sorts at most [`MAX_SEGMENT`] bytes: decorate every line once, sort
    /// the decorations, write the lines out in that order — under `-u` the
    /// first of each run of equal lines only (counted mode:
    /// [`count_segment`](LineOrder::count_segment)). Under `-u` the first
    /// of each class of equal lines is found in the counting table first,
    /// while the classes are few against the lines
    /// ([`count_distinct`](LineOrder::count_distinct); `first_check` as
    /// there), and only those lines are sorted: a word stream's `sort -u`
    /// then sorts a handful of entries, not one per line.
    fn sort_segment(self, input: &[u8], first_check: usize) -> Vec<u8> {
        if self.counted {
            return self.count_segment(input, first_check);
        }
        let symbols = self.symbols();
        if self.flags.unique {
            if let Some(mut firsts) = self.count_distinct(input, first_check) {
                // One line per class: the classes sort strictly.
                symbols.sort_lines(input, &mut firsts);
                let bytes = firsts.iter().map(|g| g.0.len as usize + 1).sum();
                let mut out = Vec::with_capacity(bytes);
                for (e, _) in firsts {
                    out.extend_from_slice(e.line(input));
                    out.push(b'\n');
                }
                return out;
            }
        }
        let mut entries = self.entries(input);
        symbols.sort_lines(input, &mut entries);
        let mut out = Vec::with_capacity(input.len() + 1);
        let mut prev: Option<&[u8]> = None;
        for e in entries {
            let line = e.line(input);
            if self.flags.unique && prev.is_some_and(|p| symbols.equal(p, line)) {
                continue;
            }
            out.extend_from_slice(line);
            out.push(b'\n');
            prev = Some(line);
        }
        out
    }

    /// One entry per line of `input`, in input order.
    fn entries(self, input: &[u8]) -> Vec<Entry> {
        let symbols = self.symbols();
        // Counting the newlines first costs a fraction of a copy of the
        // entries, and the vector is allocated once, at its size.
        let lines = input.iter().filter(|&&b| b == b'\n').count() + 1;
        let mut entries: Vec<Entry> = Vec::with_capacity(lines);
        let mut at = 0;
        while at < input.len() {
            let end = line_end(input, at, |_| {});
            entries.push(symbols.entry(input, at, end));
            at = end + 1;
        }
        entries
    }

    /// The counted-mode segment kernel: the distinct lines of `input` in
    /// this order, each behind its count — the bytes of
    /// `sort <flags> | uniq -c`. Lines the comparator calls equal are
    /// identical (no `-u`), so counting identical lines in a table and
    /// sorting the distinct ones is counting the adjacent equal lines of
    /// the sorted segment. The table is tried first and abandoned for the
    /// sort when it stops being small (see
    /// [`count_distinct`](LineOrder::count_distinct)); `first_check` is
    /// [`FIRST_TABLE_CHECK`] outside tests, which force the sort with 1
    /// and the table with `usize::MAX`.
    fn count_segment(self, input: &[u8], first_check: usize) -> Vec<u8> {
        if let Some(counted) = self.count_table(input, first_check) {
            return counted;
        }
        let symbols = self.symbols();
        let mut entries = self.entries(input);
        symbols.sort_lines(input, &mut entries);
        let mut groups: Vec<(Entry, u64)> = Vec::new();
        for e in entries {
            match groups.last_mut() {
                Some((prev, n)) if prev.line(input) == e.line(input) => *n += 1,
                _ => groups.push((e, 1)),
            }
        }
        write_counted(input, groups)
    }

    /// The counted run of one chunk of raw lines — `sort <flags> | uniq -c`
    /// of it, as [`sort_bytes`](LineOrder::sort_bytes) makes it in counted
    /// mode — when the counting table stays small against its lines, and
    /// `None` when the table gives up (see
    /// `count_distinct`): such a chunk is
    /// better sorted in a batch with its neighbours than on its own. A
    /// counting fold's map runs this and hands the chunk on raw when it
    /// declines.
    pub fn count_bytes(self, input: &Bytes) -> Option<Bytes> {
        debug_assert!(self.counted, "counting is the counted mode's");
        if input.len() > MAX_SEGMENT {
            return None;
        }
        self.count_table(input.as_bytes(), FIRST_TABLE_CHECK)
            .map(Bytes::from)
    }

    /// The table half of [`count_segment`](LineOrder::count_segment): the
    /// distinct lines counted in the table and sorted, or `None` when the
    /// table gives up.
    fn count_table(self, input: &[u8], first_check: usize) -> Option<Vec<u8>> {
        // The table hands the groups back in first-occurrence order.
        let mut groups = self.count_distinct(input, first_check)?;
        self.symbols().sort_lines(input, &mut groups);
        Some(write_counted(input, groups))
    }

    /// Counts the distinct lines of `input` — distinct under the order's
    /// comparator: identical bytes, but under `-fu` the same upper-cased
    /// bytes and under `-nu` the same number — in an open-addressing table
    /// over line slices (linear probing, at most half full), each class
    /// held by the entry of its first line. Returns `None` when the table
    /// is not small against the lines read — asked each time their number
    /// doubles, from `first_check` lines on: more than three in four of
    /// them distinct, so the sort of the distinct lines that follows saves
    /// little over sorting them all — or, from then on, when probing has
    /// cost more than that sort would: the hash is not keyed, and lines
    /// chosen to collide must not be able to make a chunk quadratic.
    fn count_distinct(self, input: &[u8], first_check: usize) -> Option<Vec<(Entry, u64)>> {
        let symbols = self.symbols();
        // Each kind of class is its own instantiation of the table loop:
        // the counting kernel's hash and compare stay the bytes' alone.
        match (symbols.lead, symbols.tail) {
            (Lead::Folded, false) => self.count_classes::<true, false>(input, first_check),
            (Lead::Numeric, false) => self.count_classes::<false, true>(input, first_check),
            _ => self.count_classes::<false, false>(input, first_check),
        }
    }

    /// [`count_distinct`](LineOrder::count_distinct) with lines of one
    /// class when equal upper-cased (`FOLD`), when of one number
    /// (`NUMBER`), or else when identical.
    fn count_classes<const FOLD: bool, const NUMBER: bool>(
        self,
        input: &[u8],
        first_check: usize,
    ) -> Option<Vec<(Entry, u64)>> {
        const EMPTY: u32 = u32::MAX;
        let symbols = self.symbols();
        let same = |a: &[u8], b: &[u8]| {
            if FOLD {
                a.eq_ignore_ascii_case(b)
            } else if NUMBER {
                self.number(a) == self.number(b)
            } else {
                a == b
            }
        };
        let mut slots = vec![EMPTY; 256];
        let mut hashes: Vec<u64> = Vec::new();
        let mut groups: Vec<(Entry, u64)> = Vec::new();
        let (mut lines, mut probes) = (0usize, 0usize);
        for (text, start, hash) in (HashedLines::<FOLD> { input, pos: 0 }) {
            let hash = if NUMBER {
                mix(0, self.number(text))
            } else {
                hash
            };
            lines += 1;
            if lines >= first_check && lines.is_power_of_two() && groups.len() * 4 > lines * 3 {
                return None;
            }
            let mask = slots.len() - 1;
            let mut at = hash as usize & mask;
            loop {
                let slot = slots[at];
                if slot == EMPTY {
                    break;
                }
                let (e, n) = &mut groups[slot as usize];
                if hashes[slot as usize] == hash && same(e.line(input), text) {
                    *n += 1;
                    break;
                }
                probes += 1;
                at = (at + 1) & mask;
            }
            if slots[at] == EMPTY {
                slots[at] = groups.len() as u32;
                hashes.push(hash);
                groups.push((symbols.entry(input, start, start + text.len()), 1));
                if lines >= first_check && probes > 16 * lines {
                    return None;
                }
                if groups.len() * 2 > slots.len() {
                    slots = vec![EMPTY; slots.len() * 4];
                    let mask = slots.len() - 1;
                    for (g, &hash) in hashes.iter().enumerate() {
                        let mut at = hash as usize & mask;
                        while slots[at] != EMPTY {
                            at = (at + 1) & mask;
                        }
                        slots[at] = g as u32;
                    }
                }
            }
        }
        Some(groups)
    }

    /// `sort -m <flags>`: merges pre-sorted streams into one output. This
    /// is the `unixMerge` primitive behind the combiner DSL's `merge`
    /// operator and the k-way merge used by parallel pipelines (paper
    /// §3.5).
    pub fn merge(self, streams: &[&[u8]]) -> Vec<u8> {
        let total: usize = streams.iter().map(|s| s.len()).sum();
        // One newline per stream covers unterminated final lines.
        let mut out = Vec::with_capacity(total + streams.len());
        self.merge_fragments(streams, &mut out, usize::MAX, &mut |_, _| Ok(()))
            .expect("a sink that is never full is never called");
        out
    }

    /// Streaming form of [`merge`](LineOrder::merge): hands the output to
    /// `sink` in line-aligned fragments of at least `fragment_bytes` (the
    /// final fragment may be smaller; each fragment exceeds the threshold
    /// by at most one line). Alongside each fragment the sink receives,
    /// per stream, how many input bytes the merge has consumed so far —
    /// the hook the out-of-core fold uses to drop mapped run pages behind
    /// the merge frontier instead of holding every run resident until the
    /// end.
    pub fn merge_to(
        self,
        streams: &[&[u8]],
        fragment_bytes: usize,
        sink: &mut MergeSink,
    ) -> Result<(), CmdError> {
        let mut buf = Vec::new();
        let consumed = self.merge_fragments(streams, &mut buf, fragment_bytes, sink)?;
        if !buf.is_empty() {
            sink(&buf, &consumed)?;
        }
        Ok(())
    }

    /// The merge behind both entry points: appends merged lines to `buf`,
    /// draining it through `sink` whenever it reaches `fragment_bytes`.
    /// Returns the bytes consumed per stream; what is left in `buf` is the
    /// caller's to flush.
    fn merge_fragments(
        self,
        streams: &[&[u8]],
        buf: &mut Vec<u8>,
        fragment_bytes: usize,
        sink: &mut MergeSink,
    ) -> Result<Vec<usize>, CmdError> {
        // The one place the mode is tested: each instantiation of the loop
        // is compiled for its mode alone.
        if self.counted {
            self.merge_loop::<true>(streams, buf, fragment_bytes, sink)
        } else {
            self.merge_loop::<false>(streams, buf, fragment_bytes, sink)
        }
    }

    /// [`merge_fragments`](LineOrder::merge_fragments) for plain line
    /// streams, or with `COUNTED` for counted runs: streams hold each line
    /// past its count column, and a line equal to the one held back adds
    /// its count to it instead of following it out.
    fn merge_loop<const COUNTED: bool>(
        self,
        streams: &[&[u8]],
        buf: &mut Vec<u8>,
        fragment_bytes: usize,
        sink: &mut MergeSink,
    ) -> Result<Vec<usize>, CmdError> {
        let mut tree = LoserTree::new::<COUNTED>(self, streams);
        let mut consumed = vec![0usize; streams.len()];
        // COUNTED: the line held back, not yet written, and how often it
        // has occurred so far.
        let mut held: Option<(&[u8], u64)> = None;
        while let Some((code, winner)) = tree.winner() {
            let stream = &tree.streams[winner];
            let line = stream
                .head
                .expect("a winner that is not drained has a line");
            if COUNTED {
                match &mut held {
                    Some((_, n)) if code == DUPLICATE => *n = n.saturating_add(stream.count),
                    _ => {
                        if let Some((text, n)) = held {
                            push_counted(buf, n, text);
                        }
                        held = Some((line.text, stream.count));
                    }
                }
            } else if !(self.flags.unique && code == DUPLICATE) {
                buf.extend_from_slice(line.text);
                buf.push(b'\n');
            }
            consumed[winner] = streams[winner].len() - stream.rest.len();
            if buf.len() >= fragment_bytes {
                sink(buf, &consumed)?;
                buf.clear();
            }
            tree.advance::<COUNTED>(winner, line);
        }
        if let Some((text, n)) = held {
            push_counted(buf, n, text);
        }
        Ok(consumed)
    }

    /// The symbol string this order sorts and merges by (see the
    /// [module docs](self)).
    fn symbols(self) -> Symbols {
        let lead = if self.numeric() {
            Lead::Numeric
        } else if self.flags.fold_case {
            Lead::Folded
        } else {
            Lead::Bytes
        };
        Symbols {
            order: self,
            lead,
            tail: !self.flags.unique && !self.flags.stable,
            lead_reverse: self.flags.key_reverse,
            tail_reverse: self.flags.tail_reverse,
        }
    }

    /// Cuts `runs` — each sorted under this order, the way `sort <flags>`
    /// or a merge leaves it — into `parts` key ranges whose merges are
    /// independent: `result[p][r]` is the byte range of run `r` that
    /// belongs to part `p`, every run is tiled by its ranges in part
    /// order, and merging each part's ranges (runs in the same order) and
    /// concatenating the outputs in part order is byte for byte the flat
    /// [`merge`](LineOrder::merge) of the whole runs.
    ///
    /// The contract is about which lines a boundary may separate: only
    /// lines the full comparator orders *strictly*. Each boundary is a
    /// splitter line, and every run is cut at its lower bound — the first
    /// line that does not compare less than the splitter — so all lines
    /// that compare equal to it, in every run, start the same part. Lines
    /// the comparator calls equal (key-equal lines under `-u`, whatever
    /// their bytes under `-n` or `-f`; identical lines otherwise)
    /// therefore never straddle a boundary: `-u` drops exactly the
    /// duplicates the flat merge drops, and the stream-index tie-break
    /// decides among the same candidates.
    ///
    /// Splitters are lines sampled one per so many bytes across the runs (a
    /// fixed number per part, so parts come out within a few percent of
    /// even unless one key dominates), which makes the cut a pure function
    /// of the runs. Parts may be empty: an input of one repeated line puts
    /// everything in the last part.
    ///
    /// `done_with` is called with a run's index each time the search has
    /// finished reading that run for the moment — after sampling it, and
    /// after each boundary search in it. Sampling and binary searches
    /// touch pages all over a run (and a page fault maps its neighbours
    /// along with it), so a caller whose runs are mapped files and should
    /// stay out of core drops the run's resident pages there; the search
    /// keeps copies of the lines it sampled, not references into the runs.
    /// Callers with runs in memory pass `&mut |_| {}`.
    pub fn partition(
        self,
        runs: &[&[u8]],
        parts: usize,
        done_with: &mut dyn FnMut(usize),
    ) -> Vec<Vec<std::ops::Range<usize>>> {
        /// Samples per part: the largest part exceeds the mean by a few
        /// percent at 32, and the whole sample stays a few KB to sort.
        const OVERSAMPLE: usize = 32;
        let parts = parts.max(1);
        let symbols = self.symbols();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let mut samples: Vec<Vec<u8>> = Vec::new();
        if parts > 1 && total > 0 {
            let step = (total / (parts * OVERSAMPLE)).max(1);
            // One sample per `step` bytes of the runs' concatenation, at an
            // offset inside its step that changes from sample to sample
            // (multiples of the golden ratio): runs about as long as a
            // step would otherwise all be sampled at the same depth, and
            // the sample would see only that slice of the key space.
            let mut cell = 0usize;
            let mut skipped = 0usize;
            for (r, run) in runs.iter().enumerate() {
                loop {
                    let jitter = (cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
                    let pos = cell * step + (jitter as usize) % step - skipped;
                    if pos >= run.len() {
                        break;
                    }
                    let (start, end) = line_around(run, 0, pos);
                    samples.push(self.payload(&run[start..end]).to_vec());
                    cell += 1;
                }
                skipped += run.len();
                done_with(r);
            }
            samples.sort_by(|a, b| symbols.compare(a, b));
        }
        let mut from = vec![0usize; runs.len()];
        let mut cuts = Vec::with_capacity(parts);
        for p in 1..=parts {
            let upto: Vec<usize> = match samples.get(p * samples.len() / parts) {
                // Searching from the previous cut keeps every run's
                // ranges in order whatever the run holds.
                Some(splitter) if p < parts => (0..runs.len())
                    .map(|r| {
                        let cut = self.lower_bound(runs[r], from[r], splitter);
                        done_with(r);
                        cut
                    })
                    .collect(),
                _ => runs.iter().map(|r| r.len()).collect(),
            };
            cuts.push(from.iter().zip(&upto).map(|(&lo, &hi)| lo..hi).collect());
            from = upto;
        }
        cuts
    }

    /// The offset of the first line of `run`, at or after the line start
    /// `lo`, that does not compare less than `splitter` (`run.len()` when
    /// every line does).
    fn lower_bound(self, run: &[u8], mut lo: usize, splitter: &[u8]) -> usize {
        let symbols = self.symbols();
        // `lo` and `hi` are line starts (or the end): lines before `lo`
        // compare less than the splitter, lines from `hi` on do not.
        let mut hi = run.len();
        while lo < hi {
            let (start, end) = line_around(run, lo, lo + (hi - lo) / 2);
            if symbols.compare(self.payload(&run[start..end]), splitter) == Ordering::Less {
                lo = (end + 1).min(run.len());
            } else {
                hi = start;
            }
        }
        lo
    }
}

/// The bounds, newline excluded, of the line of `run` that holds byte
/// `pos`; `from` is a line start at or before `pos`.
fn line_around(run: &[u8], from: usize, pos: usize) -> (usize, usize) {
    let start = run[from..pos]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(from, |nl| from + nl + 1);
    let end = run[pos..]
        .iter()
        .position(|&b| b == b'\n')
        .map_or(run.len(), |nl| pos + nl);
    (start, end)
}

/// Counts below this are tallied in a table indexed by the count; larger
/// ones — a handful of lines in any text — in a map.
const SMALL_COUNTS: usize = 256;

/// How a numeric `sort` orders a counted run: the order of
/// `sort | uniq -c | sort -rn` (see "Count order" in the
/// [module docs](self)). Made only by [`LineOrder::count_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CountOrder {
    /// Higher counts first: the numeric key is reversed.
    counts_descending: bool,
    /// Lines of one count go out in the reverse of the counted run's
    /// order: the last resort runs the other way from the counting sort.
    against_stream: bool,
}

/// A counted run regrouped by count ([`CountOrder::regroup`]).
#[derive(Debug)]
pub struct CountGroups {
    /// The run's lines, each newline-terminated, one group per count.
    pub bytes: Vec<u8>,
    /// Each group's count and its byte range in `bytes`, in output order.
    pub groups: Vec<(u64, std::ops::Range<usize>)>,
}

impl LineOrder {
    /// The count-order licence in the kernel's terms: `Some` when this
    /// order is a counting sort's — byte order, either way, without `-u`
    /// or `-s` — and `then` is a numeric order without `-f`, `-u` or `-s`,
    /// so that `then` of the counted run orders lines by count first and
    /// by their bytes second, the counting sort's order or its reverse.
    pub fn count_order(self, then: LineOrder) -> Option<CountOrder> {
        let (pair, next) = (self.flags, then.flags);
        let plain = |f: SortFlags| !f.fold_case && !f.unique && !f.stable;
        let counting = !self.counted && !self.numeric() && plain(pair);
        let numeric = !then.counted && then.numeric() && plain(next);
        (counting && numeric).then_some(CountOrder {
            counts_descending: next.key_reverse,
            // Equal counts print equal columns, so the last resort orders
            // the lines as their bytes past the column do.
            against_stream: next.tail_reverse != pair.key_reverse,
        })
    }
}

impl CountOrder {
    /// Whether lines of one count go out against the order of the counted
    /// run: then a stream cut into blocks gives each count's lines block
    /// by block from the last.
    pub fn against_stream(self) -> bool {
        self.against_stream
    }

    /// Whether `a` goes out before `b`, both counts.
    pub fn precedes(self, a: u64, b: u64) -> bool {
        if self.counts_descending {
            a > b
        } else {
            a < b
        }
    }

    /// Regroups `counted` — a counted run, or a line-aligned slice of one
    /// — into this order: every line of one count in one group, the groups
    /// by count, a group's lines in the run's order or against it. The
    /// bytes the numeric `sort` prints for the run (an unterminated final
    /// line gets its newline). One scan and one copy, no comparison: the
    /// scan tallies the bytes of each count, which places every group, and
    /// the copy puts each line at its group's cursor — from the group's end
    /// backwards when the lines go against the run. About 25 ns a line on
    /// one core of a 2-core host, where `sort -rn` of the same bytes takes
    /// some 200.
    pub fn regroup(self, counted: &[u8]) -> CountGroups {
        let mut tally = Tally::new();
        // Each line's length, newline excluded, so that the copy need not
        // look for the lines again.
        let mut lens: Vec<u32> = Vec::with_capacity(counted.len() / 16);
        let mut at = 0;
        while at < counted.len() {
            let end = line_end(counted, at, |_| {});
            *tally.slot(count_of(&counted[at..end])) += end - at + 1;
            lens.push(u32::try_from(end - at).expect("a counted line fits a sort segment"));
            at = end + 1;
        }
        let mut counts = tally.counts();
        counts.sort_unstable_by(|a, b| {
            if self.counts_descending {
                b.0.cmp(&a.0)
            } else {
                a.0.cmp(&b.0)
            }
        });
        let mut groups = Vec::with_capacity(counts.len());
        let mut at = 0;
        for (count, bytes) in counts {
            groups.push((count, at..at + bytes));
            // Where the group's next line goes.
            *tally.slot(count) = if self.against_stream { at + bytes } else { at };
            at += bytes;
        }
        let mut bytes = vec![0u8; at];
        let mut from = 0;
        for len in lens {
            let line = &counted[from..from + len as usize];
            from += line.len() + 1;
            let slot = tally.slot(count_of(line));
            let start = if self.against_stream {
                *slot -= line.len() + 1;
                *slot
            } else {
                *slot += line.len() + 1;
                *slot - line.len() - 1
            };
            let out = &mut bytes[start..=start + line.len()];
            out[..line.len()].copy_from_slice(line);
            out[line.len()] = b'\n';
        }
        CountGroups { bytes, groups }
    }
}

/// A number per count: a table for the counts below [`SMALL_COUNTS`],
/// which is nearly every line of a text, and a map for the rest.
struct Tally {
    small: [usize; SMALL_COUNTS],
    large: std::collections::HashMap<u64, usize>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            small: [0; SMALL_COUNTS],
            large: std::collections::HashMap::new(),
        }
    }

    #[inline(always)]
    fn slot(&mut self, count: u64) -> &mut usize {
        match usize::try_from(count) {
            Ok(c) if c < SMALL_COUNTS => &mut self.small[c],
            _ => self.large.entry(count).or_default(),
        }
    }

    /// Every count with a nonzero number, and the number.
    fn counts(&self) -> Vec<(u64, usize)> {
        (self.small.iter().enumerate())
            .filter(|(_, &n)| n > 0)
            .map(|(c, &n)| (c as u64, n))
            .chain(self.large.iter().map(|(&c, &n)| (c, n)))
            .collect()
    }
}

/// The count of a counted line: [`split_counted`]'s, read at once from
/// the column of a one-digit count, which most lines of a word count have.
#[inline(always)]
fn count_of(line: &[u8]) -> u64 {
    match line {
        [b' ', b' ', b' ', b' ', b' ', b' ', digit @ b'0'..=b'9', b' ', ..] => {
            u64::from(digit - b'0')
        }
        _ => split_counted(line).0,
    }
}

/// What a symbol string starts with (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
enum Lead {
    /// The line's bytes: plain byte order.
    Bytes,
    /// The line's bytes, ASCII upper-cased: `-f`.
    Folded,
    /// The eight big-endian bytes of the line's numeric key: `-n`, `-k1n`.
    Numeric,
}

/// The symbol string of one flag set: the order a merge compares lines by.
#[derive(Debug, Clone, Copy)]
struct Symbols {
    /// The order, for its numeric key.
    order: LineOrder,
    lead: Lead,
    /// The line's bytes follow a folded or numeric lead: the last-resort
    /// order, absent under `-u` and `-s`.
    tail: bool,
    /// The key reversed: every symbol of the lead complemented.
    lead_reverse: bool,
    /// Global `-r`: every symbol of the tail complemented.
    tail_reverse: bool,
}

/// The symbol that ends a part of a symbol string; a byte `b` is `b + 1`.
const END: u32 = 0;
/// The largest symbol: a reversed part maps a symbol `s` to
/// `MAX_SYMBOL - s`.
const MAX_SYMBOL: u32 = 256;

/// The code of a line equal to its base.
const DUPLICATE: u64 = 0;
/// The code of a drained stream: after every line.
const DRAINED: u64 = u64::MAX;
/// Low bits of a code that hold the symbol (`0..=MAX_SYMBOL`).
const SYMBOL_BITS: u32 = 9;
/// Offsets are stored as `OFFSET_LIMIT - offset`, so that a longer prefix
/// shared with the base is a smaller code; no offset reaches it.
const OFFSET_LIMIT: u64 = 1 << 48;

/// The offset-value code of a line whose symbol string first differs from
/// its base's at `offset`, where the line has `symbol`.
fn ovc(offset: usize, symbol: u32) -> u64 {
    (OFFSET_LIMIT - offset as u64) << SYMBOL_BITS | u64::from(symbol)
}

/// The offset a code (not [`DUPLICATE`] or [`DRAINED`]) was made from.
fn ovc_offset(code: u64) -> usize {
    (OFFSET_LIMIT - (code >> SYMBOL_BITS)) as usize
}

/// ASCII upper-casing of eight bytes at once: a byte in `a..=z` loses
/// `0x20`, every other byte stays as it is.
fn upper_word(w: u64) -> u64 {
    // The low seven bits of each byte, offset so that a byte's high bit
    // says "at least `a`" and "past `z`"; no sum carries into the next byte.
    let low = w & !HIGHS;
    let from_a = low + ONES * (0x80 - u64::from(b'a'));
    let past_z = low + ONES * (0x80 - u64::from(b'z') - 1);
    let lower = from_a & !past_z & !w & HIGHS;
    w - (lower >> 2)
}

/// The first index at or after `from` where `a` and `b` differ — as bytes,
/// or upper-cased when `fold` — with the symbol of each there (a byte plus
/// one, [`END`] past its end); `None` when they agree from `from` on.
/// Callers know the two agree before `from`, so `from` past the end of one
/// means both ended there.
#[inline]
fn first_diff(a: &[u8], b: &[u8], from: usize, fold: bool) -> Option<(usize, u32, u32)> {
    let n = a.len().min(b.len());
    let mut at = from;
    if at > n {
        return None;
    }
    let fold_byte = |c: u8| if fold { c.to_ascii_uppercase() } else { c };
    while at + 8 <= n {
        let (x, y) = (word_at(a, at), word_at(b, at));
        let differ = if fold {
            upper_word(x) ^ upper_word(y)
        } else {
            x ^ y
        };
        if differ != 0 {
            at += (differ.trailing_zeros() / 8) as usize;
            break;
        }
        at += 8;
    }
    while at < n && fold_byte(a[at]) == fold_byte(b[at]) {
        at += 1;
    }
    let symbol = |s: &[u8]| s.get(at).map_or(END, |&c| u32::from(fold_byte(c)) + 1);
    let (x, y) = (symbol(a), symbol(b));
    (x != y).then_some((at, x, y))
}

/// The bytes `data[start..end]`, at most eight of them, as a big-endian
/// word, zero-padded: one load where `data` has eight bytes from `start`.
fn lead_word(data: &[u8], start: usize, end: usize) -> u64 {
    let len = end - start;
    let word = if start + 8 <= data.len() {
        let w = word_at(data, start);
        if len >= 8 {
            w
        } else {
            w & ((1u64 << (8 * len)) - 1)
        }
    } else {
        data[start..end]
            .iter()
            .rev()
            .fold(0u64, |w, &b| w << 8 | u64::from(b))
    };
    word.swap_bytes()
}

/// [`first_diff`] over a line's bytes, the first eight positions decided
/// by the heads' words: a line of up to eight bytes is one XOR.
#[inline]
fn bytes_diff(a: Head, b: Head, from: usize, fold: bool) -> Option<(usize, u32, u32)> {
    let n = a.text.len().min(b.text.len());
    let mut at = from;
    if at < 8 && at <= n {
        // Past a line's end its word is zero-padded, so a difference the
        // words show past the shorter line's end is read at that end.
        let differ = (a.word ^ b.word) << (8 * at);
        at = if differ == 0 {
            n.min(8)
        } else {
            n.min(at + (differ.leading_zeros() / 8) as usize)
        };
    }
    first_diff(a.text, b.text, at, fold)
}

impl Symbols {
    /// The first position at or after `from` where the symbol strings of
    /// `a` and `b` differ, with the symbol of each there; `None` when they
    /// are equal from `from` on. The strings must agree before `from`.
    #[inline(always)]
    fn diff(self, a: Head, b: Head, from: usize) -> Option<(usize, u32, u32)> {
        // The bytes as the part after a lead of `skip` symbols.
        let tail = |skip: usize| {
            first_diff(a.text, b.text, from.saturating_sub(skip), false)
                .map(|(at, x, y)| (skip + at, self.orient(x, true), self.orient(y, true)))
        };
        let lead = |(at, x, y)| (at, self.orient(x, false), self.orient(y, false));
        match self.lead {
            Lead::Bytes => bytes_diff(a, b, from, false).map(lead),
            Lead::Folded => {
                let folded = if from <= a.text.len().min(b.text.len()) {
                    bytes_diff(a, b, from, true)
                } else {
                    None
                };
                // Equal folded, so equally long: the bytes follow the end.
                if folded.is_none() && self.tail {
                    tail(a.text.len() + 1)
                } else {
                    folded.map(lead)
                }
            }
            Lead::Numeric => {
                let keys = if from < 8 {
                    (a.word ^ b.word) << (8 * from)
                } else {
                    0
                };
                if keys != 0 {
                    let at = from + (keys.leading_zeros() / 8) as usize;
                    let symbol = |key: u64| u32::from((key >> (56 - 8 * at)) as u8) + 1;
                    Some(lead((at, symbol(a.word), symbol(b.word))))
                } else if self.tail {
                    tail(8)
                } else {
                    None
                }
            }
        }
    }

    /// The first symbol of a line's string: its code against the empty
    /// base, which every line follows, is `ovc(0, first)`.
    fn first(self, head: Head) -> u32 {
        self.orient(
            match self.lead {
                Lead::Bytes => head.text.first().map_or(END, |&b| u32::from(b) + 1),
                Lead::Folded => head
                    .text
                    .first()
                    .map_or(END, |&b| u32::from(b.to_ascii_uppercase()) + 1),
                Lead::Numeric => (head.word >> 56) as u32 + 1,
            },
            false,
        )
    }

    /// Whether the symbols of the lead, or of the `tail`, are complemented.
    fn reversed(self, tail: bool) -> bool {
        if tail {
            self.tail_reverse
        } else {
            self.lead_reverse
        }
    }

    /// A symbol of the lead, or of the `tail`, as the order compares it.
    fn orient(self, symbol: u32, tail: bool) -> u32 {
        if self.reversed(tail) {
            MAX_SYMBOL - symbol
        } else {
            symbol
        }
    }

    /// The line `data[start..end]` as a merge compares it.
    #[inline(always)]
    fn head_in(self, data: &[u8], start: usize, end: usize) -> Head<'_> {
        let text = &data[start..end];
        let lead = lead_word(data, start, end);
        let word = match self.lead {
            Lead::Bytes => lead,
            Lead::Folded => upper_word(lead),
            Lead::Numeric => self.order.number(text),
        };
        Head { text, word }
    }

    /// The full comparator: the order of two lines' symbol strings.
    fn compare(self, a: &[u8], b: &[u8]) -> Ordering {
        let (a, b) = (self.head_in(a, 0, a.len()), self.head_in(b, 0, b.len()));
        match self.diff(a, b, 0) {
            None => Ordering::Equal,
            Some((_, x, y)) => x.cmp(&y),
        }
    }

    /// Whether [`compare`](Symbols::compare) calls two lines equal, without
    /// ordering them: identical bytes, but for a lead `-u` leaves alone —
    /// the same folded bytes, or the same number.
    fn equal(self, a: &[u8], b: &[u8]) -> bool {
        match self.lead {
            Lead::Folded if !self.tail => a.eq_ignore_ascii_case(b),
            Lead::Numeric if !self.tail => self.order.number(a) == self.order.number(b),
            _ => a == b,
        }
    }

    /// [`compare`](Symbols::compare) of two lines whose strings agree
    /// before byte `depth` of one part — the lead, or with `tail` the raw
    /// bytes after it — where agreeing takes NULs past a line's end for the
    /// end: the comparison resumes there. A numeric lead is one word, so
    /// lines past it resume in the tail.
    fn compare_past(self, a: &[u8], b: &[u8], tail: bool, depth: usize) -> Ordering {
        let bytes = |from: usize, fold| first_diff(a, b, from.min(a.len()).min(b.len()), fold);
        let mut found = match (tail, self.lead) {
            (true, _) | (false, Lead::Bytes) => bytes(depth, false),
            (false, Lead::Folded) => bytes(depth, true),
            (false, Lead::Numeric) => None,
        };
        let mut in_tail = tail;
        if found.is_none() && !tail && self.tail && !matches!(self.lead, Lead::Bytes) {
            found = bytes(0, false);
            in_tail = true;
        }
        match found {
            None => Ordering::Equal,
            Some((_, x, y)) => self.orient(x, in_tail).cmp(&self.orient(y, in_tail)),
        }
    }

    /// The sort kernel's key of the line `input[start..start + len]` at
    /// one step: eight symbols of its string as a big-endian word,
    /// complemented where that part is reversed. Of the lead (`tail` false) that is the
    /// numeric key, or the bytes from `depth` on (upper-cased under `-f`);
    /// of the raw bytes that follow a folded or numeric lead (`tail`), the
    /// bytes from `depth` on. Bytes past the line's end read as zero, so
    /// keys of one step order lines as their bytes there do, except that a
    /// line and the same line with NULs appended tie — the line's length
    /// tells them apart.
    #[inline(always)]
    fn sort_key(self, input: &[u8], start: usize, len: usize, tail: bool, depth: usize) -> u64 {
        let key = match self.lead {
            Lead::Numeric if !tail => self.order.number(&input[start..start + len]),
            _ if depth >= len => 0,
            lead => {
                let word = lead_word(input, start + depth, start + len.min(depth + 8));
                if !tail && matches!(lead, Lead::Folded) {
                    upper_word(word)
                } else {
                    word
                }
            }
        };
        if self.reversed(tail) {
            !key
        } else {
            key
        }
    }

    /// The step the kernel takes after the first, `(false, 0)`, among
    /// lines that tie there: the lead's next eight bytes, or after a
    /// numeric lead the start of the tail.
    fn first_step(self) -> (bool, usize) {
        match self.lead {
            Lead::Numeric => (true, 0),
            Lead::Bytes | Lead::Folded => (false, 8),
        }
    }

    /// The entry of the line `input[start..end]`, keyed for the first step
    /// and the one after it.
    #[inline(always)]
    fn entry(self, input: &[u8], start: usize, end: usize) -> Entry {
        let len = end - start;
        let (tail, depth) = self.first_step();
        Entry {
            key: self.sort_key(input, start, len, false, 0),
            next: self.sort_key(input, start, len, tail, depth),
            start: start as u32,
            len: len as u32,
        }
    }

    /// Sorts `items` — entries of lines of `input` ([`entry`]) in input
    /// order — into this order, stably: lines the order calls equal keep
    /// their input order (see "The kernel" in the [module docs](self)).
    ///
    /// [`entry`]: Symbols::entry
    fn sort_lines<T: Sortable>(self, input: &[u8], items: &mut [T]) {
        let mut scratch = Vec::new();
        // Ranges of `items` still to order, each keyed for the step (part,
        // depth) given with it; the lines of a range agree before that.
        let mut work = vec![(0..items.len(), false, 0)];
        while let Some((range, tail, depth)) = work.pop() {
            let run = &mut items[range.clone()];
            if run.len() <= INSERTION_RUN {
                insertion_sort(run, |a, b| a.entry().key < b.entry().key);
            } else {
                radix_sort(run, &mut scratch);
            }
            let mut from = 0;
            while from < run.len() {
                let key = run[from].entry().key;
                let to = from
                    + 1
                    + run[from + 1..]
                        .iter()
                        .take_while(|t| t.entry().key == key)
                        .count();
                if to - from > 1 {
                    let at = range.start + from;
                    self.settle_ties(input, &mut run[from..to], at, tail, depth, &mut work);
                }
                from = to;
            }
        }
    }

    /// Orders `ties` — lines at `at..` of the kernel's items whose keys
    /// for the step (`tail`, `depth`) are equal. Past the first step a few
    /// are put in order outright by comparing the rest of their strings
    /// ([`compare_past`]); otherwise the next step is keyed and queued on
    /// `work` — from the entries' `next` after the first step, from the
    /// lines after any other: the next eight bytes, when a line goes on
    /// past this word; once every line ends inside it, their lengths first,
    /// then the raw bytes after a folded or numeric lead.
    ///
    /// [`compare_past`]: Symbols::compare_past
    fn settle_ties<T: Sortable>(
        self,
        input: &[u8],
        ties: &mut [T],
        at: usize,
        tail: bool,
        depth: usize,
        work: &mut Vec<(std::ops::Range<usize>, bool, usize)>,
    ) {
        let bytes = tail || !matches!(self.lead, Lead::Numeric);
        let deeper = depth + 8;
        let first = !tail && depth == 0;
        if ties.len() <= INSERTION_RUN && !first {
            insertion_sort(ties, |a, b| {
                let (a, b) = (a.entry().line(input), b.entry().line(input));
                self.compare_past(a, b, tail, deeper) == Ordering::Less
            });
            return;
        }
        // The step after the first is reached from the first alone, and its
        // keys are in the entries.
        let mut step = |ties: &mut [T], at: usize, (tail, depth): (bool, usize)| {
            for t in ties.iter_mut() {
                let e = t.entry();
                t.entry_mut().key = if (tail, depth) == self.first_step() {
                    e.next
                } else {
                    self.sort_key(input, e.start as usize, e.len as usize, tail, depth)
                };
            }
            work.push((at..at + ties.len(), tail, depth));
        };
        if bytes && ties.iter().any(|t| t.entry().len as usize > deeper) {
            return step(ties, at, (tail, deeper));
        }
        // Equal up to their ends, NULs past the shorter one: the shorter
        // line first (last where the part is reversed).
        let len = |t: &T| t.entry().len;
        if bytes && ties.windows(2).any(|w| len(&w[0]) != len(&w[1])) {
            let reversed = self.reversed(tail);
            ties.sort_by_key(|t| if reversed { !len(t) } else { len(t) });
        }
        // The lead is settled; absent `-u`, the raw bytes after a folded or
        // numeric lead come next — after a folded one, for lines of one
        // length.
        if tail || !self.tail || matches!(self.lead, Lead::Bytes) {
            return;
        }
        let mut from = 0;
        while from < ties.len() {
            let to = if bytes {
                let n = len(&ties[from]);
                from + 1 + ties[from + 1..].iter().take_while(|&t| len(t) == n).count()
            } else {
                ties.len()
            };
            if to - from > 1 {
                step(&mut ties[from..to], at + from, (true, 0));
            }
            from = to;
        }
    }
}

/// A line as a merge compares it: its bytes (past the count column in
/// counted mode) and the first eight symbols of its string's lead as one
/// big-endian word — the numeric key, or the first eight bytes
/// (upper-cased under `-f`) zero-padded.
#[derive(Clone, Copy)]
struct Head<'a> {
    text: &'a [u8],
    word: u64,
}

/// One input of a merge, at its current line. `"\n"` holds one empty line,
/// `""` none, and an unterminated final line is a line. A counted stream's
/// line is what follows the count column, the count beside it.
struct Stream<'a> {
    /// The current line, `None` once the stream is drained.
    head: Option<Head<'a>>,
    /// The current line's count (counted streams only).
    count: u64,
    /// What follows the current line and its newline.
    rest: &'a [u8],
}

impl<'a> Stream<'a> {
    fn new<const COUNTED: bool>(symbols: Symbols, data: &'a [u8]) -> Stream<'a> {
        let mut stream = Stream {
            head: None,
            count: 0,
            rest: data,
        };
        stream.advance::<COUNTED>(symbols);
        stream
    }

    #[inline(always)]
    fn advance<const COUNTED: bool>(&mut self, symbols: Symbols) {
        self.head = None;
        if !self.rest.is_empty() {
            let end = line_end(self.rest, 0, |_| {});
            let (mut text, rest) = self.rest.split_at(end);
            if COUNTED {
                (self.count, text) = split_counted(text);
            }
            // The line's bytes as a slice of `rest`, for the one-load word.
            self.head = Some(symbols.head_in(self.rest, end - text.len(), end));
            self.rest = rest.get(1..).unwrap_or(&[]);
        }
    }
}

/// A parked-at marker: the node has no contender yet (the tree is being
/// built).
const EMPTY: usize = usize::MAX;

/// The merge's tournament: a loser tree over offset-value codes (see "The
/// kernel" in the [module docs](self)).
struct LoserTree<'a> {
    symbols: Symbols,
    streams: Vec<Stream<'a>>,
    /// `(code, stream)`. Leaf `i` sits at position `i + k` of an implicit
    /// binary tree; `nodes[n]` for `1 <= n < k` holds the loser of the match
    /// played at node `n`, coded against that match's winner, and
    /// `nodes[0]` the overall winner, coded against the line that won
    /// before it.
    nodes: Vec<(u64, usize)>,
}

impl<'a> LoserTree<'a> {
    fn new<const COUNTED: bool>(order: LineOrder, data: &[&'a [u8]]) -> LoserTree<'a> {
        let symbols = order.symbols();
        let mut tree = LoserTree {
            symbols,
            streams: data
                .iter()
                .map(|d| Stream::new::<COUNTED>(symbols, d))
                .collect(),
            nodes: vec![(DRAINED, EMPTY); data.len().max(1)],
        };
        // Every stream's line plays up from its leaf, coded against the
        // empty base; a contender parks at the first empty node (the other
        // subtree's winner plays it later).
        for leaf in 0..data.len() {
            let code = tree.streams[leaf]
                .head
                .map_or(DRAINED, |head| ovc(0, symbols.first(head)));
            tree.replay(leaf, code);
        }
        tree
    }

    /// The overall winner and its code, `None` once every stream is drained.
    fn winner(&self) -> Option<(u64, usize)> {
        let (code, winner) = self.nodes[0];
        (code != DRAINED).then_some((code, winner))
    }

    /// Carries stream `leaf`, its line coded `code` against the base every
    /// node on its path holds codes against, from its leaf to the root.
    #[inline(always)]
    fn replay(&mut self, leaf: usize, mut code: u64) {
        let k = self.streams.len();
        let mut winner = leaf;
        let mut node = (leaf + k) / 2;
        while node > 0 {
            let (held_code, held) = self.nodes[node];
            if held == EMPTY {
                self.nodes[node] = (code, winner);
                return;
            }
            if held_code == code {
                // The same code against the same base: the strings agree
                // through its offset (or are equal, or both drained).
                let (held_wins, loser_code) = match code {
                    DUPLICATE | DRAINED => (held < winner, code),
                    _ => self.decide(held, winner, ovc_offset(code) + 1),
                };
                if held_wins {
                    self.nodes[node] = (loser_code, winner);
                    winner = held;
                } else {
                    self.nodes[node].0 = loser_code;
                }
            } else if held_code < code {
                self.nodes[node] = (code, winner);
                (code, winner) = (held_code, held);
            }
            node /= 2;
        }
        self.nodes[0] = (code, winner);
    }

    /// Carries stream `leaf` from its leaf to the root comparing lines from
    /// their first symbol: its line precedes the one the codes on its path
    /// are against, so they cannot order it. Each loser on the way is
    /// re-coded against the line that beat it, which is what codes mean.
    fn replay_in_full(&mut self, leaf: usize) {
        let k = self.streams.len();
        let mut winner = leaf;
        let mut node = (leaf + k) / 2;
        while node > 0 {
            let held = self.nodes[node].1;
            let (held_wins, loser_code) = self.decide(held, winner, 0);
            if held_wins {
                self.nodes[node] = (loser_code, winner);
                winner = held;
            } else {
                self.nodes[node].0 = loser_code;
            }
            node /= 2;
        }
        self.nodes[0].1 = winner;
    }

    /// Plays stream `a` against stream `b`, whose lines' symbol strings
    /// agree before `from`: whether `a` wins, and the loser's code against
    /// the winner. A drained stream loses to a live one, and equal lines go
    /// to the earlier stream, the loser coded a duplicate.
    fn decide(&self, a: usize, b: usize, from: usize) -> (bool, u64) {
        match (self.streams[a].head, self.streams[b].head) {
            (Some(x), Some(y)) => match self.symbols.diff(x, y, from) {
                None => (a < b, DUPLICATE),
                Some((at, sx, sy)) if sx < sy => (true, ovc(at, sy)),
                Some((at, sx, _)) => (false, ovc(at, sx)),
            },
            (x, y) => (x.is_some() || (y.is_none() && a < b), DRAINED),
        }
    }

    /// Moves stream `winner` past `line`, the line it just gave the
    /// output, and plays its next line coded against `line`.
    fn advance<const COUNTED: bool>(&mut self, winner: usize, line: Head<'a>) {
        let stream = &mut self.streams[winner];
        stream.advance::<COUNTED>(self.symbols);
        let Some(next) = stream.head else {
            return self.replay(winner, DRAINED);
        };
        match self.symbols.diff(line, next, 0) {
            // Equal to the line that just won, so it wins the same matches:
            // the codes on its path are against that line already.
            None => self.nodes[0].0 = DUPLICATE,
            Some((at, x, y)) if x < y => self.replay(winner, ovc(at, y)),
            // The stream is not sorted: `next` precedes `line`, so it
            // precedes every other stream's line too and wins its way up.
            // It is no duplicate; its code against the empty base says so.
            Some(_) => {
                self.replay_in_full(winner);
                self.nodes[0].0 = ovc(0, self.symbols.first(next));
            }
        }
    }
}

/// The fragment consumer for [`LineOrder::merge_to`]: receives each merged
/// line-aligned fragment plus, per input stream, the count of bytes the
/// merge has consumed from it so far.
pub type MergeSink<'a> = dyn FnMut(&[u8], &[usize]) -> Result<(), CmdError> + 'a;

impl UnixCommand for SortCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    fn reads_stdin(&self) -> bool {
        self.files.is_empty() || self.files.iter().any(|f| f == "-")
    }

    fn effect_class(&self) -> EffectClass {
        // Sorted pieces merge — unless a file's lines join the input's,
        // or `-m` merges instead of sorting.
        if self.stdin_order().is_some() {
            EffectClass::CommutativeFold
        } else {
            EffectClass::Unknown
        }
    }

    /// `None` under `-m`, which merges instead, and with a file operand,
    /// whose lines join the input's.
    fn stdin_order(&self) -> Option<LineOrder> {
        (!self.merge && self.files.is_empty()).then_some(LineOrder {
            flags: self.flags,
            counted: false,
        })
    }

    fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let mut contents: Vec<Bytes> = Vec::new();
        if self.files.is_empty() {
            contents.push(input);
        } else {
            for f in &self.files {
                contents.push(if f == "-" {
                    input.clone()
                } else {
                    ctx.vfs
                        .read_bytes(f)
                        .ok_or_else(|| CmdError::new("sort", format!("cannot read: {f}")))?
                });
            }
        }
        let order = LineOrder {
            flags: self.flags,
            counted: false,
        };
        Ok(Bytes::from(if self.merge {
            let streams: Vec<&[u8]> = contents.iter().map(Bytes::as_bytes).collect();
            order.merge(&streams)
        } else {
            order.sort(kq_stream::concat_bytes(&contents).as_bytes(), MAX_SEGMENT)?
        }))
    }
}

/// The comparator this module used before the key-cached kernel, kept
/// verbatim as the oracle the kernel is tested against: it re-derives keys
/// inside every comparison and works on `&str`. Public for the tests of
/// the folds built on [`LineOrder`], not for use.
#[doc(hidden)]
pub mod reference {
    use super::{LineOrder, SortFlags};
    use std::cmp::Ordering;

    /// `sort <flags>` of `input` for `order`'s flags (counted or not).
    pub fn sort(order: LineOrder, input: &str) -> String {
        sort_lines(input, order.flags)
    }

    /// `sort <flags> | uniq -c` of `input` for `order`'s flags.
    pub fn sort_count(order: LineOrder, input: &str) -> String {
        count_lines(&sort_lines(input, order.flags))
    }

    fn numeric_prefix(s: &str) -> f64 {
        let t = s.trim_start_matches([' ', '\t']);
        let mut end = 0;
        let bytes = t.as_bytes();
        if end < bytes.len() && bytes[end] == b'-' {
            end += 1;
        }
        let mut seen_digit = false;
        while end < bytes.len() && bytes[end].is_ascii_digit() {
            end += 1;
            seen_digit = true;
        }
        if end < bytes.len() && bytes[end] == b'.' {
            let mut e2 = end + 1;
            while e2 < bytes.len() && bytes[e2].is_ascii_digit() {
                e2 += 1;
                seen_digit = true;
            }
            if e2 > end + 1 {
                end = e2;
            }
        }
        if !seen_digit {
            return 0.0;
        }
        t[..end].parse().unwrap_or(0.0)
    }

    pub(super) fn key_compare(a: &str, b: &str, flags: SortFlags) -> Ordering {
        if flags.key_field1_numeric {
            let fa = a.split_ascii_whitespace().next().unwrap_or("");
            let fb = b.split_ascii_whitespace().next().unwrap_or("");
            return numeric_prefix(fa)
                .partial_cmp(&numeric_prefix(fb))
                .unwrap_or(Ordering::Equal);
        }
        if flags.numeric {
            return numeric_prefix(a)
                .partial_cmp(&numeric_prefix(b))
                .unwrap_or(Ordering::Equal);
        }
        if flags.fold_case {
            let fold = |s: &str| {
                s.bytes()
                    .map(|c| c.to_ascii_uppercase())
                    .collect::<Vec<_>>()
            };
            return fold(a).cmp(&fold(b));
        }
        a.as_bytes().cmp(b.as_bytes())
    }

    pub(super) fn line_compare(a: &str, b: &str, flags: SortFlags) -> Ordering {
        let orient = |ord: Ordering, reverse: bool| if reverse { ord.reverse() } else { ord };
        let primary = orient(key_compare(a, b, flags), flags.key_reverse);
        if primary != Ordering::Equal || flags.unique || flags.stable {
            primary
        } else {
            orient(a.as_bytes().cmp(b.as_bytes()), flags.tail_reverse)
        }
    }

    pub(super) fn sort_lines(input: &str, flags: SortFlags) -> String {
        let mut lines: Vec<&str> = input.split_terminator('\n').collect();
        lines.sort_by(|a, b| line_compare(a, b, flags));
        emit(lines, flags)
    }

    /// Picks the smallest head by (line order, stream index) until every
    /// stream is drained.
    #[cfg(test)]
    pub(super) fn merge_sorted(streams: &[&str], flags: SortFlags) -> String {
        let mut heads: Vec<_> = streams
            .iter()
            .map(|s| s.split_terminator('\n').peekable())
            .collect();
        let mut merged = Vec::new();
        loop {
            let mut best: Option<(usize, &str)> = None;
            for (i, head) in heads.iter_mut().enumerate() {
                if let Some(&line) = head.peek() {
                    if best.is_none_or(|(_, b)| line_compare(line, b, flags) == Ordering::Less) {
                        best = Some((i, line));
                    }
                }
            }
            let Some((i, line)) = best else { break };
            heads[i].next();
            merged.push(line);
        }
        emit(merged, flags)
    }

    /// `uniq -c` of `sorted`, one `format!` per run of equal lines.
    pub fn count_lines(sorted: &str) -> String {
        let mut out = String::new();
        let mut lines = sorted.split_terminator('\n').peekable();
        while let Some(line) = lines.next() {
            let mut n = 1u64;
            while lines.next_if_eq(&line).is_some() {
                n += 1;
            }
            out.push_str(&format!("{n:>7} {line}\n"));
        }
        out
    }

    fn emit(ordered: Vec<&str>, flags: SortFlags) -> String {
        let mut out = String::new();
        let mut prev: Option<&str> = None;
        for l in ordered {
            if flags.unique && prev.is_some_and(|p| key_compare(p, l, flags) == Ordering::Equal) {
                continue;
            }
            out.push_str(l);
            out.push('\n');
            prev = Some(l);
        }
        out
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

    fn order(flags: &str) -> LineOrder {
        let words: Vec<String> = flags.split_whitespace().map(str::to_owned).collect();
        LineOrder::parse(&words).unwrap()
    }

    fn merge(flags: &str, streams: &[&str]) -> String {
        let streams: Vec<&[u8]> = streams.iter().map(|s| s.as_bytes()).collect();
        String::from_utf8(order(flags).merge(&streams)).unwrap()
    }

    #[test]
    fn plain_sort_is_byte_order() {
        assert_eq!(run("sort", "b\nA\na\nB\n"), "A\nB\na\nb\n");
    }

    #[test]
    fn numeric_sort() {
        assert_eq!(run("sort -n", "10\n9\n2\n"), "2\n9\n10\n");
        // Non-numeric lines count as zero and fall back to byte order.
        assert_eq!(run("sort -n", "x\n1\ny\n"), "x\ny\n1\n");
    }

    #[test]
    fn reverse_numeric_equivalents() {
        let input = "      3 bb\n     10 aa\n      1 cc\n";
        let rn = run("sort -rn", input);
        let nr = run("sort -nr", input);
        assert_eq!(rn, nr);
        assert_eq!(rn, "     10 aa\n      3 bb\n      1 cc\n");
    }

    #[test]
    fn fold_case() {
        assert_eq!(run("sort -f", "b\nA\nB\na\n"), "A\na\nB\nb\n");
    }

    #[test]
    fn unique_sort() {
        assert_eq!(run("sort -u", "b\na\nb\na\n"), "a\nb\n");
        // -u with -n dedupes by key: 07 and 7 share a numeric key.
        assert_eq!(run("sort -nu", "07\n7\n8\n"), "07\n8\n");
    }

    #[test]
    fn key_field_numeric() {
        let input = "20 x\n3 y\n100 z\n";
        assert_eq!(run("sort -k1n", input), "3 y\n20 x\n100 z\n");
    }

    /// GNU `sort` 9.1 on `a b b c d | sort | uniq -c`: `r` on a key
    /// reverses the key alone; a global `-r` reverses the last resort, and
    /// the key only when the key has no modifiers of its own.
    #[test]
    fn key_reverse_and_last_resort_reverse_are_apart() {
        let counted = "      1 a\n      2 b\n      1 c\n      1 d\n";
        let rn = "      2 b\n      1 d\n      1 c\n      1 a\n";
        let key_r = "      2 b\n      1 a\n      1 c\n      1 d\n";
        for (flags, expect) in [
            ("-rn", rn),
            ("-n -r", rn),
            ("-k1nr", key_r),
            ("-k1,1nr", key_r),
            ("-k1n -r", "      1 d\n      1 c\n      1 a\n      2 b\n"),
            ("-k1nr -r", rn),
            // A key with only `r` takes no `-n`: the whole line reversed.
            ("-n -k1r", rn),
            ("-r -k1", rn),
        ] {
            assert_eq!(
                run(&format!("sort {flags}"), counted),
                expect,
                "sort {flags}"
            );
            let streams = [&counted[..20], &counted[20..]];
            let sorted: Vec<String> = streams
                .iter()
                .map(|s| run(&format!("sort {flags}"), s))
                .collect();
            let sorted: Vec<&str> = sorted.iter().map(String::as_str).collect();
            assert_eq!(merge(flags, &sorted), expect, "sort -m {flags}");
        }
    }

    #[test]
    fn stable_drops_the_last_resort() {
        assert_eq!(run("sort -s -n", "1 b\n1 a\n"), "1 b\n1 a\n");
        assert_eq!(run("sort -sn", "2\n1 b\n1 a\n"), "1 b\n1 a\n2\n");
        assert_eq!(run("sort -rns", "1 b\n2\n1 a\n"), "2\n1 b\n1 a\n");
        assert_eq!(merge("-sn", &["1 b\n", "1 a\n"]), "1 b\n1 a\n");
        // Without -s the last resort orders them.
        assert_eq!(run("sort -n", "1 b\n1 a\n"), "1 a\n1 b\n");
    }

    #[test]
    fn keys_alone_order_lines_shorter_than_the_prefix() {
        // A shorter line is a prefix of the longer one, NULs included.
        let input = "ab\na\0\na\n\nabcdefg\nabcdef\nabcdefgh\nabcdefg\0\n";
        assert_eq!(
            run("sort", input),
            "\na\na\0\nab\nabcdef\nabcdefg\nabcdefg\0\nabcdefgh\n"
        );
    }

    #[test]
    fn a_missing_final_newline_is_supplied() {
        assert_eq!(run("sort", "b\na"), "a\nb\n");
        assert_eq!(merge("", &["a\nc", "b"]), "a\nb\nc\n");
    }

    #[test]
    fn sort_orders_any_bytes() {
        let cmd = parse_command("sort").unwrap();
        let out = cmd
            .run(
                Bytes::from(vec![0xff, b'\n', 0xe9, b'\n', b'a', b'\n']),
                &ExecContext::default(),
            )
            .unwrap();
        assert_eq!(out.as_bytes(), b"a\n\xe9\n\xff\n");
    }

    #[test]
    fn a_line_that_fits_no_segment_is_an_error() {
        let err = order("")
            .sort(b"short\na line of nineteen\n", 8)
            .unwrap_err();
        assert_eq!(err.to_string(), "sort: a line is longer than 8 bytes");
        assert_eq!(order("").sort(b"b\na\nd\nc\n", 4).unwrap(), b"a\nb\nc\nd\n");
    }

    #[test]
    fn merge_two_sorted_streams_equals_full_sort() {
        let x1 = "a\nc\ne\n";
        let x2 = "b\nc\nd\n";
        assert_eq!(merge("", &[x1, x2]), run("sort", &format!("{x1}{x2}")));
    }

    #[test]
    fn merge_respects_flags() {
        let y1 = "9\n2\n"; // sorted under -rn
        let y2 = "10\n1\n";
        assert_eq!(merge("-rn", &[y1, y2]), "10\n9\n2\n1\n");
    }

    #[test]
    fn merge_of_nothing_one_and_empty_streams() {
        assert_eq!(merge("", &[]), "");
        assert_eq!(merge("", &["a\nb\n"]), "a\nb\n");
        assert_eq!(merge("", &["", "b\n", "", "a\n", ""]), "a\nb\n");
        assert_eq!(merge("-u", &["\n", "\n"]), "\n");
    }

    #[test]
    fn merge_ties_leave_in_stream_order_and_unique_keeps_the_first() {
        // Key-equal under -nu: the earlier stream's spelling survives.
        assert_eq!(merge("-nu", &["01\n2\n", "1\n02\n"]), "01\n2\n");
        assert_eq!(merge("-nu", &["1\n02\n", "01\n2\n"]), "1\n02\n");
        assert_eq!(merge("-fu", &["a\n", "A\n", "a\n"]), "a\n");
        // Identical lines: progress shows stream 0 drained first, then 1.
        let streams: [&[u8]; 3] = [b"k\nk\n", b"k\n", b"k\n"];
        let mut progress = Vec::new();
        order("")
            .merge_to(&streams, 1, &mut |frag, consumed| {
                assert_eq!(frag, b"k\n");
                progress.push(consumed.to_vec());
                Ok(())
            })
            .unwrap();
        assert_eq!(
            progress,
            [[2, 0, 0], [4, 0, 0], [4, 2, 0], [4, 2, 2]].map(|p| p.to_vec())
        );
    }

    #[test]
    fn merge_to_fragments_reassemble_and_track_progress() {
        let s1 = "a\nc\ne\ng\n";
        let s2 = "b\nd\nf\n";
        let streams = [s1.as_bytes(), s2.as_bytes()];
        let flat = merge("", &[s1, s2]);
        let mut pieces: Vec<u8> = Vec::new();
        let mut fragments = 0;
        let mut last = vec![0usize; 2];
        order("")
            .merge_to(&streams, 3, &mut |frag, consumed| {
                // Fragments are line-aligned and progress is monotone.
                assert_eq!(frag.last(), Some(&b'\n'));
                assert!(consumed[0] >= last[0] && consumed[1] >= last[1]);
                last = consumed.to_vec();
                pieces.extend_from_slice(frag);
                fragments += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(pieces, flat.as_bytes());
        assert!(fragments > 1, "fragment_bytes=3 must flush mid-merge");
        // After the final fragment everything has been consumed.
        assert_eq!(last, vec![s1.len(), s2.len()]);
        // A sink error propagates.
        let err = order("").merge_to(&streams, 1, &mut |_, _| {
            Err(CmdError::new("sort", "sink says no"))
        });
        assert!(err.is_err());
    }

    #[test]
    fn merge_command_form() {
        let ctx = {
            let vfs = crate::Vfs::new();
            vfs.write("s1", "a\nc\n");
            vfs.write("s2", "b\nd\n");
            ExecContext::with_vfs(vfs)
        };
        let c = parse_command("sort -m s1 s2").unwrap();
        assert_eq!(c.run_str("", &ctx).unwrap(), "a\nb\nc\nd\n");
        assert!(!c.reads_stdin());
    }

    #[test]
    fn file_operands_concatenate_with_stdin() {
        let vfs = crate::Vfs::new();
        vfs.write("f", "c\na\n");
        let ctx = ExecContext::with_vfs(vfs);
        let c = parse_command("sort f -").unwrap();
        assert_eq!(c.run_str("b\n", &ctx).unwrap(), "a\nb\nc\n");
    }

    #[test]
    fn parallel_option_ignored() {
        assert_eq!(run("sort --parallel=1", "b\na\n"), "a\nb\n");
    }

    #[test]
    fn empty_input() {
        assert_eq!(run("sort", ""), "");
        assert_eq!(run("sort -u", "\n\n"), "\n");
    }

    /// Every flag set the corpus uses, plus the combinations the parser
    /// accepts on top of them.
    const FLAG_SETS: [&str; 17] = [
        "", "-r", "-n", "-rn", "-nr", "-f", "-u", "-nu", "-fu", "-k1n", "-ru", "-fr", "-nf",
        "-k1nr", "-k1n -r", "-sn", "-rns",
    ];

    /// Lines that sit on every edge of the sort's key encoding: empty,
    /// shorter and longer than an eight-byte key, sharing seven and eight
    /// bytes, NULs where the padding is, high bytes inside valid UTF-8,
    /// case pairs, and the numeric spellings (`-0`/`0`, `+5`, `.5`, leading
    /// blanks, trailing garbage, no number at all, overflow).
    const KEY_EDGES: [&str; 60] = [
        "",
        " ",
        "a",
        "A",
        "ab",
        "aB",
        "Ab",
        "abcdef",
        "abcdefg",
        "ABCDEFG",
        "abcdefgh",
        "abcdefgH",
        "ABCDEFGh",
        "abcdefghi",
        "abcdefghI",
        "abcdefgz",
        "abcdefg\0",
        "abcdefg\0x",
        "a\0",
        "a\0b",
        "\0",
        "é",
        "éa",
        "abcdefé",
        "abcdefgé",
        "abcdefgÉ",
        "日本語",
        "日本語x",
        "-0",
        "0",
        "00",
        "+5",
        "5",
        "05",
        "5.0",
        "5.",
        ".5",
        "0.5",
        "-.5",
        "-5",
        "-5x",
        "  7",
        "\t7",
        " 7 b",
        "7 a",
        "7  a",
        "10",
        "9",
        "1e3",
        "x",
        "x 3",
        "3 x",
        "3 y",
        "  3 y",
        "-",
        "+",
        ".",
        "--5",
        "99999999999999999999",
        "99999999999999999998",
    ];

    /// [`KEY_EDGES`] and the lines on the edges of the merge's codes and
    /// the sort's steps: lines sharing 8, 15, 16, 17, 24, 40 and 100-byte
    /// prefixes — around the eight-byte words of the prefix scan and of the
    /// sort's keys, behind a count column that gives every one the numeric
    /// key 1 — that differ only in their last byte, only in case, or by
    /// ending; prefix chains `a`, `ab`, `abc`, …; U+10FFFF next to ASCII;
    /// numeric keys one ulp apart; and `+`-led numbers, which GNU `-n`
    /// reads as no number at all.
    fn vocabulary() -> &'static [String] {
        static WORDS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
        WORDS.get_or_init(|| {
            const LONG: &str = "      1 key 287 item 24 wolf dog Apple Pear yak emu \
                newt fox bird CAT 0123456789 the quick brown fox jumps over the lazy dog";
            let mut words: Vec<String> = KEY_EDGES.iter().map(|&w| w.to_owned()).collect();
            for p in [8, 15, 16, 17, 24, 40, 100] {
                let prefix = &LONG[..p];
                words.push(prefix.to_owned());
                for last in ["a", "b", "B", "\0"] {
                    words.push(format!("{prefix}{last}"));
                }
                words.push(format!("{}a", prefix.to_ascii_uppercase()));
            }
            let alphabet = "abcdefghijklmnopq";
            words.extend((1..=alphabet.len()).map(|n| alphabet[..n].to_owned()));
            words.push(alphabet.to_ascii_uppercase());
            for w in [
                "\u{10FFFF}",
                "a\u{10FFFF}",
                "\u{10FFFF}a",
                "abcdefg\u{10FFFF}",
            ] {
                words.push(w.to_owned());
            }
            // Numeric keys that differ only in their last byte (1 and the
            // next `f64`), and spellings of 1 that differ in their first.
            for w in [" 1", "1", "1.0000000000000002"] {
                words.push(w.to_owned());
            }
            for w in ["+5 x", "  +7", "+.5", "+-5", "-+5"] {
                words.push(w.to_owned());
            }
            let mut seen = std::collections::HashSet::new();
            words.retain(|w| seen.insert(w.clone()));
            words
        })
    }

    /// A segment size that cuts `input` into segments of a line or two:
    /// 24 bytes, or the longest line if that is longer.
    fn small_segment(input: &str) -> usize {
        input
            .split('\n')
            .map(|l| l.len() + 1)
            .max()
            .unwrap_or(0)
            .max(24)
    }

    fn text(picks: &[usize], final_newline: bool) -> String {
        let mut s: String = picks
            .iter()
            .map(|&i| format!("{}\n", vocabulary()[i]))
            .collect();
        if !final_newline {
            s.pop();
        }
        s
    }

    type Cuts = Vec<Vec<std::ops::Range<usize>>>;

    /// Each part of a [`LineOrder::partition`] merged on its own, the
    /// outputs concatenated in part order.
    fn merge_in_parts(order: LineOrder, runs: &[&[u8]], cuts: &Cuts) -> Vec<u8> {
        cuts.iter()
            .flat_map(|ranges| {
                let slices: Vec<&[u8]> = runs
                    .iter()
                    .zip(ranges)
                    .map(|(run, r)| &run[r.clone()])
                    .collect();
                order.merge(&slices)
            })
            .collect()
    }

    /// The partition contract: every run is tiled by its ranges, every
    /// cut falls on a line start, and each line of a part compares
    /// strictly less (under the reference comparator) than each line of
    /// every later part — so no two comparator-equal lines are separated.
    fn check_cuts(order: LineOrder, runs: &[&[u8]], cuts: &Cuts) {
        for (r, run) in runs.iter().enumerate() {
            let mut at = 0;
            for ranges in cuts {
                assert_eq!(ranges[r].start, at, "run {r} is not tiled: {cuts:?}");
                at = ranges[r].end;
                assert!(
                    at == 0 || at == run.len() || run[at - 1] == b'\n',
                    "cut at {at} of run {r} is inside a line"
                );
            }
            assert_eq!(at, run.len(), "run {r} is not covered: {cuts:?}");
        }
        let mut previous_max: Option<&str> = None;
        for ranges in cuts {
            // Counted runs are cut by the lines behind their count columns.
            let lines: Vec<&str> = runs
                .iter()
                .zip(ranges)
                .flat_map(|(run, r)| {
                    std::str::from_utf8(&run[r.clone()])
                        .unwrap()
                        .split_terminator('\n')
                })
                .map(|l| std::str::from_utf8(order.payload(l.as_bytes())).unwrap())
                .collect();
            let cmp = |a: &&str, b: &&str| reference::line_compare(a, b, order.flags);
            let (Some(min), Some(max)) = (
                lines.iter().copied().min_by(cmp),
                lines.iter().copied().max_by(cmp),
            ) else {
                continue;
            };
            if let Some(before) = previous_max {
                assert_eq!(
                    reference::line_compare(before, min, order.flags),
                    Ordering::Less,
                    "{before:?} and {min:?} are not strictly ordered across a boundary"
                );
            }
            previous_max = Some(max);
        }
    }

    #[test]
    fn partition_edges() {
        let cut = |flags: &str, runs: &[&str], parts: usize| {
            let order = order(flags);
            let runs: Vec<&[u8]> = runs.iter().map(|r| r.as_bytes()).collect();
            let cuts = order.partition(&runs, parts, &mut |_| {});
            assert_eq!(cuts.len(), parts.max(1));
            check_cuts(order, &runs, &cuts);
            assert_eq!(merge_in_parts(order, &runs, &cuts), order.merge(&runs));
            cuts
        };
        let non_empty = |cuts: &Cuts| {
            cuts.iter()
                .filter(|ranges| ranges.iter().any(|r| !r.is_empty()))
                .count()
        };
        // No runs, empty runs, and fewer lines than parts.
        assert!(cut("", &[], 4).iter().all(Vec::is_empty));
        assert_eq!(non_empty(&cut("", &["", ""], 3)), 0);
        cut("", &["", "a\nb\n", ""], 5);
        cut("-n", &["1\n", "2\n3\n"], 9);
        // Zero parts is one part.
        assert_eq!(cut("", &["a\n"], 0), vec![vec![0..2]]);
        // One repeated line cannot be divided, identical or merely
        // comparator-equal (distinct bytes under -f, -n and -u).
        assert_eq!(non_empty(&cut("", &["k\nk\nk\n", "k\nk\n", "k\n"], 4)), 1);
        assert_eq!(non_empty(&cut("-fu", &["a\n", "A\n", "a\n"], 3)), 1);
        assert_eq!(non_empty(&cut("-nu", &["1\n01\n", "1x\n1.0\n"], 3)), 1);
        // Two keys, many lines: at most two parts have lines, and the
        // equal lines stay together.
        let twos = "a\n".repeat(40) + &"b\n".repeat(40);
        assert!(non_empty(&cut("", &[&twos, &twos, "a\nb"], 8)) <= 2);
        // Unterminated final lines, in the middle of the order and at its
        // end; NUL and high bytes on both sides of a cut.
        cut("", &["a\nc\ne", "b\nd\nf"], 3);
        cut("-r", &["z\nm\na", "y\nb"], 2);
        cut("", &["\0\na\0\né\n日本語", "\0\nabcdefg\0\nabcdefgé\n"], 4);
        // A spread of keys divides: every part of a four-way cut is used.
        let spread: String = (0..400).map(|i| format!("{i:04}\n")).collect();
        assert_eq!(non_empty(&cut("", &[&spread, &spread], 4)), 4);
    }

    /// The flag sets of [`FLAG_SETS`] a counted order is defined for:
    /// every one without `-u` or `-s`.
    const COUNTED_FLAG_SETS: [&str; 11] = [
        "", "-r", "-n", "-rn", "-nr", "-f", "-k1n", "-fr", "-nf", "-k1nr", "-k1n -r",
    ];

    /// `sort <flags> | uniq -c` by the reference comparator.
    fn counted_reference(input: &str, flags: SortFlags) -> String {
        reference::count_lines(&reference::sort_lines(input, flags))
    }

    /// The counted segment kernel with the table abandoned by the
    /// production rule, never (table forced) and at once (sort forced).
    fn count_every_way(order: LineOrder, input: &str) -> [String; 3] {
        [FIRST_TABLE_CHECK, usize::MAX, 1]
            .map(|small| String::from_utf8(order.count_segment(input.as_bytes(), small)).unwrap())
    }

    /// The segment kernel the same three ways: under `-u` the table of
    /// distinct lines decides, elsewhere the three are one sort.
    fn sort_every_way(order: LineOrder, input: &str) -> [String; 3] {
        [FIRST_TABLE_CHECK, usize::MAX, 1]
            .map(|small| String::from_utf8(order.sort_segment(input.as_bytes(), small)).unwrap())
    }

    #[test]
    fn counted_sort_is_the_pair_of_commands() {
        let input = "b\n  12 x\na\n\nb\n12 x\n  12 x\n \nb\n\n10\n9\nB";
        for flags in COUNTED_FLAG_SETS {
            let sorted = run(&format!("sort {flags}"), input);
            let expect = run("uniq -c", &sorted);
            let order = order(flags).counted();
            let got = order.sort_bytes(&Bytes::from(input)).unwrap();
            assert_eq!(got.to_str().unwrap(), expect, "sort {flags} | uniq -c");
            assert_eq!(
                count_every_way(order, input),
                [(); 3].map(|()| expect.clone())
            );
        }
        let counted = order("").counted();
        assert_eq!(counted.sort_bytes(&Bytes::new()).unwrap(), "");
        assert_eq!(
            counted.sort_bytes(&Bytes::from("\n\n")).unwrap(),
            "      2 \n"
        );
        let out = counted
            .sort_bytes(&Bytes::from(vec![0xff, b'\n', b'a', b'\n', 0xff, b'\n']))
            .unwrap();
        assert_eq!(out.as_bytes(), b"      1 a\n      2 \xff\n");
    }

    #[test]
    fn hashed_lines_are_the_lines_and_equal_lines_hash_alike() {
        let lines = |input: &'static str| -> Vec<(&[u8], usize, u64)> {
            HashedLines::<false> {
                input: input.as_bytes(),
                pos: 0,
            }
            .collect()
        };
        assert!(lines("").is_empty());
        // Lines around the eight-byte word, newlines at every offset of
        // one, a final line with and without its newline, in the last
        // seven bytes of the input and before them.
        for input in [
            "\n",
            "a",
            "a\n\nbb\n",
            "abcdefg\nabcdefgh\nabcdefghi\n\nabcdefghijklmnopq\nab",
            "abcdefgh\nabcdefgh",
            "1234567\n12345678\n123456789\n1234567",
        ] {
            let got = lines(input);
            let expect: Vec<&str> = input.split_terminator('\n').collect();
            let texts: Vec<&[u8]> = got.iter().map(|l| l.0).collect();
            assert_eq!(
                texts,
                expect.iter().map(|l| l.as_bytes()).collect::<Vec<_>>()
            );
            for &(line, start, hash) in &got {
                assert_eq!(&input.as_bytes()[start..start + line.len()], line);
                for &(other, _, other_hash) in &got {
                    assert_eq!(line == other, hash == other_hash, "{input:?}");
                }
            }
        }
        // Trailing NULs are part of the line.
        let [(_, _, a), (_, _, b)] = lines("a\na\0\n")[..] else {
            panic!("two lines");
        };
        assert_ne!(a, b);
        // Folded, lines equal but for ASCII case hash alike, at every
        // length around the word; lines that differ otherwise do not.
        let input = "Same\nsAME\nsame line, longer\nSAME LINE, LONGER\nsame\0\nsamé\nSAMÉ\n";
        let got: Vec<(&[u8], usize, u64)> = HashedLines::<true> {
            input: input.as_bytes(),
            pos: 0,
        }
        .collect();
        for &(line, _, hash) in &got {
            for &(other, _, other_hash) in &got {
                assert_eq!(line.eq_ignore_ascii_case(other), hash == other_hash);
            }
        }
    }

    #[test]
    fn the_table_is_kept_while_small_and_abandoned_when_not() {
        let counted = order("-n").counted();
        // Seven hundred distinct lines, each three times, all of them new
        // in the first seven hundred: a table.
        let few: String = (0..2100).map(|i| format!("{} x\n", i % 700)).collect();
        assert!(counted
            .count_distinct(few.as_bytes(), FIRST_TABLE_CHECK)
            .is_some());
        // Nine lines in ten distinct: the sort, at the first check.
        let many: String = (0..2100)
            .map(|i| format!("{} x\n", i - i % 10 / 9))
            .collect();
        assert!(counted
            .count_distinct(many.as_bytes(), FIRST_TABLE_CHECK)
            .is_none());
        // Too few lines to ask: a table whatever they are.
        assert!(counted
            .count_distinct(&many.as_bytes()[..2000], FIRST_TABLE_CHECK)
            .is_some());
        // Under `-u` a class is what the order calls equal: three spellings
        // of a number under `-nu`, three casings of a word under `-fu`.
        let classes = |flags: &str, spell: &dyn Fn(usize, usize) -> String| {
            let input: String = (0..2100).map(|i| spell(i % 3, i % 350)).collect();
            order(flags)
                .count_distinct(input.as_bytes(), FIRST_TABLE_CHECK)
                .map(|groups| groups.len())
        };
        let number = |s: usize, k: usize| {
            [format!("{k} x\n"), format!("0{k}\n"), format!(" {k}.0\n")][s].clone()
        };
        let word = |s: usize, k: usize| {
            [format!("w{k}\n"), format!("W{k}\n"), format!("w{k}\n")][s].clone()
        };
        assert_eq!(classes("-nu", &number), Some(350));
        assert_eq!(classes("-fu", &word), Some(350));
        assert_eq!(classes("-u", &word), Some(700));
        for input in [few, many] {
            let expect = counted_reference(&input, counted.flags);
            assert_eq!(
                count_every_way(counted, &input),
                [(); 3].map(|()| expect.clone())
            );
        }
    }

    #[test]
    fn counted_merges_add_counts_and_widen_the_column() {
        let counted = order("").counted();
        let merge = |streams: &[&str]| {
            let views: Vec<&[u8]> = streams.iter().map(|s| s.as_bytes()).collect();
            String::from_utf8(counted.merge(&views)).unwrap()
        };
        assert_eq!(merge(&[]), "");
        assert_eq!(merge(&["", "      2 a\n"]), "      2 a\n");
        // Empty lines, lines that start with blanks and digits, and an
        // unterminated final line.
        assert_eq!(
            merge(&[
                "      1 \n      2   12 x\n      1 12 x",
                "      3 \n      1   12 x\n      4 a"
            ]),
            "      4 \n      3   12 x\n      1 12 x\n      4 a\n"
        );
        // A sum of 10^7 widens the column, and the wider column reads back.
        let wide = merge(&["9999999 x\n      1 y\n", "      1 x\n"]);
        assert_eq!(wide, "10000000 x\n      1 y\n");
        assert_eq!(
            merge(&[&wide, "      5 x\n      5 z\n"]),
            "10000005 x\n      1 y\n      5 z\n"
        );
        let runs: [&[u8]; 2] = [wide.as_bytes(), b"      5 x\n      5 z\n"];
        for parts in 1..=9 {
            let cuts = counted.partition(&runs, parts, &mut |_| {});
            check_cuts(counted, &runs, &cuts);
            assert_eq!(
                merge_in_parts(counted, &runs, &cuts),
                counted.merge(&runs),
                "{parts} parts"
            );
        }
    }

    /// The counted mode is an instantiation of the merge loop, not a test
    /// in it, and matches are integer compares: a merge of a few MiB keeps
    /// a pace no per-line detour leaves room for — eight runs of short
    /// lines, and 64 runs of lines that share a 13-byte prefix, where a
    /// comparator that re-read the shared bytes at every tree level would
    /// fall behind. Timed against the reference merge of the same runs in
    /// the same process, so that a slow or busy host slows both.
    /// (Optimised builds only, best of five each, the two interleaved:
    /// floors, not benchmarks. On one core of a 2-core host the loop
    /// merges 3.3–4.4 times as fast as the reference on the short lines and
    /// 7.0–7.8 times on the shared prefix; the floors are half of the low
    /// ends, where the absolute MB/s floors before them could fail a run on
    /// a busy host with the loop untouched.)
    #[test]
    #[cfg(not(debug_assertions))]
    fn plain_merge_keeps_its_pace() {
        const SHORT_LINES_SPEEDUP_FLOOR: f64 = 1.6;
        const SHARED_PREFIX_SPEEDUP_FLOOR: f64 = 3.5;
        let runs = |k: u64, lines: u64, line: &dyn Fn(u64) -> String| -> Vec<String> {
            (0..k)
                .map(|r| {
                    let mut keys: Vec<u64> = (0..lines)
                        .map(|i| (i * k + r).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 10_000_000)
                        .collect();
                    keys.sort_unstable();
                    keys.iter().map(|&n| line(n)).collect()
                })
                .collect()
        };
        // How many times as fast as the reference the loop merges `runs`.
        let speedup = |runs: &[String]| {
            let strs: Vec<&str> = runs.iter().map(String::as_str).collect();
            let views: Vec<&[u8]> = runs.iter().map(String::as_bytes).collect();
            let expect = reference::merge_sorted(&strs, order("").flags);
            assert_eq!(order("").merge(&views), expect.as_bytes());
            let time = |f: &dyn Fn()| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed()
            };
            let (mut merge, mut reference) = (std::time::Duration::MAX, std::time::Duration::MAX);
            for _ in 0..5 {
                merge = merge.min(time(&|| {
                    std::hint::black_box(order("").merge(&views));
                }));
                reference = reference.min(time(&|| {
                    std::hint::black_box(reference::merge_sorted(&strs, order("").flags));
                }));
            }
            reference.as_secs_f64() / merge.as_secs_f64()
        };
        let short = speedup(&runs(8, 100_000, &|n| format!("{:06}\n", n % 1_000_000)));
        let shared = speedup(&runs(64, 6_000, &|n| format!("key 287 item {n:07}\n")));
        assert!(
            short >= SHORT_LINES_SPEEDUP_FLOOR,
            "plain merge of short lines only {short:.1}x the reference's pace"
        );
        assert!(
            shared >= SHARED_PREFIX_SPEEDUP_FLOOR,
            "plain merge of lines with a shared prefix only {shared:.1}x the reference's pace"
        );
    }

    /// `n` lines made to tie for a long way: a shared prefix of 0, 8, 16,
    /// 24 or 34 bytes (across the kernel's steps), some behind a number,
    /// then a short tail of pieces that differ in one byte, in case, as a
    /// NUL against the line's end, as a multi-byte character, or as
    /// numbers (`+`-led and hex among them) — so that runs of equal keys
    /// come in every size around the kernel's thresholds at every step, and
    /// empty lines and duplicates are common.
    fn tying_lines(n: usize, seed: u64, final_newline: bool) -> String {
        const PREFIXES: [&str; 5] = [
            "",
            "key 287 ",
            "KEY 287 item 24 ",
            "key 287 item 24 wolf dog",
            "key 287 item 24 wolf dog Apple Pear",
        ];
        const PIECES: [&str; 12] = [
            "", "a", "A", "b", "\0", " ", "é", "7", "-3", "+5", "0x10", "1.5",
        ];
        let mut state = seed;
        let mut below = |n: usize| {
            state = state
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            (state >> 33) as usize % n
        };
        let mut text = String::new();
        for _ in 0..n {
            if below(4) == 0 {
                text.push_str(PIECES[7 + below(5)]);
                text.push(' ');
            }
            text.push_str(PREFIXES[below(PREFIXES.len())]);
            for _ in 0..below(4) {
                text.push_str(PIECES[below(PIECES.len())]);
            }
            text.push('\n');
        }
        if !final_newline {
            text.pop();
        }
        text
    }

    /// The numeric flag sets a counted run may be put in count order by:
    /// every spelling of a numeric key on field one, reversed on the key,
    /// globally, both or neither.
    const COUNT_ORDER_SETS: [&str; 12] = [
        "-n",
        "-rn",
        "-nr",
        "-n -r",
        "-k1n",
        "-k1nr",
        "-k1,1n",
        "-k1,1nr",
        "-k1n -r",
        "-k1,1n -r",
        "-k1nr -r",
        "-k1rn",
    ];

    /// The count-order kernel against the sort kernel on the same counted
    /// bytes: `sort <numeric flags>` of a counted run, byte for byte, and
    /// every group one count in output order.
    fn check_regroup(pair: &str, numeric: &str, counted: &str) {
        let by = order(pair)
            .count_order(order(numeric))
            .unwrap_or_else(|| panic!("sort {pair} | uniq -c | sort {numeric}: no count order"));
        let got = by.regroup(counted.as_bytes());
        let expect = order(numeric).sort_bytes(&Bytes::from(counted)).unwrap();
        assert_eq!(
            String::from_utf8(got.bytes.clone()).unwrap(),
            expect.to_str().unwrap(),
            "sort {pair} | uniq -c | sort {numeric} of {counted:?}"
        );
        let mut at = 0;
        for (i, (count, range)) in got.groups.iter().enumerate() {
            assert_eq!(range.start, at, "groups tile the output");
            at = range.end;
            assert!(!range.is_empty());
            for line in got.bytes[range.clone()].split(|&b| b == b'\n') {
                assert!(line.is_empty() || split_counted(line).0 == *count);
            }
            if let Some((next, _)) = got.groups.get(i + 1) {
                assert!(by.precedes(*count, *next), "{count} before {next}");
            }
        }
        assert_eq!(at, got.bytes.len());
    }

    /// Counted runs made directly: `(count, line)` in the pair's order.
    fn counted_run(entries: &[(u64, &str)]) -> String {
        let mut out = Vec::new();
        for &(count, line) in entries {
            push_counted(&mut out, count, line.as_bytes());
        }
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn regroup_equals_the_numeric_sort_of_the_counted_run() {
        let big = 10_000_000;
        for pair in ["", "-r"] {
            let mut inputs: Vec<String> = vec![
                String::new(),
                "b\n".to_owned(),
                // One group; all counts equal; all counts distinct.
                "x\nx\nx\n".to_owned(),
                "d\nb\na\nc\n".to_owned(),
                "a\nb\nb\nc\nc\nc\nd\nd\nd\nd\n".to_owned(),
                // Keys with leading blanks or digits, and no final newline.
                "  7 x\n7 x\n12\n 12\n12\n\n\n  7 x\n3".to_owned(),
                tying_lines(3000, 7, true),
                tying_lines(500, 8, false),
            ];
            let pair_sorted = |entries: &mut Vec<(u64, &str)>| {
                entries.sort_by(|a, b| a.1.cmp(b.1));
                if pair == "-r" {
                    entries.reverse();
                }
                counted_run(entries)
            };
            // Counts of 10^7 and more widen the column.
            inputs.push(pair_sorted(&mut vec![
                (big, "a"),
                (3, "b"),
                (big + 1, "c"),
                (big, "d"),
                (u64::from(u32::MAX) * 3, "e"),
                (3, "f"),
                (300, "g"),
                (300, "h"),
            ]));
            for raw in &inputs {
                let counted = order(pair).counted().sort_bytes(&Bytes::from(raw.as_str()));
                let counted = counted.unwrap();
                for numeric in COUNT_ORDER_SETS {
                    check_regroup(pair, numeric, counted.to_str().unwrap());
                    // A counted run regroups as well by a line-aligned
                    // slice of it at a time.
                    let half = counted.to_str().unwrap().len() / 2;
                    let cut = counted.to_str().unwrap()[half..]
                        .find('\n')
                        .map_or(0, |nl| half + nl + 1);
                    check_regroup(pair, numeric, &counted.to_str().unwrap()[..cut]);
                    check_regroup(pair, numeric, &counted.to_str().unwrap()[cut..]);
                }
            }
        }
    }

    #[test]
    fn count_order_is_refused_outside_its_licence() {
        let licensed =
            |pair: &str, numeric: &str| order(pair).count_order(order(numeric)).is_some();
        for pair in ["", "-r", "-k1"] {
            for numeric in COUNT_ORDER_SETS {
                assert!(licensed(pair, numeric), "{pair} then {numeric}");
            }
            // Not numeric, or with -f, -u or -s.
            for numeric in [
                "", "-r", "-f", "-rnf", "-rnu", "-nu", "-rns", "-sn", "-k1", "-n -k1r",
            ] {
                assert!(!licensed(pair, numeric), "{pair} then {numeric}");
            }
        }
        // The counting sort must be byte order.
        for pair in ["-n", "-f", "-rn", "-k1n", "-u", "-s"] {
            assert!(!licensed(pair, "-rn"), "{pair} then -rn");
        }
        // Nor is a counted order either side of it.
        assert!(order("").counted().count_order(order("-rn")).is_none());
        assert!(order("").count_order(order("-rn").counted()).is_none());
    }

    #[test]
    fn the_kernel_equals_the_reference_across_its_thresholds() {
        let sizes = [
            0,
            1,
            INSERTION_RUN,
            INSERTION_RUN + 1,
            255,
            256,
            257,
            1000,
            5000,
        ];
        for n in sizes {
            for (seed, final_newline) in [(1, true), (2, false)] {
                let input = tying_lines(n, seed, final_newline);
                for flags in FLAG_SETS {
                    let order = order(flags);
                    let got = order.sort_bytes(&Bytes::from(input.as_str())).unwrap();
                    let expect = reference::sort_lines(&input, order.flags);
                    assert_eq!(got.to_str().unwrap(), expect, "sort {flags} of {n} lines");
                    assert_eq!(
                        sort_every_way(order, &input),
                        [(); 3].map(|()| expect.clone()),
                        "sort {flags} of {n} lines"
                    );
                }
                for flags in COUNTED_FLAG_SETS {
                    let order = order(flags).counted();
                    let expect = counted_reference(&input, order.flags);
                    assert_eq!(
                        count_every_way(order, &input),
                        [(); 3].map(|()| expect.clone()),
                        "sort {flags} | uniq -c of {n} lines"
                    );
                }
            }
        }
    }

    /// Keys that differ in a few byte positions are radix-sorted, keys
    /// that differ in all of them compared — at every size past the
    /// insertion cutoff, for every flag set, the reference's bytes either
    /// way: keyed lines whose first eight bytes differ in three positions
    /// (`key 287 `), and under them eight more (`item 24…`) that differ in
    /// three too; and mixed-case words.
    #[test]
    fn radix_and_compared_runs_both_equal_the_reference() {
        assert!(radix_pays(2100, 24, 3), "64 KiB of keyed lines");
        assert!(radix_pays(135_000, 24, 3), "4 MiB of keyed lines");
        assert!(!radix_pays(11_000, 24, 8), "64 KiB of words");
        assert!(!radix_pays(350_000, 24, 8), "2 MiB of words");
        assert!(!radix_pays(INSERTION_RUN + 1, 24, 3));
        let mut state = 11u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            (state >> 33) % n
        };
        for n in [INSERTION_RUN + 1, 64, 300, 3000, 20_000] {
            let keyed: String = (0..n)
                .map(|_| {
                    format!(
                        "key {:03} item {:03}{}\n",
                        below(40),
                        below(300),
                        ["", " x", "0", " -1"][below(4) as usize]
                    )
                })
                .collect();
            let words: String = (0..n)
                .map(|_| {
                    let word: String = (0..1 + below(9))
                        .map(|_| char::from(b"aAbBzZ09 +-"[below(11) as usize]))
                        .collect();
                    format!("{word}\n")
                })
                .collect();
            for input in [keyed, words] {
                for flags in FLAG_SETS {
                    let order = order(flags);
                    let got = order.sort_bytes(&Bytes::from(input.as_str())).unwrap();
                    let expect = reference::sort_lines(&input, order.flags);
                    assert_eq!(got.to_str().unwrap(), expect, "sort {flags} of {n} lines");
                }
            }
        }
    }

    /// Lines that tie through their lead keep their input order — what
    /// `-u` keeps the first of — at every size: key-equal spellings under
    /// `-nu`, `-fu` and `-rnu`, identical lines under `-u`.
    #[test]
    fn key_equal_lines_keep_their_input_order() {
        for n in [2, INSERTION_RUN + 1, 257, 3000] {
            for (flags, spell) in [
                (
                    "-nu",
                    &(|i: usize| format!("{}7 {}", "0".repeat(i % 5), i))
                        as &dyn Fn(usize) -> String,
                ),
                ("-rnu", &|i| format!("{}7x{}", " ".repeat(i % 3), i)),
                ("-fu", &|i| {
                    if i % 2 == 0 {
                        "Same".to_owned()
                    } else {
                        "sAME".to_owned()
                    }
                }),
                ("-u", &|_| "same line".to_owned()),
            ] {
                let input: String = (0..n).map(|i| format!("{}\n", spell(i))).collect();
                let got = order(flags)
                    .sort_bytes(&Bytes::from(input.as_str()))
                    .unwrap();
                let first = format!("{}\n", spell(0));
                assert_eq!(got.to_str().unwrap(), first, "{flags} of {n}");
                assert_eq!(
                    sort_every_way(order(flags), &input),
                    [(); 3].map(|()| first.clone()),
                    "{flags} of {n}"
                );
            }
        }
    }

    /// The sort kernel on 64 KiB chunks and on 4 MiB, the sizes of a
    /// chunk and of a run batch under a 16 MiB spill budget, of keyed
    /// lines that share an eight-byte prefix per key — timed against the
    /// reference comparator sorting the same chunks in the same process,
    /// so that a slow or busy host slows both. (Optimised builds only, best
    /// of five each, the two interleaved: floors, not benchmarks. On one
    /// core of a 2-core host the kernel sorts 2.2–2.6 times as fast as the
    /// reference on the chunks and 2.7–3.4 times on the batch; the floors
    /// are half of that, where the absolute MB/s floors before them failed
    /// runs on a busy host with the kernel untouched.)
    #[test]
    #[cfg(not(debug_assertions))]
    fn the_sort_kernel_keeps_its_pace() {
        const CHUNK_SPEEDUP_FLOOR: f64 = 1.2;
        const BATCH_SPEEDUP_FLOOR: f64 = 1.4;
        let mut state = 7u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            (state >> 33) % n
        };
        let mut keyed = String::new();
        while keyed.len() < 4 << 20 {
            keyed.push_str(&format!(
                "key {:03} item {:07} tail {:04}\n",
                below(499),
                below(9_999_991),
                below(7919)
            ));
        }
        // How many times as fast as the reference the kernel sorts the
        // input cut into chunks of `bytes`.
        let speedup = |bytes: usize| {
            let mut chunks = Vec::new();
            let mut rest = keyed.as_str();
            while !rest.is_empty() {
                let end = rest[..bytes.min(rest.len())].rfind('\n').unwrap() + 1;
                let (chunk, tail) = rest.split_at(end);
                chunks.push(chunk);
                rest = tail;
            }
            let inputs: Vec<Bytes> = chunks.iter().map(|&c| Bytes::from(c)).collect();
            let time = |f: &dyn Fn()| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed()
            };
            let (mut kernel, mut reference) = (std::time::Duration::MAX, std::time::Duration::MAX);
            for _ in 0..5 {
                kernel = kernel.min(time(&|| {
                    for input in &inputs {
                        std::hint::black_box(order("").sort_bytes(input).unwrap());
                    }
                }));
                reference = reference.min(time(&|| {
                    for chunk in &chunks {
                        std::hint::black_box(reference::sort(order(""), chunk));
                    }
                }));
            }
            reference.as_secs_f64() / kernel.as_secs_f64()
        };
        let chunks = speedup(64 << 10);
        assert!(
            chunks >= CHUNK_SPEEDUP_FLOOR,
            "sort of 64 KiB chunks only {chunks:.1}x the reference's pace"
        );
        let batch = speedup(4 << 20);
        assert!(
            batch >= BATCH_SPEEDUP_FLOOR,
            "sort of a 4 MiB batch only {batch:.1}x the reference's pace"
        );
    }

    /// The eight-byte case folding of the prefix scan is the byte's.
    #[test]
    fn upper_word_folds_every_byte_alone() {
        for b in 0..=255u8 {
            for at in 0..8 {
                // The byte among neighbours that sit on the range edges.
                let mut bytes = *b"`az{@AZ[";
                bytes[at] = b;
                let expect = bytes.map(|c| c.to_ascii_uppercase());
                let word = u64::from_le_bytes(bytes);
                assert_eq!(
                    upper_word(word),
                    u64::from_le_bytes(expect),
                    "{b:#x} at {at}"
                );
            }
        }
    }

    /// The stream-count shapes of the k-way tests: one stream, powers of
    /// two and their neighbours, and more streams than any batch merges.
    const WAYS: [usize; 9] = [1, 2, 3, 5, 31, 33, 64, 65, 130];

    /// Every fragment `merge_to` hands out in fragments of `bytes`,
    /// concatenated; the consumed progress after each.
    fn fragments(order: LineOrder, streams: &[&[u8]], bytes: usize) -> (Vec<u8>, Vec<Vec<usize>>) {
        let (mut out, mut progress) = (Vec::new(), Vec::new());
        order
            .merge_to(streams, bytes, &mut |frag, consumed| {
                out.extend_from_slice(frag);
                progress.push(consumed.to_vec());
                Ok(())
            })
            .unwrap();
        (out, progress)
    }

    #[test]
    fn identical_streams_leave_in_stream_order() {
        for k in WAYS {
            // One line repeated in every stream: the merge drains stream 0,
            // then stream 1, and so on.
            let line = "      1 key 287 item 24 wolf dog\n".repeat(2);
            let streams = vec![line.as_bytes(); k];
            for flags in FLAG_SETS {
                let order = order(flags);
                let (out, progress) = fragments(order, &streams, 1);
                let expect = if order.flags.unique {
                    &line[..line.len() / 2]
                } else {
                    &line.repeat(k)
                };
                assert_eq!(
                    std::str::from_utf8(&out).unwrap(),
                    expect,
                    "{flags} over {k}"
                );
                if !order.flags.unique {
                    for consumed in progress {
                        let open = consumed.iter().position(|&c| c < line.len()).unwrap_or(k);
                        assert!(
                            consumed[open..].iter().skip(1).all(|&c| c == 0),
                            "{flags} over {k}: {consumed:?}"
                        );
                    }
                }
            }
            // Key-equal spellings, one per stream: `-u` keeps the first.
            let spellings = |spell: &dyn Fn(usize) -> String| -> Vec<String> {
                (0..k).map(|i| format!("{}\n", spell(i))).collect()
            };
            for (flags, spelled) in [
                ("-nu", spellings(&|i| format!("{}7", "0".repeat(i)))),
                ("-rnu", spellings(&|i| format!("{}7 x", " ".repeat(i)))),
                (
                    "-fu",
                    spellings(&|i| format!("{i:08b}").replace('0', "a").replace('1', "A")),
                ),
            ] {
                let views: Vec<&str> = spelled.iter().map(String::as_str).collect();
                assert_eq!(merge(flags, &views), spelled[0], "{flags} over {k}");
            }
            // Counts add up past 10^7 and widen the column.
            let each = 10_000_000 / k as u64 + 1;
            let counted = format!("{each:>7} x\n{:>7} y\n", 1);
            let streams = vec![counted.as_bytes(); k];
            let merged = order("").counted().merge(&streams);
            let sum = each * k as u64;
            assert_eq!(
                String::from_utf8(merged).unwrap(),
                format!("{sum} x\n{k:>7} y\n"),
                "over {k}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_sort_output_is_sorted_permutation(
            lines in proptest::collection::vec("[ -~]{0,10}", 0..40)
        ) {
            let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let out = run("sort", &input);
            let out_lines: Vec<&str> = out.split_terminator('\n').collect();
            let mut expect: Vec<&str> = lines.iter().map(String::as_str).collect();
            expect.sort_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
            prop_assert_eq!(out_lines, expect);
        }

        #[test]
        fn prop_sort_equals_the_reference_comparator(
            picks in proptest::collection::vec(0usize..vocabulary().len(), 0..48),
            final_newline in 0usize..2,
        ) {
            let input = text(&picks, final_newline == 1);
            for flags in FLAG_SETS {
                let order = order(flags);
                let expect = reference::sort_lines(&input, order.flags);
                // In one segment, and in segments of a line or two.
                for max_segment in [MAX_SEGMENT, small_segment(&input)] {
                    let got = order.sort(input.as_bytes(), max_segment).unwrap();
                    prop_assert_eq!(
                        &String::from_utf8(got).unwrap(),
                        &expect,
                        "sort {} of {:?}", flags, input
                    );
                }
            }
        }

        /// Hundreds of lines, so that key-equal runs outgrow insertion
        /// sort and reach the radix passes at every step.
        #[test]
        fn prop_sort_of_many_lines_equals_the_reference(
            picks in proptest::collection::vec(0usize..vocabulary().len(), 0..800),
            final_newline in 0usize..2,
        ) {
            let input = text(&picks, final_newline == 1);
            for flags in FLAG_SETS {
                let order = order(flags);
                let got = order.sort(input.as_bytes(), MAX_SEGMENT).unwrap();
                prop_assert_eq!(
                    &String::from_utf8(got).unwrap(),
                    &reference::sort_lines(&input, order.flags),
                    "sort {} of {} lines", flags, picks.len()
                );
            }
            for flags in COUNTED_FLAG_SETS {
                let order = order(flags).counted();
                let expect = counted_reference(&input, order.flags);
                prop_assert_eq!(&count_every_way(order, &input), &[(); 3].map(|()| expect.clone()));
            }
        }

        #[test]
        fn prop_merge_equals_the_reference_comparator(
            streams in proptest::collection::vec(
                (proptest::collection::vec(0usize..vocabulary().len(), 0..12), 0usize..2),
                0..6,
            ),
        ) {
            for flags in FLAG_SETS {
                let order = order(flags);
                // Each stream arrives the way a parallel `sort <flags>`
                // leaves it; the last line may lack its newline.
                let sorted: Vec<String> = streams
                    .iter()
                    .map(|(picks, final_newline)| {
                        let mut s = reference::sort_lines(&text(picks, true), order.flags);
                        if *final_newline == 0 {
                            s.pop();
                        }
                        s
                    })
                    .collect();
                let views: Vec<&str> = sorted.iter().map(String::as_str).collect();
                let expect = reference::merge_sorted(&views, order.flags);
                prop_assert_eq!(&merge(flags, &views), &expect, "merge {} of {:?}", flags, views);
                // Fragmenting changes nothing, and progress ends at the end
                // (unless -u dropped the lines after the last fragment).
                let bytes: Vec<&[u8]> = views.iter().map(|s| s.as_bytes()).collect();
                let mut pieces = Vec::new();
                let mut last = vec![0; bytes.len()];
                order.merge_to(&bytes, 5, &mut |frag, consumed| {
                    pieces.extend_from_slice(frag);
                    last = consumed.to_vec();
                    Ok(())
                }).unwrap();
                prop_assert_eq!(&String::from_utf8(pieces).unwrap(), &expect);
                let lens: Vec<usize> = views.iter().map(|s| s.len()).collect();
                if order.flags.unique || expect.is_empty() {
                    prop_assert!(last.iter().zip(&lens).all(|(done, len)| done <= len));
                } else {
                    prop_assert_eq!(last, lens);
                }
            }
        }

        #[test]
        fn prop_k_way_merges_equal_the_reference(
            ways in 0usize..WAYS.len(),
            picks in proptest::collection::vec(0usize..vocabulary().len(), 0..240),
            lump in 1usize..5,
            unterminated in 0u64..u64::MAX,
        ) {
            // Picks go to the streams in lumps of consecutive picks, so
            // streams share lines and runs; a stream may end unterminated.
            let k = WAYS[ways];
            let mut texts = vec![String::new(); k];
            for (j, &p) in picks.iter().enumerate() {
                texts[(j / lump) % k].push_str(&format!("{}\n", vocabulary()[p]));
            }
            let cut = |i: usize, mut s: String| {
                if unterminated >> (i % 64) & 1 == 1 {
                    s.pop();
                }
                s
            };
            let check = |order: LineOrder, runs: &[String], expect: &str| {
                let views: Vec<&[u8]> = runs.iter().map(|s| s.as_bytes()).collect();
                prop_assert_eq!(String::from_utf8(order.merge(&views)).unwrap(), expect);
                for bytes in [1, 5] {
                    let (out, _) = fragments(order, &views, bytes);
                    prop_assert_eq!(String::from_utf8(out).unwrap(), expect);
                }
                Ok(())
            };
            for flags in FLAG_SETS {
                let order = order(flags);
                let sorted: Vec<String> = texts
                    .iter()
                    .enumerate()
                    .map(|(i, t)| cut(i, reference::sort_lines(t, order.flags)))
                    .collect();
                let views: Vec<&str> = sorted.iter().map(String::as_str).collect();
                check(order, &sorted, &reference::merge_sorted(&views, order.flags))?;
            }
            let whole: String = texts.concat();
            for flags in COUNTED_FLAG_SETS {
                let order = order(flags).counted();
                let counted: Vec<String> = texts
                    .iter()
                    .enumerate()
                    .map(|(i, t)| cut(i, counted_reference(t, order.flags)))
                    .collect();
                check(order, &counted, &counted_reference(&whole, order.flags))?;
            }
        }

        /// `sort -m` of streams that are not sorted still sends the
        /// earliest current line out first, as the reference does.
        #[test]
        fn prop_merge_of_unsorted_streams_takes_the_earliest_line(
            streams in proptest::collection::vec(
                (proptest::collection::vec(0usize..vocabulary().len(), 0..12), 0usize..2),
                0..6,
            ),
        ) {
            let texts: Vec<String> = streams
                .iter()
                .map(|(picks, final_newline)| text(picks, *final_newline == 1))
                .collect();
            let views: Vec<&str> = texts.iter().map(String::as_str).collect();
            for flags in FLAG_SETS {
                let expect = reference::merge_sorted(&views, order(flags).flags);
                prop_assert_eq!(&merge(flags, &views), &expect, "merge {} of {:?}", flags, views);
            }
        }

        #[test]
        fn prop_part_merges_concatenate_to_the_flat_merge(
            streams in proptest::collection::vec(
                (proptest::collection::vec(0usize..vocabulary().len(), 0..12), 0usize..2),
                0..6,
            ),
        ) {
            for flags in FLAG_SETS {
                let order = order(flags);
                let sorted: Vec<String> = streams
                    .iter()
                    .map(|(picks, final_newline)| {
                        let mut s = reference::sort_lines(&text(picks, true), order.flags);
                        if *final_newline == 0 {
                            s.pop();
                        }
                        s
                    })
                    .collect();
                let runs: Vec<&[u8]> = sorted.iter().map(|s| s.as_bytes()).collect();
                let flat = order.merge(&runs);
                for parts in 1..=9 {
                    let cuts = order.partition(&runs, parts, &mut |_| {});
                    prop_assert_eq!(cuts.len(), parts);
                    prop_assert_eq!(
                        &merge_in_parts(order, &runs, &cuts), &flat,
                        "merge {} of {:?} in {} parts", flags, sorted, parts
                    );
                    check_cuts(order, &runs, &cuts);
                }
            }
        }

        #[test]
        fn prop_counted_kernel_equals_uniq_c_of_the_reference_sort(
            picks in proptest::collection::vec(0usize..vocabulary().len(), 0..48),
            final_newline in 0usize..2,
        ) {
            let input = text(&picks, final_newline == 1);
            for flags in COUNTED_FLAG_SETS {
                let order = order(flags).counted();
                let expect = counted_reference(&input, order.flags);
                prop_assert_eq!(
                    &count_every_way(order, &input),
                    &[(); 3].map(|()| expect.clone()),
                    "sort {} | uniq -c of {:?}", flags, input
                );
                // In segments of a line or two, the merge adding them up.
                let got = order.sort(input.as_bytes(), small_segment(&input)).unwrap();
                prop_assert_eq!(&String::from_utf8(got).unwrap(), &expect);
            }
        }

        #[test]
        fn prop_counted_merges_equal_the_pair_on_the_concatenation(
            streams in proptest::collection::vec(
                (proptest::collection::vec(0usize..vocabulary().len(), 0..12), 0usize..2),
                0..6,
            ),
        ) {
            for flags in COUNTED_FLAG_SETS {
                let order = order(flags).counted();
                // Each stream arrives the way the kernel leaves a chunk;
                // the last line may lack its newline.
                let whole: String = streams.iter().map(|(picks, _)| text(picks, true)).collect();
                let expect = counted_reference(&whole, order.flags);
                let counted: Vec<String> = streams
                    .iter()
                    .map(|(picks, final_newline)| {
                        let mut s = counted_reference(&text(picks, true), order.flags);
                        if *final_newline == 0 {
                            s.pop();
                        }
                        s
                    })
                    .collect();
                let runs: Vec<&[u8]> = counted.iter().map(|s| s.as_bytes()).collect();
                let flat = order.merge(&runs);
                prop_assert_eq!(
                    std::str::from_utf8(&flat).unwrap(), &expect,
                    "counted merge {} of {:?}", flags, counted
                );
                let mut pieces = Vec::new();
                let mut last = vec![0; runs.len()];
                order.merge_to(&runs, 5, &mut |frag, consumed| {
                    pieces.extend_from_slice(frag);
                    last = consumed.to_vec();
                    Ok(())
                }).unwrap();
                prop_assert_eq!(&pieces, &flat);
                if !flat.is_empty() {
                    prop_assert_eq!(last, runs.iter().map(|r| r.len()).collect::<Vec<_>>());
                }
                // No boundary separates two runs' entries for one line.
                for parts in 1..=9 {
                    let cuts = order.partition(&runs, parts, &mut |_| {});
                    prop_assert_eq!(cuts.len(), parts);
                    prop_assert_eq!(
                        &merge_in_parts(order, &runs, &cuts), &flat,
                        "counted merge {} of {:?} in {} parts", flags, counted, parts
                    );
                    check_cuts(order, &runs, &cuts);
                }
            }
        }

        #[test]
        fn prop_merge_matches_sort_of_concat(
            a in proptest::collection::vec("[a-e]{0,4}", 0..20),
            b in proptest::collection::vec("[a-e]{0,4}", 0..20),
        ) {
            let mk = |v: &[String]| -> String {
                let mut s: Vec<&str> = v.iter().map(String::as_str).collect();
                s.sort_by(|x, y| x.as_bytes().cmp(y.as_bytes()));
                s.iter().map(|l| format!("{l}\n")).collect()
            };
            let (s1, s2) = (mk(&a), mk(&b));
            prop_assert_eq!(merge("", &[&s1, &s2]), run("sort", &format!("{s1}{s2}")));
        }

        #[test]
        fn prop_numeric_sort_values_nondecreasing(
            nums in proptest::collection::vec(-1000i32..1000, 1..30)
        ) {
            let input: String = nums.iter().map(|n| format!("{n}\n")).collect();
            let out = run("sort -n", &input);
            let vals: Vec<i32> = out.split_terminator('\n')
                .map(|l| l.parse().unwrap())
                .collect();
            for w in vals.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
        }
    }
}
