//! The automaton executor: which lines of a buffer a pattern matches, in
//! one pass over the buffer.
//!
//! A pattern without a backreference is regular once nobody asks for
//! capture spans (a group is then plain concatenation), so it compiles —
//! in time and space linear in the pattern — to a Thompson NFA over
//! *bytes* ([`Program`]). `.` and bracket expressions keep their
//! character semantics by consuming one whole UTF-8 scalar: an ASCII byte,
//! or a lead byte and its continuation bytes. `-i` is folded into the byte
//! sets. No byte set contains `'\n'`, so no match ever crosses a line.
//!
//! A search determinises that NFA **lazily** ([`Dfa`]): a DFA state is a
//! set of NFA states and is built the first time the scan reaches it, one
//! transition at a time, into a flat table indexed by state and byte
//! class. The table is scratch owned by the search — nothing is shared,
//! locked or cached in the [`Program`], and compiling costs nothing beyond
//! the NFA. At [`STATE_CAP`] states the scratch is dropped and the scan
//! carries on from the state it is in, so a pattern whose subset
//! construction explodes (`a` followed by twenty `.`) degrades towards
//! NFA simulation speed instead of exhausting memory.
//!
//! The scan restarts the pattern at every position by keeping the NFA's
//! start closure in every DFA state; `'\n'` (or the end of the buffer)
//! asks the current state whether it accepts with `$` satisfied and
//! resets to the line-start state, the only one where `^` holds. Two
//! things keep it off the byte-at-a-time path: a pattern that is a single
//! literal is a substring search, and a scan that falls back to its idle
//! state (nothing matched so far but the restart) jumps to the next of
//! the few bytes that can leave it.
//!
//! `'\n'` is one of those bytes only when a line end can change the idle
//! state: when a `^` is passable at the pattern's start, so the next line
//! starts elsewhere, or when the idle state accepts at a line end (`$`,
//! `x*$`). For every other pattern the skip runs across lines without
//! stopping, so the scan does not know where the line it is in starts. It
//! finds out only on a hit, searching back from it to the last line start
//! it saw.

use crate::exec::class_contains;
use crate::parse::{Ast, Atom, ClassItem, Piece};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;

/// DFA states a search holds before it drops them and starts again.
const STATE_CAP: usize = 1024;

/// The idle state is worth a byte search when at most this many byte
/// values leave it.
const SKIP_NEEDLES_MAX: usize = 3;

/// A set of byte values.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
struct ByteSet([u64; 4]);

impl ByteSet {
    fn range(lo: u8, hi: u8) -> ByteSet {
        let mut set = ByteSet::default();
        for b in lo..=hi {
            set.insert(b);
        }
        set
    }

    fn insert(&mut self, b: u8) {
        self.0[usize::from(b >> 6)] |= 1 << (b & 63);
    }

    fn contains(&self, b: u8) -> bool {
        self.0[usize::from(b >> 6)] >> (b & 63) & 1 != 0
    }

    fn is_empty(&self) -> bool {
        self.0 == [0; 4]
    }

    fn union(&mut self, other: &ByteSet) {
        for (word, more) in self.0.iter_mut().zip(other.0) {
            *word |= more;
        }
    }

    fn bytes(&self) -> impl Iterator<Item = u8> + '_ {
        (0..=u8::MAX).filter(|&b| self.contains(b))
    }

    /// The bytes at which membership changes: bit `b` is set when `b` and
    /// `b - 1` differ.
    fn boundaries(&self) -> [u64; 4] {
        let mut out = [0; 4];
        let mut carry = 0;
        for (i, &word) in self.0.iter().enumerate() {
            out[i] = word ^ (word << 1 | carry);
            carry = word >> 63;
        }
        out
    }
}

/// One NFA state. State 0 is always [`Nfa::Match`].
#[derive(Clone, Copy, Debug)]
enum Nfa {
    /// Consumes one byte of the set.
    Byte(ByteSet, u32),
    /// Continues at both targets without consuming.
    Split(u32, u32),
    /// `^`: passable only before the first byte of a line.
    LineStart(u32),
    /// `$`: passable only when the next byte is `'\n'` or the buffer ends.
    LineEnd(u32),
    Match,
}

const MATCH_STATE: u32 = 0;

/// A compiled pattern: the byte NFA and what a search needs beside it.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    nfa: Vec<Nfa>,
    /// Byte classes: bytes every NFA byte set treats alike share one, and
    /// `'\n'` has its own. A DFA row has one column per class.
    class_of: [u8; 256],
    stride: usize,
    /// The start closure with `^` satisfied: the state a line begins in.
    start_set: Vec<u32>,
    /// The start closure without it: what every other DFA state contains,
    /// and alone the idle state.
    idle_set: Vec<u32>,
    /// The pattern matches the empty string at the start of a line.
    every_line: bool,
    /// The bytes that leave the idle state, when few enough to search
    /// for: those that can start a match, and `'\n'` unless a line end
    /// cannot change the idle state. `None` when there are too many.
    needles: Option<Vec<u8>>,
    /// The whole pattern, when it is one literal string.
    literal: Option<String>,
    /// No byte set holds a byte of `0x80` or above: the program reads
    /// only ASCII, so which lines it matches does not depend on how the
    /// other bytes decode.
    pub(crate) ascii_only: bool,
}

impl Program {
    /// Compiles `ast`, which must not contain a backreference.
    pub(crate) fn new(ast: &Ast, ci: bool) -> Program {
        let mut compiler = Compiler {
            nfa: vec![Nfa::Match],
            ci,
        };
        let start = compiler.branch(ast, MATCH_STATE);
        let nfa = compiler.nfa;

        let mut boundaries = ByteSet::range(b'\n', b'\n' + 1).0;
        for state in &nfa {
            if let Nfa::Byte(set, _) = state {
                for (all, more) in boundaries.iter_mut().zip(set.boundaries()) {
                    *all |= more;
                }
            }
        }
        let boundaries = ByteSet(boundaries);
        let mut class_of = [0u8; 256];
        let mut class = 0u8;
        for b in 1..=u8::MAX {
            // At most 255 boundaries above byte 0: the count fits.
            class += u8::from(boundaries.contains(b));
            class_of[usize::from(b)] = class;
        }

        let mut marks = Marks::new(nfa.len());
        let mut start_set = Vec::new();
        marks.closure(&nfa, [start], true, false, &mut start_set);
        let mut idle_set = Vec::new();
        marks.closure(&nfa, [start], false, false, &mut idle_set);

        let mut leaving = ByteSet::default();
        for &state in &idle_set {
            if let Nfa::Byte(set, _) = &nfa[state as usize] {
                leaving.union(set);
            }
        }
        // A line end leaves the idle state when the next line starts in
        // another one (a `^` is passable at the pattern's start) or when a
        // line can end in it with a match (`$`, `x*$`). Asked from the
        // line-start state, where `^` holds too, so an empty line counts.
        let mut at_line_end = Vec::new();
        marks.closure(
            &nfa,
            start_set.iter().copied(),
            true,
            true,
            &mut at_line_end,
        );
        let newline_leaves = start_set != idle_set || at_line_end.first() == Some(&MATCH_STATE);
        let leaving: Vec<u8> = leaving.bytes().take(SKIP_NEEDLES_MAX + 1).collect();
        let needles = (leaving.len() <= SKIP_NEEDLES_MAX).then(|| {
            let newline = newline_leaves.then_some(b'\n');
            newline.into_iter().chain(leaving).collect()
        });

        Program {
            ascii_only: nfa.iter().all(|state| match state {
                Nfa::Byte(set, _) => set.0[2..] == [0, 0],
                _ => true,
            }),
            every_line: start_set.first() == Some(&MATCH_STATE),
            literal: literal_of(ast, ci),
            stride: usize::from(class) + 1,
            nfa,
            class_of,
            start_set,
            idle_set,
            needles,
        }
    }
}

/// The pattern as one string, when matching it is a substring search:
/// unanchored literal characters only, none of which `-i` folds. A
/// `'\n'` disqualifies it (no line contains one).
fn literal_of(ast: &Ast, ci: bool) -> Option<String> {
    if ast.anchored_start || ast.anchored_end || ast.atoms.is_empty() {
        return None;
    }
    ast.atoms
        .iter()
        .map(|atom| match atom {
            Atom {
                piece: Piece::Literal(c),
                star: false,
            } if *c != '\n' && !(ci && c.is_ascii_alphabetic()) => Some(*c),
            _ => None,
        })
        .collect()
}

/// Builds the NFA back to front: every method takes the state that
/// follows and returns the state to enter at.
struct Compiler {
    nfa: Vec<Nfa>,
    ci: bool,
}

impl Compiler {
    fn push(&mut self, state: Nfa) -> u32 {
        self.nfa.push(state);
        u32::try_from(self.nfa.len() - 1).expect("the parser bounds the pattern's expansion")
    }

    fn branch(&mut self, ast: &Ast, mut next: u32) -> u32 {
        if ast.anchored_end {
            next = self.push(Nfa::LineEnd(next));
        }
        for atom in ast.atoms.iter().rev() {
            next = self.atom(atom, next);
        }
        if ast.anchored_start {
            next = self.push(Nfa::LineStart(next));
        }
        next
    }

    fn atom(&mut self, atom: &Atom, next: u32) -> u32 {
        if !atom.star {
            return self.piece(&atom.piece, next);
        }
        let split = self.push(Nfa::Split(next, next));
        let body = self.piece(&atom.piece, split);
        self.nfa[split as usize] = Nfa::Split(body, next);
        split
    }

    fn piece(&mut self, piece: &Piece, next: u32) -> u32 {
        match piece {
            Piece::Literal(c) if self.ci && c.is_ascii_alphabetic() => {
                let mut set = ByteSet::default();
                set.insert(c.to_ascii_lowercase() as u8);
                set.insert(c.to_ascii_uppercase() as u8);
                self.push(Nfa::Byte(set, next))
            }
            Piece::Literal(c) => {
                let mut utf8 = [0; 4];
                let mut entry = next;
                for &b in c.encode_utf8(&mut utf8).as_bytes().iter().rev() {
                    let set = if b == b'\n' {
                        ByteSet::default()
                    } else {
                        ByteSet::range(b, b)
                    };
                    entry = self.push(Nfa::Byte(set, entry));
                }
                entry
            }
            Piece::AnyChar => self.scalars(&|c| c != '\n', &[(0x80, MAX_SCALAR)], next),
            Piece::Class { negated, items } => {
                let ci = self.ci;
                let wide = wide_ranges(*negated, items);
                self.scalars(
                    &|c| c != '\n' && class_contains(ci, *negated, items, c),
                    &wide,
                    next,
                )
            }
            // A group only records a span, which nobody asks this
            // executor for.
            Piece::Group(_, inner) => self.branch(inner, next),
            Piece::Alt(branches) => {
                let entries: Vec<u32> = branches.iter().map(|b| self.branch(b, next)).collect();
                self.any_of(entries)
            }
            Piece::Backref(_) => {
                unreachable!("patterns with backreferences run on the backtracker")
            }
        }
    }

    /// One UTF-8 scalar out of a set: the ASCII characters `ascii`
    /// accepts, and the `wide` ranges of scalars from `0x80` up.
    fn scalars(&mut self, ascii: &dyn Fn(char) -> bool, wide: &[(u32, u32)], next: u32) -> u32 {
        let mut entries = Vec::new();
        let mut set = ByteSet::default();
        for b in 0..0x80u8 {
            if ascii(char::from(b)) {
                set.insert(b);
            }
        }
        if !set.is_empty() {
            entries.push(self.push(Nfa::Byte(set, next)));
        }
        if wide == [(0x80, MAX_SCALAR)] {
            // Every scalar past ASCII — `.` and the usual `[^...]`. The
            // input is valid UTF-8, so the lead byte alone says how many
            // continuation bytes follow, and the tails can be shared.
            let continuation = ByteSet::range(0x80, 0xBF);
            let mut tail = next;
            for lead in [(0xC2, 0xDF), (0xE0, 0xEF), (0xF0, 0xF4)] {
                tail = self.push(Nfa::Byte(continuation, tail));
                entries.push(self.push(Nfa::Byte(ByteSet::range(lead.0, lead.1), tail)));
            }
        } else {
            let mut sequences = Vec::new();
            for &(lo, hi) in wide {
                utf8_sequences(lo, hi, &mut sequences);
            }
            for sequence in sequences {
                let entry = sequence.iter().rev().fold(next, |entry, &(lo, hi)| {
                    self.push(Nfa::Byte(ByteSet::range(lo, hi), entry))
                });
                entries.push(entry);
            }
        }
        self.any_of(entries)
    }

    /// A state that continues at every one of `entries`; a dead state when
    /// there is none.
    fn any_of(&mut self, entries: Vec<u32>) -> u32 {
        entries
            .into_iter()
            .reduce(|rest, entry| self.push(Nfa::Split(entry, rest)))
            .unwrap_or_else(|| self.push(Nfa::Byte(ByteSet::default(), MATCH_STATE)))
    }
}

const MAX_SCALAR: u32 = 0x10FFFF;

/// The scalars from `0x80` up that a bracket expression contains, as
/// sorted disjoint ranges. `-i` folds ASCII only and POSIX classes are
/// ASCII, so only characters and ranges contribute.
fn wide_ranges(negated: bool, items: &[ClassItem]) -> Vec<(u32, u32)> {
    let mut ranges: Vec<(u32, u32)> = items
        .iter()
        .filter_map(|item| match item {
            ClassItem::Char(c) => Some((u32::from(*c), u32::from(*c))),
            ClassItem::Range(lo, hi) => Some((u32::from(*lo), u32::from(*hi))),
            ClassItem::Posix(_) => None,
        })
        .filter(|&(_, hi)| hi >= 0x80)
        .map(|(lo, hi)| (lo.max(0x80), hi))
        .collect();
    ranges.sort_unstable();
    let mut merged: Vec<(u32, u32)> = Vec::new();
    for (lo, hi) in ranges {
        match merged.last_mut() {
            Some(last) if lo <= last.1 + 1 => last.1 = last.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    if !negated {
        return merged;
    }
    let mut complement = Vec::new();
    let mut from = 0x80;
    for (lo, hi) in merged {
        if lo > from {
            complement.push((from, lo - 1));
        }
        from = hi + 1;
    }
    if from <= MAX_SCALAR {
        complement.push((from, MAX_SCALAR));
    }
    complement
}

/// Splits the scalar range `lo..=hi` into sequences of byte ranges that
/// together match exactly the UTF-8 encodings of its scalars.
fn utf8_sequences(lo: u32, hi: u32, out: &mut Vec<Vec<(u8, u8)>>) {
    if lo > hi {
        return;
    }
    // Surrogates are not scalars.
    if lo <= 0xDFFF && hi >= 0xD800 {
        if lo < 0xD800 {
            utf8_sequences(lo, 0xD7FF, out);
        }
        return utf8_sequences(hi.min(0xDFFF) + 1, hi, out);
    }
    // One encoded length per range.
    for last in [0x7F, 0x7FF, 0xFFFF] {
        if lo <= last && last < hi {
            utf8_sequences(lo, last, out);
            return utf8_sequences(last + 1, hi, out);
        }
    }
    // Below the first byte where the two ends differ, every continuation
    // byte must span its whole range.
    for i in 1..4 {
        let low_bits = (1u32 << (6 * i)) - 1;
        if lo & !low_bits != hi & !low_bits {
            if lo & low_bits != 0 {
                utf8_sequences(lo, lo | low_bits, out);
                return utf8_sequences((lo | low_bits) + 1, hi, out);
            }
            if hi & low_bits != low_bits {
                utf8_sequences(lo, (hi & !low_bits) - 1, out);
                return utf8_sequences(hi & !low_bits, hi, out);
            }
        }
    }
    let encode = |scalar: u32| {
        let mut utf8 = [0; 4];
        let c = char::from_u32(scalar).expect("surrogates were split off above");
        c.encode_utf8(&mut utf8).as_bytes().to_vec()
    };
    out.push(encode(lo).into_iter().zip(encode(hi)).collect());
}

/// Visited marks for closures over NFA states, reusable without clearing.
struct Marks {
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl Marks {
    fn new(states: usize) -> Marks {
        Marks {
            seen: vec![0; states],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// Starts a new set: nothing is marked.
    fn clear(&mut self) {
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            self.seen.fill(0);
            1
        });
    }

    /// Marks `state`; true when it was not marked yet.
    fn mark(&mut self, state: u32) -> bool {
        let seen = &mut self.seen[state as usize];
        let fresh = *seen != self.epoch;
        *seen = self.epoch;
        fresh
    }

    /// Replaces `out` with the states reachable from `seeds` without
    /// consuming a byte, sorted: the byte states and `Match`, and every
    /// `$` that has to wait (`at_end` false). `^` passes only when
    /// `at_start`; one that does not is dropped, as it never will.
    fn closure(
        &mut self,
        nfa: &[Nfa],
        seeds: impl IntoIterator<Item = u32>,
        at_start: bool,
        at_end: bool,
        out: &mut Vec<u32>,
    ) {
        self.clear();
        out.clear();
        self.stack.extend(seeds);
        while let Some(state) = self.stack.pop() {
            if !self.mark(state) {
                continue;
            }
            match nfa[state as usize] {
                Nfa::Split(a, b) => self.stack.extend([a, b]),
                Nfa::LineStart(next) if at_start => self.stack.push(next),
                Nfa::LineStart(_) => {}
                Nfa::LineEnd(next) if at_end => self.stack.push(next),
                Nfa::LineEnd(_) | Nfa::Byte(..) | Nfa::Match => out.push(state),
            }
        }
        out.sort_unstable();
    }
}

// Table entries below `SPECIAL` are row offsets; the rest say what the
// scan has to do instead of stepping.
const SPECIAL: u32 = u32::MAX - 4;
/// The target is the idle state and there are bytes to search for.
const TO_IDLE: u32 = u32::MAX - 4;
/// The target accepts: the line matches whatever follows.
const MATCHED: u32 = u32::MAX - 3;
/// In the `'\n'` column: the state accepts at the end of a line.
const EOL_HIT: u32 = u32::MAX - 2;
const EOL_MISS: u32 = u32::MAX - 1;
const UNKNOWN: u32 = u32::MAX;

const START_ROW: usize = 0;

/// The lazily built DFA of one search.
struct Dfa<'p> {
    prog: &'p Program,
    /// One row of `prog.stride` entries per state; row 0 is the
    /// line-start state, row 1 the idle state.
    table: Vec<u32>,
    /// The NFA states of each DFA state, by row.
    sets: Vec<Rc<[u32]>>,
    /// Row offset by NFA state set. The line-start state is not in it:
    /// the scan enters it at a line start and no transition leads there.
    index: HashMap<Rc<[u32]>, u32>,
    marks: Marks,
    scratch: Vec<u32>,
}

impl<'p> Dfa<'p> {
    fn new(prog: &'p Program) -> Dfa<'p> {
        let mut dfa = Dfa {
            prog,
            table: Vec::new(),
            sets: Vec::new(),
            index: HashMap::new(),
            marks: Marks::new(prog.nfa.len()),
            scratch: Vec::new(),
        };
        dfa.reset();
        dfa
    }

    fn idle_row(&self) -> usize {
        self.prog.stride
    }

    /// Drops every state but the two that are always there.
    fn reset(&mut self) {
        self.table.clear();
        self.table.resize(2 * self.prog.stride, UNKNOWN);
        self.sets.clear();
        self.sets.push(self.prog.start_set.as_slice().into());
        self.sets.push(self.prog.idle_set.as_slice().into());
        self.index.clear();
    }

    /// Computes the entry for `byte` in the row at `row`, and stores it
    /// unless making room for it dropped that row.
    fn fill(&mut self, row: usize, byte: u8) -> u32 {
        let prog = self.prog;
        let set = Rc::clone(&self.sets[row / prog.stride]);
        let mut target = std::mem::take(&mut self.scratch);
        let mut kept = true;
        let entry = if byte == b'\n' {
            self.marks.closure(
                &prog.nfa,
                set.iter().copied(),
                row == START_ROW,
                true,
                &mut target,
            );
            if target.first() == Some(&MATCH_STATE) {
                EOL_HIT
            } else {
                EOL_MISS
            }
        } else {
            let stepped = set
                .iter()
                .filter_map(|&state| match &prog.nfa[state as usize] {
                    Nfa::Byte(bytes, next) if bytes.contains(byte) => Some(*next),
                    _ => None,
                });
            // Restarting the pattern at the next position.
            let seeds = stepped.chain(prog.idle_set.iter().copied());
            self.marks
                .closure(&prog.nfa, seeds, false, false, &mut target);
            if target.first() == Some(&MATCH_STATE) {
                MATCHED
            } else if target == prog.idle_set {
                if prog.needles.is_some() {
                    TO_IDLE
                } else {
                    self.idle_row() as u32
                }
            } else if let Some(&known) = self.index.get(target.as_slice()) {
                known
            } else {
                if self.sets.len() >= STATE_CAP {
                    self.reset();
                    kept = false;
                }
                let new = self.table.len() as u32;
                self.table.resize(self.table.len() + prog.stride, UNKNOWN);
                let key: Rc<[u32]> = target.as_slice().into();
                self.sets.push(Rc::clone(&key));
                self.index.insert(key, new);
                new
            }
        };
        self.scratch = target;
        if kept {
            self.table[row + usize::from(prog.class_of[usize::from(byte)])] = entry;
        }
        entry
    }

    /// The first matching line at or after `from`, which must be the
    /// start of a line: its range without the terminator.
    fn next_match(&mut self, buf: &[u8], from: usize) -> Option<Range<usize>> {
        let prog = self.prog;
        let class_of = &prog.class_of;
        let needles = prog.needles.as_deref().unwrap_or_default();
        // The last line start the scan has seen: the idle skip may cross
        // line ends without looking, so a line's start is found only when
        // it matches, searching back from the hit.
        let mut known_start = from;
        let line_start = |known: usize, at: usize| {
            buf[known..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(known, |nl| known + nl + 1)
        };
        let mut row = START_ROW;
        let mut i = from;
        while i < buf.len() {
            let byte = buf[i];
            let mut entry = self.table[row + usize::from(class_of[usize::from(byte)])];
            if entry < SPECIAL {
                row = entry as usize;
                i += 1;
                continue;
            }
            if entry == UNKNOWN {
                entry = self.fill(row, byte);
            }
            match entry {
                TO_IDLE => {
                    row = self.idle_row();
                    i = find_any(buf, i + 1, needles);
                }
                MATCHED => return Some(line_start(known_start, i)..find_any(buf, i, b"\n")),
                EOL_HIT => return Some(line_start(known_start, i)..i),
                EOL_MISS => {
                    row = START_ROW;
                    i += 1;
                    known_start = i;
                }
                next => {
                    row = next as usize;
                    i += 1;
                }
            }
        }
        // An unterminated last line ends at the end of the buffer.
        let last = line_start(known_start, buf.len());
        if last < buf.len() {
            let mut entry = self.table[row + usize::from(class_of[usize::from(b'\n')])];
            if entry == UNKNOWN {
                entry = self.fill(row, b'\n');
            }
            if entry == EOL_HIT {
                return Some(last..buf.len());
            }
        }
        None
    }
}

/// The position of the first byte of `buf` at or after `from` that is one
/// of `needles` (at most four), else `buf.len()`. Eight bytes at a time.
fn find_any(buf: &[u8], from: usize, needles: &[u8]) -> usize {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let mut splats = [0u64; 1 + SKIP_NEEDLES_MAX];
    let splats = &mut splats[..needles.len()];
    for (splat, &needle) in splats.iter_mut().zip(needles) {
        *splat = LOW * u64::from(needle);
    }
    let mut pos = from.min(buf.len());
    let mut words = buf[pos..].chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        let mut zeros = 0;
        for &splat in splats.iter() {
            // The lowest set bit marks the first zero byte of the
            // difference; bits above it may be borrow noise.
            let diff = word ^ splat;
            zeros |= diff.wrapping_sub(LOW) & !diff & HIGH;
        }
        if zeros != 0 {
            return pos + (zeros.trailing_zeros() / 8) as usize;
        }
        pos += 8;
    }
    words
        .remainder()
        .iter()
        .position(|b| needles.contains(b))
        .map_or(buf.len(), |at| pos + at)
}

/// The first occurrence of the non-empty `needle` in `hay` at or after
/// `from`: every occurrence of its first byte ([`find_any`]) is compared
/// with the whole needle.
fn find_literal(hay: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    let mut at = from;
    loop {
        at = find_any(hay, at, &needle[..1]);
        if hay.get(at..at + needle.len())? == needle {
            return Some(at);
        }
        at += 1;
    }
}

/// How a [`MatchingLines`] decides, chosen by the pattern alone.
enum Executor<'r> {
    /// Every line matches.
    EveryLine,
    /// The pattern is this string: a substring search.
    Literal(&'r str),
    Dfa(Dfa<'r>),
    /// A backreference: the backtracker, line by line.
    Backtrack {
        ast: &'r Ast,
        ci: bool,
    },
}

/// Iterator over the lines of a buffer that a pattern matches; see
/// [`crate::Regex::matching_lines`].
pub struct MatchingLines<'r, 't> {
    text: &'t [u8],
    /// The start of the first line not looked at yet.
    pos: usize,
    executor: Executor<'r>,
}

impl<'r, 't> MatchingLines<'r, 't> {
    pub(crate) fn new(
        ast: &'r Ast,
        program: Option<&'r Program>,
        ci: bool,
        text: &'t [u8],
    ) -> MatchingLines<'r, 't> {
        let executor = match program {
            None => Executor::Backtrack { ast, ci },
            Some(program) if program.every_line => Executor::EveryLine,
            Some(Program {
                literal: Some(literal),
                ..
            }) => Executor::Literal(literal),
            Some(program) => Executor::Dfa(Dfa::new(program)),
        };
        MatchingLines {
            text,
            pos: 0,
            executor,
        }
    }
}

impl Iterator for MatchingLines<'_, '_> {
    /// The byte range of a matching line, without its terminator.
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        let (text, pos) = (self.text, self.pos);
        if pos >= text.len() {
            return None;
        }
        // The end of the line that contains `at`: the position of its
        // terminator, or the end of the buffer.
        let line_end = |at| find_any(text, at, b"\n");
        let line = match &mut self.executor {
            Executor::EveryLine => Some(pos..line_end(pos)),
            Executor::Literal(literal) => find_literal(text, pos, literal.as_bytes()).map(|hit| {
                let start = text[pos..hit]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(pos, |nl| pos + nl + 1);
                start..line_end(hit + literal.len())
            }),
            Executor::Dfa(dfa) => dfa.next_match(text, pos),
            Executor::Backtrack { ast, ci } => {
                let mut start = pos;
                loop {
                    if start >= text.len() {
                        break None;
                    }
                    let end = line_end(start);
                    // The backtracker reads characters: a line that is
                    // not UTF-8 has none for it to match.
                    let line = std::str::from_utf8(&text[start..end]);
                    if line.is_ok_and(|line| crate::exec::search(ast, line, *ci).is_some()) {
                        break Some(start..end);
                    }
                    start = end + 1;
                }
            }
        };
        self.pos = line.as_ref().map_or(text.len(), |line| line.end + 1);
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Syntax;
    use crate::Regex;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::mpsc;
    use std::time::Duration;

    /// The backtracker's verdict on one line: the oracle.
    fn backtracks(re: &Regex, line: &str) -> bool {
        crate::exec::search(&re.ast, line, re.case_insensitive).is_some()
    }

    fn pick<'a>(rng: &mut SmallRng, from: &[&'a str]) -> &'a str {
        from[rng.gen_range(0..from.len())]
    }

    /// A random pattern without backreferences, as source text in the
    /// given spelling: literals, `.`, bracket and POSIX classes, negation,
    /// stars, groups, alternation with anchors per branch, intervals, and
    /// (extended) `+` and `?`.
    fn random_pattern(rng: &mut SmallRng, syntax: Syntax, depth: usize) -> String {
        let extended = syntax == Syntax::Extended;
        let (open, close, or) = if extended {
            ("(", ")", "|")
        } else {
            ("\\(", "\\)", "\\|")
        };
        let branches = if rng.gen_bool(0.25) { 2 } else { 1 };
        let mut pattern = String::new();
        for branch in 0..branches {
            if branch > 0 {
                pattern.push_str(or);
            }
            if rng.gen_bool(0.2) {
                pattern.push('^');
            }
            for _ in 0..rng.gen_range(0..4) {
                if depth < 2 && rng.gen_bool(0.15) {
                    pattern.push_str(open);
                    pattern.push_str(&random_pattern(rng, syntax, depth + 1));
                    pattern.push_str(close);
                } else {
                    pattern.push_str(pick(
                        rng,
                        &[
                            "a",
                            "b",
                            "c",
                            "x",
                            "A",
                            "é",
                            ".",
                            ".",
                            "[ab]",
                            "[^a]",
                            "[a-c]",
                            "[[:digit:]]",
                            "[^[:alpha:] ]",
                            "[é]",
                            "[^é]",
                            "[à-ü]",
                            "[^b-yé]",
                            "[]a]",
                            "\\.",
                        ],
                    ));
                }
                let quantifiers: &[&str] = if extended {
                    &["", "", "", "*", "*", "+", "?", "{2}", "{0,2}", "{1,}"]
                } else {
                    &["", "", "", "*", "*", "\\{2\\}", "\\{0,2\\}", "\\{1,\\}"]
                };
                pattern.push_str(pick(rng, quantifiers));
            }
            if rng.gen_bool(0.2) {
                pattern.push('$');
            }
        }
        pattern
    }

    fn random_line(rng: &mut SmallRng) -> String {
        let alphabet: Vec<char> = "aabbcxyAB1 .]éü日𝄞".chars().collect();
        (0..rng.gen_range(0..9))
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect()
    }

    /// `line` with one character replaced, inserted or removed.
    fn mutate(rng: &mut SmallRng, line: &str) -> String {
        let mut chars: Vec<char> = line.chars().collect();
        let other = ['a', 'q', 'é', ' '][rng.gen_range(0..4)];
        if chars.is_empty() {
            return other.to_string();
        }
        let at = rng.gen_range(0..chars.len());
        match rng.gen_range(0..3) {
            0 => chars[at] = other,
            1 => chars.insert(at, other),
            _ => {
                chars.remove(at);
            }
        }
        chars.into_iter().collect()
    }

    proptest! {
        #[test]
        fn prop_automaton_agrees_with_the_backtracker(seed in 0u64..100_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let syntax = if rng.gen_bool(0.5) { Syntax::Basic } else { Syntax::Extended };
            let pattern = random_pattern(&mut rng, syntax, 0);
            let Ok(re) = Regex::with_syntax(&pattern, syntax, rng.gen_bool(0.3)) else {
                return Ok(());
            };
            prop_assert!(re.program.is_some(), "{pattern:?} has no backreference");
            let mut lines = vec![String::new()];
            for _ in 0..8 {
                lines.push(random_line(&mut rng));
                let sample = re.sample(&mut rng, 2);
                lines.push(mutate(&mut rng, &sample));
                lines.push(sample);
            }
            lines.retain(|line| !line.contains('\n'));
            for line in &lines {
                prop_assert_eq!(
                    re.is_match(line),
                    backtracks(&re, line),
                    "{:?} pattern {:?} (-i: {}) on {:?}",
                    syntax, &pattern, re.case_insensitive, line
                );
            }
            // The same lines as one buffer, with and without a final
            // newline: the ranges are exactly the matching lines.
            for buffer in [lines.join("\n"), lines.join("\n") + "\n"] {
                let want: Vec<Range<usize>> = lines_of(&buffer)
                    .filter(|line| backtracks(&re, &buffer[line.clone()]))
                    .collect();
                let got: Vec<Range<usize>> = re.matching_lines(buffer.as_bytes()).collect();
                prop_assert_eq!(got, want, "pattern {:?} over {:?}", &pattern, &buffer);
            }
        }
    }

    /// The lines of `text`, by the definition the executor must meet:
    /// split on `'\n'`, no empty line after a final one.
    fn lines_of(text: &str) -> impl Iterator<Item = Range<usize>> + '_ {
        let mut pos = 0;
        std::iter::from_fn(move || {
            (pos < text.len()).then(|| {
                let end = text[pos..].find('\n').map_or(text.len(), |i| pos + i);
                let line = pos..end;
                pos = end + 1;
                line
            })
        })
    }

    #[test]
    fn whole_buffer_ranges_equal_line_by_line_matching() {
        let buffers = [
            "",
            "\n",
            "\n\n\n",
            "ab",
            "ab\n",
            "xab",
            "x\nab",
            "a\n\n\nb\n\n",
            "ab\r\nb\r\n\r\nab",
            "ba\nab\nxxb",
            "é\nxé\n日本b\nb日\n𝄞\n𝄞b",
            "aab\naab",
        ];
        let patterns = [
            "ab",
            "b",
            "b$",
            "^b",
            "^$",
            "$",
            "^",
            "x*",
            "a.b",
            ".",
            "..",
            "[^a]",
            "[^a]$",
            "\r$",
            "^\r*$",
            "a*b$",
            "^a\\|b$",
            "\\(a\\|b\\)\\1",
            "é",
            "[é日]b*$",
            "\\n",
            "^.$",
            "^[^é]b",
        ];
        for pattern in patterns {
            for ci in [false, true] {
                let re = Regex::with_syntax(pattern, Syntax::Basic, ci).unwrap();
                for buffer in buffers {
                    let want: Vec<Range<usize>> = lines_of(buffer)
                        .filter(|line| backtracks(&re, &buffer[line.clone()]))
                        .collect();
                    let got: Vec<Range<usize>> = re.matching_lines(buffer.as_bytes()).collect();
                    assert_eq!(got, want, "{pattern:?} (-i: {ci}) over {buffer:?}");
                }
            }
        }
    }

    #[test]
    fn the_executor_is_a_function_of_the_pattern() {
        let executor = |pattern: &str, ci: bool| {
            let re = Regex::with_syntax(pattern, Syntax::Basic, ci).unwrap();
            match re.matching_lines(b"x").executor {
                Executor::EveryLine => "every line",
                Executor::Literal(_) => "literal",
                Executor::Dfa(_) => "dfa",
                Executor::Backtrack { .. } => "backtrack",
            }
        };
        assert_eq!(executor("light", false), "literal");
        assert_eq!(executor("the land of", false), "literal");
        assert_eq!(executor("1-2", true), "literal");
        assert_eq!(executor("light", true), "dfa");
        assert_eq!(executor("^light", false), "dfa");
        assert_eq!(executor("l[ia][gn][hd]t* of", false), "dfa");
        assert_eq!(executor("\\(light\\|land\\) of", false), "dfa");
        assert_eq!(executor("", false), "every line");
        assert_eq!(executor("x*", false), "every line");
        assert_eq!(executor("^", false), "every line");
        assert_eq!(executor("\\(.\\).*\\1", false), "backtrack");
        let fixed = Regex::with_syntax("a.*[b]", Syntax::Fixed, false).unwrap();
        assert!(matches!(
            fixed.matching_lines(b"x").executor,
            Executor::Literal("a.*[b]")
        ));
    }

    #[test]
    fn the_idle_state_searches_for_the_few_bytes_that_leave_it() {
        let needles = |pattern: &str, ci: bool| {
            let ast = crate::parse::parse(pattern, Syntax::Basic).unwrap();
            Program::new(&ast, ci).needles
        };
        let some = |bytes: &[u8]| Some(bytes.to_vec());
        // A line end cannot change an unanchored pattern's idle state: the
        // skip crosses it.
        assert_eq!(needles("l[ia][gn][hd]t* of", false), some(b"l"));
        assert_eq!(needles("light", true), some(b"Ll"));
        assert_eq!(needles("\\(light\\|land\\|river\\)", false), some(b"lr"));
        assert_eq!(needles("foo$", false), some(b"f"));
        assert_eq!(needles("a\\|b$", false), some(b"ab"));
        // Nothing leaves a pattern that matches nothing: skip to the end.
        assert_eq!(needles("\\n", false), some(b""));
        // The idle state accepts at a line end: every line end leaves it.
        assert_eq!(needles("$", false), some(b"\n"));
        assert_eq!(needles("x*$", false), some(b"\nx"));
        // An anchored pattern is dead once it fails: only the next line
        // can match, and it starts in another state.
        assert_eq!(needles("^abc", false), some(b"\n"));
        assert_eq!(needles("^a\\|b", false), some(b"\nb"));
        // Too many ways out: stepping is cheaper than looking.
        assert_eq!(needles("[a-z]x", false), None);
        assert_eq!(needles(".x", false), None);
    }

    /// Buffers of long match-free runs over many lines, empty lines, and
    /// hits on the first and the last byte, with and without a final
    /// newline.
    fn skip_buffers() -> Vec<String> {
        const HITS: [&str; 14] = [
            "light of day",
            "the land of nod",
            "LIGHT of",
            "light and light",
            "abc",
            "xabc",
            "foo",
            "foox",
            "four",
            "a",
            "b",
            "ba",
            "x",
            "xx",
        ];
        const FILLER: [&str; 3] = ["zzzz qqqq", "", "  mute  text  "];
        let mut rng = SmallRng::seed_from_u64(0x5C1B);
        let mut buffers = vec![
            "light of\nzz\nzz light of".to_owned(),
            "abc\n\n\nfoo".to_owned(),
            "\n\n\n".to_owned(),
            "x".to_owned(),
            "foo\n".to_owned(),
        ];
        for _ in 0..24 {
            let mut lines = Vec::new();
            for _ in 0..rng.gen_range(1..6) {
                for _ in 0..rng.gen_range(0..300) {
                    lines.push(pick(&mut rng, &FILLER));
                }
                lines.push(pick(&mut rng, &HITS));
            }
            let mut buffer = lines.join("\n");
            if rng.gen_bool(0.5) {
                buffer.push('\n');
            }
            buffers.push(buffer);
        }
        buffers
    }

    #[test]
    fn the_skip_across_line_ends_reports_what_a_line_by_line_scan_does() {
        // (pattern, -i, whether a line end leaves the idle state)
        let cases = [
            ("l[ia][gn][hd]t* of", false, false),
            ("light.*light", false, false),
            ("light", true, false),
            ("foo$", false, false),
            ("$", false, true),
            ("x*$", false, true),
            ("^abc", false, true),
            ("^....$", false, true),
            ("^a\\|b", false, true),
            ("a\\|b$", false, false),
        ];
        let buffers = skip_buffers();
        for (pattern, ci, newline_leaves) in cases {
            let re = Regex::with_syntax(pattern, Syntax::Basic, ci).unwrap();
            let needles = re.program.as_ref().unwrap().needles.as_ref().unwrap();
            assert_eq!(needles.contains(&b'\n'), newline_leaves, "{pattern:?}");
            for buffer in &buffers {
                let want: Vec<Range<usize>> = lines_of(buffer)
                    .filter(|line| re.is_match(&buffer[line.clone()]))
                    .collect();
                let got: Vec<Range<usize>> = re.matching_lines(buffer.as_bytes()).collect();
                assert_eq!(got, want, "{pattern:?} (-i: {ci}) over {buffer:?}");
            }
        }
    }

    #[test]
    fn find_literal_finds_the_first_occurrence_in_any_bytes() {
        let hay: Vec<u8> = (0..200u32)
            .map(|i| [b'a', b'b', 0xe9, b'\n'][(i * 7 % 11 % 4) as usize])
            .collect();
        for from in 0..hay.len() {
            for needle in [
                &b"a"[..],
                b"ab",
                b"ba\xe9",
                b"\xe9\n",
                b"aaaaaaaaaa",
                b"bab\nab",
            ] {
                let want = (from..hay.len()).find(|&i| hay[i..].starts_with(needle));
                assert_eq!(find_literal(&hay, from, needle), want, "{from} {needle:?}");
            }
        }
        assert_eq!(find_literal(b"abc", 7, b"c"), None);
    }

    #[test]
    fn find_any_finds_the_first_of_up_to_four_needles() {
        let hay: Vec<u8> = (0..100u8).map(|i| b'a' + i % 20).collect();
        for from in 0..hay.len() {
            for needles in [&b"t"[..], b"\n", b"ct", b"\nkt", b"zzzz", b"\ntsr"] {
                let want = (from..hay.len())
                    .find(|&i| needles.contains(&hay[i]))
                    .unwrap_or(hay.len());
                assert_eq!(find_any(&hay, from, needles), want, "{from} {needles:?}");
            }
        }
        assert_eq!(find_any(b"", 0, b"\n"), 0);
        assert_eq!(find_any(b"abc", 7, b"\n"), 3);
        // Borrow noise above a true zero byte must not win: 0x01 next to
        // the needle 0x00 is the classic false positive.
        assert_eq!(find_any(&[1, 1, 1, 0, 1, 1, 1, 1, 9], 0, &[0]), 3);
        assert_eq!(
            find_any(&[0x80, 0x81, 0x7f, 0xff, 0, 0, 0, 0x80], 2, &[0x80]),
            7
        );
    }

    #[test]
    fn utf8_sequences_match_exactly_the_encodings_in_range() {
        let ranges = [
            (0x80, 0x7FF),
            (0xE9, 0xE9),
            (0xE0, 0xFC),
            (0x7F0, 0x810),
            (0x800, 0xFFFF),
            (0xD700, 0xE100),
            (0xFFF0, 0x10010),
            (0x80, MAX_SCALAR),
            (0x3040, 0x30FF),
        ];
        for (lo, hi) in ranges {
            let mut sequences = Vec::new();
            utf8_sequences(lo, hi, &mut sequences);
            let accepts = |c: char| {
                let mut utf8 = [0; 4];
                let bytes = c.encode_utf8(&mut utf8).as_bytes();
                sequences.iter().any(|seq| {
                    seq.len() == bytes.len()
                        && seq
                            .iter()
                            .zip(bytes)
                            .all(|(&(l, h), b)| (l..=h).contains(b))
                })
            };
            // Every scalar near either end, and a stride through the rest.
            let probes = (lo.saturating_sub(70)..lo + 70)
                .chain(hi.saturating_sub(70)..hi + 70)
                .chain((0x80..=MAX_SCALAR).step_by(257));
            for scalar in probes {
                if let Some(c) = char::from_u32(scalar) {
                    assert_eq!(
                        accepts(c),
                        (lo..=hi).contains(&scalar),
                        "U+{scalar:X} against U+{lo:X}..U+{hi:X}"
                    );
                }
            }
        }
    }

    #[test]
    fn byte_classes_separate_newline_and_follow_the_byte_sets() {
        let ast = crate::parse::parse("[a-c]x", Syntax::Basic).unwrap();
        let prog = Program::new(&ast, false);
        let class = |b: u8| prog.class_of[usize::from(b)];
        assert_eq!(class(b'a'), class(b'c'));
        assert_ne!(class(b'a'), class(b'd'));
        assert_ne!(class(b'x'), class(b'w'));
        assert_ne!(class(b'x'), class(b'y'));
        assert_eq!(class(b'd'), class(b'w'));
        assert_ne!(class(b'\n'), class(b'\t'));
        assert_ne!(class(b'\n'), class(0x0B));
        // below a, \n, between, a-c, d-w, x, above: seven classes.
        assert_eq!(prog.stride, 7);
    }

    /// Runs `work` on its own thread and fails unless it answers within
    /// two seconds (an exponential search never would).
    fn within_two_seconds<T: Send + 'static>(work: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(work()));
        rx.recv_timeout(Duration::from_secs(2))
            .expect("the search must finish within two seconds")
    }

    #[test]
    fn adjacent_stars_on_a_long_line_are_linear() {
        let line = "a".repeat(64 * 1024);
        for pattern in ["a*a*a*a*a*a*a*a*a*a*b", "\\(a*\\)*b", "\\(a\\|aa\\)*b"] {
            let line = line.clone();
            let found = within_two_seconds(move || {
                let re = Regex::new(pattern).unwrap();
                let alone = re.is_match(&line);
                let buffer = format!("{line}\n{line}b\n{line}");
                (alone, re.matching_lines(buffer.as_bytes()).count())
            });
            assert_eq!(found, (false, 1), "{pattern}");
        }
    }

    #[test]
    fn replacing_in_a_line_without_a_match_is_linear() {
        let line = "a".repeat(64 * 1024);
        let copy = line.clone();
        let (first, all) = within_two_seconds(move || {
            let re = Regex::new("\\(a*\\)*b").unwrap();
            (re.replace_first(&copy, "x"), re.replace_all(&copy, "x"))
        });
        assert!(
            first == line && all == line,
            "the line must come back unchanged"
        );
    }

    #[test]
    fn an_exploding_subset_construction_stays_under_the_state_cap() {
        // The state after each byte records which of the last 21 were an
        // `a`: 2^21 states in full, one new one per byte of random text.
        let pattern = format!("a{}$", ".".repeat(20));
        let re = Regex::new(&pattern).unwrap();
        let mut rng = SmallRng::seed_from_u64(21);
        let mut text = String::new();
        while text.len() < 64 * 1024 {
            for _ in 0..rng.gen_range(0..200) {
                text.push(if rng.gen_bool(0.5) { 'a' } else { 'b' });
            }
            text.push('\n');
        }
        let mut dfa = Dfa::new(re.program.as_ref().unwrap());
        let mut got = Vec::new();
        let mut pos = 0;
        while let Some(line) = dfa.next_match(text.as_bytes(), pos) {
            assert!(dfa.sets.len() <= STATE_CAP);
            pos = line.end + 1;
            got.push(line);
        }
        assert!(dfa.sets.len() <= STATE_CAP);
        assert_eq!(
            dfa.table.len(),
            dfa.sets.len() * re.program.as_ref().unwrap().stride
        );
        let want: Vec<Range<usize>> = lines_of(&text)
            .filter(|line| backtracks(&re, &text[line.clone()]))
            .collect();
        assert!(want.len() > 50, "the test text must have matching lines");
        assert_eq!(got, want);
    }
}
