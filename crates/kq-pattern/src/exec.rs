//! Backtracking execution of parsed patterns: the executor for what an
//! automaton cannot do — backreferences, and the match and capture spans
//! `sed`'s replacement needs. Whether a line matches a pattern without a
//! backreference is decided by [`crate::automaton`], in time linear in
//! the line; this module then only runs on lines that are known to match.
//!
//! A continuation-passing backtracker: each piece matcher receives the
//! current position and a continuation to invoke on every way it can match.
//! Greedy `*` tries the longest repetition first, so the first accepted
//! match is the greedy one — the behaviour `grep`/`sed` users expect for the
//! corpus patterns. Captures live in a `RefCell` so the continuations can
//! record and roll back group spans during backtracking. Time is
//! exponential in the number of adjacent stars on a line that does not
//! match (`a*a*a*b` against a run of `a`).

use crate::parse::{Ast, Atom, ClassItem, Piece};
use std::cell::RefCell;

type Caps = RefCell<Vec<Option<(usize, usize)>>>;

struct Ctx<'a> {
    text: &'a [char],
    /// `text[0]` is the start of the line (false when `replace` searches
    /// the rest of a line after an earlier match).
    at_line_start: bool,
    ci: bool,
    caps: Caps,
}

/// Character equality under `-i`, which folds ASCII letters only.
pub(crate) fn eq_char(ci: bool, a: char, b: char) -> bool {
    if ci {
        a.eq_ignore_ascii_case(&b)
    } else {
        a == b
    }
}

/// Membership of `c` in a bracket expression. Both executors decide it
/// here: the automaton asks once per ASCII character when it compiles.
pub(crate) fn class_contains(ci: bool, negated: bool, items: &[ClassItem], c: char) -> bool {
    let folded = |test: &dyn Fn(char) -> bool| {
        if ci {
            test(c.to_ascii_lowercase()) || test(c.to_ascii_uppercase())
        } else {
            test(c)
        }
    };
    let inside = items.iter().any(|item| match item {
        ClassItem::Char(x) => eq_char(ci, c, *x),
        ClassItem::Range(lo, hi) => folded(&|c| (*lo..=*hi).contains(&c)),
        ClassItem::Posix(p) => folded(&|c| p.contains(c)),
    });
    inside != negated
}

impl<'a> Ctx<'a> {
    /// Whether a piece that consumes exactly one character takes `c`;
    /// false for the composite pieces, which never do.
    fn char_match(&self, piece: &Piece, c: char) -> bool {
        match piece {
            Piece::Literal(x) => eq_char(self.ci, c, *x),
            Piece::AnyChar => c != '\n',
            Piece::Class { negated, items } => class_contains(self.ci, *negated, items, c),
            Piece::Backref(_) | Piece::Alt(_) | Piece::Group(..) => false,
        }
    }

    fn piece_match(&self, piece: &Piece, pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
        match piece {
            Piece::Literal(_) | Piece::AnyChar | Piece::Class { .. } => {
                pos < self.text.len() && self.char_match(piece, self.text[pos]) && k(pos + 1)
            }
            Piece::Backref(idx) => {
                let span = self.caps.borrow()[*idx - 1];
                match span {
                    Some((s, e)) => {
                        let len = e - s;
                        if pos + len <= self.text.len()
                            && (0..len)
                                .all(|i| eq_char(self.ci, self.text[pos + i], self.text[s + i]))
                        {
                            k(pos + len)
                        } else {
                            false
                        }
                    }
                    // POSIX: a backreference to a group that has not
                    // participated in the match fails.
                    None => false,
                }
            }
            Piece::Alt(branches) => self.alt_match(branches, pos, k),
            Piece::Group(idx, inner) => self.group_match(*idx, inner, pos, k),
        }
    }

    // The two composite pieces live out of line: `piece_match` runs once
    // per start position of every line, almost always on a literal or a
    // class, and should not carry their frames.

    #[inline(never)]
    fn alt_match(&self, branches: &[Ast], pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
        branches.iter().any(|branch| self.ast_match(branch, pos, k))
    }

    #[inline(never)]
    fn group_match(
        &self,
        idx: usize,
        inner: &Ast,
        pos: usize,
        k: &mut dyn FnMut(usize) -> bool,
    ) -> bool {
        self.ast_match(inner, pos, &mut |p| {
            let old = self.caps.borrow()[idx - 1];
            self.caps.borrow_mut()[idx - 1] = Some((pos, p));
            if k(p) {
                true
            } else {
                self.caps.borrow_mut()[idx - 1] = old;
                false
            }
        })
    }

    /// Matches one branch at `pos`, honouring its anchors.
    fn ast_match(&self, ast: &Ast, pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
        if ast.anchored_start && !(pos == 0 && self.at_line_start) {
            return false;
        }
        self.seq_match(&ast.atoms, 0, pos, &mut |p| {
            (!ast.anchored_end || p == self.text.len()) && k(p)
        })
    }

    fn star_match(&self, piece: &Piece, pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
        // A one-character piece needs no recursion (a frame per repetition
        // overflows the stack on a long run): take the longest run, then
        // give it back one character at a time.
        if matches!(
            piece,
            Piece::Literal(_) | Piece::AnyChar | Piece::Class { .. }
        ) {
            let run = self.text[pos..]
                .iter()
                .take_while(|&&c| self.char_match(piece, c))
                .count();
            return (pos..=pos + run).rev().any(k);
        }
        // Greedy: attempt one more repetition first (progress required to
        // avoid infinite recursion on nullable pieces), then fall back.
        if self.piece_match(piece, pos, &mut |p| p > pos && self.star_match(piece, p, k)) {
            return true;
        }
        k(pos)
    }

    fn seq_match(
        &self,
        atoms: &[Atom],
        i: usize,
        pos: usize,
        k: &mut dyn FnMut(usize) -> bool,
    ) -> bool {
        match atoms.get(i) {
            None => k(pos),
            Some(atom) => {
                if atom.star {
                    self.star_match(&atom.piece, pos, &mut |p| {
                        self.seq_match(atoms, i + 1, p, k)
                    })
                } else {
                    self.piece_match(&atom.piece, pos, &mut |p| {
                        self.seq_match(atoms, i + 1, p, k)
                    })
                }
            }
        }
    }
}

/// A successful match: char-index span plus group capture spans.
pub(crate) struct MatchResult {
    pub start: usize,
    pub end: usize,
    pub caps: Vec<Option<(usize, usize)>>,
}

/// Searches `text` for the leftmost match. `at_line_start` says whether
/// `text[0]` begins the line (`^` matches only there).
pub(crate) fn search_chars(
    ast: &Ast,
    text: &[char],
    at_line_start: bool,
    ci: bool,
) -> Option<MatchResult> {
    // The top-level branch's own anchors are settled here, once per
    // search, not once per start position: an anchored pattern can only
    // match at the start of the line.
    if ast.anchored_start && !at_line_start {
        return None;
    }
    let last_start = if ast.anchored_start { 0 } else { text.len() };
    let anchored_end = ast.anchored_end;
    // A match can only start where its first character does, when that
    // is one plain literal.
    let first = match ast.atoms.first() {
        Some(Atom {
            piece: Piece::Literal(c),
            star: false,
        }) => Some(*c),
        _ => None,
    };
    let ctx = Ctx {
        text,
        at_line_start,
        ci,
        caps: RefCell::new(vec![None; ast.group_count()]),
    };
    for start in 0..=last_start {
        if first.is_some_and(|c| !text.get(start).is_some_and(|&t| eq_char(ci, t, c))) {
            continue;
        }
        ctx.caps.borrow_mut().fill(None);
        let mut matched_end = None;
        ctx.seq_match(&ast.atoms, 0, start, &mut |p| {
            if anchored_end && p != text.len() {
                return false;
            }
            matched_end = Some(p);
            true
        });
        if let Some(end) = matched_end {
            return Some(MatchResult {
                start,
                end,
                caps: ctx.caps.into_inner(),
            });
        }
    }
    None
}

/// Searches `line`, returning the byte range of the leftmost match.
pub(crate) fn search(ast: &Ast, line: &str, ci: bool) -> Option<(usize, usize)> {
    let chars: Vec<char> = line.chars().collect();
    let m = search_chars(ast, &chars, true, ci)?;
    // Convert char indices back to byte offsets.
    let mut byte_offsets: Vec<usize> = Vec::with_capacity(chars.len() + 1);
    let mut off = 0;
    for c in &chars {
        byte_offsets.push(off);
        off += c.len_utf8();
    }
    byte_offsets.push(off);
    Some((byte_offsets[m.start], byte_offsets[m.end]))
}

fn expand_replacement(template: &str, text: &[char], m: &MatchResult, out: &mut String) {
    let mut it = template.chars().peekable();
    while let Some(c) = it.next() {
        match c {
            '&' => out.extend(&text[m.start..m.end]),
            '\\' => match it.next() {
                Some(d @ '1'..='9') => {
                    let idx = d.to_digit(10).unwrap() as usize;
                    if let Some(Some((s, e))) = m.caps.get(idx - 1) {
                        out.extend(&text[*s..*e]);
                    }
                }
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            },
            other => out.push(other),
        }
    }
}

/// Implements `sed`-style substitution over a single line, appending the
/// rewritten line to `out`. Under `global`, as in GNU `sed`, an empty match
/// is not taken where the previous match ended (`s/x*/-/g` turns `xxaxx`
/// into `-a-`).
pub(crate) fn replace(
    ast: &Ast,
    line: &str,
    template: &str,
    global: bool,
    ci: bool,
    out: &mut String,
) {
    let chars: Vec<char> = line.chars().collect();
    let mut pos = 0usize;
    let mut last_end = None;
    loop {
        // `^` matches only at pos == 0 overall (e.g. 's/^/p/' fires once).
        let Some(m) = search_chars(ast, &chars[pos..], pos == 0, ci) else {
            out.extend(&chars[pos..]);
            return;
        };
        let (start, end) = (pos + m.start, pos + m.end);
        if start < end || last_end != Some(start) {
            out.extend(&chars[pos..start]);
            let shifted = MatchResult {
                start,
                end,
                caps: m
                    .caps
                    .iter()
                    .map(|c| c.map(|(s, e)| (s + pos, e + pos)))
                    .collect(),
            };
            expand_replacement(template, &chars, &shifted, out);
            if !global {
                out.extend(&chars[end..]);
                return;
            }
            last_end = Some(end);
        }
        pos = end;
        if start == end {
            // An empty match, taken or refused: copy one character
            // forward to make progress.
            let Some(&c) = chars.get(end) else { return };
            out.push(c);
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::Syntax;

    fn parse(pat: &str) -> Result<Ast, crate::ParseError> {
        crate::parse::parse(pat, Syntax::Basic)
    }

    fn find(pat: &str, s: &str) -> Option<(usize, usize)> {
        search(&parse(pat).unwrap(), s, false)
    }

    fn replace(ast: &Ast, line: &str, template: &str, global: bool, ci: bool) -> String {
        let mut out = String::new();
        super::replace(ast, line, template, global, ci, &mut out);
        out
    }

    #[test]
    fn alternation_tries_branches_in_order_at_the_leftmost_start() {
        assert_eq!(find("cd\\|ab", "xabcd"), Some((1, 3)));
        assert_eq!(find("\\(light\\|land\\) of", "the land of"), Some((4, 11)));
        assert_eq!(find("\\(a\\|b\\)*c", "xabbac"), Some((1, 6)));
        // Anchors bind to their own branch.
        assert_eq!(find("^a\\|b$", "ba"), None);
        assert_eq!(find("^a\\|b$", "ab"), Some((0, 1)));
        assert_eq!(find("^a\\|b$", "xb"), Some((1, 2)));
        // A backreference sees whichever branch matched.
        assert_eq!(find("\\(a\\|b\\)\\1", "abba"), Some((1, 3)));
    }

    #[test]
    fn an_anchored_branch_fires_once_in_a_global_replace() {
        let ast = parse("^a\\|c").unwrap();
        assert_eq!(replace(&ast, "aaca", "-", true, false), "-a-a");
    }

    #[test]
    fn greedy_star_longest() {
        assert_eq!(find("a*", "aaab"), Some((0, 3)));
    }

    #[test]
    fn leftmost_match_wins() {
        assert_eq!(find("ab", "xxabyyab"), Some((2, 4)));
    }

    #[test]
    fn backref_backtracking() {
        // Group must backtrack to a shorter capture for \1 to match.
        assert!(find("\\(a*\\)b\\1", "aabaa").is_some());
    }

    #[test]
    fn anchored_end_forces_full_suffix() {
        assert_eq!(find("ab$", "abab"), Some((2, 4)));
        assert_eq!(find("ab$", "abx"), None);
    }

    #[test]
    fn utf8_byte_offsets() {
        // Multibyte characters before the match must not corrupt offsets.
        let (s, e) = find("b", "émfbx").unwrap();
        assert_eq!(&"émfbx"[s..e], "b");
    }

    #[test]
    fn replace_with_group_shift() {
        // Replacement after a prefix exercises capture-offset shifting.
        let ast = parse("b\\(c\\)").unwrap();
        assert_eq!(replace(&ast, "aabcd", "[\\1]", false, false), "aa[c]d");
    }

    #[test]
    fn global_replace_nonoverlapping() {
        let ast = parse("aa").unwrap();
        assert_eq!(replace(&ast, "aaaa", "-", true, false), "--");
    }
}
