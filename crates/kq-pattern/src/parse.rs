//! BRE and ERE pattern parser.
//!
//! Grammar (the subset exercised by the benchmark corpus, which is the
//! standard BRE core plus GNU's `\|`), in BRE spelling:
//!
//! ```text
//! pattern := branch ('\|' branch)*
//! branch  := '^'? atom* '$'?
//! atom    := piece ('*' | interval)?
//! interval:= '\{' n (',' m?)? '\}'
//! piece   := '.' | literal | '\' escaped | bracket | '\(' pattern '\)' | '\N'
//! bracket := '[' '^'? item+ ']'    item := class | range | char
//! class   := '[:' name ':]'
//! ```
//!
//! [`Syntax::Extended`] (`grep -E`) is the same grammar with the
//! operators unescaped — `|`, `(`, `)` — and with the `+` and `?`
//! quantifiers; a backslash there makes the next character a literal.
//! [`Syntax::Fixed`] (`grep -F`) has no grammar: every character is
//! itself.
//!
//! Every quantifier but `*` is desugared here, so both executors only
//! ever see `*`: `p+` is `pp*`, `p?` is `p` or nothing, and the interval
//! `p\{n,m\}` (`p{n,m}` extended) is `n` copies of `p` followed by `p*`
//! when `m` is absent, else by `m - n` nested optional copies. Because an
//! interval copies its piece, counts above [`INTERVAL_MAX`] and patterns
//! whose expansion exceeds [`EXPANSION_MAX`] atoms are parse errors.
//!
//! Quirks implemented: `^` is an anchor only as the first character of a
//! branch and `$` only as the last (literals elsewhere — ERE's
//! anchors-anywhere is not modelled); `*` as the first character is a
//! literal; `]` first inside a bracket is a literal; `-` first or last in a
//! bracket is a literal.

use std::fmt;

/// A parse failure, with the byte offset of the offending character.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte position in the pattern.
    pub pos: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at byte {}: {}",
            self.pos, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// One element of a bracket expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassItem {
    /// A single character.
    Char(char),
    /// An inclusive character range `a-z`.
    Range(char, char),
    /// A named POSIX class, e.g. `[:punct:]`.
    Posix(PosixClass),
}

/// Named POSIX character classes appearing in the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PosixClass {
    Alpha,
    Digit,
    Alnum,
    Upper,
    Lower,
    Punct,
    Space,
}

impl PosixClass {
    pub(crate) fn contains(self, c: char) -> bool {
        match self {
            PosixClass::Alpha => c.is_ascii_alphabetic(),
            PosixClass::Digit => c.is_ascii_digit(),
            PosixClass::Alnum => c.is_ascii_alphanumeric(),
            PosixClass::Upper => c.is_ascii_uppercase(),
            PosixClass::Lower => c.is_ascii_lowercase(),
            PosixClass::Punct => c.is_ascii_punctuation(),
            PosixClass::Space => c == ' ' || ('\t'..='\r').contains(&c),
        }
    }

    /// Representative members, used by the sampler.
    pub(crate) fn members(self) -> &'static [char] {
        match self {
            PosixClass::Alpha => &['a', 'b', 'q', 'Z', 'M'],
            PosixClass::Digit => &['0', '1', '5', '9'],
            PosixClass::Alnum => &['a', 'Z', '3'],
            PosixClass::Upper => &['A', 'Q', 'Z'],
            PosixClass::Lower => &['a', 'q', 'z'],
            PosixClass::Punct => &['!', '.', ';', '-'],
            PosixClass::Space => &[' ', '\t'],
        }
    }

    fn from_name(name: &str) -> Option<PosixClass> {
        Some(match name {
            "alpha" => PosixClass::Alpha,
            "digit" => PosixClass::Digit,
            "alnum" => PosixClass::Alnum,
            "upper" => PosixClass::Upper,
            "lower" => PosixClass::Lower,
            "punct" => PosixClass::Punct,
            "space" => PosixClass::Space,
            _ => return None,
        })
    }
}

/// Which operator spelling a pattern uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Syntax {
    /// POSIX basic: `\(`, `\)`, and GNU's `\|`.
    Basic,
    /// POSIX extended (`grep -E`): `(`, `)`, `|`, `+`, `?`, `{n,m}`.
    Extended,
    /// A fixed string (`grep -F`): no character is an operator.
    Fixed,
}

/// The largest count an interval expression may name.
pub(crate) const INTERVAL_MAX: usize = 255;

/// The most atoms all interval expansions of one pattern may add.
pub(crate) const EXPANSION_MAX: usize = 10_000;

/// A single matchable unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Piece {
    /// A literal character.
    Literal(char),
    /// `.` — any character except newline.
    AnyChar,
    /// A bracket expression; `negated` for `[^...]`.
    Class {
        negated: bool,
        items: Vec<ClassItem>,
    },
    /// `\(..\)` capture group, with its 1-based index.
    Group(usize, Box<Ast>),
    /// `\N` backreference to group N.
    Backref(usize),
    /// Alternation: the first branch that lets the rest of the pattern
    /// match wins (leftmost-first, not POSIX leftmost-longest — the two
    /// agree on *whether* a line matches, which is all `grep` asks).
    Alt(Vec<Ast>),
}

/// A piece plus its quantifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    pub piece: Piece,
    /// True when followed by `*` (zero or more repetitions).
    pub star: bool,
}

/// A parsed branch: optional anchors around a sequence of atoms. A
/// pattern with several branches is one atom, a [`Piece::Alt`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ast {
    pub anchored_start: bool,
    pub anchored_end: bool,
    pub atoms: Vec<Atom>,
}

impl Ast {
    /// The highest capture-group index in the pattern.
    pub(crate) fn group_count(&self) -> usize {
        self.atoms
            .iter()
            .map(|atom| match &atom.piece {
                Piece::Group(idx, inner) => (*idx).max(inner.group_count()),
                Piece::Alt(branches) => branches.iter().map(Ast::group_count).max().unwrap_or(0),
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// True when the pattern contains a backreference: its language is
    /// not regular, so only the backtracker can run it.
    pub(crate) fn has_backref(&self) -> bool {
        self.atoms.iter().any(|atom| atom.piece.has_backref())
    }

    /// Atoms in this branch, nested ones included.
    fn size(&self) -> usize {
        self.atoms.iter().map(|atom| atom.piece.size()).sum()
    }
}

impl Piece {
    fn has_backref(&self) -> bool {
        match self {
            Piece::Backref(_) => true,
            Piece::Group(_, inner) => inner.has_backref(),
            Piece::Alt(branches) => branches.iter().any(Ast::has_backref),
            _ => false,
        }
    }

    fn size(&self) -> usize {
        match self {
            Piece::Group(_, inner) => 1 + inner.size(),
            Piece::Alt(branches) => 1 + branches.iter().map(Ast::size).sum::<usize>(),
            _ => 1,
        }
    }

    /// `p?`: `p` or nothing, `p` preferred; `rest` follows `p` inside
    /// the taken branch (the nesting an interval's optional tail needs).
    fn optional(self, rest: Option<Atom>) -> Piece {
        let mut atoms = vec![Atom {
            piece: self,
            star: false,
        }];
        atoms.extend(rest);
        let taken = Ast {
            atoms,
            ..Ast::default()
        };
        Piece::Alt(vec![taken, Ast::default()])
    }
}

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    group_count: usize,
    /// Atoms added by interval expansion so far.
    expanded: usize,
    pattern: &'a str,
    syntax: Syntax,
}

/// Parses a pattern into an [`Ast`].
pub fn parse(pattern: &str, syntax: Syntax) -> Result<Ast, ParseError> {
    if syntax == Syntax::Fixed {
        return Ok(Ast {
            atoms: pattern
                .chars()
                .map(|c| Atom {
                    piece: Piece::Literal(c),
                    star: false,
                })
                .collect(),
            ..Ast::default()
        });
    }
    let mut p = Parser {
        chars: pattern.chars().collect(),
        pos: 0,
        group_count: 0,
        expanded: 0,
        pattern,
        syntax,
    };
    let ast = p.parse_alternation()?;
    if p.pos != p.chars.len() {
        return Err(p.err("unbalanced group close"));
    }
    Ok(ast)
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            pos: self.pos.min(self.pattern.len()),
            message: message.to_owned(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    /// True when the pattern continues with operator `op` at `at`, in
    /// this syntax's spelling (`\op` basic, bare `op` extended).
    fn operator_at(&self, at: usize, op: char) -> bool {
        match self.syntax {
            Syntax::Basic => {
                self.chars.get(at) == Some(&'\\') && self.chars.get(at + 1) == Some(&op)
            }
            Syntax::Extended => self.chars.get(at) == Some(&op),
            Syntax::Fixed => false,
        }
    }

    /// Consumes operator `op` if the pattern continues with it.
    fn eat_operator(&mut self, op: char) -> bool {
        let found = self.operator_at(self.pos, op);
        if found {
            self.pos += if self.syntax == Syntax::Basic { 2 } else { 1 };
        }
        found
    }

    /// True at the end of a branch: end of pattern, `|`, or `)`.
    fn branch_ends_at(&self, at: usize) -> bool {
        at >= self.chars.len() || self.operator_at(at, '|') || self.operator_at(at, ')')
    }

    /// Parses branches until end of pattern or a group close. One branch
    /// is returned as itself; several become a single [`Piece::Alt`] atom.
    fn parse_alternation(&mut self) -> Result<Ast, ParseError> {
        let mut branches = vec![self.parse_branch()?];
        while self.eat_operator('|') {
            branches.push(self.parse_branch()?);
        }
        Ok(if branches.len() == 1 {
            branches.remove(0)
        } else {
            Ast {
                atoms: vec![Atom {
                    piece: Piece::Alt(branches),
                    star: false,
                }],
                ..Ast::default()
            }
        })
    }

    /// Parses a sequence of atoms up to the end of its branch.
    fn parse_branch(&mut self) -> Result<Ast, ParseError> {
        let mut ast = Ast::default();
        if self.peek() == Some('^') {
            ast.anchored_start = true;
            self.pos += 1;
        }
        while !self.branch_ends_at(self.pos) {
            if self.peek() == Some('$') && self.branch_ends_at(self.pos + 1) {
                ast.anchored_end = true;
                self.pos += 1;
                break;
            }
            let piece = self.parse_piece(ast.atoms.is_empty() && !ast.anchored_start)?;
            match self.peek() {
                Some('*') => {
                    self.pos += 1;
                    ast.atoms.push(Atom { piece, star: true });
                }
                // `p+` is `pp*`.
                Some('+') if self.syntax == Syntax::Extended => {
                    self.pos += 1;
                    ast.atoms.push(Atom {
                        piece: piece.clone(),
                        star: false,
                    });
                    ast.atoms.push(Atom { piece, star: true });
                }
                Some('?') if self.syntax == Syntax::Extended => {
                    self.pos += 1;
                    ast.atoms.push(Atom {
                        piece: piece.optional(None),
                        star: false,
                    });
                }
                _ if self.eat_operator('{') => {
                    let (min, max) = self.parse_interval()?;
                    self.expand_interval(piece, min, max, &mut ast.atoms)?;
                }
                _ => ast.atoms.push(Atom { piece, star: false }),
            }
        }
        Ok(ast)
    }

    /// The inside of an interval, after its open operator: `n`, `n,` or
    /// `n,m`, then the close operator.
    fn parse_interval(&mut self) -> Result<(usize, Option<usize>), ParseError> {
        let min = self
            .parse_count()?
            .ok_or_else(|| self.err("invalid interval: missing count"))?;
        let max = if self.peek() == Some(',') {
            self.pos += 1;
            self.parse_count()?
        } else {
            Some(min)
        };
        if !self.eat_operator('}') {
            return Err(self.err("unterminated interval"));
        }
        if max.is_some_and(|max| max < min) {
            return Err(self.err("invalid interval: minimum exceeds maximum"));
        }
        Ok((min, max))
    }

    /// A run of digits, `None` when there is none.
    fn parse_count(&mut self) -> Result<Option<usize>, ParseError> {
        let start = self.pos;
        let mut n = 0usize;
        while let Some(d) = self.peek().and_then(|c| c.to_digit(10)) {
            n = n * 10 + d as usize;
            if n > INTERVAL_MAX {
                return Err(self.err(&format!(
                    "interval count exceeds the supported maximum of {INTERVAL_MAX}"
                )));
            }
            self.pos += 1;
        }
        Ok((self.pos > start).then_some(n))
    }

    /// Appends `piece{min,max}` to `atoms` in terms of `*` and
    /// alternation (see the module docs).
    fn expand_interval(
        &mut self,
        piece: Piece,
        min: usize,
        max: Option<usize>,
        atoms: &mut Vec<Atom>,
    ) -> Result<(), ParseError> {
        self.expanded += piece.size() * max.unwrap_or(min + 1);
        if self.expanded > EXPANSION_MAX {
            return Err(self.err(&format!(
                "interval expressions expand to more than {EXPANSION_MAX} atoms"
            )));
        }
        for _ in 0..min {
            atoms.push(Atom {
                piece: piece.clone(),
                star: false,
            });
        }
        match max {
            None => atoms.push(Atom { piece, star: true }),
            Some(max) => {
                // (p(p(p)?)?)? rather than p?p?p?: a failing match tries
                // each count once instead of every subset.
                let tail = (min..max).fold(None, |rest, _| {
                    Some(Atom {
                        piece: piece.clone().optional(rest),
                        star: false,
                    })
                });
                atoms.extend(tail);
            }
        }
        Ok(())
    }

    /// The inside of a group, after its open operator.
    fn parse_group(&mut self) -> Result<Piece, ParseError> {
        self.group_count += 1;
        let idx = self.group_count;
        let inner = self.parse_alternation()?;
        if !self.eat_operator(')') {
            return Err(self.err("unterminated group"));
        }
        Ok(Piece::Group(idx, Box::new(inner)))
    }

    fn parse_piece(&mut self, first: bool) -> Result<Piece, ParseError> {
        let c = self.bump().ok_or_else(|| self.err("unexpected end"))?;
        Ok(match c {
            '.' => Piece::AnyChar,
            '[' => self.parse_bracket()?,
            '*' if first => Piece::Literal('*'), // a leading '*' is literal
            '(' if self.syntax == Syntax::Extended => self.parse_group()?,
            '{' if self.syntax == Syntax::Extended => {
                return Err(self.err("interval without a preceding expression"))
            }
            '\\' => {
                let e = self.bump().ok_or_else(|| self.err("dangling backslash"))?;
                match e {
                    '(' if self.syntax == Syntax::Basic => self.parse_group()?,
                    '{' if self.syntax == Syntax::Basic => {
                        return Err(self.err("interval without a preceding expression"))
                    }
                    '1'..='9' => {
                        let idx = e.to_digit(10).unwrap() as usize;
                        if idx > self.group_count {
                            return Err(self.err("backreference to undefined group"));
                        }
                        Piece::Backref(idx)
                    }
                    'n' => Piece::Literal('\n'),
                    't' => Piece::Literal('\t'),
                    's' => Piece::Class {
                        // GNU extension used by some scripts: \s = blank.
                        negated: false,
                        items: vec![ClassItem::Posix(PosixClass::Space)],
                    },
                    other => Piece::Literal(other),
                }
            }
            other => Piece::Literal(other),
        })
    }

    fn parse_bracket(&mut self) -> Result<Piece, ParseError> {
        let negated = if self.peek() == Some('^') {
            self.pos += 1;
            true
        } else {
            false
        };
        let mut items = Vec::new();
        // ']' immediately after '[' or '[^' is a literal.
        if self.peek() == Some(']') {
            items.push(ClassItem::Char(']'));
            self.pos += 1;
        }
        loop {
            let c = self
                .bump()
                .ok_or_else(|| self.err("unterminated bracket expression"))?;
            match c {
                ']' => break,
                '[' if self.peek() == Some(':') => {
                    // POSIX class [:name:]
                    self.pos += 1; // ':'
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == ':' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let name: String = self.chars[start..self.pos].iter().collect();
                    if self.bump() != Some(':') || self.bump() != Some(']') {
                        return Err(self.err("unterminated POSIX class"));
                    }
                    let class = PosixClass::from_name(&name)
                        .ok_or_else(|| self.err("unknown POSIX class"))?;
                    items.push(ClassItem::Posix(class));
                }
                lo => {
                    // Possible range lo-hi, unless '-' is last before ']'.
                    if self.peek() == Some('-')
                        && self.chars.get(self.pos + 1).is_some_and(|&c| c != ']')
                    {
                        self.pos += 1; // '-'
                        let hi = self.bump().ok_or_else(|| self.err("unterminated range"))?;
                        if hi < lo {
                            return Err(self.err("reversed character range"));
                        }
                        items.push(ClassItem::Range(lo, hi));
                    } else {
                        items.push(ClassItem::Char(lo));
                    }
                }
            }
        }
        if items.is_empty() {
            return Err(self.err("empty bracket expression"));
        }
        Ok(Piece::Class { negated, items })
    }
}

#[cfg(test)]
mod tests {
    use super::Syntax::{Basic, Extended};
    use super::*;

    fn parse(pattern: &str) -> Result<Ast, ParseError> {
        super::parse(pattern, Basic)
    }

    #[test]
    fn parses_plain_literal() {
        let ast = parse("abc").unwrap();
        assert_eq!(ast.atoms.len(), 3);
        assert!(!ast.anchored_start && !ast.anchored_end);
    }

    #[test]
    fn parses_anchors() {
        let ast = parse("^ab$").unwrap();
        assert!(ast.anchored_start && ast.anchored_end);
        assert_eq!(ast.atoms.len(), 2);
    }

    #[test]
    fn parses_star() {
        let ast = parse("ab*").unwrap();
        assert!(!ast.atoms[0].star);
        assert!(ast.atoms[1].star);
    }

    #[test]
    fn parses_group_with_index() {
        let ast = parse("\\(a\\)\\1").unwrap();
        match &ast.atoms[0].piece {
            Piece::Group(1, inner) => assert_eq!(inner.atoms.len(), 1),
            other => panic!("expected group, got {other:?}"),
        }
        assert_eq!(ast.atoms[1].piece, Piece::Backref(1));
    }

    #[test]
    fn rejects_forward_backref() {
        assert!(parse("\\1").is_err());
    }

    #[test]
    fn rejects_unterminated_bracket() {
        assert!(parse("[abc").is_err());
        assert!(parse("[a-").is_err());
    }

    #[test]
    fn rejects_unknown_posix_class() {
        assert!(parse("[[:bogus:]]").is_err());
    }

    #[test]
    fn nested_groups_number_in_order() {
        let ast = parse("\\(a\\(b\\)\\)").unwrap();
        match &ast.atoms[0].piece {
            Piece::Group(1, inner) => match &inner.atoms[1].piece {
                Piece::Group(2, _) => {}
                other => panic!("expected inner group 2, got {other:?}"),
            },
            other => panic!("expected outer group, got {other:?}"),
        }
    }

    #[test]
    fn dollar_inside_is_literal() {
        let ast = parse("a$b").unwrap();
        assert_eq!(ast.atoms[1].piece, Piece::Literal('$'));
        assert!(!ast.anchored_end);
    }

    #[test]
    fn alternation_is_one_atom_of_branches() {
        let ast = parse("ab\\|c").unwrap();
        let [Atom {
            piece: Piece::Alt(branches),
            star: false,
        }] = ast.atoms.as_slice()
        else {
            panic!("expected one alternation atom, got {ast:?}");
        };
        assert_eq!(branches.len(), 2);
        assert_eq!(branches[0].atoms.len(), 2);
        assert_eq!(branches[1].atoms.len(), 1);
        // The same pattern, extended spelling.
        assert_eq!(super::parse("ab|c", Extended).unwrap(), ast);
        // Unescaped in BRE and escaped in ERE, `|` is a character.
        assert_eq!(parse("a|b").unwrap().atoms.len(), 3);
        assert_eq!(super::parse("a\\|b", Extended).unwrap().atoms.len(), 3);
    }

    #[test]
    fn alternation_inside_a_group_and_anchors_per_branch() {
        let ast = parse("\\(light\\|land\\) of").unwrap();
        match &ast.atoms[0].piece {
            Piece::Group(1, inner) => {
                assert!(matches!(&inner.atoms[0].piece, Piece::Alt(b) if b.len() == 2))
            }
            other => panic!("expected group, got {other:?}"),
        }
        assert_eq!(ast.group_count(), 1);
        let ast = parse("^a\\|b$").unwrap();
        let Piece::Alt(branches) = &ast.atoms[0].piece else {
            panic!("expected alternation");
        };
        assert!(branches[0].anchored_start && !branches[0].anchored_end);
        assert!(!branches[1].anchored_start && branches[1].anchored_end);
    }

    #[test]
    fn extended_quantifiers_desugar() {
        // a+ is aa*; a? is (a|nothing).
        let plus = super::parse("a+", Extended).unwrap();
        assert_eq!(plus, parse("aa*").unwrap());
        let opt = super::parse("ab?", Extended).unwrap();
        assert!(
            matches!(&opt.atoms[1].piece, Piece::Alt(b) if b.len() == 2 && b[1].atoms.is_empty())
        );
        // In BRE both are characters.
        assert_eq!(parse("a+").unwrap().atoms[1].piece, Piece::Literal('+'));
        assert_eq!(parse("a?").unwrap().atoms[1].piece, Piece::Literal('?'));
        // Groups nest and number the same way.
        assert_eq!(
            super::parse("(a(b))\\2", Extended).unwrap().group_count(),
            2
        );
        assert!(super::parse("(a", Extended).is_err());
        assert!(super::parse("a)", Extended).is_err());
    }

    #[test]
    fn intervals_desugar_in_both_spellings() {
        for (basic, extended, same_as) in [
            ("a\\{2\\}", "a{2}", "aa"),
            ("a\\{2,\\}", "a{2,}", "aaa*"),
            ("a\\{0,\\}b", "a{0,}b", "a*b"),
            ("a\\{0\\}b", "a{0}b", "b"),
            ("[ab]\\{1\\}", "[ab]{1}", "[ab]"),
        ] {
            let want = parse(same_as).unwrap();
            assert_eq!(parse(basic).unwrap(), want, "{basic}");
            assert_eq!(
                super::parse(extended, Extended).unwrap(),
                want,
                "{extended}"
            );
        }
        // {1,3} is a(a(a)?)?: one nested optional per count above the
        // minimum.
        let a = || Atom {
            piece: Piece::Literal('a'),
            star: false,
        };
        let optional = |atoms: Vec<Atom>| Atom {
            piece: Piece::Alt(vec![
                Ast {
                    atoms,
                    ..Ast::default()
                },
                Ast::default(),
            ]),
            star: false,
        };
        let bounded = parse("a\\{1,3\\}").unwrap();
        assert_eq!(
            bounded.atoms,
            [a(), optional(vec![a(), optional(vec![a()])])]
        );
        assert_eq!(bounded, super::parse("a{1,3}", Extended).unwrap());
        // A group keeps its index in every copy.
        assert_eq!(parse("\\(a\\)\\{2\\}\\1").unwrap().group_count(), 1);
        // Unescaped in BRE, braces are characters.
        assert_eq!(parse("a{2}").unwrap().atoms.len(), 4);
    }

    #[test]
    fn malformed_and_oversized_intervals_are_errors() {
        for bad in [
            "a\\{2",
            "a\\{,2\\}",
            "a\\{x\\}",
            "a\\{3,2\\}",
            "\\{2\\}",
            "a\\{256\\}",
            "a\\{1,256\\}",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        for bad in ["a{2", "a{,2}", "a{3,2}", "{2}", "a{256}"] {
            assert!(super::parse(bad, Extended).is_err(), "{bad}");
        }
        assert!(parse("a\\{255\\}").is_ok());
        // Nesting multiplies: 200 * 200 copies is past the expansion bound.
        let err = parse("\\(a\\{200\\}\\)\\{200\\}").unwrap_err();
        assert!(err.message.contains("10000"), "{err}");
        let err = parse("a\\{256\\}").unwrap_err();
        assert!(err.message.contains("255"), "{err}");
    }

    #[test]
    fn fixed_syntax_has_no_operators() {
        let ast = super::parse("^a.*\\(b\\)$", super::Syntax::Fixed).unwrap();
        assert!(!ast.anchored_start && !ast.anchored_end);
        assert_eq!(ast.atoms.len(), 10);
        assert!(ast
            .atoms
            .iter()
            .all(|a| matches!(a.piece, Piece::Literal(_)) && !a.star));
    }

    #[test]
    fn backreferences_are_found_at_any_depth() {
        assert!(!parse("\\(a\\|b\\)*c").unwrap().has_backref());
        assert!(parse("\\(a\\)\\1").unwrap().has_backref());
        assert!(parse("\\(a\\)\\(x\\|\\(y\\1\\)\\)").unwrap().has_backref());
    }
}
