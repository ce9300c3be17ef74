//! The delimiter alphabet of the combiner DSL (Figure 3 of the paper):
//! `d ∈ Delim := '\n' | '\t' | ' ' | ','`.

use std::fmt;

/// A delimiter character usable by the `front`/`back`/`fuse`/`stitch2`/
/// `offset` combiner operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Delim {
    /// `'\n'` — the line delimiter; always part of the candidate alphabet.
    Newline,
    /// `'\t'` — field delimiter produced by e.g. `cut -f` and `awk` OFS.
    Tab,
    /// `' '` — word delimiter; separates `uniq -c`/`wc` count fields.
    Space,
    /// `','` — CSV field delimiter (mass-transit analytics scripts).
    Comma,
}

impl Delim {
    /// Every delimiter in the DSL grammar, in the paper's order.
    pub const ALL: [Delim; 4] = [Delim::Newline, Delim::Tab, Delim::Space, Delim::Comma];

    /// The underlying character.
    #[inline]
    pub const fn as_char(self) -> char {
        match self {
            Delim::Newline => '\n',
            Delim::Tab => '\t',
            Delim::Space => ' ',
            Delim::Comma => ',',
        }
    }

    /// The underlying byte (every delimiter is ASCII).
    #[inline]
    pub const fn as_byte(self) -> u8 {
        self.as_char() as u8
    }

    /// Maps a character back to a DSL delimiter, if it is one.
    pub fn from_char(c: char) -> Option<Delim> {
        match c {
            '\n' => Some(Delim::Newline),
            '\t' => Some(Delim::Tab),
            ' ' => Some(Delim::Space),
            ',' => Some(Delim::Comma),
            _ => None,
        }
    }

    /// True when `c` is any DSL delimiter (used by the `E(g, Y)` sufficiency
    /// predicates, which require observations containing characters outside
    /// `Delim ∪ {'0'}`).
    #[inline]
    pub fn is_delim_char(c: char) -> bool {
        matches!(c, '\n' | '\t' | ' ' | ',')
    }
}

impl fmt::Display for Delim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Delim::Newline => write!(f, "'\\n'"),
            Delim::Tab => write!(f, "'\\t'"),
            Delim::Space => write!(f, "' '"),
            Delim::Comma => write!(f, "','"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_roundtrip() {
        for d in Delim::ALL {
            assert_eq!(Delim::from_char(d.as_char()), Some(d));
        }
        assert_eq!(Delim::from_char('x'), None);
    }

    #[test]
    fn delim_char_predicate() {
        assert!(Delim::is_delim_char(' '));
        assert!(Delim::is_delim_char('\n'));
        assert!(!Delim::is_delim_char('0'));
        assert!(!Delim::is_delim_char('a'));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Delim::Newline.to_string(), "'\\n'");
        assert_eq!(Delim::Space.to_string(), "' '");
    }
}
