//! Generation of random strings matching a parsed pattern.
//!
//! KumQuat's preprocessing (paper §3.2, "Preprocessing") extracts regexes
//! such as `light.light` from commands like `grep` and builds a dictionary
//! of matching strings so that generated inputs exercise the command's
//! matching path (otherwise e.g. `grep -c` would only ever output zero and
//! the `add` combiner could never be validated). This module walks the AST
//! and emits one matching string per call.

use crate::parse::{Ast, Atom, ClassItem, Piece};
use rand::Rng;

/// Characters used for `.`, and as the candidate pool for negated classes.
const ALPHABET: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'g', 'k', 'm', 'p', 'r', 's', 't', 'u', 'w', 'x', 'z', 'A', 'B', 'K',
    'Q', 'R', 'N', '1', '3', '7', '9', '.', '!', '-',
];

struct Sampler<'r, R: Rng + ?Sized> {
    rng: &'r mut R,
    star_max: usize,
    groups: Vec<String>,
}

/// Samples a string matching `ast`. `star_max` bounds `*` repetitions.
pub fn sample<R: Rng + ?Sized>(ast: &Ast, rng: &mut R, star_max: usize) -> String {
    let ngroups = ast.group_count();
    let mut s = Sampler {
        rng,
        star_max,
        groups: vec![String::new(); ngroups],
    };
    let mut out = String::new();
    s.emit_seq(&ast.atoms, &mut out);
    out
}

impl<R: Rng + ?Sized> Sampler<'_, R> {
    fn emit_seq(&mut self, atoms: &[Atom], out: &mut String) {
        for atom in atoms {
            let reps = if atom.star {
                self.rng.gen_range(0..=self.star_max)
            } else {
                1
            };
            for _ in 0..reps {
                self.emit_piece(&atom.piece, out);
            }
        }
    }

    fn emit_piece(&mut self, piece: &Piece, out: &mut String) {
        match piece {
            Piece::Literal(c) => out.push(*c),
            Piece::AnyChar => out.push(ALPHABET[self.rng.gen_range(0..ALPHABET.len())]),
            Piece::Class { negated, items } => out.push(self.pick_class(*negated, items)),
            Piece::Group(idx, inner) => {
                let mut part = String::new();
                self.emit_seq(&inner.atoms, &mut part);
                out.push_str(&part);
                self.groups[*idx - 1] = part;
            }
            Piece::Backref(idx) => {
                let text = self.groups[*idx - 1].clone();
                out.push_str(&text);
            }
            Piece::Alt(branches) => {
                let branch = &branches[self.rng.gen_range(0..branches.len())];
                self.emit_seq(&branch.atoms, out);
            }
        }
    }

    fn pick_class(&mut self, negated: bool, items: &[ClassItem]) -> char {
        if !negated {
            let item = &items[self.rng.gen_range(0..items.len())];
            match item {
                ClassItem::Char(c) => *c,
                ClassItem::Range(lo, hi) => {
                    let span = (*hi as u32) - (*lo as u32) + 1;
                    char::from_u32(*lo as u32 + self.rng.gen_range(0..span)).unwrap_or(*lo)
                }
                ClassItem::Posix(p) => {
                    let members = p.members();
                    members[self.rng.gen_range(0..members.len())]
                }
            }
        } else {
            let excluded = |c: char| {
                items.iter().any(|item| match item {
                    ClassItem::Char(x) => c == *x,
                    ClassItem::Range(lo, hi) => (*lo..=*hi).contains(&c),
                    ClassItem::Posix(p) => p.contains(c),
                })
            };
            let start = self.rng.gen_range(0..ALPHABET.len());
            for off in 0..ALPHABET.len() {
                let c = ALPHABET[(start + off) % ALPHABET.len()];
                if !excluded(c) && c != '\n' {
                    return c;
                }
            }
            // Every candidate excluded; fall back to an unusual but
            // printable character outside the pools above.
            '~'
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Regex;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sample_negated_class_avoids_members() {
        let re = Regex::new("[^a-z]").unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let s = re.sample(&mut rng, 2);
            assert_eq!(s.chars().count(), 1);
            assert!(!s.chars().next().unwrap().is_ascii_lowercase(), "{s:?}");
        }
    }

    #[test]
    fn sample_backref_repeats_group() {
        let re = Regex::new("\\(..\\)-\\1").unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..50 {
            let s = re.sample(&mut rng, 2);
            let bytes: Vec<char> = s.chars().collect();
            assert_eq!(bytes.len(), 5);
            assert_eq!(bytes[0], bytes[3]);
            assert_eq!(bytes[1], bytes[4]);
            assert_eq!(bytes[2], '-');
        }
    }

    #[test]
    fn sample_star_respects_bound() {
        let re = Regex::new("a*").unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let s = re.sample(&mut rng, 3);
            assert!(s.len() <= 3, "{s:?}");
        }
    }

    #[test]
    fn sample_ranges_stay_in_range() {
        let re = Regex::new("[f-k][0-3]").unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..100 {
            let s = re.sample(&mut rng, 2);
            let cs: Vec<char> = s.chars().collect();
            assert!(('f'..='k').contains(&cs[0]));
            assert!(('0'..='3').contains(&cs[1]));
        }
    }
}
