//! Synthetic input generators for the benchmark corpus.
//!
//! The paper's datasets (COVID-19 bus telemetry, 1823 Project Gutenberg
//! books, the unix50 puzzle inputs, chess logs) are not redistributable
//! here, so each generator produces data with the same *structure* — the
//! properties the pipelines actually exercise: duplicate words and lines,
//! sorted runs, timestamped CSV rows, movetext with captures, delimiter-
//! separated records. All generators are deterministic in their seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Common English-like vocabulary with a Zipf-flavoured sampler: earlier
/// words are proportionally more frequent.
const VOCAB: &[&str] = &[
    "the",
    "of",
    "and",
    "to",
    "a",
    "in",
    "that",
    "it",
    "was",
    "he",
    "for",
    "on",
    "with",
    "as",
    "his",
    "they",
    "be",
    "at",
    "one",
    "have",
    "this",
    "from",
    "or",
    "had",
    "by",
    "word",
    "but",
    "what",
    "some",
    "we",
    "can",
    "out",
    "other",
    "were",
    "all",
    "there",
    "when",
    "up",
    "use",
    "your",
    "how",
    "said",
    "each",
    "she",
    "which",
    "their",
    "time",
    "will",
    "way",
    "about",
    "many",
    "then",
    "them",
    "write",
    "would",
    "like",
    "these",
    "her",
    "long",
    "make",
    "thing",
    "see",
    "him",
    "two",
    "has",
    "look",
    "more",
    "day",
    "could",
    "come",
    "did",
    "number",
    "sound",
    "most",
    "people",
    "water",
    "over",
    "land",
    "light",
    "moonlight",
    "darkness",
    "kingdom",
    "mountain",
    "river",
    "ancient",
    "whisper",
    "journey",
    "forgotten",
    "twilight",
    "uncharacteristically",
    "incomprehensibilities",
    "misunderstandings",
];

fn zipf_word<R: Rng + ?Sized>(rng: &mut R) -> &'static str {
    // P(rank k) ∝ 1/(k+1): sample via inverse-ish trick on a squared
    // uniform, cheap and close enough for workload purposes.
    let u: f64 = rng.gen::<f64>();
    let idx = ((u * u) * VOCAB.len() as f64) as usize;
    VOCAB[idx.min(VOCAB.len() - 1)]
}

/// `lines` unsorted lines of 35 bytes or so, `<number> key <k> value <i>
/// filler`, for tests of large sorts: the numbers are drawn from three
/// times as many values as there are lines, so about one line in seven
/// repeats a number seen earlier in the stream (`sort -nu` must keep the
/// earlier one) and a sort's output is as large as its input.
pub fn numbered_lines(lines: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6e75_6d62);
    let mut out = String::with_capacity(lines * 36);
    for i in 0..lines {
        let number = rng.gen_range(0..3 * lines);
        let key = rng.gen_range(0..997);
        out.push_str(&format!("{number} key {key} value {i} filler\n"));
    }
    out
}

/// Book-like text: sentences wrapped at ~60 columns, capitalized sentence
/// heads, punctuation, occasional blank lines and accented characters
/// (exercising `iconv`/`col`).
pub fn gutenberg_text(target_bytes: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6774);
    let mut out = String::with_capacity(target_bytes + 80);
    let mut col = 0usize;
    let mut sentence_pos = 0usize;
    while out.len() < target_bytes {
        // Canned verses keep the corpus's phrase-hunting pipelines
        // productive (poets 6_1 greps "the land of"/"And he said";
        // 6_7 counts lines with repeated "light").
        if col == 0 && rng.gen_bool(0.02) {
            out.push_str(match rng.gen_range(0..3) {
                0 => "And he said unto them in the land of the river\n",
                1 => "the light of the moonlight is the light of twilight\n",
                _ => "And he said the land of light was a land of light\n",
            });
            continue;
        }
        let mut word = zipf_word(&mut rng).to_owned();
        if sentence_pos == 0 {
            let mut c = word.chars();
            if let Some(f) = c.next() {
                word = f.to_uppercase().collect::<String>() + c.as_str();
            }
        }
        if rng.gen_bool(0.01) {
            word = word.replace('e', "é");
        }
        sentence_pos += 1;
        if col + word.len() + 1 > 60 {
            out.push('\n');
            col = 0;
            if rng.gen_bool(0.03) {
                out.push('\n');
            }
        } else if col > 0 {
            out.push(' ');
            col += 1;
        }
        out.push_str(&word);
        col += word.len();
        if sentence_pos > 6 && rng.gen_bool(0.25) {
            out.push_str(if rng.gen_bool(0.8) { "." } else { "," });
            col += 1;
            if rng.gen_bool(0.8) {
                sentence_pos = 0;
            }
        }
    }
    out.push('\n');
    out
}

/// Mass-transit telemetry CSV: `timestamp,vehicle,line,delay` rows over a
/// year of simulated service (the analytics-mts schema).
pub fn mass_transit_csv(rows: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4d75);
    let mut out = String::with_capacity(rows * 40);
    for _ in 0..rows {
        let month = rng.gen_range(1..=12u32);
        let day = rng.gen_range(1..=28u32);
        let hour = rng.gen_range(5..=23u32);
        let minute = rng.gen_range(0..60u32);
        let vehicle = rng.gen_range(100..160u32);
        let line = rng.gen_range(1..25u32);
        let delay = rng.gen_range(0..900u32);
        out.push_str(&format!(
            "2020-{month:02}-{day:02}T{hour:02}:{minute:02}:00,veh{vehicle},line{line},{delay}\n"
        ));
    }
    out
}

/// Chess movetext lines for the unix50 4.x puzzles: numbered moves, piece
/// letters `KQRBN`, captures `x`, pawn moves in lowercase.
pub fn chess_games(games: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc4e5);
    let pieces = ['K', 'Q', 'R', 'B', 'N'];
    let files = ['a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'];
    let mut out = String::new();
    for _ in 0..games {
        let n_moves = rng.gen_range(8..30);
        let mut line = String::new();
        for m in 1..=n_moves {
            if m > 1 {
                line.push(' ');
            }
            line.push_str(&format!("{m}."));
            for half in 0..2 {
                if half > 0 {
                    line.push(' ');
                }
                let capture = rng.gen_bool(0.25);
                let piece = rng.gen_bool(0.5);
                if piece {
                    line.push(pieces[rng.gen_range(0..pieces.len())]);
                }
                if capture {
                    if !piece {
                        line.push(files[rng.gen_range(0..files.len())]);
                    }
                    line.push('x');
                }
                line.push(files[rng.gen_range(0..files.len())]);
                line.push(char::from_digit(rng.gen_range(1..9), 10).unwrap());
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// `First Last` name rows (unix50 1.x).
pub fn names_list(rows: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9a3e);
    let first = [
        "Ken", "Dennis", "Brian", "Rob", "Doug", "Joe", "Steve", "Bjarne", "David", "Peter",
        "Brenda", "Lorinda",
    ];
    let last = [
        "Thompson",
        "Ritchie",
        "Kernighan",
        "Pike",
        "McIlroy",
        "Ossanna",
        "Johnson",
        "Cherry",
        "Baker",
        "Weinberger",
        "Aho",
        "Morris",
    ];
    let mut out = String::new();
    for _ in 0..rows {
        out.push_str(first[rng.gen_range(0..first.len())]);
        out.push(' ');
        out.push_str(last[rng.gen_range(0..last.len())]);
        out.push('\n');
    }
    out
}

/// Tab-separated release records for the unix50 7.x puzzles:
/// `version<TAB>machine list<TAB>site<TAB>year`.
pub fn releases_tsv(rows: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7e1e);
    let orgs = ["AT&T", "BSD", "AT&T Bell Labs", "MIT", "DEC"];
    let machines = ["PDP-7", "PDP-11", "VAX", "Interdata", "Honeywell"];
    let mut out = String::new();
    for i in 0..rows {
        let org = orgs[rng.gen_range(0..orgs.len())];
        let m1 = machines[rng.gen_range(0..machines.len())];
        let m2 = machines[rng.gen_range(0..machines.len())];
        let year = 1969 + (i as u32 % 25);
        out.push_str(&format!("V{}\t{m1} {m2} {m1}\t{org}\t{year}\n", i % 11));
    }
    out
}

/// Credit lines with parenthesized contributors (unix50 8.x).
pub fn credits_text(rows: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x83c3);
    let people = ["ken", "dmr", "bwk", "rob", "doug", "srb", "lem"];
    let places = [
        "Bell Labs Murray Hill New Jersey",
        "Bell Labs Holmdel",
        "MIT Cambridge",
        "University of California Berkeley computing laboratory annex",
    ];
    let mut out = String::new();
    for i in 0..rows {
        if rng.gen_bool(0.6) {
            out.push_str(&format!(
                "{} wrote module {} ({})\n",
                people[rng.gen_range(0..people.len())],
                i,
                people[rng.gen_range(0..people.len())]
            ));
        } else {
            out.push_str(&format!(
                "in 1969 UNIX was born at {}\n",
                places[rng.gen_range(0..places.len())]
            ));
        }
    }
    out
}

/// Mixed prose with quoted strings and code (unix50 5.x/9.x).
pub fn quoted_text(rows: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x95c1);
    let mut out = String::new();
    for i in 0..rows {
        match i % 5 {
            0 => out.push_str(&format!("printf(\"hello world {i}\");\n")),
            1 => out.push_str(&format!(
                "the PORTer carried TELEgrams to {} camp\n",
                zipf_word(&mut rng)
            )),
            2 => out.push_str(&format!(
                "\"{} {}\" said the {}\n",
                zipf_word(&mut rng),
                zipf_word(&mut rng),
                zipf_word(&mut rng)
            )),
            3 => out.push_str(&format!(
                "ELEPHANTs and BELLs ring {} times\n",
                rng.gen_range(1..9)
            )),
            _ => {
                for _ in 0..6 {
                    out.push_str(zipf_word(&mut rng));
                    out.push(' ');
                }
                out.push_str("end\n");
            }
        }
    }
    out
}

/// Email-ish message text (unix50 10.x).
pub fn mail_text(rows: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x3a11);
    let users = ["ken", "dmr", "bwk", "rob", "doug"];
    let hosts = ["research.att.com", "bell-labs.com", "mit.edu"];
    let mut out = String::new();
    for i in 0..rows {
        if i % 3 == 0 {
            out.push_str(&format!(
                "To: {}@{} {}@{}\n",
                users[rng.gen_range(0..users.len())],
                hosts[rng.gen_range(0..hosts.len())],
                users[rng.gen_range(0..users.len())],
                hosts[rng.gen_range(0..hosts.len())],
            ));
        } else {
            for _ in 0..5 {
                out.push_str(zipf_word(&mut rng));
                out.push(' ');
            }
            out.push('\n');
        }
    }
    out
}

/// Nobel-style award rows (unix50 11.x).
pub fn awards_text(rows: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0b31);
    let names = [
        "Ken Thompson",
        "Dennis Ritchie",
        "Niklaus Wirth",
        "Donald Knuth",
        "Barbara Liskov",
    ];
    let mut out = String::new();
    for i in 0..rows {
        let year = 1966 + (i as u32 % 50);
        let name = names[rng.gen_range(0..names.len())];
        let what = if rng.gen_bool(0.3) {
            "UNIX"
        } else {
            "computing"
        };
        out.push_str(&format!("{year} medal to {name} for {what}\n"));
    }
    out
}

/// A sorted dictionary of most of the vocabulary (for `spell`'s
/// `comm -23`): every seventh word is withheld so the spell checker always
/// has something to report, like the typo-bearing originals.
pub fn dictionary() -> String {
    let mut words: Vec<&str> = VOCAB.to_vec();
    words.sort_unstable();
    words.dedup();
    let mut out = String::new();
    for (i, w) in words.iter().enumerate() {
        if i % 7 == 3 {
            continue;
        }
        out.push_str(w);
        out.push('\n');
    }
    out
}

/// A list of numbered book file names plus their generated contents
/// (the poets scripts' `sed "s;^;$DIR;" | xargs cat` prelude).
pub fn book_library(n_books: usize, bytes_per_book: usize, seed: u64) -> Vec<(String, String)> {
    (0..n_books)
        .map(|i| {
            // Every book opens with a verse so the phrase-hunting poets
            // pipelines stay productive even at test scales.
            let mut text = String::from(
                "And he said unto them in the land of the river
",
            );
            text.push_str(&gutenberg_text(bytes_per_book, seed.wrapping_add(i as u64)));
            (format!("pg{:04}.txt", 100 + i), text)
        })
        .collect()
}

/// A file tree for `shortest-scripts.sh`: paths plus (content, file-type)
/// pairs, roughly half of them shell scripts of varying length.
pub fn file_tree(n_files: usize, seed: u64) -> Vec<(String, String, String)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xf17e);
    (0..n_files)
        .map(|i| {
            let path = format!("/usr/bin/tool{i:03}");
            if rng.gen_bool(0.5) {
                let lines = rng.gen_range(0..40);
                let mut content = String::from("#!/bin/sh\n");
                for l in 0..lines {
                    content.push_str(&format!("echo step {l}\n"));
                }
                (
                    path,
                    content,
                    "POSIX shell script, ASCII text executable".to_owned(),
                )
            } else {
                (
                    path,
                    "\u{7f}ELF\n".repeat(rng.gen_range(1..5)),
                    "ELF 64-bit LSB pie executable, x86-64".to_owned(),
                )
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gutenberg_is_deterministic_and_sized() {
        let a = gutenberg_text(5000, 1);
        let b = gutenberg_text(5000, 1);
        assert_eq!(a, b);
        assert!(a.len() >= 5000 && a.len() < 5200);
        assert!(a.ends_with('\n'));
        assert!(a.contains(' '));
    }

    #[test]
    fn gutenberg_differs_by_seed() {
        assert_ne!(gutenberg_text(2000, 1), gutenberg_text(2000, 2));
    }

    #[test]
    fn transit_rows_have_four_fields() {
        let csv = mass_transit_csv(100, 7);
        for line in csv.lines() {
            assert_eq!(line.split(',').count(), 4, "{line}");
            assert!(line.contains('T'));
        }
    }

    #[test]
    fn chess_lines_have_captures_and_pieces() {
        let text = chess_games(50, 3);
        assert!(text.contains('x'));
        assert!(text.contains('.'));
        assert!(text.chars().any(|c| "KQRBN".contains(c)));
    }

    #[test]
    fn names_have_two_fields() {
        for line in names_list(50, 1).lines() {
            assert_eq!(line.split(' ').count(), 2);
        }
    }

    #[test]
    fn releases_are_tab_separated() {
        for line in releases_tsv(20, 1).lines() {
            assert_eq!(line.split('\t').count(), 4);
        }
    }

    #[test]
    fn dictionary_is_sorted() {
        let d = dictionary();
        let lines: Vec<&str> = d.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn library_and_tree_shapes() {
        let lib = book_library(3, 1000, 9);
        assert_eq!(lib.len(), 3);
        assert!(lib
            .iter()
            .all(|(name, text)| name.ends_with(".txt") && text.len() >= 1000));
        let tree = file_tree(20, 9);
        assert_eq!(tree.len(), 20);
        assert!(tree.iter().any(|(_, _, t)| t.contains("shell script")));
        assert!(tree.iter().any(|(_, _, t)| t.contains("ELF")));
    }

    #[test]
    fn mail_contains_recipients() {
        let m = mail_text(30, 2);
        assert!(m.contains('@'));
        assert!(m.contains("To: "));
    }
}
