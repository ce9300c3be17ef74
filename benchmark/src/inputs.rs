//! The two input generators the corpus generators do not cover.
//!
//! `freq-fold` and `map-scan` read `kq_workloads::inputs::gutenberg_text`.
//! `multi-stmt` and `sort-spill` keep the line shapes of the benches they
//! come from (`crates/bench/benches/dataflow_exec.rs` and
//! `spill_fold.rs`), but draw every field from a seeded generator, where
//! those benches derive them from the line number.

/// SplitMix64: a few lines, no dependency, and good enough to pick words.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Mixed-case word lines of about 20 bytes, `Word word item NNNN`: ten
/// distinct first and second fields, so `sort | uniq -c` folds shrink to
/// a few lines while the first statement's fold sees every line.
pub fn word_lines(target_bytes: usize, seed: u64) -> String {
    use std::fmt::Write as _;
    const WORDS: [&str; 10] = [
        "Apple", "dog", "CAT", "bird", "Fox", "wolf", "Pear", "yak", "Emu", "newt",
    ];
    let mut rng = SplitMix64(seed ^ 0x776f_7264);
    let mut out = String::with_capacity(target_bytes + 32);
    while out.len() < target_bytes {
        let first = WORDS[rng.below(10) as usize];
        let second = WORDS[rng.below(10) as usize];
        writeln!(out, "{first} {second} item {:04}", rng.below(9973)).expect("String write");
    }
    out
}

/// Unsorted 31-byte lines, `key NNN item NNNNNNN tail NNNN`: 499 keys
/// repeated heavily and a seeded tail, so a sort moves every byte and
/// its output is as large as its input.
pub fn keyed_lines(target_bytes: usize, seed: u64) -> String {
    use std::fmt::Write as _;
    let mut rng = SplitMix64(seed ^ 0x6b65_7973);
    let mut out = String::with_capacity(target_bytes + 32);
    while out.len() < target_bytes {
        writeln!(
            out,
            "key {:03} item {:07} tail {:04}",
            rng.below(499),
            rng.below(9_999_991),
            rng.below(7919)
        )
        .expect("String write");
    }
    out
}

/// FNV-1a, to compare generated inputs without keeping both.
#[cfg(test)]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_input_and_another_seed_another() {
        for generate in [word_lines, keyed_lines] {
            let a = generate(50_000, 7);
            let b = generate(50_000, 7);
            let c = generate(50_000, 8);
            assert_eq!(fnv1a(a.as_bytes()), fnv1a(b.as_bytes()));
            assert_ne!(fnv1a(a.as_bytes()), fnv1a(c.as_bytes()));
        }
    }

    #[test]
    fn inputs_reach_their_size_in_whole_lines_of_the_documented_shape() {
        let words = word_lines(10_000, 1);
        assert!(words.len() >= 10_000 && words.len() < 10_032);
        assert!(words.ends_with('\n'));
        assert!(words
            .lines()
            .all(|l| l.split(' ').count() == 4 && l.contains(" item ")));
        let keyed = keyed_lines(10_000, 1);
        assert!(keyed.len() >= 10_000 && keyed.len() < 10_032);
        assert!(keyed
            .lines()
            .all(|l| l.len() == 30 && l.starts_with("key ")));
    }
}
