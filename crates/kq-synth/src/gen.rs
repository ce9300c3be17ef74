//! Shape-conforming input stream generation (`GetInputStreamPairs`).
//!
//! A generated *pair* `⟨x1, x2⟩` satisfies a shape `s` when the combined
//! stream `x1 ++ x2` does (Definition 3.12), so generation builds one
//! combined stream from the shape and splits it at a random line boundary.
//! The word pool is seeded from the command's dictionary (regex samples,
//! file names, numeric literals) so the command exercises its matching
//! paths, and the element pools honour each dimension's distinctness
//! percentage.

use crate::preprocess::{InputProfile, Preprocessed};
use crate::shape::InputShape;
use rand::Rng;

/// The alphabet for synthetic word characters: letters plus digits, so
/// numeric comparisons (`awk "$1 >= 1000"`, `sort -n`) see both kinds.
const WORD_ALPHABET: &[char] = &[
    'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'l', 'm', 'n', 'o', 'r', 's', 't', 'u', 'w', 'A',
    'B', 'T', '0', '1', '2', '3', '5', '7', '9',
];

/// Generates one stream pair conforming to `shape`, honouring the
/// preprocessing profile (sorted-only inputs, file-name dictionaries).
/// Returns `None` when the shape cannot produce a splittable stream.
pub fn stream_pair<R: Rng + ?Sized>(
    shape: &InputShape,
    pre: &Preprocessed,
    rng: &mut R,
) -> Option<(String, String)> {
    let n_lines = shape.lines.sample_count(rng).max(2);
    let mut lines = generate_lines(shape, pre, n_lines, rng);
    if matches!(pre.profile, InputProfile::Sorted) {
        lines.sort_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
    }
    // Encourage boundary duplicates occasionally: the `uniq`
    // counterexample needs x1 to end with the line x2 starts with.
    let cut = 1 + rng.gen_range(0..n_lines - 1);
    if !matches!(pre.profile, InputProfile::Sorted) && rng.gen_bool(0.3) && cut < lines.len() {
        lines[cut] = lines[cut - 1].clone();
    }
    let mut x1 = String::new();
    let mut x2 = String::new();
    for (i, l) in lines.iter().enumerate() {
        let target = if i < cut { &mut x1 } else { &mut x2 };
        target.push_str(l);
        target.push('\n');
    }
    if x1.is_empty() || x2.is_empty() {
        return None;
    }
    Some((x1, x2))
}

fn generate_lines<R: Rng + ?Sized>(
    shape: &InputShape,
    pre: &Preprocessed,
    n_lines: usize,
    rng: &mut R,
) -> Vec<String> {
    // Word pool, sized by the words dimension's distinctness.
    let max_words_per_line = shape.words.max.max(1);
    let word_pool_size = shape.words.pool_size(max_words_per_line * 4).max(2);
    let mut word_pool: Vec<String> = Vec::with_capacity(word_pool_size);
    for _ in 0..word_pool_size {
        word_pool.push(sample_word(shape, pre, rng));
    }
    // Line pool, sized by the lines dimension's distinctness.
    let line_pool_size = shape.lines.pool_size(n_lines);
    let mut line_pool: Vec<String> = Vec::with_capacity(line_pool_size);
    for _ in 0..line_pool_size {
        line_pool.push(sample_line(shape, pre, &word_pool, rng));
    }
    (0..n_lines)
        .map(|_| line_pool[rng.gen_range(0..line_pool.len())].clone())
        .collect()
}

fn sample_line<R: Rng + ?Sized>(
    shape: &InputShape,
    pre: &Preprocessed,
    word_pool: &[String],
    rng: &mut R,
) -> String {
    if matches!(pre.profile, InputProfile::FileNames) {
        // File-name streams are one path per line.
        return pre.dictionary[rng.gen_range(0..pre.dictionary.len())].clone();
    }
    let n_words = shape.words.sample_count(rng);
    let mut line = String::new();
    for w in 0..n_words {
        if w > 0 {
            line.push(' ');
        }
        line.push_str(&word_pool[rng.gen_range(0..word_pool.len())]);
    }
    line
}

fn sample_word<R: Rng + ?Sized>(shape: &InputShape, pre: &Preprocessed, rng: &mut R) -> String {
    // Bias toward dictionary entries (regex samples, numeric literals) so
    // matching code paths are exercised; mix in random words so mismatch
    // paths are too.
    if !pre.dictionary.is_empty() && rng.gen_bool(0.5) {
        return pre.dictionary[rng.gen_range(0..pre.dictionary.len())].clone();
    }
    let n_chars = shape.chars.sample_count(rng).max(1);
    let pool_size = shape.chars.pool_size(n_chars).min(WORD_ALPHABET.len());
    let offset = rng.gen_range(0..WORD_ALPHABET.len());
    let mut word = String::with_capacity(n_chars);
    for _ in 0..n_chars {
        let idx = (offset + rng.gen_range(0..pool_size)) % WORD_ALPHABET.len();
        word.push(WORD_ALPHABET[idx]);
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::Preprocessed;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn plain() -> Preprocessed {
        Preprocessed::plain_for_tests()
    }

    #[test]
    fn pair_components_are_streams() {
        let mut rng = SmallRng::seed_from_u64(7);
        let shape = InputShape::seed();
        for _ in 0..50 {
            let (x1, x2) = stream_pair(&shape, &plain(), &mut rng).unwrap();
            assert!(x1.ends_with('\n'));
            assert!(x2.ends_with('\n'));
        }
    }

    #[test]
    fn combined_stream_respects_line_bounds() {
        let mut rng = SmallRng::seed_from_u64(8);
        let shape = InputShape::seed();
        for _ in 0..50 {
            let (x1, x2) = stream_pair(&shape, &plain(), &mut rng).unwrap();
            let combined = format!("{x1}{x2}");
            let n = kq_stream::line_count(combined.as_bytes());
            assert!(
                n >= shape.lines.min && n <= shape.lines.max,
                "line count {n} outside [{}, {}]",
                shape.lines.min,
                shape.lines.max
            );
        }
    }

    #[test]
    fn low_distinctness_produces_duplicates() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut shape = InputShape::seed();
        shape.lines.min = 12;
        shape.lines.max = 16;
        shape.lines.distinct_pct = 10;
        let (x1, x2) = stream_pair(&shape, &plain(), &mut rng).unwrap();
        let combined = format!("{x1}{x2}");
        let lines: Vec<&str> = combined.split_terminator('\n').collect();
        let distinct: std::collections::HashSet<_> = lines.iter().collect();
        assert!(distinct.len() < lines.len());
    }

    #[test]
    fn sorted_profile_yields_sorted_streams() {
        let mut rng = SmallRng::seed_from_u64(10);
        let mut pre = plain();
        pre.profile = InputProfile::Sorted;
        let shape = InputShape::seed();
        for _ in 0..20 {
            let (x1, x2) = stream_pair(&shape, &pre, &mut rng).unwrap();
            let combined = format!("{x1}{x2}");
            let lines: Vec<&str> = combined.split_terminator('\n').collect();
            for w in lines.windows(2) {
                assert!(w[0].as_bytes() <= w[1].as_bytes(), "unsorted: {lines:?}");
            }
        }
    }

    #[test]
    fn filename_profile_draws_from_dictionary() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut pre = plain();
        pre.profile = InputProfile::FileNames;
        pre.dictionary = vec!["/v/a.txt".to_owned(), "/v/b.txt".to_owned()];
        let shape = InputShape::seed();
        let (x1, x2) = stream_pair(&shape, &pre, &mut rng).unwrap();
        for line in format!("{x1}{x2}").split_terminator('\n') {
            assert!(pre.dictionary.iter().any(|d| d == line), "line {line:?}");
        }
    }

    #[test]
    fn dictionary_words_appear_in_output() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mut pre = plain();
        pre.dictionary = vec!["lightXlight".to_owned()];
        let mut shape = InputShape::seed();
        shape.words.min = 1;
        shape.lines.min = 20;
        shape.lines.max = 30;
        let (x1, x2) = stream_pair(&shape, &pre, &mut rng).unwrap();
        let combined = format!("{x1}{x2}");
        assert!(combined.contains("lightXlight"));
    }
}
