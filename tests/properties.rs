//! Cross-crate property tests: total-function behaviour of the DSL
//! evaluator, k-way combining against the pairwise fold, shell-quoting
//! round trips, CLI-parser robustness, and heap-versus-mmap backing
//! equivalence for the `Bytes` data plane.

use kq_coreutils::split_words;
use kq_dsl::ast::{Candidate, Combiner, RecOp, StructOp};
use kq_dsl::eval::{eval, NoRunEnv};
use kq_dsl::{combine_all, Delim};
use proptest::prelude::*;

/// Strategy producing arbitrary small RecOp trees.
fn rec_op(depth: u32) -> BoxedStrategy<RecOp> {
    let leaf = prop_oneof![
        Just(RecOp::Add),
        Just(RecOp::Concat),
        Just(RecOp::First),
        Just(RecOp::Second),
    ];
    leaf.prop_recursive(depth, 8, 1, |inner| {
        (any_delim(), inner).prop_flat_map(|(d, b)| {
            prop_oneof![
                Just(RecOp::Front(d, Box::new(b.clone()))),
                Just(RecOp::Back(d, Box::new(b.clone()))),
                Just(RecOp::Fuse(d, Box::new(b))),
            ]
        })
    })
    .boxed()
}

fn any_delim() -> BoxedStrategy<Delim> {
    prop_oneof![
        Just(Delim::Newline),
        Just(Delim::Tab),
        Just(Delim::Space),
        Just(Delim::Comma),
    ]
    .boxed()
}

/// Strategy producing arbitrary combiners (RecOp and StructOp; RunOp needs
/// a command environment and is exercised elsewhere).
fn any_combiner() -> BoxedStrategy<Combiner> {
    prop_oneof![
        rec_op(2).prop_map(Combiner::Rec),
        rec_op(1).prop_map(|b| Combiner::Struct(StructOp::Stitch(b))),
        (any_delim(), rec_op(1), rec_op(1))
            .prop_map(|(d, b1, b2)| Combiner::Struct(StructOp::Stitch2(d, b1, b2))),
        (any_delim(), rec_op(1)).prop_map(|(d, b)| Combiner::Struct(StructOp::Offset(d, b))),
    ]
    .boxed()
}

/// The pairwise reference for k-way combining: the binary combiner folded
/// left over the non-empty pieces through `eval`, one piece at a time.
fn fold_pairwise(cand: &Candidate, pieces: &[kq_stream::Bytes]) -> Result<String, String> {
    let mut live = pieces.iter().filter(|p| !p.is_empty());
    let Some(first) = live.next() else {
        return Ok(String::new());
    };
    live.try_fold(first.clone(), |acc, piece| {
        let (x, y) = cand.oriented(acc.as_bytes(), piece.as_bytes());
        eval(&cand.op, x, y, &NoRunEnv).map_err(|e| e.to_string())
    })
    .map(|out| out.to_str().unwrap().to_owned())
}

/// True when the combiner applies `fuse` anywhere in its tree (see
/// `eval_succeeds_on_domain_members` for why fuse is special).
fn contains_fuse(op: &Combiner) -> bool {
    fn rec_has_fuse(b: &RecOp) -> bool {
        match b {
            RecOp::Fuse(..) => true,
            RecOp::Front(_, inner) | RecOp::Back(_, inner) => rec_has_fuse(inner.as_ref()),
            _ => false,
        }
    }
    match op {
        Combiner::Rec(b) => rec_has_fuse(b),
        Combiner::Struct(StructOp::Stitch(b)) => rec_has_fuse(b),
        Combiner::Struct(StructOp::Stitch2(_, b1, b2)) => rec_has_fuse(b1) || rec_has_fuse(b2),
        Combiner::Struct(StructOp::Offset(_, b)) => rec_has_fuse(b),
        Combiner::Run(_) => false,
    }
}

/// Writes `content` to a fresh temp file and ingests it as a mapped
/// `Bytes` (forced `MmapMode::On`; empty inputs legitimately fall back to
/// heap). The file is unlinked immediately — the mapping keeps the inode
/// alive, which doubles as a lifecycle check.
#[cfg(unix)]
fn mmap_bytes(content: &str, tag: &str) -> kq_stream::Bytes {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static N: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "kq-prop-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, content).unwrap();
    let bytes = kq_io::read_path(&path, &kq_io::IngestOptions::with_mode(kq_io::MmapMode::On))
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    std::fs::remove_file(&path).ok();
    bytes
}

/// `compact()` must release an oversized backing the same way whether the
/// backing is a heap buffer or a mapped file: a tiny slice of a big mapped
/// input copies onto the heap (dropping the last map reference unmaps),
/// while a slice covering most of the map stays shared.
#[cfg(unix)]
#[test]
fn compact_releases_mapped_backings_like_heap_ones() {
    let content = "line of corpus text\n".repeat(1024); // 20 KiB
    let mapped = mmap_bytes(&content, "compact");
    let heap = kq_stream::Bytes::from(content.as_str());
    assert!(mapped.is_mmap_backed());

    let tiny_m = mapped.slice(0..20).compact();
    let tiny_h = heap.slice(0..20).compact();
    assert_eq!(tiny_m, tiny_h);
    assert!(
        !tiny_m.is_mmap_backed(),
        "a compacted small slice must not pin the map"
    );
    assert!(!tiny_m.shares_buffer(&mapped));

    let most_m = mapped.slice(0..content.len() - 20).compact();
    assert!(
        most_m.shares_buffer(&mapped),
        "a slice covering most of the map stays shared"
    );
    assert!(most_m.is_mmap_backed());

    // into_string out of a *shared* mapped view copies; out of the last
    // reference it copies then unmaps — both equal the heap result.
    assert_eq!(mapped.clone().to_str().unwrap().to_owned(), content);
    drop(most_m);
    drop(tiny_m);
    assert_eq!(mapped.to_str().unwrap().to_owned(), content);
}

/// The fuse caveat, pinned concretely: both arguments lie in
/// `L(fuse ' ' concat)` (Definition B.1 is per-string), yet evaluation
/// fails because their space counts differ — the equal-count side
/// condition the paper derives only implicitly (Lemma B.3).
#[test]
fn fuse_domain_membership_does_not_imply_evaluation_success() {
    let op = Combiner::Rec(RecOp::Fuse(Delim::Space, Box::new(RecOp::Concat)));
    let y1 = "a b\n"; // one space: two fuse segments
    let y2 = "x y z\n"; // two spaces: three fuse segments
    assert!(kq_dsl::domain::in_domain(&op, y1.as_bytes()));
    assert!(kq_dsl::domain::in_domain(&op, y2.as_bytes()));
    assert!(eval(&op, y1.as_bytes(), y2.as_bytes(), &NoRunEnv).is_err());
    // With matching counts the evaluation succeeds as B.1 promises:
    // piecewise concat of ["a", "b\n"] and ["x", "y\n"], re-joined by ' '.
    assert_eq!(
        eval(&op, b"a b\n", b"x y\n", &NoRunEnv).unwrap(),
        "ax b\ny\n"
    );
}

proptest! {
    /// The evaluator is a total function modulo `Result`: arbitrary
    /// combiners applied to arbitrary strings either produce a value or a
    /// domain error — never a panic, never an infinite loop.
    #[test]
    fn eval_never_panics(
        op in any_combiner(),
        y1 in ".{0,40}",
        y2 in ".{0,40}",
    ) {
        let _ = eval(&op, y1.as_bytes(), y2.as_bytes(), &NoRunEnv);
    }

    /// Evaluation succeeds when both arguments are in the combiner's
    /// legal domain `L(g)` (Definition B.1) — with the fuse caveat the
    /// paper leaves implicit: `L(fuse d b)` is a per-string predicate, but
    /// the Figure 6 fuse rules additionally require the two arguments to
    /// carry the *same* delimiter count (the paper derives that equality
    /// from evaluation success in Lemma B.3, so Definition B.1's "for any
    /// y1, y2 ∈ L(g), the evaluation succeeds" is loose for fuse). This
    /// property pins the honest statement; EXPERIMENTS.md records the
    /// nuance.
    #[test]
    fn eval_succeeds_on_domain_members(
        op in any_combiner(),
        y1 in "[a-z0-9 \t\n,]{1,30}\n",
        y2 in "[a-z0-9 \t\n,]{1,30}\n",
    ) {
        let in_domain = kq_dsl::domain::in_domain(&op, y1.as_bytes())
            && kq_dsl::domain::in_domain(&op, y2.as_bytes());
        let result = eval(&op, y1.as_bytes(), y2.as_bytes(), &NoRunEnv);
        if in_domain && !contains_fuse(&op) {
            prop_assert!(
                result.is_ok(),
                "op {op:?} rejected domain members {y1:?} / {y2:?}: {result:?}"
            );
        }
    }

    /// Native k-way combining against the pairwise reference: for
    /// associative-on-adjacent-pieces combiners (everything the corpus
    /// synthesizes), `combine_all` — native `concat`, a tree fold for the
    /// rest — agrees byte for byte with folding the binary combiner left
    /// over piece lists produced by splitting a stream.
    #[test]
    fn combine_strategies_agree_on_split_pieces(
        lines in proptest::collection::vec("[a-c]{1,3}", 1..24),
        k in 2usize..7,
    ) {
        let stream: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let pieces: Vec<kq_stream::Bytes> = kq_stream::Bytes::from(stream.as_str()).split_stream(k);
        for cand in [
            Candidate::rec(RecOp::Concat),
            Candidate::structural(StructOp::Stitch(RecOp::First)),
        ] {
            let flat = combine_all(&cand, &pieces, &NoRunEnv)
                .map(|b| b.to_str().unwrap().to_owned())
                .map_err(|e| e.to_string());
            prop_assert_eq!(&flat, &fold_pairwise(&cand, &pieces), "{} pairwise", &cand);
        }
    }

    /// Shell quoting round-trips through the shell-words splitter for any
    /// printable word: `split_words(quote_sh(w)) == [w]`.
    #[test]
    fn quote_sh_round_trips(word in "[ -~]{1,24}") {
        let quoted = kq_cli::quote_sh(&word);
        let words = split_words(&quoted).expect("quoted word must re-split");
        prop_assert_eq!(words, vec![word]);
    }

    /// The CLI argument parser never panics, whatever the argv.
    #[test]
    fn cli_args_never_panic(argv in proptest::collection::vec("[ -~]{0,12}", 0..8)) {
        let _ = kq_cli::args::ParsedArgs::parse(&argv);
    }

    /// Chunk splitting partitions the input exactly and cuts only at line
    /// boundaries, for both the borrowed `&str` splitter and the zero-copy
    /// `Bytes` splitter — and the two agree chunk for chunk. Exercises
    /// pathological targets (0, tiny, larger than the input) and inputs
    /// with and without a trailing newline.
    #[test]
    fn split_chunks_partitions_and_aligns(
        lines in proptest::collection::vec("[a-z]{0,10}", 0..40),
        target in 0usize..96,
        terminated in 0u8..2,
    ) {
        let mut input: String = lines.iter().map(|l| format!("{l}\n")).collect();
        if terminated == 0 {
            // Drop the final newline to exercise the unterminated tail.
            input.pop();
        }
        let chunks = kq_stream::split_chunks(&input, target);
        // Exact partition.
        prop_assert_eq!(chunks.concat(), input.clone());
        if !input.is_empty() {
            prop_assert!(!chunks.is_empty(), "non-empty input must chunk");
        }
        // Line alignment: every boundary between adjacent chunks falls
        // just after a newline.
        for c in &chunks[..chunks.len().saturating_sub(1)] {
            prop_assert!(c.ends_with('\n'), "interior chunk {c:?} not line-aligned");
        }
        // The zero-copy splitter agrees chunk for chunk and shares the
        // source buffer.
        let owned = kq_stream::Bytes::from(input.as_str());
        let byte_chunks = owned.split_chunks(target);
        prop_assert_eq!(chunks.len(), byte_chunks.len());
        for (a, b) in chunks.iter().zip(&byte_chunks) {
            prop_assert_eq!(*a, b.to_str().unwrap());
            prop_assert!(b.shares_buffer(&owned), "chunk copied instead of sliced");
        }
    }

    /// The incremental chunker's contract, for arbitrary segmentations of
    /// arbitrary line material and arbitrary targets: (1) concatenating
    /// every yielded chunk reproduces the concatenated input exactly;
    /// (2) every chunk boundary is line-aligned (all but the final chunk
    /// end with '\n', and the final chunk is unterminated only when the
    /// input is); (3) no chunk exceeds the target unless a single line
    /// forces it — the bytes past the target contain no interior newline.
    #[test]
    fn incremental_chunker_partitions_and_aligns(
        segments in proptest::collection::vec("[a-z\n]{0,24}", 0..12),
        target in 1usize..48,
        terminated in 0u8..2,
    ) {
        let mut input: String = segments.concat();
        if terminated == 1 && !input.ends_with('\n') {
            input.push('\n');
        }
        // Re-segment the (possibly adjusted) input at arbitrary points so
        // pushed segments need not be line-aligned.
        let mut chunker = kq_stream::IncrementalChunker::new(target);
        let mut chunks = Vec::new();
        let mut rest = input.as_str();
        for seg in &segments {
            let take = seg.len().min(rest.len());
            let (head, tail) = rest.split_at(take);
            rest = tail;
            chunks.extend(chunker.push(kq_stream::Bytes::from(head)));
        }
        chunks.extend(chunker.push(kq_stream::Bytes::from(rest)));
        chunks.extend(chunker.finish());

        // (1) Exact partition.
        let rebuilt: String = chunks.iter().map(|c| c.to_str().unwrap().to_owned()).collect();
        prop_assert_eq!(rebuilt, input.clone());
        // (2) Line-aligned boundaries.
        for c in &chunks[..chunks.len().saturating_sub(1)] {
            prop_assert!(c.ends_with_newline(), "interior chunk {c:?} not line-aligned");
        }
        if let Some(last) = chunks.last() {
            prop_assert_eq!(last.ends_with_newline(), input.ends_with('\n'));
        }
        // (3) Oversize only from a single long line.
        for c in &chunks {
            if c.len() > target {
                let overflow = &c.as_bytes()[target - 1..c.len() - 1];
                prop_assert!(
                    !overflow.contains(&b'\n'),
                    "chunk {c:?} exceeds target {target} without a forcing line"
                );
            }
            prop_assert!(!c.is_empty(), "chunker must not emit empty chunks");
        }
    }

    /// Backing-store transparency: for arbitrary line material (with and
    /// without a trailing newline), a heap-backed and an mmap-backed
    /// `Bytes` over the same content are indistinguishable through the
    /// whole observable surface — equality, `split_stream`,
    /// `split_chunks`, `compact()`, and `into_string` — and mapped pieces
    /// are still zero-copy slices of the map.
    #[cfg(unix)]
    #[test]
    fn heap_and_mmap_backings_behave_identically(
        lines in proptest::collection::vec("[a-z]{0,12}", 0..30),
        k in 1usize..8,
        target in 1usize..64,
        terminated in 0u8..2,
    ) {
        let mut input: String = lines.iter().map(|l| format!("{l}\n")).collect();
        if terminated == 0 {
            input.pop();
        }
        let heap = kq_stream::Bytes::from(input.as_str());
        let mapped = mmap_bytes(&input, "equiv");
        prop_assert_eq!(&heap, &mapped);
        if !input.is_empty() {
            prop_assert!(mapped.is_mmap_backed(), "non-empty forced map");
        }

        let hp = heap.split_stream(k);
        let mp = mapped.split_stream(k);
        prop_assert_eq!(hp.len(), mp.len());
        for (a, b) in hp.iter().zip(&mp) {
            prop_assert_eq!(a, b);
            prop_assert!(b.shares_buffer(&mapped), "mapped piece copied");
        }

        let hc = heap.split_chunks(target);
        let mc = mapped.split_chunks(target);
        prop_assert_eq!(hc.len(), mc.len());
        for (a, b) in hc.iter().zip(&mc) {
            prop_assert_eq!(a, b);
            let (ca, cb) = (a.clone().compact(), b.clone().compact());
            prop_assert_eq!(ca, cb);
        }

        prop_assert_eq!(heap.to_str().unwrap().to_owned(), mapped.clone().to_str().unwrap().to_owned());
        // And once more as the sole surviving reference (unmap path).
        drop(mp);
        drop(mc);
        prop_assert_eq!(mapped.to_str().unwrap().to_owned(), input);
    }

    /// Same partition/alignment contract for the k-way stream splitter,
    /// plus the piece-count bound.
    #[test]
    fn split_stream_partitions_and_aligns(
        lines in proptest::collection::vec("[a-z]{0,10}", 0..40),
        k in 1usize..12,
    ) {
        let input: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let pieces = kq_stream::split_stream(&input, k);
        prop_assert_eq!(pieces.concat(), input.clone());
        prop_assert!(pieces.len() <= k);
        for p in &pieces {
            prop_assert!(p.ends_with('\n'));
        }
        let owned = kq_stream::Bytes::from(input.as_str());
        let byte_pieces = owned.split_stream(k);
        prop_assert_eq!(pieces.len(), byte_pieces.len());
        for (a, b) in pieces.iter().zip(&byte_pieces) {
            prop_assert_eq!(*a, b.to_str().unwrap());
            prop_assert!(b.shares_buffer(&owned), "piece copied instead of sliced");
        }
    }
}
