//! Equivalence of the bit-sliced `FilterBank` classify path with the naive
//! per-language reference path, end to end through the public classifier
//! API: identical `ClassificationResult`s for arbitrary inputs, any
//! chunking, and language counts spanning every mask storage width and the
//! multi-word boundary (p ∈ {1, 8, 12, 20, 32, 64, 100}), and — at
//! p ∈ {8, 12, 20} — address widths from 6 to 18 bits with k ∈ {1, 4, 6, 8}.
//!
//! On hosts with AVX2 the bank builds its vector probe engine, so every
//! property here also pins avx2 == naive; the `forced_scalar_*` properties
//! compare the two dispatch paths against each other explicitly, and CI
//! runs the whole suite a second time under `LC_FORCE_SCALAR=1`.

use lcbloom::ngram::NGramExtractor;
use lcbloom::prelude::*;
use proptest::prelude::*;

/// Deterministic pseudo-text so profiles differ per language without
/// needing a real corpus: a language-seeded LCG over the Latin-1 range.
fn synthetic_doc(lang: usize, bytes: usize) -> Vec<u8> {
    let mut state = (lang as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..bytes)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mostly letters with some spaces, so extraction finds words.
            let v = (state >> 33) as u8;
            if v.is_multiple_of(7) {
                b' '
            } else {
                b'a' + (v % 26)
            }
        })
        .collect()
}

/// A classifier over `p` synthetic languages. Small vectors (m = 1 Kbit)
/// keep false positives frequent — the regime where the banked and naive
/// paths could plausibly diverge.
fn synthetic_classifier(p: usize) -> MultiLanguageClassifier {
    let mut b = ClassifierBuilder::new(NGramSpec::PAPER, 400);
    for lang in 0..p {
        b.add_language(format!("l{lang}"), [synthetic_doc(lang, 4000).as_slice()]);
    }
    b.build_bloom(BloomParams::from_kbits(1, 3), 1234)
}

fn classifier_for(p: usize) -> &'static MultiLanguageClassifier {
    // One shared instance per boundary-interesting p (100 crosses the
    // 64-language single-word mask limit).
    static BANKS: std::sync::OnceLock<Vec<(usize, MultiLanguageClassifier)>> =
        std::sync::OnceLock::new();
    let banks = BANKS.get_or_init(|| {
        [1usize, 8, 12, 20, 32, 64, 100]
            .into_iter()
            .map(|p| (p, synthetic_classifier(p)))
            .collect()
    });
    &banks.iter().find(|(n, _)| *n == p).expect("known p").1
}

/// Profiles for `p` synthetic languages, trained once per `p` so the
/// address-width property can build banks of any shape from them.
fn builder_for(p: usize) -> &'static ClassifierBuilder {
    static BUILDERS: std::sync::OnceLock<Vec<(usize, ClassifierBuilder)>> =
        std::sync::OnceLock::new();
    let builders = BUILDERS.get_or_init(|| {
        ADDRESS_WIDTH_PS
            .into_iter()
            .map(|p| {
                let mut b = ClassifierBuilder::new(NGramSpec::PAPER, 400);
                for lang in 0..p {
                    b.add_language(format!("l{lang}"), [synthetic_doc(lang, 4000).as_slice()]);
                }
                (p, b)
            })
            .collect()
    });
    &builders.iter().find(|(n, _)| *n == p).expect("known p").1
}

/// Language counts of the address-width property: one per narrow mask
/// width (u8, u16, u32 rows).
const ADDRESS_WIDTH_PS: [usize; 3] = [8, 12, 20];

/// Strategy choosing a language count on each side of the u64 mask boundary.
fn any_p() -> impl Strategy<Value = usize> {
    PStrategy
}

#[derive(Clone, Copy, Debug)]
struct PStrategy;

impl Strategy for PStrategy {
    type Value = usize;

    fn sample(&self, rng: &mut proptest::TestRng) -> usize {
        [1usize, 8, 12, 20, 32, 64, 100][(rng.next_u64() % 7) as usize]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Banked and naive classification agree exactly on arbitrary documents
    /// for every language count, including p > 64 (multi-word masks).
    #[test]
    fn banked_equals_naive_for_arbitrary_documents(
        p in any_p(),
        doc in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        let c = classifier_for(p);
        let mut grams = Vec::new();
        NGramExtractor::new(c.spec()).extract_into(&doc, &mut grams);
        prop_assert_eq!(c.classify_ngrams(&grams), c.classify_ngrams_naive(&grams));
    }

    /// The subsampled extractor path feeds the same bank: banked == naive on
    /// whatever gram stream subsampling produces.
    #[test]
    fn banked_equals_naive_under_subsampling(
        p in any_p(),
        s in 1usize..=6,
        doc in proptest::collection::vec(any::<u8>(), 0..1200),
    ) {
        let c = classifier_for(p);
        let mut grams = Vec::new();
        lcbloom::ngram::NGramExtractor::with_subsampling(c.spec(), s)
            .extract_into(&doc, &mut grams);
        prop_assert_eq!(c.classify_ngrams(&grams), c.classify_ngrams_naive(&grams));

        // And end-to-end: a subsampling classifier still matches the naive
        // path over its own extracted stream.
        let mut sub = c.clone();
        sub.set_subsampling(s);
        let banked = sub.classify(&doc);
        prop_assert_eq!(banked, sub.classify_ngrams_naive(&grams));
    }

    /// The fused streaming path (extraction folded into the bank probe)
    /// equals the two-phase reference (extract to a Vec, then probe the
    /// pre-extracted stream) for any chunking and any sub-sampling factor,
    /// at every language count / mask width.
    #[test]
    fn fused_streaming_equals_two_phase(
        p in any_p(),
        s in 1usize..=4,
        doc in proptest::collection::vec(any::<u8>(), 0..900),
        cuts in proptest::collection::vec(0usize..900, 0..5),
    ) {
        let mut sub = classifier_for(p).clone();
        sub.set_subsampling(s);
        let mut cut_points: Vec<usize> = cuts.into_iter().map(|x| x % (doc.len() + 1)).collect();
        cut_points.push(0);
        cut_points.push(doc.len());
        cut_points.sort_unstable();
        cut_points.dedup();

        // Fused: bytes stream through the shift register straight into the
        // bank, across arbitrary chunk boundaries.
        let mut sess = StreamingSession::new(&sub);
        for w in cut_points.windows(2) {
            sess.feed(&sub, &doc[w[0]..w[1]]);
        }
        let fused = sess.finish();

        // Two-phase: materialize the sub-sampled gram stream, then probe.
        let grams = NGramExtractor::with_subsampling(sub.spec(), s).extract(&doc);
        prop_assert_eq!(&fused, &sub.classify_ngrams(&grams));
        prop_assert_eq!(&fused, &sub.classify(&doc));
        prop_assert_eq!(fused, sub.classify_ngrams_naive(&grams));
    }

    /// Streaming (banked) equals whole-buffer (banked) equals naive, for any
    /// chunking of any document, at every language count.
    #[test]
    fn streaming_banked_equals_naive_any_chunking(
        p in any_p(),
        doc in proptest::collection::vec(any::<u8>(), 0..900),
        cuts in proptest::collection::vec(0usize..900, 0..5),
    ) {
        let c = classifier_for(p);
        let mut cut_points: Vec<usize> = cuts.into_iter().map(|x| x % (doc.len() + 1)).collect();
        cut_points.push(0);
        cut_points.push(doc.len());
        cut_points.sort_unstable();
        cut_points.dedup();

        let mut s = StreamingSession::new(c);
        for w in cut_points.windows(2) {
            s.feed(c, &doc[w[0]..w[1]]);
        }
        let streamed = s.finish();

        let mut grams = Vec::new();
        NGramExtractor::new(c.spec()).extract_into(&doc, &mut grams);
        prop_assert_eq!(&streamed, &c.classify(&doc));
        prop_assert_eq!(streamed, c.classify_ngrams_naive(&grams));
    }

    /// The runtime-dispatched probe path (AVX2 where the host has it) and
    /// the forced-scalar path agree exactly — and both equal naive — for
    /// any document, any chunking (splits land mid-SIMD-block and mid
    /// n-gram window), any sub-sampling factor s ∈ 1..=4, at every mask
    /// width including the u32-row boundary (p = 32).
    #[test]
    fn forced_scalar_equals_auto_dispatch(
        p in any_p(),
        s in 1usize..=4,
        doc in proptest::collection::vec(any::<u8>(), 0..900),
        cuts in proptest::collection::vec(0usize..900, 0..5),
    ) {
        let mut auto = classifier_for(p).clone();
        auto.set_subsampling(s);
        let mut scalar = auto.clone();
        scalar.set_force_scalar(true);

        let mut cut_points: Vec<usize> = cuts.into_iter().map(|x| x % (doc.len() + 1)).collect();
        cut_points.push(0);
        cut_points.push(doc.len());
        cut_points.sort_unstable();
        cut_points.dedup();

        let run = |c: &MultiLanguageClassifier| {
            let mut sess = StreamingSession::new(c);
            for w in cut_points.windows(2) {
                sess.feed(c, &doc[w[0]..w[1]]);
            }
            sess.finish()
        };
        let auto_res = run(&auto);
        prop_assert_eq!(&auto_res, &run(&scalar));
        let grams = NGramExtractor::with_subsampling(auto.spec(), s).extract(&doc);
        prop_assert_eq!(auto_res, auto.classify_ngrams_naive(&grams));
    }

    /// Identical bytes at different buffer offsets classify identically:
    /// the blocked extractor and gather-based probe may not depend on the
    /// document's alignment in memory.
    #[test]
    fn classification_is_alignment_invariant(
        p in any_p(),
        off in 0usize..16,
        doc in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let c = classifier_for(p);
        let mut padded = vec![0u8; off];
        padded.extend_from_slice(&doc);
        prop_assert_eq!(c.classify(&padded[off..]), c.classify(&doc));
    }

    /// Banked == naive across address widths and hash counts, not only the
    /// 10-bit, k = 3 banks above: every nibble-table address byte count
    /// the vector hash produces (6 to 18 address bits) and k on both sides
    /// of the paper's 4, for arbitrary documents and chunkings, at both
    /// dispatch levels.
    #[test]
    fn banked_equals_naive_across_address_widths(
        p_i in 0usize..3,
        bits_i in 0usize..4,
        k_i in 0usize..4,
        doc in proptest::collection::vec(any::<u8>(), 0..1500),
        cuts in proptest::collection::vec(0usize..1500, 0..5),
    ) {
        let p = ADDRESS_WIDTH_PS[p_i];
        let address_bits = [6u32, 10, 14, 18][bits_i];
        let k = [1usize, 4, 6, 8][k_i];
        let auto = builder_for(p).build_bloom(BloomParams::new(k, address_bits), 1234);
        let mut scalar = auto.clone();
        scalar.set_force_scalar(true);

        let mut cut_points: Vec<usize> = cuts.into_iter().map(|x| x % (doc.len() + 1)).collect();
        cut_points.push(0);
        cut_points.push(doc.len());
        cut_points.sort_unstable();
        cut_points.dedup();

        let grams = NGramExtractor::new(auto.spec()).extract(&doc);
        let naive = auto.classify_ngrams_naive(&grams);
        for c in [&auto, &scalar] {
            let mut sess = StreamingSession::new(c);
            for w in cut_points.windows(2) {
                sess.feed(c, &doc[w[0]..w[1]]);
            }
            let what = format!("p = {p}, m = 2^{address_bits}, k = {k}, {}", c.simd_level());
            prop_assert_eq!(&sess.finish(), &naive, "streamed, {}", what);
            prop_assert_eq!(&c.classify_ngrams(&grams), &naive, "pre-extracted, {}", what);
        }
    }

    /// The lane-split datapath model (which now strides the bank per lane)
    /// stays count-exact against naive classification.
    #[test]
    fn lane_split_banked_equals_naive(
        p in any_p(),
        copies in 1usize..5,
        doc in proptest::collection::vec(any::<u8>(), 0..900),
    ) {
        let c = classifier_for(p);
        let par = ParallelClassifier::new(c.clone(), copies);
        let mut grams = Vec::new();
        NGramExtractor::new(c.spec()).extract_into(&doc, &mut grams);
        prop_assert_eq!(par.classify(&doc), c.classify_ngrams_naive(&grams));
    }
}

/// Every gram-stream length through the first several 32-key blocks — in
/// particular tails not divisible by the block width — matches the naive
/// count on both dispatch paths.
#[test]
fn block_tail_lengths_match_naive() {
    for &p in &[8usize, 32, 64, 100] {
        let auto = classifier_for(p);
        let mut scalar = auto.clone();
        scalar.set_force_scalar(true);
        let doc = synthetic_doc(3, 160);
        let mut grams = Vec::new();
        NGramExtractor::new(auto.spec()).extract_into(&doc, &mut grams);
        assert!(grams.len() > 96, "need a few SIMD blocks' worth of grams");
        for len in 0..=grams.len().min(136) {
            let gs = &grams[..len];
            let naive = auto.classify_ngrams_naive(gs);
            assert_eq!(auto.classify_ngrams(gs), naive, "auto p={p} len={len}");
            assert_eq!(scalar.classify_ngrams(gs), naive, "scalar p={p} len={len}");
        }
    }
}

#[test]
fn bank_shape_reflects_language_count() {
    for (p, wpm) in [
        (1usize, 1usize),
        (8, 1),
        (12, 1),
        (20, 1),
        (32, 1),
        (64, 1),
        (100, 2),
    ] {
        let c = classifier_for(p);
        assert_eq!(c.bank().languages(), p);
        assert_eq!(c.bank().words_per_mask(), wpm);
    }
}
