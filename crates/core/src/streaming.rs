//! Incremental (streaming) classification.
//!
//! The hardware never sees a whole document at once: DMA delivers 64-bit
//! words and the match counters accumulate as n-grams emerge from the shift
//! register, until End-of-Document latches the result. This module gives the
//! software library the same shape: feed chunks of any size, read partial
//! standings at any point, and `finish` for the final result. Output is
//! bit-identical to whole-buffer classification for any chunking (property
//! tested).

use lc_bloom::{KeyBlockSink, KeySource};
use lc_ngram::{GramBlockSink, NGram, StreamingExtractor};

use crate::classifier::MultiLanguageClassifier;
use crate::result::ClassificationResult;

/// [`KeySource`] adapter fusing one chunk's n-gram extraction into the
/// bank probe: `for_each_key` runs [`StreamingExtractor::feed_with`], so
/// the byte-fold/shift/phase state machine inlines into the bank's
/// monomorphized probe loop — extraction and classification in one pass,
/// no `NGram` buffer in between. Shared by whole-buffer
/// [`MultiLanguageClassifier::classify`] (one chunk = the document) and
/// [`StreamingSession::feed`].
pub(crate) struct FusedChunk<'a> {
    pub extractor: &'a mut StreamingExtractor,
    pub chunk: &'a [u8],
}

// The extractor's block width and the bank's SIMD block width were chosen
// to match (32 grams, one per byte lane of the probe's vpshufb hash); the
// zero-repacking override below relies on it.
const _: () = assert!(lc_ngram::BLOCK_LANES == lc_bloom::KEY_BLOCK_LANES);

impl KeySource for FusedChunk<'_> {
    #[inline]
    fn for_each_key(self, mut sink: impl FnMut(u64)) {
        self.extractor.feed_with(self.chunk, |g| sink(g.value()));
    }

    /// Block-native override: the blocked extractor already produces packed
    /// 32-gram blocks, so they flow to the bank's vector probe without
    /// any repacking; warm-up bytes and tails shorter than a block arrive
    /// on the scalar `key` path. Packed grams are at most `spec.bits()`
    /// wide and the classifier builds its hash family at exactly that input
    /// width, so block lanes never exceed `key_mask`.
    #[inline]
    fn for_each_key_block(self, key_mask: u64, sink: &mut impl KeyBlockSink) {
        struct Adapter<'s, S: KeyBlockSink> {
            sink: &'s mut S,
            key_mask: u64,
        }
        impl<S: KeyBlockSink> GramBlockSink for Adapter<'_, S> {
            #[inline]
            fn block(&mut self, grams: &[u32; lc_ngram::BLOCK_LANES]) {
                self.sink.block(grams);
            }
            #[inline]
            fn gram(&mut self, gram: NGram) {
                self.sink.key(gram.value() & self.key_mask);
            }
        }
        self.extractor
            .feed_blocks(self.chunk, &mut Adapter { sink, key_mask });
    }
}

/// The per-document state of a streaming session, held separately from the
/// classifier reference so long-lived owners (a server worker holding an
/// `Arc<MultiLanguageClassifier>`, one session per connection) need no
/// self-referential borrow. Every call that probes takes the classifier
/// explicitly.
#[derive(Clone, Debug)]
pub struct StreamingSession {
    extractor: StreamingExtractor,
    counts: Vec<u64>,
}

impl StreamingSession {
    /// Start a session shaped for `classifier`: its n-gram spec, language
    /// count, **and** sub-sampling factor. Inheriting the full extraction
    /// config here is what keeps chunked classification bit-identical to
    /// whole-buffer `classify` on a sub-sampled classifier — the session
    /// cannot silently run at a different factor than its classifier.
    pub fn new(classifier: &MultiLanguageClassifier) -> Self {
        Self {
            extractor: classifier.streaming_extractor(),
            counts: vec![0u64; classifier.num_languages()],
        }
    }

    /// Feed the next chunk of the document (any size, including empty).
    /// Matches accumulate through the classifier's bit-sliced bank on the
    /// fused path — each byte is folded, shifted, sub-sampled, hashed, and
    /// AND-probed in one loop, exactly as whole-buffer classification
    /// does. `classifier` must be the one the session was created for
    /// (checked in debug builds).
    pub fn feed(&mut self, classifier: &MultiLanguageClassifier, chunk: &[u8]) {
        debug_assert_eq!(self.counts.len(), classifier.num_languages());
        debug_assert_eq!(
            self.extractor.spec(),
            classifier.spec(),
            "session fed with a different classifier than it was created for"
        );
        debug_assert_eq!(
            self.extractor.subsample(),
            classifier.subsample(),
            "session fed with a classifier whose sub-sampling changed"
        );
        classifier.bank().accumulate_source(
            FusedChunk {
                extractor: &mut self.extractor,
                chunk,
            },
            &mut self.counts,
        );
    }

    /// Current standings (partial counts) without ending the document —
    /// what a host would see reading the counters mid-stream.
    pub fn standings(&self) -> ClassificationResult {
        ClassificationResult::new(self.counts.clone(), self.extractor.grams_emitted() as u64)
    }

    /// Bytes consumed so far in this document.
    pub fn bytes_seen(&self) -> usize {
        self.extractor.chars_seen()
    }

    /// End the document and return the final result (the End-of-Document
    /// latch). The session resets and can be reused for the next document.
    pub fn finish(&mut self) -> ClassificationResult {
        let fresh = vec![0u64; self.counts.len()];
        let result = ClassificationResult::new(
            std::mem::replace(&mut self.counts, fresh),
            self.extractor.grams_emitted() as u64,
        );
        self.extractor.reset();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ClassifierBuilder;
    use lc_bloom::BloomParams;
    use lc_corpus::{Corpus, CorpusConfig};
    use lc_ngram::NGramSpec;
    use proptest::prelude::*;

    fn classifier() -> &'static MultiLanguageClassifier {
        classifier_s(1)
    }

    /// Shared classifiers at sub-sampling factors 1..=4 (trained once,
    /// cloned with the knob turned).
    fn classifier_s(s: usize) -> &'static MultiLanguageClassifier {
        static BY_S: std::sync::OnceLock<Vec<MultiLanguageClassifier>> = std::sync::OnceLock::new();
        &BY_S.get_or_init(|| {
            let base = build_classifier();
            (1..=4)
                .map(|s| {
                    let mut c = base.clone();
                    c.set_subsampling(s);
                    c
                })
                .collect()
        })[s - 1]
    }

    fn build_classifier() -> MultiLanguageClassifier {
        let corpus = Corpus::generate(CorpusConfig::test_scale());
        let split = corpus.split();
        let mut b = ClassifierBuilder::new(NGramSpec::PAPER, 800);
        for &l in corpus.languages() {
            let docs: Vec<&[u8]> = split.train(l).map(|d| d.text.as_slice()).collect();
            b.add_language(l.code(), docs);
        }
        b.build_bloom(BloomParams::PAPER_CONSERVATIVE, 3)
    }

    #[test]
    fn chunked_equals_whole_buffer() {
        let c = classifier();
        let corpus = Corpus::generate(CorpusConfig::test_scale());
        let mut s = StreamingSession::new(c);
        for d in corpus.split().test_all().take(8) {
            for chunk in d.text.chunks(8) {
                s.feed(c, chunk);
            }
            assert_eq!(s.finish(), c.classify(&d.text));
        }
    }

    #[test]
    fn standings_are_monotone_and_final() {
        let c = classifier();
        let mut s = StreamingSession::new(c);
        let doc =
            b"the committee shall deliver its opinion on the draft measures within a time limit";
        let mut prev_total = 0u64;
        for chunk in doc.chunks(10) {
            s.feed(c, chunk);
            let st = s.standings();
            assert!(st.total_ngrams() >= prev_total);
            prev_total = st.total_ngrams();
        }
        let final_result = s.finish();
        assert_eq!(final_result, c.classify(doc));
    }

    #[test]
    fn session_reuse_is_clean() {
        let c = classifier();
        let mut s = StreamingSession::new(c);
        s.feed(c, b"le premier document francais avec quelques mots");
        let first = s.finish();
        s.feed(c, b"the second document in english with other words");
        let second = s.finish();
        assert_eq!(
            first,
            c.classify(b"le premier document francais avec quelques mots")
        );
        assert_eq!(
            second,
            c.classify(b"the second document in english with other words")
        );
    }

    #[test]
    fn empty_feeds_are_harmless() {
        let c = classifier();
        let mut s = StreamingSession::new(c);
        s.feed(c, b"");
        s.feed(c, b"abcdef");
        s.feed(c, b"");
        assert_eq!(s.finish(), c.classify(b"abcdef"));
    }

    /// The seed bug, pinned: a streaming session over a sub-sampled
    /// classifier must inherit the factor, so chunked output equals
    /// whole-buffer output — and the factor visibly thinned the stream.
    #[test]
    fn streaming_inherits_subsampling() {
        let doc: &[u8] = b"the committee shall deliver its opinion on the draft measures \
                           within a time limit which the chairman may lay down";
        let full = classifier().classify(doc);
        for s in [2usize, 3] {
            let c = classifier_s(s);
            assert_eq!(c.subsample(), s);
            let mut sess = StreamingSession::new(c);
            for chunk in doc.chunks(7) {
                sess.feed(c, chunk);
            }
            let streamed = sess.finish();
            assert_eq!(streamed, c.classify(doc), "s={s}");
            assert!(
                streamed.total_ngrams() <= full.total_ngrams() / s as u64 + 1,
                "s={s}: sub-sampling did not thin the stream \
                 ({} vs {} n-grams)",
                streamed.total_ngrams(),
                full.total_ngrams(),
            );
        }
    }

    proptest! {
        /// Chunked streaming equals whole-buffer classification, and the
        /// probe of the pre-extracted gram stream, for any chunking at every
        /// sub-sampling factor 1..=4, end to end through StreamingSession
        /// (not just the raw extractor).
        #[test]
        fn any_chunking_is_equivalent(
            doc in proptest::collection::vec(any::<u8>(), 0..400),
            cuts in proptest::collection::vec(0usize..400, 0..6),
            s in 1usize..=4,
        ) {
            let c = classifier_s(s);
            let mut cut_points: Vec<usize> =
                cuts.into_iter().map(|x| x % (doc.len() + 1)).collect();
            cut_points.push(0);
            cut_points.push(doc.len());
            cut_points.sort_unstable();
            cut_points.dedup();

            let mut sess = StreamingSession::new(c);
            for w in cut_points.windows(2) {
                sess.feed(c, &doc[w[0]..w[1]]);
            }
            let streamed = sess.finish();
            prop_assert_eq!(&streamed, &c.classify_ngrams(&c.extractor().extract(&doc)));
            prop_assert_eq!(streamed, c.classify(&doc));
        }
    }
}
