//! # lcbloom — Language Classification using N-grams Accelerated by
//! FPGA-based Bloom Filters
//!
//! A Rust reproduction of Jacob & Gokhale (HPRCTA'07): an end-to-end n-gram
//! language classifier whose membership tests run in Parallel Bloom Filters,
//! together with a simulator of the XtremeData XD1000 platform the paper
//! deployed on, the HAIL and Mguesser baselines it compares against, and a
//! benchmark harness that regenerates every table and figure of the paper's
//! evaluation.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`hash`] | `lc-hash` | H3 hardware hash family |
//! | [`ngram`] | `lc-ngram` | alphabet folding, n-gram extraction, profiles |
//! | [`bloom`] | `lc-bloom` | classic + Parallel Bloom Filters, FP analytics |
//! | [`corpus`] | `lc-corpus` | synthetic JRC-Acquis stand-in corpus |
//! | [`core`] | `lc-core` | multi-language classifier, evaluation harness |
//! | [`fpga`] | `lc-fpga` | XD1000 simulator: resources, link, protocol |
//! | [`hail`] | `lc-hail` | HAIL baseline (direct lookup in off-chip SRAM) |
//! | [`mguesser`] | `lc-mguesser` | Cavnar–Trenkle software baseline |
//!
//! ## Quickstart
//!
//! ```
//! use lcbloom::prelude::*;
//!
//! // Generate a small synthetic multilingual corpus (10 languages).
//! let corpus = Corpus::generate(CorpusConfig::test_scale());
//!
//! // Train the paper's classifier: 4-grams, top-t profiles, Bloom
//! // filters with k = 4 hash functions over 16 Kbit vectors.
//! let classifier = lcbloom::train_bloom_classifier(
//!     &corpus,
//!     1000,                              // profile size (paper: 5000)
//!     BloomParams::PAPER_CONSERVATIVE,   // (m, k) = (16 Kbit, 4)
//!     42,                                // hash seed
//! );
//!
//! // Classify a test document.
//! let doc = corpus.split().test(Language::French).next().unwrap();
//! assert_eq!(classifier.identify(&doc.text), "fr");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lc_bloom as bloom;
pub use lc_core as core;
pub use lc_corpus as corpus;
pub use lc_fpga as fpga;
pub use lc_hail as hail;
pub use lc_hash as hash;
pub use lc_mguesser as mguesser;
pub use lc_ngram as ngram;
pub use lc_service as service;
pub use lc_wire as wire;

pub mod profile_store;

/// Commonly used types in one import.
pub mod prelude {
    pub use lc_bloom::{BloomParams, ClassicBloomFilter, ParallelBloomFilter};
    pub use lc_core::{
        classify_batch, ClassificationResult, ClassifierBuilder, ConfusionMatrix, ExactClassifier,
        MultiLanguageClassifier, ParallelClassifier, StreamingSession,
    };
    pub use lc_corpus::{Corpus, CorpusConfig, Document, Language};
    pub use lc_fpga::{
        ClassifierConfig, HardwareClassifier, HostProtocol, LinkModel, Xd1000, EP2S180,
    };
    pub use lc_hail::{HailClassifier, SramModel, XCV2000E_SRAM};
    pub use lc_hash::{H3Family, HashFunction, SimdLevel, H3};
    pub use lc_mguesser::{CavnarTrenkle, HashSetClassifier};
    pub use lc_ngram::{NGram, NGramExtractor, NGramProfile, NGramSpec};
    pub use lc_service::{ClassifyClient, ServedResult, ServiceConfig};
}

use lc_bloom::BloomParams;
use lc_core::{ClassifierBuilder, ExactClassifier, MultiLanguageClassifier};
use lc_corpus::Corpus;
use lc_ngram::{NGramProfile, NGramSpec};

/// Train the paper's Bloom-filter classifier on a corpus' training split.
///
/// Convenience wrapper over [`lc_core::ClassifierBuilder`]: one language per
/// corpus language, 4-gram profiles of size `t`, all filters seeded from
/// `seed`.
pub fn train_bloom_classifier(
    corpus: &Corpus,
    t: usize,
    params: BloomParams,
    seed: u64,
) -> MultiLanguageClassifier {
    builder_for(corpus, t).build_bloom(params, seed)
}

/// Train the exact (direct-lookup) classifier on the same split — the
/// false-positive-free reference.
pub fn train_exact_classifier(corpus: &Corpus, t: usize) -> ExactClassifier {
    builder_for(corpus, t).build_exact()
}

/// Train named profiles for the baselines (`lc-hail`, `lc-mguesser`).
pub fn train_profiles(corpus: &Corpus, t: usize) -> Vec<(String, NGramProfile)> {
    let split = corpus.split();
    corpus
        .languages()
        .iter()
        .map(|&l| {
            let docs: Vec<&[u8]> = split.train(l).map(|d| d.text.as_slice()).collect();
            (
                l.code().to_string(),
                NGramProfile::build(NGramSpec::PAPER, docs, t),
            )
        })
        .collect()
}

fn builder_for(corpus: &Corpus, t: usize) -> ClassifierBuilder {
    let split = corpus.split();
    let mut b = ClassifierBuilder::new(NGramSpec::PAPER, t);
    for &l in corpus.languages() {
        let docs: Vec<&[u8]> = split.train(l).map(|d| d.text.as_slice()).collect();
        b.add_language(l.code(), docs);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_corpus::CorpusConfig;

    #[test]
    fn helpers_train_consistent_classifiers() {
        let corpus = Corpus::generate(CorpusConfig::test_scale());
        let bloom = train_bloom_classifier(&corpus, 500, BloomParams::PAPER_CONSERVATIVE, 1);
        let exact = train_exact_classifier(&corpus, 500);
        let profiles = train_profiles(&corpus, 500);
        assert_eq!(bloom.num_languages(), 10);
        assert_eq!(exact.num_languages(), 10);
        assert_eq!(profiles.len(), 10);
        assert_eq!(bloom.names(), exact.names());
    }
}
