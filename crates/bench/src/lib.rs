//! # lc-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation section:
//!
//! | binary | regenerates | paper reference |
//! |---|---|---|
//! | `table1` | accuracy vs Bloom parameters | Table 1, §5.1–5.2 |
//! | `table2` | module resource utilization | Table 2, §5.2 |
//! | `table3` | full-device utilization | Table 3, §5.3 |
//! | `table4` | throughput comparison (Mguesser / HAIL / Bloom) | Table 4, §5.5 |
//! | `figure4` | per-language throughput, sync vs async | Figure 4, §5.4 |
//! | `peak_rate` | 1.4 GB/s peak and 378 MB/s amortization | §5.4 text |
//! | `ablation_hash` | H3 vs multiplicative hashing | design choice |
//! | `ablation_subsample` | n-gram sub-sampling factor | §3.3/§5.2 option |
//! | `ablation_profile` | profile size t sweep | §4 choice of t=5000 |
//! | `ablation_ngram` | n-gram length sweep | §1/§4 choice of n=4 |
//! | `ablation_copies` | classifier copies (n-grams/clock) | §3.3 scalability |
//!
//! Criterion benches (`cargo bench -p lc-bench`) measure the software hot
//! paths: extraction, Bloom programming/testing, end-to-end classification,
//! and the baselines.
//!
//! Environment knobs (all binaries): `LC_BENCH_DOCS` overrides documents per
//! language, `LC_BENCH_DOC_BYTES` the mean document size — use to scale
//! towards the paper's full corpus when time permits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lc_bloom::BloomParams;
use lc_core::{ClassifierBuilder, EvalSummary, MultiLanguageClassifier};
use lc_corpus::{Corpus, CorpusConfig, Language};
use lc_ngram::{NGram, NGramExtractor, NGramProfile, NGramSpec};

/// The naive-vs-banked classify comparison workload: the paper's 8-language
/// × (k = 4, m = 16 Kbit) configuration with every test document's n-gram
/// stream pre-extracted, so measured loops compare pure membership-test
/// throughput. Shared by the criterion bench and the `bench_classify` JSON
/// emitter so both always measure the identical workload (same languages,
/// seed, profile size, and corpus shape).
pub struct ClassifyFixture {
    /// The trained classifier (8 languages, `PAPER_CONSERVATIVE` params).
    pub classifier: MultiLanguageClassifier,
    /// Bloom parameters used (k = 4, m = 16 Kbit).
    pub params: BloomParams,
    /// Profile size `t` used for training.
    pub profile_size: usize,
    /// Per test document: (byte length, pre-extracted n-grams).
    pub docs: Vec<(usize, Vec<NGram>)>,
    /// The raw document bytes, for paths that measure extraction too
    /// (streamed classification).
    pub texts: Vec<Vec<u8>>,
}

impl ClassifyFixture {
    /// Build the paper-configuration fixture. Honors `LC_BENCH_DOCS` /
    /// `LC_BENCH_DOC_BYTES` like the experiment binaries.
    pub fn paper_8lang() -> Self {
        let params = BloomParams::PAPER_CONSERVATIVE;
        let profile_size = 5000;
        let corpus = Corpus::generate_for(
            &Language::ALL[..8],
            CorpusConfig {
                docs_per_language: docs_per_language(12),
                mean_doc_bytes: mean_doc_bytes(10 * 1024),
                ..CorpusConfig::default()
            },
        );
        let classifier = builder_for(&corpus, profile_size).build_bloom(params, 7);
        let extractor = NGramExtractor::new(classifier.spec());
        let texts: Vec<Vec<u8>> = corpus.split().test_all().map(|d| d.text.clone()).collect();
        let docs = texts
            .iter()
            .map(|text| {
                let mut grams = Vec::new();
                extractor.extract_into(text, &mut grams);
                (text.len(), grams)
            })
            .collect();
        Self {
            classifier,
            params,
            profile_size,
            docs,
            texts,
        }
    }

    /// Total payload bytes across the fixture's documents.
    pub fn total_bytes(&self) -> usize {
        self.docs.iter().map(|(len, _)| len).sum()
    }

    /// Total n-grams across the fixture's documents.
    pub fn total_ngrams(&self) -> usize {
        self.docs.iter().map(|(_, g)| g.len()).sum()
    }
}

/// Documents per language for experiment binaries (override with
/// `LC_BENCH_DOCS`).
pub fn docs_per_language(default: usize) -> usize {
    std::env::var("LC_BENCH_DOCS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Mean document bytes for experiment binaries (override with
/// `LC_BENCH_DOC_BYTES`).
pub fn mean_doc_bytes(default: usize) -> usize {
    std::env::var("LC_BENCH_DOC_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The corpus used by accuracy experiments: confusable-pair mixing enabled
/// so Bloom false positives have a measurable cost (see
/// `CorpusConfig::confusable_scale` and DESIGN.md §4).
pub fn accuracy_corpus() -> Corpus {
    let mut cfg = CorpusConfig::confusable_scale();
    cfg.docs_per_language = docs_per_language(cfg.docs_per_language);
    cfg.mean_doc_bytes = mean_doc_bytes(cfg.mean_doc_bytes);
    Corpus::generate(cfg)
}

/// The corpus used by throughput experiments: clean documents at the paper's
/// ~10 KB average.
pub fn throughput_corpus(docs_per_lang: usize) -> Corpus {
    Corpus::generate(CorpusConfig {
        docs_per_language: docs_per_language(docs_per_lang),
        mean_doc_bytes: mean_doc_bytes(10 * 1024),
        ..CorpusConfig::default()
    })
}

/// Train a classifier builder over a corpus' training split.
pub fn builder_for(corpus: &Corpus, t: usize) -> ClassifierBuilder {
    let split = corpus.split();
    let mut b = ClassifierBuilder::new(NGramSpec::PAPER, t);
    for &l in corpus.languages() {
        let docs: Vec<&[u8]> = split.train(l).map(|d| d.text.as_slice()).collect();
        b.add_language(l.code(), docs);
    }
    b
}

/// Train named profiles (for baselines).
pub fn profiles_for(corpus: &Corpus, t: usize) -> Vec<(String, NGramProfile)> {
    builder_for(corpus, t)
        .profiles()
        .iter()
        .map(|p| (p.name.clone(), p.profile.clone()))
        .collect()
}

/// Evaluate a Bloom classifier over the corpus' test split.
pub fn evaluate_classifier(corpus: &Corpus, classifier: &MultiLanguageClassifier) -> EvalSummary {
    let labels: Vec<String> = corpus
        .languages()
        .iter()
        .map(|l| l.code().to_string())
        .collect();
    let docs: Vec<(usize, &[u8])> = corpus
        .split()
        .test_all()
        .map(|d| (d.language.index(), d.text.as_slice()))
        .collect();
    lc_core::eval::evaluate(labels, &docs, |body| {
        let r = classifier.classify(body);
        (r.best(), r.margin())
    })
}

/// Train + evaluate one Bloom configuration; returns (summary, classifier).
pub fn run_accuracy_config(
    corpus: &Corpus,
    t: usize,
    params: BloomParams,
    seed: u64,
) -> (EvalSummary, MultiLanguageClassifier) {
    let classifier = builder_for(corpus, t).build_bloom(params, seed);
    let summary = evaluate_classifier(corpus, &classifier);
    (summary, classifier)
}

/// Pretty separator line for experiment output.
pub fn rule(title: &str) {
    println!("\n=== {title} ===");
}

/// Language label list in paper order.
pub fn language_labels() -> Vec<&'static str> {
    Language::ALL.iter().map(|l| l.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_overrides_parse() {
        // Without env vars set, defaults pass through.
        assert_eq!(docs_per_language(77), 77);
        assert_eq!(mean_doc_bytes(123), 123);
    }

    #[test]
    fn harness_smoke() {
        let corpus = throughput_corpus(5);
        let (summary, classifier) =
            run_accuracy_config(&corpus, 500, BloomParams::PAPER_CONSERVATIVE, 1);
        assert_eq!(classifier.num_languages(), 10);
        assert!(summary.confusion.accuracy() > 0.8);
    }
}
