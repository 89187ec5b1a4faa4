//! The three workloads, the inputs each generates from the seed, the timed
//! set-up (train + build), and the in-process reference every result is
//! checked against.

use lc_bloom::BloomParams;
use lc_core::{ClassifierBuilder, MultiLanguageClassifier, PAPER_PROFILE_SIZE};
use lc_corpus::{Corpus, CorpusConfig, Language};
use lc_ngram::NGramSpec;
use lc_wire::{pack_words, xor_checksum};

/// Confusable-pair contamination ceiling of every workload's test
/// documents, so accuracy sits below 1.
pub const CONFUSION_MIX: f64 = 0.5;

/// One workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Languages programmed into the bank.
    pub languages: &'static [Language],
    /// Bloom parameters (k, m).
    pub params: BloomParams,
    /// Mean test-document size in bytes (sizes vary ±50%).
    pub doc_bytes: usize,
    /// Test documents generated per language.
    pub test_docs_per_language: usize,
    /// Whether the end-to-end metrics come from the server (closed- and
    /// open-loop phases) rather than from in-process classification.
    pub served: bool,
    /// Open-loop offered rate of the traced run, in documents per second.
    pub open_rate: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    // The paper's engine (extract → H3 → probe → count) in-process: kernel
    // changes show undiluted; service changes should show nothing.
    Workload {
        name: "classify-paper10",
        languages: &Language::ALL,
        params: BloomParams::PAPER_CONSERVATIVE,
        doc_bytes: 10 * 1024,
        test_docs_per_language: 40,
        served: false,
        // Only the traced run serves this workload (for its server-layer
        // counters); the rate of serve-extended20, also ~10 KB documents.
        open_rate: 1_000.0,
    },
    // Short documents: per-document fixed costs of wire, reactor and
    // service dominate; classify work is a small share.
    Workload {
        name: "serve-snippets",
        languages: &Language::ALL,
        params: BloomParams::PAPER_CONSERVATIVE,
        doc_bytes: 512,
        test_docs_per_language: 400,
        served: true,
        // About a seventh of the ~58k docs/s closed-loop capacity. At a
        // third (20k docs/s) p50 read 60-82 µs against 52 µs here: the
        // backlog each 5-15 ms host stall leaves takes longer to drain.
        open_rate: 8_000.0,
    },
    // The §5.2 scalability configuration: classify dominates worker time,
    // and the bank runs 32-bit masks with k = 6.
    Workload {
        name: "serve-extended20",
        languages: &Language::EXTENDED,
        params: BloomParams::PAPER_COMPACT,
        doc_bytes: 10 * 1024,
        test_docs_per_language: 20,
        served: true,
        // About an eighth of the ~8.6k docs/s closed-loop capacity. At a
        // third, p50 read 190-220 µs while the host ran at full speed but
        // 690-970 µs once it ran at half speed: the backlog each 5-15 ms
        // host stall leaves behind then took too long to drain.
        open_rate: 1_000.0,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Training documents per language (10 KB each, never contaminated).
const TRAIN_DOCS_PER_LANGUAGE: usize = 10;
/// Mean training-document size: the paper's ~10 KB average.
const TRAIN_DOC_BYTES: usize = 10 * 1024;
/// Separates the test corpus' document streams from the training corpus'.
const TEST_SEED_SALT: u64 = 0x7E57_D0C5_0000_0001;

/// One test document with its ground truth.
pub struct TestDoc {
    /// ISO-8859-1 bytes.
    pub text: Vec<u8>,
    /// Index of the true language in the workload's language list.
    pub label: usize,
}

/// The inputs a seed generates for a workload.
pub struct Inputs {
    /// The corpus whose training split trains the profiles.
    pub train: Corpus,
    /// Test documents, interleaved across languages.
    pub docs: Vec<TestDoc>,
}

impl Inputs {
    /// Generate the training corpus and the test documents.
    pub fn generate(w: &Workload, seed: u64) -> Self {
        let train = Corpus::generate_for(
            w.languages,
            CorpusConfig {
                docs_per_language: TRAIN_DOCS_PER_LANGUAGE * 2,
                mean_doc_bytes: TRAIN_DOC_BYTES,
                train_fraction: 0.5,
                confusion_mix: CONFUSION_MIX,
                confusion_band: (0.0, 1.0),
                seed,
            },
        );
        // `train_fraction: 0.0` still reserves one (clean) document per
        // language; every other document is a contaminated test document.
        let test = Corpus::generate_for(
            w.languages,
            CorpusConfig {
                docs_per_language: w.test_docs_per_language + 1,
                mean_doc_bytes: w.doc_bytes,
                train_fraction: 0.0,
                confusion_mix: CONFUSION_MIX,
                confusion_band: (0.0, 1.0),
                seed: seed ^ TEST_SEED_SALT,
            },
        );
        let mut by_lang: Vec<Vec<TestDoc>> = w.languages.iter().map(|_| Vec::new()).collect();
        for d in test.split().test_all() {
            let label = w
                .languages
                .iter()
                .position(|&l| l == d.language)
                .expect("test language is a workload language");
            by_lang[label].push(TestDoc {
                text: d.text.clone(),
                label,
            });
        }
        // Interleave so any run of consecutive documents mixes languages.
        let mut docs = Vec::new();
        let mut iters: Vec<_> = by_lang.into_iter().map(Vec::into_iter).collect();
        loop {
            let before = docs.len();
            docs.extend(iters.iter_mut().filter_map(Iterator::next));
            if docs.len() == before {
                break;
            }
        }
        Self { train, docs }
    }

    /// Total bytes of the test documents.
    pub fn total_bytes(&self) -> usize {
        self.docs.iter().map(|d| d.text.len()).sum()
    }
}

/// Train one profile per language on the training split and program the
/// bank — the in-process part of `setup_s`.
pub fn train_and_build(w: &Workload, inputs: &Inputs, seed: u64) -> MultiLanguageClassifier {
    let split = inputs.train.split();
    let mut b = ClassifierBuilder::new(NGramSpec::PAPER, PAPER_PROFILE_SIZE);
    for &l in w.languages {
        b.add_language(l.code(), split.train(l).map(|d| d.text.as_slice()));
    }
    b.build_bloom(w.params, seed)
}

/// What a correct answer for one document looks like.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Per-language counts from in-process `MultiLanguageClassifier::classify`.
    pub counts: Vec<u64>,
    /// N-grams tested.
    pub total_ngrams: u64,
    /// Winner of the naive per-language filter walk.
    pub naive_label: usize,
    /// XOR checksum of the document's packed words.
    pub checksum: u64,
}

/// Compute the expected answer of every document (untimed). A document
/// whose banked winner differs from the naive winner is a program defect;
/// its index is returned in the second list.
pub fn references(
    classifier: &MultiLanguageClassifier,
    docs: &[TestDoc],
) -> (Vec<Expected>, Vec<usize>) {
    let extractor = classifier.extractor();
    let mut grams = Vec::new();
    let mut disagree = Vec::new();
    let refs = docs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let banked = classifier.classify(&d.text);
            grams.clear();
            extractor.extract_into(&d.text, &mut grams);
            let naive = classifier.classify_ngrams_naive(&grams);
            if naive.counts() != banked.counts() || naive.best() != banked.best() {
                disagree.push(i);
            }
            Expected {
                counts: banked.counts().to_vec(),
                total_ngrams: banked.total_ngrams(),
                naive_label: naive.best(),
                checksum: xor_checksum(&pack_words(&d.text)),
            }
        })
        .collect();
    (refs, disagree)
}

/// Checks answers against the references and keeps the counts the
/// result line reports: documents attempted, documents failed, and the
/// label each document first came back with (for `accuracy`).
pub struct Checker<'a> {
    docs: &'a [TestDoc],
    refs: &'a [Expected],
    first_label_ok: Vec<Option<bool>>,
    /// Documents attempted.
    pub attempted: u64,
    /// Documents that failed: an Error or missing response, a checksum
    /// mismatch, or counts or label that differ from the reference.
    pub failed: u64,
}

impl<'a> Checker<'a> {
    /// A checker over `docs` and their `refs`.
    pub fn new(docs: &'a [TestDoc], refs: &'a [Expected]) -> Self {
        Self {
            docs,
            refs,
            first_label_ok: vec![None; docs.len()],
            attempted: 0,
            failed: 0,
        }
    }

    /// An empty checker over the same documents (for another thread).
    pub fn fresh(&self) -> Checker<'a> {
        Checker::new(self.docs, self.refs)
    }

    /// Check one answer for document `idx`; `checksum` is `None` for
    /// in-process results, which have none. Returns whether it was right.
    pub fn check(
        &mut self,
        idx: usize,
        counts: &[u64],
        total_ngrams: u64,
        checksum: Option<u64>,
    ) -> bool {
        self.attempted += 1;
        let want = &self.refs[idx];
        let label = best(counts);
        let ok = counts == want.counts.as_slice()
            && total_ngrams == want.total_ngrams
            && label == want.naive_label
            && checksum.is_none_or(|c| c == want.checksum);
        if ok {
            let slot = &mut self.first_label_ok[idx];
            if slot.is_none() {
                *slot = Some(label == self.docs[idx].label);
            }
        } else {
            self.failed += 1;
        }
        ok
    }

    /// Count `n` attempted documents that got an Error or no response.
    pub fn fail(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Fold another checker's counts (over the same documents) into this one.
    pub fn merge(&mut self, other: Checker<'_>) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (mine, theirs) in self.first_label_ok.iter_mut().zip(other.first_label_ok) {
            if mine.is_none() {
                *mine = theirs;
            }
        }
    }

    /// Share of the documents answered correctly at least once whose
    /// answer named their true language.
    pub fn accuracy(&self) -> f64 {
        let seen = self.first_label_ok.iter().flatten().count();
        let right = self
            .first_label_ok
            .iter()
            .flatten()
            .filter(|&&ok| ok)
            .count();
        right as f64 / seen.max(1) as f64
    }
}

/// Index of the highest count, lowest index on ties — the rule of
/// `ClassificationResult::best`, applied to served counters.
pub fn best(counts: &[u64]) -> usize {
    let mut best = 0;
    for (i, &c) in counts.iter().enumerate() {
        if c > counts[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(label: usize) -> TestDoc {
        TestDoc {
            text: b"abc".to_vec(),
            label,
        }
    }

    fn expected(counts: Vec<u64>, naive_label: usize) -> Expected {
        Expected {
            counts,
            total_ngrams: 9,
            naive_label,
            checksum: 7,
        }
    }

    #[test]
    fn checker_fails_any_difference_from_the_reference() {
        let docs = [doc(0), doc(1)];
        let refs = [expected(vec![5, 2], 0), expected(vec![1, 4], 1)];
        let mut c = Checker::new(&docs, &refs);
        assert!(c.check(0, &[5, 2], 9, Some(7)));
        assert!(c.check(1, &[1, 4], 9, None));
        assert!(!c.check(0, &[5, 3], 9, Some(7)), "counts differ");
        assert!(!c.check(0, &[5, 2], 8, Some(7)), "n-gram total differs");
        assert!(!c.check(0, &[5, 2], 9, Some(6)), "checksum differs");
        c.fail(2);
        assert_eq!((c.attempted, c.failed), (7, 5));
    }

    #[test]
    fn checker_fails_a_label_the_naive_walk_disagrees_with() {
        let docs = [doc(0)];
        // Banked counts say language 0; the naive walk said language 1.
        let refs = [expected(vec![5, 2], 1)];
        let mut c = Checker::new(&docs, &refs);
        assert!(!c.check(0, &[5, 2], 9, None));
    }

    #[test]
    fn accuracy_counts_each_document_once_and_merges() {
        let docs = [doc(0), doc(1), doc(1)];
        // Document 1's answer names language 0: a wrong label, but the
        // answer the program must give.
        let refs = [
            expected(vec![3, 1], 0),
            expected(vec![3, 1], 0),
            expected(vec![0, 2], 1),
        ];
        let mut a = Checker::new(&docs, &refs);
        a.check(0, &[3, 1], 9, None);
        a.check(0, &[3, 1], 9, None);
        let mut b = a.fresh();
        b.check(1, &[3, 1], 9, None);
        a.merge(b);
        assert_eq!(a.attempted, 3);
        assert_eq!(a.accuracy(), 0.5);
        a.check(2, &[0, 2], 9, None);
        assert!((a.accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(best(&[4, 9, 9]), 1);
    }
}
