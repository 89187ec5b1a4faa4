//! Unicode (16-bit) multi-language classifier — the §3.3 extension wired
//! end-to-end.
//!
//! The narrow classifier's Bloom filters hash 20-bit packed 4-grams; here
//! the same filters hash 64-bit wide 4-grams. Per the paper, *"the rest of
//! the Bloom Filter remaining the same"* — identical parameters, identical
//! memory footprint, only the H3 matrix gets more rows (one per extra input
//! bit). Scripts beyond Latin (Greek, Cyrillic, CJK, …) become classifiable
//! without any per-script tables, which a direct-lookup design could never
//! afford (a 16-bit alphabet's 4-gram space has 2^64 slots).

use lc_bloom::{BloomParams, FilterBank, ParallelBloomFilter};
use lc_ngram::unicode::{WideExtractor, WideNGramSpec};
use lc_ngram::{NGram, NGramCounter, NGramProfile, NGramSpec};

use crate::result::ClassificationResult;

/// Build a wide (Unicode) top-`t` profile from training texts.
pub fn build_wide_profile<'a, I: IntoIterator<Item = &'a str>>(
    spec: WideNGramSpec,
    docs: I,
    t: usize,
) -> NGramProfile {
    // NGramCounter counts packed u64 keys; feed it pre-extracted wide grams.
    // The counter's own spec is only used for byte-level extraction, which
    // the wide path bypasses; record the window length for diagnostics.
    let mut counter = NGramCounter::new(NGramSpec::new(spec.n()));
    let extractor = WideExtractor::new(spec);
    let mut grams: Vec<NGram> = Vec::new();
    for d in docs {
        extractor.extract_into(d, &mut grams);
        counter.add_ngrams(&grams);
    }
    counter.top_t(t)
}

/// A Unicode-capable multi-language classifier over Parallel Bloom Filters
/// with 64-bit hash inputs.
#[derive(Clone, Debug)]
pub struct WideClassifier {
    names: Vec<String>,
    bank: FilterBank,
    spec: WideNGramSpec,
    extractor: WideExtractor,
}

impl WideClassifier {
    /// Program one filter per named profile (profiles from
    /// [`build_wide_profile`]) and transpose them into the bit-sliced bank,
    /// the only form kept.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn from_profiles(
        profiles: &[(String, NGramProfile)],
        spec: WideNGramSpec,
        params: BloomParams,
        seed: u64,
    ) -> Self {
        assert!(!profiles.is_empty(), "need at least one language profile");
        let mut names = Vec::with_capacity(profiles.len());
        let mut filters = Vec::with_capacity(profiles.len());
        for (name, p) in profiles {
            let mut f = ParallelBloomFilter::new(params, spec.bits(), seed);
            f.program_all(p.ngrams().map(|g| g.value()));
            names.push(name.clone());
            filters.push(f);
        }
        let bank = FilterBank::from_filters(&filters);
        Self {
            names,
            bank,
            spec,
            extractor: WideExtractor::new(spec),
        }
    }

    /// Language names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of languages.
    pub fn num_languages(&self) -> usize {
        self.bank.languages()
    }

    /// Bloom parameters (note: same RAM budget as the narrow classifier —
    /// the wide alphabet costs hash rows, not memory bits).
    pub fn params(&self) -> BloomParams {
        self.bank.params()
    }

    /// Use sub-sampled extraction (test every `s`-th wide n-gram) — the
    /// same §3.3/§5.2 bandwidth knob as `MultiLanguageClassifier`, so the
    /// wide path has configuration parity with the narrow one.
    pub fn set_subsampling(&mut self, s: usize) {
        self.extractor = WideExtractor::with_subsampling(self.spec, s);
    }

    /// The sub-sampling factor in use (1 = every n-gram, the default).
    pub fn subsample(&self) -> usize {
        self.extractor.subsample()
    }

    /// Classify Unicode text (wide n-grams through the same bit-sliced bank
    /// as the narrow classifier — only the hash input width differs).
    pub fn classify(&self, text: &str) -> ClassificationResult {
        let mut grams = Vec::new();
        self.extractor.extract_into(text, &mut grams);
        let mut counts = vec![0u64; self.bank.languages()];
        self.bank
            .accumulate_keys(grams.iter().map(|g| g.value()), &mut counts);
        ClassificationResult::new(counts, grams.len() as u64)
    }

    /// Name of the winning language.
    pub fn identify(&self, text: &str) -> &str {
        &self.names[self.classify(text).best()]
    }

    /// The wide n-gram shape.
    pub fn spec(&self) -> WideNGramSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GREEK: &str = "όλοι οι άνθρωποι γεννιούνται ελεύθεροι και ίσοι στην αξιοπρέπεια \
και τα δικαιώματα είναι προικισμένοι με λογική και συνείδηση και οφείλουν να συμπεριφέρονται \
μεταξύ τους με πνεύμα αδελφοσύνης το συμβούλιο της ευρωπαϊκής ένωσης εξέδωσε τον παρόντα \
κανονισμό ο παρών κανονισμός αρχίζει να ισχύει την εικοστή ημέρα από τη δημοσίευσή του";

    const RUSSIAN: &str = "все люди рождаются свободными и равными в своем достоинстве и \
правах они наделены разумом и совестью и должны поступать в отношении друг друга в духе \
братства совет европейского союза принял настоящий регламент настоящий регламент вступает в \
силу на двадцатый день после его опубликования в официальном журнале";

    const ENGLISH: &str = "all human beings are born free and equal in dignity and rights \
they are endowed with reason and conscience and should act towards one another in a spirit \
of brotherhood the council of the european union has adopted this regulation which shall \
enter into force on the twentieth day following that of its publication";

    fn classifier() -> WideClassifier {
        let spec = WideNGramSpec::PAPER_WIDE;
        let profiles = vec![
            ("el".to_string(), build_wide_profile(spec, [GREEK], 2000)),
            ("ru".to_string(), build_wide_profile(spec, [RUSSIAN], 2000)),
            ("en".to_string(), build_wide_profile(spec, [ENGLISH], 2000)),
        ];
        WideClassifier::from_profiles(&profiles, spec, BloomParams::PAPER_CONSERVATIVE, 17)
    }

    #[test]
    fn classifies_non_latin_scripts() {
        let c = classifier();
        assert_eq!(
            c.identify("οι άνθρωποι γεννιούνται ελεύθεροι και ίσοι"),
            "el"
        );
        assert_eq!(
            c.identify("люди рождаются свободными и равными в правах"),
            "ru"
        );
        assert_eq!(
            c.identify("human beings are born free and equal in rights"),
            "en"
        );
    }

    #[test]
    fn scripts_do_not_cross_match() {
        let c = classifier();
        let r = c.classify("все люди рождаются свободными и равными");
        // Greek and English counters should be essentially zero: distinct
        // 16-bit symbol ranges cannot collide except through Bloom FPs.
        let ru = r.counts()[1];
        assert!(ru > 0);
        assert!(
            r.counts()[0] < ru / 4,
            "Greek count suspiciously high: {:?}",
            r.counts()
        );
        assert!(
            r.counts()[2] < ru / 4,
            "English count suspiciously high: {:?}",
            r.counts()
        );
    }

    #[test]
    fn memory_footprint_identical_to_narrow() {
        // The §3.3 claim: only the hash width changes.
        let c = classifier();
        assert_eq!(
            c.params().total_bits(),
            BloomParams::PAPER_CONSERVATIVE.total_bits()
        );
        // The bank only accepts filters that agree on their parameters.
        assert_eq!(c.params(), BloomParams::PAPER_CONSERVATIVE);
    }

    #[test]
    fn case_insensitive_across_scripts() {
        let c = classifier();
        let lower = c.classify("οι άνθρωποι γεννιούνται ελεύθεροι");
        let upper = c.classify("ΟΙ ΆΝΘΡΩΠΟΙ ΓΕΝΝΙΟΎΝΤΑΙ ΕΛΕΎΘΕΡΟΙ");
        // Greek final sigma and tonos normalization differ slightly under
        // simple uppercasing; decisions must still agree.
        assert_eq!(lower.best(), upper.best());
    }

    #[test]
    fn empty_text() {
        let c = classifier();
        let r = c.classify("");
        assert_eq!(r.total_ngrams(), 0);
    }

    #[test]
    fn wide_subsampling_thins_stream_and_keeps_decision() {
        let mut c = classifier();
        assert_eq!(c.subsample(), 1);
        let text = "все люди рождаются свободными и равными в правах";
        let full = c.classify(text);
        c.set_subsampling(2);
        assert_eq!(c.subsample(), 2);
        let half = c.classify(text);
        assert!(half.total_ngrams() <= full.total_ngrams() / 2 + 1);
        assert_eq!(full.best(), half.best());
    }
}
