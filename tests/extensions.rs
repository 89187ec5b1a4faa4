//! Integration tests for the paper's extension paths: Unicode (§3.3),
//! M512 capacity (§5.2), counter saturation, streaming classification,
//! profile persistence, and the JRC XML preprocessing flow.

use lcbloom::core::unicode::{build_wide_profile, WideClassifier};
use lcbloom::corpus::jrc;
use lcbloom::fpga::fabric::RamInventory;
use lcbloom::fpga::resources::ClassifierConfig;
use lcbloom::ngram::unicode::WideNGramSpec;
use lcbloom::prelude::*;
use lcbloom::profile_store::ProfileStore;

#[test]
fn twenty_language_classifier_end_to_end() {
    let cfg = CorpusConfig {
        docs_per_language: 25,
        mean_doc_bytes: 3 * 1024,
        ..CorpusConfig::default()
    };
    let corpus = Corpus::generate_for(&Language::EXTENDED, cfg);
    let split = corpus.split();
    let mut b = ClassifierBuilder::new(NGramSpec::PAPER, 3000);
    for &l in corpus.languages() {
        let docs: Vec<&[u8]> = split.train(l).map(|d| d.text.as_slice()).collect();
        b.add_language(l.code(), docs);
    }
    let classifier = b.build_bloom(BloomParams::PAPER_COMPACT, 21);
    assert_eq!(classifier.num_languages(), 20);

    let mut correct = 0usize;
    let mut total = 0usize;
    for d in split.test_all() {
        total += 1;
        correct += usize::from(classifier.classify(&d.text).best() == d.language.index());
    }
    let acc = correct as f64 / total as f64;
    assert!(acc > 0.97, "20-language accuracy {acc:.3}");
}

#[test]
fn unicode_classifier_handles_mixed_scripts_with_narrow_memory() {
    let spec = WideNGramSpec::PAPER_WIDE;
    let el = "όλοι οι άνθρωποι γεννιούνται ελεύθεροι και ίσοι στην αξιοπρέπεια και τα δικαιώματα \
              το συμβούλιο εξέδωσε τον παρόντα κανονισμό που αρχίζει να ισχύει την εικοστή ημέρα";
    let ru = "все люди рождаются свободными и равными в своем достоинстве и правах совет принял \
              настоящий регламент который вступает в силу на двадцатый день после опубликования";
    let profiles = vec![
        ("el".to_string(), build_wide_profile(spec, [el], 2000)),
        ("ru".to_string(), build_wide_profile(spec, [ru], 2000)),
    ];
    let c = WideClassifier::from_profiles(&profiles, spec, BloomParams::PAPER_COMPACT, 8);
    assert_eq!(c.identify("οι άνθρωποι και τα δικαιώματα"), "el");
    assert_eq!(c.identify("люди рождаются свободными и равными"), "ru");
    // Memory identical to the narrow classifier (the §3.3 claim).
    assert_eq!(
        c.params().total_bits(),
        BloomParams::PAPER_COMPACT.total_bits()
    );
}

#[test]
fn streaming_classification_matches_hardware_protocol_results() {
    let corpus = Corpus::generate(CorpusConfig::test_scale());
    let classifier =
        lcbloom::train_bloom_classifier(&corpus, 1500, BloomParams::PAPER_CONSERVATIVE, 31);
    let hw = HardwareClassifier::place(classifier.clone(), ClassifierConfig::paper_ten_languages());
    let mut sys = Xd1000::new(hw);

    let docs: Vec<&[u8]> = corpus
        .split()
        .test_all()
        .take(10)
        .map(|d| d.text.as_slice())
        .collect();
    let report = sys.run(&docs, HostProtocol::Asynchronous);

    // The streaming software session (8-byte chunks, like DMA words) agrees
    // with the simulated hardware on every document.
    let mut s = StreamingSession::new(&classifier);
    for (doc, hw_result) in docs.iter().zip(&report.results) {
        for chunk in doc.chunks(8) {
            s.feed(&classifier, chunk);
        }
        assert_eq!(&s.finish(), hw_result);
    }
}

#[test]
fn profile_store_roundtrip_preserves_classification() {
    let corpus = Corpus::generate(CorpusConfig::test_scale());
    let profiles = lcbloom::train_profiles(&corpus, 1500);
    let mut store = ProfileStore::new();
    for (name, p) in &profiles {
        store.push(name.clone(), p.clone());
    }
    let mut buf = Vec::new();
    store.write_to(&mut buf).unwrap();
    let loaded = ProfileStore::read_from(&mut buf.as_slice()).unwrap();

    let original = MultiLanguageClassifier::from_profiles(
        store.profiles(),
        NGramSpec::PAPER,
        BloomParams::PAPER_CONSERVATIVE,
        5,
    );
    let restored = MultiLanguageClassifier::from_profiles(
        loaded.profiles(),
        NGramSpec::PAPER,
        BloomParams::PAPER_CONSERVATIVE,
        5,
    );
    for d in corpus.split().test_all().take(15) {
        assert_eq!(original.classify(&d.text), restored.classify(&d.text));
    }
}

#[test]
fn jrc_xml_pipeline_classifies_identically() {
    // generate -> wrap in TEI XML -> extract body -> classify: the paper's
    // preprocessing flow must not change any decision.
    let corpus = Corpus::generate(CorpusConfig::test_scale());
    let classifier =
        lcbloom::train_bloom_classifier(&corpus, 1500, BloomParams::PAPER_CONSERVATIVE, 3);
    for d in corpus.split().test_all().take(15) {
        let xml = jrc::wrap_document(d);
        let body = jrc::extract_body(&xml).expect("body");
        assert_eq!(classifier.classify(&body), classifier.classify(&d.text));
    }
}

#[test]
fn m512_extension_adds_languages_beyond_thirty() {
    let cfg = ClassifierConfig::paper_thirty_languages();
    let mut inv = RamInventory::new(EP2S180, cfg.languages);
    inv.place_classifier(&cfg).expect("30 languages on M4Ks");
    let extra = inv.extra_languages_on_m512(&cfg);
    assert_eq!(extra, 4, "paper §5.2: four additional languages on M512s");
    // And the M512 vectors can actually be allocated.
    for _ in 0..extra {
        for _ in 0..(cfg.copies * cfg.bloom.k) {
            inv.allocate_vector_m512(cfg.bloom.m_bits())
                .expect("allocation within computed capacity");
        }
    }
}
