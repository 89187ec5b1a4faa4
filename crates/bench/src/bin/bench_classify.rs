//! `BENCH_classify.json` emitter: measures the naive (per-language filter
//! walk) vs banked (bit-sliced `FilterBank`) classify hot paths on the
//! paper's 8-language × (k = 4, m = 16 Kbit) configuration and writes the
//! numbers to `BENCH_classify.json` so the perf trajectory is recorded in
//! the repository. `banked` probes pre-extracted n-grams; `streamed` takes
//! raw bytes through `StreamingSession`, extraction included — the one
//! fused extract → probe loop that `classify` and every service worker run.
//!
//! The banked and streamed paths are measured once per dispatch path —
//! forced-scalar always, AVX2 additionally when the host CPU has it — so
//! the report pins both sides of the runtime dispatch and a silent
//! fallback regression shows up as a missing/slow `avx2` section. The
//! top-level `naive`/`banked`/`streamed` numbers reflect the path the
//! classifier actually selects at runtime (`cpu_features.selected`).
//!
//! Run from the workspace root with:
//!
//! ```text
//! cargo run --release -p lc-bench --bin bench_classify
//! ```
//!
//! The workload is [`lc_bench::ClassifyFixture::paper_8lang`] — the same
//! fixture the criterion bench (`benches/classify.rs`) measures. Knobs:
//! `LC_BENCH_DOCS`, `LC_BENCH_DOC_BYTES`, and `LC_BENCH_OUT` (output path,
//! default `BENCH_classify.json`).

use std::time::Instant;

use lc_bench::ClassifyFixture;
use lc_core::{MultiLanguageClassifier, SimdLevel, StreamingSession};

/// Median of `samples` timed runs of `f`, in nanoseconds.
fn median_ns<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// One dispatch path's timings (median ns over the whole workload).
struct PathTimes {
    banked_ns: f64,
    streamed_ns: f64,
}

/// Measure the banked whole-stream path and the streamed-from-raw-bytes
/// path on `classifier` (whose probe engine is already pinned to the path
/// under test).
fn measure_path(
    classifier: &MultiLanguageClassifier,
    fixture: &ClassifyFixture,
    samples: usize,
) -> PathTimes {
    // Warm-up every path once before timing (also builds the lazily
    // initialized fused hash table).
    for ((_, grams), text) in fixture.docs.iter().zip(&fixture.texts) {
        std::hint::black_box(classifier.classify_ngrams(grams));
        std::hint::black_box(classifier.classify(text));
    }

    let banked_ns = median_ns(samples, || {
        let mut acc = 0usize;
        for (_, grams) in &fixture.docs {
            acc ^= classifier.classify_ngrams(grams).best();
        }
        acc
    });

    // Streamed measures extraction + probe from raw bytes — what a
    // service worker actually pays per document: each byte folds straight
    // into the bank probe with no intermediate n-gram buffer.
    let streamed_ns = median_ns(samples, || {
        let mut acc = 0usize;
        let mut session = StreamingSession::new(classifier);
        for text in &fixture.texts {
            session.feed(classifier, text);
            acc ^= session.finish().best();
        }
        acc
    });

    PathTimes {
        banked_ns,
        streamed_ns,
    }
}

fn main() {
    let fixture = ClassifyFixture::paper_8lang();
    let classifier = &fixture.classifier;
    let total_bytes = fixture.total_bytes();
    let total_ngrams = fixture.total_ngrams();
    let selected = classifier.simd_level();
    eprintln!(
        "measuring: {} languages, k={}, m={} Kbit, {} docs, {:.1} MB, {} n-grams, \
         cpu avx2: {}, selected: {}",
        classifier.num_languages(),
        fixture.params.k,
        fixture.params.m_kbits(),
        fixture.docs.len(),
        total_bytes as f64 / 1e6,
        total_ngrams,
        SimdLevel::cpu_has_avx2(),
        selected,
    );

    let samples = 7;

    // Naive is the dispatch-independent reference (per-language filter
    // walks, no bank engine).
    for (_, grams) in &fixture.docs {
        std::hint::black_box(classifier.classify_ngrams_naive(grams));
    }
    let naive_ns = median_ns(samples, || {
        let mut acc = 0usize;
        for (_, grams) in &fixture.docs {
            acc ^= classifier.classify_ngrams_naive(grams).best();
        }
        acc
    });

    // Forced-scalar always; AVX2 additionally when the host has it.
    let mut scalar_classifier = classifier.clone();
    scalar_classifier.set_force_scalar(true);
    let scalar = measure_path(&scalar_classifier, &fixture, samples);
    let avx2 = SimdLevel::cpu_has_avx2().then(|| {
        let mut c = classifier.clone();
        c.set_force_scalar(false);
        (c.simd_level() == SimdLevel::Avx2).then(|| measure_path(&c, &fixture, samples))
    });
    let avx2 = avx2.flatten();
    let selected_times = match (selected, &avx2) {
        (SimdLevel::Avx2, Some(t)) => t,
        _ => &scalar,
    };

    let rate = |ns: f64| {
        (
            ns / total_ngrams as f64,              // ns per n-gram
            total_bytes as f64 / 1e6 / (ns / 1e9), // MB/s
        )
    };
    let sect = |ns: f64| {
        let (per_gram, mbs) = rate(ns);
        format!("{{ \"ns_per_ngram\": {per_gram:.2}, \"mb_per_s\": {mbs:.1} }}")
    };
    let path_sect = |t: &PathTimes| {
        format!(
            "{{ \"banked\": {}, \"streamed\": {} }}",
            sect(t.banked_ns),
            sect(t.streamed_ns),
        )
    };

    let speedup = naive_ns / selected_times.banked_ns;
    let avx2_sect = match &avx2 {
        Some(t) => format!(",\n  \"avx2\": {}", path_sect(t)),
        None => String::new(),
    };
    let json = format!(
        "{{\n  \"bench\": \"classify\",\n  \"config\": {{ \"languages\": {}, \"k\": {}, \"m_kbits\": {}, \"ngram\": {}, \"profile_size\": {} }},\n  \"workload\": {{ \"documents\": {}, \"bytes\": {}, \"ngrams\": {} }},\n  \"cpu_features\": {{ \"avx2\": {}, \"selected\": \"{}\" }},\n  \"naive\": {},\n  \"banked\": {},\n  \"speedup\": {:.2},\n  \"streamed\": {},\n  \"scalar\": {}{}\n}}\n",
        classifier.num_languages(),
        fixture.params.k,
        fixture.params.m_kbits(),
        classifier.spec().n(),
        fixture.profile_size,
        fixture.docs.len(),
        total_bytes,
        total_ngrams,
        SimdLevel::cpu_has_avx2(),
        selected,
        sect(naive_ns),
        sect(selected_times.banked_ns),
        speedup,
        sect(selected_times.streamed_ns),
        path_sect(&scalar),
        avx2_sect,
    );
    print!("{json}");

    let out = std::env::var("LC_BENCH_OUT").unwrap_or_else(|_| "BENCH_classify.json".into());
    std::fs::write(&out, &json).expect("write benchmark report");
    eprintln!("wrote {out} (selected {selected}; banked is {speedup:.2}x naive)");
}
