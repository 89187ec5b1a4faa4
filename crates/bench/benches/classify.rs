//! Criterion bench: end-to-end classification — the software throughput
//! against which the paper's 85x hardware speedup is claimed.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use lc_bench::builder_for;
use lc_bloom::BloomParams;
use lc_core::{classify_batch, ParallelClassifier};
use lc_corpus::{Corpus, CorpusConfig};

fn bench_classify(c: &mut Criterion) {
    let corpus = Corpus::generate(CorpusConfig {
        docs_per_language: 12,
        mean_doc_bytes: 10 * 1024,
        ..CorpusConfig::default()
    });
    let classifier = builder_for(&corpus, 5000).build_bloom(BloomParams::PAPER_CONSERVATIVE, 7);
    let exact = builder_for(&corpus, 5000).build_exact();
    let docs: Vec<&[u8]> = corpus
        .split()
        .test_all()
        .map(|d| d.text.as_slice())
        .collect();
    let bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();

    let mut g = c.benchmark_group("classify");
    g.throughput(Throughput::Bytes(bytes));
    g.sample_size(20);

    g.bench_function("bloom_10lang_sequential", |b| {
        b.iter(|| {
            let mut best = 0usize;
            for d in &docs {
                best ^= classifier.classify(black_box(d)).best();
            }
            black_box(best)
        });
    });

    g.bench_function("bloom_10lang_rayon_batch", |b| {
        b.iter(|| black_box(classify_batch(&classifier, &docs).len()));
    });

    g.bench_function("exact_10lang_sequential", |b| {
        b.iter(|| {
            let mut best = 0usize;
            for d in &docs {
                best ^= exact.classify(black_box(d)).best();
            }
            black_box(best)
        });
    });

    g.bench_function("lane_split_datapath_model", |b| {
        // The hardware-shaped lane-split path (slower in software; it exists
        // for bit-exact datapath verification, not speed).
        let par = ParallelClassifier::paper(classifier.clone());
        let short: Vec<&[u8]> = docs.iter().take(4).copied().collect();
        b.iter(|| {
            let mut best = 0usize;
            for d in &short {
                best ^= par.classify(black_box(d)).best();
            }
            black_box(best)
        });
    });

    g.finish();
}

criterion_group!(benches, bench_classify);
criterion_main!(benches);
