//! Per-layer timings, each taken from outside by calling one crate's
//! public functions over the workload's documents, plus the host ceilings
//! (streaming read, dependent load) they are read against.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lc_bloom::FilterBank;
use lc_core::{MultiLanguageClassifier, StreamingSession};
use lc_hash::H3Family;
use lc_ngram::{GramBlockSink, NGram, BLOCK_LANES};
use lc_wire::{read_frame_mux, WireCommand};

use crate::loadgen::{channel_of, encode_doc};
use crate::stats::median;
use crate::workload::{Checker, TestDoc};

/// Repeat `pass` (one timed pass over the inputs, returning its work
/// units) until `budget` is spent, at least three times; the median
/// nanoseconds per unit.
pub fn ns_per_unit(budget: Duration, mut pass: impl FnMut() -> u64) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        let units = pass();
        samples.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    median(&samples).expect("at least three samples")
}

/// A sink that hands every block and gram to `black_box`, so extraction
/// cannot be optimised away and costs nothing downstream.
struct BlackBoxSink;

impl GramBlockSink for BlackBoxSink {
    #[inline]
    fn block(&mut self, grams: &[u32; BLOCK_LANES]) {
        black_box(grams);
    }
    #[inline]
    fn gram(&mut self, gram: NGram) {
        black_box(gram);
    }
}

/// `StreamingExtractor::feed_blocks` cost per input byte.
pub fn extract_ns_per_byte(c: &MultiLanguageClassifier, docs: &[TestDoc], budget: Duration) -> f64 {
    ns_per_unit(budget, || {
        let mut bytes = 0;
        for d in docs {
            let mut ex = c.streaming_extractor();
            ex.feed_blocks(black_box(&d.text), &mut BlackBoxSink);
            bytes += d.text.len() as u64;
        }
        bytes
    })
}

/// Every document's n-gram keys, pre-extracted.
pub fn keys_of(c: &MultiLanguageClassifier, docs: &[TestDoc]) -> Vec<Vec<NGram>> {
    let ex = c.extractor();
    docs.iter().map(|d| ex.extract(&d.text)).collect()
}

fn h3_pass<const K: usize>(family: &H3Family, grams: &[Vec<NGram>]) -> u64 {
    let eval = family.fused_evaluator_k::<K>();
    let mut n = 0;
    for doc in grams {
        for g in doc {
            black_box(eval.hash_all_array(black_box(g.value())));
        }
        n += doc.len() as u64;
    }
    n
}

/// Scalar fused H3 evaluation of all `k` hashes, per key.
pub fn h3_ns_per_gram(bank: &FilterBank, grams: &[Vec<NGram>], budget: Duration) -> f64 {
    let family = bank.hashes();
    ns_per_unit(budget, || match family.k() {
        4 => h3_pass::<4>(family, grams),
        6 => h3_pass::<6>(family, grams),
        k => {
            let eval = family.fused_evaluator();
            let mut out = vec![0u32; k];
            let mut n = 0;
            for doc in grams {
                for g in doc {
                    eval.hash_all_into(black_box(g.value()), &mut out);
                    black_box(&out);
                }
                n += doc.len() as u64;
            }
            n
        }
    })
}

/// `accumulate_ngrams` (hash + AND-probe + count) per key, on the path
/// `c` has selected.
pub fn probe_ns_per_gram(
    c: &MultiLanguageClassifier,
    grams: &[Vec<NGram>],
    budget: Duration,
) -> f64 {
    let mut counts = vec![0u64; c.num_languages()];
    ns_per_unit(budget, || {
        let mut n = 0;
        for doc in grams {
            c.accumulate_ngrams(black_box(doc), &mut counts);
            n += doc.len() as u64;
        }
        black_box(&counts);
        n
    })
}

/// Exact share of keys whose match mask is empty (no language matches).
pub fn no_match_share(bank: &FilterBank, grams: &[Vec<NGram>]) -> f64 {
    let (mut none, mut total) = (0u64, 0u64);
    for g in grams.iter().flatten() {
        total += 1;
        if bank.match_mask(g.value()).iter().all(|&w| w == 0) {
            none += 1;
        }
    }
    none as f64 / total.max(1) as f64
}

/// In-process streaming classification (`StreamingSession::feed` then
/// `finish` per document), every result checked.
pub fn classify_pass(c: &MultiLanguageClassifier, docs: &[TestDoc], checker: &mut Checker<'_>) {
    let mut session = StreamingSession::new(c);
    for (i, d) in docs.iter().enumerate() {
        session.feed(c, &d.text);
        let r = session.finish();
        checker.check(i, r.counts(), r.total_ngrams(), None);
    }
}

/// `StreamingSession::finish` alone, per call (its cost does not depend
/// on the document: it swaps the counters out and resets the extractor).
pub fn finish_ns_per_doc(c: &MultiLanguageClassifier, budget: Duration) -> f64 {
    let mut session = StreamingSession::new(c);
    ns_per_unit(budget, || {
        for _ in 0..10_000 {
            black_box(session.finish());
        }
        10_000
    })
}

/// The request stream of every document (what the load generator sends).
pub fn encoded_stream(docs: &[TestDoc]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, d) in docs.iter().enumerate() {
        encode_doc(&mut out, channel_of(i as u64), &d.text).expect("encode into memory");
    }
    out
}

/// Request encoding per document.
pub fn encode_ns_per_doc(docs: &[TestDoc], budget: Duration) -> f64 {
    let mut out = Vec::with_capacity(encoded_stream(docs).len());
    ns_per_unit(budget, || {
        out.clear();
        for (i, d) in docs.iter().enumerate() {
            encode_doc(&mut out, channel_of(i as u64), black_box(&d.text)).expect("encode");
        }
        black_box(&out);
        docs.len() as u64
    })
}

/// Request decoding (`read_frame_mux` + `WireCommand::decode`) per
/// document, over the encoded stream.
pub fn decode_ns_per_doc(stream: &[u8], docs: usize, budget: Duration) -> f64 {
    ns_per_unit(budget, || {
        let mut r = std::io::Cursor::new(stream);
        while let Some((kind, _ch, payload)) = read_frame_mux(&mut r).expect("read frame") {
            black_box(WireCommand::decode(kind, payload).expect("decode command"));
        }
        docs as u64
    })
}

/// Streaming-read ceiling: GB/s summing the workload's bytes as words.
pub fn read_gb_s(docs: &[TestDoc], budget: Duration) -> f64 {
    let words: Vec<u64> = docs
        .iter()
        .flat_map(|d| lc_wire::pack_words(&d.text))
        .collect();
    let ns_per_word = ns_per_unit(budget, || {
        let mut acc = 0u64;
        for &w in black_box(&words) {
            acc = acc.wrapping_add(w);
        }
        black_box(acc);
        words.len() as u64
    });
    8.0 / ns_per_word
}

/// Dependent-load ceiling: ns per load chasing a random single cycle
/// through a table of `bytes` (the bank's size), seeded by `seed`.
pub fn lookup_ns(bytes: usize, seed: u64, budget: Duration) -> f64 {
    let n = (bytes / 4).max(2);
    // Sattolo's shuffle: one cycle through every slot.
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % i as u64) as usize;
        next.swap(i, j);
    }
    let steps = 1_000_000u64;
    let mut at = 0u32;
    ns_per_unit(budget, || {
        for _ in 0..steps {
            at = next[at as usize];
        }
        black_box(at);
        steps
    })
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
