//! End-to-end tests of the trace-span plane and snapshot rates: spans
//! sampled server-side must come back over the wire with the stage
//! invariant intact, client-supplied TraceContext ids must be adopted
//! verbatim, chaos-faulted documents must be force-sampled with the fault
//! site named, two polled snapshots must yield the rates between them —
//! and no span may leak into what a v1 / `detail<=1` decoder sees.

use lcbloom::prelude::*;
use lcbloom::service::{
    fault_name, serve, ChaosConfig, HistorySlot, ServiceConfig, FAULT_WORKER_DELAY,
    SPAN_CLIENT_CONTEXT, SPAN_FAULT, SPAN_SAMPLED,
};
use std::sync::Arc;
use std::time::Instant;

fn classifier() -> Arc<MultiLanguageClassifier> {
    static CLASSIFIER: std::sync::OnceLock<Arc<MultiLanguageClassifier>> =
        std::sync::OnceLock::new();
    Arc::clone(CLASSIFIER.get_or_init(|| {
        let corpus = Corpus::generate(CorpusConfig {
            docs_per_language: 8,
            mean_doc_bytes: 2048,
            ..CorpusConfig::default()
        });
        Arc::new(lcbloom::train_bloom_classifier(
            &corpus,
            1000,
            BloomParams::PAPER_CONSERVATIVE,
            21,
        ))
    }))
}

fn test_docs() -> Vec<Vec<u8>> {
    let corpus = Corpus::generate(CorpusConfig {
        docs_per_language: 4,
        mean_doc_bytes: 2500,
        seed: 0x70AC_ED0C,
        ..CorpusConfig::default()
    });
    corpus.split().test_all().map(|d| d.text.clone()).collect()
}

fn start(config: ServiceConfig) -> lcbloom::service::ServerHandle {
    serve(classifier(), "127.0.0.1:0", config).expect("bind localhost")
}

#[test]
fn sampled_spans_come_back_over_the_wire_with_stages_that_add_up() {
    let server = start(ServiceConfig {
        workers: 2,
        trace_sample: 1, // every document
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    let docs_ref: Vec<&[u8]> = docs.iter().take(12).map(|d| d.as_slice()).collect();
    let served = client
        .classify_many_mux(&docs_ref, 2, 6)
        .expect("mux batch");
    assert_eq!(served.len(), docs_ref.len());

    let snap = client.stats(2).expect("stats detail=2");
    assert_eq!(
        snap.spans.len(),
        docs_ref.len(),
        "sample=1 must span every document"
    );
    for s in &snap.spans {
        assert_ne!(s.flags & SPAN_SAMPLED, 0, "span not marked sampled: {s:?}");
        assert_eq!(s.flags & SPAN_FAULT, 0, "clean run grew a fault: {s:?}");
        assert_eq!(s.fault, 0);
        assert_ne!(s.shard, u16::MAX, "span never reached a shard: {s:?}");
        assert!(s.doc_bytes > 0);
        assert!(s.end_ns > 0, "span never finished draining: {s:?}");
        // The invariant the whole plane hangs off: stages decompose the
        // end-to-end time, they don't exceed it.
        assert!(
            s.queue_us + s.classify_us + s.drain_us <= s.total_us,
            "stage sum exceeds end-to-end: {s:?}"
        );
    }
    // drain() handed them over: a second detail-2 dump starts empty.
    let again = client.stats(2).expect("stats again");
    assert!(again.spans.is_empty(), "spans must drain exactly once");
    server.shutdown();
}

#[test]
fn client_trace_context_is_adopted_verbatim_end_to_end() {
    let server = start(ServiceConfig {
        workers: 2,
        trace_sample: 1,
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    client.set_trace_context(Some(0xFEED_FACE_CAFE_F00D));
    client.classify(&docs[0]).expect("traced classify");
    client.set_trace_context(None);
    client.classify(&docs[1]).expect("untraced classify");

    let snap = client.stats(2).expect("stats detail=2");
    let traced: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.flags & SPAN_CLIENT_CONTEXT != 0)
        .collect();
    assert_eq!(traced.len(), 1, "exactly one document carried the context");
    assert_eq!(traced[0].trace_id, 0xFEED_FACE_CAFE_F00D);
    // The second document fell back to a server-derived id.
    assert!(snap
        .spans
        .iter()
        .any(|s| s.flags & SPAN_CLIENT_CONTEXT == 0));
    server.shutdown();
}

#[test]
fn chaos_faulted_documents_are_force_sampled_naming_the_site() {
    // Sampling off — only the fault forcing keeps these spans. Every job
    // hits the worker-delay chaos site, so every document must surface a
    // fault-annotated span even though head sampling would keep none.
    let server = start(ServiceConfig {
        workers: 2,
        trace_sample: 0,
        chaos: Some(ChaosConfig {
            seed: 0xC4A05,
            worker_delay: 1.0,
            worker_delay_ms: 2,
            ..ChaosConfig::default()
        }),
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    for doc in docs.iter().take(4) {
        client.classify(doc).expect("delayed but successful");
    }

    let snap = client.stats(2).expect("stats detail=2");
    assert!(!snap.spans.is_empty(), "chaos faults must force spans");
    for s in &snap.spans {
        assert_ne!(s.flags & SPAN_FAULT, 0, "fault flag missing: {s:?}");
        assert_eq!(s.flags & SPAN_SAMPLED, 0, "head sampling is off");
        assert_eq!(s.fault, FAULT_WORKER_DELAY);
        assert_eq!(fault_name(s.fault), "worker-delay");
        assert!(
            s.queue_us + s.classify_us + s.drain_us <= s.total_us,
            "stage sum exceeds end-to-end: {s:?}"
        );
    }
    server.shutdown();
}

#[test]
fn protocol_faults_surface_spans_naming_the_site() {
    // Spans exist but head sampling keeps (almost) nothing: only the
    // fault path can explain a surfaced span.
    let server = start(ServiceConfig {
        workers: 2,
        trace_sample: u32::MAX,
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    // Size promises 64 bytes, EoD arrives after none: TruncatedTransfer.
    client
        .send_command(&lcbloom::wire::WireCommand::size(8, 64))
        .expect("send size");
    client
        .send_command(&lcbloom::wire::WireCommand::EndOfDocument)
        .expect("send eod");
    match client.read_response() {
        Ok(lcbloom::wire::WireResponse::Error { code, .. }) => {
            assert_eq!(code, lcbloom::wire::ErrorCode::TruncatedTransfer);
        }
        other => panic!("expected TruncatedTransfer error, got {other:?}"),
    }
    // The session recovered; a clean document still classifies.
    client.classify(&docs[0]).expect("post-fault classify");

    let snap = client.stats(2).expect("stats detail=2");
    let faulted: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.flags & SPAN_FAULT != 0)
        .collect();
    assert_eq!(faulted.len(), 1, "exactly the truncated document spans");
    assert_eq!(fault_name(faulted[0].fault), "truncated-transfer");
    server.shutdown();
}

#[test]
fn history_rates_come_from_two_polled_snapshots() {
    let server = start(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    let epoch = Instant::now();
    let before = client.stats(0).expect("first poll");
    let before_at = Instant::now();
    let sent: usize = 10;
    for doc in docs.iter().take(sent) {
        client.classify(doc).expect("classify");
    }
    let after = client.stats(0).expect("second poll");
    let at = Instant::now();

    let slot = HistorySlot::delta(
        &before,
        &after,
        at.duration_since(epoch).as_nanos() as u64,
        at.duration_since(before_at),
    );
    assert_eq!(slot.docs, sent as u64, "the delta counts exactly the load");
    let bytes: usize = docs.iter().take(sent).map(|d| d.len()).sum();
    assert_eq!(slot.doc_bytes, bytes as u64);
    assert!(slot.interval_us > 0, "measured interval must be positive");
    assert!(
        slot.ts_ns >= slot.interval_us * 1000,
        "slot ends after it starts"
    );
    assert_eq!(slot.shards.len(), 2);
    assert_eq!(slot.shards.iter().map(|s| s.docs).sum::<u64>(), sent as u64);
    assert!(slot.docs_per_s() > 0.0);
    assert!(slot.mb_per_s() > 0.0);
    server.shutdown();
}

#[test]
fn detail_at_most_one_stays_clean_for_v1_decoders() {
    // A server with spans captured must answer `GetStats(detail<=1)`
    // without them — the pre-tracing schema, bit-compatible for old decoders —
    // and the withheld spans must stay buffered, not be silently drained.
    let server = start(ServiceConfig {
        workers: 2,
        trace_sample: 1,
        ..ServiceConfig::default()
    });
    let docs = test_docs();
    let mut client = ClassifyClient::connect(server.addr()).expect("connect");
    for doc in docs.iter().take(3) {
        client.classify(doc).expect("classify");
    }

    for detail in [0u8, 1] {
        let snap = client.stats(detail).expect("low-detail stats");
        assert!(
            snap.spans.is_empty(),
            "detail={detail} leaked spans to a v1-era decoder"
        );
        assert_eq!(snap.documents, 3);
    }
    // Low-detail reads did not consume the span plane.
    let snap = client.stats(2).expect("stats detail=2");
    assert_eq!(snap.spans.len(), 3, "spans must survive low-detail reads");
    server.shutdown();
}
