//! Chaos soak: the service under seeded fault injection. The contract
//! being proven end to end (ISSUE 6's tentpole invariant):
//!
//! 1. Every submitted document gets **exactly one** outcome — a result or
//!    a typed fault — no matter which combination of short reads, short
//!    writes, dropped wakes, corrupted payloads, connection resets,
//!    worker panics, and a whole worker-thread death fires underneath.
//! 2. Every result that does arrive is **bit-identical** to in-process
//!    classification (the corruption site proves the checksum catches
//!    the one case where a wrong result could otherwise slip through).
//! 3. The server *self-heals*: panicked workers answer with a typed
//!    fault and keep serving; a killed worker thread is respawned by the
//!    pool supervisor; clients reconnect and resubmit transparently.
//!
//! Everything replays from the fixed seed below — a failure here is
//! reproducible, not a flake.

use lcbloom::prelude::*;
use lcbloom::service::{serve, ChaosConfig, RetryPolicy, ServerHandle, ServiceConfig};
use lcbloom::wire::{pack_words, read_frame, ErrorCode, WireCommand, WireResponse};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn classifier() -> Arc<MultiLanguageClassifier> {
    static CLASSIFIER: std::sync::OnceLock<Arc<MultiLanguageClassifier>> =
        std::sync::OnceLock::new();
    Arc::clone(CLASSIFIER.get_or_init(|| {
        let corpus = Corpus::generate(CorpusConfig {
            docs_per_language: 12,
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
        docs_per_language: 6,
        mean_doc_bytes: 3000,
        seed: 0xD0C5,
        ..CorpusConfig::default()
    });
    corpus.split().test_all().map(|d| d.text.clone()).collect()
}

#[test]
fn chaos_soak_every_document_answered_and_bit_identical() {
    let c = classifier();
    let chaos = ChaosConfig {
        seed: 0xC4A0_5EED,
        short_read: 0.05,
        short_write: 0.05,
        conn_reset: 0.0008,
        wake_drop: 0.02,
        corrupt_payload: 0.01,
        worker_delay: 0.02,
        worker_delay_ms: 3,
        worker_panic: 0.01,
        worker_kill_after: 150,
    };
    let server = serve(
        Arc::clone(&c),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 4,
            reactors: 2,
            watchdog: Duration::from_secs(10),
            chaos: Some(chaos),
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let addr = server.addr();
    let docs = test_docs();
    assert!(docs.len() >= 20, "need enough documents to soak with");
    let policy = RetryPolicy {
        max_reconnects: 512,
        max_doc_retries: 16,
        backoff_base: Duration::from_millis(2),
        backoff_max: Duration::from_millis(100),
        ..RetryPolicy::default()
    };

    const THREADS: usize = 4;
    const PASSES: usize = 3;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let docs = &docs;
                let c = &c;
                let policy = &policy;
                s.spawn(move || {
                    let mut client = lcbloom::service::ClassifyClient::connect_with(addr, policy)
                        .expect("connect");
                    let picks: Vec<&[u8]> = docs.iter().map(|d| d.as_slice()).collect();
                    for pass in 0..PASSES {
                        let outcomes = client.classify_many_mux_hardened(&picks, 4, 8, policy);
                        assert_eq!(outcomes.len(), picks.len(), "one outcome per document");
                        for (doc, outcome) in picks.iter().zip(outcomes) {
                            // The invariant is one *outcome* per document;
                            // under a generous retry budget and these
                            // fault rates every outcome is a result.
                            let served = outcome.unwrap_or_else(|e| {
                                panic!("pass {pass}: document failed outright: {e}")
                            });
                            assert!(served.valid, "pass {pass}: transfer flagged invalid");
                            assert_eq!(
                                served.result,
                                c.classify(doc),
                                "pass {pass}: chaos produced a wrong result — \
                                 corruption slipped past the checksum"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("soak client thread");
        }
    });

    let snap = server.shutdown();
    let floor = (THREADS * PASSES * docs.len()) as u64;
    assert!(
        snap.documents >= floor,
        "served {} documents, expected at least {floor}",
        snap.documents
    );
    assert!(
        snap.faults_injected >= 50,
        "chaos plan barely fired ({} faults) — the soak proved nothing",
        snap.faults_injected
    );
    assert!(
        snap.worker_panics >= 1,
        "no worker panic was injected: {snap:?}"
    );
    assert!(
        snap.worker_restarts >= 1,
        "the one-shot worker kill never forced a respawn: {snap:?}"
    );
}

#[test]
fn killed_worker_thread_is_respawned_without_losing_the_document() {
    // Deterministic self-healing, no rates involved: the pool-wide
    // one-shot kill fires on the 3rd job — mid-pipeline for the first
    // document — so its Query is still queued when the shard thread
    // dies. The supervisor's respawned thread must pick the queue back
    // up and deliver the result as if nothing happened.
    let c = classifier();
    let server = serve(
        Arc::clone(&c),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            chaos: Some(ChaosConfig {
                worker_kill_after: 3,
                ..ChaosConfig::default()
            }),
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let mut client = lcbloom::service::ClassifyClient::connect(server.addr()).expect("connect");
    for doc in [
        b"the committee shall deliver its opinion on the draft measures".as_slice(),
        b"le conseil de l'union europeenne a arrete le present reglement".as_slice(),
    ] {
        let served = client.classify(doc).expect("classify across the kill");
        assert!(served.valid);
        assert_eq!(served.result, c.classify(doc));
    }
    drop(client);
    let snap = server.shutdown();
    assert_eq!(snap.documents, 2);
    assert_eq!(
        snap.worker_restarts, 1,
        "exactly one respawn for the one-shot kill: {snap:?}"
    );
    assert_eq!(snap.protocol_errors, 0);
}

#[test]
fn worker_panic_mid_document_is_a_typed_fault_not_a_hang() {
    // worker_panic = 1.0: the very first command panics inside the
    // unwind guard. The client must get EngineFault back — promptly,
    // on the right connection — and the thread must survive to answer.
    let server = serve(
        classifier(),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            chaos: Some(ChaosConfig {
                seed: 1,
                worker_panic: 1.0,
                ..ChaosConfig::default()
            }),
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (kind, payload) = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(
        WireResponse::decode(kind, &payload).unwrap(),
        WireResponse::Hello { .. }
    ));
    WireCommand::Size {
        words: 4,
        bytes: 32,
        trace: None,
    }
    .encode(&mut stream)
    .unwrap();
    let (kind, payload) = read_frame(&mut stream).unwrap().expect("fault before EOF");
    match WireResponse::decode(kind, &payload).unwrap() {
        WireResponse::Error { code, .. } => assert_eq!(code, ErrorCode::EngineFault),
        other => panic!("expected EngineFault, got {other:?}"),
    }
    drop(stream);
    let snap = server.shutdown();
    assert!(snap.worker_panics >= 1, "{snap:?}");
    assert_eq!(
        snap.worker_restarts, 0,
        "a guarded panic must not kill the thread: {snap:?}"
    );
}

#[test]
fn repeated_worker_panics_answer_each_document_once() {
    // worker_panic = 1.0 on pipelined whole documents: every frame panics.
    // Each document's Size panic takes its one response slot; the panics
    // on its Data, EoD and Query hit a quarantined session whose document
    // was already answered, so they must stay silent — an EngineFault per
    // frame would shift every later response onto the wrong document.
    let server = serve(
        classifier(),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            chaos: Some(ChaosConfig {
                seed: 1,
                worker_panic: 1.0,
                ..ChaosConfig::default()
            }),
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (kind, payload) = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(
        WireResponse::decode(kind, &payload).unwrap(),
        WireResponse::Hello { .. }
    ));
    const DOCS: usize = 3;
    stream
        .write_all(&doc_burst(b"every frame of this document panics", DOCS))
        .unwrap();
    for _ in 0..DOCS {
        let (kind, payload) = read_frame(&mut stream).unwrap().expect("fault before EOF");
        match WireResponse::decode(kind, &payload).unwrap() {
            WireResponse::Error { code, .. } => assert_eq!(code, ErrorCode::EngineFault),
            other => panic!("expected EngineFault, got {other:?}"),
        }
    }
    // Every frame was applied (and panicked) before the shutdown joins the
    // worker; only then is the absence of a fourth response conclusive.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.metrics().snapshot().worker_panics < 4 * DOCS as u64
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    match read_frame(&mut stream) {
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) => {}
        other => panic!("a document was answered twice: {other:?}"),
    }
    let snap = server.shutdown();
    assert_eq!(snap.worker_panics, 4 * DOCS as u64, "{snap:?}");
}

/// One pipelined document burst (Size + Data + EoD + Query) as raw bytes.
fn doc_burst(doc: &[u8], copies: usize) -> Vec<u8> {
    let words = pack_words(doc);
    let mut bytes = Vec::new();
    for _ in 0..copies {
        WireCommand::Size {
            words: words.len() as u32,
            bytes: doc.len() as u32,
            trace: None,
        }
        .encode(&mut bytes)
        .unwrap();
        WireCommand::data_words(&words).encode(&mut bytes).unwrap();
        WireCommand::EndOfDocument.encode(&mut bytes).unwrap();
        WireCommand::QueryResult.encode(&mut bytes).unwrap();
    }
    bytes
}

#[test]
fn drain_under_load_finishes_in_flight_and_sheds_new_work() {
    // SIGTERM's code path, exercised directly: in-flight documents
    // complete with correct results, documents submitted after the drain
    // flag get a typed ShuttingDown (not silence, not a reset), new
    // connections are refused, and drain() returns within its deadline
    // once the last connection leaves.
    let c = classifier();
    let server = serve(
        Arc::clone(&c),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let addr = server.addr();
    let metrics = Arc::clone(server.metrics());

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (kind, payload) = read_frame(&mut stream).unwrap().unwrap();
    assert!(matches!(
        WireResponse::decode(kind, &payload).unwrap(),
        WireResponse::Hello { .. }
    ));

    // Phase 1: a 10-document pipeline, fully served before the drain.
    let doc = b"documents in flight before the drain must still classify";
    let expected = c.classify(doc);
    stream.write_all(&doc_burst(doc, 10)).unwrap();
    for _ in 0..10 {
        let (kind, payload) = read_frame(&mut stream).unwrap().expect("result before EOF");
        match WireResponse::decode(kind, &payload).unwrap() {
            WireResponse::Result {
                counts,
                total_ngrams,
                valid,
                ..
            } => {
                assert!(valid);
                assert_eq!(ClassificationResult::new(counts, total_ngrams), expected);
            }
            other => panic!("expected Result, got {other:?}"),
        }
    }

    // Phase 2: start draining while our connection is still open.
    let started = std::time::Instant::now();
    let deadline = Duration::from_secs(10);
    let drainer: std::thread::JoinHandle<lcbloom::service::MetricsSnapshot> =
        std::thread::spawn(move || server.drain(deadline));
    // The drain flag is set before drain() starts waiting; it is visible
    // from outside the instant new connections bounce.
    let armed = std::time::Instant::now() + Duration::from_secs(5);
    while metrics.snapshot().accepts_rejected == 0 {
        assert!(std::time::Instant::now() < armed, "drain never armed");
        let _ = std::net::TcpStream::connect(addr);
        std::thread::sleep(Duration::from_millis(5));
    }

    // Phase 3: late documents get ShuttingDown, one fault per document.
    stream.write_all(&doc_burst(doc, 5)).unwrap();
    for _ in 0..5 {
        let (kind, payload) = read_frame(&mut stream).unwrap().expect("fault before EOF");
        match WireResponse::decode(kind, &payload).unwrap() {
            WireResponse::Error { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
    }

    // Phase 4: the last client leaves; drain must come home early.
    drop(stream);
    let snap = drainer.join().expect("drain thread");
    assert!(
        started.elapsed() < deadline,
        "drain used its whole deadline despite an idle server"
    );
    assert_eq!(snap.documents, 10, "late documents must not be classified");
    assert!(snap.drain_shed >= 5, "{snap:?}");
    assert_eq!(snap.connections_current, 0, "{snap:?}");
}

#[test]
fn drain_deadline_bounds_a_stuck_client() {
    // A peer that never disconnects cannot hold shutdown hostage: drain
    // waits out its deadline, then force-closes everything.
    let server: ServerHandle = serve(
        classifier(),
        "127.0.0.1:0",
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("bind localhost");
    let addr = server.addr();
    // Reading the Hello pins the connection as registered (counted in
    // `connections_current`) before the drain flag can bounce it.
    let mut parked = std::net::TcpStream::connect(addr).expect("connect");
    parked
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let (kind, payload) = read_frame(&mut parked).unwrap().unwrap();
    assert!(matches!(
        WireResponse::decode(kind, &payload).unwrap(),
        WireResponse::Hello { .. }
    ));
    let started = std::time::Instant::now();
    let snap = server.drain(Duration::from_millis(300));
    let took = started.elapsed();
    assert!(
        took >= Duration::from_millis(300),
        "drain returned before the parked client's deadline: {took:?}"
    );
    assert!(
        took < Duration::from_secs(5),
        "drain overshot its deadline wildly: {took:?}"
    );
    assert_eq!(snap.connections, 1);
}
