//! `BENCH_service.json` emitter: aggregate served throughput of the TCP
//! classification service on the paper's 8-language × (k = 4, m = 16 Kbit)
//! configuration, with concurrent pipelined clients over localhost.
//!
//! Seven scenarios:
//!
//! * **Worker scaling** (1 vs 4 workers, 8 clients): the §3.3 replication
//!   argument — one worker is one match engine, four are the replicated
//!   fabric.
//! * **Connections sweep** (8 / 64 / 256 clients, 4 workers): the
//!   event-driven connection layer must hold its throughput as the
//!   connection count climbs past what thread-per-connection could carry.
//! * **Channel sweep** (ONE connection × 1 / 4 / 16 wire-v2 channels,
//!   4 workers): the fat-pipe ceiling. A single-channel connection tops
//!   out at one engine; multiplexed channels hash across the pool, so the
//!   same single socket must beat its own single-channel throughput. The
//!   rounds also count Data frames vs payload copies and **assert the
//!   reactor→worker path copied zero payloads** (the refcounted-rope
//!   zero-copy claim, verified live).
//! * **Slow reader** (64 clients + 1 peer that never reads a response,
//!   tight high-water/deadline policy): served throughput must not
//!   care, and the JSON records the slow-consumer resets that prove the
//!   policy fired instead of a shard stalling.
//! * **Fault mode** (clean vs seeded chaos at ~1% combined rate,
//!   interleaved rounds): injected short reads/writes, dropped wakes,
//!   payload corruption, worker delays and panics. The round asserts the
//!   one-response-per-document accounting survives and that recovery
//!   costs less than half the clean throughput.
//! * **Observability overhead** (plain vs `--trace-ring` plus a live
//!   `GetStats` poller): the ring/stats introspection plane's A/B.
//! * **Tracing overhead** (baseline vs span plane off / 1-in-64 / 1-in-1
//!   head sampling): the per-document span plane's A/B; the sampled-off
//!   arm must cost nothing beyond a branch.
//!
//! Clients keep a small window of documents in flight per connection
//! (Size/Data/EoD/Query for document *n+1* may follow document *n*'s Query
//! immediately — the protocol consumes the latch in order), so the bench
//! measures engine capacity, not round-trip latency. Each configuration is
//! measured in interleaved rounds and reported as the median, which
//! cancels slow-container drift.
//!
//! Run from the workspace root with:
//!
//! ```text
//! cargo run --release -p lc-bench --bin bench_service
//! ```
//!
//! Knobs: `LC_BENCH_SERVICE_DOCS` (measured documents per round, default
//! 600), `LC_BENCH_DOC_BYTES` (mean document size, default 10 KiB),
//! `LC_BENCH_SERVICE_CLIENTS` (baseline concurrent clients, default 8),
//! and `LC_BENCH_OUT` (output path, default `BENCH_service.json`).

use lc_bloom::BloomParams;
use lc_core::MultiLanguageClassifier;
use lc_corpus::{Corpus, CorpusConfig, Language};
use lc_service::{
    histogram_percentile_us, raise_nofile_limit, serve, ChaosConfig, ClassifyClient,
    MetricsSnapshot, ServiceConfig, LATENCY_BOUNDS_US, LATENCY_BUCKETS,
};
use lc_wire::{read_frame, read_frame_mux, write_data_frame_on, WireCommand, WireResponse};
use std::io::{BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Documents in flight per connection.
const PIPELINE_DEPTH: usize = 4;

/// Pre-fusion baseline (two-phase extract-to-Vec-then-probe worker loop),
/// recorded on this host class before extraction was fused into the bank
/// probe — the MB/s-per-worker the fused path must beat. Kept in the
/// emitted JSON so the comparison survives re-runs.
const PRE_FUSION_WORKERS_1_MB_S: f64 = 25.3;
const PRE_FUSION_WORKERS_4_MB_S: f64 = 30.2;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn send_doc<W: Write>(w: &mut W, doc: &[u8]) {
    send_doc_on(w, 0, doc);
}

fn send_doc_on<W: Write>(w: &mut W, channel: u16, doc: &[u8]) {
    let words = (doc.len() as u64).div_ceil(8);
    WireCommand::Size {
        words: words as u32,
        bytes: doc.len() as u32,
        trace: None,
    }
    .encode_on(channel, w)
    .expect("send Size");
    let whole = doc.len() / 8 * 8;
    write_data_frame_on(w, channel, &doc[..whole]).expect("send Data");
    if whole < doc.len() {
        let mut tail = [0u8; 8];
        tail[..doc.len() - whole].copy_from_slice(&doc[whole..]);
        write_data_frame_on(w, channel, &tail).expect("send tail Data");
    }
    WireCommand::EndOfDocument
        .encode_on(channel, w)
        .expect("send EoD");
    WireCommand::QueryResult
        .encode_on(channel, w)
        .expect("send Query");
}

fn read_result<R: std::io::Read>(reader: &mut R) {
    let (kind, payload) = read_frame(reader)
        .expect("read response")
        .expect("response before EOF");
    match WireResponse::decode(kind, &payload).expect("decode response") {
        WireResponse::Result { valid, .. } => assert!(valid),
        other => panic!("expected Result, got {other:?}"),
    }
}

/// Fault-mode read: a document under chaos injection still gets exactly
/// one response, but it may be a typed fault (an injected worker panic
/// answers `EngineFault` and swallows the rest of the document). Count
/// it; the per-window response accounting stays exact either way.
fn read_result_or_fault<R: std::io::Read>(reader: &mut R, faults: &AtomicUsize) {
    let (kind, payload) = read_frame(reader)
        .expect("read response")
        .expect("response before EOF");
    match WireResponse::decode(kind, &payload).expect("decode response") {
        WireResponse::Result { valid, .. } => assert!(valid),
        WireResponse::Error { .. } => {
            faults.fetch_add(1, Ordering::Relaxed);
        }
        other => panic!("expected Result or Error, got {other:?}"),
    }
}

/// One measured round's outcome.
#[derive(Clone)]
struct Round {
    docs_per_s: f64,
    mb_per_s: f64,
    slow_consumer_resets: u64,
    faulted_docs: u64,
    faults_injected: u64,
    /// Wire-v2 `GetStats` reports pulled mid-round by the poller thread
    /// (nonzero only in the observability-overhead scenario).
    stats_polls: u64,
    /// The server's shutdown snapshot. `shutdown()` joins every reactor
    /// and worker thread first, so this is a **quiesced** snapshot — the
    /// per-shard and per-stage numbers are exact, not torn (see
    /// `ServiceMetrics::snapshot` for the mid-load tearing model).
    snapshot: MetricsSnapshot,
}

/// One measured round: serve with `config`, hammer with `clients` (plus
/// optionally one peer that never reads a response), return throughput
/// over `measure_docs` documents served to the *well-behaved* clients.
fn run_round(
    classifier: &Arc<MultiLanguageClassifier>,
    docs: &[Vec<u8>],
    config: ServiceConfig,
    clients: usize,
    measure_docs: usize,
    slow_reader: bool,
    poll_stats: bool,
) -> Round {
    let tolerate_faults = config.chaos.is_some();
    let server = serve(Arc::clone(classifier), "127.0.0.1:0", config).expect("bind localhost");
    let addr = server.addr();
    let metrics = Arc::clone(server.metrics());

    let faults = AtomicUsize::new(0);
    let budget = AtomicUsize::new(measure_docs);
    let barrier = Barrier::new(clients + 1 + usize::from(slow_reader) + usize::from(poll_stats));
    let stats_polls = AtomicUsize::new(0);
    let bytes_served = AtomicUsize::new(0);
    // Last client to drain the budget stamps the finish line, so the
    // measured span never includes the slow peer's deliberate lingering.
    let finished: std::sync::Mutex<Option<Instant>> = std::sync::Mutex::new(None);

    let started = std::thread::scope(|s| {
        if slow_reader {
            s.spawn(|| {
                let mut stream = TcpStream::connect(addr).expect("connect slow");
                let (kind, payload) = read_frame(&mut stream).unwrap().unwrap();
                assert!(matches!(
                    WireResponse::decode(kind, &payload).unwrap(),
                    WireResponse::Hello { .. }
                ));
                // Pipeline thousands of tiny documents and never read a
                // response; nonblocking writes, because once the server
                // masks this peer nothing drains the socket.
                let mut burst = Vec::new();
                for _ in 0..4000 {
                    send_doc(&mut burst, b"a peer that never reads");
                }
                stream.set_nonblocking(true).expect("nonblocking");
                barrier.wait();
                let mut written = 0usize;
                // Stay connected past the measurement until the reset
                // policy has visibly fired (or a bounded grace expires).
                let linger = Instant::now() + std::time::Duration::from_secs(5);
                while metrics.slow_consumer_resets.load(Ordering::Relaxed) == 0
                    && Instant::now() < linger
                {
                    if written < burst.len() {
                        match stream.write(&burst[written..]) {
                            Ok(n) => {
                                written += n;
                                continue;
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                            Err(_) => written = burst.len(), // reset by the server
                        }
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            });
        }
        if poll_stats {
            // The observability-overhead scenario's live consumer: a
            // dedicated connection pulling full `GetStats(detail=1)`
            // reports (ring dumps included) throughout the measured span,
            // the way a dashboard or watchdog would.
            s.spawn(|| {
                let mut c = ClassifyClient::connect(addr).expect("connect stats poller");
                barrier.wait();
                while (budget.load(Ordering::Relaxed) as isize) > 0 {
                    let snap = c.stats(1).expect("mid-load stats");
                    // Upper bound: warmup (one window per client) plus the
                    // measured budget. Mid-load reads may tear *low*, never
                    // count documents that were never sent.
                    assert!(
                        snap.documents <= (measure_docs + clients * PIPELINE_DEPTH) as u64,
                        "mid-load snapshot counted {} documents, more than ever sent",
                        snap.documents
                    );
                    stats_polls.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        }
        for _ in 0..clients {
            s.spawn(|| {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).expect("nodelay");
                // Big write buffer + buffered response reads: the load
                // generator flushes once per pipeline window and reads
                // whole response bursts per syscall, so measured cost is
                // the server's, not the harness's syscall tax (which
                // dwarfs real hardware's under sandboxed kernels).
                let mut writer =
                    BufWriter::with_capacity(256 * 1024, stream.try_clone().expect("clone"));
                let mut reader = std::io::BufReader::with_capacity(64 * 1024, stream);
                let (kind, payload) = read_frame(&mut reader).unwrap().unwrap();
                assert!(matches!(
                    WireResponse::decode(kind, &payload).unwrap(),
                    WireResponse::Hello { .. }
                ));
                // Warmup: one windowful through the engine.
                for i in 0..PIPELINE_DEPTH {
                    send_doc(&mut writer, &docs[i % docs.len()]);
                }
                writer.flush().unwrap();
                for _ in 0..PIPELINE_DEPTH {
                    if tolerate_faults {
                        read_result_or_fault(&mut reader, &faults);
                    } else {
                        read_result(&mut reader);
                    }
                }
                barrier.wait();

                // Window bursts: send a windowful, flush once, drain the
                // window's responses in one buffered pass. One syscall-ish
                // per window on each side instead of several per document;
                // the other clients keep the engines busy meanwhile.
                loop {
                    let mut batch = 0usize;
                    while batch < PIPELINE_DEPTH {
                        let left = budget.fetch_sub(1, Ordering::Relaxed) as isize;
                        if left <= 0 {
                            break;
                        }
                        let doc = &docs[left as usize % docs.len()];
                        send_doc(&mut writer, doc);
                        bytes_served.fetch_add(doc.len(), Ordering::Relaxed);
                        batch += 1;
                    }
                    if batch == 0 {
                        break;
                    }
                    writer.flush().unwrap();
                    for _ in 0..batch {
                        if tolerate_faults {
                            read_result_or_fault(&mut reader, &faults);
                        } else {
                            read_result(&mut reader);
                        }
                    }
                    if batch < PIPELINE_DEPTH {
                        break; // budget drained mid-window
                    }
                }
                let mut slot = finished.lock().unwrap();
                let now = Instant::now();
                if slot.is_none_or(|t| now > t) {
                    *slot = Some(now);
                }
            });
        }
        barrier.wait();
        Instant::now()
    });

    // The scope joined every client, so the finish stamp (last writer
    // wins, serialized by the lock) is from the last document served.
    let end = finished
        .lock()
        .unwrap()
        .expect("at least one client finished");
    let elapsed = end.duration_since(started);

    let snap = server.shutdown();
    let secs = elapsed.as_secs_f64();
    Round {
        docs_per_s: measure_docs as f64 / secs,
        mb_per_s: bytes_served.load(Ordering::Relaxed) as f64 / 1e6 / secs,
        slow_consumer_resets: snap.slow_consumer_resets,
        faulted_docs: faults.load(Ordering::Relaxed) as u64,
        faults_injected: snap.faults_injected,
        stats_polls: stats_polls.load(Ordering::Relaxed) as u64,
        snapshot: snap,
    }
}

/// One channel-sweep round: ONE connection drives a `workers`-shard
/// server over `channels` wire-v2 channels (documents dealt round-robin,
/// `PIPELINE_DEPTH` in flight per channel), measuring docs/s over
/// `measure_docs`. Returns the throughput plus the server's Data-frame
/// and payload-copy counters — the zero-copy proof rides along.
fn run_mux_round(
    classifier: &Arc<MultiLanguageClassifier>,
    docs: &[Vec<u8>],
    workers: usize,
    channels: u16,
    measure_docs: usize,
) -> (Round, u64, u64) {
    let config = ServiceConfig {
        workers,
        // Shard queues sized to the offered mux concurrency, as the
        // connections sweep does for client concurrency.
        queue_depth: 64.max(channels as usize * PIPELINE_DEPTH),
        ..ServiceConfig::default()
    };
    let server = serve(Arc::clone(classifier), "127.0.0.1:0", config).expect("bind localhost");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = BufWriter::with_capacity(256 * 1024, stream.try_clone().expect("clone"));
    let mut reader = std::io::BufReader::with_capacity(64 * 1024, stream);
    let (kind, _ch, payload) = read_frame_mux(&mut reader).unwrap().unwrap();
    assert!(matches!(
        WireResponse::decode(kind, &payload).unwrap(),
        WireResponse::Hello { .. }
    ));

    let window = channels as usize * PIPELINE_DEPTH;
    let lane_of = |i: usize| (i % channels as usize) as u16 + 1;
    // Warmup: one windowful through every engine the channels hash to.
    for i in 0..window {
        send_doc_on(&mut writer, lane_of(i), &docs[i % docs.len()]);
    }
    writer.flush().unwrap();
    for _ in 0..window {
        let (kind, _ch, payload) = read_frame_mux(&mut reader)
            .unwrap()
            .expect("warmup response");
        match WireResponse::decode(kind, &payload).expect("decode response") {
            WireResponse::Result { valid, .. } => assert!(valid),
            other => panic!("expected Result, got {other:?}"),
        }
    }

    // Window bursts, exactly like the multi-client harness: send a
    // windowful across all channels, flush once, drain the responses in
    // one buffered pass (they come back channel-tagged, cross-channel
    // order arbitrary — the count is what matters here).
    let started = Instant::now();
    let mut sent = 0usize;
    let mut bytes = 0usize;
    while sent < measure_docs {
        let batch = window.min(measure_docs - sent);
        for _ in 0..batch {
            let doc = &docs[sent % docs.len()];
            send_doc_on(&mut writer, lane_of(sent), doc);
            bytes += doc.len();
            sent += 1;
        }
        writer.flush().unwrap();
        for _ in 0..batch {
            let (kind, _ch, payload) = read_frame_mux(&mut reader).unwrap().expect("response");
            match WireResponse::decode(kind, &payload).expect("decode response") {
                WireResponse::Result { valid, .. } => assert!(valid),
                other => panic!("expected Result, got {other:?}"),
            }
        }
    }
    let elapsed = started.elapsed();

    drop(writer);
    drop(reader);
    // `shutdown()` joins every reactor and worker before snapshotting, so
    // this is a quiesced snapshot: the zero-copy assertion below reads an
    // exact counter, not a mid-load approximation that could tear (every
    // response was received above, and no thread is still recording).
    let snap = server.shutdown();
    assert_eq!(
        snap.payload_copies, 0,
        "reactor→worker Data path must be zero-copy (copied {} of {} frames)",
        snap.payload_copies, snap.data_frames,
    );
    let secs = elapsed.as_secs_f64();
    let (data_frames, payload_copies) = (snap.data_frames, snap.payload_copies);
    (
        Round {
            docs_per_s: measure_docs as f64 / secs,
            mb_per_s: bytes as f64 / 1e6 / secs,
            slow_consumer_resets: snap.slow_consumer_resets,
            faulted_docs: 0,
            faults_injected: 0,
            stats_polls: 0,
            snapshot: snap,
        },
        data_frames,
        payload_copies,
    )
}

/// Per-shard JSON from a quiesced snapshot: who latched the documents,
/// how long each engine was busy, how deep its queue got, how often
/// commands parked waiting for it.
fn per_shard_json(snap: &MetricsSnapshot) -> String {
    let shards: Vec<String> = snap
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{ \"shard\": {}, \"docs\": {}, \"busy_ms\": {:.1}, \"queue_depth_peak\": {}, \"parked\": {}, \"jobs\": {} }}",
                i,
                s.docs,
                s.busy_ns as f64 / 1e6,
                s.queue_depth_peak,
                s.parked,
                s.jobs
            )
        })
        .collect();
    format!("[ {} ]", shards.join(", "))
}

/// Per-stage latency JSON (p50/p95/p99 in µs) from a quiesced snapshot.
/// A percentile that lands in the overflow bucket reports an explicit
/// `{ "gt_us": 300000 }` object — beyond the largest tracked bound, not a
/// measured value (never the raw `u64::MAX` sentinel, whose signed cast
/// used to serialize as a misleading `-1`). An empty histogram reports
/// `null`.
fn latency_stages_json(snap: &MetricsSnapshot) -> String {
    let stage = |name: &str, hist: &[u64; LATENCY_BUCKETS]| {
        let pct = |q: f64| match histogram_percentile_us(hist, q) {
            None => "null".to_string(),
            Some(u64::MAX) => format!(
                "{{ \"gt_us\": {} }}",
                LATENCY_BOUNDS_US[LATENCY_BOUNDS_US.len() - 1]
            ),
            Some(v) => v.to_string(),
        };
        format!(
            "\"{}\": {{ \"n\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {} }}",
            name,
            hist.iter().sum::<u64>(),
            pct(0.50),
            pct(0.95),
            pct(0.99)
        )
    };
    format!(
        "{{ {}, {}, {}, {} }}",
        stage("latency", &snap.latency),
        stage("queue_wait", &snap.queue_wait),
        stage("classify", &snap.classify),
        stage("response_drain", &snap.response_drain)
    )
}

fn median(mut xs: Vec<Round>) -> Round {
    xs.sort_by(|a, b| a.docs_per_s.partial_cmp(&b.docs_per_s).unwrap());
    let resets = xs.iter().map(|r| r.slow_consumer_resets).max().unwrap_or(0);
    let mid = xs.swap_remove(xs.len() / 2);
    Round {
        slow_consumer_resets: resets,
        ..mid
    }
}

fn main() {
    raise_nofile_limit(4096).expect("raise fd limit for the connections sweep");
    let params = BloomParams::PAPER_CONSERVATIVE;
    let profile_size = 5000;
    let mean_doc_bytes = env_usize("LC_BENCH_DOC_BYTES", 10 * 1024);
    let measure_docs = env_usize("LC_BENCH_SERVICE_DOCS", 600);
    let clients = env_usize("LC_BENCH_SERVICE_CLIENTS", 8).max(4);

    let corpus = Corpus::generate_for(
        &Language::ALL[..8],
        CorpusConfig {
            docs_per_language: 12,
            mean_doc_bytes,
            ..CorpusConfig::default()
        },
    );
    let builder = lc_bench::builder_for(&corpus, profile_size);
    let classifier = Arc::new(builder.build_bloom(params, 7));
    let docs: Vec<Vec<u8>> = corpus.split().test_all().map(|d| d.text.clone()).collect();
    let mean_measured = docs.iter().map(Vec::len).sum::<usize>() / docs.len();
    eprintln!(
        "serving {} languages, k={}, m={} Kbit; {} docs/round of ~{} bytes, {} clients × window {}",
        classifier.num_languages(),
        params.k,
        params.m_kbits(),
        measure_docs,
        mean_measured,
        clients,
        PIPELINE_DEPTH,
    );

    let workers_config = |workers: usize| ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };

    // Scenario 1: worker scaling at the baseline client count, the two
    // worker counts interleaved round by round.
    const ROUNDS: usize = 5;
    let scenario1 = [1usize, 4];
    let mut samples: Vec<Vec<Round>> = vec![Vec::new(); scenario1.len()];
    for round in 0..ROUNDS {
        for (ci, &workers) in scenario1.iter().enumerate() {
            let r = run_round(
                &classifier,
                &docs,
                workers_config(workers),
                clients,
                measure_docs,
                false,
                false,
            );
            eprintln!(
                "round {round}, workers={workers}: {:.0} docs/s, {:.1} MB/s",
                r.docs_per_s, r.mb_per_s
            );
            samples[ci].push(r);
        }
    }
    let four = median(samples.pop().expect("workers=4 samples"));
    let one = median(samples.pop().expect("workers=1 samples"));
    let speedup = four.docs_per_s / one.docs_per_s;

    // Scenario 2: connections sweep at 4 workers — the event-driven layer
    // must hold throughput as the connection count climbs. The budget
    // scales with the client count so the measured span is dominated by
    // steady-state service, not by draining the last windowful (at 256
    // clients the pipeline alone holds 1024 documents in flight). Rounds
    // interleave the client counts so neighbor-load drift hits every
    // point alike — cross-point comparisons are the whole point here.
    const SWEEP_ROUNDS: usize = 3;
    let sweep_clients = [8usize, 64, 256];
    let sweep_budget = |n: usize| measure_docs.max(n * PIPELINE_DEPTH * 8);
    // Size shard queues to the offered concurrency, as a deployment at
    // this connection count would: with default-depth queues the pipeline
    // (clients × window) saturates them and every command takes the
    // park-and-retry path.
    let sweep_config = |n: usize| ServiceConfig {
        queue_depth: 64.max(n * PIPELINE_DEPTH / 4),
        ..workers_config(4)
    };
    let mut sweep_samples: Vec<Vec<Round>> = vec![Vec::new(); sweep_clients.len()];
    for round in 0..SWEEP_ROUNDS {
        for (i, &n) in sweep_clients.iter().enumerate() {
            let r = run_round(
                &classifier,
                &docs,
                sweep_config(n),
                n,
                sweep_budget(n),
                false,
                false,
            );
            eprintln!(
                "sweep round {round}, clients={n}: {:.0} docs/s, {:.1} MB/s",
                r.docs_per_s, r.mb_per_s
            );
            sweep_samples[i].push(r);
        }
    }
    let sweep: Vec<(usize, usize, Round)> = sweep_clients
        .iter()
        .zip(sweep_samples)
        .map(|(&n, rounds)| (n, sweep_budget(n), median(rounds)))
        .collect();

    // Scenario 3: the channel sweep — ONE connection, 4 workers, 1/4/16
    // wire-v2 channels, interleaved rounds. The single-channel point is
    // the fat-pipe ceiling (one socket = one engine); the multiplexed
    // points must lift it. Every round asserts zero payload copies.
    let sweep_channels: [u16; 3] = [1, 4, 16];
    let mux_budget = measure_docs.max(16 * PIPELINE_DEPTH * 8);
    let mut mux_samples: Vec<Vec<Round>> = vec![Vec::new(); sweep_channels.len()];
    let mut mux_data_frames = 0u64;
    let mut mux_payload_copies = 0u64;
    for round in 0..SWEEP_ROUNDS {
        for (i, &n) in sweep_channels.iter().enumerate() {
            let (r, frames, copies) = run_mux_round(&classifier, &docs, 4, n, mux_budget);
            eprintln!(
                "channel sweep round {round}, channels={n}: {:.0} docs/s, {:.1} MB/s \
                 ({frames} data frames, {copies} payload copies)",
                r.docs_per_s, r.mb_per_s
            );
            mux_data_frames += frames;
            mux_payload_copies += copies;
            mux_samples[i].push(r);
        }
    }
    let mux: Vec<(u16, Round)> = sweep_channels
        .iter()
        .zip(mux_samples)
        .map(|(&n, rounds)| (n, median(rounds)))
        .collect();
    let mux_one = mux[0].1.docs_per_s;
    let mux_best = mux[1..]
        .iter()
        .map(|(_, r)| r.docs_per_s)
        .fold(f64::MIN, f64::max);
    // Hard-fail only on a catastrophic regression (mux markedly *slower*
    // than its own single channel): the exact speedup is
    // container-dependent and the shared CI runner swings ±30% with
    // neighbor load, so a strict > 1.0 assert here would flake. The
    // recorded JSON ratio is the reviewable signal.
    assert!(
        mux_best > 0.8 * mux_one,
        "a multiplexed connection (best {mux_best:.0} docs/s) fell far below its own \
         single-channel throughput ({mux_one:.0} docs/s)"
    );
    if mux_best <= mux_one {
        eprintln!(
            "WARNING: channel sweep did not beat single-channel this run \
             ({:.2}x; container noise?) — see channel_sweep in the JSON",
            mux_best / mux_one
        );
    }

    // Scenario 4: 64 clients plus one peer that never reads, under a
    // policy tight enough to observe resets within the round.
    let slow_config = ServiceConfig {
        workers: 4,
        send_buffer: 4096,
        outbound_high_water: 64 * 1024,
        slow_consumer_deadline: std::time::Duration::from_millis(500),
        ..ServiceConfig::default()
    };
    let slow_budget = measure_docs.max(64 * PIPELINE_DEPTH * 8);
    let mut slow_rounds = Vec::new();
    for round in 0..SWEEP_ROUNDS {
        let r = run_round(
            &classifier,
            &docs,
            slow_config.clone(),
            64,
            slow_budget,
            true,
            false,
        );
        eprintln!(
            "slow-reader round {round}: {:.0} docs/s, {:.1} MB/s, {} resets",
            r.docs_per_s, r.mb_per_s, r.slow_consumer_resets
        );
        slow_rounds.push(r);
    }
    let slow = median(slow_rounds);

    // Scenario 5: fault mode — the seeded chaos plan at ~1% combined rate
    // (engine delays and panics, payload corruption, short reads/writes,
    // dropped wakes; no connection resets, which would kill the raw
    // harness). Interleaved clean-vs-chaos rounds on the same config, so
    // the throughput ratio isolates the cost of injected faults plus the
    // recovery work from container drift. A served document under chaos
    // still gets exactly one response (possibly a typed fault) — the
    // accounting below would hang or desync otherwise, so finishing *is*
    // part of the assertion.
    let chaos = ChaosConfig {
        seed: 0xC4A0_5EED,
        short_read: 0.01,
        short_write: 0.01,
        wake_drop: 0.005,
        corrupt_payload: 0.005,
        worker_delay: 0.01,
        worker_delay_ms: 1,
        worker_panic: 0.005,
        ..ChaosConfig::default()
    };
    let mut fault_clean_rounds = Vec::new();
    let mut fault_chaos_rounds = Vec::new();
    for round in 0..SWEEP_ROUNDS {
        let clean = run_round(
            &classifier,
            &docs,
            workers_config(4),
            clients,
            measure_docs,
            false,
            false,
        );
        let chaotic = run_round(
            &classifier,
            &docs,
            ServiceConfig {
                chaos: Some(chaos.clone()),
                ..workers_config(4)
            },
            clients,
            measure_docs,
            false,
            false,
        );
        eprintln!(
            "fault-mode round {round}: clean {:.0} docs/s vs chaos {:.0} docs/s \
             ({} faults injected, {} documents answered with a typed fault)",
            clean.docs_per_s, chaotic.docs_per_s, chaotic.faults_injected, chaotic.faulted_docs
        );
        fault_clean_rounds.push(clean);
        fault_chaos_rounds.push(chaotic);
    }
    let fault_clean = median(fault_clean_rounds);
    let fault_chaos = median(fault_chaos_rounds);
    let fault_ratio = fault_chaos.docs_per_s / fault_clean.docs_per_s;
    assert!(
        fault_ratio > 0.5,
        "a ~1% fault rate halved throughput ({:.0} vs {:.0} docs/s): \
         recovery is too expensive",
        fault_chaos.docs_per_s,
        fault_clean.docs_per_s
    );
    assert!(
        fault_chaos.faults_injected > 0,
        "the chaos plan never fired; the fault-mode round measured nothing"
    );

    // Scenario 6: observability overhead — interleaved A/B rounds of the
    // same load with the introspection plane fully off (no event ring,
    // nobody polling) versus fully on (`trace_ring` recording every
    // reactor event plus a dedicated connection pulling complete
    // `GetStats(detail=1)` reports — ring dumps included — every ~2 ms
    // mid-load, the way a dashboard would). The plane is relaxed atomics
    // plus a fixed-size ring write per event, so the cost should be
    // noise; the exact ratio is recorded for review and only a
    // catastrophic (>20%) loss fails, because the shared container
    // swings ±30% round to round.
    // More rounds than the sweeps: each round is cheap (600 docs), and
    // the quantity under test — a few percent of throughput — is smaller
    // than the container's per-round noise, so the median needs depth.
    const OBS_ROUNDS: usize = 9;
    let mut obs_plain_rounds = Vec::new();
    let mut obs_on_rounds = Vec::new();
    for round in 0..OBS_ROUNDS {
        let plain = run_round(
            &classifier,
            &docs,
            workers_config(4),
            clients,
            measure_docs,
            false,
            false,
        );
        let observed = run_round(
            &classifier,
            &docs,
            ServiceConfig {
                trace_ring: true,
                ..workers_config(4)
            },
            clients,
            measure_docs,
            false,
            true,
        );
        eprintln!(
            "observability round {round}: plain {:.0} docs/s vs observed {:.0} docs/s \
             ({} live stats polls answered mid-load)",
            plain.docs_per_s, observed.docs_per_s, observed.stats_polls
        );
        obs_plain_rounds.push(plain);
        obs_on_rounds.push(observed);
    }
    let obs_plain = median(obs_plain_rounds);
    let obs_on = median(obs_on_rounds);
    let obs_ratio = obs_on.docs_per_s / obs_plain.docs_per_s;
    assert!(
        obs_ratio > 0.8,
        "the introspection plane cost {:.0}% throughput ({:.0} vs {:.0} docs/s): \
         stats frames and the event ring must stay off the hot path",
        (1.0 - obs_ratio) * 100.0,
        obs_on.docs_per_s,
        obs_plain.docs_per_s,
    );
    assert!(
        obs_on.stats_polls > 0,
        "the stats poller never completed a GetStats round trip mid-load"
    );

    // Scenario 7: tracing overhead — the per-document span plane's A/B,
    // alongside (and separate from) the ring/stats plane above. Four
    // interleaved arms on identical load:
    //   baseline   no span plane at all (the pre-tracing server),
    //   off        plane allocated but head sampling keeps nothing (a
    //              `--trace-slow-us` threshold no document crosses), so
    //              each document pays exactly the sampled-off branch,
    //   1-in-64    production-style head sampling,
    //   1-in-1     every document builds and buffers a span record.
    // Spans reuse the timestamps the metrics path already takes, so even
    // the 1-in-1 arm should be noise; the exact ratios are recorded and
    // only the off arm is asserted — its cost is a branch and must stay
    // within the container's round-to-round swing of free.
    const TRACE_ROUNDS: usize = 9;
    let trace_arm = |sample: u32, slow_us: u64| ServiceConfig {
        trace_sample: sample,
        trace_slow_us: slow_us,
        ..workers_config(4)
    };
    let mut trace_rounds: [Vec<Round>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for round in 0..TRACE_ROUNDS {
        let arms = [
            trace_arm(0, 0),        // baseline: spans never allocated
            trace_arm(0, u64::MAX), // off: plane live, nothing sampled
            trace_arm(64, 0),
            trace_arm(1, 0),
        ];
        for (i, config) in arms.into_iter().enumerate() {
            let r = run_round(
                &classifier,
                &docs,
                config,
                clients,
                measure_docs,
                false,
                false,
            );
            trace_rounds[i].push(r);
        }
        eprintln!(
            "tracing round {round}: baseline {:.0} / off {:.0} / 1-in-64 {:.0} / 1-in-1 {:.0} docs/s",
            trace_rounds[0].last().unwrap().docs_per_s,
            trace_rounds[1].last().unwrap().docs_per_s,
            trace_rounds[2].last().unwrap().docs_per_s,
            trace_rounds[3].last().unwrap().docs_per_s,
        );
    }
    let [trace_base_rounds, trace_off_rounds, trace_s64_rounds, trace_s1_rounds] = trace_rounds;
    let trace_base = median(trace_base_rounds);
    let trace_off = median(trace_off_rounds);
    let trace_s64 = median(trace_s64_rounds);
    let trace_s1 = median(trace_s1_rounds);
    let trace_off_ratio = trace_off.docs_per_s / trace_base.docs_per_s;
    let trace_s64_ratio = trace_s64.docs_per_s / trace_base.docs_per_s;
    let trace_s1_ratio = trace_s1.docs_per_s / trace_base.docs_per_s;
    assert!(
        trace_off_ratio >= 0.95,
        "sampling-off tracing cost {:.0}% throughput ({:.0} vs {:.0} docs/s): \
         the unsampled path must stay a branch",
        (1.0 - trace_off_ratio) * 100.0,
        trace_off.docs_per_s,
        trace_base.docs_per_s,
    );

    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(n, budget, r)| {
            format!(
                "{{ \"clients\": {}, \"measured_documents\": {}, \"docs_per_s\": {:.1}, \"mb_per_s\": {:.1},\n      \"per_shard\": {},\n      \"latency_stages\": {} }}",
                n,
                budget,
                r.docs_per_s,
                r.mb_per_s,
                per_shard_json(&r.snapshot),
                latency_stages_json(&r.snapshot)
            )
        })
        .collect();
    let mux_points: Vec<String> = mux
        .iter()
        .map(|(n, r)| {
            format!(
                "{{ \"channels\": {}, \"docs_per_s\": {:.1}, \"mb_per_s\": {:.1} }}",
                n, r.docs_per_s, r.mb_per_s
            )
        })
        .collect();
    let channel_sweep_json = format!(
        "\"channel_sweep\": {{ \"workers\": 4, \"connections\": 1, \"rounds\": {}, \"measured_documents\": {}, \"points\": [\n    {}\n  ], \"mux_speedup_vs_single_channel\": {:.2} }},\n  \"zero_copy\": {{ \"data_frames\": {}, \"payload_copies\": {}, \"copies_per_frame\": {:.1} }}",
        SWEEP_ROUNDS,
        mux_budget,
        mux_points.join(",\n    "),
        mux_best / mux_one,
        mux_data_frames,
        mux_payload_copies,
        mux_payload_copies as f64 / mux_data_frames.max(1) as f64,
    );
    let fault_mode_json = format!(
        "\"fault_mode\": {{ \"workers\": 4, \"clients\": {}, \"rounds\": {}, \"measured_documents\": {}, \"seed\": {}, \"rates\": {{ \"short_read\": {}, \"short_write\": {}, \"wake_drop\": {}, \"corrupt_payload\": {}, \"worker_delay\": {}, \"worker_panic\": {} }}, \"clean_docs_per_s\": {:.1}, \"chaos_docs_per_s\": {:.1}, \"throughput_ratio\": {:.2}, \"faults_injected\": {}, \"docs_answered_with_fault\": {} }}",
        clients,
        SWEEP_ROUNDS,
        measure_docs,
        chaos.seed,
        chaos.short_read,
        chaos.short_write,
        chaos.wake_drop,
        chaos.corrupt_payload,
        chaos.worker_delay,
        chaos.worker_panic,
        fault_clean.docs_per_s,
        fault_chaos.docs_per_s,
        fault_ratio,
        fault_chaos.faults_injected,
        fault_chaos.faulted_docs,
    );
    let tracing_json = format!(
        "\"tracing_overhead\": {{ \"workers\": 4, \"clients\": {}, \"rounds\": {}, \"measured_documents\": {}, \"baseline_docs_per_s\": {:.1}, \"off_docs_per_s\": {:.1}, \"sample_64_docs_per_s\": {:.1}, \"sample_1_docs_per_s\": {:.1}, \"ratio_off\": {:.3}, \"ratio_sample_64\": {:.3}, \"ratio_sample_1\": {:.3}, \"note\": \"per-document span plane A/B; off = plane allocated but head sampling keeps nothing; ratios vs baseline, 1.0 = free\" }}",
        clients,
        TRACE_ROUNDS,
        measure_docs,
        trace_base.docs_per_s,
        trace_off.docs_per_s,
        trace_s64.docs_per_s,
        trace_s1.docs_per_s,
        trace_off_ratio,
        trace_s64_ratio,
        trace_s1_ratio,
    );
    let observability_json = format!(
        "\"observability_overhead\": {{ \"workers\": 4, \"clients\": {}, \"rounds\": {}, \"measured_documents\": {}, \"plain_docs_per_s\": {:.1}, \"observed_docs_per_s\": {:.1}, \"throughput_ratio\": {:.3}, \"live_stats_polls\": {}, \"note\": \"observed = --trace-ring plus a client pulling GetStats(detail=1) every ~2ms mid-load; ratio is observed/plain, 1.0 = free\" }}",
        clients,
        OBS_ROUNDS,
        measure_docs,
        obs_plain.docs_per_s,
        obs_on.docs_per_s,
        obs_ratio,
        obs_on.stats_polls,
    );
    let fused_vs_recorded = one.mb_per_s / PRE_FUSION_WORKERS_1_MB_S;
    let json = format!(
        "{{\n  \"bench\": \"service\",\n  \"config\": {{ \"languages\": {}, \"k\": {}, \"m_kbits\": {}, \"profile_size\": {}, \"mean_doc_bytes\": {}, \"clients\": {}, \"pipeline_depth\": {}, \"measured_documents\": {}, \"rounds\": {}, \"host_cores\": {} }},\n  \"pre_fusion_baseline\": {{ \"recorded\": {{ \"workers_1_mb_per_s\": {:.1}, \"workers_4_mb_per_s\": {:.1}, \"note\": \"served throughput recorded before extraction was fused into the probe (two-phase worker loop, per-document-flush harness)\" }} }},\n  \"workers_1\": {{ \"docs_per_s\": {:.1}, \"mb_per_s\": {:.1} }},\n  \"workers_4\": {{ \"docs_per_s\": {:.1}, \"mb_per_s\": {:.1} }},\n  \"fused_vs_pre_fusion_workers_1\": {:.2},\n  \"speedup_1_to_4\": {:.2},\n  \"connections_sweep\": {{ \"workers\": 4, \"rounds\": {}, \"points\": [\n    {}\n  ] }},\n  {},\n  \"slow_reader\": {{ \"workers\": 4, \"clients\": 64, \"measured_documents\": {}, \"docs_per_s\": {:.1}, \"mb_per_s\": {:.1}, \"slow_consumer_resets\": {} }},\n  {},\n  {},\n  {}\n}}\n",
        classifier.num_languages(),
        params.k,
        params.m_kbits(),
        profile_size,
        mean_measured,
        clients,
        PIPELINE_DEPTH,
        measure_docs,
        ROUNDS,
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        PRE_FUSION_WORKERS_1_MB_S,
        PRE_FUSION_WORKERS_4_MB_S,
        one.docs_per_s,
        one.mb_per_s,
        four.docs_per_s,
        four.mb_per_s,
        fused_vs_recorded,
        speedup,
        SWEEP_ROUNDS,
        sweep_json.join(",\n    "),
        channel_sweep_json,
        slow_budget,
        slow.docs_per_s,
        slow.mb_per_s,
        slow.slow_consumer_resets,
        fault_mode_json,
        observability_json,
        tracing_json,
    );
    print!("{json}");

    let out = std::env::var("LC_BENCH_OUT").unwrap_or_else(|_| "BENCH_service.json".into());
    std::fs::write(&out, &json).expect("write benchmark report");
    eprintln!(
        "wrote {out} (fused serves {fused_vs_recorded:.2}x the recorded pre-fusion MB/s per \
         worker; 4 workers serve {speedup:.2}x the documents of 1 worker; one \
         multiplexed connection serves \
         {:.2}x its own single-channel throughput with 0/{} payload copies; a ~1% fault \
         rate costs {:.0}% throughput; the live introspection plane serves {:.2}x plain \
         throughput over {} mid-load stats polls; span tracing serves {:.2}x / {:.2}x / \
         {:.2}x baseline at off / 1-in-64 / 1-in-1 sampling)",
        mux_best / mux_one,
        mux_data_frames,
        (1.0 - fault_ratio) * 100.0,
        obs_ratio,
        obs_on.stats_polls,
        trace_off_ratio,
        trace_s64_ratio,
        trace_s1_ratio,
    );
}
