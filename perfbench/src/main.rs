//! End-to-end and per-layer benchmark of the Bloom-filter language
//! classifier. See `README.md` for the workloads, the metrics and what
//! each per-layer number should move.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-snippets --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits with
//! a non-zero code when any answer was wrong or missing.

mod calib;
mod layers;
mod loadgen;
mod procstat;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lc_core::{MultiLanguageClassifier, SimdLevel};
use lc_service::MetricsSnapshot;

use calib::Calibrator;
use procstat::{Role, TaskStat};
use spans::{Recorder, Span};
use stats::{median, percentile};
use workload::{Checker, Expected, Inputs, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;
/// Throughput window; a phase's throughput is the median over its windows.
const WINDOW: Duration = Duration::from_millis(250);
/// Timed segment of a served end-to-end run: each gets a fresh server and
/// a calibration after it.
const SEGMENT: Duration = Duration::from_millis(500);
/// Where span files and the result log go (relative to the working
/// directory, which is the repository root).
const OUT_DIR: &str = ".bench_out";
/// Spans of at most this many documents per run go to the span file.
const SPAN_FILE_DOCS: u64 = 4096;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    let workload =
        workload.ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Metrics in report order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Everything one run produced.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    dispatch: SimdLevel,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lc-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    eprintln!(
        "workload {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let out = if args.trace {
        traced_run(&args)
    } else {
        end_to_end_run(&args)
    };
    let host = host_fingerprint(out.dispatch);
    let correct = out.failed == 0 && out.attempted > 0;

    println!("host {host}");
    for (name, value, unit) in &out.metrics.0 {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "error_rate {} ({} of {} documents failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let metrics_json: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics_json.join(", ")
    );
    append_result_log(&args, &host, &result);
    println!("{result}");
    if !correct {
        eprintln!(
            "FAILED: {} of {} documents were answered wrongly or not at all",
            out.failed, out.attempted
        );
        std::process::exit(1);
    }
}

/// JSON has no NaN or infinity; such a value (a ratio over nothing) is
/// reported as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn host_fingerprint(dispatch: SimdLevel) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|r| r.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"cpu_has_avx2\": {}, \"dispatch\": \"{}\"}}",
        cpu.replace(['"', '\\'], ""),
        kernel.replace(['"', '\\'], ""),
        SimdLevel::cpu_has_avx2(),
        dispatch.as_str()
    )
}

fn append_result_log(args: &Args, host: &str, result: &str) {
    let path = PathBuf::from(OUT_DIR).join("results.jsonl");
    let line = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {host}, \"result\": {result}}}\n",
        args.workload.name, args.seed, args.seconds, args.trace as u8
    );
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?
            .write_all(line.as_bytes())
    });
    if let Err(e) = written {
        eprintln!("note: could not append to {}: {e}", path.display());
    }
}

/// Inputs, the classifier, and the references for one run.
struct Prepared {
    inputs: Inputs,
    classifier: Arc<MultiLanguageClassifier>,
    refs: Vec<Expected>,
    /// Documents whose banked and naive answers differ (program defects).
    disagree: u64,
    /// Median set-up time.
    setup_s: f64,
}

/// Generate inputs (untimed), run the timed set-up `setups` times, and
/// compute the references from the last classifier (untimed).
fn prepare(w: &Workload, seed: u64, setups: usize) -> Prepared {
    let inputs = Inputs::generate(w, seed);
    // Input generation is not part of the system under test: start the
    // peak-RSS count after it.
    procstat::reset_peak_rss();
    let mut times = Vec::with_capacity(setups);
    let mut classifier = None;
    for _ in 0..setups.max(1) {
        let t = Instant::now();
        let c = Arc::new(workload::train_and_build(w, &inputs, seed));
        let served = w
            .served
            .then(|| loadgen::start(Arc::clone(&c)).expect("start server and read Hello"));
        times.push(t.elapsed().as_secs_f64());
        if let Some(s) = served {
            drop((s.reader, s.writer));
            s.server.shutdown();
        }
        classifier = Some(c);
    }
    let setup_s = median(&times).expect("at least one set-up");
    let classifier = classifier.expect("at least one set-up");
    let (refs, disagree) = workload::references(&classifier, &inputs.docs);
    eprintln!(
        "{} documents, {:.1} MB; {} languages, k={}, m={} Kbit, dispatch {}; setup {:.4} s",
        inputs.docs.len(),
        inputs.total_bytes() as f64 / 1e6,
        classifier.num_languages(),
        w.params.k,
        w.params.m_kbits(),
        classifier.simd_level(),
        setup_s,
    );
    Prepared {
        inputs,
        classifier,
        refs,
        disagree: disagree.len() as u64,
        setup_s,
    }
}

/// One throughput window.
#[derive(Clone, Copy)]
struct Window {
    bytes: u64,
    secs: f64,
    traced: bool,
}

impl Window {
    fn mb_s(&self) -> f64 {
        self.bytes as f64 / 1e6 / self.secs
    }
}

/// Median MB/s over the windows, optionally only those whose traced flag
/// is `traced`.
fn median_mb_s(windows: &[Window], traced: Option<bool>) -> f64 {
    let rates: Vec<f64> = windows
        .iter()
        .filter(|w| traced.is_none_or(|t| w.traced == t))
        .map(Window::mb_s)
        .collect();
    if let Some([q1, q2, q3]) = stats::quartiles(&rates) {
        eprintln!(
            "{} windows: MB/s quartiles {q1:.2} {q2:.2} {q3:.2}",
            rates.len()
        );
    }
    median(&rates).unwrap_or(0.0)
}

/// In-process classification for `total` in windows of `window`, every
/// result checked. With `alternate`, the recorder runs in every other
/// window.
fn in_process(
    p: &Prepared,
    checker: &mut Checker<'_>,
    rec: &mut Recorder,
    total: Duration,
    window: Duration,
    alternate: bool,
) -> Vec<Window> {
    let c = &p.classifier;
    let docs = &p.inputs.docs;
    let traced = rec.enabled();
    let mut session = lc_core::StreamingSession::new(c);
    let mut windows: Vec<Window> = Vec::new();
    let mut seq = 0u64;
    rec.set_enabled(traced && !alternate);
    let start = Instant::now();
    while start.elapsed() < total {
        let w0 = Instant::now();
        let mut bytes = 0u64;
        let on = rec.enabled();
        while w0.elapsed() < window {
            let i = (seq % docs.len() as u64) as usize;
            let d = &docs[i];
            let t0 = Instant::now();
            session.feed(c, &d.text);
            let t1 = Instant::now();
            let r = session.finish();
            let t2 = Instant::now();
            rec.record(0, seq, "core.feed", Some("classify"), t0, t1);
            rec.record(0, seq, "core.finish", Some("classify"), t1, t2);
            rec.record(0, seq, "classify", None, t0, t2);
            checker.check(i, r.counts(), r.total_ngrams(), None);
            bytes += d.text.len() as u64;
            seq += 1;
        }
        windows.push(Window {
            bytes,
            secs: w0.elapsed().as_secs_f64(),
            traced: on,
        });
        if alternate {
            rec.set_enabled(traced && windows.len() % 2 == 1);
        }
    }
    rec.set_enabled(traced);
    windows
}

fn end_to_end_run(args: &Args) -> Outcome {
    let w = &args.workload;
    let p = prepare(w, args.seed, SETUPS);
    let mut checker = Checker::new(&p.inputs.docs, &p.refs);
    checker.fail(p.disagree);
    let total = Duration::from_secs_f64(args.seconds);
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, false);
    let mut m = Metrics::default();

    // Timed segments of about SEGMENT each.
    let n = (total.as_secs_f64() / SEGMENT.as_secs_f64())
        .round()
        .max(3.0) as usize;
    let seg = total / n as u32;
    let mut windows: Vec<Window> = Vec::new();
    if w.served {
        // Closed-loop segments, each on a fresh server (fresh threads, so
        // their CPU placement is drawn anew) and each between two
        // calibrations.
        let cal = Calibrator::new(&p.inputs.docs[0].text);
        let mut before = cal.rate_mb_s();
        let mut factors = Vec::with_capacity(n);
        for _ in 0..n {
            let closed = served_closed(&p, &mut checker, &mut rec, seg, false);
            let after = cal.rate_mb_s();
            let factor = calib::speed_factor((before + after) / 2.0);
            before = after;
            factors.push(factor);
            windows.extend(closed.windows.into_iter().map(|w| Window {
                secs: w.secs / factor,
                ..w
            }));
        }
        eprintln!(
            "host speed factor median {:.3}",
            median(&factors).unwrap_or(1.0)
        );
    } else {
        // Untimed warm-up pass, then the measured windows.
        layers::classify_pass(&p.classifier, &p.inputs.docs, &mut checker);
        windows = in_process(&p, &mut checker, &mut rec, total, WINDOW, false);
    }
    m.put("throughput_mb_s", median_mb_s(&windows, None), "MB/s");
    m.put("accuracy", checker.accuracy(), "share");
    m.put("setup_s", p.setup_s, "s");
    m.put(
        "peak_rss_mb",
        procstat::peak_rss_mib().unwrap_or(0.0),
        "MiB",
    );
    Outcome {
        metrics: m,
        attempted: checker.attempted,
        failed: checker.failed,
        dispatch: p.classifier.simd_level(),
    }
}

/// Server-side counters of one measured phase.
struct PhaseCounters {
    base: MetricsSnapshot,
    end: MetricsSnapshot,
    threads_before: BTreeMap<u64, (Role, TaskStat)>,
    threads_after: BTreeMap<u64, (Role, TaskStat)>,
    client: TaskStat,
    wall: Duration,
}

struct ClosedPhase {
    windows: Vec<Window>,
    counters: PhaseCounters,
}

/// Warm-up windows before a served phase is measured.
const WARM_UP_WINDOWS: usize = 2;

/// Start a server for one phase, warm it up, and take the baseline the
/// phase's counters are measured from.
fn start_phase(
    p: &Prepared,
    checker: &mut Checker<'_>,
) -> (
    loadgen::Served,
    MetricsSnapshot,
    BTreeMap<u64, (Role, TaskStat)>,
) {
    let mut s = loadgen::start(Arc::clone(&p.classifier)).expect("start server");
    if !loadgen::warm_up(&mut s, &p.inputs.docs, checker, WARM_UP_WINDOWS) {
        eprintln!("warm-up lost its connection");
    }
    let base = s.server.metrics().snapshot();
    (s, base, procstat::sample_threads())
}

/// Closed-loop phase on a fresh server, over `total`.
fn served_closed(
    p: &Prepared,
    checker: &mut Checker<'_>,
    rec: &mut Recorder,
    total: Duration,
    alternate: bool,
) -> ClosedPhase {
    let (mut s, base, threads_before) = start_phase(p, checker);
    let t0 = Instant::now();
    let windows = (total.as_secs_f64() / WINDOW.as_secs_f64())
        .round()
        .max(1.0) as usize;
    let out = loadgen::closed_loop(
        &mut s.reader,
        &mut s.writer,
        &p.inputs.docs,
        checker,
        rec,
        1,
        WINDOW,
        windows,
        alternate,
    );
    let threads_after = procstat::sample_threads();
    let wall = t0.elapsed();
    drop((s.reader, s.writer));
    let end = s.server.shutdown();
    ClosedPhase {
        windows: out
            .windows
            .iter()
            .map(|&(bytes, secs, traced)| Window {
                bytes,
                secs,
                traced,
            })
            .collect(),
        counters: PhaseCounters {
            base,
            end,
            threads_before,
            threads_after,
            client: out.client,
            wall,
        },
    }
}

struct OpenPhase {
    latencies_us: Vec<f64>,
    late_us: Vec<f64>,
    spans: Vec<Span>,
    counters: PhaseCounters,
}

/// Open-loop phase on a fresh server at `rate` docs/s over `total`.
fn served_open(
    p: &Prepared,
    checker: &mut Checker<'_>,
    epoch: Instant,
    traced: bool,
    total: Duration,
    rate: f64,
) -> OpenPhase {
    let (mut s, base, threads_before) = start_phase(p, checker);
    let t0 = Instant::now();
    let (out, spans) = loadgen::open_loop(
        &mut s.reader,
        &mut s.writer,
        &p.inputs.docs,
        checker,
        epoch,
        traced,
        2,
        rate,
        total,
    );
    let threads_after = procstat::sample_threads();
    let wall = t0.elapsed();
    drop((s.reader, s.writer));
    let end = s.server.shutdown();
    OpenPhase {
        latencies_us: out.latencies_us,
        late_us: out.late_us,
        spans,
        counters: PhaseCounters {
            base,
            end,
            threads_before,
            threads_after,
            client: out.client,
            wall,
        },
    }
}

/// The service, reactor and thread metrics of one phase, named with
/// `prefix` (empty for the closed-loop phase, `open.` for the open loop).
fn server_layer_metrics(prefix: &str, c: &PhaseCounters, m: &mut Metrics) {
    let (b, e) = (&c.base, &c.end);
    let docs = e.documents.saturating_sub(b.documents).max(1) as f64;
    let shard = |i: usize, f: fn(&lc_service::ShardStats) -> u64| {
        let then = b.shards.get(i).map_or(0, f);
        e.shards.get(i).map_or(0, f).saturating_sub(then)
    };
    let n = e.shards.len();
    let busy: u64 = (0..n).map(|i| shard(i, |s| s.busy_ns)).sum();
    let jobs: u64 = (0..n).map(|i| shard(i, |s| s.jobs)).sum();
    let parked: u64 = (0..n).map(|i| shard(i, |s| s.parked)).sum();
    let shard_docs: Vec<u64> = (0..n).map(|i| shard(i, |s| s.docs)).collect();
    let mean_docs = shard_docs.iter().sum::<u64>() as f64 / n.max(1) as f64;
    let max_docs = shard_docs.iter().copied().max().unwrap_or(0) as f64;
    let depth_peak = e
        .shards
        .iter()
        .map(|s| s.queue_depth_peak)
        .max()
        .unwrap_or(0);
    let d = |f: fn(&MetricsSnapshot) -> u64| f(e).saturating_sub(f(b)) as f64;

    m.put(
        format!("{prefix}service.worker_busy_share"),
        busy as f64 / (n.max(1) as f64 * c.wall.as_nanos() as f64),
        "share",
    );
    m.put(
        format!("{prefix}service.jobs_per_doc"),
        jobs as f64 / docs,
        "count",
    );
    m.put(
        format!("{prefix}service.parked_per_doc"),
        parked as f64 / docs,
        "count",
    );
    m.put(
        format!("{prefix}service.queue_depth_peak"),
        depth_peak as f64,
        "count",
    );
    m.put(
        format!("{prefix}service.shard_skew"),
        if mean_docs > 0.0 {
            max_docs / mean_docs
        } else {
            0.0
        },
        "ratio",
    );
    m.put(
        format!("{prefix}service.payload_copies_per_frame"),
        d(|s| s.payload_copies) / d(|s| s.data_frames).max(1.0),
        "count",
    );
    m.put(
        format!("{prefix}reactor.wakeups_per_doc"),
        d(|s| s.reactor_wakeups) / docs,
        "count",
    );
    m.put(
        format!("{prefix}reactor.eventfd_wakes_per_doc"),
        d(|s| s.eventfd_wakes) / docs,
        "count",
    );
    m.put(
        format!("{prefix}reactor.read_syscalls_per_doc"),
        d(|s| s.read_syscalls) / docs,
        "count",
    );
    m.put(
        format!("{prefix}reactor.write_syscalls_per_doc"),
        d(|s| s.write_syscalls) / docs,
        "count",
    );
    m.put(
        format!("{prefix}reactor.outbound_stalls"),
        d(|s| s.outbound_stalls),
        "count",
    );
    for (role, name) in [
        (Role::Reactor, "reactor"),
        (Role::Worker, "worker"),
        (Role::Client, "client"),
    ] {
        let t = if role == Role::Client {
            c.client
        } else {
            procstat::delta_by_role(&c.threads_before, &c.threads_after, role)
        };
        m.put(
            format!("{prefix}threads.{name}.cpu_ns_per_doc"),
            t.cpu_ns as f64 / docs,
            "ns",
        );
        m.put(
            format!("{prefix}threads.{name}.runq_wait_ns_per_doc"),
            t.runq_ns as f64 / docs,
            "ns",
        );
        m.put(
            format!("{prefix}threads.{name}.ctx_switches_per_doc"),
            t.ctx_switches as f64 / docs,
            "count",
        );
    }
}

fn traced_run(args: &Args) -> Outcome {
    let w = &args.workload;
    let p = prepare(w, args.seed, 1);
    let mut checker = Checker::new(&p.inputs.docs, &p.refs);
    checker.fail(p.disagree);
    let total = Duration::from_secs_f64(args.seconds);
    let budget = total.mul_f64(0.025);
    let c = &p.classifier;
    let docs = &p.inputs.docs;
    let mut m = Metrics::default();

    // Layers, each timed from outside over the workload's documents.
    let grams = layers::keys_of(c, docs);
    let mut scalar = (**c).clone();
    scalar.set_force_scalar(true);
    let doc_bytes = p.inputs.total_bytes() as f64;
    m.put(
        "ngram.extract_ns_per_byte",
        layers::extract_ns_per_byte(c, docs, budget),
        "ns",
    );
    m.put(
        "hash.h3_scalar_ns_per_gram",
        layers::h3_ns_per_gram(c.bank(), &grams, budget),
        "ns",
    );
    m.put(
        "bloom.probe_ns_per_gram",
        layers::probe_ns_per_gram(c, &grams, budget),
        "ns",
    );
    m.put(
        "bloom.probe_scalar_ns_per_gram",
        layers::probe_ns_per_gram(&scalar, &grams, budget),
        "ns",
    );
    m.put(
        "bloom.no_match_share",
        layers::no_match_share(c.bank(), &grams),
        "share",
    );
    let classify_ns = layers::ns_per_unit(budget, || {
        layers::classify_pass(c, docs, &mut checker);
        1
    });
    m.put("core.classify_ns_per_byte", classify_ns / doc_bytes, "ns");
    m.put(
        "core.finish_ns_per_doc",
        layers::finish_ns_per_doc(c, budget),
        "ns",
    );
    let stream = layers::encoded_stream(docs);
    m.put(
        "wire.encode_ns_per_doc",
        layers::encode_ns_per_doc(docs, budget),
        "ns",
    );
    m.put(
        "wire.decode_ns_per_doc",
        layers::decode_ns_per_doc(&stream, docs.len(), budget),
        "ns",
    );
    drop((grams, stream));

    // Traced phases: in-process, closed loop (both alternating traced and
    // untraced windows), then the open loop.
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, true);
    let inproc = in_process(
        &p,
        &mut checker,
        &mut rec,
        total.mul_f64(0.15),
        WINDOW / 2,
        true,
    );
    let closed = served_closed(&p, &mut checker, &mut rec, total.mul_f64(0.3), true);
    let open = served_open(
        &p,
        &mut checker,
        epoch,
        true,
        total.mul_f64(0.3),
        w.open_rate,
    );
    server_layer_metrics("", &closed.counters, &mut m);
    server_layer_metrics("open.", &open.counters, &mut m);

    let mut late = open.late_us.clone();
    late.sort_by(f64::total_cmp);
    let mut lat = open.latencies_us.clone();
    lat.sort_by(f64::total_cmp);
    m.put(
        "loadgen.late_p50_us",
        percentile(&late, 50.0).unwrap_or(0.0),
        "us",
    );
    m.put(
        "loadgen.late_max_us",
        late.last().copied().unwrap_or(0.0),
        "us",
    );
    m.put(
        "loadgen.latency_p50_us",
        percentile(&lat, 50.0).unwrap_or(0.0),
        "us",
    );
    m.put(
        "loadgen.latency_p90_us",
        percentile(&lat, 90.0).unwrap_or(0.0),
        "us",
    );
    m.put(
        "loadgen.latency_p99_us",
        percentile(&lat, 99.0).unwrap_or(0.0),
        "us",
    );

    m.put("host.read_gb_s", layers::read_gb_s(docs, budget), "GB/s");
    m.put(
        "host.lookup_ns",
        layers::lookup_ns(c.bank().memory_bits() / 8, args.seed, budget),
        "ns",
    );

    let windows = if w.served { &closed.windows } else { &inproc };
    m.put(
        "trace.overhead_ratio",
        median_mb_s(windows, Some(true)) / median_mb_s(windows, Some(false)),
        "ratio",
    );

    // Self times: in-process spans for the classify kinds, open-loop spans
    // for the served kinds (their `doc` root starts at the due time).
    let mut all = rec.into_spans();
    let in_process: Vec<Span> = all.iter().filter(|s| s.doc >> 56 == 0).copied().collect();
    let mut by_kind = spans::self_time_by_kind(&in_process);
    by_kind.extend(spans::self_time_by_kind(&open.spans));
    // `classify` is left out: `core.feed` and `core.finish` tile it, so its
    // self time is 0 by construction.
    for kind in spans::KINDS.into_iter().filter(|&k| k != "classify") {
        let mean = by_kind.get(kind).map_or(0.0, |&(_, ns)| ns);
        m.put(format!("span.{kind}.self_ns"), mean, "ns");
    }
    all.extend(open.spans);
    let docs_traced = all.iter().filter(|s| s.parent.is_none()).count() as u64;
    let path = PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
    match spans::write_jsonl(&path, &all, docs_traced.div_ceil(SPAN_FILE_DOCS)) {
        Ok(()) => eprintln!(
            "{} spans recorded; sample written to {}",
            all.len(),
            path.display()
        ),
        Err(e) => eprintln!("note: could not write {}: {e}", path.display()),
    }

    Outcome {
        metrics: m,
        attempted: checker.attempted,
        failed: checker.failed,
        dispatch: c.simd_level(),
    }
}
