//! Lock-free per-server metrics.
//!
//! Everything a serving deployment wants on a dashboard: documents, bytes
//! and n-grams served, per-language wins (which languages the traffic
//! actually is), protocol faults, watchdog resets, connection-level
//! gauges (current/peak connections, accepts rejected at the cap,
//! outbound high-water stalls, slow-consumer resets), reactor-loop
//! telemetry (epoll wakeups, events-per-wake distribution, read/write
//! syscalls, eventfd wakes), per-worker-shard counters, and fixed-bucket
//! latency histograms — the end-to-end document service time (Size
//! enqueued at its shard → result latched) with its queue-wait and
//! classify stages, plus the response-drain stage after it, so a
//! throughput cliff can be attributed to queuing vs compute vs the write
//! path.
//!
//! Each counter, shard field and latency stage is declared once, in wire
//! order, in a `metric_table!`; it generates the live atomics, the
//! snapshot fields and loads, and the positional StatsReport codec.
//! [`MetricsSnapshot::stages`] is the `(name, histogram)` table the
//! codec, `lcbloom stats` and the bench JSON all iterate.
//!
//! The whole struct is relaxed atomics: recording never takes a lock and
//! never fences, which is what keeps the instrumentation cheap enough to
//! leave on (the bench's `observability_overhead` round holds it under a
//! few percent).

use crate::ring::RingEvent;
use crate::sync::{AtomicU64, Ordering};
use crate::trace::SpanRecord;
use std::time::Duration;

/// Upper bounds of the latency histogram buckets, in microseconds; one
/// implicit overflow bucket follows the last bound. Shared by the
/// end-to-end histogram, all three stage histograms, and the client-side
/// `--timing` buckets, so client and server latency diff bucket-for-bucket.
pub const LATENCY_BOUNDS_US: [u64; 8] = [100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000];

/// Upper bounds of the events-per-epoll-wake histogram; one implicit
/// overflow bucket follows. A healthy loaded reactor batches (right-heavy
/// distribution); a distribution stuck at 1 event/wake under load means
/// the loop is thrashing on wakeups.
pub const EVENTS_PER_WAKE_BOUNDS: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Histogram length: the shared bounds plus the overflow bucket.
pub const LATENCY_BUCKETS: usize = LATENCY_BOUNDS_US.len() + 1;

/// Events-per-wake histogram length: its bounds plus the overflow bucket.
pub const WAKE_BUCKETS: usize = EVENTS_PER_WAKE_BOUNDS.len() + 1;

/// Bucket index for a measured duration under [`LATENCY_BOUNDS_US`].
/// Public so client-side `--timing` fills bucket-compatible histograms.
pub fn latency_bucket(d: Duration) -> usize {
    let us = d.as_micros() as u64;
    LATENCY_BOUNDS_US
        .iter()
        .position(|&b| us <= b)
        .unwrap_or(LATENCY_BOUNDS_US.len())
}

/// One document's timeline, handed to [`ServiceMetrics::record_document`]
/// when its result latches and copied into its trace span. `queue_wait`
/// and `classify` are disjoint sub-intervals of `total`, read from one
/// monotonic clock, so `queue_wait + classify <= total`.
#[derive(Clone, Copy, Debug, Default)]
pub struct DocTimings {
    /// Size enqueued at its shard → result latched: the end-to-end
    /// service time.
    pub total: Duration,
    /// Size enqueued at its shard → Size dequeued by the worker.
    pub queue_wait: Duration,
    /// Time spent feeding payload bytes through the classifier, plus
    /// `finish`.
    pub classify: Duration,
}

/// Declares a live/snapshot struct pair from one metric list. `counters`
/// are `u64`s (`AtomicU64` live), `stages` are latency histograms; each
/// entry is a doc comment and a name, in wire order. Generates both
/// structs' metric fields (the rest of each struct follows them),
/// `load_into` (the snapshot loads), the positional `counter_values`/
/// `assign_counter`, and with stages `stages`/`stages_mut`/`STAGE_COUNT`.
macro_rules! metric_table {
    (
        $(#[$live_attr:meta])*
        pub struct $live:ident { $($live_rest:tt)* }
        $(#[$snap_attr:meta])*
        pub struct $snap:ident { $($snap_rest:tt)* }
        counters { $( $(#[$c_doc:meta])* $counter:ident, )+ }
        $( stages { $( $(#[$s_doc:meta])* $stage:ident, )+ } )?
    ) => {
        $(#[$live_attr])*
        pub struct $live {
            $( $(#[$c_doc])* pub $counter: AtomicU64, )+
            $($( $(#[$s_doc])* $stage: [AtomicU64; LATENCY_BUCKETS], )+)?
            $($live_rest)*
        }

        $(#[$snap_attr])*
        pub struct $snap {
            $( $(#[$c_doc])* pub $counter: u64, )+
            $($( $(#[$s_doc])* pub $stage: [u64; LATENCY_BUCKETS], )+)?
            $($snap_rest)*
        }

        impl $live {
            /// Load every table metric into `into`, stages before counters:
            /// recording bumps a counter before the bucket that details it.
            fn load_into(&self, into: &mut $snap) {
                $($(
                    into.$stage = std::array::from_fn(|i| self.$stage[i].load(Ordering::Relaxed));
                )+)?
                $( into.$counter = self.$counter.load(Ordering::Relaxed); )+
            }
        }

        impl $snap {
            /// Counters in the table.
            const COUNTERS: usize = [$(stringify!($counter)),+].len();
            /// The counters in their fixed wire order. New counters are
            /// appended to the table — never reordered — so old decoders
            /// keep reading the prefix they know.
            fn counter_values(&self) -> [u64; Self::COUNTERS] {
                [$(self.$counter),+]
            }

            /// Set the counter at wire position `i`; positions past the
            /// end (a newer peer's appended counters) are ignored.
            fn assign_counter(&mut self, i: usize, v: u64) {
                if let Some(slot) = [$(&mut self.$counter),+].into_iter().nth(i) {
                    *slot = v;
                }
            }
        }

        $(
            /// Latency stages per snapshot, in wire order.
            const STAGE_COUNT: usize = [$(stringify!($stage)),+].len();

            impl $snap {
                /// The latency stage histograms in wire order, each named
                /// by its field: what the codec, `lcbloom stats` and the
                /// bench JSON iterate.
                pub fn stages(&self) -> [(&'static str, &[u64; LATENCY_BUCKETS]); STAGE_COUNT] {
                    [$((stringify!($stage), &self.$stage)),+]
                }

                fn stages_mut(&mut self) -> [&mut [u64; LATENCY_BUCKETS]; STAGE_COUNT] {
                    [$(&mut self.$stage),+]
                }
            }
        )?
    };
}

metric_table! {
    /// One worker shard's live counters (relaxed atomics, updated by the
    /// reactor on enqueue and the shard thread on dequeue/apply).
    #[derive(Debug, Default)]
    pub struct ShardCounters {}

    /// Plain-data copy of one shard's counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ShardStats {}

    counters {
        /// Documents whose results latched on this shard. Summed across
        /// shards this equals the global `documents` counter — both are
        /// incremented by the same `record_document` call.
        docs,
        /// Nanoseconds the shard thread spent applying commands (busy time;
        /// compare across shards to see the static-hash imbalance).
        busy_ns,
        /// Jobs currently sitting in the shard's queue.
        queue_depth,
        /// Deepest the queue ever got.
        queue_depth_peak,
        /// Commands parked in a connection's stall list because this shard's
        /// queue was full (the reactor's park-and-retry path).
        parked,
        /// Jobs ever enqueued to this shard.
        jobs,
    }
}

impl ShardCounters {
    /// Note a job entering the shard queue.
    pub fn note_enqueued(&self) {
        self.jobs.fetch_add(1, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Note a job leaving the shard queue (the shard thread picked it up).
    pub fn note_dequeued(&self) {
        // Enqueue/dequeue are balanced, but a racing snapshot must never
        // see a wrapped gauge; repair the rare transient underflow.
        if self.queue_depth.fetch_sub(1, Ordering::Relaxed) == 0 {
            self.queue_depth.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> ShardStats {
        let mut stats = ShardStats::default();
        self.load_into(&mut stats);
        stats
    }
}

metric_table! {
    /// Shared counters, updated by connection handlers and workers.
    #[derive(Debug, Default)]
    pub struct ServiceMetrics {
        /// Language names, index-aligned with `lang_wins` (empty when the
        /// metrics were built without names; rendering falls back to
        /// `lang{i}`).
        lang_names: Vec<String>,
        /// Wins per language, index-aligned with the classifier's names.
        lang_wins: Vec<AtomicU64>,
        /// Events-per-epoll-wake distribution (`EVENTS_PER_WAKE_BOUNDS`).
        events_per_wake: [AtomicU64; WAKE_BUCKETS],
        /// Per-worker-shard counters (empty when built without topology).
        shards: Vec<ShardCounters>,
        /// Classify probe path (`"scalar"`/`"avx2"`), set once at startup from
        /// the classifier's resolved dispatch; empty until then.
        simd: std::sync::OnceLock<String>,
    }

    /// Plain-data copy of [`ServiceMetrics`].
    ///
    /// **Consistency:** see [`ServiceMetrics::snapshot`] — individual
    /// counters are exact, cross-counter relationships can tear by the
    /// in-flight window mid-load, and a quiesced snapshot is exact across
    /// all counters.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct MetricsSnapshot {
        /// Language names, index-aligned with `lang_wins`.
        pub lang_names: Vec<String>,
        /// Wins per language.
        pub lang_wins: Vec<u64>,
        /// Events-per-epoll-wake distribution (`EVENTS_PER_WAKE_BOUNDS`).
        pub events_per_wake: [u64; WAKE_BUCKETS],
        /// Per-worker-shard counters.
        pub shards: Vec<ShardStats>,
        /// Per-reactor event-ring dumps (populated only by
        /// `GetStats(detail=1)` answers from a `--trace-ring` server; empty
        /// in plain snapshots).
        pub rings: Vec<Vec<RingEvent>>,
        /// Trace spans drained by a `GetStats(detail=2)` answer from a
        /// tracing server (`--trace-sample`/`--trace-slow-us`); empty in
        /// plain snapshots and at lower detail.
        pub spans: Vec<SpanRecord>,
        /// Classify probe path the server selected (`"scalar"`/`"avx2"`);
        /// empty when the server predates the field or never set it.
        pub simd: String,
    }

    counters {
        /// Connections accepted over the server's lifetime.
        connections,
        /// Currently open connections.
        connections_current,
        /// Most connections ever open at once.
        connections_peak,
        /// Accepts refused because `connections_current` hit the cap.
        accepts_rejected,
        /// Times a connection's outbound queue crossed the high-water mark
        /// (its `EPOLLIN` was masked until the queue drained).
        outbound_stalls,
        /// Deepest any single connection's outbound queue ever got, in bytes —
        /// the high-water mark slow-consumer tuning needs to see without a
        /// debugger (compare against `outbound_high_water`).
        outbound_queue_peak,
        /// Connections reset for sitting above high-water past the
        /// slow-consumer deadline.
        slow_consumer_resets,
        /// Channels (independent command streams; a v1 connection is one
        /// channel) currently open across all connections.
        channels_current,
        /// Most channels ever open at once.
        channels_peak,
        /// Reset commands applied to a channel's session (mid-document Resets
        /// discard the in-flight document).
        channel_resets,
        /// Data frames decoded by the reactors.
        data_frames,
        /// Data payloads *copied* between reactor and worker. The zero-copy
        /// frame path keeps this at exactly 0 (payloads travel as refcounted
        /// rope segments); the bench asserts it.
        payload_copies,
        /// Documents classified (results latched).
        documents,
        /// Document payload bytes classified.
        bytes,
        /// N-grams tested.
        ngrams,
        /// Protocol faults answered with an Error response.
        protocol_errors,
        /// Stalled sessions reset by the watchdog.
        watchdog_resets,
        /// Worker panics caught by the per-document unwind guard (the
        /// document got an `EngineFault` response; the thread survived).
        worker_panics,
        /// Worker shard threads respawned by the pool supervisor after a
        /// panic escaped the per-document guard.
        worker_restarts,
        /// Documents shed with a `Busy` fault: the channel's shard queue was
        /// full while the connection's outbound queue sat over high-water.
        busy_shed,
        /// Documents refused with a `ShuttingDown` fault during drain.
        drain_shed,
        /// Channels torn down early by a `CloseChannel` control frame.
        channels_closed,
        /// Faults injected by an active chaos plan (0 in production).
        faults_injected,
        /// `epoll_wait` returns across all reactor threads.
        reactor_wakeups,
        /// Eventfd wake tokens drained (worker → reactor nudges that landed;
        /// diff against `wake_drop` chaos to see swallowed wakes).
        eventfd_wakes,
        /// Socket read syscalls issued by the reactors.
        read_syscalls,
        /// Socket write passes: the workers' write-through and the
        /// reactors' queued flushes.
        write_syscalls,
        /// Reads that left a frame mid-reassembly (short-read continuations:
        /// the frame completed only on a later read).
        short_read_continuations,
    }

    stages {
        /// End-to-end latency histogram (Size enqueued at its shard →
        /// result latched): `LATENCY_BOUNDS_US` buckets + overflow.
        latency,
        /// Queue-wait stage histogram (Size enqueued at its shard → Size
        /// dequeued by the worker).
        queue_wait,
        /// Classify stage histogram (time feeding the classifier, plus
        /// `finish`).
        classify,
        /// Response-drain stage histogram (result latched → response bytes
        /// flushed into the socket).
        response_drain,
    }
}

impl ServiceMetrics {
    /// Fresh zeroed metrics for `num_languages` counters (no names, no
    /// shard topology — the test-friendly constructor).
    pub fn new(num_languages: usize) -> Self {
        Self::with_topology((0..num_languages).map(|i| format!("lang{i}")).collect(), 0)
    }

    /// Fresh zeroed metrics carrying the classifier's language names and
    /// `workers` per-shard counter blocks (what `serve` builds).
    pub fn with_topology(lang_names: Vec<String>, workers: usize) -> Self {
        Self {
            lang_wins: (0..lang_names.len()).map(|_| AtomicU64::new(0)).collect(),
            lang_names,
            shards: (0..workers).map(|_| ShardCounters::default()).collect(),
            ..Self::default()
        }
    }

    /// Record the classify probe path (`"scalar"`/`"avx2"`) the server's
    /// classifier actually selected. Set once at startup — dispatch is
    /// decided once per classifier, never per call — so later calls are
    /// ignored.
    pub fn set_simd(&self, level: &str) {
        let _ = self.simd.set(level.to_string());
    }

    /// Shard `i`'s counter block, when the metrics carry a topology.
    pub fn shard(&self, i: usize) -> Option<&ShardCounters> {
        self.shards.get(i)
    }

    /// Record one latched document: the global counters, the winning
    /// language, the end-to-end latency bucket, the per-stage buckets,
    /// and the owning shard's `docs` — all in the same call so per-shard
    /// docs always sum to the global counter.
    pub fn record_document(
        &self,
        winner: usize,
        doc_bytes: u64,
        ngrams: u64,
        shard: usize,
        timings: DocTimings,
    ) {
        self.documents.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(doc_bytes, Ordering::Relaxed);
        self.ngrams.fetch_add(ngrams, Ordering::Relaxed);
        if let Some(w) = self.lang_wins.get(winner) {
            w.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(s) = self.shards.get(shard) {
            s.docs.fetch_add(1, Ordering::Relaxed);
        }
        self.latency[latency_bucket(timings.total)].fetch_add(1, Ordering::Relaxed);
        self.queue_wait[latency_bucket(timings.queue_wait)].fetch_add(1, Ordering::Relaxed);
        self.classify[latency_bucket(timings.classify)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a response's drain time (result latched → its bytes flushed
    /// into the socket). Recorded by the outbound path, which is the only
    /// place that sees the actual flush — under backpressure this is the
    /// stage that grows.
    pub fn record_drain(&self, drain: Duration) {
        self.response_drain[latency_bucket(drain)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one `epoll_wait` return delivering `events` events. Timeout
    /// ticks (zero events) count as wakeups but stay out of the
    /// events-per-wake histogram, which would otherwise drown in idle
    /// ticks.
    pub fn record_wake(&self, events: usize) {
        self.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
        if events == 0 {
            return;
        }
        let n = events as u64;
        let bucket = EVENTS_PER_WAKE_BOUNDS
            .iter()
            .position(|&b| n <= b)
            .unwrap_or(EVENTS_PER_WAKE_BOUNDS.len());
        self.events_per_wake[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of all counters.
    ///
    /// **Consistency model:** every counter is loaded individually with
    /// `Ordering::Relaxed` and no lock freezes the set, so a snapshot
    /// taken mid-load can *tear across counters* — e.g. `documents`
    /// already incremented for a latching document whose `bytes` add has
    /// not landed yet. Each individual counter is exact (never torn
    /// within itself), monotonic counters never run backwards between
    /// snapshots, and once the server is quiesced (clients drained,
    /// workers idle — or after `shutdown()`) a snapshot is exact across
    /// all counters. Cross-counter invariants (per-shard docs summing to
    /// `documents`, `bytes`/`documents` ratios) therefore hold exactly on
    /// quiesced snapshots and to within the in-flight window mid-load.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Load the per-shard blocks, wins and histograms *before* the
        // global counters. `record_document` increments `documents` first
        // and the owning shard's `docs` after, so only this read order
        // keeps "shard sum never exceeds `documents`" for a racing reader
        // (`documents` can only have grown since) — the loom model test
        // `shard_docs_never_exceed_documents` pins it.
        let shards: Vec<ShardStats> = self.shards.iter().map(ShardCounters::snapshot).collect();
        let mut snap = MetricsSnapshot {
            lang_names: self.lang_names.clone(),
            lang_wins: self
                .lang_wins
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            events_per_wake: std::array::from_fn(|i| {
                self.events_per_wake[i].load(Ordering::Relaxed)
            }),
            shards,
            simd: self.simd.get().cloned().unwrap_or_default(),
            ..MetricsSnapshot::default()
        };
        self.load_into(&mut snap);
        snap
    }
}

/// Failure decoding a [`MetricsSnapshot`] wire blob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotDecodeError(&'static str);

impl std::fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed stats report: {}", self.0)
    }
}

impl std::error::Error for SnapshotDecodeError {}

/// Current wire schema version written by [`MetricsSnapshot::encode`].
pub const STATS_SCHEMA_VERSION: u16 = 1;

// Section tags of the StatsReport schema. Every section is
// `tag: u16, len: u32, body`, so a decoder skips unknown tags by length;
// within a section, arrays are count-prefixed so future appended fields
// are skipped by count. Both are what lets old clients read new servers.
const SEC_COUNTERS: u16 = 1;
const SEC_LANGS: u16 = 2;
const SEC_STAGES: u16 = 3;
const SEC_WAKE_HIST: u16 = 4;
const SEC_SHARDS: u16 = 5;
const SEC_RINGS: u16 = 6;
const SEC_SPANS: u16 = 7;
/// Retired: the server-side rate history this section carried is gone
/// (watchers compute rates from two snapshots). The tag stays reserved
/// so dumps recorded before then still decode.
const SEC_HISTORY: u16 = 8;
const SEC_SIMD: u16 = 9;

/// `u64` fields per shard entry.
const SHARD_FIELDS: usize = ShardStats::COUNTERS;
/// Serialized [`SpanRecord`] size; each record is length-prefixed by the
/// section header so a future schema can append fields that old decoders
/// skip per-record.
const SPAN_RECORD_BYTES: usize = 70;

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_section(out: &mut Vec<u8>, tag: u16, body: &[u8]) {
    put_u16(out, tag);
    put_u32(out, body.len() as u32);
    out.extend_from_slice(body);
}

/// Checked little-endian reader over a decode buffer.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotDecodeError> {
        if self.buf.len() < n {
            return Err(SnapshotDecodeError("section shorter than declared"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, SnapshotDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotDecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, SnapshotDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl MetricsSnapshot {
    /// Serialize into the versioned StatsReport wire schema: a `u16`
    /// schema version, then self-describing sections (`tag: u16`,
    /// `len: u32`, body). Unknown sections and appended fields are
    /// skippable by construction, so decoders and encoders can evolve
    /// independently.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(512);
        put_u16(&mut out, STATS_SCHEMA_VERSION);

        let counters = self.counter_values();
        let mut body = Vec::with_capacity(2 + counters.len() * 8);
        put_u16(&mut body, counters.len() as u16);
        for v in counters {
            put_u64(&mut body, v);
        }
        put_section(&mut out, SEC_COUNTERS, &body);

        let mut body = Vec::new();
        put_u16(&mut body, self.lang_wins.len() as u16);
        for (i, &wins) in self.lang_wins.iter().enumerate() {
            let name = self.lang_names.get(i).map(String::as_str).unwrap_or("");
            let b = &name.as_bytes()[..name.len().min(u16::MAX as usize)];
            put_u16(&mut body, b.len() as u16);
            body.extend_from_slice(b);
            put_u64(&mut body, wins);
        }
        put_section(&mut out, SEC_LANGS, &body);

        let mut body = Vec::new();
        put_u16(&mut body, LATENCY_BOUNDS_US.len() as u16);
        for b in LATENCY_BOUNDS_US {
            put_u64(&mut body, b);
        }
        put_u16(&mut body, STAGE_COUNT as u16);
        put_u16(&mut body, LATENCY_BUCKETS as u16);
        for (_, hist) in self.stages() {
            for &count in hist {
                put_u64(&mut body, count);
            }
        }
        put_section(&mut out, SEC_STAGES, &body);

        let mut body = Vec::new();
        put_u16(&mut body, WAKE_BUCKETS as u16);
        for &count in &self.events_per_wake {
            put_u64(&mut body, count);
        }
        put_section(&mut out, SEC_WAKE_HIST, &body);

        let mut body = Vec::new();
        put_u16(&mut body, self.shards.len() as u16);
        put_u16(&mut body, SHARD_FIELDS as u16);
        for s in &self.shards {
            for v in s.counter_values() {
                put_u64(&mut body, v);
            }
        }
        put_section(&mut out, SEC_SHARDS, &body);

        if !self.rings.is_empty() {
            let mut body = Vec::new();
            put_u16(&mut body, self.rings.len() as u16);
            for ring in &self.rings {
                put_u32(&mut body, ring.len() as u32);
                for e in ring {
                    put_u64(&mut body, e.ts_ns);
                    body.push(e.tag);
                    put_u64(&mut body, e.arg);
                }
            }
            put_section(&mut out, SEC_RINGS, &body);
        }

        if !self.spans.is_empty() {
            let mut body = Vec::with_capacity(8 + self.spans.len() * SPAN_RECORD_BYTES);
            put_u32(&mut body, self.spans.len() as u32);
            put_u16(&mut body, SPAN_RECORD_BYTES as u16);
            for s in &self.spans {
                put_u64(&mut body, s.trace_id);
                put_u64(&mut body, s.conn);
                put_u16(&mut body, s.channel);
                put_u16(&mut body, s.shard);
                put_u32(&mut body, s.doc_seq);
                body.push(s.flags);
                body.push(s.fault);
                put_u32(&mut body, s.doc_bytes);
                put_u64(&mut body, s.end_ns);
                put_u64(&mut body, s.total_us);
                put_u64(&mut body, s.queue_us);
                put_u64(&mut body, s.classify_us);
                put_u64(&mut body, s.drain_us);
            }
            put_section(&mut out, SEC_SPANS, &body);
        }

        if !self.simd.is_empty() {
            let b = self.simd.as_bytes();
            let b = &b[..b.len().min(u16::MAX as usize)];
            let mut body = Vec::with_capacity(2 + b.len());
            put_u16(&mut body, b.len() as u16);
            body.extend_from_slice(b);
            put_section(&mut out, SEC_SIMD, &body);
        }

        out
    }

    /// Decode a StatsReport blob. Unknown sections are skipped by length
    /// and unknown appended fields by count, so a blob from a *newer*
    /// schema still yields every field this build knows; sections a blob
    /// omits stay at their defaults.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotDecodeError> {
        let mut r = Reader { buf: bytes };
        let _version = r.u16()?; // all versions share the section framing
        let mut snap = MetricsSnapshot::default();
        while !r.is_empty() {
            let tag = r.u16()?;
            let len = r.u32()? as usize;
            let mut body = Reader { buf: r.take(len)? };
            match tag {
                SEC_COUNTERS => {
                    for i in 0..body.u16()? as usize {
                        snap.assign_counter(i, body.u64()?);
                    }
                }
                SEC_LANGS => {
                    let n = body.u16()? as usize;
                    let mut names = Vec::with_capacity(n);
                    let mut wins = Vec::with_capacity(n);
                    for _ in 0..n {
                        let len = body.u16()? as usize;
                        let name = std::str::from_utf8(body.take(len)?)
                            .map_err(|_| SnapshotDecodeError("language name not UTF-8"))?;
                        names.push(name.to_string());
                        wins.push(body.u64()?);
                    }
                    snap.lang_names = names;
                    snap.lang_wins = wins;
                }
                SEC_STAGES => {
                    let n_bounds = body.u16()? as usize;
                    for _ in 0..n_bounds {
                        let _ = body.u64()?; // bounds are self-description
                    }
                    let stages = body.u16()? as usize;
                    let buckets = body.u16()? as usize;
                    let mut hists = snap.stages_mut();
                    for s in 0..stages {
                        for b in 0..buckets {
                            let v = body.u64()?;
                            // Stages or buckets past the known ones: dropped.
                            if let Some(slot) = hists.get_mut(s).and_then(|h| h.get_mut(b)) {
                                *slot = v;
                            }
                        }
                    }
                }
                SEC_WAKE_HIST => {
                    let buckets = body.u16()? as usize;
                    for b in 0..buckets {
                        let v = body.u64()?;
                        if let Some(slot) = snap.events_per_wake.get_mut(b) {
                            *slot = v;
                        }
                    }
                }
                SEC_SHARDS => {
                    let n = body.u16()? as usize;
                    let fields = body.u16()? as usize;
                    let mut shards = Vec::with_capacity(n);
                    for _ in 0..n {
                        let mut shard = ShardStats::default();
                        for f in 0..fields {
                            shard.assign_counter(f, body.u64()?);
                        }
                        shards.push(shard);
                    }
                    snap.shards = shards;
                }
                SEC_RINGS => {
                    let n = body.u16()? as usize;
                    let mut rings = Vec::with_capacity(n);
                    for _ in 0..n {
                        let events = body.u32()? as usize;
                        let mut ring = Vec::with_capacity(events.min(crate::ring::RING_ENTRIES));
                        for _ in 0..events {
                            let ts_ns = body.u64()?;
                            let tag = body.u8()?;
                            let arg = body.u64()?;
                            ring.push(RingEvent { ts_ns, tag, arg });
                        }
                        rings.push(ring);
                    }
                    snap.rings = rings;
                }
                SEC_SPANS => {
                    let n = body.u32()? as usize;
                    let rec_len = body.u16()? as usize;
                    if rec_len < SPAN_RECORD_BYTES {
                        return Err(SnapshotDecodeError("span record shorter than known"));
                    }
                    let mut spans = Vec::with_capacity(n.min(4096));
                    for _ in 0..n {
                        let mut rec = Reader {
                            buf: body.take(rec_len)?,
                        };
                        spans.push(SpanRecord {
                            trace_id: rec.u64()?,
                            conn: rec.u64()?,
                            channel: rec.u16()?,
                            shard: rec.u16()?,
                            doc_seq: rec.u32()?,
                            flags: rec.u8()?,
                            fault: rec.u8()?,
                            doc_bytes: rec.u32()?,
                            end_ns: rec.u64()?,
                            total_us: rec.u64()?,
                            queue_us: rec.u64()?,
                            classify_us: rec.u64()?,
                            drain_us: rec.u64()?,
                        });
                        // Trailing bytes are fields from a newer schema.
                    }
                    snap.spans = spans;
                }
                // A dump recorded before the section was retired: skipped.
                SEC_HISTORY => {}
                SEC_SIMD => {
                    let len = body.u16()? as usize;
                    snap.simd = std::str::from_utf8(body.take(len)?)
                        .map_err(|_| SnapshotDecodeError("simd label not UTF-8"))?
                        .to_string();
                }
                _ => {} // a section from a newer schema: skipped by length
            }
        }
        Ok(snap)
    }
}

/// Approximate percentile over a fixed-bucket latency histogram: returns
/// the upper bound (µs) of the bucket holding the `q`-th percentile
/// sample (`q` in `0.0..=1.0`), `u64::MAX` when it lands in the overflow
/// bucket, or `None` for an empty histogram. Client `--timing` and
/// server stage histograms share this, so the two sides diff cleanly.
///
/// **Overflow sentinel:** `Some(u64::MAX)` means "beyond the last bound"
/// (> `LATENCY_BOUNDS_US.last()`), *not* a measured value. Renderers
/// must special-case it — as `> 300000 µs`, or JSON `{"gt_us": 300000}`
/// — never serialize the raw sentinel (casting it to a signed type
/// produces the misleading `-1` this note exists to prevent).
pub fn histogram_percentile_us(buckets: &[u64; LATENCY_BUCKETS], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return Some(LATENCY_BOUNDS_US.get(i).copied().unwrap_or(u64::MAX));
        }
    }
    Some(u64::MAX)
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conns {}/{} (peak {}) docs {} bytes {} ngrams {} errors {} watchdog {}",
            self.connections_current,
            self.connections,
            self.connections_peak,
            self.documents,
            self.bytes,
            self.ngrams,
            self.protocol_errors,
            self.watchdog_resets,
        )?;
        write!(
            f,
            " channels {} (peak {})",
            self.channels_current, self.channels_peak
        )?;
        if self.channel_resets > 0 {
            write!(f, " ch-resets {}", self.channel_resets)?;
        }
        if self.accepts_rejected > 0 {
            write!(f, " rejected {}", self.accepts_rejected)?;
        }
        if self.outbound_stalls > 0 {
            write!(
                f,
                " stalls {} (queue-peak {} B)",
                self.outbound_stalls, self.outbound_queue_peak
            )?;
        }
        if self.slow_consumer_resets > 0 {
            write!(f, " slow-resets {}", self.slow_consumer_resets)?;
        }
        if self.channels_closed > 0 {
            write!(f, " ch-closed {}", self.channels_closed)?;
        }
        if self.worker_panics > 0 || self.worker_restarts > 0 {
            write!(
                f,
                " worker-panics {} restarts {}",
                self.worker_panics, self.worker_restarts
            )?;
        }
        if self.busy_shed > 0 {
            write!(f, " busy-shed {}", self.busy_shed)?;
        }
        if self.drain_shed > 0 {
            write!(f, " drain-shed {}", self.drain_shed)?;
        }
        if self.faults_injected > 0 {
            write!(f, " chaos-injected {}", self.faults_injected)?;
        }
        if self.payload_copies > 0 {
            write!(
                f,
                " payload-copies {}/{}",
                self.payload_copies, self.data_frames
            )?;
        }
        // Top-3 languages by win count — the per-language counters were
        // collected from day one but never rendered anywhere.
        let mut wins: Vec<(usize, u64)> = self
            .lang_wins
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, w)| w > 0)
            .collect();
        if !wins.is_empty() {
            wins.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            write!(f, " | top")?;
            for &(i, w) in wins.iter().take(3) {
                match self.lang_names.get(i) {
                    Some(name) if !name.is_empty() => write!(f, " {name}:{w}")?,
                    _ => write!(f, " lang{i}:{w}")?,
                }
            }
        }
        write!(f, " | latency(µs)")?;
        for (i, count) in self.latency.iter().enumerate() {
            if *count == 0 {
                continue;
            }
            match LATENCY_BOUNDS_US.get(i) {
                Some(b) => write!(f, " ≤{b}:{count}")?,
                None => write!(f, " >{}:{count}", LATENCY_BOUNDS_US[i - 1])?,
            }
        }
        if !self.simd.is_empty() {
            write!(f, " | simd {}", self.simd)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_timings(total: Duration) -> DocTimings {
        DocTimings {
            total,
            ..DocTimings::default()
        }
    }

    #[test]
    fn documents_land_in_the_right_bucket() {
        let m = ServiceMetrics::new(3);
        m.record_document(1, 100, 97, 0, doc_timings(Duration::from_micros(50)));
        m.record_document(1, 200, 197, 0, doc_timings(Duration::from_micros(2_000)));
        m.record_document(2, 300, 297, 0, doc_timings(Duration::from_secs(10)));
        let s = m.snapshot();
        assert_eq!(s.documents, 3);
        assert_eq!(s.bytes, 600);
        assert_eq!(s.ngrams, 591);
        assert_eq!(s.lang_wins, vec![0, 2, 1]);
        assert_eq!(s.latency[0], 1); // ≤ 100 µs
        assert_eq!(s.latency[3], 1); // ≤ 3 ms
        assert_eq!(s.latency[LATENCY_BOUNDS_US.len()], 1); // overflow
    }

    #[test]
    fn stage_histograms_land_in_the_right_bucket() {
        // Mirrors documents_land_in_the_right_bucket for the per-stage
        // decomposition: each stage buckets independently on the shared
        // bounds.
        let m = ServiceMetrics::new(1);
        m.record_document(
            0,
            10,
            5,
            0,
            DocTimings {
                total: Duration::from_micros(250),
                queue_wait: Duration::from_micros(50),
                classify: Duration::from_micros(150),
            },
        );
        m.record_document(
            0,
            10,
            5,
            0,
            DocTimings {
                total: Duration::from_secs(1),
                queue_wait: Duration::from_millis(950),
                classify: Duration::from_micros(100),
            },
        );
        m.record_drain(Duration::from_micros(90));
        m.record_drain(Duration::from_millis(20));
        let s = m.snapshot();
        assert_eq!(s.latency[1], 1); // 250 µs ≤ 300
        assert_eq!(s.latency[LATENCY_BOUNDS_US.len()], 1); // 1 s overflows
        assert_eq!(s.queue_wait[0], 1); // 50 µs ≤ 100
        assert_eq!(s.queue_wait[LATENCY_BOUNDS_US.len()], 1); // 950 ms > 300 ms
        assert_eq!(s.classify[1], 1); // 150 µs ≤ 300
        assert_eq!(s.classify[0], 1); // 100 µs ≤ 100 (exact boundary)
        assert_eq!(s.response_drain[0], 1); // 90 µs ≤ 100
        assert_eq!(s.response_drain[5], 1); // 20 ms ≤ 30 ms
    }

    #[test]
    fn stage_bucket_boundaries_are_inclusive() {
        for (i, &bound) in LATENCY_BOUNDS_US.iter().enumerate() {
            let m = ServiceMetrics::new(1);
            m.record_drain(Duration::from_micros(bound));
            assert_eq!(m.snapshot().response_drain[i], 1, "bound {bound} µs");
            m.record_drain(Duration::from_micros(bound + 1));
            let next = m.snapshot();
            assert_eq!(
                next.response_drain[i + 1],
                1,
                "just past bound {bound} µs lands one bucket up"
            );
        }
    }

    #[test]
    fn shard_docs_sum_to_global_documents() {
        let m = ServiceMetrics::with_topology(vec!["en".into()], 3);
        m.record_document(0, 1, 1, 0, DocTimings::default());
        m.record_document(0, 1, 1, 2, DocTimings::default());
        m.record_document(0, 1, 1, 2, DocTimings::default());
        // Out-of-range shard: counted globally, unattributed per-shard.
        m.record_document(0, 1, 1, usize::MAX, DocTimings::default());
        let s = m.snapshot();
        assert_eq!(s.documents, 4);
        assert_eq!(s.shards.len(), 3);
        assert_eq!(s.shards[0].docs, 1);
        assert_eq!(s.shards[1].docs, 0);
        assert_eq!(s.shards[2].docs, 2);
    }

    #[test]
    fn shard_queue_gauges_track_depth_and_peak() {
        let m = ServiceMetrics::with_topology(Vec::new(), 1);
        let s = m.shard(0).unwrap();
        s.note_enqueued();
        s.note_enqueued();
        s.note_enqueued();
        s.note_dequeued();
        let snap = m.snapshot();
        assert_eq!(snap.shards[0].jobs, 3);
        assert_eq!(snap.shards[0].queue_depth, 2);
        assert_eq!(snap.shards[0].queue_depth_peak, 3);
        // Underflow repair: an unbalanced dequeue never wraps the gauge.
        s.note_dequeued();
        s.note_dequeued();
        s.note_dequeued();
        assert_eq!(m.snapshot().shards[0].queue_depth, 0);
        assert!(m.shard(1).is_none());
    }

    #[test]
    fn wake_histogram_buckets_event_counts() {
        let m = ServiceMetrics::new(0);
        m.record_wake(1);
        m.record_wake(2);
        m.record_wake(5);
        m.record_wake(200);
        m.record_wake(0); // timeout tick: a wakeup, not a histogram entry
        let s = m.snapshot();
        assert_eq!(s.reactor_wakeups, 5);
        assert_eq!(s.events_per_wake.iter().sum::<u64>(), 4);
        assert_eq!(s.events_per_wake[0], 1); // 1
        assert_eq!(s.events_per_wake[1], 1); // 2
        assert_eq!(s.events_per_wake[3], 1); // 5 ≤ 8
        assert_eq!(s.events_per_wake[EVENTS_PER_WAKE_BOUNDS.len()], 1); // 200
    }

    #[test]
    fn out_of_range_winner_is_ignored() {
        let m = ServiceMetrics::new(2);
        m.record_document(9, 1, 1, 0, DocTimings::default());
        assert_eq!(m.snapshot().lang_wins, vec![0, 0]);
        assert_eq!(m.snapshot().documents, 1);
    }

    #[test]
    fn snapshot_displays_compactly() {
        let m = ServiceMetrics::new(1);
        m.record_document(0, 10, 7, 0, doc_timings(Duration::from_micros(80)));
        let line = m.snapshot().to_string();
        assert!(line.contains("docs 1"));
        assert!(line.contains("≤100:1"));
        // Zero-valued fault gauges stay out of the line...
        assert!(!line.contains("stalls"));
        assert!(!line.contains("rejected"));
        assert!(!line.contains("slow-resets"));
    }

    #[test]
    fn display_shows_top_three_languages_by_wins() {
        let m = ServiceMetrics::with_topology(
            vec!["en".into(), "fr".into(), "de".into(), "es".into()],
            0,
        );
        for _ in 0..5 {
            m.record_document(1, 1, 1, 0, DocTimings::default());
        }
        for _ in 0..3 {
            m.record_document(3, 1, 1, 0, DocTimings::default());
        }
        m.record_document(0, 1, 1, 0, DocTimings::default());
        m.record_document(2, 1, 1, 0, DocTimings::default());
        let line = m.snapshot().to_string();
        let top = line.split(" | top").nth(1).expect("top section rendered");
        assert!(top.starts_with(" fr:5 es:3"), "got: {line}");
        // Only three entries render; the 1-win tie breaks by index (en).
        assert!(top.contains(" en:1"));
        assert!(!top.contains("de:1"), "got: {line}");
    }

    #[test]
    fn display_omits_top_section_with_no_wins() {
        let m = ServiceMetrics::new(3);
        assert!(!m.snapshot().to_string().contains("| top"));
    }

    #[test]
    fn connection_gauges_appear_once_nonzero() {
        use std::sync::atomic::Ordering;
        let m = ServiceMetrics::new(1);
        m.connections_current.store(3, Ordering::Relaxed);
        m.connections_peak.store(9, Ordering::Relaxed);
        m.accepts_rejected.store(2, Ordering::Relaxed);
        m.outbound_stalls.store(4, Ordering::Relaxed);
        m.outbound_queue_peak.store(65536, Ordering::Relaxed);
        m.slow_consumer_resets.store(1, Ordering::Relaxed);
        m.channels_current.store(5, Ordering::Relaxed);
        m.channels_peak.store(12, Ordering::Relaxed);
        m.channel_resets.store(2, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(
            (
                s.connections_current,
                s.connections_peak,
                s.accepts_rejected
            ),
            (3, 9, 2)
        );
        assert_eq!((s.outbound_stalls, s.slow_consumer_resets), (4, 1));
        assert_eq!((s.channels_current, s.channels_peak), (5, 12));
        assert_eq!((s.channel_resets, s.outbound_queue_peak), (2, 65536));
        let line = s.to_string();
        assert!(line.contains("(peak 9)"));
        assert!(line.contains("rejected 2"));
        assert!(line.contains("stalls 4"));
        assert!(line.contains("queue-peak 65536"));
        assert!(line.contains("slow-resets 1"));
        assert!(line.contains("channels 5 (peak 12)"));
        assert!(line.contains("ch-resets 2"));
    }

    #[test]
    fn robustness_gauges_appear_once_nonzero() {
        use std::sync::atomic::Ordering;
        let m = ServiceMetrics::new(1);
        // All zero: none of the fault-path gauges clutter the line.
        let quiet = m.snapshot().to_string();
        assert!(!quiet.contains("worker-panics"));
        assert!(!quiet.contains("busy-shed"));
        assert!(!quiet.contains("drain-shed"));
        assert!(!quiet.contains("ch-closed"));
        assert!(!quiet.contains("chaos-injected"));
        m.worker_panics.store(2, Ordering::Relaxed);
        m.worker_restarts.store(1, Ordering::Relaxed);
        m.busy_shed.store(7, Ordering::Relaxed);
        m.drain_shed.store(3, Ordering::Relaxed);
        m.channels_closed.store(4, Ordering::Relaxed);
        m.faults_injected.store(9, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!((s.worker_panics, s.worker_restarts), (2, 1));
        assert_eq!((s.busy_shed, s.drain_shed), (7, 3));
        assert_eq!((s.channels_closed, s.faults_injected), (4, 9));
        let line = s.to_string();
        assert!(line.contains("worker-panics 2 restarts 1"));
        assert!(line.contains("busy-shed 7"));
        assert!(line.contains("drain-shed 3"));
        assert!(line.contains("ch-closed 4"));
        assert!(line.contains("chaos-injected 9"));
    }

    #[test]
    fn percentiles_read_off_the_buckets() {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        assert_eq!(histogram_percentile_us(&buckets, 0.5), None);
        buckets[0] = 90; // ≤ 100 µs
        buckets[2] = 9; // ≤ 1 ms
        buckets[LATENCY_BUCKETS - 1] = 1; // overflow
        assert_eq!(histogram_percentile_us(&buckets, 0.5), Some(100));
        assert_eq!(histogram_percentile_us(&buckets, 0.95), Some(1_000));
        assert_eq!(histogram_percentile_us(&buckets, 0.99), Some(1_000));
        assert_eq!(histogram_percentile_us(&buckets, 1.0), Some(u64::MAX));
    }

    fn busy_snapshot() -> MetricsSnapshot {
        let m = ServiceMetrics::with_topology(vec!["en".into(), "español".into()], 2);
        m.record_document(
            0,
            1000,
            500,
            0,
            DocTimings {
                total: Duration::from_micros(400),
                queue_wait: Duration::from_micros(90),
                classify: Duration::from_micros(250),
            },
        );
        m.record_document(1, 2000, 900, 1, doc_timings(Duration::from_millis(5)));
        m.record_drain(Duration::from_micros(40));
        m.record_wake(3);
        m.connections.store(7, Ordering::Relaxed);
        m.read_syscalls.store(41, Ordering::Relaxed);
        m.short_read_continuations.store(2, Ordering::Relaxed);
        m.shard(0).unwrap().note_enqueued();
        m.set_simd("avx2");
        m.set_simd("scalar"); // later calls are ignored: dispatch is set once
        let mut snap = m.snapshot();
        assert_eq!(snap.simd, "avx2");
        snap.rings = vec![vec![
            RingEvent {
                ts_ns: 17,
                tag: 1,
                arg: 3,
            },
            RingEvent {
                ts_ns: 90,
                tag: 7,
                arg: 0,
            },
        ]];
        snap.spans = vec![
            SpanRecord {
                trace_id: 0xDEAD_BEEF,
                conn: 3,
                channel: 1,
                shard: 0,
                doc_seq: 9,
                flags: 1 | 8,
                fault: 7,
                doc_bytes: 4096,
                end_ns: 1_000_000,
                total_us: 450,
                queue_us: 90,
                classify_us: 250,
                drain_us: 40,
            },
            SpanRecord::default(),
        ];
        snap
    }

    #[test]
    fn snapshot_roundtrips_the_wire_schema() {
        let snap = busy_snapshot();
        let bytes = snap.encode();
        let decoded = MetricsSnapshot::decode(&bytes).expect("decode");
        assert_eq!(decoded, snap);
        // Encoding is deterministic: re-encoding the decoded snapshot is
        // bit-identical.
        assert_eq!(decoded.encode(), bytes);
    }

    /// `busy_snapshot().encode()` as the schema-v1 encoder writes it: pins
    /// every counter, stage, bucket and shard-field position (the
    /// roundtrip tests pass under any consistent reordering).
    const BUSY_SNAPSHOT_HEX: &str = concat!(
        "01000100e20000001c00070000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000200000000000000b80b00000000",
        "00007805000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000010000000000",
        "00000000000000000000290000000000000000000000000000000200000000000000020020000000",
        "02000200656e0100000000000000080065737061c3b16f6c01000000000000000300660100000800",
        "64000000000000002c01000000000000e803000000000000b80b0000000000001027000000000000",
        "3075000000000000a086010000000000e09304000000000004000900000000000000000000000000",
        "00000000010000000000000000000000000000000100000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000200000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000001000000000000000100000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000010000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000004004a00",
        "00000900000000000000000000000000000000000100000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000005006400",
        "00000200060001000000000000000000000000000000010000000000000001000000000000000000",
        "00000000000001000000000000000100000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000060028000000010002000000110000000000",
        "00000103000000000000005a00000000000000070000000000000000070092000000020000004600",
        "efbeadde000000000300000000000000010000000900000009070010000040420f0000000000c201",
        "0000000000005a00000000000000fa00000000000000280000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000090006000000040061767832",
    );

    /// Recorded traffic: `busy_snapshot()` as the encoder wrote it while
    /// `SEC_HISTORY` was live, carrying one history slot. Old dumps and
    /// old servers still produce these bytes.
    const RECORDED_BUSY_SNAPSHOT_HEX: &str = concat!(
        "01000100e20000001c00070000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000200000000000000b80b00000000",
        "00007805000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000010000000000",
        "00000000000000000000290000000000000000000000000000000200000000000000020020000000",
        "02000200656e0100000000000000080065737061c3b16f6c01000000000000000300660100000800",
        "64000000000000002c01000000000000e803000000000000b80b0000000000001027000000000000",
        "3075000000000000a086010000000000e09304000000000004000900000000000000000000000000",
        "00000000010000000000000000000000000000000100000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000200000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000001000000000000000100000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000010000000000000000000000000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000004004a00",
        "00000900000000000000000000000000000000000100000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000005006400",
        "00000200060001000000000000000000000000000000010000000000000001000000000000000000",
        "00000000000001000000000000000100000000000000000000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000060028000000010002000000110000000000",
        "00000103000000000000005a00000000000000070000000000000000070092000000020000004600",
        "efbeadde000000000300000000000000010000000900000009070010000040420f0000000000c201",
        "0000000000005a00000000000000fa00000000000000280000000000000000000000000000000000",
        "00000000000000000000000000000000000000000000000000000000000000000000000000000000",
        "000000000000000000000000000000000000000008006a000000010000000600030080841e000000",
        "000040420f0000000000780000000000000000001000000000000100000000000000000000000000",
        "000002003c0000000000000000a3e111000000000200000000000000000000000000000000000000",
        "000000000000000000000000090006000000040061767832",
    );

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn busy_snapshot_bytes_match_the_golden_encoding() {
        let hex: String = busy_snapshot()
            .encode()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, BUSY_SNAPSHOT_HEX);
    }

    #[test]
    fn recorded_dumps_with_a_history_section_still_decode() {
        let decoded = MetricsSnapshot::decode(&unhex(RECORDED_BUSY_SNAPSHOT_HEX))
            .expect("recorded dump decodes");
        assert_eq!(decoded, busy_snapshot());
    }

    #[test]
    fn golden_is_the_recorded_dump_minus_its_history_section() {
        let recorded = unhex(RECORDED_BUSY_SNAPSHOT_HEX);
        let mut stripped = recorded[..2].to_vec();
        let mut r = Reader {
            buf: &recorded[2..],
        };
        let mut dropped = 0;
        while !r.is_empty() {
            let tag = r.u16().unwrap();
            let len = r.u32().unwrap() as usize;
            let body = r.take(len).unwrap();
            if tag == SEC_HISTORY {
                dropped += 1;
            } else {
                put_section(&mut stripped, tag, body);
            }
        }
        assert_eq!(dropped, 1, "the recorded dump carries one history section");
        assert_eq!(stripped, unhex(BUSY_SNAPSHOT_HEX));
    }

    #[test]
    fn decoder_skips_unknown_sections_and_appended_fields() {
        let snap = busy_snapshot();
        let mut bytes = snap.encode();
        // A future section this build has never heard of.
        put_u16(&mut bytes, 0x7FFF);
        put_u32(&mut bytes, 12);
        bytes.extend_from_slice(&[0xAB; 12]);
        // A future counters section with extra appended counters: replace
        // nothing, just append a second counters section carrying more
        // fields than we know (later sections overwrite earlier ones).
        let counters = snap.counter_values();
        let mut body = Vec::new();
        put_u16(&mut body, (counters.len() + 3) as u16);
        for v in &counters {
            put_u64(&mut body, *v);
        }
        for extra in 0..3u64 {
            put_u64(&mut body, 0xDEAD_0000 + extra);
        }
        put_section(&mut bytes, SEC_COUNTERS, &body);
        let decoded = MetricsSnapshot::decode(&bytes).expect("decode with unknowns");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn plain_snapshots_carry_no_span_section() {
        // Detail ≤ 1 answers must stay bit-identical to the PR 7 schema:
        // the span section only exists when populated, so a plain
        // snapshot's bytes list exactly the original section tags.
        let mut snap = busy_snapshot();
        snap.rings.clear();
        snap.spans.clear();
        snap.simd.clear();
        let bytes = snap.encode();
        let mut r = Reader { buf: &bytes[2..] }; // skip the version word
        let mut tags = Vec::new();
        while !r.is_empty() {
            let tag = r.u16().unwrap();
            let len = r.u32().unwrap() as usize;
            let _ = r.take(len).unwrap();
            tags.push(tag);
        }
        assert_eq!(
            tags,
            vec![
                SEC_COUNTERS,
                SEC_LANGS,
                SEC_STAGES,
                SEC_WAKE_HIST,
                SEC_SHARDS
            ]
        );
    }

    #[test]
    fn truncated_blob_is_a_typed_error_not_a_panic() {
        let bytes = busy_snapshot().encode();
        for cut in [0, 1, 3, bytes.len() / 2, bytes.len() - 1] {
            let r = MetricsSnapshot::decode(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail to decode");
        }
    }

    use proptest::prelude::*;

    fn arb_histogram() -> impl Strategy<Value = [u64; LATENCY_BUCKETS]> {
        proptest::collection::vec(0u64..1 << 48, LATENCY_BUCKETS)
            .prop_map(|v| std::array::from_fn(|i| v[i]))
    }

    prop_compose! {
        fn arb_snapshot()(
            counters in proptest::collection::vec(0u64..u64::MAX / 2, 28),
            langs in proptest::collection::vec(
                (proptest::collection::vec(any::<char>(), 0..12), 0u64..1 << 40), 0..6),
            latency in arb_histogram(),
            queue_wait in arb_histogram(),
            classify in arb_histogram(),
            response_drain in arb_histogram(),
            events_per_wake in arb_histogram(),
            shards in proptest::collection::vec(
                proptest::collection::vec(0u64..1 << 40, SHARD_FIELDS), 0..5),
            rings in proptest::collection::vec(
                proptest::collection::vec((0u64..1 << 40, 0u8..16, 0u64..1 << 40), 0..8), 0..3),
            spans in proptest::collection::vec(
                (any::<u64>(), 0u64..1 << 40, any::<u16>(), 0u16..64, any::<u32>(),
                 any::<u8>(), 0u8..12, any::<u32>(),
                 proptest::collection::vec(0u64..1 << 40, 5)), 0..6),
            simd in proptest::SampleFn(|rng: &mut proptest::TestRng| {
                ["", "scalar", "avx2"][(rng.next_u64() % 3) as usize].to_string()
            }),
        ) -> MetricsSnapshot {
            let mut snap = MetricsSnapshot {
                simd,
                lang_names: langs.iter().map(|(n, _)| n.iter().collect()).collect(),
                lang_wins: langs.iter().map(|&(_, w)| w).collect(),
                latency,
                queue_wait,
                classify,
                response_drain,
                events_per_wake,
                shards: shards
                    .iter()
                    .map(|v| ShardStats {
                        docs: v[0],
                        busy_ns: v[1],
                        queue_depth: v[2],
                        queue_depth_peak: v[3],
                        parked: v[4],
                        jobs: v[5],
                    })
                    .collect(),
                rings: rings
                    .iter()
                    .map(|ring| {
                        ring.iter()
                            .map(|&(ts_ns, tag, arg)| RingEvent { ts_ns, tag, arg })
                            .collect()
                    })
                    .collect(),
                spans: spans
                    .iter()
                    .map(
                        |&(trace_id, conn, channel, shard, doc_seq, flags, fault, doc_bytes, ref t)| {
                            SpanRecord {
                                trace_id,
                                conn,
                                channel,
                                shard,
                                doc_seq,
                                flags,
                                fault,
                                doc_bytes,
                                end_ns: t[0],
                                total_us: t[1],
                                queue_us: t[2],
                                classify_us: t[3],
                                drain_us: t[4],
                            }
                        },
                    )
                    .collect(),
                ..MetricsSnapshot::default()
            };
            for (i, &v) in counters.iter().enumerate() {
                snap.assign_counter(i, v);
            }
            snap
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any snapshot round-trips the wire schema bit-identically, and
        /// re-encoding the decode reproduces the exact bytes.
        #[test]
        fn any_snapshot_roundtrips_bit_identically(snap in arb_snapshot()) {
            let bytes = snap.encode();
            let decoded = MetricsSnapshot::decode(&bytes).unwrap();
            prop_assert_eq!(&decoded, &snap);
            prop_assert_eq!(decoded.encode(), bytes);
        }

        /// Garbage prefixes never panic the decoder: they decode to
        /// something or fail with a typed error.
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = MetricsSnapshot::decode(&bytes);
        }
    }
}
