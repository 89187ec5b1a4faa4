//! Document-granularity trace spans and snapshot-delta rates.
//!
//! The metrics layer answers "what is the server doing" with one
//! aggregate snapshot. This module answers the two questions aggregates
//! cannot: *what happened to this document* (trace spans) and *how fast
//! is it going right now* (a [`HistorySlot`] between two snapshots).
//!
//! **Spans.** Every document gets a `trace_id` — client-supplied via the
//! wire-v2 TraceContext extension on its Size frame (so a balancer tier
//! can propagate its own id across the hop), or derived from
//! `(conn, channel, doc_seq)` with the same splitmix64 finalizer the
//! shard hash uses. Under head-based sampling (`--trace-sample N` keeps
//! 1-in-N; 0 disables) the session copies the document's one timeline —
//! the same [`crate::metrics::DocTimings`] the stage histograms record —
//! into a [`SpanRecord`], and the outbound flush stamp adds the drain
//! stage, so a sampled-off server pays one branch per document, nothing
//! more. Chaos-injected faults and documents slower than
//! `--trace-slow-us` force-sample themselves regardless of the sampling
//! decision: the interesting documents are exactly the ones a 1-in-N
//! coin flip would usually miss.
//!
//! Completed spans land in a bounded per-shard buffer ([`SpanSet`]),
//! newest-wins: a full buffer drops its *oldest* record so a live
//! `lcbloom trace --follow` always sees current traffic. Spans leave the
//! server via `GetStats(detail=2)` as their own tag/len section — old
//! decoders skip the tag, so the schema stays v1-compatible — and the
//! dump *drains*: each span is reported exactly once.
//!
//! **Rates.** The server keeps no time series. A watcher (`lcbloom stats
//! --watch`, `lcbloom top`) polls plain snapshots, keeps the previous
//! one, and computes [`HistorySlot::delta`] over the interval it measured
//! between the two polls; rates come from the same counters every other
//! reader sees.

use crate::metrics::MetricsSnapshot;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Completed spans kept per shard. Small on purpose: spans are a window
/// onto current traffic, not an archive — a saturated shard wraps in
/// well under a second at full sampling.
pub const SPAN_BUFFER: usize = 256;

/// Span flag: the head-based sampler chose this document.
pub const SPAN_SAMPLED: u8 = 1;
/// Span flag: the trace id came from the client's TraceContext extension.
pub const SPAN_CLIENT_CONTEXT: u8 = 2;
/// Span flag: force-sampled because its end-to-end time crossed
/// `--trace-slow-us`.
pub const SPAN_SLOW: u8 = 4;
/// Span flag: force-sampled because a fault annotated the document.
pub const SPAN_FAULT: u8 = 8;
/// Span flag: at least one of the document's command frames was parked
/// because its shard queue was full (the backpressure path).
pub const SPAN_PARKED: u8 = 16;

/// Fault annotation for a chaos-injected worker delay (the document
/// still classified; the delay was deliberate). Values 1–9 are the wire
/// `ErrorCode` discriminants; this continues past them.
pub const FAULT_WORKER_DELAY: u8 = 10;

/// Stable lower-case name for a span's fault annotation byte: `0` is
/// unannotated ("-"), 1–9 mirror the wire `ErrorCode` taxonomy, 10 is
/// the injected worker delay.
pub fn fault_name(code: u8) -> &'static str {
    match code {
        0 => "-",
        1 => "no-result",
        2 => "size-while-busy",
        3 => "truncated-transfer",
        4 => "unexpected-dma",
        5 => "watchdog-reset",
        6 => "malformed-frame",
        7 => "engine-fault",
        8 => "busy",
        9 => "shutting-down",
        FAULT_WORKER_DELAY => "worker-delay",
        _ => "unknown",
    }
}

/// Derive a document's trace id from its channel identity and sequence
/// number: the same splitmix64-style finalizer `ChannelKey::shard` uses,
/// so ids are well spread and the 1-in-N sample (`trace_id % N == 0`)
/// is unbiased across connections and channels.
pub fn derive_trace_id(conn: u64, channel: u16, doc_seq: u32) -> u64 {
    let mut x = conn
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((u64::from(channel) << 32) | u64::from(doc_seq));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// One document's completed trace span: identity, where it ran, why it
/// was captured, and the stage decomposition. Stage times are disjoint
/// sub-intervals of the span, so `queue_us + classify_us + drain_us ≤
/// total_us` always holds (the CI trace-smoke asserts it on every
/// dumped span).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanRecord {
    /// The document's trace id (client-propagated or derived).
    pub trace_id: u64,
    /// Connection the document arrived on.
    pub conn: u64,
    /// Channel within the connection.
    pub channel: u16,
    /// Worker shard that classified it.
    pub shard: u16,
    /// The document's 1-based sequence number on its channel.
    pub doc_seq: u32,
    /// Capture-reason flags (`SPAN_SAMPLED`, `SPAN_FAULT`, …).
    pub flags: u8,
    /// Fault annotation (0 = clean; see [`fault_name`]).
    pub fault: u8,
    /// Document payload bytes.
    pub doc_bytes: u32,
    /// When the span completed, in nanoseconds since the span plane's
    /// epoch (orders spans across shards in a dump).
    pub end_ns: u64,
    /// End-to-end time: Size accepted at its shard queue → result bytes
    /// flushed into the socket, in microseconds.
    pub total_us: u64,
    /// Size accepted at its shard queue → Size dequeued by the worker.
    pub queue_us: u64,
    /// Time feeding payload bytes through the classifier, plus `finish`.
    pub classify_us: u64,
    /// Result latched → response bytes flushed into the socket.
    pub drain_us: u64,
}

fn unpoisoned<'a, T: ?Sized>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// The span plane: the sampling policy plus one bounded completed-span
/// buffer per worker shard. Created only when tracing is on
/// (`--trace-sample` or `--trace-slow-us`); a server without it carries
/// `None` and pays nothing.
#[derive(Debug)]
pub struct SpanSet {
    sample: u32,
    slow_us: u64,
    epoch: Instant,
    buffers: Vec<Mutex<VecDeque<SpanRecord>>>,
    captured: AtomicU64,
    dropped: AtomicU64,
}

impl SpanSet {
    /// A span plane for `shards` worker shards sampling 1-in-`sample`
    /// (0 = head sampling off; faults and `slow_us` still force-sample).
    pub fn new(sample: u32, slow_us: u64, shards: usize) -> Self {
        Self {
            sample,
            slow_us,
            epoch: Instant::now(),
            buffers: (0..shards.max(1))
                .map(|_| Mutex::new(VecDeque::with_capacity(SPAN_BUFFER)))
                .collect(),
            captured: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The head-sampling rate (1-in-N; 0 = off).
    pub fn sample(&self) -> u32 {
        self.sample
    }

    /// The slow-outlier force-sample threshold in µs (0 = off).
    pub fn slow_us(&self) -> u64 {
        self.slow_us
    }

    /// Head-based sampling decision for a trace id, made at Size time.
    pub fn armed(&self, trace_id: u64) -> bool {
        self.sample != 0 && trace_id.is_multiple_of(u64::from(self.sample))
    }

    /// Nanoseconds since this span plane's epoch (stamps `end_ns`).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Deposit a completed span into its shard's buffer, evicting the
    /// oldest record when full (live tracing wants the newest traffic).
    pub fn push(&self, record: SpanRecord) {
        let i = (record.shard as usize).min(self.buffers.len() - 1);
        let mut buf = unpoisoned(self.buffers[i].lock());
        if buf.len() >= SPAN_BUFFER {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
        self.captured.fetch_add(1, Ordering::Relaxed);
    }

    /// Take every buffered span, ordered by completion time. Draining
    /// (not copying) is what lets `lcbloom trace --follow` poll: each
    /// span is reported exactly once.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for buf in &self.buffers {
            out.extend(unpoisoned(buf.lock()).drain(..));
        }
        out.sort_by_key(|s| s.end_ns);
        out
    }

    /// Spans captured over the plane's lifetime.
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Spans evicted unread because a shard buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A span waiting for its drain stage: everything but `drain_us` is
/// final, and the record rides the outbound queue alongside the flush
/// stamp of the response it describes. `finish` runs when the reactor
/// observes those bytes flushed — the one place the real drain time
/// exists — completing the record and depositing it. A pending span
/// dropped unfinished (its connection died before the flush) is simply
/// lost; its document never got its response either.
#[derive(Debug)]
pub struct PendingSpan {
    record: SpanRecord,
    set: std::sync::Arc<SpanSet>,
}

impl PendingSpan {
    /// A span complete except for its drain stage.
    pub fn new(record: SpanRecord, set: std::sync::Arc<SpanSet>) -> Self {
        Self { record, set }
    }

    /// Complete the span with its measured drain time and deposit it.
    pub fn finish(mut self, drain: Duration) {
        let us = drain.as_micros() as u64;
        self.record.drain_us = us;
        self.record.total_us += us;
        self.record.end_ns = self.set.now_ns();
        let set = std::sync::Arc::clone(&self.set);
        set.push(self.record);
    }
}

/// One history slot's per-shard deltas and gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistoryShard {
    /// Documents latched on this shard during the slot.
    pub docs: u64,
    /// Nanoseconds the shard thread spent applying commands.
    pub busy_ns: u64,
    /// Queue depth at the slot's end (a gauge, not a delta).
    pub queue_depth: u64,
}

/// One interval of server activity: counter deltas between two snapshots
/// over the wall-clock window the caller measured between them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistorySlot {
    /// Slot end, nanoseconds since the caller's epoch (a watcher's
    /// first poll).
    pub ts_ns: u64,
    /// The slot's measured wall-clock length in microseconds (not the
    /// nominal poll interval).
    pub interval_us: u64,
    /// Documents classified during the slot.
    pub docs: u64,
    /// Document payload bytes classified during the slot.
    pub doc_bytes: u64,
    /// Protocol faults answered during the slot.
    pub errors: u64,
    /// Chaos faults injected during the slot.
    pub faults: u64,
    /// Per-shard deltas/gauges, shard-indexed.
    pub shards: Vec<HistoryShard>,
}

impl HistorySlot {
    /// Build a slot from two successive snapshots and the measured
    /// interval between them. Counters are monotonic, but the subtraction
    /// saturates anyway so a torn mid-load snapshot can never produce a
    /// wrapped delta.
    pub fn delta(
        prev: &MetricsSnapshot,
        cur: &MetricsSnapshot,
        ts_ns: u64,
        interval: Duration,
    ) -> Self {
        Self {
            ts_ns,
            interval_us: interval.as_micros() as u64,
            docs: cur.documents.saturating_sub(prev.documents),
            doc_bytes: cur.bytes.saturating_sub(prev.bytes),
            errors: cur.protocol_errors.saturating_sub(prev.protocol_errors),
            faults: cur.faults_injected.saturating_sub(prev.faults_injected),
            shards: cur
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let p = prev.shards.get(i).copied().unwrap_or_default();
                    HistoryShard {
                        docs: s.docs.saturating_sub(p.docs),
                        busy_ns: s.busy_ns.saturating_sub(p.busy_ns),
                        queue_depth: s.queue_depth,
                    }
                })
                .collect(),
        }
    }

    /// Documents per second over the slot's measured interval.
    pub fn docs_per_s(&self) -> f64 {
        if self.interval_us == 0 {
            return 0.0;
        }
        self.docs as f64 * 1e6 / self.interval_us as f64
    }

    /// Payload megabytes per second over the slot's measured interval.
    pub fn mb_per_s(&self) -> f64 {
        if self.interval_us == 0 {
            return 0.0;
        }
        self.doc_bytes as f64 / (1024.0 * 1024.0) * 1e6 / self.interval_us as f64
    }

    /// Fraction of the slot shard `i` spent busy (0 when unknown).
    pub fn busy_frac(&self, i: usize) -> f64 {
        let Some(s) = self.shards.get(i) else {
            return 0.0;
        };
        if self.interval_us == 0 {
            return 0.0;
        }
        (s.busy_ns as f64 / 1e3 / self.interval_us as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn derived_ids_are_stable_and_spread() {
        assert_eq!(derive_trace_id(1, 2, 3), derive_trace_id(1, 2, 3));
        let ids: std::collections::HashSet<u64> =
            (0..64u32).map(|seq| derive_trace_id(7, 3, seq)).collect();
        assert_eq!(ids.len(), 64, "consecutive documents must not collide");
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let set = SpanSet::new(4, 0, 1);
        let hits = (0..4000u32)
            .filter(|&seq| set.armed(derive_trace_id(9, 1, seq)))
            .count();
        // 1-in-4 over well-mixed ids: allow a generous band.
        assert!((700..=1300).contains(&hits), "got {hits}/4000");
        let off = SpanSet::new(0, 0, 1);
        assert!(!off.armed(0), "sample 0 must never arm");
        let all = SpanSet::new(1, 0, 1);
        assert!((0..100).all(|s| all.armed(derive_trace_id(1, 1, s))));
    }

    #[test]
    fn span_buffer_evicts_oldest_keeping_newest() {
        let set = SpanSet::new(1, 0, 1);
        for seq in 0..(SPAN_BUFFER as u32 + 10) {
            set.push(SpanRecord {
                doc_seq: seq,
                ..SpanRecord::default()
            });
        }
        assert_eq!(set.captured(), SPAN_BUFFER as u64 + 10);
        assert_eq!(set.dropped(), 10);
        let spans = set.drain();
        assert_eq!(spans.len(), SPAN_BUFFER);
        assert_eq!(spans[0].doc_seq, 10, "oldest evicted first");
        // Drained means gone: the next dump starts empty.
        assert!(set.drain().is_empty());
    }

    #[test]
    fn pending_span_finishes_with_drain_folded_into_total() {
        let set = Arc::new(SpanSet::new(1, 0, 2));
        let record = SpanRecord {
            trace_id: 42,
            shard: 1,
            total_us: 100,
            queue_us: 30,
            classify_us: 50,
            ..SpanRecord::default()
        };
        PendingSpan::new(record, Arc::clone(&set)).finish(Duration::from_micros(25));
        let spans = set.drain();
        assert_eq!(spans.len(), 1);
        let s = spans[0];
        assert_eq!(s.drain_us, 25);
        assert_eq!(s.total_us, 125);
        assert!(s.queue_us + s.classify_us + s.drain_us <= s.total_us);
        assert!(s.end_ns > 0);
    }

    #[test]
    fn history_slot_rates_come_from_measured_intervals() {
        use crate::metrics::{DocTimings, ServiceMetrics};
        let m = ServiceMetrics::with_topology(vec!["en".into()], 2);
        let prev = m.snapshot();
        for _ in 0..500 {
            m.record_document(0, 2048, 100, 0, DocTimings::default());
        }
        let cur = m.snapshot();
        let slot = HistorySlot::delta(&prev, &cur, 1, Duration::from_millis(500));
        assert_eq!(slot.docs, 500);
        assert_eq!(slot.doc_bytes, 500 * 2048);
        assert!((slot.docs_per_s() - 1000.0).abs() < 1.0);
        let mbps = 500.0 * 2048.0 / (1024.0 * 1024.0) * 2.0;
        assert!((slot.mb_per_s() - mbps).abs() < 0.01);
        assert_eq!(slot.shards.len(), 2);
        assert_eq!(slot.shards[0].docs, 500);
    }

    #[test]
    fn fault_names_are_stable() {
        assert_eq!(fault_name(0), "-");
        assert_eq!(fault_name(7), "engine-fault");
        assert_eq!(fault_name(FAULT_WORKER_DELAY), "worker-delay");
        assert_eq!(fault_name(200), "unknown");
    }
}
