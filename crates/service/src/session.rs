//! The per-connection protocol state machine.
//!
//! One network session is one simulated match engine: it obeys the same
//! Size / Data / End-of-Document / Query-Result command semantics as
//! `lc_fpga::protocol::FpgaProtocol`, with two differences born of the
//! transport:
//!
//! * TCP delivers commands and data **in order**, so the out-of-order
//!   command queue of the DMA model is unnecessary — an End-of-Document
//!   that arrives before all announced words is a *truncated transfer*
//!   fault, not something to queue behind.
//! * Classification is **streaming**: data words feed an
//!   [`lc_core::StreamingSession`] as they arrive, so a session holds
//!   O(counters) state regardless of document size instead of buffering
//!   whole documents.
//!
//! The watchdog is wall-clock: a session stalled mid-document past the
//! configured period is reset (and the host told so), exactly the recovery
//! path `tests/protocol_faults.rs` exercises against the simulated engine.
//! The owning worker drives it, sweeping its sessions with [`Session::tick`]
//! between jobs (`recv_timeout` granularity bounds how late it can fire).
//! After any mid-document abort — watchdog reset, truncated transfer,
//! excess words — the session *drains*: frames still in flight for the
//! aborted document are discarded silently until the next Size re-arms it,
//! so a pipelined host's one-response-per-document pairing stays intact
//! (the error or unsolicited notice was the aborted document's response).

use lc_core::{ClassificationResult, MultiLanguageClassifier, StreamingSession};
use lc_wire::{ErrorCode, PayloadBytes, WireCommand, WireResponse};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{DocTimings, ServiceMetrics};
use crate::trace::{
    derive_trace_id, PendingSpan, SpanRecord, SpanSet, SPAN_CLIENT_CONTEXT, SPAN_FAULT,
    SPAN_PARKED, SPAN_SAMPLED, SPAN_SLOW,
};

/// A latched Query-Result payload (consumed by the first query, like the
/// hardware latch).
#[derive(Clone, Debug)]
pub struct LatchedResult {
    /// The classification outcome.
    pub result: ClassificationResult,
    /// XOR checksum over the received data words.
    pub checksum: u64,
    /// Status bit: transfer completed and classification valid.
    pub valid: bool,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum State {
    Idle,
    Receiving {
        expected_words: u32,
        received_words: u32,
        doc_bytes: u32,
        bytes_fed: u32,
    },
    /// A fault or watchdog reset aborted an in-flight document. The error
    /// (or unsolicited reset notice) already took that document's response
    /// slot, so frames still in flight for it (Data, EoD, Query) are
    /// discarded silently — otherwise each would generate another response
    /// and desynchronize the client's one-response-per-document pairing.
    /// The next Size (or Reset) re-arms the session.
    Draining,
}

/// One connection's protocol engine, driven by decoded [`WireCommand`]s.
#[derive(Debug)]
pub struct Session {
    state: State,
    stream: StreamingSession,
    checksum: u64,
    latched: Option<LatchedResult>,
    watchdog: Duration,
    last_activity: Instant,
    doc_started: Instant,
    /// Worker shard this session lives on (`usize::MAX` = unattributed,
    /// e.g. in unit tests that drive a session directly).
    shard: usize,
    /// Queue-wait accumulated by the in-flight document's commands
    /// (shard-enqueued → worker-dequeued, summed over its frames).
    queue_wait: Duration,
    /// Time spent feeding this document through the classifier.
    classify_time: Duration,
    /// Span plane shared by every session when tracing is on. `None`
    /// (tracing off) costs one branch per document and nothing else.
    trace: Option<Arc<SpanSet>>,
    /// Connection and channel identity for derived trace ids.
    conn_id: u64,
    channel: u16,
    /// 1-based per-channel document sequence number (trace id input).
    doc_seq: u32,
    trace_id: u64,
    span_flags: u8,
    span_fault: u8,
    /// Head-based sampling decision, taken once at Size time.
    span_armed: bool,
    /// The span's accept edge: the Size command's shard-enqueue stamp.
    span_accept: Instant,
    /// Shard-enqueue stamp of the command about to be applied (a Size
    /// consumes it as the accept edge).
    last_enqueued: Option<Instant>,
    /// Queue wait of the command about to be applied.
    last_cmd_wait: Duration,
    /// Queue-wait restricted to this document's own frames — unlike
    /// `queue_wait` (which, resetting at latch, smears the previous
    /// document's EoD/Query waits forward), this resets at Size so the
    /// span's stages stay disjoint sub-intervals of [accept, latch].
    span_queue_wait: Duration,
    /// A parked frame arrived while idle: flags the *next* document.
    parked_pending: bool,
    /// Payload bytes announced by the in-flight document's Size.
    span_doc_bytes: u32,
    /// Span sealed at latch, waiting for its Query to ride out on.
    pending_span: Option<PendingSpan>,
    /// Span riding the response the caller is about to send; the sender
    /// finishes it with the measured drain time at flush.
    response_span: Option<PendingSpan>,
}

impl Session {
    /// New idle session for one connection.
    pub fn new(classifier: &MultiLanguageClassifier, watchdog: Duration, now: Instant) -> Self {
        Self {
            state: State::Idle,
            stream: StreamingSession::new(classifier),
            checksum: 0,
            latched: None,
            watchdog,
            last_activity: now,
            doc_started: now,
            shard: usize::MAX,
            queue_wait: Duration::ZERO,
            classify_time: Duration::ZERO,
            trace: None,
            conn_id: 0,
            channel: 0,
            doc_seq: 0,
            trace_id: 0,
            span_flags: 0,
            span_fault: 0,
            span_armed: false,
            span_accept: now,
            last_enqueued: None,
            last_cmd_wait: Duration::ZERO,
            span_queue_wait: Duration::ZERO,
            parked_pending: false,
            span_doc_bytes: 0,
            pending_span: None,
            response_span: None,
        }
    }

    /// Pin this session's metrics attribution to worker shard `shard`
    /// (set by the owning worker at channel open so per-shard docs sum to
    /// the global counter).
    pub fn set_shard(&mut self, shard: usize) {
        self.shard = shard;
    }

    /// Accumulate queue-wait observed for one of this session's commands
    /// (stamped at shard-enqueue by the reactor, measured at dequeue by
    /// the worker). Folded into the queue-wait histogram when the current
    /// document latches.
    pub fn note_queue_wait(&mut self, wait: Duration) {
        self.queue_wait += wait;
        self.span_queue_wait += wait;
        self.last_cmd_wait = wait;
    }

    /// Attach the span plane and this session's channel identity (set by
    /// the owning worker at channel open, alongside [`Session::set_shard`]).
    pub fn set_trace(&mut self, set: Arc<SpanSet>, conn: u64, channel: u16) {
        self.trace = Some(set);
        self.conn_id = conn;
        self.channel = channel;
    }

    /// Record the shard-enqueue stamp of the command about to be applied.
    /// A Size consumes it as its document's span accept edge, so the span
    /// covers the same interval the queue-wait histogram measures.
    pub fn note_enqueued(&mut self, enqueued: Instant) {
        self.last_enqueued = Some(enqueued);
    }

    /// Note that the command about to be applied had been parked by the
    /// reactor (its shard queue was full). Mid-document this annotates
    /// the current span; between documents it arms the next one.
    pub fn note_parked(&mut self) {
        if self.trace.is_none() {
            return;
        }
        if self.busy() {
            self.span_flags |= SPAN_PARKED;
        } else {
            self.parked_pending = true;
        }
    }

    /// Annotate the current document's span with a fault code (first
    /// annotation wins; see [`crate::trace::fault_name`]). Fault-annotated
    /// spans force-sample regardless of the 1-in-N decision.
    pub fn trace_fault(&mut self, code: u8) {
        if self.trace.is_none() {
            return;
        }
        if self.span_fault == 0 {
            self.span_fault = code;
        }
        self.span_flags |= SPAN_FAULT;
    }

    /// Take the span riding the response the caller just obtained from
    /// [`Session::apply`] or [`Session::tick`]. The sender completes it
    /// with the measured drain time when the response bytes flush.
    pub fn take_response_span(&mut self) -> Option<PendingSpan> {
        self.response_span.take()
    }

    /// Whether a document transfer is in flight.
    pub fn busy(&self) -> bool {
        matches!(self.state, State::Receiving { .. })
    }

    /// Put a *fresh* session straight into the draining state. Used when a
    /// worker panic poisoned the previous session mid-document: the
    /// `EngineFault` the worker sends took that document's response slot,
    /// so the replacement session must discard the document's remaining
    /// frames (Data, EoD, Query) instead of answering each with a fault —
    /// exactly the watchdog's discard discipline. The next Size re-arms.
    pub fn quarantine(&mut self) {
        self.abort_document();
        self.latched = None;
    }

    /// Apply one command; returns the response to send, if any. Only
    /// `QueryResult` and faults produce responses — data flow is silent,
    /// like the register interface.
    pub fn apply(
        &mut self,
        classifier: &MultiLanguageClassifier,
        metrics: &ServiceMetrics,
        cmd: WireCommand,
        now: Instant,
    ) -> Option<WireResponse> {
        match cmd {
            WireCommand::Size {
                words,
                bytes,
                trace,
            } => {
                if self.busy() {
                    return Some(self.fault(metrics, ErrorCode::SizeWhileBusy, String::new()));
                }
                // A fresh announcement re-arms a draining session.
                self.state = State::Idle;
                self.doc_started = now;
                self.last_activity = now;
                self.checksum = 0;
                self.begin_span(trace, bytes, now);
                if words == 0 {
                    self.latch(metrics, 0, now);
                } else {
                    self.state = State::Receiving {
                        expected_words: words,
                        received_words: 0,
                        doc_bytes: bytes,
                        bytes_fed: 0,
                    };
                }
                None
            }
            WireCommand::Data(data) => self.accept_words(classifier, metrics, &data, now),
            WireCommand::EndOfDocument => match self.state {
                // All words already in: the latch happened on the final
                // word; EoD is a no-op marker (as in the DMA model).
                State::Idle => None,
                // Leftover frame of a watchdog-aborted document.
                State::Draining => None,
                State::Receiving {
                    expected_words,
                    received_words,
                    ..
                } => {
                    let detail = format!("{received_words}/{expected_words} words");
                    self.abort_document();
                    Some(self.fault(metrics, ErrorCode::TruncatedTransfer, detail))
                }
            },
            WireCommand::QueryResult => {
                if self.state == State::Draining {
                    // The aborted document's query; its response slot was
                    // the unsolicited watchdog notice.
                    return None;
                }
                match self.latched.take() {
                    Some(l) => {
                        // The latched document's span leaves with its
                        // result; drain is measured at that flush.
                        self.response_span = self.pending_span.take();
                        Some(WireResponse::Result {
                            counts: l.result.counts().to_vec(),
                            total_ngrams: l.result.total_ngrams(),
                            checksum: l.checksum,
                            valid: l.valid,
                        })
                    }
                    None => Some(self.fault(metrics, ErrorCode::NoResult, String::new())),
                }
            }
            WireCommand::Reset => {
                metrics
                    .channel_resets
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.reset_document();
                self.latched = None;
                None
            }
            // Channel teardown and stats are connection-layer concerns:
            // the reactor consumes CloseChannel and GetStats frames in its
            // decode loop and never forwards them to a session. Reaching
            // here means a decoder bug, not a client error — treat both as
            // inert no-ops.
            WireCommand::CloseChannel => None,
            WireCommand::GetStats { .. } => None,
        }
    }

    /// Advance wall-clock time with no traffic; fires the watchdog if a
    /// transfer stalled past the period. Returns the reset notice to send.
    pub fn tick(&mut self, metrics: &ServiceMetrics, now: Instant) -> Option<WireResponse> {
        if !self.busy() || now.duration_since(self.last_activity) <= self.watchdog {
            return None;
        }
        self.trace_fault(ErrorCode::WatchdogReset as u8);
        self.seal_fault_span(now);
        self.abort_document();
        self.latched = None;
        metrics
            .watchdog_resets
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(WireResponse::Error {
            code: ErrorCode::WatchdogReset,
            detail: "session stalled mid-document".into(),
        })
    }

    fn accept_words(
        &mut self,
        classifier: &MultiLanguageClassifier,
        metrics: &ServiceMetrics,
        data: &PayloadBytes,
        now: Instant,
    ) -> Option<WireResponse> {
        debug_assert_eq!(data.len() % 8, 0, "decode guarantees whole words");
        let n_words = (data.len() / 8) as u64;
        let State::Receiving {
            expected_words,
            received_words,
            doc_bytes,
            bytes_fed,
        } = self.state
        else {
            // Leftover data of a watchdog-aborted document is dropped
            // silently; data with no announcement at all is a fault.
            if self.state == State::Draining {
                return None;
            }
            return Some(self.fault(
                metrics,
                ErrorCode::UnexpectedDma,
                "data with no Size announcement".into(),
            ));
        };
        if u64::from(received_words) + n_words > u64::from(expected_words) {
            let detail = format!(
                "{} words announced, {} delivered",
                expected_words,
                u64::from(received_words) + n_words
            );
            self.abort_document();
            return Some(self.fault(metrics, ErrorCode::UnexpectedDma, detail));
        }
        self.last_activity = now;

        // The payload arrives as refcounted rope segments (zero-copy from
        // the socket buffer); walk them once. The checksum covers the
        // words as transferred (padding included), carrying a partial word
        // across segment boundaries; the classifier sees only the first
        // `take` real document bytes — the streaming extractor handles
        // arbitrary chunk boundaries natively.
        let take = (data.len() as u32).min(doc_bytes - bytes_fed);
        let mut to_feed = take as usize;
        let classify_started = Instant::now();
        let mut word = 0u64;
        let mut word_off = 0usize;
        for piece in data.pieces() {
            let mut bytes = piece;
            while word_off != 0 && !bytes.is_empty() {
                word |= u64::from(bytes[0]) << (8 * word_off);
                bytes = &bytes[1..];
                word_off = (word_off + 1) % 8;
                if word_off == 0 {
                    self.checksum ^= word;
                    word = 0;
                }
            }
            let mut whole = bytes.chunks_exact(8);
            for w in &mut whole {
                self.checksum ^= u64::from_le_bytes(w.try_into().unwrap());
            }
            for &b in whole.remainder() {
                word |= u64::from(b) << (8 * word_off);
                word_off += 1;
            }
            let feed_now = piece.len().min(to_feed);
            if feed_now > 0 {
                self.stream.feed(classifier, &piece[..feed_now]);
                to_feed -= feed_now;
            }
        }
        debug_assert_eq!(word_off, 0, "payload is whole words");
        self.classify_time += classify_started.elapsed();

        let received_words = received_words + n_words as u32;
        if received_words == expected_words {
            self.state = State::Idle;
            self.latch(metrics, doc_bytes, now);
        } else {
            self.state = State::Receiving {
                expected_words,
                received_words,
                doc_bytes,
                bytes_fed: bytes_fed + take,
            };
        }
        None
    }

    /// End-of-transfer: classify, latch, and account — total latency plus
    /// the queue-wait and classify stage accumulators, which reset here
    /// for the next document (an EoD/Query frame's own queue-wait smears
    /// into the following document; bounded by two frames and accepted).
    fn latch(&mut self, metrics: &ServiceMetrics, doc_bytes: u32, now: Instant) {
        let finish_started = Instant::now();
        let result = self.stream.finish();
        self.classify_time += finish_started.elapsed();
        metrics.record_document(
            result.best(),
            u64::from(doc_bytes),
            result.total_ngrams(),
            self.shard,
            DocTimings {
                total: now.duration_since(self.doc_started),
                queue_wait: self.queue_wait,
                classify: self.classify_time,
            },
        );
        self.seal_span(now);
        self.queue_wait = Duration::ZERO;
        self.classify_time = Duration::ZERO;
        self.latched = Some(LatchedResult {
            result,
            checksum: self.checksum,
            valid: true,
        });
    }

    /// Drop any in-flight document (keeps the latch unless the caller
    /// clears it too). `finish` resets the streaming state in place; the
    /// discarded result is the partial standings of the aborted document.
    fn reset_document(&mut self) {
        self.state = State::Idle;
        self.checksum = 0;
        self.queue_wait = Duration::ZERO;
        self.classify_time = Duration::ZERO;
        // A latched-but-unqueried span dies with its document — it never
        // reaches the drain edge, just like the response it described.
        self.pending_span = None;
        let _ = self.stream.finish();
    }

    /// A mid-document fault answered by an error (or the watchdog notice)
    /// consumed that document's response slot: drop its state and drain
    /// the frames still in flight for it so response pairing holds.
    fn abort_document(&mut self) {
        self.reset_document();
        self.state = State::Draining;
    }

    fn fault(&mut self, metrics: &ServiceMetrics, code: ErrorCode, detail: String) -> WireResponse {
        metrics
            .protocol_errors
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.trace_fault(code as u8);
        self.seal_fault_span(Instant::now());
        WireResponse::Error { code, detail }
    }

    /// Arm the next document's span at its Size frame: derive or adopt
    /// the trace id, take the head-sampling decision once, and pin the
    /// accept edge to the Size command's shard-enqueue stamp (falling
    /// back to `now` when driven without a worker in front).
    fn begin_span(&mut self, client_trace: Option<u64>, bytes: u32, now: Instant) {
        let Some(set) = &self.trace else { return };
        self.doc_seq = self.doc_seq.wrapping_add(1);
        self.span_flags = 0;
        self.span_fault = 0;
        self.span_doc_bytes = bytes;
        self.trace_id = match client_trace {
            Some(id) => {
                self.span_flags |= SPAN_CLIENT_CONTEXT;
                id
            }
            None => derive_trace_id(self.conn_id, self.channel, self.doc_seq),
        };
        self.span_armed = set.armed(self.trace_id);
        if self.span_armed {
            self.span_flags |= SPAN_SAMPLED;
        }
        if std::mem::take(&mut self.parked_pending) {
            self.span_flags |= SPAN_PARKED;
        }
        self.span_accept = self.last_enqueued.take().unwrap_or(now);
        // Only the Size's own wait belongs to this document; waits of the
        // previous document's EoD/Query frames accrued since the last
        // reset and are discarded here.
        self.span_queue_wait = self.last_cmd_wait;
        self.last_cmd_wait = Duration::ZERO;
        self.pending_span = None;
    }

    /// Assemble the current document's span. Everything but drain is
    /// final here; the record waits in `pending_span` for the response
    /// that completes the document. Not captured unless sampled, fault-
    /// annotated, or slower than the `--trace-slow-us` threshold.
    fn seal_span(&mut self, now: Instant) {
        let Some(set) = &self.trace else { return };
        let queue_us = self.span_queue_wait.as_micros() as u64;
        let classify_us = self.classify_time.as_micros() as u64;
        // Stage accumulators and the end-to-end edges come from separate
        // clock reads; directly-driven sessions (unit tests hand `apply`
        // one fixed Instant) can skew them. Clamp so the disjoint-stages
        // invariant (queue + classify + drain ≤ total) holds by
        // construction.
        let total_us = (now.saturating_duration_since(self.span_accept).as_micros() as u64)
            .max(queue_us + classify_us);
        if set.slow_us() != 0 && total_us > set.slow_us() {
            self.span_flags |= SPAN_SLOW;
        }
        if !self.span_armed && self.span_flags & (SPAN_FAULT | SPAN_SLOW) == 0 {
            return;
        }
        let record = SpanRecord {
            trace_id: self.trace_id,
            conn: self.conn_id,
            channel: self.channel,
            shard: if self.shard == usize::MAX {
                u16::MAX
            } else {
                self.shard as u16
            },
            doc_seq: self.doc_seq,
            flags: self.span_flags,
            fault: self.span_fault,
            doc_bytes: self.span_doc_bytes,
            end_ns: 0,
            total_us,
            queue_us,
            classify_us,
            drain_us: 0,
        };
        self.pending_span = Some(PendingSpan::new(record, Arc::clone(set)));
    }

    /// A fault response consumed the document's response slot, so its
    /// span leaves on the error: seal immediately and stage it for the
    /// caller's `take_response_span`. (Document-aborting arms reset the
    /// stage accumulators first — a fault span's identity, site, and
    /// end-to-end time are what matter.)
    fn seal_fault_span(&mut self, now: Instant) {
        if self.trace.is_none() {
            return;
        }
        self.seal_span(now);
        self.response_span = self.pending_span.take();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_bloom::BloomParams;
    use lc_core::ClassifierBuilder;
    use lc_ngram::NGramSpec;
    use lc_wire::pack_words;

    fn classifier() -> MultiLanguageClassifier {
        let mut b = ClassifierBuilder::new(NGramSpec::PAPER, 200);
        b.add_language(
            "en",
            [b"the quick brown fox jumps over the lazy dog".as_slice()],
        );
        b.add_language(
            "fr",
            [b"le renard brun saute par dessus le chien".as_slice()],
        );
        b.build_bloom(BloomParams::PAPER_CONSERVATIVE, 1)
    }

    fn send_doc(
        s: &mut Session,
        c: &MultiLanguageClassifier,
        m: &ServiceMetrics,
        doc: &[u8],
    ) -> LatchedResult {
        let now = Instant::now();
        let words = pack_words(doc);
        assert_eq!(
            s.apply(
                c,
                m,
                WireCommand::size(words.len() as u32, doc.len() as u32),
                now,
            ),
            None
        );
        for chunk in words.chunks(3) {
            assert_eq!(s.apply(c, m, WireCommand::data_words(chunk), now), None);
        }
        assert_eq!(s.apply(c, m, WireCommand::EndOfDocument, now), None);
        match s.apply(c, m, WireCommand::QueryResult, now) {
            Some(WireResponse::Result {
                counts,
                total_ngrams,
                checksum,
                valid,
            }) => LatchedResult {
                result: ClassificationResult::new(counts, total_ngrams),
                checksum,
                valid,
            },
            other => panic!("expected Result, got {other:?}"),
        }
    }

    #[test]
    fn happy_path_matches_direct_classification() {
        let c = classifier();
        let m = ServiceMetrics::new(c.num_languages());
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let doc = b"the quick brown fox and the dog";
        let l = send_doc(&mut s, &c, &m, doc);
        assert!(l.valid);
        assert_eq!(l.checksum, lc_wire::xor_checksum(&pack_words(doc)));
        assert_eq!(l.result, c.classify(doc));
        assert_eq!(m.snapshot().documents, 1);
        assert_eq!(m.snapshot().bytes, doc.len() as u64);
    }

    #[test]
    fn result_is_consumed_once() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let _ = send_doc(&mut s, &c, &m, b"the fox");
        match s.apply(&c, &m, WireCommand::QueryResult, Instant::now()) {
            Some(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::NoResult),
            other => panic!("expected NoResult, got {other:?}"),
        }
    }

    #[test]
    fn eod_before_all_words_is_truncated_transfer() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let now = Instant::now();
        s.apply(&c, &m, WireCommand::size(100, 800), now);
        s.apply(&c, &m, WireCommand::data_words(&[1, 2, 3]), now);
        match s.apply(&c, &m, WireCommand::EndOfDocument, now) {
            Some(WireResponse::Error { code, detail }) => {
                assert_eq!(code, ErrorCode::TruncatedTransfer);
                assert!(detail.contains("3/100"));
            }
            other => panic!("expected TruncatedTransfer, got {other:?}"),
        }
        // Session recovered: a full document classifies cleanly.
        let doc = b"the quick brown fox jumps";
        assert_eq!(send_doc(&mut s, &c, &m, doc).result, c.classify(doc));
    }

    #[test]
    fn data_without_size_is_unexpected_dma() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        match s.apply(&c, &m, WireCommand::data_words(&[42]), Instant::now()) {
            Some(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::UnexpectedDma),
            other => panic!("expected UnexpectedDma, got {other:?}"),
        }
        assert_eq!(m.snapshot().protocol_errors, 1);
    }

    #[test]
    fn excess_words_are_unexpected_dma() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let now = Instant::now();
        s.apply(&c, &m, WireCommand::size(2, 16), now);
        match s.apply(&c, &m, WireCommand::data_words(&[1, 2, 3]), now) {
            Some(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::UnexpectedDma),
            other => panic!("expected UnexpectedDma, got {other:?}"),
        }
    }

    #[test]
    fn size_while_busy_is_rejected() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let now = Instant::now();
        s.apply(&c, &m, WireCommand::size(2, 16), now);
        match s.apply(&c, &m, WireCommand::size(2, 16), now) {
            Some(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::SizeWhileBusy),
            other => panic!("expected SizeWhileBusy, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_resets_stalled_session_and_recovers() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let t0 = Instant::now();
        let mut s = Session::new(&c, Duration::from_millis(10), t0);
        s.apply(&c, &m, WireCommand::size(4, 32), t0);
        s.apply(&c, &m, WireCommand::data_words(&[7]), t0);
        // No traffic past the period.
        assert_eq!(s.tick(&m, t0 + Duration::from_millis(5)), None);
        match s.tick(&m, t0 + Duration::from_millis(11)) {
            Some(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::WatchdogReset),
            other => panic!("expected WatchdogReset, got {other:?}"),
        }
        assert!(!s.busy());
        assert_eq!(m.snapshot().watchdog_resets, 1);
        let doc = b"the quick brown fox";
        assert_eq!(send_doc(&mut s, &c, &m, doc).result, c.classify(doc));
    }

    #[test]
    fn watchdog_drain_keeps_response_pairing() {
        // A pipelined host stalls mid-document, then its remaining frames
        // arrive after the reset. They must be discarded silently — the
        // unsolicited notice was that document's one response — and the
        // next Size must re-arm the session.
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let t0 = Instant::now();
        let mut s = Session::new(&c, Duration::from_millis(10), t0);
        s.apply(&c, &m, WireCommand::size(4, 32), t0);
        s.apply(&c, &m, WireCommand::data_words(&[1]), t0);
        assert!(matches!(
            s.tick(&m, t0 + Duration::from_millis(11)),
            Some(WireResponse::Error {
                code: ErrorCode::WatchdogReset,
                ..
            })
        ));
        // The aborted document's leftovers: all silent.
        let late = t0 + Duration::from_millis(12);
        assert_eq!(
            s.apply(&c, &m, WireCommand::data_words(&[2, 3, 4]), late),
            None
        );
        assert_eq!(s.apply(&c, &m, WireCommand::EndOfDocument, late), None);
        assert_eq!(s.apply(&c, &m, WireCommand::QueryResult, late), None);
        // Next document is served normally.
        let doc = b"the quick brown fox jumps over the lazy dog";
        assert_eq!(send_doc(&mut s, &c, &m, doc).result, c.classify(doc));
        assert_eq!(m.snapshot().protocol_errors, 0);
    }

    #[test]
    fn empty_document_is_legal() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let now = Instant::now();
        s.apply(&c, &m, WireCommand::size(0, 0), now);
        match s.apply(&c, &m, WireCommand::QueryResult, now) {
            Some(WireResponse::Result {
                total_ngrams,
                checksum,
                ..
            }) => {
                assert_eq!(total_ngrams, 0);
                assert_eq!(checksum, 0);
            }
            other => panic!("expected Result, got {other:?}"),
        }
    }

    #[test]
    fn reset_mid_transfer_discards_document() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let now = Instant::now();
        s.apply(&c, &m, WireCommand::size(3, 24), now);
        s.apply(&c, &m, WireCommand::data_words(&[7]), now);
        assert_eq!(s.apply(&c, &m, WireCommand::Reset, now), None);
        assert!(!s.busy());
        match s.apply(&c, &m, WireCommand::QueryResult, now) {
            Some(WireResponse::Error { code, .. }) => assert_eq!(code, ErrorCode::NoResult),
            other => panic!("expected NoResult, got {other:?}"),
        }
    }

    #[test]
    fn multi_piece_payloads_classify_and_checksum_identically() {
        // A Data payload that spans rope chunks (several refcounted
        // pieces, split anywhere — including mid-word) must classify and
        // checksum exactly like a contiguous one.
        let c = classifier();
        let m = ServiceMetrics::new(c.num_languages());
        let doc = b"the quick brown fox jumps over the lazy dog and keeps on jumping for a while";
        let words = pack_words(doc);

        // Push the whole burst through a tiny-chunk accumulator so the
        // Data payload comes back as many pieces.
        let mut bytes = Vec::new();
        WireCommand::size(words.len() as u32, doc.len() as u32)
            .encode(&mut bytes)
            .unwrap();
        WireCommand::data_words(&words).encode(&mut bytes).unwrap();
        WireCommand::QueryResult.encode(&mut bytes).unwrap();
        let mut acc = lc_wire::FrameAccumulator::with_chunk_size(13);
        acc.push(&bytes);

        let now = Instant::now();
        let mut s = Session::new(&c, Duration::from_secs(1), now);
        let mut result = None;
        while let Some((k, _ch, p)) = acc.next_frame_mux().unwrap() {
            if k == lc_wire::frame::kind::DATA {
                assert!(p.pieces().count() > 1, "payload must span chunks");
            }
            if let Some(resp) = s.apply(&c, &m, WireCommand::decode(k, p).unwrap(), now) {
                result = Some(resp);
            }
        }
        match result {
            Some(WireResponse::Result {
                counts,
                total_ngrams,
                checksum,
                valid,
            }) => {
                assert!(valid);
                assert_eq!(checksum, lc_wire::xor_checksum(&words));
                assert_eq!(
                    ClassificationResult::new(counts, total_ngrams),
                    c.classify(doc)
                );
            }
            other => panic!("expected Result, got {other:?}"),
        }
    }

    #[test]
    fn traced_document_emits_span_on_its_result() {
        let c = classifier();
        let m = ServiceMetrics::new(c.num_languages());
        let set = Arc::new(SpanSet::new(1, 0, 1));
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        s.set_shard(0);
        s.set_trace(Arc::clone(&set), 11, 3);
        let doc = b"the quick brown fox jumps over the lazy dog";
        let words = pack_words(doc);
        let now = Instant::now();
        s.note_enqueued(now);
        assert_eq!(
            s.apply(
                &c,
                &m,
                WireCommand::size(words.len() as u32, doc.len() as u32),
                now,
            ),
            None
        );
        assert_eq!(s.apply(&c, &m, WireCommand::data_words(&words), now), None);
        assert!(matches!(
            s.apply(&c, &m, WireCommand::QueryResult, now),
            Some(WireResponse::Result { .. })
        ));
        let span = s
            .take_response_span()
            .expect("sampled span rides the result");
        span.finish(Duration::from_micros(7));
        let spans = set.drain();
        assert_eq!(spans.len(), 1);
        let r = spans[0];
        assert_eq!(r.trace_id, derive_trace_id(11, 3, 1));
        assert_eq!(r.conn, 11);
        assert_eq!(r.channel, 3);
        assert_eq!(r.shard, 0);
        assert_eq!(r.doc_seq, 1);
        assert_ne!(r.flags & SPAN_SAMPLED, 0);
        assert_eq!(r.fault, 0);
        assert_eq!(r.doc_bytes, doc.len() as u32);
        assert_eq!(r.drain_us, 7);
        assert!(r.queue_us + r.classify_us + r.drain_us <= r.total_us);
    }

    #[test]
    fn client_trace_context_is_adopted() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let set = Arc::new(SpanSet::new(1, 0, 1));
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        s.set_trace(Arc::clone(&set), 1, 0);
        let doc = b"the fox";
        let words = pack_words(doc);
        let now = Instant::now();
        s.apply(
            &c,
            &m,
            WireCommand::size_traced(words.len() as u32, doc.len() as u32, 0xDEAD_BEEF),
            now,
        );
        s.apply(&c, &m, WireCommand::data_words(&words), now);
        s.apply(&c, &m, WireCommand::QueryResult, now);
        s.take_response_span().unwrap().finish(Duration::ZERO);
        let r = set.drain()[0];
        assert_eq!(r.trace_id, 0xDEAD_BEEF);
        assert_ne!(r.flags & SPAN_CLIENT_CONTEXT, 0);
    }

    #[test]
    fn fault_spans_force_sample_and_name_the_site() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        // Head sampling off: only the fault forces capture.
        let set = Arc::new(SpanSet::new(0, 0, 1));
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        s.set_trace(Arc::clone(&set), 5, 1);
        let now = Instant::now();
        s.apply(&c, &m, WireCommand::size(100, 800), now);
        s.apply(&c, &m, WireCommand::data_words(&[1, 2, 3]), now);
        assert!(matches!(
            s.apply(&c, &m, WireCommand::EndOfDocument, now),
            Some(WireResponse::Error {
                code: ErrorCode::TruncatedTransfer,
                ..
            })
        ));
        let span = s.take_response_span().expect("fault span rides the error");
        span.finish(Duration::ZERO);
        let r = set.drain()[0];
        assert_eq!(r.fault, ErrorCode::TruncatedTransfer as u8);
        assert_ne!(r.flags & SPAN_FAULT, 0);
        assert_eq!(r.flags & SPAN_SAMPLED, 0);
        assert_eq!(crate::trace::fault_name(r.fault), "truncated-transfer");
    }

    #[test]
    fn slow_documents_force_sample_past_the_threshold() {
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let set = Arc::new(SpanSet::new(0, 1_000, 1));
        let t0 = Instant::now();
        let mut s = Session::new(&c, Duration::from_secs(10), t0);
        s.set_trace(Arc::clone(&set), 2, 0);
        let doc = b"the quick brown fox";
        let words = pack_words(doc);
        s.apply(
            &c,
            &m,
            WireCommand::size(words.len() as u32, doc.len() as u32),
            t0,
        );
        let late = t0 + Duration::from_millis(50);
        s.apply(&c, &m, WireCommand::data_words(&words), late);
        s.apply(&c, &m, WireCommand::QueryResult, late);
        s.take_response_span().unwrap().finish(Duration::ZERO);
        let r = set.drain()[0];
        assert_ne!(r.flags & SPAN_SLOW, 0);
        assert!(r.total_us >= 50_000);
        // An on-time document with sampling off leaves no span.
        let done = send_doc(&mut s, &c, &m, doc);
        assert!(done.valid);
        assert!(s.take_response_span().is_none());
        assert!(set.drain().is_empty());
    }

    #[test]
    fn padding_is_checksummed_but_not_classified() {
        // A 9-byte document occupies 2 words; the 7 padding zero bytes must
        // not reach the classifier.
        let c = classifier();
        let m = ServiceMetrics::new(2);
        let mut s = Session::new(&c, Duration::from_secs(1), Instant::now());
        let doc = b"the fox j";
        let l = send_doc(&mut s, &c, &m, doc);
        assert_eq!(l.result, c.classify(doc));
        assert_eq!(l.checksum, lc_wire::xor_checksum(&pack_words(doc)));
    }
}
