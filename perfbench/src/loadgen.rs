//! Load generation against an in-process server: one connection carrying
//! [`LANES`] wire-v2 channels, driven either closed-loop (one thread, a
//! sliding window of documents in flight) or open-loop (a sender thread
//! on a fixed schedule and a receiver thread).

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lc_core::MultiLanguageClassifier;
use lc_service::{serve, ServerHandle, ServiceConfig};
use lc_wire::{read_frame_mux, write_data_frame_on, WireCommand, WireResponse};

use crate::procstat::{self, TaskStat};
use crate::spans::Recorder;
use crate::workload::{Checker, TestDoc};

/// Wire-v2 channels on the one connection (channel ids `1..=LANES`).
pub const LANES: usize = 8;
/// Documents in flight in the closed loop.
pub const WINDOW: usize = 32;
/// Worker shards, set explicitly so the default does not follow the host.
pub const WORKERS: usize = 2;
/// How long a reader waits for a response before giving up on the rest.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// Lane (0-based) that document sequence number `seq` is sent on.
pub fn lane_of(seq: u64) -> usize {
    (seq % LANES as u64) as usize
}

/// Maps responses back to documents. Documents go out round-robin over
/// the lanes and each channel answers in order, so the k-th response on
/// lane c is document `c + k·LANES`.
#[derive(Default)]
pub struct LaneCursor {
    answered: [u64; LANES],
}

impl LaneCursor {
    /// Sequence number of the next response on wire channel `channel`, or
    /// `None` for a channel no document was sent on.
    pub fn next(&mut self, channel: u16) -> Option<u64> {
        let lane = usize::from(channel).checked_sub(1).filter(|&l| l < LANES)?;
        let seq = lane as u64 + self.answered[lane] * LANES as u64;
        self.answered[lane] += 1;
        Some(seq)
    }
}

/// Encode one document as Size, Data (whole words, then the zero-padded
/// tail) and EndOfDocument, then QueryResult, on `channel`.
pub fn encode_doc<W: Write>(w: &mut W, channel: u16, doc: &[u8]) -> std::io::Result<()> {
    let words = u32::try_from(doc.len().div_ceil(8)).expect("document fits a Size frame");
    let bytes = u32::try_from(doc.len()).expect("document fits a Size frame");
    WireCommand::size(words, bytes).encode_on(channel, w)?;
    let whole = doc.len() / 8 * 8;
    if whole > 0 {
        write_data_frame_on(w, channel, &doc[..whole])?;
    }
    if whole < doc.len() {
        let mut tail = [0u8; 8];
        tail[..doc.len() - whole].copy_from_slice(&doc[whole..]);
        write_data_frame_on(w, channel, &tail)?;
    }
    WireCommand::EndOfDocument.encode_on(channel, w)?;
    WireCommand::QueryResult.encode_on(channel, w)
}

extern "C" {
    // glibc's `int prctl(int option, ...)`.
    fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
}

/// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;

/// Let the calling thread's sleeps overshoot by at most 1 µs instead of
/// the default 50 µs timer slack, so the open-loop sender keeps a
/// schedule whose period is as short as 50 µs. Best effort: on failure
/// the sender just runs later, which `loadgen.late_*` shows.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument, touches no
    // caller memory, and changes only the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000 as std::os::raw::c_ulong);
    }
}

/// Wire channel for sequence number `seq`.
pub fn channel_of(seq: u64) -> u16 {
    lane_of(seq) as u16 + 1
}

/// One decoded response, reduced to what the checker needs.
pub enum Answer {
    /// A Result frame.
    Result {
        /// Per-language counters.
        counts: Vec<u64>,
        /// N-grams tested.
        total_ngrams: u64,
        /// XOR checksum of the received words.
        checksum: u64,
    },
    /// An Error frame, an invalid Result, or an undecodable frame.
    Failed,
}

/// Read one response frame; `Err` on EOF, timeout or socket error.
pub fn read_answer<R: std::io::Read>(r: &mut R) -> std::io::Result<(u16, Answer)> {
    let (kind, channel, payload) = read_frame_mux(r)?
        .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::UnexpectedEof))?;
    let answer = match WireResponse::decode(kind, &payload) {
        Ok(WireResponse::Result {
            counts,
            total_ngrams,
            checksum,
            valid: true,
        }) => Answer::Result {
            counts,
            total_ngrams,
            checksum,
        },
        _ => Answer::Failed,
    };
    Ok((channel, answer))
}

/// Check `answer` as the response to sequence number `seq`.
fn check_answer(checker: &mut Checker<'_>, docs: &[TestDoc], seq: u64, answer: &Answer) {
    let idx = (seq % docs.len() as u64) as usize;
    match answer {
        Answer::Result {
            counts,
            total_ngrams,
            checksum,
        } => {
            checker.check(idx, counts, *total_ngrams, Some(*checksum));
        }
        Answer::Failed => checker.fail(1),
    }
}

/// A running server plus one connection that has read its Hello.
pub struct Served {
    /// The server.
    pub server: ServerHandle,
    /// Buffered read half.
    pub reader: BufReader<TcpStream>,
    /// Buffered write half.
    pub writer: BufWriter<TcpStream>,
}

/// Start a server on an ephemeral localhost port and connect to it,
/// returning once the Hello banner has been read.
pub fn start(classifier: Arc<MultiLanguageClassifier>) -> std::io::Result<Served> {
    let config = ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    };
    let server = serve(classifier, "127.0.0.1:0", config)?;
    let (reader, writer) = connect(server.addr())?;
    Ok(Served {
        server,
        reader,
        writer,
    })
}

fn connect(addr: SocketAddr) -> std::io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let writer = BufWriter::with_capacity(256 * 1024, stream.try_clone()?);
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    let (kind, _, payload) = read_frame_mux(&mut reader)?
        .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::UnexpectedEof))?;
    match WireResponse::decode(kind, &payload) {
        Ok(WireResponse::Hello { .. }) => Ok((reader, writer)),
        _ => Err(std::io::Error::other("first frame was not Hello")),
    }
}

/// Untimed warm-up: `rounds` windows of documents, each sent and answered
/// in full; every answer is checked. Returns false if the connection
/// failed (its unanswered documents are counted as failed).
pub fn warm_up(s: &mut Served, docs: &[TestDoc], checker: &mut Checker<'_>, rounds: usize) -> bool {
    for r in 0..rounds {
        let base = (r * WINDOW) as u64;
        let sent = (base..base + WINDOW as u64).all(|seq| {
            let doc = &docs[(seq % docs.len() as u64) as usize].text;
            encode_doc(&mut s.writer, channel_of(seq), doc).is_ok()
        }) && s.writer.flush().is_ok();
        if !sent {
            checker.fail(WINDOW as u64);
            return false;
        }
        let mut cursor = LaneCursor::default();
        for got in 0..WINDOW {
            let Ok((ch, answer)) = read_answer(&mut s.reader) else {
                checker.fail((WINDOW - got) as u64);
                return false;
            };
            match cursor.next(ch) {
                Some(k) => {
                    check_answer(checker, docs, base + k, &answer);
                }
                None => checker.fail(1),
            }
        }
    }
    true
}

/// What a measured closed-loop phase produced.
pub struct ClosedOut {
    /// Per window: (payload bytes answered, seconds, traced).
    pub windows: Vec<(u64, f64, bool)>,
    /// The load thread's own scheduler counters over the phase.
    pub client: TaskStat,
}

/// Closed loop on the calling thread: keep [`WINDOW`] documents in
/// flight, flushing whenever the read buffer runs dry, for `windows`
/// windows of `window` each. With `alternate` set, the recorder is on only
/// in every other window (for the tracing-overhead ratio).
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    docs: &[TestDoc],
    checker: &mut Checker<'_>,
    rec: &mut Recorder,
    phase: u8,
    window: Duration,
    windows: usize,
    alternate: bool,
) -> ClosedOut {
    let stat0 = procstat::thread_self();
    let traced = rec.enabled();
    let slots = WINDOW as u64 * 2;
    let slot = |seq: u64| (seq % slots) as usize;
    let doc_of = |seq: u64| &docs[(seq % docs.len() as u64) as usize].text;
    // Per in-flight document: encode start/end and the end of the flush
    // that carried it (span boundaries).
    let mut encoded_at = vec![(Instant::now(), Instant::now()); slots as usize];
    let mut flushed_at = vec![Instant::now(); slots as usize];
    let mut unflushed: Vec<u64> = Vec::with_capacity(WINDOW);
    let mut cursor = LaneCursor::default();
    let mut next_seq = 0u64;
    let mut in_flight = 0usize;
    let mut broken = false;

    let mut out = ClosedOut {
        windows: Vec::with_capacity(windows),
        client: TaskStat::default(),
    };
    rec.set_enabled(traced && !alternate);
    let mut win_start = Instant::now();
    let mut win_bytes = 0u64;
    let mut sending = true;
    loop {
        while sending && in_flight < WINDOW && !broken {
            let t0 = Instant::now();
            broken |= encode_doc(writer, channel_of(next_seq), doc_of(next_seq)).is_err();
            encoded_at[slot(next_seq)] = (t0, Instant::now());
            unflushed.push(next_seq);
            next_seq += 1;
            in_flight += 1;
        }
        if in_flight == 0 || broken {
            break;
        }
        if reader.buffer().is_empty() && !unflushed.is_empty() {
            let f0 = Instant::now();
            broken |= writer.flush().is_err();
            let f1 = Instant::now();
            for &seq in &unflushed {
                let (e0, e1) = encoded_at[slot(seq)];
                rec.record(phase, seq, "wire.encode", Some("doc"), e0, e1);
                rec.record(phase, seq, "socket.write", Some("doc"), f0, f1);
                flushed_at[slot(seq)] = f1;
            }
            unflushed.clear();
        }
        let Ok((ch, answer)) = read_answer(reader) else {
            break;
        };
        let now = Instant::now();
        in_flight -= 1;
        let Some(seq) = cursor.next(ch) else {
            checker.fail(1);
            continue;
        };
        check_answer(checker, docs, seq, &answer);
        rec.record(
            phase,
            seq,
            "await_result",
            Some("doc"),
            flushed_at[slot(seq)],
            now,
        );
        rec.record(phase, seq, "doc", None, encoded_at[slot(seq)].0, now);
        if !sending {
            continue;
        }
        win_bytes += doc_of(seq).len() as u64;
        if now.duration_since(win_start) >= window {
            let secs = now.duration_since(win_start).as_secs_f64();
            out.windows.push((win_bytes, secs, rec.enabled()));
            win_bytes = 0;
            win_start = now;
            rec.set_enabled(traced && (!alternate || out.windows.len() % 2 == 1));
            if out.windows.len() >= windows {
                sending = false;
            }
        }
    }
    // Anything still outstanding never got an answer.
    checker.fail(in_flight as u64);
    rec.set_enabled(traced);
    out.client = procstat::thread_self().since(stat0);
    out
}

/// What a measured open-loop phase produced.
pub struct OpenOut {
    /// Per answered document: due time → complete Result read, in µs.
    pub latencies_us: Vec<f64>,
    /// Per sent document: how late the sender started encoding it, in µs.
    pub late_us: Vec<f64>,
    /// Both load threads' scheduler counters over the phase.
    pub client: TaskStat,
}

/// Open loop at `rate` documents per second for `duration`: a sender
/// thread writes each document when it falls due (batching those already
/// due into one write) and a receiver thread reads the answers. Latency is
/// timed from each document's due time.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    docs: &[TestDoc],
    checker: &mut Checker<'_>,
    epoch: Instant,
    traced: bool,
    phase: u8,
    rate: f64,
    duration: Duration,
) -> (OpenOut, Vec<crate::spans::Span>) {
    let n = (rate * duration.as_secs_f64()).round().max(1.0) as u64;
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(2);
    let due = move |seq: u64| start + period.mul_f64(seq as f64);
    // Written by the sender after each flush, read by the receiver only to
    // place the `await_result` span; a stale read just drops that span.
    let sent_ns: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());

    std::thread::scope(|s| {
        let sender = std::thread::Builder::new()
            .name("lcb-send".into())
            .spawn_scoped(s, {
                let sent_ns = Arc::clone(&sent_ns);
                move || {
                    tighten_timer_slack();
                    let stat0 = procstat::thread_self();
                    let mut rec = Recorder::new(epoch, traced);
                    let mut late_us = Vec::with_capacity(n as usize);
                    let mut batch: Vec<(u64, Instant, Instant)> = Vec::new();
                    let mut seq = 0u64;
                    let mut ok = true;
                    while seq < n && ok {
                        let now = Instant::now();
                        while seq < n && due(seq) <= now {
                            let t0 = Instant::now();
                            late_us.push(t0.duration_since(due(seq)).as_secs_f64() * 1e6);
                            let doc = &docs[(seq % docs.len() as u64) as usize].text;
                            ok &= encode_doc(writer, channel_of(seq), doc).is_ok();
                            batch.push((seq, t0, Instant::now()));
                            seq += 1;
                        }
                        let f0 = Instant::now();
                        ok &= writer.flush().is_ok();
                        let f1 = Instant::now();
                        for &(q, e0, e1) in &batch {
                            rec.record(phase, q, "wire.encode", Some("doc"), e0, e1);
                            rec.record(phase, q, "socket.write", Some("doc"), f0, f1);
                            sent_ns[q as usize].store(rec.ns(f1).max(1), Ordering::Relaxed);
                        }
                        batch.clear();
                        if seq < n {
                            let wait = due(seq).saturating_duration_since(Instant::now());
                            if !wait.is_zero() {
                                std::thread::sleep(wait);
                            }
                        }
                    }
                    (
                        late_us,
                        rec.into_spans(),
                        procstat::thread_self().since(stat0),
                    )
                }
            })
            .expect("spawn sender thread");

        let receiver = std::thread::Builder::new()
            .name("lcb-recv".into())
            .spawn_scoped(s, {
                let sent_ns = Arc::clone(&sent_ns);
                let mut local = checker.fresh();
                move || {
                    let stat0 = procstat::thread_self();
                    let mut rec = Recorder::new(epoch, traced);
                    let mut cursor = LaneCursor::default();
                    let mut lat = Vec::with_capacity(n as usize);
                    let mut got = 0u64;
                    while got < n {
                        let Ok((ch, answer)) = read_answer(reader) else {
                            break;
                        };
                        let now = Instant::now();
                        got += 1;
                        let Some(seq) = cursor.next(ch).filter(|&q| q < n) else {
                            local.fail(1);
                            continue;
                        };
                        check_answer(&mut local, docs, seq, &answer);
                        lat.push(now.saturating_duration_since(due(seq)).as_secs_f64() * 1e6);
                        if rec.enabled() {
                            let sent = sent_ns[seq as usize].load(Ordering::Relaxed);
                            if sent != 0 {
                                let sent_at = epoch + Duration::from_nanos(sent);
                                rec.record(phase, seq, "await_result", Some("doc"), sent_at, now);
                            }
                            rec.record(phase, seq, "doc", None, due(seq), now);
                        }
                    }
                    local.fail(n - got);
                    (
                        lat,
                        local,
                        rec.into_spans(),
                        procstat::thread_self().since(stat0),
                    )
                }
            })
            .expect("spawn receiver thread");

        let (late_us, mut spans, send_stat) = sender.join().expect("sender thread panicked");
        let (latencies_us, local, recv_spans, recv_stat) =
            receiver.join().expect("receiver thread panicked");
        checker.merge(local);
        spans.extend(recv_spans);
        (
            OpenOut {
                latencies_us,
                late_us,
                client: send_stat.plus(recv_stat),
            },
            spans,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kth_response_on_lane_c_is_document_c_plus_k_lanes() {
        // Documents 0..40 go out round-robin over the lanes.
        for seq in 0..40u64 {
            assert_eq!(channel_of(seq), (seq % LANES as u64) as u16 + 1);
        }
        let mut cursor = LaneCursor::default();
        // Answers arrive interleaved across lanes but in order per lane.
        for k in 0..5u64 {
            for c in (0..LANES as u64).rev() {
                assert_eq!(cursor.next(c as u16 + 1), Some(c + k * LANES as u64));
            }
        }
    }

    #[test]
    fn unknown_channels_map_to_no_document() {
        let mut cursor = LaneCursor::default();
        assert_eq!(cursor.next(0), None);
        assert_eq!(cursor.next(LANES as u16 + 1), None);
        assert_eq!(cursor.next(3), Some(2));
    }

    #[test]
    fn encoded_document_decodes_to_size_data_eod_query() {
        let doc = b"ten bytes!x";
        let mut out = Vec::new();
        encode_doc(&mut out, 5, doc).expect("encode");
        let mut r = std::io::Cursor::new(out);
        let mut frames = Vec::new();
        while let Some((kind, ch, payload)) = read_frame_mux(&mut r).expect("frame") {
            assert_eq!(ch, 5);
            frames.push(WireCommand::decode(kind, payload).expect("command"));
        }
        assert_eq!(frames.len(), 5);
        assert_eq!(frames[0], WireCommand::size(2, 11));
        let data: Vec<u8> = frames[1..3]
            .iter()
            .flat_map(|f| match f {
                WireCommand::Data(p) => p.to_vec(),
                other => panic!("expected Data, got {other:?}"),
            })
            .collect();
        assert_eq!(&data[..11], doc);
        assert!(data[11..].iter().all(|&b| b == 0));
        assert_eq!(frames[3], WireCommand::EndOfDocument);
        assert_eq!(frames[4], WireCommand::QueryResult);
    }
}
