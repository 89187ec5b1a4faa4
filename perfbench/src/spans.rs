//! In-memory spans recorded by the benchmark around its calls into each
//! layer (traced runs only), their self times, and the span file written
//! when a run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

/// One timed interval. Spans of one document share `doc`; `parent` links a
/// span to the one that caused it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id (see [`span_id`]).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// The document this span belongs to.
    pub doc: u64,
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Span kinds; each document gets at most one span of each kind.
pub const KINDS: [&str; 7] = [
    "classify",
    "core.feed",
    "core.finish",
    "doc",
    "wire.encode",
    "socket.write",
    "await_result",
];

/// A deterministic span id from `(phase, document, kind)`: threads that
/// record different spans of one document agree on ids without talking.
pub fn span_id(phase: u8, doc: u64, kind: &'static str) -> u64 {
    let k = KINDS
        .iter()
        .position(|&n| n == kind)
        .expect("span kind is listed in KINDS") as u64;
    (u64::from(phase) << 56) | (doc << 3) | k
}

/// Collects spans in memory. A disabled recorder records nothing, so the
/// same loop runs traced and untraced.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder timing against `epoch` (share one epoch across threads).
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off (alternating traced/untraced windows).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record `[start, end]` as span `kind` of `doc` in `phase`, under the
    /// document's root span `root` (none for a root).
    pub fn record(
        &mut self,
        phase: u8,
        doc: u64,
        kind: &'static str,
        root: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id: span_id(phase, doc, kind),
            parent: root.map(|r| span_id(phase, doc, r)),
            doc: (u64::from(phase) << 56) | doc,
            name: kind,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
    }

    /// Take the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns - s.start_ns;
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered
        })
        .collect()
}

/// Per span kind: (documents with that span, mean self time in ns).
pub fn self_time_by_kind(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    let selfs = self_times(spans);
    let mut acc: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(&selfs) {
        let e = acc.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    acc.into_iter()
        .map(|(k, (n, total))| (k, (n, total as f64 / n as f64)))
        .collect()
}

/// Write the spans of every `stride`-th document as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span], stride: u64) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if (s.doc & ((1 << 56) - 1)) % stride.max(1) != 0 {
            continue;
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"doc\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, parent, s.doc, s.name, s.start_ns, s.end_ns, self_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            doc: 0,
            name: "doc",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),  // overlaps span 2 over 20..30
            span(4, Some(1), 90, 140), // runs past its parent's end
            span(5, Some(2), 12, 18),
        ];
        // root: 100 - |10..50 ∪ 90..100| = 100 - 50
        assert_eq!(self_times(&spans), vec![50, 14, 30, 50, 6]);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span(9, Some(77), 5, 8)]), vec![3]);
    }

    #[test]
    fn ids_are_unique_per_phase_doc_and_kind() {
        let mut ids: Vec<u64> = (0..2u8)
            .flat_map(|p| (0..4u64).flat_map(move |d| KINDS.map(|k| span_id(p, d, k))))
            .collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn recorder_links_children_to_the_document_root() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch, true);
        let t = epoch + std::time::Duration::from_micros(5);
        r.record(1, 7, "doc", None, epoch, t);
        r.record(1, 7, "wire.encode", Some("doc"), epoch, t);
        let spans = r.into_spans();
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[0].doc, spans[1].doc);
        assert_eq!(self_times(&spans)[0], 0);
        let mut off = Recorder::new(epoch, false);
        off.record(1, 7, "doc", None, epoch, t);
        assert!(off.into_spans().is_empty());
    }
}
