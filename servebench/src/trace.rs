//! Spans around the benchmark's calls into each layer.
//!
//! A traced request records one root span for the wire round trip and
//! one span per replayed pipeline step (see `SessionOut::replay`).
//! Spans stay in memory; [`write_jsonl`] writes them out when the run
//! ends.
//!
//! The replayed steps run after the round trip, not inside it, so a
//! span's children are linked by `parent` rather than nested in time.
//! Self time is therefore a span's duration minus its children's
//! durations: the root's self time is the part of the round trip the
//! replay does not account for (socket, session loop, admission wait),
//! and `query.exec`'s self time is execution minus matching (bindings,
//! sort, projection, aggregates).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-prefixed name, e.g. `query.parse`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// Index of this span in its recorder.
    pub id: usize,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One session's spans.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records an already-timed interval; returns its span id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            id,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(name, request, parent, start, end))
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span name: every span's duration and self time, in µs.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Durations by span name.
    pub total: BTreeMap<&'static str, Vec<f64>>,
    /// Self times (duration minus children's durations) by span name.
    pub own: BTreeMap<&'static str, Vec<f64>>,
}

/// Aggregates spans whose ids are local to one recorder. Spans from
/// several recorders can be passed one recorder's slice at a time.
pub fn layer_times(into: &mut LayerTimes, spans: &[Span]) {
    let mut child_us = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.us();
        }
    }
    for s in spans {
        into.total.entry(s.name).or_default().push(s.us());
        into.own
            .entry(s.name)
            .or_default()
            .push((s.us() - child_us[s.id]).max(0.0));
    }
}

/// Writes spans as JSON lines (`name`, `request`, `id`, `parent`,
/// `start_ns`, `end_ns`), one recorder after another; `session`
/// disambiguates the recorder-local ids.
pub fn write_jsonl<'a>(
    path: &Path,
    sessions: impl IntoIterator<Item = &'a [Span]>,
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (session, spans) in sessions.into_iter().enumerate() {
        for s in spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"session\":{session},\"request\":{},\"id\":{},\"parent\":{parent},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut r = Recorder::new(t0);
        let root = r.record("server.rtt", 1, None, at(0), at(100));
        let exec = r.record("query.exec", 1, Some(root), at(100), at(140));
        r.record("algo.match", 1, Some(exec), at(140), at(170));
        r.record("query.parse", 1, Some(root), at(170), at(175));
        let mut lt = LayerTimes::default();
        layer_times(&mut lt, &r.into_spans());
        assert_eq!(lt.total["server.rtt"], vec![100.0]);
        assert_eq!(lt.own["server.rtt"], vec![55.0]);
        assert_eq!(lt.own["query.exec"], vec![10.0]);
        assert_eq!(lt.own["algo.match"], vec![30.0]);
    }
}
