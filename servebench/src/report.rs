//! Metric names, result records, and the comparison command.

use crate::stats;
use serde::{Content, Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As BENCHMARK.json spells it.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as printed and recorded.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics every workload reports in an untraced run; these
/// are the ones BENCHMARK.json lists.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, 0.25),
    m("qps", "1/s", Higher, 0.24),
    m("p50_ms", "ms", Lower, 0.24),
    m("p95_ms", "ms", Lower, 0.24),
    m("peak_rss_mb", "MB", Lower, 0.1),
];

/// End-to-end metrics that some workloads lack, or that can be zero.
/// Recorded and compared, but not listed in BENCHMARK.json: that file
/// requires every listed metric on every workload, and never zero.
pub const SUPPLEMENTARY: &[Metric] = &[
    m("p99_ms", "ms", Lower, 0.25),
    m("error_rate", "ratio", Lower, 0.0),
    m("write_p50_ms", "ms", Lower, 0.25),
    m("write_p99_ms", "ms", Lower, 0.25),
    m("fresh_p50_ms", "ms", Lower, 0.25),
    m("fresh_p99_ms", "ms", Lower, 0.25),
];

/// Per-layer metrics a traced run reports (no bound: they explain an
/// end-to-end move, they do not gate one).
pub const PER_LAYER: &[Metric] = &[
    m("server.rtt_us", "us", Lower, 0.0),
    m("server.wire_us", "us", Lower, 0.0),
    m("server.encode_us", "us", Lower, 0.0),
    m("server.decode_us", "us", Lower, 0.0),
    m("server.reply_bytes", "bytes", Lower, 0.0),
    m("server.refresh_us", "us", Lower, 0.0),
    m("query.parse_us", "us", Lower, 0.0),
    m("query.plan_us", "us", Lower, 0.0),
    m("query.cache_hit_ratio", "ratio", Higher, 0.0),
    m("query.epoch_evictions", "count", Lower, 0.0),
    m("query.exec_us", "us", Lower, 0.0),
    m("query.finish_us", "us", Lower, 0.0),
    m("algo.match_us", "us", Lower, 0.0),
    m("algo.matches", "count", Lower, 0.0),
    m("algo.freeze_ms", "ms", Lower, 0.0),
    m("algo.refreeze_us", "us", Lower, 0.0),
    m("core.pending_changes", "count", Lower, 0.0),
    m("engines.load_ms", "ms", Lower, 0.0),
    m("engines.write_us", "us", Lower, 0.0),
    m("wal.bytes_per_user_byte", "ratio", Lower, 0.0),
    m("wal.checkpoints", "count", Lower, 0.0),
    m("govern.credits_per_query", "credits", Lower, 0.0),
    m("govern.interrupted", "count", Lower, 0.0),
    m("bench.late_p99_ms", "ms", Lower, 0.0),
    m("bench.oracle_s", "s", Lower, 0.0),
    m("bench.trace_overhead", "ms", Lower, 0.0),
];

/// Looks a metric up by name in every table.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(SUPPLEMENTARY)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

/// One measured value and the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// The value.
    pub value: f64,
    /// How many samples produced it.
    pub samples: u64,
}

/// One run's result.
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// `--seconds`.
    pub seconds: u64,
    /// Requests (and, on `ingest_refresh`, writes) attempted.
    pub attempted: u64,
    /// Of those, failed: transport errors, error/interrupted/overloaded
    /// replies, oracle mismatches, writes lost after reopen.
    pub failed: u64,
    /// Canonical checksum of the oracle's answers.
    pub checksum: u64,
    /// Run conditions, as `key → value`.
    pub conditions: Vec<(&'static str, Content)>,
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, Measured>,
}

fn s(v: &str) -> Content {
    Content::Str(v.to_owned())
}

fn map(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(entries.into_iter().map(|(k, v)| (s(k), v)).collect())
}

/// Serializes prepared content as JSON.
struct Json<'a>(&'a Content);

impl Serialize for Json<'_> {
    fn serialize_content(&self) -> Content {
        self.0.clone()
    }
}

/// Parses arbitrary JSON into content.
struct Any(Content);

impl Deserialize for Any {
    fn deserialize_content(c: &Content) -> Result<Self, serde::DeError> {
        Ok(Any(c.clone()))
    }
}

fn json(c: &Content) -> String {
    serde_json::to_string(&Json(c)).expect("content always serializes")
}

impl RunResult {
    /// Whether every request and write was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metric set the run reports on its last line: the
    /// end-to-end metrics untraced, the per-layer metrics traced.
    fn reported(&self) -> &'static [Metric] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The last line of standard output.
    pub fn final_line(&self) -> String {
        let metrics = self
            .reported()
            .iter()
            .map(|m| {
                let v = self.metrics.get(m.name).map_or(0.0, |x| x.value);
                (
                    s(m.name),
                    map(vec![("value", Content::F64(v)), ("unit", s(m.unit))]),
                )
            })
            .collect();
        json(&map(vec![
            ("correct", Content::Bool(self.correct())),
            ("attempted", Content::U64(self.attempted)),
            ("failed", Content::U64(self.failed)),
            ("metrics", Content::Map(metrics)),
        ]))
    }

    /// Human-readable lines: conditions, then every metric with its
    /// unit and sample count.
    pub fn print_human(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(
            out,
            "servebench {} seed={} trace={} seconds={}: {} attempted, {} failed, checksum {:016x}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.seconds,
            self.attempted,
            self.failed,
            self.checksum
        )?;
        for (k, v) in &self.conditions {
            writeln!(out, "  {k}: {}", json(v))?;
        }
        let extra: &[Metric] = if self.trace { &[] } else { SUPPLEMENTARY };
        for m in self.reported().iter().chain(extra) {
            if let Some(x) = self.metrics.get(m.name) {
                writeln!(
                    out,
                    "  {:<26} {:>14.4} {:<8} (n={})",
                    m.name, x.value, m.unit, x.samples
                )?;
            }
        }
        Ok(())
    }

    /// The full record appended to the results file.
    pub fn record(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, x)| {
                let unit = metric(name).map_or("", |m| m.unit);
                (
                    s(name),
                    map(vec![
                        ("value", Content::F64(x.value)),
                        ("unit", s(unit)),
                        ("samples", Content::U64(x.samples)),
                    ]),
                )
            })
            .collect();
        json(&map(vec![
            ("workload", s(self.workload)),
            ("seed", Content::U64(self.seed)),
            ("trace", Content::Bool(self.trace)),
            ("seconds", Content::U64(self.seconds)),
            ("correct", Content::Bool(self.correct())),
            ("attempted", Content::U64(self.attempted)),
            ("failed", Content::U64(self.failed)),
            ("checksum", s(&format!("{:016x}", self.checksum))),
            (
                "conditions",
                Content::Map(
                    self.conditions
                        .iter()
                        .map(|(k, v)| (s(k), v.clone()))
                        .collect(),
                ),
            ),
            ("metrics", Content::Map(metrics)),
        ]))
    }
}

/// Appends `line` to the results file at `path`.
pub fn append(path: &Path, line: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

fn field<'a>(c: &'a Content, key: &str) -> Option<&'a Content> {
    c.as_map()?
        .iter()
        .find(|(k, _)| matches!(k, Content::Str(s) if s == key))
        .map(|(_, v)| v)
}

fn number(c: &Content) -> Option<f64> {
    match c {
        Content::F64(f) => Some(*f),
        Content::I64(i) => Some(*i as f64),
        Content::U64(u) => Some(*u as f64),
        _ => None,
    }
}

/// Untraced results by workload, then metric, in file order.
type Series = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads the untraced records of a results file.
pub fn load(path: &Path) -> io::Result<Series> {
    let text = std::fs::read_to_string(path)?;
    let mut out = Series::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Any(rec) = serde_json::from_str(line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if matches!(field(&rec, "trace"), Some(Content::Bool(true))) {
            continue;
        }
        let Some(Content::Str(workload)) = field(&rec, "workload") else {
            continue;
        };
        let Some(metrics) = field(&rec, "metrics").and_then(Content::as_map) else {
            continue;
        };
        let per = out.entry(workload.clone()).or_default();
        for (k, v) in metrics {
            if let (Content::Str(name), Some(x)) = (k, field(v, "value").and_then(number)) {
                per.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(out)
}

/// The comparison verdict for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A beyond A's own spread, and their quartile
    /// ranges do not overlap.
    Better,
    /// Within the bound either way.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Either side's spread exceeds the bound: no verdict.
    Unresolved,
}

/// Compares two sets of runs of one metric (A the baseline).
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let (a1, am, a3) = stats::quartiles(a);
    let (b1, bm, b3) = stats::quartiles(b);
    if a.len() < 2 || b.len() < 2 {
        return Verdict::Unresolved;
    }
    if am == 0.0 {
        // A zero baseline (an error rate with no errors) has no relative
        // spread: any move off zero is a change in its direction.
        return match (bm == 0.0, metric.better) {
            (true, _) => Verdict::Unchanged,
            (false, Better::Lower) => Verdict::Worse,
            (false, Better::Higher) => Verdict::Better,
        };
    }
    if stats::spread(a) > metric.bound || stats::spread(b) > metric.bound {
        return Verdict::Unresolved;
    }
    // Positive = B better, as a share of A's median.
    let gain = match metric.better {
        Better::Lower => (am - bm) / am,
        Better::Higher => (bm - am) / am,
    };
    let apart = match metric.better {
        Better::Lower => b3 < a1,
        Better::Higher => b1 > a3,
    };
    if -gain > metric.bound {
        Verdict::Worse
    } else if gain > stats::spread(a) && apart {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Prints the comparison of every workload's end-to-end metrics.
pub fn compare(a: &Series, b: &Series, out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "{:<16} {:<14} {:>6} {:>32} {:>32}  verdict",
        "workload", "metric", "bound", "A q1 / median / q3", "B q1 / median / q3"
    )?;
    for (workload, am) in a {
        let Some(bm) = b.get(workload) else {
            writeln!(out, "{workload:<16} (missing from B)")?;
            continue;
        };
        for m in END_TO_END.iter().chain(SUPPLEMENTARY) {
            let (Some(av), Some(bv)) = (am.get(m.name), bm.get(m.name)) else {
                continue;
            };
            let q = |v: &[f64]| {
                let (q1, med, q3) = stats::quartiles(v);
                format!("{q1:.4} / {med:.4} / {q3:.4} (n={})", v.len())
            };
            writeln!(
                out,
                "{:<16} {:<14} {:>6} {:>32} {:>32}  {:?}",
                workload,
                m.name,
                m.bound,
                q(av),
                q(bv),
                verdict(m, av, bv)
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let p50 = metric("p50_ms").unwrap();
        let base = [1.0, 1.01, 0.99, 1.02, 0.98];
        assert_eq!(verdict(p50, &base, &base), Verdict::Unchanged);
        let slower = [1.5, 1.52, 1.49, 1.51, 1.5];
        assert_eq!(verdict(p50, &base, &slower), Verdict::Worse);
        let faster = [0.8, 0.81, 0.79, 0.8, 0.82];
        assert_eq!(verdict(p50, &base, &faster), Verdict::Better);
        let noisy = [0.5, 1.5, 0.7, 1.3, 1.0];
        assert_eq!(verdict(p50, &base, &noisy), Verdict::Unresolved);
        let errors = metric("error_rate").unwrap();
        assert_eq!(verdict(errors, &[0.0; 5], &[0.0; 5]), Verdict::Unchanged);
        assert_eq!(
            verdict(errors, &[0.0; 5], &[0.0, 0.0, 0.1, 0.1, 0.1]),
            Verdict::Worse
        );
    }

    /// BENCHMARK.json (at the repository root) must list exactly the
    /// end-to-end and per-layer tables above.
    #[test]
    fn benchmark_json_matches_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let Any(doc) = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            field(&doc, key)
                .and_then(Content::as_seq)
                .unwrap()
                .iter()
                .map(|e| {
                    let text = |k: &str| match field(e, k) {
                        Some(Content::Str(s)) => s.clone(),
                        _ => String::new(),
                    };
                    (
                        text("name"),
                        text("unit"),
                        text("better"),
                        field(e, "bound").and_then(number),
                    )
                })
                .collect()
        };
        let table = |t: &[Metric], bound: bool| -> Vec<(String, String, String, Option<f64>)> {
            t.iter()
                .map(|m| {
                    (
                        m.name.to_owned(),
                        m.unit.to_owned(),
                        m.better.as_str().to_owned(),
                        bound.then_some(m.bound),
                    )
                })
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END, true));
        assert_eq!(names("per_layer"), table(PER_LAYER, false));
    }
}
