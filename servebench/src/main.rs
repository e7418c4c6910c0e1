//! servebench — the served-query benchmark.
//!
//! ```text
//! servebench --workload <point_lookup|two_hop_join|ingest_refresh|all>
//!            --seed <n> --seconds <s> --trace <0|1> [--out <results.jsonl>]
//! servebench compare <A.jsonl> <B.jsonl>
//! ```
//!
//! Each run stands the seed's graph up behind `gdm-server`, drives it
//! from client sessions for `--seconds`, checks every reply against the
//! oracle, prints every metric with its unit and sample count, appends
//! a full record (seed, run conditions, metrics) to the results file,
//! and ends with one JSON line: `correct`, `attempted`, `failed` and
//! the end-to-end metrics (`--trace 0`) or per-layer metrics
//! (`--trace 1`). See README.md in this directory.

mod gen;
mod ingest;
mod oracle;
mod report;
mod serve;
mod stats;
mod trace;

use gdm_engines::CheckpointPolicy;
use gdm_server::StatsReply;
use ingest::{Writer, WriterOut, WRITE_RATE};
use oracle::Oracle;
use report::{Measured, RunResult};
use serde::Content;
use serve::{run_session, Pace, Res, Served, SessionOut};
use stats::{median, percentile, windowed_percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Where runs leave their results, spans and engine directories.
const OUT_DIR: &str = ".servebench-out";

/// `point_lookup`'s closed-loop sessions.
const LOOKUP_SESSIONS: usize = 2;
/// Query texts generated for `point_lookup`'s closed loop (cycled):
/// more than a run of it sends, so the plan cache sees the full mix.
const LOOKUP_TEXTS: usize = 50_000;
/// `ingest_refresh`'s reader rate: one session, about a quarter of
/// what that session completes beside the write stream on a 2-vCPU
/// virtual machine (every refresh evicts the plan cache, so nearly
/// every read plans afresh). At 100/s, CPU-steal bursts cut capacity
/// below the offered rate and runs went into backlog.
const READER_RATE: f64 = 50.0;
/// `two_hop_join`'s closed-loop sessions.
const JOIN_SESSIONS: usize = 2;
/// Query texts generated for `two_hop_join` (cycled).
const JOIN_TEXTS: usize = 999;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PointLookup,
    TwoHopJoin,
    IngestRefresh,
}

const WORKLOADS: [Workload; 3] = [
    Workload::PointLookup,
    Workload::TwoHopJoin,
    Workload::IngestRefresh,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::PointLookup => "point_lookup",
            Workload::TwoHopJoin => "two_hop_join",
            Workload::IngestRefresh => "ingest_refresh",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    fn people(self) -> usize {
        match self {
            Workload::TwoHopJoin => gen::JOIN_PEOPLE,
            _ => gen::LOOKUP_PEOPLE,
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    fn setups(self) -> usize {
        match self {
            Workload::TwoHopJoin => 5,
            _ => 3,
        }
    }

    /// Open-loop rate, or `None` for the closed loop.
    fn rate(self) -> Option<f64> {
        match self {
            Workload::PointLookup | Workload::TwoHopJoin => None,
            Workload::IngestRefresh => Some(READER_RATE),
        }
    }

    fn durable(self) -> bool {
        self == Workload::IngestRefresh
    }

    fn sessions(self) -> usize {
        match self {
            Workload::PointLookup => LOOKUP_SESSIONS,
            Workload::TwoHopJoin => JOIN_SESSIONS,
            Workload::IngestRefresh => 1,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: Path::new(OUT_DIR).join("results.jsonl"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed wants a number")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds wants a number")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match (argv.get(1), argv.get(2)) {
            (Some(a), Some(b)) => match (report::load(a.as_ref()), report::load(b.as_ref())) {
                (Ok(a), Ok(b)) => {
                    let _ = report::compare(&a, &b, &mut std::io::stdout());
                    ExitCode::SUCCESS
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("servebench compare: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("usage: servebench compare <A.jsonl> <B.jsonl>");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!(
            "servebench: --workload must be one of point_lookup, two_hop_join, ingest_refresh, all"
        );
        return ExitCode::FAILURE;
    };
    let work = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    let outcome = run(workload, &args, &work).and_then(|r| {
        let mut stdout = std::io::stdout();
        r.print_human(&mut stdout)?;
        report::append(&args.out, &r.record())?;
        println!("{}", r.final_line());
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in its own process (so `peak_rss_mb` is
/// per workload), with the same flags.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut args: Vec<String> = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                args.push(a.clone());
            }
        }
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(&args)
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Stands the workload's graph up `setups()` times, keeping the last.
struct Setup {
    served: Served,
    setup_s: Vec<f64>,
    load_ms: Vec<f64>,
    freeze_ms: Vec<f64>,
}

fn set_up(w: Workload, seed: u64, work: &Path) -> Res<Setup> {
    let params = gen::social_params(w.people(), seed);
    let durable = w.durable();
    let mut kept: Option<Served> = None;
    let (mut setup_s, mut load_ms, mut freeze_ms) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..w.setups() {
        if let Some(prev) = kept.take() {
            prev.tear_down();
        }
        let s = serve::stand_up(params, durable, &work.join(format!("setup{k}")))?;
        setup_s.push(s.setup_s);
        load_ms.push(s.load_ms);
        freeze_ms.push(s.freeze_ms);
        kept = Some(s);
    }
    Ok(Setup {
        served: kept.expect("at least one set-up"),
        setup_s,
        load_ms,
        freeze_ms,
    })
}

/// The workload's request texts for a window of `seconds`, and the
/// oracle over them.
fn inputs(w: Workload, seed: u64, seconds: u64, served: &Served) -> Res<(Vec<String>, Oracle)> {
    let texts = match (w, w.rate()) {
        (_, Some(rate)) => gen::lookup_mix(seed, w.people(), (rate * seconds as f64) as usize),
        (Workload::PointLookup, None) => gen::lookup_mix(seed, w.people(), LOOKUP_TEXTS),
        (_, None) => gen::join_mix(seed, w.people(), 10, JOIN_TEXTS),
    };
    // The grouped full two-hop has nothing for the planner to seed, so
    // it runs through the unplanned reference evaluator; every other
    // text is index-seeded and runs through the planned matcher.
    let oracle = Oracle::build(&served.graph, texts.iter().map(String::as_str), |t| {
        t == gen::GROUPED_TWO_HOP
    })?;
    Ok((texts, oracle))
}

/// One measured window.
struct Window {
    sessions: Vec<SessionOut>,
    seconds: f64,
    before: StatsReply,
    after: StatsReply,
    writer: Option<WriterOut>,
}

/// Drives `texts` against the served graph for `seconds` (and, with a
/// writer, the write stream beside it).
fn window(
    w: Workload,
    served: &mut Served,
    writer: Option<&mut Writer>,
    texts: &[String],
    oracle: &Oracle,
    replay: Option<&gdm_engines::ServingSnapshot>,
    seconds: f64,
) -> Res<Window> {
    let addr = served.handle.addr();
    let before = served.handle.stats();
    // A short lead so every session is connected when the schedule starts.
    let start = Instant::now() + Duration::from_millis(50);
    let until = start + Duration::from_secs_f64(seconds);
    let pace = match w.rate() {
        Some(rate) => Pace::Open {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
        },
        None => Pace::Closed { start, until },
    };
    let n = w.sessions();
    let engine = served.engine.as_mut();
    let handle = &served.handle;
    let (sessions, writer) = std::thread::scope(|scope| {
        let keep = replay.is_some();
        let threads: Vec<_> = (0..n)
            .map(|k| scope.spawn(move || run_session(addr, texts, k, n, pace, oracle, keep)))
            .collect();
        let writer = writer.map(|wr| wr.run(engine, handle, start, until, replay.is_some()));
        let sessions: Vec<Res<SessionOut>> = threads
            .into_iter()
            .map(|t| t.join().expect("session thread panicked"))
            .collect();
        (sessions, writer)
    });
    let seconds = start.elapsed().as_secs_f64();
    let after = served.handle.stats();
    let mut sessions = sessions.into_iter().collect::<Res<Vec<_>>>()?;
    if let Some(snapshot) = replay {
        for s in &mut sessions {
            s.replay(snapshot, start);
        }
    }
    Ok(Window {
        sessions,
        seconds,
        before,
        after,
        writer,
    })
}

fn run(w: Workload, args: &Args, work: &Path) -> Res<RunResult> {
    let Setup {
        mut served,
        setup_s,
        load_ms,
        freeze_ms,
    } = set_up(w, args.seed, work)?;
    let oracle_started = Instant::now();
    let (texts, oracle) = inputs(w, args.seed, args.seconds, &served)?;
    let oracle_s = oracle_started.elapsed().as_secs_f64();
    let mut conditions = conditions(w, args, &served, &oracle);
    let replay = if args.trace {
        Some(served.engine.serving_snapshot()?)
    } else {
        None
    };
    let mut writer = Writer::new(gen::write_rng(args.seed), served.ids.clone(), &served.dir);
    let writes = w == Workload::IngestRefresh;
    let seconds = args.seconds as f64;

    // Traced runs measure a traced half, then an untraced half for the
    // overhead; untraced runs measure one untraced window.
    let (traced, plain) = if args.trace {
        let mid = texts.len() / 2;
        let (first, second) = match w.rate() {
            Some(_) => (&texts[..mid], &texts[mid..]),
            None => (&texts[..], &texts[..]),
        };
        let traced = window(
            w,
            &mut served,
            writes.then_some(&mut writer),
            first,
            &oracle,
            replay.as_ref(),
            seconds / 2.0,
        )?;
        let plain = window(
            w,
            &mut served,
            writes.then_some(&mut writer),
            second,
            &oracle,
            None,
            seconds / 2.0,
        )?;
        (Some(traced), plain)
    } else {
        let plain = window(
            w,
            &mut served,
            writes.then_some(&mut writer),
            &texts,
            &oracle,
            None,
            seconds,
        )?;
        (None, plain)
    };

    let mut attempted = 0u64;
    let mut failed = 0u64;
    for win in traced.iter().chain([&plain]) {
        let all = SessionOut::merge(&win.sessions);
        attempted += all.attempted;
        failed += all.attempted - all.correct;
        for f in &all.failures {
            eprintln!("servebench: failed request: {f}");
        }
        if let Some(wo) = &win.writer {
            attempted += wo.write_ms.len() as u64 + wo.errors;
            failed += wo.errors;
        }
    }

    // Read-only workloads take their write-path figures from one probe
    // write and refresh, made after the measured windows.
    let probe =
        (args.trace && !writes).then(|| writer.probe(served.engine.as_mut(), &served.handle));
    if writes {
        failed += verify_ingest(served, &writer)?;
    } else {
        served.tear_down();
    }

    let mut metrics = BTreeMap::new();
    if let Some(t) = &traced {
        let writer_out = t.writer.as_ref().or(probe.as_ref());
        let setup_ms = (median(&load_ms), median(&freeze_ms));
        per_layer(&mut metrics, t, &plain, writer_out, setup_ms, oracle_s);
        let path = Path::new(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
        trace::write_jsonl(&path, t.sessions.iter().map(|s| s.spans.as_slice()))?;
    } else {
        end_to_end(&mut metrics, &plain, &setup_s, attempted, failed);
    }
    conditions.push(("window_s", Content::F64(plain.seconds)));
    Ok(RunResult {
        workload: w.name(),
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        attempted,
        failed,
        checksum: oracle.checksum(),
        conditions,
        metrics,
    })
}

/// After an `ingest_refresh` run: the served snapshot must count the
/// base people plus every acknowledged create, and the journal,
/// reopened from disk once the server and engine are gone, must hold
/// every acknowledged write. Returns the shortfall.
fn verify_ingest(mut served: Served, writer: &Writer) -> Res<u64> {
    let mut last = WriterOut::default();
    if served.engine.pending_changes() > 0 {
        ingest::refresh(served.engine.as_ref(), &served.handle, &mut last);
    }
    let base = served.ids.len();
    let want = base + writer.creates();
    let mut client = serve::connect(served.handle.addr())?;
    let reply = client.query("MATCH (p:person) RETURN count(*)")?;
    let _ = client.goodbye();
    let served_count = match reply {
        gdm_server::Response::Rows(r) => match r.rows.first().and_then(|row| row.first()) {
            Some(gdm_core::Value::Int(n)) => *n as usize,
            _ => 0,
        },
        _ => 0,
    };
    let dir = std::mem::take(&mut served.dir);
    served.handle.shutdown();
    drop(served.engine);
    let lost = writer.missing_after_reopen(&dir, base)?;
    let _ = std::fs::remove_dir_all(&dir);
    if want != served_count || lost > 0 || last.errors > 0 {
        eprintln!(
            "servebench: ingest check: want {want} people served, got {served_count}; \
             {lost} acknowledged writes missing after reopen"
        );
    }
    Ok(want.abs_diff(served_count) as u64 + lost + last.errors)
}

fn put(metrics: &mut BTreeMap<&'static str, Measured>, name: &'static str, value: f64, n: usize) {
    metrics.insert(
        name,
        Measured {
            value,
            samples: n as u64,
        },
    );
}

/// Peak resident memory of this process, in MB (VmHWM).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn end_to_end(
    metrics: &mut BTreeMap<&'static str, Measured>,
    win: &Window,
    setup_s: &[f64],
    attempted: u64,
    failed: u64,
) {
    let all = SessionOut::merge(&win.sessions);
    let lat = &all.latency_ms;
    put(metrics, "setup_s", median(setup_s), setup_s.len());
    put(
        metrics,
        "qps",
        all.correct as f64 / win.seconds,
        all.attempted as usize,
    );
    let at = &all.due_s;
    put(
        metrics,
        "p50_ms",
        windowed_percentile(lat, at, win.seconds, 50.0),
        lat.len(),
    );
    put(
        metrics,
        "p95_ms",
        windowed_percentile(lat, at, win.seconds, 95.0),
        lat.len(),
    );
    put(metrics, "p99_ms", percentile(lat, 99.0), lat.len());
    put(metrics, "peak_rss_mb", peak_rss_mb(), 1);
    put(
        metrics,
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        attempted as usize,
    );
    if let Some(wo) = &win.writer {
        put(
            metrics,
            "write_p50_ms",
            percentile(&wo.write_ms, 50.0),
            wo.write_ms.len(),
        );
        put(
            metrics,
            "write_p99_ms",
            percentile(&wo.write_ms, 99.0),
            wo.write_ms.len(),
        );
        put(
            metrics,
            "fresh_p50_ms",
            percentile(&wo.fresh_ms, 50.0),
            wo.fresh_ms.len(),
        );
        put(
            metrics,
            "fresh_p99_ms",
            percentile(&wo.fresh_ms, 99.0),
            wo.fresh_ms.len(),
        );
    }
}

fn delta(after: u64, before: u64) -> f64 {
    after.saturating_sub(before) as f64
}

fn per_layer(
    metrics: &mut BTreeMap<&'static str, Measured>,
    traced: &Window,
    plain: &Window,
    writer: Option<&WriterOut>,
    (load_ms, freeze_ms): (f64, f64),
    oracle_s: f64,
) {
    let all = SessionOut::merge(&traced.sessions);
    let mut lt = trace::LayerTimes::default();
    for s in &traced.sessions {
        trace::layer_times(&mut lt, &s.spans);
    }
    let mut span = |name: &'static str, key: &str, own: bool| {
        let v = if own {
            lt.own.get(key)
        } else {
            lt.total.get(key)
        };
        let v = v.map_or(&[][..], Vec::as_slice);
        put(metrics, name, median(v), v.len());
    };
    span("server.rtt_us", "server.rtt", false);
    span("server.wire_us", "server.rtt", true);
    span("server.encode_us", "server.encode", false);
    span("server.decode_us", "server.decode", false);
    span("query.parse_us", "query.parse", false);
    span("query.plan_us", "query.plan", false);
    span("query.exec_us", "query.exec", false);
    span("query.finish_us", "query.exec", true);
    span("algo.match_us", "algo.match", false);
    put(
        metrics,
        "server.reply_bytes",
        median(&all.reply_bytes),
        all.reply_bytes.len(),
    );
    put(
        metrics,
        "algo.matches",
        median(&all.matches),
        all.matches.len(),
    );

    let (b, a) = (&traced.before, &traced.after);
    let hits = delta(a.plan_cache.hits, b.plan_cache.hits);
    let misses = delta(a.plan_cache.misses, b.plan_cache.misses);
    let lookups = (hits + misses) as usize;
    put(
        metrics,
        "query.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        lookups,
    );
    put(
        metrics,
        "query.epoch_evictions",
        delta(a.plan_cache.epoch_evictions, b.plan_cache.epoch_evictions),
        lookups,
    );
    let charged = |s: &StatsReply| {
        s.tenants
            .iter()
            .find(|t| t.name == serve::TENANT)
            .map_or(0, |t| t.charged)
    };
    put(
        metrics,
        "govern.credits_per_query",
        delta(charged(a), charged(b)) / all.attempted.max(1) as f64,
        all.attempted as usize,
    );
    put(
        metrics,
        "govern.interrupted",
        all.interrupted as f64,
        all.attempted as usize,
    );

    put(metrics, "algo.freeze_ms", freeze_ms, 1);
    put(metrics, "engines.load_ms", load_ms, 1);
    let empty = WriterOut::default();
    let wo = writer.unwrap_or(&empty);
    put(
        metrics,
        "server.refresh_us",
        median(&wo.refresh_us),
        wo.refresh_us.len(),
    );
    put(
        metrics,
        "algo.refreeze_us",
        median(&wo.refreeze_us),
        wo.refreeze_us.len(),
    );
    put(
        metrics,
        "core.pending_changes",
        median(&wo.pending),
        wo.pending.len(),
    );
    put(
        metrics,
        "engines.write_us",
        median(&wo.write_us),
        wo.write_us.len(),
    );
    put(
        metrics,
        "wal.bytes_per_user_byte",
        wo.wal_bytes as f64 / wo.user_bytes.max(1) as f64,
        wo.write_us.len(),
    );
    put(
        metrics,
        "wal.checkpoints",
        wo.checkpoints as f64,
        wo.write_us.len(),
    );

    let plain_all = SessionOut::merge(&plain.sessions);
    put(
        metrics,
        "bench.late_p99_ms",
        percentile(&plain_all.late_ms, 99.0),
        plain_all.late_ms.len(),
    );
    put(metrics, "bench.oracle_s", oracle_s, 1);
    put(
        metrics,
        "bench.trace_overhead",
        windowed_percentile(&all.latency_ms, &all.due_s, traced.seconds, 50.0)
            - windowed_percentile(&plain_all.latency_ms, &plain_all.due_s, plain.seconds, 50.0),
        all.latency_ms.len().min(plain_all.latency_ms.len()),
    );
}

/// The run conditions recorded with every result.
fn conditions(
    w: Workload,
    args: &Args,
    served: &Served,
    oracle: &Oracle,
) -> Vec<(&'static str, Content)> {
    let s = |v: &str| Content::Str(v.to_owned());
    let u = |v: u64| Content::U64(v);
    let map = |entries: Vec<(&str, Content)>| {
        Content::Map(entries.into_iter().map(|(k, v)| (s(k), v)).collect())
    };
    let cfg = serve::server_config();
    let params = gen::social_params(w.people(), args.seed);
    let wal = if w.durable() {
        let opts = gdm_wal::WalOptions::default();
        map(vec![
            ("sync", s(&format!("{:?}", opts.sync))),
            ("segment_bytes", u(opts.segment_bytes)),
            (
                "checkpoint",
                s(&format!("{:?}", CheckpointPolicy::default())),
            ),
        ])
    } else {
        s("none: in-memory engine")
    };
    let offered = match w.rate() {
        Some(rate) => map(vec![
            ("loop", s("open")),
            ("sessions", u(w.sessions() as u64)),
            ("rate_per_s", Content::F64(rate)),
        ]),
        None => map(vec![
            ("loop", s("closed")),
            ("sessions", u(w.sessions() as u64)),
        ]),
    };
    let mut offered = offered;
    if w == Workload::IngestRefresh {
        if let Content::Map(m) = &mut offered {
            m.push((s("write_rate_per_s"), Content::F64(WRITE_RATE)));
        }
    }
    vec![
        ("engine", s(served.engine.name())),
        (
            "available_parallelism",
            u(gdm_algo::default_threads() as u64),
        ),
        ("executor_workers", u(gdm_algo::executor_workers() as u64)),
        (
            "server_config",
            map(vec![
                ("workers", u(cfg.workers as u64)),
                ("slots", u(cfg.slots as u64)),
                ("queue", u(cfg.queue as u64)),
                (
                    "refill_interval_ms",
                    u(cfg.refill_interval.as_millis() as u64),
                ),
                ("refill_credits", u(cfg.refill_credits)),
                ("plan_cache_capacity", u(cfg.plan_cache_capacity as u64)),
                ("executor_workers", u(cfg.executor_workers as u64)),
                (
                    "query_limits",
                    s(&format!(
                        "{:?}",
                        cfg.query_limits
                            .unwrap_or_else(|| served.engine.default_limits())
                    )),
                ),
            ]),
        ),
        (
            "tenants",
            Content::Seq(
                cfg.tenants
                    .iter()
                    .map(|t| {
                        map(vec![
                            ("name", s(&t.name)),
                            ("weight", u(t.weight)),
                            ("max_in_flight", u(t.max_in_flight as u64)),
                            ("burst_cap", Content::I64(t.burst_cap)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("wal", wal),
        ("offered", offered),
        (
            "graph",
            map(vec![
                ("people", u(params.people as u64)),
                (
                    "knows_edges",
                    u(gdm_core::GraphView::edge_count(&served.graph) as u64),
                ),
                ("communities", u(params.communities as u64)),
                ("intra_edges", u(params.intra_edges as u64)),
                ("inter_edges", u(params.inter_edges as u64)),
            ]),
        ),
        ("distinct_texts", u(oracle.len() as u64)),
        ("seed", u(args.seed)),
        ("held_out_seed", u(gen::HELD_OUT_SEED)),
    ]
}
