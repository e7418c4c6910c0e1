//! Standing the system up and driving it: setup, client sessions
//! (open and closed loop), and the traced in-process replay.

use crate::oracle::{parse_select, Oracle, Outcome};
use crate::trace::{Recorder, Span};
use gdm_algo::{FrozenGraph, MatchTable};
use gdm_core::NodeId;
use gdm_engines::{make_engine, make_engine_durable, EngineKind, GraphEngine, ServingSnapshot};
use gdm_govern::{CancelToken, ExecutionGuard};
use gdm_graphs::PropertyGraph;
use gdm_query::PlannedSelect;
use gdm_server::protocol::{read_frame, write_frame};
use gdm_server::{serve, Client, Response, ServerConfig, ServerHandle, TenantConfig};
use std::collections::HashMap;
use std::error::Error;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Error type of the benchmark's fallible steps.
pub type Res<T> = Result<T, Box<dyn Error + Send + Sync>>;

/// The tenant every benchmark session authenticates as.
pub const TENANT: &str = "bench";

/// The served configuration. Budgets are sized so that no workload
/// query is ever `Interrupted`: the full two-hop alone costs far more
/// than the default 100k-credit burst cap.
pub fn server_config() -> ServerConfig {
    let mut tenant = TenantConfig::new(TENANT, 1);
    tenant.burst_cap = 1 << 40;
    ServerConfig {
        tenants: vec![tenant],
        refill_credits: 1 << 40,
        ..ServerConfig::default()
    }
}

/// A served graph, ready for traffic.
pub struct Served {
    /// The generator's source graph (the oracle's input).
    pub graph: PropertyGraph,
    /// The engine the server's snapshot was frozen from.
    pub engine: Box<dyn GraphEngine>,
    /// Engine ids of the generated people, in generator order.
    pub ids: Vec<NodeId>,
    /// The running server.
    pub handle: ServerHandle,
    /// The engine's state directory.
    pub dir: PathBuf,
    /// Wall time of graph build, load, `serving_snapshot` and `serve`.
    pub setup_s: f64,
    /// `load_into_engine`, in ms.
    pub load_ms: f64,
    /// `serving_snapshot`, in ms.
    pub freeze_ms: f64,
}

/// Builds the seed's graph, loads it into the Neo4j emulation (durable
/// when asked, in one transaction), freezes the serving snapshot and
/// serves it.
pub fn stand_up(graph_params: gdm_bench::SocialParams, durable: bool, dir: &Path) -> Res<Served> {
    let started = Instant::now();
    let graph = gdm_bench::social_graph(graph_params);
    std::fs::create_dir_all(dir)?;
    let mut engine = if durable {
        make_engine_durable(EngineKind::Neo4j, dir)?
    } else {
        make_engine(EngineKind::Neo4j, dir)?
    };
    let load = Instant::now();
    if durable {
        engine.begin_transaction()?;
    }
    let ids = gdm_bench::load_into_engine(engine.as_mut(), &graph)?;
    if durable {
        engine.commit_transaction()?;
    }
    let load_ms = load.elapsed().as_secs_f64() * 1e3;
    let freeze = Instant::now();
    let snapshot = engine.serving_snapshot()?;
    let freeze_ms = freeze.elapsed().as_secs_f64() * 1e3;
    let handle = serve(snapshot, server_config())?;
    Ok(Served {
        graph,
        engine,
        ids,
        handle,
        dir: dir.to_owned(),
        setup_s: started.elapsed().as_secs_f64(),
        load_ms,
        freeze_ms,
    })
}

impl Served {
    /// Stops the server (draining sessions) and releases the engine.
    pub fn tear_down(self) {
        self.handle.shutdown();
        drop(self.engine);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Opens an authenticated session.
pub fn connect(addr: SocketAddr) -> Res<Client> {
    let mut c = Client::connect(addr)?;
    match c.hello(TENANT, None)? {
        Response::Welcome(_) => Ok(c),
        other => Err(format!("hello refused: {other:?}").into()),
    }
}

/// When a session sends.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Request `i` is due at `start + i × period`, whether or not
    /// earlier replies have arrived; latency runs from the due time.
    Open {
        /// Schedule origin.
        start: Instant,
        /// Gap between consecutive requests across all sessions.
        period: Duration,
    },
    /// From `start`, each request is sent when the previous reply
    /// arrives, until `until`; latency runs from the send.
    Closed {
        /// Start of the window.
        start: Instant,
        /// End of the window.
        until: Instant,
    },
}

/// What one session saw.
#[derive(Default)]
pub struct SessionOut {
    /// Per attempted request, in ms.
    pub latency_ms: Vec<f64>,
    /// When each request was due, in seconds after the window began.
    pub due_s: Vec<f64>,
    /// How late each request was sent after it was due, in ms.
    pub late_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Replies equal to the oracle's.
    pub correct: u64,
    /// `Interrupted` replies.
    pub interrupted: u64,
    /// Up to a few failed requests, for the log.
    pub failures: Vec<String>,
    /// Traced runs only: every reply, kept for the replay.
    pub replies: Vec<Traced>,
    /// Traced runs only: replay spans.
    pub spans: Vec<Span>,
    /// Traced runs only: matches per replayed request.
    pub matches: Vec<f64>,
    /// Traced runs only: encoded reply size per replayed request.
    pub reply_bytes: Vec<f64>,
}

/// One request of a traced window, as the client saw it.
pub struct Traced {
    /// Request number within the window.
    pub request: u64,
    /// The query text.
    pub text: String,
    /// When it was sent.
    pub sent: Instant,
    /// When its reply arrived.
    pub got: Instant,
    /// The reply.
    pub reply: Response,
}

impl SessionOut {
    /// Replays every kept reply on `snapshot` (see [`Replayer`]),
    /// timing spans from `epoch`.
    pub fn replay(&mut self, snapshot: &ServingSnapshot, epoch: Instant) {
        let mut rp = Replayer::new(snapshot, epoch);
        for t in self.replies.drain(..) {
            rp.replay(t.request, &t.text, t.sent, t.got, &t.reply);
        }
        self.spans = rp.rec.into_spans();
        self.matches = rp.matches;
        self.reply_bytes = rp.reply_bytes;
    }

    /// Merges sessions into one (spans stay per session).
    pub fn merge(outs: &[SessionOut]) -> SessionOut {
        let mut all = SessionOut::default();
        for o in outs {
            all.latency_ms.extend(&o.latency_ms);
            all.due_s.extend(&o.due_s);
            all.late_ms.extend(&o.late_ms);
            all.attempted += o.attempted;
            all.correct += o.correct;
            all.interrupted += o.interrupted;
            all.failures.extend(o.failures.iter().cloned());
            all.matches.extend(&o.matches);
            all.reply_bytes.extend(&o.reply_bytes);
        }
        all
    }
}

/// Runs one client session: session `index` of `sessions` takes every
/// `sessions`-th text starting at `index` (cycling in a closed loop)
/// and checks each reply against `oracle`. With `keep`, every reply is
/// kept for the traced replay.
pub fn run_session(
    addr: SocketAddr,
    texts: &[String],
    index: usize,
    sessions: usize,
    pace: Pace,
    oracle: &Oracle,
    keep: bool,
) -> Res<SessionOut> {
    let mut client = connect(addr)?;
    let mut out = SessionOut::default();
    let (Pace::Open { start: origin, .. } | Pace::Closed { start: origin, .. }) = pace;
    wait_until(origin);
    let mut ready = origin;
    let mut i = index;
    loop {
        let due = match pace {
            Pace::Open { start, period } => {
                if i >= texts.len() {
                    break;
                }
                let due = start + period * i as u32;
                wait_until(due);
                due
            }
            Pace::Closed { until, .. } => {
                if ready >= until {
                    break;
                }
                ready
            }
        };
        let text = &texts[i % texts.len()];
        let sent = Instant::now();
        let reply = client.query(text);
        let got = Instant::now();
        out.attempted += 1;
        out.late_ms.push(ms(sent.saturating_duration_since(due)));
        out.due_s
            .push(due.saturating_duration_since(origin).as_secs_f64());
        out.latency_ms
            .push(ms(got.saturating_duration_since(match pace {
                Pace::Open { .. } => due,
                Pace::Closed { .. } => sent,
            })));
        let outcome = oracle.check(text, &reply);
        match outcome {
            Outcome::Correct => out.correct += 1,
            Outcome::Interrupted => out.interrupted += 1,
            _ => {}
        }
        if outcome.failed() && out.failures.len() < 3 {
            out.failures.push(format!("{outcome:?}: {text}"));
        }
        match reply {
            Ok(reply) if keep => out.replies.push(Traced {
                request: i as u64,
                text: text.clone(),
                sent,
                got,
                reply,
            }),
            Ok(_) => {}
            Err(_) => client = connect(addr)?,
        }
        ready = Instant::now();
        i += sessions;
    }
    let _ = client.goodbye();
    Ok(out)
}

/// How early a session stops sleeping and starts yielding before a
/// request is due: a sleeping thread on a virtual machine wakes tens to
/// hundreds of µs late, and that jitter would land in every open-loop
/// latency.
const SPIN: Duration = Duration::from_micros(300);

/// Blocks until `due`: sleeps until shortly before it, then yields.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Replays the server's `run_query` steps in-process on the served
/// snapshot after the window, one span per public call:
/// `cypher::parse`, `plan_select` (only when the reply says the server
/// missed its plan cache), `execute_planned_governed`, the `gdm_algo`
/// match entry the plan routes to (with the plan's domains and worker
/// count), then `write_frame` and `read_frame` on the reply.
///
/// The replay runs once the window's traffic has stopped, so it does
/// not load the system it explains: each step is timed on an otherwise
/// idle host, and the round trip's self time (`server.wire_us`) keeps
/// whatever queueing the live traffic met.
struct Replayer<'a> {
    snapshot: &'a ServingSnapshot,
    plans: HashMap<String, Arc<PlannedSelect>>,
    rec: Recorder,
    matches: Vec<f64>,
    reply_bytes: Vec<f64>,
}

impl<'a> Replayer<'a> {
    fn new(snapshot: &'a ServingSnapshot, epoch: Instant) -> Self {
        Replayer {
            snapshot,
            plans: HashMap::new(),
            rec: Recorder::new(epoch),
            matches: Vec::new(),
            reply_bytes: Vec::new(),
        }
    }

    fn guard(&self) -> ExecutionGuard {
        ExecutionGuard::with_cancel(self.snapshot.limits, CancelToken::new())
    }

    fn replay(&mut self, request: u64, text: &str, sent: Instant, got: Instant, reply: &Response) {
        let root = self.rec.record("server.rtt", request, None, sent, got);
        let Response::Rows(rows) = reply else {
            return;
        };
        let fz = &self.snapshot.frozen;
        let (select, _) = self
            .rec
            .time("query.parse", request, Some(root), || parse_select(text));
        let Ok(select) = select else {
            return;
        };
        let planned = match self.plans.get(text) {
            Some(p) if rows.cached_plan => p.clone(),
            _ => {
                let plan = || gdm_query::plan_select(fz, &select);
                let planned = if rows.cached_plan {
                    // The server hit a plan cached before this replay
                    // began; plan untimed so execution can be replayed.
                    plan()
                } else {
                    self.rec.time("query.plan", request, Some(root), plan).0
                };
                let Ok(planned) = planned else {
                    return;
                };
                let planned = Arc::new(planned);
                self.plans.insert(text.to_owned(), planned.clone());
                planned
            }
        };
        let guard = self.guard();
        let (rs, exec) = self.rec.time("query.exec", request, Some(root), || {
            gdm_query::execute_planned_governed(fz, &planned, &guard)
        });
        black_box(rs.ok());
        let guard = self.guard();
        let (table, _) = self.rec.time("algo.match", request, Some(exec), || {
            match_entry(fz, &planned, &guard)
        });
        if let Ok(t) = table {
            self.matches.push(t.len() as f64);
        }
        let (buf, _) = self.rec.time("server.encode", request, Some(root), || {
            let mut buf = Vec::new();
            write_frame(&mut buf, reply).map(|()| buf)
        });
        let Ok(buf) = buf else {
            return;
        };
        self.reply_bytes.push(buf.len() as f64);
        let (decoded, _) = self.rec.time("server.decode", request, Some(root), || {
            read_frame::<_, Response>(&mut buf.as_slice())
        });
        black_box(decoded.ok());
    }
}

/// The matcher `execute_planned_governed` routes a plan to on a frozen
/// snapshot: the morsel-parallel vectorized executor when the plan
/// recorded more than one worker, the sequential one otherwise, and
/// the reference matcher when the plan's domains no longer fit.
fn match_entry(
    fz: &FrozenGraph,
    planned: &PlannedSelect,
    guard: &ExecutionGuard,
) -> gdm_core::Result<MatchTable> {
    let pattern = &planned.query.pattern;
    if !gdm_algo::domains_consistent(fz, &planned.domains) {
        let bindings = gdm_algo::match_pattern_governed(fz, pattern, guard)?;
        return Ok(MatchTable::from_bindings(pattern, &bindings));
    }
    match planned.explain.parallel_workers {
        w if w > 1 => gdm_algo::match_pattern_par_vectorized_domains_governed(
            fz,
            pattern,
            &planned.domains,
            w,
            guard,
        ),
        _ => gdm_algo::match_pattern_vectorized_governed(fz, pattern, &planned.domains, guard),
    }
}
