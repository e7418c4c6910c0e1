//! `ingest_refresh`'s writer: an open-loop write stream on the thread
//! that owns the durable engine, refreshing the served snapshot
//! whenever changes are pending, and the post-run durability check.

use crate::serve::{ms, Res};
use gdm_core::{NodeId, PropertyMap, Value};
use gdm_engines::{make_engine_durable, EngineKind, GraphEngine, LogicalOp};
use gdm_server::ServerHandle;
use gdm_storage::{KvStore, MemKv};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What the writer measured in one window.
#[derive(Default)]
pub struct WriterOut {
    /// Due time to `commit_transaction` returning, per write, in ms.
    pub write_ms: Vec<f64>,
    /// Due time to the `refresh_with` that made the write visible, in ms.
    pub fresh_ms: Vec<f64>,
    /// Mutation calls plus commit, per write, in µs.
    pub write_us: Vec<f64>,
    /// `refresh_with`, per refresh, in µs.
    pub refresh_us: Vec<f64>,
    /// `engine.refreeze(prev)` inside the refresh, in µs.
    pub refreeze_us: Vec<f64>,
    /// `pending_changes()` at each refresh.
    pub pending: Vec<f64>,
    /// Writes or refreshes that returned an error.
    pub errors: u64,
    /// Bytes the WAL directory grew by (traced windows only).
    pub wal_bytes: u64,
    /// Σ `LogicalOp::encode().len()` of the acknowledged writes.
    pub user_bytes: u64,
    /// Checkpoint files written during the window.
    pub checkpoints: u64,
}

/// The writer's state across windows: what it has acknowledged.
pub struct Writer {
    rng: StdRng,
    base: Vec<NodeId>,
    created: Vec<NodeId>,
    ages: HashMap<NodeId, i64>,
    dir: PathBuf,
}

/// Writes per second offered by the writer. Each write transaction on
/// the Neo4j emulation copies its store (about 8 ms on 10k people); at
/// 50/s the writer's CPU share left the reader's tail at the mercy of
/// host CPU steal.
pub const WRITE_RATE: f64 = 20.0;

impl Writer {
    /// A writer adding people who know the `base` people.
    pub fn new(rng: StdRng, base: Vec<NodeId>, engine_dir: &Path) -> Self {
        Writer {
            rng,
            base,
            created: Vec::new(),
            ages: HashMap::new(),
            dir: engine_dir.to_owned(),
        }
    }

    /// People created and acknowledged so far.
    pub fn creates(&self) -> usize {
        self.created.len()
    }

    /// One transaction: a new person with two `knows` edges to base
    /// people, or an age update to a person written earlier. Returns
    /// the logical operations a durable engine journals for it, once
    /// the commit is acknowledged.
    fn write_one(&mut self, engine: &mut dyn GraphEngine) -> Res<Vec<LogicalOp>> {
        let age = self.rng.gen_range(18..80i64);
        engine.begin_transaction()?;
        let applied = self
            .apply(engine, age)
            .and_then(|a| engine.commit_transaction().map(|()| a));
        let (node, ops, created) = match applied {
            Ok(a) => a,
            Err(e) => {
                let _ = engine.rollback_transaction();
                return Err(e.into());
            }
        };
        if created {
            self.created.push(node);
        }
        self.ages.insert(node, age);
        Ok(ops)
    }

    /// The mutation calls of one write, and the logical operations the
    /// durable engine journals for them.
    fn apply(
        &mut self,
        engine: &mut dyn GraphEngine,
        age: i64,
    ) -> gdm_core::Result<(NodeId, Vec<LogicalOp>, bool)> {
        if !self.created.is_empty() && self.rng.gen_bool(0.5) {
            let node = self.created[self.rng.gen_range(0..self.created.len())];
            engine.set_node_attribute(node, "age", Value::Int(age))?;
            let op = LogicalOp::SetNodeAttr {
                node,
                key: "age".into(),
                value: Value::Int(age),
            };
            return Ok((node, vec![op], false));
        }
        let props = PropertyMap::new()
            .with("name", format!("writer{}", self.created.len()))
            .with("age", age)
            .with("community", self.rng.gen_range(0..10i64));
        let node = engine.create_node(Some("person"), props.clone())?;
        let mut ops = vec![LogicalOp::CreateNode {
            label: Some("person".into()),
            props,
        }];
        for _ in 0..2 {
            let to = self.base[self.rng.gen_range(0..self.base.len())];
            let props = PropertyMap::new().with("weight", 1.0);
            engine.create_edge(node, to, Some("knows"), props.clone())?;
            ops.push(LogicalOp::CreateEdge {
                from: node,
                to,
                label: Some("knows".into()),
                props,
            });
        }
        Ok((node, ops, true))
    }

    /// Runs the write stream from `start` until `until` at
    /// [`WRITE_RATE`], refreshing `handle`'s snapshot from `engine`
    /// whenever changes are pending and no write is due. With `watch`,
    /// samples the WAL directory around each write.
    pub fn run(
        &mut self,
        engine: &mut dyn GraphEngine,
        handle: &ServerHandle,
        start: Instant,
        until: Instant,
        watch: bool,
    ) -> WriterOut {
        let period = Duration::from_secs_f64(1.0 / WRITE_RATE);
        let mut out = WriterOut::default();
        let mut wal = watch.then(|| WalWatch::new(&self.dir.join("wal")));
        let mut unseen: Vec<Instant> = Vec::new();
        let mut next = start;
        loop {
            let now = Instant::now();
            if now >= until {
                break;
            }
            if now >= next {
                let due = next;
                next += period;
                let began = Instant::now();
                match self.write_one(engine) {
                    Ok(ops) => {
                        let done = Instant::now();
                        out.write_ms.push(ms(done - due));
                        out.write_us.push((done - began).as_secs_f64() * 1e6);
                        out.user_bytes += payload(&ops);
                        unseen.push(due);
                    }
                    Err(_) => out.errors += 1,
                }
                if let Some(w) = wal.as_mut() {
                    w.sample();
                }
            } else if engine.pending_changes() > 0 {
                out.pending.push(engine.pending_changes() as f64);
                if refresh(engine, handle, &mut out) {
                    let seen = Instant::now();
                    out.fresh_ms
                        .extend(unseen.drain(..).map(|due| ms(seen - due)));
                }
            } else {
                std::thread::sleep((next - now).min(Duration::from_millis(1)));
            }
        }
        if let Some(w) = wal {
            out.wal_bytes = w.written;
            out.checkpoints = w.checkpoints();
        }
        out
    }

    /// One write and one refresh, timed like the write stream's: the
    /// write-path figures for a workload without a write stream. Its
    /// engine keeps no journal, so the write's logical operations are
    /// journaled through `gdm-wal` directly, as the durable engine
    /// journals them, for the WAL figures.
    pub fn probe(&mut self, engine: &mut dyn GraphEngine, handle: &ServerHandle) -> WriterOut {
        let mut out = WriterOut::default();
        let began = Instant::now();
        match self.write_one(engine) {
            Ok(ops) => {
                out.write_us.push(began.elapsed().as_secs_f64() * 1e6);
                out.user_bytes = payload(&ops);
                match journal(&self.dir.join("probe-wal"), &ops) {
                    Ok(w) => (out.wal_bytes, out.checkpoints) = (w.written, w.checkpoints()),
                    Err(_) => out.errors += 1,
                }
            }
            Err(_) => out.errors += 1,
        }
        out.pending.push(engine.pending_changes() as f64);
        refresh(engine, handle, &mut out);
        out
    }

    /// After the run: the journal, reopened from disk, must hold every
    /// acknowledged write. Returns how many are missing.
    pub fn missing_after_reopen(&self, engine_dir: &Path, base: usize) -> Res<u64> {
        let reopened = make_engine_durable(EngineKind::Neo4j, engine_dir)?;
        let mut missing = (base + self.created.len()).saturating_sub(reopened.node_count()) as u64;
        for (&node, &age) in &self.ages {
            if reopened.node_attribute(node, "age").ok().flatten() != Some(Value::Int(age)) {
                missing += 1;
            }
        }
        Ok(missing)
    }
}

/// Σ `LogicalOp::encode().len()`: the user bytes of a write.
fn payload(ops: &[LogicalOp]) -> u64 {
    ops.iter().map(|op| op.encode().len() as u64).sum()
}

/// Commits `ops` as one transaction of a fresh durable journal in
/// `dir` (sequence-number keys, encoded operations as values, the
/// durable engine's layout) and returns what the WAL directory saw.
fn journal(dir: &Path, ops: &[LogicalOp]) -> Res<WalWatch> {
    std::fs::create_dir_all(dir)?;
    let mut watch = WalWatch::new(dir);
    let fs = gdm_wal::DiskFs::open(dir)?;
    let (mut kv, _) = gdm_wal::DurableKv::open(fs, gdm_wal::WalOptions::default(), MemKv::new())?;
    kv.begin()?;
    for (seq, op) in ops.iter().enumerate() {
        kv.put(&(seq as u64).to_be_bytes(), &op.encode())?;
    }
    kv.commit()?;
    watch.sample();
    Ok(watch)
}

/// Refreshes the served snapshot with the engine's incremental
/// re-freeze; returns whether the swap happened.
pub fn refresh(engine: &dyn GraphEngine, handle: &ServerHandle, out: &mut WriterOut) -> bool {
    let mut refreeze = Duration::ZERO;
    let began = Instant::now();
    let swapped = handle.refresh_with(|prev| {
        let t = Instant::now();
        let next = engine.refreeze(prev);
        refreeze = t.elapsed();
        next
    });
    match swapped {
        Ok(_) => {
            out.refresh_us.push(began.elapsed().as_secs_f64() * 1e6);
            out.refreeze_us.push(refreeze.as_secs_f64() * 1e6);
            true
        }
        Err(_) => {
            out.errors += 1;
            false
        }
    }
}

/// Bytes written to the WAL directory, as the sum of every file's
/// growth between samples (checkpoints prune old files, so the
/// directory's net size undercounts).
struct WalWatch {
    dir: PathBuf,
    sizes: HashMap<String, u64>,
    written: u64,
    first_checkpoint: u64,
}

impl WalWatch {
    fn new(dir: &Path) -> Self {
        let mut w = WalWatch {
            dir: dir.to_owned(),
            sizes: HashMap::new(),
            written: 0,
            first_checkpoint: 0,
        };
        w.sample();
        w.written = 0;
        w.first_checkpoint = w.last_checkpoint();
        w
    }

    fn sample(&mut self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for e in entries.flatten() {
            let size = e.metadata().map_or(0, |m| m.len());
            let name = e.file_name().to_string_lossy().into_owned();
            let prev = self.sizes.insert(name, size).unwrap_or(0);
            self.written += size.saturating_sub(prev);
        }
    }

    /// Highest checkpoint sequence number present (checkpoint files
    /// are numbered consecutively).
    fn last_checkpoint(&self) -> u64 {
        self.sizes
            .keys()
            .filter_map(|n| gdm_wal::log::parse_checkpoint_name(n))
            .map(|s| s + 1)
            .max()
            .unwrap_or(0)
    }

    fn checkpoints(&self) -> u64 {
        self.last_checkpoint() - self.first_checkpoint
    }
}
