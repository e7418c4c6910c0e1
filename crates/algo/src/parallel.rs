//! The one parallel substrate of `gdm-algo`, and the snapshot analytics
//! that fan out over it.
//!
//! No thread pool, no channels, no new dependencies. `run_morsels`
//! splits an item range (root seeds of a pattern query, or the dense
//! node positions of a [`FrozenGraph`]) into fixed-size **morsels**,
//! and scoped worker threads claim them from one shared atomic cursor
//! as they free up — a worker stuck on an expensive morsel simply
//! claims fewer. Each worker owns a private state (BFS buffers, dedup
//! marks, a batching guard) built once and reused across its morsels.
//! Per-morsel results are merged on the calling thread **in morsel
//! order**, so every output is deterministic and equal to a one-worker
//! run over the whole range. One worker — or a range too small to
//! split — runs inline on the calling thread with no spawn at all:
//! the sequential algorithm *is* the driver at one worker.
//!
//! The analytics on it:
//!
//! * [`par_diameter`] / [`par_eccentricities`] — multi-source BFS, one
//!   source per item.
//! * [`par_connected_components`] — lock-free union-by-min over the
//!   edge array, then a sequential gather that reproduces
//!   [`crate::analysis::connected_components`]'s exact output order.
//! * [`par_triangle_count`] / [`par_average_clustering`] /
//!   [`par_degree_stats`] — per-node loops over cached adjacency;
//!   float sums are reduced in node order so even the average comes
//!   out identical to the sequential fold.
//!
//! The frozen pattern executor ([`crate::vectorized`]) is the
//! substrate's other client.
//!
//! **Panic isolation.** Every worker body runs inside `catch_unwind`;
//! a panicking worker never unwinds into [`std::thread::scope`] (which
//! would re-panic on the caller). Instead the driver notices the lost
//! worker and degrades: the whole range is recomputed inline on the
//! calling thread, so the caller still receives the correct answer —
//! just without the speedup. This is the first rung of the governor's
//! degradation ladder (see DESIGN.md §11).

use crate::frozen::FrozenGraph;
use gdm_core::{Direction, FxHashMap, GdmError, GraphView, NodeId, Result};
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 when that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Process-wide worker-pool override: 0 means "auto" (use
/// [`default_threads`]). Set once at startup by `--workers N` flags
/// and the server config; read by every auto-routed parallel match.
static EXECUTOR_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the executor worker-pool size for this process. `0`
/// restores auto-detection. This is how single-core CI forces the
/// parallel path (`--workers 2`) and how benchmarks pin a reproducible
/// pool size.
pub fn set_executor_workers(n: usize) {
    EXECUTOR_WORKERS.store(n, Ordering::Relaxed);
}

/// The executor worker-pool size in effect: the
/// [`set_executor_workers`] override when one is set, else the
/// machine's available parallelism.
pub fn executor_workers() -> usize {
    match EXECUTOR_WORKERS.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Upper bound on items per morsel: small enough that a skewed item
/// (one hub owning most of a pattern's matches) cannot leave N-1
/// workers idle, large enough that cursor traffic stays negligible.
const MAX_MORSEL: usize = 256;

thread_local! {
    /// Test hook state, scoped to the thread that calls the driver so
    /// concurrently running tests cannot steal each other's settings.
    static FORCE_FANOUT: Cell<bool> = const { Cell::new(false) };
    static INJECT_PANIC: Cell<bool> = const { Cell::new(false) };
}

/// Test hook: while on, queries issued from this thread skip the
/// pattern executor's inline threshold, so tiny property-test graphs
/// still exercise the real morsel machinery (cursor, worker guards,
/// merge). Not part of the public API surface.
#[doc(hidden)]
pub fn force_fanout(on: bool) {
    FORCE_FANOUT.with(|f| f.set(on));
}

pub(crate) fn fanout_forced() -> bool {
    FORCE_FANOUT.with(Cell::get)
}

/// Test hook: the next fan-out issued from this thread panics its
/// first worker once, exercising the poisoned-worker fallback. Not
/// part of the public API surface.
#[doc(hidden)]
pub fn inject_worker_panic_once() {
    INJECT_PANIC.with(|f| f.set(true));
}

/// Runs `work` over `0..items` in morsels across up to `workers`
/// threads — the calling thread plus `workers - 1` scoped ones — and
/// returns the per-morsel results in morsel order.
///
/// `init` builds one private state per worker, reused across every
/// morsel that worker claims and dropped on the worker's own thread
/// before the driver returns (a batching guard settles its counts
/// there). The first error any worker returns aborts the morsel queue
/// and is returned once every worker has stopped. A panicking worker
/// discards the parallel attempt, and the range is recomputed inline;
/// `work` must therefore tolerate a rerun over state a lost attempt
/// touched.
pub(crate) fn run_morsels<S, T: Send>(
    items: usize,
    workers: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, Range<usize>) -> Result<T> + Sync,
) -> Result<Vec<T>> {
    let workers = workers.clamp(1, items.max(1));
    if workers == 1 {
        return Ok(vec![work(&mut init(), 0..items)?]);
    }
    // ~4 morsels per worker smooths skew without flooding the cursor;
    // MAX_MORSEL caps the tail latency of an unlucky claim.
    let morsel = items.div_ceil(workers * 4).clamp(1, MAX_MORSEL);
    let morsels = items.div_ceil(morsel);
    let cursor = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let inject = INJECT_PANIC.with(|f| f.replace(false));

    // Per worker: (morsel index, result) pairs plus the first error it
    // hit, or `Err` when the worker panicked.
    type Harvest<T> = std::thread::Result<(Vec<(usize, T)>, Option<GdmError>)>;
    let run_worker = |id: usize| -> Harvest<T> {
        catch_unwind(AssertUnwindSafe(|| {
            if inject && id == 0 {
                panic!("injected worker panic (test hook)");
            }
            let mut state = init();
            let mut out = Vec::new();
            while !abort.load(Ordering::Relaxed) {
                let m = cursor.fetch_add(1, Ordering::Relaxed);
                if m >= morsels {
                    break;
                }
                match work(&mut state, m * morsel..((m + 1) * morsel).min(items)) {
                    Ok(t) => out.push((m, t)),
                    Err(e) => {
                        abort.store(true, Ordering::Relaxed);
                        return (out, Some(e));
                    }
                }
            }
            (out, None)
        }))
    };

    let mut merged: Vec<(usize, T)> = Vec::with_capacity(morsels);
    let mut trip: Option<GdmError> = None;
    let mut poisoned = false;
    std::thread::scope(|s| {
        let run_worker = &run_worker;
        // The calling thread is worker 0, so only `workers - 1` spawn.
        let handles: Vec<_> = (1..workers)
            .map(|id| s.spawn(move || run_worker(id)))
            .collect();
        let own = run_worker(0);
        for harvest in std::iter::once(Ok(own)).chain(handles.into_iter().map(|h| h.join())) {
            // A panic inside `catch_unwind` cannot unwind out of the
            // worker; an outer join error still just marks it lost.
            match harvest {
                Ok(Ok((out, err))) => {
                    merged.extend(out);
                    if trip.is_none() {
                        trip = err;
                    }
                }
                _ => poisoned = true,
            }
        }
    });
    if let Some(e) = trip {
        return Err(e);
    }
    if poisoned {
        // A lost worker means lost morsels; recompute inline.
        return Ok(vec![work(&mut init(), 0..items)?]);
    }
    merged.sort_unstable_by_key(|&(m, _)| m);
    Ok(merged.into_iter().map(|(_, t)| t).collect())
}

/// `run_morsels` for the analytics, whose work cannot fail.
fn fan_out<S, T: Send>(
    items: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, Range<usize>) -> T + Sync,
) -> Vec<T> {
    run_morsels(items, threads, init, |s, range| Ok(work(s, range)))
        .expect("infallible work cannot fail")
}

/// Reusable single-source BFS buffers: `dist` holds `u32::MAX` for
/// every node between searches (only touched entries are reset).
struct Bfs {
    dist: Vec<u32>,
    queue: VecDeque<u32>,
    touched: Vec<u32>,
}

impl Bfs {
    fn new(n: usize) -> Bfs {
        Bfs {
            dist: vec![u32::MAX; n],
            queue: VecDeque::new(),
            touched: Vec::new(),
        }
    }

    /// Maximum depth a BFS from `src` reaches under `direction` — the
    /// eccentricity of `src`.
    fn depth(&mut self, fz: &FrozenGraph, src: u32, direction: Direction) -> usize {
        let Bfs {
            dist,
            queue,
            touched,
        } = self;
        dist[src as usize] = 0;
        touched.push(src);
        queue.push_back(src);
        let mut max = 0u32;
        while let Some(u) = queue.pop_front() {
            let next = dist[u as usize] + 1;
            let mut relax = |v: u32| {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = next;
                    max = max.max(next);
                    touched.push(v);
                    queue.push_back(v);
                }
            };
            match direction {
                Direction::Outgoing => fz.out_targets(u).iter().copied().for_each(&mut relax),
                Direction::Incoming => fz.in_targets(u).iter().copied().for_each(&mut relax),
                Direction::Both => {
                    fz.out_targets(u).iter().copied().for_each(&mut relax);
                    if fz.is_directed() {
                        fz.in_targets(u).iter().copied().for_each(&mut relax);
                    }
                }
            }
        }
        for &t in touched.iter() {
            dist[t as usize] = u32::MAX;
        }
        touched.clear();
        max as usize
    }
}

/// Eccentricity of every node (indexed by dense position), computed
/// by parallel multi-source BFS. Agrees with
/// [`crate::summary::eccentricity`] per node.
pub fn par_eccentricities(fz: &FrozenGraph, direction: Direction, threads: usize) -> Vec<usize> {
    fan_out(
        fz.len(),
        threads,
        || Bfs::new(fz.len()),
        |bfs, range| -> Vec<usize> {
            range
                .map(|src| bfs.depth(fz, src as u32, direction))
                .collect()
        },
    )
    .concat()
}

/// Diameter by parallel all-pairs BFS; agrees with
/// [`crate::summary::diameter`].
pub fn par_diameter(fz: &FrozenGraph, direction: Direction, threads: usize) -> Option<usize> {
    par_eccentricities(fz, direction, threads).into_iter().max()
}

// ---------------------------------------------------------------------
// Connected components: lock-free union-by-min
// ---------------------------------------------------------------------

/// Finds the root of `x`, halving the path with opportunistic CASes.
fn uf_find(parents: &[AtomicU32], mut x: u32) -> u32 {
    loop {
        let p = parents[x as usize].load(Ordering::Acquire);
        if p == x {
            return x;
        }
        let gp = parents[p as usize].load(Ordering::Acquire);
        if gp != p {
            // Path halving; losing the race just skips one shortcut.
            let _ = parents[x as usize].compare_exchange_weak(
                p,
                gp,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
        }
        x = gp;
    }
}

/// Unions the sets of `a` and `b`. Roots only ever point at strictly
/// smaller indices, so the structure stays acyclic under concurrency
/// and the final root of each set is its minimum dense position.
fn uf_union(parents: &[AtomicU32], mut a: u32, mut b: u32) {
    loop {
        a = uf_find(parents, a);
        b = uf_find(parents, b);
        if a == b {
            return;
        }
        let (hi, lo) = if a > b { (a, b) } else { (b, a) };
        if parents[hi as usize]
            .compare_exchange(hi, lo, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return;
        }
        a = hi;
        b = lo;
    }
}

/// Weakly connected components. Output is exactly
/// [`crate::analysis::connected_components`]'s: each component sorted
/// ascending, components ordered largest-first with ties in discovery
/// (minimum-dense-member) order.
pub fn par_connected_components(fz: &FrozenGraph, threads: usize) -> Vec<Vec<NodeId>> {
    let n = fz.len();
    let parents: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    // Every intermediate union-find state is valid (unions only merge
    // truly connected sets), so the inline rerun after a lost worker
    // can start from whatever the parallel attempt left behind.
    fan_out(
        n,
        threads,
        || (),
        |(), range| {
            for u in range {
                let u = u as u32;
                for &v in fz.out_targets(u) {
                    uf_union(&parents, u, v);
                }
                // Reverse runs normally mirror the forward ones, but a
                // view is free to record asymmetrically; union over
                // both so the snapshot's full incidence counts.
                for &v in fz.in_targets(u) {
                    uf_union(&parents, u, v);
                }
            }
        },
    );
    // Sequential gather: scanning dense positions ascending creates
    // each component at its minimum member, i.e. in the same order the
    // sequential algorithm discovers roots.
    let mut comp_of_root: FxHashMap<u32, usize> = FxHashMap::default();
    let mut components: Vec<Vec<NodeId>> = Vec::new();
    for u in 0..n as u32 {
        let root = uf_find(&parents, u);
        let idx = *comp_of_root.entry(root).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[idx].push(fz.node_at(u));
    }
    for comp in &mut components {
        comp.sort_unstable();
    }
    components.sort_by_key(|c| std::cmp::Reverse(c.len()));
    components
}

// ---------------------------------------------------------------------
// Per-node analysis loops
// ---------------------------------------------------------------------

/// Undirected dense neighbor lists (self-loops dropped, deduplicated,
/// sorted) — the snapshot counterpart of `analysis::neighbor_sets`,
/// built in parallel.
fn dense_neighbor_lists(fz: &FrozenGraph, threads: usize) -> Vec<Vec<u32>> {
    fan_out(
        fz.len(),
        threads,
        || (),
        |(), range| -> Vec<Vec<u32>> {
            range
                .map(|u| {
                    let u = u as u32;
                    let mut list: Vec<u32> = fz
                        .out_targets(u)
                        .iter()
                        .copied()
                        .filter(|&v| v != u)
                        .collect();
                    if fz.is_directed() {
                        list.extend(fz.in_targets(u).iter().copied().filter(|&v| v != u));
                    }
                    list.sort_unstable();
                    list.dedup();
                    list
                })
                .collect()
        },
    )
    .concat()
}

/// Triangle count; agrees with [`crate::analysis::triangle_count`].
pub fn par_triangle_count(fz: &FrozenGraph, threads: usize) -> usize {
    let lists = dense_neighbor_lists(fz, threads);
    fan_out(
        fz.len(),
        threads,
        || (),
        |(), range| {
            let mut count = 0usize;
            for u in range {
                let neigh = &lists[u];
                for (i, &m) in neigh.iter().enumerate() {
                    if m as usize <= u {
                        continue;
                    }
                    let mset = &lists[m as usize];
                    for &k in &neigh[i + 1..] {
                        if k > m && mset.binary_search(&k).is_ok() {
                            count += 1;
                        }
                    }
                }
            }
            count
        },
    )
    .into_iter()
    .sum()
}

/// Average clustering coefficient over nodes with degree ≥ 2; agrees
/// with [`crate::analysis::average_clustering`] (per-node coefficients
/// are computed in parallel, then folded in node order, so even the
/// floating-point sum matches the sequential one).
pub fn par_average_clustering(fz: &FrozenGraph, threads: usize) -> Option<f64> {
    let lists = dense_neighbor_lists(fz, threads);
    let coeffs = fan_out(
        fz.len(),
        threads,
        || (),
        |(), range| -> Vec<Option<f64>> {
            range
                .map(|u| {
                    let neigh = &lists[u];
                    let k = neigh.len();
                    if k < 2 {
                        return None;
                    }
                    let mut closed = 0usize;
                    for (j, &a) in neigh.iter().enumerate() {
                        let aset = &lists[a as usize];
                        for &b in &neigh[j + 1..] {
                            if aset.binary_search(&b).is_ok() {
                                closed += 1;
                            }
                        }
                    }
                    Some(closed as f64 / (k * (k - 1) / 2) as f64)
                })
                .collect()
        },
    );
    let mut sum = 0.0;
    let mut count = 0usize;
    for c in coeffs.into_iter().flatten().flatten() {
        sum += c;
        count += 1;
    }
    (count > 0).then(|| sum / count as f64)
}

/// Degree statistics `(min, max, average)`; agrees with
/// [`crate::summary::degree_stats`] (the sum is integral, so the
/// average is exact).
pub fn par_degree_stats(fz: &FrozenGraph, threads: usize) -> Option<(usize, usize, f64)> {
    let n = fz.len();
    if n == 0 {
        return None;
    }
    let partial = fan_out(
        n,
        threads,
        || (),
        |(), range| {
            let (mut min, mut max, mut sum) = (usize::MAX, 0usize, 0usize);
            for u in range {
                let d = fz.degree_dense(u as u32);
                min = min.min(d);
                max = max.max(d);
                sum += d;
            }
            (min, max, sum)
        },
    );
    let (mut min, mut max, mut sum) = (usize::MAX, 0usize, 0usize);
    for (lo, hi, s) in partial {
        min = min.min(lo);
        max = max.max(hi);
        sum += s;
    }
    Some((min, max, sum as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{average_clustering, connected_components, triangle_count};
    use crate::summary::{degree_stats, diameter, eccentricity};
    use gdm_graphs::SimpleGraph;

    /// Deterministic scale-free-ish graph: node i links to i/2 and to
    /// a pseudo-random earlier node, plus a few self-loops.
    fn fixture(directed: bool, n: u64) -> SimpleGraph {
        let mut g = if directed {
            SimpleGraph::directed()
        } else {
            SimpleGraph::undirected()
        };
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
        let mut state = 0x9e37u64;
        for i in 1..n as usize {
            g.add_labeled_edge(nodes[i], nodes[i / 2], if i % 3 == 0 { "a" } else { "b" })
                .unwrap();
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % i;
            g.add_edge(nodes[i], nodes[j]).unwrap();
            if i % 17 == 0 {
                g.add_edge(nodes[i], nodes[i]).unwrap();
            }
        }
        g
    }

    #[test]
    fn par_diameter_matches_sequential() {
        for directed in [true, false] {
            let g = fixture(directed, 80);
            let fz = FrozenGraph::freeze(&g);
            for dir in [Direction::Outgoing, Direction::Incoming, Direction::Both] {
                assert_eq!(par_diameter(&fz, dir, 4), diameter(&fz, dir), "{dir:?}");
            }
        }
    }

    #[test]
    fn par_eccentricities_match_sequential() {
        let g = fixture(true, 60);
        let fz = FrozenGraph::freeze(&g);
        let ecc = par_eccentricities(&fz, Direction::Both, 3);
        for (dense, &e) in ecc.iter().enumerate() {
            let n = fz.node_at(dense as u32);
            assert_eq!(Some(e), eccentricity(&fz, n, Direction::Both));
        }
    }

    #[test]
    fn par_components_match_sequential_exactly() {
        for directed in [true, false] {
            let mut g = fixture(directed, 50);
            // A couple of extra isolated nodes and a detached pair.
            let a = g.add_node();
            let b = g.add_node();
            g.add_node();
            g.add_edge(a, b).unwrap();
            let fz = FrozenGraph::freeze(&g);
            assert_eq!(par_connected_components(&fz, 4), connected_components(&fz));
        }
    }

    #[test]
    fn par_triangles_and_clustering_match() {
        let g = fixture(false, 70);
        let fz = FrozenGraph::freeze(&g);
        assert_eq!(par_triangle_count(&fz, 4), triangle_count(&fz));
        let par = par_average_clustering(&fz, 4);
        let seq = average_clustering(&fz);
        match (par, seq) {
            (Some(p), Some(s)) => assert!((p - s).abs() < 1e-12, "{p} vs {s}"),
            (p, s) => assert_eq!(p, s),
        }
    }

    #[test]
    fn par_degree_stats_match() {
        let g = fixture(true, 90);
        let fz = FrozenGraph::freeze(&g);
        assert_eq!(par_degree_stats(&fz, 4), degree_stats(&fz));
    }

    #[test]
    fn par_empty_graph_edge_cases() {
        let g = SimpleGraph::directed();
        let fz = FrozenGraph::freeze(&g);
        assert_eq!(par_diameter(&fz, Direction::Both, 4), None);
        assert!(par_connected_components(&fz, 4).is_empty());
        assert_eq!(par_triangle_count(&fz, 4), 0);
        assert_eq!(par_average_clustering(&fz, 4), None);
        assert_eq!(par_degree_stats(&fz, 4), None);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn workers_override_round_trips() {
        set_executor_workers(3);
        assert_eq!(executor_workers(), 3);
        set_executor_workers(0);
        assert_eq!(executor_workers(), default_threads());
    }

    #[test]
    fn par_morsels_merge_in_order_and_surface_the_first_error() {
        let parts = run_morsels(1000, 4, || (), |(), r| Ok(r.collect::<Vec<_>>())).unwrap();
        assert!(parts.len() > 4, "work was split into morsels");
        assert_eq!(parts.concat(), (0..1000).collect::<Vec<_>>());
        let err = run_morsels(
            1000,
            4,
            || (),
            |(), r| {
                if r.contains(&500) {
                    Err(GdmError::interrupted(
                        gdm_core::InterruptReason::Cancelled,
                        0,
                    ))
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert!(err.is_interrupted());
    }

    /// Arms the thread-local panic hook and checks that the fan-out
    /// consumed it, i.e. that a worker really panicked.
    fn with_injected_panic<T>(run: impl FnOnce() -> T) -> T {
        inject_worker_panic_once();
        let out = run();
        assert!(!INJECT_PANIC.with(Cell::get), "the injected panic fired");
        out
    }

    #[test]
    fn par_injected_worker_panic_degrades_diameter_to_sequential() {
        let g = fixture(true, 80);
        let fz = FrozenGraph::freeze(&g);
        let want = diameter(&fz, Direction::Both);
        let got = with_injected_panic(|| par_diameter(&fz, Direction::Both, 4));
        assert_eq!(got, want, "panicking worker must not change the answer");
    }

    #[test]
    fn par_injected_worker_panic_degrades_components_and_counts() {
        let g = fixture(false, 70);
        let fz = FrozenGraph::freeze(&g);
        let comps = with_injected_panic(|| par_connected_components(&fz, 4));
        assert_eq!(comps, connected_components(&fz));
        let lists = with_injected_panic(|| dense_neighbor_lists(&fz, 4));
        assert_eq!(lists, dense_neighbor_lists(&fz, 1));
        // Each count fans out twice (neighbor lists, then the count);
        // the hook poisons the first fan-out, the lists.
        let tris = with_injected_panic(|| par_triangle_count(&fz, 4));
        assert_eq!(tris, triangle_count(&fz));
        let degrees = with_injected_panic(|| par_degree_stats(&fz, 4));
        assert_eq!(degrees, degree_stats(&fz));
        let par = with_injected_panic(|| par_average_clustering(&fz, 4));
        let seq = average_clustering(&fz);
        match (par, seq) {
            (Some(p), Some(s)) => assert!((p - s).abs() < 1e-12),
            (p, s) => assert_eq!(p, s),
        }
    }
}
