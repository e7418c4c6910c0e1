//! The frozen pattern executor: vectorized, batch-at-a-time matching
//! over the CSR snapshot, driven morsel by morsel.
//!
//! The planned matcher ([`crate::planned`]) walks a view one binding
//! at a time through the generic [`gdm_core::AttributedView`] trait:
//! every candidate costs a virtual call, a hash lookup, and a
//! `NodeId`-keyed hash-set probe. This module is the columnar
//! counterpart in the MonetDB/GraphBLAS style: operators consume and
//! produce **batches of dense `u32` ids** ([`BATCH`] rows at a time)
//! directly against the snapshot's CSR arrays, so the inner loops are
//! array indexing over integer columns with no dynamic dispatch at all
//! (DESIGN.md §13).
//!
//! The operator set mirrors a classic batch pipeline:
//!
//! * **label scan** — a variable constrained only by label seeds
//!   straight from the `nodes_with_label` slice;
//! * **index/range seed** — planner-supplied domains (equality and
//!   range lookups, node or edge) arrive as dense selection vectors;
//! * **batched expand** — the generating pattern edge is expanded by
//!   walking `out_targets`/`in_targets` runs, deduplicating per source
//!   row with reusable per-depth stamp arrays (no per-row allocation);
//! * **residual filter** — label symbols (pre-resolved once per query
//!   against the snapshot's interner, so the batch loop compares
//!   `u32`s), property equality, injectivity, and non-generator edge
//!   checks run over the batch columns in place;
//! * **materialize** — surviving rows append to a flat buffer that
//!   exits as a [`MatchTable`].
//!
//! Search order is depth-first at *batch* granularity: a child batch
//! is flushed into the next operator as soon as it fills, so memory
//! stays bounded by `depth × BATCH` regardless of result size. A flush
//! can fire in the middle of a source row's expansion, which is why
//! every depth keeps its own dedup stamps: the child's expansions must
//! not disturb the parent row's marks.
//!
//! **Morsels.** The plan is compiled once and shared read-only; its
//! root seed list is split into morsels and run on the
//! `parallel::run_morsels` substrate (DESIGN.md §15). Below
//! `PAR_PATTERN_MIN_ROOTS` seeds, or at one worker, the same driver
//! runs inline on the calling thread. Emission order is a function of
//! root seed order alone — batch boundaries split but never reorder
//! the candidate stream, and recursion drains a prefix of seeds before
//! its suffix — so concatenating morsel outputs in morsel order is
//! **byte identical** at every worker count.
//!
//! **Governance.** Each worker charges a [`gdm_govern::WorkerGuard`] once per
//! batch, not once per visit, and drains it at morsel boundaries;
//! every charge still runs the shared guard's deadline/cancel check. A
//! trip aborts the morsel queue and surfaces as the same structured
//! [`gdm_core::GdmError::Interrupted`] the row-at-a-time matchers
//! return, with `partial` covering the rows of *all* workers.

use crate::frozen::FrozenGraph;
use crate::parallel::{fanout_forced, run_morsels};
use crate::pattern::{value_in_range, Pattern};
use crate::planned::{domain_estimates, planned_order, MatchTable};
use gdm_core::{Direction, GdmError, GraphView, NodeId, Result, Symbol, Value};
use gdm_govern::{ExecutionGuard, GuardExt};
use std::borrow::Cow;

/// Rows per batch. Large enough to amortize per-batch costs (guard
/// draw, recursion) to noise; small enough that a working set of
/// `pattern depth × BATCH × 4` bytes stays cache-resident.
pub const BATCH: usize = 1024;

/// Minimum number of root seeds before fanning a pattern search out
/// across threads. Below this, spawn + join costs more than the rooted
/// searches themselves, so the driver runs inline on one worker.
const PAR_PATTERN_MIN_ROOTS: usize = 64;

/// A label constraint pre-resolved against the snapshot's interner.
#[derive(Clone, Copy, PartialEq)]
enum Want {
    /// No constraint.
    Any,
    /// Constraint names a label the snapshot never interned: nothing
    /// can match.
    Impossible,
    /// Must carry exactly this symbol (compare `u32`s, never text).
    Sym(Symbol),
}

impl Want {
    fn resolve(fz: &FrozenGraph, want: Option<&str>) -> Want {
        match want {
            None => Want::Any,
            Some(text) => fz.label_symbol(text).map_or(Want::Impossible, Want::Sym),
        }
    }

    #[inline]
    fn accepts(self, sym: Option<Symbol>) -> bool {
        match self {
            Want::Any => true,
            Want::Impossible => false,
            Want::Sym(want) => sym == Some(want),
        }
    }
}

/// A batch of partial matches: one `u32` dense-id column per *bound*
/// pattern variable (unbound columns stay empty), `len` rows.
struct Frame {
    cols: Vec<Vec<u32>>,
    len: usize,
}

impl Frame {
    fn root(vars: usize) -> Frame {
        // One virtual row binding nothing: the depth-0 seed operator
        // crosses it with the first variable's candidate list.
        Frame {
            cols: vec![Vec::new(); vars],
            len: 1,
        }
    }
}

/// Compatibility shim for callers that route a plan themselves: the
/// executor at one worker, without the domain-consistency probe.
#[doc(hidden)]
pub fn match_pattern_vectorized_governed(
    fz: &FrozenGraph,
    pattern: &Pattern,
    domains: &[Option<Vec<NodeId>>],
    guard: &ExecutionGuard,
) -> Result<MatchTable> {
    execute(fz, pattern, domains, 1, Some(guard))
}

/// Compatibility shim for callers that route a plan themselves: the
/// executor at `workers`, without the domain-consistency probe.
#[doc(hidden)]
pub fn match_pattern_par_vectorized_domains_governed(
    fz: &FrozenGraph,
    pattern: &Pattern,
    domains: &[Option<Vec<NodeId>>],
    workers: usize,
    guard: &ExecutionGuard,
) -> Result<MatchTable> {
    execute(fz, pattern, domains, workers, Some(guard))
}

/// Runs `pattern` over the snapshot, seeding each variable from its
/// domain (where given), across up to `workers` threads. Equal to the
/// planned matcher as a binding set, and byte-identical at every
/// worker count. Callers go through [`crate::execute_pattern`], which
/// probes the domains first.
pub(crate) fn execute(
    fz: &FrozenGraph,
    pattern: &Pattern,
    domains: &[Option<Vec<NodeId>>],
    workers: usize,
    guard: Option<&ExecutionGuard>,
) -> Result<MatchTable> {
    let vars: Vec<String> = pattern.nodes.iter().map(|pn| pn.var.clone()).collect();
    if pattern.nodes.is_empty() {
        return Ok(MatchTable::from_parts(vars, Vec::new()));
    }
    let plan = BatchPlan::compile(fz, pattern, domains);
    let seeds = plan.root_seed_list();
    let workers = if seeds.len() < PAR_PATTERN_MIN_ROOTS && !fanout_forced() {
        1
    } else {
        workers
    };
    let parts = run_morsels(
        seeds.len(),
        workers,
        || {
            (
                vec![Stamps::default(); pattern.nodes.len()],
                guard.map(ExecutionGuard::worker),
            )
        },
        |(dedup, worker_guard), range| match worker_guard {
            // Drain the worker's pending counts at every morsel
            // boundary so budget trips surface promptly.
            Some(w) => {
                let data = plan.run(&seeds[range], dedup, &*w)?;
                w.flush().map(|()| data)
            }
            None => plan.run::<Option<&ExecutionGuard>>(&seeds[range], dedup, None),
        },
    );
    // Every worker guard has settled by now, so a trip's partial row
    // count covers all workers, not just the one that tripped.
    let mut parts = parts.map_err(|e| match (e.interrupt_reason(), guard) {
        (Some(reason), Some(g)) => GdmError::interrupted(reason, g.budget().rows_emitted()),
        _ => e,
    })?;
    let data = match parts.len() {
        1 => parts.pop().expect("one part"),
        _ => parts.concat(),
    };
    Ok(MatchTable::from_parts(vars, data))
}

/// Everything about a vectorized match that depends only on the
/// (snapshot, pattern, domains) triple: the elimination order, the
/// per-depth generator/residual schedule, pre-resolved label symbols,
/// and the domain selection vectors/bitsets. Compiled once and then
/// shared read-only by every worker, which is what guarantees all
/// morsels see the *same* plan.
struct BatchPlan<'a> {
    fz: &'a FrozenGraph,
    pattern: &'a Pattern,
    order: Vec<usize>,
    generators: Vec<Option<usize>>,
    residual_edges: Vec<Vec<usize>>,
    node_want: Vec<Want>,
    edge_want: Vec<Want>,
    dom_list: Vec<Option<Vec<u32>>>,
    dom_bits: Vec<Option<Vec<u64>>>,
}

/// Dense-indexed parallel-edge dedup marks for one pattern depth: a
/// target is a duplicate within the current source row iff its mark
/// equals `current`. Each worker keeps one per depth and reuses them
/// across its morsels; the marks are sized on the depth's first
/// expansion, so depths without a generating edge never allocate.
#[derive(Clone, Default)]
struct Stamps {
    marks: Vec<u32>,
    current: u32,
}

impl Stamps {
    /// Opens a new source row over a snapshot of `nodes` nodes.
    fn next_row(&mut self, nodes: usize) {
        if self.marks.len() != nodes {
            self.marks = vec![0; nodes];
        }
        self.current = self.current.wrapping_add(1);
        if self.current == 0 {
            self.marks.fill(0);
            self.current = 1;
        }
    }

    /// Marks `target` as seen in the current row, reporting whether it
    /// already was.
    #[inline]
    fn seen(&mut self, target: u32) -> bool {
        let mark = &mut self.marks[target as usize];
        let dup = *mark == self.current;
        *mark = self.current;
        dup
    }
}

impl<'a> BatchPlan<'a> {
    /// Compiles the static plan. Callers must have rejected empty
    /// patterns already ([`planned_order`] needs at least one node).
    fn compile(
        fz: &'a FrozenGraph,
        pattern: &'a Pattern,
        domains: &[Option<Vec<NodeId>>],
    ) -> BatchPlan<'a> {
        let estimates = domain_estimates(fz, pattern, domains);
        let order = planned_order(pattern, &estimates);
        let n_vars = pattern.nodes.len();

        // Selection vectors: planner domains mapped to dense positions
        // (ids the snapshot never held simply drop out — the planned
        // matcher rejects them via `contains_node` the same way), plus
        // a bitset per restricted variable for O(1) membership during
        // expansion.
        let dom_list: Vec<Option<Vec<u32>>> = (0..n_vars)
            .map(|i| {
                domains.get(i).and_then(Option::as_ref).map(|d| {
                    d.iter()
                        .filter_map(|n| fz.dense_of(*n))
                        .collect::<Vec<u32>>()
                })
            })
            .collect();
        let words = fz.len().div_ceil(64);
        let dom_bits: Vec<Option<Vec<u64>>> = dom_list
            .iter()
            .map(|d| {
                d.as_ref().map(|list| {
                    let mut bits = vec![0u64; words];
                    for &dense in list {
                        bits[dense as usize / 64] |= 1 << (dense % 64);
                    }
                    bits
                })
            })
            .collect();

        // Labels resolved once per query; the batch loops compare
        // symbols.
        let node_want: Vec<Want> = pattern
            .nodes
            .iter()
            .map(|pn| Want::resolve(fz, pn.label.as_deref()))
            .collect();
        let edge_want: Vec<Want> = pattern
            .edges
            .iter()
            .map(|pe| Want::resolve(fz, pe.label.as_deref()))
            .collect();

        // Static per-depth plan: with a fixed elimination order, the
        // bound set at each depth is `order[..depth]`, so the
        // generating edge and the residual edge checks are knowable up
        // front instead of per candidate.
        let mut bound = vec![false; n_vars];
        let mut generators: Vec<Option<usize>> = Vec::with_capacity(order.len());
        let mut residual_edges: Vec<Vec<usize>> = Vec::with_capacity(order.len());
        for &pv in &order {
            let generator = pattern.edges.iter().position(|e| {
                (e.to == pv && e.from != pv && bound[e.from])
                    || (e.from == pv && e.to != pv && bound[e.to])
            });
            bound[pv] = true;
            let checks = pattern
                .edges
                .iter()
                .enumerate()
                .filter(|&(ei, e)| {
                    Some(ei) != generator
                        && (e.from == pv || e.to == pv)
                        && bound[e.from]
                        && bound[e.to]
                })
                .map(|(ei, _)| ei)
                .collect();
            generators.push(generator);
            residual_edges.push(checks);
        }

        BatchPlan {
            fz,
            pattern,
            order,
            generators,
            residual_edges,
            node_want,
            edge_want,
            dom_list,
            dom_bits,
        }
    }

    /// The full root seed list (dense positions), in the order a
    /// one-worker run scans it; morsels are contiguous ranges of it.
    fn root_seed_list(&self) -> Cow<'_, [u32]> {
        let pv = self.order[0];
        if self.node_want[pv] == Want::Impossible {
            return Cow::Borrowed(&[]);
        }
        match &self.dom_list[pv] {
            Some(list) => Cow::Borrowed(list),
            None => self.all_dense(pv),
        }
    }

    /// Dense positions a label-only scan of `pv` must consider: the
    /// label index slice when the variable is labelled, else all
    /// nodes. (Only reached when the planner supplied no domain.)
    fn all_dense(&self, pv: usize) -> Cow<'_, [u32]> {
        match self.node_want[pv] {
            Want::Sym(sym) => Cow::Borrowed(self.fz.nodes_with_label(sym)),
            _ => Cow::Owned((0..self.fz.len() as u32).collect()),
        }
    }

    /// Runs the full operator chain — seed, batched expand, residual
    /// filter, materialize — over the root seeds `root_seeds` and
    /// returns the flat result data (`n_vars` node ids per row). The
    /// guard is generic so ungoverned runs (`Option<&ExecutionGuard>`)
    /// and governed workers (`&WorkerGuard`) share the pipeline
    /// without dynamic dispatch.
    fn run<G: GuardExt>(
        &self,
        root_seeds: &[u32],
        dedup: &mut [Stamps],
        guard: G,
    ) -> Result<Vec<NodeId>> {
        let mut search = VecSearch {
            plan: self,
            root_seeds,
            dedup,
            data: Vec::new(),
            guard,
        };
        search.step(0, &Frame::root(self.pattern.nodes.len()))?;
        Ok(search.data)
    }
}

struct VecSearch<'a, G: GuardExt> {
    plan: &'a BatchPlan<'a>,
    /// The root seed operator's input: this morsel's seed range.
    root_seeds: &'a [u32],
    /// Per-depth dedup marks for batched expansion.
    dedup: &'a mut [Stamps],
    /// Flat result buffer, `n_vars` node ids per row in pattern
    /// variable order.
    data: Vec<NodeId>,
    guard: G,
}

impl<G: GuardExt> VecSearch<'_, G> {
    /// Runs the operator for depth `depth` over one input batch.
    fn step(&mut self, depth: usize, frame: &Frame) -> Result<()> {
        if depth == self.plan.order.len() {
            return self.emit(frame);
        }
        let pv = self.plan.order[depth];
        if self.plan.node_want[pv] == Want::Impossible {
            return Ok(());
        }

        // Pending child batch: parent row index + candidate value.
        let mut sel: Vec<u32> = Vec::with_capacity(BATCH);
        let mut vals: Vec<u32> = Vec::with_capacity(BATCH);

        match self.plan.generators[depth] {
            Some(ei) => {
                if self.plan.edge_want[ei] == Want::Impossible {
                    return Ok(());
                }
                for row in 0..frame.len {
                    self.expand_row(depth, pv, ei, frame, row, &mut sel, &mut vals)?;
                }
            }
            None => {
                // Seed operator: the morsel's root seeds at depth 0,
                // else the domain selection vector when the planner
                // supplied one, else the label-scan slice, else every
                // dense position.
                let owned: Cow<'_, [u32]>;
                let scan: &[u32] = match (depth, &self.plan.dom_list[pv]) {
                    (0, _) => self.root_seeds,
                    (_, Some(list)) => list,
                    (_, None) => {
                        owned = self.plan.all_dense(pv);
                        &owned
                    }
                };
                for row in 0..frame.len {
                    for chunk in scan.chunks(BATCH) {
                        // The seed list is independent of the row, so
                        // whole chunks flush without the fill loop.
                        sel.clear();
                        vals.clear();
                        sel.resize(chunk.len(), row as u32);
                        vals.extend_from_slice(chunk);
                        self.flush(depth, pv, frame, &mut sel, &mut vals)?;
                    }
                }
                return Ok(());
            }
        }
        if !vals.is_empty() {
            self.flush(depth, pv, frame, &mut sel, &mut vals)?;
        }
        Ok(())
    }

    /// Batched expand: walks the CSR run of `row`'s bound endpoint of
    /// generating edge `ei`, pushing label/range-qualified,
    /// deduplicated, in-domain targets into the pending batch and
    /// flushing whenever it fills.
    #[allow(clippy::too_many_arguments)]
    fn expand_row(
        &mut self,
        depth: usize,
        pv: usize,
        ei: usize,
        frame: &Frame,
        row: usize,
        sel: &mut Vec<u32>,
        vals: &mut Vec<u32>,
    ) -> Result<()> {
        let e = &self.plan.pattern.edges[ei];
        let (bound_var, dir) = if e.to == pv {
            (e.from, e.direction)
        } else {
            let dir = match e.direction {
                Direction::Outgoing => Direction::Incoming,
                other => other,
            };
            (e.to, dir)
        };
        let bound = frame.cols[bound_var][row];

        self.dedup[depth].next_row(self.plan.fz.len());

        let (fwd_first, rev_too) = match dir {
            Direction::Outgoing => (true, false),
            Direction::Incoming => (false, true),
            Direction::Both => (true, self.plan.fz.is_directed()),
        };
        if fwd_first {
            self.expand_run(depth, pv, ei, frame, row, bound, false, sel, vals)?;
        }
        if rev_too {
            self.expand_run(depth, pv, ei, frame, row, bound, true, sel, vals)?;
        }
        Ok(())
    }

    /// One CSR run (forward or reverse) of the batched expand.
    #[allow(clippy::too_many_arguments)]
    fn expand_run(
        &mut self,
        depth: usize,
        pv: usize,
        ei: usize,
        frame: &Frame,
        row: usize,
        bound: u32,
        reverse: bool,
        sel: &mut Vec<u32>,
        vals: &mut Vec<u32>,
    ) -> Result<()> {
        let e = &self.plan.pattern.edges[ei];
        let want = self.plan.edge_want[ei];
        let csr = if reverse {
            &self.plan.fz.rev
        } else {
            &self.plan.fz.fwd
        };
        let bits = self.plan.dom_bits[pv].as_deref();
        let run = csr.run(bound);
        for pos in 0..run.targets.len() {
            if !want.accepts(run.labels[pos]) {
                continue;
            }
            if !e.ranges.is_empty() && !self.edge_props_in_ranges(run.edge_ids[pos].raw(), ei) {
                continue;
            }
            let target = run.targets[pos];
            if self.dedup[depth].seen(target) {
                continue; // parallel-edge duplicate within this row
            }
            if let Some(bits) = bits {
                if bits[target as usize / 64] & (1 << (target % 64)) == 0 {
                    continue; // outside the variable's domain
                }
            }
            sel.push(row as u32);
            vals.push(target);
            if vals.len() == BATCH {
                self.flush(depth, pv, frame, sel, vals)?;
            }
        }
        Ok(())
    }

    /// Residual filter + recurse: charges the guard for the candidate
    /// batch, filters it in place against the node constraints,
    /// injectivity, and the depth's residual edge checks, gathers the
    /// survivors into a child frame, and runs the next operator on it.
    /// Clears `sel`/`vals` for the caller to refill.
    fn flush(
        &mut self,
        depth: usize,
        pv: usize,
        frame: &Frame,
        sel: &mut Vec<u32>,
        vals: &mut Vec<u32>,
    ) -> Result<()> {
        self.guard.nodes(vals.len() as u64)?;

        let pn = &self.plan.pattern.nodes[pv];
        let want = self.plan.node_want[pv];
        let bound_vars = &self.plan.order[..depth];
        let mut keep = 0usize;
        'cand: for i in 0..vals.len() {
            let cand = vals[i];
            let row = sel[i] as usize;
            // Label: one symbol compare against the label column.
            if !want.accepts(self.plan.fz.node_label_dense(cand)) {
                continue;
            }
            // Property equality over the snapshot's property columns.
            for (key, want_v) in &pn.props {
                if !self.plan.fz.prop_matches(cand, key, want_v) {
                    continue 'cand;
                }
            }
            // Injectivity against the row's other columns.
            for &v in bound_vars {
                if frame.cols[v][row] == cand {
                    continue 'cand;
                }
            }
            // Residual (non-generator) edge checks.
            for &rei in &self.plan.residual_edges[depth] {
                let e = &self.plan.pattern.edges[rei];
                let from = if e.from == pv {
                    cand
                } else {
                    frame.cols[e.from][row]
                };
                let to = if e.to == pv {
                    cand
                } else {
                    frame.cols[e.to][row]
                };
                if !self.has_edge_dense(rei, from, to) {
                    continue 'cand;
                }
            }
            sel[keep] = sel[i];
            vals[keep] = cand;
            keep += 1;
        }
        sel.truncate(keep);
        vals.truncate(keep);

        if keep > 0 {
            // Gather the child batch: parent columns through the
            // selection vector, plus the new column.
            let mut child = Frame {
                cols: vec![Vec::new(); frame.cols.len()],
                len: keep,
            };
            for &v in bound_vars {
                let src = &frame.cols[v];
                child.cols[v] = sel.iter().map(|&r| src[r as usize]).collect();
            }
            child.cols[pv] = std::mem::take(vals);
            self.step(depth + 1, &child)?;
            *vals = std::mem::take(&mut child.cols[pv]);
        }
        sel.clear();
        vals.clear();
        Ok(())
    }

    /// Does the snapshot hold an edge satisfying pattern edge `rei`
    /// between the dense endpoints? Pure CSR scan, symbol-compare
    /// labels, exact range re-check.
    fn has_edge_dense(&self, rei: usize, from: u32, to: u32) -> bool {
        let e = &self.plan.pattern.edges[rei];
        match e.direction {
            Direction::Outgoing => self.scan_edge(rei, from, to),
            Direction::Incoming => self.scan_edge(rei, to, from),
            Direction::Both => self.scan_edge(rei, from, to) || self.scan_edge(rei, to, from),
        }
    }

    fn scan_edge(&self, rei: usize, a: u32, b: u32) -> bool {
        let want = self.plan.edge_want[rei];
        let ranges = &self.plan.pattern.edges[rei].ranges;
        let run = self.plan.fz.fwd.run(a);
        for pos in 0..run.targets.len() {
            if run.targets[pos] == b
                && want.accepts(run.labels[pos])
                && (ranges.is_empty() || self.edge_props_in_ranges(run.edge_ids[pos].raw(), rei))
            {
                return true;
            }
        }
        false
    }

    /// Exact edge-property range filter for pattern edge `rei`.
    fn edge_props_in_ranges(&self, edge_raw: u64, rei: usize) -> bool {
        let ranges = &self.plan.pattern.edges[rei].ranges;
        let props = self.plan.fz.edge_props_raw(edge_raw).unwrap_or(&[]);
        ranges.iter().all(|(key, low, high)| {
            props
                .iter()
                .find(|(k, _)| k == key)
                .is_some_and(|(_, got): &(String, Value)| {
                    value_in_range(got, low.as_ref(), high.as_ref())
                })
        })
    }

    /// Materialize operator: charges the emitted batch and appends the
    /// rows (dense ids translated back to node ids) to the flat
    /// result buffer.
    fn emit(&mut self, frame: &Frame) -> Result<()> {
        self.guard.rows(frame.len as u64)?;
        self.data.reserve(frame.len * self.plan.pattern.nodes.len());
        for row in 0..frame.len {
            for col in &frame.cols {
                self.data.push(self.plan.fz.node_at(col[row]));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{force_fanout, inject_worker_panic_once};
    use crate::pattern::{canonical, match_pattern, PatternNode};
    use crate::planned::{auto_domains, match_planned};
    use gdm_core::{props, InterruptReason};
    use gdm_govern::{CancelToken, ExecutionGuard, Limits};
    use gdm_graphs::{PropertyGraph, SimpleGraph};
    use std::time::Duration;

    /// The executor over the snapshot's own index domains.
    fn run(fz: &FrozenGraph, p: &Pattern, workers: usize) -> MatchTable {
        execute(fz, p, &auto_domains(fz, p), workers, None).unwrap()
    }

    fn run_governed(
        fz: &FrozenGraph,
        p: &Pattern,
        workers: usize,
        guard: &ExecutionGuard,
    ) -> Result<MatchTable> {
        execute(fz, p, &auto_domains(fz, p), workers, Some(guard))
    }

    fn community() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let mut nodes = Vec::new();
        for i in 0..24u64 {
            let label = if i % 4 == 0 { "company" } else { "person" };
            nodes.push(g.add_node(label, props! { "i" => i as i64, "band" => i as i64 % 3 }));
        }
        for i in 0..24usize {
            let a = nodes[i];
            let b = nodes[(i * 7 + 3) % 24];
            let c = nodes[(i * 11 + 5) % 24];
            let _ = g.add_edge(a, b, "knows", props! { "w" => i as i64 });
            let _ = g.add_edge(a, c, if i % 2 == 0 { "knows" } else { "likes" }, props! {});
        }
        g
    }

    fn social(n: u64) -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let nodes: Vec<NodeId> = (0..n)
            .map(|i| {
                g.add_node(
                    if i % 5 == 0 { "company" } else { "person" },
                    props! { "i" => i as i64 },
                )
            })
            .collect();
        for i in 0..n as usize {
            let a = nodes[i];
            g.add_edge(a, nodes[(i * 7 + 1) % n as usize], "knows", props! {})
                .unwrap();
            g.add_edge(a, nodes[(i * 13 + 3) % n as usize], "knows", props! {})
                .unwrap();
        }
        g
    }

    fn chain_pattern() -> Pattern {
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x"));
        let y = p.node(PatternNode::var("y").with_label("person"));
        let z = p.node(PatternNode::var("z"));
        p.edge(x, y, Some("knows")).unwrap();
        p.edge(y, z, Some("knows")).unwrap();
        p
    }

    fn two_hop() -> Pattern {
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x").with_label("person"));
        let y = p.node(PatternNode::var("y").with_label("person"));
        let z = p.node(PatternNode::var("z"));
        p.edge(x, y, Some("knows")).unwrap();
        p.edge(y, z, Some("knows")).unwrap();
        p
    }

    #[test]
    fn vectorized_equals_planned_and_unplanned() {
        let g = community();
        let fz = FrozenGraph::freeze_attributed(&g);
        let p = chain_pattern();
        let vec = run(&fz, &p, 1);
        let planned = match_planned(&fz, &p, &auto_domains(&fz, &p), None).unwrap();
        let unplanned = match_pattern(&fz, &p);
        assert_eq!(
            canonical(&vec.to_bindings()),
            canonical(&planned.to_bindings())
        );
        assert_eq!(canonical(&vec.to_bindings()), canonical(&unplanned));
        assert!(!vec.is_empty());
    }

    #[test]
    fn vectorized_respects_explicit_domains() {
        let g = community();
        let fz = FrozenGraph::freeze_attributed(&g);
        let p = chain_pattern();
        let dom: Vec<Option<Vec<NodeId>>> = vec![None, None, Some(vec![NodeId(3), NodeId(5)])];
        let via_domains = execute(&fz, &p, &dom, 1, None).unwrap();
        let planned = match_planned(&fz, &p, &dom, None).unwrap();
        assert_eq!(
            canonical(&via_domains.to_bindings()),
            canonical(&planned.to_bindings())
        );
    }

    #[test]
    fn vectorized_handles_self_loops_and_undirected_edges() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("n", props! {});
        let b = g.add_node("n", props! {});
        g.add_edge(a, a, "self", props! {}).unwrap();
        g.add_edge(a, b, "link", props! {}).unwrap();
        let fz = FrozenGraph::freeze_attributed(&g);
        // Self-loop pattern.
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x"));
        p.edge(x, x, Some("self")).unwrap();
        let vec = run(&fz, &p, 1);
        assert_eq!(
            canonical(&vec.to_bindings()),
            canonical(&match_pattern(&fz, &p))
        );
        // Undirected two-node pattern.
        let mut q = Pattern::new();
        let u = q.node(PatternNode::var("u"));
        let v = q.node(PatternNode::var("v"));
        q.edge_undirected(u, v, Some("link")).unwrap();
        let vec = run(&fz, &q, 1);
        assert_eq!(
            canonical(&vec.to_bindings()),
            canonical(&match_pattern(&fz, &q))
        );
        assert_eq!(vec.len(), 2);
    }

    #[test]
    fn vectorized_edge_ranges_filter_matches() {
        let g = community();
        let fz = FrozenGraph::freeze_attributed(&g);
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x"));
        let y = p.node(PatternNode::var("y"));
        p.edge(x, y, Some("knows")).unwrap();
        p.edge_range("w", Some(Value::from(5)), Some(Value::from(9)))
            .unwrap();
        let vec = run(&fz, &p, 1);
        let unplanned = match_pattern(&fz, &p);
        assert_eq!(canonical(&vec.to_bindings()), canonical(&unplanned));
        assert_eq!(vec.len(), 5, "w ∈ [5, 9] keeps five edges");
    }

    #[test]
    fn governed_vectorized_interrupts_with_partial_count() {
        let g = community();
        let fz = FrozenGraph::freeze_attributed(&g);
        let p = chain_pattern();
        let guard = ExecutionGuard::new(Limits::none().with_node_visits(4));
        let err = run_governed(&fz, &p, 1, &guard).unwrap_err();
        assert!(err.is_interrupted());
        // Unlimited guard reproduces the ungoverned result.
        let guard = ExecutionGuard::unlimited();
        let governed = run_governed(&fz, &p, 1, &guard).unwrap();
        assert_eq!(governed, run(&fz, &p, 1));
    }

    #[test]
    fn governed_vectorized_cancellation_trips_per_batch() {
        let g = community();
        let fz = FrozenGraph::freeze_attributed(&g);
        let p = chain_pattern();
        let cancel = CancelToken::new();
        cancel.cancel();
        let guard = ExecutionGuard::with_cancel(Limits::none(), cancel);
        let err = run_governed(&fz, &p, 1, &guard).unwrap_err();
        assert!(err.is_interrupted());
    }

    #[test]
    fn impossible_label_matches_nothing() {
        let g = community();
        let fz = FrozenGraph::freeze_attributed(&g);
        let mut p = Pattern::new();
        p.node(PatternNode::var("x").with_label("zzz"));
        assert!(run(&fz, &p, 1).is_empty());
        let mut q = Pattern::new();
        let a = q.node(PatternNode::var("a"));
        let b = q.node(PatternNode::var("b"));
        q.edge(a, b, Some("zzz")).unwrap();
        assert!(run(&fz, &q, 1).is_empty());
    }

    #[test]
    fn empty_pattern_is_empty() {
        let g = community();
        let fz = FrozenGraph::freeze_attributed(&g);
        assert!(run(&fz, &Pattern::new(), 1).is_empty());
        assert!(run(&fz, &Pattern::new(), 4).is_empty());
    }

    #[test]
    fn batches_larger_than_one_flush_cycle() {
        // > BATCH seed candidates force at least two flushes.
        let mut g = PropertyGraph::new();
        let hub = g.add_node("hub", props! {});
        for _ in 0..(BATCH as u64 + 300) {
            let n = g.add_node("leaf", props! {});
            g.add_edge(n, hub, "to", props! {}).unwrap();
        }
        let fz = FrozenGraph::freeze_attributed(&g);
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x").with_label("leaf"));
        let h = p.node(PatternNode::var("h").with_label("hub"));
        p.edge(x, h, Some("to")).unwrap();
        let vec = run(&fz, &p, 1);
        assert_eq!(vec.len(), BATCH + 300);
        let planned = match_planned(&fz, &p, &auto_domains(&fz, &p), None).unwrap();
        assert_eq!(
            canonical(&vec.to_bindings()),
            canonical(&planned.to_bindings())
        );
    }

    #[test]
    fn vectorized_dedup_survives_a_mid_row_batch_flush() {
        // One root whose expansion overflows a batch mid-row: the
        // flush recurses into the next depth before the root's row is
        // done. A parallel edge after the flush must still dedup, and
        // targets the child depth stamped must not be dropped.
        let mut g = PropertyGraph::new();
        let root = g.add_node("root", props! {});
        let mids: Vec<NodeId> = (0..BATCH + 100)
            .map(|_| g.add_node("mid", props! {}))
            .collect();
        for &m in &mids {
            g.add_edge(root, m, "e", props! {}).unwrap();
        }
        g.add_edge(root, mids[0], "e", props! {}).unwrap(); // parallel edge
        for w in mids.windows(2) {
            g.add_edge(w[0], w[1], "e", props! {}).unwrap();
        }
        let fz = FrozenGraph::freeze_attributed(&g);
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x").with_label("root"));
        let y = p.node(PatternNode::var("y"));
        let z = p.node(PatternNode::var("z"));
        p.edge(x, y, Some("e")).unwrap();
        p.edge(y, z, Some("e")).unwrap();
        let got = run(&fz, &p, 1);
        assert_eq!(got.len(), BATCH + 99);
        assert_eq!(
            canonical(&got.to_bindings()),
            canonical(&match_pattern(&fz, &p))
        );
    }

    #[test]
    fn par_vectorized_is_byte_identical_to_sequential() {
        let g = social(200);
        let fz = FrozenGraph::freeze_attributed(&g);
        let p = two_hop();
        let seq = run(&fz, &p, 1);
        assert!(!seq.is_empty());
        for workers in [2, 3, 4, 7] {
            let par = run(&fz, &p, workers);
            assert_eq!(par, seq, "workers={workers}: rows must match byte for byte");
        }
    }

    #[test]
    fn par_forced_morsels_on_tiny_graphs_stay_identical() {
        let g = social(20);
        let fz = FrozenGraph::freeze_attributed(&g);
        let p = two_hop();
        let seq = run(&fz, &p, 1);
        force_fanout(true);
        let par = run(&fz, &p, 3);
        force_fanout(false);
        assert_eq!(par, seq);
    }

    #[test]
    fn par_vectorized_matches_reference_set() {
        let g = social(150);
        let fz = FrozenGraph::freeze_attributed(&g);
        let p = two_hop();
        let par = run(&fz, &p, 4);
        assert_eq!(
            canonical(&par.to_bindings()),
            canonical(&match_pattern(&fz, &p))
        );
    }

    #[test]
    fn par_pattern_reproduces_reference_bindings() {
        let mut g = PropertyGraph::new();
        let people: Vec<NodeId> = (0..12)
            .map(|i| g.add_node("person", props! { "i" => i }))
            .collect();
        let hub = g.add_node("company", props! {});
        for w in people.windows(2) {
            g.add_edge(w[0], w[1], "knows", props! {}).unwrap();
        }
        for &p in people.iter().step_by(3) {
            g.add_edge(p, hub, "works_at", props! {}).unwrap();
        }
        let fz = FrozenGraph::freeze_attributed(&g);

        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x").with_label("person"));
        let y = p.node(PatternNode::var("y").with_label("person"));
        let c = p.node(PatternNode::var("c").with_label("company"));
        p.edge(x, y, Some("knows")).unwrap();
        p.edge(x, c, Some("works_at")).unwrap();

        let reference = match_pattern(&fz, &p);
        force_fanout(true);
        for workers in [1, 2, 4, 7] {
            let par = run(&fz, &p, workers);
            assert_eq!(canonical(&par.to_bindings()), canonical(&reference));
            assert_eq!(par.len(), reference.len());
        }
        force_fanout(false);
    }

    #[test]
    fn par_pattern_spawn_path_matches_reference_on_a_simple_graph() {
        // 80 unlabeled roots clear PAR_PATTERN_MIN_ROOTS, so this
        // exercises the actual scoped-thread fan-out over a snapshot
        // of a graph without node labels or properties.
        let mut g = SimpleGraph::directed();
        let nodes: Vec<NodeId> = (0..80).map(|_| g.add_node()).collect();
        for i in 1..80 {
            let label = if i % 3 == 0 { "a" } else { "b" };
            g.add_labeled_edge(nodes[i], nodes[i / 2], label).unwrap();
            g.add_labeled_edge(nodes[i], nodes[(i * 7) % i], "a")
                .unwrap();
        }
        let fz = FrozenGraph::freeze(&g);
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x"));
        let y = p.node(PatternNode::var("y"));
        p.edge(x, y, Some("a")).unwrap();
        let reference = match_pattern(&fz, &p);
        assert!(!reference.is_empty());
        for workers in [1, 2, 4, 7] {
            let par = run(&fz, &p, workers);
            assert_eq!(canonical(&par.to_bindings()), canonical(&reference));
        }
    }

    #[test]
    fn par_empty_and_impossible_patterns() {
        let g = social(80);
        let fz = FrozenGraph::freeze_attributed(&g);
        assert!(run(&fz, &Pattern::new(), 4).is_empty());
        let mut p = Pattern::new();
        p.node(PatternNode::var("x").with_label("unicorn"));
        assert!(run(&fz, &p, 4).is_empty());
    }

    #[test]
    fn par_governed_unlimited_equals_ungoverned() {
        let g = social(150);
        let fz = FrozenGraph::freeze_attributed(&g);
        let p = two_hop();
        let guard = ExecutionGuard::unlimited();
        let governed = run_governed(&fz, &p, 4, &guard).unwrap();
        assert_eq!(governed, run(&fz, &p, 4));
        assert!(guard.budget().node_visits() > 0, "workers settled charges");
    }

    #[test]
    fn par_governed_budget_trips_with_merged_partial() {
        let g = social(400);
        let fz = FrozenGraph::freeze_attributed(&g);
        let p = two_hop();
        let guard = ExecutionGuard::new(Limits::none().with_node_visits(50));
        let err = run_governed(&fz, &p, 4, &guard).unwrap_err();
        assert_eq!(err.interrupt_reason(), Some(InterruptReason::Budget));
    }

    #[test]
    fn par_governed_deadline_and_cancel_trip() {
        let g = social(200);
        let fz = FrozenGraph::freeze_attributed(&g);
        let p = two_hop();
        let guard = ExecutionGuard::new(Limits::none().with_deadline(Duration::ZERO));
        let err = run_governed(&fz, &p, 4, &guard).unwrap_err();
        assert_eq!(err.interrupt_reason(), Some(InterruptReason::Deadline));
        let cancel = CancelToken::new();
        cancel.cancel();
        let guard = ExecutionGuard::with_cancel(Limits::none(), cancel);
        let err = run_governed(&fz, &p, 4, &guard).unwrap_err();
        assert_eq!(err.interrupt_reason(), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn par_poisoned_morsel_falls_back_to_sequential() {
        let g = social(200);
        let fz = FrozenGraph::freeze_attributed(&g);
        let p = two_hop();
        let seq = run(&fz, &p, 1);
        inject_worker_panic_once();
        let par = run(&fz, &p, 4);
        assert_eq!(par, seq, "panicking worker must not change the answer");
    }
}
