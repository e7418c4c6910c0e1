//! Selectivity-planned pattern matching, and the single entry point
//! every pattern query goes through.
//!
//! [`crate::match_pattern`] seeds its search from *all* nodes and
//! re-resolves label text per edge visited; on index-bearing graphs
//! both costs are avoidable. [`execute_pattern`] accepts a
//! per-variable candidate **domain** (typically an index lookup
//! produced by [`gdm_core::AttributedView::candidates`]), orders
//! variables by estimated selectivity — smallest domain first,
//! connectivity to already-placed variables as the tiebreak — and
//! routes the query down one degradation ladder: the reference matcher
//! when the domains are inconsistent, the vectorized morsel executor
//! on a CSR snapshot, and otherwise the row-at-a-time planned matcher
//! in this module, which uses per-pattern symbol caches so label
//! comparisons are one `u32` hash instead of a text resolution per
//! edge.
//!
//! Results land in a flat [`MatchTable`] (one row per match, one
//! column per pattern variable) rather than one hash map per match;
//! [`MatchTable::to_bindings`] converts for consumers of the unplanned
//! API. Every rung produces the same binding *set* as the unplanned
//! matcher (verified by the `planned_equiv` property suite); the row
//! order may differ because the variable order does.

use crate::frozen::FrozenGraph;
use crate::pattern::{Binding, Pattern};
use gdm_core::{AttributedView, Direction, FxHashMap, FxHashSet, NodeId, Result, Symbol};
use gdm_govern::{ExecutionGuard, GuardExt};

/// Per-variable candidate domains, indexed like `Pattern::nodes`.
/// `None` leaves the variable unrestricted (full scan or neighbor
/// expansion); `Some(ids)` restricts it to the listed nodes.
pub type Domains = Vec<Option<Vec<NodeId>>>;

/// A flat match result: one row per match, one column per pattern
/// node, in `Pattern::nodes` order. Equality is exact — same columns,
/// same rows, same row *order* — which is what the parallel executor's
/// byte-identity tests assert against the sequential pipeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchTable {
    vars: Vec<String>,
    data: Vec<NodeId>,
}

impl MatchTable {
    /// Column names, in `Pattern::nodes` order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Number of matches.
    pub fn len(&self) -> usize {
        if self.vars.is_empty() {
            0
        } else {
            self.data.len() / self.vars.len()
        }
    }

    /// True when no match was found.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Iterates matches as node-id rows aligned with [`Self::vars`].
    pub fn rows(&self) -> impl Iterator<Item = &[NodeId]> {
        self.data.chunks_exact(self.vars.len().max(1))
    }

    /// Converts to the unplanned API's binding maps.
    pub fn to_bindings(&self) -> Vec<Binding> {
        self.rows()
            .map(|row| {
                self.vars
                    .iter()
                    .zip(row)
                    .map(|(v, &n)| (v.clone(), n))
                    .collect()
            })
            .collect()
    }

    /// Builds a table from the unplanned API's binding maps, with
    /// columns in `pattern`'s variable order — the conversion used
    /// when the planned matcher degrades to the reference path.
    pub fn from_bindings(pattern: &Pattern, bindings: &[Binding]) -> Self {
        let vars: Vec<String> = pattern.nodes.iter().map(|pn| pn.var.clone()).collect();
        let mut data = Vec::with_capacity(vars.len() * bindings.len());
        for b in bindings {
            for v in &vars {
                data.push(b[v]);
            }
        }
        MatchTable { vars, data }
    }

    /// Assembles a table directly from a flat row buffer — the
    /// vectorized executor's exit point into the planned API.
    pub(crate) fn from_parts(vars: Vec<String>, data: Vec<NodeId>) -> Self {
        debug_assert!(vars.is_empty() || data.len().is_multiple_of(vars.len()));
        MatchTable { vars, data }
    }
}

/// Variable elimination order by estimated selectivity: the first
/// variable is the one with the smallest estimate; each subsequent
/// pick prefers variables connected to an already-placed one (classic
/// VF2 connectivity), breaking ties by smaller estimate, then index.
pub fn planned_order(pattern: &Pattern, estimates: &[usize]) -> Vec<usize> {
    let n = pattern.nodes.len();
    debug_assert_eq!(estimates.len(), n);
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    for step in 0..n {
        let next = (0..n)
            .filter(|&i| !placed[i])
            .min_by_key(|&i| {
                let connected = step > 0
                    && pattern
                        .edges
                        .iter()
                        .any(|e| (placed[e.from] && e.to == i) || (placed[e.to] && e.from == i));
                (!connected, estimates[i], i)
            })
            .expect("unplaced node exists");
        placed[next] = true;
        order.push(next);
    }
    order
}

/// Domain estimates for ordering: the domain size where one is given,
/// the graph's node count where not.
pub fn domain_estimates<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    domains: &[Option<Vec<NodeId>>],
) -> Vec<usize> {
    (0..pattern.nodes.len())
        .map(|i| {
            domains
                .get(i)
                .and_then(Option::as_ref)
                .map_or_else(|| g.node_count(), Vec::len)
        })
        .collect()
}

/// Builds domains for `pattern` from the view's own indexes: each
/// constrained variable whose constraints an index can bound (per
/// [`AttributedView::candidate_estimate`]) gets its candidate list;
/// unconstrained or index-less variables stay unrestricted.
pub fn auto_domains<G: AttributedView + ?Sized>(g: &G, pattern: &Pattern) -> Domains {
    pattern
        .nodes
        .iter()
        .map(|pn| {
            if pn.label.is_none() && pn.props.is_empty() {
                return None;
            }
            g.candidate_estimate(pn.label.as_deref(), &pn.props)
                .map(|_| g.candidates(pn.label.as_deref(), &pn.props))
        })
        .collect()
}

/// Probes index-supplied domains for consistency with the graph: a
/// secondary index that hands back a node the graph does not contain
/// is corrupt (stale entry, torn rebuild), and — since the matcher
/// only *filters* candidates — may equally be **missing** entries, so
/// its domains cannot be trusted as complete either. Returns `false`
/// on the first dangling id.
pub fn domains_consistent<G: AttributedView + ?Sized>(
    g: &G,
    domains: &[Option<Vec<NodeId>>],
) -> bool {
    domains
        .iter()
        .flatten()
        .flatten()
        .all(|&n| g.contains_node(n))
}

/// Matches `pattern` in `g` with per-variable candidate `domains`
/// (from [`auto_domains`] or a query plan), across up to `workers`
/// threads, under an optional [`ExecutionGuard`] — the one entry point
/// every pattern query goes through, and the one place its
/// degradation ladder lives:
///
/// 1. the domains are probed with [`domains_consistent`]; an
///    inconsistent (corrupt-index) domain set abandons planning and
///    the query is answered by the unplanned reference matcher
///    ([`crate::match_pattern`]), which scans rather than trusts
///    indexes — slower, never wrong;
/// 2. a view backed by a CSR snapshot (its
///    [`AttributedView::batch_backend`] is a [`FrozenGraph`]) runs the
///    vectorized morsel executor ([`crate::vectorized`]), whose rows
///    are byte-identical at every worker count;
/// 3. any other view runs the row-at-a-time planned matcher, which
///    binds variables smallest domain first and ignores `workers`.
///
/// Every rung returns the same binding set as [`crate::match_pattern`];
/// row order follows the rung. A guard trip returns the structured
/// `Interrupted` error with the rows emitted so far.
pub fn execute_pattern<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    domains: &[Option<Vec<NodeId>>],
    workers: usize,
    guard: Option<&ExecutionGuard>,
) -> Result<MatchTable> {
    if !domains_consistent(g, domains) {
        let bindings = crate::pattern::match_pattern_guarded(g, pattern, guard)?;
        return Ok(MatchTable::from_bindings(pattern, &bindings));
    }
    match g
        .batch_backend()
        .and_then(|b| b.downcast_ref::<FrozenGraph>())
    {
        Some(fz) => crate::vectorized::execute(fz, pattern, domains, workers, guard),
        None => match_planned(g, pattern, domains, guard),
    }
}

/// [`execute_pattern`] with the view's own indexes seeding the domains
/// ([`auto_domains`]) and the process-wide worker pool
/// ([`crate::executor_workers`]).
pub fn match_pattern_auto<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    guard: Option<&ExecutionGuard>,
) -> Result<MatchTable> {
    let domains = auto_domains(g, pattern);
    execute_pattern(g, pattern, &domains, crate::executor_workers(), guard)
}

/// The row-at-a-time planned matcher: seeds each variable from its
/// domain (where given), orders variables by estimated selectivity,
/// and charges one node per candidate binding attempt and one row per
/// match. Matches are injective on nodes; row order is deterministic
/// but follows the planned variable order.
pub(crate) fn match_planned<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    domains: &[Option<Vec<NodeId>>],
    guard: Option<&ExecutionGuard>,
) -> Result<MatchTable> {
    let vars: Vec<String> = pattern.nodes.iter().map(|pn| pn.var.clone()).collect();
    if pattern.nodes.is_empty() {
        return Ok(MatchTable {
            vars,
            data: Vec::new(),
        });
    }
    let estimates = domain_estimates(g, pattern, domains);
    let order = planned_order(pattern, &estimates);
    let domain_sets: Vec<Option<FxHashSet<u64>>> = (0..pattern.nodes.len())
        .map(|i| {
            domains
                .get(i)
                .and_then(Option::as_ref)
                .map(|d| d.iter().map(|n| n.raw()).collect())
        })
        .collect();
    let mut search = Search {
        g,
        pattern,
        order: &order,
        domains,
        domain_sets: &domain_sets,
        edge_label_cache: vec![FxHashMap::default(); pattern.edges.len()],
        node_label_cache: vec![FxHashMap::default(); pattern.nodes.len()],
        assignment: vec![None; pattern.nodes.len()],
        all_nodes: None,
        data: Vec::new(),
        guard,
    };
    search.extend(0)?;
    Ok(MatchTable {
        vars,
        data: search.data,
    })
}

struct Search<'a, G: ?Sized> {
    g: &'a G,
    pattern: &'a Pattern,
    order: &'a [usize],
    domains: &'a [Option<Vec<NodeId>>],
    domain_sets: &'a [Option<FxHashSet<u64>>],
    /// Per pattern edge: label symbol → "matches the edge's label
    /// constraint", so text is resolved once per distinct symbol.
    edge_label_cache: Vec<FxHashMap<u32, bool>>,
    /// Per pattern node: ditto for the node label constraint.
    node_label_cache: Vec<FxHashMap<u32, bool>>,
    assignment: Vec<Option<NodeId>>,
    /// Full node list, materialized at most once per search.
    all_nodes: Option<Vec<NodeId>>,
    data: Vec<NodeId>,
    guard: Option<&'a ExecutionGuard>,
}

impl<G: AttributedView + ?Sized> Search<'_, G> {
    fn extend(&mut self, depth: usize) -> Result<()> {
        if depth == self.order.len() {
            self.guard.row()?;
            for slot in &self.assignment {
                self.data.push(slot.expect("complete assignment"));
            }
            return Ok(());
        }
        let pv = self.order[depth];
        // Generating edge: the first pattern edge joining `pv` to an
        // already-bound variable. Expanding along it yields exactly
        // the nodes satisfying that edge constraint, so it is skipped
        // during the consistency re-check.
        let generator = self.pattern.edges.iter().position(|e| {
            (e.to == pv && e.from != pv && self.assignment[e.from].is_some())
                || (e.from == pv && e.to != pv && self.assignment[e.to].is_some())
        });
        match generator {
            Some(ei) => {
                let candidates = self.expand(ei, pv);
                for n in candidates {
                    if let Some(set) = &self.domain_sets[pv] {
                        if !set.contains(&n.raw()) {
                            continue;
                        }
                    }
                    self.try_bind(depth, pv, n, Some(ei))?;
                }
            }
            None => {
                let domains = self.domains;
                if let Some(dom) = domains.get(pv).and_then(|d| d.as_deref()) {
                    for &n in dom {
                        self.try_bind(depth, pv, n, None)?;
                    }
                } else {
                    if self.all_nodes.is_none() {
                        self.all_nodes = Some(self.g.node_ids());
                    }
                    let all = self.all_nodes.take().expect("just filled");
                    for &n in &all {
                        if let Err(e) = self.try_bind(depth, pv, n, None) {
                            self.all_nodes = Some(all);
                            return Err(e);
                        }
                    }
                    self.all_nodes = Some(all);
                }
            }
        }
        Ok(())
    }

    /// Distinct neighbors of the bound endpoint of pattern edge `ei`
    /// reachable along it, with the edge-label constraint applied
    /// during the visit.
    fn expand(&mut self, ei: usize, pv: usize) -> Vec<NodeId> {
        let g = self.g;
        let e = &self.pattern.edges[ei];
        let (bound, dir) = if e.to == pv {
            (self.assignment[e.from].expect("generator"), e.direction)
        } else {
            let dir = match e.direction {
                Direction::Outgoing => Direction::Incoming,
                other => other,
            };
            (self.assignment[e.to].expect("generator"), dir)
        };
        let want = e.label.as_deref();
        let ranges = &e.ranges;
        let cache = &mut self.edge_label_cache[ei];
        let mut out = Vec::new();
        g.visit_edges_dir(bound, dir, &mut |er| {
            if label_ok(g, cache, want, er.label)
                && crate::pattern::edge_ranges_ok(g, er.id, ranges)
                && !out.contains(&er.to)
            {
                out.push(er.to);
            }
        });
        out
    }

    fn try_bind(
        &mut self,
        depth: usize,
        pv: usize,
        n: NodeId,
        generator: Option<usize>,
    ) -> Result<()> {
        self.guard.node()?;
        if self.assignment.iter().flatten().any(|&m| m == n) {
            return Ok(()); // injectivity
        }
        if !self.node_ok(pv, n) {
            return Ok(());
        }
        self.assignment[pv] = Some(n);
        let recurse = if self.edges_consistent(pv, generator) {
            self.extend(depth + 1)
        } else {
            Ok(())
        };
        self.assignment[pv] = None;
        recurse
    }

    fn node_ok(&mut self, pv: usize, n: NodeId) -> bool {
        let g = self.g;
        if !g.contains_node(n) {
            return false;
        }
        let pn = &self.pattern.nodes[pv];
        if let Some(want) = &pn.label {
            let cache = &mut self.node_label_cache[pv];
            let ok = match g.node_label(n) {
                None => false,
                Some(sym) => *cache
                    .entry(sym.raw())
                    .or_insert_with(|| g.label_text(sym).is_some_and(|t| t == want)),
            };
            if !ok {
                return false;
            }
        }
        pn.props.iter().all(|(key, want)| {
            g.node_property(n, key)
                .is_some_and(|got| got.loose_eq(want))
        })
    }

    /// Checks every pattern edge incident to `just_placed` whose
    /// endpoints are both bound, except the generating edge (already
    /// satisfied by construction).
    fn edges_consistent(&mut self, just_placed: usize, skip: Option<usize>) -> bool {
        for ei in 0..self.pattern.edges.len() {
            if Some(ei) == skip {
                continue;
            }
            let e = &self.pattern.edges[ei];
            if e.from != just_placed && e.to != just_placed {
                continue;
            }
            let (Some(from), Some(to)) = (self.assignment[e.from], self.assignment[e.to]) else {
                continue;
            };
            if !self.has_edge(ei, from, to) {
                return false;
            }
        }
        true
    }

    fn has_edge(&mut self, ei: usize, from: NodeId, to: NodeId) -> bool {
        let g = self.g;
        let e = &self.pattern.edges[ei];
        let want = e.label.as_deref();
        let ranges = &e.ranges;
        let cache = &mut self.edge_label_cache[ei];
        let check = |a: NodeId, b: NodeId, cache: &mut FxHashMap<u32, bool>| {
            let mut found = false;
            g.visit_out_edges(a, &mut |er| {
                if er.to == b
                    && label_ok(g, cache, want, er.label)
                    && crate::pattern::edge_ranges_ok(g, er.id, ranges)
                {
                    found = true;
                }
            });
            found
        };
        match e.direction {
            Direction::Outgoing => check(from, to, cache),
            Direction::Incoming => check(to, from, cache),
            Direction::Both => check(from, to, cache) || check(to, from, cache),
        }
    }
}

/// Does `sym` satisfy the edge/node label constraint `want`, resolving
/// each distinct symbol's text at most once via `cache`?
fn label_ok<G: AttributedView + ?Sized>(
    g: &G,
    cache: &mut FxHashMap<u32, bool>,
    want: Option<&str>,
    sym: Option<Symbol>,
) -> bool {
    let Some(want) = want else { return true };
    match sym {
        None => false,
        Some(sym) => *cache
            .entry(sym.raw())
            .or_insert_with(|| g.label_text(sym).is_some_and(|t| t == want)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{canonical, match_pattern, PatternNode};
    use gdm_core::props;
    use gdm_graphs::PropertyGraph;

    fn community() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let mut nodes = Vec::new();
        for i in 0..20u64 {
            let label = if i % 4 == 0 { "company" } else { "person" };
            nodes.push(g.add_node(label, props! { "i" => i as i64, "band" => i as i64 % 3 }));
        }
        for i in 0..20usize {
            let a = nodes[i];
            let b = nodes[(i * 7 + 3) % 20];
            let c = nodes[(i * 11 + 5) % 20];
            let _ = g.add_edge(a, b, "knows", props! {});
            let _ = g.add_edge(a, c, if i % 2 == 0 { "knows" } else { "likes" }, props! {});
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

    #[test]
    fn planned_equals_unplanned_on_chain() {
        let g = community();
        let p = chain_pattern();
        let planned = match_pattern_auto(&g, &p, None).unwrap();
        let unplanned = match_pattern(&g, &p);
        assert_eq!(canonical(&planned.to_bindings()), canonical(&unplanned));
        assert_eq!(planned.len(), unplanned.len());
    }

    #[test]
    fn explicit_domains_restrict_results() {
        let g = community();
        let mut p = Pattern::new();
        p.node(PatternNode::var("x"));
        let all = execute_pattern(&g, &p, &[None], 1, None).unwrap();
        assert_eq!(all.len(), 20);
        let dom: Domains = vec![Some(vec![NodeId(1), NodeId(2)])];
        let some = execute_pattern(&g, &p, &dom, 1, None).unwrap();
        assert_eq!(some.len(), 2);
        let rows: Vec<&[NodeId]> = some.rows().collect();
        assert_eq!(rows[0], &[NodeId(1)]);
        assert_eq!(rows[1], &[NodeId(2)]);
    }

    #[test]
    fn domains_apply_to_expanded_variables_too() {
        let g = community();
        let p = chain_pattern();
        // Restrict z to a single node; every surviving row must bind
        // z there, and the rows must be a subset of the unrestricted
        // result.
        let z_only = NodeId(3);
        let dom: Domains = vec![None, None, Some(vec![z_only])];
        let restricted = execute_pattern(&g, &p, &dom, 1, None).unwrap();
        let full = canonical(&match_pattern(&g, &p));
        for row in restricted.rows() {
            assert_eq!(row[2], z_only);
        }
        let restricted_canon = canonical(&restricted.to_bindings());
        for r in &restricted_canon {
            assert!(full.contains(r));
        }
    }

    #[test]
    fn selectivity_order_puts_smallest_domain_first() {
        let mut p = Pattern::new();
        let a = p.node(PatternNode::var("a"));
        let b = p.node(PatternNode::var("b"));
        let c = p.node(PatternNode::var("c"));
        p.edge(a, b, None).unwrap();
        p.edge(b, c, None).unwrap();
        let order = planned_order(&p, &[100, 50, 3]);
        assert_eq!(order[0], 2, "smallest estimate first");
        assert_eq!(order[1], 1, "then its pattern neighbor");
        assert_eq!(order[2], 0);
    }

    #[test]
    fn connectivity_beats_selectivity_after_the_root() {
        let mut p = Pattern::new();
        let a = p.node(PatternNode::var("a"));
        let b = p.node(PatternNode::var("b"));
        let c = p.node(PatternNode::var("c"));
        p.edge(a, b, None).unwrap();
        // c is disconnected and tiny; it still goes last because b is
        // connected to the placed a.
        let order = planned_order(&p, &[1, 100, 2]);
        assert_eq!(order, vec![0, 1, 2]);
        let _ = c;
    }

    #[test]
    fn empty_pattern_and_empty_table() {
        let g = community();
        let table = execute_pattern(&g, &Pattern::new(), &Vec::new(), 1, None).unwrap();
        assert_eq!(table.len(), 0);
        assert!(table.is_empty());
        assert!(table.to_bindings().is_empty());
    }

    #[test]
    fn table_round_trips_to_bindings() {
        let g = community();
        let mut p = Pattern::new();
        let x = p.node(PatternNode::var("x").with_label("company"));
        let y = p.node(PatternNode::var("y"));
        p.edge(x, y, Some("knows")).unwrap();
        let table = match_pattern_auto(&g, &p, None).unwrap();
        assert_eq!(table.vars(), &["x".to_owned(), "y".to_owned()]);
        let bindings = table.to_bindings();
        assert_eq!(bindings.len(), table.len());
        for (row, b) in table.rows().zip(&bindings) {
            assert_eq!(b["x"], row[0]);
            assert_eq!(b["y"], row[1]);
        }
    }

    /// A view whose index lies: `candidate_estimate` claims coverage
    /// and `candidates` hands back a dangling node id — the corrupt
    /// secondary index the degradation ladder must survive.
    struct LyingIndex(PropertyGraph);

    impl gdm_core::GraphView for LyingIndex {
        fn is_directed(&self) -> bool {
            self.0.is_directed()
        }
        fn node_count(&self) -> usize {
            self.0.node_count()
        }
        fn edge_count(&self) -> usize {
            self.0.edge_count()
        }
        fn contains_node(&self, n: NodeId) -> bool {
            self.0.contains_node(n)
        }
        fn visit_nodes(&self, f: &mut dyn FnMut(NodeId)) {
            self.0.visit_nodes(f)
        }
        fn visit_out_edges(&self, n: NodeId, f: &mut dyn FnMut(gdm_core::EdgeRef)) {
            self.0.visit_out_edges(n, f)
        }
        fn visit_in_edges(&self, n: NodeId, f: &mut dyn FnMut(gdm_core::EdgeRef)) {
            self.0.visit_in_edges(n, f)
        }
        fn label_text(&self, sym: Symbol) -> Option<&str> {
            self.0.label_text(sym)
        }
    }

    impl AttributedView for LyingIndex {
        fn node_label(&self, n: NodeId) -> Option<Symbol> {
            self.0.node_label(n)
        }
        fn node_property(&self, n: NodeId, key: &str) -> Option<gdm_core::Value> {
            self.0.node_property(n, key)
        }
        fn edge_property(&self, e: gdm_core::EdgeId, key: &str) -> Option<gdm_core::Value> {
            self.0.edge_property(e, key)
        }
        fn candidates(
            &self,
            _label: Option<&str>,
            _props: &[(String, gdm_core::Value)],
        ) -> Vec<NodeId> {
            vec![NodeId(u64::MAX)] // stale entry for a node that never existed
        }
        fn candidate_estimate(
            &self,
            _label: Option<&str>,
            _props: &[(String, gdm_core::Value)],
        ) -> Option<usize> {
            Some(1)
        }
    }

    #[test]
    fn inconsistent_index_falls_back_to_reference_matcher() {
        let g = LyingIndex(community());
        let p = chain_pattern();
        let domains = auto_domains(&g, &p);
        assert!(!domains_consistent(&g, &domains));
        // Trusting the lying index would return zero matches; the
        // fallback answers from the reference scan instead.
        let via_auto = match_pattern_auto(&g, &p, None).unwrap();
        let reference = match_pattern(&g.0, &p);
        assert!(!reference.is_empty());
        assert_eq!(canonical(&via_auto.to_bindings()), canonical(&reference));
    }

    #[test]
    fn governed_planned_interrupts_on_tiny_budget() {
        let g = community();
        let p = chain_pattern();
        let guard = gdm_govern::ExecutionGuard::new(gdm_govern::Limits::none().with_node_visits(1));
        let err = match_pattern_auto(&g, &p, Some(&guard)).unwrap_err();
        assert!(err.is_interrupted());
    }

    #[test]
    fn governed_unlimited_equals_ungoverned() {
        let g = community();
        let p = chain_pattern();
        let guard = gdm_govern::ExecutionGuard::unlimited();
        let governed = match_pattern_auto(&g, &p, Some(&guard)).unwrap();
        let plain = match_pattern_auto(&g, &p, None).unwrap();
        assert_eq!(
            canonical(&governed.to_bindings()),
            canonical(&plain.to_bindings())
        );
    }

    #[test]
    fn loose_numeric_property_constraints_match() {
        let mut g = PropertyGraph::new();
        let a = g.add_node("n", props! { "v" => 3 });
        let b = g.add_node("n", props! { "v" => 3.0 });
        g.add_node("n", props! { "v" => 4 });
        let mut p = Pattern::new();
        p.node(PatternNode::var("x").with_prop("v", 3.0));
        let planned = match_pattern_auto(&g, &p, None).unwrap();
        let unplanned = match_pattern(&g, &p);
        assert_eq!(canonical(&planned.to_bindings()), canonical(&unplanned));
        assert_eq!(planned.len(), 2);
        let bound: Vec<NodeId> = planned.rows().map(|r| r[0]).collect();
        assert!(bound.contains(&a) && bound.contains(&b));
    }
}
