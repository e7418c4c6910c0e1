//! Cost-based planning for the shared logical algebra.
//!
//! Every dialect lowers to the same [`SelectQuery`], so one planner
//! speeds all of them up. Planning happens in two moves:
//!
//! 1. **Predicate pushdown.** The WHERE clause is split into its
//!    top-level AND conjuncts; every conjunct of the form
//!    `var.key = literal` (either operand order) becomes a property
//!    constraint on that pattern variable, and `var.label = "text"`
//!    becomes a label constraint. What cannot be pushed stays behind
//!    as the residual filter. `NULL` literals are never pushed: in a
//!    filter a missing property compares as `NULL = NULL` (true),
//!    while a pattern constraint requires the property to exist —
//!    pushing would change results.
//! 2. **Access selection + ordering.** For each pattern variable the
//!    view's [`AttributedView::candidate_estimate`] reports whether an
//!    index can bound its candidates; if so the variable is seeded
//!    from [`AttributedView::candidates`] (index access), otherwise it
//!    scans. [`gdm_algo::planned_order`] then eliminates variables
//!    smallest estimated domain first, connectivity as the tiebreak.
//!
//! The chosen plan is recorded as an [`ExplainPlan`] whose
//! [`ExplainPlan::render`]/[`ExplainPlan::parse`] round-trip gives
//! engines a machine-checkable `EXPLAIN` output.

use crate::ast::{BinOp, Expr, SelectQuery};
use crate::eval::{finish_select, ResultSet};
use gdm_algo::planned::{domain_estimates, execute_pattern, planned_order, Domains};
use gdm_algo::Pattern;
use gdm_core::{AttributedView, GdmError, Result, Value};

/// How a pattern variable's candidate set is produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Seeded from a label/property index lookup.
    Index,
    /// Full scan (or neighbor expansion from an already-bound
    /// variable at match time).
    Scan,
}

impl Access {
    fn as_str(self) -> &'static str {
        match self {
            Access::Index => "index",
            Access::Scan => "scan",
        }
    }
}

/// One variable's slot in the elimination order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// The pattern variable.
    pub var: String,
    /// Index seeding vs scanning.
    pub access: Access,
    /// Estimated candidate count (index cardinality, or the graph's
    /// node count for scans).
    pub estimate: usize,
    /// Number of property constraints on the variable after pushdown.
    pub props: usize,
    /// Number of range predicates (`<`, `<=`, `>`, `>=`) on the
    /// variable seeded from an ordered index. The predicates stay in
    /// the residual filter for exactness; this counts how many also
    /// narrowed the candidate domain.
    pub ranges: usize,
    /// Label constraint after pushdown, if any.
    pub label: Option<String>,
}

/// The recorded plan: what was pushed down and how each variable is
/// accessed, in elimination order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainPlan {
    /// Number of pattern variables.
    pub nodes: usize,
    /// WHERE conjuncts pushed into the pattern.
    pub pushed: usize,
    /// WHERE conjuncts left in the residual filter.
    pub residual: usize,
    /// True when the planner selected the vectorized batch executor
    /// (the view exposes a CSR batch backend — a frozen serving
    /// snapshot). Row-at-a-time views leave this false.
    pub vectorized: bool,
    /// Worker threads the morsel-driven parallel executor will use for
    /// this plan. `1` means sequential execution (row-at-a-time views,
    /// single-core hosts, or an explicit single-worker override);
    /// recorded at plan time so a cached plan executes the same way on
    /// every reuse.
    pub parallel_workers: usize,
    /// Variables in the order the matcher binds them.
    pub steps: Vec<PlanStep>,
}

impl ExplainPlan {
    /// Renders the plan as line-oriented text that [`Self::parse`]
    /// reads back. Labels containing whitespace are not supported by
    /// the text form.
    pub fn render(&self) -> String {
        let mut out = format!(
            "plan nodes={} pushed={} residual={}",
            self.nodes, self.pushed, self.residual
        );
        // Only emitted when the batch executor was selected, so plans
        // for row-at-a-time views render byte-identically to the
        // pre-vectorized text form (older parsers keep working).
        if self.vectorized {
            out.push_str(" vectorized=true");
        }
        // Only emitted when the parallel executor was selected, so
        // sequential plans render byte-identically to the pre-parallel
        // text form (older parsers keep working).
        if self.parallel_workers > 1 {
            out.push_str(&format!(" parallel_workers={}", self.parallel_workers));
        }
        out.push('\n');
        for s in &self.steps {
            out.push_str(&format!(
                "step var={} access={} estimate={} props={}",
                s.var,
                s.access.as_str(),
                s.estimate,
                s.props
            ));
            // Only emitted when a range predicate was seeded, so plans
            // without range pushdown render byte-identically to the
            // pre-range text form (older parsers keep working).
            if s.ranges > 0 {
                out.push_str(&format!(" ranges={}", s.ranges));
            }
            if let Some(label) = &s.label {
                out.push_str(&format!(" label={label}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses [`Self::render`]'s output back into a plan.
    pub fn parse(text: &str) -> Result<Self> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let head = lines
            .next()
            .ok_or_else(|| invalid("empty explain text".to_owned()))?;
        let mut toks = head.split_whitespace();
        if toks.next() != Some("plan") {
            return Err(invalid(format!(
                "explain header must start with `plan`: {head:?}"
            )));
        }
        let (mut nodes, mut pushed, mut residual) = (None, None, None);
        let mut vectorized = false;
        let mut parallel_workers = 1usize;
        for tok in toks {
            let (k, v) = split_kv(tok)?;
            if k == "vectorized" {
                vectorized = match v {
                    "true" => true,
                    "false" => false,
                    other => {
                        return Err(invalid(format!("vectorized must be a bool, got {other:?}")))
                    }
                };
                continue;
            }
            let v = parse_count(k, v)?;
            match k {
                "nodes" => nodes = Some(v),
                "pushed" => pushed = Some(v),
                "residual" => residual = Some(v),
                // Absent in pre-parallel plan text: defaults to 1.
                "parallel_workers" => parallel_workers = v.max(1),
                other => return Err(invalid(format!("unknown plan field {other:?}"))),
            }
        }
        let mut steps = Vec::new();
        for line in lines {
            let mut toks = line.split_whitespace();
            if toks.next() != Some("step") {
                return Err(invalid(format!("expected `step` line, got {line:?}")));
            }
            let (mut var, mut access, mut estimate, mut props, mut ranges, mut label) =
                (None, None, None, None, None, None);
            for tok in toks {
                let (k, v) = split_kv(tok)?;
                match k {
                    "var" => var = Some(v.to_owned()),
                    "access" => {
                        access = Some(match v {
                            "index" => Access::Index,
                            "scan" => Access::Scan,
                            other => return Err(invalid(format!("unknown access kind {other:?}"))),
                        });
                    }
                    "estimate" => estimate = Some(parse_count(k, v)?),
                    "props" => props = Some(parse_count(k, v)?),
                    "ranges" => ranges = Some(parse_count(k, v)?),
                    "label" => label = Some(v.to_owned()),
                    other => return Err(invalid(format!("unknown step field {other:?}"))),
                }
            }
            steps.push(PlanStep {
                var: var.ok_or_else(|| invalid("step missing var".to_owned()))?,
                access: access.ok_or_else(|| invalid("step missing access".to_owned()))?,
                estimate: estimate.ok_or_else(|| invalid("step missing estimate".to_owned()))?,
                props: props.ok_or_else(|| invalid("step missing props".to_owned()))?,
                // Absent in pre-range plan text: default to zero.
                ranges: ranges.unwrap_or(0),
                label,
            });
        }
        Ok(Self {
            nodes: nodes.ok_or_else(|| invalid("plan missing nodes".to_owned()))?,
            pushed: pushed.ok_or_else(|| invalid("plan missing pushed".to_owned()))?,
            residual: residual.ok_or_else(|| invalid("plan missing residual".to_owned()))?,
            vectorized,
            parallel_workers,
            steps,
        })
    }
}

fn invalid(msg: String) -> GdmError {
    GdmError::InvalidArgument(msg)
}

fn split_kv(tok: &str) -> Result<(&str, &str)> {
    tok.split_once('=')
        .ok_or_else(|| invalid(format!("expected key=value, got {tok:?}")))
}

fn parse_count(key: &str, v: &str) -> Result<usize> {
    v.parse()
        .map_err(|_| invalid(format!("{key} must be an integer, got {v:?}")))
}

/// A query rewritten for execution: pushed-down pattern, per-variable
/// candidate domains, and the recorded plan.
#[derive(Debug, Clone)]
pub struct PlannedSelect {
    /// The rewritten query (constraints pushed into the pattern, the
    /// residual left as the filter).
    pub query: SelectQuery,
    /// Per-variable candidate domains, aligned with the rewritten
    /// pattern's nodes.
    pub domains: Domains,
    /// The recorded plan.
    pub explain: ExplainPlan,
}

/// Plans `query` against `g`: validates, pushes equality predicates
/// into the pattern, seeds index-coverable variables with candidate
/// domains, and records the elimination order.
pub fn plan_select<G: AttributedView + ?Sized>(
    g: &G,
    query: &SelectQuery,
) -> Result<PlannedSelect> {
    query.validate()?;
    let mut query = query.clone();
    let mut pushed = 0usize;
    let mut residual = Vec::new();
    if let Some(filter) = query.filter.take() {
        for c in conjuncts(filter) {
            if push_conjunct(&mut query.pattern, &c) {
                pushed += 1;
            } else {
                residual.push(c);
            }
        }
    }
    let residual_count = residual.len();
    let mut domains = index_domains(g, &query.pattern);
    let mut range_counts = vec![0usize; query.pattern.nodes.len()];
    // Edge-range pushdown: a pattern edge carrying range constraints
    // (`Pattern::edge_range`) narrows *both* endpoint variables to the
    // endpoints of index-qualifying edges, through the view's ordered
    // edge indexes. The constraint stays on the edge — the matcher
    // re-applies it exactly — so over-approximating index bounds
    // (inclusive, number-family loose) never change results.
    for e in &query.pattern.edges {
        seed_edge_range_domains(g, e, &mut domains, &mut range_counts);
    }
    // Range-predicate pushdown: residual conjuncts of the form
    // `var.key < literal` (any of <, <=, >, >=, either operand order)
    // seed the variable's candidate domain from the view's ordered
    // index. The conjunct *stays* in the residual — index range bounds
    // are inclusive and number-family loose, so the exact filter
    // re-check keeps the result set identical — which also keeps the
    // degradation-ladder fallback (domains discarded, reference
    // matcher) correct with no special casing.
    for c in &residual {
        seed_range_domain(g, &query.pattern, c, &mut domains, &mut range_counts);
    }
    query.filter = residual
        .into_iter()
        .reduce(|a, b| Expr::bin(BinOp::And, a, b));

    let estimates = domain_estimates(g, &query.pattern, &domains);
    let order = planned_order(&query.pattern, &estimates);
    let steps = order
        .iter()
        .map(|&i| {
            let pn = &query.pattern.nodes[i];
            PlanStep {
                var: pn.var.clone(),
                access: if domains[i].is_some() {
                    Access::Index
                } else {
                    Access::Scan
                },
                estimate: estimates[i],
                props: pn.props.len(),
                ranges: range_counts[i],
                label: pn.label.clone(),
            }
        })
        .collect();
    let vectorized = batch_snapshot(g).is_some();
    let explain = ExplainPlan {
        nodes: query.pattern.nodes.len(),
        pushed,
        residual: residual_count,
        vectorized,
        // Parallel execution needs the batch pipeline (only frozen
        // inputs are morsel-splittable) and more than one worker in
        // the pool. Recorded at plan time: plan-cache hits execute
        // with the workers the plan was made for.
        parallel_workers: if vectorized {
            gdm_algo::executor_workers().max(1)
        } else {
            1
        },
        steps,
    };
    Ok(PlannedSelect {
        query,
        domains,
        explain,
    })
}

/// Plans and executes `query`, returning the rows (identical to
/// [`crate::eval::evaluate_select_unplanned`]'s) plus the plan.
pub fn evaluate_select_planned<G: AttributedView + ?Sized>(
    g: &G,
    query: &SelectQuery,
) -> Result<(ResultSet, ExplainPlan)> {
    let planned = plan_select(g, query)?;
    let table = execute_pattern(
        g,
        &planned.query.pattern,
        &planned.domains,
        planned.explain.parallel_workers,
        None,
    )?;
    let rs = finish_select(g, &planned.query, table.to_bindings())?;
    Ok((rs, planned.explain))
}

/// Executes an already-planned query under an
/// [`gdm_govern::ExecutionGuard`] — the entry point for plan-cache
/// consumers (a query server) that plan once and execute many times
/// against an immutable snapshot.
///
/// The same degradation ladder as [`evaluate_select_planned`] applies
/// ([`gdm_algo::execute_pattern`]): the cached domains are re-probed
/// against `g` and, if any candidate id dangles (the plan was made
/// against a different or since-mutated graph), discarded in favour of
/// the governed reference matcher — slower, never wrong. Frozen
/// snapshots run with the workers the plan recorded. Rows are
/// identical to [`evaluate_select_planned`]'s when the guard does not
/// interrupt.
pub fn execute_planned_governed<G: AttributedView + ?Sized>(
    g: &G,
    planned: &PlannedSelect,
    guard: &gdm_govern::ExecutionGuard,
) -> Result<ResultSet> {
    let table = execute_pattern(
        g,
        &planned.query.pattern,
        &planned.domains,
        planned.explain.parallel_workers,
        Some(guard),
    )?;
    finish_select(g, &planned.query, table.to_bindings())
}

/// Candidate domains from the view's indexes: a constrained variable
/// whose constraints an index can bound gets its candidate list;
/// everything else stays unrestricted.
fn index_domains<G: AttributedView + ?Sized>(g: &G, pattern: &Pattern) -> Domains {
    gdm_algo::planned::auto_domains(g, pattern)
}

/// The CSR snapshot behind `g`, when `g` exposes one — the hook the
/// planner uses to select the vectorized batch executor.
fn batch_snapshot<G: AttributedView + ?Sized>(g: &G) -> Option<&gdm_algo::FrozenGraph> {
    g.batch_backend()?.downcast_ref::<gdm_algo::FrozenGraph>()
}

/// Narrows both endpoint variables of a range-constrained pattern edge
/// to the endpoints of edges an ordered edge index says qualify.
/// Direction decides which pair component feeds which variable; `Both`
/// takes the union of the components for each endpoint (loose but
/// complete — the matcher's exact re-check tightens).
fn seed_edge_range_domains<G: AttributedView + ?Sized>(
    g: &G,
    e: &gdm_algo::PatternEdge,
    domains: &mut Domains,
    counts: &mut [usize],
) {
    use gdm_core::Direction;
    for (key, low, high) in &e.ranges {
        let Some(pairs) = g.edge_range_candidates(key, low.as_ref(), high.as_ref()) else {
            continue; // no ordered edge index for this key
        };
        let (mut from_ids, mut to_ids): (Vec<_>, Vec<_>) = match e.direction {
            Direction::Outgoing => pairs.iter().map(|&(f, t)| (f, t)).unzip(),
            Direction::Incoming => pairs.iter().map(|&(f, t)| (t, f)).unzip(),
            Direction::Both => {
                let all: Vec<_> = pairs.iter().flat_map(|&(f, t)| [f, t]).collect();
                (all.clone(), all)
            }
        };
        for (var, ids) in [(e.from, &mut from_ids), (e.to, &mut to_ids)] {
            ids.sort_unstable_by_key(|n| n.raw());
            ids.dedup();
            counts[var] += 1;
            domains[var] = Some(match domains[var].take() {
                None => std::mem::take(ids),
                Some(prev) => intersect_sorted(&prev, ids),
            });
        }
    }
}

/// If `expr` is a range conjunct an ordered index can bound, narrows
/// the variable's domain to the index range (intersecting any domain
/// already seeded by equality pushdown) and bumps its range count.
fn seed_range_domain<G: AttributedView + ?Sized>(
    g: &G,
    pattern: &Pattern,
    expr: &Expr,
    domains: &mut Domains,
    counts: &mut [usize],
) {
    let Expr::Bin(op, lhs, rhs) = expr else {
        return;
    };
    // Normalize `literal OP var.key` to `var.key OP' literal`.
    let (var, key, value, op) = match (&**lhs, &**rhs) {
        (Expr::Prop(v, k), Expr::Lit(val)) => (v, k, val, *op),
        (Expr::Lit(val), Expr::Prop(v, k)) => {
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => *other,
            };
            (v, k, val, flipped)
        }
        _ => return,
    };
    let (low, high) = match op {
        BinOp::Lt | BinOp::Le => (None, Some(value)),
        BinOp::Gt | BinOp::Ge => (Some(value), None),
        _ => return,
    };
    // Comparisons with NULL are false for every binding, and the
    // pseudo-properties are computed at eval time — a stored property
    // that happens to share their name would not be what the filter
    // compares, so seeding from its index would drop valid rows.
    if matches!(value, Value::Null) || matches!(key.as_str(), "id" | "degree" | "label") {
        return;
    }
    let Some(i) = pattern.nodes.iter().position(|n| n.var == *var) else {
        return;
    };
    let Some(ids) = g.range_candidates(key, low, high) else {
        return;
    };
    counts[i] += 1;
    domains[i] = Some(match domains[i].take() {
        None => ids,
        // Both lists ascend by id (the `AttributedView` contract), so
        // a between-shaped conjunct pair intersects in one merge pass.
        Some(prev) => intersect_sorted(&prev, &ids),
    });
}

fn intersect_sorted(a: &[gdm_core::NodeId], b: &[gdm_core::NodeId]) -> Vec<gdm_core::NodeId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].raw().cmp(&b[j].raw()) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Splits `expr` into its top-level AND conjuncts.
fn conjuncts(expr: Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    split_and(expr, &mut out);
    out
}

fn split_and(expr: Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Bin(BinOp::And, lhs, rhs) => {
            split_and(*lhs, out);
            split_and(*rhs, out);
        }
        other => out.push(other),
    }
}

/// Tries to turn one conjunct into a pattern constraint. Returns true
/// when the conjunct was absorbed and must leave the filter.
fn push_conjunct(pattern: &mut Pattern, expr: &Expr) -> bool {
    let Expr::Bin(BinOp::Eq, lhs, rhs) = expr else {
        return false;
    };
    let (var, key, value) = match (&**lhs, &**rhs) {
        (Expr::Prop(v, k), Expr::Lit(val)) | (Expr::Lit(val), Expr::Prop(v, k)) => (v, k, val),
        _ => return false,
    };
    // `NULL = missing-property` is true in a filter but unmatchable as
    // a pattern constraint; keep NULL comparisons in the residual.
    if matches!(value, Value::Null) {
        return false;
    }
    let Some(pn) = pattern.nodes.iter_mut().find(|n| n.var == *var) else {
        return false;
    };
    match key.as_str() {
        // Pseudo-properties computed at eval time; nothing stored to
        // constrain on.
        "id" | "degree" => false,
        // The label pseudo-property maps onto the pattern's label slot
        // when it is free (an already-labelled variable keeps the
        // conjunct in the residual — if the labels differ the filter
        // correctly empties the result).
        "label" => match (&pn.label, value) {
            (None, Value::Str(want)) => {
                pn.label = Some(want.clone());
                true
            }
            _ => false,
        },
        _ => {
            pn.props.push((key.clone(), value.clone()));
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Projection;
    use crate::eval::evaluate_select_unplanned;
    use gdm_algo::PatternNode;
    use gdm_core::props;
    use gdm_graphs::PropertyGraph;

    fn social() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        let ada = g.add_node("person", props! { "name" => "ada", "age" => 36 });
        let bob = g.add_node("person", props! { "name" => "bob", "age" => 25 });
        let cleo = g.add_node("person", props! { "name" => "cleo", "age" => 41 });
        let acme = g.add_node("company", props! { "name" => "acme" });
        g.add_edge(ada, bob, "knows", props! {}).unwrap();
        g.add_edge(bob, cleo, "knows", props! {}).unwrap();
        g.add_edge(ada, acme, "works_at", props! {}).unwrap();
        g
    }

    fn name_query(filter: Option<Expr>) -> SelectQuery {
        let mut q = SelectQuery::default();
        q.pattern.node(PatternNode::var("p").with_label("person"));
        q.projections.push(Projection::Expr {
            name: "name".into(),
            expr: Expr::Prop("p".into(), "name".into()),
        });
        q.filter = filter;
        q
    }

    #[test]
    fn equality_predicates_are_pushed() {
        let g = social();
        let q = name_query(Some(Expr::bin(
            BinOp::And,
            Expr::bin(
                BinOp::Eq,
                Expr::Prop("p".into(), "age".into()),
                Expr::Lit(Value::from(36)),
            ),
            Expr::bin(
                BinOp::Gt,
                Expr::Prop("p".into(), "age".into()),
                Expr::Lit(Value::from(0)),
            ),
        )));
        let planned = plan_select(&g, &q).unwrap();
        assert_eq!(planned.explain.pushed, 1);
        assert_eq!(planned.explain.residual, 1);
        assert!(planned.query.filter.is_some(), "residual survives");
        assert_eq!(planned.query.pattern.nodes[0].props.len(), 1);
        let (rs, _) = evaluate_select_planned(&g, &q).unwrap();
        assert_eq!(rs, evaluate_select_unplanned(&g, &q).unwrap());
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], Value::from("ada"));
    }

    #[test]
    fn reversed_operands_and_label_pseudo_prop_push() {
        let g = social();
        let mut q = SelectQuery::default();
        q.pattern.node(PatternNode::var("p"));
        q.projections.push(Projection::Expr {
            name: "id".into(),
            expr: Expr::Prop("p".into(), "id".into()),
        });
        q.filter = Some(Expr::bin(
            BinOp::Eq,
            Expr::Lit(Value::from("company")),
            Expr::Prop("p".into(), "label".into()),
        ));
        let planned = plan_select(&g, &q).unwrap();
        assert_eq!(planned.explain.pushed, 1);
        assert_eq!(planned.explain.residual, 0);
        assert_eq!(
            planned.query.pattern.nodes[0].label.as_deref(),
            Some("company")
        );
        assert!(planned.query.filter.is_none());
        let (rs, _) = evaluate_select_planned(&g, &q).unwrap();
        assert_eq!(rs, evaluate_select_unplanned(&g, &q).unwrap());
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn null_and_pseudo_predicates_stay_in_residual() {
        let g = social();
        let q = name_query(Some(Expr::bin(
            BinOp::And,
            Expr::bin(
                BinOp::Eq,
                Expr::Prop("p".into(), "salary".into()),
                Expr::Lit(Value::Null),
            ),
            Expr::bin(
                BinOp::Eq,
                Expr::Prop("p".into(), "degree".into()),
                Expr::Lit(Value::from(2)),
            ),
        )));
        let planned = plan_select(&g, &q).unwrap();
        assert_eq!(planned.explain.pushed, 0);
        assert_eq!(planned.explain.residual, 2);
        // The NULL conjunct is true for every person (no salary
        // property), so only the degree filter bites — and unplanned
        // agrees.
        let (rs, _) = evaluate_select_planned(&g, &q).unwrap();
        assert_eq!(rs, evaluate_select_unplanned(&g, &q).unwrap());
        assert_eq!(rs.len(), 2); // ada (degree 2) and bob (degree 2)
    }

    #[test]
    fn plan_uses_property_indexes_on_property_graphs() {
        let g = social();
        let q = name_query(Some(Expr::bin(
            BinOp::Eq,
            Expr::Prop("p".into(), "name".into()),
            Expr::Lit(Value::from("bob")),
        )));
        let planned = plan_select(&g, &q).unwrap();
        assert_eq!(planned.explain.steps.len(), 1);
        let step = &planned.explain.steps[0];
        assert_eq!(step.access, Access::Index);
        assert_eq!(step.props, 1);
        assert_eq!(step.label.as_deref(), Some("person"));
        assert!(step.estimate <= 1, "name index is near-unique");
        assert_eq!(
            planned.domains[0].as_ref().map(Vec::len),
            Some(step.estimate.min(1))
        );
    }

    #[test]
    fn explain_render_parse_round_trips() {
        let g = social();
        let mut q = SelectQuery::default();
        let a = q.pattern.node(PatternNode::var("a").with_label("person"));
        let b = q.pattern.node(PatternNode::var("b"));
        q.pattern.edge(a, b, Some("knows")).unwrap();
        q.projections.push(Projection::Expr {
            name: "x".into(),
            expr: Expr::Var("a".into()),
        });
        q.filter = Some(Expr::bin(
            BinOp::Eq,
            Expr::Prop("a".into(), "name".into()),
            Expr::Lit(Value::from("ada")),
        ));
        let planned = plan_select(&g, &q).unwrap();
        let text = planned.explain.render();
        assert!(text.starts_with("plan nodes=2 pushed=1 residual=0"));
        let back = ExplainPlan::parse(&text).unwrap();
        assert_eq!(back, planned.explain);
    }

    #[test]
    fn explain_parse_rejects_garbage() {
        assert!(ExplainPlan::parse("").is_err());
        assert!(ExplainPlan::parse("nope nodes=1").is_err());
        assert!(ExplainPlan::parse("plan nodes=x pushed=0 residual=0").is_err());
        assert!(ExplainPlan::parse("plan nodes=0 pushed=0 residual=0\nstep var=a").is_err());
    }

    #[test]
    fn frozen_snapshot_plans_select_the_vectorized_backend() {
        let g = social();
        let fz = gdm_algo::FrozenGraph::freeze_attributed(&g);
        let q = name_query(Some(Expr::bin(
            BinOp::Eq,
            Expr::Prop("p".into(), "name".into()),
            Expr::Lit(Value::from("bob")),
        )));
        // Live graph: row-at-a-time; no flag, byte-identical old text.
        let live = plan_select(&g, &q).unwrap();
        assert!(!live.explain.vectorized);
        assert!(!live.explain.render().contains("vectorized"));
        // Snapshot: the batch backend is selected and recorded.
        let frozen = plan_select(&fz, &q).unwrap();
        assert!(frozen.explain.vectorized);
        assert!(frozen
            .explain
            .render()
            .starts_with("plan nodes=1 pushed=1 residual=0 vectorized=true"));
        let back = ExplainPlan::parse(&frozen.explain.render()).unwrap();
        assert_eq!(back, frozen.explain);
        // Both backends return identical rows.
        let (rows_live, _) = evaluate_select_planned(&g, &q).unwrap();
        let (rows_frozen, _) = evaluate_select_planned(&fz, &q).unwrap();
        assert_eq!(rows_live, rows_frozen);
        assert_eq!(rows_frozen.len(), 1);
    }

    #[test]
    fn parallel_workers_render_parse_and_routing() {
        let g = social();
        let q = name_query(None);
        // Row-at-a-time views always plan sequential, and sequential
        // plans render byte-identically to the pre-parallel text form.
        let live = plan_select(&g, &q).unwrap();
        assert_eq!(live.explain.parallel_workers, 1);
        assert!(!live.explain.render().contains("parallel_workers"));
        // A multi-worker plan round-trips through the text form.
        let mut explain = live.explain.clone();
        explain.parallel_workers = 4;
        let text = explain.render();
        assert!(text.contains("parallel_workers=4"));
        assert_eq!(ExplainPlan::parse(&text).unwrap(), explain);
        // A frozen plan forced to multiple workers routes execution
        // through the morsel-driven executor — identical rows, both
        // ungoverned and governed.
        let fz = gdm_algo::FrozenGraph::freeze_attributed(&g);
        let mut planned = plan_select(&fz, &q).unwrap();
        let guard = gdm_govern::ExecutionGuard::unlimited();
        let seq = execute_planned_governed(&fz, &planned, &guard).unwrap();
        planned.explain.parallel_workers = 2;
        let guard = gdm_govern::ExecutionGuard::unlimited();
        let par = execute_planned_governed(&fz, &planned, &guard).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn edge_ranges_seed_endpoint_domains() {
        let mut g = PropertyGraph::new();
        let mut people = Vec::new();
        for i in 0..10i64 {
            people.push(g.add_node("person", props! { "i" => i }));
        }
        for i in 0..10usize {
            let j = (i + 1) % 10;
            g.add_edge(
                people[i],
                people[j],
                "knows",
                props! { "since" => 2000 + i as i64 },
            )
            .unwrap();
        }
        let mut q = SelectQuery::default();
        let a = q.pattern.node(PatternNode::var("a"));
        let b = q.pattern.node(PatternNode::var("b"));
        q.pattern.edge(a, b, Some("knows")).unwrap();
        q.pattern
            .edge_range("since", Some(Value::from(2003)), Some(Value::from(2005)))
            .unwrap();
        q.projections.push(Projection::Expr {
            name: "i".into(),
            expr: Expr::Prop("a".into(), "i".into()),
        });
        let planned = plan_select(&g, &q).unwrap();
        // Both endpoints narrowed from the edge index: 3 qualifying
        // edges → at most 3 candidates per endpoint, counted as range
        // seeding on both steps.
        for step in &planned.explain.steps {
            assert_eq!(step.ranges, 1, "step {}", step.var);
            assert_eq!(step.access, Access::Index, "step {}", step.var);
            assert!(step.estimate <= 3, "step {}: {}", step.var, step.estimate);
        }
        let (rs, _) = evaluate_select_planned(&g, &q).unwrap();
        assert_eq!(rs.len(), 3);
        // The frozen snapshot answers identically through its own
        // freeze-time edge-range index plus the vectorized executor.
        let fz = gdm_algo::FrozenGraph::freeze_attributed(&g);
        let (rs_fz, explain_fz) = evaluate_select_planned(&fz, &q).unwrap();
        assert!(explain_fz.vectorized);
        assert_eq!(rs_fz.len(), 3);
    }

    #[test]
    fn planned_join_matches_unplanned() {
        let g = social();
        let mut q = SelectQuery::default();
        let a = q.pattern.node(PatternNode::var("a"));
        let b = q.pattern.node(PatternNode::var("b"));
        q.pattern.edge(a, b, Some("knows")).unwrap();
        q.projections.push(Projection::Expr {
            name: "to".into(),
            expr: Expr::Prop("b".into(), "name".into()),
        });
        q.filter = Some(Expr::bin(
            BinOp::Eq,
            Expr::Prop("a".into(), "label".into()),
            Expr::Lit(Value::from("person")),
        ));
        let (rs, explain) = evaluate_select_planned(&g, &q).unwrap();
        assert_eq!(rs, evaluate_select_unplanned(&g, &q).unwrap());
        assert_eq!(explain.nodes, 2);
        assert_eq!(explain.steps.len(), 2);
    }
}
