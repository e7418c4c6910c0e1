//! Property suite for the cost-based pattern planner.
//!
//! Two invariants hold the planner together:
//!
//! 1. **Planned ≡ unplanned.** On any graph and any pattern/query, the
//!    planned matcher (index-seeded domains, selectivity ordering) and
//!    the shared-algebra planner (predicate pushdown) must produce the
//!    same bindings/rows as the unplanned reference path — same sets,
//!    any order (result rows are compared after the deterministic
//!    sort both paths share).
//! 2. **Maintained ≡ rebuilt.** `PropertyGraph`'s auto-maintained
//!    per-key value indexes, after an arbitrary insert/remove/update
//!    sequence, must answer exactly like an index rebuilt from scratch
//!    over the surviving nodes — and both must agree with a raw scan.

use graph_db_models::algo::parallel::force_fanout;
use graph_db_models::algo::pattern::{canonical, match_pattern, Pattern, PatternNode};
use graph_db_models::algo::planned::{auto_domains, execute_pattern, match_pattern_auto};
use graph_db_models::algo::FrozenGraph;
use graph_db_models::core::{props, AttributedView, GraphView, NodeId, Value};
use graph_db_models::graphs::PropertyGraph;
use graph_db_models::query::eval::{evaluate_select, evaluate_select_unplanned};
use graph_db_models::query::plan::{evaluate_select_planned, ExplainPlan};
use graph_db_models::query::{BinOp, Expr, Projection, SelectQuery};
use graph_db_models::storage::{BTreeIndex, ValueIndex};
use proptest::prelude::*;

const LABELS: [&str; 3] = ["person", "place", "thing"];
const COLORS: [&str; 2] = ["red", "blue"];
const EDGE_LABELS: [&str; 3] = ["a", "b", "c"];

type NodeSpec = (u8, i64, bool, u8);
type EdgeSpec = (usize, usize, u8, i64, bool);

/// A random attributed graph: every node gets a label, an Int-or-Float
/// `k` (both families, so loose equality matters), and a `c` color;
/// every edge gets an Int-or-Float `w`, so range predicates over edge
/// properties have something to bite on.
fn graph_strategy() -> impl Strategy<Value = (PropertyGraph, Vec<NodeId>)> {
    (
        prop::collection::vec((0u8..3, 0i64..4, prop::bool::ANY, 0u8..2), 2..12),
        prop::collection::vec(
            (0usize..12, 0usize..12, 0u8..3, 0i64..5, prop::bool::ANY),
            0..24,
        ),
    )
        .prop_map(|(specs, edges): (Vec<NodeSpec>, Vec<EdgeSpec>)| {
            let mut g = PropertyGraph::new();
            let nodes: Vec<NodeId> = specs
                .iter()
                .map(|&(l, k, float, c)| {
                    let k = if float {
                        Value::Float(k as f64)
                    } else {
                        Value::Int(k)
                    };
                    g.add_node(
                        LABELS[l as usize],
                        props! { "k" => k, "c" => COLORS[c as usize] },
                    )
                })
                .collect();
            for (a, b, l, w, float) in edges {
                let n = nodes.len();
                let w = if float {
                    Value::Float(w as f64)
                } else {
                    Value::Int(w)
                };
                g.add_edge(
                    nodes[a % n],
                    nodes[b % n],
                    EDGE_LABELS[l as usize],
                    props! { "w" => w },
                )
                .expect("endpoints exist");
            }
            (g, nodes)
        })
}

type VarSpec = (u8, u8);
type PatternEdgeSpec = ((usize, usize, u8, bool), (u8, i64, i64));

/// Builds a pattern from raw spec data: per-variable optional label
/// (including one no node carries) and optional property constraint
/// (Int, loose-equal Float, or string), plus arbitrary edges —
/// self-loops and parallel constraints included. Edges optionally
/// carry a range predicate over `w` (half-open, closed, empty, and
/// cross-family Int/Float bounds all reachable).
fn build_pattern(vars: &[VarSpec], edges: &[PatternEdgeSpec]) -> Pattern {
    let mut p = Pattern::new();
    for (i, &(l, c)) in vars.iter().enumerate() {
        let mut pn = PatternNode::var(format!("v{i}"));
        pn = match l {
            0 | 1 => pn,
            2 => pn.with_label("person"),
            3 => pn.with_label("place"),
            _ => pn.with_label("zzz"),
        };
        pn = match c {
            0..=2 => pn,
            3 => pn.with_prop("k", 2),
            4 => pn.with_prop("k", 2.0),
            _ => pn.with_prop("c", "red"),
        };
        p.node(pn);
    }
    for &((f, t, l, undirected), (range, lo, hi)) in edges {
        let (f, t) = (f % vars.len(), t % vars.len());
        let label = match l {
            0 => None,
            1 => Some("a"),
            2 => Some("b"),
            _ => Some("zz"),
        };
        if undirected {
            p.edge_undirected(f, t, label).expect("vars exist");
        } else {
            p.edge(f, t, label).expect("vars exist");
        }
        match range {
            0..=2 => {} // no range predicate
            3 => p
                .edge_range("w", Some(Value::Int(lo)), None)
                .expect("edge exists"),
            4 => p
                .edge_range("w", None, Some(Value::Float(hi as f64)))
                .expect("edge exists"),
            _ => p
                .edge_range("w", Some(Value::Int(lo)), Some(Value::Int(hi)))
                .expect("edge exists"),
        }
    }
    p
}

fn pattern_strategy() -> impl Strategy<Value = (Vec<VarSpec>, Vec<PatternEdgeSpec>)> {
    (
        prop::collection::vec((0u8..6, 0u8..6), 1..4),
        prop::collection::vec(
            (
                (0usize..4, 0usize..4, 0u8..4, prop::bool::ANY),
                (0u8..6, 0i64..5, 0i64..5),
            ),
            0..4,
        ),
    )
}

proptest! {
    /// Invariant 1 at the matcher level: the single pattern entry point
    /// on the live graph (the row-at-a-time planned matcher, auto- and
    /// explicitly seeded) and on its CSR snapshot (the vectorized
    /// executor: auto-seeded, explicitly seeded, governed-with-no-limits,
    /// and across forced worker fan-outs) all reproduce the unplanned
    /// binding set.
    #[test]
    fn planned_matcher_equals_unplanned(
        (g, _) in graph_strategy(),
        (vars, edges) in pattern_strategy(),
    ) {
        let p = build_pattern(&vars, &edges);
        let reference = canonical(&match_pattern(&g, &p));

        let auto = match_pattern_auto(&g, &p, None).expect("ungoverned");
        prop_assert_eq!(canonical(&auto.to_bindings()), reference.clone());

        let domains = auto_domains(&g, &p);
        let planned = execute_pattern(&g, &p, &domains, 1, None).expect("ungoverned");
        prop_assert_eq!(canonical(&planned.to_bindings()), reference.clone());

        // Vectorized ≡ planned ≡ unplanned: the batch executor run
        // three ways — auto-seeded, with explicitly supplied domains
        // (seeded on the *snapshot*, so dense translation is covered),
        // and under an unlimited guard (per-batch governor ticks must
        // not change the result).
        let fz = FrozenGraph::freeze_attributed(&g);
        let vec_auto = match_pattern_auto(&fz, &p, None).expect("ungoverned");
        prop_assert_eq!(canonical(&vec_auto.to_bindings()), reference.clone());

        let fz_domains = auto_domains(&fz, &p);
        let vec_explicit = execute_pattern(&fz, &p, &fz_domains, 1, None).expect("ungoverned");
        prop_assert_eq!(canonical(&vec_explicit.to_bindings()), reference.clone());

        let guard = graph_db_models::govern::ExecutionGuard::unlimited();
        let vec_governed = execute_pattern(&fz, &p, &fz_domains, 1, Some(&guard))
            .expect("unlimited guard never interrupts");
        prop_assert_eq!(canonical(&vec_governed.to_bindings()), reference);

        // One worker ≡ N workers, and not just set-equal: the tables
        // must be *byte-identical* (same rows in the same order). The
        // forced fan-out skips the minimum-root-count threshold so these
        // tiny graphs really do split into per-worker morsels, even on
        // a single-core machine.
        force_fanout(true);
        for workers in [2, 3] {
            let par = execute_pattern(&fz, &p, &fz_domains, workers, None)
                .expect("ungoverned run never interrupts");
            prop_assert_eq!(&par, &vec_explicit);
        }
        force_fanout(false);
    }
}

type ConjunctSpec = (usize, u8, u8, i64);

/// Builds a WHERE conjunction over the pattern variables: a mix of
/// pushable equalities (stored props, the label pseudo-property) and
/// residual predicates (comparisons, NULL equality).
fn build_filter(vars: usize, conjuncts: &[ConjunctSpec]) -> Option<Expr> {
    conjuncts
        .iter()
        .map(|&(v, key, op, lit)| {
            let var = format!("v{}", v % vars);
            let (key, lit) = match key {
                0 => ("k", Value::Int(lit)),
                1 => ("k", Value::Float(lit as f64)),
                2 => (
                    "c",
                    Value::Str(COLORS[lit.unsigned_abs() as usize % 2].to_owned()),
                ),
                3 => (
                    "label",
                    Value::Str(LABELS[lit.unsigned_abs() as usize % 3].to_owned()),
                ),
                _ => ("k", Value::Null),
            };
            let prop = Expr::Prop(var, key.to_owned());
            match op {
                0 | 1 => Expr::bin(BinOp::Eq, prop, Expr::Lit(lit)),
                2 => Expr::bin(BinOp::Eq, Expr::Lit(lit), prop),
                // The full range-pushdown surface: every comparison
                // operator, both operand orders (a reversed literal
                // flips the effective bound direction).
                3 => Expr::bin(BinOp::Gt, prop, Expr::Lit(lit)),
                4 => Expr::bin(BinOp::Lt, prop, Expr::Lit(lit)),
                5 => Expr::bin(BinOp::Ge, prop, Expr::Lit(lit)),
                6 => Expr::bin(BinOp::Le, Expr::Lit(lit), prop),
                _ => Expr::bin(BinOp::Ne, prop, Expr::Lit(lit)),
            }
        })
        .reduce(|a, b| Expr::bin(BinOp::And, a, b))
}

proptest! {
    /// Invariant 1 at the query level: pushdown + planned matching
    /// returns byte-identical rows to the unplanned pipeline, and the
    /// recorded plan round-trips through its text form.
    #[test]
    fn planned_query_equals_unplanned(
        (g, _) in graph_strategy(),
        (vars, edges) in pattern_strategy(),
        conjuncts in prop::collection::vec((0usize..4, 0u8..5, 0u8..8, 0i64..4), 0..4),
    ) {
        let mut q = SelectQuery {
            pattern: build_pattern(&vars, &edges),
            ..SelectQuery::default()
        };
        for i in 0..vars.len() {
            q.projections.push(Projection::Expr {
                name: format!("v{i}"),
                expr: Expr::Var(format!("v{i}")),
            });
        }
        q.filter = build_filter(vars.len(), &conjuncts);

        let reference = evaluate_select_unplanned(&g, &q).expect("reference path evaluates");
        let (rows, explain) = evaluate_select_planned(&g, &q).expect("planned path evaluates");
        prop_assert_eq!(&rows, &reference);
        // The facade entry point is the planned path.
        prop_assert_eq!(&evaluate_select(&g, &q).expect("facade evaluates"), &reference);
        prop_assert!(!explain.vectorized, "live graphs have no batch backend");
        let parsed = ExplainPlan::parse(&explain.render()).expect("explain round-trips");
        prop_assert_eq!(parsed, explain);

        // On the CSR snapshot the planner picks the vectorized backend
        // — and the rows must not change.
        let fz = FrozenGraph::freeze_attributed(&g);
        let (fz_rows, fz_explain) =
            evaluate_select_planned(&fz, &q).expect("frozen planned path evaluates");
        prop_assert_eq!(&fz_rows, &reference);
        prop_assert!(fz_explain.vectorized, "snapshot queries run batch-at-a-time");
    }
}

/// Deterministic range-pushdown checks the property suite cannot pin
/// down: the plan must *say* it seeded from the ordered index, strict
/// bounds must stay exact despite the index's inclusive ranges, and a
/// between-shaped conjunct pair must intersect to one domain.
/// Boundary regression for the frozen executor: on the perf-report
/// workload (`x-knows->y-knows->z` over the seed-2012 social graph)
/// every size below overflows a 1024-row batch in the middle of a
/// source row's expansion, so the child depth runs while the parent
/// row is still open. The executor must return exactly the reference
/// binding set at 1 worker, and the same table byte for byte at 2 and
/// 4 workers (whose morsels split the root seeds).
#[test]
fn executor_agrees_with_reference_across_batch_overflow() {
    use graph_db_models::bench::workload::{social_graph, SocialParams};
    let mut p = Pattern::new();
    let x = p.node(PatternNode::var("x"));
    let y = p.node(PatternNode::var("y"));
    let z = p.node(PatternNode::var("z"));
    p.edge(x, y, Some("knows")).unwrap();
    p.edge(y, z, Some("knows")).unwrap();
    let sorted_rows = |rows: Vec<Vec<NodeId>>| {
        let mut rows = rows;
        rows.sort_unstable();
        rows
    };
    for people in [300, 1000, 3000] {
        let g = social_graph(SocialParams {
            people,
            communities: 10,
            intra_edges: 6,
            inter_edges: 2,
            seed: 2012,
        });
        let fz = FrozenGraph::freeze_attributed(&g);
        let reference = sorted_rows(
            match_pattern(&fz, &p)
                .iter()
                .map(|b| vec![b["x"], b["y"], b["z"]])
                .collect(),
        );
        let domains = auto_domains(&fz, &p);
        let one = execute_pattern(&fz, &p, &domains, 1, None).unwrap();
        assert!(
            sorted_rows(one.rows().map(<[NodeId]>::to_vec).collect()) == reference,
            "{people} people, 1 worker: {} rows, reference {}",
            one.len(),
            reference.len()
        );
        for workers in [2, 4] {
            let par = execute_pattern(&fz, &p, &domains, workers, None).unwrap();
            assert!(par == one, "{people} people, {workers} workers");
        }
    }
}

#[test]
fn range_predicates_seed_ordered_indexes() {
    let mut g = PropertyGraph::new();
    for (name, age) in [("ada", 36), ("bob", 25), ("cleo", 41), ("dan", 36)] {
        g.add_node("person", props! { "name" => name, "age" => age });
    }
    let range_query = |filter: Expr| {
        let mut q = SelectQuery::default();
        q.pattern.node(PatternNode::var("p"));
        q.projections.push(Projection::Expr {
            name: "name".into(),
            expr: Expr::Prop("p".into(), "name".into()),
        });
        q.filter = Some(filter);
        q
    };
    let age = || Expr::Prop("p".into(), "age".into());

    // Strict bound: age > 36 must exclude the boundary value even
    // though the index range is inclusive.
    let q = range_query(Expr::bin(BinOp::Gt, age(), Expr::Lit(Value::from(36))));
    let (rows, explain) = evaluate_select_planned(&g, &q).expect("planned path evaluates");
    assert_eq!(rows, evaluate_select_unplanned(&g, &q).unwrap());
    assert_eq!(rows.len(), 1, "only cleo is over 36");
    assert_eq!(rows.rows[0][0], Value::from("cleo"));
    let step = &explain.steps[0];
    assert_eq!(step.ranges, 1, "one range predicate seeded");
    assert_eq!(
        step.access,
        graph_db_models::query::plan::Access::Index,
        "range seeding upgrades the scan to index access"
    );
    assert_eq!(explain.residual, 1, "the predicate stays in the filter");
    let parsed = ExplainPlan::parse(&explain.render()).expect("ranges field round-trips");
    assert_eq!(parsed, explain);

    // Between-shaped pair: 30 <= age AND age < 40 intersects both
    // index probes (ranges=2) and still matches the reference rows.
    let q = range_query(Expr::bin(
        BinOp::And,
        Expr::bin(BinOp::Le, Expr::Lit(Value::from(30)), age()),
        Expr::bin(BinOp::Lt, age(), Expr::Lit(Value::from(40))),
    ));
    let (rows, explain) = evaluate_select_planned(&g, &q).expect("planned path evaluates");
    assert_eq!(rows, evaluate_select_unplanned(&g, &q).unwrap());
    assert_eq!(rows.len(), 2, "ada and dan are in [30, 40)");
    assert_eq!(explain.steps[0].ranges, 2, "both bounds seeded");

    // A never-indexed key cannot seed; the query still answers by scan.
    let q = range_query(Expr::bin(
        BinOp::Lt,
        Expr::Prop("p".into(), "salary".into()),
        Expr::Lit(Value::from(10)),
    ));
    let (rows, explain) = evaluate_select_planned(&g, &q).expect("planned path evaluates");
    assert_eq!(rows, evaluate_select_unplanned(&g, &q).unwrap());
    assert!(rows.is_empty(), "nobody has a salary property");
    assert_eq!(explain.steps[0].ranges, 0, "no ordered index covers salary");
    assert_eq!(
        explain.steps[0].access,
        graph_db_models::query::plan::Access::Scan
    );
}

fn probe_values() -> Vec<Value> {
    let mut probes: Vec<Value> = (0..5)
        .flat_map(|i| [Value::Int(i), Value::Float(i as f64)])
        .collect();
    probes.push(Value::Str("red".to_owned()));
    probes.push(Value::Str("blue".to_owned()));
    probes
}

proptest! {
    /// Invariant 2: after a random insert/remove/update sequence, the
    /// auto-maintained indexes answer exactly like indexes rebuilt
    /// from scratch over the surviving nodes, and like a raw scan.
    #[test]
    fn maintained_indexes_equal_rebuilt(
        ops in prop::collection::vec((0u8..4, 0usize..16, 0u8..2, 0i64..5, prop::bool::ANY), 1..48),
    ) {
        let mut g = PropertyGraph::new();
        let mut alive: Vec<NodeId> = Vec::new();
        for (op, sel, key, val, float) in ops {
            let value = if float {
                Value::Float(val as f64)
            } else {
                Value::Int(val)
            };
            match op {
                // Insert (seeded with an indexed property).
                0 | 1 => {
                    let label = LABELS[sel % LABELS.len()];
                    alive.push(g.add_node(label, props! { "k" => value }));
                }
                // Remove.
                2 => {
                    if !alive.is_empty() {
                        let n = alive.remove(sel % alive.len());
                        g.remove_node(n).expect("node is alive");
                    }
                }
                // Update (sometimes a fresh key, sometimes overwriting).
                _ => {
                    if !alive.is_empty() {
                        let n = alive[sel % alive.len()];
                        let key = ["k", "c"][key as usize];
                        g.set_node_property(n, key, value).expect("node is alive");
                    }
                }
            }
        }

        let keys: Vec<String> = g
            .indexed_property_keys()
            .iter()
            .map(|k| (*k).to_owned())
            .collect();
        for key in &keys {
            // Rebuild the index from scratch over the surviving nodes.
            let mut rebuilt = BTreeIndex::new();
            for &n in &alive {
                if let Some(v) = g.node_property(n, key) {
                    rebuilt.insert(&v, n.raw());
                }
            }
            for probe in probe_values() {
                let mut maintained: Vec<u64> =
                    g.nodes_with_property(key, &probe).iter().map(|n| n.raw()).collect();
                maintained.sort_unstable();
                let mut fresh = rebuilt.lookup_loose(&probe);
                fresh.sort_unstable();
                let mut scan: Vec<u64> = alive
                    .iter()
                    .filter(|&&n| {
                        g.node_property(n, key).is_some_and(|got| got.loose_eq(&probe))
                    })
                    .map(|n| n.raw())
                    .collect();
                scan.sort_unstable();
                prop_assert_eq!(&maintained, &fresh, "key {} probe {:?}", key, probe);
                prop_assert_eq!(&fresh, &scan, "key {} probe {:?}", key, probe);
            }
        }
        // A key never written is never indexed — and never matches.
        prop_assert!(g.nodes_with_property("never", &Value::Int(1)).is_empty());

        // The index-backed candidate sets agree with the trait's
        // full-scan contract after all that churn, too.
        for label in LABELS.iter().map(Some).chain([None]) {
            for probe in [Value::Int(3), Value::Float(3.0)] {
                let constraint = [("k".to_owned(), probe)];
                let mut fast: Vec<u64> = g
                    .candidates(label.copied(), &constraint)
                    .iter()
                    .map(|n| n.raw())
                    .collect();
                fast.sort_unstable();
                let mut slow: Vec<u64> = alive
                    .iter()
                    .filter(|&&n| {
                        let label_ok = match label {
                            None => true,
                            Some(want) => g
                                .node_label(n)
                                .and_then(|s| g.label_text(s))
                                .is_some_and(|t| t == *want),
                        };
                        label_ok
                            && constraint.iter().all(|(k, v)| {
                                g.node_property(n, k).is_some_and(|got| got.loose_eq(v))
                            })
                    })
                    .map(|n| n.raw())
                    .collect();
                slow.sort_unstable();
                prop_assert_eq!(fast, slow);
            }
        }
    }
}
