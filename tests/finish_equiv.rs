//! Output identity of the columnar finishing stage.
//!
//! `finish_select` filters, groups, orders and projects straight off
//! the executor's `MatchTable`, by row index. This suite keeps the
//! earlier binding-map implementation below as an independent
//! reference (one `FxHashMap<String, NodeId>` per match, sorted by a
//! `(name, raw id)` key) and asserts that every served path returns
//! the same `ResultSet` — same columns, same rows, same row order — on
//! the benchmark's social graph, live and frozen, at one and two
//! executor workers. The reference carries one fix over its original:
//! `DISTINCT` followed by `ORDER BY` on a non-projected expression
//! orders each kept row by its own first occurrence's key.

use graph_db_models::algo::parallel::force_fanout;
use graph_db_models::algo::pattern::Binding;
use graph_db_models::algo::planned::execute_pattern;
use graph_db_models::algo::summary::aggregate;
use graph_db_models::algo::FrozenGraph;
use graph_db_models::bench::workload::{social_graph, SocialParams};
use graph_db_models::core::{
    props, AttributedView, FxHashSet, GdmError, GraphView, NodeId, Result, Value,
};
use graph_db_models::govern::ExecutionGuard;
use graph_db_models::graphs::PropertyGraph;
use graph_db_models::query::cypher::{self, CypherStatement};
use graph_db_models::query::eval::{evaluate_select_unplanned, ResultSet};
use graph_db_models::query::plan::{execute_planned_governed, plan_select};
use graph_db_models::query::{BinOp, Expr, Projection, SelectQuery};
use std::collections::VecDeque;

const TWO_HOP: &str = "MATCH (a:person)-[:knows]->(b:person)-[:knows]->(c:person)";
const ONE_HOP: &str = "MATCH (a:person)-[:knows]->(b:person)";

/// The served workloads' query shapes plus the finishing features they
/// leave out, each with the text it reports as.
fn corpus() -> Vec<(String, SelectQuery)> {
    let texts = [
        // The three `two_hop_join` texts.
        format!("{TWO_HOP} WHERE a.community = 3 RETURN c.name"),
        "MATCH (a:person)-[:knows]->(b:person)-[:knows]->(c:person)-[:knows]->(d:person) \
         WHERE a.name = 'person17' RETURN d.name"
            .to_owned(),
        format!("{TWO_HOP} RETURN c.community, count(*)"),
        // The three `point_lookup` shapes.
        "MATCH (p:person) WHERE p.name = 'person42' RETURN p.age".to_owned(),
        format!("{ONE_HOP} WHERE a.name = 'person42' RETURN b.name"),
        format!("{TWO_HOP} WHERE a.name = 'person42' RETURN count(*)"),
        // A residual the planner cannot push into the pattern.
        format!("{TWO_HOP} WHERE a.age > c.age AND a.community = 2 RETURN a.name, c.name"),
        // Variable-length hops.
        "MATCH (a:person {name: 'person5'})-[:knows*1..2]->(b:person) RETURN b.name".to_owned(),
        "MATCH (a:person {name: 'person9'})-[:knows*2..3]->(b:person) WHERE b.age < 40 \
         RETURN b.name, b.age ORDER BY b.age DESC"
            .to_owned(),
        // Grouped aggregates over `score`, which only some people carry.
        format!(
            "{ONE_HOP} WHERE a.community = 1 RETURN b.community, count(*), count(b.score), \
             sum(b.score), avg(b.score), min(b.score), max(b.score)"
        ),
        format!(
            "{TWO_HOP} WHERE a.community = 7 RETURN b.community AS comm, sum(c.score) AS total, \
             count(*) AS n ORDER BY n DESC"
        ),
        "MATCH (p:person) RETURN count(p.score), avg(p.score), min(p.score), max(p.age)".to_owned(),
        // ORDER BY an alias and an expression, both directions.
        format!("{ONE_HOP} WHERE a.community = 5 RETURN b.name AS who, b.age AS age ORDER BY age"),
        format!("{ONE_HOP} WHERE a.community = 5 RETURN b.name AS who ORDER BY who DESC"),
        format!("{ONE_HOP} WHERE a.community = 6 RETURN b.name ORDER BY a.age + b.age"),
        format!("{ONE_HOP} WHERE a.community = 6 RETURN a.name, b.score ORDER BY b.score DESC"),
        format!(
            "{TWO_HOP} WHERE a.community = 0 RETURN c.community, count(*) \
             ORDER BY c.community DESC"
        ),
        // SKIP / LIMIT and DISTINCT.
        format!("{TWO_HOP} WHERE a.community = 4 RETURN c.name ORDER BY c.age SKIP 5 LIMIT 20"),
        format!("{ONE_HOP} WHERE a.community = 4 RETURN b.name SKIP 7 LIMIT 3"),
        format!("{TWO_HOP} WHERE a.community = 3 RETURN DISTINCT c.name ORDER BY c.age"),
        format!("{TWO_HOP} WHERE a.community = 3 RETURN DISTINCT c.community, b.community"),
        format!("{ONE_HOP} WHERE a.community = 8 RETURN DISTINCT b.age ORDER BY b.name DESC"),
        // Bare variables and pseudo-properties.
        format!("{ONE_HOP} WHERE a.name = 'person3' RETURN b, b.id, b.label, b.degree"),
    ];
    let mut corpus: Vec<(String, SelectQuery)> = texts
        .into_iter()
        .map(|text| (text.clone(), parse(&text)))
        .collect();
    // An unbound variable: the parser refuses it, so build it directly.
    let mut unbound = parse("MATCH (p:person) RETURN p.name");
    unbound.projections[0] = Projection::Expr {
        name: "q.name".into(),
        expr: Expr::Prop("q".into(), "name".into()),
    };
    corpus.push(("MATCH (p:person) RETURN q.name".into(), unbound));
    corpus
}

fn parse(text: &str) -> SelectQuery {
    match cypher::parse(text).unwrap() {
        CypherStatement::Select(q) => *q,
        other => panic!("{text}: not a read query: {other:?}"),
    }
}

/// The benchmark's `social_graph`, with a `score` on every third
/// person so aggregates meet nulls.
fn graph(people: usize) -> PropertyGraph {
    let mut g = social_graph(SocialParams {
        people,
        communities: 10,
        intra_edges: 6,
        inter_edges: 2,
        seed: 2012,
    });
    for (i, n) in g.node_ids().into_iter().enumerate() {
        if i % 3 == 0 {
            g.set_node_property(n, "score", (i % 17) as i64).unwrap();
        }
    }
    g
}

/// Results compare exactly; errors by their rendering.
fn outcome(r: Result<ResultSet>) -> std::result::Result<ResultSet, String> {
    r.map_err(|e| e.to_string())
}

#[test]
fn columnar_finish_matches_binding_map_reference() {
    let guard = ExecutionGuard::unlimited();
    for people in [300, 1000] {
        let live = graph(people);
        let frozen = FrozenGraph::freeze_attributed(&live);
        for (text, query) in corpus() {
            let want = outcome(reference_select(&live, &query));
            // The unplanned path runs the VF2 reference matcher over
            // every node, so it is checked at the smaller size only.
            if people == 300 {
                let got = outcome(evaluate_select_unplanned(&live, &query));
                assert!(got == want, "{people} people, unplanned: {text}");
            }
            let views: [(&str, &dyn AttributedView); 2] = [("live", &live), ("frozen", &frozen)];
            for (name, view) in views {
                for workers in [1, 2] {
                    force_fanout(workers > 1);
                    let got = outcome(plan_select(view, &query).and_then(|mut planned| {
                        planned.explain.parallel_workers = workers;
                        execute_planned_governed(view, &planned, &guard)
                    }));
                    force_fanout(false);
                    assert!(
                        got == want,
                        "{people} people, {name}, {workers} workers: {text}"
                    );
                }
            }
        }
    }
}

/// `GROUP BY` over thousands of groups, keyed by a property mixing
/// `Int` and `Float` values (some loosely equal across the two, some
/// beyond 2^53 where loose equality stops being transitive) and
/// missing on some people (null keys): the hashed grouping returns
/// exactly the reference's groups, in the reference's order.
#[test]
fn high_cardinality_group_by_matches_reference() {
    let mut live = graph(4000);
    let big = 1i64 << 53;
    for (i, n) in live.node_ids().into_iter().enumerate() {
        let k = (i / 2) as i64;
        let value = match i % 8 {
            0 => continue, // no `g`: a null key
            1 | 2 => Value::Int(k),
            3 => Value::Float(k as f64),
            4 => Value::Float(k as f64 + 0.5),
            5 => Value::Int(big + (i % 3) as i64),
            6 => Value::Float(big as f64),
            _ => Value::Float(-0.0),
        };
        live.set_node_property(n, "g", value).unwrap();
    }
    let frozen = FrozenGraph::freeze_attributed(&live);
    let guard = ExecutionGuard::unlimited();
    for text in [
        "MATCH (p:person) RETURN p.g, count(*)",
        "MATCH (p:person) RETURN p.g, p.community, count(*), min(p.age)",
        "MATCH (p:person) RETURN p.g AS g, count(*) AS n ORDER BY n DESC",
    ] {
        let query = parse(text);
        let want = outcome(reference_select(&live, &query));
        let groups = want.as_ref().map_or(0, ResultSet::len);
        assert!(groups > 1000, "{text}: {groups} groups");
        let got = outcome(evaluate_select_unplanned(&live, &query));
        assert!(got == want, "unplanned: {text}");
        let views: [(&str, &dyn AttributedView); 2] = [("live", &live), ("frozen", &frozen)];
        for (name, view) in views {
            for workers in [1, 2] {
                force_fanout(workers > 1);
                let got = outcome(plan_select(view, &query).and_then(|mut planned| {
                    planned.explain.parallel_workers = workers;
                    execute_planned_governed(view, &planned, &guard)
                }));
                force_fanout(false);
                assert!(got == want, "{name}, {workers} workers: {text}");
            }
        }
    }
}

/// Group keys whose grouping depends on the canonical order: NaN (each
/// NaN row its own group), `-0.0` beside `0.0` (one group, shown as its
/// first row's zero), `Int(k)` beside `Float(k)` (one group, shown as
/// the first row's number). Aggregates over mixed-magnitude floats,
/// where an `f64` sum depends on the order it adds in (`1e16 + 1.0`),
/// and over `1` beside `1.0`, where `min`/`max` keep whichever comes
/// first. Grouping keys that fail on some rows with row-dependent
/// errors. At two workers the executor emits rows out of canonical
/// order, so any fold in executor order fails here.
#[test]
fn order_sensitive_groups_and_folds_match_reference() {
    let mut live = graph(400);
    for (i, n) in live.node_ids().into_iter().enumerate() {
        let k = (i % 4) as i64;
        let h = match i % 7 {
            0 => Some(Value::Float(f64::NAN)),
            1 => Some(Value::Float(-0.0)),
            2 => Some(Value::Float(0.0)),
            3 | 6 => Some(Value::Int(k)),
            4 => Some(Value::Float(k as f64)),
            _ => None, // a null key
        };
        if let Some(h) = h {
            live.set_node_property(n, "h", h).unwrap();
        }
        let f = [
            Value::Float(1e16),
            Value::Float(1.0),
            Value::Int(1),
            Value::Float(-1e16),
            Value::Float(0.5),
        ][i % 5]
            .clone();
        live.set_node_property(n, "f", f).unwrap();
        let t = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Int(2),
            Value::Float(2.0),
        ][i % 4]
            .clone();
        live.set_node_property(n, "t", t).unwrap();
    }
    let frozen = FrozenGraph::freeze_attributed(&live);
    let folds = "sum(c.f), avg(c.f), min(c.f), max(c.f), min(c.t), max(c.t)";
    for text in [
        "MATCH (p:person) RETURN p.h, count(*)".to_owned(),
        format!("{TWO_HOP} RETURN c.h, count(*)"),
        format!("{TWO_HOP} WHERE a.community = 2 RETURN c.h, {folds}"),
        format!(
            "{TWO_HOP} WHERE a.community = 4 RETURN c.h AS h, b.h, count(*) AS n, {folds} \
             ORDER BY n DESC"
        ),
        format!("{TWO_HOP} WHERE a.community = 6 RETURN a.community, {folds}"),
        format!("{TWO_HOP} WHERE a.community = 1 RETURN {folds}"),
        format!("{TWO_HOP} RETURN count(*), count(c.h), {folds}"),
        format!("{ONE_HOP} RETURN b.t, min(a.f), max(a.t), sum(a.f) ORDER BY b.t"),
        format!("{ONE_HOP} RETURN b.h + b.name, count(*)"),
        format!("{ONE_HOP} RETURN b.community, count(b.h + b.name)"),
    ] {
        assert_paths_match(&live, &frozen, &text, false);
    }
}

/// Canonical keys wider than the packed sort's `u64` and `u128`: six
/// and ten chained variables over node ids above 2^12 (4 096 padding
/// nodes come first), so the six-variable key packs into 128 bits and
/// the ten-variable key (over 130 bits) falls back to the comparator.
/// Chain steps are created in one order and linked in another, and the
/// variable names do not sort in chain order.
#[test]
fn wide_canonical_keys_match_reference() {
    let mut live = PropertyGraph::new();
    for _ in 0..4096 {
        live.add_node("pad", props! {});
    }
    const STEPS: usize = 120;
    let steps: Vec<NodeId> = (0..STEPS)
        .map(|i| {
            let w = [Value::Float(1e16), Value::Float(1.0), Value::Int(1)][i % 3].clone();
            let props =
                props! { "name" => format!("step{i}"), "bucket" => (i % 4) as i64, "w" => w };
            live.add_node("step", props)
        })
        .collect();
    for i in 0..STEPS - 1 {
        let (from, to) = (steps[i * 7 % STEPS], steps[(i + 1) * 7 % STEPS]);
        live.add_edge(from, to, "next", props! {}).unwrap();
    }
    let frozen = FrozenGraph::freeze_attributed(&live);
    let chain = |vars: &[&str]| {
        let hops: Vec<String> = vars.iter().map(|v| format!("({v}:step)")).collect();
        format!("MATCH {}", hops.join("-[:next]->"))
    };
    let six = chain(&["m", "d", "k", "a", "q", "b"]);
    let ten = chain(&["m", "d", "k", "a", "q", "b", "z", "e", "c", "x"]);
    for text in [
        format!("{six} RETURN m.name, b.name"),
        format!("{six} RETURN b.bucket, count(*), sum(m.w), min(b.w)"),
        format!("{ten} RETURN x.name, m.name"),
        format!("{ten} RETURN DISTINCT x.bucket, m.bucket"),
        format!("{ten} RETURN m.bucket, count(*), sum(x.w), max(x.w)"),
        format!("{ten} RETURN sum(x.w), avg(m.w)"),
    ] {
        assert_paths_match(&live, &frozen, &text, true);
    }
}

/// Asserts that `text` returns the reference's `ResultSet` on every
/// served path: the unplanned one (when `unplanned`), then live and
/// frozen at one and two executor workers, and that it returns rows or
/// an error. Results compare by their `Debug` rendering, which tells
/// `-0.0` from `0.0` and `1` from `1.0` as `==` does, and also equates
/// NaN with NaN.
fn assert_paths_match(live: &PropertyGraph, frozen: &FrozenGraph, text: &str, unplanned: bool) {
    let guard = ExecutionGuard::unlimited();
    let query = parse(text);
    let want = outcome(reference_select(live, &query));
    assert!(
        want.as_ref().map_or(true, |rs| !rs.is_empty()),
        "{text}: no rows"
    );
    let want = format!("{want:?}");
    if unplanned {
        let got = format!("{:?}", outcome(evaluate_select_unplanned(live, &query)));
        assert!(got == want, "unplanned: {text}");
    }
    let views: [(&str, &dyn AttributedView); 2] = [("live", live), ("frozen", frozen)];
    for (name, view) in views {
        for workers in [1, 2] {
            force_fanout(workers > 1);
            let got = outcome(plan_select(view, &query).and_then(|mut planned| {
                planned.explain.parallel_workers = workers;
                execute_planned_governed(view, &planned, &guard)
            }));
            force_fanout(false);
            let got = format!("{got:?}");
            assert!(got == want, "{name}, {workers} workers: {text}");
        }
    }
}

#[test]
fn corpus_exercises_every_finishing_step() {
    let live = graph(300);
    let results: Vec<_> = corpus()
        .iter()
        .map(|(_, q)| outcome(reference_select(&live, q)))
        .collect();
    let failed = results.iter().filter(|r| r.is_err()).count();
    assert_eq!(failed, 1, "only the unbound-variable query errors");
    let rows: usize = results.iter().flatten().map(ResultSet::len).sum();
    assert!(rows > 1000, "the corpus returns real rows ({rows})");
    let nulls = results
        .iter()
        .flatten()
        .flat_map(|rs| rs.rows.iter().flatten())
        .filter(|v| v.is_null())
        .count();
    assert!(nulls > 0, "aggregates and projections meet nulls");
}

/// The reference pipeline, as the planned path ran before the finish
/// went columnar: plan on the live graph, match with the row-at-a-time
/// planned matcher, convert every match to a binding map, finish.
fn reference_select(g: &PropertyGraph, query: &SelectQuery) -> Result<ResultSet> {
    let planned = plan_select(g, query)?;
    let table = execute_pattern(g, &planned.query.pattern, &planned.domains, 1, None)?;
    reference_finish(g, &planned.query, table.to_bindings())
}

/// The binding-map finishing stage the columnar one replaced, kept
/// verbatim apart from the `DISTINCT` + `ORDER BY` fix.
fn reference_finish<G: AttributedView + ?Sized>(
    g: &G,
    query: &SelectQuery,
    mut bindings: Vec<Binding>,
) -> Result<ResultSet> {
    for vp in &query.var_paths {
        bindings.retain(|b| {
            let from = b[&vp.from];
            let to = b[&vp.to];
            within_hops(g, from, to, vp.label.as_deref(), vp.min, vp.max)
        });
    }
    if let Some(filter) = &query.filter {
        let mut kept = Vec::with_capacity(bindings.len());
        for b in bindings {
            if eval_expr(g, &b, filter)?.as_bool().unwrap_or(false) {
                kept.push(b);
            }
        }
        bindings = kept;
    }
    bindings.sort_by_key(|b| {
        let mut key: Vec<(String, u64)> = b.iter().map(|(k, v)| (k.clone(), v.raw())).collect();
        key.sort();
        key
    });

    let columns: Vec<String> = query
        .projections
        .iter()
        .map(|p| p.name().to_owned())
        .collect();

    let is_aggregate = query.projections.iter().any(Projection::is_aggregate);
    let order_column_idx: Option<usize> = match &query.order_by {
        Some((Expr::Var(name), _)) => columns.iter().position(|c| c == name),
        _ => None,
    };
    let mut group_order_keys: Vec<Value> = Vec::new();
    // The binding each row projects, for ordering after DISTINCT.
    let mut row_sources: Vec<usize> = Vec::new();
    let mut rows: Vec<Vec<Value>> = if is_aggregate && !query.group_by.is_empty() {
        let mut groups: Vec<(Vec<Value>, Vec<&Binding>)> = Vec::new();
        for b in &bindings {
            let key: Vec<Value> = query
                .group_by
                .iter()
                .map(|e| eval_expr(g, b, e))
                .collect::<Result<_>>()?;
            match groups.iter_mut().find(|(k, _)| {
                k.len() == key.len() && k.iter().zip(&key).all(|(a, c)| a.loose_eq(c))
            }) {
                Some((_, members)) => members.push(b),
                None => groups.push((key, vec![b])),
            }
        }
        let mut out = Vec::with_capacity(groups.len());
        for (_, members) in &groups {
            let representative = members[0];
            if order_column_idx.is_none() {
                if let Some((key_expr, _)) = &query.order_by {
                    group_order_keys.push(eval_expr(g, representative, key_expr)?);
                }
            }
            let mut row = Vec::with_capacity(query.projections.len());
            for p in &query.projections {
                match p {
                    Projection::Expr { expr, .. } => {
                        row.push(eval_expr(g, representative, expr)?);
                    }
                    Projection::Aggregate { agg, expr, .. } => {
                        let values: Vec<Value> = match expr {
                            None => vec![Value::Int(1); members.len()],
                            Some(e) => members
                                .iter()
                                .map(|b| eval_expr(g, b, e))
                                .collect::<Result<_>>()?,
                        };
                        row.push(aggregate(*agg, &values)?);
                    }
                }
            }
            out.push(row);
        }
        out
    } else if is_aggregate {
        let mut row = Vec::with_capacity(query.projections.len());
        for p in &query.projections {
            let Projection::Aggregate { agg, expr, .. } = p else {
                unreachable!("validate() rejects mixed projections");
            };
            let values: Vec<Value> = match expr {
                None => vec![Value::Int(1); bindings.len()],
                Some(e) => bindings
                    .iter()
                    .map(|b| eval_expr(g, b, e))
                    .collect::<Result<_>>()?,
            };
            row.push(aggregate(*agg, &values)?);
        }
        vec![row]
    } else {
        let mut out = Vec::with_capacity(bindings.len());
        for (i, b) in bindings.iter().enumerate() {
            let mut row = Vec::with_capacity(query.projections.len());
            for p in &query.projections {
                let Projection::Expr { expr, .. } = p else {
                    unreachable!("validate() rejects mixed projections");
                };
                row.push(eval_expr(g, b, expr)?);
            }
            out.push(row);
            row_sources.push(i);
        }
        out
    };

    if query.distinct {
        let mut seen: FxHashSet<String> = FxHashSet::default();
        let keep: Vec<bool> = rows.iter().map(|r| seen.insert(format!("{r:?}"))).collect();
        let mut flags = keep.iter();
        rows.retain(|_| *flags.next().unwrap());
        if !row_sources.is_empty() {
            let mut flags = keep.iter();
            row_sources.retain(|_| *flags.next().unwrap());
        }
        if !group_order_keys.is_empty() {
            let mut flags = keep.iter();
            group_order_keys.retain(|_| *flags.next().unwrap());
        }
    }

    if let Some((key_expr, asc)) = &query.order_by {
        if let Some(idx) = order_column_idx {
            rows.sort_by(|a, b| a[idx].total_cmp(&b[idx]));
            if !asc {
                rows.reverse();
            }
        } else {
            let keys: Option<Vec<Value>> = if !is_aggregate {
                // Each kept row's key comes from its own binding.
                Some(
                    row_sources
                        .iter()
                        .map(|&i| eval_expr(g, &bindings[i], key_expr))
                        .collect::<Result<_>>()?,
                )
            } else if !query.group_by.is_empty() {
                Some(group_order_keys)
            } else {
                None
            };
            if let Some(keys) = keys {
                let mut paired: Vec<(Value, Vec<Value>)> = keys.into_iter().zip(rows).collect();
                paired.sort_by(|a, b| a.0.total_cmp(&b.0));
                if !asc {
                    paired.reverse();
                }
                rows = paired.into_iter().map(|(_, r)| r).collect();
            }
        }
    }

    if query.skip > 0 {
        rows.drain(..query.skip.min(rows.len()));
    }
    if let Some(limit) = query.limit {
        rows.truncate(limit);
    }

    Ok(ResultSet { columns, rows })
}

fn within_hops<G: AttributedView + ?Sized>(
    g: &G,
    from: NodeId,
    to: NodeId,
    label: Option<&str>,
    min: usize,
    max: usize,
) -> bool {
    let mut seen: FxHashSet<(u64, usize)> = FxHashSet::default();
    seen.insert((from.raw(), 0));
    let mut queue: VecDeque<(NodeId, usize)> = VecDeque::from([(from, 0)]);
    while let Some((n, d)) = queue.pop_front() {
        if d >= max {
            continue;
        }
        let mut hit = false;
        g.visit_out_edges(n, &mut |e| {
            let label_ok = match label {
                None => true,
                Some(want) => e
                    .label
                    .and_then(|s| g.label_text(s))
                    .is_some_and(|t| t == want),
            };
            if !label_ok {
                return;
            }
            if e.to == to && d + 1 >= min {
                hit = true;
            }
            if seen.insert((e.to.raw(), d + 1)) {
                queue.push_back((e.to, d + 1));
            }
        });
        if hit {
            return true;
        }
    }
    false
}

fn eval_expr<G: AttributedView + ?Sized>(g: &G, binding: &Binding, expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Var(var) => {
            let node = lookup(binding, var)?;
            Ok(Value::Int(node.raw() as i64))
        }
        Expr::Prop(var, key) => {
            let node = lookup(binding, var)?;
            Ok(match key.as_str() {
                "id" => Value::Int(node.raw() as i64),
                "label" => g
                    .node_label(node)
                    .and_then(|s| g.label_text(s))
                    .map(|t| Value::Str(t.to_owned()))
                    .unwrap_or(Value::Null),
                "degree" => Value::Int(g.degree(node) as i64),
                _ => g.node_property(node, key).unwrap_or(Value::Null),
            })
        }
        Expr::Not(inner) => {
            let v = eval_expr(g, binding, inner)?;
            match v.as_bool() {
                Some(b) => Ok(Value::Bool(!b)),
                None => Err(GdmError::Type {
                    expected: "bool",
                    got: v.type_name().to_owned(),
                }),
            }
        }
        Expr::Bin(op, lhs, rhs) => {
            let l = eval_expr(g, binding, lhs)?;
            match op {
                BinOp::And => {
                    if !l.as_bool().unwrap_or(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval_expr(g, binding, rhs)?;
                    return Ok(Value::Bool(r.as_bool().unwrap_or(false)));
                }
                BinOp::Or => {
                    if l.as_bool().unwrap_or(false) {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval_expr(g, binding, rhs)?;
                    return Ok(Value::Bool(r.as_bool().unwrap_or(false)));
                }
                _ => {}
            }
            let r = eval_expr(g, binding, rhs)?;
            match op {
                BinOp::Eq => Ok(Value::Bool(l.loose_eq(&r))),
                BinOp::Ne => Ok(Value::Bool(!l.loose_eq(&r))),
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let Some(ord) = l.compare(&r) else {
                        return Ok(Value::Bool(false));
                    };
                    let b = match op {
                        BinOp::Lt => ord.is_lt(),
                        BinOp::Le => ord.is_le(),
                        BinOp::Gt => ord.is_gt(),
                        BinOp::Ge => ord.is_ge(),
                        _ => unreachable!(),
                    };
                    Ok(Value::Bool(b))
                }
                BinOp::Add => l.add(&r),
                BinOp::Sub => l.sub(&r),
                BinOp::Mul => l.mul(&r),
                BinOp::Div => l.div(&r),
                BinOp::And | BinOp::Or => unreachable!("handled above"),
            }
        }
    }
}

fn lookup(binding: &Binding, var: &str) -> Result<NodeId> {
    binding
        .get(var)
        .copied()
        .ok_or_else(|| GdmError::InvalidArgument(format!("unbound variable {var:?}")))
}
