//! Evaluates the shared logical algebra over any attributed graph.
//!
//! The pipeline: match the fixed pattern (the executor or the VF2
//! reference matcher from `gdm-algo`), then finish the result straight
//! off the executor's [`MatchTable`] — dense node-id rows, one column
//! per pattern variable. The finishing stage works on row indices:
//! expand variable-length path constraints (label-filtered BFS in the
//! hop range), filter, project (row or aggregate), de-duplicate,
//! order, skip, limit. Each variable is resolved to its column once per
//! query, and expressions read node ids straight from the row; no
//! per-row binding map is built.
//!
//! The canonical order compares rows by their raw node ids, column by
//! column, with the columns taken in variable-name order. It is a total
//! order on the match set, so every path produces byte-identical rows
//! however its matches were found. Row projections come out in it; a
//! group is represented by its canonically first row, and groups come
//! out in the canonical order of their representatives. Only row
//! projections and order-sensitive aggregates sort: a packed integer
//! key per row, not the comparator. Grouping buckets rows by key hash
//! instead, so a grouped `count(*)` sorts nothing but its groups.
//!
//! Bare variables project as node ids; `var.key` projects the bound
//! node's property; the pseudo-properties `id`, `label`, and `degree`
//! are always available (the paper's engines all expose them through
//! their APIs).

use crate::ast::{BinOp, Expr, Projection, SelectQuery};
use gdm_algo::pattern::match_pattern;
use gdm_algo::summary::{aggregate, Aggregate};
use gdm_algo::MatchTable;
use gdm_core::fxhash::FxHasher;
use gdm_core::{AttributedView, FxHashMap, FxHashSet, GdmError, NodeId, Result, Value};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::hash::Hasher;

/// A tabular query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Column names, in projection order.
    pub columns: Vec<String>,
    /// Rows of values.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The value at `(row, column-name)`, if present.
    pub fn get(&self, row: usize, column: &str) -> Option<&Value> {
        let idx = self.columns.iter().position(|c| c == column)?;
        self.rows.get(row)?.get(idx)
    }

    /// Renders the result as simple aligned text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(ToString::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// Executes `query` against `g` through the cost-based planner:
/// equality predicates are pushed into the pattern, each variable is
/// seeded from the view's indexes when they can bound its candidates,
/// and variables are matched smallest-domain first. Result rows are
/// identical to [`evaluate_select_unplanned`]'s.
pub fn evaluate_select<G: AttributedView + ?Sized>(
    g: &G,
    query: &SelectQuery,
) -> Result<ResultSet> {
    crate::plan::evaluate_select_planned(g, query).map(|(rs, _)| rs)
}

/// Executes `query` without planning: full VF2 over all nodes, the
/// WHERE clause applied only after matching. Kept as the reference
/// path the property tests compare the planner against.
pub fn evaluate_select_unplanned<G: AttributedView + ?Sized>(
    g: &G,
    query: &SelectQuery,
) -> Result<ResultSet> {
    query.validate()?;
    // 1. Fixed pattern.
    let bindings = match_pattern(g, &query.pattern);
    finish_select(
        g,
        query,
        &MatchTable::from_bindings(&query.pattern, &bindings),
    )
}

/// Steps 2–7 of the pipeline, shared by the planned and unplanned
/// paths: var-length paths, filter, projection, distinct, order,
/// skip/limit. Every step works on row indices into `table`;
/// expressions read node ids straight from the row. The canonical
/// order guarantees every path produces byte-identical rows regardless
/// of how the matches were found.
pub(crate) fn finish_select<G: AttributedView + ?Sized>(
    g: &G,
    query: &SelectQuery,
    table: &MatchTable,
) -> Result<ResultSet> {
    let vars = table.vars();
    let mut rows: Vec<usize> = (0..table.len()).collect();
    // 2. Variable-length path constraints.
    for vp in &query.var_paths {
        let (from, to) = (column(vars, &vp.from)?, column(vars, &vp.to)?);
        rows.retain(|&r| {
            let row = table.row(r);
            within_hops(g, row[from], row[to], vp.label.as_deref(), vp.min, vp.max)
        });
    }
    // 3. Filter.
    if let Some(filter) = &query.filter {
        let filter = RowExpr::resolve(filter, vars)?;
        let mut kept = Vec::with_capacity(rows.len());
        for r in rows {
            if filter.eval(g, table.row(r))?.as_bool().unwrap_or(false) {
                kept.push(r);
            }
        }
        rows = kept;
    }
    // The canonical order (see the module docs) decides which row each
    // output row or group comes from and in what order; it is applied
    // only where it shows, never by sorting rows a grouped `count(*)`
    // just counts.
    let mut by_name: Vec<usize> = (0..vars.len()).collect();
    by_name.sort_by(|&a, &b| vars[a].cmp(&vars[b]));

    let columns: Vec<String> = query
        .projections
        .iter()
        .map(|p| p.name().to_owned())
        .collect();
    let projections: Vec<Column> = query
        .projections
        .iter()
        .map(|p| Column::resolve(p, vars))
        .collect::<Result<_>>()?;
    // All but `count(*)` fold an expression over rows in canonical
    // order: `f64` sums and `total_cmp` ties (`1` beside `1.0`) depend
    // on it, and so does which row's error is reported.
    let ordered = projections.iter().any(|c| match c {
        Column::Aggregate(agg, expr) => *agg != Aggregate::Count || expr.is_some(),
        Column::Expr(_) => false,
    });

    // 4. Aggregate, grouped, or row projection. `sources` holds the
    // table row each output row came from (a group's representative
    // when grouped), for ordering by a key that is not a projected
    // column; `None` for the single row of an ungrouped aggregate.
    let is_aggregate = query.projections.iter().any(Projection::is_aggregate);
    let (mut out, sources): (Vec<Vec<Value>>, Option<Vec<usize>>) =
        if is_aggregate && !query.group_by.is_empty() {
            let keys: Vec<RowExpr> = query
                .group_by
                .iter()
                .map(|e| RowExpr::resolve(e, vars))
                .collect::<Result<_>>()?;
            let groups = group_rows(g, table, &rows, &by_name, &keys, ordered)?;
            let mut out = Vec::with_capacity(groups.len());
            for members in &groups {
                // Projected expressions are validated to be grouping
                // keys: constant within the group.
                let representative = table.row(members[0]);
                let row = projections
                    .iter()
                    .map(|c| match c {
                        Column::Expr(e) => e.eval(g, representative),
                        Column::Aggregate(agg, e) => aggregate_rows(g, table, *agg, e, members),
                    })
                    .collect::<Result<_>>()?;
                out.push(row);
            }
            let sources = groups.iter().map(|members| members[0]).collect();
            (out, Some(sources))
        } else if is_aggregate {
            if ordered {
                rows = canonical_order(table, &rows, &by_name);
            }
            let row = projections
                .iter()
                .map(|c| match c {
                    Column::Aggregate(agg, e) => aggregate_rows(g, table, *agg, e, &rows),
                    Column::Expr(_) => unreachable!("validate() rejects mixed projections"),
                })
                .collect::<Result<_>>()?;
            (vec![row], None)
        } else {
            let rows = canonical_order(table, &rows, &by_name);
            let mut out = Vec::with_capacity(rows.len());
            for &r in &rows {
                let row = table.row(r);
                let projected = projections
                    .iter()
                    .map(|c| match c {
                        Column::Expr(e) => e.eval(g, row),
                        Column::Aggregate(..) => {
                            unreachable!("validate() rejects mixed projections")
                        }
                    })
                    .collect::<Result<_>>()?;
                out.push(projected);
            }
            (out, Some(rows))
        };

    // Steps 5–7 pick and order output rows by their index in `out`.
    let mut picked: Vec<usize> = (0..out.len()).collect();

    // 5. Distinct: the first occurrence of each row survives.
    if query.distinct {
        let mut seen: FxHashSet<String> = FxHashSet::default();
        picked.retain(|&i| seen.insert(format!("{:?}", out[i])));
    }

    // 6. Order by.
    if let Some((key_expr, asc)) = &query.order_by {
        // Ordering by a projected column's alias (`ORDER BY total`)
        // sorts the output rows directly — this also covers ordering
        // by aggregate results.
        let order_column = match key_expr {
            Expr::Var(name) => columns.iter().position(|c| c == name),
            _ => None,
        };
        if let Some(idx) = order_column {
            picked.sort_by(|&a, &b| out[a][idx].total_cmp(&out[b][idx]));
            if !asc {
                picked.reverse();
            }
        } else if let Some(sources) = &sources {
            // Any other key is evaluated on each kept row's source
            // row (valid for grouping-key expressions when grouped).
            let key = RowExpr::resolve(key_expr, vars)?;
            let mut keyed: Vec<(Value, usize)> = picked
                .iter()
                .map(|&i| Ok((key.eval(g, table.row(sources[i]))?, i)))
                .collect::<Result<_>>()?;
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
            if !asc {
                keyed.reverse();
            }
            picked = keyed.into_iter().map(|(_, i)| i).collect();
        }
        // A single aggregate row has nothing to order.
    }

    // 7. Skip / limit.
    picked.drain(..query.skip.min(picked.len()));
    if let Some(limit) = query.limit {
        picked.truncate(limit);
    }

    let rows = picked
        .into_iter()
        .map(|i| std::mem::take(&mut out[i]))
        .collect();
    Ok(ResultSet { columns, rows })
}

/// `agg` over `expr` evaluated on each of `rows` (`count(*)` and the
/// other star forms when `expr` is `None`).
fn aggregate_rows<G: AttributedView + ?Sized>(
    g: &G,
    table: &MatchTable,
    agg: Aggregate,
    expr: &Option<RowExpr>,
    rows: &[usize],
) -> Result<Value> {
    let values: Vec<Value> = match expr {
        None if agg == Aggregate::Count => return Ok(Value::Int(rows.len() as i64)),
        None => vec![Value::Int(1); rows.len()],
        Some(e) => rows
            .iter()
            .map(|&r| e.eval(g, table.row(r)))
            .collect::<Result<_>>()?,
    };
    aggregate(agg, &values)
}

/// `rows` (table rows) in canonical order.
fn canonical_order(table: &MatchTable, rows: &[usize], by_name: &[usize]) -> Vec<usize> {
    let order = CanonicalKeys::new(table, rows, by_name).into_order();
    order.into_iter().map(|pos| rows[pos]).collect()
}

/// Groups `rows` by the grouping-key tuple `keys` under the one
/// grouping rule: taken in canonical order, a row joins the first group
/// (in creation order) whose key is loosely equal to its own. Returns
/// the groups in creation order, each as its member table rows with the
/// canonically first member (the representative) in front and, when
/// `ordered`, all members in canonical order.
///
/// No whole-table sort is needed for that. Loosely equal keys hash
/// alike, so rows are bucketed by key hash and no group spans two
/// buckets. A bucket whose keys are all identical and loosely equal to
/// themselves is one group. Any other bucket (`1` beside `1.0`, a NaN,
/// integers past 2^53 beside their `f64`, a hash collision) runs the
/// rule over its own rows in canonical order. Groups are created in the
/// canonical order of their representatives.
fn group_rows<G: AttributedView + ?Sized>(
    g: &G,
    table: &MatchTable,
    rows: &[usize],
    by_name: &[usize],
    keys: &[RowExpr],
    ordered: bool,
) -> Result<Vec<Vec<usize>>> {
    struct Bucket {
        key: Vec<Value>,
        uniform: bool,
        /// Positions in `rows`.
        members: Vec<usize>,
    }
    let canonical = CanonicalKeys::new(table, rows, by_name);
    let eval_key = |r: usize, key: &mut Vec<Value>| -> Result<()> {
        key.clear();
        for e in keys {
            key.push(e.eval(g, table.row(r))?);
        }
        Ok(())
    };
    // A key that reads one variable (`c.community`) is a function of
    // that column's node: each distinct node is evaluated and bucketed
    // once.
    let mut read = Vec::new();
    for e in keys {
        e.visit_columns(&mut |c| read.push(c));
    }
    read.sort_unstable();
    read.dedup();
    let memo_column = match read[..] {
        [] => Some(None),
        [c] => Some(Some(c)),
        _ => None,
    };
    let mut bucket_of_node: FxHashMap<u64, usize> = FxHashMap::default();
    let mut bucket_of_hash: FxHashMap<u64, usize> = FxHashMap::default();
    let mut buckets: Vec<Bucket> = Vec::new();
    let mut key: Vec<Value> = Vec::with_capacity(keys.len());
    for (pos, &r) in rows.iter().enumerate() {
        let node = memo_column.map(|c| c.map_or(0, |c| table.row(r)[c].raw()));
        if let Some(&b) = node.and_then(|n| bucket_of_node.get(&n)) {
            buckets[b].members.push(pos);
            continue;
        }
        if let Err(err) = eval_key(r, &mut key) {
            // Report the error a pass in canonical order meets first.
            let mut order: Vec<usize> = (0..rows.len()).collect();
            canonical.sort_by(&mut order, |&p| p);
            let first = order
                .into_iter()
                .find_map(|p| eval_key(rows[p], &mut key).err());
            return Err(first.unwrap_or(err));
        }
        let mut hasher = FxHasher::default();
        for v in &key {
            hasher.write_u64(v.loose_hash());
        }
        let b = *bucket_of_hash.entry(hasher.finish()).or_insert_with(|| {
            buckets.push(Bucket {
                uniform: key.iter().all(|v| v.loose_eq(v)),
                key: key.clone(),
                members: Vec::new(),
            });
            buckets.len() - 1
        });
        let bucket = &mut buckets[b];
        bucket.uniform &= bucket.key == key;
        bucket.members.push(pos);
        if let Some(n) = node {
            bucket_of_node.insert(n, b);
        }
    }

    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(buckets.len());
    for mut bucket in buckets {
        if bucket.uniform {
            if ordered {
                canonical.sort_by(&mut bucket.members, |&p| p);
            } else {
                let first = canonical.first(&bucket.members);
                bucket.members.swap(0, first);
            }
            groups.push(bucket.members);
            continue;
        }
        canonical.sort_by(&mut bucket.members, |&p| p);
        let mut local: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        for pos in bucket.members {
            eval_key(rows[pos], &mut key)?;
            match local
                .iter_mut()
                .find(|(k, _)| k.iter().zip(&key).all(|(a, c)| a.loose_eq(c)))
            {
                Some((_, members)) => members.push(pos),
                None => local.push((key.clone(), vec![pos])),
            }
        }
        groups.extend(local.into_iter().map(|(_, members)| members));
    }
    canonical.sort_by(&mut groups, |members| members[0]);
    for members in &mut groups {
        for pos in members.iter_mut() {
            *pos = rows[*pos];
        }
    }
    Ok(groups)
}

/// One canonical sort key per position in a list of table rows: the
/// row's raw ids in variable-name order, packed most significant first
/// into one integer, with the position in the low bits. Ids take the
/// bits of the largest id among the rows. The position bits make every
/// key distinct and break ties between equal rows by position, as a
/// stable sort would, so integer order is the canonical order exactly
/// and an unstable sort is safe. A key wider than 128 bits falls back
/// to ranking the rows with the column-by-column comparator.
struct CanonicalKeys {
    keys: PackedKeys,
    pos_bits: u32,
}

enum PackedKeys {
    Narrow(Vec<u64>),
    Wide(Vec<u128>),
}

impl CanonicalKeys {
    fn new(table: &MatchTable, rows: &[usize], by_name: &[usize]) -> Self {
        let bits = |x: u64| u64::BITS - x.leading_zeros();
        let pos_bits = bits(rows.len().saturating_sub(1) as u64);
        let mut max_id = 0;
        for &r in rows {
            for n in table.row(r) {
                max_id = max_id.max(n.raw());
            }
        }
        let id_bits = bits(max_id);
        let width = id_bits as usize * by_name.len() + pos_bits as usize;
        let pack = |pos: usize| {
            let row = table.row(rows[pos]);
            let ids = by_name
                .iter()
                .fold(0u128, |k, &c| (k << id_bits) | u128::from(row[c].raw()));
            (ids << pos_bits) | pos as u128
        };
        let keys = if width <= 64 {
            PackedKeys::Narrow((0..rows.len()).map(|pos| pack(pos) as u64).collect())
        } else if width <= 128 {
            PackedKeys::Wide((0..rows.len()).map(pack).collect())
        } else {
            let mut order: Vec<usize> = (0..rows.len()).collect();
            order.sort_by(|&a, &b| {
                let (ra, rb) = (table.row(rows[a]), table.row(rows[b]));
                by_name
                    .iter()
                    .map(|&c| ra[c].raw().cmp(&rb[c].raw()))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
            let mut keys = vec![0u64; rows.len()];
            for (rank, &pos) in order.iter().enumerate() {
                keys[pos] = (rank as u64) << pos_bits | pos as u64;
            }
            PackedKeys::Narrow(keys)
        };
        CanonicalKeys { keys, pos_bits }
    }

    /// Every position, in canonical order.
    fn into_order(self) -> Vec<usize> {
        let mask = (1u128 << self.pos_bits) - 1;
        match self.keys {
            PackedKeys::Narrow(mut keys) => {
                keys.sort_unstable();
                keys.into_iter()
                    .map(|k| (u128::from(k) & mask) as usize)
                    .collect()
            }
            PackedKeys::Wide(mut keys) => {
                keys.sort_unstable();
                keys.into_iter().map(|k| (k & mask) as usize).collect()
            }
        }
    }

    /// Sorts `items` into the canonical order of the position each
    /// names (the positions must be distinct).
    fn sort_by<T>(&self, items: &mut [T], pos: impl Fn(&T) -> usize) {
        match &self.keys {
            PackedKeys::Narrow(keys) => items.sort_unstable_by_key(|t| keys[pos(t)]),
            PackedKeys::Wide(keys) => items.sort_unstable_by_key(|t| keys[pos(t)]),
        }
    }

    /// Index in `positions` of the canonically first position.
    fn first(&self, positions: &[usize]) -> usize {
        let first = match &self.keys {
            PackedKeys::Narrow(keys) => positions.iter().enumerate().min_by_key(|(_, &p)| keys[p]),
            PackedKeys::Wide(keys) => positions.iter().enumerate().min_by_key(|(_, &p)| keys[p]),
        };
        first.map_or(0, |(i, _)| i)
    }
}

/// Is `to` reachable from `from` in `min..=max` hops over edges whose
/// label matches `label` (any label when `None`)?
fn within_hops<G: AttributedView + ?Sized>(
    g: &G,
    from: NodeId,
    to: NodeId,
    label: Option<&str>,
    min: usize,
    max: usize,
) -> bool {
    // States are (node, depth): a walk may need to revisit a node at a
    // greater depth to satisfy `min`, so nodes are not globally marked.
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

/// A projection with its expression resolved to table columns.
enum Column {
    Expr(RowExpr),
    Aggregate(Aggregate, Option<RowExpr>),
}

impl Column {
    fn resolve(p: &Projection, vars: &[String]) -> Result<Self> {
        Ok(match p {
            Projection::Expr { expr, .. } => Column::Expr(RowExpr::resolve(expr, vars)?),
            Projection::Aggregate { agg, expr, .. } => Column::Aggregate(
                *agg,
                expr.as_ref()
                    .map(|e| RowExpr::resolve(e, vars))
                    .transpose()?,
            ),
        })
    }
}

/// An [`Expr`] with each variable resolved to its column in the match
/// table, evaluated against one row of node ids — the one expression
/// evaluator of the finishing stage.
enum RowExpr {
    Lit(Value),
    /// A bare variable or `var.id`: the bound node's raw id.
    Id(usize),
    /// `var.label`.
    Label(usize),
    /// `var.degree`.
    Degree(usize),
    /// `var.key` for a stored property.
    Prop(usize, String),
    Not(Box<RowExpr>),
    Bin(BinOp, Box<RowExpr>, Box<RowExpr>),
}

impl RowExpr {
    fn resolve(expr: &Expr, vars: &[String]) -> Result<Self> {
        let sub = |e: &Expr| Self::resolve(e, vars).map(Box::new);
        Ok(match expr {
            Expr::Lit(v) => RowExpr::Lit(v.clone()),
            Expr::Var(var) => RowExpr::Id(column(vars, var)?),
            Expr::Prop(var, key) => {
                let col = column(vars, var)?;
                match key.as_str() {
                    "id" => RowExpr::Id(col),
                    "label" => RowExpr::Label(col),
                    "degree" => RowExpr::Degree(col),
                    _ => RowExpr::Prop(col, key.clone()),
                }
            }
            Expr::Not(inner) => RowExpr::Not(sub(inner)?),
            Expr::Bin(op, lhs, rhs) => RowExpr::Bin(*op, sub(lhs)?, sub(rhs)?),
        })
    }

    /// Calls `f` with each column the expression reads.
    fn visit_columns(&self, f: &mut impl FnMut(usize)) {
        match self {
            RowExpr::Lit(_) => {}
            RowExpr::Id(c) | RowExpr::Label(c) | RowExpr::Degree(c) | RowExpr::Prop(c, _) => f(*c),
            RowExpr::Not(inner) => inner.visit_columns(f),
            RowExpr::Bin(_, lhs, rhs) => {
                lhs.visit_columns(f);
                rhs.visit_columns(f);
            }
        }
    }

    fn eval<G: AttributedView + ?Sized>(&self, g: &G, row: &[NodeId]) -> Result<Value> {
        match self {
            RowExpr::Lit(v) => Ok(v.clone()),
            RowExpr::Id(col) => Ok(Value::Int(row[*col].raw() as i64)),
            RowExpr::Label(col) => Ok(g
                .node_label(row[*col])
                .and_then(|s| g.label_text(s))
                .map(|t| Value::Str(t.to_owned()))
                .unwrap_or(Value::Null)),
            RowExpr::Degree(col) => Ok(Value::Int(g.degree(row[*col]) as i64)),
            RowExpr::Prop(col, key) => Ok(g.node_property(row[*col], key).unwrap_or(Value::Null)),
            RowExpr::Not(inner) => {
                let v = inner.eval(g, row)?;
                match v.as_bool() {
                    Some(b) => Ok(Value::Bool(!b)),
                    None => Err(GdmError::Type {
                        expected: "bool",
                        got: v.type_name().to_owned(),
                    }),
                }
            }
            RowExpr::Bin(op, lhs, rhs) => {
                let l = lhs.eval(g, row)?;
                // Short-circuit logic.
                match op {
                    BinOp::And => {
                        if !l.as_bool().unwrap_or(false) {
                            return Ok(Value::Bool(false));
                        }
                        let r = rhs.eval(g, row)?;
                        return Ok(Value::Bool(r.as_bool().unwrap_or(false)));
                    }
                    BinOp::Or => {
                        if l.as_bool().unwrap_or(false) {
                            return Ok(Value::Bool(true));
                        }
                        let r = rhs.eval(g, row)?;
                        return Ok(Value::Bool(r.as_bool().unwrap_or(false)));
                    }
                    _ => {}
                }
                let r = rhs.eval(g, row)?;
                match op {
                    BinOp::Eq => Ok(Value::Bool(l.loose_eq(&r))),
                    BinOp::Ne => Ok(Value::Bool(!l.loose_eq(&r))),
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        // Comparisons involving nulls are false, SQL-style.
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
}

/// The column `var` is bound in.
fn column(vars: &[String], var: &str) -> Result<usize> {
    vars.iter()
        .position(|v| v == var)
        .ok_or_else(|| GdmError::InvalidArgument(format!("unbound variable {var:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdm_algo::pattern::PatternNode;
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

    fn select_people() -> SelectQuery {
        let mut q = SelectQuery::default();
        q.pattern.node(PatternNode::var("p").with_label("person"));
        q.projections.push(Projection::Expr {
            name: "name".into(),
            expr: Expr::Prop("p".into(), "name".into()),
        });
        q
    }

    #[test]
    fn project_properties() {
        let g = social();
        let rs = evaluate_select(&g, &select_people()).unwrap();
        assert_eq!(rs.columns, vec!["name"]);
        let names: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, vec!["ada", "bob", "cleo"]);
    }

    #[test]
    fn filter_rows() {
        let g = social();
        let mut q = select_people();
        q.filter = Some(Expr::bin(
            BinOp::Gt,
            Expr::Prop("p".into(), "age".into()),
            Expr::Lit(Value::from(30)),
        ));
        let rs = evaluate_select(&g, &q).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn aggregates() {
        let g = social();
        let mut q = select_people();
        q.projections = vec![
            Projection::Aggregate {
                name: "n".into(),
                agg: Aggregate::Count,
                expr: None,
            },
            Projection::Aggregate {
                name: "avg_age".into(),
                agg: Aggregate::Avg,
                expr: Some(Expr::Prop("p".into(), "age".into())),
            },
        ];
        let rs = evaluate_select(&g, &q).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(0, "n"), Some(&Value::from(3)));
        assert_eq!(rs.get(0, "avg_age"), Some(&Value::from(34.0)));
    }

    #[test]
    fn order_limit_skip() {
        let g = social();
        let mut q = select_people();
        q.order_by = Some((Expr::Prop("p".into(), "age".into()), false));
        q.limit = Some(2);
        let rs = evaluate_select(&g, &q).unwrap();
        let names: Vec<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        assert_eq!(names, vec!["cleo", "ada"]);

        q.skip = 1;
        q.limit = Some(1);
        let rs = evaluate_select(&g, &q).unwrap();
        assert_eq!(rs.rows[0][0], Value::from("ada"));
    }

    #[test]
    fn pattern_join() {
        let g = social();
        let mut q = SelectQuery::default();
        let a = q.pattern.node(PatternNode::var("a").with_label("person"));
        let b = q.pattern.node(PatternNode::var("b").with_label("person"));
        q.pattern.edge(a, b, Some("knows")).unwrap();
        q.projections.push(Projection::Expr {
            name: "pair".into(),
            expr: Expr::bin(
                BinOp::Add,
                Expr::Prop("a".into(), "name".into()),
                Expr::Prop("b".into(), "name".into()),
            ),
        });
        let rs = evaluate_select(&g, &q).unwrap();
        let mut pairs: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_owned())
            .collect();
        pairs.sort();
        assert_eq!(pairs, vec!["adabob", "bobcleo"]);
    }

    #[test]
    fn variable_length_paths() {
        let g = social();
        let mut q = SelectQuery::default();
        q.pattern
            .node(PatternNode::var("a").with_prop("name", "ada"));
        q.pattern.node(PatternNode::var("b").with_label("person"));
        q.var_paths.push(crate::ast::VarLengthEdge {
            from: "a".into(),
            to: "b".into(),
            label: Some("knows".into()),
            min: 1,
            max: 2,
        });
        q.projections.push(Projection::Expr {
            name: "name".into(),
            expr: Expr::Prop("b".into(), "name".into()),
        });
        let rs = evaluate_select(&g, &q).unwrap();
        let mut names: Vec<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
        names.sort();
        assert_eq!(names, vec!["bob", "cleo"]);

        // Narrow the range to exactly 2 hops.
        q.var_paths[0].min = 2;
        let rs = evaluate_select(&g, &q).unwrap();
        assert_eq!(rs.rows[0][0], Value::from("cleo"));
    }

    #[test]
    fn pseudo_properties() {
        let g = social();
        let mut q = select_people();
        q.projections = vec![
            Projection::Expr {
                name: "label".into(),
                expr: Expr::Prop("p".into(), "label".into()),
            },
            Projection::Expr {
                name: "degree".into(),
                expr: Expr::Prop("p".into(), "degree".into()),
            },
        ];
        let rs = evaluate_select(&g, &q).unwrap();
        assert_eq!(rs.rows[0][0], Value::from("person"));
        assert_eq!(rs.rows[0][1], Value::from(2)); // ada: knows + works_at
    }

    #[test]
    fn distinct_removes_duplicates() {
        let g = social();
        let mut q = select_people();
        q.projections = vec![Projection::Expr {
            name: "label".into(),
            expr: Expr::Prop("p".into(), "label".into()),
        }];
        q.distinct = true;
        let rs = evaluate_select(&g, &q).unwrap();
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn distinct_orders_by_each_kept_rows_own_key() {
        // `DISTINCT` removes the second `x`; the order keys must stay
        // paired with the rows that survive it.
        let mut g = PropertyGraph::new();
        for (name, age) in [("x", 1), ("x", 5), ("y", 3), ("z", 4)] {
            g.add_node("person", props! { "name" => name, "age" => age });
        }
        let mut q = select_people();
        q.distinct = true;
        q.order_by = Some((Expr::Prop("p".into(), "age".into()), true));
        for rs in [
            evaluate_select(&g, &q).unwrap(),
            evaluate_select_unplanned(&g, &q).unwrap(),
        ] {
            let names: Vec<&str> = rs.rows.iter().map(|r| r[0].as_str().unwrap()).collect();
            assert_eq!(names, vec!["x", "y", "z"]);
        }
    }

    #[test]
    fn missing_property_is_null() {
        let g = social();
        let mut q = select_people();
        q.projections = vec![Projection::Expr {
            name: "x".into(),
            expr: Expr::Prop("p".into(), "salary".into()),
        }];
        let rs = evaluate_select(&g, &q).unwrap();
        assert!(rs.rows.iter().all(|r| r[0].is_null()));
        // Comparisons with null are false, so filtering drops all rows.
        let mut q2 = select_people();
        q2.filter = Some(Expr::bin(
            BinOp::Gt,
            Expr::Prop("p".into(), "salary".into()),
            Expr::Lit(Value::from(0)),
        ));
        assert!(evaluate_select(&g, &q2).unwrap().is_empty());
    }

    #[test]
    fn grouping_reports_the_canonically_first_key_error() {
        let mut g = PropertyGraph::new();
        let x = g.add_node("person", props! { "h" => 1.5 });
        let y = g.add_node("person", props! { "h" => 1 });
        let text = "MATCH (p:person) RETURN p.h + p.label, count(*)";
        let crate::cypher::CypherStatement::Select(q) = crate::cypher::parse(text).unwrap() else {
            panic!("{text}: not a read query");
        };
        // Executor order puts `y` first; canonical order puts `x` first.
        let bindings: Vec<gdm_algo::pattern::Binding> = [y, x]
            .into_iter()
            .map(|n| [("p".to_owned(), n)].into_iter().collect())
            .collect();
        let table = MatchTable::from_bindings(&q.pattern, &bindings);
        let err = finish_select(&g, &q, &table).unwrap_err().to_string();
        assert!(err.contains("float and string"), "{err}");
    }

    /// The canonical order as the column-by-column comparator gives it:
    /// a stable sort of `rows`.
    fn comparator_order(table: &MatchTable, rows: &[usize], by_name: &[usize]) -> Vec<usize> {
        let mut sorted = rows.to_vec();
        sorted.sort_by(|&a, &b| {
            let (ra, rb) = (table.row(a), table.row(b));
            by_name
                .iter()
                .map(|&c| ra[c].raw().cmp(&rb[c].raw()))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        sorted
    }

    #[test]
    fn packed_keys_order_rows_as_the_comparator_does() {
        // SplitMix64 from a fixed seed.
        let mut state = 2012u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let bits = |x: u64| u64::BITS - x.leading_zeros();
        // Tables whose keys fit 64 bits, 128 bits, and neither.
        let mut seen = [0; 3];
        for round in 0..300 {
            let cols = 1 + round % 12;
            let mask = u64::MAX >> (next() % 64);
            let names: Vec<String> = (0..cols)
                .map(|c| format!("v{}", (c * 7 + round) % 12))
                .collect();
            let mut pattern = gdm_algo::pattern::Pattern::new();
            for name in &names {
                pattern.node(PatternNode::var(name.clone()));
            }
            let n = (next() % 200) as usize;
            let mut bindings: Vec<gdm_algo::pattern::Binding> = Vec::with_capacity(n);
            for i in 0..n {
                if i > 0 && next() % 8 == 0 {
                    // An equal row: ties break by position.
                    bindings.push(bindings[next() as usize % i].clone());
                    continue;
                }
                // Few values per column, so rows share long prefixes.
                let mut id = || match next() % 3 {
                    0 => 0,
                    1 => mask,
                    _ => next() & mask,
                };
                bindings.push(names.iter().map(|v| (v.clone(), NodeId(id()))).collect());
            }
            let table = MatchTable::from_bindings(&pattern, &bindings);
            let mut by_name: Vec<usize> = (0..cols).collect();
            by_name.sort_by(|&a, &b| table.vars()[a].cmp(&table.vars()[b]));
            let mut rows: Vec<usize> = (0..n).filter(|_| next() % 4 != 0).collect();
            if round % 2 == 1 {
                rows.reverse();
            }
            let max_id = rows.iter().flat_map(|&r| table.row(r)).map(|id| id.raw());
            let width = bits(max_id.max().unwrap_or(0)) as usize * cols
                + bits(rows.len().saturating_sub(1) as u64) as usize;
            seen[usize::from(width > 64) + usize::from(width > 128)] += 1;

            let want = comparator_order(&table, &rows, &by_name);
            assert_eq!(
                canonical_order(&table, &rows, &by_name),
                want,
                "round {round}"
            );
            let keys = CanonicalKeys::new(&table, &rows, &by_name);
            let mut positions: Vec<usize> = (0..rows.len()).collect();
            keys.sort_by(&mut positions, |&p| p);
            let by_positions: Vec<usize> = positions.iter().map(|&p| rows[p]).collect();
            assert_eq!(by_positions, want, "round {round}");
            if let Some(&first) = want.first() {
                let scrambled: Vec<usize> = positions.iter().rev().copied().collect();
                let at = keys.first(&scrambled);
                assert_eq!(rows[scrambled[at]], first, "round {round}");
            }
        }
        assert!(seen.iter().all(|&k| k > 20), "key widths covered: {seen:?}");
    }

    #[test]
    fn result_text_rendering() {
        let g = social();
        let rs = evaluate_select(&g, &select_people()).unwrap();
        let text = rs.to_text();
        assert!(text.contains("name"));
        assert!(text.contains("ada"));
    }
}
