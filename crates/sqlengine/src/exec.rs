//! Query execution: the SELECT pipeline, set operations, and CTEs.
//!
//! Every SELECT body runs through one pipeline, `exec_select`: the
//! FROM clause resolves into a columnar [`DataChunk`] (hash joins for
//! equi-joins), then WHERE, grouping, aggregates, windows and
//! projection run in that order. Each expression is lowered with
//! [`vector::bind`] and evaluated batch-at-a-time where it can be; only
//! an expression that does not lower (a subquery, a window call, an
//! expression over aggregates) is evaluated row by row with
//! [`eval_expr`], over rows materialized just for it: the group
//! representatives, or every member when HAVING, window functions or
//! conditional aggregates read them. Aggregates are accumulated in one
//! scan routed by group id. ORDER BY, DISTINCT and LIMIT run by index
//! over the output columns, shared with set operations. CTEs are
//! materialized once in definition order and visible to later CTEs and
//! the main body, matching the CTE-normal-form queries GenEdit
//! generates (§3.1.2).
//!
//! The row-at-a-time interpreter the pipeline must agree with is a
//! separate entry point, `execute_sql_reference`, used only by
//! differential tests and benchmarks.

use crate::aggregate::Accumulator;
use crate::array::{Array, DataChunk};
use crate::ast::*;
use crate::catalog::Database;
use crate::error::{EngineError, EngineResult};
use crate::eval::{
    collect_aggregate_calls, collect_unconditional_aggregates, collect_window_calls,
    contains_aggregate, eval_expr, AggValues, ColMeta, EvalEnv, Relation, Scope, SelectFn,
    WindowValues,
};
use crate::key::{key_elem, key_ref, row_key, KeyElem};
use crate::parser::parse_statement;
use crate::physical::{self, SqlCounters};
use crate::result::ResultSet;
use crate::value::Value;
use crate::vector::{self, Sel};
use crate::window::{compute_windows, unit_scope, Unit};
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::Arc;

/// CTE name → materialized result, keyed by lowercase name.
pub type CteMap = HashMap<String, Arc<ResultSet>>;

/// Parse and execute a SQL string against a database.
pub fn execute_sql(db: &Database, sql: &str) -> EngineResult<ResultSet> {
    let stmt = parse_statement(sql)?;
    execute(db, &stmt)
}

/// Timing and output-size observations from one [`execute_sql_timed`]
/// call. `rows`/`columns` are zero when the statement failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Time spent parsing the statement.
    pub parse: std::time::Duration,
    /// Time spent executing it (zero when parsing failed).
    pub execute: std::time::Duration,
    /// Rows in the result set.
    pub rows: usize,
    /// Columns in the result set.
    pub columns: usize,
    /// Columnar execution counters: scans, joins and groups.
    pub counters: SqlCounters,
}

impl ExecStats {
    /// Record into a metrics registry as `sql.<stage>.parse_ms` /
    /// `.execute_ms` histograms, a `sql.<stage>.rows` histogram, and the
    /// columnar counters (`.batches`, `.rows_scanned`,
    /// `.join_build_ms` / `.join_probe_ms`).
    pub fn record(&self, metrics: &genedit_telemetry::MetricsRegistry, stage: &str) {
        metrics.observe_duration(&format!("sql.{stage}.parse_ms"), self.parse);
        metrics.observe_duration(&format!("sql.{stage}.execute_ms"), self.execute);
        metrics.observe(&format!("sql.{stage}.rows"), self.rows as f64);
        metrics.observe(
            &format!("sql.{stage}.batches"),
            self.counters.batches as f64,
        );
        metrics.observe(
            &format!("sql.{stage}.rows_scanned"),
            self.counters.rows_scanned as f64,
        );
        metrics.observe(
            &format!("sql.{stage}.join_build_ms"),
            self.counters.join_build_ns as f64 / 1e6,
        );
        metrics.observe(
            &format!("sql.{stage}.join_probe_ms"),
            self.counters.join_probe_ns as f64 / 1e6,
        );
    }
}

/// Like [`execute_sql`], also reporting parse/execute timings and result
/// size — the telemetry view of the execution-guided validation loop.
pub fn execute_sql_timed(db: &Database, sql: &str) -> (EngineResult<ResultSet>, ExecStats) {
    let mut stats = ExecStats::default();
    let t = std::time::Instant::now();
    let stmt = match parse_statement(sql) {
        Ok(stmt) => {
            stats.parse = t.elapsed();
            stmt
        }
        Err(e) => {
            stats.parse = t.elapsed();
            return (Err(e), stats);
        }
    };
    physical::take_counters(); // reset, so stats cover only this call
    let t = std::time::Instant::now();
    let result = execute(db, &stmt);
    stats.execute = t.elapsed();
    stats.counters = physical::take_counters();
    if let Ok(rs) = &result {
        stats.rows = rs.row_count();
        stats.columns = rs.columns.len();
    }
    (result, stats)
}

/// Execute a parsed statement.
pub fn execute(db: &Database, stmt: &Statement) -> EngineResult<ResultSet> {
    execute_with(db, stmt, exec_select)
}

/// Execute a parsed statement with `select` running every SELECT body,
/// those of subqueries and CTEs included.
pub(crate) fn execute_with(
    db: &Database,
    stmt: &Statement,
    select: SelectFn,
) -> EngineResult<ResultSet> {
    let Statement::Query(q) = stmt;
    let ctes = CteMap::new();
    let env = EvalEnv {
        db,
        ctes: &ctes,
        select,
    };
    execute_query_with_outer(&env, q, None)
}

/// Execute a query, optionally with an outer row scope for correlated
/// subqueries; `env` carries the inherited CTEs.
pub fn execute_query_with_outer(
    env: &EvalEnv<'_>,
    query: &Query,
    outer: Option<&Scope<'_>>,
) -> EngineResult<ResultSet> {
    let mut ctes = env.ctes.clone();
    for cte in &query.ctes {
        // CTEs see previously defined CTEs but not the outer row scope.
        let result = execute_query_with_outer(
            &EvalEnv {
                ctes: &ctes,
                ..*env
            },
            &cte.query,
            None,
        )?;
        ctes.insert(cte.name.to_lowercase(), Arc::new(result));
    }
    let env = EvalEnv {
        ctes: &ctes,
        ..*env
    };

    match &query.body {
        SetExpr::Select(select) => (env.select)(&env, select, outer, &query.order_by, query.limit),
        SetExpr::SetOp { .. } => {
            let rs = exec_set_expr(&env, &query.body, outer)?;
            let n = rs.rows.len();
            let chunk = DataChunk::from_rows(rs.rows, rs.columns.len());
            finish(
                rs.columns,
                chunk.cols,
                n,
                &query.order_by,
                false,
                query.limit,
                |_| {
                    Err(EngineError::typing(
                        "ORDER BY over a set operation must reference output columns",
                    ))
                },
            )
        }
    }
}

fn exec_set_expr(
    env: &EvalEnv<'_>,
    body: &SetExpr,
    outer: Option<&Scope<'_>>,
) -> EngineResult<ResultSet> {
    match body {
        SetExpr::Select(select) => (env.select)(env, select, outer, &[], None),
        SetExpr::SetOp {
            op,
            all,
            left,
            right,
        } => {
            let l = exec_set_expr(env, left, outer)?;
            let r = exec_set_expr(env, right, outer)?;
            if l.columns.len() != r.columns.len() {
                return Err(EngineError::typing(format!(
                    "set operation arity mismatch: {} vs {} columns",
                    l.columns.len(),
                    r.columns.len()
                )));
            }
            let mut out = ResultSet::new(l.columns.clone());
            match (op, all) {
                (SetOp::Union, true) => {
                    out.rows = l.rows;
                    out.rows.extend(r.rows);
                }
                (SetOp::Union, false) => {
                    let mut seen: HashSet<Vec<KeyElem>> = HashSet::new();
                    for row in l.rows.into_iter().chain(r.rows) {
                        if seen.insert(row_key(&row)) {
                            out.rows.push(row);
                        }
                    }
                }
                (SetOp::Intersect, all) => {
                    let mut right_counts: HashMap<Vec<KeyElem>, usize> = HashMap::new();
                    for row in &r.rows {
                        *right_counts.entry(row_key(row)).or_insert(0) += 1;
                    }
                    let mut emitted: HashMap<Vec<KeyElem>, usize> = HashMap::new();
                    for row in l.rows {
                        let k = row_key(&row);
                        let avail = right_counts.get(&k).copied().unwrap_or(0);
                        let used = emitted.entry(k).or_insert(0);
                        let cap = if *all { avail } else { avail.min(1) };
                        if *used < cap {
                            *used += 1;
                            out.rows.push(row);
                        }
                    }
                }
                (SetOp::Except, all) => {
                    let mut right_counts: HashMap<Vec<KeyElem>, usize> = HashMap::new();
                    for row in &r.rows {
                        *right_counts.entry(row_key(row)).or_insert(0) += 1;
                    }
                    let mut emitted: HashMap<Vec<KeyElem>, usize> = HashMap::new();
                    for row in l.rows {
                        let k = row_key(&row);
                        let blocked = right_counts.get(&k).copied().unwrap_or(0);
                        let count = emitted.entry(k).or_insert(0);
                        *count += 1;
                        let keep = if *all {
                            *count > blocked
                        } else {
                            blocked == 0 && *count == 1
                        };
                        if keep {
                            out.rows.push(row);
                        }
                    }
                }
            }
            Ok(out)
        }
    }
}

// ----------------------------------------------------------------------
// The SELECT pipeline
// ----------------------------------------------------------------------

/// The rows one SELECT body works on: position `p` is chunk row
/// `sel[p]`, or row `p` when `sel` is `None`. The row-major copy that
/// row-evaluated expressions read is made on first use.
struct Rows {
    cols: Vec<ColMeta>,
    chunk: DataChunk,
    sel: Option<Vec<u32>>,
    rel: OnceCell<Relation>,
}

impl Rows {
    fn new(cols: Vec<ColMeta>, chunk: DataChunk, sel: Option<Vec<u32>>) -> Rows {
        Rows {
            cols,
            chunk,
            sel,
            rel: OnceCell::new(),
        }
    }

    fn len(&self) -> usize {
        self.sel.as_ref().map_or(self.chunk.len(), Vec::len)
    }

    fn sel(&self) -> Sel<'_> {
        self.sel.as_deref().map_or(Sel::All, Sel::Idx)
    }

    /// Every position's row, materialized once.
    fn relation(&self) -> &Relation {
        self.rel.get_or_init(|| Relation {
            cols: self.cols.clone(),
            rows: match &self.sel {
                None => self.chunk.to_rows(),
                Some(k) => self.chunk.take(k).into_rows(),
            },
        })
    }
}

/// The expressions of the SELECT list and ORDER BY, in that order.
fn select_exprs<'a>(
    select: &'a Select,
    order_by: &'a [OrderItem],
) -> impl Iterator<Item = &'a Expr> {
    let items = select.items.iter().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        _ => None,
    });
    items.chain(order_by.iter().map(|o| &o.expr))
}

/// Execute one SELECT body: FROM → WHERE → grouping → aggregates →
/// windows → projection → ORDER BY / DISTINCT / LIMIT.
pub(crate) fn exec_select(
    env: &EvalEnv<'_>,
    select: &Select,
    outer: Option<&Scope<'_>>,
    order_by: &[OrderItem],
    limit: Option<u64>,
) -> EngineResult<ResultSet> {
    let physical::Source { cols, chunk } = match &select.from {
        Some(tr) => physical::resolve_from_columnar(env, tr, outer)?,
        None => physical::Source {
            cols: Vec::new(),
            chunk: DataChunk::unit(),
        },
    };
    let mut rows = Rows::new(cols, chunk, None);

    // WHERE → surviving positions. A predicate that does not lower is
    // tested row by row, so the first failing row raises its error.
    if let Some(pred) = &select.selection {
        let keep: Vec<u32> = match vector::bind(pred, &rows.cols, outer) {
            Some(v) => vector::truth(&*vector::eval(&v, &rows.chunk, Sel::All)?)?
                .iter()
                .enumerate()
                .filter(|&(_, &t)| t == Some(true))
                .map(|(i, _)| i as u32)
                .collect(),
            None => {
                let rel = rows.relation();
                let mut keep = Vec::new();
                for (i, row) in rel.rows.iter().enumerate() {
                    let scope = Scope::row_scope(&rel.cols, row, outer);
                    if eval_expr(pred, &scope, env)?.as_bool()? == Some(true) {
                        keep.push(i as u32);
                    }
                }
                keep
            }
        };
        rows = Rows::new(rows.cols, rows.chunk, Some(keep));
    }

    let aggregated = !select.group_by.is_empty()
        || select.having.is_some()
        || select.items.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => contains_aggregate(expr),
            _ => false,
        });
    let mut window_exprs: Vec<&Expr> = Vec::new();
    for expr in select_exprs(select, order_by) {
        collect_window_calls(expr, &mut window_exprs);
    }

    let mut aggs = AggValues::new();
    let mut units: Vec<Unit>;
    if aggregated {
        let mut gids;
        (units, gids) = group(select, &rows, outer, env)?;
        if !select.group_by.is_empty() {
            physical::with_counters(|c| c.agg_groups += units.len() as u64);
        }
        // HAVING runs on the accumulator path before any aggregate is
        // precomputed, so it is exactly as lazy as the interpreter.
        if let Some(having) = &select.having {
            let rel = rows.relation();
            let mut new_gid = vec![u32::MAX; units.len()];
            let mut survivors = Vec::with_capacity(units.len());
            for (g, unit) in units.into_iter().enumerate() {
                let scope = unit_scope(rel, &unit, outer, None, None, 0, true);
                if eval_expr(having, &scope, env)?.as_bool()? == Some(true) {
                    new_gid[g] = survivors.len() as u32;
                    survivors.push(unit);
                }
            }
            units = survivors;
            for gid in &mut gids {
                *gid = new_gid[*gid as usize];
            }
        }
        let mut unconditional: Vec<&Expr> = Vec::new();
        let mut all_calls: Vec<&Expr> = Vec::new();
        for expr in select_exprs(select, order_by) {
            collect_unconditional_aggregates(expr, &mut unconditional);
            collect_aggregate_calls(expr, &mut all_calls);
        }
        aggs = precompute_aggregates(&unconditional, &rows, units.len(), &gids, outer)?;
        // Nothing reads group members any more: keep only one
        // representative row per group.
        if select.having.is_none()
            && window_exprs.is_empty()
            && all_calls.iter().all(|c| aggs.contains_key(&c.to_string()))
        {
            let sel = rows.sel();
            let reps: Vec<u32> = units
                .iter()
                .filter(|u| u.rep != usize::MAX)
                .map(|u| sel.at(u.rep))
                .collect();
            rows = Rows::new(rows.cols, rows.chunk.take(&reps), None);
            let mut next = 0;
            for u in &mut units {
                u.members = Vec::new();
                if u.rep != usize::MAX {
                    u.rep = next;
                    next += 1;
                }
            }
        }
    } else {
        units = (0..rows.len())
            .map(|rep| Unit {
                rep,
                members: Vec::new(),
            })
            .collect();
    }

    let windows = if window_exprs.is_empty() {
        WindowValues::new()
    } else {
        compute_windows(
            rows.relation(),
            &units,
            &window_exprs,
            outer,
            env,
            aggregated,
        )?
    };
    let proj = Projection::new(&rows, &units, outer, env, &windows, &aggs, aggregated);

    let n = units.len();
    let mut out_cols: Vec<String> = Vec::new();
    let mut arrays: Vec<Arc<Array>> = Vec::new();
    for item in &select.items {
        let qualifier = match item {
            SelectItem::Expr { expr, alias } => {
                out_cols.push(output_name(expr, alias.as_deref()));
                arrays.push(proj.column(expr)?);
                continue;
            }
            SelectItem::Wildcard => None,
            SelectItem::QualifiedWildcard(q) => Some(q),
        };
        if aggregated && n > 0 {
            return Err(EngineError::typing(match qualifier {
                None => "SELECT * is not allowed with GROUP BY / aggregates",
                Some(_) => "qualified * is not allowed with GROUP BY / aggregates",
            }));
        }
        let width = arrays.len();
        for (ci, c) in rows.cols.iter().enumerate() {
            let matches = qualifier.is_none_or(|q| {
                c.qualifier
                    .as_deref()
                    .is_some_and(|cq| cq.eq_ignore_ascii_case(q))
            });
            if matches {
                out_cols.push(c.name.clone());
                arrays.push(proj.source_column(ci));
            }
        }
        if let Some(q) = qualifier {
            if arrays.len() == width && n > 0 {
                return Err(EngineError::binding(format!("no such table alias {q}")));
            }
        }
    }

    finish(
        out_cols,
        arrays,
        n,
        order_by,
        select.distinct,
        limit,
        |expr| {
            if select.distinct {
                return Err(EngineError::typing(
                    "ORDER BY expression must appear in SELECT DISTINCT output",
                ));
            }
            proj.column(expr)
        },
    )
}

/// GROUP BY: the groups in first-occurrence order, plus each position's
/// group id. The keys are batch-evaluated when all of them lower, else
/// row by row (key by key within a row, as the interpreter raises
/// errors). Without GROUP BY there is one group of every row, whose
/// representative is `usize::MAX` when there are no rows.
fn group(
    select: &Select,
    rows: &Rows,
    outer: Option<&Scope<'_>>,
    env: &EvalEnv<'_>,
) -> EngineResult<(Vec<Unit>, Vec<u32>)> {
    let n = rows.len();
    if select.group_by.is_empty() {
        let rep = if n == 0 { usize::MAX } else { 0 };
        let unit = Unit {
            rep,
            members: (0..n).collect(),
        };
        return Ok((vec![unit], vec![0; n]));
    }
    let bound: Option<Vec<vector::VExpr>> = select
        .group_by
        .iter()
        .map(|g| vector::bind(g, &rows.cols, outer))
        .collect();
    let keys: Vec<Arc<Array>> = match bound {
        Some(vs) => vs
            .iter()
            .map(|v| vector::eval(v, &rows.chunk, rows.sel()))
            .collect::<EngineResult<_>>()?,
        None => {
            let rel = rows.relation();
            let mut vals: Vec<Vec<Value>> = select
                .group_by
                .iter()
                .map(|_| Vec::with_capacity(n))
                .collect();
            for row in &rel.rows {
                let scope = Scope::row_scope(&rel.cols, row, outer);
                for (g, col) in select.group_by.iter().zip(&mut vals) {
                    col.push(eval_expr(g, &scope, env)?);
                }
            }
            vals.into_iter()
                .map(|v| Arc::new(Array::from_values(v)))
                .collect()
        }
    };
    Ok(match keys.as_slice() {
        // One key probes with a borrowed key: no allocation per row.
        [k] => assign_groups(n, |i| key_ref(k.at(i))),
        _ => assign_groups(n, |i| {
            keys.iter().map(|k| key_ref(k.at(i))).collect::<Vec<_>>()
        }),
    })
}

fn assign_groups<K: Hash + Eq>(n: usize, key: impl Fn(usize) -> K) -> (Vec<Unit>, Vec<u32>) {
    let mut index: HashMap<K, u32> = HashMap::new();
    let mut units: Vec<Unit> = Vec::new();
    let mut gids: Vec<u32> = Vec::with_capacity(n);
    for i in 0..n {
        let g = *index.entry(key(i)).or_insert_with(|| {
            units.push(Unit {
                rep: i,
                members: Vec::new(),
            });
            (units.len() - 1) as u32
        });
        units[g as usize].members.push(i);
        gids.push(g);
    }
    (units, gids)
}

/// Accumulate the aggregate `calls` in one scan over the rows, routing
/// each position to its group's accumulator by `gids` (`u32::MAX`: a
/// group HAVING dropped, never evaluated). Each group sees its members
/// in ascending order, as the interpreter accumulates them, so float
/// sums, DISTINCT sets and overflow match exactly. Only COUNT(*) and
/// one-argument calls whose argument lowers are precomputed; the rest
/// stay on the accumulator path, which raises their exact errors.
fn precompute_aggregates(
    calls: &[&Expr],
    rows: &Rows,
    groups: usize,
    gids: &[u32],
    outer: Option<&Scope<'_>>,
) -> EngineResult<AggValues> {
    let dropped = gids.contains(&u32::MAX);
    let (live_rows, live_gids): (Vec<u32>, Vec<u32>) = if dropped {
        let sel = rows.sel();
        (0..gids.len())
            .filter(|&p| gids[p] != u32::MAX)
            .map(|p| (sel.at(p), gids[p]))
            .unzip()
    } else {
        (Vec::new(), Vec::new())
    };
    let (sel, gids) = if dropped {
        (Sel::Idx(&live_rows), &live_gids[..])
    } else {
        (rows.sel(), gids)
    };

    let mut out = AggValues::new();
    for &expr in calls {
        let key = expr.to_string();
        let Expr::Function(call) = expr else {
            continue;
        };
        if out.contains_key(&key) {
            continue;
        }
        let arg = match call.args.as_slice() {
            _ if call.star => None,
            [arg] => match vector::bind(arg, &rows.cols, outer) {
                Some(v) => Some(vector::eval(&v, &rows.chunk, sel)?),
                None => continue,
            },
            _ => continue,
        };
        let mut accs = (0..groups)
            .map(|_| Accumulator::for_function(&call.name, call.distinct, call.star))
            .collect::<EngineResult<Vec<_>>>()?;
        for (i, &g) in gids.iter().enumerate() {
            match &arg {
                None => accs[g as usize].update(&Value::Integer(1))?,
                Some(a) => accs[g as usize].update(&a.get(i))?,
            }
        }
        out.insert(key, accs.into_iter().map(Accumulator::finish).collect());
    }
    Ok(out)
}

/// Evaluates expressions once per projection unit.
struct Projection<'a> {
    rows: &'a Rows,
    units: &'a [Unit],
    outer: Option<&'a Scope<'a>>,
    env: &'a EvalEnv<'a>,
    windows: &'a WindowValues,
    aggs: &'a AggValues,
    aggregated: bool,
    /// Chunk rows of the unit representatives; `None` when those are
    /// exactly the rows' positions in order.
    reps: Option<Vec<u32>>,
    /// The single empty implicit group, which has no row to lower over.
    empty_group: bool,
}

impl<'a> Projection<'a> {
    fn new(
        rows: &'a Rows,
        units: &'a [Unit],
        outer: Option<&'a Scope<'a>>,
        env: &'a EvalEnv<'a>,
        windows: &'a WindowValues,
        aggs: &'a AggValues,
        aggregated: bool,
    ) -> Projection<'a> {
        let identity =
            units.len() == rows.len() && units.iter().enumerate().all(|(i, u)| u.rep == i);
        let sel = rows.sel();
        let reps = (!identity).then(|| {
            units
                .iter()
                .filter(|u| u.rep != usize::MAX)
                .map(|u| sel.at(u.rep))
                .collect()
        });
        Projection {
            rows,
            units,
            outer,
            env,
            windows,
            aggs,
            aggregated,
            reps,
            empty_group: units.iter().any(|u| u.rep == usize::MAX),
        }
    }

    fn rep_sel(&self) -> Sel<'_> {
        match &self.reps {
            Some(r) => Sel::Idx(r),
            None => self.rows.sel(),
        }
    }

    /// Source column `ci` at every unit's representative.
    fn source_column(&self, ci: usize) -> Arc<Array> {
        let col = &self.rows.chunk.cols[ci];
        match self.rep_sel() {
            Sel::All => Arc::clone(col),
            Sel::Idx(idx) => Arc::new(col.gather(idx)),
        }
    }

    /// `expr` for every unit: batch-evaluated over the representatives
    /// when it lowers, else row by row in the unit's scope.
    fn column(&self, expr: &Expr) -> EngineResult<Arc<Array>> {
        if !self.empty_group {
            if let Some(v) = vector::bind(expr, &self.rows.cols, self.outer) {
                return vector::eval(&v, &self.rows.chunk, self.rep_sel());
            }
        }
        let rel = self.rows.relation();
        let mut vals = Vec::with_capacity(self.units.len());
        for (ui, unit) in self.units.iter().enumerate() {
            let scope = unit_scope(
                rel,
                unit,
                self.outer,
                Some(self.windows),
                Some(self.aggs),
                ui,
                self.aggregated,
            );
            vals.push(eval_expr(expr, &scope, self.env)?);
        }
        Ok(Arc::new(Array::from_values(vals)))
    }
}

// ----------------------------------------------------------------------
// ORDER BY, DISTINCT, LIMIT
// ----------------------------------------------------------------------

/// Apply ORDER BY, DISTINCT and LIMIT by index to `n` output rows held
/// as columns. `expr_key` supplies the sort key of an ORDER BY item that
/// names no output column.
fn finish(
    columns: Vec<String>,
    arrays: Vec<Arc<Array>>,
    n: usize,
    order_by: &[OrderItem],
    distinct: bool,
    limit: Option<u64>,
    mut expr_key: impl FnMut(&Expr) -> EngineResult<Arc<Array>>,
) -> EngineResult<ResultSet> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    if !order_by.is_empty() {
        let mut keys: Vec<Vec<Value>> =
            (0..n).map(|_| Vec::with_capacity(order_by.len())).collect();
        for item in order_by {
            let key = match order_key_source(item, &columns)? {
                OrderSource::OutputColumn(ci) => Arc::clone(&arrays[ci]),
                OrderSource::Expression => expr_key(&item.expr)?,
            };
            for (ri, k) in keys.iter_mut().enumerate() {
                k.push(key.get(ri));
            }
        }
        order.sort_by(|&a, &b| {
            let (ka, kb) = (&keys[a as usize], &keys[b as usize]);
            for (k, item) in order_by.iter().enumerate() {
                let ord = ka[k].total_cmp(&kb[k]);
                let ord = if item.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b) // stable
        });
    }
    // DISTINCT after ORDER BY keeps the first occurrence in sort order.
    if distinct {
        let mut seen: HashSet<Vec<KeyElem>> = HashSet::new();
        order.retain(|&ri| {
            seen.insert(
                arrays
                    .iter()
                    .map(|a| key_elem(&a.get(ri as usize)))
                    .collect(),
            )
        });
    }
    if let Some(cap) = limit {
        order.truncate(cap as usize);
    }
    let identity = order.len() == n && order.iter().enumerate().all(|(i, &v)| v == i as u32);
    let chunk = if identity {
        DataChunk::new(arrays, n)
    } else {
        let gathered = arrays.iter().map(|a| Arc::new(a.gather(&order))).collect();
        DataChunk::new(gathered, order.len())
    };
    Ok(ResultSet::from_chunk(columns, chunk))
}

pub(crate) fn output_name(expr: &Expr, alias: Option<&str>) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        other => other.to_string(),
    }
}

pub(crate) enum OrderSource {
    OutputColumn(usize),
    Expression,
}

pub(crate) fn order_key_source(item: &OrderItem, out_cols: &[String]) -> EngineResult<OrderSource> {
    match &item.expr {
        Expr::Literal(Literal::Integer(n)) => {
            let idx = *n - 1;
            if idx < 0 || idx as usize >= out_cols.len() {
                return Err(EngineError::binding(format!(
                    "ORDER BY position {n} is out of range"
                )));
            }
            Ok(OrderSource::OutputColumn(idx as usize))
        }
        Expr::Column { table: None, name } => {
            let matches: Vec<usize> = out_cols
                .iter()
                .enumerate()
                .filter(|(_, c)| c.eq_ignore_ascii_case(name))
                .map(|(i, _)| i)
                .collect();
            match matches.len() {
                1 => Ok(OrderSource::OutputColumn(matches[0])),
                _ => Ok(OrderSource::Expression),
            }
        }
        _ => Ok(OrderSource::Expression),
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, Table};
    use crate::value::{DataType, Date};

    fn test_db() -> Database {
        let mut db = Database::new("test");
        let mut orgs = Table::new(
            "ORGS",
            vec![
                Column::new("ID", DataType::Integer),
                Column::new("NAME", DataType::Text),
                Column::new("COUNTRY", DataType::Text),
                Column::new("OWNED", DataType::Text),
            ],
        );
        for (id, name, country, owned) in [
            (1, "Alpha", "Canada", "COC"),
            (2, "Beta", "Canada", "COC"),
            (3, "Gamma", "USA", "EXT"),
            (4, "Delta", "Canada", "EXT"),
            (5, "Epsilon", "Mexico", "COC"),
        ] {
            orgs.push_row(vec![
                Value::Integer(id),
                name.into(),
                country.into(),
                owned.into(),
            ])
            .unwrap();
        }
        db.add_table(orgs).unwrap();

        let mut fin = Table::new(
            "FINANCIALS",
            vec![
                Column::new("ORG_ID", DataType::Integer),
                Column::new("FIN_MONTH", DataType::Date),
                Column::new("REVENUE", DataType::Integer),
            ],
        );
        let rows = [
            (1, (2023, 2), 100),
            (1, (2023, 5), 150),
            (2, (2023, 2), 200),
            (2, (2023, 5), 180),
            (3, (2023, 2), 300),
            (3, (2023, 5), 330),
            (5, (2023, 5), 90),
        ];
        for (org, (y, m), rev) in rows {
            fin.push_row(vec![
                Value::Integer(org),
                Value::Date(Date::new(y, m, 1).unwrap()),
                Value::Integer(rev),
            ])
            .unwrap();
        }
        db.add_table(fin).unwrap();
        db
    }

    fn run(sql: &str) -> ResultSet {
        let db = test_db();
        execute_sql(&db, sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    fn run_err(sql: &str) -> EngineError {
        let db = test_db();
        execute_sql(&db, sql).unwrap_err()
    }

    fn ints(rs: &ResultSet) -> Vec<i64> {
        rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect()
    }

    fn texts(rs: &ResultSet, col: usize) -> Vec<String> {
        rs.rows.iter().map(|r| r[col].to_string()).collect()
    }

    #[test]
    fn select_constant() {
        let rs = run("SELECT 1 + 2 AS x");
        assert_eq!(rs.columns, vec!["x"]);
        assert_eq!(ints(&rs), vec![3]);
    }

    #[test]
    fn timed_execution_reports_stats() {
        let db = test_db();
        let (result, stats) = execute_sql_timed(&db, "SELECT ID, NAME FROM ORGS");
        assert!(result.is_ok());
        assert_eq!(stats.rows, 5);
        assert_eq!(stats.columns, 2);
        assert!(stats.parse > std::time::Duration::ZERO);
        assert!(stats.execute > std::time::Duration::ZERO);

        // Parse failure: no execution time, no rows.
        let (result, stats) = execute_sql_timed(&db, "SELEC nope");
        assert!(result.is_err());
        assert_eq!(stats.execute, std::time::Duration::ZERO);
        assert_eq!(stats.rows, 0);

        // Binding failure: executed (and failed), zero-size output.
        let (result, stats) = execute_sql_timed(&db, "SELECT * FROM MISSING");
        assert!(result.is_err());
        assert_eq!((stats.rows, stats.columns), (0, 0));
    }

    #[test]
    fn exec_stats_record_into_registry() {
        let db = test_db();
        let metrics = genedit_telemetry::MetricsRegistry::new();
        let (_, stats) = execute_sql_timed(&db, "SELECT * FROM ORGS");
        stats.record(&metrics, "validate");
        let snap = metrics.snapshot();
        assert_eq!(snap.histograms["sql.validate.parse_ms"].count, 1);
        assert_eq!(snap.histograms["sql.validate.execute_ms"].count, 1);
        assert_eq!(snap.histograms["sql.validate.rows"].p50, 5.0);
    }

    #[test]
    fn where_filters() {
        let rs = run("SELECT NAME FROM ORGS WHERE COUNTRY = 'Canada' ORDER BY NAME");
        assert_eq!(texts(&rs, 0), vec!["Alpha", "Beta", "Delta"]);
    }

    #[test]
    fn wildcard_and_qualified_wildcard() {
        let rs = run("SELECT * FROM ORGS");
        assert_eq!(rs.columns.len(), 4);
        assert_eq!(rs.rows.len(), 5);
        let rs = run("SELECT o.* FROM ORGS o WHERE o.ID = 1");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.columns.len(), 4);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let rs = run("SELECT ID FROM ORGS ORDER BY ID DESC LIMIT 2");
        assert_eq!(ints(&rs), vec![5, 4]);
    }

    #[test]
    fn order_by_position() {
        let rs = run("SELECT NAME, ID FROM ORGS ORDER BY 2 DESC LIMIT 1");
        assert_eq!(texts(&rs, 0), vec!["Epsilon"]);
    }

    #[test]
    fn order_by_alias() {
        let rs = run("SELECT ID * 10 AS tens FROM ORGS ORDER BY tens DESC LIMIT 1");
        assert_eq!(ints(&rs), vec![50]);
    }

    #[test]
    fn group_by_aggregates() {
        let rs = run("SELECT COUNTRY, COUNT(*) AS n, SUM(ID) AS total FROM ORGS \
             GROUP BY COUNTRY ORDER BY COUNTRY");
        assert_eq!(texts(&rs, 0), vec!["Canada", "Mexico", "USA"]);
        assert_eq!(
            rs.rows
                .iter()
                .map(|r| r[1].as_i64().unwrap())
                .collect::<Vec<_>>(),
            vec![3, 1, 1]
        );
        assert_eq!(
            rs.rows
                .iter()
                .map(|r| r[2].as_i64().unwrap())
                .collect::<Vec<_>>(),
            vec![7, 5, 3]
        );
    }

    #[test]
    fn implicit_whole_table_aggregate() {
        let rs = run("SELECT COUNT(*), MIN(ID), MAX(ID), AVG(ID) FROM ORGS");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0].as_i64(), Some(5));
        assert_eq!(rs.rows[0][1].as_i64(), Some(1));
        assert_eq!(rs.rows[0][2].as_i64(), Some(5));
        assert_eq!(rs.rows[0][3].as_f64(), Some(3.0));
    }

    #[test]
    fn aggregate_over_empty_table_yields_one_row() {
        let rs = run("SELECT COUNT(*) FROM ORGS WHERE ID > 1000");
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0].as_i64(), Some(0));
    }

    #[test]
    fn group_by_on_empty_input_yields_no_rows() {
        let rs = run("SELECT COUNTRY, COUNT(*) FROM ORGS WHERE ID > 1000 GROUP BY COUNTRY");
        assert!(rs.rows.is_empty());
        assert_eq!(rs.columns.len(), 2);
    }

    #[test]
    fn having_filters_groups() {
        let rs = run("SELECT COUNTRY FROM ORGS GROUP BY COUNTRY HAVING COUNT(*) > 1");
        assert_eq!(texts(&rs, 0), vec!["Canada"]);
    }

    #[test]
    fn join_inner() {
        let rs = run(
            "SELECT o.NAME, f.REVENUE FROM ORGS o JOIN FINANCIALS f ON o.ID = f.ORG_ID \
             WHERE f.REVENUE > 250 ORDER BY f.REVENUE",
        );
        assert_eq!(texts(&rs, 0), vec!["Gamma", "Gamma"]);
    }

    #[test]
    fn join_left_pads_nulls() {
        let rs = run(
            "SELECT o.NAME, f.REVENUE FROM ORGS o LEFT JOIN FINANCIALS f ON o.ID = f.ORG_ID \
             WHERE f.REVENUE IS NULL",
        );
        // Delta (id 4) has no financials.
        assert_eq!(texts(&rs, 0), vec!["Delta"]);
    }

    #[test]
    fn cross_join_counts() {
        let rs = run("SELECT COUNT(*) FROM ORGS a CROSS JOIN ORGS b");
        assert_eq!(rs.rows[0][0].as_i64(), Some(25));
    }

    #[test]
    fn conditional_aggregation_paper_pattern() {
        // The paper's Q_fin-perf pattern: quarterly pivot via CASE in SUM.
        let rs = run(
            "SELECT o.NAME, \
               SUM(CASE WHEN TO_CHAR(f.FIN_MONTH, 'YYYY\"Q\"Q') = '2023Q1' THEN f.REVENUE ELSE 0 END) AS q1, \
               SUM(CASE WHEN TO_CHAR(f.FIN_MONTH, 'YYYY\"Q\"Q') = '2023Q2' THEN f.REVENUE ELSE 0 END) AS q2 \
             FROM ORGS o JOIN FINANCIALS f ON o.ID = f.ORG_ID \
             GROUP BY o.NAME ORDER BY o.NAME",
        );
        assert_eq!(texts(&rs, 0), vec!["Alpha", "Beta", "Epsilon", "Gamma"]);
        let q1: Vec<i64> = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        let q2: Vec<i64> = rs.rows.iter().map(|r| r[2].as_i64().unwrap()).collect();
        assert_eq!(q1, vec![100, 200, 0, 300]);
        assert_eq!(q2, vec![150, 180, 90, 330]);
    }

    #[test]
    fn cte_pipeline() {
        let rs = run(
            "WITH canadian AS (SELECT ID, NAME FROM ORGS WHERE COUNTRY = 'Canada'), \
                  rich AS (SELECT c.NAME, SUM(f.REVENUE) AS total \
                           FROM canadian c JOIN FINANCIALS f ON c.ID = f.ORG_ID \
                           GROUP BY c.NAME) \
             SELECT NAME, total FROM rich ORDER BY total DESC",
        );
        assert_eq!(texts(&rs, 0), vec!["Beta", "Alpha"]);
    }

    #[test]
    fn cte_shadows_table() {
        let rs = run("WITH ORGS AS (SELECT 42 AS ID) SELECT ID FROM ORGS");
        assert_eq!(ints(&rs), vec![42]);
    }

    #[test]
    fn window_row_number() {
        let rs = run(
            "SELECT NAME, ROW_NUMBER() OVER (PARTITION BY COUNTRY ORDER BY ID) AS rn \
             FROM ORGS ORDER BY NAME",
        );
        let by_name: Vec<(String, i64)> = rs
            .rows
            .iter()
            .map(|r| (r[0].to_string(), r[1].as_i64().unwrap()))
            .collect();
        assert_eq!(
            by_name,
            vec![
                ("Alpha".into(), 1),
                ("Beta".into(), 2),
                ("Delta".into(), 3),
                ("Epsilon".into(), 1),
                ("Gamma".into(), 1),
            ]
        );
    }

    #[test]
    fn window_rank_with_ties() {
        let rs = run("SELECT OWNED, RANK() OVER (ORDER BY COUNTRY) AS r, \
                    DENSE_RANK() OVER (ORDER BY COUNTRY) AS d \
             FROM ORGS ORDER BY COUNTRY, OWNED");
        let ranks: Vec<i64> = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        let dense: Vec<i64> = rs.rows.iter().map(|r| r[2].as_i64().unwrap()).collect();
        assert_eq!(ranks, vec![1, 1, 1, 4, 5]);
        assert_eq!(dense, vec![1, 1, 1, 2, 3]);
    }

    #[test]
    fn window_aggregate_over_partition() {
        let rs =
            run("SELECT NAME, SUM(ID) OVER (PARTITION BY COUNTRY) AS s FROM ORGS ORDER BY NAME");
        let sums: Vec<i64> = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        // Canada: 1+2+4=7 (Alpha, Beta, Delta), Mexico 5, USA 3.
        assert_eq!(sums, vec![7, 7, 7, 5, 3]);
    }

    #[test]
    fn window_over_grouped_query() {
        let rs = run("SELECT COUNTRY, SUM(ID) AS s, \
                    RANK() OVER (ORDER BY SUM(ID) DESC) AS r \
             FROM ORGS GROUP BY COUNTRY ORDER BY r");
        assert_eq!(texts(&rs, 0), vec!["Canada", "Mexico", "USA"]);
    }

    #[test]
    fn distinct_dedupes() {
        let rs = run("SELECT DISTINCT COUNTRY FROM ORGS ORDER BY COUNTRY");
        assert_eq!(texts(&rs, 0), vec!["Canada", "Mexico", "USA"]);
    }

    #[test]
    fn count_distinct() {
        let rs = run("SELECT COUNT(DISTINCT COUNTRY) FROM ORGS");
        assert_eq!(rs.rows[0][0].as_i64(), Some(3));
    }

    #[test]
    fn in_subquery() {
        let rs = run(
            "SELECT NAME FROM ORGS WHERE ID IN (SELECT ORG_ID FROM FINANCIALS WHERE REVENUE > 250) ",
        );
        assert_eq!(texts(&rs, 0), vec!["Gamma"]);
    }

    #[test]
    fn not_in_subquery() {
        let rs = run(
            "SELECT NAME FROM ORGS WHERE ID NOT IN (SELECT ORG_ID FROM FINANCIALS) ORDER BY NAME",
        );
        assert_eq!(texts(&rs, 0), vec!["Delta"]);
    }

    #[test]
    fn correlated_exists() {
        let rs = run("SELECT NAME FROM ORGS o WHERE EXISTS \
             (SELECT 1 FROM FINANCIALS f WHERE f.ORG_ID = o.ID AND f.REVENUE > 250)");
        assert_eq!(texts(&rs, 0), vec!["Gamma"]);
    }

    #[test]
    fn scalar_subquery() {
        let rs = run("SELECT (SELECT MAX(REVENUE) FROM FINANCIALS) AS m");
        assert_eq!(rs.rows[0][0].as_i64(), Some(330));
    }

    #[test]
    fn correlated_scalar_subquery() {
        let rs = run(
            "SELECT NAME, (SELECT SUM(REVENUE) FROM FINANCIALS f WHERE f.ORG_ID = o.ID) AS t \
             FROM ORGS o ORDER BY NAME",
        );
        assert_eq!(rs.rows[0][1].as_i64(), Some(250)); // Alpha
        assert!(rs.rows[2][1].is_null()); // Delta: SUM of nothing is NULL
    }

    #[test]
    fn derived_table() {
        let rs = run("SELECT t.NAME FROM (SELECT NAME FROM ORGS WHERE COUNTRY = 'USA') AS t");
        assert_eq!(texts(&rs, 0), vec!["Gamma"]);
    }

    #[test]
    fn union_and_union_all() {
        let rs = run("SELECT COUNTRY FROM ORGS UNION SELECT COUNTRY FROM ORGS ORDER BY COUNTRY");
        assert_eq!(rs.rows.len(), 3);
        let rs = run("SELECT COUNTRY FROM ORGS UNION ALL SELECT COUNTRY FROM ORGS");
        assert_eq!(rs.rows.len(), 10);
    }

    #[test]
    fn intersect_and_except() {
        let rs = run("SELECT COUNTRY FROM ORGS WHERE OWNED = 'COC' \
             INTERSECT SELECT COUNTRY FROM ORGS WHERE OWNED = 'EXT'");
        assert_eq!(texts(&rs, 0), vec!["Canada"]);
        let rs =
            run("SELECT COUNTRY FROM ORGS EXCEPT SELECT COUNTRY FROM ORGS WHERE OWNED = 'EXT' ");
        let mut got = texts(&rs, 0);
        got.sort();
        assert_eq!(got, vec!["Mexico"]);
    }

    #[test]
    fn set_op_arity_mismatch() {
        let e = run_err("SELECT ID, NAME FROM ORGS UNION SELECT ID FROM ORGS");
        assert!(matches!(e, EngineError::Type { .. }));
    }

    #[test]
    fn unknown_table_is_binding_error() {
        let e = run_err("SELECT * FROM NOPE");
        assert!(matches!(e, EngineError::Binding { .. }));
        assert!(e.is_semantic());
    }

    #[test]
    fn unknown_column_is_binding_error() {
        let e = run_err("SELECT WIBBLE FROM ORGS");
        assert!(matches!(e, EngineError::Binding { .. }));
    }

    #[test]
    fn ambiguous_column_is_binding_error() {
        let e = run_err("SELECT ID FROM ORGS a JOIN ORGS b ON a.ID = b.ID");
        assert!(matches!(e, EngineError::Binding { .. }));
        assert!(e.to_string().contains("ambiguous"));
    }

    #[test]
    fn three_valued_logic_in_where() {
        // NULL comparisons must not satisfy WHERE.
        let rs = run(
            "SELECT o.NAME FROM ORGS o LEFT JOIN FINANCIALS f ON o.ID = f.ORG_ID \
             WHERE f.REVENUE > 0 OR f.REVENUE <= 0",
        );
        assert!(!texts(&rs, 0).contains(&"Delta".to_string()));
    }

    #[test]
    fn division_semantics() {
        let rs = run("SELECT 7 / 2, 7.0 / 2, 7 / 0, CAST(7 AS FLOAT) / 2");
        assert_eq!(rs.rows[0][0].as_i64(), Some(3)); // integer division
        assert_eq!(rs.rows[0][1].as_f64(), Some(3.5));
        assert!(rs.rows[0][2].is_null()); // divide by zero -> NULL
        assert_eq!(rs.rows[0][3].as_f64(), Some(3.5));
    }

    #[test]
    fn like_and_between() {
        let rs =
            run("SELECT NAME FROM ORGS WHERE NAME LIKE '%a' AND ID BETWEEN 1 AND 4 ORDER BY NAME");
        assert_eq!(texts(&rs, 0), vec!["Alpha", "Beta", "Delta", "Gamma"]);
    }

    #[test]
    fn case_without_else_is_null() {
        let rs = run("SELECT CASE WHEN 1 = 2 THEN 'x' END");
        assert!(rs.rows[0][0].is_null());
    }

    #[test]
    fn full_paper_query_shape_runs() {
        // A condensed Q_fin-perf: per-org RPV-style ratio change with
        // ranking, over the test data.
        let rs = run(
            "WITH F AS ( \
               SELECT ORG_ID, \
                 SUM(CASE WHEN TO_CHAR(FIN_MONTH, 'YYYY\"Q\"Q') = '2023Q1' THEN REVENUE ELSE 0 END) AS R1, \
                 SUM(CASE WHEN TO_CHAR(FIN_MONTH, 'YYYY\"Q\"Q') = '2023Q2' THEN REVENUE ELSE 0 END) AS R2 \
               FROM FINANCIALS GROUP BY ORG_ID \
             ), \
             D AS ( \
               SELECT o.NAME, CAST(f.R2 AS FLOAT) / NULLIF(f.R1, 0) AS growth, \
                      ROW_NUMBER() OVER (ORDER BY CAST(f.R2 AS FLOAT) / NULLIF(f.R1, 0) DESC) AS rnk \
               FROM F f JOIN ORGS o ON o.ID = f.ORG_ID \
               WHERE o.OWNED = 'COC' \
             ) \
             SELECT NAME, growth, rnk FROM D WHERE rnk <= 5 ORDER BY rnk",
        );
        // COC orgs with financials: Alpha (150/100=1.5), Beta (0.9),
        // Epsilon (90/0 -> NULL).
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][0].to_string(), "Alpha");
        assert!((rs.rows[0][1].as_f64().unwrap() - 1.5).abs() < 1e-9);
        assert_eq!(rs.rows[1][0].to_string(), "Beta");
        assert!(rs.rows[2][1].is_null()); // Epsilon's NULL growth ranks last? (nulls sort first asc; DESC -> last)
    }

    #[test]
    fn select_star_with_group_by_rejected() {
        let e = run_err("SELECT * FROM ORGS GROUP BY COUNTRY");
        assert!(matches!(e, EngineError::Type { .. }));
    }

    #[test]
    fn ranking_without_over_rejected() {
        let e = run_err("SELECT ROW_NUMBER() FROM ORGS");
        assert!(matches!(e, EngineError::Type { .. }));
    }

    #[test]
    fn group_concat() {
        let rs =
            run("SELECT COUNTRY, GROUP_CONCAT(NAME) FROM ORGS GROUP BY COUNTRY ORDER BY COUNTRY");
        assert_eq!(rs.rows[0][1].to_string(), "Alpha,Beta,Delta");
    }

    #[test]
    fn lag_and_lead_over_partition() {
        // Per-country revenue trail: LAG looks back in ID order.
        let rs = run(
            "SELECT ID, LAG(ID) OVER (PARTITION BY COUNTRY ORDER BY ID) AS prev, \
                    LEAD(ID) OVER (PARTITION BY COUNTRY ORDER BY ID) AS next \
             FROM ORGS ORDER BY ID",
        );
        // Canada: ids 1, 2, 4.
        let by_id: Vec<(i64, Option<i64>, Option<i64>)> = rs
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64(), r[2].as_i64()))
            .collect();
        assert_eq!(by_id[0], (1, None, Some(2)));
        assert_eq!(by_id[1], (2, Some(1), Some(4)));
        assert_eq!(by_id[3], (4, Some(2), None));
        // Singleton partitions see NULL on both sides.
        assert_eq!(by_id[2], (3, None, None));
    }

    #[test]
    fn lag_with_offset_and_default() {
        let rs = run("SELECT ID, LAG(ID, 2, 0) OVER (ORDER BY ID) AS l2 FROM ORGS ORDER BY ID");
        let l2: Vec<i64> = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        assert_eq!(l2, vec![0, 0, 1, 2, 3]);
    }

    #[test]
    fn first_and_last_value() {
        let rs = run(
            "SELECT COUNTRY, FIRST_VALUE(NAME) OVER (PARTITION BY COUNTRY ORDER BY ID) AS f, \
                    LAST_VALUE(NAME) OVER (PARTITION BY COUNTRY ORDER BY ID) AS l \
             FROM ORGS WHERE COUNTRY = 'Canada'",
        );
        for row in &rs.rows {
            assert_eq!(row[1].to_string(), "Alpha");
            assert_eq!(row[2].to_string(), "Delta");
        }
    }

    #[test]
    fn lag_requires_valid_offset() {
        let e = run_err("SELECT LAG(ID, ID) OVER (ORDER BY ID) FROM ORGS");
        assert!(matches!(e, EngineError::Type { .. }));
    }

    #[test]
    fn ntile_distribution() {
        let rs = run("SELECT ID, NTILE(2) OVER (ORDER BY ID) AS t FROM ORGS ORDER BY ID");
        let tiles: Vec<i64> = rs.rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
        assert_eq!(tiles, vec![1, 1, 1, 2, 2]);
    }

    #[test]
    fn having_without_group_by_gates_whole_table_aggregate() {
        // HAVING over the implicit single group: keeps or drops the one row.
        let rs = run("SELECT SUM(ID) FROM ORGS HAVING COUNT(*) > 3");
        assert_eq!(rs.rows.len(), 1);
        let rs = run("SELECT SUM(ID) FROM ORGS HAVING COUNT(*) > 99");
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn group_by_expression_key() {
        // Grouping on a computed key, not just a column.
        let rs = run("SELECT ID % 2 AS parity, COUNT(*) FROM ORGS GROUP BY ID % 2 ORDER BY parity");
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][1].as_i64(), Some(2)); // even: 2, 4
        assert_eq!(rs.rows[1][1].as_i64(), Some(3)); // odd: 1, 3, 5
    }

    #[test]
    fn case_simple_form_with_null_operand_matches_nothing() {
        // NULL = anything is unknown, so only ELSE fires.
        let rs = run("SELECT CASE NULL WHEN NULL THEN 'eq' ELSE 'else' END");
        assert_eq!(rs.rows[0][0].to_string(), "else");
    }

    #[test]
    fn in_list_with_null_is_three_valued() {
        // 1 IN (2, NULL) is unknown → excluded by WHERE but distinct from
        // false under NOT.
        let rs = run("SELECT ID FROM ORGS WHERE ID IN (99, NULL)");
        assert!(rs.rows.is_empty());
        let rs = run("SELECT ID FROM ORGS WHERE NOT (ID IN (99, NULL))");
        assert!(rs.rows.is_empty(), "NOT unknown is still unknown");
        let rs = run("SELECT ID FROM ORGS WHERE ID IN (1, NULL)");
        assert_eq!(ints(&rs), vec![1]);
    }

    #[test]
    fn order_by_null_aggregates_sort_first_ascending() {
        let rs = run("SELECT o.NAME, SUM(f.REVENUE) AS s FROM ORGS o \
             LEFT JOIN FINANCIALS f ON o.ID = f.ORG_ID \
             GROUP BY o.NAME ORDER BY s, o.NAME");
        assert!(
            rs.rows[0][1].is_null(),
            "NULL total sorts first: {:?}",
            rs.rows[0]
        );
        assert_eq!(rs.rows[0][0].to_string(), "Delta");
    }

    #[test]
    fn nested_cte_shadowing_inner_wins() {
        let rs = run("WITH x AS (SELECT 1 AS v) \
             SELECT * FROM (WITH x AS (SELECT 2 AS v) SELECT v FROM x) AS inner_q");
        assert_eq!(ints(&rs), vec![2]);
    }

    #[test]
    fn limit_larger_than_rows_is_harmless() {
        let rs = run("SELECT ID FROM ORGS LIMIT 999");
        assert_eq!(rs.rows.len(), 5);
    }

    #[test]
    fn concat_operator_and_null_propagation() {
        let rs = run("SELECT 'a' || 'b' || 'c', 'a' || NULL");
        assert_eq!(rs.rows[0][0].to_string(), "abc");
        assert!(rs.rows[0][1].is_null());
    }

    #[test]
    fn distinct_on_multiple_columns() {
        let rs = run("SELECT DISTINCT COUNTRY, OWNED FROM ORGS");
        // (Canada,COC),(Canada,EXT),(USA,EXT),(Mexico,COC)
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn union_mixed_numeric_types_compare_by_value() {
        // 1 (int) and 1.0 (float) are distinct under group_key — column
        // typing is preserved, as in the EX metric.
        let rs = run("SELECT 1 UNION SELECT 1.0");
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn where_on_window_output_requires_subquery() {
        // Window values are not visible in the same SELECT's WHERE; the
        // CTE workaround must work (how all gold queries rank-filter).
        let e = run_err("SELECT ROW_NUMBER() OVER (ORDER BY ID) AS r FROM ORGS WHERE r <= 2");
        assert!(e.is_semantic());
        let rs = run(
            "WITH w AS (SELECT ID, ROW_NUMBER() OVER (ORDER BY ID) AS r FROM ORGS) \
             SELECT ID FROM w WHERE r <= 2 ORDER BY ID",
        );
        assert_eq!(ints(&rs), vec![1, 2]);
    }

    #[test]
    fn limit_zero() {
        let rs = run("SELECT ID FROM ORGS LIMIT 0");
        assert!(rs.rows.is_empty());
        assert_eq!(rs.columns, vec!["ID"]);
    }
}
