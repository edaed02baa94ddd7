//! The row-at-a-time reference interpreter.
//!
//! This is the original materializing executor, kept as the semantic
//! baseline for the columnar pipeline in `exec`: `sql_sweep` and the
//! differential test suites run every query through both and require
//! byte-identical results. It is reachable only through
//! [`execute_sql_reference`], which runs every SELECT body of the
//! statement (subqueries and CTEs included) here; production code never
//! calls into this module. The only change from its original form is
//! that grouping and DISTINCT use typed [`KeyElem`] tuples instead of
//! `"|"`-joined key strings (which could collide for text values
//! containing `|`).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::ast::{Expr, JoinKind, OrderItem, Select, SelectItem, TableRef};
use crate::catalog::Database;
use crate::error::{EngineError, EngineResult};
use crate::eval::{
    collect_window_calls, contains_aggregate, eval_expr, ColMeta, EvalEnv, Relation, Scope,
    WindowValues,
};
use crate::exec::{
    execute_query_with_outer, execute_with, order_key_source, output_name, OrderSource,
};
use crate::key::{key_elem, row_key, KeyElem};
use crate::parser::parse_statement;
use crate::result::ResultSet;
use crate::value::Value;
use crate::window::{compute_windows, unit_scope, Unit};
use std::collections::{HashMap, HashSet};

/// Parse and execute a SQL string on the row-at-a-time reference
/// interpreter, subqueries and CTEs included.
pub fn execute_sql_reference(db: &Database, sql: &str) -> EngineResult<ResultSet> {
    execute_with(db, &parse_statement(sql)?, exec_select)
}

/// Execute one SELECT body row-at-a-time.
fn exec_select(
    env: &EvalEnv<'_>,
    select: &Select,
    outer: Option<&Scope<'_>>,
    order_by: &[OrderItem],
    limit: Option<u64>,
) -> EngineResult<ResultSet> {
    // FROM.
    let rel = match &select.from {
        Some(tr) => resolve_from(env, tr, outer)?,
        None => Relation {
            cols: Vec::new(),
            rows: vec![Vec::new()],
        },
    };

    // WHERE.
    let mut kept: Vec<usize> = Vec::with_capacity(rel.rows.len());
    match &select.selection {
        Some(pred) => {
            for (i, row) in rel.rows.iter().enumerate() {
                let scope = Scope::row_scope(&rel.cols, row, outer);
                if eval_expr(pred, &scope, env)?.as_bool()? == Some(true) {
                    kept.push(i);
                }
            }
        }
        None => kept = (0..rel.rows.len()).collect(),
    }

    // Is this an aggregated query?
    let items_have_aggregates = select.items.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => contains_aggregate(expr),
        _ => false,
    });
    let aggregated = !select.group_by.is_empty()
        || items_have_aggregates
        || select
            .having
            .as_ref()
            .map(contains_aggregate)
            .unwrap_or(false)
        || select.having.is_some();

    // Build units.
    let mut units: Vec<Unit> = Vec::new();
    if aggregated {
        if select.group_by.is_empty() {
            units.push(Unit {
                rep: kept.first().copied().unwrap_or(usize::MAX),
                members: kept.clone(),
            });
        } else {
            let mut index: HashMap<Vec<KeyElem>, usize> = HashMap::new();
            for &i in &kept {
                let scope = Scope::row_scope(&rel.cols, &rel.rows[i], outer);
                let mut key = Vec::with_capacity(select.group_by.len());
                for g in &select.group_by {
                    key.push(key_elem(&eval_expr(g, &scope, env)?));
                }
                match index.get(&key) {
                    Some(&u) => units[u].members.push(i),
                    None => {
                        index.insert(key, units.len());
                        units.push(Unit {
                            rep: i,
                            members: vec![i],
                        });
                    }
                }
            }
        }
        // HAVING.
        if let Some(having) = &select.having {
            let mut filtered = Vec::with_capacity(units.len());
            for unit in units {
                let scope = unit_scope(&rel, &unit, outer, None, None, 0, aggregated);
                if eval_expr(having, &scope, env)?.as_bool()? == Some(true) {
                    filtered.push(unit);
                }
            }
            units = filtered;
        }
    } else {
        units = kept
            .iter()
            .map(|&i| Unit {
                rep: i,
                members: vec![i],
            })
            .collect();
    }

    // Window functions.
    let mut window_exprs: Vec<&Expr> = Vec::new();
    for item in &select.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect_window_calls(expr, &mut window_exprs);
        }
    }
    for o in order_by {
        collect_window_calls(&o.expr, &mut window_exprs);
    }
    let windows = compute_windows(&rel, &units, &window_exprs, outer, env, aggregated)?;

    finish_select(
        select, &rel, &units, &windows, outer, env, order_by, limit, aggregated,
    )
}

// ----------------------------------------------------------------------
// FROM resolution
// ----------------------------------------------------------------------

fn resolve_from(
    env: &EvalEnv<'_>,
    tr: &TableRef,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Relation> {
    match tr {
        TableRef::Named { name, alias } => {
            let qualifier = alias.clone().unwrap_or_else(|| name.clone());
            if let Some(rs) = env.ctes.get(&name.to_lowercase()) {
                let cols = rs
                    .columns
                    .iter()
                    .map(|c| ColMeta::new(Some(qualifier.clone()), c.clone()))
                    .collect();
                return Ok(Relation {
                    cols,
                    rows: rs.rows.clone(),
                });
            }
            let table = env
                .db
                .table(name)
                .ok_or_else(|| EngineError::binding(format!("no such table {name}")))?;
            let cols = table
                .columns
                .iter()
                .map(|c| ColMeta::new(Some(qualifier.clone()), c.name.clone()))
                .collect();
            Ok(Relation {
                cols,
                rows: table.rows.clone(),
            })
        }
        TableRef::Derived { query, alias } => {
            let rs = execute_query_with_outer(env, query, None)?;
            let cols = rs
                .columns
                .iter()
                .map(|c| ColMeta::new(Some(alias.clone()), c.clone()))
                .collect();
            Ok(Relation {
                cols,
                rows: rs.rows,
            })
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = resolve_from(env, left, outer)?;
            let r = resolve_from(env, right, outer)?;
            join(env, outer, l, r, *kind, on.as_ref())
        }
    }
}

fn join(
    env: &EvalEnv<'_>,
    outer: Option<&Scope<'_>>,
    l: Relation,
    r: Relation,
    kind: JoinKind,
    on: Option<&Expr>,
) -> EngineResult<Relation> {
    let mut cols = l.cols.clone();
    cols.extend(r.cols.iter().cloned());
    let mut out = Relation::new(cols);

    match kind {
        JoinKind::Cross => {
            for lrow in &l.rows {
                for rrow in &r.rows {
                    let mut combined = lrow.clone();
                    combined.extend(rrow.iter().cloned());
                    out.rows.push(combined);
                }
            }
        }
        JoinKind::Inner | JoinKind::Left => {
            let pred = on.ok_or_else(|| EngineError::typing("JOIN requires an ON condition"))?;
            for lrow in &l.rows {
                let mut matched = false;
                for rrow in &r.rows {
                    let mut combined = lrow.clone();
                    combined.extend(rrow.iter().cloned());
                    let scope = Scope::row_scope(&out.cols, &combined, outer);
                    if eval_expr(pred, &scope, env)?.as_bool()? == Some(true) {
                        matched = true;
                        out.rows.push(combined);
                    }
                }
                if kind == JoinKind::Left && !matched {
                    let mut combined = lrow.clone();
                    combined.extend(std::iter::repeat_n(Value::Null, r.cols.len()));
                    out.rows.push(combined);
                }
            }
        }
    }
    Ok(out)
}

// ----------------------------------------------------------------------
// Projection, ORDER BY, DISTINCT, LIMIT
// ----------------------------------------------------------------------

/// Project units row by row, then apply ORDER BY / DISTINCT / LIMIT.
#[allow(clippy::too_many_arguments)]
fn finish_select(
    select: &Select,
    rel: &Relation,
    units: &[Unit],
    windows: &WindowValues,
    outer: Option<&Scope<'_>>,
    env: &EvalEnv<'_>,
    order_by: &[OrderItem],
    limit: Option<u64>,
    aggregated: bool,
) -> EngineResult<ResultSet> {
    let qualified_by = |col: &ColMeta, q: &str| {
        col.qualifier
            .as_deref()
            .is_some_and(|cq| cq.eq_ignore_ascii_case(q))
    };

    // Projection.
    let mut out_cols: Vec<String> = Vec::new();
    let mut out_rows: Vec<Vec<Value>> = Vec::with_capacity(units.len());
    let mut first = true;
    for (ui, unit) in units.iter().enumerate() {
        let scope = unit_scope(rel, unit, outer, Some(windows), None, ui, aggregated);
        let mut row: Vec<Value> = Vec::with_capacity(select.items.len());
        for item in &select.items {
            match item {
                SelectItem::Wildcard => {
                    if aggregated {
                        return Err(EngineError::typing(
                            "SELECT * is not allowed with GROUP BY / aggregates",
                        ));
                    }
                    if first {
                        out_cols.extend(rel.cols.iter().map(|c| c.name.clone()));
                    }
                    row.extend(rel.rows[unit.rep].iter().cloned());
                }
                SelectItem::QualifiedWildcard(q) => {
                    if aggregated {
                        return Err(EngineError::typing(
                            "qualified * is not allowed with GROUP BY / aggregates",
                        ));
                    }
                    let mut any = false;
                    for (ci, col) in rel.cols.iter().enumerate() {
                        if qualified_by(col, q) {
                            any = true;
                            if first {
                                out_cols.push(col.name.clone());
                            }
                            row.push(rel.rows[unit.rep][ci].clone());
                        }
                    }
                    if !any {
                        return Err(EngineError::binding(format!("no such table alias {q}")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    if first {
                        out_cols.push(output_name(expr, alias.as_deref()));
                    }
                    row.push(eval_expr(expr, &scope, env)?);
                }
            }
        }
        out_rows.push(row);
        first = false;
    }
    if units.is_empty() {
        // Still need output column names for empty results.
        for item in &select.items {
            match item {
                SelectItem::Wildcard => out_cols.extend(rel.cols.iter().map(|c| c.name.clone())),
                SelectItem::QualifiedWildcard(q) => out_cols.extend(
                    rel.cols
                        .iter()
                        .filter(|c| qualified_by(c, q))
                        .map(|c| c.name.clone()),
                ),
                SelectItem::Expr { expr, alias } => {
                    out_cols.push(output_name(expr, alias.as_deref()))
                }
            }
        }
    }

    // ORDER BY: compute sort keys aligned with projected rows.
    if !order_by.is_empty() {
        let mut keys: Vec<Vec<Value>> = vec![Vec::new(); out_rows.len()];
        for item in order_by {
            match order_key_source(item, &out_cols)? {
                OrderSource::OutputColumn(ci) => {
                    for (ri, row) in out_rows.iter().enumerate() {
                        keys[ri].push(row[ci].clone());
                    }
                }
                OrderSource::Expression => {
                    if select.distinct {
                        return Err(EngineError::typing(
                            "ORDER BY expression must appear in SELECT DISTINCT output",
                        ));
                    }
                    for (ui, unit) in units.iter().enumerate() {
                        let scope =
                            unit_scope(rel, unit, outer, Some(windows), None, ui, aggregated);
                        keys[ui].push(eval_expr(&item.expr, &scope, env)?);
                    }
                }
            }
        }
        let mut order: Vec<usize> = (0..out_rows.len()).collect();
        order.sort_by(|&a, &b| {
            for (k, item) in order_by.iter().enumerate() {
                let ord = keys[a][k].total_cmp(&keys[b][k]);
                let ord = if item.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b) // stable
        });
        out_rows = order
            .into_iter()
            .map(|i| std::mem::take(&mut out_rows[i]))
            .collect();
    }

    // DISTINCT (after ORDER BY keeps the first occurrence in sort order).
    if select.distinct {
        let mut seen: HashSet<Vec<KeyElem>> = HashSet::new();
        out_rows.retain(|row| seen.insert(row_key(row)));
    }

    if let Some(n) = limit {
        out_rows.truncate(n as usize);
    }

    Ok(ResultSet {
        columns: out_cols,
        rows: out_rows,
    })
}
