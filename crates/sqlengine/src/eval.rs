//! Expression evaluation over rows, groups, and window values.

use crate::aggregate::Accumulator;
use crate::ast::*;
use crate::catalog::Database;
use crate::error::{EngineError, EngineResult};
use crate::exec::{execute_query_with_outer, CteMap};
use crate::functions;
use crate::result::ResultSet;
use crate::value::Value;
use std::collections::HashMap;

/// Metadata for one column of an intermediate relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColMeta {
    /// Table alias / CTE name / derived-table alias the column came from.
    pub qualifier: Option<String>,
    pub name: String,
}

impl ColMeta {
    pub fn new(qualifier: Option<String>, name: impl Into<String>) -> ColMeta {
        ColMeta {
            qualifier,
            name: name.into(),
        }
    }

    pub(crate) fn matches(&self, table: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match table {
            None => true,
            Some(t) => self
                .qualifier
                .as_deref()
                .map(|q| q.eq_ignore_ascii_case(t))
                .unwrap_or(false),
        }
    }
}

/// An intermediate relation during execution.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    pub cols: Vec<ColMeta>,
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    pub fn new(cols: Vec<ColMeta>) -> Relation {
        Relation {
            cols,
            rows: Vec::new(),
        }
    }
}

/// Group membership view used when evaluating aggregate calls.
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    pub rel: &'a Relation,
    pub indices: &'a [usize],
}

/// Per-row window values, keyed by the display form of the window call.
pub type WindowValues = HashMap<String, Vec<Value>>;

/// Per-unit aggregate values pre-computed by the vectorized planner,
/// keyed by the display form of the aggregate call.
pub type AggValues = HashMap<String, Vec<Value>>;

/// The evaluation environment for one row (or one group).
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    pub cols: &'a [ColMeta],
    pub row: &'a [Value],
    /// Enclosing query's scope, for correlated subqueries.
    pub parent: Option<&'a Scope<'a>>,
    /// Set when evaluating in grouped context; aggregates draw from here.
    pub group: Option<GroupView<'a>>,
    /// Pre-computed window-function values for the current unit list.
    pub windows: Option<&'a WindowValues>,
    /// Pre-computed aggregate values for the current unit list; consulted
    /// before falling back to the [`GroupView`] accumulator path.
    pub aggs: Option<&'a AggValues>,
    /// Index of the current unit into each window value vector.
    pub unit_index: usize,
}

impl<'a> Scope<'a> {
    /// The scope of one plain row, inside an optional enclosing scope.
    pub fn row_scope(
        cols: &'a [ColMeta],
        row: &'a [Value],
        parent: Option<&'a Scope<'a>>,
    ) -> Scope<'a> {
        Scope {
            cols,
            row,
            parent,
            group: None,
            windows: None,
            aggs: None,
            unit_index: 0,
        }
    }

    pub(crate) fn resolve(&self, table: Option<&str>, name: &str) -> EngineResult<Value> {
        let matches: Vec<usize> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, c)| c.matches(table, name))
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            1 => Ok(self.row[matches[0]].clone()),
            0 => match self.parent {
                Some(p) => p.resolve(table, name),
                None => Err(EngineError::binding(format!(
                    "no such column {}{name}",
                    table.map(|t| format!("{t}.")).unwrap_or_default()
                ))),
            },
            _ => Err(EngineError::binding(format!(
                "ambiguous column reference {}{name}",
                table.map(|t| format!("{t}.")).unwrap_or_default()
            ))),
        }
    }
}

/// Executes one SELECT body with its ORDER BY and LIMIT.
pub(crate) type SelectFn = fn(
    &EvalEnv<'_>,
    &Select,
    Option<&Scope<'_>>,
    &[OrderItem],
    Option<u64>,
) -> EngineResult<ResultSet>;

/// External state needed by subquery evaluation.
#[derive(Clone, Copy)]
pub struct EvalEnv<'a> {
    pub db: &'a Database,
    pub ctes: &'a CteMap,
    /// The engine every SELECT body of the statement runs on, subqueries
    /// and CTEs included.
    pub(crate) select: SelectFn,
}

/// Evaluate `expr` in `scope`.
pub fn eval_expr(expr: &Expr, scope: &Scope<'_>, env: &EvalEnv<'_>) -> EngineResult<Value> {
    match expr {
        Expr::Literal(l) => Ok(literal_value(l)),
        Expr::Column { table, name } => scope.resolve(table.as_deref(), name),
        Expr::Unary { op, expr } => {
            let v = eval_expr(expr, scope, env)?;
            match op {
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Integer(i) => Ok(Value::Integer(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(EngineError::typing(format!("cannot negate {other}"))),
                },
                UnaryOp::Not => match v.as_bool()? {
                    None => Ok(Value::Null),
                    Some(b) => Ok(Value::Boolean(!b)),
                },
            }
        }
        Expr::Binary { left, op, right } => eval_binary(left, *op, right, scope, env),
        Expr::IsNull { expr, negated } => {
            let v = eval_expr(expr, scope, env)?;
            Ok(Value::Boolean(v.is_null() != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(expr, scope, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval_expr(item, scope, env)?;
                if iv.is_null() {
                    saw_null = true;
                } else if v.sql_eq(&iv) {
                    return Ok(Value::Boolean(!*negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Boolean(*negated))
            }
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            let v = eval_expr(expr, scope, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let result = execute_query_with_outer(env, subquery, Some(scope))?;
            if result.columns.len() != 1 {
                return Err(EngineError::typing(
                    "IN subquery must return exactly one column",
                ));
            }
            let mut saw_null = false;
            for row in &result.rows {
                if row[0].is_null() {
                    saw_null = true;
                } else if v.sql_eq(&row[0]) {
                    return Ok(Value::Boolean(!*negated));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Boolean(*negated))
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = eval_expr(expr, scope, env)?;
            let lo = eval_expr(low, scope, env)?;
            let hi = eval_expr(high, scope, env)?;
            let ge = match v.sql_cmp(&lo)? {
                None => return Ok(Value::Null),
                Some(ord) => ord != std::cmp::Ordering::Less,
            };
            let le = match v.sql_cmp(&hi)? {
                None => return Ok(Value::Null),
                Some(ord) => ord != std::cmp::Ordering::Greater,
            };
            Ok(Value::Boolean((ge && le) != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_expr(expr, scope, env)?;
            let p = eval_expr(pattern, scope, env)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let m = functions::sql_like(&v.to_string(), &p.to_string());
            Ok(Value::Boolean(m != *negated))
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            match operand {
                Some(op_expr) => {
                    let subject = eval_expr(op_expr, scope, env)?;
                    for (when, then) in branches {
                        let w = eval_expr(when, scope, env)?;
                        if subject.sql_eq(&w) {
                            return eval_expr(then, scope, env);
                        }
                    }
                }
                None => {
                    for (when, then) in branches {
                        let w = eval_expr(when, scope, env)?;
                        if w.as_bool()? == Some(true) {
                            return eval_expr(then, scope, env);
                        }
                    }
                }
            }
            match else_expr {
                Some(e) => eval_expr(e, scope, env),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast { expr, ty } => {
            let v = eval_expr(expr, scope, env)?;
            v.cast_to(*ty)
        }
        Expr::Function(call) => eval_function(expr, call, scope, env),
        Expr::Exists { subquery, negated } => {
            let result = execute_query_with_outer(env, subquery, Some(scope))?;
            Ok(Value::Boolean(result.rows.is_empty() == *negated))
        }
        Expr::ScalarSubquery(subquery) => {
            let result = execute_query_with_outer(env, subquery, Some(scope))?;
            if result.columns.len() != 1 {
                return Err(EngineError::typing(
                    "scalar subquery must return exactly one column",
                ));
            }
            match result.rows.len() {
                0 => Ok(Value::Null),
                1 => Ok(result.rows[0][0].clone()),
                n => Err(EngineError::execution(format!(
                    "scalar subquery returned {n} rows"
                ))),
            }
        }
    }
}

fn eval_function(
    whole: &Expr,
    call: &FunctionCall,
    scope: &Scope<'_>,
    env: &EvalEnv<'_>,
) -> EngineResult<Value> {
    // Window call: value was pre-computed by the executor.
    if call.over.is_some() {
        let key = whole.to_string();
        let windows = scope.windows.ok_or_else(|| {
            EngineError::execution(format!(
                "window function {} used outside a windowed projection",
                call.name
            ))
        })?;
        let values = windows
            .get(&key)
            .ok_or_else(|| EngineError::execution(format!("window values missing for {key}")))?;
        return Ok(values[scope.unit_index].clone());
    }

    // Aggregate call: use the planner's pre-computed value when present,
    // otherwise draw from the current group.
    if functions::is_aggregate(&call.name) {
        if let Some(aggs) = scope.aggs {
            if let Some(values) = aggs.get(&whole.to_string()) {
                return Ok(values[scope.unit_index].clone());
            }
        }
        let group = scope.group.ok_or_else(|| {
            EngineError::typing(format!(
                "aggregate {} is not allowed in this context",
                call.name
            ))
        })?;
        let mut acc = Accumulator::for_function(&call.name, call.distinct, call.star)?;
        for &idx in group.indices {
            let inner = Scope::row_scope(&group.rel.cols, &group.rel.rows[idx], scope.parent);
            if call.star {
                acc.update(&Value::Integer(1))?;
            } else {
                if call.args.len() != 1 {
                    return Err(EngineError::typing(format!(
                        "aggregate {} expects exactly one argument",
                        call.name
                    )));
                }
                let v = eval_expr(&call.args[0], &inner, env)?;
                acc.update(&v)?;
            }
        }
        return Ok(acc.finish());
    }

    if functions::is_ranking(&call.name) {
        return Err(EngineError::typing(format!(
            "{} requires an OVER clause",
            call.name
        )));
    }

    // Plain scalar function.
    let mut args = Vec::with_capacity(call.args.len());
    for a in &call.args {
        args.push(eval_expr(a, scope, env)?);
    }
    functions::eval_scalar(&call.name, &args)
}

fn eval_binary(
    left: &Expr,
    op: BinaryOp,
    right: &Expr,
    scope: &Scope<'_>,
    env: &EvalEnv<'_>,
) -> EngineResult<Value> {
    // AND/OR get three-valued logic with short-circuiting.
    if op == BinaryOp::And {
        let l = eval_expr(left, scope, env)?.as_bool()?;
        if l == Some(false) {
            return Ok(Value::Boolean(false));
        }
        let r = eval_expr(right, scope, env)?.as_bool()?;
        return Ok(match (l, r) {
            (Some(true), Some(true)) => Value::Boolean(true),
            (_, Some(false)) => Value::Boolean(false),
            _ => Value::Null,
        });
    }
    if op == BinaryOp::Or {
        let l = eval_expr(left, scope, env)?.as_bool()?;
        if l == Some(true) {
            return Ok(Value::Boolean(true));
        }
        let r = eval_expr(right, scope, env)?.as_bool()?;
        return Ok(match (l, r) {
            (Some(false), Some(false)) => Value::Boolean(false),
            (_, Some(true)) => Value::Boolean(true),
            _ => Value::Null,
        });
    }

    let l = eval_expr(left, scope, env)?;
    let r = eval_expr(right, scope, env)?;

    match op {
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => {
            let ord = match l.sql_cmp(&r)? {
                None => return Ok(Value::Null),
                Some(o) => o,
            };
            use std::cmp::Ordering::*;
            let b = match op {
                BinaryOp::Eq => ord == Equal,
                BinaryOp::NotEq => ord != Equal,
                BinaryOp::Lt => ord == Less,
                BinaryOp::LtEq => ord != Greater,
                BinaryOp::Gt => ord == Greater,
                BinaryOp::GtEq => ord != Less,
                _ => unreachable!(),
            };
            Ok(Value::Boolean(b))
        }
        BinaryOp::Concat => {
            if l.is_null() || r.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Text(format!(
                    "{}{}",
                    functions::render_value_for_concat(&l),
                    functions::render_value_for_concat(&r)
                )))
            }
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            arith(op, &l, &r)
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

fn arith(op: BinaryOp, l: &Value, r: &Value) -> EngineResult<Value> {
    let type_err = || EngineError::typing(format!("cannot apply {} to {l} and {r}", op.symbol()));
    match (l, r) {
        (Value::Integer(a), Value::Integer(b)) => Ok(match op {
            BinaryOp::Add => a
                .checked_add(*b)
                .map(Value::Integer)
                .unwrap_or(Value::Float(*a as f64 + *b as f64)),
            BinaryOp::Sub => a
                .checked_sub(*b)
                .map(Value::Integer)
                .unwrap_or(Value::Float(*a as f64 - *b as f64)),
            BinaryOp::Mul => a
                .checked_mul(*b)
                .map(Value::Integer)
                .unwrap_or(Value::Float(*a as f64 * *b as f64)),
            // Integer division truncates, like SQLite; zero divisor → NULL
            // so division never aborts a whole analytics query.
            BinaryOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Integer(a / b)
                }
            }
            BinaryOp::Mod => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Integer(a % b)
                }
            }
            _ => unreachable!(),
        }),
        _ => {
            let a = l.as_f64().ok_or_else(type_err)?;
            let b = r.as_f64().ok_or_else(type_err)?;
            Ok(match op {
                BinaryOp::Add => Value::Float(a + b),
                BinaryOp::Sub => Value::Float(a - b),
                BinaryOp::Mul => Value::Float(a * b),
                BinaryOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                BinaryOp::Mod => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a % b)
                    }
                }
                _ => unreachable!(),
            })
        }
    }
}

pub fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Integer(v) => Value::Integer(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::String(s) => Value::Text(s.clone()),
        Literal::Boolean(b) => Value::Boolean(*b),
    }
}

/// Does this expression contain an aggregate call (not counting window
/// calls and not descending into subqueries)?
pub fn contains_aggregate(expr: &Expr) -> bool {
    match expr {
        Expr::Function(call) => {
            if call.over.is_none() && functions::is_aggregate(&call.name) {
                return true;
            }
            // Window-call arguments may contain aggregates
            // (e.g. RANK() OVER (ORDER BY SUM(x))).
            if let Some(spec) = &call.over {
                if spec.partition_by.iter().any(contains_aggregate)
                    || spec.order_by.iter().any(|o| contains_aggregate(&o.expr))
                {
                    return true;
                }
            }
            call.args.iter().any(contains_aggregate)
        }
        Expr::Literal(_) | Expr::Column { .. } => false,
        Expr::Unary { expr, .. } => contains_aggregate(expr),
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::InSubquery { expr, .. } => contains_aggregate(expr),
        Expr::Between {
            expr, low, high, ..
        } => contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high),
        Expr::Like { expr, pattern, .. } => contains_aggregate(expr) || contains_aggregate(pattern),
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            operand.as_deref().map(contains_aggregate).unwrap_or(false)
                || branches
                    .iter()
                    .any(|(w, t)| contains_aggregate(w) || contains_aggregate(t))
                || else_expr
                    .as_deref()
                    .map(contains_aggregate)
                    .unwrap_or(false)
        }
        Expr::Cast { expr, .. } => contains_aggregate(expr),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => false,
    }
}

/// Collect aggregate calls that are evaluated unconditionally whenever
/// the containing expression is evaluated — i.e. not behind a lazily
/// evaluated position (`AND`/`OR` right operand, `CASE` branches,
/// `IN`-list items) where the row engine might skip them (and thereby
/// skip their errors). The planner may safely pre-compute exactly these.
pub fn collect_unconditional_aggregates<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::Function(call) => {
            if call.over.is_some() {
                return; // window calls are pre-computed separately
            }
            if functions::is_aggregate(&call.name) {
                out.push(expr);
                return; // arguments evaluate per group member, not here
            }
            for a in &call.args {
                collect_unconditional_aggregates(a, out);
            }
        }
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::Unary { expr, .. } => collect_unconditional_aggregates(expr, out),
        Expr::Binary { left, op, right } => {
            collect_unconditional_aggregates(left, out);
            // AND/OR may short-circuit the right operand per row.
            if !matches!(op, BinaryOp::And | BinaryOp::Or) {
                collect_unconditional_aggregates(right, out);
            }
        }
        Expr::IsNull { expr, .. } => collect_unconditional_aggregates(expr, out),
        // List items evaluate lazily (and not at all for a NULL probe).
        Expr::InList { expr, .. } => collect_unconditional_aggregates(expr, out),
        Expr::InSubquery { expr, .. } => collect_unconditional_aggregates(expr, out),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_unconditional_aggregates(expr, out);
            collect_unconditional_aggregates(low, out);
            collect_unconditional_aggregates(high, out);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_unconditional_aggregates(expr, out);
            collect_unconditional_aggregates(pattern, out);
        }
        // Every part of a CASE after the first WHEN is conditional;
        // treat the whole construct conservatively.
        Expr::Case { .. } => {}
        Expr::Cast { expr, .. } => collect_unconditional_aggregates(expr, out),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
    }
}

/// Collect every aggregate call in an expression tree, including calls
/// in lazily evaluated positions (`AND`/`OR` right operands, `CASE`
/// branches, `IN`-list items). Subqueries are not descended into —
/// aggregates there belong to the subquery's own grouping context. The
/// collected set is a superset of [`collect_unconditional_aggregates`];
/// the two agree exactly when no aggregate sits behind a lazy position.
pub fn collect_aggregate_calls<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::Function(call) => {
            if call.over.is_some() {
                return; // window calls are pre-computed separately
            }
            if functions::is_aggregate(&call.name) {
                out.push(expr);
                return; // arguments evaluate per group member, not here
            }
            for a in &call.args {
                collect_aggregate_calls(a, out);
            }
        }
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::Unary { expr, .. } => collect_aggregate_calls(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_aggregate_calls(left, out);
            collect_aggregate_calls(right, out);
        }
        Expr::IsNull { expr, .. } => collect_aggregate_calls(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_aggregate_calls(expr, out);
            for e in list {
                collect_aggregate_calls(e, out);
            }
        }
        Expr::InSubquery { expr, .. } => collect_aggregate_calls(expr, out),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregate_calls(expr, out);
            collect_aggregate_calls(low, out);
            collect_aggregate_calls(high, out);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_aggregate_calls(expr, out);
            collect_aggregate_calls(pattern, out);
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(o) = operand.as_deref() {
                collect_aggregate_calls(o, out);
            }
            for (w, t) in branches {
                collect_aggregate_calls(w, out);
                collect_aggregate_calls(t, out);
            }
            if let Some(e) = else_expr.as_deref() {
                collect_aggregate_calls(e, out);
            }
        }
        Expr::Cast { expr, .. } => collect_aggregate_calls(expr, out),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
    }
}

/// Collect all window calls (functions with OVER) in an expression tree,
/// not descending into subqueries.
pub fn collect_window_calls<'e>(expr: &'e Expr, out: &mut Vec<&'e Expr>) {
    match expr {
        Expr::Function(call) => {
            if call.over.is_some() {
                out.push(expr);
            }
            for a in &call.args {
                collect_window_calls(a, out);
            }
        }
        Expr::Literal(_) | Expr::Column { .. } => {}
        Expr::Unary { expr, .. } => collect_window_calls(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_window_calls(left, out);
            collect_window_calls(right, out);
        }
        Expr::IsNull { expr, .. } => collect_window_calls(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_window_calls(expr, out);
            for e in list {
                collect_window_calls(e, out);
            }
        }
        Expr::InSubquery { expr, .. } => collect_window_calls(expr, out),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_window_calls(expr, out);
            collect_window_calls(low, out);
            collect_window_calls(high, out);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_window_calls(expr, out);
            collect_window_calls(pattern, out);
        }
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => {
            if let Some(op) = operand {
                collect_window_calls(op, out);
            }
            for (w, t) in branches {
                collect_window_calls(w, out);
                collect_window_calls(t, out);
            }
            if let Some(e) = else_expr {
                collect_window_calls(e, out);
            }
        }
        Expr::Cast { expr, .. } => collect_window_calls(expr, out),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
    }
}
