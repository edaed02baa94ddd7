//! Batch-at-a-time expression evaluation over [`DataChunk`] columns.
//!
//! [`bind`] lowers an AST [`Expr`] into a [`VExpr`] whose column
//! references are resolved to chunk column indices; [`eval`] then
//! evaluates a [`VExpr`] for a whole selection of rows at once. Anything
//! [`bind`] cannot lower (subqueries, aggregates, window calls, columns
//! that would fail or be ambiguous to resolve) returns `None` and the
//! SELECT pipeline evaluates that expression row by row with
//! `eval_expr`, so error behavior matches the reference engine exactly.
//!
//! The evaluator replicates the interpreter's semantics precisely:
//! three-valued logic, `AND`/`OR` short-circuiting (the right side is
//! only evaluated for rows the left side did not decide), lazy `CASE`
//! branches and `IN` list items, and the scalar function library.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::array::{Array, ArrayBuilder, Bitmap, DataChunk, ValueRef};
use crate::ast::{BinaryOp, Expr, FunctionCall, UnaryOp};
use crate::error::{EngineError, EngineResult};
use crate::eval::{literal_value, ColMeta, Scope};
use crate::functions;
use crate::value::{total_cmp_f64, DataType, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// A bound (column-resolved) expression ready for vectorized evaluation.
#[derive(Debug, Clone)]
pub enum VExpr {
    /// A constant: literal, or an outer-scope column materialized at
    /// bind time (the outer row is fixed for one planner invocation).
    Lit(Value),
    /// Chunk column by index.
    Col(usize),
    /// Unary operator.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<VExpr>,
    },
    /// Binary operator.
    Binary {
        /// Left operand.
        left: Box<VExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<VExpr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<VExpr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (items…)`.
    InList {
        /// Probe expression.
        expr: Box<VExpr>,
        /// List items, evaluated lazily in order.
        list: Vec<VExpr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Probe expression.
        expr: Box<VExpr>,
        /// Lower bound.
        low: Box<VExpr>,
        /// Upper bound.
        high: Box<VExpr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Matched expression.
        expr: Box<VExpr>,
        /// Pattern expression.
        pattern: Box<VExpr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `CASE` in both simple and searched forms.
    Case {
        /// Simple-form operand.
        operand: Option<Box<VExpr>>,
        /// `WHEN … THEN …` branches.
        branches: Vec<(VExpr, VExpr)>,
        /// `ELSE` expression.
        else_expr: Option<Box<VExpr>>,
    },
    /// `CAST(expr AS ty)`.
    Cast {
        /// Operand.
        expr: Box<VExpr>,
        /// Target type.
        ty: DataType,
    },
    /// Scalar function call.
    Scalar {
        /// Uppercased function name.
        name: String,
        /// Arguments, evaluated eagerly in order.
        args: Vec<VExpr>,
    },
}

/// A row selection over a chunk: everything, or an explicit index list.
#[derive(Clone, Copy)]
pub enum Sel<'a> {
    /// All rows of the chunk, in order.
    All,
    /// The chunk rows at these indices, in order.
    Idx(&'a [u32]),
}

impl Sel<'_> {
    /// Number of selected rows.
    pub fn len(&self, chunk: &DataChunk) -> usize {
        match self {
            Sel::All => chunk.len(),
            Sel::Idx(idx) => idx.len(),
        }
    }

    /// Is the selection empty?
    pub fn is_empty(&self, chunk: &DataChunk) -> bool {
        self.len(chunk) == 0
    }

    /// Chunk row index for output position `pos`.
    #[inline]
    pub fn at(&self, pos: usize) -> u32 {
        match self {
            Sel::All => pos as u32,
            Sel::Idx(idx) => idx[pos],
        }
    }
}

/// Try to lower `expr` for vectorized evaluation against columns `cols`.
///
/// Returns `None` when the expression needs the row-at-a-time path:
/// subqueries, aggregates, window/ranking calls, unresolvable or
/// ambiguous columns. Columns that resolve in the `outer` scope become
/// constants (the outer row is fixed per invocation), which vectorizes
/// correlated predicates.
pub fn bind(expr: &Expr, cols: &[ColMeta], outer: Option<&Scope<'_>>) -> Option<VExpr> {
    match expr {
        Expr::Literal(l) => Some(VExpr::Lit(literal_value(l))),
        Expr::Column { table, name } => {
            let mut found: Option<usize> = None;
            for (i, c) in cols.iter().enumerate() {
                if c.matches(table.as_deref(), name) {
                    if found.is_some() {
                        return None; // ambiguous: fall back for the exact error
                    }
                    found = Some(i);
                }
            }
            match found {
                Some(i) => Some(VExpr::Col(i)),
                // Not a local column: an outer-scope hit is a per-
                // invocation constant; a miss falls back so the row path
                // raises the binding error (only if any row is evaluated).
                None => outer
                    .and_then(|o| o.resolve(table.as_deref(), name).ok())
                    .map(VExpr::Lit),
            }
        }
        Expr::Unary { op, expr } => Some(VExpr::Unary {
            op: *op,
            expr: Box::new(bind(expr, cols, outer)?),
        }),
        Expr::Binary { left, op, right } => Some(VExpr::Binary {
            left: Box::new(bind(left, cols, outer)?),
            op: *op,
            right: Box::new(bind(right, cols, outer)?),
        }),
        Expr::IsNull { expr, negated } => Some(VExpr::IsNull {
            expr: Box::new(bind(expr, cols, outer)?),
            negated: *negated,
        }),
        Expr::InList {
            expr,
            list,
            negated,
        } => Some(VExpr::InList {
            expr: Box::new(bind(expr, cols, outer)?),
            list: list
                .iter()
                .map(|e| bind(e, cols, outer))
                .collect::<Option<Vec<_>>>()?,
            negated: *negated,
        }),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Some(VExpr::Between {
            expr: Box::new(bind(expr, cols, outer)?),
            low: Box::new(bind(low, cols, outer)?),
            high: Box::new(bind(high, cols, outer)?),
            negated: *negated,
        }),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Some(VExpr::Like {
            expr: Box::new(bind(expr, cols, outer)?),
            pattern: Box::new(bind(pattern, cols, outer)?),
            negated: *negated,
        }),
        Expr::Case {
            operand,
            branches,
            else_expr,
        } => Some(VExpr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(bind(o, cols, outer)?)),
                None => None,
            },
            branches: branches
                .iter()
                .map(|(w, t)| Some((bind(w, cols, outer)?, bind(t, cols, outer)?)))
                .collect::<Option<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(bind(e, cols, outer)?)),
                None => None,
            },
        }),
        Expr::Cast { expr, ty } => Some(VExpr::Cast {
            expr: Box::new(bind(expr, cols, outer)?),
            ty: *ty,
        }),
        Expr::Function(call) => bind_function(call, cols, outer),
        // Subqueries keep the interpreter's execution order and errors.
        Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => None,
    }
}

fn bind_function(
    call: &FunctionCall,
    cols: &[ColMeta],
    outer: Option<&Scope<'_>>,
) -> Option<VExpr> {
    // Window, aggregate, and ranking calls need unit/window context.
    if call.over.is_some()
        || functions::is_aggregate(&call.name)
        || functions::is_ranking(&call.name)
    {
        return None;
    }
    if call.star || call.distinct {
        return None;
    }
    Some(VExpr::Scalar {
        name: call.name.clone(),
        args: call
            .args
            .iter()
            .map(|a| bind(a, cols, outer))
            .collect::<Option<Vec<_>>>()?,
    })
}

// ----------------------------------------------------------------------
// Element-wise kernels, mirroring `Value` semantics on borrowed views.
// ----------------------------------------------------------------------

fn cmp_ref(a: ValueRef<'_>, b: ValueRef<'_>) -> EngineResult<Option<Ordering>> {
    use ValueRef::*;
    let ord = match (a, b) {
        (Null, _) | (_, Null) => return Ok(None),
        (Int(x), Int(y)) => x.cmp(&y),
        (Float(x), Float(y)) => total_cmp_f64(x, y),
        (Int(x), Float(y)) => total_cmp_f64(x as f64, y),
        (Float(x), Int(y)) => total_cmp_f64(x, y as f64),
        (Str(x), Str(y)) => x.cmp(y),
        (Bool(x), Bool(y)) => x.cmp(&y),
        (Date(x), Date(y)) => x.cmp(&y),
        (Date(x), Str(y)) => x.to_string().as_str().cmp(y),
        (Str(x), Date(y)) => x.cmp(y.to_string().as_str()),
        (x, y) => {
            return Err(EngineError::typing(format!("cannot compare {x} with {y}")));
        }
    };
    Ok(Some(ord))
}

fn eq_ref(a: ValueRef<'_>, b: ValueRef<'_>) -> bool {
    // Like `Value::sql_eq`: comparison errors are swallowed as "not equal".
    matches!(cmp_ref(a, b), Ok(Some(Ordering::Equal)))
}

fn bool_ref(v: ValueRef<'_>) -> EngineResult<Option<bool>> {
    match v {
        ValueRef::Null => Ok(None),
        ValueRef::Bool(b) => Ok(Some(b)),
        ValueRef::Int(i) => Ok(Some(i != 0)),
        other => Err(EngineError::typing(format!(
            "value {other} is not a boolean"
        ))),
    }
}

fn arith_ref(op: BinaryOp, l: ValueRef<'_>, r: ValueRef<'_>) -> EngineResult<Value> {
    use ValueRef::*;
    let type_err = || EngineError::typing(format!("cannot apply {} to {l} and {r}", op.symbol()));
    if let (Int(a), Int(b)) = (l, r) {
        return Ok(match op {
            BinaryOp::Add => a
                .checked_add(b)
                .map(Value::Integer)
                .unwrap_or(Value::Float(a as f64 + b as f64)),
            BinaryOp::Sub => a
                .checked_sub(b)
                .map(Value::Integer)
                .unwrap_or(Value::Float(a as f64 - b as f64)),
            BinaryOp::Mul => a
                .checked_mul(b)
                .map(Value::Integer)
                .unwrap_or(Value::Float(a as f64 * b as f64)),
            BinaryOp::Div => {
                if b == 0 {
                    Value::Null
                } else {
                    Value::Integer(a / b)
                }
            }
            BinaryOp::Mod => {
                if b == 0 {
                    Value::Null
                } else {
                    Value::Integer(a % b)
                }
            }
            _ => return Err(type_err()),
        });
    }
    let a = match l {
        Int(i) => i as f64,
        Float(f) => f,
        _ => return Err(type_err()),
    };
    let b = match r {
        Int(i) => i as f64,
        Float(f) => f,
        _ => return Err(type_err()),
    };
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
        _ => return Err(type_err()),
    })
}

// ----------------------------------------------------------------------
// Evaluation
// ----------------------------------------------------------------------

/// One evaluated operand: a column of results or a single constant.
/// Constants skip materializing an array of repeated values.
enum Operand {
    Arr(Arc<Array>),
    Const(Value),
}

impl Operand {
    #[inline]
    fn at(&self, pos: usize) -> ValueRef<'_> {
        match self {
            Operand::Arr(a) => a.at(pos),
            Operand::Const(v) => ValueRef::from_value(v),
        }
    }
}

fn operand(v: &VExpr, chunk: &DataChunk, sel: Sel<'_>) -> EngineResult<Operand> {
    match v {
        VExpr::Lit(val) => Ok(Operand::Const(val.clone())),
        other => Ok(Operand::Arr(eval(other, chunk, sel)?)),
    }
}

fn bool_array(data: Vec<bool>, validity: Bitmap) -> Arc<Array> {
    Arc::new(Array::Bool { data, validity })
}

/// SQL truthiness of each element: `Some(true)`/`Some(false)`/`None`
/// (unknown), with the same type errors `Value::as_bool` raises.
pub fn truth(arr: &Array) -> EngineResult<Vec<Option<bool>>> {
    let mut out = Vec::with_capacity(arr.len());
    for i in 0..arr.len() {
        out.push(bool_ref(arr.at(i))?);
    }
    Ok(out)
}

/// Evaluate a bound expression over the selected rows of `chunk`,
/// producing one output element per selected row, in selection order.
pub fn eval(v: &VExpr, chunk: &DataChunk, sel: Sel<'_>) -> EngineResult<Arc<Array>> {
    let n = sel.len(chunk);
    match v {
        VExpr::Lit(val) => {
            let mut b = ArrayBuilder::with_capacity(n);
            for _ in 0..n {
                b.push(val.clone());
            }
            Ok(Arc::new(b.finish()))
        }
        VExpr::Col(i) => match sel {
            Sel::All => Ok(Arc::clone(&chunk.cols[*i])),
            Sel::Idx(idx) => Ok(Arc::new(chunk.cols[*i].gather(idx))),
        },
        VExpr::Unary { op, expr } => {
            let arr = eval(expr, chunk, sel)?;
            let mut b = ArrayBuilder::with_capacity(n);
            match op {
                UnaryOp::Neg => {
                    for pos in 0..n {
                        match arr.at(pos) {
                            ValueRef::Null => b.push_ref(ValueRef::Null),
                            ValueRef::Int(i) => b.push_ref(ValueRef::Int(-i)),
                            ValueRef::Float(f) => b.push_ref(ValueRef::Float(-f)),
                            other => {
                                return Err(EngineError::typing(format!("cannot negate {other}")))
                            }
                        }
                    }
                }
                UnaryOp::Not => {
                    for pos in 0..n {
                        match bool_ref(arr.at(pos))? {
                            None => b.push_ref(ValueRef::Null),
                            Some(x) => b.push_ref(ValueRef::Bool(!x)),
                        }
                    }
                }
            }
            Ok(Arc::new(b.finish()))
        }
        VExpr::Binary { left, op, right } => eval_binary(left, *op, right, chunk, sel),
        VExpr::IsNull { expr, negated } => {
            let arr = eval(expr, chunk, sel)?;
            let mut data = Vec::with_capacity(n);
            for pos in 0..n {
                data.push(arr.is_null(pos) != *negated);
            }
            Ok(bool_array(data, Bitmap::with_len(n, true)))
        }
        VExpr::InList {
            expr,
            list,
            negated,
        } => {
            let varr = eval(expr, chunk, sel)?;
            let mut result: Vec<Value> = vec![Value::Null; n];
            let mut saw_null = vec![false; n];
            // NULL probes answer NULL without evaluating any list item
            // for that row (matching the interpreter's early return).
            let mut undecided: Vec<usize> = (0..n).filter(|&p| !varr.is_null(p)).collect();
            for item in list {
                if undecided.is_empty() {
                    break;
                }
                let isel: Vec<u32> = undecided.iter().map(|&p| sel.at(p)).collect();
                let iarr = eval(item, chunk, Sel::Idx(&isel))?;
                let mut still = Vec::with_capacity(undecided.len());
                for (j, &pos) in undecided.iter().enumerate() {
                    let iv = iarr.at(j);
                    if iv.is_null() {
                        saw_null[pos] = true;
                        still.push(pos);
                    } else if eq_ref(varr.at(pos), iv) {
                        result[pos] = Value::Boolean(!*negated);
                    } else {
                        still.push(pos);
                    }
                }
                undecided = still;
            }
            for pos in undecided {
                result[pos] = if saw_null[pos] {
                    Value::Null
                } else {
                    Value::Boolean(*negated)
                };
            }
            Ok(Arc::new(Array::from_values(result)))
        }
        VExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            // All three operands evaluate eagerly, like the interpreter.
            let varr = operand(expr, chunk, sel)?;
            let lo = operand(low, chunk, sel)?;
            let hi = operand(high, chunk, sel)?;
            let mut b = ArrayBuilder::with_capacity(n);
            for pos in 0..n {
                let v = varr.at(pos);
                let ge = match cmp_ref(v, lo.at(pos))? {
                    // Unknown lower comparison: the upper bound is never
                    // compared (it may be incomparable without erroring).
                    None => {
                        b.push_ref(ValueRef::Null);
                        continue;
                    }
                    Some(ord) => ord != Ordering::Less,
                };
                let le = match cmp_ref(v, hi.at(pos))? {
                    None => {
                        b.push_ref(ValueRef::Null);
                        continue;
                    }
                    Some(ord) => ord != Ordering::Greater,
                };
                b.push_ref(ValueRef::Bool((ge && le) != *negated));
            }
            Ok(Arc::new(b.finish()))
        }
        VExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let varr = operand(expr, chunk, sel)?;
            let parr = operand(pattern, chunk, sel)?;
            let mut b = ArrayBuilder::with_capacity(n);
            for pos in 0..n {
                let (v, p) = (varr.at(pos), parr.at(pos));
                if v.is_null() || p.is_null() {
                    b.push_ref(ValueRef::Null);
                    continue;
                }
                let m = match (v, p) {
                    (ValueRef::Str(s), ValueRef::Str(pat)) => functions::sql_like(s, pat),
                    _ => functions::sql_like(&v.to_string(), &p.to_string()),
                };
                b.push_ref(ValueRef::Bool(m != *negated));
            }
            Ok(Arc::new(b.finish()))
        }
        VExpr::Case {
            operand: case_operand,
            branches,
            else_expr,
        } => {
            let subject = match case_operand {
                Some(o) => Some(eval(o, chunk, sel)?),
                None => None,
            };
            let mut result: Vec<Value> = vec![Value::Null; n];
            let mut undecided: Vec<usize> = (0..n).collect();
            for (when, then) in branches {
                if undecided.is_empty() {
                    break;
                }
                let wsel: Vec<u32> = undecided.iter().map(|&p| sel.at(p)).collect();
                let warr = eval(when, chunk, Sel::Idx(&wsel))?;
                let mut matched: Vec<usize> = Vec::new();
                let mut still: Vec<usize> = Vec::with_capacity(undecided.len());
                for (j, &pos) in undecided.iter().enumerate() {
                    let hit = match &subject {
                        Some(s) => eq_ref(s.at(pos), warr.at(j)),
                        None => bool_ref(warr.at(j))? == Some(true),
                    };
                    if hit {
                        matched.push(pos);
                    } else {
                        still.push(pos);
                    }
                }
                if !matched.is_empty() {
                    let tsel: Vec<u32> = matched.iter().map(|&p| sel.at(p)).collect();
                    let tarr = eval(then, chunk, Sel::Idx(&tsel))?;
                    for (k, &pos) in matched.iter().enumerate() {
                        result[pos] = tarr.get(k);
                    }
                }
                undecided = still;
            }
            if !undecided.is_empty() {
                if let Some(e) = else_expr {
                    let esel: Vec<u32> = undecided.iter().map(|&p| sel.at(p)).collect();
                    let earr = eval(e, chunk, Sel::Idx(&esel))?;
                    for (k, &pos) in undecided.iter().enumerate() {
                        result[pos] = earr.get(k);
                    }
                }
            }
            Ok(Arc::new(Array::from_values(result)))
        }
        VExpr::Cast { expr, ty } => {
            let arr = eval(expr, chunk, sel)?;
            let mut b = ArrayBuilder::with_capacity(n);
            for pos in 0..n {
                b.push(arr.get(pos).cast_to(*ty)?);
            }
            Ok(Arc::new(b.finish()))
        }
        VExpr::Scalar { name, args } => {
            let mut arrs = Vec::with_capacity(args.len());
            for a in args {
                arrs.push(eval(a, chunk, sel)?);
            }
            let mut b = ArrayBuilder::with_capacity(n);
            let mut argv: Vec<Value> = Vec::with_capacity(args.len());
            for pos in 0..n {
                argv.clear();
                for a in &arrs {
                    argv.push(a.get(pos));
                }
                b.push(functions::eval_scalar(name, &argv)?);
            }
            Ok(Arc::new(b.finish()))
        }
    }
}

fn eval_binary(
    left: &VExpr,
    op: BinaryOp,
    right: &VExpr,
    chunk: &DataChunk,
    sel: Sel<'_>,
) -> EngineResult<Arc<Array>> {
    let n = sel.len(chunk);
    // AND/OR: three-valued logic, right side evaluated only for rows the
    // left side leaves undecided (matching per-row short-circuiting).
    if op == BinaryOp::And || op == BinaryOp::Or {
        let and = op == BinaryOp::And;
        let larr = eval(left, chunk, sel)?;
        let lt = truth(&larr)?;
        // AND decides on false, OR decides on true.
        let decided = |t: Option<bool>| t == Some(!and);
        let mut need: Vec<u32> = Vec::new();
        for (pos, &t) in lt.iter().enumerate() {
            if !decided(t) {
                need.push(sel.at(pos));
            }
        }
        let rarr = eval(right, chunk, Sel::Idx(&need))?;
        let rt = truth(&rarr)?;
        let mut data = Vec::with_capacity(n);
        let mut validity = Bitmap::new();
        let mut j = 0usize;
        for &t in &lt {
            if decided(t) {
                data.push(!and);
                validity.push(true);
                continue;
            }
            let r = rt[j];
            j += 1;
            let out = if and {
                match (t, r) {
                    (Some(true), Some(true)) => Some(true),
                    (_, Some(false)) => Some(false),
                    _ => None,
                }
            } else {
                match (t, r) {
                    (Some(false), Some(false)) => Some(false),
                    (_, Some(true)) => Some(true),
                    _ => None,
                }
            };
            data.push(out.unwrap_or(false));
            validity.push(out.is_some());
        }
        return Ok(bool_array(data, validity));
    }

    let l = operand(left, chunk, sel)?;
    let r = operand(right, chunk, sel)?;
    match op {
        BinaryOp::Eq
        | BinaryOp::NotEq
        | BinaryOp::Lt
        | BinaryOp::LtEq
        | BinaryOp::Gt
        | BinaryOp::GtEq => {
            let mut data = Vec::with_capacity(n);
            let mut validity = Bitmap::new();
            for pos in 0..n {
                match cmp_ref(l.at(pos), r.at(pos))? {
                    None => {
                        data.push(false);
                        validity.push(false);
                    }
                    Some(ord) => {
                        let b = match op {
                            BinaryOp::Eq => ord == Ordering::Equal,
                            BinaryOp::NotEq => ord != Ordering::Equal,
                            BinaryOp::Lt => ord == Ordering::Less,
                            BinaryOp::LtEq => ord != Ordering::Greater,
                            BinaryOp::Gt => ord == Ordering::Greater,
                            _ => ord != Ordering::Less,
                        };
                        data.push(b);
                        validity.push(true);
                    }
                }
            }
            Ok(bool_array(data, validity))
        }
        BinaryOp::Concat => {
            let mut b = ArrayBuilder::with_capacity(n);
            for pos in 0..n {
                let (x, y) = (l.at(pos), r.at(pos));
                if x.is_null() || y.is_null() {
                    b.push_ref(ValueRef::Null);
                } else {
                    // `ValueRef`'s Display matches `render_value_for_concat`.
                    b.push(Value::Text(format!("{x}{y}")));
                }
            }
            Ok(Arc::new(b.finish()))
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            let mut b = ArrayBuilder::with_capacity(n);
            for pos in 0..n {
                let (x, y) = (l.at(pos), r.at(pos));
                if x.is_null() || y.is_null() {
                    b.push_ref(ValueRef::Null);
                } else {
                    b.push(arith_ref(op, x, y)?);
                }
            }
            Ok(Arc::new(b.finish()))
        }
        BinaryOp::And | BinaryOp::Or => Err(EngineError::execution(
            "AND/OR handled by the short-circuit path",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expression;

    fn cols(names: &[&str]) -> Vec<ColMeta> {
        names
            .iter()
            .map(|n| ColMeta::new(Some("t".into()), n.to_string()))
            .collect()
    }

    fn chunk(rows: Vec<Vec<Value>>, width: usize) -> DataChunk {
        DataChunk::from_rows(rows, width)
    }

    fn eval_sql(sql: &str, names: &[&str], rows: Vec<Vec<Value>>) -> EngineResult<Vec<Value>> {
        let expr = parse_expression(sql).unwrap();
        let meta = cols(names);
        let width = names.len();
        let c = chunk(rows, width);
        let v = bind(&expr, &meta, None).expect("expression should bind");
        let arr = eval(&v, &c, Sel::All)?;
        Ok((0..arr.len()).map(|i| arr.get(i)).collect())
    }

    #[test]
    fn three_valued_comparison() {
        // NULL > 0 is unknown (NULL), not false.
        let out = eval_sql(
            "x > 0",
            &["x"],
            vec![
                vec![Value::Integer(1)],
                vec![Value::Null],
                vec![Value::Integer(-1)],
            ],
        )
        .unwrap();
        assert_eq!(
            out,
            vec![Value::Boolean(true), Value::Null, Value::Boolean(false)]
        );
    }

    #[test]
    fn and_or_three_valued_logic() {
        // NULL AND FALSE = FALSE, NULL AND TRUE = NULL,
        // NULL OR TRUE = TRUE, NULL OR FALSE = NULL.
        let rows = vec![vec![Value::Null]];
        for (sql, want) in [
            ("x > 0 AND 1 = 2", Value::Boolean(false)),
            ("x > 0 AND 1 = 1", Value::Null),
            ("x > 0 OR 1 = 1", Value::Boolean(true)),
            ("x > 0 OR 1 = 2", Value::Null),
        ] {
            let out = eval_sql(sql, &["x"], rows.clone()).unwrap();
            assert_eq!(out[0], want, "{sql}");
        }
    }

    #[test]
    fn and_short_circuit_skips_erroring_right_side() {
        // Rows where the left side is FALSE must not evaluate the right
        // side ('a' + 1 would be a type error).
        let out = eval_sql(
            "x > 10 AND y + 1 > 0",
            &["x", "y"],
            vec![vec![Value::Integer(1), Value::Text("a".into())]],
        )
        .unwrap();
        assert_eq!(out, vec![Value::Boolean(false)]);
        // …but rows where the left side passes do evaluate it and error.
        let err = eval_sql(
            "x > 0 AND y + 1 > 0",
            &["x", "y"],
            vec![vec![Value::Integer(1), Value::Text("a".into())]],
        );
        assert!(err.is_err());
    }

    #[test]
    fn in_list_with_null_is_three_valued() {
        let rows = vec![
            vec![Value::Integer(1)],
            vec![Value::Integer(99)],
            vec![Value::Null],
        ];
        let out = eval_sql("x IN (1, NULL)", &["x"], rows).unwrap();
        assert_eq!(out, vec![Value::Boolean(true), Value::Null, Value::Null]);
    }

    #[test]
    fn case_branches_evaluate_lazily() {
        // The THEN of a non-matching branch must not run (1/0 is fine —
        // NULL — but 'a' + 1 would error).
        let out = eval_sql(
            "CASE WHEN x > 0 THEN 'pos' WHEN y + 1 > 0 THEN 'other' ELSE 'neg' END",
            &["x", "y"],
            vec![vec![Value::Integer(5), Value::Text("a".into())]],
        )
        .unwrap();
        assert_eq!(out, vec![Value::Text("pos".into())]);
    }

    #[test]
    fn null_propagates_through_arithmetic_and_concat() {
        let rows = vec![vec![Value::Null, Value::Integer(3)]];
        assert_eq!(
            eval_sql("x + y", &["x", "y"], rows.clone()).unwrap(),
            vec![Value::Null]
        );
        assert_eq!(
            eval_sql("x || 'a'", &["x", "y"], rows).unwrap(),
            vec![Value::Null]
        );
    }

    #[test]
    fn between_null_bound_is_unknown() {
        let rows = vec![vec![Value::Integer(5)]];
        assert_eq!(
            eval_sql("x BETWEEN NULL AND 10", &["x"], rows).unwrap(),
            vec![Value::Null]
        );
    }

    #[test]
    fn scalar_functions_vectorize() {
        let out = eval_sql(
            "UPPER(x) || '-' || CAST(LENGTH(x) AS TEXT)",
            &["x"],
            vec![vec![Value::Text("ab".into())], vec![Value::Null]],
        )
        .unwrap();
        assert_eq!(out, vec![Value::Text("AB-2".into()), Value::Null]);
    }

    #[test]
    fn subqueries_and_aggregates_do_not_bind() {
        let meta = cols(&["x"]);
        for sql in [
            "(SELECT 1)",
            "EXISTS (SELECT 1)",
            "x IN (SELECT 1)",
            "SUM(x)",
            "ROW_NUMBER()",
        ] {
            let expr = parse_expression(sql).unwrap();
            assert!(bind(&expr, &meta, None).is_none(), "{sql}");
        }
    }

    #[test]
    fn unknown_column_does_not_bind() {
        let expr = parse_expression("nope + 1").unwrap();
        assert!(bind(&expr, &cols(&["x"]), None).is_none());
    }
}
