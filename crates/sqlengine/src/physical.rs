//! Columnar physical operators: batch scans, cross joins by index
//! gathering, and hash equi-joins with a nested-loop fallback.
//!
//! The hash-join planner is deliberately conservative: it only takes the
//! hash path when the ON clause is a pure conjunction of column
//! equalities AND the key columns' contents guarantee that every row
//! pair the nested loop would compare is comparable under
//! `Value::sql_cmp` with equality classes a hash key can represent.
//! Anything else falls back to the row-at-a-time nested loop, so join
//! results — including error behavior — are identical to the reference
//! interpreter in every case.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::array::{ArrayBuilder, DataChunk, ValueRef};
use crate::ast::{BinaryOp, Expr, JoinKind, TableRef};
use crate::error::{EngineError, EngineResult};
use crate::eval::{eval_expr, ColMeta, EvalEnv, Scope};
use crate::exec::execute_query_with_outer;
use crate::key::float_key_bits;
use crate::value::Value;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

// ----------------------------------------------------------------------
// Execution counters
// ----------------------------------------------------------------------

/// Per-query columnar execution counters, accumulated in a thread-local
/// and drained by `execute_sql_timed` into telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SqlCounters {
    /// Column batches materialized by scans.
    pub batches: u64,
    /// Rows read by base-table and CTE scans.
    pub rows_scanned: u64,
    /// Joins executed on the hash path.
    pub hash_joins: u64,
    /// Joins that fell back to the nested loop.
    pub nested_loop_joins: u64,
    /// Nanoseconds spent building join hash tables.
    pub join_build_ns: u64,
    /// Nanoseconds spent probing join hash tables.
    pub join_probe_ns: u64,
    /// Groups produced by hash aggregation.
    pub agg_groups: u64,
}

thread_local! {
    static COUNTERS: Cell<SqlCounters> = const { Cell::new(SqlCounters {
        batches: 0,
        rows_scanned: 0,
        hash_joins: 0,
        nested_loop_joins: 0,
        join_build_ns: 0,
        join_probe_ns: 0,
        agg_groups: 0,
    }) };
}

/// Drain (and reset) this thread's counters.
pub fn take_counters() -> SqlCounters {
    COUNTERS.with(|c| c.replace(SqlCounters::default()))
}

pub(crate) fn with_counters(f: impl FnOnce(&mut SqlCounters)) {
    COUNTERS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

// ----------------------------------------------------------------------
// Sources
// ----------------------------------------------------------------------

/// A resolved FROM clause: column metadata plus a batch of rows.
pub struct Source {
    /// Column qualifiers and names, one per chunk column.
    pub cols: Vec<ColMeta>,
    /// The data, column-major.
    pub chunk: DataChunk,
}

fn chunk_from_row_refs(rows: &[Vec<Value>], width: usize) -> DataChunk {
    let mut builders: Vec<ArrayBuilder> = (0..width)
        .map(|_| ArrayBuilder::with_capacity(rows.len()))
        .collect();
    for row in rows {
        for (b, v) in builders.iter_mut().zip(row.iter()) {
            b.push(v.clone());
        }
    }
    let cols = builders
        .into_iter()
        .map(|b| Arc::new(b.finish()))
        .collect::<Vec<_>>();
    if cols.is_empty() {
        DataChunk::new(cols, rows.len())
    } else {
        let len = cols[0].len();
        DataChunk::new(cols, len)
    }
}

/// Resolve a FROM clause into a columnar [`Source`], joining as needed.
pub fn resolve_from_columnar(
    env: &EvalEnv<'_>,
    tr: &TableRef,
    outer: Option<&Scope<'_>>,
) -> EngineResult<Source> {
    match tr {
        TableRef::Named { name, alias } => {
            let qualifier = alias.clone().unwrap_or_else(|| name.clone());
            if let Some(rs) = env.ctes.get(&name.to_lowercase()) {
                let cols = rs
                    .columns
                    .iter()
                    .map(|c| ColMeta::new(Some(qualifier.clone()), c.clone()))
                    .collect();
                let chunk = chunk_from_row_refs(&rs.rows, rs.columns.len());
                with_counters(|c| {
                    c.batches += 1;
                    c.rows_scanned += chunk.len() as u64;
                });
                return Ok(Source { cols, chunk });
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
            let chunk = DataChunk::new(table.columnar(), table.rows.len());
            with_counters(|c| {
                c.batches += 1;
                c.rows_scanned += chunk.len() as u64;
            });
            Ok(Source { cols, chunk })
        }
        TableRef::Derived { query, alias } => {
            let rs = execute_query_with_outer(env, query, None)?;
            let cols = rs
                .columns
                .iter()
                .map(|c| ColMeta::new(Some(alias.clone()), c.clone()))
                .collect();
            let width = rs.columns.len();
            Ok(Source {
                cols,
                chunk: DataChunk::from_rows(rs.rows, width),
            })
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = resolve_from_columnar(env, left, outer)?;
            let r = resolve_from_columnar(env, right, outer)?;
            join_columnar(env, outer, l, r, *kind, on.as_ref())
        }
    }
}

// ----------------------------------------------------------------------
// Joins
// ----------------------------------------------------------------------

fn gather_sides(l: &Source, r: &Source, lidx: &[u32], ridx: &[u32], len: usize) -> DataChunk {
    let mut cols = Vec::with_capacity(l.cols.len() + r.cols.len());
    for c in &l.chunk.cols {
        cols.push(Arc::new(c.gather(lidx)));
    }
    for c in &r.chunk.cols {
        // `u32::MAX` marks LEFT-join padding: emit NULL.
        cols.push(Arc::new(c.gather_padded(ridx)));
    }
    DataChunk::new(cols, len)
}

/// Join two columnar sources, preserving the reference engine's
/// left-major row emission order exactly.
pub fn join_columnar(
    env: &EvalEnv<'_>,
    outer: Option<&Scope<'_>>,
    l: Source,
    r: Source,
    kind: JoinKind,
    on: Option<&Expr>,
) -> EngineResult<Source> {
    let mut cols = l.cols.clone();
    cols.extend(r.cols.iter().cloned());

    match kind {
        JoinKind::Cross => {
            let (n, m) = (l.chunk.len(), r.chunk.len());
            let mut lidx = Vec::with_capacity(n * m);
            let mut ridx = Vec::with_capacity(n * m);
            for li in 0..n as u32 {
                for ri in 0..m as u32 {
                    lidx.push(li);
                    ridx.push(ri);
                }
            }
            let chunk = gather_sides(&l, &r, &lidx, &ridx, n * m);
            Ok(Source { cols, chunk })
        }
        JoinKind::Inner | JoinKind::Left => {
            let pred = on.ok_or_else(|| EngineError::typing("JOIN requires an ON condition"))?;
            if let Some(pairs) = plan_hash_join(pred, &cols, l.cols.len(), &l, &r) {
                Ok(hash_join(l, r, cols, kind, &pairs))
            } else {
                nested_loop_join(env, outer, l, r, cols, kind, pred)
            }
        }
    }
}

/// One equi-join key column pair with its resolved key representation.
struct KeyPair {
    left: usize,
    right: usize,
    kind: KeyKind,
}

#[derive(Clone, Copy, PartialEq)]
enum KeyKind {
    /// Both sides all-integer: exact `i64` keys.
    Int,
    /// Numeric with floats involved: `f64` bits, NaN canonicalized and
    /// `-0.0` merged with `0.0` (matching `sql_cmp` equality).
    F64,
    /// Text and/or dates: dates render to their ISO string (matching
    /// `sql_cmp`'s Date↔Text comparison).
    Str,
    /// Both sides boolean.
    Bool,
}

#[derive(PartialEq, Eq, Hash)]
enum JKey {
    Int(i64),
    F64(u64),
    Str(String),
    Bool(bool),
}

/// What one key column contains (NULLs ignored).
#[derive(Default)]
struct ColContent {
    ints: bool,
    floats: bool,
    stringy: bool,
    bools: bool,
    /// An integer outside ±2^53, which `f64` cannot represent exactly.
    big_int: bool,
}

const F64_EXACT_INT: i64 = 1 << 53;

fn scan_content(src: &Source, col: usize) -> ColContent {
    let mut c = ColContent::default();
    let arr = &src.chunk.cols[col];
    for i in 0..arr.len() {
        match arr.at(i) {
            ValueRef::Null => {}
            ValueRef::Int(v) => {
                c.ints = true;
                if v.unsigned_abs() > F64_EXACT_INT as u64 {
                    c.big_int = true;
                }
            }
            ValueRef::Float(_) => c.floats = true,
            ValueRef::Str(_) | ValueRef::Date(_) => c.stringy = true,
            ValueRef::Bool(_) => c.bools = true,
        }
    }
    c
}

impl ColContent {
    fn empty(&self) -> bool {
        !(self.ints || self.floats || self.stringy || self.bools)
    }
    fn numeric_only(&self) -> bool {
        !(self.stringy || self.bools)
    }
    fn stringy_only(&self) -> bool {
        !(self.ints || self.floats || self.bools)
    }
    fn bool_only(&self) -> bool {
        !(self.ints || self.floats || self.stringy)
    }
}

/// Decide whether `pred` is a pure conjunction of column equalities whose
/// key columns support exact hash keys. Returns the key column pairs, or
/// `None` to fall back to the nested loop.
fn plan_hash_join(
    pred: &Expr,
    cols: &[ColMeta],
    left_width: usize,
    l: &Source,
    r: &Source,
) -> Option<Vec<KeyPair>> {
    let mut conjuncts = Vec::new();
    split_conjuncts(pred, &mut conjuncts);
    let mut pairs = Vec::with_capacity(conjuncts.len());
    for c in conjuncts {
        let Expr::Binary { left, op, right } = c else {
            return None;
        };
        if *op != BinaryOp::Eq {
            return None;
        }
        let a = resolve_one(left, cols)?;
        let b = resolve_one(right, cols)?;
        let (li, ri) = if a < left_width && b >= left_width {
            (a, b - left_width)
        } else if b < left_width && a >= left_width {
            (b, a - left_width)
        } else {
            return None; // both on one side, or correlated — fall back
        };
        let lc = scan_content(l, li);
        let rc = scan_content(r, ri);
        let kind = classify_pair(&lc, &rc)?;
        pairs.push(KeyPair {
            left: li,
            right: ri,
            kind,
        });
    }
    Some(pairs)
}

fn split_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    if let Expr::Binary {
        left,
        op: BinaryOp::And,
        right,
    } = e
    {
        split_conjuncts(left, out);
        split_conjuncts(right, out);
    } else {
        out.push(e);
    }
}

/// Resolve a column reference to exactly one combined-column index.
fn resolve_one(e: &Expr, cols: &[ColMeta]) -> Option<usize> {
    let Expr::Column { table, name } = e else {
        return None;
    };
    let mut found = None;
    for (i, c) in cols.iter().enumerate() {
        if c.matches(table.as_deref(), name) {
            if found.is_some() {
                return None;
            }
            found = Some(i);
        }
    }
    found
}

fn classify_pair(lc: &ColContent, rc: &ColContent) -> Option<KeyKind> {
    if lc.empty() && rc.empty() {
        return Some(KeyKind::Int);
    }
    if lc.numeric_only() && rc.numeric_only() {
        return if !lc.floats && !rc.floats {
            Some(KeyKind::Int)
        } else if !lc.big_int && !rc.big_int {
            // Floats in play: `sql_cmp` compares mixed numerics as f64,
            // and with no integer beyond ±2^53 the cast is injective, so
            // f64-bit keys reproduce its equality classes exactly.
            Some(KeyKind::F64)
        } else {
            None // Int↔Float equality is not transitive out here
        };
    }
    if lc.stringy_only() && rc.stringy_only() {
        return Some(KeyKind::Str);
    }
    if lc.bool_only() && rc.bool_only() {
        return Some(KeyKind::Bool);
    }
    // Cross-class contents could make the nested loop raise a
    // "cannot compare" error on some row pair; keep its semantics.
    None
}

fn f64_key_bits(f: f64) -> u64 {
    if f == 0.0 {
        0.0f64.to_bits() // merge -0.0 with 0.0, as sql_cmp equates them
    } else {
        float_key_bits(f)
    }
}

fn jkey(kind: KeyKind, v: ValueRef<'_>) -> Option<JKey> {
    match (kind, v) {
        (_, ValueRef::Null) => None,
        (KeyKind::Int, ValueRef::Int(i)) => Some(JKey::Int(i)),
        (KeyKind::F64, ValueRef::Int(i)) => Some(JKey::F64(f64_key_bits(i as f64))),
        (KeyKind::F64, ValueRef::Float(f)) => Some(JKey::F64(f64_key_bits(f))),
        (KeyKind::Str, ValueRef::Str(s)) => Some(JKey::Str(s.to_string())),
        (KeyKind::Str, ValueRef::Date(d)) => Some(JKey::Str(d.to_string())),
        (KeyKind::Bool, ValueRef::Bool(b)) => Some(JKey::Bool(b)),
        // Planner classification guarantees these never happen; treating
        // them as NULL (no match) keeps this total without panicking.
        _ => None,
    }
}

fn row_jkey(src: &Source, row: usize, pairs: &[KeyPair], right: bool) -> Option<Vec<JKey>> {
    let mut key = Vec::with_capacity(pairs.len());
    for p in pairs {
        let col = if right { p.right } else { p.left };
        key.push(jkey(p.kind, src.chunk.cols[col].at(row))?);
    }
    Some(key)
}

fn hash_join(
    l: Source,
    r: Source,
    cols: Vec<ColMeta>,
    kind: JoinKind,
    pairs: &[KeyPair],
) -> Source {
    let build_start = Instant::now();
    let mut table: HashMap<Vec<JKey>, Vec<u32>> = HashMap::with_capacity(r.chunk.len());
    for ri in 0..r.chunk.len() {
        if let Some(key) = row_jkey(&r, ri, pairs, true) {
            table.entry(key).or_default().push(ri as u32);
        }
    }
    let build_ns = build_start.elapsed().as_nanos() as u64;

    let probe_start = Instant::now();
    let mut lidx = Vec::new();
    let mut ridx = Vec::new();
    for li in 0..l.chunk.len() {
        let matches = row_jkey(&l, li, pairs, false).and_then(|k| table.get(&k));
        match matches {
            Some(ris) if !ris.is_empty() => {
                for &ri in ris {
                    lidx.push(li as u32);
                    ridx.push(ri);
                }
            }
            _ => {
                if kind == JoinKind::Left {
                    lidx.push(li as u32);
                    ridx.push(u32::MAX);
                }
            }
        }
    }
    let probe_ns = probe_start.elapsed().as_nanos() as u64;
    with_counters(|c| {
        c.hash_joins += 1;
        c.join_build_ns += build_ns;
        c.join_probe_ns += probe_ns;
    });

    let len = lidx.len();
    let chunk = gather_sides(&l, &r, &lidx, &ridx, len);
    Source { cols, chunk }
}

fn nested_loop_join(
    env: &EvalEnv<'_>,
    outer: Option<&Scope<'_>>,
    l: Source,
    r: Source,
    cols: Vec<ColMeta>,
    kind: JoinKind,
    pred: &Expr,
) -> EngineResult<Source> {
    with_counters(|c| c.nested_loop_joins += 1);
    let lrows = l.chunk.to_rows();
    let rrows = r.chunk.to_rows();
    let mut out_rows = Vec::new();
    for lrow in &lrows {
        let mut matched = false;
        for rrow in &rrows {
            let mut combined = lrow.clone();
            combined.extend(rrow.iter().cloned());
            let scope = Scope::row_scope(&cols, &combined, outer);
            if eval_expr(pred, &scope, env)?.as_bool()? == Some(true) {
                matched = true;
                out_rows.push(combined);
            }
        }
        if kind == JoinKind::Left && !matched {
            let mut combined = lrow.clone();
            combined.extend(std::iter::repeat_n(Value::Null, r.cols.len()));
            out_rows.push(combined);
        }
    }
    let width = cols.len();
    Ok(Source {
        cols,
        chunk: DataChunk::from_rows(out_rows, width),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr as E;
    use crate::catalog::{Database, Table};
    use crate::exec::CteMap;

    fn with_env<T>(db: &Database, f: impl FnOnce(&EvalEnv<'_>) -> T) -> T {
        let ctes = CteMap::new();
        f(&EvalEnv {
            db,
            ctes: &ctes,
            select: crate::exec::exec_select,
        })
    }

    fn src(names: &[&str], rows: Vec<Vec<Value>>) -> Source {
        let width = names.len();
        Source {
            cols: names
                .iter()
                .map(|n| ColMeta::new(Some("t".into()), n.to_string()))
                .collect(),
            chunk: DataChunk::from_rows(rows, width),
        }
    }

    fn src2(q: &str, names: &[&str], rows: Vec<Vec<Value>>) -> Source {
        let width = names.len();
        Source {
            cols: names
                .iter()
                .map(|n| ColMeta::new(Some(q.into()), n.to_string()))
                .collect(),
            chunk: DataChunk::from_rows(rows, width),
        }
    }

    fn run_join(l: Source, r: Source, kind: JoinKind, on: Expr) -> Vec<Vec<Value>> {
        let db = Database::new("test");
        let out = with_env(&db, |env| join_columnar(env, None, l, r, kind, Some(&on)))
            .expect("join should succeed");
        out.chunk.to_rows()
    }

    fn i(v: i64) -> Value {
        Value::Integer(v)
    }
    fn t(s: &str) -> Value {
        Value::Text(s.into())
    }

    #[test]
    fn hash_join_matches_and_preserves_order() {
        take_counters();
        let l = src2(
            "l",
            &["k", "a"],
            vec![vec![i(1), t("x")], vec![i(2), t("y")], vec![i(1), t("z")]],
        );
        let r = src2(
            "r",
            &["k", "b"],
            vec![vec![i(1), t("p")], vec![i(3), t("q")], vec![i(1), t("s")]],
        );
        let on = E::eq(E::qcol("l", "k"), E::qcol("r", "k"));
        let rows = run_join(l, r, JoinKind::Inner, on);
        // Left-major order; right matches in right-row order.
        assert_eq!(
            rows,
            vec![
                vec![i(1), t("x"), i(1), t("p")],
                vec![i(1), t("x"), i(1), t("s")],
                vec![i(1), t("z"), i(1), t("p")],
                vec![i(1), t("z"), i(1), t("s")],
            ]
        );
        let c = take_counters();
        assert_eq!(c.hash_joins, 1);
        assert_eq!(c.nested_loop_joins, 0);
    }

    #[test]
    fn null_join_keys_never_match() {
        // NULL = NULL is unknown in SQL: rows with NULL keys must join
        // with nothing, on both the build and probe sides.
        let l = src2("l", &["k"], vec![vec![Value::Null], vec![i(1)]]);
        let r = src2("r", &["k"], vec![vec![Value::Null], vec![i(1)]]);
        let on = E::eq(E::qcol("l", "k"), E::qcol("r", "k"));
        let rows = run_join(l, r, JoinKind::Inner, on);
        assert_eq!(rows, vec![vec![i(1), i(1)]]);
    }

    #[test]
    fn left_join_pads_null_key_rows() {
        let l = src2("l", &["k"], vec![vec![Value::Null], vec![i(7)]]);
        let r = src2("r", &["k", "v"], vec![vec![i(1), t("a")]]);
        let on = E::eq(E::qcol("l", "k"), E::qcol("r", "k"));
        let rows = run_join(l, r, JoinKind::Left, on);
        assert_eq!(
            rows,
            vec![
                vec![Value::Null, Value::Null, Value::Null],
                vec![i(7), Value::Null, Value::Null],
            ]
        );
    }

    #[test]
    fn composite_keys_with_pipe_strings_do_not_collide() {
        // ("a|t:b", "c") vs ("a", "b|t:c") collided under string keys.
        let l = src2("l", &["k1", "k2"], vec![vec![t("a|t:b"), t("c")]]);
        let r = src2(
            "r",
            &["k1", "k2"],
            vec![vec![t("a"), t("b|t:c")], vec![t("a|t:b"), t("c")]],
        );
        let on = E::and(
            E::eq(E::qcol("l", "k1"), E::qcol("r", "k1")),
            E::eq(E::qcol("l", "k2"), E::qcol("r", "k2")),
        );
        let rows = run_join(l, r, JoinKind::Inner, on);
        assert_eq!(rows, vec![vec![t("a|t:b"), t("c"), t("a|t:b"), t("c")]]);
    }

    #[test]
    fn mixed_numeric_keys_match_as_f64() {
        // 1 (int) joins 1.0 (float), like sql_cmp's mixed comparison.
        let l = src2("l", &["k"], vec![vec![i(1)], vec![i(2)]]);
        let r = src2("r", &["k"], vec![vec![Value::Float(1.0)]]);
        let on = E::eq(E::qcol("l", "k"), E::qcol("r", "k"));
        let rows = run_join(l, r, JoinKind::Inner, on);
        assert_eq!(rows, vec![vec![i(1), Value::Float(1.0)]]);
    }

    #[test]
    fn huge_ints_with_floats_fall_back_to_nested_loop() {
        take_counters();
        let big = (1i64 << 53) + 1;
        let l = src2("l", &["k"], vec![vec![i(big)]]);
        let r = src2("r", &["k"], vec![vec![Value::Float(9007199254740992.0)]]);
        let on = E::eq(E::qcol("l", "k"), E::qcol("r", "k"));
        let rows = run_join(l, r, JoinKind::Inner, on);
        // Int(2^53+1) vs Float(2^53) compares equal as f64 in sql_cmp,
        // and the fallback nested loop reproduces exactly that.
        assert_eq!(rows.len(), 1);
        let c = take_counters();
        assert_eq!(c.nested_loop_joins, 1);
        assert_eq!(c.hash_joins, 0);
    }

    #[test]
    fn non_equi_predicate_uses_nested_loop() {
        take_counters();
        let l = src2("l", &["k"], vec![vec![i(1)], vec![i(5)]]);
        let r = src2("r", &["k"], vec![vec![i(3)]]);
        let on = Expr::Binary {
            left: Box::new(E::qcol("l", "k")),
            op: BinaryOp::Gt,
            right: Box::new(E::qcol("r", "k")),
        };
        let rows = run_join(l, r, JoinKind::Inner, on);
        assert_eq!(rows, vec![vec![i(5), i(3)]]);
        let c = take_counters();
        assert_eq!(c.nested_loop_joins, 1);
    }

    #[test]
    fn cross_join_is_left_major() {
        let db = Database::new("test");
        let l = src(&["a"], vec![vec![i(1)], vec![i(2)]]);
        let r = src2("u", &["b"], vec![vec![t("x")], vec![t("y")]]);
        let out = with_env(&db, |env| {
            join_columnar(env, None, l, r, JoinKind::Cross, None)
        })
        .expect("cross join");
        assert_eq!(
            out.chunk.to_rows(),
            vec![
                vec![i(1), t("x")],
                vec![i(1), t("y")],
                vec![i(2), t("x")],
                vec![i(2), t("y")],
            ]
        );
    }

    #[test]
    fn scan_counts_rows_and_batches() {
        take_counters();
        let mut db = Database::new("test");
        let mut tbl = Table::new(
            "NUMS",
            vec![crate::catalog::Column::new(
                "N",
                crate::value::DataType::Integer,
            )],
        );
        for v in 0..5 {
            tbl.push_row(vec![i(v)]).expect("row arity");
        }
        db.add_table(tbl).expect("add table");
        let tr = TableRef::Named {
            name: "NUMS".into(),
            alias: None,
        };
        let srcr = with_env(&db, |env| resolve_from_columnar(env, &tr, None)).expect("scan");
        assert_eq!(srcr.chunk.len(), 5);
        let c = take_counters();
        assert_eq!(c.batches, 1);
        assert_eq!(c.rows_scanned, 5);
    }
}
