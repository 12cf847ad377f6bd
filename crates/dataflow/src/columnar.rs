//! Columnar vectorized execution: typed column chunks, the row-expression
//! IR that makes fused steps transparent to the engine, and the stage
//! driver that runs eligible chains batch-at-a-time over per-column inner
//! loops.
//!
//! The row path moves rows as boxed [`Value`] enums, one enum match per
//! operator per tuple, even inside fused stages. This module generalizes
//! the §5 tile runtime's batch layout to arbitrary datasets:
//!
//! * **[`RowExpr`]** — a small expression IR over whole rows. Operators
//!   built from it (via `Dataset::map_expr` / `Dataset::filter_expr`, or
//!   the exec crate's lowering of comprehension steps) carry the
//!   expression *alongside* the compiled closure, so the engine can see
//!   that a step is arithmetic/comparison/projection instead of an opaque
//!   `Fn` pointer. The closure and the expression are derived from the
//!   same source, so the row path and the columnar path agree by
//!   construction.
//! * **[`VCol`]** — typed column chunks: `Vec<i64>` / `Vec<f64>` /
//!   `Vec<bool>` lanes, dictionary-encoded strings, struct-of-arrays
//!   tuples, broadcast constants, and an opaque `Value` column as the
//!   escape hatch. A filter's boolean lane acts as the validity mask the
//!   surviving columns are compacted through.
//! * **[`drive_columnar`]** — the stage compiler/driver: each tile of up
//!   to `batch` rows is decomposed into columns once, every fused step is
//!   evaluated as per-column inner loops (auto-vectorizable `zip`/`map`
//!   over primitive lanes; anything type-mixed falls back to per-element
//!   [`BinOp::apply`] so semantics agree by construction), and the
//!   surviving rows are reassembled once at the end of the chain.
//! * **Typed tuple decompose** — a tile of tuples is split straight into
//!   one typed lane per field, reading each field in place (no per-field
//!   `Vec<Value>` of clones). Top-level fields no step reads (the key of
//!   an array traversal `(_, v) ← V`, say) are not decomposed at all.
//! * **[`fold_chain`]** — the columnar consumer of a total reduction
//!   (`⊕/` over a fused chain): each tile's final column is folded in
//!   place — `f64`/`i64` lanes under `+ * min max`, `bool` lanes under
//!   `&& ||` — strictly left to right from the first surviving row, so
//!   the result is bit-identical to the row fold. Surviving rows are
//!   never rebuilt as `Value`s; any other lane (strings, tuples, opaque
//!   rows, a mixed-type accumulator) folds per element through
//!   [`BinOp::apply`]. A morsel of a split partition runs through
//!   [`defer_chain`] instead, keeping its final columns as a
//!   [`FoldPiece`] that folds later, in row order, with the same result.
//!
//! ## Error identity
//!
//! Lane loops bail on the first faulting lane element, which is generally
//! *not* the canonical first error of tuple-at-a-time execution (a later
//! column of an earlier row may fail first, or the consumer's sink may
//! reject an earlier row). A failing tile is therefore **replayed
//! tuple-at-a-time into the real sink**: nothing from the failed tile has
//! been emitted yet, so the replay reproduces the byte-identical first
//! error — statement tag included — that the row path would have raised.
//! If the replay sails through (a non-deterministic operator), the batched
//! error is kept.
//!
//! Chains containing a step without an expression (an opaque UDF) never
//! enter the columnar path at all: the engine runs them tuple-at-a-time
//! per stage, records
//! [`StatsSnapshot::row_fallback_stages`](crate::StatsSnapshot), and the
//! plan trace notes `layout: row (…)` naming the opaque step.

use std::collections::HashMap;
use std::sync::Arc;

use diablo_runtime::{BinOp, Func, RuntimeError, UnOp, Value};

use crate::plan::{drive, Result, Step, StepOp};
use crate::stats::Stats;

/// A transparent row expression: the part of a `map`/`filter` step the
/// engine can see through and lower to per-column loops.
///
/// Evaluation semantics are exactly those of the runtime operators
/// ([`BinOp::apply`], [`UnOp::apply`], [`Func::apply`]): wrapping 64-bit
/// integer arithmetic, checked long division, `total_cmp` double
/// comparisons. A closure derived from a `RowExpr` (the row path) and the
/// vectorized interpretation (the columnar path) therefore return the same
/// rows and raise the same errors.
#[derive(Clone, Debug)]
pub enum RowExpr {
    /// The whole input row.
    Input,
    /// Field `i` of the input row's tuple layout.
    Col(usize),
    /// A literal.
    Const(Value),
    /// A binary runtime operator over two sub-expressions.
    Bin(BinOp, Box<RowExpr>, Box<RowExpr>),
    /// A unary runtime operator.
    Un(UnOp, Box<RowExpr>),
    /// A builtin scalar function call.
    Call(Func, Vec<RowExpr>),
    /// A fresh tuple from sub-expressions.
    Tuple(Vec<RowExpr>),
    /// Record-field / tuple-position access (`_1`, `_2`, … or a record
    /// field name), with [`Value::field`] semantics.
    Field(Box<RowExpr>, String),
    /// Destructures the input row against a flat tuple pattern of
    /// variables and wildcards: a row that is a tuple of exactly `arity`
    /// fields yields the tuple of its fields at positions `take` (the
    /// pattern's variables, in order); any other row fails with
    /// `pattern {pattern} does not match source row {row}`. Build it with
    /// [`RowExpr::unpack`].
    Unpack {
        /// The pattern's field count.
        arity: usize,
        /// Positions of the pattern's variables, each below `arity`.
        take: Vec<usize>,
        /// The pattern as it appears in the mismatch error.
        pattern: Arc<str>,
    },
}

fn narrow_row() -> RuntimeError {
    RuntimeError::new("row is narrower than its layout")
}

fn unpack_mismatch(pattern: &str, row: &Value) -> RuntimeError {
    RuntimeError::new(format!("pattern {pattern} does not match source row {row}"))
}

/// The 0-based tuple position a `_k` field name selects, as
/// [`Value::field`] reads it.
fn tuple_position(name: &str) -> Option<usize> {
    name.strip_prefix('_')?
        .parse::<usize>()
        .ok()?
        .checked_sub(1)
}

impl RowExpr {
    /// A [`RowExpr::Unpack`] of the input row.
    ///
    /// # Panics
    ///
    /// If a position in `take` is not below `arity`.
    pub fn unpack(arity: usize, take: Vec<usize>, pattern: impl Into<Arc<str>>) -> RowExpr {
        assert!(
            take.iter().all(|&i| i < arity),
            "unpack positions {take:?} exceed arity {arity}"
        );
        RowExpr::Unpack {
            arity,
            take,
            pattern: pattern.into(),
        }
    }

    /// Evaluates the expression against one row — the row path. This is
    /// what `Dataset::map_expr` / `filter_expr` closures call, and what a
    /// failed tile's replay runs.
    pub fn eval(&self, row: &Value) -> Result<Value> {
        match self {
            RowExpr::Input => Ok(row.clone()),
            RowExpr::Col(i) => row
                .as_tuple()
                .and_then(|t| t.get(*i))
                .cloned()
                .ok_or_else(narrow_row),
            RowExpr::Const(v) => Ok(v.clone()),
            RowExpr::Bin(op, a, b) => op.apply(&a.eval(row)?, &b.eval(row)?),
            RowExpr::Un(op, e) => op.apply(&e.eval(row)?),
            RowExpr::Call(f, args) => {
                let vs = args
                    .iter()
                    .map(|a| a.eval(row))
                    .collect::<Result<Vec<Value>>>()?;
                f.apply(&vs)
            }
            RowExpr::Tuple(es) => Ok(Value::tuple(
                es.iter()
                    .map(|e| e.eval(row))
                    .collect::<Result<Vec<Value>>>()?,
            )),
            RowExpr::Field(e, name) => {
                let v = e.eval(row)?;
                match v.field(name) {
                    Some(f) => Ok(f.clone()),
                    None => Err(RuntimeError::new(format!(
                        "value {v} has no field `{name}`"
                    ))),
                }
            }
            RowExpr::Unpack {
                arity,
                take,
                pattern,
            } => match row.as_tuple() {
                Some(fs) if fs.len() == *arity => {
                    Ok(Value::tuple(take.iter().map(|&i| fs[i].clone()).collect()))
                }
                _ => Err(unpack_mismatch(pattern, row)),
            },
        }
    }

    /// Collects the top-level fields of the input row this expression
    /// reads into `out`. Returns `false` when it reads the row as a whole
    /// (or a field it cannot place), so every field is needed.
    fn reads_fields(&self, out: &mut Vec<usize>) -> bool {
        match self {
            RowExpr::Input => false,
            RowExpr::Col(i) => {
                out.push(*i);
                true
            }
            RowExpr::Const(_) => true,
            RowExpr::Bin(_, a, b) => a.reads_fields(out) && b.reads_fields(out),
            RowExpr::Un(_, e) => e.reads_fields(out),
            RowExpr::Call(_, es) | RowExpr::Tuple(es) => es.iter().all(|e| e.reads_fields(out)),
            RowExpr::Field(e, name) => match (e.as_ref(), tuple_position(name)) {
                (RowExpr::Input, Some(k)) => {
                    out.push(k);
                    true
                }
                _ => e.reads_fields(out),
            },
            RowExpr::Unpack { take, .. } => {
                out.extend(take);
                true
            }
        }
    }
}

/// The top-level source fields a chain reads, or `None` when it may read
/// whole rows. Leading filters pass their input row on, so their reads
/// count together with the first map's; a chain of filters only hands
/// the source rows themselves to the consumer.
fn source_fields(steps: &[Step]) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    for s in steps {
        if !s.expr.as_ref()?.reads_fields(&mut out) {
            return None;
        }
        if matches!(s.op, StepOp::Map(_)) {
            return Some(out);
        }
    }
    None
}

/// True when every fused step of the chain carries a [`RowExpr`] — the
/// stage can run through the columnar driver.
pub(crate) fn eligible(steps: &[Step]) -> bool {
    !steps.is_empty() && steps.iter().all(|s| s.expr.is_some())
}

/// A typed column chunk: one tile's worth of one column.
#[derive(Clone, Debug)]
enum VCol {
    /// 64-bit integer lane.
    Long(Arc<Vec<i64>>),
    /// 64-bit float lane.
    Double(Arc<Vec<f64>>),
    /// Boolean lane (also the validity mask a filter compacts through).
    Bool(Arc<Vec<bool>>),
    /// Dictionary-encoded strings: per-row ids into a deduplicated
    /// dictionary, so equality over a shared dictionary is an id compare.
    Str(Arc<Vec<u32>>, Arc<Vec<Arc<str>>>),
    /// Struct-of-arrays tuple: one child column per field.
    Tuple(Arc<Vec<VCol>>),
    /// A broadcast constant (every row holds this value).
    Const(Value),
    /// Opaque rows — no typed layout applies; per-element semantics.
    Val(Arc<Vec<Value>>),
    /// A tuple field no step of the chain reads, left undecomposed.
    Skipped,
}

/// Columnarizes a borrowed tile. Typed lanes when the tile is homogeneous;
/// the opaque column otherwise. In a tile of tuples, top-level fields
/// outside `need` (when given) are [`VCol::Skipped`].
fn decompose(rows: &[Value], need: Option<&[usize]>) -> VCol {
    match try_typed(rows.iter(), rows.len(), need) {
        Some(col) => col,
        None => VCol::Val(Arc::new(rows.to_vec())),
    }
}

/// Columnarizes an owned tile (e.g. a fallback step's per-element output),
/// reusing the allocation when no typed layout applies.
fn decompose_owned(rows: Vec<Value>) -> VCol {
    match try_typed(rows.iter(), rows.len(), None) {
        Some(col) => col,
        None => VCol::Val(Arc::new(rows)),
    }
}

/// Typed lanes for `len` homogeneous values, read in place. Tuples of one
/// width split into one column per field; each field is read straight
/// from its tuples, and only a field that is itself a tuple (or has no
/// typed layout) gathers references first.
fn try_typed<'a, I>(rows: I, len: usize, need: Option<&[usize]>) -> Option<VCol>
where
    I: Iterator<Item = &'a Value> + Clone,
{
    let Value::Tuple(first) = rows.clone().next()? else {
        return try_leaf(rows, len);
    };
    let width = first.len();
    if !rows
        .clone()
        .all(|v| matches!(v, Value::Tuple(fs) if fs.len() == width))
    {
        return None;
    }
    let field = |c: usize| {
        rows.clone().map(move |v| match v {
            Value::Tuple(fs) => &fs[c],
            _ => unreachable!("checked tuple width"),
        })
    };
    let cols = (0..width)
        .map(|c| {
            if need.is_some_and(|n| !n.contains(&c)) {
                return VCol::Skipped;
            }
            if let Some(col) = try_leaf(field(c), len) {
                return col;
            }
            let refs: Vec<&Value> = field(c).collect();
            try_typed(refs.iter().copied(), len, None)
                .unwrap_or_else(|| VCol::Val(Arc::new(refs.into_iter().cloned().collect())))
        })
        .collect();
    Some(VCol::Tuple(Arc::new(cols)))
}

/// A primitive lane (long, double, bool, or dictionary-encoded string)
/// when all `len` values share that type.
fn try_leaf<'a>(rows: impl Iterator<Item = &'a Value> + Clone, len: usize) -> Option<VCol> {
    match rows.clone().next()? {
        Value::Long(_) => {
            let mut lane = Vec::with_capacity(len);
            for v in rows {
                match v {
                    Value::Long(n) => lane.push(*n),
                    _ => return None,
                }
            }
            Some(long_col(lane))
        }
        Value::Double(_) => {
            let mut lane = Vec::with_capacity(len);
            for v in rows {
                match v {
                    Value::Double(x) => lane.push(*x),
                    _ => return None,
                }
            }
            Some(double_col(lane))
        }
        Value::Bool(_) => {
            let mut lane = Vec::with_capacity(len);
            for v in rows {
                match v {
                    Value::Bool(b) => lane.push(*b),
                    _ => return None,
                }
            }
            Some(bool_col(lane))
        }
        Value::Str(_) => {
            let mut ids = Vec::with_capacity(len);
            let mut dict: Vec<Arc<str>> = Vec::new();
            let mut seen: HashMap<&Arc<str>, u32> = HashMap::new();
            for v in rows {
                match v {
                    Value::Str(s) => {
                        let id = *seen.entry(s).or_insert_with(|| {
                            dict.push(s.clone());
                            (dict.len() - 1) as u32
                        });
                        ids.push(id);
                    }
                    _ => return None,
                }
            }
            Some(VCol::Str(Arc::new(ids), Arc::new(dict)))
        }
        _ => None,
    }
}

impl VCol {
    /// Reassembles row `i` of this column as a boxed value.
    fn get(&self, i: usize) -> Value {
        match self {
            VCol::Long(v) => Value::Long(v[i]),
            VCol::Double(v) => Value::Double(v[i]),
            VCol::Bool(v) => Value::Bool(v[i]),
            VCol::Str(ids, dict) => Value::Str(dict[ids[i] as usize].clone()),
            VCol::Tuple(cols) => Value::tuple(cols.iter().map(|c| c.get(i)).collect()),
            VCol::Const(v) => v.clone(),
            VCol::Val(rows) => rows[i].clone(),
            VCol::Skipped => unreachable!("a skipped field is never read"),
        }
    }

    /// Keeps the rows whose mask bit is set — a filter's compaction.
    fn compact(&self, mask: &[bool]) -> VCol {
        fn keep<T: Copy>(lane: &[T], mask: &[bool]) -> Vec<T> {
            lane.iter()
                .zip(mask)
                .filter(|&(_, &m)| m)
                .map(|(&x, _)| x)
                .collect()
        }
        match self {
            VCol::Long(v) => VCol::Long(Arc::new(keep(v, mask))),
            VCol::Double(v) => VCol::Double(Arc::new(keep(v, mask))),
            VCol::Bool(v) => VCol::Bool(Arc::new(keep(v, mask))),
            VCol::Str(ids, dict) => VCol::Str(Arc::new(keep(ids, mask)), dict.clone()),
            VCol::Tuple(cols) => {
                VCol::Tuple(Arc::new(cols.iter().map(|c| c.compact(mask)).collect()))
            }
            VCol::Const(v) => VCol::Const(v.clone()),
            VCol::Val(rows) => VCol::Val(Arc::new(
                rows.iter()
                    .zip(mask)
                    .filter(|&(_, &m)| m)
                    .map(|(v, _)| v.clone())
                    .collect(),
            )),
            VCol::Skipped => VCol::Skipped,
        }
    }
}

/// A primitive lane view with constant broadcast.
enum Lane<'a, T: Copy> {
    V(&'a [T]),
    C(T),
}

fn zip<T: Copy, R: Copy>(
    a: &Lane<'_, T>,
    b: &Lane<'_, T>,
    len: usize,
    f: impl Fn(T, T) -> R,
) -> Vec<R> {
    match (a, b) {
        (Lane::V(x), Lane::V(y)) => x.iter().zip(y.iter()).map(|(&p, &q)| f(p, q)).collect(),
        (Lane::V(x), Lane::C(q)) => x.iter().map(|&p| f(p, *q)).collect(),
        (Lane::C(p), Lane::V(y)) => y.iter().map(|&q| f(*p, q)).collect(),
        (Lane::C(p), Lane::C(q)) => vec![f(*p, *q); len],
    }
}

fn try_zip<T: Copy, R: Copy>(
    a: &Lane<'_, T>,
    b: &Lane<'_, T>,
    len: usize,
    f: impl Fn(T, T) -> Result<R>,
) -> Result<Vec<R>> {
    match (a, b) {
        (Lane::V(x), Lane::V(y)) => x.iter().zip(y.iter()).map(|(&p, &q)| f(p, q)).collect(),
        (Lane::V(x), Lane::C(q)) => x.iter().map(|&p| f(p, *q)).collect(),
        (Lane::C(p), Lane::V(y)) => y.iter().map(|&q| f(*p, q)).collect(),
        (Lane::C(p), Lane::C(q)) => Ok(vec![f(*p, *q)?; len]),
    }
}

fn lane_i64(col: &VCol) -> Option<Lane<'_, i64>> {
    match col {
        VCol::Long(v) => Some(Lane::V(v)),
        VCol::Const(Value::Long(n)) => Some(Lane::C(*n)),
        _ => None,
    }
}

fn lane_f64(col: &VCol) -> Option<Lane<'_, f64>> {
    match col {
        VCol::Double(v) => Some(Lane::V(v)),
        VCol::Const(Value::Double(x)) => Some(Lane::C(*x)),
        _ => None,
    }
}

fn lane_bool(col: &VCol) -> Option<Lane<'_, bool>> {
    match col {
        VCol::Bool(v) => Some(Lane::V(v)),
        VCol::Const(Value::Bool(b)) => Some(Lane::C(*b)),
        _ => None,
    }
}

fn is_numeric_col(col: &VCol) -> bool {
    matches!(
        col,
        VCol::Long(_) | VCol::Double(_) | VCol::Const(Value::Long(_) | Value::Double(_))
    )
}

/// Promotes a numeric column to a double lane — the `both_doubles` /
/// `Value::cmp` promotion the runtime applies to mixed long/double
/// operands.
fn promote_f64(col: &VCol) -> Option<VCol> {
    match col {
        VCol::Double(_) => Some(col.clone()),
        VCol::Long(v) => Some(VCol::Double(Arc::new(
            v.iter().map(|&n| n as f64).collect(),
        ))),
        VCol::Const(Value::Double(_)) => Some(col.clone()),
        VCol::Const(Value::Long(n)) => Some(VCol::Const(Value::Double(*n as f64))),
        _ => None,
    }
}

fn long_col(lane: Vec<i64>) -> VCol {
    VCol::Long(Arc::new(lane))
}
fn double_col(lane: Vec<f64>) -> VCol {
    VCol::Double(Arc::new(lane))
}
fn bool_col(lane: Vec<bool>) -> VCol {
    VCol::Bool(Arc::new(lane))
}

/// Per-element fallback: exact runtime semantics for anything the lane
/// loops do not specialize.
fn fallback_bin(op: BinOp, a: &VCol, b: &VCol, len: usize) -> Result<VCol> {
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        out.push(op.apply(&a.get(i), &b.get(i))?);
    }
    Ok(decompose_owned(out))
}

/// Vectorized binary operator over two columns.
fn vec_bin(op: BinOp, a: &VCol, b: &VCol, len: usize) -> Result<VCol> {
    use std::cmp::Ordering;
    use BinOp::*;
    if let (VCol::Const(x), VCol::Const(y)) = (a, b) {
        // Fold constants once instead of per row.
        return Ok(VCol::Const(op.apply(x, y)?));
    }
    if let (Some(x), Some(y)) = (lane_i64(a), lane_i64(b)) {
        return match op {
            Add => Ok(long_col(zip(&x, &y, len, |p, q| p.wrapping_add(q)))),
            Sub => Ok(long_col(zip(&x, &y, len, |p, q| p.wrapping_sub(q)))),
            Mul => Ok(long_col(zip(&x, &y, len, |p, q| p.wrapping_mul(q)))),
            Div => Ok(long_col(try_zip(&x, &y, len, |p, q| {
                if q == 0 {
                    Err(RuntimeError::new("division by zero"))
                } else {
                    Ok(p / q)
                }
            })?)),
            Mod => Ok(long_col(try_zip(&x, &y, len, |p, q| {
                if q == 0 {
                    Err(RuntimeError::new("modulo by zero"))
                } else {
                    Ok(p % q)
                }
            })?)),
            Eq => Ok(bool_col(zip(&x, &y, len, |p, q| p == q))),
            Ne => Ok(bool_col(zip(&x, &y, len, |p, q| p != q))),
            Lt => Ok(bool_col(zip(&x, &y, len, |p, q| p < q))),
            Le => Ok(bool_col(zip(&x, &y, len, |p, q| p <= q))),
            Gt => Ok(bool_col(zip(&x, &y, len, |p, q| p > q))),
            Ge => Ok(bool_col(zip(&x, &y, len, |p, q| p >= q))),
            Min => Ok(long_col(zip(&x, &y, len, |p, q| p.min(q)))),
            Max => Ok(long_col(zip(&x, &y, len, |p, q| p.max(q)))),
            And | Or | ArgMin => fallback_bin(op, a, b, len),
        };
    }
    if let (Some(x), Some(y)) = (lane_bool(a), lane_bool(b)) {
        return match op {
            And => Ok(bool_col(zip(&x, &y, len, |p, q| p && q))),
            Or => Ok(bool_col(zip(&x, &y, len, |p, q| p || q))),
            Eq => Ok(bool_col(zip(&x, &y, len, |p, q| p == q))),
            Ne => Ok(bool_col(zip(&x, &y, len, |p, q| p != q))),
            _ => fallback_bin(op, a, b, len),
        };
    }
    if is_numeric_col(a) && is_numeric_col(b) {
        // At least one side is a double (the all-long case matched above),
        // so arithmetic promotes to doubles and comparisons use the
        // promoted total order — exactly `both_doubles` / `Value::cmp`.
        let strict = lane_f64(a).is_some() && lane_f64(b).is_some();
        let (pa, pb) = (
            promote_f64(a).expect("numeric"),
            promote_f64(b).expect("numeric"),
        );
        let (x, y) = (
            lane_f64(&pa).expect("promoted"),
            lane_f64(&pb).expect("promoted"),
        );
        return match op {
            Add => Ok(double_col(zip(&x, &y, len, |p, q| p + q))),
            Sub => Ok(double_col(zip(&x, &y, len, |p, q| p - q))),
            Mul => Ok(double_col(zip(&x, &y, len, |p, q| p * q))),
            Div => Ok(double_col(zip(&x, &y, len, |p, q| p / q))),
            Mod => Ok(double_col(zip(&x, &y, len, |p, q| p % q))),
            Eq => Ok(bool_col(zip(&x, &y, len, |p, q| {
                p.total_cmp(&q) == Ordering::Equal
            }))),
            Ne => Ok(bool_col(zip(&x, &y, len, |p, q| {
                p.total_cmp(&q) != Ordering::Equal
            }))),
            Lt => Ok(bool_col(zip(&x, &y, len, |p, q| {
                p.total_cmp(&q) == Ordering::Less
            }))),
            Le => Ok(bool_col(zip(&x, &y, len, |p, q| {
                p.total_cmp(&q) != Ordering::Greater
            }))),
            Gt => Ok(bool_col(zip(&x, &y, len, |p, q| {
                p.total_cmp(&q) == Ordering::Greater
            }))),
            Ge => Ok(bool_col(zip(&x, &y, len, |p, q| {
                p.total_cmp(&q) != Ordering::Less
            }))),
            // `min`/`max` keep the ORIGINAL operand (long or double), so
            // only the both-doubles case is lane-safe.
            Min if strict => Ok(double_col(zip(&x, &y, len, |p, q| {
                if p.total_cmp(&q) != Ordering::Greater {
                    p
                } else {
                    q
                }
            }))),
            Max if strict => Ok(double_col(zip(&x, &y, len, |p, q| {
                if p.total_cmp(&q) != Ordering::Less {
                    p
                } else {
                    q
                }
            }))),
            _ => fallback_bin(op, a, b, len),
        };
    }
    if let (VCol::Str(ids, dict), VCol::Const(Value::Str(s)))
    | (VCol::Const(Value::Str(s)), VCol::Str(ids, dict)) = (a, b)
    {
        // Equality with a string constant: look the constant up in the
        // dictionary once, then compare ids (no id matches when it is not
        // in the dictionary).
        if matches!(op, Eq | Ne) {
            let id = dict.iter().position(|d| d == s).map(|p| p as u32);
            let want = op == Eq;
            return Ok(bool_col(
                ids.iter().map(|&i| (Some(i) == id) == want).collect(),
            ));
        }
    }
    if let (VCol::Str(xi, xd), VCol::Str(yi, yd)) = (a, b) {
        // Within one dictionary ids are unique per string, so equality
        // over a shared dictionary is an id compare.
        if Arc::ptr_eq(xd, yd) && matches!(op, Eq | Ne) {
            let (x, y) = (Lane::V(xi.as_slice()), Lane::V(yi.as_slice()));
            return match op {
                Eq => Ok(bool_col(zip(&x, &y, len, |p: u32, q: u32| p == q))),
                _ => Ok(bool_col(zip(&x, &y, len, |p: u32, q: u32| p != q))),
            };
        }
    }
    fallback_bin(op, a, b, len)
}

/// Vectorized unary operator.
fn vec_un(op: UnOp, col: &VCol, len: usize) -> Result<VCol> {
    match (op, col) {
        (_, VCol::Const(v)) => Ok(VCol::Const(op.apply(v)?)),
        (UnOp::Neg, VCol::Long(v)) => Ok(long_col(v.iter().map(|&n| -n).collect())),
        (UnOp::Neg, VCol::Double(v)) => Ok(double_col(v.iter().map(|&x| -x).collect())),
        (UnOp::Not, VCol::Bool(v)) => Ok(bool_col(v.iter().map(|&b| !b).collect())),
        _ => {
            let mut out = Vec::with_capacity(len);
            for i in 0..len {
                out.push(op.apply(&col.get(i))?);
            }
            Ok(decompose_owned(out))
        }
    }
}

/// Tuple-position / record-field projection over a column.
fn project(col: &VCol, i: usize, len: usize) -> Result<VCol> {
    match col {
        VCol::Tuple(cols) => cols.get(i).cloned().ok_or_else(narrow_row),
        VCol::Const(v) => v
            .as_tuple()
            .and_then(|t| t.get(i))
            .cloned()
            .map(VCol::Const)
            .ok_or_else(narrow_row),
        VCol::Val(rows) => {
            let mut out = Vec::with_capacity(len);
            for v in rows.iter() {
                out.push(
                    v.as_tuple()
                        .and_then(|t| t.get(i))
                        .cloned()
                        .ok_or_else(narrow_row)?,
                );
            }
            Ok(decompose_owned(out))
        }
        _ => Err(narrow_row()),
    }
}

fn project_field(col: &VCol, name: &str, len: usize) -> Result<VCol> {
    if let VCol::Tuple(cols) = col {
        // `_k` on a struct-of-arrays tuple is just the k-th child column.
        // Any other name fails on every row, and the tile replay reports
        // the first one by value (this tile may hold skipped fields, so it
        // is not reassembled here).
        return tuple_position(name)
            .and_then(|k| cols.get(k))
            .cloned()
            .ok_or_else(|| RuntimeError::new(format!("a tuple tile has no field `{name}`")));
    }
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        let v = col.get(i);
        match v.field(name) {
            Some(f) => out.push(f.clone()),
            None => {
                return Err(RuntimeError::new(format!(
                    "value {v} has no field `{name}`"
                )))
            }
        }
    }
    Ok(decompose_owned(out))
}

/// Vectorized expression evaluation over the tile's current columns.
fn vec_eval(expr: &RowExpr, input: &VCol, len: usize) -> Result<VCol> {
    match expr {
        RowExpr::Input => Ok(input.clone()),
        RowExpr::Col(i) => project(input, *i, len),
        RowExpr::Const(v) => Ok(VCol::Const(v.clone())),
        RowExpr::Bin(op, a, b) => {
            let a = vec_eval(a, input, len)?;
            let b = vec_eval(b, input, len)?;
            vec_bin(*op, &a, &b, len)
        }
        RowExpr::Un(op, e) => {
            let col = vec_eval(e, input, len)?;
            vec_un(*op, &col, len)
        }
        RowExpr::Call(f, args) => {
            let cols = args
                .iter()
                .map(|e| vec_eval(e, input, len))
                .collect::<Result<Vec<VCol>>>()?;
            let mut out = Vec::with_capacity(len);
            let mut buf: Vec<Value> = Vec::with_capacity(cols.len());
            for i in 0..len {
                buf.clear();
                buf.extend(cols.iter().map(|c| c.get(i)));
                out.push(f.apply(&buf)?);
            }
            Ok(decompose_owned(out))
        }
        RowExpr::Tuple(es) => {
            let cols = es
                .iter()
                .map(|e| vec_eval(e, input, len))
                .collect::<Result<Vec<VCol>>>()?;
            Ok(VCol::Tuple(Arc::new(cols)))
        }
        RowExpr::Field(e, name) => {
            let col = vec_eval(e, input, len)?;
            project_field(&col, name, len)
        }
        RowExpr::Unpack { arity, take, .. } => match input {
            VCol::Tuple(cols) if cols.len() == *arity => Ok(VCol::Tuple(Arc::new(
                take.iter().map(|&i| cols[i].clone()).collect(),
            ))),
            // Every row of a struct-of-arrays tile has the wrong width;
            // the tile replay reports the first one by value.
            VCol::Tuple(cols) => Err(RuntimeError::new(format!(
                "a tile of {}-field rows does not match a {arity}-field pattern",
                cols.len()
            ))),
            VCol::Const(v) => expr.eval(v).map(VCol::Const),
            _ => {
                let mut out = Vec::with_capacity(len);
                for i in 0..len {
                    out.push(expr.eval(&input.get(i))?);
                }
                Ok(decompose_owned(out))
            }
        },
    }
}

/// A filter result as a validity mask.
fn mask_of(col: &VCol, len: usize) -> Result<Vec<bool>> {
    match col {
        VCol::Bool(v) => Ok(v.as_ref().clone()),
        VCol::Const(Value::Bool(b)) => Ok(vec![*b; len]),
        _ => {
            let mut mask = Vec::with_capacity(len);
            for i in 0..len {
                match col.get(i).as_bool() {
                    Some(b) => mask.push(b),
                    None => return Err(RuntimeError::new("condition must be boolean")),
                }
            }
            Ok(mask)
        }
    }
}

/// Runs one tile through the whole fused chain in columnar form:
/// decompose once (only the source fields the chain reads), then
/// per-column loops per step. Returns the final column and its row count,
/// or `None` when a filter emptied the tile.
fn run_tile(rows: &[Value], steps: &[Step]) -> Result<Option<(VCol, usize)>> {
    let mut col = decompose(rows, source_fields(steps).as_deref());
    let mut len = rows.len();
    for s in steps {
        let expr = s
            .expr
            .as_ref()
            .ok_or_else(|| RuntimeError::new("opaque step in a columnar stage"))?;
        match &s.op {
            StepOp::Map(_) => {
                col = vec_eval(expr, &col, len).map_err(|e| s.tag_err(e))?;
            }
            StepOp::Filter(_) => {
                let mask = vec_eval(expr, &col, len)
                    .and_then(|c| mask_of(&c, len))
                    .map_err(|e| s.tag_err(e))?;
                len = mask.iter().filter(|&&m| m).count();
                col = col.compact(&mask);
            }
            // flat_map carries no expression, so eligible() excluded it.
            StepOp::FlatMap(_) => return Err(RuntimeError::new("opaque step in a columnar stage")),
        }
        if len == 0 {
            return Ok(None);
        }
    }
    Ok(Some((col, len)))
}

/// Where a chain's surviving rows go: one row at a time (the row path and
/// a failed tile's replay), or a whole tile's final column at once.
trait ChainSink {
    fn row(&mut self, v: Value) -> Result<()>;
    fn tile(&mut self, col: &VCol, len: usize) -> Result<()>;
}

/// A row sink: a tile is reassembled into rows once, at the end of the
/// chain.
struct Rows<'a>(&'a mut dyn FnMut(Value) -> Result<()>);

impl ChainSink for Rows<'_> {
    fn row(&mut self, v: Value) -> Result<()> {
        (self.0)(v)
    }

    fn tile(&mut self, col: &VCol, len: usize) -> Result<()> {
        for i in 0..len {
            (self.0)(col.get(i))?;
        }
        Ok(())
    }
}

/// A total reduction's running fold: `acc ⊕ row`, left to right from the
/// first surviving row.
struct Fold<'a> {
    op: BinOp,
    acc: &'a mut Option<Value>,
}

impl ChainSink for Fold<'_> {
    fn row(&mut self, v: Value) -> Result<()> {
        *self.acc = Some(match self.acc.take() {
            None => v,
            Some(a) => self.op.apply(&a, &v)?,
        });
        Ok(())
    }

    fn tile(&mut self, col: &VCol, len: usize) -> Result<()> {
        if let Some(v) = lane_fold(self.op, col, 0, len, self.acc) {
            *self.acc = Some(v);
            return Ok(());
        }
        // The accumulator's type differs from the lane's (a type-mixed
        // input) or the lane has no typed fold: one runtime step brings
        // the accumulator to the lane's type where the runtime promotes,
        // then the rest folds typed if it can, per element otherwise.
        self.row(col.get(0))?;
        if let Some(v) = lane_fold(self.op, col, 1, len, self.acc) {
            *self.acc = Some(v);
            return Ok(());
        }
        for i in 1..len {
            self.row(col.get(i))?;
        }
        Ok(())
    }
}

impl<T: Copy> Lane<'_, T> {
    /// Folds elements `start..len` onto `init`, strictly left to right.
    fn fold(&self, start: usize, len: usize, init: T, f: impl Fn(T, T) -> T) -> T {
        match self {
            Lane::V(xs) => xs[start..len].iter().fold(init, |a, &x| f(a, x)),
            Lane::C(c) => (start..len).fold(init, |a, _| f(a, *c)),
        }
    }

    fn at(&self, i: usize) -> T {
        match self {
            Lane::V(xs) => xs[i],
            Lane::C(c) => *c,
        }
    }
}

/// Folds a typed lane's elements `start..len` onto the accumulator with
/// exactly [`BinOp::apply`]'s arithmetic — wrapping `i64` `+ *`, IEEE
/// `f64` `+ *`, `min`/`max` by the runtime's total order, `bool` `&& ||`.
/// With no accumulator the fold starts from element `start`. `None` when
/// the operator, the lane, or the accumulator's type has no typed fold.
fn lane_fold(
    op: BinOp,
    col: &VCol,
    start: usize,
    len: usize,
    acc: &Option<Value>,
) -> Option<Value> {
    use std::cmp::Ordering::{Greater, Less};
    use BinOp::*;
    fn seed<T: Copy>(lane: &Lane<'_, T>, start: usize, acc: Option<T>) -> (T, usize) {
        match acc {
            Some(a) => (a, start),
            None => (lane.at(start), start + 1),
        }
    }
    if let Some(lane) = lane_i64(col) {
        let f: fn(i64, i64) -> i64 = match op {
            Add => i64::wrapping_add,
            Mul => i64::wrapping_mul,
            Min => |a, b| if a <= b { a } else { b },
            Max => |a, b| if a >= b { a } else { b },
            _ => return None,
        };
        let acc = match acc {
            None => None,
            Some(Value::Long(a)) => Some(*a),
            Some(_) => return None,
        };
        let (init, from) = seed(&lane, start, acc);
        return Some(Value::Long(lane.fold(from, len, init, f)));
    }
    if let Some(lane) = lane_f64(col) {
        let f: fn(f64, f64) -> f64 = match op {
            Add => |a, b| a + b,
            Mul => |a, b| a * b,
            Min => |a, b| if a.total_cmp(&b) != Greater { a } else { b },
            Max => |a, b| if a.total_cmp(&b) != Less { a } else { b },
            _ => return None,
        };
        let acc = match acc {
            None => None,
            Some(Value::Double(a)) => Some(*a),
            Some(_) => return None,
        };
        let (init, from) = seed(&lane, start, acc);
        return Some(Value::Double(lane.fold(from, len, init, f)));
    }
    if let Some(lane) = lane_bool(col) {
        let f: fn(bool, bool) -> bool = match op {
            And => |a, b| a && b,
            Or => |a, b| a || b,
            _ => return None,
        };
        let acc = match acc {
            None => None,
            Some(Value::Bool(a)) => Some(*a),
            Some(_) => return None,
        };
        let (init, from) = seed(&lane, start, acc);
        return Some(Value::Bool(lane.fold(from, len, init, f)));
    }
    None
}

/// Drives a run of source rows through an eligible chain **batch-at-a-time
/// in columnar form**. Output rows and their order are identical to
/// [`drive`]; a failing tile is replayed tuple-at-a-time into the real
/// sink so the first error and its statement tag are byte-identical too
/// (see the module docs).
pub(crate) fn drive_columnar(
    rows: &[Value],
    steps: &[Step],
    batch: usize,
    stats: &Stats,
    sink: &mut dyn FnMut(Value) -> Result<()>,
) -> Result<()> {
    drive_tiles(rows, steps, batch, stats, &mut Rows(sink))
}

/// Folds the rows a chain yields into `acc` with `op` — the consumer of a
/// total reduction. An eligible chain runs in `batch`-row columnar tiles
/// whose final columns fold as typed lanes ([`lane_fold`]); any other
/// chain folds tuple-at-a-time. Either way the fold is `acc ⊕ row`
/// strictly in row order, so the result is bit-identical to the row path,
/// and a failing tile replays into the row fold for error identity.
pub(crate) fn fold_chain(
    rows: &[Value],
    steps: &[Step],
    batch: usize,
    stats: &Stats,
    op: BinOp,
    acc: &mut Option<Value>,
) -> Result<()> {
    let mut fold = Fold { op, acc };
    if eligible(steps) {
        return drive_tiles(rows, steps, batch, stats, &mut fold);
    }
    for row in rows {
        drive(row, steps, &mut |v| fold.row(v))?;
    }
    Ok(())
}

/// One morsel of a total reduction, evaluated with its fold deferred: the
/// chain's final tile columns (and a failed tile's replayed rows) in row
/// order, then the chain's error, if any. Folding a partition's pieces in
/// order with [`FoldPiece::fold_into`] is exactly [`fold_chain`] over the
/// whole partition — the same result bits and the same first error — so
/// morsels evaluate in parallel while the fold stays strictly left to
/// right.
pub(crate) struct FoldPiece {
    chunks: Vec<Chunk>,
    err: Option<RuntimeError>,
}

enum Chunk {
    Tile(VCol, usize),
    Row(Value),
}

/// A sink that keeps what a chain yields for a later fold.
struct Defer<'a>(&'a mut Vec<Chunk>);

impl ChainSink for Defer<'_> {
    fn row(&mut self, v: Value) -> Result<()> {
        self.0.push(Chunk::Row(v));
        Ok(())
    }

    fn tile(&mut self, col: &VCol, len: usize) -> Result<()> {
        self.0.push(Chunk::Tile(col.clone(), len));
        Ok(())
    }
}

/// Runs an eligible chain over `rows` in `batch`-row tiles, keeping the
/// final columns for [`FoldPiece::fold_into`].
pub(crate) fn defer_chain(
    rows: &[Value],
    steps: &[Step],
    batch: usize,
    stats: &Stats,
) -> FoldPiece {
    debug_assert!(eligible(steps));
    let mut chunks = Vec::new();
    let err = drive_tiles(rows, steps, batch, stats, &mut Defer(&mut chunks)).err();
    FoldPiece { chunks, err }
}

impl FoldPiece {
    /// Folds the piece into `acc` with `op`, then surfaces the chain's
    /// error — unless the fold failed first, on an earlier row.
    pub(crate) fn fold_into(self, op: BinOp, acc: &mut Option<Value>) -> Result<()> {
        let mut fold = Fold { op, acc };
        for chunk in self.chunks {
            match chunk {
                Chunk::Tile(col, len) => fold.tile(&col, len)?,
                Chunk::Row(v) => fold.row(v)?,
            }
        }
        self.err.map_or(Ok(()), Err)
    }
}

fn drive_tiles(
    rows: &[Value],
    steps: &[Step],
    batch: usize,
    stats: &Stats,
    sink: &mut dyn ChainSink,
) -> Result<()> {
    debug_assert!(batch > 0);
    for tile in rows.chunks(batch.max(1)) {
        match run_tile(tile, steps) {
            Ok(out) => {
                stats.record_vectorized_batch();
                if let Some((col, len)) = out {
                    sink.tile(&col, len)?;
                }
            }
            Err(batched) => {
                // Replay this tile tuple-at-a-time into the REAL sink:
                // nothing from a failed tile has been sunk yet, and the
                // canonical first error may come from an earlier row or
                // from the consumer, not from the lane that failed first.
                for row in tile {
                    drive(row, steps, &mut |v| sink.row(v))?;
                }
                // Non-deterministic operator: the replay sailed through,
                // so keep the batched error.
                return Err(batched);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn longs(ns: &[i64]) -> Vec<Value> {
        ns.iter().map(|&n| Value::Long(n)).collect()
    }

    fn step_map(expr: RowExpr, tag: Option<&str>) -> Step {
        let e = Arc::new(expr);
        let f = {
            let e = e.clone();
            move |row: &Value| e.eval(row)
        };
        Step {
            op: StepOp::Map(Arc::new(f)),
            tag: tag.map(Arc::from),
            expr: Some(e),
        }
    }

    fn step_filter(expr: RowExpr, tag: Option<&str>) -> Step {
        let e = Arc::new(expr);
        let f = {
            let e = e.clone();
            move |row: &Value| match e.eval(row)? {
                Value::Bool(b) => Ok(b),
                _ => Err(RuntimeError::new("condition must be boolean")),
            }
        };
        Step {
            op: StepOp::Filter(Arc::new(f)),
            tag: tag.map(Arc::from),
            expr: Some(e),
        }
    }

    fn run_both(
        rows: &[Value],
        steps: &[Step],
        batch: usize,
    ) -> (Result<Vec<Value>>, Result<Vec<Value>>) {
        let stats = Stats::default();
        let mut col_out = Vec::new();
        let col_res = drive_columnar(rows, steps, batch, &stats, &mut |v| {
            col_out.push(v);
            Ok(())
        })
        .map(|()| std::mem::take(&mut col_out));
        let mut row_out = Vec::new();
        let row_res = (|| {
            for row in rows {
                drive(row, steps, &mut |v| {
                    row_out.push(v);
                    Ok(())
                })?;
            }
            Ok(())
        })()
        .map(|()| std::mem::take(&mut row_out));
        (col_res, row_res)
    }

    fn bin(op: BinOp, a: RowExpr, b: RowExpr) -> RowExpr {
        RowExpr::Bin(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn arithmetic_chain_matches_row_path() {
        let rows = longs(&(0..1000).collect::<Vec<i64>>());
        let steps = vec![
            step_map(
                bin(BinOp::Mul, RowExpr::Input, RowExpr::Const(Value::Long(3))),
                None,
            ),
            step_map(
                bin(BinOp::Add, RowExpr::Input, RowExpr::Const(Value::Long(7))),
                None,
            ),
            step_filter(
                bin(BinOp::Gt, RowExpr::Input, RowExpr::Const(Value::Long(100))),
                None,
            ),
            step_map(
                bin(BinOp::Mod, RowExpr::Input, RowExpr::Const(Value::Long(11))),
                None,
            ),
        ];
        let (col, row) = run_both(&rows, &steps, 64);
        assert_eq!(col.unwrap(), row.unwrap());
    }

    #[test]
    fn tuple_projection_and_rebuild_match_row_path() {
        let rows: Vec<Value> = (0..300)
            .map(|i| Value::pair(Value::Long(i), Value::Double(i as f64 / 2.0)))
            .collect();
        let steps = vec![step_map(
            RowExpr::Tuple(vec![
                RowExpr::Col(1),
                bin(BinOp::Add, RowExpr::Col(0), RowExpr::Const(Value::Long(1))),
            ]),
            None,
        )];
        let (col, row) = run_both(&rows, &steps, 128);
        assert_eq!(col.unwrap(), row.unwrap());
    }

    #[test]
    fn mixed_long_double_comparison_promotes_like_the_runtime() {
        let rows: Vec<Value> = (0..100)
            .map(|i| {
                if i % 2 == 0 {
                    Value::Long(i)
                } else {
                    Value::Double(i as f64 - 0.5)
                }
            })
            .collect();
        let steps = vec![step_filter(
            bin(
                BinOp::Ge,
                RowExpr::Input,
                RowExpr::Const(Value::Double(50.0)),
            ),
            None,
        )];
        let (col, row) = run_both(&rows, &steps, 32);
        assert_eq!(col.unwrap(), row.unwrap());
    }

    #[test]
    fn string_dictionary_equality_matches_row_path() {
        let words = ["apple", "pear", "plum"];
        let rows: Vec<Value> = (0..200).map(|i| Value::str(words[i % 3])).collect();
        let steps = vec![step_filter(
            bin(BinOp::Eq, RowExpr::Input, RowExpr::Input),
            None,
        )];
        let (col, row) = run_both(&rows, &steps, 64);
        assert_eq!(col.unwrap(), row.unwrap());
        // And against a constant (one dictionary lookup, same rows),
        // including one that is in no tile's dictionary.
        let steps = vec![step_filter(
            bin(
                BinOp::Eq,
                RowExpr::Input,
                RowExpr::Const(Value::str("pear")),
            ),
            None,
        )];
        let (col, row) = run_both(&rows, &steps, 64);
        let kept = col.unwrap();
        assert_eq!(kept.len(), 200 / 3 + 1);
        assert_eq!(kept, row.unwrap());
        let steps = vec![step_filter(
            bin(BinOp::Ne, RowExpr::Const(Value::str("fig")), RowExpr::Input),
            None,
        )];
        let (col, row) = run_both(&rows, &steps, 64);
        assert_eq!(col.unwrap(), rows);
        assert_eq!(row.unwrap(), rows);
    }

    fn pairs(n: i64) -> Vec<Value> {
        (0..n)
            .map(|i| Value::pair(Value::Long(i), Value::Double(i as f64 / 4.0)))
            .collect()
    }

    #[test]
    fn unpack_matches_the_row_path_and_its_mismatch_error() {
        let steps = || {
            vec![
                step_map(RowExpr::unpack(2, vec![1], "(_, v)"), Some("s1:x")),
                step_map(
                    bin(BinOp::Mul, RowExpr::Col(0), RowExpr::Const(Value::Long(2))),
                    None,
                ),
            ]
        };
        let rows = pairs(300);
        let (col, row) = run_both(&rows, &steps(), 64);
        assert_eq!(col.unwrap(), row.unwrap());
        // A non-pair or a 3-tuple mid-tile, or a whole tile of 3-tuples.
        let triple = |i: i64| Value::tuple(vec![Value::Long(i); 3]);
        let mut long_row = rows.clone();
        long_row[100] = Value::Long(7);
        let mut triple_row = rows.clone();
        triple_row[100] = triple(100);
        let all_triples: Vec<Value> = (0..300).map(triple).collect();
        for bad in [long_row, triple_row, all_triples] {
            let (col, row) = run_both(&bad, &steps(), 64);
            let (col, row) = (col.unwrap_err().message, row.unwrap_err().message);
            assert_eq!(col, row);
            assert!(
                col.starts_with("[s1:x] pattern (_, v) does not match source row"),
                "{col}"
            );
        }
    }

    #[test]
    fn unread_tuple_fields_are_not_decomposed() {
        let rows = pairs(10);
        let unpack = step_map(RowExpr::unpack(2, vec![1], "(_, v)"), None);
        let reads_key = step_filter(
            bin(BinOp::Gt, RowExpr::Col(0), RowExpr::Const(Value::Long(3))),
            None,
        );
        let fields = |steps: &[Step]| match decompose(&rows, source_fields(steps).as_deref()) {
            VCol::Tuple(cols) => cols.iter().map(|c| !matches!(c, VCol::Skipped)).collect(),
            other => panic!("{other:?}"),
        };
        let kept: Vec<bool> = fields(std::slice::from_ref(&unpack));
        assert_eq!(kept, [false, true], "only `v` is read");
        // A leading filter reads the key, so it is decomposed too; a
        // chain of filters hands whole rows on.
        assert_eq!(fields(&[reads_key.clone(), unpack]), [true, true]);
        assert_eq!(fields(std::slice::from_ref(&reads_key)), [true, true]);
        let (col, row) = run_both(&rows, &[reads_key], 4);
        assert_eq!(col.unwrap(), row.unwrap());
    }

    fn fold_both(rows: &[Value], steps: &[Step], op: BinOp) -> (Result<Value>, Result<Value>) {
        let stats = Stats::default();
        let mut lanes = None;
        let col = fold_chain(rows, steps, 64, &stats, op, &mut lanes).map(|()| lanes.unwrap());
        let mut acc: Option<Value> = None;
        let row = rows
            .iter()
            .try_for_each(|r| {
                drive(r, steps, &mut |v| {
                    acc = Some(match acc.take() {
                        None => v,
                        Some(a) => op.apply(&a, &v)?,
                    });
                    Ok(())
                })
            })
            .map(|()| acc.unwrap());
        (col, row)
    }

    #[test]
    fn fold_chain_matches_the_row_fold_and_its_first_error() {
        let rows = pairs(1000);
        let value = step_map(RowExpr::Field(Box::new(RowExpr::Input), "_2".into()), None);
        for op in [BinOp::Add, BinOp::Mul, BinOp::Min, BinOp::Max] {
            let (col, row) = fold_both(&rows, std::slice::from_ref(&value), op);
            assert_eq!(col.unwrap(), row.unwrap(), "{op:?}");
        }
        // `1 / (i - 700)` divides by zero in the middle of a tile.
        let poisoned = step_map(
            bin(
                BinOp::Div,
                RowExpr::Const(Value::Long(1)),
                bin(
                    BinOp::Sub,
                    RowExpr::Col(0),
                    RowExpr::Const(Value::Long(700)),
                ),
            ),
            Some("s2:y"),
        );
        let (col, row) = fold_both(&rows, &[poisoned], BinOp::Add);
        assert_eq!(col.unwrap_err().message, row.unwrap_err().message);
        // The lane type changes between tiles: a tile of bools, then
        // longs. `+` promotes through the per-element path; `&&` fails at
        // the first long, exactly like the row fold.
        let mut mixed: Vec<Value> = (0..64).map(|i| Value::Bool(i % 3 == 0)).collect();
        mixed.extend((0..200).map(Value::Long));
        let id = step_map(RowExpr::Input, None);
        for op in [BinOp::Add, BinOp::And] {
            let (col, row) = fold_both(&mixed, std::slice::from_ref(&id), op);
            assert_eq!(
                col.map_err(|e| e.message),
                row.map_err(|e| e.message),
                "{op:?}"
            );
        }
        let (col, _) = fold_both(&mixed, &[id], BinOp::And);
        assert!(col.unwrap_err().message.contains("expects booleans"));
    }

    #[test]
    fn deferred_pieces_fold_like_one_pass() {
        let stats = Stats::default();
        let whole = |rows: &[Value], steps: &[Step], op: BinOp| {
            let mut acc = None;
            fold_chain(rows, steps, 64, &stats, op, &mut acc).map(|()| format!("{acc:?}"))
        };
        let in_pieces = |rows: &[Value], steps: &[Step], op: BinOp, cut: usize| {
            let mut acc = None;
            rows.chunks(cut)
                .try_for_each(|piece| defer_chain(piece, steps, 64, &stats).fold_into(op, &mut acc))
                .map(|()| format!("{acc:?}"))
        };
        // Order-dependent doubles from a `-0.0` first row: any regrouping
        // of the fold changes the bits (`Debug` prints them exactly).
        let mut doubles = vec![Value::Double(-0.0)];
        doubles.extend((0..500).map(|i| Value::Double([1e16, 1.0, -1e16][i % 3] + i as f64 / 7.0)));
        let id = step_map(RowExpr::Input, None);
        for op in [BinOp::Add, BinOp::Mul, BinOp::Min, BinOp::Max] {
            for cut in [1, 7, 64, 100, 501] {
                let steps = std::slice::from_ref(&id);
                assert_eq!(
                    in_pieces(&doubles, steps, op, cut).unwrap(),
                    whole(&doubles, steps, op).unwrap(),
                    "{op:?} in pieces of {cut}"
                );
            }
        }
        // `&&` over longs fails in the fold at row 1, before the chain
        // divides by zero at row 250 in a later piece: the fold's error
        // comes first, as in one pass.
        let rows: Vec<Value> = (0..300).map(|i| Value::Long(i - 250)).collect();
        let poisoned = [step_map(
            bin(BinOp::Div, RowExpr::Const(Value::Long(1)), RowExpr::Input),
            Some("s3:X"),
        )];
        for (op, expect) in [(BinOp::And, "expects booleans"), (BinOp::Add, "s3:X")] {
            let one = whole(&rows, &poisoned, op).unwrap_err().message;
            assert!(one.contains(expect), "{one}");
            for cut in [1, 50, 64, 200] {
                let split = in_pieces(&rows, &poisoned, op, cut).unwrap_err().message;
                assert_eq!(split, one, "{op:?} in pieces of {cut}");
            }
        }
    }

    #[test]
    fn division_by_zero_replays_to_the_identical_first_error_and_prefix() {
        // Row 700 divides by zero: the columnar batch fails, replays, and
        // both paths must deliver the same sunk prefix and the same error.
        let rows: Vec<Value> = (0..1000).map(|i| Value::Long(i - 700)).collect();
        let steps = vec![step_map(
            bin(BinOp::Div, RowExpr::Const(Value::Long(1)), RowExpr::Input),
            Some("s3:X := 1 / V[i]"),
        )];
        let stats = Stats::default();
        let mut col_out = Vec::new();
        let col_err = drive_columnar(&rows, &steps, 256, &stats, &mut |v| {
            col_out.push(v);
            Ok(())
        })
        .unwrap_err();
        let mut row_out = Vec::new();
        let row_err = (|| -> Result<()> {
            for row in &rows {
                drive(row, &steps, &mut |v| {
                    row_out.push(v);
                    Ok(())
                })?;
            }
            Ok(())
        })()
        .unwrap_err();
        assert_eq!(col_err.to_string(), row_err.to_string());
        assert!(col_err.to_string().contains("s3:X"), "{col_err}");
        assert_eq!(col_out, row_out, "identical sunk prefix");
        let snap = stats.snapshot();
        assert!(snap.vectorized_batches >= 2, "{snap:?}");
    }

    #[test]
    fn opaque_steps_are_ineligible() {
        let opaque = Step {
            op: StepOp::Map(Arc::new(|v: &Value| Ok(v.clone()))),
            tag: None,
            expr: None,
        };
        let transparent = step_map(RowExpr::Input, None);
        assert!(!eligible(&[]));
        assert!(!eligible(std::slice::from_ref(&opaque)));
        assert!(!eligible(&[transparent.clone(), opaque]));
        assert!(eligible(&[transparent]));
    }

    #[test]
    fn empty_filter_result_short_circuits() {
        let rows = longs(&[1, 2, 3]);
        let steps = vec![
            step_filter(
                bin(BinOp::Gt, RowExpr::Input, RowExpr::Const(Value::Long(10))),
                None,
            ),
            step_map(
                bin(BinOp::Div, RowExpr::Input, RowExpr::Const(Value::Long(0))),
                None,
            ),
        ];
        // Everything is filtered out before the would-be division by zero.
        let (col, row) = run_both(&rows, &steps, 8);
        assert_eq!(col.unwrap(), Vec::<Value>::new());
        assert_eq!(row.unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn field_access_matches_value_semantics() {
        let rows: Vec<Value> = (0..50)
            .map(|i| Value::pair(Value::Long(i), Value::Long(i * i)))
            .collect();
        let steps = vec![step_map(
            RowExpr::Field(Box::new(RowExpr::Input), "_2".to_string()),
            None,
        )];
        let (col, row) = run_both(&rows, &steps, 16);
        assert_eq!(col.unwrap(), row.unwrap());
        // A missing field errors identically on both paths.
        let steps = vec![step_map(
            RowExpr::Field(Box::new(RowExpr::Input), "_9".to_string()),
            None,
        )];
        let (col, row) = run_both(&rows, &steps, 16);
        assert_eq!(col.unwrap_err().to_string(), row.unwrap_err().to_string());
    }

    #[test]
    fn every_tile_width_matches_the_row_path() {
        // Widths 1 and 4 cut the input into many tiles (4 leaves a partial
        // last one); 64 into a few. Pivot 101 poisons one row that
        // survives the filter, so its tile replays tuple-at-a-time.
        let rows = longs(&(0..203).collect::<Vec<i64>>());
        let chain = |pivot: i64| {
            vec![
                step_map(
                    RowExpr::Tuple(vec![
                        RowExpr::Input,
                        bin(BinOp::Mul, RowExpr::Input, RowExpr::Input),
                    ]),
                    None,
                ),
                step_filter(
                    bin(
                        BinOp::Ne,
                        bin(BinOp::Mod, RowExpr::Col(0), RowExpr::Const(Value::Long(3))),
                        RowExpr::Const(Value::Long(0)),
                    ),
                    None,
                ),
                step_map(
                    bin(
                        BinOp::Div,
                        RowExpr::Col(1),
                        bin(
                            BinOp::Sub,
                            RowExpr::Col(0),
                            RowExpr::Const(Value::Long(pivot)),
                        ),
                    ),
                    Some("s2: Y := V[i] * V[i] / (V[i] - pivot)"),
                ),
            ]
        };
        for width in [1, 4, 64] {
            for pivot in [-1, 101] {
                let steps = chain(pivot);
                let stats = Stats::default();
                let mut col_out = Vec::new();
                let col = drive_columnar(&rows, &steps, width, &stats, &mut |v| {
                    col_out.push(v);
                    Ok(())
                });
                let mut row_out = Vec::new();
                let row = rows.iter().try_for_each(|r| {
                    drive(r, &steps, &mut |v| {
                        row_out.push(v);
                        Ok(())
                    })
                });
                let at = format!("width {width}, pivot {pivot}");
                assert_eq!(
                    col.map_err(|e| e.to_string()),
                    row.map_err(|e| e.to_string()),
                    "{at}"
                );
                assert_eq!(col_out, row_out, "{at}: sunk rows");
                // Every tile before the poisoned one ran vectorized.
                let batches = stats.snapshot().vectorized_batches as usize;
                if pivot < 0 {
                    assert_eq!(batches, rows.len().div_ceil(width), "{at}");
                } else {
                    assert_eq!(batches, 101 / width, "{at}");
                }
            }
        }
    }
}
