//! Row expressions: comprehension-calculus expressions compiled against a
//! pipeline row layout.
//!
//! Pipeline rows are tuples of column values. Compiling a [`CExpr`] once
//! per stage resolves every variable to either a column index, a global
//! scalar constant, or (for rare shapes like nested comprehensions over
//! already-lifted bags) a slow path that rebuilds an environment per row.

use std::collections::HashMap;
use std::sync::Arc;

use diablo_comp::ir::CExpr;
use diablo_comp::Env;
use diablo_dataflow::RowExpr;
use diablo_runtime::{AggOp, BinOp, Func, RuntimeError, UnOp, Value};

use crate::Result;

/// A compiled row expression.
#[derive(Debug, Clone)]
pub enum RExpr {
    /// Read column `i` of the row.
    Col(usize),
    /// A constant (literals and resolved globals).
    Const(Value),
    /// Binary operation.
    Bin(BinOp, Box<RExpr>, Box<RExpr>),
    /// Unary operation.
    Un(UnOp, Box<RExpr>),
    /// Builtin call.
    Call(Func, Vec<RExpr>),
    /// Tuple construction.
    Tuple(Vec<RExpr>),
    /// Record construction.
    Record(Vec<(String, RExpr)>),
    /// Field projection.
    Proj(Box<RExpr>, String),
    /// Aggregation over a bag-valued sub-expression (a lifted column).
    Agg(AggOp, Box<RExpr>),
    /// Slow path: evaluate the original expression with a per-row
    /// environment (used for nested comprehensions in row position).
    Slow {
        /// The original expression.
        expr: Arc<CExpr>,
        /// Columns the expression needs, as `(name, index)` pairs.
        cols: Vec<(String, usize)>,
        /// Pre-resolved globals (scalars only).
        globals: Arc<Env>,
    },
}

/// The column layout of a pipeline: variable name per tuple position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Layout {
    /// Column names in row order.
    pub cols: Vec<String>,
}

impl Layout {
    /// Creates a layout from column names.
    pub fn new(cols: Vec<String>) -> Layout {
        Layout { cols }
    }

    /// The index of a column.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c == name)
    }

    /// Adds a column, returning its index.
    pub fn push(&mut self, name: String) -> usize {
        self.cols.push(name);
        self.cols.len() - 1
    }
}

/// Compiles an expression against a layout and globals. Unresolvable
/// variables are an error (dataset names must have been handled upstream).
pub fn compile(e: &CExpr, layout: &Layout, globals: &Arc<Env>) -> Result<RExpr> {
    match e {
        CExpr::Var(v) => {
            if let Some(i) = layout.index_of(v) {
                Ok(RExpr::Col(i))
            } else if let Some(val) = globals.get(v) {
                Ok(RExpr::Const(val.clone()))
            } else {
                Err(RuntimeError::new(format!(
                    "variable `{v}` is not available in this pipeline stage"
                )))
            }
        }
        CExpr::Const(v) => Ok(RExpr::Const(v.clone())),
        CExpr::Bin(op, a, b) => Ok(RExpr::Bin(
            *op,
            Box::new(compile(a, layout, globals)?),
            Box::new(compile(b, layout, globals)?),
        )),
        CExpr::Un(op, a) => Ok(RExpr::Un(*op, Box::new(compile(a, layout, globals)?))),
        CExpr::Call(f, args) => Ok(RExpr::Call(
            *f,
            args.iter()
                .map(|a| compile(a, layout, globals))
                .collect::<Result<Vec<_>>>()?,
        )),
        CExpr::Tuple(fs) => Ok(RExpr::Tuple(
            fs.iter()
                .map(|f| compile(f, layout, globals))
                .collect::<Result<Vec<_>>>()?,
        )),
        CExpr::Record(fs) => Ok(RExpr::Record(
            fs.iter()
                .map(|(n, f)| Ok((n.clone(), compile(f, layout, globals)?)))
                .collect::<Result<Vec<_>>>()?,
        )),
        CExpr::Proj(inner, f) => Ok(RExpr::Proj(
            Box::new(compile(inner, layout, globals)?),
            f.clone(),
        )),
        CExpr::Agg(op, inner) => Ok(RExpr::Agg(*op, Box::new(compile(inner, layout, globals)?))),
        CExpr::Comp(_) | CExpr::Merge { .. } | CExpr::Range(_, _) => {
            // Nested comprehension in row position: evaluate per row with a
            // reconstructed environment. Only the columns it actually
            // mentions are copied.
            let needed: Vec<(String, usize)> = e
                .free_vars()
                .into_iter()
                .filter_map(|v| layout.index_of(&v).map(|i| (v, i)))
                .collect();
            Ok(RExpr::Slow {
                expr: Arc::new(e.clone()),
                cols: needed,
                globals: Arc::clone(globals),
            })
        }
    }
}

impl RExpr {
    /// Evaluates the compiled expression against a row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        match self {
            RExpr::Col(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| RuntimeError::new("row is narrower than its layout")),
            RExpr::Const(v) => Ok(v.clone()),
            RExpr::Bin(op, a, b) => op.apply(&a.eval(row)?, &b.eval(row)?),
            RExpr::Un(op, a) => op.apply(&a.eval(row)?),
            RExpr::Call(f, args) => {
                let vals = args
                    .iter()
                    .map(|a| a.eval(row))
                    .collect::<Result<Vec<_>>>()?;
                f.apply(&vals)
            }
            RExpr::Tuple(fs) => Ok(Value::tuple(
                fs.iter().map(|f| f.eval(row)).collect::<Result<Vec<_>>>()?,
            )),
            RExpr::Record(fs) => Ok(Value::record(
                fs.iter()
                    .map(|(n, f)| Ok((n.clone(), f.eval(row)?)))
                    .collect::<Result<Vec<_>>>()?,
            )),
            RExpr::Proj(inner, field) => {
                let v = inner.eval(row)?;
                v.field(field)
                    .cloned()
                    .ok_or_else(|| RuntimeError::new(format!("value {v} has no field `{field}`")))
            }
            RExpr::Agg(op, inner) => {
                let v = inner.eval(row)?;
                let items = v
                    .as_bag()
                    .ok_or_else(|| RuntimeError::new("aggregation over a non-bag column"))?;
                op.reduce(items.iter())
            }
            RExpr::Slow {
                expr,
                cols,
                globals,
            } => {
                let mut env: Env = globals.as_ref().clone();
                for (name, i) in cols {
                    env.insert(name.clone(), row[*i].clone());
                }
                diablo_comp::eval(expr, &env)
            }
        }
    }
}

/// Rewrites an expression, replacing each aggregation `⊕/v` of a lifted
/// column with a reference to a pre-aggregated column. Returns `None` if
/// the expression uses a lifted column outside such an aggregation (which
/// forces the groupByKey fallback).
pub fn rewrite_aggs(
    e: &CExpr,
    lifted: &HashMap<String, ()>,
    found: &mut Vec<(BinOp, String)>,
) -> Option<CExpr> {
    match e {
        CExpr::Agg(op, inner) => {
            if let CExpr::Var(v) = inner.as_ref() {
                if lifted.contains_key(v) {
                    let idx = found
                        .iter()
                        .position(|(o, n)| o == &op.op && n == v)
                        .unwrap_or_else(|| {
                            found.push((op.op, v.clone()));
                            found.len() - 1
                        });
                    return Some(CExpr::Var(agg_col_name(idx)));
                }
            }
            let inner = rewrite_aggs(inner, lifted, found)?;
            Some(CExpr::Agg(*op, Box::new(inner)))
        }
        CExpr::Var(v) => {
            if lifted.contains_key(v) {
                None // bare use of a lifted variable — cannot push down
            } else {
                Some(e.clone())
            }
        }
        CExpr::Const(_) => Some(e.clone()),
        CExpr::Bin(op, a, b) => Some(CExpr::Bin(
            *op,
            Box::new(rewrite_aggs(a, lifted, found)?),
            Box::new(rewrite_aggs(b, lifted, found)?),
        )),
        CExpr::Un(op, a) => Some(CExpr::Un(*op, Box::new(rewrite_aggs(a, lifted, found)?))),
        CExpr::Call(f, args) => Some(CExpr::Call(
            *f,
            args.iter()
                .map(|a| rewrite_aggs(a, lifted, found))
                .collect::<Option<Vec<_>>>()?,
        )),
        CExpr::Tuple(fs) => Some(CExpr::Tuple(
            fs.iter()
                .map(|f| rewrite_aggs(f, lifted, found))
                .collect::<Option<Vec<_>>>()?,
        )),
        CExpr::Record(fs) => Some(CExpr::Record(
            fs.iter()
                .map(|(n, f)| Some((n.clone(), rewrite_aggs(f, lifted, found)?)))
                .collect::<Option<Vec<_>>>()?,
        )),
        CExpr::Proj(inner, f) => Some(CExpr::Proj(
            Box::new(rewrite_aggs(inner, lifted, found)?),
            f.clone(),
        )),
        // Nested comprehensions might close over lifted variables; checking
        // precisely is possible but not worth it — fall back.
        CExpr::Comp(_) | CExpr::Merge { .. } | CExpr::Range(_, _) => {
            let fv = e.free_vars();
            if fv.iter().any(|v| lifted.contains_key(v)) {
                None
            } else {
                Some(e.clone())
            }
        }
    }
}

/// The synthetic column name for the `idx`-th pushed-down aggregation.
pub fn agg_col_name(idx: usize) -> String {
    format!("$agg{idx}")
}

/// Converts a compiled row expression into the engine's transparent
/// [`RowExpr`] IR when it is purely structural — arithmetic, comparisons,
/// builtin calls, tuples, and field projections over row columns. Pipeline
/// rows are tuples, so `Col(i)` maps to the engine's tuple-field access
/// with identical evaluation order and error messages (both sides bottom
/// out in the same runtime `apply` functions).
///
/// `Record` construction, bag aggregations, and the slow
/// nested-comprehension path have no columnar interpretation and return
/// `None` — the stage keeps its opaque closure and the engine runs it
/// tuple-at-a-time.
pub fn to_row_expr(r: &RExpr) -> Option<RowExpr> {
    match r {
        RExpr::Col(i) => Some(RowExpr::Col(*i)),
        RExpr::Const(v) => Some(RowExpr::Const(v.clone())),
        RExpr::Bin(op, a, b) => Some(RowExpr::Bin(
            *op,
            Box::new(to_row_expr(a)?),
            Box::new(to_row_expr(b)?),
        )),
        RExpr::Un(op, a) => Some(RowExpr::Un(*op, Box::new(to_row_expr(a)?))),
        RExpr::Call(f, args) => Some(RowExpr::Call(
            *f,
            args.iter().map(to_row_expr).collect::<Option<Vec<_>>>()?,
        )),
        RExpr::Tuple(fs) => Some(RowExpr::Tuple(
            fs.iter().map(to_row_expr).collect::<Option<Vec<_>>>()?,
        )),
        RExpr::Proj(inner, f) => Some(RowExpr::Field(Box::new(to_row_expr(inner)?), f.clone())),
        RExpr::Record(_) | RExpr::Agg(_, _) | RExpr::Slow { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn globals() -> Arc<Env> {
        let mut g = Env::new();
        g.insert("n".into(), Value::Long(10));
        Arc::new(g)
    }

    #[test]
    fn compiles_columns_and_globals() {
        let layout = Layout::new(vec!["x".into(), "y".into()]);
        let e = CExpr::Bin(
            BinOp::Add,
            Box::new(CExpr::var("x")),
            Box::new(CExpr::var("n")),
        );
        let r = compile(&e, &layout, &globals()).unwrap();
        let row = vec![Value::Long(5), Value::Long(7)];
        assert_eq!(r.eval(&row).unwrap(), Value::Long(15));
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let layout = Layout::new(vec![]);
        assert!(compile(&CExpr::var("zzz"), &layout, &globals()).is_err());
    }

    #[test]
    fn agg_over_bag_column() {
        let layout = Layout::new(vec!["vs".into()]);
        let e = CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("vs")));
        let r = compile(&e, &layout, &globals()).unwrap();
        let row = vec![Value::bag(vec![Value::Long(1), Value::Long(2)])];
        assert_eq!(r.eval(&row).unwrap(), Value::Long(3));
    }

    #[test]
    fn rewrite_aggs_finds_pushdown() {
        // (k, +/v) over lifted {v} → (k, $agg0)
        let lifted: HashMap<String, ()> = [("v".to_string(), ())].into();
        let e = CExpr::pair(
            CExpr::var("k"),
            CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("v"))),
        );
        let mut found = Vec::new();
        let out = rewrite_aggs(&e, &lifted, &mut found).unwrap();
        assert_eq!(found, vec![(BinOp::Add, "v".to_string())]);
        assert_eq!(
            out,
            CExpr::pair(CExpr::var("k"), CExpr::var(agg_col_name(0)))
        );
    }

    #[test]
    fn rewrite_aggs_rejects_bare_lifted_use() {
        let lifted: HashMap<String, ()> = [("v".to_string(), ())].into();
        let mut found = Vec::new();
        assert!(rewrite_aggs(&CExpr::var("v"), &lifted, &mut found).is_none());
    }

    #[test]
    fn rewrite_aggs_shares_equal_aggregations() {
        let lifted: HashMap<String, ()> = [("v".to_string(), ())].into();
        let agg = CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("v")));
        let e = CExpr::Bin(BinOp::Add, Box::new(agg.clone()), Box::new(agg));
        let mut found = Vec::new();
        let out = rewrite_aggs(&e, &lifted, &mut found).unwrap();
        assert_eq!(found.len(), 1, "same aggregation shares one column");
        assert_eq!(
            out,
            CExpr::Bin(
                BinOp::Add,
                Box::new(CExpr::var(agg_col_name(0))),
                Box::new(CExpr::var(agg_col_name(0)))
            )
        );
    }

    #[test]
    fn structural_expressions_convert_to_row_exprs() {
        let layout = Layout::new(vec!["x".into(), "y".into()]);
        let e = CExpr::Bin(
            BinOp::Mul,
            Box::new(CExpr::Bin(
                BinOp::Add,
                Box::new(CExpr::var("x")),
                Box::new(CExpr::var("n")),
            )),
            Box::new(CExpr::var("y")),
        );
        let r = compile(&e, &layout, &globals()).unwrap();
        let rx = to_row_expr(&r).expect("structural");
        // The RowExpr path over the whole row tuple agrees with the RExpr
        // path over the field slice.
        let fields = vec![Value::Long(5), Value::Long(3)];
        let row = Value::tuple(fields.clone());
        assert_eq!(rx.eval(&row).unwrap(), r.eval(&fields).unwrap());
        assert_eq!(rx.eval(&row).unwrap(), Value::Long(45));
    }

    #[test]
    fn records_aggs_and_slow_paths_do_not_convert() {
        let layout = Layout::new(vec!["vs".into()]);
        let agg = CExpr::Agg(AggOp::new(BinOp::Add).unwrap(), Box::new(CExpr::var("vs")));
        let r = compile(&agg, &layout, &globals()).unwrap();
        assert!(to_row_expr(&r).is_none());
        let rec = CExpr::Record(vec![("a".into(), CExpr::var("vs"))]);
        let r = compile(&rec, &layout, &globals()).unwrap();
        assert!(to_row_expr(&r).is_none());
        // But an agg buried in a tuple poisons only that conversion.
        let t = CExpr::Tuple(vec![CExpr::var("vs"), agg]);
        let r = compile(&t, &layout, &globals()).unwrap();
        assert!(to_row_expr(&r).is_none());
    }

    #[test]
    fn slow_path_evaluates_nested_comprehensions() {
        use diablo_comp::ir::{Comprehension, Pattern, Qual};
        // { x + b | b ← bag } where bag is a column.
        let layout = Layout::new(vec!["bag".into(), "x".into()]);
        let comp = CExpr::Comp(Comprehension::new(
            CExpr::Bin(
                BinOp::Add,
                Box::new(CExpr::var("x")),
                Box::new(CExpr::var("b")),
            ),
            vec![Qual::Gen(Pattern::var("b"), CExpr::var("bag"))],
        ));
        let r = compile(&comp, &layout, &globals()).unwrap();
        assert!(matches!(r, RExpr::Slow { .. }));
        let row = vec![
            Value::bag(vec![Value::Long(1), Value::Long(2)]),
            Value::Long(10),
        ];
        assert_eq!(
            r.eval(&row).unwrap(),
            Value::bag(vec![Value::Long(11), Value::Long(12)])
        );
    }
}
