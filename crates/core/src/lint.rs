//! Program lints: warnings for *accepted* programs.
//!
//! The §3.2 analysis ([`crate::analysis`]) decides whether a loop is
//! parallelizable at all; these passes explain what the accepted program
//! will *cost* and flag likely mistakes:
//!
//! * **D020 shuffle forecast** — an incremental update whose compiled form
//!   still carries a group-by after optimization. Rule (17) eliminates the
//!   group-by when the key is the unique affine destination subscript;
//!   whatever survives re-partitions values by key on every execution.
//! * **D021 non-monoid aggregation** — a self-assignment `x := x - e` /
//!   `x := x / e` whose merge is not associative/commutative, so it can
//!   never become a parallel aggregation.
//! * **D022 unused** — a declared variable or bound input dataset never
//!   referenced by any statement.
//! * **D023 dead store** — a whole-variable assignment overwritten before
//!   the value is ever read.
//! * **D024 bounds** — an affine subscript over a constant-range loop that
//!   provably goes negative.
//! * **D025 row fallback** — a fused chain that is columnar-eligible
//!   except for one opaque expression (a record constructor, bag
//!   aggregation, nested comprehension, …), so the engine runs the whole
//!   stage tuple-at-a-time instead of in columnar tiles.
//!
//! Lints only run on programs that already passed the restriction checks,
//! so patterns the analysis rejects (e.g. non-monoid updates *inside*
//! for-loops) never reach them.

use std::collections::HashSet;

use diablo_comp::ir::{CExpr, Comprehension, Qual};
use diablo_diag::{codes, Diagnostic, Span};
use diablo_lang::ast::{Const, DeclInit, Expr, Lhs, Stmt};
use diablo_lang::pretty::{pretty_expr, pretty_lhs};
use diablo_lang::types::TypedProgram;
use diablo_runtime::BinOp;

use crate::target::{CompiledProgram, TStmt};

/// Runs every lint pass over an accepted program. `compiled` must be the
/// result of translating `tp`. Diagnostics come back ordered by pass
/// (shuffle forecast, non-monoid, unused, dead store, bounds, row
/// fallback).
pub fn lint_program(tp: &TypedProgram, compiled: &CompiledProgram) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    shuffle_forecast(tp, compiled, &mut out);
    non_monoid(tp, &mut out);
    unused(tp, &mut out);
    dead_stores(tp, &mut out);
    bounds(tp, &mut out);
    row_fallback(tp, compiled, &mut out);
    out
}

// ------------------------------------------------------------- D020

fn shuffle_forecast(tp: &TypedProgram, compiled: &CompiledProgram, out: &mut Vec<Diagnostic>) {
    let mut shuffling: Vec<String> = Vec::new();
    collect_shuffling(&compiled.stmts, &mut shuffling);
    for name in shuffling {
        let incr = find_incr(&tp.program.body, &name);
        let (span, subscript) = match &incr {
            Some((dest, span)) => {
                let idxs: Vec<String> = dest.index_exprs().iter().map(|e| pretty_expr(e)).collect();
                let subscript = if idxs.is_empty() {
                    format!("`{}`", pretty_lhs(dest))
                } else {
                    format!("`[{}]`", idxs.join(", "))
                };
                (*span, subscript)
            }
            None => (Span::SYNTH, "its subscript".to_string()),
        };
        out.push(
            Diagnostic::warning(
                codes::SHUFFLE,
                format!(
                    "update of `{name}` compiles to a group-by shuffle: subscript {subscript} \
                     is not the unique affine key of the enclosing loop, so Rule (17) cannot \
                     eliminate the group-by"
                ),
                span,
            )
            .with_help(
                "every execution re-partitions the aggregated values by key; this is \
                 inherent when grouping by data (word count, histograms) but worth a look \
                 when the subscript could be rewritten to cover the loop indexes",
            ),
        );
    }
}

fn collect_shuffling(stmts: &[TStmt], out: &mut Vec<String>) {
    for s in stmts {
        match s {
            TStmt::Assign { name, value, .. } => {
                if value.contains_group_by() && !out.contains(name) {
                    out.push(name.clone());
                }
            }
            TStmt::While { cond, body } => {
                if cond.contains_group_by() {
                    out.push("<while condition>".to_string());
                }
                collect_shuffling(body, out);
            }
        }
    }
}

/// Finds the first incremental update of `name` (recursing into loop and
/// branch bodies) so the warning lands on the source statement.
fn find_incr<'a>(stmts: &'a [Stmt], name: &str) -> Option<(&'a Lhs, Span)> {
    for s in stmts {
        let found = match s {
            Stmt::Incr { dest, span, .. } if dest.base_var() == name => Some((dest, *span)),
            Stmt::For { body, .. } | Stmt::ForIn { body, .. } | Stmt::While { body, .. } => {
                find_incr(std::slice::from_ref(body), name)
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => find_incr(std::slice::from_ref(then_branch), name).or_else(|| {
                else_branch
                    .as_deref()
                    .and_then(|e| find_incr(std::slice::from_ref(e), name))
            }),
            Stmt::Block(ss) => find_incr(ss, name),
            _ => None,
        };
        if found.is_some() {
            return found;
        }
    }
    None
}

// ------------------------------------------------------------- D021

fn non_monoid(tp: &TypedProgram, out: &mut Vec<Diagnostic>) {
    visit_stmts(&tp.program.body, &mut |s| {
        let Stmt::Assign { dest, value, span } = s else {
            return;
        };
        let Expr::Bin(op, lhs, rhs) = value else {
            return;
        };
        if !matches!(op, BinOp::Sub | BinOp::Div | BinOp::Mod) {
            return;
        }
        let self_ref = |e: &Expr| matches!(e, Expr::Dest(d) if d == dest);
        if !self_ref(lhs) && !self_ref(rhs) {
            return;
        }
        let d = pretty_lhs(dest);
        let sym = match op {
            BinOp::Sub => "-",
            BinOp::Div => "/",
            _ => "%",
        };
        let mut diag = Diagnostic::warning(
            codes::NON_MONOID,
            format!(
                "`{d} := {d} {sym} ...`-style update: `{sym}` is not \
                 associative/commutative, so this cannot become a parallel aggregation"
            ),
            *span,
        );
        if *op == BinOp::Sub {
            diag = diag.with_help(format!(
                "rewrite as `{d} += -(...)` so the merge is a commutative sum"
            ));
        }
        out.push(diag);
    });
}

// ------------------------------------------------------------- D022

fn unused(tp: &TypedProgram, out: &mut Vec<Diagnostic>) {
    // A name is used when any statement reads it or writes it (writing an
    // output *is* its use — results are read by the driver).
    let mut used: HashSet<String> = HashSet::new();
    let mut decl_of: Vec<(String, Span, bool)> = tp
        .program
        .inputs
        .iter()
        .map(|(n, _)| (n.clone(), Span::SYNTH, true))
        .collect();
    visit_stmts(&tp.program.body, &mut |s| {
        match s {
            Stmt::Decl {
                name, span, init, ..
            } => {
                decl_of.push((name.clone(), *span, false));
                if let DeclInit::Expr(e) = init {
                    mark_expr(e, &mut used);
                }
            }
            Stmt::Assign { dest, value, .. } | Stmt::Incr { dest, value, .. } => {
                used.insert(dest.base_var().to_string());
                for e in dest.index_exprs() {
                    mark_expr(e, &mut used);
                }
                mark_expr(value, &mut used);
            }
            Stmt::For { lo, hi, .. } => {
                mark_expr(lo, &mut used);
                mark_expr(hi, &mut used);
            }
            Stmt::ForIn { source, .. } => mark_expr(source, &mut used),
            Stmt::While { cond, .. } | Stmt::If { cond, .. } => mark_expr(cond, &mut used),
            Stmt::Block(_) => {}
        };
    });
    for (name, span, is_input) in decl_of {
        if !used.contains(&name) {
            let what = if is_input {
                "input dataset"
            } else {
                "variable"
            };
            out.push(
                Diagnostic::warning(
                    codes::UNUSED,
                    format!("{what} `{name}` is never used"),
                    span,
                )
                .with_help("remove the declaration, or wire it into the computation"),
            );
        }
    }
}

fn mark_expr(e: &Expr, used: &mut HashSet<String>) {
    let mut vars = Vec::new();
    e.free_vars(&mut vars);
    used.extend(vars);
    let mut dests = Vec::new();
    e.destinations(&mut dests);
    for d in dests {
        used.insert(d.base_var().to_string());
    }
}

// ------------------------------------------------------------- D023

fn dead_stores(tp: &TypedProgram, out: &mut Vec<Diagnostic>) {
    dead_stores_seq(&tp.program.body, out);
    // Straight-line sequences also occur inside blocks; control-flow bodies
    // are scanned as their own sequences.
    visit_blocks(&tp.program.body, &mut |ss| dead_stores_seq(ss, out));
}

fn dead_stores_seq(stmts: &[Stmt], out: &mut Vec<Diagnostic>) {
    for (i, s) in stmts.iter().enumerate() {
        let (name, span) = match s {
            Stmt::Assign {
                dest: Lhs::Var(v),
                span,
                ..
            } => (v, *span),
            _ => continue,
        };
        for later in &stmts[i + 1..] {
            match later {
                // A later whole-variable overwrite whose value doesn't read
                // the variable: the earlier store is dead.
                Stmt::Assign {
                    dest: Lhs::Var(v),
                    value,
                    span: kill_span,
                    ..
                } if v == name => {
                    if !reads_var(value, name) {
                        out.push(
                            Diagnostic::warning(
                                codes::DEAD_STORE,
                                format!(
                                    "value assigned to `{name}` is overwritten before it is \
                                     ever read"
                                ),
                                span,
                            )
                            .with_label(*kill_span, format!("`{name}` is overwritten here")),
                        );
                    }
                    break;
                }
                // Any other statement that might read the variable — or any
                // control flow, treated conservatively as a read — keeps the
                // store alive.
                other => {
                    if stmt_may_read(other, name) {
                        break;
                    }
                }
            }
        }
    }
}

fn stmt_may_read(s: &Stmt, name: &str) -> bool {
    match s {
        Stmt::Assign { dest, value, .. } | Stmt::Incr { dest, value, .. } => {
            reads_var(value, name)
                || dest.index_exprs().iter().any(|e| reads_var(e, name))
                || (dest.base_var() == name && !matches!(dest, Lhs::Var(_)))
                || matches!(s, Stmt::Incr { .. }) && dest.base_var() == name
        }
        Stmt::Decl {
            init: DeclInit::Expr(e),
            ..
        } => reads_var(e, name),
        Stmt::Decl { .. } => false,
        // Control flow: conservatively a read (the body may use it any
        // number of iterations later).
        Stmt::For { .. } | Stmt::ForIn { .. } | Stmt::While { .. } | Stmt::If { .. } => true,
        Stmt::Block(_) => true,
    }
}

fn reads_var(e: &Expr, name: &str) -> bool {
    let mut vars = Vec::new();
    e.free_vars(&mut vars);
    if vars.iter().any(|v| v == name) {
        return true;
    }
    let mut dests = Vec::new();
    e.destinations(&mut dests);
    dests.iter().any(|d| d.base_var() == name)
}

// ------------------------------------------------------------- D024

#[derive(Clone, Copy)]
struct Interval {
    lo: i64,
    hi: i64,
}

fn bounds(tp: &TypedProgram, out: &mut Vec<Diagnostic>) {
    bounds_walk(&tp.program.body, &mut Vec::new(), out);
}

/// `ranges` holds `(loop var, interval)` for enclosing constant-range
/// for-loops.
fn bounds_walk(stmts: &[Stmt], ranges: &mut Vec<(String, Interval)>, out: &mut Vec<Diagnostic>) {
    for s in stmts {
        match s {
            Stmt::For {
                var, lo, hi, body, ..
            } => {
                let range = match (const_long(lo), const_long(hi)) {
                    (Some(lo), Some(hi)) if lo <= hi => Some(Interval { lo, hi }),
                    _ => None,
                };
                let pushed = range.is_some();
                if let Some(r) = range {
                    ranges.push((var.clone(), r));
                }
                bounds_walk(std::slice::from_ref(body), ranges, out);
                if pushed {
                    ranges.pop();
                }
            }
            Stmt::ForIn { body, .. } | Stmt::While { body, .. } => {
                bounds_walk(std::slice::from_ref(body), ranges, out);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                bounds_walk(std::slice::from_ref(then_branch), ranges, out);
                if let Some(e) = else_branch {
                    bounds_walk(std::slice::from_ref(e), ranges, out);
                }
            }
            Stmt::Block(ss) => bounds_walk(ss, ranges, out),
            Stmt::Assign { dest, span, .. } | Stmt::Incr { dest, span, .. } => {
                for idx in dest.index_exprs() {
                    let Some(iv) = interval_of(idx, ranges) else {
                        continue;
                    };
                    if iv.hi < 0 {
                        out.push(Diagnostic::warning(
                            codes::BOUNDS,
                            format!(
                                "subscript `{}` of `{}` is always negative (range [{}, {}])",
                                pretty_expr(idx),
                                dest.base_var(),
                                iv.lo,
                                iv.hi
                            ),
                            *span,
                        ));
                    } else if iv.lo < 0 {
                        out.push(Diagnostic::warning(
                            codes::BOUNDS,
                            format!(
                                "subscript `{}` of `{}` can be negative (range [{}, {}]) for \
                                 some iterations of the enclosing constant-range loop",
                                pretty_expr(idx),
                                dest.base_var(),
                                iv.lo,
                                iv.hi
                            ),
                            *span,
                        ));
                    }
                }
            }
            Stmt::Decl { .. } => {}
        }
    }
}

fn const_long(e: &Expr) -> Option<i64> {
    match e {
        Expr::Const(Const::Long(n)) => Some(*n),
        Expr::Un(diablo_runtime::UnOp::Neg, a) => const_long(a).map(|n| -n),
        Expr::Bin(op, a, b) => {
            let (a, b) = (const_long(a)?, const_long(b)?);
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Interval-evaluates an affine subscript over the constant loop ranges.
/// Returns `None` when the expression mentions anything with an unknown
/// range.
fn interval_of(e: &Expr, ranges: &[(String, Interval)]) -> Option<Interval> {
    match e {
        Expr::Const(Const::Long(n)) => Some(Interval { lo: *n, hi: *n }),
        Expr::Dest(Lhs::Var(v)) => ranges.iter().find(|(n, _)| n == v).map(|(_, iv)| *iv),
        Expr::Un(diablo_runtime::UnOp::Neg, a) => {
            let iv = interval_of(a, ranges)?;
            Some(Interval {
                lo: iv.hi.checked_neg()?,
                hi: iv.lo.checked_neg()?,
            })
        }
        Expr::Bin(BinOp::Add, a, b) => {
            let (a, b) = (interval_of(a, ranges)?, interval_of(b, ranges)?);
            Some(Interval {
                lo: a.lo.checked_add(b.lo)?,
                hi: a.hi.checked_add(b.hi)?,
            })
        }
        Expr::Bin(BinOp::Sub, a, b) => {
            let (a, b) = (interval_of(a, ranges)?, interval_of(b, ranges)?);
            Some(Interval {
                lo: a.lo.checked_sub(b.hi)?,
                hi: a.hi.checked_sub(b.lo)?,
            })
        }
        Expr::Bin(BinOp::Mul, a, b) => {
            let (a, b) = (interval_of(a, ranges)?, interval_of(b, ranges)?);
            let corners = [
                a.lo.checked_mul(b.lo)?,
                a.lo.checked_mul(b.hi)?,
                a.hi.checked_mul(b.lo)?,
                a.hi.checked_mul(b.hi)?,
            ];
            Some(Interval {
                lo: *corners.iter().min().expect("non-empty"),
                hi: *corners.iter().max().expect("non-empty"),
            })
        }
        _ => None,
    }
}

// ------------------------------------------------------------- D025

/// True when a comprehension-calculus expression lowers to the engine's
/// transparent `RowExpr` IR (mirrors the exec crate's `to_row_expr`):
/// arithmetic, comparisons, builtin calls, tuples, and projections over
/// variables and constants. Record construction, bag aggregations, nested
/// comprehensions, merges, and ranges stay opaque closures.
fn columnar_convertible(e: &CExpr) -> bool {
    match e {
        CExpr::Var(_) | CExpr::Const(_) => true,
        CExpr::Bin(_, a, b) => columnar_convertible(a) && columnar_convertible(b),
        CExpr::Un(_, a) | CExpr::Proj(a, _) => columnar_convertible(a),
        CExpr::Call(_, args) | CExpr::Tuple(args) => args.iter().all(columnar_convertible),
        CExpr::Record(_)
        | CExpr::Agg(_, _)
        | CExpr::Comp(_)
        | CExpr::Merge { .. }
        | CExpr::Range(_, _) => false,
    }
}

/// Names the first opaque construct inside a non-convertible expression,
/// for the warning text.
fn opaque_kind(e: &CExpr) -> &'static str {
    match e {
        CExpr::Record(_) => "a record constructor",
        CExpr::Agg(_, _) => "a bag aggregation",
        CExpr::Comp(_) => "a nested comprehension",
        CExpr::Merge { .. } => "an array merge",
        CExpr::Range(_, _) => "a range expression",
        CExpr::Bin(_, a, b) => {
            if columnar_convertible(a) {
                opaque_kind(b)
            } else {
                opaque_kind(a)
            }
        }
        CExpr::Un(_, a) | CExpr::Proj(a, _) => opaque_kind(a),
        CExpr::Call(_, args) | CExpr::Tuple(args) => args
            .iter()
            .find(|a| !columnar_convertible(a))
            .map(opaque_kind)
            .unwrap_or("an opaque expression"),
        CExpr::Var(_) | CExpr::Const(_) => "an opaque expression",
    }
}

/// The row-position stages of a comprehension, as the pipeline builder
/// fuses them: conditions, let bindings, and — when no group-by ends the
/// narrow chain — the head map. Aggregation heads behind a group-by are
/// pushed down to a reduce, not run as row stages, so they are excluded.
fn comp_row_stages(c: &Comprehension) -> Vec<(&CExpr, &'static str)> {
    let mut stages = Vec::new();
    for q in &c.quals {
        match q {
            Qual::Pred(e) => stages.push((e, "a condition")),
            Qual::Let(_, e) => stages.push((e, "a let binding")),
            Qual::GroupBy(_, _) => return stages,
            Qual::Gen(_, _) => {}
        }
    }
    stages.push((&*c.head, "the head"));
    stages
}

/// Visits every comprehension inside an expression, outermost first.
fn visit_comps(e: &CExpr, f: &mut dyn FnMut(&Comprehension)) {
    match e {
        CExpr::Comp(c) => {
            f(c);
            for q in &c.quals {
                match q {
                    Qual::Gen(_, d) | Qual::Let(_, d) | Qual::Pred(d) | Qual::GroupBy(_, d) => {
                        visit_comps(d, f)
                    }
                }
            }
            visit_comps(&c.head, f);
        }
        CExpr::Bin(_, a, b) | CExpr::Range(a, b) => {
            visit_comps(a, f);
            visit_comps(b, f);
        }
        CExpr::Un(_, a) | CExpr::Proj(a, _) | CExpr::Agg(_, a) => visit_comps(a, f),
        CExpr::Call(_, args) | CExpr::Tuple(args) => {
            for a in args {
                visit_comps(a, f);
            }
        }
        CExpr::Record(fs) => {
            for (_, a) in fs {
                visit_comps(a, f);
            }
        }
        CExpr::Merge { left, right, .. } => {
            visit_comps(left, f);
            visit_comps(right, f);
        }
        CExpr::Var(_) | CExpr::Const(_) => {}
    }
}

/// Finds the span of the first source statement writing `name`, so the
/// warning lands on the assignment whose chain falls back.
fn find_write(stmts: &[Stmt], name: &str) -> Option<Span> {
    for s in stmts {
        let found = match s {
            Stmt::Assign { dest, span, .. } | Stmt::Incr { dest, span, .. }
                if dest.base_var() == name =>
            {
                Some(*span)
            }
            Stmt::For { body, .. } | Stmt::ForIn { body, .. } | Stmt::While { body, .. } => {
                find_write(std::slice::from_ref(body), name)
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => find_write(std::slice::from_ref(then_branch), name).or_else(|| {
                else_branch
                    .as_deref()
                    .and_then(|e| find_write(std::slice::from_ref(e), name))
            }),
            Stmt::Block(ss) => find_write(ss, name),
            _ => None,
        };
        if found.is_some() {
            return found;
        }
    }
    None
}

fn row_fallback(tp: &TypedProgram, compiled: &CompiledProgram, out: &mut Vec<Diagnostic>) {
    let mut assigns: Vec<(&String, &CExpr)> = Vec::new();
    collect_assign_values(&compiled.stmts, &mut assigns);
    let mut warned: HashSet<&String> = HashSet::new();
    for (name, value) in assigns {
        if warned.contains(name) {
            continue;
        }
        let mut hit: Option<(&'static str, &'static str)> = None;
        visit_comps(value, &mut |c| {
            if hit.is_some() {
                return;
            }
            // Only comprehensions that scan a collection become engine
            // stages; driver-side wrappers around scalars always contain
            // nested comps and would drown the lint in noise.
            let scans_collection = c
                .quals
                .iter()
                .any(|q| matches!(q, Qual::Gen(_, CExpr::Var(v)) if compiled.is_collection(v)));
            if !scans_collection {
                return;
            }
            let stages = comp_row_stages(c);
            let opaque = stages.iter().find(|(e, _)| !columnar_convertible(e));
            let any_convertible = stages.iter().any(|(e, _)| columnar_convertible(e));
            if let Some((e, what)) = opaque {
                if any_convertible {
                    hit = Some((opaque_kind(e), *what));
                }
            }
        });
        let Some((kind, what)) = hit else { continue };
        warned.insert(name);
        let span = find_write(&tp.program.body, name).unwrap_or(Span::SYNTH);
        out.push(
            Diagnostic::warning(
                codes::ROW_FALLBACK,
                format!(
                    "the fused chain computing `{name}` falls back to tuple-at-a-time: \
                     {what} contains {kind}, which has no columnar form, while the rest \
                     of the chain is vectorizable"
                ),
                span,
            )
            .with_help(
                "the stage still runs (row path; reported as `row_fallback_stages` in the \
                 run stats and as `layout: row` in the plan trace); rewrite the opaque \
                 expression with arithmetic/tuple/projection forms if scan performance \
                 matters",
            ),
        );
    }
}

/// Collects `(name, value)` for every assignment, recursing into while
/// bodies.
fn collect_assign_values<'a>(stmts: &'a [TStmt], out: &mut Vec<(&'a String, &'a CExpr)>) {
    for s in stmts {
        match s {
            TStmt::Assign { name, value, .. } => out.push((name, value)),
            TStmt::While { body, .. } => collect_assign_values(body, out),
        }
    }
}

// ------------------------------------------------------------- traversal

fn visit_stmts(stmts: &[Stmt], f: &mut dyn FnMut(&Stmt)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::For { body, .. } | Stmt::ForIn { body, .. } | Stmt::While { body, .. } => {
                visit_stmts(std::slice::from_ref(body), f)
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                visit_stmts(std::slice::from_ref(then_branch), f);
                if let Some(e) = else_branch {
                    visit_stmts(std::slice::from_ref(e), f);
                }
            }
            Stmt::Block(ss) => visit_stmts(ss, f),
            _ => {}
        }
    }
}

fn visit_blocks(stmts: &[Stmt], f: &mut dyn FnMut(&[Stmt])) {
    for s in stmts {
        match s {
            Stmt::For { body, .. } | Stmt::ForIn { body, .. } | Stmt::While { body, .. } => {
                visit_blocks(std::slice::from_ref(body), f)
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                visit_blocks(std::slice::from_ref(then_branch), f);
                if let Some(e) = else_branch {
                    visit_blocks(std::slice::from_ref(e), f);
                }
            }
            Stmt::Block(ss) => {
                f(ss);
                visit_blocks(ss, f);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_lang::{parse, typecheck};

    fn lints(src: &str) -> Vec<Diagnostic> {
        let tp = typecheck(parse(src).unwrap()).unwrap();
        crate::check_restrictions(&tp).unwrap();
        let compiled = crate::translate(&tp).unwrap();
        lint_program(&tp, &compiled)
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn shuffle_forecast_fires_on_group_by_key() {
        // C's subscript is data (V[i].K), not the loop index — Rule (17)
        // does not apply, so the group-by survives and shuffles.
        let src = r#"
            input V: vector[<|K: long, A: double|>];
            var C: vector[double] = vector();
            for i = 0, 99 do C[V[i].K] += V[i].A;
        "#;
        let diags = lints(src);
        assert!(codes_of(&diags).contains(&codes::SHUFFLE), "{diags:?}");
        let d = diags.iter().find(|d| d.code == codes::SHUFFLE).unwrap();
        assert!(d.message.contains("`C`"), "{}", d.message);
        assert!(d.message.contains("V[i].K"), "{}", d.message);
        assert!(d.span.line > 0, "span must point at the increment");
    }

    #[test]
    fn shuffle_forecast_silent_on_affine_key() {
        // W[i] += V[i]: the group-by key is the unique affine subscript —
        // Rule (17) eliminates it, no shuffle.
        let src = r#"
            input V: vector[double];
            var W: vector[double] = vector();
            for i = 0, 99 do W[i] += V[i];
        "#;
        let diags = lints(src);
        assert!(!codes_of(&diags).contains(&codes::SHUFFLE), "{diags:?}");
    }

    #[test]
    fn non_monoid_fires_on_subtraction() {
        let src = r#"
            var x: long = 10;
            var k: long = 0;
            while (k < 3) { x := x - 2; k += 1; };
        "#;
        let diags = lints(src);
        let d = diags.iter().find(|d| d.code == codes::NON_MONOID).unwrap();
        assert!(d.message.contains('-'), "{}", d.message);
        assert!(
            d.help.as_deref().unwrap_or("").contains("+= -"),
            "{:?}",
            d.help
        );
    }

    #[test]
    fn non_monoid_silent_on_commutative() {
        // `x := x + 1` desugars to `x += 1` in the parser; division by a
        // fresh variable is flagged.
        let src = "var x: long = 1; x := x / 2;";
        let diags = lints(src);
        assert!(codes_of(&diags).contains(&codes::NON_MONOID), "{diags:?}");
    }

    #[test]
    fn unused_fires_on_dead_input_and_var() {
        let src = r#"
            input V: vector[double];
            input W: vector[double];
            var sum: double = 0.0;
            var ghost: long = 0;
            for v in V do sum += v;
        "#;
        let diags = lints(src);
        let unused: Vec<&str> = diags
            .iter()
            .filter(|d| d.code == codes::UNUSED)
            .map(|d| d.message.as_str())
            .collect();
        assert_eq!(unused.len(), 2, "{diags:?}");
        assert!(unused.iter().any(|m| m.contains("`W`")), "{unused:?}");
        assert!(unused.iter().any(|m| m.contains("`ghost`")), "{unused:?}");
    }

    #[test]
    fn unused_silent_on_pure_outputs() {
        // `C` is only ever written — that's an output, not dead code.
        let src = r#"
            input V: vector[long];
            var C: vector[long] = vector();
            for v in V do C[v] += 1;
        "#;
        let diags = lints(src);
        assert!(!codes_of(&diags).contains(&codes::UNUSED), "{diags:?}");
    }

    #[test]
    fn dead_store_fires_on_overwrite() {
        let src = r#"
            var x: long = 0;
            x := 1;
            x := 2;
            x += 1;
        "#;
        let diags = lints(src);
        let d = diags.iter().find(|d| d.code == codes::DEAD_STORE).unwrap();
        assert_eq!(d.span.line, 3, "{d:?}");
        assert_eq!(d.labels.len(), 1, "{d:?}");
    }

    #[test]
    fn dead_store_silent_when_read_between() {
        let src = r#"
            var x: long = 0;
            var y: long = 0;
            x := 1;
            y := x + 1;
            x := 2;
            y += x;
        "#;
        let diags = lints(src);
        assert!(!codes_of(&diags).contains(&codes::DEAD_STORE), "{diags:?}");
    }

    #[test]
    fn bounds_fires_on_negative_subscript() {
        let src = r#"
            input V: vector[long];
            var W: vector[long] = vector();
            for i = 0, 9 do W[i - 10] := V[i];
        "#;
        let diags = lints(src);
        let d = diags.iter().find(|d| d.code == codes::BOUNDS).unwrap();
        assert!(d.message.contains("always negative"), "{}", d.message);
    }

    #[test]
    fn bounds_warns_on_possibly_negative_subscript() {
        let src = r#"
            input V: vector[long];
            var W: vector[long] = vector();
            for i = 0, 9 do W[i - 1] := V[i];
        "#;
        let diags = lints(src);
        let d = diags.iter().find(|d| d.code == codes::BOUNDS).unwrap();
        assert!(d.message.contains("can be negative"), "{}", d.message);
    }

    #[test]
    fn row_fallback_fires_on_record_head_in_vectorizable_chain() {
        // The head builds a record — opaque to the columnar engine — while
        // the rest of the chain (scan + join conditions) is transparent.
        let src = r#"
            input V: vector[double];
            var W: vector[<|a: double|>] = vector();
            for i = 0, 99 do W[i] := <| a = V[i] * 2.0 |>;
        "#;
        let diags = lints(src);
        let d = diags
            .iter()
            .find(|d| d.code == codes::ROW_FALLBACK)
            .unwrap_or_else(|| panic!("{diags:?}"));
        assert!(d.message.contains("`W`"), "{}", d.message);
        assert!(d.message.contains("record constructor"), "{}", d.message);
        assert!(d.span.line > 0, "span must point at the assignment");
        assert!(
            d.help
                .as_deref()
                .unwrap_or("")
                .contains("row_fallback_stages"),
            "{:?}",
            d.help
        );
    }

    #[test]
    fn row_fallback_silent_on_fully_transparent_chain() {
        let src = r#"
            input V: vector[double];
            var W: vector[double] = vector();
            for i = 0, 99 do W[i] := V[i] * 2.0 + 1.0;
        "#;
        let diags = lints(src);
        assert!(
            !codes_of(&diags).contains(&codes::ROW_FALLBACK),
            "{diags:?}"
        );
    }

    #[test]
    fn row_fallback_silent_on_group_by_aggregation() {
        // Word-count-style: the aggregation head sits behind a group-by and
        // is pushed down to a reduce, not run as a row stage.
        let src = r#"
            input V: vector[long];
            var C: vector[long] = vector();
            for i = 0, 99 do C[V[i]] += 1;
        "#;
        let diags = lints(src);
        assert!(
            !codes_of(&diags).contains(&codes::ROW_FALLBACK),
            "{diags:?}"
        );
    }

    #[test]
    fn bounds_silent_on_nonconstant_ranges() {
        let src = r#"
            input V: vector[long];
            input n: long;
            var W: vector[long] = vector();
            for i = 1, n-2 do W[i - 1] := V[i];
        "#;
        let diags = lints(src);
        assert!(!codes_of(&diags).contains(&codes::BOUNDS), "{diags:?}");
    }
}
