//! Engine conformance: every engine-settings leg must be plan-faithful —
//! same rows, same order, same shuffle counts, same first error for
//! deterministic chains — so each check runs over every leg (morsel size
//! × exchange budget, see `common::legs`) and compares them pairwise.
//! Columnar tiles are checked against the row path inside one context,
//! by running each transparent chain next to its opaque twin.

mod common;

use common::{filter_step, legs, map_step};
use diablo_dataflow::{Context, Dataset, RowExpr};
use diablo_runtime::{array::key_value, BinOp, RuntimeError, Value};

/// A context for one leg. Three workers over five partitions keep the
/// work-stealing pool busy even at the default morsel size.
fn ctx_for(leg: &common::Leg) -> Context {
    leg.apply(Context::new(3, 5))
}

fn long_pairs(ctx: &Context, entries: &[(i64, i64)]) -> Dataset {
    ctx.from_vec(
        entries
            .iter()
            .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
            .collect(),
    )
}

/// A representative pipeline: narrow chain → keyed aggregation → map.
fn pipeline(ctx: &Context) -> Vec<Value> {
    let d = ctx.range(0, 199);
    d.map(|v| BinOp::Mul.apply(v, &Value::Long(3)))
        .unwrap()
        .filter(|v| Ok(v.as_long().unwrap() % 2 == 0))
        .unwrap()
        .flat_map(|v| Ok(vec![v.clone(), v.clone()]))
        .unwrap()
        .map(|v| {
            Ok(Value::pair(
                Value::Long(v.as_long().unwrap() % 7),
                v.clone(),
            ))
        })
        .unwrap()
        .reduce_by_key(|a, b| BinOp::Add.apply(a, b))
        .unwrap()
        .map(|row| {
            let (k, v) = key_value(row)?;
            Ok(Value::pair(v, k))
        })
        .unwrap()
        .collect()
}

#[test]
fn backends_agree_on_a_full_pipeline() {
    let reference = pipeline(&Context::new(3, 5));
    assert!(!reference.is_empty());
    for leg in legs() {
        let got = pipeline(&ctx_for(&leg));
        assert_eq!(got, reference, "leg `{}` diverged", leg.name());
    }
}

#[test]
fn backends_agree_on_narrow_chain_order_and_stage_count() {
    let mut outputs: Vec<(String, Vec<Value>)> = Vec::new();
    for leg in legs() {
        let name = leg.name();
        let ctx = ctx_for(&leg);
        let d = ctx.from_vec((0..137).map(Value::Long).collect());
        let chained = d
            .map(|v| BinOp::Add.apply(v, &Value::Long(10)))
            .unwrap()
            .filter(|v| Ok(v.as_long().unwrap() % 3 != 0))
            .unwrap()
            .flat_map(|v| {
                let x = v.as_long().unwrap();
                Ok(vec![Value::Long(x), Value::Long(-x)])
            })
            .unwrap();
        let before = ctx.stats().snapshot();
        let rows = chained.collect();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(
            after.physical_stages, 1,
            "leg `{name}` must fuse the chain into one stage"
        );
        outputs.push((name, rows));
    }
    for (name, rows) in &outputs[1..] {
        assert_eq!(rows, &outputs[0].1, "leg `{name}` changed row order");
    }
}

#[test]
fn backends_agree_on_shuffle_volume() {
    let mut volumes = Vec::new();
    for leg in legs() {
        let name = leg.name();
        let ctx = ctx_for(&leg);
        let entries: Vec<(i64, i64)> = (0..600).map(|i| (i % 13, i)).collect();
        let d = long_pairs(&ctx, &entries);
        let before = ctx.stats().snapshot();
        let r = d.reduce_by_key(|a, b| BinOp::Add.apply(a, b)).unwrap();
        let _ = r.collect();
        let after = ctx.stats().snapshot().since(&before);
        volumes.push((name, after.shuffles, after.shuffled_records));
    }
    for (name, shuffles, records) in &volumes[1..] {
        assert_eq!(
            (shuffles, records),
            (&volumes[0].1, &volumes[0].2),
            "leg `{name}` moved a different number of rows"
        );
    }
}

type LegRows = (String, Vec<Value>, Vec<Value>, Vec<Value>);

#[test]
fn backends_agree_on_union_merge_and_join() {
    let mut outputs: Vec<LegRows> = Vec::new();
    for leg in legs() {
        let name = leg.name();
        let ctx = ctx_for(&leg);
        let a = long_pairs(&ctx, &[(1, 1), (2, 2), (3, 3), (4, 4)]);
        let b = long_pairs(&ctx, &[(2, 20), (3, 30), (5, 50)]);
        let union_rows = a.union(&b).try_collect().unwrap();
        let merged = a
            .merge(&b, Some(|x: &Value, y: &Value| BinOp::Add.apply(x, y)))
            .unwrap()
            .collect_sorted();
        let joined = a.join(&b).unwrap().collect_sorted();
        outputs.push((name, union_rows, merged, joined));
    }
    for (name, u, m, j) in &outputs[1..] {
        assert_eq!(u, &outputs[0].1, "leg `{name}` union diverged");
        assert_eq!(m, &outputs[0].2, "leg `{name}` merge diverged");
        assert_eq!(j, &outputs[0].3, "leg `{name}` join diverged");
    }
}

#[test]
fn backends_surface_the_same_first_error() {
    // Row 2 fails in the second step; row 7 fails in the first step.
    // Tuple-at-a-time order reaches row 2's second-step error first, and
    // a columnar tile (which fails on row 7's lane in the first step)
    // must replay to the same error. The opaque closures and the
    // transparent twin tag their steps with statements s1 and s2.
    let mut messages = Vec::new();
    for leg in legs() {
        let ctx = ctx_for(&leg);
        let d = ctx.from_vec((0..10).map(Value::Long).collect());
        ctx.set_statement_label(Some("s1"));
        let first = d
            .map(|v| {
                if v.as_long() == Some(7) {
                    Err(RuntimeError::new("first-step error"))
                } else {
                    Ok(v.clone())
                }
            })
            .unwrap();
        ctx.set_statement_label(Some("s2"));
        let err = first
            .map(|v| {
                if v.as_long() == Some(2) {
                    Err(RuntimeError::new("second-step error"))
                } else {
                    Ok(v.clone())
                }
            })
            .unwrap()
            .try_collect()
            .unwrap_err();
        ctx.set_statement_label(None);
        messages.push((leg.name(), err.message));
        // The twin, on one partition so rows 2 and 7 share a tile:
        // `100 / (v - 7)` fails on row 7 in step s1, then
        // `100 / (v._1 - 2)` fails on row 2 in step s2.
        let one = leg.apply(Context::new(2, 1));
        let d = one.from_vec((0..10).map(Value::Long).collect());
        let div_by = |e: RowExpr, pivot: i64| {
            RowExpr::Bin(
                BinOp::Div,
                Box::new(RowExpr::Const(Value::Long(100))),
                Box::new(RowExpr::Bin(
                    BinOp::Sub,
                    Box::new(e),
                    Box::new(RowExpr::Const(Value::Long(pivot))),
                )),
            )
        };
        let mut twins = Vec::new();
        for transparent in [false, true] {
            one.set_statement_label(Some("s1"));
            let step1 = RowExpr::Tuple(vec![RowExpr::Input, div_by(RowExpr::Input, 7)]);
            let first = map_step(&d, step1, transparent);
            one.set_statement_label(Some("s2"));
            let err = map_step(&first, div_by(RowExpr::Col(0), 2), transparent)
                .try_collect()
                .unwrap_err();
            twins.push(err.message);
        }
        assert_eq!(
            twins[1],
            twins[0],
            "leg `{}`: columnar first error",
            leg.name()
        );
        assert!(
            twins[0].contains("s2") && twins[0].contains("zero"),
            "leg `{}`: row 2's second-step error comes first: {}",
            leg.name(),
            twins[0]
        );
    }
    for (name, msg) in &messages {
        assert!(
            msg.contains("second-step error") && msg.contains("s2"),
            "leg `{name}` surfaced the wrong first error: {msg}"
        );
    }
}

#[test]
fn backends_surface_the_same_first_error_from_the_consumer_sink() {
    // The first error in canonical row order can come from the CONSUMER
    // (here the shuffle's key check on row 0), not from a step (row 1's
    // map error). A failing columnar tile's replay must reproduce the
    // sink's error, not short-circuit on the step's.
    let mut messages = Vec::new();
    for leg in legs() {
        // One partition, so both rows share a tile and the tile replay
        // path is what decides which error surfaces.
        let ctx = leg.apply(Context::new(2, 1));
        let d = ctx.from_vec(vec![Value::Long(0), Value::Long(1)]);
        let err = d
            .map(|v| match v.as_long() {
                // Row 0 becomes a non-pair value: the scatter rejects it.
                Some(0) => Ok(Value::Long(99)),
                // Row 1 fails inside the step itself.
                Some(1) => Err(RuntimeError::new("step error on row 1")),
                _ => Ok(v.clone()),
            })
            .unwrap()
            .group_by_key()
            .unwrap_err();
        messages.push((leg.name(), err.message));
        // The twin: `99 / (1 - v)` turns row 0 into the same non-pair 99
        // and divides by zero on row 1.
        let expr = || {
            RowExpr::Bin(
                BinOp::Div,
                Box::new(RowExpr::Const(Value::Long(99))),
                Box::new(RowExpr::Bin(
                    BinOp::Sub,
                    Box::new(RowExpr::Const(Value::Long(1))),
                    Box::new(RowExpr::Input),
                )),
            )
        };
        for transparent in [false, true] {
            let err = map_step(&d, expr(), transparent)
                .group_by_key()
                .unwrap_err();
            messages.push((format!("{} twin {transparent}", leg.name()), err.message));
        }
    }
    for (name, msg) in &messages {
        assert!(
            msg.contains("pair"),
            "`{name}`: row 0's sink error comes first in tuple order: {msg}"
        );
    }
    for (name, msg) in &messages[1..] {
        assert_eq!(
            msg, &messages[0].1,
            "leg `{name}` surfaced a different first error"
        );
    }
}

#[test]
fn backends_agree_under_reduce_and_group() {
    for leg in legs() {
        let name = leg.name();
        let ctx = ctx_for(&leg);
        let d = ctx.range(1, 500);
        let sum = d.reduce(|a, b| BinOp::Add.apply(a, b)).unwrap().unwrap();
        assert_eq!(sum, Value::Long(125250), "leg `{name}`");
        let entries: Vec<(i64, i64)> = (0..100).map(|i| (i % 4, i)).collect();
        let g = long_pairs(&ctx, &entries).group_by_key().unwrap();
        let rows = g.collect_sorted();
        assert_eq!(rows.len(), 4, "leg `{name}`");
        for row in rows {
            let (_, bag) = key_value(&row).unwrap();
            assert_eq!(bag.as_bag().unwrap().len(), 25, "leg `{name}`");
        }
    }
}

/// A transparent chain (built via `map_expr` / `filter_expr`) must return
/// the same rows in the same order as its opaque twin on every leg — and
/// actually run in columnar tiles, while the twin stays on the row path.
#[test]
fn backends_agree_on_a_transparent_expression_chain() {
    fn chain(ctx: &Context, transparent: bool) -> Vec<Value> {
        let d = ctx.range(0, 499);
        let d = map_step(
            &d,
            RowExpr::Bin(
                BinOp::Mul,
                Box::new(RowExpr::Input),
                Box::new(RowExpr::Const(Value::Long(3))),
            ),
            transparent,
        );
        let d = filter_step(
            &d,
            RowExpr::Bin(
                BinOp::Lt,
                Box::new(RowExpr::Bin(
                    BinOp::Mod,
                    Box::new(RowExpr::Input),
                    Box::new(RowExpr::Const(Value::Long(7))),
                )),
                Box::new(RowExpr::Const(Value::Long(4))),
            ),
            transparent,
        );
        map_step(
            &d,
            RowExpr::Tuple(vec![
                RowExpr::Input,
                RowExpr::Bin(
                    BinOp::Add,
                    Box::new(RowExpr::Input),
                    Box::new(RowExpr::Const(Value::Long(1))),
                ),
            ]),
            transparent,
        )
        .collect()
    }
    let reference = chain(&Context::new(3, 5), false);
    assert!(!reference.is_empty());
    for leg in legs() {
        let name = leg.name();
        let ctx = ctx_for(&leg);
        for transparent in [false, true] {
            let before = ctx.stats().snapshot();
            let got = chain(&ctx, transparent);
            let after = ctx.stats().snapshot().since(&before);
            assert_eq!(
                got, reference,
                "leg `{name}` (transparent: {transparent}) diverged"
            );
            if transparent {
                assert!(
                    after.vectorized_batches > 0,
                    "leg `{name}`: a fully transparent chain must vectorize"
                );
                assert_eq!(
                    after.row_fallback_stages, 0,
                    "leg `{name}`: no fallback expected"
                );
            } else {
                assert_eq!(after.vectorized_batches, 0, "leg `{name}`: {after:?}");
                assert!(after.row_fallback_stages > 0, "leg `{name}`: {after:?}");
            }
        }
    }
}

/// One opaque closure in an otherwise transparent chain demotes the whole
/// stage to the row path — counted, and still row-identical to the fully
/// transparent chain.
#[test]
fn columnar_falls_back_per_stage_on_opaque_steps() {
    let plus = |n: i64| {
        RowExpr::Bin(
            BinOp::Add,
            Box::new(RowExpr::Input),
            Box::new(RowExpr::Const(Value::Long(n))),
        )
    };
    for leg in legs() {
        let ctx = ctx_for(&leg);
        let d = ctx.from_vec((0..200).map(Value::Long).collect());
        let transparent = map_step(&map_step(&d, plus(5), true), plus(2), true).collect();
        let before = ctx.stats().snapshot();
        let got = map_step(&map_step(&d, plus(5), true), plus(2), false).collect();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(got, transparent, "leg `{}`", leg.name());
        assert!(
            after.row_fallback_stages > 0,
            "opaque closure must be counted as a row fallback: {after:?}"
        );
        assert_eq!(after.vectorized_batches, 0, "{after:?}");
    }
}
