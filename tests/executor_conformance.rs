//! Engine conformance: every engine-settings leg must be plan-faithful —
//! same rows, same order, same shuffle counts, same first error for
//! deterministic chains — so each check runs over every leg (morsel size
//! × exchange budget, see `common::legs`) and compares them pairwise.
//! Columnar tiles are checked against the row path inside one context,
//! by running each transparent chain next to its opaque twin.

mod common;

use common::{filter_step, generator_twin, legs, map_step};
use diablo_comp::ir::Pattern;
use diablo_dataflow::{Context, Dataset, RowExpr};
use diablo_runtime::{array::key_value, AggOp, BinOp, RuntimeError, Value};

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

/// `(_, v) ← V` lowers to a transparent unpack of each source row; its
/// arity check must fail exactly like the opaque closure it replaces —
/// same first error text, same statement tag — whether the rows are
/// collected or folded by a total aggregation. The bad row sits in the
/// middle of a tile: a bare long, a 3-tuple, or (third case) every row of
/// the input is a 3-tuple, so a whole tile is uniformly the wrong width.
/// Reading `v` as the pair's `_2` field would let a 3-tuple through.
#[test]
fn generator_patterns_reject_mismatched_rows_like_their_opaque_twin() {
    let pattern = Pattern::pair(Pattern::Wild, Pattern::var("v"));
    let triple = |i: i64| Value::tuple(vec![Value::Long(i), Value::Long(2), Value::Long(3)]);
    let cases: Vec<(&str, Vec<Value>)> = vec![
        ("long", good_rows_with(3000, 1000, Value::Long(7))),
        ("3-tuple", good_rows_with(3000, 1000, triple(1000))),
        ("all 3-tuples", (0..3000).map(triple).collect()),
    ];
    for (case, rows) in cases {
        for leg in legs() {
            let at = format!("{case}, leg `{}`", leg.name());
            // One partition, so the bad row shares a tile with good ones.
            let ctx = leg.apply(Context::new(2, 1));
            let d = ctx.from_vec(rows.clone());
            let mut seen = Vec::new();
            for transparent in [true, false] {
                ctx.set_statement_label(Some("s1:sum"));
                let bound = if transparent {
                    diablo_exec::bind_generator(&d, &pattern).unwrap()
                } else {
                    generator_twin(&d, &pattern)
                };
                let v = map_step(&bound, RowExpr::Col(0), transparent);
                ctx.set_statement_label(None);
                let collected = v.try_collect().unwrap_err().message;
                let folded = v
                    .aggregate(AggOp::new(BinOp::Add).unwrap())
                    .unwrap_err()
                    .message;
                assert_eq!(collected, folded, "{at}: collect vs fold");
                seen.push(collected);
            }
            assert_eq!(seen[0], seen[1], "{at}: transparent vs opaque");
            assert!(
                seen[0].starts_with("[s1:sum] pattern")
                    && seen[0].contains("does not match source row"),
                "{at}: {}",
                seen[0]
            );
        }
    }
    // End to end: a compiled program reports the same error and tag.
    let program = diablo_core::compile(diablo_workloads::programs::CONDITIONAL_SUM).unwrap();
    let mut s = diablo_exec::Session::new(Context::new(2, 1));
    s.bind_input("V", good_rows_with(3000, 1000, triple(1000)));
    let err = s.run(&program).unwrap_err().message;
    assert!(
        err.starts_with("[s1:sum] pattern")
            && err.ends_with("does not match source row (1000, 2, 3)"),
        "{err}"
    );
}

/// `n` rows `(i, i as double)` with row `at` replaced by `bad`.
fn good_rows_with(n: i64, at: usize, bad: Value) -> Vec<Value> {
    let mut rows: Vec<Value> = (0..n)
        .map(|i| Value::pair(Value::Long(i), Value::Double(i as f64)))
        .collect();
    rows[at] = bad;
    rows
}

/// A value with doubles compared by bit pattern (`-0.0` ≠ `0.0`).
fn bits(v: &Value) -> String {
    match v {
        Value::Double(x) => format!("double {:#x}", x.to_bits()),
        other => format!("{other:?}"),
    }
}

/// Total aggregations fold each columnar tile's final lane in place. The
/// fold must be the row fold exactly — `acc ⊕ row` left to right from the
/// first surviving row — so every operator returns the same bits as the
/// opaque twin and as `Dataset::reduce`, on inputs whose result depends
/// on order: `-0.0` first (starting from the identity `0` would give
/// `+0.0`), `1e16 + 1.0 - 1e16`, signed zeros under min/max, `i64`
/// wrap-around, and a lane whose type changes between and within tiles.
/// Two partitions of 10,000 rows each span three 4096-row tiles.
#[test]
fn lane_folds_are_bit_identical_to_the_row_fold() {
    let doubles = |xs: &[f64]| -> Vec<Value> {
        (0..20_000)
            .map(|i| Value::Double(if i == 0 { -0.0 } else { xs[i % xs.len()] }))
            .collect()
    };
    let longs =
        |xs: &[i64]| -> Vec<Value> { (0..20_000).map(|i| Value::Long(xs[i % xs.len()])).collect() };
    // Partition 0: a long tile, then doubles; partition 1: long and
    // double rows interleaved inside every tile.
    let mixed: Vec<Value> = (0..20_000)
        .map(|i| {
            let mixed_tile = if i < 10_000 { i >= 4096 } else { i % 2 == 0 };
            if mixed_tile {
                Value::Double(i as f64 * 0.1)
            } else {
                Value::Long(i as i64)
            }
        })
        .collect();
    let bools = |every: usize, on: bool| -> Vec<Value> {
        (0..20_000)
            .map(|i| Value::Bool((i % every == 0) == on))
            .collect()
    };
    let cases: Vec<(&str, BinOp, Vec<Value>)> = vec![
        ("sum", BinOp::Add, doubles(&[1e16, 1.0, -1e16, 0.1, -0.3])),
        ("all -0.0", BinOp::Add, vec![Value::Double(-0.0); 20_000]),
        (
            "product",
            BinOp::Mul,
            doubles(&[1.1, 0.9, 3.0, 1.0 / 3.0, -1.0]),
        ),
        ("min", BinOp::Min, doubles(&[0.0, -0.0, 5.0, -2.5, 0.0])),
        ("max", BinOp::Max, doubles(&[-0.0, 0.0, -5.0, 2.5, -0.0])),
        ("and", BinOp::And, bools(7919, false)),
        ("or", BinOp::Or, bools(7919, true)),
        (
            "long wrap +",
            BinOp::Add,
            longs(&[i64::MAX, 3, i64::MIN + 1, i64::MAX]),
        ),
        (
            "long wrap *",
            BinOp::Mul,
            longs(&[i64::MAX, 3, -7, 1 << 40]),
        ),
        ("mixed +", BinOp::Add, mixed.clone()),
        ("mixed min", BinOp::Min, mixed),
        (
            "strings",
            BinOp::Min,
            (0..20_000)
                .map(|i| Value::str(format!("w{}", i % 97)))
                .collect(),
        ),
    ];
    for (case, op, values) in cases {
        for leg in legs() {
            let at = format!("{case}, leg `{}`", leg.name());
            let ctx = leg.apply(Context::new(3, 2));
            // Pair rows, so the transparent chain is a real projection.
            let rows: Vec<Value> = values
                .iter()
                .enumerate()
                .map(|(i, v)| Value::pair(Value::Long(i as i64), v.clone()))
                .collect();
            let (p0, p1) = rows.split_at(10_000);
            let d = ctx.from_partitions(vec![p0.to_vec(), p1.to_vec()]);
            let agg = AggOp::new(op).unwrap();
            let value = |transparent| {
                map_step(
                    &d,
                    RowExpr::Field(Box::new(RowExpr::Input), "_2".into()),
                    transparent,
                )
            };
            let before = ctx.stats().snapshot();
            let lanes = value(true).aggregate(agg).unwrap();
            let after = ctx.stats().snapshot().since(&before);
            assert!(after.vectorized_batches >= 6, "{at}: {after:?}");
            assert_eq!(after.row_fallback_stages, 0, "{at}: {after:?}");
            let twin = value(false).aggregate(agg).unwrap();
            let reduce = value(false)
                .reduce(move |a, b| op.apply(a, b))
                .unwrap()
                .unwrap();
            assert_eq!(bits(&lanes), bits(&twin), "{at}: lane fold vs opaque twin");
            assert_eq!(bits(&lanes), bits(&reduce), "{at}: lane fold vs reduce");
        }
    }
    // An empty input folds to the monoid identity, or the identity error.
    let ctx = Context::new(2, 2);
    for (op, want) in [
        (BinOp::Add, Ok(Value::Long(0))),
        (BinOp::Mul, Ok(Value::Long(1))),
        (BinOp::And, Ok(Value::Bool(true))),
        (BinOp::Or, Ok(Value::Bool(false))),
        (
            BinOp::Min,
            Err("reduction min/ over an empty bag has no identity"),
        ),
    ] {
        for transparent in [true, false] {
            let empty = map_step(&ctx.empty(), RowExpr::Col(1), transparent);
            let got = empty
                .aggregate(AggOp::new(op).unwrap())
                .map_err(|e| e.message);
            assert_eq!(got, want.clone().map_err(String::from), "{op:?}");
        }
    }
}
