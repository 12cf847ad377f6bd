//! Failure-path tests: bad programs, bad inputs, and runtime faults must
//! surface as errors (never panics), on both execution paths.

mod common;

use common::{legs, map_step};
use diablo_core::compile;
use diablo_dataflow::{Context, RowExpr};
use diablo_exec::Session;
use diablo_interp::Interpreter;
use diablo_lang::{parse, typecheck};
use diablo_runtime::{BinOp, RuntimeError, Value};

fn vec_rows(entries: &[(i64, i64)]) -> Vec<Value> {
    entries
        .iter()
        .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
        .collect()
}

#[test]
fn division_by_zero_is_an_error_on_both_paths() {
    let src = "input V: vector[long];
               var s: long = 0;
               for v in V do s += 100 / v;";
    let rows = vec_rows(&[(0, 4), (1, 0)]);

    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(2, 4));
    session.bind_input("V", rows.clone());
    let err = session.run(&compiled).unwrap_err();
    assert!(err.message.contains("zero"), "{err}");

    let tp = typecheck(parse(src).unwrap()).unwrap();
    let mut interp = Interpreter::new();
    interp.bind_collection("V", rows).unwrap();
    let err = interp.run(&tp).unwrap_err();
    assert!(err.message.contains("zero"), "{err}");
}

#[test]
fn malformed_collection_rows_are_rejected() {
    let src = "input V: vector[long];
               var s: long = 0;
               for v in V do s += v;";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(2, 4));
    // Rows must be (key, value) pairs; bare longs are not.
    session.bind_input("V", vec![Value::Long(5)]);
    assert!(session.run(&compiled).is_err());
}

#[test]
fn wrong_value_shapes_fail_cleanly() {
    // The program treats V as a vector of longs but the bound rows carry
    // strings; the engine must report an operator error, not panic.
    let src = "input V: vector[long];
               var s: long = 0;
               for v in V do s += v;";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(2, 4));
    session.bind_input(
        "V",
        vec![Value::pair(Value::Long(0), Value::str("not a number"))],
    );
    let err = session.run(&compiled).unwrap_err();
    assert!(err.message.contains("expects numbers"), "{err}");
}

#[test]
fn missing_scalar_input_is_reported_by_name() {
    let src = "input n: long;
               var x: long = 0;
               x := n + 1;";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(1, 1));
    let err = session.run(&compiled).unwrap_err();
    assert!(err.message.contains('n'), "{err}");
}

#[test]
fn non_boolean_while_condition_is_a_type_error() {
    let err = compile("var k: long = 0; while (k) k += 1;").unwrap_err();
    assert!(err.message.contains("bool"), "{err}");
}

#[test]
fn runtime_faults_propagate_from_worker_threads() {
    // The fault happens deep inside a shuffle stage on some partition; the
    // driver still receives a proper error.
    let src = "input K: vector[long];
               input V: vector[long];
               var C: vector[long] = vector();
               for i = 0, 9 do C[K[i]] += 100 / V[i];";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(4, 8));
    session.bind_input("K", vec_rows(&[(0, 1), (1, 2), (2, 3)]));
    session.bind_input("V", vec_rows(&[(0, 10), (1, 0), (2, 5)]));
    let err = session.run(&compiled).unwrap_err();
    assert!(err.message.contains("zero"), "{err}");
}

#[test]
fn interpreter_detects_collection_used_as_scalar() {
    let tp = typecheck(
        parse(
            "input V: vector[long];
             var s: long = 0;
             for v in V do s += v;",
        )
        .unwrap(),
    )
    .unwrap();
    let mut interp = Interpreter::new();
    // Bind V as a *scalar* — shape confusion must be caught.
    interp.bind_scalar("V", Value::Long(3));
    assert!(interp.run(&tp).is_err());
}

#[test]
fn empty_inputs_produce_empty_or_unchanged_outputs() {
    let src = "input V: vector[long];
               var C: vector[long] = vector();
               var s: long = 42;
               for v in V do { C[v] += 1; s += v; };";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(2, 4));
    session.bind_input("V", Vec::new());
    session.run(&compiled).unwrap();
    assert_eq!(session.collect("C").unwrap(), Vec::<Value>::new());
    // No iterations → the scalar keeps its initial value.
    assert_eq!(session.scalar("s"), Some(Value::Long(42)));
}

#[test]
fn empty_range_loops_are_no_ops() {
    let src = "var V: vector[long] = vector();
               var s: long = 7;
               for i = 5, 4 do { V[i] := 1; s += 1; };";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(2, 4));
    session.run(&compiled).unwrap();
    assert_eq!(session.collect("V").unwrap(), Vec::<Value>::new());
    assert_eq!(session.scalar("s"), Some(Value::Long(7)));
}

#[test]
fn while_loop_that_never_runs() {
    let src = "var k: long = 10;
               var body_ran: long = 0;
               while (k < 5) { k += 1; body_ran += 1; };";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(1, 1));
    session.run(&compiled).unwrap();
    assert_eq!(session.scalar("body_ran"), Some(Value::Long(0)));
}

#[test]
fn sorted_path_surfaces_the_hash_paths_error_mid_sort() {
    // A UDF that fails inside the fused chain feeding the keyed operator
    // (the sort side of the sorted path) must surface the identical first
    // error — message and statement tag — as the hash path's scatter, on
    // every engine-settings leg.
    for leg in legs() {
        let name = leg.name();
        let run = |sorted: bool| -> RuntimeError {
            let ctx = leg.apply(Context::new(3, 6));
            ctx.set_statement_label(Some("s4: C := poisoned map"));
            let d = ctx
                .from_vec((0..300).map(Value::Long).collect())
                .map(|v| {
                    if v.as_long() == Some(137) {
                        Err(RuntimeError::new("boom mid-sort"))
                    } else {
                        Ok(Value::pair(v.clone(), Value::Long(1)))
                    }
                })
                .unwrap();
            ctx.set_statement_label(None);
            let keyed = if sorted {
                d.sorted_reduce_by_key(|a, b| BinOp::Add.apply(a, b))
            } else {
                d.reduce_by_key(|a, b| BinOp::Add.apply(a, b))
            };
            keyed.unwrap_err()
        };
        let hash = run(false);
        let sorted = run(true);
        assert_eq!(
            sorted.message, hash.message,
            "leg `{name}`: sorted path changed the first error"
        );
        assert!(sorted.message.contains("boom mid-sort"), "{sorted}");
        assert!(
            sorted.message.contains("s4: C := poisoned map"),
            "leg `{name}`: statement tag lost on the sorted path: {sorted}"
        );
    }
}

#[test]
fn sorted_path_surfaces_the_hash_paths_error_mid_merge() {
    // A combiner that fails during the post-shuffle reduction (the merge
    // side of the sorted path). The poisoned key appears once per source
    // partition, so neither path's map-side combine ever touches it — the
    // failure happens only while merging the shuffled bucket — and both
    // paths must report the same tagged error on every leg.
    for leg in legs() {
        let name = leg.name();
        let run = |sorted: bool| -> RuntimeError {
            let ctx = leg.apply(Context::new(3, 6));
            // 60 rows chunk into 6 partitions of 10; key 5 sits at one
            // index per partition (i % 10 == 0 → key 5).
            let rows: Vec<Value> = (0..60)
                .map(|i| {
                    if i % 10 == 0 {
                        Value::pair(Value::Long(5), Value::Long(-1))
                    } else {
                        Value::pair(Value::Long(i % 7 + 100), Value::Long(i))
                    }
                })
                .collect();
            ctx.set_statement_label(Some("s9: C := poisoned combine"));
            let d = ctx.from_vec(rows);
            let combiner = |a: &Value, b: &Value| {
                if a.as_long() == Some(-1) || b.as_long() == Some(-1) {
                    Err(RuntimeError::new("boom mid-merge"))
                } else {
                    BinOp::Add.apply(a, b)
                }
            };
            let keyed = if sorted {
                d.sorted_reduce_by_key(combiner)
            } else {
                d.reduce_by_key(combiner)
            }
            .unwrap();
            ctx.set_statement_label(None);
            keyed.try_collect().unwrap_err()
        };
        let hash = run(false);
        let sorted = run(true);
        assert_eq!(
            sorted.message, hash.message,
            "leg `{name}`: sorted merge changed the first error"
        );
        assert!(sorted.message.contains("boom mid-merge"), "{sorted}");
        assert!(
            sorted.message.contains("s9: C := poisoned combine"),
            "leg `{name}`: statement tag lost in the sorted merge: {sorted}"
        );
    }
}

#[test]
fn sorted_shuffle_rejects_non_pair_rows_like_the_hash_scatter() {
    // The ordered exchange's pair check fires in canonical row order, so
    // the sorted path reports the same malformed-row error the hash
    // scatter does.
    for leg in legs() {
        let name = leg.name();
        let run = |sorted: bool| -> RuntimeError {
            let ctx = leg.apply(Context::new(2, 4));
            let d = ctx.from_vec(vec![
                Value::pair(Value::Long(1), Value::Long(10)),
                Value::Long(99), // not a (key, value) pair
            ]);
            if sorted {
                d.sorted_group_by_key().unwrap_err()
            } else {
                d.group_by_key().unwrap_err()
            }
        };
        let hash = run(false);
        let sorted = run(true);
        assert_eq!(
            sorted.message, hash.message,
            "leg `{name}`: malformed-row errors diverged"
        );
        assert!(sorted.message.contains("pair"), "{sorted}");
    }
}

#[test]
fn columnar_mid_batch_failures_match_the_row_path_byte_for_byte() {
    // A fully transparent (vectorizable) fused chain whose 137th row
    // divides by zero. In columnar tiles the failure strikes in the
    // middle of a tile; the tile is replayed tuple-at-a-time, so the
    // surfaced first error — message and statement tag — must be
    // byte-identical to the opaque twin's on the row path, on both keyed
    // paths and under every exchange budget.
    let expr = || {
        RowExpr::Tuple(vec![
            RowExpr::Bin(
                BinOp::Mod,
                Box::new(RowExpr::Input),
                Box::new(RowExpr::Const(Value::Long(7))),
            ),
            RowExpr::Bin(
                BinOp::Div,
                Box::new(RowExpr::Const(Value::Long(1000))),
                Box::new(RowExpr::Bin(
                    BinOp::Sub,
                    Box::new(RowExpr::Input),
                    Box::new(RowExpr::Const(Value::Long(137))),
                )),
            ),
        ])
    };
    for budget in [None, Some(4096), Some(0)] {
        for sorted in [false, true] {
            let ctx = Context::new(3, 6);
            ctx.set_memory_budget(budget);
            let run = |transparent: bool| -> (RuntimeError, u64) {
                let before = ctx.stats().snapshot();
                ctx.set_statement_label(Some("s3: C := 1000 / (V[i] - 137)"));
                let d = map_step(
                    &ctx.from_vec((0..300).map(Value::Long).collect()),
                    expr(),
                    transparent,
                );
                ctx.set_statement_label(None);
                let keyed = if sorted {
                    d.sorted_reduce_by_key(|a, b| BinOp::Add.apply(a, b))
                } else {
                    d.reduce_by_key(|a, b| BinOp::Add.apply(a, b))
                };
                let err = match keyed {
                    Err(e) => e,
                    Ok(k) => k.try_collect().unwrap_err(),
                };
                let vectorized = ctx.stats().snapshot().since(&before).vectorized_batches;
                (err, vectorized)
            };
            let (row_path, row_batches) = run(false);
            let (columnar, col_batches) = run(true);
            let mode = if sorted { "ordered" } else { "hash" };
            assert_eq!(
                row_batches, 0,
                "{mode}/budget {budget:?}: the twin runs rows"
            );
            assert!(
                col_batches > 0,
                "{mode}/budget {budget:?}: the transparent chain must run columnar"
            );
            assert_eq!(
                columnar.message, row_path.message,
                "{mode}/budget {budget:?}: columnar changed the first error"
            );
            assert!(columnar.message.contains("zero"), "{columnar}");
            assert!(
                columnar.message.contains("s3: C := 1000 / (V[i] - 137)"),
                "{mode}/budget {budget:?}: statement tag lost mid-batch: {columnar}"
            );
        }
    }
}

#[test]
fn deep_nesting_is_handled() {
    // Four nested range loops, all eliminated into one bulk statement.
    let src = "var T: matrix[long] = matrix();
               for a = 0, 2 do
                 for b = 0, 2 do
                   for c = 0, 2 do
                     for d = 0, 2 do
                       T[a, b] += 1;";
    let compiled = compile(src).unwrap();
    let mut session = Session::new(Context::new(2, 4));
    session.run(&compiled).unwrap();
    let rows = session.collect("T").unwrap();
    assert_eq!(rows.len(), 9);
    for row in rows {
        let (_, v) = diablo_runtime::array::key_value(&row).unwrap();
        assert_eq!(v, Value::Long(9), "each (a, b) gets 3×3 increments");
    }
}
