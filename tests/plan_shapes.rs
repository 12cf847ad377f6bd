//! Plan-shape tests: the engine statistics expose how each translated
//! program executes (shuffles, broadcasts, rows moved), so the claims the
//! paper makes about *plans* — not just results — are checkable.

use diablo_core::compile;
use diablo_dataflow::{Context, StatsSnapshot};
use diablo_exec::Session;
use diablo_runtime::Value;
use diablo_workloads as wl;

/// Runs a workload and returns the statistics delta for the run.
fn stats_of(w: &wl::Workload, ctx: &Context) -> StatsSnapshot {
    let compiled = compile(w.source).expect("compiles");
    let mut s = Session::new(ctx.clone());
    for (n, v) in &w.scalars {
        s.bind_scalar(n, v.clone());
    }
    for (n, rows) in &w.collections {
        s.bind_input(n, rows.clone());
    }
    let before = ctx.stats().snapshot();
    s.run(&compiled).expect("runs");
    ctx.stats().snapshot().since(&before)
}

#[test]
fn scalar_aggregations_do_not_shuffle() {
    // Rule (16) turns `sum += v` into a distributed reduce with partial
    // aggregation — no shuffle at all.
    let ctx = Context::new(2, 8);
    let stats = stats_of(&wl::sum(5_000, 1), &ctx);
    assert_eq!(stats.shuffles, 0, "{stats:?}");
}

#[test]
fn word_count_shuffles_only_combined_partials() {
    // Map-side combining bounds the shuffle by partitions × distinct keys,
    // not by input size.
    let ctx = Context::new(2, 8);
    let n = 20_000;
    let distinct = 1_000;
    let stats = stats_of(&wl::word_count(n, 2), &ctx);
    assert!(stats.shuffles >= 1);
    assert!(
        stats.shuffled_records <= (8 * distinct + distinct) as u64 * 2,
        "combiner failed: {stats:?}"
    );
}

#[test]
fn elementwise_increment_uses_no_group_by_shuffle() {
    // Rule (17): `V[i] += W[i]` needs only the merge's exchange, not a
    // group-by — the update bag is W itself.
    let ctx = Context::new(2, 4);
    let src = "input W: vector[long];
               var V: vector[long] = vector();
               for i = 0, 999 do V[i] += W[i];";
    let compiled = compile(src).unwrap();
    let mut s = Session::new(ctx.clone());
    s.bind_input(
        "W",
        (0..1000)
            .map(|i| Value::pair(Value::Long(i), Value::Long(i)))
            .collect(),
    );
    let before = ctx.stats().snapshot();
    s.run(&compiled).unwrap();
    let stats = ctx.stats().snapshot().since(&before);
    // One merge exchanges both sides (two recorded shuffles); a surviving
    // group-by would add a third full shuffle of W.
    assert!(stats.shuffles <= 2, "{stats:?}");
}

#[test]
fn diablo_kmeans_shuffles_orders_of_magnitude_more_than_handwritten() {
    // The Fig. 3K story, as a hard assertion.
    let ctx = Context::new(2, 4);
    let w = wl::kmeans(500, 3, 1, 5);
    let diablo = stats_of(&w, &ctx);

    let points = ctx.from_vec(w.collections[0].1.clone());
    let initial: Vec<(f64, f64)> = w.collections[1]
        .1
        .iter()
        .map(|row| {
            let (_, xy) = diablo_runtime::array::key_value(row).unwrap();
            let f = xy.as_tuple().unwrap();
            (f[0].as_double().unwrap(), f[1].as_double().unwrap())
        })
        .collect();
    let before = ctx.stats().snapshot();
    diablo_baselines::handwritten::kmeans(&points, &initial, 1).unwrap();
    let hand = ctx.stats().snapshot().since(&before);

    assert!(
        diablo.shuffled_records > 10 * hand.shuffled_records.max(1),
        "diablo {diablo:?} vs hand-written {hand:?}"
    );
    assert!(
        diablo.broadcasts >= 1,
        "centroid array is broadcast: {diablo:?}"
    );
}

#[test]
fn matrix_multiplication_plans_share_the_join_group_shape() {
    // DIABLO's generated plan and the hand-written plan both shuffle for
    // one join and one reduceByKey over the same data; rows moved should
    // be within a small factor.
    let ctx = Context::new(2, 4);
    let w = wl::matrix_multiplication(12, 6);
    let diablo = stats_of(&w, &ctx);

    let m = ctx.from_vec(w.collections[0].1.clone());
    let n = ctx.from_vec(w.collections[1].1.clone());
    let before = ctx.stats().snapshot();
    diablo_baselines::handwritten::matrix_multiplication(&m, &n).unwrap();
    let hand = ctx.stats().snapshot().since(&before);

    assert!(diablo.shuffles >= hand.shuffles, "{diablo:?} vs {hand:?}");
    assert!(
        diablo.shuffled_records <= hand.shuffled_records * 8,
        "same asymptotic movement: {diablo:?} vs {hand:?}"
    );
}

#[test]
fn broadcast_only_for_unlinked_generators() {
    // A pure join program must not broadcast anything.
    let ctx = Context::new(2, 4);
    let stats = stats_of(&wl::matrix_addition(12, 3), &ctx);
    assert_eq!(stats.broadcasts, 0, "{stats:?}");
}

#[test]
fn narrow_chain_of_three_ops_is_one_physical_stage() {
    // The acceptance bar for the lazy plan layer: a chain of ≥ 3 narrow
    // operators must execute as exactly 1 fused per-partition stage.
    let ctx = Context::new(2, 4);
    let d = ctx.from_vec(
        (0..1000)
            .map(|i| Value::pair(Value::Long(i), Value::Long(i % 7)))
            .collect(),
    );
    let chained = d
        .map(|row| Ok(diablo_runtime::array::key_value(row)?.1))
        .expect("map")
        .filter(|v| Ok(v.as_long().unwrap_or(0) != 3))
        .expect("filter")
        .flat_map(|v| Ok(vec![v.clone(), v.clone()]))
        .expect("flat_map");
    let before = ctx.stats().snapshot();
    let rows = chained.collect();
    let after = ctx.stats().snapshot().since(&before);
    assert_eq!(after.physical_stages, 1, "3 narrow ops, 1 stage: {after:?}");
    assert_eq!(after.shuffles, 0, "{after:?}");
    assert_eq!(rows.len(), 2000 - 2 * (1000_usize.div_ceil(7)));
}

#[test]
fn translated_word_count_fuses_its_narrow_prologue() {
    // Word Count's pre-shuffle pipeline (scan → bind → let → key) must run
    // as one fused stage feeding the reduceByKey combiner: 2 physical
    // stages for the aggregation, plus 3 for the final merge `⊳`.
    let ctx = Context::new(2, 4);
    let stats = stats_of(&wl::word_count(5_000, 2), &ctx);
    assert!(
        stats.physical_stages <= 5,
        "narrow prologue must fuse: {stats:?}"
    );
    // The same plan touched many more logical operators than stages.
    assert!(stats.stages > stats.physical_stages, "{stats:?}");
}

#[test]
fn sorted_reduce_then_map_then_collect_is_two_stages() {
    // Shuffle-read fusion survives on the sorted path: the combine+sort
    // pass is stage one, and the merge-reduce is a lazy plan node that
    // fuses with the map and the collect into stage two.
    let ctx = Context::new(2, 4);
    let d = ctx.from_vec(
        (0..600)
            .map(|i| Value::pair(Value::Long(i % 23), Value::Long(1)))
            .collect(),
    );
    let before = ctx.stats().snapshot();
    let rows = d
        .sorted_reduce_by_key(|a, b| diablo_runtime::BinOp::Add.apply(a, b))
        .expect("sorted reduce")
        .map(|row| {
            let (k, v) = diablo_runtime::array::key_value(row)?;
            Ok(Value::pair(k, v))
        })
        .expect("map")
        .collect();
    let after = ctx.stats().snapshot().since(&before);
    assert_eq!(
        after.physical_stages, 2,
        "combine+sort, then merge-reduce+map fused with collect: {after:?}"
    );
    assert_eq!(after.sorted_shuffles, 1, "{after:?}");
    assert_eq!(rows.len(), 23);
    // The output is globally key-ordered — the point of the sorted path.
    let keys: Vec<Value> = rows
        .iter()
        .map(|r| diablo_runtime::array::key_value(r).unwrap().0)
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn sorted_path_explain_names_partitioner_and_sorted_stage() {
    // Both explain surfaces name the sort-based path: the executed-plan
    // trace carries the partitioner name, and the pending-plan render
    // marks the merge-reduce stage as sorted.
    let ctx = Context::new(2, 4);
    let d = ctx.from_vec(
        (0..200)
            .map(|i| Value::pair(Value::Long(i % 11), Value::Long(i)))
            .collect(),
    );
    let pending = d
        .sorted_reduce_by_key(|a, b| diablo_runtime::BinOp::Add.apply(a, b))
        .expect("sorted reduce");
    let render = pending.explain();
    assert!(render.contains("sorted_reduce_by_key"), "{render}");
    assert!(render.contains("range"), "{render}");

    ctx.start_plan_trace();
    let _ = d.sorted_group_by_key().expect("sorted group").collect();
    let trace = ctx.take_plan_trace().join("\n");
    assert!(
        trace.contains("range partitioner"),
        "trace must name the partitioner: {trace}"
    );
    assert!(
        trace.contains("sorted"),
        "trace must note the sorted exchange: {trace}"
    );
    assert!(
        trace.contains("merged by key"),
        "trace must note the run merge: {trace}"
    );
}

#[test]
fn session_explain_renders_fused_plan() {
    let compiled = compile(wl::word_count(100, 1).source).expect("compiles");
    let w = wl::word_count(100, 1);
    let ctx = Context::new(2, 4);
    let mut s = Session::new(ctx.clone());
    for (n, rows) in &w.collections {
        s.bind_input(n, rows.clone());
    }
    let plan = s.explain(&compiled).expect("explains");
    assert!(plan.contains("fused"), "{plan}");
    assert!(plan.contains("reduce_by_key"), "{plan}");
    assert!(plan.contains("shuffle"), "{plan}");
}

#[test]
fn plan_trace_notes_the_layout_per_stage_under_the_columnar_backend() {
    // The executed-plan trace (the same lines `Session::explain` renders)
    // carries a per-stage layout note — `layout: columnar` for a
    // transparent chain, `layout: row (…)` naming the opaque step when a
    // UDF forces the tuple path.
    use diablo_dataflow::RowExpr;

    let ctx = Context::new(2, 4);
    let d = ctx.from_vec((0..200).map(Value::Long).collect());

    ctx.start_plan_trace();
    let _ = d
        .map_expr(RowExpr::Bin(
            diablo_runtime::BinOp::Mul,
            Box::new(RowExpr::Input),
            Box::new(RowExpr::Const(Value::Long(3))),
        ))
        .expect("map_expr")
        .collect();
    let trace = ctx.take_plan_trace().join("\n");
    assert!(
        trace.contains("layout: columnar"),
        "transparent chain must be noted columnar: {trace}"
    );

    ctx.start_plan_trace();
    let _ = d.map(|v| Ok(v.clone())).expect("map").collect();
    let trace = ctx.take_plan_trace().join("\n");
    assert!(
        trace.contains("layout: row ("),
        "opaque chain must name its row-path reason: {trace}"
    );
}

#[test]
fn stage_counts_grow_with_program_complexity() {
    let ctx = Context::new(2, 4);
    let simple = stats_of(&wl::sum(1_000, 1), &ctx);
    let complex = stats_of(&wl::matrix_factorization(8, 2, 1, 2), &ctx);
    assert!(
        complex.stages > simple.stages * 3,
        "MF ({}) should dwarf Sum ({})",
        complex.stages,
        simple.stages
    );
}
