//! Ordering conformance for the sort-based shuffle path: for **every
//! morsel size × exchange budget leg** (see `common::legs`), the sorted
//! keyed operators
//! (`sorted_reduce_by_key`, `sorted_group_by_key`, `sorted_merge`,
//! `sorted_cogroup`) must produce output that is
//!
//! 1. **globally key-ordered** — keys ascend across the whole collect,
//!    partition by partition (range buckets are contiguous);
//! 2. **multiset-equal to the hash path** — the same rows as
//!    `reduce_by_key`/`group_by_key`/`merge`/`cogroup`, reordered only;
//! 3. **byte-identical across legs** — every morsel size and budget
//!    agrees row for row, whether the exchange stayed in memory or went
//!    through disk runs (spill counters in the budget-0 runs prove the
//!    sorted runs really were merged back from disk).
//!
//! Property tests drive the same invariants through adversarial key
//! distributions: zipf-ish skew, all-equal, pre-sorted, reverse-sorted.

mod common;

use proptest::prelude::*;

use common::{legs, Leg};
use diablo_dataflow::{Context, Dataset, Partitioner, RangePartitioner};
use diablo_runtime::{array::key_value, BinOp, RuntimeError, Value};

/// The combiner-closure result type, for turbofishing `None` combiners.
type RtResult = std::result::Result<Value, RuntimeError>;

const BUDGETS: [Option<u64>; 3] = [None, Some(64 << 20), Some(0)];

/// A context for one leg.
fn ctx_for(leg: Leg) -> Context {
    leg.apply(Context::new(3, 5))
}

/// A default-morsel context under one exchange budget.
fn ctx_with_budget(budget: Option<u64>) -> Context {
    ctx_for(Leg {
        morsel: None,
        budget,
    })
}

fn pairs(ctx: &Context, entries: &[(i64, i64)]) -> Dataset {
    ctx.from_vec(
        entries
            .iter()
            .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
            .collect(),
    )
}

/// Asserts keys ascend (non-strictly) across the rows of a full collect.
fn assert_key_ordered(rows: &[Value], what: &str) {
    for w in rows.windows(2) {
        let (a, _) = key_value(&w[0]).expect("pair row");
        let (b, _) = key_value(&w[1]).expect("pair row");
        assert!(
            a <= b,
            "{what}: key {a} precedes {b} — output not globally key-ordered"
        );
    }
}

fn sorted_copy(rows: &[Value]) -> Vec<Value> {
    let mut s = rows.to_vec();
    s.sort();
    s
}

/// A mixed-shape keyed input: duplicate keys, negative keys, value
/// variety — enough rows that a zero budget forces several spill runs.
fn entries(n: i64) -> Vec<(i64, i64)> {
    (0..n).map(|i| ((i * 37 % 61) - 13, i)).collect()
}

#[test]
fn sorted_ops_conform_across_backends_and_budgets() {
    // Hash-path references (order-insensitive): the sorted ops must emit
    // exactly these multisets.
    let reference_ctx = ctx_with_budget(None);
    let a = pairs(&reference_ctx, &entries(400));
    let b = pairs(
        &reference_ctx,
        &(0..150)
            .map(|i| (i * 11 % 40, 1000 + i))
            .collect::<Vec<_>>(),
    );
    let hash_reduce = sorted_copy(
        &a.reduce_by_key(|x, y| BinOp::Add.apply(x, y))
            .unwrap()
            .collect(),
    );
    let hash_group = sorted_copy(&a.group_by_key().unwrap().collect());
    let hash_merge = sorted_copy(
        &a.merge(&b, Some(|x: &Value, y: &Value| BinOp::Add.apply(x, y)))
            .unwrap()
            .collect(),
    );
    let hash_cogroup = sorted_copy(&a.cogroup(&b).unwrap().collect());

    // Byte-for-byte references from the first grid cell.
    let mut sorted_refs: Option<[Vec<Value>; 4]> = None;

    for leg in legs() {
        let name = leg.name();
        let ctx = ctx_for(leg);
        let a = pairs(&ctx, &entries(400));
        let b = pairs(
            &ctx,
            &(0..150)
                .map(|i| (i * 11 % 40, 1000 + i))
                .collect::<Vec<_>>(),
        );
        let before = ctx.stats().snapshot();
        let reduce = a
            .sorted_reduce_by_key(|x, y| BinOp::Add.apply(x, y))
            .unwrap()
            .collect();
        let group = a.sorted_group_by_key().unwrap().collect();
        let merge = a
            .sorted_merge(&b, Some(|x: &Value, y: &Value| BinOp::Add.apply(x, y)))
            .unwrap()
            .collect();
        let cogroup = a.sorted_cogroup(&b).unwrap().collect();
        let stats = ctx.stats().snapshot().since(&before);

        for (rows, what) in [
            (&reduce, "reduce"),
            (&group, "group"),
            (&merge, "merge"),
            (&cogroup, "cogroup"),
        ] {
            assert_key_ordered(rows, &format!("{name} {what}"));
        }
        assert_eq!(sorted_copy(&reduce), hash_reduce, "{name}: reduce multiset");
        assert_eq!(sorted_copy(&group), hash_group, "{name}: group multiset");
        assert_eq!(sorted_copy(&merge), hash_merge, "{name}: merge multiset");
        assert_eq!(
            sorted_copy(&cogroup),
            hash_cogroup,
            "{name}: cogroup multiset"
        );
        assert!(
            stats.sorted_shuffles >= 4,
            "{name}: every sorted op runs a key-ordered exchange: {stats:?}"
        );
        if leg.budget == Some(0) {
            assert!(
                stats.spill_files > 0 && stats.spilled_records > 0,
                "{name}: budget 0 must merge sorted runs from disk: {stats:?}"
            );
        }

        let outputs = [reduce, group, merge, cogroup];
        match &sorted_refs {
            None => sorted_refs = Some(outputs),
            Some(reference) => {
                for (got, want) in outputs.iter().zip(reference.iter()) {
                    assert_eq!(got, want, "{name}: diverged byte-for-byte from reference");
                }
            }
        }
    }
}

#[test]
fn ordered_context_routes_keyed_operators_to_the_sorted_path() {
    // `Context::with_ordered` (the engine side of `diabloc --ordered` /
    // `DIABLO_ORDERED`) makes the plain keyed operators sort-based: same
    // multisets, key-ordered output, sorted shuffles in the stats.
    let plain = ctx_with_budget(None);
    let ordered = ctx_with_budget(None).with_ordered(true);
    let d_plain = pairs(&plain, &entries(300));
    let d_ordered = pairs(&ordered, &entries(300));
    let before = ordered.stats().snapshot();
    let rows = d_ordered
        .reduce_by_key(|x, y| BinOp::Add.apply(x, y))
        .unwrap()
        .collect();
    let after = ordered.stats().snapshot().since(&before);
    assert!(
        after.sorted_shuffles > 0,
        "ordered mode re-routes: {after:?}"
    );
    assert_key_ordered(&rows, "ordered-mode reduce_by_key");
    assert_eq!(
        sorted_copy(&rows),
        sorted_copy(
            &d_plain
                .reduce_by_key(|x, y| BinOp::Add.apply(x, y))
                .unwrap()
                .collect()
        )
    );
    // join builds on cogroup, so it becomes key-ordered too.
    let u_ordered = pairs(&ordered, &[(3, 30), (1, 10), (2, 20)]);
    let v_ordered = pairs(&ordered, &[(2, 200), (3, 300), (1, 100)]);
    let joined = u_ordered.join(&v_ordered).unwrap().collect();
    assert_key_ordered(&joined, "ordered-mode join");
}

#[test]
fn range_partitioner_coalesces_bounds_for_degenerate_samples() {
    // Regression: a sample with fewer distinct keys than partitions used
    // to keep the maximum key as a bound, reserving the final bucket for
    // keys above every sampled key — a guaranteed-empty tail partition.
    // Bounds now coalesce: strictly ascending, never the sampled maximum.
    let all_equal = RangePartitioner::from_sample(vec![Value::Long(7); 100], 8);
    assert!(
        all_equal.bounds().is_empty(),
        "an all-equal sample needs no bounds (one bucket), got {:?}",
        all_equal.bounds()
    );
    assert_eq!(all_equal.partition(&Value::Long(7), 8).unwrap(), 0);

    let two = RangePartitioner::from_sample(vec![Value::Long(1), Value::Long(2)], 8);
    assert_eq!(two.bounds(), [Value::Long(1)], "max key never bounds");
    assert_eq!(two.partition(&Value::Long(1), 8).unwrap(), 0);
    assert_eq!(two.partition(&Value::Long(2), 8).unwrap(), 1);

    // d distinct keys, d <= partitions: every sampled key gets a bucket
    // and no sampled key maps past the last bound's bucket + 1 — no
    // guaranteed-empty tail between occupied buckets.
    for d in 1..=6i64 {
        let sample: Vec<Value> = (0..d).map(Value::Long).collect();
        let p = RangePartitioner::from_sample(sample, 6);
        let buckets: Vec<usize> = (0..d)
            .map(|k| p.partition(&Value::Long(k), 6).unwrap())
            .collect();
        assert_eq!(
            buckets,
            (0..d as usize).collect::<Vec<_>>(),
            "{d} distinct keys occupy buckets 0..{d} contiguously"
        );
        for w in p.bounds().windows(2) {
            assert!(w[0] < w[1], "bounds strictly ascending: {:?}", p.bounds());
        }
    }
}

/// Deterministic adversarial key distributions for the property tests.
fn keyed_rows(dist: usize, n: usize, seed: u64) -> Vec<(i64, i64)> {
    let n = n as i64;
    (0..n)
        .map(|i| {
            let k = match dist {
                // zipf-ish skew: low keys vastly more common.
                0 => {
                    let r = (i.wrapping_mul(seed as i64 | 1).wrapping_add(i * i)) % 1024;
                    (1024 / (r.abs() + 1)) % 64
                }
                // all-equal.
                1 => 42,
                // pre-sorted (many duplicates).
                2 => i / 3,
                // reverse-sorted.
                _ => (n - i) / 2,
            };
            (k, i)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adversarial_distributions_stay_ordered_under_budget_zero(
        dist in 0usize..4,
        n in 100usize..700,
        seed in 1u64..1000,
    ) {
        let rows = keyed_rows(dist, n, seed);

        // The sampled partitioner keeps bounds contiguous (strictly
        // ascending) and its bucket function monotone over sorted keys.
        let mut keys: Vec<Value> = rows.iter().map(|&(k, _)| Value::Long(k)).collect();
        let part = RangePartitioner::from_sample(keys.clone(), 5);
        for w in part.bounds().windows(2) {
            prop_assert!(w[0] < w[1], "bounds not strictly ascending: {:?}", part.bounds());
        }
        keys.sort();
        let buckets: Vec<usize> = keys
            .iter()
            .map(|k| part.partition(k, 5).unwrap())
            .collect();
        for w in buckets.windows(2) {
            prop_assert!(w[0] <= w[1], "bucket function not monotone: {buckets:?}");
        }

        // Budget 0: the whole sorted exchange goes through disk runs at
        // every morsel size, and the output must still be totally ordered
        // and multiset-equal to the hash path.
        let hash_ctx = ctx_with_budget(None);
        let hash = sorted_copy(
            &pairs(&hash_ctx, &rows)
                .reduce_by_key(|x, y| BinOp::Add.apply(x, y))
                .unwrap()
                .collect(),
        );
        let hash_group = sorted_copy(&pairs(&hash_ctx, &rows).group_by_key().unwrap().collect());
        let mut reference: Option<(Vec<Value>, Vec<Value>)> = None;
        for leg in legs().into_iter().filter(|l| l.budget == Some(0)) {
            let name = leg.name();
            let ctx = ctx_for(leg);
            let d = pairs(&ctx, &rows);
            let before = ctx.stats().snapshot();
            let reduced = d
                .sorted_reduce_by_key(|x, y| BinOp::Add.apply(x, y))
                .unwrap()
                .collect();
            let grouped = d.sorted_group_by_key().unwrap().collect();
            let stats = ctx.stats().snapshot().since(&before);
            assert_key_ordered(&reduced, "proptest reduce");
            assert_key_ordered(&grouped, "proptest group");
            prop_assert_eq!(sorted_copy(&reduced), hash.clone(), "{} reduce multiset", name);
            prop_assert_eq!(sorted_copy(&grouped), hash_group.clone(), "{} group multiset", name);
            prop_assert!(
                stats.spill_files > 0,
                "{} @ budget 0 must spill sorted runs: {:?}", name, stats
            );
            match &reference {
                None => reference = Some((reduced, grouped)),
                Some((r, g)) => {
                    prop_assert_eq!(&reduced, r, "{} reduce diverged byte-for-byte", name);
                    prop_assert_eq!(&grouped, g, "{} group diverged byte-for-byte", name);
                }
            }
        }
    }
}

#[test]
fn sorted_group_bags_match_hash_bag_order() {
    // Not just multisets: within one key, the sorted path's bag must list
    // values in exactly the hash path's order (source partition order,
    // then emission order) — equal keys ride the ordered exchange in
    // (source, sequence, emission) order.
    let ctx = ctx_with_budget(None);
    let rows: Vec<(i64, i64)> = (0..240).map(|i| (i % 7, i)).collect();
    let d = pairs(&ctx, &rows);
    let hash: std::collections::HashMap<Value, Value> = d
        .group_by_key()
        .unwrap()
        .collect()
        .into_iter()
        .map(|r| key_value(&r).unwrap())
        .collect();
    for budget in BUDGETS {
        let ctx = ctx_with_budget(budget);
        let d = pairs(&ctx, &rows);
        for row in d.sorted_group_by_key().unwrap().collect() {
            let (k, bag) = key_value(&row).unwrap();
            assert_eq!(
                Some(&bag),
                hash.get(&k),
                "budget {budget:?}: bag for key {k} diverged from the hash path"
            );
        }
    }
}

#[test]
fn sorted_merge_matches_hash_merge_semantics() {
    // Replace (None) and combine (Some) forms, duplicate update keys
    // included — per-key values must equal the hash path exactly.
    let make = |ctx: &Context| {
        (
            pairs(ctx, &[(1, 10), (2, 20), (5, 50)]),
            pairs(ctx, &[(2, 1), (2, 2), (3, 30), (0, 5)]),
        )
    };
    let hash_ctx = ctx_with_budget(None);
    let (old, upd) = make(&hash_ctx);
    let hash_replace = sorted_copy(
        &old.merge(&upd, None::<fn(&Value, &Value) -> RtResult>)
            .unwrap()
            .collect(),
    );
    let hash_combine = sorted_copy(
        &old.merge(&upd, Some(|a: &Value, b: &Value| BinOp::Add.apply(a, b)))
            .unwrap()
            .collect(),
    );
    for budget in BUDGETS {
        let ctx = ctx_with_budget(budget);
        let (old, upd) = make(&ctx);
        let replace = old
            .sorted_merge(&upd, None::<fn(&Value, &Value) -> RtResult>)
            .unwrap()
            .collect();
        let combine = old
            .sorted_merge(&upd, Some(|a: &Value, b: &Value| BinOp::Add.apply(a, b)))
            .unwrap()
            .collect();
        assert_key_ordered(&replace, "sorted merge (replace)");
        assert_key_ordered(&combine, "sorted merge (combine)");
        assert_eq!(sorted_copy(&replace), hash_replace, "budget {budget:?}");
        assert_eq!(sorted_copy(&combine), hash_combine, "budget {budget:?}");
    }
}
