//! The partitioned [`Dataset`] and its operators, built over the lazy
//! physical plan of [`crate::plan`] and executed by its plan-running
//! functions.
//!
//! Rows are [`Value`]s. Keyed operators (`reduce_by_key`, `group_by_key`,
//! `cogroup`, `join`, `merge`) expect rows shaped as `(key, value)` pairs —
//! exactly the sparse-array representation of §3.4 — and hash-partition
//! rows by key before the reduction stage, which is the engine's shuffle.
//!
//! Narrow operators (`map`, `filter`, `flat_map`, `map_partitions`,
//! `union`) are **lazy**: they append a node to the dataset's plan and
//! return immediately. So are the **post-shuffle stages** of the keyed
//! operators: `reduce_by_key` runs its combine+scatter eagerly (the data
//! must move) but leaves the shuffle-read reduction as a pending
//! partition-wise plan node, so `reduce_by_key → map → shuffle` executes
//! in two physical stages, with the reduction fused into the next
//! scatter. Work happens at materialization points — shuffles,
//! [`Dataset::collect`], [`Dataset::reduce`], [`Dataset::broadcast`] —
//! where the engine fuses the pending chain into one physical
//! per-partition stage. Results are deterministic and bit-identical to
//! operator-at-a-time execution: a shuffle distributes rows by key hash,
//! and output order within a partition follows (source partition, source
//! position) order.
//!
//! A lazy dataset consumed by **several** downstream operators re-runs its
//! pending stage per consumer (each derivation captures the plan; only
//! [`Dataset::materialize`]/`force` fills the shared cache). Pin a reused
//! result with [`Dataset::materialize`] — the engine's equivalent of
//! Spark's `cache()` — as the hand-written baselines do for loop-carried
//! datasets. Pinned results live in the context's shared **dataset
//! cache** (an LRU under `DIABLO_DATASET_BUDGET` /
//! [`Context::with_dataset_budget`]): entries past the memory budget
//! demote to disk files, entries past the disk ledger are dropped and
//! transparently **recomputed from the plan** on the next read, and an
//! entry is released as soon as its last referencing dataset or plan is
//! dropped — or eagerly, with [`Dataset::unpersist`].
//!
//! Errors raised inside a fused chain surface at the materialization point
//! (which is why shuffles and `reduce` return `Result`); the infallible
//! accessors (`collect`, `count`) panic if a pending chain fails — use
//! [`Dataset::try_collect`] / [`Dataset::materialize`] where a deferred
//! error must be handled gracefully.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use diablo_runtime::{array::key_value, size::slice_size, RuntimeError, Value};

use crate::exchange::{pair_key, HashPartitioner, Partitioner, RangePartitioner};
use crate::plan::{self, PartFn, PlanOp};
use crate::pool::run_stage;
use crate::Context;

/// Result alias for engine operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// A borrowed map-side combiner, as threaded through the sorted-source
/// pass (internal).
type CombineRef<'a> = &'a (dyn Fn(&Value, &Value) -> Result<Value> + Sync);

/// An immutable, partitioned bag of rows with a lazy physical plan.
#[derive(Clone)]
pub struct Dataset {
    ctx: Context,
    plan: Arc<PlanOp>,
    /// This dataset's slot in the context's shared dataset cache: forcing
    /// fills the slot's entry (so a plan executes at most once no matter
    /// how many readers force it, while the entry stays resident), and
    /// dropping the last clone — of the dataset or of a plan derived
    /// from it — releases the entry. Unlike the old `Arc<OnceLock>` pin
    /// this keeps nothing alive the cache cannot evict.
    slot: Arc<crate::dscache::CacheSlot>,
}

pub(crate) fn key_hash(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

impl Dataset {
    /// Builds a dataset by chunking `rows` into the context's partitions.
    pub fn from_vec(ctx: Context, rows: Vec<Value>) -> Dataset {
        let p = ctx.partitions();
        let chunk = rows.len().div_ceil(p).max(1);
        let mut parts: Vec<Vec<Value>> = Vec::with_capacity(p);
        let mut it = rows.into_iter();
        for _ in 0..p {
            let part: Vec<Value> = it.by_ref().take(chunk).collect();
            parts.push(part);
        }
        Dataset::from_materialized(ctx, parts)
    }

    /// Builds a dataset from explicit pre-built partitions, preserving
    /// their number and sizes exactly — the way to construct deliberately
    /// skewed inputs for scheduler benchmarks and tests. The partition
    /// list must not be empty (an empty *partition* is fine).
    pub fn from_partitions(ctx: Context, parts: Vec<Vec<Value>>) -> Dataset {
        assert!(!parts.is_empty(), "need at least one partition");
        Dataset::from_materialized(ctx, parts)
    }

    /// Builds the dataset `{lo, ..., hi}` of longs, range-partitioned.
    pub fn range(ctx: Context, lo: i64, hi: i64) -> Dataset {
        let p = ctx.partitions() as i64;
        let n = (hi - lo + 1).max(0);
        let chunk = (n + p - 1) / p.max(1);
        let mut parts = Vec::with_capacity(p as usize);
        for i in 0..p {
            let start = lo + i * chunk;
            let end = (start + chunk - 1).min(hi);
            if start > hi {
                parts.push(Vec::new());
            } else {
                parts.push((start..=end).map(Value::Long).collect());
            }
        }
        Dataset::from_materialized(ctx, parts)
    }

    /// Wraps already-materialized partitions (internal): the plan is a
    /// `Scan`, so forcing is free.
    fn from_materialized(ctx: Context, parts: Vec<Vec<Value>>) -> Dataset {
        Dataset::from_shared_parts(ctx, Arc::new(parts))
    }

    /// Wraps **shared** already-materialized partitions without copying a
    /// row. The serving layer holds each named dataset as one
    /// `Arc<Vec<Vec<Value>>>` and hands every concurrent request a view
    /// over the same allocation; requests never clone the base data, only
    /// the `Arc`. The partition list must not be empty. Base data is
    /// never entered into the dataset cache — a `Scan` plan reads it
    /// directly.
    pub fn from_shared_parts(ctx: Context, parts: Arc<Vec<Vec<Value>>>) -> Dataset {
        assert!(!parts.is_empty(), "need at least one partition");
        let slot = Arc::new(crate::dscache::CacheSlot::new(ctx.dataset_cache().clone()));
        Dataset {
            ctx,
            plan: Arc::new(PlanOp::Scan(parts)),
            slot,
        }
    }

    /// Test-only hook: a dataset over a deliberately **malformed plan** —
    /// a zero-partition `Scan`, a shape the public constructors assert
    /// away — so integration tests can prove the plan verifier catches
    /// corrupt plans with a structured error instead of failing obscurely
    /// downstream. Hidden from docs; never use outside tests.
    #[doc(hidden)]
    pub fn malformed_zero_partition_scan_for_tests(ctx: Context) -> Dataset {
        let slot = Arc::new(crate::dscache::CacheSlot::new(ctx.dataset_cache().clone()));
        Dataset {
            ctx,
            plan: Arc::new(PlanOp::Scan(Arc::new(Vec::new()))),
            slot,
        }
    }

    /// A content fingerprint: FNV-1a 64 over the rows' canonical binary
    /// encoding ([`crate::encode_value`]) in cross-partition iteration
    /// order. Deliberately **partition-boundary independent** — the same
    /// bag split 2 ways or 8 ways fingerprints equal, so a cache key built
    /// on it survives repartitioning. Forces the dataset if still lazy;
    /// any append/update yields a new fingerprint, which is how the serve
    /// cache versions its inputs.
    pub fn fingerprint(&self) -> Result<u64> {
        let parts = self.force()?;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut buf = Vec::new();
        for part in parts.iter() {
            for row in part {
                buf.clear();
                crate::exchange::encode_value(row, &mut buf)?;
                for b in &buf {
                    hash ^= u64::from(*b);
                    hash = hash.wrapping_mul(0x1_0000_01b3);
                }
            }
        }
        Ok(hash)
    }

    /// The plan downstream consumers should build on: once this dataset
    /// has been forced, a [`PlanOp::Cached`] barrier over its cache slot
    /// stands in for the original chain, so no operator re-executes an
    /// already-materialized upstream while the entry is resident — yet
    /// the cache can still evict the entry (the barrier carries the
    /// lineage to recompute it). An unforced dataset hands out its raw
    /// plan so narrow chains keep fusing across the derivation.
    fn effective_plan(&self) -> Arc<PlanOp> {
        if !matches!(self.plan.as_ref(), PlanOp::Scan(_))
            && self.ctx.dataset_cache().contains(self.slot.id())
        {
            Arc::new(PlanOp::Cached(self.slot.clone(), self.plan.clone()))
        } else {
            self.plan.clone()
        }
    }

    /// A new dataset one plan node deeper (internal).
    fn derived(&self, op: PlanOp) -> Dataset {
        let slot = Arc::new(crate::dscache::CacheSlot::new(
            self.ctx.dataset_cache().clone(),
        ));
        Dataset {
            ctx: self.ctx.clone(),
            plan: Arc::new(op),
            slot,
        }
    }

    /// The source-statement tag for plan nodes built right now.
    fn tag(&self) -> plan::Tag {
        self.ctx.statement_label()
    }

    /// Executes the pending plan (fusing the narrow chain into one
    /// physical stage per segment) and enters the partitions into the
    /// context's dataset cache. A cache hit skips execution; base data
    /// (`Scan` plans) bypasses the cache — it is already materialized and
    /// the cache could only evict what the plan holds anyway.
    pub(crate) fn force(&self) -> Result<Arc<Vec<Vec<Value>>>> {
        if matches!(self.plan.as_ref(), PlanOp::Scan(_)) {
            return Ok(plan::materialize(&self.ctx, &self.plan)?.into_arc());
        }
        let cache = self.ctx.dataset_cache().clone();
        if let Some(p) = cache.get(self.slot.id(), &self.ctx)? {
            return Ok(p);
        }
        let parts = plan::materialize(&self.ctx, &self.plan)?.into_arc();
        cache.insert(self.slot.id(), parts.clone(), &self.ctx)?;
        Ok(parts)
    }

    /// Forces the pending plan now, surfacing any deferred operator error,
    /// and returns a handle to the (now materialized) dataset.
    pub fn materialize(&self) -> Result<Dataset> {
        self.force()?;
        Ok(self.clone())
    }

    /// Eagerly releases this dataset's entry in the context's dataset
    /// cache — memory or disk — the engine's equivalent of Spark's
    /// `unpersist()`. The dataset stays usable: the next read recomputes
    /// from its plan (and re-enters the cache). A no-op when nothing is
    /// cached.
    pub fn unpersist(&self) {
        self.ctx.dataset_cache().remove(self.slot.id());
    }

    /// Renders the pending physical plan (the chains a materialization
    /// point would fuse) as text.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        plan::render(&self.effective_plan(), 0, &mut out);
        out
    }

    /// The engine context this dataset belongs to.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// True when the pending plan bottoms out in a `union` that has not
    /// been materialized — the case where reads stream the operands in
    /// place instead of building combined partitions.
    fn union_pending(&self) -> bool {
        !self.ctx.dataset_cache().contains(self.slot.id())
            && matches!(
                plan::collapse(&self.plan).base.as_ref(),
                PlanOp::Union(_, _)
            )
    }

    /// Number of rows.
    ///
    /// # Panics
    /// Panics if a pending operator in the plan fails; see
    /// [`Dataset::try_collect`].
    pub fn count(&self) -> usize {
        if self.union_pending() {
            // Count through the segmented read: no operand is copied, no
            // combined partitions are built.
            let counts =
                plan::consume(&self.ctx, &self.plan, "count (read in place)", |_, rows| {
                    let mut n = 0usize;
                    rows.for_each(&mut |_| {
                        n += 1;
                        Ok(())
                    })?;
                    Ok(n)
                })
                .expect("dataset materialization failed");
            return counts.into_iter().sum();
        }
        self.force()
            .expect("dataset materialization failed")
            .iter()
            .map(Vec::len)
            .sum()
    }

    /// Estimated serialized size of all rows, in bytes (sampled).
    ///
    /// # Panics
    /// Panics if a pending operator in the plan fails.
    pub fn estimated_bytes(&self) -> u64 {
        estimate_bytes(&self.force().expect("dataset materialization failed"))
    }

    /// Materializes all rows in partition order.
    ///
    /// # Panics
    /// Panics if a pending operator in the plan fails; see
    /// [`Dataset::try_collect`].
    pub fn collect(&self) -> Vec<Value> {
        self.try_collect().expect("dataset materialization failed")
    }

    /// Materializes all rows in partition order, surfacing deferred
    /// operator errors.
    ///
    /// A plan bottoming out in an unforced `union` is streamed straight
    /// out of the engine's segmented read: each surviving row is cloned
    /// exactly once, into the output — combined partitions are never
    /// built (and nothing is cached; the shared operands are re-read in
    /// place if collected again).
    pub fn try_collect(&self) -> Result<Vec<Value>> {
        if self.union_pending() {
            let parts = plan::consume(
                &self.ctx,
                &self.plan,
                "collect (read in place)",
                |_, rows| {
                    let mut out = Vec::new();
                    rows.for_each(&mut |v| {
                        out.push(v);
                        Ok(())
                    })?;
                    Ok(out)
                },
            )?;
            return Ok(parts.into_iter().flatten().collect());
        }
        let parts = self.force()?;
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for p in parts.iter() {
            out.extend(p.iter().cloned());
        }
        Ok(out)
    }

    /// Materializes all rows sorted (for deterministic comparisons).
    ///
    /// # Panics
    /// Panics if a pending operator in the plan fails.
    pub fn collect_sorted(&self) -> Vec<Value> {
        let mut rows = self.collect();
        rows.sort();
        rows
    }

    /// Shares the whole dataset with every task — Spark's broadcast.
    pub fn broadcast(&self) -> Result<Arc<Vec<Value>>> {
        let rows = self.try_collect()?;
        self.ctx.stats().record_broadcast(rows.len() as u64);
        self.ctx
            .plan_note(format!("broadcast: {} rows to all workers", rows.len()));
        Ok(Arc::new(rows))
    }

    // ------------------------------------------------------------- narrow

    /// Applies `f` to every row (lazy: appends a plan node).
    pub fn map<F>(&self, f: F) -> Result<Dataset>
    where
        F: Fn(&Value) -> Result<Value> + Send + Sync + 'static,
    {
        self.ctx.record_logical_op();
        Ok(self.derived(PlanOp::Map(
            self.effective_plan(),
            Arc::new(f),
            self.tag(),
            None,
        )))
    }

    /// Applies a **transparent** row expression to every row (lazy). The
    /// closure the engine runs is derived from `expr`, and the expression
    /// itself rides the plan node — so the engine can lower this step to
    /// per-column inner loops, with results exactly those of
    /// [`Dataset::map`].
    pub fn map_expr(&self, expr: crate::RowExpr) -> Result<Dataset> {
        self.ctx.record_logical_op();
        let expr = Arc::new(expr);
        let f = {
            let expr = expr.clone();
            move |row: &Value| expr.eval(row)
        };
        Ok(self.derived(PlanOp::Map(
            self.effective_plan(),
            Arc::new(f),
            self.tag(),
            Some(expr),
        )))
    }

    /// Applies `f` to every row, flattening the results (lazy).
    pub fn flat_map<F>(&self, f: F) -> Result<Dataset>
    where
        F: Fn(&Value) -> Result<Vec<Value>> + Send + Sync + 'static,
    {
        self.ctx.record_logical_op();
        Ok(self.derived(PlanOp::FlatMap(
            self.effective_plan(),
            Arc::new(f),
            self.tag(),
        )))
    }

    /// Keeps the rows satisfying `f` (lazy).
    pub fn filter<F>(&self, f: F) -> Result<Dataset>
    where
        F: Fn(&Value) -> Result<bool> + Send + Sync + 'static,
    {
        self.ctx.record_logical_op();
        Ok(self.derived(PlanOp::Filter(
            self.effective_plan(),
            Arc::new(f),
            self.tag(),
            None,
        )))
    }

    /// Keeps the rows satisfying a **transparent** predicate expression
    /// (lazy) — the filter counterpart of [`Dataset::map_expr`]. The
    /// expression must evaluate to a boolean per row; anything else is
    /// the usual `condition must be boolean` error.
    pub fn filter_expr(&self, expr: crate::RowExpr) -> Result<Dataset> {
        self.ctx.record_logical_op();
        let expr = Arc::new(expr);
        let f = {
            let expr = expr.clone();
            move |row: &Value| match expr.eval(row)? {
                Value::Bool(b) => Ok(b),
                _ => Err(RuntimeError::new("condition must be boolean")),
            }
        };
        Ok(self.derived(PlanOp::Filter(
            self.effective_plan(),
            Arc::new(f),
            self.tag(),
            Some(expr),
        )))
    }

    /// Partition-at-a-time transformation (Spark's `mapPartitions`; lazy).
    pub fn map_partitions<F>(&self, f: F) -> Result<Dataset>
    where
        F: Fn(&[Value]) -> Result<Vec<Value>> + Send + Sync + 'static,
    {
        self.ctx.record_logical_op();
        Ok(self.derived(PlanOp::MapPartitions(
            self.effective_plan(),
            Arc::new(f),
            "map_partitions",
            self.tag(),
        )))
    }

    /// Bag union (no dedup), preserving the left side's partition count.
    ///
    /// Lazy and narrow: it moves no data, runs no parallel stage, and the
    /// engine reads both operands in place via segments — including for
    /// a bare `collect`, which streams the rows without ever building
    /// combined partitions.
    pub fn union(&self, other: &Dataset) -> Dataset {
        self.ctx.record_logical_op();
        self.derived(PlanOp::Union(self.effective_plan(), other.effective_plan()))
    }

    /// Total reduction with a binary combiner: fused per-partition folds
    /// (including any pending narrow chain) followed by a driver-side fold
    /// over partial results (Spark's `reduce`). Returns `None` on an empty
    /// dataset.
    pub fn reduce<F>(&self, f: F) -> Result<Option<Value>>
    where
        F: Fn(&Value, &Value) -> Result<Value> + Sync,
    {
        self.ctx.record_logical_op();
        let f = &f;
        let partials = plan::consume(
            &self.ctx,
            &self.effective_plan(),
            "reduce (partial fold)",
            |_, rows| {
                let mut acc: Option<Value> = None;
                rows.for_each(&mut |row| {
                    acc = Some(match acc.take() {
                        None => row,
                        Some(a) => f(&a, &row)?,
                    });
                    Ok(())
                })?;
                Ok(acc)
            },
        )?;
        let mut acc: Option<Value> = None;
        for p in partials.into_iter().flatten() {
            acc = Some(match acc {
                None => p,
                Some(a) => f(&a, &p)?,
            });
        }
        Ok(acc)
    }

    // ------------------------------------------------------------ shuffles

    /// Hash-partitions `(key, value)` rows by key — the raw shuffle. The
    /// scatter pass fuses the pending narrow chain, so a chain ending in a
    /// shuffle costs exactly one pass over the source rows. Returns per-destination buckets with
    /// deterministic row order.
    fn shuffle(&self, label: &str) -> Result<Vec<Vec<Value>>> {
        plan::shuffle_by(&self.ctx, &self.effective_plan(), label, &HashPartitioner)
    }

    /// Wraps gathered shuffle buckets in a lazy partition-wise stage: the
    /// post-shuffle work becomes a pending plan node that fuses with
    /// whatever consumes it next (shuffle-read fusion).
    fn post_shuffle(&self, dest: Vec<Vec<Value>>, f: PartFn, label: &'static str) -> Dataset {
        self.derived(PlanOp::MapPartitions(
            Arc::new(PlanOp::Scan(Arc::new(dest))),
            f,
            label,
            self.tag(),
        ))
    }

    /// Re-partitions `(key, value)` rows by key hash.
    pub fn partition_by_key(&self) -> Result<Dataset> {
        self.ctx.record_logical_op();
        let dest = self.shuffle("partition_by_key (scatter)")?;
        Ok(Dataset::from_materialized(self.ctx.clone(), dest))
    }

    /// Re-partitions `(key, value)` rows with a pluggable
    /// [`Partitioner`](crate::Partitioner) — e.g. a
    /// [`RangePartitioner`](crate::RangePartitioner) keeps ordered keys in
    /// contiguous buckets so locally sorted partitions concatenate into
    /// globally sorted output.
    pub fn partition_by(&self, partitioner: &dyn crate::Partitioner) -> Result<Dataset> {
        self.ctx.record_logical_op();
        let dest = plan::shuffle_by(
            &self.ctx,
            &self.effective_plan(),
            "partition_by (scatter)",
            partitioner,
        )?;
        Ok(Dataset::from_materialized(self.ctx.clone(), dest))
    }

    /// `reduceByKey`: combines values of equal keys with `f`, using
    /// map-side combining before the shuffle. Rows must be `(key, value)`
    /// pairs; the output has one `(key, combined)` row per distinct key.
    ///
    /// The pending narrow chain, the map-side combine, and the scatter all
    /// run in **one** fused physical stage. The post-shuffle reduction is
    /// lazy: it runs inside whatever stage consumes this dataset next, so
    /// `reduce_by_key → map → shuffle` costs two physical stages, not
    /// three.
    pub fn reduce_by_key<F>(&self, f: F) -> Result<Dataset>
    where
        F: Fn(&Value, &Value) -> Result<Value> + Send + Sync + 'static,
    {
        if self.ctx.ordered() {
            return self.sorted_reduce_by_key(f);
        }
        self.ctx.record_logical_op();
        let p = self.ctx.partitions();
        let f = Arc::new(f);
        let fc = &f;
        // Map-side combine, then stream the combined pairs straight into
        // the exchange sink: no all-partitions bucket matrix is ever
        // built, and buckets past the memory budget spill to disk.
        let dest = plan::exchange(
            &self.ctx,
            &self.effective_plan(),
            "reduce_by_key (combine + scatter)",
            |_, rows, sink| {
                let mut acc: HashMap<Value, Value> = HashMap::new();
                let mut order: Vec<Value> = Vec::new();
                rows.for_each(&mut |row| {
                    let (k, v) = key_value(&row)?;
                    match acc.get_mut(&k) {
                        Some(cur) => *cur = fc(cur, &v)?,
                        None => {
                            order.push(k.clone());
                            acc.insert(k, v);
                        }
                    }
                    Ok(())
                })?;
                for k in order {
                    let v = acc.remove(&k).expect("combined");
                    let b = HashPartitioner.partition(&k, p)?;
                    sink.emit(b, Value::pair(k, v))?;
                }
                Ok(())
            },
        )?;
        let reduce_fn: PartFn = Arc::new(move |bucket: &[Value]| {
            let mut acc: HashMap<Value, Value> = HashMap::new();
            let mut order: Vec<Value> = Vec::new();
            for row in bucket {
                let (k, v) = key_value(row)?;
                match acc.get_mut(&k) {
                    Some(cur) => *cur = f(cur, &v)?,
                    None => {
                        order.push(k.clone());
                        acc.insert(k, v);
                    }
                }
            }
            Ok(order
                .into_iter()
                .map(|k| {
                    let v = acc.remove(&k).expect("reduced");
                    Value::pair(k, v)
                })
                .collect::<Vec<_>>())
        });
        Ok(self.post_shuffle(dest, reduce_fn, "reduce_by_key (reduce)"))
    }

    /// `groupByKey`: shuffles `(key, value)` rows and produces one
    /// `(key, bag-of-values)` row per distinct key. The grouping stage is
    /// lazy and fuses with the next consumer.
    pub fn group_by_key(&self) -> Result<Dataset> {
        if self.ctx.ordered() {
            return self.sorted_group_by_key();
        }
        self.ctx.record_logical_op();
        let dest = self.shuffle("group_by_key (scatter)")?;
        let group_fn: PartFn = Arc::new(|bucket: &[Value]| {
            let mut groups: HashMap<Value, Vec<Value>> = HashMap::new();
            let mut order: Vec<Value> = Vec::new();
            for row in bucket {
                let (k, v) = key_value(row)?;
                match groups.get_mut(&k) {
                    Some(g) => g.push(v),
                    None => {
                        order.push(k.clone());
                        groups.insert(k, vec![v]);
                    }
                }
            }
            Ok(order
                .into_iter()
                .map(|k| {
                    let vs = groups.remove(&k).expect("grouped");
                    Value::pair(k, Value::bag(vs))
                })
                .collect::<Vec<_>>())
        });
        Ok(self.post_shuffle(dest, group_fn, "group_by_key (group)"))
    }

    /// Zips two shuffled bucket lists into encoded single-row partitions
    /// `(bag(left), bag(right))` — the input of a lazy two-sided
    /// post-shuffle stage (internal).
    fn zip_buckets(left: Vec<Vec<Value>>, right: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        left.into_iter()
            .zip(right)
            .map(|(l, r)| vec![Value::pair(Value::bag(l), Value::bag(r))])
            .collect()
    }

    /// Decodes one `zip_buckets` partition back into its two sides.
    fn unzip_bucket(part: &[Value]) -> Result<(&[Value], &[Value])> {
        let [row] = part else {
            return Err(RuntimeError::new("corrupt two-sided shuffle partition"));
        };
        let fields = row
            .as_tuple()
            .filter(|t| t.len() == 2)
            .ok_or_else(|| RuntimeError::new("corrupt two-sided shuffle row"))?;
        match (fields[0].as_bag(), fields[1].as_bag()) {
            (Some(l), Some(r)) => Ok((l, r)),
            _ => Err(RuntimeError::new("corrupt two-sided shuffle bags")),
        }
    }

    /// `cogroup`: for each key present on either side, produces
    /// `(key, (left-bag, right-bag))`. Both scatters are eager; the
    /// grouping stage is lazy and fuses with the next consumer (which is
    /// how a `join`'s pair expansion and the map after it run in the
    /// grouping's stage).
    pub fn cogroup(&self, other: &Dataset) -> Result<Dataset> {
        if self.ctx.ordered() {
            return self.sorted_cogroup(other);
        }
        self.ctx.record_logical_op();
        let left = self.shuffle("cogroup (scatter left)")?;
        let right = other.shuffle("cogroup (scatter right)")?;
        let co_fn: PartFn = Arc::new(|part: &[Value]| {
            let (l, r) = Dataset::unzip_bucket(part)?;
            let mut groups: HashMap<Value, (Vec<Value>, Vec<Value>)> = HashMap::new();
            let mut order: Vec<Value> = Vec::new();
            for row in l {
                let (k, v) = key_value(row)?;
                match groups.get_mut(&k) {
                    Some(g) => g.0.push(v),
                    None => {
                        order.push(k.clone());
                        groups.insert(k, (vec![v], Vec::new()));
                    }
                }
            }
            for row in r {
                let (k, v) = key_value(row)?;
                match groups.get_mut(&k) {
                    Some(g) => g.1.push(v),
                    None => {
                        order.push(k.clone());
                        groups.insert(k, (Vec::new(), vec![v]));
                    }
                }
            }
            Ok(order
                .into_iter()
                .map(|k| {
                    let (lv, rv) = groups.remove(&k).expect("cogrouped");
                    Value::pair(k, Value::pair(Value::bag(lv), Value::bag(rv)))
                })
                .collect::<Vec<_>>())
        });
        Ok(self.post_shuffle(
            Dataset::zip_buckets(left, right),
            co_fn,
            "cogroup (group both sides)",
        ))
    }

    /// Inner equi-join on `(key, value)` rows: produces
    /// `(key, (left, right))` for every matching pair. The pair expansion
    /// is lazy, so a `map` after a join fuses with it.
    pub fn join(&self, other: &Dataset) -> Result<Dataset> {
        let co = self.cogroup(other)?;
        co.flat_map(|row| {
            let (k, bags) = key_value(row)?;
            let fields = bags
                .as_tuple()
                .ok_or_else(|| RuntimeError::new("cogroup row shape"))?;
            let (Some(ls), Some(rs)) = (fields[0].as_bag(), fields[1].as_bag()) else {
                return Err(RuntimeError::new("cogroup bags"));
            };
            let mut out = Vec::with_capacity(ls.len() * rs.len());
            for l in ls {
                for r in rs {
                    out.push(Value::pair(k.clone(), Value::pair(l.clone(), r.clone())));
                }
            }
            Ok(out)
        })
    }

    /// The array merge `self ⊳ updates` (§3.4), implemented as a cogroup.
    ///
    /// With `combine = None`, colliding keys take the update value
    /// (right-biased, the paper's `⊳`). With `combine = Some(f)`, colliding
    /// keys become `f(old, new)` — the merge form used for incremental
    /// updates `d ⊕= e` (§3.7); duplicate update keys are also combined
    /// with `f` first.
    ///
    /// Both scatters are eager; the slot-combining stage is lazy, so the
    /// merged array fuses into whatever reads it next.
    pub fn merge<F>(&self, updates: &Dataset, combine: Option<F>) -> Result<Dataset>
    where
        F: Fn(&Value, &Value) -> Result<Value> + Send + Sync + 'static,
    {
        if self.ctx.ordered() {
            return self.sorted_merge(updates, combine);
        }
        self.ctx.record_logical_op();
        let old = self.shuffle("merge (scatter old)")?;
        let new = updates.shuffle("merge (scatter updates)")?;
        let merge_fn: PartFn = Arc::new(move |part: &[Value]| {
            let (olds, news) = Dataset::unzip_bucket(part)?;
            // Old side: arrays have unique keys; keep the last if not.
            let mut slots: HashMap<Value, Value> = HashMap::with_capacity(olds.len());
            let mut order: Vec<Value> = Vec::with_capacity(olds.len());
            for row in olds {
                let (k, v) = key_value(row)?;
                if slots.insert(k.clone(), v).is_none() {
                    order.push(k);
                }
            }
            for row in news {
                let (k, v) = key_value(row)?;
                match slots.get_mut(&k) {
                    Some(cur) => {
                        *cur = match &combine {
                            Some(f) => f(cur, &v)?,
                            None => v,
                        };
                    }
                    None => {
                        order.push(k.clone());
                        slots.insert(k, v);
                    }
                }
            }
            Ok(order
                .into_iter()
                .map(|k| {
                    let v = slots.remove(&k).expect("merged");
                    Value::pair(k, v)
                })
                .collect::<Vec<_>>())
        });
        Ok(self.post_shuffle(
            Dataset::zip_buckets(old, new),
            merge_fn,
            "merge ⊳ (combine slots)",
        ))
    }

    // -------------------------------------------------- sorted shuffles

    /// Per-source key-sorted rows for a sort-based shuffle: one fused
    /// stage runs the pending narrow chain, validates the `(key, value)`
    /// shape in canonical row order (so first errors match the hash
    /// path's scatter), applies the optional map-side combiner, and
    /// stably sorts each source partition by key.
    fn sorted_sources(
        &self,
        label: &str,
        combine: Option<CombineRef<'_>>,
    ) -> Result<Vec<Vec<Value>>> {
        plan::consume(&self.ctx, &self.effective_plan(), label, |_, rows| {
            let mut out: Vec<Value> = Vec::new();
            match combine {
                Some(f) => {
                    let mut acc: HashMap<Value, Value> = HashMap::new();
                    rows.for_each(&mut |row| {
                        let (k, v) = key_value(&row)?;
                        match acc.get_mut(&k) {
                            Some(cur) => *cur = f(cur, &v)?,
                            None => {
                                acc.insert(k, v);
                            }
                        }
                        Ok(())
                    })?;
                    // Combined keys are unique, so the key sort below
                    // fully determines the order — no need to track
                    // first-seen order like the hash-path combiner.
                    out.extend(acc.into_iter().map(|(k, v)| Value::pair(k, v)));
                }
                None => {
                    rows.for_each(&mut |row| {
                        key_value(&row)?;
                        out.push(row);
                        Ok(())
                    })?;
                }
            }
            out.sort_by(|a, b| pair_key(a).cmp(pair_key(b)));
            Ok(out)
        })
    }

    /// Range bounds sampled from key-sorted sources: up to 64 evenly
    /// spaced keys per source (quantile-ish, since the rows are sorted)
    /// plus each source's maximum. Deterministic, so every engine setting
    /// and budget derives identical bounds.
    fn sample_partitioner<'a>(
        sources: impl Iterator<Item = &'a Vec<Value>>,
        partitions: usize,
    ) -> RangePartitioner {
        const KEYS_PER_SOURCE: usize = 64;
        let mut sample: Vec<Value> = Vec::new();
        for rows in sources {
            let Some(last) = rows.last() else { continue };
            let stride = rows.len().div_ceil(KEYS_PER_SOURCE).max(1);
            sample.extend(rows.iter().step_by(stride).map(|r| pair_key(r).clone()));
            sample.push(pair_key(last).clone());
        }
        RangePartitioner::from_sample(sample, partitions)
    }

    /// Range-scatters key-sorted sources through a key-ordered exchange; the merged buckets come back globally
    /// key-sorted and contiguous, so concatenating them in partition
    /// order yields totally key-ordered output.
    fn sorted_shuffle(
        &self,
        sources: Vec<Vec<Value>>,
        partitioner: &RangePartitioner,
        label: &str,
    ) -> Result<Vec<Vec<Value>>> {
        self.ctx.plan_note(format!(
            "sorted shuffle ({label}): {} partitioner, {} sampled bound(s) over {} buckets",
            Partitioner::name(partitioner),
            partitioner.bounds().len(),
            self.ctx.partitions()
        ));
        plan::exchange_sorted(&self.ctx, sources, partitioner)
    }

    /// Sort-based `reduceByKey`: combines values of equal keys like
    /// [`Dataset::reduce_by_key`], but samples the combined keys, range-
    /// scatters through a key-ordered exchange, and merge-reduces each
    /// (already key-sorted) bucket in one linear scan — no hash map on
    /// the read side. The output is **globally key-ordered**: partitions
    /// hold contiguous key ranges in ascending order, and each partition
    /// is sorted. Same `(key, combined)` multiset as the hash path.
    ///
    /// The combine+sort pass and the lazy merge-reduce are the only two
    /// physical stages — shuffle-read fusion works exactly as on the hash
    /// path, so `sorted_reduce_by_key → map → collect` is 2 stages.
    pub fn sorted_reduce_by_key<F>(&self, f: F) -> Result<Dataset>
    where
        F: Fn(&Value, &Value) -> Result<Value> + Send + Sync + 'static,
    {
        self.ctx.record_logical_op();
        let f = Arc::new(f);
        let sources = self.sorted_sources(
            "sorted_reduce_by_key (combine + sort)",
            Some(&|a: &Value, b: &Value| f(a, b)),
        )?;
        let part = Dataset::sample_partitioner(sources.iter(), self.ctx.partitions());
        let dest = self.sorted_shuffle(sources, &part, "sorted_reduce_by_key (range scatter)")?;
        let reduce_fn: PartFn = Arc::new(move |bucket: &[Value]| {
            let mut out: Vec<Value> = Vec::new();
            Dataset::for_each_key_run(bucket, |k, vs| {
                let mut it = vs.into_iter();
                let mut acc = it.next().expect("non-empty key run");
                for v in it {
                    acc = f(&acc, &v)?;
                }
                out.push(Value::pair(k, acc));
                Ok(())
            })?;
            Ok(out)
        });
        Ok(self.post_shuffle(
            dest,
            reduce_fn,
            "sorted_reduce_by_key (merge-reduce, range)",
        ))
    }

    /// Sort-based `groupByKey`: like [`Dataset::group_by_key`], but the
    /// output is globally key-ordered and each bag keeps the hash path's
    /// value order (source-partition order, then emission order) — equal
    /// keys ride through the ordered exchange in `(source, sequence,
    /// emission)` order. Grouping is one linear scan over each key-sorted
    /// bucket, lazy and fused with the next consumer.
    pub fn sorted_group_by_key(&self) -> Result<Dataset> {
        self.ctx.record_logical_op();
        let sources = self.sorted_sources("sorted_group_by_key (sort)", None)?;
        let part = Dataset::sample_partitioner(sources.iter(), self.ctx.partitions());
        let dest = self.sorted_shuffle(sources, &part, "sorted_group_by_key (range scatter)")?;
        let group_fn: PartFn = Arc::new(|bucket: &[Value]| {
            let mut out: Vec<Value> = Vec::new();
            Dataset::for_each_key_run(bucket, |k, vs| {
                out.push(Value::pair(k, Value::bag(vs)));
                Ok(())
            })?;
            Ok(out)
        });
        Ok(self.post_shuffle(dest, group_fn, "sorted_group_by_key (merge-group, range)"))
    }

    /// Scans a key-sorted bucket as `(key, value-run)` groups, calling
    /// `emit` once per distinct key with the values in bucket order —
    /// the one state machine behind every sorted post-shuffle stage.
    fn for_each_key_run(
        rows: &[Value],
        mut emit: impl FnMut(Value, Vec<Value>) -> Result<()>,
    ) -> Result<()> {
        let mut i = 0usize;
        while i < rows.len() {
            let (k, _) = key_value(&rows[i])?;
            let mut vs = Vec::new();
            Dataset::take_key_run(rows, &mut i, &k, &mut vs)?;
            emit(k, vs)?;
        }
        Ok(())
    }

    /// Advances `rows[*i]` past every pair whose key equals `key`,
    /// collecting the values — one group of a merge-join scan.
    fn take_key_run(
        rows: &[Value],
        i: &mut usize,
        key: &Value,
        out: &mut Vec<Value>,
    ) -> Result<()> {
        while *i < rows.len() {
            let (k, v) = key_value(&rows[*i])?;
            if k != *key {
                break;
            }
            out.push(v);
            *i += 1;
        }
        Ok(())
    }

    /// The smaller of the two cursors' keys — the next key a merge-join
    /// scan over two key-sorted sides emits.
    fn next_merge_key(l: Option<&Value>, r: Option<&Value>) -> Result<Value> {
        match (l, r) {
            (Some(a), Some(b)) => {
                let (ka, kb) = (pair_key(a), pair_key(b));
                Ok(if ka <= kb { ka.clone() } else { kb.clone() })
            }
            (Some(a), None) => Ok(pair_key(a).clone()),
            (None, Some(b)) => Ok(pair_key(b).clone()),
            (None, None) => Err(RuntimeError::new("merge-join scan past both sides")),
        }
    }

    /// Sort-based `cogroup`: same `(key, (left-bag, right-bag))` rows as
    /// [`Dataset::cogroup`] (bags included, value-for-value), emitted in
    /// global key order. Both sides range-scatter with **one shared**
    /// sampled partitioner so their buckets align; the grouping stage is
    /// a lazy merge-join over the two key-sorted sides.
    pub fn sorted_cogroup(&self, other: &Dataset) -> Result<Dataset> {
        self.ctx.record_logical_op();
        let left = self.sorted_sources("sorted_cogroup (sort left)", None)?;
        let right = other.sorted_sources("sorted_cogroup (sort right)", None)?;
        let part =
            Dataset::sample_partitioner(left.iter().chain(right.iter()), self.ctx.partitions());
        let ldest = self.sorted_shuffle(left, &part, "sorted_cogroup (range scatter left)")?;
        let rdest = self.sorted_shuffle(right, &part, "sorted_cogroup (range scatter right)")?;
        let co_fn: PartFn = Arc::new(|part: &[Value]| {
            let (l, r) = Dataset::unzip_bucket(part)?;
            let mut out: Vec<Value> = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < l.len() || j < r.len() {
                let k = Dataset::next_merge_key(l.get(i), r.get(j))?;
                let mut lv = Vec::new();
                Dataset::take_key_run(l, &mut i, &k, &mut lv)?;
                let mut rv = Vec::new();
                Dataset::take_key_run(r, &mut j, &k, &mut rv)?;
                out.push(Value::pair(k, Value::pair(Value::bag(lv), Value::bag(rv))));
            }
            Ok(out)
        });
        Ok(self.post_shuffle(
            Dataset::zip_buckets(ldest, rdest),
            co_fn,
            "sorted_cogroup (merge-join, range)",
        ))
    }

    /// Sort-based array merge `self ⊳ updates`: the same per-key slot
    /// values as [`Dataset::merge`] (replace on `None`, fold with `f` on
    /// `Some` — duplicate update keys folded in emission order), emitted
    /// in global key order via a merge-join over the two key-sorted,
    /// range-aligned sides.
    pub fn sorted_merge<F>(&self, updates: &Dataset, combine: Option<F>) -> Result<Dataset>
    where
        F: Fn(&Value, &Value) -> Result<Value> + Send + Sync + 'static,
    {
        self.ctx.record_logical_op();
        let old = self.sorted_sources("sorted merge ⊳ (sort old)", None)?;
        let new = updates.sorted_sources("sorted merge ⊳ (sort updates)", None)?;
        let part = Dataset::sample_partitioner(old.iter().chain(new.iter()), self.ctx.partitions());
        let odest = self.sorted_shuffle(old, &part, "sorted merge ⊳ (range scatter old)")?;
        let ndest = self.sorted_shuffle(new, &part, "sorted merge ⊳ (range scatter updates)")?;
        let merge_fn: PartFn = Arc::new(move |part: &[Value]| {
            let (olds, news) = Dataset::unzip_bucket(part)?;
            let mut out: Vec<Value> = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < olds.len() || j < news.len() {
                let k = Dataset::next_merge_key(olds.get(i), news.get(j))?;
                let mut ov = Vec::new();
                Dataset::take_key_run(olds, &mut i, &k, &mut ov)?;
                // Old side: arrays have unique keys; keep the last if not.
                let mut slot = ov.pop();
                let mut nv = Vec::new();
                Dataset::take_key_run(news, &mut j, &k, &mut nv)?;
                for v in nv {
                    slot = Some(match (&slot, &combine) {
                        (Some(cur), Some(f)) => f(cur, &v)?,
                        _ => v,
                    });
                }
                out.push(Value::pair(k, slot.expect("at least one side")));
            }
            Ok(out)
        });
        Ok(self.post_shuffle(
            Dataset::zip_buckets(odest, ndest),
            merge_fn,
            "sorted merge ⊳ (merge-join slots, range)",
        ))
    }

    /// Pairwise partition zip (Spark's `zipPartitions`) — requires equal
    /// partition counts; used by the tiled-matrix path (§5), which keeps
    /// operand tilings aligned to avoid shuffles. Forces both sides.
    pub fn zip_partitions<F>(&self, other: &Dataset, f: F) -> Result<Dataset>
    where
        F: Fn(&[Value], &[Value]) -> Result<Vec<Value>> + Sync,
    {
        let a = self.force()?;
        let b = other.force()?;
        if a.len() != b.len() {
            return Err(RuntimeError::new(
                "zip_partitions requires equal partition counts",
            ));
        }
        self.ctx.record_logical_op();
        self.ctx.record_physical_stage();
        let stage = self.ctx.stats().snapshot().physical_stages;
        self.ctx.plan_note(format!(
            "stage {stage}: zip_partitions over {} partitions",
            a.len()
        ));
        let pairs: Vec<(&Vec<Value>, &Vec<Value>)> = a.iter().zip(b.iter()).collect();
        let parts = run_stage(&self.ctx, &pairs, |_, (x, y)| f(x, y))?;
        Ok(Dataset::from_materialized(self.ctx.clone(), parts))
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shape = match self.plan.as_ref() {
            // Base data is never cached; its shape is on the plan itself.
            PlanOp::Scan(parts) => Some((parts.len(), parts.iter().map(Vec::len).sum::<usize>())),
            _ => self.ctx.dataset_cache().shape(self.slot.id()),
        };
        match shape {
            Some((partitions, rows)) => f
                .debug_struct("Dataset")
                .field("partitions", &partitions)
                .field("rows", &rows)
                .finish(),
            None => f
                .debug_struct("Dataset")
                .field("plan", &self.explain())
                .finish(),
        }
    }
}

/// Sampled byte estimate: measure up to 32 rows per partition and scale.
pub(crate) fn estimate_bytes(parts: &[Vec<Value>]) -> u64 {
    let mut total = 0u64;
    for p in parts {
        if p.is_empty() {
            continue;
        }
        let sample_n = p.len().min(32);
        let sample: u64 = slice_size(&p[..sample_n]) as u64;
        total += sample * p.len() as u64 / sample_n as u64;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_runtime::BinOp;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn ctx() -> Context {
        Context::new(4, 8)
    }

    fn pairs(ctx: &Context, entries: &[(i64, i64)]) -> Dataset {
        ctx.from_vec(
            entries
                .iter()
                .map(|&(k, v)| Value::pair(Value::Long(k), Value::Long(v)))
                .collect(),
        )
    }

    #[test]
    fn map_filter_flat_map() {
        let ctx = ctx();
        let d = ctx.range(1, 100);
        let doubled = d.map(|v| BinOp::Mul.apply(v, &Value::Long(2))).unwrap();
        assert_eq!(doubled.count(), 100);
        let evens = d.filter(|v| Ok(v.as_long().unwrap() % 2 == 0)).unwrap();
        assert_eq!(evens.count(), 50);
        let dup = d.flat_map(|v| Ok(vec![v.clone(), v.clone()])).unwrap();
        assert_eq!(dup.count(), 200);
    }

    #[test]
    fn narrow_ops_are_lazy_until_materialized() {
        let ctx = ctx();
        let calls = Arc::new(AtomicUsize::new(0));
        let d = ctx.range(1, 10);
        let c = calls.clone();
        let mapped = d
            .map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                Ok(v.clone())
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 0, "map must not run eagerly");
        assert_eq!(mapped.count(), 10);
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        // The cache means a second read does not re-run the chain.
        assert_eq!(mapped.count(), 10);
        assert_eq!(calls.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn derived_ops_build_on_cached_materialization() {
        // Once a dataset is forced, downstream operators must read its
        // cached partitions, never re-execute the upstream chain.
        let ctx = ctx();
        let calls = Arc::new(AtomicUsize::new(0));
        let c = calls.clone();
        let mapped = ctx
            .range(1, 10)
            .map(move |v| {
                c.fetch_add(1, Ordering::Relaxed);
                Ok(v.clone())
            })
            .unwrap();
        assert_eq!(mapped.count(), 10);
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        let downstream = mapped.filter(|_| Ok(true)).unwrap();
        assert_eq!(downstream.count(), 10);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            10,
            "deriving from a forced dataset must not re-run its chain"
        );
        let keyed = mapped
            .map(|v| Ok(Value::pair(v.clone(), Value::Long(1))))
            .unwrap();
        let _ = keyed
            .reduce_by_key(|a, b| BinOp::Add.apply(a, b))
            .unwrap()
            .collect();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            10,
            "shuffles reuse the cache too"
        );
    }

    #[test]
    fn union_shuffle_reads_operands_in_place() {
        // A keyed aggregation over a union consumes both operands via
        // segments: one physical stage for combine+scatter, no
        // materialization of the combined partitions.
        let ctx = ctx();
        let a = pairs(&ctx, &[(1, 1), (2, 2), (3, 3)]);
        let b = pairs(&ctx, &[(1, 10), (2, 20)]);
        let u = a.union(&b);
        let before = ctx.stats().snapshot();
        let r = u.reduce_by_key(|x, y| BinOp::Add.apply(x, y)).unwrap();
        let rows = r.collect_sorted();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(
            after.physical_stages, 2,
            "combine+scatter fused over union segments, then reduce: {after:?}"
        );
        assert_eq!(
            rows,
            vec![
                Value::pair(Value::Long(1), Value::Long(11)),
                Value::pair(Value::Long(2), Value::Long(22)),
                Value::pair(Value::Long(3), Value::Long(3)),
            ]
        );
    }

    #[test]
    fn bare_union_collect_streams_without_combined_partitions() {
        // A bare collect of an unprocessed union reads both operands in
        // place — one fused stage, rows streamed
        // straight into the output.
        let ctx = ctx();
        let a = ctx.range(1, 100);
        let b = ctx.range(101, 200);
        let u = a.union(&b);
        let before = ctx.stats().snapshot();
        let rows = u.try_collect().unwrap();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(rows.len(), 200);
        assert_eq!(after.physical_stages, 1, "{after:?}");
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(sorted, (1..=200).map(Value::Long).collect::<Vec<_>>());
        // count() streams too, and clones nothing.
        assert_eq!(u.count(), 200);
    }

    #[test]
    fn narrow_chain_fuses_into_one_physical_stage() {
        let ctx = ctx();
        let d = ctx.range(1, 1000);
        let chained = d
            .map(|v| BinOp::Mul.apply(v, &Value::Long(3)))
            .unwrap()
            .filter(|v| Ok(v.as_long().unwrap() % 2 == 0))
            .unwrap()
            .flat_map(|v| Ok(vec![v.clone(), v.clone()]))
            .unwrap()
            .map(|v| BinOp::Add.apply(v, &Value::Long(1)))
            .unwrap();
        let before = ctx.stats().snapshot();
        let rows = chained.collect();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(after.physical_stages, 1, "4 narrow ops fuse into 1 stage");
        assert_eq!(rows.len(), 1000);
    }

    #[test]
    fn fused_chain_matches_stepwise_materialization() {
        let ctx = ctx();
        let d = ctx.range(1, 200);
        let fused = d
            .map(|v| BinOp::Mul.apply(v, &Value::Long(2)))
            .unwrap()
            .filter(|v| Ok(v.as_long().unwrap() % 3 == 0))
            .unwrap()
            .flat_map(|v| Ok(vec![v.clone(), Value::Long(-v.as_long().unwrap())]))
            .unwrap();
        let stepwise = d
            .map(|v| BinOp::Mul.apply(v, &Value::Long(2)))
            .unwrap()
            .materialize()
            .unwrap()
            .filter(|v| Ok(v.as_long().unwrap() % 3 == 0))
            .unwrap()
            .materialize()
            .unwrap()
            .flat_map(|v| Ok(vec![v.clone(), Value::Long(-v.as_long().unwrap())]))
            .unwrap();
        assert_eq!(fused.collect(), stepwise.collect());
    }

    #[test]
    fn explain_renders_pending_chain() {
        let ctx = ctx();
        let d = ctx.range(1, 10);
        let chained = d
            .map(|v| Ok(v.clone()))
            .unwrap()
            .filter(|_| Ok(true))
            .unwrap();
        let plan = chained.explain();
        assert!(plan.contains("scan"), "{plan}");
        assert!(plan.contains("map"), "{plan}");
        assert!(plan.contains("filter"), "{plan}");
        assert!(plan.contains("fused"), "{plan}");
    }

    #[test]
    fn range_covers_inclusive_bounds() {
        let ctx = ctx();
        let d = ctx.range(5, 9);
        assert_eq!(
            d.collect_sorted(),
            (5..=9).map(Value::Long).collect::<Vec<_>>()
        );
        assert_eq!(ctx.range(3, 2).count(), 0, "empty range");
    }

    #[test]
    fn reduce_sums() {
        let ctx = ctx();
        let d = ctx.range(1, 1000);
        let sum = d.reduce(|a, b| BinOp::Add.apply(a, b)).unwrap().unwrap();
        assert_eq!(sum, Value::Long(500500));
        assert_eq!(
            ctx.empty().reduce(|a, b| BinOp::Add.apply(a, b)).unwrap(),
            None
        );
    }

    #[test]
    fn reduce_fuses_pending_chain() {
        let ctx = ctx();
        let d = ctx.range(1, 100);
        let before = ctx.stats().snapshot();
        let sum = d
            .map(|v| BinOp::Mul.apply(v, &Value::Long(2)))
            .unwrap()
            .filter(|v| Ok(v.as_long().unwrap() <= 100))
            .unwrap()
            .reduce(|a, b| BinOp::Add.apply(a, b))
            .unwrap()
            .unwrap();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(sum, Value::Long((1..=50).map(|x| x * 2).sum::<i64>()));
        assert_eq!(
            after.physical_stages, 1,
            "chain + fold in one pass: {after:?}"
        );
    }

    #[test]
    fn reduce_by_key_combines_across_partitions() {
        let ctx = ctx();
        let entries: Vec<(i64, i64)> = (0..1000).map(|i| (i % 10, 1)).collect();
        let d = pairs(&ctx, &entries);
        let before = ctx.stats().snapshot();
        let r = d.reduce_by_key(|a, b| BinOp::Add.apply(a, b)).unwrap();
        let mut rows = r.collect_sorted();
        let after = ctx.stats().snapshot().since(&before);
        rows.sort();
        assert_eq!(rows.len(), 10);
        for row in rows {
            let (_, v) = key_value(&row).unwrap();
            assert_eq!(v, Value::Long(100));
        }
        // Map-side combining means at most partitions × keys rows shuffle.
        assert!(
            after.shuffled_records <= (8 * 10) as u64,
            "combiner limits shuffle: {after:?}"
        );
        // Combine+scatter fuse into one stage; the shuffle-read reduce is
        // the second (fused with the collect).
        assert_eq!(after.physical_stages, 2, "{after:?}");
    }

    #[test]
    fn reduce_by_key_then_map_then_shuffle_is_two_stages() {
        // Shuffle-read fusion: the post-shuffle reduce runs inside the
        // next scatter's stage, so reduce_by_key → map → shuffle costs 2
        // physical stages, not 3.
        let ctx = ctx();
        let entries: Vec<(i64, i64)> = (0..500).map(|i| (i % 20, 1)).collect();
        let d = pairs(&ctx, &entries);
        let before = ctx.stats().snapshot();
        let r = d
            .reduce_by_key(|a, b| BinOp::Add.apply(a, b))
            .unwrap()
            .map(|row| {
                let (k, v) = key_value(row)?;
                Ok(Value::pair(v, k))
            })
            .unwrap()
            .partition_by_key()
            .unwrap();
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(
            after.physical_stages, 2,
            "combine+scatter, then reduce+map+scatter: {after:?}"
        );
        assert_eq!(r.count(), 20);
    }

    #[test]
    fn group_by_key_collects_bags() {
        let ctx = ctx();
        let d = pairs(&ctx, &[(1, 10), (2, 20), (1, 30)]);
        let g = d.group_by_key().unwrap();
        let rows = g.collect_sorted();
        assert_eq!(rows.len(), 2);
        let (k, bag) = key_value(&rows[0]).unwrap();
        assert_eq!(k, Value::Long(1));
        let mut items = bag.as_bag().unwrap().to_vec();
        items.sort();
        assert_eq!(items, vec![Value::Long(10), Value::Long(30)]);
    }

    #[test]
    fn join_matches_keys() {
        let ctx = ctx();
        let l = pairs(&ctx, &[(1, 10), (2, 20), (3, 30)]);
        let r = pairs(&ctx, &[(2, 200), (3, 300), (4, 400)]);
        let j = l.join(&r).unwrap();
        let mut rows = j.collect_sorted();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                Value::pair(
                    Value::Long(2),
                    Value::pair(Value::Long(20), Value::Long(200))
                ),
                Value::pair(
                    Value::Long(3),
                    Value::pair(Value::Long(30), Value::Long(300))
                ),
            ]
        );
    }

    #[test]
    fn join_duplicates_produce_cross_products() {
        let ctx = ctx();
        let l = pairs(&ctx, &[(1, 10), (1, 11)]);
        let r = pairs(&ctx, &[(1, 100), (1, 101)]);
        assert_eq!(l.join(&r).unwrap().count(), 4);
    }

    #[test]
    fn merge_replaces_and_combines() {
        let ctx = ctx();
        let old = pairs(&ctx, &[(1, 10), (2, 20)]);
        let upd = pairs(&ctx, &[(2, 5), (3, 30)]);
        let replaced = old
            .merge(&upd, None::<fn(&Value, &Value) -> Result<Value>>)
            .unwrap();
        assert_eq!(
            replaced.collect_sorted(),
            vec![
                Value::pair(Value::Long(1), Value::Long(10)),
                Value::pair(Value::Long(2), Value::Long(5)),
                Value::pair(Value::Long(3), Value::Long(30)),
            ]
        );
        let combined = old
            .merge(&upd, Some(|a: &Value, b: &Value| BinOp::Add.apply(a, b)))
            .unwrap();
        assert_eq!(
            combined.collect_sorted(),
            vec![
                Value::pair(Value::Long(1), Value::Long(10)),
                Value::pair(Value::Long(2), Value::Long(25)),
                Value::pair(Value::Long(3), Value::Long(30)),
            ]
        );
    }

    #[test]
    fn cogroup_covers_one_sided_keys() {
        let ctx = ctx();
        let l = pairs(&ctx, &[(1, 10)]);
        let r = pairs(&ctx, &[(2, 20)]);
        let co = l.cogroup(&r).unwrap();
        let rows = co.collect_sorted();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn union_keeps_duplicates() {
        let ctx = ctx();
        let a = pairs(&ctx, &[(1, 1)]);
        let b = pairs(&ctx, &[(1, 1)]);
        assert_eq!(a.union(&b).count(), 2);
    }

    #[test]
    fn union_runs_no_physical_stage_and_fuses_downstream() {
        let ctx = ctx();
        let a = ctx.range(1, 100);
        let b = ctx.range(101, 200);
        let before = ctx.stats().snapshot();
        let u = a.union(&b);
        let mid = ctx.stats().snapshot().since(&before);
        assert_eq!(mid.physical_stages, 0, "union moves no data: {mid:?}");
        // A map above the union is pushed into both branches.
        let mapped = u.map(|v| BinOp::Add.apply(v, &Value::Long(1))).unwrap();
        let sum = mapped
            .reduce(|a, b| BinOp::Add.apply(a, b))
            .unwrap()
            .unwrap();
        assert_eq!(sum, Value::Long((2..=201).sum::<i64>()));
    }

    #[test]
    fn errors_surface_at_materialization() {
        let ctx = ctx();
        let d = ctx.range(0, 100);
        let mapped = d
            .map(|v| {
                if v.as_long() == Some(50) {
                    Err(RuntimeError::new("boom"))
                } else {
                    Ok(v.clone())
                }
            })
            .unwrap();
        let err = mapped.try_collect();
        assert!(err.is_err());
        // Shuffle paths surface the same error through their Result.
        let keyed = ctx
            .range(0, 100)
            .map(|v| {
                if v.as_long() == Some(50) {
                    Err(RuntimeError::new("boom"))
                } else {
                    Ok(Value::pair(v.clone(), Value::Long(1)))
                }
            })
            .unwrap();
        assert!(keyed.reduce_by_key(|a, b| BinOp::Add.apply(a, b)).is_err());
    }

    #[test]
    fn fused_errors_carry_statement_tags() {
        // A statement label set while a plan node is built prefixes any
        // error that node later raises — error locality under laziness.
        let ctx = ctx();
        ctx.set_statement_label(Some("s1: X := boom"));
        let d = ctx
            .range(0, 10)
            .map(|v| {
                if v.as_long() == Some(5) {
                    Err(RuntimeError::new("boom"))
                } else {
                    Ok(v.clone())
                }
            })
            .unwrap();
        ctx.set_statement_label(None);
        // Materialization happens later, in a different "statement".
        let err = d.try_collect().unwrap_err();
        assert!(err.message.contains("s1: X := boom"), "{err}");
        assert!(err.message.contains("boom"), "{err}");
    }

    #[test]
    fn zip_partitions_pairs_up() {
        let ctx = Context::new(2, 4);
        let a = ctx.from_vec((0..8).map(Value::Long).collect());
        let b = ctx.from_vec((100..108).map(Value::Long).collect());
        let z = a
            .zip_partitions(&b, |xs, ys| {
                xs.iter()
                    .zip(ys)
                    .map(|(x, y)| BinOp::Add.apply(x, y))
                    .collect::<Result<Vec<_>>>()
            })
            .unwrap();
        assert_eq!(z.count(), 8);
        let sum = z.reduce(|a, b| BinOp::Add.apply(a, b)).unwrap().unwrap();
        assert_eq!(
            sum,
            Value::Long((0..8).sum::<i64>() + (100..108).sum::<i64>())
        );
    }

    #[test]
    fn broadcast_counts_in_stats() {
        let ctx = ctx();
        let d = ctx.range(0, 9);
        let before = ctx.stats().snapshot();
        let b = d.broadcast().unwrap();
        assert_eq!(b.len(), 10);
        let after = ctx.stats().snapshot().since(&before);
        assert_eq!(after.broadcasts, 1);
        assert_eq!(after.broadcast_records, 10);
    }

    #[test]
    fn shuffle_determinism() {
        let ctx = ctx();
        let entries: Vec<(i64, i64)> = (0..500).map(|i| (i % 37, i)).collect();
        let d = pairs(&ctx, &entries);
        let a = d.group_by_key().unwrap().collect();
        let b = d.group_by_key().unwrap().collect();
        assert_eq!(a, b, "repeated shuffles are deterministic");
    }
}
