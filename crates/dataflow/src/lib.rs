//! # diablo-dataflow
//!
//! A from-scratch, multi-threaded, partitioned data-parallel engine — the
//! substitute for Apache Spark in this reproduction (the paper's evaluation
//! platform, §6). It is deliberately shaped like Spark's core, including
//! Spark's **lazy evaluation**: transformations build a plan; actions run
//! it.
//!
//! ## Architecture: plan → fuse → execute
//!
//! * a [`Dataset`] is an immutable bag of rows split into hash partitions,
//!   described by a lazy **physical plan** — a DAG of `PlanOp` nodes
//!   (`Scan`, `Map`, `Filter`, `FlatMap`, `MapPartitions`, `Union`) built
//!   by the operator methods without running anything;
//! * *narrow* operations (`map`, `filter`, `flat_map`, `union`) append a
//!   plan node and return immediately — no data moves, no threads run;
//! * one engine runs every plan, deciding each stage only from what it
//!   can observe: a fused chain whose every step carries a [`RowExpr`]
//!   runs over typed column chunks in 4096-row tiles (`columnar.rs`),
//!   any other chain tuple-at-a-time; a narrow stage splits into morsels
//!   for the work-stealing pool only when a partition exceeds
//!   [`Context::morsel_size`]; every exchange buffers under
//!   [`Context::memory_budget`]. Results never depend on any of it;
//! * data crosses partitions only through the **Exchange API**: a
//!   pluggable [`Partitioner`] picks each key's destination bucket, and a
//!   streaming [`Exchange`] sink/reader pair moves rows under a memory
//!   budget ([`Context::with_memory_budget`], `DIABLO_MEMORY_BUDGET`) —
//!   buckets past the budget spill to sorted run files and merge-read
//!   back in source order, byte-identical to the in-memory exchange;
//! * the **sort-based shuffle path** (`Dataset::sorted_reduce_by_key`,
//!   `sorted_group_by_key`, `sorted_merge`, `sorted_cogroup`; routed
//!   under the plain keyed operators by [`Context::with_ordered`],
//!   `DIABLO_ORDERED`, or `diabloc --ordered`) samples keys, scatters
//!   through a [`RangePartitioner`] into a **key-ordered** exchange
//!   whose pre-sorted chunks — spilled runs included — merge back by
//!   key, and emits globally key-ordered output holding exactly the
//!   hash path's row multiset;
//! * at every **materialization point** — a shuffle (`group_by_key`,
//!   `reduce_by_key`, `cogroup`, `join`, the array-merge `⊳`), `collect`,
//!   `reduce`, or `broadcast` — the engine **fuses** the pending narrow
//!   chain into a single closure and runs it once per partition on the
//!   worker pool. A chain of N narrow operators costs one pass over the
//!   source rows and allocates no per-operator intermediate `Vec`;
//! * *shuffle* operations physically re-bucket rows by key hash before the
//!   next stage, exactly where Spark would exchange data across executors.
//!   Their scatter pass fuses the pending chain too, and the
//!   **shuffle-read side is lazy**: the post-shuffle reduce/group/combine
//!   is a pending plan node that fuses with the next consumer, so
//!   `reduce_by_key → map → shuffle` is two physical stages, not three;
//! * `reduce_by_key` performs map-side combining (Spark's combiner), which
//!   is what makes the Word-Count/Histogram/Group-By shapes of Figure 3
//!   come out right;
//! * broadcasts materialize a dataset on "all workers" (here: one shared
//!   `Arc`), mirroring Spark's broadcast variables used by the hand-written
//!   K-Means baseline.
//!
//! Fusion never changes results: output rows, their order, and all error
//! messages are bit-identical to operator-at-a-time execution (the
//! property tests in `tests/prop_fusion.rs` check this against an eager
//! reference).
//!
//! ## Observability
//!
//! [`Stats`] separates **logical operators** (how many `Dataset` methods a
//! program called — the plan's shape) from **physical stages** (how many
//! fused per-partition passes actually ran), plus shuffled records/bytes
//! and broadcast sizes, so benchmarks can report both data movement and
//! fusion wins. [`Context::start_plan_trace`] records a textual line per
//! physical stage — the engine-level "explain" that `diabloc --explain`
//! prints — and [`Dataset::explain`] renders a still-pending plan.

// This crate holds the workspace's only unsafe code (the worker pool's
// result slots and type-erased stage tasks); every unsafe block must say
// why it is sound, and CI runs the pool's unit tests under Miri.
#![warn(clippy::undocumented_unsafe_blocks)]

mod columnar;
mod dataset;
mod dscache;
mod exchange;
mod plan;
mod pool;
mod stats;
mod verify;

pub use columnar::RowExpr;
pub use dataset::Dataset;
pub use exchange::{
    decode_value, encode_value, Exchange, ExchangeWriter, HashPartitioner, Partitioner,
    RangePartitioner,
};
pub use stats::{Stats, StatsSnapshot};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use diablo_runtime::Value;

/// Handle to the engine: worker count, partition count, engine settings,
/// and run statistics.
///
/// Cheap to clone; all clones share the same statistics and settings.
#[derive(Clone)]
pub struct Context {
    inner: Arc<ContextInner>,
}

struct ContextInner {
    workers: usize,
    partitions: usize,
    stats: Stats,
    op_counter: AtomicUsize,
    plan_trace: Mutex<Option<Vec<String>>>,
    stmt_label: Mutex<Option<Arc<str>>>,
    /// Exchange memory budget in bytes; `u64::MAX` means unbounded.
    memory_budget: AtomicU64,
    /// Route keyed operators through the sort-based shuffle path.
    ordered: AtomicBool,
    /// The persistent work-stealing pool, built on first stage. Held in an
    /// `Arc` so [`Context::fork`]ed tenant contexts share one pool.
    pool: OnceLock<Arc<pool::WorkerPool>>,
    /// Rows per morsel when a stage splits oversized partitions.
    morsel_size: AtomicUsize,
    /// Run stages on the retained pre-morsel scheduler (baseline mode).
    static_scheduler: AtomicBool,
    /// The shared dataset cache (built on first use). Held in an `Arc`
    /// so [`Context::fork`]ed tenant contexts share one cache — and one
    /// dataset budget — the way they share one worker pool.
    dscache: OnceLock<Arc<dscache::DatasetCache>>,
}

impl Context {
    /// Creates a context with `workers` threads and `partitions` hash
    /// partitions per dataset.
    pub fn new(workers: usize, partitions: usize) -> Context {
        assert!(workers > 0, "need at least one worker");
        assert!(partitions > 0, "need at least one partition");
        Context {
            inner: Arc::new(ContextInner {
                workers,
                partitions,
                stats: Stats::default(),
                op_counter: AtomicUsize::new(0),
                plan_trace: Mutex::new(None),
                stmt_label: Mutex::new(None),
                memory_budget: AtomicU64::new(memory_budget_from_env()),
                ordered: AtomicBool::new(ordered_from_env()),
                pool: OnceLock::new(),
                morsel_size: AtomicUsize::new(morsel_size_from_env()),
                static_scheduler: AtomicBool::new(static_scheduler_from_env()),
                dscache: OnceLock::new(),
            }),
        }
    }

    /// A context sized to the machine: one worker per available core and
    /// two partitions per worker.
    pub fn default_parallel() -> Context {
        Context::sized(None, None)
    }

    /// A context sized from optional worker/partition counts; whatever is
    /// missing falls back to [`Context::default_parallel`]'s policy (one
    /// worker per available core, two partitions per worker). This is the
    /// single home of that policy — driver layers (`diabloc --workers/
    /// --partitions`) build partially specified shapes through it.
    pub fn sized(workers: Option<usize>, partitions: Option<usize>) -> Context {
        let w =
            workers.unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
        Context::new(w, partitions.unwrap_or(w * 2))
    }

    /// A single-threaded context (used to isolate engine overhead from
    /// parallelism in benchmarks).
    pub fn sequential() -> Context {
        Context::new(1, 1)
    }

    /// Caps the bytes of exchanged rows a shuffle may buffer in memory
    /// (builder style): buckets past the budget spill to sorted run files
    /// and are merge-read back in source order, so results are identical
    /// to an unbounded exchange. Defaults to the `DIABLO_MEMORY_BUDGET`
    /// environment variable, else unbounded.
    pub fn with_memory_budget(self, bytes: u64) -> Context {
        self.set_memory_budget(Some(bytes));
        self
    }

    /// Sets (or clears, with `None`) the exchange memory budget in place.
    pub fn set_memory_budget(&self, bytes: Option<u64>) {
        self.inner
            .memory_budget
            .store(bytes.unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// The exchange memory budget in bytes, if one is set.
    pub fn memory_budget(&self) -> Option<u64> {
        match self.inner.memory_budget.load(Ordering::Relaxed) {
            u64::MAX => None,
            b => Some(b),
        }
    }

    /// Caps the bytes of **materialized datasets** the context keeps
    /// pinned in memory (builder style): forcing a dataset past the
    /// budget demotes the least-recently-used entries to disk files
    /// (re-read transparently), and entries past the disk ledger are
    /// dropped entirely and **recomputed from lineage** on the next
    /// read — so results are identical to an unbounded cache. A budget
    /// of `0` disables dataset caching: every re-read recomputes.
    /// Defaults to the `DIABLO_DATASET_BUDGET` environment variable,
    /// else unbounded.
    pub fn with_dataset_budget(self, bytes: u64) -> Context {
        self.set_dataset_budget(Some(bytes));
        self
    }

    /// Sets (or clears, with `None`) the dataset cache budget in place.
    pub fn set_dataset_budget(&self, bytes: Option<u64>) {
        self.dataset_cache().set_budget(bytes.unwrap_or(u64::MAX));
    }

    /// The dataset cache budget in bytes, if one is set.
    pub fn dataset_budget(&self) -> Option<u64> {
        match self.dataset_cache().budget() {
            u64::MAX => None,
            b => Some(b),
        }
    }

    /// The shared dataset cache (built on first use).
    pub(crate) fn dataset_cache(&self) -> &Arc<dscache::DatasetCache> {
        self.inner
            .dscache
            .get_or_init(|| Arc::new(dscache::DatasetCache::new(dataset_budget_from_env())))
    }

    /// Routes the keyed operators (`reduce_by_key`, `group_by_key`,
    /// `merge`, `cogroup` — and `join`, which builds on `cogroup`)
    /// through the **sort-based shuffle path** (builder style): keys are
    /// sampled, rows range-scattered so ordered keys stay in contiguous
    /// buckets, and every output is globally key-sorted. Same rows as the
    /// hash path, in key order instead of arrival order. Defaults to the
    /// `DIABLO_ORDERED` environment variable, else off.
    pub fn with_ordered(self, on: bool) -> Context {
        self.set_ordered(on);
        self
    }

    /// Sets (or clears) the sort-based keyed-operator routing in place.
    pub fn set_ordered(&self, on: bool) {
        self.inner.ordered.store(on, Ordering::Relaxed);
    }

    /// True when keyed operators route through the sort-based shuffle.
    pub fn ordered(&self) -> bool {
        self.inner.ordered.load(Ordering::Relaxed)
    }

    /// Sets the morsel size (builder style): a narrow stage splits a
    /// partition into morsels of at most this many rows only when the
    /// partition is larger; otherwise it runs one task per partition.
    /// Defaults to the `DIABLO_MORSEL_SIZE` environment variable, else
    /// 16384 rows. Scheduling granularity only — results never change.
    pub fn with_morsel_size(self, rows: usize) -> Context {
        self.set_morsel_size(rows);
        self
    }

    /// Sets the morsel size in place.
    pub fn set_morsel_size(&self, rows: usize) {
        assert!(rows > 0, "morsel size must be at least 1 row");
        self.inner.morsel_size.store(rows, Ordering::Relaxed);
    }

    /// Rows per morsel when stages split oversized partitions.
    pub fn morsel_size(&self) -> usize {
        self.inner.morsel_size.load(Ordering::Relaxed)
    }

    /// Routes stages to the retained pre-morsel scheduler (one task per
    /// partition: it never splits a partition into morsels, and never
    /// steals) — the benchmark baseline.
    /// Defaults to the `DIABLO_SCHEDULER` environment variable
    /// (`morsel` / `static`), else the work-stealing pool.
    pub fn with_static_scheduler(self, on: bool) -> Context {
        self.set_static_scheduler(on);
        self
    }

    /// Sets (or clears) baseline-scheduler routing in place.
    pub fn set_static_scheduler(&self, on: bool) {
        self.inner.static_scheduler.store(on, Ordering::Relaxed);
    }

    /// True when stages run on the pre-morsel baseline scheduler.
    pub fn static_scheduler(&self) -> bool {
        self.inner.static_scheduler.load(Ordering::Relaxed)
    }

    /// The persistent work-stealing pool (built on first use).
    pub(crate) fn pool(&self) -> &pool::WorkerPool {
        self.inner
            .pool
            .get_or_init(|| Arc::new(pool::WorkerPool::new(self.inner.workers)))
    }

    /// A **tenant context**: a new context that shares this context's
    /// worker pool (and copies its shape and settings — workers,
    /// partitions, memory budget, ordered routing, morsel size,
    /// scheduler) but owns fresh statistics, plan trace, and statement
    /// labels. This is the multi-tenant serving primitive: each request
    /// runs its session on a fork, so per-request statistics and
    /// statement-label plan tagging never interleave across concurrent
    /// requests, while every stage still schedules onto the one shared
    /// morsel pool. (The pool itself already tolerates concurrent
    /// submitters: a stage submitted while another is in flight runs
    /// inline on the submitting thread.)
    pub fn fork(&self) -> Context {
        let child = Context::new(self.workers(), self.partitions());
        child.set_memory_budget(self.memory_budget());
        child.set_ordered(self.ordered());
        child.set_morsel_size(self.morsel_size());
        child.set_static_scheduler(self.static_scheduler());
        // Share the parent's pool (forcing its creation): the OnceLock is
        // fresh on the child, so pre-filling it makes every child stage
        // schedule onto the parent's workers.
        let _ = self.pool();
        let shared = self.inner.pool.get().expect("pool just built").clone();
        let _ = child.inner.pool.set(shared);
        // Share the dataset cache too: all tenants cache under ONE
        // dataset budget, so concurrent sessions cannot multiply pinned
        // memory past it. (Cache-event counters still land on the
        // calling tenant's stats — the cache records against the
        // context passed into each operation.)
        let _ = child.inner.dscache.set(self.dataset_cache().clone());
        child
    }

    /// Sets (or clears) the source-statement label attached to plan nodes
    /// built from now on. Driver layers set this per statement so fused
    /// stages spanning several statements can report all of them, and so
    /// deferred operator errors name the statement they came from.
    pub fn set_statement_label(&self, label: Option<&str>) {
        *self.inner.stmt_label.lock().expect("label lock") = label.map(Arc::from);
    }

    /// The current source-statement label, if any.
    pub(crate) fn statement_label(&self) -> Option<Arc<str>> {
        self.inner.stmt_label.lock().expect("label lock").clone()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Number of partitions per dataset.
    pub fn partitions(&self) -> usize {
        self.inner.partitions
    }

    /// The run statistics.
    pub fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// A statistics snapshot with the **effective context settings**
    /// (workers, partitions, morsel size, memory budget, dataset budget,
    /// scheduler, ordered routing) filled in alongside the counters, so
    /// emitted benchmark rows are self-describing. [`Stats::snapshot`]
    /// alone leaves the settings at their empty defaults — it cannot see
    /// the context.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        let mut snap = self.inner.stats.snapshot();
        snap.workers = self.workers() as u64;
        snap.partitions = self.partitions() as u64;
        snap.morsel_size = self.morsel_size() as u64;
        snap.memory_budget = self.memory_budget().unwrap_or(u64::MAX);
        snap.dataset_budget = self.dataset_budget().unwrap_or(u64::MAX);
        snap.scheduler = if self.static_scheduler() {
            "static"
        } else {
            "morsel"
        }
        .to_string();
        snap.ordered = self.ordered();
        snap
    }

    /// Counts one logical `Dataset` operator invocation.
    pub(crate) fn record_logical_op(&self) {
        self.inner.op_counter.fetch_add(1, Ordering::Relaxed);
        self.inner.stats.record_logical_op();
    }

    /// Counts one physical per-partition pass.
    pub(crate) fn record_physical_stage(&self) {
        self.inner.stats.record_physical_stage();
    }

    /// Starts recording a textual line per physical stage / shuffle /
    /// broadcast — the executed-plan trace behind `diabloc --explain`.
    pub fn start_plan_trace(&self) {
        *self.inner.plan_trace.lock().expect("trace lock") = Some(Vec::new());
    }

    /// Stops recording and returns the trace lines (empty if tracing was
    /// never started).
    pub fn take_plan_trace(&self) -> Vec<String> {
        self.inner
            .plan_trace
            .lock()
            .expect("trace lock")
            .take()
            .unwrap_or_default()
    }

    /// Appends a line to the plan trace; no-op unless tracing is active.
    /// Public so driver layers can interleave statement markers with the
    /// engine's stage lines.
    pub fn plan_note(&self, note: impl Into<String>) {
        if let Some(trace) = self.inner.plan_trace.lock().expect("trace lock").as_mut() {
            trace.push(note.into());
        }
    }

    /// Creates a dataset from a vector of rows, chunk-partitioned.
    pub fn from_vec(&self, rows: Vec<Value>) -> Dataset {
        Dataset::from_vec(self.clone(), rows)
    }

    /// Creates a dataset from explicit pre-built partitions, preserving
    /// their sizes exactly — the way to construct deliberately skewed
    /// inputs (e.g. one partition holding half the rows) for scheduler
    /// benchmarks and tests.
    pub fn from_partitions(&self, parts: Vec<Vec<Value>>) -> Dataset {
        Dataset::from_partitions(self.clone(), parts)
    }

    /// Creates a dataset of longs `lo..=hi`, range-partitioned.
    pub fn range(&self, lo: i64, hi: i64) -> Dataset {
        Dataset::range(self.clone(), lo, hi)
    }

    /// Creates an empty dataset.
    pub fn empty(&self) -> Dataset {
        Dataset::from_vec(self.clone(), Vec::new())
    }
}

/// The exchange budget named by `DIABLO_MEMORY_BUDGET` (bytes), or
/// unbounded. Panics on an unparseable value so a typo in a CI job fails
/// loudly instead of silently testing the in-memory path.
fn memory_budget_from_env() -> u64 {
    match std::env::var("DIABLO_MEMORY_BUDGET") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("DIABLO_MEMORY_BUDGET={s}: not a byte count")),
        Err(_) => u64::MAX,
    }
}

/// The dataset cache budget named by `DIABLO_DATASET_BUDGET` (bytes), or
/// unbounded. Panics on an unparseable value so a typo in a CI job fails
/// loudly instead of silently testing the unbounded cache.
fn dataset_budget_from_env() -> u64 {
    match std::env::var("DIABLO_DATASET_BUDGET") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("DIABLO_DATASET_BUDGET={s}: not a byte count")),
        Err(_) => u64::MAX,
    }
}

/// Whether `DIABLO_ORDERED` asks for sort-based keyed operators (`1`,
/// `true`, `yes`, case-insensitive). Panics on other values so a typo in
/// a CI job fails loudly instead of silently testing the hash path.
fn ordered_from_env() -> bool {
    match std::env::var("DIABLO_ORDERED") {
        Ok(s) => match s.to_ascii_lowercase().as_str() {
            "1" | "true" | "yes" => true,
            "0" | "false" | "no" | "" => false,
            _ => panic!("DIABLO_ORDERED={s}: expected 1/0, true/false, or yes/no"),
        },
        Err(_) => false,
    }
}

/// The morsel size named by `DIABLO_MORSEL_SIZE` (rows), or the 16384-row
/// default. Panics on an unparseable or zero value so a typo in a CI job
/// fails loudly instead of silently testing the default granularity.
fn morsel_size_from_env() -> usize {
    match std::env::var("DIABLO_MORSEL_SIZE") {
        Ok(s) => match s.parse() {
            Ok(n) if n > 0 => n,
            _ => panic!("DIABLO_MORSEL_SIZE={s}: expected a positive row count"),
        },
        Err(_) => 16384,
    }
}

/// Whether `DIABLO_SCHEDULER` asks for the pre-morsel baseline scheduler
/// (`static`) or the work-stealing pool (`morsel`, the default). Panics
/// on other values so a typo in a CI job fails loudly instead of silently
/// benchmarking the wrong scheduler.
fn static_scheduler_from_env() -> bool {
    match std::env::var("DIABLO_SCHEDULER") {
        Ok(s) => match s.to_ascii_lowercase().as_str() {
            "static" => true,
            "morsel" | "" => false,
            _ => panic!("DIABLO_SCHEDULER={s}: expected morsel or static"),
        },
        Err(_) => false,
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("workers", &self.inner.workers)
            .field("partitions", &self.inner.partitions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_reports_shape() {
        let ctx = Context::new(3, 7);
        assert_eq!(ctx.workers(), 3);
        assert_eq!(ctx.partitions(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = Context::new(0, 1);
    }

    #[test]
    fn memory_budget_round_trips() {
        let ctx = Context::new(1, 2);
        ctx.set_memory_budget(Some(4096));
        assert_eq!(ctx.memory_budget(), Some(4096));
        assert_eq!(
            ctx.clone().memory_budget(),
            Some(4096),
            "clones share the budget"
        );
        ctx.set_memory_budget(None);
        assert_eq!(ctx.memory_budget(), None);
        let built = Context::new(1, 2).with_memory_budget(0);
        assert_eq!(built.memory_budget(), Some(0), "0 is a real budget");
    }

    #[test]
    fn dataset_budget_round_trips() {
        let ctx = Context::new(1, 2);
        if std::env::var("DIABLO_DATASET_BUDGET").is_err() {
            assert_eq!(ctx.dataset_budget(), None, "unbounded by default");
        }
        ctx.set_dataset_budget(Some(4096));
        assert_eq!(ctx.dataset_budget(), Some(4096));
        assert_eq!(
            ctx.clone().dataset_budget(),
            Some(4096),
            "clones share the budget"
        );
        assert_eq!(
            ctx.fork().dataset_budget(),
            Some(4096),
            "tenant forks share the cache and its budget"
        );
        ctx.set_dataset_budget(None);
        assert_eq!(ctx.dataset_budget(), None);
        let built = Context::new(1, 2).with_dataset_budget(0);
        assert_eq!(built.dataset_budget(), Some(0), "0 disables caching");
    }

    #[test]
    fn morsel_size_and_scheduler_round_trip() {
        let ctx = Context::new(2, 4).with_morsel_size(64);
        assert_eq!(ctx.morsel_size(), 64);
        assert_eq!(ctx.clone().morsel_size(), 64, "clones share the size");
        ctx.set_morsel_size(16384);
        assert_eq!(ctx.morsel_size(), 16384);
        let base = Context::new(2, 4).with_static_scheduler(true);
        assert!(base.static_scheduler());
        base.set_static_scheduler(false);
        assert!(!base.static_scheduler());
    }

    #[test]
    #[should_panic(expected = "at least 1 row")]
    fn zero_morsel_size_panics() {
        let _ = Context::new(1, 1).with_morsel_size(0);
    }

    #[test]
    fn plan_trace_records_between_start_and_take() {
        let ctx = Context::new(2, 4);
        ctx.plan_note("dropped");
        ctx.start_plan_trace();
        let d = ctx.range(1, 100);
        let _ = d
            .map(|v| Ok(v.clone()))
            .unwrap()
            .filter(|_| Ok(true))
            .unwrap()
            .collect();
        let trace = ctx.take_plan_trace();
        assert!(!trace.is_empty());
        assert!(trace.iter().any(|l| l.contains("fused")), "{trace:?}");
        assert!(ctx.take_plan_trace().is_empty(), "trace was taken");
    }
}
