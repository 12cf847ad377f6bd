//! The lazy physical plan: a DAG of [`PlanOp`] nodes built by [`Dataset`]
//! operators, plus the engine that runs it — the plan-running functions
//! [`materialize`], [`consume`], [`fold`], [`exchange`],
//! [`exchange_sorted`] and [`shuffle_by`], plain functions over the
//! [`Context`].
//!
//! Narrow operators (`map`, `filter`, `flat_map`, `union`,
//! `map_partitions`) never run when called — they append a node to the
//! plan. At a *materialization point* (a shuffle, `collect`, `reduce`,
//! `broadcast`, `zip_partitions`) the engine collapses every pending
//! chain of row-level nodes into one [`Step`] list and runs it as a single
//! physical stage per partition, feeding each transformed row into a sink
//! without materializing any per-operator intermediate `Vec<Value>`.
//!
//! Since the post-shuffle stages of `reduce_by_key`, `group_by_key`,
//! `merge`, and `cogroup` became lazy [`PlanOp::MapPartitions`] nodes, the
//! shuffle-*read* side fuses with the next narrow chain too:
//! `reduce_by_key → map → shuffle` is two physical stages (combine +
//! scatter, then reduce + map + scatter), not three.
//!
//! Every row-level node carries an optional **statement tag** — the source
//! statement that built it, set by driver layers through
//! [`Context::set_statement_label`](crate::Context::set_statement_label).
//! Tags surface in two places: fused stages that span several source
//! statements list all their tags in the plan trace, and an error raised
//! inside a tagged step is prefixed with its statement, so laziness never
//! loses error locality.
//!
//! The engine decides each stage's execution only from what it can
//! observe:
//!
//! * **layout** — a fused chain whose every step carries a [`RowExpr`]
//!   runs through [`crate::columnar::drive_columnar`] in [`TILE_ROWS`]-row
//!   tiles; any other chain runs tuple-at-a-time through [`drive`];
//! * **scheduling** — a narrow stage splits into morsels only when a
//!   partition exceeds [`Context::morsel_size`] rows, and so does the
//!   columnar fold of a total reduction over a scan ([`fold`]); otherwise
//!   (and always for other consumers and partition-level functions) it
//!   runs one task per partition;
//! * **exchange budget** — every exchange buffers rows under
//!   [`Context::memory_budget`], spilling past it.
//!
//! Execution is directional in the Cranelift optimization-rules sense:
//! a fused plan performs *at most* the work of the eager pipeline it
//! replaces — one pass, no intermediate allocations, one clone per
//! surviving row — never more.
//!
//! [`Dataset`]: crate::Dataset

use std::sync::{Arc, Mutex};

use diablo_runtime::{array::key_value, BinOp, RuntimeError, Value};

use crate::columnar::RowExpr;
use crate::exchange::{pair_key, Exchange, ExchangeWriter, Partitioner};
use crate::pool::{run_stage_weighted, Cancel};
use crate::stats::Stats;
use crate::Context;

/// How many rows a stage sink emits between cooperative-cancellation
/// polls. Cheap enough to leave on everywhere; fine-grained enough that a
/// long morsel notices a lower-indexed failure quickly.
const CANCEL_POLL_ROWS: usize = 1024;

/// Wraps a stage's output sink with a cooperative-cancellation poll: once
/// a lower-indexed item has failed, this item's output can never surface,
/// so the sink bails with a placeholder error (always discarded by the
/// pool — the lower item's error is the one returned).
fn cancellable_sink<'a>(
    cancel: &'a Cancel<'_>,
    mut push: impl FnMut(Value) + 'a,
) -> impl FnMut(Value) -> Result<()> + 'a {
    let mut emitted = 0usize;
    move |v: Value| {
        push(v);
        emitted += 1;
        if emitted.is_multiple_of(CANCEL_POLL_ROWS) && cancel.cancelled() {
            return Err(RuntimeError::new("stage cancelled after earlier error"));
        }
        Ok(())
    }
}

/// Result alias matching the engine's.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// A row-to-row transformation stored in the plan.
pub(crate) type RowMapFn = Arc<dyn Fn(&Value) -> Result<Value> + Send + Sync>;
/// A row predicate stored in the plan.
pub(crate) type RowPredFn = Arc<dyn Fn(&Value) -> Result<bool> + Send + Sync>;
/// A row-to-rows transformation stored in the plan.
pub(crate) type RowFlatFn = Arc<dyn Fn(&Value) -> Result<Vec<Value>> + Send + Sync>;
/// A partition-at-a-time transformation stored in the plan.
pub(crate) type PartFn = Arc<dyn Fn(&[Value]) -> Result<Vec<Value>> + Send + Sync>;

/// The source-statement tag of a plan node (`None` outside a driver
/// session).
pub(crate) type Tag = Option<Arc<str>>;

/// One node of the lazy physical plan.
pub(crate) enum PlanOp {
    /// Materialized partitions — the leaves of every plan.
    Scan(Arc<Vec<Vec<Value>>>),
    /// A forced dataset standing in for its lineage: resolved through the
    /// shared dataset cache at execution time. A hit reads the cached
    /// partitions (memory or disk tier) like a `Scan`; a miss — the entry
    /// was evicted under budget pressure — transparently re-derives the
    /// inner plan and reinserts it. Holding the [`CacheSlot`] (not a bare
    /// id) keeps the entry's identity alive for exactly as long as some
    /// plan can still read it.
    Cached(Arc<crate::dscache::CacheSlot>, Arc<PlanOp>),
    /// Row-wise `map`. The optional [`RowExpr`] is the transparent column
    /// expression the closure was derived from, when the transformation
    /// is engine-visible (`map_expr`, lowered loop steps); `None` marks
    /// an opaque UDF.
    Map(Arc<PlanOp>, RowMapFn, Tag, Option<Arc<RowExpr>>),
    /// Row-wise `filter`, with its transparent predicate expression when
    /// engine-visible.
    Filter(Arc<PlanOp>, RowPredFn, Tag, Option<Arc<RowExpr>>),
    /// Row-wise `flat_map`.
    FlatMap(Arc<PlanOp>, RowFlatFn, Tag),
    /// Partition-wise transformation (a fusion barrier for row steps
    /// below it, but itself fused with the steps above it). The `&'static
    /// str` names the operator for plan traces (`map_partitions`,
    /// `reduce_by_key (reduce)`, `merge ⊳ (combine)`, …).
    MapPartitions(Arc<PlanOp>, PartFn, &'static str, Tag),
    /// Bag union; keeps the left side's partition count.
    Union(Arc<PlanOp>, Arc<PlanOp>),
}

/// The operator of one fused narrow step.
#[derive(Clone)]
pub(crate) enum StepOp {
    /// From [`PlanOp::Map`].
    Map(RowMapFn),
    /// From [`PlanOp::Filter`].
    Filter(RowPredFn),
    /// From [`PlanOp::FlatMap`].
    FlatMap(RowFlatFn),
}

/// One fused narrow step (a row-level op of a collapsed chain) plus the
/// source statement that built it.
#[derive(Clone)]
pub(crate) struct Step {
    pub op: StepOp,
    pub tag: Tag,
    /// The transparent column expression, when the step is
    /// columnar-eligible; `None` marks an opaque UDF, which keeps its
    /// chain on the row path.
    pub expr: Option<Arc<RowExpr>>,
}

impl Step {
    fn label(&self) -> &'static str {
        match self.op {
            StepOp::Map(_) => "map",
            StepOp::Filter(_) => "filter",
            StepOp::FlatMap(_) => "flat_map",
        }
    }

    /// Prefixes an error from this step with its source statement.
    pub(crate) fn tag_err(&self, e: RuntimeError) -> RuntimeError {
        tag_opt(e, &self.tag)
    }
}

/// Prefixes an error with a source-statement tag, if one is present.
fn tag_opt(e: RuntimeError, tag: &Tag) -> RuntimeError {
    match tag {
        Some(t) => e.with_context(t),
        None => e,
    }
}

/// Drives one source row through a fused step chain, feeding every
/// surviving output row to `sink`. No intermediate collections: `map`
/// passes its output by value, `filter` short-circuits, and `flat_map`
/// iterates its expansion in place.
pub(crate) fn drive(
    row: &Value,
    steps: &[Step],
    sink: &mut dyn FnMut(Value) -> Result<()>,
) -> Result<()> {
    match steps.split_first() {
        None => sink(row.clone()),
        Some((
            s @ Step {
                op: StepOp::Map(f), ..
            },
            rest,
        )) => drive_owned(f(row).map_err(|e| s.tag_err(e))?, rest, sink),
        Some((
            s @ Step {
                op: StepOp::Filter(f),
                ..
            },
            rest,
        )) => {
            if f(row).map_err(|e| s.tag_err(e))? {
                drive(row, rest, sink)?;
            }
            Ok(())
        }
        Some((
            s @ Step {
                op: StepOp::FlatMap(f),
                ..
            },
            rest,
        )) => {
            for v in f(row).map_err(|e| s.tag_err(e))? {
                drive_owned(v, rest, sink)?;
            }
            Ok(())
        }
    }
}

pub(crate) fn drive_owned(
    row: Value,
    steps: &[Step],
    sink: &mut dyn FnMut(Value) -> Result<()>,
) -> Result<()> {
    match steps.split_first() {
        None => sink(row),
        Some((
            s @ Step {
                op: StepOp::Map(f), ..
            },
            rest,
        )) => drive_owned(f(&row).map_err(|e| s.tag_err(e))?, rest, sink),
        Some((
            s @ Step {
                op: StepOp::Filter(f),
                ..
            },
            rest,
        )) => {
            if f(&row).map_err(|e| s.tag_err(e))? {
                drive_owned(row, rest, sink)?;
            }
            Ok(())
        }
        Some((
            s @ Step {
                op: StepOp::FlatMap(f),
                ..
            },
            rest,
        )) => {
            for v in f(&row).map_err(|e| s.tag_err(e))? {
                drive_owned(v, rest, sink)?;
            }
            Ok(())
        }
    }
}

/// A plan collapsed to a base node plus the fused row steps above it.
pub(crate) struct Collapsed {
    /// The deepest non-row node: `Scan`, `Cached`, `MapPartitions`, or
    /// `Union`.
    pub base: Arc<PlanOp>,
    /// Row steps to apply to the base's rows, in execution order.
    pub steps: Vec<Step>,
}

/// Walks `Map`/`Filter`/`FlatMap` nodes down to the nearest barrier.
pub(crate) fn collapse(plan: &Arc<PlanOp>) -> Collapsed {
    let mut steps: Vec<Step> = Vec::new();
    let mut cur = plan.clone();
    loop {
        let next = match cur.as_ref() {
            PlanOp::Map(input, f, tag, expr) => {
                steps.push(Step {
                    op: StepOp::Map(f.clone()),
                    tag: tag.clone(),
                    expr: expr.clone(),
                });
                input.clone()
            }
            PlanOp::Filter(input, f, tag, expr) => {
                steps.push(Step {
                    op: StepOp::Filter(f.clone()),
                    tag: tag.clone(),
                    expr: expr.clone(),
                });
                input.clone()
            }
            PlanOp::FlatMap(input, f, tag) => {
                steps.push(Step {
                    op: StepOp::FlatMap(f.clone()),
                    tag: tag.clone(),
                    expr: None,
                });
                input.clone()
            }
            PlanOp::Scan(_)
            | PlanOp::Cached(_, _)
            | PlanOp::MapPartitions(_, _, _, _)
            | PlanOp::Union(_, _) => break,
        };
        cur = next;
    }
    steps.reverse();
    Collapsed { base: cur, steps }
}

/// Materialized partitions: shared when no work was needed, owned
/// otherwise.
pub(crate) enum Parts {
    /// Untouched materialized partitions (zero-copy).
    Shared(Arc<Vec<Vec<Value>>>),
    /// Freshly computed partitions.
    Owned(Vec<Vec<Value>>),
}

impl Parts {
    /// The partitions as a slice.
    pub fn as_slice(&self) -> &[Vec<Value>] {
        match self {
            Parts::Shared(p) => p,
            Parts::Owned(p) => p,
        }
    }

    /// Converts into a shared handle without copying owned data.
    pub fn into_arc(self) -> Arc<Vec<Vec<Value>>> {
        match self {
            Parts::Shared(p) => p,
            Parts::Owned(p) => Arc::new(p),
        }
    }
}

/// Rows per columnar tile: a fused chain whose every step carries a
/// [`RowExpr`] runs through [`crate::columnar::drive_columnar`] in tiles
/// of this many rows.
pub(crate) const TILE_ROWS: usize = 4096;

/// Pushes a run of source rows through a fused chain in the chain's
/// layout: columnar tiles when every step is transparent (batches counted
/// on `stats`), tuple-at-a-time otherwise. Rows, their order, and the
/// first error are identical either way.
fn run_chain(
    stats: &Stats,
    rows: &[Value],
    steps: &[Step],
    sink: &mut dyn FnMut(Value) -> Result<()>,
) -> Result<()> {
    if crate::columnar::eligible(steps) {
        return crate::columnar::drive_columnar(rows, steps, TILE_ROWS, stats, sink);
    }
    for row in rows {
        drive(row, steps, sink)?;
    }
    Ok(())
}

/// Notes a fused chain's layout in the plan trace and counts chains that
/// run on the row path. Only chains with row steps are classified — a
/// bare scan or consumer stage has nothing to vectorize.
fn note_layout(ctx: &Context, steps: &[Step]) {
    if steps.is_empty() {
        return;
    }
    match steps.iter().find(|s| s.expr.is_none()) {
        None => ctx.plan_note("  layout: columnar".to_string()),
        Some(opaque) => {
            ctx.stats().record_row_fallback_stage();
            let why = match &opaque.tag {
                Some(t) => format!("opaque {} from {t}", opaque.label()),
                None => format!("opaque {}", opaque.label()),
            };
            ctx.plan_note(format!("  layout: row ({why})"));
        }
    }
}

/// One morsel: the contiguous row span `(partition, start, end)`.
type Span = (usize, usize, usize);

/// Plans a narrow stage's morsels: every partition larger than `morsel`
/// rows splits into even spans of at most `morsel` rows; smaller
/// partitions stay whole. Returns `None` when nothing splits, so the
/// stage keeps one task per partition.
fn morsel_plan(sizes: &[usize], morsel: usize) -> Option<Vec<Span>> {
    debug_assert!(morsel > 0);
    if !sizes.iter().any(|&n| n > morsel) {
        return None;
    }
    let mut items = Vec::new();
    for (p, &n) in sizes.iter().enumerate() {
        if n > morsel {
            // Even spans: div_ceil pieces, so no runt morsel at the end.
            let pieces = n.div_ceil(morsel);
            let chunk = n.div_ceil(pieces);
            let mut start = 0;
            while start < n {
                let end = (start + chunk).min(n);
                items.push((p, start, end));
                start = end;
            }
        } else {
            items.push((p, 0, n));
        }
    }
    Some(items)
}

/// A narrow stage's morsels under the context's settings: `None` (one
/// task per partition) unless a partition exceeds
/// [`Context::morsel_size`] rows. The static scheduler never splits.
fn morsel_items(ctx: &Context, sizes: &[usize]) -> Option<Vec<Span>> {
    if ctx.static_scheduler() {
        return None;
    }
    let items = morsel_plan(sizes, ctx.morsel_size())?;
    ctx.plan_note(format!(
        "morsel: scheduled {} partitions as {} item(s) (≤{} rows each)",
        sizes.len(),
        items.len(),
        ctx.morsel_size()
    ));
    Some(items)
}

/// Resolves a `Cached` barrier to materialized partitions: a cache hit
/// reads the entry (memory or disk tier); a miss re-derives the inner
/// plan — the lineage replay — and reinserts it under the same slot, so
/// one recompute serves every later reader until the next eviction.
fn resolve_cached(
    ctx: &Context,
    slot: &Arc<crate::dscache::CacheSlot>,
    inner: &Arc<PlanOp>,
) -> Result<Arc<Vec<Vec<Value>>>> {
    let cache = slot.cache();
    if let Some(parts) = cache.get(slot.id(), ctx)? {
        return Ok(parts);
    }
    let parts = materialize_with(ctx, inner, &[])?.into_arc();
    cache.insert(slot.id(), parts.clone(), ctx)?;
    Ok(parts)
}

/// The materialized partitions behind a `Scan` base, or behind a `Cached`
/// one (resolved through the dataset cache); `None` for any other node.
fn read_scan(ctx: &Context, base: &PlanOp) -> Result<Option<Arc<Vec<Vec<Value>>>>> {
    Ok(match base {
        PlanOp::Scan(parts) => Some(parts.clone()),
        PlanOp::Cached(slot, inner) => Some(resolve_cached(ctx, slot, inner)?),
        _ => None,
    })
}

/// Materializes a plan into partitions, fusing every narrow chain into one
/// physical stage per `Scan`/`Cached`/`MapPartitions`/`Union` segment.
/// Output partition `i` holds the transformed rows of input partition `i`
/// in source order.
pub(crate) fn materialize(ctx: &Context, plan: &Arc<PlanOp>) -> Result<Parts> {
    crate::verify::verify_plan(plan)?;
    materialize_with(ctx, plan, &[])
}

/// [`materialize`] with extra steps appended after the plan's own rows —
/// how steps above a `Union` are pushed down into both branches.
fn materialize_with(ctx: &Context, plan: &Arc<PlanOp>, extra: &[Step]) -> Result<Parts> {
    let Collapsed { base, steps } = collapse(plan);
    let mut all = steps;
    all.extend(extra.iter().cloned());
    if let Some(parts) = read_scan(ctx, &base)? {
        if all.is_empty() {
            return Ok(Parts::Shared(parts));
        }
        let out = run_fused_stage(ctx, &parts, None, &all, "materialize")?;
        return Ok(Parts::Owned(out));
    }
    match base.as_ref() {
        PlanOp::MapPartitions(input, f, label, tag) => {
            let inp = materialize(ctx, input)?;
            let out = run_fused_stage(
                ctx,
                inp.as_slice(),
                Some((f.clone(), label, tag.clone())),
                &all,
                "materialize",
            )?;
            Ok(Parts::Owned(out))
        }
        PlanOp::Union(_, _) => {
            // Read every operand in place through segments and build the
            // owned output partitions in one fused stage: each surviving
            // row is cloned exactly once, into its destination partition —
            // no side is materialized into intermediate combined
            // partitions first.
            let mut sources: Vec<(Parts, Vec<Step>)> = Vec::new();
            let mut virt: Vec<Vec<(usize, usize)>> = Vec::new();
            flatten_union(ctx, &base, &all, &mut sources, &mut virt)?;
            ctx.record_physical_stage();
            let stage = ctx.stats().snapshot().physical_stages;
            ctx.plan_note(format!(
                "stage {stage}: union[{} sources, {} partitions] ⇒ materialize (read in place)",
                sources.len(),
                virt.len()
            ));
            let stats = ctx.stats();
            let out = run_stage_weighted(
                ctx,
                &virt,
                |i| {
                    virt[i]
                        .iter()
                        .map(|&(src, p)| sources[src].0.as_slice()[p].len() as u64)
                        .sum()
                },
                |_, segs: &Vec<(usize, usize)>, cancel| {
                    let mut part = Vec::new();
                    let mut sink = cancellable_sink(cancel, |v| part.push(v));
                    for &(src, p) in segs {
                        let (rows, steps) = (&sources[src].0.as_slice()[p], &sources[src].1);
                        run_chain(stats, rows, steps, &mut sink)?;
                    }
                    drop(sink);
                    Ok(part)
                },
            )?;
            Ok(Parts::Owned(out))
        }
        // collapse() never returns a row node as base.
        _ => Err(RuntimeError::new("corrupt plan: row node as base")),
    }
}

/// Runs one fused physical stage: per partition, optionally apply a
/// partition-level function, then drive every row through `steps`.
///
/// A bare narrow chain (no partition-level prelude, which must see its
/// whole partition) splits into morsels when a partition exceeds
/// [`Context::morsel_size`]; the outputs are reassembled on the original
/// partition boundaries, so results are byte-identical to one task per
/// partition.
#[allow(clippy::type_complexity)]
fn run_fused_stage(
    ctx: &Context,
    input: &[Vec<Value>],
    prelude: Option<(PartFn, &'static str, Tag)>,
    steps: &[Step],
    label: &str,
) -> Result<Vec<Vec<Value>>> {
    ctx.record_physical_stage();
    ctx.plan_note(describe_stage(
        ctx,
        input.len(),
        prelude.as_ref().map(|(_, l, t)| (*l, t.clone())),
        steps,
        label,
    ));
    note_layout(ctx, steps);
    let stats = ctx.stats();
    let prelude = prelude.map(|(f, _, tag)| (f, tag));
    let sizes: Vec<usize> = input.iter().map(Vec::len).collect();
    let morsels = if prelude.is_none() {
        morsel_items(ctx, &sizes)
    } else {
        None
    };
    if let Some(items) = morsels {
        let outs = run_stage_weighted(
            ctx,
            &items,
            |i| (items[i].2 - items[i].1) as u64,
            |_, &(p, start, end): &Span, cancel| {
                let mut out = Vec::new();
                let mut sink = cancellable_sink(cancel, |v| out.push(v));
                run_chain(stats, &input[p][start..end], steps, &mut sink)?;
                drop(sink);
                Ok((p, out))
            },
        )?;
        // Items are ordered by (partition, start), so extending in item
        // order rebuilds each partition in source order.
        let mut dest: Vec<Vec<Value>> = input.iter().map(|_| Vec::new()).collect();
        for (p, rows) in outs {
            dest[p].extend(rows);
        }
        return Ok(dest);
    }
    run_stage_weighted(
        ctx,
        input,
        |i| sizes[i] as u64,
        |_, part: &Vec<Value>, cancel| {
            let mut out = Vec::with_capacity(part.len());
            let mut sink = cancellable_sink(cancel, |v| out.push(v));
            match &prelude {
                Some((f, tag)) => {
                    let rows = f(part).map_err(|e| tag_opt(e, tag))?;
                    run_chain(stats, &rows, steps, &mut sink)?;
                }
                None => run_chain(stats, part, steps, &mut sink)?,
            }
            drop(sink);
            Ok(out)
        },
    )
}

/// Runs a consumer once per partition — consumer tasks are atomic per
/// partition (a scatter may carry partition-wide state, e.g. a
/// combiner's hash map), so they never split. Results come back in
/// partition order and the first error follows partition order.
fn per_partition<R: Send>(
    ctx: &Context,
    parts: &[Vec<Value>],
    run_one: impl Fn(usize) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    run_stage_weighted(
        ctx,
        parts,
        |i| parts[i].len() as u64,
        |p, _: &Vec<Value>, _| run_one(p),
    )
}

/// Runs `task` once per partition over the plan's *transformed* rows, in
/// one fused physical stage whenever the base permits: a `Scan`, a tree of
/// `Union`s over scans, or a `MapPartitions` whose own input is a scan
/// (the shuffle-read fusion — the post-shuffle reduce runs inside the
/// consumer's stage). `task` receives the partition index and a
/// [`PartitionRows`] cursor; this is how shuffles and reductions consume a
/// pending chain without an intermediate materialization — for unions,
/// without copying either operand.
pub(crate) fn consume<R, F>(
    ctx: &Context,
    plan: &Arc<PlanOp>,
    label: &str,
    task: F,
) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(usize, &PartitionRows<'_>) -> Result<R> + Sync,
{
    crate::verify::verify_plan(plan)?;
    let stats = ctx.stats();
    let Collapsed { base, steps } = collapse(plan);
    if let Some(parts) = read_scan(ctx, &base)? {
        ctx.record_physical_stage();
        ctx.plan_note(describe_stage(ctx, parts.len(), None, &steps, label));
        note_layout(ctx, &steps);
        return per_partition(ctx, &parts, |p| {
            task(p, &PartitionRows::single(&parts[p], &steps, stats))
        });
    }
    match base.as_ref() {
        PlanOp::MapPartitions(input, f, plabel, tag) => {
            // Shuffle-read fusion: when the prelude's input is already
            // materialized (a scan — e.g. gathered shuffle buckets — or a
            // cached barrier, resolved through the dataset cache), the
            // partition-level function, the fused chain above it, and the
            // consumer all run in ONE stage.
            let inner = collapse(input);
            if let Some(parts) = read_scan(ctx, &inner.base)? {
                ctx.record_physical_stage();
                ctx.plan_note(describe_stage(
                    ctx,
                    parts.len(),
                    Some((*plabel, tag.clone())),
                    &steps,
                    label,
                ));
                // Both fused chains of this stage get a layout verdict:
                // the one feeding the prelude and the one above it.
                note_layout(ctx, &inner.steps);
                note_layout(ctx, &steps);
                let lower = &inner.steps;
                // Steps below the prelude feed it a materialized Vec.
                let feed = |part: &[Value]| -> Result<Vec<Value>> {
                    if lower.is_empty() {
                        f(part).map_err(|e| tag_opt(e, tag))
                    } else {
                        let mut buf = Vec::with_capacity(part.len());
                        let mut sink = |v: Value| {
                            buf.push(v);
                            Ok(())
                        };
                        run_chain(stats, part, lower, &mut sink)?;
                        f(&buf).map_err(|e| tag_opt(e, tag))
                    }
                };
                return per_partition(ctx, &parts, |p| {
                    let fed = feed(&parts[p])?;
                    task(p, &PartitionRows::single(&fed, &steps, stats))
                });
            }
            // Deep prelude (its input is itself unforced): materialize it
            // (fusing inside), then run the consumer as one more stage.
            let inp = materialize_with(ctx, &base, &steps)?;
            let parts = inp.as_slice();
            ctx.record_physical_stage();
            ctx.plan_note(describe_stage(ctx, parts.len(), None, &[], label));
            per_partition(ctx, parts, |p| {
                task(p, &PartitionRows::single(&parts[p], &[], stats))
            })
        }
        PlanOp::Union(_, _) => {
            // Read all operands in place: each virtual partition is a
            // list of (source, partition) segments folded together with
            // the eager engine's `i % n` composition, each carrying its
            // own fused step chain. No operand is copied.
            let mut sources: Vec<(Parts, Vec<Step>)> = Vec::new();
            let mut virt: Vec<Vec<(usize, usize)>> = Vec::new();
            flatten_union(ctx, &base, &steps, &mut sources, &mut virt)?;
            ctx.record_physical_stage();
            let stage = ctx.stats().snapshot().physical_stages;
            ctx.plan_note(format!(
                "stage {stage}: union[{} sources, {} partitions] ⇒ {label} (read in place)",
                sources.len(),
                virt.len()
            ));
            run_stage_weighted(
                ctx,
                &virt,
                |i| {
                    virt[i]
                        .iter()
                        .map(|&(src, p)| sources[src].0.as_slice()[p].len() as u64)
                        .sum()
                },
                |i, segs: &Vec<(usize, usize)>, _| {
                    let segments = segs
                        .iter()
                        .map(|&(src, part)| Segment {
                            rows: &sources[src].0.as_slice()[part],
                            steps: &sources[src].1,
                        })
                        .collect();
                    task(i, &PartitionRows { segments, stats })
                },
            )
        }
        // collapse() never returns a row node as base.
        _ => Err(RuntimeError::new("corrupt plan: row node as base")),
    }
}

/// The consumer of a total reduction: per partition, the fold of its
/// transformed rows with `op`, strictly left to right from the first one
/// (`None` for a partition with no rows), in one fused physical stage.
///
/// Over a scan with a columnar chain, a partition larger than
/// [`Context::morsel_size`] splits into morsels like a narrow stage. Each
/// morsel evaluates into a [`FoldPiece`] (its final tile columns), and an
/// [`OrderedFold`] folds every partition's pieces in row order as they
/// complete, on the workers. The fold never regroups, so the result bits
/// and the first error are those of one task per partition under any
/// schedule. Any other plan runs one task per partition through
/// [`consume`].
///
/// [`FoldPiece`]: crate::columnar::FoldPiece
pub(crate) fn fold(
    ctx: &Context,
    plan: &Arc<PlanOp>,
    label: &str,
    op: BinOp,
) -> Result<Vec<Option<Value>>> {
    let Collapsed { base, steps } = collapse(plan);
    let scan = matches!(base.as_ref(), PlanOp::Scan(_) | PlanOp::Cached(..));
    if !scan || !crate::columnar::eligible(&steps) {
        return consume(ctx, plan, label, |_, rows| rows.fold(op));
    }
    crate::verify::verify_plan(plan)?;
    let parts = read_scan(ctx, &base)?.expect("a scan or cached base");
    let stats = ctx.stats();
    ctx.record_physical_stage();
    ctx.plan_note(describe_stage(ctx, parts.len(), None, &steps, label));
    note_layout(ctx, &steps);
    let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
    let Some(items) = morsel_items(ctx, &sizes) else {
        return per_partition(ctx, &parts, |p| {
            PartitionRows::single(&parts[p], &steps, stats).fold(op)
        });
    };
    // Items are ordered by (partition, start), so an item's rank within
    // its partition is its distance from the partition's first item.
    let mut first = vec![0; parts.len()];
    let mut count = vec![0; parts.len()];
    for (i, &(p, _, _)) in items.iter().enumerate().rev() {
        first[p] = i;
        count[p] += 1;
    }
    let folds: Vec<OrderedFold> = count.into_iter().map(OrderedFold::new).collect();
    run_stage_weighted(
        ctx,
        &items,
        |i| (items[i].2 - items[i].1) as u64,
        |i, &(p, start, end): &Span, _| {
            let rows = &parts[p][start..end];
            let piece = crate::columnar::defer_chain(rows, &steps, TILE_ROWS, stats);
            folds[p].offer(i - first[p], piece, op);
            Ok::<_, RuntimeError>(())
        },
    )?;
    // The first error in partition order, as one task per partition.
    folds.into_iter().map(OrderedFold::finish).collect()
}

/// One partition's running fold over morsel pieces that complete in any
/// order. A piece parks until every earlier piece of its partition has
/// been folded; whichever worker completes that prefix folds the parked
/// run, outside the lock. The fold stays strictly in row order, and no
/// worker ever waits for another.
struct OrderedFold(Mutex<FoldState>);

struct FoldState {
    parked: Vec<Option<crate::columnar::FoldPiece>>,
    /// Rank of the next piece to fold.
    next: usize,
    /// A worker is folding; it will pick up pieces parked meanwhile.
    busy: bool,
    /// The fold so far, or the partition's first error.
    acc: Result<Option<Value>>,
}

impl OrderedFold {
    fn new(pieces: usize) -> OrderedFold {
        OrderedFold(Mutex::new(FoldState {
            parked: (0..pieces).map(|_| None).collect(),
            next: 0,
            busy: false,
            acc: Ok(None),
        }))
    }

    /// Hands in the piece of rank `rank` and folds every piece that is
    /// now next in line, unless another worker already does.
    fn offer(&self, rank: usize, piece: crate::columnar::FoldPiece, op: BinOp) {
        let mut st = self.0.lock().expect("fold state");
        st.parked[rank] = Some(piece);
        if st.busy {
            return;
        }
        st.busy = true;
        loop {
            let next = st.next;
            let Some(piece) = st.parked.get_mut(next).and_then(Option::take) else {
                st.busy = false;
                return;
            };
            st.next += 1;
            let mut acc = std::mem::replace(&mut st.acc, Ok(None));
            drop(st);
            // After an error the remaining pieces are only dropped.
            if let Ok(a) = &mut acc {
                if let Err(e) = piece.fold_into(op, a) {
                    acc = Err(e);
                }
            }
            st = self.0.lock().expect("fold state");
            st.acc = acc;
        }
    }

    fn finish(self) -> Result<Option<Value>> {
        let st = self.0.into_inner().expect("fold state");
        debug_assert_eq!(st.next, st.parked.len(), "every piece folded");
        st.acc
    }
}

/// Partitions `(key, value)` rows by key with `partitioner`: streams each
/// source partition's transformed rows into the exchange sink, the bucket
/// chosen per key.
pub(crate) fn shuffle_by(
    ctx: &Context,
    plan: &Arc<PlanOp>,
    label: &str,
    partitioner: &dyn Partitioner,
) -> Result<Vec<Vec<Value>>> {
    let p = ctx.partitions();
    exchange(ctx, plan, label, |_, rows, sink| {
        rows.for_each(&mut |row| {
            let (k, _) = key_value(&row)?;
            sink.emit(partitioner.partition(&k, p)?, row)
        })
    })
}

/// The exchange under every shuffle: runs `scatter` once per source
/// partition over the plan's *transformed* rows, streaming emitted rows
/// through an [`Exchange`] bounded by [`Context::memory_budget`] (buckets
/// past the budget spill to sorted run files), and merge-reads the
/// destination partitions back in source order.
pub(crate) fn exchange<F>(
    ctx: &Context,
    plan: &Arc<PlanOp>,
    label: &str,
    scatter: F,
) -> Result<Vec<Vec<Value>>>
where
    F: Fn(usize, &PartitionRows<'_>, &mut ExchangeWriter<'_>) -> Result<()> + Sync,
{
    let ex = Exchange::new(ctx.partitions(), ctx.memory_budget());
    consume(ctx, plan, label, |src, rows| {
        let mut writer = ex.writer(src);
        scatter(src, rows, &mut writer)?;
        writer.close()
    })?;
    ex.finish(ctx)
}

/// The sort-based shuffle: streams already key-sorted source partitions
/// through a **key-ordered** [`Exchange`] (same budget as [`exchange`];
/// chunks past it spill as sorted runs and merge straight from disk),
/// scattered with `partitioner` — a
/// [`RangePartitioner`](crate::RangePartitioner) keeps ordered keys in
/// contiguous buckets, so the merged buckets concatenate into globally
/// key-ordered output.
pub(crate) fn exchange_sorted(
    ctx: &Context,
    sources: Vec<Vec<Value>>,
    partitioner: &dyn Partitioner,
) -> Result<Vec<Vec<Value>>> {
    let p = ctx.partitions();
    let ex = Exchange::new_ordered(p, ctx.memory_budget());
    // Scatter sources in parallel like every other exchange: writers are
    // independent, chunks are tagged (source, sequence), and the ordered
    // merge breaks key ties by that tag, so the result is independent of
    // worker interleaving. Each task owns exactly its source partition
    // (taken out of the slot), so rows move into the sink without a clone.
    let slots: Vec<Mutex<Vec<Value>>> = sources.into_iter().map(Mutex::new).collect();
    crate::pool::run_stage(ctx, &slots, |src, slot| {
        let rows = std::mem::take(&mut *slot.lock().expect("source slot"));
        let mut writer = ex.writer(src);
        for row in rows {
            writer.emit(partitioner.partition(pair_key(&row), p)?, row)?;
        }
        writer.close()
    })?;
    ex.finish(ctx)
}

/// Flattens a tree of `Union` nodes into shared sources plus virtual
/// partitions (lists of `(source, partition)` indices), pushing the fused
/// steps above each branch down into its segments. The right operand's
/// partitions fold into the left's by index modulo the left's partition
/// count — the same composition the eager engine produced by extending
/// partition vectors, but without moving a row.
fn flatten_union(
    ctx: &Context,
    plan: &Arc<PlanOp>,
    extra: &[Step],
    sources: &mut Vec<(Parts, Vec<Step>)>,
    virt: &mut Vec<Vec<(usize, usize)>>,
) -> Result<()> {
    let Collapsed { base, steps } = collapse(plan);
    let mut all = steps;
    all.extend(extra.iter().cloned());
    // A cached operand reads in place like a scan once resolved.
    if let Some(parts) = read_scan(ctx, &base)? {
        let src = sources.len();
        let n = parts.len();
        sources.push((Parts::Shared(parts), all));
        virt.extend((0..n).map(|p| vec![(src, p)]));
        return Ok(());
    }
    match base.as_ref() {
        PlanOp::Union(l, r) => {
            let start = virt.len();
            flatten_union(ctx, l, &all, sources, virt)?;
            let n = virt.len() - start;
            let mut rvirt: Vec<Vec<(usize, usize)>> = Vec::new();
            flatten_union(ctx, r, &all, sources, &mut rvirt)?;
            if n == 0 {
                virt.extend(rvirt);
            } else {
                for (j, segs) in rvirt.into_iter().enumerate() {
                    virt[start + (j % n)].extend(segs);
                }
            }
            Ok(())
        }
        _ => {
            // MapPartitions under a union: materialize just this branch.
            let parts = materialize_with(ctx, &base, &all)?;
            let src = sources.len();
            let n = parts.as_slice().len();
            sources.push((parts, Vec::new()));
            virt.extend((0..n).map(|p| vec![(src, p)]));
            Ok(())
        }
    }
}

/// One run of source rows with the fused chain still to be applied.
struct Segment<'a> {
    rows: &'a [Value],
    steps: &'a [Step],
}

/// The rows of one (possibly union-composed) partition, as presented to a
/// partition-wise consumer.
pub(crate) struct PartitionRows<'a> {
    segments: Vec<Segment<'a>>,
    stats: &'a Stats,
}

impl<'a> PartitionRows<'a> {
    /// One run of rows with its fused chain.
    fn single(rows: &'a [Value], steps: &'a [Step], stats: &'a Stats) -> PartitionRows<'a> {
        PartitionRows {
            segments: vec![Segment { rows, steps }],
            stats,
        }
    }

    /// Feeds every transformed row to `sink`, segment by segment.
    pub(crate) fn for_each(&self, sink: &mut dyn FnMut(Value) -> Result<()>) -> Result<()> {
        for seg in &self.segments {
            run_chain(self.stats, seg.rows, seg.steps, sink)?;
        }
        Ok(())
    }

    /// Folds every transformed row with `op`, left to right from the first
    /// one (`None` when there are none). Transparent chains fold their
    /// final columnar lanes in place, in the same order.
    pub(crate) fn fold(&self, op: BinOp) -> Result<Option<Value>> {
        let mut acc = None;
        for seg in &self.segments {
            crate::columnar::fold_chain(seg.rows, seg.steps, TILE_ROWS, self.stats, op, &mut acc)?;
        }
        Ok(acc)
    }
}

fn describe_stage(
    ctx: &Context,
    parts: usize,
    prelude: Option<(&'static str, Tag)>,
    steps: &[Step],
    label: &str,
) -> String {
    let mut chain = String::new();
    let mut tags: Vec<Arc<str>> = Vec::new();
    let note_tag = |tags: &mut Vec<Arc<str>>, t: &Tag| {
        if let Some(t) = t {
            if !tags.iter().any(|x| x == t) {
                tags.push(t.clone());
            }
        }
    };
    if let Some((plabel, ptag)) = &prelude {
        chain.push_str(" → ");
        chain.push_str(plabel);
        note_tag(&mut tags, ptag);
    }
    for s in steps {
        chain.push_str(" → ");
        chain.push_str(s.label());
        note_tag(&mut tags, &s.tag);
    }
    let fused = steps.len() + usize::from(prelude.is_some());
    let stage = ctx.stats().snapshot().physical_stages;
    let mut out = if fused > 1 {
        format!("stage {stage}: scan[{parts}p]{chain} ⇒ {label} (fused {fused} narrow ops)")
    } else {
        format!("stage {stage}: scan[{parts}p]{chain} ⇒ {label}")
    };
    if tags.len() > 1 {
        out.push_str(&format!(
            " [spans stmts: {}]",
            tags.iter()
                .map(|t| t.as_ref())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    out
}

/// Renders a pending (unforced) plan as an indented tree — the narrow
/// chains a materialization point would fuse.
pub(crate) fn render(plan: &Arc<PlanOp>, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let Collapsed { base, steps } = collapse(plan);
    match base.as_ref() {
        PlanOp::Scan(parts) => {
            out.push_str(&format!("{pad}scan[{}p]", parts.len()));
        }
        PlanOp::Cached(_, inner) => {
            out.push_str(&format!("{pad}cached("));
            let mut body = String::new();
            render(inner, 0, &mut body);
            out.push_str(&body);
            out.push(')');
        }
        PlanOp::MapPartitions(input, _, label, _) => {
            render(input, indent, out);
            out.push_str(" → ");
            out.push_str(label);
        }
        PlanOp::Union(l, r) => {
            out.push_str(&format!("{pad}union:\n"));
            render(l, indent + 1, out);
            out.push('\n');
            render(r, indent + 1, out);
        }
        // collapse() never returns a row node as base.
        PlanOp::Map(_, _, _, _) | PlanOp::Filter(_, _, _, _) | PlanOp::FlatMap(_, _, _) => {}
    }
    for s in &steps {
        out.push_str(" → ");
        out.push_str(s.label());
    }
    if steps.len() > 1 {
        out.push_str(&format!(" (1 fused stage, {} ops)", steps.len()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covered_rows(items: &[Span], sizes: &[usize]) -> Vec<usize> {
        // Rows covered per partition, also checking span contiguity/order.
        let mut covered = vec![0usize; sizes.len()];
        let mut last: Option<(usize, usize)> = None;
        for &(p, start, end) in items {
            if let Some((lp, lend)) = last {
                assert!(
                    p > lp || (p == lp && start == lend),
                    "spans ordered by (partition, start) and contiguous"
                );
            }
            covered[p] += end - start;
            last = Some((p, end));
        }
        covered
    }

    #[test]
    fn morsel_plan_splits_only_oversized_partitions() {
        let sizes = [100, 10, 250];
        let items = morsel_plan(&sizes, 100).expect("partition 2 splits");
        assert_eq!(covered_rows(&items, &sizes), sizes.to_vec());
        // Partition 2 (250 rows, morsel 100) → 3 even spans of ≤ 100.
        let p2: Vec<_> = items.iter().filter(|&&(p, _, _)| p == 2).collect();
        assert_eq!(p2.len(), 3);
        assert!(p2.iter().all(|&&(_, s, e)| e - s <= 100));
        // Partitions at or below the morsel size stay whole.
        assert!(items.contains(&(0, 0, 100)));
    }

    #[test]
    fn morsel_plan_is_none_when_nothing_splits() {
        assert!(morsel_plan(&[10, 20, 30], 100).is_none());
        assert!(morsel_plan(&[], 100).is_none());
        assert!(morsel_plan(&[0, 0, 0], 1).is_none(), "nothing to do");
    }

    #[test]
    fn morsel_size_one_isolates_every_row() {
        let sizes = [3, 1];
        let items = morsel_plan(&sizes, 1).expect("splits");
        assert_eq!(items.len(), 4);
        assert_eq!(covered_rows(&items, &sizes), sizes.to_vec());
    }

    #[test]
    fn tiny_partitions_keep_their_own_tasks() {
        // No coalescing: each small partition stays its own task next to
        // the split one, so small stages still spread across workers.
        let sizes = [5, 5, 5, 4000];
        let items = morsel_plan(&sizes, 1000).expect("partition 3 splits");
        assert_eq!(items.len(), 3 + 4);
        assert_eq!(covered_rows(&items, &sizes), sizes.to_vec());
    }

    #[test]
    fn static_scheduler_never_splits() {
        let ctx = Context::new(2, 2).with_morsel_size(4);
        assert!(morsel_items(&ctx, &[100, 3]).is_some());
        ctx.set_static_scheduler(true);
        assert!(morsel_items(&ctx, &[100, 3]).is_none());
    }

    /// `1e16` first, then ones: folded left to right, every `+ 1.0`
    /// rounds away (`1e16 + 1` ties to even); any regrouping adds the
    /// ones' partial sums and changes the bits.
    fn order_sensitive(n: usize) -> Vec<Value> {
        std::iter::once(Value::Double(1e16))
            .chain((1..n).map(|_| Value::Double(1.0)))
            .collect()
    }

    #[test]
    fn total_reductions_fold_without_regrouping_under_any_morsel_size() {
        let rows = order_sensitive(5_000);
        let sum = diablo_runtime::AggOp::new(BinOp::Add).unwrap();
        for morsel in [1, 3, 64, 100_000] {
            for fixed in [false, true] {
                let ctx = Context::new(2, 2)
                    .with_morsel_size(morsel)
                    .with_static_scheduler(fixed);
                let d = ctx
                    .from_partitions(vec![rows.clone(), rows.clone()])
                    .map_expr(RowExpr::Input)
                    .unwrap();
                // Each partition folds to 1e16; the partials add to 2e16.
                let got = d.aggregate(sum).unwrap();
                assert_eq!(
                    format!("{got:?}"),
                    format!("{:?}", Value::Double(2e16)),
                    "morsel {morsel}, static scheduler {fixed}"
                );
            }
        }
    }

    #[test]
    fn ordered_fold_takes_pieces_in_any_arrival_order() {
        let stats = Stats::default();
        let id = [Step {
            op: StepOp::Map(Arc::new(|v: &Value| Ok(v.clone()))),
            tag: None,
            expr: Some(Arc::new(RowExpr::Input)),
        }];
        let mut poisoned = order_sensitive(100);
        // `+` of a double and a bool fails in the fold, at row 50.
        poisoned[50] = Value::Bool(true);
        for rows in [order_sensitive(100), poisoned] {
            let mut whole = None;
            let want = crate::columnar::fold_chain(&rows, &id, 4, &stats, BinOp::Add, &mut whole)
                .map(|()| format!("{whole:?}"))
                .map_err(|e| e.message);
            let n = rows.chunks(7).count();
            let forward: Vec<usize> = (0..n).collect();
            let backward: Vec<usize> = (0..n).rev().collect();
            let odd_first: Vec<usize> = (1..n).step_by(2).chain((0..n).step_by(2)).collect();
            for order in [forward, backward, odd_first] {
                let mut pieces: Vec<Option<_>> = rows
                    .chunks(7)
                    .map(|c| Some(crate::columnar::defer_chain(c, &id, 4, &stats)))
                    .collect();
                let fold = OrderedFold::new(n);
                for &rank in &order {
                    fold.offer(rank, pieces[rank].take().unwrap(), BinOp::Add);
                }
                let got = fold
                    .finish()
                    .map(|acc| format!("{acc:?}"))
                    .map_err(|e| e.message);
                assert_eq!(got, want, "arrival order {order:?}");
            }
        }
    }
}
