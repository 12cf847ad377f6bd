//! Scheduler stress suite: the morsel-driven work-stealing scheduler must
//! be invisible in results. Every Figure 3 workload is run under a grid of
//! scheduler configurations — worker counts {1, 2, 7, all}, morsel sizes
//! {1 row, 64 rows, default}, the static self-scheduling pool, and
//! exchange budgets {4096, 0} — on both the hash and the `--ordered`
//! keyed paths, and every output must be *byte-identical* (exact `Value`
//! equality, not approximate) to a one-worker reference run. Separately,
//! injected mid-morsel failures must surface the same first error and
//! statement tag no matter how morsels were split, stolen, or cancelled.

use diablo_dataflow::Context;
use diablo_exec::Session;
use diablo_runtime::{RuntimeError, Value};
use diablo_workloads::Workload;

/// Partition count is pinned across every configuration: partitioning is
/// semantics (it decides chunk boundaries and shuffle fan-in), while
/// workers, morsel size, scheduler, and exchange budget are pure
/// execution policy and must not show through.
const PARTITIONS: usize = 5;

/// One scheduler configuration under test.
struct Cfg {
    label: String,
    workers: usize,
    morsel_size: Option<usize>,
    static_scheduler: bool,
    memory_budget: Option<u64>,
}

impl Cfg {
    fn new(label: &str, workers: usize) -> Cfg {
        Cfg {
            label: label.into(),
            workers,
            morsel_size: None,
            static_scheduler: false,
            memory_budget: None,
        }
    }

    fn context(&self, ordered: bool) -> Context {
        let ctx = Context::new(self.workers, PARTITIONS);
        if let Some(rows) = self.morsel_size {
            ctx.set_morsel_size(rows);
        }
        ctx.set_static_scheduler(self.static_scheduler);
        ctx.set_memory_budget(self.memory_budget);
        ctx.set_ordered(ordered);
        ctx
    }
}

fn all_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// The grid: the {1, 64, default} morsel axis at three worker counts,
/// the retained static pool (which never splits), and the spilling
/// exchange budgets, so every schedule is compared on every workload.
fn scheduler_grid() -> Vec<Cfg> {
    let mut grid = vec![
        Cfg {
            static_scheduler: true,
            ..Cfg::new("w7 static-scheduler", 7)
        },
        Cfg {
            memory_budget: Some(4096),
            ..Cfg::new("w2 budget 4096", 2)
        },
        Cfg {
            memory_budget: Some(0),
            ..Cfg::new("w7 budget 0", 7)
        },
    ];
    for workers in [2, 7, all_workers()] {
        for (tag, morsel) in [("m1", Some(1)), ("m64", Some(64)), ("mdefault", None)] {
            grid.push(Cfg {
                morsel_size: morsel,
                ..Cfg::new(&format!("w{workers} {tag}"), workers)
            });
        }
    }
    grid
}

/// Compiles and runs a workload on the given context, returning every
/// declared output as `(name, scalar, rows)`.
type Outputs = Vec<(String, Option<Value>, Option<Vec<Value>>)>;

fn run_workload(w: &Workload, ctx: Context) -> Outputs {
    let compiled =
        diablo_core::compile(w.source).unwrap_or_else(|e| panic!("{}: compile: {e}", w.name));
    let mut session = Session::new(ctx);
    for (name, v) in &w.scalars {
        session.bind_scalar(name, v.clone());
    }
    for (name, rows) in &w.collections {
        session.bind_input(name, rows.clone());
    }
    session
        .run(&compiled)
        .unwrap_or_else(|e| panic!("{}: run: {e}", w.name));
    w.outputs
        .iter()
        .map(|out| {
            (
                (*out).to_string(),
                session.scalar(out),
                session.collect(out),
            )
        })
        .collect()
}

fn check_fig3_identity(ordered: bool) {
    let mode = if ordered { "ordered" } else { "hash" };
    let reference_cfg = Cfg::new("w1 reference", 1);
    for w in diablo_workloads::figure3_workloads(1, 42) {
        let reference = run_workload(&w, reference_cfg.context(ordered));
        for cfg in scheduler_grid() {
            let got = run_workload(&w, cfg.context(ordered));
            assert_eq!(
                got, reference,
                "{}/{mode}: `{}` is not byte-identical to the one-worker reference",
                w.name, cfg.label
            );
        }
    }
}

#[test]
fn fig3_outputs_are_byte_identical_across_scheduler_configs_hash() {
    check_fig3_identity(false);
}

#[test]
fn fig3_outputs_are_byte_identical_across_scheduler_configs_ordered() {
    check_fig3_identity(true);
}

/// A heavily skewed three-partition input: the middle partition holds
/// ~98% of the rows, so the morsel scheduler splits it into many spans
/// that race across workers while the edges finish instantly.
fn skewed_parts() -> Vec<Vec<Value>> {
    vec![
        (0..10).map(Value::Long).collect(),
        (10_000..15_000).map(Value::Long).collect(),
        (20_000..20_010).map(Value::Long).collect(),
    ]
}

/// Runs a poisoned map over the skewed input and returns the surfaced
/// error. Three rows fail — 11_000 and 14_000 deep inside the skewed
/// partition (different morsels, so work stealing races them) and
/// 20_005 in the last partition — and only the canonically-first one
/// (row 11_000) may ever surface, with its statement tag intact.
fn poisoned_run(ctx: Context) -> RuntimeError {
    ctx.set_memory_budget(None);
    ctx.set_statement_label(Some("s7: C := poisoned morsel map"));
    let d = ctx
        .from_partitions(skewed_parts())
        .map(|v| match v.as_long() {
            Some(11_000) => Err(RuntimeError::new("boom at the first poisoned row")),
            Some(14_000) => Err(RuntimeError::new("boom at a later morsel")),
            Some(20_005) => Err(RuntimeError::new("boom in the last partition")),
            _ => Ok(v.clone()),
        })
        .unwrap();
    ctx.set_statement_label(None);
    d.try_collect().unwrap_err()
}

#[test]
fn midmorsel_failures_surface_the_same_first_error_everywhere() {
    let reference = poisoned_run(Context::new(1, PARTITIONS));
    assert!(
        reference.message.contains("boom at the first poisoned row"),
        "reference picked the wrong row: {reference}"
    );
    assert!(
        reference.message.contains("s7: C := poisoned morsel map"),
        "reference lost the statement tag: {reference}"
    );
    for cfg in scheduler_grid() {
        let got = poisoned_run(cfg.context(false));
        assert_eq!(
            got.message, reference.message,
            "`{}` surfaced a different first error",
            cfg.label
        );
    }
}

#[test]
fn statement_tags_survive_stolen_and_cancelled_morsels() {
    // Single-row morsels on a wide pool maximize steal traffic and the
    // number of in-flight morsels the poison flag must cancel; the tagged
    // error must still come out whole every time.
    for trial in 0..5 {
        let ctx = Context::new(7, PARTITIONS).with_morsel_size(1 + trial % 3);
        let err = poisoned_run(ctx);
        assert!(
            err.message.contains("boom at the first poisoned row")
                && err.message.contains("s7: C := poisoned morsel map"),
            "trial {trial}: first error or tag lost under stealing: {err}"
        );
    }
}
