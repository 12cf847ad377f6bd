//! The batch workloads (`scan-agg`, `iterate`): passes
//! over a set of programs, each compiled, bound, run and collected on one
//! engine `Context`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use diablo_dataflow::{Context, StatsSnapshot};
use diablo_exec::Session;
use diablo_runtime::Value;
use diablo_workloads::Workload;

use crate::compare::{self, Out, Outputs};
use crate::jobs::{self, Steps};
use crate::report::RunOutput;
use crate::stats::{geomean, median, percentile};
use crate::trace::{Arg, Tracer};

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// A program with its inputs and its reference outputs.
pub struct Prepared {
    /// The program and its generated inputs.
    pub w: Workload,
    /// The interpreter's outputs for those inputs.
    pub reference: Outputs,
}

/// One job: a program compiled, bound, run and collected.
pub struct JobRecord {
    /// Wall time of the job, from parsing to dropping the session.
    pub total_ms: f64,
    /// Step timings.
    pub steps: Steps,
    /// Engine counters accumulated during `Session::run`.
    pub delta: StatsSnapshot,
    /// Whether the job ran and its outputs matched the reference.
    pub ok: bool,
}

/// Step names of a job, in call order (`exec.collect` once per output).
pub const JOB_STEPS: [&str; 9] = [
    "lang.parse",
    "lang.typecheck",
    "core.restrict",
    "core.translate",
    "core.lint",
    "exec.bind",
    "exec.run",
    "exec.collect",
    "exec.drop",
];

fn execute(
    ctx: &Context,
    w: &Workload,
    inputs: Vec<(&str, Vec<Value>)>,
    m: &mut Steps,
) -> Result<(Outputs, StatsSnapshot), String> {
    let (_, compiled) = jobs::front_end(w.source, m)?;
    let mut session = Session::new(ctx.clone());
    m.time("exec.bind", || {
        for (name, v) in &w.scalars {
            session.bind_scalar(name, v.clone());
        }
        for (name, rows) in inputs {
            session.bind_input(name, rows);
        }
    });
    let before = ctx.stats_snapshot();
    let ran = m.time("exec.run", || session.run(&compiled));
    let delta = ctx.stats_snapshot().since(&before);
    ran.map_err(|e| e.to_string())?;
    let mut outputs = Vec::with_capacity(w.outputs.len());
    for out in &w.outputs {
        let value = m.time("exec.collect", || match session.scalar(out) {
            Some(v) => Some(Out::Scalar(v)),
            None => session.collect(out).map(Out::Rows),
        });
        let value = value.ok_or_else(|| format!("output `{out}` not bound"))?;
        outputs.push((out.to_string(), value));
    }
    m.time("exec.drop", || drop(session));
    Ok((outputs, delta))
}

/// Runs one job and checks its outputs. `inputs` are the benchmark's own
/// copies, made before the job's clock starts. A job that errors, panics
/// or differs from the reference is not ok; the run goes on.
pub fn run_job(
    ctx: &Context,
    p: &Prepared,
    inputs: Vec<(&str, Vec<Value>)>,
    tracer: Option<(&mut Tracer, usize)>,
) -> JobRecord {
    let mut steps = Steps::new();
    let result = catch_unwind(AssertUnwindSafe(|| execute(ctx, &p.w, inputs, &mut steps)))
        .unwrap_or_else(|_| Err("panicked".to_string()));
    let end = Instant::now();
    let (ok, delta) = match result {
        Ok((outputs, delta)) => match compare::check(&outputs, &p.reference) {
            Ok(()) => (true, delta),
            Err(e) => {
                eprintln!("paperbench: {}: {e}", p.w.name);
                (false, delta)
            }
        },
        Err(e) => {
            eprintln!("paperbench: {}: {e}", p.w.name);
            (false, StatsSnapshot::default())
        }
    };
    if let Some((t, parent)) = tracer {
        let span = t.record(
            "program",
            Some(parent),
            steps.start,
            end,
            vec![("program", Arg::Str(p.w.name.to_string()))],
        );
        let mut counters: Vec<(&str, Arg)> = COUNTERS
            .iter()
            .map(|(name, f)| (&name["dataflow.".len()..], Arg::Num(f(&delta) as f64)))
            .collect();
        counters.push(("sched_cost_us", Arg::Num(delta.sched_cost_us as f64)));
        steps.record(t, span, Some(("exec.run", counters)));
    }
    JobRecord {
        total_ms: end.duration_since(steps.start).as_secs_f64() * 1e3,
        steps,
        delta,
        ok,
    }
}

/// One pass over every program.
pub struct Pass {
    /// Whether spans were recorded.
    pub traced: bool,
    /// One record per program, in program order.
    pub jobs: Vec<JobRecord>,
}

impl Pass {
    /// The pass time in seconds: the sum of its jobs' times (the
    /// benchmark's input copies and output checks between jobs excluded).
    pub fn secs(&self) -> f64 {
        self.jobs.iter().map(|j| j.total_ms).sum::<f64>() / 1e3
    }

    fn sum(&self, f: impl Fn(&JobRecord) -> f64) -> f64 {
        self.jobs.iter().map(f).sum()
    }
}

/// Runs every program once.
pub fn run_pass(ctx: &Context, progs: &[Prepared], mut tracer: Option<&mut Tracer>) -> Pass {
    let start = Instant::now();
    let parent = tracer
        .as_deref_mut()
        .map(|t| t.record("pass", None, start, start, vec![]));
    let mut jobs = Vec::with_capacity(progs.len());
    for p in progs {
        let inputs: Vec<(&str, Vec<Value>)> =
            p.w.collections
                .iter()
                .map(|(n, r)| (*n, r.clone()))
                .collect();
        let t = tracer.as_deref_mut().zip(parent);
        jobs.push(run_job(ctx, p, inputs, t));
    }
    if let (Some(t), Some(i)) = (tracer, parent) {
        t.set_end(i, Instant::now());
    }
    Pass {
        traced: parent.is_some(),
        jobs,
    }
}

/// Reads one counter out of a stats snapshot.
type Counter = fn(&StatsSnapshot) -> u64;

/// Engine counters reported per pass, summed over its jobs.
const COUNTERS: [(&str, Counter); 13] = [
    ("dataflow.physical_stages", |d| d.physical_stages),
    ("dataflow.shuffles", |d| d.shuffles),
    ("dataflow.shuffled_records", |d| d.shuffled_records),
    ("dataflow.shuffled_bytes", |d| d.shuffled_bytes),
    ("dataflow.broadcast_records", |d| d.broadcast_records),
    ("dataflow.spilled_bytes", |d| d.spilled_bytes),
    ("dataflow.morsels", |d| d.morsels),
    ("dataflow.steals", |d| d.steals),
    ("dataflow.vectorized_batches", |d| d.vectorized_batches),
    ("dataflow.row_fallback_stages", |d| d.row_fallback_stages),
    ("dataflow.dataset_spills", |d| d.dataset_spills),
    ("dataflow.dataset_evictions", |d| d.dataset_evictions),
    ("dataflow.dataset_recomputes", |d| d.dataset_recomputes),
];

/// Runs a batch workload: setups, then passes until `seconds` have gone.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared: Vec<Prepared> = Vec::new();
    let mut references: Vec<Outputs> = Vec::new();
    let mut ctx = None;
    for rep in 0..SETUP_REPS {
        // Free the previous setup's inputs and engine before timing anew.
        prepared.clear();
        drop(ctx.take());
        let t = Instant::now();
        let ws = jobs::batch_programs(workload, seed)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?;
        let generate = t.elapsed();
        if rep == 0 {
            references = jobs::oracles(&ws)?;
        }
        let t = Instant::now();
        for (w, reference) in ws.into_iter().zip(&references) {
            let reference = reference.clone();
            prepared.push(Prepared { w, reference });
        }
        let c = Context::default_parallel();
        let warm = run_pass(&c, &prepared, None);
        setups.push((generate + t.elapsed()).as_secs_f64());
        out.count(warm.jobs.iter().map(|j| j.ok));
        ctx = Some(c);
    }
    let ctx = ctx.expect("at least one setup");
    out.settings = diablo_bench::settings_fields(&ctx);

    jobs::reset_peak_rss();
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, 1);
    let min_passes = if trace { 4 } else { 3 };
    let mut passes: Vec<Pass> = Vec::new();
    while origin.elapsed().as_secs_f64() < seconds || passes.len() < min_passes {
        let traced = trace && passes.len().is_multiple_of(2);
        let pass = run_pass(&ctx, &prepared, traced.then_some(&mut tracer));
        out.count(pass.jobs.iter().map(|j| j.ok));
        passes.push(pass);
    }
    let secs: Vec<String> = passes.iter().map(|p| format!("{:.4}", p.secs())).collect();
    println!("# pass_s {}", secs.join(" "));

    out.metrics.push("setup_s", median(&setups), setups.len());
    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.traced);
    if trace {
        per_layer(&mut out, &traced, &untraced, &prepared, &ctx)?;
        out.tracers.push(tracer);
    } else {
        end_to_end(&mut out, &untraced);
    }
    Ok(out)
}

/// Per program, the median of `f` over the passes.
fn per_program(passes: &[&Pass], f: impl Fn(&JobRecord) -> f64) -> Vec<f64> {
    let programs = passes.first().map_or(0, |p| p.jobs.len());
    (0..programs)
        .map(|i| median(&passes.iter().map(|p| f(&p.jobs[i])).collect::<Vec<_>>()))
        .collect()
}

/// The request percentiles of a batch workload: a job's typical time,
/// with each program weighted once at its median job time. (Over raw job
/// times, with a handful of passes per run, the median falls between two
/// programs and the 99th percentile is the single slowest job, so both
/// would follow noise rather than the mix.)
fn request_ms(passes: &[&Pass], p: f64) -> (f64, usize) {
    percentile(&per_program(passes, |j| j.total_ms), p)
}

fn end_to_end(out: &mut RunOutput, passes: &[&Pass]) {
    let m = &mut out.metrics;
    let mix: Vec<f64> = passes.iter().map(|p| p.secs()).collect();
    m.push("mix_s", median(&mix), mix.len());
    let program_ms = per_program(passes, |j| j.total_ms);
    m.push("program_ms_geomean", geomean(&program_ms), mix.len());
    let jobs: usize = passes.iter().map(|p| p.jobs.len()).sum();
    let secs: f64 = mix.iter().sum();
    m.push("requests_per_s", jobs as f64 / secs, jobs);
    let (p50, n) = request_ms(passes, 50.0);
    m.push("request_ms_p50", p50, n);
    let (p99, n) = request_ms(passes, 99.0);
    m.push("request_ms_p99", p99, n);
    m.push("peak_rss_mb", jobs::peak_rss_mb(), 1);
}

fn per_layer(
    out: &mut RunOutput,
    traced: &[&Pass],
    untraced: &[&Pass],
    prepared: &[Prepared],
    ctx: &Context,
) -> Result<(), String> {
    let m = &mut out.metrics;
    let n = traced.len();
    let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
    for step in &JOB_STEPS[..5] {
        m.push(
            format!("{step}_us"),
            med(&|p| p.sum(|j| j.steps.us(step))),
            n,
        );
    }
    let mut target = 0;
    for p in prepared {
        let compiled = diablo_core::compile(p.w.source).map_err(|e| e.to_string())?;
        target += jobs::target_bytes(&compiled.stmts);
    }
    m.push("core.target_bytes", target as f64, 1);
    for step in &JOB_STEPS[5..8] {
        m.push(
            format!("{step}_ms"),
            med(&|p| p.sum(|j| j.steps.us(step)) / 1e3),
            n,
        );
    }
    for (name, f) in COUNTERS {
        m.push(name, med(&|p| p.sum(|j| f(&j.delta) as f64)), n);
    }
    let stage_ms = med(&|p| p.sum(|j| j.delta.sched_cost_us as f64)) / 1e3;
    m.push("dataflow.stage_ms", stage_ms, n);
    let run_ms = med(&|p| p.sum(|j| j.steps.us("exec.run")) / 1e3);
    m.push("dataflow.coordination_ms", run_ms - stage_ms, n);
    let balance = med(&|p| {
        let critical = p.sum(|j| j.delta.sched_critical_us as f64);
        p.sum(|j| j.delta.sched_cost_us as f64) / critical.max(1.0)
    });
    m.push("dataflow.balance", balance, n);

    // Paper context: hand-written programs on the same Context and inputs,
    // and the sequential interpreter on the same inputs.
    let handwritten: f64 = prepared
        .iter()
        .map(|p| {
            let samples: Vec<f64> = (0..3)
                .filter_map(|_| diablo_bench::run_handwritten(&p.w, ctx))
                .map(|t| t.as_secs_f64() * 1e3)
                .collect();
            median(&samples)
        })
        .sum();
    let diablo_run: f64 = per_program(traced, |j| j.steps.us("exec.run") / 1e3)
        .iter()
        .sum();
    m.push("baselines.handwritten_ms", handwritten, 3);
    m.push("core.gap_vs_handwritten", diablo_run / handwritten, n);
    let ws: Vec<&Workload> = prepared.iter().map(|p| &p.w).collect();
    let interp = jobs::interp_seq_ms(&ws);
    m.push("interp.seq_ms", interp, jobs::INTERP_REPS);
    m.push("exec.speedup_vs_interp", interp / diablo_run, n);

    let mix = |ps: &[&Pass]| median(&ps.iter().map(|p| p.secs()).collect::<Vec<_>>());
    let p50 = |ps: &[&Pass]| request_ms(ps, 50.0).0;
    out.trace_overhead((mix(traced), mix(untraced)), (p50(traced), p50(untraced)));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_workloads as wl;

    fn prepared(w: Workload) -> Prepared {
        let reference = jobs::oracle(&w).unwrap();
        Prepared { w, reference }
    }

    #[test]
    fn a_matching_job_is_ok_and_traced_spans_cover_it() {
        let ctx = Context::new(2, 4);
        let p = prepared(wl::word_count(300, 4));
        let mut t = Tracer::new(Instant::now(), 1);
        let pass = run_pass(&ctx, std::slice::from_ref(&p), Some(&mut t));
        assert!(pass.jobs[0].ok);
        assert!(pass.jobs[0].delta.shuffles > 0);
        let names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
        let mut want = vec!["pass", "program"];
        want.extend(JOB_STEPS);
        assert_eq!(names, want);
        // Steps bracket their calls only, so the code between them is the
        // program span's own time: coverage is high but never complete.
        let (lowest, checked, _) = crate::trace::coverage(&[t], &["program"], 0.05);
        assert_eq!(checked, 1);
        assert!(lowest > 0.5 && lowest < 1.0, "{lowest}");
    }

    #[test]
    fn a_perturbed_reference_row_counts_as_a_failed_job() {
        let ctx = Context::new(2, 4);
        let mut p = prepared(wl::group_by(300, 6));
        let Out::Rows(rows) = &mut p.reference[0].1 else {
            panic!("Group By outputs a collection");
        };
        let (k, _) = diablo_runtime::array::key_value(&rows[0]).unwrap();
        rows[0] = Value::pair(k, Value::str("perturbed"));
        let pass = run_pass(&ctx, std::slice::from_ref(&p), None);
        let mut out = RunOutput::default();
        out.count(pass.jobs.iter().map(|j| j.ok));
        assert_eq!((out.attempted, out.failed), (1, 1));
    }
}
