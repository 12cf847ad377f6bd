//! # diablo-bench
//!
//! Measurement helpers behind the `harness` binary and the Criterion
//! benches: run a [`Workload`] through (a) the DIABLO pipeline on the
//! engine, (b) the sequential reference interpreter, (c) the hand-written
//! engine program, and (d) a Casper-synthesized summary where one exists —
//! timing each. The `harness` binary assembles these into the paper's
//! tables and figures.

use std::time::{Duration, Instant};

use diablo_baselines::handwritten;
use diablo_dataflow::{Context, Dataset};
use diablo_exec::Session;
use diablo_interp::Interpreter;
use diablo_runtime::{RuntimeError, Value};
use diablo_workloads::Workload;

/// Result alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Times one closure invocation.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Median wall-clock time of `runs` invocations (plus one discarded
/// warm-up run, mirroring the paper's methodology of §6).
pub fn time_median(runs: usize, mut f: impl FnMut()) -> Duration {
    assert!(runs >= 1);
    let mut times: Vec<Duration> = Vec::with_capacity(runs);
    for i in 0..=runs {
        let start = Instant::now();
        f();
        let t = start.elapsed();
        if i > 0 || runs == 1 {
            times.push(t);
        }
    }
    times.sort();
    times[times.len() / 2]
}

/// Compiles a workload's program, returning the compile time.
pub fn compile_time(w: &Workload) -> Duration {
    let (r, t) = time_once(|| diablo_core::compile(w.source));
    r.expect("benchmark programs compile");
    t
}

/// Builds a session with the workload's inputs bound.
pub fn session_for(w: &Workload, ctx: &Context) -> Session {
    let mut s = Session::new(ctx.clone());
    for (name, v) in &w.scalars {
        s.bind_scalar(name, v.clone());
    }
    for (name, rows) in &w.collections {
        s.bind_input(name, rows.clone());
    }
    s
}

/// Runs the DIABLO-compiled program on the engine; returns the run time
/// (compile time excluded — Figure 3 measures execution).
pub fn run_diablo(w: &Workload, ctx: &Context) -> Duration {
    let compiled = diablo_core::compile(w.source).expect("compiles");
    let mut s = session_for(w, ctx);
    let (r, t) = time_once(|| s.run(&compiled));
    r.unwrap_or_else(|e| panic!("{}: {e}", w.name));
    t
}

/// Runs the DIABLO-compiled program and collects every output
/// collection (in engine partition order) alongside the run time — for
/// conformance-style benches (`harness out-of-core`) that compare rows
/// across engine configurations, not just clocks.
pub fn run_diablo_outputs(w: &Workload, ctx: &Context) -> (Vec<(String, Vec<Value>)>, Duration) {
    let compiled = diablo_core::compile(w.source).expect("compiles");
    let mut s = session_for(w, ctx);
    let (r, t) = time_once(|| s.run(&compiled));
    r.unwrap_or_else(|e| panic!("{}: {e}", w.name));
    let outputs = w
        .outputs
        .iter()
        .map(|out| {
            (
                out.to_string(),
                s.dataset(out)
                    .unwrap_or_else(|| panic!("{}: output {out} not bound", w.name))
                    .collect(),
            )
        })
        .collect();
    (outputs, t)
}

/// Runs the workload on the sequential reference interpreter.
pub fn run_interp(w: &Workload) -> Duration {
    let tp =
        diablo_lang::typecheck(diablo_lang::parse(w.source).expect("parses")).expect("type checks");
    let mut interp = Interpreter::new();
    for (name, v) in &w.scalars {
        interp.bind_scalar(name, v.clone());
    }
    for (name, rows) in &w.collections {
        interp.bind_collection(name, rows.clone()).expect("binds");
    }
    let (r, t) = time_once(|| interp.run(&tp));
    r.unwrap_or_else(|e| panic!("{}: {e}", w.name));
    t
}

/// Runs the hand-written engine program for a Figure 3 workload; returns
/// `None` for workloads without one.
pub fn run_handwritten(w: &Workload, ctx: &Context) -> Option<Duration> {
    let data: Vec<(&str, Dataset)> = w
        .collections
        .iter()
        .map(|(n, rows)| (*n, ctx.from_vec(rows.clone())))
        .collect();
    let get = |name: &str| -> Dataset {
        data.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| d.clone())
            .expect("input bound")
    };
    let scalar = |name: &str| -> Value {
        w.scalars
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
            .expect("scalar bound")
    };
    let t = match w.name {
        "Conditional Sum" => {
            let v = get("V");
            time_once(|| handwritten::conditional_sum(&v).unwrap()).1
        }
        "Equal" => {
            let v = get("V");
            let x = scalar("x");
            time_once(|| handwritten::equal(&v, &x).unwrap()).1
        }
        "String Match" => {
            let words = get("words");
            time_once(|| handwritten::string_match(&words).unwrap()).1
        }
        "Word Count" => {
            let words = get("words");
            time_once(|| handwritten::word_count(&words).unwrap()).1
        }
        "Histogram" => {
            let p = get("P");
            time_once(|| handwritten::histogram(&p).unwrap()).1
        }
        "Linear Regression" => {
            let p = get("P");
            let n = scalar("n").as_long().expect("n");
            time_once(|| handwritten::linear_regression(&p, n).unwrap()).1
        }
        "Group By" => {
            let v = get("V");
            time_once(|| handwritten::group_by(&v).unwrap()).1
        }
        "Matrix Addition" => {
            let (m, n) = (get("M"), get("N"));
            time_once(|| handwritten::matrix_addition(&m, &n).unwrap()).1
        }
        "Matrix Multiplication" => {
            let (m, n) = (get("M"), get("N"));
            time_once(|| handwritten::matrix_multiplication(&m, &n).unwrap()).1
        }
        "PageRank" => {
            let e = get("E");
            let vertices = scalar("vertices").as_long().expect("vertices");
            let steps = scalar("num_steps").as_long().expect("steps") as usize;
            time_once(|| handwritten::pagerank(&e, vertices, steps).unwrap()).1
        }
        "KMeans" => {
            let p = get("P");
            let initial: Vec<(f64, f64)> = w
                .collections
                .iter()
                .find(|(n, _)| *n == "C0")
                .expect("C0")
                .1
                .iter()
                .map(|row| {
                    let (_, xy) = diablo_runtime::array::key_value(row).expect("pair");
                    let f = xy.as_tuple().expect("point");
                    (f[0].as_double().unwrap(), f[1].as_double().unwrap())
                })
                .collect();
            let steps = scalar("num_steps").as_long().expect("steps") as usize;
            time_once(|| handwritten::kmeans(&p, &initial, steps).unwrap()).1
        }
        "Matrix Factorization" => {
            let r = get("R");
            let p0 = get("Pinit");
            let q0 = get("Qinit");
            let steps = scalar("num_steps").as_long().expect("steps") as usize;
            let a = scalar("a").as_double().expect("a");
            let b = scalar("b").as_double().expect("b");
            time_once(|| handwritten::matrix_factorization(&r, &p0, &q0, steps, a, b).unwrap()).1
        }
        _ => return None,
    };
    Some(t)
}

/// Executes a Casper-synthesized summary on the engine (map + reduce, or
/// map + reduceByKey), returning its run time.
pub fn run_casper_program(
    prog: &diablo_baselines::casper_like::CasperProgram,
    w: &Workload,
    ctx: &Context,
) -> Result<Duration> {
    use diablo_comp::eval as ceval;
    let rows = ctx.from_vec(w.collections[0].1.clone());
    let scalars: Vec<(String, Value)> = w
        .scalars
        .iter()
        .map(|(n, v)| (n.to_string(), v.clone()))
        .collect();
    let map_expr = prog.map_expr.clone();
    let key_expr = prog.key_expr.clone();
    let op = prog.reduce_op;
    let start = Instant::now();
    let mapped = rows.map(move |row| {
        let (_, v) = diablo_runtime::array::key_value(row)?;
        let mut env = diablo_comp::Env::new();
        env.insert("v".into(), v);
        for (n, val) in &scalars {
            env.insert(n.clone(), val.clone());
        }
        let value = ceval(&map_expr, &env)?;
        match &key_expr {
            Some(k) => Ok(Value::pair(ceval(k, &env)?, value)),
            None => Ok(value),
        }
    })?;
    if prog.key_expr.is_some() {
        let _ = mapped.reduce_by_key(move |a, b| op.apply(a, b))?;
    } else {
        let _ = mapped.reduce(move |a, b| op.apply(a, b))?;
    }
    Ok(start.elapsed())
}

/// Formats a duration in seconds with 4 decimal places.
pub fn secs(d: Duration) -> String {
    format!("{:.4}", d.as_secs_f64())
}

/// Formats one flat JSON object from `(key, value)` string pairs (a tiny
/// hand-rolled serializer — no serde offline). Values that parse as a
/// number are emitted unquoted, everything else as an escaped string, so
/// `("par_secs", "0.0042")` becomes `"par_secs":0.0042` while
/// `("scheduler", "morsel")` becomes `"scheduler":"morsel"`.
pub fn json_row(fields: &[(&str, &str)]) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&esc(k));
        out.push_str("\":");
        if v.parse::<f64>().is_ok() {
            out.push_str(v);
        } else {
            out.push('"');
            out.push_str(&esc(v));
            out.push('"');
        }
    }
    out.push('}');
    out
}

/// Formats bytes as MB.
pub fn mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// The effective engine settings of a context as owned `(key, value)`
/// pairs for [`json_row`], so every `BENCH_*.json` row is
/// self-describing: a timing without its worker count, memory budget,
/// and scheduler is unreproducible. Push these into each row's field
/// list.
pub fn settings_fields(ctx: &Context) -> Vec<(&'static str, String)> {
    let snap = ctx.stats_snapshot();
    vec![
        ("workers", snap.workers.to_string()),
        ("partitions", snap.partitions.to_string()),
        ("morsel_size", snap.morsel_size.to_string()),
        (
            "memory_budget",
            if snap.memory_budget == u64::MAX {
                "unbounded".to_string()
            } else {
                snap.memory_budget.to_string()
            },
        ),
        (
            "dataset_budget",
            if snap.dataset_budget == u64::MAX {
                "unbounded".to_string()
            } else {
                snap.dataset_budget.to_string()
            },
        ),
        ("scheduler", snap.scheduler),
        ("ordered", snap.ordered.to_string()),
    ]
}

/// Nearest-rank percentile (`p` in 0..=100) of a latency sample. Sorts a
/// copy; returns zero for an empty sample.
pub fn percentile(samples: &[Duration], p: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Formats a duration in milliseconds with 3 decimal places.
pub fn millis(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diablo_and_handwritten_run_every_figure3_workload() {
        let ctx = Context::new(2, 4);
        for w in diablo_workloads::figure3_workloads(1, 5) {
            let td = run_diablo(&w, &ctx);
            let th = run_handwritten(&w, &ctx).expect(w.name);
            assert!(td > Duration::ZERO && th > Duration::ZERO);
        }
    }

    #[test]
    fn interpreter_runs_a_workload() {
        let w = diablo_workloads::word_count(500, 2);
        assert!(run_interp(&w) > Duration::ZERO);
    }

    #[test]
    fn median_timer_is_stable() {
        let t = time_median(3, || {
            std::hint::black_box((0..1000).sum::<i64>());
        });
        assert!(t < Duration::from_millis(100));
    }

    #[test]
    fn casper_summary_runs_on_the_engine() {
        let ctx = Context::new(2, 4);
        let w = diablo_workloads::sum(2_000, 3);
        let prog = diablo_baselines::casper_translate(&w).expect("synthesizes");
        let t = run_casper_program(&prog, &w, &ctx).unwrap();
        assert!(t > Duration::ZERO);
    }

    #[test]
    fn json_rows_quote_strings_and_not_numbers() {
        let row = json_row(&[
            ("bench", "table2"),
            ("scheduler", "morsel"),
            ("par_secs", "0.0042"),
            ("rows", "100"),
        ]);
        assert_eq!(
            row,
            "{\"bench\":\"table2\",\"scheduler\":\"morsel\",\"par_secs\":0.0042,\"rows\":100}"
        );
    }
}
