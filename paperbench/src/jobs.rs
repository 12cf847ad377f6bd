//! The paper's programs at the benchmark's sizes, the sequential oracle,
//! and the timed front end shared by the batch and serve workloads.

use std::time::Instant;

use diablo_core::{CompiledProgram, TStmt};
use diablo_interp::Interpreter;
use diablo_lang::TypedProgram;
use diablo_workloads::{self as wl, Workload};

use crate::compare::{Out, Outputs};
use crate::stats::median;
use crate::trace::{Arg, Tracer};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["scan-agg", "iterate", "serve"];

/// splitmix64: derives independent seeds and drives the serve schedule.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of input `i` of a run seeded with `seed`. Kept below 2^32 so
/// generators that add small offsets to it cannot overflow.
pub fn derive(seed: u64, i: u64) -> u64 {
    splitmix(seed ^ splitmix(i)) >> 32
}

/// The programs of a batch workload with generated inputs (Table 2 sizes
/// for the single-pass programs; the iterative ones at the sizes that
/// keep a pass near a second on two cores).
pub fn batch_programs(workload: &str, seed: u64) -> Option<Vec<Workload>> {
    let s = |i| derive(seed, i);
    Some(match workload {
        "scan-agg" => vec![
            wl::conditional_sum(1_000_000, s(1)),
            wl::equal(1_000_000, s(2)),
            wl::string_match(1_000_000, s(3)),
            wl::linear_regression(400_000, s(4)),
        ],
        "iterate" => vec![
            wl::pagerank(1_000, 5, s(1)),
            wl::kmeans(20_000, 3, 2, s(2)),
            wl::matrix_factorization(60, 2, 2, s(3)),
        ],
        _ => return None,
    })
}

/// Runs the sequential interpreter on a workload's inputs.
pub fn oracle(w: &Workload) -> Result<Outputs, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: interpreter: {e}", w.name);
    let tp = diablo_lang::typecheck(diablo_lang::parse(w.source).map_err(|e| fail(&e))?)
        .map_err(|e| fail(&e))?;
    let mut interp = Interpreter::new();
    for (name, v) in &w.scalars {
        interp.bind_scalar(name, v.clone());
    }
    for (name, rows) in &w.collections {
        interp
            .bind_collection(name, rows.clone())
            .map_err(|e| fail(&e))?;
    }
    interp.run(&tp).map_err(|e| fail(&e))?;
    let mut outputs = Vec::new();
    for out in &w.outputs {
        let value = match (interp.scalar(out), interp.collection(out)) {
            (Some(v), _) => Out::Scalar(v),
            (None, Some(rows)) => Out::Rows(rows),
            (None, None) => return Err(format!("{}: interpreter has no `{out}`", w.name)),
        };
        outputs.push((out.to_string(), value));
    }
    Ok(outputs)
}

/// Runs the interpreter on every workload, two at a time (the host's
/// cores are otherwise idle while the references are computed).
pub fn oracles<'a>(ws: impl IntoIterator<Item = &'a Workload>) -> Result<Vec<Outputs>, String> {
    let ws: Vec<&Workload> = ws.into_iter().collect();
    let mut refs = Vec::with_capacity(ws.len());
    for pair in ws.chunks(2) {
        let done: Vec<Result<Outputs, String>> = std::thread::scope(|s| {
            let hs: Vec<_> = pair.iter().map(|w| s.spawn(move || oracle(w))).collect();
            hs.into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("interpreter panicked".into()))
                })
                .collect()
        });
        for r in done {
            refs.push(r?);
        }
    }
    Ok(refs)
}

/// Sequential interpreter runs per program behind `interp.seq_ms`.
pub const INTERP_REPS: usize = 3;

/// Sequential interpreter time of `ws` in milliseconds: per program the
/// median of [`INTERP_REPS`] runs made one at a time (the references are
/// computed two at a time, so their runs compete for cores), summed.
pub fn interp_seq_ms(ws: &[&Workload]) -> f64 {
    ws.iter()
        .map(|w| {
            let samples: Vec<f64> = (0..INTERP_REPS)
                .map(|_| diablo_bench::run_interp(w).as_secs_f64() * 1e3)
                .collect();
            median(&samples)
        })
        .sum()
}

/// The timed steps of one job. Each step is the interval around one call
/// into a layer, so code the benchmark runs between calls lies outside
/// every step and shows as the enclosing span's self time.
pub struct Steps {
    /// When the job started.
    pub start: Instant,
    /// `(step name, start, end)` in call order; a name may repeat.
    pub steps: Vec<(&'static str, Instant, Instant)>,
}

impl Steps {
    /// Starts timing now.
    pub fn new() -> Steps {
        Steps {
            start: Instant::now(),
            steps: Vec::with_capacity(10),
        }
    }

    /// Runs `f` as step `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let r = f();
        self.steps.push((name, start, Instant::now()));
        r
    }

    /// Total duration of the steps named `name`, in microseconds.
    pub fn us(&self, name: &str) -> f64 {
        self.steps
            .iter()
            .filter(|(n, _, _)| *n == name)
            .map(|(_, s, e)| e.duration_since(*s).as_secs_f64() * 1e6)
            .sum()
    }

    /// Records each step as a child span of `parent`; `args` go on the
    /// first step named by its first element.
    pub fn record(
        &self,
        tracer: &mut Tracer,
        parent: usize,
        mut args: Option<(&str, Vec<(&'static str, Arg)>)>,
    ) {
        for (n, s, e) in &self.steps {
            let a = match &args {
                Some((step, _)) if step == n => args.take().map(|(_, a)| a).unwrap_or_default(),
                _ => Vec::new(),
            };
            tracer.record(n, Some(parent), *s, *e, a);
        }
    }
}

/// The front-end steps `diablo_core::compile` makes (parse, type check,
/// restriction check, translate), each timed, then the advisory lint pass
/// the serving path also runs.
pub fn front_end(src: &str, m: &mut Steps) -> Result<(TypedProgram, CompiledProgram), String> {
    let program = m.time("lang.parse", || diablo_lang::parse(src));
    let program = program.map_err(|e| e.to_string())?;
    let tp = m.time("lang.typecheck", || diablo_lang::typecheck(program));
    let tp = tp.map_err(|e| e.to_string())?;
    let ok = m.time("core.restrict", || diablo_core::check_restrictions(&tp));
    ok.map_err(|e| e.to_string())?;
    let compiled = m.time("core.translate", || diablo_core::translate(&tp));
    let compiled = compiled.map_err(|e| e.to_string())?;
    m.time("core.lint", || {
        std::hint::black_box(diablo_core::lint_program(&tp, &compiled))
    });
    Ok((tp, compiled))
}

/// Front-end step names, in call order.
pub const FRONT_END_STEPS: [&str; 5] = [
    "lang.parse",
    "lang.typecheck",
    "core.restrict",
    "core.translate",
    "core.lint",
];

/// Size in bytes of the pretty-printed target code.
pub fn target_bytes(stmts: &[TStmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            TStmt::Assign { name, value, .. } => {
                name.len() + 4 + diablo_comp::pretty_cexpr(value).len()
            }
            TStmt::While { cond, body } => {
                8 + diablo_comp::pretty_cexpr(cond).len() + target_bytes(body)
            }
        })
        .sum()
}

/// Restarts the peak-RSS count (Linux `clear_refs` 5, which touches only
/// this process's own accounting), so that `peak_rss_mb` covers the
/// measured window rather than the interpreter runs made for the
/// references or the memory earlier setups left to the allocator.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`], in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_end_times_every_step_and_compiles_like_compile() {
        let w = wl::word_count(100, 1);
        let mut m = Steps::new();
        let (_, compiled) = front_end(w.source, &mut m).unwrap();
        let names: Vec<&str> = m.steps.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, FRONT_END_STEPS);
        let direct = diablo_core::compile(w.source).unwrap();
        assert_eq!(compiled.stmts, direct.stmts);
        assert!(m.us("core.translate") > 0.0);
        assert!(target_bytes(&compiled.stmts) > 0);
    }

    #[test]
    fn oracle_returns_every_declared_output() {
        let r = oracle(&wl::histogram(50, 2)).unwrap();
        let names: Vec<&str> = r.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["R", "G", "B"]);
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(derive(7, 1), derive(7, 1));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
        assert!(derive(u64::MAX, u64::MAX) < 1 << 32);
    }
}
