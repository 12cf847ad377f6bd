//! `paperbench`: the paper's programs end to end through
//! `compile → bind → run → collect` on the engine and through an
//! in-process `diablod`, with every output checked against the sequential
//! interpreter.
//!
//! ```text
//! cargo run --release --manifest-path paperbench/Cargo.toml -- \
//!     --workload <scan-agg|iterate|serve> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics untraced; `--trace 1` is the separate traced run that gives the
//! per-layer metrics and writes a Chrome trace to
//! `.bench_out/trace-<workload>-<seed>.json`. The last line of standard
//! output is the result object; the lines before it give the
//! configuration and each metric with its sample count.

mod batch;
mod compare;
mod jobs;
mod report;
mod serve;
mod stats;
mod trace;

use report::{RunOutput, COVER_TOLERANCE, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !jobs::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            jobs::WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// `DIABLO_*` variables switch backend, budgets, scheduler and plan
/// verification behind the benchmark's back; refuse to run under them.
fn refuse_engine_overrides() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DIABLO_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the default engine configuration",
            set.join(", ")
        ))
    }
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("paperbench: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    refuse_engine_overrides()?;
    let mut out = if args.workload == "serve" {
        serve::run(args.seed, args.seconds, args.trace)?
    } else {
        batch::run(&args.workload, args.seed, args.seconds, args.trace)?
    };

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut config: Vec<(String, String)> = vec![
        ("workload".into(), args.workload.clone()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("host_cpus".into(), host_cpus.to_string()),
        ("commit".into(), commit()),
    ];
    config.extend(out.settings.iter().map(|(k, v)| (k.to_string(), v.clone())));

    // A traced run whose spans do not add up is reported as not correct.
    let mut gate_ok = true;
    let names: &[(&str, &str)] = if args.trace {
        let (lowest, checked, outside) =
            trace::coverage(&out.tracers, &["program", "request"], COVER_TOLERANCE);
        let spans: usize = out.tracers.iter().map(|t| t.spans().len()).sum();
        let m = &mut out.metrics;
        m.push("trace.cover_min", lowest, checked);
        m.push("trace.uncovered_spans", outside as f64, checked);
        m.push("trace.spans", spans as f64, 1);
        let frac = out.failed as f64 / out.attempted.max(1) as f64;
        m.push("failed_frac", frac, out.attempted as usize);
        if outside > 0 {
            eprintln!(
                "paperbench: {outside} of {checked} program/request spans are less than {:.0}% covered by their children; the run is not correct",
                100.0 * (1.0 - COVER_TOLERANCE)
            );
            gate_ok = false;
        }
        write_trace(&args, &out, &config)?;
        &PER_LAYER
    } else {
        &END_TO_END
    };

    let cfg: Vec<String> = config.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("# config {}", cfg.join(" "));
    println!(
        "# failed_frac {} ({} of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for (name, unit) in names {
        match out.metrics.get(name) {
            Some(m) => println!("# {name} = {} {unit} (n={})", m.value, m.samples),
            None => println!("# {name} = 0 {unit} (not on this workload's path)"),
        }
    }
    let correct = gate_ok && out.failed == 0 && out.attempted > 0;
    println!("{}", report::result_line(&out, correct, names));
    Ok(())
}

fn write_trace(args: &Args, out: &RunOutput, config: &[(String, String)]) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let json = trace::chrome_json(&out.tracers, config);
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("paperbench: trace written to {}", path.display());
    Ok(())
}
