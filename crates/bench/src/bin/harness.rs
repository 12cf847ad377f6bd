//! The benchmark harness: regenerates every table and figure of the paper.
//!
//! ```text
//! harness table1           # Table 1: translator times (DIABLO vs MOLD-like vs Casper-like)
//! harness table2           # Table 2: parallel (engine) vs sequential (interpreter)
//! harness fig3a .. fig3l   # Figure 3 panels: DIABLO vs hand-written (vs Casper) across sizes
//! harness tiles            # §5 ablation: sparse vs tiled matrix multiplication
//! harness ordered          # hash vs sort-based (key-ordered) aggregation
//! harness scaling          # morsel work-stealing vs static pool on skewed input
//!                          #   [--mode morsel|baseline] [--check]
//! harness serve            # closed-loop diablod driver: N clients × M programs,
//!                          #   cold / cache-warm / 2× overload phases with
//!                          #   throughput and p50/p99 latency [--check]
//! harness out-of-core      # WC + PageRank with the dataset cache bounded to
//!                          #   ~1/10 of the input, byte-checked against the
//!                          #   unbounded run [--check]
//! harness columnar         # a transparent (`map_expr`) fused expression chain
//!                          #   vs its opaque twin on the row path, byte- and
//!                          #   error-identity checked; Word Count and K-Means
//!                          #   layout counters [--check]
//! harness all              # everything (used to fill EXPERIMENTS.md)
//! harness --json <cmd>     # machine-readable: one JSON object per row,
//!                          # each tagged with the engine settings
//! ```
//!
//! Sizes are laptop-scale; see DESIGN.md for the scale substitution. Set
//! `DIABLO_SCALE` (default 1) to grow every sweep and
//! `DIABLO_MEMORY_BUDGET` to bound shuffle memory — every engine-backed
//! JSON row carries the full effective settings (workers, partitions,
//! morsel size, memory budget, dataset budget, scheduler, ordered) plus
//! the spill counters (`spilled_records`, `spilled_bytes`, `spill_files`).

use std::time::{Duration, Instant};

use diablo_baselines::casper_like::casper_translate_with_budget;
use diablo_baselines::{handwritten, mold_translate};
use diablo_bench::{
    compile_time, json_row, mb, millis, percentile, run_casper_program, run_diablo,
    run_diablo_outputs, run_handwritten, run_interp, secs, settings_fields, time_once,
};
use diablo_dataflow::{Context, Dataset};
use diablo_runtime::{BinOp, RuntimeError, TiledMatrix, Value};
use diablo_serve::{Client, ServeConfig, Server};
use diablo_workloads as wl;
use diablo_workloads::Workload;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let cmd = args.first().cloned().unwrap_or_else(|| "all".to_string());
    match cmd.as_str() {
        "table1" => table1(json),
        "table2" => table2(json),
        "tiles" => tiles(json),
        "ordered" => ordered(json),
        "scaling" => {
            let check = args.iter().any(|a| a == "--check");
            let mode = args
                .windows(2)
                .find(|w| w[0] == "--mode")
                .map(|w| w[1].clone());
            scaling(json, check, mode.as_deref());
        }
        "serve" => {
            let check = args.iter().any(|a| a == "--check");
            serve_bench(json, check);
        }
        "out-of-core" => {
            let check = args.iter().any(|a| a == "--check");
            out_of_core(json, check);
        }
        "columnar" => {
            let check = args.iter().any(|a| a == "--check");
            columnar(json, check);
        }
        "all" => {
            table1(json);
            table2(json);
            for panel in PANELS {
                fig3(panel.0, json);
            }
            tiles(json);
            ordered(json);
            scaling(json, false, None);
        }
        other if other.starts_with("fig3") => {
            let letter = other.trim_start_matches("fig3");
            fig3(letter, json);
        }
        other => {
            eprintln!(
                "unknown command `{other}`; try table1, table2, fig3a..fig3l, tiles, ordered, scaling, serve, out-of-core, columnar, all"
            );
            std::process::exit(2);
        }
    }
}

fn scale() -> usize {
    std::env::var("DIABLO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

// ------------------------------------------------------------------ Table 1

/// Table 1: translation time per program for the three translators.
fn table1(json: bool) {
    if !json {
        println!("== Table 1: compilation time (seconds) =====================================");
    }
    if !json {
        println!(
            "{:<24} {:>12} {:>14} {:>14}",
            "test program", "DIABLO", "MOLD-like", "Casper-like"
        );
    }
    let n = 2_000;
    let entries: Vec<(Workload, bool)> = vec![
        (wl::average(n, 1), true),
        (wl::conditional_count(n, 2), true),
        (wl::conditional_sum(n, 3), true),
        (wl::count(n, 4), true),
        (wl::equal(n, 5), true),
        (wl::equal_frequency(n, 6), true),
        (wl::string_match(n, 7), true),
        (wl::sum(n, 8), true),
        (wl::word_count(n, 9), true),
        (wl::histogram(n, 10), true),
        (wl::matrix_multiplication(10, 11), false),
        (wl::linear_regression(n, 12), true),
        (wl::kmeans(400, 3, 1, 13), false),
        (wl::pca(n, 14), true),
        (wl::pagerank(40, 1, 15), false),
        (wl::matrix_factorization(10, 2, 1, 16), false),
    ];
    for (w, try_casper) in &entries {
        let diablo = compile_time(w);
        let (mold, tm) = time_once(|| mold_translate(w.source));
        let mold_cell = match mold {
            Ok(_) => secs(tm),
            Err(_) => "fail".to_string(),
        };
        let casper_cell = if *try_casper {
            let (c, tc) = time_once(|| casper_translate_with_budget(w, 300_000));
            match c {
                Ok(_) => secs(tc),
                Err(e) if e.contains("budget") || e.contains("no candidate") => {
                    format!("fail({})", secs(tc))
                }
                Err(_) => "fail".to_string(),
            }
        } else {
            "fail".to_string()
        };
        if json {
            println!(
                "{}",
                json_row(&[
                    ("bench", "table1"),
                    ("program", w.name),
                    ("diablo_secs", &secs(diablo)),
                    ("mold", &mold_cell),
                    ("casper", &casper_cell),
                ])
            );
        } else {
            println!(
                "{:<24} {:>12} {:>14} {:>14}",
                w.name,
                secs(diablo),
                mold_cell,
                casper_cell
            );
        }
    }
    if !json {
        println!();
    }
}

// ------------------------------------------------------------------ Table 2

/// Table 2: parallel (engine) vs sequential (interpreter) evaluation.
fn table2(json: bool) {
    if !json {
        println!("== Table 2: parallel (par) vs sequential (seq) evaluation (seconds) ========");
        println!(
            "{:<24} {:>10} {:>12} {:>10} {:>8} {:>10}",
            "test program", "count", "size (MB)", "par", "stages", "seq"
        );
    }
    let ctx = Context::default_parallel();
    let settings = settings_fields(&ctx);
    let s = 20 * scale();
    let workloads = vec![
        wl::conditional_sum(50_000 * s, 1),
        wl::equal(50_000 * s, 2),
        wl::string_match(50_000 * s, 3),
        wl::word_count(20_000 * s, 4),
        wl::histogram(20_000 * s, 5),
        wl::linear_regression(20_000 * s, 6),
        wl::group_by(20_000 * s, 7),
        wl::matrix_addition(16 * s, 8),
        wl::matrix_multiplication(3 * s, 9),
        wl::pagerank(20 * s, 2, 10),
        wl::kmeans(2_000 * s, 3, 1, 11),
        wl::matrix_factorization(2 * s, 2, 1, 12),
    ];
    for w in workloads {
        let before = ctx.stats().snapshot();
        let par = run_diablo(&w, &ctx);
        let stats = ctx.stats().snapshot().since(&before);
        let seq = run_interp(&w);
        if json {
            let rows_s = w.input_rows().to_string();
            let mb_s = mb(w.input_bytes());
            let par_s = secs(par);
            let stages = stats.physical_stages.to_string();
            let spill_rec = stats.spilled_records.to_string();
            let spill_bytes = stats.spilled_bytes.to_string();
            let spill_files = stats.spill_files.to_string();
            let vec_batches = stats.vectorized_batches.to_string();
            let row_fallbacks = stats.row_fallback_stages.to_string();
            let seq_s = secs(seq);
            let mut fields: Vec<(&str, &str)> = vec![("bench", "table2"), ("program", w.name)];
            fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
            fields.extend([
                ("rows", rows_s.as_str()),
                ("mb", mb_s.as_str()),
                ("par_secs", par_s.as_str()),
                ("physical_stages", stages.as_str()),
                ("spilled_records", spill_rec.as_str()),
                ("spilled_bytes", spill_bytes.as_str()),
                ("spill_files", spill_files.as_str()),
                ("vectorized_batches", vec_batches.as_str()),
                ("row_fallback_stages", row_fallbacks.as_str()),
                ("seq_secs", seq_s.as_str()),
            ]);
            println!("{}", json_row(&fields));
        } else {
            println!(
                "{:<24} {:>10} {:>12} {:>10} {:>8} {:>10}",
                w.name,
                w.input_rows(),
                mb(w.input_bytes()),
                secs(par),
                stats.physical_stages,
                secs(seq)
            );
        }
    }
    if !json {
        println!();
    }
}

// ----------------------------------------------------------------- Figure 3

type Maker = fn(usize, u64) -> Workload;

/// Panel id, display title, workload maker, base size, whether the Casper
/// line exists in the paper's panel.
const PANELS: &[(&str, &str, Maker, usize, bool)] = &[
    (
        "a",
        "Conditional Sum",
        |n, s| wl::conditional_sum(n, s),
        40_000,
        true,
    ),
    ("b", "Equal", |n, s| wl::equal(n, s), 40_000, true),
    (
        "c",
        "String Match",
        |n, s| wl::string_match(n, s),
        40_000,
        true,
    ),
    ("d", "Word Count", |n, s| wl::word_count(n, s), 40_000, true),
    ("e", "Histogram", |n, s| wl::histogram(n, s), 40_000, false),
    (
        "f",
        "Linear Regression",
        |n, s| wl::linear_regression(n, s),
        40_000,
        false,
    ),
    ("g", "Group By", |n, s| wl::group_by(n, s), 40_000, false),
    (
        "h",
        "Matrix Addition",
        |n, s| wl::matrix_addition(n, s),
        60,
        false,
    ),
    (
        "i",
        "Matrix Multiplication",
        |n, s| wl::matrix_multiplication(n, s),
        30,
        false,
    ),
    ("j", "PageRank", |n, s| wl::pagerank(n, 2, s), 150, false),
    (
        "k",
        "KMeans Clustering",
        |n, s| wl::kmeans(n, 10, 1, s),
        4_000,
        false,
    ),
    (
        "l",
        "Matrix Factorization",
        |n, s| wl::matrix_factorization(n, 2, 1, s),
        30,
        false,
    ),
];

/// One Figure 3 panel: a size sweep comparing DIABLO against the
/// hand-written program (and a Casper summary where the paper plots one).
fn fig3(letter: &str, json: bool) {
    let Some((_, title, maker, base, casper)) = PANELS.iter().find(|p| p.0 == letter) else {
        eprintln!("unknown panel fig3{letter}");
        std::process::exit(2);
    };
    if !json {
        println!(
            "== Figure 3{}: {title} ====================================",
            letter.to_uppercase()
        );
        // Wall-clock per system, with the number of physical (fused) engine
        // stages each plan ran next to it — the plan-shape difference behind
        // the timing gap.
        let header = if *casper {
            format!(
                "{:>12} {:>12} {:>9} {:>14} {:>9} {:>12}",
                "size (MB)", "DIABLO", "D-stages", "hand-written", "H-stages", "Casper"
            )
        } else {
            format!(
                "{:>12} {:>12} {:>9} {:>14} {:>9}",
                "size (MB)", "DIABLO", "D-stages", "hand-written", "H-stages"
            )
        };
        println!("{header}");
    }
    let ctx = Context::default_parallel();
    let settings = settings_fields(&ctx);
    let s = scale();
    // The Casper summary is synthesized once, on the smallest size.
    let casper_prog = if *casper {
        casper_translate_with_budget(&maker(base / 5, 100), 300_000).ok()
    } else {
        None
    };
    for step in 1..=5usize {
        let n = base * step * s;
        let w = maker(n, 100 + step as u64);
        let before = ctx.stats().snapshot();
        let diablo = run_diablo(&w, &ctx);
        let d_stats = ctx.stats().snapshot().since(&before);
        let before = ctx.stats().snapshot();
        let hand = run_handwritten(&w, &ctx).expect("handwritten");
        let h_stats = ctx.stats().snapshot().since(&before);
        let casper_secs = casper_prog
            .as_ref()
            .map(|prog| secs(run_casper_program(prog, &w, &ctx).expect("casper run")));
        if json {
            let bench = format!("fig3{letter}");
            let mut fields: Vec<(&str, &str)> = vec![("bench", &bench), ("program", title)];
            fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
            let mb_s = mb(w.input_bytes());
            let d_s = secs(diablo);
            let ds = d_stats.physical_stages.to_string();
            let d_spill_rec = d_stats.spilled_records.to_string();
            let d_spill_bytes = d_stats.spilled_bytes.to_string();
            let d_spill_files = d_stats.spill_files.to_string();
            let d_vec_batches = d_stats.vectorized_batches.to_string();
            let d_row_fallbacks = d_stats.row_fallback_stages.to_string();
            let h_s = secs(hand);
            let hs = h_stats.physical_stages.to_string();
            fields.extend([
                ("mb", mb_s.as_str()),
                ("diablo_secs", d_s.as_str()),
                ("diablo_stages", ds.as_str()),
                ("spilled_records", d_spill_rec.as_str()),
                ("spilled_bytes", d_spill_bytes.as_str()),
                ("spill_files", d_spill_files.as_str()),
                ("vectorized_batches", d_vec_batches.as_str()),
                ("row_fallback_stages", d_row_fallbacks.as_str()),
                ("handwritten_secs", h_s.as_str()),
                ("handwritten_stages", hs.as_str()),
            ]);
            if let Some(c) = &casper_secs {
                fields.push(("casper_secs", c.as_str()));
            }
            println!("{}", json_row(&fields));
        } else {
            let mut line = format!(
                "{:>12} {:>12} {:>9} {:>14} {:>9}",
                mb(w.input_bytes()),
                secs(diablo),
                d_stats.physical_stages,
                secs(hand),
                h_stats.physical_stages
            );
            if let Some(c) = &casper_secs {
                line = format!("{line} {c:>12}");
            }
            println!("{line}");
        }
    }
    if !json {
        println!();
    }
}

// --------------------------------------------------------- ordered shuffles

/// Hash vs sort-based aggregation: the same workloads once through the
/// hash shuffle and once through the key-ordered (range-scattered,
/// merge-read) path, with the sorted-shuffle and spill counters that
/// prove which path ran. JSON rows are tagged `mode` = `hash`/`sorted`.
fn ordered(json: bool) {
    if !json {
        println!("== Ordered aggregation: hash vs sort-based shuffle (seconds) ===============");
        println!(
            "{:<24} {:>8} {:>10} {:>14} {:>12}",
            "test program", "mode", "secs", "sorted_shufs", "spill_files"
        );
    }
    let s = scale();
    let workloads = || {
        vec![
            wl::word_count(20_000 * s, 31),
            wl::histogram(20_000 * s, 32),
            wl::group_by(20_000 * s, 33),
        ]
    };
    for mode in ["hash", "sorted"] {
        for w in workloads() {
            let ctx = Context::default_parallel();
            ctx.set_ordered(mode == "sorted");
            let settings = settings_fields(&ctx);
            let before = ctx.stats().snapshot();
            let t = run_diablo(&w, &ctx);
            let stats = ctx.stats().snapshot().since(&before);
            if json {
                let secs_s = secs(t);
                let sorted = stats.sorted_shuffles.to_string();
                let spill_rec = stats.spilled_records.to_string();
                let spill_bytes = stats.spilled_bytes.to_string();
                let spill_files = stats.spill_files.to_string();
                let vec_batches = stats.vectorized_batches.to_string();
                let row_fallbacks = stats.row_fallback_stages.to_string();
                let mut fields: Vec<(&str, &str)> = vec![("bench", "ordered"), ("program", w.name)];
                fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
                fields.extend([
                    ("mode", mode),
                    ("secs", secs_s.as_str()),
                    ("sorted_shuffles", sorted.as_str()),
                    ("spilled_records", spill_rec.as_str()),
                    ("spilled_bytes", spill_bytes.as_str()),
                    ("spill_files", spill_files.as_str()),
                    ("vectorized_batches", vec_batches.as_str()),
                    ("row_fallback_stages", row_fallbacks.as_str()),
                ]);
                println!("{}", json_row(&fields));
            } else {
                println!(
                    "{:<24} {:>8} {:>10} {:>14} {:>12}",
                    w.name,
                    mode,
                    secs(t),
                    stats.sorted_shuffles,
                    stats.spill_files
                );
            }
        }
    }
    if !json {
        println!();
    }
}

// ----------------------------------------------------------------- scaling

/// The scaling trajectory behind the morsel scheduler: skewed inputs
/// (partition 0 holds ~55% of the rows) run at several worker counts under
/// two scheduler modes — `morsel` (the work-stealing pool, splitting
/// oversized partitions into morsels) and `baseline` (the retained static
/// pool scheduling whole partitions, i.e. `DIABLO_SCHEDULER=static`).
/// Wall-clock shows the real speedup only on a many-core host, so every
/// row also reports `sched_speedup`: the load-balance bound
/// Σ(stage cost) / Σ(stage critical path) that the *schedule itself*
/// guarantees on any machine — that is what the `--check` gates assert
/// (`host_cpus` records how trustworthy the wall column is).
const SCALING_PARTS: usize = 16;

/// splitmix64 — deterministic input generation without a rand crate.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Packs rows into [`SCALING_PARTS`] partitions with ~55% in partition 0 —
/// the skew the static pool cannot balance (one worker owns the whole
/// partition) but the morsel scheduler can (it splits it into morsels).
fn skewed(rows: Vec<Value>) -> Vec<Vec<Value>> {
    let head = rows.len() * 55 / 100;
    let mut it = rows.into_iter();
    let mut parts: Vec<Vec<Value>> = vec![it.by_ref().take(head).collect()];
    let rest: Vec<Value> = it.collect();
    let per = rest.len().div_ceil(SCALING_PARTS - 1).max(1);
    let mut rest = rest.into_iter();
    for _ in 1..SCALING_PARTS {
        parts.push(rest.by_ref().take(per).collect());
    }
    parts
}

fn scaling_workers() -> Vec<usize> {
    let all = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut ws = vec![1, 2, 4, all];
    ws.sort_unstable();
    ws.dedup();
    ws
}

/// An 8-operator fused chain over longs: compiles to a single splittable
/// narrow stage, the best case for morsel balancing.
fn scaling_fusion(d: &Dataset) {
    let mut out = d.clone();
    for step in 0..8u64 {
        out = out
            .map(move |v| {
                let x = v
                    .as_long()
                    .ok_or_else(|| RuntimeError::new("expected a long"))?
                    as u64;
                let mixed = (x ^ (x >> 13)).wrapping_mul(0x9e37_79b9_7f4a_7c15 ^ step);
                Ok(Value::Long((mixed >> 1) as i64))
            })
            .expect("map");
    }
    assert!(!out.collect().is_empty());
}

/// A deliberately small vocabulary (no stem ends in `e`, so stemming is
/// exact): per-document combining then collapses each document to ≤10
/// counted pairs, keeping the shuffle light — the stage under test is the
/// splittable normalization pass, not the reduction.
const WC_STEMS: &[&str] = &[
    "market", "signal", "stream", "worker", "morsel", "vector", "kernel", "buffer", "column",
    "record",
];

/// Documents of 250 space-separated tokens: a stem from [`WC_STEMS`] plus
/// an inflection, sometimes capitalized so normalization has real work.
fn wc_docs(n: usize) -> Vec<Value> {
    let mut rng = SplitMix(11);
    const SUFFIXES: [&str; 4] = ["", "s", "ed", "ing"];
    (0..n)
        .map(|_| {
            let mut doc = String::with_capacity(2560);
            for t in 0..250 {
                if t > 0 {
                    doc.push(' ');
                }
                let stem = WC_STEMS[rng.below(WC_STEMS.len())];
                if rng.below(4) == 0 {
                    let mut chars = stem.chars();
                    let first = chars.next().unwrap().to_ascii_uppercase();
                    doc.push(first);
                    doc.push_str(chars.as_str());
                } else {
                    doc.push_str(stem);
                }
                doc.push_str(SUFFIXES[rng.below(4)]);
            }
            Value::str(doc)
        })
        .collect()
}

fn wc_stem(word: &str) -> &str {
    for suf in ["ing", "ed", "es", "s"] {
        if word.len() > suf.len() + 2 {
            if let Some(base) = word.strip_suffix(suf) {
                return base;
            }
        }
    }
    word
}

/// Word count with per-document normalization (lowercase + stemming) and
/// in-mapper combining: the heavy tokenize stage is narrow and splittable
/// (it runs as morsels), the residual shuffle moves only the combined
/// per-document counts.
fn scaling_word_count(d: &Dataset) {
    let counted = d
        .flat_map(|doc| {
            let text = doc
                .as_str()
                .ok_or_else(|| RuntimeError::new("expected a document string"))?;
            let mut counts: std::collections::BTreeMap<String, i64> = Default::default();
            for tok in text.split_whitespace() {
                let lower = tok.to_lowercase();
                *counts.entry(wc_stem(&lower).to_string()).or_insert(0) += 1;
            }
            Ok(counts
                .into_iter()
                .map(|(w, c)| Value::pair(Value::str(w), Value::Long(c)))
                .collect())
        })
        .expect("tokenize")
        .materialize()
        .expect("materialize")
        .reduce_by_key(|a, b| BinOp::Add.apply(a, b))
        .expect("count")
        .collect();
    assert!(!counted.is_empty());
}

const KM_DIM: usize = 8;
const KM_K: usize = 64;
const KM_BLOCK: usize = 512;

fn km_centroids() -> Vec<[f64; KM_DIM]> {
    let mut rng = SplitMix(7);
    (0..KM_K)
        .map(|_| std::array::from_fn(|_| rng.below(1000) as f64 / 1000.0))
        .collect()
}

/// Blocks of [`KM_BLOCK`] 8-dimensional points.
fn km_blocks(blocks: usize) -> Vec<Value> {
    let mut rng = SplitMix(13);
    (0..blocks)
        .map(|_| {
            Value::bag(
                (0..KM_BLOCK)
                    .map(|_| {
                        Value::tuple(
                            (0..KM_DIM)
                                .map(|_| Value::Double(rng.below(1000) as f64 / 1000.0))
                                .collect(),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// One k-means step (assign + partial sums): the nearest-centroid search
/// (64 centroids × 8 dims per point) runs in the narrow splittable stage
/// with block-local aggregation; the shuffle carries at most `KM_K`
/// partial sums per block.
fn scaling_kmeans(d: &Dataset) {
    let cents = km_centroids();
    let new_centroids = d
        .flat_map(move |block| {
            let pts = block
                .as_bag()
                .ok_or_else(|| RuntimeError::new("expected a bag of points"))?;
            let mut acc = vec![[0.0f64; KM_DIM + 1]; KM_K];
            for p in pts {
                let t = p
                    .as_tuple()
                    .ok_or_else(|| RuntimeError::new("expected a point tuple"))?;
                let mut x = [0.0f64; KM_DIM];
                for (i, xi) in x.iter_mut().enumerate() {
                    *xi = t[i]
                        .as_double()
                        .ok_or_else(|| RuntimeError::new("expected a coordinate"))?;
                }
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (k, c) in cents.iter().enumerate() {
                    let mut s = 0.0;
                    for i in 0..KM_DIM {
                        let dx = x[i] - c[i];
                        s += dx * dx;
                    }
                    if s < best_d {
                        best_d = s;
                        best = k;
                    }
                }
                for i in 0..KM_DIM {
                    acc[best][i] += x[i];
                }
                acc[best][KM_DIM] += 1.0;
            }
            Ok(acc
                .iter()
                .enumerate()
                .filter(|(_, a)| a[KM_DIM] > 0.0)
                .map(|(k, a)| {
                    Value::pair(
                        Value::Long(k as i64),
                        Value::tuple(a.iter().map(|&f| Value::Double(f)).collect()),
                    )
                })
                .collect())
        })
        .expect("assign")
        .materialize()
        .expect("materialize")
        .reduce_by_key(|a, b| {
            let (x, y) = (a.as_tuple().unwrap(), b.as_tuple().unwrap());
            Ok(Value::tuple(
                x.iter()
                    .zip(y.iter())
                    .map(|(p, q)| Value::Double(p.as_double().unwrap() + q.as_double().unwrap()))
                    .collect(),
            ))
        })
        .expect("recenter")
        .collect();
    assert!(new_centroids.len() <= KM_K);
}

const PR_VERTICES: usize = 20_000;

/// Matrix-shaped edges `((i, j), 1)`; every vertex gets one guaranteed
/// out-edge so no rank mass is stranded.
fn pr_edges(extra: usize) -> Vec<Value> {
    let mut rng = SplitMix(17);
    let edge = |i: usize, j: usize| {
        Value::pair(
            Value::tuple(vec![Value::Long(i as i64), Value::Long(j as i64)]),
            Value::Long(1),
        )
    };
    let mut rows: Vec<Value> = (0..PR_VERTICES)
        .map(|i| edge(i, (i + 1) % PR_VERTICES))
        .collect();
    rows.extend((0..extra).map(|_| edge(rng.below(PR_VERTICES), rng.below(PR_VERTICES))));
    rows
}

fn scaling_pagerank(d: &Dataset) {
    let ranks = handwritten::pagerank(d, PR_VERTICES as i64, 2).expect("pagerank");
    assert!(!ranks.collect().is_empty());
}

type ScalingRunner = fn(&Dataset);
type ScalingWorkload = (&'static str, Option<usize>, Vec<Vec<Value>>, ScalingRunner);

fn scaling(json: bool, check: bool, mode_filter: Option<&str>) {
    if !json {
        println!("== Scaling: morsel work-stealing vs static pool on skewed input ============");
        println!(
            "{:<14} {:>9} {:>8} {:>10} {:>14} {:>9} {:>8}",
            "workload", "mode", "workers", "secs", "sched_speedup", "morsels", "steals"
        );
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    // (name, morsel rows override, skewed input, pipeline). Morsel sizes
    // follow row weight: documents and point blocks are ~100–256× heavier
    // than a long, so their morsels hold proportionally fewer rows.
    let workloads: Vec<ScalingWorkload> = vec![
        (
            "fusion-chain",
            None,
            skewed((0..300_000).map(Value::Long).collect()),
            scaling_fusion as ScalingRunner,
        ),
        (
            "word-count",
            Some(256),
            skewed(wc_docs(16_000)),
            scaling_word_count,
        ),
        (
            "k-means",
            Some(64),
            skewed(km_blocks(2_000)),
            scaling_kmeans,
        ),
        (
            "page-rank",
            None,
            skewed(pr_edges(150_000)),
            scaling_pagerank,
        ),
    ];
    let mut measured: Vec<(String, String, usize, f64)> = Vec::new();
    for (name, morsel_rows, parts, run) in &workloads {
        for mode in ["morsel", "baseline"] {
            if mode_filter.is_some_and(|m| m != mode) {
                continue;
            }
            for &workers in &scaling_workers() {
                let ctx = Context::new(workers, SCALING_PARTS);
                match mode {
                    "morsel" => {
                        if let Some(rows) = morsel_rows {
                            ctx.set_morsel_size(*rows);
                        }
                    }
                    // The static scheduler never splits a partition.
                    _ => ctx.set_static_scheduler(true),
                }
                ctx.set_memory_budget(None);
                let d = ctx.from_partitions(parts.clone());
                // Two repetitions, keeping the faster wall and the higher
                // load-balance bound: the bound is a property of the
                // schedule, and an OS hiccup during a short stage can only
                // depress the measured value, never inflate it.
                let mut t = Duration::MAX;
                let mut speedup = 1.0f64;
                let mut stats = ctx.stats().snapshot();
                for _ in 0..2 {
                    let before = ctx.stats().snapshot();
                    let (_, rep_t) = time_once(|| run(&d));
                    let rep = ctx.stats().snapshot().since(&before);
                    let rep_speedup = rep.sched_speedup().unwrap_or(1.0);
                    t = t.min(rep_t);
                    if rep_speedup >= speedup {
                        speedup = rep_speedup;
                        stats = rep;
                    }
                }
                measured.push((name.to_string(), mode.to_string(), workers, speedup));
                if json {
                    let settings = settings_fields(&ctx);
                    let secs_s = secs(t);
                    let speedup_s = format!("{speedup:.2}");
                    let morsels = stats.morsels.to_string();
                    let steals = stats.steals.to_string();
                    let depth = stats.max_queue_depth.to_string();
                    let vec_batches = stats.vectorized_batches.to_string();
                    let row_fallbacks = stats.row_fallback_stages.to_string();
                    let cpus = host_cpus.to_string();
                    let mut fields: Vec<(&str, &str)> =
                        vec![("section", "scaling"), ("workload", name)];
                    fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
                    fields.extend([
                        ("mode", mode),
                        ("secs", secs_s.as_str()),
                        ("sched_speedup", speedup_s.as_str()),
                        ("morsels", morsels.as_str()),
                        ("steals", steals.as_str()),
                        ("max_queue_depth", depth.as_str()),
                        ("vectorized_batches", vec_batches.as_str()),
                        ("row_fallback_stages", row_fallbacks.as_str()),
                        ("host_cpus", cpus.as_str()),
                    ]);
                    println!("{}", json_row(&fields));
                } else {
                    println!(
                        "{:<14} {:>9} {:>8} {:>10} {:>14.2} {:>9} {:>8}",
                        name,
                        mode,
                        workers,
                        secs(t),
                        speedup,
                        stats.morsels,
                        stats.steals
                    );
                }
            }
        }
    }
    if !json {
        println!();
    }
    if check {
        scaling_check(&measured);
    }
}

/// The gates CI holds the scheduler to, all on the 4-worker load-balance
/// bound (`sched_speedup`) so they are meaningful on any host: the morsel
/// scheduler must reach ≥2× on the fusion chain and ≥3× on word count and
/// k-means, while the static pool — pinned under the same 55% skew — must
/// stay below 2×.
fn scaling_check(measured: &[(String, String, usize, f64)]) {
    let get = |wl: &str, mode: &str| {
        measured
            .iter()
            .find(|(w, m, k, _)| w == wl && m == mode && *k == 4)
            .map(|(_, _, _, s)| *s)
    };
    let mut failures: Vec<String> = Vec::new();
    let gates: [(&str, &str, f64, bool); 5] = [
        ("fusion-chain", "morsel", 2.0, true),
        ("word-count", "morsel", 3.0, true),
        ("k-means", "morsel", 3.0, true),
        ("word-count", "baseline", 2.0, false),
        ("k-means", "baseline", 2.0, false),
    ];
    for (wl, mode, bound, at_least) in gates {
        let Some(s) = get(wl, mode) else { continue };
        let ok = if at_least { s >= bound } else { s < bound };
        if !ok {
            let rel = if at_least { "≥" } else { "<" };
            failures.push(format!(
                "{wl}/{mode} @4 workers: sched_speedup {s:.2} (need {rel} {bound})"
            ));
        }
    }
    if failures.is_empty() {
        eprintln!("scaling --check: all gates passed");
    } else {
        for f in &failures {
            eprintln!("scaling --check FAILED: {f}");
        }
        std::process::exit(1);
    }
}

// ------------------------------------------------------------- out-of-core

/// One out-of-core measurement: did the budgeted run match the unbounded
/// reference, and what did each side's cache counters say.
struct OocRow {
    workload: String,
    identical: bool,
    budgeted_spills: u64,
    unbounded_spills: u64,
    unbounded_evictions: u64,
}

/// Out-of-core execution: Word Count and PageRank with the dataset cache
/// bounded to ~1/10 of the input bytes, checked
/// byte-identical (rows and order) against the unbounded run. The
/// budgeted rows carry the cache counters (`dataset_spills`,
/// `dataset_spilled_bytes`, `dataset_evictions`, `dataset_recomputes`)
/// that prove the run actually went through disk rather than fitting in
/// memory after all.
fn out_of_core(json: bool, check: bool) {
    if !json {
        println!("== Out-of-core: dataset cache at ~1/10 of the input ========================");
        println!(
            "{:<12} {:>12} {:>8} {:>10} {:>10} {:>7} {:>7} {:>7} {:>10}",
            "workload",
            "input_bytes",
            "budget",
            "unbounded",
            "budgeted",
            "spills",
            "evicts",
            "recomp",
            "identical"
        );
    }
    let s = scale();
    let workloads = vec![wl::word_count(6_000 * s, 7), wl::pagerank(120 * s, 3, 7)];
    let mut rows: Vec<OocRow> = Vec::new();
    for w in &workloads {
        let input = w.input_bytes() as u64;
        // At most a tenth of the input, capped at 4 KiB so even modest
        // inputs overflow the memory tier many times over.
        let budget = (input / 10).clamp(1, 4096);
        let free = Context::new(4, 8);
        let before = free.stats().snapshot();
        let (reference, free_t) = run_diablo_outputs(w, &free);
        let base = free.stats().snapshot().since(&before);

        let ctx = Context::new(4, 8).with_dataset_budget(budget);
        let before = ctx.stats().snapshot();
        let (got, t) = run_diablo_outputs(w, &ctx);
        let stats = ctx.stats().snapshot().since(&before);
        let identical = got == reference;
        rows.push(OocRow {
            workload: w.name.to_string(),
            identical,
            budgeted_spills: stats.dataset_spills,
            unbounded_spills: base.dataset_spills,
            unbounded_evictions: base.dataset_evictions,
        });
        if json {
            let settings = settings_fields(&ctx);
            let input_s = input.to_string();
            let free_s = secs(free_t);
            let secs_s = secs(t);
            let spills = stats.dataset_spills.to_string();
            let spilled = stats.dataset_spilled_bytes.to_string();
            let evicts = stats.dataset_evictions.to_string();
            let recomputes = stats.dataset_recomputes.to_string();
            let vec_batches = stats.vectorized_batches.to_string();
            let row_fallbacks = stats.row_fallback_stages.to_string();
            let identical_s = identical.to_string();
            let mut fields: Vec<(&str, &str)> =
                vec![("section", "out_of_core"), ("workload", w.name)];
            fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
            fields.extend([
                ("input_bytes", input_s.as_str()),
                ("secs_unbounded", free_s.as_str()),
                ("secs", secs_s.as_str()),
                ("dataset_spills", spills.as_str()),
                ("dataset_spilled_bytes", spilled.as_str()),
                ("dataset_evictions", evicts.as_str()),
                ("dataset_recomputes", recomputes.as_str()),
                ("vectorized_batches", vec_batches.as_str()),
                ("row_fallback_stages", row_fallbacks.as_str()),
                ("identical", identical_s.as_str()),
            ]);
            println!("{}", json_row(&fields));
        } else {
            println!(
                "{:<12} {:>12} {:>8} {:>10} {:>10} {:>7} {:>7} {:>7} {:>10}",
                w.name,
                input,
                budget,
                secs(free_t),
                secs(t),
                stats.dataset_spills,
                stats.dataset_evictions,
                stats.dataset_recomputes,
                identical
            );
        }
    }
    if !json {
        println!();
    }
    if check {
        out_of_core_check(&rows);
    }
}

/// The gates CI holds out-of-core execution to: every budgeted run is
/// byte-identical to the unbounded reference, every budgeted run actually
/// spilled (the budget was genuinely undersized), and the unbounded
/// reference never touched the spill or eviction paths.
fn out_of_core_check(rows: &[OocRow]) {
    let mut failures: Vec<String> = Vec::new();
    for r in rows {
        let at = &r.workload;
        if !r.identical {
            failures.push(format!("{at}: budgeted outputs diverged from unbounded"));
        }
        if r.budgeted_spills == 0 {
            failures.push(format!(
                "{at}: budgeted run never spilled — budget not exercised"
            ));
        }
        if r.unbounded_spills != 0 || r.unbounded_evictions != 0 {
            failures.push(format!("{at}: unbounded run spilled or evicted"));
        }
    }
    if failures.is_empty() {
        eprintln!("out-of-core --check: all gates passed");
    } else {
        for f in &failures {
            eprintln!("out-of-core --check FAILED: {f}");
        }
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------- columnar

const COLUMNAR_WORKERS: usize = 4;
const COLUMNAR_PARTS: usize = 8;

/// Applies `e` as a `map` step: transparently (`map_expr`, carrying the
/// `RowExpr` IR the engine lowers to per-column loops) or as its opaque
/// twin (`map(move |v| e.eval(v))`, the same function hidden behind a
/// closure, which keeps the stage on the row path).
fn columnar_map(d: &Dataset, e: diablo_dataflow::RowExpr, transparent: bool) -> Dataset {
    if transparent {
        d.map_expr(e).expect("map_expr")
    } else {
        d.map(move |v| e.eval(v)).expect("map")
    }
}

/// The `filter` counterpart of [`columnar_map`]: `filter_expr`, or a
/// closure with `filter_expr`'s exact semantics.
fn columnar_filter(d: &Dataset, e: diablo_dataflow::RowExpr, transparent: bool) -> Dataset {
    if transparent {
        d.filter_expr(e).expect("filter_expr")
    } else {
        d.filter(move |v| match e.eval(v)? {
            Value::Bool(b) => Ok(b),
            _ => Err(RuntimeError::new("condition must be boolean")),
        })
        .expect("filter")
    }
}

/// A scan-heavy fused chain built from row expressions: ~20 scalar ops
/// per row across ten maps and two selective filters, so the output stays
/// small. Transparent, the whole stage lowers to per-column loops; its
/// opaque twin runs the same functions tuple-at-a-time.
fn columnar_chain(d: &Dataset, transparent: bool) -> Dataset {
    use diablo_dataflow::RowExpr as E;
    let lit = |n: i64| Box::new(E::Const(Value::Long(n)));
    let input = || Box::new(E::Input);
    let bin = |op: BinOp, a: Box<E>, b: Box<E>| Box::new(E::Bin(op, a, b));
    let steps: Vec<E> = vec![
        E::Bin(BinOp::Add, bin(BinOp::Mul, input(), lit(3)), lit(7)),
        E::Bin(BinOp::Mul, input(), input()),
        E::Bin(BinOp::Mod, input(), lit(1_000_003)),
        E::Bin(BinOp::Sub, bin(BinOp::Mul, input(), lit(5)), lit(11)),
        E::Bin(BinOp::Eq, bin(BinOp::Mod, input(), lit(2)), lit(0)),
        E::Bin(BinOp::Add, input(), bin(BinOp::Mod, input(), lit(97))),
        E::Bin(BinOp::Mul, input(), lit(13)),
        E::Bin(BinOp::Mod, input(), lit(999_983)),
        E::Bin(BinOp::Lt, input(), lit(250_000)),
        E::Bin(BinOp::Add, bin(BinOp::Mul, input(), lit(31)), lit(17)),
        E::Bin(BinOp::Mod, input(), lit(101_117)),
        E::Bin(BinOp::Sub, input(), lit(1)),
    ];
    let mut out = d.clone();
    for (i, e) in steps.into_iter().enumerate() {
        out = if matches!(i, 4 | 8) {
            columnar_filter(&out, e, transparent)
        } else {
            columnar_map(&out, e, transparent)
        };
    }
    out
}

/// One columnar-vs-row comparison the table, JSON, and `--check` gates
/// all read from.
struct ColumnarRow {
    speedup: f64,
    identical: bool,
    errors_identical: bool,
    vectorized_batches: u64,
    row_fallback_stages: u64,
}

/// Columnar execution on the one engine: the scan-heavy fused chain runs
/// once transparent (`map_expr`/`filter_expr`, lowered to columnar tiles)
/// and once as its opaque twin (the same functions behind closures, on
/// the row path), byte-checked (rows and order) against each other. A
/// poisoned division mid-chain additionally checks that both paths
/// surface the identical first error with its statement tag. Word Count
/// and K-Means report the engine's own layout counters. `--check` gates:
/// everything identical, the transparent chain vectorized with zero row
/// fallbacks, and at least 3× faster than its twin.
fn columnar(json: bool, check: bool) {
    if !json {
        println!("== Columnar: vectorized batches vs the tuple-at-a-time row path ===========");
        println!(
            "{:<14} {:>9} {:>10} {:>9} {:>12} {:>10} {:>10} {:>8}",
            "workload",
            "path",
            "secs",
            "speedup",
            "vec_batches",
            "fallbacks",
            "identical",
            "errors"
        );
    }
    let s = scale();
    let ctx = Context::new(COLUMNAR_WORKERS, COLUMNAR_PARTS);
    ctx.set_memory_budget(None);
    let settings = settings_fields(&ctx);
    let emit = |workload: &str,
                path: &str,
                t: Duration,
                speedup: Option<f64>,
                stats: &diablo_dataflow::StatsSnapshot,
                identical: Option<bool>,
                errors_identical: Option<bool>| {
        let opt = |b: Option<bool>| b.map_or("-".to_string(), |b| b.to_string());
        if json {
            let secs_s = secs(t);
            let speedup_s = speedup.map(|x| format!("{x:.2}"));
            let vecb = stats.vectorized_batches.to_string();
            let fallb = stats.row_fallback_stages.to_string();
            let (ident, errs) = (
                identical.map(|b| b.to_string()),
                errors_identical.map(|b| b.to_string()),
            );
            let mut fields: Vec<(&str, &str)> = vec![
                ("bench", "columnar"),
                ("workload", workload),
                ("path", path),
            ];
            fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
            fields.push(("secs", secs_s.as_str()));
            if let Some(x) = &speedup_s {
                fields.push(("speedup_vs_row", x.as_str()));
            }
            fields.extend([
                ("vectorized_batches", vecb.as_str()),
                ("row_fallback_stages", fallb.as_str()),
            ]);
            if let Some(x) = &ident {
                fields.push(("identical", x.as_str()));
            }
            if let Some(x) = &errs {
                fields.push(("errors_identical", x.as_str()));
            }
            println!("{}", json_row(&fields));
        } else {
            println!(
                "{:<14} {:>9} {:>10} {:>9} {:>12} {:>10} {:>10} {:>8}",
                workload,
                path,
                secs(t),
                speedup.map_or("-".to_string(), |x| format!("{x:.2}")),
                stats.vectorized_batches,
                stats.row_fallback_stages,
                opt(identical),
                opt(errors_identical),
            );
        }
    };

    // -- the fused expression chain and its opaque twin -----------------
    let d = ctx.from_vec((0..1_500_000 * s as i64).map(Value::Long).collect());
    let timed = |transparent: bool| {
        let before = ctx.stats().snapshot();
        let mut out: Vec<Value> = Vec::new();
        let t = diablo_bench::time_median(2, || out = columnar_chain(&d, transparent).collect());
        let stats = ctx.stats().snapshot().since(&before);
        (t, out, stats)
    };
    // One division poisoned to hit zero on a mid-tile row; both paths
    // must surface the identical tagged first error.
    let poisoned_err = |transparent: bool| -> String {
        use diablo_dataflow::RowExpr as E;
        ctx.set_statement_label(Some("s1: F := 1000 / (V[i] - 123457)"));
        let d = columnar_map(
            &ctx.from_vec((0..300_000).map(Value::Long).collect()),
            E::Bin(
                BinOp::Div,
                Box::new(E::Const(Value::Long(1000))),
                Box::new(E::Bin(
                    BinOp::Sub,
                    Box::new(E::Input),
                    Box::new(E::Const(Value::Long(123_457))),
                )),
            ),
            transparent,
        );
        ctx.set_statement_label(None);
        d.try_collect()
            .expect_err("poisoned chain must fail")
            .message
    };
    let (row_t, row_rows, row_stats) = timed(false);
    let (col_t, col_rows, col_stats) = timed(true);
    let identical = row_rows == col_rows;
    let err_row = poisoned_err(false);
    let err_col = poisoned_err(true);
    let errors_identical = err_row == err_col && err_col.contains("zero");
    let speedup = row_t.as_secs_f64() / col_t.as_secs_f64().max(1e-9);
    let chain = ColumnarRow {
        speedup,
        identical,
        errors_identical,
        vectorized_batches: col_stats.vectorized_batches,
        row_fallback_stages: col_stats.row_fallback_stages,
    };
    let (ident, errs) = (Some(identical), Some(errors_identical));
    emit(
        "fusion-chain",
        "row",
        row_t,
        Some(1.0),
        &row_stats,
        ident,
        errs,
    );
    emit(
        "fusion-chain",
        "columnar",
        col_t,
        Some(speedup),
        &col_stats,
        ident,
        errs,
    );

    // -- full compiled workloads: the engine's per-stage layout ---------
    for w in [
        wl::word_count(20_000 * s, 91),
        wl::kmeans(2_000 * s, 3, 1, 92),
    ] {
        let before = ctx.stats().snapshot();
        let (_, t) = run_diablo_outputs(&w, &ctx);
        let stats = ctx.stats().snapshot().since(&before);
        emit(w.name, "engine", t, None, &stats, None, None);
    }
    if !json {
        println!();
    }
    if check {
        columnar_check(&chain);
    }
}

/// The gates CI holds columnar execution to: the transparent chain
/// byte-identical to its opaque twin, the poisoned chain's first error
/// identical too, the transparent chain genuinely vectorized end to end
/// (batches counted, zero fallbacks), and at least 3× faster than
/// tuple-at-a-time.
fn columnar_check(r: &ColumnarRow) {
    let mut failures: Vec<String> = Vec::new();
    if !r.identical {
        failures.push("fusion-chain: columnar rows diverged from the row path".into());
    }
    if !r.errors_identical {
        failures.push("fusion-chain: columnar first error diverged".into());
    }
    if r.speedup < 3.0 {
        failures.push(format!(
            "fusion-chain: columnar speedup {:.2} (need ≥ 3.0)",
            r.speedup
        ));
    }
    if r.vectorized_batches == 0 {
        failures.push("fusion-chain: no vectorized batches counted".into());
    }
    if r.row_fallback_stages != 0 {
        failures.push(format!(
            "fusion-chain: {} row-path fallbacks on a transparent chain",
            r.row_fallback_stages
        ));
    }
    if failures.is_empty() {
        eprintln!("columnar --check: all gates passed");
    } else {
        for f in &failures {
            eprintln!("columnar --check FAILED: {f}");
        }
        std::process::exit(1);
    }
}

// ------------------------------------------------------------------- serve

/// The serving workload mix: compute-heavy programs with small inputs and
/// small outputs, so a request's wall-clock is dominated by engine work —
/// what the cold/warm comparison is meant to expose — rather than by
/// shipping rows over the socket.
fn serve_workloads() -> Vec<wl::Workload> {
    let s = scale();
    vec![
        wl::matrix_multiplication(28 * s, 71),
        wl::matrix_multiplication(32 * s, 72),
        wl::matrix_multiplication(36 * s, 73),
        wl::pagerank(150 * s, 2, 74),
        wl::pagerank(200 * s, 3, 75),
        wl::matrix_factorization(24 * s, 2, 1, 76),
    ]
}

/// What one closed-loop phase observed, aggregated over all clients.
struct PhaseResult {
    latencies: Vec<Duration>,
    failures: u64,
    hits: u64,
    wall: Duration,
}

/// Drives the server with `clients` closed-loop threads, each running
/// every workload `rounds` times (rotated per client so concurrent
/// requests interleave distinct programs).
fn serve_drive(
    addr: &str,
    clients: usize,
    rounds: usize,
    workloads: &[wl::Workload],
    no_cache: bool,
) -> PhaseResult {
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            let wls = workloads.to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect to diablod");
                let mut latencies = Vec::with_capacity(rounds * wls.len());
                let mut failures = 0u64;
                let mut hits = 0u64;
                for r in 0..rounds {
                    for i in 0..wls.len() {
                        let w = &wls[(i + c + r) % wls.len()];
                        let scalars: Vec<(String, Value)> = w
                            .scalars
                            .iter()
                            .map(|(n, v)| (n.to_string(), v.clone()))
                            .collect();
                        let rows: Vec<(String, Vec<Value>)> = w
                            .collections
                            .iter()
                            .map(|(n, r)| (n.to_string(), r.clone()))
                            .collect();
                        let t0 = Instant::now();
                        match client.run(w.source, scalars, rows, no_cache) {
                            Ok(res) => {
                                latencies.push(t0.elapsed());
                                if res.stats.cache_hit {
                                    hits += 1;
                                }
                            }
                            Err(_) => failures += 1,
                        }
                    }
                }
                (latencies, failures, hits)
            })
        })
        .collect();
    let mut out = PhaseResult {
        latencies: Vec::new(),
        failures: 0,
        hits: 0,
        wall: Duration::ZERO,
    };
    for h in handles {
        let (lats, failures, hits) = h.join().expect("client thread");
        out.latencies.extend(lats);
        out.failures += failures;
        out.hits += hits;
    }
    out.wall = started.elapsed();
    out
}

/// The closed-loop `diablod` serving benchmark: starts an in-process
/// server on an ephemeral port and drives it through three phases —
/// `cold` (every request executes, cache bypassed), `warm` (every
/// request is answerable from the plan-hash result cache, primed by the
/// cold phase since `no_cache` still stores results), and `overload`
/// (2× `max_inflight` clients, where admission control must queue the
/// excess rather than fail or OOM). `--check` gates: zero failed
/// requests anywhere, every warm request a cache hit, and warm p50 at
/// least 10× below cold p50.
fn serve_bench(json: bool, check: bool) {
    let ctx = Context::default_parallel();
    let settings = settings_fields(&ctx);
    let cfg = ServeConfig::default();
    let max_inflight = cfg.max_inflight;
    let max_inflight_s = max_inflight.to_string();
    let deadline_ms = cfg.queue_deadline.as_millis().to_string();
    let cache_budget = cfg.cache_budget.to_string();
    let server = Server::start("127.0.0.1:0", ctx, cfg).expect("start diablod");
    let addr = server.addr().to_string();
    let workloads = serve_workloads();

    if !json {
        println!("== Serving: diablod closed-loop (clients × programs) =======================");
        println!(
            "{:<10} {:>8} {:>9} {:>9} {:>10} {:>10} {:>10} {:>6} {:>9}",
            "phase",
            "clients",
            "requests",
            "failures",
            "rps",
            "p50 (ms)",
            "p99 (ms)",
            "hits",
            "wall (s)"
        );
    }

    let phases: [(&str, usize, usize, bool); 3] = [
        ("cold", max_inflight, 1, true),
        ("warm", max_inflight, 20, false),
        ("overload", 2 * max_inflight, 1, true),
    ];
    let mut results: Vec<(&str, usize, PhaseResult)> = Vec::new();
    for (phase, clients, rounds, no_cache) in phases {
        let res = serve_drive(&addr, clients, rounds, &workloads, no_cache);
        results.push((phase, clients, res));
    }

    for (phase, clients, res) in &results {
        let requests = res.latencies.len() as u64 + res.failures;
        let rps = requests as f64 / res.wall.as_secs_f64().max(1e-9);
        let p50 = percentile(&res.latencies, 50.0);
        let p99 = percentile(&res.latencies, 99.0);
        if json {
            let clients_s = clients.to_string();
            let programs = workloads.len().to_string();
            let requests_s = requests.to_string();
            let failures = res.failures.to_string();
            let rps_s = format!("{rps:.1}");
            let p50_s = millis(p50);
            let p99_s = millis(p99);
            let hits = res.hits.to_string();
            let wall = secs(res.wall);
            let mut fields: Vec<(&str, &str)> = vec![("bench", "serve"), ("phase", phase)];
            fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
            fields.extend([
                ("clients", clients_s.as_str()),
                ("programs", programs.as_str()),
                ("requests", requests_s.as_str()),
                ("failures", failures.as_str()),
                ("rps", rps_s.as_str()),
                ("p50_ms", p50_s.as_str()),
                ("p99_ms", p99_s.as_str()),
                ("cache_hits", hits.as_str()),
                ("wall_secs", wall.as_str()),
                ("max_inflight", max_inflight_s.as_str()),
                ("queue_deadline_ms", deadline_ms.as_str()),
                ("cache_budget", cache_budget.as_str()),
            ]);
            println!("{}", json_row(&fields));
        } else {
            println!(
                "{:<10} {:>8} {:>9} {:>9} {:>10.1} {:>10} {:>10} {:>6} {:>9}",
                phase,
                clients,
                requests,
                res.failures,
                rps,
                millis(p50),
                millis(p99),
                res.hits,
                secs(res.wall)
            );
        }
    }

    // One counters row: the server's own view of the run.
    let counters = Client::connect(&addr)
        .expect("connect to diablod")
        .stats()
        .expect("server stats");
    if json {
        let mut fields: Vec<(&str, &str)> = vec![("bench", "serve"), ("phase", "counters")];
        let owned: Vec<(String, String)> = counters
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        fields.extend(owned.iter().map(|(k, v)| (k.as_str(), v.as_str())));
        println!("{}", json_row(&fields));
    } else {
        let line: Vec<String> = counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("counters   {}", line.join(" "));
        println!();
    }
    let timeouts = counters
        .iter()
        .find(|(k, _)| k == "admission_timeouts")
        .map_or(0, |(_, v)| *v);
    server.stop();

    if check {
        serve_check(&results, timeouts);
    }
}

/// The gates CI holds the serving layer to: no request may fail in any
/// phase (overload queues, it does not shed), no admission timeout may
/// fire, the warm phase must be answered entirely from the cache, and a
/// cache hit must be at least 10× faster than a cold execution at the
/// median.
fn serve_check(results: &[(&str, usize, PhaseResult)], timeouts: u64) {
    let get = |phase: &str| results.iter().find(|(p, _, _)| *p == phase).map(|r| &r.2);
    let mut failures: Vec<String> = Vec::new();
    for (phase, _, res) in results {
        if res.failures > 0 {
            failures.push(format!(
                "{phase}: {} failed requests (need 0)",
                res.failures
            ));
        }
    }
    if timeouts > 0 {
        failures.push(format!("{timeouts} admission timeouts (need 0)"));
    }
    if let Some(warm) = get("warm") {
        let misses = warm.latencies.len() as u64 - warm.hits;
        if misses > 0 {
            failures.push(format!("warm: {misses} cache misses (need 0)"));
        }
    }
    if let (Some(cold), Some(warm)) = (get("cold"), get("warm")) {
        let cold_p50 = percentile(&cold.latencies, 50.0);
        let warm_p50 = percentile(&warm.latencies, 50.0);
        if warm_p50 * 10 > cold_p50 {
            failures.push(format!(
                "warm p50 {} ms not ≥10× below cold p50 {} ms",
                millis(warm_p50),
                millis(cold_p50)
            ));
        }
    }
    if failures.is_empty() {
        eprintln!("serve --check: all gates passed");
    } else {
        for f in &failures {
            eprintln!("serve --check FAILED: {f}");
        }
        std::process::exit(1);
    }
}

// ------------------------------------------------------------- §5 ablation

/// §5 ablation: sparse matrix multiplication (the DIABLO plan) vs the
/// packed/tiled path with dense tile kernels and the no-shuffle merge.
fn tiles(json: bool) {
    if !json {
        println!("== §5 ablation: sparse vs tiled matrix multiplication =====================");
        println!(
            "{:>6} {:>14} {:>14} {:>16}",
            "d", "sparse (s)", "tiled (s)", "tiled+pack (s)"
        );
    }
    let ctx = Context::default_parallel();
    let settings = settings_fields(&ctx);
    let s = scale();
    for &d in &[20usize * s, 40 * s, 60 * s, 80 * s] {
        let w = wl::matrix_multiplication(d, 7);
        let sparse = run_diablo(&w, &ctx);
        // Tiled path: dense 8×8 tiles, dense inner kernels.
        let m_rows = &w.collections[0].1;
        let n_rows = &w.collections[1].1;
        let tm = TiledMatrix::pack_values(8, 8, m_rows).expect("pack M");
        let tn = TiledMatrix::pack_values(8, 8, n_rows).expect("pack N");
        let (_, tiled) = time_once(|| tm.multiply(&tn));
        // Including pack/unpack conversion (the layer §5 fuses away).
        let start = Instant::now();
        let tm2 = TiledMatrix::pack_values(8, 8, m_rows).expect("pack M");
        let tn2 = TiledMatrix::pack_values(8, 8, n_rows).expect("pack N");
        let prod = tm2.multiply(&tn2);
        let _ = prod.unpack_values();
        let with_pack: Duration = start.elapsed();
        if json {
            let d_s = d.to_string();
            let sparse_s = secs(sparse);
            let tiled_s = secs(tiled);
            let pack_s = secs(with_pack);
            let mut fields: Vec<(&str, &str)> = vec![("bench", "tiles")];
            fields.extend(settings.iter().map(|(k, v)| (*k, v.as_str())));
            fields.extend([
                ("d", d_s.as_str()),
                ("sparse_secs", sparse_s.as_str()),
                ("tiled_secs", tiled_s.as_str()),
                ("tiled_pack_secs", pack_s.as_str()),
            ]);
            println!("{}", json_row(&fields));
        } else {
            println!(
                "{:>6} {:>14} {:>14} {:>16}",
                d,
                secs(sparse),
                secs(tiled),
                secs(with_pack)
            );
        }
    }
    if !json {
        println!();
    }
}
