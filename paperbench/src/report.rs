//! Metric names, the run's result, and the printed result line.

use std::fmt::Write as _;

use crate::trace::{num, Tracer};

/// End-to-end metrics `(name, unit)`, measured untraced on every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("mix_s", "s"),
    ("program_ms_geomean", "ms"),
    ("requests_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, from the traced run. A layer that is
/// not on a workload's path reports 0 there.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("lang.parse_us", "us"),
    ("lang.typecheck_us", "us"),
    ("core.restrict_us", "us"),
    ("core.translate_us", "us"),
    ("core.lint_us", "us"),
    ("core.target_bytes", "count"),
    ("exec.bind_ms", "ms"),
    ("exec.run_ms", "ms"),
    ("exec.collect_ms", "ms"),
    ("dataflow.physical_stages", "count"),
    ("dataflow.shuffles", "count"),
    ("dataflow.shuffled_records", "count"),
    ("dataflow.shuffled_bytes", "bytes"),
    ("dataflow.broadcast_records", "count"),
    ("dataflow.spilled_bytes", "bytes"),
    ("dataflow.stage_ms", "ms"),
    ("dataflow.coordination_ms", "ms"),
    ("dataflow.balance", "ratio"),
    ("dataflow.morsels", "count"),
    ("dataflow.steals", "count"),
    ("dataflow.vectorized_batches", "count"),
    ("dataflow.row_fallback_stages", "count"),
    ("dataflow.dataset_spills", "count"),
    ("dataflow.dataset_evictions", "count"),
    ("dataflow.dataset_recomputes", "count"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.admission_timeouts", "count"),
    ("serve.plan_hash_us", "us"),
    ("serve.rows_hash_us", "us"),
    ("serve.proto_encode_us", "us"),
    ("serve.request_bytes", "bytes"),
    ("baselines.handwritten_ms", "ms"),
    ("core.gap_vs_handwritten", "ratio"),
    ("interp.seq_ms", "ms"),
    ("exec.speedup_vs_interp", "ratio"),
    ("trace.overhead_mix", "ratio"),
    ("trace.overhead_p50", "ratio"),
    ("trace.cover_min", "ratio"),
    ("trace.uncovered_spans", "count"),
    ("trace.spans", "count"),
    ("failed_frac", "ratio"),
];

/// Children of a `program` or `request` span must cover all but this
/// share of it.
pub const COVER_TOLERANCE: f64 = 0.05;

/// One measured value.
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// The metrics of one run, in the order measured.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            samples,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct RunOutput {
    /// Jobs or requests attempted (warm-up included).
    pub attempted: u64,
    /// Of those, the ones that errored or whose outputs differed from the
    /// interpreter's.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Metrics,
    /// The engine settings the run used.
    pub settings: Vec<(&'static str, String)>,
    /// Recorded spans (traced runs only).
    pub tracers: Vec<Tracer>,
}

impl RunOutput {
    /// Counts finished jobs or requests (`true` = ok).
    pub fn count(&mut self, oks: impl IntoIterator<Item = bool>) {
        for ok in oks {
            self.attempted += 1;
            if !ok {
                self.failed += 1;
            }
        }
    }

    /// Reports tracing overhead: traced ÷ untraced pass time and median
    /// job or request time, each given as `(traced, untraced)`.
    pub fn trace_overhead(&mut self, mix: (f64, f64), p50: (f64, f64)) {
        self.metrics.push("trace.overhead_mix", mix.0 / mix.1, 2);
        self.metrics.push("trace.overhead_p50", p50.0 / p50.1, 2);
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every metric named in `names` (a missing one reads 0).
pub fn result_line(out: &RunOutput, correct: bool, names: &[(&str, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        correct, out.attempted, out.failed
    );
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = out.metrics.get(name).map_or(0.0, |m| m.value);
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value)
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = RunOutput::default();
        out.count([true, true, false]);
        out.metrics.push("setup_s", 1.25, 3);
        let line = result_line(&out, false, &[("setup_s", "s"), ("mix_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\
             \"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"mix_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} ({unit}) missing");
        }
        for w in crate::jobs::WORKLOADS {
            assert!(
                compact.contains(&format!("\"name\":\"{w}\"")),
                "{w} missing"
            );
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
