//! In-memory spans recorded around calls into the layers, written out at
//! the end as Chrome trace-event JSON (viewable in Perfetto or
//! `chrome://tracing`).
//!
//! Spans come from the benchmark's own code only: a span is the interval
//! between two `Instant`s the benchmark takes around a public call. A
//! span's self time is its duration minus the part of it that its
//! children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// A span argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`pass`, `program`, `lang.parse`, `request`, …).
    pub name: &'static str,
    /// Index of the parent span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Start, in microseconds since the tracer's origin.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Extra arguments shown in the trace viewer.
    pub args: Vec<(&'static str, Arg)>,
}

/// The spans of one thread.
pub struct Tracer {
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`; `tid` names the
    /// thread row in the viewer.
    pub fn new(origin: Instant, tid: u32) -> Tracer {
        Tracer {
            origin,
            tid,
            spans: Vec::new(),
        }
    }

    /// Records the interval `[start, end]`; returns its index for use as a
    /// parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        args: Vec<(&'static str, Arg)>,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            args,
        });
        self.spans.len() - 1
    }

    /// Moves the end of span `i` (recorded before its end was known).
    pub fn set_end(&mut self, i: usize, end: Instant) {
        let end_us = end.duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans[i].dur_us = end_us - self.spans[i].start_us;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `children` intervals `(start, dur)` clipped to
/// the parent interval `[p_start, p_start + p_dur]`.
pub fn covered(p_start: f64, p_dur: f64, children: &[(f64, f64)]) -> f64 {
    let p_end = p_start + p_dur;
    let mut iv: Vec<(f64, f64)> = children
        .iter()
        .map(|(s, d)| (s.max(p_start), (s + d).min(p_end)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.dur_us));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, c)| s.dur_us - covered(s.start_us, s.dur_us, c))
        .collect()
}

/// The "adds up" gate: for every span named in `names`, the share of it
/// that its children cover. Returns `(lowest share, spans checked,
/// spans whose uncovered share exceeds `tolerance`)`.
pub fn coverage(tracers: &[Tracer], names: &[&str], tolerance: f64) -> (f64, usize, usize) {
    let mut lowest = 1.0f64;
    let (mut checked, mut outside) = (0, 0);
    for t in tracers {
        let selfs = self_times(&t.spans);
        for (s, self_us) in t.spans.iter().zip(selfs) {
            if !names.contains(&s.name) || s.dur_us <= 0.0 {
                continue;
            }
            let share = 1.0 - self_us / s.dur_us;
            lowest = lowest.min(share);
            checked += 1;
            if 1.0 - share > tolerance {
                outside += 1;
            }
        }
    }
    (lowest, checked, outside)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats a number as JSON (non-finite values become `null`).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Chrome trace-event JSON ("X" complete events, microsecond timestamps)
/// for every tracer, with `metadata` as `otherData` string pairs.
pub fn chrome_json(tracers: &[Tracer], metadata: &[(String, String)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
    for (i, (k, v)) in metadata.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
    }
    out.push_str("},\"traceEvents\":[");
    let mut first = true;
    for t in tracers {
        let selfs = self_times(&t.spans);
        for (i, s) in t.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"paperbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                escape(s.name),
                t.tid,
                s.start_us,
                s.dur_us
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            let _ = write!(out, ",\"self_us\":{:.3}", selfs[i]);
            for (k, v) in &s.args {
                match v {
                    Arg::Num(x) => {
                        let _ = write!(out, ",\"{}\":{}", escape(k), num(*x));
                    }
                    Arg::Str(x) => {
                        let _ = write!(out, ",\"{}\":\"{}\"", escape(k), escape(x));
                    }
                }
            }
            out.push_str("}}");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, dur: f64) -> Span {
        Span {
            name,
            parent,
            start_us: start,
            dur_us: dur,
            args: vec![],
        }
    }

    #[test]
    fn union_of_children_counts_overlaps_once_and_clips_to_the_parent() {
        assert_eq!(covered(0.0, 100.0, &[]), 0.0);
        assert_eq!(covered(0.0, 100.0, &[(10.0, 20.0), (20.0, 20.0)]), 30.0);
        assert_eq!(covered(0.0, 100.0, &[(10.0, 10.0), (50.0, 10.0)]), 20.0);
        assert_eq!(covered(0.0, 100.0, &[(-10.0, 20.0), (90.0, 30.0)]), 20.0);
        assert_eq!(covered(0.0, 100.0, &[(0.0, 100.0), (5.0, 5.0)]), 100.0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("program", None, 0.0, 100.0),
            span("lang.parse", Some(0), 0.0, 30.0),
            span("exec.run", Some(0), 40.0, 50.0),
            span("inner", Some(2), 45.0, 10.0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![20.0, 30.0, 40.0, 10.0]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(selfs.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn coverage_gate_flags_spans_with_unaccounted_time() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 1);
        t.spans = vec![
            span("program", None, 0.0, 100.0),
            span("exec.run", Some(0), 0.0, 99.0),
            span("program", None, 200.0, 100.0),
            span("exec.run", Some(2), 200.0, 80.0),
        ];
        let (lowest, checked, outside) = coverage(&[t], &["program"], 0.05);
        assert_eq!(checked, 2);
        assert_eq!(outside, 1);
        assert!((lowest - 0.8).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin, 3);
        let p = t.record(
            "program",
            None,
            origin,
            origin,
            vec![("name", Arg::Str("a\"b".into()))],
        );
        t.record(
            "exec.run",
            Some(p),
            origin,
            origin,
            vec![("shuffles", Arg::Num(2.0))],
        );
        let json = chrome_json(&[t], &[("seed".into(), "7".into())]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"seed\":\"7\"}"));
        assert!(json.contains("\"name\":\"program\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"name\":\"a\\\"b\""));
        assert!(json.contains("\"shuffles\":2"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
