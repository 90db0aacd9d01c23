//! What a run measured and checked, and how it is printed and recorded.

use crate::fleet::Ops;
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric: its value plus the per-repetition samples (bursts,
/// windows or set-ups) the value summarises.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
    /// Underlying observations, e.g. latencies behind a percentile.
    pub count: usize,
    /// The value before scaling to the reference host speed, if scaled.
    pub raw: Option<f64>,
}

/// The series a latency metric reads.
#[derive(Clone, Copy)]
pub enum Latency {
    Submit,
    Turnaround,
}

/// The end-to-end latency metrics: name, series and percentile.
pub const LATENCIES: [(&str, Latency, f64); 4] = [
    ("submit_ms_p50", Latency::Submit, 0.5),
    ("submit_ms_p90", Latency::Submit, 0.9),
    ("turnaround_ms_p50", Latency::Turnaround, 0.5),
    ("turnaround_ms_p90", Latency::Turnaround, 0.9),
];

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub phases: BTreeMap<&'static str, Ops>,
    pub checks: Vec<(String, bool, String)>,
    pub reps: usize,
    pub notes: Vec<String>,
}

impl Outcome {
    /// A metric whose value is the median of its per-repetition samples.
    pub fn median_of(&mut self, name: &str, unit: &'static str, samples: Vec<f64>, count: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: stats::median(&samples),
            samples,
            count,
            raw: None,
        });
    }

    /// A single measured value.
    pub fn single(&mut self, name: &str, unit: &'static str, value: f64, count: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples: vec![value],
            count,
            raw: None,
        });
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    pub fn phase(&mut self, name: &'static str, ops: Ops) {
        self.phases.entry(name).or_default().merge(ops);
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    pub fn totals(&self) -> Ops {
        let mut all = Ops::default();
        for ops in self.phases.values() {
            all.merge(*ops);
        }
        all
    }
}

/// JSON number text; non-finite values (which no metric should produce)
/// become `null` so the line stays valid JSON.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The last stdout line: `correct`, `attempted`, `failed` and the metrics
/// named in `wanted`, in that order, each in its registered unit.
pub fn result_line(outcome: &Outcome, wanted: &[(&str, &str)]) -> String {
    let totals = outcome.totals();
    let metrics: Vec<String> = wanted
        .iter()
        .map(|&(name, unit)| {
            let m = outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert_eq!(m.unit, unit, "metric {name} measured in the wrong unit");
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(&m.name),
                num(m.value),
                quoted(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        totals.attempted.max(1),
        totals.failed,
        metrics.join(", ")
    )
}

/// Provenance of a run.
pub struct Context {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub cpu: String,
    pub git_commit: String,
    pub source_digest: String,
}

/// The full record of a run: provenance, every metric with its median,
/// quartiles and sample counts, attempted/failed per phase, and every check.
pub fn record_json(ctx: &Context, outcome: &Outcome) -> String {
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"cpu\": {}, \"git_commit\": {}, \"source_digest\": {}, \"runs\": {}, ",
        quoted(&ctx.workload),
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        ctx.nproc,
        quoted(&ctx.cpu),
        quoted(&ctx.git_commit),
        quoted(&ctx.source_digest),
        outcome.reps,
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let (q1, q3) = stats::quartiles(&m.samples);
            format!(
                "{}: {{\"value\": {}, \"raw_value\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"runs\": {}, \"samples\": {}, \"per_run\": [{}]}}",
                quoted(&m.name),
                num(m.value),
                num(m.raw.unwrap_or(m.value)),
                quoted(m.unit),
                num(stats::median(&m.samples)),
                num(q1),
                num(q3),
                m.samples.len(),
                m.count,
                m.samples.iter().map(|v| num(*v)).collect::<Vec<_>>().join(", ")
            )
        })
        .collect();
    let _ = write!(out, "\"metrics\": {{{}}}, ", metrics.join(", "));
    let phases: Vec<String> = outcome
        .phases
        .iter()
        .map(|(name, ops)| {
            format!(
                "{}: {{\"attempted\": {}, \"failed\": {}}}",
                quoted(name),
                ops.attempted,
                ops.failed
            )
        })
        .collect();
    let _ = write!(out, "\"phases\": {{{}}}, ", phases.join(", "));
    let checks: Vec<String> = outcome
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            format!(
                "{{\"check\": {}, \"ok\": {ok}, \"detail\": {}}}",
                quoted(name),
                quoted(detail)
            )
        })
        .collect();
    let _ = write!(out, "\"checks\": [{}], ", checks.join(", "));
    let notes: Vec<String> = outcome.notes.iter().map(|n| quoted(n)).collect();
    let _ = write!(out, "\"notes\": [{}]}}", notes.join(", "));
    out
}

/// A human-readable summary for the lines before the result.
pub fn summary(ctx: &Context, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed={} seconds={} trace={} nproc={} runs={}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8, ctx.nproc, outcome.reps
    );
    for m in &outcome.metrics {
        let (q1, q3) = stats::quartiles(&m.samples);
        let _ = writeln!(
            out,
            "  {:<34} {:>14.6} {:<10} q1={:.6} q3={:.6} runs={} n={}",
            m.name,
            m.value,
            m.unit,
            q1,
            q3,
            m.samples.len(),
            m.count
        );
    }
    for (name, ops) in &outcome.phases {
        let _ = writeln!(
            out,
            "  phase {name:<12} attempted={} failed={}",
            ops.attempted, ops.failed
        );
    }
    for (name, ok, detail) in &outcome.checks {
        let _ = writeln!(
            out,
            "  check {} {name}: {detail}",
            if *ok { "ok  " } else { "FAIL" }
        );
    }
    for note in &outcome.notes {
        let _ = writeln!(out, "  note {note}");
    }
    out
}
