//! What one workload run hands back to `main`: counts, the gated
//! end-to-end metrics, the per-layer metrics, and a human-readable row
//! in the metric names of `perfbench/README.md`.

use monomap_core::api::MapReport;

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: usize,
    pub failed: usize,
    /// Failures of an output check (a wrong answer, not a refusal).
    pub wrong: usize,
    pub first_failure: Option<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// `(label, value)` cells of the workload's row in the summary.
    pub row: Vec<(String, String)>,
    /// Spans of the traced run, one JSON object per line.
    pub spans: String,
}

impl RunResult {
    pub fn cell(&mut self, label: impl Into<String>, value: impl Into<String>) {
        self.row.push((label.into(), value.into()));
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one),
/// in MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Solver metrics summed over `reports` (from their `MapStats`), with
/// the space-phase attempt outcomes an observer counted.
pub fn core_metrics(
    reports: &[&MapReport],
    attempts: usize,
    found: usize,
    limit_reached: usize,
) -> Vec<Metric> {
    let sum = |f: fn(&MapReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let steps: Vec<f64> = reports.iter().map(|r| r.stats.mono_steps as f64).collect();
    let step_summary = crate::stats::summarize(&steps);
    vec![
        metric(
            "core.time_encode_s",
            sum(|r| r.stats.time_encode_seconds),
            "s",
        ),
        metric(
            "core.time_solve_s",
            sum(|r| r.stats.time_solve_seconds),
            "s",
        ),
        metric(
            "core.time_solutions",
            sum(|r| r.stats.time_solutions as f64),
            "count",
        ),
        metric("core.iis_tried", sum(|r| r.stats.iis_tried as f64), "count"),
        metric("core.space_s", sum(|r| r.stats.space_phase_seconds), "s"),
        metric("iso.mono_steps_sum", steps.iter().sum(), "count"),
        metric("iso.mono_steps_p50", step_summary.p50, "count"),
        metric("iso.mono_steps_max", step_summary.max, "count"),
        metric("iso.attempts", attempts as f64, "count"),
        metric("iso.limit_reached", limit_reached as f64, "count"),
        metric(
            "iso.found_ratio",
            found as f64 / attempts.max(1) as f64,
            "ratio",
        ),
    ]
}
