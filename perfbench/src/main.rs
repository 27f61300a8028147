//! The repository benchmark. See `perfbench/README.md` for the
//! workloads, the metrics and what each layer metric should move.
//!
//! ```text
//! perfbench --workload cold-4x4|cold-20x20|daemon-mix [--seed N]
//!           [--seconds S] [--trace 0|1] [--monomapd PATH]
//! ```
//!
//! One workload per process, so peak RSS is the workload's own
//! (`run.py` runs each in turn). It prints its summary row, then, as
//! the last line of standard output, one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the gated end-to-end metrics
//! untraced, the per-layer metrics traced).

mod check;
mod cold;
mod corpus;
mod daemon;
mod http;
mod mix;
mod relabel;
mod report;
mod rng;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use report::{Metric, RunResult};

pub const WORKLOADS: [&str; 3] = ["cold-4x4", "cold-20x20", "daemon-mix"];

/// The gated end-to-end metrics, in output order, with their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_p50_ms", "ms"),
    ("ii_sum", "II"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports; one a workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("frontend.compile_us", "us"),
    ("dfg.canon_us", "us"),
    ("sched.mii_us", "us"),
    ("core.time_encode_s", "s"),
    ("core.time_solve_s", "s"),
    ("core.time_solutions", "count"),
    ("core.iis_tried", "count"),
    ("core.space_s", "s"),
    ("core.target_build_ms", "ms"),
    ("iso.mono_steps_sum", "count"),
    ("iso.mono_steps_p50", "count"),
    ("iso.mono_steps_max", "count"),
    ("iso.attempts", "count"),
    ("iso.limit_reached", "count"),
    ("iso.found_ratio", "ratio"),
    ("sim.validate_ms", "ms"),
    ("sim.reference_mismatch", "count"),
    ("service.probe_us", "us"),
    ("service.hit_ratio", "ratio"),
    ("persistence.log_bytes", "bytes"),
    ("server.queue_high_watermark", "count"),
    ("server.shed_total", "count"),
    ("server.solve_p50_s", "s"),
    ("wire.connect_us", "us"),
    ("wire.response_us", "us"),
    ("gen.late_ms_p50", "ms"),
    ("gen.late_ms_max", "ms"),
    ("solve_tail_ms", "ms"),
    ("solves_per_s", "1/s"),
    ("ii_unstable_kernels", "count"),
    ("hit_p50_us", "us"),
    ("hit_tail_us", "us"),
    ("compile_p50_us", "us"),
    ("miss_p50_ms", "ms"),
    ("max_rps", "1/s"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("run.seconds", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    monomapd: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        monomapd: "target/release/monomapd".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}` (one of {WORKLOADS:?})"));
                }
                workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--monomapd" => args.monomapd = value()?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload =
        workload.ok_or_else(|| format!("--workload is required (one of {WORKLOADS:?})"))?;
    Ok(args)
}

fn run_workload(name: &str, args: &Args, cpu: Option<&str>) -> RunResult {
    let start = std::time::Instant::now();
    let mut result = match name {
        "cold-4x4" => cold::run(
            &cold::Params {
                rows: 4,
                cols: 4,
                numberings: 24,
            },
            args.seed,
            args.seconds,
            args.trace,
        ),
        "cold-20x20" => cold::run(
            &cold::Params {
                rows: 20,
                cols: 20,
                numberings: 10,
            },
            args.seed,
            args.seconds,
            args.trace,
        ),
        "daemon-mix" => mix::run(&args.monomapd, cpu, args.seed, args.seconds, args.trace),
        other => unreachable!("workload {other} was validated by parse_args"),
    };
    if args.trace {
        result.per_layer.push(report::metric(
            "failed_ratio",
            result.failed_ratio(),
            "ratio",
        ));
        result.per_layer.push(report::metric(
            "run.seconds",
            start.elapsed().as_secs_f64(),
            "s",
        ));
    }
    result
}

/// The result line: exactly the metrics of `names`, in that order,
/// taking each value from `produced` (0 when the workload has none).
fn result_json(result: &RunResult, names: &[(&str, &str)], produced: &[Metric]) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = produced.iter().find(|m| m.name == *name).map_or(0.0, |m| {
            assert_eq!(m.unit, *unit, "{name} is reported in {unit}");
            m.value
        });
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        result.wrong == 0,
        result.attempted,
        result.failed
    )
}

fn write_spans(name: &str, seed: u64, spans: &str) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{name}-seed{seed}.jsonl"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    // Everything runs on one CPU, the daemon included: on a shared
    // machine that removes migrations and cross-CPU wake-ups from the
    // timings.
    let cpu = daemon::last_cpu().filter(|cpu| daemon::pin_self(cpu));
    let name = args.workload.as_str();
    let mut result = run_workload(name, &args, cpu.as_deref());
    result.cell("cpu", cpu.as_deref().unwrap_or("any"));
    if let Some(why) = &result.first_failure {
        eprintln!("perfbench: {name}: {} failed, first: {why}", result.failed);
    }
    if args.trace {
        write_spans(name, args.seed, &result.spans);
    }
    let mut row = format!(
        "{name:<11} seed={} trace={}",
        args.seed,
        u8::from(args.trace)
    );
    for (label, value) in &result.row {
        let _ = write!(row, " | {label}={value}");
    }
    println!("{row}");
    if args.trace {
        println!("{}", result_json(&result, &PER_LAYER, &result.per_layer));
    } else {
        println!("{}", result_json(&result, &END_TO_END, &result.end_to_end));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_exactly_the_named_metrics() {
        let result = RunResult {
            attempted: 3,
            failed: 1,
            end_to_end: vec![report::metric("setup_s", 0.25, "s")],
            ..RunResult::default()
        };
        let line = result_json(&result, &END_TO_END, &result.end_to_end);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1, "));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
    }

    #[test]
    fn benchmark_manifest_names_the_metrics_the_code_prints() {
        let Ok(manifest) = std::fs::read_to_string("../BENCHMARK.json") else {
            return;
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(manifest.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }
}
