//! `cold-4x4` and `cold-20x20`: library-path cold solves
//! (`MappingService::map`, decoupled engine, default configuration) of
//! every suite kernel under a seeded set of node numberings, closed
//! loop, one caller.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cgra_arch::Cgra;
use cgra_dfg::Dfg;
use cgra_sim::SimEnv;
use monomap_core::api::{
    EngineId, EventCollector, MapEvent, MapReport, MapRequest, MappingService, SpaceAttemptOutcome,
};
use monomap_core::{build_target, MapperConfig};
use monomap_service::{CacheProbe, CachedMappingService};

use crate::check::{self, Tally};
use crate::corpus;
use crate::relabel;
use crate::report::{core_metrics, metric, peak_rss_mib, Metric, RunResult};
use crate::rng::Rng;
use crate::stats::{self, label, summarize};
use crate::trace::Tracer;

pub struct Params {
    pub rows: usize,
    pub cols: usize,
    /// Numberings per kernel, the suite's own included.
    pub numberings: usize,
}

/// Set-ups per run, at least; `setup_s` is their median. The first
/// comes before the solves, the others after each repeat round, so
/// they sample the machine across the run as the solves do.
const SETUP_REPS: usize = 9;
/// Samples whose first solve is faster than this are solved again, so
/// that timer and scheduling noise averages out where the median sits.
const REPEAT_BELOW_MS: f64 = 50.0;
/// Repeat rounds over those samples, at least.
const MIN_REPEATS: usize = 4;

struct Sample {
    kernel: usize,
    dfg: Dfg,
    env: SimEnv,
    request: MapRequest,
}

fn generate(params: &Params, seed: u64) -> Vec<Sample> {
    let rng = Rng::new(seed);
    let mut samples = Vec::new();
    for (k, name) in cgra_dfg::suite::names().into_iter().enumerate() {
        let original = cgra_dfg::suite::generate(name);
        let mut numbering_rng = rng.fork(k as u64);
        let mut env_rng = rng.fork(1000 + k as u64);
        for dfg in relabel::numberings(&original, params.numberings, &mut numbering_rng) {
            let env = check::env_for(&dfg, &mut env_rng);
            let request = MapRequest::new(EngineId::Decoupled, dfg.clone());
            samples.push(Sample {
                kernel: k,
                dfg,
                env,
                request,
            });
        }
    }
    samples
}

pub fn run(params: &Params, seed: u64, seconds: f64, traced: bool) -> RunResult {
    let time_setup = || {
        let t0 = Instant::now();
        let samples = generate(params, seed);
        (t0.elapsed().as_secs_f64(), samples)
    };
    let (first_setup, samples) = time_setup();
    let mut setup_times = vec![first_setup];
    let cgra = Cgra::new(params.rows, params.cols).expect("benchmark grid is valid");
    let service = MappingService::new(&cgra);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    Rng::new(seed).fork(u64::MAX).shuffle(&mut order);
    let solve = |pos: usize| {
        let t0 = Instant::now();
        let report = service.map(&samples[order[pos]].request);
        (t0.elapsed().as_secs_f64(), report)
    };

    // One solve of every sample. Samples under `REPEAT_BELOW_MS` are
    // solved again in rounds spread over the run: one after each slow
    // sample of the first pass, then at least `MIN_REPEATS` more, and
    // more while another fits in the time (the traced run stops at
    // `MIN_REPEATS`). A sample's latency is the fastest of its solves.
    let start = Instant::now();
    let mut first: Vec<(f64, MapReport)> = Vec::with_capacity(order.len());
    let mut times: Vec<Vec<f64>> = Vec::with_capacity(order.len());
    let mut cheap: Vec<usize> = Vec::new();
    let mut tally = Tally::default();
    let mut repeat_round = |cheap: &[usize], first: &[(f64, MapReport)], times: &mut [Vec<f64>]| {
        for &pos in cheap {
            let (t, report) = solve(pos);
            times[pos].push(t);
            tally.checked += 1;
            if report.mapping != first[pos].1.mapping {
                tally.fail(format!(
                    "{}: a repeated solve changed its mapping",
                    report.dfg_name
                ));
            }
        }
    };
    for pos in 0..order.len() {
        let (t, report) = solve(pos);
        first.push((t, report));
        times.push(vec![t]);
        if t * 1e3 < REPEAT_BELOW_MS {
            cheap.push(pos);
        } else {
            repeat_round(&cheap, &first, &mut times);
            setup_times.push(time_setup().0);
        }
    }
    let first_pass_s: f64 = first.iter().map(|(t, _)| t).sum();
    let mut rounds = 0;
    loop {
        let t0 = Instant::now();
        repeat_round(&cheap, &first, &mut times);
        rounds += 1;
        setup_times.push(time_setup().0);
        let round_s = t0.elapsed().as_secs_f64();
        if rounds >= MIN_REPEATS && (traced || start.elapsed().as_secs_f64() + round_s > seconds) {
            break;
        }
    }
    while setup_times.len() < SETUP_REPS {
        setup_times.push(time_setup().0);
    }
    let setup_s = stats::median(&setup_times);
    for (pos, &i) in order.iter().enumerate() {
        let s = &samples[i];
        tally.add(check::check(&s.dfg, &cgra, &first[pos].1, &s.env));
    }
    let mut out = RunResult {
        attempted: tally.checked,
        failed: tally.failed,
        wrong: tally.failed,
        first_failure: tally.first_failure.clone(),
        ..RunResult::default()
    };

    let latencies: Vec<f64> = times
        .iter()
        .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min) * 1e3)
        .collect();
    let solve = summarize(&latencies);
    let solves_per_s = first.len() as f64 / first_pass_s;
    let mut iis: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    let mut ii_sum = 0usize;
    for (pos, &i) in order.iter().enumerate() {
        let ii = first[pos].1.outcome.ii().unwrap_or(0);
        ii_sum += ii;
        iis.entry(samples[i].kernel).or_default().insert(ii);
    }
    let unstable = iis.values().filter(|set| set.len() > 1).count();
    let rss = peak_rss_mib("self");

    out.end_to_end = vec![
        metric("latency_p50_ms", solve.p50, "ms"),
        metric("ii_sum", ii_sum as f64, "II"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", rss, "MiB"),
    ];
    out.cell("solve_p50_ms", format!("{:.3}", solve.p50));
    out.cell(
        "solve_tail_ms",
        format!(
            "{:.3} ({}, n={})",
            solve.tail,
            label(solve.tail_bp),
            solve.n
        ),
    );
    out.cell("solves_per_s", format!("{solves_per_s:.2}"));
    out.cell("ii_sum", ii_sum.to_string());
    out.cell("ii_unstable_kernels", unstable.to_string());
    out.cell("failed_ratio", format!("{:.4}", out.failed_ratio()));
    out.cell(
        "setup_s",
        format!("{setup_s:.4} (median of {})", setup_times.len()),
    );
    out.cell("peak_rss_mb", format!("{rss:.1}"));
    out.cell(
        "samples",
        format!(
            "{} kernels x {} numberings, {} under {REPEAT_BELOW_MS} ms solved {}-{} times",
            iis.len(),
            params.numberings,
            cheap.len(),
            rounds + 1,
            times.iter().map(Vec::len).max().unwrap_or(0)
        ),
    );

    if traced {
        let (per_layer, tracer) = traced_pass(&cgra, &service, &samples, &order, tally.mismatched);
        out.per_layer = per_layer;
        out.per_layer.extend([
            metric("solve_tail_ms", solve.tail, "ms"),
            metric("solves_per_s", solves_per_s, "1/s"),
            metric("ii_unstable_kernels", unstable as f64, "count"),
        ]);
        out.spans = tracer.to_jsonl();
    }
    out
}

/// The traced pass: every sample again, with spans around the layer
/// calls and an observer on the solve, each next to an untraced twin of
/// the same calls (which of the two goes first alternates), so
/// `trace.overhead_pct` prices the spans and the observer and nothing
/// else. Returns the per-layer metrics and the spans.
fn traced_pass(
    cgra: &Cgra,
    service: &MappingService,
    samples: &[Sample],
    order: &[usize],
    mismatched: usize,
) -> (Vec<Metric>, Tracer) {
    let epoch = Instant::now();
    let mut t = Tracer::new(true, epoch);
    let mut attempts = 0usize;
    let mut found = 0usize;
    let mut limit_reached = 0usize;
    let mut reports = Vec::with_capacity(order.len());
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for (pos, &i) in order.iter().enumerate() {
        let s = &samples[i];
        let id = i as u64;
        let untraced = || {
            let t0 = Instant::now();
            black_box(s.dfg.canonical_form());
            black_box(cgra_sched::min_ii(&s.dfg, cgra));
            let report = service.map(&s.request);
            black_box(check::check(&s.dfg, cgra, &report, &s.env));
            t0.elapsed().as_secs_f64()
        };
        if pos % 2 == 0 {
            untraced_s += untraced();
        }
        let t0 = Instant::now();
        let root = t.begin("sample", None, id);
        t.span("dfg.canon", root, id, || s.dfg.canonical_form());
        t.span("sched.min_ii", root, id, || {
            cgra_sched::min_ii(&s.dfg, cgra)
        });
        let events = Arc::new(EventCollector::new());
        let request = s.request.clone().with_observer(events.clone());
        let report = t.span("core.map", root, id, || service.map(&request));
        t.span("sim.check", root, id, || {
            check::check(&s.dfg, cgra, &report, &s.env)
        });
        t.end(root);
        for e in events.events() {
            if let MapEvent::SpaceAttempt { outcome, .. } = e {
                attempts += 1;
                match outcome {
                    SpaceAttemptOutcome::Found => found += 1,
                    SpaceAttemptOutcome::LimitReached => limit_reached += 1,
                    _ => {}
                }
            }
        }
        traced_s += t0.elapsed().as_secs_f64();
        if pos % 2 == 1 {
            untraced_s += untraced();
        }
        reports.push(report);
    }
    // Target builds for every (grid, II) the solves touched.
    let touched: BTreeSet<usize> = reports
        .iter()
        .flat_map(|r| r.stats.mii..=r.stats.achieved_ii)
        .collect();
    for &ii in &touched {
        t.span("core.build_target", None, ii as u64, || {
            build_target(cgra, ii, MapperConfig::default().max_route_hops)
        });
    }
    let sources = corpus::sources();
    for (k, (_, src)) in sources.iter().enumerate() {
        t.span("frontend.compile", None, k as u64, || {
            monomap_frontend::compile_one(src)
        })
        .expect("corpus kernel compiles");
    }
    let cached = CachedMappingService::new(MappingService::new(cgra), 4096);
    let mut probe_hits = 0usize;
    for &i in order {
        let probe = t.span("service.probe", None, i as u64, || {
            cached.probe(&samples[i].request)
        });
        probe_hits += usize::from(matches!(probe, CacheProbe::Hit(_)));
    }

    let us = |name| stats::median(&t.durations(name)) * 1e6;
    let refs: Vec<&MapReport> = reports.iter().collect();
    let mut m = core_metrics(&refs, attempts, found, limit_reached);
    m.extend([
        metric("frontend.compile_us", us("frontend.compile"), "us"),
        metric("dfg.canon_us", us("dfg.canon"), "us"),
        metric("sched.mii_us", us("sched.min_ii"), "us"),
        metric("core.target_build_ms", us("core.build_target") / 1e3, "ms"),
        metric("sim.validate_ms", us("sim.check") / 1e3, "ms"),
        metric("sim.reference_mismatch", mismatched as f64, "count"),
        metric("service.probe_us", us("service.probe"), "us"),
        metric(
            "service.hit_ratio",
            probe_hits as f64 / order.len().max(1) as f64,
            "ratio",
        ),
        metric(
            "trace.overhead_pct",
            (traced_s / untraced_s - 1.0) * 100.0,
            "%",
        ),
        metric("trace.spans", t.len() as f64, "count"),
    ]);
    (m, t)
}
