//! `daemon-mix`: the built `monomapd` on an ephemeral loopback port
//! with a fresh cache directory, driven open loop at fixed rates.
//!
//! One generator process with two threads and two keep-alive
//! connections (the machine's `nproc`): the hit thread sends relabelled
//! repeats of the warmed suite kernels; the other thread sends `.mk`
//! sources to `POST /compile` and never-seen keys (a small kernel aimed
//! at another grid) that miss, solve, and append to the disk log.
//! Every request is timed from its due time, not from when it was sent.
//! The fixed hit rate is a share of the hit capacity probed at set-up;
//! the reasons for each rate and share are in `perfbench/README.md`.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cgra_arch::{Cgra, Topology};
use cgra_dfg::Dfg;
use cgra_sim::SimEnv;
use monomap_core::api::{
    EngineId, EventCollector, MapEvent, MapReport, MapRequest, MappingService, SpaceAttemptOutcome,
};
use monomap_core::{build_target, MapperConfig};
use monomap_service::{
    CacheProbe, CachedMappingService, CompileResponse, DiskLog, MapCache, StatsSnapshot,
    TieredCache,
};

use crate::check::{self, Tally};
use crate::corpus;
use crate::daemon::{Daemon, Pools};
use crate::http::{self, Conn, Response};
use crate::relabel;
use crate::report::{core_metrics, metric, peak_rss_mib, Metric, RunResult};
use crate::rng::Rng;
use crate::stats::{self, label, summarize};
use crate::trace::Tracer;

/// Numberings per warmed kernel the hit thread cycles through, the
/// suite's own first: 7 of every 8 hits go through a non-identity
/// translation, and each of the 136 distinct hit requests is verified
/// once after the run.
const NUMBERINGS: usize = 8;
/// Set-ups (inputs, fresh directory, daemon boot, cache warm-up,
/// capacity probe) before the measured phase, the last of them the
/// daemon measured, and after it; `setup_s` is the median of all of
/// them, so it samples the machine on both sides of the run.
const SETUPS_BEFORE: usize = 2;
const SETUPS_AFTER: usize = 2;
/// The set-up whose daemon is measured.
const MEASURED: usize = SETUPS_BEFORE - 1;
/// The capacity probe: bursts of hits sent back to back on one
/// connection; the capacity is the median burst's rate, so one stall
/// of the machine does not set the run's load.
const PROBE_BURSTS: usize = 5;
const PROBE_BURST: usize = 400;
/// The fixed hit rate as a share of the probed capacity.
const FIXED_LOAD: f64 = 0.25;
/// Step rates for `max_rps`, as multiples of the fixed rate (the last
/// is 0.75 of the probed capacity, ~0.9 with the other thread's share:
/// near saturation, where `max_rps` finds the knee).
const STEPS: [f64; 4] = [1.5, 2.0, 2.5, 3.0];
/// Share of the run spent at the fixed rate (the rest is the steps).
const FIXED_SHARE: f64 = 0.75;
/// Non-hit requests per hit.
const OTHER_SHARE: f64 = 0.1;
/// Share of the non-hit requests that are never-seen keys.
const MISS_SHARE: f64 = 0.2;
/// The hit tail a step rate must meet to count towards `max_rps`.
const HIT_TAIL_LIMIT_MS: f64 = 10.0;
/// A segment has fallen behind its schedule when the median send
/// lateness over its last tenth exceeds this: a backlog that kept
/// growing, not a stall the generator caught up from.
const BEHIND_LIMIT_MS: f64 = 10.0;
/// `Sent::step` and `Sent::segment` of the capacity probe's requests.
const PROBE: usize = usize::MAX;

/// Two of each, the machine's core count (one of each measured slower
/// and noisier).
const POOLS: Pools = Pools {
    workers: 2,
    cheap_workers: 2,
    queue_bound: 64,
    batch_parallelism: 2,
};

/// Fixed-rate open-loop schedule: request `i` is due `i / rate`
/// seconds after `start`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub start: Instant,
    pub rate: f64,
    pub count: usize,
}

impl Schedule {
    /// A schedule of `seconds` at `rate` from `start`.
    pub fn new(start: Instant, rate: f64, seconds: f64) -> Schedule {
        Schedule {
            start,
            rate,
            count: (rate * seconds).floor() as usize,
        }
    }

    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// Latency charged to a request: from when it was due to when its
/// response arrived, so a stall also counts against every request it
/// delayed (coordinated omission).
pub fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// Waits until `due`, yielding the CPU: the generator never sleeps, so
/// the CPU it shares with the daemon never idles between requests.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Hit,
    Compile,
    Miss,
}

/// One request of the mix and its expected answer.
struct Item {
    kind: Kind,
    path: &'static str,
    body: Arc<[u8]>,
    dfg: Dfg,
    cgra: Cgra,
    env: SimEnv,
    /// Local frontend digest, for `/compile`.
    digest: String,
}

struct Sent {
    item: usize,
    /// Index of the segment in the thread's schedule.
    segment: usize,
    /// 0 for the fixed rate, `k` for step `k`.
    step: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    outcome: Result<Response, String>,
}

struct Inputs {
    hits: Vec<Item>,
    others: Vec<Item>,
}

fn map_item(kind: Kind, req: MapRequest, cgra: Cgra, env: SimEnv) -> Item {
    let body = serde_json::to_string(&req).expect("requests serialize");
    Item {
        kind,
        path: "/map",
        body: body.into_bytes().into(),
        dfg: req.dfg,
        cgra,
        env,
        digest: String::new(),
    }
}

/// Never-seen keys: the two smallest suite kernels on every grid of
/// 3..=8 rows and columns and each topology except the daemon's own
/// 4x4 torus, in seeded order; further rounds bump the step limit,
/// which changes only the configuration fingerprint.
fn miss_items(count: usize, rng: &mut Rng) -> Vec<Item> {
    let mut kernels: Vec<Dfg> = cgra_dfg::suite::generate_all();
    kernels.sort_by_key(Dfg::num_nodes);
    kernels.truncate(2);
    let mut keys = Vec::new();
    for k in 0..kernels.len() {
        for rows in 3..=8 {
            for cols in 3..=8 {
                for topology in [Topology::Torus, Topology::Mesh, Topology::Diagonal] {
                    if (rows, cols, topology) != (4, 4, Topology::Torus) {
                        keys.push((k, rows, cols, topology));
                    }
                }
            }
        }
    }
    rng.shuffle(&mut keys);
    (0..count)
        .map(|i| {
            let (k, rows, cols, topology) = keys[i % keys.len()];
            let cgra = Cgra::with_topology(rows, cols, topology).expect("grid is valid");
            let mut config = MapperConfig::default();
            config.mono_step_limit += (i / keys.len()) as u64;
            let dfg = kernels[k].clone();
            let env = check::env_for(&dfg, rng);
            let req = MapRequest::new(EngineId::Decoupled, dfg)
                .with_cgra(cgra.clone())
                .with_config(config);
            map_item(Kind::Miss, req, cgra, env)
        })
        .collect()
}

/// The warm-up requests (every suite kernel in the suite's numbering)
/// and the hit requests (every kernel in [`NUMBERINGS`] numberings, in
/// seeded order).
fn generate_hits(seed: u64) -> (Vec<Item>, Vec<Item>) {
    let rng = Rng::new(seed);
    let cgra = Cgra::new(4, 4).expect("daemon default grid");
    let mut warm = Vec::new();
    let mut hits = Vec::new();
    for (k, name) in cgra_dfg::suite::names().into_iter().enumerate() {
        let original = cgra_dfg::suite::generate(name);
        let mut r = rng.fork(k as u64);
        for (n, dfg) in relabel::numberings(&original, NUMBERINGS, &mut r)
            .into_iter()
            .enumerate()
        {
            let env = check::env_for(&dfg, &mut r);
            let req = MapRequest::new(EngineId::Decoupled, dfg);
            if n == 0 {
                warm.push(map_item(Kind::Hit, req.clone(), cgra.clone(), env.clone()));
            }
            hits.push(map_item(Kind::Hit, req, cgra.clone(), env));
        }
    }
    rng.fork(u64::MAX).shuffle(&mut hits);
    (warm, hits)
}

/// The other thread's first `count` requests: `.mk` `sources` for
/// `/compile` and, at [`MISS_SHARE`], never-seen keys. A longer list
/// for the same seed starts with the shorter one.
fn generate_others(seed: u64, count: usize, sources: &[(String, String)]) -> Vec<Item> {
    let rng = Rng::new(seed);
    let cgra = Cgra::new(4, 4).expect("daemon default grid");
    let mut order_rng = rng.fork(u64::MAX - 1);
    // As many as there could be draws, so none runs out.
    let mut misses = miss_items(count, &mut rng.fork(7777));
    misses.reverse();
    let mut others = Vec::with_capacity(count);
    for i in 0..count {
        if order_rng.unit() < MISS_SHARE {
            if let Some(m) = misses.pop() {
                others.push(m);
                continue;
            }
        }
        let (_, src) = &sources[i % sources.len()];
        let dfg = monomap_frontend::compile_one(src).expect("corpus kernel compiles");
        others.push(Item {
            kind: Kind::Compile,
            path: "/compile",
            body: src.as_bytes().into(),
            digest: dfg.digest().to_hex(),
            env: SimEnv::default(),
            cgra: cgra.clone(),
            dfg,
        });
    }
    others
}

/// Requests the other thread sends in a run at fixed hit rate `rate`,
/// with room to spare (the traced run adds an untraced fixed-rate
/// baseline).
fn other_count(rate: f64, seconds: f64, traced: bool) -> usize {
    let mean_step = STEPS.iter().sum::<f64>() / STEPS.len() as f64;
    let per_s = rate * OTHER_SHARE * (FIXED_SHARE + (1.0 - FIXED_SHARE) * mean_step);
    let traced_extra = if traced { 1.0 + FIXED_SHARE } else { 1.0 };
    (per_s * seconds * traced_extra).ceil() as usize + 8
}

fn cache_dir(rep: usize) -> PathBuf {
    PathBuf::from(format!(
        "perfbench/out/mix-cache-{}-{rep}",
        std::process::id()
    ))
}

/// Boots a daemon on a fresh directory and warms its cache with every
/// suite kernel in the suite's own numbering.
fn boot_and_warm(
    bin: &str,
    cpus: Option<&str>,
    dir: &Path,
    warm: &[Item],
    tally: &mut Tally,
) -> std::io::Result<Daemon> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let daemon = Daemon::spawn(bin, dir, &POOLS, cpus)?;
    let addr = daemon.addr;
    // Two connections, each warming half of the kernels.
    let answers: Vec<(usize, Result<MapReport, String>)> = std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|h| {
                s.spawn(move || {
                    let mut conn = Conn::new(addr);
                    (h..warm.len())
                        .step_by(2)
                        .map(|i| {
                            let answer = send(&mut conn, &warm[i])
                                .and_then(|r| parse_report(r.status, &r.body));
                            (i, answer)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up thread"))
            .collect()
    });
    for (i, answer) in answers {
        let item = &warm[i];
        match answer {
            Ok(report) => tally.add(check::check(&item.dfg, &item.cgra, &report, &item.env)),
            Err(e) => tally.fail(format!("warm-up: {e}")),
        }
    }
    Ok(daemon)
}

/// One set-up: the inputs, a booted and warmed daemon, and its probed
/// hit capacity.
struct Setup {
    daemon: Daemon,
    inputs: Inputs,
    /// Hits per second answered back to back on one connection.
    capacity: f64,
    /// The probe's requests, to be checked with the rest.
    probe: Vec<Sent>,
}

/// Generates the inputs, boots and warms a daemon on the fresh
/// directory `cache_dir(rep)`, probes its hit capacity, and sizes the
/// other thread's requests for the fixed rate that capacity gives.
fn set_up(
    bin: &str,
    cpus: Option<&str>,
    rep: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
    tally: &mut Tally,
) -> std::io::Result<Setup> {
    let (warm, hits) = generate_hits(seed);
    let daemon = boot_and_warm(bin, cpus, &cache_dir(rep), &warm, tally)?;
    let (capacity, probe) = probe_capacity(daemon.addr, &hits);
    let others = generate_others(
        seed,
        other_count(capacity * FIXED_LOAD, seconds, traced),
        &corpus::sources(),
    );
    Ok(Setup {
        daemon,
        inputs: Inputs { hits, others },
        capacity,
        probe,
    })
}

/// Sends [`PROBE_BURSTS`] bursts of [`PROBE_BURST`] hits back to back
/// on one connection; returns the median burst's hits answered per
/// second and the requests sent.
fn probe_capacity(addr: SocketAddr, hits: &[Item]) -> (f64, Vec<Sent>) {
    let mut conn = Conn::new(addr);
    let mut sent = Vec::with_capacity(PROBE_BURSTS * PROBE_BURST);
    let mut rates = Vec::with_capacity(PROBE_BURSTS);
    for burst in 0..PROBE_BURSTS {
        let t0 = Instant::now();
        let mut answered = 0;
        for i in 0..PROBE_BURST {
            let item = (burst * PROBE_BURST + i) % hits.len();
            let at = Instant::now();
            let outcome = send(&mut conn, &hits[item]);
            answered += usize::from(outcome.is_ok());
            sent.push(Sent {
                item,
                segment: PROBE,
                step: PROBE,
                due: at,
                sent: at,
                done: Instant::now(),
                outcome,
            });
        }
        rates.push(answered as f64 / t0.elapsed().as_secs_f64());
    }
    (stats::median(&rates), sent)
}

fn send(conn: &mut Conn, item: &Item) -> Result<Response, String> {
    conn.request("POST", item.path, &item.body)
        .map_err(|e| format!("{}: {e}", item.path))
}

fn parse_report(status: u16, body: &[u8]) -> Result<MapReport, String> {
    if status != 200 {
        return Err(format!("HTTP {status}: {}", String::from_utf8_lossy(body)));
    }
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 report".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("report does not parse: {e}"))
}

/// Drives one thread's segments over one connection, recording a
/// span per request (due to answer) around a `wire.response` span
/// (send to answer) when `tracer` is enabled.
fn drive(
    addr: SocketAddr,
    items: &[Item],
    steps: &[(usize, Schedule)],
    offset: usize,
    tracer: &mut Tracer,
) -> Vec<Sent> {
    let mut conn = Conn::new(addr);
    let mut out = Vec::new();
    let mut next = offset;
    for (segment, &(step, planned)) in steps.iter().enumerate() {
        // A backlog left by an overloaded segment is not charged to the
        // next one: each segment starts once the previous one is done.
        let sched = Schedule {
            start: planned.start.max(Instant::now()),
            ..planned
        };
        for i in 0..sched.count {
            let due = sched.due(i);
            wait_until(due);
            let sent = Instant::now();
            let item = next % items.len();
            let request = next as u64;
            next += 1;
            let wire = tracer.begin("wire.response", None, request);
            let outcome = send(&mut conn, &items[item]);
            tracer.end(wire);
            let done = Instant::now();
            if tracer.enabled() {
                let name = match items[item].kind {
                    Kind::Hit => "mix.hit",
                    Kind::Compile => "mix.compile",
                    Kind::Miss => "mix.miss",
                };
                tracer.adopt(
                    wire,
                    name,
                    tracer.ns_since_epoch(due),
                    tracer.ns_since_epoch(done),
                );
            }
            out.push(Sent {
                item,
                segment,
                step,
                due,
                sent,
                done,
                outcome,
            });
        }
    }
    out
}

struct Phase {
    hits: Vec<Sent>,
    others: Vec<Sent>,
}

/// Runs the fixed hit rate `rate` and, when `ladder`, the step rates.
fn run_phase(
    addr: SocketAddr,
    inputs: &Inputs,
    rate: f64,
    seconds: f64,
    ladder: bool,
    other_offset: usize,
    tracers: &mut [Tracer; 2],
) -> Phase {
    // Segments as (step, rate, seconds); step 0 is the fixed rate. With
    // the ladder, the fixed-rate time is cut into one segment before
    // each step, so it samples the machine across the whole run.
    let mut segments = Vec::new();
    if ladder {
        let fixed = seconds * FIXED_SHARE / STEPS.len() as f64;
        let each = seconds * (1.0 - FIXED_SHARE) / STEPS.len() as f64;
        for (k, m) in STEPS.iter().enumerate() {
            segments.push((0, rate, fixed));
            segments.push((k + 1, rate * m, each));
        }
    } else {
        segments.push((0, rate, seconds));
    }
    let mut at = Instant::now() + Duration::from_millis(20);
    let mut hit_steps = Vec::new();
    let mut other_steps = Vec::new();
    for (step, segment_rate, secs) in segments {
        hit_steps.push((step, Schedule::new(at, segment_rate, secs)));
        other_steps.push((step, Schedule::new(at, segment_rate * OTHER_SHARE, secs)));
        at += Duration::from_secs_f64(secs);
    }
    let [hit_tracer, other_tracer] = tracers;
    std::thread::scope(|s| {
        let h = s.spawn(|| drive(addr, &inputs.hits, &hit_steps, 0, hit_tracer));
        let o = s.spawn(|| {
            drive(
                addr,
                &inputs.others,
                &other_steps,
                other_offset,
                other_tracer,
            )
        });
        Phase {
            hits: h.join().expect("hit thread"),
            others: o.join().expect("other thread"),
        }
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `Err((wrong_answer, why))` for one distinct response.
type Verdict = Result<(), (bool, String)>;

/// What the checks of one run found.
#[derive(Default)]
struct Checked {
    tally: Tally,
    wrong: usize,
    mismatched: usize,
    /// Seconds per distinct response checked.
    times: Vec<f64>,
    /// A mapped report per distinct hit item, by index into the hits.
    hit_reports: BTreeMap<usize, MapReport>,
    /// A mapped report per distinct miss item, by index into the others.
    miss_reports: BTreeMap<usize, MapReport>,
}

impl Checked {
    /// Checks every response; identical bodies for one item are
    /// verified once and their verdict applies to every copy. Every
    /// request of a fixed-rate segment that fell behind its schedule
    /// fails: the open loop did not hold, so its timings are invalid.
    fn all(&mut self, sent: &[Sent], items: &[Item]) {
        let behind = fell_behind(sent);
        let mut seen: BTreeMap<(usize, Arc<[u8]>), Verdict> = BTreeMap::new();
        for s in sent {
            self.tally.checked += 1;
            if let Some(late) = behind.get(&s.segment).filter(|_| s.step == 0) {
                self.tally.fail(format!(
                    "fixed-rate segment {} fell behind its schedule: \
                     median lateness {late:.1} ms over its last tenth",
                    s.segment
                ));
                continue;
            }
            let item = &items[s.item];
            let r = match &s.outcome {
                Ok(r) => r,
                Err(e) => {
                    self.tally.fail(e.clone());
                    continue;
                }
            };
            let expected = match item.kind {
                Kind::Hit => Some("hit"),
                Kind::Miss => Some("miss"),
                Kind::Compile => None,
            };
            if r.status == 200 && expected.is_some() && r.cache.as_deref() != expected {
                self.tally.fail(format!(
                    "{}: expected a cache {expected:?}, got {:?}",
                    item.dfg.name(),
                    r.cache
                ));
                continue;
            }
            let key = (s.item, r.body.clone());
            let verdict = match seen.get(&key) {
                Some(v) => v.clone(),
                None => {
                    let v = self.verify(s.item, item, r.status, &r.body);
                    seen.insert(key, v.clone());
                    v
                }
            };
            if let Err((wrong, why)) = verdict {
                self.wrong += usize::from(wrong);
                self.tally.fail(why);
            }
        }
    }

    /// `Err((wrong_answer, why))`; a refusal is not a wrong answer.
    fn verify(&mut self, index: usize, item: &Item, status: u16, body: &[u8]) -> Verdict {
        if status != 200 {
            return Err((false, format!("{} answered HTTP {status}", item.path)));
        }
        let t0 = Instant::now();
        let verdict = match item.kind {
            Kind::Compile => std::str::from_utf8(body)
                .map_err(|_| "non-UTF-8 compile response".to_string())
                .and_then(|text| {
                    serde_json::from_str::<CompileResponse>(text)
                        .map_err(|e| format!("compile response: {e}"))
                })
                .and_then(|resp| {
                    if resp.digest == item.digest {
                        Ok(())
                    } else {
                        Err(format!(
                            "{}: digest {} != local {}",
                            resp.name, resp.digest, item.digest
                        ))
                    }
                }),
            Kind::Hit | Kind::Miss => parse_report(status, body).and_then(|report| {
                let v = check::check(&item.dfg, &item.cgra, &report, &item.env);
                match item.kind {
                    Kind::Hit => self.hit_reports.insert(index, report),
                    _ => self.miss_reports.insert(index, report),
                };
                match v {
                    check::Verdict::Ok => Ok(()),
                    check::Verdict::Mismatch => {
                        self.mismatched += 1;
                        Ok(())
                    }
                    check::Verdict::Failed(why) => Err(why),
                }
            }),
        };
        self.times.push(t0.elapsed().as_secs_f64());
        verdict.map_err(|why| (true, why))
    }
}

fn stats_of(addr: SocketAddr) -> Option<StatsSnapshot> {
    let r = Conn::new(addr).request("GET", "/stats", b"").ok()?;
    serde_json::from_str(std::str::from_utf8(&r.body).ok()?).ok()
}

/// Latencies (ms from due) of the successful `kind` requests in `step`
/// (every step when `None`).
fn latencies(sent: &[Sent], items: &[Item], kind: Kind, step: Option<usize>) -> Vec<f64> {
    sent.iter()
        .filter(|s| {
            items[s.item].kind == kind && step.is_none_or(|k| s.step == k) && s.outcome.is_ok()
        })
        .map(|s| ms(latency_from_due(s.due, s.done)))
        .collect()
}

/// The segments of `sent` that fell behind their schedule, with the
/// median send lateness (ms) over the last tenth of each.
fn fell_behind(sent: &[Sent]) -> BTreeMap<usize, f64> {
    let mut lateness: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for s in sent.iter().filter(|s| s.segment != PROBE) {
        lateness
            .entry(s.segment)
            .or_default()
            .push(ms(s.sent.saturating_duration_since(s.due)));
    }
    lateness
        .into_iter()
        .filter_map(|(segment, late)| {
            let tenth = &late[late.len() - late.len().div_ceil(10)..];
            let median = stats::median(tenth);
            (median > BEHIND_LIMIT_MS).then_some((segment, median))
        })
        .collect()
}

/// The highest step rate whose hit tail meets [`HIT_TAIL_LIMIT_MS`]
/// without falling behind its schedule (0 when none does), and a
/// summary of every segment kind, the fixed rate first.
fn max_rps(phase: &Phase, items: &[Item], rate: f64) -> (f64, String) {
    let behind = fell_behind(&phase.hits);
    let mut best = 0.0f64;
    let mut cells = Vec::new();
    for step in 0..=STEPS.len() {
        let tail = summarize(&latencies(&phase.hits, items, Kind::Hit, Some(step))).tail;
        let step_rate = rate * if step == 0 { 1.0 } else { STEPS[step - 1] };
        let on_time = !phase
            .hits
            .iter()
            .any(|s| s.step == step && behind.contains_key(&s.segment));
        let ok = tail <= HIT_TAIL_LIMIT_MS && on_time;
        if ok && step > 0 {
            best = best.max(step_rate);
        }
        cells.push(format!(
            "{step_rate:.0}/s:{tail:.2}ms{}",
            match (on_time, ok) {
                (false, _) => "(behind)",
                (true, false) => "(over)",
                _ => "",
            }
        ));
    }
    (best, cells.join(","))
}

/// `cpu` is the CPU the benchmark runs on, if pinned: the daemon runs
/// there too (spread over two CPUs, hit latency moved by ~30% between
/// runs, with cross-CPU wake-ups).
pub fn run(bin: &str, cpu: Option<&str>, seed: u64, seconds: f64, traced: bool) -> RunResult {
    let mut checked = Checked::default();
    let mut setup_times = Vec::new();
    let mut capacities = Vec::new();
    let mut probes = Vec::new();
    let mut timed_set_up = |rep: usize, tally: &mut Tally| {
        let t0 = Instant::now();
        match set_up(bin, cpu, rep, seed, seconds, traced, tally) {
            Ok(setup) => {
                setup_times.push(t0.elapsed().as_secs_f64());
                capacities.push(setup.capacity);
                setup
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {bin}: {e}");
                let _ = std::fs::remove_dir_all(cache_dir(rep));
                std::process::exit(1);
            }
        }
    };
    // Each daemon is stopped before the next boots, so none is left
    // running if a boot fails.
    let mut setup = timed_set_up(0, &mut checked.tally);
    for rep in 1..SETUPS_BEFORE {
        setup.daemon.stop();
        let _ = std::fs::remove_dir_all(cache_dir(rep - 1));
        probes.push(setup.probe);
        setup = timed_set_up(rep, &mut checked.tally);
    }
    let Setup {
        daemon,
        inputs,
        capacity,
        probe,
    } = setup;
    probes.push(probe);
    let rate = capacity * FIXED_LOAD;
    let addr = daemon.addr;

    // The traced run first prices tracing at the fixed rate: untraced,
    // traced, then untraced again, so that drift over time cancels.
    let epoch = Instant::now();
    let mut pricing: Vec<(bool, Phase)> = Vec::new();
    let mut offset = 0;
    if traced {
        let quarter = seconds * FIXED_SHARE / 4.0;
        for (on, secs) in [(false, quarter), (true, 2.0 * quarter), (false, quarter)] {
            let mut t = [Tracer::new(on, epoch), Tracer::new(on, epoch)];
            let p = run_phase(addr, &inputs, rate, secs, false, offset, &mut t);
            offset += p.others.len();
            pricing.push((on, p));
        }
    }
    let mut tracers = [Tracer::new(traced, epoch), Tracer::new(traced, epoch)];
    let phase = run_phase(addr, &inputs, rate, seconds, true, offset, &mut tracers);
    let [mut tracer, other_tracer] = tracers;
    tracer.absorb(other_tracer);
    if traced {
        for i in 0..50 {
            if let Err(e) = tracer.span("wire.connect", None, i, || http::connect(addr)) {
                checked.tally.fail(format!("connect: {e}"));
            }
        }
    }
    let connects = tracer.durations("wire.connect");
    let server = stats_of(addr).unwrap_or_default();
    let daemon_rss = peak_rss_mib(&daemon.pid().to_string());
    let printed = daemon.stop();
    for rep in SETUPS_BEFORE..SETUPS_BEFORE + SETUPS_AFTER {
        let after = timed_set_up(rep, &mut checked.tally);
        after.daemon.stop();
        let _ = std::fs::remove_dir_all(cache_dir(rep));
        probes.push(after.probe);
    }
    let setup_s = stats::median(&setup_times);

    for p in std::iter::once(&phase).chain(pricing.iter().map(|(_, p)| p)) {
        checked.all(&p.hits, &inputs.hits);
        checked.all(&p.others, &inputs.others);
    }
    for probe in &probes {
        checked.all(probe, &inputs.hits);
    }
    let mut out = RunResult {
        attempted: checked.tally.checked,
        failed: checked.tally.failed,
        wrong: checked.wrong,
        first_failure: checked.tally.first_failure.clone(),
        ..RunResult::default()
    };

    let hit = summarize(&latencies(&phase.hits, &inputs.hits, Kind::Hit, Some(0)));
    let compile = summarize(&latencies(
        &phase.others,
        &inputs.others,
        Kind::Compile,
        Some(0),
    ));
    let miss = summarize(&latencies(
        &phase.others,
        &inputs.others,
        Kind::Miss,
        Some(0),
    ));
    let (max_rps, steps) = max_rps(&phase, &inputs.hits, rate);
    let fixed: Vec<&Sent> = phase.hits.iter().filter(|s| s.step == 0).collect();
    let late = summarize(
        &fixed
            .iter()
            .map(|s| ms(s.sent.saturating_duration_since(s.due)))
            .collect::<Vec<_>>(),
    );
    let response = summarize(
        &fixed
            .iter()
            .map(|s| ms(s.done - s.sent))
            .collect::<Vec<_>>(),
    );
    // Mapping quality: the II of every distinct hit request answered
    // (the misses' grids are drawn per seed).
    let ii_sum: usize = checked
        .hit_reports
        .values()
        .filter_map(|r| r.outcome.ii())
        .sum();

    out.end_to_end = vec![
        metric("latency_p50_ms", hit.p50, "ms"),
        metric("ii_sum", ii_sum as f64, "II"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", daemon_rss, "MiB"),
    ];
    out.cell("hit_p50_us", format!("{:.1}", hit.p50 * 1e3));
    out.cell(
        "hit_tail_us",
        format!(
            "{:.1} ({}, n={})",
            hit.tail * 1e3,
            label(hit.tail_bp),
            hit.n
        ),
    );
    out.cell(
        "compile_p50_us",
        format!("{:.1} (n={})", compile.p50 * 1e3, compile.n),
    );
    out.cell("miss_p50_ms", format!("{:.3} (n={})", miss.p50, miss.n));
    out.cell("max_rps", format!("{max_rps:.0}"));
    out.cell("ii_sum", ii_sum.to_string());
    out.cell("failed_ratio", format!("{:.4}", out.failed_ratio()));
    out.cell(
        "setup_s",
        format!("{setup_s:.4} (median of {})", setup_times.len()),
    );
    out.cell("peak_rss_mb", format!("{daemon_rss:.1}"));
    out.cell(
        "capacity",
        format!(
            "{capacity:.0}/s probed (set-ups: {}), fixed rate {rate:.0}/s",
            capacities
                .iter()
                .map(|c| format!("{c:.0}"))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    out.cell("steps", steps);
    out.cell(
        "gen_late_ms",
        format!("p50={:.3} max={:.3}", late.p50, late.max),
    );
    out.cell("pools", POOLS.describe());
    out.cell("daemon_stdout", format!("{} lines drained", printed.len()));

    if traced {
        let pricing_p50 = |on: bool| {
            let hits: Vec<f64> = pricing
                .iter()
                .filter(|(o, _)| *o == on)
                .flat_map(|(_, p)| latencies(&p.hits, &inputs.hits, Kind::Hit, None))
                .collect();
            summarize(&hits).p50
        };
        let mut m = layer_metrics(&inputs, &checked, &mut tracer);
        let hit_ratio =
            server.cache.hits as f64 / (server.cache.hits + server.cache.misses).max(1) as f64;
        m.extend([
            metric("service.hit_ratio", hit_ratio, "ratio"),
            metric(
                "persistence.log_bytes",
                server.persistence.log_bytes as f64,
                "bytes",
            ),
            metric(
                "server.queue_high_watermark",
                server.server.queue_high_watermark as f64,
                "count",
            ),
            metric(
                "server.shed_total",
                server.server.shed_total as f64,
                "count",
            ),
            metric("server.solve_p50_s", server.server.solve_p50_seconds, "s"),
            metric("wire.connect_us", stats::median(&connects) * 1e6, "us"),
            metric("wire.response_us", response.p50 * 1e3, "us"),
            metric("gen.late_ms_p50", late.p50, "ms"),
            metric("gen.late_ms_max", late.max, "ms"),
            metric("hit_p50_us", hit.p50 * 1e3, "us"),
            metric("hit_tail_us", hit.tail * 1e3, "us"),
            metric("compile_p50_us", compile.p50 * 1e3, "us"),
            metric("miss_p50_ms", miss.p50, "ms"),
            metric("max_rps", max_rps, "1/s"),
            metric(
                "trace.overhead_pct",
                (pricing_p50(true) / pricing_p50(false) - 1.0) * 100.0,
                "%",
            ),
            metric("trace.spans", tracer.len() as f64, "count"),
        ]);
        out.per_layer = m;
        out.spans = tracer.to_jsonl();
    }
    let _ = std::fs::remove_dir_all(cache_dir(MEASURED));
    out
}

/// Per-layer metrics measured in-process on the workload's own inputs,
/// after the daemon has stopped.
fn layer_metrics(inputs: &Inputs, checked: &Checked, t: &mut Tracer) -> Vec<Metric> {
    let home = Cgra::new(4, 4).expect("daemon default grid");
    for (i, item) in inputs.hits.iter().enumerate() {
        let id = i as u64;
        t.span("dfg.canon", None, id, || item.dfg.canonical_form());
        t.span("sched.min_ii", None, id, || {
            cgra_sched::min_ii(&item.dfg, &home)
        });
    }
    for (i, item) in inputs
        .others
        .iter()
        .enumerate()
        .filter(|(_, x)| x.kind == Kind::Compile)
    {
        let src = std::str::from_utf8(&item.body).expect("sources are UTF-8");
        t.span("frontend.compile", None, i as u64, || {
            monomap_frontend::compile_one(src)
        })
        .expect("corpus kernel compiles");
    }
    // The daemon's cache, replayed from its disk log into an in-process
    // service, probed with the same hit requests.
    let log = DiskLog::open(cache_dir(MEASURED), 65536).expect("the daemon's cache log reopens");
    let mut tiers = TieredCache::new(MapCache::new(4096));
    tiers.push_store(Box::new(log));
    let cached = CachedMappingService::with_tiers(MappingService::new(&home), tiers);
    cached.warm_start();
    for (i, item) in inputs.hits.iter().enumerate() {
        let req = MapRequest::new(EngineId::Decoupled, item.dfg.clone());
        let probe = t.span("service.probe", None, i as u64, || cached.probe(&req));
        assert!(
            matches!(probe, CacheProbe::Hit(_)),
            "replayed cache answers every warmed kernel"
        );
    }
    // Misses: their own solve statistics, and an observed in-process
    // replay for the space-phase outcomes.
    let misses: Vec<(&Item, &MapReport)> = checked
        .miss_reports
        .iter()
        .map(|(i, r)| (&inputs.others[*i], r))
        .collect();
    let mut attempts = 0usize;
    let mut found = 0usize;
    let mut limit_reached = 0usize;
    let mut targets = BTreeMap::new();
    for (k, (item, report)) in misses.iter().enumerate() {
        let events = Arc::new(EventCollector::new());
        let req =
            MapRequest::new(EngineId::Decoupled, item.dfg.clone()).with_observer(events.clone());
        t.span("core.map", None, k as u64, || {
            MappingService::new(&item.cgra).map(&req)
        });
        for e in events.events() {
            if let MapEvent::SpaceAttempt { outcome, .. } = e {
                attempts += 1;
                found += usize::from(outcome == SpaceAttemptOutcome::Found);
                limit_reached += usize::from(outcome == SpaceAttemptOutcome::LimitReached);
            }
        }
        for ii in report.stats.mii..=report.stats.achieved_ii {
            targets
                .entry((item.cgra.describe(), ii))
                .or_insert(&item.cgra);
        }
    }
    for ((_, ii), cgra) in &targets {
        t.span("core.build_target", None, *ii as u64, || {
            build_target(cgra, *ii, MapperConfig::default().max_route_hops)
        });
    }
    let reports: Vec<&MapReport> = misses.iter().map(|(_, r)| *r).collect();
    let mut m = core_metrics(&reports, attempts, found, limit_reached);
    let us = |t: &Tracer, name| stats::median(&t.durations(name)) * 1e6;
    m.extend([
        metric("frontend.compile_us", us(t, "frontend.compile"), "us"),
        metric("dfg.canon_us", us(t, "dfg.canon"), "us"),
        metric("sched.mii_us", us(t, "sched.min_ii"), "us"),
        metric(
            "core.target_build_ms",
            us(t, "core.build_target") / 1e3,
            "ms",
        ),
        metric("sim.validate_ms", stats::median(&checked.times) * 1e3, "ms"),
        metric("sim.reference_mismatch", checked.mismatched as f64, "count"),
        metric("service.probe_us", us(t, "service.probe"), "us"),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_requests_by_the_inverse_rate() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 400.0, 2.5);
        assert_eq!(s.count, 1000);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(400) - t0, Duration::from_secs(1));
        assert_eq!(s.due(1) - t0, Duration::from_micros(2500));
        assert_eq!(s.due(s.count) - t0, Duration::from_millis(2500));
    }

    fn sent(segment: usize, due: Instant, late_us: u64) -> Sent {
        let sent = due + Duration::from_micros(late_us);
        Sent {
            item: 0,
            segment,
            step: 0,
            due,
            sent,
            done: sent,
            outcome: Err(String::new()),
        }
    }

    #[test]
    fn a_growing_backlog_falls_behind_and_a_stall_caught_up_from_does_not() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000.0, 1.0);
        let mut log = Vec::new();
        for i in 0..s.count as u64 {
            // Segment 0: a 50 ms stall at request 100, caught up by 150.
            let stall = if (100..150).contains(&i) {
                (150 - i) * 1000
            } else {
                0
            };
            log.push(sent(0, s.due(i as usize), stall));
            // Segment 1: each request is sent 50 us later than the last.
            log.push(sent(1, s.due(i as usize), i * 50));
            // Segment 2: a 30 ms stall in the last tenth.
            let stall = if (960..990).contains(&i) {
                (990 - i) * 1000
            } else {
                0
            };
            log.push(sent(2, s.due(i as usize), stall));
        }
        let behind = fell_behind(&log);
        assert_eq!(behind.keys().copied().collect::<Vec<_>>(), vec![1]);
        // The last tenth is requests 900..1000, sent 45..49.95 ms late.
        assert!((behind[&1] - 47.5).abs() < 0.1, "{}", behind[&1]);
    }

    #[test]
    fn a_longer_list_of_other_requests_starts_with_the_shorter() {
        let sources: Vec<(String, String)> = ["bitcount", "crc32"]
            .into_iter()
            .map(|name| {
                let src = monomap_frontend::emit(&cgra_dfg::suite::generate(name));
                (name.to_string(), src.expect("suite kernels emit"))
            })
            .collect();
        let short = generate_others(3, 40, &sources);
        let long = generate_others(3, 90, &sources);
        assert_eq!(short.len(), 40);
        assert!(short.iter().any(|x| x.kind == Kind::Miss));
        for (a, b) in short.iter().zip(&long) {
            assert_eq!((a.kind, &a.body), (b.kind, &b.body));
        }
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000.0, 1.0);
        // Request 3 was due at 3 ms but only sent at 10 ms (the previous
        // one stalled) and answered at 10.2 ms: it waited 7.2 ms.
        let done = t0 + Duration::from_micros(10_200);
        assert_eq!(
            latency_from_due(s.due(3), done),
            Duration::from_micros(7_200)
        );
        // Answered before its due time (cannot happen) reads zero.
        assert_eq!(latency_from_due(s.due(20), done), Duration::ZERO);
    }
}
