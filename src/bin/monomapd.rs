//! `monomapd` — the monomap network daemon.
//!
//! A dependency-free HTTP/1.1 front end over the batch
//! [`MappingService`](monomap_core::api::MappingService) with the
//! content-addressed mapping cache of `monomap-service` in front of
//! it. All three engines (decoupled, coupled-SAT baseline, annealing
//! baseline) are registered.
//!
//! ```text
//! monomapd [--addr 127.0.0.1:8931] [--rows 4] [--cols 4]
//!          [--topology torus|mesh|diagonal]
//!          [--profile homogeneous|mem-left|mul-checkerboard|mem-left-mul-checkerboard]
//!          [--workers 4] [--cheap-workers 2] [--queue-bound 64]
//!          [--batch-parallelism 4] [--cache-capacity 4096]
//!          [--cache-dir DIR] [--disk-capacity 65536]
//!          [--peer host:port]... [--peer-shards N] [--peer-timeout-ms 2000]
//! ```
//!
//! With `--cache-dir` the cache persists across restarts (append-only
//! checksummed log, replayed into memory at boot). With `--peer` the
//! daemon fills local misses from sibling daemons, digest-sharded so a
//! fleet solves each cold kernel once.
//!
//! Bind port 0 for an ephemeral port; the daemon prints
//! `monomapd listening on http://<addr>` (with the real port) to
//! stdout once ready, which the smoke script and the e2e harness
//! scrape. See `docs/SERVICE.md` for the wire protocol.

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use cgra_arch::{CapabilityProfile, Cgra, Topology};
use cgra_baseline::standard_service;
use monomap_service::{
    CachedMappingService, Client, DiskLog, MapCache, PeerStore, Server, ServerConfig, TieredCache,
};

struct Options {
    addr: String,
    rows: usize,
    cols: usize,
    topology: Topology,
    profile: Option<CapabilityProfile>,
    workers: usize,
    cheap_workers: usize,
    queue_bound: usize,
    batch_parallelism: usize,
    cache_capacity: usize,
    cache_dir: Option<String>,
    disk_capacity: usize,
    peers: Vec<String>,
    peer_shards: Option<usize>,
    peer_timeout_ms: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            addr: "127.0.0.1:8931".to_string(),
            rows: 4,
            cols: 4,
            topology: Topology::Torus,
            profile: None,
            workers: 4,
            cheap_workers: 2,
            queue_bound: 64,
            batch_parallelism: 4,
            cache_capacity: 4096,
            cache_dir: None,
            disk_capacity: 65536,
            peers: Vec::new(),
            peer_shards: None,
            peer_timeout_ms: 2000,
        }
    }
}

const USAGE: &str = "monomapd — CGRA mapping daemon with a content-addressed cache

USAGE:
    monomapd [OPTIONS]

OPTIONS:
    --addr <host:port>          bind address (default 127.0.0.1:8931; port 0 = ephemeral)
    --rows <n>                  CGRA rows (default 4)
    --cols <n>                  CGRA columns (default 4)
    --topology <name>           torus | mesh | diagonal (default torus)
    --profile <name>            homogeneous | mem-left | mul-checkerboard |
                                mem-left-mul-checkerboard (default homogeneous)
    --workers <n>               solve-pool threads (default 4)
    --cheap-workers <n>         cheap-path threads: parsing + cache lookups (default 2)
    --queue-bound <n>           max queued solve jobs; overflow is shed with 429 (default 64)
    --batch-parallelism <n>     worker threads per /map_batch request (default 4)
    --cache-capacity <n>        in-memory mapping cache entries (default 4096)
    --cache-dir <dir>           persist the cache to an append-only log in <dir>,
                                replayed into memory at boot (default: memory only)
    --disk-capacity <n>         entries retained in the on-disk log across
                                compactions (default 65536)
    --peer <host:port>          sibling daemon to fill local misses from; repeat
                                for a fleet (order must agree fleet-wide)
    --peer-shards <n>           digest shard count for peer ownership; shards
                                past the peer list are self-owned
                                (default: number of peers)
    --peer-timeout-ms <n>       peer connect/read timeout (default 2000)
    --help                      print this help
";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            std::process::exit(0);
        }
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--rows" => opts.rows = parse_num(&value("--rows")?, "--rows")?,
            "--cols" => opts.cols = parse_num(&value("--cols")?, "--cols")?,
            "--workers" => opts.workers = parse_num(&value("--workers")?, "--workers")?,
            "--cheap-workers" => {
                opts.cheap_workers = parse_num(&value("--cheap-workers")?, "--cheap-workers")?
            }
            "--queue-bound" => {
                opts.queue_bound = parse_num(&value("--queue-bound")?, "--queue-bound")?
            }
            "--batch-parallelism" => {
                opts.batch_parallelism =
                    parse_num(&value("--batch-parallelism")?, "--batch-parallelism")?
            }
            "--cache-capacity" => {
                opts.cache_capacity = parse_num(&value("--cache-capacity")?, "--cache-capacity")?
            }
            "--cache-dir" => opts.cache_dir = Some(value("--cache-dir")?),
            "--disk-capacity" => {
                opts.disk_capacity = parse_num(&value("--disk-capacity")?, "--disk-capacity")?
            }
            "--peer" => opts.peers.push(value("--peer")?),
            "--peer-shards" => {
                opts.peer_shards = Some(parse_num(&value("--peer-shards")?, "--peer-shards")?)
            }
            "--peer-timeout-ms" => {
                opts.peer_timeout_ms =
                    parse_num(&value("--peer-timeout-ms")?, "--peer-timeout-ms")? as u64
            }
            "--topology" => {
                opts.topology = match value("--topology")?.as_str() {
                    "torus" => Topology::Torus,
                    "mesh" => Topology::Mesh,
                    "diagonal" => Topology::Diagonal,
                    other => return Err(format!("unknown topology `{other}`")),
                }
            }
            "--profile" => {
                opts.profile = match value("--profile")?.as_str() {
                    "homogeneous" => None,
                    "mem-left" => Some(CapabilityProfile::MemLeftColumn),
                    "mul-checkerboard" => Some(CapabilityProfile::MulCheckerboard),
                    "mem-left-mul-checkerboard" => Some(CapabilityProfile::MemLeftMulCheckerboard),
                    other => return Err(format!("unknown capability profile `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if opts.workers == 0
        || opts.cheap_workers == 0
        || opts.queue_bound == 0
        || opts.batch_parallelism == 0
        || opts.cache_capacity == 0
    {
        return Err(
            "--workers, --cheap-workers, --queue-bound, --batch-parallelism and \
             --cache-capacity must be positive"
                .into(),
        );
    }
    if opts.disk_capacity == 0 || opts.peer_timeout_ms == 0 {
        return Err("--disk-capacity and --peer-timeout-ms must be positive".into());
    }
    if let Some(shards) = opts.peer_shards {
        if shards < opts.peers.len() {
            return Err("--peer-shards must be at least the number of --peer flags".into());
        }
    }
    if opts.peer_shards.is_some() && opts.peers.is_empty() {
        return Err("--peer-shards needs at least one --peer".into());
    }
    Ok(opts)
}

fn parse_num(s: &str, flag: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("{flag}: `{s}` is not a number"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("monomapd: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let cgra = match Cgra::with_topology(opts.rows, opts.cols, opts.topology) {
        Ok(c) => match opts.profile {
            Some(p) => c.with_capability_profile(p),
            None => c,
        },
        Err(e) => {
            eprintln!("monomapd: invalid CGRA: {e}");
            return ExitCode::FAILURE;
        }
    };
    let service = standard_service(&cgra).with_parallelism(opts.batch_parallelism);
    let mut tiers = TieredCache::new(MapCache::new(opts.cache_capacity));
    if let Some(dir) = &opts.cache_dir {
        let log = match DiskLog::open(dir, opts.disk_capacity) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("monomapd: cannot open cache log in {dir}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for warning in log.warnings() {
            eprintln!("monomapd: cache log: {warning}");
        }
        tiers.push_store(Box::new(log));
    }
    if !opts.peers.is_empty() {
        let timeout = Duration::from_millis(opts.peer_timeout_ms);
        let mut clients = Vec::with_capacity(opts.peers.len());
        for peer in &opts.peers {
            match Client::new(peer.as_str()) {
                Ok(c) => clients.push(
                    c.with_timeout(Some(timeout))
                        .with_connect_timeout(Some(timeout)),
                ),
                Err(e) => {
                    eprintln!("monomapd: bad --peer {peer}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let shards = opts.peer_shards.unwrap_or(clients.len());
        tiers.push_store(Box::new(PeerStore::new(clients, shards)));
    }
    let cached = CachedMappingService::with_tiers(service, tiers);
    let replayed = cached.warm_start();
    let config = ServerConfig {
        workers: opts.workers,
        cheap_workers: opts.cheap_workers,
        queue_bound: opts.queue_bound,
        ..ServerConfig::default()
    };
    let server = match Server::bind(&opts.addr, cached, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("monomapd: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("monomapd: no local address: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The banner is best effort: a stdout reader that has gone away
    // must not take the daemon down with it, so write errors are
    // ignored rather than panicking as `println!` would.
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "monomapd listening on http://{addr}");
    let _ = writeln!(
        out,
        "  cgra: {} | solve workers: {} | cheap workers: {} | queue bound: {} | cache capacity: {}",
        cgra.describe(),
        opts.workers,
        opts.cheap_workers,
        opts.queue_bound,
        opts.cache_capacity,
    );
    if let Some(dir) = &opts.cache_dir {
        let _ = writeln!(out, "  cache dir: {dir} | replayed: {replayed} entries");
    }
    if !opts.peers.is_empty() {
        let _ = writeln!(
            out,
            "  peers: {} | shards: {}",
            opts.peers.join(", "),
            opts.peer_shards.unwrap_or(opts.peers.len()),
        );
    }
    // Ready-line consumers (the smoke script) need the port before the
    // first connection arrives.
    let _ = out.flush();
    drop(out);
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("monomapd: server error: {e}");
            ExitCode::FAILURE
        }
    }
}
