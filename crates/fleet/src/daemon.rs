//! The ConfBench daemon: one `main` behind both binary names.
//!
//! `confbench-gateway` and `confbench-fleetd` are the same program (the
//! second name stays because the benchmark builds and spawns it). It always
//! builds a [`Fleet`] — `--shards 1`, the default, is the paper's single
//! gateway — serves [`Fleet::build_router`], and drives campaigns with one
//! pool of `--workers` driver threads, by default one per available CPU.
//!
//! Flags are the only way to configure it — nothing is read from the
//! environment; `--help` prints [`FLAGS`]. `--chaos-seed` (nonzero) arms
//! deterministic TEE fault injection at `--chaos-rate` per mechanism
//! crossing; the per-VM supervisors absorb the faults (retry, rebuild,
//! quarantine) and surface them in `/v1/metrics`.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;

use confbench::flags::{self, Flag, Flags};
use confbench::BalancePolicy;
use confbench_httpd::{Server, ServerConfig};

use crate::fleet::{Fleet, FleetConfig};

/// The daemon's flag table: what it parses and what `--help` prints.
pub const FLAGS: [Flag; 15] = [
    ("--listen", "ADDR", "address to serve on (default 127.0.0.1:7700)"),
    ("--shards", "N", "gateway shards behind the placement ring (default 1)"),
    (
        "--platforms",
        "LIST",
        "local hosts each shard boots, comma-separated (default tdx,sev-snp,cca)",
    ),
    ("--seed", "N", "seed of every VM and jitter stream (default 0)"),
    ("--policy", "P", "round-robin (default) or least-loaded"),
    ("--remote-host", "PLATFORM=ADDR", "register a remote host agent (repeatable)"),
    ("--queue-capacity", "N", "campaign jobs a shard admits before 429 (default 4096)"),
    ("--workers", "N", "campaign driver threads in all (default: available CPUs)"),
    ("--cache-capacity", "N", "result-cache LRU bound per shard (default 4096)"),
    ("--http-workers", "N", "REST handler threads (default 8)"),
    ("--http-backlog", "N", "connections admitted beyond the workers before 503 (default 1024)"),
    ("--attest-ttl-ms", "N", "attestation session lifetime (default 300000)"),
    ("--attest-cache-capacity", "N", "attestation sessions retained (default 1024)"),
    ("--chaos-seed", "N", "nonzero arms TEE fault injection (default 0)"),
    ("--chaos-rate", "F", "fault probability per TEE crossing, in [0, 1] (default 0.1)"),
];

/// Runs the daemon under the name `program` (used in `--help` and error
/// messages); returns when `--help` was asked for or start-up failed.
pub fn main(program: &str) -> ExitCode {
    match run(program) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{program}: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Everything the flags decide.
pub struct Config {
    /// `--listen`: the address to serve on.
    pub listen: String,
    /// `--workers`: campaign driver threads in all.
    pub workers: usize,
    /// `--http-workers` and `--http-backlog`.
    pub http: ServerConfig,
    /// Every other flag: shards, platforms, policy, capacities, chaos.
    pub fleet: FleetConfig,
}

/// Parses the daemon's arguments (without the program name) against
/// [`FLAGS`]; the error is the message `main` prints.
pub fn config(args: Vec<String>) -> Result<Config, String> {
    let flags = Flags::parse(&FLAGS, args)?;
    if let Some(stray) = flags.positionals().first() {
        return Err(format!("unknown argument {stray} (try --help)"));
    }
    let (mut http, mut fleet) = (ServerConfig::default(), FleetConfig::default());
    fleet.shards = flags.positive("--shards", "shard count")?.unwrap_or(1);
    if let Some(n) = flags.positive("--http-workers", "http worker count")? {
        http.workers = n;
    }
    if let Some(n) = flags.positive("--http-backlog", "http backlog")? {
        http.backlog = n;
    }
    if let Some(n) = flags.positive("--attest-ttl-ms", "attest TTL")? {
        fleet.attest.ttl_ms = n;
    }
    if let Some(n) = flags.positive("--attest-cache-capacity", "attest cache capacity")? {
        fleet.attest.capacity = n;
    }
    if let Some(n) = flags.positive("--queue-capacity", "queue capacity")? {
        fleet.queue_capacity = n;
    }
    if let Some(n) = flags.positive("--cache-capacity", "cache capacity")? {
        fleet.cache_capacity = n;
    }
    if let Some(list) = flags.flag_value("--platforms") {
        fleet.platforms = list
            .split(',')
            .map(|p| p.parse().map_err(|e| format!("{e}")))
            .collect::<Result<_, _>>()?;
    }
    fleet.seed = flags.parsed("--seed", "seed")?.unwrap_or(0);
    fleet.policy = match flags.flag_value("--policy") {
        None | Some("round-robin") => BalancePolicy::RoundRobin,
        Some("least-loaded") => BalancePolicy::LeastLoaded,
        Some(other) => return Err(format!("unknown policy {other}")),
    };
    fleet.remote_hosts = flags
        .flag_values("--remote-host")
        .map(|spec| {
            let (platform, addr) = spec
                .split_once('=')
                .ok_or_else(|| format!("--remote-host wants PLATFORM=ADDR, got {spec}"))?;
            Ok((
                platform.parse().map_err(|e| format!("{e}"))?,
                addr.parse().map_err(|e| format!("bad address {addr}: {e}"))?,
            ))
        })
        .collect::<Result<_, String>>()?;
    fleet.chaos = flags::chaos_plan(&flags)?;
    Ok(Config {
        listen: flags.flag_value("--listen").unwrap_or("127.0.0.1:7700").to_owned(),
        workers: flags
            .positive("--workers", "worker count")?
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from)),
        http,
        fleet,
    })
}

/// First stdout line; the benchmark reads the bound address from it.
pub fn listening_line(program: &str, addr: SocketAddr) -> String {
    format!("{program} listening on http://{addr}")
}

/// Builds the fleet `c` describes, spawns its pool of `c.workers` driver
/// threads and serves the fleet on `c.listen`: the daemon, up to the
/// start-up lines.
///
/// # Errors
///
/// The message `main` prints when a driver thread cannot be spawned or the
/// address cannot be bound.
pub fn start(c: Config) -> Result<(Arc<Fleet>, Server), String> {
    let fleet = Arc::new(Fleet::new(c.fleet));
    fleet
        .spawn_drivers(c.workers)
        .map_err(|e| format!("cannot spawn {} campaign driver(s): {e}", c.workers))?;
    let server = fleet
        .serve_on(&c.listen, c.http)
        .map_err(|e| format!("cannot listen on {}: {e}", c.listen))?;
    Ok((fleet, server))
}

fn run(program: &str) -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if flags::wants_help(&args) {
        print!("{}", flags::usage(&format!("{program} [FLAGS]"), &FLAGS));
        return Ok(());
    }
    let c = config(args)?;
    let (shards, workers, http) = (c.fleet.shards, c.workers, c.http);
    let (queue_capacity, cache_capacity) = (c.fleet.queue_capacity, c.fleet.cache_capacity);
    for platform in &c.fleet.platforms {
        eprintln!("booting {shards} local {platform} host(s) (secure + normal VMs)...");
    }
    for (platform, addr) in &c.fleet.remote_hosts {
        eprintln!("registering remote {platform} host at {addr}");
    }
    let (_fleet, server) = start(c)?;
    println!("{}", listening_line(program, server.addr()));
    println!(
        "fleet: {shards} shard(s), {workers} campaign driver(s), queue capacity {queue_capacity}, \
         result cache capped at {cache_capacity} entries"
    );
    println!(
        "http: {} handler worker(s), admission window {} connections",
        http.workers,
        http.workers + http.backlog
    );

    // Serve until interrupted.
    loop {
        std::thread::park();
    }
}
