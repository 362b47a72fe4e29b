//! The ConfBench gateway server.
//!
//! Boots local simulated TEE hosts and serves the REST API (paper §III):
//!
//! ```text
//! confbench-gateway [--listen ADDR] [--platforms tdx,sev-snp,cca]
//!                   [--seed N] [--policy round-robin|least-loaded]
//!                   [--remote-host PLATFORM=ADDR]...
//!                   [--queue-capacity N] [--workers N]
//!                   [--cache-capacity N] [--http-workers N] [--http-backlog N]
//!                   [--attest-ttl-ms N] [--attest-cache-capacity N]
//!                   [--chaos-seed N] [--chaos-rate F]
//! ```
//!
//! `--chaos-seed` (nonzero) arms deterministic TEE fault injection at
//! `--chaos-rate` (default 0.1) per mechanism crossing; the per-VM
//! supervisors absorb the faults (retry, rebuild, quarantine) and surface
//! them in `/v1/metrics`.
//!
//! `--attest-ttl-ms` / `--attest-cache-capacity` size the attestation
//! session cache behind `/v1/attest/sessions`; they default from the
//! `CONFBENCH_ATTEST_TTL_MS` / `CONFBENCH_ATTEST_CACHE_CAPACITY`
//! environment variables (flags win when both are given).

use std::process::ExitCode;
use std::sync::Arc;

use confbench::{AttestConfig, BalancePolicy, Gateway, SystemClock, TeeFaultPlan};
use confbench_httpd::ServerConfig;
use confbench_sched::{Scheduler, SchedulerConfig};
use confbench_types::TeePlatform;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("confbench-gateway: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = "127.0.0.1:7700".to_owned();
    let mut platforms = vec![TeePlatform::Tdx, TeePlatform::SevSnp, TeePlatform::Cca];
    let mut seed = 0u64;
    let mut policy = BalancePolicy::RoundRobin;
    let mut remote_hosts: Vec<(TeePlatform, std::net::SocketAddr)> = Vec::new();
    let mut queue_capacity = SchedulerConfig::default().queue_capacity;
    let mut workers = 1usize;
    let mut cache_capacity = SchedulerConfig::default().cache_capacity;
    let mut http = ServerConfig::default();
    let mut attest = AttestConfig::from_env();
    let mut chaos_seed = 0u64;
    let mut chaos_rate = 0.1f64;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                listen = take_value(&args, &mut i, "--listen")?;
            }
            "--platforms" => {
                let list = take_value(&args, &mut i, "--platforms")?;
                platforms = list
                    .split(',')
                    .map(|p| p.parse().map_err(|e| format!("{e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => {
                seed = take_value(&args, &mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--policy" => {
                policy = match take_value(&args, &mut i, "--policy")?.as_str() {
                    "round-robin" => BalancePolicy::RoundRobin,
                    "least-loaded" => BalancePolicy::LeastLoaded,
                    other => return Err(format!("unknown policy {other}")),
                };
            }
            "--remote-host" => {
                let spec = take_value(&args, &mut i, "--remote-host")?;
                let (platform, addr) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--remote-host wants PLATFORM=ADDR, got {spec}"))?;
                remote_hosts.push((
                    platform.parse().map_err(|e| format!("{e}"))?,
                    addr.parse().map_err(|e| format!("bad address {addr}: {e}"))?,
                ));
            }
            "--queue-capacity" => {
                queue_capacity = take_value(&args, &mut i, "--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("bad queue capacity: {e}"))?;
                if queue_capacity == 0 {
                    return Err("--queue-capacity must be at least 1".into());
                }
            }
            "--workers" => {
                workers = take_value(&args, &mut i, "--workers")?
                    .parse()
                    .map_err(|e| format!("bad worker count: {e}"))?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--cache-capacity" => {
                cache_capacity = take_value(&args, &mut i, "--cache-capacity")?
                    .parse()
                    .map_err(|e| format!("bad cache capacity: {e}"))?;
                if cache_capacity == 0 {
                    return Err("--cache-capacity must be at least 1".into());
                }
            }
            "--http-workers" => {
                http.workers = take_value(&args, &mut i, "--http-workers")?
                    .parse()
                    .map_err(|e| format!("bad http worker count: {e}"))?;
                if http.workers == 0 {
                    return Err("--http-workers must be at least 1".into());
                }
            }
            "--http-backlog" => {
                http.backlog = take_value(&args, &mut i, "--http-backlog")?
                    .parse()
                    .map_err(|e| format!("bad http backlog: {e}"))?;
                if http.backlog == 0 {
                    return Err("--http-backlog must be at least 1".into());
                }
            }
            "--attest-ttl-ms" => {
                attest.ttl_ms = take_value(&args, &mut i, "--attest-ttl-ms")?
                    .parse()
                    .map_err(|e| format!("bad attest TTL: {e}"))?;
                if attest.ttl_ms == 0 {
                    return Err("--attest-ttl-ms must be at least 1".into());
                }
            }
            "--attest-cache-capacity" => {
                attest.capacity = take_value(&args, &mut i, "--attest-cache-capacity")?
                    .parse()
                    .map_err(|e| format!("bad attest cache capacity: {e}"))?;
                if attest.capacity == 0 {
                    return Err("--attest-cache-capacity must be at least 1".into());
                }
            }
            "--chaos-seed" => {
                chaos_seed = take_value(&args, &mut i, "--chaos-seed")?
                    .parse()
                    .map_err(|e| format!("bad chaos seed: {e}"))?;
            }
            "--chaos-rate" => {
                chaos_rate = take_value(&args, &mut i, "--chaos-rate")?
                    .parse()
                    .map_err(|e| format!("bad chaos rate: {e}"))?;
                if !(0.0..=1.0).contains(&chaos_rate) {
                    return Err("--chaos-rate must be in [0, 1]".into());
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: confbench-gateway [--listen ADDR] [--platforms LIST] [--seed N]\n\
                     \x20                        [--policy round-robin|least-loaded]\n\
                     \x20                        [--remote-host PLATFORM=ADDR]...\n\
                     \x20                        [--queue-capacity N] [--workers N]\n\
                     \x20                        [--cache-capacity N] (result-cache LRU bound)\n\
                     \x20                        [--http-workers N] [--http-backlog N]\n\
                     \x20                        [--attest-ttl-ms N] [--attest-cache-capacity N]\n\
                     \x20                        [--chaos-seed N] [--chaos-rate F] (TEE fault injection)"
                );
                return Ok(());
            }
            other => return Err(format!("unknown argument {other} (try --help)")),
        }
        i += 1;
    }

    let mut builder = Gateway::builder().seed(seed).policy(policy).http(http).attest(attest);
    if chaos_seed != 0 {
        eprintln!("chaos armed: seed {chaos_seed}, fault rate {chaos_rate} per TEE crossing");
        builder = builder.chaos(Arc::new(TeeFaultPlan::new(chaos_seed, chaos_rate)));
    }
    for platform in &platforms {
        eprintln!("booting local host for {platform} (secure + normal VMs)...");
        builder = builder.local_host(*platform);
    }
    for (platform, addr) in remote_hosts {
        eprintln!("registering remote {platform} host at {addr}");
        builder = builder.remote_host(platform, addr);
    }
    let gateway = Arc::new(builder.build());
    let config = SchedulerConfig {
        queue_capacity,
        retry_after_secs: gateway.retry_policy().retry_after_secs(),
        cache_capacity,
        ..SchedulerConfig::default()
    };
    let sched = Arc::new(Scheduler::with_metrics(
        Arc::clone(&gateway) as Arc<dyn confbench_sched::Executor>,
        Arc::new(SystemClock),
        config,
        Arc::clone(gateway.metrics()),
    ));
    sched.spawn_workers(workers);
    let server = Arc::clone(&gateway)
        .serve_with_scheduler(Arc::clone(&sched), &listen)
        .map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    println!("confbench gateway listening on http://{}", server.addr());
    println!("  POST /v1/run            run a function (JSON RunRequest)");
    println!("  POST /v1/functions      upload CBScript source");
    println!("  GET  /v1/functions      list registered functions");
    println!("  POST /v1/campaigns      submit a campaign matrix (202 + receipt)");
    println!("  GET  /v1/campaigns/ID   poll campaign status");
    println!("  DELETE /v1/campaigns/ID cancel a campaign");
    println!("  GET  /v1/jobs/ID        per-job status + trace");
    println!("  POST /v1/attest/sessions     open a verified attestation session");
    println!("  GET  /v1/attest/sessions/ID  inspect a session");
    println!("  DELETE /v1/attest/sessions/ID revoke a session");
    println!("  POST /v1/attest/sessions/ID/extend  extend a runtime measurement");
    println!("  GET  /v1/metrics        counters + histograms (?format=json for JSON)");
    println!("  GET  /v1/health         liveness");
    println!("scheduler: queue capacity {queue_capacity}, {workers} worker(s) per platform");
    println!(
        "http: {} handler worker(s), admission window {} connections, \
         result cache capped at {cache_capacity} entries",
        http.workers,
        http.workers + http.backlog
    );

    // Serve until interrupted.
    loop {
        std::thread::park();
    }
}

fn take_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
}
