//! The ConfBench gateway server.
//!
//! Boots local simulated TEE hosts and serves the REST API (paper §III).
//! Flags are the only way to configure it — nothing is read from the
//! environment; `confbench-gateway --help` prints the table below
//! ([`FLAGS`]).
//!
//! `--chaos-seed` (nonzero) arms deterministic TEE fault injection at
//! `--chaos-rate` per mechanism crossing; the per-VM supervisors absorb the
//! faults (retry, rebuild, quarantine) and surface them in `/v1/metrics`.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;

use confbench::flags::{self, Flag, Flags};
use confbench::{AttestConfig, BalancePolicy, Gateway, SystemClock, TeeFaultPlan};
use confbench_httpd::ServerConfig;
use confbench_sched::{Scheduler, SchedulerConfig};
use confbench_types::TeePlatform;

const FLAGS: [Flag; 14] = [
    ("--listen", "ADDR", "address to serve on (default 127.0.0.1:7700)"),
    ("--platforms", "LIST", "local hosts to boot, comma-separated (default tdx,sev-snp,cca)"),
    ("--seed", "N", "seed of every VM and jitter stream (default 0)"),
    ("--policy", "P", "round-robin (default) or least-loaded"),
    ("--remote-host", "PLATFORM=ADDR", "register a remote host agent (repeatable)"),
    ("--queue-capacity", "N", "campaign jobs admitted before 429 (default 4096)"),
    ("--workers", "N", "scheduler workers per platform (default 1)"),
    ("--cache-capacity", "N", "result-cache LRU bound (default 4096)"),
    ("--http-workers", "N", "REST handler threads (default 8)"),
    ("--http-backlog", "N", "connections admitted beyond the workers before 503 (default 1024)"),
    ("--attest-ttl-ms", "N", "attestation session lifetime (default 300000)"),
    ("--attest-cache-capacity", "N", "attestation sessions retained (default 1024)"),
    ("--chaos-seed", "N", "nonzero arms TEE fault injection (default 0)"),
    ("--chaos-rate", "F", "fault probability per TEE crossing, in [0, 1] (default 0.1)"),
];

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("confbench-gateway: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Everything the flags decide.
struct Config {
    listen: String,
    platforms: Vec<TeePlatform>,
    seed: u64,
    policy: BalancePolicy,
    remote_hosts: Vec<(TeePlatform, SocketAddr)>,
    queue_capacity: usize,
    workers: usize,
    cache_capacity: usize,
    http: ServerConfig,
    attest: AttestConfig,
    chaos: Option<Arc<TeeFaultPlan>>,
}

fn config(args: Vec<String>) -> Result<Config, String> {
    let flags = Flags::parse(&FLAGS, args)?;
    if let Some(stray) = flags.positionals().first() {
        return Err(format!("unknown argument {stray} (try --help)"));
    }
    let sched = SchedulerConfig::default();
    let (mut http, mut attest) = (ServerConfig::default(), AttestConfig::default());
    if let Some(n) = flags.positive("--http-workers", "http worker count")? {
        http.workers = n;
    }
    if let Some(n) = flags.positive("--http-backlog", "http backlog")? {
        http.backlog = n;
    }
    if let Some(n) = flags.positive("--attest-ttl-ms", "attest TTL")? {
        attest.ttl_ms = n;
    }
    if let Some(n) = flags.positive("--attest-cache-capacity", "attest cache capacity")? {
        attest.capacity = n;
    }
    Ok(Config {
        listen: flags.flag_value("--listen").unwrap_or("127.0.0.1:7700").to_owned(),
        platforms: flags
            .flag_value("--platforms")
            .unwrap_or("tdx,sev-snp,cca")
            .split(',')
            .map(|p| p.parse().map_err(|e| format!("{e}")))
            .collect::<Result<_, _>>()?,
        seed: flags.parsed("--seed", "seed")?.unwrap_or(0),
        policy: match flags.flag_value("--policy") {
            None | Some("round-robin") => BalancePolicy::RoundRobin,
            Some("least-loaded") => BalancePolicy::LeastLoaded,
            Some(other) => return Err(format!("unknown policy {other}")),
        },
        remote_hosts: flags
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
            .collect::<Result<_, String>>()?,
        queue_capacity: flags
            .positive("--queue-capacity", "queue capacity")?
            .unwrap_or(sched.queue_capacity),
        workers: flags.positive("--workers", "worker count")?.unwrap_or(1),
        cache_capacity: flags
            .positive("--cache-capacity", "cache capacity")?
            .unwrap_or(sched.cache_capacity),
        http,
        attest,
        chaos: flags::chaos_plan(&flags)?,
    })
}

/// First stdout line; the ledger reads the bound address from it.
fn listening_line(addr: SocketAddr) -> String {
    format!("confbench gateway listening on http://{addr}")
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if flags::wants_help(&args) {
        print!("{}", flags::usage("confbench-gateway [FLAGS]", &FLAGS));
        return Ok(());
    }
    let c = config(args)?;

    let mut builder =
        Gateway::builder().seed(c.seed).policy(c.policy).http(c.http).attest(c.attest);
    if let Some(plan) = c.chaos {
        builder = builder.chaos(plan);
    }
    for platform in &c.platforms {
        eprintln!("booting local host for {platform} (secure + normal VMs)...");
        builder = builder.local_host(*platform);
    }
    for (platform, addr) in c.remote_hosts {
        eprintln!("registering remote {platform} host at {addr}");
        builder = builder.remote_host(platform, addr);
    }
    let gateway = Arc::new(builder.build());
    let config = SchedulerConfig {
        queue_capacity: c.queue_capacity,
        retry_after_secs: gateway.retry_policy().retry_after_secs(),
        cache_capacity: c.cache_capacity,
        ..SchedulerConfig::default()
    };
    let sched = Arc::new(Scheduler::with_metrics(
        Arc::clone(&gateway) as Arc<dyn confbench_sched::Executor>,
        Arc::new(SystemClock),
        config,
        Arc::clone(gateway.metrics()),
    ));
    sched.spawn_workers(c.workers);
    let server = Arc::clone(&gateway)
        .serve_with_scheduler(Arc::clone(&sched), &c.listen)
        .map_err(|e| format!("cannot listen on {}: {e}", c.listen))?;
    println!("{}", listening_line(server.addr()));
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
    println!(
        "scheduler: queue capacity {}, {} worker(s) per platform",
        c.queue_capacity, c.workers
    );
    println!(
        "http: {} handler worker(s), admission window {} connections, \
         result cache capped at {} entries",
        c.http.workers,
        c.http.workers + c.http.backlog,
        c.cache_capacity
    );

    // Serve until interrupted.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_of(line: &str) -> Result<Config, String> {
        config(line.split_whitespace().map(str::to_owned).collect())
    }

    #[test]
    fn every_flag_in_help_parses_and_bad_input_keeps_its_message() {
        let help = flags::usage("confbench-gateway [FLAGS]", &FLAGS);
        for (flag, sample) in [
            ("--listen", "127.0.0.1:0"),
            ("--platforms", "tdx,sev-snp"),
            ("--seed", "13"),
            ("--policy", "least-loaded"),
            ("--remote-host", "cca=127.0.0.1:9"),
            ("--queue-capacity", "64"),
            ("--workers", "2"),
            ("--cache-capacity", "128"),
            ("--http-workers", "4"),
            ("--http-backlog", "16"),
            ("--attest-ttl-ms", "1000"),
            ("--attest-cache-capacity", "8"),
            ("--chaos-seed", "7"),
            ("--chaos-rate", "0.005"),
        ] {
            assert!(help.contains(&format!("  {flag} ")), "{flag} missing from --help");
            config_of(&format!("{flag} {sample}")).unwrap_or_else(|e| panic!("{flag}: {e}"));
        }
        assert_eq!(
            help.lines().count(),
            1 + FLAGS.len(),
            "--help lists a flag the loop above skips"
        );

        let c = config_of("--listen 127.0.0.1:0 --platforms tdx --seed 13 --queue-capacity 64")
            .unwrap();
        assert_eq!((c.listen.as_str(), c.seed, c.queue_capacity), ("127.0.0.1:0", 13, 64));
        assert_eq!(c.platforms, [TeePlatform::Tdx]);
        let d = config_of("").unwrap();
        assert_eq!((d.listen.as_str(), d.workers, d.chaos.is_some()), ("127.0.0.1:7700", 1, false));
        assert_eq!(d.attest, AttestConfig::default());

        let err = |line: &str| config_of(line).err().unwrap();
        assert_eq!(err("--bogus"), "unknown argument --bogus (try --help)");
        assert_eq!(err("stray"), "unknown argument stray (try --help)");
        assert_eq!(err("--seed"), "--seed needs a value");
        assert!(err("--seed x").starts_with("bad seed: "));
        assert!(err("--queue-capacity x").starts_with("bad queue capacity: "));
        assert_eq!(err("--queue-capacity 0"), "--queue-capacity must be at least 1");
        assert_eq!(err("--http-workers 0"), "--http-workers must be at least 1");
        assert_eq!(err("--chaos-rate 1.5"), "--chaos-rate must be in [0, 1]");
        assert_eq!(err("--policy fastest"), "unknown policy fastest");
        assert_eq!(err("--remote-host tdx"), "--remote-host wants PLATFORM=ADDR, got tdx");
    }

    #[test]
    fn first_stdout_line_is_what_the_ledger_parses() {
        assert_eq!(
            listening_line("127.0.0.1:7700".parse().unwrap()),
            "confbench gateway listening on http://127.0.0.1:7700"
        );
    }
}
