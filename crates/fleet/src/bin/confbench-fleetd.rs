//! The ConfBench fleet daemon: N gateway shards behind one consistent-hash
//! placement ring, served over one REST surface.
//!
//! A background driver thread pumps the shards (own queues first, then
//! cross-shard steals); the REST surface exposes the shard table, graceful
//! drain and abrupt kill of shards, campaign placement, and live
//! migrations. Flags are the only way to configure it — nothing is read
//! from the environment; `confbench-fleetd --help` prints [`FLAGS`].

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;

use confbench::flags::{self, Flag, Flags};
use confbench_fleet::{Fleet, FleetConfig};

const FLAGS: [Flag; 6] = [
    ("--listen", "ADDR", "address to serve on (default 127.0.0.1:7710)"),
    ("--shards", "N", "gateway shards, 3 platforms each (default 3)"),
    ("--vnodes", "N", "virtual nodes per shard on the ring (default 32)"),
    ("--seed", "N", "seed shared by every shard (default 0)"),
    ("--chaos-seed", "N", "nonzero arms TEE fault injection (default 0)"),
    ("--chaos-rate", "F", "fault probability per TEE crossing, in [0, 1] (default 0.1)"),
];

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("confbench-fleetd: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn config(args: Vec<String>) -> Result<(String, FleetConfig), String> {
    let flags = Flags::parse(&FLAGS, args)?;
    if let Some(stray) = flags.positionals().first() {
        return Err(format!("unknown argument {stray} (try --help)"));
    }
    let mut config = FleetConfig::default();
    if let Some(n) = flags.positive("--shards", "shard count")? {
        config.shards = n;
    }
    if let Some(n) = flags.positive("--vnodes", "vnode count")? {
        config.vnodes = n;
    }
    if let Some(seed) = flags.parsed("--seed", "seed")? {
        config.seed = seed;
    }
    config.chaos = flags::chaos_plan(&flags)?;
    Ok((flags.flag_value("--listen").unwrap_or("127.0.0.1:7710").to_owned(), config))
}

/// First stdout line; the ledger reads the bound address from it.
fn listening_line(addr: SocketAddr) -> String {
    format!("confbench fleet listening on http://{addr}")
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if flags::wants_help(&args) {
        print!("{}", flags::usage("confbench-fleetd [FLAGS]", &FLAGS));
        return Ok(());
    }
    let (listen, config) = config(args)?;
    let shards = config.shards;
    eprintln!("booting {shards} gateway shards (3 platforms each)...");
    let fleet = Arc::new(Fleet::new(config));

    let driver = Arc::clone(&fleet);
    std::thread::Builder::new()
        .name("fleet-pump".into())
        .spawn(move || loop {
            if !driver.pump() {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        })
        .map_err(|e| format!("cannot spawn fleet pump: {e}"))?;

    let server = fleet.serve_on(&listen).map_err(|e| format!("cannot listen on {listen}: {e}"))?;
    println!("{}", listening_line(server.addr()));
    println!("  GET  /v1/fleet                    shard table, steals, replacements");
    println!("  POST /v1/fleet/campaigns          place a campaign across the fleet");
    println!("  GET  /v1/fleet/campaigns/ID       harvest-judged campaign progress");
    println!("  POST /v1/fleet/shards/ID/drain    graceful drain (cache migrates)");
    println!("  POST /v1/fleet/shards/ID/kill     abrupt kill (work re-places)");
    println!("  POST /v1/migrations               run a live migration");
    println!("  GET  /v1/migrations               migration reports");
    println!("fleet: {shards} shards on the placement ring");

    // Serve until interrupted.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_of(line: &str) -> Result<(String, FleetConfig), String> {
        config(line.split_whitespace().map(str::to_owned).collect())
    }

    #[test]
    fn every_flag_in_help_parses_and_bad_input_keeps_its_message() {
        let help = flags::usage("confbench-fleetd [FLAGS]", &FLAGS);
        for (flag, sample) in [
            ("--listen", "127.0.0.1:0"),
            ("--shards", "2"),
            ("--vnodes", "8"),
            ("--seed", "13"),
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

        let (listen, c) = config_of("--listen 127.0.0.1:0 --seed 13 --shards 3").unwrap();
        assert_eq!((listen.as_str(), c.seed, c.shards), ("127.0.0.1:0", 13, 3));
        assert!(c.chaos.is_none());
        assert_eq!(config_of("").unwrap().0, "127.0.0.1:7710");
        assert!(config_of("--chaos-seed 7").unwrap().1.chaos.is_some());

        let err = |line: &str| config_of(line).err().unwrap();
        assert_eq!(err("--bogus"), "unknown argument --bogus (try --help)");
        assert_eq!(err("--shards"), "--shards needs a value");
        assert!(err("--shards x").starts_with("bad shard count: "));
        assert_eq!(err("--shards 0"), "--shards must be at least 1");
        assert_eq!(err("--vnodes 0"), "--vnodes must be at least 1");
        assert_eq!(err("--chaos-rate -0.1"), "--chaos-rate must be in [0, 1]");
    }

    #[test]
    fn first_stdout_line_is_what_the_ledger_parses() {
        assert_eq!(
            listening_line("127.0.0.1:7710".parse().unwrap()),
            "confbench fleet listening on http://127.0.0.1:7710"
        );
    }
}
