//! The ConfBench daemon (see `confbench_fleet::daemon`).

fn main() -> std::process::ExitCode {
    confbench_fleet::daemon::main("confbench-gateway")
}

#[cfg(test)]
mod tests {
    use confbench::flags;
    use confbench::AttestConfig;
    use confbench_fleet::daemon::{config, listening_line, Config, FLAGS};
    use confbench_types::TeePlatform;

    fn config_of(line: &str) -> Result<Config, String> {
        config(line.split_whitespace().map(str::to_owned).collect())
    }

    #[test]
    fn every_flag_in_help_parses_and_bad_input_keeps_its_message() {
        let help = flags::usage("confbench-gateway [FLAGS]", &FLAGS);
        for (flag, sample) in [
            ("--listen", "127.0.0.1:0"),
            ("--shards", "3"),
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
        assert_eq!((c.listen.as_str(), c.fleet.seed), ("127.0.0.1:0", 13));
        assert_eq!((c.fleet.queue_capacity, &c.fleet.platforms[..]), (64, &[TeePlatform::Tdx][..]));
        let d = config_of("").unwrap();
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        assert_eq!((d.listen.as_str(), d.workers, d.fleet.shards), ("127.0.0.1:7700", cpus, 1));
        assert_eq!(d.fleet.platforms, TeePlatform::ALL);
        assert!(d.fleet.chaos.is_none() && d.fleet.remote_hosts.is_empty());
        assert_eq!(d.fleet.attest, AttestConfig::default());

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
        let line = listening_line("confbench-gateway", "127.0.0.1:7700".parse().unwrap());
        assert_eq!(line, "confbench-gateway listening on http://127.0.0.1:7700");
        let addr = line.rsplit_once("http://").and_then(|(_, a)| a.parse().ok());
        assert_eq!(addr, Some("127.0.0.1:7700".parse::<std::net::SocketAddr>().unwrap()));
    }
}
