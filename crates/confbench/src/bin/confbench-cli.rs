//! Command-line client for a running ConfBench gateway.
//!
//! `confbench-cli --help` prints the commands ([`SYNOPSIS`]) and the flags
//! ([`FLAGS`]).
//!
//! `attest verify` opens (or joins) a verified attestation session and
//! prints its token; pass that token to `run --attest-session ID` to skip
//! hot-path quote verification while the session stays live.

use std::process::ExitCode;

use confbench::flags::{self, Flag, Flags};
use confbench::{AttestSessionInfo, AttestSessionRequest, ExtendRequest, UploadRequest};
use confbench_httpd::{Client, Method, Request};
use confbench_types::{
    CampaignFunction, CampaignReceipt, CampaignSpec, CampaignStatus, DeviceKind, FunctionSpec,
    Language, Priority, RunRequest, RunResult, TeePlatform, VmKind, VmTarget,
};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("confbench-cli: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Commands and their positionals, printed above the flag table.
const SYNOPSIS: &str = "confbench-cli [--gateway ADDR] COMMAND [FLAGS]
  list | upload NAME FILE | run FN | compare FN
  campaign submit --functions F[:ARG...],... | campaign status|cancel|wait ID
  attest verify | attest status|revoke ID | attest extend ID --index N --data S
  fleet status | fleet drain|kill SHARD | migrate     (against a confbench-fleetd)";

const FLAGS: [Flag; 20] = [
    ("--gateway", "ADDR", "daemon to talk to (default 127.0.0.1:7700)"),
    ("--lang", "LANG", "run/compare: language runtime (default lua)"),
    ("--tee", "PLATFORM", "run/attest verify/migrate: tdx (default), sev-snp, cca"),
    ("--normal", "", "run/migrate: the normal VM instead of the secure one"),
    ("--trials", "N", "run/compare/campaign: measured trials (default 10)"),
    ("--seed", "N", "run/compare/campaign: request seed (default 0)"),
    ("--args", "A,B,...", "run/compare: function arguments"),
    ("--device", "gpu", "run/campaign: attach a confidential accelerator"),
    ("--attest-session", "ID", "run: ride a live attestation session"),
    ("--functions", "F[:ARG...],...", "campaign submit: functions of the matrix"),
    ("--langs", "L,...", "campaign submit: languages (default lua)"),
    ("--tees", "P,...", "campaign submit: platforms (default tdx)"),
    ("--modes", "M,...", "campaign submit: secure,normal (default both)"),
    ("--priority", "P", "campaign submit: low, normal (default) or high"),
    ("--deadline-ms", "N", "campaign submit: expire unfinished jobs after N ms"),
    ("--wait", "", "campaign submit: poll until the campaign is done"),
    ("--nonce", "N", "attest verify: caller-chosen freshness nonce"),
    ("--index", "N", "attest extend: runtime register (0..8)"),
    ("--data", "S", "attest extend: data measured into the register"),
    ("--max-rounds", "N", "migrate: pre-copy round limit"),
];

struct Cli {
    client: Client,
    flags: Flags,
    pos: usize,
}

impl Cli {
    fn next_positional(&mut self) -> Option<String> {
        let arg = self.flags.positionals().get(self.pos).cloned();
        self.pos += 1;
        arg
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if flags::wants_help(&args) || args.is_empty() {
        print!("{}", flags::usage(SYNOPSIS, &FLAGS));
        return Ok(());
    }
    let flags = Flags::parse(&FLAGS, args)?;
    let addr = flags.flag_value("--gateway").unwrap_or("127.0.0.1:7700");
    let client = Client::connect(addr).map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let mut cli = Cli { client, flags, pos: 0 };

    let command = cli.next_positional().ok_or("missing command (try --help)")?;
    match command.as_str() {
        "list" => list(&cli),
        "upload" => {
            let name = cli.next_positional().ok_or("upload needs NAME")?;
            let file = cli.next_positional().ok_or("upload needs FILE")?;
            upload(&cli, &name, &file)
        }
        "run" => {
            let function = cli.next_positional().ok_or("run needs FUNCTION")?;
            let request = build_request(&cli, &function)?;
            let result = post_run(&cli, &request)?;
            print_result(&result);
            Ok(())
        }
        "compare" => {
            let function = cli.next_positional().ok_or("compare needs FUNCTION")?;
            compare(&cli, &function)
        }
        "campaign" => {
            let action = cli.next_positional().ok_or("campaign needs submit|status|cancel|wait")?;
            match action.as_str() {
                "submit" => campaign_submit(&cli),
                "status" => {
                    let id = cli.next_positional().ok_or("campaign status needs ID")?;
                    print_campaign(&campaign_status(&cli, &id)?);
                    Ok(())
                }
                "cancel" => {
                    let id = cli.next_positional().ok_or("campaign cancel needs ID")?;
                    campaign_cancel(&cli, &id)
                }
                "wait" => {
                    let id = cli.next_positional().ok_or("campaign wait needs ID")?;
                    print_campaign(&campaign_wait(&cli, &id)?);
                    Ok(())
                }
                other => Err(format!("unknown campaign action {other} (try --help)")),
            }
        }
        "attest" => {
            let action = cli.next_positional().ok_or("attest needs verify|status|revoke|extend")?;
            match action.as_str() {
                "verify" => attest_verify(&cli),
                "status" => {
                    let id = cli.next_positional().ok_or("attest status needs ID")?;
                    attest_status(&cli, &id)
                }
                "revoke" => {
                    let id = cli.next_positional().ok_or("attest revoke needs ID")?;
                    attest_revoke(&cli, &id)
                }
                "extend" => {
                    let id = cli.next_positional().ok_or("attest extend needs ID")?;
                    attest_extend(&cli, &id)
                }
                other => Err(format!("unknown attest action {other} (try --help)")),
            }
        }
        "fleet" => {
            let action = cli.next_positional().ok_or("fleet needs status|drain|kill")?;
            match action.as_str() {
                "status" => fleet_status(&cli),
                "drain" | "kill" => {
                    let shard = cli.next_positional().ok_or("fleet drain/kill needs SHARD")?;
                    fleet_shard_action(&cli, &action, &shard)
                }
                other => Err(format!("unknown fleet action {other} (try --help)")),
            }
        }
        "migrate" => migrate_vm(&cli),
        other => Err(format!("unknown command {other} (try --help)")),
    }
}

/// Plain rendering of a JSON scalar for table output.
fn jv(value: &serde_json::Value) -> String {
    if let Some(s) = value.as_str() {
        return s.to_owned();
    }
    if let Some(n) = value.as_u64() {
        return n.to_string();
    }
    if let Some(b) = value.as_bool() {
        return b.to_string();
    }
    format!("{value:?}")
}

/// One REST exchange: send `request`, insist on status `expected`, decode
/// the body. `who` names the daemon in the refusal message.
fn call<T: serde::de::DeserializeOwned>(
    cli: &Cli,
    request: &Request,
    expected: u16,
    who: &str,
) -> Result<T, String> {
    let resp = cli.client.send(request).map_err(|e| format!("request failed: {e}"))?;
    if resp.status != expected {
        // Queue admission (202) is the one refusal that resending the same
        // request later cures, so it alone passes the server's hint on.
        let hint = match resp.headers.get("retry-after") {
            Some(secs) if expected == 202 => format!(" (retry after {secs}s)"),
            _ => String::new(),
        };
        return Err(format!(
            "{who} said {}: {}{hint}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    resp.body_json().map_err(|e| format!("bad response: {e}"))
}

fn fleet_status(cli: &Cli) -> Result<(), String> {
    let view: serde_json::Value = call(cli, &Request::new(Method::Get, "/v1/fleet"), 200, "fleet")?;
    println!(
        "fleet: {} alive, {} steals, {} cells re-placed, {} migrations",
        jv(&view["alive"]),
        jv(&view["steals"]),
        jv(&view["cells_replaced"]),
        jv(&view["migrations"])
    );
    println!(
        "{:<6} {:<6} {:>7} {:>9} {:>7} {:>8}",
        "shard", "alive", "queued", "cached", "hits", "misses"
    );
    for shard in view["shards"].as_array().map(Vec::as_slice).unwrap_or_default() {
        println!(
            "{:<6} {:<6} {:>7} {:>9} {:>7} {:>8}",
            jv(&shard["shard"]),
            jv(&shard["alive"]),
            jv(&shard["queue_depth"]),
            jv(&shard["cache_entries"]),
            jv(&shard["cache_hits"]),
            jv(&shard["cache_misses"]),
        );
    }
    Ok(())
}

fn fleet_shard_action(cli: &Cli, action: &str, shard: &str) -> Result<(), String> {
    let request = Request::new(Method::Post, &format!("/v1/fleet/shards/{shard}/{action}"));
    let view: serde_json::Value = call(cli, &request, 200, "fleet")?;
    println!(
        "shard {} {}: alive={}, {} cells re-placed",
        jv(&view["shard"]),
        if action == "drain" { "drained" } else { "killed" },
        jv(&view["alive"]),
        jv(&view["cells_replaced"])
    );
    Ok(())
}

fn migrate_vm(cli: &Cli) -> Result<(), String> {
    let platform: TeePlatform =
        cli.flags.flag_value("--tee").unwrap_or("tdx").parse().map_err(|e| format!("{e}"))?;
    let kind = if cli.flags.has_flag("--normal") { "normal" } else { "secure" };
    let max_rounds: Option<u32> = cli.flags.parsed("--max-rounds", "max rounds")?;
    let body = serde_json::json!({
        "platform": platform,
        "kind": kind,
        "max_rounds": max_rounds,
    });
    let request = Request::new(Method::Post, "/v1/migrations").json(&body);
    let view: serde_json::Value = call(cli, &request, 200, "fleet")?;
    println!("migrated {platform}/{kind}");
    println!("downtime : {} us (stop-and-copy + re-attest blackout)", jv(&view["downtime_us"]));
    println!(
        "pre-copy : {} rounds, {} pages total, {} wire bytes in {} frames",
        jv(&view["precopy_rounds"]),
        jv(&view["pages_total"]),
        jv(&view["wire_bytes"]),
        jv(&view["frames"])
    );
    println!("session  : {}", view["session"].as_str().unwrap_or("?"));
    Ok(())
}

fn list(cli: &Cli) -> Result<(), String> {
    let resp = cli
        .client
        .send(&Request::new(Method::Get, "/v1/functions"))
        .map_err(|e| format!("request failed: {e}"))?;
    let names: Vec<String> = resp.body_json().map_err(|e| format!("bad response: {e}"))?;
    for name in names {
        println!("{name}");
    }
    Ok(())
}

fn upload(cli: &Cli, name: &str, file: &str) -> Result<(), String> {
    let script = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let req = Request::new(Method::Post, "/v1/functions")
        .json(&UploadRequest { name: name.to_owned(), script });
    let _: serde_json::Value = call(cli, &req, 201, "gateway")?;
    println!("uploaded {name}");
    Ok(())
}

fn build_request(cli: &Cli, function: &str) -> Result<RunRequest, String> {
    let language: Language =
        cli.flags.flag_value("--lang").unwrap_or("lua").parse().map_err(|e| format!("{e}"))?;
    let platform: TeePlatform =
        cli.flags.flag_value("--tee").unwrap_or("tdx").parse().map_err(|e| format!("{e}"))?;
    let kind = if cli.flags.has_flag("--normal") { VmKind::Normal } else { VmKind::Secure };
    let trials: u32 = cli.flags.parsed("--trials", "trials")?.unwrap_or(10);
    let seed: u64 = cli.flags.parsed("--seed", "seed")?.unwrap_or(0);
    let args = cli
        .flags
        .flag_value("--args")
        .map(|v| v.split(',').map(str::to_owned).collect())
        .unwrap_or_default();
    let device = device_flag(cli)?;
    let mut spec = FunctionSpec::new(function, language);
    spec.args = args;
    Ok(RunRequest {
        function: spec,
        target: VmTarget { platform, kind },
        trials,
        seed,
        deadline_ms: None,
        attest_session: cli.flags.flag_value("--attest-session").map(str::to_owned),
        device,
    })
}

fn device_flag(cli: &Cli) -> Result<Option<DeviceKind>, String> {
    cli.flags.flag_value("--device").map(|v| v.parse().map_err(|e| format!("{e}"))).transpose()
}

fn attest_verify(cli: &Cli) -> Result<(), String> {
    let platform: TeePlatform =
        cli.flags.flag_value("--tee").unwrap_or("tdx").parse().map_err(|e| format!("{e}"))?;
    let nonce = cli.flags.parsed("--nonce", "nonce")?;
    let req = Request::new(Method::Post, "/v1/attest/sessions")
        .json(&AttestSessionRequest { platform, nonce });
    let info: AttestSessionInfo = call(cli, &req, 201, "gateway")?;
    print_session(&info);
    Ok(())
}

fn attest_status(cli: &Cli, id: &str) -> Result<(), String> {
    let request = Request::new(Method::Get, &format!("/v1/attest/sessions/{id}"));
    let info: AttestSessionInfo = call(cli, &request, 200, "gateway")?;
    print_session(&info);
    Ok(())
}

fn attest_revoke(cli: &Cli, id: &str) -> Result<(), String> {
    let request = Request::new(Method::Delete, &format!("/v1/attest/sessions/{id}"));
    let info: AttestSessionInfo = call(cli, &request, 200, "gateway")?;
    println!("revoked {}", info.id);
    print_session(&info);
    Ok(())
}

fn attest_extend(cli: &Cli, id: &str) -> Result<(), String> {
    let index: usize =
        cli.flags.parsed("--index", "index")?.ok_or("attest extend needs --index")?;
    let data = cli.flags.flag_value("--data").ok_or("attest extend needs --data")?.to_owned();
    let req = Request::new(Method::Post, &format!("/v1/attest/sessions/{id}/extend"))
        .json(&ExtendRequest { index, data });
    let info: AttestSessionInfo = call(cli, &req, 200, "gateway")?;
    println!("extended register {index}; session {} is now {}", info.id, info.state);
    print_session(&info);
    Ok(())
}

fn print_session(info: &AttestSessionInfo) {
    println!("session  : {}", info.id);
    println!("platform : {}", info.platform);
    println!("state    : {}", info.state);
    println!("tcb      : level {}, measurement {}", info.tcb_level, info.measurement);
    println!("runtime  : {}", info.runtime_digest);
    println!("expires  : {} ms (issued {} ms)", info.expires_ms, info.created_ms);
    if let Some(source) = &info.source {
        let timing = match (info.latency_ms, info.network_ms) {
            (Some(lat), Some(net)) => format!(" ({lat:.3} ms, {net:.3} ms on the network)"),
            _ => String::new(),
        };
        println!("source   : {source}{timing}");
    }
}

fn post_run(cli: &Cli, request: &RunRequest) -> Result<RunResult, String> {
    call(cli, &Request::new(Method::Post, "/v1/run").json(request), 200, "gateway")
}

fn print_result(result: &RunResult) {
    println!("function : {} ({})", result.function, result.language);
    println!("target   : {}", result.target);
    println!("output   : {}", result.output);
    println!(
        "timing   : mean {:.4} ms (min {:.4}, max {:.4}, stddev {:.4}) over {} trials",
        result.stats.mean_ms,
        result.stats.min_ms,
        result.stats.max_ms,
        result.stats.stddev_ms,
        result.trial_ms.len()
    );
    println!(
        "perf     : {} instructions, {} cycles, {} cache misses, {} vm exits ({})",
        result.perf.instructions,
        result.perf.cycles,
        result.perf.cache_misses,
        result.perf.vm_exits,
        if result.perf.from_hw_counters { "perf stat" } else { "custom script" },
    );
}

/// Parses `--functions fib:10,factors:360360` into campaign entries
/// (colon-separated: name, then positional arguments).
fn parse_functions(raw: &str) -> Result<Vec<CampaignFunction>, String> {
    raw.split(',')
        .map(|entry| {
            let mut parts = entry.split(':');
            let name = parts.next().filter(|n| !n.is_empty()).ok_or_else(|| {
                format!("bad --functions entry {entry:?}: want NAME[:ARG[:ARG...]]")
            })?;
            let mut function = CampaignFunction::new(name);
            function.args = parts.map(str::to_owned).collect();
            Ok(function)
        })
        .collect()
}

fn parse_list<T: std::str::FromStr>(raw: &str, what: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    raw.split(',').map(|p| p.parse().map_err(|e| format!("bad {what} {p:?}: {e}"))).collect()
}

fn campaign_submit(cli: &Cli) -> Result<(), String> {
    let flags = &cli.flags;
    let functions = parse_functions(
        flags.flag_value("--functions").ok_or("campaign submit needs --functions")?,
    )?;
    let languages = parse_list(flags.flag_value("--langs").unwrap_or("lua"), "lang")?;
    let platforms = parse_list(flags.flag_value("--tees").unwrap_or("tdx"), "tee")?;
    let modes = flags
        .flag_value("--modes")
        .unwrap_or("secure,normal")
        .split(',')
        .map(|m| match m {
            "secure" => Ok(VmKind::Secure),
            "normal" => Ok(VmKind::Normal),
            other => Err(format!("bad mode {other:?}: want secure or normal")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let priority = match flags.flag_value("--priority") {
        None | Some("normal") => Priority::Normal,
        Some("low") => Priority::Low,
        Some("high") => Priority::High,
        Some(other) => return Err(format!("bad priority {other:?}: want low, normal, or high")),
    };
    let spec = CampaignSpec {
        functions,
        languages,
        platforms,
        modes,
        trials: flags.parsed("--trials", "trials")?.unwrap_or(10),
        seed: flags.parsed("--seed", "seed")?.unwrap_or(0),
        priority,
        deadline_ms: flags.parsed("--deadline-ms", "deadline")?,
        device: device_flag(cli)?,
    };

    let request = Request::new(Method::Post, "/v1/campaigns").json(&spec);
    let receipt: CampaignReceipt = call(cli, &request, 202, "gateway")?;
    println!("campaign {} accepted: {} jobs", receipt.id, receipt.jobs);
    if cli.flags.has_flag("--wait") {
        print_campaign(&campaign_wait(cli, &receipt.id.0)?);
    }
    Ok(())
}

fn campaign_status(cli: &Cli, id: &str) -> Result<CampaignStatus, String> {
    call(cli, &Request::new(Method::Get, &format!("/v1/campaigns/{id}")), 200, "gateway")
}

fn campaign_cancel(cli: &Cli, id: &str) -> Result<(), String> {
    let request = Request::new(Method::Delete, &format!("/v1/campaigns/{id}"));
    let status: CampaignStatus = call(cli, &request, 200, "gateway")?;
    println!("campaign {id} cancelled ({} jobs never ran)", status.cancelled);
    Ok(())
}

fn campaign_wait(cli: &Cli, id: &str) -> Result<CampaignStatus, String> {
    loop {
        let status = campaign_status(cli, id)?;
        if status.is_done() {
            return Ok(status);
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

fn print_campaign(status: &CampaignStatus) {
    println!(
        "campaign {}: {} ({}/{} done — {} completed, {} failed, {} cancelled, {} expired; {} cache hits)",
        status.id,
        status.state,
        status.terminal_jobs(),
        status.total_jobs,
        status.completed,
        status.failed,
        status.cancelled,
        status.expired,
        status.cache_hits,
    );
    if status.cells.is_empty() {
        return;
    }
    println!(
        "{:<14} {:<8} {:<8} {:<7} {:>12} {:>12} {:>7}",
        "function", "lang", "tee", "mode", "mean ms", "stddev ms", "cached"
    );
    for cell in &status.cells {
        println!(
            "{:<14} {:<8} {:<8} {:<7} {:>12.4} {:>12.4} {:>7}",
            cell.cell.function.name,
            cell.cell.language.to_string(),
            cell.cell.platform.to_string(),
            cell.cell.kind.to_string(),
            cell.mean_ms,
            cell.stddev_ms,
            if cell.from_cache { "yes" } else { "no" },
        );
    }
}

fn compare(cli: &Cli, function: &str) -> Result<(), String> {
    let mut request = build_request(cli, function)?;
    println!("{:<10} {:>12} {:>12} {:>8}", "platform", "secure ms", "normal ms", "ratio");
    for platform in TeePlatform::ALL {
        request.target = VmTarget::secure(platform);
        let secure = post_run(cli, &request)?;
        request.target = VmTarget::normal(platform);
        let normal = post_run(cli, &request)?;
        println!(
            "{:<10} {:>12.4} {:>12.4} {:>7.2}x",
            platform.to_string(),
            secure.stats.mean_ms,
            normal.stats.mean_ms,
            secure.stats.mean_ms / normal.stats.mean_ms
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli_of(line: &str) -> Result<Cli, String> {
        let flags = Flags::parse(&FLAGS, line.split_whitespace().map(str::to_owned).collect())?;
        Ok(Cli { client: Client::new("127.0.0.1:1".parse().unwrap()), flags, pos: 0 })
    }

    #[test]
    fn every_flag_in_help_parses_and_bad_input_keeps_its_message() {
        let help = flags::usage(SYNOPSIS, &FLAGS);
        for (name, value, _) in FLAGS {
            assert!(help.contains(&format!("  {name} ")), "{name} missing from --help");
            let sample = if value.is_empty() { "" } else { "1" };
            let cli = cli_of(&format!("run fib {name} {sample}"))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(cli.flags.has_flag(name));
            assert_eq!(cli.flags.positionals(), ["run", "fib"], "{name} ate a positional");
        }

        let mut cli =
            cli_of("--gateway 10.0.0.1:7 run --normal fib --trials 3 --args 4,5").unwrap();
        assert_eq!(cli.next_positional().as_deref(), Some("run"));
        assert_eq!(cli.next_positional().as_deref(), Some("fib"));
        assert_eq!(cli.next_positional(), None);
        let request = build_request(&cli, "fib").unwrap();
        assert_eq!((request.trials, request.target.kind), (3, VmKind::Normal));
        assert_eq!(request.function.args, ["4", "5"]);

        let err =
            |line: &str| cli_of(line).and_then(|cli| build_request(&cli, "fib")).err().unwrap();
        assert_eq!(err("run fib --bogus 1"), "unknown argument --bogus (try --help)");
        assert_eq!(err("run fib --trials"), "--trials needs a value");
        assert!(err("run fib --trials x").starts_with("bad trials: "));
        assert!(err("run fib --seed -1").starts_with("bad seed: "));
    }
}
