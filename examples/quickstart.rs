//! Quickstart: the paper's Fig. 2 flow, end to end, over real HTTP.
//!
//! 1. boot the daemon's gateway (a one-shard fleet) with local TEE hosts
//!    for all three platforms;
//! 2. upload a user function (CBScript source) via `POST /v1/functions`;
//! 3. run it on secure and normal VMs of each platform via `POST /v1/run`;
//! 4. read back timing + perf counters.
//!
//! Run with: `cargo run --example quickstart`

use std::error::Error;
use std::sync::Arc;

use confbench::UploadRequest;
use confbench_fleet::{Fleet, FleetConfig};
use confbench_httpd::{Client, Method, Request, ServerConfig};
use confbench_types::{FunctionSpec, Language, RunRequest, RunResult, TeePlatform, VmTarget};

fn main() -> Result<(), Box<dyn Error>> {
    // A gateway with one TEE-enabled host per platform (paper §III-A),
    // served by the daemon's router, as `confbench-gateway --seed 42` does.
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 1,
        seed: 42,
        platforms: TeePlatform::ALL.to_vec(),
        ..FleetConfig::default()
    }));
    let server = fleet.serve_on("127.0.0.1:0", ServerConfig::default())?;
    let client = Client::new(server.addr());
    println!("gateway listening on http://{}\n", server.addr());

    // Step 1: upload a function.
    let upload = Request::new(Method::Post, "/v1/functions").json(&UploadRequest {
        name: "collatz_steps".into(),
        script: r#"
            let n = int(ARGS[0]);
            let steps = 0;
            while n != 1 {
                if n % 2 == 0 { n = n / 2; } else { n = 3 * n + 1; }
                steps = steps + 1;
            }
            result(steps);
        "#
        .into(),
    });
    let resp = client.send(&upload)?;
    assert_eq!(resp.status, 201, "upload failed: {}", String::from_utf8_lossy(&resp.body));
    println!("uploaded function 'collatz_steps'");

    // Steps 2-5: run it everywhere and compare.
    println!(
        "\n{:<10} {:>10} {:>12} {:>12} {:>7}",
        "platform", "output", "secure ms", "normal ms", "ratio"
    );
    for platform in TeePlatform::ALL {
        let mut results = Vec::new();
        for target in VmTarget::pair(platform) {
            let request = RunRequest {
                function: FunctionSpec::new("collatz_steps", Language::Lua).arg("27"),
                target,
                trials: 5,
                seed: 42,
                deadline_ms: None,
                attest_session: None,
                device: None,
            };
            let resp = client.send(&Request::new(Method::Post, "/v1/run").json(&request))?;
            assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
            let result: RunResult = resp.body_json()?;
            results.push(result);
        }
        let (secure, normal) = (&results[0], &results[1]);
        println!(
            "{:<10} {:>10} {:>12.4} {:>12.4} {:>6.2}x",
            platform.to_string(),
            secure.output,
            secure.stats.mean_ms,
            normal.stats.mean_ms,
            secure.stats.mean_ms / normal.stats.mean_ms
        );
        assert_eq!(secure.output, "111"); // collatz(27) = 111 steps
    }

    println!("\nperf counters ride along with each result (paper §III-B):");
    let request = RunRequest {
        function: FunctionSpec::new("collatz_steps", Language::Lua).arg("27"),
        target: VmTarget::secure(TeePlatform::Tdx),
        trials: 1,
        seed: 42,
        deadline_ms: None,
        attest_session: None,
        device: None,
    };
    let result: RunResult =
        client.send(&Request::new(Method::Post, "/v1/run").json(&request))?.body_json()?;
    println!(
        "  instructions={} cycles={} cache-misses={} vm-exits={} (hw counters: {})",
        result.perf.instructions,
        result.perf.cycles,
        result.perf.cache_misses,
        result.perf.vm_exits,
        result.perf.from_hw_counters
    );
    Ok(())
}
