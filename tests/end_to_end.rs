//! Cross-crate integration tests: the full ConfBench pipeline over real TCP
//! sockets — the daemon's REST API, remote host agents, function upload,
//! multi-language execution, perf piggybacking.

use std::sync::Arc;

use confbench::{FunctionStore, Gateway, HostAgent, UploadRequest};
use confbench_fleet::{Fleet, FleetConfig};
use confbench_httpd::{Client, Method, Request, ServerConfig};
use confbench_types::{
    FunctionSpec, Language, RunRequest, RunResult, TeePlatform, VmKind, VmTarget,
};

fn run_request(name: &str, language: Language, target: VmTarget, trials: u32) -> RunRequest {
    let args =
        confbench_workloads::find_workload(name).map(|w| w.default_args()).unwrap_or_default();
    let mut spec = FunctionSpec::new(name, language);
    spec.args = args;
    RunRequest {
        function: spec,
        target,
        trials,
        seed: 3,
        deadline_ms: None,
        attest_session: None,
        device: None,
    }
}

#[test]
fn gateway_rest_api_full_lifecycle() {
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 1,
        seed: 3,
        platforms: vec![TeePlatform::Tdx, TeePlatform::SevSnp],
        ..FleetConfig::default()
    }));
    let server = fleet.serve_on("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(server.addr());

    assert_eq!(client.send(&Request::new(Method::Get, "/v1/health")).unwrap().status, 200);

    // The 25 built-in functions are listed.
    let names: Vec<String> =
        client.send(&Request::new(Method::Get, "/v1/functions")).unwrap().body_json().unwrap();
    assert_eq!(names.len(), 25);

    // Upload a new one and run it in three languages on both platforms.
    let upload = Request::new(Method::Post, "/v1/functions").json(&UploadRequest {
        name: "gcd".into(),
        script: "fn gcd(a, b) { if b == 0 { return a; } return gcd(b, a % b); }
                 result(gcd(int(ARGS[0]), int(ARGS[1])));"
            .into(),
    });
    assert_eq!(client.send(&upload).unwrap().status, 201);

    for language in [Language::Lua, Language::Wasm, Language::Python] {
        for platform in [TeePlatform::Tdx, TeePlatform::SevSnp] {
            let mut req = run_request("gcd", language, VmTarget::secure(platform), 2);
            req.function.args = vec!["1071".into(), "462".into()];
            let resp = client.send(&Request::new(Method::Post, "/v1/run").json(&req)).unwrap();
            assert_eq!(resp.status, 200);
            let result: RunResult = resp.body_json().unwrap();
            assert_eq!(result.output, "21", "{language} on {platform}");
            assert_eq!(result.trial_ms.len(), 2);
            assert!(result.perf.cycles > 0);
        }
    }
}

#[test]
fn remote_hosts_dispatch_by_their_own_addresses() {
    // Host agents on their own sockets, registered with the gateway by the
    // agents' own addresses: each run reaches its platform's agent only.
    // (The paper's hosts steer to VMs with socat; here the VM lives inside
    // the agent's process, so there is no VM port to steer to.)
    let store = Arc::new(FunctionStore::new());
    let tdx_agent = Arc::new(HostAgent::new(TeePlatform::Tdx, Arc::clone(&store), 3));
    let snp_agent = Arc::new(HostAgent::new(TeePlatform::SevSnp, Arc::clone(&store), 3));
    let tdx_server = Arc::clone(&tdx_agent).serve().unwrap();
    let snp_server = Arc::clone(&snp_agent).serve().unwrap();
    let requests = |server: &confbench_httpd::Server| {
        server.metrics().counter_value("httpd_requests_total").unwrap_or(0)
    };

    let gateway = Gateway::builder()
        .remote_host(TeePlatform::Tdx, tdx_server.addr())
        .remote_host(TeePlatform::SevSnp, snp_server.addr())
        .build();

    let result = gateway
        .run(&run_request("fib", Language::LuaJit, VmTarget::secure(TeePlatform::Tdx), 2))
        .unwrap();
    assert_eq!(result.output, "2584"); // fib(18)
    assert_eq!((requests(&tdx_server), requests(&snp_server)), (1, 0));

    let result = gateway
        .run(&run_request("fib", Language::Go, VmTarget::normal(TeePlatform::SevSnp), 2))
        .unwrap();
    assert_eq!(result.output, "2584");
    assert_eq!((requests(&tdx_server), requests(&snp_server)), (1, 1));
}

#[test]
fn perf_counters_degrade_on_cca_exactly_like_the_paper() {
    let gateway = Gateway::builder().seed(1).local_host(TeePlatform::Cca).build();
    let result = gateway
        .run(&run_request("checksum", Language::Go, VmTarget::secure(TeePlatform::Cca), 1))
        .unwrap();
    // perf is unavailable inside CCA realms: the custom-script fallback
    // reports wallclock/exit data but no instruction or cache counters.
    assert!(!result.perf.from_hw_counters);
    assert_eq!(result.perf.instructions, 0);
    assert!(result.perf.cycles > 0);
}

#[test]
fn secure_and_normal_outputs_always_agree() {
    // Confidentiality must not change results: run a spread of workloads on
    // both VM kinds and compare outputs.
    let gateway = Gateway::builder().seed(9).local_host(TeePlatform::SevSnp).build();
    for name in ["factors", "primes", "mandelbrot", "json", "strings"] {
        for language in [Language::Lua, Language::Go] {
            let secure = gateway
                .run(&run_request(name, language, VmTarget::secure(TeePlatform::SevSnp), 1))
                .unwrap();
            let normal = gateway
                .run(&run_request(name, language, VmTarget::normal(TeePlatform::SevSnp), 1))
                .unwrap();
            assert_eq!(secure.output, normal.output, "{name}/{language}");
        }
    }
}

#[test]
fn trials_and_stats_are_consistent() {
    let gateway = Gateway::builder().seed(4).local_host(TeePlatform::Tdx).build();
    let result = gateway
        .run(&run_request("histogram", Language::Wasm, VmTarget::secure(TeePlatform::Tdx), 8))
        .unwrap();
    assert_eq!(result.trial_ms.len(), 8);
    assert_eq!(result.trial_cycles.len(), 8);
    let min = result.trial_ms.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = result.trial_ms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(result.stats.min_ms, min);
    assert_eq!(result.stats.max_ms, max);
    assert!(result.stats.mean_ms >= min && result.stats.mean_ms <= max);
    assert!(result.stats.stddev_ms > 0.0, "trial jitter must show up");
}

#[test]
fn vm_kind_parsing_matches_wire_format() {
    // The REST query vocabulary (kebab-case platform names) roundtrips.
    for platform in TeePlatform::ALL {
        for kind in VmKind::ALL {
            let target = VmTarget { platform, kind };
            let json = serde_json::to_string(&target).unwrap();
            let back: VmTarget = serde_json::from_str(&json).unwrap();
            assert_eq!(back, target);
        }
    }
}
