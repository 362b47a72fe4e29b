//! End-to-end observability: the span tree and metrics surfaced by the
//! gateway must agree with the execution reports they describe, stay
//! deterministic under an injected clock, and survive the HTTP hop to a
//! remote host agent.

use std::sync::Arc;

use confbench::{FunctionStore, Gateway, HostAgent, ManualClock};
use confbench_fleet::{Fleet, FleetConfig};
use confbench_httpd::{Client, Method, Request, ServerConfig};
use confbench_obs::RegistrySnapshot;
use confbench_types::{
    FunctionSpec, Language, RunRequest, RunResult, TeePlatform, TraceSpan, VmTarget,
};

fn iostress(platform: TeePlatform) -> RunRequest {
    RunRequest {
        function: FunctionSpec::new("iostress", Language::Go).arg("4"),
        target: VmTarget::secure(platform),
        trials: 2,
        seed: 3,
        deadline_ms: None,
        attest_session: None,
        device: None,
    }
}

fn tdx_gateway(seed: u64) -> Gateway {
    Gateway::builder()
        .seed(seed)
        .clock(Arc::new(ManualClock::new()))
        .local_host(TeePlatform::Tdx)
        .build()
}

/// The acceptance scenario: a secure-TDX run through the gateway yields a
/// root span whose children include the SEAMCALL-class and swiotlb-class
/// spans, with attribute totals matching the run's perf report.
#[test]
fn span_tree_totals_match_the_execution_report() {
    let gw = tdx_gateway(3);
    let result = gw.run(&iostress(TeePlatform::Tdx)).unwrap();
    let trace = result.trace.as_ref().expect("gateway attaches a trace");

    assert_eq!(trace.name, "gateway.run");
    assert_eq!(trace.attr("retry_attempt"), Some(0));
    let host = trace.find("host.execute").expect("host subtree");
    assert_eq!(host.attr("trials"), Some(2));
    assert!(host.find("launcher.bootstrap").is_some(), "bootstrap span present");

    // The measured trial carries one child span per cost-event class, whose
    // totals are exactly the perf counters piggybacked on the result.
    let measured = host.find("perf.measure").expect("measured-trial span");
    let seamcalls = measured.find("tdx.seamcall").expect("SEAMCALL-class span");
    assert_eq!(seamcalls.attr("count"), Some(result.perf.vm_exits));
    assert!(seamcalls.attr("cycles").unwrap() > 0);

    let bounce = measured.find("swiotlb.copy").expect("swiotlb-class span");
    assert_eq!(bounce.attr("bytes"), Some(result.perf.bounce_bytes));
    assert!(result.perf.bounce_bytes > 0, "iostress stages I/O through the bounce buffer");
    assert!(bounce.attr("slots").unwrap() > 0);

    // Warm trials already faulted in the working set, so the measured trial
    // sees no fresh-page acceptance — the class only appears when it costs.
    assert!(measured.find("tdx.page-accept").is_none(), "warm trials pre-faulted the pages");
}

#[test]
fn span_trees_are_deterministic_across_identical_gateways() {
    let run = || {
        let gw = tdx_gateway(3);
        gw.run(&iostress(TeePlatform::Tdx)).unwrap().trace.unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed + manual clock must reproduce the exact tree");
    assert!(a.span_count() >= 5, "tree has root, host, bootstrap, measure, cost classes");
}

#[test]
fn exit_span_names_follow_the_platform() {
    for (platform, exit_span) in
        [(TeePlatform::SevSnp, "snp.ghcb-exit"), (TeePlatform::Cca, "cca.rmm-exit")]
    {
        let gw = Gateway::builder()
            .seed(3)
            .clock(Arc::new(ManualClock::new()))
            .local_host(platform)
            .build();
        let result = gw.run(&iostress(platform)).unwrap();
        let trace = result.trace.unwrap();
        let exits = trace.find(exit_span).unwrap_or_else(|| panic!("{exit_span} missing"));
        assert_eq!(exits.attr("count"), Some(result.perf.vm_exits));
    }
}

#[test]
fn remote_dispatch_round_trips_the_span_tree() {
    let store = Arc::new(FunctionStore::new());
    let agent = Arc::new(HostAgent::new(TeePlatform::Tdx, store, 3));
    let host_server = Arc::clone(&agent).serve().unwrap();
    let gw = Gateway::builder().remote_host(TeePlatform::Tdx, host_server.addr()).build();

    let result = gw.run(&iostress(TeePlatform::Tdx)).unwrap();
    let trace = result.trace.expect("trace survives serialization over the wire");
    assert_eq!(trace.name, "gateway.run");
    let measured = trace.find("perf.measure").expect("remote subtree adopted intact");
    assert_eq!(measured.find("tdx.seamcall").unwrap().attr("count"), Some(result.perf.vm_exits));
}

#[test]
fn v1_metrics_agree_with_pool_served_counts() {
    // The daemon at one shard, with two TDX hosts in the pool.
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 1,
        seed: 3,
        platforms: vec![TeePlatform::Tdx, TeePlatform::Tdx],
        ..FleetConfig::default()
    }));
    let server = fleet.serve_on("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(server.addr());

    for _ in 0..3 {
        let resp = client
            .send(&Request::new(Method::Post, "/v1/run").json(&iostress(TeePlatform::Tdx)))
            .unwrap();
        assert_eq!(resp.status, 200);
        let result: RunResult = resp.body_json().unwrap();
        let trace: TraceSpan = result.trace.expect("trace rides the REST response");
        assert_eq!(trace.name, "gateway.run");
    }

    let snap: RegistrySnapshot = client
        .send(&Request::new(Method::Get, "/v1/metrics?format=json"))
        .unwrap()
        .body_json()
        .unwrap();
    let served: u64 = fleet.gateway().served_counts(TeePlatform::Tdx).unwrap().iter().sum();
    assert_eq!(served, 3);
    assert_eq!(snap.counters.get("pool_served_total{platform=\"tdx\"}"), Some(&served));
    assert_eq!(snap.counters.get("gateway_requests_total"), Some(&3));
    assert_eq!(snap.counters.get("gateway_requests_failed_total"), Some(&0));

    // Text exposition serves the same numbers.
    let text = client.send(&Request::new(Method::Get, "/v1/metrics")).unwrap();
    let body = String::from_utf8(text.body).unwrap();
    assert!(body.contains("gateway_requests_total 3"), "{body}");
}
