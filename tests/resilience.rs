//! End-to-end resilience: a gateway fronting one fault-injected remote host
//! and one healthy local host must lose zero requests, open the faulty
//! member's circuit, skip it while open, and re-admit it after cooldown.
//!
//! Everything is deterministic: faults fire on fixed request ordinals,
//! backoff jitter comes from the gateway's seeded RNG, and circuit cooldown
//! runs on a [`ManualClock`] rather than wall time.

use std::sync::Arc;

use confbench::{
    CircuitState, FunctionStore, Gateway, HealthPolicy, HostAgent, ManualClock, RetryPolicy,
};
use confbench_fleet::{Fleet, FleetConfig};
use confbench_httpd::{
    Client, Fault, FaultInjector, Method, Request, Router, Server, ServerConfig, Trigger,
};
use confbench_types::{FunctionSpec, Language, RunRequest, TeePlatform, VmTarget};

/// A one-shard fleet (the daemon at its default `--shards 1`) with local
/// hosts for `platforms` and the given remote hosts.
fn daemon(
    seed: u64,
    platforms: Vec<TeePlatform>,
    remote_hosts: Vec<(TeePlatform, std::net::SocketAddr)>,
) -> (Arc<Fleet>, Server) {
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 1,
        seed,
        platforms,
        remote_hosts,
        ..FleetConfig::default()
    }));
    let server = fleet.serve_on("127.0.0.1:0", ServerConfig::default()).unwrap();
    (fleet, server)
}

fn run_request() -> RunRequest {
    RunRequest::new(
        FunctionSpec::new("factors", Language::Go).arg("360360"),
        VmTarget::secure(TeePlatform::Tdx),
    )
}

#[test]
fn failover_opens_circuit_then_recovers_with_zero_lost_requests() {
    // A healthy host agent whose server drops its first three requests —
    // the "flaky host". Each drop closes the connection, so every request
    // the injector counts arrived on a connection of its own.
    let agent = Arc::new(HostAgent::new(TeePlatform::Tdx, Arc::new(FunctionStore::new()), 7));
    let mut router = Router::new();
    agent.add_routes(&mut router);
    let faults = Arc::new(FaultInjector::new().rule(Trigger::FirstN(3), Fault::DropConnection));
    let flaky = Server::build(router).faults(Arc::clone(&faults)).spawn("127.0.0.1:0").unwrap();

    let clock = Arc::new(ManualClock::new());
    let gateway = Gateway::builder()
        .seed(7)
        .remote_host(TeePlatform::Tdx, flaky.addr()) // member 0: flaky
        .local_host(TeePlatform::Tdx) // member 1: healthy
        .retry(RetryPolicy { max_attempts: 3, base_backoff_ms: 1, max_backoff_ms: 4, jitter: true })
        .health(HealthPolicy { failure_threshold: 3, cooldown_ms: 1_000 })
        .clock(Arc::clone(&clock) as Arc<dyn confbench::Clock>)
        .build();

    // Phase 1: every request succeeds (failover to the healthy member when
    // the flaky one drops the connection) — zero requests lost.
    let req = run_request();
    for _ in 0..6 {
        assert_eq!(gateway.run(&req).unwrap().output, "1572480");
    }
    assert_eq!(
        gateway.circuit_states(TeePlatform::Tdx).unwrap()[0],
        CircuitState::Open,
        "three dropped requests must open the flaky member's circuit"
    );
    let dropped = faults.requests_seen();
    assert_eq!(dropped, 3, "exactly the three injected drops reached the flaky member");

    // Phase 2: with the circuit open, checkouts skip the flaky member — its
    // server sees no further requests.
    for _ in 0..4 {
        assert_eq!(gateway.run(&req).unwrap().output, "1572480");
    }
    assert_eq!(
        faults.requests_seen(),
        dropped,
        "open circuit: no traffic may reach the flaky member"
    );
    assert_eq!(gateway.circuit_states(TeePlatform::Tdx).unwrap()[0], CircuitState::Open);

    // Phase 3: after the cooldown the member is probed, succeeds (its fault
    // budget is exhausted), and rejoins the rotation.
    clock.advance(1_000);
    for _ in 0..4 {
        assert_eq!(gateway.run(&req).unwrap().output, "1572480");
    }
    assert_eq!(
        gateway.circuit_states(TeePlatform::Tdx).unwrap()[0],
        CircuitState::Closed,
        "successful probe must close the circuit"
    );
    assert!(faults.requests_seen() > dropped, "recovered member must be serving traffic again");

    // Bookkeeping: every checkout completed (nothing in flight, nothing
    // lost) and both members served requests.
    assert_eq!(gateway.run(&req).unwrap().output, "1572480");
    let served = gateway.served_counts(TeePlatform::Tdx).unwrap();
    assert_eq!(served.len(), 2);
    assert!(served.iter().all(|&s| s > 0), "both members served: {served:?}");
}

#[test]
fn remote_and_local_hosts_return_identical_rest_statuses() {
    // Same store contents (empty beyond built-ins) on both sides; the only
    // difference is dispatch transport. REST status codes must not differ.
    let agent = Arc::new(HostAgent::new(TeePlatform::Tdx, Arc::new(FunctionStore::new()), 3));
    let agent_server = Arc::clone(&agent).serve().unwrap();

    let (local_fleet, local_rest) = daemon(3, vec![TeePlatform::Tdx], vec![]);
    let (_remote_fleet, remote_rest) =
        daemon(3, vec![], vec![(TeePlatform::Tdx, agent_server.addr())]);
    let local = Client::new(local_rest.addr());
    let remote = Client::new(remote_rest.addr());

    // Unknown function: 404 through both paths (a remote host used to leak
    // its application error as a generic 500 → Transport).
    let mut unknown = run_request();
    unknown.function.name = "no-such-function".into();
    let body = Request::new(Method::Post, "/v1/run").json(&unknown);
    let (l, r) = (local.send(&body).unwrap(), remote.send(&body).unwrap());
    assert_eq!(l.status, 404);
    assert_eq!(r.status, l.status, "remote/local unknown-function parity");

    // No VM for the platform: 503 through both paths, each carrying a
    // Retry-After hint derived from the gateway's backoff policy.
    let mut no_vm = run_request();
    no_vm.target = VmTarget::secure(TeePlatform::Cca);
    let body = Request::new(Method::Post, "/v1/run").json(&no_vm);
    let (l, r) = (local.send(&body).unwrap(), remote.send(&body).unwrap());
    assert_eq!(l.status, 503);
    assert_eq!(r.status, l.status, "remote/local no-VM parity");
    let expected = local_fleet.gateway().retry_policy().retry_after_secs().to_string();
    for resp in [&l, &r] {
        assert_eq!(
            resp.headers.get("retry-after"),
            Some(&expected),
            "503 must carry Retry-After from the backoff policy"
        );
    }
}

#[test]
fn expired_deadline_maps_to_504_over_rest() {
    // A pool whose only member is unreachable: with a 1 ms budget the
    // gateway must answer 504 (deadline) rather than hang or 500. (A 0 ms
    // budget is spent before it starts: a malformed request, 400.)
    let dead: std::net::SocketAddr = "127.0.0.1:1".parse().unwrap();
    let (_fleet, rest) = daemon(0, vec![], vec![(TeePlatform::Tdx, dead)]);
    let client = Client::new(rest.addr());
    let mut req = run_request();
    req.deadline_ms = Some(1);
    let resp = client.send(&Request::new(Method::Post, "/v1/run").json(&req)).unwrap();
    assert_eq!(resp.status, 504);
}
