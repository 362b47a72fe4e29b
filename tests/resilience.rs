//! End-to-end resilience: a gateway fronting one fault-injected remote host
//! and one healthy local host must lose zero requests, open the faulty
//! member's circuit, skip it while open, and re-admit it after cooldown.
//!
//! Everything is deterministic: faults fire on fixed connection ordinals,
//! backoff jitter comes from the gateway's seeded RNG, and circuit cooldown
//! runs on a [`ManualClock`] rather than wall time.

use std::sync::Arc;

use confbench::{
    CircuitState, FunctionStore, Gateway, HealthPolicy, HostAgent, ManualClock, RetryPolicy,
};
use confbench_httpd::{Client, Fault, FaultInjector, Method, Request, TcpRelay, Trigger};
use confbench_types::{FunctionSpec, Language, RunRequest, TeePlatform, VmTarget};

fn run_request() -> RunRequest {
    RunRequest::new(
        FunctionSpec::new("factors", Language::Go).arg("360360"),
        VmTarget::secure(TeePlatform::Tdx),
    )
}

#[test]
fn failover_opens_circuit_then_recovers_with_zero_lost_requests() {
    // A healthy host agent, fronted (socat-style) by a relay that drops the
    // first three connections — the "flaky host".
    let agent = Arc::new(HostAgent::new(TeePlatform::Tdx, Arc::new(FunctionStore::new()), 7));
    let backend = Arc::clone(&agent).serve().unwrap();
    let faults = Arc::new(FaultInjector::new().rule(Trigger::FirstN(3), Fault::DropConnection));
    let relay =
        TcpRelay::spawn_with_faults("127.0.0.1:0", backend.addr(), Arc::clone(&faults)).unwrap();

    let clock = Arc::new(ManualClock::new());
    let gateway = Gateway::builder()
        .seed(7)
        .remote_host(TeePlatform::Tdx, relay.addr()) // member 0: flaky
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
        "three dropped connections must open the flaky member's circuit"
    );
    let dropped = faults.requests_seen();
    assert_eq!(dropped, 3, "exactly the three injected drops reached the relay");

    // Phase 2: with the circuit open, checkouts skip the flaky member — the
    // relay sees no further connections.
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

    let local_gw = Arc::new(Gateway::builder().seed(3).local_host(TeePlatform::Tdx).build());
    let remote_gw = Arc::new(
        Gateway::builder().seed(3).remote_host(TeePlatform::Tdx, agent_server.addr()).build(),
    );
    let local_rest = Arc::clone(&local_gw).serve().unwrap();
    let remote_rest = Arc::clone(&remote_gw).serve().unwrap();
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
    let expected = local_gw.retry_policy().retry_after_secs().to_string();
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
    let gw = Arc::new(Gateway::builder().remote_host(TeePlatform::Tdx, dead).build());
    let rest = Arc::clone(&gw).serve().unwrap();
    let client = Client::new(rest.addr());
    let mut req = run_request();
    req.deadline_ms = Some(1);
    let resp = client.send(&Request::new(Method::Post, "/v1/run").json(&req)).unwrap();
    assert_eq!(resp.status, 504);
}
