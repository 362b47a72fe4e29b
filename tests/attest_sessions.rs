//! Attestation sessions end to end: warm sessions must skip the PCS
//! entirely, a cold rush must collapse into one collateral round trip,
//! every invalidation path (TTL, revoke, e-vTPM extend, TCB watermark)
//! must force re-verification, supervisor rebuilds under chaos must reuse
//! live sessions without perturbing the measurements, and the `/v1/attest`
//! resource must answer over HTTP.

use std::sync::{Arc, Barrier};

use confbench::{AttestConfig, Gateway, ManualClock, RetryPolicy, TeeFaultPlan};
use confbench_attest::SessionSource;
use confbench_fleet::{Fleet, FleetConfig};
use confbench_httpd::{Client, Method, Request, ServerConfig};
use confbench_types::{
    Error, FunctionSpec, Language, RunRequest, RunResult, TeePlatform, VmTarget,
};

fn attest_gateway(seed: u64, clock: &Arc<ManualClock>, ttl_ms: u64) -> Arc<Gateway> {
    Arc::new(
        Gateway::builder()
            .seed(seed)
            .clock(Arc::clone(clock) as Arc<dyn confbench_types::Clock>)
            .attest(AttestConfig { ttl_ms, capacity: 64 })
            .local_host(TeePlatform::Tdx)
            .build(),
    )
}

fn run_request(platform: TeePlatform) -> RunRequest {
    RunRequest {
        function: FunctionSpec::new("factors", Language::Lua).arg("360360"),
        target: VmTarget::secure(platform),
        trials: 2,
        seed: 3,
        deadline_ms: None,
        attest_session: None,
        device: None,
    }
}

/// The headline property (paper Fig. 5, fleet-amortized row): once a
/// session is live, verification is one cache lookup — zero network
/// milliseconds, zero new PCS requests — and a `RunRequest` riding the
/// token dispatches without re-verifying.
#[test]
fn warm_sessions_skip_the_pcs_entirely() {
    let clock = Arc::new(ManualClock::new());
    let gw = attest_gateway(7, &clock, 60_000);
    let svc = gw.attest();

    let cold = svc.open_session(TeePlatform::Tdx, None).unwrap();
    assert_eq!(cold.source, SessionSource::Verified);
    let pcs_after_cold = svc.tdx().pcs().requests();
    assert!(pcs_after_cold > 0, "cold verification fetched collateral");

    for _ in 0..5 {
        let warm = svc.open_session(TeePlatform::Tdx, None).unwrap();
        assert_eq!(warm.source, SessionSource::CacheHit);
        assert_eq!(warm.session.id, cold.session.id);
        assert_eq!(warm.timing.network_ms, 0.0, "cache hits never touch the network");
        assert!(warm.timing.latency_ms < cold.timing.latency_ms / 10.0, "lookup, not crypto");
    }
    assert_eq!(svc.tdx().pcs().requests(), pcs_after_cold, "no PCS traffic after the first");

    // A live token gates dispatch for free; an unknown one is rejected.
    let mut req = run_request(TeePlatform::Tdx);
    req.attest_session = Some(cold.session.id.clone());
    let gated = gw.run(&req).unwrap();
    assert_eq!(svc.tdx().pcs().requests(), pcs_after_cold, "dispatch rode the live session");
    let trace = gated.trace.expect("a run answers with its span tree");
    let verify = trace.find("attest.verify").expect("the gate is spanned in the request trace");
    assert_eq!(verify.attrs.get("session_cached"), Some(&1));
    req.attest_session = Some("as-bogus".into());
    let err = gw.run(&req).unwrap_err();
    assert!(matches!(err, Error::InvalidRequest(_)), "got {err}");
}

/// 32 threads race a cold session cache: single-flight elects exactly one
/// verification leader, and the whole rush costs exactly one PCS
/// collateral round trip (TCB info + PCK CRL + root CRL = 3 requests).
#[test]
fn cold_rush_of_32_costs_one_pcs_round_trip() {
    let clock = Arc::new(ManualClock::new());
    let gw = attest_gateway(5, &clock, 60_000);
    let svc = gw.attest();
    // Steady-state: the background refresher has the collateral warm
    // before traffic arrives (PR goal — the hot path never blocks on PCS).
    svc.refresher().tick();
    assert_eq!(svc.tdx().pcs().requests(), 3, "one refresh = one collateral cycle");

    let barrier = Arc::new(Barrier::new(32));
    let outcomes: Vec<_> = (0..32)
        .map(|_| {
            let gw = Arc::clone(&gw);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                gw.attest().open_session(TeePlatform::Tdx, None).unwrap()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    let mut ids: Vec<_> = outcomes.iter().map(|o| o.session.id.clone()).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 1, "every thread landed on the same session");
    let verified = outcomes.iter().filter(|o| o.source == SessionSource::Verified).count();
    assert_eq!(verified, 1, "single-flight elected exactly one leader");
    assert_eq!(svc.tdx().pcs().requests(), 3, "the rush added zero PCS requests");
    assert_eq!(svc.tdx().collateral_fetches(), 1, "exactly one collateral round trip total");
    assert_eq!(svc.cache().stats().misses, 1, "one verification for 32 callers");
}

/// Every invalidation path forces a full re-verification: TTL expiry,
/// explicit revocation, an e-vTPM runtime extend, and a TCB watermark
/// raise each kill the session, and the next open mints a fresh one.
#[test]
fn ttl_revoke_extend_and_tcb_watermark_each_invalidate() {
    let clock = Arc::new(ManualClock::new());
    let gw = attest_gateway(9, &clock, 10_000);
    let svc = gw.attest();

    // TTL: live until the clock passes expiry.
    let first = svc.open_session(TeePlatform::Tdx, None).unwrap().session;
    clock.advance(10_000);
    assert_eq!(svc.session(&first.id).unwrap().state.as_str(), "expired");
    let second = svc.open_session(TeePlatform::Tdx, None).unwrap();
    assert_eq!(second.source, SessionSource::Verified);
    assert_ne!(second.session.id, first.id);

    // Revoke: the token dies immediately.
    let revoked = svc.revoke(&second.session.id).unwrap();
    assert_eq!(revoked.state.as_str(), "revoked");
    let third = svc.open_session(TeePlatform::Tdx, None).unwrap();
    assert_eq!(third.source, SessionSource::Verified);

    // Runtime extend: the workload measured new state, changing the
    // fleet's runtime identity; re-verification tracks the new bank.
    let extended = svc.extend(&third.session.id, 1, b"policy-update").unwrap().unwrap();
    assert_eq!(extended.state.as_str(), "extended");
    let fourth = svc.open_session(TeePlatform::Tdx, None).unwrap();
    assert_eq!(fourth.source, SessionSource::Verified);
    assert_eq!(fourth.session.identity.runtime_digest, extended.identity.runtime_digest);
    assert_ne!(fourth.session.identity.runtime_digest, third.session.identity.runtime_digest);

    // TCB watermark: Intel raises the required TCB; the refresher feeds it
    // to the cache and the old session goes stale. The fleet patches to
    // the new level and re-verifies cleanly.
    svc.tdx().pcs().set_current_tcb(99);
    svc.tdx().patch_platform_tcb(99);
    svc.refresher().force().unwrap();
    assert_eq!(svc.session(&fourth.session.id).unwrap().state.as_str(), "tcb-stale");
    let fifth = svc.open_session(TeePlatform::Tdx, None).unwrap();
    assert_eq!(fifth.source, SessionSource::Verified);
    assert_eq!(fifth.session.identity.tcb_level, 99);
}

/// Under chaos, supervisor rebuilds re-attest through the shared session
/// cache — a rebuild storm reuses the live session instead of hammering
/// the PCS — and the surviving measurements stay byte-identical to a
/// fault-free control run.
#[test]
fn supervisor_rebuilds_reuse_sessions_and_stay_byte_identical() {
    let retry =
        RetryPolicy { max_attempts: 3, base_backoff_ms: 1, max_backoff_ms: 2, jitter: false };
    let build = |plan: Arc<TeeFaultPlan>| {
        Arc::new(
            Gateway::builder()
                .seed(11)
                .retry(retry)
                .chaos(plan)
                .rebuild_budget(50)
                .clock(Arc::new(ManualClock::new()))
                .attest(AttestConfig { ttl_ms: 600_000, capacity: 64 })
                .local_host(TeePlatform::Tdx)
                .build(),
        )
    };
    let control = build(Arc::new(TeeFaultPlan::new(17, 0.0)));
    let chaotic = build(Arc::new(TeeFaultPlan::new(17, 0.15)));

    let strip = |mut r: RunResult| {
        r.trace = None; // recovery is visible in spans, never in the data
        r
    };
    let mut rebuilds_seen = false;
    for arg in ["360360", "720720", "30030", "510510", "9699690"] {
        let mut req = run_request(TeePlatform::Tdx);
        req.function = FunctionSpec::new("factors", Language::Lua).arg(arg);
        let clean = strip(control.run(&req).unwrap());
        let survived = strip(chaotic.run(&req).unwrap());
        assert_eq!(clean, survived, "supervision must be invisible in the measurements");
        rebuilds_seen = chaotic.attest().cache().stats().hits > 0;
    }
    let pcs = chaotic.attest().tdx().pcs().requests();
    assert!(
        pcs <= 3,
        "rebuild storm re-used the live session instead of re-fetching collateral (got {pcs})"
    );
    assert!(rebuilds_seen, "chaos at 0.15 produced at least one supervised re-attestation");
}

/// The `/v1/attest` resource over real HTTP: create (201), status, extend,
/// revoke, and 404s for unknown ids.
#[test]
fn attest_routes_over_http() {
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 1,
        seed: 3,
        clock: Arc::new(ManualClock::new()),
        attest: AttestConfig { ttl_ms: 60_000, capacity: 64 },
        platforms: vec![TeePlatform::Tdx],
        ..FleetConfig::default()
    }));
    let server = fleet.serve_on("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(server.addr());

    // Create: 201 + the verification's timing on the wire.
    let resp = client
        .send(
            &Request::new(Method::Post, "/v1/attest/sessions")
                .json(&confbench::AttestSessionRequest { platform: TeePlatform::Tdx, nonce: None }),
        )
        .unwrap();
    assert_eq!(resp.status, 201);
    let created: confbench::AttestSessionInfo = resp.body_json().unwrap();
    assert_eq!(created.state, "live");
    assert_eq!(created.source.as_deref(), Some("verified"));
    // The opportunistic collateral refresh ran ahead of the verification,
    // so even the cold path stayed off the PCS (one refresh cycle total).
    assert_eq!(created.network_ms.unwrap(), 0.0);
    assert_eq!(fleet.attest().tdx().pcs().requests(), 3);

    // Status.
    let resp = client
        .send(&Request::new(Method::Get, &format!("/v1/attest/sessions/{}", created.id)))
        .unwrap();
    assert_eq!(resp.status, 200);
    let status: confbench::AttestSessionInfo = resp.body_json().unwrap();
    assert_eq!(status.id, created.id);
    assert!(status.source.is_none(), "status reads carry no verification timing");

    // Extend: session flips to `extended` with a new runtime digest.
    let resp = client
        .send(
            &Request::new(Method::Post, &format!("/v1/attest/sessions/{}/extend", created.id))
                .json(&confbench::ExtendRequest { index: 0, data: "layer".into() }),
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    let extended: confbench::AttestSessionInfo = resp.body_json().unwrap();
    assert_eq!(extended.state, "extended");
    assert_ne!(extended.runtime_digest, created.runtime_digest);

    // Out-of-range register: caller's fault.
    let resp = client
        .send(
            &Request::new(Method::Post, &format!("/v1/attest/sessions/{}/extend", created.id))
                .json(&confbench::ExtendRequest { index: 99, data: "x".into() }),
        )
        .unwrap();
    assert_eq!(resp.status, 400);

    // Revoke, then 404 for unknown ids on every route.
    let resp = client
        .send(&Request::new(Method::Delete, &format!("/v1/attest/sessions/{}", created.id)))
        .unwrap();
    assert_eq!(resp.status, 200);
    for req in [
        Request::new(Method::Get, "/v1/attest/sessions/as-none"),
        Request::new(Method::Delete, "/v1/attest/sessions/as-none"),
        Request::new(Method::Post, "/v1/attest/sessions/as-none/extend")
            .json(&confbench::ExtendRequest { index: 0, data: "x".into() }),
    ] {
        assert_eq!(client.send(&req).unwrap().status, 404, "{}", req.path);
    }
}
