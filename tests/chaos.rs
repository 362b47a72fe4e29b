//! Seeded chaos campaigns: with the TEE fault engine armed, a full
//! multi-platform campaign must still drain to completion, the surviving
//! measurements must be byte-identical to a fault-free run (supervision is
//! invisible in the data), the whole fault schedule must replay exactly
//! under the same seed, and when a host exhausts its rebuild budget the
//! quarantine must trip the pool's circuit breaker with 503s.

use std::sync::Arc;

use confbench::{Gateway, ManualClock, RetryPolicy, TeeFaultPlan};
use confbench_fleet::{Fleet, FleetConfig};
use confbench_httpd::{Client, Method, Request, ServerConfig};
use confbench_sched::{Scheduler, SchedulerConfig};
use confbench_types::{
    CampaignFunction, CampaignSpec, CampaignState, Language, Priority, RunRequest, TeePlatform,
    VmKind, VmTarget,
};

/// 2 functions × 1 language × 3 platforms × 2 modes.
const CAMPAIGN_JOBS: usize = 12;

/// Per-mechanism fault probability for the recoverable campaigns — the
/// gateway's default `--chaos-rate`. High enough that a 12-job campaign
/// reliably sees injections, low enough that every supervised attempt
/// keeps a solid chance of finishing clean.
const CHAOS_RATE: f64 = 0.1;

fn campaign_spec() -> CampaignSpec {
    CampaignSpec {
        functions: vec![
            CampaignFunction::new("factors").arg("360360"),
            CampaignFunction::new("checksum").arg("30000"),
        ],
        languages: vec![Language::Go],
        platforms: vec![TeePlatform::Tdx, TeePlatform::SevSnp, TeePlatform::Cca],
        modes: vec![VmKind::Secure, VmKind::Normal],
        trials: 2,
        seed: 11,
        priority: Priority::Normal,
        deadline_ms: None,
        device: None,
    }
}

/// Backoffs in the supervisor and gateway are real sleeps; keep them tiny.
fn fast_retry() -> RetryPolicy {
    RetryPolicy { max_attempts: 3, base_backoff_ms: 1, max_backoff_ms: 2, jitter: false }
}

/// Boots a three-platform stack under `plan`. A rate-0 plan is the
/// fault-free control: it draws nothing.
fn boot(plan: Arc<TeeFaultPlan>, rebuild_budget: u32) -> (Arc<Gateway>, Arc<Scheduler>) {
    let gw = Arc::new(
        Gateway::builder()
            .seed(11)
            .retry(fast_retry())
            .chaos(plan)
            .rebuild_budget(rebuild_budget)
            .clock(Arc::new(ManualClock::new()))
            .local_host(TeePlatform::Tdx)
            .local_host(TeePlatform::SevSnp)
            .local_host(TeePlatform::Cca)
            .build(),
    );
    let config = SchedulerConfig {
        retry_after_secs: gw.retry_policy().retry_after_secs(),
        ..SchedulerConfig::default()
    };
    let sched = Arc::new(Scheduler::with_metrics(
        Arc::clone(&gw) as Arc<dyn confbench_sched::Executor>,
        Arc::new(ManualClock::new()),
        config,
        Arc::clone(gw.metrics()),
    ));
    (gw, sched)
}

/// Submits the standard campaign, drains it, and returns the canonical
/// byte serialization of the result cache.
fn run_campaign(sched: &Scheduler) -> Vec<u8> {
    let receipt = sched.submit(campaign_spec()).expect("campaign admitted");
    sched.drain();
    let status = sched.campaign_status(&receipt.id).expect("campaign tracked");
    assert_eq!(status.state, CampaignState::Completed, "campaign must drain: {status:?}");
    assert_eq!(status.completed, CAMPAIGN_JOBS, "every cell must complete: {status:?}");
    let snapshot = sched.result_cache().snapshot();
    assert_eq!(snapshot.len(), CAMPAIGN_JOBS, "one cached cell per job");
    serde_json::to_vec(&snapshot).expect("snapshot serializes")
}

/// The tentpole invariant: a campaign under fault injection completes, and
/// because every supervised attempt runs on a fresh VM with an
/// attempt-independent seed, the surviving measurements are byte-identical
/// to a run that never saw a fault.
#[test]
fn chaos_campaign_completes_with_results_identical_to_fault_free_run() {
    let chaos = Arc::new(TeeFaultPlan::new(41, CHAOS_RATE));
    let (_gw, chaotic_sched) = boot(Arc::clone(&chaos), u32::MAX);
    let chaotic_bytes = run_campaign(&chaotic_sched);
    assert!(chaos.injected() > 0, "a 12-job campaign at rate {CHAOS_RATE} must inject faults");

    let control = Arc::new(TeeFaultPlan::new(41, 0.0));
    let (_gw, clean_sched) = boot(Arc::clone(&control), u32::MAX);
    let clean_bytes = run_campaign(&clean_sched);
    assert_eq!(control.injected(), 0, "rate-0 control must stay fault-free");

    assert_eq!(
        chaotic_bytes, clean_bytes,
        "recovered results must be byte-identical to the fault-free campaign"
    );
}

/// The fault schedule itself is part of the deterministic surface: the same
/// chaos seed on a fresh stack replays the same injections and the same
/// recovered results.
#[test]
fn chaos_campaign_replays_exactly_under_the_same_seed() {
    let run = || {
        let plan = Arc::new(TeeFaultPlan::new(97, CHAOS_RATE));
        let (_gw, sched) = boot(Arc::clone(&plan), u32::MAX);
        let bytes = run_campaign(&sched);
        (bytes, plan.injected(), plan.fatal_injected())
    };
    let (bytes_a, injected_a, fatal_a) = run();
    let (bytes_b, injected_b, fatal_b) = run();
    assert!(injected_a > 0, "replay test needs actual injections");
    assert_eq!(injected_a, injected_b, "fault count must replay exactly");
    assert_eq!(fatal_a, fatal_b, "fatal split must replay exactly");
    assert_eq!(bytes_a, bytes_b, "recovered results must replay exactly");
}

/// When every TEE crossing faults fatally, the supervisor burns its rebuild
/// budget (the daemon's default, [`confbench::DEFAULT_REBUILD_BUDGET`]) and
/// quarantines the VM; the pool's circuit breaker then takes the host out of
/// rotation and the REST surface reports 503 throughout.
#[test]
fn exhausted_rebuild_budget_quarantines_and_trips_the_breaker() {
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 1,
        seed: 5,
        retry: fast_retry(),
        chaos: Some(Arc::new(TeeFaultPlan::new(13, 1.0).with_fatal_ratio(1.0))),
        clock: Arc::new(ManualClock::new()),
        platforms: vec![TeePlatform::Tdx],
        ..FleetConfig::default()
    }));
    let server = fleet.serve_on("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(server.addr());

    let mut function = confbench_types::FunctionSpec::new("factors", Language::Go);
    function.args = vec!["360360".into()];
    let request = RunRequest {
        function,
        target: VmTarget::secure(TeePlatform::Tdx),
        trials: 1,
        seed: 1,
        deadline_ms: None,
        attest_session: None,
        device: None,
    };

    // First request: boot faults burn the rebuild budget, the supervisor
    // quarantines, and the TEE fault surfaces as 503.
    let resp = client.send(&Request::new(Method::Post, "/v1/run").json(&request)).unwrap();
    assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));
    let body = String::from_utf8_lossy(&resp.body).into_owned();
    assert!(body.contains("tee fault"), "quarantine surfaces the terminal fault: {body}");

    // The repeated failures tripped the single member's breaker.
    assert_eq!(
        fleet.gateway().circuit_states(TeePlatform::Tdx).unwrap(),
        vec![confbench::CircuitState::Open],
        "quarantined host's circuit must open"
    );

    // With the only member open (and the manual clock frozen, so no
    // half-open probe), the pool itself refuses before any VM is touched.
    let resp = client.send(&Request::new(Method::Post, "/v1/run").json(&request)).unwrap();
    assert_eq!(resp.status, 503);
    assert!(
        String::from_utf8_lossy(&resp.body).contains("no VM available"),
        "open breaker answers from the pool: {}",
        String::from_utf8_lossy(&resp.body)
    );

    // The whole episode is visible on the metrics surface.
    let metrics = client.send(&Request::new(Method::Get, "/v1/metrics")).unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8_lossy(&metrics.body).into_owned();
    assert!(
        text.contains(r#"vm_quarantined{platform="tdx",kind="secure"} 1"#),
        "quarantine gauge exported: {text}"
    );
    let rebuilds = format!(
        r#"vm_rebuilds_total{{platform="tdx",kind="secure"}} {}"#,
        confbench::DEFAULT_REBUILD_BUDGET
    );
    assert!(text.contains(&rebuilds), "rebuild counter exported: {text}");
    assert!(text.contains(r#"vmm_faults_total{mechanism="#), "fault counters exported: {text}");
}

#[test]
#[ignore]
fn probe_supervision_overhead() {
    for seed in [41u64, 97, 7] {
        let plan = Arc::new(TeeFaultPlan::new(seed, CHAOS_RATE));
        let (gw, sched) = boot(Arc::clone(&plan), u32::MAX);
        let t0 = std::time::Instant::now();
        let _ = run_campaign(&sched);
        let chaotic = t0.elapsed();
        let rebuilds: u64 = TeePlatform::ALL
            .iter()
            .map(|p| {
                gw.metrics()
                    .counter_value(&format!(
                        "vm_rebuilds_total{{platform=\"{p}\",kind=\"secure\"}}"
                    ))
                    .unwrap_or(0)
            })
            .sum();
        let control = Arc::new(TeeFaultPlan::new(seed, 0.0));
        let (_gw2, sched2) = boot(control, u32::MAX);
        let t1 = std::time::Instant::now();
        let _ = run_campaign(&sched2);
        let clean = t1.elapsed();
        eprintln!(
            "seed {seed}: injected {} (fatal {}), rebuilds {rebuilds}, chaotic {:?}, clean {:?}",
            plan.injected(),
            plan.fatal_injected(),
            chaotic,
            clean
        );
    }
}

/// Chaos × fleet: a 3-shard fleet campaign under ambient fault injection
/// *and* a mid-run host kill still completes, and its harvested results
/// are byte-identical to the fault-free single-gateway control — chaos
/// recovery and fleet recovery compose without touching the data.
#[test]
fn fleet_chaos_campaign_with_host_kill_matches_fault_free_control() {
    let chaos = Arc::new(TeeFaultPlan::new(41, CHAOS_RATE));
    let fleet = Fleet::new(FleetConfig {
        shards: 3,
        seed: 11,
        clock: Arc::new(ManualClock::new()),
        chaos: Some(Arc::clone(&chaos)),
        retry: fast_retry(),
        ..FleetConfig::default()
    });
    let receipt = fleet.submit(campaign_spec()).expect("fleet campaign admitted");
    assert_eq!(receipt.jobs, CAMPAIGN_JOBS);

    // One pass under injection, then lose the busiest host.
    fleet.pump();
    let victim = fleet
        .status()
        .into_iter()
        .filter(|s| s.alive)
        .max_by_key(|s| s.queue_depth)
        .expect("a shard is alive")
        .shard;
    fleet.kill_shard(victim);
    fleet.drain();

    assert!(chaos.injected() > 0, "the chaotic fleet run must see injections");
    let status = fleet.campaign_status(&receipt.id).expect("campaign tracked");
    assert!(status.complete, "chaos + host kill must not lose cells: {status:?}");

    let control = Arc::new(TeeFaultPlan::new(41, 0.0));
    let (_gw, clean_sched) = boot(control, u32::MAX);
    let clean_bytes = run_campaign(&clean_sched);
    assert_eq!(
        serde_json::to_vec(&fleet.results()).expect("fleet results serialize"),
        clean_bytes,
        "fleet-under-chaos results must be byte-identical to the fault-free control"
    );
}

/// Chaos × the driver pool: a 3-shard fleet campaign under ambient fault
/// injection, driven by a pool of four drivers racing over every shard and
/// platform, harvests byte for byte what the fault-free single-gateway
/// control holds — which driver absorbed which fault leaves no trace.
#[test]
fn fleet_chaos_campaign_driven_by_a_pool_of_four_matches_fault_free_control() {
    let chaos = Arc::new(TeeFaultPlan::new(41, CHAOS_RATE));
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 3,
        seed: 11,
        clock: Arc::new(ManualClock::new()),
        chaos: Some(Arc::clone(&chaos)),
        retry: fast_retry(),
        ..FleetConfig::default()
    }));
    fleet.spawn_drivers(4).expect("drivers spawn");
    let receipt = fleet.submit(campaign_spec()).expect("fleet campaign admitted");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while !fleet.campaign_status(&receipt.id).expect("campaign tracked").complete {
        assert!(std::time::Instant::now() < deadline, "the pool did not finish in time");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    fleet.shutdown();

    assert!(chaos.injected() > 0, "the chaotic fleet run must see injections");
    let status = fleet.campaign_status(&receipt.id).expect("campaign tracked");
    assert_eq!((status.done, status.failed), (CAMPAIGN_JOBS, 0), "{status:?}");
    let (_gw, clean_sched) = boot(Arc::new(TeeFaultPlan::new(41, 0.0)), u32::MAX);
    assert_eq!(
        serde_json::to_vec(&fleet.results()).expect("fleet results serialize"),
        run_campaign(&clean_sched),
        "pool-driven results under chaos must be byte-identical to the fault-free control"
    );
}
