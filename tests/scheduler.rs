//! End-to-end campaign scheduling on the daemon's router (a one-shard
//! fleet): a multi-platform campaign submitted over
//! `POST /v1/campaigns` must drain deterministically under `ManualClock`,
//! polling must be monotone while partial, identical resubmission must be
//! served entirely from the content-addressed result cache, a full queue
//! must answer 429 with `Retry-After`, and cancellation must keep queued
//! jobs away from the VMs.

use std::collections::BTreeMap;
use std::sync::Arc;

use confbench::ManualClock;
use confbench_fleet::{Fleet, FleetConfig};
use confbench_httpd::{Client, Method, Request, Server, ServerConfig};
use confbench_sched::CachedCell;
use confbench_types::{
    CampaignFunction, CampaignReceipt, CampaignSpec, CampaignState, CampaignStatus, JobState,
    JobStatus, Language, Priority, TeePlatform, VmKind,
};

/// The standard matrix: 2 functions × 2 languages × 2 platforms × 2 modes.
const MATRIX_JOBS: usize = 16;

fn matrix_spec() -> CampaignSpec {
    CampaignSpec {
        functions: vec![
            CampaignFunction::new("factors").arg("360360"),
            CampaignFunction::new("checksum").arg("30000"),
        ],
        languages: vec![Language::Go, Language::Lua],
        platforms: vec![TeePlatform::Tdx, TeePlatform::SevSnp],
        modes: vec![VmKind::Secure, VmKind::Normal],
        trials: 3,
        seed: 11,
        priority: Priority::Normal,
        deadline_ms: None,
        device: None,
    }
}

/// Boots a one-shard fleet — the gateway — with TDX and SEV-SNP hosts under
/// a manual clock, served over HTTP.
fn boot(queue_capacity: usize) -> (Server, Client, Arc<Fleet>) {
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 1,
        seed: 11,
        clock: Arc::new(ManualClock::new()),
        platforms: vec![TeePlatform::Tdx, TeePlatform::SevSnp],
        queue_capacity,
        ..FleetConfig::default()
    }));
    let server = fleet.serve_on("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = Client::new(server.addr());
    (server, client, fleet)
}

/// Shard 0's result cache, by content address.
fn results(fleet: &Fleet) -> BTreeMap<String, CachedCell> {
    fleet.scheduler().result_cache().snapshot()
}

/// Runs the fleet's driver threads until the campaign is done.
fn drive(fleet: &Arc<Fleet>, receipt: &CampaignReceipt, drivers: usize) -> CampaignStatus {
    fleet.spawn_drivers(drivers).expect("drivers spawn");
    while !fleet.scheduler().campaign_status(&receipt.id).unwrap().is_done() {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    fleet.shutdown();
    fleet.scheduler().campaign_status(&receipt.id).unwrap()
}

fn submit(client: &Client, spec: &CampaignSpec) -> CampaignReceipt {
    let resp = client.send(&Request::new(Method::Post, "/v1/campaigns").json(spec)).unwrap();
    assert_eq!(resp.status, 202, "{}", String::from_utf8_lossy(&resp.body));
    resp.body_json().unwrap()
}

fn poll(client: &Client, receipt: &CampaignReceipt) -> CampaignStatus {
    let resp =
        client.send(&Request::new(Method::Get, &format!("/v1/campaigns/{}", receipt.id))).unwrap();
    assert_eq!(resp.status, 200);
    resp.body_json().unwrap()
}

/// Steps the fleet to completion one pass at a time, polling over REST
/// between passes and asserting the observed status only ever moves forward.
fn drain_with_monotone_polling(
    client: &Client,
    fleet: &Fleet,
    receipt: &CampaignReceipt,
) -> CampaignStatus {
    let mut status = poll(client, receipt);
    assert_eq!(status.state, CampaignState::Active);
    while !status.is_done() {
        let progressed = fleet.pump();
        assert!(progressed, "active campaign must have queued work");
        let next = poll(client, receipt);
        assert!(next.terminal_jobs() >= status.terminal_jobs(), "terminal count regressed");
        assert!(next.cells.len() >= status.cells.len(), "summaries disappeared");
        assert_eq!(next.total_jobs, status.total_jobs);
        status = next;
    }
    status
}

#[test]
fn campaign_over_rest_drains_deterministically() {
    let (_server, client, fleet) = boot(64);
    let receipt = submit(&client, &matrix_spec());
    assert_eq!(receipt.jobs, MATRIX_JOBS);

    let status = drain_with_monotone_polling(&client, &fleet, &receipt);
    assert_eq!(status.state, CampaignState::Completed);
    assert_eq!(status.completed, MATRIX_JOBS);
    assert_eq!(status.cache_hits, 0, "cold pass runs every cell");
    assert_eq!(status.cells.len(), MATRIX_JOBS);
    for cell in &status.cells {
        assert!(!cell.from_cache);
        assert!(cell.mean_ms > 0.0);
        assert!(!cell.output.is_empty());
        assert_eq!(cell.cache_key.len(), 64, "sha-256 hex key: {}", cell.cache_key);
    }

    // Per-job drill-down carries the adopted span tree.
    let job = &status.cells[0].job;
    let resp = client.send(&Request::new(Method::Get, &format!("/v1/jobs/{job}"))).unwrap();
    assert_eq!(resp.status, 200);
    let job: JobStatus = resp.body_json().unwrap();
    assert_eq!(job.state, JobState::Completed);
    let trace = job.trace.expect("executed jobs carry a trace");
    assert_eq!(trace.name, "sched.execute");
    assert!(trace.find("sched.enqueue").is_some(), "queue-wait span adopted");
    assert!(trace.find("gateway.run").is_some(), "gateway subtree adopted");
}

#[test]
fn identical_resubmission_is_served_entirely_from_cache() {
    let (_server, client, fleet) = boot(64);

    let first = submit(&client, &matrix_spec());
    let cold = drain_with_monotone_polling(&client, &fleet, &first);
    let runs_after_cold = fleet.shard_metrics(0).counter_value("gateway_requests_total").unwrap();
    assert_eq!(runs_after_cold, MATRIX_JOBS as u64);

    let second = submit(&client, &matrix_spec());
    assert_ne!(second.id, first.id, "resubmission gets a fresh campaign id");
    let warm = drain_with_monotone_polling(&client, &fleet, &second);

    assert_eq!(warm.completed, MATRIX_JOBS);
    assert_eq!(warm.cache_hits, MATRIX_JOBS, "every cell memoized");
    assert!(warm.cells.iter().all(|c| c.from_cache));
    assert_eq!(
        fleet.shard_metrics(0).counter_value("sched_cache_hits_total"),
        Some(MATRIX_JOBS as u64),
        "cache-hit counter equals the cell count"
    );
    assert_eq!(
        fleet.shard_metrics(0).counter_value("gateway_requests_total"),
        Some(runs_after_cold),
        "memoized pass never touches the gateway"
    );

    // The memoized summaries reproduce the cold measurements exactly.
    for (a, b) in cold.cells.iter().zip(&warm.cells) {
        assert_eq!(a.cell, b.cell);
        assert_eq!(a.cache_key, b.cache_key);
        assert_eq!(a.mean_ms.to_bits(), b.mean_ms.to_bits());
        assert_eq!(a.median_ms.to_bits(), b.median_ms.to_bits());
        assert_eq!(a.min_ms.to_bits(), b.min_ms.to_bits());
        assert_eq!(a.max_ms.to_bits(), b.max_ms.to_bits());
        assert_eq!(a.stddev_ms.to_bits(), b.stddev_ms.to_bits());
        assert_eq!(a.output, b.output);
    }
}

/// Determinism across independent instances: the same spec + seed on two
/// freshly booted stacks yields byte-identical per-cell summaries.
#[test]
fn replay_on_a_fresh_instance_is_byte_identical() {
    let run = || {
        let (_server, client, fleet) = boot(64);
        let receipt = submit(&client, &matrix_spec());
        fleet.drain();
        serde_json::to_string(&poll(&client, &receipt).cells).unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "replayed campaign summaries must be byte-identical");
}

#[test]
fn queue_full_answers_429_with_retry_after() {
    let (_server, client, fleet) = boot(MATRIX_JOBS + 2);
    submit(&client, &matrix_spec());

    // Two slots left: a whole matrix cannot be admitted, and admission is
    // all-or-nothing — not even two of its cells may sneak in.
    let resp =
        client.send(&Request::new(Method::Post, "/v1/campaigns").json(&matrix_spec())).unwrap();
    assert_eq!(resp.status, 429);
    assert_eq!(
        resp.headers.get("retry-after").map(String::as_str),
        Some(fleet.gateway().retry_policy().retry_after_secs().to_string().as_str()),
        "Retry-After derives from the gateway's backoff policy"
    );
    assert!(String::from_utf8_lossy(&resp.body).contains("queue full"));
    assert_eq!(
        fleet.scheduler().queue_depth(),
        MATRIX_JOBS,
        "rejected campaign left no partial admission"
    );

    // Draining frees capacity; the same spec is then accepted.
    fleet.drain();
    let receipt = submit(&client, &matrix_spec());
    assert_eq!(receipt.jobs, MATRIX_JOBS);
}

#[test]
fn cancellation_keeps_queued_jobs_off_the_vms() {
    let (_server, client, fleet) = boot(64);
    let receipt = submit(&client, &matrix_spec());

    let resp = client
        .send(&Request::new(Method::Delete, &format!("/v1/campaigns/{}", receipt.id)))
        .unwrap();
    assert_eq!(resp.status, 200);
    let status: CampaignStatus = resp.body_json().unwrap();
    assert_eq!(status.state, CampaignState::Cancelled);
    assert_eq!(status.cancelled, MATRIX_JOBS);

    // Even after the drivers run, no cancelled job reaches a VM.
    fleet.drain();
    assert_eq!(
        fleet.shard_metrics(0).counter_value("gateway_requests_total").unwrap_or(0),
        0,
        "cancelled jobs never dispatched"
    );
    let status = poll(&client, &receipt);
    assert_eq!(status.completed, 0);
    assert_eq!(status.cells.len(), 0);
}

/// Cells are content-seeded, so neither the order they run in nor how many
/// driver threads run them can show in a result: whatever the axis order of
/// the spec and the driver count, the result cache ends up byte-identical to
/// the single-threaded drain's.
/// A fleet of `shards` with hosts for every platform, under a manual clock.
fn fleet_of(shards: usize) -> Arc<Fleet> {
    Arc::new(Fleet::new(FleetConfig {
        shards,
        seed: 11,
        clock: Arc::new(ManualClock::new()),
        ..FleetConfig::default()
    }))
}

/// Which driver of a pool runs a cell, in which order, on which shard,
/// leaves no trace: a TDX + SEV-SNP + CCA campaign, its axes reordered,
/// driven by pools of 1, 2 and 4 on one shard and on three, harvests what
/// one shard drained on the test's own thread holds, byte for byte.
#[test]
fn execution_order_and_worker_count_leave_no_trace_in_the_results() {
    let spec = CampaignSpec { platforms: TeePlatform::ALL.to_vec(), ..matrix_spec() };
    let control = fleet_of(1);
    control.scheduler().submit(spec.clone()).unwrap();
    control.drain();
    let single_threaded = serde_json::to_string(&results(&control)).unwrap();

    for shards in [1, 3] {
        for drivers in [1, 2, 4] {
            let mut spec = spec.clone();
            spec.functions.rotate_left(drivers % 2);
            spec.languages.reverse();
            spec.platforms.rotate_left(drivers / 2 + shards / 3);
            spec.modes.rotate_left(drivers / 2 % 2);
            let fleet = fleet_of(shards);
            let receipt = fleet.submit(spec).unwrap();
            fleet.spawn_drivers(drivers).expect("drivers spawn");
            while !fleet.campaign_status(&receipt.id).unwrap().complete {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            fleet.shutdown();
            let results = serde_json::to_string(&fleet.results()).unwrap();
            assert_eq!(results, single_threaded, "{shards} shard(s), a pool of {drivers}");
        }
    }
}

/// The cache-walk memo rides the fleet's function store and reads no seed:
/// once the matrix has run under one seed, the same matrix under another
/// walks nothing — and nothing tells. Its cells share no content address
/// with the warming campaign's, so they all execute, and the result cache
/// holds for them what a fresh gateway's holds, whatever the driver count.
#[test]
fn a_gateway_warmed_under_another_seed_leaves_the_results_a_fresh_one_leaves() {
    let (_server, _client, fleet) = boot(64);
    fleet.scheduler().submit(matrix_spec()).unwrap();
    fleet.drain();
    let fresh = results(&fleet);

    for drivers in [1, 2, 4] {
        let (_server, _client, fleet) = boot(64);
        fleet.scheduler().submit(CampaignSpec { seed: 12, ..matrix_spec() }).unwrap();
        fleet.drain();
        let walks =
            |name: &str| fleet.shard_metrics(0).counter_value(&format!("walk_memo_{name}_total"));
        let (hits, walked) = (walks("hits").unwrap(), walks("misses").unwrap());
        assert!(walked > 0 && hits > 0, "warming walked {walked} trials, was credited {hits}");

        let receipt = fleet.scheduler().submit(matrix_spec()).unwrap();
        let status = drive(&fleet, &receipt, drivers);
        assert_eq!((status.completed, status.cache_hits), (MATRIX_JOBS, 0), "all executed");
        let mut warmed = results(&fleet);
        warmed.retain(|key, _| fresh.contains_key(key));
        assert_eq!(warmed, fresh, "a pool of {drivers}");
        // A bootstrap and three trials a cell, every one of them on credit.
        assert_eq!(walks("misses"), Some(walked), "{drivers} driver(s): nothing walked");
        assert_eq!(walks("hits"), Some(hits + 4 * MATRIX_JOBS as u64));
    }
}

/// Arguments small enough for a debug build, one row per built-in.
const TINY_ARGS: [(&str, &[&str]); 25] = [
    ("cpustress", &["800"]),
    ("memstress", &["2"]),
    ("iostress", &["1"]),
    ("logging", &["15"]),
    ("factors", &["360"]),
    ("filesystem", &["1"]),
    ("ack", &["2", "3"]),
    ("fib", &["8"]),
    ("primes", &["400"]),
    ("matrix", &["4"]),
    ("quicksort", &["60"]),
    ("mergesort", &["60"]),
    ("base64", &["150"]),
    ("json", &["4"]),
    ("checksum", &["400"]),
    ("compress", &["400"]),
    ("mandelbrot", &["4"]),
    ("nbody", &["20"]),
    ("binarytrees", &["4"]),
    ("spectralnorm", &["4", "1"]),
    ("dijkstra", &["4"]),
    ("wordcount", &["400"]),
    ("histogram", &["400"]),
    ("montecarlo", &["300"]),
    ("strings", &["40"]),
];

/// The shape of the paper's Fig. 6 on one platform — 25 functions × 7
/// languages × {secure, normal} — launches each function × language once,
/// and executes each function once per engine (tree-walker, stack VM,
/// native): 75 executions serve the 175 launches. The sibling languages of
/// an engine, the second VM kind, and every cell of every later campaign
/// are served from the store's launch memo, whatever the campaign seed.
#[test]
fn a_fig6_shaped_campaign_launches_each_function_once_per_language() {
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 1,
        seed: 13,
        clock: Arc::new(ManualClock::new()),
        platforms: vec![TeePlatform::Tdx],
        ..FleetConfig::default()
    }));
    let server = fleet.serve_on("127.0.0.1:0", ServerConfig::default()).unwrap();
    let spec = |seed| CampaignSpec {
        functions: TINY_ARGS
            .iter()
            .map(|(name, args)| args.iter().fold(CampaignFunction::new(*name), |f, a| f.arg(*a)))
            .collect(),
        languages: Language::ALL.to_vec(),
        platforms: vec![TeePlatform::Tdx],
        modes: vec![VmKind::Secure, VmKind::Normal],
        trials: 4,
        seed,
        priority: Priority::Normal,
        deadline_ms: None,
        device: None,
    };
    assert_eq!(fleet.store().len(), TINY_ARGS.len(), "a row per built-in");
    let launches =
        |name: &str| fleet.shard_metrics(0).counter_value(&format!("launch_cache_{name}_total"));
    let sched = fleet.scheduler();

    let receipt = sched.submit(spec(13)).unwrap();
    assert_eq!(receipt.jobs, 350);
    fleet.drain();
    let status = sched.campaign_status(&receipt.id).unwrap();
    assert_eq!((status.completed, status.failed), (350, 0));
    assert_eq!((launches("misses"), launches("hits")), (Some(75), Some(275)));

    // Another seed: 350 cells the result cache has never seen, no launch.
    let receipt = sched.submit(spec(14)).unwrap();
    fleet.drain();
    let status = sched.campaign_status(&receipt.id).unwrap();
    assert_eq!((status.completed, status.cache_hits), (350, 0));
    assert_eq!((launches("misses"), launches("hits")), (Some(75), Some(625)));
    assert_eq!(launches("evictions"), Some(0));

    let metrics = Client::new(server.addr()).send(&Request::new(Method::Get, "/v1/metrics"));
    let body = String::from_utf8(metrics.unwrap().body).unwrap();
    assert!(body.contains("launch_cache_hits_total 625\n"), "{body}");
    assert!(body.contains("launch_cache_misses_total 75\n"), "{body}");
}
