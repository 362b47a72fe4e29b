//! What a daemon keeps per executed cell, counted by the allocator.
//!
//! A binary of its own, because its `#[global_allocator]` counts every
//! allocation the process makes: live bytes and live allocations, never
//! sampled, never read off `/proc`. A three-shard `Fleet` with no driver
//! threads, under a `ManualClock`, is driven on the test thread through the
//! daemon's router, in rounds shaped like the benchmark's `fleet_mixed`: a
//! quick-scale Fig. 6 campaign on a fresh seed (350 cold cells), the same
//! spec again (answered by the harvest at placement), then 100 migrations
//! alternating TDX and SEV-SNP. After the first round the memos hold every
//! launch and walk the rounds need, so what a later round leaves behind is
//! what the fleet keeps of its cells, campaigns and migrations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use confbench::ManualClock;
use confbench_fleet::{Fleet, FleetConfig};
use confbench_httpd::{Method, Request, Router};
use confbench_types::{
    CampaignFunction, CampaignSpec, Language, PackedTrace, Priority, TeePlatform, TraceSpan, VmKind,
};

/// The system allocator, counting what is live.
struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_ALLOCATIONS: AtomicI64 = AtomicI64::new(0);

// SAFETY: every call forwards to `System` with the arguments it was given;
// the counters are plain atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
            LIVE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
            LIVE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        LIVE_ALLOCATIONS.fetch_sub(1, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Live bytes and live allocations, now.
fn live() -> (i64, i64) {
    (LIVE_BYTES.load(Ordering::Relaxed), LIVE_ALLOCATIONS.load(Ordering::Relaxed))
}

/// The benchmark's quick-scale Fig. 6 arguments: 25 functions at a tenth
/// of the paper's work.
const QUICK_ARGS: [(&str, &[&str]); 25] = [
    ("cpustress", &["8000"]),
    ("memstress", &["6"]),
    ("iostress", &["2"]),
    ("logging", &["150"]),
    ("factors", &["360360"]),
    ("filesystem", &["1"]),
    ("ack", &["4", "16"]),
    ("fib", &["13"]),
    ("primes", &["4000"]),
    ("matrix", &["12"]),
    ("quicksort", &["600"]),
    ("mergesort", &["600"]),
    ("base64", &["1500"]),
    ("json", &["40"]),
    ("checksum", &["4000"]),
    ("compress", &["4000"]),
    ("mandelbrot", &["20"]),
    ("nbody", &["200"]),
    ("binarytrees", &["9"]),
    ("spectralnorm", &["20", "2"]),
    ("dijkstra", &["10"]),
    ("wordcount", &["4000"]),
    ("histogram", &["4000"]),
    ("montecarlo", &["3000"]),
    ("strings", &["400"]),
];

/// The quick Fig. 6 matrix on TDX: 25 functions × 7 languages × both
/// modes, 3 trials, 350 cells.
fn quick_fig6(seed: u64) -> CampaignSpec {
    CampaignSpec {
        functions: QUICK_ARGS
            .iter()
            .map(|(name, args)| {
                args.iter().fold(CampaignFunction::new(*name), |f, arg| f.arg(*arg))
            })
            .collect(),
        languages: Language::ALL.to_vec(),
        platforms: vec![TeePlatform::Tdx],
        modes: VmKind::ALL.to_vec(),
        trials: 3,
        seed,
        priority: Priority::Normal,
        deadline_ms: None,
        device: None,
    }
}

const CELLS: i64 = 350;
const ROUNDS: usize = 4;
const MIGRATIONS: usize = 100;

/// A request through the router, which must answer `status`; its response,
/// with the hook that runs once an answer is written, is dropped here.
fn send(router: &Router, request: Request, status: u16) -> serde_json::Value {
    let resp = router.dispatch(&request);
    assert_eq!(resp.status, status, "{}", String::from_utf8_lossy(&resp.body));
    serde_json::from_slice(&resp.body).expect("a JSON body")
}

/// Submits a fleet campaign, drains the fleet and checks that the campaign
/// is complete with every cell done.
fn campaign(fleet: &Fleet, router: &Router, spec: &CampaignSpec) {
    let receipt = send(router, Request::new(Method::Post, "/v1/fleet/campaigns").json(spec), 200);
    fleet.drain();
    let id = receipt["id"].as_str().expect("a campaign id");
    let status = send(router, Request::new(Method::Get, &format!("/v1/fleet/campaigns/{id}")), 200);
    assert_eq!((status["done"].as_i64(), status["complete"].as_bool()), (Some(CELLS), Some(true)));
}

/// Live (bytes, allocations) after each round, the first a warm-up, and
/// the router, whose fleet still holds everything it kept.
fn rounds() -> (Vec<(i64, i64)>, Router) {
    let fleet = Arc::new(Fleet::new(FleetConfig {
        seed: 13,
        clock: Arc::new(ManualClock::new()),
        ..FleetConfig::default()
    }));
    let router = fleet.build_router();
    let mut after = Vec::with_capacity(ROUNDS + 1);
    for round in 0..=ROUNDS as u64 {
        let spec = quick_fig6(1_000 + round);
        campaign(&fleet, &router, &spec);
        campaign(&fleet, &router, &spec);
        for i in 0..MIGRATIONS {
            let platform = if i % 2 == 0 { "tdx" } else { "sev-snp" };
            let body = serde_json::json!({ "platform": platform });
            send(&router, Request::new(Method::Post, "/v1/migrations").json(&body), 200);
        }
        after.push(live());
    }
    let executed: u64 = (0..fleet.shard_count())
        .map(|s| fleet.shard_metrics(s).counter("sched_cache_misses_total").get())
        .sum();
    assert_eq!(executed, CELLS as u64 * (ROUNDS as u64 + 1), "every cold cell ran once");
    (after, router)
}

/// What a round left live, per cell it executed.
fn per_cell(after: &[(i64, i64)]) -> Vec<(f64, f64)> {
    let cells = CELLS as f64;
    after
        .windows(2)
        .map(|w| ((w[1].0 - w[0].0) as f64 / cells, (w[1].1 - w[0].1) as f64 / cells))
        .collect()
}

/// Most live bytes and live allocations the rounds from the second on may
/// leave behind per cell they executed, on average. This code keeps 614.4 B
/// in 7.68 allocations; while the fleet kept its own record of each placed
/// cell, 686 B; before shared cells and results, numeric job ids and
/// one-byte span names, 1 430 B in 14.9.
const MAX_BYTES_PER_CELL: f64 = 678.0;
const MAX_ALLOCATIONS_PER_CELL: f64 = 8.0;

/// Most bytes a packed span tree of an executed quick cell takes, on
/// average and at most: 56 and 90 here. Such trees took 262–412 B (system
/// clock) when names were written in full and times absolute.
const MAX_MEAN_TRACE_BYTES: f64 = 60.0;
const MAX_TRACE_BYTES: usize = 100;

/// From the second round on, what a round leaves live per executed cell
/// stays under the ceilings, and two runs leave the same counts; every
/// executed quick cell's span tree packs small. One test in the binary, so
/// that nothing else allocates while it counts.
#[test]
fn a_round_keeps_little_per_executed_cell() {
    let (first, router) = rounds();
    let by_round = per_cell(&first);
    let steady = &by_round[1..];
    let bytes = steady.iter().map(|r| r.0).sum::<f64>() / steady.len() as f64;
    let allocations = steady.iter().map(|r| r.1).sum::<f64>() / steady.len() as f64;
    println!("per executed cell, rounds 1..={ROUNDS}: {by_round:.1?}");
    println!("from round 2 on: {bytes:.1} B, {allocations:.2} allocations");
    assert!(bytes <= MAX_BYTES_PER_CELL, "{bytes:.1} B a cell");
    assert!(allocations <= MAX_ALLOCATIONS_PER_CELL, "{allocations:.2} allocations a cell");

    let (second, ..) = rounds();
    assert_eq!(per_cell(&first), per_cell(&second), "two runs keep the same counts");

    // Shard 0's first campaign: its part of the warm-up, every job executed.
    let mut sizes = Vec::new();
    for job in 0.. {
        let resp = router.dispatch(&Request::new(Method::Get, &format!("/v1/jobs/c1-j{job}")));
        if resp.status == 404 {
            break;
        }
        let body: serde_json::Value = serde_json::from_slice(&resp.body).expect("a JSON body");
        let tree: TraceSpan =
            serde_json::from_str(&serde_json::to_string(&body["trace"]).expect("a tree"))
                .expect("an executed job's tree");
        sizes.push(PackedTrace::pack(&tree).size());
    }
    assert!(sizes.len() > 50, "{} jobs on shard 0", sizes.len());
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    let largest = sizes.iter().max().copied().unwrap_or(0);
    println!("packed span trees of {} cells: mean {mean:.1} B, largest {largest} B", sizes.len());
    assert!(mean <= MAX_MEAN_TRACE_BYTES && largest <= MAX_TRACE_BYTES, "{mean:.1} / {largest}");
}
