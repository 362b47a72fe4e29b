//! Fleet end-to-end: sharded placement, kill/drain recovery with
//! byte-identical results, resubmissions answered from the harvest,
//! fleet-wide collateral sharing, cross-shard work stealing, and live
//! migration (execution equality after resume, runnable source on abort).

use std::sync::Arc;

use confbench::{AttestConfig, AttestService, Gateway, ManualClock, RetryPolicy};
use confbench_fleet::{migrate, Fleet, FleetConfig, MigrationConfig, MigrationError};
use confbench_sched::{Scheduler, SchedulerConfig};
use confbench_types::{
    CampaignFunction, CampaignSpec, Language, OpTrace, Priority, TeeMechanism, TeePlatform, VmKind,
    VmTarget,
};
use confbench_vmm::{TeeFaultPlan, TeeVmBuilder};

/// 2 functions × 1 language × 3 platforms × 2 modes.
const CAMPAIGN_JOBS: usize = 12;

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

fn fast_retry() -> RetryPolicy {
    RetryPolicy { max_attempts: 3, base_backoff_ms: 1, max_backoff_ms: 2, jitter: false }
}

fn fleet(shards: usize) -> Fleet {
    fleet_on(shards, Arc::new(ManualClock::new()))
}

fn fleet_on(shards: usize, clock: Arc<ManualClock>) -> Fleet {
    Fleet::new(FleetConfig {
        shards,
        seed: 11,
        clock,
        retry: fast_retry(),
        ..FleetConfig::default()
    })
}

/// The single-gateway control: same seed, same campaign, one scheduler.
/// Its result-cache snapshot is the ground truth the fleet must reproduce
/// byte-for-byte no matter which hosts die mid-run.
fn control_bytes() -> Vec<u8> {
    let gw = Arc::new(
        Gateway::builder()
            .seed(11)
            .retry(fast_retry())
            .clock(Arc::new(ManualClock::new()))
            .local_host(TeePlatform::Tdx)
            .local_host(TeePlatform::SevSnp)
            .local_host(TeePlatform::Cca)
            .build(),
    );
    let sched = Scheduler::with_metrics(
        Arc::clone(&gw) as Arc<dyn confbench_sched::Executor>,
        Arc::new(ManualClock::new()),
        SchedulerConfig::default(),
        Arc::clone(gw.metrics()),
    );
    sched.submit(campaign_spec()).expect("control campaign admitted");
    sched.drain();
    let snapshot = sched.result_cache().snapshot();
    assert_eq!(snapshot.len(), CAMPAIGN_JOBS);
    serde_json::to_vec(&snapshot).expect("control snapshot serializes")
}

/// Tentpole: kill a host mid-campaign. The fleet re-places the dead
/// shard's unharvested cells, finishes, and the merged results are
/// byte-identical to the single-gateway control — and the per-shard
/// cache-miss counters prove no cell executed twice (anything the dead
/// shard finished was harvested, anything it hadn't started runs exactly
/// once on its new owner).
#[test]
fn kill_shard_mid_campaign_completes_byte_identical_with_dedup() {
    let f = fleet(3);
    let receipt = f.submit(campaign_spec()).expect("fleet campaign admitted");
    assert_eq!(receipt.jobs, CAMPAIGN_JOBS);

    // One scheduling pass, then kill the busiest surviving shard.
    f.pump();
    let victim = f
        .status()
        .into_iter()
        .filter(|s| s.alive)
        .max_by_key(|s| s.queue_depth)
        .expect("a shard is alive")
        .shard;
    f.kill_shard(victim);
    assert_eq!(f.alive_shards().len(), 2);

    f.drain();
    let status = f.campaign_status(&receipt.id).expect("campaign tracked");
    assert!(status.complete, "campaign must survive the host loss: {status:?}");
    assert_eq!(status.done, CAMPAIGN_JOBS);

    assert_eq!(
        serde_json::to_vec(&f.results()).unwrap(),
        control_bytes(),
        "fleet results must be byte-identical to the single-gateway control"
    );
    assert_eq!(
        f.total_executions(),
        CAMPAIGN_JOBS as u64,
        "dedup: every cell executes exactly once fleet-wide, host loss notwithstanding"
    );
}

/// Recovery is never refused. Both shards' queues are first filled close to
/// their bound with cells that expire instead of executing; killing shard 1
/// then re-places its orphans onto shard 0, past that shard's bound. The
/// survivor refuses new campaigns until it drains, and the campaign
/// completes byte-identical to the single-gateway control.
#[test]
fn recovery_past_a_full_queue_completes_byte_identical() {
    let clock = Arc::new(ManualClock::new());
    let f = fleet_on(2, Arc::clone(&clock));
    let receipt = f.submit(campaign_spec()).expect("fleet campaign admitted");
    let filler = CampaignSpec {
        languages: vec![Language::Lua, Language::Wasm, Language::Python],
        deadline_ms: Some(1),
        ..campaign_spec()
    };
    while f.submit(filler.clone()).is_ok() {}
    let capacity = SchedulerConfig::default().queue_capacity;
    let depths = |f: &Fleet| f.status().iter().map(|s| s.queue_depth).collect::<Vec<_>>();
    let full = depths(&f);
    assert!(full[0] + full[1] > capacity, "both queues nearly full: {full:?}");

    assert_eq!(f.kill_shard(1), full[1], "every queued cell of the dead shard re-places");
    assert_eq!(depths(&f)[0], full[0] + full[1], "past its bound of {capacity}");
    let small = CampaignSpec { modes: vec![VmKind::Secure], ..campaign_spec() };
    let refused = f.submit(small.clone()).unwrap_err();
    assert!(matches!(refused, confbench_sched::SubmitError::QueueFull { .. }), "{refused:?}");

    clock.advance(10);
    f.drain();
    assert!(f.campaign_status(&receipt.id).unwrap().complete);
    assert_eq!(serde_json::to_vec(&f.results()).unwrap(), control_bytes());
    assert_eq!(f.total_executions(), CAMPAIGN_JOBS as u64, "fillers expire, none executes");
    f.submit(small).expect("a drained survivor admits again");
}

/// The shape of the paper's Fig. 6 on TDX at a debug-friendly size: 25
/// functions × 7 languages × {secure, normal} = 350 cells.
fn fig6_shaped_spec() -> CampaignSpec {
    CampaignSpec {
        functions: (0..25)
            .map(|i| CampaignFunction::new("factors").arg((360 + i).to_string()))
            .collect(),
        languages: Language::ALL.to_vec(),
        platforms: vec![TeePlatform::Tdx],
        trials: 1,
        ..campaign_spec()
    }
}

/// Resubmitting a drained 350-cell campaign on three shards: the harvest
/// answers every cell at placement, so no shard queues a job, makes a job
/// record or executes a cell, and the campaign is complete before any pump.
/// (Routing to the caching shard, for cells computed but not yet harvested,
/// is the fleet's `resubmission_routes_to_the_cached_shard` unit test.)
#[test]
fn resubmission_is_answered_from_the_harvest() {
    let f = fleet(3);
    let spec = fig6_shaped_spec();
    assert_eq!(f.submit(spec.clone()).expect("first run admitted").jobs, 350);
    f.drain();
    assert_eq!(f.total_executions(), 350);
    let counters = |f: &Fleet, name: &str| {
        (0..f.shard_count())
            .map(|s| f.shard_metrics(s).counter_value(name).unwrap_or(0))
            .collect::<Vec<_>>()
    };
    let records = counters(&f, "sched_jobs_enqueued_total");
    let misses = counters(&f, "sched_cache_misses_total");

    let receipt = f.submit(spec).expect("resubmission admitted");
    assert_eq!(receipt.jobs, 350, "the receipt counts every cell");
    let status = f.campaign_status(&receipt.id).expect("campaign tracked");
    assert_eq!((status.total, status.done, status.complete), (350, 350, true), "{status:?}");
    assert!(f.status().iter().all(|s| s.queue_depth == 0), "nothing queued");
    assert_eq!(counters(&f, "sched_jobs_enqueued_total"), records, "no job record made");
    assert_eq!(counters(&f, "sched_cache_misses_total"), misses, "nothing executed");
    assert_eq!(f.metrics().counter_value("fleet_cells_from_harvest_total"), Some(350));
}

/// A graceful drain hands the leaving shard's cache entries to the ring's
/// new owners: the survivors' caches hold every entry it had, and a
/// resubmission after the drain executes nothing.
#[test]
fn drained_shard_hands_its_cache_to_new_owners() {
    let f = fleet(3);
    f.submit(campaign_spec()).expect("first run admitted");
    f.drain();
    assert_eq!(f.total_executions(), CAMPAIGN_JOBS as u64);

    // Everything is harvested, so nothing needs re-placement...
    let drained = f.shard_cache(0).snapshot();
    assert!(!drained.is_empty(), "shard 0 owns some of the campaign");
    assert_eq!(f.drain_shard(0), 0);
    // ...and the drained shard's entries now live on the survivors.
    for (key, cell) in drained {
        let held = [1, 2].map(|s| f.shard_cache(s).snapshot().remove(&key));
        assert!(held.contains(&Some(cell)), "{key} was handed to a survivor");
    }
    let receipt = f.submit(campaign_spec()).expect("resubmission admitted");
    f.drain();
    assert!(f.campaign_status(&receipt.id).unwrap().complete);
    assert_eq!(
        f.total_executions(),
        CAMPAIGN_JOBS as u64,
        "post-drain resubmission must be served entirely from migrated cache entries"
    );
}

/// The sharding regression the shared service fixes: N shards (or N
/// migrations) re-verifying the same TDX identity must do exactly one
/// collateral cycle fleet-wide (3 PCS requests: TCB info + 2 CRLs), not
/// one per shard. Three back-to-back migrations each re-attest through
/// the fleet-shared session cache; only the first touches the PCS.
#[test]
fn fleet_shares_one_collateral_cycle_per_identity() {
    let f = fleet(3);
    let mut warm = OpTrace::new();
    warm.cpu(1_000_000);
    warm.alloc(8 * 4096);
    let target = VmTarget { platform: TeePlatform::Tdx, kind: VmKind::Secure };
    for _ in 0..3 {
        f.run_migration(target, std::slice::from_ref(&warm), &MigrationConfig::default())
            .expect("tdx migration re-attests and resumes");
    }
    assert_eq!(
        f.attest().tdx().collateral_fetches(),
        1,
        "one collateral round trip for the whole fleet"
    );
    assert_eq!(f.attest().tdx().pcs().requests(), 3, "tcb info + 2 CRLs, fetched once");
    assert_eq!(f.migrations().len(), 3);
}

/// Work stealing: a single-platform campaign leaves some shards idle on
/// that platform's lane; they must steal from the deepest queue instead
/// of spinning, and the stolen results are indistinguishable (the victim
/// keeps the bookkeeping, so dedup counters stay exact).
#[test]
fn idle_shards_steal_from_the_hot_shard() {
    let f = fleet(3);
    let spec = CampaignSpec {
        functions: vec![
            CampaignFunction::new("factors").arg("360360"),
            CampaignFunction::new("factors").arg("720720"),
            CampaignFunction::new("factors").arg("30030"),
            CampaignFunction::new("checksum").arg("30000"),
        ],
        platforms: vec![TeePlatform::Tdx],
        ..campaign_spec()
    };
    let receipt = f.submit(spec).expect("hot campaign admitted");
    assert_eq!(receipt.jobs, 8);
    f.drain();
    assert!(f.campaign_status(&receipt.id).unwrap().complete);
    assert!(f.steals() > 0, "idle shards must steal from the deepest queue");
    assert_eq!(f.total_executions(), 8, "steals execute, they do not duplicate");
}

/// Admission is all-or-nothing across shards: when one shard's queue
/// refuses its partition, the partitions earlier shards already took are
/// cancelled, so nothing runs for a campaign the client was told (429) to
/// resubmit. The queues are filled with cells that expire instead of
/// executing, which makes any execution after the refusal an orphan's.
#[test]
fn refused_campaign_leaves_nothing_queued_on_any_shard() {
    let clock = Arc::new(ManualClock::new());
    let f = fleet_on(3, Arc::clone(&clock));
    let depths = |f: &Fleet| f.status().iter().map(|s| s.queue_depth).collect::<Vec<_>>();
    let capacity = SchedulerConfig::default().queue_capacity;
    let filler = CampaignSpec {
        languages: vec![Language::Go, Language::Lua, Language::Wasm, Language::Python],
        deadline_ms: Some(1),
        ..campaign_spec()
    };

    // Every submission of the same cells adds the same share per shard.
    f.submit(filler.clone()).expect("first filler admitted");
    let share = depths(&f);
    let fits = |f: &Fleet| depths(f).iter().zip(&share).all(|(d, s)| d + s <= capacity);
    while fits(&f) {
        f.submit(filler.clone()).expect("filler fits every shard");
    }
    let before = depths(&f);
    let refusing = (0..3).find(|&i| before[i] + share[i] > capacity).unwrap();
    assert!(
        (0..refusing).any(|i| share[i] > 0),
        "an earlier shard must admit its partition first (shares {share:?}, depths {before:?})"
    );

    let err = f.submit(CampaignSpec { deadline_ms: None, ..filler }).unwrap_err();
    assert!(matches!(err, confbench_sched::SubmitError::QueueFull { .. }), "{err:?}");
    assert_eq!(depths(&f), before, "a refused campaign stays queued nowhere");

    clock.advance(10);
    f.drain();
    assert_eq!(f.total_executions(), 0, "fillers expire; only an orphaned cell could execute");
}

/// Live migration: after drain → pre-copy → stop-and-copy → re-attest →
/// resume, the migrated VM's future is indistinguishable from a twin that
/// never moved (same seed, same history — compute/alloc workloads).
#[test]
fn migrated_vm_execution_is_identical_to_an_unmigrated_twin() {
    let target = VmTarget { platform: TeePlatform::Tdx, kind: VmKind::Secure };
    let mut source = TeeVmBuilder::new(target).seed(7).try_build().unwrap();
    let mut twin = TeeVmBuilder::new(target).seed(7).try_build().unwrap();

    let mut warm = OpTrace::new();
    warm.cpu(2_000_000);
    warm.alloc(24 * 4096);
    warm.cpu(500_000);
    source.try_execute(&warm).unwrap();
    twin.try_execute(&warm).unwrap();

    // A workload arriving *during* pre-copy: executed on the source, its
    // dirtied pages ride the later rounds.
    let mut mid = OpTrace::new();
    mid.alloc(8 * 4096);
    mid.cpu(250_000);
    twin.try_execute(&mid).unwrap();

    let attest = AttestService::new(7, AttestConfig::default(), Arc::new(ManualClock::new()), None);
    let (mut migrated, report) = migrate(
        source,
        TeeVmBuilder::new(target).seed(0xBADC0DE),
        &attest,
        std::slice::from_ref(&mid),
        &MigrationConfig::default(),
    )
    .expect("tdx migration converges");

    assert!(report.pages_total > 0, "pages moved: {report:?}");
    assert!(report.session.starts_with("as-"), "re-attested session: {}", report.session);

    let mut probe = OpTrace::new();
    probe.cpu(1_000_000);
    probe.alloc(4 * 4096);
    let moved = migrated.try_execute(&probe).unwrap();
    let stayed = twin.try_execute(&probe).unwrap();
    assert_eq!(moved, stayed, "post-resume execution must match the unmigrated twin");
}

/// An aborted migration (CCA has no live-migration architecture, so
/// secure-CCA re-attestation is refused) hands the source VM back
/// runnable, and its subsequent execution matches a VM that never
/// attempted the move.
#[test]
fn aborted_migration_returns_a_runnable_source() {
    let target = VmTarget { platform: TeePlatform::Cca, kind: VmKind::Secure };
    let mut source = TeeVmBuilder::new(target).seed(7).try_build().unwrap();
    let mut twin = TeeVmBuilder::new(target).seed(7).try_build().unwrap();
    let mut warm = OpTrace::new();
    warm.cpu(1_000_000);
    warm.alloc(8 * 4096);
    source.try_execute(&warm).unwrap();
    twin.try_execute(&warm).unwrap();

    let attest = AttestService::new(7, AttestConfig::default(), Arc::new(ManualClock::new()), None);
    let err = migrate(
        source,
        TeeVmBuilder::new(target).seed(9),
        &attest,
        &[],
        &MigrationConfig::default(),
    )
    .expect_err("secure-CCA migration must abort at re-attest");
    assert!(matches!(err, MigrationError::Attest { .. }), "{err}");

    let mut recovered = err.into_source().expect("an abort hands the source back");
    let mut probe = OpTrace::new();
    probe.cpu(750_000);
    assert_eq!(
        recovered.try_execute(&probe).unwrap(),
        twin.try_execute(&probe).unwrap(),
        "an aborted source must resume exactly where it stopped"
    );
}

/// A source VM whose fault plan fires on the first pending trace aborts
/// the migration at the `execute` stage instead of panicking mid-pre-copy,
/// and the source handed back still runs work that crosses no faulting
/// mechanism.
#[test]
fn faulting_pending_trace_aborts_with_a_runnable_source() {
    // Boot on SEV-SNP goes through the secure processor, never a GHCB
    // exit, so this plan lets the VM boot and faults its first context
    // switch.
    let plan = Arc::new(TeeFaultPlan::new(7, 0.0).with_rate(TeeMechanism::GhcbExit, 1.0));
    let target = VmTarget { platform: TeePlatform::SevSnp, kind: VmKind::Secure };
    let source = TeeVmBuilder::new(target).seed(7).fault_plan(plan).try_build().unwrap();
    let mut pending = OpTrace::new();
    pending.ctx_switch(4);

    let attest = AttestService::new(7, AttestConfig::default(), Arc::new(ManualClock::new()), None);
    let err = migrate(
        source,
        TeeVmBuilder::new(target).seed(9),
        &attest,
        &[pending],
        &MigrationConfig::default(),
    )
    .expect_err("the pending trace faults");
    assert!(matches!(err, MigrationError::Fault { stage: "execute", .. }), "{err}");

    let mut probe = OpTrace::new();
    probe.cpu(750_000);
    err.into_source()
        .expect("an abort hands the source back")
        .try_execute(&probe)
        .expect("the aborted source still runs");
}

/// A target builder whose fault plan fires at boot aborts the migration at
/// the `build` stage instead of panicking after the source was paused, and
/// the source handed back is resumed and runnable.
#[test]
fn faulting_target_boot_aborts_with_a_runnable_source() {
    let plan = Arc::new(TeeFaultPlan::new(7, 0.0).with_rate(TeeMechanism::Seamcall, 1.0));
    let target = VmTarget { platform: TeePlatform::Tdx, kind: VmKind::Secure };
    let source = TeeVmBuilder::new(target).seed(7).try_build().unwrap();

    let attest = AttestService::new(7, AttestConfig::default(), Arc::new(ManualClock::new()), None);
    let err = migrate(
        source,
        TeeVmBuilder::new(target).seed(9).fault_plan(plan),
        &attest,
        &[],
        &MigrationConfig::default(),
    )
    .expect_err("the target cannot boot");
    assert!(matches!(err, MigrationError::Fault { stage: "build", .. }), "{err}");

    let mut probe = OpTrace::new();
    probe.cpu(750_000);
    err.into_source()
        .expect("an abort hands the source back")
        .try_execute(&probe)
        .expect("the aborted source still runs");
}
