//! The fleet orchestrator: N gateway shards behind one consistent-hash
//! ring, with cross-shard work stealing and kill/drain recovery.
//!
//! # Determinism and dedup
//!
//! Every shard is built with the *same* seed, shares one
//! [`FunctionStore`], and shares one [`AttestService`]. Same seed + same
//! store means any shard executes any cell byte-identically, so a cell
//! re-placed after a host dies reproduces exactly the result the dead
//! host would have computed. Placement keys are the scheduler's content
//! addresses (`cache_key`), so a resubmission routes every cell to the
//! shard whose result cache already holds it; a drained shard hands its
//! cache entries to the new owners first, so re-placed work cache-hits
//! instead of re-executing. The *harvest* — a fleet-level map that each
//! pump extends with what every alive shard's result cache gained since
//! the last pump — is the campaign's durable record: anything harvested
//! survives any later host loss.
//!
//! # Harvest cursors
//!
//! A result cache already orders its live entries by the tick of their
//! last insert or hit, so that index is the completion log: the fleet
//! keeps one cursor per shard and reads only the entries touched after
//! it. A pass steps at most one job per shard, so a harvest costs what the
//! pass touched, not what the fleet has ever cached. After every harvest
//! the harvest holds every key an alive shard's cache holds, exactly as a
//! merge of whole snapshots would ([`Fleet::harvest`] gives the argument).
//!
//! # One daemon
//!
//! A fleet of one shard is the gateway: the daemon (`crate::daemon`) always
//! builds a fleet, serves `/v1/run`, `/v1/campaigns` and `/v1/jobs` on
//! shard 0 ([`Fleet::gateway`], [`Fleet::scheduler`]), and drives every
//! campaign with the fleet's driver threads ([`Fleet::spawn_drivers`]):
//! per platform, a driver steps every alive shard, steals for shards whose
//! own queue is empty, harvests, and sleeps until a submission wakes it.
//!
//! The shared [`AttestService`] is also the fix for a sharding-specific
//! regression: the session cache's single-flight and the collateral
//! refresher's claim slots are per-service, so N *independent* gateways
//! cold-verifying the same TCB identity would do N PCS collateral
//! fetches. One shared service makes it exactly one collateral cycle per
//! identity across the whole fleet (asserted by test against the PCS
//! request counter).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use confbench::{
    AttestConfig, AttestService, BalancePolicy, Clock, FunctionStore, Gateway, RetryPolicy,
    SystemClock, TeeFaultPlan,
};
use confbench_obs::{MetricsRegistry, RegistrySnapshot};
use confbench_sched::{
    cache_key, campaign, CachedCell, Executor, Scheduler, SchedulerConfig, SubmitError,
    DEFAULT_CACHE_CAPACITY,
};
use confbench_types::{CampaignCell, CampaignSpec, JobId, Priority, TeePlatform, VmTarget};
use confbench_vmm::TeeVmBuilder;
use parking_lot::{Condvar, Mutex};
use serde::Serialize;

use crate::migrate::{migrate, MigrationConfig, MigrationError, MigrationReport};
use crate::ring::HashRing;

/// Virtual nodes per shard on the placement ring.
const VNODES: usize = 32;

/// Tunables of a [`Fleet`]: every shard is a gateway built from the same
/// settings (the daemon's flags).
pub struct FleetConfig {
    /// Gateway shards to build.
    pub shards: usize,
    /// Deterministic seed shared by *all* shards (the property that makes
    /// re-placed work byte-identical).
    pub seed: u64,
    /// Clock shared by every shard's gateway and scheduler.
    pub clock: Arc<dyn Clock>,
    /// Ambient chaos plan installed on every shard's hosts.
    pub chaos: Option<Arc<TeeFaultPlan>>,
    /// Retry/backoff policy for every shard's gateway.
    pub retry: RetryPolicy,
    /// Platforms each shard boots a local host for.
    pub platforms: Vec<TeePlatform>,
    /// Remote host agents every shard's pools include.
    pub remote_hosts: Vec<(TeePlatform, SocketAddr)>,
    /// Pool balancing policy of every shard.
    pub policy: BalancePolicy,
    /// Tuning of the fleet-shared attestation service.
    pub attest: AttestConfig,
    /// Campaign jobs each shard's queue admits before refusing (429).
    pub queue_capacity: usize,
    /// Entry cap of each shard's result cache.
    pub cache_capacity: usize,
}

impl Default for FleetConfig {
    /// 3 shards with local hosts for all three platforms, seed 0, system
    /// clock, no chaos, 4096-job queues and 4096-entry result caches.
    fn default() -> Self {
        FleetConfig {
            shards: 3,
            seed: 0,
            clock: Arc::new(SystemClock),
            chaos: None,
            retry: RetryPolicy::default(),
            platforms: TeePlatform::ALL.to_vec(),
            remote_hosts: Vec::new(),
            policy: BalancePolicy::RoundRobin,
            attest: AttestConfig::default(),
            queue_capacity: DEFAULT_CACHE_CAPACITY,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
        }
    }
}

/// One gateway shard: a full gateway (the configured hosts) plus
/// its campaign scheduler, with a per-shard metrics registry so cache and
/// queue counters can be asserted shard-by-shard.
struct Shard {
    gateway: Arc<Gateway>,
    sched: Arc<Scheduler>,
    metrics: Arc<MetricsRegistry>,
    alive: AtomicBool,
}

/// A cell placed on the fleet: its placement key, the cell itself, and
/// the shard and job currently responsible for it.
#[derive(Clone)]
struct PlacedCell {
    key: String,
    /// Whether `key` is the cell's content address, the key its job
    /// carries. It is not when the function was unknown at submission:
    /// then the cell is placed by its address under an empty fingerprint.
    addressed: bool,
    cell: CampaignCell,
    shard: usize,
    job: JobId,
}

impl PlacedCell {
    /// The cell as a shard's scheduler takes it: with its content address,
    /// if it has one.
    fn to_submit(&self) -> (CampaignCell, Option<String>) {
        (self.cell.clone(), self.addressed.then(|| self.key.clone()))
    }
}

/// One fleet-level campaign (fans out to per-shard scheduler campaigns).
struct FleetCampaign {
    id: String,
    cells: Vec<PlacedCell>,
    priority: Priority,
    deadline_ms: Option<u64>,
}

#[derive(Default)]
struct FleetState {
    next_campaign: u64,
    campaigns: Vec<FleetCampaign>,
    /// Fleet-durable results: what shard caches gained, after every pump.
    harvest: BTreeMap<String, CachedCell>,
    /// Per shard, the result-cache tick the harvest has read up to.
    cursors: Vec<u64>,
    migrations: Vec<MigrationReport>,
}

/// Receipt for a fleet campaign submission.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReceipt {
    /// Fleet-level campaign id.
    pub id: String,
    /// Cells placed (across all shards).
    pub jobs: usize,
}

/// Point-in-time progress of a fleet campaign, measured against the
/// harvest (what has durably completed, host losses notwithstanding).
#[derive(Debug, Clone, Serialize)]
pub struct FleetCampaignStatus {
    /// Fleet-level campaign id.
    pub id: String,
    /// Total cells.
    pub total: usize,
    /// Cells whose results are harvested.
    pub done: usize,
    /// Cells whose job ended without a result: failed, expired or
    /// cancelled.
    pub failed: usize,
    /// Whether every cell is harvested or failed (`done + failed == total`).
    pub complete: bool,
}

/// Per-shard status row for `GET /v1/fleet`.
#[derive(Debug, Clone, Serialize)]
pub struct ShardStatus {
    /// Shard id (ring member).
    pub shard: usize,
    /// Whether the shard is alive (on the ring).
    pub alive: bool,
    /// Jobs queued on the shard's scheduler.
    pub queue_depth: usize,
    /// Entries in the shard's result cache.
    pub cache_entries: usize,
    /// The shard's cache hits (jobs served without executing).
    pub cache_hits: u64,
    /// The shard's cache misses (jobs that executed).
    pub cache_misses: u64,
}

/// A fleet of gateway shards. See the module docs for the design.
pub struct Fleet {
    shards: Vec<Shard>,
    ring: Mutex<HashRing>,
    store: Arc<FunctionStore>,
    attest: Arc<AttestService>,
    metrics: Arc<MetricsRegistry>,
    seed: u64,
    state: Mutex<FleetState>,
    signal: WakeSignal,
    drivers: Mutex<Vec<JoinHandle<()>>>,
}

/// Wakeup channel between submitters and driver threads: a generation
/// counter and a stop flag.
#[derive(Default)]
struct WakeSignal {
    state: Mutex<(u64, bool)>,
    cv: Condvar,
}

impl WakeSignal {
    /// Moves the generation on (with `stop`, also stops the drivers) and
    /// wakes every waiter.
    fn raise(&self, stop: bool) {
        let mut state = self.state.lock();
        *state = (state.0 + 1, state.1 || stop);
        self.cv.notify_all();
    }

    /// The latest generation — when `idle`, once it has moved past `seen` —
    /// or `None` once the drivers are told to stop.
    fn next(&self, seen: u64, idle: bool) -> Option<u64> {
        let mut state = self.state.lock();
        while idle && *state == (seen, false) {
            state = self.cv.wait(state);
        }
        (!state.1).then_some(state.0)
    }
}

impl Fleet {
    /// Builds the fleet: `config.shards` gateways (each with the configured
    /// hosts), one shared function store, one shared attestation service,
    /// one placement ring. No thread runs until [`Fleet::spawn_drivers`].
    ///
    /// # Panics
    ///
    /// Panics when `config.shards == 0` or a shard has no host.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.shards > 0, "fleet needs at least one shard");
        let metrics = Arc::new(MetricsRegistry::new());
        let store = Arc::new(FunctionStore::new());
        let attest = Arc::new(AttestService::new(
            config.seed,
            config.attest,
            Arc::clone(&config.clock),
            Some(&metrics),
        ));
        let sched_config = SchedulerConfig {
            queue_capacity: config.queue_capacity,
            retry_after_secs: config.retry.retry_after_secs(),
            cache_capacity: config.cache_capacity,
            ..SchedulerConfig::default()
        };
        let mut ring = HashRing::new(VNODES);
        let mut shards = Vec::with_capacity(config.shards);
        for id in 0..config.shards {
            ring.insert(id);
            let shard_metrics = Arc::new(MetricsRegistry::new());
            let mut builder = Gateway::builder()
                .seed(config.seed)
                .store(Arc::clone(&store))
                .attest_service(Arc::clone(&attest))
                .metrics(Arc::clone(&shard_metrics))
                .clock(Arc::clone(&config.clock))
                .retry(config.retry)
                .policy(config.policy);
            for &platform in &config.platforms {
                builder = builder.local_host(platform);
            }
            for &(platform, addr) in &config.remote_hosts {
                builder = builder.remote_host(platform, addr);
            }
            if let Some(plan) = &config.chaos {
                builder = builder.chaos(Arc::clone(plan));
            }
            let gateway = Arc::new(builder.build());
            let sched = Arc::new(Scheduler::with_metrics(
                Arc::clone(&gateway) as Arc<dyn Executor>,
                Arc::clone(&config.clock),
                sched_config.clone(),
                Arc::clone(&shard_metrics),
            ));
            shards.push(Shard {
                gateway,
                sched,
                metrics: shard_metrics,
                alive: AtomicBool::new(true),
            });
        }
        metrics.gauge("fleet_shards_alive").set(config.shards as u64);
        Fleet {
            shards,
            ring: Mutex::new(ring),
            store,
            attest,
            metrics,
            seed: config.seed,
            state: Mutex::new(FleetState {
                cursors: vec![0; config.shards],
                ..FleetState::default()
            }),
            signal: WakeSignal::default(),
            drivers: Mutex::new(Vec::new()),
        }
    }

    /// Shard 0's gateway: the one `/v1/run` dispatches through.
    pub fn gateway(&self) -> &Arc<Gateway> {
        &self.shards[0].gateway
    }

    /// Shard 0's scheduler: the one `/v1/campaigns` and `/v1/jobs` serve.
    /// Idle shards steal its work like any other shard's.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.shards[0].sched
    }

    /// The shared function store (upload functions here once; every shard
    /// sees them and fingerprints them identically).
    pub fn store(&self) -> &Arc<FunctionStore> {
        &self.store
    }

    /// The fleet-shared attestation service.
    pub fn attest(&self) -> &Arc<AttestService> {
        &self.attest
    }

    /// The fleet-level metrics registry (steal counters, shard gauges,
    /// migration instruments, plus the shared attestation family).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// What `GET /v1/metrics` renders: the fleet registry plus every
    /// shard's, summed by name. The per-shard split is `GET /v1/fleet`.
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        let mut sum = self.metrics.snapshot();
        for shard in &self.shards {
            sum.absorb(shard.metrics.snapshot());
        }
        sum
    }

    /// A shard's private metrics registry (cache/queue counters).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range shard id.
    pub fn shard_metrics(&self, shard: usize) -> &Arc<MetricsRegistry> {
        &self.shards[shard].metrics
    }

    /// Number of shards built (alive or not).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Ids of shards currently alive (on the ring).
    pub fn alive_shards(&self) -> Vec<usize> {
        (0..self.shards.len()).filter(|&s| self.shards[s].alive.load(Ordering::SeqCst)).collect()
    }

    /// Validates, expands, and places a campaign across the fleet: each
    /// cell goes to the shard owning its content address on the ring, and
    /// carries the address to that shard's job, so no shard hashes it
    /// again. Every shard shares one store, whose names are immutable, so
    /// the address is the one the shard would compute. A function the
    /// store does not know is placed by its address under an empty
    /// fingerprint (still deterministic, still well-spread) and submitted
    /// without one.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] — invalid specs are rejected up front; a shard
    /// refusing admission (queue full) fails the whole submission.
    pub fn submit(&self, spec: CampaignSpec) -> Result<FleetReceipt, SubmitError> {
        spec.validate_with_limit(confbench_types::MAX_CAMPAIGN_CELLS)
            .map_err(SubmitError::Invalid)?;
        let cells = campaign::expand(&spec);
        let mut placed = Vec::with_capacity(cells.len());
        let mut per_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        {
            let ring = self.ring.lock();
            for cell in cells {
                let fingerprint = self.shards[0].gateway.function_fingerprint(&cell.function.name);
                let key = cache_key(&cell, fingerprint.as_deref().unwrap_or_default());
                let shard = ring.owner(&key).expect("fleet has at least one live shard");
                per_shard.entry(shard).or_default().push(placed.len());
                // The job is known once the shard admits its partition.
                let job = JobId(String::new());
                placed.push(PlacedCell { key, addressed: fingerprint.is_some(), cell, shard, job });
            }
        }
        let mut admitted = Vec::with_capacity(per_shard.len());
        for (shard, indices) in per_shard {
            let sched = &self.shards[shard].sched;
            let cells = indices.iter().map(|&i| placed[i].to_submit()).collect();
            match sched.submit_cells(cells, spec.priority, spec.deadline_ms) {
                Ok(partition) => {
                    for (job, &i) in indices.iter().enumerate() {
                        placed[i].job = JobId::in_campaign(&partition.id, job);
                    }
                    admitted.push((sched, partition.id));
                }
                Err(refusal) => {
                    // All-or-nothing across shards: the client is told to
                    // resubmit, so nothing of this attempt may stay queued.
                    for (sched, id) in admitted {
                        sched.cancel_campaign(&id);
                    }
                    return Err(refusal);
                }
            }
        }
        let mut state = self.state.lock();
        state.next_campaign += 1;
        let id = format!("f{}", state.next_campaign);
        let jobs = placed.len();
        state.campaigns.push(FleetCampaign {
            id: id.clone(),
            cells: placed,
            priority: spec.priority,
            deadline_ms: spec.deadline_ms,
        });
        drop(state);
        self.wake();
        self.metrics.counter("fleet_campaigns_total").inc();
        self.metrics.counter("fleet_cells_placed_total").add(jobs as u64);
        Ok(FleetReceipt { id, jobs })
    }

    /// Wakes idle driver threads: work was queued. [`Fleet::submit`],
    /// shard retirement and the router's `POST /v1/campaigns` call it;
    /// whoever queues on [`Fleet::scheduler`] directly calls it after.
    pub fn wake(&self) {
        self.signal.raise(false);
    }

    /// One scheduling pass: [`Fleet::pump_platform`] for every platform,
    /// with one [`Fleet::harvest`] at the end. Returns whether any job was
    /// processed.
    pub fn pump(&self) -> bool {
        let mut progressed = false;
        for platform in TeePlatform::ALL {
            progressed |= self.step_platform(platform);
        }
        self.harvest();
        progressed
    }

    /// A driver thread's pass over one platform: every alive shard steps
    /// its `platform` queue once; a shard whose own queue is empty
    /// *steals* — it runs the deepest other shard's next job on its own
    /// hosts (the victim keeps the bookkeeping and the result lands in the
    /// victim's cache). A pass that processed a job ends with a
    /// [`Fleet::harvest`]. Returns whether any job was processed.
    pub fn pump_platform(&self, platform: TeePlatform) -> bool {
        let progressed = self.step_platform(platform);
        if progressed {
            self.harvest();
        }
        progressed
    }

    fn step_platform(&self, platform: TeePlatform) -> bool {
        let mut progressed = false;
        for id in self.alive_shards() {
            let shard = &self.shards[id];
            if shard.sched.step_with(platform, shard.gateway.as_ref()) {
                progressed = true;
                continue;
            }
            // Own queue empty: steal from the deepest alive victim.
            let victim = self
                .alive_shards()
                .into_iter()
                .filter(|&v| v != id)
                .map(|v| (self.shards[v].sched.queue_depth_for(platform), v))
                .filter(|&(depth, _)| depth > 0)
                .max_by_key(|&(depth, _)| depth)
                .map(|(_, v)| v);
            if let Some(v) = victim {
                if self.shards[v].sched.step_with(platform, shard.gateway.as_ref()) {
                    self.metrics.counter("fleet_steals_total").inc();
                    progressed = true;
                }
            }
        }
        progressed
    }

    /// Spawns `per_platform` driver threads for each TEE platform. A driver
    /// runs [`Fleet::pump_platform`] for its platform and, when a pass
    /// finds nothing queued, sleeps until [`Fleet::wake`];
    /// [`Fleet::shutdown`] stops and joins them.
    pub fn spawn_drivers(self: &Arc<Self>, per_platform: usize) {
        let mut drivers = self.drivers.lock();
        for platform in TeePlatform::ALL {
            for _ in 0..per_platform {
                let fleet = Arc::clone(self);
                drivers.push(std::thread::spawn(move || {
                    let mut seen = Some(0);
                    while let Some(generation) = seen {
                        seen = fleet.signal.next(generation, !fleet.pump_platform(platform));
                    }
                }));
            }
        }
    }

    /// Signals every driver to stop and joins them. Queued jobs stay queued.
    pub fn shutdown(&self) {
        self.signal.raise(true);
        let drivers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.drivers.lock());
        for driver in drivers {
            let _ = driver.join();
        }
    }

    /// Merges into the fleet harvest what every alive shard's result cache
    /// gained since the last harvest: the entries inserted or hit after the
    /// shard's cursor, a key already harvested keeping its first value.
    /// Results harvested once survive any later shard loss.
    ///
    /// This holds every key an alive shard's cache holds, as a merge of
    /// whole snapshots would: a key whose last touch is at or before the
    /// cursor was in the cache, untouched, when the previous harvest read
    /// up to that cursor under the same cache lock, so it was harvested
    /// then. It costs the entries touched since, not the entries cached.
    pub fn harvest(&self) {
        let mut state = self.state.lock();
        let FleetState { harvest, cursors, .. } = &mut *state;
        for id in self.alive_shards() {
            let cache = self.shards[id].sched.result_cache();
            cursors[id] = cache.touched_since(cursors[id], |key, cell| {
                if !harvest.contains_key(key) {
                    harvest.insert(key.to_owned(), cell.clone());
                }
            });
        }
        self.metrics.gauge("fleet_harvest_entries").set(harvest.len() as u64);
    }

    /// Pumps until no shard makes progress and every queue is empty.
    pub fn drain(&self) {
        loop {
            let progressed = self.pump();
            let queued: usize =
                self.alive_shards().iter().map(|&s| self.shards[s].sched.queue_depth()).sum();
            if !progressed && queued == 0 {
                break;
            }
        }
    }

    /// Abruptly kills a shard: it comes off the ring, its queue and its
    /// *unharvested* cache entries are lost. Every campaign cell that was
    /// placed on it and is not yet in the harvest is re-placed on the
    /// ring's new owner. Already-harvested cells are not resubmitted —
    /// that is the dedup guarantee (no cell executes twice *observably*;
    /// work the dead shard finished stays finished).
    ///
    /// Returns how many cells were re-placed. The last alive shard is never
    /// retired, by this or by [`Fleet::drain_shard`]: an empty ring could
    /// place nothing, so the call returns 0 and the shard stays alive.
    pub fn kill_shard(&self, id: usize) -> usize {
        self.retire_shard(id, false)
    }

    /// Gracefully drains a shard: its results are harvested and its cache
    /// entries migrate to the ring's new owners *before* the shard leaves,
    /// so re-placed cells cache-hit on their new shard instead of
    /// re-executing. Returns how many cells were re-placed.
    pub fn drain_shard(&self, id: usize) -> usize {
        self.retire_shard(id, true)
    }

    fn retire_shard(&self, id: usize, graceful: bool) -> usize {
        assert!(id < self.shards.len(), "unknown shard {id}");
        {
            // Decided under the ring lock, so two retirements racing for
            // the last two shards cannot both see the other one as left.
            let mut ring = self.ring.lock();
            if ring.len() <= 1 || !self.shards[id].alive.swap(false, Ordering::SeqCst) {
                return 0;
            }
            ring.remove(id);
        }
        self.metrics.gauge("fleet_shards_alive").set(self.alive_shards().len() as u64);
        // The shard is off the ring, so no harvest reads it again. A
        // graceful drain keeps every result it computed: one snapshot joins
        // the harvest here and moves to the new owners below.
        let handoff = graceful.then(|| self.shards[id].sched.result_cache().snapshot());

        // Re-place orphaned cells. Under a graceful drain the cache
        // entries move first, so the resubmitted duplicates cache-hit.
        let mut replaced = 0;
        let mut state = self.state.lock();
        for (key, cell) in handoff.iter().flatten() {
            if !state.harvest.contains_key(key) {
                state.harvest.insert(key.clone(), cell.clone());
            }
        }
        // Per new owner and campaign, so re-placed cells keep their own
        // campaign's priority and queue deadline.
        let mut resubmit: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        {
            let ring = self.ring.lock();
            for (ci, campaign) in state.campaigns.iter().enumerate() {
                for (pi, placed) in campaign.cells.iter().enumerate() {
                    if placed.shard != id || state.harvest.contains_key(&placed.key) {
                        continue;
                    }
                    let new_owner = ring.owner(&placed.key).expect("ring still has live shards");
                    resubmit.entry((new_owner, ci)).or_default().push(pi);
                }
            }
            for (key, cell) in handoff.into_iter().flatten() {
                if let Some(owner) = ring.owner(&key) {
                    self.shards[owner].sched.result_cache().insert(key, cell);
                }
            }
        }
        for ((owner, ci), batch) in resubmit {
            let campaign = &mut state.campaigns[ci];
            let cells = batch.iter().map(|&pi| campaign.cells[pi].to_submit()).collect();
            // Recovery is never refused: the survivor may go past its queue
            // bound, and refuses new campaigns until it drains.
            let partition = self.shards[owner].sched.readmit_cells(
                cells,
                campaign.priority,
                campaign.deadline_ms,
            );
            for (job, pi) in batch.into_iter().enumerate() {
                let placed = &mut campaign.cells[pi];
                placed.shard = owner;
                placed.job = JobId::in_campaign(&partition.id, job);
                replaced += 1;
            }
        }
        drop(state);
        self.wake();
        self.metrics.counter("fleet_cells_replaced_total").add(replaced as u64);
        replaced
    }

    /// Progress of a fleet campaign, judged against the harvest: a cell is
    /// done once its result is harvested, and failed once its current job
    /// ended without one (asked of each shard once, under its lock).
    pub fn campaign_status(&self, id: &str) -> Option<FleetCampaignStatus> {
        let state = self.state.lock();
        let campaign = state.campaigns.iter().find(|c| c.id == id)?;
        let mut pending: BTreeMap<usize, Vec<&JobId>> = BTreeMap::new();
        for placed in campaign.cells.iter().filter(|p| !state.harvest.contains_key(&p.key)) {
            pending.entry(placed.shard).or_default().push(&placed.job);
        }
        let total = campaign.cells.len();
        let done = total - pending.values().map(Vec::len).sum::<usize>();
        let failed = pending
            .into_iter()
            .map(|(shard, jobs)| self.shards[shard].sched.ended_without_result(jobs))
            .sum();
        Some(FleetCampaignStatus {
            id: campaign.id.clone(),
            total,
            done,
            failed,
            complete: done + failed == total,
        })
    }

    /// The fleet's durable results: content address → cached cell. After
    /// [`Fleet::drain`], serializing this is the byte-identical artifact
    /// the chaos tests compare against a single-gateway control.
    pub fn results(&self) -> BTreeMap<String, CachedCell> {
        self.state.lock().harvest.clone()
    }

    /// Per-shard status rows plus ring occupancy, for `GET /v1/fleet`.
    pub fn status(&self) -> Vec<ShardStatus> {
        (0..self.shards.len())
            .map(|id| {
                let shard = &self.shards[id];
                ShardStatus {
                    shard: id,
                    alive: shard.alive.load(Ordering::SeqCst),
                    queue_depth: shard.sched.queue_depth(),
                    cache_entries: shard.sched.result_cache().len(),
                    cache_hits: shard.metrics.counter("sched_cache_hits_total").get(),
                    cache_misses: shard.metrics.counter("sched_cache_misses_total").get(),
                }
            })
            .collect()
    }

    /// Total executions across the fleet (sum of per-shard cache misses):
    /// with dedup working, this equals the number of *unique* cells ever
    /// placed, no matter how many shards died mid-campaign.
    pub fn total_executions(&self) -> u64 {
        self.shards.iter().map(|s| s.metrics.counter("sched_cache_misses_total").get()).sum()
    }

    /// Total cross-shard steals.
    pub fn steals(&self) -> u64 {
        self.metrics.counter("fleet_steals_total").get()
    }

    /// Runs one demonstration live migration: boots a source VM for
    /// `target`, warms it with `warmup` traces, then migrates it to a
    /// fresh host (re-attesting through the fleet's shared session cache)
    /// and records the report. This is what `POST /v1/migrations` and the
    /// CLI's `migrate` command execute.
    ///
    /// # Errors
    ///
    /// [`MigrationError`] (the source VM is dropped here; REST callers get
    /// the message).
    pub fn run_migration(
        &self,
        target: VmTarget,
        warmup: &[confbench_types::OpTrace],
        cfg: &MigrationConfig,
    ) -> Result<MigrationReport, MigrationError> {
        let mut source = TeeVmBuilder::new(target)
            .seed(self.seed)
            .try_build()
            .expect("no fault plan is installed on the source, so its boot cannot fail");
        let target_builder = TeeVmBuilder::new(target).seed(self.seed ^ 0x5EED);
        let warmed = warmup.iter().try_for_each(|trace| source.try_execute(trace).map(drop));
        let result = match warmed {
            Ok(()) => migrate(source, target_builder, &self.attest, &[], cfg),
            Err(fault) => {
                Err(MigrationError::Fault { stage: "execute", fault, source: Box::new(source) })
            }
        };
        match &result {
            Ok((_, report)) => {
                self.metrics.counter("migrations_total").inc();
                self.metrics
                    .counter("migration_rounds_total")
                    .add(u64::from(report.precopy_rounds) + u64::from(report.stopcopy_pages > 0));
                self.metrics.counter("migration_pages_copied_total").add(report.pages_total);
                self.metrics.gauge("migration_last_downtime_us").set(report.downtime_us);
                self.state.lock().migrations.push(report.clone());
            }
            Err(_) => {
                self.metrics.counter("migrations_failed_total").inc();
            }
        }
        result.map(|(_, report)| report)
    }

    /// Reports of migrations run so far (`GET /v1/migrations`).
    pub fn migrations(&self) -> Vec<MigrationReport> {
        self.state.lock().migrations.clone()
    }

    /// How many migrations have run (`GET /v1/fleet`), counted without
    /// copying their reports.
    pub fn migration_count(&self) -> usize {
        self.state.lock().migrations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_crypto::fuzz::sweep_iters;
    use confbench_crypto::SplitMix64;
    use confbench_types::{CampaignFunction, Language, ManualClock, VmKind};

    const SEED: u64 = 11;

    /// `factors` of each argument on every platform and mode, one trial:
    /// specs that share an argument share its six cells.
    fn spec(args: &[&str]) -> CampaignSpec {
        CampaignSpec {
            functions: args.iter().map(|&a| CampaignFunction::new("factors").arg(a)).collect(),
            languages: vec![Language::Go],
            platforms: TeePlatform::ALL.to_vec(),
            modes: vec![VmKind::Secure, VmKind::Normal],
            trials: 1,
            seed: SEED,
            priority: Priority::Normal,
            deadline_ms: None,
            device: None,
        }
    }

    /// The reference harvest: every alive shard's whole result-cache
    /// snapshot, first key wins.
    fn merge_snapshots(fleet: &Fleet, into: &mut BTreeMap<String, CachedCell>) {
        for id in fleet.alive_shards() {
            for (key, cell) in fleet.shards[id].sched.result_cache().snapshot() {
                into.entry(key).or_insert(cell);
            }
        }
    }

    /// The single-gateway control: the same specs on one scheduler.
    fn control_bytes(specs: &[CampaignSpec]) -> Vec<u8> {
        let clock: Arc<dyn Clock> = Arc::new(ManualClock::new());
        let gateway = Arc::new(
            Gateway::builder()
                .seed(SEED)
                .clock(Arc::clone(&clock))
                .local_host(TeePlatform::Tdx)
                .local_host(TeePlatform::SevSnp)
                .local_host(TeePlatform::Cca)
                .build(),
        );
        let sched = Scheduler::with_metrics(
            Arc::clone(&gateway) as Arc<dyn Executor>,
            clock,
            SchedulerConfig::default(),
            Arc::clone(gateway.metrics()),
        );
        for spec in specs {
            sched.submit(spec.clone()).expect("control campaign admitted");
        }
        sched.drain();
        serde_json::to_vec(&sched.result_cache().snapshot()).expect("snapshot serializes")
    }

    /// A pass whose harvest never comes: every alive shard steps each of
    /// its platform queues once.
    fn pass_without_harvest(fleet: &Fleet) {
        for shard in fleet.alive_shards().into_iter().map(|id| &fleet.shards[id]) {
            for platform in TeePlatform::ALL {
                shard.sched.step_with(platform, shard.gateway.as_ref());
            }
        }
    }

    /// Retires a shard, abruptly or gracefully. For a drain, `reference`
    /// takes the shard's snapshot as the snapshot-merge harvest did.
    /// Returns the cells re-placed and how many results the shard held
    /// unharvested when it left: a kill loses them, a drain keeps them.
    fn retire(
        fleet: &Fleet,
        id: usize,
        graceful: bool,
        reference: &mut BTreeMap<String, CachedCell>,
    ) -> (usize, usize) {
        let alive = fleet.alive_shards();
        if alive.len() < 2 || !alive.contains(&id) {
            let replaced = if graceful { fleet.drain_shard(id) } else { fleet.kill_shard(id) };
            assert_eq!(replaced, 0, "shard {id} cannot retire");
            return (0, 0);
        }
        let cached = fleet.shards[id].sched.result_cache().snapshot();
        let unharvested = cached.keys().filter(|k| !reference.contains_key(*k)).count();
        if !graceful {
            return (fleet.kill_shard(id), unharvested);
        }
        for (key, cell) in cached {
            reference.entry(key).or_insert(cell);
        }
        (fleet.drain_shard(id), unharvested)
    }

    /// Driver threads drain a placed campaign without any pump from the
    /// caller, woken by the submission, and stop and join on shutdown.
    #[test]
    fn driver_threads_drain_and_shut_down() {
        let fleet = Arc::new(Fleet::new(FleetConfig { seed: SEED, ..FleetConfig::default() }));
        fleet.spawn_drivers(2);
        let receipt = fleet.submit(spec(&["360", "5040"])).expect("fleet campaign admitted");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !fleet.campaign_status(&receipt.id).is_some_and(|s| s.complete) {
            assert!(std::time::Instant::now() < deadline, "drivers did not drain in time");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        fleet.shutdown();
        assert!(fleet.drivers.lock().is_empty());
        assert_eq!(fleet.total_executions(), 12);
    }

    /// Every placed cell carries to its job the content address it was
    /// placed by, and that is the key the step would compute:
    /// `cache_key(cell, fingerprint)`, in every drained summary.
    #[test]
    fn placed_cells_carry_their_content_address() {
        let fleet = Fleet::new(FleetConfig {
            seed: SEED,
            clock: Arc::new(ManualClock::new()),
            ..FleetConfig::default()
        });
        let receipt = fleet.submit(spec(&["360", "5040"])).expect("fleet campaign admitted");
        fleet.drain();
        let state = fleet.state.lock();
        let campaign = state.campaigns.iter().find(|c| c.id == receipt.id).expect("tracked");
        for placed in &campaign.cells {
            let fingerprint = fleet.store().fingerprint(&placed.cell.function.name);
            let want = cache_key(&placed.cell, &fingerprint.expect("built in").to_string());
            assert_eq!(placed.key, want);
            let job = fleet.shards[placed.shard].sched.job_status(&placed.job).expect("job");
            assert_eq!(job.summary.expect("completed").cache_key, want);
        }
    }

    /// A cell whose job fails is terminal: once drained, a campaign of one
    /// failing and one passing cell is complete, with the failure counted —
    /// also when the shard holding the cells is killed before they ran, so
    /// they are re-placed on new jobs.
    #[test]
    fn campaign_with_a_failing_cell_completes() {
        let spec = CampaignSpec {
            functions: vec![
                CampaignFunction::new("nope").arg("1"),
                CampaignFunction::new("fib").arg("5"),
            ],
            platforms: vec![TeePlatform::Tdx],
            modes: vec![VmKind::Secure],
            ..spec(&[])
        };
        for victim in [None, Some(0), Some(1), Some(2)] {
            let fleet = Fleet::new(FleetConfig {
                seed: SEED,
                clock: Arc::new(ManualClock::new()),
                platforms: vec![TeePlatform::Tdx],
                ..FleetConfig::default()
            });
            let receipt = fleet.submit(spec.clone()).expect("fleet campaign admitted");
            if let Some(id) = victim {
                fleet.kill_shard(id);
            }
            fleet.drain();
            let status = fleet.campaign_status(&receipt.id).expect("tracked");
            assert_eq!(
                (status.total, status.done, status.failed, status.complete),
                (2, 1, 1, true),
                "victim {victim:?}: {status:?}"
            );
        }
    }

    /// The harvest's oracle at fleet scale. Random sequences of submits,
    /// resubmits and pumps on a three-shard fleet, with kills and graceful
    /// drains that come between two pumps or cut a pass short before its
    /// harvest. After every operation the cursor harvest equals the
    /// full-snapshot merge it replaced. Once the fleet drains, its results
    /// are byte-identical to the single-gateway control.
    #[test]
    fn fuzz_sweep_harvest_cursors_equal_snapshot_merge() {
        let pool = [spec(&["360"]), spec(&["360", "5040"]), spec(&["5040", "720"])];
        let (mut replaced, mut lost, mut kept) = (0, 0, 0);
        for case in 0..(sweep_iters() / 20).max(1) as u64 {
            let mut rng = SplitMix64::new(0xF1EE_0000 ^ case);
            let fleet = Fleet::new(FleetConfig {
                seed: SEED,
                clock: Arc::new(ManualClock::new()),
                ..FleetConfig::default()
            });
            let mut reference = BTreeMap::new();
            let mut submitted: Vec<CampaignSpec> = Vec::new();
            let pick = |rng: &mut SplitMix64, n: usize| rng.next_below(n as u64) as usize;
            for op in 0..8 + rng.next_below(24) {
                let id = pick(&mut rng, fleet.shard_count());
                match rng.next_below(10) {
                    kind @ (0 | 1) => {
                        let spec = match kind {
                            1 if !submitted.is_empty() => {
                                &submitted[pick(&mut rng, submitted.len())]
                            }
                            _ => &pool[pick(&mut rng, pool.len())],
                        }
                        .clone();
                        fleet.submit(spec.clone()).expect("fleet campaign admitted");
                        submitted.push(spec);
                    }
                    kind @ (2..=5) => {
                        if kind % 2 == 0 {
                            pass_without_harvest(&fleet);
                        }
                        let graceful = kind >= 4;
                        let (placed, unharvested) = retire(&fleet, id, graceful, &mut reference);
                        replaced += placed;
                        if graceful {
                            kept += unharvested;
                        } else {
                            lost += unharvested;
                        }
                    }
                    _ => {
                        fleet.pump();
                        merge_snapshots(&fleet, &mut reference);
                    }
                }
                assert_eq!(fleet.results(), reference, "case {case}, op {op}");
            }
            fleet.drain();
            merge_snapshots(&fleet, &mut reference);
            assert_eq!(fleet.results(), reference, "case {case}, drained");
            assert_eq!(
                serde_json::to_vec(&fleet.results()).unwrap(),
                control_bytes(&submitted),
                "case {case}: results differ from the single-gateway control"
            );
        }
        assert!(replaced > 0 && lost > 0 && kept > 0, "{replaced} / {lost} / {kept}");
    }
}
