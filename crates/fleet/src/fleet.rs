//! The fleet orchestrator: N gateway shards behind one consistent-hash
//! ring, with cross-shard work stealing and kill/drain recovery.
//!
//! # Determinism and dedup
//!
//! Every shard is built with the *same* seed, shares one
//! [`FunctionStore`], and shares one [`AttestService`]. Same seed + same
//! store means any shard executes any cell byte-identically, so a cell
//! re-placed after a host dies reproduces exactly the result the dead
//! host would have computed. The *harvest* — a fleet-level map that each
//! pump extends with what every alive shard's result cache gained since
//! the last pump — is the campaign's durable record: anything harvested
//! survives any later host loss, and it only grows.
//!
//! So the harvest is also the first cache a placement reads: a cell whose
//! content address (`cache_key`) it holds is done at placement, and never
//! reaches a shard — no job, no queue entry, no step, and no driver wake
//! when nothing at all was queued. A resubmitted campaign that finished
//! is complete before any pump. Every other cell is placed by its content
//! address on the ring, so a resubmission of work not yet harvested routes
//! to the shard whose result cache already holds it; a drained shard hands
//! its cache entries to the new owners first, so re-placed work cache-hits
//! instead of re-executing.
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
//! campaign with one pool of driver threads ([`Fleet::spawn_drivers`]):
//! every driver steps every platform of every alive shard, steals for
//! shards whose own queue is empty, harvests, and sleeps until a
//! submission wakes it. The routes that queue work wake the pool only once
//! their answer is written, so a receipt never waits behind the drivers.
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
use confbench_crypto::Digest;
use confbench_obs::{Counter, Gauge, MetricsRegistry, RegistrySnapshot};
use confbench_sched::{
    cache_address, campaign, CachedCell, Executor, ResultCache, Scheduler, SchedulerConfig,
    SubmitError, DEFAULT_CACHE_CAPACITY,
};
use confbench_types::{CampaignSpec, JobState, Priority, TeePlatform, VmTarget};
use confbench_vmm::TeeVmBuilder;
use parking_lot::{Condvar, Mutex};
use serde::Serialize;

use crate::migrate::{migrate, MigrationConfig, MigrationError, MigrationRecord, MigrationReport};
use crate::ring::HashRing;

/// Virtual nodes per shard on the placement ring.
const VNODES: usize = 32;

/// The shard owning `key` on the ring. The ring is never empty — no
/// retirement takes the last alive shard off it — so the fallback to shard
/// 0 is never taken.
fn owner(ring: &HashRing, key: &Digest) -> usize {
    ring.owner_of(key).unwrap_or(0)
}

/// The name of every driver thread ([`Fleet::spawn_drivers`]).
pub const DRIVER_THREAD: &str = "fleet-driver";

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

/// One fleet-level campaign: its partitions, whose job records are the one
/// record of their cells, and the count of cells that have no live job.
/// Campaign `f{n}` is the `n`-th recorded ([`Fleet::record`]).
struct FleetCampaign {
    /// `(shard, scheduler campaign number)` of each partition on a shard
    /// that has not retired.
    partitions: Vec<(usize, usize)>,
    /// Cells done without a live job: those the harvest answered at
    /// placement, and those harvested before their shard retired. They are
    /// done for good: the harvest only grows.
    done: usize,
    priority: Priority,
    deadline_ms: Option<u64>,
}

#[derive(Default)]
struct FleetState {
    /// Campaign `f{n}` at index `n - 1`.
    campaigns: Vec<FleetCampaign>,
    /// Fleet-durable results: what shard caches gained, after every pump,
    /// each shared with the cache it came from. Keyed by address, which
    /// orders as its hex text does.
    harvest: BTreeMap<Digest, Arc<CachedCell>>,
    /// Per shard, the result-cache tick the harvest has read up to.
    cursors: Vec<u64>,
    migrations: Vec<MigrationRecord>,
}

impl FleetState {
    /// The campaign minted as `id`: found by the number in it, then
    /// checked whole, so `f01` or `f+1` is no alias of `f1`.
    fn campaign(&self, id: &str) -> Option<&FleetCampaign> {
        let n: usize = id.strip_prefix('f')?.parse().ok()?;
        if format!("f{n}") != id {
            return None;
        }
        self.campaigns.get(n.checked_sub(1)?)
    }
}

/// Receipt for a fleet campaign submission.
#[derive(Debug, Clone, Serialize)]
pub struct FleetReceipt {
    /// Fleet-level campaign id.
    pub id: String,
    /// The campaign's cells: those queued on shards plus those the harvest
    /// answered at placement.
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
    /// The shard's cache hits (jobs served without executing). Cells the
    /// fleet harvest answers at placement never reach a shard, so they are
    /// not counted here but in `fleet_cells_from_harvest_total`.
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
    migration_metrics: MigrationMetrics,
    seed: u64,
    state: Mutex<FleetState>,
    signal: WakeSignal,
    drivers: Mutex<Drivers>,
}

/// Cached `migration*` instrument handles, registered with the fleet.
struct MigrationMetrics {
    total: Arc<Counter>,
    failed: Arc<Counter>,
    rounds: Arc<Counter>,
    pages_copied: Arc<Counter>,
    last_downtime_us: Arc<Gauge>,
}

impl MigrationMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        MigrationMetrics {
            total: registry.counter("migrations_total"),
            failed: registry.counter("migrations_failed_total"),
            rounds: registry.counter("migration_rounds_total"),
            pages_copied: registry.counter("migration_pages_copied_total"),
            last_downtime_us: registry.gauge("migration_last_downtime_us"),
        }
    }
}

/// Wakeup channel between submitters and driver threads: a generation
/// counter, moved on by every wake, and how many spawns of drivers are told
/// to stop.
#[derive(Default)]
struct WakeSignal {
    state: Mutex<Wake>,
    cv: Condvar,
}

#[derive(Default)]
struct Wake {
    generation: u64,
    /// Spawns `1..=stopped` are told to stop; a later spawn runs.
    stopped: u64,
}

impl WakeSignal {
    /// Moves the generation on and wakes every waiter.
    fn raise(&self) {
        self.update(|wake| wake.generation += 1);
    }

    /// Tells every spawn up to `spawn` to stop, and wakes every waiter.
    fn stop(&self, spawn: u64) {
        self.update(|wake| wake.stopped = wake.stopped.max(spawn));
    }

    fn update(&self, f: impl FnOnce(&mut Wake)) {
        f(&mut self.state.lock());
        self.cv.notify_all();
    }

    /// For a driver of spawn number `spawn`: the latest generation — when
    /// `idle`, once it has moved past `seen` — or `None` once the spawn is
    /// told to stop.
    fn next(&self, spawn: u64, seen: u64, idle: bool) -> Option<u64> {
        let mut state = self.state.lock();
        while idle && state.generation == seen && state.stopped < spawn {
            state = self.cv.wait(state);
        }
        (state.stopped < spawn).then_some(state.generation)
    }
}

/// The driver threads running, and how many times drivers were spawned.
#[derive(Default)]
struct Drivers {
    spawns: u64,
    threads: Vec<JoinHandle<()>>,
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
        // Rendered from the start, as zero until a placement reads the harvest.
        metrics.counter("fleet_cells_from_harvest_total");
        Fleet {
            shards,
            ring: Mutex::new(ring),
            store,
            attest,
            migration_metrics: MigrationMetrics::register(&metrics),
            metrics,
            seed: config.seed,
            state: Mutex::new(FleetState {
                cursors: vec![0; config.shards],
                ..FleetState::default()
            }),
            signal: WakeSignal::default(),
            drivers: Mutex::new(Drivers::default()),
        }
    }

    /// Shard `id`, an id the ring gave or the caller checked: an unknown
    /// one panics (the REST routes answer 404 for it first).
    fn shard(&self, id: usize) -> &Shard {
        self.shards.get(id).unwrap_or_else(|| panic!("unknown shard {id}"))
    }

    /// The alive shards (those on the ring), with their ids.
    fn alive(&self) -> impl Iterator<Item = (usize, &Shard)> {
        self.shards.iter().enumerate().filter(|(_, shard)| shard.alive.load(Ordering::SeqCst))
    }

    /// Shard 0's gateway: the one `/v1/run` dispatches through.
    pub fn gateway(&self) -> &Arc<Gateway> {
        &self.shard(0).gateway
    }

    /// Shard 0's scheduler: the one `/v1/campaigns` and `/v1/jobs` serve.
    /// Idle shards steal its work like any other shard's.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.shard(0).sched
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
        &self.shard(shard).metrics
    }

    /// A shard's result cache (what it served or computed; snapshots,
    /// occupancy).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range shard id.
    pub fn shard_cache(&self, shard: usize) -> &ResultCache {
        self.shard(shard).sched.result_cache()
    }

    /// Number of shards built (alive or not).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Ids of shards currently alive (on the ring).
    pub fn alive_shards(&self) -> Vec<usize> {
        self.alive().map(|(id, _)| id).collect()
    }

    /// Validates, expands, and places a campaign across the fleet, then
    /// wakes the drivers ([`Fleet::wake`]) if any cell was queued. A cell
    /// whose content address the harvest holds is done at placement: it is
    /// queued nowhere. Every other cell goes to the shard owning its
    /// content address on the ring, and carries the address to that
    /// shard's job, so no shard hashes it again. Every shard shares one
    /// store, whose names are immutable, so the address is the one the
    /// shard would compute. A function the store does not know is placed by
    /// its address under an empty fingerprint (still deterministic, still
    /// well-spread) and submitted without one.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] — invalid specs are rejected up front; a shard
    /// refusing admission (queue full) fails the whole submission.
    pub fn submit(&self, spec: CampaignSpec) -> Result<FleetReceipt, SubmitError> {
        let (receipt, queued) = self.place(spec)?;
        if queued > 0 {
            self.wake();
        }
        Ok(receipt)
    }

    /// [`Fleet::submit`] without the wake, returning with the receipt how
    /// many cells were queued: `POST /v1/fleet/campaigns` wakes the drivers
    /// once its receipt is written, if that is not zero.
    pub(crate) fn place(&self, spec: CampaignSpec) -> Result<(FleetReceipt, usize), SubmitError> {
        let (campaign, queued) = self.enqueue(spec)?;
        Ok(self.record(campaign, queued))
    }

    /// The first half of [`Fleet::place`]: addresses the campaign's cells,
    /// answers those the harvest holds, and queues the others on their ring
    /// owners, one partition a shard, under no fleet lock. Returns the
    /// campaign, not yet recorded, and how many cells it queued.
    fn enqueue(&self, spec: CampaignSpec) -> Result<(FleetCampaign, usize), SubmitError> {
        spec.validate_with_limit(confbench_types::MAX_CAMPAIGN_CELLS)
            .map_err(SubmitError::Invalid)?;
        // Content addresses before any lock, one fingerprint per function.
        let mut fingerprints: BTreeMap<&str, Option<String>> = BTreeMap::new();
        for function in &spec.functions {
            fingerprints
                .entry(&function.name)
                .or_insert_with(|| self.gateway().function_fingerprint(&function.name));
        }
        let cells = campaign::expand(&spec);
        let total = cells.len();
        let addressed: Vec<_> = cells
            .into_iter()
            .map(|cell| {
                let fingerprint =
                    fingerprints.get(cell.function.name.as_str()).and_then(Option::as_deref);
                let key = cache_address(&cell, fingerprint.unwrap_or_default());
                (key, fingerprint.is_some(), cell)
            })
            .collect();
        let unharvested: Vec<_> = {
            let state = self.state.lock();
            addressed.into_iter().filter(|(key, ..)| !state.harvest.contains_key(key)).collect()
        };
        let queued = unharvested.len();
        // A cell harvested from here on is queued anyway and cache-hits on
        // its owner: harmless, only not skipped.
        let mut per_shard: BTreeMap<usize, Vec<_>> = BTreeMap::new();
        let ring = self.ring.lock();
        for (key, addressed, cell) in unharvested {
            let cells = per_shard.entry(owner(&ring, &key)).or_default();
            cells.push((Arc::new(cell), addressed.then_some(key)));
        }
        drop(ring);
        let mut campaign = FleetCampaign {
            partitions: Vec::with_capacity(per_shard.len()),
            done: total - queued,
            priority: spec.priority,
            deadline_ms: spec.deadline_ms,
        };
        for (shard, cells) in per_shard {
            match self.shard(shard).sched.submit_cells(cells, spec.priority, spec.deadline_ms) {
                Ok(number) => campaign.partitions.push((shard, number)),
                Err(refusal) => {
                    // All-or-nothing across shards: the client is told to
                    // resubmit, so nothing of this attempt may stay queued.
                    for &(shard, number) in &campaign.partitions {
                        self.shard(shard).sched.cancel(number);
                    }
                    return Err(refusal);
                }
            }
        }
        Ok((campaign, queued))
    }

    /// The second half of [`Fleet::place`]: mints the campaign's id and
    /// records it, so that a shard retired from now on re-places its cells.
    /// A shard retired since [`Fleet::enqueue`] read the ring did not see
    /// the campaign, so its partition is re-placed here: a retirement marks
    /// the shard dead under the ring lock before it takes `state`, so either
    /// it finds the campaign recorded or this finds the shard dead.
    fn record(&self, mut campaign: FleetCampaign, queued: usize) -> (FleetReceipt, usize) {
        let from_harvest = campaign.done;
        let mut state = self.state.lock();
        let dead = |shard: usize| !self.shard(shard).alive.load(Ordering::SeqCst);
        let replaced = self.replace_cells(&mut campaign, &state.harvest, &self.ring.lock(), dead);
        let id = format!("f{}", state.campaigns.len() + 1);
        let receipt = FleetReceipt { id, jobs: from_harvest + queued };
        state.campaigns.push(campaign);
        drop(state);
        self.metrics.counter("fleet_campaigns_total").inc();
        self.metrics.counter("fleet_cells_placed_total").add(queued as u64);
        self.metrics.counter("fleet_cells_from_harvest_total").add(from_harvest as u64);
        if replaced > 0 {
            self.metrics.counter("fleet_cells_replaced_total").add(replaced as u64);
        }
        (receipt, queued)
    }

    /// Retires the partitions of `campaign` on a shard `gone` names. A job
    /// whose address the harvest holds joins the campaign's done cells. The
    /// others, failed ones too, are readmitted, each on the ring owner of
    /// its address (a job with none yet by its address under an empty
    /// fingerprint), keeping the campaign's priority and queue deadline.
    /// Recovery is never refused: a survivor may go past its queue bound,
    /// and refuses new campaigns until it drains. Returns how many cells
    /// were re-placed.
    fn replace_cells(
        &self,
        campaign: &mut FleetCampaign,
        harvest: &BTreeMap<Digest, Arc<CachedCell>>,
        ring: &HashRing,
        gone: impl Fn(usize) -> bool,
    ) -> usize {
        let mut per_owner: BTreeMap<usize, Vec<_>> = BTreeMap::new();
        let FleetCampaign { partitions, done, .. } = campaign;
        partitions.retain(|&(shard, number)| {
            if !gone(shard) {
                return true;
            }
            self.shard(shard).sched.for_each_job(number, |cell, key, _| {
                if key.is_some_and(|key| harvest.contains_key(&key)) {
                    *done += 1;
                } else {
                    let address = key.unwrap_or_else(|| cache_address(cell, ""));
                    let cells = per_owner.entry(owner(ring, &address)).or_default();
                    cells.push((Arc::clone(cell), key));
                }
            });
            false
        });
        let replaced = per_owner.values().map(Vec::len).sum();
        for (owner, cells) in per_owner {
            let sched = &self.shard(owner).sched;
            let number = sched.readmit_cells(cells, campaign.priority, campaign.deadline_ms);
            campaign.partitions.push((owner, number));
        }
        replaced
    }

    /// Wakes idle driver threads: work was queued. [`Fleet::submit`],
    /// [`Fleet::kill_shard`] and [`Fleet::drain_shard`] call it; the routes
    /// that queue work call it once their answer is written; whoever queues
    /// on [`Fleet::scheduler`] directly calls it after.
    pub fn wake(&self) {
        self.signal.raise();
    }

    /// How many wakes there have been.
    #[cfg(test)]
    pub(crate) fn wakes(&self) -> u64 {
        self.signal.state.lock().generation
    }

    /// One scheduling pass, what a driver thread runs: for every platform,
    /// every alive shard steps its queue once, and a shard whose own queue
    /// is empty *steals* — it runs the deepest other shard's next job on its
    /// own hosts (the victim keeps the bookkeeping and the result lands in
    /// the victim's cache). The pass ends with one [`Fleet::harvest`].
    /// Returns whether any job was processed.
    pub fn pump(&self) -> bool {
        let mut progressed = false;
        for platform in TeePlatform::ALL {
            progressed |= self.step_platform(platform);
        }
        self.harvest();
        progressed
    }

    fn step_platform(&self, platform: TeePlatform) -> bool {
        let mut progressed = false;
        for (id, shard) in self.alive() {
            if shard.sched.step_with(platform, shard.gateway.as_ref()) {
                progressed = true;
                continue;
            }
            // Own queue empty: steal from the deepest alive victim.
            let victim = self
                .alive()
                .filter(|&(v, _)| v != id)
                .map(|(_, victim)| (victim.sched.queue_depth_for(platform), victim))
                .filter(|&(depth, _)| depth > 0)
                .max_by_key(|&(depth, _)| depth)
                .map(|(_, victim)| victim);
            if let Some(victim) = victim {
                if victim.sched.step_with(platform, shard.gateway.as_ref()) {
                    self.metrics.counter("fleet_steals_total").inc();
                    progressed = true;
                }
            }
        }
        progressed
    }

    /// Spawns `n` driver threads in all. Drivers are alike: each runs
    /// [`Fleet::pump`] over every platform and shard and, when a pass
    /// processes nothing, sleeps until [`Fleet::wake`]. Which driver runs a
    /// cell leaves no trace in its result: every shard executes any cell
    /// byte-identically. [`Fleet::shutdown`] stops and joins them; drivers
    /// spawned after it run.
    ///
    /// # Errors
    ///
    /// The system refusing a thread. The drivers spawned before it keep
    /// running, until [`Fleet::shutdown`].
    pub fn spawn_drivers(self: &Arc<Self>, n: usize) -> std::io::Result<()> {
        let mut drivers = self.drivers.lock();
        drivers.spawns += 1;
        let spawn = drivers.spawns;
        for _ in 0..n {
            let fleet = Arc::clone(self);
            let driver =
                std::thread::Builder::new().name(DRIVER_THREAD.into()).spawn(move || {
                    let mut seen = Some(0);
                    while let Some(generation) = seen {
                        seen = fleet.signal.next(spawn, generation, !fleet.pump());
                    }
                })?;
            drivers.threads.push(driver);
        }
        Ok(())
    }

    /// Signals every running driver to stop and joins them. Queued jobs stay
    /// queued, for the next [`Fleet::spawn_drivers`] or [`Fleet::drain`].
    pub fn shutdown(&self) {
        let threads = {
            let mut drivers = self.drivers.lock();
            self.signal.stop(drivers.spawns);
            std::mem::take(&mut drivers.threads)
        };
        for driver in threads {
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
        for (shard, cursor) in self.shards.iter().zip(cursors) {
            if shard.alive.load(Ordering::SeqCst) {
                *cursor = shard.sched.result_cache().touched_since(*cursor, |key, cell| {
                    harvest.entry(*key).or_insert_with(|| Arc::clone(cell));
                });
            }
        }
        self.metrics.gauge("fleet_harvest_entries").set(harvest.len() as u64);
    }

    /// Pumps until no shard makes progress and every queue is empty.
    pub fn drain(&self) {
        loop {
            let progressed = self.pump();
            let queued: usize = self.alive().map(|(_, shard)| shard.sched.queue_depth()).sum();
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
        let replaced = self.retire_shard(id, false);
        self.wake();
        replaced
    }

    /// Gracefully drains a shard: its results are harvested and its cache
    /// entries migrate to the ring's new owners *before* the shard leaves,
    /// so re-placed cells cache-hit on their new shard instead of
    /// re-executing. Returns how many cells were re-placed.
    pub fn drain_shard(&self, id: usize) -> usize {
        let replaced = self.retire_shard(id, true);
        self.wake();
        replaced
    }

    /// [`Fleet::kill_shard`] (`graceful` false) or [`Fleet::drain_shard`]
    /// without the wake: the shard routes wake the drivers once their
    /// answer is written.
    pub(crate) fn retire_shard(&self, id: usize, graceful: bool) -> usize {
        let shard = self.shard(id);
        {
            // Decided under the ring lock, so two retirements racing for
            // the last two shards cannot both see the other one as left.
            let mut ring = self.ring.lock();
            if ring.len() <= 1 || !shard.alive.swap(false, Ordering::SeqCst) {
                return 0;
            }
            ring.remove(id);
        }
        self.metrics.gauge("fleet_shards_alive").set(self.alive().count() as u64);
        // The shard is off the ring, so no harvest reads it again. A
        // graceful drain keeps every result it computed: its whole cache, in
        // address order, joins the harvest here and moves to the new owners
        // below.
        let handoff = graceful.then(|| {
            let mut entries = BTreeMap::new();
            shard.sched.result_cache().touched_since(0, |key, cell| {
                entries.insert(*key, Arc::clone(cell));
            });
            entries
        });

        // Re-place orphaned cells. Under a graceful drain the cache
        // entries move first, so the resubmitted duplicates cache-hit.
        let mut state = self.state.lock();
        let FleetState { harvest, campaigns, .. } = &mut *state;
        for (key, cell) in handoff.iter().flatten() {
            harvest.entry(*key).or_insert_with(|| Arc::clone(cell));
        }
        let ring = self.ring.lock();
        for (key, cell) in handoff.into_iter().flatten() {
            if let Some(owner) = ring.owner_of(&key) {
                self.shard(owner).sched.result_cache().insert(key, cell);
            }
        }
        let replaced: usize = campaigns
            .iter_mut()
            .map(|campaign| self.replace_cells(campaign, harvest, &ring, |shard| shard == id))
            .sum();
        drop(ring);
        drop(state);
        self.metrics.counter("fleet_cells_replaced_total").add(replaced as u64);
        replaced
    }

    /// Progress of a fleet campaign, judged against the harvest: a cell is
    /// done if the harvest answered it at placement or once the address its
    /// job carries is harvested, and failed once its job ended without a
    /// result. Each partition's jobs are copied out under its shard's lock,
    /// once, and judged against the harvest after it is released. A
    /// campaign the harvest answered whole is complete before any pump.
    pub fn campaign_status(&self, id: &str) -> Option<FleetCampaignStatus> {
        let state = self.state.lock();
        let campaign = state.campaign(id)?;
        let mut jobs = Vec::new();
        for &(shard, number) in &campaign.partitions {
            self.shard(shard).sched.for_each_job(number, |_, key, job| jobs.push((key, job)));
        }
        let (mut done, mut failed) = (campaign.done, 0);
        for (key, job) in jobs.iter() {
            if key.is_some_and(|key| state.harvest.contains_key(&key)) {
                done += 1;
            } else if matches!(job, JobState::Failed | JobState::Expired | JobState::Cancelled) {
                failed += 1;
            }
        }
        let total = campaign.done + jobs.len();
        Some(FleetCampaignStatus {
            id: id.to_owned(),
            total,
            done,
            failed,
            complete: done + failed == total,
        })
    }

    /// The fleet's durable results: content address, as its hex text →
    /// cached cell. After [`Fleet::drain`], serializing this is the
    /// byte-identical artifact the chaos tests compare against a
    /// single-gateway control's [`ResultCache::snapshot`].
    pub fn results(&self) -> BTreeMap<String, CachedCell> {
        let state = self.state.lock();
        state.harvest.iter().map(|(key, cell)| (key.to_string(), CachedCell::clone(cell))).collect()
    }

    /// Per-shard status rows plus ring occupancy, for `GET /v1/fleet`.
    pub fn status(&self) -> Vec<ShardStatus> {
        self.shards
            .iter()
            .enumerate()
            .map(|(id, shard)| ShardStatus {
                shard: id,
                alive: shard.alive.load(Ordering::SeqCst),
                queue_depth: shard.sched.queue_depth(),
                cache_entries: shard.sched.result_cache().len(),
                cache_hits: shard.metrics.counter("sched_cache_hits_total").get(),
                cache_misses: shard.metrics.counter("sched_cache_misses_total").get(),
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
    /// and keeps its [`MigrationRecord`]. This is what `POST /v1/migrations`
    /// and the CLI's `migrate` command execute.
    ///
    /// # Errors
    ///
    /// [`MigrationError`] (the source VM is dropped here; REST callers get
    /// the message). No fault plan is installed on the source, so
    /// [`MigrationError::SourceBoot`] is not expected, but it is answered
    /// like the others.
    pub fn run_migration(
        &self,
        target: VmTarget,
        warmup: &[confbench_types::OpTrace],
        cfg: &MigrationConfig,
    ) -> Result<MigrationReport, MigrationError> {
        let result = match TeeVmBuilder::new(target).seed(self.seed).try_build() {
            Err(fault) => Err(MigrationError::SourceBoot { fault }),
            Ok(mut source) => {
                let target_builder = TeeVmBuilder::new(target).seed(self.seed ^ 0x5EED);
                match warmup.iter().try_for_each(|trace| source.try_execute(trace).map(drop)) {
                    Ok(()) => migrate(source, target_builder, &self.attest, &[], cfg),
                    Err(fault) => Err(MigrationError::Fault {
                        stage: "execute",
                        fault,
                        source: Box::new(source),
                    }),
                }
            }
        };
        let metrics = &self.migration_metrics;
        match &result {
            Ok((_, report)) => {
                metrics.total.inc();
                metrics
                    .rounds
                    .add(u64::from(report.precopy_rounds) + u64::from(report.stopcopy_pages > 0));
                metrics.pages_copied.add(report.pages_total);
                metrics.last_downtime_us.set(report.downtime_us);
                let record = MigrationRecord::from(report);
                self.state.lock().migrations.push(record);
            }
            Err(_) => metrics.failed.inc(),
        }
        result.map(|(_, report)| report)
    }

    /// Records of migrations run so far (`GET /v1/migrations`).
    pub fn migrations(&self) -> Vec<MigrationRecord> {
        self.state.lock().migrations.clone()
    }

    /// How many migrations have run (`GET /v1/fleet`), counted without
    /// copying their records.
    pub fn migration_count(&self) -> usize {
        self.state.lock().migrations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_crypto::fuzz::sweep_iters;
    use confbench_crypto::SplitMix64;
    use confbench_sched::{cache_key, JobRef};
    use confbench_types::{CampaignCell, CampaignFunction, Language, ManualClock, VmKind};

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

    /// A script uploaded after a campaign naming it was placed.
    const LATE: (&str, &str) = ("late", "result(int(ARGS[0]) * 2);");

    /// `LATE` in Lua on every platform and mode: six cells.
    fn late_spec() -> CampaignSpec {
        CampaignSpec {
            functions: vec![CampaignFunction::new(LATE.0).arg("21")],
            languages: vec![Language::Lua],
            ..spec(&[])
        }
    }

    /// `LATE` in Lua on TDX, secure: one cell.
    fn one_late_cell() -> CampaignSpec {
        CampaignSpec {
            platforms: vec![TeePlatform::Tdx],
            modes: vec![VmKind::Secure],
            ..late_spec()
        }
    }

    /// The shard a [`one_late_cell`] campaign was placed on.
    fn late_cell_owner(fleet: &Fleet) -> usize {
        (0..fleet.shard_count())
            .find(|&id| fleet.shard_metrics(id).counter("sched_jobs_enqueued_total").get() > 0)
            .expect("a shard holds the job")
    }

    /// The single-gateway control: the same specs on one scheduler, with
    /// `LATE` uploaded before the first.
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
        gateway.store().upload(LATE.0, LATE.1).expect("uploaded");
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

    /// A fleet of three shards under a manual clock.
    fn manual_fleet() -> Fleet {
        Fleet::new(FleetConfig {
            seed: SEED,
            clock: Arc::new(ManualClock::new()),
            ..FleetConfig::default()
        })
    }

    /// Jobs queued on the alive shards, summed.
    fn queued(fleet: &Fleet) -> usize {
        fleet.alive_shards().iter().map(|&id| fleet.shards[id].sched.queue_depth()).sum()
    }

    /// Per shard, the job records its scheduler ever made: one per job
    /// enqueued.
    fn job_records(fleet: &Fleet) -> Vec<u64> {
        (0..fleet.shard_count())
            .map(|id| fleet.shard_metrics(id).counter("sched_jobs_enqueued_total").get())
            .collect()
    }

    /// The content addresses of a spec's cells; a function the store does
    /// not know yet addresses under an empty fingerprint.
    fn addresses(fleet: &Fleet, spec: &CampaignSpec) -> Vec<String> {
        campaign::expand(spec)
            .iter()
            .map(|cell| {
                let fingerprint = fleet.store().fingerprint(&cell.function.name);
                cache_key(cell, &fingerprint.map(|f| f.to_string()).unwrap_or_default())
            })
            .collect()
    }

    /// The jobs of a partition: cell, address and state, in cell order.
    fn jobs(
        fleet: &Fleet,
        (shard, number): (usize, usize),
    ) -> Vec<(Arc<CampaignCell>, Option<Digest>, JobState)> {
        let mut jobs = Vec::new();
        fleet.shards[shard].sched.for_each_job(number, |cell, key, job| {
            jobs.push((Arc::clone(cell), key, job));
        });
        jobs
    }

    fn status(fleet: &Fleet, receipt: &FleetReceipt) -> (usize, usize, usize, bool) {
        let s = fleet.campaign_status(&receipt.id).expect("tracked");
        (s.total, s.done, s.failed, s.complete)
    }

    /// Driver threads drain a placed campaign without any pump from the
    /// caller, woken by the submission, and stop and join on shutdown.
    #[test]
    fn driver_threads_drain_and_shut_down() {
        let fleet = Arc::new(Fleet::new(FleetConfig { seed: SEED, ..FleetConfig::default() }));
        fleet.spawn_drivers(2).expect("drivers spawn");
        let receipt = fleet.submit(spec(&["360", "5040"])).expect("fleet campaign admitted");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !fleet.campaign_status(&receipt.id).is_some_and(|s| s.complete) {
            assert!(std::time::Instant::now() < deadline, "drivers did not drain in time");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        fleet.shutdown();
        assert!(fleet.drivers.lock().threads.is_empty());
        assert_eq!(fleet.total_executions(), 12);
    }

    /// Drivers spawned after a shutdown run: the stop is scoped to the
    /// spawn it was meant for, so a campaign submitted to the new pool
    /// completes instead of sitting queued behind drivers that exit after
    /// one pass.
    #[test]
    fn drivers_spawned_after_a_shutdown_drain_the_next_campaign() {
        let fleet =
            Arc::new(Fleet::new(FleetConfig { shards: 1, seed: SEED, ..FleetConfig::default() }));
        fleet.spawn_drivers(1).expect("drivers spawn");
        fleet.shutdown();
        fleet.spawn_drivers(1).expect("drivers spawn again");
        let receipt = fleet.submit(spec(&["360", "5040"])).expect("fleet campaign admitted");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !fleet.campaign_status(&receipt.id).is_some_and(|s| s.complete) {
            assert!(std::time::Instant::now() < deadline, "the second pool never ran");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(fleet.drivers.lock().threads.len(), 1, "the second pool is still up");
        fleet.shutdown();
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
        let campaign = state.campaign(&receipt.id).expect("tracked");
        for &(shard, campaign) in &campaign.partitions {
            for (index, (cell, key, _)) in jobs(&fleet, (shard, campaign)).into_iter().enumerate() {
                let fingerprint = fleet.store().fingerprint(&cell.function.name);
                let want = cache_key(&cell, &fingerprint.expect("built in").to_string());
                let key = key.expect("addressed at placement");
                assert_eq!(key.to_string(), want);
                let sched = &fleet.shards[shard].sched;
                let job = sched.job_status(&JobRef { campaign, index }.id()).expect("job");
                assert_eq!(job.summary.expect("completed").cache_key, want);
                // One result, kept once: the harvest's is the shard cache's.
                let cached = sched.result_cache().get(&key).expect("cached");
                assert!(Arc::ptr_eq(&state.harvest[&key], &cached));
            }
        }
    }

    /// A shard retired after a placement read the ring and queued cells on
    /// it, but before the campaign was recorded, strands nothing: the
    /// retirement cannot see the campaign, so recording it re-places the
    /// cells the shard held, and once drained the campaign is complete with
    /// the fault-free control's results. Every shard holding cells is tried,
    /// killed and drained.
    #[test]
    fn a_shard_retired_while_a_campaign_is_placed_strands_no_cell() {
        let spec = spec(&["360", "5040"]);
        let control = control_bytes(std::slice::from_ref(&spec));
        for graceful in [false, true] {
            for victim in 0..3 {
                let fleet = manual_fleet();
                let (campaign, queued) =
                    fleet.enqueue(spec.clone()).expect("fleet campaign admitted");
                let held: usize = campaign
                    .partitions
                    .iter()
                    .filter(|&&(shard, _)| shard == victim)
                    .map(|&partition| jobs(&fleet, partition).len())
                    .sum();
                let retired =
                    if graceful { fleet.drain_shard(victim) } else { fleet.kill_shard(victim) };
                assert_eq!(retired, 0, "the retirement cannot see an unrecorded campaign");
                let (receipt, queued) = fleet.record(campaign, queued);
                assert_eq!((receipt.jobs, queued), (12, 12));
                let replaced = fleet.metrics().counter("fleet_cells_replaced_total").get();
                assert_eq!(replaced, held as u64, "victim {victim}, graceful {graceful}");
                fleet.drain();
                assert_eq!(status(&fleet, &receipt), (12, 12, 0, true), "victim {victim}");
                assert_eq!(serde_json::to_vec(&fleet.results()).unwrap(), control);
                assert_eq!(fleet.total_executions(), 12, "victim {victim}");
            }
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

    /// A campaign is found by the number in its id and only under the id
    /// it was minted with: unknown, malformed and zero-padded ids find
    /// nothing.
    #[test]
    fn campaign_ids_answer_only_as_minted() {
        let fleet = manual_fleet();
        for _ in 0..2 {
            fleet.submit(spec(&["360"])).expect("fleet campaign admitted");
        }
        for id in ["f1", "f2"] {
            assert_eq!(fleet.campaign_status(id).map(|s| s.id), Some(id.to_owned()));
        }
        for id in [
            "f0",
            "f3",
            "f01",
            "f02",
            "f+1",
            "f",
            "",
            "1",
            "F1",
            "g1",
            "f1 ",
            " f1",
            "f-1",
            "fx",
            "f1f",
            "f18446744073709551617",
        ] {
            assert!(fleet.campaign_status(id).is_none(), "{id:?} must answer 404");
        }
    }

    /// Cells whose results sit only in shard caches — computed, not yet
    /// harvested — are placed by content address, so a resubmission routes
    /// each of them to the shard whose cache already holds it: no miss
    /// moves, and every resubmitted cell cache-hits on its owner.
    #[test]
    fn resubmission_routes_to_the_cached_shard() {
        let fleet = manual_fleet();
        let spec = spec(&["360", "5040"]);
        fleet.submit(spec.clone()).expect("first run admitted");
        while queued(&fleet) > 0 {
            pass_without_harvest(&fleet);
        }
        assert!(fleet.results().is_empty(), "nothing is harvested yet");
        let misses: Vec<u64> = fleet.status().iter().map(|s| s.cache_misses).collect();
        assert_eq!(misses.iter().sum::<u64>(), 12);

        let receipt = fleet.submit(spec).expect("resubmission admitted");
        assert_eq!(queued(&fleet), 12, "unharvested cells are queued");
        {
            let state = fleet.state.lock();
            let campaign = state.campaign(&receipt.id).expect("tracked");
            let mut placed = 0;
            for &(shard, number) in &campaign.partitions {
                let cache = fleet.shards[shard].sched.result_cache();
                for (_, key, _) in jobs(&fleet, (shard, number)) {
                    let key = key.expect("addressed at placement");
                    assert!(cache.get(&key).is_some(), "routed to the shard caching it");
                    placed += 1;
                }
            }
            assert_eq!((campaign.done, placed), (0, 12));
        }
        fleet.drain();
        assert_eq!(status(&fleet, &receipt), (12, 12, 0, true));
        let after = fleet.status();
        assert_eq!(after.iter().map(|s| s.cache_misses).collect::<Vec<_>>(), misses);
        assert_eq!(after.iter().map(|s| s.cache_hits).sum::<u64>(), 12);
    }

    /// Resubmitting a drained campaign: the harvest answers every cell at
    /// placement. No shard makes a job record, nothing is queued, no
    /// driver is woken, nothing executes, and the campaign is complete
    /// before any pump.
    #[test]
    fn resubmission_adds_no_job_record_and_wakes_no_driver() {
        let fleet = manual_fleet();
        let spec = spec(&["360", "5040"]);
        fleet.submit(spec.clone()).expect("first run admitted");
        fleet.drain();
        let (records, wakes) = (job_records(&fleet), fleet.wakes());

        let receipt = fleet.submit(spec).expect("resubmission admitted");
        assert_eq!(receipt.jobs, 12, "the receipt counts every cell");
        assert_eq!(status(&fleet, &receipt), (12, 12, 0, true));
        assert_eq!(job_records(&fleet), records, "no shard made a job record");
        assert_eq!(queued(&fleet), 0);
        assert_eq!(fleet.wakes(), wakes, "no driver woken");
        assert_eq!(fleet.metrics().counter("fleet_cells_from_harvest_total").get(), 12);
        assert!(!fleet.pump(), "nothing to step");
        assert_eq!(fleet.total_executions(), 12);
    }

    /// A spec that overlaps a drained one queues exactly its cells the
    /// harvest does not hold; the others are done at placement.
    #[test]
    fn partially_overlapping_spec_queues_only_its_unharvested_cells() {
        let fleet = manual_fleet();
        fleet.submit(spec(&["360"])).expect("first run admitted");
        fleet.drain();
        let records: u64 = job_records(&fleet).iter().sum();

        let receipt = fleet.submit(spec(&["360", "5040"])).expect("overlap admitted");
        assert_eq!(receipt.jobs, 12);
        assert_eq!(queued(&fleet), 6, "only the 5040 cells are queued");
        assert_eq!(job_records(&fleet).iter().sum::<u64>(), records + 6);
        assert_eq!(status(&fleet, &receipt), (12, 6, 0, false));
        fleet.drain();
        assert_eq!(status(&fleet, &receipt), (12, 12, 0, true));
        assert_eq!(fleet.total_executions(), 12);
    }

    /// A cell answered at placement has no shard to lose: killing any shard
    /// right after a harvest-first placement re-places nothing, and the
    /// campaign stays complete.
    #[test]
    fn kill_after_a_harvest_first_placement_replaces_nothing() {
        for victim in 0..3 {
            let fleet = manual_fleet();
            let spec = spec(&["360", "5040"]);
            fleet.submit(spec.clone()).expect("first run admitted");
            fleet.drain();
            let receipt = fleet.submit(spec).expect("resubmission admitted");
            assert_eq!(fleet.kill_shard(victim), 0, "victim {victim}");
            assert_eq!(status(&fleet, &receipt), (12, 12, 0, true), "victim {victim}");
            assert_eq!(queued(&fleet), 0, "victim {victim}");
        }
    }

    /// A campaign that names a function the store learns only after its
    /// placement completes once drained: its job addresses the cell at the
    /// step, and the status reads the job's address. Retiring the shard
    /// that ran it re-runs nothing, for the result is harvested.
    #[test]
    fn a_function_uploaded_after_placement_completes_once() {
        let fleet = manual_fleet();
        let receipt = fleet.submit(one_late_cell()).expect("fleet campaign admitted");
        fleet.store().upload(LATE.0, LATE.1).expect("uploaded");
        fleet.drain();
        assert_eq!(status(&fleet, &receipt), (1, 1, 0, true));
        assert_eq!(fleet.total_executions(), 1);
        fleet.kill_shard(late_cell_owner(&fleet));
        fleet.drain();
        assert_eq!(fleet.total_executions(), 1, "the retirement re-ran a harvested cell");
        assert_eq!(status(&fleet, &receipt), (1, 1, 0, true));
    }

    /// A job that ended without a result is not harvested, so retiring its
    /// shard readmits it on a survivor, like every cell the harvest lacks:
    /// a cell that failed for want of its function runs once it is there.
    #[test]
    fn a_cell_failed_on_a_retired_shard_runs_again() {
        let fleet = manual_fleet();
        let receipt = fleet.submit(one_late_cell()).expect("fleet campaign admitted");
        fleet.drain();
        assert_eq!(status(&fleet, &receipt), (1, 0, 1, true), "an unknown function fails");
        fleet.store().upload(LATE.0, LATE.1).expect("uploaded");
        assert_eq!(fleet.kill_shard(late_cell_owner(&fleet)), 1, "the failed cell is readmitted");
        assert_eq!(status(&fleet, &receipt), (1, 0, 0, false));
        fleet.drain();
        assert_eq!(status(&fleet, &receipt), (1, 1, 0, true));
        assert_eq!(fleet.total_executions(), 1);
    }

    /// The harvest's oracle at fleet scale. Random sequences of submits,
    /// resubmits and pumps on a three-shard fleet, with kills and graceful
    /// drains that come between two pumps or cut a pass short before its
    /// harvest, and one upload, at a random point, of the function the
    /// pool's late spec names. After every operation the cursor harvest
    /// equals the full-snapshot merge it replaced, every submit queues
    /// exactly the spec's cells the harvest does not hold, and no
    /// campaign's counts sum past its total. Its done count never goes
    /// down, nor does its failed count but at a retirement, which readmits
    /// failed cells. Once the fleet drains, every campaign is complete, and
    /// only one placed before the upload that names the late function may
    /// have failed cells. A late cell stepped before the upload failed and
    /// left no result, so the late spec alone is submitted again and
    /// drained; then the results are byte-identical to the single-gateway
    /// control.
    #[test]
    fn fuzz_sweep_harvest_cursors_equal_snapshot_merge() {
        let pool = [spec(&["360"]), spec(&["360", "5040"]), spec(&["5040", "720"]), late_spec()];
        let (mut replaced, mut lost, mut kept) = (0, 0, 0);
        // Late cells done in campaigns placed before the upload, and failed.
        let (mut late_done, mut late_failed) = (0, 0);
        for case in 0..(sweep_iters() / 20).max(1) as u64 {
            let mut rng = SplitMix64::new(0xF1EE_0000 ^ case);
            let fleet = Fleet::new(FleetConfig {
                seed: SEED,
                clock: Arc::new(ManualClock::new()),
                ..FleetConfig::default()
            });
            let mut reference = BTreeMap::new();
            let mut submitted: Vec<CampaignSpec> = Vec::new();
            // Each receipt, whether its spec named `LATE` before the upload,
            // and the (done, failed) its status read last.
            let mut receipts: Vec<(FleetReceipt, bool, (usize, usize))> = Vec::new();
            let mut uploaded = false;
            let pick = |rng: &mut SplitMix64, n: usize| rng.next_below(n as u64) as usize;
            let ops = 8 + rng.next_below(24);
            let upload_at = rng.next_below(ops);
            for op in 0..ops {
                let id = pick(&mut rng, fleet.shard_count());
                let kind = if op == upload_at { 10 } else { rng.next_below(10) };
                match kind {
                    kind @ (0 | 1) => {
                        let spec = match kind {
                            1 if !submitted.is_empty() => {
                                &submitted[pick(&mut rng, submitted.len())]
                            }
                            _ => &pool[pick(&mut rng, pool.len())],
                        }
                        .clone();
                        let harvest = fleet.results();
                        let absent = addresses(&fleet, &spec)
                            .iter()
                            .filter(|key| !harvest.contains_key(*key))
                            .count();
                        let before = queued(&fleet);
                        let receipt = fleet.submit(spec.clone()).expect("fleet campaign admitted");
                        assert_eq!(queued(&fleet), before + absent, "case {case}, op {op}");
                        let early = !uploaded && spec.functions[0].name == LATE.0;
                        receipts.push((receipt, early, (0, 0)));
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
                    10 => {
                        fleet.store().upload(LATE.0, LATE.1).expect("uploaded");
                        uploaded = true;
                    }
                    _ => {
                        fleet.pump();
                        merge_snapshots(&fleet, &mut reference);
                    }
                }
                assert_eq!(fleet.results(), reference, "case {case}, op {op}");
                let retired = (2..=5).contains(&kind);
                for (receipt, _, seen) in &mut receipts {
                    let s = fleet.campaign_status(&receipt.id).expect("tracked");
                    assert!(
                        s.total == receipt.jobs && s.done + s.failed <= s.total,
                        "case {case}, op {op}: {s:?}"
                    );
                    assert!(
                        s.done >= seen.0 && (retired || s.failed >= seen.1),
                        "case {case}, op {op}: {s:?}"
                    );
                    *seen = (s.done, s.failed);
                }
            }
            fleet.drain();
            merge_snapshots(&fleet, &mut reference);
            assert_eq!(fleet.results(), reference, "case {case}, drained");
            for (receipt, early, _) in &receipts {
                let status = fleet.campaign_status(&receipt.id).expect("tracked");
                assert!(status.complete, "case {case}: {status:?}");
                if *early {
                    late_done += status.done;
                    late_failed += status.failed;
                } else {
                    assert_eq!(status.failed, 0, "case {case}: {status:?}");
                }
            }
            if receipts.iter().any(|(_, early, _)| *early) {
                fleet.submit(late_spec()).expect("fleet campaign admitted");
                fleet.drain();
            }
            assert_eq!(
                serde_json::to_vec(&fleet.results()).unwrap(),
                control_bytes(&submitted),
                "case {case}: results differ from the single-gateway control"
            );
        }
        assert!(replaced > 0 && lost > 0 && kept > 0, "{replaced} / {lost} / {kept}");
        assert!(late_done > 0 && late_failed > 0, "{late_done} / {late_failed}");
    }
}
