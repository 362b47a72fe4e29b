//! The campaign scheduler: expansion, admission, execution, aggregation.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use confbench_crypto::Digest;
use confbench_obs::{Counter, Gauge, MetricsRegistry, SpanRecorder};
use confbench_stats::Summary;
use confbench_types::{
    CampaignCell, CampaignId, CampaignReceipt, CampaignSpec, CampaignState, CampaignStatus,
    CellSummary, Clock, Error, FunctionSpec, InvalidCampaign, JobId, JobState, JobStatus,
    PackedTrace, Priority, RunRequest, TeePlatform, TraceSpan, VmTarget,
};
use parking_lot::Mutex;

use crate::cache::{cache_address, CachedCell, ResultCache};
use crate::queue::BoundedQueue;
use crate::{campaign, Executor};

/// Tunables of a [`Scheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Global queue capacity (jobs across all platforms and priorities).
    pub queue_capacity: usize,
    /// The `Retry-After` value (seconds) surfaced when admission rejects a
    /// campaign with 429. Wired from the gateway's backoff policy so the
    /// hint and the retry machinery agree.
    pub retry_after_secs: u64,
    /// Entry cap of the result cache (LRU eviction beyond it). Wired from
    /// the gateway's `--cache-capacity` flag.
    pub cache_capacity: usize,
    /// Most cells one campaign may expand to. Enforced at admission —
    /// *before* expansion allocates anything — and clamped to
    /// [`confbench_types::MAX_CAMPAIGN_CELLS`], so a deployment
    /// can tighten the bound but never remove it.
    pub max_cells: usize,
}

impl Default for SchedulerConfig {
    /// 4096 queued jobs (as many as cached results, and room for the
    /// paper's 350-cell Fig. 6 campaign), `Retry-After: 1`, cells capped at
    /// the workspace-wide [`confbench_types::MAX_CAMPAIGN_CELLS`].
    fn default() -> Self {
        SchedulerConfig {
            queue_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            retry_after_secs: 1,
            cache_capacity: crate::cache::DEFAULT_CACHE_CAPACITY,
            max_cells: confbench_types::MAX_CAMPAIGN_CELLS,
        }
    }
}

/// Why [`Scheduler::submit`] refused a campaign.
#[derive(Debug)]
pub enum SubmitError {
    /// The spec failed validation (maps to 400).
    Invalid(InvalidCampaign),
    /// The bounded queue cannot admit the whole matrix (maps to 429 with a
    /// `Retry-After` header). Admission is all-or-nothing: a campaign never
    /// gets partially enqueued.
    QueueFull {
        /// Jobs currently queued.
        queued: usize,
        /// Queue capacity.
        capacity: usize,
        /// Suggested retry delay in seconds.
        retry_after_secs: u64,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Invalid(e) => e.fmt(f),
            SubmitError::QueueFull { queued, capacity, .. } => {
                write!(f, "{queued}/{capacity} jobs queued; campaign does not fit")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<SubmitError> for Error {
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::Invalid(inner) => inner.into(),
            SubmitError::QueueFull { .. } => Error::QueueFull(e.to_string()),
        }
    }
}

/// A job by number: job `index` of campaign `c{campaign}`, written
/// `c{campaign}-j{index}` on the wire ([`JobRef::id`]). Campaigns are
/// numbered from 1 in the order a scheduler enqueues them, jobs from 0 in
/// the order of their cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobRef {
    /// The campaign's number.
    pub campaign: usize,
    /// The job's place in its campaign.
    pub index: usize,
}

impl JobRef {
    /// The job's id as the REST surface writes it (`"c3-j17"`).
    pub fn id(self) -> JobId {
        JobId(self.to_string())
    }

    /// The job an id names, read only in the form [`JobRef::id`] writes:
    /// `c01-j1` or `c1-j+1` names none.
    pub fn parse(id: &str) -> Option<JobRef> {
        let (campaign, index) = id.split_once("-j")?;
        let job = JobRef { campaign: campaign_number(campaign)?, index: index.parse().ok()? };
        (job.to_string() == id).then_some(job)
    }
}

impl fmt::Display for JobRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}-j{}", self.campaign, self.index)
    }
}

/// The number of the campaign `c{n}`, read only in the form the scheduler
/// writes: `c01` or `c+1` names none.
fn campaign_number(id: &str) -> Option<usize> {
    let n: usize = id.strip_prefix('c')?.parse().ok()?;
    (format!("c{n}") == id).then_some(n)
}

fn campaign_id(n: usize) -> CampaignId {
    CampaignId(format!("c{n}"))
}

/// What the scheduler keeps of a job: its cell, shared with whoever placed
/// it, its address as 32 bytes, and how far it got.
struct JobRecord {
    cell: Arc<CampaignCell>,
    /// The cell's content address, computed at submission (outside the
    /// lock), or at the step for a function unknown until then; `None`
    /// while the function is unknown.
    key: Option<Digest>,
    progress: Progress,
}

/// How far a job got, and what it keeps for it. A finished job's result is
/// the one the result cache holds, shared, and its span tree is packed into
/// one allocation. Its [`CellSummary`] is assembled on read
/// ([`build_summary`]); an expired job's error is written on read.
enum Progress {
    Queued,
    Running,
    Cancelled,
    Expired,
    /// Served by the result cache.
    Hit(Arc<CachedCell>),
    /// Executed: its result and its `sched.execute` span tree.
    Ran(Arc<CachedCell>, PackedTrace),
    /// Executed and failed: the error and the span tree.
    Failed(Box<str>, PackedTrace),
}

impl Progress {
    fn state(&self) -> JobState {
        match self {
            Progress::Queued => JobState::Queued,
            Progress::Running => JobState::Running,
            Progress::Cancelled => JobState::Cancelled,
            Progress::Expired => JobState::Expired,
            Progress::Hit(_) | Progress::Ran(..) => JobState::Completed,
            Progress::Failed(..) => JobState::Failed,
        }
    }
}

/// A campaign: its jobs in cell order, and what they share.
struct CampaignRecord {
    jobs: Vec<JobRecord>,
    enqueued_at_ms: u64,
    expires_at_ms: Option<u64>,
    cancelled: bool,
}

impl CampaignRecord {
    /// What an expired job of the campaign answers as its error.
    fn expiry(&self) -> String {
        let deadline = self.expires_at_ms.unwrap_or(self.enqueued_at_ms);
        format!("queued past its {}ms deadline", deadline.saturating_sub(self.enqueued_at_ms))
    }
}

struct Inner {
    /// Campaign `c{n}` at index `n - 1`.
    campaigns: Vec<CampaignRecord>,
    queue: BoundedQueue,
}

/// Campaign `c{n}` of `campaigns`.
fn campaign_at(campaigns: &[CampaignRecord], n: usize) -> Option<&CampaignRecord> {
    campaigns.get(n.checked_sub(1)?)
}

fn campaign_at_mut(campaigns: &mut [CampaignRecord], n: usize) -> Option<&mut CampaignRecord> {
    campaigns.get_mut(n.checked_sub(1)?)
}

/// The job `job` names among `campaigns`.
fn job_in(campaigns: &[CampaignRecord], job: JobRef) -> Option<&JobRecord> {
    campaign_at(campaigns, job.campaign)?.jobs.get(job.index)
}

/// How many queued jobs a step looks at for one that would not wait
/// ([`Scheduler::step_with`]): a few per driver that can be launching.
const PASS_OVER_LOOKAHEAD: usize = 16;

/// The campaign scheduler.
///
/// Deterministic by construction: all timing comes from the injected
/// [`Clock`], execution is delegated to an [`Executor`], and callers drive
/// progress with [`Scheduler::step_with`]/[`Scheduler::drain`]: the
/// scheduler owns no threads. The daemon's fleet driver threads step it.
pub struct Scheduler {
    executor: Arc<dyn Executor>,
    clock: Arc<dyn Clock>,
    config: SchedulerConfig,
    metrics: Arc<MetricsRegistry>,
    step: StepMetrics,
    /// Jobs queued per platform, in [`TeePlatform::ALL`] order, published
    /// under the lock whenever the queue changes, so that a step — or a
    /// thief sizing up victims — finds a platform with nothing queued
    /// without taking the lock. Every driver of a fleet sweeps every
    /// platform of every shard, and most of those queues are empty.
    queued: [AtomicUsize; 3],
    recorder: SpanRecorder,
    cache: ResultCache,
    inner: Mutex<Inner>,
}

/// The instruments a step touches, looked up in the registry once: a step
/// then takes no registry lock, which every driver and every shard's
/// executions would otherwise share.
struct StepMetrics {
    queue_depth: Arc<Gauge>,
    inflight: Arc<Gauge>,
    cache_entries: Arc<Gauge>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    expired: Arc<Counter>,
}

impl StepMetrics {
    fn register(metrics: &MetricsRegistry) -> Self {
        StepMetrics {
            queue_depth: metrics.gauge("sched_queue_depth"),
            inflight: metrics.gauge("sched_jobs_inflight"),
            cache_entries: metrics.gauge("sched_cache_entries"),
            hits: metrics.counter("sched_cache_hits_total"),
            misses: metrics.counter("sched_cache_misses_total"),
            evictions: metrics.counter("sched_cache_evictions_total"),
            completed: metrics.counter("sched_jobs_completed_total"),
            failed: metrics.counter("sched_jobs_failed_total"),
            expired: metrics.counter("sched_jobs_expired_total"),
        }
    }
}

impl Scheduler {
    /// Creates a scheduler with its own [`MetricsRegistry`].
    pub fn new(
        executor: Arc<dyn Executor>,
        clock: Arc<dyn Clock>,
        config: SchedulerConfig,
    ) -> Self {
        Scheduler::with_metrics(executor, clock, config, Arc::new(MetricsRegistry::new()))
    }

    /// Creates a scheduler publishing into a shared [`MetricsRegistry`]
    /// (the gateway's, so `GET /v1/metrics` covers both layers).
    pub fn with_metrics(
        executor: Arc<dyn Executor>,
        clock: Arc<dyn Clock>,
        config: SchedulerConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> Self {
        let recorder = SpanRecorder::new(Arc::clone(&clock));
        let inner =
            Inner { campaigns: Vec::new(), queue: BoundedQueue::new(config.queue_capacity) };
        Scheduler {
            executor,
            clock,
            cache: ResultCache::with_capacity(config.cache_capacity),
            config,
            step: StepMetrics::register(&metrics),
            queued: Default::default(),
            metrics,
            recorder,
            inner: Mutex::new(inner),
        }
    }

    /// The metrics registry the scheduler publishes into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The scheduler's result cache (read access: snapshots, occupancy).
    pub fn result_cache(&self) -> &ResultCache {
        &self.cache
    }

    /// Validates, expands, and enqueues a campaign. Each cell's content
    /// address is computed here, before the lock is taken, and carried in
    /// its job.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] on a malformed or oversized spec (all size
    /// bounds — axis lengths and the configured `max_cells` — are enforced
    /// here, before expansion allocates anything); [`SubmitError::QueueFull`]
    /// when the bounded queue cannot take the whole matrix.
    pub fn submit(&self, spec: CampaignSpec) -> Result<CampaignReceipt, SubmitError> {
        spec.validate_with_limit(self.config.max_cells).map_err(SubmitError::Invalid)?;
        let cells: Vec<_> = campaign::expand(&spec)
            .into_iter()
            .map(|cell| {
                let key = self.content_address(&cell);
                (Arc::new(cell), key)
            })
            .collect();
        let jobs = cells.len();
        let n = self.submit_cells(cells, spec.priority, spec.deadline_ms)?;
        Ok(CampaignReceipt { id: campaign_id(n), jobs })
    }

    /// A cell's content address as the scheduler's own executor sees its
    /// function, or `None` for a function it does not know.
    fn content_address(&self, cell: &CampaignCell) -> Option<Digest> {
        self.executor.function_fingerprint(&cell.function.name).map(|fp| cache_address(cell, &fp))
    }

    /// Enqueues pre-expanded cells as one campaign, each with its content
    /// address (`None` for a function the executor does not know; the step
    /// addresses it again, in case it was uploaded since), and returns the
    /// campaign's number: cell `i`'s job is `JobRef { campaign, index: i }`.
    /// The cells are shared, not copied. The fleet layer uses this to place
    /// a partition of a campaign's matrix on the shard that owns those
    /// cells' content addresses (and to re-place the remainder after a shard
    /// dies); [`Scheduler::submit`] is the expand-then-enqueue wrapper.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue cannot take every
    /// cell (admission stays all-or-nothing).
    pub fn submit_cells(
        &self,
        cells: Vec<(Arc<CampaignCell>, Option<Digest>)>,
        priority: Priority,
        deadline_ms: Option<u64>,
    ) -> Result<usize, SubmitError> {
        let mut inner = self.inner.lock();
        if !inner.queue.can_admit(cells.len()) {
            self.metrics.counter("sched_jobs_rejected_total").add(cells.len() as u64);
            return Err(SubmitError::QueueFull {
                queued: inner.queue.depth(),
                capacity: inner.queue.capacity(),
                retry_after_secs: self.config.retry_after_secs,
            });
        }
        Ok(self.enqueue(&mut inner, cells, priority, deadline_ms, BoundedQueue::push))
    }

    /// Enqueues cells a lost host left behind, as one campaign, and returns
    /// its number. Never refused: the queue bound guards client admission,
    /// not recovery, so the queue may go past it, and
    /// [`Scheduler::submit_cells`] answers [`SubmitError::QueueFull`] until
    /// it drains below it again.
    pub fn readmit_cells(
        &self,
        cells: Vec<(Arc<CampaignCell>, Option<Digest>)>,
        priority: Priority,
        deadline_ms: Option<u64>,
    ) -> usize {
        self.enqueue(&mut self.inner.lock(), cells, priority, deadline_ms, BoundedQueue::readmit)
    }

    fn enqueue(
        &self,
        inner: &mut Inner,
        cells: Vec<(Arc<CampaignCell>, Option<Digest>)>,
        priority: Priority,
        deadline_ms: Option<u64>,
        push: fn(&mut BoundedQueue, TeePlatform, Priority, JobRef),
    ) -> usize {
        let now = self.clock.now_ms();
        let campaign = inner.campaigns.len() + 1;
        let mut jobs = Vec::with_capacity(cells.len());
        for (index, (cell, key)) in cells.into_iter().enumerate() {
            push(&mut inner.queue, cell.platform, priority, JobRef { campaign, index });
            jobs.push(JobRecord { cell, key, progress: Progress::Queued });
        }
        self.metrics.counter("sched_campaigns_total").inc();
        self.metrics.counter("sched_jobs_enqueued_total").add(jobs.len() as u64);
        inner.campaigns.push(CampaignRecord {
            jobs,
            enqueued_at_ms: now,
            expires_at_ms: deadline_ms.map(|d| now.saturating_add(d)),
            cancelled: false,
        });
        self.queue_changed(&inner.queue);
        campaign
    }

    /// Publishes the queue's depths: the gauge and the per-platform counts
    /// [`Scheduler::queue_depth_for`] reads. Called under the lock after
    /// every change to the queue.
    fn queue_changed(&self, queue: &BoundedQueue) {
        self.step.queue_depth.set(queue.depth() as u64);
        for (queued, platform) in self.queued.iter().zip(TeePlatform::ALL) {
            queued.store(queue.depth_for(platform), Ordering::Release);
        }
    }

    /// Processes at most one queued job for `platform` on `executor`:
    /// dequeues it, expires it if its queue deadline passed, serves it from
    /// the result cache, or executes it. Returns whether a job was processed
    /// (i.e. whether the platform's queue was non-empty).
    ///
    /// This is the driver loop body; tests call it directly for fully
    /// deterministic, single-threaded draining. The executor need not be the
    /// scheduler's own — that is the work-stealing primitive: a thief shard
    /// calls this on the *victim's* scheduler with its own gateway, and the
    /// victim keeps all bookkeeping (queue, job records, result cache,
    /// metrics) while only the VM execution happens on the thief's hosts.
    /// The cache key is the one the job carries from submission; a job
    /// submitted without one is addressed here through the scheduler's own
    /// executor, so the key is always the victim's view of the function.
    ///
    /// Of the next 16 jobs (`PASS_OVER_LOOKAHEAD`), the step takes the first
    /// that would not park behind another thread's work for it
    /// ([`Executor::would_wait`]); those passed over keep their places at
    /// the head of the queue. A campaign's secure and normal cell of one
    /// function share its launch and sit side by side, so a second driver
    /// launches the next function instead of waiting for the first.
    pub fn step_with(&self, platform: TeePlatform, executor: &dyn Executor) -> bool {
        if self.queue_depth_for(platform) == 0 {
            return false;
        }
        // Phase 1 (locked): dequeue and classify.
        let (job_ref, cell, key, enqueued_at_ms) = {
            let mut inner = self.inner.lock();
            let Inner { queue, campaigns } = &mut *inner;
            let waits = |job: &JobRef| {
                job_in(campaigns, *job).is_some_and(|j| executor.would_wait(&j.cell))
            };
            let Some(job_ref) = queue.pop_unless(platform, PASS_OVER_LOOKAHEAD, waits) else {
                return false;
            };
            self.queue_changed(queue);
            // Every queued job is recorded; were one not, it would leave the
            // queue here unprocessed.
            let Some(campaign) = campaign_at_mut(campaigns, job_ref.campaign) else { return true };
            let (enqueued_at_ms, expires_at_ms) = (campaign.enqueued_at_ms, campaign.expires_at_ms);
            let Some(job) = campaign.jobs.get_mut(job_ref.index) else { return true };
            if expires_at_ms.is_some_and(|t| self.clock.now_ms() >= t) {
                job.progress = Progress::Expired;
                self.step.expired.inc();
                return true;
            }
            job.progress = Progress::Running;

            // Content address: only functions the executor knows have a
            // fingerprint; unknown ones fall through to execution, which
            // reports the precise error.
            if job.key.is_none() {
                job.key = self.content_address(&job.cell);
            }
            if let Some(key) = &job.key {
                if let Some(hit) = self.cache.get(key) {
                    job.progress = Progress::Hit(hit);
                    self.step.hits.inc();
                    self.step.completed.inc();
                    return true;
                }
                self.step.misses.inc();
            }
            (job_ref, Arc::clone(&job.cell), job.key, enqueued_at_ms)
        };

        // Phase 2 (unlocked): execute — potentially slow, must not hold the
        // scheduler lock so other platforms keep draining.
        self.step.inflight.inc();
        let dequeued_at_ms = self.clock.now_ms();
        let request = RunRequest {
            function: FunctionSpec {
                name: cell.function.name.clone(),
                language: cell.language,
                args: cell.function.args.clone(),
            },
            target: VmTarget { platform: cell.platform, kind: cell.kind },
            trials: cell.trials,
            seed: cell.seed,
            deadline_ms: None,
            attest_session: None,
            device: cell.device,
        };
        let outcome = executor.execute(&request);

        // Phase 3: build the record — result, packed span tree, address —
        // unlocked, then file it under the lock, which status polls and the
        // other workers are waiting for.
        let mut span = self.recorder.root("sched.execute");
        span.set_attr("trials", u64::from(cell.trials));
        span.set_attr("seed", cell.seed);
        let mut queued_span = TraceSpan::new("sched.enqueue", enqueued_at_ms);
        queued_span.end_ms = dequeued_at_ms;
        span.adopt(queued_span);

        let outcome = outcome.map_err(|e| e.to_string()).map(|mut result| {
            if let Some(subtree) = result.trace.take() {
                span.adopt(subtree);
            }
            let stats = Summary::from_samples(&result.trial_ms);
            Arc::new(CachedCell {
                mean_ms: stats.mean,
                median_ms: stats.median(),
                min_ms: stats.min,
                max_ms: stats.max,
                stddev_ms: stats.stddev,
                output: result.output,
            })
        });
        // Executed successfully without a fingerprint (function appeared
        // mid-flight): address it now for completeness.
        let key = key.or_else(|| outcome.as_ref().ok().and_then(|_| self.content_address(&cell)));
        let trace = PackedTrace::pack(&span.finish());

        let mut inner = self.inner.lock();
        if let (Ok(cached), Some(key)) = (&outcome, key) {
            let evicted = self.cache.insert(key, Arc::clone(cached));
            self.step.cache_entries.set(self.cache.len() as u64);
            self.step.evictions.add(evicted);
        }
        let campaign = campaign_at_mut(&mut inner.campaigns, job_ref.campaign);
        if let Some(job) = campaign.and_then(|c| c.jobs.get_mut(job_ref.index)) {
            job.key = key;
            job.progress = match outcome {
                Ok(cached) => {
                    self.step.completed.inc();
                    Progress::Ran(cached, trace)
                }
                Err(error) => {
                    self.step.failed.inc();
                    Progress::Failed(error.into(), trace)
                }
            };
        }
        self.step.inflight.dec();
        true
    }

    /// Drains every platform's queue to empty, single-threaded. The test
    /// and CLI workhorse: after `drain` returns, every submitted job is in
    /// a terminal state.
    pub fn drain(&self) {
        while TeePlatform::ALL.iter().any(|&p| self.step_with(p, self.executor.as_ref())) {}
    }

    /// Cancels a campaign: its queued jobs are pulled out of the queue
    /// immediately (they will *never* reach a VM) and marked
    /// [`JobState::Cancelled`]; jobs already running finish normally.
    /// Returns the post-cancellation status, or `None` for an unknown id.
    pub fn cancel_campaign(&self, id: &CampaignId) -> Option<CampaignStatus> {
        let n = campaign_number(&id.0)?;
        self.cancel(n).then(|| self.campaign_status(id))?
    }

    /// [`Scheduler::cancel_campaign`] by number, without the status:
    /// whether the campaign exists. The fleet withdraws a partition with it.
    pub fn cancel(&self, campaign: usize) -> bool {
        let mut inner = self.inner.lock();
        let Inner { campaigns, queue } = &mut *inner;
        let Some(record) = campaign_at_mut(campaigns, campaign) else { return false };
        record.cancelled = true;
        let queued: Vec<JobRef> = record
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, job)| matches!(job.progress, Progress::Queued))
            .map(|(index, _)| JobRef { campaign, index })
            .collect();
        let removed = queue.remove(&queued);
        debug_assert_eq!(removed, queued.len(), "queued jobs live in the queue");
        for job in record.jobs.iter_mut().filter(|job| matches!(job.progress, Progress::Queued)) {
            job.progress = Progress::Cancelled;
        }
        self.metrics.counter("sched_jobs_cancelled_total").add(queued.len() as u64);
        self.queue_changed(queue);
        true
    }

    /// Point-in-time status of a campaign, or `None` for an unknown id.
    /// Cells appear in expansion order as their jobs complete, so polling
    /// observes monotone progress.
    pub fn campaign_status(&self, id: &CampaignId) -> Option<CampaignStatus> {
        let n = campaign_number(&id.0)?;
        let inner = self.inner.lock();
        let record = campaign_at(&inner.campaigns, n)?;
        let mut status = CampaignStatus {
            id: id.clone(),
            state: CampaignState::Active,
            total_jobs: record.jobs.len(),
            queued: 0,
            running: 0,
            completed: 0,
            failed: 0,
            cancelled: 0,
            expired: 0,
            cache_hits: 0,
            cells: Vec::new(),
        };
        for (index, job) in record.jobs.iter().enumerate() {
            match job.progress.state() {
                JobState::Queued => status.queued += 1,
                JobState::Running => status.running += 1,
                JobState::Completed => status.completed += 1,
                JobState::Failed => status.failed += 1,
                JobState::Cancelled => status.cancelled += 1,
                JobState::Expired => status.expired += 1,
            }
            if let Some(summary) = build_summary(JobRef { campaign: n, index }, job) {
                status.cache_hits += usize::from(summary.from_cache);
                status.cells.push(summary);
            }
        }
        status.state = if record.cancelled {
            CampaignState::Cancelled
        } else if status.is_done() {
            CampaignState::Completed
        } else {
            CampaignState::Active
        };
        Some(status)
    }

    /// Point-in-time status of one job, or `None` for an unknown id. Its
    /// span tree is unpacked once the lock is released.
    pub fn job_status(&self, id: &JobId) -> Option<JobStatus> {
        let job_ref = JobRef::parse(&id.0)?;
        let (status, trace) = {
            let inner = self.inner.lock();
            let campaign = campaign_at(&inner.campaigns, job_ref.campaign)?;
            let job = campaign.jobs.get(job_ref.index)?;
            let (error, trace) = match &job.progress {
                Progress::Expired => (Some(campaign.expiry()), None),
                Progress::Ran(_, trace) => (None, Some(trace.clone())),
                Progress::Failed(error, trace) => (Some(error.to_string()), Some(trace.clone())),
                _ => (None, None),
            };
            let status = JobStatus {
                id: id.clone(),
                campaign: campaign_id(job_ref.campaign),
                state: job.progress.state(),
                cell: CampaignCell::clone(&job.cell),
                summary: build_summary(job_ref, job),
                error,
                trace: None,
            };
            (status, trace)
        };
        Some(JobStatus { trace: trace.as_ref().and_then(PackedTrace::unpack), ..status })
    }

    /// Visits the jobs of campaign `campaign` in cell order, under one lock:
    /// each job's cell, its content address if it has one by now, and its
    /// state. An unknown campaign has none. The fleet reads the partitions
    /// it placed through this.
    pub fn for_each_job(
        &self,
        campaign: usize,
        mut visit: impl FnMut(&Arc<CampaignCell>, Option<Digest>, JobState),
    ) {
        let inner = self.inner.lock();
        for job in campaign_at(&inner.campaigns, campaign).into_iter().flat_map(|c| &c.jobs) {
            visit(&job.cell, job.key, job.progress.state());
        }
    }

    /// Total jobs currently queued (all platforms).
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().queue.depth()
    }

    /// Jobs currently queued for one platform — what a work-stealing fleet
    /// inspects to pick the deepest victim. Takes no lock: the count is the
    /// one the last change to the queue published.
    pub fn queue_depth_for(&self, platform: TeePlatform) -> usize {
        let index = TeePlatform::ALL.iter().position(|&p| p == platform);
        index.and_then(|i| self.queued.get(i)).map_or(0, |queued| queued.load(Ordering::Acquire))
    }
}

/// A completed job's summary, assembled from its number, cell, address and
/// result; `None` until the job completes. A job that completed without an
/// address (its function unknown throughout) reads an empty `cache_key`.
fn build_summary(job_ref: JobRef, job: &JobRecord) -> Option<CellSummary> {
    let (cached, from_cache) = match &job.progress {
        Progress::Hit(cached) => (cached, true),
        Progress::Ran(cached, _) => (cached, false),
        _ => return None,
    };
    Some(CellSummary {
        job: job_ref.id(),
        cell: CampaignCell::clone(&job.cell),
        mean_ms: cached.mean_ms,
        median_ms: cached.median_ms,
        min_ms: cached.min_ms,
        max_ms: cached.max_ms,
        stddev_ms: cached.stddev_ms,
        output: cached.output.clone(),
        from_cache,
        cache_key: job.key.map(|key| key.to_string()).unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use confbench_types::{CampaignFunction, Language, ManualClock, Result, RunResult, VmKind};

    /// Deterministic synthetic executor: trial times derive from the seed,
    /// executions and fingerprint lookups are counted, and unknown
    /// functions fail.
    struct SimExec {
        executions: AtomicUsize,
        fingerprints: AtomicUsize,
    }

    impl SimExec {
        fn new() -> Self {
            SimExec { executions: AtomicUsize::new(0), fingerprints: AtomicUsize::new(0) }
        }
    }

    impl Executor for SimExec {
        fn execute(&self, req: &RunRequest) -> Result<RunResult> {
            self.executions.fetch_add(1, Ordering::SeqCst);
            if req.function.name == "missing" {
                return Err(Error::UnknownFunction(req.function.name.clone()));
            }
            let trial_ms: Vec<f64> =
                (0..req.trials).map(|t| ((req.seed % 7) + u64::from(t)) as f64 + 1.0).collect();
            Ok(RunResult {
                function: req.function.name.clone(),
                language: req.function.language,
                target: req.target,
                stats: RunResult::compute_stats(&trial_ms),
                trial_ms,
                trial_cycles: Vec::new(),
                perf: Default::default(),
                output: format!("out-{}", req.seed % 97),
                trace: Some(TraceSpan::new("gateway.run", 0)),
            })
        }

        fn function_fingerprint(&self, name: &str) -> Option<String> {
            self.fingerprints.fetch_add(1, Ordering::SeqCst);
            (name != "missing").then(|| format!("src-of-{name}"))
        }
    }

    /// The key `step_with` would compute for a cell: `cache_key` under
    /// `SimExec`'s fingerprint.
    fn step_key(cell: &CampaignCell) -> String {
        crate::cache_key(cell, &format!("src-of-{}", cell.function.name))
    }

    fn harness(capacity: usize) -> (Arc<Scheduler>, Arc<SimExec>, Arc<ManualClock>) {
        let exec = Arc::new(SimExec::new());
        let clock = Arc::new(ManualClock::new());
        let config = SchedulerConfig {
            queue_capacity: capacity,
            retry_after_secs: 3,
            ..SchedulerConfig::default()
        };
        let sched =
            Arc::new(Scheduler::new(exec.clone() as Arc<dyn Executor>, clock.clone(), config));
        (sched, exec, clock)
    }

    fn spec() -> CampaignSpec {
        CampaignSpec {
            functions: vec![CampaignFunction::new("fib").arg("10")],
            languages: vec![Language::Go, Language::Lua],
            platforms: vec![TeePlatform::Tdx, TeePlatform::SevSnp],
            modes: vec![VmKind::Secure],
            trials: 3,
            seed: 5,
            priority: Priority::Normal,
            deadline_ms: None,
            device: None,
        }
    }

    /// Paper Fig. 6 for one platform: 25 functions × 7 languages × both VM
    /// kinds = 350 cells, 10 trials each.
    #[test]
    fn default_config_admits_the_paper_scale_fig6_campaign() {
        let fig6 = CampaignSpec {
            functions: (0..25).map(|i| CampaignFunction::new(format!("function-{i}"))).collect(),
            languages: Language::ALL.to_vec(),
            platforms: vec![TeePlatform::Tdx],
            modes: vec![VmKind::Secure, VmKind::Normal],
            trials: 10,
            ..spec()
        };
        let sched = Scheduler::new(
            Arc::new(SimExec::new()),
            Arc::new(ManualClock::new()),
            SchedulerConfig::default(),
        );
        assert_eq!(sched.submit(fig6).unwrap().jobs, 350);
    }

    /// `SimExec` for which every Go cell would wait.
    struct GoBusy(SimExec);

    impl Executor for GoBusy {
        fn execute(&self, req: &RunRequest) -> Result<RunResult> {
            self.0.execute(req)
        }

        fn function_fingerprint(&self, name: &str) -> Option<String> {
            self.0.function_fingerprint(name)
        }

        fn would_wait(&self, cell: &CampaignCell) -> bool {
            cell.language == Language::Go
        }
    }

    /// A step passes over a job that would wait and runs the next one; the
    /// job passed over keeps its place, and runs once nothing else can.
    #[test]
    fn a_step_passes_over_a_job_that_would_wait() {
        let (sched, _, _) = harness(64);
        let receipt = sched.submit(spec()).unwrap();
        let busy = GoBusy(SimExec::new());
        let ran = |sched: &Scheduler| -> Vec<Language> {
            let status = sched.campaign_status(&receipt.id).unwrap();
            status.cells.iter().map(|c| c.cell.language).collect()
        };
        assert!(sched.step_with(TeePlatform::Tdx, &busy));
        assert_eq!(ran(&sched), [Language::Lua], "the Go job waits, the Lua job runs");
        assert!(sched.step_with(TeePlatform::Tdx, &busy));
        assert_eq!(ran(&sched).len(), 2, "with nothing else queued the Go job runs");
        assert!(!sched.step_with(TeePlatform::Tdx, &busy));
        assert_eq!(busy.0.executions.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn submit_drain_complete() {
        let (sched, exec, _) = harness(64);
        let receipt = sched.submit(spec()).unwrap();
        assert_eq!(receipt.jobs, 4);
        assert_eq!(sched.queue_depth(), 4);
        sched.drain();
        assert_eq!(sched.queue_depth(), 0);
        assert_eq!(exec.executions.load(Ordering::SeqCst), 4);
        let status = sched.campaign_status(&receipt.id).unwrap();
        assert_eq!(status.state, CampaignState::Completed);
        assert_eq!(status.completed, 4);
        assert_eq!(status.cells.len(), 4);
        assert!(status.cells.iter().all(|c| !c.from_cache && c.cache_key.len() == 64));
        // Every job exposes a span tree with the queue wait adopted in.
        for job_id in status.cells.iter().map(|c| &c.job) {
            let job = sched.job_status(job_id).unwrap();
            let trace = job.trace.unwrap();
            assert_eq!(trace.name, "sched.execute");
            assert!(trace.children.iter().any(|c| c.name == "sched.enqueue"));
            assert!(trace.children.iter().any(|c| c.name == "gateway.run"));
        }
    }

    #[test]
    fn resubmission_is_served_entirely_from_cache() {
        let (sched, exec, _) = harness(64);
        let first = sched.submit(spec()).unwrap();
        sched.drain();
        let cold = sched.campaign_status(&first.id).unwrap();
        assert_eq!(exec.executions.load(Ordering::SeqCst), 4);

        let second = sched.submit(spec()).unwrap();
        assert_ne!(second.id, first.id, "each submission gets a fresh id");
        sched.drain();
        assert_eq!(exec.executions.load(Ordering::SeqCst), 4, "no re-execution");
        let warm = sched.campaign_status(&second.id).unwrap();
        assert_eq!(warm.cache_hits, 4);
        assert!(warm.cells.iter().all(|c| c.from_cache));
        assert_eq!(sched.metrics().counter("sched_cache_hits_total").get(), 4);

        // Byte-identical summaries modulo provenance (job id, from_cache).
        for (a, b) in cold.cells.iter().zip(&warm.cells) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.cache_key, b.cache_key);
            assert_eq!(
                (a.mean_ms, a.median_ms, a.min_ms, a.max_ms, a.stddev_ms, &a.output),
                (b.mean_ms, b.median_ms, b.min_ms, b.max_ms, b.stddev_ms, &b.output)
            );
        }
    }

    #[test]
    fn cache_capacity_bounds_entries_and_counts_evictions() {
        let exec = Arc::new(SimExec::new());
        let clock = Arc::new(ManualClock::new());
        let config = SchedulerConfig { cache_capacity: 2, ..SchedulerConfig::default() };
        let sched = Scheduler::new(exec.clone() as Arc<dyn Executor>, clock, config);
        let receipt = sched.submit(spec()).unwrap();
        assert_eq!(receipt.jobs, 4);
        sched.drain();
        // Four distinct results flowed through a 2-entry cache: two evicted.
        assert_eq!(sched.metrics().gauge("sched_cache_entries").get(), 2);
        assert_eq!(sched.metrics().counter("sched_cache_evictions_total").get(), 2);
        // A resubmission scans the cells in the same order, and a 4-cell
        // working set thrashes a 2-entry LRU: every lookup misses, every
        // completion evicts. The cache stays bounded; that's the contract.
        sched.submit(spec()).unwrap();
        sched.drain();
        assert_eq!(exec.executions.load(Ordering::SeqCst), 8);
        assert_eq!(sched.metrics().gauge("sched_cache_entries").get(), 2);
        assert_eq!(sched.metrics().counter("sched_cache_evictions_total").get(), 6);
    }

    #[test]
    fn queue_full_is_all_or_nothing() {
        let (sched, _, _) = harness(5);
        sched.submit(spec()).unwrap(); // 4 of 5 slots
        let err = sched.submit(spec()).unwrap_err(); // needs 4, only 1 free
        match err {
            SubmitError::QueueFull { queued, capacity, retry_after_secs } => {
                assert_eq!((queued, capacity, retry_after_secs), (4, 5, 3));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Nothing from the rejected campaign leaked into the queue.
        assert_eq!(sched.queue_depth(), 4);
        assert_eq!(sched.metrics().counter("sched_jobs_rejected_total").get(), 4);
        let e: Error = sched.submit(spec()).unwrap_err().into();
        assert_eq!(e.rest_status(), 429);
    }

    #[test]
    fn priorities_drain_high_first() {
        let (sched, _, _) = harness(64);
        let mut low = spec();
        low.platforms = vec![TeePlatform::Tdx];
        low.languages = vec![Language::Go];
        low.priority = Priority::Low;
        let mut high = low.clone();
        high.priority = Priority::High;
        high.seed = 99; // distinct cells so both execute
        let low_r = sched.submit(low).unwrap();
        let high_r = sched.submit(high).unwrap();
        assert!(sched.step_with(TeePlatform::Tdx, sched.executor.as_ref()));
        let high_status = sched.campaign_status(&high_r.id).unwrap();
        let low_status = sched.campaign_status(&low_r.id).unwrap();
        assert_eq!(high_status.completed, 1, "high priority jumped the queue");
        assert_eq!(low_status.completed, 0);
    }

    #[test]
    fn cancellation_prevents_queued_jobs_from_executing() {
        let (sched, exec, _) = harness(64);
        let receipt = sched.submit(spec()).unwrap();
        let status = sched.cancel_campaign(&receipt.id).unwrap();
        assert_eq!(status.state, CampaignState::Cancelled);
        assert_eq!(status.cancelled, 4);
        assert_eq!(sched.queue_depth(), 0);
        sched.drain();
        assert_eq!(exec.executions.load(Ordering::SeqCst), 0, "cancelled jobs never execute");
        assert!(sched.cancel_campaign(&CampaignId("nope".into())).is_none());
    }

    #[test]
    fn queue_deadline_expires_stale_jobs() {
        let (sched, exec, clock) = harness(64);
        let mut s = spec();
        s.deadline_ms = Some(10);
        let receipt = sched.submit(s).unwrap();
        clock.advance(10);
        sched.drain();
        let status = sched.campaign_status(&receipt.id).unwrap();
        assert_eq!(status.expired, 4);
        assert_eq!(status.state, CampaignState::Completed);
        assert_eq!(exec.executions.load(Ordering::SeqCst), 0);
        let job = sched.job_status(&JobId(format!("{}-j3", receipt.id))).unwrap();
        assert_eq!(job.state, JobState::Expired);
        assert_eq!(job.error.as_deref(), Some("queued past its 10ms deadline"));
        assert_eq!(sched.metrics().counter("sched_jobs_expired_total").get(), 4);
        // A fresh submission with headroom executes normally.
        let mut s = spec();
        s.deadline_ms = Some(10);
        s.seed = 6;
        let receipt = sched.submit(s).unwrap();
        clock.advance(9);
        sched.drain();
        assert_eq!(sched.campaign_status(&receipt.id).unwrap().completed, 4);
    }

    #[test]
    fn failed_jobs_record_the_error() {
        let (sched, _, _) = harness(64);
        let mut s = spec();
        s.functions = vec![CampaignFunction::new("missing")];
        s.platforms = vec![TeePlatform::Tdx];
        s.languages = vec![Language::Go];
        let receipt = sched.submit(s).unwrap();
        sched.drain();
        let status = sched.campaign_status(&receipt.id).unwrap();
        assert_eq!(status.failed, 1);
        assert_eq!(status.state, CampaignState::Completed);
        let job = sched.job_status(&JobId(format!("{}-j0", receipt.id))).unwrap();
        assert_eq!(job.state, JobState::Failed);
        assert!(job.error.as_deref().unwrap().contains("unknown function"));
        assert_eq!(job.trace.unwrap().name, "sched.execute", "a failed job kept its span tree");
    }

    /// `submit` addresses each cell once, outside the lock, and the step
    /// reads the key the job carries: one fingerprint a cell, and every
    /// summary's key is the one the step would compute.
    #[test]
    fn submit_carries_the_key_the_step_would_compute() {
        let (sched, exec, _) = harness(64);
        let receipt = sched.submit(spec()).unwrap();
        assert_eq!(exec.fingerprints.load(Ordering::SeqCst), 4);
        sched.drain();
        assert_eq!(exec.fingerprints.load(Ordering::SeqCst), 4, "the step re-addressed a cell");
        let status = sched.campaign_status(&receipt.id).unwrap();
        assert_eq!(status.cells.len(), 4);
        for c in &status.cells {
            assert_eq!(c.cache_key, step_key(&c.cell));
        }
    }

    /// The fleet's path: the placer addresses each cell once and hands the
    /// keys over with the cells, so a placed cell costs one fingerprint
    /// where it cost two (placement, then the step). A cell handed over
    /// without a key is addressed at its step.
    #[test]
    fn placed_cells_are_addressed_once() {
        let (sched, exec, _) = harness(64);
        let cells: Vec<(Arc<CampaignCell>, Option<Digest>)> = campaign::expand(&spec())
            .into_iter()
            .map(|cell| {
                let key = exec
                    .function_fingerprint(&cell.function.name)
                    .map(|fp| cache_address(&cell, &fp));
                (Arc::new(cell), key)
            })
            .collect();
        let placed = sched.submit_cells(cells, Priority::Normal, None).unwrap();
        sched.drain();
        assert_eq!(exec.fingerprints.load(Ordering::SeqCst), 4);
        let status = sched.campaign_status(&campaign_id(placed)).unwrap();
        assert!(status.cells.iter().all(|c| c.cache_key == step_key(&c.cell)));

        let mut unaddressed = spec();
        unaddressed.seed = 6;
        let cells =
            campaign::expand(&unaddressed).into_iter().map(|cell| (Arc::new(cell), None)).collect();
        let late = sched.submit_cells(cells, Priority::Normal, None).unwrap();
        sched.drain();
        assert_eq!(exec.fingerprints.load(Ordering::SeqCst), 8, "one at each step");
        let status = sched.campaign_status(&campaign_id(late)).unwrap();
        assert_eq!(status.completed, 4);
        assert!(status.cells.iter().all(|c| c.cache_key == step_key(&c.cell)));
    }

    /// A campaign and a job are found by the numbers in their ids, and only
    /// under the ids they were minted with.
    #[test]
    fn ids_answer_only_as_minted() {
        let (sched, _, _) = harness(64);
        sched.submit(spec()).unwrap();
        sched.drain();
        assert!(sched.campaign_status(&CampaignId("c1".into())).is_some());
        for id in ["c0", "c2", "c01", "c+1", "c", "", "1", "C1", "c1 ", "c1-j0"] {
            assert!(sched.campaign_status(&CampaignId(id.into())).is_none(), "{id:?}");
            assert!(sched.cancel_campaign(&CampaignId(id.into())).is_none(), "{id:?}");
        }
        for index in 0..4 {
            let id = JobRef { campaign: 1, index }.id();
            assert_eq!(id.0, format!("c1-j{index}"));
            assert_eq!(sched.job_status(&id).map(|j| j.id), Some(id));
        }
        for id in [
            "c1-j4",
            "c0-j0",
            "c2-j0",
            "c01-j0",
            "c1-j00",
            "c1-j01",
            "c1-j+0",
            "c+1-j0",
            "c1-j",
            "c-j0",
            "c1j0",
            "c1-j0 ",
            "c1--j0",
            "c1-j0-j0",
            "c1-j18446744073709551616",
        ] {
            assert!(sched.job_status(&JobId(id.into())).is_none(), "{id:?}");
        }
    }

    /// A finished job keeps its cell and its result once: the cell is the
    /// one its placer handed over, and the result is the one the result
    /// cache holds, and a cache hit's.
    #[test]
    fn a_finished_job_shares_its_cell_and_result() {
        let (sched, exec, _) = harness(64);
        let cells: Vec<(Arc<CampaignCell>, Option<Digest>)> = campaign::expand(&spec())
            .into_iter()
            .map(|cell| {
                let fingerprint = exec.function_fingerprint(&cell.function.name).unwrap();
                let key = cache_address(&cell, &fingerprint);
                (Arc::new(cell), Some(key))
            })
            .collect();
        let first = sched.submit_cells(cells.clone(), Priority::Normal, None).unwrap();
        let again = sched.submit_cells(cells.clone(), Priority::Normal, None).unwrap();
        sched.drain();
        let inner = sched.inner.lock();
        for (index, (cell, key)) in cells.iter().enumerate() {
            let cached = sched.cache.get(&key.unwrap()).unwrap();
            let ran = job_in(&inner.campaigns, JobRef { campaign: first, index }).unwrap();
            let hit = job_in(&inner.campaigns, JobRef { campaign: again, index }).unwrap();
            assert!(Arc::ptr_eq(&ran.cell, cell) && Arc::ptr_eq(&hit.cell, cell));
            match (&ran.progress, &hit.progress) {
                (Progress::Ran(ran, _), Progress::Hit(hit)) => {
                    assert!(Arc::ptr_eq(ran, &cached) && Arc::ptr_eq(hit, &cached));
                }
                _ => panic!("job {index}: not ran then hit"),
            }
        }
    }

    #[test]
    fn invalid_spec_is_rejected_up_front() {
        let (sched, _, _) = harness(64);
        let mut s = spec();
        s.trials = 0;
        assert!(matches!(sched.submit(s), Err(SubmitError::Invalid(_))));
        assert_eq!(sched.queue_depth(), 0);
    }

    #[test]
    fn metrics_track_queue_and_cache() {
        let (sched, _, _) = harness(64);
        // The lock-free per-platform depths follow every change to the
        // queue: admission, a step, a cancellation.
        let depths = |sched: &Scheduler| TeePlatform::ALL.map(|p| sched.queue_depth_for(p));
        let receipt = sched.submit(spec()).unwrap();
        assert_eq!(depths(&sched), [2, 2, 0]);
        assert!(sched.step_with(TeePlatform::SevSnp, sched.executor.as_ref()));
        assert_eq!(depths(&sched), [2, 1, 0]);
        assert!(!sched.step_with(TeePlatform::Cca, sched.executor.as_ref()));
        sched.cancel_campaign(&receipt.id).unwrap();
        assert_eq!(depths(&sched), [0, 0, 0]);

        let (sched, _, _) = harness(64);
        sched.submit(spec()).unwrap();
        assert_eq!(sched.metrics().gauge_value("sched_queue_depth"), Some(4));
        sched.drain();
        assert_eq!(depths(&sched), [0, 0, 0]);
        assert_eq!(sched.metrics().gauge_value("sched_queue_depth"), Some(0));
        assert_eq!(sched.metrics().gauge_value("sched_cache_entries"), Some(4));
        assert_eq!(sched.metrics().counter("sched_cache_misses_total").get(), 4);
        assert_eq!(sched.metrics().counter("sched_jobs_enqueued_total").get(), 4);
        assert_eq!(sched.metrics().counter("sched_jobs_completed_total").get(), 4);
    }
}
