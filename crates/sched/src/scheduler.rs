//! The campaign scheduler: expansion, admission, execution, aggregation.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use confbench_obs::{MetricsRegistry, SpanRecorder};
use confbench_stats::Summary;
use confbench_types::{
    CampaignCell, CampaignId, CampaignReceipt, CampaignSpec, CampaignState, CampaignStatus,
    CellSummary, Clock, Error, FunctionSpec, InvalidCampaign, JobId, JobState, JobStatus, Priority,
    RunRequest, TeePlatform, TraceSpan, VmTarget,
};
use parking_lot::Mutex;

use crate::cache::{cache_key, CachedCell, ResultCache};
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

struct JobRecord {
    id: JobId,
    campaign: CampaignId,
    cell: CampaignCell,
    /// The cell's content address, computed at submission (outside the
    /// lock) and taken by the step; `None` when the function was unknown.
    key: Option<String>,
    state: JobState,
    enqueued_at_ms: u64,
    expires_at_ms: Option<u64>,
    summary: Option<CellSummary>,
    error: Option<String>,
    trace: Option<TraceSpan>,
}

struct CampaignRecord {
    job_ids: Vec<JobId>,
    cancelled: bool,
}

struct Inner {
    next_campaign: u64,
    campaigns: BTreeMap<CampaignId, CampaignRecord>,
    jobs: BTreeMap<JobId, JobRecord>,
    queue: BoundedQueue,
}

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
    recorder: SpanRecorder,
    cache: ResultCache,
    inner: Mutex<Inner>,
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
        let inner = Inner {
            next_campaign: 0,
            campaigns: BTreeMap::new(),
            jobs: BTreeMap::new(),
            queue: BoundedQueue::new(config.queue_capacity),
        };
        Scheduler {
            executor,
            clock,
            cache: ResultCache::with_capacity(config.cache_capacity),
            config,
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
        let cells = campaign::expand(&spec)
            .into_iter()
            .map(|cell| {
                let key = self.content_address(&cell);
                (cell, key)
            })
            .collect();
        self.submit_cells(cells, spec.priority, spec.deadline_ms)
    }

    /// A cell's content address as the scheduler's own executor sees its
    /// function, or `None` for a function it does not know.
    fn content_address(&self, cell: &CampaignCell) -> Option<String> {
        self.executor.function_fingerprint(&cell.function.name).map(|fp| cache_key(cell, &fp))
    }

    /// Enqueues pre-expanded cells as one campaign, each with its content
    /// address (`None` for a function the executor does not know; the step
    /// addresses it again, in case it was uploaded since). The fleet layer
    /// uses this to place a partition of a campaign's matrix on the shard
    /// that owns those cells' content addresses (and to re-place the
    /// remainder after a shard dies); [`Scheduler::submit`] is the
    /// expand-then-enqueue wrapper. Job `i` of the receipt's campaign is
    /// [`JobId::in_campaign`]`(id, i)`, cell `i`'s job.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the bounded queue cannot take every
    /// cell (admission stays all-or-nothing).
    pub fn submit_cells(
        &self,
        cells: Vec<(CampaignCell, Option<String>)>,
        priority: Priority,
        deadline_ms: Option<u64>,
    ) -> Result<CampaignReceipt, SubmitError> {
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

    /// Enqueues cells a lost host left behind, as one campaign. Never
    /// refused: the queue bound guards client admission, not recovery, so
    /// the queue may go past it, and [`Scheduler::submit_cells`] answers
    /// [`SubmitError::QueueFull`] until it drains below it again.
    pub fn readmit_cells(
        &self,
        cells: Vec<(CampaignCell, Option<String>)>,
        priority: Priority,
        deadline_ms: Option<u64>,
    ) -> CampaignReceipt {
        self.enqueue(&mut self.inner.lock(), cells, priority, deadline_ms, BoundedQueue::readmit)
    }

    fn enqueue(
        &self,
        inner: &mut Inner,
        cells: Vec<(CampaignCell, Option<String>)>,
        priority: Priority,
        deadline_ms: Option<u64>,
        push: fn(&mut BoundedQueue, TeePlatform, Priority, JobId),
    ) -> CampaignReceipt {
        let now = self.clock.now_ms();
        inner.next_campaign += 1;
        let id = CampaignId(format!("c{}", inner.next_campaign));
        let mut job_ids = Vec::with_capacity(cells.len());
        for (idx, (cell, key)) in cells.into_iter().enumerate() {
            let job_id = JobId::in_campaign(&id, idx);
            push(&mut inner.queue, cell.platform, priority, job_id.clone());
            inner.jobs.insert(
                job_id.clone(),
                JobRecord {
                    id: job_id.clone(),
                    campaign: id.clone(),
                    cell,
                    key,
                    state: JobState::Queued,
                    enqueued_at_ms: now,
                    expires_at_ms: deadline_ms.map(|d| now.saturating_add(d)),
                    summary: None,
                    error: None,
                    trace: None,
                },
            );
            job_ids.push(job_id);
        }
        let jobs = job_ids.len();
        inner.campaigns.insert(id.clone(), CampaignRecord { job_ids, cancelled: false });
        self.metrics.counter("sched_campaigns_total").inc();
        self.metrics.counter("sched_jobs_enqueued_total").add(jobs as u64);
        self.metrics.gauge("sched_queue_depth").set(inner.queue.depth() as u64);
        CampaignReceipt { id, jobs }
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
    pub fn step_with(&self, platform: TeePlatform, executor: &dyn Executor) -> bool {
        // Phase 1 (locked): dequeue and classify.
        let (job_id, cell, key, enqueued_at_ms) = {
            let mut inner = self.inner.lock();
            let Some(job_id) = inner.queue.pop(platform) else {
                return false;
            };
            self.metrics.gauge("sched_queue_depth").set(inner.queue.depth() as u64);
            let now = self.clock.now_ms();
            let job = inner.jobs.get_mut(&job_id).expect("queued job is recorded");
            if job.expires_at_ms.is_some_and(|t| now >= t) {
                job.state = JobState::Expired;
                job.error = Some(format!(
                    "queued past its {}ms deadline",
                    job.expires_at_ms.unwrap_or(0).saturating_sub(job.enqueued_at_ms)
                ));
                self.metrics.counter("sched_jobs_expired_total").inc();
                return true;
            }
            job.state = JobState::Running;
            let cell = job.cell.clone();
            let enqueued_at_ms = job.enqueued_at_ms;

            // Content address: only functions the executor knows have a
            // fingerprint; unknown ones fall through to execution, which
            // reports the precise error.
            let key = job.key.take().or_else(|| self.content_address(&cell));
            if let Some(key) = &key {
                if let Some(hit) = self.cache.get(key) {
                    let summary = build_summary(&job_id, &cell, &hit, true, key);
                    job.state = JobState::Completed;
                    job.summary = Some(summary);
                    self.metrics.counter("sched_cache_hits_total").inc();
                    self.metrics.counter("sched_jobs_completed_total").inc();
                    return true;
                }
                self.metrics.counter("sched_cache_misses_total").inc();
            }
            (job_id, cell, key, enqueued_at_ms)
        };

        // Phase 2 (unlocked): execute — potentially slow, must not hold the
        // scheduler lock so other platforms keep draining.
        self.metrics.gauge("sched_jobs_inflight").inc();
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

        // Phase 3: build the record — span tree, summary, cache entry —
        // unlocked, then file it under the lock, which status polls and the
        // other workers are waiting for.
        let mut span = self.recorder.root("sched.execute");
        span.set_attr("trials", u64::from(cell.trials));
        span.set_attr("seed", cell.seed);
        let mut queued_span = TraceSpan::new("sched.enqueue", enqueued_at_ms);
        queued_span.end_ms = dequeued_at_ms;
        span.adopt(queued_span);

        let record = outcome.map_err(|e| e.to_string()).map(|mut result| {
            if let Some(subtree) = result.trace.take() {
                span.adopt(subtree);
            }
            let stats = Summary::from_samples(&result.trial_ms);
            let cached = CachedCell {
                mean_ms: stats.mean,
                median_ms: stats.median(),
                min_ms: stats.min,
                max_ms: stats.max,
                stddev_ms: stats.stddev,
                output: result.output,
            };
            let key = key.unwrap_or_else(|| {
                // Executed successfully without a fingerprint (function
                // appeared mid-flight); address it now for completeness.
                self.content_address(&cell).unwrap_or_default()
            });
            (build_summary(&job_id, &cell, &cached, false, &key), key, cached)
        });
        let trace = span.finish();

        let mut inner = self.inner.lock();
        let job = inner.jobs.get_mut(&job_id).expect("running job is recorded");
        job.trace = Some(trace);
        match record {
            Ok((summary, key, cached)) => {
                if !key.is_empty() {
                    let evicted = self.cache.insert(key, cached);
                    self.metrics.gauge("sched_cache_entries").set(self.cache.len() as u64);
                    self.metrics.counter("sched_cache_evictions_total").add(evicted);
                }
                job.state = JobState::Completed;
                job.summary = Some(summary);
                self.metrics.counter("sched_jobs_completed_total").inc();
            }
            Err(error) => {
                job.state = JobState::Failed;
                job.error = Some(error);
                self.metrics.counter("sched_jobs_failed_total").inc();
            }
        }
        self.metrics.gauge("sched_jobs_inflight").dec();
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
        {
            let mut inner = self.inner.lock();
            let record = inner.campaigns.get_mut(id)?;
            record.cancelled = true;
            let queued: Vec<JobId> = record
                .job_ids
                .clone()
                .into_iter()
                .filter(|j| inner.jobs.get(j).is_some_and(|job| job.state == JobState::Queued))
                .collect();
            let removed = inner.queue.remove(&queued);
            debug_assert_eq!(removed, queued.len(), "queued jobs live in the queue");
            for job_id in &queued {
                let job = inner.jobs.get_mut(job_id).expect("job recorded");
                job.state = JobState::Cancelled;
            }
            self.metrics.counter("sched_jobs_cancelled_total").add(queued.len() as u64);
            self.metrics.gauge("sched_queue_depth").set(inner.queue.depth() as u64);
        }
        self.campaign_status(id)
    }

    /// Point-in-time status of a campaign, or `None` for an unknown id.
    /// Cells appear in expansion order as their jobs complete, so polling
    /// observes monotone progress.
    pub fn campaign_status(&self, id: &CampaignId) -> Option<CampaignStatus> {
        let inner = self.inner.lock();
        let record = inner.campaigns.get(id)?;
        let mut status = CampaignStatus {
            id: id.clone(),
            state: CampaignState::Active,
            total_jobs: record.job_ids.len(),
            queued: 0,
            running: 0,
            completed: 0,
            failed: 0,
            cancelled: 0,
            expired: 0,
            cache_hits: 0,
            cells: Vec::new(),
        };
        for job_id in &record.job_ids {
            let job = inner.jobs.get(job_id).expect("job recorded");
            match job.state {
                JobState::Queued => status.queued += 1,
                JobState::Running => status.running += 1,
                JobState::Completed => status.completed += 1,
                JobState::Failed => status.failed += 1,
                JobState::Cancelled => status.cancelled += 1,
                JobState::Expired => status.expired += 1,
            }
            if let Some(summary) = &job.summary {
                if summary.from_cache {
                    status.cache_hits += 1;
                }
                status.cells.push(summary.clone());
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

    /// Point-in-time status of one job, or `None` for an unknown id.
    pub fn job_status(&self, id: &JobId) -> Option<JobStatus> {
        let inner = self.inner.lock();
        let job = inner.jobs.get(id)?;
        Some(JobStatus {
            id: job.id.clone(),
            campaign: job.campaign.clone(),
            state: job.state,
            cell: job.cell.clone(),
            summary: job.summary.clone(),
            error: job.error.clone(),
            trace: job.trace.clone(),
        })
    }

    /// How many of `jobs` ended without a result — failed, expired or
    /// cancelled — read under one lock. Unknown ids count for nothing.
    pub fn ended_without_result<'a>(&self, jobs: impl IntoIterator<Item = &'a JobId>) -> usize {
        let inner = self.inner.lock();
        jobs.into_iter()
            .filter_map(|id| inner.jobs.get(id))
            .filter(|job| job.state.is_terminal() && job.state != JobState::Completed)
            .count()
    }

    /// Total jobs currently queued (all platforms).
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().queue.depth()
    }

    /// Jobs currently queued for one platform — what a work-stealing fleet
    /// inspects to pick the deepest victim.
    pub fn queue_depth_for(&self, platform: TeePlatform) -> usize {
        self.inner.lock().queue.depth_for(platform)
    }
}

fn build_summary(
    job: &JobId,
    cell: &CampaignCell,
    cached: &CachedCell,
    from_cache: bool,
    key: &str,
) -> CellSummary {
    CellSummary {
        job: job.clone(),
        cell: cell.clone(),
        mean_ms: cached.mean_ms,
        median_ms: cached.median_ms,
        min_ms: cached.min_ms,
        max_ms: cached.max_ms,
        stddev_ms: cached.stddev_ms,
        output: cached.output.clone(),
        from_cache,
        cache_key: key.to_owned(),
    }
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
        cache_key(cell, &format!("src-of-{}", cell.function.name))
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
        let inner = sched.inner.lock();
        let job = inner.jobs.values().find(|j| j.state == JobState::Failed).unwrap();
        assert!(job.error.as_deref().unwrap().contains("unknown function"));
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
        let cells: Vec<(CampaignCell, Option<String>)> = campaign::expand(&spec())
            .into_iter()
            .map(|cell| {
                let key =
                    exec.function_fingerprint(&cell.function.name).map(|fp| cache_key(&cell, &fp));
                (cell, key)
            })
            .collect();
        let placed = sched.submit_cells(cells, Priority::Normal, None).unwrap();
        sched.drain();
        assert_eq!(exec.fingerprints.load(Ordering::SeqCst), 4);
        let status = sched.campaign_status(&placed.id).unwrap();
        assert!(status.cells.iter().all(|c| c.cache_key == step_key(&c.cell)));

        let mut unaddressed = spec();
        unaddressed.seed = 6;
        let cells = campaign::expand(&unaddressed).into_iter().map(|cell| (cell, None)).collect();
        let late = sched.submit_cells(cells, Priority::Normal, None).unwrap();
        sched.drain();
        assert_eq!(exec.fingerprints.load(Ordering::SeqCst), 8, "one at each step");
        let status = sched.campaign_status(&late.id).unwrap();
        assert_eq!(status.completed, 4);
        assert!(status.cells.iter().all(|c| c.cache_key == step_key(&c.cell)));
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
        sched.submit(spec()).unwrap();
        assert_eq!(sched.metrics().gauge_value("sched_queue_depth"), Some(4));
        sched.drain();
        assert_eq!(sched.metrics().gauge_value("sched_queue_depth"), Some(0));
        assert_eq!(sched.metrics().gauge_value("sched_cache_entries"), Some(4));
        assert_eq!(sched.metrics().counter("sched_cache_misses_total").get(), 4);
        assert_eq!(sched.metrics().counter("sched_jobs_enqueued_total").get(), 4);
        assert_eq!(sched.metrics().counter("sched_jobs_completed_total").get(), 4);
    }
}
