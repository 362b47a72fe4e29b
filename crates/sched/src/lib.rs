//! Asynchronous campaign scheduling for ConfBench.
//!
//! The paper's workflow (§III) submits one run at a time; reproducing a
//! figure like the Fig. 6 heatmap means hundreds of runs. This crate adds
//! the batching layer on top of the gateway:
//!
//! * [`campaign::expand`] — turns one [`CampaignSpec`](confbench_types::CampaignSpec)
//!   into its matrix of cells, with deterministic per-cell seeds;
//! * [`BoundedQueue`] — a bounded, priority job queue with per-platform
//!   sub-queues; admission is all-or-nothing per campaign, and rejection
//!   surfaces as HTTP 429 with a `Retry-After` header;
//! * [`ResultCache`] — content-addressed memoization of cell results, keyed
//!   on a SHA-256 over (function identity *and source*, platform, language,
//!   VM kind, trials, seed), so replaying a campaign is free and editing a
//!   function's source invalidates exactly its cells. The address is kept as
//!   its 32 bytes ([`cache_address`]); its hex text ([`cache_key`]) is only
//!   written on the wire;
//! * [`Scheduler`] — ties the above together: expands campaigns, enqueues
//!   jobs, executes them through an [`Executor`] (the gateway), aggregates
//!   per-cell summaries with `confbench-stats`, and exposes cancellation,
//!   queue deadlines, metrics, and trace spans. A job is two numbers
//!   ([`JobRef`]), written `c3-j17` only on the wire; it shares its cell
//!   with whoever placed it and its result with the result cache, and keeps
//!   its span tree packed; its summary is assembled on read;
//! * [`rest::add_routes`] — the `/v1/campaigns` and `/v1/jobs` REST surface.
//!
//! Everything is deterministic under a
//! [`ManualClock`](confbench_types::ManualClock): tests drive workers with
//! [`Scheduler::step_with`]/[`Scheduler::drain`] instead of spawning threads, and
//! no wall-clock or RNG state leaks into results.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use confbench_sched::{Executor, Scheduler, SchedulerConfig};
//! use confbench_types::{
//!     CampaignFunction, CampaignSpec, Language, ManualClock, Priority, RunRequest, RunResult,
//!     TeePlatform, VmKind,
//! };
//!
//! struct Echo;
//! impl Executor for Echo {
//!     fn execute(&self, req: &RunRequest) -> confbench_types::Result<RunResult> {
//!         let trial_ms = vec![1.0; req.trials as usize];
//!         Ok(RunResult {
//!             function: req.function.name.clone(),
//!             language: req.function.language,
//!             target: req.target,
//!             stats: RunResult::compute_stats(&trial_ms),
//!             trial_ms,
//!             trial_cycles: Vec::new(),
//!             perf: Default::default(),
//!             output: "ok".into(),
//!             trace: None,
//!         })
//!     }
//!     fn function_fingerprint(&self, _name: &str) -> Option<String> {
//!         Some("source-hash".into())
//!     }
//! }
//!
//! let clock = Arc::new(ManualClock::new());
//! let sched = Scheduler::new(Arc::new(Echo), clock, SchedulerConfig::default());
//! let spec = CampaignSpec {
//!     functions: vec![CampaignFunction::new("fib").arg("10")],
//!     languages: vec![Language::Go],
//!     platforms: vec![TeePlatform::Tdx],
//!     modes: vec![VmKind::Secure, VmKind::Normal],
//!     trials: 3,
//!     seed: 1,
//!     priority: Priority::Normal,
//!     deadline_ms: None,
//!     device: None,
//! };
//! let receipt = sched.submit(spec).unwrap();
//! assert_eq!(receipt.jobs, 2);
//! sched.drain();
//! let status = sched.campaign_status(&receipt.id).unwrap();
//! assert!(status.is_done());
//! assert_eq!(status.completed, 2);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing))]
#![warn(missing_docs)]

mod cache;
pub mod campaign;
mod queue;
pub mod rest;
mod scheduler;

use confbench_types::{CampaignCell, Result, RunRequest, RunResult};

pub use cache::{cache_address, cache_key, CachedCell, ResultCache, DEFAULT_CACHE_CAPACITY};
pub use queue::BoundedQueue;
pub use scheduler::{JobRef, Scheduler, SchedulerConfig, SubmitError};

/// The execution backend the scheduler dispatches jobs through.
///
/// The gateway implements this (`confbench` depends on this crate, not the
/// other way round, so the scheduler stays free of dispatch internals and
/// tests can plug in synthetic executors).
pub trait Executor: Send + Sync {
    /// Executes one run synchronously.
    ///
    /// # Errors
    ///
    /// Whatever the dispatch path surfaces — unknown function, no VM,
    /// deadline exceeded, workload failure.
    fn execute(&self, request: &RunRequest) -> Result<RunResult>;

    /// A stable fingerprint of the named function's *source* (e.g. a hash of
    /// the uploaded script), or `None` when the function is unknown.
    ///
    /// The fingerprint is folded into result-cache keys so editing a
    /// function's source invalidates exactly that function's cached cells.
    fn function_fingerprint(&self, name: &str) -> Option<String>;

    /// Whether executing `cell` now would park behind work another thread
    /// is doing for it — its function's launch, say. A step passes over
    /// such a job to the next one ([`Scheduler::step_with`]), so a second
    /// driver runs something instead of waiting. Never, by default.
    fn would_wait(&self, cell: &CampaignCell) -> bool {
        let _ = cell;
        false
    }
}
