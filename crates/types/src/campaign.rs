//! Wire types for campaigns: batched evaluation matrices submitted to the
//! scheduler (`confbench-sched`).
//!
//! A *campaign* is the unit behind every large result in the paper — e.g.
//! the Fig. 6 heatmap is 25 functions × 7 languages × 2 VM kinds × 2 TEEs.
//! One [`CampaignSpec`] describes the whole matrix; the scheduler expands it
//! into one job per cell, executes the jobs through the gateway, and
//! aggregates a [`CellSummary`] per cell.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{DeviceKind, Language, TeePlatform, TraceSpan, VmKind, MAX_TRIALS};

/// Scheduling priority of a campaign's jobs. Higher priorities drain first;
/// within a priority the queue is FIFO.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(rename_all = "kebab-case")]
pub enum Priority {
    /// Background work: drained only when nothing else is queued.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-sensitive work: jumps the queue.
    High,
}

impl Priority {
    /// All priorities, highest first (drain order).
    pub const DESCENDING: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        })
    }
}

/// Lifecycle state of one scheduled job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum JobState {
    /// Waiting in the bounded queue.
    Queued,
    /// Checked out by a worker; executing (or consulting the result cache).
    Running,
    /// Finished successfully; a [`CellSummary`] is available.
    Completed,
    /// Execution returned an error (recorded on the job).
    Failed,
    /// Cancelled while queued; never reached a VM.
    Cancelled,
    /// Its queue deadline elapsed before a worker picked it up.
    Expired,
}

impl JobState {
    /// Whether the state is final (no further transitions).
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Expired => "expired",
        })
    }
}

/// Aggregate state of a campaign, derived from its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum CampaignState {
    /// At least one job is still queued or running.
    Active,
    /// Every job reached a terminal state and none was cancelled.
    Completed,
    /// The campaign was cancelled (queued jobs never ran).
    Cancelled,
}

impl fmt::Display for CampaignState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CampaignState::Active => "active",
            CampaignState::Completed => "completed",
            CampaignState::Cancelled => "cancelled",
        })
    }
}

/// One function entry in a campaign matrix: a registered function name plus
/// the arguments every cell invokes it with.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CampaignFunction {
    /// Registered function name.
    pub name: String,
    /// Positional arguments.
    #[serde(default)]
    pub args: Vec<String>,
}

impl CampaignFunction {
    /// Creates an entry with no arguments.
    pub fn new(name: impl Into<String>) -> Self {
        CampaignFunction { name: name.into(), args: Vec::new() }
    }

    /// Adds an argument, builder-style.
    pub fn arg(mut self, a: impl Into<String>) -> Self {
        self.args.push(a.into());
        self
    }
}

/// A campaign: the JSON body of `POST /v1/campaigns`.
///
/// The scheduler expands the full cross product
/// `functions × languages × platforms × modes` into jobs. Per-cell seeds are
/// derived deterministically from `seed` and the cell identity, so an
/// identical spec always produces identical cells (and therefore identical
/// result-cache keys).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Functions to evaluate (with their arguments).
    pub functions: Vec<CampaignFunction>,
    /// Language runtimes to sweep.
    pub languages: Vec<Language>,
    /// TEE platforms to sweep.
    pub platforms: Vec<TeePlatform>,
    /// VM kinds to sweep (default: secure and normal, the paper's pairing).
    #[serde(default = "default_modes")]
    pub modes: Vec<VmKind>,
    /// Trials per cell (the paper uses 10).
    #[serde(default = "default_trials")]
    pub trials: u32,
    /// Campaign-level seed; per-cell seeds derive from it.
    #[serde(default)]
    pub seed: u64,
    /// Queue priority.
    #[serde(default)]
    pub priority: Priority,
    /// Optional queue deadline per job in milliseconds: jobs still queued
    /// this long after submission expire instead of running.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Optional confidential passthrough device every cell's VM is built
    /// with (e.g. `gpu` for the TEE-IO accelerator). Absent means plain
    /// VMs, and pre-device campaign specs deserialize unchanged.
    #[serde(default)]
    pub device: Option<DeviceKind>,
}

fn default_modes() -> Vec<VmKind> {
    vec![VmKind::Secure, VmKind::Normal]
}

fn default_trials() -> u32 {
    10
}

/// Upper bound on cells per campaign (guards the expander against
/// accidentally astronomical cross products). Deployments can admit less
/// via [`CampaignSpec::validate_with_limit`], never more.
pub const MAX_CAMPAIGN_CELLS: usize = 100_000;

/// Upper bound on the length of any single campaign axis. Axis entries are
/// materialized verbatim into every expanded cell, so an attacker-sized axis
/// is memory amplification even when the *cross product* stays under the
/// cell cap (e.g. 100 000 functions × 1 × 1 × 1).
pub const MAX_AXIS_LEN: usize = 10_000;

/// Typed rejection of an invalid [`CampaignSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidCampaign {
    /// One of the matrix axes is empty: nothing to expand.
    EmptyAxis(&'static str),
    /// One of the matrix axes exceeds [`MAX_AXIS_LEN`] entries.
    AxisTooLong {
        /// Which axis.
        axis: &'static str,
        /// Entries submitted.
        len: usize,
    },
    /// `trials == 0`.
    ZeroTrials,
    /// `trials` above [`MAX_TRIALS`].
    TooManyTrials(u32),
    /// The cross product exceeds the admission limit in force.
    TooManyCells(usize),
    /// `deadline_ms == Some(0)`.
    ZeroDeadline,
}

impl fmt::Display for InvalidCampaign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidCampaign::EmptyAxis(axis) => {
                write!(f, "campaign axis {axis:?} is empty: nothing to expand")
            }
            InvalidCampaign::AxisTooLong { axis, len } => {
                write!(f, "campaign axis {axis:?} has {len} entries (limit {MAX_AXIS_LEN})")
            }
            InvalidCampaign::ZeroTrials => write!(f, "trials must be at least 1 (got 0)"),
            InvalidCampaign::TooManyTrials(n) => {
                write!(f, "{n} trials a cell requested (limit {MAX_TRIALS})")
            }
            InvalidCampaign::TooManyCells(n) => {
                write!(f, "campaign expands to {n} cells (limit {MAX_CAMPAIGN_CELLS})")
            }
            InvalidCampaign::ZeroDeadline => {
                write!(f, "deadline_ms must be positive when set (got 0)")
            }
        }
    }
}

impl std::error::Error for InvalidCampaign {}

impl From<InvalidCampaign> for crate::Error {
    fn from(e: InvalidCampaign) -> Self {
        match e {
            // Size rejections are 413: the spec is well-formed, just bigger
            // than the service admits — the client should shrink it.
            InvalidCampaign::TooManyCells(_)
            | InvalidCampaign::AxisTooLong { .. }
            | InvalidCampaign::TooManyTrials(_) => crate::Error::PayloadTooLarge(e.to_string()),
            _ => crate::Error::InvalidRequest(e.to_string()),
        }
    }
}

impl CampaignSpec {
    /// Number of cells the spec expands to (may overflow-saturate).
    pub fn cell_count(&self) -> usize {
        self.functions
            .len()
            .saturating_mul(self.languages.len())
            .saturating_mul(self.platforms.len())
            .saturating_mul(self.modes.len())
    }

    /// Checks the invariants the scheduler requires, with the default
    /// [`MAX_CAMPAIGN_CELLS`] admission limit.
    ///
    /// # Errors
    ///
    /// As [`CampaignSpec::validate_with_limit`].
    pub fn validate(&self) -> Result<(), InvalidCampaign> {
        self.validate_with_limit(MAX_CAMPAIGN_CELLS)
    }

    /// Checks the invariants the scheduler requires, admitting at most
    /// `max_cells` expanded cells (clamped to [`MAX_CAMPAIGN_CELLS`]).
    ///
    /// All bounds are enforced *here*, at admission, before any expansion
    /// allocates — an adversarial spec costs the service one arithmetic
    /// pass, not a queue-time OOM.
    ///
    /// # Errors
    ///
    /// [`InvalidCampaign`] when an axis is empty or longer than
    /// [`MAX_AXIS_LEN`], `trials` is outside `1..=`[`MAX_TRIALS`], a zero
    /// deadline was set, or the cross product exceeds the limit in force.
    pub fn validate_with_limit(&self, max_cells: usize) -> Result<(), InvalidCampaign> {
        let axes: [(&'static str, usize); 4] = [
            ("functions", self.functions.len()),
            ("languages", self.languages.len()),
            ("platforms", self.platforms.len()),
            ("modes", self.modes.len()),
        ];
        for (axis, len) in axes {
            if len == 0 {
                return Err(InvalidCampaign::EmptyAxis(axis));
            }
            if len > MAX_AXIS_LEN {
                return Err(InvalidCampaign::AxisTooLong { axis, len });
            }
        }
        if self.trials == 0 {
            return Err(InvalidCampaign::ZeroTrials);
        }
        if self.trials > MAX_TRIALS {
            return Err(InvalidCampaign::TooManyTrials(self.trials));
        }
        if self.deadline_ms == Some(0) {
            return Err(InvalidCampaign::ZeroDeadline);
        }
        let cells = self.cell_count();
        if cells > max_cells.min(MAX_CAMPAIGN_CELLS) {
            return Err(InvalidCampaign::TooManyCells(cells));
        }
        Ok(())
    }
}

/// One expanded cell of a campaign matrix: exactly what one job executes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignCell {
    /// Function and arguments.
    pub function: CampaignFunction,
    /// Language runtime.
    pub language: Language,
    /// TEE platform.
    pub platform: TeePlatform,
    /// Secure or normal VM.
    pub kind: VmKind,
    /// Trials to execute.
    pub trials: u32,
    /// Derived per-cell seed.
    pub seed: u64,
    /// Confidential passthrough device the cell's VM is built with, when
    /// the campaign requested one.
    #[serde(default)]
    pub device: Option<DeviceKind>,
}

/// Identifier of a submitted campaign (e.g. `"c3"`). Unique per submission;
/// two submissions of the same spec get distinct ids (the *results* dedupe
/// through the content-addressed cache, not the campaigns).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CampaignId(pub String);

impl fmt::Display for CampaignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Identifier of one job (e.g. `"c3-j17"`). Contains no `/` so it is safe
/// as a single REST path segment.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct JobId(pub String);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Aggregated outcome of one completed cell, built from the run result via
/// `confbench-stats`. Deterministic by construction: replaying the same
/// spec yields byte-identical summaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// The job that produced (or cache-served) this summary.
    pub job: JobId,
    /// The cell executed.
    pub cell: CampaignCell,
    /// Mean trial time in milliseconds.
    pub mean_ms: f64,
    /// Median (p50) trial time in milliseconds.
    pub median_ms: f64,
    /// Minimum trial time in milliseconds.
    pub min_ms: f64,
    /// Maximum trial time in milliseconds.
    pub max_ms: f64,
    /// Sample standard deviation in milliseconds.
    pub stddev_ms: f64,
    /// Function output (for correctness validation across cells).
    pub output: String,
    /// Whether the cell was served from the content-addressed result cache
    /// instead of executing.
    pub from_cache: bool,
    /// Content-address of the cell's result (lowercase hex SHA-256).
    pub cache_key: String,
}

/// Receipt returned by `POST /v1/campaigns` (status 202).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignReceipt {
    /// Assigned campaign id.
    pub id: CampaignId,
    /// Number of jobs enqueued (= cells in the matrix).
    pub jobs: usize,
}

/// Point-in-time view of one campaign: the body of
/// `GET /v1/campaigns/{id}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignStatus {
    /// Campaign id.
    pub id: CampaignId,
    /// Derived aggregate state.
    pub state: CampaignState,
    /// Total jobs in the campaign.
    pub total_jobs: usize,
    /// Jobs still waiting in the queue.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs finished successfully.
    pub completed: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs cancelled before running.
    pub cancelled: usize,
    /// Jobs whose queue deadline expired.
    pub expired: usize,
    /// How many completed cells were served from the result cache.
    pub cache_hits: usize,
    /// Summaries of completed cells, in cell-expansion order (partial while
    /// the campaign is active — this is the polling surface).
    pub cells: Vec<CellSummary>,
}

impl CampaignStatus {
    /// Jobs in a terminal state.
    pub fn terminal_jobs(&self) -> usize {
        self.completed + self.failed + self.cancelled + self.expired
    }

    /// Whether every job reached a terminal state.
    pub fn is_done(&self) -> bool {
        self.terminal_jobs() == self.total_jobs
    }
}

/// Point-in-time view of one job: the body of `GET /v1/jobs/{id}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job id.
    pub id: JobId,
    /// Owning campaign.
    pub campaign: CampaignId,
    /// Current state.
    pub state: JobState,
    /// The cell this job executes.
    pub cell: CampaignCell,
    /// Summary, when completed.
    pub summary: Option<CellSummary>,
    /// Error message, when failed.
    pub error: Option<String>,
    /// The job's `sched.execute` span tree (gateway subtree adopted),
    /// when it executed rather than hitting the cache.
    #[serde(default)]
    pub trace: Option<TraceSpan>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CampaignSpec {
        CampaignSpec {
            functions: vec![CampaignFunction::new("factors").arg("360360")],
            languages: vec![Language::Go, Language::Lua],
            platforms: vec![TeePlatform::Tdx],
            modes: vec![VmKind::Secure, VmKind::Normal],
            trials: 3,
            seed: 7,
            priority: Priority::Normal,
            deadline_ms: None,
            device: None,
        }
    }

    #[test]
    fn cell_count_is_the_cross_product() {
        assert_eq!(spec().cell_count(), 4);
    }

    #[test]
    fn validate_rejects_empty_axes_and_zero_trials() {
        let mut s = spec();
        s.functions.clear();
        assert_eq!(s.validate(), Err(InvalidCampaign::EmptyAxis("functions")));
        let mut s = spec();
        s.languages.clear();
        assert_eq!(s.validate(), Err(InvalidCampaign::EmptyAxis("languages")));
        let mut s = spec();
        s.platforms.clear();
        assert_eq!(s.validate(), Err(InvalidCampaign::EmptyAxis("platforms")));
        let mut s = spec();
        s.modes.clear();
        assert_eq!(s.validate(), Err(InvalidCampaign::EmptyAxis("modes")));
        let mut s = spec();
        s.trials = 0;
        assert_eq!(s.validate(), Err(InvalidCampaign::ZeroTrials));
        s.trials = MAX_TRIALS + 1;
        assert_eq!(s.validate(), Err(InvalidCampaign::TooManyTrials(MAX_TRIALS + 1)));
        let mut s = spec();
        s.deadline_ms = Some(0);
        assert_eq!(s.validate(), Err(InvalidCampaign::ZeroDeadline));
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn validate_caps_the_cross_product() {
        let mut s = spec();
        // Every axis is within its own cap, but the product overflows the
        // cell cap: 10k functions × 11 languages × 1 platform × 2 modes.
        s.functions = (0..MAX_AXIS_LEN).map(|i| CampaignFunction::new(format!("f{i}"))).collect();
        s.languages = vec![Language::Go; 11];
        s.platforms = vec![TeePlatform::Tdx];
        assert!(matches!(s.validate(), Err(InvalidCampaign::TooManyCells(_))));
    }

    #[test]
    fn validate_caps_each_axis_before_the_product() {
        // A single oversized axis is refused even though the cross product
        // (100 001 × 1 × 1 × 1) is only just over the cell cap — the axis
        // bytes themselves are the amplification vector.
        let mut s = spec();
        s.functions = (0..=MAX_AXIS_LEN).map(|i| CampaignFunction::new(format!("f{i}"))).collect();
        s.languages = vec![Language::Go];
        s.platforms = vec![TeePlatform::Tdx];
        s.modes = vec![VmKind::Secure];
        assert_eq!(
            s.validate(),
            Err(InvalidCampaign::AxisTooLong { axis: "functions", len: MAX_AXIS_LEN + 1 })
        );
    }

    #[test]
    fn validate_with_limit_tightens_but_never_loosens_the_cap() {
        let s = spec(); // 4 cells
        assert!(s.validate_with_limit(4).is_ok());
        assert_eq!(s.validate_with_limit(3), Err(InvalidCampaign::TooManyCells(4)));
        // A huge configured limit still clamps to MAX_CAMPAIGN_CELLS.
        let mut big = spec();
        big.functions = (0..MAX_AXIS_LEN).map(|i| CampaignFunction::new(format!("f{i}"))).collect();
        big.languages = vec![Language::Go; 11];
        big.platforms = vec![TeePlatform::Tdx];
        assert!(matches!(
            big.validate_with_limit(usize::MAX),
            Err(InvalidCampaign::TooManyCells(_))
        ));
    }

    #[test]
    fn spec_json_defaults() {
        let json = r#"{"functions":[{"name":"fib"}],
                       "languages":["go"],"platforms":["tdx"]}"#;
        let s: CampaignSpec = serde_json::from_str(json).unwrap();
        assert_eq!(s.modes, vec![VmKind::Secure, VmKind::Normal]);
        assert_eq!(s.trials, 10);
        assert_eq!(s.seed, 0);
        assert_eq!(s.priority, Priority::Normal);
        assert_eq!(s.deadline_ms, None);
        assert_eq!(s.device, None);
        assert!(s.functions[0].args.is_empty());
    }

    #[test]
    fn spec_device_roundtrips() {
        let mut s = spec();
        s.device = Some(DeviceKind::Gpu);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"device\":\"gpu\""));
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.device, Some(DeviceKind::Gpu));
    }

    #[test]
    fn spec_roundtrips() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn priorities_order_and_drain_descending() {
        assert!(Priority::High > Priority::Normal);
        assert!(Priority::Normal > Priority::Low);
        assert_eq!(Priority::DESCENDING[0], Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn job_states_classify_terminal() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        for s in [JobState::Completed, JobState::Failed, JobState::Cancelled, JobState::Expired] {
            assert!(s.is_terminal(), "{s}");
        }
    }

    #[test]
    fn invalid_campaign_maps_to_400() {
        let e: crate::Error = InvalidCampaign::ZeroTrials.into();
        assert_eq!(e.rest_status(), 400);
    }

    #[test]
    fn oversized_campaign_maps_to_413() {
        let e: crate::Error = InvalidCampaign::TooManyCells(1_000_000).into();
        assert_eq!(e.rest_status(), 413);
        let e: crate::Error = InvalidCampaign::AxisTooLong { axis: "functions", len: 99 }.into();
        assert_eq!(e.rest_status(), 413);
        let e: crate::Error = InvalidCampaign::TooManyTrials(u32::MAX).into();
        assert_eq!(e.rest_status(), 413);
    }

    #[test]
    fn status_progress_helpers() {
        let status = CampaignStatus {
            id: CampaignId("c1".into()),
            state: CampaignState::Active,
            total_jobs: 4,
            queued: 1,
            running: 1,
            completed: 2,
            failed: 0,
            cancelled: 0,
            expired: 0,
            cache_hits: 1,
            cells: Vec::new(),
        };
        assert_eq!(status.terminal_jobs(), 2);
        assert!(!status.is_done());
    }
}
