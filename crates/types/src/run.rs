//! Wire types for submitting workloads and returning results.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Cycles, DeviceKind, Language, TraceSpan, VmTarget};

/// The broad class of a workload (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(rename_all = "kebab-case")]
pub enum WorkloadKind {
    /// A FaaS function executed through a language runtime.
    Faas,
    /// A classic workload: ML inference, DBMS stress, OS microbenchmarks.
    Classic,
}

/// A function registered with the ConfBench gateway.
///
/// In the real tool users upload function source files per language; here the
/// spec names a workload from the built-in suite plus its arguments. The
/// gateway keeps a database of these (paper §III-C).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionSpec {
    /// Unique function name, e.g. `"cpustress"`.
    pub name: String,
    /// Language the function is implemented in.
    pub language: Language,
    /// Positional string arguments passed to the function.
    #[serde(default)]
    pub args: Vec<String>,
}

impl FunctionSpec {
    /// Creates a spec with no arguments.
    pub fn new(name: impl Into<String>, language: Language) -> Self {
        FunctionSpec { name: name.into(), language, args: Vec::new() }
    }

    /// Adds an argument, builder-style.
    pub fn arg(mut self, a: impl Into<String>) -> Self {
        self.args.push(a.into());
        self
    }
}

/// A request to execute a function on a given VM target.
///
/// This is the JSON body a user POSTs to the gateway's `/run` endpoint
/// (paper Fig. 2, step 2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunRequest {
    /// What to run.
    pub function: FunctionSpec,
    /// Where to run it (platform + secure/normal).
    pub target: VmTarget,
    /// How many independent trials to execute (the paper uses 10).
    #[serde(default = "default_trials")]
    pub trials: u32,
    /// Deterministic seed for the simulated execution.
    #[serde(default)]
    pub seed: u64,
    /// Optional end-to-end budget in milliseconds. The gateway stops
    /// retrying and bounds remote transport timeouts so the caller gets an
    /// answer (or a 504) within this window. `None` means the gateway's
    /// defaults apply.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Optional attestation-session token (from `POST /v1/attest/sessions`).
    /// When the named session is live the gateway skips hot-path
    /// verification of the target platform; when it has expired or been
    /// invalidated the gateway re-verifies through its session cache before
    /// dispatching. Unknown ids are rejected as invalid requests.
    #[serde(default)]
    pub attest_session: Option<String>,
    /// Optional confidential passthrough device to attach to the VM. The
    /// host locks the device interface (TDISP), attests it through the
    /// gateway's verification cache, and only then enables direct DMA to
    /// private memory; absent means no device (and any device-offload ops
    /// in the workload fall back to the bounce path).
    #[serde(default)]
    pub device: Option<DeviceKind>,
}

fn default_trials() -> u32 {
    1
}

/// Most trials one request, or one campaign cell, may ask for. The paper
/// measures 10 a cell; a hundred times that leaves room for any tighter
/// confidence interval a study could want, while the worker a request holds
/// and the reports it accumulates stay bounded by a constant rather than by
/// a `u32` read off the wire.
pub const MAX_TRIALS: u32 = 1_000;

/// Typed rejection from [`RunRequest::validate`], which the gateway and
/// every host call before anything executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidRunRequest {
    /// `trials == 0`: there is nothing to measure.
    ZeroTrials,
    /// `trials` above [`MAX_TRIALS`].
    TooManyTrials(u32),
    /// `deadline_ms == Some(0)`: the budget is already exhausted.
    ZeroDeadline,
}

impl fmt::Display for InvalidRunRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidRunRequest::ZeroTrials => {
                write!(f, "trials must be at least 1 (got 0)")
            }
            InvalidRunRequest::TooManyTrials(n) => {
                write!(f, "{n} trials requested (limit {MAX_TRIALS})")
            }
            InvalidRunRequest::ZeroDeadline => {
                write!(f, "deadline_ms must be positive when set (got 0)")
            }
        }
    }
}

impl std::error::Error for InvalidRunRequest {}

impl From<InvalidRunRequest> for crate::Error {
    fn from(e: InvalidRunRequest) -> Self {
        match e {
            // 413, like the campaign size rejections: well-formed, too big.
            InvalidRunRequest::TooManyTrials(_) => crate::Error::PayloadTooLarge(e.to_string()),
            _ => crate::Error::InvalidRequest(e.to_string()),
        }
    }
}

impl RunRequest {
    /// Creates a single-trial request with seed 0 and no deadline.
    pub fn new(function: FunctionSpec, target: VmTarget) -> Self {
        RunRequest {
            function,
            target,
            trials: 1,
            seed: 0,
            deadline_ms: None,
            attest_session: None,
            device: None,
        }
    }

    /// Rejects `trials` outside `1..=`[`MAX_TRIALS`] and a zero deadline at
    /// the API boundary, before anything executes.
    ///
    /// # Example
    ///
    /// ```
    /// use confbench_types::{FunctionSpec, InvalidRunRequest, Language, RunRequest, TeePlatform,
    ///                       VmTarget};
    ///
    /// let spec = FunctionSpec::new("fib", Language::Go);
    /// let req = RunRequest::new(spec, VmTarget::secure(TeePlatform::Tdx)).trials(10);
    /// assert_eq!(req.validate(), Ok(()));
    /// assert_eq!(req.trials(0).validate(), Err(InvalidRunRequest::ZeroTrials));
    /// ```
    ///
    /// # Errors
    ///
    /// [`InvalidRunRequest::ZeroTrials`] when `trials == 0`;
    /// [`InvalidRunRequest::TooManyTrials`] above [`MAX_TRIALS`];
    /// [`InvalidRunRequest::ZeroDeadline`] when a zero deadline was set.
    pub fn validate(&self) -> Result<(), InvalidRunRequest> {
        if self.trials == 0 {
            return Err(InvalidRunRequest::ZeroTrials);
        }
        if self.trials > MAX_TRIALS {
            return Err(InvalidRunRequest::TooManyTrials(self.trials));
        }
        if self.deadline_ms == Some(0) {
            return Err(InvalidRunRequest::ZeroDeadline);
        }
        Ok(())
    }

    /// Sets the trial count, builder-style.
    pub fn trials(mut self, n: u32) -> Self {
        self.trials = n;
        self
    }

    /// Sets the seed, builder-style.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the end-to-end deadline in milliseconds, builder-style.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Attaches an attestation-session token, builder-style.
    pub fn attest_session(mut self, id: impl Into<String>) -> Self {
        self.attest_session = Some(id.into());
        self
    }

    /// Requests a confidential passthrough device, builder-style.
    pub fn device(mut self, kind: DeviceKind) -> Self {
        self.device = Some(kind);
        self
    }
}

/// Performance counters piggybacked with a run's output (paper §III-B:
/// ConfBench invokes `perf stat` on dispatch and returns the metrics with the
/// result).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Retired instructions (abstract ops in the simulation).
    pub instructions: u64,
    /// Elapsed virtual cycles.
    pub cycles: u64,
    /// Cache references observed by the cache model.
    pub cache_references: u64,
    /// Cache misses observed by the cache model.
    pub cache_misses: u64,
    /// VM exits (TDCALLs / GHCB exits / RSI calls depending on platform).
    pub vm_exits: u64,
    /// Guest page faults taken (stage-2 / nested faults included).
    pub page_faults: u64,
    /// Bytes staged through the confidential-I/O bounce pool (0 in normal
    /// VMs and with direct DMA). Surfaced so I/O cost attribution does not
    /// require parsing the span tree.
    #[serde(default)]
    pub bounce_bytes: u64,
    /// Whether the numbers came from the perf-counter path (`true`) or the
    /// custom-script fallback used where counters are unavailable, e.g. CCA
    /// realms (`false`).
    pub from_hw_counters: bool,
}

impl PerfReport {
    /// Cache miss ratio in `[0, 1]`, or 0 when no references were recorded.
    pub fn miss_ratio(&self) -> f64 {
        if self.cache_references == 0 {
            0.0
        } else {
            self.cache_misses as f64 / self.cache_references as f64
        }
    }
}

/// Summary statistics over a run's trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrialStats {
    /// Mean wall-clock milliseconds across trials.
    pub mean_ms: f64,
    /// Minimum trial time in milliseconds.
    pub min_ms: f64,
    /// Maximum trial time in milliseconds.
    pub max_ms: f64,
    /// Sample standard deviation in milliseconds (0 for a single trial).
    pub stddev_ms: f64,
}

/// The result of executing a [`RunRequest`], returned to the user by the
/// gateway (paper Fig. 2, step 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Echo of the executed function name.
    pub function: String,
    /// Echo of the language.
    pub language: Language,
    /// Echo of the target.
    pub target: VmTarget,
    /// Per-trial wall-clock times in milliseconds (virtual time).
    pub trial_ms: Vec<f64>,
    /// Per-trial elapsed cycles.
    pub trial_cycles: Vec<Cycles>,
    /// Aggregate statistics over `trial_ms`.
    pub stats: TrialStats,
    /// Perf counters from the *last* trial (matching `perf stat` semantics of
    /// one report per invocation).
    pub perf: PerfReport,
    /// Function output (workload-specific, used to validate correctness).
    pub output: String,
    /// Trace-span tree for the measured trial, when tracing was enabled:
    /// the gateway's root span with host/VM cost-class children nested
    /// underneath. Round-trips remote dispatch; absent from old peers.
    #[serde(default)]
    pub trace: Option<TraceSpan>,
}

impl RunResult {
    /// Computes [`TrialStats`] from the recorded trial times.
    ///
    /// # Panics
    ///
    /// Panics if `trial_ms` is empty.
    pub fn compute_stats(trial_ms: &[f64]) -> TrialStats {
        assert!(!trial_ms.is_empty(), "at least one trial is required");
        let n = trial_ms.len() as f64;
        let mean = trial_ms.iter().sum::<f64>() / n;
        let min = trial_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let max = trial_ms.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let var = if trial_ms.len() > 1 {
            trial_ms.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        TrialStats { mean_ms: mean, min_ms: min, max_ms: max, stddev_ms: var.sqrt() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TeePlatform;

    #[test]
    fn builder_chains() {
        let spec = FunctionSpec::new("factors", Language::Go).arg("1234567");
        let req = RunRequest::new(spec, VmTarget::secure(TeePlatform::Tdx)).trials(10).seed(42);
        assert_eq!(req.trials, 10);
        assert_eq!(req.seed, 42);
        assert_eq!(req.function.args, vec!["1234567"]);
    }

    #[test]
    fn request_json_roundtrip() {
        let req = RunRequest::new(
            FunctionSpec::new("fib", Language::Wasm),
            VmTarget::normal(TeePlatform::Cca),
        );
        let json = serde_json::to_string(&req).unwrap();
        let back: RunRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn trials_default_when_absent() {
        let json = r#"{"function":{"name":"fib","language":"go"},
                       "target":{"platform":"tdx","kind":"secure"}}"#;
        let req: RunRequest = serde_json::from_str(json).unwrap();
        assert_eq!(req.trials, 1);
        assert_eq!(req.seed, 0);
        assert_eq!(req.deadline_ms, None);
        assert_eq!(req.device, None);
    }

    #[test]
    fn device_roundtrips_and_defaults_to_none() {
        let req = RunRequest::new(
            FunctionSpec::new("gpu-inference", Language::Go),
            VmTarget::secure(TeePlatform::Tdx),
        )
        .device(DeviceKind::Gpu);
        let json = serde_json::to_string(&req).unwrap();
        assert!(json.contains("\"device\":\"gpu\""));
        let back: RunRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.device, Some(DeviceKind::Gpu));
    }

    #[test]
    fn deadline_roundtrips_and_defaults() {
        let req = RunRequest::new(
            FunctionSpec::new("fib", Language::Wasm),
            VmTarget::secure(TeePlatform::Tdx),
        )
        .deadline_ms(250);
        assert_eq!(req.deadline_ms, Some(250));
        let json = serde_json::to_string(&req).unwrap();
        let back: RunRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back.deadline_ms, Some(250));
    }

    #[test]
    fn stats_single_trial_has_zero_stddev() {
        let s = RunResult::compute_stats(&[5.0]);
        assert_eq!(s.mean_ms, 5.0);
        assert_eq!(s.stddev_ms, 0.0);
        assert_eq!(s.min_ms, 5.0);
        assert_eq!(s.max_ms, 5.0);
    }

    #[test]
    fn stats_known_values() {
        let s = RunResult::compute_stats(&[2.0, 4.0, 6.0]);
        assert!((s.mean_ms - 4.0).abs() < 1e-12);
        assert!((s.stddev_ms - 2.0).abs() < 1e-12);
        assert_eq!(s.min_ms, 2.0);
        assert_eq!(s.max_ms, 6.0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn stats_empty_panics() {
        let _ = RunResult::compute_stats(&[]);
    }

    #[test]
    fn builder_rejects_zero_trials_and_zero_deadline() {
        let spec = FunctionSpec::new("fib", Language::Go);
        let target = VmTarget::secure(TeePlatform::Tdx);
        let err = RunRequest::new(spec.clone(), target).trials(0).validate().unwrap_err();
        assert_eq!(err, InvalidRunRequest::ZeroTrials);
        let err = RunRequest::new(spec.clone(), target).deadline_ms(0).validate().unwrap_err();
        assert_eq!(err, InvalidRunRequest::ZeroDeadline);
        let err = RunRequest::new(spec.clone(), target).trials(u32::MAX).validate().unwrap_err();
        assert_eq!(err, InvalidRunRequest::TooManyTrials(u32::MAX));
        RunRequest::new(spec.clone(), target).trials(MAX_TRIALS).validate().unwrap();
        let ok = RunRequest::new(spec, target).trials(10).deadline_ms(500);
        assert_eq!(ok.trials, 10);
        assert_eq!(ok.deadline_ms, Some(500));
        ok.validate().unwrap();
    }

    #[test]
    fn invalid_request_converts_to_workspace_error() {
        let e: crate::Error = InvalidRunRequest::ZeroTrials.into();
        assert!(matches!(e, crate::Error::InvalidRequest(_)));
        assert_eq!(e.rest_status(), 400);
        let e: crate::Error = InvalidRunRequest::TooManyTrials(MAX_TRIALS + 1).into();
        assert_eq!(e.rest_status(), 413);
    }

    #[test]
    fn result_trace_defaults_to_none_on_old_wire_data() {
        // A result serialized by a pre-observability peer has no trace key.
        let json = r#"{"function":"fib","language":"go",
                       "target":{"platform":"tdx","kind":"secure"},
                       "trial_ms":[1.0],"trial_cycles":[100],
                       "stats":{"mean_ms":1.0,"min_ms":1.0,"max_ms":1.0,"stddev_ms":0.0},
                       "perf":{"instructions":1,"cycles":100,"cache_references":0,
                               "cache_misses":0,"vm_exits":0,"page_faults":0,
                               "from_hw_counters":true},
                       "output":"1"}"#;
        let r: RunResult = serde_json::from_str(json).unwrap();
        assert!(r.trace.is_none());
        assert_eq!(r.perf.bounce_bytes, 0);
    }

    #[test]
    fn result_trace_roundtrips() {
        let mut span = TraceSpan::new("gateway.run", 3);
        span.end_ms = 9;
        span.set_attr("vm_exits", 12);
        let r = RunResult {
            function: "fib".into(),
            language: Language::Go,
            target: VmTarget::secure(TeePlatform::Tdx),
            trial_ms: vec![1.0],
            trial_cycles: vec![Cycles::new(100)],
            stats: RunResult::compute_stats(&[1.0]),
            perf: PerfReport::default(),
            output: "1".into(),
            trace: Some(span),
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.trace.unwrap().attr("vm_exits"), Some(12));
    }

    #[test]
    fn miss_ratio_handles_zero_refs() {
        let p = PerfReport::default();
        assert_eq!(p.miss_ratio(), 0.0);
        let p = PerfReport { cache_references: 10, cache_misses: 5, ..Default::default() };
        assert_eq!(p.miss_ratio(), 0.5);
    }
}
