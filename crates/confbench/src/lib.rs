//! **ConfBench** — a tool for easy evaluation of confidential virtual
//! machines (Rust reproduction of the DSN 2025 paper).
//!
//! ConfBench executes FaaS and classic workloads across heterogeneous TEE
//! platforms (Intel TDX, AMD SEV-SNP, ARM CCA) and their non-confidential
//! baselines, managing the full lifecycle: function upload, dispatch to
//! TEE-enabled hosts, execution through per-language launchers inside
//! secure or normal VMs, and collection of timing plus perf counters.
//!
//! Architecture (paper Fig. 2):
//!
//! * [`Gateway`] — REST entry point; owns the [`FunctionStore`] and the
//!   per-platform [`TeePool`]s, dispatching to in-process or remote hosts;
//! * [`HostAgent`] — a TEE-enabled host with one secure and one normal VM,
//!   executing requests under the perf monitor;
//! * [`ConfBench`] — a batteries-included facade that boots local hosts for
//!   all three platforms, used by the examples and the figure harness.
//!
//! In this reproduction the confidential VMs are deterministic simulations
//! (see `confbench-vmm` and DESIGN.md): all timing is virtual and
//! seed-reproducible, while every architectural layer of the real tool —
//! REST gateway, pools, launchers, attestation, perf piggybacking — runs
//! for real.
//!
//! # Example
//!
//! ```
//! use confbench::ConfBench;
//! use confbench_types::{FunctionSpec, Language, RunRequest, TeePlatform, VmTarget};
//!
//! let bench = ConfBench::local(7);
//! let factors = FunctionSpec::new("factors", Language::Go).arg("360360");
//! let m = bench
//!     .measure_ratio(RunRequest::new(factors, VmTarget::secure(TeePlatform::Tdx)).trials(3))?;
//! assert!(m.ratio > 0.5 && m.ratio < 2.0, "factors is CPU-bound: {}", m.ratio);
//! # Ok::<(), confbench_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod attest_api;
pub mod flags;
mod gateway;
mod host;
mod pool;
mod store;
mod supervisor;

pub use attest_api::{
    AttestConfig, AttestService, AttestSessionInfo, AttestSessionRequest, ExtendRequest,
};
pub use gateway::{add_metrics_route, Gateway, GatewayBuilder, RetryPolicy, UploadRequest};
pub use host::{HostAgent, HostConfig, GPU_INFERENCE};
pub use pool::{
    BalancePolicy, CircuitState, Clock, HealthPolicy, ManualClock, PoolGuard, SystemClock, TeePool,
};
pub use store::{FunctionStore, StoreError, StoredFunction, UploadedFunction, MAX_SCRIPT_BYTES};
pub use supervisor::{VmSupervisor, DEFAULT_REBUILD_BUDGET};

// Chaos-engineering surface, re-exported so gateway embedders (and the
// daemon) can build fault plans without a direct `confbench-vmm`
// dependency.
pub use confbench_vmm::{TeeFault, TeeFaultPlan};

use confbench_types::{Result, RunRequest, RunResult, TeePlatform};

/// A secure/normal measurement pair with its ratio (the paper's standard
/// reporting unit).
#[derive(Debug, Clone)]
pub struct RatioMeasurement {
    /// Result from the confidential VM.
    pub secure: RunResult,
    /// Result from the baseline VM.
    pub normal: RunResult,
    /// `secure.mean_ms / normal.mean_ms`.
    pub ratio: f64,
}

/// Batteries-included ConfBench instance: a gateway with one local host per
/// TEE platform, deterministic under `seed`.
pub struct ConfBench {
    gateway: Gateway,
}

impl ConfBench {
    /// Boots local hosts for all three platforms.
    pub fn local(seed: u64) -> Self {
        let gateway = Gateway::builder()
            .seed(seed)
            .local_host(TeePlatform::Tdx)
            .local_host(TeePlatform::SevSnp)
            .local_host(TeePlatform::Cca)
            .build();
        ConfBench { gateway }
    }

    /// The underlying gateway.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// Runs one request.
    ///
    /// # Errors
    ///
    /// As [`Gateway::run`].
    pub fn run(&self, request: &RunRequest) -> Result<RunResult> {
        self.gateway.run(request)
    }

    /// Runs `request` on the secure and the normal VM of its target
    /// platform (whichever kind it names) and returns the mean-time ratio.
    ///
    /// # Errors
    ///
    /// As [`Gateway::run`].
    pub fn measure_ratio(&self, request: RunRequest) -> Result<RatioMeasurement> {
        let platform = request.target.platform;
        let (secure, normal) = self.gateway.run_pair(request, platform)?;
        let ratio = secure.stats.mean_ms / normal.stats.mean_ms;
        Ok(RatioMeasurement { secure, normal, ratio })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_types::{FunctionSpec, Language, VmTarget};

    #[test]
    fn local_instance_serves_all_platforms() {
        let bench = ConfBench::local(1);
        assert_eq!(
            bench.gateway().platforms(),
            vec![TeePlatform::Tdx, TeePlatform::SevSnp, TeePlatform::Cca]
        );
    }

    fn request(function: &str, arg: &str) -> RunRequest {
        let spec = FunctionSpec::new(function, Language::Go).arg(arg);
        RunRequest::new(spec, VmTarget::secure(TeePlatform::Tdx)).trials(4).seed(2)
    }

    #[test]
    fn ratio_measurement_shapes() {
        let bench = ConfBench::local(2);
        // I/O-bound on TDX: clearly above 1.
        let io = bench.measure_ratio(request("iostress", "4")).unwrap();
        assert!(io.ratio > 1.2, "tdx iostress {}", io.ratio);
        assert_eq!(io.secure.output, io.normal.output);
        // CPU-bound on TDX: near 1.
        let cpu = bench.measure_ratio(request("checksum", "30000")).unwrap();
        assert!(cpu.ratio < 1.15, "tdx checksum {}", cpu.ratio);
    }

    #[test]
    fn unknown_workload_without_args_fails_cleanly() {
        let bench = ConfBench::local(1);
        let spec = FunctionSpec::new("does-not-exist", Language::Go);
        let err = bench
            .measure_ratio(RunRequest::new(spec, VmTarget::secure(TeePlatform::Tdx)))
            .unwrap_err();
        assert!(matches!(err, confbench_types::Error::UnknownFunction(_)));
    }
}
