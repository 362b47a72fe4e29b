//! The TEE-enabled host agent.
//!
//! A host owns one confidential VM and one normal VM for its platform
//! (paper §IV-A: "in each host we created two VMs"), receives execution
//! requests from the gateway, routes them to the right VM, runs the
//! function under `perf stat`, and returns timing plus counters.

use std::sync::Arc;
use std::time::{Duration, Instant};

use confbench_httpd::{Method, Response, Router, Server};
use confbench_obs::{ActiveSpan, MetricsRegistry, SpanRecorder};
use confbench_perfmon::{PerfSample, PerfStat};
use confbench_types::{
    Error, OpTrace, Result, RunRequest, RunResult, TeePlatform, VmKind, VmTarget,
};
use confbench_vmm::{ExecutionReport, TeeFault, TeeFaultPlan, Vm};
use confbench_workloads::GpuInferenceWorkload;

/// Name of the host-level GPU-offload scenario: not a FaaS function (it has
/// no CBScript twin) but a native workload the host runs directly, with the
/// forward pass offloaded to the TEE-IO accelerator when the request asks
/// for a device.
pub const GPU_INFERENCE: &str = "gpu-inference";

use crate::attest_api::AttestService;
use crate::gateway::RetryPolicy;
use crate::store::FunctionStore;
use crate::supervisor::{VmSupervisor, DEFAULT_REBUILD_BUDGET};

/// Construction-time tuning for a [`HostAgent`]: VM seeding, chaos
/// schedule, recovery policy, and where supervision metrics land.
#[derive(Clone)]
pub struct HostConfig {
    /// Deterministic seed for both VMs' jitter streams.
    pub seed: u64,
    /// Backoff policy for transient-fault retries inside the supervisors.
    pub retry: RetryPolicy,
    /// Fatal rebuilds tolerated per VM slot before quarantine.
    pub rebuild_budget: u32,
    /// Chaos schedule injected into boots and executions (None = no
    /// injection).
    pub faults: Option<Arc<TeeFaultPlan>>,
    /// Registry receiving `vmm_faults_total` / `vm_rebuilds_total` /
    /// `vm_quarantined` / `devio_dma_bytes_total` (default: a private one).
    pub metrics: Arc<MetricsRegistry>,
    /// Attestation-session service shared with the gateway: supervisor
    /// rebuilds re-attest through its session cache, so a rebuild storm on
    /// a fleet sharing one TCB identity verifies once (None = each rebuild
    /// verifies standalone).
    pub attest: Option<Arc<AttestService>>,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            seed: 0,
            retry: RetryPolicy::default(),
            rebuild_budget: DEFAULT_REBUILD_BUDGET,
            faults: None,
            metrics: Arc::default(),
            attest: None,
        }
    }
}

/// A host machine capable of instantiating confidential VMs for one
/// platform.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use confbench::{FunctionStore, HostAgent};
/// use confbench_types::{FunctionSpec, Language, RunRequest, TeePlatform, VmTarget};
///
/// let host = HostAgent::new(TeePlatform::Tdx, Arc::new(FunctionStore::new()), 7);
/// let req = RunRequest::new(
///     FunctionSpec::new("factors", Language::Go).arg("360360"),
///     VmTarget::secure(TeePlatform::Tdx),
/// );
/// let result = host.execute(&req)?;
/// assert_eq!(result.output, "1572480");
/// # Ok::<(), confbench_types::Error>(())
/// ```
pub struct HostAgent {
    platform: TeePlatform,
    secure: VmSupervisor,
    normal: VmSupervisor,
    store: Arc<FunctionStore>,
    recorder: SpanRecorder,
    metrics: Arc<MetricsRegistry>,
}

impl HostAgent {
    /// Builds a host for `platform` with deterministic seeds derived from
    /// `seed`, recording spans on the wall clock.
    pub fn new(platform: TeePlatform, store: Arc<FunctionStore>, seed: u64) -> Self {
        Self::with_config(
            platform,
            store,
            SpanRecorder::default(),
            HostConfig { seed, ..HostConfig::default() },
        )
    }

    /// Fully configured construction: span recorder (the gateway shares its
    /// own with local hosts), chaos schedule, recovery policy, and metrics
    /// registry all injectable.
    pub fn with_config(
        platform: TeePlatform,
        store: Arc<FunctionStore>,
        recorder: SpanRecorder,
        config: HostConfig,
    ) -> Self {
        let supervisor = |target: VmTarget| {
            VmSupervisor::new(
                target,
                config.seed,
                config.faults.clone(),
                config.retry,
                config.rebuild_budget,
                &config.metrics,
            )
            .with_attest(config.attest.clone())
            .with_walk_memo(Arc::clone(store.walk_memo()))
        };
        HostAgent {
            platform,
            secure: supervisor(VmTarget::secure(platform)),
            normal: supervisor(VmTarget::normal(platform)),
            store,
            recorder,
            metrics: config.metrics,
        }
    }

    /// The host's platform.
    pub fn platform(&self) -> TeePlatform {
        self.platform
    }

    /// The supervisor watching the VM slot of `kind` (diagnostics/tests).
    pub fn supervisor(&self, kind: VmKind) -> &VmSupervisor {
        match kind {
            VmKind::Secure => &self.secure,
            VmKind::Normal => &self.normal,
        }
    }

    /// Executes a request on the targeted VM: launches the function through
    /// its language runtime (once per function × language × arguments — the
    /// store remembers, see [`FunctionStore::launch`]), replays the launcher
    /// bootstrap unmeasured, then measures `trials` independent executions
    /// (the paper's methodology: 10 trials, bootstrap excluded, averages
    /// reported).
    ///
    /// Each request runs on a freshly launched VM under the slot's
    /// [`VmSupervisor`]: injected TEE faults are retried (transient) or
    /// recovered by teardown/rebuild (fatal), and a surviving run's
    /// measurements are bit-identical to a fault-free one.
    ///
    /// # Errors
    ///
    /// Requests [`RunRequest::validate`] refuses, unknown functions,
    /// wrong-platform targets, workload failures, and [`Error::TeeFault`]
    /// when the slot's recovery budget is exhausted.
    pub fn execute(&self, request: &RunRequest) -> Result<RunResult> {
        request.validate()?;
        if request.target.platform != self.platform {
            return Err(Error::InvalidRequest(format!(
                "host serves {}, request targets {}",
                self.platform, request.target.platform
            )));
        }
        if request.function.name == GPU_INFERENCE {
            return self.execute_gpu(request);
        }
        let function = &request.function;
        let output =
            self.store.launch(&function.name, function.language, &function.args, &self.metrics)?;

        let supervisor = self.supervisor(request.target.kind);
        let deadline = request.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));

        let mut span = self.recorder.root("host.execute");
        span.set_attr("trials", u64::from(request.trials));

        let recorder = &self.recorder;
        let measured = supervisor.run(&mut span, deadline, request.seed, |vm, span| {
            // Launcher bootstrap runs unmeasured (paper §IV-D).
            let bootstrap = span.child("launcher.bootstrap");
            vm.try_execute(&output.startup_trace)?;
            span.finish_child(bootstrap);
            measure_trials(vm, &output.trace, request.trials, recorder)
        })?;
        Ok(run_result(request, span, measured, output.output.clone()))
    }

    /// The [`GPU_INFERENCE`] scenario: a native workload executed without
    /// the FaaS store. The classification runs on the host CPU by default;
    /// with [`RunRequest::device`] set, the forward pass is offloaded to the
    /// accelerator and each trial VM goes through the full TDISP bring-up
    /// (secure targets attest the device before its DMA goes direct). DMA
    /// traffic is tallied into `devio_dma_bytes_total{path=...}` — counted
    /// once, from the attempt that succeeded, so fault retries don't
    /// inflate it.
    fn execute_gpu(&self, request: &RunRequest) -> Result<RunResult> {
        let workload = GpuInferenceWorkload::new(request.seed);
        let index = match request.function.args.first() {
            None => 0,
            Some(arg) => arg.parse::<usize>().map_err(|_| {
                Error::InvalidRequest(format!("gpu-inference image index {arg:?} is not a number"))
            })?,
        };
        if index >= workload.dataset_size() {
            return Err(Error::InvalidRequest(format!(
                "gpu-inference image index {index} out of range (dataset has {})",
                workload.dataset_size()
            )));
        }
        let offloaded = request.device.is_some();
        let run =
            if offloaded { workload.classify_device(index) } else { workload.classify_host(index) };

        let supervisor = self.supervisor(request.target.kind);
        let deadline = request.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));

        let mut span = self.recorder.root("host.execute");
        span.set_attr("trials", u64::from(request.trials));
        span.set_attr("offloaded", u64::from(offloaded));

        let recorder = &self.recorder;
        let measured =
            supervisor.run_on(request.device, &mut span, deadline, request.seed, |vm, _| {
                measure_trials(vm, &run.trace, request.trials, recorder)
            })?;
        let (reports, _) = &measured;
        for (path, bytes) in [
            ("direct", reports.iter().map(|r| r.events.dma_direct_bytes).sum::<u64>()),
            ("bounce", reports.iter().map(|r| r.events.dma_bounce_bytes).sum()),
        ] {
            if bytes > 0 {
                self.metrics
                    .counter(&format!("devio_dma_bytes_total{{path=\"{path}\"}}"))
                    .add(bytes);
            }
        }
        Ok(run_result(request, span, measured, run.class.to_string()))
    }

    /// Serves [`HostAgent::add_routes`] on an ephemeral loopback port.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn serve(self: Arc<Self>) -> std::io::Result<Server> {
        let mut router = Router::new();
        self.add_routes(&mut router);
        Server::spawn(router)
    }

    /// Registers the agent's routes: `POST /v1/execute` with a JSON
    /// [`RunRequest`] body, `GET /v1/health`.
    pub fn add_routes(self: &Arc<Self>, router: &mut Router) {
        let agent = Arc::clone(self);
        router.add(Method::Post, "/v1/execute", move |req, _| {
            match req.body_json::<RunRequest>() {
                Err(e) => Response::error(400, format!("bad request body: {e}")),
                Ok(run_request) => match agent.execute(&run_request) {
                    Ok(result) => Response::json(&result),
                    // Same status mapping as the gateway (the shared table in
                    // `confbench-types`), so a remote host is
                    // indistinguishable from a local one to REST clients.
                    Err(e) => Response::error(e.rest_status(), e.to_string()),
                },
            }
        });
        let platform = self.platform;
        router.add(Method::Get, "/v1/health", move |_, _| {
            Response::json(&serde_json::json!({ "platform": platform.to_string(), "ok": true }))
        });
    }
}

/// The measured trials of one attempt (at least one; validated requests ask
/// for that many), one [`Vm::try_execute`] each, the last of them sampled by
/// the perf collector: its sample — span tree included — is piggybacked on
/// the result (paper §III-B).
fn measure_trials(
    vm: &mut Vm,
    trace: &OpTrace,
    trials: u32,
    recorder: &SpanRecorder,
) -> std::result::Result<(Vec<ExecutionReport>, PerfSample), TeeFault> {
    let mut reports = Vec::with_capacity(trials as usize);
    for _ in 1..trials {
        reports.push(vm.try_execute(trace)?);
    }
    let measured = vm.try_execute(trace)?;
    let sample = PerfStat::for_vm(vm).sample(&measured, recorder);
    reports.push(measured);
    Ok((reports, sample))
}

/// Folds the measured trials into the wire result and closes `span` over
/// the collector's subtree.
fn run_result(
    request: &RunRequest,
    mut span: ActiveSpan,
    (reports, mut sample): (Vec<ExecutionReport>, PerfSample),
    output: String,
) -> RunResult {
    if let Some(measured) = sample.trace.take() {
        span.adopt(measured);
    }
    let trial_ms: Vec<f64> = reports.iter().map(|r| r.wall_ms).collect();
    RunResult {
        function: request.function.name.clone(),
        language: request.function.language,
        target: request.target,
        stats: RunResult::compute_stats(&trial_ms),
        trial_ms,
        trial_cycles: reports.iter().map(|r| r.cycles).collect(),
        perf: sample.report,
        output,
        trace: Some(span.finish()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_httpd::Request;
    use confbench_types::{FunctionSpec, Language};

    fn host(platform: TeePlatform) -> HostAgent {
        HostAgent::new(platform, Arc::new(FunctionStore::new()), 1)
    }

    fn request(platform: TeePlatform, kind: VmKind) -> RunRequest {
        RunRequest {
            function: FunctionSpec::new("factors", Language::Go).arg("360360"),
            target: VmTarget { platform, kind },
            trials: 3,
            seed: 0,
            deadline_ms: None,
            attest_session: None,
            device: None,
        }
    }

    fn gpu_request(platform: TeePlatform, kind: VmKind, device: bool) -> RunRequest {
        let mut req = request(platform, kind);
        req.function = FunctionSpec::new(GPU_INFERENCE, Language::Go);
        req.device = device.then_some(confbench_types::DeviceKind::Gpu);
        req
    }

    #[test]
    fn executes_and_reports_trials() {
        let h = host(TeePlatform::Tdx);
        let result = h.execute(&request(TeePlatform::Tdx, VmKind::Secure)).unwrap();
        assert_eq!(result.trial_ms.len(), 3);
        assert_eq!(result.output, "1572480");
        assert!(result.stats.mean_ms > 0.0);
        assert!(result.perf.cycles > 0);
    }

    #[test]
    fn wrong_platform_rejected() {
        let h = host(TeePlatform::Tdx);
        let err = h.execute(&request(TeePlatform::SevSnp, VmKind::Secure)).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)));
    }

    #[test]
    fn unknown_function_rejected() {
        let h = host(TeePlatform::Tdx);
        let mut req = request(TeePlatform::Tdx, VmKind::Normal);
        req.function.name = "missing".into();
        assert!(matches!(h.execute(&req).unwrap_err(), Error::UnknownFunction(_)));
    }

    /// A host stamping spans on a clock that never moves, counting into
    /// `registry`.
    fn still_clock_host(registry: &Arc<MetricsRegistry>) -> HostAgent {
        HostAgent::with_config(
            TeePlatform::Tdx,
            Arc::new(FunctionStore::new()),
            SpanRecorder::new(Arc::new(confbench_types::ManualClock::new())),
            HostConfig { seed: 1, metrics: Arc::clone(registry), ..HostConfig::default() },
        )
    }

    #[test]
    fn a_remembered_launch_answers_byte_for_byte_like_the_first() {
        let registry = Arc::new(MetricsRegistry::new());
        let h = still_clock_host(&registry);
        let mut req = request(TeePlatform::Tdx, VmKind::Secure);
        req.function = FunctionSpec::new("iostress", Language::Lua).arg("2");
        req.trials = 5;
        // Wall-clock span stamps are all that could tell the two apart, and
        // this host's clock stands still.
        let miss = serde_json::to_string(&h.execute(&req).unwrap()).unwrap();
        assert_eq!(registry.counter_value("launch_cache_misses_total"), Some(1));
        assert_eq!(registry.counter_value("launch_cache_hits_total"), None);
        let hit = serde_json::to_string(&h.execute(&req).unwrap()).unwrap();
        assert_eq!(registry.counter_value("launch_cache_hits_total"), Some(1));
        assert_eq!(miss, hit);
        // The other VM kind is another cell and the same launch.
        req.target = VmTarget::normal(TeePlatform::Tdx);
        h.execute(&req).unwrap();
        assert_eq!(registry.counter_value("launch_cache_misses_total"), Some(1));
        assert_eq!(registry.counter_value("launch_cache_hits_total"), Some(2));
    }

    const CHAOS_RATE: f64 = 0.002;

    /// A still-clock host over `store`, under the fault plan of that seed.
    fn chaos_host(store: Arc<FunctionStore>, plan: Option<u64>) -> HostAgent {
        let faults = plan.map(|seed| Arc::new(TeeFaultPlan::new(seed, CHAOS_RATE)));
        let retry = RetryPolicy { base_backoff_ms: 1, max_backoff_ms: 2, ..Default::default() };
        HostAgent::with_config(
            TeePlatform::Tdx,
            store,
            SpanRecorder::new(Arc::new(confbench_types::ManualClock::new())),
            HostConfig { seed: 1, retry, faults, ..HostConfig::default() },
        )
    }

    /// A [`chaos_host`] whose VMs share a walk memo that keeps nothing, so
    /// every trial walks its lines.
    fn walking_host(plan: Option<u64>) -> HostAgent {
        let mut host = chaos_host(Arc::new(FunctionStore::new()), plan);
        let forgetful = Arc::new(confbench_vmm::WalkMemo::new(0));
        host.secure = host.secure.with_walk_memo(Arc::clone(&forgetful));
        host.normal = host.normal.with_walk_memo(forgetful);
        host
    }

    /// A plan whose first fault lands inside the last trial of `req`'s first
    /// attempt (`req.seed` is 0, so the VM's seed is the host's), and which
    /// the host then recovers from.
    fn plan_firing_in_the_last_trial(req: &RunRequest) -> u64 {
        let (store, unmetered) = (FunctionStore::new(), MetricsRegistry::new());
        let function = &req.function;
        let output =
            store.launch(&function.name, function.language, &function.args, &unmetered).unwrap();
        let fits = |&seed: &u64| {
            let plan = Arc::new(TeeFaultPlan::new(seed, CHAOS_RATE));
            let Ok(mut vm) =
                confbench_vmm::TeeVmBuilder::new(req.target).seed(1).fault_plan(plan).try_build()
            else {
                return false;
            };
            vm.try_execute(&output.startup_trace).is_ok()
                && (1..req.trials).all(|_| vm.try_execute(&output.trace).is_ok())
                && vm.try_execute(&output.trace).is_err()
                && chaos_host(Arc::new(FunctionStore::new()), Some(seed)).execute(req).is_ok()
        };
        (0..100_000).find(fits).expect("a plan that fits")
    }

    #[test]
    fn a_replayed_measured_trial_answers_byte_for_byte_like_a_walked_one() {
        let mut req = request(TeePlatform::Tdx, VmKind::Secure);
        req.function = FunctionSpec::new("iostress", Language::Lua).arg("2");
        req.trials = 10;
        let plan = plan_firing_in_the_last_trial(&req);
        for plan in [None, Some(plan)] {
            let (replaying, walking) =
                (chaos_host(Arc::new(FunctionStore::new()), plan), walking_host(plan));
            let replayed = replaying.execute(&req).unwrap();
            let walked = walking.execute(&req).unwrap();
            for h in [&replaying, &walking] {
                let faulted = h.metrics.render_text().contains("vmm_faults_total");
                assert_eq!(faulted, plan.is_some(), "fault plan {plan:?}");
            }
            if plan.is_none() {
                let misses = |h: &HostAgent| h.metrics.counter_value("walk_memo_misses_total");
                assert_eq!((misses(&replaying), misses(&walking)), (Some(3), Some(11)));
            }
            assert_eq!(replayed.trial_ms.len(), 10);
            let measured = replayed.trace.as_ref().and_then(|t| t.find("perf.measure")).unwrap();
            assert!(measured.find("swiotlb.copy").is_some(), "the sample's children are there");
            assert_eq!(
                serde_json::to_string(&replayed).unwrap(),
                serde_json::to_string(&walked).unwrap(),
                "fault plan {plan:?}"
            );
        }
    }

    #[test]
    fn a_warm_walk_memo_answers_byte_for_byte_like_a_fresh_host() {
        let mut req = request(TeePlatform::Tdx, VmKind::Secure);
        req.function = FunctionSpec::new("iostress", Language::Lua).arg("2");
        let walks = |h: &HostAgent| {
            ["hits", "misses", "evictions"]
                .map(|c| h.metrics.counter_value(&format!("walk_memo_{c}_total")).unwrap_or(0))
        };
        for trials in [1, 3, 10] {
            req.trials = trials;
            // On the warm host every trial is a replay, the faulting one too.
            for plan in [None, Some(plan_firing_in_the_last_trial(&req))] {
                // The memo rides the store: another host, under another
                // seed and no plan, walks the request first.
                let store = Arc::new(FunctionStore::new());
                let other_seed = RunRequest { seed: 77, ..req.clone() };
                chaos_host(Arc::clone(&store), None).execute(&other_seed).unwrap();
                let (warm, fresh) =
                    (chaos_host(store, plan), chaos_host(Arc::new(FunctionStore::new()), plan));
                let (served, alone) = (warm.execute(&req).unwrap(), fresh.execute(&req).unwrap());
                assert_eq!(
                    serde_json::to_string(&served).unwrap(),
                    serde_json::to_string(&alone).unwrap(),
                    "{trials} trials, fault plan {plan:?}"
                );
                for h in [&warm, &fresh] {
                    let faulted = h.metrics.render_text().contains("vmm_faults_total");
                    assert_eq!(faulted, plan.is_some(), "{trials} trials, fault plan {plan:?}");
                }
                if plan.is_none() {
                    let trials = u64::from(trials);
                    assert_eq!(walks(&warm), [1 + trials, 0, 0], "{trials} trials");
                    let walked = 1 + trials.min(2);
                    assert_eq!(
                        walks(&fresh),
                        [trials - trials.min(2), walked, 0],
                        "{trials} trials"
                    );
                }
            }
        }
    }

    #[test]
    fn a_failing_script_fails_alike_launched_or_remembered() {
        let registry = Arc::new(MetricsRegistry::new());
        let h = still_clock_host(&registry);
        h.store.upload("bomb", "fn f(n) { return f(n + 1); } result(f(0));").unwrap();
        let mut req = request(TeePlatform::Tdx, VmKind::Secure);
        req.function = FunctionSpec::new("bomb", Language::Wasm);
        let text = |e: Error| match e {
            Error::Workload(text) => text,
            other => panic!("expected a workload error, got {other}"),
        };
        let miss = text(h.execute(&req).unwrap_err());
        let hit = text(h.execute(&req).unwrap_err());
        assert!(miss.contains("call depth exceeded"), "{miss}");
        assert_eq!(miss, hit);
        assert_eq!(registry.counter_value("launch_cache_misses_total"), Some(1));
        assert_eq!(registry.counter_value("launch_cache_hits_total"), Some(1));
        // LuaJIT shares Wasm's execution, and so its failure.
        req.function = FunctionSpec::new("bomb", Language::LuaJit);
        assert_eq!(text(h.execute(&req).unwrap_err()), miss);
        assert_eq!(registry.counter_value("launch_cache_misses_total"), Some(1));
        assert_eq!(registry.counter_value("launch_cache_hits_total"), Some(2));
    }

    #[test]
    fn secure_runs_slower_than_normal_for_io() {
        let h = host(TeePlatform::Tdx);
        let mut secure_req = request(TeePlatform::Tdx, VmKind::Secure);
        secure_req.function = FunctionSpec::new("iostress", Language::Go).arg("4");
        let mut normal_req = secure_req.clone();
        normal_req.target = VmTarget::normal(TeePlatform::Tdx);
        let secure = h.execute(&secure_req).unwrap();
        let normal = h.execute(&normal_req).unwrap();
        let ratio = secure.stats.mean_ms / normal.stats.mean_ms;
        assert!(ratio > 1.2, "TDX iostress ratio {ratio}");
    }

    #[test]
    fn gpu_inference_offload_matches_host_prediction() {
        let h = host(TeePlatform::Tdx);
        let on_host = h.execute(&gpu_request(TeePlatform::Tdx, VmKind::Secure, false)).unwrap();
        let on_device = h.execute(&gpu_request(TeePlatform::Tdx, VmKind::Secure, true)).unwrap();
        assert_eq!(on_host.output, on_device.output, "same arithmetic, same class");
        let trace = on_device.trace.expect("trace attached");
        assert_eq!(trace.attr("offloaded"), Some(1));
        assert!(trace.find("devio.attest").is_some(), "secure bring-up attested the device");
        assert!(trace.find("devio.dma-direct").is_some(), "attested DMA went direct");
    }

    #[test]
    fn gpu_inference_dma_lands_in_metrics_once() {
        let registry = Arc::new(MetricsRegistry::new());
        let config =
            HostConfig { seed: 1, metrics: Arc::clone(&registry), ..HostConfig::default() };
        let h = HostAgent::with_config(
            TeePlatform::SevSnp,
            Arc::new(FunctionStore::new()),
            SpanRecorder::default(),
            config,
        );
        let result = h.execute(&gpu_request(TeePlatform::SevSnp, VmKind::Secure, true)).unwrap();
        assert_eq!(result.trial_ms.len(), 3);
        let direct = registry
            .counter_value("devio_dma_bytes_total{path=\"direct\"}")
            .expect("direct DMA counted");
        assert!(direct > 0);
        assert_eq!(
            registry.counter_value("devio_dma_bytes_total{path=\"bounce\"}"),
            None,
            "attested device never bounces"
        );
    }

    #[test]
    fn gpu_inference_rejects_bad_indexes() {
        let h = host(TeePlatform::Tdx);
        let mut req = gpu_request(TeePlatform::Tdx, VmKind::Normal, false);
        req.function = req.function.arg("not-a-number");
        assert!(matches!(h.execute(&req).unwrap_err(), Error::InvalidRequest(_)));
        let mut req = gpu_request(TeePlatform::Tdx, VmKind::Normal, false);
        req.function = req.function.arg("999999");
        assert!(matches!(h.execute(&req).unwrap_err(), Error::InvalidRequest(_)));
    }

    #[test]
    fn cca_results_come_from_the_script_collector() {
        let h = host(TeePlatform::Cca);
        let result = h.execute(&request(TeePlatform::Cca, VmKind::Secure)).unwrap();
        assert!(!result.perf.from_hw_counters);
        let tdx = host(TeePlatform::Tdx);
        let result = tdx.execute(&request(TeePlatform::Tdx, VmKind::Secure)).unwrap();
        assert!(result.perf.from_hw_counters);
    }

    #[test]
    fn serves_over_http() {
        let agent = Arc::new(host(TeePlatform::SevSnp));
        let server = agent.serve().unwrap();
        let client = confbench_httpd::Client::new(server.addr());
        let req = Request::new(Method::Post, "/v1/execute")
            .json(&request(TeePlatform::SevSnp, VmKind::Secure));
        let resp = client.send(&req).unwrap();
        assert_eq!(resp.status, 200);
        let result: RunResult = resp.body_json().unwrap();
        assert_eq!(result.output, "1572480");
        let health = client.send(&Request::new(Method::Get, "/v1/health")).unwrap();
        assert_eq!(health.status, 200);
    }

    #[test]
    fn results_carry_a_span_tree() {
        let h = host(TeePlatform::Tdx);
        let result = h.execute(&request(TeePlatform::Tdx, VmKind::Secure)).unwrap();
        let trace = result.trace.expect("host attaches a trace");
        assert_eq!(trace.name, "host.execute");
        assert_eq!(trace.attr("trials"), Some(3));
        assert!(trace.find("launcher.bootstrap").is_some(), "bootstrap span present");
        let measured = trace.find("perf.measure").expect("measured-trial span");
        assert_eq!(measured.attr("vm_exits"), Some(result.perf.vm_exits));
    }

    #[test]
    fn bare_paths_answer_404() {
        let agent = Arc::new(host(TeePlatform::Tdx));
        let server = agent.serve().unwrap();
        let client = confbench_httpd::Client::new(server.addr());
        let execute =
            Request::new(Method::Post, "/execute").json(&request(TeePlatform::Tdx, VmKind::Normal));
        assert_eq!(client.send(&execute).unwrap().status, 404);
        assert_eq!(client.send(&Request::new(Method::Get, "/health")).unwrap().status, 404);
    }

    #[test]
    fn http_statuses_match_gateway_mapping() {
        let agent = Arc::new(host(TeePlatform::Tdx));
        let server = agent.serve().unwrap();
        let client = confbench_httpd::Client::new(server.addr());
        // Unknown function → 404 (used to be a generic 500).
        let mut req = request(TeePlatform::Tdx, VmKind::Secure);
        req.function.name = "missing".into();
        let resp = client.send(&Request::new(Method::Post, "/v1/execute").json(&req)).unwrap();
        assert_eq!(resp.status, 404);
        // Wrong platform → invalid request → 400.
        let req = request(TeePlatform::SevSnp, VmKind::Secure);
        let resp = client.send(&Request::new(Method::Post, "/v1/execute").json(&req)).unwrap();
        assert_eq!(resp.status, 400);
    }
}
