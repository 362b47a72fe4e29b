//! Per-VM supervision: watchdog deadlines, transient-fault retry, fatal
//! teardown/rebuild with re-attestation, and quarantine.
//!
//! A [`VmSupervisor`] owns one VM slot (a [`VmTarget`] on a host) and runs
//! every request through a recovery loop:
//!
//! ```text
//!            ┌────────────── transient fault (backoff, retry) ──┐
//!            ▼                                                  │
//!   Healthy ──► launch fresh VM ──► run request ──► success ────┴─► done
//!            ▲                          │
//!            │                    fatal fault
//!            │                          ▼
//!            └── rebuild: fresh launch + re-attest ── budget left?
//!                                                        │ no
//!                                                        ▼
//!                                                   Quarantined
//! ```
//!
//! Every attempt runs on a *fresh* VM seeded identically, so the attempt
//! that finally succeeds produces bit-identical measurements to a run that
//! never faulted — the property the chaos suite asserts. A quarantined
//! supervisor returns its terminal fault for every later request, which
//! feeds the pool's circuit breaker: the member trips open, stays open
//! (probes keep failing), and is never selected again.

use std::sync::Arc;
use std::time::Instant;

use confbench_attest::{SnpEcosystem, TdxEcosystem};
use confbench_crypto::SplitMix64;
use confbench_obs::{ActiveSpan, Counter, Gauge, MetricsRegistry};
use confbench_types::{DeviceKind, Error, Result, TeeMechanism, TeePlatform, VmKind, VmTarget};
use confbench_vmm::{TeeFault, TeeFaultPlan, TeeVmBuilder, Vm, WalkMemo};
use parking_lot::Mutex;

use crate::attest_api::AttestService;
use crate::gateway::RetryPolicy;

/// Fatal rebuilds a supervisor tolerates over its lifetime before it
/// quarantines the slot (a real fleet replaces the machine at this point).
pub const DEFAULT_REBUILD_BUDGET: u32 = 2;

/// Mutable recovery state, under one lock.
struct SupervisorState {
    rebuilds: u32,
    quarantined: Option<TeeFault>,
}

/// Cached instrument handles.
struct SupervisorMetrics {
    registry: Arc<MetricsRegistry>,
    rebuilds: Arc<Counter>,
    quarantined: Arc<Gauge>,
    walk_hits: Arc<Counter>,
    walk_misses: Arc<Counter>,
    walk_evictions: Arc<Counter>,
}

/// Watchdog and recovery driver for one VM slot. See the module docs for
/// the state machine.
pub struct VmSupervisor {
    target: VmTarget,
    seed: u64,
    faults: Option<Arc<TeeFaultPlan>>,
    retry: RetryPolicy,
    rebuild_budget: u32,
    metrics: SupervisorMetrics,
    attest: Option<Arc<AttestService>>,
    walks: Option<Arc<WalkMemo>>,
    jitter_rng: Mutex<SplitMix64>,
    state: Mutex<SupervisorState>,
}

impl VmSupervisor {
    /// Creates a supervisor for `target`. `retry` drives transient-fault
    /// backoff, `faults` is the chaos schedule (None = no injection), and
    /// `metrics` receives `vmm_faults_total`, `vm_rebuilds_total`,
    /// `vm_quarantined` and `walk_memo_{hits,misses,evictions}_total`.
    pub fn new(
        target: VmTarget,
        seed: u64,
        faults: Option<Arc<TeeFaultPlan>>,
        retry: RetryPolicy,
        rebuild_budget: u32,
        metrics: &Arc<MetricsRegistry>,
    ) -> Self {
        let label = Self::label(target);
        let metrics = SupervisorMetrics {
            rebuilds: metrics.counter(&format!("vm_rebuilds_total{label}")),
            quarantined: metrics.gauge(&format!("vm_quarantined{label}")),
            walk_hits: metrics.counter("walk_memo_hits_total"),
            walk_misses: metrics.counter("walk_memo_misses_total"),
            walk_evictions: metrics.counter("walk_memo_evictions_total"),
            registry: Arc::clone(metrics),
        };
        VmSupervisor {
            target,
            seed,
            faults,
            retry,
            rebuild_budget,
            metrics,
            attest: None,
            walks: None,
            jitter_rng: Mutex::new(SplitMix64::new(seed ^ 0x5375_7065_7256_6973)),
            state: Mutex::new(SupervisorState { rebuilds: 0, quarantined: None }),
        }
    }

    /// Routes post-rebuild re-attestation through a shared attestation
    /// session service. With a service attached, a rebuild storm across a
    /// fleet sharing one TCB identity collapses into a single verification
    /// (single-flight on the session cache) instead of one PCS round trip
    /// per rebuild. `None` keeps the standalone per-rebuild verification.
    #[must_use]
    pub fn with_attest(mut self, attest: Option<Arc<AttestService>>) -> Self {
        self.attest = attest;
        self
    }

    /// Hands every VM this supervisor builds one cache-walk memo
    /// ([`confbench_vmm::TeeVmBuilder::walk_memo`]).
    #[must_use]
    pub fn with_walk_memo(mut self, memo: Arc<WalkMemo>) -> Self {
        self.walks = Some(memo);
        self
    }

    fn label(target: VmTarget) -> String {
        let kind = match target.kind {
            VmKind::Secure => "secure",
            VmKind::Normal => "normal",
        };
        format!("{{platform=\"{}\",kind=\"{kind}\"}}", target.platform)
    }

    /// The supervised target.
    pub fn target(&self) -> VmTarget {
        self.target
    }

    /// Fatal rebuilds performed so far.
    pub fn rebuilds(&self) -> u32 {
        self.state.lock().rebuilds
    }

    /// The terminal fault, if the slot is quarantined.
    pub fn quarantined_fault(&self) -> Option<TeeFault> {
        self.state.lock().quarantined
    }

    /// Whether the slot is quarantined (permanently out of service).
    pub fn is_quarantined(&self) -> bool {
        self.quarantined_fault().is_some()
    }

    /// Runs `attempt` on a freshly launched VM, recovering per the state
    /// machine in the module docs. `request_seed` keeps different requests'
    /// jitter streams independent while keeping retries of the *same*
    /// request identical.
    ///
    /// # Errors
    ///
    /// The terminal [`Error::TeeFault`] when the slot is (or becomes)
    /// quarantined; [`Error::DeadlineExceeded`] when the watchdog deadline
    /// expires between attempts; the last transient fault when the retry
    /// budget runs dry *and* the subsequent rebuild escalation quarantines.
    pub fn run<T>(
        &self,
        span: &mut ActiveSpan,
        deadline: Option<Instant>,
        request_seed: u64,
        attempt: impl FnMut(&mut Vm, &mut ActiveSpan) -> std::result::Result<T, TeeFault>,
    ) -> Result<T> {
        self.run_on(None, span, deadline, request_seed, attempt)
    }

    /// As [`VmSupervisor::run`], with a confidential accelerator plugged
    /// into each attempt's VM. On a secure target every fresh VM goes
    /// through the full TDISP bring-up before the attempt runs: the
    /// interface is locked at boot, the device's measurement report is
    /// verified (through the shared attestation-session cache when one is
    /// attached, so fleet-wide device re-attestation is amortized and
    /// single-flighted), and the interface started — after which the
    /// attempt's `DevDma*` ops land directly in private memory. Device
    /// faults injected at the `tdisp-lock` / `device-attest` / `device-dma`
    /// points recover through the same retry/rebuild machinery as every
    /// other TEE fault.
    ///
    /// # Errors
    ///
    /// As [`VmSupervisor::run`].
    pub fn run_on<T>(
        &self,
        device: Option<DeviceKind>,
        span: &mut ActiveSpan,
        deadline: Option<Instant>,
        request_seed: u64,
        mut attempt: impl FnMut(&mut Vm, &mut ActiveSpan) -> std::result::Result<T, TeeFault>,
    ) -> Result<T> {
        if let Some(fault) = self.quarantined_fault() {
            return Err(fault.into());
        }
        let vm_seed = self.seed ^ request_seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let max_transient = self.retry.max_attempts.max(1);
        let mut transient_used = 0u32;
        // The fault whose fatal recovery is pending: the next loop pass
        // revalidates the slot (fresh launch + re-attest) before retrying.
        let mut rebuilding: Option<TeeFault> = None;
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(Error::DeadlineExceeded(format!(
                    "watchdog deadline expired while recovering {}",
                    self.target
                )));
            }
            if rebuilding.take().is_some() {
                let mut rebuild_span = span.child("vm.rebuild");
                rebuild_span.set_attr("rebuild_no", u64::from(self.rebuilds()));
                let outcome = self.revalidate(&mut rebuild_span);
                span.finish_child(rebuild_span);
                if let Err(next) = outcome {
                    // The replacement itself faulted: charge another
                    // rebuild (or quarantine) and go around again.
                    self.note_fault(&next);
                    self.consume_rebuild_token(next)?;
                    rebuilding = Some(next);
                    continue;
                }
            }
            let outcome = match self.builder_with_device(vm_seed, device).try_build() {
                Ok(mut vm) => {
                    let outcome =
                        self.bring_up_device(&mut vm, span).and_then(|()| attempt(&mut vm, span));
                    // One lookup per trial, whether or not the attempt stood.
                    let walks = vm.walk_memo_counts();
                    self.metrics.walk_hits.add(walks.hits);
                    self.metrics.walk_misses.add(walks.misses);
                    self.metrics.walk_evictions.add(walks.evictions);
                    outcome
                }
                Err(boot_fault) => Err(boot_fault),
            };
            let fault = match outcome {
                Ok(value) => return Ok(value),
                Err(fault) => fault,
            };
            self.note_fault(&fault);
            if fault.is_transient() && transient_used + 1 < max_transient {
                transient_used += 1;
                // Never sleeps past the deadline; the loop top reports it.
                self.retry.backoff(transient_used - 1, &self.jitter_rng, deadline);
                continue;
            }
            // Fatal — or a transient storm that exhausted the retry budget,
            // which we treat the same way: tear down and rebuild.
            self.consume_rebuild_token(fault)?;
            rebuilding = Some(fault);
        }
    }

    fn builder(&self, vm_seed: u64) -> TeeVmBuilder {
        let mut builder = TeeVmBuilder::new(self.target).seed(vm_seed);
        if let Some(plan) = &self.faults {
            builder = builder.fault_plan(Arc::clone(plan));
        }
        if let Some(memo) = &self.walks {
            builder = builder.walk_memo(Arc::clone(memo));
        }
        builder
    }

    fn builder_with_device(&self, vm_seed: u64, device: Option<DeviceKind>) -> TeeVmBuilder {
        let mut builder = self.builder(vm_seed);
        if let Some(kind) = device {
            builder = builder.device(kind);
        }
        builder
    }

    /// TDISP bring-up on a freshly built VM (no-op without a device or on a
    /// normal target): fetch the signed measurement report, verify it —
    /// through the shared session cache when attached, standalone otherwise
    /// — then accept and start the interface. Neither the report nor the
    /// bring-up advances the VM's virtual clock or jitter stream, so
    /// device-attested runs stay bit-identical to each other.
    fn bring_up_device(
        &self,
        vm: &mut Vm,
        span: &mut ActiveSpan,
    ) -> std::result::Result<(), TeeFault> {
        if vm.device().is_none() || self.target.kind != VmKind::Secure {
            return Ok(());
        }
        let platform = self.target.platform;
        let attest_span = span.child("devio.attest");
        let nonce = device_nonce(self.seed);
        let outcome = vm.device_report(nonce).and_then(|report| {
            let wedged = TeeFault::fatal(platform, TeeMechanism::DeviceAttest);
            if let Some(service) = &self.attest {
                service.open_device_session(platform, report, nonce).map_err(|_| wedged)?;
            } else {
                let verifier = confbench_attest::DeviceVerifier::new(platform);
                let evidence = confbench_attest::Evidence::device(platform, report);
                let mut data = [0u8; 64];
                data[..32].copy_from_slice(&nonce);
                confbench_attest::Verifier::verify(&verifier, &evidence, data)
                    .map_err(|_| wedged)?;
            }
            vm.enable_device()
        });
        span.finish_child(attest_span);
        outcome
    }

    /// Spends one rebuild token, or quarantines the slot when the budget is
    /// gone (returning the terminal fault as the error).
    fn consume_rebuild_token(&self, fault: TeeFault) -> Result<()> {
        let mut state = self.state.lock();
        if state.rebuilds >= self.rebuild_budget {
            state.quarantined = Some(fault);
            drop(state);
            self.metrics.quarantined.inc();
            return Err(fault.into());
        }
        state.rebuilds += 1;
        drop(state);
        self.metrics.rebuilds.inc();
        Ok(())
    }

    /// Rebuild validation: prove the substrate will launch again, then
    /// re-attest the replacement before it takes traffic. Runs on a probe
    /// VM that is discarded afterwards — attestation advances a VM's clock,
    /// and the request must run on a clock-fresh VM to stay bit-identical
    /// with fault-free executions.
    fn revalidate(&self, span: &mut ActiveSpan) -> std::result::Result<(), TeeFault> {
        let mut probe = self.builder(self.seed).try_build()?;
        if self.target.kind == VmKind::Secure {
            let reattest_span = span.child("vm.reattest");
            let outcome = self.reattest(&mut probe);
            span.finish_child(reattest_span);
            outcome?;
        }
        Ok(())
    }

    /// Platform-appropriate re-attestation of `vm`, with a fault point at
    /// the attestation device read.
    fn reattest(&self, vm: &mut Vm) -> std::result::Result<(), TeeFault> {
        let platform = self.target.platform;
        if let Some(plan) = &self.faults {
            if let Some(fault) = plan.roll(platform, TeeMechanism::AttestRead) {
                return Err(fault);
            }
        }
        // Shared session cache (gateway deployments): the fleet's identity
        // is verified once and later rebuilds ride the live session.
        if let Some(service) = &self.attest {
            if platform != TeePlatform::Cca {
                service
                    .reattest(platform)
                    .map_err(|_| TeeFault::fatal(platform, TeeMechanism::AttestRead))?;
            }
            return Ok(());
        }
        let wedged = |_| TeeFault::fatal(platform, TeeMechanism::AttestRead);
        let nonce = TdxEcosystem::report_data_for_nonce(self.seed);
        match platform {
            TeePlatform::Tdx => {
                let eco = TdxEcosystem::new(self.seed);
                let (quote, _) = eco.generate_quote(vm, nonce).map_err(wedged)?;
                eco.verify_quote(&quote, nonce).map_err(wedged)?;
            }
            TeePlatform::SevSnp => {
                let eco = SnpEcosystem::new(self.seed);
                let (report, _) = eco.request_report(vm, nonce).map_err(wedged)?;
                eco.verify_report(&report, nonce).map_err(wedged)?;
            }
            // No attestation stack on the FVP (paper §IV-C): launch success
            // is the whole health check.
            TeePlatform::Cca => {}
        }
        Ok(())
    }

    /// Records a fault in `vmm_faults_total{mechanism,class}`.
    fn note_fault(&self, fault: &TeeFault) {
        self.metrics
            .registry
            .counter(&format!(
                "vmm_faults_total{{mechanism=\"{}\",class=\"{}\"}}",
                fault.mechanism.as_str(),
                fault.class.as_str()
            ))
            .inc();
    }
}

/// Derives the 32-byte TDISP challenge nonce from the supervisor seed, so
/// device attestation is deterministic per slot.
fn device_nonce(seed: u64) -> [u8; 32] {
    let mut nonce = [0u8; 32];
    for (i, chunk) in nonce.chunks_mut(8).enumerate() {
        let word = (seed ^ 0xd15b_0ac4_u64.rotate_left(i as u32 * 8))
            .wrapping_add(i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_obs::SpanRecorder;
    use confbench_types::FaultClass;
    use std::time::Duration;

    fn retry_fast() -> RetryPolicy {
        RetryPolicy { max_attempts: 3, base_backoff_ms: 1, max_backoff_ms: 2, jitter: false }
    }

    fn supervisor(plan: Option<Arc<TeeFaultPlan>>, budget: u32) -> VmSupervisor {
        let unmetered = Arc::default();
        VmSupervisor::new(
            VmTarget::secure(TeePlatform::Tdx),
            11,
            plan,
            retry_fast(),
            budget,
            &unmetered,
        )
    }

    #[test]
    fn fault_free_supervision_is_passthrough() {
        let sup = supervisor(None, DEFAULT_REBUILD_BUDGET);
        let recorder = SpanRecorder::default();
        let mut span = recorder.root("test");
        let exits = sup.run(&mut span, None, 0, |vm, _| Ok(vm.total_exits())).unwrap();
        assert_eq!(exits, 0);
        assert_eq!(sup.rebuilds(), 0);
        assert!(!sup.is_quarantined());
    }

    #[test]
    fn transient_faults_are_retried_on_a_fresh_vm() {
        let sup = supervisor(None, DEFAULT_REBUILD_BUDGET);
        let recorder = SpanRecorder::default();
        let mut span = recorder.root("test");
        let mut calls = 0;
        let fault = TeeFault {
            platform: TeePlatform::Tdx,
            mechanism: TeeMechanism::Seamcall,
            class: FaultClass::Transient,
        };
        let out = sup
            .run(&mut span, None, 0, |_, _| {
                calls += 1;
                if calls < 3 {
                    Err(fault)
                } else {
                    Ok(calls)
                }
            })
            .unwrap();
        assert_eq!(out, 3, "third attempt succeeds within the retry budget");
        assert_eq!(sup.rebuilds(), 0, "transient retries are not rebuilds");
    }

    #[test]
    fn fatal_faults_rebuild_then_quarantine() {
        let sup = supervisor(None, 2);
        let recorder = SpanRecorder::default();
        let mut span = recorder.root("test");
        let fault = TeeFault::fatal(TeePlatform::Tdx, TeeMechanism::SeptAccept);
        let err = sup.run::<()>(&mut span, None, 0, |_, _| Err(fault)).unwrap_err();
        assert!(matches!(err, Error::TeeFault { .. }), "got {err}");
        assert_eq!(sup.rebuilds(), 2, "budget fully spent before quarantine");
        assert!(sup.is_quarantined());
        assert_eq!(sup.quarantined_fault(), Some(fault));
        // Quarantine is permanent: later requests fail without running.
        let err = sup.run(&mut span, None, 0, |_, _| Ok(())).unwrap_err();
        assert!(matches!(err, Error::TeeFault { .. }), "got {err}");
    }

    #[test]
    fn rebuild_recovers_when_the_fault_clears() {
        let sup = supervisor(None, 2);
        let recorder = SpanRecorder::default();
        let mut span = recorder.root("test");
        let mut calls = 0;
        let fault = TeeFault::fatal(TeePlatform::SevSnp, TeeMechanism::RmpValidate);
        let out = sup
            .run(&mut span, None, 0, |_, _| {
                calls += 1;
                if calls == 1 {
                    Err(fault)
                } else {
                    Ok("recovered")
                }
            })
            .unwrap();
        assert_eq!(out, "recovered");
        assert_eq!(sup.rebuilds(), 1);
        assert!(!sup.is_quarantined());
        let trace = span.finish();
        let rebuild = trace.find("vm.rebuild").expect("rebuild span recorded");
        assert!(rebuild.find("vm.reattest").is_some(), "secure rebuilds re-attest");
    }

    #[test]
    fn watchdog_deadline_bounds_recovery() {
        let sup = supervisor(None, u32::MAX);
        let recorder = SpanRecorder::default();
        let mut span = recorder.root("test");
        let deadline = Instant::now() + Duration::from_millis(30);
        let fault = TeeFault::fatal(TeePlatform::Tdx, TeeMechanism::Seamcall);
        let err = sup.run::<()>(&mut span, Some(deadline), 0, |_, _| Err(fault)).unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded(_)), "got {err}");
    }

    #[test]
    fn run_on_brings_the_device_to_run_state() {
        use confbench_vmm::TdispState;
        let sup = supervisor(None, DEFAULT_REBUILD_BUDGET);
        let recorder = SpanRecorder::default();
        let mut span = recorder.root("test");
        let state = sup
            .run_on(Some(DeviceKind::Gpu), &mut span, None, 0, |vm, _| Ok(vm.device_state()))
            .unwrap();
        assert_eq!(state, Some(TdispState::Run), "attempt sees a fully attested interface");
        let trace = span.finish();
        assert!(trace.find("devio.attest").is_some(), "bring-up is spanned");
    }

    #[test]
    fn device_faults_recover_through_the_rebuild_machinery() {
        // Deterministic injection at every device crossing: the supervisor
        // must eventually find a clean attempt (or quarantine) exactly like
        // any other TEE fault, and survivors stay bit-identical.
        let plan = Arc::new(
            TeeFaultPlan::new(77, 0.0)
                .with_rate(TeeMechanism::TdispLock, 0.4)
                .with_rate(TeeMechanism::DeviceAttest, 0.4),
        );
        fn dma_trace() -> confbench_types::OpTrace {
            let mut trace = confbench_types::OpTrace::new();
            trace.dev_dma_in(4096);
            trace
        }
        let clean = supervisor(None, DEFAULT_REBUILD_BUDGET);
        let recorder = SpanRecorder::default();
        let mut span = recorder.root("test");
        let baseline = clean
            .run_on(Some(DeviceKind::Gpu), &mut span, None, 3, |vm, _| {
                vm.try_execute(&dma_trace()).map(|r| r.cycles)
            })
            .unwrap();
        let mut recovered = None;
        for seed in 0..64u64 {
            let sup = supervisor(Some(Arc::clone(&plan)), DEFAULT_REBUILD_BUDGET);
            let mut span = recorder.root("chaos");
            let out = sup.run_on(Some(DeviceKind::Gpu), &mut span, None, 3, |vm, _| {
                vm.try_execute(&dma_trace()).map(|r| r.cycles)
            });
            if let Ok(cycles) = out {
                if sup.rebuilds() > 0 {
                    recovered = Some(cycles);
                    break;
                }
            }
            let _ = seed;
        }
        let cycles = recovered.expect("some run recovers from an injected device fault");
        assert_eq!(cycles, baseline, "post-recovery runs are bit-identical to fault-free ones");
    }

    #[test]
    fn metrics_count_faults_rebuilds_and_quarantine() {
        let registry = Arc::new(MetricsRegistry::new());
        let sup = VmSupervisor::new(
            VmTarget::secure(TeePlatform::Cca),
            3,
            None,
            retry_fast(),
            1,
            &registry,
        );
        let recorder = SpanRecorder::default();
        let mut span = recorder.root("test");
        let fault = TeeFault::fatal(TeePlatform::Cca, TeeMechanism::RmmCommand);
        let _ = sup.run::<()>(&mut span, None, 0, |_, _| Err(fault));
        assert_eq!(
            registry.counter_value("vmm_faults_total{mechanism=\"rmm-command\",class=\"fatal\"}"),
            Some(2),
            "one fault per attempt: initial + post-rebuild"
        );
        assert_eq!(
            registry.counter_value("vm_rebuilds_total{platform=\"cca\",kind=\"secure\"}"),
            Some(1)
        );
        assert_eq!(
            registry.gauge_value("vm_quarantined{platform=\"cca\",kind=\"secure\"}"),
            Some(1)
        );
    }
}
