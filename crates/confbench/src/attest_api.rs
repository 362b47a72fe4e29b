//! The gateway's attestation-session service: the `/v1/attest` resource
//! and the machinery behind [`RunRequest::attest_session`].
//!
//! One [`AttestService`] owns the platform verification stacks
//! ([`TdxEcosystem`], [`SnpEcosystem`]), a per-platform probe VM standing
//! in for the fleet's launch + runtime identity, the gateway-wide
//! [`SessionCache`] (verified-session tokens, single-flight), and the
//! [`CollateralRefresher`] that keeps TDX collateral warm so steady-state
//! verification never blocks on the PCS.
//!
//! Verifications and refreshes are counted in the `attest_*` metrics
//! family; a request that verifies carries its own `attest.verify` span in
//! its trace.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use confbench_attest::{
    extend_runtime, quote_runtime, AttestError, AttestSession, CollateralRefresher, DeviceVerifier,
    Evidence, SessionCache, SessionConfig, SessionOutcome, SnpEcosystem, TdxEcosystem, Verifier,
};
use confbench_obs::{Counter, MetricsRegistry};
use confbench_types::{Clock, Error, Result, RunRequest, TeePlatform, VmKind, VmTarget};
use confbench_vmm::{MeasurementReport, TeeVmBuilder, Vm};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Tuning for the gateway's attestation-session layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttestConfig {
    /// Session lifetime in milliseconds (default 5 minutes).
    pub ttl_ms: u64,
    /// Maximum retained sessions (default 1024).
    pub capacity: usize,
}

impl Default for AttestConfig {
    fn default() -> Self {
        AttestConfig { ttl_ms: 300_000, capacity: 1024 }
    }
}

/// Body of `POST /v1/attest/sessions`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttestSessionRequest {
    /// Platform to attest (`tdx` or `sev-snp`; CCA has no attestation
    /// stack, paper §IV-C).
    pub platform: TeePlatform,
    /// Optional caller-chosen freshness nonce; the gateway picks one when
    /// absent.
    #[serde(default)]
    pub nonce: Option<u64>,
}

/// Body of `POST /v1/attest/sessions/{id}/extend`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtendRequest {
    /// Runtime measurement register to extend (0..8).
    pub index: usize,
    /// Data measured into the register.
    pub data: String,
}

/// REST representation of an attestation session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttestSessionInfo {
    /// Session id (the resource name).
    pub id: String,
    /// Verified platform.
    pub platform: TeePlatform,
    /// Session state (`live`, `expired`, `revoked`, `extended`,
    /// `tcb-stale`).
    pub state: String,
    /// Verified launch measurement (lowercase hex).
    pub measurement: String,
    /// Verified TCB level.
    pub tcb_level: u64,
    /// Folded e-vTPM runtime-measurement digest (lowercase hex; all zeros
    /// when the evidence carried no runtime snapshot).
    pub runtime_digest: String,
    /// Issuance time on the gateway clock (ms).
    pub created_ms: u64,
    /// Expiry time on the gateway clock (ms).
    pub expires_ms: u64,
    /// How this response was satisfied (`cache-hit`, `verified`,
    /// `single-flight`); only set by session-creating calls.
    #[serde(default)]
    pub source: Option<String>,
    /// Verification latency charged to this call (ms); only set by
    /// session-creating calls.
    #[serde(default)]
    pub latency_ms: Option<f64>,
    /// Portion of `latency_ms` spent on PCS round trips (0 proves the hot
    /// path never touched the network); only set by session-creating calls.
    #[serde(default)]
    pub network_ms: Option<f64>,
}

impl AttestSessionInfo {
    /// Renders a cache snapshot (status reads).
    pub fn from_session(session: &AttestSession) -> Self {
        AttestSessionInfo {
            id: session.id.clone(),
            platform: session.identity.platform,
            state: session.state.as_str().to_owned(),
            measurement: session.identity.measurement.to_string(),
            tcb_level: session.identity.tcb_level,
            runtime_digest: session.identity.runtime_digest.to_string(),
            created_ms: session.created_ms,
            expires_ms: session.expires_ms,
            source: None,
            latency_ms: None,
            network_ms: None,
        }
    }

    /// Renders a verification outcome (session-creating calls).
    pub fn from_outcome(outcome: &SessionOutcome) -> Self {
        let mut info = Self::from_session(&outcome.session);
        info.source = Some(outcome.source.as_str().to_owned());
        info.latency_ms = Some(outcome.timing.latency_ms);
        info.network_ms = Some(outcome.timing.network_ms);
        info
    }
}

/// The gateway's attestation-session layer. See the module docs.
pub struct AttestService {
    seed: u64,
    cache: Arc<SessionCache>,
    tdx: Arc<TdxEcosystem>,
    snp: Arc<SnpEcosystem>,
    refresher: CollateralRefresher,
    /// One long-lived probe VM per platform: the fleet's shared launch +
    /// runtime identity (every pool member boots the same image, so one
    /// probe's evidence stands for all of them).
    probes: Mutex<HashMap<TeePlatform, Vm>>,
    nonce: AtomicU64,
    devio_attests: Arc<Counter>,
}

impl AttestService {
    /// Builds the service: fresh ecosystems seeded with `seed`, a session
    /// cache on `clock` per `config`, and a collateral refresher on half
    /// the session TTL (refresh-ahead: collateral is always younger than
    /// the sessions it backs). Metrics land in `registry`, or in a private
    /// registry nobody reads when none is given.
    pub fn new(
        seed: u64,
        config: AttestConfig,
        clock: Arc<dyn Clock>,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> Self {
        let session_config = SessionConfig {
            ttl_ms: config.ttl_ms,
            capacity: config.capacity,
            ..SessionConfig::default()
        };
        let registry = registry.cloned().unwrap_or_default();
        let cache =
            Arc::new(SessionCache::new(Arc::clone(&clock), session_config).with_metrics(&registry));
        let tdx = Arc::new(TdxEcosystem::new(seed));
        let interval = (config.ttl_ms / 2).max(1);
        let refresher = CollateralRefresher::new(
            Arc::clone(&tdx),
            Arc::clone(&cache),
            Arc::clone(&clock),
            interval,
        )
        .with_metrics(&registry);
        AttestService {
            seed,
            cache,
            tdx,
            snp: Arc::new(SnpEcosystem::new(seed)),
            refresher,
            probes: Mutex::new(HashMap::new()),
            nonce: AtomicU64::new(seed.wrapping_mul(2) | 1),
            devio_attests: registry.counter("devio_attest_total"),
        }
    }

    /// The session cache (tests and diagnostics).
    pub fn cache(&self) -> &Arc<SessionCache> {
        &self.cache
    }

    /// The TDX verification stack (PCS counters live here).
    pub fn tdx(&self) -> &Arc<TdxEcosystem> {
        &self.tdx
    }

    /// The background collateral refresher.
    pub fn refresher(&self) -> &CollateralRefresher {
        &self.refresher
    }

    fn next_nonce(&self) -> u64 {
        self.nonce.fetch_add(1, Ordering::Relaxed)
    }

    /// Generates evidence for `platform` from its probe VM: hardware quote
    /// or report, plus the e-vTPM runtime snapshot.
    fn evidence_for(&self, platform: TeePlatform, nonce: u64) -> Result<(Evidence, [u8; 64])> {
        let report_data = TdxEcosystem::report_data_for_nonce(nonce);
        let mut probes = self.probes.lock();
        let vm = self.probe(&mut probes, platform)?;
        let body = match platform {
            TeePlatform::Tdx => {
                let (quote, _) = self.tdx.generate_quote(vm, report_data).map_err(attest_error)?;
                Evidence::tdx(quote)
            }
            TeePlatform::SevSnp => {
                let (report, _) = self.snp.request_report(vm, report_data).map_err(attest_error)?;
                Evidence::snp(report)
            }
            TeePlatform::Cca => {
                return Err(Error::InvalidRequest(
                    "cca has no attestation stack (paper §IV-C); use tdx or sev-snp".into(),
                ))
            }
        };
        let (runtime, _) = quote_runtime(vm).map_err(attest_error)?;
        Ok((body.with_runtime(runtime), report_data))
    }

    /// `platform`'s probe VM, booted on first use; a boot fault propagates
    /// as [`Error::TeeFault`].
    fn probe<'a>(
        &self,
        probes: &'a mut HashMap<TeePlatform, Vm>,
        platform: TeePlatform,
    ) -> Result<&'a mut Vm> {
        Ok(match probes.entry(platform) {
            Entry::Occupied(vm) => vm.into_mut(),
            Entry::Vacant(slot) => slot
                .insert(TeeVmBuilder::new(VmTarget::secure(platform)).seed(self.seed).try_build()?),
        })
    }

    fn verifier_for(&self, platform: TeePlatform) -> Result<&dyn Verifier> {
        match platform {
            TeePlatform::Tdx => Ok(self.tdx.as_ref()),
            TeePlatform::SevSnp => Ok(self.snp.as_ref()),
            TeePlatform::Cca => Err(Error::InvalidRequest(
                "cca has no attestation stack (paper §IV-C); use tdx or sev-snp".into(),
            )),
        }
    }

    /// Verifies `platform` through the session cache: a live session for
    /// the fleet's current TCB identity short-circuits; otherwise this call
    /// leads (or joins) a full verification and mints a session token.
    ///
    /// Opportunistically ticks the collateral refresher first, so
    /// steady-state traffic keeps collateral warm without a timer thread.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidRequest`] for CCA; [`Error::Attestation`] when
    /// verification fails.
    pub fn open_session(
        &self,
        platform: TeePlatform,
        nonce: Option<u64>,
    ) -> Result<SessionOutcome> {
        if platform == TeePlatform::Tdx {
            // Counted in `attest_collateral_refresh{,_failures}_total`.
            self.refresher.tick();
        }
        let verifier = self.verifier_for(platform)?;
        let nonce = nonce.unwrap_or_else(|| self.next_nonce());
        let (evidence, report_data) = self.evidence_for(platform, nonce)?;
        self.cache.verify_or_join(verifier, &evidence, report_data).map_err(attest_error)
    }

    /// Reads a session (None = unknown id).
    pub fn session(&self, id: &str) -> Option<AttestSession> {
        self.cache.get(id)
    }

    /// Revokes a session (None = unknown id). The next dispatch presenting
    /// it re-verifies.
    pub fn revoke(&self, id: &str) -> Option<AttestSession> {
        self.cache.revoke(id)
    }

    /// Extends runtime measurement register `index` of the session's
    /// platform with `data`: the e-vTPM of the platform's probe VM is
    /// extended and the session invalidated (its visible runtime digest
    /// updated to the new bank). Returns `Ok(None)` for an unknown id.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidRequest`] on an out-of-range register index.
    pub fn extend(&self, id: &str, index: usize, data: &[u8]) -> Result<Option<AttestSession>> {
        if index >= confbench_vmm::EVTPM_PCRS {
            return Err(Error::InvalidRequest(format!(
                "e-vTPM register {index} out of range (0..{})",
                confbench_vmm::EVTPM_PCRS
            )));
        }
        let Some(session) = self.cache.get(id) else { return Ok(None) };
        let platform = session.identity.platform;
        let new_digest = {
            let mut probes = self.probes.lock();
            let vm = self.probe(&mut probes, platform)?;
            extend_runtime(vm, index, data).map_err(attest_error)?;
            quote_runtime(vm).map_err(attest_error)?.0.digest()
        };
        Ok(self.cache.mark_extended(id, new_digest))
    }

    /// The dispatch gate behind [`RunRequest::attest_session`]: a live
    /// session skips verification (one cache lookup); a dead one
    /// re-verifies through the cache; an unknown id is rejected.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidRequest`] for unknown ids, normal-VM targets, and
    /// platform mismatches; verification errors as
    /// [`AttestService::open_session`].
    pub fn ensure_session(&self, id: &str, target: VmTarget) -> Result<SessionOutcome> {
        let Some(session) = self.cache.get(id) else {
            return Err(Error::InvalidRequest(format!("unknown attest session {id:?}")));
        };
        if target.kind != VmKind::Secure {
            return Err(Error::InvalidRequest(
                "attest_session applies to secure targets only".into(),
            ));
        }
        if session.identity.platform != target.platform {
            return Err(Error::InvalidRequest(format!(
                "attest session {id:?} covers {}, request targets {}",
                session.identity.platform, target.platform
            )));
        }
        if let Some(outcome) = self.cache.hit(id) {
            return Ok(outcome);
        }
        // Expired / revoked / extended / TCB-stale: full re-verification of
        // the fleet's *current* identity, minting a fresh session.
        self.open_session(target.platform, None)
    }

    /// Re-attests `platform` through the session cache (the supervisors'
    /// rebuild path): pool members share the probe's TCB identity, so a
    /// rebuild storm re-verifies once and every other slot reuses the live
    /// session.
    ///
    /// # Errors
    ///
    /// As [`AttestService::open_session`].
    pub fn reattest(&self, platform: TeePlatform) -> Result<SessionOutcome> {
        self.open_session(platform, None)
    }

    /// Verifies a TDISP device measurement report through the session
    /// cache: the whole fleet's accelerators carry one firmware identity,
    /// so one verification (or one single-flighted leader) mints a session
    /// every later VM bring-up rides until the TTL expires. Works for all
    /// three platforms — device evidence is SPDM-signed by the vendor key,
    /// not by the host's quoting enclave, so even CCA hosts (which have no
    /// platform attestation stack) verify their accelerators.
    ///
    /// Counted in `devio_attest_total`; cache behaviour (hits, single-flight
    /// joins) lands in the shared `attest_sessions_*` metrics family.
    ///
    /// # Errors
    ///
    /// [`Error::Attestation`] when the report fails policy (forged
    /// signature, stale firmware SVN, wrong digests, nonce mismatch).
    pub fn open_device_session(
        &self,
        platform: TeePlatform,
        report: MeasurementReport,
        nonce: [u8; 32],
    ) -> Result<SessionOutcome> {
        let verifier = DeviceVerifier::new(platform);
        let evidence = Evidence::device(platform, report);
        let mut report_data = [0u8; 64];
        report_data[..32].copy_from_slice(&nonce);
        let outcome = self.cache.verify_or_join(&verifier, &evidence, report_data);
        self.devio_attests.inc();
        outcome.map_err(attest_error)
    }
}

/// Maps attestation failures onto the REST error table: misuse
/// ([`AttestError::Unsupported`], normal-VM evidence) is the caller's
/// fault (400), everything else is a verification failure (500).
fn attest_error(e: AttestError) -> Error {
    match e {
        AttestError::Unsupported | AttestError::WrongVmKind => {
            Error::InvalidRequest(format!("attestation unavailable: {e}"))
        }
        other => Error::Attestation(other.to_string()),
    }
}

/// Routes a [`RunRequest`]'s optional attestation gate: no-op without a
/// token, otherwise [`AttestService::ensure_session`].
///
/// # Errors
///
/// As [`AttestService::ensure_session`].
pub(crate) fn gate_request(
    service: &AttestService,
    request: &RunRequest,
) -> Result<Option<SessionOutcome>> {
    match &request.attest_session {
        None => Ok(None),
        Some(id) => service.ensure_session(id, request.target).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_attest::SessionSource;
    use confbench_types::ManualClock;

    fn service(clock: &Arc<ManualClock>) -> AttestService {
        AttestService::new(
            7,
            AttestConfig { ttl_ms: 10_000, capacity: 64 },
            Arc::clone(clock) as Arc<dyn Clock>,
            None,
        )
    }

    #[test]
    fn open_session_verifies_then_hits() {
        let clock = Arc::new(ManualClock::new());
        let svc = service(&clock);
        let cold = svc.open_session(TeePlatform::Tdx, None).unwrap();
        assert_eq!(cold.source, SessionSource::Verified);
        let warm = svc.open_session(TeePlatform::Tdx, None).unwrap();
        assert_eq!(warm.source, SessionSource::CacheHit);
        assert_eq!(warm.session.id, cold.session.id);
        assert_eq!(warm.timing.network_ms, 0.0);
    }

    #[test]
    fn snp_sessions_are_local_and_separate_from_tdx() {
        let clock = Arc::new(ManualClock::new());
        let svc = service(&clock);
        let snp = svc.open_session(TeePlatform::SevSnp, None).unwrap();
        assert_eq!(snp.timing.network_ms, 0.0, "VCEK flow is all-local");
        let tdx = svc.open_session(TeePlatform::Tdx, None).unwrap();
        assert_ne!(snp.session.id, tdx.session.id);
        assert_eq!(svc.tdx().pcs().requests(), 3, "only the TDX session fetched collateral");
    }

    #[test]
    fn cca_sessions_rejected_as_invalid() {
        let clock = Arc::new(ManualClock::new());
        let svc = service(&clock);
        let err = svc.open_session(TeePlatform::Cca, None).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)), "got {err}");
        assert_eq!(err.rest_status(), 400);
    }

    #[test]
    fn ensure_session_gates_dispatch() {
        let clock = Arc::new(ManualClock::new());
        let svc = service(&clock);
        let opened = svc.open_session(TeePlatform::SevSnp, None).unwrap();
        let id = opened.session.id;

        // Live: cheap skip.
        let ok = svc.ensure_session(&id, VmTarget::secure(TeePlatform::SevSnp)).unwrap();
        assert_eq!(ok.source, SessionSource::CacheHit);

        // Wrong platform and normal targets: rejected.
        let err = svc.ensure_session(&id, VmTarget::secure(TeePlatform::Tdx)).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)), "got {err}");
        let err = svc.ensure_session(&id, VmTarget::normal(TeePlatform::SevSnp)).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)), "got {err}");

        // Unknown id: rejected.
        let err = svc.ensure_session("as-none", VmTarget::secure(TeePlatform::SevSnp)).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)), "got {err}");

        // Expired: re-verifies and mints a new session.
        clock.advance(10_000);
        let renewed = svc.ensure_session(&id, VmTarget::secure(TeePlatform::SevSnp)).unwrap();
        assert_eq!(renewed.source, SessionSource::Verified);
        assert_ne!(renewed.session.id, id);
    }

    #[test]
    fn extend_invalidates_and_reverification_tracks_new_bank() {
        let clock = Arc::new(ManualClock::new());
        let svc = service(&clock);
        let first = svc.open_session(TeePlatform::Tdx, None).unwrap();
        let extended = svc.extend(&first.session.id, 2, b"hotfix-layer").unwrap().unwrap();
        assert_eq!(extended.state.as_str(), "extended");
        assert!(svc.extend("as-none", 0, b"x").unwrap().is_none(), "unknown id is None");

        let second = svc.open_session(TeePlatform::Tdx, None).unwrap();
        assert_eq!(second.source, SessionSource::Verified, "new bank, new identity");
        assert_eq!(
            second.session.identity.runtime_digest, extended.identity.runtime_digest,
            "re-verified identity matches the digest the extend advertised"
        );
        let err = svc.extend(&second.session.id, 99, b"x").unwrap_err();
        assert_eq!(err.rest_status(), 400, "bad register index is the caller's fault: {err}");
    }

    #[test]
    fn device_sessions_amortize_across_bringups() {
        let clock = Arc::new(ManualClock::new());
        let registry = Arc::new(MetricsRegistry::new());
        let svc = AttestService::new(
            7,
            AttestConfig { ttl_ms: 10_000, capacity: 64 },
            Arc::clone(&clock) as Arc<dyn Clock>,
            Some(&registry),
        );
        let mut gpu = confbench_vmm::GpuDevice::new();
        gpu.lock().unwrap();

        // CCA host on purpose: the platform has no attestation stack, but
        // its accelerator is still verifiable (vendor-signed SPDM report).
        let nonce = [5u8; 32];
        let report = gpu.measurement_report(nonce).unwrap();
        let cold = svc.open_device_session(TeePlatform::Cca, report, nonce).unwrap();
        assert_eq!(cold.source, SessionSource::Verified);

        // A second bring-up with a fresh nonce maps to the same firmware
        // identity: one cache lookup, no re-verification.
        let nonce = [6u8; 32];
        let report = gpu.measurement_report(nonce).unwrap();
        let warm = svc.open_device_session(TeePlatform::Cca, report, nonce).unwrap();
        assert_eq!(warm.source, SessionSource::CacheHit);
        assert_eq!(warm.session.id, cold.session.id);

        assert_eq!(registry.counter_value("devio_attest_total"), Some(2));
    }
}
