//! TDX quote generation and DCAP-style verification.
//!
//! Generation (paper: SGX DCAP libraries + `go-tdx-guest`):
//! 1. the TD asks the module for a TDREPORT (`TDG.MR.REPORT`, a TDCALL);
//! 2. the host-side Quoting Enclave validates the report and signs it with
//!    its attestation key, producing the *quote*.
//!
//! Verification (the expensive part, per Fig. 5):
//! 1. fetch TCB info for the platform from the Intel PCS (network);
//! 2. fetch the PCK CRL and the root CA CRL (two more network requests);
//! 3. check the certificate chain against the CRLs, the QE signature, the
//!    TCB level, and the report data binding.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use confbench_crypto::{Sha256, Signature, SigningKey, VerifyingKey};
use confbench_types::Cycles;
use confbench_vmm::{TdReport, Vm};
use parking_lot::Mutex;

use crate::error::AttestError;
use crate::network::NetworkModel;
use crate::PhaseTiming;

/// A TD quote: a TDREPORT countersigned by the Quoting Enclave.
#[derive(Debug, Clone, PartialEq)]
pub struct TdQuote {
    /// The embedded report.
    pub report: TdReport,
    /// Numeric TCB level encoded in the quote (derived from the module
    /// version in this model).
    pub tcb_level: u64,
    /// QE signature over the serialized report.
    pub qe_signature: Signature,
}

impl TdQuote {
    /// The byte string the QE signature covers.
    pub fn signed_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(self.report.mrtd.as_bytes());
        for r in &self.report.rtmr {
            v.extend_from_slice(r.as_bytes());
        }
        v.extend_from_slice(&self.report.report_data);
        v.extend_from_slice(&self.tcb_level.to_be_bytes());
        v
    }
}

/// The simulated Intel Provisioning Certification Service.
///
/// Owns the platform root of trust, serves signed TCB info and CRLs, and
/// charges network latency per request through a [`NetworkModel`].
#[derive(Debug)]
pub struct PcsService {
    root_key: SigningKey,
    current_tcb: AtomicU64,
    revoked_pck: AtomicBool,
    /// Individual HTTP requests served (each fetch_* call is one), for
    /// asserting how often verifiers really hit the wire.
    requests: AtomicU64,
    network: NetworkModel,
}

/// Serialized size of the TCB info response (bytes), for transfer costing.
const TCB_INFO_BYTES: u64 = 8_192;
/// Serialized size of each CRL response.
const CRL_BYTES: u64 = 24_576;

impl PcsService {
    fn new(seed: u64, current_tcb: u64) -> Self {
        PcsService {
            root_key: SigningKey::from_seed(seed ^ 0x7063_7321 /* "pcs!" */),
            current_tcb: AtomicU64::new(current_tcb),
            revoked_pck: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            network: NetworkModel::wan(seed),
        }
    }

    /// Marks the platform's PCK certificate revoked (test/ablation hook).
    pub fn revoke_pck(&self) {
        self.revoked_pck.store(true, Ordering::Relaxed);
    }

    /// Raises the minimum TCB the service advertises (models a TCB recovery
    /// event that obsoletes older firmware).
    pub fn set_current_tcb(&self, tcb: u64) {
        self.current_tcb.store(tcb, Ordering::Relaxed);
    }

    /// Makes a fraction of this service's responses fail (flaky-verifier
    /// scenarios; `1.0` is a full outage). See
    /// [`NetworkModel::with_fail_rate`].
    pub fn set_fail_rate(&self, rate: f64) {
        self.network.set_fail_rate(rate);
    }

    /// Total HTTP requests this service has answered (successful or
    /// failed). Fetch counters are how the single-flight tests prove that
    /// N concurrent verifications shared one collateral round trip.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::SeqCst)
    }

    fn current(&self) -> u64 {
        self.current_tcb.load(Ordering::Relaxed)
    }

    /// `GET /tcb`: the minimum acceptable TCB with its signature, and the
    /// latency in ms. `Err` (here and in the other fetches) carries the
    /// latency the failed request burned.
    pub fn try_fetch_tcb_info(&self) -> Result<((u64, Signature), f64), f64> {
        self.requests.fetch_add(1, Ordering::SeqCst);
        let ms = self.network.try_request_ms(TCB_INFO_BYTES)?;
        let tcb = self.current();
        let sig = self.root_key.sign(&tcb_message(tcb));
        Ok(((tcb, sig), ms))
    }

    /// `GET /pckcrl`: returns (is-pck-revoked, latency ms).
    pub fn try_fetch_pck_crl(&self) -> Result<(bool, f64), f64> {
        self.requests.fetch_add(1, Ordering::SeqCst);
        self.network
            .try_request_ms(CRL_BYTES)
            .map(|ms| (self.revoked_pck.load(Ordering::Relaxed), ms))
    }

    /// `GET /rootcacrl`: returns latency ms (the root is never revoked in
    /// the model).
    pub fn try_fetch_root_crl(&self) -> Result<f64, f64> {
        self.requests.fetch_add(1, Ordering::SeqCst);
        self.network.try_request_ms(CRL_BYTES)
    }

    /// The root verification key (pinned by verifiers).
    pub fn root_public(&self) -> VerifyingKey {
        self.root_key.verifying_key()
    }
}

fn tcb_message(tcb: u64) -> Vec<u8> {
    let mut v = b"pcs-tcb-info:".to_vec();
    v.extend_from_slice(&tcb.to_be_bytes());
    v
}

/// Verified collateral from a past successful PCS round trip, kept as the
/// fallback for outages (DCAP deployments cache TCB info and CRLs on disk
/// for exactly this reason).
#[derive(Debug, Clone, Copy)]
struct CachedCollateral {
    required_tcb: u64,
    pck_revoked: bool,
}

/// The full TDX attestation ecosystem for one platform: Quoting Enclave key
/// material plus the PCS it chains to.
///
/// The ecosystem is `Sync`: the collateral cache sits behind a `Mutex` and
/// the PCS knobs are atomics, so one `Arc<TdxEcosystem>` can serve every
/// gateway worker thread (the production sharing the old `RefCell` cache
/// made impossible).
#[derive(Debug)]
pub struct TdxEcosystem {
    qe_key: SigningKey,
    pcs: PcsService,
    platform_tcb: AtomicU64,
    /// Last successfully fetched + signature-verified collateral.
    collateral_cache: Mutex<Option<CachedCollateral>>,
    /// Completed live collateral round trips (one per full TCB+CRL cycle).
    collateral_fetches: AtomicU64,
}

/// Milliseconds charged for the QE's local work (report validation +
/// signing), before adding TDCALL cycle costs.
const QE_SIGN_MS: f64 = 12.0;
/// Milliseconds for DCAP library setup per quote.
const DCAP_SETUP_MS: f64 = 5.0;
/// Milliseconds of local crypto during verification.
const VERIFY_CRYPTO_MS: f64 = 9.0;
/// Attempts per PCS fetch before giving up on the live service.
const FETCH_ATTEMPTS: u32 = 3;
/// Backoff before the second fetch attempt (doubles per retry); charged as
/// network wait time, not compute.
const FETCH_BACKOFF_MS: f64 = 25.0;

impl TdxEcosystem {
    /// Builds an ecosystem seeded for determinism, with the platform at TCB
    /// level 46 (matching the `TDX_1.5.05.46.698` module) and the PCS
    /// requiring that same level.
    pub fn new(seed: u64) -> Self {
        TdxEcosystem {
            qe_key: SigningKey::from_seed(seed ^ 0x71_656b_6579 /* "qekey" */),
            pcs: PcsService::new(seed, 46),
            platform_tcb: AtomicU64::new(46),
            collateral_cache: Mutex::new(None),
            collateral_fetches: AtomicU64::new(0),
        }
    }

    /// Shared access to the PCS (counters, revocation/TCB-recovery knobs —
    /// all take `&self` so a verifier shared across threads stays
    /// steerable).
    pub fn pcs(&self) -> &PcsService {
        &self.pcs
    }

    /// Mutable access to the PCS (kept for callers that own the ecosystem).
    pub fn pcs_mut(&mut self) -> &mut PcsService {
        &mut self.pcs
    }

    /// Models a platform firmware update: quotes generated from now on
    /// report `tcb` (a TCB recovery is survived by patching, then
    /// re-attesting).
    pub fn patch_platform_tcb(&self, tcb: u64) {
        self.platform_tcb.store(tcb, Ordering::Relaxed);
    }

    /// Completed live collateral cycles (TCB info + both CRLs fetched and
    /// verified). Stays flat while verifications are served from cached
    /// collateral or the session cache.
    pub fn collateral_fetches(&self) -> u64 {
        self.collateral_fetches.load(Ordering::SeqCst)
    }

    /// Whether a past verification has populated the collateral cache.
    pub fn has_cached_collateral(&self) -> bool {
        self.collateral_cache.lock().is_some()
    }

    /// Runs one PCS fetch with bounded retry + exponential backoff,
    /// accumulating every millisecond spent — successful latency, failed
    /// round trips, and backoff waits — into `net_ms`. `Err` means the
    /// retry budget is exhausted.
    fn fetch_with_retry<T>(
        net_ms: &mut f64,
        mut fetch: impl FnMut() -> Result<(T, f64), f64>,
    ) -> Result<T, ()> {
        let mut backoff = FETCH_BACKOFF_MS;
        for attempt in 0..FETCH_ATTEMPTS {
            match fetch() {
                Ok((value, ms)) => {
                    *net_ms += ms;
                    return Ok(value);
                }
                Err(ms) => {
                    *net_ms += ms;
                    if attempt + 1 < FETCH_ATTEMPTS {
                        *net_ms += backoff;
                        backoff *= 2.0;
                    }
                }
            }
        }
        Err(())
    }

    /// **Attest phase**: produce a quote for the TD running in `vm`, bound
    /// to `report_data`.
    ///
    /// # Errors
    ///
    /// [`AttestError::WrongVmKind`] unless `vm` is a TDX trust domain.
    pub fn generate_quote(
        &self,
        vm: &mut Vm,
        report_data: [u8; 64],
    ) -> Result<(TdQuote, PhaseTiming), AttestError> {
        let freq = vm.target().platform.host_freq_ghz();
        let before = vm.now();
        let (module, td) = vm.tdx_module_mut().ok_or(AttestError::WrongVmKind)?;
        let report = module
            .tdg_mr_report(td, report_data)
            .map_err(|e| AttestError::Firmware(e.to_string()))?;
        // The TDCALL round trip is charged in VM cycles.
        let tdcall_ms = tdcall_cost(vm, before, freq);
        let quote = TdQuote {
            tcb_level: self.platform_tcb.load(Ordering::Relaxed),
            qe_signature: Signature { e: 0, s: 0 },
            report,
        };
        let mut quote = quote;
        quote.qe_signature = self.qe_key.sign(&quote.signed_bytes());
        Ok((quote, PhaseTiming::local(DCAP_SETUP_MS + QE_SIGN_MS + tdcall_ms)))
    }

    /// One live collateral cycle: TCB info (signature-checked), then both
    /// CRLs, each with bounded retry. `Ok(Some)` caches and returns fresh
    /// collateral; `Ok(None)` is an outage past the retry budget (callers
    /// may fall back to the cache); `Err` is an integrity failure that must
    /// never be absorbed.
    fn fetch_collateral_live(
        &self,
        net_ms: &mut f64,
    ) -> Result<Option<CachedCollateral>, AttestError> {
        let tcb = Self::fetch_with_retry(net_ms, || self.pcs.try_fetch_tcb_info());
        match tcb {
            Ok((required_tcb, tcb_sig)) => {
                // A bad signature is an integrity failure, not an outage:
                // never fall back past it.
                self.pcs
                    .root_public()
                    .verify(&tcb_message(required_tcb), &tcb_sig)
                    .map_err(|_| AttestError::BadSignature("tcb info"))?;
                let pck = Self::fetch_with_retry(net_ms, || self.pcs.try_fetch_pck_crl());
                let root = Self::fetch_with_retry(net_ms, || {
                    self.pcs.try_fetch_root_crl().map(|ms| ((), ms))
                });
                match (pck, root) {
                    (Ok(pck_revoked), Ok(())) => {
                        let fresh = CachedCollateral { required_tcb, pck_revoked };
                        *self.collateral_cache.lock() = Some(fresh);
                        self.collateral_fetches.fetch_add(1, Ordering::SeqCst);
                        Ok(Some(fresh))
                    }
                    _ => Ok(None),
                }
            }
            Err(()) => Ok(None),
        }
    }

    /// **Check phase**: DCAP-style verification with live PCS lookups.
    ///
    /// Each PCS fetch is retried up to `FETCH_ATTEMPTS` (3) times with
    /// exponential backoff; if the service stays down past the budget,
    /// verification falls back to the last successfully verified collateral.
    ///
    /// # Errors
    ///
    /// Signature, revocation, TCB, and nonce failures, plus
    /// [`AttestError::CollateralUnavailable`] when the PCS is unreachable
    /// and nothing is cached.
    pub fn verify_quote(
        &self,
        quote: &TdQuote,
        expected_report_data: [u8; 64],
    ) -> Result<PhaseTiming, AttestError> {
        let mut net_ms = 0.0;
        // 1-2. Collateral: TCB info, then both CRLs.
        let collateral = match self.fetch_collateral_live(&mut net_ms)? {
            Some(fresh) => fresh,
            None => self.cached_collateral()?,
        };
        // 3. Local checks.
        self.check_quote_against(quote, collateral, expected_report_data)?;
        Ok(PhaseTiming::with_network(VERIFY_CRYPTO_MS, net_ms))
    }

    /// **Check phase**, steady-state: verify against the cached collateral
    /// without touching the PCS at all — the path the background refresher
    /// keeps hot, so verification costs only local crypto. Falls back to a
    /// full [`TdxEcosystem::verify_quote`] when the cache is cold.
    ///
    /// # Errors
    ///
    /// As [`TdxEcosystem::verify_quote`]; the policy enforced is whatever
    /// the cached collateral carries, which is why the refresher updates it
    /// ahead of expiry.
    pub fn verify_quote_offline(
        &self,
        quote: &TdQuote,
        expected_report_data: [u8; 64],
    ) -> Result<PhaseTiming, AttestError> {
        let cached = *self.collateral_cache.lock();
        match cached {
            Some(collateral) => {
                self.check_quote_against(quote, collateral, expected_report_data)?;
                Ok(PhaseTiming::local(VERIFY_CRYPTO_MS))
            }
            None => self.verify_quote(quote, expected_report_data),
        }
    }

    /// Re-fetches TCB info and CRLs from the live PCS and replaces the
    /// cached collateral — the background-refresh entry point. Returns the
    /// required TCB now in force and the network milliseconds spent.
    ///
    /// # Errors
    ///
    /// [`AttestError::CollateralUnavailable`] when the PCS stays down past
    /// the retry budget (the previous cache entry is kept), or
    /// [`AttestError::BadSignature`] on tampered TCB info.
    pub fn refresh_collateral(&self) -> Result<(u64, f64), AttestError> {
        let mut net_ms = 0.0;
        match self.fetch_collateral_live(&mut net_ms)? {
            Some(fresh) => Ok((fresh.required_tcb, net_ms)),
            None => Err(AttestError::CollateralUnavailable),
        }
    }

    fn check_quote_against(
        &self,
        quote: &TdQuote,
        collateral: CachedCollateral,
        expected_report_data: [u8; 64],
    ) -> Result<(), AttestError> {
        if collateral.pck_revoked {
            return Err(AttestError::Revoked("pck"));
        }
        self.qe_key
            .verifying_key()
            .verify(&quote.signed_bytes(), &quote.qe_signature)
            .map_err(|_| AttestError::BadSignature("qe quote"))?;
        if quote.tcb_level < collateral.required_tcb {
            return Err(AttestError::TcbOutOfDate {
                reported: quote.tcb_level,
                required: collateral.required_tcb,
            });
        }
        if quote.report.report_data != expected_report_data {
            return Err(AttestError::NonceMismatch);
        }
        Ok(())
    }

    fn cached_collateral(&self) -> Result<CachedCollateral, AttestError> {
        (*self.collateral_cache.lock()).ok_or(AttestError::CollateralUnavailable)
    }

    /// Verifier-side freshness helper: derives 64 bytes of report data from
    /// a nonce, as `go-tdx-guest` clients do.
    pub fn report_data_for_nonce(nonce: u64) -> [u8; 64] {
        let d1 = Sha256::digest_parts(&[b"nonce", &nonce.to_be_bytes()]);
        let d2 = Sha256::digest_parts(&[b"nonce2", &nonce.to_be_bytes()]);
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(d1.as_bytes());
        out[32..].copy_from_slice(d2.as_bytes());
        out
    }
}

fn tdcall_cost(vm: &Vm, before: Cycles, freq: f64) -> f64 {
    // TDG.MR.REPORT itself does not advance the workload clock in this
    // model, so charge one exit round trip explicitly.
    let delta = (vm.now() - before).as_nanos(freq) / 1e6;
    delta + vm.cost_model().exit_cost / (freq * 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_types::{TeePlatform, VmTarget};
    use confbench_vmm::TeeVmBuilder;

    fn td() -> Vm {
        TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(1).try_build().unwrap()
    }

    #[test]
    fn quote_roundtrip_verifies() {
        let mut vm = td();
        let eco = TdxEcosystem::new(1);
        let nonce = TdxEcosystem::report_data_for_nonce(77);
        let (quote, attest) = eco.generate_quote(&mut vm, nonce).unwrap();
        let check = eco.verify_quote(&quote, nonce).unwrap();
        assert!(attest.latency_ms > 0.0);
        assert!(check.latency_ms > 100.0, "3 PCS requests at WAN latency: {}", check.latency_ms);
    }

    #[test]
    fn tampered_quote_rejected() {
        let mut vm = td();
        let eco = TdxEcosystem::new(1);
        let nonce = [3u8; 64];
        let (mut quote, _) = eco.generate_quote(&mut vm, nonce).unwrap();
        quote.tcb_level += 1; // inflate TCB claim
        assert_eq!(eco.verify_quote(&quote, nonce), Err(AttestError::BadSignature("qe quote")));
    }

    #[test]
    fn nonce_mismatch_rejected() {
        let mut vm = td();
        let eco = TdxEcosystem::new(1);
        let (quote, _) = eco.generate_quote(&mut vm, [1; 64]).unwrap();
        assert_eq!(eco.verify_quote(&quote, [2; 64]), Err(AttestError::NonceMismatch));
    }

    #[test]
    fn tcb_recovery_obsoletes_old_quotes() {
        let mut vm = td();
        let mut eco = TdxEcosystem::new(1);
        let (quote, _) = eco.generate_quote(&mut vm, [1; 64]).unwrap();
        eco.pcs_mut().set_current_tcb(99);
        assert_eq!(
            eco.verify_quote(&quote, [1; 64]),
            Err(AttestError::TcbOutOfDate { reported: 46, required: 99 })
        );
    }

    #[test]
    fn revoked_pck_rejected() {
        let mut vm = td();
        let mut eco = TdxEcosystem::new(1);
        let (quote, _) = eco.generate_quote(&mut vm, [1; 64]).unwrap();
        eco.pcs_mut().revoke_pck();
        assert_eq!(eco.verify_quote(&quote, [1; 64]), Err(AttestError::Revoked("pck")));
    }

    #[test]
    fn quotes_from_wrong_ecosystem_fail() {
        let mut vm = td();
        let eco1 = TdxEcosystem::new(1);
        let eco2 = TdxEcosystem::new(2);
        let (quote, _) = eco1.generate_quote(&mut vm, [1; 64]).unwrap();
        assert!(eco2.verify_quote(&quote, [1; 64]).is_err());
    }

    #[test]
    fn normal_vm_cannot_quote() {
        let mut vm = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Tdx)).try_build().unwrap();
        assert_eq!(
            TdxEcosystem::new(1).generate_quote(&mut vm, [0; 64]).unwrap_err(),
            AttestError::WrongVmKind
        );
    }

    #[test]
    fn flaky_pcs_is_absorbed_by_retry() {
        let mut vm = td();
        let mut eco = TdxEcosystem::new(1);
        let steady = TdxEcosystem::new(1);
        let nonce = TdxEcosystem::report_data_for_nonce(5);
        let (quote, _) = eco.generate_quote(&mut vm, nonce).unwrap();
        let baseline = steady.verify_quote(&quote, nonce).unwrap();

        eco.pcs_mut().set_fail_rate(0.4);
        let mut retried = 0;
        for _ in 0..8 {
            let timing = eco.verify_quote(&quote, nonce).unwrap_or_else(|e| {
                panic!("retry + cached fallback should absorb a 40% flaky PCS: {e}")
            });
            if timing.network_ms > baseline.network_ms * 1.5 {
                retried += 1;
            }
        }
        assert!(retried > 0, "a 40% fail rate over 24 fetches must trigger some retries");
    }

    #[test]
    fn full_outage_falls_back_to_cached_collateral() {
        let mut vm = td();
        let mut eco = TdxEcosystem::new(1);
        let nonce = TdxEcosystem::report_data_for_nonce(6);
        let (quote, _) = eco.generate_quote(&mut vm, nonce).unwrap();
        assert!(!eco.has_cached_collateral());
        eco.verify_quote(&quote, nonce).unwrap();
        assert!(eco.has_cached_collateral());

        eco.pcs_mut().set_fail_rate(1.0);
        let timing = eco.verify_quote(&quote, nonce).unwrap();
        // Three attempts at the TCB fetch (with 25+50 ms backoff) before
        // giving up on the live service; the wasted time is still charged.
        assert!(timing.network_ms > 75.0, "failed attempts burn wall time: {}", timing.network_ms);
    }

    #[test]
    fn full_outage_with_cold_cache_is_unavailable() {
        let mut vm = td();
        let mut eco = TdxEcosystem::new(1);
        let nonce = TdxEcosystem::report_data_for_nonce(7);
        let (quote, _) = eco.generate_quote(&mut vm, nonce).unwrap();
        eco.pcs_mut().set_fail_rate(1.0);
        assert_eq!(eco.verify_quote(&quote, nonce), Err(AttestError::CollateralUnavailable));
    }

    #[test]
    fn cached_collateral_still_enforces_policy() {
        let mut vm = td();
        let mut eco = TdxEcosystem::new(1);
        let nonce = TdxEcosystem::report_data_for_nonce(8);
        let (quote, _) = eco.generate_quote(&mut vm, nonce).unwrap();
        // Warm the cache *after* a TCB recovery, then take the PCS down:
        // the cached requirement keeps rejecting the stale quote.
        eco.pcs_mut().set_current_tcb(99);
        assert_eq!(
            eco.verify_quote(&quote, nonce),
            Err(AttestError::TcbOutOfDate { reported: 46, required: 99 })
        );
        eco.pcs_mut().set_fail_rate(1.0);
        assert_eq!(
            eco.verify_quote(&quote, nonce),
            Err(AttestError::TcbOutOfDate { reported: 46, required: 99 })
        );
    }

    #[test]
    fn report_data_for_nonce_is_deterministic_and_injective_ish() {
        assert_eq!(TdxEcosystem::report_data_for_nonce(1), TdxEcosystem::report_data_for_nonce(1));
        assert_ne!(TdxEcosystem::report_data_for_nonce(1), TdxEcosystem::report_data_for_nonce(2));
    }

    #[test]
    fn ecosystem_is_shareable_across_threads() {
        // The regression this PR fixes: with the RefCell collateral cache
        // the ecosystem was !Sync and this block did not compile, so one
        // verifier could never serve multiple gateway workers.
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<TdxEcosystem>();

        let mut vm = td();
        let eco = std::sync::Arc::new(TdxEcosystem::new(1));
        let nonce = TdxEcosystem::report_data_for_nonce(9);
        let (quote, _) = eco.generate_quote(&mut vm, nonce).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let eco = std::sync::Arc::clone(&eco);
                let quote = quote.clone();
                std::thread::spawn(move || eco.verify_quote(&quote, nonce).map(|t| t.latency_ms))
            })
            .collect();
        for h in handles {
            let latency = h.join().unwrap().expect("concurrent verification succeeds");
            assert!(latency > 0.0);
        }
        assert!(eco.has_cached_collateral());
    }

    #[test]
    fn offline_verification_skips_pcs_once_collateral_is_cached() {
        let mut vm = td();
        let eco = TdxEcosystem::new(1);
        let nonce = TdxEcosystem::report_data_for_nonce(11);
        let (quote, _) = eco.generate_quote(&mut vm, nonce).unwrap();

        // Cold cache: offline falls back to the live path.
        let cold = eco.verify_quote_offline(&quote, nonce).unwrap();
        assert!(cold.network_ms > 0.0, "cold offline verify hits the PCS");
        let requests_after_cold = eco.pcs().requests();
        assert_eq!(requests_after_cold, 3, "tcb info + 2 CRLs");

        // Warm cache: pure local crypto, zero network, zero PCS requests.
        let warm = eco.verify_quote_offline(&quote, nonce).unwrap();
        assert_eq!(warm.network_ms, 0.0);
        assert_eq!(eco.pcs().requests(), requests_after_cold);
        assert!(warm.latency_ms < cold.latency_ms / 5.0);
    }

    #[test]
    fn refresh_updates_cached_policy_for_offline_verifiers() {
        let mut vm = td();
        let eco = TdxEcosystem::new(1);
        let nonce = TdxEcosystem::report_data_for_nonce(12);
        let (quote, _) = eco.generate_quote(&mut vm, nonce).unwrap();
        let (required, net_ms) = eco.refresh_collateral().unwrap();
        assert_eq!(required, 46);
        assert!(net_ms > 0.0);
        assert_eq!(eco.collateral_fetches(), 1);
        eco.verify_quote_offline(&quote, nonce).unwrap();

        // A TCB recovery lands at the PCS; the next refresh propagates it
        // and offline verification starts rejecting the stale quote.
        eco.pcs().set_current_tcb(99);
        let (required, _) = eco.refresh_collateral().unwrap();
        assert_eq!(required, 99);
        assert_eq!(
            eco.verify_quote_offline(&quote, nonce),
            Err(AttestError::TcbOutOfDate { reported: 46, required: 99 })
        );

        // Patching the platform (firmware update) recovers: fresh quotes
        // report the new TCB and verify offline again.
        eco.patch_platform_tcb(99);
        let (patched, _) = eco.generate_quote(&mut vm, nonce).unwrap();
        let timing = eco.verify_quote_offline(&patched, nonce).unwrap();
        assert_eq!(timing.network_ms, 0.0);
    }

    #[test]
    fn refresh_during_outage_keeps_previous_collateral() {
        let mut vm = td();
        let eco = TdxEcosystem::new(1);
        let nonce = TdxEcosystem::report_data_for_nonce(13);
        let (quote, _) = eco.generate_quote(&mut vm, nonce).unwrap();
        eco.refresh_collateral().unwrap();
        eco.pcs().set_fail_rate(1.0);
        assert_eq!(eco.refresh_collateral(), Err(AttestError::CollateralUnavailable));
        // The stale-but-valid collateral still serves offline verification.
        assert_eq!(eco.verify_quote_offline(&quote, nonce).unwrap().network_ms, 0.0);
    }
}
