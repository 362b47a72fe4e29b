//! The attestation session layer: verification caching, single-flight
//! collapse, and background collateral refresh.
//!
//! E4 measured the TDX check at ~184 ms median with ~95% of it in PCS round
//! trips. At fleet scale, verification must become a *session* primitive:
//! verify a TCB identity once, hand out a TTL'd token, and re-verify only
//! when something the token attests to actually changes. This module is
//! that layer:
//!
//! * [`SessionCache`] — verified-session tokens keyed on
//!   [`TcbIdentity`](crate::TcbIdentity) (platform, measurement, TCB level,
//!   e-vTPM runtime digest) plus the verification-policy fingerprint, TTL'd
//!   on an injectable [`Clock`]. Concurrent cold verifications of one
//!   identity are **single-flighted**: the first caller verifies (one PCS
//!   round trip), the rest park behind it and reuse the result.
//! * [`CollateralRefresher`] — re-fetches TCB info/CRLs ahead of expiry so
//!   steady-state verification runs entirely against cached collateral and
//!   the hot path never blocks on the PCS; a TCB recovery observed during
//!   refresh raises the cache's required-TCB watermark, invalidating every
//!   session below it.
//!
//! A session dies four ways: TTL expiry, explicit revocation, an e-vTPM
//! runtime-measurement extend, or the TCB watermark moving past it. All
//! four force the next dispatch through full re-verification.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use confbench_crypto::bounded::OldestOut;
use confbench_crypto::flight::Flight;
use confbench_crypto::{Digest, Sha256};
use confbench_obs::{Counter, MetricsRegistry};
use confbench_types::{Clock, TeePlatform};

use crate::error::AttestError;
use crate::tdx_flow::TdxEcosystem;
use crate::verifier::{Evidence, TcbIdentity, Verifier};
use crate::PhaseTiming;

/// Milliseconds charged for a warm session-cache lookup (token validation,
/// a hash probe — no crypto, no network).
const SESSION_LOOKUP_MS: f64 = 0.05;

/// Session-cache configuration.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Session lifetime in clock milliseconds (default 5 minutes).
    pub ttl_ms: u64,
    /// Maximum retained sessions; the oldest is evicted past this.
    pub capacity: usize,
    /// Fingerprint of the verification policy in force. Folded into every
    /// session key so a policy change can never resurrect sessions
    /// verified under the old policy.
    pub policy: Digest,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            ttl_ms: 300_000,
            capacity: 1024,
            policy: Sha256::digest(b"confbench-attest-policy-v1"),
        }
    }
}

/// Why a session is (or is not) currently usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Valid: dispatches may skip verification.
    Live,
    /// TTL elapsed.
    Expired,
    /// Explicitly revoked (`DELETE /v1/attest/sessions/{id}`).
    Revoked,
    /// An e-vTPM runtime register was extended after issuance.
    Extended,
    /// A TCB recovery raised the required watermark past this session.
    TcbStale,
}

impl SessionState {
    /// Stable lowercase label, as served over REST.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionState::Live => "live",
            SessionState::Expired => "expired",
            SessionState::Revoked => "revoked",
            SessionState::Extended => "extended",
            SessionState::TcbStale => "tcb-stale",
        }
    }
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A verified-session token: the result of one successful verification,
/// reusable until invalidated.
#[derive(Debug, Clone, PartialEq)]
pub struct AttestSession {
    /// Opaque session id (the REST resource name).
    pub id: String,
    /// What was verified.
    pub identity: TcbIdentity,
    /// Issuance time (cache clock).
    pub created_ms: u64,
    /// Expiry time (cache clock).
    pub expires_ms: u64,
    /// State at snapshot time.
    pub state: SessionState,
}

/// How a [`SessionCache::verify_or_join`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionSource {
    /// A live session existed: no verification ran.
    CacheHit,
    /// This caller ran the verification.
    Verified,
    /// Another caller was already verifying the same identity; this one
    /// parked and reused its result.
    SingleFlight,
}

impl SessionSource {
    /// Stable lowercase label, as served over REST.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionSource::CacheHit => "cache-hit",
            SessionSource::Verified => "verified",
            SessionSource::SingleFlight => "single-flight",
        }
    }
}

/// The result of verifying (or joining / short-circuiting) through the
/// session cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The live session token.
    pub session: AttestSession,
    /// What the caller paid: full verification cost when it led or parked
    /// behind the leader, a flat sub-millisecond lookup on a plain hit.
    pub timing: PhaseTiming,
    /// How the call was satisfied.
    pub source: SessionSource,
}

/// Counter snapshot for tests and diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionCacheStats {
    /// Lookups served by a live session.
    pub hits: u64,
    /// Lookups that ran a verification.
    pub misses: u64,
    /// Callers that parked behind an in-flight verification.
    pub singleflight_waits: u64,
}

#[derive(Debug)]
struct SessionEntry {
    id: String,
    identity: TcbIdentity,
    key: Digest,
    created_ms: u64,
    expires_ms: u64,
    revoked: bool,
    extended: bool,
    /// The verification cost paid when this session was created; reused as
    /// the charge for single-flight joiners (they waited in parallel with
    /// the leader's PCS trip).
    timing: PhaseTiming,
}

impl SessionEntry {
    fn state(&self, now_ms: u64, required_tcb: u64) -> SessionState {
        if self.revoked {
            SessionState::Revoked
        } else if self.extended {
            SessionState::Extended
        } else if self.identity.tcb_level < required_tcb {
            SessionState::TcbStale
        } else if now_ms >= self.expires_ms {
            SessionState::Expired
        } else {
            SessionState::Live
        }
    }

    fn snapshot(&self, now_ms: u64, required_tcb: u64) -> AttestSession {
        AttestSession {
            id: self.id.clone(),
            identity: self.identity,
            created_ms: self.created_ms,
            expires_ms: self.expires_ms,
            state: self.state(now_ms, required_tcb),
        }
    }
}

#[derive(Debug)]
struct CacheState {
    /// Sessions by id, charged 1 apiece and never touched: the oldest
    /// issued goes first.
    by_id: OldestOut<String, SessionEntry>,
    by_key: HashMap<Digest, String>,
    /// Per-platform required-TCB watermark (raised by collateral refresh).
    required_tcb: HashMap<TeePlatform, u64>,
    next_seq: u64,
}

impl CacheState {
    fn required(&self, platform: TeePlatform) -> u64 {
        self.required_tcb.get(&platform).copied().unwrap_or(0)
    }
}

/// The gateway-side attestation verification cache. See the module docs.
pub struct SessionCache {
    clock: Arc<dyn Clock>,
    config: SessionConfig,
    /// Sessions, with the keys whose verification is in flight.
    flight: Flight<Digest, CacheState>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    waits: Arc<Counter>,
}

impl fmt::Debug for SessionCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionCache")
            .field("config", &self.config)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl SessionCache {
    /// Builds a cache on `clock` with `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.capacity` is zero.
    pub fn new(clock: Arc<dyn Clock>, config: SessionConfig) -> Self {
        assert!(config.capacity > 0, "session cache capacity must be at least 1");
        let state = CacheState {
            by_id: OldestOut::new(config.capacity),
            by_key: HashMap::new(),
            required_tcb: HashMap::new(),
            next_seq: 0,
        };
        SessionCache {
            clock,
            config,
            flight: Flight::new(state),
            hits: Arc::new(Counter::default()),
            misses: Arc::new(Counter::default()),
            waits: Arc::new(Counter::default()),
        }
    }

    /// Publishes the cache counters to `registry` as
    /// `attest_cache_hits_total` / `attest_cache_misses_total` /
    /// `attest_cache_singleflight_waits_total`.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.hits = registry.counter("attest_cache_hits_total");
        self.misses = registry.counter("attest_cache_misses_total");
        self.waits = registry.counter("attest_cache_singleflight_waits_total");
        self
    }

    /// The configured TTL.
    pub fn ttl_ms(&self) -> u64 {
        self.config.ttl_ms
    }

    /// Retained sessions (all states).
    pub fn len(&self) -> usize {
        self.flight.with(|state| state.by_id.len())
    }

    /// Whether no sessions are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SessionCacheStats {
        SessionCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            singleflight_waits: self.waits.get(),
        }
    }

    /// The cache key for an identity: identity fingerprint folded with the
    /// policy fingerprint.
    fn key_for(&self, identity: &TcbIdentity) -> Digest {
        Sha256::digest_parts(&[
            b"attest-session:",
            identity.fingerprint().as_bytes(),
            self.config.policy.as_bytes(),
        ])
    }

    /// Verifies `evidence` through the cache: a live session for the same
    /// identity short-circuits verification entirely; a concurrent
    /// verification of the same identity is joined (single-flight); only a
    /// genuine miss drives `verifier` — and at most one caller per identity
    /// does so at a time.
    ///
    /// # Errors
    ///
    /// The verifier's failures, propagated to the leader and re-run by
    /// parked callers (a failed verification caches nothing).
    pub fn verify_or_join(
        &self,
        verifier: &dyn Verifier,
        evidence: &Evidence,
        expected_report_data: [u8; 64],
    ) -> Result<SessionOutcome, AttestError> {
        let identity = evidence.identity();
        let key = self.key_for(&identity);
        let (joined, waited) = self.flight.join(&key, |state| {
            let entry = state.by_id.get(state.by_key.get(&key)?)?;
            let (now, required) = (self.clock.now_ms(), state.required(entry.identity.platform));
            (entry.state(now, required) == SessionState::Live)
                .then(|| (entry.snapshot(now, required), entry.timing))
        });
        if waited {
            self.waits.inc();
        }
        // Held until the session is in (or the verification has failed, or
        // unwound): parked callers then reuse it, or the next one elects
        // itself leader and retries.
        let _leader = match joined {
            Ok((session, verification)) => {
                let (timing, source) = if waited {
                    // Parked behind the leader: the wall-clock cost is the
                    // leader's verification, shared.
                    (verification, SessionSource::SingleFlight)
                } else {
                    self.hits.inc();
                    (PhaseTiming::local(SESSION_LOOKUP_MS), SessionSource::CacheHit)
                };
                return Ok(SessionOutcome { session, timing, source });
            }
            Err(leader) => leader,
        };

        // Verification runs outside the lock: other identities proceed in
        // parallel; same-identity callers park above.
        self.misses.inc();
        let timing = verifier.verify(evidence, expected_report_data)?;
        let now = self.clock.now_ms();
        let session = self
            .flight
            .with(|state| Self::insert_locked(state, &self.config, identity, key, timing, now));
        Ok(SessionOutcome { session, timing, source: SessionSource::Verified })
    }

    fn insert_locked(
        state: &mut CacheState,
        config: &SessionConfig,
        identity: TcbIdentity,
        key: Digest,
        timing: PhaseTiming,
        now_ms: u64,
    ) -> AttestSession {
        state.next_seq += 1;
        let id = format!("as-{:04x}-{:.12}", state.next_seq, key.to_string());
        let entry = SessionEntry {
            id: id.clone(),
            identity,
            key,
            created_ms: now_ms,
            expires_ms: now_ms.saturating_add(config.ttl_ms),
            revoked: false,
            extended: false,
            timing,
        };
        let required = state.required(identity.platform);
        let snapshot = entry.snapshot(now_ms, required);
        state.by_key.insert(key, id.clone());
        let by_key = &mut state.by_key;
        state.by_id.insert_evicting(id, entry, 1, |oldest, evicted| {
            if by_key.get(&evicted.key) == Some(&oldest) {
                by_key.remove(&evicted.key);
            }
        });
        snapshot
    }

    /// Dispatch fast path: when `id` names a live session, counts a cache
    /// hit and returns the outcome a dispatcher should charge (a token
    /// lookup — no verification, no network). `None` when the session is
    /// unknown or no longer live; callers re-verify through
    /// [`SessionCache::verify_or_join`].
    pub fn hit(&self, id: &str) -> Option<SessionOutcome> {
        let session = self.get(id).filter(|s| s.state == SessionState::Live)?;
        self.hits.inc();
        Some(SessionOutcome {
            session,
            timing: PhaseTiming::local(SESSION_LOOKUP_MS),
            source: SessionSource::CacheHit,
        })
    }

    /// Reads a session by id.
    pub fn get(&self, id: &str) -> Option<AttestSession> {
        let now = self.clock.now_ms();
        self.flight.with(|state| {
            let entry = state.by_id.get(id)?;
            Some(entry.snapshot(now, state.required(entry.identity.platform)))
        })
    }

    /// Whether `id` names a currently live session.
    pub fn is_live(&self, id: &str) -> bool {
        self.get(id).is_some_and(|s| s.state == SessionState::Live)
    }

    /// Applies `change` to the session `id` names and snapshots the result.
    fn update(&self, id: &str, change: impl FnOnce(&mut SessionEntry)) -> Option<AttestSession> {
        let now = self.clock.now_ms();
        self.flight.with(|state| {
            let required = state.required(state.by_id.get(id)?.identity.platform);
            let entry = state.by_id.get_mut(id)?;
            change(entry);
            Some(entry.snapshot(now, required))
        })
    }

    /// Revokes a session: the next dispatch presenting it re-verifies.
    pub fn revoke(&self, id: &str) -> Option<AttestSession> {
        self.update(id, |entry| entry.revoked = true)
    }

    /// Records that the runtime measurements behind `id` were extended: the
    /// session is invalidated (state [`SessionState::Extended`]) and its
    /// visible runtime digest updated to `new_runtime_digest`, so `GET`
    /// shows what the next verification must match.
    pub fn mark_extended(&self, id: &str, new_runtime_digest: Digest) -> Option<AttestSession> {
        self.update(id, |entry| {
            entry.extended = true;
            entry.identity.runtime_digest = new_runtime_digest;
        })
    }

    /// Raises (never lowers) the required-TCB watermark for `platform`.
    /// Sessions whose verified TCB falls below it flip to
    /// [`SessionState::TcbStale`] — the TCB-change invalidation path, fed
    /// by the collateral refresher.
    pub fn note_required_tcb(&self, platform: TeePlatform, required: u64) {
        self.flight.with(|state| {
            if required > state.required(platform) {
                state.required_tcb.insert(platform, required);
            }
        });
    }

    /// The current required-TCB watermark for `platform` (0 when unset).
    pub fn required_tcb(&self, platform: TeePlatform) -> u64 {
        self.flight.with(|state| state.required(platform))
    }
}

/// Steady-state collateral maintenance for the TDX ecosystem: re-fetches
/// TCB info and CRLs ahead of expiry so verifications run against warm
/// cached collateral, and propagates TCB recoveries into the session
/// cache's watermark.
///
/// Driven by [`CollateralRefresher::tick`] — cheap enough to call on every
/// dispatch (an atomic load when not due) or from a timer thread.
pub struct CollateralRefresher {
    eco: Arc<TdxEcosystem>,
    cache: Arc<SessionCache>,
    clock: Arc<dyn Clock>,
    interval_ms: u64,
    /// Clock ms of the last claimed refresh attempt (`u64::MAX` = never).
    /// Claimed before fetching, so concurrent ticks elect one refresher; a
    /// failed attempt keeps its claim, backing retries off by an interval.
    last_ms: AtomicU64,
    refreshes: Arc<Counter>,
    failures: Arc<Counter>,
}

impl fmt::Debug for CollateralRefresher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CollateralRefresher")
            .field("interval_ms", &self.interval_ms)
            .field("refreshes", &self.refreshes.get())
            .finish_non_exhaustive()
    }
}

impl CollateralRefresher {
    /// Builds a refresher that re-fetches every `interval_ms` clock
    /// milliseconds (refresh-ahead: pick an interval well under the
    /// collateral's validity window).
    pub fn new(
        eco: Arc<TdxEcosystem>,
        cache: Arc<SessionCache>,
        clock: Arc<dyn Clock>,
        interval_ms: u64,
    ) -> Self {
        CollateralRefresher {
            eco,
            cache,
            clock,
            interval_ms: interval_ms.max(1),
            last_ms: AtomicU64::new(u64::MAX),
            refreshes: Arc::new(Counter::default()),
            failures: Arc::new(Counter::default()),
        }
    }

    /// Publishes `attest_collateral_refresh_total` (and
    /// `attest_collateral_refresh_failures_total`) to `registry`.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.refreshes = registry.counter("attest_collateral_refresh_total");
        self.failures = registry.counter("attest_collateral_refresh_failures_total");
        self
    }

    /// Refreshes now, regardless of schedule. Returns the required TCB in
    /// force and the network milliseconds spent.
    ///
    /// # Errors
    ///
    /// As [`TdxEcosystem::refresh_collateral`]; a failure keeps the
    /// previous collateral (stale-but-valid beats nothing).
    pub fn force(&self) -> Result<(u64, f64), AttestError> {
        match self.eco.refresh_collateral() {
            Ok((required, net_ms)) => {
                self.refreshes.inc();
                self.cache.note_required_tcb(TeePlatform::Tdx, required);
                self.last_ms.store(self.clock.now_ms(), Ordering::SeqCst);
                Ok((required, net_ms))
            }
            Err(e) => {
                self.failures.inc();
                Err(e)
            }
        }
    }

    /// Refreshes iff the interval has elapsed since the last attempt (or
    /// none was ever made). Returns `None` when not yet due — including for
    /// every loser of a concurrent race: a thundering herd of cold
    /// dispatches funds exactly one PCS round trip.
    pub fn tick(&self) -> Option<Result<(u64, f64), AttestError>> {
        let now = self.clock.now_ms();
        loop {
            let last = self.last_ms.load(Ordering::SeqCst);
            if last != u64::MAX && now.saturating_sub(last) < self.interval_ms {
                return None;
            }
            // Claim the slot before fetching so concurrent ticks elect one
            // refresher; the claim survives a failed fetch, so an outage is
            // re-probed once per interval instead of on every dispatch.
            if self.last_ms.compare_exchange(last, now, Ordering::SeqCst, Ordering::SeqCst).is_ok()
            {
                return Some(self.force());
            }
        }
    }

    /// Successful refreshes so far.
    pub fn refresh_total(&self) -> u64 {
        self.refreshes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evtpm::quote_runtime;
    use confbench_types::{ManualClock, VmTarget};
    use confbench_vmm::TeeVmBuilder;
    use std::collections::HashSet;
    use std::sync::Barrier;

    fn td_evidence(eco: &TdxEcosystem, nonce: u64) -> (Evidence, [u8; 64]) {
        let mut vm =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(1).try_build().unwrap();
        let data = TdxEcosystem::report_data_for_nonce(nonce);
        let (quote, _) = eco.generate_quote(&mut vm, data).unwrap();
        let runtime = quote_runtime(&vm).unwrap().0;
        (Evidence::tdx(quote).with_runtime(runtime), data)
    }

    fn cache(clock: &Arc<ManualClock>) -> SessionCache {
        SessionCache::new(Arc::clone(clock) as Arc<dyn Clock>, SessionConfig::default())
    }

    #[test]
    fn hit_skips_verification_and_charges_only_a_lookup() {
        let clock = Arc::new(ManualClock::new());
        let cache = cache(&clock);
        let eco = TdxEcosystem::new(1);
        let (evidence, data) = td_evidence(&eco, 1);

        let cold = cache.verify_or_join(&eco, &evidence, data).unwrap();
        assert_eq!(cold.source, SessionSource::Verified);
        assert!(cold.timing.network_ms > 0.0, "cold verify hits the PCS");
        let pcs_after_cold = eco.pcs().requests();

        // Different nonce, same identity: still a hit (identity excludes
        // the nonce — freshness bound the first verification only).
        let (evidence2, data2) = td_evidence(&eco, 2);
        let warm = cache.verify_or_join(&eco, &evidence2, data2).unwrap();
        assert_eq!(warm.source, SessionSource::CacheHit);
        assert_eq!(warm.session.id, cold.session.id);
        assert_eq!(warm.timing.network_ms, 0.0, "hits never touch the network");
        assert_eq!(eco.pcs().requests(), pcs_after_cold, "hits never touch the PCS");
        assert!(warm.timing.latency_ms < cold.timing.latency_ms / 100.0);
        assert_eq!(cache.stats(), SessionCacheStats { hits: 1, misses: 1, singleflight_waits: 0 });
    }

    #[test]
    fn singleflight_collapses_concurrent_cold_verifications() {
        let clock = Arc::new(ManualClock::new());
        let cache = Arc::new(cache(&clock));
        let eco = Arc::new(TdxEcosystem::new(1));
        let (evidence, data) = td_evidence(&eco, 3);
        let n = 16;
        let barrier = Arc::new(Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let eco = Arc::clone(&eco);
                let evidence = evidence.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.verify_or_join(eco.as_ref(), &evidence, data).unwrap()
                })
            })
            .collect();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        let verified = outcomes.iter().filter(|o| o.source == SessionSource::Verified).count();
        assert_eq!(verified, 1, "exactly one leader verifies");
        assert_eq!(eco.collateral_fetches(), 1, "one PCS collateral round trip for all 16");
        assert_eq!(eco.pcs().requests(), 3, "tcb info + 2 CRLs, once");
        let ids: HashSet<_> = outcomes.iter().map(|o| o.session.id.clone()).collect();
        assert_eq!(ids.len(), 1, "every caller holds the same session");
    }

    /// Panics on its first call, then verifies like the ecosystem it wraps.
    struct PanicsOnce {
        eco: Arc<TdxEcosystem>,
        armed: std::sync::atomic::AtomicBool,
    }

    impl Verifier for PanicsOnce {
        fn platform(&self) -> TeePlatform {
            TeePlatform::Tdx
        }

        fn verify(&self, evidence: &Evidence, data: [u8; 64]) -> Result<PhaseTiming, AttestError> {
            assert!(!self.armed.swap(false, Ordering::SeqCst), "verifier bug");
            self.eco.verify(evidence, data)
        }
    }

    #[test]
    fn a_panicking_verifier_frees_its_identity_for_the_next_caller() {
        let clock = Arc::new(ManualClock::new());
        let cache = Arc::new(cache(&clock));
        let eco = Arc::new(TdxEcosystem::new(1));
        let (evidence, data) = td_evidence(&eco, 11);
        let verifier = Arc::new(PanicsOnce { eco, armed: true.into() });

        let leader = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.verify_or_join(verifier.as_ref(), &evidence, data)
        }));
        assert!(leader.is_err(), "the first verification unwinds");

        // On a helper thread, so that a cache that still believes the
        // identity is being verified fails this test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn({
            let cache = Arc::clone(&cache);
            move || {
                tx.send(cache.verify_or_join(verifier.as_ref(), &evidence, data)).ok();
            }
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("parked behind a leader that will never land")
            .unwrap();
        helper.join().unwrap();
        assert_eq!(outcome.source, SessionSource::Verified, "it elects itself and verifies");
        assert_eq!(cache.stats(), SessionCacheStats { hits: 0, misses: 2, singleflight_waits: 0 });
    }

    #[test]
    fn ttl_expiry_forces_reverification() {
        let clock = Arc::new(ManualClock::new());
        let cache = SessionCache::new(
            Arc::clone(&clock) as Arc<dyn Clock>,
            SessionConfig { ttl_ms: 1_000, ..SessionConfig::default() },
        );
        let eco = TdxEcosystem::new(1);
        let (evidence, data) = td_evidence(&eco, 4);
        let first = cache.verify_or_join(&eco, &evidence, data).unwrap();
        assert!(cache.is_live(&first.session.id));

        clock.advance(999);
        assert!(cache.is_live(&first.session.id));
        clock.advance(1);
        assert!(!cache.is_live(&first.session.id));
        assert_eq!(cache.get(&first.session.id).unwrap().state, SessionState::Expired);

        let second = cache.verify_or_join(&eco, &evidence, data).unwrap();
        assert_eq!(second.source, SessionSource::Verified);
        assert_ne!(second.session.id, first.session.id);
    }

    #[test]
    fn revocation_forces_reverification() {
        let clock = Arc::new(ManualClock::new());
        let cache = cache(&clock);
        let eco = TdxEcosystem::new(1);
        let (evidence, data) = td_evidence(&eco, 5);
        let first = cache.verify_or_join(&eco, &evidence, data).unwrap();
        assert_eq!(cache.revoke(&first.session.id).unwrap().state, SessionState::Revoked);
        assert!(!cache.is_live(&first.session.id));

        let second = cache.verify_or_join(&eco, &evidence, data).unwrap();
        assert_eq!(second.source, SessionSource::Verified);
        assert_ne!(second.session.id, first.session.id);
        // The revoked session stays addressable for audit.
        assert_eq!(cache.get(&first.session.id).unwrap().state, SessionState::Revoked);
    }

    #[test]
    fn tcb_watermark_invalidates_old_sessions() {
        let clock = Arc::new(ManualClock::new());
        let cache = cache(&clock);
        let eco = TdxEcosystem::new(1);
        let (evidence, data) = td_evidence(&eco, 6);
        let first = cache.verify_or_join(&eco, &evidence, data).unwrap();
        assert_eq!(first.session.identity.tcb_level, 46);

        cache.note_required_tcb(TeePlatform::Tdx, 99);
        assert!(!cache.is_live(&first.session.id));
        assert_eq!(cache.get(&first.session.id).unwrap().state, SessionState::TcbStale);
        // Watermarks never move down.
        cache.note_required_tcb(TeePlatform::Tdx, 1);
        assert_eq!(cache.required_tcb(TeePlatform::Tdx), 99);
    }

    #[test]
    fn runtime_extend_invalidates_and_new_identity_verifies_fresh() {
        let clock = Arc::new(ManualClock::new());
        let cache = cache(&clock);
        let eco = TdxEcosystem::new(1);
        let mut vm =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(1).try_build().unwrap();
        let data = TdxEcosystem::report_data_for_nonce(7);
        let (quote, _) = eco.generate_quote(&mut vm, data).unwrap();
        let evidence = Evidence::tdx(quote).with_runtime(quote_runtime(&vm).unwrap().0);
        let first = cache.verify_or_join(&eco, &evidence, data).unwrap();

        // Workload measures a new layer in.
        crate::evtpm::extend_runtime(&mut vm, 2, b"hotfix").unwrap();
        let new_digest = quote_runtime(&vm).unwrap().0.digest();
        let marked = cache.mark_extended(&first.session.id, new_digest).unwrap();
        assert_eq!(marked.state, SessionState::Extended);
        assert_eq!(marked.identity.runtime_digest, new_digest);
        assert!(!cache.is_live(&first.session.id));

        // Fresh evidence carries the new runtime digest → new identity →
        // full verification, new session.
        let (quote2, _) = eco.generate_quote(&mut vm, data).unwrap();
        let evidence2 = Evidence::tdx(quote2).with_runtime(quote_runtime(&vm).unwrap().0);
        let second = cache.verify_or_join(&eco, &evidence2, data).unwrap();
        assert_eq!(second.source, SessionSource::Verified);
        assert_ne!(second.session.identity.runtime_digest, first.session.identity.runtime_digest);
    }

    #[test]
    fn capacity_evicts_oldest_sessions() {
        let clock = Arc::new(ManualClock::new());
        let cache = SessionCache::new(
            Arc::clone(&clock) as Arc<dyn Clock>,
            SessionConfig { capacity: 2, ..SessionConfig::default() },
        );
        let eco = TdxEcosystem::new(1);
        // Distinct identities via distinct runtime digests.
        let mut vm =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(1).try_build().unwrap();
        let data = TdxEcosystem::report_data_for_nonce(8);
        let mut ids = Vec::new();
        for layer in 0..3u8 {
            crate::evtpm::extend_runtime(&mut vm, 0, &[layer]).unwrap();
            let (quote, _) = eco.generate_quote(&mut vm, data).unwrap();
            let evidence = Evidence::tdx(quote).with_runtime(quote_runtime(&vm).unwrap().0);
            ids.push(cache.verify_or_join(&eco, &evidence, data).unwrap().session.id);
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&ids[0]).is_none(), "oldest evicted");
        assert!(cache.get(&ids[1]).is_some() && cache.get(&ids[2]).is_some());
    }

    #[test]
    fn refresher_ticks_on_schedule_and_propagates_tcb_recoveries() {
        let clock = Arc::new(ManualClock::new());
        let cache = Arc::new(cache(&clock));
        let eco = Arc::new(TdxEcosystem::new(1));
        let refresher = CollateralRefresher::new(
            Arc::clone(&eco),
            Arc::clone(&cache),
            Arc::clone(&clock) as Arc<dyn Clock>,
            10_000,
        );
        // First tick always fires (nothing cached yet).
        assert!(refresher.tick().unwrap().is_ok());
        assert_eq!(refresher.refresh_total(), 1);
        // Not due again until the interval elapses.
        clock.advance(5_000);
        assert!(refresher.tick().is_none());
        clock.advance(5_000);
        assert!(refresher.tick().unwrap().is_ok());
        assert_eq!(refresher.refresh_total(), 2);

        // A session verified now dies when a TCB recovery is refreshed in.
        let (evidence, data) = td_evidence(&eco, 9);
        let session = cache.verify_or_join(eco.as_ref(), &evidence, data).unwrap().session;
        // Steady-state: that verification used cached collateral, no PCS.
        assert_eq!(eco.collateral_fetches(), 2, "only the refresher fetched");
        eco.pcs().set_current_tcb(99);
        clock.advance(10_000);
        assert!(refresher.tick().unwrap().is_ok());
        assert_eq!(cache.required_tcb(TeePlatform::Tdx), 99);
        assert_eq!(cache.get(&session.id).unwrap().state, SessionState::TcbStale);
    }

    #[test]
    fn refresher_failure_keeps_previous_collateral_and_counts() {
        let clock = Arc::new(ManualClock::new());
        let cache = Arc::new(cache(&clock));
        let eco = Arc::new(TdxEcosystem::new(1));
        let refresher = CollateralRefresher::new(
            Arc::clone(&eco),
            Arc::clone(&cache),
            Arc::clone(&clock) as Arc<dyn Clock>,
            1_000,
        );
        refresher.force().unwrap();
        eco.pcs().set_fail_rate(1.0);
        assert_eq!(refresher.force(), Err(AttestError::CollateralUnavailable));
        assert_eq!(refresher.refresh_total(), 1);
        assert!(eco.has_cached_collateral(), "outage keeps stale-but-valid collateral");
    }

    #[test]
    fn metrics_registry_integration() {
        let clock = Arc::new(ManualClock::new());
        let registry = MetricsRegistry::new();
        let cache = Arc::new(
            SessionCache::new(Arc::clone(&clock) as Arc<dyn Clock>, SessionConfig::default())
                .with_metrics(&registry),
        );
        let eco = Arc::new(TdxEcosystem::new(1));
        let refresher = CollateralRefresher::new(
            Arc::clone(&eco),
            Arc::clone(&cache),
            Arc::clone(&clock) as Arc<dyn Clock>,
            1_000,
        )
        .with_metrics(&registry);
        refresher.force().unwrap();
        let (evidence, data) = td_evidence(&eco, 10);
        cache.verify_or_join(eco.as_ref(), &evidence, data).unwrap();
        cache.verify_or_join(eco.as_ref(), &evidence, data).unwrap();
        assert_eq!(registry.counter_value("attest_cache_hits_total"), Some(1));
        assert_eq!(registry.counter_value("attest_cache_misses_total"), Some(1));
        assert_eq!(registry.counter_value("attest_cache_singleflight_waits_total"), Some(0));
        assert_eq!(registry.counter_value("attest_collateral_refresh_total"), Some(1));
    }
}
