//! TEE pools, load balancing, and member health (paper §III-A: "the gateway
//! maintains TEE pools to load-balance workload requests across different
//! types of TEEs"; providers adjust the policy to their needs).
//!
//! Beyond balancing, every member carries health state: consecutive transport
//! failures trip a per-member circuit breaker, [`TeePool::checkout_healthy`]
//! skips tripped members, and an open circuit re-admits a single probe
//! request after a cooldown (classic closed → open → half-open breaker).
//! Time is injected through [`Clock`] so cooldown behaviour is testable
//! without sleeping.

use std::sync::Arc;

use confbench_obs::{Counter, MetricsRegistry};
use parking_lot::Mutex;

// The clock abstraction moved to `confbench-types` (shared with the span
// recorder); re-exported here so existing `confbench::{Clock, ManualClock,
// SystemClock}` paths keep working.
pub use confbench_types::{Clock, ManualClock, SystemClock};

/// A load-balancing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancePolicy {
    /// Rotate through members in order.
    RoundRobin,
    /// Pick the member with the fewest in-flight requests.
    LeastLoaded,
}

/// Circuit-breaker tuning for pool members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive failures that open a member's circuit.
    pub failure_threshold: u32,
    /// How long an open circuit stays closed to traffic before admitting a
    /// half-open probe.
    pub cooldown_ms: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy { failure_threshold: 3, cooldown_ms: 5_000 }
    }
}

/// Externally visible circuit state of one pool member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: traffic flows normally.
    Closed,
    /// Tripped: skipped by [`TeePool::checkout_healthy`] until cooldown.
    Open,
    /// Cooldown elapsed: one probe request is (or may be) in flight.
    HalfOpen,
}

/// Internal circuit representation.
#[derive(Debug, Clone, Copy)]
enum Circuit {
    Closed,
    Open {
        since_ms: u64,
    },
    /// `probing` is true while the single trial request is checked out.
    HalfOpen {
        probing: bool,
    },
}

struct MemberState {
    inflight: u64,
    served: u64,
    consecutive_failures: u32,
    circuit: Circuit,
}

impl MemberState {
    fn new() -> Self {
        MemberState { inflight: 0, served: 0, consecutive_failures: 0, circuit: Circuit::Closed }
    }
}

/// All mutable pool state lives under one lock so selection and accounting
/// are a single atomic step (a load-then-increment pair of atomics let two
/// concurrent least-loaded checkouts pick the same member).
struct PoolState {
    cursor: usize,
    members: Vec<MemberState>,
}

/// A pool of interchangeable execution targets for one VM target.
///
/// # Example
///
/// ```
/// use confbench::{BalancePolicy, TeePool};
///
/// let pool = TeePool::new(vec!["host-a", "host-b"], BalancePolicy::RoundRobin);
/// let first = pool.checkout();
/// let second = pool.checkout();
/// assert_ne!(*first.member(), *second.member());
/// ```
pub struct TeePool<T> {
    entries: Vec<T>,
    policy: BalancePolicy,
    health: HealthPolicy,
    clock: Arc<dyn Clock>,
    state: Mutex<PoolState>,
    metrics: PoolMetrics,
}

/// Cached counter handles so the hot path never takes the registry lock.
struct PoolMetrics {
    checkouts: Arc<Counter>,
    served: Arc<Counter>,
    probes: Arc<Counter>,
    circuit_opened: Arc<Counter>,
}

impl<T> TeePool<T> {
    /// Creates a pool over `members` with default health policy, the
    /// system clock, and counters nobody reads.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<T>, policy: BalancePolicy) -> Self {
        let unmetered = MetricsRegistry::new();
        let clock = Arc::new(SystemClock);
        TeePool::with_health(members, policy, HealthPolicy::default(), clock, &unmetered, "")
    }

    /// Creates a pool with explicit circuit-breaker tuning and clock. Its
    /// checkout/served/circuit events are counters in `registry`, labelled
    /// `{platform="<label>"}`:
    ///
    /// * `pool_checkouts_total` — checkouts granted (probes included);
    /// * `pool_served_total` — requests completed (guard dropped), so it
    ///   always equals the sum of [`TeePool::served_counts`];
    /// * `pool_probes_total` — half-open circuit probes admitted;
    /// * `pool_circuit_opened_total` — closed/half-open → open transitions.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn with_health(
        members: Vec<T>,
        policy: BalancePolicy,
        health: HealthPolicy,
        clock: Arc<dyn Clock>,
        registry: &MetricsRegistry,
        label: &str,
    ) -> Self {
        assert!(!members.is_empty(), "a pool needs at least one member");
        let state =
            PoolState { cursor: 0, members: members.iter().map(|_| MemberState::new()).collect() };
        let name = |base: &str| format!("{base}{{platform=\"{label}\"}}");
        let metrics = PoolMetrics {
            checkouts: registry.counter(&name("pool_checkouts_total")),
            served: registry.counter(&name("pool_served_total")),
            probes: registry.counter(&name("pool_probes_total")),
            circuit_opened: registry.counter(&name("pool_circuit_opened_total")),
        };
        TeePool { entries: members, policy, health, clock, state: Mutex::new(state), metrics }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty (impossible by construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The active policy.
    pub fn policy(&self) -> BalancePolicy {
        self.policy
    }

    /// Selects a member per the policy — ignoring health — returning a guard
    /// that tracks the request as in-flight until dropped.
    pub fn checkout(&self) -> PoolGuard<'_, T> {
        let mut state = self.state.lock();
        // Construction asserts a member, and every member is eligible.
        let idx = self.select(&mut state, |_| true).unwrap_or(0);
        self.admit(&mut state, idx, false)
    }

    /// Selects a healthy member (circuit closed, or open-past-cooldown — in
    /// which case this checkout is the half-open probe). Returns `None` when
    /// every member's circuit is open.
    pub fn checkout_healthy(&self) -> Option<PoolGuard<'_, T>> {
        self.checkout_healthy_excluding(None)
    }

    /// As [`TeePool::checkout_healthy`], but avoids member `exclude` (the one
    /// that just failed) when any other healthy member exists. Falls back to
    /// the excluded member rather than failing if it is the only healthy one.
    pub fn checkout_healthy_excluding(&self, exclude: Option<usize>) -> Option<PoolGuard<'_, T>> {
        let now = self.clock.now_ms();
        let mut state = self.state.lock();
        // Open circuits past cooldown become half-open (probe admissible)
        // before selection, for every member, so availability is uniform.
        for m in &mut state.members {
            if let Circuit::Open { since_ms } = m.circuit {
                if now.saturating_sub(since_ms) >= self.health.cooldown_ms {
                    m.circuit = Circuit::HalfOpen { probing: false };
                }
            }
        }
        let available = |m: &MemberState| {
            matches!(m.circuit, Circuit::Closed | Circuit::HalfOpen { probing: false })
        };
        let idx = self
            .select(&mut state, |(i, m)| available(m) && Some(i) != exclude)
            .or_else(|| self.select(&mut state, |(_, m)| available(m)))?;
        let probe = matches!(state.members[idx].circuit, Circuit::HalfOpen { probing: false });
        if probe {
            state.members[idx].circuit = Circuit::HalfOpen { probing: true };
        }
        Some(self.admit(&mut state, idx, probe))
    }

    /// Records the result of a checked-out request for circuit accounting.
    ///
    /// `success` should be true whenever the *member* did its job — including
    /// application-level errors like an unknown function — and false only for
    /// transport-class failures that indicate the member itself is unhealthy.
    pub fn report_outcome(&self, guard: &PoolGuard<'_, T>, success: bool) {
        let mut state = self.state.lock();
        guard.reported.set(true);
        let m = &mut state.members[guard.idx];
        if success {
            m.consecutive_failures = 0;
            m.circuit = Circuit::Closed;
        } else {
            m.consecutive_failures += 1;
            let trip = matches!(m.circuit, Circuit::HalfOpen { .. })
                || m.consecutive_failures >= self.health.failure_threshold;
            if trip {
                let was_open = matches!(m.circuit, Circuit::Open { .. });
                m.circuit = Circuit::Open { since_ms: self.clock.now_ms() };
                if !was_open {
                    self.metrics.circuit_opened.inc();
                }
            }
        }
    }

    /// Requests completed per member (counted when the guard drops).
    pub fn served_counts(&self) -> Vec<u64> {
        self.state.lock().members.iter().map(|m| m.served).collect()
    }

    /// Requests currently in flight per member.
    pub fn inflight_counts(&self) -> Vec<u64> {
        self.state.lock().members.iter().map(|m| m.inflight).collect()
    }

    /// Circuit state per member.
    pub fn circuit_states(&self) -> Vec<CircuitState> {
        self.state
            .lock()
            .members
            .iter()
            .map(|m| match m.circuit {
                Circuit::Closed => CircuitState::Closed,
                Circuit::Open { .. } => CircuitState::Open,
                Circuit::HalfOpen { .. } => CircuitState::HalfOpen,
            })
            .collect()
    }

    /// Applies the balance policy over members passing `eligible`, without
    /// mutating anything but the round-robin cursor.
    fn select(
        &self,
        state: &mut PoolState,
        eligible: impl Fn((usize, &MemberState)) -> bool,
    ) -> Option<usize> {
        let n = self.entries.len();
        match self.policy {
            BalancePolicy::RoundRobin => {
                for step in 0..n {
                    let i = (state.cursor + step) % n;
                    if eligible((i, &state.members[i])) {
                        state.cursor = i + 1;
                        return Some(i);
                    }
                }
                None
            }
            BalancePolicy::LeastLoaded => state
                .members
                .iter()
                .enumerate()
                .filter(|(i, m)| eligible((*i, m)))
                .min_by_key(|(_, m)| m.inflight)
                .map(|(i, _)| i),
        }
    }

    /// Marks `idx` in flight and builds its guard. Must run under the same
    /// lock acquisition as selection — that is the race fix.
    fn admit<'a>(&'a self, state: &mut PoolState, idx: usize, probe: bool) -> PoolGuard<'a, T> {
        state.members[idx].inflight += 1;
        self.metrics.checkouts.inc();
        if probe {
            self.metrics.probes.inc();
        }
        PoolGuard { pool: self, idx, probe, reported: std::cell::Cell::new(false) }
    }
}

/// Checkout guard: dereferences to the member; on drop releases the
/// in-flight count and counts the request as served (completion-time
/// accounting, so `served_counts` means "finished", not "started").
pub struct PoolGuard<'a, T> {
    pool: &'a TeePool<T>,
    idx: usize,
    probe: bool,
    reported: std::cell::Cell<bool>,
}

impl<T> PoolGuard<'_, T> {
    /// The selected member.
    pub fn member(&self) -> &T {
        &self.pool.entries[self.idx]
    }

    /// The selected member's index within the pool.
    pub fn index(&self) -> usize {
        self.idx
    }

    /// Whether this checkout is a half-open circuit probe.
    pub fn is_probe(&self) -> bool {
        self.probe
    }
}

impl<T> Drop for PoolGuard<'_, T> {
    fn drop(&mut self) {
        let mut state = self.pool.state.lock();
        let m = &mut state.members[self.idx];
        m.inflight -= 1;
        m.served += 1;
        self.pool.metrics.served.inc();
        // A probe abandoned without a verdict frees the probe slot so the
        // next healthy checkout can try again.
        if self.probe && !self.reported.get() {
            if let Circuit::HalfOpen { probing: true } = m.circuit {
                m.circuit = Circuit::HalfOpen { probing: false };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_pool(n: usize) -> (TeePool<usize>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let pool = TeePool::with_health(
            (0..n).collect(),
            BalancePolicy::RoundRobin,
            HealthPolicy { failure_threshold: 2, cooldown_ms: 100 },
            Arc::clone(&clock) as Arc<dyn Clock>,
            &MetricsRegistry::new(),
            "",
        );
        (pool, clock)
    }

    #[test]
    fn round_robin_rotates_evenly() {
        let pool = TeePool::new(vec![0, 1, 2], BalancePolicy::RoundRobin);
        for _ in 0..9 {
            let _ = pool.checkout();
        }
        assert_eq!(pool.served_counts(), vec![3, 3, 3]);
    }

    #[test]
    fn least_loaded_prefers_idle_member() {
        let pool = TeePool::new(vec!["a", "b"], BalancePolicy::LeastLoaded);
        let busy = pool.checkout(); // "a" now has 1 in flight
        let next = pool.checkout();
        assert_eq!(*next.member(), "b");
        drop(next);
        drop(busy);
        // Everything idle again: first member wins ties.
        let after = pool.checkout();
        assert_eq!(*after.member(), "a");
    }

    #[test]
    fn guard_drop_releases_load_and_counts_completion() {
        let pool = TeePool::new(vec!["only"], BalancePolicy::LeastLoaded);
        {
            let _g1 = pool.checkout();
            let _g2 = pool.checkout();
            // Nothing finished yet: served counts completions, not checkouts.
            assert_eq!(pool.served_counts(), vec![0]);
            assert_eq!(pool.inflight_counts(), vec![2]);
        }
        assert_eq!(pool.served_counts(), vec![2]);
        let g = pool.checkout();
        assert_eq!(*g.member(), "only");
        assert_eq!(pool.inflight_counts(), vec![1]);
        drop(g);
        assert_eq!(pool.served_counts(), vec![3]);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_pool_rejected() {
        let _: TeePool<u8> = TeePool::new(vec![], BalancePolicy::RoundRobin);
    }

    #[test]
    fn pool_is_sync_for_concurrent_checkout() {
        let pool = std::sync::Arc::new(TeePool::new(vec![0, 1, 2, 3], BalancePolicy::RoundRobin));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = std::sync::Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let _ = pool.checkout();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.served_counts().iter().sum::<u64>(), 400);
    }

    #[test]
    fn least_loaded_never_double_picks_under_contention() {
        // With selection and admission under one lock, two concurrent
        // checkouts from an idle 2-member pool must land on different
        // members. Run many rounds to make a regression (select-then-
        // increment race) extremely likely to surface.
        let pool = TeePool::new(vec![0usize, 1], BalancePolicy::LeastLoaded);
        for _ in 0..200 {
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            let g = pool.checkout();
                            let picked = *g.member();
                            // Hold the guard until both threads have picked,
                            // so both checkouts overlap.
                            barrier.wait();
                            picked
                        })
                    })
                    .collect();
                let mut picked: Vec<usize> =
                    handles.into_iter().map(|h| h.join().unwrap()).collect();
                picked.sort_unstable();
                assert_eq!(picked, vec![0, 1], "least-loaded double-picked a member");
            });
        }
    }

    #[test]
    fn failures_trip_circuit_and_checkouts_skip_it() {
        let (pool, _clock) = manual_pool(2);
        for _ in 0..2 {
            let g = pool.checkout_healthy().unwrap();
            if g.index() == 0 {
                pool.report_outcome(&g, false);
            } else {
                pool.report_outcome(&g, true);
            }
        }
        // Member 0 saw only one failure so far (round robin alternates);
        // drive it to the threshold.
        while pool.circuit_states()[0] == CircuitState::Closed {
            let g = pool.checkout_healthy_excluding(Some(1)).unwrap();
            assert_eq!(g.index(), 0);
            pool.report_outcome(&g, false);
        }
        assert_eq!(pool.circuit_states()[0], CircuitState::Open);
        for _ in 0..4 {
            let g = pool.checkout_healthy().unwrap();
            assert_eq!(g.index(), 1, "open circuit must be skipped");
            pool.report_outcome(&g, true);
        }
    }

    #[test]
    fn open_circuit_admits_single_probe_after_cooldown() {
        let (pool, clock) = manual_pool(1);
        for _ in 0..2 {
            let g = pool.checkout_healthy().unwrap();
            pool.report_outcome(&g, false);
        }
        assert_eq!(pool.circuit_states(), vec![CircuitState::Open]);
        assert!(pool.checkout_healthy().is_none(), "open circuit, no cooldown yet");

        clock.advance(100);
        let probe = pool.checkout_healthy().expect("cooldown elapsed: probe admitted");
        assert!(probe.is_probe());
        // Only one probe at a time.
        assert!(pool.checkout_healthy().is_none());
        pool.report_outcome(&probe, true);
        drop(probe);
        assert_eq!(pool.circuit_states(), vec![CircuitState::Closed]);
        assert!(pool.checkout_healthy().is_some());
    }

    #[test]
    fn failed_probe_reopens_circuit() {
        let (pool, clock) = manual_pool(1);
        for _ in 0..2 {
            let g = pool.checkout_healthy().unwrap();
            pool.report_outcome(&g, false);
        }
        clock.advance(100);
        let probe = pool.checkout_healthy().unwrap();
        pool.report_outcome(&probe, false);
        drop(probe);
        assert_eq!(pool.circuit_states(), vec![CircuitState::Open]);
        assert!(pool.checkout_healthy().is_none(), "failed probe restarts cooldown");
        clock.advance(100);
        assert!(pool.checkout_healthy().is_some());
    }

    #[test]
    fn abandoned_probe_frees_the_slot() {
        let (pool, clock) = manual_pool(1);
        for _ in 0..2 {
            let g = pool.checkout_healthy().unwrap();
            pool.report_outcome(&g, false);
        }
        clock.advance(100);
        let probe = pool.checkout_healthy().unwrap();
        drop(probe); // no verdict reported
        let retry = pool.checkout_healthy().expect("slot freed for the next probe");
        assert!(retry.is_probe());
    }

    #[test]
    fn excluding_prefers_other_members_but_falls_back() {
        let (pool, _clock) = manual_pool(2);
        let g = pool.checkout_healthy_excluding(Some(0)).unwrap();
        assert_eq!(g.index(), 1);
        drop(g);
        // Trip member 1; excluding member 0 must still fall back to it.
        for _ in 0..2 {
            let g = pool.checkout_healthy_excluding(Some(0)).unwrap();
            pool.report_outcome(&g, false);
        }
        assert_eq!(pool.circuit_states()[1], CircuitState::Open);
        let g = pool.checkout_healthy_excluding(Some(0)).unwrap();
        assert_eq!(g.index(), 0, "excluded member is better than none");
    }

    #[test]
    fn metrics_track_checkouts_served_and_circuit_trips() {
        let registry = MetricsRegistry::new();
        let clock = Arc::new(ManualClock::new());
        let pool = TeePool::with_health(
            vec![0usize],
            BalancePolicy::RoundRobin,
            HealthPolicy { failure_threshold: 2, cooldown_ms: 100 },
            Arc::clone(&clock) as Arc<dyn Clock>,
            &registry,
            "tdx",
        );

        for _ in 0..2 {
            let g = pool.checkout_healthy().unwrap();
            pool.report_outcome(&g, false);
        }
        assert_eq!(registry.counter_value("pool_checkouts_total{platform=\"tdx\"}"), Some(2));
        assert_eq!(
            registry.counter_value("pool_served_total{platform=\"tdx\"}"),
            Some(pool.served_counts().iter().sum()),
        );
        assert_eq!(registry.counter_value("pool_circuit_opened_total{platform=\"tdx\"}"), Some(1));

        // Cooldown elapses: the probe is counted, and its failure re-opens
        // the circuit (a second open transition).
        clock.advance(100);
        let probe = pool.checkout_healthy().unwrap();
        pool.report_outcome(&probe, false);
        drop(probe);
        assert_eq!(registry.counter_value("pool_probes_total{platform=\"tdx\"}"), Some(1));
        assert_eq!(registry.counter_value("pool_circuit_opened_total{platform=\"tdx\"}"), Some(2));
    }

    #[test]
    fn success_resets_failure_streak() {
        let (pool, _clock) = manual_pool(1);
        let g = pool.checkout_healthy().unwrap();
        pool.report_outcome(&g, false);
        drop(g);
        let g = pool.checkout_healthy().unwrap();
        pool.report_outcome(&g, true);
        drop(g);
        // The earlier failure no longer counts toward the threshold.
        let g = pool.checkout_healthy().unwrap();
        pool.report_outcome(&g, false);
        drop(g);
        assert_eq!(pool.circuit_states(), vec![CircuitState::Closed]);
    }
}
