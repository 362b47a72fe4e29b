//! Deterministic fault injection for [`Server`](crate::Server).
//!
//! Resilience features (retry, failover, circuit breakers) need repeatable
//! failures to be testable. A [`FaultInjector`] counts incoming requests and
//! fires configured [`Fault`]s when a [`Trigger`] matches the request's
//! ordinal — no randomness, so a test that injects "drop connection on
//! requests 1–3" observes the same behaviour on every run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What to do to a matched request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Close the connection without writing a response.
    DropConnection,
    /// Sleep before handling the request normally.
    Delay(Duration),
    /// Skip the handler and answer with this HTTP status.
    Status(u16),
    /// Answer normally — advertising keep-alive — then close the connection
    /// anyway. Simulates a server dying mid-keep-alive: the client's pooled
    /// socket goes stale and its next send hits EOF, exercising the
    /// retry-once-on-stale-socket path.
    CloseAfterResponse,
}

/// Which requests a rule applies to. Request ordinals are 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Exactly the `n`th request.
    Nth(u64),
    /// The first `n` requests.
    FirstN(u64),
    /// Every `n`th request (`n`, `2n`, `3n`, …).
    EveryNth(u64),
    /// Every request.
    Always,
}

impl Trigger {
    fn matches(self, ordinal: u64) -> bool {
        match self {
            Trigger::Nth(n) => ordinal == n,
            Trigger::FirstN(n) => ordinal <= n,
            // `ordinal` is never 0, so `is_multiple_of(0)` is false: a zero
            // period never fires.
            Trigger::EveryNth(n) => ordinal.is_multiple_of(n),
            Trigger::Always => true,
        }
    }
}

/// A counter plus rule list deciding the fate of each incoming request.
///
/// Attach one with [`ServerBuilder::faults`](crate::ServerBuilder::faults).
/// The first matching rule wins.
///
/// # Example
///
/// ```
/// use confbench_httpd::{Fault, FaultInjector, Trigger};
///
/// let faults = FaultInjector::new()
///     .rule(Trigger::FirstN(2), Fault::DropConnection)
///     .rule(Trigger::Nth(3), Fault::Status(500));
/// assert_eq!(faults.decide(), Some(Fault::DropConnection)); // request 1
/// assert_eq!(faults.decide(), Some(Fault::DropConnection)); // request 2
/// assert_eq!(faults.decide(), Some(Fault::Status(500)));    // request 3
/// assert_eq!(faults.decide(), None);                        // request 4
/// ```
#[derive(Debug, Default)]
pub struct FaultInjector {
    rules: Vec<(Trigger, Fault)>,
    seen: AtomicU64,
}

impl FaultInjector {
    /// An injector with no rules (all requests pass through).
    pub fn new() -> Self {
        FaultInjector::default()
    }

    /// Adds a rule, builder-style.
    pub fn rule(mut self, trigger: Trigger, fault: Fault) -> Self {
        self.rules.push((trigger, fault));
        self
    }

    /// Counts one request and returns the fault to apply, if any.
    pub fn decide(&self) -> Option<Fault> {
        let ordinal = self.seen.fetch_add(1, Ordering::SeqCst) + 1;
        self.rules.iter().find(|(t, _)| t.matches(ordinal)).map(|(_, f)| *f)
    }

    /// Requests counted so far.
    pub fn requests_seen(&self) -> u64 {
        self.seen.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_injector_passes_everything() {
        let f = FaultInjector::new();
        for _ in 0..5 {
            assert_eq!(f.decide(), None);
        }
        assert_eq!(f.requests_seen(), 5);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let f = FaultInjector::new().rule(Trigger::Nth(2), Fault::Status(500));
        assert_eq!(f.decide(), None);
        assert_eq!(f.decide(), Some(Fault::Status(500)));
        assert_eq!(f.decide(), None);
    }

    #[test]
    fn every_nth_recurs() {
        let f = FaultInjector::new().rule(Trigger::EveryNth(3), Fault::DropConnection);
        let hits: Vec<bool> = (0..9).map(|_| f.decide().is_some()).collect();
        assert_eq!(hits, vec![false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn first_matching_rule_wins() {
        let f = FaultInjector::new()
            .rule(Trigger::Always, Fault::Delay(Duration::from_millis(1)))
            .rule(Trigger::Nth(1), Fault::DropConnection);
        assert_eq!(f.decide(), Some(Fault::Delay(Duration::from_millis(1))));
    }

    #[test]
    fn every_nth_zero_never_fires() {
        let f = FaultInjector::new().rule(Trigger::EveryNth(0), Fault::DropConnection);
        assert_eq!(f.decide(), None);
    }
}
