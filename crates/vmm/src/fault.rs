//! Deterministic, seeded TEE fault injection.
//!
//! A [`TeeFaultPlan`] is a chaos schedule for the simulated TEE substrate:
//! every time a VM (or the supervisor above it) crosses one of the
//! mechanism boundaries in [`TeeMechanism`] it *rolls* against the plan,
//! and the plan — driven by its own SplitMix64 stream, separate from the
//! VM's jitter stream — decides whether that crossing fails and how badly
//! ([`FaultClass::Transient`] vs [`FaultClass::Fatal`]).
//!
//! Keeping the fault stream separate from the timing streams is what makes
//! chaos campaigns reproducible *and* comparable: a run that survives its
//! faults (after retries and rebuilds) produces bit-identical measurements
//! to a fault-free run, because successful executions never consume plan
//! entropy for timing.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use confbench_crypto::SplitMix64;
use confbench_types::{Error, FaultClass, TeeMechanism, TeePlatform};
use parking_lot::Mutex;

/// One injected (or observed) TEE-substrate fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeeFault {
    /// Platform whose substrate faulted.
    pub platform: TeePlatform,
    /// The mechanism that failed.
    pub mechanism: TeeMechanism,
    /// Retryable in place, or VM-fatal.
    pub class: FaultClass,
}

impl TeeFault {
    /// A fatal fault (used when a real mechanism state machine errors,
    /// which in this model means the TEE context is wedged).
    pub fn fatal(platform: TeePlatform, mechanism: TeeMechanism) -> Self {
        TeeFault { platform, mechanism, class: FaultClass::Fatal }
    }

    /// Whether retrying the same operation may succeed.
    pub fn is_transient(&self) -> bool {
        self.class == FaultClass::Transient
    }
}

impl fmt::Display for TeeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} failure on {}", self.class, self.mechanism, self.platform)
    }
}

impl std::error::Error for TeeFault {}

impl From<TeeFault> for Error {
    fn from(fault: TeeFault) -> Error {
        Error::TeeFault { platform: fault.platform, mechanism: fault.mechanism, class: fault.class }
    }
}

/// A seeded, per-mechanism fault schedule shared by every VM under one
/// chaos campaign.
///
/// The plan is `Send + Sync` (the draw stream sits behind a mutex) so one
/// `Arc<TeeFaultPlan>` can feed all of a gateway's hosts; fault draws are
/// then globally ordered by the lock, and a campaign replayed with the same
/// seed, rate, and request schedule injects the same faults.
///
/// # Example
///
/// ```
/// use confbench_types::{TeeMechanism, TeePlatform};
/// use confbench_vmm::TeeFaultPlan;
///
/// let plan = TeeFaultPlan::new(7, 1.0); // every roll faults
/// let fault = plan.roll(TeePlatform::Tdx, TeeMechanism::Seamcall).unwrap();
/// assert_eq!(fault.mechanism, TeeMechanism::Seamcall);
/// assert_eq!(TeeFaultPlan::new(7, 0.0).injected(), 0);
/// ```
#[derive(Debug)]
pub struct TeeFaultPlan {
    seed: u64,
    /// Per-mechanism fault probability, indexed like [`TeeMechanism::ALL`].
    rates: [f64; TeeMechanism::ALL.len()],
    /// Probability that an injected fault is fatal (vs transient).
    fatal_ratio: f64,
    rng: Mutex<SplitMix64>,
    injected: AtomicU64,
    fatal_injected: AtomicU64,
}

/// Default share of injected faults classified fatal. Transient faults
/// should dominate (SP-busy style) so retry paths get most of the traffic,
/// with enough fatals to exercise rebuild + quarantine.
const DEFAULT_FATAL_RATIO: f64 = 0.2;

impl TeeFaultPlan {
    /// A plan injecting faults at `rate` (probability per mechanism
    /// crossing, clamped to `[0, 1]`) on every mechanism, with the default
    /// 20% of faults classified fatal.
    pub fn new(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        TeeFaultPlan {
            seed,
            rates: [rate; TeeMechanism::ALL.len()],
            fatal_ratio: DEFAULT_FATAL_RATIO,
            rng: Mutex::new(SplitMix64::new(seed ^ 0x63_6861_6f73)), // "chaos"
            injected: AtomicU64::new(0),
            fatal_injected: AtomicU64::new(0),
        }
    }

    /// Overrides the fault probability of one mechanism (a per-mechanism
    /// fault point: e.g. only AMD-SP requests fail, everything else clean).
    pub fn with_rate(mut self, mechanism: TeeMechanism, rate: f64) -> Self {
        self.rates[Self::index(mechanism)] = rate.clamp(0.0, 1.0);
        self
    }

    /// Overrides the fatal share of injected faults (`0.0` = all transient,
    /// `1.0` = all fatal).
    pub fn with_fatal_ratio(mut self, ratio: f64) -> Self {
        self.fatal_ratio = ratio.clamp(0.0, 1.0);
        self
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rolls one fault point: `None` means the crossing succeeds. The draw
    /// advances the plan's (not the VM's) random stream; a mechanism with
    /// rate `0` never draws, so disarmed mechanisms do not perturb the
    /// schedule of armed ones.
    pub fn roll(&self, platform: TeePlatform, mechanism: TeeMechanism) -> Option<TeeFault> {
        let rate = self.rates[Self::index(mechanism)];
        if rate <= 0.0 {
            return None;
        }
        let mut rng = self.rng.lock();
        if rng.next_f64() >= rate {
            return None;
        }
        let class = if rng.next_f64() < self.fatal_ratio {
            FaultClass::Fatal
        } else {
            FaultClass::Transient
        };
        drop(rng);
        self.injected.fetch_add(1, Ordering::Relaxed);
        if class == FaultClass::Fatal {
            self.fatal_injected.fetch_add(1, Ordering::Relaxed);
        }
        Some(TeeFault { platform, mechanism, class })
    }

    /// Total faults injected so far (all classes).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Fatal faults injected so far.
    pub fn fatal_injected(&self) -> u64 {
        self.fatal_injected.load(Ordering::Relaxed)
    }

    fn index(mechanism: TeeMechanism) -> usize {
        TeeMechanism::ALL
            .iter()
            .position(|m| *m == mechanism)
            .expect("TeeMechanism::ALL is exhaustive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_faults_and_never_draws() {
        let plan = TeeFaultPlan::new(1, 0.0);
        for m in TeeMechanism::ALL {
            assert!(plan.roll(TeePlatform::Tdx, m).is_none());
        }
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn full_rate_always_faults() {
        let plan = TeeFaultPlan::new(1, 1.0);
        for _ in 0..32 {
            assert!(plan.roll(TeePlatform::Cca, TeeMechanism::RmmCommand).is_some());
        }
        assert_eq!(plan.injected(), 32);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let draws = |seed| {
            let plan = TeeFaultPlan::new(seed, 0.3);
            (0..200)
                .map(|_| plan.roll(TeePlatform::SevSnp, TeeMechanism::GhcbExit))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn per_mechanism_rate_overrides_apply() {
        let plan = TeeFaultPlan::new(3, 1.0).with_rate(TeeMechanism::Seamcall, 0.0);
        assert!(plan.roll(TeePlatform::Tdx, TeeMechanism::Seamcall).is_none());
        assert!(plan.roll(TeePlatform::Tdx, TeeMechanism::SeptAccept).is_some());
    }

    #[test]
    fn fatal_ratio_bounds_classification() {
        let all_fatal = TeeFaultPlan::new(5, 1.0).with_fatal_ratio(1.0);
        let all_transient = TeeFaultPlan::new(5, 1.0).with_fatal_ratio(0.0);
        for _ in 0..16 {
            let f = all_fatal.roll(TeePlatform::Tdx, TeeMechanism::SeptAccept).unwrap();
            assert_eq!(f.class, FaultClass::Fatal);
            let t = all_transient.roll(TeePlatform::Tdx, TeeMechanism::SeptAccept).unwrap();
            assert_eq!(t.class, FaultClass::Transient);
            assert!(t.is_transient());
        }
        assert_eq!(all_fatal.fatal_injected(), 16);
        assert_eq!(all_transient.fatal_injected(), 0);
    }

    #[test]
    fn faults_convert_to_workspace_errors() {
        let fault = TeeFault::fatal(TeePlatform::Tdx, TeeMechanism::Seamcall);
        let err: Error = fault.into();
        assert_eq!(err.rest_status(), 503);
        assert!(!err.is_transient());
        assert!(err.indicts_member());
    }
}
