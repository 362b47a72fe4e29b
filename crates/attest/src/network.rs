//! Deterministic WAN latency model for attestation services.

use confbench_crypto::SplitMix64;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Latency model for requests to a remote service (the Intel PCS).
///
/// Each request costs one round trip plus transfer time, with deterministic
/// seeded jitter. The model is intentionally simple: the paper's Fig. 5
/// asymmetry only requires that network requests cost orders of magnitude
/// more than local firmware calls.
///
/// The jitter stream lives behind a `Mutex` (not a `RefCell`) so one model
/// — and hence one verifier ecosystem — can be shared across gateway worker
/// threads; concurrent callers interleave draws from a single deterministic
/// stream.
#[derive(Debug)]
pub struct NetworkModel {
    rtt_ms: f64,
    mbits_per_s: f64,
    jitter_rel_std: f64,
    /// Probability that one request fails outright (timeout/reset), stored
    /// as `f64` bits so flakiness can be re-armed through a shared
    /// reference. Drawn from the same seeded stream, so outages are
    /// reproducible.
    fail_rate_bits: AtomicU64,
    rng: Mutex<SplitMix64>,
}

impl NetworkModel {
    /// A WAN path to a public service: 38 ms RTT, 200 Mbit/s, 15% jitter.
    pub fn wan(seed: u64) -> Self {
        NetworkModel {
            rtt_ms: 38.0,
            mbits_per_s: 200.0,
            jitter_rel_std: 0.15,
            fail_rate_bits: AtomicU64::new(0.0f64.to_bits()),
            rng: Mutex::new(SplitMix64::new(seed ^ 0x6e_6574_776f_726b)),
        }
    }

    /// A custom model.
    ///
    /// # Panics
    ///
    /// Panics unless `rtt_ms >= 0`, `mbits_per_s > 0`.
    pub fn new(rtt_ms: f64, mbits_per_s: f64, jitter_rel_std: f64, seed: u64) -> Self {
        assert!(rtt_ms >= 0.0 && mbits_per_s > 0.0, "invalid network parameters");
        NetworkModel {
            rtt_ms,
            mbits_per_s,
            jitter_rel_std,
            fail_rate_bits: AtomicU64::new(0.0f64.to_bits()),
            rng: Mutex::new(SplitMix64::new(seed)),
        }
    }

    /// Makes a fraction of requests fail (a flaky verification service;
    /// `1.0` models a full outage). Failure draws come after the latency
    /// draw, so a model with `fail_rate == 0` produces exactly the latency
    /// sequence it did before this knob existed.
    pub fn with_fail_rate(self, rate: f64) -> Self {
        self.set_fail_rate(rate);
        self
    }

    /// In-place variant of [`NetworkModel::with_fail_rate`]; takes `&self`
    /// so outages can be staged on a model already shared across threads.
    pub fn set_fail_rate(&self, rate: f64) {
        self.fail_rate_bits.store(rate.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
    }

    fn fail_rate(&self) -> f64 {
        f64::from_bits(self.fail_rate_bits.load(Ordering::Relaxed))
    }

    /// Latency in ms of one HTTPS request returning `response_bytes`
    /// (handshake amortized: 1.5 RTTs per request).
    pub fn request_ms(&self, response_bytes: u64) -> f64 {
        let transfer = response_bytes as f64 * 8.0 / (self.mbits_per_s * 1e3);
        let base = self.rtt_ms * 1.5 + transfer;
        let jitter = 1.0 + self.rng.lock().next_gaussian() * self.jitter_rel_std;
        base * jitter.clamp(0.6, 2.0)
    }

    /// Fallible request: `Ok(latency_ms)` on success, `Err(latency_ms)` on
    /// a transient failure — a failed request still burns its round trip
    /// (the client waited for the timeout/reset), so callers charge the
    /// returned latency either way. Never fails at `fail_rate == 0`.
    pub fn try_request_ms(&self, response_bytes: u64) -> Result<f64, f64> {
        let ms = self.request_ms(response_bytes);
        let rate = self.fail_rate();
        if rate > 0.0 && self.rng.lock().next_f64() < rate {
            return Err(ms);
        }
        Ok(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_cost_scales_with_size() {
        let net = NetworkModel::new(40.0, 100.0, 0.0, 1);
        let small = net.request_ms(1_000);
        let big = net.request_ms(10_000_000);
        assert!(big > small + 100.0, "10 MB at 100 Mbit/s adds ~800 ms: {small} vs {big}");
    }

    #[test]
    fn zero_jitter_is_exact() {
        let net = NetworkModel::new(40.0, 100.0, 0.0, 1);
        // 1.5 RTT = 60 ms, plus 0.08 ms transfer for 1 KB.
        let ms = net.request_ms(1_000);
        assert!((ms - 60.08).abs() < 1e-9, "{ms}");
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let a = NetworkModel::wan(7);
        let b = NetworkModel::wan(7);
        assert_eq!(a.request_ms(500), b.request_ms(500));
        let c = NetworkModel::wan(8);
        assert_ne!(a.request_ms(500), c.request_ms(500));
    }

    #[test]
    #[should_panic(expected = "invalid network parameters")]
    fn zero_bandwidth_panics() {
        NetworkModel::new(10.0, 0.0, 0.0, 1);
    }

    #[test]
    fn zero_fail_rate_never_fails_and_keeps_the_latency_sequence() {
        let plain = NetworkModel::wan(9);
        let fallible = NetworkModel::wan(9).with_fail_rate(0.0);
        for _ in 0..16 {
            let expected = plain.request_ms(2_000);
            assert_eq!(fallible.try_request_ms(2_000), Ok(expected));
        }
    }

    #[test]
    fn failures_are_deterministic_and_charge_latency() {
        let outcomes = |seed| {
            let net = NetworkModel::wan(seed).with_fail_rate(0.5);
            (0..64).map(|_| net.try_request_ms(1_000)).collect::<Vec<_>>()
        };
        let a = outcomes(3);
        assert_eq!(a, outcomes(3));
        assert!(a.iter().any(Result::is_err), "half the requests should fail");
        assert!(a.iter().any(Result::is_ok));
        for r in a {
            let ms = match r {
                Ok(ms) | Err(ms) => ms,
            };
            assert!(ms > 0.0, "even failed requests burn wall time");
        }
    }

    #[test]
    fn full_outage_fails_every_request() {
        let net = NetworkModel::wan(1).with_fail_rate(1.0);
        for _ in 0..8 {
            assert!(net.try_request_ms(100).is_err());
        }
    }
}
