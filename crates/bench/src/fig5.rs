//! Fig. 5 — Attestation: absolute wall-clock latencies of report/quote
//! creation ("attest") and validation ("check") for TDX and SEV-SNP, log
//! scale.
//!
//! Paper shape: both phases are faster on SEV-SNP; TDX's check phase is the
//! slowest by far because the DCAP verifier fetches TCB info and CRLs from
//! the Intel PCS over the network, while SNP's certificates come from the
//! local hardware.

use std::io::Write;
use std::sync::{Arc, Barrier};

use confbench_attest::{
    quote_runtime, Evidence, SessionCache, SessionConfig, SnpEcosystem, TdxEcosystem,
};
use confbench_stats::{boxplot, stacked_percentiles, Summary};
use confbench_types::{Clock, ManualClock, Result, TeePlatform, VmTarget};
use confbench_vmm::{TeeVmBuilder, Vm};

use crate::ExperimentConfig;

/// The four bars of Fig. 5.
#[derive(Debug, Clone)]
pub struct AttestationFigure {
    /// TDX quote generation latencies (ms).
    pub tdx_attest_ms: Vec<f64>,
    /// TDX quote verification latencies (ms).
    pub tdx_check_ms: Vec<f64>,
    /// SNP report generation latencies (ms).
    pub snp_attest_ms: Vec<f64>,
    /// SNP report verification latencies (ms).
    pub snp_check_ms: Vec<f64>,
}

impl AttestationFigure {
    /// Summaries in the figure's bar order: tdx-attest, tdx-check,
    /// snp-attest, snp-check.
    pub fn summaries(&self) -> [(&'static str, Summary); 4] {
        [
            ("tdx/attest", Summary::from_samples(&self.tdx_attest_ms)),
            ("tdx/check", Summary::from_samples(&self.tdx_check_ms)),
            ("snp/attest", Summary::from_samples(&self.snp_attest_ms)),
            ("snp/check", Summary::from_samples(&self.snp_check_ms)),
        ]
    }
}

/// A secure VM for `platform`. No fault plan is installed, so boot cannot
/// fail.
fn secure_vm(platform: TeePlatform, seed: u64) -> Vm {
    TeeVmBuilder::new(VmTarget::secure(platform)).seed(seed).try_build().expect("boot")
}

/// Runs `trials` full attestation flows per platform.
pub fn run(cfg: ExperimentConfig) -> AttestationFigure {
    let trials = cfg.trials();

    let mut td = secure_vm(TeePlatform::Tdx, cfg.seed);
    let tdx = TdxEcosystem::new(cfg.seed);
    let mut tdx_attest_ms = Vec::new();
    let mut tdx_check_ms = Vec::new();
    for i in 0..trials {
        let nonce = TdxEcosystem::report_data_for_nonce(cfg.seed ^ u64::from(i));
        let (quote, attest) = tdx.generate_quote(&mut td, nonce).expect("td quote");
        let check = tdx.verify_quote(&quote, nonce).expect("quote verifies");
        tdx_attest_ms.push(attest.latency_ms);
        tdx_check_ms.push(check.latency_ms);
    }

    let mut guest = secure_vm(TeePlatform::SevSnp, cfg.seed);
    let snp = SnpEcosystem::new(cfg.seed);
    let mut snp_attest_ms = Vec::new();
    let mut snp_check_ms = Vec::new();
    for i in 0..trials {
        let mut nonce = [0u8; 64];
        nonce[..8].copy_from_slice(&(cfg.seed ^ u64::from(i)).to_be_bytes());
        let (report, attest) = snp.request_report(&mut guest, nonce).expect("snp report");
        let check = snp.verify_report(&report, nonce).expect("report verifies");
        snp_attest_ms.push(attest.latency_ms);
        snp_check_ms.push(check.latency_ms);
    }

    AttestationFigure { tdx_attest_ms, tdx_check_ms, snp_attest_ms, snp_check_ms }
}

/// Threads racing the fresh session cache in the contended scenario.
pub const FLEET_CONTENDERS: usize = 32;

/// The fleet-amortized extension of Fig. 5: per-caller TDX verification
/// latency when a gateway fleet shares one attestation-session cache.
///
/// Three scenarios: `cold` (fresh cache, every verification pays the full
/// DCAP cycle against the live PCS), `warm` (a live session answers from
/// the cache — one lookup, zero network), and `contended` (32 callers rush
/// one fresh cache; single-flight funds one verification and every waiter
/// inherits its latency).
#[derive(Debug, Clone)]
pub struct FleetAmortizedFigure {
    /// Cold, uncached verification latencies (ms).
    pub cold_ms: Vec<f64>,
    /// Warm cache-hit latencies (ms).
    pub warm_ms: Vec<f64>,
    /// Per-caller latencies of the 32-way cold rush (ms).
    pub contended_ms: Vec<f64>,
}

impl FleetAmortizedFigure {
    /// Summaries in row order: cold, warm, contended.
    pub fn summaries(&self) -> [(&'static str, Summary); 3] {
        [
            ("tdx/cold", Summary::from_samples(&self.cold_ms)),
            ("tdx/warm-session", Summary::from_samples(&self.warm_ms)),
            ("tdx/32-way-rush", Summary::from_samples(&self.contended_ms)),
        ]
    }

    /// p99 latency of a scenario's samples.
    pub fn p99(samples: &[f64]) -> f64 {
        Summary::from_samples(samples).percentile(99.0)
    }
}

/// TDX evidence (quote + e-vTPM runtime snapshot) from a fresh fleet VM.
fn fleet_evidence(eco: &TdxEcosystem, seed: u64, nonce: u64) -> (Evidence, [u8; 64]) {
    let mut vm = secure_vm(TeePlatform::Tdx, seed);
    let data = TdxEcosystem::report_data_for_nonce(nonce);
    let (quote, _) = eco.generate_quote(&mut vm, data).expect("td quote");
    let runtime = quote_runtime(&vm).expect("runtime snapshot").0;
    (Evidence::tdx(quote).with_runtime(runtime), data)
}

/// Runs the fleet-amortized scenarios (the Fig. 5 "fleet" row).
pub fn fleet_amortized(cfg: ExperimentConfig) -> FleetAmortizedFigure {
    let trials = cfg.trials();

    // Cold: a fresh cache and ecosystem per trial, so every verification
    // pays quote crypto plus the three PCS round trips.
    let mut cold_ms = Vec::new();
    for i in 0..trials {
        let clock = Arc::new(ManualClock::new());
        let cache = SessionCache::new(clock as Arc<dyn Clock>, SessionConfig::default());
        let eco = TdxEcosystem::new(cfg.seed ^ u64::from(i));
        let (evidence, data) = fleet_evidence(&eco, cfg.seed, cfg.seed ^ u64::from(i));
        let outcome = cache.verify_or_join(&eco, &evidence, data).expect("cold verification");
        cold_ms.push(outcome.timing.latency_ms);
    }

    // Warm: one live session, every later caller hits the cache.
    let clock = Arc::new(ManualClock::new());
    let cache = SessionCache::new(clock as Arc<dyn Clock>, SessionConfig::default());
    let eco = TdxEcosystem::new(cfg.seed);
    let (evidence, data) = fleet_evidence(&eco, cfg.seed, cfg.seed);
    cache.verify_or_join(&eco, &evidence, data).expect("warm-up verification");
    let mut warm_ms = Vec::new();
    for _ in 0..trials {
        let outcome = cache.verify_or_join(&eco, &evidence, data).expect("warm hit");
        warm_ms.push(outcome.timing.latency_ms);
    }

    // Contended: 32 callers rush a fresh cache at once; single-flight
    // elects one verification and the rest inherit its latency.
    let cache = Arc::new(SessionCache::new(
        Arc::new(ManualClock::new()) as Arc<dyn Clock>,
        SessionConfig::default(),
    ));
    let eco = Arc::new(TdxEcosystem::new(cfg.seed ^ 0xf1ee));
    let (evidence, data) = fleet_evidence(&eco, cfg.seed, cfg.seed ^ 0xf1ee);
    let barrier = Arc::new(Barrier::new(FLEET_CONTENDERS));
    let contended_ms = (0..FLEET_CONTENDERS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let eco = Arc::clone(&eco);
            let evidence = evidence.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                cache.verify_or_join(eco.as_ref(), &evidence, data).expect("rush").timing.latency_ms
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().expect("contender"))
        .collect();
    assert_eq!(eco.collateral_fetches(), 1, "the rush must cost one PCS round trip");

    FleetAmortizedFigure { cold_ms, warm_ms, contended_ms }
}

/// Prints **Fig. 5** — absolute times for the creation ("attest") and
/// validation ("check") of attestation reports in TDX and SEV-SNP
/// (log-scale in the paper), then the fleet-amortized rows.
pub fn render(cfg: ExperimentConfig, out: &mut dyn Write) -> Result<()> {
    let owned = |summaries: &[(&str, Summary)]| -> Vec<(String, Summary)> {
        summaries.iter().map(|(label, s)| ((*label).to_owned(), s.clone())).collect()
    };
    writeln!(out, "=== Fig. 5: Attestation latencies (ms, plotted log-scale in the paper) ===\n")?;
    let entries = owned(&run(cfg).summaries());
    writeln!(out, "{}", stacked_percentiles(&entries))?;
    writeln!(out, "{}", boxplot(&entries, 64))?;
    writeln!(
        out,
        "paper shape: both phases faster on SEV-SNP; TDX 'check' dominates\n\
         because the DCAP verifier fetches TCB info and CRLs from the Intel\n\
         PCS over the network, while snpguest reads certificates locally.\n"
    )?;

    writeln!(out, "=== Fleet-amortized verification (attestation-session cache) ===\n")?;
    let fleet = fleet_amortized(cfg);
    writeln!(out, "{}", stacked_percentiles(&owned(&fleet.summaries())))?;
    let cold = FleetAmortizedFigure::p99(&fleet.cold_ms);
    let warm = FleetAmortizedFigure::p99(&fleet.warm_ms);
    let contended = FleetAmortizedFigure::p99(&fleet.contended_ms);
    writeln!(
        out,
        "p99: cold {cold:.3} ms, warm session {warm:.3} ms ({:.0}x lower), \
         32-way cold rush {contended:.3} ms per caller (one PCS trip total)",
        cold / warm
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mean;

    #[test]
    fn fig5_shape_matches_paper() {
        let fig = run(ExperimentConfig::quick(11));

        let tdx_attest = mean(&fig.tdx_attest_ms);
        let tdx_check = mean(&fig.tdx_check_ms);
        let snp_attest = mean(&fig.snp_attest_ms);
        let snp_check = mean(&fig.snp_check_ms);

        // Both phases faster on SNP.
        assert!(snp_attest < tdx_attest, "snp attest {snp_attest} vs tdx {tdx_attest}");
        assert!(snp_check < tdx_check, "snp check {snp_check} vs tdx {tdx_check}");
        // The TDX check is network-dominated: by far the largest bar
        // (log-scale-worthy gap).
        assert!(tdx_check > 5.0 * tdx_attest, "tdx check {tdx_check} vs attest {tdx_attest}");
        assert!(tdx_check > 10.0 * snp_check, "tdx check {tdx_check} vs snp check {snp_check}");
        // Absolute plausibility: tens of ms for local flows, >100 ms for
        // the PCS-bound check.
        assert!((1.0..200.0).contains(&snp_attest));
        assert!((1.0..200.0).contains(&snp_check));
        assert!(tdx_check > 100.0);
    }

    #[test]
    fn fleet_amortized_warm_p99_is_at_least_10x_below_cold() {
        let fig = fleet_amortized(ExperimentConfig::quick(11));
        let cold = FleetAmortizedFigure::p99(&fig.cold_ms);
        let warm = FleetAmortizedFigure::p99(&fig.warm_ms);
        let contended = FleetAmortizedFigure::p99(&fig.contended_ms);
        assert!(cold > 100.0, "cold p99 {cold} must be PCS-dominated");
        assert!(warm * 10.0 < cold, "warm p99 {warm} must be >=10x below cold {cold}");
        assert!(warm < 1.0, "cache hits are a lookup, not crypto: {warm}");
        assert!(
            contended < cold * 2.0,
            "32 contenders amortize one verification: p99 {contended} vs cold {cold}"
        );
        assert_eq!(fig.contended_ms.len(), FLEET_CONTENDERS);
    }

    #[test]
    fn trials_vary_with_network_jitter() {
        let fig = run(ExperimentConfig::quick(1));
        let s = Summary::from_samples(&fig.tdx_check_ms);
        assert!(s.stddev > 0.0, "WAN jitter must show in the check phase");
        let s = Summary::from_samples(&fig.snp_attest_ms);
        assert_eq!(s.stddev, 0.0, "local firmware latency is stable in the model");
    }
}
