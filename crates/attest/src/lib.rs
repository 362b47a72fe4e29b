//! Remote-attestation flows for TDX and SEV-SNP (paper §IV-C, Fig. 5).
//!
//! The paper measures the *user-perceived wall-clock latency* of two phases:
//!
//! * **attest** — producing the evidence inside the confidential VM (a TD
//!   quote via DCAP on TDX; an AMD-SP report via `snpguest` on SNP);
//! * **check** — verifying the evidence at the relying party.
//!
//! The two technologies differ structurally, and that structure is the whole
//! result: TDX verification (as implemented by `go-tdx-guest`) fetches TCB
//! info and certificate revocation lists from the **Intel PCS over the
//! network**, while SNP verification uses the VCEK certificate chain already
//! available **from the local hardware/host** — so SNP is faster in both
//! phases. This crate reproduces both pipelines over the simulated machinery
//! in `confbench-vmm`, with an explicit [`NetworkModel`] for the PCS round
//! trips.
//!
//! # Example
//!
//! ```
//! use confbench_attest::{SnpEcosystem, TdxEcosystem};
//! use confbench_types::{TeePlatform, VmTarget};
//! use confbench_vmm::TeeVmBuilder;
//!
//! let mut td = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).try_build().unwrap();
//! let eco = TdxEcosystem::new(1);
//! let (quote, attest) = eco.generate_quote(&mut td, [1u8; 64]).unwrap();
//! let check = eco.verify_quote(&quote, [1u8; 64]).unwrap();
//! assert!(check.latency_ms > attest.latency_ms, "PCS round trips dominate");
//!
//! let mut snp = TeeVmBuilder::new(VmTarget::secure(TeePlatform::SevSnp)).try_build().unwrap();
//! let eco = SnpEcosystem::new(2);
//! let (report, attest) = eco.request_report(&mut snp, [1u8; 64]).unwrap();
//! let check = eco.verify_report(&report, [1u8; 64]).unwrap();
//! assert!(attest.latency_ms < 50.0 && check.latency_ms < 100.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod error;
mod evtpm;
mod network;
mod session;
mod snp_flow;
mod tdx_flow;
mod verifier;
pub mod wire;

pub use device::{DeviceEvidence, DevicePolicy, DeviceVerifier};
pub use error::AttestError;
pub use evtpm::{extend_runtime, quote_runtime, RuntimeMeasurements};
pub use network::NetworkModel;
pub use session::{
    AttestSession, CollateralRefresher, SessionCache, SessionCacheStats, SessionConfig,
    SessionOutcome, SessionSource, SessionState,
};
pub use snp_flow::{SnpEcosystem, VcekChain};
pub use tdx_flow::{PcsService, TdQuote, TdxEcosystem};
pub use verifier::{Evidence, EvidenceBody, TcbIdentity, Verifier};

/// Timing of one attestation phase, in milliseconds of user-perceived
/// latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTiming {
    /// Total wall-clock latency of the phase.
    pub latency_ms: f64,
    /// Portion spent in network round trips (0 for local flows).
    pub network_ms: f64,
    /// Portion spent in cryptographic work and firmware calls.
    pub compute_ms: f64,
}

impl PhaseTiming {
    pub(crate) fn local(compute_ms: f64) -> Self {
        PhaseTiming { latency_ms: compute_ms, network_ms: 0.0, compute_ms }
    }

    pub(crate) fn with_network(compute_ms: f64, network_ms: f64) -> Self {
        PhaseTiming { latency_ms: compute_ms + network_ms, network_ms, compute_ms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_types::{TeePlatform, VmTarget};
    use confbench_vmm::TeeVmBuilder;

    #[test]
    fn fig5_shape_snp_faster_in_both_phases() {
        let mut td =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(5).try_build().unwrap();
        let tdx = TdxEcosystem::new(5);
        let (quote, tdx_attest) = tdx.generate_quote(&mut td, [9; 64]).unwrap();
        let tdx_check = tdx.verify_quote(&quote, [9; 64]).unwrap();

        let mut guest =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::SevSnp)).seed(5).try_build().unwrap();
        let snp = SnpEcosystem::new(5);
        let (report, snp_attest) = snp.request_report(&mut guest, [9; 64]).unwrap();
        let snp_check = snp.verify_report(&report, [9; 64]).unwrap();

        assert!(
            snp_attest.latency_ms < tdx_attest.latency_ms,
            "snp attest {} vs tdx {}",
            snp_attest.latency_ms,
            tdx_attest.latency_ms
        );
        assert!(
            snp_check.latency_ms < tdx_check.latency_ms / 5.0,
            "snp check {} vs tdx {}",
            snp_check.latency_ms,
            tdx_check.latency_ms
        );
        // TDX verification is network-dominated.
        assert!(tdx_check.network_ms > tdx_check.compute_ms);
        assert_eq!(snp_check.network_ms, 0.0);
    }

    #[test]
    fn attestation_unavailable_on_normal_vms() {
        let mut vm = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Tdx)).try_build().unwrap();
        assert!(TdxEcosystem::new(1).generate_quote(&mut vm, [0; 64]).is_err());
        let mut vm = TeeVmBuilder::new(VmTarget::normal(TeePlatform::SevSnp)).try_build().unwrap();
        assert!(SnpEcosystem::new(1).request_report(&mut vm, [0; 64]).is_err());
    }
}
