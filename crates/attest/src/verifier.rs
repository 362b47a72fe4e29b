//! Platform-independent verification: [`Evidence`], [`TcbIdentity`], and
//! the [`Verifier`] trait the session cache drives.
//!
//! `TdxEcosystem` and `SnpEcosystem` keep their concrete flows; this module
//! is the seam that lets the gateway treat "verify this evidence" uniformly
//! — and lets the session cache key on *what was verified* (platform,
//! measurement, TCB level, runtime measurements) instead of on which code
//! path verified it.

use confbench_crypto::{Digest, Sha256};
use confbench_types::TeePlatform;
use confbench_vmm::SnpReport;

use confbench_devio::MeasurementReport;

use crate::device::DeviceEvidence;
use crate::error::AttestError;
use crate::evtpm::RuntimeMeasurements;
use crate::snp_flow::SnpEcosystem;
use crate::tdx_flow::{TdQuote, TdxEcosystem};
use crate::PhaseTiming;

/// Hardware evidence from one platform.
#[derive(Debug, Clone, PartialEq)]
pub enum EvidenceBody {
    /// A TDX quote (DCAP flow).
    Tdx(TdQuote),
    /// An SEV-SNP attestation report (VCEK flow).
    Snp(SnpReport),
    /// A TDISP device measurement report (SPDM flow), tagged with the host
    /// platform the device serves.
    Device(DeviceEvidence),
}

/// Evidence as presented to a verifier: the platform-signed body plus the
/// optional e-vTPM runtime-measurement snapshot taken alongside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Evidence {
    /// The hardware-signed evidence.
    pub body: EvidenceBody,
    /// Runtime measurements quoted from the guest's e-vTPM, when the
    /// scenario includes one.
    pub runtime: Option<RuntimeMeasurements>,
}

impl Evidence {
    /// Wraps a TDX quote.
    pub fn tdx(quote: TdQuote) -> Self {
        Evidence { body: EvidenceBody::Tdx(quote), runtime: None }
    }

    /// Wraps an SNP report.
    pub fn snp(report: SnpReport) -> Self {
        Evidence { body: EvidenceBody::Snp(report), runtime: None }
    }

    /// Wraps a device measurement report for a device serving `platform`
    /// VMs.
    pub fn device(platform: TeePlatform, report: MeasurementReport) -> Self {
        Evidence { body: EvidenceBody::Device(DeviceEvidence { platform, report }), runtime: None }
    }

    /// Attaches an e-vTPM runtime snapshot.
    pub fn with_runtime(mut self, runtime: RuntimeMeasurements) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// The platform that signed the body.
    pub fn platform(&self) -> TeePlatform {
        match &self.body {
            EvidenceBody::Tdx(_) => TeePlatform::Tdx,
            EvidenceBody::Snp(_) => TeePlatform::SevSnp,
            EvidenceBody::Device(d) => d.platform,
        }
    }

    /// The launch measurement (MRTD / SNP launch digest / device firmware
    /// digest).
    pub fn measurement(&self) -> Digest {
        match &self.body {
            EvidenceBody::Tdx(q) => q.report.mrtd,
            EvidenceBody::Snp(r) => r.measurement,
            EvidenceBody::Device(d) => Digest(d.report.fw_digest().unwrap_or([0; 32])),
        }
    }

    /// The numeric TCB level the evidence claims (firmware SVN for a
    /// device).
    pub fn tcb_level(&self) -> u64 {
        match &self.body {
            EvidenceBody::Tdx(q) => q.tcb_level,
            EvidenceBody::Snp(r) => r.tcb_version,
            EvidenceBody::Device(d) => d.report.fw_svn as u64,
        }
    }

    /// The folded runtime-measurement digest (all-zero without an e-vTPM
    /// snapshot, distinguishing "no runtime evidence" from any real bank).
    /// Device evidence folds its locked interface-config digest here — an
    /// interface re-lock is to a device what a runtime extend is to a CVM.
    pub fn runtime_digest(&self) -> Digest {
        if let EvidenceBody::Device(d) = &self.body {
            return Digest(d.report.interface_digest().unwrap_or([0; 32]));
        }
        self.runtime.as_ref().map(RuntimeMeasurements::digest).unwrap_or(ZERO_DIGEST)
    }

    /// The identity tuple sessions are keyed on.
    pub fn identity(&self) -> TcbIdentity {
        TcbIdentity {
            platform: self.platform(),
            measurement: self.measurement(),
            tcb_level: self.tcb_level(),
            runtime_digest: self.runtime_digest(),
        }
    }
}

const ZERO_DIGEST: Digest = Digest([0u8; 32]);

/// What a verified session attests to: the cache key of the session layer.
///
/// Deliberately excludes the nonce/report-data — freshness binds one
/// verification, identity binds the TCB. Every VM booted from the same
/// image on the same platform at the same TCB shares an identity, which is
/// exactly what lets a fleet amortize one verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TcbIdentity {
    /// Signing platform.
    pub platform: TeePlatform,
    /// Launch measurement.
    pub measurement: Digest,
    /// Claimed TCB level.
    pub tcb_level: u64,
    /// Folded e-vTPM bank digest (all-zero when absent).
    pub runtime_digest: Digest,
}

impl TcbIdentity {
    /// Collision-resistant fingerprint of the identity, for keying and for
    /// surfacing over REST.
    pub fn fingerprint(&self) -> Digest {
        let platform_tag: &[u8] = match self.platform {
            TeePlatform::Tdx => b"tdx",
            TeePlatform::SevSnp => b"sev-snp",
            TeePlatform::Cca => b"cca",
        };
        Sha256::digest_parts(&[
            b"tcb-identity:",
            platform_tag,
            self.measurement.as_bytes(),
            &self.tcb_level.to_be_bytes(),
            self.runtime_digest.as_bytes(),
        ])
    }
}

/// A relying party that can check [`Evidence`] of its platform.
///
/// Implementations verify through their *steady-state* path (cached
/// collateral when fresh), so a caller stack that keeps collateral
/// refreshed in the background never blocks the hot path on the PCS.
pub trait Verifier: Send + Sync {
    /// The platform whose evidence this verifier accepts.
    fn platform(&self) -> TeePlatform;

    /// Verifies `evidence` against `expected_report_data`, returning the
    /// phase timing on success.
    ///
    /// # Errors
    ///
    /// [`AttestError::WrongVmKind`] for evidence from another platform,
    /// plus the platform flow's signature/TCB/nonce/collateral failures.
    fn verify(
        &self,
        evidence: &Evidence,
        expected_report_data: [u8; 64],
    ) -> Result<PhaseTiming, AttestError>;
}

impl Verifier for TdxEcosystem {
    fn platform(&self) -> TeePlatform {
        TeePlatform::Tdx
    }

    fn verify(
        &self,
        evidence: &Evidence,
        expected_report_data: [u8; 64],
    ) -> Result<PhaseTiming, AttestError> {
        match &evidence.body {
            EvidenceBody::Tdx(quote) => self.verify_quote_offline(quote, expected_report_data),
            _ => Err(AttestError::WrongVmKind),
        }
    }
}

impl Verifier for SnpEcosystem {
    fn platform(&self) -> TeePlatform {
        TeePlatform::SevSnp
    }

    fn verify(
        &self,
        evidence: &Evidence,
        expected_report_data: [u8; 64],
    ) -> Result<PhaseTiming, AttestError> {
        match &evidence.body {
            EvidenceBody::Snp(report) => self.verify_report(report, expected_report_data),
            _ => Err(AttestError::WrongVmKind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evtpm::quote_runtime;
    use confbench_types::VmTarget;
    use confbench_vmm::TeeVmBuilder;

    #[test]
    fn identity_ignores_nonce_but_tracks_runtime_state() {
        let mut vm =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(1).try_build().unwrap();
        let eco = TdxEcosystem::new(1);
        let (q1, _) = eco.generate_quote(&mut vm, TdxEcosystem::report_data_for_nonce(1)).unwrap();
        let (q2, _) = eco.generate_quote(&mut vm, TdxEcosystem::report_data_for_nonce(2)).unwrap();
        let rt = quote_runtime(&vm).unwrap().0;
        let a = Evidence::tdx(q1).with_runtime(rt.clone()).identity();
        let b = Evidence::tdx(q2).with_runtime(rt).identity();
        assert_eq!(a, b, "different nonces, same TCB identity");
        assert_eq!(a.fingerprint(), b.fingerprint());

        crate::evtpm::extend_runtime(&mut vm, 3, b"new-layer").unwrap();
        let (q3, _) = eco.generate_quote(&mut vm, TdxEcosystem::report_data_for_nonce(1)).unwrap();
        let c = Evidence::tdx(q3).with_runtime(quote_runtime(&vm).unwrap().0).identity();
        assert_ne!(a, c, "a runtime extend changes the identity");
    }

    #[test]
    fn verifier_trait_dispatches_and_rejects_cross_platform_evidence() {
        let mut td =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(1).try_build().unwrap();
        let mut guest =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::SevSnp)).seed(1).try_build().unwrap();
        let tdx = TdxEcosystem::new(1);
        let snp = SnpEcosystem::new(1);
        let nonce = TdxEcosystem::report_data_for_nonce(3);
        let (quote, _) = tdx.generate_quote(&mut td, nonce).unwrap();
        let (report, _) = snp.request_report(&mut guest, nonce).unwrap();
        let tdx_evidence = Evidence::tdx(quote);
        let snp_evidence = Evidence::snp(report);

        let verifiers: [&dyn Verifier; 2] = [&tdx, &snp];
        for v in verifiers {
            let (own, other) = if v.platform() == TeePlatform::Tdx {
                (&tdx_evidence, &snp_evidence)
            } else {
                (&snp_evidence, &tdx_evidence)
            };
            v.verify(own, nonce).unwrap();
            assert_eq!(v.verify(other, nonce), Err(AttestError::WrongVmKind));
        }
    }
}
