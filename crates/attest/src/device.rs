//! Device attestation: verifying TDISP accelerator measurement reports.
//!
//! TEE-IO extends the relying party's job: before a confidential VM lets a
//! device DMA into private memory, the *device* must prove what firmware
//! it runs and what interface configuration was locked. This module plugs
//! that flow into the existing verification stack — a
//! [`DeviceEvidence`] body wraps the SPDM-style measurement report, a
//! [`DeviceVerifier`] enforces [`DevicePolicy`], and because both implement
//! the same [`Evidence`]/[`Verifier`](crate::Verifier) seams the
//! [`SessionCache`](crate::SessionCache) amortizes device re-attestation
//! exactly like CVM re-attestation: one fleet-wide verification per device
//! TCB identity per TTL, single-flighted under concurrency.
//!
//! Identity mapping: the device's firmware digest stands in for the launch
//! measurement, its firmware SVN for the TCB level, and the locked
//! interface-config digest for the runtime digest — so a firmware update,
//! an SVN bump, or a different interface lock each produce a distinct
//! session key, while re-plugging an identical device hits the cache.

use confbench_crypto::VerifyingKey;
use confbench_devio::{
    gpu_firmware_digest, gpu_interface_digest, vendor_verifying_key, MeasurementReport, GPU_FW_SVN,
};
use confbench_types::TeePlatform;

use crate::error::AttestError;
use crate::verifier::{Evidence, EvidenceBody, Verifier};
use crate::PhaseTiming;

/// Milliseconds of local compute one device verification costs (SPDM
/// transcript hash + one signature check; no network — the vendor key is
/// pinned, unlike the TDX PCS collateral chain).
const DEVICE_VERIFY_MS: f64 = 2.4;

/// Evidence presented for a TDISP device interface: the host platform the
/// device is plugged into, plus its signed measurement report.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceEvidence {
    /// Platform of the host VM the device is assigned to (device sessions
    /// are cached per host platform: the same GPU behind a TDX TD and
    /// behind an SNP guest are distinct trust decisions).
    pub platform: TeePlatform,
    /// The decoded, signed measurement report.
    pub report: MeasurementReport,
}

/// Acceptance policy for device measurement reports.
#[derive(Debug, Clone)]
pub struct DevicePolicy {
    /// Minimum acceptable firmware security version.
    pub min_fw_svn: u32,
    /// Expected firmware digest (measurement block 0).
    pub fw_digest: [u8; 32],
    /// Expected locked interface-config digest (measurement block 1).
    pub interface_digest: [u8; 32],
    /// Pinned vendor verifying key.
    pub vendor_key: VerifyingKey,
}

impl Default for DevicePolicy {
    /// The policy matching the modeled GPU at its current firmware.
    fn default() -> Self {
        DevicePolicy {
            min_fw_svn: GPU_FW_SVN,
            fw_digest: gpu_firmware_digest(),
            interface_digest: gpu_interface_digest(),
            vendor_key: vendor_verifying_key(),
        }
    }
}

/// Relying party for device evidence on one host platform.
#[derive(Debug, Clone)]
pub struct DeviceVerifier {
    host: TeePlatform,
    policy: DevicePolicy,
}

impl DeviceVerifier {
    /// A verifier for devices plugged into `host`-platform VMs, with the
    /// default policy.
    pub fn new(host: TeePlatform) -> Self {
        DeviceVerifier { host, policy: DevicePolicy::default() }
    }

    /// The policy in force.
    pub fn policy(&self) -> &DevicePolicy {
        &self.policy
    }
}

impl Verifier for DeviceVerifier {
    fn platform(&self) -> TeePlatform {
        self.host
    }

    fn verify(
        &self,
        evidence: &Evidence,
        expected_report_data: [u8; 64],
    ) -> Result<PhaseTiming, AttestError> {
        let EvidenceBody::Device(dev) = &evidence.body else {
            return Err(AttestError::WrongVmKind);
        };
        if dev.platform != self.host {
            return Err(AttestError::WrongVmKind);
        }
        let report = &dev.report;
        report
            .verify(&self.policy.vendor_key)
            .map_err(|_| AttestError::BadSignature("device measurement report"))?;
        // The device echoes a 32-byte nonce; it binds the first half of the
        // 64-byte report-data channel the CVM flows use.
        if report.nonce[..] != expected_report_data[..32] {
            return Err(AttestError::NonceMismatch);
        }
        if report.fw_svn < self.policy.min_fw_svn {
            return Err(AttestError::TcbOutOfDate {
                reported: report.fw_svn as u64,
                required: self.policy.min_fw_svn as u64,
            });
        }
        if report.fw_digest() != Some(self.policy.fw_digest) {
            return Err(AttestError::BadSignature("device firmware digest"));
        }
        if report.interface_digest() != Some(self.policy.interface_digest) {
            return Err(AttestError::BadSignature("device interface configuration"));
        }
        Ok(PhaseTiming::local(DEVICE_VERIFY_MS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionCache, SessionConfig};
    use crate::verifier::TcbIdentity;
    use crate::SessionSource;
    use confbench_crypto::SigningKey;
    use confbench_devio::MeasurementBlock;
    use confbench_types::{DeviceKind, ManualClock, VmTarget};
    use confbench_vmm::TeeVmBuilder;
    use std::sync::Arc;

    fn nonce_data(nonce: [u8; 32]) -> [u8; 64] {
        let mut data = [0u8; 64];
        data[..32].copy_from_slice(&nonce);
        data
    }

    fn attested_vm(platform: TeePlatform) -> (Evidence, [u8; 64]) {
        let mut vm = TeeVmBuilder::new(VmTarget::secure(platform))
            .device(DeviceKind::Gpu)
            .try_build()
            .unwrap();
        let nonce = [0x42; 32];
        let report = vm.device_report(nonce).unwrap();
        (Evidence::device(platform, report), nonce_data(nonce))
    }

    #[test]
    fn good_report_verifies_and_bad_nonce_or_platform_fails() {
        let (evidence, data) = attested_vm(TeePlatform::Tdx);
        let v = DeviceVerifier::new(TeePlatform::Tdx);
        v.verify(&evidence, data).unwrap();
        assert_eq!(v.verify(&evidence, [0; 64]), Err(AttestError::NonceMismatch));
        let snp = DeviceVerifier::new(TeePlatform::SevSnp);
        assert_eq!(snp.verify(&evidence, data), Err(AttestError::WrongVmKind));
    }

    #[test]
    fn forged_or_stale_reports_are_rejected() {
        let nonce = [7u8; 32];
        let data = nonce_data(nonce);
        let v = DeviceVerifier::new(TeePlatform::Tdx);
        // Forged: signed by a key that is not the pinned vendor key.
        let forged = MeasurementReport::sign(
            GPU_FW_SVN,
            vec![
                MeasurementBlock { index: 0, kind: 1, digest: gpu_firmware_digest() },
                MeasurementBlock { index: 1, kind: 2, digest: gpu_interface_digest() },
            ],
            nonce,
            &SigningKey::from_seed(0xbad),
        );
        assert!(matches!(
            v.verify(&Evidence::device(TeePlatform::Tdx, forged), data),
            Err(AttestError::BadSignature(_))
        ));
        // Stale firmware: below the policy's minimum SVN.
        let stale = MeasurementReport::sign(
            GPU_FW_SVN - 1,
            vec![
                MeasurementBlock { index: 0, kind: 1, digest: gpu_firmware_digest() },
                MeasurementBlock { index: 1, kind: 2, digest: gpu_interface_digest() },
            ],
            nonce,
            &confbench_devio::vendor_signing_key(),
        );
        assert!(matches!(
            v.verify(&Evidence::device(TeePlatform::Tdx, stale), data),
            Err(AttestError::TcbOutOfDate { .. })
        ));
        // Wrong firmware image.
        let wrong = MeasurementReport::sign(
            GPU_FW_SVN,
            vec![
                MeasurementBlock { index: 0, kind: 1, digest: [9; 32] },
                MeasurementBlock { index: 1, kind: 2, digest: gpu_interface_digest() },
            ],
            nonce,
            &confbench_devio::vendor_signing_key(),
        );
        assert_eq!(
            v.verify(&Evidence::device(TeePlatform::Tdx, wrong), data),
            Err(AttestError::BadSignature("device firmware digest"))
        );
    }

    #[test]
    fn device_identity_maps_firmware_svn_and_interface() {
        let (evidence, _) = attested_vm(TeePlatform::SevSnp);
        let id: TcbIdentity = evidence.identity();
        assert_eq!(id.platform, TeePlatform::SevSnp);
        assert_eq!(id.measurement.as_bytes(), &gpu_firmware_digest());
        assert_eq!(id.tcb_level, GPU_FW_SVN as u64);
        assert_eq!(id.runtime_digest.as_bytes(), &gpu_interface_digest());
    }

    #[test]
    fn session_cache_amortizes_device_reattestation() {
        let clock = Arc::new(ManualClock::new());
        let cache = SessionCache::new(clock, SessionConfig::default());
        let v = DeviceVerifier::new(TeePlatform::Tdx);
        // Two different VMs, same device model: one verification, one hit —
        // nonces differ per VM but the TCB identity is the same.
        let mut vm_a = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx))
            .device(DeviceKind::Gpu)
            .try_build()
            .unwrap();
        let mut vm_b = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx))
            .seed(1)
            .device(DeviceKind::Gpu)
            .try_build()
            .unwrap();
        let nonce_a = [1u8; 32];
        let nonce_b = [2u8; 32];
        let ev_a = Evidence::device(TeePlatform::Tdx, vm_a.device_report(nonce_a).unwrap());
        let ev_b = Evidence::device(TeePlatform::Tdx, vm_b.device_report(nonce_b).unwrap());
        let first = cache.verify_or_join(&v, &ev_a, nonce_data(nonce_a)).unwrap();
        assert_eq!(first.source, SessionSource::Verified);
        let second = cache.verify_or_join(&v, &ev_b, nonce_data(nonce_b)).unwrap();
        assert_eq!(second.source, SessionSource::CacheHit);
        assert_eq!(first.session.id, second.session.id);
        assert!(second.timing.latency_ms < first.timing.latency_ms);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
