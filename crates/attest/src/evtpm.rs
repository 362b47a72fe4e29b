//! e-vTPM runtime-measurement evidence: the second attestation scenario.
//!
//! Hardware evidence (TD quote, SNP report) pins the *launch* state of a
//! CVM; the e-vTPM inside the guest pins its *runtime* state (kernel,
//! layers the workload measured in after boot). A verifier that folds the
//! e-vTPM bank digest into its session identity gets the invalidation
//! property this PR is about: the moment a workload extends a runtime
//! register, the cached session stops matching and the next dispatch
//! re-verifies.

use confbench_crypto::{Digest, Sha256};
use confbench_vmm::Vm;

use crate::error::AttestError;
use crate::PhaseTiming;

/// Milliseconds for a vTPM quote over the paravirtual transport (orders of
/// magnitude cheaper than a PCS round trip; comparable to a firmware call).
const EVTPM_QUOTE_MS: f64 = 2.5;
/// Milliseconds for one PCR extend command.
const EVTPM_EXTEND_MS: f64 = 0.8;

/// A snapshot of the e-vTPM register bank, as shipped alongside hardware
/// evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeMeasurements {
    /// The PCR bank at quote time.
    pub pcrs: Vec<Digest>,
    /// Extend count at quote time (monotonic; useful for freshness checks).
    pub extends: u64,
}

impl RuntimeMeasurements {
    /// Folds the bank into the single digest session keys embed.
    pub fn digest(&self) -> Digest {
        let parts: Vec<&[u8]> = self.pcrs.iter().map(|d| d.as_bytes() as &[u8]).collect();
        Sha256::digest_parts(&parts)
    }
}

/// Quotes the e-vTPM of `vm`: reads the full register bank.
///
/// # Errors
///
/// [`AttestError::WrongVmKind`] when `vm` has no e-vTPM (normal VMs).
pub fn quote_runtime(vm: &Vm) -> Result<(RuntimeMeasurements, PhaseTiming), AttestError> {
    let tpm = vm.evtpm().ok_or(AttestError::WrongVmKind)?;
    let measurements = RuntimeMeasurements { pcrs: tpm.bank().to_vec(), extends: tpm.extends() };
    Ok((measurements, PhaseTiming::local(EVTPM_QUOTE_MS)))
}

/// Extends runtime register `index` of `vm`'s e-vTPM with `data` (the
/// workload measuring a new layer in). Returns the new register value.
///
/// # Errors
///
/// [`AttestError::WrongVmKind`] without an e-vTPM;
/// [`AttestError::Firmware`] on a bad register index.
pub fn extend_runtime(
    vm: &mut Vm,
    index: usize,
    data: &[u8],
) -> Result<(Digest, PhaseTiming), AttestError> {
    let tpm = vm.evtpm_mut().ok_or(AttestError::WrongVmKind)?;
    let pcr = tpm.extend(index, data).map_err(|e| AttestError::Firmware(e.to_string()))?;
    Ok((pcr, PhaseTiming::local(EVTPM_EXTEND_MS)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_types::{TeePlatform, VmTarget};
    use confbench_vmm::TeeVmBuilder;

    #[test]
    fn runtime_quote_is_stable_until_extended() {
        let mut vm =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(1).try_build().unwrap();
        let (a, timing) = quote_runtime(&vm).unwrap();
        let (b, _) = quote_runtime(&vm).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert!(timing.latency_ms < 10.0, "vTPM quotes are local: {}", timing.latency_ms);
        assert_eq!(timing.network_ms, 0.0);

        extend_runtime(&mut vm, 4, b"layer").unwrap();
        let (c, _) = quote_runtime(&vm).unwrap();
        assert_ne!(a.digest(), c.digest(), "an extend must change the runtime identity");
        assert_eq!(c.extends, a.extends + 1);
    }

    #[test]
    fn pool_members_share_a_runtime_identity_at_boot() {
        let a =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::SevSnp)).seed(1).try_build().unwrap();
        let b =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::SevSnp)).seed(2).try_build().unwrap();
        assert_eq!(
            quote_runtime(&a).unwrap().0.digest(),
            quote_runtime(&b).unwrap().0.digest(),
            "seed affects jitter, not the measured image"
        );
    }

    #[test]
    fn normal_vms_have_no_runtime_measurements() {
        let vm = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Tdx)).try_build().unwrap();
        assert_eq!(quote_runtime(&vm).unwrap_err(), AttestError::WrongVmKind);
        let mut vm = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Tdx)).try_build().unwrap();
        assert_eq!(extend_runtime(&mut vm, 0, b"x").unwrap_err(), AttestError::WrongVmKind);
    }

    #[test]
    fn bad_register_index_surfaces_as_firmware_error() {
        let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Cca)).try_build().unwrap();
        assert!(matches!(extend_runtime(&mut vm, 99, b"x").unwrap_err(), AttestError::Firmware(_)));
    }
}
