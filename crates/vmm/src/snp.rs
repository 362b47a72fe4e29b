//! AMD SEV-SNP firmware / secure-processor model.
//!
//! SNP guests are launched by the hypervisor through the AMD Secure
//! Processor (AMD-SP), a dedicated coprocessor that measures the initial
//! image and later signs attestation reports with the chip-unique VCEK
//! (paper §II). Unlike TDX, report generation is a *local* firmware call —
//! no network is involved until the relying party checks certificates, and
//! even those come from the host — which is why the paper finds SNP
//! attestation much faster than TDX's (Fig. 5).

use std::collections::BTreeMap;
use std::fmt;

use confbench_crypto::{Digest, Sha256, Signature, SigningKey, VerifyingKey};
use confbench_memsim::{PageNum, Rmp, RmpError};

/// Lifecycle phase of an SNP guest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnpPhase {
    /// `SNP_LAUNCH_START`ed; pages may be added and measured.
    Launching,
    /// `SNP_LAUNCH_FINISH`ed; guest is running.
    Running,
}

/// An SNP attestation report, signed by the AMD-SP with the VCEK.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnpReport {
    /// Launch measurement of the guest image.
    pub measurement: Digest,
    /// 64 bytes of guest-chosen report data.
    pub report_data: [u8; 64],
    /// Chip identifier (selects the VCEK).
    pub chip_id: u64,
    /// Reported TCB version.
    pub tcb_version: u64,
    /// VCEK signature over the serialized report body.
    pub signature: Signature,
}

impl SnpReport {
    /// The byte string the VCEK signature covers.
    pub fn signed_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(32 + 64 + 16);
        v.extend_from_slice(self.measurement.as_bytes());
        v.extend_from_slice(&self.report_data);
        v.extend_from_slice(&self.chip_id.to_be_bytes());
        v.extend_from_slice(&self.tcb_version.to_be_bytes());
        v
    }
}

/// Errors returned by the firmware model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnpError {
    /// Unknown guest ASID.
    NoSuchGuest(u32),
    /// Operation invalid in the guest's phase.
    WrongPhase(u32),
    /// RMP violation during launch.
    Rmp(RmpError),
}

impl fmt::Display for SnpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnpError::NoSuchGuest(a) => write!(f, "snp: no such guest asid {a}"),
            SnpError::WrongPhase(a) => write!(f, "snp: guest {a} in wrong phase"),
            SnpError::Rmp(e) => write!(f, "snp: {e}"),
        }
    }
}

impl std::error::Error for SnpError {}

impl From<RmpError> for SnpError {
    fn from(e: RmpError) -> Self {
        SnpError::Rmp(e)
    }
}

#[derive(Debug)]
struct SnpGuest {
    phase: SnpPhase,
    measurement_state: Sha256,
    measurement: Option<Digest>,
}

/// The AMD Secure Processor plus SNP firmware state for one host.
///
/// # Example
///
/// ```
/// use confbench_vmm::AmdSp;
/// use confbench_memsim::PageNum;
///
/// let mut sp = AmdSp::new(0xc0ffee, 7);
/// sp.launch_start(1).unwrap();
/// sp.launch_update(1, PageNum(0)).unwrap();
/// sp.launch_finish(1).unwrap();
/// let report = sp.request_report(1, [0u8; 64]).unwrap();
/// sp.vcek_public().verify(&report.signed_bytes(), &report.signature).unwrap();
/// ```
#[derive(Debug)]
pub struct AmdSp {
    chip_id: u64,
    tcb_version: u64,
    vcek: SigningKey,
    rmp: Rmp,
    guests: BTreeMap<u32, SnpGuest>,
    ghcb_exits: u64,
    reports_issued: u64,
}

/// Physical pages covered by the host RMP in the model (enough for the
/// mechanism-exercise slice of allocations; analytic costs cover the rest).
const RMP_PAGES: u64 = 1 << 16;

impl AmdSp {
    /// Creates a secure processor with a chip-unique VCEK derived from
    /// `chip_id`, reporting `tcb_version`.
    pub fn new(chip_id: u64, tcb_version: u64) -> Self {
        AmdSp {
            chip_id,
            tcb_version,
            vcek: SigningKey::from_seed(chip_id ^ 0x56_43_45_4b /* "VCEK" */),
            rmp: Rmp::new(RMP_PAGES),
            guests: BTreeMap::new(),
            ghcb_exits: 0,
            reports_issued: 0,
        }
    }

    /// The chip identifier.
    pub fn chip_id(&self) -> u64 {
        self.chip_id
    }

    /// The VCEK public key (distributed via the AMD KDS cert chain; in the
    /// model the host hands it out directly, as `snpguest` fetches it from
    /// the hardware).
    pub fn vcek_public(&self) -> VerifyingKey {
        self.vcek.verifying_key()
    }

    /// Reports issued so far.
    pub fn reports_issued(&self) -> u64 {
        self.reports_issued
    }

    /// GHCB guest exits recorded so far.
    pub fn ghcb_exits(&self) -> u64 {
        self.ghcb_exits
    }

    /// Access to the host RMP.
    pub fn rmp_mut(&mut self) -> &mut Rmp {
        &mut self.rmp
    }

    /// `SNP_LAUNCH_START`.
    ///
    /// # Errors
    ///
    /// [`SnpError::WrongPhase`] if the ASID is in use.
    pub fn launch_start(&mut self, asid: u32) -> Result<(), SnpError> {
        if self.guests.contains_key(&asid) {
            return Err(SnpError::WrongPhase(asid));
        }
        let mut state = Sha256::new();
        state.update(b"confbench-snp-launch-v1");
        self.guests.insert(
            asid,
            SnpGuest { phase: SnpPhase::Launching, measurement_state: state, measurement: None },
        );
        Ok(())
    }

    /// `SNP_LAUNCH_UPDATE` — assign a page to the guest in the RMP and fold
    /// it into the launch measurement.
    ///
    /// # Errors
    ///
    /// Phase and RMP errors.
    pub fn launch_update(&mut self, asid: u32, page: PageNum) -> Result<(), SnpError> {
        let guest = self.guests.get_mut(&asid).ok_or(SnpError::NoSuchGuest(asid))?;
        if guest.phase != SnpPhase::Launching {
            return Err(SnpError::WrongPhase(asid));
        }
        self.rmp.assign(page, asid)?;
        guest.measurement_state.update(b"LAUNCH.UPDATE");
        guest.measurement_state.update(&page.0.to_be_bytes());
        Ok(())
    }

    /// `SNP_LAUNCH_FINISH` — seal the measurement; the guest becomes
    /// runnable.
    ///
    /// # Errors
    ///
    /// Phase errors.
    pub fn launch_finish(&mut self, asid: u32) -> Result<Digest, SnpError> {
        let guest = self.guests.get_mut(&asid).ok_or(SnpError::NoSuchGuest(asid))?;
        if guest.phase != SnpPhase::Launching {
            return Err(SnpError::WrongPhase(asid));
        }
        let digest = guest.measurement_state.clone().finalize();
        guest.measurement = Some(digest);
        guest.phase = SnpPhase::Running;
        Ok(digest)
    }

    /// Records a GHCB-mediated guest exit (the SNP world-switch path).
    pub fn record_ghcb_exit(&mut self) {
        self.ghcb_exits += 1;
    }

    /// Guest request `MSG_REPORT_REQ`: produce a VCEK-signed attestation
    /// report bound to `report_data`.
    ///
    /// # Errors
    ///
    /// [`SnpError::WrongPhase`] unless the guest is running.
    pub fn request_report(
        &mut self,
        asid: u32,
        report_data: [u8; 64],
    ) -> Result<SnpReport, SnpError> {
        let guest = self.guests.get(&asid).ok_or(SnpError::NoSuchGuest(asid))?;
        let measurement = guest.measurement.ok_or(SnpError::WrongPhase(asid))?;
        let mut report = SnpReport {
            measurement,
            report_data,
            chip_id: self.chip_id,
            tcb_version: self.tcb_version,
            signature: Signature { e: 0, s: 0 },
        };
        report.signature = self.vcek.sign(&report.signed_bytes());
        self.reports_issued += 1;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn launched(sp: &mut AmdSp, asid: u32, pages: u64) -> Digest {
        sp.launch_start(asid).unwrap();
        for i in 0..pages {
            sp.launch_update(asid, PageNum(asid as u64 * 100 + i)).unwrap();
        }
        sp.launch_finish(asid).unwrap()
    }

    /// The launch digest of 64 `LAUNCH.UPDATE`s, as measured before the
    /// SHA-NI kernel and the direct padding existed.
    #[test]
    fn launch_digest_is_pinned() {
        let mut sp = AmdSp::new(1, 1);
        sp.launch_start(1).unwrap();
        for i in 0..64 {
            sp.launch_update(1, PageNum(100 + i)).unwrap();
        }
        assert_eq!(
            sp.launch_finish(1).unwrap().to_string(),
            "c432a066a68d3ae1e11b7d1749a993974154ef9f965dfb4c46ef6a9b13337fed"
        );
    }

    #[test]
    fn identical_launch_sequences_measure_equal() {
        let mut a = AmdSp::new(1, 1);
        let mut b = AmdSp::new(2, 1);
        // Same page numbers on both chips.
        let da = launched(&mut a, 1, 3);
        let db = launched(&mut b, 1, 3);
        assert_eq!(da, db);
    }

    #[test]
    fn report_verifies_and_tamper_fails() {
        let mut sp = AmdSp::new(0xabc, 3);
        launched(&mut sp, 1, 2);
        let report = sp.request_report(1, [9; 64]).unwrap();
        sp.vcek_public().verify(&report.signed_bytes(), &report.signature).unwrap();
        let mut forged = report.clone();
        forged.report_data[0] ^= 1;
        assert!(sp.vcek_public().verify(&forged.signed_bytes(), &forged.signature).is_err());
    }

    #[test]
    fn different_chips_have_different_vceks() {
        let a = AmdSp::new(1, 1);
        let b = AmdSp::new(2, 1);
        assert_ne!(a.vcek_public(), b.vcek_public());
    }

    #[test]
    fn no_report_before_finish() {
        let mut sp = AmdSp::new(1, 1);
        sp.launch_start(1).unwrap();
        assert_eq!(sp.request_report(1, [0; 64]), Err(SnpError::WrongPhase(1)));
    }

    #[test]
    fn no_update_after_finish() {
        let mut sp = AmdSp::new(1, 1);
        launched(&mut sp, 1, 1);
        assert_eq!(sp.launch_update(1, PageNum(50)), Err(SnpError::WrongPhase(1)));
    }

    #[test]
    fn launch_pages_are_rmp_assigned() {
        let mut sp = AmdSp::new(1, 1);
        launched(&mut sp, 3, 4);
        assert_eq!(sp.rmp_mut().pages_owned_by(3), 4);
    }

    #[test]
    fn page_cannot_be_shared_between_launching_guests() {
        let mut sp = AmdSp::new(1, 1);
        sp.launch_start(1).unwrap();
        sp.launch_start(2).unwrap();
        sp.launch_update(1, PageNum(7)).unwrap();
        assert!(matches!(sp.launch_update(2, PageNum(7)), Err(SnpError::Rmp(_))));
    }

    #[test]
    fn counters_track_activity() {
        let mut sp = AmdSp::new(1, 1);
        launched(&mut sp, 1, 1);
        sp.record_ghcb_exit();
        sp.record_ghcb_exit();
        sp.request_report(1, [0; 64]).unwrap();
        assert_eq!(sp.ghcb_exits(), 2);
        assert_eq!(sp.reports_issued(), 1);
    }
}
