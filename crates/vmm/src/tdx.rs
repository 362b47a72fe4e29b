//! Intel TDX module model.
//!
//! The TDX module runs in SEAM root mode and is the only software allowed to
//! manage trust-domain state (paper §II, Fig. 1a). The VMM talks to it with
//! `SEAMCALL`s; the guest TD with `TDCALL`s. This model implements the small
//! slice of the interface ConfBench exercises: TD lifecycle with measured
//! page adds, runtime page acceptance, and `TDG.MR.REPORT` for attestation.

use std::collections::BTreeMap;
use std::fmt;

use confbench_crypto::{Digest, Sha256};
use confbench_memsim::{PageNum, SecureEpt, SeptError};

/// Identifier of a trust domain on one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TdId(pub u32);

/// Lifecycle phase of a TD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TdPhase {
    /// Created, build in progress (pages may be ADDed and measured).
    Building,
    /// Measurement finalized; TD is runnable.
    Runnable,
}

/// A TDREPORT structure (the local-evidence input to quote generation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdReport {
    /// Build-time measurement of the initial TD image.
    pub mrtd: Digest,
    /// Runtime-extendable measurement registers.
    pub rtmr: [Digest; 4],
    /// 64 bytes of caller-chosen report data (nonce binding).
    pub report_data: [u8; 64],
    /// TCB version string of the module that produced the report.
    pub tcb_version: String,
}

/// Errors returned by module calls, mirroring TDX status codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdxError {
    /// Unknown TD id.
    NoSuchTd(TdId),
    /// Operation invalid in the TD's current phase.
    WrongPhase(TdId),
    /// Secure-EPT failure.
    Sept(SeptError),
    /// RTMR index out of range.
    BadRtmrIndex(usize),
}

impl fmt::Display for TdxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdxError::NoSuchTd(id) => write!(f, "tdx: no such td {id:?}"),
            TdxError::WrongPhase(id) => write!(f, "tdx: td {id:?} in wrong phase"),
            TdxError::Sept(e) => write!(f, "tdx: sept: {e}"),
            TdxError::BadRtmrIndex(i) => write!(f, "tdx: bad rtmr index {i}"),
        }
    }
}

impl std::error::Error for TdxError {}

impl From<SeptError> for TdxError {
    fn from(e: SeptError) -> Self {
        TdxError::Sept(e)
    }
}

#[derive(Debug)]
struct Td {
    phase: TdPhase,
    sept: SecureEpt,
    mrtd_state: Sha256,
    mrtd: Option<Digest>,
    rtmr: [Digest; 4],
}

/// The TDX module of one host.
///
/// # Example
///
/// ```
/// use confbench_vmm::{TdId, TdxModule};
/// use confbench_memsim::PageNum;
///
/// let mut module = TdxModule::new("TDX_1.5.05.46.698");
/// let td = TdId(1);
/// module.tdh_mng_create(td).unwrap();
/// module.tdh_mem_page_add(td, PageNum(0x10), PageNum(0x90)).unwrap();
/// module.tdh_mr_finalize(td).unwrap();
/// let report = module.tdg_mr_report(td, [0u8; 64]).unwrap();
/// assert_eq!(report.tcb_version, "TDX_1.5.05.46.698");
/// ```
#[derive(Debug)]
pub struct TdxModule {
    tds: BTreeMap<TdId, Td>,
    tcb_version: String,
    seamcalls: u64,
    tdcalls: u64,
}

impl TdxModule {
    /// Loads a module with the given TCB version string. The paper's testbed
    /// runs `TDX_1.5.05.46.698` — the firmware that fixed the unexplained
    /// 10× slowdowns they initially hit (§III-B).
    pub fn new(tcb_version: impl Into<String>) -> Self {
        TdxModule {
            tds: BTreeMap::new(),
            tcb_version: tcb_version.into(),
            seamcalls: 0,
            tdcalls: 0,
        }
    }

    /// TCB version string.
    pub fn tcb_version(&self) -> &str {
        &self.tcb_version
    }

    /// SEAMCALLs serviced so far.
    pub fn seamcalls(&self) -> u64 {
        self.seamcalls
    }

    /// TDCALLs serviced so far.
    pub fn tdcalls(&self) -> u64 {
        self.tdcalls
    }

    /// `TDH.MNG.CREATE` — create a TD in the building phase.
    ///
    /// # Errors
    ///
    /// [`TdxError::WrongPhase`] if the id already exists.
    pub fn tdh_mng_create(&mut self, id: TdId) -> Result<(), TdxError> {
        self.seamcalls += 1;
        if self.tds.contains_key(&id) {
            return Err(TdxError::WrongPhase(id));
        }
        self.tds.insert(
            id,
            Td {
                phase: TdPhase::Building,
                sept: SecureEpt::new(),
                mrtd_state: mrtd_seed(),
                mrtd: None,
                rtmr: [Digest([0; 32]); 4],
            },
        );
        Ok(())
    }

    /// `TDH.MEM.PAGE.ADD` — map an initial-image page and extend MRTD.
    ///
    /// # Errors
    ///
    /// [`TdxError::WrongPhase`] after finalization; SEPT errors otherwise.
    pub fn tdh_mem_page_add(
        &mut self,
        id: TdId,
        gpa: PageNum,
        hpa: PageNum,
    ) -> Result<(), TdxError> {
        self.seamcalls += 1;
        let td = self.td_mut(id)?;
        if td.phase != TdPhase::Building {
            return Err(TdxError::WrongPhase(id));
        }
        td.sept.add(gpa, hpa)?;
        td.mrtd_state.update(b"PAGE.ADD");
        td.mrtd_state.update(&gpa.0.to_be_bytes());
        Ok(())
    }

    /// `TDH.MR.FINALIZE` — seal MRTD and make the TD runnable.
    ///
    /// # Errors
    ///
    /// [`TdxError::WrongPhase`] if already finalized.
    pub fn tdh_mr_finalize(&mut self, id: TdId) -> Result<Digest, TdxError> {
        self.seamcalls += 1;
        let td = self.td_mut(id)?;
        if td.phase != TdPhase::Building {
            return Err(TdxError::WrongPhase(id));
        }
        let digest = td.mrtd_state.clone().finalize();
        td.mrtd = Some(digest);
        td.phase = TdPhase::Runnable;
        Ok(digest)
    }

    /// `TDH.MEM.PAGE.AUG` — map a runtime page, pending guest acceptance.
    ///
    /// # Errors
    ///
    /// [`TdxError::WrongPhase`] before finalization; SEPT errors otherwise.
    pub fn tdh_mem_page_aug(
        &mut self,
        id: TdId,
        gpa: PageNum,
        hpa: PageNum,
    ) -> Result<(), TdxError> {
        self.seamcalls += 1;
        let td = self.td_mut(id)?;
        if td.phase != TdPhase::Runnable {
            return Err(TdxError::WrongPhase(id));
        }
        td.sept.aug(gpa, hpa)?;
        Ok(())
    }

    /// Guest `TDG.MEM.PAGE.ACCEPT`.
    ///
    /// # Errors
    ///
    /// SEPT errors (not mapped / not pending).
    pub fn tdg_mem_page_accept(&mut self, id: TdId, gpa: PageNum) -> Result<(), TdxError> {
        self.tdcalls += 1;
        let td = self.td_mut(id)?;
        td.sept.accept(gpa)?;
        Ok(())
    }

    /// Guest `TDG.MR.RTMR.EXTEND` — extend a runtime measurement register.
    ///
    /// # Errors
    ///
    /// [`TdxError::BadRtmrIndex`] for indexes ≥ 4.
    pub fn tdg_mr_rtmr_extend(
        &mut self,
        id: TdId,
        index: usize,
        data: &[u8],
    ) -> Result<(), TdxError> {
        self.tdcalls += 1;
        if index >= 4 {
            return Err(TdxError::BadRtmrIndex(index));
        }
        let td = self.td_mut(id)?;
        let old = td.rtmr[index];
        td.rtmr[index] = Sha256::digest_parts(&[old.as_bytes(), data]);
        Ok(())
    }

    /// Guest `TDG.MR.REPORT` — produce a TDREPORT bound to `report_data`.
    ///
    /// # Errors
    ///
    /// [`TdxError::WrongPhase`] if the TD is not runnable.
    pub fn tdg_mr_report(&mut self, id: TdId, report_data: [u8; 64]) -> Result<TdReport, TdxError> {
        self.tdcalls += 1;
        let tcb = self.tcb_version.clone();
        let td = self.td_mut(id)?;
        let mrtd = td.mrtd.ok_or(TdxError::WrongPhase(id))?;
        Ok(TdReport { mrtd, rtmr: td.rtmr, report_data, tcb_version: tcb })
    }

    fn td_mut(&mut self, id: TdId) -> Result<&mut Td, TdxError> {
        self.tds.get_mut(&id).ok_or(TdxError::NoSuchTd(id))
    }
}

fn mrtd_seed() -> Sha256 {
    let mut h = Sha256::new();
    h.update(b"confbench-mrtd-v1");
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn built_td(module: &mut TdxModule, id: TdId, pages: u64) -> Digest {
        module.tdh_mng_create(id).unwrap();
        for i in 0..pages {
            module.tdh_mem_page_add(id, PageNum(i), PageNum(0x1000 + i)).unwrap();
        }
        module.tdh_mr_finalize(id).unwrap()
    }

    /// The MRTD of a 64-page image (a secure boot's `PAGE.ADD` count), as
    /// measured before the SHA-NI kernel and the direct padding existed.
    #[test]
    fn mrtd_is_pinned() {
        let mut m = TdxModule::new("v1");
        assert_eq!(
            built_td(&mut m, TdId(1), 64).to_string(),
            "0f5c16f691f325384f5a4503d2007860ce3c023b0da992b724981fa77c0953e9"
        );
    }

    #[test]
    fn identical_images_produce_identical_mrtd() {
        let mut m = TdxModule::new("v1");
        let a = built_td(&mut m, TdId(1), 4);
        let b = built_td(&mut m, TdId(2), 4);
        assert_eq!(a, b);
    }

    #[test]
    fn different_images_produce_different_mrtd() {
        let mut m = TdxModule::new("v1");
        let a = built_td(&mut m, TdId(1), 4);
        let b = built_td(&mut m, TdId(2), 5);
        assert_ne!(a, b);
    }

    #[test]
    fn no_page_add_after_finalize() {
        let mut m = TdxModule::new("v1");
        built_td(&mut m, TdId(1), 1);
        assert_eq!(
            m.tdh_mem_page_add(TdId(1), PageNum(9), PageNum(99)),
            Err(TdxError::WrongPhase(TdId(1)))
        );
    }

    #[test]
    fn aug_requires_runnable_and_accept() {
        let mut m = TdxModule::new("v1");
        m.tdh_mng_create(TdId(1)).unwrap();
        assert_eq!(
            m.tdh_mem_page_aug(TdId(1), PageNum(5), PageNum(50)),
            Err(TdxError::WrongPhase(TdId(1)))
        );
        m.tdh_mr_finalize(TdId(1)).unwrap();
        m.tdh_mem_page_aug(TdId(1), PageNum(5), PageNum(50)).unwrap();
        m.tdg_mem_page_accept(TdId(1), PageNum(5)).unwrap();
        assert!(m.tdg_mem_page_accept(TdId(1), PageNum(5)).is_err());
    }

    #[test]
    fn report_reflects_rtmr_extensions() {
        let mut m = TdxModule::new("v1");
        built_td(&mut m, TdId(1), 2);
        let r0 = m.tdg_mr_report(TdId(1), [7; 64]).unwrap();
        m.tdg_mr_rtmr_extend(TdId(1), 2, b"event").unwrap();
        let r1 = m.tdg_mr_report(TdId(1), [7; 64]).unwrap();
        assert_eq!(r0.mrtd, r1.mrtd);
        assert_ne!(r0.rtmr[2], r1.rtmr[2]);
        assert_eq!(r0.rtmr[0], r1.rtmr[0]);
        assert_eq!(r1.report_data, [7; 64]);
    }

    #[test]
    fn rtmr_index_validated() {
        let mut m = TdxModule::new("v1");
        built_td(&mut m, TdId(1), 1);
        assert_eq!(m.tdg_mr_rtmr_extend(TdId(1), 4, b"x"), Err(TdxError::BadRtmrIndex(4)));
    }

    #[test]
    fn report_requires_finalized_td() {
        let mut m = TdxModule::new("v1");
        m.tdh_mng_create(TdId(1)).unwrap();
        assert_eq!(m.tdg_mr_report(TdId(1), [0; 64]), Err(TdxError::WrongPhase(TdId(1))));
    }

    #[test]
    fn call_counters_track_interface_crossings() {
        let mut m = TdxModule::new("v1");
        built_td(&mut m, TdId(1), 3); // 1 create + 3 add + 1 finalize seamcalls
        assert_eq!(m.seamcalls(), 5);
        m.tdg_mr_report(TdId(1), [0; 64]).unwrap();
        assert_eq!(m.tdcalls(), 1);
    }

    #[test]
    fn unknown_td_rejected() {
        let mut m = TdxModule::new("v1");
        assert_eq!(m.tdg_mr_report(TdId(9), [0; 64]), Err(TdxError::NoSuchTd(TdId(9))));
    }
}
