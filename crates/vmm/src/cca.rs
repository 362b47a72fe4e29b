//! ARM CCA Realm Management Monitor model, plus the FVP simulation layer.
//!
//! Realms live in the realm world together with the RMM (paper §II, Fig.
//! 1c). The host drives realm lifecycle through the Realm Management
//! Interface (RMI); realms request services through the Realm Services
//! Interface (RSI). Because no CCA silicon existed at the time of the paper,
//! everything runs inside ARM's Fixed Virtual Platform simulator — modelled
//! here as [`Fvp`], a uniform slowdown plus timing jitter that the paper
//! identifies as the dominant factor in its CCA numbers.

use std::collections::BTreeMap;
use std::fmt;

use confbench_crypto::{Digest, Sha256};
use confbench_memsim::{GranuleError, GranuleTable, PageNum, StageTwoTable};

/// Realm descriptor identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RealmId(pub u32);

/// Lifecycle state of a realm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RealmPhase {
    /// Created; data granules may be added and measured.
    New,
    /// Activated; runnable, measurement sealed.
    Active,
}

/// Errors from RMI/RSI calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcaError {
    /// Unknown realm.
    NoSuchRealm(RealmId),
    /// Operation invalid in the realm's phase.
    WrongPhase(RealmId),
    /// Granule-table failure.
    Granule(GranuleError),
    /// Attestation is not available on the FVP testbed (paper §IV-B leaves
    /// CCA out of the attestation experiments for this reason).
    AttestationUnsupported,
}

impl fmt::Display for CcaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CcaError::NoSuchRealm(r) => write!(f, "cca: no such realm {r:?}"),
            CcaError::WrongPhase(r) => write!(f, "cca: realm {r:?} in wrong phase"),
            CcaError::Granule(e) => write!(f, "cca: {e}"),
            CcaError::AttestationUnsupported => {
                f.write_str("cca: attestation unsupported on the FVP simulator")
            }
        }
    }
}

impl std::error::Error for CcaError {}

impl From<GranuleError> for CcaError {
    fn from(e: GranuleError) -> Self {
        CcaError::Granule(e)
    }
}

#[derive(Debug)]
struct Realm {
    phase: RealmPhase,
    rim_state: Sha256, // realm initial measurement
    rim: Option<Digest>,
    stage2: StageTwoTable,
}

/// The Realm Management Monitor of one (simulated) CCA host.
///
/// # Example
///
/// ```
/// use confbench_vmm::{RealmId, Rmm};
/// use confbench_memsim::PageNum;
///
/// let mut rmm = Rmm::new(256);
/// let realm = RealmId(1);
/// rmm.rmi_realm_create(realm).unwrap();
/// rmm.rmi_data_create(realm, PageNum(0x10), PageNum(3)).unwrap();
/// let rim = rmm.rmi_realm_activate(realm).unwrap();
/// assert_eq!(rmm.rim(realm).unwrap(), rim);
/// ```
#[derive(Debug)]
pub struct Rmm {
    gpt: GranuleTable,
    realms: BTreeMap<RealmId, Realm>,
    rmi_calls: u64,
    rsi_calls: u64,
}

impl Rmm {
    /// Creates an RMM over a GPT of `granules` granules.
    pub fn new(granules: u64) -> Self {
        Rmm {
            gpt: GranuleTable::new(granules),
            realms: BTreeMap::new(),
            rmi_calls: 0,
            rsi_calls: 0,
        }
    }

    /// RMI calls serviced.
    pub fn rmi_calls(&self) -> u64 {
        self.rmi_calls
    }

    /// RSI calls serviced.
    pub fn rsi_calls(&self) -> u64 {
        self.rsi_calls
    }

    /// Access to the granule protection table.
    pub fn gpt_mut(&mut self) -> &mut GranuleTable {
        &mut self.gpt
    }

    /// `RMI_REALM_CREATE`.
    ///
    /// # Errors
    ///
    /// [`CcaError::WrongPhase`] if the id exists.
    pub fn rmi_realm_create(&mut self, rd: RealmId) -> Result<(), CcaError> {
        self.rmi_calls += 1;
        if self.realms.contains_key(&rd) {
            return Err(CcaError::WrongPhase(rd));
        }
        let mut rim_state = Sha256::new();
        rim_state.update(b"confbench-cca-rim-v1");
        self.realms.insert(
            rd,
            Realm { phase: RealmPhase::New, rim_state, rim: None, stage2: StageTwoTable::new() },
        );
        Ok(())
    }

    /// `RMI_DATA_CREATE` — delegate granule `g`, assign it to the realm, map
    /// it at `ipa`, and extend the realm initial measurement.
    ///
    /// # Errors
    ///
    /// Phase and granule errors.
    pub fn rmi_data_create(
        &mut self,
        rd: RealmId,
        ipa: PageNum,
        g: PageNum,
    ) -> Result<(), CcaError> {
        self.rmi_calls += 1;
        let realm = self.realms.get_mut(&rd).ok_or(CcaError::NoSuchRealm(rd))?;
        if realm.phase != RealmPhase::New {
            return Err(CcaError::WrongPhase(rd));
        }
        self.gpt.delegate(g)?;
        self.gpt.assign_to_realm(g, rd.0)?;
        realm.stage2.map(ipa, g);
        realm.rim_state.update(b"DATA.CREATE");
        realm.rim_state.update(&ipa.0.to_be_bytes());
        Ok(())
    }

    /// `RMI_REALM_ACTIVATE` — seal the measurement; realm becomes runnable.
    ///
    /// # Errors
    ///
    /// Phase errors.
    pub fn rmi_realm_activate(&mut self, rd: RealmId) -> Result<Digest, CcaError> {
        self.rmi_calls += 1;
        let realm = self.realms.get_mut(&rd).ok_or(CcaError::NoSuchRealm(rd))?;
        if realm.phase != RealmPhase::New {
            return Err(CcaError::WrongPhase(rd));
        }
        let digest = realm.rim_state.clone().finalize();
        realm.rim = Some(digest);
        realm.phase = RealmPhase::Active;
        Ok(digest)
    }

    /// Runtime mapping of an additional data granule into an active realm
    /// (`RMI_GRANULE_DELEGATE` + `RMI_RTT_MAP`; unmeasured).
    ///
    /// # Errors
    ///
    /// Phase and granule errors.
    pub fn map_runtime_granule(
        &mut self,
        rd: RealmId,
        ipa: PageNum,
        g: PageNum,
    ) -> Result<(), CcaError> {
        self.rmi_calls += 1;
        let realm = self.realms.get_mut(&rd).ok_or(CcaError::NoSuchRealm(rd))?;
        if realm.phase != RealmPhase::Active {
            return Err(CcaError::WrongPhase(rd));
        }
        self.gpt.delegate(g)?;
        self.gpt.assign_to_realm(g, rd.0)?;
        realm.stage2.map(ipa, g);
        Ok(())
    }

    /// Records an RSI service call from a realm (exit accounting).
    pub fn record_rsi_call(&mut self) {
        self.rsi_calls += 1;
    }

    /// `RSI_ATTESTATION_TOKEN_INIT` — unavailable on the FVP testbed.
    ///
    /// # Errors
    ///
    /// Always [`CcaError::AttestationUnsupported`], matching the paper's
    /// setup.
    pub fn rsi_attestation_token(&mut self, _rd: RealmId) -> Result<Vec<u8>, CcaError> {
        self.rsi_calls += 1;
        Err(CcaError::AttestationUnsupported)
    }

    /// The sealed realm initial measurement, if activated.
    ///
    /// # Errors
    ///
    /// [`CcaError::NoSuchRealm`] / [`CcaError::WrongPhase`].
    pub fn rim(&self, rd: RealmId) -> Result<Digest, CcaError> {
        let realm = self.realms.get(&rd).ok_or(CcaError::NoSuchRealm(rd))?;
        realm.rim.ok_or(CcaError::WrongPhase(rd))
    }

    /// Stage-2 table of a realm, for fault accounting.
    ///
    /// # Errors
    ///
    /// [`CcaError::NoSuchRealm`].
    pub fn stage2_mut(&mut self, rd: RealmId) -> Result<&mut StageTwoTable, CcaError> {
        Ok(&mut self.realms.get_mut(&rd).ok_or(CcaError::NoSuchRealm(rd))?.stage2)
    }
}

/// The ARM Fixed Virtual Platform simulation layer.
///
/// ARM claims FVP runs "at speeds comparable to the real hardware", but the
/// paper finds the simulated environment dominates CCA's measured overheads
/// and treats only intra-CCA comparisons as sound. The model makes the layer
/// explicit so the `bench` crate can sweep `slowdown` and separate the
/// simulator tax from the realm tax (the paper's open question).
#[derive(Debug, Clone, PartialEq)]
pub struct Fvp {
    /// Uniform multiplier applied to all virtual cycles.
    pub slowdown: f64,
    /// Relative jitter the simulator's timing introduces.
    pub jitter_rel_std: f64,
}

impl Fvp {
    /// The default configuration used by the figures (matching
    /// `CostModel::cca_*`).
    pub fn reference() -> Self {
        Fvp { slowdown: 9.0, jitter_rel_std: 0.06 }
    }
}

impl Default for Fvp {
    fn default() -> Self {
        Fvp::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_realm(rmm: &mut Rmm, rd: RealmId, pages: u64) -> Digest {
        rmm.rmi_realm_create(rd).unwrap();
        for i in 0..pages {
            rmm.rmi_data_create(rd, PageNum(0x100 + i), PageNum(rd.0 as u64 * 32 + i)).unwrap();
        }
        rmm.rmi_realm_activate(rd).unwrap()
    }

    #[test]
    fn identical_realms_measure_equal() {
        let mut rmm = Rmm::new(256);
        let a = active_realm(&mut rmm, RealmId(1), 3);
        let b = active_realm(&mut rmm, RealmId(2), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn data_create_only_before_activation() {
        let mut rmm = Rmm::new(256);
        active_realm(&mut rmm, RealmId(1), 1);
        assert_eq!(
            rmm.rmi_data_create(RealmId(1), PageNum(0x200), PageNum(10)),
            Err(CcaError::WrongPhase(RealmId(1)))
        );
        // But runtime mapping works after activation.
        rmm.map_runtime_granule(RealmId(1), PageNum(0x200), PageNum(10)).unwrap();
    }

    #[test]
    fn runtime_mapping_requires_active_realm() {
        let mut rmm = Rmm::new(256);
        rmm.rmi_realm_create(RealmId(1)).unwrap();
        assert_eq!(
            rmm.map_runtime_granule(RealmId(1), PageNum(0x200), PageNum(10)),
            Err(CcaError::WrongPhase(RealmId(1)))
        );
    }

    #[test]
    fn granules_tracked_in_gpt() {
        let mut rmm = Rmm::new(256);
        active_realm(&mut rmm, RealmId(1), 4);
        assert_eq!(rmm.gpt_mut().granules_of_realm(1), 4);
    }

    #[test]
    fn attestation_unsupported_on_fvp() {
        let mut rmm = Rmm::new(64);
        active_realm(&mut rmm, RealmId(1), 1);
        assert_eq!(rmm.rsi_attestation_token(RealmId(1)), Err(CcaError::AttestationUnsupported));
    }

    #[test]
    fn rim_unavailable_before_activation() {
        let mut rmm = Rmm::new(16);
        rmm.rmi_realm_create(RealmId(1)).unwrap();
        assert_eq!(rmm.rim(RealmId(1)), Err(CcaError::WrongPhase(RealmId(1))));
    }

    #[test]
    fn call_counters() {
        let mut rmm = Rmm::new(64);
        active_realm(&mut rmm, RealmId(1), 2); // 1 create + 2 data + 1 activate
        assert_eq!(rmm.rmi_calls(), 4);
        rmm.record_rsi_call();
        let _ = rmm.rsi_attestation_token(RealmId(1));
        assert_eq!(rmm.rsi_calls(), 2);
    }

    #[test]
    fn granule_double_delegate_surfaces() {
        let mut rmm = Rmm::new(64);
        rmm.rmi_realm_create(RealmId(1)).unwrap();
        rmm.rmi_realm_create(RealmId(2)).unwrap();
        rmm.rmi_data_create(RealmId(1), PageNum(0), PageNum(5)).unwrap();
        assert!(matches!(
            rmm.rmi_data_create(RealmId(2), PageNum(0), PageNum(5)),
            Err(CcaError::Granule(_))
        ));
    }

    #[test]
    fn fvp_reference_parameters() {
        let fvp = Fvp::reference();
        assert!(fvp.slowdown > 1.0);
        assert!(fvp.jitter_rel_std > 0.0);
        assert_eq!(Fvp::default(), fvp);
    }
}
