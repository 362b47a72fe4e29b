//! ARM CCA Granule Protection Table model.
//!
//! CCA partitions physical memory into 4-KiB *granules*, each belonging to
//! one of four worlds (paper §II): Non-secure, Secure (TrustZone), Realm
//! (confidential VMs + RMM) and Root (the monitor). The Granule Protection
//! Table (GPT) is checked by hardware on every access; the host *delegates*
//! granules to the realm world through RMI calls and the RMM hands them to
//! realms.

use std::fmt;

use crate::page::PageNum;

/// One of CCA's four security worlds / physical address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum World {
    /// The normal world (host OS, non-confidential VMs).
    NonSecure,
    /// The TrustZone secure world.
    Secure,
    /// The realm world (confidential VMs, RMM).
    Realm,
    /// The root world (EL3 monitor).
    Root,
}

/// Fine-grained state of a granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GranuleState {
    /// Usable by its world; for the realm world this means "delegated but
    /// not yet assigned to a specific realm".
    Undelegated,
    /// Delegated to the realm world, unassigned (`DELEGATED`).
    Delegated,
    /// Assigned to realm `rd` as data or table memory.
    Assigned {
        /// Realm descriptor (which realm owns the granule).
        rd: u32,
    },
}

/// Errors raised by GPT operations, mirroring RMI return codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GranuleError {
    /// Granule index beyond the table.
    OutOfRange(PageNum),
    /// Operation requires a different world.
    WrongWorld(PageNum, World),
    /// Operation requires a different granule state.
    WrongState(PageNum),
    /// Hardware Granule Protection Fault: access from the wrong world.
    ProtectionFault(PageNum, World),
}

impl fmt::Display for GranuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GranuleError::OutOfRange(p) => write!(f, "gpt: granule {p} out of range"),
            GranuleError::WrongWorld(p, w) => write!(f, "gpt: granule {p} is in world {w:?}"),
            GranuleError::WrongState(p) => write!(f, "gpt: granule {p} in wrong state"),
            GranuleError::ProtectionFault(p, w) => {
                write!(f, "gpt: protection fault on {p} from world {w:?}")
            }
        }
    }
}

impl std::error::Error for GranuleError {}

/// The Granule Protection Table for one CCA host.
///
/// # Example
///
/// ```
/// use confbench_memsim::{GranuleTable, PageNum, World};
///
/// let mut gpt = GranuleTable::new(8);
/// gpt.delegate(PageNum(0)).unwrap();           // host RMI: NS -> Realm
/// gpt.assign_to_realm(PageNum(0), 1).unwrap(); // RMM gives it to realm 1
/// assert!(gpt.check_access(PageNum(0), World::Realm).is_ok());
/// assert!(gpt.check_access(PageNum(0), World::NonSecure).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct GranuleTable {
    /// World and state through at least the highest granule ever written;
    /// the granules above, up to `granules`, are non-secure and undelegated.
    world: Vec<World>,
    state: Vec<GranuleState>,
    granules: u64,
    checks: u64,
}

impl GranuleTable {
    /// Creates a GPT of `granules` entries, all non-secure and undelegated.
    pub fn new(granules: u64) -> Self {
        GranuleTable { world: Vec::new(), state: Vec::new(), granules, checks: 0 }
    }

    /// Number of granules covered.
    pub fn len(&self) -> u64 {
        self.granules
    }

    /// Whether the table covers zero granules.
    pub fn is_empty(&self) -> bool {
        self.granules == 0
    }

    /// GPT checks performed so far (perf-model input).
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Host RMI `GRANULE.DELEGATE`: move a non-secure granule to the realm
    /// world.
    ///
    /// # Errors
    ///
    /// [`GranuleError::WrongWorld`] unless currently non-secure.
    #[inline]
    pub fn delegate(&mut self, g: PageNum) -> Result<(), GranuleError> {
        let idx = self.index_mut(g)?;
        if self.world[idx] != World::NonSecure {
            return Err(GranuleError::WrongWorld(g, self.world[idx]));
        }
        self.world[idx] = World::Realm;
        self.state[idx] = GranuleState::Delegated;
        Ok(())
    }

    /// Host RMI `GRANULE.UNDELEGATE`: reclaim a delegated (unassigned) realm
    /// granule back to the normal world. The RMM wipes it first.
    ///
    /// # Errors
    ///
    /// [`GranuleError::WrongState`] unless the granule is `Delegated`.
    pub fn undelegate(&mut self, g: PageNum) -> Result<(), GranuleError> {
        let idx = self.index_mut(g)?;
        if self.world[idx] != World::Realm || self.state[idx] != GranuleState::Delegated {
            return Err(GranuleError::WrongState(g));
        }
        self.world[idx] = World::NonSecure;
        self.state[idx] = GranuleState::Undelegated;
        Ok(())
    }

    /// RMM operation: assign a delegated granule to realm `rd` (as data,
    /// RTT, or realm descriptor memory).
    ///
    /// # Errors
    ///
    /// [`GranuleError::WrongState`] unless the granule is `Delegated`.
    #[inline]
    pub fn assign_to_realm(&mut self, g: PageNum, rd: u32) -> Result<(), GranuleError> {
        let idx = self.index_mut(g)?;
        if self.world[idx] != World::Realm || self.state[idx] != GranuleState::Delegated {
            return Err(GranuleError::WrongState(g));
        }
        self.state[idx] = GranuleState::Assigned { rd };
        Ok(())
    }

    /// RMM operation: release a realm's granule back to `Delegated`.
    ///
    /// # Errors
    ///
    /// [`GranuleError::WrongState`] unless assigned to `rd`.
    pub fn release_from_realm(&mut self, g: PageNum, rd: u32) -> Result<(), GranuleError> {
        let idx = self.index_mut(g)?;
        if self.state[idx] != (GranuleState::Assigned { rd }) {
            return Err(GranuleError::WrongState(g));
        }
        self.state[idx] = GranuleState::Delegated;
        Ok(())
    }

    /// Hardware GPT check: may `from` world access granule `g`?
    ///
    /// Root accesses everything; otherwise worlds only access their own
    /// granules.
    ///
    /// # Errors
    ///
    /// [`GranuleError::ProtectionFault`] on a world mismatch.
    pub fn check_access(&mut self, g: PageNum, from: World) -> Result<(), GranuleError> {
        self.checks += 1;
        let idx = self.index(g)?;
        if from == World::Root || self.world_at(idx) == from {
            Ok(())
        } else {
            Err(GranuleError::ProtectionFault(g, from))
        }
    }

    /// The world a granule currently belongs to.
    ///
    /// # Errors
    ///
    /// [`GranuleError::OutOfRange`] if `g` is beyond the table.
    pub fn world_of(&self, g: PageNum) -> Result<World, GranuleError> {
        Ok(self.world_at(self.index(g)?))
    }

    /// The state of a granule.
    ///
    /// # Errors
    ///
    /// [`GranuleError::OutOfRange`] if `g` is beyond the table.
    pub fn state_of(&self, g: PageNum) -> Result<GranuleState, GranuleError> {
        Ok(self.state_at(self.index(g)?))
    }

    /// Number of granules assigned to realm `rd`.
    pub fn granules_of_realm(&self, rd: u32) -> u64 {
        self.state.iter().filter(|s| **s == GranuleState::Assigned { rd }).count() as u64
    }

    /// Canonical per-granule snapshot, for state-snapshotting (model
    /// checking).
    pub fn snapshot(&self) -> Vec<(World, GranuleState)> {
        (0..self.granules as usize).map(|idx| (self.world_at(idx), self.state_at(idx))).collect()
    }

    /// Rebuilds a GPT from a [`GranuleTable::snapshot`]. The checks counter
    /// restarts at zero; it is perf-model state, not security state.
    pub fn from_snapshot(snapshot: &[(World, GranuleState)]) -> Self {
        GranuleTable {
            world: snapshot.iter().map(|(w, _)| *w).collect(),
            state: snapshot.iter().map(|(_, s)| *s).collect(),
            granules: snapshot.len() as u64,
            checks: 0,
        }
    }

    fn index(&self, g: PageNum) -> Result<usize, GranuleError> {
        if g.0 < self.granules {
            Ok(g.0 as usize)
        } else {
            Err(GranuleError::OutOfRange(g))
        }
    }

    /// [`GranuleTable::index`], with the table materialized through `g`.
    #[inline]
    fn index_mut(&mut self, g: PageNum) -> Result<usize, GranuleError> {
        let idx = g.0 as usize;
        if idx >= self.world.len() {
            self.grow_to(g)?;
        }
        Ok(idx)
    }

    /// Materializes the table through `g`, doubling, so that a run of first
    /// writes costs O(1) a granule.
    #[cold]
    fn grow_to(&mut self, g: PageNum) -> Result<(), GranuleError> {
        let idx = self.index(g)?;
        let len = (idx + 1).max(2 * self.world.len()).min(self.granules as usize);
        self.world.resize(len, World::NonSecure);
        self.state.resize(len, GranuleState::Undelegated);
        Ok(())
    }

    fn world_at(&self, idx: usize) -> World {
        self.world.get(idx).copied().unwrap_or(World::NonSecure)
    }

    fn state_at(&self, idx: usize) -> GranuleState {
        self.state.get(idx).copied().unwrap_or(GranuleState::Undelegated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegate_assign_access() {
        let mut gpt = GranuleTable::new(4);
        gpt.delegate(PageNum(0)).unwrap();
        gpt.assign_to_realm(PageNum(0), 7).unwrap();
        gpt.check_access(PageNum(0), World::Realm).unwrap();
        assert!(matches!(
            gpt.check_access(PageNum(0), World::NonSecure),
            Err(GranuleError::ProtectionFault(_, World::NonSecure))
        ));
    }

    #[test]
    fn root_accesses_everything() {
        let mut gpt = GranuleTable::new(2);
        gpt.delegate(PageNum(0)).unwrap();
        gpt.check_access(PageNum(0), World::Root).unwrap();
        gpt.check_access(PageNum(1), World::Root).unwrap();
    }

    #[test]
    fn cannot_delegate_twice() {
        let mut gpt = GranuleTable::new(2);
        gpt.delegate(PageNum(0)).unwrap();
        assert!(matches!(gpt.delegate(PageNum(0)), Err(GranuleError::WrongWorld(_, World::Realm))));
    }

    #[test]
    fn cannot_undelegate_assigned_granule() {
        let mut gpt = GranuleTable::new(2);
        gpt.delegate(PageNum(0)).unwrap();
        gpt.assign_to_realm(PageNum(0), 1).unwrap();
        assert_eq!(gpt.undelegate(PageNum(0)), Err(GranuleError::WrongState(PageNum(0))));
        gpt.release_from_realm(PageNum(0), 1).unwrap();
        gpt.undelegate(PageNum(0)).unwrap();
        assert_eq!(gpt.world_of(PageNum(0)).unwrap(), World::NonSecure);
    }

    #[test]
    fn release_requires_matching_realm() {
        let mut gpt = GranuleTable::new(2);
        gpt.delegate(PageNum(0)).unwrap();
        gpt.assign_to_realm(PageNum(0), 1).unwrap();
        assert_eq!(
            gpt.release_from_realm(PageNum(0), 2),
            Err(GranuleError::WrongState(PageNum(0)))
        );
    }

    #[test]
    fn realm_accounting() {
        let mut gpt = GranuleTable::new(8);
        for i in 0..4 {
            gpt.delegate(PageNum(i)).unwrap();
        }
        gpt.assign_to_realm(PageNum(0), 1).unwrap();
        gpt.assign_to_realm(PageNum(1), 1).unwrap();
        gpt.assign_to_realm(PageNum(2), 2).unwrap();
        assert_eq!(gpt.granules_of_realm(1), 2);
        assert_eq!(gpt.granules_of_realm(2), 1);
    }

    #[test]
    fn out_of_range() {
        let mut gpt = GranuleTable::new(1);
        assert_eq!(gpt.delegate(PageNum(1)), Err(GranuleError::OutOfRange(PageNum(1))));
        assert!(gpt.world_of(PageNum(5)).is_err());
    }

    #[test]
    fn granules_never_written_read_as_non_secure_and_undelegated() {
        let mut gpt = GranuleTable::new(8);
        gpt.delegate(PageNum(2)).unwrap();
        assert_eq!(gpt.world_of(PageNum(7)), Ok(World::NonSecure));
        assert_eq!(gpt.state_of(PageNum(7)), Ok(GranuleState::Undelegated));
        gpt.check_access(PageNum(6), World::NonSecure).unwrap();
        let snapshot = gpt.snapshot();
        assert_eq!(snapshot.len(), 8, "one entry per covered granule");
        assert_eq!(snapshot[2], (World::Realm, GranuleState::Delegated));
        assert_eq!(snapshot[7], (World::NonSecure, GranuleState::Undelegated));
        assert_eq!(GranuleTable::from_snapshot(&snapshot).snapshot(), snapshot);
        assert_eq!(gpt.delegate(PageNum(8)), Err(GranuleError::OutOfRange(PageNum(8))));
    }

    #[test]
    fn check_counter() {
        let mut gpt = GranuleTable::new(2);
        let _ = gpt.check_access(PageNum(0), World::NonSecure);
        let _ = gpt.check_access(PageNum(1), World::Secure);
        assert_eq!(gpt.checks(), 2);
    }
}
