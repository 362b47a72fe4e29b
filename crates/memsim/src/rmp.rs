//! AMD SEV-SNP Reverse Map Table model.
//!
//! The RMP holds one entry per system physical page and is consulted by
//! hardware on every nested-page-table walk. It enforces that a page is used
//! only by its owner and only after the guest has issued `PVALIDATE` —
//! blocking the remapping attacks plain SEV suffered from (paper §II).

use std::fmt;

use crate::page::PageNum;

/// Owner of a physical page in the RMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RmpOwner {
    /// The untrusted hypervisor (default state).
    Hypervisor,
    /// A guest VM, identified by its ASID.
    Guest {
        /// Address-space identifier of the owning SNP guest.
        asid: u32,
    },
}

/// One RMP entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RmpEntry {
    /// Current owner.
    pub owner: RmpOwner,
    /// Whether the owning guest has issued `PVALIDATE` on the page.
    pub validated: bool,
    /// Virtual Machine Privilege Level access mask (bit `i` set = VMPL `i`
    /// may access). SNP supports four VMPLs for intra-guest privilege
    /// separation (paper §II).
    pub vmpl_mask: u8,
}

impl RmpEntry {
    const HYPERVISOR: RmpEntry =
        RmpEntry { owner: RmpOwner::Hypervisor, validated: false, vmpl_mask: 0 };
}

/// Errors raised by RMP operations — each corresponds to a hardware
/// `#RMP`/`#VMEXIT` condition in real SNP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmpError {
    /// Page number beyond the table.
    OutOfRange(PageNum),
    /// Attempt to assign a page that already belongs to a guest.
    AlreadyAssigned(PageNum),
    /// Guest operation on a page it does not own.
    NotOwner(PageNum),
    /// `PVALIDATE` on an already-validated page (double validation).
    DoubleValidation(PageNum),
    /// Guest data access to a page it has not validated.
    NotValidated(PageNum),
    /// Access denied by the VMPL permission mask.
    VmplDenied(PageNum),
}

impl fmt::Display for RmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RmpError::OutOfRange(p) => write!(f, "rmp: page {p} out of range"),
            RmpError::AlreadyAssigned(p) => write!(f, "rmp: page {p} already assigned"),
            RmpError::NotOwner(p) => write!(f, "rmp: caller does not own page {p}"),
            RmpError::DoubleValidation(p) => write!(f, "rmp: page {p} already validated"),
            RmpError::NotValidated(p) => write!(f, "rmp: page {p} not validated"),
            RmpError::VmplDenied(p) => write!(f, "rmp: vmpl denies access to page {p}"),
        }
    }
}

impl std::error::Error for RmpError {}

/// The Reverse Map Table for one SNP host.
///
/// # Example
///
/// ```
/// use confbench_memsim::{PageNum, Rmp};
///
/// let mut rmp = Rmp::new(8);
/// rmp.assign(PageNum(0), 1).unwrap();
/// rmp.pvalidate(PageNum(0), 1).unwrap();
/// rmp.reclaim(PageNum(0)).unwrap();
/// // After reclaim the hypervisor owns the page again and validation is gone.
/// assert!(rmp.check_guest_access(PageNum(0), 1).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Rmp {
    /// Entries through at least the highest page ever written; the pages
    /// above, up to `pages`, are hypervisor-owned.
    entries: Vec<RmpEntry>,
    pages: u64,
    /// Count of RMP checks performed (feeds the perf model: RMP walks have a
    /// small per-access cost on TLB miss).
    checks: u64,
}

impl Rmp {
    /// Creates an RMP covering `pages` physical pages, all hypervisor-owned.
    pub fn new(pages: u64) -> Self {
        Rmp { entries: Vec::new(), pages, checks: 0 }
    }

    /// Number of pages covered.
    pub fn len(&self) -> u64 {
        self.pages
    }

    /// Whether the table covers zero pages.
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// Total RMP checks performed so far (perf-model input).
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Reads an entry.
    ///
    /// # Errors
    ///
    /// [`RmpError::OutOfRange`] if `page` is beyond the table.
    pub fn entry(&self, page: PageNum) -> Result<RmpEntry, RmpError> {
        if page.0 >= self.pages {
            return Err(RmpError::OutOfRange(page));
        }
        Ok(self.entries.get(page.0 as usize).copied().unwrap_or(RmpEntry::HYPERVISOR))
    }

    /// Hypervisor operation `RMPUPDATE`: assign a hypervisor-owned page to
    /// guest `asid` (unvalidated, all VMPLs permitted).
    ///
    /// # Errors
    ///
    /// [`RmpError::AlreadyAssigned`] if a guest already owns the page.
    #[inline]
    pub fn assign(&mut self, page: PageNum, asid: u32) -> Result<(), RmpError> {
        let e = self.entry_mut(page)?;
        if e.owner != RmpOwner::Hypervisor {
            return Err(RmpError::AlreadyAssigned(page));
        }
        *e = RmpEntry { owner: RmpOwner::Guest { asid }, validated: false, vmpl_mask: 0b1111 };
        Ok(())
    }

    /// Guest instruction `PVALIDATE`: the owning guest marks the page valid.
    ///
    /// # Errors
    ///
    /// [`RmpError::NotOwner`] if `asid` does not own the page;
    /// [`RmpError::DoubleValidation`] if already validated (real SNP guests
    /// treat this as a potential remapping attack).
    #[inline]
    pub fn pvalidate(&mut self, page: PageNum, asid: u32) -> Result<(), RmpError> {
        let e = self.entry_mut(page)?;
        if e.owner != (RmpOwner::Guest { asid }) {
            return Err(RmpError::NotOwner(page));
        }
        if e.validated {
            return Err(RmpError::DoubleValidation(page));
        }
        e.validated = true;
        Ok(())
    }

    /// Restricts which VMPLs may access the page (guest VMPL0 operation
    /// `RMPADJUST`).
    ///
    /// # Errors
    ///
    /// [`RmpError::NotOwner`] if `asid` does not own the page.
    pub fn rmpadjust(&mut self, page: PageNum, asid: u32, vmpl_mask: u8) -> Result<(), RmpError> {
        let e = self.entry_mut(page)?;
        if e.owner != (RmpOwner::Guest { asid }) {
            return Err(RmpError::NotOwner(page));
        }
        e.vmpl_mask = vmpl_mask & 0b1111;
        Ok(())
    }

    /// Hypervisor reclaims a page from a guest (e.g. on teardown). Clears
    /// ownership and validation.
    ///
    /// # Errors
    ///
    /// [`RmpError::OutOfRange`] if `page` is beyond the table.
    pub fn reclaim(&mut self, page: PageNum) -> Result<(), RmpError> {
        let e = self.entry_mut(page)?;
        *e = RmpEntry::HYPERVISOR;
        Ok(())
    }

    /// Hardware check on a guest data access at VMPL 0.
    ///
    /// # Errors
    ///
    /// Fails when the guest does not own the page or has not validated it.
    pub fn check_guest_access(&mut self, page: PageNum, asid: u32) -> Result<(), RmpError> {
        self.check_guest_access_vmpl(page, asid, 0)
    }

    /// Hardware check on a guest data access from a given VMPL.
    ///
    /// # Errors
    ///
    /// As [`Rmp::check_guest_access`], plus [`RmpError::VmplDenied`] when the
    /// VMPL mask excludes `vmpl`.
    pub fn check_guest_access_vmpl(
        &mut self,
        page: PageNum,
        asid: u32,
        vmpl: u8,
    ) -> Result<(), RmpError> {
        self.checks += 1;
        let e = self.entry(page)?;
        if e.owner != (RmpOwner::Guest { asid }) {
            return Err(RmpError::NotOwner(page));
        }
        if !e.validated {
            return Err(RmpError::NotValidated(page));
        }
        if vmpl > 3 || e.vmpl_mask & (1 << vmpl) == 0 {
            return Err(RmpError::VmplDenied(page));
        }
        Ok(())
    }

    /// Hardware check on a *hypervisor* write: writing guest-owned pages is
    /// an RMP violation (the integrity guarantee SNP adds over SEV).
    ///
    /// # Errors
    ///
    /// [`RmpError::NotOwner`] when a guest owns the page.
    pub fn check_host_write(&mut self, page: PageNum) -> Result<(), RmpError> {
        self.checks += 1;
        let e = self.entry(page)?;
        match e.owner {
            RmpOwner::Hypervisor => Ok(()),
            RmpOwner::Guest { .. } => Err(RmpError::NotOwner(page)),
        }
    }

    /// Number of pages currently owned by `asid`.
    pub fn pages_owned_by(&self, asid: u32) -> u64 {
        self.entries.iter().filter(|e| e.owner == RmpOwner::Guest { asid }).count() as u64
    }

    /// The full entry table, one entry per covered page, for
    /// state-snapshotting (model checking).
    pub fn entries(&self) -> Vec<RmpEntry> {
        let mut entries = self.entries.clone();
        entries.resize(self.pages as usize, RmpEntry::HYPERVISOR);
        entries
    }

    /// Rebuilds an RMP from a snapshot previously taken via
    /// [`Rmp::entries`]. The checks counter restarts at zero; it is
    /// perf-model state, not security state.
    pub fn from_entries(entries: Vec<RmpEntry>) -> Self {
        Rmp { pages: entries.len() as u64, entries, checks: 0 }
    }

    /// The entry of a covered page, materializing the table through it.
    #[inline]
    fn entry_mut(&mut self, page: PageNum) -> Result<&mut RmpEntry, RmpError> {
        let at = page.0 as usize;
        if at >= self.entries.len() {
            self.grow_to(page)?;
        }
        self.entries.get_mut(at).ok_or(RmpError::OutOfRange(page))
    }

    /// Materializes the table through `page`, doubling, so that a run of
    /// first writes costs O(1) a page.
    #[cold]
    fn grow_to(&mut self, page: PageNum) -> Result<(), RmpError> {
        if page.0 >= self.pages {
            return Err(RmpError::OutOfRange(page));
        }
        let len = (page.0 as usize + 1).max(2 * self.entries.len()).min(self.pages as usize);
        self.entries.resize(len, RmpEntry::HYPERVISOR);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_assign_validate_access() {
        let mut rmp = Rmp::new(4);
        rmp.assign(PageNum(1), 5).unwrap();
        // Access before PVALIDATE faults.
        assert_eq!(rmp.check_guest_access(PageNum(1), 5), Err(RmpError::NotValidated(PageNum(1))));
        rmp.pvalidate(PageNum(1), 5).unwrap();
        rmp.check_guest_access(PageNum(1), 5).unwrap();
    }

    #[test]
    fn no_double_assignment() {
        let mut rmp = Rmp::new(4);
        rmp.assign(PageNum(0), 1).unwrap();
        assert_eq!(rmp.assign(PageNum(0), 2), Err(RmpError::AlreadyAssigned(PageNum(0))));
    }

    #[test]
    fn no_double_validation() {
        let mut rmp = Rmp::new(4);
        rmp.assign(PageNum(0), 1).unwrap();
        rmp.pvalidate(PageNum(0), 1).unwrap();
        assert_eq!(rmp.pvalidate(PageNum(0), 1), Err(RmpError::DoubleValidation(PageNum(0))));
    }

    #[test]
    fn cross_guest_isolation() {
        let mut rmp = Rmp::new(4);
        rmp.assign(PageNum(2), 1).unwrap();
        rmp.pvalidate(PageNum(2), 1).unwrap();
        assert_eq!(rmp.check_guest_access(PageNum(2), 2), Err(RmpError::NotOwner(PageNum(2))));
        assert_eq!(rmp.pvalidate(PageNum(2), 2), Err(RmpError::NotOwner(PageNum(2))));
    }

    #[test]
    fn host_cannot_write_guest_pages() {
        let mut rmp = Rmp::new(4);
        rmp.check_host_write(PageNum(3)).unwrap();
        rmp.assign(PageNum(3), 9).unwrap();
        assert_eq!(rmp.check_host_write(PageNum(3)), Err(RmpError::NotOwner(PageNum(3))));
    }

    #[test]
    fn reclaim_resets_state() {
        let mut rmp = Rmp::new(4);
        rmp.assign(PageNum(0), 1).unwrap();
        rmp.pvalidate(PageNum(0), 1).unwrap();
        rmp.reclaim(PageNum(0)).unwrap();
        assert_eq!(rmp.entry(PageNum(0)).unwrap().owner, RmpOwner::Hypervisor);
        // Page can be assigned again, unvalidated.
        rmp.assign(PageNum(0), 2).unwrap();
        assert!(!rmp.entry(PageNum(0)).unwrap().validated);
    }

    #[test]
    fn vmpl_mask_enforced() {
        let mut rmp = Rmp::new(4);
        rmp.assign(PageNum(0), 1).unwrap();
        rmp.pvalidate(PageNum(0), 1).unwrap();
        rmp.rmpadjust(PageNum(0), 1, 0b0001).unwrap(); // VMPL0 only
        rmp.check_guest_access_vmpl(PageNum(0), 1, 0).unwrap();
        assert_eq!(
            rmp.check_guest_access_vmpl(PageNum(0), 1, 2),
            Err(RmpError::VmplDenied(PageNum(0)))
        );
        assert_eq!(
            rmp.check_guest_access_vmpl(PageNum(0), 1, 7),
            Err(RmpError::VmplDenied(PageNum(0)))
        );
    }

    #[test]
    fn out_of_range_detected() {
        let mut rmp = Rmp::new(2);
        assert_eq!(rmp.assign(PageNum(2), 1), Err(RmpError::OutOfRange(PageNum(2))));
        assert_eq!(rmp.entry(PageNum(99)), Err(RmpError::OutOfRange(PageNum(99))));
    }

    #[test]
    fn pages_never_written_read_as_hypervisor_owned() {
        let mut rmp = Rmp::new(8);
        rmp.assign(PageNum(5), 1).unwrap();
        assert_eq!(rmp.entry(PageNum(7)), Ok(RmpEntry::HYPERVISOR));
        rmp.check_host_write(PageNum(6)).unwrap();
        let entries = rmp.entries();
        assert_eq!(entries.len(), 8, "one entry per covered page");
        assert_eq!(entries.iter().filter(|e| **e == RmpEntry::HYPERVISOR).count(), 7);
        assert_eq!(Rmp::from_entries(entries.clone()).entries(), entries);
        assert_eq!(rmp.assign(PageNum(8), 1), Err(RmpError::OutOfRange(PageNum(8))));
    }

    #[test]
    fn checks_counter_increments() {
        let mut rmp = Rmp::new(2);
        rmp.assign(PageNum(0), 1).unwrap();
        rmp.pvalidate(PageNum(0), 1).unwrap();
        let _ = rmp.check_guest_access(PageNum(0), 1);
        let _ = rmp.check_host_write(PageNum(1));
        assert_eq!(rmp.checks(), 2);
    }

    #[test]
    fn ownership_count() {
        let mut rmp = Rmp::new(8);
        for i in 0..3 {
            rmp.assign(PageNum(i), 1).unwrap();
        }
        rmp.assign(PageNum(5), 2).unwrap();
        assert_eq!(rmp.pages_owned_by(1), 3);
        assert_eq!(rmp.pages_owned_by(2), 1);
        assert_eq!(rmp.pages_owned_by(3), 0);
    }
}
