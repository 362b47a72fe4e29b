//! Intel TDX Secure-EPT model.
//!
//! A trust domain's private memory is mapped by a Secure EPT that only the
//! TDX module may edit. The VMM *adds* pages (`TDH.MEM.PAGE.ADD` at build
//! time, `TDH.MEM.PAGE.AUG` at run time) and the guest must *accept* each
//! augmented page (`TDG.MEM.PAGE.ACCEPT`) before first use — acceptance is
//! where TDX charges its page-initialization cost (zeroing + integrity
//! metadata). GPAs with the **shared bit** set bypass the SEPT and map
//! untrusted shared memory (used for the swiotlb bounce buffers).

use std::fmt;

use crate::page::PageNum;

/// The GPA bit distinguishing shared (untrusted) from private mappings.
/// Real TDX uses the topmost implemented physical-address bit; the model pins
/// bit 51.
pub const SHARED_GPA_BIT: u64 = 1 << 51;

/// Pages per leaf table, as in an EPT's last level.
const LEAF_PAGES: usize = 512;

/// Tables of [`LEAF_PAGES`] consecutive pages, each allocated when a page in
/// it is first written, found by their sorted keys (`page / LEAF_PAGES`):
/// the leaf the last write went to first, since pages come in runs, then by
/// binary search. Memory follows the range mapped, not the address value; a
/// TD of the figures touches a handful of leaves.
#[derive(Debug, Clone, Default)]
struct Leaves<L> {
    keys: Vec<u64>,
    leaves: Vec<L>,
    last: usize,
}

impl<L> Leaves<L> {
    #[inline]
    fn find(&self, page: u64) -> (Result<usize, usize>, usize) {
        let (key, slot) = (page / LEAF_PAGES as u64, (page % LEAF_PAGES as u64) as usize);
        let at = match self.keys.get(self.last) {
            Some(&last) if last == key => Ok(self.last),
            _ => self.keys.binary_search(&key),
        };
        (at, slot)
    }

    #[inline]
    fn get(&self, page: u64) -> Option<(&L, usize)> {
        let (at, slot) = self.find(page);
        Some((&self.leaves[at.ok()?], slot))
    }

    #[inline]
    fn get_mut(&mut self, page: u64) -> Option<(&mut L, usize)> {
        let (at, slot) = self.find(page);
        self.last = at.ok()?;
        Some((&mut self.leaves[self.last], slot))
    }

    #[inline]
    fn get_or_insert_with(&mut self, page: u64, new: impl FnOnce() -> L) -> (&mut L, usize) {
        let (at, slot) = self.find(page);
        self.last = at.unwrap_or_else(|at| {
            self.keys.insert(at, page / LEAF_PAGES as u64);
            self.leaves.insert(at, new());
            at
        });
        (&mut self.leaves[self.last], slot)
    }
}

/// One leaf of GPA entries: the backing HPA and state of each mapped page.
type EntryLeaf = Box<[Option<(PageNum, SeptPageState)>]>;

fn new_entry_leaf() -> EntryLeaf {
    vec![None; LEAF_PAGES].into_boxed_slice()
}

/// One leaf of HPA-ownership bits.
type HpaLeaf = [u64; LEAF_PAGES / 64];

impl Leaves<HpaLeaf> {
    /// Marks `hpa` as backing a mapping; false if it already did.
    #[inline]
    fn claim(&mut self, hpa: PageNum) -> bool {
        let (bits, slot) = self.get_or_insert_with(hpa.0, Default::default);
        let (word, bit) = (&mut bits[slot / 64], 1u64 << (slot % 64));
        let free = *word & bit == 0;
        *word |= bit;
        free
    }

    fn release(&mut self, hpa: PageNum) {
        if let Some((bits, slot)) = self.get_mut(hpa.0) {
            bits[slot / 64] &= !(1u64 << (slot % 64));
        }
    }
}

/// Lifecycle state of a private page in the SEPT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeptPageState {
    /// Mapped by the VMM, not yet accepted by the guest (`PENDING`).
    Pending,
    /// Accepted by the guest and usable (`MAPPED`).
    Mapped,
    /// Blocked for removal (`BLOCKED`, during memory reclaim).
    Blocked,
}

/// Errors raised by SEPT operations, mirroring TDX-module status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeptError {
    /// GPA already mapped.
    AlreadyMapped(PageNum),
    /// GPA not present in the SEPT.
    NotMapped(PageNum),
    /// `ACCEPT` of a page that is not in `Pending` state.
    NotPending(PageNum),
    /// Guest touched a `Pending` page without accepting it (a #VE in real
    /// TDX).
    PendingAccess(PageNum),
    /// Access to a `Blocked` page.
    BlockedAccess(PageNum),
    /// Operation used a shared-bit GPA where a private GPA is required.
    SharedBitSet(PageNum),
    /// The host page already backs another private mapping in this SEPT.
    /// Mapping one HPA at two GPAs would make the page guest-valid under
    /// two owners — the aliasing the TDX module's PAMT forbids.
    HpaInUse(PageNum),
}

impl fmt::Display for SeptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeptError::AlreadyMapped(p) => write!(f, "sept: gpa {p} already mapped"),
            SeptError::NotMapped(p) => write!(f, "sept: gpa {p} not mapped"),
            SeptError::NotPending(p) => write!(f, "sept: gpa {p} not pending"),
            SeptError::PendingAccess(p) => write!(f, "sept: #VE, gpa {p} pending acceptance"),
            SeptError::BlockedAccess(p) => write!(f, "sept: gpa {p} blocked"),
            SeptError::SharedBitSet(p) => write!(f, "sept: gpa {p} has shared bit set"),
            SeptError::HpaInUse(p) => write!(f, "sept: hpa {p} already backs another mapping"),
        }
    }
}

impl std::error::Error for SeptError {}

/// The Secure EPT of one trust domain.
///
/// # Example
///
/// ```
/// use confbench_memsim::{PageNum, SecureEpt};
///
/// let mut sept = SecureEpt::new();
/// sept.aug(PageNum(0x100), PageNum(0x9000)).unwrap(); // VMM maps
/// assert!(sept.check_access(PageNum(0x100)).is_err()); // guest must accept
/// sept.accept(PageNum(0x100)).unwrap();
/// sept.check_access(PageNum(0x100)).unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct SecureEpt {
    entries: Leaves<EntryLeaf>,
    /// Mapped GPAs, any state.
    len: usize,
    /// Host pages currently backing a private mapping, one bit each.
    /// `aug`/`add` claim the HPA here and `remove` releases it, so one host
    /// page can never be guest-valid at two GPAs (found by the
    /// `confbench-mc` checker: `aug(gpa0, hpa)` then `aug(gpa1, hpa)` used
    /// to succeed).
    hpas_in_use: Leaves<HpaLeaf>,
    accepts: u64,
}

impl SecureEpt {
    /// Creates an empty SEPT.
    pub fn new() -> Self {
        SecureEpt::default()
    }

    /// Number of mapped GPAs (any state).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn entry(&self, gpa: PageNum) -> Option<(PageNum, SeptPageState)> {
        self.entries.get(gpa.0).and_then(|(leaf, slot)| leaf[slot])
    }

    #[inline]
    fn entry_mut(&mut self, gpa: PageNum) -> Option<&mut (PageNum, SeptPageState)> {
        self.entries.get_mut(gpa.0).and_then(|(leaf, slot)| leaf[slot].as_mut())
    }

    /// Number of `ACCEPT` operations performed (perf-model input: each costs
    /// a page-clear plus integrity-metadata setup).
    pub fn accepts(&self) -> u64 {
        self.accepts
    }

    /// VMM operation `TDH.MEM.PAGE.AUG`: map host page `hpa` at guest page
    /// `gpa`, leaving it pending guest acceptance.
    ///
    /// # Errors
    ///
    /// [`SeptError::SharedBitSet`] for shared-bit GPAs;
    /// [`SeptError::AlreadyMapped`] if the GPA is occupied;
    /// [`SeptError::HpaInUse`] if `hpa` already backs another mapping.
    #[inline]
    pub fn aug(&mut self, gpa: PageNum, hpa: PageNum) -> Result<(), SeptError> {
        self.map_new(gpa, hpa, SeptPageState::Pending)
    }

    /// Build-time operation `TDH.MEM.PAGE.ADD`: map and immediately accept
    /// (initial TD image pages are measured instead of accepted).
    ///
    /// # Errors
    ///
    /// As [`SecureEpt::aug`].
    pub fn add(&mut self, gpa: PageNum, hpa: PageNum) -> Result<(), SeptError> {
        self.map_new(gpa, hpa, SeptPageState::Mapped)
    }

    #[inline]
    fn map_new(
        &mut self,
        gpa: PageNum,
        hpa: PageNum,
        state: SeptPageState,
    ) -> Result<(), SeptError> {
        self.require_private(gpa)?;
        let (leaf, slot) = self.entries.get_or_insert_with(gpa.0, new_entry_leaf);
        if leaf[slot].is_some() {
            return Err(SeptError::AlreadyMapped(gpa));
        }
        if !self.hpas_in_use.claim(hpa) {
            return Err(SeptError::HpaInUse(hpa));
        }
        leaf[slot] = Some((hpa, state));
        self.len += 1;
        Ok(())
    }

    /// Guest operation `TDG.MEM.PAGE.ACCEPT`.
    ///
    /// # Errors
    ///
    /// [`SeptError::NotMapped`] for absent GPAs; [`SeptError::NotPending`]
    /// if the page is not awaiting acceptance.
    #[inline]
    pub fn accept(&mut self, gpa: PageNum) -> Result<(), SeptError> {
        self.require_private(gpa)?;
        match self.entry_mut(gpa) {
            None => Err(SeptError::NotMapped(gpa)),
            Some((_, state @ SeptPageState::Pending)) => {
                *state = SeptPageState::Mapped;
                self.accepts += 1;
                Ok(())
            }
            Some(_) => Err(SeptError::NotPending(gpa)),
        }
    }

    /// VMM operation `TDH.MEM.RANGE.BLOCK`: block a mapping prior to
    /// removal.
    ///
    /// # Errors
    ///
    /// [`SeptError::NotMapped`] for absent GPAs.
    pub fn block(&mut self, gpa: PageNum) -> Result<(), SeptError> {
        self.require_private(gpa)?;
        match self.entry_mut(gpa) {
            None => Err(SeptError::NotMapped(gpa)),
            Some((_, state)) => {
                *state = SeptPageState::Blocked;
                Ok(())
            }
        }
    }

    /// VMM operation `TDH.MEM.PAGE.REMOVE`: remove a blocked mapping.
    ///
    /// # Errors
    ///
    /// [`SeptError::NotMapped`] for absent GPAs; [`SeptError::NotPending`]
    /// (reused for "wrong state") if the page was not blocked first.
    pub fn remove(&mut self, gpa: PageNum) -> Result<PageNum, SeptError> {
        self.require_private(gpa)?;
        let Some((leaf, slot)) = self.entries.get_mut(gpa.0) else {
            return Err(SeptError::NotMapped(gpa));
        };
        match leaf[slot] {
            None => Err(SeptError::NotMapped(gpa)),
            Some((hpa, SeptPageState::Blocked)) => {
                leaf[slot] = None;
                self.len -= 1;
                self.hpas_in_use.release(hpa);
                Ok(hpa)
            }
            Some(_) => Err(SeptError::NotPending(gpa)),
        }
    }

    /// Hardware walk for a guest access to a private GPA.
    ///
    /// # Errors
    ///
    /// [`SeptError::PendingAccess`] (a #VE) for pending pages,
    /// [`SeptError::BlockedAccess`] for blocked ones, and
    /// [`SeptError::NotMapped`] for absent ones.
    pub fn check_access(&self, gpa: PageNum) -> Result<PageNum, SeptError> {
        if gpa.0 & SHARED_GPA_BIT != 0 {
            // Shared GPAs bypass the SEPT: identity-style mapping into
            // untrusted memory.
            return Ok(PageNum(gpa.0 & !SHARED_GPA_BIT));
        }
        match self.entry(gpa) {
            None => Err(SeptError::NotMapped(gpa)),
            Some((hpa, SeptPageState::Mapped)) => Ok(hpa),
            Some((_, SeptPageState::Pending)) => Err(SeptError::PendingAccess(gpa)),
            Some((_, SeptPageState::Blocked)) => Err(SeptError::BlockedAccess(gpa)),
        }
    }

    /// Current state of a GPA, if mapped.
    pub fn state(&self, gpa: PageNum) -> Option<SeptPageState> {
        self.entry(gpa).map(|(_, s)| s)
    }

    /// Canonical snapshot of the table, sorted by GPA, for
    /// state-snapshotting (model checking).
    pub fn snapshot(&self) -> Vec<(PageNum, PageNum, SeptPageState)> {
        let leaves = self.entries.keys.iter().zip(&self.entries.leaves);
        leaves
            .flat_map(|(key, leaf)| {
                let base = key * LEAF_PAGES as u64;
                let mapped = leaf.iter().enumerate().filter_map(|(slot, e)| e.map(|e| (slot, e)));
                mapped.map(move |(slot, (hpa, s))| (PageNum(base + slot as u64), hpa, s))
            })
            .collect()
    }

    /// Rebuilds a SEPT from a [`SecureEpt::snapshot`]. The accepts counter
    /// restarts at zero; it is perf-model state, not security state.
    pub fn from_snapshot(snapshot: &[(PageNum, PageNum, SeptPageState)]) -> Self {
        let mut sept = SecureEpt::new();
        for &(gpa, hpa, state) in snapshot {
            let (leaf, slot) = sept.entries.get_or_insert_with(gpa.0, new_entry_leaf);
            leaf[slot] = Some((hpa, state));
            sept.len += 1;
            sept.hpas_in_use.claim(hpa);
        }
        sept
    }

    fn require_private(&self, gpa: PageNum) -> Result<(), SeptError> {
        if gpa.0 & SHARED_GPA_BIT != 0 {
            Err(SeptError::SharedBitSet(gpa))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_crypto::SplitMix64;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn aug_accept_access_lifecycle() {
        let mut sept = SecureEpt::new();
        sept.aug(PageNum(1), PageNum(100)).unwrap();
        assert_eq!(sept.state(PageNum(1)), Some(SeptPageState::Pending));
        assert_eq!(sept.check_access(PageNum(1)), Err(SeptError::PendingAccess(PageNum(1))));
        sept.accept(PageNum(1)).unwrap();
        assert_eq!(sept.check_access(PageNum(1)), Ok(PageNum(100)));
        assert_eq!(sept.accepts(), 1);
    }

    #[test]
    fn add_skips_acceptance() {
        let mut sept = SecureEpt::new();
        sept.add(PageNum(2), PageNum(200)).unwrap();
        assert_eq!(sept.check_access(PageNum(2)), Ok(PageNum(200)));
        assert_eq!(sept.accepts(), 0);
    }

    #[test]
    fn double_map_rejected() {
        let mut sept = SecureEpt::new();
        sept.aug(PageNum(1), PageNum(100)).unwrap();
        assert_eq!(sept.aug(PageNum(1), PageNum(101)), Err(SeptError::AlreadyMapped(PageNum(1))));
        assert_eq!(sept.add(PageNum(1), PageNum(101)), Err(SeptError::AlreadyMapped(PageNum(1))));
    }

    #[test]
    fn double_accept_rejected() {
        let mut sept = SecureEpt::new();
        sept.aug(PageNum(1), PageNum(100)).unwrap();
        sept.accept(PageNum(1)).unwrap();
        assert_eq!(sept.accept(PageNum(1)), Err(SeptError::NotPending(PageNum(1))));
    }

    #[test]
    fn shared_gpa_bypasses_sept() {
        let sept = SecureEpt::new();
        let shared = PageNum(SHARED_GPA_BIT | 0x42);
        assert_eq!(sept.check_access(shared), Ok(PageNum(0x42)));
    }

    #[test]
    fn shared_bit_rejected_in_private_ops() {
        let mut sept = SecureEpt::new();
        let shared = PageNum(SHARED_GPA_BIT | 1);
        assert_eq!(sept.aug(shared, PageNum(0)), Err(SeptError::SharedBitSet(shared)));
        assert_eq!(sept.accept(shared), Err(SeptError::SharedBitSet(shared)));
    }

    #[test]
    fn block_then_remove() {
        let mut sept = SecureEpt::new();
        sept.add(PageNum(1), PageNum(100)).unwrap();
        // Cannot remove without blocking.
        assert_eq!(sept.remove(PageNum(1)), Err(SeptError::NotPending(PageNum(1))));
        sept.block(PageNum(1)).unwrap();
        assert_eq!(sept.check_access(PageNum(1)), Err(SeptError::BlockedAccess(PageNum(1))));
        assert_eq!(sept.remove(PageNum(1)), Ok(PageNum(100)));
        assert!(sept.is_empty());
    }

    #[test]
    fn unmapped_access_faults() {
        let sept = SecureEpt::new();
        assert_eq!(sept.check_access(PageNum(9)), Err(SeptError::NotMapped(PageNum(9))));
    }

    /// Regression for the aliasing bug the `confbench-mc` checker found:
    /// mapping one host page at two GPAs used to succeed, making the page
    /// guest-valid under two owners once both were accepted.
    #[test]
    fn hpa_aliasing_rejected() {
        let mut sept = SecureEpt::new();
        sept.aug(PageNum(1), PageNum(100)).unwrap();
        assert_eq!(sept.aug(PageNum(2), PageNum(100)), Err(SeptError::HpaInUse(PageNum(100))));
        assert_eq!(sept.add(PageNum(2), PageNum(100)), Err(SeptError::HpaInUse(PageNum(100))));
        // Still aliased after the first mapping is accepted.
        sept.accept(PageNum(1)).unwrap();
        assert_eq!(sept.aug(PageNum(2), PageNum(100)), Err(SeptError::HpaInUse(PageNum(100))));
        // A different host page is fine.
        sept.aug(PageNum(2), PageNum(101)).unwrap();
    }

    #[test]
    fn remove_releases_the_hpa() {
        let mut sept = SecureEpt::new();
        sept.add(PageNum(1), PageNum(100)).unwrap();
        sept.block(PageNum(1)).unwrap();
        assert_eq!(sept.remove(PageNum(1)), Ok(PageNum(100)));
        // The host page is free again and can back a new mapping.
        sept.aug(PageNum(2), PageNum(100)).unwrap();
    }

    /// Exhaustive (state × operation) table for a single GPA, including the
    /// repaired hpa-ownership dimension: `held` means another GPA already
    /// maps the host page the operation would use. Written out literally —
    /// independently of the implementation — so a rule change must be made
    /// twice to pass.
    #[test]
    fn every_state_operation_pair_matches_the_table() {
        use SeptPageState as P;

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum GpaState {
            Absent,
            Pending,
            Mapped,
            Blocked,
        }
        #[derive(Debug, Clone, Copy)]
        enum Op {
            Aug,
            Add,
            Accept,
            Block,
            Remove,
            Access,
        }
        const OPS: [Op; 6] = [Op::Aug, Op::Add, Op::Accept, Op::Block, Op::Remove, Op::Access];

        let gpa = PageNum(1);
        let hpa = PageNum(100);
        let other_gpa = PageNum(2);

        // What each (gpa-state, hpa-held, operation) triple must produce:
        // `Ok(next)` carries the resulting state of `gpa` (None = unmapped).
        let expected = |state: GpaState, held: bool, op: Op| -> Result<Option<P>, SeptError> {
            match (state, op) {
                (GpaState::Absent, Op::Aug) if held => Err(SeptError::HpaInUse(hpa)),
                (GpaState::Absent, Op::Add) if held => Err(SeptError::HpaInUse(hpa)),
                (GpaState::Absent, Op::Aug) => Ok(Some(P::Pending)),
                (GpaState::Absent, Op::Add) => Ok(Some(P::Mapped)),
                (GpaState::Absent, Op::Accept | Op::Block | Op::Remove | Op::Access) => {
                    Err(SeptError::NotMapped(gpa))
                }
                (_, Op::Aug | Op::Add) => Err(SeptError::AlreadyMapped(gpa)),
                (GpaState::Pending, Op::Accept) => Ok(Some(P::Mapped)),
                (GpaState::Pending, Op::Access) => Err(SeptError::PendingAccess(gpa)),
                (GpaState::Mapped | GpaState::Blocked, Op::Accept) => {
                    Err(SeptError::NotPending(gpa))
                }
                (_, Op::Block) => Ok(Some(P::Blocked)),
                (GpaState::Blocked, Op::Remove) => Ok(None),
                (GpaState::Pending | GpaState::Mapped, Op::Remove) => {
                    Err(SeptError::NotPending(gpa))
                }
                (GpaState::Mapped, Op::Access) => Ok(Some(P::Mapped)),
                (GpaState::Blocked, Op::Access) => Err(SeptError::BlockedAccess(gpa)),
            }
        };

        for state in [GpaState::Absent, GpaState::Pending, GpaState::Mapped, GpaState::Blocked] {
            // `held` only varies the Absent row: a present `gpa` already
            // owns its hpa, so aug/add fail on AlreadyMapped first.
            for held in [false, true] {
                if held && state != GpaState::Absent {
                    continue;
                }
                for op in OPS {
                    let mut sept = SecureEpt::new();
                    match state {
                        GpaState::Absent => {}
                        GpaState::Pending => sept.aug(gpa, hpa).unwrap(),
                        GpaState::Mapped => sept.add(gpa, hpa).unwrap(),
                        GpaState::Blocked => {
                            sept.add(gpa, hpa).unwrap();
                            sept.block(gpa).unwrap();
                        }
                    }
                    if held {
                        sept.aug(other_gpa, hpa).unwrap();
                    }
                    let got = match op {
                        Op::Aug => sept.aug(gpa, hpa).map(|()| sept.state(gpa)),
                        Op::Add => sept.add(gpa, hpa).map(|()| sept.state(gpa)),
                        Op::Accept => sept.accept(gpa).map(|()| sept.state(gpa)),
                        Op::Block => sept.block(gpa).map(|()| sept.state(gpa)),
                        Op::Remove => sept.remove(gpa).map(|_| sept.state(gpa)),
                        Op::Access => sept.check_access(gpa).map(|_| sept.state(gpa)),
                    };
                    assert_eq!(
                        got,
                        expected(state, held, op),
                        "({state:?}, held={held}, {op:?}) diverged from the table"
                    );
                }
            }
        }
    }

    #[test]
    fn snapshot_roundtrips() {
        let mut sept = SecureEpt::new();
        sept.aug(PageNum(3), PageNum(300)).unwrap();
        sept.add(PageNum(1), PageNum(100)).unwrap();
        let snap = sept.snapshot();
        assert_eq!(snap[0].0, PageNum(1), "snapshot is gpa-sorted");
        let back = SecureEpt::from_snapshot(&snap);
        assert_eq!(back.snapshot(), snap);
        // The rebuilt table still enforces hpa ownership.
        let mut back = back;
        assert_eq!(back.aug(PageNum(5), PageNum(100)), Err(SeptError::HpaInUse(PageNum(100))));
    }

    /// The reference model: the table as it was before the leaves, a hash
    /// map of GPA entries beside a hash set of claimed HPAs.
    #[derive(Default)]
    struct MapSept {
        entries: HashMap<u64, (PageNum, SeptPageState)>,
        hpas_in_use: HashSet<u64>,
        accepts: u64,
    }

    impl MapSept {
        fn require_private(gpa: PageNum) -> Result<(), SeptError> {
            match gpa.0 & SHARED_GPA_BIT {
                0 => Ok(()),
                _ => Err(SeptError::SharedBitSet(gpa)),
            }
        }

        fn map_new(
            &mut self,
            gpa: PageNum,
            hpa: PageNum,
            state: SeptPageState,
        ) -> Result<(), SeptError> {
            Self::require_private(gpa)?;
            if self.entries.contains_key(&gpa.0) {
                return Err(SeptError::AlreadyMapped(gpa));
            }
            if !self.hpas_in_use.insert(hpa.0) {
                return Err(SeptError::HpaInUse(hpa));
            }
            self.entries.insert(gpa.0, (hpa, state));
            Ok(())
        }

        fn accept(&mut self, gpa: PageNum) -> Result<(), SeptError> {
            Self::require_private(gpa)?;
            match self.entries.get_mut(&gpa.0) {
                None => Err(SeptError::NotMapped(gpa)),
                Some((_, state @ SeptPageState::Pending)) => {
                    *state = SeptPageState::Mapped;
                    self.accepts += 1;
                    Ok(())
                }
                Some(_) => Err(SeptError::NotPending(gpa)),
            }
        }

        fn block(&mut self, gpa: PageNum) -> Result<(), SeptError> {
            Self::require_private(gpa)?;
            match self.entries.get_mut(&gpa.0) {
                None => Err(SeptError::NotMapped(gpa)),
                Some((_, state)) => {
                    *state = SeptPageState::Blocked;
                    Ok(())
                }
            }
        }

        fn remove(&mut self, gpa: PageNum) -> Result<PageNum, SeptError> {
            Self::require_private(gpa)?;
            match self.entries.get(&gpa.0) {
                None => Err(SeptError::NotMapped(gpa)),
                Some(&(hpa, SeptPageState::Blocked)) => {
                    self.entries.remove(&gpa.0);
                    self.hpas_in_use.remove(&hpa.0);
                    Ok(hpa)
                }
                Some(_) => Err(SeptError::NotPending(gpa)),
            }
        }

        fn check_access(&self, gpa: PageNum) -> Result<PageNum, SeptError> {
            if gpa.0 & SHARED_GPA_BIT != 0 {
                return Ok(PageNum(gpa.0 & !SHARED_GPA_BIT));
            }
            match self.entries.get(&gpa.0) {
                None => Err(SeptError::NotMapped(gpa)),
                Some(&(hpa, SeptPageState::Mapped)) => Ok(hpa),
                Some((_, SeptPageState::Pending)) => Err(SeptError::PendingAccess(gpa)),
                Some((_, SeptPageState::Blocked)) => Err(SeptError::BlockedAccess(gpa)),
            }
        }

        fn snapshot(&self) -> Vec<(PageNum, PageNum, SeptPageState)> {
            let mut v: Vec<_> =
                self.entries.iter().map(|(gpa, &(hpa, s))| (PageNum(*gpa), hpa, s)).collect();
            v.sort_unstable_by_key(|(gpa, _, _)| gpa.0);
            v
        }
    }

    /// A page for the sweep: dense runs across a leaf boundary, pages far
    /// apart up to the bit below the shared bit, and shared-bit pages.
    fn arb_page(rng: &mut SplitMix64, dense_base: u64) -> PageNum {
        PageNum(match rng.next_below(8) {
            0..=3 => dense_base + rng.next_below(40),
            4 => rng.next_below(SHARED_GPA_BIT),
            5 => SHARED_GPA_BIT - 1 - rng.next_below(4),
            6 => SHARED_GPA_BIT | (dense_base + rng.next_below(40)),
            _ => rng.next_below(1 << 20),
        })
    }

    /// The leaves are the hash map: SplitMix64 streams of `aug`, `add`,
    /// `accept`, `block`, `remove` and `check_access` over dense, far-apart
    /// and shared-bit GPAs, with HPAs drawn from a pool small enough to
    /// alias (and, like GPAs, from anywhere below the shared bit), give
    /// equal results, and after every op an equal `state` of the GPA
    /// touched, `len` and `accepts`, and at the end of each case an equal
    /// GPA-sorted `snapshot`, from which `from_snapshot` rebuilds a table
    /// that snapshots the same again. Mutations tried by hand: `remove`
    /// keeping the HPA claimed — "op" (case 163); leaf keys taken as
    /// `page >> 8` while slots stay `% 512` — "snapshot" (case 0); the
    /// last-leaf check comparing `page >> 8` with the leaf's key —
    /// "snapshot" (case 78). A stale last-leaf index is not a mutation:
    /// the check compares keys, so it only costs the binary search.
    #[test]
    fn fuzz_sweep_dense_sept_equals_map_model() {
        use SeptPageState as P;
        let unit = |r: Result<(), SeptError>| r.map(|()| None);
        let (mut outcomes, mut removed) = (HashSet::new(), 0);
        for case in 0..confbench_crypto::fuzz::sweep_iters() as u64 {
            let mut rng = SplitMix64::new(0x5E97_0000 ^ case);
            // Dense runs straddle a leaf boundary every other case.
            let dense_base = (1 + rng.next_below(1 << 12)) * LEAF_PAGES as u64 - 20 * (case % 2);
            let hpa_pool: Vec<PageNum> = (0..12).map(|_| arb_page(&mut rng, 0x4_0000)).collect();
            let (mut dense, mut model) = (SecureEpt::new(), MapSept::default());
            for op in 0..1 + rng.next_below(96) {
                let gpa = arb_page(&mut rng, dense_base);
                let hpa = match rng.next_below(4) {
                    0 => PageNum(rng.next_below(SHARED_GPA_BIT)),
                    _ => hpa_pool[rng.next_below(hpa_pool.len() as u64) as usize],
                };
                let label = format!("case {case}, op {op}, gpa {gpa}, hpa {hpa}");
                let kind = rng.next_below(6);
                let (got, want) = match kind {
                    0 => (unit(dense.aug(gpa, hpa)), unit(model.map_new(gpa, hpa, P::Pending))),
                    1 => (unit(dense.add(gpa, hpa)), unit(model.map_new(gpa, hpa, P::Mapped))),
                    2 => (unit(dense.accept(gpa)), unit(model.accept(gpa))),
                    3 => (unit(dense.block(gpa)), unit(model.block(gpa))),
                    4 => (dense.remove(gpa).map(Some), model.remove(gpa).map(Some)),
                    _ => (dense.check_access(gpa).map(Some), model.check_access(gpa).map(Some)),
                };
                assert_eq!(got, want, "{label}: op");
                let model_state = model.entries.get(&gpa.0).map(|&(_, s)| s);
                assert_eq!(dense.state(gpa), model_state, "{label}: state");
                assert_eq!(dense.len(), model.entries.len(), "{label}: len");
                assert_eq!(dense.accepts(), model.accepts, "{label}: accepts");
                removed += usize::from(kind == 4 && got.is_ok());
                outcomes.insert(got.map(|_| ()).map_err(|e| std::mem::discriminant(&e)));
            }
            let snapshot = dense.snapshot();
            assert_eq!(snapshot, model.snapshot(), "case {case}: snapshot");
            assert_eq!(SecureEpt::from_snapshot(&snapshot).snapshot(), snapshot, "case {case}");
        }
        assert!(removed > 0, "no mapping was ever removed");
        // Ok, and all seven errors.
        assert_eq!(outcomes.len(), 8, "an outcome never occurred: {outcomes:?}");
    }
}
