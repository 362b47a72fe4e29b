//! Adapters binding the five TEE state machines to the [`Machine`] trait,
//! plus their standard small worlds and invariant sets.
//!
//! Each adapter snapshots the simulator into a canonical value (sorted
//! vectors, no hash maps), replays one operation through the *real*
//! implementation in `confbench-memsim`/`confbench-devio`, and snapshots
//! again — the checker never re-implements transition rules, so a divergence
//! between model and invariant is always a finding about the shipped code.
//!
//! The small worlds are the minimum that exhibits every cross-owner
//! interaction the invariants speak about: two pages/granules/GPAs, two
//! guests/realms, two host frames. Each world closes (no new states) within
//! the default depth bound, so the invariants hold for sequences of any
//! length.

use confbench_devio::{transition, TdispError, TdispOp, TdispState};
use confbench_fleet::{MigrationFsm, MigrationOp, MigrationPhase, SourceVm};
use confbench_memsim::{
    GranuleError, GranuleState, GranuleTable, PageNum, Rmp, RmpEntry, RmpError, RmpOwner,
    SecureEpt, SeptError, SeptPageState, World,
};

use crate::{Machine, Outcome, StateInvariant, StepInvariant};

fn rmp_code(e: RmpError) -> &'static str {
    match e {
        RmpError::OutOfRange(_) => "out-of-range",
        RmpError::AlreadyAssigned(_) => "already-assigned",
        RmpError::NotOwner(_) => "not-owner",
        RmpError::DoubleValidation(_) => "double-validation",
        RmpError::NotValidated(_) => "not-validated",
        RmpError::VmplDenied(_) => "vmpl-denied",
    }
}

/// One bound RMP operation in the small world.
#[derive(Debug, Clone, Copy)]
pub enum RmpOp {
    /// `RMPUPDATE`: hypervisor assigns `page` to `asid`.
    Assign {
        /// Target page.
        page: u64,
        /// Receiving guest.
        asid: u32,
    },
    /// `PVALIDATE` by `asid`.
    Pvalidate {
        /// Target page.
        page: u64,
        /// Issuing guest.
        asid: u32,
    },
    /// `RMPADJUST` setting the VMPL mask.
    Rmpadjust {
        /// Target page.
        page: u64,
        /// Issuing guest.
        asid: u32,
        /// New VMPL permission mask.
        mask: u8,
    },
    /// Hypervisor reclaim.
    Reclaim {
        /// Target page.
        page: u64,
    },
    /// Guest data access from a VMPL.
    GuestRead {
        /// Target page.
        page: u64,
        /// Accessing guest.
        asid: u32,
        /// Accessing privilege level.
        vmpl: u8,
    },
    /// Hypervisor write.
    HostWrite {
        /// Target page.
        page: u64,
    },
}

/// The AMD SNP Reverse Map Table in a small world.
pub struct RmpMachine {
    pages: u64,
    asids: Vec<u32>,
    masks: Vec<u8>,
    vmpls: Vec<u8>,
}

impl RmpMachine {
    /// Two pages, two guests, a restrictive and a permissive VMPL mask, and
    /// accesses from VMPL 0 and 1 — enough to reach every fault class.
    pub fn standard() -> Self {
        RmpMachine { pages: 2, asids: vec![1, 2], masks: vec![0b0001, 0b1111], vmpls: vec![0, 1] }
    }
}

impl Machine for RmpMachine {
    type State = Vec<RmpEntry>;
    type Op = RmpOp;

    fn name(&self) -> &'static str {
        "rmp"
    }

    fn initial(&self) -> Self::State {
        Rmp::new(self.pages).entries()
    }

    fn ops(&self) -> Vec<RmpOp> {
        let mut ops = Vec::new();
        for page in 0..self.pages {
            for &asid in &self.asids {
                ops.push(RmpOp::Assign { page, asid });
                ops.push(RmpOp::Pvalidate { page, asid });
                for &mask in &self.masks {
                    ops.push(RmpOp::Rmpadjust { page, asid, mask });
                }
                for &vmpl in &self.vmpls {
                    ops.push(RmpOp::GuestRead { page, asid, vmpl });
                }
            }
            ops.push(RmpOp::Reclaim { page });
            ops.push(RmpOp::HostWrite { page });
        }
        ops
    }

    fn apply(&self, state: &Self::State, op: &RmpOp) -> Outcome<Self::State> {
        let mut rmp = Rmp::from_entries(state.clone());
        let result = match *op {
            RmpOp::Assign { page, asid } => rmp.assign(PageNum(page), asid),
            RmpOp::Pvalidate { page, asid } => rmp.pvalidate(PageNum(page), asid),
            RmpOp::Rmpadjust { page, asid, mask } => rmp.rmpadjust(PageNum(page), asid, mask),
            RmpOp::Reclaim { page } => rmp.reclaim(PageNum(page)),
            RmpOp::GuestRead { page, asid, vmpl } => {
                rmp.check_guest_access_vmpl(PageNum(page), asid, vmpl)
            }
            RmpOp::HostWrite { page } => rmp.check_host_write(PageNum(page)),
        };
        match result {
            Ok(()) => Outcome::ok(rmp.entries()),
            Err(e) => Outcome::rejected(rmp.entries(), rmp_code(e)),
        }
    }
}

/// RMP state invariants.
pub fn rmp_state_invariants() -> Vec<StateInvariant<RmpMachine>> {
    vec![StateInvariant {
        // The stale-state class the issue names: a validated bit surviving
        // an ownership transition back to the hypervisor.
        name: "hypervisor-page-never-validated",
        check: |s| {
            for (i, e) in s.iter().enumerate() {
                if e.owner == RmpOwner::Hypervisor && e.validated {
                    return Err(format!("page {i} is hypervisor-owned yet validated"));
                }
            }
            Ok(())
        },
    }]
}

/// RMP transition invariants.
pub fn rmp_step_invariants() -> Vec<StepInvariant<RmpMachine>> {
    vec![
        StepInvariant {
            name: "rejection-leaves-state-unchanged",
            check: |pre, _op, out| {
                if !out.accepted && out.next != *pre {
                    return Err("a rejected operation mutated the table".into());
                }
                Ok(())
            },
        },
        StepInvariant {
            name: "assign-yields-unvalidated-page",
            check: |_pre, op, out| {
                if let RmpOp::Assign { page, asid } = *op {
                    if out.accepted {
                        let e = out.next[page as usize];
                        if e.validated || e.owner != (RmpOwner::Guest { asid }) {
                            return Err(format!("assign produced {e:?}"));
                        }
                    }
                }
                Ok(())
            },
        },
        StepInvariant {
            name: "guest-access-requires-owned-validated-vmpl",
            check: |pre, op, out| {
                if let RmpOp::GuestRead { page, asid, vmpl } = *op {
                    let e = pre[page as usize];
                    let legal = e.owner == (RmpOwner::Guest { asid })
                        && e.validated
                        && vmpl <= 3
                        && e.vmpl_mask & (1 << vmpl) != 0;
                    if out.accepted != legal {
                        return Err(format!(
                            "access from asid {asid} vmpl {vmpl} on {e:?}: accepted={}",
                            out.accepted
                        ));
                    }
                }
                Ok(())
            },
        },
        StepInvariant {
            name: "host-write-faults-iff-guest-owned",
            check: |pre, op, out| {
                if let RmpOp::HostWrite { page } = *op {
                    let hyp = pre[page as usize].owner == RmpOwner::Hypervisor;
                    if out.accepted != hyp {
                        return Err(format!(
                            "host write on {:?}: accepted={}",
                            pre[page as usize], out.accepted
                        ));
                    }
                }
                Ok(())
            },
        },
        StepInvariant {
            // Fault-class reachability: #NPF(not-validated) only fires on a
            // page the accessing guest owns but has not validated.
            name: "not-validated-fault-only-from-owned-unvalidated",
            check: |pre, op, out| {
                if out.code != "not-validated" {
                    return Ok(());
                }
                if let RmpOp::GuestRead { page, asid, .. } = *op {
                    let e = pre[page as usize];
                    if e.owner != (RmpOwner::Guest { asid }) || e.validated {
                        return Err(format!("not-validated fault from {e:?}"));
                    }
                }
                Ok(())
            },
        },
        StepInvariant {
            name: "double-validation-fault-only-when-validated",
            check: |pre, op, out| {
                if out.code != "double-validation" {
                    return Ok(());
                }
                if let RmpOp::Pvalidate { page, asid } = *op {
                    let e = pre[page as usize];
                    if e.owner != (RmpOwner::Guest { asid }) || !e.validated {
                        return Err(format!("double-validation fault from {e:?}"));
                    }
                }
                Ok(())
            },
        },
    ]
}

fn sept_code(e: SeptError) -> &'static str {
    match e {
        SeptError::AlreadyMapped(_) => "already-mapped",
        SeptError::NotMapped(_) => "not-mapped",
        SeptError::NotPending(_) => "not-pending",
        SeptError::PendingAccess(_) => "pending-access",
        SeptError::BlockedAccess(_) => "blocked-access",
        SeptError::SharedBitSet(_) => "shared-bit",
        SeptError::HpaInUse(_) => "hpa-in-use",
    }
}

/// One bound SEPT operation in the small world.
#[derive(Debug, Clone, Copy)]
pub enum SeptOp {
    /// `TDH.MEM.PAGE.AUG`.
    Aug {
        /// Guest page.
        gpa: u64,
        /// Host page.
        hpa: u64,
    },
    /// `TDH.MEM.PAGE.ADD`.
    Add {
        /// Guest page.
        gpa: u64,
        /// Host page.
        hpa: u64,
    },
    /// `TDG.MEM.PAGE.ACCEPT`.
    Accept {
        /// Guest page.
        gpa: u64,
    },
    /// `TDH.MEM.RANGE.BLOCK`.
    Block {
        /// Guest page.
        gpa: u64,
    },
    /// `TDH.MEM.PAGE.REMOVE`.
    Remove {
        /// Guest page.
        gpa: u64,
    },
    /// Guest access through the SEPT walker.
    Access {
        /// Guest page.
        gpa: u64,
    },
}

/// The Intel TDX Secure EPT in a small world.
pub struct SeptMachine {
    gpas: Vec<u64>,
    hpas: Vec<u64>,
}

impl SeptMachine {
    /// Two guest pages over two host frames: the minimum world where
    /// aliasing (two GPAs onto one HPA) is expressible.
    pub fn standard() -> Self {
        SeptMachine { gpas: vec![1, 2], hpas: vec![100, 101] }
    }
}

impl Machine for SeptMachine {
    type State = Vec<(PageNum, PageNum, SeptPageState)>;
    type Op = SeptOp;

    fn name(&self) -> &'static str {
        "sept"
    }

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn ops(&self) -> Vec<SeptOp> {
        let mut ops = Vec::new();
        for &gpa in &self.gpas {
            for &hpa in &self.hpas {
                ops.push(SeptOp::Aug { gpa, hpa });
                ops.push(SeptOp::Add { gpa, hpa });
            }
            ops.push(SeptOp::Accept { gpa });
            ops.push(SeptOp::Block { gpa });
            ops.push(SeptOp::Remove { gpa });
            ops.push(SeptOp::Access { gpa });
        }
        ops
    }

    fn apply(&self, state: &Self::State, op: &SeptOp) -> Outcome<Self::State> {
        let mut sept = SecureEpt::from_snapshot(state);
        let result = match *op {
            SeptOp::Aug { gpa, hpa } => sept.aug(PageNum(gpa), PageNum(hpa)),
            SeptOp::Add { gpa, hpa } => sept.add(PageNum(gpa), PageNum(hpa)),
            SeptOp::Accept { gpa } => sept.accept(PageNum(gpa)),
            SeptOp::Block { gpa } => sept.block(PageNum(gpa)),
            SeptOp::Remove { gpa } => sept.remove(PageNum(gpa)).map(|_| ()),
            SeptOp::Access { gpa } => sept.check_access(PageNum(gpa)).map(|_| ()),
        };
        match result {
            Ok(()) => Outcome::ok(sept.snapshot()),
            Err(e) => Outcome::rejected(sept.snapshot(), sept_code(e)),
        }
    }
}

fn sept_entry(
    state: &[(PageNum, PageNum, SeptPageState)],
    gpa: u64,
) -> Option<(PageNum, SeptPageState)> {
    state.iter().find(|(g, _, _)| g.0 == gpa).map(|(_, h, s)| (*h, *s))
}

/// SEPT state invariants.
pub fn sept_state_invariants() -> Vec<StateInvariant<SeptMachine>> {
    vec![StateInvariant {
        // The harvested bug: before the `HpaInUse` guard, the trace
        // [Aug{gpa:1,hpa:100}, Aug{gpa:2,hpa:100}] violated this at depth 2.
        name: "no-host-page-backs-two-mappings",
        check: |s| {
            for (i, (_, hpa_a, _)) in s.iter().enumerate() {
                if s.iter().skip(i + 1).any(|(_, hpa_b, _)| hpa_a == hpa_b) {
                    return Err(format!("hpa {} mapped at two GPAs", hpa_a.0));
                }
            }
            Ok(())
        },
    }]
}

/// SEPT transition invariants.
pub fn sept_step_invariants() -> Vec<StepInvariant<SeptMachine>> {
    vec![
        StepInvariant {
            name: "rejection-leaves-state-unchanged",
            check: |pre, _op, out| {
                if !out.accepted && out.next != *pre {
                    return Err("a rejected operation mutated the table".into());
                }
                Ok(())
            },
        },
        StepInvariant {
            // The TDX analog of "no accept of an unvalidated granule":
            // ACCEPT must only succeed on a page the VMM staged as Pending.
            name: "accept-only-from-pending",
            check: |pre, op, out| {
                if let SeptOp::Accept { gpa } = *op {
                    let pending = matches!(sept_entry(pre, gpa), Some((_, SeptPageState::Pending)));
                    if out.accepted != pending {
                        return Err(format!(
                            "accept of gpa {gpa} ({:?}): accepted={}",
                            sept_entry(pre, gpa),
                            out.accepted
                        ));
                    }
                }
                Ok(())
            },
        },
        StepInvariant {
            name: "access-only-through-mapped-pages",
            check: |pre, op, out| {
                if let SeptOp::Access { gpa } = *op {
                    let mapped = matches!(sept_entry(pre, gpa), Some((_, SeptPageState::Mapped)));
                    if out.accepted != mapped {
                        return Err(format!(
                            "access to gpa {gpa} ({:?}): accepted={}",
                            sept_entry(pre, gpa),
                            out.accepted
                        ));
                    }
                }
                Ok(())
            },
        },
        StepInvariant {
            name: "remove-only-blocked-pages",
            check: |pre, op, out| {
                if let SeptOp::Remove { gpa } = *op {
                    let blocked = matches!(sept_entry(pre, gpa), Some((_, SeptPageState::Blocked)));
                    if out.accepted != blocked {
                        return Err(format!(
                            "remove of gpa {gpa} ({:?}): accepted={}",
                            sept_entry(pre, gpa),
                            out.accepted
                        ));
                    }
                }
                Ok(())
            },
        },
        StepInvariant {
            // Fault-class reachability: the #VE for pending pages only
            // fires on pages actually pending acceptance.
            name: "pending-access-fault-only-from-pending",
            check: |pre, op, out| {
                if out.code != "pending-access" {
                    return Ok(());
                }
                if let SeptOp::Access { gpa } = *op {
                    if !matches!(sept_entry(pre, gpa), Some((_, SeptPageState::Pending))) {
                        return Err(format!(
                            "#VE from non-pending entry {:?}",
                            sept_entry(pre, gpa)
                        ));
                    }
                }
                Ok(())
            },
        },
    ]
}

fn gpt_code(e: GranuleError) -> &'static str {
    match e {
        GranuleError::OutOfRange(_) => "out-of-range",
        GranuleError::WrongWorld(..) => "wrong-world",
        GranuleError::WrongState(_) => "wrong-state",
        GranuleError::ProtectionFault(..) => "protection-fault",
    }
}

/// One bound GPT operation in the small world.
#[derive(Debug, Clone, Copy)]
pub enum GptOp {
    /// Host RMI `GRANULE.DELEGATE`.
    Delegate {
        /// Target granule.
        g: u64,
    },
    /// Host RMI `GRANULE.UNDELEGATE`.
    Undelegate {
        /// Target granule.
        g: u64,
    },
    /// RMM: assign to a realm.
    Assign {
        /// Target granule.
        g: u64,
        /// Receiving realm descriptor.
        rd: u32,
    },
    /// RMM: release from a realm.
    Release {
        /// Target granule.
        g: u64,
        /// Releasing realm descriptor.
        rd: u32,
    },
    /// Hardware GPT check from a world.
    Access {
        /// Target granule.
        g: u64,
        /// Accessing world.
        from: World,
    },
}

/// The ARM CCA Granule Protection Table in a small world.
pub struct GptMachine {
    granules: u64,
    realms: Vec<u32>,
}

impl GptMachine {
    /// Two granules, two realms, accesses from all four worlds.
    pub fn standard() -> Self {
        GptMachine { granules: 2, realms: vec![1, 2] }
    }
}

impl Machine for GptMachine {
    type State = Vec<(World, GranuleState)>;
    type Op = GptOp;

    fn name(&self) -> &'static str {
        "gpt"
    }

    fn initial(&self) -> Self::State {
        GranuleTable::new(self.granules).snapshot()
    }

    fn ops(&self) -> Vec<GptOp> {
        let mut ops = Vec::new();
        for g in 0..self.granules {
            ops.push(GptOp::Delegate { g });
            ops.push(GptOp::Undelegate { g });
            for &rd in &self.realms {
                ops.push(GptOp::Assign { g, rd });
                ops.push(GptOp::Release { g, rd });
            }
            for from in [World::NonSecure, World::Secure, World::Realm, World::Root] {
                ops.push(GptOp::Access { g, from });
            }
        }
        ops
    }

    fn apply(&self, state: &Self::State, op: &GptOp) -> Outcome<Self::State> {
        let mut gpt = GranuleTable::from_snapshot(state);
        let result = match *op {
            GptOp::Delegate { g } => gpt.delegate(PageNum(g)),
            GptOp::Undelegate { g } => gpt.undelegate(PageNum(g)),
            GptOp::Assign { g, rd } => gpt.assign_to_realm(PageNum(g), rd),
            GptOp::Release { g, rd } => gpt.release_from_realm(PageNum(g), rd),
            GptOp::Access { g, from } => gpt.check_access(PageNum(g), from),
        };
        match result {
            Ok(()) => Outcome::ok(gpt.snapshot()),
            Err(e) => Outcome::rejected(gpt.snapshot(), gpt_code(e)),
        }
    }
}

/// GPT state invariants.
pub fn gpt_state_invariants() -> Vec<StateInvariant<GptMachine>> {
    vec![
        StateInvariant {
            // "No accept of an unvalidated granule": a granule only reaches
            // Assigned through Delegated, so realm data never lives in a
            // granule another world can reach.
            name: "assigned-granule-is-realm-world",
            check: |s| {
                for (i, (w, st)) in s.iter().enumerate() {
                    if matches!(st, GranuleState::Assigned { .. }) && *w != World::Realm {
                        return Err(format!("granule {i} assigned while in world {w:?}"));
                    }
                }
                Ok(())
            },
        },
        StateInvariant {
            name: "nonsecure-granule-is-undelegated",
            check: |s| {
                for (i, (w, st)) in s.iter().enumerate() {
                    if *w == World::NonSecure && *st != GranuleState::Undelegated {
                        return Err(format!("granule {i} in NS world with state {st:?}"));
                    }
                }
                Ok(())
            },
        },
    ]
}

/// GPT transition invariants.
pub fn gpt_step_invariants() -> Vec<StepInvariant<GptMachine>> {
    vec![
        StepInvariant {
            name: "rejection-leaves-state-unchanged",
            check: |pre, _op, out| {
                if !out.accepted && out.next != *pre {
                    return Err("a rejected operation mutated the table".into());
                }
                Ok(())
            },
        },
        StepInvariant {
            name: "assign-only-from-delegated",
            check: |pre, op, out| {
                if let GptOp::Assign { g, .. } = *op {
                    let delegated = pre[g as usize] == (World::Realm, GranuleState::Delegated);
                    if out.accepted != delegated {
                        return Err(format!(
                            "assign of granule {g} ({:?}): accepted={}",
                            pre[g as usize], out.accepted
                        ));
                    }
                }
                Ok(())
            },
        },
        StepInvariant {
            // Undelegating an Assigned granule would hand realm data back
            // to the normal world without the RMM wipe.
            name: "undelegate-never-assigned",
            check: |pre, op, out| {
                if let GptOp::Undelegate { g } = *op {
                    if out.accepted && matches!(pre[g as usize].1, GranuleState::Assigned { .. }) {
                        return Err(format!("undelegated assigned granule {g}"));
                    }
                }
                Ok(())
            },
        },
        StepInvariant {
            // GPF reachability: faults exactly on a world mismatch from a
            // non-root world, never spuriously.
            name: "access-respects-world-boundaries",
            check: |pre, op, out| {
                if let GptOp::Access { g, from } = *op {
                    let legal = from == World::Root || pre[g as usize].0 == from;
                    if out.accepted != legal {
                        return Err(format!(
                            "access from {from:?} to granule {g} ({:?}): accepted={}",
                            pre[g as usize], out.accepted
                        ));
                    }
                    if !out.accepted && out.code != "protection-fault" {
                        return Err(format!("world mismatch produced {:?}", out.code));
                    }
                }
                Ok(())
            },
        },
    ]
}

fn tdisp_code(e: TdispError) -> &'static str {
    match e {
        TdispError::InvalidTransition { .. } => "invalid-transition",
        TdispError::DmaNotPermitted { .. } => "dma-not-permitted",
        TdispError::Wedged { .. } => "wedged",
    }
}

/// The TDISP interface machine (its world is the machine itself: five
/// states, eight operations).
pub struct TdispMachine;

impl Machine for TdispMachine {
    type State = TdispState;
    type Op = TdispOp;

    fn name(&self) -> &'static str {
        "tdisp"
    }

    fn initial(&self) -> TdispState {
        TdispState::Unlocked
    }

    fn ops(&self) -> Vec<TdispOp> {
        TdispOp::ALL.to_vec()
    }

    fn apply(&self, state: &TdispState, op: &TdispOp) -> Outcome<TdispState> {
        match transition(*state, *op) {
            Ok(next) => Outcome::ok(next),
            Err(e) => Outcome::rejected(*state, tdisp_code(e)),
        }
    }
}

/// TDISP state invariants (none beyond the enum's own well-formedness; the
/// interesting properties are all transition-level).
pub fn tdisp_state_invariants() -> Vec<StateInvariant<TdispMachine>> {
    Vec::new()
}

/// TDISP transition invariants.
pub fn tdisp_step_invariants() -> Vec<StepInvariant<TdispMachine>> {
    vec![
        StepInvariant {
            name: "rejection-leaves-state-unchanged",
            check: |pre, _op, out| {
                if !out.accepted && out.next != *pre {
                    return Err("a rejected operation changed the interface state".into());
                }
                Ok(())
            },
        },
        StepInvariant {
            // The issue's headline device invariant: no DMA-direct from a
            // non-`Run` interface.
            name: "private-dma-only-in-run",
            check: |pre, op, out| {
                if *op == TdispOp::DmaPrivate && out.accepted && *pre != TdispState::Run {
                    return Err(format!("private DMA accepted in {pre}"));
                }
                Ok(())
            },
        },
        StepInvariant {
            name: "start-requires-attestation",
            check: |pre, op, out| {
                if *op == TdispOp::Start && out.accepted && *pre != TdispState::Attested {
                    return Err(format!("start accepted in {pre}"));
                }
                Ok(())
            },
        },
        StepInvariant {
            name: "error-only-leaves-via-reset",
            check: |pre, op, out| {
                if *pre == TdispState::Error
                    && out.accepted
                    && !matches!(op, TdispOp::Reset | TdispOp::Fault)
                {
                    return Err(format!("{op} escaped the Error state"));
                }
                Ok(())
            },
        },
        StepInvariant {
            // Wedged-fault reachability: the "reset required" rejection
            // only ever comes from an interface actually in Error.
            name: "wedged-fault-only-in-error",
            check: |pre, _op, out| {
                if out.code == "wedged" && *pre != TdispState::Error {
                    return Err(format!("wedged rejection from {pre}"));
                }
                Ok(())
            },
        },
    ]
}

/// Live-migration state machine
/// (`Idle → Draining → PreCopy → StopAndCopy → ReAttest →
/// Resumed/Aborted`) in a small world: a 4-page tracking capacity, a
/// 2-page resident image, single-page touches, and one- or two-page copy
/// rounds — enough to reach every phase, every accounting rejection, and
/// the abort edge from every live phase. Unlike the other four adapters
/// this one checks a machine from `confbench-fleet`; the fleet's
/// orchestrator drives the *same* `MigrationFsm::apply`, so the closure
/// proven here covers every path a real migration can take.
#[derive(Debug, Clone, Copy)]
pub struct MigrationMachine {
    /// Dirty-tracking capacity of the small world.
    pub cap: u64,
    /// Resident pages at `BeginPreCopy`.
    pub resident: u64,
}

impl MigrationMachine {
    /// The standard small world: capacity 4, resident image of 2.
    pub fn standard() -> Self {
        MigrationMachine { cap: 4, resident: 2 }
    }
}

impl Machine for MigrationMachine {
    type State = MigrationFsm;
    type Op = MigrationOp;

    fn name(&self) -> &'static str {
        "migration"
    }

    fn initial(&self) -> MigrationFsm {
        MigrationFsm::new(self.cap)
    }

    fn ops(&self) -> Vec<MigrationOp> {
        vec![
            MigrationOp::Drain,
            MigrationOp::BeginPreCopy { resident: self.resident },
            MigrationOp::Touch { pages: 1 },
            MigrationOp::CopyRound { copied: 1 },
            MigrationOp::CopyRound { copied: 2 },
            MigrationOp::Pause,
            MigrationOp::FinalCopy,
            MigrationOp::BeginReAttest,
            MigrationOp::Attest,
            MigrationOp::Resume,
            MigrationOp::Abort,
        ]
    }

    fn apply(&self, state: &MigrationFsm, op: &MigrationOp) -> Outcome<MigrationFsm> {
        match state.apply(*op) {
            Ok(next) => Outcome::ok(next),
            Err(e) => Outcome::rejected(*state, e.code()),
        }
    }
}

/// Migration state invariants — the issue's three headline properties
/// plus accounting sanity.
pub fn migration_state_invariants() -> Vec<StateInvariant<MigrationMachine>> {
    vec![
        StateInvariant {
            // Never resumed without re-attest, and no dirty page left
            // uncopied at resume.
            name: "resumed-implies-attested-and-clean",
            check: |s| {
                if s.phase == MigrationPhase::Resumed {
                    if !s.attested {
                        return Err("resumed without a verified re-attestation".into());
                    }
                    if s.dirty != 0 {
                        return Err(format!("resumed with {} dirty pages uncopied", s.dirty));
                    }
                    if s.source != SourceVm::Retired {
                        return Err("resumed while the source VM still runs".into());
                    }
                }
                Ok(())
            },
        },
        StateInvariant {
            // Abort always returns the source VM to a runnable state.
            name: "aborted-source-runnable",
            check: |s| {
                if s.phase == MigrationPhase::Aborted && s.source != SourceVm::Running {
                    return Err(format!("aborted but source is {:?}", s.source));
                }
                Ok(())
            },
        },
        StateInvariant {
            // At most one live incarnation of the VM: the source only ever
            // retires on a successful resume.
            name: "source-retired-only-after-resume",
            check: |s| {
                if s.source == SourceVm::Retired && s.phase != MigrationPhase::Resumed {
                    return Err(format!("source retired in phase {}", s.phase));
                }
                Ok(())
            },
        },
        StateInvariant {
            name: "dirty-within-capacity",
            check: |s| {
                if s.dirty > s.cap {
                    return Err(format!("dirty {} exceeds capacity {}", s.dirty, s.cap));
                }
                Ok(())
            },
        },
        StateInvariant {
            // The pause window is exactly stop-and-copy and re-attest.
            name: "paused-only-during-blackout",
            check: |s| {
                let blackout =
                    matches!(s.phase, MigrationPhase::StopAndCopy | MigrationPhase::ReAttest);
                if s.source == SourceVm::Paused && !blackout {
                    return Err(format!("source paused in phase {}", s.phase));
                }
                Ok(())
            },
        },
    ]
}

/// Migration transition invariants.
pub fn migration_step_invariants() -> Vec<StepInvariant<MigrationMachine>> {
    vec![
        StepInvariant {
            name: "rejection-leaves-state-unchanged",
            check: |pre, _op, out| {
                if !out.accepted && out.next != *pre {
                    return Err("a rejected operation changed the migration state".into());
                }
                Ok(())
            },
        },
        StepInvariant {
            name: "resume-requires-attest-and-clean",
            check: |pre, op, out| {
                if *op == MigrationOp::Resume && out.accepted && (!pre.attested || pre.dirty != 0) {
                    return Err(format!(
                        "resume accepted with attested={} dirty={}",
                        pre.attested, pre.dirty
                    ));
                }
                Ok(())
            },
        },
        StepInvariant {
            // A paused source must not dirty pages.
            name: "touch-only-while-source-runs",
            check: |pre, op, out| {
                if matches!(op, MigrationOp::Touch { .. })
                    && out.accepted
                    && pre.source != SourceVm::Running
                {
                    return Err(format!("touch accepted with source {:?}", pre.source));
                }
                Ok(())
            },
        },
        StepInvariant {
            name: "abort-restores-runnable",
            check: |_pre, op, out| {
                if *op == MigrationOp::Abort && out.accepted && out.next.source != SourceVm::Running
                {
                    return Err(format!("abort left source {:?}", out.next.source));
                }
                Ok(())
            },
        },
        StepInvariant {
            // Stop-and-copy is final: after FinalCopy nothing is dirty
            // (the paused source cannot re-dirty, and re-attest checks it).
            name: "final-copy-clears-dirty",
            check: |_pre, op, out| {
                if *op == MigrationOp::FinalCopy && out.accepted && out.next.dirty != 0 {
                    return Err(format!("final copy left {} dirty pages", out.next.dirty));
                }
                Ok(())
            },
        },
    ]
}
