//! The simulated virtual machine: replays [`OpTrace`]s against a platform
//! cost model, driving the real TEE machinery (SEPT / RMP / GPT) along the
//! way and producing deterministic cycle counts and perf counters.

use std::sync::Arc;

use confbench_crypto::SplitMix64;
use confbench_devio::{GpuDevice, MeasurementReport, TdispState};
use confbench_memsim::{pages_for, PageNum, Swiotlb};
use confbench_obs::ActiveSpan;
use confbench_types::{
    Cycles, DeviceKind, Op, OpTrace, PerfReport, SimClock, SyscallKind, TeeMechanism, TeePlatform,
    VmKind, VmTarget,
};

use crate::cache::{accesses_of, CacheSim, CacheStats, Walk, WalkMemo, WalkMemoCounts};
use crate::cca::{Fvp, RealmId, Rmm};
use crate::cost::CostModel;
use crate::dirty::DirtyPages;
use crate::evtpm::EvTpm;
use crate::fault::{TeeFault, TeeFaultPlan};
use crate::snp::AmdSp;
use crate::tdx::{TdId, TdxModule};

/// Pages installed (and measured) during the simulated boot of a VM image.
pub(crate) const BOOT_IMAGE_PAGES: u64 = 64;

/// Per-allocation cap on how many pages are driven through the *mechanism*
/// (SEPT/RMP/GPT); costs are always charged analytically for the full count.
/// Keeps giant allocations cheap to simulate while still exercising the
/// real state machines.
const MECHANISM_PAGES_PER_ALLOC: u64 = 32;

/// First guest-physical page number handed to the heap page machinery
/// (boot-image pages occupy `0..BOOT_IMAGE_PAGES`).
const HEAP_GPA_BASE: u64 = 0x100;

/// The result of executing one trace on a [`Vm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionReport {
    /// Where the trace ran.
    pub target: VmTarget,
    /// Virtual cycles consumed (jitter and simulation multiplier applied).
    pub cycles: Cycles,
    /// Wall-clock milliseconds at the host frequency.
    pub wall_ms: f64,
    /// Perf counters for the run.
    pub perf: PerfReport,
    /// Per-class cost-event breakdown (what
    /// [`ExecutionReport::attach_spans`] turns into child trace spans).
    pub events: CostEvents,
}

impl ExecutionReport {
    /// The platform-specific name for the world-switch cost class.
    fn exit_span_name(&self) -> &'static str {
        if self.target.kind == VmKind::Normal {
            return "vmexit";
        }
        match self.target.platform {
            TeePlatform::Tdx => "tdx.seamcall",
            TeePlatform::SevSnp => "snp.ghcb-exit",
            TeePlatform::Cca => "cca.rmm-exit",
        }
    }

    /// The platform-specific name for the fresh-page mechanism cost class.
    fn page_span_name(&self) -> &'static str {
        match self.target.platform {
            TeePlatform::Tdx => "tdx.page-accept",
            TeePlatform::SevSnp => "snp.rmp-validate",
            TeePlatform::Cca => "cca.rmm-delegate",
        }
    }

    /// Attaches one child span per *nonzero* cost-event class under
    /// `parent` — from `target` and `events` alone, so a trial credited
    /// from the walk memo gets the spans of a walked one:
    ///
    /// * world switches — `tdx.seamcall` / `snp.ghcb-exit` / `cca.rmm-exit`
    ///   (or `vmexit` in a normal VM), attrs `count` (== `perf.vm_exits`)
    ///   and `cycles`;
    /// * fresh-page mechanism (secure VMs only) — `tdx.page-accept` /
    ///   `snp.rmp-validate` / `cca.rmm-delegate`, attrs `pages`, `cycles`;
    /// * bounce-buffer staging — `swiotlb.copy`, attrs `bytes`
    ///   (== `perf.bounce_bytes`), `slots`, `cycles`;
    /// * in-guest syscall work — `guest.syscall`, attrs `count`, `cycles`;
    /// * device DMA — `devio.dma-direct` (attrs `bytes`, `cycles`) or
    ///   `devio.dma-bounce` (attr `bytes`, with the staging itself under
    ///   `swiotlb.copy`);
    /// * device kernels — `devio.kernel`, attrs `count`, `ns`.
    pub fn attach_spans(&self, parent: &mut ActiveSpan) {
        let ev = self.events;
        if ev.exits > 0 {
            let mut s = parent.child(self.exit_span_name());
            s.set_attr("count", ev.exits);
            s.set_attr("cycles", ev.exit_cycles);
            parent.finish_child(s);
        }
        if self.target.kind == VmKind::Secure && ev.fresh_pages > 0 {
            let mut s = parent.child(self.page_span_name());
            s.set_attr("pages", ev.fresh_pages);
            s.set_attr("cycles", ev.page_cycles);
            parent.finish_child(s);
        }
        if ev.bounce_bytes > 0 {
            let mut s = parent.child("swiotlb.copy");
            s.set_attr("bytes", ev.bounce_bytes);
            s.set_attr("slots", ev.bounce_slots);
            s.set_attr("cycles", ev.bounce_cycles);
            parent.finish_child(s);
        }
        if ev.syscalls > 0 {
            let mut s = parent.child("guest.syscall");
            s.set_attr("count", ev.syscalls);
            s.set_attr("cycles", ev.syscall_cycles);
            parent.finish_child(s);
        }
        if ev.dma_direct_bytes > 0 {
            let mut s = parent.child("devio.dma-direct");
            s.set_attr("bytes", ev.dma_direct_bytes);
            s.set_attr("cycles", ev.dma_direct_cycles);
            parent.finish_child(s);
        }
        if ev.dma_bounce_bytes > 0 {
            let mut s = parent.child("devio.dma-bounce");
            s.set_attr("bytes", ev.dma_bounce_bytes);
            parent.finish_child(s);
        }
        if ev.dev_kernels > 0 {
            let mut s = parent.child("devio.kernel");
            s.set_attr("count", ev.dev_kernels);
            s.set_attr("ns", ev.dev_kernel_ns);
            parent.finish_child(s);
        }
    }
}

/// Per-class breakdown of the TEE cost events charged during one execution.
///
/// Counts are exact; the `*_cycles` figures are the raw charges from the
/// cost tables — *before* the per-trial jitter and FVP simulation
/// multiplier — so they decompose the mechanism, not the jittered total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostEvents {
    /// World switches to the host (SEAMCALL / GHCB exit / RMM hop / VMEXIT).
    pub exits: u64,
    /// Cycles charged at `exit_cost` for those switches.
    pub exit_cycles: u64,
    /// Fresh pages faulted in (accept / validate / delegate candidates).
    pub fresh_pages: u64,
    /// Cycles charged for fresh-page fault + TEE acceptance work.
    pub page_cycles: u64,
    /// Bytes staged through the swiotlb bounce pool.
    pub bounce_bytes: u64,
    /// Bounce-pool slots consumed.
    pub bounce_slots: u64,
    /// Cycles charged for bounce copies and slot bookkeeping.
    pub bounce_cycles: u64,
    /// Guest syscalls executed.
    pub syscalls: u64,
    /// Cycles charged for in-guest syscall work.
    pub syscall_cycles: u64,
    /// Device DMA bytes that landed directly in guest memory (TDISP `Run`,
    /// or any attached device in a normal VM).
    pub dma_direct_bytes: u64,
    /// Cycles charged for direct device DMA.
    pub dma_direct_cycles: u64,
    /// Device DMA bytes that fell back to the swiotlb bounce path (device
    /// not attested, so its DMA may only target shared memory).
    pub dma_bounce_bytes: u64,
    /// Device kernels launched.
    pub dev_kernels: u64,
    /// Host nanoseconds spent inside device kernels.
    pub dev_kernel_ns: u64,
}

/// Builder for a [`Vm`].
///
/// # Example
///
/// ```
/// use confbench_types::{TeePlatform, VmTarget};
/// use confbench_vmm::TeeVmBuilder;
///
/// let vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx))
///     .seed(42)
///     .cache_model(true)
///     .try_build()?;
/// assert_eq!(vm.target(), VmTarget::secure(TeePlatform::Tdx));
/// # Ok::<(), confbench_vmm::TeeFault>(())
/// ```
#[derive(Debug, Clone)]
pub struct TeeVmBuilder {
    target: VmTarget,
    seed: u64,
    cache_model: bool,
    bounce_buffers: bool,
    fvp: Option<Fvp>,
    faults: Option<Arc<TeeFaultPlan>>,
    device: Option<DeviceKind>,
    walks: Option<Arc<WalkMemo>>,
}

impl TeeVmBuilder {
    /// Starts building a VM for `target`.
    pub fn new(target: VmTarget) -> Self {
        TeeVmBuilder {
            target,
            seed: 0,
            cache_model: true,
            bounce_buffers: true,
            fvp: None,
            faults: None,
            device: None,
            walks: None,
        }
    }

    /// Sets the deterministic seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the cache simulator (default on). With it off,
    /// memory ops are charged a flat per-line cost — the ablation that
    /// removes the paper's sub-1.0 ratio cells.
    pub fn cache_model(mut self, on: bool) -> Self {
        self.cache_model = on;
        self
    }

    /// Enables or disables confidential-I/O bounce buffering (default on).
    /// Off approximates the TDX-Connect direct-I/O future the paper
    /// anticipates.
    pub fn bounce_buffers(mut self, on: bool) -> Self {
        self.bounce_buffers = on;
        self
    }

    /// Overrides the FVP simulation layer for CCA targets (ignored for
    /// hardware platforms).
    pub fn fvp(mut self, fvp: Fvp) -> Self {
        self.fvp = Some(fvp);
        self
    }

    /// Installs a shared chaos schedule. Boot and every execution of the
    /// built VM roll against the plan at each TEE mechanism crossing; use
    /// [`TeeVmBuilder::try_build`] and [`Vm::try_execute`] to observe the
    /// injected faults. Normal (non-confidential) VMs ignore the plan —
    /// they have no TEE substrate to fault.
    pub fn fault_plan(mut self, plan: Arc<TeeFaultPlan>) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Plugs a confidential accelerator into the VM. On a secure target
    /// the device's TDISP interface is locked during boot (rolling the
    /// `tdisp-lock` fault point); the host must then attest it via
    /// [`Vm::device_report`] and [`Vm::enable_device`] before its DMA can
    /// target private memory — until then `DevDma*` ops are staged through
    /// the swiotlb bounce path. Normal VMs DMA directly right away.
    pub fn device(mut self, kind: DeviceKind) -> Self {
        self.device = Some(kind);
        self
    }

    /// Shares `memo` with the built VM's cache simulator: a trial any VM
    /// holding it has walked from the same line state is credited from the
    /// record, to reports and state bit for bit what walking gives (default:
    /// a small memo of the VM's own).
    pub fn walk_memo(mut self, memo: Arc<WalkMemo>) -> Self {
        self.walks = Some(memo);
        self
    }

    /// Boots the VM: builds the cost model, launches the TEE context
    /// (measured 64-page boot image), and returns a ready-to-run [`Vm`].
    ///
    /// # Errors
    ///
    /// A boot-time TEE fault — injected by an installed
    /// [fault plan](TeeVmBuilder::fault_plan), or a mechanism state machine
    /// refusing a launch step. Transient faults may succeed on a fresh
    /// `try_build` of the same builder. Without a plan, boot cannot fail.
    pub fn try_build(self) -> Result<Vm, TeeFault> {
        let mut cost = CostModel::for_target_with(self.target, self.bounce_buffers);
        if let Some(fvp) = &self.fvp {
            if self.target.platform == TeePlatform::Cca {
                cost.sim_multiplier = fvp.slowdown;
                if self.target.kind == VmKind::Normal {
                    cost.jitter_rel_std = fvp.jitter_rel_std;
                } else {
                    // Realm keeps its extra jitter on top of the simulator's.
                    cost.jitter_rel_std = cost.jitter_rel_std.max(fvp.jitter_rel_std);
                }
            }
        }
        let cache = self.cache_model.then(|| match self.walks {
            Some(memo) => CacheSim::with_memo(cost.cache_salt, memo),
            None => CacheSim::new(cost.cache_salt),
        });
        let platform = Platform::launch(self.target, self.faults.as_deref())?;
        let device = match self.device {
            // One modeled device today; `DeviceKind` keeps the plug point open.
            Some(DeviceKind::Gpu) => {
                let mut gpu = GpuDevice::new();
                if self.target.kind == VmKind::Secure {
                    // LOCK_INTERFACE_REQUEST is a TEE mechanism crossing.
                    if let Some(fault) = self
                        .faults
                        .as_deref()
                        .and_then(|p| p.roll(self.target.platform, TeeMechanism::TdispLock))
                    {
                        return Err(fault);
                    }
                    gpu.lock().map_err(|_| {
                        TeeFault::fatal(self.target.platform, TeeMechanism::TdispLock)
                    })?;
                }
                Some(gpu)
            }
            None => None,
        };
        // Secure VMs boot with an e-vTPM whose launch-stage measurements
        // are part of the measured image (normal VMs have no trust
        // boundary to anchor one).
        let evtpm = (self.target.kind == VmKind::Secure).then(|| EvTpm::measured_boot(self.target));
        Ok(Vm {
            target: self.target,
            cost,
            cache,
            platform,
            evtpm,
            device,
            swiotlb: Swiotlb::linux_default(),
            clock: SimClock::new(),
            rng: SplitMix64::new(jitter_stream_seed(self.seed, self.target)),
            faults: self.faults,
            heap_pages: 0,
            high_water_pages: BOOT_IMAGE_PAGES,
            next_gpa: HEAP_GPA_BASE,
            total_exits: 0,
            total_faults: 0,
            dirty: DirtyPages::default(),
        })
    }
}

/// Derives a jitter-stream seed that differs per target, so the secure and
/// normal VM of one experiment do not draw correlated noise.
fn jitter_stream_seed(seed: u64, target: VmTarget) -> u64 {
    let platform_tag = match target.platform {
        TeePlatform::Tdx => 1u64,
        TeePlatform::SevSnp => 2,
        TeePlatform::Cca => 3,
    };
    let kind_tag = match target.kind {
        VmKind::Secure => 0x10u64,
        VmKind::Normal => 0x20,
    };
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (platform_tag << 8) ^ kind_tag
}

/// Platform-specific machinery owned by a VM.
#[derive(Debug)]
enum Platform {
    /// A plain VM: no TEE state.
    Normal,
    /// A TDX trust domain.
    Tdx { module: TdxModule, td: TdId },
    /// An SEV-SNP guest.
    Snp { sp: AmdSp, asid: u32, next_page: u64 },
    /// A CCA realm.
    Cca { rmm: Rmm, rd: RealmId, next_granule: u64 },
}

impl Platform {
    /// Launches the TEE context for `target`, rolling `faults` at each
    /// launch stage. Mechanism errors — which a fresh launch sequence only
    /// produces when the substrate is genuinely wedged — propagate as fatal
    /// faults instead of the panics this path used to hide behind
    /// `.expect()`.
    fn launch(target: VmTarget, faults: Option<&TeeFaultPlan>) -> Result<Platform, TeeFault> {
        if target.kind == VmKind::Normal {
            return Ok(Platform::Normal);
        }
        let platform = target.platform;
        let roll = |mechanism: TeeMechanism| -> Result<(), TeeFault> {
            match faults.and_then(|p| p.roll(platform, mechanism)) {
                Some(fault) => Err(fault),
                None => Ok(()),
            }
        };
        match platform {
            TeePlatform::Tdx => {
                let mut module = TdxModule::new("TDX_1.5.05.46.698");
                let td = TdId(1);
                roll(TeeMechanism::Seamcall)?;
                module
                    .tdh_mng_create(td)
                    .map_err(|_| TeeFault::fatal(platform, TeeMechanism::Seamcall))?;
                roll(TeeMechanism::SeptAccept)?;
                for i in 0..BOOT_IMAGE_PAGES {
                    module
                        .tdh_mem_page_add(td, PageNum(i), PageNum(0x1_0000 + i))
                        .map_err(|_| TeeFault::fatal(platform, TeeMechanism::SeptAccept))?;
                }
                roll(TeeMechanism::Seamcall)?;
                module
                    .tdh_mr_finalize(td)
                    .map_err(|_| TeeFault::fatal(platform, TeeMechanism::Seamcall))?;
                Ok(Platform::Tdx { module, td })
            }
            TeePlatform::SevSnp => {
                let mut sp = AmdSp::new(0x00d1_5ea5_e000_0001, 7);
                let asid = 1;
                roll(TeeMechanism::AmdSpRequest)?;
                sp.launch_start(asid)
                    .map_err(|_| TeeFault::fatal(platform, TeeMechanism::AmdSpRequest))?;
                roll(TeeMechanism::RmpValidate)?;
                for i in 0..BOOT_IMAGE_PAGES {
                    sp.launch_update(asid, PageNum(i))
                        .map_err(|_| TeeFault::fatal(platform, TeeMechanism::RmpValidate))?;
                }
                roll(TeeMechanism::AmdSpRequest)?;
                sp.launch_finish(asid)
                    .map_err(|_| TeeFault::fatal(platform, TeeMechanism::AmdSpRequest))?;
                Ok(Platform::Snp { sp, asid, next_page: BOOT_IMAGE_PAGES })
            }
            TeePlatform::Cca => {
                let mut rmm = Rmm::new(1 << 16);
                let rd = RealmId(1);
                roll(TeeMechanism::RmmCommand)?;
                rmm.rmi_realm_create(rd)
                    .map_err(|_| TeeFault::fatal(platform, TeeMechanism::RmmCommand))?;
                roll(TeeMechanism::RmmCommand)?;
                for i in 0..BOOT_IMAGE_PAGES {
                    rmm.rmi_data_create(rd, PageNum(0x100 + i), PageNum(i))
                        .map_err(|_| TeeFault::fatal(platform, TeeMechanism::RmmCommand))?;
                }
                roll(TeeMechanism::RmmCommand)?;
                rmm.rmi_realm_activate(rd)
                    .map_err(|_| TeeFault::fatal(platform, TeeMechanism::RmmCommand))?;
                Ok(Platform::Cca { rmm, rd, next_granule: BOOT_IMAGE_PAGES })
            }
        }
    }
}

/// A simulated virtual machine bound to one [`VmTarget`].
///
/// Create with [`TeeVmBuilder`]; run traces with [`Vm::try_execute`].
#[derive(Debug)]
pub struct Vm {
    target: VmTarget,
    cost: CostModel,
    cache: Option<CacheSim>,
    platform: Platform,
    /// Runtime-measurement device, present in secure VMs only.
    evtpm: Option<EvTpm>,
    /// Plugged confidential accelerator, when the builder attached one.
    device: Option<GpuDevice>,
    swiotlb: Swiotlb,
    clock: SimClock,
    rng: SplitMix64,
    /// Chaos schedule rolled at each TEE mechanism crossing (if any).
    faults: Option<Arc<TeeFaultPlan>>,
    /// Currently allocated heap pages.
    heap_pages: u64,
    /// High-water mark: pages that have ever been touched (accepted /
    /// validated / delegated). Fresh-page TEE costs apply above this only.
    high_water_pages: u64,
    next_gpa: u64,
    total_exits: u64,
    total_faults: u64,
    /// Guest pages written since tracking was last reset — the working set
    /// a live migration's pre-copy rounds must re-send.
    dirty: DirtyPages,
}

/// Architectural runtime state captured at a migration's stop-and-copy
/// point: everything beyond memory contents the target VM needs to continue
/// the guest's deterministic execution mid-sequence. Microarchitectural
/// state (cache-simulator warmth, swiotlb slot history) is deliberately
/// *not* part of it — a migrated machine resumes with cold caches, exactly
/// as on real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmRuntimeState {
    /// Virtual clock reading at the pause point.
    pub cycles: u64,
    /// Internal state of the per-trial jitter stream.
    pub rng_state: u64,
    /// Currently allocated heap pages.
    pub heap_pages: u64,
    /// High-water mark of pages ever touched.
    pub high_water_pages: u64,
    /// Next guest-physical page the heap machinery would hand out.
    pub next_gpa: u64,
    /// Cumulative VM exits since boot.
    pub total_exits: u64,
    /// Cumulative guest page faults since boot.
    pub total_faults: u64,
}

impl Vm {
    /// The VM's target.
    pub fn target(&self) -> VmTarget {
        self.target
    }

    /// The active cost model (for inspection in benches/tests).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Virtual clock reading.
    pub fn now(&self) -> Cycles {
        self.clock.now()
    }

    /// Cumulative VM exits since boot.
    pub fn total_exits(&self) -> u64 {
        self.total_exits
    }

    /// Cumulative cache-simulator statistics since boot (`None` with the
    /// cache model off).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(CacheSim::stats)
    }

    /// The cache simulator (`None` with the cache model off).
    pub fn cache_mut(&mut self) -> Option<&mut CacheSim> {
        self.cache.as_mut()
    }

    /// Walk-memo lookups since boot: one per trial with the cache model on.
    pub fn walk_memo_counts(&self) -> WalkMemoCounts {
        self.cache.as_ref().map(CacheSim::memo_counts).unwrap_or_default()
    }

    /// The TDX module, when this VM is a trust domain (used by attestation).
    pub fn tdx_module_mut(&mut self) -> Option<(&mut TdxModule, TdId)> {
        match &mut self.platform {
            Platform::Tdx { module, td } => Some((module, *td)),
            _ => None,
        }
    }

    /// The AMD-SP, when this VM is an SNP guest (used by attestation).
    pub fn amd_sp_mut(&mut self) -> Option<(&mut AmdSp, u32)> {
        match &mut self.platform {
            Platform::Snp { sp, asid, .. } => Some((sp, *asid)),
            _ => None,
        }
    }

    /// The RMM, when this VM is a realm.
    pub fn rmm_mut(&mut self) -> Option<(&mut Rmm, RealmId)> {
        match &mut self.platform {
            Platform::Cca { rmm, rd, .. } => Some((rmm, *rd)),
            _ => None,
        }
    }

    /// The e-vTPM runtime-measurement device (secure VMs only).
    pub fn evtpm(&self) -> Option<&EvTpm> {
        self.evtpm.as_ref()
    }

    /// Mutable e-vTPM access, for workload-driven runtime extends.
    pub fn evtpm_mut(&mut self) -> Option<&mut EvTpm> {
        self.evtpm.as_mut()
    }

    /// The plugged accelerator, when the builder attached one.
    pub fn device(&self) -> Option<&GpuDevice> {
        self.device.as_ref()
    }

    /// TDISP state of the plugged accelerator.
    pub fn device_state(&self) -> Option<TdispState> {
        self.device.as_ref().map(|d| d.state())
    }

    /// Asks the plugged device for its signed SPDM measurement report,
    /// echoing `nonce`. This is a TEE mechanism crossing: the fault plan's
    /// `device-attest` point is rolled first (secure VMs only).
    ///
    /// # Errors
    ///
    /// An injected [`TeeFault`], or a fatal `device-attest` fault when no
    /// device is plugged / its interface is not locked yet.
    pub fn device_report(&mut self, nonce: [u8; 32]) -> Result<MeasurementReport, TeeFault> {
        self.roll(TeeMechanism::DeviceAttest)?;
        let fatal = || TeeFault::fatal(self.target.platform, TeeMechanism::DeviceAttest);
        self.device.as_ref().ok_or_else(fatal)?.measurement_report(nonce).map_err(|_| fatal())
    }

    /// Marks the device's measurement report verified and starts the
    /// interface: `Locked → Attested → Run`. Call after host-side policy
    /// (in `confbench-attest`) accepted the [`Vm::device_report`] evidence;
    /// from here DMA lands directly in private memory. In a normal VM this
    /// is a no-op — there is no TDISP flow to drive, and direct DMA is
    /// already permitted.
    ///
    /// # Errors
    ///
    /// An injected [`TeeFault`], or a fatal `device-attest` fault when no
    /// device is plugged or the interface is not in `Locked`.
    pub fn enable_device(&mut self) -> Result<(), TeeFault> {
        if self.target.kind != VmKind::Secure {
            return match &self.device {
                Some(_) => Ok(()),
                None => Err(TeeFault::fatal(self.target.platform, TeeMechanism::DeviceAttest)),
            };
        }
        self.roll(TeeMechanism::DeviceAttest)?;
        let platform = self.target.platform;
        let fatal = || TeeFault::fatal(platform, TeeMechanism::DeviceAttest);
        let device = self.device.as_mut().ok_or_else(fatal)?;
        device.accept_attestation().map_err(|_| fatal())?;
        device.start().map_err(|_| fatal())
    }

    /// Rolls the VM's fault plan at one mechanism crossing. Normal VMs have
    /// no TEE substrate, so only secure VMs ever fault.
    fn roll(&self, mechanism: TeeMechanism) -> Result<(), TeeFault> {
        if self.target.kind != VmKind::Secure {
            return Ok(());
        }
        match self.faults.as_deref().and_then(|p| p.roll(self.target.platform, mechanism)) {
            Some(fault) => Err(fault),
            None => Ok(()),
        }
    }

    /// Executes a trace, advancing the virtual clock, and returns the
    /// report. Consecutive calls model independent trials: per-trial jitter
    /// is drawn from the VM's seeded PRNG.
    ///
    /// The cache simulator is deterministic: the same accesses from the same
    /// line state (tags and LRU order of both levels) give the same deltas
    /// and leave the same line state. Every call asks the VM's [`WalkMemo`]
    /// whether these accesses were walked from this state before, by any VM
    /// holding the memo: if so it takes its deltas from that record and the
    /// walk waits until the lines are needed, if not it walks and records. A
    /// walked trial that repeats the last completed one is also checked for
    /// having left the lines where it found them, and from then on every
    /// repeat is a hit with nothing left to walk: ten trials new to the memo
    /// walk twice. Nothing else is skipped: heap and page accounting, the
    /// page mechanism, dirty marking, fault rolls, the accumulation order
    /// and the jitter draw run per call.
    ///
    /// TEE faults injected by an installed plan surface as `Err`. A faulted
    /// execution charges nothing — the virtual clock, exit totals, and
    /// jitter stream are only advanced on success — but the TEE page/bounce
    /// state machines may have moved, so supervisors treat a faulted VM as
    /// dirty and rebuild rather than trusting in-place state (transient
    /// faults are retried by re-running the whole attempt on a fresh VM).
    /// Without a plan, execution cannot fault.
    ///
    /// # Errors
    ///
    /// The injected [`TeeFault`]. One fault point is rolled per mechanism-
    /// crossing *operation* (allocation batch, I/O request, context-switch
    /// group…), not per individual exit, so the draw count is bounded by
    /// the trace length.
    pub fn try_execute(&mut self, trace: &OpTrace) -> Result<ExecutionReport, TeeFault> {
        let accesses = accesses_of(trace);
        let mut walk = self.cache.as_mut().map(|cache| cache.begin(&accesses));
        let outcome = self.execute_trial(trace, walk.as_mut());
        if let Some((cache, walk)) = self.cache.as_mut().zip(walk) {
            cache.finish(&accesses, walk, outcome.is_ok());
        }
        outcome
    }

    /// One trial's op loop. `walk` decides only how a memory op's cache
    /// deltas are obtained.
    fn execute_trial(
        &mut self,
        trace: &OpTrace,
        mut walk: Option<&mut Walk>,
    ) -> Result<ExecutionReport, TeeFault> {
        let exit_mech = TeeMechanism::exit_for(self.target.platform);
        let page_mech = TeeMechanism::page_for(self.target.platform);
        let mut cycles = 0.0f64;
        let mut instructions = 0u64;
        let mut exits = 0u64;
        let mut faults = 0u64;
        let mut cache_refs = 0u64;
        let mut cache_misses = 0u64;
        let mut device_ns = 0u64;
        // Per-class cost-event tallies (pre-jitter, pre-multiplier).
        let mut exit_cycles = 0.0f64;
        let mut fresh_pages = 0u64;
        let mut page_cycles = 0.0f64;
        let mut bounce_bytes = 0u64;
        let mut bounce_slots = 0u64;
        let mut bounce_cycles = 0.0f64;
        let mut syscalls = 0u64;
        let mut syscall_cycles = 0.0f64;
        let mut dma_direct_bytes = 0u64;
        let mut dma_direct_cycles = 0.0f64;
        let mut dma_bounce_bytes = 0u64;
        let mut dev_kernels = 0u64;
        let mut dev_kernel_ns = 0u64;

        for op in trace {
            match *op {
                Op::Cpu(n) => {
                    instructions += n;
                    cycles += n as f64 * self.cost.cpu_op;
                }
                Op::Float(n) => {
                    instructions += n;
                    cycles += n as f64 * self.cost.float_op;
                }
                Op::MemRead { addr, bytes } | Op::MemWrite { addr, bytes } => {
                    if matches!(op, Op::MemWrite { .. }) {
                        self.mark_write_dirty(addr, bytes);
                    }
                    let (refs, l2_hits, misses) = match (&mut self.cache, &mut walk) {
                        (Some(cache), Some(walk)) => {
                            let d = cache.access(walk, addr, bytes);
                            (d.references, d.l2_hits, d.misses)
                        }
                        _ => {
                            // Flat model: every line costs an average blend.
                            let lines = bytes.div_ceil(64).max(1);
                            (lines, 0, lines / 8)
                        }
                    };
                    instructions += refs;
                    cache_refs += refs;
                    cache_misses += misses;
                    cycles += refs as f64 * self.cost.line_touch
                        + l2_hits as f64 * self.cost.l2_hit_penalty
                        + misses as f64 * (self.cost.dram_penalty + self.cost.secure_miss_extra);
                }
                Op::Alloc(bytes) => {
                    let pages = pages_for(bytes);
                    self.heap_pages += pages;
                    let total = BOOT_IMAGE_PAGES + self.heap_pages;
                    let fresh = total.saturating_sub(self.high_water_pages);
                    let fresh = fresh.min(pages);
                    let reused = pages - fresh;
                    self.high_water_pages = self.high_water_pages.max(total);
                    let fresh_cost =
                        fresh as f64 * (self.cost.alloc_page + self.cost.alloc_fresh_extra);
                    cycles += fresh_cost + reused as f64 * self.cost.alloc_reuse_page;
                    fresh_pages += fresh;
                    page_cycles += fresh_cost;
                    faults += fresh;
                    if self.target.kind == VmKind::Secure && fresh > 0 {
                        // Fresh secure pages exit to the host for mapping.
                        exits += fresh;
                        self.roll(page_mech)?;
                        self.drive_page_mechanism(fresh.min(MECHANISM_PAGES_PER_ALLOC));
                    }
                }
                Op::Free(bytes) => {
                    let pages = pages_for(bytes).min(self.heap_pages);
                    self.heap_pages -= pages;
                    // Sub-page frees still do allocator bookkeeping.
                    cycles += (pages as f64).max(1.0) * self.cost.free_page;
                }
                Op::Syscall { kind, count } => {
                    instructions += count * 40;
                    let mult = match kind {
                        SyscallKind::Spawn => 30.0, // fork+exec kernel work
                        SyscallKind::DirOp | SyscallKind::FileMeta => 2.0,
                        _ => 1.0,
                    };
                    let sys_cost = count as f64 * self.cost.syscall_guest * mult;
                    cycles += sys_cost;
                    syscalls += count;
                    syscall_cycles += sys_cost;
                    if kind == SyscallKind::Spawn {
                        // Process creation touches fresh address-space pages.
                        let pages = 48 * count;
                        let page_cost = pages as f64
                            * (self.cost.alloc_page + self.cost.alloc_fresh_extra)
                            * 0.5; // half are COW-shared
                        cycles += page_cost;
                        fresh_pages += pages;
                        page_cycles += page_cost;
                        faults += pages;
                        if self.target.kind == VmKind::Secure {
                            exits += pages / 2;
                        }
                    }
                }
                Op::IoRead(bytes)
                | Op::IoWrite(bytes)
                | Op::DevDmaIn(bytes)
                | Op::DevDmaOut(bytes) => {
                    // Path selection is the tentpole: an attached device
                    // whose TDISP interface reached `Run` (or any device in
                    // a normal VM) DMAs straight into guest memory; a
                    // locked-but-unattested device may only target shared
                    // memory, so its transfers ride the swiotlb bounce
                    // path like ordinary confidential I/O. With no device
                    // plugged the trace still replays, as plain emulated I/O.
                    let dev_dma = matches!(op, Op::DevDmaIn(_) | Op::DevDmaOut(_));
                    let direct = dev_dma
                        && self.device.as_ref().is_some_and(|dev| {
                            self.target.kind != VmKind::Secure || dev.direct_dma_enabled()
                        });
                    if dev_dma && self.device.is_some() {
                        self.roll(TeeMechanism::DeviceDma)?;
                        if !direct {
                            dma_bounce_bytes += bytes;
                        }
                    }
                    if direct {
                        let dma_cost = bytes as f64 * self.cost.dma_byte + self.cost.exit_cost;
                        cycles += dma_cost;
                        dma_direct_bytes += bytes;
                        dma_direct_cycles += dma_cost;
                        // One doorbell exit per transfer.
                        exit_cycles += self.cost.exit_cost;
                        exits += 1;
                        continue;
                    }
                    cycles += bytes as f64 * self.cost.io_byte;
                    if self.target.kind == VmKind::Secure && self.cost.bounce_copy_byte > 0.0 {
                        self.roll(TeeMechanism::SwiotlbAlloc)?;
                        let stats = self.swiotlb.transfer(bytes);
                        let stage_cost = stats.bytes_copied as f64 * self.cost.bounce_copy_byte
                            + stats.slots_used as f64 * self.cost.bounce_slot;
                        cycles += stage_cost;
                        bounce_bytes += stats.bytes_copied;
                        bounce_slots += stats.slots_used;
                        bounce_cycles += stage_cost;
                        let doorbells =
                            stats.slots_used.div_ceil(self.cost.io_slots_per_exit).max(1);
                        cycles += doorbells as f64 * self.cost.exit_cost;
                        exit_cycles += doorbells as f64 * self.cost.exit_cost;
                        exits += doorbells;
                    } else {
                        // One virtio kick per request.
                        self.roll(exit_mech)?;
                        cycles += self.cost.exit_cost;
                        exit_cycles += self.cost.exit_cost;
                        exits += 1;
                    }
                }
                Op::CtxSwitch(n) => {
                    self.roll(exit_mech)?;
                    cycles += n as f64 * (self.cost.ctx_switch + self.cost.exit_cost);
                    exit_cycles += n as f64 * self.cost.exit_cost;
                    exits += n;
                }
                Op::PageCycle(bytes) => {
                    // Pages handed back to the host lose their accepted/
                    // validated state; refaulting pays the full fresh-page
                    // price every time, TEE or not the clear, plus TEE
                    // acceptance and one exit per page in a secure VM.
                    let pages = pages_for(bytes);
                    let refault_cost = pages as f64
                        * (self.cost.free_page
                            + self.cost.alloc_page
                            + self.cost.alloc_fresh_extra);
                    cycles += refault_cost;
                    fresh_pages += pages;
                    page_cycles += refault_cost;
                    faults += pages;
                    if self.target.kind == VmKind::Secure {
                        exits += pages;
                        self.roll(page_mech)?;
                        self.drive_page_mechanism(pages.min(MECHANISM_PAGES_PER_ALLOC));
                    }
                }
                Op::DeviceWait(ns) => {
                    device_ns += ns;
                    // Completion interrupt wakes the guest: one exit round
                    // trip plus scheduler work, charged as compute.
                    self.roll(exit_mech)?;
                    cycles += self.cost.exit_cost + self.cost.ctx_switch;
                    exit_cycles += self.cost.exit_cost;
                    exits += 1;
                }
                Op::DevKernel(ns) => {
                    // Like DeviceWait: the kernel runs in host wall time
                    // (no FVP multiplier) and its completion interrupt
                    // costs one exit round trip.
                    device_ns += ns;
                    dev_kernels += 1;
                    dev_kernel_ns += ns;
                    self.roll(exit_mech)?;
                    cycles += self.cost.exit_cost + self.cost.ctx_switch;
                    exit_cycles += self.cost.exit_cost;
                    exits += 1;
                }
                Op::Log(bytes) => {
                    self.roll(exit_mech)?;
                    cycles += bytes as f64 * self.cost.log_byte;
                    let flushes = bytes.div_ceil(self.cost.log_flush_bytes).max(1);
                    cycles += flushes as f64 * self.cost.exit_cost;
                    exit_cycles += flushes as f64 * self.cost.exit_cost;
                    exits += flushes;
                }
            }
        }

        // Per-trial multiplicative jitter, then the simulation layer.
        // Device waits are host-side wall time: jittered, but NOT subject
        // to the FVP simulation multiplier (the simulator's virtual device
        // completes in host time while simulated CPU work crawls).
        let jitter = (1.0 + self.rng.next_gaussian() * self.cost.jitter_rel_std).clamp(0.55, 1.8);
        let device_cycles = device_ns as f64 * self.target.platform.host_freq_ghz();
        let total = (cycles * self.cost.sim_multiplier + device_cycles) * jitter;
        let cycles = Cycles::new(total.round() as u64);

        self.clock.advance(cycles);
        self.total_exits += exits;
        self.total_faults += faults;

        let perf = PerfReport {
            instructions,
            cycles: cycles.get(),
            cache_references: cache_refs,
            cache_misses,
            vm_exits: exits,
            page_faults: faults,
            bounce_bytes,
            from_hw_counters: self.target.platform.has_perf_counters(),
        };
        let events = CostEvents {
            exits,
            exit_cycles: exit_cycles.round() as u64,
            fresh_pages,
            page_cycles: page_cycles.round() as u64,
            bounce_bytes,
            bounce_slots,
            bounce_cycles: bounce_cycles.round() as u64,
            syscalls,
            syscall_cycles: syscall_cycles.round() as u64,
            dma_direct_bytes,
            dma_direct_cycles: dma_direct_cycles.round() as u64,
            dma_bounce_bytes,
            dev_kernels,
            dev_kernel_ns,
        };
        Ok(ExecutionReport {
            target: self.target,
            cycles,
            wall_ms: cycles.as_millis(self.target.platform.host_freq_ghz()),
            perf,
            events,
        })
    }

    /// Executes a trace like [`Vm::try_execute`] and attaches the report's
    /// cost-event spans ([`ExecutionReport::attach_spans`]) under `parent`.
    /// Faults surface as `Err`, with no child spans for the aborted run.
    ///
    /// # Errors
    ///
    /// As [`Vm::try_execute`].
    pub fn try_execute_spanned(
        &mut self,
        trace: &OpTrace,
        parent: &mut ActiveSpan,
    ) -> Result<ExecutionReport, TeeFault> {
        let report = self.try_execute(trace)?;
        report.attach_spans(parent);
        Ok(report)
    }

    /// Pages currently resident in the guest: the measured boot image plus
    /// every heap page the platform machinery has handed out.
    pub fn resident_page_count(&self) -> u64 {
        BOOT_IMAGE_PAGES + (self.next_gpa - HEAP_GPA_BASE)
    }

    /// Guest-physical ids of every resident page, in address order.
    pub fn resident_page_ids(&self) -> Vec<u64> {
        (0..BOOT_IMAGE_PAGES).chain(HEAP_GPA_BASE..self.next_gpa).collect()
    }

    /// Pages written since dirty tracking was last drained.
    pub fn dirty_page_count(&self) -> usize {
        self.dirty.len()
    }

    /// Marks every resident page dirty — the start of a migration, where
    /// the first pre-copy round must transfer the whole memory image.
    pub fn mark_all_dirty(&mut self) {
        for id in self.resident_page_ids() {
            self.dirty.insert(id);
        }
    }

    /// Drains the dirty set for one pre-copy round, returning the pages to
    /// transfer in address order. A TEE mechanism crossing: the fault
    /// plan's `migration-export` point is rolled first (secure VMs only),
    /// and on an injected fault the dirty set is left untouched so the
    /// round can be retried.
    ///
    /// # Errors
    ///
    /// The injected [`TeeFault`].
    pub fn export_dirty_pages(&mut self) -> Result<Vec<u64>, TeeFault> {
        self.roll(TeeMechanism::MigrationExport)?;
        Ok(self.dirty.take())
    }

    /// Captures the architectural runtime state at the stop-and-copy
    /// point. Rolls the `migration-export` fault point.
    ///
    /// # Errors
    ///
    /// The injected [`TeeFault`].
    pub fn export_runtime_state(&mut self) -> Result<VmRuntimeState, TeeFault> {
        self.roll(TeeMechanism::MigrationExport)?;
        Ok(VmRuntimeState {
            cycles: self.clock.now().get(),
            rng_state: self.rng.state(),
            heap_pages: self.heap_pages,
            high_water_pages: self.high_water_pages,
            next_gpa: self.next_gpa,
            total_exits: self.total_exits,
            total_faults: self.total_faults,
        })
    }

    /// Imports one migration round's pages on the *target* VM: heap pages
    /// the target has not materialized yet are pushed through the real
    /// platform page machinery (SEPT aug/accept, RMP assign/validate,
    /// granule map), re-sent pages are a plain content copy. Returns how
    /// many pages were freshly materialized. Rolls the `migration-import`
    /// fault point.
    ///
    /// # Errors
    ///
    /// The injected [`TeeFault`].
    pub fn import_pages(&mut self, gpas: &[u64]) -> Result<u64, TeeFault> {
        self.roll(TeeMechanism::MigrationImport)?;
        let mut fresh = 0u64;
        for &gpa in gpas {
            while gpa >= HEAP_GPA_BASE && self.next_gpa <= gpa {
                self.drive_page_mechanism(1);
                fresh += 1;
            }
        }
        Ok(fresh)
    }

    /// Installs the source's [`VmRuntimeState`] on the target VM — the final
    /// step before resume. Any heap pages the page stream did not cover are
    /// materialized, the virtual clock is advanced to the source's reading,
    /// and the jitter stream continues exactly where the source paused, so
    /// post-resume executions are byte-identical to a VM that never moved.
    /// Rolls the `migration-import` fault point.
    ///
    /// # Errors
    ///
    /// The injected [`TeeFault`].
    pub fn adopt_runtime_state(&mut self, state: &VmRuntimeState) -> Result<(), TeeFault> {
        self.roll(TeeMechanism::MigrationImport)?;
        while self.next_gpa < state.next_gpa {
            self.drive_page_mechanism(1);
        }
        let now = self.clock.now().get();
        if state.cycles > now {
            self.clock.advance(Cycles::new(state.cycles - now));
        }
        self.rng = SplitMix64::new(state.rng_state);
        self.heap_pages = state.heap_pages;
        self.high_water_pages = state.high_water_pages;
        self.total_exits = state.total_exits;
        self.total_faults = state.total_faults;
        self.dirty.clear();
        Ok(())
    }

    /// Maps a written virtual address run onto resident guest pages and
    /// marks them dirty. The mapping is deterministic (address-derived), so
    /// the dirty stream replays exactly under a fixed workload.
    fn mark_write_dirty(&mut self, addr: u64, bytes: u64) {
        let resident = self.resident_page_count();
        let pages = bytes.div_ceil(4096).clamp(1, 8);
        for i in 0..pages {
            let idx = (addr >> 12).wrapping_add(i) % resident;
            let id =
                if idx < BOOT_IMAGE_PAGES { idx } else { HEAP_GPA_BASE + (idx - BOOT_IMAGE_PAGES) };
            self.dirty.insert(id);
        }
    }

    /// Pushes a bounded number of fresh pages through the platform's real
    /// page machinery so the state machines are exercised, not just costed.
    fn drive_page_mechanism(&mut self, pages: u64) {
        for _ in 0..pages {
            let gpa = self.next_gpa;
            self.next_gpa += 1;
            self.dirty.insert(gpa);
            match &mut self.platform {
                Platform::Normal => {}
                Platform::Tdx { module, td } => {
                    let hpa = PageNum(0x4_0000 + gpa);
                    if module.tdh_mem_page_aug(*td, PageNum(gpa), hpa).is_ok() {
                        let _ = module.tdg_mem_page_accept(*td, PageNum(gpa));
                    }
                }
                Platform::Snp { sp, asid, next_page } => {
                    let page = PageNum(*next_page);
                    *next_page += 1;
                    let asid = *asid;
                    if sp.rmp_mut().assign(page, asid).is_ok() {
                        let _ = sp.rmp_mut().pvalidate(page, asid);
                    }
                    sp.record_ghcb_exit();
                }
                Platform::Cca { rmm, rd, next_granule } => {
                    let g = PageNum(*next_granule);
                    *next_granule += 1;
                    let _ = rmm.map_runtime_granule(*rd, PageNum(0x1000 + gpa), g);
                    rmm.record_rsi_call();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::WalkMemoCounts;
    use confbench_obs::SpanRecorder;
    use confbench_types::ManualClock;
    use std::sync::Arc;

    fn io_heavy_trace() -> OpTrace {
        let mut t = OpTrace::new();
        t.cpu(10_000);
        t.alloc(1 << 20);
        t.syscall(SyscallKind::FileRead, 32);
        t.io_write(256 * 1024);
        t
    }

    #[test]
    fn events_mirror_perf_counters() {
        let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).try_build().unwrap();
        let r = vm.try_execute(&io_heavy_trace()).unwrap();
        assert_eq!(r.events.exits, r.perf.vm_exits);
        assert_eq!(r.events.bounce_bytes, r.perf.bounce_bytes);
        assert!(r.events.bounce_bytes >= 256 * 1024, "whole transfer staged");
        assert!(r.events.fresh_pages >= 256, "1 MiB alloc faults 256 fresh pages");
        assert_eq!(r.events.syscalls, 32);
        assert!(r.events.exit_cycles > 0 && r.events.page_cycles > 0);
    }

    #[test]
    fn normal_vm_has_no_bounce_events() {
        let mut vm = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Tdx)).try_build().unwrap();
        let r = vm.try_execute(&io_heavy_trace()).unwrap();
        assert_eq!(r.events.bounce_bytes, 0);
        assert_eq!(r.perf.bounce_bytes, 0);
        assert!(r.events.exits > 0, "virtio kicks still exit");
    }

    #[test]
    fn spanned_execution_emits_platform_named_children() {
        let clock = Arc::new(ManualClock::new());
        let rec = SpanRecorder::new(clock);
        for (platform, exit_name, page_name) in [
            (TeePlatform::Tdx, "tdx.seamcall", "tdx.page-accept"),
            (TeePlatform::SevSnp, "snp.ghcb-exit", "snp.rmp-validate"),
            (TeePlatform::Cca, "cca.rmm-exit", "cca.rmm-delegate"),
        ] {
            let mut vm = TeeVmBuilder::new(VmTarget::secure(platform)).try_build().unwrap();
            let mut root = rec.root("vm.execute");
            let r = vm.try_execute_spanned(&io_heavy_trace(), &mut root).unwrap();
            let tree = root.finish();
            let exit = tree.find(exit_name).unwrap_or_else(|| panic!("{exit_name} span"));
            assert_eq!(exit.attr("count"), Some(r.perf.vm_exits));
            let pages = tree.find(page_name).unwrap_or_else(|| panic!("{page_name} span"));
            assert_eq!(pages.attr("pages"), Some(r.events.fresh_pages));
            let swiotlb = tree.find("swiotlb.copy").expect("swiotlb span");
            assert_eq!(swiotlb.attr("bytes"), Some(r.perf.bounce_bytes));
            let sys = tree.find("guest.syscall").expect("syscall span");
            assert_eq!(sys.attr("count"), Some(32));
        }
    }

    #[test]
    fn spanned_execution_in_normal_vm_uses_generic_exit_name() {
        let rec = SpanRecorder::new(Arc::new(ManualClock::new()));
        let mut vm = TeeVmBuilder::new(VmTarget::normal(TeePlatform::SevSnp)).try_build().unwrap();
        let mut root = rec.root("vm.execute");
        vm.try_execute_spanned(&io_heavy_trace(), &mut root).unwrap();
        let tree = root.finish();
        assert!(tree.find("vmexit").is_some());
        assert!(tree.find("snp.ghcb-exit").is_none());
        assert!(tree.find("snp.rmp-validate").is_none(), "no page mechanism in a normal VM");
        assert!(tree.find("swiotlb.copy").is_none(), "no staging in a normal VM");
    }

    /// Supervisor-style recovery: rebuild a fresh VM and retry the whole
    /// execution until one attempt crosses every fault point clean.
    fn run_until_clean(
        target: VmTarget,
        seed: u64,
        plan: &Arc<TeeFaultPlan>,
        trace: &OpTrace,
    ) -> ExecutionReport {
        for _ in 0..10_000 {
            let Ok(mut vm) =
                TeeVmBuilder::new(target).seed(seed).fault_plan(Arc::clone(plan)).try_build()
            else {
                continue;
            };
            if let Ok(report) = vm.try_execute(trace) {
                return report;
            }
        }
        panic!("no clean attempt in 10k tries (rate too high?)");
    }

    #[test]
    fn chaos_survivors_are_bit_identical_to_fault_free_runs() {
        // The core determinism property behind chaos campaigns: a run that
        // survives its injected faults (after rebuilds) reports exactly
        // what a fault-free run reports, because the fault stream is
        // separate from the timing streams.
        let trace = io_heavy_trace();
        for platform in TeePlatform::ALL {
            let target = VmTarget::secure(platform);
            let clean =
                TeeVmBuilder::new(target).seed(9).try_build().unwrap().try_execute(&trace).unwrap();
            let plan = Arc::new(TeeFaultPlan::new(41, 0.25));
            let survived = run_until_clean(target, 9, &plan, &trace);
            assert!(plan.injected() > 0, "{platform}: chaos plan never fired");
            assert_eq!(clean, survived, "{platform}: chaos must not perturb measurements");
        }
    }

    #[test]
    fn boot_faults_surface_from_try_build() {
        let plan = Arc::new(TeeFaultPlan::new(1, 1.0).with_fatal_ratio(1.0));
        for platform in TeePlatform::ALL {
            let fault = TeeVmBuilder::new(VmTarget::secure(platform))
                .fault_plan(Arc::clone(&plan))
                .try_build()
                .unwrap_err();
            assert_eq!(fault.platform, platform);
            assert!(!fault.is_transient());
        }
    }

    #[test]
    fn faulted_execution_charges_nothing() {
        let plan = Arc::new(TeeFaultPlan::new(2, 0.0).with_rate(TeeMechanism::SwiotlbAlloc, 1.0));
        let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx))
            .fault_plan(plan)
            .try_build()
            .unwrap();
        let before = vm.now();
        let mut t = OpTrace::new();
        t.io_write(64 * 1024);
        let fault = vm.try_execute(&t).unwrap_err();
        assert_eq!(fault.mechanism, TeeMechanism::SwiotlbAlloc);
        assert_eq!(vm.now(), before, "aborted run must not advance the clock");
        assert_eq!(vm.total_exits(), 0);
    }

    #[test]
    fn normal_vms_ignore_the_fault_plan() {
        let plan = Arc::new(TeeFaultPlan::new(3, 1.0));
        let mut vm = TeeVmBuilder::new(VmTarget::normal(TeePlatform::SevSnp))
            .fault_plan(plan)
            .try_build()
            .expect("normal VMs have no TEE substrate to fault");
        assert!(vm.try_execute(&io_heavy_trace()).is_ok());
    }

    #[test]
    fn seeded_chaos_survives_on_every_platform() {
        let plan = Arc::new(TeeFaultPlan::new(77, 0.1));
        let trace = io_heavy_trace();
        for platform in TeePlatform::ALL {
            let survived = run_until_clean(VmTarget::secure(platform), 5, &plan, &trace);
            let clean = TeeVmBuilder::new(VmTarget::secure(platform)).seed(5).try_build().unwrap();
            assert_eq!(survived, {
                let mut vm = clean;
                vm.try_execute(&trace).unwrap()
            });
        }
    }

    fn dev_dma_trace() -> OpTrace {
        let mut t = OpTrace::new();
        t.cpu(1_000);
        t.dev_dma_in(512 * 1024);
        t.dev_kernel(20_000);
        t.dev_dma_out(64 * 1024);
        t
    }

    /// Full TDISP bring-up: lock happened at build, then report → verify →
    /// accept → start.
    fn attest_device(vm: &mut Vm) {
        let report = vm.device_report([9; 32]).unwrap();
        report.verify(&confbench_devio::vendor_verifying_key()).unwrap();
        vm.enable_device().unwrap();
    }

    #[test]
    fn secure_device_boots_locked_and_runs_after_attestation() {
        let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx))
            .device(DeviceKind::Gpu)
            .try_build()
            .unwrap();
        assert_eq!(vm.device_state(), Some(TdispState::Locked));
        attest_device(&mut vm);
        assert_eq!(vm.device_state(), Some(TdispState::Run));
        let r = vm.try_execute(&dev_dma_trace()).unwrap();
        assert_eq!(r.events.dma_direct_bytes, (512 + 64) * 1024);
        assert_eq!(r.events.dma_bounce_bytes, 0);
        assert_eq!(r.events.bounce_bytes, 0, "direct DMA never touches the bounce pool");
        assert_eq!(r.events.dev_kernels, 1);
        assert_eq!(r.events.dev_kernel_ns, 20_000);
    }

    #[test]
    fn unattested_device_dma_rides_the_bounce_path() {
        let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx))
            .device(DeviceKind::Gpu)
            .try_build()
            .unwrap();
        let r = vm.try_execute(&dev_dma_trace()).unwrap();
        assert_eq!(r.events.dma_direct_bytes, 0);
        assert_eq!(r.events.dma_bounce_bytes, (512 + 64) * 1024);
        assert!(r.events.bounce_bytes >= (512 + 64) * 1024, "staged through swiotlb");
    }

    #[test]
    fn normal_vm_device_dma_is_direct_without_attestation() {
        let mut vm = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Tdx))
            .device(DeviceKind::Gpu)
            .try_build()
            .unwrap();
        assert_eq!(vm.device_state(), Some(TdispState::Unlocked));
        let r = vm.try_execute(&dev_dma_trace()).unwrap();
        assert_eq!(r.events.dma_direct_bytes, (512 + 64) * 1024);
        assert_eq!(r.events.bounce_bytes, 0);
    }

    #[test]
    fn attested_dma_ratio_is_near_native_and_bounce_is_not() {
        for platform in TeePlatform::ALL {
            let mut trace = OpTrace::new();
            trace.cpu(5_000);
            trace.dev_dma_in(4 << 20);
            trace.dev_dma_out(1 << 20);
            let mean = |vm: &mut Vm| {
                let cycles = |_| vm.try_execute(&trace).unwrap().cycles.get() as f64;
                (0..5).map(cycles).sum::<f64>() / 5.0
            };
            let mut normal = TeeVmBuilder::new(VmTarget::normal(platform))
                .seed(3)
                .device(DeviceKind::Gpu)
                .try_build()
                .unwrap();
            let mut attested = TeeVmBuilder::new(VmTarget::secure(platform))
                .seed(3)
                .device(DeviceKind::Gpu)
                .try_build()
                .unwrap();
            attest_device(&mut attested);
            let mut locked = TeeVmBuilder::new(VmTarget::secure(platform))
                .seed(3)
                .device(DeviceKind::Gpu)
                .try_build()
                .unwrap();
            let base = mean(&mut normal);
            let direct_ratio = mean(&mut attested) / base;
            let bounce_ratio = mean(&mut locked) / base;
            assert!(
                (0.8..1.25).contains(&direct_ratio),
                "{platform}: attested DMA should be near-native, got {direct_ratio:.2}"
            );
            assert!(
                bounce_ratio > direct_ratio * 1.5,
                "{platform}: unattested DMA must pay the staging tax \
                 ({bounce_ratio:.2} vs {direct_ratio:.2})"
            );
        }
    }

    #[test]
    fn device_traces_replay_without_a_device() {
        // A gpu-inference trace scheduled onto a device-less VM still runs:
        // DMA degrades to plain emulated I/O.
        let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::SevSnp)).try_build().unwrap();
        let r = vm.try_execute(&dev_dma_trace()).unwrap();
        assert_eq!(r.events.dma_direct_bytes, 0);
        assert_eq!(r.events.dma_bounce_bytes, 0, "no device: not accounted as device DMA");
        assert!(r.events.bounce_bytes > 0, "falls back to the confidential I/O path");
    }

    #[test]
    fn device_report_requires_a_plugged_device() {
        let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).try_build().unwrap();
        let fault = vm.device_report([0; 32]).unwrap_err();
        assert_eq!(fault.mechanism, TeeMechanism::DeviceAttest);
        assert!(!fault.is_transient());
        assert!(vm.enable_device().is_err());
    }

    #[test]
    fn spanned_device_execution_emits_devio_children() {
        let rec = SpanRecorder::new(Arc::new(ManualClock::new()));
        let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx))
            .device(DeviceKind::Gpu)
            .try_build()
            .unwrap();
        attest_device(&mut vm);
        let mut root = rec.root("vm.execute");
        let r = vm.try_execute_spanned(&dev_dma_trace(), &mut root).unwrap();
        let tree = root.finish();
        let direct = tree.find("devio.dma-direct").expect("direct DMA span");
        assert_eq!(direct.attr("bytes"), Some(r.events.dma_direct_bytes));
        let kernel = tree.find("devio.kernel").expect("kernel span");
        assert_eq!(kernel.attr("count"), Some(1));
        assert!(tree.find("devio.dma-bounce").is_none());

        let mut locked = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx))
            .device(DeviceKind::Gpu)
            .try_build()
            .unwrap();
        let mut root = rec.root("vm.execute");
        let r = locked.try_execute_spanned(&dev_dma_trace(), &mut root).unwrap();
        let tree = root.finish();
        let bounce = tree.find("devio.dma-bounce").expect("bounce DMA span");
        assert_eq!(bounce.attr("bytes"), Some(r.events.dma_bounce_bytes));
        assert!(tree.find("swiotlb.copy").is_some(), "staging itself is spanned");
        assert!(tree.find("devio.dma-direct").is_none());
    }

    #[test]
    fn device_chaos_survivors_match_fault_free_runs() {
        // PR 5's determinism property extended to devices: TDISP lock,
        // attestation and DMA fault points perturb nothing when survived.
        let trace = dev_dma_trace();
        for platform in TeePlatform::ALL {
            let target = VmTarget::secure(platform);
            let clean = {
                let mut vm =
                    TeeVmBuilder::new(target).seed(13).device(DeviceKind::Gpu).try_build().unwrap();
                attest_device(&mut vm);
                vm.try_execute(&trace).unwrap()
            };
            let plan = Arc::new(
                TeeFaultPlan::new(23, 0.0)
                    .with_rate(TeeMechanism::TdispLock, 0.3)
                    .with_rate(TeeMechanism::DeviceAttest, 0.3)
                    .with_rate(TeeMechanism::DeviceDma, 0.3),
            );
            let survived = (0..10_000)
                .find_map(|_| {
                    let mut vm = TeeVmBuilder::new(target)
                        .seed(13)
                        .device(DeviceKind::Gpu)
                        .fault_plan(Arc::clone(&plan))
                        .try_build()
                        .ok()?;
                    vm.device_report([9; 32]).ok()?;
                    vm.enable_device().ok()?;
                    vm.try_execute(&trace).ok()
                })
                .expect("no clean attempt in 10k tries");
            assert!(plan.injected() > 0, "{platform}: device chaos never fired");
            assert_eq!(clean, survived, "{platform}: device chaos must not perturb results");
        }
    }

    /// Line walks and line-state snapshots taken on this thread so far.
    fn walks_and_snapshots() -> (usize, usize) {
        let get = std::cell::Cell::get;
        (crate::cache::WALKS.with(get), crate::cache::SNAPSHOTS.with(get))
    }

    /// Runs `trace` `trials` times and, on an identically seeded twin whose
    /// memo keeps nothing (so it walks every trial), as often again; asserts
    /// the two agree on every report and on the cache simulator, line state
    /// included, and returns how many line-state snapshots the first took,
    /// and its reports.
    fn snapshots_with_twin_agreement(
        target: VmTarget,
        trace: &OpTrace,
        trials: u32,
    ) -> (usize, Vec<ExecutionReport>) {
        let mut vm = TeeVmBuilder::new(target).seed(21).try_build().unwrap();
        let forgetful = Arc::new(WalkMemo::new(0));
        let mut twin = TeeVmBuilder::new(target).seed(21).walk_memo(forgetful).try_build().unwrap();
        let before = walks_and_snapshots().1;
        let reports: Vec<_> = (0..trials).map(|_| vm.try_execute(trace).unwrap()).collect();
        let snapshots = walks_and_snapshots().1 - before;
        let walked: Vec<_> = (0..trials).map(|_| twin.try_execute(trace).unwrap()).collect();
        assert_eq!(format!("{reports:?}"), format!("{walked:?}"), "{trials} trials");
        let (cache, twin_cache) = (vm.cache.as_mut().unwrap(), twin.cache.as_mut().unwrap());
        assert_eq!(cache.stats(), twin_cache.stats(), "{trials} trials: cumulative stats");
        assert!(cache.line_state() == twin_cache.line_state(), "{trials} trials: line state");
        (snapshots, reports)
    }

    #[test]
    fn only_a_trial_repeating_the_last_completed_one_takes_a_snapshot() {
        let target = VmTarget::secure(TeePlatform::Tdx);
        let mut trace = io_heavy_trace();
        trace.mem_write(96 << 10);
        // The second trial is the first repeat: one snapshot, which its own
        // lines are compared with in place; the third replays the proof.
        for (trials, snapshots) in [(0, 0), (1, 0), (2, 1), (3, 1), (10, 1)] {
            assert_eq!(snapshots_with_twin_agreement(target, &trace, trials).0, snapshots);
        }
        // A trace alternating with another repeats neither: nothing to
        // prove, and every trial of both walks.
        let mut other = OpTrace::new();
        other.mem_read(64 << 10);
        let mut vm = TeeVmBuilder::new(target).seed(21).try_build().unwrap();
        let before = walks_and_snapshots();
        for _ in 0..5 {
            vm.try_execute(&trace).unwrap();
            vm.try_execute(&other).unwrap();
        }
        assert_eq!(walks_and_snapshots(), (before.0 + 10, before.1));
        assert_eq!(vm.walk_memo_counts(), WalkMemoCounts { hits: 0, misses: 10, evictions: 0 });
    }

    #[test]
    fn ten_trials_walk_their_lines_twice_and_one_trial_once() {
        // The calls `HostAgent::execute` makes on an attempt's VM: the
        // launcher bootstrap's own execution, then one per trial, the
        // measured one included.
        let mut bootstrap = OpTrace::new();
        bootstrap.mem_write(256 << 10);
        let mut trace = io_heavy_trace();
        trace.mem_write(96 << 10);
        let buffer = trace.mem_read(24 << 10);
        trace.mem_read_at(buffer, 24 << 10);
        let mem_ops =
            trace.iter().filter(|op| matches!(op, Op::MemRead { .. } | Op::MemWrite { .. }));
        let mem_ops = mem_ops.count();
        assert_eq!(mem_ops, 3);
        for (trials, walked, snapshots) in [(1, 1, 0), (3, 2, 1), (10, 2, 1)] {
            let mut vm =
                TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(21).try_build().unwrap();
            let before = walks_and_snapshots();
            vm.try_execute(&bootstrap).unwrap();
            assert_eq!(walks_and_snapshots(), (before.0 + 1, before.1), "the bootstrap's one op");
            let before = walks_and_snapshots();
            for _ in 0..trials {
                vm.try_execute(&trace).unwrap();
            }
            let after = (before.0 + mem_ops * walked, before.1 + snapshots);
            assert_eq!(walks_and_snapshots(), after, "{trials} trials");
        }
    }

    #[test]
    fn on_a_warm_memo_a_bootstrap_and_ten_trials_walk_nothing() {
        let walks = || walks_and_snapshots().0;
        let mut bootstrap = OpTrace::new();
        bootstrap.mem_write(256 << 10);
        let mut trace = io_heavy_trace();
        trace.mem_write(96 << 10);
        let buffer = trace.mem_read(24 << 10);
        trace.mem_read_at(buffer, 24 << 10);
        let target = VmTarget::secure(TeePlatform::Tdx);
        let memo = Arc::new(WalkMemo::new(1 << 20));
        let boot = |seed| {
            TeeVmBuilder::new(target).seed(seed).walk_memo(Arc::clone(&memo)).try_build().unwrap()
        };
        let host_calls = |vm: &mut Vm| {
            vm.try_execute(&bootstrap).unwrap();
            (0..10).map(|_| vm.try_execute(&trace).unwrap()).collect::<Vec<_>>()
        };
        // Another seed walks first: twice per op of the trace, as ever.
        let (mut first, before) = (boot(21), walks());
        host_calls(&mut first);
        assert_eq!(walks() - before, 1 + 3 * 2);
        assert_eq!(first.walk_memo_counts(), WalkMemoCounts { hits: 8, misses: 3, evictions: 0 });

        let (mut second, before) = (boot(22), walks_and_snapshots());
        let reports = host_calls(&mut second);
        assert_eq!(walks_and_snapshots(), before, "every trial was taken on credit");
        assert_eq!(second.cache.as_ref().unwrap().boxed_sets(), 0, "and no line was needed");
        assert_eq!(second.walk_memo_counts(), WalkMemoCounts { hits: 11, misses: 0, evictions: 0 });

        // Asked, it is the VM that walked everything itself.
        let mut alone = TeeVmBuilder::new(target).seed(22).try_build().unwrap();
        assert_eq!(format!("{reports:?}"), format!("{:?}", host_calls(&mut alone)));
        assert_eq!(second.cache_stats(), alone.cache_stats());
        let lines = |vm: &mut Vm| vm.cache.as_mut().unwrap().line_state();
        assert!(lines(&mut second) == lines(&mut alone), "line state");
        let pending = 1 + 3;
        assert_eq!(walks() - before.0, pending + 1 + 3 * 2, "the bootstrap and the first trial");
    }

    #[test]
    fn a_sweep_that_thrashes_l2_agrees_with_single_executions() {
        // 8 MiB through a 1 MiB L2, once line by line (32 runs of exactly
        // `MAX_LINES_PER_OP` lines) and once as a single sampled run: every
        // trial misses all the way to DRAM, yet leaves the same tags in the
        // same order, so the memo engages as on any warm trace.
        let mut trace = OpTrace::new();
        for _ in 0..32 {
            trace.mem_read(256 << 10);
        }
        trace.mem_write(8 << 20);
        for target in [VmTarget::normal(TeePlatform::Tdx), VmTarget::secure(TeePlatform::SevSnp)] {
            let mut vm = TeeVmBuilder::new(target).try_build().unwrap();
            vm.try_execute(&trace).unwrap();
            let warm = vm.try_execute(&trace).unwrap();
            assert!(warm.perf.cache_misses * 2 > warm.perf.cache_references, "thrashes: {warm:?}");
            assert_eq!(snapshots_with_twin_agreement(target, &trace, 5).0, 1, "{target}");
        }
    }

    #[test]
    fn a_warm_trial_that_still_changes_l2_engages_one_trial_later() {
        // Seventeen lines of one L2 set (so of one L1 set too): Z, R1..R7,
        // F8..F16. Per trial: Z, R1..R7, then each F followed by R1..R7
        // again, which keeps the Rs in L1 while Z and the Fs evict each
        // other. Cold, the Rs go to L2 once, so sixteen fills follow Z's and
        // L2 drops it. Warm, the Rs never leave L1: the L1-miss stream is Z
        // and the Fs only, Z misses L2 once more (trial 2) and then stays
        // (trial 3 on). Trial 2 changes the lines and its deltas are not
        // trial 3's; trial 3 is the first whose record may be replayed.
        let line = |k: u64| k * 1024 * 64;
        let mut trace = OpTrace::new();
        let keep_rs_in_l1 = |trace: &mut OpTrace| {
            for r in 1..=7 {
                trace.mem_read_at(line(r), 64);
            }
        };
        trace.mem_read_at(line(0), 64);
        keep_rs_in_l1(&mut trace);
        for f in 8..=16 {
            trace.mem_read_at(line(f), 64);
            keep_rs_in_l1(&mut trace);
        }
        // Salt 0 (a normal VM) keeps the line → set mapping the identity.
        let target = VmTarget::normal(TeePlatform::Tdx);
        let (snapshots, reports) = snapshots_with_twin_agreement(target, &trace, 6);
        let misses: Vec<u64> = reports.iter().map(|r| r.perf.cache_misses).collect();
        assert_eq!(misses, [17, 1, 0, 0, 0, 0]);
        assert_eq!(snapshots, 2, "before trials 2 and 3: trial 3 matched its own in place");
        assert_eq!(snapshots_with_twin_agreement(target, &trace, 3).0, 2, "both repeats prove");
    }

    /// The dirty bitmap is the `BTreeSet` it replaced, which `DirtyPages`
    /// keeps beside it in unit-test builds and checks every count and
    /// export against. Random traces of writes anywhere in the address
    /// space, allocations, frees and page cycles, on every platform × kind,
    /// between random rounds of `dirty_page_count`, `mark_all_dirty`,
    /// `export_dirty_pages` and a migration onto a fresh VM (everything
    /// marked and exported, `import_pages`, `adopt_runtime_state`), after
    /// which the sequence continues on the target. Every export is
    /// ascending and resident. Mutation tried by hand: `take` leaving the
    /// words set — caught by the model's `len` check.
    #[test]
    fn fuzz_sweep_dirty_bitmap_equals_set_model() {
        let targets: Vec<VmTarget> = TeePlatform::ALL
            .iter()
            .flat_map(|&p| [VmTarget::secure(p), VmTarget::normal(p)])
            .collect();
        let (mut exported, mut migrated) = (0, 0);
        for case in 0..confbench_crypto::fuzz::sweep_iters() as u64 {
            let mut rng = SplitMix64::new(0xD127_0000 ^ case);
            let target = targets[(case % 6) as usize];
            let boot =
                || TeeVmBuilder::new(target).seed(case).cache_model(false).try_build().unwrap();
            let mut vm = boot();
            for round in 0..1 + rng.next_below(8) {
                let mut trace = OpTrace::new();
                for _ in 0..1 + rng.next_below(12) {
                    let magnitude = rng.next_below(21);
                    let bytes = rng.next_below(1 << magnitude);
                    match rng.next_below(5) {
                        0 => trace.alloc(bytes),
                        1 => trace.free(bytes),
                        2 => trace.page_cycle(bytes),
                        3 => trace.push(Op::MemWrite { addr: rng.next_u64(), bytes }),
                        _ => drop(trace.mem_write(bytes)),
                    }
                }
                vm.try_execute(&trace).unwrap();
                let label = format!("case {case}, round {round}, {target}");
                match rng.next_below(4) {
                    0 => assert!(vm.dirty_page_count() as u64 <= vm.resident_page_count()),
                    1 => {
                        vm.mark_all_dirty();
                        assert_eq!(vm.dirty_page_count() as u64, vm.resident_page_count());
                    }
                    2 => {
                        let ids = vm.export_dirty_pages().unwrap();
                        let resident = vm.resident_page_ids();
                        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{label}: ascending");
                        assert!(ids.iter().all(|id| resident.contains(id)), "{label}: resident");
                        assert_eq!(vm.dirty_page_count(), 0, "{label}: drained");
                        exported += usize::from(!ids.is_empty());
                    }
                    _ => {
                        let mut target_vm = boot();
                        vm.mark_all_dirty();
                        let pages = vm.export_dirty_pages().unwrap();
                        let state = vm.export_runtime_state().unwrap();
                        target_vm.import_pages(&pages).unwrap();
                        target_vm.adopt_runtime_state(&state).unwrap();
                        assert_eq!(target_vm.dirty_page_count(), 0, "{label}: adopted");
                        assert_eq!(target_vm.resident_page_ids(), vm.resident_page_ids());
                        vm = target_vm;
                        migrated += 1;
                    }
                }
            }
            // Whatever is left drains through the model check too.
            vm.export_dirty_pages().unwrap();
        }
        assert!(exported > 0 && migrated > 0, "{exported} exports, {migrated} migrations");
    }

    #[test]
    fn spanned_and_plain_execution_charge_identically() {
        let rec = SpanRecorder::new(Arc::new(ManualClock::new()));
        let mut a =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(7).try_build().unwrap();
        let mut b =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(7).try_build().unwrap();
        let trace = io_heavy_trace();
        let ra = a.try_execute(&trace).unwrap();
        let mut root = rec.root("vm.execute");
        let rb = b.try_execute_spanned(&trace, &mut root).unwrap();
        assert_eq!(ra, rb, "instrumentation must not perturb the simulation");
    }
}
