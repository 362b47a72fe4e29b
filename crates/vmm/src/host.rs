//! Multi-tenant host model: several TEE VMs co-located on one machine
//! (the paper's first future-work item, §VI: "study the overheads of
//! co-locating and executing several TEE-aware VMs inside the same host, as
//! it happens in a typical cloud-based multi-tenant scenario").
//!
//! Co-residents interfere through the shared memory system and I/O path:
//!
//! * the last-level cache is shared — each tenant's effective capacity
//!   shrinks, raising miss rates (modelled by partitioning the LLC among
//!   active tenants);
//! * memory bandwidth saturates — DRAM fills get slower as more tenants
//!   actively miss (a linear bandwidth-contention factor);
//! * exits serialize on the host: world switches contend on the
//!   hypervisor/TDX-module/RMM path (a smaller per-exit factor).

use confbench_types::{OpTrace, VmTarget};

use crate::fault::TeeFault;
use crate::vm::{ExecutionReport, TeeVmBuilder, Vm};

/// Contention parameters for one shared host.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionModel {
    /// Extra DRAM latency per additional active tenant (fraction, e.g. 0.18
    /// = +18% fill latency per co-resident).
    pub dram_per_tenant: f64,
    /// Extra exit latency per additional active tenant (hypervisor-path
    /// serialization).
    pub exit_per_tenant: f64,
    /// Extra device-I/O latency per additional active tenant.
    pub io_per_tenant: f64,
}

impl Default for ContentionModel {
    fn default() -> Self {
        // Calibrated to typical cloud consolidation studies: memory
        // bandwidth is the dominant interference channel.
        ContentionModel { dram_per_tenant: 0.18, exit_per_tenant: 0.07, io_per_tenant: 0.12 }
    }
}

impl ContentionModel {
    /// The cost multiplier applied to a contended channel with `tenants`
    /// active VMs (1 tenant = no contention).
    fn factor(per_tenant: f64, tenants: usize) -> f64 {
        1.0 + per_tenant * tenants.saturating_sub(1) as f64
    }
}

/// A host running several co-located VMs of the same platform.
///
/// # Example
///
/// ```
/// use confbench_types::{OpTrace, TeePlatform, VmTarget};
/// use confbench_vmm::SharedHost;
///
/// let mut host = SharedHost::new(VmTarget::secure(TeePlatform::Tdx), 4, 7);
/// let mut trace = OpTrace::new();
/// trace.cpu(100_000);
/// trace.mem_write(1 << 20);
///
/// let slowdown = host.colocation_slowdown(&trace, 3).unwrap();
/// assert!(slowdown >= 1.0, "co-residents only add cost: {slowdown}");
/// ```
#[derive(Debug)]
pub struct SharedHost {
    vms: Vec<Vm>,
    contention: ContentionModel,
}

impl SharedHost {
    /// Boots `tenants` identical VMs for `target` with derived seeds.
    ///
    /// # Panics
    ///
    /// Panics if `tenants == 0`.
    pub fn new(target: VmTarget, tenants: usize, seed: u64) -> Self {
        Self::with_contention(target, tenants, seed, ContentionModel::default())
    }

    /// As [`SharedHost::new`] with an explicit contention model.
    ///
    /// # Panics
    ///
    /// Panics if `tenants == 0`.
    pub fn with_contention(
        target: VmTarget,
        tenants: usize,
        seed: u64,
        contention: ContentionModel,
    ) -> Self {
        assert!(tenants > 0, "a host needs at least one tenant");
        let vms = (0..tenants)
            .map(|i| TeeVmBuilder::new(target).seed(seed.wrapping_add(i as u64 * 0x9e37)))
            .map(|vm| vm.try_build().expect("no fault plan is installed, so boot cannot fail"))
            .collect();
        SharedHost { vms, contention }
    }

    /// Number of co-located VMs.
    pub fn tenants(&self) -> usize {
        self.vms.len()
    }

    /// Runs `trace` on the first VM with the others idle (no contention).
    ///
    /// # Errors
    ///
    /// As [`Vm::try_execute`].
    pub fn run_solo(&mut self, trace: &OpTrace) -> Result<ExecutionReport, TeeFault> {
        self.vms[0].try_execute(trace)
    }

    /// Mean slowdown from co-location over `trials` trials: for every
    /// execution, the ratio of its contended cost (all tenants active) to
    /// its uncontended cost. Each tenant's report is scaled by the
    /// contention factors for the number of *other* active tenants, with
    /// the contended share of cycles estimated from its perf counters
    /// (miss-heavy runs suffer more, pure-CPU runs barely notice).
    /// Comparing the same executions keeps trial jitter out of the metric.
    ///
    /// # Errors
    ///
    /// As [`Vm::try_execute`].
    pub fn colocation_slowdown(&mut self, trace: &OpTrace, trials: u32) -> Result<f64, TeeFault> {
        let tenants = self.vms.len();
        let c = self.contention.clone();
        let mut sum = 0.0;
        let mut n = 0u32;
        for _ in 0..trials.max(1) {
            for vm in &mut self.vms {
                let dram_cost = vm.cost_model().dram_penalty + vm.cost_model().secure_miss_extra;
                let exit_cost = vm.cost_model().exit_cost;
                let base = vm.try_execute(trace)?;
                let scaled = scale_report(base, &c, tenants, dram_cost, exit_cost);
                sum += scaled.cycles.get() as f64 / base.cycles.get().max(1) as f64;
                n += 1;
            }
        }
        Ok(sum / f64::from(n))
    }
}

fn scale_report(
    base: ExecutionReport,
    c: &ContentionModel,
    tenants: usize,
    dram_cost: f64,
    exit_cost: f64,
) -> ExecutionReport {
    // Estimate the contended share of this run from its counters: DRAM
    // fills, exits, and I/O are the channels neighbours squeeze. Shares use
    // the VM's own cost model so secure VMs' pricier exits count fully.
    let perf = base.perf;
    let total = base.cycles.get() as f64;
    if total == 0.0 {
        return base;
    }
    let dram_share = (perf.cache_misses as f64 * dram_cost / total).min(0.9);
    let exit_share = (perf.vm_exits as f64 * exit_cost / total).min(0.9);
    let mult = 1.0
        + dram_share * (ContentionModel::factor(c.dram_per_tenant, tenants) - 1.0)
        + exit_share * (ContentionModel::factor(c.exit_per_tenant, tenants) - 1.0)
        + 0.05 * (ContentionModel::factor(c.io_per_tenant, tenants) - 1.0);
    let cycles = confbench_types::Cycles::new((total * mult).round() as u64);
    ExecutionReport {
        cycles,
        wall_ms: cycles.as_millis(base.target.platform.host_freq_ghz()),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_types::TeePlatform;

    fn memory_heavy() -> OpTrace {
        let mut t = OpTrace::new();
        for _ in 0..8 {
            t.mem_write(4 << 20);
        }
        t.cpu(100_000);
        t
    }

    fn cpu_only() -> OpTrace {
        let mut t = OpTrace::new();
        t.cpu(5_000_000);
        t
    }

    #[test]
    fn contention_slows_memory_heavy_tenants() {
        let mut host = SharedHost::new(VmTarget::secure(TeePlatform::Tdx), 4, 3);
        let slowdown = host.colocation_slowdown(&memory_heavy(), 3).unwrap();
        assert!(slowdown > 1.1, "4 tenants should contend on DRAM: {slowdown}");
        assert!(slowdown < 2.0, "but not absurdly: {slowdown}");
    }

    #[test]
    fn cpu_bound_tenants_barely_notice() {
        let mut host = SharedHost::new(VmTarget::secure(TeePlatform::Tdx), 4, 3);
        let slowdown = host.colocation_slowdown(&cpu_only(), 3).unwrap();
        assert!(slowdown < 1.08, "pure CPU does not contend: {slowdown}");
    }

    #[test]
    fn more_tenants_more_contention() {
        let trace = memory_heavy();
        let s2 = SharedHost::new(VmTarget::secure(TeePlatform::SevSnp), 2, 3)
            .colocation_slowdown(&trace, 3)
            .unwrap();
        let s8 = SharedHost::new(VmTarget::secure(TeePlatform::SevSnp), 8, 3)
            .colocation_slowdown(&trace, 3)
            .unwrap();
        assert!(s8 > s2, "8 tenants ({s8}) must beat 2 ({s2})");
    }

    #[test]
    fn single_tenant_is_contention_free() {
        let mut host = SharedHost::new(VmTarget::normal(TeePlatform::Tdx), 1, 3);
        let slowdown = host.colocation_slowdown(&memory_heavy(), 4).unwrap();
        assert!((0.9..1.1).contains(&slowdown), "solo == contended for 1 tenant: {slowdown}");
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenants_rejected() {
        SharedHost::new(VmTarget::secure(TeePlatform::Tdx), 0, 1);
    }

    #[test]
    fn secure_vms_suffer_more_from_exit_contention() {
        // Exit-heavy workload: secure VMs take more exits, so co-location
        // hurts them more — the interaction the paper wants to study.
        let mut t = OpTrace::new();
        t.ctx_switch(3_000);
        t.cpu(500_000);
        let secure = SharedHost::new(VmTarget::secure(TeePlatform::Tdx), 6, 3)
            .colocation_slowdown(&t, 3)
            .unwrap();
        let normal = SharedHost::new(VmTarget::normal(TeePlatform::Tdx), 6, 3)
            .colocation_slowdown(&t, 3)
            .unwrap();
        assert!(
            secure >= normal - 0.02,
            "secure ({secure}) should not contend less than normal ({normal})"
        );
    }
}
