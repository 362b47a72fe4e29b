//! Calibration tests: the secure/normal ratio *shapes* the cost model must
//! produce to reproduce the paper's findings. These are the contract the
//! figure generators rely on.

use confbench_types::{OpTrace, SyscallKind, TeePlatform, VmTarget};
use confbench_vmm::{TeeVmBuilder, Vm};

/// Cycle counts of `trials` consecutive executions of `trace`.
fn trial_cycles(vm: &mut Vm, trace: &OpTrace, trials: u32) -> Vec<f64> {
    (0..trials).map(|_| vm.try_execute(trace).unwrap().cycles.get() as f64).collect()
}

/// Mean secure/normal cycle ratio over `trials` trials of `trace`.
fn ratio(platform: TeePlatform, trace: &OpTrace, trials: u32) -> f64 {
    let mut secure = TeeVmBuilder::new(VmTarget::secure(platform)).seed(7).try_build().unwrap();
    let mut normal = TeeVmBuilder::new(VmTarget::normal(platform)).seed(7).try_build().unwrap();
    let s: f64 = trial_cycles(&mut secure, trace, trials).iter().sum();
    let n: f64 = trial_cycles(&mut normal, trace, trials).iter().sum();
    s / n
}

fn cpu_bound() -> OpTrace {
    let mut t = OpTrace::new();
    t.cpu(5_000_000);
    t.float(1_000_000);
    t
}

fn io_bound() -> OpTrace {
    let mut t = OpTrace::new();
    for _ in 0..8 {
        t.syscall(SyscallKind::FileWrite, 16);
        t.io_write(1 << 20);
    }
    t
}

fn alloc_growth() -> OpTrace {
    // memstress-style: keep allocating fresh 1-MiB buffers and touch them.
    let mut t = OpTrace::new();
    for _ in 0..64 {
        t.alloc(1 << 20);
        t.mem_write(1 << 20);
    }
    t
}

fn syscall_storm() -> OpTrace {
    // DBMS-ish: metadata syscalls + small I/O + reuse-heavy allocation.
    let mut t = OpTrace::new();
    for _ in 0..50 {
        t.syscall(SyscallKind::FileMeta, 200);
        t.syscall(SyscallKind::FileWrite, 100);
        t.io_write(64 << 10);
        t.alloc(256 << 10);
        t.cpu(400_000);
        t.free(256 << 10);
    }
    t
}

#[test]
fn tdx_cpu_bound_is_near_native() {
    let r = ratio(TeePlatform::Tdx, &cpu_bound(), 6);
    assert!((0.95..1.10).contains(&r), "TDX cpu ratio {r}");
}

#[test]
fn snp_cpu_bound_is_near_native_but_above_tdx() {
    let tdx = ratio(TeePlatform::Tdx, &cpu_bound(), 6);
    let snp = ratio(TeePlatform::SevSnp, &cpu_bound(), 6);
    assert!((0.95..1.15).contains(&snp), "SNP cpu ratio {snp}");
    assert!(snp >= tdx - 0.03, "TDX ({tdx}) should not lose to SNP ({snp}) on CPU");
}

#[test]
fn cca_cpu_bound_overhead_moderate() {
    // Paper Fig. 3: CCA up to ~1.33x on ML-style CPU work.
    let r = ratio(TeePlatform::Cca, &cpu_bound(), 6);
    assert!((1.05..1.45).contains(&r), "CCA cpu ratio {r}");
}

#[test]
fn tdx_pays_more_for_io_than_snp() {
    // Paper §IV-D: SEV-SNP is faster with I/O tasks; TDX's bounce buffers
    // hurt.
    let tdx = ratio(TeePlatform::Tdx, &io_bound(), 6);
    let snp = ratio(TeePlatform::SevSnp, &io_bound(), 6);
    assert!(tdx > 1.3, "TDX io ratio should be visibly above 1: {tdx}");
    assert!(tdx < 3.5, "TDX io ratio should stay tenable: {tdx}");
    assert!(snp > 1.05 && snp < tdx, "SNP io ratio {snp} must undercut TDX {tdx}");
}

#[test]
fn alloc_growth_costs_more_in_tees() {
    let tdx = ratio(TeePlatform::Tdx, &alloc_growth(), 6);
    let snp = ratio(TeePlatform::SevSnp, &alloc_growth(), 6);
    assert!((1.05..2.2).contains(&tdx), "TDX memstress ratio {tdx}");
    assert!((1.05..2.2).contains(&snp), "SNP memstress ratio {snp}");
}

#[test]
fn steady_state_allocation_is_amortized() {
    // Reuse-heavy allocation (alloc/free churn at fixed footprint) must be
    // near-native on x86 TEEs: acceptance is paid once.
    let mut t = OpTrace::new();
    t.alloc(4 << 20);
    t.free(4 << 20);
    for _ in 0..200 {
        t.alloc(4 << 20);
        t.cpu(200_000);
        t.free(4 << 20);
    }
    let r = ratio(TeePlatform::Tdx, &t, 6);
    assert!((0.9..1.15).contains(&r), "TDX steady-state alloc ratio {r}");
}

#[test]
fn cca_syscall_storm_is_much_slower() {
    // Paper §IV-C: CCA's DBMS overhead reaches ~10x; TDX/SNP stay ≈1.
    let cca = ratio(TeePlatform::Cca, &syscall_storm(), 6);
    let tdx = ratio(TeePlatform::Tdx, &syscall_storm(), 6);
    let snp = ratio(TeePlatform::SevSnp, &syscall_storm(), 6);
    assert!(cca > 3.0, "CCA dbms-ish ratio {cca}");
    assert!(cca < 12.0, "CCA dbms-ish ratio {cca}");
    assert!((0.9..1.5).contains(&tdx), "TDX dbms-ish ratio {tdx}");
    assert!((0.9..1.5).contains(&snp), "SNP dbms-ish ratio {snp}");
}

#[test]
fn cca_wall_times_dwarf_hardware_platforms() {
    // The FVP multiplier must show in absolute times (Fig. 8 is plotted in
    // absolute seconds for this reason) for both VM kinds.
    let trace = cpu_bound();
    let mut cca = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Cca)).try_build().unwrap();
    let mut tdx = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Tdx)).try_build().unwrap();
    let c = cca.try_execute(&trace).unwrap().wall_ms;
    let t = tdx.try_execute(&trace).unwrap().wall_ms;
    assert!(c > 5.0 * t, "FVP-hosted normal VM should be much slower: cca={c}ms tdx={t}ms");
}

#[test]
fn cca_trials_have_widest_spread() {
    let trace = cpu_bound();
    let spread = |p: TeePlatform| {
        let mut vm = TeeVmBuilder::new(VmTarget::secure(p)).seed(3).try_build().unwrap();
        let xs = trial_cycles(&mut vm, &trace, 12);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        var.sqrt() / mean
    };
    let cca = spread(TeePlatform::Cca);
    assert!(cca > spread(TeePlatform::Tdx), "CCA spread {cca} must beat TDX");
    assert!(cca > spread(TeePlatform::SevSnp), "CCA spread {cca} must beat SNP");
}

#[test]
fn bounce_buffer_ablation_closes_the_io_gap() {
    let trace = io_bound();
    let mut on = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(1).try_build().unwrap();
    let mut off = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx))
        .seed(1)
        .bounce_buffers(false)
        .try_build()
        .unwrap();
    let c_on = on.try_execute(&trace).unwrap().cycles.get() as f64;
    let c_off = off.try_execute(&trace).unwrap().cycles.get() as f64;
    assert!(
        c_off < 0.8 * c_on,
        "disabling bounce buffers must cut TDX I/O cost: {c_off} vs {c_on}"
    );
}

#[test]
fn determinism_same_seed_same_cycles() {
    let trace = syscall_storm();
    let run = || {
        let mut vm =
            TeeVmBuilder::new(VmTarget::secure(TeePlatform::SevSnp)).seed(99).try_build().unwrap();
        trial_cycles(&mut vm, &trace, 3)
    };
    assert_eq!(run(), run());
}

#[test]
fn perf_counters_populated() {
    let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).try_build().unwrap();
    let mut t = OpTrace::new();
    t.cpu(1000);
    t.mem_write(1 << 16);
    t.io_write(1 << 16);
    t.ctx_switch(4);
    let r = vm.try_execute(&t).unwrap();
    assert!(r.perf.instructions > 1000);
    assert!(r.perf.cache_references > 0);
    assert!(r.perf.vm_exits > 4, "io doorbells + ctx switches: {}", r.perf.vm_exits);
    assert!(r.perf.from_hw_counters);
    let mut cca = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Cca)).try_build().unwrap();
    assert!(!cca.try_execute(&t).unwrap().perf.from_hw_counters);
}

#[test]
fn some_workload_runs_faster_in_secure_vm() {
    // The paper's counter-intuitive finding: a few ratios < 1.0, traced to
    // cache-hit differences. Find a conflict-prone access pattern where the
    // secure VM's page coloring wins, and verify the cache ablation removes
    // the effect.
    let mut found = None;
    for stride_log in 10..16u32 {
        let mut t = OpTrace::new();
        for pass in 0..4u64 {
            for i in 0..256u64 {
                let _ = pass;
                t.mem_read_at(0x4000_0000 + i * (1 << stride_log), 64);
            }
        }
        t.cpu(1_000);
        let r = ratio(TeePlatform::Tdx, &t, 10);
        if r < 0.995 {
            found = Some((stride_log, r));
            break;
        }
    }
    let (stride_log, r) = found.expect("some strided pattern should favor the colored mapping");
    // Ablation: with the cache model off, the advantage disappears.
    let mut t = OpTrace::new();
    for _ in 0..4u64 {
        for i in 0..256u64 {
            t.mem_read_at(0x4000_0000 + i * (1u64 << stride_log), 64);
        }
    }
    t.cpu(1_000);
    let mut secure = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx))
        .seed(7)
        .cache_model(false)
        .try_build()
        .unwrap();
    let mut normal = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Tdx))
        .seed(7)
        .cache_model(false)
        .try_build()
        .unwrap();
    let s: f64 = trial_cycles(&mut secure, &t, 10).iter().sum();
    let n: f64 = trial_cycles(&mut normal, &t, 10).iter().sum();
    assert!(s / n > 0.99, "without the cache model the sub-1.0 effect vanishes (r was {r})");
}
