//! Property tests for the VM executor.
//!
//! Deterministic seeded sweeps: each property draws its inputs from a
//! `SplitMix64` stream, so every CI run exercises the identical case set.

use confbench_crypto::SplitMix64;
use confbench_types::{Op, OpTrace, SyscallKind, TeePlatform, VmKind, VmTarget};
use confbench_vmm::TeeVmBuilder;

const CASES: u64 = 48;

fn arb_op(rng: &mut SplitMix64) -> Op {
    match rng.next_below(12) {
        0 => Op::Cpu(1 + rng.next_below(99_999)),
        1 => Op::Float(1 + rng.next_below(49_999)),
        2 => {
            Op::MemRead { addr: rng.next_below(1 << 22), bytes: 1 + rng.next_below((1 << 16) - 1) }
        }
        3 => {
            Op::MemWrite { addr: rng.next_below(1 << 22), bytes: 1 + rng.next_below((1 << 16) - 1) }
        }
        4 => Op::Alloc(1 + rng.next_below((1 << 20) - 1)),
        5 => Op::Free(1 + rng.next_below((1 << 20) - 1)),
        6 => Op::Syscall { kind: SyscallKind::FileMeta, count: 1 + rng.next_below(63) },
        7 => Op::IoWrite(1 + rng.next_below((1 << 18) - 1)),
        8 => Op::CtxSwitch(1 + rng.next_below(15)),
        9 => Op::PageCycle(1 + rng.next_below((1 << 18) - 1)),
        10 => Op::DeviceWait(1 + rng.next_below(49_999)),
        _ => Op::Log(1 + rng.next_below(4_095)),
    }
}

fn arb_trace(rng: &mut SplitMix64) -> OpTrace {
    (0..1 + rng.next_below(23)).map(|_| arb_op(rng)).collect()
}

fn arb_target(rng: &mut SplitMix64) -> VmTarget {
    let platform = TeePlatform::ALL[rng.next_below(TeePlatform::ALL.len() as u64) as usize];
    let kind = if rng.next_u64() & 1 == 0 { VmKind::Secure } else { VmKind::Normal };
    VmTarget { platform, kind }
}

/// Same seed, same trace: bit-identical execution.
#[test]
fn execution_is_deterministic() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x73E_0001 ^ case);
        let trace = arb_trace(&mut rng);
        let target = arb_target(&mut rng);
        let seed = rng.next_u64();
        let run = || {
            let mut vm = TeeVmBuilder::new(target).seed(seed).build();
            let r = vm.try_execute(&trace).unwrap();
            (r.cycles, r.perf)
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

/// Jitter-free counters are additive across trace concatenation.
#[test]
fn counters_are_additive() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x73E_0002 ^ case);
        let a = arb_trace(&mut rng);
        let b = arb_trace(&mut rng);
        let target = arb_target(&mut rng);
        let mut both = OpTrace::new();
        both.extend_from(&a);
        both.extend_from(&b);

        let mut vm1 = TeeVmBuilder::new(target).seed(1).build();
        let ra = vm1.try_execute(&a).unwrap();
        let rb = vm1.try_execute(&b).unwrap();
        let mut vm2 = TeeVmBuilder::new(target).seed(1).build();
        let rab = vm2.try_execute(&both).unwrap();

        assert_eq!(
            rab.perf.instructions,
            ra.perf.instructions + rb.perf.instructions,
            "case {case}"
        );
        assert_eq!(rab.perf.vm_exits, ra.perf.vm_exits + rb.perf.vm_exits, "case {case}");
        assert_eq!(rab.perf.page_faults, ra.perf.page_faults + rb.perf.page_faults, "case {case}");
        assert_eq!(
            rab.perf.cache_references,
            ra.perf.cache_references + rb.perf.cache_references,
            "case {case}"
        );
    }
}

/// Every execution costs at least one cycle per recorded instruction
/// and never reports more cache misses than references.
#[test]
fn basic_sanity_bounds() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x73E_0003 ^ case);
        let trace = arb_trace(&mut rng);
        let target = arb_target(&mut rng);
        let mut vm = TeeVmBuilder::new(target).seed(3).build();
        let r = vm.try_execute(&trace).unwrap();
        assert!(r.perf.cache_misses <= r.perf.cache_references, "case {case}");
        assert!(r.wall_ms >= 0.0, "case {case}");
        assert!(r.cycles.get() > 0, "case {case}");
        // The virtual clock advanced by exactly this execution.
        assert_eq!(vm.now().get(), r.cycles.get(), "case {case}");
    }
}

/// Secure VMs never take fewer exits than normal VMs on the same trace
/// (confidentiality only adds world switches).
#[test]
fn secure_exits_dominate() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x73E_0004 ^ case);
        let trace = arb_trace(&mut rng);
        let platform = TeePlatform::ALL[rng.next_below(TeePlatform::ALL.len() as u64) as usize];
        let mut secure = TeeVmBuilder::new(VmTarget::secure(platform)).seed(5).build();
        let mut normal = TeeVmBuilder::new(VmTarget::normal(platform)).seed(5).build();
        let rs = secure.try_execute(&trace).unwrap();
        let rn = normal.try_execute(&trace).unwrap();
        assert!(
            rs.perf.vm_exits >= rn.perf.vm_exits,
            "case {case}: secure {} < normal {}",
            rs.perf.vm_exits,
            rn.perf.vm_exits
        );
    }
}

/// The FVP multiplier never touches the secure/normal *ratio* of
/// compute-only traces beyond jitter.
#[test]
fn pure_cpu_ratio_is_cost_model_only() {
    for case in 0..12 {
        let mut rng = SplitMix64::new(0x73E_0005 ^ case);
        let n = 1_000_000 + rng.next_below(19_000_000);
        let mut t = OpTrace::new();
        t.cpu(n);
        let mean = |target: VmTarget| {
            let mut vm = TeeVmBuilder::new(target).seed(9).build();
            let xs: Vec<f64> =
                (0..6).map(|_| vm.try_execute(&t).unwrap().cycles.get() as f64).collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let ratio =
            mean(VmTarget::secure(TeePlatform::Cca)) / mean(VmTarget::normal(TeePlatform::Cca));
        assert!((0.95..1.35).contains(&ratio), "case {case}: cca cpu ratio {ratio}");
    }
}
