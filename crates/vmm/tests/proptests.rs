//! Property tests for the VM executor.
//!
//! Deterministic seeded sweeps: each property draws its inputs from a
//! `SplitMix64` stream, so every CI run exercises the identical case set.

use std::sync::Arc;

use confbench_crypto::SplitMix64;
use confbench_obs::SpanRecorder;
use confbench_types::{ManualClock, Op, OpTrace, SyscallKind, TeePlatform, VmKind, VmTarget};
use confbench_vmm::{CacheSim, TeeFaultPlan, TeeVmBuilder, Vm, WalkMemo};

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
            let mut vm = TeeVmBuilder::new(target).seed(seed).try_build().unwrap();
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

        let mut vm1 = TeeVmBuilder::new(target).seed(1).try_build().unwrap();
        let ra = vm1.try_execute(&a).unwrap();
        let rb = vm1.try_execute(&b).unwrap();
        let mut vm2 = TeeVmBuilder::new(target).seed(1).try_build().unwrap();
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
        let mut vm = TeeVmBuilder::new(target).seed(3).try_build().unwrap();
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
        let mut secure = TeeVmBuilder::new(VmTarget::secure(platform)).seed(5).try_build().unwrap();
        let mut normal = TeeVmBuilder::new(VmTarget::normal(platform)).seed(5).try_build().unwrap();
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
            let mut vm = TeeVmBuilder::new(target).seed(9).try_build().unwrap();
            let xs: Vec<f64> =
                (0..6).map(|_| vm.try_execute(&t).unwrap().cycles.get() as f64).collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let ratio =
            mean(VmTarget::secure(TeePlatform::Cca)) / mean(VmTarget::normal(TeePlatform::Cca));
        assert!((0.95..1.35).contains(&ratio), "case {case}: cca cpu ratio {ratio}");
    }
}

/// A byte count for the trials sweep: zero, sub-line, L1-sized, around L2,
/// and runs above the simulator's 4 096-line sampling cap (256 KiB).
fn arb_span(rng: &mut SplitMix64) -> u64 {
    match rng.next_below(8) {
        0 => 0,
        1 => 1 + rng.next_below(63),
        2..=4 => 1 + rng.next_below(64 << 10),
        5 | 6 => (64 << 10) + rng.next_below(2 << 20),
        _ => (256 << 10) + 1 + rng.next_below(8 << 20),
    }
}

/// A trace mixing every [`Op`]: allocations that are never freed, frees
/// of more than was allocated, page cycling, re-touches of earlier buffers
/// through `mem_read_at`, explicit-address writes, zero-byte ops.
fn arb_trials_trace(rng: &mut SplitMix64) -> OpTrace {
    let mut t = OpTrace::new();
    let mut buffers: Vec<(u64, u64)> = Vec::new();
    for _ in 0..1 + rng.next_below(24) {
        match rng.next_below(19) {
            0 => t.cpu(rng.next_below(100_000)),
            1 => t.float(rng.next_below(50_000)),
            2 => {
                let bytes = arb_span(rng);
                buffers.push((t.mem_read(bytes), bytes));
            }
            3 => {
                let bytes = arb_span(rng);
                buffers.push((t.mem_write(bytes), bytes));
            }
            4 | 5 => match buffers.len() as u64 {
                0 => t.mem_read_at(rng.next_below(1 << 24), arb_span(rng)),
                n => {
                    let (addr, bytes) = buffers[rng.next_below(n) as usize];
                    t.mem_read_at(addr, bytes);
                }
            },
            6 => t.push(Op::MemWrite { addr: rng.next_below(1 << 24), bytes: arb_span(rng) }),
            7 => t.alloc(arb_span(rng)),
            8 => t.free(arb_span(rng)),
            9 => {
                let kind = SyscallKind::ALL[rng.next_below(SyscallKind::ALL.len() as u64) as usize];
                t.syscall(kind, rng.next_below(8));
            }
            10 => t.io_read(arb_span(rng)),
            11 => t.io_write(arb_span(rng)),
            12 => t.ctx_switch(rng.next_below(16)),
            13 => t.page_cycle(arb_span(rng)),
            14 => t.device_wait(rng.next_below(50_000)),
            15 => t.log(rng.next_below(4_096)),
            16 => t.dev_dma_in(arb_span(rng)),
            17 => t.dev_dma_out(arb_span(rng)),
            _ => t.dev_kernel(rng.next_below(50_000)),
        }
    }
    t
}

/// A VM's walk memo leaves no trace: `n × try_execute(t)` under the memo
/// every VM gets equals it on an identically seeded twin whose memo keeps
/// nothing, so walks every trial. Every platform × kind, cache model on and
/// off, with and without a fault plan, in turn: the two give equal reports
/// (`wall_ms` bit for bit) or the same fault after the same number of clean
/// trials, and leave equal runtime state, dirty pages, cumulative cache
/// statistics and (seen through one more execution) cache lines.
#[test]
fn fuzz_sweep_trials_equal_single_executions() {
    let targets: Vec<VmTarget> =
        TeePlatform::ALL.iter().flat_map(|&p| [VmTarget::secure(p), VmTarget::normal(p)]).collect();
    let (mut faulted, mut faulted_in_replay) = (0, 0);
    for case in 0..confbench_crypto::fuzz::sweep_iters() as u64 {
        let mut rng = SplitMix64::new(0x73E_0006 ^ case);
        let trace = arb_trials_trace(&mut rng);
        let trials = rng.next_below(8) as u32;
        let seed = rng.next_u64();
        // The configurations take turns, so each gets its share of cases.
        let target = targets[(case % 6) as usize];
        let cache_model = (case / 6) % 2 == 0;
        let chaos = (case / 12) % 2 == 1;
        let label = format!("case {case}: {target}, cache {cache_model}, chaos {chaos}, {trials}×");

        // Each twin rolls its own, identically seeded plan.
        let boot = |memo: Option<Arc<WalkMemo>>| {
            let mut builder = TeeVmBuilder::new(target).seed(seed).cache_model(cache_model);
            if chaos {
                builder = builder.fault_plan(Arc::new(TeeFaultPlan::new(seed, 0.02)));
            }
            if let Some(memo) = memo {
                builder = builder.walk_memo(memo);
            }
            builder.try_build()
        };
        let (mut vm, mut twin) = match (boot(None), boot(Some(Arc::new(WalkMemo::new(0))))) {
            (Ok(vm), Ok(twin)) => (vm, twin),
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{label}: boot fault");
                continue;
            }
            _ => panic!("{label}: one twin booted, the other did not"),
        };

        let run = |vm: &mut Vm| {
            let mut reports = Vec::new();
            for _ in 0..trials {
                match vm.try_execute(&trace) {
                    Ok(report) => reports.push(report),
                    Err(fault) => return (reports, Some(fault)),
                }
            }
            (reports, None)
        };
        let (reports, fault) = run(&mut vm);
        let (walked, walked_fault) = run(&mut twin);
        assert_eq!(format!("{reports:?}"), format!("{walked:?}"), "{label}");
        for (a, b) in reports.iter().zip(&walked) {
            assert_eq!(a.wall_ms.to_bits(), b.wall_ms.to_bits(), "{label}");
        }
        // Equal runtime state (below) pins the trial: the jitter stream
        // advances once per clean trial.
        assert_eq!(fault, walked_fault, "{label}");
        if fault.is_some() {
            faulted += 1;
            faulted_in_replay += usize::from(cache_model && reports.len() >= 2);
        }
        assert_eq!(vm.cache_stats(), twin.cache_stats(), "{label}: cumulative cache stats");
        assert_eq!(
            vm.try_execute(&trace).map(|r| format!("{r:?}")),
            twin.try_execute(&trace).map(|r| format!("{r:?}")),
            "{label}: the execution after"
        );
        assert_eq!(vm.export_runtime_state(), twin.export_runtime_state(), "{label}");
        assert_eq!(vm.export_dirty_pages(), twin.export_dirty_pages(), "{label}");
        assert_eq!(vm.cache_stats(), twin.cache_stats(), "{label}: cache stats after");
    }
    assert!(faulted > 0, "no case faulted: the plan's rate no longer fits the traces");
    assert!(faulted_in_replay > 0, "no case faulted in a trial that could have been replayed");
}

/// A trace for the shared-memo sweep: a few memory ops, mostly short (the
/// ring sets have a sweep of their own) with the odd run past L1 or past
/// the sampling cap, between ops that move the rest of the VM and roll its
/// fault plan.
fn arb_memo_trace(rng: &mut SplitMix64) -> OpTrace {
    let mut t = OpTrace::new();
    let mut last = (0, 0);
    for _ in 0..1 + rng.next_below(8) {
        let span = match rng.next_below(16) {
            0 => 0,
            1..=12 => 1 + rng.next_below(8 << 10),
            13 | 14 => (32 << 10) + rng.next_below(64 << 10),
            _ => (256 << 10) + 1 + rng.next_below(2 << 20),
        };
        match rng.next_below(10) {
            0 | 1 => last = (t.mem_read(span), span),
            2 | 3 => last = (t.mem_write(span), span),
            4 => t.mem_read_at(last.0, last.1),
            5 => t.alloc(span),
            6 => t.io_write(span),
            7 => t.ctx_switch(rng.next_below(4)),
            8 => t.page_cycle(span),
            _ => t.cpu(rng.next_below(10_000)),
        }
    }
    t
}

/// What one step of the shared-memo sweep left behind, rendered for
/// comparison: reports or the fault, the span tree of a spanned execution,
/// the deltas of a public `touch`.
fn memo_sweep_step(vm: &mut Vm, step: u64, trace: &OpTrace, recorder: &SpanRecorder) -> String {
    match step {
        0 => format!("{:?}", vm.try_execute(trace)),
        1..=3 => {
            let reports: Result<Vec<_>, _> =
                (0..step * 2 - 1).map(|_| vm.try_execute(trace)).collect();
            format!("{reports:?}")
        }
        4 => {
            let mut root = recorder.root("vm.execute");
            let outcome = vm.try_execute_spanned(trace, &mut root);
            format!("{outcome:?} {:?}", root.finish())
        }
        _ => {
            let (addr, bytes) = (step.wrapping_mul(0x9e37_79b9) % (1 << 22), step % (96 << 10));
            format!("{:?}", vm.cache_mut().map(|cache| cache.touch(addr, bytes, false)))
        }
    }
}

/// A shared [`WalkMemo`] leaves no trace. Several VMs hold one memo whose
/// byte bound fits a handful of edges, so edges are evicted mid-sequence —
/// two of one salt under distinct seeds (normal VMs of two platforms, or two
/// secure VMs of one), in every fourth case a third of any salt, every other
/// case under a fault plan — and take turns through random steps over a pool
/// of two traces:
/// single executions, 1, 3 and 5 trials, spanned executions, public
/// `touch`es. Each has a twin, identically seeded, that keeps its memo to
/// itself. Twins agree on every step's reports, spans and faults, on the
/// cumulative cache statistics after it and, at the end, on the canonical
/// line state (which makes the shared VM walk what it had only been
/// credited) and the runtime state.
///
/// Mutations tried by hand, and what caught each: a completed hit on a
/// non-fixed edge not pushed onto `pending` — "step" (case 5, turn 5: the
/// next miss walked from lines that lacked the credited trial); a faulted
/// replay pushed as the whole edge instead of its credited prefix — "line
/// state" (case 354); `mint` handing out a number twice (the counter reset
/// whenever a record evicts) — "step" (case 24, turn 6: deltas served from
/// a state that was not theirs).
#[test]
fn fuzz_sweep_shared_walk_memo_equals_private() {
    let targets: Vec<VmTarget> =
        TeePlatform::ALL.iter().flat_map(|&p| [VmTarget::secure(p), VmTarget::normal(p)]).collect();
    let recorder = SpanRecorder::new(Arc::new(ManualClock::new()));
    let (mut hits, mut evictions, mut faulted_in_replay) = (0, 0, 0);
    for case in 0..confbench_crypto::fuzz::sweep_iters() as u64 {
        let mut rng = SplitMix64::new(0x3A1C_3E30 ^ case);
        let pool = [arb_memo_trace(&mut rng), arb_memo_trace(&mut rng)];
        let memo = Arc::new(WalkMemo::new(400 + rng.next_below(2_000) as usize));
        let first = targets[(case % 6) as usize];
        // Normal VMs share salt 0 whatever their platform.
        let same_salt = match first.kind {
            VmKind::Secure => first,
            VmKind::Normal => targets[((case + 2) % 6) as usize],
        };
        let chaos = (case / 6) % 2 == 1;
        let third = (case % 4 == 0).then(|| targets[((case / 12) % 6) as usize]);
        let mut vms: Vec<(Vm, Vm)> = Vec::new();
        for target in [first, same_salt].into_iter().chain(third) {
            let seed = rng.next_u64();
            let boot = |shared: Option<&Arc<WalkMemo>>| {
                let mut builder = TeeVmBuilder::new(target).seed(seed);
                if chaos {
                    builder = builder.fault_plan(Arc::new(TeeFaultPlan::new(seed, 0.03)));
                }
                if let Some(memo) = shared {
                    builder = builder.walk_memo(Arc::clone(memo));
                }
                builder.try_build()
            };
            // Boot faults are the other sweep's; these twins roll alike.
            if let (Ok(vm), Ok(twin)) = (boot(Some(&memo)), boot(None)) {
                vms.push((vm, twin));
            }
        }
        let booted = vms.len();
        for turn in 0..3 * booted {
            let (vm, twin) = &mut vms[turn % booted];
            let trace = &pool[rng.next_below(2) as usize];
            let step = match rng.next_below(16) {
                n @ 0..=4 => n,
                5 => 5 + rng.next_below(1 << 20),
                n => n % 2,
            };
            let label = format!("case {case}, turn {turn}, step {step}, {}", vm.target());
            let before = vm.walk_memo_counts();
            let (shared, private) = (
                memo_sweep_step(vm, step, trace, &recorder),
                memo_sweep_step(twin, step, trace, &recorder),
            );
            assert_eq!(shared, private, "{label}: step");
            assert_eq!(vm.cache_stats(), twin.cache_stats(), "{label}: cumulative cache stats");
            let after = vm.walk_memo_counts();
            faulted_in_replay +=
                usize::from(after.hits > before.hits && shared.contains("Err(TeeFault"));
        }
        for (vm, twin) in &mut vms {
            let counts = vm.walk_memo_counts();
            (hits, evictions) = (hits + counts.hits, evictions + counts.evictions);
            let label = format!("case {case}, {}", vm.target());
            let lines = |vm: &mut Vm| vm.cache_mut().map(CacheSim::line_state);
            assert!(lines(vm) == lines(twin), "{label}: line state");
            assert_eq!(vm.export_runtime_state(), twin.export_runtime_state(), "{label}");
        }
    }
    assert!(hits > 0, "no trial was credited from another's walk");
    assert!(evictions > 0, "the memo never overflowed: its bound no longer fits the traces");
    assert!(faulted_in_replay > 0, "no step faulted after a hit");
}
