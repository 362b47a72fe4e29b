//! One stack-VM run metered for two JIT modes against the code it
//! replaced as reference: a run of each mode alone.
//!
//! The launcher serves LuaJIT and Wasm from one [`StackVm::run_metered`]
//! whose meter has a lane per mode. Each lane must record exactly what
//! [`StackVm::run`] in its mode records — result, log, trace and step
//! count — and a run that fails must fail alike in both, at the same step.

use confbench_crypto::fuzz::sweep_iters;
use confbench_crypto::SplitMix64;
use confbench_faasrt::{compile, parse, FaasFunction, JitMode, Module, ScriptError, StackVm};
use confbench_types::Op;
use confbench_workloads::faas_registry;

/// The meter's flush granularity (`FLUSH_EVERY` in `src/meter.rs`).
const FLUSH_EVERY: u64 = 1 << 16;

/// Log-heavy: `ARGS[0]` lines of `2^ARGS[1]` bytes each (plus the index),
/// which cross `FLUSH_EVERY` on the log path between dispatch flushes, with
/// an ordered op every 97th line.
const LOG_HEAVY: &str = r#"
let n = int(ARGS[0]);
let line = "x";
for i in 0, int(ARGS[1]) { line = line + line; }
for i in 0, n {
    log(line, i);
    if i % 97 == 0 { io_write(i + 1); }
}
result(len(line) * n);
"#;

/// A dispatch cost: small, so the log path flushes first, or up to large,
/// so dispatch does.
fn draw_cost(rng: &mut SplitMix64) -> u64 {
    let scale = [4, 64, 4096][rng.next_below(3) as usize];
    1 + rng.next_below(scale)
}

/// An interpreting mode, or a tracing one whose compile comes within the
/// first few thousand steps.
fn draw_mode(rng: &mut SplitMix64) -> JitMode {
    if rng.next_below(2) == 0 {
        return JitMode::Interpret { dispatch_cost: draw_cost(rng) };
    }
    JitMode::Tracing {
        cold_cost: draw_cost(rng),
        threshold: rng.next_below(4096),
        compile_cost: rng.next_below(2 * FLUSH_EVERY),
        hot_cost: draw_cost(rng),
    }
}

/// Bounded arguments: each numeric default `n` from 256 up drawn from
/// `0..=n / 16` three times in four, any other from `0..=n`.
fn draw_args(rng: &mut SplitMix64, defaults: &[String]) -> Vec<String> {
    let draw = |rng: &mut SplitMix64, arg: &String| match arg.parse::<u64>() {
        Ok(n) => {
            let bound = if n < 256 || rng.next_below(4) == 0 { n } else { n / 16 };
            rng.next_below(bound + 1).to_string()
        }
        Err(_) => arg.clone(),
    };
    defaults.iter().map(|arg| draw(rng, arg)).collect()
}

/// SplitMix64-drawn (function, arguments, step limit, two modes), the
/// log-heavy script one time in four: about half the runs stop at
/// `StepLimitExceeded` at a drawn step, some fail at run time, and the
/// log-heavy script crosses `FLUSH_EVERY` on the log path. Mutations
/// tried by hand: every lane flushing when one lane's log crosses
/// `FLUSH_EVERY`, instead of each on what it has not emitted yet (caught
/// at case 214), and an ordered op that flushes only the first lane ahead
/// of it (caught at case 3).
#[test]
fn fuzz_sweep_one_run_two_modes_equals_two_runs() {
    let functions: Vec<(String, Module, Vec<String>)> = faas_registry()
        .iter()
        .map(|w| {
            let module = compile(&parse(w.script()).unwrap()).unwrap();
            (w.name().to_owned(), module, w.default_args())
        })
        .collect();
    let log_heavy = compile(&parse(LOG_HEAVY).unwrap()).unwrap();
    let log_heavy = ("log_heavy".to_owned(), log_heavy, vec!["400".into(), "12".into()]);

    let (mut limited, mut failed, mut log_flushes) = (0, 0, 0);
    let iters = sweep_iters() as u64;
    for case in 0..iters {
        let mut rng = SplitMix64::new(0x1A9E_5000 ^ case);
        let (name, module, defaults) = match rng.next_below(4 * functions.len() as u64) as usize {
            drawn if drawn < functions.len() * 3 => &functions[drawn / 3],
            _ => &log_heavy,
        };
        let args = draw_args(&mut rng, defaults);
        let step_limit = {
            let scale = 1 << (4 + rng.next_below(15));
            scale + rng.next_below(scale)
        };
        let modes = [draw_mode(&mut rng), draw_mode(&mut rng)];
        let label = format!("case {case}: {name} {args:?}, limit {step_limit}, {modes:?}");

        let alone = modes.map(|jit| StackVm::new(jit, step_limit).run(module, &args));
        match StackVm::run_metered(module, &args, modes, step_limit) {
            Ok(lanes) => {
                for (lane, alone) in lanes.iter().zip(&alone) {
                    assert_eq!(Ok(lane), alone.as_ref(), "{label}");
                    let logs = lane.trace.iter().filter(|op| matches!(op, Op::Log(_))).count();
                    log_flushes += usize::from(logs > 1);
                }
            }
            Err(e) => {
                for alone in &alone {
                    assert_eq!(Err(&e), alone.as_ref(), "{label}");
                }
                let stopped = matches!(e, ScriptError::StepLimitExceeded(_));
                limited += usize::from(stopped);
                failed += usize::from(!stopped);
            }
        }
    }
    println!(
        "{iters} cases: {limited} stopped at the step limit, {failed} failed otherwise; \
         {log_flushes} lanes flushed their log more than once"
    );
    assert!(limited > 0 && failed > 0, "limited {limited}, failed {failed}");
    assert!(limited + failed < iters as usize, "every case failed");
    assert!(log_flushes > 0, "no lane flushed its log more than once");
}
