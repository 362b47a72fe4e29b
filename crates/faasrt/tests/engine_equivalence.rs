//! Differential property tests: the tree-walking interpreter and the stack
//! bytecode VM must agree on every generated program, in result and in the
//! I/O side effects they record.
//!
//! Arithmetic, indexing, array construction and the builtins are one
//! implementation (`src/meter.rs`, unit-tested there) that both engines
//! call, so these programs no longer compare two copies of them. What they
//! still cross-check is what stays separate: control flow (`if`, `while`,
//! `for`, `break`/`continue` against compiled jumps), scoping (scope chain
//! against slots), calls and returns, short-circuit `&&`/`||`, and the
//! recursion bound.
//!
//! Deterministic seeded sweeps: each property draws its inputs from a
//! `SplitMix64` stream, so every CI run exercises the identical case set.

use confbench_crypto::SplitMix64;
use confbench_faasrt::{compile, parse, run_program, JitMode, StackVm, TREE_WALK_DISPATCH};

const CASES: u64 = 64;

/// Renders a small arithmetic-and-control-flow program from a recipe of
/// operations. Generated programs always terminate (bounded loops).
fn render_program(seed_ops: &[(u8, i64, i64)]) -> String {
    let mut body = String::from("let acc = 1;\n");
    for (i, (kind, a, b)) in seed_ops.iter().enumerate() {
        let a = (a % 97).abs() + 1;
        let b = (b % 23).abs() + 2;
        match kind % 6 {
            0 => body.push_str(&format!("acc = (acc + {a}) % 100003;\n")),
            1 => body.push_str(&format!("acc = acc * {b} % 99991;\n")),
            2 => body.push_str(&format!(
                "for i{i} in 0, {b} {{ acc = (acc + i{i} * {a}) % 65537; }}\n"
            )),
            3 => body.push_str(&format!(
                "if acc % {b} == 0 {{ acc = acc + {a}; }} else {{ acc = acc - {a}; }}\n"
            )),
            4 => body.push_str(&format!(
                "let j{i} = 0; while j{i} < {b} {{ j{i} = j{i} + 1; if j{i} % 7 == 3 {{ continue; }} acc = (acc * 3 + j{i}) % 32749; }}\n"
            )),
            _ => body.push_str(&format!(
                "let arr{i} = array_new({b}, {a}); arr{i}[{b} / 2] = acc % 1000; acc = (acc + arr{i}[{b} / 2] + len(arr{i})) % 100003;\n"
            )),
        }
    }
    body.push_str("result(acc);\n");
    body
}

#[test]
fn interpreter_and_vm_agree() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xFAA5_0001 ^ case);
        let ops: Vec<(u8, i64, i64)> = (0..1 + rng.next_below(11))
            .map(|_| (rng.next_u64() as u8, rng.next_u64() as i64, rng.next_u64() as i64))
            .collect();
        let src = render_program(&ops);
        let program =
            parse(&src).unwrap_or_else(|e| panic!("generated program failed to parse: {e}\n{src}"));
        let interp = run_program(&program, &[], TREE_WALK_DISPATCH, 50_000_000)
            .unwrap_or_else(|e| panic!("interp failed: {e}\n{src}"));
        let module = compile(&program).unwrap();
        for jit in [JitMode::wasmi(), JitMode::luajit()] {
            let vm = StackVm::new(jit, 50_000_000)
                .run(&module, &[])
                .unwrap_or_else(|e| panic!("vm failed: {e}\n{src}"));
            assert_eq!(&interp.result, &vm.result, "divergence under {jit:?} on:\n{src}");
        }
    }
}

#[test]
fn io_side_effects_agree() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xFAA5_0002 ^ case);
        let writes: Vec<u64> =
            (0..1 + rng.next_below(7)).map(|_| 1 + rng.next_below(99_999)).collect();
        let mut src = String::new();
        for w in &writes {
            src.push_str(&format!("io_write({w});\n"));
        }
        src.push_str("result(0);");
        let program = parse(&src).unwrap();
        let interp = run_program(&program, &[], TREE_WALK_DISPATCH, 10_000_000).unwrap();
        let module = compile(&program).unwrap();
        let vm = StackVm::new(JitMode::wasmi(), 10_000_000).run(&module, &[]).unwrap();
        let expected: u64 = writes.iter().sum();
        assert_eq!(interp.trace.total_io_bytes(), expected, "case {case}");
        assert_eq!(vm.trace.total_io_bytes(), expected, "case {case}");
        assert_eq!(interp.trace.total_syscalls(), writes.len() as u64, "case {case}");
        assert_eq!(vm.trace.total_syscalls(), writes.len() as u64, "case {case}");
    }
}

#[test]
fn short_circuit_skips_the_same_side_effects() {
    let src = r#"
        fn seen(tag, v) { log(tag); return v; }
        let a = seen("a", false) && seen("b", true);
        let b = seen("c", true) || seen("d", false);
        let c = seen("e", nil) || seen("f", 7);
        result(str(a) + " " + str(b) + " " + str(c));
    "#;
    let program = parse(src).unwrap();
    let interp = run_program(&program, &[], TREE_WALK_DISPATCH, 1_000_000).unwrap();
    assert_eq!(interp.result, "false true 7");
    assert_eq!(interp.log, "a\nc\ne\nf\n");
    let module = compile(&program).unwrap();
    for jit in [JitMode::wasmi(), JitMode::luajit()] {
        let vm = StackVm::new(jit, 1_000_000).run(&module, &[]).unwrap();
        assert_eq!((&vm.result, &vm.log), (&interp.result, &interp.log), "{jit:?}");
    }
}

#[test]
fn deeper_recursion_agrees() {
    for n in 1i64..18 {
        let src = format!(
            "fn f(n) {{ if n < 2 {{ return n; }} return f(n - 1) + f(n - 2); }} result(f({n}));"
        );
        let program = parse(&src).unwrap();
        let interp = run_program(&program, &[], TREE_WALK_DISPATCH, 50_000_000).unwrap();
        let module = compile(&program).unwrap();
        let vm = StackVm::new(JitMode::wasmi(), 50_000_000).run(&module, &[]).unwrap();
        assert_eq!(interp.result, vm.result, "n = {n}");
    }
}

#[test]
fn runaway_recursion_errors_instead_of_overflowing() {
    let src = "fn f(n) { return f(n + 1); } result(f(0));";
    let program = parse(src).unwrap();
    let err = run_program(&program, &[], TREE_WALK_DISPATCH, u64::MAX).unwrap_err();
    assert!(err.to_string().contains("call depth"), "{err}");
    let module = compile(&program).unwrap();
    let err = StackVm::new(JitMode::wasmi(), u64::MAX).run(&module, &[]).unwrap_err();
    assert!(err.to_string().contains("call depth"), "{err}");
}

#[test]
fn deep_but_bounded_recursion_still_works() {
    let src = "fn down(n) { if n == 0 { return 0; } return down(n - 1); } result(down(120));";
    let program = parse(src).unwrap();
    assert_eq!(run_program(&program, &[], TREE_WALK_DISPATCH, 100_000_000).unwrap().result, "0");
    let module = compile(&program).unwrap();
    let vm = StackVm::new(JitMode::wasmi(), 100_000_000);
    assert_eq!(vm.run(&module, &[]).unwrap().result, "0");
}
