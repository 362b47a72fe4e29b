//! The CBScript tree-walking interpreter (the PUC-Lua path).
//!
//! Walks the AST with a scope chain and charges one dispatch per node; what
//! a node costs beyond that, and where the charges go, is the shared
//! [`Meter`]'s business.

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, FnDecl, Program, Stmt};
use crate::builtins::call_builtin;
use crate::bytecode::JitMode;
use crate::error::ScriptError;
use crate::meter::{args_array, Meter, ScriptOutcome};
use crate::value::Value;

/// Per-AST-node dispatch cost of a tree-walking interpreter, in abstract
/// CPU ops (the PUC-Lua class).
pub const TREE_WALK_DISPATCH: u64 = 14;

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// Runs `program` with string arguments bound to the global `ARGS` array.
///
/// # Errors
///
/// [`ScriptError::Runtime`] on dynamic errors and
/// [`ScriptError::StepLimitExceeded`] past `step_limit`.
pub fn run_program(
    program: &Program,
    args: &[String],
    dispatch_cost: u64,
    step_limit: u64,
) -> Result<ScriptOutcome, ScriptError> {
    let mut interp = Interp {
        functions: program.functions.iter().map(|f| (f.name.as_str(), f)).collect(),
        globals: HashMap::from([("ARGS".to_owned(), args_array(args))]),
        meter: Meter::new([JitMode::Interpret { dispatch_cost }], step_limit),
        block_depth: 0,
    };
    for stmt in &program.body {
        if let Flow::Return(_) = interp.exec_stmt(stmt, &mut Vec::new())? {
            break;
        }
    }
    let [outcome] = interp.meter.finish();
    Ok(outcome)
}

struct Interp<'p> {
    functions: HashMap<&'p str, &'p FnDecl>,
    globals: HashMap<String, Value>,
    meter: Meter<1>,
    block_depth: u32,
}

type Scope = Vec<(String, Value)>;

impl Interp<'_> {
    fn lookup(&self, scope: &Scope, name: &str) -> Option<Value> {
        scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .or_else(|| self.globals.get(name).cloned())
    }

    fn assign(&mut self, scope: &mut Scope, name: &str, value: Value) -> Result<(), ScriptError> {
        if let Some(slot) = scope.iter_mut().rev().find(|(n, _)| n == name) {
            slot.1 = value;
            return Ok(());
        }
        if let Some(slot) = self.globals.get_mut(name) {
            *slot = value;
            return Ok(());
        }
        Err(ScriptError::Runtime(format!("assignment to undeclared variable {name}")))
    }

    fn exec_block(&mut self, stmts: &[Stmt], scope: &mut Scope) -> Result<Flow, ScriptError> {
        let depth = scope.len();
        self.block_depth += 1;
        for stmt in stmts {
            match self.exec_stmt(stmt, scope)? {
                Flow::Normal => {}
                flow => {
                    scope.truncate(depth);
                    self.block_depth -= 1;
                    return Ok(flow);
                }
            }
        }
        scope.truncate(depth);
        self.block_depth -= 1;
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, scope: &mut Scope) -> Result<Flow, ScriptError> {
        self.meter.step()?;
        match stmt {
            Stmt::Let(name, expr) => {
                let value = self.eval(expr, scope)?;
                self.meter.add_mem(16); // new slot
                if self.block_depth == 0 && scope.is_empty() {
                    self.globals.insert(name.clone(), value);
                } else {
                    scope.push((name.clone(), value));
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign(name, expr) => {
                let value = self.eval(expr, scope)?;
                self.meter.add_mem(16);
                self.assign(scope, name, value)?;
                Ok(Flow::Normal)
            }
            Stmt::IndexAssign(name, index, expr) => {
                let value = self.eval(expr, scope)?;
                let index = self.eval(index, scope)?;
                let target = self
                    .lookup(scope, name)
                    .ok_or_else(|| ScriptError::Runtime(format!("unknown variable {name}")))?;
                self.meter.index_set(&target, &index, value)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(expr) => {
                self.eval(expr, scope)?;
                Ok(Flow::Normal)
            }
            Stmt::If(cond, then_branch, else_branch) => {
                if self.eval(cond, scope)?.is_truthy() {
                    self.exec_block(then_branch, scope)
                } else {
                    self.exec_block(else_branch, scope)
                }
            }
            Stmt::While(cond, body) => {
                while self.eval(cond, scope)?.is_truthy() {
                    match self.exec_block(body, scope)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For(var, from, to, body) => {
                let from = self.eval_int(from, scope)?;
                let to = self.eval_int(to, scope)?;
                scope.push((var.clone(), Value::Int(from)));
                let slot = scope.len() - 1;
                let mut i = from;
                while i < to {
                    scope[slot].1 = Value::Int(i);
                    match self.exec_block(body, scope)? {
                        Flow::Break => break,
                        Flow::Return(v) => {
                            scope.truncate(slot);
                            return Ok(Flow::Return(v));
                        }
                        Flow::Normal | Flow::Continue => {}
                    }
                    self.meter.step()?; // loop bookkeeping
                    i += 1;
                }
                scope.truncate(slot);
                Ok(Flow::Normal)
            }
            Stmt::Return(expr) => {
                let value = match expr {
                    Some(e) => self.eval(e, scope)?,
                    None => Value::Nil,
                };
                Ok(Flow::Return(value))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn eval_int(&mut self, expr: &Expr, scope: &mut Scope) -> Result<i64, ScriptError> {
        match self.eval(expr, scope)? {
            Value::Int(n) => Ok(n),
            other => Err(ScriptError::Runtime(format!("expected int, got {}", other.type_name()))),
        }
    }

    fn eval(&mut self, expr: &Expr, scope: &mut Scope) -> Result<Value, ScriptError> {
        self.meter.step()?;
        match expr {
            Expr::Int(n) => Ok(Value::Int(*n)),
            Expr::Float(x) => Ok(Value::Float(*x)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Nil => Ok(Value::Nil),
            Expr::Var(name) => self
                .lookup(scope, name)
                .ok_or_else(|| ScriptError::Runtime(format!("unknown variable {name}"))),
            Expr::Array(items) => {
                let values: Result<Vec<Value>, _> =
                    items.iter().map(|e| self.eval(e, scope)).collect();
                Ok(self.meter.new_array(values?))
            }
            Expr::Index(target, index) => {
                let target = self.eval(target, scope)?;
                let index = self.eval(index, scope)?;
                self.meter.index(&target, &index)
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, scope)?;
                self.meter.unary(*op, v)
            }
            Expr::Binary(BinOp::And, left, right) => {
                let l = self.eval(left, scope)?;
                if !l.is_truthy() {
                    return Ok(l);
                }
                self.eval(right, scope)
            }
            Expr::Binary(BinOp::Or, left, right) => {
                let l = self.eval(left, scope)?;
                if l.is_truthy() {
                    return Ok(l);
                }
                self.eval(right, scope)
            }
            Expr::Binary(op, left, right) => {
                let l = self.eval(left, scope)?;
                let r = self.eval(right, scope)?;
                self.meter.binary(*op, l, r)
            }
            Expr::Call(name, args) => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a, scope)?);
                }
                self.call(name, values, scope)
            }
        }
    }

    fn call(
        &mut self,
        name: &str,
        args: Vec<Value>,
        _scope: &mut Scope,
    ) -> Result<Value, ScriptError> {
        // User-defined functions shadow nothing: builtins use reserved names.
        if let Some(decl) = self.functions.get(name).copied() {
            if decl.params.len() != args.len() {
                return Err(ScriptError::Runtime(format!(
                    "{name} expects {} arguments, got {}",
                    decl.params.len(),
                    args.len()
                )));
            }
            // Call frame: fresh scope seeded with parameters.
            self.meter.enter_call()?;
            self.meter.add_mem(32 + 16 * args.len() as u64);
            let mut frame: Scope = decl.params.iter().cloned().zip(args).collect();
            let flow = self.exec_block(&decl.body, &mut frame);
            self.meter.exit_call();
            return Ok(match flow? {
                Flow::Return(v) => v,
                _ => Value::Nil,
            });
        }
        call_builtin(&mut self.meter, name, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str) -> ScriptOutcome {
        run_program(&parse(src).unwrap(), &[], TREE_WALK_DISPATCH, 100_000_000).unwrap()
    }

    fn run_err(src: &str) -> ScriptError {
        run_program(&parse(src).unwrap(), &[], TREE_WALK_DISPATCH, 100_000_000).unwrap_err()
    }

    #[test]
    fn arithmetic_and_result() {
        let out = run("result(2 + 3 * 4 - 10 / 2);");
        assert_eq!(out.result, "9");
    }

    #[test]
    fn fibonacci_recursion() {
        let out = run(
            "fn fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } result(fib(15));",
        );
        assert_eq!(out.result, "610");
    }

    #[test]
    fn while_loop_and_assignment() {
        let out = run("let s = 0; let i = 0; while i < 100 { s = s + i; i = i + 1; } result(s);");
        assert_eq!(out.result, "4950");
    }

    #[test]
    fn for_range_with_break_continue() {
        let out = run("let s = 0;
             for i in 0, 100 {
               if i % 2 == 0 { continue; }
               if i > 10 { break; }
               s = s + i;
             }
             result(s);");
        assert_eq!(out.result, "25"); // 1+3+5+7+9
    }

    #[test]
    fn arrays_index_and_mutation() {
        let out = run("let a = array_new(10, 0);
             for i in 0, 10 { a[i] = i * i; }
             let s = 0;
             for i in 0, 10 { s = s + a[i]; }
             result(s);");
        assert_eq!(out.result, "285");
    }

    #[test]
    fn string_concat_indexing_and_chr() {
        let out = run(r#"let s = "ab" + "cd"; result(s + str(len(s)) + chr(33) + str(s[0]));"#);
        assert_eq!(out.result, "abcd4!97");
    }

    #[test]
    fn floats_and_math_builtins() {
        let out = run("result(floor(sqrt(2.0) * 100.0));");
        assert_eq!(out.result, "141.0");
    }

    #[test]
    fn scoping_inner_blocks_do_not_leak() {
        let err = run_err("if true { let x = 1; } result(x);");
        assert!(matches!(err, ScriptError::Runtime(_)));
    }

    #[test]
    fn args_are_bound() {
        let program = parse("result(int(ARGS[0]) * 2);").unwrap();
        let out = run_program(&program, &["21".into()], TREE_WALK_DISPATCH, 1_000_000).unwrap();
        assert_eq!(out.result, "42");
    }

    #[test]
    fn log_accumulates_and_traces() {
        let out = run(r#"for i in 0, 5 { log("line", i); }"#);
        assert_eq!(out.log.lines().count(), 5);
        assert!(out.trace.iter().any(|op| matches!(op, confbench_types::Op::Log(_))));
    }

    #[test]
    fn io_builtins_emit_trace_ops() {
        let out = run("io_write(1048576); io_read(4096);");
        assert_eq!(out.trace.total_io_bytes(), 1048576 + 4096);
        assert_eq!(out.trace.total_syscalls(), 2);
    }

    #[test]
    fn division_by_zero_is_caught() {
        assert!(matches!(run_err("result(1 / 0);"), ScriptError::Runtime(_)));
    }

    #[test]
    fn index_out_of_range_is_caught() {
        assert!(matches!(run_err("let a = [1]; result(a[5]);"), ScriptError::Runtime(_)));
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let program = parse("while true { }").unwrap();
        let err = run_program(&program, &[], TREE_WALK_DISPATCH, 10_000).unwrap_err();
        assert_eq!(err, ScriptError::StepLimitExceeded(10_000));
    }

    #[test]
    fn trace_scales_with_work() {
        let small = run("let s = 0; for i in 0, 100 { s = s + i; }");
        let large = run("let s = 0; for i in 0, 10000 { s = s + i; }");
        assert!(large.trace.total_cpu_ops() > 50 * small.trace.total_cpu_ops());
        assert!(large.steps > 50 * small.steps);
    }

    #[test]
    fn short_circuit_evaluation() {
        // Division by zero on the right must not execute.
        let out = run("let x = false; result(x && 1 / 0 == 0);");
        assert_eq!(out.result, "false");
        let out = run("result(true || 1 / 0 == 0);");
        assert_eq!(out.result, "true");
    }

    #[test]
    fn wrong_arity_reported() {
        let err = run_err("fn f(a, b) { return a; } result(f(1));");
        assert!(matches!(err, ScriptError::Runtime(m) if m.contains("expects 2")));
    }
}
