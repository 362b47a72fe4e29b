//! Bytecode compiler and stack VM — the WebAssembly (Wasmi) and LuaJIT
//! execution paths.
//!
//! CBScript compiles to a compact stack bytecode, mirroring how the paper's
//! Wasm workloads are compiled to WebAssembly and run under the Wasmi
//! interpreter. The same [`StackVm`] doubles as the LuaJIT path: in
//! [`JitMode::Tracing`], hot code (past a back-edge threshold) is "trace
//! compiled" — a one-time compile charge, then a much lower per-instruction
//! dispatch cost — which is exactly the cost structure that makes LuaJIT's
//! heatmap row darker than Lua's in Fig. 6.

use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use crate::builtins::{call_builtin, BUILTIN_NAMES};
use crate::error::ScriptError;
use crate::meter::{args_array, Meter, ScriptOutcome};
use crate::value::Value;

/// One bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Push an integer constant.
    ConstInt(i64),
    /// Push a float constant.
    ConstFloat(f64),
    /// Push a string constant (by pool index).
    ConstStr(u32),
    /// Push a boolean.
    ConstBool(bool),
    /// Push nil.
    ConstNil,
    /// Push local slot.
    LoadLocal(u32),
    /// Pop into local slot.
    StoreLocal(u32),
    /// Push global (by name-pool index).
    LoadGlobal(u32),
    /// Pop into global.
    StoreGlobal(u32),
    /// Pop N items into a new array.
    NewArray(u32),
    /// Pop index, target; push element.
    Index,
    /// Pop value, index, target; store element.
    IndexSet,
    /// Binary operation on the top two stack values.
    Bin(BinOp),
    /// Unary operation.
    Un(UnOp),
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump when falsy.
    JumpIfFalse(u32),
    /// Peek; jump when falsy (for `&&`).
    JumpIfFalsePeek(u32),
    /// Peek; jump when truthy (for `||`).
    JumpIfTruePeek(u32),
    /// Discard the top of stack.
    Pop,
    /// Call user function `fn_index` with `argc` arguments.
    Call(u32, u32),
    /// Call builtin (by name-pool index) with `argc` arguments.
    CallBuiltin(u32, u32),
    /// Return the top of stack.
    Return,
}

/// A compiled function: code plus frame size.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFn {
    /// Function name (diagnostics).
    pub name: String,
    /// Parameter count.
    pub arity: u32,
    /// Local-slot count (including parameters).
    pub locals: u32,
    /// Instructions.
    pub code: Vec<Instr>,
}

/// A compiled module: the top-level body is function 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// All functions; index 0 is the synthesized `__main__`.
    pub functions: Vec<CompiledFn>,
    /// String constants.
    pub strings: Vec<Rc<str>>,
    /// Names referenced as globals or builtins.
    pub names: Vec<String>,
}

impl Module {
    /// Total instruction count across all functions (a code-size proxy).
    pub fn code_len(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }
}

/// Compiles a parsed program to bytecode.
///
/// # Errors
///
/// [`ScriptError::Runtime`] for compile-time name errors (e.g. `break`
/// outside a loop).
pub fn compile(program: &Program) -> Result<Module, ScriptError> {
    let mut module = Module { functions: Vec::new(), strings: Vec::new(), names: Vec::new() };
    let fn_ids: HashMap<&str, u32> = program
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), (i + 1) as u32))
        .collect();

    // Function 0: top level.
    let main =
        FnCompiler::new(&fn_ids, &[]).compile_body("__main__", &program.body, &mut module)?;
    module.functions.push(main);
    for decl in &program.functions {
        let f = FnCompiler::new(&fn_ids, &decl.params).compile_body(
            &decl.name,
            &decl.body,
            &mut module,
        )?;
        module.functions.push(f);
    }
    // Fix function order: we appended main first, then declarations; ids in
    // fn_ids assumed main at 0 and declarations from 1, which holds.
    Ok(module)
}

struct FnCompiler<'a> {
    fn_ids: &'a HashMap<&'a str, u32>,
    locals: Vec<String>,
    code: Vec<Instr>,
    /// The jumps to patch at the end of the innermost loop being compiled.
    labels: LoopLabels,
    /// How many loops enclose the code being compiled.
    loop_depth: u32,
    max_locals: u32,
}

#[derive(Default)]
struct LoopLabels {
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

impl<'a> FnCompiler<'a> {
    fn new(fn_ids: &'a HashMap<&'a str, u32>, params: &[String]) -> Self {
        FnCompiler {
            fn_ids,
            locals: params.to_vec(),
            code: Vec::new(),
            labels: LoopLabels::default(),
            loop_depth: 0,
            max_locals: params.len() as u32,
        }
    }

    fn compile_body(
        mut self,
        name: &str,
        body: &[Stmt],
        module: &mut Module,
    ) -> Result<CompiledFn, ScriptError> {
        let arity = self.locals.len() as u32;
        for stmt in body {
            self.stmt(stmt, module)?;
        }
        self.code.push(Instr::ConstNil);
        self.code.push(Instr::Return);
        Ok(CompiledFn { name: name.to_owned(), arity, locals: self.max_locals, code: self.code })
    }

    fn intern_str(module: &mut Module, s: &Rc<str>) -> u32 {
        if let Some(i) = module.strings.iter().position(|x| x == s) {
            return i as u32;
        }
        module.strings.push(s.clone());
        (module.strings.len() - 1) as u32
    }

    fn intern_name(module: &mut Module, name: &str) -> u32 {
        if let Some(i) = module.names.iter().position(|x| x == name) {
            return i as u32;
        }
        module.names.push(name.to_owned());
        (module.names.len() - 1) as u32
    }

    fn local_slot(&self, name: &str) -> Option<u32> {
        self.locals.iter().rposition(|n| n == name).map(|i| i as u32)
    }

    fn declare_local(&mut self, name: &str) -> u32 {
        self.locals.push(name.to_owned());
        self.max_locals = self.max_locals.max(self.locals.len() as u32);
        (self.locals.len() - 1) as u32
    }

    /// Compiles a loop body, returning the jumps out of it to patch.
    fn loop_body(&mut self, body: &[Stmt], module: &mut Module) -> Result<LoopLabels, ScriptError> {
        let outer = std::mem::take(&mut self.labels);
        self.loop_depth += 1;
        let compiled = self.block(body, module);
        self.loop_depth -= 1;
        let labels = std::mem::replace(&mut self.labels, outer);
        compiled.map(|()| labels)
    }

    fn stmt(&mut self, stmt: &Stmt, module: &mut Module) -> Result<(), ScriptError> {
        match stmt {
            Stmt::Let(name, expr) => {
                self.expr(expr, module)?;
                let slot = self.declare_local(name);
                self.code.push(Instr::StoreLocal(slot));
            }
            Stmt::Assign(name, expr) => {
                self.expr(expr, module)?;
                match self.local_slot(name) {
                    Some(slot) => self.code.push(Instr::StoreLocal(slot)),
                    None => {
                        let idx = Self::intern_name(module, name);
                        self.code.push(Instr::StoreGlobal(idx));
                    }
                }
            }
            Stmt::IndexAssign(name, index, expr) => {
                // Stack order for IndexSet: target, index, value.
                self.load_var(name, module);
                self.expr(index, module)?;
                self.expr(expr, module)?;
                self.code.push(Instr::IndexSet);
            }
            Stmt::Expr(expr) => {
                self.expr(expr, module)?;
                self.code.push(Instr::Pop);
            }
            Stmt::If(cond, then_branch, else_branch) => {
                self.expr(cond, module)?;
                let jump_else = self.emit_placeholder();
                self.block(then_branch, module)?;
                if else_branch.is_empty() {
                    let end = self.code.len() as u32;
                    self.patch(jump_else, Instr::JumpIfFalse(end));
                } else {
                    let jump_end = self.code.len();
                    self.code.push(Instr::Jump(0));
                    let else_start = self.code.len() as u32;
                    self.patch(jump_else, Instr::JumpIfFalse(else_start));
                    self.block(else_branch, module)?;
                    let end = self.code.len() as u32;
                    self.patch(jump_end, Instr::Jump(end));
                }
            }
            Stmt::While(cond, body) => {
                let top = self.code.len() as u32;
                self.expr(cond, module)?;
                let exit = self.emit_placeholder();
                let labels = self.loop_body(body, module)?;
                for c in labels.continues {
                    self.patch(c, Instr::Jump(top));
                }
                self.code.push(Instr::Jump(top));
                let end = self.code.len() as u32;
                self.patch(exit, Instr::JumpIfFalse(end));
                for b in labels.breaks {
                    self.patch(b, Instr::Jump(end));
                }
            }
            Stmt::For(var, from, to, body) => {
                let scope = self.locals.len();
                self.expr(from, module)?;
                let ivar = self.declare_local(var);
                self.code.push(Instr::StoreLocal(ivar));
                self.expr(to, module)?;
                let limit = self.declare_local("__limit");
                self.code.push(Instr::StoreLocal(limit));
                let top = self.code.len() as u32;
                self.code.push(Instr::LoadLocal(ivar));
                self.code.push(Instr::LoadLocal(limit));
                self.code.push(Instr::Bin(BinOp::Lt));
                let exit = self.emit_placeholder();
                let labels = self.loop_body(body, module)?;
                let incr = self.code.len() as u32;
                for c in labels.continues {
                    self.patch(c, Instr::Jump(incr));
                }
                self.code.push(Instr::LoadLocal(ivar));
                self.code.push(Instr::ConstInt(1));
                self.code.push(Instr::Bin(BinOp::Add));
                self.code.push(Instr::StoreLocal(ivar));
                self.code.push(Instr::Jump(top));
                let end = self.code.len() as u32;
                self.patch(exit, Instr::JumpIfFalse(end));
                for b in labels.breaks {
                    self.patch(b, Instr::Jump(end));
                }
                self.locals.truncate(scope);
            }
            Stmt::Return(expr) => {
                match expr {
                    Some(e) => self.expr(e, module)?,
                    None => self.code.push(Instr::ConstNil),
                }
                self.code.push(Instr::Return);
            }
            // `parse` rejects both outside a loop; a hand-built program
            // can still hold one.
            Stmt::Break | Stmt::Continue if self.loop_depth == 0 => {
                let word = if matches!(stmt, Stmt::Break) { "break" } else { "continue" };
                return Err(ScriptError::Runtime(format!("{word} outside loop")));
            }
            Stmt::Break => {
                self.labels.breaks.push(self.code.len());
                self.code.push(Instr::Jump(0));
            }
            Stmt::Continue => {
                self.labels.continues.push(self.code.len());
                self.code.push(Instr::Jump(0));
            }
        }
        Ok(())
    }

    fn block(&mut self, stmts: &[Stmt], module: &mut Module) -> Result<(), ScriptError> {
        let scope = self.locals.len();
        for s in stmts {
            self.stmt(s, module)?;
        }
        self.locals.truncate(scope);
        Ok(())
    }

    fn emit_placeholder(&mut self) -> usize {
        let at = self.code.len();
        self.code.push(Instr::JumpIfFalse(0));
        at
    }

    fn patch(&mut self, at: usize, instr: Instr) {
        self.code[at] = instr;
    }

    fn load_var(&mut self, name: &str, module: &mut Module) {
        match self.local_slot(name) {
            Some(slot) => self.code.push(Instr::LoadLocal(slot)),
            None => {
                let idx = Self::intern_name(module, name);
                self.code.push(Instr::LoadGlobal(idx));
            }
        }
    }

    fn expr(&mut self, expr: &Expr, module: &mut Module) -> Result<(), ScriptError> {
        match expr {
            Expr::Int(n) => self.code.push(Instr::ConstInt(*n)),
            Expr::Float(x) => self.code.push(Instr::ConstFloat(*x)),
            Expr::Str(s) => {
                let idx = Self::intern_str(module, s);
                self.code.push(Instr::ConstStr(idx));
            }
            Expr::Bool(b) => self.code.push(Instr::ConstBool(*b)),
            Expr::Nil => self.code.push(Instr::ConstNil),
            Expr::Var(name) => self.load_var(name, module),
            Expr::Array(items) => {
                for item in items {
                    self.expr(item, module)?;
                }
                self.code.push(Instr::NewArray(items.len() as u32));
            }
            Expr::Index(target, index) => {
                self.expr(target, module)?;
                self.expr(index, module)?;
                self.code.push(Instr::Index);
            }
            Expr::Unary(op, inner) => {
                self.expr(inner, module)?;
                self.code.push(Instr::Un(*op));
            }
            Expr::Binary(BinOp::And, left, right) => {
                self.expr(left, module)?;
                let short = self.code.len();
                self.code.push(Instr::JumpIfFalsePeek(0));
                self.code.push(Instr::Pop);
                self.expr(right, module)?;
                let end = self.code.len() as u32;
                self.patch(short, Instr::JumpIfFalsePeek(end));
            }
            Expr::Binary(BinOp::Or, left, right) => {
                self.expr(left, module)?;
                let short = self.code.len();
                self.code.push(Instr::JumpIfTruePeek(0));
                self.code.push(Instr::Pop);
                self.expr(right, module)?;
                let end = self.code.len() as u32;
                self.patch(short, Instr::JumpIfTruePeek(end));
            }
            Expr::Binary(op, left, right) => {
                self.expr(left, module)?;
                self.expr(right, module)?;
                self.code.push(Instr::Bin(*op));
            }
            Expr::Call(name, args) => {
                for a in args {
                    self.expr(a, module)?;
                }
                if let Some(&id) = self.fn_ids.get(name.as_str()) {
                    self.code.push(Instr::Call(id, args.len() as u32));
                } else if BUILTIN_NAMES.contains(&name.as_str()) {
                    let idx = Self::intern_name(module, name);
                    self.code.push(Instr::CallBuiltin(idx, args.len() as u32));
                } else {
                    return Err(ScriptError::Runtime(format!("unknown function {name}")));
                }
            }
        }
        Ok(())
    }
}

/// JIT behaviour of the stack VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JitMode {
    /// Pure interpretation at `dispatch_cost` per instruction (Wasmi-class).
    Interpret {
        /// Abstract CPU ops per bytecode instruction.
        dispatch_cost: u64,
    },
    /// Trace compilation: interpret at `cold_cost` for the first
    /// `threshold` instructions, then charge `compile_cost` once and run at
    /// `hot_cost` (LuaJIT-class).
    Tracing {
        /// Dispatch cost before the threshold.
        cold_cost: u64,
        /// Instructions before trace compilation kicks in.
        threshold: u64,
        /// One-time compile charge (abstract CPU ops).
        compile_cost: u64,
        /// Dispatch cost for compiled code.
        hot_cost: u64,
    },
}

impl JitMode {
    /// The Wasmi-interpreter configuration used for the Wasm language row.
    pub fn wasmi() -> Self {
        JitMode::Interpret { dispatch_cost: 4 }
    }

    /// The LuaJIT configuration used for the LuaJIT language row.
    pub fn luajit() -> Self {
        JitMode::Tracing { cold_cost: 8, threshold: 150_000, compile_cost: 400_000, hot_cost: 2 }
    }
}

/// The stack virtual machine.
#[derive(Debug)]
pub struct StackVm {
    jit: JitMode,
    step_limit: u64,
}

impl StackVm {
    /// Creates a VM with the given JIT mode and instruction budget.
    pub fn new(jit: JitMode, step_limit: u64) -> Self {
        StackVm { jit, step_limit }
    }

    /// Runs a module's `__main__` with `ARGS` bound.
    ///
    /// # Errors
    ///
    /// Runtime errors and [`ScriptError::StepLimitExceeded`].
    pub fn run(&self, module: &Module, args: &[String]) -> Result<ScriptOutcome, ScriptError> {
        let [outcome] = StackVm::run_metered(module, args, [self.jit], self.step_limit)?;
        Ok(outcome)
    }

    /// Runs a module's `__main__` once, metered for each of `jits`, for at
    /// most `step_limit` instructions: each outcome is what [`StackVm::run`]
    /// in that mode returns, since modes differ only in what an
    /// instruction costs. One run serves the LuaJIT and the Wasm language
    /// at half the time of two.
    ///
    /// # Errors
    ///
    /// As [`StackVm::run`]: a failure is every mode's, at the same
    /// instruction.
    pub fn run_metered<const N: usize>(
        module: &Module,
        args: &[String],
        jits: [JitMode; N],
        step_limit: u64,
    ) -> Result<[ScriptOutcome; N], ScriptError> {
        let mut state = VmState {
            module,
            globals: HashMap::from([("ARGS".to_owned(), args_array(args))]),
            meter: Meter::new(jits, step_limit),
        };
        state.call_function(0, Vec::new())?;
        Ok(state.meter.finish())
    }
}

struct VmState<'m, const N: usize> {
    module: &'m Module,
    globals: HashMap<String, Value>,
    meter: Meter<N>,
}

impl<const N: usize> VmState<'_, N> {
    fn call_function(&mut self, fn_index: u32, args: Vec<Value>) -> Result<Value, ScriptError> {
        self.meter.enter_call()?;
        let result = self.call_function_inner(fn_index, args);
        self.meter.exit_call();
        result
    }

    fn call_function_inner(
        &mut self,
        fn_index: u32,
        args: Vec<Value>,
    ) -> Result<Value, ScriptError> {
        let f = &self.module.functions[fn_index as usize];
        if args.len() as u32 != f.arity {
            return Err(ScriptError::Runtime(format!(
                "{} expects {} arguments, got {}",
                f.name,
                f.arity,
                args.len()
            )));
        }
        let mut locals = vec![Value::Nil; f.locals as usize];
        locals[..args.len()].clone_from_slice(&args);
        self.meter.add_mem(16 * f.locals as u64);
        let mut stack: Vec<Value> = Vec::with_capacity(16);
        let mut pc = 0usize;

        while pc < f.code.len() {
            self.meter.step()?;
            match &f.code[pc] {
                Instr::ConstInt(n) => stack.push(Value::Int(*n)),
                Instr::ConstFloat(x) => stack.push(Value::Float(*x)),
                Instr::ConstStr(i) => {
                    stack.push(Value::Str(self.module.strings[*i as usize].clone()))
                }
                Instr::ConstBool(b) => stack.push(Value::Bool(*b)),
                Instr::ConstNil => stack.push(Value::Nil),
                Instr::LoadLocal(slot) => stack.push(locals[*slot as usize].clone()),
                Instr::StoreLocal(slot) => {
                    let v = pop(&mut stack)?;
                    locals[*slot as usize] = v;
                }
                Instr::LoadGlobal(i) => {
                    let name = &self.module.names[*i as usize];
                    let v =
                        self.globals.get(name).cloned().ok_or_else(|| {
                            ScriptError::Runtime(format!("unknown variable {name}"))
                        })?;
                    stack.push(v);
                }
                Instr::StoreGlobal(i) => {
                    let v = pop(&mut stack)?;
                    let name = self.module.names[*i as usize].clone();
                    self.globals.insert(name, v);
                }
                Instr::NewArray(n) => {
                    let at = stack.len() - *n as usize;
                    let items: Vec<Value> = stack.split_off(at);
                    stack.push(self.meter.new_array(items));
                }
                Instr::Index => {
                    let index = pop(&mut stack)?;
                    let target = pop(&mut stack)?;
                    stack.push(self.meter.index(&target, &index)?);
                }
                Instr::IndexSet => {
                    let value = pop(&mut stack)?;
                    let index = pop(&mut stack)?;
                    let target = pop(&mut stack)?;
                    self.meter.index_set(&target, &index, value)?;
                }
                Instr::Bin(op) => {
                    let r = pop(&mut stack)?;
                    let l = pop(&mut stack)?;
                    stack.push(self.meter.binary(*op, l, r)?);
                }
                Instr::Un(op) => {
                    let v = pop(&mut stack)?;
                    stack.push(self.meter.unary(*op, v)?);
                }
                Instr::Jump(t) => {
                    pc = *t as usize;
                    continue;
                }
                Instr::JumpIfFalse(t) => {
                    let v = pop(&mut stack)?;
                    if !v.is_truthy() {
                        pc = *t as usize;
                        continue;
                    }
                }
                Instr::JumpIfFalsePeek(t) => {
                    let falsy = !stack.last().map(Value::is_truthy).unwrap_or(false);
                    if falsy {
                        pc = *t as usize;
                        continue;
                    }
                }
                Instr::JumpIfTruePeek(t) => {
                    let truthy = stack.last().map(Value::is_truthy).unwrap_or(false);
                    if truthy {
                        pc = *t as usize;
                        continue;
                    }
                }
                Instr::Pop => {
                    pop(&mut stack)?;
                }
                Instr::Call(id, argc) => {
                    let at = stack.len() - *argc as usize;
                    let args: Vec<Value> = stack.split_off(at);
                    self.meter.add_mem(32);
                    let ret = self.call_function(*id, args)?;
                    stack.push(ret);
                }
                Instr::CallBuiltin(i, argc) => {
                    let at = stack.len() - *argc as usize;
                    let args: Vec<Value> = stack.split_off(at);
                    let name = self.module.names[*i as usize].clone();
                    let ret = call_builtin(&mut self.meter, &name, args)?;
                    stack.push(ret);
                }
                Instr::Return => return pop(&mut stack),
            }
            pc += 1;
        }
        Ok(Value::Nil)
    }
}

fn pop(stack: &mut Vec<Value>) -> Result<Value, ScriptError> {
    stack.pop().ok_or_else(|| ScriptError::Runtime("stack underflow".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{run_program, TREE_WALK_DISPATCH};
    use crate::parser::parse;

    fn run_vm(src: &str, jit: JitMode) -> ScriptOutcome {
        let program = parse(src).unwrap();
        let module = compile(&program).unwrap();
        StackVm::new(jit, 200_000_000).run(&module, &[]).unwrap()
    }

    fn run_both(src: &str) -> (String, String) {
        let program = parse(src).unwrap();
        let interp = run_program(&program, &[], TREE_WALK_DISPATCH, 200_000_000).unwrap();
        let vm = run_vm(src, JitMode::wasmi());
        (interp.result, vm.result)
    }

    #[test]
    fn vm_matches_interpreter_on_core_programs() {
        for src in [
            "result(2 + 3 * 4);",
            "fn fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } result(fib(14));",
            "let s = 0; for i in 0, 1000 { if i % 3 == 0 { s = s + i; } } result(s);",
            "let a = array_new(50, 1); for i in 1, 50 { a[i] = a[i-1] * 2 % 997; } result(a[49]);",
            r#"let s = ""; for i in 0, 5 { s = s + str(i); } result(s);"#,
            "let x = 5; let y = x > 3 && x < 10; result(y);",
            "let s = 0; let i = 0; while true { i = i + 1; if i > 10 { break; } if i % 2 == 0 { continue; } s = s + i; } result(s);",
            "result(floor(sqrt(144.0)));",
        ] {
            let (i, v) = run_both(src);
            assert_eq!(i, v, "divergence on {src}");
        }
    }

    #[test]
    fn vm_respects_args() {
        let program = parse("result(int(ARGS[0]) + int(ARGS[1]));").unwrap();
        let module = compile(&program).unwrap();
        let out = StackVm::new(JitMode::wasmi(), 1_000_000)
            .run(&module, &["20".into(), "22".into()])
            .unwrap();
        assert_eq!(out.result, "42");
    }

    #[test]
    fn wasmi_dispatch_is_cheaper_than_tree_walking() {
        let src = "let s = 0; for i in 0, 20000 { s = s + i; } result(s);";
        let program = parse(src).unwrap();
        let interp = run_program(&program, &[], TREE_WALK_DISPATCH, 100_000_000).unwrap();
        let vm = run_vm(src, JitMode::wasmi());
        assert_eq!(interp.result, vm.result);
        assert!(
            vm.trace.total_cpu_ops() < interp.trace.total_cpu_ops(),
            "vm {} vs interp {}",
            vm.trace.total_cpu_ops(),
            interp.trace.total_cpu_ops()
        );
    }

    #[test]
    fn luajit_beats_wasmi_on_hot_loops() {
        let src = "let s = 0; for i in 0, 300000 { s = s + i; } result(s);";
        let jit = run_vm(src, JitMode::luajit());
        let wasmi = run_vm(src, JitMode::wasmi());
        assert_eq!(jit.result, wasmi.result);
        assert!(
            jit.trace.total_cpu_ops() * 3 < wasmi.trace.total_cpu_ops() * 2,
            "jit {} vs wasmi {}",
            jit.trace.total_cpu_ops(),
            wasmi.trace.total_cpu_ops()
        );
    }

    #[test]
    fn luajit_pays_warmup_on_short_programs() {
        let src = "result(1 + 1);";
        let jit = run_vm(src, JitMode::luajit());
        let wasmi = run_vm(src, JitMode::wasmi());
        // Too short to compile: cold cost (8) > wasmi cost (4).
        assert!(jit.trace.total_cpu_ops() > wasmi.trace.total_cpu_ops());
    }

    #[test]
    fn break_outside_loop_is_compile_error() {
        // `parse` rejects these; the compiler still does for a hand-built
        // program.
        for (stmt, word) in [(Stmt::Break, "break"), (Stmt::Continue, "continue")] {
            let program = Program { body: vec![stmt], ..Program::default() };
            let message = format!("{word} outside loop");
            assert_eq!(compile(&program), Err(ScriptError::Runtime(message)));
        }
    }

    #[test]
    fn unknown_function_is_compile_error() {
        let program = parse("bogus(1);").unwrap();
        assert!(compile(&program).is_err());
    }

    #[test]
    fn step_limit_enforced() {
        let program = parse("while true { }").unwrap();
        let module = compile(&program).unwrap();
        let err = StackVm::new(JitMode::wasmi(), 1_000).run(&module, &[]).unwrap_err();
        assert!(matches!(err, ScriptError::StepLimitExceeded(_)));
    }

    #[test]
    fn nested_loops_with_breaks() {
        let src = "
            let hits = 0;
            for i in 0, 10 {
                for j in 0, 10 {
                    if j == 5 { break; }
                    hits = hits + 1;
                }
            }
            result(hits);";
        let (i, v) = run_both(src);
        assert_eq!(i, "50");
        assert_eq!(v, "50");
    }

    #[test]
    fn io_builtins_reach_trace_through_vm() {
        let out = run_vm("io_write(65536); log(\"done\");", JitMode::wasmi());
        assert_eq!(out.trace.total_io_bytes(), 65536);
        assert_eq!(out.log, "done\n");
    }

    #[test]
    fn module_code_len_reports_size() {
        let program = parse("fn f() { return 1; } result(f());").unwrap();
        let module = compile(&program).unwrap();
        assert!(module.code_len() > 4);
        assert_eq!(module.functions.len(), 2);
    }
}
