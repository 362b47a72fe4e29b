//! Language runtimes for ConfBench's FaaS workloads.
//!
//! The paper evaluates seven runtimes (Python, Node.js, Ruby, Lua, LuaJIT,
//! Go, Wasm) because runtime complexity turns out to interact with TEE
//! overheads. This crate provides the execution machinery:
//!
//! * **CBScript** — a small dynamic language (lexer → parser → AST) with two
//!   real execution engines: a tree-walking interpreter ([`run_program`],
//!   the PUC-Lua path) and a bytecode compiler + stack VM ([`compile`],
//!   [`StackVm`]) that serves as both the Wasmi path
//!   ([`JitMode::wasmi`]) and the trace-compiling LuaJIT path
//!   ([`JitMode::luajit`]);
//! * [`RuntimeProfile`] — emulation profiles for the managed runtimes we do
//!   not reimplement (CPython, V8, MRI) and for compiled Go: dispatch
//!   inflation, allocation pressure, GC cycles, and resident footprint;
//! * [`FunctionLauncher`] — the paper's per-language, workload-agnostic
//!   launcher: give it any [`FaasFunction`] and a language, get output plus
//!   the operation trace a simulated VM can charge for (bootstrap trace kept
//!   separate, since the paper excludes launcher bootstrap from timings);
//! * [`Engine`] — what a launch executes: the languages of one engine share
//!   one execution ([`Engine::launch`]), the stack VM metering one run for
//!   both of its JIT modes ([`StackVm::run_metered`]).
//!
//! # Example
//!
//! ```
//! use confbench_faasrt::{parse, run_program, TREE_WALK_DISPATCH};
//!
//! let program = parse("let s = 0; for i in 0, 10 { s = s + i; } result(s);")?;
//! let outcome = run_program(&program, &[], TREE_WALK_DISPATCH, 1_000_000)?;
//! assert_eq!(outcome.result, "45");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod ast;
mod builtins;
mod bytecode;
mod error;
mod interp;
mod launcher;
mod lexer;
mod meter;
mod parser;
mod profile;
mod token;
mod value;

pub use ast::{BinOp, Expr, FnDecl, Program, Stmt, UnOp};
pub use bytecode::{compile, CompiledFn, Instr, JitMode, Module, StackVm};
pub use error::ScriptError;
pub use interp::{run_program, TREE_WALK_DISPATCH};
pub use launcher::{Engine, FaasFunction, FunctionLauncher, LaunchError, LaunchOutput};
pub use lexer::lex;
pub use meter::ScriptOutcome;
pub use parser::parse;
pub use profile::RuntimeProfile;
pub use token::{Token, TokenKind};
pub use value::Value;
