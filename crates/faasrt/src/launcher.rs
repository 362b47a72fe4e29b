//! The per-language function launcher (paper §III-A).
//!
//! For every supported language ConfBench ships a workload-agnostic launcher
//! that instantiates the runtime, executes the function with its arguments,
//! and returns a common output shape. The paper's timing excludes the time
//! the launcher needs to bootstrap the runtime; [`LaunchOutput`] therefore
//! separates the startup trace from the execution trace.

use confbench_types::{Language, OpTrace};

use crate::bytecode::{compile, JitMode, StackVm};
use crate::error::ScriptError;
use crate::interp::{run_program, TREE_WALK_DISPATCH};
use crate::parser::parse;
use crate::profile::RuntimeProfile;

/// A function the launcher can execute: CBScript source for the engine
/// languages, plus native logic for the emulated ones.
pub trait FaasFunction {
    /// Unique function name.
    fn name(&self) -> &str;

    /// CBScript source implementing the function (the Lua/LuaJIT/Wasm
    /// path). Engines run this for real.
    fn script(&self) -> &str;

    /// Native implementation of the same semantics (the Python/Node/Ruby/Go
    /// path): performs the real computation, records the *logical* trace,
    /// and returns the output string.
    ///
    /// # Errors
    ///
    /// Implementation-specific failure, reported as a string.
    fn run_native(&self, args: &[String], trace: &mut OpTrace) -> Result<String, String>;
}

/// What a launch produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchOutput {
    /// The function's result string.
    pub output: String,
    /// Log text emitted during execution.
    pub log: String,
    /// Operations of the measured function execution.
    pub trace: OpTrace,
    /// Operations of runtime bootstrap (excluded from timing, as in the
    /// paper).
    pub startup_trace: OpTrace,
}

/// Errors from launching a function.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// The CBScript path failed.
    Script(ScriptError),
    /// The native path failed.
    Native(String),
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Script(e) => write!(f, "script: {e}"),
            LaunchError::Native(msg) => write!(f, "native: {msg}"),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<ScriptError> for LaunchError {
    fn from(e: ScriptError) -> Self {
        LaunchError::Script(e)
    }
}

/// Interpreter/VM step budget per function execution.
const STEP_LIMIT: u64 = 400_000_000;

/// What a launch executes. The languages of one engine differ only in what
/// they charge for the same execution, so one execution serves them all
/// ([`Engine::launch`]): the stack VM meters one run for both of its JIT
/// modes, and the native path's one logical trace is inflated by each
/// runtime's profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// The tree-walking interpreter: Lua.
    TreeWalk,
    /// The bytecode stack VM: LuaJIT and Wasm.
    StackVm,
    /// The function's native logic under a runtime profile: Python, Node,
    /// Ruby and Go.
    Native,
}

impl Engine {
    /// Every engine, in [`Language::ALL`] order of their first language.
    pub const ALL: [Engine; 3] = [Engine::Native, Engine::TreeWalk, Engine::StackVm];

    /// The engine `language` runs on.
    pub fn of(language: Language) -> Engine {
        match language {
            Language::Lua => Engine::TreeWalk,
            Language::LuaJit | Language::Wasm => Engine::StackVm,
            Language::Python | Language::Node | Language::Ruby | Language::Go => Engine::Native,
        }
    }

    /// The languages this engine runs, in the order [`Engine::launch`]
    /// returns their outputs.
    pub fn languages(self) -> &'static [Language] {
        match self {
            Engine::TreeWalk => &[Language::Lua],
            Engine::StackVm => &STACK_VM_LANGUAGES,
            Engine::Native => &[Language::Python, Language::Node, Language::Ruby, Language::Go],
        }
    }

    /// Executes `function` with `args` once and returns what
    /// [`FunctionLauncher::launch`] returns for each of
    /// [`Engine::languages`], in that order.
    ///
    /// # Errors
    ///
    /// [`LaunchError`]: a failure is every language's, as each of their
    /// launches would report it.
    pub fn launch(
        self,
        function: &dyn FaasFunction,
        args: &[String],
    ) -> Result<Vec<LaunchOutput>, LaunchError> {
        match self {
            Engine::TreeWalk => Ok(vec![launch_tree_walk(function, args)?]),
            Engine::StackVm => Ok(launch_stack_vm(function, args, STACK_VM_LANGUAGES)?.into()),
            Engine::Native => {
                let run = run_native(function, args)?;
                self.languages().iter().map(|&language| native_output(language, &run)).collect()
            }
        }
    }
}

const STACK_VM_LANGUAGES: [Language; 2] = [Language::LuaJit, Language::Wasm];

/// A workload-agnostic launcher bound to one language runtime.
///
/// # Example
///
/// ```
/// use confbench_faasrt::{FaasFunction, FunctionLauncher};
/// use confbench_types::{Language, OpTrace};
///
/// struct Double;
/// impl FaasFunction for Double {
///     fn name(&self) -> &str { "double" }
///     fn script(&self) -> &str { "result(int(ARGS[0]) * 2);" }
///     fn run_native(&self, args: &[String], trace: &mut OpTrace) -> Result<String, String> {
///         let n: i64 = args[0].parse().map_err(|e| format!("{e}"))?;
///         trace.cpu(1);
///         Ok((n * 2).to_string())
///     }
/// }
///
/// let lua = FunctionLauncher::new(Language::Lua).launch(&Double, &["21".into()]).unwrap();
/// let go = FunctionLauncher::new(Language::Go).launch(&Double, &["21".into()]).unwrap();
/// assert_eq!(lua.output, "42");
/// assert_eq!(go.output, "42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionLauncher {
    language: Language,
}

impl FunctionLauncher {
    /// Creates a launcher for `language`.
    pub fn new(language: Language) -> Self {
        FunctionLauncher { language }
    }

    /// The launcher's language.
    pub fn language(&self) -> Language {
        self.language
    }

    /// Executes `function` with `args` under this launcher's runtime.
    ///
    /// # Errors
    ///
    /// [`LaunchError`] from either execution path.
    pub fn launch(
        &self,
        function: &dyn FaasFunction,
        args: &[String],
    ) -> Result<LaunchOutput, LaunchError> {
        match Engine::of(self.language) {
            Engine::TreeWalk => launch_tree_walk(function, args),
            Engine::StackVm => {
                let [output] = launch_stack_vm(function, args, [self.language])?;
                Ok(output)
            }
            Engine::Native => native_output(self.language, &run_native(function, args)?),
        }
    }
}

fn launch_tree_walk(
    function: &dyn FaasFunction,
    args: &[String],
) -> Result<LaunchOutput, LaunchError> {
    let program = parse(function.script())?;
    let outcome = run_program(&program, args, TREE_WALK_DISPATCH, STEP_LIMIT)?;
    Ok(LaunchOutput {
        output: outcome.result,
        log: outcome.log,
        trace: outcome.trace,
        startup_trace: interpreter_startup(4 << 20),
    })
}

/// One stack-VM run, metered for each of `languages` (LuaJIT or Wasm).
fn launch_stack_vm<const N: usize>(
    function: &dyn FaasFunction,
    args: &[String],
    languages: [Language; N],
) -> Result<[LaunchOutput; N], LaunchError> {
    // (JIT mode, runtime footprint): LuaJIT's, or else Wasm's.
    let lane = |language| match language {
        Language::LuaJit => (JitMode::luajit(), 6 << 20),
        _ => (JitMode::wasmi(), 3 << 20),
    };
    let module = compile(&parse(function.script())?)?;
    let outcomes = StackVm::run_metered(&module, args, languages.map(|l| lane(l).0), STEP_LIMIT)?;
    let mut outputs = outcomes.map(|outcome| LaunchOutput {
        output: outcome.result,
        log: outcome.log,
        trace: outcome.trace,
        startup_trace: OpTrace::new(),
    });
    for (output, language) in outputs.iter_mut().zip(languages) {
        output.startup_trace = interpreter_startup(lane(language).1);
    }
    Ok(outputs)
}

/// The function's native run: its output and its logical trace.
fn run_native(
    function: &dyn FaasFunction,
    args: &[String],
) -> Result<(String, OpTrace), LaunchError> {
    let mut logical = OpTrace::new();
    let output = function.run_native(args, &mut logical).map_err(LaunchError::Native)?;
    Ok((output, logical))
}

/// A native run as `language`'s runtime profile inflates it.
fn native_output(
    language: Language,
    (output, logical): &(String, OpTrace),
) -> Result<LaunchOutput, LaunchError> {
    let profile = RuntimeProfile::for_language(language)
        .ok_or_else(|| LaunchError::Native(format!("{language} has no runtime profile")))?;
    Ok(LaunchOutput {
        output: output.clone(),
        log: String::new(),
        trace: profile.apply(logical),
        startup_trace: interpreter_startup(profile.footprint_bytes),
    })
}

fn interpreter_startup(footprint: u64) -> OpTrace {
    let mut t = OpTrace::new();
    t.alloc(footprint);
    t.mem_write(footprint / 4); // cold-start touches a quarter of it
    t.cpu(footprint / 64);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    struct SumTo;

    impl FaasFunction for SumTo {
        fn name(&self) -> &str {
            "sumto"
        }

        fn script(&self) -> &str {
            "let n = int(ARGS[0]);
             let s = 0;
             for i in 0, n { s = s + i; }
             result(s);"
        }

        fn run_native(&self, args: &[String], trace: &mut OpTrace) -> Result<String, String> {
            let n: u64 = args[0].parse().map_err(|e| format!("{e}"))?;
            let mut s: u64 = 0;
            for i in 0..n {
                s += i;
            }
            trace.cpu(3 * n);
            Ok(s.to_string())
        }
    }

    #[test]
    fn all_languages_agree_on_output() {
        for language in Language::ALL {
            let out = FunctionLauncher::new(language).launch(&SumTo, &["1000".into()]).unwrap();
            assert_eq!(out.output, "499500", "{language} output");
        }
    }

    #[test]
    fn startup_trace_is_separate_and_nonempty() {
        let out = FunctionLauncher::new(Language::Python).launch(&SumTo, &["10".into()]).unwrap();
        assert!(!out.startup_trace.is_empty());
        assert!(out.startup_trace.total_alloc_bytes() >= 30 << 20);
    }

    #[test]
    fn dispatch_ordering_matches_runtime_weight() {
        // For the same logical work: Python >> Lua > Wasm > LuaJIT ~ Go.
        let cpu = |language: Language| {
            FunctionLauncher::new(language)
                .launch(&SumTo, &["200000".into()])
                .unwrap()
                .trace
                .total_cpu_ops()
        };
        let python = cpu(Language::Python);
        let lua = cpu(Language::Lua);
        let wasm = cpu(Language::Wasm);
        let luajit = cpu(Language::LuaJit);
        let go = cpu(Language::Go);
        assert!(python > lua, "python {python} vs lua {lua}");
        assert!(lua > wasm, "lua {lua} vs wasm {wasm}");
        assert!(wasm > luajit, "wasm {wasm} vs luajit {luajit}");
        assert!(go < wasm, "go {go} vs wasm {wasm}");
    }

    #[test]
    fn script_errors_surface() {
        struct Broken;
        impl FaasFunction for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn script(&self) -> &str {
                "result(1 / 0);"
            }
            fn run_native(&self, _: &[String], _: &mut OpTrace) -> Result<String, String> {
                Err("native boom".into())
            }
        }
        assert!(matches!(
            FunctionLauncher::new(Language::Lua).launch(&Broken, &[]),
            Err(LaunchError::Script(_))
        ));
        assert!(matches!(
            FunctionLauncher::new(Language::Go).launch(&Broken, &[]),
            Err(LaunchError::Native(_))
        ));
    }

    #[test]
    fn an_engine_serves_each_of_its_languages_what_its_own_launcher_does() {
        let args = ["5000".to_owned()];
        let mut covered = Vec::new();
        for engine in Engine::ALL {
            let outputs = engine.launch(&SumTo, &args).unwrap();
            assert_eq!(outputs.len(), engine.languages().len(), "{engine:?}");
            for (output, &language) in outputs.iter().zip(engine.languages()) {
                assert_eq!(Engine::of(language), engine);
                let own = FunctionLauncher::new(language).launch(&SumTo, &args).unwrap();
                assert_eq!(*output, own, "{language}");
                covered.push(language);
            }
        }
        covered.sort_by_key(|l| Language::ALL.iter().position(|all| all == l));
        assert_eq!(covered, Language::ALL, "every language, once");
    }

    #[test]
    fn an_engine_failure_is_each_of_its_languages_failure() {
        struct Broken;
        impl FaasFunction for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn script(&self) -> &str {
                "let s = 0; for i in 0, 100 { s = s + i; } result(s / (s - 4950));"
            }
            fn run_native(&self, _: &[String], _: &mut OpTrace) -> Result<String, String> {
                Err("native boom".into())
            }
        }
        for engine in Engine::ALL {
            let failure = engine.launch(&Broken, &[]).unwrap_err();
            for &language in engine.languages() {
                let own = FunctionLauncher::new(language).launch(&Broken, &[]).unwrap_err();
                assert_eq!(failure.to_string(), own.to_string(), "{language}");
            }
        }
        // A runaway loop stops at the same instruction in every lane,
        // whichever mode comes first.
        let module = compile(&parse("while true { }").unwrap()).unwrap();
        for modes in [[JitMode::luajit(), JitMode::wasmi()], [JitMode::wasmi(), JitMode::luajit()]]
        {
            let stopped = ScriptError::StepLimitExceeded(1_000);
            assert_eq!(StackVm::run_metered(&module, &[], modes, 1_000), Err(stopped.clone()));
            for jit in modes {
                assert_eq!(StackVm::new(jit, 1_000).run(&module, &[]), Err(stopped.clone()));
            }
        }
    }
}
