//! The gateway's function database (paper §III-C: "the gateway maintains a
//! database of available functions per supported language").
//!
//! The store starts with the 25 built-in suite workloads and accepts user
//! uploads as CBScript source. Uploaded functions run on every language
//! path: the engine languages execute the script directly, and the emulated
//! managed runtimes derive the function's *logical* behaviour by
//! interpreting the script at dispatch cost 1 (pure semantics), then
//! applying the runtime profile.

use std::collections::HashMap;
use std::sync::Arc;

use confbench_crypto::bounded::OldestOut;
use confbench_crypto::flight::Flight;
use confbench_crypto::{Digest, Sha256};
use confbench_faasrt::{parse, run_program, Engine, FaasFunction, LaunchOutput};
use confbench_obs::MetricsRegistry;
use confbench_types::{Error, Language, Op, OpTrace};
use confbench_vmm::WalkMemo;
use confbench_workloads::{faas_registry, FaasWorkload};
use parking_lot::RwLock;

/// Upper bound on an uploaded script's size. Scripts in the paper's suite
/// are a few hundred bytes; 256 KiB leaves three orders of magnitude of
/// headroom while keeping a hostile upload from parking megabytes in the
/// store (the HTTP layer's 16 MiB body cap alone would allow that).
pub const MAX_SCRIPT_BYTES: usize = 256 * 1024;

/// A user-uploaded function: named CBScript source.
#[derive(Debug, Clone)]
pub struct UploadedFunction {
    name: String,
    script: String,
}

/// Step budget for uploaded scripts (tighter than the built-in suite's).
const UPLOAD_STEP_LIMIT: u64 = 100_000_000;

impl FaasFunction for UploadedFunction {
    fn name(&self) -> &str {
        &self.name
    }

    fn script(&self) -> &str {
        &self.script
    }

    fn run_native(&self, args: &[String], trace: &mut OpTrace) -> Result<String, String> {
        // Dispatch cost 1 = the function's pure semantics, which the
        // managed-runtime profiles then inflate.
        let program = parse(&self.script).map_err(|e| e.to_string())?;
        let outcome =
            run_program(&program, args, 1, UPLOAD_STEP_LIMIT).map_err(|e| e.to_string())?;
        trace.extend_from(&outcome.trace);
        Ok(outcome.result)
    }
}

/// A registered function: built-in or uploaded.
#[derive(Debug, Clone)]
pub enum StoredFunction {
    /// One of the 25 suite workloads.
    Builtin(FaasWorkload),
    /// User-uploaded CBScript.
    Uploaded(UploadedFunction),
}

impl FaasFunction for StoredFunction {
    fn name(&self) -> &str {
        match self {
            StoredFunction::Builtin(w) => w.name(),
            StoredFunction::Uploaded(u) => u.name(),
        }
    }

    fn script(&self) -> &str {
        match self {
            StoredFunction::Builtin(w) => w.script(),
            StoredFunction::Uploaded(u) => u.script(),
        }
    }

    fn run_native(&self, args: &[String], trace: &mut OpTrace) -> Result<String, String> {
        match self {
            StoredFunction::Builtin(w) => w.run_native(args, trace),
            StoredFunction::Uploaded(u) => u.run_native(args, trace),
        }
    }
}

/// Errors from store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A function with this name already exists.
    NameTaken(String),
    /// The uploaded script failed to parse.
    BadScript(String),
    /// The function name is empty (or whitespace-only).
    EmptyName,
    /// The uploaded script is empty.
    EmptyScript,
    /// The script exceeds [`MAX_SCRIPT_BYTES`].
    ScriptTooLarge(usize),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NameTaken(name) => write!(f, "function name already taken: {name}"),
            StoreError::BadScript(msg) => write!(f, "uploaded script rejected: {msg}"),
            StoreError::EmptyName => write!(f, "function name must not be empty"),
            StoreError::EmptyScript => write!(f, "uploaded script must not be empty"),
            StoreError::ScriptTooLarge(n) => {
                write!(f, "script of {n} bytes exceeds the {MAX_SCRIPT_BYTES}-byte limit")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<StoreError> for Error {
    /// Every store rejection is the uploader's fault: map to
    /// [`Error::InvalidRequest`] so the REST layer answers 400.
    fn from(e: StoreError) -> Self {
        Error::InvalidRequest(e.to_string())
    }
}

/// Bytes of launch outputs a store keeps ([`FunctionStore::launch`]).
/// Traces differ a hundredfold in size, so the bound is on bytes, not
/// entries; every launch of the paper's Fig. 6 matrix together is about
/// 1 MiB.
const LAUNCH_MEMO_BYTES: usize = 16 << 20;

/// Bytes of cache-walk edges a store keeps ([`FunctionStore::walk_memo`]),
/// at 40 a memory op: the paper's Fig. 6 matrix on one platform, bootstrap
/// and both recorded trials of every cell, is about 1.1 MB.
const WALK_MEMO_BYTES: usize = 16 << 20;

/// What identifies an engine execution: [`Engine::launch`] reads nothing
/// else (no platform, VM kind or seed), and a name's source never changes.
type LaunchKey = (String, Engine, Vec<String>);

/// A finished engine execution: the outputs of the engine's languages, in
/// [`Engine::languages`] order, or its failure rendered as text — which is
/// every one of those languages' failure. Failures are kept like outputs:
/// they are as pure, and the costliest launch there is is a runaway script
/// burning its whole step budget before it fails.
type Launched = Result<Arc<[Arc<LaunchOutput>]>, String>;

/// The memo under [`FunctionStore::launch`]: bounded by retained bytes
/// (oldest out), and single-flight — concurrent misses on one key execute
/// once, the rest wait for the leader and are served its result.
#[derive(Debug)]
struct LaunchMemo {
    flight: Flight<LaunchKey, OldestOut<LaunchKey, Launched>>,
}

impl LaunchMemo {
    fn new(bound: usize) -> Self {
        LaunchMemo { flight: Flight::new(OldestOut::new(bound)) }
    }

    /// The retained launch for `key`, or `launch()` — run outside the lock
    /// by exactly one of the threads that miss on `key` together. Counts
    /// `launch_cache_{hits,misses,evictions}_total` into `metrics`; a thread
    /// that waited for a leader counts as a hit.
    fn get_or_launch(
        &self,
        key: LaunchKey,
        metrics: &MetricsRegistry,
        launch: impl FnOnce() -> Result<Vec<LaunchOutput>, String>,
    ) -> Launched {
        let retained = |state: &OldestOut<LaunchKey, Launched>| state.get(&key).cloned();
        // Held to the end: a panic out of `launch` frees the key, and the
        // waiters are woken only after the entry is in.
        let _leader = match self.flight.join(&key, retained).0 {
            Ok(launched) => {
                metrics.counter("launch_cache_hits_total").inc();
                return launched;
            }
            Err(leader) => leader,
        };
        metrics.counter("launch_cache_misses_total").inc();

        let launched = launch().map(|outputs| {
            let shrunk = |mut output: LaunchOutput| {
                output.output.shrink_to_fit();
                output.log.shrink_to_fit();
                output.trace.shrink_to_fit();
                output.startup_trace.shrink_to_fit();
                Arc::new(output)
            };
            outputs.into_iter().map(shrunk).collect()
        });
        let bytes = retained_bytes(&key, &launched);
        // Larger than the whole bound: served, not retained.
        let evicted = self.flight.with(|state| state.insert(key.clone(), launched.clone(), bytes));
        metrics.counter("launch_cache_evictions_total").add(evicted);
        launched
    }

    /// Whether another thread is executing `name` × `engine` × `args`
    /// right now.
    fn in_flight(&self, name: &str, engine: Engine, args: &[String]) -> bool {
        self.flight.any_in_flight(|(n, e, a)| n == name && *e == engine && a == args)
    }
}

/// What retaining `launched` under `key` is charged: the heap behind the
/// output (exact after `shrink_to_fit`) and the key, which is held twice —
/// in the map and in the eviction order.
fn retained_bytes(key: &LaunchKey, launched: &Launched) -> usize {
    let (name, _, args) = key;
    let key_bytes =
        name.len() + args.iter().map(|a| a.len() + std::mem::size_of::<String>()).sum::<usize>();
    let value_bytes = match launched {
        Ok(outputs) => outputs
            .iter()
            .map(|out| {
                std::mem::size_of::<LaunchOutput>()
                    + out.output.len()
                    + out.log.len()
                    + (out.trace.len() + out.startup_trace.len()) * std::mem::size_of::<Op>()
            })
            .sum(),
        Err(text) => text.len(),
    };
    2 * key_bytes + value_bytes
}

/// The function database.
#[derive(Debug)]
pub struct FunctionStore {
    /// Each function beside the SHA-256 of its source, computed once when
    /// it enters the store (names are write-once, so it never goes stale).
    functions: RwLock<HashMap<String, (StoredFunction, Digest)>>,
    launches: LaunchMemo,
    walks: Arc<WalkMemo>,
}

impl Default for FunctionStore {
    fn default() -> Self {
        FunctionStore::new()
    }
}

impl FunctionStore {
    /// Creates a store pre-populated with the built-in suite.
    pub fn new() -> Self {
        let functions = faas_registry()
            .into_iter()
            .map(|w| {
                let fingerprint = Sha256::digest(w.script().as_bytes());
                (w.name().to_owned(), (StoredFunction::Builtin(w), fingerprint))
            })
            .collect();
        FunctionStore {
            functions: RwLock::new(functions),
            launches: LaunchMemo::new(LAUNCH_MEMO_BYTES),
            walks: Arc::new(WalkMemo::new(WALK_MEMO_BYTES)),
        }
    }

    /// Uploads a CBScript function (paper Fig. 2, step 1). The script is
    /// size-capped at [`MAX_SCRIPT_BYTES`] and parse-checked at upload time;
    /// names must be non-empty and unique.
    ///
    /// # Errors
    ///
    /// [`StoreError::EmptyName`] / [`StoreError::EmptyScript`] /
    /// [`StoreError::ScriptTooLarge`] / [`StoreError::BadScript`] /
    /// [`StoreError::NameTaken`] — all of which convert into a 400-mapped
    /// [`enum@Error`].
    pub fn upload(&self, name: &str, script: &str) -> Result<(), StoreError> {
        if name.trim().is_empty() {
            return Err(StoreError::EmptyName);
        }
        if script.is_empty() {
            return Err(StoreError::EmptyScript);
        }
        if script.len() > MAX_SCRIPT_BYTES {
            return Err(StoreError::ScriptTooLarge(script.len()));
        }
        parse(script).map_err(|e| StoreError::BadScript(e.to_string()))?;
        let mut functions = self.functions.write();
        if functions.contains_key(name) {
            return Err(StoreError::NameTaken(name.to_owned()));
        }
        functions.insert(
            name.to_owned(),
            (
                StoredFunction::Uploaded(UploadedFunction {
                    name: name.to_owned(),
                    script: script.to_owned(),
                }),
                Sha256::digest(script.as_bytes()),
            ),
        );
        Ok(())
    }

    /// Fetches a function by name.
    pub fn get(&self, name: &str) -> Option<StoredFunction> {
        self.functions.read().get(name).map(|(function, _)| function.clone())
    }

    /// SHA-256 of a function's source, as stored when it was registered.
    pub fn fingerprint(&self, name: &str) -> Option<Digest> {
        self.functions.read().get(name).map(|&(_, fingerprint)| fingerprint)
    }

    /// Launches `name` under `language`'s runtime with `args`, once per
    /// engine: a launch reads nothing but these three (no platform, VM kind
    /// or seed), a name's source never changes, and the languages of one
    /// [`Engine`] share one execution, so the outputs of all of them are
    /// computed by the first caller for any and shared by every later one —
    /// across the hosts of a gateway and the shards of a fleet, which all
    /// hold this store. Concurrent first callers execute once; a failing
    /// execution is remembered like a successful one, and is each of its
    /// languages' failure. Retained outputs are bounded in bytes, oldest
    /// out. Counts engine executions into the caller's `metrics`:
    /// `launch_cache_hits_total` / `_misses_total` / `_evictions_total`.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownFunction`] for an unregistered name (never
    /// remembered: the name may be uploaded later), [`Error::Workload`]
    /// with the launcher's message when the launch fails.
    pub fn launch(
        &self,
        name: &str,
        language: Language,
        args: &[String],
        metrics: &MetricsRegistry,
    ) -> Result<Arc<LaunchOutput>, Error> {
        let function = self.get(name).ok_or_else(|| Error::UnknownFunction(name.to_owned()))?;
        let engine = Engine::of(language);
        let key = (name.to_owned(), engine, args.to_vec());
        let outputs = self
            .launches
            .get_or_launch(key, metrics, || {
                engine.launch(&function, args).map_err(|e| e.to_string())
            })
            .map_err(Error::Workload)?;
        let at = engine.languages().iter().position(|&l| l == language);
        at.and_then(|at| outputs.get(at))
            .cloned()
            .ok_or_else(|| Error::Workload(format!("{engine:?} launched no {language}")))
    }

    /// Whether [`FunctionStore::launch`] of these three would park right
    /// now, behind another thread executing `language`'s engine on them.
    pub fn launch_in_flight(&self, name: &str, language: Language, args: &[String]) -> bool {
        self.launches.in_flight(name, Engine::of(language), args)
    }

    /// The cache-walk memo of every VM built for a host holding this store
    /// (what the hosts of a gateway and the shards of a fleet already share):
    /// neither a launch's traces nor the cache simulator read a seed, so one
    /// campaign's walks are the next one's.
    pub fn walk_memo(&self) -> &Arc<WalkMemo> {
        &self.walks
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.functions.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.functions.read().len()
    }

    /// Whether the store is empty (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.functions.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use confbench_faasrt::FunctionLauncher;

    use super::*;

    #[test]
    fn starts_with_the_builtin_suite() {
        let store = FunctionStore::new();
        assert_eq!(store.len(), 25);
        assert!(store.get("cpustress").is_some());
        assert!(store.get("nope").is_none());
    }

    #[test]
    fn upload_and_run_across_languages() {
        let store = FunctionStore::new();
        store.upload("triple", "result(int(ARGS[0]) * 3);").unwrap();
        let f = store.get("triple").unwrap();
        for language in Language::ALL {
            let out = FunctionLauncher::new(language).launch(&f, &["14".into()]).unwrap();
            assert_eq!(out.output, "42", "{language}");
        }
    }

    #[test]
    fn bad_script_rejected_at_upload() {
        let store = FunctionStore::new();
        let err = store.upload("broken", "let = nonsense").unwrap_err();
        assert!(matches!(err, StoreError::BadScript(_)));
        assert!(store.get("broken").is_none());
    }

    #[test]
    fn duplicate_names_rejected() {
        let store = FunctionStore::new();
        assert_eq!(
            store.upload("cpustress", "result(1);"),
            Err(StoreError::NameTaken("cpustress".into()))
        );
        store.upload("mine", "result(1);").unwrap();
        assert_eq!(store.upload("mine", "result(2);"), Err(StoreError::NameTaken("mine".into())));
    }

    #[test]
    fn names_are_sorted_and_complete() {
        let store = FunctionStore::new();
        store.upload("aaa_first", "result(0);").unwrap();
        let names = store.names();
        assert_eq!(names.len(), 26);
        assert_eq!(names[0], "aaa_first");
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn empty_name_and_script_rejected() {
        let store = FunctionStore::new();
        assert_eq!(store.upload("", "result(1);"), Err(StoreError::EmptyName));
        assert_eq!(store.upload("   ", "result(1);"), Err(StoreError::EmptyName));
        assert_eq!(store.upload("hollow", ""), Err(StoreError::EmptyScript));
        assert!(store.get("hollow").is_none());
    }

    #[test]
    fn oversized_script_rejected() {
        let store = FunctionStore::new();
        // A syntactically valid script padded past the limit with comments.
        let padding = "#".repeat(MAX_SCRIPT_BYTES);
        let script = format!("result(1);\n{padding}");
        let err = store.upload("huge", &script).unwrap_err();
        assert_eq!(err, StoreError::ScriptTooLarge(script.len()));
        assert!(store.get("huge").is_none());
        // At exactly the limit the upload goes through.
        let at_limit = format!("result(1);{}", " ".repeat(MAX_SCRIPT_BYTES - "result(1);".len()));
        assert_eq!(at_limit.len(), MAX_SCRIPT_BYTES);
        store.upload("at_limit", &at_limit).unwrap();
    }

    #[test]
    fn store_errors_map_to_400() {
        for e in [
            StoreError::NameTaken("fib".into()),
            StoreError::BadScript("boom".into()),
            StoreError::EmptyName,
            StoreError::EmptyScript,
            StoreError::ScriptTooLarge(MAX_SCRIPT_BYTES + 1),
        ] {
            let mapped: Error = e.into();
            assert_eq!(mapped.rest_status(), 400);
        }
    }

    #[test]
    fn fingerprints_are_the_sha256_of_the_source() {
        let store = FunctionStore::new();
        store.upload("mine", "result(7);").unwrap();
        for name in ["cpustress", "mine"] {
            let script = store.get(name).unwrap().script().to_owned();
            assert_eq!(store.fingerprint(name), Some(Sha256::digest(script.as_bytes())), "{name}");
        }
        assert_eq!(store.fingerprint("mine"), Some(Sha256::digest(b"result(7);")));
        assert_eq!(store.fingerprint("nope"), None);
    }

    fn counters(metrics: &MetricsRegistry) -> [u64; 3] {
        ["hits", "misses", "evictions"]
            .map(|c| metrics.counter_value(&format!("launch_cache_{c}_total")).unwrap_or(0))
    }

    #[test]
    fn launches_once_per_name_language_and_arguments() {
        let (store, metrics) = (FunctionStore::new(), MetricsRegistry::new());
        let launch = |language, arg: &str| {
            store.launch("factors", language, &[arg.to_owned()], &metrics).unwrap()
        };
        let first = launch(Language::Go, "360360");
        assert!(Arc::ptr_eq(&first, &launch(Language::Go, "360360")), "the second is the first");
        assert_eq!(counters(&metrics), [1, 1, 0]);
        // Another engine or another argument is another launch.
        assert_eq!(launch(Language::Lua, "360360").output, first.output);
        assert_ne!(launch(Language::Go, "1001").output, first.output);
        assert_eq!(counters(&metrics), [1, 3, 0]);
        // Another language of the same engine shares its execution.
        let (node, wasm) = (launch(Language::Node, "360360"), launch(Language::Wasm, "360360"));
        assert_eq!(counters(&metrics), [2, 4, 0]);
        assert_eq!(launch(Language::LuaJit, "360360").output, wasm.output);
        assert_eq!(counters(&metrics), [3, 4, 0]);
        let function = store.get("factors").unwrap();
        for (language, out) in
            [(Language::Go, first), (Language::Node, node), (Language::Wasm, wasm)]
        {
            let direct = FunctionLauncher::new(language).launch(&function, &["360360".to_owned()]);
            assert_eq!(*out, direct.unwrap(), "{language}: what the launcher itself returns");
        }
    }

    /// The ledger's quick-scale Fig. 6 arguments, a tenth of the paper's
    /// work (`QUICK_ARGS` in `benchmark/src/spec.rs`).
    const QUICK_ARGS: [(&str, &[&str]); 25] = [
        ("cpustress", &["8000"]),
        ("memstress", &["6"]),
        ("iostress", &["2"]),
        ("logging", &["150"]),
        ("factors", &["360360"]),
        ("filesystem", &["1"]),
        ("ack", &["4", "16"]),
        ("fib", &["13"]),
        ("primes", &["4000"]),
        ("matrix", &["12"]),
        ("quicksort", &["600"]),
        ("mergesort", &["600"]),
        ("base64", &["1500"]),
        ("json", &["40"]),
        ("checksum", &["4000"]),
        ("compress", &["4000"]),
        ("mandelbrot", &["20"]),
        ("nbody", &["200"]),
        ("binarytrees", &["9"]),
        ("spectralnorm", &["20", "2"]),
        ("dijkstra", &["10"]),
        ("wordcount", &["4000"]),
        ("histogram", &["4000"]),
        ("montecarlo", &["3000"]),
        ("strings", &["400"]),
    ];

    /// SHA-256 over the `Debug` renderings of every launch below, one a
    /// line, as `FunctionLauncher::launch` returned them when each language
    /// still executed on its own.
    const LAUNCH_ORACLE_DIGEST: &str =
        "7bac43f3bba4974f1c7d1e33f3851ef2e19b35ba14d776697b38812a9f9931a6";

    /// The launch oracle: for every registry workload × language ×
    /// {registry default arguments, the ledger's quick ones}, what the
    /// store serves is, byte for byte in its `Debug` rendering, what the
    /// language's own launcher returns — and that is pinned. Executions
    /// are counted per engine: three a function and argument row.
    #[test]
    fn every_registry_launch_equals_the_launchers_and_is_pinned() {
        let (store, metrics) = (FunctionStore::new(), MetricsRegistry::new());
        let mut rows = Vec::new();
        for workload in faas_registry() {
            let quick = QUICK_ARGS.iter().find(|(name, _)| *name == workload.name()).unwrap();
            let quick = quick.1.iter().map(|a| (*a).to_owned()).collect();
            rows.push((workload.clone(), workload.default_args()));
            rows.push((workload, quick));
        }
        let mut rendered = String::new();
        for (workload, args) in &rows {
            for language in Language::ALL {
                let stored = store.launch(workload.name(), language, args, &metrics).unwrap();
                let direct = FunctionLauncher::new(language).launch(workload, args).unwrap();
                let text = format!("{direct:?}");
                assert_eq!(format!("{stored:?}"), text, "{} {language} {args:?}", workload.name());
                rendered.push_str(&text);
                rendered.push('\n');
            }
        }
        assert_eq!(Sha256::digest(rendered.as_bytes()).to_string(), LAUNCH_ORACLE_DIGEST);
        let executions = 3 * rows.len() as u64;
        assert_eq!(counters(&metrics), [7 * rows.len() as u64 - executions, executions, 0]);
    }

    /// LuaJIT and Wasm share one execution, so a failing one is both
    /// languages' failure, whichever asks first, in the text each one's own
    /// launcher gives.
    #[test]
    fn a_stack_vm_failure_is_both_languages_failure_whichever_asks_first() {
        for first in [Language::LuaJit, Language::Wasm] {
            let (store, metrics) = (FunctionStore::new(), MetricsRegistry::new());
            store.upload("bomb", "fn f(n) { return f(n + 1); } result(f(0));").unwrap();
            store.upload("div", "let s = 0; for i in 0, 9 { s = s + i; } result(s / 0);").unwrap();
            let second = if first == Language::LuaJit { Language::Wasm } else { Language::LuaJit };
            for name in ["bomb", "div"] {
                for language in [first, second] {
                    let direct =
                        FunctionLauncher::new(language).launch(&store.get(name).unwrap(), &[]);
                    let direct = direct.unwrap_err().to_string();
                    match store.launch(name, language, &[], &metrics) {
                        Err(Error::Workload(text)) => assert_eq!(text, direct, "{name} {language}"),
                        other => panic!("{name} {language}: {other:?}"),
                    }
                }
            }
            assert_eq!(counters(&metrics), [2, 2, 0], "{first} first");
        }
    }

    #[test]
    fn unknown_names_are_never_remembered() {
        let (store, metrics) = (FunctionStore::new(), MetricsRegistry::new());
        let unknown = store.launch("later", Language::Lua, &[], &metrics).unwrap_err();
        assert!(matches!(unknown, Error::UnknownFunction(name) if name == "later"));
        assert_eq!(counters(&metrics), [0, 0, 0], "an unknown name is not a lookup");
        store.upload("later", "result(1);").unwrap();
        assert_eq!(store.launch("later", Language::Lua, &[], &metrics).unwrap().output, "1");
    }

    /// A launch output charged exactly `ops` trace entries beyond its fixed
    /// size.
    fn output_of(ops: usize) -> LaunchOutput {
        LaunchOutput {
            output: String::new(),
            log: String::new(),
            trace: (0..ops).map(|_| Op::Cpu(1)).collect(),
            startup_trace: OpTrace::new(),
        }
    }

    fn key(name: &str) -> LaunchKey {
        (name.to_owned(), Engine::Native, Vec::new())
    }

    #[test]
    fn four_threads_missing_on_one_key_launch_once() {
        let (memo, metrics) = (LaunchMemo::new(1 << 20), MetricsRegistry::new());
        let launches = std::sync::atomic::AtomicUsize::new(0);
        let start = std::sync::Barrier::new(4);
        let outputs: Vec<Launched> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        memo.get_or_launch(key("f"), &metrics, || {
                            launches.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            // Long enough for the others to arrive and park.
                            for _ in 0..1_000 {
                                std::thread::yield_now();
                            }
                            Ok(vec![output_of(3)])
                        })
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(launches.into_inner(), 1);
        assert_eq!(counters(&metrics), [3, 1, 0], "the three that waited count as hits");
        let first = outputs[0].as_ref().unwrap();
        assert!(outputs.iter().all(|o| Arc::ptr_eq(o.as_ref().unwrap(), first)));
        assert_eq!(first.len(), 1);
    }

    /// A key is in flight exactly while its leader launches: before, during
    /// and after, as a step asking whether to pass over a cell sees it.
    #[test]
    fn a_key_is_in_flight_only_while_it_launches() {
        let (memo, metrics) = (LaunchMemo::new(1 << 20), MetricsRegistry::new());
        let (started, release) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
        let in_flight = |name: &str, engine| memo.in_flight(name, engine, &[]);
        assert!(!in_flight("f", Engine::Native));
        std::thread::scope(|scope| {
            let launching = scope.spawn(|| {
                memo.get_or_launch(key("f"), &metrics, || {
                    started.wait();
                    release.wait();
                    Ok(vec![output_of(1)])
                })
            });
            started.wait();
            assert!(in_flight("f", Engine::Native));
            assert!(!in_flight("g", Engine::Native) && !in_flight("f", Engine::TreeWalk));
            release.wait();
            assert!(launching.join().unwrap().is_ok());
        });
        assert!(!in_flight("f", Engine::Native), "landed: a join would hit, not park");
    }

    #[test]
    fn a_panicking_launch_frees_its_key() {
        let (memo, metrics) = (LaunchMemo::new(1 << 20), MetricsRegistry::new());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_launch(key("f"), &metrics, || panic!("launcher bug"))
        }));
        assert!(panicked.is_err());
        // Not parked behind a leader that will never land.
        assert!(memo.get_or_launch(key("f"), &metrics, || Ok(vec![output_of(1)])).is_ok());
    }

    #[test]
    fn retained_bytes_stay_under_the_bound_oldest_out() {
        let entry = retained_bytes(&key("f00"), &Ok(Arc::new([Arc::new(output_of(10))])));
        // Room for four such entries, not five.
        let (memo, metrics) = (LaunchMemo::new(4 * entry + entry / 2), MetricsRegistry::new());
        let launch =
            |name: &str, ops| memo.get_or_launch(key(name), &metrics, || Ok(vec![output_of(ops)]));
        for i in 0..20 {
            launch(&format!("f{i:02}"), 10).unwrap();
        }
        assert_eq!(counters(&metrics), [0, 20, 16]);
        launch("f19", 10).unwrap();
        launch("f16", 10).unwrap();
        assert_eq!(counters(&metrics), [2, 20, 16], "the newest four are the ones kept");
        launch("f15", 10).unwrap();
        assert_eq!(counters(&metrics), [2, 21, 17], "f15 was evicted, and evicts f16 in turn");

        // Larger than the whole bound: served, nothing evicted for it, and
        // launched again the next time.
        let huge = launch("huge", 10_000).unwrap();
        assert_eq!(huge[0].trace.len(), 10_000);
        launch("huge", 10_000).unwrap();
        assert_eq!(counters(&metrics), [2, 23, 17]);
        launch("f15", 10).unwrap();
        assert_eq!(counters(&metrics), [3, 23, 17], "what was kept still is");
    }

    #[test]
    fn retained_outputs_keep_no_spare_capacity() {
        let (memo, metrics) = (LaunchMemo::new(1 << 20), MetricsRegistry::new());
        let mut roomy = output_of(3);
        roomy.output = String::with_capacity(4096);
        roomy.output.push('7');
        let kept = memo.get_or_launch(key("f"), &metrics, || Ok(vec![roomy])).unwrap();
        let capacity = kept[0].output.capacity();
        assert!(capacity < 4096, "kept {capacity} bytes for one");
    }

    #[test]
    fn uploaded_function_traces_io_builtins() {
        let store = FunctionStore::new();
        store.upload("writer", "io_write(4096); result(1);").unwrap();
        let f = store.get("writer").unwrap();
        let out = FunctionLauncher::new(Language::Go).launch(&f, &[]).unwrap();
        assert_eq!(out.trace.total_io_bytes(), 4096);
    }
}
