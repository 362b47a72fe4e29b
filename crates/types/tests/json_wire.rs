//! The JSON wire format of the wire types.
//!
//! * Pinned bytes: four values whose encoding is fixed here as literals, so
//!   an ordering or escaping slip fails a unit test rather than only the
//!   ledger's digests.
//! * `wire_errors_are_pinned`: what `serde_json::from_str` answers for a
//!   table of ill-typed and malformed inputs, error text included.
//! * `fuzz_sweep_json_stream_equals_tree`: the one typed decoder against
//!   itself, over random values and mutants of their encodings: text the
//!   `Value` grammar rejects fails with that syntax error, and any other
//!   reads as its tree's canonical text reads.

use std::collections::BTreeMap;
use std::fmt::Debug;

use confbench_crypto::fuzz::{sweep_iters, Mutator};
use confbench_crypto::SplitMix64;
use confbench_types::{
    CampaignCell, CampaignFunction, CampaignId, CampaignReceipt, CampaignSpec, CampaignState,
    CampaignStatus, CellSummary, Cycles, DeviceKind, FunctionSpec, JobId, JobState, JobStatus,
    Language, Op, PerfReport, Priority, RunRequest, RunResult, SyscallKind, TeePlatform, TraceSpan,
    TrialStats, VmKind, VmTarget,
};
use serde::de::DeserializeOwned;
use serde::json::{self, Reader, MAX_DEPTH};
use serde::{Deserialize, Number, Serialize, Value};

// ---------------------------------------------------------------------------
// Pinned bytes
// ---------------------------------------------------------------------------

fn traced_run_result() -> RunResult {
    let mut root = TraceSpan::new("gateway.run", 3);
    root.end_ms = 19;
    root.set_attr("trials", 3);
    let mut host = TraceSpan::new("host.execute", 4);
    host.end_ms = 18;
    host.set_attr("tdx.seamcall", 42);
    host.set_attr("swiotlb.copy", 8192);
    let mut vm = TraceSpan::new("vm \"secure\"\tpath", 5);
    vm.end_ms = 17;
    vm.set_attr("count", u64::MAX);
    host.children.push(vm);
    root.children.push(host);
    root.children.push(TraceSpan::new("attest.verify", 18));
    RunResult {
        function: "cpustress".into(),
        language: Language::LuaJit,
        target: VmTarget::secure(TeePlatform::SevSnp),
        trial_ms: vec![1.25, 0.1, 3.0, 1e-7, 123456.789],
        trial_cycles: vec![Cycles::new(2_500_000), Cycles::new(0), Cycles::new(u64::MAX)],
        stats: TrialStats {
            mean_ms: 0.1 + 0.2,
            min_ms: 1e-7,
            max_ms: 123456.789,
            stddev_ms: 2.0 / 3.0,
        },
        perf: PerfReport {
            instructions: 1_000_003,
            cycles: 2_500_000,
            cache_references: 9_000,
            cache_misses: 77,
            vm_exits: 42,
            page_faults: 3,
            bounce_bytes: 8192,
            from_hw_counters: true,
        },
        output: "111\n\"quoted\" back\\slash \u{1}ctl caf\u{e9} \u{1F980}".into(),
        trace: Some(root),
    }
}

fn bare_run_request() -> RunRequest {
    RunRequest {
        function: FunctionSpec::new("fib", Language::Go).arg("27").arg(""),
        target: VmTarget::normal(TeePlatform::Cca),
        trials: 10,
        seed: 13,
        deadline_ms: None,
        attest_session: None,
        device: None,
    }
}

/// A spec written with every defaulted field left out.
const SPARSE_CAMPAIGN_SPEC: &str = r#"{"functions":[{"name":"fib","args":["20"]},{"name":"iostress"}],"languages":["go","wasm"],"platforms":["tdx","sev-snp"]}"#;

fn sparse_campaign_spec() -> CampaignSpec {
    CampaignSpec {
        functions: vec![CampaignFunction::new("fib").arg("20"), CampaignFunction::new("iostress")],
        languages: vec![Language::Go, Language::Wasm],
        platforms: vec![TeePlatform::Tdx, TeePlatform::SevSnp],
        modes: vec![VmKind::Secure, VmKind::Normal],
        trials: 10,
        seed: 0,
        priority: Priority::Normal,
        deadline_ms: None,
        device: None,
    }
}

fn three_cell_status() -> CampaignStatus {
    let cell = |i: usize, kind: VmKind, device: Option<DeviceKind>| CellSummary {
        job: JobId(format!("c7-{i}")),
        cell: CampaignCell {
            function: CampaignFunction::new("collatz").arg("27"),
            language: Language::Python,
            platform: TeePlatform::Tdx,
            kind,
            trials: 10,
            seed: 0x9E37_79B9_7F4A_7C15 ^ i as u64,
            device,
        },
        mean_ms: 4.5 + i as f64 / 3.0,
        median_ms: 4.25,
        min_ms: 4.0,
        max_ms: 5.5,
        stddev_ms: 0.125 * i as f64,
        output: "111".into(),
        from_cache: i == 2,
        cache_key: format!("{:064x}", 0xABCD_u64 * (i as u64 + 1)),
    };
    CampaignStatus {
        id: CampaignId("c7".into()),
        state: CampaignState::Active,
        total_jobs: 4,
        queued: 1,
        running: 0,
        completed: 3,
        failed: 0,
        cancelled: 0,
        expired: 0,
        cache_hits: 1,
        cells: vec![
            cell(0, VmKind::Secure, None),
            cell(1, VmKind::Normal, Some(DeviceKind::Gpu)),
            cell(2, VmKind::Secure, None),
        ],
    }
}

const TRACED_RUN_RESULT: &str = r#"{"function":"cpustress","language":"luajit","output":"111\n\"quoted\" back\\slash \u0001ctl café 🦀","perf":{"bounce_bytes":8192,"cache_misses":77,"cache_references":9000,"cycles":2500000,"from_hw_counters":true,"instructions":1000003,"page_faults":3,"vm_exits":42},"stats":{"max_ms":123456.789,"mean_ms":0.30000000000000004,"min_ms":0.0000001,"stddev_ms":0.6666666666666666},"target":{"kind":"secure","platform":"sev-snp"},"trace":{"attrs":{"trials":3},"children":[{"attrs":{"swiotlb.copy":8192,"tdx.seamcall":42},"children":[{"attrs":{"count":18446744073709551615},"children":[],"end_ms":17,"name":"vm \"secure\"\tpath","start_ms":5}],"end_ms":18,"name":"host.execute","start_ms":4},{"attrs":{},"children":[],"end_ms":18,"name":"attest.verify","start_ms":18}],"end_ms":19,"name":"gateway.run","start_ms":3},"trial_cycles":[2500000,0,18446744073709551615],"trial_ms":[1.25,0.1,3,0.0000001,123456.789]}"#;

const BARE_RUN_REQUEST: &str = r#"{"attest_session":null,"deadline_ms":null,"device":null,"function":{"args":["27",""],"language":"go","name":"fib"},"seed":13,"target":{"kind":"normal","platform":"cca"},"trials":10}"#;

const CAMPAIGN_SPEC: &str = r#"{"deadline_ms":null,"device":null,"functions":[{"args":["20"],"name":"fib"},{"args":[],"name":"iostress"}],"languages":["go","wasm"],"modes":["secure","normal"],"platforms":["tdx","sev-snp"],"priority":"normal","seed":0,"trials":10}"#;

const THREE_CELL_STATUS: &str = r#"{"cache_hits":1,"cancelled":0,"cells":[{"cache_key":"000000000000000000000000000000000000000000000000000000000000abcd","cell":{"device":null,"function":{"args":["27"],"name":"collatz"},"kind":"secure","language":"python","platform":"tdx","seed":11400714819323198485,"trials":10},"from_cache":false,"job":"c7-0","max_ms":5.5,"mean_ms":4.5,"median_ms":4.25,"min_ms":4,"output":"111","stddev_ms":0},{"cache_key":"000000000000000000000000000000000000000000000000000000000001579a","cell":{"device":"gpu","function":{"args":["27"],"name":"collatz"},"kind":"normal","language":"python","platform":"tdx","seed":11400714819323198484,"trials":10},"from_cache":false,"job":"c7-1","max_ms":5.5,"mean_ms":4.833333333333333,"median_ms":4.25,"min_ms":4,"output":"111","stddev_ms":0.125},{"cache_key":"0000000000000000000000000000000000000000000000000000000000020367","cell":{"device":null,"function":{"args":["27"],"name":"collatz"},"kind":"secure","language":"python","platform":"tdx","seed":11400714819323198487,"trials":10},"from_cache":true,"job":"c7-2","max_ms":5.5,"mean_ms":5.166666666666667,"median_ms":4.25,"min_ms":4,"output":"111","stddev_ms":0.25}],"completed":3,"expired":0,"failed":0,"id":"c7","queued":1,"running":0,"state":"active","total_jobs":4}"#;

/// `value` encodes to exactly `wire`, and `wire` decodes back to `value`.
fn assert_pinned<T: Serialize + DeserializeOwned + PartialEq + Debug>(value: &T, wire: &str) {
    assert_eq!(serde_json::to_string(value).unwrap(), wire);
    let streamed = Reader::new(wire).document(|r| T::from_json(r, 0));
    assert_eq!(streamed.as_ref(), Ok(value));
    assert_eq!(&serde_json::from_str::<T>(wire).unwrap(), value);
}

#[test]
fn wire_bytes_are_pinned() {
    assert_pinned(&traced_run_result(), TRACED_RUN_RESULT);
    assert_pinned(&bare_run_request(), BARE_RUN_REQUEST);
    assert_pinned(&sparse_campaign_spec(), CAMPAIGN_SPEC);
    assert_pinned(&three_cell_status(), THREE_CELL_STATUS);
    let sparse: CampaignSpec = serde_json::from_str(SPARSE_CAMPAIGN_SPEC).unwrap();
    assert_eq!(sparse, sparse_campaign_spec());
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct S {
    a: u32,
    b: String,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum E {
    Unit,
    Named { name: String },
    List(Vec<u8>),
}

/// What `from_str` answers for `text`: `Ok(<Debug>)` or the error text.
fn answer<T: DeserializeOwned + Debug>(text: &str) -> String {
    match serde_json::from_str::<T>(text) {
        Ok(v) => format!("Ok({v:?})"),
        Err(e) => e.to_string(),
    }
}

/// A syntax error anywhere wins over a type error; a struct answers its
/// first failing or missing field in declaration order, each key judged by
/// its last copy; an enum object must hold one distinct key; a sequence
/// answers its first failing element, a map its first failing key in byte
/// order.
#[test]
fn wire_errors_are_pinned() {
    let table = [
        (answer::<S>(r#""x""#), "expected object (S), found string"),
        (answer::<S>(r#"{"b": 7}"#), "missing field `a` in S"),
        (answer::<S>(r#"{"a": "x", "b": "y", "a": 1}"#), r#"Ok(S { a: 1, b: "y" })"#),
        (answer::<S>(r#"{"a": "x", "b": tru}"#), "invalid literal (expected `true`) at byte 16"),
        (answer::<E>(r#"{"unit": 1, "list": []}"#), "expected E variant, found object"),
        (answer::<E>(r#"{"list": [1], "list": [2]}"#), "Ok(List([2]))"),
        (answer::<E>("{}"), "expected E variant, found object"),
        (answer::<S>(r#"{"a": "x", "b": 7}"#), "expected unsigned integer, found string"),
        (answer::<Vec<u8>>(r#"[1, 300, "x"]"#), "integer 300 out of range for u8"),
        // One mutant of the sweep holds one mutation, so no mutant fails two
        // keys of one map: the key order is pinned here.
        (
            answer::<BTreeMap<String, u8>>(r#"{"b": "x", "a": 300}"#),
            "integer 300 out of range for u8",
        ),
    ];
    for (got, want) in table {
        assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------------
// The decoder against itself
// ---------------------------------------------------------------------------

/// Random values of the wire types, biased toward the edges of each field:
/// integers near 0 and near `u64::MAX`, floats that print with and without
/// a fraction, strings that need escaping.
struct Gen(SplitMix64);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_below(n)
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 0
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }

    fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => self.below(10),
            1 => self.below(1 << 20),
            2 => self.0.next_u64(),
            _ => u64::MAX - self.below(3),
        }
    }

    fn u32(&mut self) -> u32 {
        self.u64() as u32
    }

    fn usize(&mut self) -> usize {
        self.below(1 << 16) as usize
    }

    fn f64(&mut self) -> f64 {
        match self.below(5) {
            0 => self.below(1000) as f64,
            1 => self.0.next_f64() * 1000.0,
            2 => self.0.next_f64() * 1e-9,
            3 => (self.0.next_f64() - 0.5) * 1e22,
            _ => self.0.next_gaussian(),
        }
    }

    fn string(&mut self) -> String {
        const CHARS: &str = "aZ0 -\"\\\n\t\u{1}\u{1f}/é\u{7f}\u{2028}\u{1F980}";
        let n = CHARS.chars().count() as u64;
        (0..self.below(12))
            .map(|_| CHARS.chars().nth(self.below(n) as usize).expect("in range"))
            .collect()
    }

    fn strings(&mut self) -> Vec<String> {
        (0..self.below(4)).map(|_| self.string()).collect()
    }

    fn maybe<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.coin() {
            Some(f(self))
        } else {
            None
        }
    }

    fn language(&mut self) -> Language {
        self.pick(&Language::ALL)
    }

    fn platform(&mut self) -> TeePlatform {
        self.pick(&[TeePlatform::Tdx, TeePlatform::SevSnp, TeePlatform::Cca])
    }

    fn kind(&mut self) -> VmKind {
        self.pick(&[VmKind::Secure, VmKind::Normal])
    }

    fn target(&mut self) -> VmTarget {
        VmTarget { platform: self.platform(), kind: self.kind() }
    }

    fn trace(&mut self, levels: u32) -> TraceSpan {
        let mut span = TraceSpan::new(self.string(), self.u64());
        span.end_ms = self.u64();
        for _ in 0..self.below(3) {
            let key = self.string();
            span.attrs.insert(key, self.u64());
        }
        if levels > 0 {
            span.children = (0..self.below(3)).map(|_| self.trace(levels - 1)).collect();
        }
        span
    }

    fn run_request(&mut self) -> RunRequest {
        RunRequest {
            function: FunctionSpec {
                name: self.string(),
                language: self.language(),
                args: self.strings(),
            },
            target: self.target(),
            trials: self.u32(),
            seed: self.u64(),
            deadline_ms: self.maybe(Gen::u64),
            attest_session: self.maybe(Gen::string),
            device: self.maybe(|_| DeviceKind::Gpu),
        }
    }

    fn run_result(&mut self) -> RunResult {
        RunResult {
            function: self.string(),
            language: self.language(),
            target: self.target(),
            trial_ms: (0..self.below(4)).map(|_| self.f64()).collect(),
            trial_cycles: (0..self.below(4)).map(|_| Cycles::new(self.u64())).collect(),
            stats: TrialStats {
                mean_ms: self.f64(),
                min_ms: self.f64(),
                max_ms: self.f64(),
                stddev_ms: self.f64(),
            },
            perf: PerfReport {
                instructions: self.u64(),
                cycles: self.u64(),
                cache_references: self.u64(),
                cache_misses: self.u64(),
                vm_exits: self.u64(),
                page_faults: self.u64(),
                bounce_bytes: self.u64(),
                from_hw_counters: self.coin(),
            },
            output: self.string(),
            trace: Some(self.trace(2)),
        }
    }

    fn function(&mut self) -> CampaignFunction {
        CampaignFunction { name: self.string(), args: self.strings() }
    }

    fn campaign_spec(&mut self) -> CampaignSpec {
        CampaignSpec {
            functions: (0..self.below(3)).map(|_| self.function()).collect(),
            languages: (0..self.below(3)).map(|_| self.language()).collect(),
            platforms: (0..self.below(3)).map(|_| self.platform()).collect(),
            modes: (0..self.below(3)).map(|_| self.kind()).collect(),
            trials: self.u32(),
            seed: self.u64(),
            priority: self.pick(&Priority::DESCENDING),
            deadline_ms: self.maybe(Gen::u64),
            device: self.maybe(|_| DeviceKind::Gpu),
        }
    }

    fn cell(&mut self) -> CampaignCell {
        CampaignCell {
            function: self.function(),
            language: self.language(),
            platform: self.platform(),
            kind: self.kind(),
            trials: self.u32(),
            seed: self.u64(),
            device: self.maybe(|_| DeviceKind::Gpu),
        }
    }

    fn summary(&mut self) -> CellSummary {
        CellSummary {
            job: JobId(self.string()),
            cell: self.cell(),
            mean_ms: self.f64(),
            median_ms: self.f64(),
            min_ms: self.f64(),
            max_ms: self.f64(),
            stddev_ms: self.f64(),
            output: self.string(),
            from_cache: self.coin(),
            cache_key: self.string(),
        }
    }

    fn campaign_status(&mut self) -> CampaignStatus {
        CampaignStatus {
            id: CampaignId(self.string()),
            state: self.pick(&[
                CampaignState::Active,
                CampaignState::Completed,
                CampaignState::Cancelled,
            ]),
            total_jobs: self.usize(),
            queued: self.usize(),
            running: self.usize(),
            completed: self.usize(),
            failed: self.usize(),
            cancelled: self.usize(),
            expired: self.usize(),
            cache_hits: self.usize(),
            cells: (0..self.below(4)).map(|_| self.summary()).collect(),
        }
    }

    fn job_status(&mut self) -> JobStatus {
        JobStatus {
            id: JobId(self.string()),
            campaign: CampaignId(self.string()),
            state: self.pick(&[
                JobState::Queued,
                JobState::Running,
                JobState::Completed,
                JobState::Failed,
                JobState::Cancelled,
                JobState::Expired,
            ]),
            cell: self.cell(),
            summary: self.maybe(Gen::summary),
            error: self.maybe(Gen::string),
            trace: self.maybe(|g| g.trace(1)),
        }
    }

    /// Every shape of an externally tagged variant: newtype and struct.
    fn op(&mut self) -> Op {
        let n = self.u64();
        match self.below(6) {
            0 => Op::Cpu(n),
            1 => Op::DevDmaOut(n),
            2 => Op::MemRead { addr: n, bytes: self.u64() },
            3 => Op::MemWrite { addr: n, bytes: self.u64() },
            4 => Op::Syscall { kind: self.pick(&SyscallKind::ALL), count: n },
            _ => Op::PageCycle(n),
        }
    }

    fn receipt(&mut self) -> CampaignReceipt {
        CampaignReceipt { id: CampaignId(self.string()), jobs: self.usize() }
    }
}

/// Member values a mutant splices in: every JSON kind, well- and ill-typed
/// for the fields around them.
const JUNK: [&str; 12] = [
    "null",
    "true",
    "0",
    "-1",
    "1.5",
    "18446744073709551616",
    "\"x\"",
    "\"secure\"",
    "[]",
    "[1,2]",
    "{}",
    "{\"name\":\"f\"}",
];

#[derive(Clone, Copy, PartialEq)]
enum Mutation {
    /// A second copy of a member, before or after the first, holding the
    /// same value or junk.
    DuplicateMember,
    /// A member no type declares.
    UnknownMember,
    /// A member left out.
    MissingMember,
    /// A key whose first character is written as `\u00XX`.
    EscapedKey,
    /// An integer written as `N.0`, `Ne0` or `N.5`.
    IntegerAsFloat,
    /// An unknown member nested so its innermost value sits exactly at
    /// [`MAX_DEPTH`], or one deeper.
    Nesting,
}

/// Writes a value tree back to text with one [`Mutation`] applied at the
/// `target`-th node (pre-order) and, optionally, whitespace between tokens.
struct Emitter<'g> {
    gen: &'g mut Gen,
    mutation: Mutation,
    target: usize,
    seen: usize,
    whitespace: bool,
}

impl Emitter<'_> {
    fn ws(&mut self, out: &mut String) {
        if self.whitespace && self.gen.below(3) == 0 {
            out.push(self.gen.pick(&[' ', '\t', '\n', '\r']));
        }
    }

    fn junk(&mut self) -> String {
        self.gen.pick(&JUNK).to_owned()
    }

    fn value(&mut self, v: &Value, depth: usize, out: &mut String) {
        let here = self.seen == self.target;
        self.seen += 1;
        match v {
            Value::Object(m) => {
                let mut members: Vec<(String, String)> = Vec::new();
                for (k, item) in m {
                    let mut key = String::new();
                    json::write_str(&mut key, k);
                    let mut text = String::new();
                    self.value(item, depth + 1, &mut text);
                    members.push((key, text));
                }
                if here {
                    self.mutate_object(&mut members, depth);
                }
                out.push('{');
                for (i, (key, text)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out);
                    out.push_str(key);
                    self.ws(out);
                    out.push(':');
                    self.ws(out);
                    out.push_str(text);
                    self.ws(out);
                }
                out.push('}');
            }
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.ws(out);
                    self.value(item, depth + 1, out);
                    self.ws(out);
                }
                out.push(']');
            }
            Value::Number(n @ (Number::PosInt(_) | Number::NegInt(_)))
                if here && self.mutation == Mutation::IntegerAsFloat =>
            {
                json::write_number(out, n);
                out.push_str(self.gen.pick(&[".0", "e0", "E+0", ".5"]));
            }
            other => json::write_value(out, other),
        }
    }

    fn mutate_object(&mut self, members: &mut Vec<(String, String)>, depth: usize) {
        let at = self.gen.below(members.len() as u64 + 1) as usize;
        let existing = at.min(members.len().saturating_sub(1));
        match self.mutation {
            Mutation::DuplicateMember if !members.is_empty() => {
                let (key, same) = members[existing].clone();
                let text = if self.gen.coin() { same } else { self.junk() };
                if self.gen.coin() {
                    members.insert(0, (key, text));
                } else {
                    members.push((key, text));
                }
            }
            Mutation::UnknownMember => {
                let text = self.junk();
                members.insert(at, ("\"zz_unknown\"".to_owned(), text));
            }
            Mutation::MissingMember if !members.is_empty() => {
                members.remove(existing);
            }
            Mutation::EscapedKey if !members.is_empty() => {
                let key = &mut members[existing].0;
                if let Some(c) = key[1..].chars().next().filter(char::is_ascii_alphanumeric) {
                    key.replace_range(1..2, &format!("\\u{:04x}", c as u32));
                }
            }
            Mutation::Nesting => {
                // The member sits at depth + 1; its innermost value at
                // depth + 1 + levels.
                let levels = (MAX_DEPTH + self.gen.below(2) as usize).saturating_sub(depth + 1);
                let text = format!("{}0{}", "[".repeat(levels), "]".repeat(levels));
                members.insert(at, ("\"zz_deep\"".to_owned(), text));
            }
            _ => {}
        }
    }
}

fn nodes(v: &Value, out: &mut Vec<bool>) {
    out.push(matches!(v, Value::Object(_)));
    match v {
        Value::Object(m) => m.values().for_each(|item| nodes(item, out)),
        Value::Array(items) => items.iter().for_each(|item| nodes(item, out)),
        _ => {}
    }
}

/// One structure-aware mutant of the text of `tree`.
fn tree_mutant(gen: &mut Gen, tree: &Value) -> String {
    let mutation = gen.pick(&[
        Mutation::DuplicateMember,
        Mutation::UnknownMember,
        Mutation::MissingMember,
        Mutation::EscapedKey,
        Mutation::IntegerAsFloat,
        Mutation::Nesting,
    ]);
    let mut kinds = Vec::new();
    nodes(tree, &mut kinds);
    // Object mutations land on an object (or, with none, change nothing);
    // IntegerAsFloat on any node, where only integers change.
    let eligible: Vec<usize> =
        (0..kinds.len()).filter(|&i| kinds[i] || mutation == Mutation::IntegerAsFloat).collect();
    let target = match eligible.len() {
        0 => 0,
        n => eligible[gen.below(n as u64) as usize],
    };
    let whitespace = gen.below(4) == 0;
    let mut out = String::new();
    if whitespace {
        out.push(' ');
    }
    Emitter { gen, mutation, target, seen: 0, whitespace }.value(tree, 0, &mut out);
    if whitespace {
        out.push('\n');
    }
    out
}

/// One byte-level mutant of `canonical`: truncation, bit flips, a
/// duplicated chunk, oversizing, or one inserted JSON-ish byte.
fn byte_mutant(gen: &mut Gen, mutator: &mut Mutator, canonical: &str) -> Vec<u8> {
    let mut bytes = canonical.as_bytes().to_vec();
    if gen.below(5) == 0 {
        let at = gen.below(bytes.len() as u64 + 1) as usize;
        bytes.insert(at, gen.pick(b"{}[],:\\\"0123456789.-+eEtrufalsn \t"));
        bytes
    } else {
        mutator.mutate(&bytes)
    }
}

#[derive(Default)]
struct Tally {
    mutants: u64,
    accepted: u64,
    syntax: u64,
    not_utf8: u64,
}

fn encode<T: Serialize>(x: &T) -> String {
    serde_json::to_string(x).expect("encodes")
}

/// A value's bytes are canonical (they equal its tree's), and they read
/// back.
fn check_canonical<T: Serialize + DeserializeOwned>(x: &T) -> String {
    let stream = encode(x);
    let mut tree = String::new();
    json::write_value(&mut tree, &x.to_value());
    assert_eq!(stream, tree, "write_json and the tree write different bytes");
    let back = Reader::new(&stream)
        .document(|r| T::from_json(r, 0))
        .unwrap_or_else(|e| panic!("canonical {stream:?} does not read back: {e}"));
    assert_eq!(encode(&back), stream);
    stream
}

/// The canonical text of `tree`, as [`json::write_value`] writes it, but
/// with `.0` after a float that prints without a fraction, so that it
/// reads back as that float: `16592086124647321703E+0` is the `u64`
/// 16592086124647321600, and its `write_value` text, `16592086124647322000`,
/// is another `u64`.
fn write_canonical(out: &mut String, tree: &Value) {
    match tree {
        Value::Array(items) => json::write_array(out, items, write_canonical),
        Value::Object(m) => json::write_object(out, m, write_canonical),
        Value::Number(n @ Number::Float(x)) if x.fract() == 0.0 => {
            json::write_number(out, n);
            out.push_str(".0");
        }
        other => json::write_value(out, other),
    }
}

/// Reads `text` as `T`. If the `Value` grammar rejects it, the typed read
/// fails with the same syntax error. Otherwise the typed read answers what
/// it answers for the tree's canonical text (keys sorted, the last copy of
/// a repeated key kept), the same value or the same error text.
fn compare<T: Serialize + DeserializeOwned>(text: &[u8], tally: &mut Tally) {
    let Ok(text) = std::str::from_utf8(text) else {
        tally.not_utf8 += 1;
        return;
    };
    tally.mutants += 1;
    let read = |text: &str| Reader::new(text).document(|r| T::from_json(r, 0)).map(|x| encode(&x));
    let typed = read(text);
    let tree = match Reader::new(text).document(|r| r.value(0)) {
        Ok(tree) => tree,
        Err(e) => {
            assert!(e.is_syntax(), "{text:?}: {e}");
            assert_eq!(typed, Err(e), "{text:?} is malformed");
            tally.syntax += 1;
            return;
        }
    };
    let mut canonical = String::new();
    write_canonical(&mut canonical, &tree);
    let from_tree = read(&canonical);
    if let Err(e) = &from_tree {
        assert!(!e.is_syntax(), "{canonical:?}: {e}");
    }
    assert_eq!(typed, from_tree, "{text:?} reads unlike its tree {canonical:?}");
    tally.accepted += u64::from(typed.is_ok());
}

/// Checks one value, then five mutants of its encoding.
fn sweep_one<T: Serialize + DeserializeOwned>(
    x: &T,
    gen: &mut Gen,
    mutator: &mut Mutator,
    tally: &mut Tally,
) {
    let canonical = check_canonical(x);
    let tree = x.to_value();
    for _ in 0..3 {
        compare::<T>(tree_mutant(gen, &tree).as_bytes(), tally);
    }
    for _ in 0..2 {
        compare::<T>(&byte_mutant(gen, mutator, &canonical), tally);
    }
}

/// A chain of `len` spans, each the only child of the one before, whose
/// last span carries one attribute. The k-th span sits at depth 2k and its
/// attribute at 2k + 2, so 64 spans put the deepest value at exactly
/// MAX_DEPTH (an object member) and 65 one past it.
fn span_chain(len: usize) -> TraceSpan {
    let mut span = TraceSpan::new("leaf", 1);
    span.set_attr("n", 1);
    for _ in 1..len {
        let mut parent = TraceSpan::new("span", 0);
        parent.children.push(span);
        span = parent;
    }
    span
}

/// Nests arrays and tagged variants as deep as a document asks, so the
/// depth limit is met inside typed values (at an array element, a variant
/// payload and a string member, which no scalar read re-checks), not only
/// inside `Value`.
#[derive(Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Nest {
    End,
    Named { name: String },
    List(Vec<Nest>),
}

const NAMED: &str = "{\"named\":{\"name\":\"x\"}}";

/// `lists` nested `List` variants around `end`. As a document the i-th
/// `List` sits at depth 2i and `end` at 2 * lists; inside a top-level
/// array, each one deeper. `NAMED` at depth d holds its string at d + 2.
fn nest(lists: usize, end: &str) -> String {
    format!("{}{end}{}", "{\"list\":[".repeat(lists), "]}".repeat(lists))
}

/// `text` keeps the decoder's relation and is accepted (or rejected as
/// too deep).
fn assert_depth<T: Serialize + DeserializeOwned>(text: &str, accepted: bool, tally: &mut Tally) {
    compare::<T>(text.as_bytes(), tally);
    match serde_json::from_str::<T>(text) {
        Ok(_) => assert!(accepted, "{text} is deeper than MAX_DEPTH"),
        Err(e) => {
            assert!(!accepted, "{text}: {e}");
            assert!(e.to_string().starts_with("JSON nested too deeply"), "{e}");
        }
    }
}

#[test]
fn fuzz_sweep_json_stream_equals_tree() {
    const CORPUS: [&str; 4] = [
        include_str!("../../../tests/fuzz_corpus/campaign/too_many_cells.json"),
        include_str!("../../../tests/fuzz_corpus/campaign/too_many_trials.json"),
        include_str!("../../../tests/fuzz_corpus/campaign/zero_deadline.json"),
        include_str!("../../../tests/fuzz_corpus/campaign/zero_trials.json"),
    ];
    let mut gen = Gen(SplitMix64::new(0x5EED_1503));
    let mut mutator = Mutator::new(0xB17E_5EED);
    let mut tally = Tally::default();

    // Nesting at MAX_DEPTH (128) is read; one level more is not, whether
    // the 129th level is an object member, an array element or a variant's
    // payload.
    assert_eq!(MAX_DEPTH, 128);
    check_canonical(&span_chain(64));
    assert_depth::<TraceSpan>(&encode(&span_chain(64)), true, &mut tally);
    assert_depth::<TraceSpan>(&encode(&span_chain(65)), false, &mut tally);
    assert_depth::<Nest>(&nest(64, "\"end\""), true, &mut tally);
    assert_depth::<Vec<Nest>>(&format!("[{}]", nest(64, "\"end\"")), false, &mut tally);
    assert_depth::<Nest>(&nest(63, NAMED), true, &mut tally);
    assert_depth::<Vec<Nest>>(&format!("[{}]", nest(63, NAMED)), false, &mut tally);
    assert_depth::<Nest>(&nest(64, NAMED), false, &mut tally);

    for round in 0..sweep_iters() {
        let corpus = CORPUS[round % CORPUS.len()];
        let spec: CampaignSpec = serde_json::from_str(corpus).expect("corpus entries decode");
        check_canonical(&spec);
        let as_sent: Value = serde_json::from_str(corpus).expect("corpus entries parse");
        compare::<CampaignSpec>(tree_mutant(&mut gen, &spec.to_value()).as_bytes(), &mut tally);
        compare::<CampaignSpec>(tree_mutant(&mut gen, &as_sent).as_bytes(), &mut tally);
        compare::<CampaignSpec>(&byte_mutant(&mut gen, &mut mutator, corpus), &mut tally);

        let x = gen.run_request();
        sweep_one(&x, &mut gen, &mut mutator, &mut tally);
        let x = gen.run_result();
        sweep_one(&x, &mut gen, &mut mutator, &mut tally);
        let x = gen.campaign_spec();
        sweep_one(&x, &mut gen, &mut mutator, &mut tally);
        let x = gen.campaign_status();
        sweep_one(&x, &mut gen, &mut mutator, &mut tally);
        let x = gen.job_status();
        sweep_one(&x, &mut gen, &mut mutator, &mut tally);
        let x = gen.receipt();
        sweep_one(&x, &mut gen, &mut mutator, &mut tally);
        let x: Vec<Op> = (0..gen.below(4)).map(|_| gen.op()).collect();
        sweep_one(&x, &mut gen, &mut mutator, &mut tally);
    }
    println!(
        "json decoder vs its tree: {} mutants, {} accepted, {} malformed, {} ill-typed, \
         {} not UTF-8 (skipped)",
        tally.mutants,
        tally.accepted,
        tally.syntax,
        tally.mutants - tally.accepted - tally.syntax,
        tally.not_utf8
    );
    assert!(tally.accepted > 0 && tally.syntax > 0);
    assert!(tally.mutants > tally.accepted + tally.syntax);
}
