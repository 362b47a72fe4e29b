//! The one adapter between the benchmark and the program's Rust API.
//!
//! Every Rust item of the program that the traced run calls is imported
//! here and nowhere else (the end-to-end path knows only daemon flags and
//! `/v1` JSON), so an API consolidation needs a follow-up in this file
//! alone. The file does two things with those items:
//!
//! * it replays each workload's generated inputs in-process, with a span
//!   around each call into a layer's public functions, giving per-layer
//!   self times for the workload's own mix of work;
//! * it times single public operations of each layer in isolation.
//!
//! Host time only: every number here is what the tool itself costs. The
//! simulated figures inside reports are counted exactly (cycles, exits,
//! faults, trace operations), never timed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use confbench::{AttestConfig, AttestService, FunctionStore, Gateway, HostAgent};
use confbench_crypto::{Sha256, SigningKey};
use confbench_faasrt::{compile, parse, FaasFunction, FunctionLauncher};
use confbench_fleet::{Fleet, FleetConfig, HashRing, MigrationConfig, MigrationFrame};
use confbench_httpd::{Client, Method, Request, Response, Router, Server};
use confbench_memsim::{GranuleTable, PageNum, Rmp, SecureEpt};
use confbench_obs::{MetricsRegistry, SpanRecorder};
use confbench_perfmon::PerfStat;
use confbench_sched::{cache_key, campaign::expand, Executor, Scheduler, SchedulerConfig};
use confbench_types::{
    CampaignSpec, CampaignStatus, FunctionSpec, Language, OpTrace, RunRequest, RunResult,
    SystemClock, TeePlatform, VmKind, VmTarget,
};
use confbench_vmm::{TeeVmBuilder, Vm};

use crate::spec::{daemon_seed, fig6_spec, Matrix, RunStream, Scale};
use crate::stats::median;
use crate::trace::Tracer;

/// Per-layer metrics of the traced run: name, unit. Layer = crate name.
pub const PER_LAYER: [(&str, &str); 102] = [
    ("httpd.roundtrip_us", "us"),
    ("httpd.roundtrip_large_us", "us"),
    ("httpd.parse_ns", "ns"),
    ("httpd.write_small_ns", "ns"),
    ("httpd.write_large_ns", "ns"),
    ("httpd.route_ns", "ns"),
    ("httpd.requests", "count"),
    ("httpd.conn_reuse_share", "ratio"),
    ("httpd.rejected", "count"),
    ("json.dec_run_request_ns", "ns"),
    ("json.enc_run_result_ns", "ns"),
    ("json.dec_run_result_ns", "ns"),
    ("json.dec_campaign_spec_us", "us"),
    ("json.enc_campaign_status_us", "us"),
    ("json.dec_campaign_status_us", "us"),
    ("json.bytes_run_result", "B"),
    ("json.bytes_campaign_status", "B"),
    ("sched.expand_us", "us"),
    ("sched.cache_key_ns", "ns"),
    ("sched.submit_us", "us"),
    ("sched.step_hit_us", "us"),
    ("sched.step_miss_self_us", "us"),
    ("sched.status_us", "us"),
    ("sched.resubmit_p90_us", "us"),
    ("sched.cache_hits", "count"),
    ("sched.cache_misses", "count"),
    ("sched.cache_hit_share", "ratio"),
    ("sched.cache_evictions", "count"),
    ("sched.rejected_429", "count"),
    ("crypto.sha256_64B_ns", "ns"),
    ("crypto.sha256_4KiB_ns", "ns"),
    ("crypto.schnorr_verify_us", "us"),
    ("confbench.gateway_run_us", "us"),
    ("confbench.host_execute_us", "us"),
    ("confbench.dispatch_self_us", "us"),
    ("confbench.supervisor_noop_us", "us"),
    ("confbench.store_get_ns", "ns"),
    ("confbench.pool_checkouts", "count"),
    ("confbench.retries", "count"),
    ("confbench.vm_rebuilds", "count"),
    ("faasrt.launch_total_ms", "ms"),
    ("faasrt.launch_treewalk_ms", "ms"),
    ("faasrt.launch_stackvm_ms", "ms"),
    ("faasrt.launch_native_ms", "ms"),
    ("faasrt.parse_us", "us"),
    ("faasrt.compile_us", "us"),
    ("faasrt.launch_light_us", "us"),
    ("faasrt.launches", "count"),
    ("faasrt.trace_ops", "count"),
    ("vmm.build_secure_us", "us"),
    ("vmm.build_normal_us", "us"),
    ("vmm.exec_total_ms", "ms"),
    ("vmm.ns_per_op_secure", "ns"),
    ("vmm.ns_per_op_normal", "ns"),
    ("vmm.spanned_extra_ns", "ns"),
    ("vmm.export_import_us", "us"),
    ("vmm.sim_cycles", "count"),
    ("vmm.exits", "count"),
    ("vmm.faults", "count"),
    ("memsim.rmp_validate_ns_per_page", "ns"),
    ("memsim.sept_accept_ns_per_page", "ns"),
    ("memsim.granule_delegate_ns_per_page", "ns"),
    ("memsim.snapshot_us", "us"),
    ("memsim.pages_resident", "count"),
    ("perfmon.measure_spanned_us", "us"),
    ("obs.span_ns", "ns"),
    ("obs.counter_inc_ns", "ns"),
    ("obs.render_text_us", "us"),
    ("attest.open_session_cold_us", "us"),
    ("attest.open_session_warm_us", "us"),
    ("attest.cache_hits", "count"),
    ("attest.collateral_fetches", "count"),
    ("fleet.ring_owner_ns", "ns"),
    ("fleet.submit_us", "us"),
    ("fleet.pump_idle_us", "us"),
    ("fleet.harvest_us", "us"),
    ("fleet.migrate_us", "us"),
    ("fleet.wire_encode_ns_per_page", "ns"),
    ("fleet.wire_decode_ns_per_page", "ns"),
    ("fleet.migrate_p50_us", "us"),
    ("fleet.migrate_p90_us", "us"),
    ("fleet.steals", "count"),
    ("fleet.executions", "count"),
    ("fleet.wire_bytes", "B"),
    ("fleet.blackout_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_growing", "count"),
    ("loadgen.generator_limited", "count"),
    ("loadgen.over_limit_share", "ratio"),
    ("loadgen.mid_rate_p99_us", "us"),
    ("loadgen.high_rate_p99_us", "us"),
    ("loadgen.sustained_rate", "req/s"),
    ("loadgen.polls", "count"),
    ("loadgen.req_per_s", "req/s"),
    ("loadgen.trace_overhead_share", "ratio"),
    ("loadgen.fail_share", "ratio"),
    ("recon.run_closed_sum_us", "us"),
    ("recon.run_closed_remainder_share", "ratio"),
    ("recon.fig6_cold_sum_ms", "ms"),
    ("recon.fig6_cold_remainder_share", "ratio"),
    ("recon.fig6_memo_sum_us", "us"),
    ("recon.fig6_memo_remainder_share", "ratio"),
];

/// Lowercase hex SHA-256 of `data`.
pub fn sha256_hex(data: &[u8]) -> String {
    Sha256::digest(data).as_bytes().iter().map(|b| format!("{b:02x}")).collect()
}

type Metrics = BTreeMap<&'static str, f64>;

/// The layer measurements, plus what the blocking layers sum to for one
/// operation of each reconciled workload.
pub struct Budget {
    pub metrics: Metrics,
    /// One `/v1/run` request of the rotation, µs.
    pub run_request_us: f64,
    /// One cold Fig. 6 campaign, ms.
    pub fig6_campaign_ms: f64,
    /// One memoized resubmission, µs.
    pub memo_resubmit_us: f64,
}

/// Median time of one call of `f`, nanoseconds: `samples` batches of
/// `iters` calls each.
fn time_ns<R>(samples: usize, iters: usize, mut f: impl FnMut() -> R) -> f64 {
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            started.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&per_call)
}

/// Durations of the tracer's spans named `name` from span `from` on,
/// microseconds.
fn span_durations_us(tracer: &Tracer, from: usize, name: &str) -> Vec<f64> {
    let spans = tracer.spans()[from..].iter().filter(|s| s.name == name);
    spans.map(|s| s.duration_ns() as f64 / 1e3).collect()
}

fn span_median_us(tracer: &Tracer, from: usize, name: &str) -> f64 {
    median(&span_durations_us(tracer, from, name))
}

fn span_total_ms(tracer: &Tracer, from: usize, name: &str) -> f64 {
    span_durations_us(tracer, from, name).iter().sum::<f64>() / 1e3
}

fn serialized(message: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut bytes = Vec::new();
    message(&mut bytes);
    bytes
}

/// An executor that runs nothing: the scheduler's own cost shows. Content
/// addresses are the real ones (the gateway's function fingerprints), so
/// `submit` and `step` hash what the daemon hashes.
struct NoopExecutor {
    gateway: Arc<Gateway>,
}

impl Executor for NoopExecutor {
    fn execute(&self, request: &RunRequest) -> confbench_types::Result<RunResult> {
        // Trial times with all their digits, as real cells have.
        let trial_ms: Vec<f64> =
            (1..=request.trials).map(|t| f64::from(t) * 1.234_567_890_1 + 0.017).collect();
        Ok(RunResult {
            function: request.function.name.clone(),
            language: request.function.language,
            target: request.target,
            stats: RunResult::compute_stats(&trial_ms),
            trial_ms,
            trial_cycles: Vec::new(),
            perf: Default::default(),
            output: "1572480".into(),
            trace: None,
        })
    }

    fn function_fingerprint(&self, name: &str) -> Option<String> {
        self.gateway.function_fingerprint(name)
    }
}

/// The routes of the gateway's table, in registration order, for
/// `httpd.route_ns`.
const GATEWAY_ROUTES: [(Method, &str); 24] = [
    (Method::Post, "/v1/run"),
    (Method::Post, "/run"),
    (Method::Post, "/v1/functions"),
    (Method::Post, "/functions"),
    (Method::Get, "/v1/functions"),
    (Method::Get, "/functions"),
    (Method::Post, "/v1/attest/sessions"),
    (Method::Post, "/attest/sessions"),
    (Method::Get, "/v1/attest/sessions/:id"),
    (Method::Get, "/attest/sessions/:id"),
    (Method::Delete, "/v1/attest/sessions/:id"),
    (Method::Delete, "/attest/sessions/:id"),
    (Method::Post, "/v1/attest/sessions/:id/extend"),
    (Method::Post, "/attest/sessions/:id/extend"),
    (Method::Get, "/v1/metrics"),
    (Method::Get, "/metrics"),
    (Method::Get, "/v1/health"),
    (Method::Get, "/health"),
    (Method::Post, "/v1/campaigns"),
    (Method::Get, "/v1/campaigns/:id"),
    (Method::Delete, "/v1/campaigns/:id"),
    (Method::Get, "/v1/jobs/:id"),
    (Method::Get, "/v1/fleet"),
    (Method::Post, "/v1/migrations"),
];

/// `httpd`: framing, routing, and real loopback round trips through an
/// in-process server with handlers that do nothing.
fn httpd(m: &mut Metrics, run_request: &RunRequest, run_result: &RunResult, status_body: &[u8]) {
    let request_bytes = serialized(|b| {
        Request::new(Method::Post, "/v1/run").json(run_request).write_to(b).unwrap()
    });
    m.insert(
        "httpd.parse_ns",
        time_ns(30, 200, || {
            black_box(Request::read_from(&mut black_box(&request_bytes[..])).unwrap());
        }),
    );
    let small = Response::json(run_result);
    let mut large = Response::text("");
    large.body = status_body.to_vec();
    let mut sink = Vec::with_capacity(status_body.len() + 1024);
    for (key, response, iters) in
        [("httpd.write_small_ns", &small, 200), ("httpd.write_large_ns", &large, 20)]
    {
        m.insert(
            key,
            time_ns(30, iters, || {
                sink.clear();
                black_box(response).write_to(&mut sink).unwrap();
            }),
        );
    }

    let mut table = Router::new();
    for (method, pattern) in GATEWAY_ROUTES {
        table.add(method, pattern, |_, _| Response::text(""));
    }
    let poll = Request::new(Method::Get, "/v1/campaigns/c12");
    m.insert("httpd.route_ns", time_ns(30, 500, || table.dispatch(&poll)));

    let mut router = Router::new();
    router.add(Method::Get, "/v1/health", |_, _| Response::text("{\"ok\":true}"));
    let body = status_body.to_vec();
    router.add(Method::Get, "/large", move |_, _| {
        let mut response = Response::text("");
        response.body = body.clone();
        response
    });
    let server = Server::spawn(router).expect("loopback server");
    let client = Client::new(server.addr());
    for (key, path, samples) in
        [("httpd.roundtrip_us", "/v1/health", 2_000), ("httpd.roundtrip_large_us", "/large", 300)]
    {
        let request = Request::new(Method::Get, path);
        let round_trips: Vec<f64> = (0..samples)
            .map(|_| {
                let started = Instant::now();
                assert_eq!(client.send(&request).expect("loopback round trip").status, 200);
                started.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        m.insert(key, median(&round_trips));
    }
}

/// `json`: the stand-in `serde_json`, on the bodies the workloads move.
fn json(
    m: &mut Metrics,
    run_request: &RunRequest,
    run_result: &RunResult,
    spec: &CampaignSpec,
    status: &CampaignStatus,
) {
    let request_bytes = serde_json::to_vec(run_request).unwrap();
    let result_bytes = serde_json::to_vec(run_result).unwrap();
    let spec_bytes = serde_json::to_vec(spec).unwrap();
    let status_bytes = serde_json::to_vec(status).unwrap();
    m.insert("json.bytes_run_result", result_bytes.len() as f64);
    m.insert("json.bytes_campaign_status", status_bytes.len() as f64);
    m.insert(
        "json.dec_run_request_ns",
        time_ns(30, 200, || serde_json::from_slice::<RunRequest>(&request_bytes)),
    );
    m.insert(
        "json.enc_run_result_ns",
        time_ns(30, 200, || serde_json::to_vec(black_box(run_result))),
    );
    m.insert(
        "json.dec_run_result_ns",
        time_ns(30, 200, || serde_json::from_slice::<RunResult>(&result_bytes)),
    );
    m.insert(
        "json.dec_campaign_spec_us",
        time_ns(30, 50, || serde_json::from_slice::<CampaignSpec>(&spec_bytes)) / 1e3,
    );
    m.insert(
        "json.enc_campaign_status_us",
        time_ns(20, 5, || serde_json::to_vec(black_box(status))) / 1e3,
    );
    m.insert(
        "json.dec_campaign_status_us",
        time_ns(20, 5, || serde_json::from_slice::<CampaignStatus>(&status_bytes)) / 1e3,
    );
}

/// `sched`: one cold pass with an executor that runs nothing, then
/// memoized resubmissions — the `fig6_memo` operation replayed in-process,
/// each layer call in a span. Returns the final status (350 cells).
fn sched(
    m: &mut Metrics,
    t: &mut Tracer,
    gateway: &Arc<Gateway>,
    spec: &CampaignSpec,
) -> CampaignStatus {
    let cells = expand(spec);
    m.insert("sched.expand_us", time_ns(20, 5, || expand(black_box(spec))) / 1e3);
    m.insert(
        "sched.cache_key_ns",
        time_ns(10, 1, || {
            for cell in &cells {
                let fingerprint = gateway.function_fingerprint(&cell.function.name).unwrap();
                black_box(cache_key(cell, &fingerprint));
            }
        }) / cells.len() as f64,
    );

    let noop = Arc::new(NoopExecutor { gateway: Arc::clone(gateway) });
    let config = SchedulerConfig { queue_capacity: 4096, ..SchedulerConfig::default() };
    let scheduler = Scheduler::new(noop.clone(), Arc::new(SystemClock), config);
    let spec_bytes = serde_json::to_vec(spec).unwrap();
    let from = t.spans().len();
    let mut last = None;
    for round in 0..21u64 {
        t.set_request(round);
        let root = if round == 0 { "replay.memo_fill" } else { "replay.memo_resubmit" };
        last = Some(t.span(root, |t| {
            let spec: CampaignSpec =
                t.span("json.decode_spec", |_| serde_json::from_slice(&spec_bytes).unwrap());
            let receipt = t.span("sched.submit", |_| scheduler.submit(spec).expect("admitted"));
            let steps = if round == 0 { "sched.step_misses" } else { "sched.step_hits" };
            t.span(steps, |_| while scheduler.step_with(TeePlatform::Tdx, noop.as_ref()) {});
            let status =
                t.span("sched.status", |_| scheduler.campaign_status(&receipt.id).unwrap());
            t.span("json.encode_status", |_| serde_json::to_vec(&status)).expect("serializable");
            status
        }));
    }
    let per_cell = cells.len() as f64;
    m.insert("sched.submit_us", span_median_us(t, from, "sched.submit"));
    m.insert("sched.step_hit_us", span_median_us(t, from, "sched.step_hits") / per_cell);
    m.insert("sched.step_miss_self_us", span_median_us(t, from, "sched.step_misses") / per_cell);
    m.insert("sched.status_us", span_median_us(t, from, "sched.status"));
    last.expect("rounds ran")
}

/// `crypto`: the primitives under cache keys and attestation.
fn crypto(m: &mut Metrics) {
    let (small, page) = ([0x5au8; 64], [0xa5u8; 4096]);
    m.insert("crypto.sha256_64B_ns", time_ns(30, 1_000, || Sha256::digest(black_box(&small))));
    m.insert("crypto.sha256_4KiB_ns", time_ns(30, 50, || Sha256::digest(black_box(&page))));
    let key = SigningKey::from_seed(13);
    let signature = key.sign(&small);
    let verifying = key.verifying_key();
    m.insert(
        "crypto.schnorr_verify_us",
        time_ns(30, 50, || verifying.verify(black_box(&small), &signature).unwrap()) / 1e3,
    );
}

/// The body of `HostAgent::execute` for a FaaS function, re-composed from
/// the public pieces so that each piece gets a span: store lookup, launch,
/// supervised fresh VM, bootstrap, trials, measured trial.
fn host_execute_spanned(
    t: &mut Tracer,
    store: &FunctionStore,
    host: &HostAgent,
    recorder: &SpanRecorder,
    request: &RunRequest,
    counts: &mut ReplayCounts,
) {
    let function = t.span("confbench.store_get", |_| store.get(&request.function.name)).unwrap();
    let output = t.span("faasrt.launch", |_| {
        FunctionLauncher::new(request.function.language)
            .launch(&function, &request.function.args)
            .unwrap()
    });
    counts.launches += 1;
    counts.trace_ops += output.trace.len() as u64;
    let mut root = recorder.root("replay");
    // The supervisor's self time is the fresh VM: build, boot, watchdog.
    t.span("confbench.supervisor", |t| {
        host.supervisor(request.target.kind)
            .run(&mut root, None, request.seed, |vm, _| {
                t.span("vmm.exec_bootstrap", |_| vm.try_execute(&output.startup_trace))?;
                let exec = match request.target.kind {
                    VmKind::Secure => "vmm.exec_secure",
                    VmKind::Normal => "vmm.exec_normal",
                };
                for _ in 1..request.trials {
                    let report = t.span(exec, |_| vm.try_execute(&output.trace))?;
                    counts.add(&report.perf, report.cycles.get(), output.trace.len());
                }
                let (report, _) = t.span("perfmon.measure", |_| {
                    PerfStat::for_vm(vm).try_measure_spanned(vm, &output.trace, recorder)
                })?;
                counts.add(&report.perf, report.cycles.get(), output.trace.len());
                counts.pages_resident += vm.resident_page_count();
                Ok(())
            })
            .expect("no faults are injected");
    });
}

/// Exact counts of what a replay simulated.
#[derive(Default)]
struct ReplayCounts {
    launches: u64,
    trace_ops: u64,
    executed_ops: u64,
    sim_cycles: u64,
    exits: u64,
    faults: u64,
    pages_resident: u64,
}

impl ReplayCounts {
    fn add(&mut self, perf: &confbench_types::PerfReport, cycles: u64, ops: usize) {
        self.sim_cycles += cycles;
        self.exits += perf.vm_exits;
        self.faults += perf.page_faults;
        self.executed_ops += ops as u64;
    }
}

/// `confbench` on the `/v1/run` mix: each generated request replayed
/// through framing, JSON and `Gateway::run` with a span per step, then
/// through `HostAgent::execute` whole and piece by piece.
fn run_mix(
    m: &mut Metrics,
    t: &mut Tracer,
    gateway: &Arc<Gateway>,
    seed: u64,
    requests: u64,
) -> RunResult {
    let stream = RunStream::new(seed);
    let store = Arc::new(FunctionStore::new());
    let host = HostAgent::new(TeePlatform::Tdx, Arc::clone(&store), daemon_seed(seed));
    let recorder = SpanRecorder::default();
    let from = t.spans().len();
    let mut sample = None;
    let mut counts = ReplayCounts::default();
    for index in 0..requests {
        let request = stream.request(index);
        t.set_request(index);
        let wire = serialized(|b| {
            Request::new(Method::Post, "/v1/run").json(&request).write_to(b).unwrap()
        });
        // `Gateway::run` and `HostAgent::execute` do the same work but for
        // the dispatch around the host; whichever runs second finds the
        // caches warm, so the order alternates.
        let whole_host = |t: &mut Tracer| {
            t.span("confbench.host_execute", |_| host.execute(&request)).expect("host executes");
        };
        if index % 2 == 1 {
            whole_host(t);
        }
        sample = Some(t.span("replay.run", |t| {
            let parsed = t.span("httpd.parse", |_| Request::read_from(&mut &wire[..]).unwrap());
            let decoded: RunRequest =
                t.span("json.decode_request", |_| parsed.body_json().unwrap());
            let result = t.span("confbench.gateway_run", |_| gateway.run(&decoded).unwrap());
            let response = t.span("json.encode_result", |_| Response::json(&result));
            let answer = t.span("httpd.write", |_| serialized(|b| response.write_to(b).unwrap()));
            let read = t.span("httpd.read", |_| Response::read_from(&mut &answer[..]).unwrap());
            t.span("json.decode_result", |_| read.body_json::<RunResult>()).expect("decodable");
            result
        }));
        if index % 2 == 0 {
            whole_host(t);
        }
        t.span("replay.host", |t| {
            host_execute_spanned(t, &store, &host, &recorder, &request, &mut counts);
        });
    }
    // Dispatch self time: run − execute, paired per request. The pairs
    // where the gateway went first (cold) and those where the host did sit
    // in two modes either side of the true difference, so each order gets
    // its own median and the two are averaged.
    let run = span_durations_us(t, from, "confbench.gateway_run");
    let execute = span_durations_us(t, from, "confbench.host_execute");
    let paired = |order: usize| -> f64 {
        let pairs = run.iter().zip(&execute).skip(order).step_by(2);
        median(&pairs.map(|(r, e)| r - e).collect::<Vec<_>>())
    };
    m.insert("confbench.gateway_run_us", median(&run));
    m.insert("confbench.host_execute_us", median(&execute));
    m.insert("confbench.dispatch_self_us", (paired(0) + paired(1)) / 2.0);
    m.insert("faasrt.launch_light_us", span_median_us(t, from, "faasrt.launch"));

    let mut root = recorder.root("replay");
    let supervisor = host.supervisor(VmKind::Secure);
    let mut request_seed = 0;
    m.insert(
        "confbench.supervisor_noop_us",
        time_ns(30, 20, || {
            request_seed += 1;
            supervisor.run(&mut root, None, request_seed, |_, _| Ok(())).unwrap();
        }) / 1e3,
    );
    m.insert("confbench.store_get_ns", time_ns(30, 1_000, || store.get("fib")));
    sample.expect("requests ran")
}

/// `faasrt`, `vmm` and `memsim` on the Fig. 6 matrix: every cell of one
/// campaign replayed as the host executes it. Returns the replay's wall
/// time, ms.
fn fig6_cells(m: &mut Metrics, t: &mut Tracer, seed: u64, spec: &CampaignSpec) -> f64 {
    let store = Arc::new(FunctionStore::new());
    let host = HostAgent::new(TeePlatform::Tdx, Arc::clone(&store), daemon_seed(seed));
    let recorder = SpanRecorder::default();
    let from = t.spans().len();
    let mut counts = ReplayCounts::default();
    let mut by_engine: BTreeMap<&str, f64> = BTreeMap::new();
    let started = Instant::now();
    for (index, cell) in expand(spec).iter().enumerate() {
        let request = RunRequest::new(
            FunctionSpec {
                name: cell.function.name.clone(),
                language: cell.language,
                args: cell.function.args.clone(),
            },
            VmTarget { platform: cell.platform, kind: cell.kind },
        )
        .trials(cell.trials)
        .seed(cell.seed);
        t.set_request(index as u64);
        let before = t.spans().len();
        t.span("replay.cell", |t| {
            host_execute_spanned(t, &store, &host, &recorder, &request, &mut counts);
        });
        let engine = match cell.language {
            Language::Lua => "faasrt.launch_treewalk_ms",
            Language::LuaJit | Language::Wasm => "faasrt.launch_stackvm_ms",
            _ => "faasrt.launch_native_ms",
        };
        *by_engine.entry(engine).or_default() += span_total_ms(t, before, "faasrt.launch");
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    m.extend(by_engine);
    m.insert("faasrt.launch_total_ms", span_total_ms(t, from, "faasrt.launch"));
    m.insert("faasrt.launches", counts.launches as f64);
    m.insert("faasrt.trace_ops", counts.trace_ops as f64);
    let exec_ms = |name| span_total_ms(t, from, name);
    m.insert(
        "vmm.exec_total_ms",
        exec_ms("vmm.exec_secure")
            + exec_ms("vmm.exec_normal")
            + exec_ms("vmm.exec_bootstrap")
            + exec_ms("perfmon.measure"),
    );
    // Trials of one kind cover half the executed operations; the measured
    // trial is left out of ns/op because it also pays the perf collector.
    let trials = f64::from(spec.trials);
    let plain_ops = counts.executed_ops as f64 / 2.0 * (trials - 1.0) / trials;
    m.insert("vmm.ns_per_op_secure", exec_ms("vmm.exec_secure") * 1e6 / plain_ops.max(1.0));
    m.insert("vmm.ns_per_op_normal", exec_ms("vmm.exec_normal") * 1e6 / plain_ops.max(1.0));
    m.insert("vmm.sim_cycles", counts.sim_cycles as f64);
    m.insert("vmm.exits", counts.exits as f64);
    m.insert("vmm.faults", counts.faults as f64);
    m.insert("memsim.pages_resident", counts.pages_resident as f64);

    let scripts: Vec<String> =
        spec.functions.iter().map(|f| store.get(&f.name).unwrap().script().to_owned()).collect();
    m.insert(
        "faasrt.parse_us",
        time_ns(10, 1, || scripts.iter().map(|s| parse(s).is_ok()).collect::<Vec<_>>())
            / 1e3
            / scripts.len() as f64,
    );
    let programs: Vec<_> = scripts.iter().map(|s| parse(s).unwrap()).collect();
    m.insert(
        "faasrt.compile_us",
        time_ns(10, 1, || programs.iter().map(|p| compile(p).is_ok()).collect::<Vec<_>>())
            / 1e3
            / programs.len() as f64,
    );
    wall_ms
}

/// A trace that allocates and touches `pages` heap pages.
fn heap_trace(pages: u64) -> OpTrace {
    let mut trace = OpTrace::new();
    trace.cpu(100_000);
    trace.alloc(pages * 4096);
    trace.mem_write(pages * 4096);
    trace
}

fn fresh_vm(kind: VmKind, seed: u64) -> Vm {
    TeeVmBuilder::new(VmTarget { platform: TeePlatform::Tdx, kind }).seed(seed).try_build().unwrap()
}

/// `vmm`, `perfmon`: single operations on a TDX VM.
fn vmm(m: &mut Metrics) {
    let mut seed = 0;
    for (key, kind) in
        [("vmm.build_secure_us", VmKind::Secure), ("vmm.build_normal_us", VmKind::Normal)]
    {
        m.insert(
            key,
            time_ns(30, 20, || {
                seed += 1;
                black_box(fresh_vm(kind, seed));
            }) / 1e3,
        );
    }
    // Plain, spanned and perf-measured execution of one light trace, each
    // on VMs of its own so that none inherits another's heap.
    let trace = heap_trace(4);
    let recorder = SpanRecorder::default();
    let mut vm = fresh_vm(VmKind::Secure, 1);
    let plain = time_ns(30, 200, || vm.try_execute(&trace));
    let mut vm = fresh_vm(VmKind::Secure, 1);
    let mut root = recorder.root("replay");
    let spanned = time_ns(30, 200, || vm.try_execute_spanned(&trace, &mut root));
    let mut vm = fresh_vm(VmKind::Secure, 1);
    let perf = PerfStat::for_vm(&vm);
    let measured = time_ns(30, 200, || perf.try_measure_spanned(&mut vm, &trace, &recorder));
    m.insert("vmm.spanned_extra_ns", spanned - plain);
    m.insert("perfmon.measure_spanned_us", (measured - plain) / 1e3);

    // What a migration moves: runtime state plus 128 dirty pages.
    let pages = heap_trace(128);
    m.insert(
        "vmm.export_import_us",
        time_ns(20, 1, || {
            let mut source = fresh_vm(VmKind::Secure, 7);
            source.try_execute(&pages).unwrap();
            let mut target = fresh_vm(VmKind::Secure, 8);
            let started = Instant::now();
            source.mark_all_dirty();
            let dirty = source.export_dirty_pages().unwrap();
            let state = source.export_runtime_state().unwrap();
            target.import_pages(&dirty).unwrap();
            target.adopt_runtime_state(&state).unwrap();
            black_box(started.elapsed());
        }) / 1e3,
    );
}

/// `memsim`: the page-state machines, 4096 pages at a time.
fn memsim(m: &mut Metrics) {
    const PAGES: u64 = 4096;
    m.insert(
        "memsim.rmp_validate_ns_per_page",
        time_ns(20, 1, || {
            let mut rmp = Rmp::new(PAGES);
            for page in 0..PAGES {
                rmp.assign(PageNum(page), 1).unwrap();
                rmp.pvalidate(PageNum(page), 1).unwrap();
            }
            black_box(rmp);
        }) / PAGES as f64,
    );
    let mut accepted = SecureEpt::new();
    m.insert(
        "memsim.sept_accept_ns_per_page",
        time_ns(20, 1, || {
            let mut sept = SecureEpt::new();
            for page in 0..PAGES {
                sept.aug(PageNum(page), PageNum(page + PAGES)).unwrap();
                sept.accept(PageNum(page)).unwrap();
            }
            accepted = sept;
        }) / PAGES as f64,
    );
    m.insert(
        "memsim.granule_delegate_ns_per_page",
        time_ns(20, 1, || {
            let mut table = GranuleTable::new(PAGES);
            for granule in 0..PAGES {
                table.delegate(PageNum(granule)).unwrap();
            }
            black_box(table);
        }) / PAGES as f64,
    );
    m.insert("memsim.snapshot_us", time_ns(20, 5, || accepted.snapshot()) / 1e3);
}

/// `obs`: what one request pays for its spans and counters.
fn obs(m: &mut Metrics) {
    let recorder = SpanRecorder::default();
    m.insert(
        "obs.span_ns",
        time_ns(30, 500, || {
            let mut root = recorder.root("gateway.run");
            let child = root.child("host.execute");
            root.finish_child(child);
            black_box(root.finish());
        }),
    );
    let registry = MetricsRegistry::new();
    let counter = registry.counter("gateway_requests_total");
    m.insert("obs.counter_inc_ns", time_ns(30, 10_000, || counter.inc()));
    for i in 0..40 {
        registry.counter(&format!("counter_{i}_total{{platform=\"tdx\"}}")).add(i);
        registry.gauge(&format!("gauge_{i}")).set(i);
    }
    registry.histogram("gateway_run_ms", &[1, 10, 100, 1_000, 10_000]).observe(3);
    m.insert("obs.render_text_us", time_ns(30, 20, || registry.render_text()) / 1e3);
}

/// `attest`: opening a TDX session against an empty and a warm cache.
fn attest(m: &mut Metrics, seed: u64) {
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for i in 0..5 {
        let service =
            AttestService::new(seed + i, AttestConfig::default(), Arc::new(SystemClock), None);
        let started = Instant::now();
        service.open_session(TeePlatform::Tdx, None).expect("cold session");
        cold.push(started.elapsed().as_nanos() as f64 / 1e3);
        warm.push(time_ns(5, 20, || service.open_session(TeePlatform::Tdx, None)) / 1e3);
    }
    m.insert("attest.open_session_cold_us", median(&cold));
    m.insert("attest.open_session_warm_us", median(&warm));
}

/// `fleet`: one `fleet_mixed` round replayed in-process on three shards,
/// plus the ring and the migration wire in isolation.
fn fleet(m: &mut Metrics, t: &mut Tracer, seed: u64, spec: &CampaignSpec) {
    let fleet = Fleet::new(FleetConfig { seed: daemon_seed(seed), ..FleetConfig::default() });
    let from = t.spans().len();
    t.set_request(0);
    t.span("replay.fleet_round", |t| {
        let receipt = t.span("fleet.submit", |_| fleet.submit(spec.clone()).expect("admitted"));
        t.span("fleet.pump", |_| {
            while !fleet.campaign_status(&receipt.id).is_some_and(|s| s.complete) {
                fleet.pump();
            }
        });
        t.span("fleet.harvest", |_| fleet.harvest());
        let warm = heap_trace(24);
        for i in 0..20 {
            let platform = if i % 2 == 0 { TeePlatform::Tdx } else { TeePlatform::SevSnp };
            t.span("fleet.migrate", |_| {
                fleet
                    .run_migration(
                        VmTarget::secure(platform),
                        std::slice::from_ref(&warm),
                        &MigrationConfig::default(),
                    )
                    .expect("migration completes");
            });
        }
    });
    m.insert("fleet.submit_us", span_median_us(t, from, "fleet.submit"));
    m.insert("fleet.harvest_us", span_median_us(t, from, "fleet.harvest"));
    m.insert("fleet.migrate_us", span_median_us(t, from, "fleet.migrate"));
    fleet.drain();
    m.insert("fleet.pump_idle_us", time_ns(20, 5, || fleet.pump()) / 1e3);

    let mut ring = HashRing::new(32);
    (0..3).for_each(|shard| ring.insert(shard));
    let key = sha256_hex(b"cell");
    m.insert("fleet.ring_owner_ns", time_ns(30, 1_000, || ring.owner(black_box(&key))));
    const PAGES: u64 = 128;
    let frame = MigrationFrame::Pages { round: 1, gpas: (0x100..0x100 + PAGES).collect() };
    let encoded = frame.encode();
    m.insert("fleet.wire_encode_ns_per_page", time_ns(30, 100, || frame.encode()) / PAGES as f64);
    m.insert(
        "fleet.wire_decode_ns_per_page",
        time_ns(30, 100, || MigrationFrame::decode(&encoded)) / PAGES as f64,
    );
}

/// Runs every layer measurement, recording replay spans into `tracer`.
pub fn measure(seed: u64, scale: Scale, tracer: &mut Tracer) -> Budget {
    let mut m = Metrics::new();
    let gateway =
        Arc::new(Gateway::builder().seed(daemon_seed(seed)).local_host(TeePlatform::Tdx).build());
    let gateway_spec = fig6_spec(Matrix::for_gateway(scale), seed, 0);
    let run_requests = match scale {
        Scale::Full => 256,
        Scale::Smoke => 32,
    };

    let run_result = run_mix(&mut m, tracer, &gateway, seed, run_requests);
    let status = sched(&mut m, tracer, &gateway, &gateway_spec);
    let status_body = serde_json::to_vec(&status).unwrap();
    let run_request = RunStream::new(seed).request(0);
    httpd(&mut m, &run_request, &run_result, &status_body);
    json(&mut m, &run_request, &run_result, &gateway_spec, &status);
    crypto(&mut m);
    let fig6_wall_ms = fig6_cells(&mut m, tracer, seed, &gateway_spec);
    vmm(&mut m);
    memsim(&mut m);
    obs(&mut m);
    attest(&mut m, seed);
    fleet(&mut m, tracer, seed, &fig6_spec(Matrix::for_fleet(scale), seed, 0));

    let cells = gateway_spec.cell_count() as f64;
    let run_request_us = m["httpd.roundtrip_us"]
        + (m["json.dec_run_request_ns"]
            + m["json.enc_run_result_ns"]
            + m["json.dec_run_result_ns"])
            / 1e3
        + m["confbench.gateway_run_us"];
    // Per cell, the campaign also pays the scheduler's bookkeeping and the
    // gateway's dispatch around the host.
    let fig6_campaign_ms = fig6_wall_ms
        + cells * (m["sched.step_miss_self_us"] + m["confbench.dispatch_self_us"]) / 1e3;
    // POST (small round trip, spec decode, submit), the worker's 350 cache
    // hits, then GET (status, encode, large round trip, client decode).
    let memo_resubmit_us = m["httpd.roundtrip_us"]
        + m["json.dec_campaign_spec_us"]
        + m["sched.submit_us"]
        + cells * m["sched.step_hit_us"]
        + m["sched.status_us"]
        + m["json.enc_campaign_status_us"]
        + m["httpd.roundtrip_large_us"]
        + m["json.dec_campaign_status_us"];
    Budget { metrics: m, run_request_us, fig6_campaign_ms, memo_resubmit_us }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::SimLog;

    /// Two in-process replays of one seed give the same sim digest, and the
    /// failure message names the first differing cell when they do not.
    #[test]
    fn replays_of_one_seed_agree_on_the_sim_digest() {
        let replay = |seed: u64| {
            let gateway = Arc::new(
                Gateway::builder().seed(daemon_seed(seed)).local_host(TeePlatform::Tdx).build(),
            );
            let scheduler = Scheduler::new(
                gateway.clone(),
                Arc::new(SystemClock),
                SchedulerConfig { queue_capacity: 4096, ..SchedulerConfig::default() },
            );
            let receipt = scheduler.submit(fig6_spec(Matrix::Smoke, seed, 0)).unwrap();
            scheduler.drain();
            let mut log = SimLog::default();
            scheduler.campaign_status(&receipt.id).unwrap().cells.iter().for_each(|c| log.cell(c));
            let stream = RunStream::new(seed);
            for index in 0..32 {
                log.run(index, &gateway.run(&stream.request(index)).unwrap());
            }
            log
        };
        let (first, second) = (replay(13), replay(13));
        assert_eq!(first.len(), 35 + 32);
        assert_eq!(first.digest(), second.digest(), "{:?}", first.first_difference(&second));
        let other = replay(14);
        assert_ne!(first.digest(), other.digest());
        let message = first.first_difference(&other).expect("seeds differ");
        assert!(message.starts_with("item 0:") && message.contains("cell cpustress"), "{message}");
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        for (name, unit) in PER_LAYER {
            assert!(name.len() <= 64 && name.contains('.'), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }
}
