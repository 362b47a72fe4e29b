//! The ConfBench gateway: the single entry point for all requests (paper
//! §III-A, Fig. 2).
//!
//! Users upload functions and submit run requests over REST; the gateway
//! selects a VM target from its TEE pools, dispatches to the owning host
//! (in-process or over HTTP), and returns results with perf metrics
//! piggybacked.
//!
//! Dispatch is resilient: transport failures are retried under a
//! [`RetryPolicy`] (exponential backoff with deterministic seeded jitter),
//! each retry fails over to a *different* healthy pool member, repeated
//! failures open the member's circuit breaker (see
//! [`TeePool`](crate::TeePool)), and an optional per-request deadline
//! ([`RunRequest::deadline_ms`]) bounds the whole affair — including the
//! remote HTTP timeout, which is clamped to the time remaining.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use confbench_crypto::SplitMix64;
use confbench_httpd::{Client, Method, Request, Response, Router};
use confbench_obs::{
    ActiveSpan, Counter, Histogram, MetricsRegistry, RegistrySnapshot, SpanRecorder,
};
use confbench_types::{Error, Result, RunRequest, RunResult, TeePlatform, VmTarget};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use confbench_vmm::TeeFaultPlan;

use crate::attest_api::{
    gate_request, AttestConfig, AttestService, AttestSessionInfo, AttestSessionRequest,
    ExtendRequest,
};
use crate::host::{HostAgent, HostConfig};
use crate::pool::{BalancePolicy, CircuitState, Clock, HealthPolicy, SystemClock, TeePool};
use crate::store::FunctionStore;
use crate::supervisor::DEFAULT_REBUILD_BUDGET;

/// Default remote-dispatch timeout when the request carries no deadline.
const DEFAULT_REMOTE_TIMEOUT: Duration = Duration::from_secs(30);

/// Retry/backoff tuning for gateway dispatch.
///
/// Only transport-class failures (connection refused/dropped, bad wire
/// responses) are retried; application errors such as an unknown function
/// are returned immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included). Clamped to ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff_ms: u64,
    /// Backoff ceiling.
    pub max_backoff_ms: u64,
    /// Jitter the backoff in `[delay/2, delay]` from the gateway's seeded
    /// RNG (deterministic per gateway instance).
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, base_backoff_ms: 50, max_backoff_ms: 2_000, jitter: true }
    }
}

impl RetryPolicy {
    /// The `Retry-After` hint (whole seconds, minimum 1) the REST layer
    /// attaches to 503 and 429 responses: the backoff ceiling, i.e. how long
    /// a client that has already retried and lost would wait. Deriving the
    /// header from the same policy that drives the gateway's own retries
    /// keeps the two in agreement.
    pub fn retry_after_secs(&self) -> u64 {
        self.max_backoff_ms.div_ceil(1_000).max(1)
    }

    /// Milliseconds to wait before retry number `retry` (0-based): the base
    /// doubled per retry up to the ceiling, then — with jitter on — drawn
    /// from `[delay/2, delay]` on the caller's own seeded stream.
    fn backoff_ms(&self, retry: u32, jitter_rng: &Mutex<SplitMix64>) -> u64 {
        let exp = u128::from(self.base_backoff_ms) << retry.min(20);
        let delay = exp.min(u128::from(self.max_backoff_ms)) as u64;
        if self.jitter && delay > 1 {
            let half = delay / 2;
            half + jitter_rng.lock().next_u64() % (delay - half + 1)
        } else {
            delay
        }
    }

    /// Sleeps [`RetryPolicy::backoff_ms`], but never past `deadline`; the
    /// caller checks the deadline next and words its own error.
    pub(crate) fn backoff(
        &self,
        retry: u32,
        jitter_rng: &Mutex<SplitMix64>,
        deadline: Option<Instant>,
    ) {
        let mut sleep = Duration::from_millis(self.backoff_ms(retry, jitter_rng));
        if let Some(deadline) = deadline {
            sleep = sleep.min(deadline.saturating_duration_since(Instant::now()));
        }
        std::thread::sleep(sleep);
    }
}

/// A dispatch target: a host in this process or a remote agent address.
/// Remote targets carry a persistent [`Client`] built once at gateway
/// construction, so every dispatch (and circuit-breaker probe) reuses
/// pooled keep-alive sockets instead of paying a fresh TCP connect.
#[derive(Clone)]
enum HostRef {
    Local(Arc<HostAgent>),
    Remote { addr: SocketAddr, client: Client },
}

/// A host registration, resolved into a [`HostRef`] at build time so the
/// builder's final clock/seed apply no matter the call order.
enum HostSpec {
    Local,
    Remote(SocketAddr),
}

/// Builder for a [`Gateway`].
pub struct GatewayBuilder {
    store: Arc<FunctionStore>,
    hosts: Vec<(TeePlatform, HostSpec)>,
    policy: BalancePolicy,
    retry: RetryPolicy,
    health: HealthPolicy,
    clock: Arc<dyn Clock>,
    metrics: Arc<MetricsRegistry>,
    seed: u64,
    chaos: Option<Arc<TeeFaultPlan>>,
    rebuild_budget: u32,
    attest: AttestConfig,
    attest_service: Option<Arc<AttestService>>,
}

impl GatewayBuilder {
    /// Adds an in-process host for `platform` (its two VMs boot in
    /// [`GatewayBuilder::build`], with the builder's final seed and clock).
    pub fn local_host(mut self, platform: TeePlatform) -> Self {
        self.hosts.push((platform, HostSpec::Local));
        self
    }

    /// Registers a remote host agent serving `platform` at `addr`.
    pub fn remote_host(mut self, platform: TeePlatform, addr: SocketAddr) -> Self {
        self.hosts.push((platform, HostSpec::Remote(addr)));
        self
    }

    /// Sets the pool balancing policy (default round-robin).
    pub fn policy(mut self, policy: BalancePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the retry/backoff policy (default 3 attempts, 50 ms base).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the circuit-breaker tuning for all pools.
    pub fn health(mut self, health: HealthPolicy) -> Self {
        self.health = health;
        self
    }

    /// Injects the clock driving circuit cooldowns and trace-span
    /// timestamps (tests use [`ManualClock`](crate::ManualClock)).
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Shares an external metrics registry (default: a fresh one, reachable
    /// through [`Gateway::metrics`]).
    pub fn metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets the deterministic seed used for local hosts' VMs and backoff
    /// jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a chaos schedule: local hosts' VM boots and executions
    /// roll against `plan` at every TEE mechanism crossing, exercising the
    /// supervisors' retry/rebuild/quarantine machinery (default: none).
    pub fn chaos(mut self, plan: Arc<TeeFaultPlan>) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Sets the per-VM-slot rebuild budget before quarantine (default
    /// [`DEFAULT_REBUILD_BUDGET`]).
    pub fn rebuild_budget(mut self, budget: u32) -> Self {
        self.rebuild_budget = budget;
        self
    }

    /// Tunes the attestation-session layer (TTL, cache capacity; default
    /// [`AttestConfig::default`]).
    pub fn attest(mut self, config: AttestConfig) -> Self {
        self.attest = config;
        self
    }

    /// Shares a pre-built [`AttestService`] instead of constructing a
    /// private one. The fleet layer passes one service to every shard so
    /// the session cache's single-flight and the collateral refresher's
    /// claim slots span the whole fleet — N shards cold-verifying the same
    /// TCB identity do *one* PCS collateral cycle, not N.
    pub fn attest_service(mut self, service: Arc<AttestService>) -> Self {
        self.attest_service = Some(service);
        self
    }

    /// Shares a pre-built [`FunctionStore`] (default: a fresh empty one).
    /// Fleet shards share one store so every shard fingerprints a function
    /// identically and content addresses agree fleet-wide.
    pub fn store(mut self, store: Arc<FunctionStore>) -> Self {
        self.store = store;
        self
    }

    /// Builds the gateway.
    ///
    /// # Panics
    ///
    /// Panics if no host was added.
    pub fn build(self) -> Gateway {
        assert!(!self.hosts.is_empty(), "gateway needs at least one host");
        let recorder = SpanRecorder::new(Arc::clone(&self.clock));
        let attest = self.attest_service.unwrap_or_else(|| {
            Arc::new(AttestService::new(
                self.seed,
                self.attest,
                Arc::clone(&self.clock),
                Some(&self.metrics),
            ))
        });
        let mut by_platform: HashMap<TeePlatform, Vec<HostRef>> = HashMap::new();
        for (platform, spec) in self.hosts {
            let host = match spec {
                // Local hosts share the gateway's recorder so the whole
                // request tree is stamped on one clock, its metrics
                // registry so supervision counters surface in /v1/metrics,
                // its retry policy for in-supervisor transient backoff, and
                // its attestation service so supervisor rebuilds re-attest
                // through the shared session cache.
                HostSpec::Local => HostRef::Local(Arc::new(HostAgent::with_config(
                    platform,
                    Arc::clone(&self.store),
                    recorder.clone(),
                    HostConfig {
                        seed: self.seed,
                        retry: self.retry,
                        rebuild_budget: self.rebuild_budget,
                        faults: self.chaos.clone(),
                        metrics: Arc::clone(&self.metrics),
                        attest: Some(Arc::clone(&attest)),
                    },
                ))),
                HostSpec::Remote(addr) => HostRef::Remote { addr, client: Client::new(addr) },
            };
            by_platform.entry(platform).or_default().push(host);
        }
        let pools = by_platform
            .into_iter()
            .map(|(platform, hosts)| {
                let pool = TeePool::with_health(
                    hosts,
                    self.policy,
                    self.health,
                    Arc::clone(&self.clock),
                    &self.metrics,
                    &platform.to_string(),
                );
                (platform, pool)
            })
            .collect();
        let counters = GatewayCounters::register(&self.metrics);
        Gateway {
            store: self.store,
            pools,
            retry: self.retry,
            jitter_rng: Mutex::new(SplitMix64::new(self.seed ^ 0x9E37_79B9_7F4A_7C15)),
            metrics: self.metrics,
            recorder,
            counters,
            attest,
        }
    }
}

/// Cached gateway-level instrument handles.
struct GatewayCounters {
    requests: Arc<Counter>,
    failures: Arc<Counter>,
    retries: Arc<Counter>,
    run_ms: Arc<Histogram>,
}

impl GatewayCounters {
    fn register(metrics: &MetricsRegistry) -> Self {
        GatewayCounters {
            requests: metrics.counter("gateway_requests_total"),
            failures: metrics.counter("gateway_requests_failed_total"),
            retries: metrics.counter("gateway_retries_total"),
            run_ms: metrics.histogram("gateway_run_ms", &[1, 10, 100, 1_000, 10_000]),
        }
    }
}

/// Body of `POST /functions`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UploadRequest {
    /// Function name.
    pub name: String,
    /// CBScript source.
    pub script: String,
}

/// The gateway.
///
/// # Example
///
/// ```
/// use confbench::Gateway;
/// use confbench_types::{FunctionSpec, Language, RunRequest, TeePlatform, VmTarget};
///
/// let gateway = Gateway::builder().local_host(TeePlatform::SevSnp).build();
/// let req = RunRequest::new(
///     FunctionSpec::new("fib", Language::LuaJit).arg("15"),
///     VmTarget::secure(TeePlatform::SevSnp),
/// );
/// let result = gateway.run(&req)?;
/// assert_eq!(result.output, "610");
/// # Ok::<(), confbench_types::Error>(())
/// ```
pub struct Gateway {
    store: Arc<FunctionStore>,
    pools: HashMap<TeePlatform, TeePool<HostRef>>,
    retry: RetryPolicy,
    jitter_rng: Mutex<SplitMix64>,
    metrics: Arc<MetricsRegistry>,
    recorder: SpanRecorder,
    counters: GatewayCounters,
    attest: Arc<AttestService>,
}

impl Gateway {
    /// Starts building a gateway.
    pub fn builder() -> GatewayBuilder {
        GatewayBuilder {
            store: Arc::new(FunctionStore::new()),
            hosts: Vec::new(),
            policy: BalancePolicy::RoundRobin,
            retry: RetryPolicy::default(),
            health: HealthPolicy::default(),
            clock: Arc::new(SystemClock),
            metrics: Arc::new(MetricsRegistry::new()),
            seed: 0,
            chaos: None,
            rebuild_budget: DEFAULT_REBUILD_BUDGET,
            attest: AttestConfig::default(),
            attest_service: None,
        }
    }

    /// The attestation-session service (the `/v1/attest` resource).
    pub fn attest(&self) -> &Arc<AttestService> {
        &self.attest
    }

    /// The function database.
    pub fn store(&self) -> &FunctionStore {
        &self.store
    }

    /// The gateway's metrics registry (the daemon's `GET /v1/metrics` sums
    /// it with the fleet's).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Platforms with at least one pooled host.
    pub fn platforms(&self) -> Vec<TeePlatform> {
        let mut v: Vec<TeePlatform> = self.pools.keys().copied().collect();
        v.sort();
        v
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Circuit states of `platform`'s pool members (diagnostics/tests).
    pub fn circuit_states(&self, platform: TeePlatform) -> Option<Vec<CircuitState>> {
        self.pools.get(&platform).map(|p| p.circuit_states())
    }

    /// Completed requests per member of `platform`'s pool.
    pub fn served_counts(&self, platform: TeePlatform) -> Option<Vec<u64>> {
        self.pools.get(&platform).map(|p| p.served_counts())
    }

    /// Dispatches a run request to a host serving its target platform,
    /// retrying transport failures on different healthy members per the
    /// gateway's [`RetryPolicy`], within the request's deadline (if any).
    ///
    /// # Errors
    ///
    /// What [`RunRequest::validate`] refuses, before anything executes
    /// ([`Error::PayloadTooLarge`] above [`confbench_types::MAX_TRIALS`],
    /// [`Error::InvalidRequest`] otherwise); [`Error::NoVmAvailable`] when no pool serves the platform or every
    /// member's circuit is open; [`Error::DeadlineExceeded`] when
    /// `deadline_ms` elapses first; the host's own error when the request
    /// itself is at fault (unknown function, wrong platform); the last
    /// transport error when retries are exhausted.
    ///
    /// On success [`RunResult::trace`] carries the full span tree: a
    /// `gateway.run` root (with `retry_attempt` and counter attributes)
    /// over the executing host's `host.execute` subtree.
    pub fn run(&self, request: &RunRequest) -> Result<RunResult> {
        self.counters.requests.inc();
        let mut root = self.recorder.root("gateway.run");
        match self.dispatch(request, &mut root) {
            Ok(mut result) => {
                if let Some(host_trace) = result.trace.take() {
                    root.adopt(host_trace);
                }
                root.set_attr("vm_exits", result.perf.vm_exits);
                root.set_attr("bounce_bytes", result.perf.bounce_bytes);
                self.counters.run_ms.observe(result.stats.mean_ms.round() as u64);
                result.trace = Some(root.finish());
                Ok(result)
            }
            Err(e) => {
                self.counters.failures.inc();
                Err(e)
            }
        }
    }

    /// The dispatch loop behind [`Gateway::run`] (separated so the span can
    /// be finalized uniformly on both exits).
    fn dispatch(&self, request: &RunRequest, root: &mut ActiveSpan) -> Result<RunResult> {
        request.validate()?;
        // Attestation gate: a live session token skips verification (one
        // cache lookup); a dead one re-verifies through the session cache
        // before the request reaches a pool.
        if request.attest_session.is_some() {
            let mut attest_span = root.child("attest.verify");
            let gate = gate_request(&self.attest, request);
            match &gate {
                Ok(Some(outcome)) => {
                    attest_span.set_attr(
                        "session_cached",
                        u64::from(outcome.source == confbench_attest::SessionSource::CacheHit),
                    );
                    attest_span
                        .set_attr("network_us", (outcome.timing.network_ms * 1_000.0) as u64);
                }
                _ => attest_span.set_attr("failed", 1),
            }
            root.finish_child(attest_span);
            gate?;
        }
        let deadline = request.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let pool = self
            .pools
            .get(&request.target.platform)
            .ok_or_else(|| Error::NoVmAvailable(request.target.to_string()))?;

        let attempts = self.retry.max_attempts.max(1);
        let mut prev: Option<usize> = None;
        let mut last_err: Option<Error> = None;
        for attempt in 0..attempts {
            // Overwritten each pass: the surviving value is the attempt that
            // produced the final outcome (0 = no retries were needed).
            root.set_attr("retry_attempt", u64::from(attempt));
            if attempt > 0 {
                self.counters.retries.inc();
                self.retry.backoff(attempt - 1, &self.jitter_rng, deadline);
            }
            // An expired deadline is final on every dispatch path — local
            // execution can't be cancelled mid-run, so refuse to start it.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(deadline_error(request, last_err.as_ref()));
            }
            let Some(guard) = pool.checkout_healthy_excluding(prev) else {
                return Err(match last_err {
                    Some(e) => e,
                    None => Error::NoVmAvailable(format!(
                        "{}: all pool members have open circuits",
                        request.target
                    )),
                });
            };
            prev = Some(guard.index());
            let outcome = match guard.member() {
                HostRef::Local(host) => host.execute(request),
                HostRef::Remote { addr, client } => match remote_timeout(deadline) {
                    Some(timeout) => dispatch_remote(client, *addr, request, timeout),
                    None => Err(deadline_error(request, last_err.as_ref())),
                },
            };
            match outcome {
                Ok(result) => {
                    pool.report_outcome(&guard, true);
                    return Ok(result);
                }
                Err(e) => {
                    // Classification is centralized on the error type:
                    // member-indicting failures (transport, I/O, TEE
                    // faults) count against the circuit breaker, and any
                    // of them is worth a failover retry — a fatal TEE
                    // fault dooms that member (quarantine), not the
                    // request. Errors that indict neither (unknown
                    // function, invalid request) are final.
                    let member_ok = !e.indicts_member();
                    pool.report_outcome(&guard, member_ok);
                    if !e.is_transient() && member_ok {
                        return Err(e);
                    }
                    last_err = Some(e);
                }
            }
        }
        // The loop ran at least once, and every pass that did not return
        // left an error.
        Err(last_err.unwrap_or_else(|| Error::NoVmAvailable(request.target.to_string())))
    }

    /// Convenience: run the same function on the secure and normal VM of
    /// `platform` and return both results (the paper's core measurement).
    ///
    /// # Errors
    ///
    /// As [`Gateway::run`].
    pub fn run_pair(
        &self,
        mut request: RunRequest,
        platform: TeePlatform,
    ) -> Result<(RunResult, RunResult)> {
        request.target = VmTarget::secure(platform);
        let secure = self.run(&request)?;
        request.target = VmTarget::normal(platform);
        let normal = self.run(&request)?;
        Ok((secure, normal))
    }

    /// Registers the gateway's REST routes, all under `/v1`:
    ///
    /// * `POST /v1/run` — JSON [`RunRequest`] body → [`RunResult`];
    /// * `POST /v1/functions` — JSON [`UploadRequest`] body;
    /// * `GET /v1/functions` — registered names;
    /// * `POST /v1/attest/sessions` — verify a platform, mint a session
    ///   token (JSON [`AttestSessionRequest`] body → 201);
    /// * `GET/DELETE /v1/attest/sessions/{id}` — session status / revoke;
    /// * `POST /v1/attest/sessions/{id}/extend` — extend an e-vTPM runtime
    ///   register, invalidating the session;
    /// * `GET /v1/health`.
    ///
    /// The daemon's one router (`confbench-fleet`) serves them on shard 0.
    pub fn add_routes(self: &Arc<Self>, router: &mut Router) {
        let gw = Arc::clone(self);
        router.add(Method::Post, "/v1/run", move |req, _| match req.body_json::<RunRequest>() {
            Err(e) => Response::error(400, format!("bad request body: {e}")),
            Ok(run_request) => match gw.run(&run_request) {
                Ok(result) => Response::json(&result),
                Err(e) => error_response(&e, &gw.retry),
            },
        });
        let gw = Arc::clone(self);
        router.add(Method::Post, "/v1/functions", move |req, _| {
            match req.body_json::<UploadRequest>() {
                Err(e) => Response::error(400, format!("bad upload body: {e}")),
                Ok(upload) => match gw.store.upload(&upload.name, &upload.script) {
                    Ok(()) => {
                        let mut r = Response::json(&serde_json::json!({"uploaded": upload.name}));
                        r.status = 201;
                        r
                    }
                    Err(e) => {
                        let e = Error::from(e);
                        Response::error(e.rest_status(), e.to_string())
                    }
                },
            }
        });
        let gw = Arc::clone(self);
        router.add(Method::Get, "/v1/functions", move |_, _| Response::json(&gw.store.names()));
        let gw = Arc::clone(self);
        router.add(Method::Post, "/v1/attest/sessions", move |req, _| {
            match req.body_json::<AttestSessionRequest>() {
                Err(e) => Response::error(400, format!("bad attest body: {e}")),
                Ok(body) => match gw.attest.open_session(body.platform, body.nonce) {
                    Ok(outcome) => {
                        let mut r = Response::json(&AttestSessionInfo::from_outcome(&outcome));
                        r.status = 201;
                        r
                    }
                    Err(e) => error_response(&e, &gw.retry),
                },
            }
        });
        let gw = Arc::clone(self);
        router.add(Method::Get, "/v1/attest/sessions/:id", move |_, params| {
            match gw.attest.session(&params["id"]) {
                Some(session) => Response::json(&AttestSessionInfo::from_session(&session)),
                None => Response::error(404, format!("unknown attest session {:?}", params["id"])),
            }
        });
        let gw = Arc::clone(self);
        router.add(Method::Delete, "/v1/attest/sessions/:id", move |_, params| {
            match gw.attest.revoke(&params["id"]) {
                Some(session) => Response::json(&AttestSessionInfo::from_session(&session)),
                None => Response::error(404, format!("unknown attest session {:?}", params["id"])),
            }
        });
        let gw = Arc::clone(self);
        router.add(Method::Post, "/v1/attest/sessions/:id/extend", move |req, params| {
            match req.body_json::<ExtendRequest>() {
                Err(e) => Response::error(400, format!("bad extend body: {e}")),
                Ok(body) => {
                    match gw.attest.extend(&params["id"], body.index, body.data.as_bytes()) {
                        Ok(Some(session)) => {
                            Response::json(&AttestSessionInfo::from_session(&session))
                        }
                        Ok(None) => Response::error(
                            404,
                            format!("unknown attest session {:?}", params["id"]),
                        ),
                        Err(e) => error_response(&e, &gw.retry),
                    }
                }
            }
        });
        router.add(Method::Get, "/v1/health", |_, _| {
            Response::json(&serde_json::json!({"ok": true}))
        });
    }
}

/// Registers `GET /v1/metrics`: Prometheus-style text, or with
/// `?format=json` the JSON snapshot, of whatever `snapshot` gathers.
pub fn add_metrics_route(
    router: &mut Router,
    snapshot: impl Fn() -> RegistrySnapshot + Send + Sync + 'static,
) {
    router.add(Method::Get, "/v1/metrics", move |req, _| {
        if req.query.get("format").map(String::as_str) == Some("json") {
            Response::json(&snapshot())
        } else {
            Response::text(snapshot().render_text())
        }
    });
}

/// Renders a gateway error as a REST response per the shared status table,
/// attaching `Retry-After` to the retryable statuses (503 pool exhaustion /
/// open circuits, 429 queue overflow) so well-behaved clients back off as
/// long as the gateway itself would.
fn error_response(e: &Error, retry: &RetryPolicy) -> Response {
    let status = e.rest_status();
    let mut response = Response::error(status, e.to_string());
    if matches!(status, 503 | 429) {
        response.headers.insert("retry-after".into(), retry.retry_after_secs().to_string());
    }
    response
}

/// The gateway is the scheduler's execution backend: jobs dispatch through
/// the same retry/health/deadline machinery as interactive `/v1/run`
/// requests, and result-cache keys incorporate the stored function's source
/// hash so editing a script invalidates its cached cells.
impl confbench_sched::Executor for Gateway {
    fn execute(&self, request: &RunRequest) -> Result<RunResult> {
        self.run(request)
    }

    fn function_fingerprint(&self, name: &str) -> Option<String> {
        self.store.fingerprint(name).map(|digest| digest.to_string())
    }

    fn would_wait(&self, cell: &confbench_types::CampaignCell) -> bool {
        let function = &cell.function;
        self.store.launch_in_flight(&function.name, cell.language, &function.args)
    }
}

fn deadline_error(request: &RunRequest, last_err: Option<&Error>) -> Error {
    let budget = request.deadline_ms.unwrap_or(0);
    match last_err {
        Some(e) => Error::DeadlineExceeded(format!("{budget}ms budget elapsed; last error: {e}")),
        None => Error::DeadlineExceeded(format!("{budget}ms budget elapsed")),
    }
}

/// Time budget for one remote dispatch: the full remaining deadline, or the
/// 30 s default when the request has none. `None` means already expired.
fn remote_timeout(deadline: Option<Instant>) -> Option<Duration> {
    match deadline {
        None => Some(DEFAULT_REMOTE_TIMEOUT),
        Some(deadline) => {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                None
            } else {
                Some(remaining.min(DEFAULT_REMOTE_TIMEOUT))
            }
        }
    }
}

fn dispatch_remote(
    client: &Client,
    addr: SocketAddr,
    request: &RunRequest,
    timeout: Duration,
) -> Result<RunResult> {
    let http_request = Request::new(Method::Post, "/v1/execute").json(request);
    let response = client
        .send_with_timeout(&http_request, timeout)
        .map_err(|e| Error::Transport(format!("host {addr}: {e}")))?;
    let body = || String::from_utf8_lossy(&response.body).into_owned();
    // Remote agents answer with the shared `Error::rest_status` table, so
    // translate statuses back into the matching typed errors instead of
    // flattening everything into `Transport`.
    match response.status {
        200 => response
            .body_json()
            .map_err(|e| Error::Transport(format!("host {addr} sent bad result: {e}"))),
        // The body holds the rendered message, not the bare name — keep the
        // reconstruction from the request to avoid a doubled prefix.
        404 => Err(Error::UnknownFunction(request.function.name.clone())),
        status => Err(Error::from_rest_status(status, body()).unwrap_or_else(|| {
            Error::Transport(format!("host {addr} returned {status}: {}", body()))
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_types::{FunctionSpec, Language};

    fn request(name: &str, language: Language, platform: TeePlatform) -> RunRequest {
        RunRequest::new(FunctionSpec::new(name, language).arg("360360"), VmTarget::secure(platform))
    }

    /// The gateway's routes plus `/v1/metrics` over its registry, dispatched
    /// without a socket (the daemon's server is `confbench-fleet`'s).
    fn rest(gw: &Arc<Gateway>) -> Router {
        let mut router = Router::new();
        gw.add_routes(&mut router);
        let metrics = Arc::clone(gw.metrics());
        add_metrics_route(&mut router, move || metrics.snapshot());
        router
    }

    #[test]
    fn runs_on_local_host() {
        let gw = Gateway::builder().local_host(TeePlatform::Tdx).build();
        let result = gw.run(&request("factors", Language::Wasm, TeePlatform::Tdx)).unwrap();
        assert_eq!(result.output, "1572480");
    }

    #[test]
    fn missing_platform_reports_no_vm() {
        let gw = Gateway::builder().local_host(TeePlatform::Tdx).build();
        let err = gw.run(&request("factors", Language::Go, TeePlatform::Cca)).unwrap_err();
        assert!(matches!(err, Error::NoVmAvailable(_)));
    }

    #[test]
    fn run_pair_targets_both_kinds() {
        let gw = Gateway::builder().local_host(TeePlatform::SevSnp).build();
        let (secure, normal) = gw
            .run_pair(request("iostress", Language::Go, TeePlatform::SevSnp), TeePlatform::SevSnp)
            .unwrap();
        assert_eq!(secure.target, VmTarget::secure(TeePlatform::SevSnp));
        assert_eq!(normal.target, VmTarget::normal(TeePlatform::SevSnp));
        assert_eq!(secure.output, normal.output);
    }

    #[test]
    fn rest_interface_end_to_end() {
        let router = rest(&Arc::new(Gateway::builder().local_host(TeePlatform::Tdx).build()));

        // Upload (Fig. 2 step 1).
        let upload = Request::new(Method::Post, "/v1/functions").json(&UploadRequest {
            name: "quadruple".into(),
            script: "result(int(ARGS[0]) * 4);".into(),
        });
        assert_eq!(router.dispatch(&upload).status, 201);

        // List includes the upload.
        let names: Vec<String> =
            router.dispatch(&Request::new(Method::Get, "/v1/functions")).body_json().unwrap();
        assert!(names.contains(&"quadruple".to_owned()));

        // Run it (Fig. 2 steps 2-5).
        let run = Request::new(Method::Post, "/v1/run").json(&RunRequest::new(
            FunctionSpec::new("quadruple", Language::Lua).arg("21"),
            VmTarget::secure(TeePlatform::Tdx),
        ));
        let resp = router.dispatch(&run);
        assert_eq!(resp.status, 200);
        let result: RunResult = resp.body_json().unwrap();
        assert_eq!(result.output, "84");

        // Unknown function maps to 404.
        let bad = Request::new(Method::Post, "/v1/run").json(&RunRequest::new(
            FunctionSpec::new("ghost", Language::Lua),
            VmTarget::secure(TeePlatform::Tdx),
        ));
        assert_eq!(router.dispatch(&bad).status, 404);

        // Unpooled platform maps to 503.
        let no_vm = Request::new(Method::Post, "/v1/run").json(&RunRequest::new(
            FunctionSpec::new("quadruple", Language::Lua).arg("1"),
            VmTarget::secure(TeePlatform::Cca),
        ));
        assert_eq!(router.dispatch(&no_vm).status, 503);
    }

    /// `break`/`continue` outside a loop once ran as a no-op in Lua and
    /// failed in LuaJIT and Wasm; upload rejects them now, so all seven
    /// languages of an uploaded script agree.
    #[test]
    fn upload_rejects_break_and_continue_outside_a_loop() {
        let gw = Arc::new(Gateway::builder().local_host(TeePlatform::Tdx).build());
        let router = rest(&gw);
        let upload = |name: &str, script: &str| {
            let request = Request::new(Method::Post, "/v1/functions")
                .json(&UploadRequest { name: name.into(), script: script.into() });
            router.dispatch(&request)
        };
        for (name, script, word) in [
            ("top_break", "let x = 1; break; result(x);", "break"),
            ("fn_continue", "fn f() { continue; return 2; } result(f());", "continue"),
        ] {
            let resp = upload(name, script);
            assert_eq!(resp.status, 400, "{name}");
            let body = String::from_utf8_lossy(&resp.body);
            assert!(body.contains(&format!("{word} outside loop")), "{name}: {body}");
            assert!(gw.store.get(name).is_none(), "{name}");
        }
        let looped = "let s = 0; for i in 0, 9 { if i == 5 { break; } if i % 2 == 0 { continue; } \
                      s = s + i; } result(s);";
        assert_eq!(upload("in_loop", looped).status, 201);
        for language in Language::ALL {
            let result = gw.run(&request("in_loop", language, TeePlatform::Tdx)).unwrap();
            assert_eq!(result.output, "4", "{language}");
        }
    }

    #[test]
    fn remote_host_dispatch_over_http() {
        let store = Arc::new(FunctionStore::new());
        let agent = Arc::new(HostAgent::new(TeePlatform::SevSnp, store, 5));
        let host_server = Arc::clone(&agent).serve().unwrap();

        let gw = Gateway::builder().remote_host(TeePlatform::SevSnp, host_server.addr()).build();
        let result = gw.run(&request("factors", Language::Go, TeePlatform::SevSnp)).unwrap();
        assert_eq!(result.output, "1572480");
    }

    #[test]
    fn remote_unknown_function_maps_back_to_404_error() {
        let store = Arc::new(FunctionStore::new());
        let agent = Arc::new(HostAgent::new(TeePlatform::Tdx, store, 5));
        let host_server = Arc::clone(&agent).serve().unwrap();
        let gw = Gateway::builder().remote_host(TeePlatform::Tdx, host_server.addr()).build();
        let err = gw.run(&request("ghost", Language::Go, TeePlatform::Tdx)).unwrap_err();
        assert!(matches!(err, Error::UnknownFunction(_)), "got {err}");
    }

    #[test]
    fn pool_balances_across_hosts() {
        let gw =
            Gateway::builder().local_host(TeePlatform::Tdx).local_host(TeePlatform::Tdx).build();
        // Two hosts in the TDX pool; round robin must alternate without
        // error across several runs.
        for _ in 0..4 {
            gw.run(&request("factors", Language::Go, TeePlatform::Tdx)).unwrap();
        }
        assert_eq!(gw.platforms(), vec![TeePlatform::Tdx]);
        assert_eq!(gw.served_counts(TeePlatform::Tdx), Some(vec![2, 2]));
    }

    #[test]
    fn retries_fail_over_to_reachable_host() {
        // One dead remote + one live local host: the run must succeed via
        // failover, and the dead member must accumulate a failure.
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let gw = Gateway::builder()
            .remote_host(TeePlatform::Tdx, dead)
            .local_host(TeePlatform::Tdx)
            .retry(RetryPolicy { base_backoff_ms: 1, ..RetryPolicy::default() })
            .build();
        for _ in 0..4 {
            let result = gw.run(&request("factors", Language::Go, TeePlatform::Tdx)).unwrap();
            assert_eq!(result.output, "1572480");
        }
    }

    #[test]
    fn zero_deadline_trips_before_remote_dispatch() {
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let gw = Gateway::builder().remote_host(TeePlatform::Tdx, dead).build();
        let mut req = request("factors", Language::Go, TeePlatform::Tdx);
        req.deadline_ms = Some(0);
        let err = gw.run(&req).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)), "got {err}");
        assert_eq!(err.rest_status(), 400);
    }

    #[test]
    fn zero_deadline_trips_before_local_dispatch_too() {
        // Parity with the remote path: a budget spent before it starts is a
        // malformed request, refused before any execution.
        let gw = Gateway::builder().local_host(TeePlatform::Tdx).build();
        let mut req = request("factors", Language::Go, TeePlatform::Tdx);
        req.deadline_ms = Some(0);
        let err = gw.run(&req).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)), "got {err}");
        let served = gw.served_counts(TeePlatform::Tdx).unwrap();
        assert_eq!(served.iter().sum::<u64>(), 0, "nothing executed");
    }

    #[test]
    fn zero_trials_rejected_as_invalid_request() {
        let gw = Gateway::builder().local_host(TeePlatform::Tdx).build();
        let mut req = request("factors", Language::Go, TeePlatform::Tdx);
        req.trials = 0;
        let err = gw.run(&req).unwrap_err();
        assert!(matches!(err, Error::InvalidRequest(_)), "got {err}");
        assert_eq!(err.rest_status(), 400);
    }

    #[test]
    fn results_carry_the_gateway_span_tree() {
        let gw = Gateway::builder().local_host(TeePlatform::Tdx).build();
        let result = gw.run(&request("factors", Language::Go, TeePlatform::Tdx)).unwrap();
        let trace = result.trace.expect("gateway attaches a trace");
        assert_eq!(trace.name, "gateway.run");
        assert_eq!(trace.attr("retry_attempt"), Some(0));
        assert_eq!(trace.attr("vm_exits"), Some(result.perf.vm_exits));
        assert_eq!(trace.attr("bounce_bytes"), Some(result.perf.bounce_bytes));
        let host = trace.find("host.execute").expect("host subtree adopted");
        assert!(host.find("perf.measure").is_some());
    }

    #[test]
    fn remote_dispatch_round_trips_the_trace() {
        let store = Arc::new(FunctionStore::new());
        let agent = Arc::new(HostAgent::new(TeePlatform::Tdx, store, 5));
        let host_server = Arc::clone(&agent).serve().unwrap();
        let gw = Gateway::builder().remote_host(TeePlatform::Tdx, host_server.addr()).build();
        let result = gw.run(&request("factors", Language::Go, TeePlatform::Tdx)).unwrap();
        let trace = result.trace.expect("trace survives the HTTP hop");
        assert_eq!(trace.name, "gateway.run");
        assert!(trace.find("host.execute").is_some(), "remote subtree adopted");
    }

    #[test]
    fn metrics_count_requests_and_pool_serves() {
        let gw = Gateway::builder().local_host(TeePlatform::Tdx).build();
        gw.run(&request("factors", Language::Go, TeePlatform::Tdx)).unwrap();
        gw.run(&request("ghost", Language::Go, TeePlatform::Tdx)).unwrap_err();
        let m = gw.metrics();
        assert_eq!(m.counter_value("gateway_requests_total"), Some(2));
        assert_eq!(m.counter_value("gateway_requests_failed_total"), Some(1));
        // Pool-served counter equals the pool's own served tally.
        let served: u64 = gw.served_counts(TeePlatform::Tdx).unwrap().iter().sum();
        assert_eq!(m.counter_value("pool_served_total{platform=\"tdx\"}"), Some(served));
    }

    #[test]
    fn v1_metrics_endpoint_serves_text_and_json() {
        let router = rest(&Arc::new(Gateway::builder().local_host(TeePlatform::Tdx).build()));

        let run = Request::new(Method::Post, "/v1/run").json(&request(
            "factors",
            Language::Go,
            TeePlatform::Tdx,
        ));
        assert_eq!(router.dispatch(&run).status, 200);

        let text = router.dispatch(&Request::new(Method::Get, "/v1/metrics"));
        assert_eq!(text.status, 200);
        let body = String::from_utf8(text.body).unwrap();
        assert!(body.contains("gateway_requests_total 1"), "text exposition:\n{body}");
        assert!(body.contains("pool_served_total{platform=\"tdx\"} 1"), "text exposition:\n{body}");

        let json = router.dispatch(&Request::new(Method::Get, "/v1/metrics?format=json"));
        assert_eq!(json.status, 200);
        let snap: confbench_obs::RegistrySnapshot = json.body_json().unwrap();
        assert_eq!(snap.counters.get("gateway_requests_total"), Some(&1));
    }

    #[test]
    fn bare_paths_answer_404() {
        let router = rest(&Arc::new(Gateway::builder().local_host(TeePlatform::Tdx).build()));
        for (method, path) in [
            (Method::Post, "/run"),
            (Method::Post, "/functions"),
            (Method::Get, "/functions"),
            (Method::Post, "/attest/sessions"),
            (Method::Get, "/attest/sessions/as-1"),
            (Method::Get, "/metrics"),
            (Method::Get, "/health"),
        ] {
            assert_eq!(router.dispatch(&Request::new(method, path)).status, 404, "{path}");
        }
        assert_eq!(router.dispatch(&Request::new(Method::Get, "/v1/health")).status, 200);
    }

    #[test]
    fn backoff_doubles_to_the_ceiling_and_jitters_within_its_upper_half() {
        let rng = Mutex::new(SplitMix64::new(1));
        let plain = RetryPolicy {
            max_attempts: 9,
            base_backoff_ms: 50,
            max_backoff_ms: 300,
            jitter: false,
        };
        assert_eq!([0, 1, 2, 3, 63].map(|r| plain.backoff_ms(r, &rng)), [50, 100, 200, 300, 300]);
        let huge = RetryPolicy { base_backoff_ms: u64::MAX, max_backoff_ms: u64::MAX, ..plain };
        assert_eq!(huge.backoff_ms(20, &rng), u64::MAX, "the doubling cannot wrap");
        let jittered = RetryPolicy { jitter: true, ..plain };
        // The un-jittered calls above drew nothing: these are the stream's
        // first three draws, pinned so that the generator cannot drift.
        assert_eq!([0, 1, 2].map(|r| jittered.backoff_ms(r, &rng)), [44, 84, 159]);
        for retry in 0..8 {
            let (delay, full) = (jittered.backoff_ms(retry, &rng), plain.backoff_ms(retry, &rng));
            assert!((full / 2..=full).contains(&delay), "retry {retry}: {delay} vs {full}");
        }
    }
}
