//! The five workloads, end to end: each starts fresh daemons, drives them
//! over `/v1` for `--seconds`, checks every answer, and reports what a
//! user of the system would see.
//!
//! A workload stops when `--seconds` have passed *and* its fixed minimum
//! of work is done. The minimum covers the checked prefix (the operations
//! whose simulated outputs are folded into the sim digest) and ends at the
//! point where the daemon's peak memory is sampled, so both are taken over
//! the same work on every run, however fast the machine is.
//!
//! Set-up is everything before timing starts: daemon spawn → first 200 on
//! its health path → a fixed warm-up of the workload's own kind, a quarter
//! to half a second of the daemon's own work. It happens several times per
//! run and `setup_s` is the quiet decile, as for every other time: of ten
//! set-ups or fewer, the best.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use confbench_types::{CampaignStatus, CellSummary};

use crate::check::SimLog;
use crate::daemon::{Binaries, Daemon};
use crate::loadgen::{
    backlog_growing, sample, watch_campaign, watch_fleet_campaign, Conn, FleetView, Migration,
    RunLoop, RunSamples, Tally, Wait,
};
use crate::spec::{
    arrival_schedule, daemon_seed, fig6_spec, Matrix, RunStream, Scale, OPEN_LIMIT_US, OPEN_RATES,
    WARM_UP_CAMPAIGN,
};
use crate::stats::{median, percentile, quiet, Sample, Summary};
use crate::trace::Tracer;

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub bins: Binaries,
    /// Record `loadgen.*` spans around operations and exchanges.
    pub client_spans: bool,
}

impl Config {
    /// Set-ups per run of a workload that measures on one daemon.
    /// (Workloads that measure in epochs set up once per epoch.)
    fn setup_reps(&self) -> usize {
        match self.scale {
            Scale::Full => 7,
            Scale::Smoke => 1,
        }
    }

    fn traced_since(&self) -> Option<Instant> {
        self.client_spans.then(Instant::now)
    }

    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Daemon spawn → healthy → warmed up, quiet decile of the set-ups.
    pub setup_s: f64,
    /// Campaign cells that reached a terminal state (a `/v1/run` request is
    /// a one-cell campaign).
    pub cells: u64,
    /// Requests answered with the expected status and a decodable body, and
    /// requests refused with a 429.
    pub requests: u64,
    pub refused: u64,
    /// Latency of the workload's named operation.
    pub latency: Vec<Sample>,
    /// Samples per slice of the latency summary (see [`Summary`]).
    pub per_slice: usize,
    /// The percentile printed as `p99_us`: 99 where a slice leaves ten
    /// samples beyond it and operations differ in the work they ask for,
    /// 50 (the operation time again) elsewhere.
    pub tail: f64,
    /// Open loop only: how long the arrival schedule lasted, seconds. The
    /// achieved rate is then operations ÷ this; a high quantile of slice
    /// rates would sit above the offered rate by the schedule's burstiness.
    pub schedule_s: Option<f64>,
    pub tally: Tally,
    /// Daemon `VmHWM` when the workload's fixed minimum of work was done.
    pub peak_rss_mb: f64,
    pub sim: SimLog,
    /// Workload-specific diagnostics and daemon counters, for the traced
    /// run's per-layer report.
    pub counts: BTreeMap<&'static str, f64>,
    /// `loadgen.*` spans, when the run recorded them.
    pub tracer: Tracer,
}

impl Outcome {
    fn new(per_slice: usize, tail: f64) -> Outcome {
        Outcome { per_slice, tail, ..Outcome::default() }
    }

    pub fn latency(&self) -> Summary {
        Summary::of(&self.latency, self.per_slice)
    }

    /// Operations per second: the quiet-decile rate, or for an open loop
    /// the achieved rate over its schedule.
    pub fn rate_per_s(&self, latency: &Summary) -> f64 {
        match self.schedule_s {
            Some(seconds) => latency.n as f64 / seconds,
            None => latency.rate_per_s,
        }
    }

    fn absorb_conn(&mut self, conn: Conn) {
        self.requests += conn.answered;
        self.refused += conn.refused;
        if let Some(tracer) = conn.tracer {
            self.tracer.absorb(tracer);
        }
    }
}

/// Samples per slice of a `/v1/run` loop: 0.4 s of the closed loop, and ten
/// samples beyond a slice's p99.
const RUN_SLICE: usize = 1000;

/// Samples per slice of memoized resubmissions, 0.4 s as well, and of
/// single migrations.
const MEMO_SLICE: usize = 50;

/// Samples per slice of an open-loop stage: 0.3 s at the lowest rate.
const OPEN_SLICE: usize = 100;

/// The daemon's arguments after `--listen`: `args` and the `--seed`
/// derived from the benchmark's.
fn daemon_args(cfg: &Config, args: &[&str]) -> Vec<String> {
    let seed = daemon_seed(cfg.seed).to_string();
    args.iter().chain(&["--seed", &seed]).map(|a| (*a).to_owned()).collect()
}

const GATEWAY_ARGS: [&str; 4] = ["--platforms", "tdx", "--queue-capacity", "4096"];

fn spawn_gateway(cfg: &Config) -> Result<Daemon, String> {
    Daemon::spawn(&cfg.bins.gateway, &daemon_args(cfg, &GATEWAY_ARGS), "/v1/health")
}

/// One set-up of a gateway: spawn, healthy, `warm_up`. Returns the daemon
/// and how long that took, seconds.
fn set_up_gateway(
    cfg: &Config,
    warm_up: impl Fn(&Daemon) -> Result<(), String>,
) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let daemon = spawn_gateway(cfg)?;
    warm_up(&daemon)?;
    Ok((daemon, started.elapsed().as_secs_f64()))
}

/// Sets a gateway up `setup_reps` times and keeps the last: the daemon to
/// measure on, and the quiet decile of the set-up times.
fn start_gateway(
    cfg: &Config,
    warm_up: impl Fn(&Daemon) -> Result<(), String>,
) -> Result<(Daemon, f64), String> {
    let mut took = Vec::new();
    loop {
        let (daemon, setup_s) = set_up_gateway(cfg, &warm_up)?;
        took.push(setup_s);
        if took.len() == cfg.setup_reps() {
            return Ok((daemon, quiet(&took)));
        }
    }
}

/// One set-up of fleetd: spawn, healthy (it serves no `/v1/health`; its
/// shard table answers for it), and the warm-up campaign.
fn set_up_fleet(cfg: &Config) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let daemon =
        Daemon::spawn(&cfg.bins.fleetd, &daemon_args(cfg, &["--shards", "3"]), "/v1/fleet")?;
    watch_fleet_campaign(&mut Conn::open(&daemon, None), &warm_up_spec(cfg), WARM_UP_POLL)?;
    Ok((daemon, started.elapsed().as_secs_f64()))
}

/// The campaign a daemon that will run campaigns is warmed up with: the
/// Fig. 6 matrix at quick scale (350 cells, 0.45 s), with a campaign seed
/// no measured campaign has, so that its cells share no cache key with
/// theirs.
fn warm_up_spec(cfg: &Config) -> confbench_types::CampaignSpec {
    fig6_spec(Matrix::for_fleet(cfg.scale), cfg.seed, WARM_UP_CAMPAIGN)
}

fn warm_up_campaign(cfg: &Config) -> impl Fn(&Daemon) -> Result<(), String> + '_ {
    |daemon| {
        let spec = warm_up_spec(cfg);
        let mut conn = Conn::open(daemon, None);
        watch_campaign(&mut conn, &spec, Wait::LastJob(WARM_UP_POLL), &mut 0).map(|_| ())
    }
}

/// Polling interval on warm-up campaigns.
const WARM_UP_POLL: Duration = Duration::from_millis(2);

/// Polling interval on cold gateway campaigns. Fixed, so that polling costs
/// the daemon the same on every run, and long, because a status poll
/// renders every finished cell under the scheduler's lock: at 10 ms the
/// polling itself slowed the campaign by a quarter.
const POLL: Duration = Duration::from_millis(50);

/// How often a memoized gateway campaign's last job is looked at: a
/// fiftieth of the operation.
const JOB_POLL: Duration = Duration::from_micros(200);

/// Polling interval on cold fleet campaigns, whose progress body is 50
/// bytes.
const FLEET_POLL: Duration = Duration::from_millis(10);

/// Daemon counters at the end of a gateway workload, from
/// `GET /v1/metrics?format=json`.
fn gateway_counters(conn: &mut Conn, counts: &mut BTreeMap<&'static str, f64>) {
    let Ok(snapshot) = conn.get::<serde_json::Value>("/v1/metrics?format=json") else {
        return;
    };
    let counter = |prefix: &str| -> f64 {
        snapshot.get("counters").and_then(|c| c.as_object()).map_or(0.0, |map| {
            map.iter()
                .filter(|(name, _)| name.split('{').next() == Some(prefix))
                .filter_map(|(_, v)| v.as_f64())
                .fold(0.0, |sum, v| sum + v)
        })
    };
    let requests = counter("httpd_requests_total");
    let hits = counter("sched_cache_hits_total");
    let misses = counter("sched_cache_misses_total");
    counts.insert("httpd.requests", requests);
    counts.insert(
        "httpd.conn_reuse_share",
        counter("httpd_keepalive_reuse_total") / requests.max(1.0),
    );
    counts.insert("httpd.rejected", counter("httpd_rejected_total"));
    counts.insert("sched.cache_hits", hits);
    counts.insert("sched.cache_misses", misses);
    counts.insert("sched.cache_hit_share", hits / (hits + misses).max(1.0));
    counts.insert("sched.cache_evictions", counter("sched_cache_evictions_total"));
    counts.insert("confbench.pool_checkouts", counter("pool_checkouts_total"));
    counts.insert("confbench.retries", counter("gateway_retries_total"));
    counts.insert("confbench.vm_rebuilds", counter("vm_rebuilds_total"));
    counts.insert("attest.cache_hits", counter("attest_cache_hits_total"));
    counts.insert("attest.collateral_fetches", counter("attest_collateral_refresh_total"));
}

/// Every cell completed, and all cells of one function — whatever the
/// language and VM kind — printed the same output.
fn check_campaign(status: &CampaignStatus, tally: &mut Tally) {
    let mut outputs: BTreeMap<&str, &str> = BTreeMap::new();
    let disagree = status
        .cells
        .iter()
        .filter(|c| *outputs.entry(&c.cell.function.name).or_insert(&c.output) != c.output)
        .count();
    let failed = (status.total_jobs - status.completed + disagree).min(status.total_jobs) as u64;
    if failed > 0 {
        tally.fail(
            failed,
            format!(
                "campaign {}: {} of {} cells completed, {disagree} outputs differ across languages",
                status.id, status.completed, status.total_jobs
            ),
        );
    }
    tally.ok(status.total_jobs as u64 - failed);
}

/// The simulated part of a cell: what must be equal between the cold
/// execution and every memoized answer.
fn same_cell(a: &CellSummary, b: &CellSummary) -> bool {
    a.cache_key == b.cache_key
        && a.cell == b.cell
        && a.output == b.output
        && [a.mean_ms, a.median_ms, a.min_ms, a.max_ms, a.stddev_ms].map(f64::to_bits)
            == [b.mean_ms, b.median_ms, b.min_ms, b.max_ms, b.stddev_ms].map(f64::to_bits)
}

/// `fig6_cold`: the paper's Fig. 6 matrix on TDX, submitted cold, campaign
/// after campaign (each with its own campaign seed, so nothing is cached)
/// until the window has passed at the end of one. Campaigns run to their
/// end: cells differ a hundredfold in cost, so a window closing inside a
/// campaign would count whichever cells happened to come first.
/// Operation: one campaign, submit → terminal status.
pub fn fig6_cold(cfg: &Config) -> Result<Outcome, String> {
    let (daemon, setup_s) = start_gateway(cfg, warm_up_campaign(cfg))?;
    // A window holds a handful of campaigns: each is a slice of its own,
    // and no percentile but the operation time itself is supported.
    let mut out = Outcome { setup_s, ..Outcome::new(1, 50.0) };
    let mut conn = Conn::open(&daemon, cfg.traced_since());
    let matrix = Matrix::for_gateway(cfg.scale);
    let started = Instant::now();
    let mut polls = 0;
    for index in 0.. {
        let spec = fig6_spec(matrix, cfg.seed, index);
        let asked = Instant::now();
        let status =
            conn.operation(index, |c| watch_campaign(c, &spec, Wait::Status(POLL), &mut polls))?;
        out.latency.push(sample(started, asked));
        out.cells += status.terminal_jobs() as u64;
        check_campaign(&status, &mut out.tally);
        if index == 0 {
            status.cells.iter().for_each(|c| out.sim.cell(c));
            out.peak_rss_mb = daemon.peak_rss_mb();
        }
        if started.elapsed() >= cfg.window() {
            break;
        }
    }
    gateway_counters(&mut conn, &mut out.counts);
    out.counts.insert("loadgen.polls", polls as f64);
    out.absorb_conn(conn);
    Ok(out)
}

/// `fig6_memo`: epochs, each on a fresh daemon. An epoch is one cold fill
/// of the quick-scale Fig. 6 matrix (the warm-up, counted in `setup_s`) and
/// then a fixed number of resubmissions of the identical spec over one
/// connection, closed loop. Operation: submit → terminal status, see
/// [`Wait::LastJob`].
///
/// The gateway keeps every finished campaign (0.45 MB each), so a
/// resubmission costs more the more came before it. With a fixed number per
/// daemon, the k-th operation of an epoch meets the same daemon on every
/// machine, and the window only decides how many epochs there are; it
/// closes at the end of an epoch.
pub fn fig6_memo(cfg: &Config) -> Result<Outcome, String> {
    // Every operation is the same work: the spread of their latencies is
    // the sandbox's and the order in which two threads take a lock, not the
    // program's (p90 stays 1.2 × p50 whatever the machine does), so the
    // operation time is all that is reported, as for `fig6_cold`; p90 is
    // the per-layer `sched.resubmit_p90_us`.
    let mut out = Outcome::new(MEMO_SLICE, 50.0);
    let spec = fig6_spec(Matrix::for_memo(cfg.scale), cfg.seed, 0);
    let cells = spec.cell_count();
    let ops_per_epoch = match cfg.scale {
        Scale::Full => 200,
        Scale::Smoke => 20,
    };
    let run_started = Instant::now();
    let mut measuring = MeasuringClock::default();
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let mut polls = 0usize;
    let mut op = 0u64;
    while op == 0 || run_started.elapsed() < cfg.window() {
        let set_up_started = Instant::now();
        let daemon = spawn_gateway(cfg)?;
        let fill = watch_campaign(
            &mut Conn::open(&daemon, None),
            &spec,
            Wait::LastJob(WARM_UP_POLL),
            &mut 0,
        )?;
        setups.push(set_up_started.elapsed().as_secs_f64());
        if op == 0 {
            check_campaign(&fill, &mut out.tally);
            fill.cells.iter().for_each(|c| out.sim.cell(c));
        }
        let mut conn = Conn::open(&daemon, cfg.traced_since());
        let epoch = measuring.epoch();
        for _ in 0..ops_per_epoch {
            op += 1;
            let asked = Instant::now();
            let status = conn
                .operation(op, |c| watch_campaign(c, &spec, Wait::LastJob(JOB_POLL), &mut polls))?;
            out.latency.push(sample(epoch.window_opened, asked));
            out.cells += status.terminal_jobs() as u64;
            if status.cache_hits != cells {
                out.tally
                    .fail(cells as u64, format!("resubmission {op}: {} hits", status.cache_hits));
            } else if !status.cells.iter().zip(&fill.cells).all(|(a, b)| same_cell(a, b)) {
                out.tally
                    .fail(cells as u64, format!("resubmission {op}: cells differ from the fill"));
            } else {
                out.tally.ok(cells as u64);
            }
        }
        measuring.close(epoch);
        rss.push(daemon.peak_rss_mb());
        out.counts.clear();
        gateway_counters(&mut conn, &mut out.counts);
        out.absorb_conn(conn);
    }
    out.setup_s = quiet(&setups);
    out.peak_rss_mb = median(&rss);
    out.counts.insert("loadgen.polls", polls as f64);
    out.counts.insert("sched.resubmit_p90_us", out.latency().p90);
    Ok(out)
}

/// The clock the samples of an epoch workload are stamped on: measuring
/// time only, as if the epochs followed one another without the set-ups
/// between them, so that a slice's rate is operations over the time they
/// took.
#[derive(Default)]
struct MeasuringClock {
    measured: Duration,
}

struct Epoch {
    started: Instant,
    /// When the window would have opened had nothing but measuring
    /// happened since.
    window_opened: Instant,
}

impl MeasuringClock {
    fn epoch(&self) -> Epoch {
        let started = Instant::now();
        Epoch { started, window_opened: started - self.measured }
    }

    fn close(&mut self, epoch: Epoch) {
        self.measured += epoch.started.elapsed();
    }
}

/// Requests of the `/v1/run` stream whose results go into the sim digest.
fn run_prefix(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 256,
        Scale::Smoke => 64,
    }
}

fn absorb_run(out: &mut Outcome, samples: RunSamples) {
    out.cells += samples.tally.attempted - samples.tally.failed;
    out.requests += samples.answered;
    out.refused += samples.refused;
    out.latency.extend(samples.latency);
    out.tally.merge(samples.tally);
    for (index, result) in &samples.prefix {
        out.sim.run(*index, result);
    }
    out.tracer.absorb(samples.tracer);
}

/// Requests a gateway that will serve `/v1/run` is warmed up with: a
/// quarter of a second of the closed loop, from a range of the stream no
/// measured request uses.
const WARM_UP_REQUESTS: u64 = 512;

/// Sets up the gateway of a `/v1/run` workload.
fn start_run(cfg: &Config, stream: &RunStream) -> Result<(Daemon, f64), String> {
    start_gateway(cfg, |daemon| RunLoop::warm_up(daemon, stream, WARM_UP_REQUESTS))
}

/// `run_closed`: `/v1/run` requests over the rotation of 16 light cells,
/// closed loop on `nproc` keep-alive connections. Operation: one request.
pub fn run_closed(cfg: &Config) -> Result<Outcome, String> {
    let stream = RunStream::new(cfg.seed);
    let (daemon, setup_s) = start_run(cfg, &stream)?;
    let mut out = Outcome { setup_s, ..Outcome::new(RUN_SLICE, 99.0) };
    let prefix = run_prefix(cfg.scale);
    let min_requests = match cfg.scale {
        Scale::Full => 4096,
        Scale::Smoke => prefix,
    };
    let started = Instant::now();
    let run = RunLoop {
        daemon: &daemon,
        window: started,
        stream: &stream,
        prefix,
        first_index: 0,
        traced_since: cfg.traced_since(),
    };
    let samples = run.closed(started + cfg.window(), min_requests);
    out.peak_rss_mb = samples.rss_mb;
    absorb_run(&mut out, samples);
    gateway_counters(&mut Conn::open(&daemon, None), &mut out.counts);
    Ok(out)
}

/// One open-loop stage at `OPEN_RATES[stage]`, lasting `seconds`.
fn open_stage(
    run: &RunLoop<'_>,
    seed: u64,
    stage: usize,
    seconds: f64,
    first_index: u64,
) -> RunSamples {
    run.open(&arrival_schedule(seed, stage as u64, OPEN_RATES[stage], seconds), first_index)
}

/// Diagnostics of one open-loop stage.
pub struct StageReport {
    pub latency: Summary,
    pub generator_late_p99_us: f64,
    pub backlog_growing: bool,
    /// Share of requests answered later than the limit, from due time.
    pub over_limit_share: f64,
}

impl StageReport {
    fn of(samples: &mut RunSamples) -> StageReport {
        let n = samples.latency.len().max(1) as f64;
        StageReport {
            latency: Summary::of(&samples.latency, OPEN_SLICE),
            generator_late_p99_us: {
                samples.generator_late_us.sort_by(f64::total_cmp);
                percentile(&samples.generator_late_us, 99.0)
            },
            backlog_growing: backlog_growing(&mut samples.queued_us),
            over_limit_share: samples.latency.iter().filter(|s| s.1 > OPEN_LIMIT_US).count() as f64
                / n,
        }
    }

    /// Whether the stage is a result about the server at all: a generator
    /// that itself ran more than 1 ms late at p99 measured its own timer.
    pub fn generator_limited(&self) -> bool {
        self.generator_late_p99_us > 1_000.0
    }

    /// Whether the server sustained the offered rate within the limit.
    pub fn sustained(&self) -> bool {
        !self.generator_limited() && !self.backlog_growing && self.latency.p99 <= OPEN_LIMIT_US
    }
}

/// `run_open`: the `/v1/run` stream on an open loop at the lowest rate of
/// the ladder for the whole window. Operation: one request, timed from its
/// due time. With client spans on (the traced run) the higher rates of the
/// ladder run as well, each as long, for the `loadgen.*` diagnostics.
pub fn run_open(cfg: &Config) -> Result<Outcome, String> {
    let stream = RunStream::new(cfg.seed);
    let (daemon, setup_s) = start_run(cfg, &stream)?;
    let mut out = Outcome { setup_s, ..Outcome::new(OPEN_SLICE, 99.0) };
    let run = RunLoop {
        daemon: &daemon,
        window: Instant::now(),
        stream: &stream,
        prefix: run_prefix(cfg.scale),
        first_index: 0,
        traced_since: cfg.traced_since(),
    };

    let mut samples = open_stage(&run, cfg.seed, 0, cfg.seconds, 0);
    let base = StageReport::of(&mut samples);
    out.schedule_s = Some(cfg.seconds);
    out.peak_rss_mb = samples.rss_mb;
    absorb_run(&mut out, samples);
    out.counts.insert("loadgen.late_p99_us", base.generator_late_p99_us);
    out.counts.insert("loadgen.backlog_growing", f64::from(u8::from(base.backlog_growing)));
    out.counts.insert("loadgen.over_limit_share", base.over_limit_share);
    out.counts.insert("loadgen.generator_limited", f64::from(u8::from(base.generator_limited())));

    if cfg.client_spans {
        // Stages past the first use request indices of their own, far from
        // the checked prefix.
        let ladder = RunLoop { prefix: 0, traced_since: None, ..run };
        let mut sustained = if base.sustained() { OPEN_RATES[0] } else { 0 };
        for (stage, key) in [(1, "loadgen.mid_rate_p99_us"), (2, "loadgen.high_rate_p99_us")] {
            let mut samples =
                open_stage(&ladder, cfg.seed, stage, cfg.seconds, (stage as u64 + 1) << 32);
            let report = StageReport::of(&mut samples);
            out.tally.merge(samples.tally);
            out.counts.insert(key, report.latency.p99);
            if report.sustained() {
                sustained = sustained.max(OPEN_RATES[stage]);
            }
        }
        out.counts.insert("loadgen.sustained_rate", f64::from(sustained));
    }
    gateway_counters(&mut Conn::open(&daemon, None), &mut out.counts);
    Ok(out)
}

/// `fleet_mixed`: epochs of a fixed number of rounds, each epoch against a
/// fresh `confbench-fleetd --shards 3`. A round is a quick-scale Fig. 6
/// campaign with a seed of its own (cold), the same spec again (memoized),
/// then migrations alternating TDX and SEV-SNP. Operation: one round.
/// (Single migrations take 0.3 to 3 ms depending on whether they meet the
/// pump thread's harvest; their percentiles are per-layer diagnostics.)
///
/// The pump thread's harvest re-reads every shard's whole result cache, so
/// a round costs more the more came before it: the k-th round of an epoch
/// meets the same fleet on every machine, an epoch is one slice of the
/// summary, and the window closes at the end of an epoch.
pub fn fleet_mixed(cfg: &Config) -> Result<Outcome, String> {
    let (rounds_per_epoch, migrations_per_round) = match cfg.scale {
        Scale::Full => (4, 100),
        Scale::Smoke => (1, 10),
    };
    // A slice of four rounds supports no percentile but their median.
    let mut out = Outcome::new(rounds_per_epoch as usize, 50.0);
    let matrix = Matrix::for_fleet(cfg.scale);
    let run_started = Instant::now();
    let mut measuring = MeasuringClock::default();
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let mut blackout_us = Vec::new();
    let mut migrations = Vec::new();
    let mut wire_bytes = 0u64;
    while setups.is_empty() || run_started.elapsed() < cfg.window() {
        let (daemon, setup_s) = set_up_fleet(cfg)?;
        setups.push(setup_s);
        let first_epoch = setups.len() == 1;
        let mut conn = Conn::open(&daemon, cfg.traced_since());
        let mut executed = warm_up_spec(cfg).cell_count() as u64;
        let mut steals = 0;
        let epoch = measuring.epoch();
        for round in 0..rounds_per_epoch {
            let round_started = Instant::now();
            let spec = fig6_spec(matrix, cfg.seed, round);
            let cells = spec.cell_count() as u64;
            let cold = conn.operation(round, |c| watch_fleet_campaign(c, &spec, FLEET_POLL))?;
            let memo = conn.operation(round, |c| watch_fleet_campaign(c, &spec, Duration::ZERO))?;
            out.cells += cold + memo;
            out.tally.ok(cold);

            // A memoized campaign reads as complete from the harvest while
            // its jobs still sit in the shards' queues. Migrations are timed
            // on a fleet that has drained them: overlapping the two made the
            // migration median flip between a contended and an idle mode.
            let view = loop {
                let view: FleetView = conn.get("/v1/fleet")?;
                if view.shards.iter().all(|s| s.queue_depth == 0) {
                    break view;
                }
                std::thread::sleep(Duration::from_millis(1));
            };
            // The shards' miss counters sum to the cells ever executed: the
            // memoized pass must not have added any.
            executed += cells;
            let misses: u64 = view.shards.iter().map(|s| s.cache_misses).sum();
            if misses == executed {
                out.tally.ok(memo);
            } else {
                out.tally
                    .fail(memo, format!("round {round}: {misses} executions, wanted {executed}"));
            }
            steals = view.steals;
            let checked = first_epoch && round == 0;
            if checked {
                out.sim.record(&format!("round#0 cold={cold} memo={memo} executions={misses}"));
            }

            for i in 0..migrations_per_round {
                let platform = if i % 2 == 0 { "tdx" } else { "sev-snp" };
                let asked = Instant::now();
                let answer: Result<Migration, String> = conn.operation(round, |c| {
                    c.post("/v1/migrations", &serde_json::json!({ "platform": platform }), 200)
                });
                migrations.push(sample(epoch.window_opened, asked));
                match answer {
                    Ok(m)
                        if m.pages_total == m.precopy_pages + m.stopcopy_pages && m.frames >= 4 =>
                    {
                        out.tally.ok(1);
                        blackout_us.push(m.downtime_us as f64);
                        wire_bytes += m.wire_bytes as u64;
                        if checked {
                            out.sim.record(&format!(
                                "migration#{i} {platform} precopy_rounds={} precopy_pages={} \
                                 stopcopy_pages={} pages_total={} wire_bytes={} frames={}",
                                m.precopy_rounds,
                                m.precopy_pages,
                                m.stopcopy_pages,
                                m.pages_total,
                                m.wire_bytes,
                                m.frames
                            ));
                        }
                    }
                    Ok(m) => out.tally.fail(1, format!("migration {i}: inconsistent report {m:?}")),
                    Err(why) => out.tally.fail(1, why),
                }
            }
            out.latency.push(sample(epoch.window_opened, round_started));
        }
        measuring.close(epoch);
        rss.push(daemon.peak_rss_mb());
        // Counters of the last epoch; bytes on the wire of all of them.
        out.counts.insert("fleet.steals", steals as f64);
        out.counts.insert("fleet.executions", executed as f64);
        out.absorb_conn(conn);
    }
    out.setup_s = quiet(&setups);
    out.peak_rss_mb = median(&rss);
    out.counts.insert("fleet.wire_bytes", wire_bytes as f64);
    out.counts.insert("fleet.blackout_us", median(&blackout_us));
    let migrations = Summary::of(&migrations, MEMO_SLICE);
    out.counts.insert("fleet.migrate_p50_us", migrations.p50);
    out.counts.insert("fleet.migrate_p90_us", migrations.p90);
    Ok(out)
}

/// Runs the named workload.
pub fn run(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        "fig6_cold" => fig6_cold(cfg),
        "fig6_memo" => fig6_memo(cfg),
        "run_closed" => run_closed(cfg),
        "run_open" => run_open(cfg),
        "fleet_mixed" => fleet_mixed(cfg),
        other => Err(format!("unknown workload {other:?} (one of {:?})", crate::spec::WORKLOADS)),
    }
}
