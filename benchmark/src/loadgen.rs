//! The load generator: one process, at most `nproc` threads, one
//! keep-alive connection per thread, real loopback sockets, `/v1` only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use confbench_httpd::{Client, Method, Request, Response};
use confbench_types::{CampaignReceipt, CampaignSpec, CampaignStatus, JobStatus, RunResult};
use serde::Deserialize;

use crate::daemon::Daemon;
use crate::spec::RunStream;
use crate::stats::Sample;
use crate::trace::Tracer;

/// Threads (and connections) the generator may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.attempted += n;
        self.failed += n;
        if self.errors.len() < 8 {
            self.errors.push(why.into());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(8);
    }
}

/// One keep-alive connection. Counts correct answers; with a tracer, each
/// exchange is a `loadgen.http` span.
pub struct Conn {
    client: Client,
    pub answered: u64,
    /// Answers that refused admission with a 429.
    pub refused: u64,
    pub tracer: Option<Tracer>,
}

impl Conn {
    pub fn open(daemon: &Daemon, traced_since: Option<Instant>) -> Conn {
        Conn {
            client: daemon.client(),
            answered: 0,
            refused: 0,
            tracer: traced_since.map(Tracer::since),
        }
    }

    /// Sends `request` and requires `status`.
    pub fn exchange(&mut self, request: &Request, status: u16) -> Result<Response, String> {
        let client = &self.client;
        let send = || client.send(request);
        let response = match &mut self.tracer {
            Some(t) => t.span("loadgen.http", |_| send()),
            None => send(),
        }
        .map_err(|e| format!("{} {}: {e}", request.method, request.path))?;
        if response.status != status {
            self.refused += u64::from(response.status == 429);
            return Err(format!(
                "{} {}: status {} (wanted {status}): {}",
                request.method,
                request.path,
                response.status,
                String::from_utf8_lossy(&response.body[..response.body.len().min(120)])
            ));
        }
        self.answered += 1;
        Ok(response)
    }

    pub fn get<T: serde::de::DeserializeOwned>(&mut self, path: &str) -> Result<T, String> {
        let response = self.exchange(&Request::new(Method::Get, path), 200)?;
        response.body_json().map_err(|e| format!("GET {path}: undecodable body: {e}"))
    }

    pub fn post<T: serde::de::DeserializeOwned>(
        &mut self,
        path: &str,
        body: &impl serde::Serialize,
        status: u16,
    ) -> Result<T, String> {
        let response = self.exchange(&Request::new(Method::Post, path).json(body), status)?;
        response.body_json().map_err(|e| format!("POST {path}: undecodable body: {e}"))
    }

    /// Runs `f` as one operation: with a tracer, a `loadgen.op` span whose
    /// children are the operation's exchanges, all sharing `request` as id.
    pub fn operation<T>(&mut self, request: u64, f: impl FnOnce(&mut Conn) -> T) -> T {
        let open = self.tracer.as_mut().map(|t| {
            t.set_request(request);
            t.begin("loadgen.op")
        });
        let out = f(self);
        if let (Some(t), Some(id)) = (&mut self.tracer, open) {
            t.end(id);
        }
        out
    }
}

/// How a client waits for a campaign it submitted.
#[derive(Debug, Clone, Copy)]
pub enum Wait {
    /// Sleep, then fetch the whole status, until every cell is terminal.
    /// For cold campaigns, which take seconds.
    Status(Duration),
    /// Watch the campaign's last job (`GET /v1/jobs/{id}`, a 1 KB body) at
    /// this interval, and fetch the whole status once that job is terminal.
    /// For memoized campaigns, which take milliseconds: a status fetched
    /// too early costs the daemon a render of every finished cell under the
    /// scheduler's lock and the client the decoding of it, so with bare
    /// status polls an operation took 8 ms or 12 ms depending on whether
    /// the first poll came late enough, and the share of each kind moved
    /// with the machine.
    LastJob(Duration),
}

/// Submits `spec` to a gateway and waits until every cell is terminal,
/// counting the status fetches into `polls`.
pub fn watch_campaign(
    conn: &mut Conn,
    spec: &CampaignSpec,
    wait: Wait,
    polls: &mut usize,
) -> Result<CampaignStatus, String> {
    let receipt: CampaignReceipt = conn.post("/v1/campaigns", spec, 202)?;
    if receipt.jobs != spec.cell_count() {
        return Err(format!("receipt admits {} of {} cells", receipt.jobs, spec.cell_count()));
    }
    let path = format!("/v1/campaigns/{}", receipt.id);
    let interval = match wait {
        Wait::Status(interval) => interval,
        Wait::LastJob(interval) => {
            // Jobs are numbered in expansion order and one worker serves
            // the platform's queue in that order.
            let last = format!("/v1/jobs/{}-j{}", receipt.id, receipt.jobs - 1);
            while !conn.get::<JobStatus>(&last)?.state.is_terminal() {
                std::thread::sleep(interval);
            }
            Duration::ZERO
        }
    };
    loop {
        std::thread::sleep(interval);
        let status: CampaignStatus = conn.get(&path)?;
        *polls += 1;
        if status.is_done() {
            return Ok(status);
        }
    }
}

/// `POST /v1/fleet/campaigns` receipt and `GET /v1/fleet/campaigns/{id}`
/// progress, as fleetd prints them.
#[derive(Debug, Deserialize)]
pub struct FleetProgress {
    pub total: usize,
    pub done: usize,
    pub complete: bool,
}

/// `GET /v1/fleet`.
#[derive(Debug, Deserialize)]
pub struct FleetView {
    pub shards: Vec<FleetShard>,
    pub steals: u64,
}

#[derive(Debug, Deserialize)]
pub struct FleetShard {
    pub cache_misses: u64,
    pub queue_depth: usize,
}

/// `POST /v1/migrations` report.
#[derive(Debug, Deserialize)]
pub struct Migration {
    pub precopy_rounds: u32,
    pub precopy_pages: u64,
    pub stopcopy_pages: u64,
    pub pages_total: u64,
    pub downtime_us: u64,
    pub wire_bytes: usize,
    pub frames: usize,
}

/// As [`watch_campaign`], against fleetd, whose progress body carries
/// counts only. Returns the cells done.
pub fn watch_fleet_campaign(
    conn: &mut Conn,
    spec: &CampaignSpec,
    interval: Duration,
) -> Result<u64, String> {
    let receipt: CampaignReceipt = conn.post("/v1/fleet/campaigns", spec, 200)?;
    if receipt.jobs != spec.cell_count() {
        return Err(format!("receipt admits {} of {} cells", receipt.jobs, spec.cell_count()));
    }
    let path = format!("/v1/fleet/campaigns/{}", receipt.id);
    loop {
        if !interval.is_zero() {
            std::thread::sleep(interval);
        }
        let progress: FleetProgress = conn.get(&path)?;
        if progress.complete {
            if progress.done != progress.total || progress.total != receipt.jobs {
                return Err(format!("complete at {}/{} cells", progress.done, progress.total));
            }
            return Ok(progress.done as u64);
        }
    }
}

/// The sample of an operation that began at `from` and ends now.
pub fn sample(window: Instant, from: Instant) -> Sample {
    let now = Instant::now();
    ((now - window).as_secs_f64() * 1e6, (now - from).as_secs_f64() * 1e6)
}

/// Checks one `/v1/run` answer against the request that caused it and the
/// native evaluation of its function.
fn check_run(stream: &RunStream, index: u64, result: &RunResult) -> Result<(), String> {
    let request = stream.request(index);
    let want = stream.expected_output(index);
    if result.function != request.function.name
        || result.language != request.function.language
        || result.target != request.target
    {
        return Err(format!("run#{index}: answer is for another request"));
    }
    if result.output != want {
        return Err(format!(
            "run#{index} {}({}): output {:?}, native evaluation gives {want:?}",
            request.function.name, request.function.args[0], result.output
        ));
    }
    if result.trial_cycles.len() != 1 || result.trial_ms.len() != 1 {
        return Err(format!("run#{index}: wanted one trial, got {}", result.trial_ms.len()));
    }
    Ok(())
}

/// What the `/v1/run` loops share: the stream, where results of the checked
/// prefix go, and the daemon whose memory is sampled.
pub struct RunLoop<'a> {
    pub daemon: &'a Daemon,
    /// When the measured window opened: samples are stamped against it.
    pub window: Instant,
    pub stream: &'a RunStream,
    /// Results of requests `0..prefix` are kept for the sim digest.
    pub prefix: u64,
    /// Where in the stream the closed loop starts.
    pub first_index: u64,
    pub traced_since: Option<Instant>,
}

/// Per-thread results of a `/v1/run` loop, merged.
#[derive(Default)]
pub struct RunSamples {
    /// Per-request latency (closed loop: send → answer; open loop: due time
    /// → answer).
    pub latency: Vec<Sample>,
    /// Open loop only: how late the generator itself sent a request it was
    /// free to send on time, µs.
    pub generator_late_us: Vec<f64>,
    /// Open loop only: (due time, how long the request waited for a free
    /// sender), both µs, for the backlog check.
    pub queued_us: Vec<(f64, f64)>,
    pub answered: u64,
    pub refused: u64,
    pub tally: Tally,
    pub prefix: Vec<(u64, RunResult)>,
    pub tracer: Tracer,
    /// Peak RSS of the daemon when request `rss_at` was claimed, MiB.
    pub rss_mb: f64,
}

impl RunSamples {
    fn merge(&mut self, other: RunSamples) {
        self.latency.extend(other.latency);
        self.generator_late_us.extend(other.generator_late_us);
        self.queued_us.extend(other.queued_us);
        self.answered += other.answered;
        self.refused += other.refused;
        self.tally.merge(other.tally);
        self.prefix.extend(other.prefix);
        self.tracer.absorb(other.tracer);
        self.rss_mb = self.rss_mb.max(other.rss_mb);
    }
}

impl RunLoop<'_> {
    /// Sends request `index`, checks the answer, records the sample.
    fn one(&self, conn: &mut Conn, index: u64, from: Instant, out: &mut RunSamples) {
        let request = self.stream.request(index);
        let answer: Result<RunResult, String> =
            conn.operation(index, |c| c.post("/v1/run", &request, 200));
        out.latency.push(sample(self.window, from));
        match answer.and_then(|r| check_run(self.stream, index, &r).map(|()| r)) {
            Ok(mut result) => {
                out.tally.ok(1);
                if index < self.prefix {
                    result.trace = None;
                    out.prefix.push((index, result));
                }
            }
            Err(why) => out.tally.fail(1, why),
        }
    }

    /// Warms `daemon` up before timing: `count` requests in a closed loop,
    /// from a range of the stream that no measured request uses. Fails on
    /// the first wrong answer.
    pub fn warm_up(daemon: &Daemon, stream: &RunStream, count: u64) -> Result<(), String> {
        let run = RunLoop {
            daemon,
            window: Instant::now(),
            stream,
            prefix: 0,
            first_index: 1 << 48,
            traced_since: None,
        };
        let warmed = run.closed(run.window, count);
        warmed.tally.errors.first().map_or(Ok(()), |why| Err(why.clone()))
    }

    fn threads(&self, body: impl Fn(&mut Conn, &mut RunSamples) + Sync) -> RunSamples {
        let mut all = RunSamples::default();
        std::thread::scope(|scope| {
            let senders: Vec<_> = (0..nproc())
                .map(|_| {
                    scope.spawn(|| {
                        let mut conn = Conn::open(self.daemon, self.traced_since);
                        let mut out = RunSamples::default();
                        body(&mut conn, &mut out);
                        out.answered = conn.answered;
                        out.refused = conn.refused;
                        out.tracer = conn.tracer.take().unwrap_or_default();
                        out
                    })
                })
                .collect();
            for sender in senders {
                all.merge(sender.join().expect("a sender does not panic"));
            }
        });
        all.prefix.sort_by_key(|(i, _)| *i);
        all
    }

    /// Closed loop: every thread sends its next request as soon as the
    /// previous one is answered, until `deadline` has passed and at least
    /// `min_requests` were claimed. The daemon's peak RSS is sampled when
    /// request `min_requests - 1` is claimed, so the memory metric covers
    /// the same amount of work on every run.
    pub fn closed(&self, deadline: Instant, min_requests: u64) -> RunSamples {
        let next = AtomicU64::new(0);
        self.threads(|conn, out| loop {
            let claimed = next.fetch_add(1, Ordering::Relaxed);
            if claimed >= min_requests && Instant::now() >= deadline {
                return;
            }
            if claimed + 1 == min_requests {
                out.rss_mb = self.daemon.peak_rss_mb();
            }
            self.one(conn, self.first_index + claimed, Instant::now(), out);
        })
    }

    /// Open loop: requests `first_index..` become due at `schedule[j]`
    /// nanoseconds after the call; a free sender waits for the next due
    /// time, a busy one picks it up late. Latency counts from the due time.
    pub fn open(&self, schedule: &[u64], first_index: u64) -> RunSamples {
        let next = AtomicU64::new(0);
        let started = Instant::now();
        let mut all = self.threads(|conn, out| loop {
            let free_at = Instant::now();
            let slot = next.fetch_add(1, Ordering::Relaxed) as usize;
            let Some(&due_ns) = schedule.get(slot) else {
                return;
            };
            let due = started + Duration::from_nanos(due_ns);
            wait_until(due);
            let sent = Instant::now();
            let could_send = due.max(free_at);
            out.generator_late_us.push((sent - could_send).as_secs_f64() * 1e6);
            out.queued_us.push((due_ns as f64 / 1e3, (could_send - due).as_secs_f64() * 1e6));
            self.one(conn, first_index + slot as u64, due, out);
        });
        all.rss_mb = self.daemon.peak_rss_mb();
        all
    }
}

/// Sleeps to shortly before `due`, then spins: `thread::sleep` alone
/// overshoots by tens of microseconds, which an open loop would report as
/// its own lateness.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Whether requests waited longer for a free sender at the end of a stage
/// than at its start: the sign of a backlog that grows, i.e. an offered
/// rate the server does not sustain. Compares the median wait of the last
/// tenth of the schedule with that of the first tenth, with 1 ms of slack.
pub fn backlog_growing(queued_us: &mut [(f64, f64)]) -> bool {
    queued_us.sort_by(|a, b| a.0.total_cmp(&b.0));
    let tenth = queued_us.len() / 10;
    if tenth == 0 {
        return false;
    }
    let wait = |part: &[(f64, f64)]| {
        crate::stats::median(&part.iter().map(|(_, w)| *w).collect::<Vec<_>>())
    };
    wait(&queued_us[queued_us.len() - tenth..]) > wait(&queued_us[..tenth]) + 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_flag_needs_a_rising_wait() {
        let mut flat: Vec<(f64, f64)> = (0..100).map(|i| (f64::from(i), 300.0)).collect();
        assert!(!backlog_growing(&mut flat));
        let mut rising: Vec<(f64, f64)> =
            (0..100).rev().map(|i| (f64::from(i), f64::from(i) * 100.0)).collect();
        assert!(backlog_growing(&mut rising));
        assert!(!backlog_growing(&mut []));
    }

    #[test]
    fn wait_until_does_not_return_early() {
        let due = Instant::now() + Duration::from_millis(3);
        wait_until(due);
        let late = Instant::now() - due;
        assert!(late < Duration::from_millis(2), "generator ran {late:?} late");
    }
}
