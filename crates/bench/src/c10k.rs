//! C10k-style reactor stress: request latency percentiles as a function of
//! open keep-alive connection count.
//!
//! One `confbench-httpd` server instance holds 100 / 1k / 5k / 10k idle
//! keep-alive connections while a measurement loop issues requests across
//! them; the table reports p50/p95/p99 latency plus the server's thread
//! count at each level. Under the old thread-per-connection design the 5k
//! and 10k points were unreachable (each idle socket pinned a 16 MiB-stack
//! worker); here they are reactor state, and the server runs `WORKERS + 1`
//! threads at every level. The run fails if that count differs or a round
//! trip fails, so the smoke run checks the property, not only prints it.
//!
//! `Scale::Quick` runs the 100/1k points with a smaller sample for CI.
//! Levels are clamped to the process's open-files limit (each in-process
//! connection costs two fds), so constrained runners measure what they can
//! instead of dying on `EMFILE`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use confbench_httpd::{Method, Response, Router, Server, ServerConfig};
use confbench_stats::table;
use confbench_types::{Error, Result};

use crate::{ExperimentConfig, Scale};

const WORKERS: usize = 8;

/// Runs the stress and prints the table; wall-clock latencies, so the seed
/// is unused and the output is not golden.
pub fn render(cfg: ExperimentConfig, out: &mut dyn Write) -> Result<()> {
    let (samples, levels): (usize, &[usize]) = match cfg.scale {
        Scale::Quick => (400, &[100, 1_000]),
        Scale::Paper => (2_000, &[100, 1_000, 5_000, 10_000]),
    };

    let baseline_threads = thread_count();
    let mut router = Router::new();
    router.add(Method::Get, "/ok", |_, _| Response::text("ok"));
    let config = ServerConfig {
        workers: WORKERS,
        backlog: 32 << 10,
        keep_alive_idle: Duration::from_secs(300),
        max_requests_per_conn: u64::MAX,
        ..ServerConfig::default()
    };
    let server = Server::build(router).config(config).spawn("127.0.0.1:0")?;
    let addr = server.addr();
    let fd_budget = (open_files_limit().saturating_sub(128)) / 2;

    writeln!(
        out,
        "=== C10k: latency vs open keep-alive connections (one server, {WORKERS} workers) ===\n"
    )?;
    let headers: Vec<String> = ["connections", "p50", "p95", "p99", "server threads"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    for &level in levels {
        let target = level.min(fd_budget);
        if target < level {
            writeln!(out, "[clamp] {level} connections → {target} (open-files limit)")?;
        }
        if target == 0 {
            continue;
        }
        let mut conns = (0..target)
            .map(|_| {
                let stream = TcpStream::connect(addr)?;
                stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                stream.set_nodelay(true)?;
                Ok(stream)
            })
            .collect::<io::Result<Vec<TcpStream>>>()?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while (server.active_connections() as usize) < target {
            if Instant::now() >= deadline {
                return Err(Error::Transport(format!(
                    "only {}/{target} connections admitted",
                    server.active_connections()
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        // Warm every socket once so the measured rounds never see a cold
        // first-request path, then measure round-robin across a spread of
        // the open connections (every socket idles between its turns —
        // exactly the keep-alive pattern that used to pin workers).
        let failed =
            |e: io::Error| Error::Transport(format!("round trip at {target} connections: {e}"));
        for stream in conns.iter_mut() {
            roundtrip(stream).map_err(failed)?;
        }
        let stride = (target / 64).max(1);
        let mut latencies = Vec::with_capacity(samples);
        for i in 0..samples {
            let stream = &mut conns[(i * stride) % target];
            let start = Instant::now();
            roundtrip(stream).map_err(failed)?;
            latencies.push(start.elapsed());
        }
        latencies.sort_unstable();
        let threads = thread_count().saturating_sub(baseline_threads);
        if threads != WORKERS + 1 {
            return Err(Error::Transport(format!(
                "server runs {threads} threads at {target} connections, not {} (workers + 1)",
                WORKERS + 1
            )));
        }
        rows.push(vec![
            target.to_string(),
            format_us(percentile(&latencies, 50.0)),
            format_us(percentile(&latencies, 95.0)),
            format_us(percentile(&latencies, 99.0)),
            threads.to_string(),
        ]);
        drop(conns);
        // Let the reactor reap the closed sockets before the next level.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    writeln!(out, "{}", table(&headers, &rows))?;
    writeln!(
        out,
        "paper shape: latency percentiles stay flat as idle keep-alive\n\
         connections grow 100 → 10k, and the server's thread count stays\n\
         O(workers) — idle sockets are reactor state, not threads."
    )?;
    server.shutdown();
    Ok(())
}

/// One GET /ok request + response on a keep-alive socket.
fn roundtrip(stream: &mut TcpStream) -> io::Result<()> {
    stream.write_all(b"GET /ok HTTP/1.1\r\n\r\n")?;
    let mut out = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed keep-alive socket mid-response",
            ));
        }
        out.extend_from_slice(&buf[..n]);
        if let Some(pos) = out.windows(4).position(|w| w == b"\r\n\r\n") {
            if out.len() >= pos + 4 + 2 {
                // body is "ok"
                return Ok(());
            }
        }
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn format_us(d: Duration) -> String {
    format!("{:.0} µs", d.as_secs_f64() * 1e6)
}

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| l.strip_prefix("Threads:")).map(str::trim).map(str::to_owned)
        })
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn open_files_limit() -> usize {
    std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|limits| {
            limits
                .lines()
                .find(|l| l.starts_with("Max open files"))
                .and_then(|l| l.split_whitespace().nth(3).map(str::to_owned))
        })
        .and_then(|soft| soft.parse().ok())
        .unwrap_or(256)
}
