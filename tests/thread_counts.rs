//! Thread counts stay what they are configured to be: the HTTP server's
//! under connection stress and with idle keep-alive connections far past
//! its worker count, and the daemon's campaign drivers whatever platforms
//! it boots.
//!
//! The tests read every thread of the process (`Threads:` in
//! `/proc/self/status`, or the names under `/proc/self/task`). They have
//! this test binary to themselves, and take [`SERIAL`] so that none counts
//! another's threads; anything else that starts threads belongs in another
//! binary.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use confbench_fleet::{daemon, DRIVER_THREAD};
use confbench_httpd::{Client, Method, Request, Response, Router, Server, ServerConfig};

/// Held for the whole of each test.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test must not fail the other one too.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

/// Connection stress must not grow the server beyond its fixed pool: the
/// old thread-per-connection design added one 16 MiB-stack thread per
/// client; the worker pool adds none.
#[test]
fn thread_count_stays_bounded_under_stress() {
    let _serial = serial();
    const WORKERS: usize = 4;
    const CLIENTS: usize = 24;
    let before_spawn = thread_count();
    let mut router = Router::new();
    router.add(Method::Get, "/ok", |_, _| Response::text("ok"));
    let config = ServerConfig { workers: WORKERS, backlog: 8, ..ServerConfig::default() };
    let server = Server::build(router).config(config).spawn("127.0.0.1:0").unwrap();
    let addr = server.addr();
    let serving = before_spawn + WORKERS + 1; // workers + accept thread

    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let client = Client::new(addr).timeout(Duration::from_secs(5));
                let mut ok = 0u32;
                for _ in 0..5 {
                    // Saturation 503s and resets are acceptable under
                    // stress; unbounded thread growth is not.
                    if let Ok(resp) = client.send(&Request::new(Method::Get, "/ok")) {
                        if resp.status == 200 {
                            ok += 1;
                        }
                    }
                }
                ok
            })
        })
        .collect();
    let mut peak = 0;
    for _ in 0..20 {
        peak = peak.max(thread_count());
        std::thread::sleep(Duration::from_millis(5));
    }
    let served: u32 = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert!(served > 0, "stress run served nothing");
    assert!(
        peak <= serving + CLIENTS + 2,
        "server spawned per-connection threads: peak {peak}, \
         expected <= {serving} serving + {CLIENTS} clients"
    );

    // After the stress drains, only the fixed pool remains.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = thread_count();
        if now <= serving {
            break;
        }
        assert!(Instant::now() < deadline, "threads did not drain: {now} > {serving}");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_count() > before_spawn {
        assert!(
            Instant::now() < deadline,
            "server threads survived shutdown: {} > {before_spawn}",
            thread_count()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The process's soft open-files limit, for clamping connection-scale
/// tests to what the environment (CI runners included) actually allows.
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

/// Reads exactly one HTTP response (headers + `body`) off a keep-alive
/// socket without waiting for a close.
fn read_keep_alive_response(stream: &mut TcpStream, body: &str) -> String {
    let mut out = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf).expect("read response");
        assert!(n > 0, "server closed a keep-alive connection mid-response");
        out.extend_from_slice(&buf[..n]);
        let text = String::from_utf8_lossy(&out);
        if let Some(pos) = text.find("\r\n\r\n") {
            if text[pos + 4..].len() >= body.len() {
                return text.into_owned();
            }
        }
    }
}

/// The reactor's core scaling property: idle keep-alive connections cost
/// state, not threads. N ≫ workers sockets stay open simultaneously, every
/// one of them still serves requests, and the thread count stays O(workers).
#[test]
fn idle_keepalive_connections_scale_past_worker_count() {
    let _serial = serial();
    const WORKERS: usize = 4;
    // Each in-process connection consumes two fds (client + server end);
    // leave slack for the binary's own files. 600 is plenty to dwarf the
    // 4-thread pool; the 5k/10k points live in the c10k bench.
    let n = 600.min((open_files_limit().saturating_sub(64)) / 2);
    assert!(n > WORKERS * 8, "fd limit too low to make the test meaningful: {n}");

    let mut router = Router::new();
    router.add(Method::Get, "/ok", |_, _| Response::text("ok"));
    let config = ServerConfig {
        workers: WORKERS,
        backlog: 16 << 10,
        keep_alive_idle: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let server = Server::build(router).config(config).spawn("127.0.0.1:0").unwrap();
    let addr = server.addr();
    let before = thread_count();

    let mut conns: Vec<TcpStream> = (0..n)
        .map(|_| {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            stream
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    while (server.active_connections() as usize) < n {
        assert!(
            Instant::now() < deadline,
            "only {} connections admitted",
            server.active_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // All open at once, yet no thread was spawned per connection.
    assert!(
        thread_count() <= before + 1,
        "threads grew with idle connections: {} > {before}",
        thread_count()
    );

    // Two rounds of requests over every connection: each socket stays
    // keep-alive across rounds and every request completes.
    for round in 0..2u32 {
        for stream in conns.iter_mut() {
            stream.write_all(b"GET /ok HTTP/1.1\r\n\r\n").unwrap();
            let resp = read_keep_alive_response(stream, "ok");
            assert!(resp.starts_with("HTTP/1.1 200"), "round {round}: got {resp:?}");
        }
        assert!(
            thread_count() <= before + 1,
            "threads grew while serving {} connections: {} > {before}",
            n,
            thread_count()
        );
    }
    let metrics = server.metrics();
    assert_eq!(metrics.counter_value("httpd_requests_total"), Some(2 * n as u64));
    assert_eq!(metrics.counter_value("httpd_connections_total"), Some(n as u64));
    assert_eq!(metrics.counter_value("httpd_keepalive_reuse_total"), Some(n as u64));

    drop(conns);
    server.shutdown();
}

/// Threads of this process named as fleet drivers.
fn driver_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    tasks
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.trim_end() == DRIVER_THREAD)
        })
        .count()
}

/// The daemon runs exactly `--workers` campaign driver threads, in one pool
/// for every platform: a TDX-only daemon keeps no idle SEV-SNP or CCA
/// driver, and a three-platform one no driver per platform.
#[test]
fn the_daemon_runs_exactly_workers_driver_threads_whatever_its_platforms() {
    let _serial = serial();
    for (platforms, workers) in [("tdx", 1), ("tdx", 3), ("tdx,sev-snp,cca", 2)] {
        let args = format!("--listen 127.0.0.1:0 --platforms {platforms} --workers {workers}");
        let config = daemon::config(args.split_whitespace().map(str::to_owned).collect()).unwrap();
        let (fleet, server) = daemon::start(config).unwrap();
        // A spawned thread takes its name as it starts running, which may
        // be after `start` returns: wait for the names, then count exactly.
        let deadline = Instant::now() + Duration::from_secs(5);
        while driver_threads() < workers && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(driver_threads(), workers, "--platforms {platforms} --workers {workers}");
        server.shutdown();
        fleet.shutdown();
        let deadline = Instant::now() + Duration::from_secs(5);
        while driver_threads() > 0 {
            assert!(Instant::now() < deadline, "drivers survived shutdown");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
