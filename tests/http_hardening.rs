//! End-to-end coverage of the hardened HTTP layer: malicious framing is
//! rejected with the right statuses, keep-alive reuses sockets across the
//! CLI→gateway and gateway→host hops, and worker-pool saturation answers
//! `503` with `Retry-After` instead of spawning threads. That the server's
//! thread count stays bounded is `thread_counts.rs`'s: it counts every
//! thread of its test binary, so it cannot share one with these tests.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use confbench::{FunctionStore, Gateway, HostAgent};
use confbench_fleet::{Fleet, FleetConfig};
use confbench_httpd::{Client, Method, Request, Server, ServerConfig};
use confbench_types::{FunctionSpec, Language, RunRequest, TeePlatform, VmTarget};

/// The daemon at its default one shard, with a TDX host, serving its
/// router with the connection layer `http`.
fn daemon(http: ServerConfig) -> (Arc<Fleet>, Server) {
    let fleet = Arc::new(Fleet::new(FleetConfig {
        shards: 1,
        seed: 3,
        platforms: vec![TeePlatform::Tdx],
        ..FleetConfig::default()
    }));
    let server = fleet.serve_on("127.0.0.1:0", http).unwrap();
    (fleet, server)
}

/// Writes raw bytes to the server and returns everything it answers until
/// it closes the connection.
fn raw_roundtrip(addr: std::net::SocketAddr, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = stream.write_all(payload);
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

#[test]
fn slow_loris_header_flood_is_cut_off_with_431() {
    let (_fleet, server) = daemon(ServerConfig::default());
    // A slow-loris client never finishes its header block; the server must
    // give up at the header-count cap instead of reading (and buffering)
    // forever. 150 headers exceeds the cap of 100.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = stream.write_all(b"GET /v1/health HTTP/1.1\r\n");
    for i in 0..150 {
        // The server may answer and close mid-flood; ignore write errors.
        if stream.write_all(format!("x-drip-{i}: zzzz\r\n").as_bytes()).is_err() {
            break;
        }
    }
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 431"), "got {out:?}");
    assert!(out.contains("connection: close"));
}

#[test]
fn oversized_request_line_is_rejected_431() {
    let (_fleet, server) = daemon(ServerConfig::default());
    let request = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(16 << 10));
    let out = raw_roundtrip(server.addr(), request.as_bytes());
    assert!(out.starts_with("HTTP/1.1 431"), "got {out:?}");
}

#[test]
fn oversized_single_header_is_rejected_431() {
    let (_fleet, server) = daemon(ServerConfig::default());
    let request = format!("GET /v1/health HTTP/1.1\r\nx-big: {}\r\n\r\n", "b".repeat(16 << 10));
    let out = raw_roundtrip(server.addr(), request.as_bytes());
    assert!(out.starts_with("HTTP/1.1 431"), "got {out:?}");
}

#[test]
fn malformed_content_length_is_rejected_400() {
    let (_fleet, server) = daemon(ServerConfig::default());
    for bad in ["nope", "-5", "1e3", "18446744073709551616"] {
        let request = format!("POST /v1/run HTTP/1.1\r\ncontent-length: {bad}\r\n\r\n");
        let out = raw_roundtrip(server.addr(), request.as_bytes());
        assert!(out.starts_with("HTTP/1.1 400"), "content-length {bad:?} got {out:?}");
    }
}

#[test]
fn duplicate_content_length_is_rejected_400() {
    let (_fleet, server) = daemon(ServerConfig::default());
    let request = b"POST /v1/run HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 7\r\n\r\nabc";
    let out = raw_roundtrip(server.addr(), request);
    assert!(out.starts_with("HTTP/1.1 400"), "got {out:?}");
    assert!(out.contains("duplicate content-length"), "got {out:?}");
}

#[test]
fn cli_to_gateway_hop_reuses_one_socket() {
    let (fleet, server) = daemon(ServerConfig::default());
    let client = Client::new(server.addr());
    for _ in 0..6 {
        let resp = client.send(&Request::new(Method::Get, "/v1/health")).unwrap();
        assert_eq!(resp.status, 200);
    }
    // The fleet shares its registry with the listener, so `httpd_*`
    // instruments are part of `/v1/metrics`.
    let metrics = fleet.metrics();
    assert_eq!(metrics.counter_value("httpd_connections_total"), Some(1));
    assert_eq!(metrics.counter_value("httpd_requests_total"), Some(6));
    assert_eq!(metrics.counter_value("httpd_keepalive_reuse_total"), Some(5));
    assert_eq!(client.reused_connections(), 5);
}

#[test]
fn connection_close_is_honored_end_to_end() {
    let (fleet, server) = daemon(ServerConfig::default());
    let client = Client::new(server.addr());
    let mut req = Request::new(Method::Get, "/v1/health");
    req.headers.insert("connection".into(), "close".into());
    let resp = client.send(&req).unwrap();
    assert_eq!(resp.headers.get("connection").map(String::as_str), Some("close"));
    assert_eq!(client.pooled_connections(), 0);
    client.send(&Request::new(Method::Get, "/v1/health")).unwrap();
    assert_eq!(fleet.metrics().counter_value("httpd_connections_total"), Some(2));
}

#[test]
fn idle_timeout_closes_socket_and_client_recovers() {
    let (fleet, server) = daemon(ServerConfig {
        keep_alive_idle: Duration::from_millis(60),
        ..ServerConfig::default()
    });
    let client = Client::new(server.addr());
    client.send(&Request::new(Method::Get, "/v1/health")).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    // The server idled the socket out; the pooled client must notice the
    // stale socket and transparently retry on a fresh connection.
    let resp = client.send(&Request::new(Method::Get, "/v1/health")).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(client.stale_retries(), 1);
    assert_eq!(fleet.metrics().counter_value("httpd_connections_total"), Some(2));
}

#[test]
fn gateway_to_host_hop_reuses_pooled_connections() {
    // A remote host agent; the gateway's dispatch client must hold a
    // keep-alive socket to it instead of reconnecting per request.
    let agent = Arc::new(HostAgent::new(TeePlatform::Tdx, Arc::new(FunctionStore::new()), 7));
    let backend = Arc::clone(&agent).serve().unwrap();
    let gateway = Gateway::builder().seed(7).remote_host(TeePlatform::Tdx, backend.addr()).build();
    let req = RunRequest::new(
        FunctionSpec::new("factors", Language::Go).arg("360360"),
        VmTarget::secure(TeePlatform::Tdx),
    );
    for _ in 0..8 {
        assert_eq!(gateway.run(&req).unwrap().output, "1572480");
    }
    let metrics = backend.metrics();
    assert_eq!(metrics.counter_value("httpd_connections_total"), Some(1), "one socket, reused");
    assert_eq!(metrics.counter_value("httpd_requests_total"), Some(8));
    assert_eq!(metrics.counter_value("httpd_keepalive_reuse_total"), Some(7));
}

#[test]
fn saturated_gateway_answers_503_with_retry_after() {
    let (fleet, server) =
        daemon(ServerConfig { workers: 1, backlog: 1, ..ServerConfig::default() });
    // Occupy the single worker with a connection that never sends its
    // request (the worker blocks in the first read)…
    let hold_worker = TcpStream::connect(server.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.active_connections() == 0 {
        assert!(Instant::now() < deadline, "worker never picked up the connection");
        std::thread::sleep(Duration::from_millis(2));
    }
    // …and fill the single backlog slot with a second idle connection.
    let hold_backlog = TcpStream::connect(server.addr()).unwrap();
    while server.backlog_depth() == 0 {
        assert!(Instant::now() < deadline, "connection never reached the backlog");
        std::thread::sleep(Duration::from_millis(2));
    }
    // A real request now gets backpressure, with the Retry-After hint
    // derived from the gateway's own retry policy.
    let resp = Client::new(server.addr()).send(&Request::new(Method::Get, "/v1/health")).unwrap();
    assert_eq!(resp.status, 503);
    assert_eq!(
        resp.headers.get("retry-after").map(String::as_str),
        Some(fleet.gateway().retry_policy().retry_after_secs().to_string().as_str())
    );
    assert_eq!(fleet.metrics().counter_value("httpd_rejected_total"), Some(1));
    drop(hold_worker);
    drop(hold_backlog);
}

#[test]
fn partial_request_read_timeout_answers_408() {
    let (_fleet, server) =
        daemon(ServerConfig { read_timeout: Duration::from_millis(80), ..ServerConfig::default() });
    // Half a request then silence: the read deadline must answer 408 +
    // close instead of cutting the socket without a word.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(b"POST /v1/run HTTP/1.1\r\ncontent-le").unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert!(out.starts_with("HTTP/1.1 408"), "got {out:?}");
    assert!(out.contains("connection: close"), "got {out:?}");
}
