//! A minimal HTTP/1.1 framework.
//!
//! The real ConfBench gateway is built on the Axum web framework (paper
//! §III-B). It is not available offline, so this crate supplies the
//! equivalent substrate from scratch over `std::net`:
//!
//! * [`Request`] / [`Response`] — HTTP/1.1 messages with JSON helpers and
//!   hardened framing (size-capped request lines and headers, strict
//!   `content-length` parsing);
//! * [`Router`] — method + path routing with `:param` captures;
//! * [`Server`] — a leader/followers epoll listener with HTTP/1.1
//!   keep-alive: `workers + 1` threads take turns leading the reactor,
//!   which owns every socket nonblocking, and the thread that reads a
//!   request runs its handler and writes the answer; saturation answers
//!   `503` + `Retry-After`, and shutdown drains gracefully, with
//!   `httpd_*` metrics throughout ([`ServerConfig`] tunes
//!   workers/admission window/timeouts);
//! * [`Client`] — a blocking client with persistent pooled connections and
//!   transparent retry on stale keep-alive sockets;
//! * [`FaultInjector`] — deterministic connection drops, delays, error
//!   statuses, and mid-keep-alive closes for resilience testing.
//!
//! The paper's hosts also run `socat` to steer traffic to their VMs. Here a
//! VM lives inside its host agent's process, so there is no VM port to
//! steer to, and no relay.
//!
//! # Example
//!
//! ```
//! use confbench_httpd::{Client, Method, Request, Response, Router, Server};
//!
//! let mut router = Router::new();
//! router.add(Method::Get, "/health", |_, _| Response::text("ok"));
//! let server = Server::spawn(router)?;
//! let resp = Client::new(server.addr()).send(&Request::new(Method::Get, "/health"))?;
//! assert_eq!(resp.status, 200);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// `poll` needs FFI for epoll/eventfd (no libc crate offline); it is the
// only module allowed to opt back in via `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod fault;
mod http;
mod poll;
mod router;
mod server;

pub use fault::{Fault, FaultInjector, Trigger};
pub use http::{
    HttpError, Method, Request, Response, MAX_BODY, MAX_HEADERS, MAX_HEADER_BYTES, MAX_HEADER_LINE,
    MAX_START_LINE,
};
pub use router::{Handler, Router};
pub use server::{Client, Server, ServerBuilder, ServerConfig};
