//! A leader/followers epoll HTTP/1.1 server with keep-alive, and a
//! connection-pooling client.
//!
//! The server runs `workers + 1` identical threads. The one holding the
//! reactor leads: it owns the listener and every nonblocking socket, and
//! each connection is a small state machine (reading → dispatching →
//! writing → keep-alive idle). When a thread is parked, the leader takes
//! the request it parsed back, hands the reactor to the thread that parked
//! last and runs the handler, so the thread that read a request answers
//! it, writing a keep-alive answer itself, and one busy connection keeps
//! to two warm threads (DESIGN.md, "How a request crosses the server").
//! At most `workers` handlers run at once; an idle keep-alive
//! socket costs a few hundred bytes of state, not a thread. Admission
//! control caps open connections at `workers + backlog`; overflow is
//! answered `503` + `Retry-After` as a nonblocking write state inside the
//! reactor, so a slow or malicious rejected client can never stall the
//! accept path. Idle/read timeouts ride the `epoll_wait` timeout, and
//! [`Server::shutdown`] drains gracefully by walking the connection
//! table: accept stops, idle sockets close immediately, and dispatched
//! requests get a deadline to finish.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use confbench_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use parking_lot::{Condvar, Mutex};

use crate::fault::{Fault, FaultInjector};
use crate::http::{try_parse_request, AfterAnswer, HttpError, Request, Response};
use crate::poll::{event_buffer, Epoll, EpollEvent, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use crate::router::Router;

/// Waits up to `timeout` for `handle` to finish, then joins it; detaches
/// (drops the handle) if it does not finish in time so shutdown can't hang.
fn join_with_timeout(handle: JoinHandle<()>, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    while !handle.is_finished() {
        if Instant::now() >= deadline {
            return; // detach rather than block forever
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = handle.join();
}

/// Total budget for draining a connection that was answered out-of-band
/// (backpressure 503s and protocol-error responses): the peer's unread
/// request bytes are discarded for at most this long before the socket
/// closes, no matter how slowly they trickle in.
const REJECT_DRAIN_TOTAL: Duration = Duration::from_millis(500);
/// Budget, beyond the drain window, for joining every server thread on
/// shutdown (a wedged handler detaches its thread instead of serializing
/// 1 s each).
const WORKER_JOIN_TOTAL: Duration = Duration::from_secs(1);
/// Events drained per `epoll_wait` call.
const EVENT_BATCH: usize = 256;
/// Bytes read per `read` call on a ready connection.
const READ_CHUNK: usize = 16 * 1024;
/// Reserved epoll token for the listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Reserved epoll token for the reactor waker.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Connection-layer tuning for a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Handlers that may run at once. The server runs `workers + 1`
    /// threads: one leads the reactor (all socket I/O, including idle
    /// keep-alive waits) while the others run handlers, so a connection
    /// occupies a thread only while its request dispatches. Clamped to ≥ 1.
    pub workers: usize,
    /// Admitted connections allowed beyond `workers`: once `workers +
    /// backlog` connections are open, further arrivals are answered `503`
    /// + `Retry-After`. Clamped to ≥ 1.
    pub backlog: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub keep_alive_idle: Duration,
    /// Requests served on one connection before the server closes it
    /// (`connection: close` on the final response). Clamped to ≥ 1.
    pub max_requests_per_conn: u64,
    /// Deadline for a connection's first request. Expiry with partial
    /// request bytes answers `408 Request Timeout`; with none it closes
    /// silently.
    pub read_timeout: Duration,
    /// `Retry-After` hint (seconds) on backpressure 503s. Gateways wire
    /// this from their retry policy so the hint matches their own backoff.
    pub retry_after_secs: u64,
    /// How long [`Server::shutdown`] waits for in-flight requests before
    /// force-closing their connections.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    /// 8 workers, 1024 connections of admission headroom, 5 s keep-alive
    /// idle, 1000 requests/connection, 30 s read timeout, `Retry-After: 1`,
    /// 5 s drain.
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            backlog: 1024,
            keep_alive_idle: Duration::from_secs(5),
            max_requests_per_conn: 1000,
            read_timeout: Duration::from_secs(30),
            retry_after_secs: 1,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Cached `httpd_*` instrument handles.
struct HttpdMetrics {
    connections_total: Arc<Counter>,
    active: Arc<Gauge>,
    requests_total: Arc<Counter>,
    keepalive_reuse: Arc<Counter>,
    rejected_total: Arc<Counter>,
    workers_busy: Arc<Gauge>,
    dispatch_depth: Arc<Gauge>,
    requests_per_conn: Arc<Histogram>,
}

impl HttpdMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        HttpdMetrics {
            connections_total: registry.counter("httpd_connections_total"),
            active: registry.gauge("httpd_connections_active"),
            requests_total: registry.counter("httpd_requests_total"),
            keepalive_reuse: registry.counter("httpd_keepalive_reuse_total"),
            rejected_total: registry.counter("httpd_rejected_total"),
            workers_busy: registry.gauge("httpd_workers_busy"),
            dispatch_depth: registry.gauge("httpd_dispatch_queue_depth"),
            requests_per_conn: registry.histogram("httpd_requests_per_conn", &[1, 2, 5, 10, 100]),
        }
    }
}

/// A parsed request waiting for a thread to run its handler.
struct Task {
    conn: u64,
    request: Request,
    /// Injected [`Fault::Delay`], slept on the handler's thread.
    delay: Option<Duration>,
    /// The socket, when the handler's thread may write a keep-alive answer
    /// itself (see [`Reactor::start_request`]).
    inline: Option<Arc<TcpStream>>,
}

/// The parsed-request FIFO and the parked threads, under one lock: a
/// thread with nothing to run takes a request or parks in one step, so a
/// request never sits queued while a thread idles.
#[derive(Default)]
struct Dispatch {
    queue: VecDeque<Task>,
    /// Seats of the parked threads, the most recently parked last: the
    /// reactor goes to the top, the thread whose stack and arena are warm.
    parked: Vec<usize>,
    /// The reactor, handed to the seat named and not yet taken up.
    baton: Option<(usize, Box<Reactor>)>,
    /// The reactor has finished draining: every thread exits.
    closed: bool,
}

/// What a server thread does next.
enum Turn {
    /// Run a request's handler.
    Run(Task),
    /// Lead: the thread holds the reactor.
    Lead(Box<Reactor>),
}

/// A connection an inline answer left reading on: `EPOLLIN` is re-armed
/// once the answering thread has taken its next turn.
type ReadOn = (u64, Arc<TcpStream>);

/// What a handler's thread leaves the reactor about a dispatched connection.
enum Reply {
    /// The answer, for the reactor to frame and write.
    Answer(Response),
    /// A keep-alive answer, the part the socket took, and the answer's
    /// after-answer hook; the reactor writes the rest.
    Rest(Vec<u8>, usize, Option<Arc<AfterAnswer>>),
    /// A keep-alive answer written whole at this instant; its thread
    /// re-arms `EPOLLIN` in its next turn.
    Written(Instant),
}

/// State shared by every server thread.
struct Shared {
    router: Router,
    config: ServerConfig,
    faults: Option<Arc<FaultInjector>>,
    metrics: HttpdMetrics,
    registry: Arc<MetricsRegistry>,
    shutdown: AtomicBool,
    dispatch: Mutex<Dispatch>,
    /// One per thread, waited on with the `dispatch` lock while parked.
    seats: Box<[Condvar]>,
    /// Replies applied by the reactor right after every `epoll_wait`.
    replies: Mutex<Vec<(u64, Reply)>>,
    epoll: Epoll,
    waker: Waker,
}

impl Shared {
    /// Takes the oldest queued request.
    fn pop(&self, dispatch: &mut Dispatch) -> Option<Task> {
        let task = dispatch.queue.pop_front()?;
        self.metrics.dispatch_depth.dec();
        Some(task)
    }

    /// Queues a parsed request.
    fn queue(&self, task: Task) {
        let mut dispatch = self.dispatch.lock();
        dispatch.queue.push_back(task);
        self.metrics.dispatch_depth.inc();
    }

    /// If a request is queued and a thread parked, hands the reactor to the
    /// thread that parked last and returns the oldest request, for the
    /// leader to run; else gives the reactor back. The wake is the parked
    /// thread's own, and the request does not wait for it.
    fn hand_over(&self, reactor: Box<Reactor>) -> Result<Task, Box<Reactor>> {
        let mut dispatch = self.dispatch.lock();
        let Some(&seat) = dispatch.parked.last() else { return Err(reactor) };
        let Some(task) = self.pop(&mut dispatch) else { return Err(reactor) };
        dispatch.parked.pop();
        dispatch.baton = Some((seat, reactor));
        drop(dispatch);
        if let Some(condvar) = self.seats.get(seat) {
            condvar.notify_one();
        }
        Ok(task)
    }

    /// The next turn of a thread with nothing to run: the oldest queued
    /// request, or else the reactor once a leader hands it to this parked
    /// thread; `None` once the server has closed. `read_on` is re-armed
    /// only after this thread has parked or taken a request, so the next
    /// request on that connection finds it on top of the stack.
    fn next_turn(&self, seat: usize, read_on: Option<ReadOn>) -> Option<Turn> {
        let condvar = self.seats.get(seat)?;
        let mut dispatch = self.dispatch.lock();
        let task = self.pop(&mut dispatch);
        if task.is_none() && !dispatch.closed {
            dispatch.parked.push(seat);
        }
        if let Some((conn, stream)) = read_on {
            // The reactor needs a wake only if it has dropped the socket
            // (the peer hung up) or drains.
            if self.epoll.modify(&*stream, EPOLLIN, conn).is_err()
                || self.shutdown.load(Ordering::SeqCst)
            {
                self.waker.wake();
            }
        }
        if let Some(task) = task {
            return Some(Turn::Run(task));
        }
        loop {
            if dispatch.closed {
                return None;
            }
            if let Some((_, reactor)) = dispatch.baton.take_if(|(to, _)| *to == seat) {
                return Some(Turn::Lead(reactor));
            }
            dispatch = condvar.wait(dispatch);
        }
    }

    /// Runs a request's handler and answers it. A keep-alive answer the
    /// task allows is written on this thread, and its connection comes
    /// back to read on; anything else, and whatever the socket did not
    /// take, goes back to the reactor.
    fn answer(&self, task: Task) -> Option<ReadOn> {
        self.metrics.workers_busy.inc();
        if let Some(delay) = task.delay {
            std::thread::sleep(delay);
        }
        // A panicking handler must not kill the thread.
        let mut response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.router.dispatch(&task.request)
        }))
        .unwrap_or_else(|_| Response::error(500, "handler panicked"));
        self.metrics.workers_busy.dec();
        let reply = match task.inline {
            Some(stream) if response.keep_alive() && !self.shutdown.load(Ordering::SeqCst) => {
                response.headers.insert("connection".into(), "keep-alive".into());
                let bytes = response.to_bytes();
                let after = response.after.take();
                let mut written = 0;
                if write_some(&stream, &bytes, &mut written).is_ok() && written == bytes.len() {
                    // Note first, then `EPOLLIN` (in `next_turn`): the
                    // reactor cannot read the next request before the note
                    // is there to apply.
                    self.replies.lock().push((task.conn, Reply::Written(Instant::now())));
                    // The answer is on the wire: its hook runs now.
                    drop(after);
                    return Some((task.conn, stream));
                }
                Reply::Rest(bytes, written, after)
            }
            _ => Reply::Answer(response),
        };
        self.replies.lock().push((task.conn, reply));
        self.waker.wake();
        None
    }
}

/// Writes `bytes[*pos..]` until the nonblocking socket would block,
/// advancing `pos`; `Err` when the socket has failed.
fn write_some(mut stream: &TcpStream, bytes: &[u8], pos: &mut usize) -> io::Result<()> {
    while let Some(rest) = bytes.get(*pos..).filter(|rest| !rest.is_empty()) {
        match stream.write(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => *pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The body of every server thread: lead while holding the reactor, until
/// a request can be taken back and the reactor handed on; run a queued
/// request; or park. `turn` is the first thread's reactor.
fn serve(shared: &Shared, seat: usize, mut turn: Option<Turn>) {
    let mut read_on = None;
    loop {
        let task = match turn.take().or_else(|| shared.next_turn(seat, read_on.take())) {
            Some(Turn::Run(task)) => task,
            Some(Turn::Lead(mut reactor)) => loop {
                match shared.hand_over(reactor) {
                    Ok(task) => break task,
                    Err(kept) => reactor = kept,
                }
                if !reactor.tick() {
                    return;
                }
            },
            None => return,
        };
        read_on = shared.answer(task);
    }
}

/// Where a connection is in its request lifecycle. Transitions happen only
/// on the thread holding the reactor, which is what makes the
/// drain-vs-dispatch race of the old registry design impossible: a
/// connection is `Dispatching` from the instant its request parses,
/// atomically with everything else the reactor decides.
#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// Waiting for (more of) a request; interest `EPOLLIN`.
    Reading,
    /// Request handed to a handler; no I/O interest until an inline answer
    /// re-arms `EPOLLIN`, after its note is queued.
    Dispatching,
    /// Response bytes draining to the peer; interest `EPOLLOUT`.
    Writing,
    /// Out-of-band answer written (503/4xx); unread request bytes are
    /// discarded until [`REJECT_DRAIN_TOTAL`] so the close cannot RST the
    /// response out of the peer's receive buffer. Interest `EPOLLIN`.
    RejectDraining,
}

/// Per-connection reactor state.
struct Conn {
    /// Shared with the handler's thread while an inline answer is allowed.
    stream: Arc<TcpStream>,
    state: State,
    /// Unparsed request bytes received so far.
    buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// The hook of the answer in `write_buf`, dropped (so run) once the
    /// answer is written or the connection goes.
    after: Option<Arc<AfterAnswer>>,
    served: u64,
    req_keep_alive: bool,
    fault_close: bool,
    close_after_write: bool,
    /// Admitted (counted in `httpd_connections_active`); rejects are not.
    counted: bool,
    /// Drain unread input briefly after the final write instead of
    /// closing immediately (reject/error answers).
    linger: bool,
    /// Dropped from the epoll set early (peer hung up mid-dispatch).
    unregistered: bool,
    /// Generation guard: a timer entry only fires if it matches.
    timer_gen: u64,
    /// When the connection's timer is due.
    deadline: Instant,
    /// When its live heap entry is due (`None`: no live entry). An entry
    /// due before `deadline` is queued again when it pops.
    queued_at: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream: Arc::new(stream),
            state: State::Reading,
            buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            after: None,
            served: 0,
            req_keep_alive: true,
            fault_close: false,
            close_after_write: false,
            counted: true,
            linger: false,
            unregistered: false,
            timer_gen: 0,
            deadline: Instant::now(),
            queued_at: None,
        }
    }
}

/// The readiness loop: owns the listener and every connection socket.
/// Whichever thread holds it leads; it moves from thread to thread by
/// value ([`Shared::hand_over`]).
struct Reactor {
    shared: Arc<Shared>,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    /// Min-heap of (deadline, conn, generation); stale generations are
    /// skipped lazily when popped.
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    next_id: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
    events: Vec<EpollEvent>,
    chunk: Vec<u8>,
}

impl Reactor {
    /// One turn of the readiness loop; `false` once the drain has finished.
    fn tick(&mut self) -> bool {
        if self.shared.shutdown.load(Ordering::SeqCst) && !self.draining {
            self.begin_drain();
        }
        if self.draining
            && (self.conns.is_empty() || self.drain_deadline.is_some_and(|d| Instant::now() >= d))
        {
            self.finish();
            return false;
        }
        let deadline = self.next_deadline();
        let n = match self.shared.epoll.wait(&mut self.events, deadline) {
            Ok(n) => n,
            Err(_) => {
                // Unexpected epoll failure: back off instead of spinning.
                std::thread::sleep(Duration::from_millis(1));
                0
            }
        };
        // Drain the waker before taking the replies, so a reply queued
        // after the take leaves a wake pending for the next wait.
        if self.events.iter().take(n).any(|e| e.token() == TOKEN_WAKER) {
            self.shared.waker.drain();
        }
        // Replies before events: an inline answer's note must be applied
        // before its connection's next request is read.
        self.apply_replies();
        for i in 0..n {
            let Some(event) = self.events.get(i) else { break };
            match (event.token(), event.events()) {
                (TOKEN_LISTENER, _) => self.accept_ready(),
                (TOKEN_WAKER, _) => {}
                (id, bits) => self.conn_ready(id, bits),
            }
        }
        self.fire_timers();
        true
    }

    /// Closes what is left, stops every thread, parked ones included, and
    /// drops the requests no thread picked up (their connections were just
    /// closed).
    fn finish(&mut self) {
        for id in self.conns.keys().copied().collect::<Vec<_>>() {
            self.close_conn(id);
        }
        let mut dispatch = self.shared.dispatch.lock();
        dispatch.closed = true;
        dispatch.queue.clear();
        self.shared.metrics.dispatch_depth.set(0);
        drop(dispatch);
        for condvar in self.shared.seats.iter() {
            condvar.notify_one();
        }
    }

    /// Stops accepting and cuts connections not serving a request; the
    /// rest get until `drain_timeout` to finish.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + self.shared.config.drain_timeout);
        if let Some(listener) = self.listener.take() {
            let _ = self.shared.epoll.delete(&listener);
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.state, State::Reading | State::RejectDraining))
            .map(|(id, _)| *id)
            .collect();
        for id in idle {
            self.close_conn(id);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let accepted = match self.listener.as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => self.register_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // transient (EMFILE etc.): retry next tick
            }
        }
    }

    /// Admits a fresh connection, or answers `503` + `Retry-After` when
    /// `workers + backlog` connections are already open. The rejection is
    /// itself a nonblocking write + bounded drain, so it can never stall
    /// the accept path (the historical trickle-client DoS).
    fn register_conn(&mut self, stream: TcpStream) {
        let _ = stream.set_nonblocking(true);
        let _ = stream.set_nodelay(true);
        let id = self.next_id;
        self.next_id += 1;
        let capacity = (self.shared.config.workers + self.shared.config.backlog) as u64;
        if self.draining || self.shared.metrics.active.get() >= capacity {
            self.shared.metrics.rejected_total.inc();
            let mut response =
                Response::error(503, "server saturated: all workers busy, backlog full");
            response
                .headers
                .insert("retry-after".into(), self.shared.config.retry_after_secs.to_string());
            response.headers.insert("connection".into(), "close".into());
            let mut conn = Conn::new(stream);
            conn.counted = false;
            conn.linger = true;
            conn.close_after_write = true;
            conn.write_buf = response.to_bytes();
            conn.state = State::Writing;
            if self.shared.epoll.add(&*conn.stream, EPOLLOUT, id).is_err() {
                return; // drop: the peer sees a reset
            }
            self.conns.insert(id, conn);
            self.arm_timer(id, Instant::now() + REJECT_DRAIN_TOTAL);
            self.flush_write(id);
            return;
        }
        self.shared.metrics.connections_total.inc();
        self.shared.metrics.active.inc();
        let conn = Conn::new(stream);
        if self.shared.epoll.add(&*conn.stream, EPOLLIN, id).is_err() {
            self.shared.metrics.active.dec();
            return;
        }
        self.conns.insert(id, conn);
        self.arm_timer(id, Instant::now() + self.shared.config.read_timeout);
    }

    fn conn_ready(&mut self, id: u64, bits: u32) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        match conn.state {
            // No interest is armed while a request dispatches, so this is a
            // hangup: drop the fd from the epoll set so it stops reporting,
            // and let the reply discover the dead peer.
            State::Dispatching => {
                let _ = self.shared.epoll.delete(&*conn.stream);
                conn.unregistered = true;
            }
            state if bits & (EPOLLHUP | EPOLLERR) != 0 => match state {
                // Pending input may precede the hangup; read it to EOF so a
                // final pipelined request or the FIN is seen in order.
                State::Reading | State::RejectDraining if bits & EPOLLIN != 0 => self.readable(id),
                _ => self.close_conn(id),
            },
            _ => {
                if bits & EPOLLIN != 0 {
                    self.readable(id);
                }
                if bits & EPOLLOUT != 0 {
                    self.flush_write(id);
                }
            }
        }
    }

    fn readable(&mut self, id: u64) {
        let Some(state) = self.conns.get(&id).map(|c| c.state) else { return };
        match state {
            State::Reading => {
                let mut eof = false;
                loop {
                    let Some(conn) = self.conns.get_mut(&id) else { return };
                    match (&*conn.stream).read(&mut self.chunk) {
                        Ok(0) => {
                            eof = true;
                            break;
                        }
                        Ok(n) => {
                            conn.buf.extend_from_slice(self.chunk.get(..n).unwrap_or_default());
                            // A short read took all there was; the
                            // level-triggered registration reports any rest.
                            if n < self.chunk.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            self.close_conn(id);
                            return;
                        }
                    }
                }
                self.advance(id, eof);
            }
            State::RejectDraining => loop {
                let Some(conn) = self.conns.get_mut(&id) else { return };
                match (&*conn.stream).read(&mut self.chunk) {
                    Ok(0) => {
                        self.close_conn(id);
                        return;
                    }
                    Ok(_) => {} // discard
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.close_conn(id);
                        return;
                    }
                }
            },
            _ => {}
        }
    }

    /// Parses as many complete requests as the buffer holds, dispatching
    /// each; answers protocol errors; handles a peer close (`eof`).
    fn advance(&mut self, id: u64, eof: bool) {
        loop {
            let parsed = {
                let Some(conn) = self.conns.get_mut(&id) else { return };
                if conn.state != State::Reading {
                    return;
                }
                match try_parse_request(&conn.buf) {
                    Ok(Some((request, consumed))) => {
                        conn.buf.drain(..consumed);
                        Ok(Some(request))
                    }
                    Ok(None) => Ok(None),
                    Err(e) => Err(e),
                }
            };
            match parsed {
                Ok(Some(request)) => self.start_request(id, request),
                Ok(None) => break,
                Err(e) => {
                    // Parse errors answer with their status (400/413/431)
                    // and close: the stream position is untrustworthy.
                    let mut response = Response::error(e.status(), e.to_string());
                    response.headers.insert("connection".into(), "close".into());
                    self.send_response_and_close(id, response);
                    return;
                }
            }
        }
        if !eof {
            return;
        }
        let partial = match self.conns.get(&id) {
            Some(conn) if conn.state == State::Reading => !conn.buf.is_empty(),
            _ => return,
        };
        if partial {
            let mut response =
                Response::error(400, "malformed http message: connection closed mid-request");
            response.headers.insert("connection".into(), "close".into());
            self.send_response_and_close(id, response);
        } else {
            self.close_conn(id); // clean end of keep-alive
        }
    }

    /// Applies fault decisions and queues the request for a handler.
    fn start_request(&mut self, id: u64, request: Request) {
        {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            conn.served += 1;
            conn.req_keep_alive = request.wants_keep_alive();
            self.shared.metrics.requests_total.inc();
            if conn.served > 1 {
                self.shared.metrics.keepalive_reuse.inc();
            }
        }
        let fault = self.shared.faults.as_deref().and_then(|f| f.decide());
        match fault {
            Some(Fault::DropConnection) => {
                // Close without a response: the client sees a reset/EOF.
                self.close_conn(id);
                return;
            }
            Some(Fault::Status(code)) => {
                self.finish_response(id, Response::error(code, "injected fault"));
                return;
            }
            _ => {}
        }
        let delay = if let Some(Fault::Delay(d)) = fault { Some(d) } else { None };
        let max_requests = self.shared.config.max_requests_per_conn;
        let draining = self.draining;
        let inline = {
            let Some(conn) = self.conns.get_mut(&id) else { return };
            // `CloseAfterResponse` deliberately lies (keep-alive advertised,
            // socket closed anyway) to simulate a server dying mid-keep-alive.
            conn.fault_close = fault == Some(Fault::CloseAfterResponse);
            conn.state = State::Dispatching;
            // The handler's thread may answer on its own only when the
            // connection reads on afterwards with nothing left to parse.
            let inline = conn.req_keep_alive
                && conn.served < max_requests
                && !conn.fault_close
                && conn.buf.is_empty()
                && !draining;
            inline.then(|| Arc::clone(&conn.stream))
        };
        // Quiesce: level-triggered EPOLLIN would spin.
        self.set_interest(id, 0);
        // The reactor wakes at least every `keep_alive_idle` while the
        // request runs, so an inline answer's note is applied, and its idle
        // timer armed, on time.
        self.arm_timer(id, Instant::now() + self.shared.config.keep_alive_idle);
        self.shared.queue(Task { conn: id, request, delay, inline });
    }

    /// Queues `response` for writing and decides the connection's fate.
    fn finish_response(&mut self, id: u64, mut response: Response) {
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&id) else { return };
        let exhausted = conn.served >= self.shared.config.max_requests_per_conn;
        let close = !conn.req_keep_alive || !response.keep_alive() || draining || exhausted;
        if !conn.fault_close {
            response
                .headers
                .insert("connection".into(), if close { "close" } else { "keep-alive" }.into());
        }
        let close_after = close || conn.fault_close;
        let after = response.after.take();
        self.start_write(id, response.to_bytes(), 0, close_after, after);
    }

    /// Applies an inline answer's note: the connection reads again, idle
    /// since `at`.
    fn written(&mut self, id: u64, at: Instant) {
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.unregistered || draining {
            // The peer hung up mid-dispatch, or the server drains.
            self.close_conn(id);
            return;
        }
        conn.state = State::Reading;
        self.arm_timer(id, at + self.shared.config.keep_alive_idle);
    }

    /// Queues an error answer (408/4xx/431) followed by a lingering close.
    fn send_response_and_close(&mut self, id: u64, response: Response) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        conn.linger = true;
        self.start_write(id, response.to_bytes(), 0, true, None);
        // Also bounds the write phase against a peer that never reads.
        if self.conns.get(&id).is_some_and(|c| c.state == State::Writing) {
            self.arm_timer(id, Instant::now() + REJECT_DRAIN_TOTAL);
        }
    }

    /// Puts `bytes[written..]` on the connection's `EPOLLOUT` path, with no
    /// deadline; `after` runs once they are written.
    fn start_write(
        &mut self,
        id: u64,
        bytes: Vec<u8>,
        written: usize,
        close_after: bool,
        after: Option<Arc<AfterAnswer>>,
    ) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        conn.timer_gen += 1; // cancel the timer
        conn.queued_at = None;
        conn.close_after_write = close_after;
        conn.write_buf = bytes;
        conn.write_pos = written;
        conn.after = after;
        conn.state = State::Writing;
        self.set_interest(id, EPOLLOUT);
        self.flush_write(id);
    }

    fn flush_write(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.state != State::Writing {
            return;
        }
        match write_some(&conn.stream, &conn.write_buf, &mut conn.write_pos) {
            Ok(()) if conn.write_pos == conn.write_buf.len() => self.write_complete(id),
            Ok(()) => {} // EPOLLOUT interest already armed
            Err(_) => self.close_conn(id),
        }
    }

    fn write_complete(&mut self, id: u64) {
        let draining = self.draining;
        let Some(conn) = self.conns.get_mut(&id) else { return };
        conn.write_buf = Vec::new();
        conn.write_pos = 0;
        // The answer is on the wire: its hook runs now.
        conn.after = None;
        if conn.linger {
            // Half-close, then discard the peer's unread bytes until the
            // drain budget expires: an immediate close would RST the
            // answer out of the peer's receive buffer.
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.state = State::RejectDraining;
            self.set_interest(id, EPOLLIN);
            self.arm_timer(id, Instant::now() + REJECT_DRAIN_TOTAL);
            self.readable(id);
        } else if conn.close_after_write || draining {
            self.close_conn(id);
        } else {
            conn.state = State::Reading;
            self.set_interest(id, EPOLLIN);
            self.arm_timer(id, Instant::now() + self.shared.config.keep_alive_idle);
            // A pipelined follow-up may already be buffered.
            self.advance(id, false);
        }
    }

    /// Applies what handler threads left since the last tick.
    fn apply_replies(&mut self) {
        let replies = std::mem::take(&mut *self.shared.replies.lock());
        for (id, reply) in replies {
            match reply {
                Reply::Answer(response) => self.finish_response(id, response),
                Reply::Rest(bytes, written, after) => {
                    self.start_write(id, bytes, written, false, after)
                }
                Reply::Written(at) => self.written(id, at),
            }
        }
    }

    fn timer_fired(&mut self, id: u64) {
        let Some(state) = self.conns.get(&id).map(|c| c.state) else { return };
        match state {
            State::Reading => {
                let partial = self.conns.get(&id).is_some_and(|c| !c.buf.is_empty());
                if partial {
                    // The peer started a request but never finished it:
                    // tell it so instead of cutting the socket silently.
                    let mut response =
                        Response::error(408, "timed out waiting for a complete request");
                    response.headers.insert("connection".into(), "close".into());
                    self.send_response_and_close(id, response);
                } else {
                    // Idle keep-alive sockets close silently: pooled
                    // clients expect a clean EOF there.
                    self.close_conn(id);
                }
            }
            // Reject/error drain budget exhausted, or the peer never read
            // the final answer.
            State::RejectDraining | State::Writing => self.close_conn(id),
            State::Dispatching => {
                self.arm_timer(id, Instant::now() + self.shared.config.keep_alive_idle)
            }
        }
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while let Some(Reverse((deadline, id, generation))) = self.timers.peek().copied() {
            if deadline > now {
                break;
            }
            self.timers.pop();
            let Some(conn) = self.conns.get_mut(&id) else { continue };
            if conn.timer_gen != generation {
                continue;
            }
            if conn.deadline > now {
                conn.queued_at = Some(conn.deadline);
                self.timers.push(Reverse((conn.deadline, id, generation)));
                continue;
            }
            conn.queued_at = None;
            self.timer_fired(id);
        }
    }

    /// Re-arms the connection's (single) timer. A live heap entry due no
    /// later than `deadline` is kept, so a keep-alive request pushes no
    /// entry; an earlier deadline pushes one, and the generation bump makes
    /// the previous entry stale.
    fn arm_timer(&mut self, id: u64, deadline: Instant) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        conn.deadline = deadline;
        if conn.queued_at.is_some_and(|at| at <= deadline) {
            return;
        }
        conn.timer_gen += 1;
        conn.queued_at = Some(deadline);
        self.timers.push(Reverse((deadline, id, conn.timer_gen)));
    }

    /// The next instant the reactor must wake even without I/O.
    fn next_deadline(&self) -> Option<Instant> {
        let timer = self.timers.peek().map(|Reverse((deadline, _, _))| *deadline);
        match (timer, self.drain_deadline) {
            (Some(t), Some(d)) => Some(t.min(d)),
            (t, d) => t.or(d),
        }
    }

    fn set_interest(&mut self, id: u64, events: u32) {
        let Some(conn) = self.conns.get_mut(&id) else { return };
        if conn.unregistered {
            if self.shared.epoll.add(&*conn.stream, events, id).is_ok() {
                conn.unregistered = false;
            }
        } else {
            let _ = self.shared.epoll.modify(&*conn.stream, events, id);
        }
    }

    fn close_conn(&mut self, id: u64) {
        let Some(conn) = self.conns.remove(&id) else { return };
        if !conn.unregistered {
            let _ = self.shared.epoll.delete(&*conn.stream);
        }
        if conn.state == State::Dispatching {
            // The handler's thread may still hold the socket: close the
            // peer's side now rather than when that thread lets go.
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        if conn.counted {
            self.shared.metrics.requests_per_conn.observe(conn.served);
            self.shared.metrics.active.dec();
        }
    }
}

/// Configures and spawns a [`Server`]; obtained from [`Server::build`].
pub struct ServerBuilder {
    router: Router,
    config: ServerConfig,
    faults: Option<Arc<FaultInjector>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl ServerBuilder {
    /// Overrides the connection-layer tuning (default [`ServerConfig::default`]).
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches a [`FaultInjector`] deciding the fate of each request.
    pub fn faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Publishes `httpd_*` metrics into a shared registry (default: a fresh
    /// registry reachable via [`Server::metrics`]).
    pub fn metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Binds `addr` and starts the `workers + 1` server threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (and epoll/eventfd setup failures).
    pub fn spawn(self, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let mut config = self.config;
        config.workers = config.workers.max(1);
        config.backlog = config.backlog.max(1);
        config.max_requests_per_conn = config.max_requests_per_conn.max(1);
        let registry = self.metrics.unwrap_or_default();
        let epoll = Epoll::new()?;
        let waker = Waker::new()?;
        epoll.add(&listener, EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(&waker, EPOLLIN, TOKEN_WAKER)?;
        let shared = Arc::new(Shared {
            router: self.router,
            config,
            faults: self.faults,
            metrics: HttpdMetrics::register(&registry),
            registry,
            shutdown: AtomicBool::new(false),
            dispatch: Mutex::new(Dispatch::default()),
            seats: (0..=config.workers).map(|_| Condvar::new()).collect(),
            replies: Mutex::new(Vec::new()),
            epoll,
            waker,
        });
        let mut reactor = Some(Box::new(Reactor {
            shared: Arc::clone(&shared),
            listener: Some(listener),
            conns: HashMap::new(),
            timers: BinaryHeap::new(),
            next_id: 0,
            draining: false,
            drain_deadline: None,
            events: event_buffer(EVENT_BATCH),
            chunk: vec![0; READ_CHUNK],
        }));

        let mut threads = Vec::with_capacity(config.workers + 1);
        for seat in 0..=config.workers {
            let (shared, turn) = (Arc::clone(&shared), reactor.take().map(Turn::Lead));
            // Every thread may run handlers, and handlers run language
            // interpreters whose recursion is deep in debug builds, so give
            // each a generous stack.
            threads.push(
                std::thread::Builder::new()
                    .name(format!("httpd-{seat}"))
                    .stack_size(16 << 20)
                    .spawn(move || serve(&shared, seat, turn))?,
            );
        }
        Ok(Server { addr, shared, threads })
    }
}

/// A running HTTP server. Dropping it shuts the listener down.
///
/// # Example
///
/// ```
/// use confbench_httpd::{Client, Method, Request, Response, Router, Server};
///
/// let mut router = Router::new();
/// router.add(Method::Get, "/ping", |_, _| Response::text("pong"));
/// let server = Server::spawn(router)?;
/// let resp = Client::new(server.addr()).send(&Request::new(Method::Get, "/ping"))?;
/// assert_eq!(resp.body, b"pong");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts configuring a server for `router`.
    pub fn build(router: Router) -> ServerBuilder {
        ServerBuilder { router, config: ServerConfig::default(), faults: None, metrics: None }
    }

    /// Binds `127.0.0.1:0` and serves `router` with default tuning.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(router: Router) -> io::Result<Server> {
        Server::build(router).spawn("127.0.0.1:0")
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry the server's `httpd_*` instruments live in.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.registry
    }

    /// Connections currently admitted (open in the reactor).
    pub fn active_connections(&self) -> u64 {
        self.shared.metrics.active.get()
    }

    /// Admitted connections beyond the worker count: the part of the
    /// admission window (`workers + backlog`) held by connections that
    /// could not all have a handler running at once.
    pub fn backlog_depth(&self) -> usize {
        (self.shared.metrics.active.get() as usize).saturating_sub(self.shared.config.workers)
    }

    /// Gracefully shuts down: stops accepting, cuts idle keep-alive
    /// sockets, lets dispatched requests finish within the drain deadline,
    /// then joins every server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        // One deadline for every thread: the leader needs the drain window
        // to walk the connection table, and a wedged handler costs the join
        // budget once, not per thread.
        let deadline = Instant::now() + self.shared.config.drain_timeout + WORKER_JOIN_TOTAL;
        for handle in self.threads.drain(..) {
            join_with_timeout(handle, deadline.saturating_duration_since(Instant::now()));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.stop();
        }
    }
}

/// Statistics a [`Client`] keeps about its connection pool.
#[derive(Debug, Default)]
struct ClientStats {
    reused: AtomicU64,
    stale_retries: AtomicU64,
}

/// A client socket and the timeout last set on it: a send re-sets the
/// socket's timeouts only when it asks for a different one.
struct ClientConn {
    stream: TcpStream,
    timeout: Option<Duration>,
}

/// An HTTP client for one server address, with persistent connection reuse.
///
/// Sockets whose response advertised keep-alive return to a shared pool and
/// are reused by later sends (clones share the pool). A send on a pooled
/// socket that fails with a stale-socket error (EOF/reset — the server
/// closed it between requests) is transparently retried once on a fresh
/// connection; failures on fresh connections propagate.
#[derive(Clone)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    pool: Arc<Mutex<Vec<ClientConn>>>,
    stats: Arc<ClientStats>,
}

/// Idle sockets kept per pool; excess connections close on return.
const POOL_CAP: usize = 8;

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("addr", &self.addr)
            .field("timeout", &self.timeout)
            .field("pooled", &self.pool.lock().len())
            .finish()
    }
}

impl Client {
    /// Creates a client for `addr` with a 30 s timeout.
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            timeout: Duration::from_secs(30),
            pool: Arc::new(Mutex::new(Vec::new())),
            stats: Arc::new(ClientStats::default()),
        }
    }

    /// Creates a client resolving `addr` (e.g. `"127.0.0.1:8080"`).
    ///
    /// # Errors
    ///
    /// Resolution failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no address resolved"))?;
        Ok(Client::new(addr))
    }

    /// Overrides the request timeout (the connection pool is shared with
    /// the original).
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sends served on a reused pooled socket so far.
    pub fn reused_connections(&self) -> u64 {
        self.stats.reused.load(Ordering::SeqCst)
    }

    /// Stale pooled sockets detected and retried on a fresh connection.
    pub fn stale_retries(&self) -> u64 {
        self.stats.stale_retries.load(Ordering::SeqCst)
    }

    /// Idle sockets currently pooled.
    pub fn pooled_connections(&self) -> usize {
        self.pool.lock().len()
    }

    /// Sends a request, returning the response.
    ///
    /// # Errors
    ///
    /// Connection or protocol failures.
    pub fn send(&self, request: &Request) -> Result<Response, HttpError> {
        self.send_with_timeout(request, self.timeout)
    }

    /// As [`Client::send`] with an explicit per-request timeout (deadline
    /// propagation clamps this below the client default).
    ///
    /// # Errors
    ///
    /// Connection or protocol failures.
    pub fn send_with_timeout(
        &self,
        request: &Request,
        timeout: Duration,
    ) -> Result<Response, HttpError> {
        // Take the pooled socket in its own statement: an `if let` on
        // `.lock().pop()` would hold the pool guard for the whole body and
        // deadlock against `maybe_pool`'s re-lock.
        let pooled = self.pool.lock().pop();
        if let Some(mut conn) = pooled {
            match Self::exchange(&mut conn, request, timeout) {
                Ok(response) => {
                    self.stats.reused.fetch_add(1, Ordering::SeqCst);
                    self.maybe_pool(conn, &response);
                    return Ok(response);
                }
                Err(e) if is_stale_socket(&e) => {
                    // The server closed the pooled socket between requests
                    // (idle timeout, request cap, restart): retry once on a
                    // fresh connection.
                    self.stats.stale_retries.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => return Err(e),
            }
        }
        let stream = TcpStream::connect_timeout(&self.addr, timeout)?;
        // Without nodelay, the second small write on a reused socket sits
        // behind Nagle waiting for the peer's delayed ACK (~40 ms per
        // request), erasing the keep-alive win.
        let _ = stream.set_nodelay(true);
        let mut conn = ClientConn { stream, timeout: None };
        let response = Self::exchange(&mut conn, request, timeout)?;
        self.maybe_pool(conn, &response);
        Ok(response)
    }

    fn exchange(
        conn: &mut ClientConn,
        request: &Request,
        timeout: Duration,
    ) -> Result<Response, HttpError> {
        if conn.timeout != Some(timeout) {
            conn.stream.set_read_timeout(Some(timeout))?;
            conn.stream.set_write_timeout(Some(timeout))?;
            conn.timeout = Some(timeout);
        }
        request.write_to(&mut conn.stream)?;
        Response::read_from(&mut conn.stream)
    }

    fn maybe_pool(&self, conn: ClientConn, response: &Response) {
        if response.keep_alive() {
            let mut pool = self.pool.lock();
            if pool.len() < POOL_CAP {
                pool.push(conn);
            }
        }
    }
}

/// Errors that mean a pooled socket went stale (safe to retry on a fresh
/// connection) as opposed to a live server misbehaving or timing out.
fn is_stale_socket(e: &HttpError) -> bool {
    match e {
        HttpError::Closed => true,
        HttpError::Io(e) => matches!(
            e.kind(),
            io::ErrorKind::UnexpectedEof
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
        ),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;

    fn test_server() -> Server {
        let mut router = Router::new();
        router.add(Method::Get, "/hello/:who", |_, p| Response::text(format!("hi {}", p["who"])));
        router.add(Method::Post, "/echo", |req, _| {
            let mut r = Response::text(String::from_utf8_lossy(&req.body).into_owned());
            r.status = 201;
            r
        });
        Server::spawn(router).expect("bind")
    }

    #[test]
    fn serves_requests_over_real_sockets() {
        let server = test_server();
        let client = Client::new(server.addr());
        let resp = client.send(&Request::new(Method::Get, "/hello/world")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"hi world");
        server.shutdown();
    }

    #[test]
    fn post_bodies_roundtrip() {
        let server = test_server();
        let client = Client::new(server.addr());
        let mut req = Request::new(Method::Post, "/echo");
        req.body = b"payload".to_vec();
        let resp = client.send(&req).unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(resp.body, b"payload");
    }

    #[test]
    fn concurrent_clients() {
        let server = test_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let client = Client::new(addr);
                    let resp =
                        client.send(&Request::new(Method::Get, &format!("/hello/{i}"))).unwrap();
                    assert_eq!(resp.body, format!("hi {i}").into_bytes());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn unknown_route_is_404() {
        let server = test_server();
        let client = Client::new(server.addr());
        let resp = client.send(&Request::new(Method::Get, "/nope")).unwrap();
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn keep_alive_reuses_one_connection() {
        let server = test_server();
        let client = Client::new(server.addr());
        for _ in 0..5 {
            let resp = client.send(&Request::new(Method::Get, "/hello/ka")).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.headers.get("connection").map(String::as_str), Some("keep-alive"));
        }
        assert_eq!(client.reused_connections(), 4, "first send connects, four reuse");
        let m = server.metrics();
        assert_eq!(m.counter_value("httpd_connections_total"), Some(1));
        assert_eq!(m.counter_value("httpd_requests_total"), Some(5));
        assert_eq!(m.counter_value("httpd_keepalive_reuse_total"), Some(4));
    }

    #[test]
    fn connection_close_header_is_honored() {
        let server = test_server();
        let client = Client::new(server.addr());
        let mut req = Request::new(Method::Get, "/hello/x");
        req.headers.insert("connection".into(), "close".into());
        let resp = client.send(&req).unwrap();
        assert_eq!(resp.headers.get("connection").map(String::as_str), Some("close"));
        assert_eq!(client.pooled_connections(), 0, "closed socket not pooled");
        // The next send opens a second connection.
        client.send(&Request::new(Method::Get, "/hello/y")).unwrap();
        assert_eq!(server.metrics().counter_value("httpd_connections_total"), Some(2));
    }

    #[test]
    fn idle_timeout_closes_and_client_recovers() {
        let mut router = Router::new();
        router.add(Method::Get, "/ok", |_, _| Response::text("up"));
        let config =
            ServerConfig { keep_alive_idle: Duration::from_millis(50), ..ServerConfig::default() };
        let server = Server::build(router).config(config).spawn("127.0.0.1:0").unwrap();
        let client = Client::new(server.addr());
        client.send(&Request::new(Method::Get, "/ok")).unwrap();
        assert_eq!(client.pooled_connections(), 1);
        std::thread::sleep(Duration::from_millis(250));
        // The pooled socket is stale (server idled it out); the client must
        // retry transparently on a fresh connection.
        let resp = client.send(&Request::new(Method::Get, "/ok")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(client.stale_retries(), 1);
        assert_eq!(server.metrics().counter_value("httpd_connections_total"), Some(2));
    }

    #[test]
    fn request_cap_closes_connection() {
        let mut router = Router::new();
        router.add(Method::Get, "/ok", |_, _| Response::text("up"));
        let config = ServerConfig { max_requests_per_conn: 2, ..ServerConfig::default() };
        let server = Server::build(router).config(config).spawn("127.0.0.1:0").unwrap();
        let client = Client::new(server.addr());
        client.send(&Request::new(Method::Get, "/ok")).unwrap();
        let second = client.send(&Request::new(Method::Get, "/ok")).unwrap();
        assert_eq!(second.headers.get("connection").map(String::as_str), Some("close"));
        client.send(&Request::new(Method::Get, "/ok")).unwrap();
        assert_eq!(server.metrics().counter_value("httpd_connections_total"), Some(2));
    }

    #[test]
    fn saturation_returns_503_with_retry_after() {
        let started = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&started);
        let mut router = Router::new();
        router.add(Method::Get, "/slow", move |_, _| {
            flag.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(400));
            Response::text("done")
        });
        let config =
            ServerConfig { workers: 1, backlog: 1, retry_after_secs: 7, ..ServerConfig::default() };
        let server = Server::build(router).config(config).spawn("127.0.0.1:0").unwrap();
        let addr = server.addr();
        // Occupy the single worker and wait until its handler is running…
        let in_worker =
            std::thread::spawn(move || Client::new(addr).send(&Request::new(Method::Get, "/slow")));
        while !started.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
        }
        // …then park a second connection in the (size-1) backlog.
        let in_backlog =
            std::thread::spawn(move || Client::new(addr).send(&Request::new(Method::Get, "/slow")));
        while server.backlog_depth() == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Worker busy + backlog full: this one must be rejected quickly.
        let start = Instant::now();
        let resp = Client::new(addr).send(&Request::new(Method::Get, "/slow")).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.headers.get("retry-after").map(String::as_str), Some("7"));
        assert!(start.elapsed() < Duration::from_millis(200), "503 must not wait for a worker");
        for h in [in_worker, in_backlog] {
            let resp = h.join().unwrap().unwrap();
            assert_eq!(resp.status, 200, "queued requests still complete");
        }
        assert_eq!(server.metrics().counter_value("httpd_rejected_total"), Some(1));
    }

    #[test]
    fn graceful_drain_finishes_in_flight_request() {
        let mut router = Router::new();
        router.add(Method::Get, "/slow", |_, _| {
            std::thread::sleep(Duration::from_millis(200));
            Response::text("finished")
        });
        let server = Server::spawn(router).unwrap();
        let addr = server.addr();
        let inflight =
            std::thread::spawn(move || Client::new(addr).send(&Request::new(Method::Get, "/slow")));
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        server.shutdown();
        assert!(start.elapsed() >= Duration::from_millis(100), "shutdown waited for the request");
        let resp = inflight.join().unwrap().unwrap();
        assert_eq!(resp.body, b"finished");
        assert_eq!(
            resp.headers.get("connection").map(String::as_str),
            Some("close"),
            "draining forces close"
        );
    }

    #[test]
    fn shutdown_cuts_idle_keepalive_connections_quickly() {
        let server = test_server();
        let client = Client::new(server.addr());
        client.send(&Request::new(Method::Get, "/hello/x")).unwrap();
        assert_eq!(client.pooled_connections(), 1, "idle keep-alive socket held");
        let start = Instant::now();
        server.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "idle connections must not hold up drain"
        );
    }

    #[test]
    fn fault_injected_status_and_drop() {
        let mut router = Router::new();
        router.add(Method::Get, "/ok", |_, _| Response::text("fine"));
        let faults = Arc::new(
            FaultInjector::new()
                .rule(crate::fault::Trigger::Nth(1), Fault::DropConnection)
                .rule(crate::fault::Trigger::Nth(2), Fault::Status(500)),
        );
        let server =
            Server::build(router).faults(Arc::clone(&faults)).spawn("127.0.0.1:0").unwrap();
        let client = Client::new(server.addr()).timeout(Duration::from_secs(2));
        let req = Request::new(Method::Get, "/ok");
        // Request 1: dropped without a response.
        assert!(client.send(&req).is_err());
        // Request 2: injected 500 instead of the handler.
        assert_eq!(client.send(&req).unwrap().status, 500);
        // Request 3: passes through.
        let resp = client.send(&req).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"fine");
        assert_eq!(faults.requests_seen(), 3);
    }

    #[test]
    fn fault_injected_delay_still_answers() {
        let mut router = Router::new();
        router.add(Method::Get, "/ok", |_, _| Response::text("slow"));
        let faults = Arc::new(
            FaultInjector::new()
                .rule(crate::fault::Trigger::Always, Fault::Delay(Duration::from_millis(30))),
        );
        let server = Server::build(router).faults(faults).spawn("127.0.0.1:0").unwrap();
        let client = Client::new(server.addr());
        let start = std::time::Instant::now();
        let resp = client.send(&Request::new(Method::Get, "/ok")).unwrap();
        assert_eq!(resp.body, b"slow");
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn close_after_response_fault_exercises_stale_retry() {
        let mut router = Router::new();
        router.add(Method::Get, "/ok", |_, _| Response::text("fine"));
        let faults = Arc::new(
            FaultInjector::new().rule(crate::fault::Trigger::Nth(1), Fault::CloseAfterResponse),
        );
        let server = Server::build(router).faults(faults).spawn("127.0.0.1:0").unwrap();
        let client = Client::new(server.addr()).timeout(Duration::from_secs(2));
        // Request 1 succeeds; the response advertises keep-alive but the
        // server closes the socket anyway (mid-keep-alive fault).
        let resp = client.send(&Request::new(Method::Get, "/ok")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(client.pooled_connections(), 1, "client pooled the doomed socket");
        // Request 2 hits the stale socket and must retry transparently.
        let resp = client.send(&Request::new(Method::Get, "/ok")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(client.stale_retries(), 1);
    }

    #[test]
    fn panicking_handler_answers_500_and_worker_survives() {
        let mut router = Router::new();
        router.add(Method::Get, "/boom", |_, _| panic!("handler exploded"));
        router.add(Method::Get, "/ok", |_, _| Response::text("alive"));
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let server = Server::build(router).config(config).spawn("127.0.0.1:0").unwrap();
        let client = Client::new(server.addr()).timeout(Duration::from_secs(2));
        let resp = client.send(&Request::new(Method::Get, "/boom")).unwrap();
        assert_eq!(resp.status, 500);
        // The single worker must still be alive to serve this.
        let resp = client.send(&Request::new(Method::Get, "/ok")).unwrap();
        assert_eq!(resp.body, b"alive");
    }

    #[test]
    fn malformed_request_gets_status_and_close() {
        let server = test_server();
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.write_all(b"POST /echo HTTP/1.1\r\ncontent-length: nope\r\n\r\n").unwrap();
        let mut buf = String::new();
        raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        raw.read_to_string(&mut buf).unwrap(); // server closes → EOF ends the read
        assert!(buf.starts_with("HTTP/1.1 400"), "got {buf:?}");
        assert!(buf.contains("connection: close"));
    }

    #[test]
    fn wildcard_bind_still_shuts_down() {
        // A 0.0.0.0 bind used to wedge stop(): the wakeup connection went to
        // the (unconnectable) wildcard address. Must finish promptly now.
        let mut router = Router::new();
        router.add(Method::Get, "/ok", |_, _| Response::text("up"));
        let server = Server::build(router).spawn("0.0.0.0:0").unwrap();
        let port = server.addr().port();
        let client = Client::new(format!("127.0.0.1:{port}").parse().unwrap());
        assert_eq!(client.send(&Request::new(Method::Get, "/ok")).unwrap().status, 200);
        let start = std::time::Instant::now();
        server.shutdown();
        assert!(start.elapsed() < Duration::from_secs(3), "shutdown hung on wildcard bind");
    }

    #[test]
    fn shutdown_stops_accepting() {
        let server = test_server();
        let addr = server.addr();
        server.shutdown();
        // Either the connect fails or the read does; both count as down.
        let client = Client::new(addr).timeout(Duration::from_millis(300));
        assert!(client.send(&Request::new(Method::Get, "/hello/x")).is_err());
    }

    #[test]
    fn rejected_trickle_client_cannot_stall_accepts() {
        let mut router = Router::new();
        router.add(Method::Get, "/ok", |_, _| Response::text("up"));
        let config = ServerConfig { workers: 1, backlog: 1, ..ServerConfig::default() };
        let server = Server::build(router).config(config).spawn("127.0.0.1:0").unwrap();
        let addr = server.addr();
        // Fill the admission window (workers + backlog = 2) with two idle
        // connections so the next arrival is rejected.
        let hold_a = TcpStream::connect(addr).unwrap();
        let _hold_b = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.active_connections() < 2 {
            assert!(Instant::now() < deadline, "held connections never admitted");
            std::thread::sleep(Duration::from_millis(2));
        }
        // A rejected client trickling one byte at a time used to hold the
        // accept path open indefinitely: each byte reset the drain loop's
        // per-read timeout, and the drain ran on the accept thread.
        let trickler = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let start = Instant::now();
            while start.elapsed() < Duration::from_secs(3) {
                if stream.write_all(b"x").is_err() {
                    break; // server cut the drain
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            start.elapsed()
        });
        std::thread::sleep(Duration::from_millis(100));
        // Accepts stay live while the trickler is still writing: free one
        // admission slot and a fresh request must complete promptly.
        drop(hold_a);
        let client = Client::new(addr).timeout(Duration::from_secs(2));
        let deadline = Instant::now() + Duration::from_secs(3);
        let resp = loop {
            let resp = client.send(&Request::new(Method::Get, "/ok")).unwrap();
            if resp.status == 200 || Instant::now() >= deadline {
                break resp;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(resp.status, 200, "accept path stalled behind the reject drain");
        // And the drain itself is bounded by a total deadline, not per read.
        let held = trickler.join().unwrap();
        assert!(held < Duration::from_secs(2), "reject drain held open for {held:?}");
    }

    #[test]
    fn queued_request_survives_drain_behind_busy_worker() {
        let started = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&started);
        let mut router = Router::new();
        router.add(Method::Get, "/slow", move |_, _| {
            flag.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(300));
            Response::text("slow done")
        });
        router.add(Method::Get, "/fast", |_, _| Response::text("fast done"));
        let config = ServerConfig { workers: 1, backlog: 4, ..ServerConfig::default() };
        let server = Server::build(router).config(config).spawn("127.0.0.1:0").unwrap();
        let addr = server.addr();
        let slow =
            std::thread::spawn(move || Client::new(addr).send(&Request::new(Method::Get, "/slow")));
        while !started.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
        }
        // A second request parses and queues behind the busy worker…
        let fast =
            std::thread::spawn(move || Client::new(addr).send(&Request::new(Method::Get, "/fast")));
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().gauge_value("httpd_dispatch_queue_depth") != Some(1) {
            assert!(Instant::now() < deadline, "second request never queued");
            std::thread::sleep(Duration::from_millis(2));
        }
        // …and the server drains. The old registry raced its idle check
        // against the worker's busy transition and could cut this request;
        // a dispatched connection must never be treated as idle.
        server.shutdown();
        assert_eq!(slow.join().unwrap().unwrap().body, b"slow done");
        let resp = fast.join().unwrap().unwrap();
        assert_eq!(resp.status, 200, "queued request was cut during drain");
        assert_eq!(resp.body, b"fast done");
    }

    #[test]
    fn shutdown_with_wedged_workers_bounded_by_shared_deadline() {
        let mut router = Router::new();
        router.add(Method::Get, "/wedge", |_, _| {
            std::thread::sleep(Duration::from_secs(4));
            Response::text("eventually")
        });
        let config = ServerConfig {
            workers: 4,
            drain_timeout: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let server = Server::build(router).config(config).spawn("127.0.0.1:0").unwrap();
        let addr = server.addr();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let client = Client::new(addr).timeout(Duration::from_secs(1));
                    let _ = client.send(&Request::new(Method::Get, "/wedge"));
                })
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.metrics().gauge_value("httpd_workers_busy") != Some(4) {
            assert!(Instant::now() < deadline, "workers never picked up the wedged requests");
            std::thread::sleep(Duration::from_millis(2));
        }
        let start = Instant::now();
        server.shutdown();
        // Joining serially with 1 s per worker took ~4 s here; the shared
        // deadline bounds the whole pool at ~1 s regardless of pool size.
        assert!(
            start.elapsed() < Duration::from_millis(2_500),
            "shutdown took {:?} with wedged workers",
            start.elapsed()
        );
        for c in clients {
            let _ = c.join();
        }
    }

    #[test]
    fn partial_first_request_times_out_with_408() {
        let mut router = Router::new();
        router.add(Method::Get, "/ok", |_, _| Response::text("up"));
        let config =
            ServerConfig { read_timeout: Duration::from_millis(80), ..ServerConfig::default() };
        let server = Server::build(router).config(config).spawn("127.0.0.1:0").unwrap();
        // Half a request, then silence: the read deadline must answer 408
        // and close instead of cutting the socket silently.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /ok HTTP/1.1\r\nx-part").unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408"), "got {out:?}");
        assert!(out.contains("connection: close"), "got {out:?}");

        // With no bytes received the close stays silent: pooled keep-alive
        // clients rely on a clean EOF to detect stale sockets.
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = String::new();
        idle.read_to_string(&mut out).unwrap();
        assert!(out.is_empty(), "idle close must be silent, got {out:?}");
    }

    #[test]
    fn pipelined_requests_are_served_in_order() {
        let server = test_server();
        // Two requests in one write: the reactor must answer both on the
        // same socket, in order, without waiting for a new readiness event.
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"GET /hello/one HTTP/1.1\r\n\r\nGET /hello/two HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        let first = out.find("hi one").expect("first response missing");
        let second = out.find("hi two").expect("second response missing");
        assert!(first < second, "responses out of order: {out:?}");
        assert_eq!(server.metrics().counter_value("httpd_requests_total"), Some(2));
        assert_eq!(server.metrics().counter_value("httpd_connections_total"), Some(1));
    }

    #[test]
    fn reused_socket_takes_a_shorter_timeout() {
        let mut router = Router::new();
        router.add(Method::Get, "/ok", |_, _| Response::text("up"));
        router.add(Method::Get, "/slow", |_, _| {
            std::thread::sleep(Duration::from_millis(300));
            Response::text("late")
        });
        let server = Server::build(router).spawn("127.0.0.1:0").unwrap();
        let client = Client::new(server.addr());
        client.send(&Request::new(Method::Get, "/ok")).unwrap();
        assert_eq!(client.pooled_connections(), 1, "the socket carries the 30 s default");
        // The pooled socket is reused and must take the shorter timeout
        // instead of keeping the one it was pooled with.
        let sent = client
            .send_with_timeout(&Request::new(Method::Get, "/slow"), Duration::from_millis(100));
        assert!(sent.is_err(), "a stale 30 s timeout was reused: {sent:?}");
        assert_eq!(server.metrics().counter_value("httpd_connections_total"), Some(1));
    }

    /// The size of the large answers below: far more than loopback socket
    /// buffers hold while the peer does not read.
    const BIG: usize = 4 << 20;

    fn get(path: &str, close: bool) -> Vec<u8> {
        let close = if close { "connection: close\r\n" } else { "" };
        format!("GET {path} HTTP/1.1\r\n{close}\r\n").into_bytes()
    }

    fn connect(addr: SocketAddr) -> (TcpStream, io::BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let reader = io::BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    /// Reads one response from a reader kept across a connection's answers,
    /// so a pipelined answer buffered behind it is not lost.
    fn read_response(reader: &mut impl io::BufRead) -> Result<Response, HttpError> {
        let mut message = Vec::new();
        while !message.ends_with(b"\r\n\r\n") {
            if reader.read_until(b'\n', &mut message)? == 0 {
                return Err(HttpError::Closed);
            }
        }
        let head = String::from_utf8_lossy(&message).to_ascii_lowercase();
        let len = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .map_or(0, |v| v.trim().parse().unwrap());
        let start = message.len();
        message.resize(start + len, 0);
        reader.read_exact(&mut message[start..])?;
        Response::read_from(&mut message.as_slice())
    }

    fn wait_for(what: &str, deadline: Duration, mut done: impl FnMut() -> bool) {
        let give_up = Instant::now() + deadline;
        while !done() {
            assert!(Instant::now() < give_up, "{what} within {deadline:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn settled(server: &Server) -> bool {
        let m = server.metrics();
        m.gauge_value("httpd_dispatch_queue_depth") == Some(0)
            && m.gauge_value("httpd_workers_busy") == Some(0)
            && server.active_connections() == 0
    }

    /// One client of the hand-off stress: 300 keep-alive requests, every
    /// fourth handler sleeping 0–2 ms, pipelined pairs, `connection:
    /// close` on every 7th request and a large answer, read late, on every
    /// 50th.
    fn stress_client(addr: SocketAddr, client: usize) {
        const REQUESTS: usize = 300;
        let close = |i: usize| i % 7 == 6;
        let big = |i: usize| (i + client) % 50 == 25;
        let (mut stream, mut reader) = connect(addr);
        let mut i = 0;
        while i < REQUESTS {
            let pair = i % 11 == 3 && !close(i) && i + 1 < REQUESTS;
            let batch: Vec<usize> = if pair { vec![i, i + 1] } else { vec![i] };
            let mut bytes = Vec::new();
            for &j in &batch {
                let sleep_us = if j % 4 == 0 { (j / 4 % 3) * 1000 } else { 0 };
                let path = format!("/r/c{client}-{j}/{sleep_us}/{}", u8::from(big(j)));
                bytes.extend(get(&path, close(j)));
            }
            stream.write_all(&bytes).unwrap();
            for &j in &batch {
                if big(j) {
                    // A slow reader: the answer outgrows the socket buffers
                    // before anything is read.
                    std::thread::sleep(Duration::from_millis(5));
                }
                let response = read_response(&mut reader)
                    .unwrap_or_else(|e| panic!("client {client} request {j}: {e}"));
                let tag = format!("c{client}-{j}");
                assert_eq!(response.status, 200, "{tag}");
                assert!(response.body.starts_with(tag.as_bytes()), "{tag} got another answer");
                let len = if big(j) { BIG } else { tag.len() };
                assert_eq!(response.body.len(), len, "{tag}");
                assert_eq!(response.keep_alive(), !close(j), "{tag}");
                if close(j) {
                    (stream, reader) = connect(addr);
                }
            }
            i += batch.len();
        }
    }

    #[test]
    fn hand_off_strands_duplicates_and_reorders_nothing() {
        for workers in [1, 2, 8] {
            let mut router = Router::new();
            router.add(Method::Get, "/r/:tag/:sleep_us/:big", |_, p| {
                let sleep_us: u64 = p["sleep_us"].parse().unwrap();
                std::thread::sleep(Duration::from_micros(sleep_us));
                let tag = &p["tag"];
                let pad = if p["big"] == "1" { BIG - tag.len() } else { 0 };
                Response::text(format!("{tag}{}", "x".repeat(pad)))
            });
            let config = ServerConfig {
                workers,
                keep_alive_idle: Duration::from_secs(1),
                ..ServerConfig::default()
            };
            let server = Server::build(router).config(config).spawn("127.0.0.1:0").unwrap();
            let addr = server.addr();
            let clients: Vec<_> =
                (0..16).map(|c| std::thread::spawn(move || stress_client(addr, c))).collect();
            let deadline = Instant::now() + Duration::from_secs(60);
            for client in clients {
                while !client.is_finished() {
                    assert!(Instant::now() < deadline, "workers {workers}: clients stranded");
                    std::thread::sleep(Duration::from_millis(5));
                }
                client.join().unwrap();
            }
            wait_for(
                "queue, busy handlers and connections back to 0",
                Duration::from_secs(5),
                || settled(&server),
            );
            // Left alone, a fresh keep-alive answer idles out on time. The
            // run's stale timer entries pass first, so only the answer's own
            // timer can wake the reactor.
            std::thread::sleep(config.keep_alive_idle + Duration::from_millis(200));
            let (mut stream, mut reader) = connect(addr);
            stream.write_all(&get("/r/last/0/0", false)).unwrap();
            assert_eq!(read_response(&mut reader).unwrap().body, b"last");
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "bytes after the answer: {rest:?}");
            server.shutdown();
        }
    }

    /// One keep-alive connection's requests, sent one at a time, keep to
    /// two threads: the leader runs the request it read and hands the
    /// reactor to the thread that parked last, the one that ran the
    /// request before.
    #[test]
    fn one_connection_keeps_to_two_warm_threads() {
        let mut router = Router::new();
        router.add(Method::Get, "/thread", |_, _| {
            Response::text(format!("{:?}", std::thread::current().id()))
        });
        let server = Server::spawn(router).unwrap();
        let (mut stream, mut reader) = connect(server.addr());
        let mut threads = std::collections::BTreeSet::new();
        for i in 0..300 {
            stream.write_all(&get("/thread", false)).unwrap();
            let answer = read_response(&mut reader).unwrap();
            if i > 0 {
                threads.insert(String::from_utf8(answer.body).unwrap());
            }
        }
        assert!(
            threads.len() <= 2,
            "{} threads answered one connection: {threads:?}",
            threads.len()
        );
    }

    /// Shutting down a server whose threads are all parked but the leader
    /// wakes every one of them.
    #[test]
    fn shutdown_wakes_every_parked_thread() {
        let mut server = test_server();
        let workers = server.shared.config.workers;
        let client = Client::new(server.addr());
        client.send(&Request::new(Method::Get, "/hello/parked")).unwrap();
        drop(client);
        wait_for("every thread but the leader parks", Duration::from_secs(5), || {
            server.shared.dispatch.lock().parked.len() == workers
        });
        let threads = std::mem::take(&mut server.threads);
        server.shutdown();
        wait_for("every thread exits", WORKER_JOIN_TOTAL, || {
            threads.iter().all(|t| t.is_finished())
        });
        for thread in threads {
            thread.join().unwrap();
        }
    }

    #[test]
    fn inline_answer_idles_out_on_time() {
        let mut router = Router::new();
        router.add(Method::Get, "/ok", |_, _| Response::text("up"));
        let config =
            ServerConfig { keep_alive_idle: Duration::from_millis(100), ..ServerConfig::default() };
        let server = Server::build(router).config(config).spawn("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let start = Instant::now();
        stream.write_all(&get("/ok", false)).unwrap();
        // A timer never armed would leave the read to its 5 s timeout.
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.ends_with("up"), "got {out:?}");
        assert!(out.contains("connection: keep-alive"), "got {out:?}");
        assert!(start.elapsed() < Duration::from_secs(2), "EOF after {:?}", start.elapsed());
    }

    #[test]
    fn slow_reader_gets_a_large_keep_alive_answer_whole() {
        let mut router = Router::new();
        router.add(Method::Get, "/big", |_, _| Response::text("y".repeat(BIG)));
        router.add(Method::Get, "/hello/:who", |_, p| Response::text(format!("hi {}", p["who"])));
        let server = Server::spawn(router).unwrap();
        let (mut stream, mut reader) = connect(server.addr());
        stream.write_all(&get("/big", false)).unwrap();
        // Nothing is read until the socket buffers are long full.
        std::thread::sleep(Duration::from_millis(200));
        let response = read_response(&mut reader).unwrap();
        assert_eq!(response.body.len(), BIG);
        assert!(response.body.iter().all(|&b| b == b'y'));
        assert!(response.keep_alive());
        stream.write_all(&get("/hello/next", false)).unwrap();
        assert_eq!(read_response(&mut reader).unwrap().body, b"hi next");
        assert_eq!(server.metrics().counter_value("httpd_connections_total"), Some(1));
    }

    #[test]
    fn peer_hanging_up_mid_dispatch_is_reclaimed() {
        let started = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (flag, gate) = (Arc::clone(&started), Arc::clone(&release));
        let mut router = Router::new();
        router.add(Method::Get, "/held", move |_, _| {
            flag.store(true, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            Response::text("nobody listens")
        });
        let server = Server::spawn(router).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(&get("/held", false)).unwrap();
        wait_for("the handler starts", Duration::from_secs(5), || started.load(Ordering::SeqCst));
        drop(stream);
        release.store(true, Ordering::SeqCst);
        wait_for("the connection is reclaimed", Duration::from_secs(5), || settled(&server));
    }

    /// An answer's hook runs once its last byte is on the wire, whichever
    /// thread writes it: the handler's (keep-alive) or the leader's
    /// (`Connection: close`). Each hook waits for the client to have read
    /// the answer; a hook run before the write would wait in vain.
    #[test]
    fn after_answer_hook_runs_once_the_answer_is_written() {
        let (read_tx, read_rx) = std::sync::mpsc::channel::<()>();
        let read_rx = Arc::new(Mutex::new(read_rx));
        let (ran_tx, ran_rx) = std::sync::mpsc::channel::<bool>();
        let mut router = Router::new();
        router.add(Method::Get, "/hooked", move |_, _| {
            let (read, ran) = (Arc::clone(&read_rx), ran_tx.clone());
            Response::text("receipt").after_answer(move || {
                let after_read = read.lock().recv_timeout(Duration::from_secs(5)).is_ok();
                let _ = ran.send(after_read);
            })
        });
        let server = Server::spawn(router).unwrap();
        for close in [false, true] {
            let (mut stream, mut reader) = connect(server.addr());
            stream.write_all(&get("/hooked", close)).unwrap();
            assert_eq!(read_response(&mut reader).unwrap().body, b"receipt");
            read_tx.send(()).unwrap();
            let ran = ran_rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(ran, Ok(true), "close {close}: the hook ran before the answer was read");
        }
    }

    /// An answer nobody writes still runs its hook, once: when the last copy
    /// of an in-process answer is dropped, and when the peer is gone before
    /// the handler returns.
    #[test]
    fn after_answer_hook_runs_when_the_answer_is_not_written() {
        let runs = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (started, release) =
            (Arc::new(AtomicBool::new(false)), Arc::new(AtomicBool::new(false)));
        let (count, flag, gate) = (Arc::clone(&runs), Arc::clone(&started), Arc::clone(&release));
        let mut router = Router::new();
        router.add(Method::Get, "/held", move |_, _| {
            flag.store(true, Ordering::SeqCst);
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let count = Arc::clone(&count);
            Response::text("late").after_answer(move || {
                count.fetch_add(1, Ordering::SeqCst);
            })
        });
        release.store(true, Ordering::SeqCst);
        let answer = router.dispatch(&crate::http::Request::new(Method::Get, "/held"));
        let copy = answer.clone();
        drop(answer);
        assert_eq!(runs.load(Ordering::SeqCst), 0, "a copy still holds the hook");
        drop(copy);
        assert_eq!(runs.load(Ordering::SeqCst), 1);

        release.store(false, Ordering::SeqCst);
        started.store(false, Ordering::SeqCst);
        let server = Server::spawn(router).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(&get("/held", false)).unwrap();
        wait_for("the handler starts", Duration::from_secs(5), || started.load(Ordering::SeqCst));
        drop(stream);
        release.store(true, Ordering::SeqCst);
        wait_for("the hook runs", Duration::from_secs(5), || runs.load(Ordering::SeqCst) == 2);
        wait_for("the connection is reclaimed", Duration::from_secs(5), || settled(&server));
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }
}
