//! HTTP/1.1 message types, parsing, and serialization.

use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;

/// Maximum length of a request/status line in bytes.
pub const MAX_START_LINE: usize = 8 << 10;
/// Maximum length of a single header line in bytes.
pub const MAX_HEADER_LINE: usize = 8 << 10;
/// Maximum number of headers per message.
pub const MAX_HEADERS: usize = 100;
/// Maximum total header-block size in bytes.
pub const MAX_HEADER_BYTES: usize = 64 << 10;

/// Supported request methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// PUT
    Put,
    /// DELETE
    Delete,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        })
    }
}

/// Errors from reading or parsing an HTTP message.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request/status line or header.
    Malformed(String),
    /// Method not recognized.
    BadMethod(String),
    /// Body longer than the configured limit.
    BodyTooLarge(usize),
    /// Request line or header block exceeds the configured limits.
    HeadersTooLarge(String),
    /// The peer closed the connection before sending any request bytes
    /// (the normal end of a keep-alive connection, not a protocol error).
    Closed,
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl HttpError {
    /// The HTTP status a server should answer with for this parse error.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::HeadersTooLarge(_) => 431,
            HttpError::BodyTooLarge(_) => 413,
            _ => 400,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(msg) => write!(f, "malformed http message: {msg}"),
            HttpError::BadMethod(m) => write!(f, "unsupported method: {m}"),
            HttpError::BodyTooLarge(n) => write!(f, "body of {n} bytes exceeds limit"),
            HttpError::HeadersTooLarge(msg) => write!(f, "header block too large: {msg}"),
            HttpError::Closed => write!(f, "connection closed before a request arrived"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Maximum accepted body size (16 MiB — enough for function uploads).
pub const MAX_BODY: usize = 16 << 20;

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Headers, keys lowercased.
    pub headers: HashMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

/// `value`'s JSON text as bytes: what `serde_json::to_vec` writes, through
/// the one writer that cannot fail.
fn json_bytes(value: &impl serde::Serialize) -> Vec<u8> {
    let mut text = String::with_capacity(128);
    value.write_json(&mut text);
    text.into_bytes()
}

impl Request {
    /// Creates a request (client side).
    pub fn new(method: Method, path_and_query: &str) -> Self {
        let (path, query) = split_query(path_and_query);
        Request { method, path, query, headers: HashMap::new(), body: Vec::new() }
    }

    /// Sets a JSON body (client side).
    pub fn json(mut self, value: &impl serde::Serialize) -> Self {
        self.body = json_bytes(value);
        self.headers.insert("content-type".into(), "application/json".into());
        self
    }

    /// Deserializes the body as JSON.
    ///
    /// # Errors
    ///
    /// Returns serde's error on malformed JSON.
    pub fn body_json<T: serde::de::DeserializeOwned>(&self) -> Result<T, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }

    /// Reads one request from a stream.
    ///
    /// # Errors
    ///
    /// [`HttpError`] on malformed input or I/O failure.
    pub fn read_from(stream: &mut impl Read) -> Result<Request, HttpError> {
        Request::read_from_buffered(&mut BufReader::new(stream))
    }

    /// Reads one request from a persistent buffered reader (the keep-alive
    /// server loop reuses one [`BufReader`] across requests so bytes the
    /// reader buffered past a message boundary are not lost).
    ///
    /// # Errors
    ///
    /// [`HttpError::Closed`] on clean EOF before any request bytes;
    /// otherwise as [`Request::read_from`].
    pub fn read_from_buffered(reader: &mut impl BufRead) -> Result<Request, HttpError> {
        let (head, body) = read_message(reader, parse_request_line)?;
        let (method, path, query) = head.start;
        Ok(Request { method, path, query, headers: head.headers, body })
    }

    /// Whether the sender asked to keep the connection open after this
    /// request (HTTP/1.1 default; an explicit `Connection: close` opts out).
    pub fn wants_keep_alive(&self) -> bool {
        !self.headers.get("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Serializes the request to a stream.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_to(&self, stream: &mut impl Write) -> Result<(), HttpError> {
        // Assemble the whole message first: one write per request keeps a
        // small request in a single TCP segment (no Nagle/delayed-ACK
        // interplay between header and body segments).
        let query = encode_query(&self.query);
        let mut message = Vec::with_capacity(256 + self.body.len());
        write!(message, "{} {}{} HTTP/1.1\r\n", self.method, self.path, query)?;
        for (k, v) in &self.headers {
            write!(message, "{k}: {v}\r\n")?;
        }
        if !self.headers.contains_key("connection") {
            // HTTP/1.1 defaults to keep-alive; say so explicitly for the
            // benefit of intermediaries and older peers.
            write!(message, "connection: keep-alive\r\n")?;
        }
        write!(message, "content-length: {}\r\n\r\n", self.body.len())?;
        message.extend_from_slice(&self.body);
        stream.write_all(&message)?;
        stream.flush()?;
        Ok(())
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers, keys lowercased.
    pub headers: HashMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// What runs once the answer is written ([`Response::after_answer`]).
    pub(crate) after: Option<Arc<AfterAnswer>>,
}

/// Work an answer carries for after it is written: it runs when dropped, so
/// whoever holds the last copy decides when — the server once the answer's
/// last byte reaches the socket, anyone else whenever they let go.
pub(crate) struct AfterAnswer(Option<Box<dyn FnOnce() + Send + Sync>>);

impl Drop for AfterAnswer {
    fn drop(&mut self) {
        if let Some(hook) = self.0.take() {
            hook();
        }
    }
}

impl fmt::Debug for AfterAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("AfterAnswer")
    }
}

impl Response {
    fn new(status: u16, headers: HashMap<String, String>, body: Vec<u8>) -> Self {
        Response { status, headers, body, after: None }
    }

    /// 200 with a JSON body.
    pub fn json(value: &impl serde::Serialize) -> Self {
        let body = json_bytes(value);
        let mut headers = HashMap::new();
        headers.insert("content-type".into(), "application/json".into());
        Response::new(200, headers, body)
    }

    /// 200 with a plain-text body.
    pub fn text(body: impl Into<String>) -> Self {
        let mut headers = HashMap::new();
        headers.insert("content-type".into(), "text/plain".into());
        Response::new(200, headers, body.into().into_bytes())
    }

    /// Runs `hook` once this answer is written: a [`crate::Server`] runs it
    /// right after the answer's last byte reaches the socket. An answer that
    /// is never written — the peer is gone, or the response came from
    /// [`crate::Router::dispatch`] in process — runs it when dropped, so it
    /// runs exactly once either way. Copies share the hook; it runs when
    /// the last copy goes. A second hook runs after the first.
    ///
    /// This is how a handler starts work the answer must not wait behind:
    /// the campaign routes wake the drivers here. Keep the hook short: it
    /// may run on the thread leading the server's reactor.
    pub fn after_answer(mut self, hook: impl FnOnce() + Send + Sync + 'static) -> Self {
        let first = self.after.take();
        self.after = Some(Arc::new(AfterAnswer(Some(Box::new(move || {
            drop(first);
            hook();
        })))));
        self
    }

    /// An error response with a plain-text message.
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        let mut r = Response::text(message.into());
        r.status = status;
        r
    }

    /// Deserializes the body as JSON.
    ///
    /// # Errors
    ///
    /// Returns serde's error on malformed JSON.
    pub fn body_json<T: serde::de::DeserializeOwned>(&self) -> Result<T, serde_json::Error> {
        serde_json::from_slice(&self.body)
    }

    /// Reads one response from a stream.
    ///
    /// # Errors
    ///
    /// [`HttpError`] on malformed input or I/O failure; [`HttpError::Closed`]
    /// when the peer closed before sending any response bytes.
    pub fn read_from(stream: &mut impl Read) -> Result<Response, HttpError> {
        let (head, body) = read_message(&mut BufReader::new(stream), parse_status_line)?;
        Ok(Response::new(head.start, head.headers, body))
    }

    /// Whether the sender will keep the connection open after this response
    /// (HTTP/1.1 default; an explicit `Connection: close` opts out).
    pub fn keep_alive(&self) -> bool {
        !self.headers.get("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Serializes the response to a stream.
    ///
    /// # Errors
    ///
    /// I/O failures.
    pub fn write_to(&self, stream: &mut impl Write) -> Result<(), HttpError> {
        // One write per response, for the same reason as
        // [`Request::write_to`].
        stream.write_all(&self.to_bytes())?;
        stream.flush()?;
        Ok(())
    }

    /// Serializes the whole response into one buffer (the reactor's write
    /// state machine flushes it incrementally as the socket drains).
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut message = Vec::with_capacity(256 + self.body.len());
        let _ = write!(message, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (k, v) in &self.headers {
            let _ = write!(message, "{k}: {v}\r\n");
        }
        let _ = write!(message, "content-length: {}\r\n\r\n", self.body.len());
        message.extend_from_slice(&self.body);
        message
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Start line and header block of one message at the front of a buffer.
struct Head<S> {
    start: S,
    headers: HashMap<String, String>,
    /// Bytes up to and including the blank line.
    len: usize,
    body_len: usize,
}

type RequestLine = (Method, String, HashMap<String, String>);

fn parse_request_line(line: &str) -> Result<RequestLine, HttpError> {
    let mut parts = line.splitn(3, ' ');
    let method = parts
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?;
    let method = Method::parse(method).ok_or_else(|| HttpError::BadMethod(method.to_owned()))?;
    // `splitn` yields an empty token for `GET  HTTP/1.1` (double space):
    // filter it out so a missing target is rejected, not accepted as "".
    let target = parts
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let (path, query) = split_query(target);
    Ok((method, path, query))
}

fn parse_status_line(line: &str) -> Result<u16, HttpError> {
    let mut parts = line.splitn(3, ' ');
    let _version = parts.next();
    parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line: {line:?}")))
}

/// The line at the front of `rest` (newline included) and whether its
/// newline has arrived. `max` also bounds a line still missing its newline,
/// so an endless line is cut off rather than accumulated.
fn front_line(rest: &[u8], max: usize) -> Result<(&[u8], bool), HttpError> {
    let newline = rest.iter().position(|&b| b == b'\n');
    let line = &rest[..newline.map_or(rest.len(), |nl| nl + 1)];
    // The newline itself is not counted against the cap.
    if line.len() - usize::from(newline.is_some()) > max {
        return Err(HttpError::HeadersTooLarge(format!("line exceeds {max} bytes")));
    }
    Ok((line, newline.is_some()))
}

fn line_text(line: &[u8]) -> Result<&str, HttpError> {
    // Validate UTF-8 explicitly: `BufRead::read_line` would surface
    // non-UTF-8 bytes as an *I/O* error (InvalidData), which misclassifies a
    // malformed request as a transport failure. The fuzz sweep found
    // exactly that on bit-flipped request lines.
    std::str::from_utf8(line)
        .map(str::trim_end)
        .map_err(|_| HttpError::Malformed("non-utf-8 bytes in request line or header".into()))
}

/// The one HTTP message parser: scans the front of `buf` for a start line
/// and header block. `Ok(None)` means more bytes are needed. Lines are
/// judged strictly in order and the size caps also apply to a line whose
/// newline has not arrived, so a verdict reached on a prefix is the verdict
/// the whole message gets, and a slow-loris peer dripping header bytes
/// forever is cut off without ever completing a block.
fn parse_head<S>(
    buf: &[u8],
    parse_start: fn(&str) -> Result<S, HttpError>,
) -> Result<Option<Head<S>>, HttpError> {
    let (line, complete) = front_line(buf, MAX_START_LINE)?;
    if !complete {
        return Ok(None);
    }
    let start = parse_start(line_text(line)?)?;
    let mut offset = line.len();
    let mut headers = HashMap::new();
    let mut header_bytes = 0usize;
    loop {
        let (line, complete) = front_line(&buf[offset..], MAX_HEADER_LINE)?;
        let blank = line.iter().all(u8::is_ascii_whitespace);
        if !blank {
            header_bytes += line.len();
            if header_bytes > MAX_HEADER_BYTES {
                return Err(HttpError::HeadersTooLarge(format!(
                    "header block exceeds {MAX_HEADER_BYTES} bytes"
                )));
            }
        }
        if !complete {
            return Ok(None);
        }
        offset += line.len();
        if blank {
            break;
        }
        let line = line_text(line)?;
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadersTooLarge(format!("more than {MAX_HEADERS} headers")));
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header: {line:?}")))?;
        let key = k.trim().to_ascii_lowercase();
        // Duplicate content-length headers are a request-smuggling vector:
        // reject them outright instead of last-writer-wins.
        if key == "content-length" && headers.contains_key(&key) {
            return Err(HttpError::Malformed("duplicate content-length header".into()));
        }
        headers.insert(key, v.trim().to_owned());
    }

    // A missing content-length means no body; a present one must parse as a
    // non-negative integer — serving an empty body for `-1` or garbage would
    // silently desynchronize peer and server framing.
    let body_len: usize = match headers.get("content-length") {
        None => 0,
        Some(v) => {
            // `u64::parse` accepts a leading `+`; HTTP content-length is
            // DIGIT-only, and anything looser desynchronizes framing with
            // peers that reject it.
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::Malformed(format!("bad content-length: {v:?}")));
            }
            v.parse::<u64>()
                .ok()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| HttpError::Malformed(format!("bad content-length: {v:?}")))?
        }
    };
    if body_len > MAX_BODY {
        return Err(HttpError::BodyTooLarge(body_len));
    }
    Ok(Some(Head { start, headers, len: offset, body_len }))
}

/// Blocking front-end of [`parse_head`]: accumulates the reader's chunks
/// until the head is complete, then reads exactly the declared body. Only
/// this message's bytes are consumed from `reader`.
fn read_message<S>(
    reader: &mut impl BufRead,
    parse_start: fn(&str) -> Result<S, HttpError>,
) -> Result<(Head<S>, Vec<u8>), HttpError> {
    let mut buf = Vec::new();
    let head = loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if chunk.is_empty() {
            return Err(if buf.is_empty() {
                HttpError::Closed
            } else {
                HttpError::Malformed("connection closed inside header block".into())
            });
        }
        let taken = chunk.len();
        buf.extend_from_slice(chunk);
        match parse_head(&buf, parse_start)? {
            None => reader.consume(taken),
            Some(head) => {
                let surplus = buf.len().saturating_sub(head.len + head.body_len);
                reader.consume(taken - surplus);
                buf.truncate(buf.len() - surplus);
                break head;
            }
        }
    };
    let mut body = buf.split_off(head.len);
    let missing = head.body_len - body.len();
    body.reserve_exact(missing);
    if reader.take(missing as u64).read_to_end(&mut body)? < missing {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    Ok((head, body))
}

/// Attempts to parse one complete request from the front of `buf` without
/// blocking: the reactor calls this after every read. Returns the request
/// plus the number of bytes it consumed (pipelined followers stay in the
/// buffer), `None` when the message is still incomplete, or the same
/// [`HttpError`]s as [`Request::read_from_buffered`] — including cap
/// violations detected before the header block is even complete.
pub(crate) fn try_parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
    let Some(head) = parse_head(buf, parse_request_line)? else { return Ok(None) };
    let end = head.len + head.body_len;
    if buf.len() < end {
        return Ok(None);
    }
    let (method, path, query) = head.start;
    let body = buf[head.len..end].to_vec();
    Ok(Some((Request { method, path, query, headers: head.headers, body }, end)))
}

fn split_query(target: &str) -> (String, HashMap<String, String>) {
    match target.split_once('?') {
        None => (target.to_owned(), HashMap::new()),
        Some((path, qs)) => {
            let mut query = HashMap::new();
            for pair in qs.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                query.insert(percent_decode(k), percent_decode(v));
            }
            (path.to_owned(), query)
        }
    }
}

fn encode_query(query: &HashMap<String, String>) -> String {
    if query.is_empty() {
        return String::new();
    }
    let mut pairs: Vec<_> = query.iter().collect();
    pairs.sort();
    let qs: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{}={}", percent_encode(k), percent_encode(v))).collect();
    format!("?{}", qs.join("&"))
}

fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 3 <= bytes.len() {
            if let Some(hex) = s.get(i + 1..i + 3) {
                if let Ok(b) = u8::from_str_radix(hex, 16) {
                    out.push(b);
                    i += 3;
                    continue;
                }
            }
            out.push(b'%');
            i += 1;
        } else if bytes[i] == b'+' {
            out.push(b' ');
            i += 1;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_roundtrip() {
        let req = Request::new(Method::Post, "/run?tee=tdx&kind=secure")
            .json(&serde_json::json!({"x": 1}));
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let parsed = Request::read_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.path, "/run");
        assert_eq!(parsed.query["tee"], "tdx");
        assert_eq!(parsed.query["kind"], "secure");
        let v: serde_json::Value = parsed.body_json().unwrap();
        assert_eq!(v["x"], 1);
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::json(&serde_json::json!({"ok": true}));
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let parsed = Response::read_from(&mut Cursor::new(buf)).unwrap();
        assert_eq!(parsed.status, 200);
        let v: serde_json::Value = parsed.body_json().unwrap();
        assert_eq!(v["ok"], true);
    }

    #[test]
    fn error_response_carries_status() {
        let resp = Response::error(404, "nope");
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found"));
        assert!(text.ends_with("nope"));
    }

    #[test]
    fn bad_method_rejected() {
        let raw = b"BREW /coffee HTTP/1.1\r\n\r\n".to_vec();
        assert!(matches!(Request::read_from(&mut Cursor::new(raw)), Err(HttpError::BadMethod(_))));
    }

    #[test]
    fn malformed_header_rejected() {
        let raw = b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec();
        assert!(matches!(Request::read_from(&mut Cursor::new(raw)), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn oversized_body_rejected() {
        let raw = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(
            Request::read_from(&mut Cursor::new(raw.into_bytes())),
            Err(HttpError::BodyTooLarge(_))
        ));
    }

    #[test]
    fn percent_coding_roundtrips() {
        let original = "hello world/100%+fun";
        assert_eq!(percent_decode(&percent_encode(original)), original);
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        let raw = b"GET /x HTTP/1.1\r\nhost: localhost\r\n\r\n".to_vec();
        let req = Request::read_from(&mut Cursor::new(raw)).unwrap();
        assert!(req.body.is_empty());
        assert_eq!(req.headers["host"], "localhost");
    }

    #[test]
    fn empty_stream_reads_as_closed_not_malformed() {
        let raw: Vec<u8> = Vec::new();
        assert!(matches!(Request::read_from(&mut Cursor::new(raw)), Err(HttpError::Closed)));
    }

    #[test]
    fn oversized_request_line_rejected_431() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_START_LINE));
        let err = Request::read_from(&mut Cursor::new(raw.into_bytes())).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge(_)), "got {err}");
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn oversized_header_line_rejected_431() {
        let raw = format!("GET / HTTP/1.1\r\nx-big: {}\r\n\r\n", "v".repeat(MAX_HEADER_LINE));
        let err = Request::read_from(&mut Cursor::new(raw.into_bytes())).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge(_)), "got {err}");
    }

    #[test]
    fn too_many_headers_rejected_431() {
        // A slow-loris stream: endless small header lines used to be read
        // forever; now the count cap cuts the request off.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("x-h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        let err = Request::read_from(&mut Cursor::new(raw.into_bytes())).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge(_)), "got {err}");
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn truncated_header_block_is_malformed() {
        let raw = b"GET / HTTP/1.1\r\nhost: x\r\n".to_vec(); // no terminating blank line
        assert!(matches!(Request::read_from(&mut Cursor::new(raw)), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn malformed_content_length_rejected_not_zeroed() {
        // `.parse().ok().unwrap_or(0)` used to serve an empty body for all
        // of these; they must be 400-class parse errors.
        for bad in ["abc", "-5", "1e3", "0x10", "18446744073709551616"] {
            let raw = format!("POST / HTTP/1.1\r\ncontent-length: {bad}\r\n\r\n");
            let err = Request::read_from(&mut Cursor::new(raw.into_bytes())).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "content-length {bad:?} gave {err}");
            assert_eq!(err.status(), 400);
        }
    }

    #[test]
    fn duplicate_content_length_rejected() {
        let raw =
            b"POST / HTTP/1.1\r\ncontent-length: 3\r\ncontent-length: 5\r\n\r\nabcde".to_vec();
        let err = Request::read_from(&mut Cursor::new(raw)).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "got {err}");
        // Other duplicate headers keep the lenient last-writer-wins behavior.
        let raw = b"GET / HTTP/1.1\r\nx-a: 1\r\nx-a: 2\r\n\r\n".to_vec();
        let req = Request::read_from(&mut Cursor::new(raw)).unwrap();
        assert_eq!(req.headers["x-a"], "2");
    }

    #[test]
    fn connection_close_header_recognized() {
        let raw = b"GET / HTTP/1.1\r\nconnection: close\r\n\r\n".to_vec();
        let req = Request::read_from(&mut Cursor::new(raw)).unwrap();
        assert!(!req.wants_keep_alive());
        let raw = b"GET / HTTP/1.1\r\nconnection: Keep-Alive\r\n\r\n".to_vec();
        let req = Request::read_from(&mut Cursor::new(raw)).unwrap();
        assert!(req.wants_keep_alive());
        let raw = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        assert!(Request::read_from(&mut Cursor::new(raw)).unwrap().wants_keep_alive());

        let mut resp = Response::text("x");
        assert!(resp.keep_alive(), "keep-alive is the HTTP/1.1 default");
        resp.headers.insert("connection".into(), "close".into());
        assert!(!resp.keep_alive());
    }

    #[test]
    fn incremental_parse_waits_for_complete_messages() {
        let mut raw = Vec::new();
        let mut req = Request::new(Method::Post, "/echo");
        req.body = b"hello body".to_vec();
        req.write_to(&mut raw).unwrap();
        // Every strict prefix is incomplete; the full message parses and
        // consumes exactly its own length.
        for cut in [0, 1, 10, raw.len() - 1] {
            assert!(try_parse_request(&raw[..cut]).unwrap().is_none(), "prefix of {cut} bytes");
        }
        let (parsed, consumed) = try_parse_request(&raw).unwrap().unwrap();
        assert_eq!(parsed.path, "/echo");
        assert_eq!(parsed.body, b"hello body");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn incremental_parse_leaves_pipelined_request_in_buffer() {
        let mut raw = Vec::new();
        Request::new(Method::Get, "/first").write_to(&mut raw).unwrap();
        let first_len = raw.len();
        Request::new(Method::Get, "/second").write_to(&mut raw).unwrap();
        let (a, consumed) = try_parse_request(&raw).unwrap().unwrap();
        assert_eq!(a.path, "/first");
        assert_eq!(consumed, first_len);
        let (b, rest) = try_parse_request(&raw[consumed..]).unwrap().unwrap();
        assert_eq!(b.path, "/second");
        assert_eq!(consumed + rest, raw.len());
    }

    #[test]
    fn incremental_parse_enforces_caps_before_block_completes() {
        // An endless request line with no newline: cut off at the cap even
        // though no terminator will ever arrive.
        let raw = vec![b'a'; MAX_START_LINE + 1];
        let err = try_parse_request(&raw).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge(_)), "got {err}");

        // A slow-loris header flood: each line is small but the count cap
        // fires long before the (never-sent) blank line.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            raw.extend_from_slice(format!("x-drip-{i}: v\r\n").as_bytes());
        }
        let err = try_parse_request(&raw).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge(_)), "got {err}");
        assert_eq!(err.status(), 431);

        // An oversized single header line, newline never sent.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(&vec![b'h'; MAX_HEADER_LINE + 2]);
        let err = try_parse_request(&raw).unwrap_err();
        assert!(matches!(err, HttpError::HeadersTooLarge(_)), "got {err}");
    }

    #[test]
    fn buffered_reader_survives_two_back_to_back_requests() {
        let mut raw = Vec::new();
        Request::new(Method::Get, "/first").write_to(&mut raw).unwrap();
        Request::new(Method::Get, "/second").write_to(&mut raw).unwrap();
        let mut cursor = Cursor::new(raw);
        let mut reader = std::io::BufReader::new(&mut cursor);
        let a = Request::read_from_buffered(&mut reader).unwrap();
        let b = Request::read_from_buffered(&mut reader).unwrap();
        assert_eq!(a.path, "/first");
        assert_eq!(b.path, "/second");
        assert!(matches!(Request::read_from_buffered(&mut reader), Err(HttpError::Closed)));
    }

    #[test]
    fn non_utf8_request_line_is_malformed_not_io() {
        // Regression: `read_line_limited` used to funnel non-UTF-8 bytes
        // through `BufRead::read_line`, which reports them as an *I/O* error
        // (kind InvalidData) — misclassifying a malformed request as a
        // transport failure. The fuzz sweep found this via bit flips.
        let raw = b"GET /\xff\xfe HTTP/1.1\r\n\r\n".to_vec();
        let err = Request::read_from(&mut Cursor::new(raw)).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "got {err:?}");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn non_utf8_header_line_is_malformed_not_io() {
        let raw = b"GET / HTTP/1.1\r\nx-bad: \x80\x81\r\n\r\n".to_vec();
        let err = Request::read_from(&mut Cursor::new(raw)).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "got {err:?}");
    }

    #[test]
    fn missing_request_target_is_malformed() {
        for raw in [&b"GET\r\n\r\n"[..], &b"GET  HTTP/1.1\r\n\r\n"[..], &b"\r\n\r\n"[..]] {
            let err = Request::read_from(&mut Cursor::new(raw.to_vec())).unwrap_err();
            assert_eq!(err.status(), 400, "for {raw:?}: {err:?}");
        }
    }

    #[test]
    fn hostile_content_length_values_are_rejected_cleanly() {
        // (` 5` is absent: header-value OWS trimming normalizes it to `5`.)
        for bad in ["-1", "1e9", "18446744073709551616", "0x10", "nope", "+3", ""] {
            let raw = format!("POST / HTTP/1.1\r\ncontent-length: {bad}\r\n\r\n");
            let err = Request::read_from(&mut Cursor::new(raw.into_bytes())).unwrap_err();
            assert!(matches!(err, HttpError::Malformed(_)), "for {bad:?}: {err:?}");
        }
        // In-range for u64 but over the body cap: a 413, not an allocation.
        let raw = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", u64::MAX);
        let err = Request::read_from(&mut Cursor::new(raw.into_bytes())).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge(_)), "got {err:?}");
    }

    /// The property every mutant must satisfy: the parser returns `Ok` or a
    /// typed `Err` — it never panics, and it never leaks a malformed request
    /// as an `Io` error (only genuine EOF may surface as `Io`).
    fn assert_clean_parse(mutant: &[u8]) {
        match Request::read_from(&mut Cursor::new(mutant.to_vec())) {
            Ok(_) | Err(HttpError::Closed) => {}
            Err(HttpError::Io(e)) => {
                assert_eq!(
                    e.kind(),
                    std::io::ErrorKind::UnexpectedEof,
                    "Io error other than EOF for mutant {mutant:?}"
                );
            }
            Err(_) => {}
        }
        // Split reads: whatever a prefix decides (a request and its length,
        // or an error status) is what the whole buffer decides.
        let verdict = |buf: &[u8]| match try_parse_request(buf) {
            Ok(None) => None,
            Ok(Some((_, consumed))) => Some(Ok(consumed)),
            Err(e) => Some(Err(e.status())),
        };
        let whole = verdict(mutant);
        for cut in 0..mutant.len() {
            let prefix = verdict(&mutant[..cut]);
            assert!(
                prefix.is_none() || prefix == whole,
                "cut at {cut} decided {prefix:?}, whole buffer {whole:?}, for mutant {mutant:?}"
            );
        }
    }

    #[test]
    fn fuzz_sweep_request_parser() {
        let corpus: Vec<Vec<u8>> = {
            let mut c = Vec::new();
            for req in [
                Request::new(Method::Get, "/v1/campaigns?limit=5&offset=0"),
                Request::new(Method::Post, "/v1/functions").json(&serde_json::json!({
                    "name": "echo", "language": "rust", "source": "fn main() {}"
                })),
                Request::new(Method::Delete, "/v1/campaigns/42"),
                Request::new(Method::Put, "/v1/policies/tdx").json(&serde_json::json!({
                    "min_tcb": 7
                })),
            ] {
                let mut raw = Vec::new();
                req.write_to(&mut raw).unwrap();
                c.push(raw);
            }
            c
        };

        let mut mutator = confbench_crypto::fuzz::Mutator::new(0xC0FF_BE7C_0001);
        let iters = confbench_crypto::fuzz::sweep_iters();
        for base in &corpus {
            for _ in 0..iters {
                let mutant = mutator.mutate(base);
                assert_clean_parse(&mutant);
            }
        }
    }
}
