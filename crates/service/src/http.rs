//! A deliberately minimal HTTP/1.1 server: `std::net` + a fixed thread
//! pool, one request per connection, JSON bodies only.
//!
//! The workspace vendors every dependency, and a release frontend needs a
//! tiny, auditable slice of HTTP — not an async runtime. This module
//! implements exactly that slice: parse one request (method, path,
//! `Content-Length`-delimited body) off a connection, hand it to a
//! router, write one response, close. Connections are distributed over a
//! fixed pool of worker threads; the accept loop runs on its own thread
//! and shuts down cooperatively.
//!
//! Hard limits keep a malicious or broken client from tying up a worker:
//! the request line and headers together are capped at
//! [`MAX_HEAD_BYTES`] while they are read, bodies at [`MAX_BODY_BYTES`],
//! and every socket read carries a timeout.

use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Maximum accepted size of the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request-body size, in bytes.
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;
/// Per-read socket timeout: a stalled client costs a worker at most this.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request method, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// The request path, query string stripped.
    pub path: String,
    /// The raw query string (everything after `?`, empty when absent).
    pub query: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: String,
}

impl Request {
    /// The value of query parameter `name`, if present.
    ///
    /// Parameters are split on `&` and `=` without percent-decoding —
    /// the routing surface only uses plain ASCII tokens.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }
}

/// One HTTP response: a status code, a content type, and a body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A response with `status` and a pre-serialized JSON `body`.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A response with `status`, an explicit `content_type`, and a plain
    /// text `body` (used by the OpenMetrics exposition).
    pub fn text(status: u16, content_type: &'static str, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type,
            body: body.into(),
        }
    }

    /// An error response: `{"error": <message>}` with `status`.
    pub fn error(status: u16, message: &str) -> Self {
        let body = serde_json::to_string(&serde::Value::Map(vec![(
            "error".to_string(),
            serde::Value::Str(message.to_string()),
        )]))
        .expect("error body serialization is infallible");
        Self {
            status,
            content_type: "application/json",
            body,
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        423 => "Locked",
        _ => "Internal Server Error",
    }
}

/// Read one head line (request line or header) through the
/// [`MAX_HEAD_BYTES`]-limited `head`. A line that would overrun the cap is
/// refused with 413 as soon as the cap is read, never after the whole
/// line has been buffered.
fn read_head_line(
    head: &mut Take<BufReader<&mut TcpStream>>,
    what: &str,
) -> Result<String, Response> {
    let mut line = String::new();
    head.read_line(&mut line)
        .map_err(|e| Response::error(400, &format!("unreadable {what}: {e}")))?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(Response::error(413, "request head too large"));
    }
    Ok(line)
}

/// Read and parse one request off `stream`. Errors are protocol-level
/// (malformed request line, oversized head/body, timeout) and map to a
/// 400/413 response by the caller.
fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
    let mut head = BufReader::new(stream).take(MAX_HEAD_BYTES as u64);
    let line = read_head_line(&mut head, "request line")?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| Response::error(400, "empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| Response::error(400, "request line has no path"))?;
    // The query string is split off the path; routes that care (the
    // metrics exposition format switch) read it from `Request::query`.
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut head, "header")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Response::error(400, "unparseable Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(Response::error(413, "request body too large"));
    }
    let mut body = vec![0u8; content_length];
    head.into_inner()
        .read_exact(&mut body)
        .map_err(|e| Response::error(400, &format!("truncated body: {e}")))?;
    let body = String::from_utf8(body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn write_response(stream: &mut TcpStream, response: &Response) {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    // A peer that hung up mid-response is its own problem; the server
    // must not die for it.
    let _ = stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(response.body.as_bytes()))
        .and_then(|_| stream.flush());
}

/// The router signature: pure request → response.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running HTTP server: an accept thread feeding a fixed worker pool.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// `handler` on `threads` pool workers until [`shutdown`](Self::shutdown).
    pub fn serve(addr: &str, threads: usize, handler: Handler) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only for the handoff, not for
                    // the (potentially slow) connection handling.
                    let stream = rx.lock().expect("pool receiver poisoned").recv();
                    match stream {
                        Ok(mut stream) => {
                            let response = match read_request(&mut stream) {
                                Ok(request) => handler(&request),
                                Err(error_response) => error_response,
                            };
                            write_response(&mut stream, &response);
                        }
                        // Sender dropped: the accept loop exited.
                        Err(_) => break,
                    }
                })
            })
            .collect();
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        // A send can only fail after shutdown started.
                        let _ = tx.send(stream);
                    }
                }
                // `tx` drops here, draining the pool after queued
                // connections are served.
            })
        };
        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, serve everything already queued, and join every
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
