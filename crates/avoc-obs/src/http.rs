//! A minimal, hostile-input-hardened HTTP/1.1 substrate.
//!
//! Just enough protocol for an admin plane: a GET-only request parser with
//! a hard size cap (no allocation proportional to attacker input beyond the
//! capped read buffer), a response writer that always sends
//! `Content-Length` and `Connection: close`, the one listener every admin
//! plane in the workspace runs on ([`Server`]: the daemon and the gateway
//! each hand it a routing function), and a tiny blocking GET client for
//! tests, benches and CI smoke probes. The parser returns typed errors
//! — [`ParseError::TooLarge`] maps to `431`, [`ParseError::BadMethod`] to
//! `405`, [`ParseError::BadRequest`] to `400` — and never panics, whatever
//! the bytes (property-tested in `tests/proptests.rs`).

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Hard cap on the request head (request line + headers). Anything longer
/// is rejected with `431 Request Header Fields Too Large`.
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Why a request head failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// The head is not complete yet — read more bytes and retry.
    Incomplete,
    /// The head exceeds [`MAX_REQUEST_BYTES`] → respond `431`.
    TooLarge,
    /// Syntactically valid enough to see a method, but not GET → `405`.
    BadMethod,
    /// Anything else malformed → `400`.
    BadRequest,
}

impl ParseError {
    /// The HTTP status code this error maps to (`Incomplete` has none and
    /// returns 400 as a terminal fallback).
    fn status(self) -> u16 {
        match self {
            ParseError::Incomplete | ParseError::BadRequest => 400,
            ParseError::TooLarge => 431,
            ParseError::BadMethod => 405,
        }
    }
}

/// A parsed GET request head, borrowing from the read buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request<'a> {
    target: &'a str,
}

impl<'a> Request<'a> {
    /// The request target's path component (before any `?`).
    pub fn path(&self) -> &'a str {
        match self.target.split_once('?') {
            Some((path, _)) => path,
            None => self.target,
        }
    }

    /// The first value of query parameter `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&'a str> {
        let (_, query) = self.target.split_once('?')?;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// Parses an HTTP/1.1 request head from `buf`.
///
/// Returns [`ParseError::Incomplete`] until the blank line terminating the
/// head has arrived (callers keep reading), and a terminal error otherwise.
/// Only `GET` is accepted; the target must be an ASCII path starting with
/// `/`; headers are ignored beyond delimiting the head.
pub fn parse_request(buf: &[u8]) -> Result<Request<'_>, ParseError> {
    let head_end = find_head_end(buf);
    if head_end.is_none() && buf.len() > MAX_REQUEST_BYTES {
        return Err(ParseError::TooLarge);
    }
    let Some(head_end) = head_end else {
        return Err(ParseError::Incomplete);
    };
    if head_end > MAX_REQUEST_BYTES {
        return Err(ParseError::TooLarge);
    }
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| ParseError::BadRequest)?;
    let request_line = head.lines().next().ok_or(ParseError::BadRequest)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or(ParseError::BadRequest)?;
    let target = parts.next().ok_or(ParseError::BadRequest)?;
    let version = parts.next().ok_or(ParseError::BadRequest)?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequest);
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(ParseError::BadRequest);
    }
    if method != "GET" {
        return Err(ParseError::BadMethod);
    }
    if !target.starts_with('/')
        || !target
            .bytes()
            .all(|b| b.is_ascii_graphic() && b != b'"' && b != b'\\')
    {
        return Err(ParseError::BadRequest);
    }
    Ok(Request { target })
}

/// Position just past the `\r\n\r\n` (or bare `\n\n`) terminating the head.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

/// The reason phrase for the handful of status codes the admin plane uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes one complete HTTP/1.1 response with `Content-Length` and
/// `Connection: close`, then flushes.
fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// How long a connection may take to deliver its request head (scrapers
/// send the whole head at once; anything slower is a stuck or hostile
/// peer).
const HEAD_DEADLINE: Duration = Duration::from_secs(5);

/// Read-timeout slice inside [`HEAD_DEADLINE`]: how often a connection that
/// waits for the rest of a head re-checks the deadline and [`Server::stop`].
const HEAD_POLL: Duration = Duration::from_millis(100);

/// Pause before a failed `accept()` is retried (the reactor re-probes a
/// paused data-plane listener at the same interval).
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(50);

/// Maps a parsed request to `(status, content type, body)`.
type Route = dyn Fn(&Request<'_>) -> (u16, &'static str, String) + Send + Sync;

/// A GET-only admin listener: one accept thread, one short-lived thread per
/// connection, one request per connection. The caller supplies the routes;
/// the server owns everything else — bind, the accept loop, reading the
/// head under [`MAX_REQUEST_BYTES`] and [`HEAD_DEADLINE`], the `431`/`405`/
/// `400` answers to hostile heads, reaping finished handlers, and shutdown.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    running: Arc<AtomicBool>,
    join: JoinHandle<()>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and answers every well-formed
    /// GET with `route`'s `(status, content type, body)` from a thread
    /// named `thread_name`.
    ///
    /// # Errors
    ///
    /// Propagates bind and thread-spawn errors.
    pub fn start(
        addr: &str,
        thread_name: &str,
        route: impl Fn(&Request<'_>) -> (u16, &'static str, String) + Send + Sync + 'static,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let running = Arc::new(AtomicBool::new(true));
        let join = {
            let running = Arc::clone(&running);
            std::thread::Builder::new()
                .name(thread_name.into())
                .spawn(move || {
                    let accept = || listener.accept().map(|(stream, _)| stream);
                    accept_loop(accept, Arc::new(route), running);
                })?
        };
        Ok(Server {
            local_addr,
            running,
            join,
        })
    }

    /// The address scrapers should hit.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and joins the accept thread and every handler.
    /// Responses already being written finish; connections still waiting
    /// for the rest of a request head are dropped.
    pub fn stop(self) {
        self.running.store(false, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.join.join();
    }
}

/// Serves connections from `accept` until `running` clears. `accept` is a
/// parameter so a test can inject failures ahead of the real listener.
fn accept_loop(
    mut accept: impl FnMut() -> io::Result<TcpStream>,
    route: Arc<Route>,
    running: Arc<AtomicBool>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while running.load(Ordering::SeqCst) {
        let Ok(stream) = accept() else {
            // Out of fds, an aborted handshake: accept failures are
            // transient, and fd exhaustion is exactly when an operator
            // needs `/healthz` to keep answering. Only `stop()` ends the
            // loop; the pause keeps a persistent failure from spinning.
            std::thread::sleep(ACCEPT_RETRY_PAUSE);
            continue;
        };
        if !running.load(Ordering::SeqCst) {
            break; // the stop() wake-up connection
        }
        let (route, running) = (Arc::clone(&route), Arc::clone(&running));
        // A handler thread that cannot be spawned drops its connection; the
        // next one is still accepted.
        if let Ok(conn) = std::thread::Builder::new().spawn(move || {
            let _ = serve_admin_connection(stream, &*route, &running);
        }) {
            conns.push(conn);
        }
        // Reap finished handlers so a long-lived process under periodic
        // scraping does not accumulate join handles.
        conns.retain(|c| !c.is_finished());
    }
    for c in conns {
        let _ = c.join();
    }
}

/// Reads one request head (bounded by [`MAX_REQUEST_BYTES`] and
/// [`HEAD_DEADLINE`]), answers it, closes.
fn serve_admin_connection(
    mut stream: TcpStream,
    route: &Route,
    running: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(HEAD_POLL))?;
    let deadline = Instant::now() + HEAD_DEADLINE;
    let live = || running.load(Ordering::SeqCst) && Instant::now() < deadline;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        // `parse_request` answers `TooLarge`, not `Incomplete`, once the
        // buffer passes the cap, so this loop reads at most one chunk past
        // it.
        match parse_request(&buf) {
            Ok(req) => {
                let (status, content_type, body) = route(&req);
                return write_response(&mut stream, status, content_type, &body);
            }
            Err(ParseError::Incomplete) => {}
            Err(e) => {
                let status = e.status();
                let body = format!("{}\n", reason(status));
                write_response(&mut stream, status, "text/plain; charset=utf-8", &body)?;
                // The peer may still be sending the refused head. Closing
                // with its bytes unread makes the kernel send a reset, which
                // can discard this answer before the peer reads it; so send
                // a FIN instead and read until the peer closes too.
                stream.shutdown(Shutdown::Write)?;
                while live() {
                    match stream.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(e) if poll_slice_ran_out(&e) => {}
                        Err(e) => return Err(e),
                    }
                }
                return Ok(());
            }
        }
        if !live() {
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer went away mid-request
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if poll_slice_ran_out(&e) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Whether a read failed only because a [`HEAD_POLL`] slice ran out (or a
/// signal landed): re-check the deadline and wait on.
fn poll_slice_ran_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// A blocking GET against `addr` (e.g. `127.0.0.1:9200`), returning the
/// status code and body. Five-second timeouts on every phase; used by
/// tests, the gateway's member scrapes, and `benchmark/`'s scraper.
pub fn get(addr: &str, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = match raw.find("\r\n\r\n") {
        Some(i) => raw[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_plain_get() {
        let req = parse_request(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.path(), "/metrics");
        assert_eq!(req.query_param("session"), None);
    }

    #[test]
    fn parses_query_parameters() {
        let req = parse_request(b"GET /trace?session=7&format=json HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path(), "/trace");
        assert_eq!(req.query_param("session"), Some("7"));
        assert_eq!(req.query_param("format"), Some("json"));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn incomplete_head_asks_for_more() {
        assert_eq!(
            parse_request(b"GET /metrics HTTP/1.1\r\nHost:"),
            Err(ParseError::Incomplete)
        );
    }

    #[test]
    fn oversized_request_line_is_431() {
        let mut buf = b"GET /".to_vec();
        buf.extend(std::iter::repeat_n(b'a', MAX_REQUEST_BYTES + 1));
        assert_eq!(parse_request(&buf), Err(ParseError::TooLarge));
        assert_eq!(ParseError::TooLarge.status(), 431);
    }

    #[test]
    fn non_get_methods_are_405() {
        for head in [
            &b"POST /metrics HTTP/1.1\r\n\r\n"[..],
            b"DELETE / HTTP/1.1\r\n\r\n",
            b"PUT /x HTTP/1.1\r\n\r\n",
        ] {
            assert_eq!(parse_request(head), Err(ParseError::BadMethod), "{head:?}");
        }
        assert_eq!(ParseError::BadMethod.status(), 405);
    }

    #[test]
    fn malformed_heads_are_400_never_panics() {
        for head in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /\x01 HTTP/1.1\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET / SPDY/9\r\n\r\n",
            b"\xff\xfe\x00\x01\r\n\r\n",
        ] {
            assert_eq!(parse_request(head), Err(ParseError::BadRequest), "{head:?}");
        }
    }

    #[test]
    fn response_writer_frames_the_body() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "text/plain", "hello").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn client_and_parser_round_trip_over_tcp() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            loop {
                let n = conn.read(&mut chunk).unwrap();
                buf.extend_from_slice(&chunk[..n]);
                match parse_request(&buf) {
                    Err(ParseError::Incomplete) if n > 0 => continue,
                    Ok(req) => {
                        let body = format!("path={}", req.path());
                        write_response(&mut conn, 200, "text/plain", &body).unwrap();
                        break;
                    }
                    _ => {
                        write_response(&mut conn, 400, "text/plain", "bad").unwrap();
                        break;
                    }
                }
            }
        });
        let (status, body) = get(&addr, "/healthz").unwrap();
        server.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "path=/healthz");
    }

    fn two_routes(req: &Request<'_>) -> (u16, &'static str, String) {
        match req.path() {
            "/healthz" => (200, "text/plain", "ok\n".to_string()),
            "/echo" => (
                200,
                "application/json",
                format!("{{\"q\":\"{}\"}}", req.query_param("q").unwrap_or("")),
            ),
            _ => (404, "text/plain", "no such route\n".to_string()),
        }
    }

    /// Sends raw bytes and returns the response's status line. After
    /// refusing a head the server half-closes and reads on until this side
    /// closes, so even an oversized head is written in full and its answer
    /// is read up to a clean end of stream, never cut off by a reset.
    fn raw_status(addr: SocketAddr, payload: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(payload).unwrap();
        let mut bytes = Vec::new();
        let mut chunk = [0u8; 1024];
        while let Ok(n @ 1..) = stream.read(&mut chunk) {
            bytes.extend_from_slice(&chunk[..n]);
        }
        let response = String::from_utf8_lossy(&bytes);
        response.lines().next().unwrap_or("").to_string()
    }

    #[test]
    fn server_routes_gets_and_answers_hostile_heads_itself() {
        let server = Server::start("127.0.0.1:0", "http-test", two_routes).unwrap();
        let addr = server.local_addr();
        let addr_str = addr.to_string();

        assert_eq!(get(&addr_str, "/healthz").unwrap(), (200, "ok\n".into()));
        assert_eq!(
            get(&addr_str, "/echo?q=7").unwrap(),
            (200, "{\"q\":\"7\"}".into())
        );
        // An unknown path is the router's business, body included.
        assert_eq!(
            get(&addr_str, "/nope").unwrap(),
            (404, "no such route\n".into())
        );

        // Heads that never reach the router.
        let oversized = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
        assert_eq!(
            raw_status(addr, oversized.as_bytes()),
            "HTTP/1.1 431 Request Header Fields Too Large"
        );
        assert_eq!(
            raw_status(addr, b"POST /healthz HTTP/1.1\r\n\r\n"),
            "HTTP/1.1 405 Method Not Allowed"
        );
        assert_eq!(
            raw_status(addr, b"\x00\xffnonsense\r\n\r\n"),
            "HTTP/1.1 400 Bad Request"
        );

        // None of that took the listener down.
        assert_eq!(get(&addr_str, "/healthz").unwrap(), (200, "ok\n".into()));
        server.stop();
        assert!(TcpStream::connect(addr).is_err(), "listener closed");
    }

    #[test]
    fn stop_returns_while_a_connection_sits_mid_head() {
        let server = Server::start("127.0.0.1:0", "http-test", two_routes).unwrap();
        let addr = server.local_addr();
        let mut stuck = TcpStream::connect(addr).unwrap();
        stuck.write_all(b"GET /heal").unwrap();
        // Connections are accepted in order, so once this later request is
        // answered the stuck one has its handler.
        assert_eq!(get(&addr.to_string(), "/healthz").unwrap().0, 200);

        let t0 = Instant::now();
        server.stop();
        assert!(
            t0.elapsed() < HEAD_DEADLINE / 2,
            "stop() waited out the head deadline: {:?}",
            t0.elapsed()
        );
        // The half-sent request got no answer, just a closed socket.
        stuck
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(stuck.read(&mut [0u8; 16]).unwrap_or(0), 0);
    }

    #[test]
    fn failed_accepts_are_retried_not_fatal() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let running = Arc::new(AtomicBool::new(true));
        let calls = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let join = {
            let (running, calls) = (Arc::clone(&running), Arc::clone(&calls));
            std::thread::spawn(move || {
                // Out of fds, then an aborted handshake, then the listener.
                let accept = move || match calls.fetch_add(1, Ordering::SeqCst) {
                    0 => Err(io::Error::from_raw_os_error(24)), // EMFILE
                    1 => Err(io::Error::from(io::ErrorKind::ConnectionAborted)),
                    _ => listener.accept().map(|(stream, _)| stream),
                };
                accept_loop(accept, Arc::new(two_routes), running);
            })
        };
        assert_eq!(
            get(&addr.to_string(), "/healthz").unwrap(),
            (200, "ok\n".into())
        );
        assert!(
            calls.load(Ordering::SeqCst) >= 3,
            "both failures came first"
        );
        running.store(false, Ordering::SeqCst);
        let _ = TcpStream::connect(addr); // unblock accept()
        join.join().unwrap();
    }
}
