//! Minimal HTTP/1.1 framing over any [`Read`] source.
//!
//! The server speaks exactly the subset its API needs: one request per
//! connection (`Connection: close` on every response), `Content-Length`
//! bodies only (any `Transfer-Encoding` is refused), ASCII request lines
//! and a head of at most [`MAX_HEAD_BYTES`]. Hand-rolling this keeps the
//! dependency count at zero and the attack surface auditable:
//! [`read_head`] and [`read_body`] are the *entire* network-facing input
//! path ahead of the format readers, which carry their own
//! [`cube_xml::ReadLimits`], and they answer from the bytes alone.
//!
//! Every socket read goes through `TimedRead`, which arms the read
//! timeout to what is left of a [`Deadline`]: [`read_request`] reads
//! through it, and `drain` empties the socket of a rejected client, or
//! of a request refused while it was read, through it within 250 ms and
//! 1 MiB.

use std::fmt;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on the request line plus headers, blank line included.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// An absolute time budget a request must finish within.
///
/// [`Deadline::none`] never expires; everything else is an
/// [`Instant`] after which [`Deadline::expired`] turns true and the
/// server answers `504 deadline_exceeded` instead of working on. The
/// budget is *checked* at phase boundaries (header read, body read,
/// operand open, evaluation) and *enforced* against stalled sockets by
/// `TimedRead`.
#[derive(Clone, Copy, Debug)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// A deadline `ms` milliseconds from now; `0` means unlimited.
    pub fn after_ms(ms: u64) -> Self {
        Self {
            at: (ms > 0).then(|| Instant::now() + Duration::from_millis(ms)),
        }
    }

    /// The deadline that never expires.
    pub fn none() -> Self {
        Self { at: None }
    }

    /// The earlier of the two deadlines.
    pub fn sooner(self, other: Deadline) -> Deadline {
        Self {
            at: match (self.at, other.at) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Budget left: `None` for unlimited, `Some(ZERO)` once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Whether the budget is gone.
    pub fn expired(&self) -> bool {
        matches!(self.remaining(), Some(d) if d.is_zero())
    }
}

/// A socket read under a [`Deadline`], the only code in this crate that
/// sets a read timeout from one. Once the budget is gone a read fails
/// with [`Expired`] for `phase`; every other result passes through.
struct TimedRead<'a> {
    stream: &'a TcpStream,
    deadline: Deadline,
    phase: &'static str,
}

impl Read for TimedRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let expired = || io::Error::new(ErrorKind::TimedOut, Expired(self.phase));
        match self.deadline.remaining() {
            Some(left) if left.is_zero() => return Err(expired()),
            Some(left) => self.stream.set_read_timeout(Some(left))?,
            None => {}
        }
        match self.stream.read(buf) {
            Err(e) if timed_out(&e) && self.deadline.expired() => Err(expired()),
            result => result,
        }
    }
}

/// Whether an I/O error is a socket-timeout wakeup (either kind,
/// depending on platform) rather than a real transport failure.
fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// What a `TimedRead` reports once its deadline has passed: the phase it
/// was reading for, which becomes [`HttpError::Deadline`].
#[derive(Debug)]
struct Expired(&'static str);

impl std::error::Error for Expired {}

impl fmt::Display for Expired {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadline expired while {}", self.0)
    }
}

/// A parsed request: method, path, lower-cased headers, raw body.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `PUT`, `POST`).
    pub method: String,
    /// Request path, e.g. `/experiments/0123456789abcdef/stats`.
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed before sending a complete request.
    Closed,
    /// The bytes are not a request this server understands.
    Malformed(String),
    /// The declared body exceeds the configured maximum.
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured cap.
        limit: usize,
    },
    /// Transport failure (includes read timeouts).
    Io(std::io::Error),
    /// A request deadline expired during the named phase; renders as
    /// `504 deadline_exceeded`.
    Deadline(&'static str),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        match e.get_ref().and_then(|e| e.downcast_ref()) {
            Some(&Expired(phase)) => HttpError::Deadline(phase),
            None => HttpError::Io(e),
        }
    }
}

/// Reads one request from `stream`: the head under `head_deadline` (the
/// slow-loris cap) or `total`, whichever is sooner, the body under
/// `total`, or under the socket's own read timeout when `total` is
/// unlimited.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    head_deadline: &Deadline,
    total: &Deadline,
) -> Result<Request, HttpError> {
    let stream = &*stream;
    let timed = |deadline, phase| TimedRead {
        stream,
        deadline,
        phase,
    };
    let head_budget = head_deadline.sooner(*total);
    // A body with no deadline reads under the socket's own timeout (the
    // one `--socket-timeout-ms` set), not under what the head's reads
    // last armed: note it before them and put it back after.
    let socket_timeout = match (head_budget.remaining(), total.remaining()) {
        (Some(_), None) => Some(stream.read_timeout()?),
        _ => None,
    };
    let head = read_head(&mut timed(head_budget, "reading request head"), max_body)?;
    if let Some(timeout) = socket_timeout {
        stream.set_read_timeout(timeout)?;
    }
    read_body(&mut timed(*total, "reading request body"), head)
}

/// A request whose head is read and checked, and the `Content-Length`
/// its body must reach; the body holds what arrived with the head.
#[derive(Debug)]
pub struct RequestHead(Request, usize);

/// Reads and checks a request head from `src`. Its blank line must end
/// within [`MAX_HEAD_BYTES`]. A `Transfer-Encoding`, an unparsable or
/// disagreeing `Content-Length` (RFC 9112 §6.3) or one past `max_body` is
/// refused before any read past the one that ended the head.
pub fn read_head(src: &mut impl Read, max_body: usize) -> Result<RequestHead, HttpError> {
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let mut end = None;
    while end.is_none() && head.len() < MAX_HEAD_BYTES {
        let n = src.read(&mut chunk)?;
        if n == 0 {
            return Err(if head.is_empty() {
                HttpError::Closed
            } else {
                HttpError::Malformed("connection closed mid-request".into())
            });
        }
        // The blank line may straddle the previous read.
        let from = head.len().saturating_sub(3);
        head.extend_from_slice(&chunk[..n]);
        end = find_head_end(&head[from..]).map(|at| from + at);
    }
    let end = end.filter(|&end| end <= MAX_HEAD_BYTES).ok_or_else(|| {
        HttpError::Malformed(format!("request head exceeds {MAX_HEAD_BYTES} bytes"))
    })?;
    let mut request = parse_head(&head[..end - 4])?;
    let declared = declared_length(&request.headers, max_body)?;
    request.body = head.split_off(end);
    Ok(RequestHead(request, declared))
}

/// Reads the rest of the body from `src`: exactly the declared length,
/// and no byte past it.
pub fn read_body(src: &mut impl Read, head: RequestHead) -> Result<Request, HttpError> {
    let RequestHead(mut request, declared) = head;
    if request.body.len() > declared {
        return Err(HttpError::Malformed(
            "more body bytes than content-length declares".into(),
        ));
    }
    // Grows with the bytes that arrive, not with the declared length.
    let missing = (declared - request.body.len()) as u64;
    src.take(missing).read_to_end(&mut request.body)?;
    if request.body.len() < declared {
        return Err(HttpError::Malformed("connection closed mid-body".into()));
    }
    Ok(request)
}

/// The body length `headers` declare; `0` without a `Content-Length`.
fn declared_length(headers: &[(String, String)], max_body: usize) -> Result<usize, HttpError> {
    let malformed = |message: &str| Err(HttpError::Malformed(message.into()));
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return malformed("transfer-encoding is not supported; send a content-length body");
    }
    let mut declared = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let Ok(n) = v.parse::<usize>() else {
            return malformed(&format!("bad content-length '{v}'"));
        };
        if declared.is_some_and(|d| d != n) {
            return malformed("content-length headers disagree");
        }
        declared = Some(n);
    }
    let declared = declared.unwrap_or(0);
    if declared > max_body {
        return Err(HttpError::BodyTooLarge {
            declared,
            limit: max_body,
        });
    }
    Ok(declared)
}

/// Empties what a rejected client is still sending, so that closing the
/// socket does not reset the connection and discard the response in
/// flight. It stops at EOF, an error, 1 MiB or 250 ms in total.
pub(crate) fn drain(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let timed = TimedRead {
        stream,
        deadline: Deadline::after_ms(250),
        phase: "draining a rejected request",
    };
    let _ = io::copy(&mut timed.take(1 << 20), &mut io::sink());
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// The request line and headers of `head`, with an empty body.
fn parse_head(head: &[u8]) -> Result<Request, HttpError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line '{request_line}'"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!("bad version '{version}'")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("bad header line '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    })
}

/// A response ready to serialize: status, content type, extra headers,
/// body.
///
/// The body is shared, not owned: an `/eval` result is the
/// `Arc<Vec<u8>>` the result cache holds, so a hit sends the cached
/// allocation itself and a miss sends the one it has just inserted.
/// Neither path copies the (multi-megabyte) body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Additional headers (e.g. `X-Cache`).
    pub extra: Vec<(&'static str, String)>,
    /// Response body, possibly shared with the result cache.
    pub body: Arc<Vec<u8>>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            extra: Vec::new(),
            body: Arc::new(body.into_bytes()),
        }
    }

    /// A response with explicit content type and raw bytes: an owned
    /// `Vec<u8>`, or an `Arc<Vec<u8>>` shared with a cache, which is
    /// sent without a copy.
    pub fn bytes(status: u16, content_type: &'static str, body: impl Into<Arc<Vec<u8>>>) -> Self {
        Self {
            status,
            content_type,
            extra: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds an extra header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra.push((name, value.into()));
        self
    }
}

/// Serializes `resp` onto `stream` with `Connection: close`.
pub fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

/// Reason phrase for the status codes this server emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        206 => "Partial Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_method_path_headers() {
        let r =
            parse_head(b"PUT /experiments HTTP/1.1\r\nContent-Length: 3\r\nX-Foo: bar").unwrap();
        assert_eq!(r.method, "PUT");
        assert_eq!(r.path, "/experiments");
        assert_eq!(r.headers[0], ("content-length".into(), "3".into()));
        assert_eq!(r.headers[1], ("x-foo".into(), "bar".into()));
    }

    #[test]
    fn rejects_garbage_request_lines() {
        assert!(parse_head(b"nonsense").is_err());
        assert!(parse_head(b"GET HTTP/1.1").is_err());
        assert!(parse_head(b"GET noslash HTTP/1.1").is_err());
        assert!(parse_head(b"GET / SPDY/99").is_err());
    }

    #[test]
    fn finds_head_end_only_on_blank_line() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    /// Frames one request from `src`, as `read_request` does from a socket.
    fn frame(mut src: impl Read, max_body: usize) -> Result<Request, HttpError> {
        let head = read_head(&mut src, max_body)?;
        read_body(&mut src, head)
    }

    fn malformed(answer: Result<Request, HttpError>) -> String {
        match answer {
            Err(HttpError::Malformed(message)) => message,
            Ok(request) => panic!("expected Malformed, got a request for {}", request.path),
            Err(e) => panic!("expected Malformed, got {e:?}"),
        }
    }

    #[test]
    fn the_head_limit_holds_however_the_head_arrives() {
        // A head whose blank line ends 500 bytes past the limit, sent in
        // one write, or with its first 1,023 bytes alone.
        let pad = "x".repeat(MAX_HEAD_BYTES + 500 - 34);
        let head = format!("GET /healthz HTTP/1.1\r\nx-pad: {pad}\r\n\r\n");
        assert_eq!(head.len(), MAX_HEAD_BYTES + 500);
        let head = head.as_bytes();
        for split in [0, 1023, 1024, MAX_HEAD_BYTES - 1] {
            let src = head[..split].chain(&head[split..]);
            assert_eq!(
                malformed(frame(src, 0)),
                format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
                "split at {split}"
            );
        }
        // A head that ends exactly at the limit is whole.
        let pad = "x".repeat(MAX_HEAD_BYTES - 34);
        let head = format!("GET /healthz HTTP/1.1\r\nx-pad: {pad}\r\n\r\n");
        assert_eq!(head.len(), MAX_HEAD_BYTES);
        let request = frame(head.as_bytes(), 0).unwrap();
        assert_eq!(request.header("x-pad").map(str::len), Some(pad.len()));
    }

    #[test]
    fn any_transfer_encoding_is_refused_before_the_body() {
        let head = b"PUT /experiments HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n";
        let chunk = b"5\r\nhello\r\n0\r\n\r\n";
        // The chunk shares the head's read.
        let message = malformed(frame(&[&head[..], chunk].concat()[..], 1 << 20));
        assert!(message.contains("transfer-encoding"), "{message}");
        // The chunk arrives after the head, and is never read.
        let mut unread = &chunk[..];
        let message = malformed(frame(head.chain(&mut unread), 1 << 20));
        assert!(message.contains("transfer-encoding"), "{message}");
        assert_eq!(unread.len(), chunk.len());
    }

    #[test]
    fn disagreeing_content_lengths_are_refused() {
        let two = |first: usize, second: usize| {
            format!(
                "PUT /experiments HTTP/1.1\r\ncontent-length: {first}\r\n\
                 content-length: {second}\r\n\r\n{}",
                "b".repeat(first)
            )
        };
        let message = malformed(frame(two(12, 5).as_bytes(), 1 << 20));
        assert_eq!(message, "content-length headers disagree");
        // Identical repeats stand.
        assert_eq!(
            frame(two(12, 12).as_bytes(), 1 << 20).unwrap().body.len(),
            12
        );
    }

    #[test]
    fn deadline_budget_arithmetic() {
        let unlimited = Deadline::none();
        assert!(!unlimited.expired());
        assert!(unlimited.remaining().is_none());
        assert!(!Deadline::after_ms(0).expired(), "0 means unlimited");

        let tight = Deadline::after_ms(1);
        std::thread::sleep(Duration::from_millis(5));
        assert!(tight.expired());
        assert_eq!(tight.remaining(), Some(Duration::ZERO));

        // sooner() keeps the finite side, and the earlier of two.
        assert!(tight.sooner(unlimited).expired());
        assert!(unlimited.sooner(tight).expired());
        assert!(!unlimited.sooner(Deadline::none()).expired());
        assert!(!Deadline::after_ms(60_000).sooner(unlimited).expired());
    }
}
