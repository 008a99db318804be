//! Minimal HTTP/1.1 framing over a [`std::net::TcpStream`].
//!
//! The server speaks exactly the subset its API needs: one request per
//! connection (`Connection: close` on every response), `Content-Length`
//! bodies only (no chunked encoding), ASCII request lines. Hand-rolling
//! this keeps the dependency count at zero and the attack surface
//! auditable: the parser below is the *entire* network-facing input
//! path ahead of the format readers, which carry their own
//! [`cube_xml::ReadLimits`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on the request line plus headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// An absolute time budget a request must finish within.
///
/// [`Deadline::none`] never expires; everything else is an
/// [`Instant`] after which [`Deadline::expired`] turns true and the
/// server answers `504 deadline_exceeded` instead of working on. The
/// budget is *checked* at phase boundaries (header read, body read,
/// operand open, evaluation) and *enforced* against stalled sockets by
/// re-arming the read timeout to the remaining budget.
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

/// Arms the socket read timeout to the remaining budget (so a stalled
/// peer wakes the worker exactly at expiry) or fails fast when the
/// budget is already gone.
fn arm_read(stream: &TcpStream, d: &Deadline, phase: &'static str) -> Result<(), HttpError> {
    match d.remaining() {
        None => Ok(()),
        Some(rem) if rem.is_zero() => Err(HttpError::Deadline(phase)),
        Some(rem) => {
            let _ = stream.set_read_timeout(Some(rem));
            Ok(())
        }
    }
}

/// Whether an I/O error is a socket-timeout wakeup (either kind,
/// depending on platform) rather than a real transport failure.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
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

/// Reads one request from `stream`, enforcing [`MAX_HEAD_BYTES`] and
/// the caller's body cap *before* buffering the body.
///
/// `head_deadline` bounds the header phase (the slow-loris cap: a peer
/// trickling header bytes is cut off when it expires), `total` bounds
/// the whole read. Both are re-armed onto the socket's read timeout so
/// a peer that stalls entirely wakes the worker at expiry rather than
/// at the coarse per-socket timeout.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    head_deadline: &Deadline,
    total: &Deadline,
) -> Result<Request, HttpError> {
    let head_budget = head_deadline.sooner(*total);
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let body_start = loop {
        if let Some(end) = find_head_end(&head) {
            break end;
        }
        if head.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::Malformed(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        arm_read(stream, &head_budget, "reading request head")?;
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if timed_out(&e) && head_budget.expired() => {
                return Err(HttpError::Deadline("reading request head"));
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if n == 0 {
            return if head.is_empty() {
                Err(HttpError::Closed)
            } else {
                Err(HttpError::Malformed("connection closed mid-request".into()))
            };
        }
        head.extend_from_slice(&chunk[..n]);
    };

    let (method, path, headers) = parse_head(&head[..body_start - 4])?;
    let declared = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad content-length '{v}'")))?,
        None => 0,
    };
    if declared > max_body {
        return Err(HttpError::BodyTooLarge {
            declared,
            limit: max_body,
        });
    }

    let mut body = head[body_start..].to_vec();
    if body.len() > declared {
        return Err(HttpError::Malformed(
            "more body bytes than content-length declares".into(),
        ));
    }
    while body.len() < declared {
        arm_read(stream, total, "reading request body")?;
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if timed_out(&e) && total.expired() => {
                return Err(HttpError::Deadline("reading request body"));
            }
            Err(e) => return Err(HttpError::Io(e)),
        };
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
        if body.len() > declared {
            return Err(HttpError::Malformed(
                "more body bytes than content-length declares".into(),
            ));
        }
    }

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Parsed request line + headers: `(method, path, headers)`.
type Head = (String, String, Vec<(String, String)>);

fn parse_head(head: &[u8]) -> Result<Head, HttpError> {
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
    Ok((method.to_string(), path.to_string(), headers))
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
        let (m, p, h) =
            parse_head(b"PUT /experiments HTTP/1.1\r\nContent-Length: 3\r\nX-Foo: bar").unwrap();
        assert_eq!(m, "PUT");
        assert_eq!(p, "/experiments");
        assert_eq!(h[0], ("content-length".into(), "3".into()));
        assert_eq!(h[1], ("x-foo".into(), "bar".into()));
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
