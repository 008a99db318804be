//! A one-request-per-connection HTTP/1.1 client, timed at each phase.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A transport failure or a reply this benchmark cannot read.
pub type ClientError = String;

/// A server reply.
#[derive(Debug)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// The `x-cache` header, if any.
    pub x_cache: Option<String>,
    /// The declared `content-length`, if any.
    pub content_length: Option<usize>,
    /// Every byte after the head, read to end of stream.
    pub body: Vec<u8>,
}

impl Reply {
    /// Whether the declared length matches the bytes received.
    pub fn length_ok(&self) -> bool {
        self.content_length == Some(self.body.len())
    }
}

/// When each phase of one exchange ended.
#[derive(Clone, Copy, Debug)]
pub struct Marks {
    /// Before `connect`.
    pub start: Instant,
    /// Connection established.
    pub connected: Instant,
    /// Request fully written.
    pub written: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// End of stream.
    pub done: Instant,
}

impl Marks {
    /// Connect to last byte.
    pub fn total(&self) -> Duration {
        self.done - self.start
    }
}

/// Generous per-socket timeout: a request this slow is a failure.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(60);

/// Sends one request on a fresh connection and reads the reply to end of
/// stream. `req_id`, when given, travels as `x-request-id`; the server
/// ignores it and the traced replay uses it to label spans.
pub fn send(
    addr: SocketAddr,
    method: &str,
    path: &str,
    req_id: Option<u64>,
    body: &[u8],
) -> Result<(Reply, Marks), ClientError> {
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n",
        body.len()
    );
    if let Some(id) = req_id {
        request.push_str(&format!("x-request-id: {id}\r\n"));
    }
    request.push_str("\r\n");
    let mut bytes = request.into_bytes();
    bytes.extend_from_slice(body);

    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connected = Instant::now();
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    stream.set_nodelay(true).map_err(|e| io("nodelay", e))?;
    stream
        .set_read_timeout(Some(SOCKET_TIMEOUT))
        .map_err(|e| io("timeout", e))?;
    stream
        .set_write_timeout(Some(SOCKET_TIMEOUT))
        .map_err(|e| io("timeout", e))?;
    stream.write_all(&bytes).map_err(|e| io("write", e))?;
    let written = Instant::now();

    let mut buf = vec![0u8; 64 * 1024];
    let mut head: Vec<u8> = Vec::new();
    let mut first_byte = None;
    let head_end = loop {
        let n = stream.read(&mut buf).map_err(|e| io("read", e))?;
        first_byte.get_or_insert_with(Instant::now);
        if n == 0 {
            return Err("connection closed before the response head ended".into());
        }
        head.extend_from_slice(&buf[..n]);
        if let Some(p) = head.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
    };
    let text = std::str::from_utf8(&head[..head_end]).map_err(|_| "head is not UTF-8")?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {text:?}"))?;
    let (mut x_cache, mut content_length) = (None, None);
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            match k.trim().to_ascii_lowercase().as_str() {
                "x-cache" => x_cache = Some(v.trim().to_string()),
                "content-length" => content_length = v.trim().parse().ok(),
                _ => {}
            }
        }
    }
    let mut body = Vec::with_capacity(content_length.unwrap_or(0));
    body.extend_from_slice(&head[head_end + 4..]);
    stream.read_to_end(&mut body).map_err(|e| io("read", e))?;
    let done = Instant::now();
    Ok((
        Reply {
            status,
            x_cache,
            content_length,
            body,
        },
        Marks {
            start,
            connected,
            written,
            first_byte: first_byte.expect("set by the first read"),
            done,
        },
    ))
}

/// The `"id"` field of an ingest reply such as `{"id":"0123…","created":true,…}`.
pub fn reply_id(body: &[u8]) -> Option<String> {
    cube_serve::json::extract_string_field(std::str::from_utf8(body).ok()?, "id")
}
