//! Shared helpers for the serve test harnesses: a minimal blocking
//! HTTP/1.1 client over `TcpStream` (the tests exercise the server's
//! own framing, so they must not reuse its code) and small parsers for
//! the JSON bodies the API returns.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status code, headers (lower-cased names), body.
pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request and reads the connection to EOF (the server
/// always answers `Connection: close`).
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> Reply {
    request_within(addr, method, path, body, Duration::from_secs(60)).expect("read full response")
}

/// [`request`], failing with the read error when the response does not
/// arrive within `timeout` of the last byte read.
pub fn request_within(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr).expect("connect to the test server");
    stream.set_read_timeout(Some(timeout)).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    stream.flush().unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    if raw.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed without a response",
        ));
    }
    Ok(parse_reply(&raw))
}

fn parse_reply(raw: &[u8]) -> Reply {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head")
        + 4;
    let head = std::str::from_utf8(&raw[..head_end - 4]).expect("ASCII head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: raw[head_end..].to_vec(),
    }
}

/// Pulls a string field out of a flat JSON object body.
pub fn json_field(body: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = body[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Pulls an unsigned-number field out of a flat JSON object body.
pub fn json_number(body: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let at = body.find(&needle)? + needle.len();
    let digits: String = body[at..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}
