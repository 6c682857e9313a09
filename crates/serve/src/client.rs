//! A tiny std-only HTTP client for the encoding service: what `nova
//! --remote` uses, and the first customer of the server's wire format.

use crate::http::reason;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A response from the service.
#[derive(Debug, Clone)]
pub struct RemoteResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Body text (the service always answers JSON).
    pub body: String,
}

impl RemoteResponse {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the response was served from the result cache.
    pub fn cache_hit(&self) -> bool {
        self.header("x-nova-cache") == Some("hit")
    }
}

/// What went wrong talking to the service.
#[derive(Debug)]
pub enum ClientError {
    /// Connection / socket failure.
    Io(std::io::Error),
    /// The peer answered something that is not HTTP.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection failed: {e}"),
            ClientError::Protocol(m) => write!(f, "bad response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Normalizes `http://host:port`, `host:port`, or `host:port/` to the bare
/// authority the socket connects to.
fn authority(addr: &str) -> &str {
    let addr = addr.strip_prefix("http://").unwrap_or(addr);
    addr.split('/').next().unwrap_or(addr)
}

/// Sends one request and reads the full response.
///
/// # Errors
///
/// [`ClientError::Io`] for socket failures, [`ClientError::Protocol`] when
/// the peer's answer is not parseable HTTP.
pub fn request(
    addr: &str,
    method: &str,
    path_and_query: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> Result<RemoteResponse, ClientError> {
    let authority = authority(addr);
    let stream = TcpStream::connect(authority)?;
    stream.set_read_timeout(Some(Duration::from_secs(300)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    // The whole request goes out in one write: on a socket, each separate
    // write is a system call.
    let mut message = Vec::with_capacity(256 + body.len());
    write!(
        message,
        "{method} {path_and_query} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n"
    )?;
    if let Some(t) = content_type {
        write!(message, "Content-Type: {t}\r\n")?;
    }
    write!(message, "Content-Length: {}\r\n\r\n", body.len())?;
    message.extend_from_slice(body);
    (&stream).write_all(&message)?;

    let mut r = BufReader::new(stream);
    let status_line = read_line(&mut r)?;
    let mut parts = status_line.split_whitespace();
    let status: u16 = match (parts.next(), parts.next()) {
        (Some(v), Some(code)) if v.starts_with("HTTP/1.") => code
            .parse()
            .map_err(|_| ClientError::Protocol(format!("bad status in {status_line:?}")))?,
        _ => {
            return Err(ClientError::Protocol(format!(
                "bad status line {status_line:?}"
            )))
        }
    };
    let mut headers = Vec::new();
    let mut length: Option<usize> = None;
    loop {
        let line = read_line(&mut r)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ClientError::Protocol(format!("bad header {line:?}")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            length = Some(
                value
                    .parse()
                    .map_err(|_| ClientError::Protocol(format!("bad content-length {value:?}")))?,
            );
        }
        headers.push((name, value));
    }
    let mut body = Vec::new();
    match length {
        Some(n) => {
            body.resize(n, 0);
            r.read_exact(&mut body)?;
        }
        None => {
            r.read_to_end(&mut body)?;
        }
    }
    let body = String::from_utf8(body)
        .map_err(|_| ClientError::Protocol("non-UTF-8 response body".into()))?;
    Ok(RemoteResponse {
        status,
        headers,
        body,
    })
}

fn encode_path(query: &str) -> String {
    if query.is_empty() {
        "/encode".to_string()
    } else {
        format!("/encode?{query}")
    }
}

/// POSTs a KISS2 body to `/encode` with the given query string.
///
/// # Errors
///
/// See [`request`].
pub fn post_kiss(addr: &str, kiss: &str, query: &str) -> Result<RemoteResponse, ClientError> {
    request(addr, "POST", &encode_path(query), None, kiss.as_bytes())
}

/// Tries [`post_kiss_retry`] makes, the first included.
const RETRY_ATTEMPTS: u32 = 3;

/// Upper bound on one sleep between tries, whatever `Retry-After` asks.
const RETRY_MAX_DELAY: Duration = Duration::from_secs(5);

/// [`post_kiss`], retrying a `503` (the service's full admission queue):
/// up to [`RETRY_ATTEMPTS`] tries, sleeping the server's `Retry-After`
/// seconds (none when the header is absent), capped at
/// [`RETRY_MAX_DELAY`]. The final `503` is returned as-is so callers keep
/// their status-code handling. Every other status is the final answer, and
/// I/O and protocol errors are not retried: an unreachable service fails
/// fast. This is what `nova --remote` uses.
///
/// # Errors
///
/// See [`request`].
pub fn post_kiss_retry(addr: &str, kiss: &str, query: &str) -> Result<RemoteResponse, ClientError> {
    let mut resp = post_kiss(addr, kiss, query)?;
    for _ in 1..RETRY_ATTEMPTS {
        if resp.status != 503 {
            break;
        }
        let retry_after = resp.header("retry-after").and_then(|v| v.parse().ok());
        std::thread::sleep(Duration::from_secs(retry_after.unwrap_or(0)).min(RETRY_MAX_DELAY));
        resp = post_kiss(addr, kiss, query)?;
    }
    Ok(resp)
}

/// GETs `/counters`.
///
/// # Errors
///
/// See [`request`].
pub fn get_counters(addr: &str) -> Result<RemoteResponse, ClientError> {
    request(addr, "GET", "/counters", None, &[])
}

fn read_line(r: &mut impl BufRead) -> Result<String, ClientError> {
    let mut buf = Vec::new();
    r.read_until(b'\n', &mut buf)?;
    if buf.last() != Some(&b'\n') {
        return Err(ClientError::Protocol("truncated response".into()));
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| ClientError::Protocol("non-utf8 header".into()))
}

/// Maps an HTTP status from the service onto the CLI's exit-code contract
/// (see README): 200 → 0, 400 → 3 (parse), 404/405 → 2 (usage), 503 → 1
/// (no result — retry later), anything else → 1.
pub fn status_exit_code(status: u16) -> u8 {
    match status {
        200 => 0,
        400 | 413 => 3,
        404 | 405 => 2,
        _ => 1,
    }
}

/// Human-oriented status summary (`503 Service Unavailable`).
pub fn status_line(status: u16) -> String {
    format!("{status} {}", reason(status))
}
