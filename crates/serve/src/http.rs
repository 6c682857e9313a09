//! A minimal, std-only HTTP/1.1 layer: exactly what a resident encoding
//! service needs and nothing more. One request per connection
//! (`Connection: close`), `Content-Length` bodies only (no chunked
//! transfer), ASCII request lines, case-insensitive header lookup.

use std::io::{self, BufRead, Read, Write};

/// Largest request body accepted, in bytes. KISS2 tables for even the
/// largest MCNC machines are a few kilobytes; a megabyte leaves two orders
/// of magnitude of headroom while bounding a worker's memory per request.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest request head (request line plus headers) read, in bytes. Past
/// it the request is answered 400 without reading further, so a client
/// cannot grow a worker's memory with an endless header line.
pub const MAX_HEAD_BYTES: u64 = 64 << 10;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component of the request target, without the query string.
    pub path: String,
    /// Raw query string (no leading `?`), possibly empty.
    pub query: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed, with the status code to answer with.
#[derive(Debug)]
pub enum RequestError {
    /// Malformed request line / headers / length, or a head over
    /// [`MAX_HEAD_BYTES`]: answer 400.
    Bad(String),
    /// Body larger than [`MAX_BODY_BYTES`]: answer 413.
    TooLarge(usize),
    /// The underlying socket failed (client gone): nothing to answer.
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

impl Request {
    /// Reads and parses one request from `r`.
    ///
    /// # Errors
    ///
    /// [`RequestError::Bad`] on malformed syntax or a head over
    /// [`MAX_HEAD_BYTES`], [`RequestError::TooLarge`] when `Content-Length`
    /// exceeds [`MAX_BODY_BYTES`], and [`RequestError::Io`] when the socket
    /// fails mid-read.
    pub fn read_from(r: &mut impl BufRead) -> Result<Request, RequestError> {
        let mut head = r.by_ref().take(MAX_HEAD_BYTES);
        let line = read_line(&mut head)?;
        let mut parts = line.split_whitespace();
        let (Some(method), Some(target), Some(version)) =
            (parts.next(), parts.next(), parts.next())
        else {
            return Err(RequestError::Bad(format!("bad request line {line:?}")));
        };
        if !version.starts_with("HTTP/1.") {
            return Err(RequestError::Bad(format!("unsupported {version}")));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };
        let mut headers = Vec::new();
        loop {
            let line = read_line(&mut head)?;
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(RequestError::Bad(format!("bad header {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let length = match headers.iter().find(|(n, _)| n == "content-length") {
            Some((_, v)) => v
                .parse::<usize>()
                .map_err(|_| RequestError::Bad(format!("bad content-length {v:?}")))?,
            None => 0,
        };
        if length > MAX_BODY_BYTES {
            return Err(RequestError::TooLarge(length));
        }
        let mut body = vec![0u8; length];
        r.read_exact(&mut body)?;
        Ok(Request {
            method: method.to_ascii_uppercase(),
            path,
            query,
            headers,
            body,
        })
    }

    /// Case-insensitive header lookup (first match).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one CRLF (or bare LF) terminated line of the request head,
/// rejecting non-UTF-8 input, unterminated input and a head that runs past
/// the `head` reader's byte limit.
fn read_line(head: &mut io::Take<impl BufRead>) -> Result<String, RequestError> {
    let mut buf = Vec::new();
    head.read_until(b'\n', &mut buf)?;
    if buf.last() != Some(&b'\n') {
        return Err(RequestError::Bad(if head.limit() == 0 {
            format!("request head exceeds {MAX_HEAD_BYTES} bytes")
        } else {
            "truncated line".into()
        }));
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| RequestError::Bad("non-utf8 line".into()))
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the always-present `Content-Length`,
    /// `Content-Type` and `Connection: close`.
    pub headers: Vec<(String, String)>,
    /// Content type (defaults to `application/json`).
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.into(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes the response to `w` (status line, headers, body) in one
    /// `write_all`: on a socket, each separate write is a system call.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut message = Vec::with_capacity(256 + self.body.len());
        write!(
            message,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(message, "{name}: {value}\r\n")?;
        }
        message.extend_from_slice(b"\r\n");
        message.extend_from_slice(&self.body);
        w.write_all(&message)?;
        w.flush()
    }
}

/// Canonical reason phrase for the handful of statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Splits a query string into decoded `key=value` pairs. `+` decodes to a
/// space and `%XX` to the byte it names; pairs without `=` get an empty
/// value.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = [bytes[i + 1], bytes[i + 2]];
                match std::str::from_utf8(&hex)
                    .ok()
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 2;
                    }
                    None => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encodes a string for use inside a query value: everything but
/// unreserved characters is `%XX`-escaped.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, RequestError> {
        Request::read_from(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            "POST /encode?algorithms=ihybrid HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/encode");
        assert_eq!(req.query, "algorithms=ihybrid");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(matches!(parse("nope\r\n\r\n"), Err(RequestError::Bad(_))));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(RequestError::Bad(_))
        ));
        let big = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30);
        assert!(matches!(parse(&big), Err(RequestError::TooLarge(_))));
    }

    /// A reader that counts the bytes it hands out.
    struct Counting<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn oversized_head_is_rejected_after_the_cap() {
        const BUF: usize = 8 << 10;
        let mut raw = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        raw.resize(8 << 20, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        let mut r = BufReader::with_capacity(
            BUF,
            Counting {
                inner: raw.as_slice(),
                read: 0,
            },
        );
        match Request::read_from(&mut r) {
            Err(RequestError::Bad(msg)) => assert!(msg.contains("request head exceeds"), "{msg}"),
            other => panic!("an 8 MiB header line must be rejected: {other:?}"),
        }
        let read = r.get_ref().read;
        assert!(
            read <= MAX_HEAD_BYTES as usize + BUF,
            "read {read} bytes of an over-cap head"
        );
    }

    /// A writer that counts its `write` calls, as a socket would count
    /// system calls.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_wire_format() {
        let mut w = CountingWriter::default();
        Response::json(200, "{}")
            .with_header("X-Nova-Cache", "hit")
            .with_header("X-Nova-Request-Id", "00000000000000ff")
            .write_to(&mut w)
            .unwrap();
        let text = String::from_utf8(w.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("X-Nova-Cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        assert_eq!(w.writes, 1, "one write per response");
    }

    #[test]
    fn query_decoding_round_trips() {
        let q = parse_query("a=1&b=hello+world&c=%2Fx%3D&flag");
        assert_eq!(
            q,
            vec![
                ("a".into(), "1".into()),
                ("b".into(), "hello world".into()),
                ("c".into(), "/x=".into()),
                ("flag".into(), String::new()),
            ]
        );
        let spec = "stage.espresso:1:budget,*:2:panic";
        let enc = percent_encode(spec);
        assert_eq!(parse_query(&format!("f={enc}"))[0].1, spec);
    }
}
