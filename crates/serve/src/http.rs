//! A minimal, dependency-free HTTP/1.1 layer: just enough of the
//! protocol for the serve daemon's endpoints (request line, headers we
//! care about, `Content-Length` bodies, keep-alive) — in the spirit of
//! the workspace's in-tree shims, not a general web server.

use std::collections::HashMap;
use std::io::{self, BufRead, Write};

/// Largest accepted header block, in bytes.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Largest accepted request body, in bytes (ingest batches are bounded
/// by it; clients split bigger loads across requests).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string, e.g. `/v1/estimate`.
    pub path: String,
    /// Decoded query parameters, last occurrence winning.
    pub query: HashMap<String, String>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// A query parameter, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }
}

/// Read one request off the connection. `Ok(None)` means the client
/// closed cleanly between requests (normal keep-alive termination).
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let line = line.trim_end();
    let mut parts = line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_ascii_uppercase(), t.to_string(), v),
        _ => return Err(bad(format!("malformed request line {line:?}"))),
    };
    // HTTP/1.0 defaults to close, 1.1 to keep-alive.
    let mut keep_alive = version != "HTTP/1.0";

    let mut content_length = 0usize;
    let mut header_bytes = 0usize;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            return Err(bad("connection closed mid-headers".to_string()));
        }
        header_bytes += h.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(bad("header block too large".to_string()));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            continue; // tolerate junk headers
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse::<usize>()
                    .map_err(|_| bad(format!("bad Content-Length {value:?}")))?;
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    keep_alive = false;
                } else if v.contains("keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(bad(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target, HashMap::new()),
    };
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    }))
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Parse `a=1&b=two` with minimal percent-decoding (`%XX` and `+`).
fn parse_query(q: &str) -> HashMap<String, String> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (decode(k), decode(v)),
            None => (decode(kv), String::new()),
        })
        .collect()
}

fn decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                match u8::from_str_radix(hex, 16) {
                    Ok(b) => {
                        out.push(b);
                        i += 2;
                    }
                    Err(_) => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// HTTP status lines the daemon (and the recording proxy in front of
/// it) emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// 200.
    Ok,
    /// 400 — malformed request or parameters.
    BadRequest,
    /// 404 — unknown route.
    NotFound,
    /// 405 — known route, wrong method.
    MethodNotAllowed,
    /// 422 — well-formed request the registry rejected.
    Unprocessable,
    /// 429 — per-tenant admission quota exceeded.
    TooManyRequests,
    /// 500 — internal failure.
    Internal,
    /// 502 — a proxy's upstream failed mid-exchange.
    BadGateway,
    /// 503 — admission control rejected the connection.
    Unavailable,
    /// Any other code, relayed with the generic reason `Response`.
    Other(u16),
}

impl Status {
    /// The numeric status code.
    fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::BadRequest => 400,
            Status::NotFound => 404,
            Status::MethodNotAllowed => 405,
            Status::Unprocessable => 422,
            Status::TooManyRequests => 429,
            Status::Internal => 500,
            Status::BadGateway => 502,
            Status::Unavailable => 503,
            Status::Other(code) => code,
        }
    }

    /// The reason phrase after the code on the status line.
    fn reason(self) -> &'static str {
        match self {
            Status::Ok => "OK",
            Status::BadRequest => "Bad Request",
            Status::NotFound => "Not Found",
            Status::MethodNotAllowed => "Method Not Allowed",
            Status::Unprocessable => "Unprocessable Entity",
            Status::TooManyRequests => "Too Many Requests",
            Status::Internal => "Internal Server Error",
            Status::BadGateway => "Bad Gateway",
            Status::Unavailable => "Service Unavailable",
            Status::Other(_) => "Response",
        }
    }
}

/// Write one response — status line, headers and body — in a single
/// `write_all` of one buffer. The daemon sets `TCP_NODELAY` on every
/// accepted socket, so each `write` on it leaves as its own segment and
/// wakes the client once; formatting straight onto the socket would
/// send a ten-piece answer as ten segments. `keep_alive` mirrors what
/// the connection loop intends to do next, so clients can pipeline
/// against the advertised header.
pub fn respond<W: Write>(
    w: &mut W,
    status: Status,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let mut buf = Vec::with_capacity(128 + content_type.len() + body.len());
    write!(
        buf,
        "HTTP/1.1 {} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n",
        status.code(),
        status.reason(),
        body.len(),
    )?;
    buf.extend_from_slice(body.as_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// Escape a string for embedding in a JSON value.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_request_line_query_and_body() {
        let raw = b"POST /v1/ingest?tenant=acme&stream=r%201 HTTP/1.1\r\n\
                    Content-Length: 4\r\nConnection: close\r\n\r\nbody";
        let mut r = BufReader::new(&raw[..]);
        let req = read_request(&mut r).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/ingest");
        assert_eq!(req.param("tenant"), Some("acme"));
        assert_eq!(req.param("stream"), Some("r 1"));
        assert_eq!(req.body, b"body");
        assert!(!req.keep_alive);
    }

    #[test]
    fn eof_between_requests_is_none() {
        let mut r = BufReader::new(&b""[..]);
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let mut r = BufReader::new(raw.as_bytes());
        assert!(read_request(&mut r).is_err());
    }

    /// A sink that counts `write` calls: on a `TCP_NODELAY` socket each
    /// one is a segment and a client wake-up.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
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
    fn respond_is_one_write_for_every_status_and_body_size() {
        let big = "x".repeat(64 * 1024 + 1);
        let statuses = [
            Status::Ok,
            Status::BadRequest,
            Status::NotFound,
            Status::MethodNotAllowed,
            Status::Unprocessable,
            Status::TooManyRequests,
            Status::Internal,
            Status::BadGateway,
            Status::Unavailable,
            Status::Other(418),
        ];
        for status in statuses {
            for body in ["", big.as_str()] {
                for keep_alive in [true, false] {
                    let mut w = CountingWriter::default();
                    respond(&mut w, status, "application/json", body, keep_alive).unwrap();
                    assert_eq!(w.writes, 1, "{status:?}, {}-byte body", body.len());
                    assert!(w.bytes.ends_with(body.as_bytes()));
                }
            }
        }
    }

    /// The exact bytes of a 200 and a 503 answer, pinned so the framing
    /// cannot drift.
    #[test]
    fn respond_frames_a_body() {
        let mut out = Vec::new();
        let body = "{\"estimate\":1234.5,\"epoch\":7}";
        respond(&mut out, Status::Ok, "application/json", body, true).unwrap();
        assert_eq!(
            out,
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
              Content-Length: 29\r\nConnection: keep-alive\r\n\r\n\
              {\"estimate\":1234.5,\"epoch\":7}"
        );
        let mut out = Vec::new();
        let body = "{\"error\":\"server saturated; retry\"}";
        respond(
            &mut out,
            Status::Unavailable,
            "application/json",
            body,
            false,
        )
        .unwrap();
        assert_eq!(
            out,
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
              Content-Length: 35\r\nConnection: close\r\n\r\n\
              {\"error\":\"server saturated; retry\"}"
        );
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
