//! Minimal HTTP/1.1 server plumbing on `std::net`: request parsing,
//! response writing, and the service error type.
//!
//! The daemon speaks exactly the dialect `fdip_harness::remote` sends —
//! one request per connection, `Content-Length` bodies, no keep-alive,
//! no chunked transfer — which keeps both ends tiny and auditable. The
//! wire contract is specified in `docs/SERVE.md`.

use std::io::{self, BufRead, BufReader, Read, Take, Write};
use std::net::TcpStream;
use std::time::Duration;

use fdip_telemetry::{Json, SCHEMA_VERSION};

/// Largest request head (request line plus headers) the daemon reads;
/// a line that runs past it is refused with `413`.
const MAX_HEAD_BYTES: u64 = 64 << 10;

/// A service-level error: an HTTP status plus the machine-readable
/// `error.code` the response body carries (`docs/SERVE.md` lists the
/// codes).
#[derive(Clone, Debug)]
pub struct ServeError {
    /// HTTP status code of the response.
    pub status: u16,
    /// Stable machine-readable code (e.g. `bad_request`, `busy`).
    pub code: &'static str,
    /// Human-readable detail, for operators.
    pub message: String,
}

impl ServeError {
    /// Builds an error from its three parts.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> ServeError {
        ServeError {
            status,
            code,
            message: message.into(),
        }
    }

    /// `400 bad_request` — malformed or invalid request body.
    pub fn bad_request(message: impl Into<String>) -> ServeError {
        ServeError::new(400, "bad_request", message)
    }

    /// The `{schema_version, error: {code, message}}` response body.
    pub fn to_json(&self) -> Json {
        Json::obj().with("schema_version", SCHEMA_VERSION).with(
            "error",
            Json::obj()
                .with("code", self.code)
                .with("message", self.message.as_str()),
        )
    }
}

/// One parsed request: method, path, query parameters, and the JSON
/// body (`Json::Null` when the body is empty).
#[derive(Clone, Debug)]
pub struct Request {
    /// HTTP method (`GET`/`POST`).
    pub method: String,
    /// Request path with any query string stripped (e.g. `/v1/grid`).
    pub path: String,
    /// `k=v` pairs from the query string, in request order. Values are
    /// taken literally — the daemon's parameters (`since=`, `level=`,
    /// `target=`, `limit=`) never need percent-encoding.
    pub query: Vec<(String, String)>,
    /// Parsed JSON body, `Json::Null` if the request carried none.
    pub body: Json,
}

impl Request {
    /// The last value of query parameter `key`, if present.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// What a handler returns: most endpoints speak JSON, `/v1/metrics`
/// speaks Prometheus text exposition.
#[derive(Clone, Debug)]
pub enum Reply {
    /// An `application/json` body, already serialized.
    Json(String),
    /// A `text/plain; version=0.0.4` body (the exposition content type).
    Text(String),
}

impl From<Json> for Reply {
    /// A compact `application/json` body.
    fn from(body: Json) -> Reply {
        Reply::Json(body.to_string())
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Reads and parses one request from `stream`.
///
/// `read_timeout` bounds how long a slow or stalled client can hold the
/// connection; the head is read up to 64 KiB and `max_body` bounds the
/// declared body size (`413` beyond either). Any I/O or parse failure
/// maps to a [`ServeError`] the caller writes back.
pub fn read_request(
    stream: &TcpStream,
    max_body: usize,
    read_timeout: Duration,
) -> Result<Request, ServeError> {
    stream
        .set_read_timeout(Some(read_timeout))
        .map_err(|e| ServeError::new(500, "internal", format!("set_read_timeout: {e}")))?;
    let mut reader = BufReader::new(stream);
    let mut head = (&mut reader).take(MAX_HEAD_BYTES);
    let line = read_head_line(&mut head, "request line")?;
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => {
            return Err(ServeError::bad_request(format!(
                "bad request line {line:?}"
            )))
        }
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (
            p.to_string(),
            q.split('&')
                .filter(|pair| !pair.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (pair.to_string(), String::new()),
                })
                .collect(),
        ),
        None => (target, Vec::new()),
    };
    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut head, "headers")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    ServeError::bad_request(format!("bad content-length {value:?}"))
                })?;
            }
        }
    }
    if content_length > max_body {
        return Err(ServeError::new(
            413,
            "too_large",
            format!("body of {content_length} bytes exceeds the {max_body}-byte limit"),
        ));
    }
    let mut buf = vec![0u8; content_length];
    reader
        .read_exact(&mut buf)
        .map_err(|e| map_io("body", &e))?;
    let body = if buf.is_empty() {
        Json::Null
    } else {
        Json::parse_bytes(&buf)
            .map_err(|e| ServeError::bad_request(format!("body is not json: {e}")))?
    };
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Reads one line of the request head, within what is left of
/// [`MAX_HEAD_BYTES`].
fn read_head_line<R: BufRead>(head: &mut Take<R>, stage: &str) -> Result<String, ServeError> {
    let mut line = String::new();
    head.read_line(&mut line).map_err(|e| map_io(stage, &e))?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(ServeError::new(
            413,
            "too_large",
            format!("request head exceeds the {MAX_HEAD_BYTES}-byte limit"),
        ));
    }
    Ok(line)
}

fn map_io(stage: &str, e: &io::Error) -> ServeError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => ServeError::new(
            408,
            "timeout",
            format!("client stalled while sending {stage}"),
        ),
        _ => ServeError::bad_request(format!("reading {stage}: {e}")),
    }
}

/// Writes one HTTP/1.1 response, head and body in a single write, and
/// closes the exchange (`Connection: close`). Write errors are returned
/// for logging only — the connection is torn down either way.
pub fn write_reply(stream: &mut TcpStream, status: u16, reply: &Reply) -> io::Result<()> {
    let (content_type, payload) = match reply {
        Reply::Json(body) => ("application/json", body),
        Reply::Text(text) => ("text/plain; version=0.0.4", text),
    };
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        payload.len()
    );
    response.reserve_exact(payload.len());
    response.push_str(payload);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn exchange(raw: &str) -> Result<Request, ServeError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            s
        });
        let (stream, _) = listener.accept().unwrap();
        let req = read_request(&stream, 1024, Duration::from_secs(5));
        drop(writer.join().unwrap());
        req
    }

    #[test]
    fn parses_a_post_with_json_body() {
        let req = exchange(
            "POST /v1/grid HTTP/1.1\r\nHost: x\r\nContent-Length: 13\r\n\r\n{\"a\": [1, 2]}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/grid");
        assert_eq!(
            req.body.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn query_strings_are_split_off_the_path() {
        let req = exchange(
            "GET /v1/logs?since=12&level=debug&target=serve&flag HTTP/1.1\r\n\
             Host: x\r\nContent-Length: 0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(req.path, "/v1/logs");
        assert_eq!(req.query("since"), Some("12"));
        assert_eq!(req.query("level"), Some("debug"));
        assert_eq!(req.query("target"), Some("serve"));
        assert_eq!(req.query("flag"), Some(""));
        assert_eq!(req.query("missing"), None);
    }

    #[test]
    fn empty_body_parses_as_null() {
        let req = exchange("GET /v1/healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
        assert_eq!(req.unwrap().body, Json::Null);
    }

    #[test]
    fn oversized_body_is_rejected_with_413() {
        let e = exchange("POST /v1/grid HTTP/1.1\r\nContent-Length: 9999\r\n\r\n").unwrap_err();
        assert_eq!((e.status, e.code), (413, "too_large"));
    }

    #[test]
    fn oversized_head_is_rejected_with_413() {
        let pad = "a".repeat(MAX_HEAD_BYTES as usize);
        let e = exchange(&format!("GET /v1/healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n")).unwrap_err();
        assert_eq!((e.status, e.code), (413, "too_large"));
        // A head that fits is read as before.
        let pad = "a".repeat(MAX_HEAD_BYTES as usize - 64);
        let req = exchange(&format!("GET /v1/healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n"));
        assert_eq!(req.unwrap().path, "/v1/healthz");
    }

    #[test]
    fn malformed_json_is_rejected_with_400() {
        let e = exchange("POST /v1/grid HTTP/1.1\r\nContent-Length: 3\r\n\r\n{{{").unwrap_err();
        assert_eq!((e.status, e.code), (400, "bad_request"));
    }

    #[test]
    fn error_body_carries_code_and_message() {
        let j = ServeError::new(429, "busy", "try later").to_json();
        let err = j.get("error").unwrap();
        assert_eq!(err.get("code").and_then(Json::as_str), Some("busy"));
        assert_eq!(err.get("message").and_then(Json::as_str), Some("try later"));
    }
}
