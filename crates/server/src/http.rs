//! A minimal HTTP/1.1 request parser and response writer over
//! [`std::net::TcpStream`].
//!
//! Hand-rolled for the same reason as the JSON writer
//! ([`approxdd_sim::json`]): the workspace builds fully offline, so
//! there is no hyper/axum to reach for. The subset implemented is
//! exactly what the job server needs — one request per connection
//! (`Connection: close` semantics), `Content-Length` bodies, query
//! strings with percent-decoding, and chunk-free streaming responses
//! whose bodies are newline-delimited JSON written as events settle.
//!
//! Limits are deliberate: 64 KiB of head (request line + headers) and
//! 4 MiB of body. A QASM circuit that exceeds the body cap is beyond
//! what the simulator would finish in any reasonable deadline anyway.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use approxdd_sim::json::Json;

/// Maximum bytes of request line + headers.
const MAX_HEAD: usize = 64 * 1024;
/// Maximum bytes of request body (`Content-Length`).
const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, ...).
    pub(crate) method: String,
    /// Decoded path without the query string (`/jobs/12`).
    pub(crate) path: String,
    /// Percent-decoded query parameters in order of appearance.
    pub(crate) query: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub(crate) body: Vec<u8>,
}

impl Request {
    /// The first query parameter named `key`, if any.
    #[must_use]
    pub(crate) fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one HTTP request off `stream`.
///
/// Returns `Ok(None)` on a clean EOF before any byte arrived (the
/// peer connected and closed — how the server's own shutdown wakeup
/// connection looks) and `Err` for malformed or oversized requests.
pub(crate) fn read_request(stream: &mut TcpStream) -> io::Result<Option<Request>> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Where the terminator search resumes. Scanning all of `buf` after
    // every read would cost O(n²) compares on a head dribbled in a few
    // bytes at a time; a terminator not found yet can start no earlier
    // than three bytes before the end of what was scanned.
    let mut scan_from = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf[scan_from..]) {
            break scan_from + pos;
        }
        scan_from = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEAD {
            return Err(bad("request head exceeds 64 KiB"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(bad("connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| bad("request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty request"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad("missing method"))?
        .to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let (path, query) = split_target(target);

    // Every header line is validated; only the first `Content-Length`
    // is read.
    let mut content_length = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header line"))?;
        if content_length.is_none() && name.trim().eq_ignore_ascii_case("content-length") {
            content_length = Some(value.trim());
        }
    }

    let content_length = content_length
        .map(str::parse::<usize>)
        .transpose()
        .map_err(|_| bad("unparseable Content-Length"))?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(bad("request body exceeds 4 MiB"));
    }

    // Body bytes may already sit in `buf` past the head terminator.
    let body_start = head_end + 4;
    let mut body: Vec<u8> = buf[body_start.min(buf.len())..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(bad("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Some(Request {
        method,
        path,
        query,
        body,
    }))
}

/// Writes a complete response with the given status and body.
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a JSON document as a complete response.
pub(crate) fn write_json(stream: &mut TcpStream, status: u16, body: &Json) -> io::Result<()> {
    write_response(
        stream,
        status,
        "application/json",
        format!("{body}\n").as_bytes(),
    )
}

/// Writes the head of a streaming NDJSON response. The caller then
/// writes newline-terminated JSON lines directly and closes the
/// connection when the stream ends (`Connection: close` framing — no
/// Content-Length, no chunked encoding).
pub(crate) fn start_ndjson(stream: &mut TcpStream) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (percent_decode(target), Vec::new()),
        Some((path, qs)) => {
            let query = qs
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(pair), String::new()),
                })
                .collect();
            (percent_decode(path), query)
        }
    }
}

/// Decodes `%XX` escapes and `+`-as-space (application/x-www-form-
/// urlencoded query conventions). Invalid escapes pass through
/// verbatim rather than failing the whole request.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                if let (Some(hi), Some(lo)) = (
                    bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16)),
                    bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16)),
                ) {
                    #[allow(clippy::cast_possible_truncation)]
                    out.push((hi * 16 + lo) as u8);
                    i += 3;
                } else {
                    out.push(b'%');
                    i += 1;
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_target_and_decodes() {
        let (path, query) = split_target("/jobs?shots=1024&client=alice%20a&x=a+b");
        assert_eq!(path, "/jobs");
        assert_eq!(
            query,
            vec![
                ("shots".to_string(), "1024".to_string()),
                ("client".to_string(), "alice a".to_string()),
                ("x".to_string(), "a b".to_string()),
            ]
        );
    }

    #[test]
    fn invalid_percent_escapes_pass_through() {
        assert_eq!(percent_decode("a%zz%4"), "a%zz%4");
        assert_eq!(percent_decode("%41"), "A");
    }

    #[test]
    fn finds_head_terminator() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }

    const REQUEST: &[u8] =
        b"POST /jobs?shots=4 HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello";

    /// Parses `REQUEST` off a loopback connection that delivers it cut
    /// at the byte offsets `cuts`, one write per piece, and returns
    /// the parsed request's `Debug` rendering.
    fn parse_cut_at(cuts: &[usize]) -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut reader, _) = listener.accept().unwrap();
        writer.set_nodelay(true).unwrap();
        let mut bounds = vec![0];
        bounds.extend(cuts);
        bounds.push(REQUEST.len());
        let feeder = std::thread::spawn(move || {
            for piece in bounds.windows(2) {
                writer.write_all(&REQUEST[piece[0]..piece[1]]).unwrap();
                // Let the reader drain this piece before the next one
                // lands, so that each piece is a `read` of its own.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        let request = read_request(&mut reader).unwrap().unwrap();
        feeder.join().unwrap();
        format!("{request:?}")
    }

    #[test]
    fn dribbled_request_parses_like_a_whole_one() {
        let whole = parse_cut_at(&[]);
        assert!(whole.contains("path: \"/jobs\""), "{whole}");
        assert!(whole.contains("body: [104, 101, 108, 108, 111]"), "{whole}");
        let every_byte: Vec<usize> = (1..REQUEST.len()).collect();
        assert_eq!(parse_cut_at(&every_byte), whole);
    }

    #[test]
    fn terminator_may_straddle_reads() {
        let whole = parse_cut_at(&[]);
        let t = find_head_end(REQUEST).unwrap();
        // Two, three and four reads; the last piece always carries the
        // body along with the end of the terminator.
        for cuts in [
            vec![t + 1],
            vec![t + 2],
            vec![t + 3],
            vec![t + 1, t + 3],
            vec![t + 1, t + 2, t + 3],
        ] {
            assert_eq!(parse_cut_at(&cuts), whole, "cut at {cuts:?}");
        }
        // The whole terminator and the body in one read after the head,
        // and the body split from a complete head.
        assert_eq!(parse_cut_at(&[t]), whole);
        assert_eq!(parse_cut_at(&[t + 4]), whole);
    }
}
