//! A deliberately tiny HTTP/1.1 subset for the worker protocol.
//!
//! The workspace vendors no network crates, so both sides of the
//! orchestrator ↔ `wormsim-worker` link are hand-rolled over
//! [`std::net::TcpStream`]: one request per connection, `Content-Length`
//! framing, `Connection: close`. That subset is all the protocol needs —
//! four endpoints exchanging small JSON bodies — and keeps the wire
//! debuggable with `curl`.

use std::io::{Error, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest header block we accept (per request/response).
const MAX_HEAD: usize = 64 * 1024;
/// How long the server side waits for any one read of a request, and for
/// the whole request. The worker serves connections one at a time, so a
/// client that connects and goes silent holds up everyone queued behind
/// it; this bounds that to twice this deadline, well below the 10 s an
/// orchestrator waits for a response before it retries.
pub(crate) const REQUEST_DEADLINE: Duration = Duration::from_secs(2);
/// Largest body we accept; experiments and results are a few KB.
const MAX_BODY: usize = 16 * 1024 * 1024;

/// A parsed incoming request: method, target (path plus optional query),
/// and the body.
pub(crate) struct Request {
    pub method: String,
    pub target: String,
    pub body: String,
}

/// Reads bytes until the blank line ending the header block, then returns
/// (head, leftover-bytes-already-read-past-it). `deadline` bounds the
/// whole read, not just each chunk: a peer dribbling one byte per read
/// timeout (a slow loris) would otherwise hold the exchange open forever.
fn read_head(stream: &mut TcpStream, deadline: Instant) -> std::io::Result<(String, Vec<u8>)> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(end) = find_blank_line(&buf) {
            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
            return Ok((head, buf[end + 4..].to_vec()));
        }
        if buf.len() > MAX_HEAD {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "http header block too large",
            ));
        }
        check_deadline(deadline)?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed before end of http headers",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn check_deadline(deadline: Instant) -> std::io::Result<()> {
    if Instant::now() >= deadline {
        return Err(Error::new(
            ErrorKind::TimedOut,
            "exchange deadline exceeded (peer is dribbling bytes)",
        ));
    }
    Ok(())
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn content_length(head: &str) -> std::io::Result<usize> {
    for line in head.lines().skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                let len: usize = value.trim().parse().map_err(|_| {
                    Error::new(ErrorKind::InvalidData, "unparseable Content-Length")
                })?;
                if len > MAX_BODY {
                    return Err(Error::new(ErrorKind::InvalidData, "http body too large"));
                }
                return Ok(len);
            }
        }
    }
    Ok(0)
}

fn read_body(
    stream: &mut TcpStream,
    mut already: Vec<u8>,
    length: usize,
    deadline: Instant,
) -> std::io::Result<String> {
    let mut chunk = [0u8; 4096];
    while already.len() < length {
        check_deadline(deadline)?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        already.extend_from_slice(&chunk[..n]);
    }
    already.truncate(length);
    String::from_utf8(already)
        .map_err(|_| Error::new(ErrorKind::InvalidData, "http body is not utf-8"))
}

/// Server side: reads one request off an accepted connection within
/// [`REQUEST_DEADLINE`].
pub(crate) fn read_request(stream: &mut TcpStream) -> std::io::Result<Request> {
    stream.set_read_timeout(Some(REQUEST_DEADLINE))?;
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let (head, leftover) = read_head(stream, deadline)?;
    let request_line = head.lines().next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_owned();
    let target = parts.next().unwrap_or_default().to_owned();
    if method.is_empty() || target.is_empty() {
        return Err(Error::new(
            ErrorKind::InvalidData,
            "malformed http request line",
        ));
    }
    let body = read_body(stream, leftover, content_length(&head)?, deadline)?;
    Ok(Request {
        method,
        target,
        body,
    })
}

/// Renders a full response (status line, headers, body) without writing
/// it, for callers that need byte-level control — the worker's chaos
/// truncation/dribble injections.
pub(crate) fn render_response(status: u16, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Error",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// Writes raw pre-rendered bytes (possibly a deliberate fragment).
pub(crate) fn write_raw(stream: &mut TcpStream, bytes: &[u8]) -> std::io::Result<()> {
    stream.write_all(bytes)?;
    stream.flush()
}

/// Server side: writes a JSON response and closes the exchange.
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
) -> std::io::Result<()> {
    write_raw(stream, render_response(status, body).as_bytes())
}

/// Strips an optional `http://` scheme and trailing slash so `--worker`
/// accepts both `127.0.0.1:9000` and `http://127.0.0.1:9000/`.
pub(crate) fn normalize_addr(addr: &str) -> String {
    addr.trim()
        .trim_start_matches("http://")
        .trim_end_matches('/')
        .to_owned()
}

/// Client side: one request/response exchange against `addr`, with
/// `timeout` applied to connect, each read, and each write, plus an
/// overall exchange deadline of 4× `timeout` — a server dribbling one
/// byte per read timeout (slow loris, half-frozen host) cannot hold the
/// caller past that. Returns `(status, body)`; transport failures come
/// back as rendered strings so the caller can wrap them in its own retry
/// machinery.
pub(crate) fn call(
    addr: &str,
    method: &str,
    target: &str,
    body: &str,
    timeout: Duration,
) -> Result<(u16, String), String> {
    let addr = normalize_addr(addr);
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to no address"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)
        .map_err(|e| format!("connect to {addr} failed: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| format!("cannot set socket timeouts: {e}"))?;
    let deadline = Instant::now() + timeout * 4;
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send to {addr} failed: {e}"))?;
    read_response(&mut stream, deadline).map_err(|e| format!("read from {addr} failed: {e}"))
}

/// Client side: reads one response, `(status, body)`, before `deadline`.
fn read_response(stream: &mut TcpStream, deadline: Instant) -> std::io::Result<(u16, String)> {
    let (head, leftover) = read_head(stream, deadline)?;
    let status_line = head.lines().next().unwrap_or_default();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| {
            Error::new(
                ErrorKind::InvalidData,
                format!("malformed status line {status_line:?}"),
            )
        })?;
    let body = read_body(stream, leftover, content_length(&head)?, deadline)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn round_trip_request_and_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = read_request(&mut stream).unwrap();
            assert_eq!(request.method, "POST");
            assert_eq!(request.target, "/submit?x=1");
            assert_eq!(request.body, "{\"hello\":42}");
            write_response(&mut stream, 200, "{\"ok\":true}").unwrap();
        });
        let (status, body) = call(
            &format!("http://{addr}/"),
            "POST",
            "/submit?x=1",
            "{\"hello\":42}",
            Duration::from_secs(5),
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn connect_failure_is_a_rendered_error() {
        // Port 1 on loopback is essentially never listening.
        let err = call(
            "127.0.0.1:1",
            "GET",
            "/handshake",
            "",
            Duration::from_millis(200),
        )
        .unwrap_err();
        assert!(err.contains("127.0.0.1:1"), "got: {err}");
    }

    /// Seeded garbage-in over a loopback socket: a request for
    /// `read_request` and a response for `read_response`, each truncated,
    /// with a byte flipped, with a bad `Content-Length`, with an oversized
    /// header block and with no end to its headers. Every read ends within
    /// the deadline, and all but a flipped byte end in an `io::Error`.
    #[test]
    fn corrupted_exchanges_end_in_typed_errors() {
        use ErrorKind::{InvalidData, UnexpectedEof};
        let corruptor = crate::chaos::Corruptor::new(1993);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let request = "POST /submit HTTP/1.1\r\nContent-Length: 12\r\n\r\n{\"hello\":42}";
        let response = render_response(200, "{\"ok\":true}");
        let pad = format!("\r\nX-Pad: {}\r\n", "a".repeat(70_000));
        for counter in 0..20 {
            for wire in [request, response.as_str()] {
                let at = corruptor.pick(1, counter, wire.len());
                let mut flipped = wire.as_bytes().to_vec();
                flipped[at] = corruptor.pick(2, counter, 256) as u8;
                let lengths = ["-1", "x", "99999999999999999999", "40", ""];
                let length = lengths[corruptor.pick(3, counter, lengths.len())];
                let (head, rest) = wire.split_once("Content-Length: ").unwrap();
                let rest = &rest[rest.find('\r').unwrap()..];
                let damaged = [
                    (wire.as_bytes()[..at].to_vec(), true),
                    (flipped, false),
                    (format!("{head}Content-Length: {length}{rest}").into(), true),
                    (wire.replacen("\r\n", &pad, 1).into(), true),
                    (wire.replacen("\r\n\r\n", "\r\n", 1).into(), true),
                ];
                for (bytes, must_fail) in damaged {
                    let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                    let (mut stream, _) = listener.accept().unwrap();
                    peer.write_all(&bytes).unwrap();
                    peer.shutdown(std::net::Shutdown::Write).unwrap();
                    let started = Instant::now();
                    stream.set_read_timeout(Some(REQUEST_DEADLINE)).unwrap();
                    let read = match wire == request {
                        true => read_request(&mut stream).map(drop),
                        false => read_response(&mut stream, started + REQUEST_DEADLINE).map(drop),
                    };
                    assert!(started.elapsed() < REQUEST_DEADLINE, "{counter}: slow read");
                    match read {
                        Err(e) => assert!(matches!(e.kind(), InvalidData | UnexpectedEof), "{e}"),
                        Ok(()) => assert!(!must_fail, "{}", String::from_utf8_lossy(&bytes)),
                    }
                }
            }
        }
    }

    #[test]
    fn normalize_strips_scheme_and_slash() {
        assert_eq!(normalize_addr("http://10.0.0.2:9000/"), "10.0.0.2:9000");
        assert_eq!(normalize_addr(" 10.0.0.2:9000"), "10.0.0.2:9000");
    }
}
