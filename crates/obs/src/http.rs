//! The live exposition endpoint: a tiny, dependency-free blocking HTTP
//! listener serving the observability plane to operators and scrapers.
//!
//! Off by default; [`serve_from_env`] starts it when `BOOTLEG_OBS_ADDR` is
//! set (e.g. `127.0.0.1:9184`). Three routes:
//!
//! * `/metrics` — Prometheus text exposition (version 0.0.4): counters,
//!   gauges, fixed-bucket histograms (`_bucket`/`_sum`/`_count`), and
//!   sliding-window quantiles rendered as summaries
//!   (`{quantile="0.5|0.95|0.99"}` plus `_max`).
//! * `/healthz` — a JSON health document derived from the serving metrics:
//!   queue depth vs. capacity, shed rate vs. threshold, per-tier breaker
//!   states.
//! * `/tracez` — the recent + exemplar request-record rings as JSON
//!   ([`crate::reqtrace::tracez_json`]).
//!
//! The listener is deliberately primitive: one accept loop on one thread,
//! one thread per connection, `Connection: close`. It serves an operator's
//! curl and a scraper's GET, not traffic, and bounds what a client can
//! hold: at most 16 connections at once (more get a `503`), at most 8 KiB
//! of request line and headers (more get a `431`), and 2 s to deliver the
//! whole request, however slowly the bytes trickle in (later, the
//! connection is dropped). The same three
//! payloads can be dumped to disk for offline runs with [`dump_telemetry`].

use crate::export::atomic_write;
use crate::metrics::HistogramSnapshot;
use crate::{metrics, reqtrace, window};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- exposition

/// Maps a registry metric name to a Prometheus-legal one: every character
/// outside `[a-zA-Z0-9_:]` becomes `_` (dots included), with a leading `_`
/// if the name would start with a digit.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// A float in Prometheus text syntax (`+Inf` / `-Inf` / `NaN` spellings).
fn prom_num(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if v.is_nan() {
        "NaN".to_string()
    } else {
        format!("{v}")
    }
}

fn render_prom_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cum = 0u64;
    for (bound, count) in &h.buckets {
        cum += count;
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", prom_num(*bound));
    }
    let _ = writeln!(out, "{name}_sum {}", prom_num(h.sum));
    let _ = writeln!(out, "{name}_count {}", h.count);
}

/// The whole registry in Prometheus text exposition format (0.0.4).
pub fn prometheus_text() -> String {
    let snap = metrics::snapshot();
    let windows = window::snapshot_windows();
    let mut out = String::with_capacity(8192);
    for (name, v) in &snap.counters {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, v) in &snap.gauges {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", prom_num(*v));
    }
    for (name, h) in &snap.histograms {
        render_prom_histogram(&mut out, &sanitize(name), h);
    }
    for (name, w) in &windows {
        let name = sanitize(name);
        let _ = writeln!(out, "# TYPE {name} summary");
        for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            let _ =
                writeln!(out, "{name}{{quantile=\"{label}\"}} {}", prom_num(w.quantile(q)));
        }
        let _ = writeln!(out, "{name}_sum {}", prom_num(w.hist.sum));
        let _ = writeln!(out, "{name}_count {}", w.hist.count);
        let _ = writeln!(out, "# TYPE {name}_max gauge");
        let _ = writeln!(out, "{name}_max {}", prom_num(w.max));
    }
    out
}

/// Line-by-line validation of a Prometheus text payload: every line is a
/// comment or `name[{labels}] value`, names are legal, `# TYPE` precedes
/// each family. Returns the first offending line.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut typed: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            if !legal_name(name) {
                return Err(format!("bad TYPE name: {line}"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(format!("bad TYPE kind: {line}"));
            }
            typed.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) =
            line.rsplit_once(' ').ok_or_else(|| format!("no value: {line}"))?;
        let name = match series.find('{') {
            Some(brace) => {
                if !series.ends_with('}') {
                    return Err(format!("unterminated labels: {line}"));
                }
                &series[..brace]
            }
            None => series,
        };
        if !legal_name(name) {
            return Err(format!("bad metric name: {line}"));
        }
        if !matches!(value, "+Inf" | "-Inf" | "NaN") && value.parse::<f64>().is_err() {
            return Err(format!("bad value: {line}"));
        }
        let family_known = typed.iter().any(|t| {
            name == t
                || ["_bucket", "_sum", "_count", "_max"]
                    .iter()
                    .any(|suf| name.strip_suffix(suf) == Some(t.as_str()))
        });
        if !family_known {
            return Err(format!("sample before its # TYPE line: {line}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- healthz

/// Shed rate above which `/healthz` reports `overloaded`.
pub const SHED_RATE_WARN: f64 = 0.05;

/// A JSON health document derived from the serving metrics: queue depth vs.
/// capacity, shed rate vs. the [`SHED_RATE_WARN`] threshold, and per-tier
/// breaker states (0 = closed, 1 = half-open, 2 = open).
pub fn healthz_json() -> String {
    let snap = metrics::snapshot();
    let counter = |name: &str| {
        snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
    };
    let gauge = |name: &str| {
        snap.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0.0)
    };
    let admitted = counter("serve.admitted");
    let shed = counter("serve.shed");
    let rejected = counter("serve.rejected");
    let degraded = counter("serve.degraded");
    let offered = admitted + shed;
    let shed_rate = if offered == 0 { 0.0 } else { shed as f64 / offered as f64 };
    let queue_depth = gauge("serve.queue_depth");
    let queue_cap = gauge("serve.queue_cap");
    let mut breakers: Vec<(&str, f64)> = snap
        .gauges
        .iter()
        .filter_map(|(n, v)| n.strip_prefix("serve.breaker_state.").map(|t| (t, *v)))
        .collect();
    breakers.sort_by(|a, b| a.0.cmp(b.0));
    let any_open = breakers.iter().any(|(_, v)| *v >= 2.0);
    let status = if shed_rate > SHED_RATE_WARN || any_open { "overloaded" } else { "ok" };

    let mut out = String::with_capacity(512);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"status\": \"{status}\",");
    let _ = writeln!(out, "  \"queue_depth\": {queue_depth},");
    let _ = writeln!(out, "  \"queue_cap\": {queue_cap},");
    let _ = writeln!(out, "  \"admitted\": {admitted},");
    let _ = writeln!(out, "  \"shed\": {shed},");
    let _ = writeln!(out, "  \"rejected\": {rejected},");
    let _ = writeln!(out, "  \"degraded\": {degraded},");
    let _ = writeln!(out, "  \"shed_rate\": {shed_rate},");
    let _ = writeln!(out, "  \"shed_rate_warn\": {SHED_RATE_WARN},");
    let _ = writeln!(out, "  \"entity_cache_bytes\": {},", gauge("entitycache.bytes") as u64);
    let _ = writeln!(out, "  \"slow_ms\": {},", reqtrace::slow_ms());
    out.push_str("  \"breakers\": {");
    for (i, (tier, v)) in breakers.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(out, "    \"{tier}\": {}", *v as i64);
    }
    out.push_str(if breakers.is_empty() { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

// ---------------------------------------------------------------- listener

fn respond(path: &str) -> (u16, &'static str, String) {
    match path {
        "/metrics" => (200, "text/plain; version=0.0.4", prometheus_text()),
        "/healthz" => (200, "application/json", healthz_json()),
        "/tracez" => (200, "application/json", reqtrace::tracez_json()),
        "/" => (
            200,
            "text/plain",
            "bootleg-obs: /metrics (prometheus), /healthz (json), /tracez (json)\n".to_string(),
        ),
        _ => (404, "text/plain", "not found\n".to_string()),
    }
}

/// Most connections served at once; the listener refuses more with `503`.
const MAX_CONNS: usize = 16;
/// Most bytes of request line plus headers read from one connection; a
/// longer request head gets `431`.
const MAX_HEAD_BYTES: u64 = 8 * 1024;
/// Time a connection has to deliver its whole request head.
const REQUEST_DEADLINE: Duration = Duration::from_secs(2);

/// A socket reader that fails once `deadline` has passed, however slowly
/// the bytes trickle in: each read may block only for the time left.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "request deadline passed"));
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Reads a request head within [`REQUEST_DEADLINE`] and [`MAX_HEAD_BYTES`]
/// and returns its request line, or `None` when the head outgrew the cap.
/// The headers are drained so well-behaved clients see a clean close.
fn read_request_line(stream: &TcpStream) -> io::Result<Option<String>> {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let mut head = BufReader::new(Deadlined { stream, deadline }.take(MAX_HEAD_BYTES));
    let mut request_line = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        // A line with no newline means the client closed or the cap hit.
        if head.read_line(&mut line)? == 0 || !line.ends_with('\n') {
            break;
        }
        if request_line.is_empty() {
            request_line = std::mem::take(&mut line);
        } else if line == "\r\n" || line == "\n" {
            return Ok(Some(request_line));
        }
    }
    Ok((head.get_ref().limit() > 0).then_some(request_line))
}

fn write_response(
    mut stream: &TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
    head_only: bool,
) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Service Unavailable",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    if !head_only {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()
}

fn handle_conn(stream: TcpStream) -> io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let Some(request_line) = read_request_line(&stream)? else {
        return write_response(&stream, 431, "text/plain", "request head too large\n", false);
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let path = path.split('?').next().unwrap_or("/");
    let (status, content_type, body) = if method == "GET" || method == "HEAD" {
        respond(path)
    } else {
        (405, "text/plain", "method not allowed\n".to_string())
    };
    write_response(&stream, status, content_type, &body, method == "HEAD")
}

/// Turns away a connection over [`MAX_CONNS`] without blocking the accept
/// loop: a `503` if the socket takes it at once, else just the close.
fn refuse(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = write_response(&stream, 503, "text/plain", "too many connections\n", false);
}

/// A running exposition listener; dropping (or [`ObsServer::stop`]) shuts
/// it down.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ObsServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the listener thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9184`; port 0 picks a free port) and
/// serves the exposition routes until the returned [`ObsServer`] stops.
pub fn serve(addr: &str) -> io::Result<ObsServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new().name("obs-http".into()).spawn(move || {
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        for conn in listener.incoming() {
            if stop_flag.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { break };
            conns.retain(|c| !c.is_finished());
            if conns.len() >= MAX_CONNS {
                refuse(stream);
                continue;
            }
            let spawned = std::thread::Builder::new().name("obs-http-conn".into()).spawn(move || {
                let _ = handle_conn(stream);
            });
            // A failed spawn drops the stream, closing the connection.
            conns.extend(spawned.ok());
        }
        // Every connection ends within its deadline and write timeouts.
        for c in conns {
            let _ = c.join();
        }
    })?;
    crate::info!("obs.http.listening", addr = local);
    Ok(ObsServer { addr: local, stop, handle: Some(handle) })
}

/// Starts the listener if `BOOTLEG_OBS_ADDR` is set; `None` (and no socket)
/// otherwise — the endpoint is off by default.
pub fn serve_from_env() -> Option<ObsServer> {
    let addr = std::env::var("BOOTLEG_OBS_ADDR").ok().filter(|a| !a.is_empty())?;
    match serve(&addr) {
        Ok(server) => Some(server),
        Err(e) => {
            crate::error!("obs.http.bind_failed", addr = addr, error = e);
            None
        }
    }
}

/// Dumps the three endpoint payloads to `dir` (`metrics.prom`,
/// `healthz.json`, `tracez.json`), atomically — the offline-run equivalent
/// of scraping the live endpoint.
pub fn dump_telemetry(dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    atomic_write(&dir.join("metrics.prom"), prometheus_text().as_bytes())?;
    atomic_write(&dir.join("healthz.json"), healthz_json().as_bytes())?;
    atomic_write(&dir.join("tracez.json"), reqtrace::tracez_json().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let req = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
        stream.write_all(req.as_bytes()).expect("write request");
        let mut buf = String::new();
        use std::io::Read as _;
        stream.read_to_string(&mut buf).expect("read response");
        let (head, body) = buf.split_once("\r\n\r\n").expect("header/body split");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn prometheus_text_is_valid_line_by_line() {
        metrics::counter("test.http.requests").add(3);
        metrics::gauge("test.http.depth").set(1.5);
        metrics::histogram_with("test.http.lat_ns", || vec![1e3, 1e6]).observe(5e5);
        window::window_histogram_with("test.http.win_ns", 2, 1000, || vec![1e3]).observe(2e3);
        let text = prometheus_text();
        validate_exposition(&text).expect("exposition validates");
        assert!(text.contains("test_http_requests 3"));
        assert!(text.contains("test_http_lat_ns_bucket{le=\"+Inf\"}"));
        assert!(text.contains("test_http_win_ns{quantile=\"0.99\"}"));
        assert!(text.contains("test_http_win_ns_max"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_exposition("# TYPE ok counter\nok 1\n").is_ok());
        assert!(validate_exposition("no_type_line 1\n").is_err());
        assert!(validate_exposition("# TYPE x counter\nx notanumber\n").is_err());
        assert!(validate_exposition("# TYPE 9bad counter\n").is_err());
        assert!(validate_exposition("# TYPE x counter\nx{le=\"1\" 1\n").is_err());
    }

    #[test]
    fn endpoint_serves_all_routes() {
        metrics::counter("test.http.route").inc();
        let server = match serve("127.0.0.1:0") {
            Ok(s) => s,
            // Sandboxed builders may forbid binding; the exposition logic
            // itself is covered above.
            Err(_) => return,
        };
        let addr = server.addr();
        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        validate_exposition(&body).expect("served exposition validates");
        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"status\""));
        let (head, body) = get(addr, "/tracez");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"recent\""));
        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        server.stop();
    }

    /// Reads whatever the server sends until it closes.
    fn read_reply(stream: &mut TcpStream) -> String {
        use std::io::Read as _;
        stream.set_read_timeout(Some(REQUEST_DEADLINE * 3)).expect("timeout");
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        String::from_utf8_lossy(&buf).into_owned()
    }

    #[test]
    fn oversized_request_head_is_refused() {
        let Ok(server) = serve("127.0.0.1:0") else { return };
        // Exactly the cap with no newline: the server reads it all, finds no
        // end of line, and answers 431 without waiting for more.
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let line = format!("GET /{}", "a".repeat(MAX_HEAD_BYTES as usize - 5));
        stream.write_all(line.as_bytes()).expect("write request");
        let reply = read_reply(&mut stream);
        assert!(reply.starts_with("HTTP/1.1 431"), "{reply}");
        // The listener still serves well-formed requests afterwards.
        let (head, _) = get(server.addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        server.stop();
    }

    #[test]
    fn slow_drip_client_is_cut_off_at_the_deadline() {
        let Ok(server) = serve("127.0.0.1:0") else { return };
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let start = Instant::now();
        stream.write_all(b"GET /metrics HTTP/1.1\r\nX-Slow: ").expect("write");
        // One header byte every 50 ms keeps every single read short of a
        // timeout; only the whole-request deadline ends the connection,
        // after which writes fail once the server has reset it.
        while stream.write_all(b"a").is_ok() {
            assert!(
                start.elapsed() < REQUEST_DEADLINE * 3,
                "server kept a slow client past its request deadline"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(start.elapsed() >= REQUEST_DEADLINE, "cut off before the deadline");
        server.stop();
    }

    #[test]
    fn connections_over_the_bound_are_refused() {
        let Ok(server) = serve("127.0.0.1:0") else { return };
        // MAX_CONNS idle clients each hold a connection thread until their
        // deadline; the listener accepts in order, so the next one is over
        // the bound.
        let idle: Vec<TcpStream> = (0..MAX_CONNS)
            .map(|_| TcpStream::connect(server.addr()).expect("connect"))
            .collect();
        let mut extra = TcpStream::connect(server.addr()).expect("connect");
        let reply = read_reply(&mut extra);
        assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
        drop(idle);
        server.stop();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn random_request_bytes_get_a_response_or_a_close(
            bytes in proptest::collection::vec(0u8..=255, 0..(MAX_HEAD_BYTES as usize)),
            newlines in 0usize..4,
        ) {
            let Ok(server) = serve("127.0.0.1:0") else { return };
            let mut request = bytes;
            request.extend(std::iter::repeat_n(b'\n', newlines));
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream.write_all(&request).expect("write request");
            stream.shutdown(std::net::Shutdown::Write).expect("half-close");
            // Invalid UTF-8 drops the connection; anything else is answered.
            let reply = read_reply(&mut stream);
            proptest::prop_assert!(reply.is_empty() || reply.starts_with("HTTP/1.1 "), "{reply}");
            server.stop();
        }
    }

    #[test]
    fn dump_writes_all_three_payloads() {
        let dir = std::env::temp_dir().join(format!("bootleg_obs_dump_{}", std::process::id()));
        dump_telemetry(&dir).expect("dump");
        for f in ["metrics.prom", "healthz.json", "tracez.json"] {
            assert!(dir.join(f).is_file(), "{f} written");
        }
        validate_exposition(&std::fs::read_to_string(dir.join("metrics.prom")).expect("read"))
            .expect("dumped exposition validates");
        std::fs::remove_dir_all(&dir).ok();
    }
}
