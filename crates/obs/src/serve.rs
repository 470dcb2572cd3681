//! Live Prometheus scrape endpoint — a std-only HTTP server.
//!
//! Every exporter in this crate writes files *after* the run; this module
//! is the in-run window. The dispatcher publishes a fresh Prometheus
//! exposition (plus a run-phase string) into a [`MetricsServer`] each
//! time a timeline window closes, and a detached accept-loop thread
//! serves it to any scraper:
//!
//! - `GET /metrics` → `200 text/plain`, the latest published exposition
//!   (header + samples, exactly what [`crate::validate_prometheus`]
//!   accepts);
//! - `GET /healthz` → `200 text/plain`, the current run phase
//!   (`warmup` / `steady` / `fault-outage` / `drain`);
//! - anything else → `404`.
//!
//! Consistency rule: a publish swaps the whole snapshot under one mutex,
//! so a scrape never sees a half-window — it sees the state as of the
//! last closed window, which is also why counters are monotone between
//! scrapes. No HTTP library is involved (hard constraint: no new deps);
//! only the request line is parsed, which is all a Prometheus scraper or
//! `curl` sends that matters here.
//!
//! Sweep runs (capacity, saturation search) build many `Driver`s in one
//! process, but an OS port can be bound once. [`shared`] keeps a
//! process-wide registry keyed by the *requested* address string, so
//! every sweep point publishes into the same server — including
//! `127.0.0.1:0`, whose resolved port is advertised on stderr once at
//! bind time for scripts to grep.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Longest one socket read or write call may block. Connections are
/// served inline on the single accept thread, so a peer that sends
/// nothing, or requests `/metrics` and never drains the response, holds
/// up later scrapes for a few of these (`write_all` retries while the
/// kernel still takes bytes) instead of for the rest of the run.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// One published state: the run phase and the full Prometheus body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Run phase: `warmup`, `steady`, `fault-outage`, or `drain`.
    pub phase: String,
    /// Complete Prometheus exposition (header + samples).
    pub body: String,
}

/// A live scrape endpoint: one bound listener, one accept-loop thread,
/// one mutex-swapped [`Snapshot`].
///
/// The accept thread is detached and lives for the process lifetime;
/// dropping the `MetricsServer` handle only drops the publish side.
/// Every publish is also appended to an in-memory history so tests can
/// assert on the exact sequence of expositions (e.g. the outage gauge
/// flipping 0→1→0) without racing a real scraper.
#[derive(Debug)]
pub struct MetricsServer {
    local_addr: std::net::SocketAddr,
    state: Arc<Mutex<ServerState>>,
}

#[derive(Debug, Default)]
struct ServerState {
    current: Snapshot,
    history: Vec<Snapshot>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`), spawns the accept loop, and
    /// advertises the resolved address on stderr as
    /// `l25gc metrics endpoint: http://<addr>/metrics`.
    pub(crate) fn bind(addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        eprintln!("l25gc metrics endpoint: http://{local_addr}/metrics");
        let state = Arc::new(Mutex::new(ServerState::default()));
        let thread_state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("l25gc-metrics-serve".into())
            .spawn(move || accept_loop(listener, thread_state))?;
        Ok(MetricsServer { local_addr, state })
    }

    /// The resolved socket address (the real port when bound to `:0`).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Swaps in a new snapshot atomically and appends it to the history.
    pub fn publish(&self, phase: &str, body: String) {
        let snap = Snapshot {
            phase: phase.to_string(),
            body,
        };
        let mut st = self.state.lock().unwrap();
        st.current = snap.clone();
        st.history.push(snap);
    }

    /// The latest published snapshot (empty before the first publish).
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Snapshot {
        self.state.lock().unwrap().current.clone()
    }

    /// Every snapshot published so far, in publish order.
    pub fn history(&self) -> Vec<Snapshot> {
        self.state.lock().unwrap().history.clone()
    }

    /// Number of publishes so far (cheaper than cloning the history).
    pub fn history_len(&self) -> usize {
        self.state.lock().unwrap().history.len()
    }
}

/// Process-wide server registry, keyed by the *requested* address
/// string. The first call for a given key binds; later calls return the
/// same server, so a sweep's many driver runs share one endpoint (this
/// is what makes `--serve-metrics 127.0.0.1:0` usable across a sweep —
/// re-binding port 0 would move the port under the scraper).
pub fn shared(addr: &str) -> std::io::Result<Arc<MetricsServer>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<MetricsServer>>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock().unwrap();
    if let Some(server) = map.get(addr) {
        return Ok(Arc::clone(server));
    }
    let server = Arc::new(MetricsServer::bind(addr)?);
    map.insert(addr.to_string(), Arc::clone(&server));
    Ok(server)
}

fn accept_loop(listener: TcpListener, state: Arc<Mutex<ServerState>>) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        // Serve inline: scrapes are tiny and rare (one per interval),
        // so a per-connection thread would be pure overhead.
        let _ = handle_conn(stream, &state);
    }
}

fn handle_conn(mut stream: TcpStream, state: &Mutex<ServerState>) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf)?;
    let (status, body) = respond(&buf[..n], &state.lock().unwrap().current);
    let resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(resp.as_bytes())
}

/// The status line and body for request bytes `req` against the current
/// snapshot. Total over arbitrary bytes: only the first two
/// whitespace-separated tokens of the first line are looked at.
fn respond(req: &[u8], current: &Snapshot) -> (&'static str, String) {
    let req = String::from_utf8_lossy(req);
    let mut parts = req.lines().next().unwrap_or("").split_whitespace();
    match (parts.next().unwrap_or(""), parts.next().unwrap_or("")) {
        ("GET", "/metrics") => ("200 OK", current.body.clone()),
        ("GET", "/healthz") if current.phase.is_empty() => ("200 OK", String::from("warmup\n")),
        ("GET", "/healthz") => ("200 OK", format!("{}\n", current.phase)),
        ("GET", _) => ("404 Not Found", String::from("not found\n")),
        _ => (
            "405 Method Not Allowed",
            String::from("method not allowed\n"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        let status = head.lines().next().unwrap().to_string();
        (status, body.to_string())
    }

    #[test]
    fn serves_published_snapshot_and_phase() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let (status, body) = http_get(server.local_addr(), "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "warmup\n", "empty snapshot reads as warmup");

        server.publish("steady", String::from("l25gc_x 1\n"));
        let (status, body) = http_get(server.local_addr(), "/metrics");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "l25gc_x 1\n");
        let (_, phase) = http_get(server.local_addr(), "/healthz");
        assert_eq!(phase, "steady\n");

        server.publish("drain", String::from("l25gc_x 2\n"));
        let (_, body) = http_get(server.local_addr(), "/metrics");
        assert_eq!(body, "l25gc_x 2\n", "publish swaps the whole body");
        assert_eq!(server.history_len(), 2);
        assert_eq!(server.history()[0].phase, "steady");
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        let (status, _) = http_get(server.local_addr(), "/nope");
        assert!(status.contains("404"), "{status}");

        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
    }

    #[test]
    fn a_scraper_that_stops_reading_does_not_wedge_the_endpoint() {
        let server = MetricsServer::bind("127.0.0.1:0").unwrap();
        // Larger than loopback's send plus receive buffers, so the
        // response cannot be written out unless the peer reads it.
        server.publish("steady", "x".repeat(24 << 20));
        let mut stalled = TcpStream::connect(server.local_addr()).unwrap();
        stalled
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        // Queued behind the stalled peer on the one accept thread: the
        // write timeout is what lets this request through.
        let mut probe = TcpStream::connect(server.local_addr()).unwrap();
        probe.set_read_timeout(Some(15 * IO_TIMEOUT)).unwrap();
        probe
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        probe
            .read_to_string(&mut resp)
            .expect("served once the stalled write times out");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.ends_with("steady\n"), "{resp}");
        drop(stalled);
    }

    /// Request bytes: raw noise, or a request line assembled from tokens
    /// (so the 200 arms are actually reached), or 1 KiB of one token.
    fn request() -> BoxedStrategy<Vec<u8>> {
        let token = prop_oneof![
            Just(&b"GET"[..]),
            Just(&b"POST"[..]),
            Just(&b"get"[..]),
            Just(&b"/metrics"[..]),
            Just(&b"/healthz"[..]),
            Just(&b"/metrics/"[..]),
            Just(&b"HTTP/1.1"[..]),
            Just(&b" "[..]),
            Just(&b"\t"[..]),
            Just(&b"\r\n"[..]),
            Just(&b"\n"[..]),
            Just(&b"\xff\xfe"[..]),
            Just(&b""[..]),
        ];
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..1100),
            proptest::collection::vec(token.clone(), 0..8).prop_map(|t| t.concat()),
            token.prop_map(|t| t.iter().copied().cycle().take(1024).collect()),
        ]
    }

    proptest! {
        #[test]
        fn respond_is_total_over_arbitrary_request_bytes(
            req in request(),
            phase in prop_oneof![Just(""), Just("steady")],
        ) {
            let current = Snapshot { phase: phase.to_string(), body: String::from("x 1\n") };
            let (status, body) = respond(&req, &current);
            // The model: the first line's first two whitespace-separated
            // tokens, found on the raw bytes rather than a decoded string.
            let line = req.split(|&b| b == b'\n').next().unwrap_or(&[]);
            let mut tokens = line
                .split(|b| b.is_ascii_whitespace())
                .filter(|t| !t.is_empty());
            let (method, path) = (tokens.next(), tokens.next());
            let expected = match (method, path) {
                (Some(b"GET"), Some(b"/metrics")) => ("200 OK", "x 1\n"),
                (Some(b"GET"), Some(b"/healthz")) if phase.is_empty() => ("200 OK", "warmup\n"),
                (Some(b"GET"), Some(b"/healthz")) => ("200 OK", "steady\n"),
                (Some(b"GET"), _) => ("404 Not Found", "not found\n"),
                _ => ("405 Method Not Allowed", "method not allowed\n"),
            };
            prop_assert_eq!((status, body.as_str()), expected, "{:?}", req);
        }
    }

    #[test]
    fn shared_registry_returns_one_server_per_requested_addr() {
        let a = shared("127.0.0.1:0").unwrap();
        let b = shared("127.0.0.1:0").unwrap();
        assert_eq!(a.local_addr(), b.local_addr(), "same key, same server");
        a.publish("steady", String::from("x 1\n"));
        assert_eq!(b.snapshot().body, "x 1\n", "publishes are visible via both");
    }
}
