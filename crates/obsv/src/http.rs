//! Embedded HTTP/1.1 query and scrape API.
//!
//! A deliberately small, dependency-free threaded server: one acceptor
//! plus a fixed worker pool joined on shutdown, connected by a *bounded*
//! channel — when all workers are busy and the queue is full, new
//! connections are shed at accept time rather than queued without bound,
//! mirroring the repo-wide backpressure rule. Requests are capped at
//! [`MAX_REQUEST_BYTES`] and sockets carry read/write timeouts, so a
//! slow or hostile client cannot pin a worker.
//!
//! Routes (all responses `Connection: close`):
//!
//! | Route                      | Serves                                      |
//! |----------------------------|---------------------------------------------|
//! | `GET /metrics`             | Prometheus text exposition                  |
//! | `GET /healthz`             | liveness JSON (interval counters)           |
//! | `GET /api/alerts`          | live alert log (raw / after-2D / final)     |
//! | `GET /api/intervals`       | archived interval summaries (`from=`/`to=`) |
//! | `GET /api/sketch-health`   | per-sketch saturation of latest interval    |
//! | `POST /api/replay`         | counterfactual replay of an archived window |

use crate::hub::{replay_window, ObsvHub, ReplayError, ReplayOverrides};
use hifind::run_report::snapshot_health;
use hifind_telemetry::Registry;
use serde::{Serialize, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest request (request line + headers + body) the server reads.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Per-socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Accept-loop poll period and worker shutdown-check period.
const POLL: Duration = Duration::from_millis(50);

/// Worker threads serving requests.
const WORKERS: usize = 2;

/// Everything the routes read from. Cheap to clone (all `Arc`s).
#[derive(Clone)]
pub struct ApiState {
    /// The observability hub (history, alerts, counters, config).
    pub hub: Arc<ObsvHub>,
    /// Metric registry backing `GET /metrics`, when telemetry is on.
    pub registry: Option<Arc<Registry>>,
}

/// Why a request failed; rendered as a JSON error body.
#[derive(Debug)]
enum HttpError {
    BadRequest(String),
    NotFound,
    MethodNotAllowed,
    PayloadTooLarge,
    Unavailable(String),
    Internal(String),
}

impl HttpError {
    fn status(&self) -> (u16, &'static str) {
        match self {
            HttpError::BadRequest(_) => (400, "Bad Request"),
            HttpError::NotFound => (404, "Not Found"),
            HttpError::MethodNotAllowed => (405, "Method Not Allowed"),
            HttpError::PayloadTooLarge => (413, "Payload Too Large"),
            HttpError::Unavailable(_) => (503, "Service Unavailable"),
            HttpError::Internal(_) => (500, "Internal Server Error"),
        }
    }

    fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m) => m.clone(),
            HttpError::NotFound => "no such route".to_string(),
            HttpError::MethodNotAllowed => "method not allowed for this route".to_string(),
            HttpError::PayloadTooLarge => {
                format!("request exceeds {MAX_REQUEST_BYTES} bytes")
            }
            HttpError::Unavailable(m) | HttpError::Internal(m) => m.clone(),
        }
    }
}

/// A parsed request: just enough HTTP/1.1 for the API.
struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Request {
    fn query_u64(&self, key: &str) -> Result<Option<u64>, HttpError> {
        match self.query.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v.parse::<u64>().map(Some).map_err(|_| {
                HttpError::BadRequest(format!(
                    "query parameter {key}={v} is not a non-negative integer"
                ))
            }),
        }
    }
}

/// A response ready to serialize.
struct Response {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    fn json(value: &Value) -> Response {
        Response {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            // Writing a `Value` into a String cannot fail in practice.
            body: serde_json::to_vec(value).unwrap_or_default(),
        }
    }

    fn text(
        status: u16,
        reason: &'static str,
        content_type: &'static str,
        body: String,
    ) -> Response {
        Response {
            status,
            reason,
            content_type,
            body: body.into_bytes(),
        }
    }

    fn from_error(err: &HttpError) -> Response {
        let (status, reason) = err.status();
        let body = Value::Map(vec![("error".to_string(), Value::Str(err.message()))]);
        Response {
            status,
            reason,
            content_type: "application/json",
            body: serde_json::to_vec(&body).unwrap_or_default(),
        }
    }

    fn write_to(&self, stream: &mut TcpStream) {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        );
        // Best-effort: the peer may already be gone; nothing to recover.
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(&self.body);
        let _ = stream.flush();
    }
}

/// The running server. Dropping without [`HttpServer::stop`] also joins
/// every thread (via `Drop`), so no thread outlives the handle.
pub struct HttpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` and starts the acceptor plus worker pool.
    ///
    /// # Errors
    ///
    /// Surfaces bind/configuration failures.
    pub fn bind(addr: &str, state: ApiState) -> Result<HttpServer, std::io::Error> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Bounded hand-off: at most 2 connections queued per worker;
        // beyond that, accept() sheds instead of queueing unboundedly.
        let (tx, rx) = sync_channel::<TcpStream>(WORKERS * 2);
        let rx = Arc::new(Mutex::new(rx)); // lock-order: obsv.http_accept
        let mut workers = Vec::with_capacity(WORKERS);
        for _ in 0..WORKERS {
            let rx = Arc::clone(&rx);
            let state = state.clone();
            let stop = Arc::clone(&shutdown);
            workers.push(std::thread::spawn(move || worker_loop(&rx, &state, &stop)));
        }
        let stop = Arc::clone(&shutdown);
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &tx, &stop));
        Ok(HttpServer {
            addr: local,
            shutdown,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins every thread.
    pub fn stop(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        // relaxed-ok: plain stop flag polled by loops; no data guarded
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The acceptor owned the only sender; once it is joined the
        // channel is disconnected and workers drain then exit.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.join_all();
    }
}

fn accept_loop(listener: &TcpListener, tx: &SyncSender<TcpStream>, stop: &AtomicBool) {
    // relaxed-ok: plain stop flag; no ordering with other data needed
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                match tx.try_send(stream) {
                    Ok(()) => {}
                    // Queue full: shed the connection (stream drops,
                    // peer sees a reset) rather than queue unboundedly.
                    Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {}
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, state: &ApiState, stop: &AtomicBool) {
    loop {
        // relaxed-ok: plain stop flag; no ordering with other data needed
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let next = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv_timeout(POLL)
        };
        match next {
            Ok(stream) => serve_connection(stream, state),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn serve_connection(mut stream: TcpStream, state: &ApiState) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request(&mut stream) {
        Ok(request) => match route(&request, state) {
            Ok(response) => response,
            Err(err) => Response::from_error(&err),
        },
        Err(err) => Response::from_error(&err),
    };
    response.write_to(&mut stream);
}

/// Reads and parses one request, capped at [`MAX_REQUEST_BYTES`].
fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(HttpError::BadRequest(
                    "connection closed mid-request".to_string(),
                ))
            }
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(_) => return Err(HttpError::BadRequest("read timeout or error".to_string())),
        }
        if let Some(pos) = find_header_end(&buf) {
            header_end = pos;
            break;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(HttpError::PayloadTooLarge);
        }
    }
    let (method, target, content_length) = {
        let head = std::str::from_utf8(buf.get(..header_end).unwrap_or(&[]))
            .map_err(|_| HttpError::BadRequest("headers are not UTF-8".to_string()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines
            .next()
            .ok_or_else(|| HttpError::BadRequest("empty request".to_string()))?;
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .ok_or_else(|| HttpError::BadRequest("missing method".to_string()))?
            .to_string();
        let target = parts
            .next()
            .ok_or_else(|| HttpError::BadRequest("missing request target".to_string()))?
            .to_string();
        let mut content_length = 0usize;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| HttpError::BadRequest("bad Content-Length".to_string()))?;
            }
        }
        (method, target, content_length)
    };
    let body_start = header_end + 4;
    if content_length > MAX_REQUEST_BYTES {
        return Err(HttpError::PayloadTooLarge);
    }
    while buf.len() < body_start + content_length {
        if buf.len() > MAX_REQUEST_BYTES + body_start {
            return Err(HttpError::PayloadTooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(HttpError::BadRequest(
                    "connection closed mid-body".to_string(),
                ))
            }
            Ok(n) => buf.extend_from_slice(chunk.get(..n).unwrap_or(&[])),
            Err(_) => return Err(HttpError::BadRequest("read timeout or error".to_string())),
        }
    }
    let body = buf
        .get(body_start..body_start + content_length)
        .unwrap_or(&[])
        .to_vec();
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn route(request: &Request, state: &ApiState) -> Result<Response, HttpError> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => metrics(state),
        ("GET", "/healthz") => healthz(state),
        ("GET", "/api/alerts") => alerts(state),
        ("GET", "/api/intervals") => intervals(request, state),
        ("GET", "/api/sketch-health") => sketch_health_route(state),
        ("POST", "/api/replay") => replay(request, state),
        (
            _,
            "/metrics" | "/healthz" | "/api/alerts" | "/api/intervals" | "/api/sketch-health"
            | "/api/replay",
        ) => Err(HttpError::MethodNotAllowed),
        _ => Err(HttpError::NotFound),
    }
}

fn metrics(state: &ApiState) -> Result<Response, HttpError> {
    let Some(registry) = &state.registry else {
        return Err(HttpError::Unavailable(
            "no metric registry attached (start with telemetry enabled)".to_string(),
        ));
    };
    state.hub.history().refresh_gauges();
    let snapshot = registry.snapshot();
    let text = match state.hub.identity() {
        Some((tier, node_id)) => snapshot.to_prometheus_text_labeled(&[
            ("tier", tier.to_string()),
            ("node_id", node_id.to_string()),
        ]),
        None => snapshot.to_prometheus_text(),
    };
    Ok(Response::text(200, "OK", "text/plain; version=0.0.4", text))
}

fn healthz(state: &ApiState) -> Result<Response, HttpError> {
    let body = Value::Map(vec![
        ("status".to_string(), Value::Str("ok".to_string())),
        (
            "last_interval".to_string(),
            Value::UInt(state.hub.last_interval()),
        ),
        (
            "intervals_closed".to_string(),
            Value::UInt(state.hub.intervals_closed()),
        ),
        (
            "fingerprint".to_string(),
            Value::Str(format!("{:#018x}", state.hub.history().fingerprint())),
        ),
    ]);
    Ok(Response::json(&body))
}

fn alerts(state: &ApiState) -> Result<Response, HttpError> {
    let log = state.hub.alerts();
    Ok(Response::json(&log.to_value()))
}

fn intervals(request: &Request, state: &ApiState) -> Result<Response, HttpError> {
    let from = request.query_u64("from")?.unwrap_or(0);
    let to = request
        .query_u64("to")?
        .unwrap_or_else(|| state.hub.last_interval());
    if to < from {
        return Err(HttpError::BadRequest(format!(
            "to={to} is before from={from}"
        )));
    }
    let summaries = state
        .hub
        .history()
        .summaries(from, to)
        .map_err(|e| HttpError::Internal(format!("history read failed: {e}")))?;
    let body = Value::Map(vec![
        ("from".to_string(), Value::UInt(from)),
        ("to".to_string(), Value::UInt(to)),
        (
            "count".to_string(),
            Value::UInt(u64::try_from(summaries.len()).unwrap_or(u64::MAX)),
        ),
        ("intervals".to_string(), summaries.to_value()),
    ]);
    Ok(Response::json(&body))
}

fn sketch_health_route(state: &ApiState) -> Result<Response, HttpError> {
    let latest = state.hub.history().latest();
    let latest = latest.map_err(|e| HttpError::Internal(format!("history read failed: {e}")))?;
    let Some((interval, snapshot)) = latest else {
        return Err(HttpError::Unavailable(
            "no interval archived yet".to_string(),
        ));
    };
    let threshold = state.hub.config().interval_threshold();
    let health = snapshot_health(&snapshot, threshold);
    let body = Value::Map(vec![
        ("interval".to_string(), Value::UInt(interval)),
        ("threshold".to_string(), Value::Int(threshold)),
        ("sketches".to_string(), health.to_value()),
    ]);
    Ok(Response::json(&body))
}

fn replay(request: &Request, state: &ApiState) -> Result<Response, HttpError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| HttpError::BadRequest("body is not UTF-8".to_string()))?;
    let value: Value = serde_json::from_str(text)
        .map_err(|e| HttpError::BadRequest(format!("body is not valid JSON: {e}")))?;
    let from = json_u64(&value, "from")?
        .ok_or_else(|| HttpError::BadRequest("missing required field: from".to_string()))?;
    let to = json_u64(&value, "to")?
        .ok_or_else(|| HttpError::BadRequest("missing required field: to".to_string()))?;
    if to < from {
        return Err(HttpError::BadRequest(format!(
            "to={to} is before from={from}"
        )));
    }
    let overrides = ReplayOverrides {
        threshold_per_sec: json_f64(&value, "threshold_per_sec")?,
        ewma_alpha: json_f64(&value, "ewma_alpha")?,
        flood_persist_intervals: match json_u64(&value, "flood_persist_intervals")? {
            Some(v) => Some(u32::try_from(v).map_err(|_| {
                HttpError::BadRequest("flood_persist_intervals does not fit u32".to_string())
            })?),
            None => None,
        },
        flood_syn_ratio: json_f64(&value, "flood_syn_ratio")?,
        classify_top_p: match json_u64(&value, "classify_top_p")? {
            Some(v) => Some(usize::try_from(v).map_err(|_| {
                HttpError::BadRequest("classify_top_p does not fit usize".to_string())
            })?),
            None => None,
        },
        classify_phi: json_f64(&value, "classify_phi")?,
    };
    let output = replay_window(
        state.hub.config(),
        state.hub.history(),
        from,
        to,
        &overrides,
    )
    .map_err(|e| match e {
        ReplayError::BadWindow { from, to } => {
            HttpError::BadRequest(format!("bad replay window [{from}, {to}]"))
        }
        ReplayError::Config(e) => HttpError::BadRequest(format!("bad override: {e}")),
        ReplayError::History(e) => HttpError::Internal(format!("history read failed: {e}")),
    })?;
    let body = Value::Map(vec![
        ("from".to_string(), Value::UInt(output.from)),
        ("to".to_string(), Value::UInt(output.to)),
        (
            "intervals_replayed".to_string(),
            Value::UInt(output.intervals_replayed),
        ),
        ("gaps".to_string(), Value::UInt(output.gaps)),
        ("alerts".to_string(), output.alerts.to_value()),
    ]);
    Ok(Response::json(&body))
}

fn json_u64(value: &Value, key: &str) -> Result<Option<u64>, HttpError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::UInt(v)) => Ok(Some(*v)),
        Some(Value::Int(v)) if *v >= 0 => Ok(Some(u64::try_from(*v).unwrap_or(u64::MAX))),
        Some(_) => Err(HttpError::BadRequest(format!(
            "field {key} must be a non-negative integer"
        ))),
    }
}

fn json_f64(value: &Value, key: &str) -> Result<Option<f64>, HttpError> {
    match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Float(v)) => Ok(Some(*v)),
        Some(Value::UInt(v)) => {
            let f = v.to_string().parse::<f64>().unwrap_or(f64::MAX);
            Ok(Some(f))
        }
        Some(Value::Int(v)) => {
            let f = v.to_string().parse::<f64>().unwrap_or(f64::MAX);
            Ok(Some(f))
        }
        Some(_) => Err(HttpError::BadRequest(format!(
            "field {key} must be a number"
        ))),
    }
}
