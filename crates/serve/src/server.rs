//! The TCP daemon: acceptor, per-connection framing threads, a bounded solve
//! queue, and a fixed worker pool.
//!
//! ```text
//! accept ──► connection thread ──► bounded queue ──► worker pool ──► engine
//!                   │   (full? shed 503 queue-full)      │
//!                   ◄──────────── reply channel ◄────────┘
//! ```
//!
//! Overload policy: the queue bound sheds at admission, the per-request
//! deadline sheds at dispatch (a request that waited past its deadline is
//! answered `503 deadline` instead of being served late). Both paths always
//! answer — a shed client gets an explicit response, never a dropped
//! connection.
//!
//! Drain: a `shutdown` request flips the drain flag, wakes the acceptor with
//! a self-connection, and lets every layer finish what it holds — queued
//! solves complete, connection threads answer their in-flight request and
//! close, workers exit when the queue is empty. The queue is a bounded
//! channel whose senders are the acceptor and the connection threads, so a
//! worker's `recv` fails exactly when the drain is done: every sender has
//! exited and no job is left. [`ServerHandle::join`] returns once all of
//! that has happened.

use crate::engine::{solution_response, Engine};
use crate::json::{obj, Json};
use crate::metrics::{LatencyPath, Metrics};
use crate::protocol::{
    error_response, read_frame_with, shed_response, write_frame, FrameError, Request, SolveRequest,
    MAX_FRAME_BYTES,
};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Solver worker threads.
    pub workers: usize,
    /// Solve-queue bound; admission past this sheds `503 queue-full`. A
    /// bound of 0 is treated as 1.
    pub queue_capacity: usize,
    /// Circuit-cache bound (circuits, not bytes).
    pub cache_capacity: usize,
    /// Deadline applied when a request carries none, milliseconds.
    pub default_deadline_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(4);
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: workers.clamp(2, 8),
            queue_capacity: 128,
            cache_capacity: 32,
            default_deadline_ms: 1_000,
        }
    }
}

/// One admitted solve awaiting a worker.
struct Job {
    req: SolveRequest,
    enqueued: Instant,
    deadline: Duration,
    reply: SyncSender<Json>,
}

/// State shared by the acceptor, connections and workers.
struct Shared {
    engine: Engine,
    metrics: Metrics,
    config: ServerConfig,
    local_addr: SocketAddr,
    /// The solve queue's receiving end, taken by one idle worker at a time.
    jobs: Mutex<Receiver<Job>>,
    shutdown: AtomicBool,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running daemon; dropping the handle does NOT stop it — send a
/// `shutdown` request or call [`ServerHandle::shutdown_and_join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine, for white-box assertions in tests.
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Blocks until the daemon has fully drained (acceptor, workers and
    /// every connection thread exited).
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }

    /// Sends a `shutdown` request as a client, then [`join`](Self::join)s.
    pub fn shutdown_and_join(self) {
        if let Ok(mut stream) = TcpStream::connect(self.addr) {
            let payload = Request::Shutdown.to_json().render();
            let _ = write_frame(&mut stream, payload.as_bytes());
            let _ = crate::protocol::read_frame(&mut stream, MAX_FRAME_BYTES);
        }
        self.join();
    }
}

/// Binds and spawns the daemon.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let local_addr = listener.local_addr()?;
    let (jobs_tx, jobs_rx) = mpsc::sync_channel(config.queue_capacity.max(1));
    let shared = Arc::new(Shared {
        engine: Engine::new(config.cache_capacity),
        metrics: Metrics::new(),
        local_addr,
        jobs: Mutex::new(jobs_rx),
        shutdown: AtomicBool::new(false),
        config,
    });

    let workers: Vec<JoinHandle<()>> = (0..shared.config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker thread")
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("serve-acceptor".to_owned())
            .spawn(move || acceptor_loop(&listener, &shared, jobs_tx, workers))
            .expect("spawn acceptor thread")
    };

    Ok(ServerHandle { addr: local_addr, shared, acceptor: Some(acceptor) })
}

fn acceptor_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    jobs: SyncSender<Job>,
    workers: Vec<JoinHandle<()>>,
) {
    for stream in listener.incoming() {
        // The drain wake-up connection (or a late client) ends the accept
        // loop either way.
        if shared.draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let (shared, jobs) = (Arc::clone(shared), jobs.clone());
        // A failed spawn drops the stream, which closes the connection.
        let _ = thread::Builder::new().name("serve-conn".to_owned()).spawn(move || {
            shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
            connection_loop(stream, &shared, &jobs);
            shared.metrics.connections.fetch_sub(1, Ordering::Relaxed);
        });
    }
    // Drain: once this sender and every connection thread's clone are gone,
    // the workers run the queue dry and exit.
    drop(jobs);
    for w in workers {
        let _ = w.join();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Bind the job before matching: in a `while let` scrutinee the lock
        // guard would live through the solve and serialize the pool.
        let next = shared.jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(job) = next else { return };
        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let response = if job.enqueued.elapsed() > job.deadline {
            shared.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
            shed_response("deadline")
        } else {
            shared.metrics.busy_workers.fetch_add(1, Ordering::Relaxed);
            let response = run_solve(shared, &job.req);
            shared.metrics.busy_workers.fetch_sub(1, Ordering::Relaxed);
            response
        };
        // A closed reply channel means the client vanished mid-queue; the
        // solve still happened (and warmed the caches), nothing to report.
        let _ = job.reply.send(response);
    }
}

fn run_solve(shared: &Shared, req: &SolveRequest) -> Json {
    match shared.engine.solve(req) {
        Ok((solution, disposition)) => {
            shared.metrics.solved.fetch_add(1, Ordering::Relaxed);
            if disposition == crate::engine::Disposition::Coalesced {
                shared.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            if solution.solve_stats.method.label() == "spectral" {
                shared.metrics.solved_spectral.fetch_add(1, Ordering::Relaxed);
            }
            let name = match &req.scenario {
                crate::protocol::ScenarioSource::Named(n) => n.clone(),
                crate::protocol::ScenarioSource::Inline(_) => "inline".to_owned(),
            };
            solution_response(&name, req.fidelity, &solution, disposition, req.blocks)
        }
        Err(e) => {
            let counter = match e.code {
                404 => &shared.metrics.not_found,
                _ => &shared.metrics.failed,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            error_response(e.code, &e.message)
        }
    }
}

/// Poll interval for idle reads; bounds how long a quiet connection takes to
/// notice a drain.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// Idle polls tolerated mid-frame during a drain before the connection is
/// abandoned as stalled.
const DRAIN_GRACE_POLLS: u32 = 40;

/// [`crate::protocol::read_frame`] with drain awareness: timeouts outside a
/// frame are idle polls (a drain closes the connection, reported as
/// [`FrameError::Closed`]), timeouts inside a frame wait for the peer to
/// finish sending (bounded once draining).
fn read_frame_idle(stream: &mut TcpStream, shared: &Shared) -> Result<Vec<u8>, FrameError> {
    let mut stale_polls = 0u32;
    read_frame_with(MAX_FRAME_BYTES, |buf, mid_frame| loop {
        match stream.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if shared.draining() {
                    stale_polls += 1;
                    if !mid_frame || stale_polls > DRAIN_GRACE_POLLS {
                        return Err(FrameError::Closed);
                    }
                }
            }
            read => return read.map_err(FrameError::Io),
        }
    })
}

fn respond(stream: &mut TcpStream, json: &Json) -> bool {
    write_frame(stream, json.render().as_bytes()).is_ok()
}

fn connection_loop(mut stream: TcpStream, shared: &Shared, jobs: &SyncSender<Job>) {
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame_idle(&mut stream, shared) {
            Ok(payload) => payload,
            Err(e @ (FrameError::Oversized { .. } | FrameError::Truncated)) => {
                // The stream is no longer frame-aligned: answer, close.
                shared.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let code = if matches!(e, FrameError::Oversized { .. }) { 413 } else { 400 };
                respond(&mut stream, &error_response(code, &e.to_string()));
                return;
            }
            Err(_) => return,
        };
        let received = Instant::now();
        let request = std::str::from_utf8(&payload)
            .map_err(|e| format!("payload is not utf-8: {e}"))
            .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
            .and_then(|json| Request::from_json(&json));
        let request = match request {
            Ok(request) => request,
            Err(message) => {
                // Frame boundaries are intact, so a bad document only costs
                // this request; the connection stays usable.
                shared.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                if !respond(&mut stream, &error_response(400, &message)) {
                    return;
                }
                continue;
            }
        };
        shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
        match request {
            Request::Stats => {
                if !respond(&mut stream, &stats_response(shared)) {
                    return;
                }
            }
            Request::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                // Unblock the acceptor so it can start the drain.
                let _ = TcpStream::connect(shared.local_addr);
                respond(
                    &mut stream,
                    &obj([
                        ("ok", Json::Bool(true)),
                        ("code", Json::Num(200.0)),
                        ("kind", Json::Str("shutdown".into())),
                        ("draining", Json::Bool(true)),
                    ]),
                );
                return;
            }
            Request::Solve(req) => {
                let response = admit_solve(shared, jobs, req);
                let ok = response.get("code").and_then(Json::as_u64) == Some(200);
                if ok {
                    let ns = received.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    shared.metrics.record_path_latency_ns(response_path(&response), ns);
                }
                if !respond(&mut stream, &response) {
                    return;
                }
            }
        }
        if shared.draining() {
            return;
        }
    }
}

/// Classifies a `200` solve response into its latency path. Spectral solves
/// get their own bucket regardless of cache disposition — their cost profile
/// (O(n log n) evaluation against a prebuilt response) matches neither a hit
/// nor a cold iterative solve.
fn response_path(response: &Json) -> LatencyPath {
    let method = response.get("solver").and_then(|s| s.get("method")).and_then(Json::as_str);
    if method == Some("spectral") {
        return LatencyPath::Spectral;
    }
    match response.get("cache").and_then(Json::as_str) {
        Some("hit") => LatencyPath::Hit,
        Some("coalesced") => LatencyPath::Coalesced,
        _ => LatencyPath::Miss,
    }
}

/// Admission control: shed while draining or when the queue is at capacity,
/// otherwise enqueue and wait for the worker's reply.
fn admit_solve(shared: &Shared, jobs: &SyncSender<Job>, req: SolveRequest) -> Json {
    if shared.draining() {
        shared.metrics.shed_queue_full.fetch_add(1, Ordering::Relaxed);
        return shed_response("draining");
    }
    let deadline =
        Duration::from_millis(req.deadline_ms.unwrap_or(shared.config.default_deadline_ms));
    let (tx, rx) = mpsc::sync_channel(1);
    shared.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
    // The receiver lives in `Shared`, which outlives this sender, so the
    // only way a send fails is a full queue.
    if jobs.try_send(Job { req, enqueued: Instant::now(), deadline, reply: tx }).is_err() {
        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        shared.metrics.shed_queue_full.fetch_add(1, Ordering::Relaxed);
        return shed_response("queue-full");
    }
    rx.recv().unwrap_or_else(|_| error_response(500, "worker exited before replying"))
}

fn stats_response(shared: &Shared) -> Json {
    let m = &shared.metrics;
    let l = m.latency();
    let c = shared.engine.cache().counters();
    let ms = |ns: u64| ns as f64 / 1e6;
    let count = |a: &std::sync::atomic::AtomicU64| Json::Num(a.load(Ordering::Relaxed) as f64);
    let gauge = |a: &std::sync::atomic::AtomicUsize| Json::Num(a.load(Ordering::Relaxed) as f64);
    obj([
        ("ok", Json::Bool(true)),
        ("code", Json::Num(200.0)),
        ("kind", Json::Str("stats".into())),
        ("uptime_ms", Json::Num(m.uptime_ms() as f64)),
        ("draining", Json::Bool(shared.draining())),
        (
            "requests",
            obj([
                ("total", count(&m.requests)),
                ("solved", count(&m.solved)),
                ("coalesced", count(&m.coalesced)),
                ("solved_spectral", count(&m.solved_spectral)),
                ("shed_queue_full", count(&m.shed_queue_full)),
                ("shed_deadline", count(&m.shed_deadline)),
                ("protocol_errors", count(&m.protocol_errors)),
                ("not_found", count(&m.not_found)),
                ("failed", count(&m.failed)),
                ("panicked", Json::Num(shared.engine.panics() as f64)),
            ]),
        ),
        (
            "latency_ms",
            obj([
                ("count", Json::Num(l.count as f64)),
                ("p50", Json::Num(ms(l.p50_ns))),
                ("p99", Json::Num(ms(l.p99_ns))),
                ("max", Json::Num(ms(l.max_ns))),
            ]),
        ),
        (
            "latency_by_path_ms",
            Json::Obj(
                LatencyPath::ALL
                    .iter()
                    .map(|&path| {
                        let s = m.path_latency(path);
                        (
                            path.token().to_owned(),
                            obj([
                                ("count", Json::Num(s.count as f64)),
                                ("p50", Json::Num(ms(s.p50_ns))),
                                ("p99", Json::Num(ms(s.p99_ns))),
                                ("max", Json::Num(ms(s.max_ns))),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "cache",
            obj([
                ("hits", Json::Num(c.hits as f64)),
                ("misses", Json::Num(c.misses as f64)),
                ("evictions", Json::Num(c.evictions as f64)),
                ("len", Json::Num(c.len as f64)),
                ("capacity", Json::Num(c.capacity as f64)),
            ]),
        ),
        ("response_cache", {
            let rc = hotiron_thermal::greens::ResponseCache::process().counters();
            obj([
                ("hits", Json::Num(rc.hits as f64)),
                ("misses", Json::Num(rc.misses as f64)),
                ("evictions", Json::Num(rc.evictions as f64)),
                ("len", Json::Num(rc.len as f64)),
                ("capacity", Json::Num(rc.capacity as f64)),
            ])
        }),
        (
            "pool",
            obj([
                ("workers", Json::Num(shared.config.workers as f64)),
                ("busy", gauge(&m.busy_workers)),
                ("queue_depth", gauge(&m.queue_depth)),
                ("queue_capacity", Json::Num(shared.config.queue_capacity as f64)),
                ("connections", gauge(&m.connections)),
                ("inflight", Json::Num(shared.engine.inflight_len() as f64)),
            ]),
        ),
    ])
}
