//! The catalog's TCP serving front-end: an epoll-backed event loop
//! multiplexing pipelined requests over a fixed worker pool.
//!
//! [`CatalogServer`] puts a nonblocking listener in front of an
//! in-process [`Catalog`]. One **event-loop thread** owns every socket:
//! it accepts connections, accumulates bytes into per-connection read
//! buffers, extracts checksummed frames, and flushes queued response
//! frames back out. Decoding and answering happens on a **fixed worker
//! pool** ([`ServerConfig::workers`]): each complete frame becomes a
//! job tagged with its connection and request id, workers answer
//! concurrently, and response frames are queued per connection in
//! completion order — so responses to pipelined requests may return
//! **out of order** and streamed batches of different requests
//! **interleave**, each frame carrying the request id that routes it
//! (protocol v2, `docs/PROTOCOL.md`).
//!
//! Every query-path request goes through one dispatch arm:
//! [`Catalog::execute`] answers it as [`crate::wire::Records`] and the
//! server streams them — summary queries as **per-tile partials**, not
//! pre-folded summaries. The client performs the final fold with the
//! same code a local query uses ([`crate::QuerySummary::from_partials`]),
//! which is what makes a query fanned out over shard servers — or
//! multiplexed over one — bit-identical to the single-process answer.
//!
//! With [`ServerConfig::allow_writes`], the server also executes
//! **served writes** ([`crate::wire::Request::IngestSamples`] /
//! [`crate::wire::Request::IngestThickness`]): a remote producer
//! streams products at this server and the merge runs under the
//! server's own catalog handle — and therefore under its writer lease,
//! with the same self-fencing rules as an in-process ingest. Servers
//! default to read-only and answer write RPCs with a typed
//! [`crate::wire::ERR_READ_ONLY`] error frame.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mio::{Events, Interest, Poll, Token, Waker};
use seaice::artifact::{Artifact, ArtifactError};
use seaice_obs::{Counter, Gauge, Histogram, MetricRegistry, Trace, TraceLog, TraceReport};

use crate::store::Catalog;
use crate::wire::{
    self, Records, Request, Response, BATCH_RECORDS, ERR_BAD_REQUEST, ERR_BAD_VERSION, ERR_CATALOG,
    ERR_DUP_REQUEST, ERR_READ_ONLY, REQUEST_KINDS,
};
use crate::CatalogError;

/// Event-loop tick: bounds how stale an idle-timeout / shutdown check
/// can be when no I/O is happening.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Worker threads when [`ServerConfig::workers`] is 0.
const DEFAULT_WORKERS: usize = 4;

/// Traced-request reports retained for `Introspect` scrapes.
const TRACE_LOG_CAP: usize = 32;

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
/// Connection tokens start here (0/1 are the listener and waker).
const FIRST_CONN: usize = 2;

/// Serving configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Drop a connection that completes no request for this long —
    /// dead or wedged clients (including slow-loris partial frames)
    /// can't pin server state forever. A connection with requests in
    /// flight or responses still flushing is never idle. `None` (the
    /// default) keeps connections for as long as the peer holds them
    /// open. Dropped connections are counted in
    /// [`ServerStats::idle_dropped`].
    pub idle_timeout: Option<Duration>,
    /// Fixed worker-pool size answering requests (0 = default 4).
    /// Requests beyond this many run concurrently queue FIFO
    /// (`server_worker_queue_depth`).
    pub workers: usize,
    /// Accept served-write RPCs (`IngestSamples` / `IngestThickness`),
    /// executing merges under this server's own catalog handle (and
    /// writer lease). Off by default: a read-only server answers write
    /// RPCs with a typed [`ERR_READ_ONLY`] error frame and the
    /// connection survives.
    pub allow_writes: bool,
}

/// Monotonic serving counters (server lifetime). Also the payload of a
/// [`crate::wire::Response::Pong`] health-probe reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests decoded and dispatched.
    pub requests: u64,
    /// Records streamed across all batch frames.
    pub records_streamed: u64,
    /// Error frames sent.
    pub errors: u64,
    /// Connections dropped by the idle timeout
    /// ([`ServerConfig::idle_timeout`]).
    pub idle_dropped: u64,
}

/// The server's registered metric handles. The plain lifetime counters
/// (the `ServerStats` payload of a Pong) and the exposition metrics
/// are the *same cells* — the registry hands out shared handles — so a
/// health probe and an `Introspect` scrape can never disagree.
struct Counters {
    connections: Counter,
    connections_open: Gauge,
    requests: Counter,
    records_streamed: Counter,
    errors: Counter,
    idle_dropped: Counter,
    malformed: Counter,
    /// Requests accepted by the event loop whose completion has not
    /// yet been observed (`server_requests_in_flight`) — under
    /// multiplexing this exceeds the connection count.
    requests_in_flight: Gauge,
    /// Jobs waiting for a worker (`server_worker_queue_depth`).
    queue_depth: Gauge,
    /// Per-kind request counters and latencies, indexed by wire tag
    /// (labelled from [`REQUEST_KINDS`]).
    requests_by_kind: [Counter; REQUEST_KINDS.len()],
    request_us_by_kind: [Histogram; REQUEST_KINDS.len()],
    trace_log: TraceLog,
}

impl Counters {
    fn new(registry: &MetricRegistry) -> Counters {
        Counters {
            connections: registry.counter("server_connections_total"),
            connections_open: registry.gauge("server_connections_open"),
            requests: registry.counter("server_requests_total"),
            records_streamed: registry.counter("server_records_streamed_total"),
            errors: registry.counter("server_errors_total"),
            idle_dropped: registry.counter("server_idle_dropped_total"),
            malformed: registry.counter("server_requests_malformed_total"),
            requests_in_flight: registry.gauge("server_requests_in_flight"),
            queue_depth: registry.gauge("server_worker_queue_depth"),
            requests_by_kind: REQUEST_KINDS
                .map(|kind| registry.counter_with("server_requests_total", &[("kind", kind)])),
            request_us_by_kind: REQUEST_KINDS
                .map(|kind| registry.histogram_with("server_request_us", &[("kind", kind)])),
            trace_log: TraceLog::new(TRACE_LOG_CAP),
        }
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.get(),
            requests: self.requests.get(),
            records_streamed: self.records_streamed.get(),
            errors: self.errors.get(),
            idle_dropped: self.idle_dropped.get(),
        }
    }
}

// ---------------------------------------------------------------------------
// Loop ↔ worker shared state.
// ---------------------------------------------------------------------------

/// Write side of one connection, shared between the event loop (which
/// flushes) and workers (which enqueue response frames).
struct ConnShared {
    id: usize,
    /// Encoded frames awaiting flush, FIFO. Each worker `send` pushes
    /// one frame, so streamed batches of different requests interleave
    /// naturally in enqueue order.
    out: Mutex<VecDeque<Vec<u8>>>,
    /// Request ids live on this connection; a reused live id is a
    /// typed [`ERR_DUP_REQUEST`] error. Shared because retirement must
    /// happen on the worker *before* the terminal response frame is
    /// enqueued — a client that has read its whole response must be
    /// free to reuse the id immediately (the v1 one-exchange idiom
    /// sends every request as id 0).
    in_flight: Mutex<HashSet<u64>>,
    /// Set by the loop when the socket dies (workers stop producing
    /// for it) or by a worker on an unrecoverable send failure (the
    /// loop then closes the socket).
    dead: AtomicBool,
}

impl ConnShared {
    fn in_flight(&self) -> std::sync::MutexGuard<'_, HashSet<u64>> {
        self.in_flight.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// One decoded-frame job for the worker pool.
struct Job {
    conn: Arc<ConnShared>,
    request_id: u64,
    trace_id: u64,
    payload: Vec<u8>,
    /// Frame-arrival instant: `server_request_us` measures arrival →
    /// response queued, so queue wait under load is part of p99.
    t0: Instant,
}

/// A worker finished (or abandoned) a request id on a connection.
struct Completion {
    conn_id: usize,
    request_id: u64,
}

struct JobQueue {
    jobs: VecDeque<Job>,
    stop: bool,
}

/// Everything the loop and the workers share.
struct Shared {
    queue: Mutex<JobQueue>,
    available: Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Connections with freshly queued output, awaiting a flush.
    dirty: Mutex<Vec<usize>>,
    waker: Waker,
    shutdown: AtomicBool,
}

impl Shared {
    /// Queues `job` for the pool.
    fn submit(&self, job: Job, counters: &Counters) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.jobs.push_back(job);
        counters.queue_depth.set(q.jobs.len() as i64);
        drop(q);
        self.available.notify_one();
    }

    /// Marks a connection as having pending output and wakes the loop.
    fn mark_dirty(&self, conn_id: usize) {
        self.dirty
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(conn_id);
        let _ = self.waker.wake();
    }

    /// Reports a finished request id and wakes the loop.
    fn complete(&self, conn_id: usize, request_id: u64) {
        self.completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion {
                conn_id,
                request_id,
            });
        let _ = self.waker.wake();
    }
}

// ---------------------------------------------------------------------------
// The server handle.
// ---------------------------------------------------------------------------

/// A running catalog server. Dropping it (or calling
/// [`CatalogServer::shutdown`]) stops the event loop, drains the
/// worker pool, and closes the listener.
pub struct CatalogServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    counters: Arc<Counters>,
    registry: MetricRegistry,
}

impl CatalogServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `catalog` with default configuration. Returns as
    /// soon as the listener is live; use [`CatalogServer::addr`] for
    /// the bound address.
    pub fn serve(catalog: Arc<Catalog>, addr: &str) -> Result<CatalogServer, CatalogError> {
        Self::serve_with(catalog, addr, ServerConfig::default())
    }

    /// [`CatalogServer::serve`] with explicit [`ServerConfig`].
    pub fn serve_with(
        catalog: Arc<Catalog>,
        addr: &str,
        config: ServerConfig,
    ) -> Result<CatalogServer, CatalogError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        // The server registers its metrics in the catalog's registry,
        // so one Introspect scrape snapshots the whole process: serve
        // path, tile cache, ingest stages, and lease events together.
        let registry = catalog.registry().clone();
        let counters = Arc::new(Counters::new(&registry));

        let mut poll = Poll::new()?;
        poll.register(&listener, LISTENER, Interest::READABLE)?;
        let waker = Waker::new(&mut poll, WAKER)?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(JobQueue {
                jobs: VecDeque::new(),
                stop: false,
            }),
            available: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            dirty: Mutex::new(Vec::new()),
            waker,
            shutdown: AtomicBool::new(false),
        });

        let n_workers = if config.workers == 0 {
            DEFAULT_WORKERS
        } else {
            config.workers
        };
        let mut workers = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            let catalog = Arc::clone(&catalog);
            let shared = Arc::clone(&shared);
            let counters = Arc::clone(&counters);
            workers.push(std::thread::spawn(move || {
                worker_main(&catalog, &shared, &counters, config);
            }));
        }

        let loop_shared = Arc::clone(&shared);
        let loop_counters = Arc::clone(&counters);
        let loop_thread = std::thread::spawn(move || {
            event_loop(poll, listener, &loop_shared, &loop_counters, config);
        });

        Ok(CatalogServer {
            addr: local,
            shared,
            loop_thread: Some(loop_thread),
            workers,
            counters,
            registry,
        })
    }

    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Lifetime serving counters.
    pub fn stats(&self) -> ServerStats {
        self.counters.snapshot()
    }

    /// The metric registry this server records into (shared with its
    /// catalog). What an `Introspect` scrape renders.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// The most recent traced-request breakdowns (requests whose frame
    /// carried a non-zero trace id), oldest first.
    pub fn recent_traces(&self) -> Vec<TraceReport> {
        self.counters.trace_log.recent()
    }

    /// Stops the event loop, drains the worker pool, and closes the
    /// listener. Idempotent through `Drop`.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.shared.waker.wake();
        if let Some(handle) = self.loop_thread.take() {
            let _ = handle.join();
        }
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.stop = true;
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for CatalogServer {
    fn drop(&mut self) {
        if self.loop_thread.is_some() {
            self.stop();
        }
    }
}

// ---------------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------------

/// Loop-owned state of one connection. The socket and read buffer are
/// touched only here; the write queue lives in [`ConnShared`].
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    read_buf: Vec<u8>,
    /// The frame currently flushing (popped off the shared queue) and
    /// how much of it has hit the socket.
    current: Option<(Vec<u8>, usize)>,
    /// Reset when a request completes; a connection with nothing in
    /// flight, nothing to flush, and no completion for
    /// [`ServerConfig::idle_timeout`] is dropped.
    last_activity: Instant,
    /// Whether the socket is currently registered for write interest.
    write_interest: bool,
}

impl Conn {
    fn has_output(&self) -> bool {
        self.current.is_some()
            || !self
                .shared
                .out
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty()
    }
}

/// A read or flush ended its connection: EOF, a framing violation or
/// a transport failure (every path converges on `close_conn`).
struct Close;

fn event_loop(
    mut poll: Poll,
    listener: TcpListener,
    shared: &Shared,
    counters: &Counters,
    config: ServerConfig,
) {
    let mut events = Events::with_capacity(1024);
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_id = FIRST_CONN;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if poll.poll(&mut events, Some(POLL_TICK)).is_err() {
            // A failing selector is unrecoverable; shut the loop down
            // rather than spinning.
            break;
        }
        let mut touched: Vec<usize> = Vec::new();
        for event in &events {
            match event.token() {
                LISTENER => accept_ready(&listener, &mut poll, &mut conns, &mut next_id, counters),
                WAKER => {}
                Token(id) => {
                    if event.is_readable() {
                        touched.push(id);
                        if let Some(conn) = conns.get_mut(&id) {
                            if read_ready(conn, shared, counters).is_err() {
                                close_conn(&mut poll, &mut conns, id, counters);
                                continue;
                            }
                        }
                    }
                    if event.is_writable() {
                        touched.push(id);
                    }
                }
            }
        }
        // Completions: retire in-flight ids and reset idle clocks.
        let completions =
            std::mem::take(&mut *shared.completions.lock().unwrap_or_else(|e| e.into_inner()));
        for completion in completions {
            if let Some(conn) = conns.get_mut(&completion.conn_id) {
                // Usually already retired by the worker's terminal
                // flush; this sweep catches delivery-failure paths.
                conn.shared.in_flight().remove(&completion.request_id);
                conn.last_activity = Instant::now();
            }
            counters.requests_in_flight.add(-1);
        }
        // Flush wherever output appeared (worker enqueues) or the
        // socket asked for it (writable events, fresh reads).
        let mut dirty =
            std::mem::take(&mut *shared.dirty.lock().unwrap_or_else(|e| e.into_inner()));
        dirty.extend(touched);
        dirty.sort_unstable();
        dirty.dedup();
        for id in dirty {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if flush_conn(conn, &poll).is_err() {
                close_conn(&mut poll, &mut conns, id, counters);
            }
        }
        // Maintenance: close worker-killed connections, then apply the
        // idle timeout to connections with no work anywhere.
        let doomed: Vec<usize> = conns
            .iter()
            .filter(|(_, c)| c.shared.dead.load(Ordering::SeqCst))
            .map(|(&id, _)| id)
            .collect();
        for id in doomed {
            close_conn(&mut poll, &mut conns, id, counters);
        }
        if let Some(limit) = config.idle_timeout {
            let idle: Vec<usize> = conns
                .iter()
                .filter(|(_, c)| {
                    c.shared.in_flight().is_empty()
                        && !c.has_output()
                        && c.last_activity.elapsed() > limit
                })
                .map(|(&id, _)| id)
                .collect();
            for id in idle {
                counters.idle_dropped.inc();
                close_conn(&mut poll, &mut conns, id, counters);
            }
        }
    }
    // Shutdown: drop every connection (peers observe EOF) and mark
    // their shared halves dead so in-flight workers stop producing.
    for (_, conn) in conns.drain() {
        conn.shared.dead.store(true, Ordering::SeqCst);
        let _ = poll.deregister(&conn.stream);
    }
}

/// Accepts every pending connection (the listener is level-triggered,
/// but draining per event keeps accept latency flat under bursts).
fn accept_ready(
    listener: &TcpListener,
    poll: &mut Poll,
    conns: &mut HashMap<usize, Conn>,
    next_id: &mut usize,
    counters: &Counters,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Transient accept failures (fd exhaustion, aborted
            // handshakes): skip; the next readable event retries.
            Err(_) => return,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let id = *next_id;
        *next_id += 1;
        if poll
            .register(&stream, Token(id), Interest::READABLE)
            .is_err()
        {
            continue;
        }
        counters.connections.inc();
        counters.connections_open.add(1);
        conns.insert(
            id,
            Conn {
                stream,
                shared: Arc::new(ConnShared {
                    id,
                    out: Mutex::new(VecDeque::new()),
                    in_flight: Mutex::new(HashSet::new()),
                    dead: AtomicBool::new(false),
                }),
                read_buf: Vec::new(),
                current: None,
                last_activity: Instant::now(),
                write_interest: false,
            },
        );
    }
}

/// Drains the socket into the read buffer and extracts every complete
/// frame: valid frames become worker jobs (or duplicate-id error
/// frames); frame-level violations close the connection.
fn read_ready(conn: &mut Conn, shared: &Shared, counters: &Counters) -> Result<(), Close> {
    // The read loop drains the socket, so the chunk only bounds the
    // per-syscall transfer.
    let mut chunk = [0u8; wire::READ_CHUNK];
    let mut saw_eof = false;
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(Close),
        }
    }
    loop {
        match wire::try_extract_frame(&conn.read_buf) {
            Ok(Some((frame, consumed))) => {
                conn.read_buf.drain(..consumed);
                // A live duplicate id cannot be dispatched — the two
                // responses would be indistinguishable to the client.
                if !conn.shared.in_flight().insert(frame.request_id) {
                    counters.errors.inc();
                    enqueue_error(
                        &conn.shared,
                        shared,
                        frame.request_id,
                        frame.trace_id,
                        ERR_DUP_REQUEST,
                        format!("request id {} is already in flight", frame.request_id),
                    );
                    continue;
                }
                counters.requests_in_flight.add(1);
                shared.submit(
                    Job {
                        conn: Arc::clone(&conn.shared),
                        request_id: frame.request_id,
                        trace_id: frame.trace_id,
                        payload: frame.payload,
                        t0: Instant::now(),
                    },
                    counters,
                );
            }
            Ok(None) => break,
            // Framing violations (bad checksum, hostile length) are
            // unrecoverable: the stream cannot be re-synchronised.
            Err(_) => return Err(Close),
        }
    }
    // EOF after a partial frame is a truncation; either way the peer
    // is gone. In-flight requests keep running — their frames go to a
    // dead connection and are discarded.
    if saw_eof {
        return Err(Close);
    }
    Ok(())
}

/// Queues one error frame from the loop thread (dup-id rejections).
fn enqueue_error(
    conn: &ConnShared,
    shared: &Shared,
    request_id: u64,
    trace_id: u64,
    code: u16,
    message: String,
) {
    let response = Response::Error { code, message };
    if let Ok(frame) = wire::encode_frame(&response.to_bytes(), request_id, trace_id) {
        conn.out
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(frame);
        shared.mark_dirty(conn.id);
    }
}

/// Writes queued frames until the socket blocks or the queue drains,
/// keeping write interest registered exactly while output is pending.
fn flush_conn(conn: &mut Conn, poll: &Poll) -> Result<(), Close> {
    loop {
        if conn.current.is_none() {
            conn.current = conn
                .shared
                .out
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
                .map(|frame| (frame, 0));
        }
        let Some((frame, written)) = conn.current.as_mut() else {
            break;
        };
        match conn.stream.write(&frame[*written..]) {
            Ok(0) => return Err(Close),
            Ok(n) => {
                *written += n;
                if *written == frame.len() {
                    conn.current = None;
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(Close),
        }
    }
    let want_write = conn.has_output();
    if want_write != conn.write_interest {
        let interest = if want_write {
            Interest::READABLE | Interest::WRITABLE
        } else {
            Interest::READABLE
        };
        if poll
            .reregister(&conn.stream, Token(conn.shared.id), interest)
            .is_err()
        {
            return Err(Close);
        }
        conn.write_interest = want_write;
    }
    Ok(())
}

/// Tears a connection down on any exit path: marks the shared half
/// dead (workers stop producing for it), deregisters, and balances the
/// open-connections gauge.
fn close_conn(poll: &mut Poll, conns: &mut HashMap<usize, Conn>, id: usize, counters: &Counters) {
    if let Some(conn) = conns.remove(&id) {
        conn.shared.dead.store(true, Ordering::SeqCst);
        let _ = poll.deregister(&conn.stream);
        counters.connections_open.add(-1);
    }
}

// ---------------------------------------------------------------------------
// The worker pool.
// ---------------------------------------------------------------------------

fn worker_main(catalog: &Catalog, shared: &Shared, counters: &Counters, config: ServerConfig) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    counters.queue_depth.set(q.jobs.len() as i64);
                    break Some(job);
                }
                if q.stop {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        let Some(job) = job else {
            return;
        };
        let conn_id = job.conn.id;
        let request_id = job.request_id;
        handle_job(catalog, shared, counters, config, job);
        shared.complete(conn_id, request_id);
    }
}

/// Decodes and answers one frame on a worker thread.
fn handle_job(
    catalog: &Catalog,
    shared: &Shared,
    counters: &Counters,
    config: ServerConfig,
    job: Job,
) {
    let sink = FrameSink {
        conn: &job.conn,
        shared,
        request_id: job.request_id,
        trace_id: job.trace_id,
        held: std::cell::RefCell::new(None),
    };
    // A request is counted only once it decodes — malformed frames
    // get their own counter instead of inflating `requests` with
    // entries no per-kind metric accounts for.
    let request = match Request::from_bytes(&job.payload) {
        Ok(request) => request,
        Err(e) => {
            // The frame boundary is intact, so the connection survives
            // a malformed message.
            let code = match e {
                ArtifactError::BadMagic | ArtifactError::BadVersion(_) => ERR_BAD_VERSION,
                _ => ERR_BAD_REQUEST,
            };
            counters.malformed.inc();
            counters.errors.inc();
            let _ = sink
                .send(&Response::Error {
                    code,
                    message: e.to_string(),
                })
                .and_then(|()| sink.finish());
            return;
        }
    };
    let kind = usize::from(request.tag());
    counters.requests.inc();
    counters.requests_by_kind[kind].inc();
    // A non-zero frame trace id asks for a server-side breakdown.
    let trace = (job.trace_id != 0).then(|| Trace::new(job.trace_id));
    let outcome = respond(catalog, &sink, request, counters, &trace, config);
    // Observations land *before* the terminal frame is released: a
    // client that has seen its exchange complete can never scrape a
    // registry that has not counted it yet.
    counters.request_us_by_kind[kind].record(job.t0.elapsed());
    if let Some(trace) = trace {
        counters.trace_log.push(trace.report());
    }
    let outcome = outcome.and_then(|()| sink.finish());
    if outcome.is_err() {
        // The response could not be delivered whole (encode failure or
        // the connection died mid-stream): kill the connection so the
        // client sees a drop, never a truncated exchange.
        job.conn.dead.store(true, Ordering::SeqCst);
        let _ = shared.waker.wake();
    }
}

/// A worker's handle for sending response frames: each frame is
/// encoded with the request's ids and queued on the connection.
///
/// The sink holds back the most recently sent frame and releases it on
/// the *next* send — so the terminal frame of a response leaves only at
/// [`FrameSink::finish`], strictly after the request's metrics are
/// recorded. A client that reads a complete response and immediately
/// scrapes `Introspect` therefore always sees that request counted; the
/// held frame costs nothing to streaming interleave because every
/// earlier frame is released as soon as its successor is encoded.
struct FrameSink<'a> {
    conn: &'a ConnShared,
    shared: &'a Shared,
    request_id: u64,
    trace_id: u64,
    held: std::cell::RefCell<Option<Vec<u8>>>,
}

impl FrameSink<'_> {
    fn send(&self, response: &Response) -> Result<(), CatalogError> {
        let frame = wire::encode_frame(&response.to_bytes(), self.request_id, self.trace_id)?;
        let prev = self.held.borrow_mut().replace(frame);
        match prev {
            Some(prev) => self.deliver(prev),
            None => Ok(()),
        }
    }

    /// Releases the held terminal frame. Call after the request's
    /// observations are recorded; until then the client cannot have
    /// seen the exchange complete. The request id is retired first, so
    /// a client that reads its full response may reuse the id on its
    /// very next frame without racing the completion queue.
    fn finish(&self) -> Result<(), CatalogError> {
        self.conn.in_flight().remove(&self.request_id);
        let last = self.held.borrow_mut().take();
        match last {
            Some(last) => self.deliver(last),
            None => Ok(()),
        }
    }

    fn deliver(&self, frame: Vec<u8>) -> Result<(), CatalogError> {
        if self.conn.dead.load(Ordering::SeqCst) {
            return Err(CatalogError::Protocol(
                "connection closed with the response in flight".into(),
            ));
        }
        self.conn
            .out
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(frame);
        self.shared.mark_dirty(self.conn.id);
        Ok(())
    }
}

/// Answers one request. `Err` means the response could not be
/// delivered (dead connection / encode failure); catalog-side failures
/// become error frames and keep the connection alive. When `trace` is
/// set (the request frame carried a non-zero trace id), the query and
/// streaming phases record spans into it.
fn respond(
    catalog: &Catalog,
    sink: &FrameSink<'_>,
    request: Request,
    counters: &Counters,
    trace: &Option<Trace>,
    config: ServerConfig,
) -> Result<(), CatalogError> {
    /// Sends a query-path answer: record streams as batch frames + a
    /// `Done` trailer, everything else as its one scalar frame.
    /// Chunking honours both the record cap and the per-frame byte
    /// budget, so no batch can ever hit the frame cap and poison the
    /// connection. Batches are carved off by moving (no per-record
    /// clone); the ranges tile the records front to back. Each batch is
    /// queued as its own frame, which is what lets batches of
    /// concurrently streaming requests interleave on the wire.
    fn send_records(
        sink: &FrameSink<'_>,
        counters: &Counters,
        trace: &Option<Trace>,
        records: Records,
    ) -> Result<(), CatalogError> {
        fn stream<T: seaice::artifact::Codec>(
            sink: &FrameSink<'_>,
            counters: &Counters,
            trace: &Option<Trace>,
            mut records: Vec<T>,
            make: impl Fn(Vec<T>) -> Response,
        ) -> Result<(), CatalogError> {
            let _span = trace.as_ref().map(|t| t.span("stream"));
            let total = records.len() as u64;
            for range in wire::batch_ranges(&records, BATCH_RECORDS, wire::MAX_BATCH_BYTES) {
                let rest = records.split_off(range.len());
                let batch = std::mem::replace(&mut records, rest);
                sink.send(&make(batch))?;
            }
            counters.records_streamed.add(total);
            sink.send(&Response::Done { n_records: total })
        }
        match records {
            Records::Tiles(r) => stream(sink, counters, trace, r, Response::TileBatch),
            Records::Layers(layers) => {
                let records = layers
                    .into_iter()
                    .flat_map(|(t, partials)| partials.into_iter().map(move |p| (t, p)))
                    .collect();
                stream(sink, counters, trace, records, Response::LayerBatch)
            }
            Records::Cells(r) => stream(sink, counters, trace, r, Response::CellBatch),
            Records::Point(cell) => sink.send(&Response::Point(cell)),
            Records::Stats { stats, layers } => sink.send(&Response::Stats { stats, layers }),
            Records::Checked(n_records) => sink.send(&Response::Done { n_records }),
        }
    }

    /// Converts a catalog-side failure into an error frame.
    fn fail(
        sink: &FrameSink<'_>,
        counters: &Counters,
        e: CatalogError,
    ) -> Result<(), CatalogError> {
        counters.errors.inc();
        sink.send(&Response::Error {
            code: ERR_CATALOG,
            message: e.to_string(),
        })
    }

    /// Refuses a write RPC on a read-only server.
    fn read_only(sink: &FrameSink<'_>, counters: &Counters) -> Result<(), CatalogError> {
        counters.errors.inc();
        sink.send(&Response::Error {
            code: ERR_READ_ONLY,
            message: "server does not accept served writes (allow_writes is off)".into(),
        })
    }

    match request {
        Request::Manifest => sink.send(&Response::Manifest(*catalog.grid())),
        // No catalog access: a ping must stay cheap and answerable even
        // when the store is busy — it measures the serve path, not the
        // query path.
        Request::Ping => sink.send(&Response::Pong(counters.snapshot())),
        // The full observability snapshot: every metric the catalog and
        // this server registered, plus the recent traced-request
        // breakdowns, as text exposition lines.
        Request::Introspect => {
            let mut text = catalog.expose();
            counters.trace_log.expose_into(&mut text);
            sink.send(&Response::Metrics(text))
        }
        // Served writes: the merge runs on this worker under the
        // server's catalog handle — and so under its writer lease,
        // heartbeating and self-fencing exactly like an in-process
        // ingest. Lease loss (or any catalog failure) is an ERR_CATALOG
        // error frame; the connection survives.
        Request::IngestSamples {
            granule_id,
            beam,
            mode,
            product,
        } => {
            if !config.allow_writes {
                return read_only(sink, counters);
            }
            let merged = {
                let _span = trace.as_ref().map(|t| t.span("ingest"));
                catalog.ingest_beam_with(&granule_id, beam as usize, &product, mode)
            };
            match merged {
                Ok(report) => sink.send(&Response::Ingested(report)),
                Err(e) => fail(sink, counters, e),
            }
        }
        Request::IngestThickness { mode, beam } => {
            if !config.allow_writes {
                return read_only(sink, counters);
            }
            let merged = {
                let _span = trace.as_ref().map(|t| t.span("ingest"));
                catalog.ingest_thickness_beam_with(&beam, mode)
            };
            match merged {
                Ok(report) => sink.send(&Response::Ingested(report)),
                Err(e) => fail(sink, counters, e),
            }
        }
        // Every query-path request: the catalog executes it, the
        // answer streams back as records.
        query => {
            let executed = {
                let _span = trace.as_ref().map(|t| t.span("query"));
                catalog.execute(&query)
            };
            match executed {
                Ok(records) => send_records(sink, counters, trace, records),
                Err(e) => fail(sink, counters, e),
            }
        }
    }
}
