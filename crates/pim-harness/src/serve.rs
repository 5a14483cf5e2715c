//! Sweep-as-a-service: the `pim-serve` daemon behind `pim-tradeoffs serve`.
//!
//! A [`SweepServer`] accepts scenario-spec submissions over HTTP (`POST /run`, body
//! = one schema-v1 spec document, exactly what `run --spec FILE` reads), compiles
//! them through [`crate::spec`], and executes their units on **one persistent
//! [`UnitPool`]** shared by every connection for the daemon's lifetime. That pool —
//! not the HTTP layer — is where the service semantics live:
//!
//! * at most `--jobs` units compute at any instant, however many clients are active;
//! * repeat queries are answered from the pool's warm in-memory results (and the
//!   on-disk unit cache when `--cache` is given) without recomputation. With
//!   `--cache`, a computed unit goes to disk only and joins the in-memory results
//!   when a later request loads it back, so memory grows with reuse, not traffic;
//! * concurrent submissions with overlapping grids deduplicate at *unit*
//!   granularity: single-flight per [`UnitKey`](crate::cache::UnitKey) digest means
//!   two clients asking for the same grid point trigger exactly one computation.
//!
//! In front of the pool sits a **response memo**: an artifact-mode `POST /run`
//! whose every unit was a hit stores its rendered response, keyed by the resolved
//! seed and the exact request-body bytes. A byte-identical resubmission gets the
//! same bytes back (all-hit `X-Pim-*` headers included) without being parsed,
//! planned, executed or rendered. Cold runs, progress streams and error answers
//! never enter it; its budget is a fixed 8 MiB, evicted first in, first out.
//!
//! The default `POST /run` response body is byte-identical to what
//! `pim-tradeoffs run --spec FILE --seed S` prints for a single scenario — the
//! report's pretty JSON rendering — so a curl and a CLI run are interchangeable
//! artifacts. Cache accounting rides in `X-Pim-*` response headers to keep the body
//! pristine. With `?progress=1` the response switches to a chunked
//! `application/x-ndjson` stream of progress events (this mode trades the
//! byte-identical body for liveness; the final `report` event carries the same
//! artifact in compact form).
//!
//! # Traffic discipline
//!
//! The HTTP layer is a fixed **acceptor + bounded worker pool**, not a thread per
//! connection. The acceptor thread (the caller of
//! [`serve_forever`](SweepServer::serve_forever)) pushes accepted sockets onto a
//! bounded pending queue consumed by `--workers` handler threads; when the queue
//! is full it answers `503` with a `Retry-After` estimated from current pool
//! occupancy and closes the connection, so overload degrades into fast, honest
//! rejections instead of unbounded thread growth. Every accepted socket carries a
//! `--timeout-ms` read/write deadline — a client that connects and goes silent
//! costs one worker for at most one deadline, then gets a `408`. A failed
//! `accept()` — descriptors exhausted by such a flood — is retried after a
//! backoff (10 ms doubling to 1 s, reset by the next success) instead of ending
//! the daemon.
//!
//! Shutdown is a **graceful drain**: a SIGTERM/SIGINT (when the embedder enables
//! [`ServeOptions::handle_signals`]) or a [`DrainHandle::request_drain`] stops
//! the acceptor, lets queued and in-flight requests finish up to `--drain-ms`,
//! and returns a [`DrainSummary`]. While draining, `/healthz` answers `503
//! draining` so load balancers stop routing here. A client that disconnects
//! mid-request is detected (socket probe between units in artifact mode, dead
//! progress stream in `?progress=1` mode) and its waits are cancelled — but only
//! the waits it uniquely owns: single-flight computations with other interested
//! clients fail over to those waiters (see [`UnitPool::run`]). A unit that panics
//! is answered like a failed cache store — `500` with the error's text, or an
//! `error` event in progress mode — and the worker and the pool keep serving.
//!
//! # Endpoints
//!
//! | Method | Path         | Meaning                                             |
//! |--------|--------------|-----------------------------------------------------|
//! | GET    | `/healthz`   | liveness probe, body `ok` (`503 draining` in drain) |
//! | GET    | `/scenarios` | JSON array of builtin scenario names                |
//! | GET    | `/metrics`   | service counters, schema-v1 JSON (see the docs)     |
//! | POST   | `/run`       | compile + execute the spec in the body              |
//!
//! `POST /run` query parameters: `seed=S` overrides the daemon's base seed for this
//! submission (default: the `--seed` the daemon was started with); `progress=1`
//! selects the ndjson progress stream. Repeated query keys are a `400` — like the
//! CLI's duplicate-flag rule, silently ignoring one of two conflicting values
//! would make the response depend on argument order.
//!
//! # Where this sits on the determinism map
//!
//! This module is deliberately **off the unit path**, and says so with the one
//! module-level `expect` below: it may read wall clocks for request logging,
//! metrics and backpressure estimates, and talk to sockets, because nothing here
//! influences unit outputs — units are pure functions of their keys, the pool
//! replays them from content-addressed storage, and the artifact bytes are produced
//! by the same report renderer the CLI uses.

#![expect(
    clippy::disallowed_methods,
    reason = "the daemon's clocks time requests for logs, metrics and Retry-After; none feeds a unit"
)]

use crate::cache::{CacheCounts, UnitCache};
use crate::exec::{resolve_jobs, unpoisoned, RunError, RunHooks, UnitPool};
use crate::registry::Registry;
use crate::scenario::SeedPolicy;
use crate::spec::parse_spec;
use serde::{Serialize, Value};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tiny_http::{ChunkedWriter, Request, Response};

/// Version of the `GET /metrics` JSON schema. Bump on incompatible shape
/// changes so scrapers can refuse documents they do not understand.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// The internal status label for requests whose client vanished mid-run
/// (nothing was written back). Follows nginx's convention for the same case.
const STATUS_CLIENT_GONE: u16 = 499;

/// Byte budget of the response memo ([`ResponseMemo`]): key plus response
/// bytes over every entry. A shipped preset's response is 2.5–13 KB, so this
/// holds several hundred distinct repeat submissions.
const MEMO_BUDGET_BYTES: usize = 8 << 20;

/// First and longest pause before the acceptor retries a failed `accept()`; the
/// pause doubles on each consecutive failure and resets on the next success.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Configuration for [`SweepServer::bind`].
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:8787` (`127.0.0.1:0` lets the OS pick).
    pub addr: String,
    /// On-disk unit cache directory; `None` serves from memory only.
    pub cache_dir: Option<PathBuf>,
    /// Compute-permit budget shared by all clients (`0` = one per core).
    pub jobs: usize,
    /// Base seed for submissions that do not pass `?seed=`.
    pub seed: u64,
    /// Log one stderr line per request (method, path, status, wall time).
    pub log: bool,
    /// Connection-handler threads (`0` = one per core). Bounds how many
    /// requests are *in service* concurrently; the pool's `jobs` gate still
    /// bounds how many units *compute* concurrently.
    pub workers: usize,
    /// Pending-connection queue bound (`0` = twice the resolved workers).
    /// Accepted sockets beyond workers + queue are answered `503`.
    pub queue: usize,
    /// Per-connection read/write deadline in milliseconds (`0` = none): a
    /// single stalled socket operation fails after this long, freeing the
    /// worker with a `408` instead of pinning it forever.
    pub timeout_ms: u64,
    /// Drain deadline in milliseconds: how long
    /// [`serve_forever`](SweepServer::serve_forever) waits for queued and
    /// in-flight requests after a drain is requested.
    pub drain_ms: u64,
    /// Install SIGTERM/SIGINT handlers that trigger a graceful drain. Off by
    /// default so embedders (tests, benches) keep their own signal story; the
    /// CLI turns it on.
    pub handle_signals: bool,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: None,
            jobs: 0,
            seed: crate::DEFAULT_SEED,
            log: false,
            workers: 0,
            queue: 0,
            timeout_ms: 30_000,
            drain_ms: 5_000,
            handle_signals: false,
        }
    }
}

/// Monotonic service counters behind `GET /metrics`. Counts are recorded when
/// a response is fully written (or the client is found gone), so a scraped
/// total can briefly trail a client-observed response by one update.
struct Metrics {
    started: Instant,
    /// Completed requests (anything with a recorded status, 499 included).
    total: AtomicU64,
    /// (endpoint label, status) → count, in the order `/metrics` lists them. The
    /// labels are a fixed set ([`endpoint_label`] and the synthetic ones), so a
    /// client cannot grow the map.
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// Sums of the per-request `X-Pim-Cache-*` header accounting, over
    /// successfully answered `/run` requests.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_recomputed: AtomicU64,
    /// Sum of `X-Pim-Units` over successfully answered `/run` requests.
    units_served: AtomicU64,
    /// Connections answered `503` by the acceptor (queue full or draining).
    rejected_503: AtomicU64,
    /// Workers currently inside a request handler.
    busy: AtomicU64,
    /// Exponentially-weighted mean request wall time, for `Retry-After`
    /// estimates (0 until the first request completes).
    ewma_request_micros: AtomicU64,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            total: AtomicU64::new(0),
            requests: Mutex::new(BTreeMap::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_recomputed: AtomicU64::new(0),
            units_served: AtomicU64::new(0),
            rejected_503: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            ewma_request_micros: AtomicU64::new(0),
        }
    }

    fn record(&self, label: &'static str, status: u16) {
        self.total.fetch_add(1, Ordering::SeqCst);
        let mut requests = unpoisoned(self.requests.lock());
        *requests.entry((label, status)).or_insert(0) += 1;
    }

    fn record_run_accounting(&self, units: u64, counts: &crate::cache::CacheCounts) {
        self.units_served.fetch_add(units, Ordering::SeqCst);
        self.cache_hits.fetch_add(counts.hits, Ordering::SeqCst);
        self.cache_misses.fetch_add(counts.misses, Ordering::SeqCst);
        self.cache_recomputed
            .fetch_add(counts.recomputed, Ordering::SeqCst);
    }

    /// Fold one completed request's wall time into the EWMA (α = 1/8).
    fn observe_request_wall(&self, wall: Duration) {
        let sample = wall.as_micros().min(u128::from(u64::MAX)) as u64;
        let old = self.ewma_request_micros.load(Ordering::SeqCst);
        let new = if old == 0 {
            sample
        } else {
            old - old / 8 + sample / 8
        };
        self.ewma_request_micros.store(new, Ordering::SeqCst);
    }
}

/// Why a socket was diverted to the rejection lane.
enum QueueRefusal {
    /// The pending bound is reached: the service is saturated.
    Full,
    /// The queue is closed: the service is draining.
    Closed,
}

/// A bounded, closable hand-off queue between the acceptor and a consumer
/// thread pool.
struct PendingQueue<T> {
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
    capacity: usize,
}

struct QueueInner<T> {
    pending: VecDeque<T>,
    closed: bool,
}

impl<T> PendingQueue<T> {
    fn new(capacity: usize) -> PendingQueue<T> {
        PendingQueue {
            inner: Mutex::new(QueueInner {
                pending: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    fn push(&self, item: T) -> Result<(), (T, QueueRefusal)> {
        let mut inner = unpoisoned(self.inner.lock());
        if inner.closed {
            return Err((item, QueueRefusal::Closed));
        }
        if inner.pending.len() >= self.capacity {
            return Err((item, QueueRefusal::Full));
        }
        inner.pending.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Next pending item; blocks while the queue is open and empty, returns
    /// `None` once it is closed *and* empty (consumers exit on that).
    fn pop(&self) -> Option<T> {
        let mut inner = unpoisoned(self.inner.lock());
        loop {
            if let Some(item) = inner.pending.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = unpoisoned(self.ready.wait(inner));
        }
    }

    fn close(&self) {
        unpoisoned(self.inner.lock()).closed = true;
        self.ready.notify_all();
    }

    fn depth(&self) -> usize {
        unpoisoned(self.inner.lock()).pending.len()
    }
}

/// What a `POST /run` response depends on: the resolved seed and the exact
/// request-body bytes. Equality is byte equality; the hash only picks a bucket.
#[derive(Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    seed: u64,
    body: Arc<[u8]>,
}

impl MemoKey {
    /// Bytes an entry under this key costs on top of its response.
    fn bytes(&self) -> usize {
        std::mem::size_of::<u64>() + self.body.len()
    }
}

/// A memoized `POST /run` response: the complete HTTP bytes, all-hit
/// `X-Pim-*` headers included, and the unit count they report.
struct MemoEntry {
    units: u64,
    response: Vec<u8>,
}

/// Rendered responses to artifact-mode `POST /run` submissions whose run was
/// all hits. A byte-identical resubmission under the same seed gets the same
/// bytes back without being parsed, planned, executed or rendered: units are
/// pure functions of their keys, so the pipeline would produce exactly these
/// bytes again. A reformatted but equivalent spec misses and takes the
/// pipeline. Entries are evicted first in, first out once their key and
/// response bytes would exceed the budget; a response the budget cannot hold
/// alone is not stored.
struct ResponseMemo {
    budget: usize,
    inner: Mutex<MemoInner>,
    hits: AtomicU64,
}

#[derive(Default)]
struct MemoInner {
    entries: HashMap<MemoKey, Arc<MemoEntry>>,
    /// Keys in admission order, oldest first.
    order: VecDeque<MemoKey>,
    bytes: usize,
}

impl ResponseMemo {
    fn new(budget: usize) -> ResponseMemo {
        ResponseMemo {
            budget,
            inner: Mutex::new(MemoInner::default()),
            hits: AtomicU64::new(0),
        }
    }

    /// The memoized response under `key`, counting a hit.
    fn get(&self, key: &MemoKey) -> Option<Arc<MemoEntry>> {
        let entry = unpoisoned(self.inner.lock()).entries.get(key).cloned()?;
        self.hits.fetch_add(1, Ordering::SeqCst);
        Some(entry)
    }

    /// Store `entry` under `key` unless the key is present already (a
    /// concurrent twin got there first) or the entry exceeds the whole
    /// budget, evicting the oldest entries to make room.
    fn admit(&self, key: MemoKey, entry: MemoEntry) {
        let cost = key.bytes() + entry.response.len();
        if cost > self.budget {
            return;
        }
        let mut inner = unpoisoned(self.inner.lock());
        if inner.entries.contains_key(&key) {
            return;
        }
        while inner.bytes + cost > self.budget {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            if let Some(evicted) = inner.entries.remove(&oldest) {
                inner.bytes -= oldest.bytes() + evicted.response.len();
            }
        }
        inner.bytes += cost;
        inner.order.push_back(key.clone());
        inner.entries.insert(key, Arc::new(entry));
    }

    /// `(entries, bytes, hits)`, for `/metrics`.
    fn stats(&self) -> (usize, usize, u64) {
        let inner = unpoisoned(self.inner.lock());
        (
            inner.entries.len(),
            inner.bytes,
            self.hits.load(Ordering::SeqCst),
        )
    }
}

/// Daemon state shared by the acceptor, every worker, and drain handles.
struct ServeState {
    pool: UnitPool,
    cache: Option<UnitCache>,
    base_seed: u64,
    log: bool,
    /// Resolved worker-thread count (the `--workers` knob with 0 = cores).
    workers: usize,
    /// Per-connection socket deadline; `None` disables deadlines.
    timeout: Option<Duration>,
    /// Set once a drain is requested; never cleared.
    draining: AtomicBool,
    queue: PendingQueue<TcpStream>,
    /// The rejection lane: sockets refused by `queue`, answered `503` by one
    /// dedicated thread. Rejection must *read* the request before responding
    /// (closing with unread bytes makes the kernel RST the connection and the
    /// client may never see the 503), and that read cannot run on the
    /// acceptor thread — so it gets its own bounded lane. Overflowing even
    /// this lane drops the socket outright: under extreme overload a hard
    /// close is the only answer that costs nothing.
    reject: PendingQueue<(TcpStream, QueueRefusal)>,
    metrics: Metrics,
    memo: ResponseMemo,
}

/// The sweep service: a bound listener plus the persistent scheduler state.
pub struct SweepServer {
    listener: tiny_http::Server,
    state: Arc<ServeState>,
    /// The resolved bound address, kept for drain wake-up self-connects.
    addr: String,
    drain_ms: u64,
    handle_signals: bool,
}

/// A remote control for one [`SweepServer`]: lets another thread (a signal
/// watcher, a bench harness, a test) ask the acceptor to drain gracefully.
/// Clones of the daemon state keep it valid for the daemon's whole life.
pub struct DrainHandle {
    state: Arc<ServeState>,
    addr: String,
}

impl DrainHandle {
    /// Request a graceful drain: the acceptor stops accepting, queued and
    /// in-flight requests finish (up to the server's drain deadline), and
    /// [`SweepServer::serve_forever`] returns its [`DrainSummary`].
    /// Idempotent; safe from any thread.
    pub fn request_drain(&self) {
        if self.state.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // The acceptor sits in blocking accept(); a self-connect wakes it so
        // it can observe the flag without polling (polling would tax every
        // real connection's accept latency).
        let _ = TcpStream::connect(&self.addr);
    }

    /// Whether a drain has been requested on this server.
    pub fn is_draining(&self) -> bool {
        self.state.draining.load(Ordering::SeqCst)
    }
}

/// What a drained [`SweepServer::serve_forever`] accomplished, for the
/// operator's log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainSummary {
    /// Requests answered over the daemon's lifetime (any status).
    pub served: u64,
    /// Connections rejected `503` by the acceptor (saturation or drain).
    pub rejected: u64,
    /// Connections still queued or in flight when the drain deadline expired
    /// (0 on a clean drain).
    pub abandoned: u64,
    /// How long the drain waited for in-flight work, in milliseconds.
    pub drain_wait_ms: u64,
    /// Daemon lifetime, in milliseconds.
    pub uptime_ms: u64,
}

impl std::fmt::Display for DrainSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drained: {} request(s) served, {} rejected (503), {} abandoned; \
             drain waited {} ms; up {} ms",
            self.served, self.rejected, self.abandoned, self.drain_wait_ms, self.uptime_ms
        )
    }
}

impl SweepServer {
    /// Bind the service and open its cache. The pool and cache outlive every
    /// request — this is the decoupling that makes warm serving and
    /// cross-request deduplication possible.
    pub fn bind(opts: &ServeOptions) -> Result<SweepServer, String> {
        let cache = match &opts.cache_dir {
            Some(dir) => Some(UnitCache::open(dir)?),
            None => None,
        };
        let listener =
            tiny_http::Server::bind(&opts.addr).map_err(|e| format!("bind {}: {e}", opts.addr))?;
        let addr = listener
            .local_addr()
            .map(|a| a.to_string())
            .map_err(|e| format!("local_addr: {e}"))?;
        let workers = resolve_jobs(opts.workers).max(1);
        // The default queue bound and `serve_forever`'s thread count (workers
        // plus the rejector) derive from the worker count; the rejection lane
        // holds four queues' worth.
        let Some(default_queue) = workers.checked_mul(2) else {
            return Err(format!(
                "workers = {workers} is more worker threads than the daemon can count"
            ));
        };
        let queue_capacity = if opts.queue == 0 {
            default_queue
        } else {
            opts.queue
        };
        let Some(reject_capacity) = queue_capacity.checked_mul(4) else {
            return Err(format!(
                "queue = {queue_capacity} overflows the rejection lane's bound"
            ));
        };
        Ok(SweepServer {
            listener,
            addr,
            drain_ms: opts.drain_ms,
            handle_signals: opts.handle_signals,
            state: Arc::new(ServeState {
                pool: UnitPool::new(opts.jobs),
                cache,
                base_seed: opts.seed,
                log: opts.log,
                workers,
                timeout: (opts.timeout_ms > 0).then(|| Duration::from_millis(opts.timeout_ms)),
                draining: AtomicBool::new(false),
                queue: PendingQueue::new(queue_capacity),
                reject: PendingQueue::new(reject_capacity.max(64)),
                metrics: Metrics::new(),
                memo: ResponseMemo::new(MEMO_BUDGET_BYTES),
            }),
        })
    }

    /// The bound `host:port` — how callers learn the port after binding to `:0`.
    pub fn local_addr(&self) -> Result<String, String> {
        Ok(self.addr.clone())
    }

    /// A handle other threads can use to drain this server gracefully.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            state: Arc::clone(&self.state),
            addr: self.addr.clone(),
        }
    }

    /// Accept and serve connections on the bounded worker pool until a drain
    /// is requested (via [`DrainHandle::request_drain`] or, with
    /// [`ServeOptions::handle_signals`], SIGTERM/SIGINT), then let queued and
    /// in-flight requests finish up to the drain deadline and return the
    /// [`DrainSummary`]. A failed `accept()` is retried with a backoff of
    /// 10 ms doubling to 1 s. An `Err` is a thread the host would not start
    /// (before any connection is accepted; the threads already started exit)
    /// or an `accept()` failure after a drain was requested.
    pub fn serve_forever(&self) -> Result<DrainSummary, String> {
        let state = &self.state;
        // workers + the rejector: all must exit for a clean drain.
        let alive = Arc::new(AtomicUsize::new(state.workers + 1));
        let mut threads = Vec::new();
        for _ in 0..state.workers {
            let state = Arc::clone(&self.state);
            let alive = Arc::clone(&alive);
            start_thread(&self.state, &mut threads, move || {
                while let Some(stream) = state.queue.pop() {
                    let started = Instant::now();
                    state.metrics.busy.fetch_add(1, Ordering::SeqCst);
                    handle_connection(&state, stream);
                    state.metrics.busy.fetch_sub(1, Ordering::SeqCst);
                    state.metrics.observe_request_wall(started.elapsed());
                }
                alive.fetch_sub(1, Ordering::SeqCst);
            })?;
        }
        {
            let state = Arc::clone(&self.state);
            let alive = Arc::clone(&alive);
            start_thread(&self.state, &mut threads, move || {
                while let Some((stream, refusal)) = state.reject.pop() {
                    reject_busy(&state, stream, &refusal);
                }
                alive.fetch_sub(1, Ordering::SeqCst);
            })?;
        }
        if self.handle_signals {
            tiny_http::shutdown::install();
            let handle = self.drain_handle();
            start_thread(&self.state, &mut threads, move || loop {
                if tiny_http::shutdown::requested() {
                    handle.request_drain();
                    break;
                }
                if handle.is_draining() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(25));
            })?;
        }
        // Detached from here on: the drain below waits on `alive` with a
        // deadline instead of joining.
        drop(threads);

        let mut backoff = ACCEPT_BACKOFF_MIN;
        loop {
            let stream = match self.listener.accept() {
                Ok(stream) => {
                    backoff = ACCEPT_BACKOFF_MIN;
                    stream
                }
                Err(e) if !state.draining.load(Ordering::SeqCst) => {
                    // Running out of descriptors (EMFILE under a connection
                    // flood) or an aborted handshake is transient: the
                    // workers' deadlines free descriptors again. Back off and
                    // retry instead of ending the daemon.
                    if state.log {
                        eprintln!("serve: accept: {e}; retrying in {backoff:?}");
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    continue;
                }
                Err(e) => {
                    state.queue.close();
                    state.reject.close();
                    return Err(format!("accept: {e}"));
                }
            };
            if state.draining.load(Ordering::SeqCst) {
                // The drain wake-up self-connect, or a client racing the
                // drain: either way, no longer accepting.
                drop(stream);
                break;
            }
            if let Some(timeout) = state.timeout {
                let _ = tiny_http::set_stream_deadlines(&stream, timeout);
            }
            if let Err((stream, refusal)) = state.queue.push(stream) {
                // Divert to the rejection lane; if even that is full, the
                // socket is dropped on the floor (hard close).
                let _ = state.reject.push((stream, refusal));
            }
        }

        // Drain: workers finish the current and queued requests (the rejector
        // flushes its lane likewise); we wait up to the deadline, then report
        // whatever still hadn't finished.
        state.queue.close();
        state.reject.close();
        let wait_started = Instant::now();
        let deadline = Duration::from_millis(self.drain_ms);
        while alive.load(Ordering::SeqCst) > 0 && wait_started.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let abandoned = state.queue.depth() as u64
            + state.reject.depth() as u64
            + state.metrics.busy.load(Ordering::SeqCst);
        Ok(DrainSummary {
            served: state.metrics.total.load(Ordering::SeqCst),
            rejected: state.metrics.rejected_503.load(Ordering::SeqCst),
            abandoned,
            drain_wait_ms: wait_started.elapsed().as_millis() as u64,
            uptime_ms: state.metrics.started.elapsed().as_millis() as u64,
        })
    }
}

/// Start one of [`SweepServer::serve_forever`]'s threads and keep its handle in
/// `threads`. If the host refuses (out of threads or memory), close both
/// queues — nothing was accepted yet, so every thread in `threads` exits at
/// once — join them, and say how many workers had started.
fn start_thread(
    state: &ServeState,
    threads: &mut Vec<std::thread::JoinHandle<()>>,
    body: impl FnOnce() + Send + 'static,
) -> Result<(), String> {
    match std::thread::Builder::new().spawn(body) {
        Ok(thread) => {
            threads.push(thread);
            Ok(())
        }
        Err(e) => {
            state.queue.close();
            state.reject.close();
            let workers = threads.len().min(state.workers);
            for thread in threads.drain(..) {
                let _ = thread.join();
            }
            Err(format!(
                "could not start a daemon thread ({e}); {workers} of {} workers had started",
                state.workers
            ))
        }
    }
}

/// Estimate how long a rejected client should wait before retrying: the work
/// ahead of it (busy workers + queued sockets + itself) times the mean request
/// wall, spread over the worker pool. Clamped to `1..=60` seconds; 1s before
/// any request has completed.
fn retry_after_secs(state: &ServeState) -> u64 {
    let busy = state.metrics.busy.load(Ordering::SeqCst);
    let queued = state.queue.depth() as u64;
    let ewma_micros = state.metrics.ewma_request_micros.load(Ordering::SeqCst);
    let per_request_ms = if ewma_micros == 0 {
        1_000
    } else {
        (ewma_micros / 1_000).max(1)
    };
    let outstanding = busy + queued + 1;
    let workers = state.workers.max(1) as u64;
    (outstanding * per_request_ms)
        .div_ceil(workers * 1_000)
        .clamp(1, 60)
}

/// Rejection-lane handling: answer a refused socket `503` with retry guidance.
/// The request is read (and discarded) first — closing a socket with unread
/// request bytes makes the kernel reset the connection, and a reset client
/// may never see the 503 it should be honoring. Runs on the dedicated
/// rejector thread; the socket's deadlines bound how long a slow sender can
/// hold it.
fn reject_busy(state: &ServeState, mut stream: TcpStream, refusal: &QueueRefusal) {
    state.metrics.rejected_503.fetch_add(1, Ordering::SeqCst);
    let body = match refusal {
        QueueRefusal::Full => "server at capacity; retry later\n",
        QueueRefusal::Closed => "draining\n",
    };
    state.metrics.record("<rejected>", 503);
    {
        let mut reader = BufReader::new(&mut stream);
        let _ = Request::read_from(&mut reader);
    }
    let retry = retry_after_secs(state);
    let _ = text_response(503, body)
        .with_header("Retry-After", &retry.to_string())
        .write_to(&mut stream);
    if state.log {
        eprintln!("serve: <rejected> -> 503 (Retry-After: {retry} s)");
    }
}

/// Read one request, route it, write one response; errors end the connection.
fn handle_connection(state: &ServeState, mut stream: TcpStream) {
    let started = Instant::now();
    let request = {
        let mut reader = BufReader::new(&mut stream);
        Request::read_from(&mut reader)
    };
    let (label, raw, status) = match request {
        Err(e) if tiny_http::is_timeout(&e) => {
            // The connection idled past --timeout-ms mid-request: reap it
            // with a 408 so the worker is immediately reusable.
            let _ = text_response(408, "request read timed out\n").write_to(&mut stream);
            ("<timeout>", None, 408)
        }
        Err(e) => {
            let _ = text_response(400, &format!("malformed request: {e}\n")).write_to(&mut stream);
            ("<malformed>", None, 400)
        }
        Ok(request) => {
            // A write error means the client vanished mid-response (even
            // mid-head): account it like any other abandoned exchange.
            let status = route(state, &request, &mut stream).unwrap_or(STATUS_CLIENT_GONE);
            // The log line keeps the raw method and path.
            let raw = state
                .log
                .then(|| format!("{} {}", request.method, request.path()));
            (endpoint_label(&request.method, request.path()), raw, status)
        }
    };
    state.metrics.record(label, status);
    if state.log {
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let shown = raw.as_deref().unwrap_or(label);
        eprintln!("serve: {shown} -> {status} ({ms:.1} ms)");
    }
}

/// The `/metrics` label of a routed request: `"{method} {path}"` for `GET` and
/// `POST` on the four endpoints, `<unknown>` for any other method or path. The
/// method and path are client bytes (a request head may be 64 KiB), so they
/// never become a label of their own.
fn endpoint_label(method: &str, path: &str) -> &'static str {
    const LABELS: [&str; 8] = [
        "GET /healthz",
        "GET /metrics",
        "GET /run",
        "GET /scenarios",
        "POST /healthz",
        "POST /metrics",
        "POST /run",
        "POST /scenarios",
    ];
    LABELS
        .into_iter()
        .find(|label| label.split_once(' ') == Some((method, path)))
        .unwrap_or("<unknown>")
}

/// Dispatch one parsed request. Returns the response status for logging; an `Err`
/// means the client vanished mid-write (nothing to do but log).
fn route(state: &ServeState, request: &Request, stream: &mut TcpStream) -> std::io::Result<u16> {
    if let Some(key) = request.duplicate_query_key() {
        // Same rule as the CLI's repeated flags: two values for one knob is a
        // contradiction to surface, not an ordering puzzle to guess at.
        text_response(400, &format!("duplicate query parameter '{key}'\n")).write_to(stream)?;
        return Ok(400);
    }
    match (request.method.as_str(), request.path()) {
        ("GET", "/healthz") => {
            if state.draining.load(Ordering::SeqCst) {
                text_response(503, "draining\n").write_to(stream)?;
                Ok(503)
            } else {
                text_response(200, "ok\n").write_to(stream)?;
                Ok(200)
            }
        }
        ("GET", "/scenarios") => {
            let names = Value::Seq(
                Registry::builtin()
                    .names()
                    .into_iter()
                    .map(|n| Value::Str(n.to_string()))
                    .collect(),
            );
            #[expect(
                clippy::expect_used,
                reason = "the vendored JSON writer is total for string sequences"
            )]
            let mut body = serde_json::to_string(&names).expect("name list serializes");
            body.push('\n');
            Response::new(200)
                .with_body("application/json", body.into_bytes())
                .write_to(stream)?;
            Ok(200)
        }
        ("GET", "/metrics") => {
            let mut body = metrics_json(state);
            body.push('\n');
            Response::new(200)
                .with_body("application/json", body.into_bytes())
                .write_to(stream)?;
            Ok(200)
        }
        ("POST", "/run") => handle_run(state, request, stream),
        (_, "/healthz" | "/scenarios" | "/metrics") => {
            text_response(405, "method not allowed\n")
                .with_header("Allow", "GET")
                .write_to(stream)?;
            Ok(405)
        }
        (_, "/run") => {
            text_response(405, "method not allowed\n")
                .with_header("Allow", "POST")
                .write_to(stream)?;
            Ok(405)
        }
        (_, path) => {
            text_response(404, &format!("no such endpoint: {path}\n")).write_to(stream)?;
            Ok(404)
        }
    }
}

/// Render the `GET /metrics` document (schema v1, compact JSON, sorted
/// per-endpoint keys — byte-stable given equal counters).
#[expect(
    clippy::expect_used,
    reason = "the vendored JSON writer is total for this composed document"
)]
fn metrics_json(state: &ServeState) -> String {
    let m = &state.metrics;
    let (memo_entries, memo_bytes, memo_hits) = state.memo.stats();
    let mut by_endpoint: Vec<(String, Value)> = Vec::new();
    for ((label, status), count) in unpoisoned(m.requests.lock()).iter() {
        let entry = (status.to_string(), Value::U64(*count));
        match by_endpoint.last_mut() {
            Some((last, Value::Map(statuses))) if last == label => statuses.push(entry),
            _ => by_endpoint.push((label.to_string(), Value::Map(vec![entry]))),
        }
    }
    let doc = Value::Map(vec![
        (
            "schema_version".to_string(),
            Value::U64(METRICS_SCHEMA_VERSION),
        ),
        (
            "uptime_ms".to_string(),
            Value::U64(m.started.elapsed().as_millis() as u64),
        ),
        (
            "draining".to_string(),
            Value::Bool(state.draining.load(Ordering::SeqCst)),
        ),
        (
            "workers".to_string(),
            Value::Map(vec![
                ("configured".to_string(), Value::U64(state.workers as u64)),
                (
                    "busy".to_string(),
                    Value::U64(m.busy.load(Ordering::SeqCst)),
                ),
                (
                    "queue_depth".to_string(),
                    Value::U64(state.queue.depth() as u64),
                ),
                (
                    "queue_capacity".to_string(),
                    Value::U64(state.queue.capacity as u64),
                ),
                (
                    "rejected_503".to_string(),
                    Value::U64(m.rejected_503.load(Ordering::SeqCst)),
                ),
            ]),
        ),
        (
            "pool".to_string(),
            Value::Map(vec![
                (
                    "permits_in_use".to_string(),
                    Value::U64(state.pool.permits_in_use() as u64),
                ),
                (
                    "permits_total".to_string(),
                    Value::U64(state.pool.permits_total() as u64),
                ),
                (
                    "mem_entries".to_string(),
                    Value::U64(state.pool.mem_entries() as u64),
                ),
                (
                    "flights_in_progress".to_string(),
                    Value::U64(state.pool.flights_in_progress() as u64),
                ),
            ]),
        ),
        (
            "requests".to_string(),
            Value::Map(vec![
                (
                    "total".to_string(),
                    Value::U64(m.total.load(Ordering::SeqCst)),
                ),
                ("by_endpoint".to_string(), Value::Map(by_endpoint)),
            ]),
        ),
        (
            "cache".to_string(),
            Value::Map(vec![
                (
                    "hits".to_string(),
                    Value::U64(m.cache_hits.load(Ordering::SeqCst)),
                ),
                (
                    "misses".to_string(),
                    Value::U64(m.cache_misses.load(Ordering::SeqCst)),
                ),
                (
                    "recomputed".to_string(),
                    Value::U64(m.cache_recomputed.load(Ordering::SeqCst)),
                ),
                (
                    "units_served".to_string(),
                    Value::U64(m.units_served.load(Ordering::SeqCst)),
                ),
            ]),
        ),
        (
            "memo".to_string(),
            Value::Map(vec![
                ("entries".to_string(), Value::U64(memo_entries as u64)),
                ("bytes".to_string(), Value::U64(memo_bytes as u64)),
                ("hits".to_string(), Value::U64(memo_hits)),
            ]),
        ),
    ]);
    serde_json::to_string(&doc).expect("metrics document serializes")
}

/// `POST /run`: answer a memoized repeat from the response memo; otherwise
/// compile the spec in the body, execute it on the shared pool, and answer with
/// the artifact (fixed body) or a progress stream (`?progress=1`).
fn handle_run(
    state: &ServeState,
    request: &Request,
    stream: &mut TcpStream,
) -> std::io::Result<u16> {
    let (seed, progress) = match parse_query(state, request) {
        Ok(query) => query,
        Err(message) => return bad_request(stream, &message),
    };
    let memo_key = (!progress).then(|| MemoKey {
        seed,
        body: Arc::from(request.body.as_slice()),
    });
    if let Some(entry) = memo_key.as_ref().and_then(|key| state.memo.get(key)) {
        state
            .metrics
            .record_run_accounting(entry.units, &all_hits(entry.units));
        send(stream, &entry.response)?;
        return Ok(200);
    }
    let spec = match parse_body(request) {
        Ok(spec) => spec,
        Err(message) => return bad_request(stream, &message),
    };
    let scenario = spec.into_scenario();
    let plan = scenario.plan(&SeedPolicy::new(seed));
    let units = plan.unit_count();

    if let Some(memo_key) = memo_key {
        // Artifact mode, the one that has a memo key: between units, probe the
        // socket so a vanished client stops costing compute. The probe is
        // serialized by a mutex because it briefly flips the socket
        // non-blocking, and it never runs concurrently with the response write
        // (which happens after the run).
        let probe_stream = stream.try_clone().ok().map(Mutex::new);
        let gone = AtomicBool::new(false);
        let cancel = || {
            if gone.load(Ordering::SeqCst) {
                return true;
            }
            let Some(lock) = &probe_stream else {
                return false;
            };
            let probe = unpoisoned(lock.lock());
            if tiny_http::client_disconnected(&probe) {
                gone.store(true, Ordering::SeqCst);
                return true;
            }
            false
        };
        let hooks = RunHooks {
            cancel: Some(&cancel),
            ..RunHooks::default()
        };
        let outcome = state.pool.run(vec![plan], state.cache.as_ref(), &hooks);
        return match outcome {
            Err(RunError::Cancelled) => {
                // The client is gone; there is nobody to answer.
                Ok(STATUS_CLIENT_GONE)
            }
            Err(err @ (RunError::Store(_) | RunError::UnitPanicked { .. })) => {
                text_response(500, &format!("{err}\n")).write_to(stream)?;
                Ok(500)
            }
            Ok(mut outcomes) => {
                #[expect(clippy::expect_used, reason = "one plan in, one outcome out")]
                let outcome = outcomes.pop().expect("one plan produces one outcome");
                let units = units as u64;
                state.metrics.record_run_accounting(units, &outcome.cache);
                // The body is exactly what `run --spec FILE --seed S` prints:
                // accounting travels in headers so the artifact stays pristine.
                let response = Response::new(200)
                    .with_header("X-Pim-Units", &units.to_string())
                    .with_header("X-Pim-Cache-Hits", &outcome.cache.hits.to_string())
                    .with_header("X-Pim-Cache-Misses", &outcome.cache.misses.to_string())
                    .with_header(
                        "X-Pim-Cache-Recomputed",
                        &outcome.cache.recomputed.to_string(),
                    )
                    .with_body("application/json", outcome.report.to_json().into_bytes())
                    .to_bytes();
                send(stream, &response)?;
                // Only an all-hit run is memoized: a repeat of it would be all
                // hits too, so the memo replays the exact bytes the pipeline
                // would send. A run that computed anything stays out.
                if outcome.cache == all_hits(units) {
                    state.memo.admit(memo_key, MemoEntry { units, response });
                }
                Ok(200)
            }
        };
    }

    // Progress mode: a chunked ndjson stream. Events during execution, then the
    // accounting and the artifact (compact) as the final two events. A dead
    // stream (chunk write failure) doubles as the cancellation signal: the
    // socket itself cannot be probed here, because the chunked writer owns it
    // and probes would race in-flight chunk frames.
    let sink = ProgressSink {
        writer: Mutex::new(ChunkedWriter::begin(
            &mut *stream,
            200,
            &[("Content-Type", "application/x-ndjson")],
        )?),
        dead: AtomicBool::new(false),
    };
    emit(
        &sink,
        &[
            ("event", Value::Str("start".into())),
            ("scenario", Value::Str(scenario.name().to_string())),
            ("units", Value::U64(units as u64)),
        ],
    );
    let on_unit = |done: usize, total: usize| {
        emit(
            &sink,
            &[
                ("event", Value::Str("unit".into())),
                ("done", Value::U64(done as u64)),
                ("units", Value::U64(total as u64)),
            ],
        );
    };
    let cancel = || sink.dead.load(Ordering::SeqCst);
    let hooks = RunHooks {
        progress: Some(&on_unit),
        cancel: Some(&cancel),
    };
    let outcome = state.pool.run(vec![plan], state.cache.as_ref(), &hooks);
    match outcome {
        Err(RunError::Cancelled) => {
            // The progress client hung up; nothing to finish.
            return Ok(STATUS_CLIENT_GONE);
        }
        Err(err @ (RunError::Store(_) | RunError::UnitPanicked { .. })) => {
            emit(
                &sink,
                &[
                    ("event", Value::Str("error".into())),
                    ("message", Value::Str(err.to_string())),
                ],
            );
        }
        Ok(mut outcomes) => {
            #[expect(clippy::expect_used, reason = "one plan in, one outcome out")]
            let outcome = outcomes.pop().expect("one plan produces one outcome");
            state
                .metrics
                .record_run_accounting(units as u64, &outcome.cache);
            emit(
                &sink,
                &[
                    ("event", Value::Str("done".into())),
                    ("hits", Value::U64(outcome.cache.hits)),
                    ("misses", Value::U64(outcome.cache.misses)),
                    ("recomputed", Value::U64(outcome.cache.recomputed)),
                ],
            );
            emit(
                &sink,
                &[
                    ("event", Value::Str("report".into())),
                    ("artifact", outcome.report.to_value()),
                ],
            );
        }
    }
    unpoisoned(sink.writer.into_inner()).finish()?;
    Ok(200)
}

/// A `POST /run` query: the resolved seed and whether progress streams.
fn parse_query(state: &ServeState, request: &Request) -> Result<(u64, bool), String> {
    let seed = match request.query_value("seed") {
        None => state.base_seed,
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("?seed= expects an integer, got '{raw}'"))?,
    };
    let progress = match request.query_value("progress").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("?progress= expects 0 or 1, got '{other}'")),
    };
    Ok((seed, progress))
}

/// A `POST /run` body: one validated spec document.
fn parse_body(request: &Request) -> Result<crate::spec::ScenarioSpec, String> {
    let body =
        std::str::from_utf8(&request.body).map_err(|_| "request body is not UTF-8".to_string())?;
    parse_spec(body)
}

/// The accounting of a run whose `units` were all hits.
fn all_hits(units: u64) -> CacheCounts {
    CacheCounts {
        hits: units,
        ..CacheCounts::default()
    }
}

fn bad_request(stream: &mut TcpStream, message: &str) -> std::io::Result<u16> {
    text_response(400, &format!("{message}\n")).write_to(stream)?;
    Ok(400)
}

/// Write a complete, pre-rendered response.
fn send(stream: &mut TcpStream, response: &[u8]) -> std::io::Result<()> {
    stream.write_all(response)?;
    stream.flush()
}

/// The progress stream plus its liveness flag: a failed chunk write marks the
/// stream dead, which the run's cancellation probe observes.
struct ProgressSink<'s> {
    writer: Mutex<ChunkedWriter<&'s mut TcpStream>>,
    dead: AtomicBool,
}

/// Write one compact-JSON event line to the shared chunked writer. Write errors
/// mark the sink dead (the client is gone) but never poison the computation,
/// which other waiters may be deduplicating against.
fn emit(sink: &ProgressSink<'_>, fields: &[(&str, Value)]) {
    let event = Value::Map(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    );
    let Ok(mut line) = serde_json::to_string(&event) else {
        return;
    };
    line.push('\n');
    let mut writer = unpoisoned(sink.writer.lock());
    if writer.chunk(line.as_bytes()).is_err() {
        sink.dead.store(true, Ordering::SeqCst);
    }
}

fn text_response(status: u16, body: &str) -> Response {
    Response::new(status).with_body("text/plain; charset=utf-8", body.as_bytes().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64, body: &str) -> MemoKey {
        MemoKey {
            seed,
            body: Arc::from(body.as_bytes()),
        }
    }

    fn entry(bytes: usize) -> MemoEntry {
        MemoEntry {
            units: 1,
            response: vec![b'x'; bytes],
        }
    }

    #[test]
    fn memo_evicts_first_in_first_out_within_its_budget() {
        // Each entry costs 8 (seed) + 1 (body) + 91 (response) = 100 bytes.
        let memo = ResponseMemo::new(300);
        for body in ["a", "b", "c"] {
            memo.admit(key(0, body), entry(91));
        }
        assert_eq!(memo.stats(), (3, 300, 0));
        // A hit does not refresh an entry: eviction is by admission order.
        assert!(memo.get(&key(0, "a")).is_some());
        memo.admit(key(0, "d"), entry(91));
        assert!(memo.get(&key(0, "a")).is_none(), "oldest entry survived");
        for body in ["b", "c", "d"] {
            assert!(memo.get(&key(0, body)).is_some(), "{body} was evicted");
        }
        // A twice-as-large entry evicts the two oldest.
        memo.admit(key(0, "e"), entry(191));
        assert!(memo.get(&key(0, "b")).is_none());
        assert!(memo.get(&key(0, "c")).is_none());
        assert_eq!(memo.stats().0, 2);
        assert_eq!(memo.stats().1, 300);
    }

    #[test]
    fn memo_keeps_the_first_twin_and_refuses_an_entry_over_budget() {
        let memo = ResponseMemo::new(100);
        memo.admit(key(0, "a"), entry(10));
        memo.admit(key(0, "a"), entry(20));
        assert_eq!(memo.stats(), (1, 19, 0));
        memo.admit(key(0, "b"), entry(92));
        assert!(
            memo.get(&key(0, "b")).is_none(),
            "an entry over budget was stored"
        );
        assert!(
            memo.get(&key(0, "a")).is_some(),
            "a refused entry evicted others"
        );
    }
}
