//! # dctstream-serve
//!
//! The multi-tenant estimation daemon: `dctstream serve DIR --listen
//! ADDR` keeps a write-ahead-logged [`ShardedRegistry`] open and answers
//! estimate queries over plain HTTP/1.1 (std `TcpListener`, no
//! dependencies) **while ingest keeps running**. By default the
//! registry is `DIR` itself as the only shard, with no follower (the
//! layout of a lone [`dctstream_stream::GroupDurable`] registry);
//! `--shards N`, or a `DIR` holding a fleet manifest, serves a fleet.
//!
//! The concurrency design is the point of the crate:
//!
//! - **Writers** check every row against the stream's registered shape,
//!   then append through each shard's group-commit durable registry —
//!   the one place that takes a registry lock. An ingest request is
//!   acked only after its WAL records are fsynced (one group fsync per
//!   touched shard, shared with concurrent writers).
//! - After every `publish_every` applied updates (and on register /
//!   checkpoint / startup), the write side flushes the batch buffers
//!   and **publishes** an immutable epoch-stamped
//!   [`RegistrySnapshot`] into a [`SnapshotCell`].
//! - **Readers** estimate against the published snapshot: no registry
//!   lock, no mutation, no waiting on ingest. Every answer carries the
//!   snapshot's epoch and its staleness (`records_behind`,
//!   `gross_weight_behind`) so clients know exactly what they read, and
//!   a `degraded` entry for each participant the snapshot answered from
//!   a checkpoint substitute because its stream is quarantined.
//! - With several shards, what the daemon publishes is a merged capture
//!   of every shard, carrying the dead shards its followers answered
//!   for. A kill, promotion, shipping round or quarantine moves the
//!   registry's generation, and the next reader republishes before
//!   answering, so no answer misses one.
//!
//! Tenancy is by namespace: stream names are `TENANT/STREAM`, and every
//! endpoint takes a `tenant` parameter (default `default`) that scopes
//! the streams it may touch. Admission control is a bounded connection
//! queue in front of a fixed worker pool: when the queue is full the
//! daemon answers `503 Service Unavailable` immediately instead of
//! accepting unboundedly.
//!
//! See `DESIGN.md` §12 for the wire protocol and the epoch/publish
//! rules.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod http;

use dctstream_core::{CosineSynopsis, DctError, Domain, Grid, MultiDimSynopsis};
use dctstream_stream::{
    ChainJoinQuery, FleetOptions, Progress, RecoveryOptions, RecoveryReport, RegistrySnapshot,
    ShardStaleness, ShardedRegistry, SnapshotCell, StreamStaleness, Summary,
};
use http::{json_escape, respond, Request, Status};
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Pending-connection queue depth; beyond it, new connections are
    /// answered `503` and closed (backpressure, not unbounded accept).
    pub queue_depth: usize,
    /// Applied updates between snapshot publishes. Lower = fresher
    /// reads, higher = less copying. Registers and checkpoints always
    /// publish immediately.
    pub publish_every: u64,
    /// Buffered-mode flush threshold for the underlying registry.
    pub flush_threshold: Option<usize>,
    /// Write a checkpoint during graceful shutdown (skipped by
    /// [`Server::kill`] either way).
    pub checkpoint_on_shutdown: bool,
    /// Shards of a new fleet. `0` (default) serves the data directory
    /// itself as the only shard of a root registry, with no follower
    /// ([`ShardedRegistry::open_root`]). `N ≥ 1` creates a fleet of `N`
    /// shards with warm followers under the data directory: ingest
    /// hash-routes across shards, the daemon publishes merged captures
    /// (coefficient vectors summed across shards) on the same
    /// `publish_every` schedule, and answers carry a `degraded` list
    /// attributing follower-substituted shards. A directory that
    /// already holds a fleet manifest reopens as that fleet either way.
    pub shards: usize,
    /// Per-request deadline in milliseconds: one request (header block
    /// plus body) must fully arrive within it. A plain per-read socket
    /// timeout resets on every byte, so a client trickling one byte at
    /// a time (slowloris) would pin a worker forever; the deadline cuts
    /// the connection off instead. `0` disables the deadline.
    pub request_timeout_ms: u64,
    /// Capacity of the epoch-keyed estimate result cache (entries).
    /// Repeated estimate/chain queries between publishes are answered
    /// from the cache; any epoch advance invalidates it wholesale.
    /// `0` disables caching. Fleet daemons cache the same way: their
    /// answers read the published merged snapshot too.
    pub estimate_cache: usize,
    /// Per-tenant fair admission. When on, a worker that finishes a
    /// request while other connections are queued re-enqueues its
    /// keep-alive connection instead of monopolizing itself on it
    /// (round-robin across connections), and each tenant is limited to
    /// [`ServeOptions::tenant_quota`] in-flight requests — beyond it
    /// the request is answered `429 Too Many Requests` immediately.
    pub fair_admission: bool,
    /// Per-tenant in-flight request quota under fair admission.
    /// `0` = auto: `max(1, workers − 1)`, so one tenant can never hold
    /// every worker at once.
    pub tenant_quota: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            queue_depth: 64,
            publish_every: 1024,
            flush_threshold: None,
            checkpoint_on_shutdown: true,
            shards: 0,
            request_timeout_ms: 5000,
            estimate_cache: 1024,
            fair_admission: true,
            tenant_quota: 0,
        }
    }
}

/// What a graceful [`Server::shutdown`] did.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Events the registry had absorbed at shutdown.
    pub events: u64,
    /// The last published snapshot epoch.
    pub epoch: u64,
    /// Final-checkpoint outcome: `None` = disabled by options,
    /// `Some(Ok(retired))` = wrote a manifest retiring that many WAL
    /// segments, `Some(Err(msg))` = refused/failed (e.g. quarantined
    /// streams) — the daemon still shuts down.
    pub checkpoint: Option<std::result::Result<usize, String>>,
}

type Result<T> = std::result::Result<T, DctError>;

/// One admitted connection: the buffered read side and the write side
/// travel together so a connection can be re-enqueued between requests
/// (fair admission) without losing bytes the reader already buffered —
/// a pipelined client's next request may be sitting in that buffer.
#[derive(Debug)]
struct Conn {
    reader: BufReader<DeadlineStream>,
    writer: TcpStream,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Conn> {
        let reader = BufReader::new(DeadlineStream::new(stream.try_clone()?));
        Ok(Conn {
            reader,
            writer: stream,
        })
    }
}

/// Bounded handoff between the accept loop and the worker pool.
#[derive(Debug)]
struct ConnQueue {
    inner: Mutex<VecDeque<Conn>>,
    cv: Condvar,
    depth: usize,
}

impl ConnQueue {
    fn new(depth: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            depth: depth.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Conn>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue a fresh connection, or hand it back when the queue is
    /// full (admission control).
    fn push(&self, conn: Conn) -> std::result::Result<(), Conn> {
        let mut q = self.lock();
        if q.len() >= self.depth {
            return Err(conn);
        }
        q.push_back(conn);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Re-enqueue an already-admitted connection between requests (fair
    /// admission round-robin). Never bounces: admission was decided at
    /// accept time, so the depth cap does not apply.
    fn requeue(&self, conn: Conn) {
        let mut q = self.lock();
        q.push_back(conn);
        drop(q);
        self.cv.notify_one();
    }

    /// Whether any connection is waiting (the fair-admission contention
    /// signal; momentary by design).
    fn has_waiters(&self) -> bool {
        !self.lock().is_empty()
    }

    /// Dequeue; `None` once `shutdown` is set and the queue is empty.
    fn pop(&self, shutdown: &AtomicBool) -> Option<Conn> {
        let mut q = self.lock();
        loop {
            if let Some(conn) = q.pop_front() {
                return Some(conn);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
        }
    }
}

/// The epoch-keyed estimate result cache: answers to estimate/chain
/// queries are valid exactly until the next snapshot publish, so the
/// cache stores `(publish epoch, canonical query key) → estimate` and
/// an epoch advance invalidates everything at once. Keys embed the
/// tenant (stream names are qualified `TENANT/STREAM` before keying),
/// so tenants can never observe each other's entries.
#[derive(Debug)]
struct EstimateCache {
    /// Max entries per epoch; `0` disables the cache entirely.
    cap: usize,
    inner: Mutex<CacheGeneration>,
}

#[derive(Debug, Default)]
struct CacheGeneration {
    epoch: u64,
    map: std::collections::HashMap<String, f64>,
}

impl EstimateCache {
    fn new(cap: usize) -> Self {
        EstimateCache {
            cap,
            inner: Mutex::new(CacheGeneration::default()),
        }
    }

    fn enabled(&self) -> bool {
        self.cap > 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheGeneration> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A cached answer computed at exactly `epoch`, if any. Seeing a
    /// *newer* epoch rotates the generation (wholesale invalidation);
    /// an *older* epoch — a racing reader that loaded a snapshot just
    /// before a publish — bypasses the cache rather than resurrecting
    /// entries.
    fn lookup(&self, epoch: u64, key: &str) -> Option<f64> {
        if !self.enabled() {
            return None;
        }
        let mut g = self.lock();
        if epoch > g.epoch {
            g.epoch = epoch;
            g.map.clear();
            return None;
        }
        if epoch < g.epoch {
            return None;
        }
        g.map.get(key).copied()
    }

    /// Remember an answer computed against the snapshot of `epoch`.
    /// A newer epoch rotates the generation (same rule as `lookup`);
    /// an answer from an epoch the cache already rotated past is stale
    /// by construction and dropped, as is any insert beyond the cap.
    fn insert(&self, epoch: u64, key: String, value: f64) {
        if !self.enabled() {
            return;
        }
        let mut g = self.lock();
        if epoch > g.epoch {
            g.epoch = epoch;
            g.map.clear();
        }
        if g.epoch == epoch && g.map.len() < self.cap {
            g.map.insert(key, value);
        }
    }
}

/// Per-tenant in-flight accounting for fair admission: each tenant may
/// hold at most `quota` requests in flight; beyond it the request is
/// answered `429` without touching the registry, so a hot tenant's
/// burst cannot occupy every worker.
#[derive(Debug)]
struct TenantGov {
    /// `0` = quotas disabled.
    quota: usize,
    inflight: Mutex<std::collections::HashMap<String, usize>>,
}

impl TenantGov {
    fn new(quota: usize) -> Self {
        TenantGov {
            quota,
            inflight: Mutex::new(std::collections::HashMap::new()),
        }
    }

    fn enabled(&self) -> bool {
        self.quota > 0
    }

    /// Try to admit one request for `tenant`.
    fn try_acquire(&self, tenant: &str) -> bool {
        let mut g = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        let n = g.entry(tenant.to_string()).or_insert(0);
        if *n >= self.quota {
            return false;
        }
        *n += 1;
        true
    }

    fn release(&self, tenant: &str) {
        let mut g = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(n) = g.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                g.remove(tenant);
            }
        }
    }
}

/// RAII release of one tenant's in-flight slot.
struct TenantSlot<'a> {
    gov: &'a TenantGov,
    tenant: String,
}

impl Drop for TenantSlot<'_> {
    fn drop(&mut self) {
        self.gov.release(&self.tenant);
    }
}

/// Shared daemon state: the durable registry (write side), the snapshot
/// cell (read side), and the live-progress counters tying them together.
#[derive(Debug)]
struct ServerState {
    registry: ShardedRegistry,
    cell: SnapshotCell,
    progress: Progress,
    since_publish: AtomicU64,
    publish_every: u64,
    request_timeout: Option<Duration>,
    shutdown: AtomicBool,
    queue: ConnQueue,
    cache: EstimateCache,
    governor: TenantGov,
    /// Fair-admission round-robin: workers requeue keep-alive
    /// connections between requests while others wait.
    fair: bool,
    /// Connections currently held by a worker (readiness signal for
    /// tests and ops; a requeued connection is not active).
    active: AtomicU64,
}

impl ServerState {
    /// Flush and publish a fresh snapshot under a new epoch.
    fn publish_now(&self) -> Result<Arc<RegistrySnapshot>> {
        let epoch = self.cell.next_epoch();
        let snap = Arc::new(self.registry.capture_merged_at(epoch)?.0);
        self.cell.store(Arc::clone(&snap));
        self.since_publish.store(0, Ordering::SeqCst);
        Ok(snap)
    }
}

/// A running daemon. Start with [`Server::start`]; stop with
/// [`Server::shutdown`] (graceful: drain, final publish, checkpoint) or
/// [`Server::kill`] (abandon, simulating a crash — the WAL crash
/// harness's entry point).
#[derive(Debug)]
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Open (or recover) the registry under `dir` and start serving on
    /// `listen` (e.g. `127.0.0.1:0` for an ephemeral port). Returns once
    /// the socket is bound and the recovery replay is complete.
    ///
    /// A directory holding a fleet manifest reopens as that fleet; with
    /// none, [`ServeOptions::shards`] `N ≥ 1` creates an `N`-shard fleet
    /// and `0` opens `dir` itself as a one-shard root registry.
    pub fn start(dir: &Path, listen: &str, opts: ServeOptions) -> Result<(Server, RecoveryReport)> {
        let fleet_opts = FleetOptions {
            recovery: RecoveryOptions {
                flush_threshold: opts.flush_threshold,
                ..RecoveryOptions::default()
            },
            ..FleetOptions::default()
        };
        let fleet_manifest = dir.join(dctstream_stream::shard::FLEET_MANIFEST_FILE);
        let (registry, report) = if fleet_manifest.is_file() || opts.shards > 0 {
            // The fleet's own open path drains shipping to parity and
            // re-anchors staleness, so the report here only reflects
            // that nothing needed replaying at this layer.
            let fleet = if fleet_manifest.is_file() {
                ShardedRegistry::open(dir, fleet_opts)?
            } else {
                ShardedRegistry::create(dir, opts.shards, fleet_opts)?
            };
            let report = RecoveryReport {
                checkpoint_events: 0,
                checkpoint_watermark: 0,
                replayed: 0,
                segments_scanned: 0,
                torn_tail: None,
                quarantined: Vec::new(),
                dropped: Vec::new(),
            };
            (fleet, report)
        } else {
            ShardedRegistry::open_root(dir, fleet_opts)?
        };
        let listener = TcpListener::bind(listen)
            .map_err(|e| DctError::InvalidParameter(format!("binding {listen}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| DctError::InvalidParameter(format!("resolving local addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| DctError::InvalidParameter(format!("nonblocking listener: {e}")))?;

        let state = Arc::new(ServerState {
            registry,
            cell: SnapshotCell::new(),
            progress: Progress::new(),
            since_publish: AtomicU64::new(0),
            publish_every: opts.publish_every.max(1),
            request_timeout: (opts.request_timeout_ms > 0)
                .then(|| Duration::from_millis(opts.request_timeout_ms)),
            shutdown: AtomicBool::new(false),
            queue: ConnQueue::new(opts.queue_depth),
            cache: EstimateCache::new(opts.estimate_cache),
            governor: TenantGov::new(if !opts.fair_admission {
                0
            } else if opts.tenant_quota > 0 {
                opts.tenant_quota
            } else {
                opts.workers.max(1).saturating_sub(1).max(1)
            }),
            fair: opts.fair_admission,
            active: AtomicU64::new(0),
        });
        // Publish epoch 1 so queries work before the first ingest, and
        // seed the progress mirror with the recovered totals it captured
        // so staleness stays a live-vs-snapshot delta after restarts.
        let first = state.publish_now()?;
        state.progress.raise_to(first.total_stats());

        let accept = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || accept_loop(&state, listener))
        };
        let workers = (0..opts.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        Ok((
            Server {
                state,
                addr,
                accept: Some(accept),
                workers,
            },
            report,
        ))
    }

    /// The bound address (useful with `--listen 127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the daemon to stop (also reachable as `POST /v1/shutdown`).
    /// Non-blocking; pair with [`Server::shutdown`].
    pub fn trigger_shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.queue.cv.notify_all();
    }

    /// Whether a shutdown has been requested (signal, endpoint, or
    /// [`Self::trigger_shutdown`]).
    pub fn is_stopping(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// The last published snapshot epoch.
    pub fn published_epoch(&self) -> u64 {
        self.state.cell.published_epoch()
    }

    /// Connections currently held by a worker (a requeued fair-admission
    /// connection is *not* active while it waits). Tests poll this for
    /// readiness instead of sleeping.
    pub fn active_connections(&self) -> u64 {
        self.state.active.load(Ordering::SeqCst)
    }

    fn stop_threads(&mut self) {
        self.trigger_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: stop accepting, drain queued connections,
    /// join the workers, then checkpoint (per
    /// [`ServeOptions::checkpoint_on_shutdown`]) so a restart replays
    /// nothing.
    pub fn shutdown(mut self, checkpoint: bool) -> ShutdownReport {
        self.stop_threads();
        let registry = &self.state.registry;
        let checkpoint = if checkpoint {
            Some(registry.checkpoint_all().map_err(|e| e.to_string()))
        } else {
            // Still make every applied record durable on disk.
            let _ = registry.publish_all();
            None
        };
        ShutdownReport {
            events: registry.events_processed(),
            epoch: self.state.cell.published_epoch(),
            checkpoint,
        }
    }

    /// Abandon the daemon without syncing or checkpointing — the
    /// crash-simulation path for the WAL fault harness. Acked ingest
    /// responses were fsynced before the ack, so exactly they survive.
    pub fn kill(mut self) {
        self.stop_threads();
        // Dropping the registry without sync() discards any unsynced
        // (therefore unacked) WAL buffer, like a real crash would.
    }

    /// Run `f` against the durable registry of a root daemon's one
    /// shard (tests and the CLI use this for assertions and
    /// maintenance), or `None` for a fleet — use [`Self::with_fleet`]
    /// there.
    pub fn with_registry<R>(
        &self,
        f: impl FnOnce(
            &mut dctstream_stream::DurableProcessor<
                dctstream_stream::SharedStorage<dctstream_stream::DirStorage>,
            >,
        ) -> R,
    ) -> Option<R> {
        let registry = &self.state.registry;
        if registry.has_followers() {
            return None;
        }
        registry.primary(0).ok().map(|gd| gd.with(f))
    }

    /// Run `f` against a fleet daemon's registry, or `None` for a root
    /// daemon (no followers).
    pub fn with_fleet<R>(&self, f: impl FnOnce(&ShardedRegistry) -> R) -> Option<R> {
        let registry = &self.state.registry;
        registry.has_followers().then(|| f(registry))
    }
}

fn accept_loop(state: &ServerState, listener: TcpListener) {
    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
                dctstream_obs::counter_add!("serve.accepted", 1);
                let Ok(conn) = Conn::new(stream) else {
                    continue; // try_clone failed: drop the connection
                };
                if let Err(mut rejected) = state.queue.push(conn) {
                    // Admission control: the pool is saturated and the
                    // queue is full. Fail fast with a retryable status
                    // instead of queueing unboundedly.
                    dctstream_obs::counter_add!("serve.rejected", 1);
                    let _ = send(
                        &mut rejected.writer,
                        Status::Unavailable,
                        "application/json",
                        "{\"error\":\"server saturated; retry\"}",
                        false,
                    );
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn worker_loop(state: &ServerState) {
    while let Some(mut conn) = state.queue.pop(&state.shutdown) {
        state.active.fetch_add(1, Ordering::SeqCst);
        let mut yield_back = false;
        loop {
            match serve_request(state, &mut conn) {
                Turn::Close => break,
                Turn::Continue => {
                    // Fair admission: if other connections are waiting,
                    // put this one back and pick up the next — FIFO
                    // round-robin across connections, so one hot
                    // keep-alive client cannot monopolize a worker.
                    if state.fair && state.queue.has_waiters() {
                        yield_back = true;
                        break;
                    }
                }
            }
        }
        state.active.fetch_sub(1, Ordering::SeqCst);
        if yield_back {
            dctstream_obs::counter_add!("serve.requeues", 1);
            state.queue.requeue(conn);
        }
    }
}

/// A [`TcpStream`] read side enforcing a per-request deadline. The
/// plain socket read timeout resets on every byte received, so a
/// slowloris client trickling one byte per interval holds a worker
/// forever; this wrapper re-arms the socket timeout to the time
/// *remaining* before each read, turning the per-read timeout into a
/// whole-request deadline.
#[derive(Debug)]
struct DeadlineStream {
    inner: TcpStream,
    deadline: Option<std::time::Instant>,
}

impl DeadlineStream {
    fn new(inner: TcpStream) -> Self {
        DeadlineStream {
            inner,
            deadline: None,
        }
    }

    /// Start (or restart) the clock for one request; `None` disables.
    fn arm(&mut self, timeout: Option<Duration>) {
        self.deadline = timeout.map(|t| std::time::Instant::now() + t);
    }
}

impl io::Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let remaining = deadline
                .checked_duration_since(std::time::Instant::now())
                .filter(|d| !d.is_zero())
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::TimedOut, "request deadline exceeded")
                })?;
            self.inner.set_read_timeout(Some(remaining))?;
        }
        match self.inner.read(buf) {
            // Unix reports an expired SO_RCVTIMEO as WouldBlock;
            // normalize so callers see one timeout kind.
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request deadline exceeded",
            )),
            other => other,
        }
    }
}

/// What the worker should do with the connection after one request.
enum Turn {
    /// Serve another request (keep-alive, or hand it back to the queue
    /// under fair admission).
    Continue,
    /// Close the connection (client done, error, timeout, shutdown).
    Close,
}

/// Serve exactly one request off the connection. The per-request
/// deadline is armed here, so a requeued connection gets a fresh clock
/// each time a worker picks it up.
fn serve_request(state: &ServerState, conn: &mut Conn) -> Turn {
    // Each request gets a fresh deadline; an idle keep-alive
    // connection past it is closed too, freeing the worker.
    conn.reader.get_mut().arm(state.request_timeout);
    let req = match http::read_request(&mut conn.reader) {
        Ok(Some(r)) => r,
        Ok(None) => return Turn::Close,
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            let body = format!("{{\"error\":\"{}\"}}", json_escape(&e.to_string()));
            let _ = send(
                &mut conn.writer,
                Status::BadRequest,
                "application/json",
                &body,
                false,
            );
            return Turn::Close;
        }
        Err(e) if e.kind() == io::ErrorKind::TimedOut => {
            dctstream_obs::counter_add!("serve.request_timeouts", 1);
            return Turn::Close; // half-sent request: cut the client off
        }
        Err(_) => return Turn::Close, // reset: just close
    };
    let _span = dctstream_obs::span!("serve.request");
    dctstream_obs::counter_add!("serve.requests", 1);
    let keep = req.keep_alive && !state.shutdown.load(Ordering::SeqCst);
    let (status, content_type, body) = route(state, &req);
    if status != Status::Ok {
        dctstream_obs::counter_add!("serve.request_errors", 1);
    }
    if send(&mut conn.writer, status, content_type, &body, keep).is_err() {
        return Turn::Close;
    }
    if keep {
        Turn::Continue
    } else {
        Turn::Close
    }
}

/// Write one response under the `serve.respond` span. Every daemon
/// answer goes through here — the routed ones, the 400 for an
/// unparseable request and the accept loop's 503 — so the histogram
/// times every socket write.
fn send(
    w: &mut TcpStream,
    status: Status,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let _span = dctstream_obs::span!("serve.respond");
    respond(w, status, content_type, body, keep_alive)
}

/// The routes a tenant quota meters: everything that does registry work
/// on behalf of one tenant. Control-plane routes (health, metrics,
/// fleet, checkpoint, shutdown) stay unmetered so operators keep
/// visibility into a saturated daemon.
fn metered(req: &Request) -> bool {
    matches!(
        req.path.as_str(),
        "/v1/register" | "/v1/ingest" | "/v1/estimate" | "/v1/chain" | "/v1/streams"
    )
}

/// Per-tenant admission: claim an in-flight slot for the request's
/// tenant, or refuse with `429`. Invalid tenant names skip metering —
/// the handler will reject them with `400` and they must not mint
/// metric labels.
fn admit<'a>(
    state: &'a ServerState,
    req: &Request,
) -> std::result::Result<Option<TenantSlot<'a>>, (Status, String)> {
    if !state.governor.enabled() || !metered(req) {
        return Ok(None);
    }
    let tenant = req.param("tenant").unwrap_or("default");
    if !valid_name(tenant) {
        return Ok(None);
    }
    // Dynamic label values must bypass the counter macros: the macros
    // cache one handle per call site, which would pin every increment
    // to the first tenant seen.
    dctstream_obs::global()
        .counter_with("serve.tenant_requests", &[("tenant", tenant)])
        .add(1);
    if !state.governor.try_acquire(tenant) {
        dctstream_obs::global()
            .counter_with("serve.tenant_throttled", &[("tenant", tenant)])
            .add(1);
        return Err((
            Status::TooManyRequests,
            format!(
                "tenant {tenant:?} is over its in-flight quota of {}; retry",
                state.governor.quota
            ),
        ));
    }
    Ok(Some(TenantSlot {
        gov: &state.governor,
        tenant: tenant.to_string(),
    }))
}

/// Dispatch one request. Never panics; every failure is a status + JSON
/// error body.
fn route(state: &ServerState, req: &Request) -> (Status, &'static str, String) {
    let _slot = match admit(state, req) {
        Ok(slot) => slot,
        Err((status, msg)) => {
            return (
                status,
                "application/json",
                format!("{{\"error\":\"{}\"}}", json_escape(&msg)),
            )
        }
    };
    let outcome = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => handle_health(state),
        ("GET", "/metrics") => return metrics_response(state),
        ("POST", "/v1/register") => handle_register(state, req),
        ("POST", "/v1/ingest") => handle_ingest(state, req),
        ("GET", "/v1/estimate") => handle_estimate(state, req),
        ("POST", "/v1/chain") => handle_chain(state, req),
        ("GET", "/v1/streams") => handle_streams(state, req),
        ("GET", "/v1/fleet") => handle_fleet_status(state),
        ("POST", "/v1/fleet/ship") => handle_fleet_ship(state),
        ("POST", "/v1/checkpoint") => handle_checkpoint(state),
        ("POST", "/v1/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            state.queue.cv.notify_all();
            Ok("{\"status\":\"stopping\"}".to_string())
        }
        (
            _,
            "/healthz" | "/metrics" | "/v1/register" | "/v1/ingest" | "/v1/estimate" | "/v1/chain"
            | "/v1/streams" | "/v1/fleet" | "/v1/fleet/ship" | "/v1/checkpoint" | "/v1/shutdown",
        ) => Err((
            Status::MethodNotAllowed,
            format!("method {} not allowed here", req.method),
        )),
        _ => Err((Status::NotFound, format!("no route {}", req.path))),
    };
    match outcome {
        Ok(body) => (Status::Ok, "application/json", body),
        Err((status, msg)) => (
            status,
            "application/json",
            format!("{{\"error\":\"{}\"}}", json_escape(&msg)),
        ),
    }
}

type Handled = std::result::Result<String, (Status, String)>;

fn usage(msg: impl Into<String>) -> (Status, String) {
    (Status::BadRequest, msg.into())
}

fn rejected(e: &DctError) -> (Status, String) {
    (Status::Unprocessable, e.to_string())
}

/// Validate a tenant or stream name: 1–64 chars of `[A-Za-z0-9_.-]`.
fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The tenant namespace: registry keys are `TENANT/STREAM`.
fn qualify(req: &Request, stream: &str) -> std::result::Result<String, (Status, String)> {
    let tenant = req.param("tenant").unwrap_or("default");
    if !valid_name(tenant) {
        return Err(usage(format!(
            "bad tenant {tenant:?}: use 1-64 chars of [A-Za-z0-9_.-]"
        )));
    }
    if !valid_name(stream) {
        return Err(usage(format!(
            "bad stream {stream:?}: use 1-64 chars of [A-Za-z0-9_.-]"
        )));
    }
    Ok(format!("{tenant}/{stream}"))
}

fn required<'a>(req: &'a Request, name: &str) -> std::result::Result<&'a str, (Status, String)> {
    req.param(name)
        .ok_or_else(|| usage(format!("missing required parameter '{name}'")))
}

fn parse_num<T: std::str::FromStr>(
    name: &str,
    raw: &str,
) -> std::result::Result<T, (Status, String)> {
    raw.parse::<T>()
        .map_err(|_| usage(format!("bad {name} {raw:?}")))
}

fn handle_health(state: &ServerState) -> Handled {
    let snap = state.cell.load();
    Ok(format!(
        "{{\"status\":\"ok\",\"epoch\":{},\"events\":{}}}",
        snap.epoch(),
        snap.events()
    ))
}

fn metrics_response(state: &ServerState) -> (Status, &'static str, String) {
    let mut snap = dctstream_obs::global().snapshot();
    // Every live shard keeps persistent counters in its own manifest;
    // export their sums.
    let mut counters = std::collections::BTreeMap::<String, u64>::new();
    for shard in 0..state.registry.shards() {
        if let Ok(gd) = state.registry.primary(shard) {
            gd.with(|dp| {
                for (name, value) in dp.persistent_counters() {
                    *counters.entry(name.clone()).or_default() += value;
                }
            });
        }
    }
    for (name, value) in counters {
        // Manifest keys carry `_total`; strip it so the Prometheus
        // renderer does not emit a doubled suffix.
        let name = name.strip_suffix("_total").unwrap_or(&name);
        snap.counters.push(dctstream_obs::CounterSnapshot {
            name: format!("registry.{name}"),
            labels: Vec::new(),
            value,
        });
    }
    snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
    snap.gauges.push(dctstream_obs::GaugeSnapshot {
        name: "serve.published_epoch".into(),
        labels: Vec::new(),
        value: state.cell.published_epoch() as f64,
    });
    snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
    (
        Status::Ok,
        "text/plain; version=0.0.4",
        dctstream_obs::render_prometheus(&snap),
    )
}

fn handle_register(state: &ServerState, req: &Request) -> Handled {
    let stream = required(req, "stream")?;
    let key = qualify(req, stream)?;
    let summary = match req.param("kind").unwrap_or("cosine") {
        "cosine" => {
            let lo: i64 = parse_num("lo", required(req, "lo")?)?;
            let hi: i64 = parse_num("hi", required(req, "hi")?)?;
            let m: usize = parse_num("m", required(req, "m")?)?;
            Summary::Cosine(
                CosineSynopsis::new(Domain::new(lo, hi), Grid::Midpoint, m)
                    .map_err(|e| rejected(&e))?,
            )
        }
        "multi" => {
            let degree: usize = parse_num("degree", required(req, "degree")?)?;
            let mut domains = Vec::new();
            for part in required(req, "domains")?.split(',') {
                let (lo, hi) = part
                    .split_once(':')
                    .ok_or_else(|| usage(format!("bad domain {part:?}: use LO:HI")))?;
                domains.push(Domain::new(
                    parse_num("lo", lo)?,
                    parse_num::<i64>("hi", hi)?,
                ));
            }
            Summary::Multi(
                MultiDimSynopsis::new(domains, Grid::Midpoint, degree).map_err(|e| rejected(&e))?,
            )
        }
        other => return Err(usage(format!("bad kind {other:?}: cosine or multi"))),
    };
    state
        .registry
        .register(key.clone(), summary)
        .map_err(|e| rejected(&e))?;
    // Publish immediately so the stream is queryable at once.
    let snap = state.publish_now().map_err(|e| rejected(&e))?;
    Ok(format!(
        "{{\"registered\":\"{}\",\"epoch\":{}}}",
        json_escape(&key),
        snap.epoch()
    ))
}

/// Parse one ingest row: `v1[,v2,...][:w]` (weight defaults to 1).
/// Public because trace tooling (the replay recorder) parses the same
/// wire format.
pub fn parse_row(line: &str) -> std::result::Result<(Vec<i64>, f64), String> {
    let (vals, w) = match line.rsplit_once(':') {
        Some((vals, w)) => (
            vals,
            w.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad weight {w:?}"))?,
        ),
        None => (line, 1.0),
    };
    if !w.is_finite() {
        return Err(format!("non-finite weight {w}"));
    }
    let tuple = vals
        .split(',')
        .map(|v| {
            v.trim()
                .parse::<i64>()
                .map_err(|_| format!("bad value {v:?}"))
        })
        .collect::<std::result::Result<Vec<i64>, String>>()?;
    Ok((tuple, w))
}

/// Render the reject-attribution fields of an ingest answer: every
/// rejected row's 1-based body line and cause (first ten spelled out).
fn rejects_json(rejects: &[(usize, String)]) -> String {
    let shown: Vec<String> = rejects
        .iter()
        .take(10)
        .map(|(row, cause)| format!("{{\"row\":{row},\"cause\":\"{}\"}}", json_escape(cause)))
        .collect();
    format!(
        "\"rejected\":{},\"rejects\":[{}]",
        rejects.len(),
        shown.join(",")
    )
}

fn handle_ingest(state: &ServerState, req: &Request) -> Handled {
    let stream = required(req, "stream")?;
    let key = qualify(req, stream)?;
    let reject_threshold = match req.param("reject_threshold") {
        Some(raw) => {
            let t: f64 = parse_num("reject_threshold", raw)?;
            if !(0.0..=1.0).contains(&t) {
                return Err(usage(format!("reject_threshold {t} outside [0,1]")));
            }
            Some(t)
        }
        None => None,
    };
    let body = std::str::from_utf8(&req.body)
        .map_err(|_| usage("ingest body must be UTF-8 text rows".to_string()))?;
    // Malformed rows are quarantined with attribution, never a batch
    // failure: the response says exactly which body lines were dropped
    // and why, and the good rows land.
    let mut rows: Vec<(usize, (Vec<i64>, f64))> = Vec::new();
    let mut rejects: Vec<(usize, String)> = Vec::new();
    let mut seen = 0u64;
    for (i, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        seen += 1;
        match parse_row(line) {
            Ok(row) => rows.push((i + 1, row)),
            Err(cause) => {
                dctstream_obs::counter_add!(
                    "intake.rows_rejected_total",
                    &[("cause", "bad-value")],
                    1
                );
                rejects.push((i + 1, cause));
            }
        }
    }
    if seen == 0 {
        return Err(usage("empty ingest body".to_string()));
    }

    // Every row is checked against the stream's registered shape before
    // anything is applied, so a bad row is a reject with its body line
    // and cause on every shard count, and never half of an applied
    // batch. A stream the published snapshot lacks (unknown, or
    // withheld while quarantined) is left to the registry's own error.
    let snap = state.cell.load();
    let mut batch: Vec<(Vec<i64>, f64)> = Vec::with_capacity(rows.len());
    for (row_no, row) in rows {
        match snap.summary(&key).map_or(Ok(()), |s| s.check_tuple(&row.0)) {
            Ok(()) => batch.push(row),
            Err(e) => {
                let label = match e {
                    DctError::ArityMismatch { .. } => "wrong-arity",
                    _ => "out-of-domain",
                };
                // The macro caches its handle per call site, which would
                // pin every increment to the first cause seen — go
                // through the registry for the dynamic label.
                dctstream_obs::global()
                    .counter_with("intake.rows_rejected_total", &[("cause", label)])
                    .add(1);
                rejects.push((row_no, e.to_string()));
            }
        }
    }
    drop(snap);

    // The registry partitions, applies, syncs, and publishes each
    // touched shard's watermark internally: the ack below is durable on
    // every shard the batch reached.
    let applied = if batch.is_empty() {
        0
    } else {
        state.registry.ingest(&key, &batch).map_err(|e| {
            // A failed WAL append or fsync quarantines streams, and with
            // several shards the others may have applied their part:
            // republish, and count those rows, so no later answer reads
            // quarantined live state or under-reports `records_behind`.
            if matches!(e, DctError::Wal { .. }) || state.registry.shards() > 1 {
                if let Ok(snap) = state.publish_now() {
                    state.progress.raise_to(snap.total_stats());
                }
            }
            rejected(&e)
        })?
    };
    for (_, w) in &batch {
        state.progress.add(1, w.abs());
    }
    let since = state.since_publish.fetch_add(applied, Ordering::SeqCst) + applied;
    if since >= state.publish_every {
        state.publish_now().map_err(|e| rejected(&e))?;
    }
    // A root registry acks with the WAL position its fsyncs now cover.
    let tail = if state.registry.has_followers() {
        String::new()
    } else {
        let gd = state.registry.primary(0).map_err(|e| rejected(&e))?;
        format!(",\"durable_seq\":{}", gd.durable_watermark())
    };

    // Configurable quarantine: past the threshold the stream itself is
    // marked unhealthy (visible in /healthz-adjacent surfaces and
    // refusing checkpoints) and the whole answer is a typed rejection.
    let rejected_rows = rejects.len() as u64;
    if let Some(t) = reject_threshold {
        if rejected_rows as f64 > t * seen as f64 {
            let cause = dctstream_stream::HealthCause::RejectRateExceeded {
                rejected: rejected_rows,
                seen,
                threshold: t,
            };
            let _ = state.registry.quarantine_stream(&key, cause);
            let _ = state.publish_now();
            return Err((
                Status::Unprocessable,
                format!(
                    "reject rate {rejected_rows}/{seen} exceeded threshold {t}; \
                     stream {key} quarantined"
                ),
            ));
        }
    }
    Ok(format!(
        "{{\"accepted\":{applied},{}{tail},\"epoch\":{}}}",
        rejects_json(&rejects),
        state.cell.published_epoch()
    ))
}

/// The staleness fields every estimate answer carries.
fn staleness_json(state: &ServerState, snap: &RegistrySnapshot) -> String {
    let st = snap.staleness_given(state.progress.totals());
    format!(
        "\"epoch\":{},\"snapshot_events\":{},\"records_behind\":{},\"gross_weight_behind\":{}",
        snap.epoch(),
        snap.events(),
        st.records_behind,
        st.gross_weight_behind
    )
}

/// Render an answer's degraded attribution as a JSON array: dead fleet
/// shards answered by their followers, then participants answered from
/// a checkpoint substitute.
fn degraded_json(dead: &[ShardStaleness], streams: &[StreamStaleness]) -> String {
    let shards = dead.iter().map(|d| {
        format!(
            "{{\"shard\":{},\"records_behind\":{},\"gross_weight_behind\":{}}}",
            d.shard, d.records_behind, d.gross_weight_behind
        )
    });
    let streams = streams.iter().map(|s| {
        format!(
            "{{\"stream\":\"{}\",\"state\":\"{}\",\"checkpoint_watermark\":{},\
             \"records_behind\":{},\"gross_weight_behind\":{}}}",
            json_escape(&s.stream),
            s.state,
            s.checkpoint_watermark,
            s.records_behind,
            s.gross_weight_behind
        )
    });
    let entries: Vec<String> = shards.chain(streams).collect();
    format!("\"degraded\":[{}]", entries.join(","))
}

/// The JSON body of an estimate answer. Fleet answers always carry a
/// `degraded` array; single-registry answers only when a participant
/// was substituted, so healthy answers keep their shape.
fn answer_json<'a>(
    state: &ServerState,
    snap: &RegistrySnapshot,
    est: f64,
    participants: impl IntoIterator<Item = &'a str>,
) -> String {
    let streams = snap.attribution(participants);
    let dead = snap.dead_shards();
    if !dead.is_empty() {
        dctstream_obs::counter_add!("fleet.degraded_answers_total", 1);
    }
    let degraded = if !state.registry.has_followers() && streams.is_empty() {
        String::new()
    } else {
        format!(",{}", degraded_json(dead, &streams))
    };
    format!(
        "{{\"estimate\":{est},{}{degraded}}}",
        staleness_json(state, snap)
    )
}

/// The snapshot an answer reads: the published one. A fleet whose
/// generation moved past it (a kill, promotion, shipping round or
/// quarantine that no ingest published) republishes first.
fn read_snapshot(
    state: &ServerState,
) -> std::result::Result<Arc<RegistrySnapshot>, (Status, String)> {
    let snap = state.cell.load();
    if state.registry.generation() == snap.generation() {
        return Ok(snap);
    }
    state.publish_now().map_err(|e| rejected(&e))
}

/// Look up / fill the estimate cache around `compute`.
fn cached_estimate(
    state: &ServerState,
    snap: &RegistrySnapshot,
    key: &str,
    compute: impl FnOnce() -> Result<f64>,
) -> std::result::Result<f64, (Status, String)> {
    if !state.cache.enabled() {
        return compute().map_err(|e| rejected(&e));
    }
    if let Some(est) = state.cache.lookup(snap.epoch(), key) {
        dctstream_obs::counter_add!("serve.cache_hits", 1);
        return Ok(est);
    }
    let est = compute().map_err(|e| rejected(&e))?;
    dctstream_obs::counter_add!("serve.cache_misses", 1);
    state.cache.insert(snap.epoch(), key.to_string(), est);
    Ok(est)
}

fn handle_estimate(state: &ServerState, req: &Request) -> Handled {
    let left = qualify(req, required(req, "left")?)?;
    let right = qualify(req, required(req, "right")?)?;
    let budget = match req.param("budget") {
        Some(b) => Some(parse_num::<usize>("budget", b)?),
        None => None,
    };
    let snap = read_snapshot(state)?;
    // The cache key embeds the tenant (via the qualified names) and the
    // full query shape; the epoch is the cache's generation key.
    let key = format!("e|{left}|{right}|{budget:?}");
    let est = cached_estimate(state, &snap, &key, || {
        snap.estimate_cosine_join(&left, &right, budget)
    })?;
    Ok(answer_json(
        state,
        &snap,
        est,
        [left.as_str(), right.as_str()],
    ))
}

fn handle_chain(state: &ServerState, req: &Request) -> Handled {
    let budget = match req.param("budget") {
        Some(b) => Some(parse_num::<usize>("budget", b)?),
        None => None,
    };
    let body = std::str::from_utf8(&req.body)
        .map_err(|_| usage("chain body must be UTF-8 text".to_string()))?;
    let mut builder = ChainJoinQuery::builder();
    let mut links: Vec<String> = Vec::new();
    for (i, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some("end"), Some(name), None, _) => {
                let key = qualify(req, name)?;
                links.push(format!("end {key}"));
                builder = builder.end(key);
            }
            (Some("inner"), Some(name), Some(l), Some(r)) => {
                let key = qualify(req, name)?;
                let ld: usize = parse_num("left dim", l)?;
                let rd: usize = parse_num("right dim", r)?;
                links.push(format!("inner {key} {ld} {rd}"));
                builder = builder.inner(key, ld, rd);
            }
            _ => {
                return Err(usage(format!(
                    "chain line {}: use `end NAME` or `inner NAME LEFTDIM RIGHTDIM`",
                    i + 1
                )))
            }
        }
    }
    let chain_key = links.join(";");
    let query = builder.build().map_err(|e| rejected(&e))?;
    let snap = read_snapshot(state)?;
    // Canonical chain key: the qualified link list in order plus the
    // budget (links came from `qualify`, so the tenant is embedded).
    let key = format!("c|{budget:?}|{}", chain_key);
    let est = cached_estimate(state, &snap, &key, || query.estimate_at(&snap, budget))?;
    Ok(answer_json(state, &snap, est, query.streams()))
}

fn handle_streams(state: &ServerState, req: &Request) -> Handled {
    let tenant = req.param("tenant").unwrap_or("default");
    if !valid_name(tenant) {
        return Err(usage(format!("bad tenant {tenant:?}")));
    }
    let prefix = format!("{tenant}/");
    let snap = state.cell.load();
    let mut streams: Vec<(&str, &Summary)> = snap
        .streams()
        .filter(|(n, _)| n.starts_with(&prefix))
        .collect();
    streams.sort_unstable_by_key(|(name, _)| *name);
    let entries: Vec<String> = streams
        .iter()
        .map(|&(full, s)| {
            let stats = snap.stream_stats(full);
            format!(
                "{{\"stream\":\"{}\",\"tuples\":{},\"records\":{},\"gross_weight\":{}}}",
                json_escape(&full[prefix.len()..]),
                dctstream_core::StreamSummary::tuple_count(s),
                stats.records,
                stats.gross_weight
            )
        })
        .collect();
    Ok(format!(
        "{{\"tenant\":\"{}\",\"epoch\":{},\"streams\":[{}]}}",
        json_escape(tenant),
        snap.epoch(),
        entries.join(",")
    ))
}

fn handle_checkpoint(state: &ServerState) -> Handled {
    let retired = state.registry.checkpoint_all().map_err(|e| rejected(&e))?;
    let snap = state.publish_now().map_err(|e| rejected(&e))?;
    Ok(format!(
        "{{\"retired_segments\":{retired},\"epoch\":{}}}",
        snap.epoch()
    ))
}

/// The fleet routes answer 422 on a registry without followers.
fn require_followers(state: &ServerState) -> std::result::Result<(), (Status, String)> {
    if state.registry.has_followers() {
        return Ok(());
    }
    Err((
        Status::Unprocessable,
        "this daemon serves a single registry; start with --shards N for a fleet".to_string(),
    ))
}

fn handle_fleet_status(state: &ServerState) -> Handled {
    require_followers(state)?;
    let fleet = &state.registry;
    let entries: Vec<String> = fleet
        .status()
        .iter()
        .map(|s| {
            format!(
                "{{\"shard\":{},\"epoch\":{},\"alive\":{},\"published_seq\":{},\
                 \"follower_applied_seq\":{},\"records_behind\":{},\"gross_weight_behind\":{}{}}}",
                s.id,
                s.epoch,
                s.alive,
                s.published_seq,
                s.follower_applied_seq,
                s.records_behind,
                s.gross_weight_behind,
                match &s.down_cause {
                    Some(c) => format!(",\"down_cause\":\"{}\"", json_escape(c)),
                    None => String::new(),
                }
            )
        })
        .collect();
    Ok(format!(
        "{{\"shards\":{},\"fleet\":[{}]}}",
        fleet.shards(),
        entries.join(",")
    ))
}

fn handle_fleet_ship(state: &ServerState) -> Handled {
    require_followers(state)?;
    let fleet = &state.registry;
    let reports = fleet.ship_and_replay().map_err(|e| rejected(&e))?;
    let (mut bytes, mut segments, mut exhausted) = (0u64, 0usize, false);
    for r in &reports {
        bytes += r.bytes_shipped;
        segments += r.segments_touched;
        exhausted |= r.budget_exhausted;
    }
    Ok(format!(
        "{{\"shards\":{},\"bytes_shipped\":{bytes},\"segments_touched\":{segments},\
         \"budget_exhausted\":{exhausted}}}",
        reports.len()
    ))
}

// ---------------------------------------------------------------------------
// Signal handling (the crate's one unsafe island: registering a SIGTERM
// /SIGINT handler through libc's `signal(2)`, which std does not expose).
// ---------------------------------------------------------------------------

#[cfg(unix)]
#[allow(unsafe_code)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static TERMINATE: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe.
        TERMINATE.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub(super) fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        // invariant: the handler only touches a static atomic, so
        // installing it cannot violate memory safety.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

/// Install SIGTERM/SIGINT handlers that flip the flag behind
/// [`termination_requested`] (no-op off Unix). The CLI's serve loop
/// polls it to run the graceful checkpoint-on-shutdown path.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    sig::install();
}

/// Whether a termination signal has arrived since
/// [`install_signal_handlers`].
pub fn termination_requested() -> bool {
    #[cfg(unix)]
    {
        sig::TERMINATE.load(Ordering::SeqCst)
    }
    #[cfg(not(unix))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_validated() {
        assert!(valid_name("orders"));
        assert!(valid_name("acme-1.prod_x"));
        assert!(!valid_name(""));
        assert!(!valid_name("a/b"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn rows_parse_values_and_weights() {
        assert_eq!(parse_row("7").unwrap(), (vec![7], 1.0));
        assert_eq!(parse_row("1,2,3:0.5").unwrap(), (vec![1, 2, 3], 0.5));
        assert_eq!(parse_row("4 : -2").unwrap(), (vec![4], -2.0));
        assert!(parse_row("x").is_err());
        assert!(parse_row("1:notaweight").is_err());
        assert!(parse_row("1:inf").is_err());
    }

    #[test]
    fn conn_queue_applies_backpressure() {
        let q = ConnQueue::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let c1 = Conn::new(TcpStream::connect(addr).unwrap()).unwrap();
        let c2 = Conn::new(TcpStream::connect(addr).unwrap()).unwrap();
        assert!(q.push(c1).is_ok());
        let bounced = q.push(c2);
        assert!(bounced.is_err(), "beyond depth must be handed back");
        // Re-admission of an already-accepted connection ignores depth.
        q.requeue(bounced.unwrap_err());
        let shutdown = AtomicBool::new(false);
        assert!(q.pop(&shutdown).is_some());
        assert!(q.pop(&shutdown).is_some());
        shutdown.store(true, Ordering::SeqCst);
        assert!(q.pop(&shutdown).is_none());
    }

    #[test]
    fn estimate_cache_is_invalidated_by_epoch_advance() {
        let c = EstimateCache::new(8);
        assert!(c.lookup(1, "k").is_none());
        c.insert(1, "k".into(), 42.0);
        assert_eq!(c.lookup(1, "k"), Some(42.0));
        // A newer epoch rotates the generation wholesale.
        assert!(c.lookup(2, "k").is_none());
        // The stale generation cannot be resurrected.
        assert!(c.lookup(1, "k").is_none());
        // Inserts against a rotated-past epoch are dropped.
        c.insert(1, "k".into(), 42.0);
        assert!(c.lookup(2, "k").is_none());
    }

    #[test]
    fn estimate_cache_honors_cap_and_disable() {
        let off = EstimateCache::new(0);
        off.insert(1, "k".into(), 1.0);
        assert!(off.lookup(1, "k").is_none());
        let tiny = EstimateCache::new(1);
        tiny.insert(1, "a".into(), 1.0);
        tiny.insert(1, "b".into(), 2.0); // over cap: dropped
        assert_eq!(tiny.lookup(1, "a"), Some(1.0));
        assert!(tiny.lookup(1, "b").is_none());
    }

    #[test]
    fn tenant_governor_enforces_quota_per_tenant() {
        let g = TenantGov::new(2);
        assert!(g.try_acquire("hot"));
        assert!(g.try_acquire("hot"));
        assert!(!g.try_acquire("hot"), "third in-flight must bounce");
        assert!(g.try_acquire("cold"), "quota is per tenant");
        g.release("hot");
        assert!(g.try_acquire("hot"));
        // Releasing an unknown tenant is a no-op, not a panic.
        g.release("never-seen");
    }
}
