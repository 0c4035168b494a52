//! The networked SafetyPin service.
//!
//! [`Daemon::bind`] boots a provider fleet from (or into) a crash-safe
//! snapshot directory and serves it to many concurrent client
//! connections over the framed TCP protocol of `safetypin_proto::tcp`:
//! a versioned hello, then length-prefixed [`Envelope`] frames. The
//! socket serves the provider API and nothing else: each
//! [`ProviderRequest`] frame is answered through
//! [`Deployment::handle`], and any other frame kind (HSM-level traffic
//! never leaves the datacenter) gets a typed [`codes::UNSUPPORTED`]
//! reply. One OS thread per connection feeds a shared, mutex-guarded
//! [`Deployment`] — the fleet's RNG stream stays sequential, so a
//! daemon-served deployment is byte-identical to the same requests
//! served in process.
//!
//! Per-connection policy runs *before* the fleet is touched, and every
//! refusal is a typed [`ProviderResponse::Error`] frame — never a
//! dropped connection:
//!
//! * admission control — connections past
//!   [`DaemonConfig::max_connections`] get [`codes::OVERLOADED`];
//! * rate limiting — a per-connection token bucket
//!   ([`DaemonConfig::rate_limit`] requests/second) refuses the excess
//!   with [`codes::RATE_LIMITED`];
//! * draining — after a [`ProviderRequest::Shutdown`], new work gets
//!   [`codes::SHUTTING_DOWN`] (status queries still answer, reporting
//!   `draining: true`), in-flight connections finish, and the fleet's
//!   stores are checkpointed before the accept thread exits (a
//!   convenience: the store directory is restorable after every commit,
//!   so a `kill -9` loses nothing an ack covered).
//!
//! An admitted fleet request, and a status query, waits for the fleet
//! mutex for as long as the fleet is busy (the wait lands in the
//! `daemon.lock_wait` histogram); metrics and shutdown never touch the
//! mutex, so a busy fleet can still be observed and drained.
//!
//! The `safetypind` and `safetypin-cli` binaries are thin argument
//! parsers over these pieces.
//!
//! [`Envelope`]: safetypin_proto::Envelope
//! [`ProviderResponse::Error`]: safetypin_proto::ProviderResponse::Error
//! [`ProviderRequest`]: safetypin_proto::ProviderRequest
//! [`ProviderRequest::Shutdown`]: safetypin_proto::ProviderRequest::Shutdown
//! [`codes::UNSUPPORTED`]: safetypin_proto::codes::UNSUPPORTED
//! [`codes::OVERLOADED`]: safetypin_proto::codes::OVERLOADED
//! [`codes::RATE_LIMITED`]: safetypin_proto::codes::RATE_LIMITED
//! [`codes::SHUTTING_DOWN`]: safetypin_proto::codes::SHUTTING_DOWN

// Serve-path panic discipline ([workspace.lints.clippy] plus the
// `assert!` ban in this crate's clippy.toml): no unwrap, expect, raw
// indexing or panicking macro in library code; tests allow them.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::disallowed_macros,
        reason = "test code fails by panicking"
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::{Deployment, DeploymentBuilder, DeploymentError, SystemParams};
use safetypin_proto::tcp::{accept_handshake, serve_frames, Tcp, TcpConfig};
use safetypin_proto::{
    codes, ErrorCode, ErrorReply, ProtoError, ProviderRequest, ProviderResponse, SnapshotMeta,
};
use safetypin_store::{Durability, FileOptions, FileStore, StoreError};

/// Service-level errors (distinct from per-request refusals, which
/// travel to clients as typed [`ProviderResponse::Error`] frames).
///
/// [`ProviderResponse::Error`]: safetypin_proto::ProviderResponse::Error
#[derive(Debug)]
pub enum DaemonError {
    /// Socket setup failed (bind, local-addr query).
    Io(std::io::Error),
    /// Provisioning or restoring the fleet failed.
    Deployment(DeploymentError),
    /// Checkpointing the fleet on shutdown failed.
    Store(StoreError),
    /// A wire-level failure while talking to a daemon.
    Proto(ProtoError),
    /// The daemon answered a service request with a typed refusal.
    Refused(ErrorReply),
}

impl core::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DaemonError::Io(e) => write!(f, "io: {e}"),
            DaemonError::Deployment(e) => write!(f, "deployment: {e}"),
            DaemonError::Store(e) => write!(f, "store: {e}"),
            DaemonError::Proto(e) => write!(f, "proto: {e}"),
            DaemonError::Refused(e) => write!(f, "daemon refused: {e}"),
        }
    }
}

impl std::error::Error for DaemonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaemonError::Io(e) => Some(e),
            DaemonError::Deployment(e) => Some(e),
            DaemonError::Store(e) => Some(e),
            DaemonError::Proto(e) => Some(e),
            DaemonError::Refused(_) => None,
        }
    }
}

impl From<std::io::Error> for DaemonError {
    fn from(e: std::io::Error) -> Self {
        DaemonError::Io(e)
    }
}

impl From<DeploymentError> for DaemonError {
    fn from(e: DeploymentError) -> Self {
        DaemonError::Deployment(e)
    }
}

impl From<StoreError> for DaemonError {
    fn from(e: StoreError) -> Self {
        DaemonError::Store(e)
    }
}

impl From<ProtoError> for DaemonError {
    fn from(e: ProtoError) -> Self {
        DaemonError::Proto(e)
    }
}

/// Boot and policy configuration for [`Daemon::bind`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The listen address (`host:port`; port `0` picks one).
    pub listen: String,
    /// Store directory (created and populated on first boot).
    pub store_dir: PathBuf,
    /// Fleet parameters; must match the fleet already stored there.
    pub params: SystemParams,
    /// Block-file tuning for the live [`FileStore`]s.
    pub file_options: FileOptions,
    /// Concurrent connections served before new ones are refused with
    /// [`codes::OVERLOADED`] (`0` = unlimited). A refused connection
    /// holds no slot, even while it stays open.
    pub max_connections: usize,
    /// Per-connection requests/second before refusing with
    /// [`codes::RATE_LIMITED`] (`0` = unlimited). Bursts up to one
    /// second's allowance.
    pub rate_limit: u32,
    /// Per-connection socket read/write timeout; also bounds how long
    /// draining waits for an idle connection.
    pub io_timeout: Duration,
    /// Seeds the daemon's RNG on every bind: first-boot provisioning
    /// draws from it, and so does every request served afterwards,
    /// restores included (ROADMAP item 7 replaces this with owned
    /// entropy). Two daemons booted fresh from the same seed and
    /// parameters serve byte-identical fleets.
    pub seed: u64,
}

impl DaemonConfig {
    /// Defaults: ephemeral loopback port, strict durability, 64
    /// connections, no rate limit, 30-second socket timeouts.
    pub fn new(store_dir: impl Into<PathBuf>, params: SystemParams) -> Self {
        Self {
            listen: "127.0.0.1:0".to_string(),
            store_dir: store_dir.into(),
            params,
            file_options: FileOptions::default(),
            max_connections: 64,
            rate_limit: 0,
            io_timeout: Duration::from_secs(30),
            seed: 0,
        }
    }

    /// Sets the listen address.
    pub fn listen(mut self, addr: impl Into<String>) -> Self {
        self.listen = addr.into();
        self
    }

    /// Sets the block-file fsync policy.
    pub fn durability(mut self, durability: Durability) -> Self {
        self.file_options.durability = durability;
        self
    }

    /// Sets the concurrent-connection ceiling (`0` = unlimited).
    pub fn max_connections(mut self, max: usize) -> Self {
        self.max_connections = max;
        self
    }

    /// Sets the per-connection rate limit (`0` = unlimited).
    pub fn rate_limit(mut self, per_second: u32) -> Self {
        self.rate_limit = per_second;
        self
    }

    /// Sets the per-connection socket timeout.
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// Sets the seed of the daemon's RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The fleet plus the service RNG, guarded by one mutex: requests are
/// serialized exactly as the in-process `Deployment` serializes them,
/// so the served byte stream is transport-independent.
struct World {
    deployment: Deployment<FileStore>,
    rng: StdRng,
}

/// Global-registry handles resolved once at [`Daemon::bind`] so the
/// per-request path never pays a name lookup. `daemon.requests` counts
/// every served request, `daemon.request` records end-to-end service
/// latency, `daemon.lock_wait` the time spent queueing on the fleet
/// mutex, `daemon.refused.*` the policy refusals by error-code name,
/// and the `daemon.connections` gauge tracks live connections.
struct DaemonMeters {
    requests: Arc<safetypin_telemetry::Counter>,
    request_latency: Arc<safetypin_telemetry::Histogram>,
    lock_wait: Arc<safetypin_telemetry::Histogram>,
    refused_rate_limited: Arc<safetypin_telemetry::Counter>,
    refused_overloaded: Arc<safetypin_telemetry::Counter>,
    refused_shutting_down: Arc<safetypin_telemetry::Counter>,
    connections: Arc<safetypin_telemetry::Gauge>,
}

impl DaemonMeters {
    fn from_global() -> Self {
        let registry = safetypin_telemetry::global();
        Self {
            requests: registry.counter("daemon.requests"),
            request_latency: registry.histogram("daemon.request"),
            lock_wait: registry.histogram("daemon.lock_wait"),
            refused_rate_limited: registry.counter("daemon.refused.rate_limited"),
            refused_overloaded: registry.counter("daemon.refused.overloaded"),
            refused_shutting_down: registry.counter("daemon.refused.shutting_down"),
            connections: registry.gauge("daemon.connections"),
        }
    }
}

struct Shared {
    world: Mutex<World>,
    addr: SocketAddr,
    draining: AtomicBool,
    active: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    max_connections: usize,
    rate_limit: u32,
    io_timeout: Duration,
    store_dir: PathBuf,
    file_options: FileOptions,
    meters: DaemonMeters,
}

impl Shared {
    /// The only way to the fleet: waits for the mutex however long the
    /// fleet is busy, and records the wait in `daemon.lock_wait`.
    fn world(&self) -> MutexGuard<'_, World> {
        let start = Instant::now();
        // A panic while holding the lock poisons it; the fleet state
        // itself is guarded by its own WAL discipline, so serving
        // beats refusing everything forever.
        let guard = self.world.lock().unwrap_or_else(|e| e.into_inner());
        self.meters.lock_wait.record_duration(start.elapsed());
        guard
    }
}

/// The `safetypind` server. See the crate docs for the protocol and
/// policy; construction is [`Daemon::bind`], which returns a
/// [`DaemonHandle`] for the running service.
pub struct Daemon;

impl Daemon {
    /// Opens (or first-boot provisions) the fleet at
    /// `config.store_dir`, binds `config.listen`, and starts serving.
    /// Returns once the listener is live.
    pub fn bind(config: DaemonConfig) -> Result<DaemonHandle, DaemonError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let (deployment, _meta) = DeploymentBuilder::new(config.params)
            .store_dir(&config.store_dir)
            .file_options(config.file_options)
            .open(&mut rng)?;
        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            world: Mutex::new(World { deployment, rng }),
            addr,
            draining: AtomicBool::new(false),
            active: AtomicU64::new(0),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            max_connections: config.max_connections,
            rate_limit: config.rate_limit,
            io_timeout: config.io_timeout,
            store_dir: config.store_dir,
            file_options: config.file_options,
            meters: DaemonMeters::from_global(),
        });
        let accept_shared = Arc::clone(&shared);
        let join = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(DaemonHandle { shared, join })
    }
}

/// A running daemon: its bound address plus control over its lifetime.
pub struct DaemonHandle {
    shared: Arc<Shared>,
    join: JoinHandle<Result<SnapshotMeta, DaemonError>>,
}

impl DaemonHandle {
    /// The bound listen address (useful with `listen("127.0.0.1:0")`).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests shutdown over the wire — exactly what a
    /// `safetypin-cli <addr> shutdown` does — then waits for the drain
    /// and checkpoint to finish.
    pub fn shutdown(self) -> Result<SnapshotMeta, DaemonError> {
        let mut tcp = Tcp::connect(TcpConfig::new(self.shared.addr.to_string()))?;
        match tcp.call(ProviderRequest::Shutdown)? {
            ProviderResponse::Ack => {}
            ProviderResponse::Error(e) => return Err(DaemonError::Refused(e)),
            _ => {
                return Err(DaemonError::Proto(ProtoError::UnexpectedMessage(
                    "expected an Ack reply to Shutdown",
                )))
            }
        }
        // Release the connection before joining: the accept thread
        // joins every connection thread, and ours would otherwise sit
        // in a blocking read until the io timeout.
        drop(tcp);
        self.wait()
    }

    /// Waits for the daemon to drain and checkpoint (triggered by a
    /// [`ProviderRequest::Shutdown`] from any client), returning the
    /// final state's metadata.
    pub fn wait(self) -> Result<SnapshotMeta, DaemonError> {
        match self.join.join() {
            Ok(outcome) => outcome,
            Err(_) => Err(DaemonError::Io(std::io::Error::other(
                "the daemon accept thread panicked",
            ))),
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) -> Result<SnapshotMeta, DaemonError> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        let conn_shared = Arc::clone(&shared);
        conns.push(std::thread::spawn(move || {
            let _ = serve_conn(stream, conn_shared);
        }));
        conns.retain(|conn| !conn.is_finished());
    }
    drop(listener);
    for conn in conns {
        let _ = conn.join();
    }
    let mut world = shared.world();
    let World { deployment, rng } = &mut *world;
    Ok(deployment.persist(&shared.store_dir, shared.file_options, rng)?)
}

fn refusal(code: ErrorCode, detail: &str) -> ProviderResponse {
    ProviderResponse::Error(ErrorReply::new(code, detail))
}

/// A token bucket: `rate` requests/second with a one-second burst
/// allowance. `rate == 0` admits everything.
struct TokenBucket {
    rate: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rate: u32) -> Self {
        Self {
            rate: rate as f64,
            tokens: rate as f64,
            last: Instant::now(),
        }
    }

    fn admit(&mut self) -> bool {
        if self.rate == 0.0 {
            return true;
        }
        let now = Instant::now();
        self.tokens =
            (self.tokens + now.duration_since(self.last).as_secs_f64() * self.rate).min(self.rate);
        self.last = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

fn serve_conn(mut stream: TcpStream, shared: Arc<Shared>) -> Result<(), ProtoError> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    accept_handshake(&mut stream)?;
    // `active` counts admitted connections only: a refused one takes
    // no slot, however long it stays open.
    let admitted = shared
        .active
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |active| {
            let free = shared.max_connections == 0 || active < shared.max_connections as u64;
            free.then_some(active + 1)
        })
        .is_ok();
    shared.meters.connections.add(1);
    let mut bucket = TokenBucket::new(shared.rate_limit);
    let serve = |request: ProviderRequest| -> ProviderResponse {
        // Every request gets a fresh trace id, which policy refusals
        // echo so a client report can be matched to the daemon's own
        // records.
        let trace = safetypin_telemetry::begin_trace();
        let started = Instant::now();
        shared.meters.requests.incr();
        let reply = match request {
            // Control-plane requests bypass admission and rate policy:
            // shutdown must always land, status must stay observable
            // while draining or overloaded, and the metrics surface is
            // served straight from the lock-free registry, so a busy
            // fleet can never hide the numbers that explain it.
            ProviderRequest::Shutdown => {
                shared.served.fetch_add(1, Ordering::SeqCst);
                shared.draining.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the drain flag.
                let _ = TcpStream::connect(shared.addr);
                ProviderResponse::Ack
            }
            ProviderRequest::Metrics => {
                shared.served.fetch_add(1, Ordering::SeqCst);
                ProviderResponse::Metrics(safetypin_proto::MetricsReport::from_global())
            }
            ProviderRequest::Status => {
                shared.served.fetch_add(1, Ordering::SeqCst);
                let mut report = shared.world().deployment.status_report();
                report.active_connections = shared.active.load(Ordering::SeqCst) as u32;
                report.served_requests = shared.served.load(Ordering::SeqCst);
                report.rejected_requests = shared.rejected.load(Ordering::SeqCst);
                report.draining = shared.draining.load(Ordering::SeqCst);
                ProviderResponse::Status(report)
            }
            _ if shared.draining.load(Ordering::SeqCst) => {
                shared.rejected.fetch_add(1, Ordering::SeqCst);
                shared.meters.refused_shutting_down.incr();
                refusal(
                    codes::SHUTTING_DOWN,
                    &format!("daemon is draining; retry elsewhere (trace {})", trace.id()),
                )
            }
            _ if !admitted => {
                shared.rejected.fetch_add(1, Ordering::SeqCst);
                shared.meters.refused_overloaded.incr();
                refusal(
                    codes::OVERLOADED,
                    &format!(
                        "connection limit reached; retry later (trace {})",
                        trace.id()
                    ),
                )
            }
            _ if !bucket.admit() => {
                shared.rejected.fetch_add(1, Ordering::SeqCst);
                shared.meters.refused_rate_limited.incr();
                refusal(
                    codes::RATE_LIMITED,
                    &format!("per-connection rate limit exceeded (trace {})", trace.id()),
                )
            }
            request => {
                shared.served.fetch_add(1, Ordering::SeqCst);
                let mut world = shared.world();
                let World { deployment, rng } = &mut *world;
                deployment.handle(request, rng)
            }
        };
        shared
            .meters
            .request_latency
            .record_duration(started.elapsed());
        reply
    };
    let outcome = serve_frames(&mut stream, serve);
    shared.meters.connections.add(-1);
    if admitted {
        shared.active.fetch_sub(1, Ordering::SeqCst);
    }
    outcome
}
