//! Real transport for the serve wire protocol: TCP and unix-domain
//! listeners, connection lifecycle, and graceful drain.
//!
//! Everything below [`Server`] keeps the sans-IO layers intact — a
//! connection is still "length-prefixed request frames in, response
//! frames out in request order", each envelope answered by
//! [`crate::handle`]. What this module adds is the machinery a
//! long-lived daemon needs around that core:
//!
//! - **Per-connection buffering**: an incremental [`FrameAssembler`]
//!   turns arbitrary read chunks into whole envelopes, holding at most
//!   one partial frame (bounded by the frame ceiling) plus one read
//!   chunk per connection.
//! - **Lifecycle**: accept limits, idle timeouts, read deadlines for
//!   half-sent frames (slow senders), write deadlines for clients that
//!   stop reading responses, and oversized-frame rejection. A frame
//!   that decodes but is garbage gets an in-band error and the
//!   connection lives on; a frame whose *length* cannot be trusted
//!   kills only its own connection, never the listener.
//! - **Backpressure**: a bounded in-flight gate. Connections handle
//!   requests serially (request N + 1 is not read until response N is
//!   written), so a slow client's queue lives in its own socket, and
//!   the gate caps the server-wide concurrent *execution*: a permit
//!   covers one [`crate::handle`] call and is released before the
//!   response is written, so a client that stops reading costs its own
//!   connection (until the write deadline) and never an execution slot.
//! - **Scale layers**: an optional [`ResponseCache`] keyed by
//!   `(epoch, canonical request bytes)` and optional per-client
//!   [`AdmissionControl`], handed to [`crate::handle`] per request.
//! - **Graceful drain**: [`Server::begin_drain`] stops admitting new
//!   connections (each is answered with one
//!   [`ERR_SHUTTING_DOWN`] frame
//!   and closed) while existing connections finish everything already
//!   in flight against their pinned epochs; [`Server::drain`] then
//!   waits for them, force-closing stragglers only at the grace
//!   deadline. Epoch swaps during drain are safe by construction: a
//!   request pins its view before executing, and pins are immutable.
//!
//! The transport behavior (timeouts, error frames, drain semantics) is
//! specified normatively in the transport section of
//! `docs/SERVE_PROTOCOL.md`.
//!
//! Its two locks — the connection table and the gate's counter — are
//! leaves of the private `sync` module like every other, and no socket
//! is read or written under either: the gate's permit is a count, not a
//! held guard, and debug builds assert the rest on every socket read
//! and write.

use crate::cache::{CacheConfig, CacheStats, ResponseCache};
use crate::limiter::{AdmissionControl, ClientKey, RateLimitConfig};
use crate::pool::{error_frame, handle, Outcome};
use crate::protocol::{
    self, decode_response, Response, ERR_FRAME_TOO_LARGE, ERR_OVERLOADED, ERR_SHUTTING_DOWN,
    ERR_TIMEOUT,
};
use crate::registry::SnapshotRegistry;
use crate::sync::{self, Monitor};
use expanse_addr::CodecError;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Socket-level poll granularity: blocking reads/writes use this as
/// their syscall timeout so handler loops can observe drain flags and
/// enforce wall-clock deadlines that are longer than one tick.
const TICK: Duration = Duration::from_millis(25);

/// Accept-loop poll granularity (listeners run nonblocking so drain
/// can stop them without a wakeup connection).
const ACCEPT_TICK: Duration = Duration::from_millis(5);

/// Per-connection read chunk size. One chunk plus one partial frame
/// bounds a connection's receive buffering.
const READ_CHUNK: usize = 16 * 1024;

// ---- addresses -------------------------------------------------------

/// Where a server listens or a client connects: `tcp:IP:PORT` or
/// `uds:PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// A TCP socket address (numeric; port 0 binds ephemeral).
    Tcp(SocketAddr),
    /// A unix-domain socket path. Binding removes a stale file at the
    /// path first — the daemon owns its socket path.
    Unix(PathBuf),
}

impl BindAddr {
    /// Parse the `tcp:IP:PORT` / `uds:PATH` string forms (the daemon's
    /// and `expansectl`'s `--listen`/`--to` syntax).
    pub fn parse(s: &str) -> Result<BindAddr, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            rest.parse::<SocketAddr>()
                .map(BindAddr::Tcp)
                .map_err(|e| format!("bad tcp address {rest:?}: {e} (numeric ip:port required)"))
        } else if let Some(rest) = s.strip_prefix("uds:") {
            if rest.is_empty() {
                Err("uds: needs a path".to_string())
            } else {
                Ok(BindAddr::Unix(PathBuf::from(rest)))
            }
        } else {
            Err(format!("{s:?} is neither tcp:IP:PORT nor uds:PATH"))
        }
    }
}

impl fmt::Display for BindAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindAddr::Tcp(a) => write!(f, "tcp:{a}"),
            BindAddr::Unix(p) => write!(f, "uds:{}", p.display()),
        }
    }
}

// ---- frame assembly --------------------------------------------------

/// The error a [`FrameAssembler`] can hit: a length prefix beyond the
/// configured ceiling. The stream cannot be resynchronized past an
/// untrusted length, so the connection must close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizedFrame {
    /// The claimed envelope length.
    pub len: u32,
    /// The ceiling it exceeded.
    pub max: u32,
}

impl fmt::Display for OversizedFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame length {} exceeds ceiling {}", self.len, self.max)
    }
}

impl std::error::Error for OversizedFrame {}

/// Incremental, sans-IO frame assembly: push arbitrary byte chunks in,
/// pull whole envelopes (without their length prefix) out. Holds at
/// most one partial frame; consumed bytes are compacted away, so the
/// buffer is bounded by the frame ceiling plus one push.
#[derive(Debug)]
pub struct FrameAssembler {
    max_frame_len: u32,
    buf: Vec<u8>,
    at: usize,
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    reason = "assembles frames from untrusted peer bytes: a hostile length must map to an error frame, not a panic"
)]
impl FrameAssembler {
    /// An empty assembler enforcing `max_frame_len` (envelopes above
    /// it yield [`OversizedFrame`] without being buffered).
    pub fn new(max_frame_len: u32) -> FrameAssembler {
        FrameAssembler {
            max_frame_len,
            buf: Vec::new(),
            at: 0,
        }
    }

    /// Append freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `at` is consumed.
        if self.at > 0 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete envelope, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, OversizedFrame> {
        let avail = self.buf.get(self.at..).unwrap_or_default();
        let Some(&[l0, l1, l2, l3]) = avail.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_le_bytes([l0, l1, l2, l3]);
        if len > self.max_frame_len {
            return Err(OversizedFrame {
                len,
                max: self.max_frame_len,
            });
        }
        // `4 + len` can only exceed `usize` under a near-word-limit
        // `max_frame_len` on a 32-bit target; such a frame can never
        // complete, so report it as still-assembling and let the read
        // deadline close the connection.
        let Some(end) = usize::try_from(len).ok().and_then(|l| l.checked_add(4)) else {
            return Ok(None);
        };
        let Some(envelope) = avail.get(4..end) else {
            return Ok(None);
        };
        let frame = envelope.to_vec();
        self.at += end;
        Ok(Some(frame))
    }

    /// Is a partial frame (or unconsumed partial length) pending?
    pub fn mid_frame(&self) -> bool {
        self.at < self.buf.len()
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.at
    }
}

// ---- sockets ---------------------------------------------------------

/// One accepted or dialed stream, TCP or unix-domain.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(d),
            Conn::Unix(s) => s.set_read_timeout(d),
        }
    }

    fn set_write_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(d),
            Conn::Unix(s) => s.set_write_timeout(d),
        }
    }

    /// A second handle on the same socket (duplicated fd): the
    /// connection table keeps one so drain can force-close the
    /// connection from another thread.
    fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// Shut both directions down; every handle on the socket sees it.
    fn shutdown(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        sync::assert_unlocked();
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        sync::assert_unlocked();
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// One bound listening socket.
#[derive(Debug)]
enum ListenSocket {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl ListenSocket {
    fn bind(addr: &BindAddr) -> io::Result<ListenSocket> {
        match addr {
            BindAddr::Tcp(a) => Ok(ListenSocket::Tcp(TcpListener::bind(a)?)),
            BindAddr::Unix(p) => {
                // The daemon owns its socket path: a stale file from a
                // previous run would otherwise wedge every restart.
                let _ = std::fs::remove_file(p);
                Ok(ListenSocket::Unix(UnixListener::bind(p)?, p.clone()))
            }
        }
    }

    fn local_addr(&self) -> io::Result<BindAddr> {
        match self {
            ListenSocket::Tcp(l) => l.local_addr().map(BindAddr::Tcp),
            ListenSocket::Unix(_, p) => Ok(BindAddr::Unix(p.clone())),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            ListenSocket::Tcp(l) => l.set_nonblocking(nb),
            ListenSocket::Unix(l, _) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<(Conn, ClientKey)> {
        match self {
            ListenSocket::Tcp(l) => {
                let (s, peer) = l.accept()?;
                s.set_nonblocking(false)?;
                let _ = s.set_nodelay(true);
                Ok((Conn::Tcp(s), ClientKey::Ip(peer.ip())))
            }
            ListenSocket::Unix(l, _) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok((Conn::Unix(s), ClientKey::Local))
            }
        }
    }

    fn cleanup(&self) {
        if let ListenSocket::Unix(_, p) = self {
            let _ = std::fs::remove_file(p);
        }
    }
}

// ---- server configuration and stats ----------------------------------

/// Everything tunable about a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-connection ceiling; connection number N + 1 is
    /// answered with one [`ERR_OVERLOADED`] frame and closed.
    pub max_connections: usize,
    /// Server-wide cap on requests executing at once (the bounded
    /// request queue: connections block here, which stops them reading,
    /// which backpressures their clients through TCP).
    pub max_inflight: usize,
    /// How long a started frame may stay incomplete before the sender
    /// is rejected as too slow ([`ERR_TIMEOUT`], close).
    pub read_timeout: Duration,
    /// How long writing one response may take before the receiver is
    /// rejected as too slow (close; counted in
    /// [`ServerStats::write_timeouts`]).
    pub write_timeout: Duration,
    /// How long a connection may sit with no traffic (and no partial
    /// frame) before it is closed quietly.
    pub idle_timeout: Duration,
    /// Envelope-length ceiling for incoming frames (capped by
    /// [`protocol::MAX_FRAME_LEN`]).
    pub max_frame_len: u32,
    /// Response cache policy; `None` disables caching.
    pub cache: Option<CacheConfig>,
    /// Per-client admission control; `None` admits everything.
    pub rate: Option<RateLimitConfig>,
    /// How long [`Server::drain`] waits for connections to finish
    /// before force-closing them.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 256,
            max_inflight: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            max_frame_len: protocol::MAX_FRAME_LEN,
            cache: Some(CacheConfig::default()),
            rate: None,
            drain_grace: Duration::from_secs(10),
        }
    }
}

/// Monotonic counters describing a server's lifetime behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted at the socket level.
    pub accepted: u64,
    /// Connections rejected with [`ERR_OVERLOADED`].
    pub rejected_overloaded: u64,
    /// Connections rejected with [`ERR_SHUTTING_DOWN`] during drain.
    pub rejected_shutdown: u64,
    /// Request frames served (including in-band error answers).
    pub requests: u64,
    /// Frames answered with [`protocol::ERR_MALFORMED`].
    pub malformed: u64,
    /// Requests answered with [`protocol::ERR_RATE_LIMITED`].
    pub rate_limited: u64,
    /// Connections closed for an oversized frame length.
    pub oversized_frames: u64,
    /// Connections closed because a frame stayed incomplete past the
    /// read deadline.
    pub read_timeouts: u64,
    /// Connections closed because a response could not be written in
    /// time (or the peer vanished mid-write).
    pub write_timeouts: u64,
}

/// What [`Server::drain`] observed.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Wall-clock time from drain start to the last connection
    /// closing.
    pub drain: Duration,
    /// Connections force-closed at the grace deadline (0 on a clean
    /// drain).
    pub forced_closes: u64,
    /// Final server counters.
    pub stats: ServerStats,
    /// Final cache counters, when a cache was configured.
    pub cache: Option<CacheStats>,
}

#[derive(Default)]
struct StatCells {
    accepted: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_shutdown: AtomicU64,
    requests: AtomicU64,
    malformed: AtomicU64,
    rate_limited: AtomicU64,
    oversized_frames: AtomicU64,
    read_timeouts: AtomicU64,
    write_timeouts: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            rejected_overloaded: self.rejected_overloaded.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            oversized_frames: self.oversized_frames.load(Ordering::Relaxed),
            read_timeouts: self.read_timeouts.load(Ordering::Relaxed),
            write_timeouts: self.write_timeouts.load(Ordering::Relaxed),
        }
    }
}

// ---- bounded in-flight gate ------------------------------------------

/// A counting gate: at most `max` holders at once; `acquire` blocks.
struct Gate {
    max: usize,
    held: Monitor<usize>,
}

struct GateGuard<'a>(&'a Gate);

impl Gate {
    fn new(max: usize) -> Gate {
        Gate {
            max: max.max(1),
            held: Monitor::new(0),
        }
    }

    fn acquire(&self) -> GateGuard<'_> {
        (self.held).wait_then(|held| *held >= self.max, |held| *held += 1);
        GateGuard(self)
    }
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.0.held.with(|held| *held -= 1);
        self.0.held.notify_one();
    }
}

// ---- the server ------------------------------------------------------

struct ConnTable {
    next_id: u64,
    live: HashMap<u64, Conn>,
}

struct Shared {
    cfg: ServerConfig,
    registry: Arc<SnapshotRegistry>,
    cache: Option<Arc<ResponseCache>>,
    limiter: Option<AdmissionControl>,
    draining: AtomicBool,
    stopped: AtomicBool,
    /// Notified whenever a connection leaves the table.
    conns: Monitor<ConnTable>,
    inflight: Gate,
    stats: StatCells,
}

/// The daemon core: one or more listeners (TCP, unix-domain, or both)
/// serving a shared [`SnapshotRegistry`] with per-connection handler
/// threads. See the [module](self) docs for the lifecycle contract.
pub struct Server {
    shared: Arc<Shared>,
    accept_threads: Vec<std::thread::JoinHandle<()>>,
    addrs: Vec<BindAddr>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server")
            .field("addrs", &self.addrs)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Server {
    /// Bind every address in `binds` and start accepting. When a cache
    /// is configured, a publish observer is registered on `registry`
    /// so retired epochs age out of the cache automatically.
    pub fn start(
        registry: Arc<SnapshotRegistry>,
        binds: &[BindAddr],
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        assert!(!binds.is_empty(), "a server needs at least one listener");
        let cfg = ServerConfig {
            max_frame_len: cfg.max_frame_len.min(protocol::MAX_FRAME_LEN),
            ..cfg
        };
        let cache = cfg.cache.map(|c| Arc::new(ResponseCache::new(c)));
        if let Some(cache) = &cache {
            let cache = Arc::clone(cache);
            registry.on_publish(Box::new(move |_retired, new_epoch| {
                cache.on_publish(new_epoch);
            }));
        }
        let limiter = cfg.rate.map(AdmissionControl::new);
        let shared = Arc::new(Shared {
            inflight: Gate::new(cfg.max_inflight),
            cfg,
            registry,
            cache,
            limiter,
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            conns: Monitor::new(ConnTable {
                next_id: 0,
                live: HashMap::new(),
            }),
            stats: StatCells::default(),
        });
        let mut sockets = Vec::with_capacity(binds.len());
        let mut addrs = Vec::with_capacity(binds.len());
        for b in binds {
            let sock = ListenSocket::bind(b)?;
            sock.set_nonblocking(true)?;
            addrs.push(sock.local_addr()?);
            sockets.push(sock);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "one accept thread per listener; the daemon is outside the determinism boundary"
        )]
        let accept_threads = sockets
            .into_iter()
            .map(|sock| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || accept_loop(&shared, &sock))
            })
            .collect();
        Ok(Server {
            shared,
            accept_threads,
            addrs,
        })
    }

    /// The resolved listen addresses (a `tcp:IP:0` bind reports its
    /// actual ephemeral port).
    pub fn local_addrs(&self) -> &[BindAddr] {
        &self.addrs
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Current cache counters, when a cache is configured.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.shared.cache.as_ref().map(|c| c.stats())
    }

    /// Live connection count.
    pub fn connections(&self) -> usize {
        self.shared.conns.with(|table| table.live.len())
    }

    /// Has a drain been initiated?
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Start draining without waiting: listeners reject every new
    /// connection with one [`ERR_SHUTTING_DOWN`] frame; existing
    /// connections finish what is already in flight and close.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Drain and stop: initiates drain (if [`Server::begin_drain`]
    /// didn't already), waits for every connection to finish —
    /// force-closing any still alive at the `drain_grace` deadline —
    /// then stops the listeners and returns the final counters. After
    /// this returns, nothing is listening and no response will ever
    /// again be written.
    pub fn drain(mut self) -> DrainReport {
        let t0 = Instant::now();
        self.begin_drain();
        let grace_left = self.shared.cfg.drain_grace.saturating_sub(t0.elapsed());
        let busy = |table: &mut ConnTable| !table.live.is_empty();
        // Phase 1: wait for a clean drain until the grace deadline, then
        // force-close stragglers (`shutdown` does not block).
        let forced_closes = self
            .shared
            .conns
            .wait_timeout_then(grace_left, busy, |table| {
                for conn in table.live.values() {
                    conn.shutdown();
                }
                table.live.len() as u64
            });
        // Phase 2: wait for their handlers to observe the closed socket.
        if forced_closes > 0 {
            (self.shared.conns).wait_timeout_then(Duration::from_secs(2), busy, |_| ());
        }
        self.shared.stopped.store(true, Ordering::SeqCst);
        for h in self.accept_threads.drain(..) {
            let _ = h.join();
        }
        DrainReport {
            drain: t0.elapsed(),
            forced_closes,
            stats: self.shared.stats.snapshot(),
            cache: self.shared.cache.as_ref().map(|c| c.stats()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // An un-drained drop still stops the listeners; connection
        // handlers wind down on their own timeouts.
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.stopped.store(true, Ordering::SeqCst);
        for h in self.accept_threads.drain(..) {
            let _ = h.join();
        }
    }
}

// ---- accept + connection handling ------------------------------------

fn accept_loop(shared: &Arc<Shared>, sock: &ListenSocket) {
    while !shared.stopped.load(Ordering::SeqCst) {
        match sock.accept() {
            Ok((conn, key)) => {
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                if shared.draining.load(Ordering::SeqCst) {
                    shared
                        .stats
                        .rejected_shutdown
                        .fetch_add(1, Ordering::Relaxed);
                    reject(shared, conn, ERR_SHUTTING_DOWN);
                    continue;
                }
                let Ok(closer) = conn.try_clone() else {
                    continue;
                };
                let id = shared.conns.with(|table| {
                    (table.live.len() < shared.cfg.max_connections).then(|| {
                        let id = table.next_id;
                        table.next_id += 1;
                        table.live.insert(id, closer);
                        id
                    })
                });
                let Some(id) = id else {
                    shared
                        .stats
                        .rejected_overloaded
                        .fetch_add(1, Ordering::Relaxed);
                    reject(shared, conn, ERR_OVERLOADED);
                    continue;
                };
                let shared = Arc::clone(shared);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "one handler thread per connection; the daemon is outside the \
                              determinism boundary"
                )]
                std::thread::spawn(move || {
                    let mut conn = conn;
                    handle_conn(&shared, &mut conn, &key);
                    shared.conns.with(|table| table.live.remove(&id));
                    shared.conns.notify_all();
                });
            }
            Err(e) if would_block(&e) => std::thread::sleep(ACCEPT_TICK),
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
    }
    sock.cleanup();
}

/// Best-effort rejection of a connection at accept time: one Error
/// frame, then close. Positionally this frame answers no request —
/// clients must treat an excess Error frame as connection-level status
/// (see docs/SERVE_PROTOCOL.md §6).
fn reject(shared: &Shared, mut conn: Conn, code: u8) {
    let frame = error_frame(&shared.registry, code);
    let _ = conn.set_write_timeout(Some(TICK));
    let _ = write_all_deadline(&mut conn, &frame, Duration::from_millis(250));
}

fn would_block(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Write the whole buffer within `timeout`; socket timeouts are one
/// [`TICK`] so the wall-clock deadline is enforced precisely.
fn write_all_deadline(conn: &mut Conn, bytes: &[u8], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    let mut at = 0usize;
    while at < bytes.len() {
        match conn.write(&bytes[at..]) {
            Ok(0) => return false,
            Ok(n) => at += n,
            Err(e) if would_block(&e) => {
                if Instant::now() >= deadline {
                    return false;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// Serve one envelope on a connection: permit → [`handle`] → release
/// → count → write. Returns `false` when the connection must close
/// (write failure/timeout).
fn serve_frame(shared: &Shared, conn: &mut Conn, key: &ClientKey, envelope: &[u8]) -> bool {
    let (bytes, outcome) = {
        // The bounded request queue: block here (not reading further
        // requests) until a server-wide execution slot frees up. The
        // permit covers execution only — it is gone before the write,
        // so a client that stops reading holds no slot.
        let _permit = shared.inflight.acquire();
        handle(
            &shared.registry,
            shared.cache.as_deref(),
            shared.limiter.as_ref(),
            key,
            envelope,
        )
    };
    let stats = &shared.stats;
    stats.requests.fetch_add(1, Ordering::Relaxed);
    match outcome {
        Outcome::Served => {}
        Outcome::Malformed => {
            stats.malformed.fetch_add(1, Ordering::Relaxed);
        }
        Outcome::RateLimited => {
            stats.rate_limited.fetch_add(1, Ordering::Relaxed);
        }
    }
    if !write_all_deadline(conn, &bytes, shared.cfg.write_timeout) {
        stats.write_timeouts.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    true
}

/// The per-connection loop. Requests are handled strictly serially —
/// response N is fully written before request N + 1 is read — so the
/// server buffers at most one partial frame per connection and a slow
/// client backpressures itself.
fn handle_conn(shared: &Shared, conn: &mut Conn, key: &ClientKey) {
    let _ = conn.set_read_timeout(Some(TICK));
    let _ = conn.set_write_timeout(Some(TICK));
    let mut asm = FrameAssembler::new(shared.cfg.max_frame_len);
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut last_activity = Instant::now();
    // Deadline for completing the frame currently mid-assembly.
    let mut frame_deadline: Option<Instant> = None;
    loop {
        // Serve every complete frame already buffered.
        loop {
            match asm.next_frame() {
                Ok(Some(frame)) => {
                    if !serve_frame(shared, conn, key, &frame) {
                        return;
                    }
                    last_activity = Instant::now();
                    frame_deadline = asm
                        .mid_frame()
                        .then(|| Instant::now() + shared.cfg.read_timeout);
                }
                Ok(None) => break,
                Err(_) => {
                    shared
                        .stats
                        .oversized_frames
                        .fetch_add(1, Ordering::Relaxed);
                    let frame = error_frame(&shared.registry, ERR_FRAME_TOO_LARGE);
                    let _ = write_all_deadline(conn, &frame, shared.cfg.write_timeout);
                    return;
                }
            }
        }
        let draining = shared.draining.load(Ordering::SeqCst);
        match conn.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                asm.push(&chunk[..n]);
                last_activity = Instant::now();
                if asm.mid_frame() && frame_deadline.is_none() {
                    frame_deadline = Some(Instant::now() + shared.cfg.read_timeout);
                }
            }
            Err(e) if would_block(&e) => {
                if draining && !asm.mid_frame() {
                    // Everything in flight has been answered and the
                    // socket is quiet: this connection's drain is done.
                    return;
                }
                if let Some(d) = frame_deadline {
                    if Instant::now() >= d {
                        shared.stats.read_timeouts.fetch_add(1, Ordering::Relaxed);
                        let frame = error_frame(&shared.registry, ERR_TIMEOUT);
                        let _ = write_all_deadline(conn, &frame, shared.cfg.write_timeout);
                        return;
                    }
                }
                if Instant::now().duration_since(last_activity) >= shared.cfg.idle_timeout {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

// ---- client ----------------------------------------------------------

/// What can go wrong on the client side of a connection.
#[derive(Debug)]
pub enum ClientError {
    /// A socket-level failure (includes an exceeded deadline).
    Io(io::Error),
    /// The server closed the stream with no pending frame — a clean
    /// close (drain, idle timeout, or rejection after its one status
    /// frame).
    Closed,
    /// A frame arrived but did not decode (checksum, version, or
    /// layout).
    Codec(CodecError),
    /// The server announced a frame larger than the client's ceiling.
    Oversized(OversizedFrame),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Closed => write!(f, "connection closed by server"),
            ClientError::Codec(e) => write!(f, "bad frame: {e:?}"),
            ClientError::Oversized(o) => write!(f, "{o}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A small blocking client for the wire protocol: `expansectl`, the
/// load generator, and the transport tests all speak through it.
/// Requests and responses match positionally, exactly as on the
/// server; [`ServeClient::call`] is the one-request convenience.
#[derive(Debug)]
pub struct ServeClient {
    conn: Conn,
    asm: FrameAssembler,
    timeout: Duration,
}

impl ServeClient {
    /// Connect to a server (TCP or unix-domain), with a 10 s default
    /// receive deadline.
    pub fn connect(addr: &BindAddr) -> io::Result<ServeClient> {
        let conn = match addr {
            BindAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }
            BindAddr::Unix(p) => Conn::Unix(UnixStream::connect(p)?),
        };
        conn.set_read_timeout(Some(TICK))?;
        conn.set_write_timeout(Some(TICK))?;
        Ok(ServeClient {
            conn,
            asm: FrameAssembler::new(protocol::MAX_FRAME_LEN),
            timeout: Duration::from_secs(10),
        })
    }

    /// Set the per-`recv` (and per-`send`) wall-clock deadline.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Send one request frame (blocking, within the deadline).
    pub fn send(&mut self, req: &crate::Request) -> io::Result<()> {
        self.send_raw(&protocol::encode_request(req))
    }

    /// Send pre-framed bytes verbatim (tests use this to send
    /// deliberately broken frames).
    pub fn send_raw(&mut self, framed: &[u8]) -> io::Result<()> {
        if write_all_deadline(&mut self.conn, framed, self.timeout) {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "send deadline exceeded",
            ))
        }
    }

    /// Receive the next raw envelope (without its length prefix).
    pub fn recv_frame(&mut self) -> Result<Vec<u8>, ClientError> {
        let deadline = Instant::now() + self.timeout;
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            match self.asm.next_frame() {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {}
                Err(o) => return Err(ClientError::Oversized(o)),
            }
            match self.conn.read(&mut chunk) {
                Ok(0) => {
                    return Err(ClientError::Closed);
                }
                Ok(n) => self.asm.push(&chunk[..n]),
                Err(e) if would_block(&e) => {
                    if Instant::now() >= deadline {
                        return Err(ClientError::Io(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "recv deadline exceeded",
                        )));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Receive and decode the next response.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let frame = self.recv_frame()?;
        decode_response(&frame).map_err(ClientError::Codec)
    }

    /// One request, one response.
    pub fn call(&mut self, req: &crate::Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the gate test runs contending threads"
)]
mod tests {
    use super::*;
    use crate::protocol::encode_request;
    use crate::Request;

    #[test]
    fn assembler_reassembles_byte_at_a_time() {
        let framed = encode_request(&Request::Ping);
        let mut asm = FrameAssembler::new(protocol::MAX_FRAME_LEN);
        for &b in &framed[..framed.len() - 1] {
            asm.push(&[b]);
            assert!(asm.next_frame().unwrap().is_none());
            assert!(asm.mid_frame());
        }
        asm.push(&framed[framed.len() - 1..]);
        let frame = asm.next_frame().unwrap().expect("complete");
        assert_eq!(frame, framed[4..].to_vec());
        assert!(!asm.mid_frame());
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_splits_coalesced_frames() {
        let mut stream = encode_request(&Request::Ping);
        stream.extend_from_slice(&encode_request(&Request::Lookup {
            addr: "::1".parse().unwrap(),
        }));
        let mut asm = FrameAssembler::new(protocol::MAX_FRAME_LEN);
        asm.push(&stream);
        assert!(asm.next_frame().unwrap().is_some());
        assert!(asm.next_frame().unwrap().is_some());
        assert!(asm.next_frame().unwrap().is_none());
    }

    #[test]
    fn assembler_rejects_oversized_length_without_buffering_it() {
        let mut asm = FrameAssembler::new(1024);
        asm.push(&u32::MAX.to_le_bytes());
        let err = asm.next_frame().unwrap_err();
        assert_eq!(err.len, u32::MAX);
        assert_eq!(err.max, 1024);
        assert!(asm.buffered() < 8, "length was not allocated");
    }

    #[test]
    fn assembler_resumes_after_partial_length_and_partial_body() {
        // Regression: the length prefix may straddle pushes, and a
        // complete prefix with a torn body must leave the buffer
        // untouched so a later push completes the frame.
        let mut asm = FrameAssembler::new(1024);
        asm.push(&[3, 0]);
        assert!(asm.next_frame().unwrap().is_none());
        asm.push(&[0, 0, 9]);
        assert!(asm.next_frame().unwrap().is_none());
        assert_eq!(asm.buffered(), 5);
        asm.push(&[8, 7]);
        assert_eq!(asm.next_frame().unwrap().unwrap(), vec![9, 8, 7]);
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_yields_zero_length_frame_at_exact_boundary() {
        let mut asm = FrameAssembler::new(1024);
        asm.push(&0u32.to_le_bytes());
        assert_eq!(asm.next_frame().unwrap().unwrap(), Vec::<u8>::new());
        assert!(asm.next_frame().unwrap().is_none());
        assert!(!asm.mid_frame());
    }

    #[test]
    fn assembler_accepts_frame_exactly_at_the_ceiling() {
        let mut asm = FrameAssembler::new(8);
        asm.push(&8u32.to_le_bytes());
        asm.push(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(asm.next_frame().unwrap().unwrap().len(), 8);
    }

    #[test]
    fn bind_addr_parses_both_schemes() {
        assert_eq!(
            BindAddr::parse("tcp:127.0.0.1:7666").unwrap(),
            BindAddr::Tcp("127.0.0.1:7666".parse().unwrap())
        );
        assert_eq!(
            BindAddr::parse("uds:/tmp/x.sock").unwrap(),
            BindAddr::Unix(PathBuf::from("/tmp/x.sock"))
        );
        assert!(BindAddr::parse("tcp:localhost:1").is_err());
        assert!(BindAddr::parse("udp:1.2.3.4:5").is_err());
        assert!(BindAddr::parse("uds:").is_err());
        assert_eq!(
            BindAddr::parse("tcp:[::1]:0").unwrap().to_string(),
            "tcp:[::1]:0"
        );
    }

    #[test]
    fn gate_bounds_concurrency() {
        let gate = Arc::new(Gate::new(2));
        let peak = Arc::new(AtomicU64::new(0));
        let now = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (gate, peak, now) = (gate.clone(), peak.clone(), now.clone());
                std::thread::spawn(move || {
                    let _g = gate.acquire();
                    let n = now.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(n, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    now.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn drain_force_closes_a_stalled_frame_at_the_grace_deadline() {
        let view = crate::SnapshotView::from_hitlist(1, &expanse_core::Hitlist::new(), Vec::new());
        let cfg = ServerConfig {
            drain_grace: Duration::from_millis(50),
            ..ServerConfig::default()
        };
        let listen = BindAddr::Tcp("127.0.0.1:0".parse().unwrap());
        let registry = Arc::new(SnapshotRegistry::new(view));
        let server = Server::start(registry, &[listen], cfg).unwrap();
        let mut client = ServeClient::connect(&server.local_addrs()[0]).unwrap();
        // Half a length prefix: the frame's 5 s read deadline outlasts
        // the grace period, so only a force-close ends the connection.
        client.send_raw(&[1, 0]).unwrap();
        for _ in 0..400 {
            if server.connections() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.connections(), 1);
        let report = server.drain();
        assert_eq!(report.forced_closes, 1);
        assert!(matches!(
            client.recv_frame(),
            Err(ClientError::Closed | ClientError::Io(_))
        ));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "socket I/O while a lock is held")]
    fn a_socket_write_under_a_lock_panics() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut conn = Conn::Unix(a);
        let table = sync::Lock::new(());
        table.with(|_| write_all_deadline(&mut conn, b"x", Duration::from_secs(1)));
    }
}
