//! Real transport for the serve wire protocol: TCP and unix-domain
//! listeners, connection lifecycle, and graceful drain, specified in
//! `docs/SERVE_PROTOCOL.md` §6. Around the sans-IO core — frames in,
//! responses out in request order, each answered by [`crate::handle`]:
//!
//! - **Policy, sans-IO**: the private `conn::ConnState` assembles a
//!   connection's frames and owns its read, write and idle deadlines,
//!   the drain-done check, and which error frame and close reason end
//!   it. It takes time as a `Duration` and never sees a socket; the
//!   per-connection driver here is the only code that reads a
//!   connection's socket or clock.
//! - **Backpressure**: a connection serves its requests serially, and a
//!   bounded gate caps server-wide *execution*: a permit covers one
//!   [`crate::handle`] call and is released before the response is
//!   written, so a client that stops reading never holds a slot.
//! - **Scale layers**: an optional [`ResponseCache`] and optional
//!   per-client [`AdmissionControl`], handed to [`crate::handle`].
//! - **Graceful drain**: [`Server::drain`] refuses new connections
//!   with [`ERR_SHUTTING_DOWN`] while existing ones finish on their
//!   pinned epochs, force-closing stragglers at the grace deadline.
//!
//! Its two locks (the connection table, the gate's counter) are leaves
//! of the private `sync` module; debug builds assert on every socket
//! read and write that neither is held.

use crate::cache::{CacheConfig, CacheStats, ResponseCache};
use crate::conn::{Close, ConnState, FrameAssembler, OversizedFrame, Step};
use crate::limiter::{AdmissionControl, ClientKey, RateLimitConfig};
use crate::pool::{error_frame, handle, Outcome};
use crate::protocol::{self, decode_response, Response, ERR_OVERLOADED, ERR_SHUTTING_DOWN};
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

/// Socket-level poll granularity: the syscall timeout of every blocking
/// read and write, so drivers see drain flags and their deadlines.
pub(crate) const TICK: Duration = Duration::from_millis(25);

/// Accept-loop poll granularity (listeners run nonblocking so drain
/// can stop them without a wakeup connection).
const ACCEPT_TICK: Duration = Duration::from_millis(5);

/// Read chunk size: one chunk plus one partial frame bounds a
/// connection's receive buffering.
const READ_CHUNK: usize = 16 * 1024;

/// Where a server listens or a client connects: `tcp:IP:PORT` or `uds:PATH`.
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

/// One accepted or dialed stream, TCP or unix-domain.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    /// Make every blocking read and write return after one [`TICK`].
    fn set_tick_timeouts(&self) -> io::Result<()> {
        let tick = Some(TICK);
        match self {
            Conn::Tcp(s) => s.set_read_timeout(tick).and(s.set_write_timeout(tick)),
            Conn::Unix(s) => s.set_read_timeout(tick).and(s.set_write_timeout(tick)),
        }
    }

    /// A second handle on the socket (a duplicated fd): the connection
    /// table keeps one so drain can force-close it from another thread.
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

    /// One read, never under a lock.
    fn read(&mut self, buf: &mut [u8]) -> Io {
        sync::assert_unlocked();
        Io::of(match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        })
    }

    /// One write, never under a lock.
    fn write(&mut self, buf: &[u8]) -> Io {
        sync::assert_unlocked();
        Io::of(match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        })
    }
}

/// What one socket read or write did, told apart once for server and
/// client: `n > 0` bytes moved, the peer closed, a [`TICK`] passed with
/// nothing moved, a signal asks for a retry, or the socket failed.
enum Io {
    Moved(usize),
    Closed,
    Tick,
    Retry,
    Failed(io::Error),
}

impl Io {
    fn of(result: io::Result<usize>) -> Io {
        match result {
            Ok(0) => Io::Closed,
            Ok(n) => Io::Moved(n),
            Err(e) => match e.kind() {
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Io::Tick,
                io::ErrorKind::Interrupted => Io::Retry,
                _ => Io::Failed(e),
            },
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
    /// Bind nonblocking (see [`ACCEPT_TICK`]); returns the resolved address.
    fn bind(addr: &BindAddr) -> io::Result<(ListenSocket, BindAddr)> {
        match addr {
            BindAddr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                l.set_nonblocking(true)?;
                let resolved = BindAddr::Tcp(l.local_addr()?);
                Ok((ListenSocket::Tcp(l), resolved))
            }
            BindAddr::Unix(p) => {
                // The daemon owns its socket path: a stale file from a
                // previous run would otherwise wedge every restart.
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p)?;
                l.set_nonblocking(true)?;
                Ok((ListenSocket::Unix(l, p.clone()), addr.clone()))
            }
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

/// Everything tunable about a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-connection ceiling; connection number N + 1 is
    /// answered with one [`ERR_OVERLOADED`] frame and closed.
    pub max_connections: usize,
    /// Server-wide cap on requests executing at once: a connection that
    /// waits here stops reading, which backpressures its client.
    pub max_inflight: usize,
    /// How long a started frame may stay incomplete before the sender
    /// is rejected as too slow ([`protocol::ERR_TIMEOUT`], close).
    pub read_timeout: Duration,
    /// How long writing one response may take before the receiver is
    /// cut off (close; [`ServerStats::write_timeouts`]).
    pub write_timeout: Duration,
    /// How long a connection may sit with no traffic (and no partial
    /// frame) before it is closed quietly.
    pub idle_timeout: Duration,
    /// Response cache policy; `None` disables caching.
    pub cache: Option<CacheConfig>,
    /// Per-client admission control; `None` admits everything.
    pub rate: Option<RateLimitConfig>,
    /// How long [`Server::drain`] waits before force-closing connections.
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
    /// Connections closed for a frame incomplete at the read deadline.
    pub read_timeouts: u64,
    /// Connections closed for a response unwritten at the write
    /// deadline, or a peer that vanished mid-write.
    pub write_timeouts: u64,
}

/// What [`Server::drain`] observed.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Wall-clock time from drain start to the last connection closing.
    pub drain: Duration,
    /// Connections force-closed at the grace deadline (0 when clean).
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

    /// Count a connection's close reason in its counter, if it has one.
    fn closed(&self, why: Close) {
        let cell = match why {
            Close::ReadTimeout => &self.read_timeouts,
            Close::Oversized => &self.oversized_frames,
            Close::WriteTimeout => &self.write_timeouts,
            Close::Peer | Close::Idle | Close::Drained => return,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

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

#[derive(Default)]
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

/// The daemon core: TCP and/or unix-domain listeners serving a shared
/// [`SnapshotRegistry`], one handler thread per connection.
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
            conns: Monitor::new(ConnTable::default()),
            stats: StatCells::default(),
        });
        let bound = binds.iter().map(ListenSocket::bind);
        let (sockets, addrs): (Vec<_>, Vec<_>) =
            bound.collect::<io::Result<Vec<_>>>()?.into_iter().unzip();
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

    /// The resolved listen addresses (a `tcp:IP:0` bind reports its port).
    pub fn local_addrs(&self) -> &[BindAddr] {
        &self.addrs
    }

    /// Current server counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Start draining without waiting: new connections get one
    /// [`ERR_SHUTTING_DOWN`] frame; existing ones finish and close.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Stop the listeners and join their threads.
    fn stop(&mut self) {
        self.begin_drain();
        self.shared.stopped.store(true, Ordering::SeqCst);
        for h in self.accept_threads.drain(..) {
            let _ = h.join();
        }
    }

    /// Drain and stop: begin the drain, wait for every connection to
    /// finish — force-closing any alive at the `drain_grace` deadline —
    /// then stop the listeners. After this returns, nothing listens and
    /// no response is ever written again.
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
        self.stop();
        DrainReport {
            drain: t0.elapsed(),
            forced_closes,
            stats: self.shared.stats.snapshot(),
            cache: self.shared.cache.as_ref().map(|c| c.stats()),
        }
    }
}

impl Drop for Server {
    /// Stops the listeners; handlers wind down on their own deadlines.
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(shared: &Arc<Shared>, sock: &ListenSocket) {
    let stats = &shared.stats;
    while !shared.stopped.load(Ordering::SeqCst) {
        match sock.accept() {
            Ok((conn, key)) => {
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                if shared.draining.load(Ordering::SeqCst) {
                    reject(shared, conn, ERR_SHUTTING_DOWN, &stats.rejected_shutdown);
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
                    reject(shared, conn, ERR_OVERLOADED, &stats.rejected_overloaded);
                    continue;
                };
                let shared = Arc::clone(shared);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "one handler thread per connection; the daemon is outside the \
                              determinism boundary"
                )]
                std::thread::spawn(move || {
                    handle_conn(&shared, conn, &key);
                    shared.conns.with(|table| table.live.remove(&id));
                    shared.conns.notify_all();
                });
            }
            Err(_) => std::thread::sleep(ACCEPT_TICK),
        }
    }
    sock.cleanup();
}

/// Best-effort rejection at accept time, counted in `counter`: one Error
/// frame, then close. The frame answers no request: clients treat it as
/// connection-level status (docs/SERVE_PROTOCOL.md §6.1).
fn reject(shared: &Shared, mut conn: Conn, code: u8, counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
    let frame = error_frame(&shared.registry, code);
    let _ = conn.set_tick_timeouts();
    let _ = write_all_deadline(&mut conn, &frame, Duration::from_millis(250));
}

/// Write all of `bytes`; after each [`TICK`] that moved nothing,
/// `patient` says whether to wait on. `false` when a write fell short.
fn write_all(conn: &mut Conn, bytes: &[u8], mut patient: impl FnMut() -> bool) -> bool {
    let mut at = 0usize;
    while at < bytes.len() {
        match conn.write(&bytes[at..]) {
            Io::Moved(n) => at += n,
            Io::Tick if patient() => {}
            Io::Retry => {}
            Io::Tick | Io::Closed | Io::Failed(_) => return false,
        }
    }
    true
}

/// [`write_all`] within `timeout` of wall-clock time.
fn write_all_deadline(conn: &mut Conn, bytes: &[u8], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    write_all(conn, bytes, || Instant::now() < deadline)
}

/// Execute one envelope: permit → [`handle`] → release → count.
fn serve_frame(shared: &Shared, key: &ClientKey, envelope: &[u8]) -> Arc<[u8]> {
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
    bytes
}

/// The per-connection driver, the only code that reads a connection's
/// socket or clock: one read per event, every decision [`ConnState`]'s.
/// Response N is written before request N + 1 is read, so a slow
/// client backpressures itself.
fn handle_conn(shared: &Shared, mut conn: Conn, key: &ClientKey) {
    let _ = conn.set_tick_timeouts();
    let opened = Instant::now();
    let now = || opened.elapsed();
    let mut st = ConnState::new(&shared.cfg, now());
    let mut chunk = vec![0u8; READ_CHUNK];
    // One frame under the write deadline, which no drain overrides.
    let write = |conn: &mut Conn, st: &mut ConnState<'_>, frame: &[u8]| {
        st.on_write(now());
        let patient = || matches!(st.on_tick(now(), false), Step::Wait);
        write_all(conn, frame, patient)
    };
    let close = loop {
        let step = match st.next_frame() {
            Step::Wait => {
                let draining = shared.draining.load(Ordering::SeqCst);
                match conn.read(&mut chunk) {
                    Io::Moved(n) => st.on_bytes(now(), &chunk[..n]),
                    Io::Tick => st.on_tick(now(), draining),
                    Io::Retry => continue,
                    Io::Closed | Io::Failed(_) => break Close::Peer,
                }
            }
            step => step,
        };
        match step {
            Step::Serve(envelope) => {
                if !write(&mut conn, &mut st, &serve_frame(shared, key, &envelope)) {
                    break Close::WriteTimeout;
                }
                st.on_written(now());
            }
            Step::Fail(code, why) => {
                let _ = write(&mut conn, &mut st, &error_frame(&shared.registry, code));
                break why;
            }
            Step::Close(why) => break why,
            Step::Wait => {}
        }
    };
    shared.stats.closed(close);
}

/// What can go wrong on the client side of a connection.
#[derive(Debug)]
pub enum ClientError {
    /// A socket-level failure (includes an exceeded deadline).
    Io(io::Error),
    /// The server closed the stream cleanly: drain, idle timeout, or a
    /// rejection after its one status frame.
    Closed,
    /// A frame arrived but did not decode (checksum, version, layout).
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

/// The client's exceeded-deadline error.
fn timed_out(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, format!("{what} deadline exceeded"))
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A small blocking client: `expansectl`, the repo benchmark's serve
/// workloads and the transport tests speak through it. Responses match
/// requests by position; [`ServeClient::call`] is the one-request
/// convenience.
#[derive(Debug)]
pub struct ServeClient {
    conn: Conn,
    asm: FrameAssembler,
    timeout: Duration,
}

impl ServeClient {
    /// Connect (TCP or unix-domain), with a 10 s default deadline.
    pub fn connect(addr: &BindAddr) -> io::Result<ServeClient> {
        let conn = match addr {
            BindAddr::Tcp(a) => {
                let s = TcpStream::connect(a)?;
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }
            BindAddr::Unix(p) => Conn::Unix(UnixStream::connect(p)?),
        };
        conn.set_tick_timeouts()?;
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

    /// Send pre-framed bytes verbatim (how tests send broken frames).
    pub fn send_raw(&mut self, framed: &[u8]) -> io::Result<()> {
        let sent = write_all_deadline(&mut self.conn, framed, self.timeout);
        sent.then_some(()).ok_or_else(|| timed_out("send"))
    }

    /// Receive the next raw envelope (without its length prefix).
    pub fn recv_frame(&mut self) -> Result<Vec<u8>, ClientError> {
        let deadline = Instant::now() + self.timeout;
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            if let Some(frame) = self.asm.next_frame().map_err(ClientError::Oversized)? {
                return Ok(frame);
            }
            match self.conn.read(&mut chunk) {
                Io::Moved(n) => self.asm.push(&chunk[..n]),
                Io::Closed => return Err(ClientError::Closed),
                Io::Tick if Instant::now() >= deadline => return Err(timed_out("recv").into()),
                Io::Tick | Io::Retry => {}
                Io::Failed(e) => return Err(ClientError::Io(e)),
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

    fn connections(server: &Server) -> usize {
        server.shared.conns.with(|table| table.live.len())
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
    fn close_reasons_count_one_to_one() {
        let counted = |why| {
            let cells = StatCells::default();
            cells.closed(why);
            cells.snapshot()
        };
        let none = ServerStats::default();
        assert_eq!(
            counted(Close::ReadTimeout),
            ServerStats {
                read_timeouts: 1,
                ..none
            }
        );
        assert_eq!(
            counted(Close::Oversized),
            ServerStats {
                oversized_frames: 1,
                ..none
            }
        );
        assert_eq!(
            counted(Close::WriteTimeout),
            ServerStats {
                write_timeouts: 1,
                ..none
            }
        );
        for quiet in [Close::Peer, Close::Idle, Close::Drained] {
            assert_eq!(counted(quiet), none);
        }
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
            if connections(&server) == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(connections(&server), 1);
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
